//! Proof that the pipelined ByteExpress hot path is allocation-free in
//! steady state.
//!
//! A counting `#[global_allocator]` wraps `System`; after a warmup phase
//! fills every pool (driver cid slab, SQ ring images, controller scratch
//! payload, deferred-completion queue, reassembly spare buffers), a
//! 10k-command pipelined submit→complete window must perform **zero** heap
//! allocations. In-flight command state lives in a slab, inline chunks
//! encode into a stack buffer, `gather_inline` streams into a recycled
//! scratch `Vec`, and completions poll into a caller-owned buffer via
//! `poll_completions_into`. A second window pins the synchronous path:
//! `Device::passthru` (→ `NvmeDriver::execute` → the driver's completion
//! wait, which polls into driver-owned scratch) must allocate nothing
//! either.
//!
//! The file holds exactly one `#[test]` so no sibling test thread can
//! allocate while the counter is armed.

use bx_driver::Completion;
use byteexpress::{Device, ExecutionModel, IoOpcode, PassthruCmd, QueueId, TransferMethod};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Delegates to `System`, counting allocations while `ARMED` is set.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            REALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const QUEUES: usize = 4;
const ROUND_QD: usize = 8;
const WINDOW_CMDS: usize = 10_000;
const SYNC_CMDS: usize = 1_000;

fn write_cmd(lba: u64, len: usize) -> PassthruCmd {
    let data: Vec<u8> = (0..len).map(|j| (lba as usize + j) as u8).collect();
    let mut cmd = PassthruCmd::to_device(IoOpcode::Write, 1, data);
    cmd.cdw10_15[0] = lba as u32;
    cmd
}

/// One round: submit `ROUND_QD` ByteExpress writes on each queue, then pump
/// the controller and poll every queue (into `buf`, reused) until all
/// completions of the round arrived. Panics on any failure so the window
/// can't silently shrink.
fn round(
    dev: &mut Device,
    queues: &[QueueId],
    cmds: &[PassthruCmd],
    buf: &mut Vec<Completion>,
) -> usize {
    let mut expected = 0usize;
    for &qid in queues {
        for cmd in cmds {
            dev.driver_mut()
                .submit(qid, cmd, TransferMethod::ByteExpress)
                .expect("submit must succeed");
            expected += 1;
        }
    }
    let mut done = 0usize;
    let mut idle = 0u32;
    while done < expected {
        dev.controller_mut().process_available();
        let mut progressed = false;
        for &qid in queues {
            buf.clear();
            dev.driver_mut()
                .poll_completions_into(qid, buf)
                .expect("poll must succeed");
            for c in buf.iter() {
                assert!(c.status.is_success(), "completion failed: {:?}", c.status);
            }
            if !buf.is_empty() {
                progressed = true;
            }
            done += buf.len();
        }
        if progressed {
            idle = 0;
        } else {
            idle += 1;
            assert!(idle < 8, "controller stalled mid-round ({done}/{expected})");
        }
    }
    done
}

#[test]
fn pipelined_hot_path_is_allocation_free_in_steady_state() {
    let mut dev = Device::builder()
        .nand_io(false)
        .queue_count(QUEUES)
        .queue_depth(64)
        .execution_model(ExecutionModel::Pipelined)
        .build();
    let queues: Vec<QueueId> = dev.queues().to_vec();
    // Commands built once, outside the counting window; `submit` borrows
    // them, so rounds reuse the same payload storage.
    let cmds: Vec<PassthruCmd> = (0..ROUND_QD as u64).map(|i| write_cmd(i * 8, 64)).collect();
    let mut buf: Vec<Completion> = Vec::with_capacity(64);

    // Warmup: fill every lazily-grown pool — the driver's cid table and
    // inflight slab, SQ ring memory, the controller's scratch payload and
    // deferred-completion queue, DRAM page buffers.
    let per_round = QUEUES * ROUND_QD;
    for _ in 0..16 {
        round(&mut dev, &queues, &cmds, &mut buf);
    }

    // The measured window: >= 10k commands with the counter armed.
    let rounds = WINDOW_CMDS.div_ceil(per_round);
    ARMED.store(true, Ordering::SeqCst);
    let mut total = 0usize;
    for _ in 0..rounds {
        total += round(&mut dev, &queues, &cmds, &mut buf);
    }
    ARMED.store(false, Ordering::SeqCst);

    assert!(total >= WINDOW_CMDS, "window too small: {total}");
    let allocs = ALLOCS.swap(0, Ordering::SeqCst);
    let reallocs = REALLOCS.swap(0, Ordering::SeqCst);
    assert_eq!(
        (allocs, reallocs),
        (0, 0),
        "steady-state pipelined window must not touch the heap \
         ({total} commands performed {allocs} allocs + {reallocs} reallocs)"
    );

    // The synchronous window: warmed-up ByteExpress 64 B writes through
    // `Device::passthru`, one at a time.
    let cmd = write_cmd(0, 64);
    let mut sync = |dev: &mut Device| {
        let c = dev
            .passthru(&cmd, TransferMethod::ByteExpress)
            .expect("passthru must succeed");
        assert!(c.status.is_success(), "completion failed: {:?}", c.status);
    };
    for _ in 0..16 {
        sync(&mut dev);
    }
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..SYNC_CMDS {
        sync(&mut dev);
    }
    ARMED.store(false, Ordering::SeqCst);

    let allocs = ALLOCS.load(Ordering::SeqCst);
    let reallocs = REALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        (allocs, reallocs),
        (0, 0),
        "steady-state Device::passthru must not touch the heap \
         ({SYNC_CMDS} commands performed {allocs} allocs + {reallocs} reallocs)"
    );
}
