//! Proof that the CSD filter scan allocates nothing per row or per page.
//!
//! A counting `#[global_allocator]` wraps `System`. A NAND-off segment
//! pushdown over a table of 1 flushed page (plus a staging tail) and one
//! over 10 pages must perform the same number of heap allocations: the
//! firmware scans device-DRAM pages and the staging buffer in place, decodes
//! each row into one per-task cell buffer, and stages results in a buffer
//! reused across tasks.
//!
//! The file holds exactly one `#[test]` so no sibling test thread can
//! allocate while the counter is armed.

use bx_csd::{Column, ColumnType, CsdConfig, CsdSession, Row, Schema, TaskEncoding, Value};
use byteexpress::TransferMethod;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Delegates to `System`, counting allocations while `ARMED` is set.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed statistic that
// publishes no other data.
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
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// 16-byte rows: 255 fill one 4 KB page after its 4-byte header.
const ROWS_PER_PAGE: usize = 255;
/// Rows left in device-DRAM staging after the full pages.
const TAIL: usize = 10;

fn schema(table: &str) -> Schema {
    Schema::new(
        table,
        vec![
            Column::new("id", ColumnType::Int),
            Column::new("energy", ColumnType::Float),
        ],
    )
}

fn rows(pages: usize) -> Vec<Row> {
    (0..pages * ROWS_PER_PAGE + TAIL)
        .map(|i| Row::new(vec![Value::Int(i as i64), Value::Float(i as f64 / 10.0)]))
        .collect()
}

/// Heap allocations of one `id < 5` pushdown on `table`.
fn pushdown_allocs(s: &mut CsdSession, table: &str) -> u64 {
    ALLOCS.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let report = s.pushdown(
        "",
        table,
        "id < 5",
        TaskEncoding::Segment,
        TransferMethod::ByteExpress,
    );
    ARMED.store(false, Ordering::Relaxed);
    assert_eq!(report.expect("pushdown succeeds").matches, 5);
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn scan_allocations_do_not_grow_with_table_size() {
    let mut s = CsdSession::open(CsdConfig {
        nand_io: false,
        ..CsdConfig::default()
    });
    for (table, pages) in [("pg01", 1), ("pg10", 10)] {
        let schema = schema(table);
        s.create_table(&schema).unwrap();
        s.load_rows(&schema, &rows(pages)).unwrap();
    }
    // Warm up driver, controller and firmware buffers.
    for _ in 0..3 {
        pushdown_allocs(&mut s, "pg01");
        pushdown_allocs(&mut s, "pg10");
    }
    let before = s.device_stats().rows_scanned;
    let one_page = pushdown_allocs(&mut s, "pg01");
    let ten_pages = pushdown_allocs(&mut s, "pg10");
    assert_eq!(
        s.device_stats().rows_scanned - before,
        (11 * ROWS_PER_PAGE + 2 * TAIL) as u64,
        "both tables scanned in full"
    );
    assert_eq!(
        one_page, ten_pages,
        "a 10-page scan allocated {ten_pages} times vs {one_page} for 1 page"
    );
}
