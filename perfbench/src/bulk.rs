//! `bulk_rw`: one client writing batches of 8 × 4–16 KB blocks (all PRP
//! under the hybrid method) on one queue, NAND on, each batch followed by a
//! byte-exact read-back of one block it wrote. The logical range is half
//! the physical array and each round writes about 10× the array, so FTL
//! garbage collection runs throughout.
//!
//! The traced round pumps the same commands through the driver and
//! controller calls `Device::write_batch` and `Device::read` make, timing
//! each call, so driver and controller host time separate from outside.

use crate::common::{vt_layers, vt_stages, Digest, Rng, Round, Sim, Snap};
use crate::spans::Spans;
use byteexpress::driver::SubmittedCmd;
use byteexpress::{
    Completion, Device, ExecutionModel, IoOpcode, NandConfig, PassthruCmd, QueueId, TransferMethod,
};
use std::time::Instant;

/// Batches per round.
pub const BATCHES: usize = 4000;
/// Writes per batch.
pub const BATCH: usize = 8;
/// Blocks (4 KB LBAs) per write slot: the largest write's span.
const SLOT_LBAS: u64 = 4;
/// Write slots in the logical range (16 MB).
const SLOTS: u64 = 1024;
/// Bytes of seeded payload the writes are cut from.
const POOL: usize = 1 << 20;

/// 32 MB of NAND (8192 pages), so a round overwrites it several times.
pub fn nand_config() -> NandConfig {
    NandConfig {
        channels: 2,
        dies_per_channel: 2,
        blocks_per_die: 32,
        pages_per_block: 64,
        ..NandConfig::small()
    }
}

/// One write: target block and the payload's place in the pool.
#[derive(Debug, Clone, Copy)]
pub struct Write {
    pub lba: u64,
    pub off: usize,
    pub len: usize,
}

/// A batch of writes and which of them to read back.
#[derive(Debug, Clone)]
pub struct Batch {
    pub writes: [Write; BATCH],
    pub read: usize,
}

/// The generated batches and the payload pool.
#[derive(Debug)]
pub struct BulkInputs {
    pub pool: Vec<u8>,
    pub batches: Vec<Batch>,
    /// Expected read-back bytes override (tests corrupt this to prove a
    /// mismatch is counted).
    pub corrupt_read: Option<usize>,
}

impl BulkInputs {
    pub fn generate(seed: u64, batches: usize) -> Self {
        let mut rng = Rng::new(seed, 2);
        let pool = rng.bytes(POOL);
        let batches = (0..batches)
            .map(|_| {
                let mut slots = [u64::MAX; BATCH];
                let writes = std::array::from_fn(|i| {
                    // Distinct slots, so no write in a batch overlaps another.
                    let mut slot = rng.range(0, SLOTS - 1);
                    while slots[..i].contains(&slot) {
                        slot = rng.range(0, SLOTS - 1);
                    }
                    slots[i] = slot;
                    let len = rng.range(4 << 10, 16 << 10) as usize;
                    Write {
                        lba: slot * SLOT_LBAS,
                        off: rng.range(0, (POOL - len) as u64) as usize,
                        len,
                    }
                });
                Batch {
                    writes,
                    read: rng.range(0, BATCH as u64 - 1) as usize,
                }
            })
            .collect();
        BulkInputs {
            pool,
            batches,
            corrupt_read: None,
        }
    }

    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        d.bytes(&self.pool);
        for b in &self.batches {
            for w in &b.writes {
                d.u64(w.lba).u64(w.off as u64).u64(w.len as u64);
            }
            d.u64(b.read as u64);
        }
        d.value()
    }

    fn data(&self, w: &Write) -> &[u8] {
        &self.pool[w.off..w.off + w.len]
    }

    /// Runs one round on a fresh device. With `spans` the device records a
    /// trace and the commands are pumped by hand under host spans.
    pub fn round(&self, mut spans: Option<&mut Spans>) -> Round {
        let t0 = Instant::now();
        let mut dev = Device::builder()
            .nand_config(nand_config())
            .execution_model(ExecutionModel::Serial)
            .trace(spans.is_some())
            .build();
        let setup_ns = t0.elapsed().as_nanos() as u64;
        let qid = dev.queues()[0];
        let method = TransferMethod::hybrid_default();

        let before = Snap::of(&mut dev);
        let v0 = dev.now();
        let ops = (self.batches.len() * (BATCH + 1)) as u64;
        let mut host_lat_ns = Vec::with_capacity(ops as usize);
        let mut sim_lat = Vec::with_capacity(ops as usize);
        let mut failed = 0u64;
        let mut polled = Vec::new();
        let w0 = Instant::now();
        for (bi, b) in self.batches.iter().enumerate() {
            let t = Instant::now();
            let writes = match spans.as_deref_mut() {
                None => {
                    let items: Vec<(u64, Vec<u8>)> = b
                        .writes
                        .iter()
                        .map(|w| (w.lba, self.data(w).to_vec()))
                        .collect();
                    dev.write_batch(qid, &items, method).ok()
                }
                Some(s) => {
                    s.enter("bench.batch");
                    let cmds: Vec<(PassthruCmd, TransferMethod)> = b
                        .writes
                        .iter()
                        .map(|w| (write_cmd(w.lba, self.data(w).to_vec()), method))
                        .collect();
                    let r = pump_batch(&mut dev, s, qid, &cmds, &mut polled);
                    s.exit();
                    r
                }
            };
            let dt = t.elapsed().as_nanos() as u64;
            host_lat_ns.extend([dt; BATCH]);
            match writes {
                Some(cs) if cs.iter().all(|c| c.status.is_success()) => {
                    sim_lat.extend(cs.iter().map(|c| c.latency().as_ns()));
                }
                _ => failed += BATCH as u64,
            }

            let w = &b.writes[b.read];
            let cmd = read_cmd(w.lba, w.len);
            let t = Instant::now();
            let read = match spans.as_deref_mut() {
                // Device::read is this passthru plus a status check; the
                // Completion carries the virtual latency.
                None => dev.passthru(&cmd, TransferMethod::Prp).ok(),
                Some(s) => {
                    s.enter("bench.read");
                    let r = pump_one(&mut dev, s, qid, &cmd, &mut polled);
                    s.exit();
                    r
                }
            };
            host_lat_ns.push(t.elapsed().as_nanos() as u64);
            let mut expected = self.data(w);
            let corrupted;
            if self.corrupt_read == Some(bi) {
                corrupted = expected.iter().map(|x| x ^ 1).collect::<Vec<u8>>();
                expected = &corrupted;
            }
            match read {
                Some(c) if c.status.is_success() && c.data.as_deref() == Some(expected) => {
                    sim_lat.push(c.latency().as_ns());
                }
                _ => failed += 1,
            }
        }
        let wall_ns = w0.elapsed().as_nanos() as u64;
        let elapsed_ns = (dev.now() - v0).as_ns();
        let after = Snap::of(&mut dev);
        let mut layers = before.layers(&after, ops);
        let mut stage_mismatches = 0;
        if spans.is_some() {
            let c0 = Instant::now();
            let events = dev.trace_events();
            let mut stages: [Vec<u64>; 3] = Default::default();
            stage_mismatches = vt_stages(&events, &mut stages);
            vt_layers(&mut stages, &mut layers);
            layers.insert("trace.events_per_op", events.len() as f64 / ops as f64);
            let collect_ns = c0.elapsed().as_nanos() as u64;
            layers.insert(
                "bench.trace_collect_ns_per_op",
                collect_ns as f64 / ops as f64,
            );
        }
        Round {
            setup_ns,
            wall_ns,
            attempted: ops,
            failed,
            host_lat_ns,
            sim: Sim {
                elapsed_ns,
                lat_ns: sim_lat,
                traffic: after.traffic.since(&before.traffic),
            },
            layers,
            stage_mismatches,
        }
    }
}

fn write_cmd(lba: u64, data: Vec<u8>) -> PassthruCmd {
    let mut cmd = PassthruCmd::to_device(IoOpcode::Write, 1, data);
    cmd.cdw10_15[0] = lba as u32;
    cmd.cdw10_15[1] = (lba >> 32) as u32;
    cmd
}

fn read_cmd(lba: u64, len: usize) -> PassthruCmd {
    let mut cmd = PassthruCmd::from_device(IoOpcode::Read, 1, len);
    cmd.cdw10_15[0] = lba as u32;
    cmd.cdw10_15[1] = (lba >> 32) as u32;
    cmd
}

/// `Device::write_batch` by hand: one `submit_batch` (which rings the
/// doorbell), a `flush_sq` (nothing left to ring), then controller and
/// completion polls until every command completed. `None` on any error.
fn pump_batch(
    dev: &mut Device,
    s: &mut Spans,
    qid: QueueId,
    cmds: &[(PassthruCmd, TransferMethod)],
    polled: &mut Vec<Completion>,
) -> Option<Vec<Completion>> {
    let batch = s.time("driver.submit", || dev.driver_mut().submit_batch(qid, cmds));
    s.time("driver.flush", || dev.driver_mut().flush_sq(qid))
        .ok()?;
    let out = drain(dev, s, qid, &batch.submitted, polled)?;
    batch.error.is_none().then_some(out)
}

/// `Device::read`'s path by hand (`NvmeDriver::execute` without a retry
/// policy): submit, one doorbell, one controller pass, one poll.
fn pump_one(
    dev: &mut Device,
    s: &mut Spans,
    qid: QueueId,
    cmd: &PassthruCmd,
    polled: &mut Vec<Completion>,
) -> Option<Completion> {
    let sub = s
        .time("driver.submit", || {
            dev.driver_mut().submit(qid, cmd, TransferMethod::Prp)
        })
        .ok()?;
    s.time("driver.flush", || dev.driver_mut().flush_sq(qid))
        .ok()?;
    s.time("ssd.process", || dev.controller_mut().process_available());
    polled.clear();
    s.time("driver.poll", || {
        dev.driver_mut().poll_completions_into(qid, polled)
    })
    .ok()?;
    let i = polled.iter().position(|c| c.cid == sub.cid)?;
    let mut c = polled.swap_remove(i);
    c.submitted_at = sub.submitted_at;
    Some(c)
}

/// Controller pass + completion poll until every submitted cid is back,
/// in submission order; gives up after four idle passes as
/// `Device::write_batch` does.
fn drain(
    dev: &mut Device,
    s: &mut Spans,
    qid: QueueId,
    submitted: &[SubmittedCmd],
    polled: &mut Vec<Completion>,
) -> Option<Vec<Completion>> {
    let mut out: Vec<Option<Completion>> = vec![None; submitted.len()];
    let mut pending = submitted.len();
    let mut idle = 0;
    while pending > 0 {
        s.time("ssd.process", || dev.controller_mut().process_available());
        polled.clear();
        s.time("driver.poll", || {
            dev.driver_mut().poll_completions_into(qid, polled)
        })
        .ok()?;
        if polled.is_empty() {
            idle += 1;
            if idle >= 4 {
                return None;
            }
        } else {
            idle = 0;
        }
        for c in polled.drain(..) {
            if let Some(i) = submitted.iter().position(|x| x.cid == c.cid) {
                if out[i].is_none() {
                    pending -= 1;
                }
                out[i] = Some(c);
            }
        }
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_read_back_counts_as_failure() {
        let mut inputs = BulkInputs::generate(3, 12);
        assert_eq!(inputs.round(None).failed, 0);
        inputs.corrupt_read = Some(5);
        let round = inputs.round(None);
        assert_eq!(round.failed, 1);
        assert_eq!(round.attempted, 12 * (BATCH as u64 + 1));
    }

    #[test]
    fn hand_pumped_round_matches_the_device_api() {
        let inputs = BulkInputs::generate(9, 40);
        let plain = inputs.round(None);
        let mut spans = Spans::new();
        let traced = inputs.round(Some(&mut spans));
        assert_eq!(traced.failed, 0);
        assert_eq!(traced.stage_mismatches, 0);
        assert_eq!(plain.sim.lat_ns, traced.sim.lat_ns);
        assert_eq!(plain.sim.elapsed_ns, traced.sim.elapsed_ns);
        assert_eq!(plain.sim.traffic, traced.sim.traffic);
        let t = spans.totals();
        for layer in [
            "driver.submit",
            "driver.flush",
            "driver.poll",
            "ssd.process",
        ] {
            assert!(t[layer].count > 0, "{layer}");
        }
    }
}
