//! Types shared by the workloads: one round's raw results, the modeled
//! (virtual-time) summary, stats snapshots, and seeded input helpers.

use crate::spans::Spans;
use crate::stats::percentile;
use byteexpress::driver::{DriverStats, RecoveryStats};
use byteexpress::pcie::EnergyModel;
use byteexpress::ssd::{ControllerStats, FtlStats, NandStats};
use byteexpress::{Device, TrafficCounters};
use std::collections::BTreeMap;

/// Per-layer figures of one round, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Everything one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Host time to build and preload the device, ns.
    pub setup_ns: u64,
    /// Host time of the measured phase, ns.
    pub wall_ns: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that erred, returned a non-success status, were
    /// orphaned, or read back wrong.
    pub failed: u64,
    /// Host submit→result latency per operation, ns.
    pub host_lat_ns: Vec<u64>,
    /// Modeled results.
    pub sim: Sim,
    /// Counter-derived per-layer figures (always filled; reported only by
    /// traced runs).
    pub layers: Layers,
    /// Per-command virtual-time stage check failures (traced rounds).
    pub stage_mismatches: u64,
}

/// Modeled (virtual-time) results of one round.
#[derive(Debug, Default)]
pub struct Sim {
    /// Virtual time the measured phase took, ns.
    pub elapsed_ns: u64,
    /// Virtual submit→CQE-consumed latency per operation, ns.
    pub lat_ns: Vec<u64>,
    /// Link traffic of the measured phase.
    pub traffic: TrafficCounters,
}

/// The modeled end-to-end metrics. They repeat exactly for a given input,
/// so two rounds (or a traced and an untraced round) compare with `==`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSummary {
    pub iops: f64,
    pub lat_p50_us: f64,
    pub lat_p99_us: f64,
    pub wire_bytes_per_op: f64,
    pub link_pj_per_op: f64,
}

impl Sim {
    /// Summarizes `ops` operations.
    pub fn summary(&self, ops: u64) -> SimSummary {
        let mut lat = self.lat_ns.clone();
        lat.sort_unstable();
        let ops_f = ops.max(1) as f64;
        SimSummary {
            iops: ops as f64 / (self.elapsed_ns.max(1) as f64 / 1e9),
            lat_p50_us: percentile(&lat, 50.0) as f64 / 1e3,
            lat_p99_us: percentile(&lat, 99.0) as f64 / 1e3,
            wire_bytes_per_op: self.traffic.total_bytes() as f64 / ops_f,
            link_pj_per_op: EnergyModel::default().total(&self.traffic).0 / ops_f,
        }
    }
}

/// A snapshot of every public stats struct below the client.
#[derive(Debug, Clone, Default)]
pub struct Snap {
    pub traffic: TrafficCounters,
    pub driver: DriverStats,
    pub recovery: RecoveryStats,
    pub ctrl: ControllerStats,
    pub ftl: FtlStats,
    pub nand: NandStats,
}

impl Snap {
    /// Snapshots a [`Device`].
    pub fn of(dev: &mut Device) -> Snap {
        Snap {
            traffic: dev.traffic(),
            driver: dev.driver_mut().stats(),
            recovery: dev.recovery_stats(),
            ctrl: dev.controller().stats(),
            ftl: dev.controller().ftl_stats(),
            nand: dev.controller().nand_stats(),
        }
    }

    /// Per-layer figures for `ops` operations between `self` and `later`.
    pub fn layers(&self, later: &Snap, ops: u64) -> Layers {
        let per_op = |x: u64| x as f64 / ops.max(1) as f64;
        let d = |a: u64, b: u64| b.saturating_sub(a);
        let (a, b) = (self, later);
        let traffic = b.traffic.since(&a.traffic);
        let flushes = d(a.driver.batch_flushes, b.driver.batch_flushes);
        let batched = d(a.driver.batched_cmds, b.driver.batched_cmds);
        let host_writes = d(a.ftl.host_writes, b.ftl.host_writes);
        let gc_writes = d(a.ftl.gc_writes, b.ftl.gc_writes);
        let mut l = Layers::new();
        l.insert(
            "driver.doorbells_per_op",
            per_op(d(a.driver.doorbells, b.driver.doorbells)),
        );
        l.insert("driver.batched_cmds_per_flush", ratio(batched, flushes));
        l.insert("pcie.doorbell_tlps_per_op", per_op(traffic.doorbell_tlps()));
        l.insert(
            "driver.chunks_per_op",
            per_op(d(a.driver.chunks_written, b.driver.chunks_written)),
        );
        l.insert(
            "ssd.chunks_fetched_per_op",
            per_op(d(a.ctrl.chunks_fetched, b.ctrl.chunks_fetched)),
        );
        l.insert(
            "ssd.inline_bytes_per_op",
            per_op(d(a.ctrl.inline_payload_bytes, b.ctrl.inline_payload_bytes)),
        );
        l.insert(
            "driver.pages_mapped_per_op",
            per_op(d(a.driver.pages_mapped, b.driver.pages_mapped)),
        );
        l.insert(
            "ssd.prp_bytes_per_op",
            per_op(d(a.ctrl.prp_payload_bytes, b.ctrl.prp_payload_bytes)),
        );
        l.insert("pcie.tlps_per_op", per_op(traffic.total_tlps()));
        l.insert("ftl.write_amp", ratio(host_writes + gc_writes, host_writes));
        l.insert(
            "ftl.gc_erases_per_kop",
            1e3 * per_op(d(a.ftl.gc_erases, b.ftl.gc_erases)),
        );
        l.insert(
            "nand.programs_per_op",
            per_op(d(a.nand.programs, b.nand.programs)),
        );
        l.insert("nand.reads_per_op", per_op(d(a.nand.reads, b.nand.reads)));
        l.insert(
            "driver.recovery.timeouts",
            d(a.recovery.timeouts, b.recovery.timeouts) as f64,
        );
        l.insert(
            "driver.recovery.retries",
            d(a.recovery.retries, b.recovery.retries) as f64,
        );
        l.insert(
            "ssd.stalled_evictions",
            d(a.ctrl.stalled_evictions, b.ctrl.stalled_evictions) as f64,
        );
        l
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Host spans the workloads record, with the per-layer metric each feeds
/// and whether it is per call (`true`, for the per-request client APIs) or
/// per operation of the measured loop. Spans named `bench.*` are the
/// harness's own.
const SPAN_METRICS: [(&str, &str, bool); 9] = [
    ("driver.submit", "driver.submit_ns_per_op", false),
    ("driver.flush", "driver.flush_ns_per_op", false),
    ("driver.poll", "driver.poll_ns_per_op", false),
    ("ssd.process", "ssd.process_ns_per_op", false),
    ("reactor.run", "reactor.run_ns_per_op", false),
    ("reactor.client", "reactor.client_ns_per_op", false),
    ("kvssd.put", "kvssd.put_ns", true),
    ("kvssd.get", "kvssd.get_ns", true),
    ("csd.pushdown", "csd.pushdown_ns", true),
];

/// Folds host-span self times into per-layer figures, plus the harness's
/// own time and the time no span claimed.
pub fn span_layers(spans: &Spans, ops: u64, wall_ns: u64, l: &mut Layers) {
    let per_op = |x: u64| x as f64 / ops.max(1) as f64;
    let mut harness = 0u64;
    for (name, t) in spans.totals() {
        match SPAN_METRICS.iter().find(|m| m.0 == name) {
            Some(&(_, metric, true)) => l.insert(metric, ratio(t.self_ns, t.count)),
            Some(&(_, metric, false)) => l.insert(metric, per_op(t.self_ns)),
            None => {
                debug_assert!(name.starts_with("bench."), "unmapped span {name}");
                harness += t.self_ns;
                None
            }
        };
    }
    l.insert("bench.harness_ns_per_op", per_op(harness));
    l.insert(
        "bench.unattributed_ns_per_op",
        per_op(crate::spans::unattributed_ns(wall_ns, spans)),
    );
}

/// Virtual-time stage split of every complete command in `events`: SQ wait
/// (submit→fetch), device (fetch→CQE post) and CQ (post→consume), ns. A
/// command whose stages do not add up to its span latency counts in the
/// returned mismatch total.
pub fn vt_stages(events: &[byteexpress::Event], out: &mut [Vec<u64>; 3]) -> u64 {
    let mut mismatches = 0;
    for s in byteexpress::reconstruct_spans(events) {
        let (Some(f), Some(c), Some(e)) = (s.fetched, s.completed, s.consumed) else {
            continue;
        };
        let stages = [
            f.saturating_sub(s.submitted).as_ns(),
            c.saturating_sub(f).as_ns(),
            e.saturating_sub(c).as_ns(),
        ];
        if Some(stages.iter().sum::<u64>()) != s.latency().map(|l| l.as_ns()) {
            mismatches += 1;
        }
        for (v, x) in out.iter_mut().zip(stages) {
            v.push(x);
        }
    }
    mismatches
}

/// Adds `vt.<stage>_us_p50/p99` for stage samples gathered by
/// [`vt_stages`].
pub fn vt_layers(stages: &mut [Vec<u64>; 3], l: &mut Layers) {
    const NAMES: [[&str; 2]; 3] = [
        ["vt.sq_wait_us_p50", "vt.sq_wait_us_p99"],
        ["vt.device_us_p50", "vt.device_us_p99"],
        ["vt.cq_us_p50", "vt.cq_us_p99"],
    ];
    for (v, [p50, p99]) in stages.iter_mut().zip(NAMES) {
        v.sort_unstable();
        l.insert(p50, percentile(v, 50.0) as f64 / 1e3);
        l.insert(p99, percentile(v, 99.0) as f64 / 1e3);
    }
}

/// SplitMix64: a small, seedable generator for benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// `len` pseudo-random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }
}

/// FNV-1a digest of generated inputs, for the seed-plumbing check.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0100_0000_01B3);
        }
        self
    }

    pub fn u64(&mut self, x: u64) -> &mut Self {
        self.bytes(&x.to_le_bytes())
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// The process's peak resident set size in MiB (`VmHWM`), if readable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
