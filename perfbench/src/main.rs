//! The repository's benchmark: four seeded, closed-loop workloads driven
//! through the public APIs of `kvssd`, `driver` (sync, batch and reactor),
//! `core`, `csd` and `ssd`, every output checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats rounds until `--seconds` have passed. Each round builds a
//! fresh device (timed as set-up), then replays the same seeded inputs, so
//! modeled (virtual-time) results repeat exactly from round to round and
//! host figures are medians over rounds. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` spends half the time untraced and half traced and
//! prints the per-layer metrics. The last stdout line is one JSON object.
//! See `README.md` beside this crate for the workloads and metrics.

mod bulk;
mod common;
mod csd;
mod kv;
mod reactor_small;
mod refclock;
mod spans;
mod stats;

use common::{peak_rss_mib, Layers, SimSummary};
use spans::Spans;
use stats::{highest_reportable_percentile, median, percentile, quartiles};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = ["kv_mixgraph", "reactor_small", "bulk_rw", "csd_pushdown"];

/// Fewest rounds a run (or each half of a traced run) makes.
const MIN_ROUNDS: usize = 5;

/// End-to-end metrics (tracing off), with units. Host time is wall-clock
/// time of this process; `vs`/`vus` are seconds/microseconds of modeled
/// (virtual) time, which repeat exactly for a given input.
const END_TO_END: [(&str, &str); 11] = [
    ("host_ops_per_s", "1/s"),
    ("host_lat_p50_us", "us"),
    ("host_lat_p99_us", "us"),
    ("sim_iops", "1/vs"),
    ("sim_lat_p50_us", "vus"),
    ("sim_lat_p99_us", "vus"),
    ("wire_bytes_per_op", "B"),
    ("link_pj_per_op", "pJ"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ops_ok_frac", "frac"),
];

/// Per-layer metrics (traced run), with units. A workload that bypasses a
/// layer reports 0 for it.
const PER_LAYER: [(&str, &str); 44] = [
    ("driver.submit_ns_per_op", "ns"),
    ("driver.flush_ns_per_op", "ns"),
    ("driver.poll_ns_per_op", "ns"),
    ("ssd.process_ns_per_op", "ns"),
    ("kvssd.put_ns", "ns"),
    ("kvssd.get_ns", "ns"),
    ("csd.pushdown_ns", "ns"),
    ("reactor.run_ns_per_op", "ns"),
    ("reactor.client_ns_per_op", "ns"),
    ("reactor.turns_per_op", "count"),
    ("reactor.idle_advances", "count"),
    ("reactor.orphaned", "count"),
    ("driver.doorbells_per_op", "count"),
    ("driver.batched_cmds_per_flush", "count"),
    ("pcie.doorbell_tlps_per_op", "count"),
    ("driver.chunks_per_op", "count"),
    ("ssd.chunks_fetched_per_op", "count"),
    ("ssd.inline_bytes_per_op", "B"),
    ("driver.pages_mapped_per_op", "count"),
    ("ssd.prp_bytes_per_op", "B"),
    ("pcie.tlps_per_op", "count"),
    ("ftl.write_amp", "ratio"),
    ("ftl.gc_erases_per_kop", "count"),
    ("nand.programs_per_op", "count"),
    ("nand.reads_per_op", "count"),
    ("kvssd.flushes_per_kput", "count"),
    ("kvssd.get_hit_frac", "frac"),
    ("csd.rows_scanned_per_task", "count"),
    ("csd.task_bytes_per_task", "B"),
    ("vt.sq_wait_us_p50", "vus"),
    ("vt.sq_wait_us_p99", "vus"),
    ("vt.device_us_p50", "vus"),
    ("vt.device_us_p99", "vus"),
    ("vt.cq_us_p50", "vus"),
    ("vt.cq_us_p99", "vus"),
    ("driver.recovery.timeouts", "count"),
    ("driver.recovery.retries", "count"),
    ("ssd.stalled_evictions", "count"),
    ("trace.events_per_op", "count"),
    ("trace.overhead_frac", "frac"),
    ("bench.unattributed_ns_per_op", "ns"),
    ("bench.harness_ns_per_op", "ns"),
    ("bench.trace_collect_ns_per_op", "ns"),
    ("bench.rounds", "count"),
];

/// A workload's generated inputs.
enum Inputs {
    Kv(kv::KvInputs),
    Reactor(reactor_small::ReactorInputs),
    Bulk(bulk::BulkInputs),
    Csd(csd::CsdInputs),
}

/// Round sizes; tests shrink them.
#[derive(Debug, Clone, Copy)]
struct Scale(f64);

impl Scale {
    fn of(self, n: usize) -> usize {
        ((n as f64 * self.0).round() as usize).max(1)
    }
}

impl Inputs {
    fn generate(workload: &str, seed: u64, scale: Scale) -> Option<Self> {
        Some(match workload {
            "kv_mixgraph" => Inputs::Kv(kv::KvInputs::generate(seed, scale.of(kv::OPS))),
            "reactor_small" => Inputs::Reactor(reactor_small::ReactorInputs::generate(
                seed,
                scale.of(reactor_small::OPS_PER_CLIENT),
            )),
            "bulk_rw" => Inputs::Bulk(bulk::BulkInputs::generate(seed, scale.of(bulk::BATCHES))),
            "csd_pushdown" => Inputs::Csd(csd::CsdInputs::generate(seed, scale.of(csd::TASKS))),
            _ => return None,
        })
    }

    fn digest(&self) -> u64 {
        match self {
            Inputs::Kv(i) => i.digest(),
            Inputs::Reactor(i) => i.digest(),
            Inputs::Bulk(i) => i.digest(),
            Inputs::Csd(i) => i.digest(),
        }
    }

    /// One round, summarized at once so a run's memory does not grow with
    /// its length. Traced rounds fold their host spans into the per-layer
    /// figures.
    fn round(&self, traced: bool) -> Outcome {
        let mut spans = traced.then(Spans::new);
        let ref_before = refclock::reference_ns();
        let mut r = match self {
            Inputs::Kv(i) => i.round(spans.as_mut()),
            Inputs::Reactor(i) => i.round(spans.as_mut()),
            Inputs::Bulk(i) => i.round(spans.as_mut()),
            Inputs::Csd(i) => i.round(spans.as_mut()),
        };
        let ref_ns = (ref_before + refclock::reference_ns()) as f64 / 2.0;
        // Host times as on the nominal reference host.
        let scale = refclock::NOMINAL_NS / ref_ns;
        if let Some(s) = spans {
            common::span_layers(&s, r.attempted, r.wall_ns, &mut r.layers);
        }
        r.host_lat_ns.sort_unstable();
        Outcome {
            setup_s: r.setup_ns as f64 * scale / 1e9,
            wall_s: r.wall_ns as f64 * scale / 1e9,
            raw_wall_s: r.wall_ns as f64 / 1e9,
            ref_ns,
            attempted: r.attempted,
            failed: r.failed,
            host_p50_us: percentile(&r.host_lat_ns, 50.0) as f64 * scale / 1e3,
            host_p99_us: percentile(&r.host_lat_ns, 99.0) as f64 * scale / 1e3,
            samples: r.host_lat_ns.len(),
            sim: r.sim.summary(r.attempted),
            layers: r.layers,
            stage_mismatches: r.stage_mismatches,
        }
    }
}

/// One round's figures. Host times are normalized by the reference loop
/// timed around the round (see [`refclock`]); `raw_wall_s` is not.
struct Outcome {
    setup_s: f64,
    wall_s: f64,
    raw_wall_s: f64,
    /// Mean of the reference-loop times before and after the round, ns.
    ref_ns: f64,
    attempted: u64,
    failed: u64,
    host_p50_us: f64,
    host_p99_us: f64,
    /// Host latency samples behind the percentiles.
    samples: usize,
    sim: SimSummary,
    layers: Layers,
    stage_mismatches: u64,
}

/// Rounds until `budget` has passed (at least [`MIN_ROUNDS`]).
fn run_rounds(inputs: &Inputs, budget: Duration, traced: bool) -> Vec<Outcome> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < MIN_ROUNDS || start.elapsed() < budget {
        rounds.push(inputs.round(traced));
    }
    rounds
}

fn host_ops_per_s(r: &Outcome) -> f64 {
    r.attempted as f64 / r.wall_s
}

fn raw_host_ops_per_s(r: &Outcome) -> f64 {
    r.attempted as f64 / r.raw_wall_s
}

/// Medians over rounds of the host figures, plus the modeled summary
/// (identical in every round, checked by the caller).
fn end_to_end(rounds: &[Outcome], sim: &SimSummary) -> Vec<f64> {
    let per_round = |f: &dyn Fn(&Outcome) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    vec![
        per_round(&host_ops_per_s),
        per_round(&|r| r.host_p50_us),
        per_round(&|r| r.host_p99_us),
        sim.iops,
        sim.lat_p50_us,
        sim.lat_p99_us,
        sim.wire_bytes_per_op,
        sim.link_pj_per_op,
        per_round(&|r| r.setup_s),
        peak_rss_mib().unwrap_or(0.0),
        1.0 - failed as f64 / attempted.max(1) as f64,
    ]
}

/// Medians over traced rounds of each per-layer figure, with the tracing
/// overhead measured against the untraced rounds.
fn per_layer(plain: &[Outcome], traced: &[Outcome]) -> Vec<f64> {
    let mut all = Layers::new();
    for (name, _) in PER_LAYER {
        let v: Vec<f64> = traced
            .iter()
            .map(|r| r.layers.get(name).copied().unwrap_or(0.0))
            .collect();
        all.insert(name, median(&v));
    }
    let speed = |rs: &[Outcome]| median(&rs.iter().map(host_ops_per_s).collect::<Vec<_>>());
    all.insert("trace.overhead_frac", 1.0 - speed(traced) / speed(plain));
    all.insert("bench.rounds", traced.len() as f64);
    PER_LAYER.iter().map(|(n, _)| all[n]).collect()
}

/// Outcome of one benchmark invocation.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
    notes: Vec<String>,
}

impl Report {
    fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, unit, v)) in self.metrics.iter().enumerate() {
            let v = if v.is_finite() { *v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// Runs `workload` for `seconds` and builds its report.
fn run(workload: &str, seed: u64, seconds: f64, trace: bool, scale: Scale) -> Option<Report> {
    let inputs = Inputs::generate(workload, seed, scale)?;
    let budget = Duration::from_secs_f64(seconds);
    let (plain, traced) = if trace {
        let half = budget / 2;
        (
            run_rounds(&inputs, half, false),
            run_rounds(&inputs, half, true),
        )
    } else {
        (run_rounds(&inputs, budget, false), Vec::new())
    };
    let all: Vec<&Outcome> = plain.iter().chain(&traced).collect();
    let sims: Vec<SimSummary> = all.iter().map(|r| r.sim).collect();
    // Modeled results must not depend on the round, nor on tracing.
    let identical = sims.windows(2).all(|w| w[0] == w[1]);
    let mismatches: u64 = all.iter().map(|r| r.stage_mismatches).sum();
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    let samples: usize = plain.iter().map(|r| r.samples).sum();
    let per_round_samples = plain.iter().map(|r| r.samples).min().unwrap_or(0);
    let p99_ok = highest_reportable_percentile(per_round_samples).is_some_and(|p| p >= 99.0);
    let mut notes = vec![
        format!("workload={workload} seed={seed} input_digest={:016x}", inputs.digest()),
        format!(
            "rounds untraced={} traced={} host_latency_samples={samples} (per round {per_round_samples})",
            plain.len(),
            traced.len()
        ),
        format!(
            "ops_failed_frac={} sim_identical_across_rounds={identical} vt_stage_mismatches={mismatches}",
            failed as f64 / attempted.max(1) as f64
        ),
    ];
    for (what, rate) in [
        ("host_ops_per_s", host_ops_per_s as fn(&Outcome) -> f64),
        ("unnormalized host_ops_per_s", raw_host_ops_per_s),
    ] {
        let speeds: Vec<f64> = plain.iter().map(rate).collect();
        let (q1, q3) = quartiles(&speeds);
        let m = median(&speeds);
        notes.push(format!(
            "{what} over rounds: median={m} iqr/median={}",
            (q3 - q1) / m
        ));
    }
    let refs: Vec<f64> = all.iter().map(|r| r.ref_ns).collect();
    notes.push(format!(
        "reference loop: median={} ns (nominal {})",
        median(&refs),
        refclock::NOMINAL_NS
    ));
    if !p99_ok {
        notes.push("too few latency samples per round for a p99".into());
    }
    let metrics: Vec<(&'static str, &'static str, f64)> = if trace {
        PER_LAYER
            .iter()
            .zip(per_layer(&plain, &traced))
            .map(|(&(n, u), v)| (n, u, v))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(end_to_end(&plain, &sims[0]))
            .map(|(&(n, u), v)| (n, u, v))
            .collect()
    };
    Some(Report {
        correct: failed == 0 && identical && mismatches == 0 && p99_ok,
        attempted,
        failed,
        metrics,
        notes,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    t => return Err(format!("--trace must be 0 or 1, not {t}")),
                }
            }
            f => return Err(format!("unknown argument {f}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bx-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Scale(1.0),
    )
    .expect("parse_args admits only known workloads");
    for n in &report.notes {
        println!("# {n}");
    }
    println!("{}", report.json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: &str, seed: u64, trace: bool) -> Report {
        run(workload, seed, 0.001, trace, Scale(0.1)).expect("known workload")
    }

    #[test]
    fn seeds_reach_every_generator() {
        for w in WORKLOADS {
            let a = Inputs::generate(w, 1, Scale(0.1)).unwrap().digest();
            let b = Inputs::generate(w, 2, Scale(0.1)).unwrap().digest();
            let a2 = Inputs::generate(w, 1, Scale(0.1)).unwrap().digest();
            assert_ne!(a, b, "{w}: seeds 1 and 2 gave the same inputs");
            assert_eq!(a, a2, "{w}: the same seed gave different inputs");
        }
    }

    #[test]
    fn every_workload_reports_the_full_metric_sets() {
        for w in WORKLOADS {
            for seed in [1, 2] {
                let r = tiny(w, seed, false);
                assert!(r.correct, "{w} seed {seed}: {:?}", r.notes);
                assert_eq!(r.failed, 0);
                let names: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
                let want: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
                assert_eq!(names, want);
                assert!(
                    r.metrics.iter().all(|m| m.2.is_finite() && m.2 > 0.0),
                    "{w}: {:?}",
                    r.metrics
                );
                assert!(r.notes[0].contains(&format!("seed={seed}")));
            }
            let t = tiny(w, 1, true);
            assert!(t.correct, "{w} traced: {:?}", t.notes);
            assert_eq!(t.metrics.len(), PER_LAYER.len());
        }
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("a", "ms", 1.5), ("b", "s", f64::NAN)],
            notes: vec![],
        };
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn args_are_checked() {
        let a = |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        assert!(a("--workload bulk_rw --seed 3 --seconds 5 --trace 1").is_ok_and(|x| x.trace));
        assert!(a("--workload nope --seed 3").is_err());
        assert!(a("--workload bulk_rw").is_err());
        assert!(a("--workload bulk_rw --seed 1 --trace 2").is_err());
    }
}
