//! `csd_pushdown`: one client cycling the three scientific corpus queries
//! (VPIC, Laghos, Asteroid) as segment-encoded pushdown tasks over 256
//! DRAM-resident rows per table. Each task's predicate constants are drawn
//! from the seed, and its match count is checked against `bx_csd::eval`
//! over the same rows.

use crate::common::{ratio, Digest, Rng, Round, Sim, Snap};
use crate::spans::Spans;
use bx_csd::{
    corpus, eval, parse_predicate, CorpusQuery, CsdConfig, CsdSession, Row, TaskEncoding,
    UnknownColumn,
};
use byteexpress::TransferMethod;
use std::time::Instant;

/// Tasks per round.
pub const TASKS: usize = 12_000;
/// Rows loaded per table.
pub const ROWS: usize = 256;
/// The scientific queries (the first three of the corpus).
const QUERIES: usize = 3;

/// One pushdown task.
#[derive(Debug, Clone)]
pub struct Task {
    pub query: usize,
    pub predicate: String,
    pub expected: u32,
}

/// Tables, rows and tasks.
#[derive(Debug)]
pub struct CsdInputs {
    pub queries: Vec<CorpusQuery>,
    pub rows: Vec<Vec<Row>>,
    pub tasks: Vec<Task>,
}

/// A predicate of query `q`'s shape with seeded constants.
fn predicate(q: usize, rng: &mut Rng) -> String {
    let mut c = |lo: u64, hi: u64, scale: f64| rng.range(lo, hi) as f64 / scale;
    match q {
        0 => format!("energy > {:.2}", c(50, 250, 100.0)),
        1 => format!(
            "internal_energy >= {:.1} AND density < {:.1}",
            c(500, 4500, 10.0),
            c(20, 140, 10.0)
        ),
        _ => format!(
            "v02 > {:.2} AND prs > {:.1}",
            c(50, 95, 100.0),
            c(100, 500, 1.0) * 1e6
        ),
    }
}

impl CsdInputs {
    pub fn generate(seed: u64, tasks: usize) -> Self {
        let queries: Vec<CorpusQuery> = corpus().into_iter().take(QUERIES).collect();
        let rows: Vec<Vec<Row>> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| q.generate_rows(ROWS, seed.wrapping_add(i as u64)))
            .collect();
        let mut rng = Rng::new(seed, 3);
        let tasks = (0..tasks)
            .map(|i| {
                let query = i % QUERIES;
                let predicate = predicate(query, &mut rng);
                let expr = parse_predicate(&predicate).expect("generated predicates parse");
                let schema = &queries[query].schema;
                let expected = rows[query]
                    .iter()
                    .filter(|r| {
                        eval(&expr, schema, r, UnknownColumn::Error)
                            .expect("generated predicates name known columns")
                    })
                    .count() as u32;
                Task {
                    query,
                    predicate,
                    expected,
                }
            })
            .collect();
        CsdInputs {
            queries,
            rows,
            tasks,
        }
    }

    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for rows in &self.rows {
            for r in rows {
                d.bytes(format!("{r:?}").as_bytes());
            }
        }
        for t in &self.tasks {
            d.u64(t.query as u64)
                .bytes(t.predicate.as_bytes())
                .u64(t.expected as u64);
        }
        d.value()
    }

    /// Runs one round on a fresh session (tables created and loaded in
    /// set-up).
    pub fn round(&self, mut spans: Option<&mut Spans>) -> Round {
        let t0 = Instant::now();
        let mut session = CsdSession::open(CsdConfig {
            nand_io: false,
            ..CsdConfig::default()
        });
        let mut failed = 0u64;
        for (q, rows) in self.queries.iter().zip(&self.rows) {
            if session.create_table(&q.schema).is_err()
                || session.load_rows(&q.schema, rows).is_err()
            {
                failed += 1;
            }
        }
        let setup_ns = t0.elapsed().as_nanos() as u64;

        let before = Snap::of(session.device_mut());
        let csd_before = session.device_stats();
        let v0 = session.device().now();
        let ops = self.tasks.len() as u64;
        let mut host_lat_ns = Vec::with_capacity(self.tasks.len());
        let mut sim_lat = Vec::with_capacity(self.tasks.len());
        let method = TransferMethod::hybrid_default();
        let w0 = Instant::now();
        for task in &self.tasks {
            let q = &self.queries[task.query];
            let mut push = || {
                session.pushdown(
                    &q.full_sql,
                    q.table,
                    &task.predicate,
                    TaskEncoding::Segment,
                    method,
                )
            };
            let t = Instant::now();
            let r = match spans.as_deref_mut() {
                Some(s) => s.time("csd.pushdown", push),
                None => push(),
            };
            host_lat_ns.push(t.elapsed().as_nanos() as u64);
            match r {
                Ok(rep) if rep.matches == task.expected => sim_lat.push(rep.latency.as_ns()),
                _ => failed += 1,
            }
        }
        let wall_ns = w0.elapsed().as_nanos() as u64;
        let elapsed_ns = (session.device().now() - v0).as_ns();
        let after = Snap::of(session.device_mut());
        let csd = session.device_stats();
        let tasks = csd.tasks_executed - csd_before.tasks_executed;
        let mut layers = before.layers(&after, ops);
        layers.insert(
            "csd.rows_scanned_per_task",
            ratio(csd.rows_scanned - csd_before.rows_scanned, tasks),
        );
        layers.insert(
            "csd.task_bytes_per_task",
            ratio(csd.task_bytes_in - csd_before.task_bytes_in, tasks),
        );
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
            stage_mismatches: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_match_count_counts_as_failure() {
        let mut inputs = CsdInputs::generate(5, 30);
        assert_eq!(inputs.round(None).failed, 0);
        inputs.tasks[4].expected += 1;
        let round = inputs.round(None);
        assert_eq!(round.failed, 1);
        assert_eq!(round.attempted, 30);
    }

    #[test]
    fn predicates_have_nontrivial_selectivity() {
        let inputs = CsdInputs::generate(11, 300);
        let total: u32 = inputs.tasks.iter().map(|t| t.expected).sum();
        assert!(total > 0);
        assert!(total < 300 * ROWS as u32);
    }
}
