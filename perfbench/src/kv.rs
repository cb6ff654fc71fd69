//! `kv_mixgraph`: one client on a hash-log `KvStore` (NAND on, Serial
//! execution). MixGraph PUTs plus one GET in ten of a recently written key,
//! checked against the generator's latest value for that key.

use crate::common::{Digest, Rng, Round, Sim, Snap};
use crate::spans::Spans;
use bx_kvssd::{KvEngine, KvStore, KvStoreConfig};
use bx_workloads::{MixGraph, MixGraphConfig};
use byteexpress::{ExecutionModel, TransferMethod};
use std::collections::HashMap;
use std::time::Instant;

/// Operations per round.
pub const OPS: usize = 60_000;
/// GETs pick among this many most recent PUT keys.
const RECENT: usize = 64;

/// One client request.
#[derive(Debug, Clone)]
pub enum KvReq {
    Put { key: Vec<u8>, value: Vec<u8> },
    Get { key: Vec<u8>, expected: Vec<u8> },
}

/// The generated request stream.
#[derive(Debug)]
pub struct KvInputs {
    pub reqs: Vec<KvReq>,
}

impl KvInputs {
    pub fn generate(seed: u64, ops: usize) -> Self {
        let mut gen = MixGraph::new(MixGraphConfig {
            seed,
            ..MixGraphConfig::default()
        });
        let mut pick = Rng::new(seed, 1);
        let mut latest: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        let mut recent: Vec<Vec<u8>> = Vec::with_capacity(RECENT);
        let mut reqs = Vec::with_capacity(ops);
        for i in 0..ops {
            if i % 10 == 9 && !recent.is_empty() {
                let key = recent[pick.range(0, recent.len() as u64 - 1) as usize].clone();
                let expected = latest[&key].clone();
                reqs.push(KvReq::Get { key, expected });
                continue;
            }
            let op = gen.next_put();
            latest.insert(op.key.clone(), op.value.clone());
            if recent.len() == RECENT {
                recent.remove(0);
            }
            recent.push(op.key.clone());
            reqs.push(KvReq::Put {
                key: op.key,
                value: op.value,
            });
        }
        KvInputs { reqs }
    }

    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for r in &self.reqs {
            match r {
                KvReq::Put { key, value } => d.u64(0).bytes(key).bytes(value),
                KvReq::Get { key, expected } => d.u64(1).bytes(key).bytes(expected),
            };
        }
        d.value()
    }

    /// Runs one round on a fresh store; `spans` turns on host-span timing.
    pub fn round(&self, mut spans: Option<&mut Spans>) -> Round {
        let t0 = Instant::now();
        let mut store = KvStore::open(KvStoreConfig {
            method: TransferMethod::hybrid_default(),
            nand_io: true,
            engine: KvEngine::HashLog,
            execution: ExecutionModel::Serial,
            ..KvStoreConfig::default()
        });
        let setup_ns = t0.elapsed().as_nanos() as u64;

        let before = Snap::of(store.device_mut());
        let kv_before = store.device_stats();
        let v0 = store.now();
        let mut host_lat_ns = Vec::with_capacity(self.reqs.len());
        let mut sim_lat = Vec::with_capacity(self.reqs.len());
        let mut failed = 0u64;
        let w0 = Instant::now();
        for req in &self.reqs {
            match req {
                KvReq::Put { key, value } => {
                    let t = Instant::now();
                    let r = match spans.as_deref_mut() {
                        Some(s) => s.time("kvssd.put", || store.put(key, value)),
                        None => store.put(key, value),
                    };
                    host_lat_ns.push(t.elapsed().as_nanos() as u64);
                    match r {
                        Ok(c) => sim_lat.push(c.latency().as_ns()),
                        Err(_) => failed += 1,
                    }
                }
                KvReq::Get { key, expected } => {
                    // KvStore::get returns no Completion; under Serial
                    // execution the clock delta is the same submit→consume
                    // interval.
                    let v = store.now();
                    let t = Instant::now();
                    let r = match spans.as_deref_mut() {
                        Some(s) => s.time("kvssd.get", || store.get(key)),
                        None => store.get(key),
                    };
                    host_lat_ns.push(t.elapsed().as_nanos() as u64);
                    sim_lat.push((store.now() - v).as_ns());
                    if !matches!(r, Ok(Some(ref got)) if got == expected) {
                        failed += 1;
                    }
                }
            }
        }
        let wall_ns = w0.elapsed().as_nanos() as u64;
        let elapsed_ns = (store.now() - v0).as_ns();
        let after = Snap::of(store.device_mut());
        let kv = store.device_stats();
        let ops = self.reqs.len() as u64;
        let mut layers = before.layers(&after, ops);
        let puts = kv.puts - kv_before.puts;
        let gets = kv.gets - kv_before.gets;
        layers.insert(
            "kvssd.flushes_per_kput",
            1e3 * crate::common::ratio(kv.flushes - kv_before.flushes, puts),
        );
        layers.insert(
            "kvssd.get_hit_frac",
            crate::common::ratio(kv.hits - kv_before.hits, gets),
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
    fn wrong_expected_value_counts_as_failure() {
        let mut inputs = KvInputs::generate(7, 400);
        assert_eq!(inputs.round(None).failed, 0);
        let get = inputs
            .reqs
            .iter_mut()
            .find_map(|r| match r {
                KvReq::Get { expected, .. } => Some(expected),
                _ => None,
            })
            .expect("the stream holds GETs");
        get[0] ^= 0xFF;
        let round = inputs.round(None);
        assert_eq!(round.failed, 1);
        assert_eq!(round.attempted, 400);
    }
}
