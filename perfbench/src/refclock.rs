//! A host-speed reference for normalizing host time.
//!
//! The virtual machines this benchmark runs on change speed in phases that
//! last longer than a run: the same workload's median host rate differs by
//! up to ~50 % from one 20-second run to the next, with no CPU steal
//! recorded. So every round is bracketed by a fixed, std-only reference
//! loop (allocation, memcpy, B-tree inserts and range lookups, a sort —
//! the kinds of work the simulator does, none of its code), and the round's
//! host times are scaled by `NOMINAL_NS / reference time`: host time as it
//! would read on a machine where the loop takes [`NOMINAL_NS`]. A change to
//! the simulator moves the round and not the reference, so it shows in full.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Reference-loop time of the host the benchmark was calibrated on (a
/// 2-vCPU Intel Xeon VM at 2.1 GHz), ns.
pub const NOMINAL_NS: f64 = 2.4e6;

/// Times one pass of the reference loop, ns.
pub fn reference_ns() -> u64 {
    let t = Instant::now();
    black_box(reference_work(black_box(5000)));
    t.elapsed().as_nanos() as u64
}

fn reference_work(n: u64) -> u64 {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let src = [0xA5u8; 4096];
    let mut tree = BTreeMap::new();
    let mut bufs: Vec<Vec<u8>> = Vec::with_capacity(65);
    let mut acc = 0u64;
    for i in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        tree.insert(x, i);
        bufs.push(src[..64 + (x % 4032) as usize].to_vec());
        if bufs.len() > 64 {
            acc += bufs.swap_remove((x % 64) as usize).len() as u64;
        }
        acc += tree.range(..x).next_back().map_or(0, |(_, v)| *v);
    }
    let mut keys: Vec<u64> = tree.into_keys().collect();
    keys.sort_unstable_by(|a, b| b.cmp(a));
    acc.wrapping_add(keys[keys.len() / 2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_deterministic_and_scales() {
        assert_eq!(reference_work(500), reference_work(500));
        assert!(reference_ns() > 0);
    }
}
