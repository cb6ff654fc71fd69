//! Model-checked differential test of the hash-log KV firmware.
//!
//! Seeded random PUT/GET/DELETE/`keys()` sequences, interleaved with
//! graceful restarts, crash recoveries and hard power cuts, run through a
//! [`KvStore`] and through a reference model that mirrors the firmware's
//! log: which entries sit in the DRAM staging page, when that page flushes,
//! and which pages a power event keeps. Every result must match the model.
//!
//! Values of 0 B to [`MAX_VALUE_LEN`] cross staging-flush boundaries many
//! times per sequence. Keys include bytes ≥ 0x80, zero bytes, short
//! (zero-padded) keys, the empty key and shared prefixes, so `keys()`
//! coming back in the model's byte-lexicographic order pins the index's
//! key order.

use bx_hostsim::PAGE_SIZE;
use bx_kvssd::firmware::{pad_key, PaddedKey};
use bx_kvssd::{KvStore, KvStoreConfig, MAX_KEY_LEN, MAX_VALUE_LEN};
use std::collections::BTreeMap;

/// On-media entry header: padded key + 2-byte length.
const ENTRY_HEADER: usize = MAX_KEY_LEN + 2;

/// SplitMix64: a tiny deterministic generator, one stream per seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The firmware's log as the host can predict it.
struct Model {
    /// What GET and `keys()` must return.
    live: BTreeMap<PaddedKey, Vec<u8>>,
    /// The state the flushed (closed) log pages replay to.
    persisted: BTreeMap<PaddedKey, Vec<u8>>,
    /// Entries in the staging page, in append order; `None` is a tombstone.
    staged: Vec<(PaddedKey, Option<Vec<u8>>)>,
    staging_used: usize,
    nand_io: bool,
    /// `durable_puts` with NAND on: the staging page is written through.
    write_through: bool,
}

impl Model {
    fn new(nand_io: bool, durable_puts: bool) -> Self {
        Model {
            live: BTreeMap::new(),
            persisted: BTreeMap::new(),
            staged: Vec::new(),
            staging_used: 0,
            nand_io,
            write_through: nand_io && durable_puts,
        }
    }

    fn append(&mut self, key: PaddedKey, value: Option<Vec<u8>>) {
        let entry = ENTRY_HEADER + value.as_ref().map_or(0, Vec::len);
        if self.staging_used + entry > PAGE_SIZE {
            self.close_page();
        }
        self.staging_used += entry;
        match &value {
            Some(v) => self.live.insert(key, v.clone()),
            None => self.live.remove(&key),
        };
        self.staged.push((key, value));
    }

    /// The staging page becomes a persisted log page.
    fn close_page(&mut self) {
        for (key, value) in self.staged.drain(..) {
            match value {
                Some(v) => self.persisted.insert(key, v),
                None => self.persisted.remove(&key),
            };
        }
        self.staging_used = 0;
    }

    /// Power loss: the staging page survives only as its write-through copy.
    fn crash(&mut self) {
        if self.write_through {
            self.close_page();
        } else {
            self.staged.clear();
            self.staging_used = 0;
            self.live = self.persisted.clone();
        }
    }

    /// A hard cut also wipes device DRAM, which holds the whole log when
    /// NAND is off.
    fn hard_cut(&mut self) {
        if self.nand_io {
            self.crash();
        } else {
            *self = Model::new(false, false);
        }
    }
}

/// Keys over an alphabet with zero, ASCII and high bytes, built from a few
/// shared prefixes; lengths 0 to 16.
fn key_pool(rng: &mut Rng) -> Vec<Vec<u8>> {
    const ALPHABET: [u8; 8] = [0x00, 0x01, b'a', b'b', 0x7f, 0x80, 0xfe, 0xff];
    const PREFIXES: [&[u8]; 5] = [b"", b"user:", b"\x80\x80", b"\xff", b"0000000000"];
    let mut pool = vec![Vec::new()];
    while pool.len() < 48 {
        let mut key = PREFIXES[rng.below(PREFIXES.len())].to_vec();
        let extra = rng.below(MAX_KEY_LEN - key.len() + 1);
        key.extend((0..extra).map(|_| ALPHABET[rng.below(ALPHABET.len())]));
        pool.push(key);
    }
    pool
}

fn value(rng: &mut Rng) -> Vec<u8> {
    let tag = rng.next() as usize;
    let len = match rng.below(4) {
        0 => rng.below(33),
        1 => 100 + rng.below(900),
        2 => 1500 + rng.below(1500),
        _ => MAX_VALUE_LEN - rng.below(200),
    };
    (0..len).map(|i| (tag + i * 7) as u8).collect()
}

fn assert_state(store: &mut KvStore, model: &Model, pool: &[Vec<u8>], ctx: &str) {
    let keys: Vec<PaddedKey> = store.keys().unwrap().iter().map(|k| pad_key(k)).collect();
    let expect: Vec<PaddedKey> = model.live.keys().copied().collect();
    assert_eq!(keys, expect, "{ctx}: keys() differs from the model");
    for key in pool {
        assert_eq!(
            store.get(key).unwrap(),
            model.live.get(&pad_key(key)).cloned(),
            "{ctx}: GET {key:?}"
        );
    }
}

fn run(seed: u64, nand_io: bool, durable_puts: bool, ops: usize) {
    let mut rng = Rng(seed);
    let pool = key_pool(&mut rng);
    let mut store = KvStore::open(KvStoreConfig {
        nand_io,
        durable_puts,
        ..Default::default()
    });
    let mut model = Model::new(nand_io, durable_puts);
    for step in 0..ops {
        let ctx = format!("seed {seed} nand_io {nand_io} durable {durable_puts} step {step}");
        let key = &pool[rng.below(pool.len())];
        let padded = pad_key(key);
        match rng.below(100) {
            0..=44 => {
                let v = value(&mut rng);
                let got = store.put(key, &v);
                if v.is_empty() {
                    // The driver refuses a data command without data.
                    assert!(got.is_err(), "{ctx}: empty PUT accepted");
                } else {
                    got.unwrap();
                    model.append(padded, Some(v));
                }
            }
            45..=69 => {
                let got = store.get(key).unwrap();
                assert_eq!(got, model.live.get(&padded).cloned(), "{ctx}: GET {key:?}");
            }
            70..=84 => {
                let existed = model.live.contains_key(&padded);
                assert_eq!(store.delete(key).unwrap(), existed, "{ctx}: DELETE {key:?}");
                if existed {
                    model.append(padded, None);
                }
            }
            85..=91 => assert_state(&mut store, &model, &pool, &ctx),
            92..=94 => {
                store.power_cycle(true).unwrap();
                assert_state(&mut store, &model, &pool, &format!("{ctx} graceful"));
            }
            95..=97 => {
                store.power_cycle(false).unwrap();
                model.crash();
                assert_state(&mut store, &model, &pool, &format!("{ctx} crash"));
            }
            _ => {
                store.hard_power_cycle().unwrap();
                model.hard_cut();
                assert_state(&mut store, &model, &pool, &format!("{ctx} hard cut"));
            }
        }
    }
    assert!(
        store.device_stats().flushes >= 20,
        "seed {seed}: too few staging flushes to exercise the log"
    );
}

#[test]
fn nand_on_volatile_staging_matches_model() {
    for seed in 1..=4 {
        run(seed, true, false, 1500);
    }
}

#[test]
fn nand_on_durable_puts_matches_model() {
    for seed in 11..=14 {
        run(seed, true, true, 1500);
    }
}

#[test]
fn nand_off_matches_model() {
    for seed in 21..=24 {
        run(seed, false, false, 1500);
    }
}

#[test]
fn nand_off_durable_puts_is_volatile_and_matches_model() {
    for seed in 31..=34 {
        run(seed, false, true, 1500);
    }
}

#[test]
fn keys_come_back_in_byte_order() {
    // Keys that differ only in a high byte or in length: their padded bytes,
    // not a signed or little-endian view, decide the order.
    let mut store = KvStore::open(KvStoreConfig::default());
    let keys: [&[u8]; 7] = [
        b"\xff",
        b"\x80",
        b"\x7f",
        b"a",
        b"a\x00\x01",
        b"a\x01",
        b"\x00\x01",
    ];
    for key in keys {
        store.put(key, b"v").unwrap();
    }
    let got = store.keys().unwrap();
    let expect: Vec<Vec<u8>> = vec![
        b"\x00\x01".to_vec(),
        b"a".to_vec(),
        b"a\x00\x01".to_vec(),
        b"a\x01".to_vec(),
        b"\x7f".to_vec(),
        b"\x80".to_vec(),
        b"\xff".to_vec(),
    ];
    assert_eq!(got, expect);
}
