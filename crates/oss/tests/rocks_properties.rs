//! Property and concurrency tests of Rocks-OSS: random workloads must match
//! a BTreeMap model across flush/compaction/reopen, and concurrent readers
//! must never observe corruption while writers flush and compact.

use std::collections::BTreeMap;
use std::sync::Arc;

use slim_oss::rocks::{RocksConfig, RocksOss};
use slim_oss::{ObjectStore, Oss};
use slim_types::rng::{cases, Rng};

#[derive(Debug, Clone)]
enum Op {
    Put(u16, u32),
    Delete(u16),
    Flush,
    Compact,
    Reopen,
}

/// Weighted 6 : 2 : 1 : 1 : 1.
fn gen_op(rng: &mut Rng) -> Op {
    match rng.gen_range(0..11) {
        0..=5 => Op::Put(rng.gen_range(0..128), rng.next_u64() as u32),
        6..=7 => Op::Delete(rng.gen_range(0..128)),
        8 => Op::Flush,
        9 => Op::Compact,
        _ => Op::Reopen,
    }
}

#[test]
fn matches_btreemap_model() {
    cases(24, 0x0DB0_0001, |rng| {
        let ops: Vec<Op> = (0..rng.gen_range(1..120)).map(|_| gen_op(rng)).collect();
        let oss: Arc<dyn ObjectStore> = Arc::new(Oss::in_memory());
        let mut db = RocksOss::create(oss.clone(), "p/", RocksConfig::small_for_tests());
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for op in &ops {
            match op {
                Op::Put(k, v) => {
                    let key = k.to_be_bytes().to_vec();
                    let val = v.to_be_bytes().to_vec();
                    db.put(&key, &val).unwrap();
                    model.insert(key, val);
                }
                Op::Delete(k) => {
                    let key = k.to_be_bytes().to_vec();
                    db.delete(&key).unwrap();
                    model.remove(&key);
                }
                Op::Flush => db.flush().unwrap(),
                Op::Compact => db.compact().unwrap(),
                Op::Reopen => {
                    db.flush().unwrap();
                    db = RocksOss::open(oss.clone(), "p/", RocksConfig::small_for_tests()).unwrap();
                }
            }
        }
        // Full agreement with the model, including absent keys.
        for k in 0u16..128 {
            let key = k.to_be_bytes().to_vec();
            assert_eq!(
                db.get(&key).unwrap(),
                model.get(&key).cloned(),
                "key {k} after {ops:?}"
            );
        }
        let scanned = db.scan_prefix(&[]).unwrap();
        assert_eq!(scanned.len(), model.len());
    });
}

#[test]
fn concurrent_readers_with_flush_and_compaction() {
    let oss: Arc<dyn ObjectStore> = Arc::new(Oss::in_memory());
    let db = Arc::new(RocksOss::create(oss, "c/", RocksConfig::small_for_tests()));
    // Seed a stable key set readers will hammer.
    for k in 0u32..200 {
        db.put(&k.to_be_bytes(), &k.to_le_bytes()).unwrap();
    }
    db.flush().unwrap();

    std::thread::scope(|s| {
        // Writers: keep inserting fresh keys, forcing flushes + compactions.
        for w in 0..2 {
            let db = db.clone();
            s.spawn(move || {
                for i in 0..400u32 {
                    let k = 1_000_000 + w * 10_000 + i;
                    db.put(&k.to_be_bytes(), &k.to_le_bytes()).unwrap();
                }
                db.compact().unwrap();
            });
        }
        // Readers: the seeded keys must always resolve to their values.
        for _ in 0..3 {
            let db = db.clone();
            s.spawn(move || {
                for round in 0..50u32 {
                    for k in 0u32..200 {
                        let got = db.get(&k.to_be_bytes()).unwrap();
                        assert_eq!(
                            got,
                            Some(k.to_le_bytes().to_vec()),
                            "key {k} corrupted in round {round}"
                        );
                    }
                }
            });
        }
    });
}
