//! Property tests (seeded generator loops, `slim_types::rng::cases`) of the
//! G-node's safety invariants: no sequence of backups,
//! offline cycles, vacuums and FIFO collections may break the restorability
//! of any retained version, and the global index must always resolve every
//! live recipe record.

use std::collections::HashSet;
use std::sync::Arc;

use slim_oss::rocks::RocksConfig;
use slim_oss::{FaultPlan, ObjectStore, Oss};
use slim_types::rng::{cases, Rng};
use slim_types::{ContainerId, FileId, SlimConfig, VersionId};
use slimstore::{SlimStore, SlimStoreBuilder};

#[derive(Debug, Clone)]
enum Op {
    /// Mutate file `which` (xor a byte range) before the next backup.
    Mutate { which: usize, at: usize, len: usize },
    /// Back up the current state as a new version.
    Backup,
    /// Run the G-node cycle for the most recent version.
    GnodeCycle,
    /// Physically reclaim marked bytes.
    Vacuum,
    /// Drop the oldest version (if more than one remains).
    CollectOldest,
}

/// Weighted 3 : 3 : 2 : 1 : 1.
fn gen_op(rng: &mut Rng) -> Op {
    match rng.gen_range(0..10) {
        0..=2 => Op::Mutate {
            which: rng.gen_range(0..3),
            at: rng.next_u64() as usize,
            len: rng.gen_range(16..600),
        },
        3..=5 => Op::Backup,
        6..=7 => Op::GnodeCycle,
        8 => Op::Vacuum,
        _ => Op::CollectOldest,
    }
}

/// Version history expected to be restorable, keyed by version id.
type Retained = Vec<(VersionId, Vec<(FileId, Vec<u8>)>)>;

fn base_files() -> Vec<(FileId, Vec<u8>)> {
    let mut rng = Rng::seed_from_u64(99);
    (0..3)
        .map(|i| {
            let mut data = vec![0u8; 6000 + i * 2000];
            rng.fill_bytes(&mut data);
            (FileId::new(format!("f{i}")), data)
        })
        .collect()
}

fn store() -> SlimStore {
    SlimStoreBuilder::in_memory()
        .with_config(SlimConfig::small_for_tests())
        .with_rocks_config(RocksConfig::small_for_tests())
        .build()
        .unwrap()
}

fn store_over(oss: Arc<dyn ObjectStore>) -> SlimStore {
    SlimStoreBuilder::in_memory()
        .with_object_store(oss)
        .with_config(SlimConfig::small_for_tests())
        .with_rocks_config(RocksConfig::small_for_tests())
        .build()
        .unwrap()
}

/// Every container the global index references must exist on OSS.
fn assert_no_dangle(store: &SlimStore) {
    let existing: HashSet<ContainerId> = store.storage().list_containers().into_iter().collect();
    for c in store
        .gnode()
        .global_index()
        .referenced_containers()
        .unwrap()
    {
        assert!(
            existing.contains(&c),
            "global index references deleted container {c}"
        );
    }
}

/// Every container on OSS must be referenced by the global index or be
/// reachable from a retained version's manifest/recipes.
fn assert_no_leak(store: &SlimStore) {
    let mut reachable: HashSet<ContainerId> = store
        .gnode()
        .global_index()
        .referenced_containers()
        .unwrap();
    for v in store.versions() {
        let manifest = store.storage().get_manifest(v).unwrap();
        reachable.extend(manifest.new_containers.iter().copied());
        reachable.extend(manifest.garbage_on_delete.iter().copied());
        for file in &manifest.files {
            let recipe = store.storage().get_recipe(&file.file, v).unwrap();
            reachable.extend(recipe.records().map(|r| r.container_id));
        }
    }
    for c in store.storage().list_containers() {
        assert!(
            reachable.contains(&c),
            "container {c} is unreferenced by both index and manifests"
        );
    }
}

#[test]
fn retained_versions_always_restore() {
    cases(16, 0x6A0D_0001, |rng| {
        let ops: Vec<Op> = (0..rng.gen_range(1..14)).map(|_| gen_op(rng)).collect();
        let store = store();
        let mut files = base_files();
        let mut retained: Retained = Vec::new();

        // Always start with one backup so later ops have something to chew on.
        let r = store.backup_version(files.clone()).unwrap();
        retained.push((r.version, files.clone()));

        for op in &ops {
            match op {
                Op::Mutate { which, at, len } => {
                    let idx = which % files.len();
                    let data = &mut files[idx].1;
                    if data.is_empty() {
                        continue;
                    }
                    let at = at % data.len();
                    let end = (at + len).min(data.len());
                    for b in &mut data[at..end] {
                        *b ^= 0x5A;
                    }
                }
                Op::Backup => {
                    let r = store.backup_version(files.clone()).unwrap();
                    retained.push((r.version, files.clone()));
                }
                Op::GnodeCycle => {
                    if let Some((v, _)) = retained.last() {
                        store.run_gnode_cycle(*v).unwrap();
                    }
                }
                Op::Vacuum => {
                    store.gnode().vacuum().unwrap();
                }
                Op::CollectOldest => {
                    if retained.len() > 1 {
                        let keep = retained.len() - 1;
                        store.retain_last(keep).unwrap();
                        retained.remove(0);
                    }
                }
            }
            // Invariant 1: every retained version restores byte-identically.
            for (v, expected) in &retained {
                store.verify_version(*v, expected).unwrap();
            }
        }

        // Invariant 2: every live recipe record is resolvable — either live
        // in its stated container or through the global index.
        for (v, _) in &retained {
            for file in store.files_of(*v).unwrap() {
                let recipe = store.storage().get_recipe(&file, *v).unwrap();
                for rec in recipe.records() {
                    let stated_live = store
                        .storage()
                        .get_container_meta(rec.container_id)
                        .ok()
                        .and_then(|m| m.find_live(&rec.fp).map(|_| ()))
                        .is_some();
                    if stated_live {
                        continue;
                    }
                    let relocated = store
                        .gnode()
                        .global_index()
                        .get(&rec.fp)
                        .unwrap()
                        .and_then(|c| store.storage().get_container_meta(c).ok().map(|m| (c, m)))
                        .map(|(_, m)| m.find_live(&rec.fp).is_some())
                        .unwrap_or(false);
                    assert!(
                        relocated,
                        "record {} of {} at {} resolves nowhere",
                        rec.fp.short_hex(),
                        file,
                        v
                    );
                }
            }
        }
    });
}

/// Kill the offline cycle at an arbitrary OSS operation, recover, and
/// re-run it to completion: the global index must never reference a
/// deleted container (no dangle), every surviving container must be
/// referenced by the index or a manifest once orphans are scrubbed (no
/// leak), and every version must restore byte-identically throughout.
#[test]
fn killed_and_recovered_cycle_never_dangles_or_leaks() {
    cases(16, 0x6A0D_0002, |rng| {
        let kill_point = rng.gen_range(1..400u64);
        let oss = Oss::in_memory();
        let mut files = base_files();
        let mut retained: Retained = Vec::new();
        {
            let store = store_over(Arc::new(oss.clone()));
            for round in 0..3u64 {
                let r = store.backup_version(files.clone()).unwrap();
                retained.push((r.version, files.clone()));
                if round < 2 {
                    // Earlier cycles complete; the last one is the victim.
                    store.run_gnode_cycle(r.version).unwrap();
                }
                for (i, (_, data)) in files.iter_mut().enumerate() {
                    let at = (round as usize * 731 + i * 137) % (data.len() - 600);
                    for b in &mut data[at..at + 600] {
                        *b ^= 0x5A;
                    }
                }
            }
            oss.inject_fault(FaultPlan::NthOnPrefix {
                prefix: String::new(),
                nth: kill_point,
            });
            let _ = store.run_gnode_cycle(VersionId(2));
            oss.clear_faults();
        }

        // Reopen: the builder replays the intent journal.
        let store = store_over(Arc::new(oss.clone()));
        assert_no_dangle(&store);
        for (v, expected) in &retained {
            store.verify_version(*v, expected).unwrap();
        }

        // Re-run the interrupted cycle to completion and scrub: the bucket
        // must converge to a stable, fully referenced key set.
        store.run_gnode_cycle(VersionId(2)).unwrap();
        assert_no_dangle(&store);
        store.scrub_orphans().unwrap();
        let again = store.scrub_orphans().unwrap();
        assert_eq!(again.objects_reclaimed(), 0, "scrub must be idempotent");
        assert_no_leak(&store);
        for (v, expected) in &retained {
            store.verify_version(*v, expected).unwrap();
        }
    });
}
