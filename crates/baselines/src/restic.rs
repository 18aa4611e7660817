//! A restic-model deduplication system (the Fig 10 comparison).
//!
//! Reimplements the architectural properties of restic that the paper's
//! comparison exercises, over the same simulated OSS:
//!
//! * content-defined chunking with a ~1 MB target (restic's default);
//! * one **repository-wide lock**: every backup/restore job must own the
//!   shared fingerprint index exclusively, so concurrent jobs serialize —
//!   which is why restic's throughput stays flat as jobs are added while
//!   SLIMSTORE's stateless L-nodes scale linearly;
//! * pack files as the storage unit, written through [`OssFs`] — a
//!   filesystem-emulation wrapper (the paper used OSSFS) that charges an
//!   extra fixed latency on every operation.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;
use slim_chunking::{chunk_all, ChunkSpec, FastCdcChunker};
use slim_lnode::stats::RestoreStats;
use slim_oss::ObjectStore;
use slim_types::codec::{Reader, Writer};
use slim_types::{FileId, Fingerprint, Result, SlimError, VersionId};

use crate::stats::BaselineBackupStats;

/// Filesystem-emulation wrapper (OSSFS): forwards to the inner store with an
/// extra per-operation latency.
pub struct OssFs {
    inner: Arc<dyn ObjectStore>,
    op_overhead: Duration,
}

impl OssFs {
    /// Wrap `inner`, charging `op_overhead` per operation.
    pub fn new(inner: Arc<dyn ObjectStore>, op_overhead: Duration) -> Self {
        OssFs { inner, op_overhead }
    }

    fn charge(&self) {
        if !self.op_overhead.is_zero() {
            std::thread::sleep(self.op_overhead);
        }
    }
}

impl ObjectStore for OssFs {
    fn put(&self, key: &str, value: Bytes) -> Result<()> {
        self.charge();
        self.inner.put(key, value)
    }

    fn get(&self, key: &str) -> Result<Bytes> {
        self.charge();
        self.inner.get(key)
    }

    fn get_range(&self, key: &str, start: u64, len: u64) -> Result<Bytes> {
        self.charge();
        self.inner.get_range(key, start, len)
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.charge();
        self.inner.delete(key)
    }

    fn exists(&self, key: &str) -> Result<bool> {
        self.inner.exists(key)
    }

    fn len(&self, key: &str) -> Result<Option<u64>> {
        self.inner.len(key)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.list(prefix)
    }

    fn metrics_snapshot(&self) -> Option<slim_oss::MetricsSnapshot> {
        self.inner.metrics_snapshot()
    }
}

/// Location of a chunk inside a pack file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackLoc {
    pack: u64,
    offset: u32,
    len: u32,
}

/// Shared repository state, guarded by one lock (restic's exclusive
/// repository lock).
struct RepoState {
    index: HashMap<Fingerprint, PackLoc>,
    open_pack: Vec<u8>,
    open_pack_entries: Vec<(Fingerprint, u32, u32)>,
    next_pack: u64,
}

/// The restic-model system. Clone the `Arc` to run jobs from many threads —
/// they will serialize on the repository lock, as real restic jobs do.
pub struct ResticSim {
    fs: OssFs,
    chunker: FastCdcChunker,
    pack_target: usize,
    repo: Mutex<RepoState>,
}

impl ResticSim {
    /// A repository on `oss` with restic-like parameters: `avg_chunk`
    /// target chunk size (restic uses ~1 MB) and 4× that as pack target.
    pub fn new(oss: Arc<dyn ObjectStore>, op_overhead: Duration, avg_chunk: usize) -> Self {
        let avg = avg_chunk.next_power_of_two();
        ResticSim {
            fs: OssFs::new(oss, op_overhead),
            chunker: FastCdcChunker::new(ChunkSpec::new(avg / 4, avg, avg * 4)),
            pack_target: avg * 4,
            repo: Mutex::new(RepoState {
                index: HashMap::new(),
                open_pack: Vec::new(),
                open_pack_entries: Vec::new(),
                next_pack: 0,
            }),
        }
    }

    fn pack_key(id: u64) -> String {
        format!("restic/data/{id:012}")
    }

    fn snapshot_key(file: &FileId, version: VersionId) -> String {
        format!("restic/snapshots/{}/{:08}", file.as_str(), version.0)
    }

    fn flush_pack(&self, state: &mut RepoState) -> Result<()> {
        if state.open_pack.is_empty() {
            return Ok(());
        }
        let id = state.next_pack;
        state.next_pack += 1;
        let data = Bytes::from(std::mem::take(&mut state.open_pack));
        self.fs.put(&Self::pack_key(id), data)?;
        for (fp, offset, len) in state.open_pack_entries.drain(..) {
            state.index.insert(
                fp,
                PackLoc {
                    pack: id,
                    offset,
                    len,
                },
            );
        }
        Ok(())
    }

    /// Back up one file. Concurrent callers serialize on the repository
    /// lock for the whole dedup/write phase.
    pub fn backup_file(
        &self,
        file: &FileId,
        version: VersionId,
        data: &[u8],
    ) -> Result<BaselineBackupStats> {
        let start = Instant::now();
        let mut stats = BaselineBackupStats {
            logical_bytes: data.len() as u64,
            ..Default::default()
        };
        // The whole job runs under the exclusive repository lock — the
        // behaviour the paper measured: "Restic cannot carry out multiple
        // backup jobs concurrently" (§VII-E). Concurrent callers serialize.
        let mut repo = self.repo.lock();
        let chunks = chunk_all(&self.chunker, data);
        let mut snapshot = Writer::new();
        snapshot.u32(chunks.len() as u32);
        for chunk in &chunks {
            stats.chunks += 1;
            let loc = match repo.index.get(&chunk.fp).copied() {
                Some(loc) => {
                    stats.duplicates += 1;
                    loc
                }
                None => {
                    // Check the open pack too (intra-job duplicates land
                    // there before the flush registers them).
                    match repo
                        .open_pack_entries
                        .iter()
                        .find(|(fp, _, _)| *fp == chunk.fp)
                        .copied()
                    {
                        Some((_, offset, len)) => {
                            stats.duplicates += 1;
                            PackLoc {
                                pack: repo.next_pack,
                                offset,
                                len,
                            }
                        }
                        None => {
                            let payload = chunk.slice(data);
                            let offset = repo.open_pack.len() as u32;
                            repo.open_pack.extend_from_slice(payload);
                            repo.open_pack_entries
                                .push((chunk.fp, offset, payload.len() as u32));
                            stats.stored_bytes += payload.len() as u64;
                            let loc = PackLoc {
                                pack: repo.next_pack,
                                offset,
                                len: payload.len() as u32,
                            };
                            if repo.open_pack.len() >= self.pack_target {
                                self.flush_pack(&mut repo)?;
                            }
                            loc
                        }
                    }
                }
            };
            snapshot.fingerprint(&chunk.fp);
            snapshot.u64(loc.pack);
            snapshot.u32(loc.offset);
            snapshot.u32(loc.len);
        }
        self.flush_pack(&mut repo)?;
        drop(repo);
        self.fs
            .put(&Self::snapshot_key(file, version), snapshot.freeze())?;
        stats.wall_time = start.elapsed();
        Ok(stats)
    }

    /// Restore one file. Resolving chunk locations holds the repository
    /// lock (the bottleneck the paper measures); pack reads happen outside.
    pub fn restore_file(
        &self,
        file: &FileId,
        version: VersionId,
    ) -> Result<(Vec<u8>, RestoreStats)> {
        let start = Instant::now();
        let mut stats = RestoreStats::default();
        // Restores also funnel through the shared index ("limited by the
        // fingerprint index access to get the data locations", §VII-E):
        // the whole job holds the repository lock.
        let _repo = self.repo.lock();
        let buf = self.fs.get(&Self::snapshot_key(file, version))?;
        let mut r = Reader::new(&buf, "restic snapshot");
        let n = r.count(20 + 8 + 4 + 4)?;
        let mut sequence = Vec::with_capacity(n);
        for _ in 0..n {
            let fp = r.fingerprint()?;
            let pack = r.u64()?;
            let offset = r.u32()?;
            let len = r.u32()?;
            sequence.push((fp, PackLoc { pack, offset, len }));
        }
        r.finish()?;
        let mut out = Vec::new();
        let mut cached: Option<(u64, Bytes)> = None;
        for (fp, loc) in sequence {
            let pack_data = match &cached {
                Some((id, data)) if *id == loc.pack => data.clone(),
                _ => {
                    let data = self.fs.get(&Self::pack_key(loc.pack))?;
                    stats.containers_read += 1;
                    stats.oss_bytes_read += data.len() as u64;
                    cached = Some((loc.pack, data.clone()));
                    data
                }
            };
            let end = (loc.offset + loc.len) as usize;
            if end > pack_data.len() {
                return Err(SlimError::ChunkUnresolvable {
                    fp: fp.to_hex(),
                    detail: format!("pack {} too short", loc.pack),
                });
            }
            let chunk = pack_data.slice(loc.offset as usize..end);
            stats.restored_bytes += chunk.len() as u64;
            out.extend_from_slice(&chunk);
        }
        stats.wall_time = start.elapsed();
        Ok((out, stats))
    }

    /// Bytes occupied by the repository (packs + snapshots).
    pub fn repository_bytes(&self) -> u64 {
        self.fs
            .list("restic/")
            .iter()
            .filter_map(|k| self.fs.len(k).unwrap_or(None))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_oss::Oss;
    use slim_types::rng::bytes as data;

    fn repo() -> ResticSim {
        // Small chunks so tests exercise multi-pack paths.
        ResticSim::new(Arc::new(Oss::in_memory()), Duration::ZERO, 1024)
    }

    #[test]
    fn backup_restore_roundtrip() {
        let restic = repo();
        let file = FileId::new("f");
        let input = data(1, 50_000);
        let s = restic.backup_file(&file, VersionId(0), &input).unwrap();
        assert_eq!(s.logical_bytes, input.len() as u64);
        let (out, rs) = restic.restore_file(&file, VersionId(0)).unwrap();
        assert_eq!(out, input);
        assert!(rs.containers_read > 0);
    }

    #[test]
    fn dedup_between_versions() {
        let restic = repo();
        let file = FileId::new("f");
        let input = data(2, 60_000);
        restic.backup_file(&file, VersionId(0), &input).unwrap();
        let s = restic.backup_file(&file, VersionId(1), &input).unwrap();
        assert!(s.dedup_ratio() > 0.95, "exact index: {}", s.dedup_ratio());
        let (out, _) = restic.restore_file(&file, VersionId(1)).unwrap();
        assert_eq!(out, input);
    }

    #[test]
    fn concurrent_jobs_serialize_on_repo_lock() {
        // Each job's pack writes happen inside the exclusive repository
        // lock, and every OSSFS operation sleeps `op_overhead`. Serialized
        // correctly, 4 concurrent jobs therefore take at least the *sum* of
        // their in-lock sleep floors — a deterministic bound, immune to
        // host-load noise (unlike comparing against a measured single-job
        // baseline).
        let op_overhead = Duration::from_millis(2);
        let restic = Arc::new(ResticSim::new(
            Arc::new(Oss::in_memory()),
            op_overhead,
            1024, // 1 KB chunks -> 4 KB packs -> ~10 pack writes per job
        ));
        let inputs: Vec<_> = (0..4u64).map(|i| data(10 + i, 40_000)).collect();
        let t = Instant::now();
        let mut min_in_lock_ops = usize::MAX;
        std::thread::scope(|s| {
            let handles: Vec<_> = inputs
                .iter()
                .enumerate()
                .map(|(i, input)| {
                    let restic = restic.clone();
                    s.spawn(move || {
                        let stats = restic
                            .backup_file(&FileId::new(format!("f{i}")), VersionId(0), input)
                            .unwrap();
                        // Unique payload => every pack flush is an in-lock put.
                        (stats.stored_bytes / (4 * 1024)) as usize
                    })
                })
                .collect();
            for h in handles {
                min_in_lock_ops = min_in_lock_ops.min(h.join().unwrap());
            }
        });
        let elapsed = t.elapsed();
        let floor = op_overhead * (4 * min_in_lock_ops) as u32;
        assert!(
            min_in_lock_ops >= 5,
            "each job should flush several packs, got {min_in_lock_ops}"
        );
        assert!(
            elapsed >= floor,
            "4 serialized jobs cannot beat the sum of their in-lock sleeps: {elapsed:?} < {floor:?}"
        );
    }

    #[test]
    fn repository_bytes_accounts_packs_and_snapshots() {
        let restic = repo();
        let file = FileId::new("f");
        let input = data(3, 20_000);
        restic.backup_file(&file, VersionId(0), &input).unwrap();
        let bytes = restic.repository_bytes();
        assert!(bytes >= input.len() as u64, "packs must hold the payload");
    }

    #[test]
    fn missing_snapshot_is_error() {
        let restic = repo();
        assert!(restic
            .restore_file(&FileId::new("ghost"), VersionId(0))
            .is_err());
    }
}
