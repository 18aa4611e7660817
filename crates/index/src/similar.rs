//! The similar-file index (§III-B, §IV-A Step 1).
//!
//! Stores the representative fingerprints of each file. Detection order
//! follows the paper: an incoming backup file first looks for its latest
//! historical version *by path*; only when the path is unknown does it fall
//! back to similarity search — the candidate sharing the most representative
//! fingerprints wins.
//!
//! The index is small (a handful of samples per file), lives in memory on the
//! metadata path and is snapshotted to one OSS object so L-nodes — which are
//! stateless — can load it at job start.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;
use slim_oss::ObjectStore;
use slim_types::codec::{Reader, Writer};
use slim_types::{layout, FileId, Fingerprint, Result, VersionId};

const MAGIC: &[u8; 4] = b"SLSI";
const VERSION: u8 = 1;

#[derive(Default)]
struct Inner {
    /// Representative fingerprint → files containing it.
    by_sample: HashMap<Fingerprint, Vec<FileId>>,
    /// File → (latest version, its representatives).
    files: HashMap<FileId, (VersionId, Vec<Fingerprint>)>,
}

/// The similar-file index. Cheap to clone (shared handle), thread-safe.
#[derive(Clone, Default)]
pub struct SimilarFileIndex {
    inner: Arc<RwLock<Inner>>,
}

/// Outcome of similar-file detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Detection {
    /// The same path was backed up before: its latest version.
    HistoricalVersion(FileId, VersionId),
    /// A different file shares representative fingerprints.
    SimilarFile(FileId, VersionId, usize),
    /// Nothing matched; treat all chunks as non-duplicate.
    None,
}

impl SimilarFileIndex {
    /// An empty index.
    pub fn new() -> Self {
        SimilarFileIndex::default()
    }

    /// Latest registered version of `file`, if any.
    pub fn latest_version(&self, file: &FileId) -> Option<VersionId> {
        self.inner.read().files.get(file).map(|(v, _)| *v)
    }

    /// Detect a historical version or similar file for an incoming backup
    /// (§IV-A Step 1): path match first, then representative-overlap vote.
    pub fn detect(&self, file: &FileId, samples: &[Fingerprint]) -> Detection {
        let inner = self.inner.read();
        if let Some((version, _)) = inner.files.get(file) {
            return Detection::HistoricalVersion(file.clone(), *version);
        }
        // Vote: candidate sharing most representatives wins.
        let mut votes: HashMap<&FileId, usize> = HashMap::new();
        for fp in samples {
            if let Some(candidates) = inner.by_sample.get(fp) {
                for c in candidates {
                    *votes.entry(c).or_default() += 1;
                }
            }
        }
        let best = votes.into_iter().max_by(
            // Deterministic tie-break on the file id.
            |a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(a.0)),
        );
        match best {
            Some((candidate, shared)) if shared > 0 => {
                let (version, _) = &inner.files[candidate];
                Detection::SimilarFile(candidate.clone(), *version, shared)
            }
            _ => Detection::None,
        }
    }

    /// Register (or refresh) a file's representatives after a backup.
    pub fn register(&self, file: FileId, version: VersionId, samples: Vec<Fingerprint>) {
        let mut inner = self.inner.write();
        // Drop stale postings of the previous version.
        if let Some((_, old_samples)) = inner.files.remove(&file) {
            for fp in old_samples {
                if let Some(list) = inner.by_sample.get_mut(&fp) {
                    list.retain(|f| f != &file);
                    if list.is_empty() {
                        inner.by_sample.remove(&fp);
                    }
                }
            }
        }
        for fp in &samples {
            inner.by_sample.entry(*fp).or_default().push(file.clone());
        }
        inner.files.insert(file, (version, samples));
    }

    /// Remove a file entirely (when its last version is collected).
    pub fn remove(&self, file: &FileId) {
        let mut inner = self.inner.write();
        if let Some((_, samples)) = inner.files.remove(file) {
            for fp in samples {
                if let Some(list) = inner.by_sample.get_mut(&fp) {
                    list.retain(|f| f != file);
                    if list.is_empty() {
                        inner.by_sample.remove(&fp);
                    }
                }
            }
        }
    }

    /// Number of registered files.
    pub fn file_count(&self) -> usize {
        self.inner.read().files.len()
    }

    /// Serialize the index.
    pub fn encode(&self) -> bytes::Bytes {
        let inner = self.inner.read();
        let mut w = Writer::with_header(MAGIC, VERSION);
        w.u32(inner.files.len() as u32);
        let mut files: Vec<_> = inner.files.iter().collect();
        files.sort_by(|a, b| a.0.cmp(b.0)); // deterministic snapshots
        for (file, (version, samples)) in files {
            w.string(file.as_str());
            w.u64(version.0);
            w.u32(samples.len() as u32);
            for fp in samples {
                w.fingerprint(fp);
            }
        }
        w.freeze()
    }

    /// Deserialize an index snapshot.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let mut r = Reader::new(buf, "similar file index");
        r.expect_header(MAGIC, VERSION)?;
        let n = r.count(4 + 8 + 4)?;
        let index = SimilarFileIndex::new();
        for _ in 0..n {
            let file = FileId::new(r.string()?);
            let version = VersionId(r.u64()?);
            let k = r.count(20)?;
            let mut samples = Vec::with_capacity(k);
            for _ in 0..k {
                samples.push(r.fingerprint()?);
            }
            index.register(file, version, samples);
        }
        r.finish()?;
        Ok(index)
    }

    /// Persist the snapshot to OSS under the standard key.
    pub fn save(&self, oss: &dyn ObjectStore) -> Result<()> {
        oss.put(layout::SIMILAR_INDEX, self.encode())
    }

    /// Load the snapshot from OSS; missing snapshot yields an empty index.
    pub fn load(oss: &dyn ObjectStore) -> Result<Self> {
        if !oss.exists(layout::SIMILAR_INDEX)? {
            return Ok(SimilarFileIndex::new());
        }
        let buf = oss.get(layout::SIMILAR_INDEX)?;
        SimilarFileIndex::decode(&buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_oss::Oss;

    fn fp(b: u8) -> Fingerprint {
        Fingerprint::from_slice(&[b; 20]).unwrap()
    }

    #[test]
    fn path_match_beats_similarity() {
        let idx = SimilarFileIndex::new();
        idx.register(FileId::new("a"), VersionId(1), vec![fp(1), fp(2)]);
        idx.register(FileId::new("b"), VersionId(2), vec![fp(1), fp(2), fp(3)]);
        // Even though "b" shares more samples, the path wins.
        let det = idx.detect(&FileId::new("a"), &[fp(1), fp(2), fp(3)]);
        assert_eq!(
            det,
            Detection::HistoricalVersion(FileId::new("a"), VersionId(1))
        );
    }

    #[test]
    fn similarity_vote_picks_max_overlap() {
        let idx = SimilarFileIndex::new();
        idx.register(FileId::new("x"), VersionId(1), vec![fp(1)]);
        idx.register(FileId::new("y"), VersionId(4), vec![fp(1), fp(2), fp(3)]);
        let det = idx.detect(&FileId::new("renamed"), &[fp(1), fp(2), fp(3)]);
        assert_eq!(
            det,
            Detection::SimilarFile(FileId::new("y"), VersionId(4), 3)
        );
    }

    #[test]
    fn no_overlap_detects_none() {
        let idx = SimilarFileIndex::new();
        idx.register(FileId::new("x"), VersionId(1), vec![fp(1)]);
        assert_eq!(idx.detect(&FileId::new("new"), &[fp(9)]), Detection::None);
        assert_eq!(idx.detect(&FileId::new("new"), &[]), Detection::None);
    }

    #[test]
    fn register_refreshes_version_and_postings() {
        let idx = SimilarFileIndex::new();
        let f = FileId::new("f");
        idx.register(f.clone(), VersionId(1), vec![fp(1), fp(2)]);
        idx.register(f.clone(), VersionId(2), vec![fp(3)]);
        assert_eq!(idx.latest_version(&f), Some(VersionId(2)));
        // Old posting must be gone: fp(1) no longer finds f.
        assert_eq!(idx.detect(&FileId::new("other"), &[fp(1)]), Detection::None);
        assert!(matches!(
            idx.detect(&FileId::new("other"), &[fp(3)]),
            Detection::SimilarFile(_, VersionId(2), 1)
        ));
    }

    #[test]
    fn remove_erases_everything() {
        let idx = SimilarFileIndex::new();
        let f = FileId::new("gone");
        idx.register(f.clone(), VersionId(1), vec![fp(7)]);
        idx.remove(&f);
        assert_eq!(idx.file_count(), 0);
        assert_eq!(idx.latest_version(&f), None);
        assert_eq!(idx.detect(&FileId::new("q"), &[fp(7)]), Detection::None);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let idx = SimilarFileIndex::new();
        idx.register(FileId::new("a"), VersionId(1), vec![fp(1), fp(2)]);
        idx.register(FileId::new("b"), VersionId(9), vec![fp(3)]);
        let buf = idx.encode();
        let back = SimilarFileIndex::decode(&buf).unwrap();
        assert_eq!(back.file_count(), 2);
        assert_eq!(back.latest_version(&FileId::new("b")), Some(VersionId(9)));
        assert!(matches!(
            back.detect(&FileId::new("?"), &[fp(1)]),
            Detection::SimilarFile(_, VersionId(1), 1)
        ));
    }

    #[test]
    fn oversized_counts_are_corrupt() {
        let idx = SimilarFileIndex::new();
        idx.register(FileId::new("a"), VersionId(1), vec![fp(1), fp(2)]);
        // Header (5), file count; then name (4 + 1), version (8), sample count.
        for at in [5, 5 + 4 + 5 + 8] {
            let mut buf = idx.encode().to_vec();
            buf[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let tampered = SimilarFileIndex::decode(&buf);
            assert!(matches!(
                tampered,
                Err(slim_types::SlimError::Corrupt { .. })
            ));
        }
    }

    #[test]
    fn save_load_via_oss() {
        let oss = Oss::in_memory();
        let idx = SimilarFileIndex::new();
        idx.register(FileId::new("a"), VersionId(3), vec![fp(5)]);
        idx.save(&oss).unwrap();
        let back = SimilarFileIndex::load(&oss).unwrap();
        assert_eq!(back.latest_version(&FileId::new("a")), Some(VersionId(3)));
        // Loading from an empty store is an empty index.
        let empty = SimilarFileIndex::load(&Oss::in_memory()).unwrap();
        assert_eq!(empty.file_count(), 0);
    }

    #[test]
    fn deterministic_tie_break() {
        let idx = SimilarFileIndex::new();
        idx.register(FileId::new("aa"), VersionId(1), vec![fp(1)]);
        idx.register(FileId::new("bb"), VersionId(2), vec![fp(1)]);
        let d1 = idx.detect(&FileId::new("probe"), &[fp(1)]);
        let d2 = idx.detect(&FileId::new("probe"), &[fp(1)]);
        assert_eq!(d1, d2);
        assert!(matches!(d1, Detection::SimilarFile(f, _, 1) if f == FileId::new("aa")));
    }
}
