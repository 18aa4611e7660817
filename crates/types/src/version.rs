//! Backup versions and their manifests.
//!
//! Each backup run produces a [`VersionManifest`] recording which files were
//! backed up, where their recipes live, which containers the run created,
//! and — per §VI-B — which containers become *garbage* the moment this
//! version is deleted (the Mark phase of garbage collection is folded into
//! deduplication; version deletion only needs the Sweep phase).

use std::fmt;

use crate::codec::{Reader, Writer};
use crate::container::ContainerId;
use crate::error::{Result, SlimError};

/// Identifier of one backup version (monotonically increasing per user).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VersionId(pub u64);

impl fmt::Display for VersionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl VersionId {
    /// The next version number.
    pub fn next(self) -> VersionId {
        VersionId(self.0 + 1)
    }
}

/// Identifier of a backup file: its user-visible path.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub String);

impl FileId {
    /// Construct from any path-like string.
    pub fn new(path: impl Into<String>) -> Self {
        FileId(path.into())
    }

    /// The path as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Per-file outcome of a backup job.
#[derive(Debug, Clone, PartialEq)]
pub struct FileBackupInfo {
    /// Which file.
    pub file: FileId,
    /// OSS key of the recipe object.
    pub recipe_key: String,
    /// OSS key of the recipe index object.
    pub recipe_index_key: String,
    /// Logical (pre-dedup) size of the file in this version.
    pub logical_bytes: u64,
    /// Bytes of *new* (non-duplicate) chunk payload this version stored.
    pub stored_bytes: u64,
    /// Number of chunk records in the recipe.
    pub chunk_count: u64,
    /// Number of records confirmed duplicate during online dedup.
    pub duplicate_count: u64,
}

/// The manifest of one backup version.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VersionManifest {
    /// Version number.
    pub version: u64,
    /// Files captured in this version.
    pub files: Vec<FileBackupInfo>,
    /// Containers created while deduplicating this version (input to the
    /// G-node's reverse deduplication, §VI-A).
    pub new_containers: Vec<ContainerId>,
    /// Containers that become garbage when this version is deleted: those
    /// referenced here but not by version N+1 or any similar file, plus
    /// sparse containers emptied by compaction (§VI-B).
    pub garbage_on_delete: Vec<ContainerId>,
    /// Containers this version's recipes name, ascending — recorded by the
    /// G-node when it settles the version (after SCC rewrote the recipes),
    /// with the successor id substituted whenever a later G-node rewrite
    /// replaces one of them. A container's *version fan-in*, the measure the
    /// redundancy plane tiers by, is the number of retained manifests naming
    /// it here. Empty on a version no cycle has settled yet and on manifests
    /// written in format 1; readers then derive it from the recipes.
    pub referenced_containers: Vec<ContainerId>,
}

const MANIFEST_MAGIC: &[u8; 4] = b"SLVM";
/// Format 2 appends `referenced_containers`; format 1 still decodes.
const MANIFEST_VERSION: u8 = 2;

impl VersionManifest {
    /// A fresh manifest for `version`.
    pub fn new(version: VersionId) -> Self {
        VersionManifest {
            version: version.0,
            ..Default::default()
        }
    }

    /// Typed version id.
    pub fn id(&self) -> VersionId {
        VersionId(self.version)
    }

    /// Total logical bytes across files.
    pub fn logical_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.logical_bytes).sum()
    }

    /// Total newly stored bytes across files.
    pub fn stored_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.stored_bytes).sum()
    }

    /// Deduplication ratio of this version as defined in §VII-B:
    /// deleted duplicate bytes / logical bytes.
    pub fn dedup_ratio(&self) -> f64 {
        let logical = self.logical_bytes();
        if logical == 0 {
            return 0.0;
        }
        logical.saturating_sub(self.stored_bytes()) as f64 / logical as f64
    }

    /// Find the backup info for `file`.
    pub fn file(&self, file: &FileId) -> Option<&FileBackupInfo> {
        self.files.iter().find(|f| &f.file == file)
    }

    /// Serialize to the OSS wire format.
    pub fn encode(&self) -> bytes::Bytes {
        let mut w = Writer::with_header(MANIFEST_MAGIC, MANIFEST_VERSION);
        w.u64(self.version);
        w.u32(self.files.len() as u32);
        for f in &self.files {
            w.string(f.file.as_str());
            w.string(&f.recipe_key);
            w.string(&f.recipe_index_key);
            w.u64(f.logical_bytes);
            w.u64(f.stored_bytes);
            w.u64(f.chunk_count);
            w.u64(f.duplicate_count);
        }
        for list in [
            &self.new_containers,
            &self.garbage_on_delete,
            &self.referenced_containers,
        ] {
            w.u32(list.len() as u32);
            for c in list {
                w.u64(c.0);
            }
        }
        w.freeze()
    }

    /// Deserialize from the OSS wire format.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let mut r = Reader::new(buf, "version manifest");
        let format = r.sniff_header(MANIFEST_MAGIC)?;
        if !(1..=MANIFEST_VERSION).contains(&format) {
            return Err(SlimError::corrupt(
                "version manifest",
                format!("unsupported format version {format}"),
            ));
        }
        let version = r.u64()?;
        // Three empty strings and four u64s at the least.
        let nf = r.count(3 * 4 + 4 * 8)?;
        let mut files = Vec::with_capacity(nf);
        for _ in 0..nf {
            files.push(FileBackupInfo {
                file: FileId::new(r.string()?),
                recipe_key: r.string()?,
                recipe_index_key: r.string()?,
                logical_bytes: r.u64()?,
                stored_bytes: r.u64()?,
                chunk_count: r.u64()?,
                duplicate_count: r.u64()?,
            });
        }
        let ids = |r: &mut Reader| -> Result<Vec<ContainerId>> {
            let n = r.count(8)?;
            (0..n).map(|_| r.u64().map(ContainerId)).collect()
        };
        let new_containers = ids(&mut r)?;
        let garbage_on_delete = ids(&mut r)?;
        let referenced_containers = match format {
            1 => Vec::new(),
            _ => ids(&mut r)?,
        };
        r.finish()?;
        Ok(VersionManifest {
            version,
            files,
            new_containers,
            garbage_on_delete,
            referenced_containers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> VersionManifest {
        VersionManifest {
            version: 3,
            files: vec![FileBackupInfo {
                file: FileId::new("db/table_0.ibd"),
                recipe_key: "recipes/db/table_0.ibd/3".into(),
                recipe_index_key: "recipe-index/db/table_0.ibd/3".into(),
                logical_bytes: 1000,
                stored_bytes: 160,
                chunk_count: 10,
                duplicate_count: 8,
            }],
            new_containers: vec![ContainerId(5), ContainerId(6)],
            garbage_on_delete: vec![ContainerId(1)],
            referenced_containers: vec![ContainerId(1), ContainerId(5), ContainerId(6)],
        }
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        let buf = m.encode();
        let back = VersionManifest::decode(&buf).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn format_1_decodes_with_an_empty_referenced_set() {
        let m = sample();
        // Format 1 is format 2 without the trailing list.
        let v2 = m.encode();
        let tail = 4 + 8 * m.referenced_containers.len();
        let mut v1 = v2[..v2.len() - tail].to_vec();
        v1[4] = 1;
        let back = VersionManifest::decode(&v1).unwrap();
        assert_eq!(
            back,
            VersionManifest {
                referenced_containers: Vec::new(),
                ..m
            }
        );
        let mut v3 = v2.to_vec();
        v3[4] = 3;
        assert!(VersionManifest::decode(&v3).is_err());
        v3[4] = 0;
        assert!(VersionManifest::decode(&v3).is_err());
    }

    #[test]
    fn dedup_ratio() {
        let m = sample();
        assert!((m.dedup_ratio() - 0.84).abs() < 1e-9);
        let empty = VersionManifest::new(VersionId(0));
        assert_eq!(empty.dedup_ratio(), 0.0);
    }

    #[test]
    fn file_lookup() {
        let m = sample();
        assert!(m.file(&FileId::new("db/table_0.ibd")).is_some());
        assert!(m.file(&FileId::new("nope")).is_none());
    }

    #[test]
    fn corruption_detected() {
        let buf = sample().encode();
        assert!(VersionManifest::decode(&buf[..buf.len() - 2]).is_err());
        let mut bad = buf.to_vec();
        bad[1] ^= 0x55;
        assert!(VersionManifest::decode(&bad).is_err());
    }

    #[test]
    fn version_id_next_and_display() {
        assert_eq!(VersionId(4).next(), VersionId(5));
        assert_eq!(VersionId(4).to_string(), "v4");
        assert_eq!(ContainerId(2).to_string(), "C2");
    }
}
