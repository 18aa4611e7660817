//! A filesystem-backed object store.
//!
//! Persists objects as files under a root directory, mapping the flat OSS
//! keyspace onto directories. This is the backend a real deployment of the
//! library would use against a FUSE-mounted bucket (the paper's OSSFS) or
//! local disk; the simulated [`crate::Oss`] remains the default for tests
//! and experiments because it carries the network cost model.
//!
//! Keys are sanitized path segments (`a/b/c` → `<root>/a/b/c.obj`); the
//! `.obj` suffix keeps files distinguishable from directories so `a` and
//! `a/b` can both be keys. Writes go through a temp file + rename so a crash
//! never leaves a half-written object visible.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bytes::Bytes;
use slim_types::{Result, SlimError};

use crate::metrics::{MetricsSnapshot, OssMetrics};
use crate::store::ObjectStore;

/// Object store persisting to a local directory.
pub struct LocalDiskOss {
    root: PathBuf,
    tmp_counter: AtomicU64,
    metrics: OssMetrics,
}

impl LocalDiskOss {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(LocalDiskOss {
            root,
            tmp_counter: AtomicU64::new(0),
            metrics: OssMetrics::default(),
        })
    }

    /// Traffic counters (request counts, payload bytes, I/O wall time).
    pub fn metrics(&self) -> &OssMetrics {
        &self.metrics
    }

    fn path_of(&self, key: &str) -> Result<PathBuf> {
        if key.is_empty() {
            return Err(SlimError::InvalidConfig("empty object key".into()));
        }
        let mut path = self.root.clone();
        for segment in key.split('/') {
            if segment.is_empty() || segment == "." || segment == ".." {
                return Err(SlimError::InvalidConfig(format!(
                    "object key {key:?} has an invalid path segment"
                )));
            }
            path.push(segment);
        }
        path.set_file_name(format!(
            "{}.obj",
            path.file_name()
                .and_then(|s| s.to_str())
                .expect("validated utf-8 segment")
        ));
        Ok(path)
    }

    fn key_of(&self, path: &Path) -> Option<String> {
        let rel = path.strip_prefix(&self.root).ok()?;
        let mut segments: Vec<String> = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect();
        let last = segments.pop()?;
        let last = last.strip_suffix(".obj")?;
        segments.push(last.to_string());
        Some(segments.join("/"))
    }

    fn walk(&self, dir: &Path, out: &mut Vec<String>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                self.walk(&path, out);
            } else if let Some(key) = self.key_of(&path) {
                out.push(key);
            }
        }
    }
}

impl ObjectStore for LocalDiskOss {
    fn put(&self, key: &str, value: Bytes) -> Result<()> {
        let start = Instant::now();
        let path = self.path_of(key)?;
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        // Atomic publish: write a temp file, then rename over the target.
        let tmp = path.with_extension(format!(
            "tmp{}",
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&value)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        self.metrics.record_put(value.len() as u64, start.elapsed());
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Bytes> {
        let start = Instant::now();
        let path = self.path_of(key)?;
        match fs::read(&path) {
            Ok(buf) => {
                self.metrics.record_get(buf.len() as u64, start.elapsed());
                Ok(Bytes::from(buf))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(SlimError::ObjectNotFound(key.to_string()))
            }
            Err(e) => Err(e.into()),
        }
    }

    fn get_range(&self, key: &str, start: u64, len: u64) -> Result<Bytes> {
        use std::io::{Read, Seek, SeekFrom};
        let t0 = Instant::now();
        let path = self.path_of(key)?;
        let mut f = match fs::File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(SlimError::ObjectNotFound(key.to_string()))
            }
            Err(e) => return Err(e.into()),
        };
        let total = f.metadata()?.len();
        // checked_add: `start + len` can exceed u64::MAX, and a wrapped end
        // would pass the bounds check.
        if start.checked_add(len).is_none_or(|end| end > total) {
            return Err(SlimError::RangeOutOfBounds {
                key: key.to_string(),
                start,
                end: start.saturating_add(len),
                len: total,
            });
        }
        f.seek(SeekFrom::Start(start))?;
        let mut buf = vec![0u8; len as usize];
        f.read_exact(&mut buf)?;
        self.metrics.record_get(len, t0.elapsed());
        Ok(Bytes::from(buf))
    }

    fn delete(&self, key: &str) -> Result<()> {
        let start = Instant::now();
        let path = self.path_of(key)?;
        match fs::remove_file(&path) {
            Ok(()) => {
                self.metrics.record_delete(start.elapsed());
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.metrics.record_delete(start.elapsed());
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    fn exists(&self, key: &str) -> Result<bool> {
        // An invalid key cannot name an object, so it simply doesn't exist.
        Ok(self.path_of(key).map(|p| p.exists()).unwrap_or(false))
    }

    fn len(&self, key: &str) -> Result<Option<u64>> {
        let Ok(path) = self.path_of(key) else {
            return Ok(None);
        };
        Ok(fs::metadata(path).ok().map(|m| m.len()))
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        let mut keys = Vec::new();
        self.walk(&self.root, &mut keys);
        keys.retain(|k| k.starts_with(prefix));
        keys.sort();
        keys
    }

    fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        Some(self.metrics.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> (PathBuf, LocalDiskOss) {
        let dir = std::env::temp_dir().join(format!("slim-disk-oss-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = LocalDiskOss::open(&dir).unwrap();
        (dir, store)
    }

    #[test]
    fn roundtrip_and_listing() {
        let (dir, store) = temp_store("rt");
        store.put("a/b/c", Bytes::from_static(b"hello")).unwrap();
        store.put("a/d", Bytes::from_static(b"x")).unwrap();
        store.put("z", Bytes::from_static(b"y")).unwrap();
        assert_eq!(store.get("a/b/c").unwrap(), Bytes::from_static(b"hello"));
        assert_eq!(store.len("a/b/c").unwrap(), Some(5));
        assert!(store.exists("a/d").unwrap());
        assert_eq!(
            store.list("a/"),
            vec!["a/b/c".to_string(), "a/d".to_string()]
        );
        assert_eq!(store.list("").len(), 3);
        let snap = store.metrics_snapshot().unwrap();
        assert_eq!(snap.put_requests, 3);
        assert_eq!(snap.get_requests, 1);
        assert_eq!(snap.bytes_written, 7);
        assert_eq!(snap.bytes_read, 5);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn range_reads_and_errors() {
        let (dir, store) = temp_store("range");
        store.put("obj", Bytes::from_static(b"0123456789")).unwrap();
        assert_eq!(
            store.get_range("obj", 3, 4).unwrap(),
            Bytes::from_static(b"3456")
        );
        assert!(matches!(
            store.get_range("obj", 8, 5),
            Err(SlimError::RangeOutOfBounds { .. })
        ));
        // Regression: start + len overflowing u64 must be an error, not a
        // wrapped end that passes the bounds check (or a debug panic).
        assert!(matches!(
            store.get_range("obj", u64::MAX - 2, 5),
            Err(SlimError::RangeOutOfBounds { .. })
        ));
        assert!(matches!(
            store.get("missing"),
            Err(SlimError::ObjectNotFound(_))
        ));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn delete_is_idempotent_and_overwrite_works() {
        let (dir, store) = temp_store("del");
        store.put("k", Bytes::from_static(b"v1")).unwrap();
        store.put("k", Bytes::from_static(b"v2")).unwrap();
        assert_eq!(store.get("k").unwrap(), Bytes::from_static(b"v2"));
        store.delete("k").unwrap();
        store.delete("k").unwrap();
        assert!(!store.exists("k").unwrap());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn rejects_path_escapes() {
        let (dir, store) = temp_store("esc");
        assert!(store.put("../escape", Bytes::new()).is_err());
        assert!(store.put("a//b", Bytes::new()).is_err());
        assert!(store.put("", Bytes::new()).is_err());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn survives_reopen() {
        let (dir, store) = temp_store("reopen");
        store
            .put("persist/me", Bytes::from_static(b"data"))
            .unwrap();
        drop(store);
        let store = LocalDiskOss::open(&dir).unwrap();
        assert_eq!(
            store.get("persist/me").unwrap(),
            Bytes::from_static(b"data")
        );
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn whole_slimstore_runs_on_disk() {
        use slim_types::FileId;
        let (dir, _probe) = temp_store("sys");
        let oss: std::sync::Arc<dyn ObjectStore> =
            std::sync::Arc::new(LocalDiskOss::open(&dir).unwrap());
        // Smoke-test the full storage layer contract on real files.
        oss.put("containers/000000000000/data", Bytes::from(vec![7u8; 100]))
            .unwrap();
        assert_eq!(
            oss.get_range("containers/000000000000/data", 10, 5)
                .unwrap(),
            Bytes::from(vec![7u8; 5])
        );
        let _ = FileId::new("x");
        let _ = fs::remove_dir_all(dir);
    }
}
