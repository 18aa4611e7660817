//! Key-namespace wrapper: scope any object store to a prefix.
//!
//! The paper's service model is multi-tenant — "the global index maintains
//! the information of all chunks of *a user*" (§III-B). [`NamespacedStore`]
//! gives each tenant an isolated keyspace over one shared bucket: every key
//! is transparently prefixed with `tenants/<name>/`, so two deployments
//! built over different namespaces share nothing — containers, recipes,
//! global index and manifests are all disjoint.

use std::sync::Arc;

use bytes::Bytes;
use slim_types::{Result, SlimError};

use crate::store::ObjectStore;

/// An [`ObjectStore`] view confined to a key prefix.
pub struct NamespacedStore {
    inner: Arc<dyn ObjectStore>,
    prefix: String,
}

impl NamespacedStore {
    /// Whether `name` is a usable tenant name (letters, digits, `-`, `_`,
    /// `.`), checked where the name enters so a bad one fails before any
    /// store is built.
    pub fn validate_name(name: &str) -> Result<()> {
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
        {
            return Err(SlimError::InvalidConfig(format!(
                "invalid tenant name {name:?} (use [A-Za-z0-9._-]+)"
            )));
        }
        Ok(())
    }

    /// Scope `inner` to tenant `name` (see [`NamespacedStore::validate_name`]).
    pub fn new(inner: Arc<dyn ObjectStore>, name: &str) -> Result<Self> {
        Self::validate_name(name)?;
        Ok(NamespacedStore {
            inner,
            prefix: format!("tenants/{name}/"),
        })
    }

    fn full(&self, key: &str) -> String {
        format!("{}{}", self.prefix, key)
    }

    fn full_keys(&self, keys: &[String]) -> Vec<String> {
        keys.iter().map(|k| self.full(k)).collect()
    }

    /// Rewrite a not-found error back to the tenant-relative key name.
    fn relative_err(key: &str, err: SlimError) -> SlimError {
        match err {
            SlimError::ObjectNotFound(_) => SlimError::ObjectNotFound(key.to_string()),
            other => other,
        }
    }
}

impl ObjectStore for NamespacedStore {
    fn put(&self, key: &str, value: Bytes) -> Result<()> {
        self.inner.put(&self.full(key), value)
    }

    fn get(&self, key: &str) -> Result<Bytes> {
        // Strip the prefix from not-found errors so callers see their own
        // key names.
        self.inner
            .get(&self.full(key))
            .map_err(|e| Self::relative_err(key, e))
    }

    fn get_raw(&self, key: &str) -> Result<Bytes> {
        self.inner
            .get_raw(&self.full(key))
            .map_err(|e| Self::relative_err(key, e))
    }

    fn get_range(&self, key: &str, start: u64, len: u64) -> Result<Bytes> {
        self.inner
            .get_range(&self.full(key), start, len)
            .map_err(|e| Self::relative_err(key, e))
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.inner.delete(&self.full(key))
    }

    fn exists(&self, key: &str) -> Result<bool> {
        self.inner.exists(&self.full(key))
    }

    fn len(&self, key: &str) -> Result<Option<u64>> {
        self.inner.len(&self.full(key))
    }

    fn get_many(&self, keys: &[String]) -> Vec<Result<Bytes>> {
        self.inner
            .get_many(&self.full_keys(keys))
            .into_iter()
            .zip(keys)
            .map(|(r, key)| r.map_err(|e| Self::relative_err(key, e)))
            .collect()
    }

    fn get_range_many(&self, ranges: &[(String, u64, u64)]) -> Vec<Result<Bytes>> {
        let full: Vec<(String, u64, u64)> = ranges
            .iter()
            .map(|(key, start, len)| (self.full(key), *start, *len))
            .collect();
        self.inner
            .get_range_many(&full)
            .into_iter()
            .zip(ranges)
            .map(|(r, (key, _, _))| r.map_err(|e| Self::relative_err(key, e)))
            .collect()
    }

    fn len_many(&self, keys: &[String]) -> Vec<Result<Option<u64>>> {
        self.inner.len_many(&self.full_keys(keys))
    }

    fn delete_many(&self, keys: &[String]) -> Vec<Result<()>> {
        self.inner.delete_many(&self.full_keys(keys))
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner
            .list(&self.full(prefix))
            .into_iter()
            .filter_map(|k| k.strip_prefix(&self.prefix).map(str::to_string))
            .collect()
    }

    fn metrics_snapshot(&self) -> Option<crate::metrics::MetricsSnapshot> {
        self.inner.metrics_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Oss;

    #[test]
    fn tenants_are_isolated() {
        let bucket: Arc<dyn ObjectStore> = Arc::new(Oss::in_memory());
        let alice = NamespacedStore::new(bucket.clone(), "alice").unwrap();
        let bob = NamespacedStore::new(bucket.clone(), "bob").unwrap();
        alice.put("k", Bytes::from_static(b"A")).unwrap();
        bob.put("k", Bytes::from_static(b"B")).unwrap();
        assert_eq!(alice.get("k").unwrap(), Bytes::from_static(b"A"));
        assert_eq!(bob.get("k").unwrap(), Bytes::from_static(b"B"));
        assert_eq!(alice.list(""), vec!["k".to_string()]);
        // Raw bucket sees both, under the tenant prefix.
        assert_eq!(bucket.list("tenants/").len(), 2);
        alice.delete("k").unwrap();
        assert!(!alice.exists("k").unwrap());
        assert!(bob.exists("k").unwrap());
    }

    #[test]
    fn error_keys_are_tenant_relative() {
        let bucket: Arc<dyn ObjectStore> = Arc::new(Oss::in_memory());
        let t = NamespacedStore::new(bucket, "t1").unwrap();
        match t.get("missing/key") {
            Err(SlimError::ObjectNotFound(k)) => assert_eq!(k, "missing/key"),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn batched_ops_stay_tenant_scoped() {
        let bucket: Arc<dyn ObjectStore> = Arc::new(Oss::in_memory());
        let t = NamespacedStore::new(bucket.clone(), "t1").unwrap();
        t.put("a", Bytes::from_static(b"v")).unwrap();
        let keys: Vec<String> = vec!["a".into(), "missing".into()];
        let results = t.get_many(&keys);
        assert_eq!(results[0].as_ref().unwrap(), &Bytes::from_static(b"v"));
        match &results[1] {
            Err(SlimError::ObjectNotFound(k)) => {
                assert_eq!(k, "missing", "error keys are tenant-relative")
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(*t.len_many(&keys)[0].as_ref().unwrap(), Some(1));
        for r in t.delete_many(&keys) {
            r.unwrap();
        }
        assert!(bucket.list("tenants/t1/").is_empty());
    }

    #[test]
    fn invalid_names_rejected() {
        let bucket: Arc<dyn ObjectStore> = Arc::new(Oss::in_memory());
        for bad in ["", "a/b", "a b", "../x"] {
            assert!(
                NamespacedStore::new(bucket.clone(), bad).is_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn range_reads_pass_through() {
        let bucket: Arc<dyn ObjectStore> = Arc::new(Oss::in_memory());
        let t = NamespacedStore::new(bucket, "t").unwrap();
        t.put("obj", Bytes::from_static(b"0123456789")).unwrap();
        assert_eq!(
            t.get_range("obj", 2, 3).unwrap(),
            Bytes::from_static(b"234")
        );
        assert_eq!(t.len("obj").unwrap(), Some(10));
    }

    #[test]
    fn two_slimstore_deployments_share_a_bucket() {
        use slim_types::{FileId, SlimConfig};
        // Whole-system isolation: same bucket, two tenants, independent
        // version histories.
        let bucket: Arc<dyn ObjectStore> = Arc::new(Oss::in_memory());
        let mk = |name: &str| -> Arc<dyn ObjectStore> {
            Arc::new(NamespacedStore::new(bucket.clone(), name).unwrap())
        };
        let sa = mk("acme");
        let sb = mk("globex");
        sa.put(
            &slim_types::layout::version_manifest(slim_types::VersionId(0)),
            slim_types::VersionManifest::new(slim_types::VersionId(0)).encode(),
        )
        .unwrap();
        assert!(sa.exists("versions/00000000").unwrap());
        assert!(!sb.exists("versions/00000000").unwrap());
        let _ = (FileId::new("x"), SlimConfig::default()); // types in scope
    }
}
