//! An [`ObjectStore`] that records one span per request.
//!
//! It forwards **every** trait method to the wrapped store — including
//! `get_raw`, `metrics_snapshot` and each `*_many` as a single span with
//! `items` set — because the trait's default sequential `*_many` would
//! measure a different program than the batched one the stack implements.

use std::sync::Arc;

use bytes::Bytes;
use slim_oss::{MetricsSnapshot, ObjectStore};
use slim_types::{layout, Result};

use crate::trace::Tracer;

/// What kind of object a key names, by its prefix in `slim_types::layout`.
pub fn key_class(key: &str) -> &'static str {
    // Tenant stores prefix every key with `tenants/<name>/`.
    let key = match key.strip_prefix("tenants/") {
        Some(rest) => rest.split_once('/').map_or(rest, |(_, k)| k),
        None => key,
    };
    if key.starts_with(layout::REDUNDANCY_PREFIX) {
        "redundancy"
    } else if key.starts_with(layout::CONTAINER_PREFIX) {
        if key.ends_with("/meta") {
            "container_meta"
        } else {
            "container_data"
        }
    } else if key.starts_with(layout::RECIPE_PREFIX) || key.starts_with(layout::RECIPE_INDEX_PREFIX)
    {
        "recipe"
    } else if key.starts_with(layout::GLOBAL_INDEX_PREFIX) {
        "index_sst"
    } else if key.starts_with(layout::JOURNAL_PREFIX) {
        "journal"
    } else if key.starts_with(layout::VERSION_PREFIX) {
        "manifest"
    } else {
        "other"
    }
}

/// Span-recording wrapper; `layer` tells two wrappers of one stack apart.
pub struct TracedStore {
    inner: Arc<dyn ObjectStore>,
    tracer: Arc<Tracer>,
    layer: &'static str,
}

impl TracedStore {
    pub fn new(inner: Arc<dyn ObjectStore>, tracer: Arc<Tracer>, layer: &'static str) -> Self {
        TracedStore {
            inner,
            tracer,
            layer,
        }
    }

    fn one<T>(
        &self,
        op: &str,
        key: &str,
        call: impl FnOnce() -> Result<T>,
        bytes_of: impl FnOnce(&T) -> u64,
    ) -> Result<T> {
        let span = self
            .tracer
            .child(self.layer, format!("{op}:{}", key_class(key)));
        let out = call();
        let bytes = out.as_ref().map_or(0, bytes_of);
        self.tracer.finish(span, bytes, 1, out.is_ok());
        out
    }

    fn many<T>(
        &self,
        op: &str,
        first_key: Option<&str>,
        items: usize,
        call: impl FnOnce() -> Vec<Result<T>>,
        bytes_of: impl Fn(&T) -> u64,
    ) -> Vec<Result<T>> {
        let class = first_key.map_or("empty", key_class);
        let span = self.tracer.child(self.layer, format!("{op}:{class}"));
        let out = call();
        let bytes = out.iter().flatten().map(&bytes_of).sum();
        let ok = out.iter().all(|r| r.is_ok());
        self.tracer.finish(span, bytes, items as u64, ok);
        out
    }
}

impl ObjectStore for TracedStore {
    fn put(&self, key: &str, value: Bytes) -> Result<()> {
        let len = value.len() as u64;
        self.one("put", key, || self.inner.put(key, value), |_| len)
    }

    fn get(&self, key: &str) -> Result<Bytes> {
        self.one("get", key, || self.inner.get(key), |b| b.len() as u64)
    }

    fn get_raw(&self, key: &str) -> Result<Bytes> {
        self.one(
            "get_raw",
            key,
            || self.inner.get_raw(key),
            |b| b.len() as u64,
        )
    }

    fn get_range(&self, key: &str, start: u64, len: u64) -> Result<Bytes> {
        self.one(
            "get_range",
            key,
            || self.inner.get_range(key, start, len),
            |b| b.len() as u64,
        )
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.one("delete", key, || self.inner.delete(key), |_| 0)
    }

    fn exists(&self, key: &str) -> Result<bool> {
        self.one("exists", key, || self.inner.exists(key), |_| 0)
    }

    fn len(&self, key: &str) -> Result<Option<u64>> {
        self.one("len", key, || self.inner.len(key), |_| 0)
    }

    fn get_many(&self, keys: &[String]) -> Vec<Result<Bytes>> {
        let first = keys.first().map(String::as_str);
        self.many(
            "get_many",
            first,
            keys.len(),
            || self.inner.get_many(keys),
            |b| b.len() as u64,
        )
    }

    fn get_range_many(&self, ranges: &[(String, u64, u64)]) -> Vec<Result<Bytes>> {
        let first = ranges.first().map(|r| r.0.as_str());
        self.many(
            "get_range_many",
            first,
            ranges.len(),
            || self.inner.get_range_many(ranges),
            |b| b.len() as u64,
        )
    }

    fn len_many(&self, keys: &[String]) -> Vec<Result<Option<u64>>> {
        let first = keys.first().map(String::as_str);
        self.many(
            "len_many",
            first,
            keys.len(),
            || self.inner.len_many(keys),
            |_| 0,
        )
    }

    fn delete_many(&self, keys: &[String]) -> Vec<Result<()>> {
        let first = keys.first().map(String::as_str);
        self.many(
            "delete_many",
            first,
            keys.len(),
            || self.inner.delete_many(keys),
            |_| 0,
        )
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        let span = self
            .tracer
            .child(self.layer, format!("list:{}", key_class(prefix)));
        let out = self.inner.list(prefix);
        self.tracer.finish(span, 0, out.len() as u64, true);
        out
    }

    fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.inner.metrics_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_oss::Oss;

    #[test]
    fn classes_follow_the_key_layout() {
        assert_eq!(key_class("containers/000000000001/data"), "container_data");
        assert_eq!(key_class("containers/000000000001/meta"), "container_meta");
        assert_eq!(key_class("tenants/acme/recipes/db/f/00000001"), "recipe");
        assert_eq!(key_class("recipe-index/db/f/00000001"), "recipe");
        assert_eq!(key_class("global-index/sst-1"), "index_sst");
        assert_eq!(key_class("gnode-journal/1"), "journal");
        assert_eq!(
            key_class("redundancy/replica/containers/1/data"),
            "redundancy"
        );
        assert_eq!(key_class("versions/00000001"), "manifest");
        assert_eq!(key_class("similar-index/current"), "other");
    }

    #[test]
    fn every_request_is_one_span_and_batches_stay_batches() {
        let tracer = Arc::new(Tracer::default());
        let oss = Arc::new(Oss::in_memory());
        let store = TracedStore::new(oss.clone(), tracer.clone(), "oss");
        let keys: Vec<String> = (0..5).map(|i| format!("containers/{i:012}/data")).collect();
        for k in &keys {
            store.put(k, Bytes::from(vec![7u8; 100])).unwrap();
        }
        let before = oss.metrics().snapshot();
        let got = store.get_many(&keys);
        assert!(got.iter().all(|r| r.as_ref().unwrap().len() == 100));
        assert!(store.get("containers/none/data").is_err());
        assert_eq!(store.len(&keys[0]).unwrap(), Some(100));
        assert_eq!(store.list("containers/").len(), 5);
        assert!(store.delete_many(&keys).iter().all(|r| r.is_ok()));
        assert_eq!(
            store
                .metrics_snapshot()
                .unwrap()
                .since(&before)
                .get_requests,
            oss.metrics().snapshot().since(&before).get_requests
        );

        let spans = tracer.spans();
        assert_eq!(spans.len(), 5 + 5);
        let batch = &spans[5];
        assert_eq!(
            (batch.name.as_str(), batch.items, batch.bytes),
            ("get_many:container_data", 5, 500)
        );
        assert!(!spans[6].ok);
        assert_eq!(spans[9].name, "delete_many:container_data");
    }
}
