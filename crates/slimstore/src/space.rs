//! Space accounting — the "occupied space" metrics of Fig 9 / Fig 10(c).

use slim_oss::ObjectStore;
use slim_types::{crc, layout, ContainerMeta, Result};

/// Byte-level breakdown of what the deployment stores on OSS.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpaceReport {
    /// Container payload + metadata bytes.
    pub container_bytes: u64,
    /// Raw (uncompressed) bytes the live container payload decompresses
    /// to — the logical size the dedup plane accounts in.
    pub container_logical_bytes: u64,
    /// Stored bytes of live container payload (compressed where the
    /// compression plane found it profitable).
    pub container_stored_payload_bytes: u64,
    /// Recipe + recipe-index bytes.
    pub recipe_bytes: u64,
    /// Global-index (Rocks-OSS) bytes.
    pub global_index_bytes: u64,
    /// Redundancy-plane bytes (replicas, parity blocks, group manifests) —
    /// the protection overhead the redundancy knobs trade against dedup's
    /// space savings.
    pub redundancy_bytes: u64,
    /// Share of `redundancy_bytes` in full replicas of container *data*
    /// objects (the replica tier).
    pub redundancy_replica_bytes: u64,
    /// Share of `redundancy_bytes` in XOR parity blocks and their group
    /// manifests (the parity tier).
    pub redundancy_parity_bytes: u64,
    /// Share of `redundancy_bytes` in replicas of container *metadata*
    /// objects (every live container has one, whatever its tier).
    pub redundancy_meta_replica_bytes: u64,
    /// Quarantined objects retained for repair or forensics; reclaimable
    /// via `slim scrub --purge` once their primaries are whole again.
    pub quarantine_bytes: u64,
    /// Version manifests, similar-index snapshot, everything else.
    pub other_bytes: u64,
}

impl SpaceReport {
    /// Measure the current state of the object store.
    ///
    /// Sizing probes run as one batched `len_many` sweep per prefix; any
    /// probe failure (e.g. a transient fault) is propagated rather than
    /// silently counted as zero bytes, which would corrupt the
    /// space-saving curves without a visible failure.
    pub fn measure(oss: &dyn ObjectStore) -> Result<SpaceReport> {
        let sum = |prefix: &str| -> Result<u64> {
            let keys = oss.list(prefix);
            let mut total = 0u64;
            for result in oss.len_many(&keys) {
                total += result?.unwrap_or(0);
            }
            Ok(total)
        };
        let container_bytes = sum(layout::CONTAINER_PREFIX)?;
        let recipe_bytes = sum(layout::RECIPE_PREFIX)? + sum(layout::RECIPE_INDEX_PREFIX)?;
        let global_index_bytes = sum(layout::GLOBAL_INDEX_PREFIX)?;
        // The redundancy plane in the same single sweep as before, split by
        // what each object protects.
        let redundancy_keys = oss.list(layout::REDUNDANCY_PREFIX);
        let mut redundancy_bytes = 0u64;
        let mut redundancy_replica_bytes = 0u64;
        let mut redundancy_meta_replica_bytes = 0u64;
        for (key, len) in redundancy_keys.iter().zip(oss.len_many(&redundancy_keys)) {
            let len = len?.unwrap_or(0);
            redundancy_bytes += len;
            if key.starts_with(layout::REPLICA_PREFIX) {
                match key.ends_with("/data") {
                    true => redundancy_replica_bytes += len,
                    false => redundancy_meta_replica_bytes += len,
                }
            }
        }
        let redundancy_parity_bytes =
            redundancy_bytes - redundancy_replica_bytes - redundancy_meta_replica_bytes;
        let quarantine_bytes = sum(layout::QUARANTINE_PREFIX)?;
        let total: u64 = sum("")?;

        // Logical-vs-stored payload accounting: decode every container meta
        // and compare what the live chunks occupy with what they decompress
        // to. Decode failures propagate — a meta this sweep cannot read is a
        // scrub problem, not a zero.
        let meta_keys: Vec<String> = oss
            .list(layout::CONTAINER_PREFIX)
            .into_iter()
            .filter(|k| k.ends_with("/meta"))
            .collect();
        let mut container_logical_bytes = 0u64;
        let mut container_stored_payload_bytes = 0u64;
        for result in oss.get_many(&meta_keys) {
            let buf = result?;
            let meta = ContainerMeta::decode(&crc::unseal(&buf, "container meta")?)?;
            container_logical_bytes += meta.live_raw_bytes();
            container_stored_payload_bytes += meta.live_bytes();
        }

        // Saturating, not raw subtraction: the sweeps above are not atomic,
        // so a concurrent writer can legitimately make the prefix sums
        // exceed the later whole-store sum. Debug builds still flag it —
        // on a quiescent store the identity must hold exactly.
        let accounted = container_bytes
            + recipe_bytes
            + global_index_bytes
            + redundancy_bytes
            + quarantine_bytes;
        debug_assert!(
            total >= accounted,
            "space sweep accounted {accounted} bytes under prefixes but only {total} in total"
        );
        Ok(SpaceReport {
            container_bytes,
            container_logical_bytes,
            container_stored_payload_bytes,
            recipe_bytes,
            global_index_bytes,
            redundancy_bytes,
            redundancy_replica_bytes,
            redundancy_parity_bytes,
            redundancy_meta_replica_bytes,
            quarantine_bytes,
            other_bytes: total.saturating_sub(accounted),
        })
    }

    /// Total bytes stored.
    pub fn total(&self) -> u64 {
        self.container_bytes
            + self.recipe_bytes
            + self.global_index_bytes
            + self.redundancy_bytes
            + self.quarantine_bytes
            + self.other_bytes
    }

    /// Stored-to-logical ratio of live container payload: 1.0 means no
    /// compression benefit, smaller is better. 1.0 on an empty store.
    pub fn compression_ratio(&self) -> f64 {
        if self.container_logical_bytes == 0 {
            return 1.0;
        }
        self.container_stored_payload_bytes as f64 / self.container_logical_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use slim_oss::Oss;

    #[test]
    fn measure_partitions_by_prefix() {
        let oss = Oss::in_memory();
        oss.put("containers/000000000001/data", Bytes::from(vec![0; 100]))
            .unwrap();
        oss.put("recipes/f/00000000", Bytes::from(vec![0; 30]))
            .unwrap();
        oss.put("recipe-index/f/00000000", Bytes::from(vec![0; 10]))
            .unwrap();
        oss.put("global-index/MANIFEST", Bytes::from(vec![0; 20]))
            .unwrap();
        oss.put("versions/00000000", Bytes::from(vec![0; 5]))
            .unwrap();
        oss.put(
            "redundancy/replica/containers/000000000001/data",
            Bytes::from(vec![0; 100]),
        )
        .unwrap();
        oss.put(
            "redundancy/replica/containers/000000000001/meta",
            Bytes::from(vec![0; 7]),
        )
        .unwrap();
        oss.put("redundancy/groups/000000000000", Bytes::from(vec![0; 15]))
            .unwrap();
        oss.put("redundancy/parity/000000000000", Bytes::from(vec![0; 60]))
            .unwrap();
        oss.put(
            "quarantine/containers/000000000002/data",
            Bytes::from(vec![0; 50]),
        )
        .unwrap();
        let report = SpaceReport::measure(&oss).unwrap();
        assert_eq!(report.container_bytes, 100);
        assert_eq!(report.recipe_bytes, 40);
        assert_eq!(report.global_index_bytes, 20);
        assert_eq!(report.redundancy_bytes, 182);
        assert_eq!(report.redundancy_replica_bytes, 100);
        assert_eq!(report.redundancy_meta_replica_bytes, 7);
        assert_eq!(report.redundancy_parity_bytes, 75);
        assert_eq!(report.quarantine_bytes, 50);
        assert_eq!(report.other_bytes, 5);
        assert_eq!(report.total(), 397);
        assert_eq!(report.container_logical_bytes, 0, "no meta objects");
        assert_eq!(report.compression_ratio(), 1.0);
    }

    #[test]
    fn measure_accounts_logical_vs_stored_payload() {
        use slim_types::{ContainerBuilder, ContainerId, Fingerprint};
        let oss = Oss::in_memory();
        let payload: Vec<u8> = b"slimstore ".iter().copied().cycle().take(8192).collect();
        let mut b = ContainerBuilder::new(ContainerId(1), 1 << 20).with_compression(true);
        b.push(Fingerprint::from_slice(&[1u8; 20]).unwrap(), &payload);
        let (data, meta) = b.seal();
        oss.put(
            &layout::container_data(ContainerId(1)),
            slim_types::crc::seal(&data),
        )
        .unwrap();
        oss.put(
            &layout::container_meta(ContainerId(1)),
            slim_types::crc::seal(&meta.encode()),
        )
        .unwrap();
        let report = SpaceReport::measure(&oss).unwrap();
        assert_eq!(report.container_logical_bytes, 8192);
        assert_eq!(report.container_stored_payload_bytes, data.len() as u64);
        assert!(report.container_stored_payload_bytes < report.container_logical_bytes);
        assert!(report.compression_ratio() < 1.0);
    }
}
