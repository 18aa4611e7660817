//! The metric catalogue: every name the benchmark emits, with its unit.
//!
//! `BENCHMARK.json` at the repository root lists the same names (a test
//! compares the two), plus direction and bound for the end-to-end ones.

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// End-to-end metrics `(name, unit)`: what an operator backing up
/// multi-version data to a cloud object store pays for. Reported by the
/// untraced run, by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("backup_mbps", "MiB/s"),
    ("restore_latest_mbps", "MiB/s"),
    ("restore_oldest_mbps", "MiB/s"),
    ("gnode_cycle_s", "s"),
    ("stored_per_logical", "ratio"),
    ("restore_containers_per_100mb", "count"),
    ("oss_requests_per_gib", "count"),
    ("rss_mib", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported by the traced run, by every
/// workload. A metric that does not exist on a workload (the `frontend.*`
/// ones outside `mixed-rw`, LZSS decompression of incompressible data)
/// reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    // chunking — kernels over a sample of the workload's v1 bytes
    ("chunking.fastcdc.scan_mbps", "MiB/s"),
    ("chunking.fastcdc.is_boundary_ns", "ns"),
    ("chunking.sha1_mbps", "MiB/s"),
    // types — kernels over the sample's real chunks / the store's real objects
    ("types.crc32_mbps", "MiB/s"),
    ("types.lzss.compress_mbps", "MiB/s"),
    ("types.lzss.decompress_mbps", "MiB/s"),
    ("types.lzss.stored_per_raw", "ratio"),
    ("types.container.build_mbps", "MiB/s"),
    ("types.container_meta.decode_us", "us"),
    ("types.recipe.decode_us", "us"),
    // index — kernels
    ("index.dedup_cache.lookup_ns", "ns"),
    ("index.similar.detect_us", "us"),
    ("index.global.get_us", "us"),
    ("index.global.insert_us", "us"),
    ("index.global.miss_ns", "ns"),
    // oss — kernels on an instant in-memory store
    ("oss.bare.put_4m_us", "us"),
    ("oss.bare.get_4m_us", "us"),
    ("oss.bare.get_range_4k_us", "us"),
    ("oss.get_many_64_us", "us"),
    ("oss.retry.overhead_ns", "ns"),
    ("oss.redundant.overhead_ns", "ns"),
    ("oss.hedged.overhead_ns", "ns"),
    ("oss.namespaced.overhead_ns", "ns"),
    // oss — in situ, from the traced stores and the store's own counters
    ("oss.put_requests", "count"),
    ("oss.get_requests", "count"),
    ("oss.delete_requests", "count"),
    ("oss.bytes_put_per_logical", "ratio"),
    ("oss.bytes_get_per_restored", "ratio"),
    ("oss.req_n", "count"),
    ("oss.req_ms_p50", "ms"),
    ("oss.req_ms_p95", "ms"),
    ("oss.backup.busy_share", "ratio"),
    ("oss.restore.busy_share", "ratio"),
    ("oss.gnode.busy_share", "ratio"),
    ("oss.hedged.self_s", "s"),
    ("oss.hedge.issued", "count"),
    ("oss.hedge.won", "count"),
    ("oss.batch.fanout_mean", "count"),
    // lnode
    ("lnode.backup.self_s", "s"),
    ("lnode.restore.self_s", "s"),
    ("lnode.backup.version_s_p50", "s"),
    ("lnode.backup.dedup_ratio", "ratio"),
    ("lnode.backup.skip_hit_ratio", "ratio"),
    ("lnode.backup.super_hit_ratio", "ratio"),
    ("lnode.backup.avg_chunk_bytes", "B"),
    ("lnode.backup.chunking_s", "s"),
    ("lnode.backup.fingerprint_s", "s"),
    ("lnode.backup.index_s", "s"),
    ("lnode.backup.compress_s", "s"),
    ("lnode.backup.network_s", "s"),
    ("lnode.backup.pipeline_stall_s", "s"),
    ("lnode.backup.other_s", "s"),
    ("lnode.restore.cache_hit_ratio", "ratio"),
    ("lnode.restore.prefetch_hit_ratio", "ratio"),
    ("lnode.restore.read_amp", "ratio"),
    ("lnode.restore.relocation_lookups", "count"),
    ("lnode.restore.containers_per_100mb_oldest", "count"),
    // gnode
    ("gnode.cycle_s_p50", "s"),
    ("gnode.cycle_growth", "ratio"),
    ("gnode.self_s", "s"),
    ("gnode.retain_s", "s"),
    ("gnode.stage.reverse_dedup_s", "s"),
    ("gnode.stage.scc_s", "s"),
    ("gnode.stage.mark_s", "s"),
    ("gnode.stage.repair_s", "s"),
    ("gnode.stage.redundancy_s", "s"),
    ("gnode.chunks_scanned", "count"),
    ("gnode.bloom_skip_ratio", "ratio"),
    ("gnode.duplicates_removed", "count"),
    ("gnode.containers_rewritten", "count"),
    ("gnode.bytes_moved_per_logical", "ratio"),
    ("gnode.retain.bytes_reclaimed", "B"),
    // slimstore
    ("slimstore.space.container_per_logical", "ratio"),
    ("slimstore.space.recipe_per_logical", "ratio"),
    ("slimstore.space.global_index_per_logical", "ratio"),
    ("slimstore.space.redundancy_per_logical", "ratio"),
    ("slimstore.space.other_per_logical", "ratio"),
    ("slimstore.telemetry_snapshot_us", "us"),
    ("slimstore.reopen_s", "s"),
    // frontend (mixed-rw)
    ("frontend.restore_file_n", "count"),
    ("frontend.restore_file_ms_p50", "ms"),
    ("frontend.restore_file_ms_p95", "ms"),
    ("frontend.queue_wait_ms_p95", "ms"),
    ("frontend.overhead_us", "us"),
    ("frontend.shed", "count"),
    // telemetry — kernels
    ("telemetry.counter_add_ns", "ns"),
    ("telemetry.span_record_ns", "ns"),
    ("telemetry.snapshot_us", "us"),
    // harness
    ("trace.overhead_ratio", "ratio"),
];

/// Collects values by name and renders them in catalogue order.
#[derive(Default)]
pub struct MetricSet {
    values: std::collections::HashMap<&'static str, f64>,
}

impl MetricSet {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let previous = self.values.insert(name, value);
        debug_assert!(previous.is_none(), "metric {name} set twice");
    }

    /// The catalogue's metrics in order. Panics when a name has no value or a
    /// value has no name: either is a bug in the harness, not in the program.
    pub fn into_catalogue(self, catalogue: &[(&'static str, &'static str)]) -> Vec<Metric> {
        for name in self.values.keys() {
            assert!(
                catalogue.iter().any(|(n, _)| n == name),
                "metric {name} is not in the catalogue"
            );
        }
        catalogue
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: *self
                    .values
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured")),
            })
            .collect()
    }
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// Median of `values` (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `[0, 100]`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Resident set of this process in MiB (`VmRSS`), 0 where `/proc` has none.
pub fn rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert!(rss_mib() > 0.0);
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }
}
