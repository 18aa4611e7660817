//! Experiment harness support for the SLIMSTORE paper reproduction.
//!
//! Every table and figure of §VII has a bench target under `benches/`
//! (`harness = false`, so `cargo bench` runs them all and each prints the
//! rows/series of its paper artifact):
//!
//! | target | paper artifact |
//! |--------|----------------|
//! | `exp_table1` | Table I — dataset characteristics |
//! | `exp_fig2`   | Fig 2 — CPU/network time breakdown of CDC |
//! | `exp_fig5`   | Fig 5 — history-aware skip chunking |
//! | `exp_fig6`   | Fig 6 — history-aware chunk merging |
//! | `exp_fig7`   | Fig 7 — vs SiLO / Sparse Indexing |
//! | `exp_fig8`   | Fig 8 — restore caches, SCC, LAW prefetching |
//! | `exp_table2` | Table II — prefetch thread scaling |
//! | `exp_fig9`   | Fig 9 — space management |
//! | `exp_fig10`  | Fig 10 — vs restic: scaling + space |
//!
//! Experiment scale is controlled by the `SLIM_SCALE` environment variable
//! (default `1.0`); absolute numbers depend on the machine, the *shapes*
//! are the reproduction target (see EXPERIMENTS.md).

#![forbid(unsafe_code)]

use std::time::Duration;

use slim_oss::NetworkModel;
use slim_telemetry::{JsonValue, TelemetrySnapshot};
use slim_types::FileId;
use slim_workload::{Workload, WorkloadConfig};

/// Scale factor from `SLIM_SCALE` (default 1.0).
pub fn scale() -> f64 {
    std::env::var("SLIM_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// The network model used by throughput experiments: OSS-like latency and
/// per-channel bandwidth so that network effects (Fig 2, Fig 8, Table II)
/// are visible, scaled down so runs finish in seconds.
pub fn bench_network() -> NetworkModel {
    NetworkModel::oss_like()
}

/// A faster network for the CPU-bound experiments (Fig 5–7): the paper's
/// ECS nodes had 10+ Gbps links, so chunking/fingerprinting — not the wire —
/// dominate those figures.
pub fn bench_network_fast() -> NetworkModel {
    NetworkModel {
        request_latency: std::time::Duration::from_micros(100),
        channel_bandwidth: 1024 * 1024 * 1024,
        channels: 64,
    }
}

/// MB/s from bytes and a duration.
pub fn mbps(bytes: u64, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs == 0.0 {
        return 0.0;
    }
    bytes as f64 / (1024.0 * 1024.0) / secs
}

/// A single-file multi-version stream derived from the S-DB generator:
/// version `v` of one synthetic database table file with a given dup ratio.
pub struct VersionedFile {
    workload: Workload,
    /// File id used when backing the stream up.
    pub file: FileId,
}

impl VersionedFile {
    /// A stream of `versions` versions, ~`bytes_per_version` each, with the
    /// given between-version duplication ratio.
    pub fn new(name: &str, bytes_per_version: usize, versions: usize, dup_ratio: f64) -> Self {
        Self::with_block_len(name, bytes_per_version, versions, dup_ratio, 8 * 1024)
    }

    /// Same, with an explicit mutation granularity (logical block length).
    /// Chunk-size sweeps use coarse blocks so large chunks still dedup.
    pub fn with_block_len(
        name: &str,
        bytes_per_version: usize,
        versions: usize,
        dup_ratio: f64,
        block_len: usize,
    ) -> Self {
        let cfg = WorkloadConfig {
            name: name.to_string(),
            files: 1,
            versions,
            blocks_per_file: (bytes_per_version / block_len).max(4),
            block_len,
            dup_ratio_min: dup_ratio,
            dup_ratio_max: dup_ratio,
            self_ref_rate: 0.20,
            hot_fraction: 0.35,
            seed: 0x51D,
        };
        let workload = Workload::new(cfg);
        let file = workload.file_id(0);
        VersionedFile { workload, file }
    }

    /// Bytes of version `v`.
    pub fn version(&self, v: usize) -> Vec<u8> {
        self.workload.file_bytes(0, v)
    }

    /// Number of versions available.
    pub fn versions(&self) -> usize {
        self.workload.config().versions
    }
}

/// Markdown-ish table printer for experiment output.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with the given column names.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Rows as JSON objects keyed by column name (emitted alongside the
    /// rendered table when `SLIM_JSON=1`, for machine consumption).
    pub fn to_json(&self) -> String {
        let rows = self.rows.iter().map(|row| {
            let cells = self.header.iter().zip(row);
            JsonValue::Object(
                cells
                    .map(|(k, v)| (k.clone(), JsonValue::Str(v.clone())))
                    .collect(),
            )
        });
        JsonValue::Array(rows.collect()).render()
    }

    /// Render to stdout (plus one JSON line when `SLIM_JSON=1`).
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let mut out = String::from("|");
            for (i, cell) in cells.iter().enumerate() {
                out.push_str(&format!(" {:width$} |", cell, width = widths[i]));
            }
            println!("{out}");
        };
        line(&self.header);
        {
            let mut out = String::from("|");
            for w in &widths {
                out.push_str(&format!("{:-<width$}|", "", width = w + 2));
            }
            println!("{out}");
        }
        for row in &self.rows {
            line(row);
        }
        if json_output() {
            println!("JSON {}", self.to_json());
        }
    }
}

/// Whether machine-readable output is requested (`SLIM_JSON=1`).
pub fn json_output() -> bool {
    std::env::var("SLIM_JSON")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Emit a telemetry snapshot (or delta) as one machine-readable line when
/// `SLIM_JSON=1`: `TELEMETRY <label> <json>`. Harness scripts scrape these
/// lines the same way they scrape the `JSON` table lines.
pub fn print_telemetry(label: &str, snap: &TelemetrySnapshot) {
    if json_output() {
        println!("TELEMETRY {label} {}", snap.to_json());
    }
}

/// Total recorded seconds of the span `<scope>.span.<phase>` in a snapshot
/// (or delta), `0.0` when the span never fired. The figure harnesses build
/// their phase breakdowns from these instead of per-job stats structs.
pub fn span_secs(snap: &TelemetrySnapshot, scope: &str, phase: &str) -> f64 {
    snap.span(scope, phase)
        .map(|h| h.total_duration().as_secs_f64())
        .unwrap_or(0.0)
}

/// Format helpers.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Two-decimal format.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Percent with one decimal.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Mebibytes with one decimal.
pub fn mib(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versioned_file_is_deterministic_and_dedupable() {
        let a = VersionedFile::new("t", 64 * 1024, 3, 0.9);
        let b = VersionedFile::new("t", 64 * 1024, 3, 0.9);
        assert_eq!(a.version(0), b.version(0));
        assert_ne!(a.version(0), a.version(1));
        assert_eq!(a.versions(), 3);
    }

    #[test]
    fn table_renders() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print();
        assert_eq!(t.to_json(), r#"[{"a":"1","bb":"2"}]"#);
    }

    #[test]
    fn span_secs_reads_snapshot_deltas() {
        let registry = slim_telemetry::Registry::new();
        let scope = registry.scope("lnode").child("0");
        scope.record_span("chunking", Duration::from_millis(250));
        let snap = registry.snapshot();
        assert!((span_secs(&snap, "lnode.0", "chunking") - 0.25).abs() < 1e-9);
        assert_eq!(span_secs(&snap, "lnode.0", "absent"), 0.0);
        // Emitting is a no-op without SLIM_JSON=1, and must not panic.
        print_telemetry("test", &snap);
    }

    #[test]
    fn format_helpers() {
        assert_eq!(f1(1.25), "1.2");
        assert_eq!(f2(1.256), "1.26");
        assert_eq!(pct(0.841), "84.1%");
        assert_eq!(mib(1024 * 1024), "1.0");
        assert_eq!(mbps(0, Duration::ZERO), 0.0);
        assert!(mbps(1024 * 1024, Duration::from_secs(1)) > 0.99);
    }
}
