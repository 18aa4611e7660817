//! The four workloads: what data, over which network, through which door.
//!
//! They share one shape (see [`crate::harness`]) and differ in the input
//! properties the system's behaviour depends on: how much adjacent versions
//! share, whether bytes compress, whether the network or the CPU is the
//! scarce resource, file count, and whether reads run beside writes.

use std::time::Duration;

use slim_oss::NetworkModel;

use crate::gen::{ContentKind, DatasetSpec};

/// Network model of a workload's object store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    /// No latency, no bandwidth limit: CPU does all the work.
    Instant,
    /// 2 ms per request, 100 MiB/s per channel, 16 channels (modelled sleeps).
    Wan16,
    /// `NetworkModel::oss_like()`: 0.4 ms, 400 MiB/s per channel, 64 channels.
    OssLike,
}

impl Net {
    pub fn model(self) -> NetworkModel {
        match self {
            Net::Instant => NetworkModel::instant(),
            Net::Wan16 => NetworkModel {
                request_latency: Duration::from_millis(2),
                channel_bandwidth: 100 * 1024 * 1024,
                channels: 16,
            },
            Net::OssLike => NetworkModel::oss_like(),
        }
    }
}

/// How requests reach the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// Direct `SlimStore` calls, one at a time.
    Direct { jobs: usize },
    /// Through `slim_frontend::Frontend`, with a second thread restoring
    /// single files of the latest committed version while backups run.
    Frontend { l_nodes: usize, jobs: usize },
}

/// One workload of the benchmark.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    pub dataset: DatasetSpec,
    pub versions: usize,
    /// Recorded quiet restore passes `(latest, oldest)` of a run of
    /// [`RUN_SECONDS`]: what fills that run length on the machine this was
    /// written on. Other run lengths scale them.
    pub restore_passes: (usize, usize),
    pub net: Net,
    pub driver: Driver,
}

/// `run_seconds` of `BENCHMARK.json`: the default of `--seconds`.
pub const RUN_SECONDS: f64 = 18.0;

/// Logical blocks are 8 KiB on average, as in `slim-workload`.
const BLOCK_LEN: usize = 8 * 1024;
const MIB_BLOCKS: usize = 1024 * 1024 / BLOCK_LEN;

/// The benchmark's workloads. Sizes are bytes per version × versions; the
/// version counts are what fits the driver's per-run budget (the issue's
/// prototype used 10 / 8 / 6 / 8 versions of the same per-version sizes).
pub fn all() -> Vec<WorkloadSpec> {
    // S-DB shape: per-file duplication 0.75–0.95, mean 0.90, as a fixed
    // schedule so every seed writes the same amount of unique data.
    let sdb = |files: &[f64]| DatasetSpec {
        name: "sdb",
        file_dup: files.to_vec(),
        blocks_per_file: 32 * MIB_BLOCKS,
        block_len: BLOCK_LEN,
        self_ref_rate: 0.20,
        hot_fraction: 0.35,
        kind: ContentKind::Random,
    };
    vec![
        WorkloadSpec {
            name: "db-incr-cpu",
            why: "4x32 MiB random-byte DB files, 6 versions, dup 0.75-0.95, free network: CDC, SHA-1, index, container build, restore assembly, G-node CPU do the work; version exceeds the 64 MiB restore cache",
            dataset: sdb(&[0.75, 0.95, 0.95, 0.95]),
            versions: 6,
            restore_passes: (5, 4),
            net: Net::Instant,
            driver: Driver::Direct { jobs: 1 },
        },
        WorkloadSpec {
            name: "db-incr-wan",
            why: "same generator, 2x32 MiB, 3 versions, modelled 2 ms / 16x100 MiB/s network: batching, prefetch, upload overlap, request count, G-node I/O decide; a pure CPU win must show nothing here",
            dataset: sdb(&[0.85, 0.95]),
            versions: 3,
            restore_passes: (6, 4),
            net: Net::Wan16,
            driver: Driver::Direct { jobs: 1 },
        },
        WorkloadSpec {
            name: "ingest-unique-text",
            why: "4x32 MiB compressible row text, 3 versions, every version fresh (dup 0), free network: the all-unique write path - LZSS, CRC seal, container build, parity; restore decompresses",
            dataset: DatasetSpec {
                name: "rows",
                file_dup: vec![0.0; 4],
                blocks_per_file: 32 * MIB_BLOCKS,
                block_len: BLOCK_LEN,
                self_ref_rate: 0.0,
                hot_fraction: 1.0,
                kind: ContentKind::RowText,
            },
            versions: 3,
            restore_passes: (15, 14),
            net: Net::Instant,
            driver: Driver::Direct { jobs: 1 },
        },
        WorkloadSpec {
            name: "mixed-rw",
            why: "64x1 MiB files, 4 versions, dup 0.92, via the frontend, 2 L-nodes, OSS-like network, closed-loop reader restoring files beside backups: per-request overhead, locks, scheduling; fits the cache",
            dataset: DatasetSpec {
                name: "rdata",
                file_dup: vec![0.92; 64],
                blocks_per_file: MIB_BLOCKS,
                block_len: BLOCK_LEN,
                self_ref_rate: 0.001,
                hot_fraction: 0.35,
                kind: ContentKind::Random,
            },
            versions: 4,
            restore_passes: (6, 4),
            net: Net::OssLike,
            driver: Driver::Frontend { l_nodes: 2, jobs: 2 },
        },
    ]
}

/// The workload called `name`.
pub fn find(name: &str) -> Option<WorkloadSpec> {
    all().into_iter().find(|w| w.name == name)
}
