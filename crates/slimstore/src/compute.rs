//! The computing layer: a pool of stateless L-nodes plus a job scheduler.
//!
//! L-nodes hold no job state (§III-B), so scheduling is trivial: a work
//! queue of file jobs drained by `jobs` worker threads, each worker bound
//! round-robin to an L-node. Elastic scaling is just changing the node
//! count — no data movement, no warm-up.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam::queue::SegQueue;
use slim_index::{GlobalIndex, SimilarFileIndex};
use slim_lnode::node::ChunkerKind;
use slim_lnode::restore::RestoreOptions;
use slim_lnode::{BackupOutcome, LNode, RestoreStats, StorageLayer};
use slim_telemetry::{Registry, Scope};
use slim_types::{FileId, Result, SlimConfig, VersionId};

/// The pool of online processing nodes.
pub struct ComputeLayer {
    nodes: Vec<Arc<LNode>>,
    storage: StorageLayer,
    similar: SimilarFileIndex,
    config: SlimConfig,
    chunker: ChunkerKind,
    /// Parent telemetry scope; node `i` gets the child scope `<scope>.<i>`
    /// (canonically `lnode.<i>`).
    telemetry: Scope,
}

impl ComputeLayer {
    /// A compute layer with `nodes` L-nodes recording into a private
    /// registry.
    pub fn new(
        storage: StorageLayer,
        similar: SimilarFileIndex,
        config: SlimConfig,
        chunker: ChunkerKind,
        nodes: usize,
    ) -> Result<Self> {
        let telemetry = Registry::new().scope("lnode");
        Self::with_telemetry(storage, similar, config, chunker, nodes, telemetry)
    }

    /// A compute layer whose L-nodes fold job stats into per-node child
    /// scopes of `telemetry`.
    pub fn with_telemetry(
        storage: StorageLayer,
        similar: SimilarFileIndex,
        config: SlimConfig,
        chunker: ChunkerKind,
        nodes: usize,
        telemetry: Scope,
    ) -> Result<Self> {
        let mut layer = ComputeLayer {
            nodes: Vec::new(),
            storage,
            similar,
            config,
            chunker,
            telemetry,
        };
        layer.scale_to(nodes.max(1))?;
        Ok(layer)
    }

    /// Number of deployed L-nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Elastically scale the pool to `n` nodes (deploying or retiring
    /// stateless nodes is instantaneous).
    pub fn scale_to(&mut self, n: usize) -> Result<()> {
        let n = n.max(1);
        while self.nodes.len() < n {
            let node = LNode::with_chunker(
                self.storage.clone(),
                self.similar.clone(),
                self.config.clone(),
                self.chunker,
            )?
            .with_telemetry(self.telemetry.child(&self.nodes.len().to_string()));
            self.nodes.push(Arc::new(node));
        }
        self.nodes.truncate(n);
        Ok(())
    }

    /// The node serving job number `job` (round-robin).
    pub fn node_for(&self, job: usize) -> &Arc<LNode> {
        &self.nodes[job % self.nodes.len()]
    }
}

/// Schedules a batch of jobs over the node pool with bounded parallelism.
pub struct JobScheduler {
    /// Parallel worker threads (concurrent jobs).
    pub jobs: usize,
}

impl JobScheduler {
    /// A scheduler running `jobs` jobs concurrently.
    pub fn new(jobs: usize) -> Self {
        JobScheduler { jobs: jobs.max(1) }
    }

    /// Back up `files` as `version`, spreading jobs across the pool.
    /// Returns per-file outcomes in input order.
    pub fn backup(
        &self,
        compute: &ComputeLayer,
        version: VersionId,
        files: Vec<(FileId, Vec<u8>)>,
    ) -> Result<Vec<BackupOutcome>> {
        let total = files.len();
        let queue: SegQueue<(usize, FileId, Vec<u8>)> = SegQueue::new();
        for (i, (file, data)) in files.into_iter().enumerate() {
            queue.push((i, file, data));
        }
        let results: Vec<parking_lot::Mutex<Option<Result<BackupOutcome>>>> =
            (0..total).map(|_| parking_lot::Mutex::new(None)).collect();
        let worker_id = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..self.jobs.min(total) {
                s.spawn(|| {
                    let wid = worker_id.fetch_add(1, Ordering::SeqCst);
                    let node = compute.node_for(wid);
                    while let Some((i, file, data)) = queue.pop() {
                        let outcome = node.backup_file(&file, version, &data);
                        *results[i].lock() = Some(outcome);
                    }
                });
            }
        });
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("every queued job writes its result")
            })
            .collect()
    }

    /// Restore `files` at `version` in parallel; results in input order.
    pub fn restore(
        &self,
        compute: &ComputeLayer,
        version: VersionId,
        files: Vec<FileId>,
        global: Option<&GlobalIndex>,
        options: &RestoreOptions,
    ) -> Result<Vec<(FileId, Vec<u8>, RestoreStats)>> {
        let total = files.len();
        let queue: SegQueue<(usize, FileId)> = SegQueue::new();
        for (i, file) in files.into_iter().enumerate() {
            queue.push((i, file));
        }
        type Slot = parking_lot::Mutex<Option<Result<(FileId, Vec<u8>, RestoreStats)>>>;
        let results: Vec<Slot> = (0..total).map(|_| parking_lot::Mutex::new(None)).collect();
        let worker_id = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..self.jobs.min(total) {
                s.spawn(|| {
                    let wid = worker_id.fetch_add(1, Ordering::SeqCst);
                    let node = compute.node_for(wid);
                    while let Some((i, file)) = queue.pop() {
                        let outcome = node
                            .restore_file_with(&file, version, global, options)
                            .map(|(bytes, stats)| (file, bytes, stats));
                        *results[i].lock() = Some(outcome);
                    }
                });
            }
        });
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("every queued job writes its result")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_oss::Oss;
    use slim_types::rng::bytes as data;

    fn layer(nodes: usize) -> ComputeLayer {
        ComputeLayer::new(
            StorageLayer::open(Arc::new(Oss::in_memory())),
            SimilarFileIndex::new(),
            SlimConfig::small_for_tests(),
            ChunkerKind::FastCdc,
            nodes,
        )
        .unwrap()
    }

    #[test]
    fn parallel_backup_and_restore_roundtrip() {
        let compute = layer(3);
        let files: Vec<(FileId, Vec<u8>)> = (0..9u64)
            .map(|i| (FileId::new(format!("f{i}")), data(i, 20_000)))
            .collect();
        let sched = JobScheduler::new(4);
        let outcomes = sched.backup(&compute, VersionId(0), files.clone()).unwrap();
        assert_eq!(outcomes.len(), 9);
        let restored = sched
            .restore(
                &compute,
                VersionId(0),
                files.iter().map(|(f, _)| f.clone()).collect(),
                None,
                &RestoreOptions::from_config(&SlimConfig::small_for_tests()),
            )
            .unwrap();
        for ((file, expected), (rfile, bytes, _)) in files.iter().zip(&restored) {
            assert_eq!(file, rfile, "order preserved");
            assert_eq!(expected, bytes);
        }
    }

    #[test]
    fn scaling_changes_node_count() {
        let mut compute = layer(1);
        assert_eq!(compute.node_count(), 1);
        compute.scale_to(5).unwrap();
        assert_eq!(compute.node_count(), 5);
        compute.scale_to(2).unwrap();
        assert_eq!(compute.node_count(), 2);
        compute.scale_to(0).unwrap();
        assert_eq!(compute.node_count(), 1, "at least one node always");
    }

    #[test]
    fn backup_errors_are_per_job() {
        let compute = layer(2);
        let sched = JobScheduler::new(2);
        // Empty batches complete without spawning any worker thread (the
        // worker count is `jobs.min(total)`, not `jobs.min(total.max(1))`).
        let outcomes = sched.backup(&compute, VersionId(0), vec![]).unwrap();
        assert!(outcomes.is_empty());
        let restored = sched
            .restore(
                &compute,
                VersionId(0),
                vec![],
                None,
                &RestoreOptions::from_config(&SlimConfig::small_for_tests()),
            )
            .unwrap();
        assert!(restored.is_empty());
    }
}
