//! The pipelined parallel backup plane.
//!
//! Splits the sequential hot loop of [`crate::backup::BackupPipeline`] into
//! bounded-queue stages so CPU-side chunking/fingerprinting overlaps both
//! itself and the OSS uploads:
//!
//! ```text
//!  (1) feeder ──(seq,[cut; ≤32])──▶ (2) fp workers ──(seq,[ChunkRef])──▶ (3)
//!      rolling-hash CDC scan            SHA-1 pool         in-order dedup
//!                                                          (caller thread)
//!                                                              │ full, unsealed
//!                                                              ▼ containers
//!                                      (4) sealer: compress ─▶ CRC ─▶ PUT ──▶ OSS
//! ```
//!
//! Stage (3) is the *unchanged* dedup loop: cache lookups, similar-index
//! sampling, skip-chunking and self-reference semantics all run on one
//! thread, in stream order, exactly as the sequential path does. The feed
//! only precomputes what that loop would have computed anyway — the plain
//! CDC cut sequence and its fingerprints — which is sound because every
//! history-aware jump is accepted only on a fingerprint match, i.e. content
//! equality, so a jump always lands back on the plain-CDC boundary sequence
//! (the invariant `chunk_stream_identical_with_and_without_skip` pins down).
//! Output is therefore byte-identical to the sequential path; only
//! wall-clock and `pipeline_*` telemetry differ.
//!
//! Stage (3) only copies a unique chunk's raw bytes into the open container;
//! everything a container costs after that — per-chunk compression, the CRC
//! seal, the PUT — is [`commit_container`], which stage (4) runs off the
//! dedup thread (and the sequential engine runs inline). A container's
//! chunks compress independently, so stage (4) spreads them over as many
//! scoped threads as the job has fingerprint workers.
//!
//! **Ordering/commit invariants.** Container ids are allocated by stage (3)
//! in stream order and full containers enter the upload queue in that same
//! order; the single uploader seals and PUTs them one after another, so
//! containers commit in container-id order. [`UploadSink::finish`] joins
//! the uploader *before* the recipe/index PUTs, preserving the crash-commit
//! protocol (containers → recipe → recipe index → version manifest).
//!
//! **Memory bounds.** The feed queues carry batches of up to [`BATCH`] cuts
//! (~40 bytes each) — one channel wake-up and one pair of clock reads per
//! batch, not per chunk — bounded at [`FEED_QUEUE`] cuts each; the
//! out-of-order buffer holds at most the in-flight window. The upload queue
//! holds at most [`UPLOAD_QUEUE`] full containers (double buffering), so a
//! pipelined job uses at most ~`(UPLOAD_QUEUE + 1) * container_capacity`
//! bytes more than a sequential one. A stalled tenant therefore still fits
//! the admission byte-budget reasoning of the frontend (see
//! `FrontendConfig::coupled_to_pipeline`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use slim_chunking::{boundaries, fingerprint, ChunkRef, Chunker};
use slim_types::{CompressionStats, ContainerBuilder, Result, SlimError};

use crate::stats::BackupStats;
use crate::storage::StorageLayer;

/// Bounded depth of the feeder→worker and worker→consumer queues, in chunk
/// descriptors. Deep enough to ride out scheduling jitter, small enough that
/// the feeder can never run unboundedly ahead of the dedup stage.
const FEED_QUEUE: usize = 512;

/// Cuts per feed message. At the default 4–5 KiB chunks a batch is ~150 KiB
/// of input: long enough that the channel hand-off and the phase clocks
/// vanish beside the hashing, short enough that every worker has a batch
/// while the consumer drains one.
const BATCH: usize = 32;

/// Full containers allowed to queue behind the uploader (double buffering):
/// the dedup stage fills container N+2 while N seals and uploads and N+1
/// waits.
const UPLOAD_QUEUE: usize = 2;

/// Everything a full container costs after the dedup loop let go of it:
/// per-chunk compression on up to `fanout` threads, the CRC seal, the PUTs.
/// Returns the compression accounting and the time spent in OSS calls. The
/// one commit path of both engines — stage (4) here, inline in the
/// sequential one.
pub(crate) fn commit_container(
    storage: &StorageLayer,
    builder: ContainerBuilder,
    fanout: usize,
) -> Result<(CompressionStats, Duration)> {
    let (data, meta, compression) = builder.seal_with(fanout);
    let t = Instant::now();
    storage.put_container(data, &meta)?;
    Ok((compression, t.elapsed()))
}

/// Counters and phase-time accumulators shared across pipeline threads,
/// folded into the job's [`BackupStats`] once the stages have joined.
#[derive(Default)]
pub(crate) struct PipelineShared {
    chunk_nanos: AtomicU64,
    fp_nanos: AtomicU64,
    upload_nanos: AtomicU64,
    stall_nanos: AtomicU64,
    fed: AtomicU64,
    fallbacks: AtomicU64,
    uploads: AtomicU64,
    /// Accounting of the containers stage (4) sealed.
    compression: Mutex<CompressionStats>,
}

impl PipelineShared {
    fn add(cell: &AtomicU64, d: Duration) {
        cell.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Fold the accumulated thread work into the job's stats. The worker
    /// phase times land in the same `chunking`/`fingerprinting`/`container
    /// I/O` buckets the sequential path uses — they measure the same work,
    /// just done elsewhere — while the `pipeline_*` fields are new.
    pub(crate) fn fold_into(&self, stats: &mut BackupStats) {
        let ns = |cell: &AtomicU64| Duration::from_nanos(cell.load(Ordering::Relaxed));
        let compression = *self.compression.lock();
        stats.chunking_time += ns(&self.chunk_nanos);
        stats.fingerprint_time += ns(&self.fp_nanos);
        stats.network_time += ns(&self.upload_nanos);
        stats.add_compression(&compression);
        // None of the above ran on the dedup thread.
        stats.worker_time +=
            ns(&self.chunk_nanos) + ns(&self.fp_nanos) + ns(&self.upload_nanos) + compression.time;
        stats.pipeline_stall_time += ns(&self.stall_nanos);
        stats.pipeline_chunks_fed += self.fed.load(Ordering::Relaxed);
        stats.pipeline_fallbacks += self.fallbacks.load(Ordering::Relaxed);
        stats.pipeline_async_uploads += self.uploads.load(Ordering::Relaxed);
    }
}

/// Consumer end of stages (1)+(2): the plain-CDC chunk stream of the input,
/// in order, with fingerprints computed by the worker pool. The dedup stage
/// pulls from it at its cursor; chunks the cursor jumped over (skip hits,
/// superchunk matches) are discarded on the fly.
pub(crate) struct ChunkFeed {
    rx: Receiver<(u64, Vec<ChunkRef>)>,
    /// Out-of-order batches parked until their predecessors show up.
    pending: BTreeMap<u64, Vec<ChunkRef>>,
    next_seq: u64,
    /// The in-order batch being drained.
    current: std::vec::IntoIter<ChunkRef>,
    head: Option<ChunkRef>,
    exhausted: bool,
    shared: Arc<PipelineShared>,
}

/// Stage (2)'s whole job: fingerprint one batch of cuts, timed once.
fn hash_batch(data: &[u8], cuts: &[(usize, usize)], shared: &PipelineShared) -> Vec<ChunkRef> {
    let t = Instant::now();
    let chunks = cuts
        .iter()
        .map(|&(start, end)| ChunkRef {
            start,
            end,
            fp: fingerprint(&data[start..end]),
        })
        .collect();
    PipelineShared::add(&shared.fp_nanos, t.elapsed());
    chunks
}

impl ChunkFeed {
    /// Spawn the feeder (and `fp_workers` fingerprint workers when > 0)
    /// inside `scope` and return the consumer handle. With zero workers the
    /// feeder fingerprints its own batches — still one stage ahead of the
    /// consumer.
    pub(crate) fn spawn<'scope, 'env>(
        scope: &'scope Scope<'scope, 'env>,
        chunker: &'env dyn Chunker,
        data: &'env [u8],
        fp_workers: usize,
        shared: Arc<PipelineShared>,
    ) -> ChunkFeed {
        let (done_tx, done_rx) = bounded::<(u64, Vec<ChunkRef>)>(FEED_QUEUE / BATCH);
        let (work_tx, work_rx) = bounded::<(u64, Vec<(usize, usize)>)>(FEED_QUEUE / BATCH);
        for _ in 0..fp_workers {
            let work_rx = work_rx.clone();
            let done_tx = done_tx.clone();
            let shared = shared.clone();
            scope.spawn(move || {
                while let Ok((seq, cuts)) = work_rx.recv() {
                    if done_tx
                        .send((seq, hash_batch(data, &cuts, &shared)))
                        .is_err()
                    {
                        return; // consumer is gone
                    }
                }
            });
        }
        let shared_f = shared.clone();
        scope.spawn(move || {
            let mut iter = boundaries(chunker, data);
            for seq in 0u64.. {
                let t = Instant::now();
                let cuts: Vec<(usize, usize)> = iter.by_ref().take(BATCH).collect();
                PipelineShared::add(&shared_f.chunk_nanos, t.elapsed());
                if cuts.is_empty() {
                    return;
                }
                let sent = if fp_workers == 0 {
                    let batch = hash_batch(data, &cuts, &shared_f);
                    done_tx.send((seq, batch)).is_ok()
                } else {
                    work_tx.send((seq, cuts)).is_ok()
                };
                if !sent {
                    return; // downstream is gone
                }
            }
        });
        ChunkFeed {
            rx: done_rx,
            pending: BTreeMap::new(),
            next_seq: 0,
            current: Vec::new().into_iter(),
            head: None,
            exhausted: false,
            shared,
        }
    }

    /// Block until the next in-order chunk is buffered in `head` (or the
    /// feed is exhausted).
    fn fill_head(&mut self) {
        while self.head.is_none() {
            if let Some(c) = self.current.next() {
                self.head = Some(c);
            } else if let Some(batch) = self.pending.remove(&self.next_seq) {
                self.current = batch.into_iter();
                self.next_seq += 1;
            } else if self.exhausted {
                return;
            } else {
                let t = Instant::now();
                let msg = self.rx.recv();
                PipelineShared::add(&self.shared.stall_nanos, t.elapsed());
                match msg {
                    Ok((seq, batch)) => {
                        self.pending.insert(seq, batch);
                    }
                    Err(_) => self.exhausted = true,
                }
            }
        }
    }

    /// The plain-CDC chunk starting exactly at `pos`, without consuming it.
    /// Chunks entirely behind `pos` (jumped over by a skip or superchunk
    /// match) are discarded. Returns `None` if the feed is exhausted or — a
    /// defensive case that content-local CDC makes unreachable — misaligned
    /// past `pos`; the caller then computes inline.
    pub(crate) fn peek_at(&mut self, pos: usize) -> Option<ChunkRef> {
        loop {
            self.fill_head();
            let c = self.head?;
            if c.start < pos {
                self.head = None; // jumped over: discard and refill
                continue;
            }
            if c.start == pos {
                return Some(c);
            }
            debug_assert!(false, "feed misaligned: chunk at {} cursor {pos}", c.start);
            return None;
        }
    }

    /// Consume the buffered head chunk (after a successful `peek_at`).
    pub(crate) fn consume_head(&mut self) {
        debug_assert!(self.head.is_some(), "consume without peek");
        self.head = None;
        self.shared.fed.fetch_add(1, Ordering::Relaxed);
    }

    /// The chunk at `pos`, consumed, or `None` (see [`ChunkFeed::peek_at`]).
    pub(crate) fn take_at(&mut self, pos: usize) -> Option<ChunkRef> {
        let c = self.peek_at(pos)?;
        self.consume_head();
        Some(c)
    }

    /// Record an inline fallback (feed exhausted or misaligned).
    pub(crate) fn note_fallback(&self) {
        self.shared.fallbacks.fetch_add(1, Ordering::Relaxed);
    }
}

/// Stage (4): full containers travel a bounded queue to one uploader
/// thread, which seals and PUTs them strictly in arrival (= container-id)
/// order.
pub(crate) struct UploadSink {
    tx: Option<Sender<ContainerBuilder>>,
    state: Arc<SinkState>,
}

struct SinkState {
    failed: AtomicBool,
    error: Mutex<Option<SlimError>>,
}

impl UploadSink {
    /// Spawn the uploader inside `scope` over its own handle to the storage
    /// layer; each container's compression fans out over `seal_fanout`
    /// threads. Returns the sink plus the uploader's join handle (consumed
    /// by [`UploadSink::finish`]).
    pub(crate) fn spawn<'scope>(
        scope: &'scope Scope<'scope, '_>,
        storage: StorageLayer,
        seal_fanout: usize,
        shared: Arc<PipelineShared>,
    ) -> (UploadSink, ScopedJoinHandle<'scope, ()>) {
        let (tx, rx) = bounded::<ContainerBuilder>(UPLOAD_QUEUE);
        let state = Arc::new(SinkState {
            failed: AtomicBool::new(false),
            error: Mutex::new(None),
        });
        let state_w = state.clone();
        // Scoped threads still don't inherit thread-locals: carry the
        // ambient request deadline into the uploader so its PUTs observe
        // the caller's remaining budget.
        let deadline = slim_types::Deadline::current();
        let handle = scope.spawn(move || {
            let _deadline = deadline.install();
            while let Ok(builder) = rx.recv() {
                if state_w.failed.load(Ordering::Acquire) {
                    // A container already failed to commit: later containers
                    // must not commit either (the job is doomed and every
                    // skipped PUT is one orphan fewer to scrub).
                    continue;
                }
                match commit_container(&storage, builder, seal_fanout) {
                    Ok((compression, put_time)) => {
                        shared.compression.lock().merge(&compression);
                        PipelineShared::add(&shared.upload_nanos, put_time);
                        shared.uploads.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => {
                        *state_w.error.lock() = Some(e);
                        state_w.failed.store(true, Ordering::Release);
                    }
                }
            }
        });
        (
            UploadSink {
                tx: Some(tx),
                state,
            },
            handle,
        )
    }

    /// Queue a full container for sealing and upload. Surfaces the
    /// uploader's first error (once), aborting the job before it can fill
    /// more containers.
    pub(crate) fn push(&self, builder: ContainerBuilder) -> Result<()> {
        if self.state.failed.load(Ordering::Acquire) {
            if let Some(e) = self.state.error.lock().take() {
                return Err(e);
            }
            // The error was already delivered; refuse further pushes.
            return Err(SlimError::Transient(
                "container uploader already failed".into(),
            ));
        }
        let tx = self.tx.as_ref().expect("push after finish");
        if tx.send(builder).is_err() {
            if let Some(e) = self.state.error.lock().take() {
                return Err(e);
            }
            return Err(SlimError::Transient("container uploader stopped".into()));
        }
        Ok(())
    }

    /// Close the queue, join the uploader, and surface any upload error not
    /// yet delivered through [`UploadSink::push`]. Must run before the
    /// recipe/index PUTs: a version must never commit over unwritten
    /// containers.
    pub(crate) fn finish(mut self, handle: ScopedJoinHandle<'_, ()>) -> Result<()> {
        drop(self.tx.take());
        let _ = handle.join();
        match self.state.error.lock().take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_chunking::{chunk_all, ChunkSpec, FastCdcChunker};
    use slim_oss::{FaultPlan, Oss};
    use slim_types::Fingerprint;

    fn chunker() -> FastCdcChunker {
        FastCdcChunker::new(ChunkSpec::new(64, 256, 1024))
    }

    /// The whole stream a feed over `data` yields, pulled the way stage (3)
    /// pulls it, and how many chunks it counted as fed.
    fn drain(c: &FastCdcChunker, data: &[u8], workers: usize) -> (Vec<ChunkRef>, u64) {
        let shared = Arc::new(PipelineShared::default());
        let got = std::thread::scope(|s| {
            let mut feed = ChunkFeed::spawn(s, c, data, workers, shared.clone());
            let mut got = Vec::new();
            let mut pos = 0usize;
            while let Some(ch) = feed.take_at(pos) {
                pos = ch.end;
                got.push(ch);
            }
            got
        });
        (got, shared.fed.load(Ordering::Relaxed))
    }

    #[test]
    fn feed_reproduces_the_plain_cdc_stream() {
        let c = chunker();
        let data = slim_types::rng::bytes(1, 100_000);
        let all = chunk_all(&c, &data);
        assert!(all.len() > 4 * BATCH, "need several batches");
        // Inputs that cut into no chunk, one, a batch less one, exactly one
        // batch, a batch and one, and many batches: a chunk's cut depends
        // only on the bytes since its start, so the input truncated at the
        // n-th cut has exactly the first n chunks.
        for chunks in [0, 1, BATCH - 1, BATCH, BATCH + 1, all.len()] {
            let expected = &all[..chunks];
            let input = &data[..expected.last().map_or(0, |ch| ch.end)];
            for workers in [0usize, 1, 3] {
                let (got, fed) = drain(&c, input, workers);
                assert_eq!(got, expected, "{chunks} chunks, {workers} workers");
                assert_eq!(fed, chunks as u64, "{chunks} chunks, {workers} workers");
            }
        }
    }

    #[test]
    fn feed_discards_jumped_over_chunks() {
        let c = chunker();
        let data = slim_types::rng::bytes(2, 60_000);
        let expected = chunk_all(&c, &data);
        assert!(expected.len() > 3 * BATCH, "need batches to jump over");
        std::thread::scope(|s| {
            let shared = Arc::new(PipelineShared::default());
            let mut feed = ChunkFeed::spawn(s, &c, &data, 2, shared);
            // Consume two chunks, then jump the cursor over the next three —
            // the way a superchunk hit moves it — and resume inside the same
            // batch.
            let a = feed.take_at(0).unwrap();
            let b = feed.take_at(a.end).unwrap();
            assert!(expected[5].start > b.end);
            assert_eq!(feed.take_at(expected[5].start).unwrap(), expected[5]);
            // A longer jump: over the rest of this batch, all of the next,
            // and into the one after.
            let far = 2 * BATCH + 3;
            assert_eq!(feed.take_at(expected[far].start).unwrap(), expected[far]);
            // One that lands exactly on a batch's first chunk.
            let edge = 3 * BATCH;
            assert_eq!(feed.peek_at(expected[edge].start).unwrap(), expected[edge]);
        });
    }

    #[test]
    fn dropping_the_consumer_mid_stream_stops_every_stage() {
        let c = chunker();
        // Far more chunks than both queues hold, so when the consumer goes
        // the feeder and the workers are parked on full queues (or about to
        // be) — the state they must get out of.
        let data = slim_types::rng::bytes(4, 1_000_000);
        for workers in [0usize, 1, 3] {
            // The scope joins every stage; a stage that missed the hang-up
            // would hang the test here.
            std::thread::scope(|s| {
                let shared = Arc::new(PipelineShared::default());
                let mut feed = ChunkFeed::spawn(s, &c, &data, workers, shared);
                let first = feed.take_at(0).unwrap();
                feed.take_at(first.end).unwrap();
                drop(feed);
            });
        }
    }

    #[test]
    fn feed_peek_does_not_consume() {
        let c = chunker();
        let data = slim_types::rng::bytes(3, 20_000);
        std::thread::scope(|s| {
            let shared = Arc::new(PipelineShared::default());
            let mut feed = ChunkFeed::spawn(s, &c, &data, 1, shared);
            let peeked = feed.peek_at(0).unwrap();
            let taken = feed.take_at(0).unwrap();
            assert_eq!(peeked, taken);
        });
    }

    fn full(storage: &StorageLayer, b: u8) -> ContainerBuilder {
        let mut builder = ContainerBuilder::new(storage.allocate_container_id(), 4096);
        builder.push(Fingerprint::from_slice(&[b; 20]).unwrap(), &[b; 128]);
        builder
    }

    #[test]
    fn sink_uploads_everything_before_finish_returns() {
        let oss = Arc::new(Oss::in_memory());
        let storage = StorageLayer::open(oss.clone());
        let shared = Arc::new(PipelineShared::default());
        let ids = std::thread::scope(|s| {
            let (sink, handle) = UploadSink::spawn(s, storage.clone(), 2, shared.clone());
            let mut ids = Vec::new();
            for b in 0..10u8 {
                let builder = full(&storage, b);
                ids.push(builder.id());
                sink.push(builder).unwrap_or_else(|e| panic!("{e}"));
            }
            sink.finish(handle).unwrap();
            ids
        });
        assert_eq!(shared.uploads.load(Ordering::Relaxed), 10);
        for id in ids {
            storage.get_container_meta(id).unwrap();
            storage.get_container_data(id).unwrap();
        }
    }

    #[test]
    fn sink_surfaces_upload_errors_and_stops_committing() {
        let oss = Arc::new(Oss::in_memory());
        let storage = StorageLayer::open(oss.clone());
        oss.inject_fault(FaultPlan::NthOnPrefix {
            prefix: "containers/".into(),
            nth: 3,
        });
        let shared = Arc::new(PipelineShared::default());
        let err = std::thread::scope(|s| {
            let (sink, handle) = UploadSink::spawn(s, storage.clone(), 1, shared.clone());
            for b in 0..8u8 {
                if let Err(e) = sink.push(full(&storage, b)) {
                    drop(sink.finish(handle));
                    return e;
                }
            }
            sink.finish(handle).unwrap_err()
        });
        assert!(
            matches!(err, SlimError::InjectedFault(_)),
            "uploader error type must survive: {err:?}"
        );
        // Once a container failed, later ones are skipped, not committed.
        assert!(shared.uploads.load(Ordering::Relaxed) < 8);
    }
}
