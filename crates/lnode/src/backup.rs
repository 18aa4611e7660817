//! The online deduplication pipeline (§IV).
//!
//! One [`BackupPipeline::backup_file`] call runs the full three-step workflow
//! for one input file:
//!
//! 1. **Detect** a historical version (by path) or a similar file (by
//!    representative-fingerprint vote) and fetch its recipe index.
//! 2. **Dedup** the stream: every sampled chunk probes the recipe index and
//!    prefetches the matching segment recipe into the dedup cache; logical
//!    locality then confirms whole runs of duplicates. Two history-aware
//!    fast paths cut the CPU cost:
//!    * *skip chunking* — after a duplicate, jump `|next chunk|` bytes,
//!      check the cut condition in O(window), and verify by fingerprint;
//!      on mismatch fall back to the byte-by-byte CDC scan;
//!    * *SuperChunking* (Algorithm 1) — a chunk matching the first member of
//!      a previous-version superchunk triggers a whole-superchunk
//!      fingerprint comparison.
//! 3. **Segment & persist**: unique chunks pack into containers that seal to
//!    OSS at capacity; records group into segment recipes; sampled
//!    fingerprints become the recipe index for the *next* version.
//!
//! History-aware chunk merging (§IV-C) runs as a per-segment post-pass: runs
//! of records whose `duplicateTimes` reached the threshold merge into a new
//! superchunk whose payload is written to the current container (the old
//! member copies are reclaimed later by the G-node's reverse deduplication).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use slim_chunking::{chunk_all, fingerprint, sample::file_representatives, Chunker};
use slim_index::similar::Detection;
use slim_index::{DedupCache, SimilarFileIndex};
use slim_types::recipe::SegmentSpan;
use slim_types::{
    ChunkRecord, ContainerBuilder, ContainerId, FileBackupInfo, FileId, Fingerprint, Recipe,
    RecipeIndex, Result, SegmentRecipe, SlimConfig, SlimError, SuperChunkInfo, VersionId,
};

use crate::pipeline::{commit_container, ChunkFeed, PipelineShared, UploadSink};
use crate::stats::BackupStats;
use crate::storage::StorageLayer;

/// How many segments the dedup cache holds.
const DEDUP_CACHE_SEGMENTS: usize = 64;
/// How many consecutive segment recipes one prefetch pulls: adjacent segment
/// blocks are contiguous in the recipe object, so one OSS range read covers
/// several (the backup stream sweeps forward, so the following segments are
/// the likely next matches).
const PREFETCH_BATCH: u32 = 4;
/// How many leading chunks are eligible as file representatives (header
/// sampling for large files, §IV-A Step 1).
const HEADER_CHUNKS: usize = 512;

/// Result of backing up one file.
#[derive(Debug, Clone)]
pub struct BackupOutcome {
    /// Manifest entry for the file.
    pub info: FileBackupInfo,
    /// Job statistics (phase timings, dedup counters).
    pub stats: BackupStats,
    /// Containers this job created (input to reverse deduplication).
    pub new_containers: Vec<ContainerId>,
    /// Duplicate-chunk references per container — the raw counts the G-node
    /// combines with container metadata to find sparse containers (§V-B).
    pub container_refs: HashMap<ContainerId, u64>,
}

/// The online dedup pipeline of an L-node.
pub struct BackupPipeline<'a> {
    storage: &'a StorageLayer,
    similar: &'a SimilarFileIndex,
    chunker: &'a dyn Chunker,
    config: &'a SlimConfig,
}

impl<'a> BackupPipeline<'a> {
    /// Assemble a pipeline over the shared storage layer and indexes.
    pub fn new(
        storage: &'a StorageLayer,
        similar: &'a SimilarFileIndex,
        chunker: &'a dyn Chunker,
        config: &'a SlimConfig,
    ) -> Self {
        BackupPipeline {
            storage,
            similar,
            chunker,
            config,
        }
    }

    /// Deduplicate and persist one file as `version`.
    pub fn backup_file(
        &self,
        file: &FileId,
        version: VersionId,
        data: &[u8],
    ) -> Result<BackupOutcome> {
        let wall_start = Instant::now();
        let mut stats = BackupStats {
            logical_bytes: data.len() as u64,
            ..Default::default()
        };

        // ---- STEP 1: detect a historical version or similar file ----
        let detected = self.detect(file, data, &mut stats)?;
        let recipe_index = match &detected {
            Some((f, v)) => {
                let t = Instant::now();
                let idx = match self.storage.get_recipe_index(f, *v) {
                    Ok(idx) => Some(idx),
                    // The detected history may have been reclaimed out from
                    // under the in-memory similar index (orphan scrub after a
                    // failed job, retention pruning). Degrade to a fresh
                    // backup rather than failing the job.
                    Err(slim_types::SlimError::ObjectNotFound(_)) => None,
                    Err(e) => return Err(e),
                };
                stats.network_time += t.elapsed();
                idx
            }
            None => None,
        };

        // ---- STEP 2 + 3: dedup the stream, segment and persist ----
        let segment_spans: HashMap<u32, SegmentSpan> = recipe_index
            .as_ref()
            .map(|idx| {
                idx.entries
                    .iter()
                    .map(|e| (e.segment_idx, e.span))
                    .collect()
            })
            .unwrap_or_default();
        // Hash view of the recipe index: every cut chunk probes it in O(1),
        // so a sampled fingerprint anywhere in the stream finds its segment.
        let mut index_lookup: HashMap<Fingerprint, Vec<u32>> = HashMap::new();
        if let Some(idx) = &recipe_index {
            for e in &idx.entries {
                let segs = index_lookup.entry(e.sample_fp).or_default();
                if !segs.contains(&e.segment_idx) {
                    segs.push(e.segment_idx);
                }
            }
        }
        let mut job = Job {
            pipeline: self,
            data,
            detected,
            index_lookup,
            segment_spans,
            first_records: HashMap::new(),
            cache: DedupCache::new(DEDUP_CACHE_SEGMENTS),
            fetched_segments: HashSet::new(),
            local_index: HashMap::new(),
            builder: None,
            new_containers: Vec::new(),
            segments: Vec::new(),
            cur_records: Vec::new(),
            cur_spans: Vec::new(),
            prediction: None,
            feed: None,
            sink: None,
            stats,
        };
        let threads = self.config.backup_pipeline_threads;
        if threads >= 2 && !data.is_empty() {
            job.run_pipelined(threads)?;
        } else {
            job.run()?;
        }
        let Job {
            mut stats,
            segments,
            new_containers,
            ..
        } = job;

        // Persist the recipe and its index.
        let recipe = Recipe { segments };
        let t = Instant::now();
        let (recipe_buf, spans) = recipe.encode();
        let index = RecipeIndex::build(&recipe, &spans, self.config.sample_rate);
        stats.index_time += t.elapsed();
        let recipe_key = slim_types::layout::recipe(file, version);
        let index_key = slim_types::layout::recipe_index(file, version);
        let t = Instant::now();
        self.storage.oss().put(&recipe_key, recipe_buf)?;
        self.storage.oss().put(&index_key, index.encode())?;
        stats.network_time += t.elapsed();

        // Register the file's representatives for future similarity search.
        let reps = self.representatives(&recipe);
        self.similar.register(file.clone(), version, reps);

        // Reference counts per container, from the final recipe (SCC input).
        let mut container_refs: HashMap<ContainerId, u64> = HashMap::new();
        for rec in recipe.records() {
            *container_refs.entry(rec.container_id).or_default() += 1;
        }

        let duplicate_count = stats.duplicates;
        let chunk_count = stats.chunks;
        stats.wall_time = wall_start.elapsed();
        Ok(BackupOutcome {
            info: FileBackupInfo {
                file: file.clone(),
                recipe_key,
                recipe_index_key: index_key,
                logical_bytes: data.len() as u64,
                stored_bytes: stats.stored_bytes,
                chunk_count,
                duplicate_count,
            },
            stats,
            new_containers,
            container_refs,
        })
    }

    /// STEP 1: path match first, then similarity by sampled header chunks.
    fn detect(
        &self,
        file: &FileId,
        data: &[u8],
        stats: &mut BackupStats,
    ) -> Result<Option<(FileId, VersionId)>> {
        let t = Instant::now();
        if let Some(version) = self.similar.latest_version(file) {
            stats.index_time += t.elapsed();
            return Ok(Some((file.clone(), version)));
        }
        stats.index_time += t.elapsed();
        // No historical version: chunk + sample the header and vote.
        let header_len = data.len().min(HEADER_CHUNKS * self.config.avg_chunk_size);
        let t = Instant::now();
        let header_chunks = chunk_all(self.chunker, &data[..header_len]);
        stats.chunking_time += t.elapsed();
        let t = Instant::now();
        let samples = file_representatives(
            &header_chunks,
            self.config.sample_rate,
            HEADER_CHUNKS,
            self.config.similar_index_samples,
        );
        let detection = self.similar.detect(file, &samples);
        stats.index_time += t.elapsed();
        Ok(match detection {
            Detection::HistoricalVersion(f, v) => Some((f, v)),
            Detection::SimilarFile(f, v, _) => Some((f, v)),
            Detection::None => None,
        })
    }

    /// Representative fingerprints of the just-written recipe (header
    /// sampling). Superchunk records are represented by their first member
    /// chunk — the fingerprint an incoming file's CDC scan can reproduce.
    fn representatives(&self, recipe: &Recipe) -> Vec<Fingerprint> {
        let key = |rec: &ChunkRecord| match &rec.super_chunk {
            Some(sc) => sc.first_chunk,
            None => rec.fp,
        };
        let mut reps = Vec::new();
        let mut seen = 0usize;
        'outer: for seg in &recipe.segments {
            for rec in &seg.records {
                if seen >= HEADER_CHUNKS || reps.len() >= self.config.similar_index_samples {
                    break 'outer;
                }
                if key(rec).is_sample(self.config.sample_rate) {
                    reps.push(key(rec));
                }
                seen += 1;
            }
        }
        if reps.is_empty() {
            reps = recipe
                .records()
                .take(self.config.similar_index_samples)
                .map(key)
                .collect();
        }
        reps
    }
}

/// Mutable state of one running backup job.
struct Job<'p, 'a> {
    pipeline: &'p BackupPipeline<'a>,
    data: &'p [u8],
    detected: Option<(FileId, VersionId)>,
    /// Hash view of the source recipe index: sample fp -> segment ordinals.
    index_lookup: HashMap<Fingerprint, Vec<u32>>,
    /// Segment ordinal -> byte span in the source recipe (from its index).
    segment_spans: HashMap<u32, SegmentSpan>,
    /// First record of each prefetched segment (for sequential chaining).
    first_records: HashMap<u32, ChunkRecord>,
    cache: DedupCache,
    fetched_segments: HashSet<u32>,
    /// Chunks already emitted by *this* job (intra-stream / self-reference
    /// dedup).
    local_index: HashMap<Fingerprint, ChunkRecord>,
    builder: Option<ContainerBuilder>,
    new_containers: Vec<ContainerId>,
    segments: Vec<SegmentRecipe>,
    cur_records: Vec<ChunkRecord>,
    /// Byte span in `data` of each record in `cur_records` (for merging).
    cur_spans: Vec<(usize, usize)>,
    /// Skip-chunking prediction: the record expected to match at the cursor.
    prediction: Option<ChunkRecord>,
    /// Pipelined mode: the precomputed plain-CDC chunk stream (stages 1+2).
    feed: Option<ChunkFeed>,
    /// Pipelined mode: async container uploads (stage 4).
    sink: Option<UploadSink>,
    stats: BackupStats,
}

impl Job<'_, '_> {
    fn config(&self) -> &SlimConfig {
        self.pipeline.config
    }

    fn run(&mut self) -> Result<()> {
        let mut pos = 0usize;
        while pos < self.data.len() {
            pos = self.step(pos)?;
            if self.cur_records.len() >= self.config().segment_chunks {
                self.close_segment()?;
            }
        }
        self.close_segment()?;
        self.seal_container()?;
        Ok(())
    }

    /// Run the same dedup loop with the parallel stages of
    /// [`crate::pipeline`] around it: a chunking feeder, `threads - 2`
    /// fingerprint workers, and an async container sealer/uploader, all
    /// scoped to this call. The loop itself — and therefore every byte of
    /// output — is identical to [`Job::run`]; the stages only precompute
    /// the plain-CDC stream it consumes and take over the containers it
    /// fills.
    fn run_pipelined(&mut self, threads: usize) -> Result<()> {
        debug_assert!(threads >= 2);
        let shared = Arc::new(PipelineShared::default());
        let chunker = self.pipeline.chunker;
        let data = self.data;
        let storage = self.pipeline.storage.clone();
        let fp_workers = threads - 2; // one feeder + one uploader
        let result = std::thread::scope(|s| {
            self.feed = Some(ChunkFeed::spawn(
                s,
                chunker,
                data,
                fp_workers,
                shared.clone(),
            ));
            // Sealing borrows the fingerprint workers' share of the thread
            // budget: they idle whenever the dedup stage waits on a full
            // upload queue.
            let (sink, uploader) = UploadSink::spawn(s, storage, fp_workers.max(1), shared.clone());
            self.sink = Some(sink);
            // The feed and sink must be detached from `self` before the
            // scope ends even if the loop panics (a debug assertion, say):
            // their queues are what lets the spawned threads exit, and the
            // scope joins those threads.
            let run_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run()));
            self.feed = None;
            let sink_result = match self.sink.take() {
                Some(sink) => sink.finish(uploader),
                None => Ok(()),
            };
            match run_result {
                Ok(res) => res.and(sink_result),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        });
        shared.fold_into(&mut self.stats);
        result
    }

    /// Process one chunk (or superchunk) starting at `pos`; returns the new
    /// cursor.
    fn step(&mut self, pos: usize) -> Result<usize> {
        // -- History-aware skip chunking (§IV-B) --
        if self.config().skip_chunking {
            if let Some(predicted) = self.prediction.take() {
                if let Some(end) = self.try_skip(pos, &predicted) {
                    let mut rec = predicted;
                    rec.duplicate_times += 1;
                    self.stats.skip_hits += 1;
                    // Sampled chunks still probe the recipe index even on
                    // the fast path, so the set of prefetched segments — and
                    // therefore the dedup ratio — is identical to plain CDC
                    // (Fig 5(b)).
                    let probe = match &rec.super_chunk {
                        Some(sc) => sc.first_chunk,
                        None => rec.fp,
                    };
                    self.maybe_prefetch(&probe)?;
                    self.emit_duplicate(rec, pos, end)?;
                    return Ok(end);
                }
                self.stats.skip_misses += 1;
            }
        }

        // -- Plain CDC cut --
        let (end, fp) = self.cut_at(pos);

        // -- Probe the recipe index and prefetch matching segments --
        self.maybe_prefetch(&fp)?;

        // -- SuperChunking probe (Algorithm 1): fp may be the first member
        //    of a previous-version superchunk --
        if self.config().chunk_merging {
            if let Some(sc) = self.probe_superchunk(pos, &fp) {
                let sc_end = pos + sc.size as usize;
                let mut rec = sc;
                rec.duplicate_times += 1;
                self.stats.super_hits += 1;
                self.emit_duplicate(rec, pos, sc_end)?;
                return Ok(sc_end);
            }
        }

        // -- Intra-stream duplicate (self-reference) --
        // Checked before the history cache: if this job already stored the
        // chunk, referencing the *new* copy keeps the current version's
        // locality and never conflicts with reverse deduplication (which
        // keeps the newest copy, §VI-A).
        if let Some(rec) = self.local_index.get(&fp).copied() {
            self.emit_duplicate(rec, pos, end)?;
            return Ok(end);
        }

        // -- Dedup cache lookup (logical locality) --
        let t = Instant::now();
        let hit = self.cache.lookup(&fp);
        self.stats.index_time += t.elapsed();
        if let Some(hit) = hit {
            debug_assert_eq!(hit.record.size as usize, end - pos, "same fp, same size");
            let mut rec = hit.record;
            rec.duplicate_times += 1;
            self.prediction = hit.next;
            self.emit_duplicate(rec, pos, end)?;
            return Ok(end);
        }

        // -- Unique chunk: store it --
        self.emit_unique(fp, pos, end)?;
        Ok(end)
    }

    /// The plain-CDC cut and fingerprint at `pos`: consumed from the
    /// parallel feed when pipelined, computed inline otherwise. The feed is
    /// the same `next_boundary`/`fingerprint` pair evaluated ahead of time,
    /// so both sources yield the identical chunk.
    fn cut_at(&mut self, pos: usize) -> (usize, Fingerprint) {
        if let Some(feed) = &mut self.feed {
            if let Some(c) = feed.take_at(pos) {
                return (c.end, c.fp);
            }
            feed.note_fallback();
        }
        let t = Instant::now();
        let end = self.pipeline.chunker.next_boundary(self.data, pos);
        self.stats.chunking_time += t.elapsed();
        let t = Instant::now();
        let fp = fingerprint(&self.data[pos..end]);
        self.stats.fingerprint_time += t.elapsed();
        (end, fp)
    }

    /// Attempt a skip-chunking jump: land on the predicted cut, check the
    /// cut condition in O(window), verify by fingerprint. Returns the chunk
    /// end on success.
    fn try_skip(&mut self, pos: usize, predicted: &ChunkRecord) -> Option<usize> {
        let end = pos + predicted.size as usize;
        if end > self.data.len() {
            return None;
        }
        if predicted.is_super() {
            // Superchunk ends are not single-chunk cut points; the
            // fingerprint comparison alone decides (content equality implies
            // the member boundaries align).
            let t = Instant::now();
            let fp = fingerprint(&self.data[pos..end]);
            self.stats.fingerprint_time += t.elapsed();
            if fp == predicted.fp {
                return Some(end);
            }
            return None;
        }
        // Pipelined: the plain chunk at `pos` is already cut and hashed.
        // The prediction holds iff it *is* that chunk — same decision as
        // the inline check below (a fingerprint match implies content
        // equality, so the historical cut is the next plain-CDC cut), with
        // the hash work already paid by the worker pool. On a miss the
        // chunk stays buffered for the plain-CDC path.
        if let Some(feed) = &mut self.feed {
            if let Some(c) = feed.peek_at(pos) {
                if c.end == end && c.fp == predicted.fp {
                    feed.consume_head();
                    return Some(end);
                }
                return None;
            }
            // Feed exhausted/misaligned: verify inline below.
        }
        let t = Instant::now();
        let cut_ok = self.pipeline.chunker.is_boundary(self.data, pos, end);
        self.stats.chunking_time += t.elapsed();
        if !cut_ok {
            return None;
        }
        let t = Instant::now();
        let fp = fingerprint(&self.data[pos..end]);
        self.stats.fingerprint_time += t.elapsed();
        if fp == predicted.fp {
            Some(end)
        } else {
            None
        }
    }

    /// Algorithm 1: if `fp` matches the first member chunk of a cached
    /// superchunk, compare the whole-superchunk fingerprint.
    fn probe_superchunk(&mut self, pos: usize, fp: &Fingerprint) -> Option<ChunkRecord> {
        let t = Instant::now();
        let candidate = self.cache.lookup_super_first(fp);
        self.stats.index_time += t.elapsed();
        let sc = candidate?;
        let sc_end = pos + sc.size as usize;
        if sc_end > self.data.len() {
            return None;
        }
        let t = Instant::now();
        let sc_fp = fingerprint(&self.data[pos..sc_end]);
        self.stats.fingerprint_time += t.elapsed();
        if sc_fp == sc.fp {
            Some(sc)
        } else {
            self.stats.super_misses += 1;
            None
        }
    }

    /// Prefetch the segment recipe(s) whose sample matches `fp` (§IV-A
    /// Step 2). Called for every cut chunk; the O(1) hash probe is free for
    /// non-samples (sampling bounds what the index *contains*).
    fn maybe_prefetch(&mut self, fp: &Fingerprint) -> Result<()> {
        let Some(segs) = self.index_lookup.get(fp) else {
            return Ok(());
        };
        let hits: Vec<u32> = segs
            .iter()
            .filter(|s| !self.fetched_segments.contains(s))
            .copied()
            .collect();
        for seg_idx in hits {
            self.fetch_segment(seg_idx)?;
        }
        Ok(())
    }

    /// Fetch segment `idx` of the detected file into the dedup cache (if it
    /// exists and is not already cached); returns its first record. Batches:
    /// up to [`PREFETCH_BATCH`] contiguous following segments ride along in
    /// the same OSS range read.
    fn fetch_segment(&mut self, idx: u32) -> Result<Option<ChunkRecord>> {
        if self.fetched_segments.contains(&idx) {
            return Ok(self.first_records.get(&idx).copied());
        }
        let Some((src_file, src_version)) = self.detected.clone() else {
            return Ok(None);
        };
        let Some(first_span) = self.segment_spans.get(&idx).copied() else {
            return Ok(None);
        };
        // The recipe index is not sealed: its spans and segment numbers are
        // whatever the bucket returned, so no arithmetic on them may wrap.
        let span_end = |span: SegmentSpan| {
            span.offset.checked_add(span.len).ok_or_else(|| {
                SlimError::corrupt(
                    "recipe index",
                    format!("segment span {}+{} overflows", span.offset, span.len),
                )
            })
        };
        // Extend the read over contiguous, unfetched following segments.
        let mut batch = vec![(idx, first_span)];
        let mut end = span_end(first_span)?;
        for next in idx.saturating_add(1)..idx.saturating_add(PREFETCH_BATCH) {
            if self.fetched_segments.contains(&next) {
                break;
            }
            let Some(span) = self.segment_spans.get(&next).copied() else {
                break;
            };
            if span.offset != end {
                break; // not contiguous (should not happen, but be safe)
            }
            end = span_end(span)?;
            batch.push((next, span));
        }
        let t = Instant::now();
        let buf = match self.pipeline.storage.oss().get_range(
            &slim_types::layout::recipe(&src_file, src_version),
            first_span.offset,
            end - first_span.offset,
        ) {
            Ok(buf) => buf,
            // The source recipe was reclaimed (orphan scrub / retention) after
            // its index was fetched. Mark the batch fetched so we do not retry
            // the read per chunk, and store the stream fresh.
            Err(SlimError::ObjectNotFound(_)) => {
                for (seg_idx, _) in batch {
                    self.fetched_segments.insert(seg_idx);
                }
                return Ok(None);
            }
            Err(e) => return Err(e),
        };
        self.stats.network_time += t.elapsed();
        let mut first_of_idx = None;
        for (seg_idx, span) in batch {
            let lo = (span.offset - first_span.offset) as usize;
            let block = buf.get(lo..lo + span.len as usize).ok_or_else(|| {
                SlimError::corrupt("recipe index", "segment span outside the fetched range")
            })?;
            let seg = SegmentRecipe::decode_block(block)?;
            let first = seg.records.first().copied();
            let t = Instant::now();
            self.cache.insert_segment(seg, seg_idx);
            self.stats.index_time += t.elapsed();
            self.fetched_segments.insert(seg_idx);
            if let Some(f) = first {
                self.first_records.insert(seg_idx, f);
            }
            if seg_idx == idx {
                first_of_idx = first;
            }
            self.stats.segments_prefetched += 1;
        }
        Ok(first_of_idx)
    }

    fn emit_duplicate(&mut self, rec: ChunkRecord, start: usize, end: usize) -> Result<()> {
        debug_assert_eq!(rec.size as usize, end - start);
        // Keep the prediction chain alive: the successor of the matched
        // record is the next expected chunk. At a segment end, chain to the
        // *next* segment recipe of the source file — incremental backup
        // streams sweep forward, so its records are the likely duplicates
        // (sequential logical locality).
        if self.prediction.is_none() {
            if let Some(hit) = self.cache.peek(&rec.fp) {
                self.prediction = match hit.next {
                    Some(next) => Some(next),
                    None => match hit.segment.checked_add(1) {
                        Some(following) => self.fetch_segment(following)?,
                        None => None,
                    },
                };
            }
        }
        self.stats.chunks += 1;
        self.stats.duplicates += 1;
        self.cur_records.push(rec);
        self.cur_spans.push((start, end));
        Ok(())
    }

    fn emit_unique(&mut self, fp: Fingerprint, start: usize, end: usize) -> Result<()> {
        let payload = &self.data[start..end];
        let container_id = self.push_to_container(fp, payload)?;
        let rec = ChunkRecord::new(fp, container_id, payload.len() as u32, 0);
        self.local_index.insert(fp, rec);
        self.prediction = None;
        self.stats.chunks += 1;
        self.stats.stored_bytes += payload.len() as u64;
        self.cur_records.push(rec);
        self.cur_spans.push((start, end));
        Ok(())
    }

    fn push_to_container(&mut self, fp: Fingerprint, payload: &[u8]) -> Result<ContainerId> {
        if self
            .builder
            .as_ref()
            .is_some_and(|b| b.would_overflow(payload.len()))
        {
            self.seal_container()?;
        }
        let builder = match &mut self.builder {
            Some(b) => b,
            None => {
                let id = self.pipeline.storage.allocate_container_id();
                self.new_containers.push(id);
                self.builder.insert(
                    ContainerBuilder::new(id, self.config().container_capacity)
                        .with_compression(self.config().compression),
                )
            }
        };
        builder.push(fp, payload);
        Ok(builder.id())
    }

    /// Let go of the open container. Compression, the CRC seal and the PUT
    /// are [`commit_container`] in both engines; only the thread differs.
    fn seal_container(&mut self) -> Result<()> {
        if let Some(builder) = self.builder.take() {
            if builder.is_empty() {
                return Ok(());
            }
            match &self.sink {
                // Pipelined: hand off to stage (4). Containers fill — and
                // ids are allocated — in stream order, so the queue's FIFO
                // order is container-id order; the stage's accounting is
                // folded into the stats when the stages join.
                Some(sink) => sink.push(builder)?,
                None => {
                    let (compression, put_time) =
                        commit_container(self.pipeline.storage, builder, 1)?;
                    self.stats.add_compression(&compression);
                    self.stats.network_time += put_time;
                }
            }
        }
        Ok(())
    }

    /// Close the current segment: apply history-aware chunk merging, then
    /// append the segment recipe.
    fn close_segment(&mut self) -> Result<()> {
        if self.cur_records.is_empty() {
            return Ok(());
        }
        let records = std::mem::take(&mut self.cur_records);
        let spans = std::mem::take(&mut self.cur_spans);
        let merged = if self.config().chunk_merging {
            self.merge_runs(records, &spans)?
        } else {
            records
        };
        self.segments.push(SegmentRecipe::new(merged));
        Ok(())
    }

    /// History-aware chunk merging (§IV-C): consecutive plain records whose
    /// `duplicateTimes` reached the threshold merge into a superchunk whose
    /// payload is written to the current container.
    fn merge_runs(
        &mut self,
        records: Vec<ChunkRecord>,
        spans: &[(usize, usize)],
    ) -> Result<Vec<ChunkRecord>> {
        let threshold = self.config().merge_threshold;
        let min_members = self.config().superchunk_min_members;
        let max_members = self.config().superchunk_max_members;
        // A superchunk payload must fit in one container.
        let max_bytes = self.config().container_capacity;
        let mut out = Vec::with_capacity(records.len());
        let mut i = 0usize;
        while i < records.len() {
            let eligible = |r: &ChunkRecord| !r.is_super() && r.duplicate_times >= threshold;
            if !eligible(&records[i]) {
                out.push(records[i]);
                i += 1;
                continue;
            }
            // Extend the run while records stay eligible and within caps.
            let mut j = i + 1;
            let mut bytes = records[i].size as usize;
            while j < records.len()
                && j - i < max_members
                && eligible(&records[j])
                && bytes + records[j].size as usize <= max_bytes
            {
                bytes += records[j].size as usize;
                j += 1;
            }
            if j - i < min_members {
                out.push(records[i]);
                i += 1;
                continue;
            }
            let (start, _) = spans[i];
            let (_, end) = spans[j - 1];
            debug_assert_eq!(end - start, bytes);
            let payload = &self.data[start..end];
            let t = Instant::now();
            let sc_fp = fingerprint(payload);
            self.stats.fingerprint_time += t.elapsed();
            // An identical run may merge more than once in the same stream
            // (self-reference): the payload is stored only once.
            if let Some(existing) = self.local_index.get(&sc_fp).copied() {
                self.stats.chunks_merged += (j - i) as u64;
                out.push(existing);
                i = j;
                continue;
            }
            let container_id = self.push_to_container(sc_fp, payload)?;
            let rec = ChunkRecord {
                fp: sc_fp,
                container_id,
                size: bytes as u32,
                duplicate_times: records[i..j]
                    .iter()
                    .map(|r| r.duplicate_times)
                    .min()
                    .unwrap_or(0),
                super_chunk: Some(SuperChunkInfo {
                    first_chunk: records[i].fp,
                    first_chunk_size: records[i].size,
                    member_count: (j - i) as u32,
                }),
            };
            // The superchunk payload is stored anew: the online dedup ratio
            // pays for the future speed-up (Fig 6(b)).
            self.stats.stored_bytes += bytes as u64;
            self.stats.superchunks_created += 1;
            self.stats.chunks_merged += (j - i) as u64;
            self.local_index.insert(sc_fp, rec);
            out.push(rec);
            i = j;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_chunking::{ChunkSpec, FastCdcChunker};
    use slim_oss::Oss;
    use slim_types::rng::bytes as data;
    use std::sync::Arc;

    fn setup() -> (Oss, StorageLayer, SimilarFileIndex, SlimConfig) {
        let oss = Oss::in_memory();
        let storage = StorageLayer::open(Arc::new(oss.clone()));
        (
            oss,
            storage,
            SimilarFileIndex::new(),
            SlimConfig::small_for_tests(),
        )
    }

    fn backup(
        storage: &StorageLayer,
        similar: &SimilarFileIndex,
        cfg: &SlimConfig,
        file: &FileId,
        version: u64,
        bytes: &[u8],
    ) -> BackupOutcome {
        let chunker = FastCdcChunker::new(ChunkSpec::from_config(cfg));
        let pipeline = BackupPipeline::new(storage, similar, &chunker, cfg);
        pipeline
            .backup_file(file, VersionId(version), bytes)
            .unwrap()
    }

    /// Reassemble a file from its recipe by reading containers directly
    /// (restore correctness is tested end-to-end in the restore module; this
    /// is the minimal oracle for backup tests).
    fn reassemble(storage: &StorageLayer, file: &FileId, version: u64) -> Vec<u8> {
        let recipe = storage.get_recipe(file, VersionId(version)).unwrap();
        let mut out = Vec::new();
        for rec in recipe.records() {
            let meta = storage.get_container_meta(rec.container_id).unwrap();
            let entry = meta.find(&rec.fp).expect("chunk in container");
            let data = storage.get_container_data(rec.container_id).unwrap();
            out.extend_from_slice(&entry.payload_from(&data).unwrap());
        }
        out
    }

    #[test]
    fn first_backup_stores_everything_and_restores() {
        let (_oss, storage, similar, cfg) = setup();
        let file = FileId::new("f");
        let input = data(1, 40_000);
        let out = backup(&storage, &similar, &cfg, &file, 0, &input);
        assert_eq!(out.info.logical_bytes, 40_000);
        assert_eq!(out.stats.duplicates, 0, "nothing to dedup on v0");
        assert!(out.info.stored_bytes >= 39_000, "v0 is stored nearly whole");
        assert!(!out.new_containers.is_empty());
        assert_eq!(reassemble(&storage, &file, 0), input);
    }

    #[test]
    fn second_version_dedups_against_first() {
        let (_oss, storage, similar, cfg) = setup();
        let file = FileId::new("f");
        let v0 = data(2, 60_000);
        backup(&storage, &similar, &cfg, &file, 0, &v0);
        // v1 = v0 with a small mutation in the middle.
        let mut v1 = v0.clone();
        v1[30_000..30_500].copy_from_slice(&data(99, 500));
        let out = backup(&storage, &similar, &cfg, &file, 1, &v1);
        assert!(
            out.stats.dedup_ratio() > 0.8,
            "dedup ratio too low: {}",
            out.stats.dedup_ratio()
        );
        assert!(out.stats.duplicates > 0);
        assert!(
            out.stats.segments_prefetched > 0,
            "similar segments fetched"
        );
        assert_eq!(reassemble(&storage, &file, 1), v1);
        // v0 must still restore.
        assert_eq!(reassemble(&storage, &file, 0), v0);
    }

    /// The recipe index is not sealed, so its numbers are whatever the
    /// bucket returned: wrapping spans end in a typed error and a segment
    /// number at the top of `u32` is simply the last one — never a panic
    /// (this runs with overflow checks on).
    #[test]
    fn tampered_recipe_index_never_panics_the_backup() {
        use slim_oss::ObjectStore;
        for wrap_spans in [true, false] {
            let (oss, storage, similar, cfg) = setup();
            let file = FileId::new("f");
            let v0 = data(4, 60_000);
            backup(&storage, &similar, &cfg, &file, 0, &v0);
            let key = slim_types::layout::recipe_index(&file, VersionId(0));
            let mut index = storage.get_recipe_index(&file, VersionId(0)).unwrap();
            for e in &mut index.entries {
                e.segment_idx = u32::MAX;
                if wrap_spans {
                    e.span.offset = u64::MAX - 1;
                }
            }
            oss.put(&key, index.encode()).unwrap();

            let chunker = FastCdcChunker::new(ChunkSpec::from_config(&cfg));
            let pipeline = BackupPipeline::new(&storage, &similar, &chunker, &cfg);
            match pipeline.backup_file(&file, VersionId(1), &v0) {
                Err(SlimError::Corrupt { what, .. }) => {
                    assert!(wrap_spans);
                    assert_eq!(what, "recipe index");
                }
                Err(other) => panic!("untyped for a corrupt index: {other}"),
                Ok(_) => {
                    assert!(!wrap_spans);
                    assert_eq!(reassemble(&storage, &file, 1), v0);
                }
            }
        }
    }

    #[test]
    fn skip_chunking_fires_on_duplicate_runs() {
        let (_oss, storage, similar, cfg) = setup();
        let file = FileId::new("f");
        let v0 = data(3, 80_000);
        backup(&storage, &similar, &cfg, &file, 0, &v0);
        let out = backup(&storage, &similar, &cfg, &file, 1, &v0);
        assert!(
            out.stats.skip_hits > 10,
            "identical content should skip-chunk: {:?}",
            out.stats
        );
        assert!(out.stats.dedup_ratio() > 0.95);
    }

    #[test]
    fn skip_chunking_off_still_correct() {
        let (_oss, storage, similar, mut cfg) = setup();
        cfg.skip_chunking = false;
        let file = FileId::new("f");
        let v0 = data(4, 50_000);
        backup(&storage, &similar, &cfg, &file, 0, &v0);
        let out = backup(&storage, &similar, &cfg, &file, 1, &v0);
        assert_eq!(out.stats.skip_hits, 0);
        assert!(out.stats.dedup_ratio() > 0.95);
        assert_eq!(reassemble(&storage, &file, 1), v0);
    }

    #[test]
    fn chunk_stream_identical_with_and_without_skip() {
        // Fig 5(b): skip chunking must not change the dedup ratio. Stronger:
        // the recipes must describe the same chunk boundaries.
        let (_, storage_a, similar_a, mut cfg_a) = setup();
        cfg_a.skip_chunking = true;
        cfg_a.chunk_merging = false;
        let (_, storage_b, similar_b, mut cfg_b) = setup();
        cfg_b.skip_chunking = false;
        cfg_b.chunk_merging = false;

        let file = FileId::new("f");
        let v0 = data(5, 60_000);
        let mut v1 = v0.clone();
        v1[10_000..10_200].copy_from_slice(&data(50, 200));
        v1[40_000..40_050].copy_from_slice(&data(51, 50));

        for (storage, similar, cfg) in [
            (&storage_a, &similar_a, &cfg_a),
            (&storage_b, &similar_b, &cfg_b),
        ] {
            backup(storage, similar, cfg, &file, 0, &v0);
            backup(storage, similar, cfg, &file, 1, &v1);
        }
        let ra: Vec<(Fingerprint, u32)> = storage_a
            .get_recipe(&file, VersionId(1))
            .unwrap()
            .records()
            .map(|r| (r.fp, r.size))
            .collect();
        let rb: Vec<(Fingerprint, u32)> = storage_b
            .get_recipe(&file, VersionId(1))
            .unwrap()
            .records()
            .map(|r| (r.fp, r.size))
            .collect();
        assert_eq!(ra, rb, "skip chunking changed the chunk stream");
    }

    #[test]
    fn chunk_merging_creates_and_matches_superchunks() {
        let (_oss, storage, similar, mut cfg) = setup();
        cfg.merge_threshold = 2;
        let file = FileId::new("f");
        let input = data(6, 60_000);
        let mut super_seen = 0;
        for v in 0..6u64 {
            let out = backup(&storage, &similar, &cfg, &file, v, &input);
            super_seen += out.stats.super_hits;
            assert_eq!(reassemble(&storage, &file, v), input, "version {v}");
            if v >= 3 {
                let recipe = storage.get_recipe(&file, VersionId(v)).unwrap();
                let supers = recipe.records().filter(|r| r.is_super()).count();
                assert!(supers > 0, "superchunks expected by v{v}");
            }
        }
        assert!(super_seen > 0, "Algorithm 1 never matched a superchunk");
    }

    /// Compressible input: seeded sentences over a small vocabulary.
    fn text(seed: u64, len: usize) -> Vec<u8> {
        const WORDS: [&str; 8] = [
            "container",
            "chunk",
            "recipe",
            "segment",
            "version",
            "index",
            "dedup",
            "object",
        ];
        let mut rng = slim_types::rng::Rng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(len + 16);
        while out.len() < len {
            out.extend_from_slice(WORDS[rng.gen_range(0..WORDS.len())].as_bytes());
            out.push(b' ');
        }
        out.truncate(len);
        out
    }

    #[test]
    fn merged_superchunks_are_compressed_once_at_seal() {
        // A merged superchunk's payload enters the open container like any
        // unique chunk and is compressed there, once, when it seals — on the
        // dedup thread (0) or in stage 4 (4).
        for threads in [0usize, 4] {
            let (_oss, storage, similar, mut cfg) = setup();
            cfg.merge_threshold = 2;
            cfg.compression = true;
            cfg.backup_pipeline_threads = threads;
            let file = FileId::new("f");
            let input = text(6, 60_000);
            let mut merged = 0;
            for v in 0..5u64 {
                let out = backup(&storage, &similar, &cfg, &file, v, &input);
                let s = &out.stats;
                assert_eq!(
                    s.compress_raw_bytes, s.stored_bytes,
                    "threads {threads} v{v}: every stored payload is offered exactly once"
                );
                assert_eq!(
                    s.compress_chunks,
                    s.chunks - s.duplicates + s.superchunks_created,
                    "threads {threads} v{v}"
                );
                assert_eq!(
                    s.compress_time > std::time::Duration::ZERO,
                    s.stored_bytes > 0
                );
                merged += s.superchunks_created;
                let recipe = storage.get_recipe(&file, VersionId(v)).unwrap();
                for rec in recipe.records().filter(|r| r.is_super()) {
                    let meta = storage.get_container_meta(rec.container_id).unwrap();
                    let entry = meta.find(&rec.fp).expect("superchunk in its container");
                    assert_eq!(entry.raw_len, rec.size);
                    assert!(entry.is_compressed(), "threads {threads} v{v}: stored raw");
                }
                assert_eq!(reassemble(&storage, &file, v), input, "version {v}");
            }
            assert!(
                merged > 0,
                "threads {threads}: merge_threshold never reached"
            );
        }
    }

    #[test]
    fn merging_reduces_record_count() {
        let (_oss, storage, similar, mut cfg) = setup();
        cfg.merge_threshold = 2;
        let file = FileId::new("f");
        let input = data(7, 80_000);
        let mut counts = Vec::new();
        for v in 0..5u64 {
            backup(&storage, &similar, &cfg, &file, v, &input);
            counts.push(
                storage
                    .get_recipe(&file, VersionId(v))
                    .unwrap()
                    .record_count(),
            );
        }
        assert!(
            counts.last().unwrap() * 3 < counts[0],
            "merging should shrink the recipe: {counts:?}"
        );
    }

    #[test]
    fn renamed_file_detected_by_similarity() {
        let (_oss, storage, similar, cfg) = setup();
        let input = data(8, 60_000);
        backup(
            &storage,
            &similar,
            &cfg,
            &FileId::new("old-name"),
            0,
            &input,
        );
        let out = backup(
            &storage,
            &similar,
            &cfg,
            &FileId::new("new-name"),
            1,
            &input,
        );
        assert!(
            out.stats.dedup_ratio() > 0.9,
            "similar-file detection failed: {}",
            out.stats.dedup_ratio()
        );
    }

    #[test]
    fn unrelated_file_stores_fresh() {
        let (_oss, storage, similar, cfg) = setup();
        backup(
            &storage,
            &similar,
            &cfg,
            &FileId::new("a"),
            0,
            &data(9, 40_000),
        );
        let out = backup(
            &storage,
            &similar,
            &cfg,
            &FileId::new("b"),
            0,
            &data(10, 40_000),
        );
        assert!(out.stats.dedup_ratio() < 0.05);
    }

    #[test]
    fn self_reference_deduped_within_stream() {
        let (_oss, storage, similar, mut cfg) = setup();
        cfg.chunk_merging = false;
        let file = FileId::new("f");
        let block = data(11, 20_000);
        let mut input = block.clone();
        input.extend_from_slice(&block); // the same content twice
        let out = backup(&storage, &similar, &cfg, &file, 0, &input);
        assert!(
            out.stats.dedup_ratio() > 0.4,
            "second half should dedup against the first: {}",
            out.stats.dedup_ratio()
        );
        assert_eq!(reassemble(&storage, &file, 0), input);
    }

    #[test]
    fn empty_file_backup() {
        let (_oss, storage, similar, cfg) = setup();
        let file = FileId::new("empty");
        let out = backup(&storage, &similar, &cfg, &file, 0, &[]);
        assert_eq!(out.info.logical_bytes, 0);
        assert_eq!(out.stats.chunks, 0);
        assert_eq!(reassemble(&storage, &file, 0), Vec::<u8>::new());
    }

    #[test]
    fn phase_times_are_recorded() {
        let (_oss, storage, similar, cfg) = setup();
        let out = backup(
            &storage,
            &similar,
            &cfg,
            &FileId::new("t"),
            0,
            &data(12, 100_000),
        );
        assert!(out.stats.chunking_time > std::time::Duration::ZERO);
        assert!(out.stats.fingerprint_time > std::time::Duration::ZERO);
        assert!(out.stats.wall_time >= out.stats.chunking_time);
    }

    #[test]
    fn tiny_file_with_appended_tail_still_dedups() {
        // Regression: with only a handful of chunks, random sampling can
        // select just the tail chunk — which an append then changes, leaving
        // no index hit at all. The always-indexed segment-first record must
        // anchor the chain.
        let (_oss, storage, similar, mut cfg) = setup();
        // Few, large chunks relative to the file.
        cfg.sample_rate = 1 << 20; // sampling selects (almost) nothing
        let file = FileId::new("f");
        let v0 = data(21, 6_000);
        let mut v1 = v0.clone();
        v1.extend_from_slice(&data(22, 300)); // append changes only the tail
        backup(&storage, &similar, &cfg, &file, 0, &v0);
        let out = backup(&storage, &similar, &cfg, &file, 1, &v1);
        assert!(
            out.stats.dedup_ratio() > 0.7,
            "appended tiny file must dedup its unchanged head: {}",
            out.stats.dedup_ratio()
        );
        assert_eq!(reassemble(&storage, &file, 1), v1);
    }

    /// Full bucket contents, sorted by key — the byte-identity oracle for
    /// pipelined-vs-sequential comparisons.
    fn bucket(oss: &Oss) -> Vec<(String, Vec<u8>)> {
        use slim_oss::ObjectStore;
        let mut keys = oss.list("");
        keys.sort();
        keys.into_iter()
            .map(|k| {
                let bytes = oss.get(&k).unwrap().to_vec();
                (k, bytes)
            })
            .collect()
    }

    #[test]
    fn pipelined_backup_is_byte_identical_to_sequential() {
        // The acceptance invariant of the parallel backup plane: same
        // containers, same recipes, same dedup statistics — for every
        // thread count, with every history-aware fast path enabled.
        let file = FileId::new("f");
        let v0 = data(30, 90_000);
        let mut v1 = v0.clone();
        v1[20_000..20_400].copy_from_slice(&data(31, 400));
        let mut v2 = v1.clone();
        v2.extend_from_slice(&v0[..10_000]); // tail self-references the head
        let versions = [&v0, &v1, &v2];

        let run = |threads: usize| {
            let (oss, storage, similar, mut cfg) = setup();
            cfg.merge_threshold = 2; // superchunks by v2
            cfg.backup_pipeline_threads = threads;
            let mut sigs = Vec::new();
            for (v, bytes) in versions.iter().enumerate() {
                let out = backup(&storage, &similar, &cfg, &file, v as u64, bytes);
                let s = &out.stats;
                sigs.push((
                    s.logical_bytes,
                    s.stored_bytes,
                    s.chunks,
                    s.duplicates,
                    s.skip_hits,
                    s.skip_misses,
                    s.super_hits,
                    s.super_misses,
                    s.superchunks_created,
                    s.chunks_merged,
                    s.segments_prefetched,
                ));
            }
            (bucket(&oss), sigs)
        };

        let (seq_bucket, seq_sigs) = run(0);
        for threads in [2usize, 3, 4, 8] {
            let (pipe_bucket, pipe_sigs) = run(threads);
            assert_eq!(
                pipe_sigs, seq_sigs,
                "dedup statistics diverged at {threads} threads"
            );
            assert_eq!(
                pipe_bucket.len(),
                seq_bucket.len(),
                "object count diverged at {threads} threads"
            );
            for ((pk, pv), (sk, sv)) in pipe_bucket.iter().zip(&seq_bucket) {
                assert_eq!(pk, sk, "key set diverged at {threads} threads");
                assert_eq!(pv, sv, "object {pk} diverged at {threads} threads");
            }
        }
    }

    #[test]
    fn pipelined_backup_uses_the_feed() {
        let (_oss, storage, similar, mut cfg) = setup();
        cfg.backup_pipeline_threads = 4;
        let file = FileId::new("f");
        let input = data(32, 60_000);
        let out = backup(&storage, &similar, &cfg, &file, 0, &input);
        assert!(out.stats.pipeline_chunks_fed > 0, "feed never consulted");
        assert_eq!(
            out.stats.pipeline_fallbacks, 0,
            "feed misaligned: {:?}",
            out.stats
        );
        assert!(out.stats.pipeline_async_uploads > 0, "uploader idle");
        assert_eq!(reassemble(&storage, &file, 0), input);
        // A duplicate second version exercises the feed under skip hits.
        let out = backup(&storage, &similar, &cfg, &file, 1, &input);
        assert!(out.stats.skip_hits > 0);
        assert_eq!(out.stats.pipeline_fallbacks, 0);
        assert_eq!(reassemble(&storage, &file, 1), input);
    }

    #[test]
    fn container_refs_cover_recipe() {
        let (_oss, storage, similar, cfg) = setup();
        let file = FileId::new("f");
        let input = data(13, 30_000);
        backup(&storage, &similar, &cfg, &file, 0, &input);
        let out = backup(&storage, &similar, &cfg, &file, 1, &input);
        let recipe = storage.get_recipe(&file, VersionId(1)).unwrap();
        let total_refs: u64 = out.container_refs.values().sum();
        assert_eq!(total_refs, recipe.record_count() as u64);
    }
}
