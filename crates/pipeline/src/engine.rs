//! The sharded ingestion engine.

use crate::config::{PipelineConfig, PipelineError};
use crate::ring;
use dpmg_sketch::merge::{merge, merge_tree};
use dpmg_sketch::misra_gries::MisraGries;
use dpmg_sketch::traits::{Item, Summary};
use std::hash::{Hash, Hasher};
use std::thread::JoinHandle;

/// FNV-1a, fixed offset basis and prime. `std::hash::DefaultHasher` makes
/// no cross-version stability promise, and the shard assignment must be a
/// *fixed* function of the key — it is part of the privacy argument and of
/// the deterministic-replay tests — so the hash is pinned here.
struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    // The default integer methods feed native-endian bytes into `write`,
    // which would make the digest differ across architectures; pin every
    // integer to little-endian (usize widened to u64 so 32- and 64-bit
    // hosts agree too).
    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }

    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }

    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }

    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }

    fn write_usize(&mut self, i: usize) {
        self.write(&(i as u64).to_le_bytes());
    }
}

/// The shard a key routes to among `shards`: a fixed (FNV-1a) hash of the
/// key alone, never of arrival position. It is the pipeline's only router,
/// the fleet's partition of the global shard space, and what tests and
/// sequential references call to replicate either exactly.
pub fn shard_of_key<K: Hash + ?Sized>(key: &K, shards: usize) -> usize {
    debug_assert!(shards >= 1);
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    key.hash(&mut h);
    (h.finish() % shards as u64) as usize
}

/// Convenience for tests and experiments: the sequential reference of a
/// hash-sharded run — partition `stream` with [`crate::shard_of_key`],
/// sketch each shard inline, and merge with the same tree shape the
/// pipeline uses. A correctly functioning pipeline produces *identical*
/// per-shard summaries and merged summary.
///
/// # Panics
///
/// Panics if `shards = 0` or `k = 0`.
pub fn sequential_sharded_reference<K: Item>(
    stream: &[K],
    shards: usize,
    k: usize,
) -> (Vec<Summary<K>>, Summary<K>) {
    assert!(shards >= 1, "shards must be ≥ 1");
    let mut sketches: Vec<MisraGries<K>> = (0..shards)
        .map(|_| MisraGries::new(k).expect("k validated by caller"))
        .collect();
    for item in stream {
        sketches[shard_of_key(item, shards)].update(item.clone());
    }
    let summaries: Vec<Summary<K>> = sketches.iter().map(|s| s.summary()).collect();
    let merged = merge_tree(&summaries).unwrap_or_else(|| Summary::empty(k));
    (summaries, merged)
}

/// What the router sends a shard worker over the forward ring.
enum ToWorker<K> {
    /// A filled batch block; the worker sketches it and gives the cleared
    /// block back over the return ring.
    Batch(Vec<K>),
    /// Seal the epoch: reply with a clone of the sketch, then continue
    /// from an empty one.
    Rotate,
    /// Reply with a clone of the sketch and keep going.
    Capture,
}

/// Router-side endpoints of one resident shard worker: the forward ring
/// carrying batch blocks and seal messages to the worker, the return ring
/// yielding spent (cleared, capacity kept) blocks back for reuse, so the
/// router recycles instead of allocating per batch, and the reply ring on
/// which the worker answers each seal. Dropping a link disconnects all
/// three, which ends the worker's loop and unblocks any send it is in.
struct ShardLink<K: Item> {
    tx: ring::RingSender<ToWorker<K>>,
    spare: ring::RingReceiver<Vec<K>>,
    sealed: ring::RingReceiver<MisraGries<K>>,
}

impl<K: Item> ShardLink<K> {
    /// A block ready for filling: a recycled one off the return ring when
    /// available (the steady state — no allocation), else a fresh
    /// allocation (cold start, or a worker that died with blocks in hand).
    fn recycled(&mut self, min_capacity: usize) -> Vec<K> {
        let Ok(block) = self.spare.try_recv() else {
            return Vec::with_capacity(min_capacity);
        };
        debug_assert!(block.is_empty(), "workers return cleared blocks");
        block
    }
}

/// Ingestion counters, available any time; per-shard stream lengths are
/// populated by [`ShardedPipeline::finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineStats {
    /// Items ingested so far.
    pub items: u64,
    /// Batches handed to workers so far.
    pub batches: u64,
    /// Per-shard stream lengths (empty until the pipeline finishes).
    pub shard_stream_lens: Vec<u64>,
}

/// A sharded, batched streaming ingestion engine over `S` worker threads,
/// each running one Misra-Gries sketch; see the crate docs for the
/// architecture and the privacy argument.
///
/// The end state of the pipeline is a deterministic function of the
/// ingested stream and the configuration — routing is a fixed function of
/// the key, each worker applies its batches in send order, and the merge
/// tree shape is fixed — so results are reproducible regardless of thread
/// scheduling.
pub struct ShardedPipeline<K: Item + Send + 'static> {
    config: PipelineConfig,
    buffers: Vec<Vec<K>>,
    links: Vec<ShardLink<K>>,
    workers: Vec<JoinHandle<MisraGries<K>>>,
    items: u64,
    batches: u64,
    shard_lens: Vec<u64>,
    summaries: Option<Vec<Summary<K>>>,
    /// Merged summary of shard generations retired by [`Self::reshard`]
    /// within the current epoch (Lemma 17: merging is associative on the
    /// summary semantics, so the retired shards' contribution is carried as
    /// one summary and folded into [`Self::merged`]). `None` between
    /// epochs and after every rotation.
    carry: Option<Summary<K>>,
    /// First shard whose worker panicked; once set, every finish/summary
    /// call keeps failing instead of serving partial results.
    poisoned: Option<usize>,
}

impl<K: Item + Send + 'static> ShardedPipeline<K> {
    /// One empty sketch per shard.
    fn fresh_sketches(config: &PipelineConfig) -> Result<Vec<MisraGries<K>>, PipelineError> {
        Ok((0..config.shards)
            .map(|_| MisraGries::new(config.k))
            .collect::<Result<Vec<_>, _>>()?)
    }

    /// Spawns a new worker generation, one resident worker per sketch,
    /// each continuing from the given sketch state — fresh workers are the
    /// `MisraGries::new` special case. The previous generation must
    /// already be retired.
    ///
    /// A generation lives until [`Self::reshard`] or drop: finishing,
    /// epoch rotations and checkpoints are seal messages on the forward
    /// ring, answered over the reply ring, so they spawn nothing.
    fn spawn_workers(&mut self, sketches: Vec<MisraGries<K>>) {
        let config = self.config;
        debug_assert_eq!(sketches.len(), config.shards);
        debug_assert!(self.links.is_empty() && self.workers.is_empty());
        for (shard, mut sketch) in sketches.into_iter().enumerate() {
            let (tx, mut rx) = ring::bounded::<ToWorker<K>>(config.channel_capacity);
            // Return-ring sizing: per shard at most `capacity + 3` blocks
            // ever circulate (the router mints one only when the return
            // ring is empty at dispatch, and at that moment the buffer,
            // forward ring and worker hold ≤ capacity + 2 of them), so with
            // the worker holding one and the router's buffer another,
            // return occupancy never exceeds `capacity + 2`: the worker's
            // give-back below can never block. Seal messages take forward
            // slots but carry no block, so they only lower that count.
            let (mut ret_tx, spare) = ring::bounded::<Vec<K>>(config.channel_capacity + 2);
            // The router waits for each seal's reply before sending the
            // next seal, so one reply cell suffices and the worker's reply
            // never blocks.
            let (mut reply_tx, sealed) = ring::bounded::<MisraGries<K>>(1);
            let handle = std::thread::Builder::new()
                .name(format!("dpmg-shard-{shard}"))
                .spawn(move || {
                    // A failed give-back or reply means the router is gone
                    // (teardown): recycling and replies are then moot.
                    while let Ok(message) = rx.recv() {
                        match message {
                            ToWorker::Batch(mut block) => {
                                sketch.extend_batch(&block);
                                block.clear();
                                let _ = ret_tx.send(block);
                            }
                            ToWorker::Rotate => {
                                let _ = reply_tx.send(sketch.clone());
                                sketch.clear();
                            }
                            ToWorker::Capture => {
                                let _ = reply_tx.send(sketch.clone());
                            }
                        }
                    }
                    sketch
                })
                .expect("spawn shard worker thread");
            self.links.push(ShardLink { tx, spare, sealed });
            self.workers.push(handle);
        }
    }

    /// Spawns the shard workers.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] for invalid structural parameters or an
    /// invalid sketch size.
    pub fn new(config: PipelineConfig) -> Result<Self, PipelineError> {
        config.validate()?;
        let sketches = Self::fresh_sketches(&config)?;
        Self::with_initial_sketches(config, sketches, 0, None)
    }

    /// Spawns the shard workers **continuing from restored sketch states**
    /// — the crash-recovery path: `sketches` are a checkpoint's per-shard
    /// states (one per shard, same `k`), `items` the open epoch's item
    /// count at the checkpoint, and `carry` the retired-generation summary
    /// if the epoch had been live-resharded before the checkpoint. The
    /// rebuilt pipeline's epoch observables (merged summary, item counter)
    /// continue exactly where the captured pipeline stopped.
    ///
    /// # Errors
    ///
    /// [`PipelineError`] for invalid structural parameters, a sketch count
    /// that does not match `config.shards`, or a sketch whose `k` differs
    /// from the configuration.
    pub fn with_initial_sketches(
        config: PipelineConfig,
        sketches: Vec<MisraGries<K>>,
        items: u64,
        carry: Option<Summary<K>>,
    ) -> Result<Self, PipelineError> {
        config.validate()?;
        if sketches.len() != config.shards {
            return Err(PipelineError::InvalidShards(sketches.len()));
        }
        if sketches.iter().any(|s| s.k() != config.k) {
            return Err(PipelineError::Sketch(
                dpmg_sketch::traits::SketchError::Corrupt(
                    "restored sketch k does not match the pipeline configuration",
                ),
            ));
        }
        let mut pipe = Self {
            buffers: vec![Vec::with_capacity(config.batch_size); config.shards],
            links: Vec::with_capacity(config.shards),
            workers: Vec::with_capacity(config.shards),
            items,
            batches: 0,
            shard_lens: Vec::new(),
            summaries: None,
            carry,
            poisoned: None,
            config,
        };
        pipe.spawn_workers(sketches);
        Ok(pipe)
    }

    /// The configuration in use.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Ingestion counters.
    pub fn stats(&self) -> PipelineStats {
        PipelineStats {
            items: self.items,
            batches: self.batches,
            shard_stream_lens: self.shard_lens.clone(),
        }
    }

    fn dispatch(&mut self, shard: usize) -> Result<(), PipelineError> {
        if self.buffers[shard].is_empty() {
            return Ok(());
        }
        // Swap in a recycled block off the shard's return path (steady
        // state: no allocation) before handing the filled one over.
        let fresh = self.links[shard].recycled(self.config.batch_size);
        let batch = std::mem::replace(&mut self.buffers[shard], fresh);
        self.batches += 1;
        if self.links[shard].tx.send(ToWorker::Batch(batch)).is_err() {
            // The receiver is gone, so the worker panicked; the batch is
            // lost and the pipeline must not pretend otherwise later.
            return Err(self.poison(shard));
        }
        Ok(())
    }

    /// Routes one item to its shard, flushing that shard's batch when full.
    ///
    /// # Errors
    ///
    /// [`PipelineError::AlreadyFinished`] after [`Self::finish`];
    /// [`PipelineError::WorkerPanicked`] if the receiving worker died.
    pub fn ingest(&mut self, item: K) -> Result<(), PipelineError> {
        if self.summaries.is_some() {
            return Err(PipelineError::AlreadyFinished);
        }
        self.ingest_unchecked(item)
    }

    /// [`Self::ingest`] without the finished check, for loops that have
    /// already performed it.
    #[inline]
    fn ingest_unchecked(&mut self, item: K) -> Result<(), PipelineError> {
        let shard = shard_of_key(&item, self.config.shards);
        self.buffers[shard].push(item);
        self.items += 1;
        if self.buffers[shard].len() >= self.config.batch_size {
            self.dispatch(shard)?;
        }
        Ok(())
    }

    /// Ingests a whole stream. The finished check is hoisted out of the
    /// loop — one check per call, not per item; worker-panic errors still
    /// surface per dispatched batch, exactly as on the per-item path.
    ///
    /// # Errors
    ///
    /// As [`Self::ingest`].
    pub fn ingest_from(&mut self, items: impl IntoIterator<Item = K>) -> Result<(), PipelineError> {
        if self.summaries.is_some() {
            return Err(PipelineError::AlreadyFinished);
        }
        for item in items {
            self.ingest_unchecked(item)?;
        }
        Ok(())
    }

    /// Seals the open epoch and caches its per-shard summaries and stream
    /// lengths: flushes the partial batches and sends each worker a
    /// `Rotate` message behind its last block; each worker replies with a
    /// clone of its sketch and clears the sketch in place.
    /// The workers stay resident, idle until [`Self::rotate_epoch`] reopens
    /// the pipeline, and are joined on drop. Ingestion is refused until
    /// then. Idempotent on success; after a worker panic the pipeline is
    /// poisoned and every further call keeps returning the error rather
    /// than serving partial results. Called implicitly by the summary
    /// accessors.
    ///
    /// # Errors
    ///
    /// [`PipelineError::WorkerPanicked`] if any worker died.
    pub fn finish(&mut self) -> Result<(), PipelineError> {
        if let Some(shard) = self.poisoned {
            return Err(PipelineError::WorkerPanicked { shard });
        }
        if self.summaries.is_some() {
            return Ok(());
        }
        let sketches = self.seal(|| ToWorker::Rotate)?;
        self.shard_lens = sketches.iter().map(|s| s.stream_len()).collect();
        self.summaries = Some(sketches.iter().map(|s| s.summary()).collect());
        Ok(())
    }

    /// Per-shard summaries in shard order (finishing ingestion first).
    ///
    /// # Errors
    ///
    /// As [`Self::finish`].
    pub fn shard_summaries(&mut self) -> Result<&[Summary<K>], PipelineError> {
        self.finish()?;
        Ok(self.summaries.as_deref().expect("populated by finish"))
    }

    /// The pre-noise merged summary: binary merge tree over the shard
    /// summaries (finishing ingestion first), folded with the
    /// [`Self::reshard`] carry when the epoch was live-resharded. This is
    /// NOT private: it is the input of the one DP release
    /// (`release_merged_metered` in `dpmg-core`), and the quantity the
    /// Lemma 17 / Corollary 18 invariant tests inspect.
    ///
    /// # Errors
    ///
    /// As [`Self::finish`].
    pub fn merged(&mut self) -> Result<Summary<K>, PipelineError> {
        let k = self.config.k;
        let carry = self.carry.clone();
        let summaries = self.shard_summaries()?;
        let shard_merged = merge_tree(summaries).unwrap_or_else(|| Summary::empty(k));
        Ok(match carry {
            Some(c) => merge(&c, &shard_merged),
            None => shard_merged,
        })
    }

    /// The retired-generation carry summary of the current epoch, if a
    /// [`Self::reshard`] happened mid-epoch (see the field docs). Exposed
    /// so checkpoints can persist it and sequential references replicate
    /// the merge shape.
    pub fn carry(&self) -> Option<&Summary<K>> {
        self.carry.as_ref()
    }

    /// The epoch hook: seals the in-flight epoch ([`Self::finish`], unless
    /// the caller already did) and returns its pre-noise merged summary
    /// together with the epoch's ingestion counters, then reopens the
    /// pipeline for the next epoch. The resident workers have already
    /// cleared their sketches in place when they answered the seal, so
    /// ingestion continues immediately: no thread is spawned or joined and
    /// no buffer is reallocated.
    ///
    /// The returned summary is NOT private — it is the release input the
    /// epoch's DP mechanism will noise (`dpmg-service` routes it through the
    /// mechanism registry). Counters restart at zero for the new epoch, so
    /// [`Self::stats`] is always per-epoch after the first rotation.
    ///
    /// # Errors
    ///
    /// As [`Self::finish`]; a poisoned pipeline stays poisoned and cannot
    /// rotate.
    pub fn rotate_epoch(&mut self) -> Result<(Summary<K>, PipelineStats), PipelineError> {
        let merged = self.merged()?;
        let stats = self.stats();
        self.items = 0;
        self.batches = 0;
        self.shard_lens = Vec::new();
        self.summaries = None;
        self.carry = None;
        Ok((merged, stats))
    }

    /// Live elastic resharding: retires the current shard generation by
    /// **merging** its summaries into the epoch's carry (Lemma 17/29 —
    /// merging preserves the summary semantics, so not one item's
    /// contribution is lost), re-splits the FNV key-hash routing over
    /// `new_shards`, and respawns fresh workers at the new width.
    ///
    /// The epoch in flight continues: [`Self::merged`] for this epoch is
    /// `merge(carry, merge_tree(new-generation summaries))`, and by the
    /// shape-independence of the merged sensitivity (Corollary 18) the
    /// release distribution of the epoch is unchanged — which is what makes
    /// this a *runtime* operation rather than a drain-and-restart. Item and
    /// batch counters span the reshard (they are epoch-scoped).
    ///
    /// At an epoch boundary (no items ingested yet) the retired generation
    /// is empty and no carry is created: the reshard is then exactly a
    /// routing re-split plus worker respawn.
    ///
    /// Callers that perform DP releases must gate this on a merged-
    /// calibrated mechanism (`dpmg-service` refuses otherwise): after a
    /// mid-epoch reshard the epoch summary is a merge even at one shard.
    ///
    /// # Errors
    ///
    /// Any [`PipelineConfig::validate`] error of the configuration at
    /// `new_shards` ([`PipelineError::InvalidShards`] for `new_shards = 0`),
    /// refused before any worker is touched;
    /// [`PipelineError::AlreadyFinished`] after [`Self::finish`]; worker
    /// panics as [`Self::finish`]. A poisoned pipeline stays poisoned.
    pub fn reshard(&mut self, new_shards: usize) -> Result<(), PipelineError> {
        let resharded = PipelineConfig {
            shards: new_shards,
            ..self.config
        };
        resharded.validate()?;
        if let Some(shard) = self.poisoned {
            return Err(PipelineError::WorkerPanicked { shard });
        }
        if self.summaries.is_some() {
            return Err(PipelineError::AlreadyFinished);
        }
        let retired = self.retire_workers()?;
        let retired_summaries: Vec<Summary<K>> =
            retired.iter().map(|sketch| sketch.summary()).collect();
        let shard_merged =
            merge_tree(&retired_summaries).unwrap_or_else(|| Summary::empty(self.config.k));
        if !shard_merged.is_empty() {
            self.carry = Some(match self.carry.take() {
                Some(c) => merge(&c, &shard_merged),
                None => shard_merged,
            });
        }
        self.config = resharded;
        self.spawn_workers(Self::fresh_sketches(&self.config)?);
        self.buffers = vec![Vec::with_capacity(self.config.batch_size); self.config.shards];
        self.shard_lens = Vec::new();
        Ok(())
    }

    /// Captures the full per-shard sketch states of the open epoch — the
    /// checkpoint hook. Flushes the partial batches and sends each worker a
    /// `Capture` message behind its last block; each worker replies with a
    /// clone of its sketch and keeps ingesting from where it stopped. No
    /// thread is spawned or joined. The returned states (plus
    /// [`Self::carry`] and the item counter) are everything a restore
    /// needs to rebuild this pipeline via [`Self::with_initial_sketches`]
    /// bit-identically.
    ///
    /// The captured states are **pre-noise** data: they must stay inside
    /// the operator's trust boundary, like the raw stream.
    ///
    /// # Errors
    ///
    /// [`PipelineError::AlreadyFinished`] after [`Self::finish`];
    /// [`PipelineError::WorkerPanicked`] if a worker died, after which the
    /// pipeline stays poisoned.
    pub fn checkpoint_sketches(&mut self) -> Result<Vec<MisraGries<K>>, PipelineError> {
        self.seal(|| ToWorker::Capture)
    }

    /// Flushes every shard's partial batch, sends each worker the seal
    /// message behind it, and collects the replies in shard order. The
    /// workers stay resident. All shards seal concurrently: every message
    /// is sent before the first reply is awaited.
    fn seal(&mut self, message: fn() -> ToWorker<K>) -> Result<Vec<MisraGries<K>>, PipelineError> {
        if let Some(shard) = self.poisoned {
            return Err(PipelineError::WorkerPanicked { shard });
        }
        if self.summaries.is_some() {
            return Err(PipelineError::AlreadyFinished);
        }
        for shard in 0..self.config.shards {
            self.dispatch(shard)?;
            if self.links[shard].tx.send(message()).is_err() {
                return Err(self.poison(shard));
            }
        }
        let mut replies = Vec::with_capacity(self.config.shards);
        for shard in 0..self.config.shards {
            match self.links[shard].sealed.recv() {
                Ok(reply) => replies.push(reply),
                // The worker dropped its reply sender without answering:
                // it panicked on a block queued ahead of the seal.
                Err(_) => return Err(self.poison(shard)),
            }
        }
        Ok(replies)
    }

    /// The current worker generation's thread ids, in shard order — the
    /// residency tests' view of which threads exist.
    #[cfg(test)]
    fn worker_thread_ids(&self) -> Vec<std::thread::ThreadId> {
        self.workers.iter().map(|h| h.thread().id()).collect()
    }

    /// Marks the pipeline poisoned by `shard`'s dead worker and returns the
    /// error every later call will keep reporting.
    fn poison(&mut self, shard: usize) -> PipelineError {
        self.poisoned = Some(shard);
        PipelineError::WorkerPanicked { shard }
    }

    /// Flushes buffers, closes the channels, and joins the current worker
    /// generation, returning the sketches in shard order — the retiring
    /// half of [`Self::reshard`]. The pipeline is left without workers;
    /// the caller must respawn before further ingestion.
    fn retire_workers(&mut self) -> Result<Vec<MisraGries<K>>, PipelineError> {
        for shard in 0..self.config.shards {
            self.dispatch(shard)?;
        }
        self.links.clear(); // disconnects the forward paths, ending the workers
        let mut sketches = Vec::with_capacity(self.config.shards);
        let mut first_panic = None;
        for (shard, handle) in self.workers.drain(..).enumerate() {
            // Join every worker even after a panic so no thread leaks.
            match handle.join() {
                Ok(sketch) => sketches.push(sketch),
                Err(_) => {
                    let _ = first_panic.get_or_insert(shard);
                }
            }
        }
        if let Some(shard) = first_panic {
            return Err(self.poison(shard));
        }
        Ok(sketches)
    }
}

impl<K: Item + Send + 'static> Drop for ShardedPipeline<K> {
    /// Closes the channels and joins the resident workers so an abandoned
    /// pipeline never leaks threads. Join failures are ignored — the
    /// worker's panic has already been reported through a failed send or
    /// seal reply, if anyone was listening.
    fn drop(&mut self) {
        self.links.clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpmg_core::mechanism::{release_merged_metered, GshmMechanism};
    use dpmg_noise::accounting::{Accountant, PrivacyParams};
    use rand::SeedableRng;

    /// Releases the pipeline's merged summary once through the guarded,
    /// metered `dpmg-core` path with GSHM, and checks the release was
    /// charged exactly once.
    fn release_once(pipe: &mut ShardedPipeline<u64>, seed: u64) {
        let params = PrivacyParams::new(0.9, 1e-8).unwrap();
        let mechanism = GshmMechanism::new(params).unwrap();
        let mut accountant = Accountant::new(params);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let merged = pipe.merged().unwrap();
        release_merged_metered(&mechanism, &merged, &mut accountant, &mut rng).unwrap();
        assert_eq!(accountant.charges(), 1);
    }

    /// A key whose equality check panics when both sides are [`Self::BOMB`]
    /// — that is, on the sketch table probe of a repeated sentinel. The
    /// router only hashes keys, so the panic fires inside a worker's
    /// `extend_batch`.
    #[derive(Debug, Clone, PartialOrd, Ord)]
    struct Bomb(u64);

    impl Bomb {
        const BOMB: u64 = u64::MAX;
    }

    impl PartialEq for Bomb {
        fn eq(&self, other: &Self) -> bool {
            assert!(
                self.0 != Self::BOMB || other.0 != Self::BOMB,
                "sentinel key compared"
            );
            self.0 == other.0
        }
    }

    impl Eq for Bomb {}

    impl Hash for Bomb {
        fn hash<H: Hasher>(&self, state: &mut H) {
            self.0.hash(state);
        }
    }

    /// A two-shard pipeline whose sentinel shard's worker has panicked on
    /// a repeated sentinel, and the index of that shard.
    fn pipeline_with_dead_worker() -> (ShardedPipeline<Bomb>, usize) {
        let mut pipe =
            ShardedPipeline::<Bomb>::new(PipelineConfig::new(2, 8).with_batch_size(4)).unwrap();
        let dead = shard_of_key(&Bomb(Bomb::BOMB), 2);
        pipe.ingest_from((0..40).map(Bomb)).unwrap();
        // Nothing else routes to that shard between the two sentinels, so
        // the second one's table probe finds the first and compares them.
        pipe.ingest_from([Bomb(Bomb::BOMB), Bomb(Bomb::BOMB)])
            .unwrap();
        (pipe, dead)
    }

    /// Every operation that waits on the workers, as `(name, call)`.
    type Op = (
        &'static str,
        fn(&mut ShardedPipeline<Bomb>) -> Result<(), PipelineError>,
    );
    const WAITING_OPS: [Op; 5] = [
        ("rotate_epoch", |p| p.rotate_epoch().map(drop)),
        ("checkpoint_sketches", |p| p.checkpoint_sketches().map(drop)),
        ("finish", ShardedPipeline::finish),
        ("merged", |p| p.merged().map(drop)),
        ("reshard", |p| p.reshard(3)),
    ];

    #[test]
    fn worker_panic_poisons_every_waiting_operation() {
        // Whichever operation first meets the dead worker reports it, and
        // every operation after it keeps reporting it.
        for (first, op) in WAITING_OPS {
            let (mut pipe, dead) = pipeline_with_dead_worker();
            for (name, then) in std::iter::once((first, op)).chain(WAITING_OPS) {
                match then(&mut pipe) {
                    Err(PipelineError::WorkerPanicked { shard }) => {
                        assert_eq!(shard, dead, "{first} then {name}");
                    }
                    other => panic!("{first} then {name}: expected WorkerPanicked, got {other:?}"),
                }
            }
            assert_eq!(
                pipe.config().shards,
                2,
                "a poisoned reshard changes nothing"
            );
        }
    }

    #[test]
    fn dropping_a_pipeline_with_a_dead_worker_returns() {
        // Once without touching the dead worker, once after a seal saw it:
        // drop must join every thread and return in both cases.
        let (pipe, _) = pipeline_with_dead_worker();
        drop(pipe);
        let (mut pipe, _) = pipeline_with_dead_worker();
        assert!(pipe.rotate_epoch().is_err());
        drop(pipe);
    }

    #[test]
    fn workers_stay_resident_across_rotations_and_checkpoints() {
        let mut pipe =
            ShardedPipeline::<u64>::new(PipelineConfig::new(3, 8).with_batch_size(7)).unwrap();
        let born = pipe.worker_thread_ids();
        assert_eq!(born.len(), 3);
        for epoch in 0..50u64 {
            pipe.ingest_from((0..100u64).map(|i| epoch * 7 + i % 13))
                .unwrap();
            assert_eq!(pipe.checkpoint_sketches().unwrap().len(), 3);
            let (_, stats) = pipe.rotate_epoch().unwrap();
            assert_eq!(stats.items, 100);
            assert_eq!(pipe.worker_thread_ids(), born, "epoch {epoch}");
        }
        pipe.reshard(3).unwrap();
        let resharded = pipe.worker_thread_ids();
        assert_eq!(resharded.len(), 3);
        assert!(
            resharded.iter().all(|id| !born.contains(id)),
            "reshard respawns the generation"
        );
    }

    #[test]
    fn shard_of_key_is_stable_and_in_range() {
        // Pinned values: the routing is part of the on-the-wire contract
        // (a re-shard would silently change every per-shard substream).
        assert_eq!(shard_of_key(&0u64, 8), shard_of_key(&0u64, 8));
        for key in 0u64..1000 {
            assert!(shard_of_key(&key, 8) < 8);
            assert_eq!(shard_of_key(&key, 1), 0);
        }
        // All 8 shards are hit by a modest universe.
        let hit: std::collections::BTreeSet<usize> =
            (0u64..1000).map(|key| shard_of_key(&key, 8)).collect();
        assert_eq!(hit.len(), 8);
    }

    #[test]
    fn invalid_configs_fail_construction() {
        assert!(ShardedPipeline::<u64>::new(PipelineConfig::new(0, 8)).is_err());
        assert!(ShardedPipeline::<u64>::new(PipelineConfig::new(2, 0)).is_err());
        assert!(ShardedPipeline::<u64>::new(PipelineConfig::new(2, 8).with_batch_size(0)).is_err());
    }

    #[test]
    fn empty_pipeline_finishes_clean() {
        let mut pipe = ShardedPipeline::<u64>::new(PipelineConfig::new(3, 8)).unwrap();
        assert_eq!(pipe.merged().unwrap(), Summary::empty(8));
        let stats = pipe.stats();
        assert_eq!(stats.items, 0);
        assert_eq!(stats.batches, 0);
        assert_eq!(stats.shard_stream_lens, vec![0, 0, 0]);
    }

    #[test]
    fn ingest_after_finish_is_rejected() {
        let mut pipe = ShardedPipeline::<u64>::new(PipelineConfig::new(2, 8)).unwrap();
        pipe.ingest(1).unwrap();
        pipe.finish().unwrap();
        assert!(matches!(
            pipe.ingest(2),
            Err(PipelineError::AlreadyFinished)
        ));
        // finish stays idempotent and the summaries stable.
        pipe.finish().unwrap();
        assert_eq!(pipe.stats().items, 1);
    }

    #[test]
    fn rotate_epoch_resets_state_and_matches_per_epoch_reference() {
        let mut pipe =
            ShardedPipeline::<u64>::new(PipelineConfig::new(3, 8).with_batch_size(7)).unwrap();
        // Epoch 1: keys 0..500; epoch 2: keys 500..800 — summaries must be
        // exactly what a fresh pipeline over each slice alone produces.
        pipe.ingest_from((0..500u64).map(|i| i % 13)).unwrap();
        let (merged1, stats1) = pipe.rotate_epoch().unwrap();
        assert_eq!(stats1.items, 500);
        assert_eq!(stats1.shard_stream_lens.iter().sum::<u64>(), 500);

        pipe.ingest_from((0..300u64).map(|i| 100 + i % 7)).unwrap();
        let (merged2, stats2) = pipe.rotate_epoch().unwrap();
        assert_eq!(stats2.items, 300, "counters must restart per epoch");

        let mut fresh1 = ShardedPipeline::<u64>::new(PipelineConfig::new(3, 8)).unwrap();
        fresh1.ingest_from((0..500u64).map(|i| i % 13)).unwrap();
        assert_eq!(merged1, fresh1.merged().unwrap());
        let mut fresh2 = ShardedPipeline::<u64>::new(PipelineConfig::new(3, 8)).unwrap();
        fresh2
            .ingest_from((0..300u64).map(|i| 100 + i % 7))
            .unwrap();
        assert_eq!(merged2, fresh2.merged().unwrap());

        // The rotated pipeline is still fully usable, including release.
        pipe.ingest_from(std::iter::repeat_n(7u64, 1000)).unwrap();
        release_once(&mut pipe, 2);
    }

    #[test]
    fn reshard_at_epoch_boundary_is_pure_respawn() {
        let mut pipe = ShardedPipeline::<u64>::new(PipelineConfig::new(1, 8)).unwrap();
        pipe.reshard(4).unwrap();
        assert_eq!(pipe.config().shards, 4);
        assert!(
            pipe.carry().is_none(),
            "boundary reshard must not create a carry"
        );
        pipe.ingest_from((0..500u64).map(|i| i % 13)).unwrap();
        let merged = pipe.merged().unwrap();
        // Identical to a pipeline born at 4 shards.
        let mut fresh = ShardedPipeline::<u64>::new(PipelineConfig::new(4, 8)).unwrap();
        fresh.ingest_from((0..500u64).map(|i| i % 13)).unwrap();
        assert_eq!(merged, fresh.merged().unwrap());
    }

    #[test]
    fn mid_epoch_reshard_chain_loses_no_items() {
        // 1 → 2 → 8 with items in flight at every step: the carry preserves
        // every retired generation's contribution, the item counter spans
        // the reshards, and the final merged summary is a sound Lemma 17
        // merge over all generations.
        let stream: Vec<u64> = (0..900u64).map(|i| i % 17).collect();
        let mut pipe =
            ShardedPipeline::<u64>::new(PipelineConfig::new(1, 16).with_batch_size(7)).unwrap();
        pipe.ingest_from(stream[..300].iter().copied()).unwrap();
        pipe.reshard(2).unwrap();
        assert!(pipe.carry().is_some());
        pipe.ingest_from(stream[300..600].iter().copied()).unwrap();
        pipe.reshard(8).unwrap();
        pipe.ingest_from(stream[600..].iter().copied()).unwrap();
        assert_eq!(pipe.stats().items, 900);
        let merged = pipe.merged().unwrap();
        // Conservation: the merged counter mass accounts for every item up
        // to the merge error (counts only ever shrink, never appear).
        let total: u64 = merged.entries.values().sum();
        assert!(total <= 900);
        assert!(total > 0);
        // Heavy keys survive: each of the 17 keys appears ~53 times with
        // k = 16 ≫ distinct keys per shard, so estimates stay positive.
        assert!(merged.entries.contains_key(&0));
        // The epoch after the reshard chain starts clean.
        let (_, stats) = pipe.rotate_epoch().unwrap();
        assert_eq!(stats.items, 900);
        assert!(pipe.carry().is_none());
        assert_eq!(pipe.stats().items, 0);
    }

    #[test]
    fn reshard_rejects_zero_and_finished() {
        let mut pipe = ShardedPipeline::<u64>::new(PipelineConfig::new(2, 8)).unwrap();
        assert!(matches!(
            pipe.reshard(0),
            Err(PipelineError::InvalidShards(0))
        ));
        pipe.finish().unwrap();
        assert!(matches!(
            pipe.reshard(4),
            Err(PipelineError::AlreadyFinished)
        ));
    }

    #[test]
    fn checkpoint_sketches_capture_and_resume() {
        let stream: Vec<u64> = (0..700u64).map(|i| i % 11).collect();
        let mut pipe =
            ShardedPipeline::<u64>::new(PipelineConfig::new(3, 8).with_batch_size(13)).unwrap();
        pipe.ingest_from(stream[..400].iter().copied()).unwrap();
        let states = pipe.checkpoint_sketches().unwrap();
        assert_eq!(states.len(), 3);
        assert_eq!(states.iter().map(|s| s.stream_len()).sum::<u64>(), 400);

        // The checkpointed pipeline keeps ingesting unharmed…
        pipe.ingest_from(stream[400..].iter().copied()).unwrap();
        let live_merged = pipe.merged().unwrap();
        assert_eq!(pipe.stats().items, 700);

        // …and a pipeline rebuilt from the captured states converges to the
        // identical epoch state over the remaining items.
        let mut rebuilt = ShardedPipeline::with_initial_sketches(
            PipelineConfig::new(3, 8).with_batch_size(13),
            states,
            400,
            None,
        )
        .unwrap();
        rebuilt.ingest_from(stream[400..].iter().copied()).unwrap();
        assert_eq!(rebuilt.stats().items, 700);
        assert_eq!(rebuilt.merged().unwrap(), live_merged);
    }

    #[test]
    fn with_initial_sketches_validates_shape() {
        let states = vec![MisraGries::<u64>::new(8).unwrap()];
        // Wrong sketch count for a 2-shard config.
        assert!(
            ShardedPipeline::with_initial_sketches(PipelineConfig::new(2, 8), states, 0, None)
                .is_err()
        );
        // Wrong k.
        let states = vec![MisraGries::<u64>::new(4).unwrap()];
        assert!(
            ShardedPipeline::with_initial_sketches(PipelineConfig::new(1, 8), states, 0, None)
                .is_err()
        );
    }
}
