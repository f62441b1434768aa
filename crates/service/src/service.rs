//! The epoch-driven query-serving layer.

use crate::config::{ServiceConfig, ServiceError, ServiceMode};
use crate::snapshot::{QueryHandle, ReleasedSnapshot, SnapshotNode};
use dpmg_core::continual::ContinualRelease;
use dpmg_core::mechanism::{release_metered, ReleaseError, ReleaseMechanism, SensitivityModel};
use dpmg_core::pmg::PrivateHistogram;
use dpmg_noise::accounting::{Accountant, BudgetExceeded, PrivacyParams};
use dpmg_pipeline::{PipelineStats, ShardedPipeline};
use dpmg_sketch::merge::merge_many;
use dpmg_sketch::traits::{Item, Summary};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// The trusted record of one completed epoch (DESIGN.md §1): only
/// `histogram` is released output.
///
/// `pre_noise` is the release *input* (the epoch's merged summary) — it is
/// **not** private and exists for error accounting and the statistical
/// regression suite, exactly like
/// [`ShardedPipeline::merged`](dpmg_pipeline::ShardedPipeline::merged);
/// do not ship a record across a privacy boundary.
#[derive(Debug, Clone)]
pub struct EpochRelease<K: Item> {
    /// Epoch index, 1-based.
    pub epoch: u64,
    /// Items ingested during this epoch.
    pub items: u64,
    /// The pre-noise merged summary the mechanism released (NOT private).
    pub pre_noise: Summary<K>,
    /// The epoch's released histogram (in continual mode: the level-0
    /// dyadic node covering exactly this epoch; in windowed mode: the
    /// window release over the last ≤ `window_epochs` epochs, whose
    /// `pre_noise` is the window's merged summary).
    pub histogram: PrivateHistogram<K>,
}

/// What happened to the epoch that was **open** (rotated into but not yet
/// released) when a persisted service state was written — returned by every
/// restore path so callers are never silently handed a service missing
/// in-flight data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenEpochStatus {
    /// The state held only *released* snapshots (the pre-WAL
    /// `save_state`/`restore` format): any items ingested after the last
    /// released epoch died with the process. The restored service starts a
    /// fresh, empty epoch — callers that cannot tolerate the loss must run
    /// the durable WAL path ([`crate::DurableService`]) instead.
    OpenEpochLost,
    /// Durable recovery replayed the open epoch from the write-ahead log:
    /// `items` in-flight items were reconstructed bit-identically.
    Replayed {
        /// Items in the reconstructed open epoch.
        items: u64,
    },
}

/// How many release records [`EpochCore`] keeps, oldest first. At least
/// the most any reader in the workspace reads back (5), and small enough
/// that the pre-noise state a serving process holds is O(16·k), not
/// O(k·epochs).
const TRANSCRIPT_RELEASES: usize = 16;

/// Which release engine the mode compiled to.
enum Engine<K: Item> {
    Independent {
        mechanism: Box<dyn ReleaseMechanism<K>>,
    },
    Continual {
        // Boxed: the dyadic tree is much larger than the other variant.
        tree: Box<ContinualRelease<K>>,
        max_epochs: u64,
    },
    Windowed {
        mechanism: Box<dyn ReleaseMechanism<K>>,
        /// The last ≤ `window_epochs` epoch `(summary, items)` pairs,
        /// oldest first — the window the next release merges.
        window: VecDeque<(Summary<K>, u64)>,
        window_epochs: u64,
    },
}

/// Everything below the ingestion engine: per-epoch release, budget
/// accounting, cumulative estimates, and the last
/// [`TRANSCRIPT_RELEASES`] epoch records. Shared
/// verbatim by [`DpmgService`] and
/// [`SequentialServiceReference`](crate::SequentialServiceReference) so the
/// differential tests compare exactly the ingestion paths.
pub(crate) struct EpochCore<K: Item> {
    k: usize,
    engine: Engine<K>,
    accountant: Accountant,
    rng: StdRng,
    cumulative: BTreeMap<K, f64>,
    completed_epochs: u64,
    released_items: u64,
    /// The last ≤ [`TRANSCRIPT_RELEASES`] releases, oldest first; each
    /// release evicts the oldest once it is full.
    transcript: Vec<EpochRelease<K>>,
    /// An epoch rotated out of the ingestion engine whose release failed
    /// (e.g. a calibration error); retried by the next `end_epoch`.
    pending: Option<(Summary<K>, u64)>,
}

impl<K: Item> EpochCore<K> {
    pub(crate) fn new(
        config: &ServiceConfig,
        mechanism: Box<dyn ReleaseMechanism<K>>,
        budget: PrivacyParams,
        seed: u64,
    ) -> Result<Self, ServiceError> {
        config.validate()?;
        // Merged summaries have the Corollary 18 neighbour structure, so
        // they may only be released by MergedOneSided-calibrated mechanisms
        // (the guard of release_merged_metered). Epochs are merges at
        // shards > 1; in continual mode the dyadic tree additionally
        // *merges epoch summaries into level ≥ 1 nodes at every shard
        // count*, and in windowed mode every release input is the merge
        // of the window's epoch summaries, so the guard must fire there
        // too. Only a single-shard Independent service admits the whole
        // registry.
        let releases_merged_summaries = config.shards > 1
            || matches!(
                config.mode,
                ServiceMode::Continual { .. } | ServiceMode::Windowed { .. }
            );
        if releases_merged_summaries
            && mechanism.sensitivity_model() != SensitivityModel::MergedOneSided
        {
            return Err(ServiceError::Release(ReleaseError::Unsupported {
                mechanism: mechanism.name(),
                reason: "multi-shard epoch summaries, continual-mode dyadic nodes, and \
                         windowed-mode window merges have the Corollary 18 merged \
                         neighbour structure; only MergedOneSided-calibrated mechanisms \
                         (gshm, merged-laplace) may serve them — use one of those, or a \
                         single-shard Independent service",
            }));
        }
        let mut accountant = Accountant::new(budget);
        let engine = match config.mode {
            ServiceMode::Independent => Engine::Independent { mechanism },
            ServiceMode::Continual { max_epochs } => {
                let tree = ContinualRelease::with_node_mechanism(config.k, max_epochs, mechanism)?;
                // The whole dyadic transcript costs the L-level composition,
                // paid up front: a service that could not afford its horizon
                // must fail loudly at construction, not at epoch 1.
                accountant
                    .charge(tree.params())
                    .map_err(|e| ServiceError::Release(ReleaseError::Budget(e)))?;
                Engine::Continual {
                    tree: Box::new(tree),
                    max_epochs,
                }
            }
            ServiceMode::Windowed { window_epochs } => Engine::Windowed {
                mechanism,
                window: VecDeque::new(),
                window_epochs,
            },
        };
        Ok(Self {
            k: config.k,
            engine,
            accountant,
            rng: StdRng::seed_from_u64(seed),
            cumulative: BTreeMap::new(),
            completed_epochs: 0,
            released_items: 0,
            transcript: Vec::new(),
            pending: None,
        })
    }

    pub(crate) fn accountant(&self) -> &Accountant {
        &self.accountant
    }

    pub(crate) fn completed_epochs(&self) -> u64 {
        self.completed_epochs
    }

    pub(crate) fn released_items(&self) -> u64 {
        self.released_items
    }

    pub(crate) fn transcript(&self) -> &[EpochRelease<K>] {
        &self.transcript
    }

    pub(crate) fn mechanism_name(&self) -> &'static str {
        match &self.engine {
            Engine::Independent { mechanism } => mechanism.name(),
            Engine::Continual { tree, .. } => tree.node_mechanism_name(),
            Engine::Windowed { mechanism, .. } => mechanism.name(),
        }
    }

    /// Restores persisted Independent-mode state (crash/restart path).
    pub(crate) fn resume(
        &mut self,
        cumulative: BTreeMap<K, f64>,
        completed_epochs: u64,
        released_items: u64,
        accountant: Accountant,
    ) {
        self.cumulative = cumulative;
        self.completed_epochs = completed_epochs;
        self.released_items = released_items;
        self.accountant = accountant;
    }

    /// The raw generator state, persisted by durable checkpoints so a
    /// recovered service re-draws the *identical* noise stream for every
    /// replayed and future release.
    pub(crate) fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Continues the noise stream from a checkpointed generator state
    /// (callers validate the state is non-degenerate before this).
    pub(crate) fn set_rng_state(&mut self, state: [u64; 4]) {
        self.rng = StdRng::from_state(state);
    }

    /// Whether a rotated epoch is parked awaiting a release retry. Pending
    /// summaries are pre-noise state the checkpoint format does not carry,
    /// so checkpoints refuse while one exists.
    pub(crate) fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// Whether every release this engine performs is calibrated for the
    /// Corollary 18 merged neighbour structure — the precondition for
    /// live resharding (a mid-epoch reshard turns the epoch summary into a
    /// merge even at one shard). Continual engines pass the construction
    /// guard, so they always qualify.
    pub(crate) fn releases_merged_only(&self) -> bool {
        match &self.engine {
            Engine::Independent { mechanism } => {
                mechanism.sensitivity_model() == SensitivityModel::MergedOneSided
            }
            // Continual and Windowed engines pass the construction guard,
            // so they always qualify.
            Engine::Continual { .. } | Engine::Windowed { .. } => true,
        }
    }

    /// Closes one epoch whose merged summary is produced by `rotate` (the
    /// ingestion engine's epoch hook). On a budget refusal the rotation is
    /// never invoked, so the epoch stays open and ingestion can continue.
    pub(crate) fn end_epoch(
        &mut self,
        rotate: impl FnOnce() -> Result<(Summary<K>, u64), ServiceError>,
    ) -> Result<ReleasedSnapshot<K>, ServiceError> {
        let (items, pre_noise, histogram) = match &mut self.engine {
            Engine::Independent { mechanism } => {
                let price = mechanism.privacy();
                if !self.accountant.can_afford(price) {
                    return Err(ServiceError::Release(ReleaseError::Budget(
                        BudgetExceeded {
                            requested: price,
                            remaining_epsilon: self.accountant.remaining_epsilon(),
                            remaining_delta: self.accountant.remaining_delta(),
                        },
                    )));
                }
                let (merged, items) = match self.pending.take() {
                    Some(stashed) => stashed,
                    None => rotate()?,
                };
                let histogram = match release_metered(
                    mechanism.as_ref(),
                    &merged,
                    &mut self.accountant,
                    &mut self.rng,
                ) {
                    Ok(h) => h,
                    Err(e) => {
                        // Keep the rotated epoch for a retry; nothing was
                        // charged.
                        self.pending = Some((merged, items));
                        return Err(e.into());
                    }
                };
                for (key, value) in histogram.iter() {
                    *self.cumulative.entry(key.clone()).or_insert(0.0) += value;
                }
                (items, merged, histogram)
            }
            Engine::Continual { tree, max_epochs } => {
                if tree.completed_epochs() >= *max_epochs {
                    return Err(ServiceError::HorizonExhausted {
                        max_epochs: *max_epochs,
                    });
                }
                let (merged, items) = match self.pending.take() {
                    Some(stashed) => stashed,
                    None => rotate()?,
                };
                let nodes_before = tree.transcript().len();
                if let Err(e) = tree.end_epoch_with_summary(merged.clone(), &mut self.rng) {
                    self.pending = Some((merged, items));
                    return Err(e.into());
                }
                // The level-0 node released this epoch covers exactly it.
                let epoch_node = tree.transcript()[nodes_before].histogram.clone();
                // Cumulative answers come from the open dyadic nodes.
                self.cumulative = tree
                    .candidate_keys()
                    .into_iter()
                    .map(|key| {
                        let est = tree.estimate(&key);
                        (key, est)
                    })
                    .collect();
                (items, merged, epoch_node)
            }
            Engine::Windowed {
                mechanism,
                window,
                window_epochs,
            } => {
                // Pre-check so a budget refusal never rotates: the epoch
                // stays open and ingestion can continue, like Independent.
                let price = mechanism.privacy();
                if !self.accountant.can_afford(price) {
                    return Err(ServiceError::Release(ReleaseError::Budget(
                        BudgetExceeded {
                            requested: price,
                            remaining_epsilon: self.accountant.remaining_epsilon(),
                            remaining_delta: self.accountant.remaining_delta(),
                        },
                    )));
                }
                let (summary, items) = match self.pending.take() {
                    Some(stashed) => stashed,
                    None => rotate()?,
                };
                // Slide the window: newest epoch in, epochs beyond W out.
                window.push_back((summary, items));
                while window.len() as u64 > *window_epochs {
                    window.pop_front();
                }
                let merged = merge_many(window.iter().map(|(s, _)| s))
                    .expect("window holds the epoch just pushed");
                let histogram = match release_metered(
                    mechanism.as_ref(),
                    &merged,
                    &mut self.accountant,
                    &mut self.rng,
                ) {
                    Ok(h) => h,
                    Err(e) => {
                        // Roll the epoch back out of the window and park it
                        // for a retry; nothing was charged.
                        let stashed = window.pop_back().expect("just pushed");
                        self.pending = Some(stashed);
                        return Err(e.into());
                    }
                };
                // Windowed queries answer over the window, not the whole
                // history: the release *replaces* the served estimates.
                self.cumulative = histogram
                    .iter()
                    .map(|(key, value)| (key.clone(), value))
                    .collect();
                (items, merged, histogram)
            }
        };
        self.completed_epochs += 1;
        self.released_items += items;
        if self.transcript.len() == TRANSCRIPT_RELEASES {
            self.transcript.remove(0);
        }
        self.transcript.push(EpochRelease {
            epoch: self.completed_epochs,
            items,
            pre_noise,
            histogram,
        });
        Ok(ReleasedSnapshot {
            epoch: self.completed_epochs,
            items: self.released_items,
            k: self.k,
            estimates: self.cumulative.clone(),
        })
    }
}

/// A long-running, epoch-driven DP query-serving layer over the sharded
/// ingestion pipeline.
///
/// * **Ingestion** runs through a [`ShardedPipeline`]: `S` shard workers,
///   key-hash routing, batched `extend_batch` hot path.
/// * **Epochs** end by item count ([`ServiceConfig::with_epoch_len`]) or
///   explicit [`DpmgService::end_epoch`] ticks. Each epoch's merged summary
///   is released through the configured registry
///   [`ReleaseMechanism`], metered against one
///   [`Accountant`] budget — the service refuses epoch `N + 1`, uncharged
///   and with the epoch left open, the moment the budget cannot afford it.
/// * **Queries** (`point_query` / `top_k` / `histogram`) are served from
///   the latest [`ReleasedSnapshot`], published on a lock-free append-only
///   chain: readers holding a [`QueryHandle`] run concurrently with
///   ingestion and never take a lock ([`crate::snapshot`] has the details).
///
/// ```
/// use dpmg_core::mechanism::MergedLaplaceMechanism;
/// use dpmg_noise::accounting::PrivacyParams;
/// use dpmg_service::{DpmgService, ServiceConfig};
///
/// let per_epoch = PrivacyParams::new(0.5, 1e-8).unwrap();
/// let budget = PrivacyParams::new(2.0, 1e-6).unwrap();
/// let mechanism = Box::new(MergedLaplaceMechanism::new(per_epoch).unwrap());
/// let config = ServiceConfig::new(2, 64).with_epoch_len(10_000);
/// let mut service = DpmgService::new(config, mechanism, budget, 42).unwrap();
///
/// let mut handle = service.query_handle(); // move to any reader thread
/// for i in 0..30_000u64 {
///     service.ingest(if i % 2 == 0 { 7 } else { i }).unwrap();
/// }
/// assert_eq!(service.completed_epochs(), 3);
/// assert!(handle.point_query(&7) > 10_000.0);
/// assert_eq!(service.accountant().charges(), 3);
/// ```
pub struct DpmgService<K: Item + Send + 'static> {
    config: ServiceConfig,
    pipeline: ShardedPipeline<K>,
    core: EpochCore<K>,
    tail: Arc<SnapshotNode<K>>,
    epoch_items: u64,
}

impl<K: Item + Send + 'static> std::fmt::Debug for DpmgService<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DpmgService")
            .field("config", &self.config)
            .field("mechanism", &self.core.mechanism_name())
            .field("completed_epochs", &self.core.completed_epochs())
            .field("open_epoch_items", &self.epoch_items)
            .field("charges", &self.core.accountant().charges())
            .finish_non_exhaustive()
    }
}

impl<K: Item + Send + 'static> DpmgService<K> {
    /// Spawns the service: sharded ingestion workers, the release engine
    /// for `config.mode`, and the initial (empty) published snapshot.
    ///
    /// # Errors
    ///
    /// Invalid configuration; a mechanism whose sensitivity model does not
    /// cover multi-shard merged epochs (see [`EpochCore`] guard docs); in
    /// continual mode, a budget that cannot afford the dyadic composition
    /// over the horizon.
    pub fn new(
        config: ServiceConfig,
        mechanism: Box<dyn ReleaseMechanism<K>>,
        budget: PrivacyParams,
        seed: u64,
    ) -> Result<Self, ServiceError> {
        let core = EpochCore::new(&config, mechanism, budget, seed)?;
        let pipeline = ShardedPipeline::new(config.pipeline_config())?;
        Ok(Self {
            config,
            pipeline,
            core,
            tail: SnapshotNode::root(config.k),
            epoch_items: 0,
        })
    }

    /// Assembles a service around a restored release core and an
    /// ingestion pipeline whose open epoch already holds `epoch_items`
    /// items — the persistence path (`persist::rebuild_service`).
    pub(crate) fn from_restored(
        config: ServiceConfig,
        core: EpochCore<K>,
        initial: ReleasedSnapshot<K>,
        pipeline: ShardedPipeline<K>,
        epoch_items: u64,
    ) -> Self {
        let root = SnapshotNode::root(config.k);
        let tail = if initial.epoch > 0 {
            SnapshotNode::publish(&root, initial)
        } else {
            root
        };
        Self {
            config,
            pipeline,
            core,
            tail,
            epoch_items,
        }
    }

    pub(crate) fn core(&self) -> &EpochCore<K> {
        &self.core
    }

    pub(crate) fn pipeline_mut(&mut self) -> &mut ShardedPipeline<K> {
        &mut self.pipeline
    }

    /// The configuration in use.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The budget accountant (spent / remaining / charge count).
    pub fn accountant(&self) -> &Accountant {
        self.core.accountant()
    }

    /// Registry name of the release mechanism (the node mechanism in
    /// continual mode).
    pub fn mechanism_name(&self) -> &'static str {
        self.core.mechanism_name()
    }

    /// Number of completed (released) epochs.
    pub fn completed_epochs(&self) -> u64 {
        self.core.completed_epochs()
    }

    /// Items ingested over all completed epochs (excludes the open epoch).
    pub fn released_items(&self) -> u64 {
        self.core.released_items()
    }

    /// Items ingested into the **current, unreleased** epoch.
    pub fn open_epoch_items(&self) -> u64 {
        self.epoch_items
    }

    /// Ingestion counters of the current epoch's pipeline.
    pub fn stats(&self) -> PipelineStats {
        self.pipeline.stats()
    }

    /// The trusted record of the last 16 completed epochs, oldest first
    /// (see [`EpochRelease`] for the privacy status of its fields). Each
    /// release past the 16th evicts the oldest record, so `transcript()[i]`
    /// is epoch `i + 1` only until then: read the `epoch` field. Only
    /// epochs released **since this process started** appear: a service
    /// rebuilt via `restore` begins with an empty transcript — pre-noise
    /// epoch inputs are deliberately not persisted, and the restore hands
    /// back [`OpenEpochStatus::OpenEpochLost`] so the caller knows any open
    /// epoch died with the crash — while [`Self::completed_epochs`] and the
    /// `epoch` fields of later entries keep counting absolutely across the
    /// restart. A [`crate::DurableService`] recovery replays post-restart
    /// epochs into the transcript (status
    /// [`OpenEpochStatus::Replayed`]).
    pub fn transcript(&self) -> &[EpochRelease<K>] {
        self.core.transcript()
    }

    /// A read handle for concurrent queries; clone freely, move to any
    /// thread. Readers never block ingestion or releases, and vice versa.
    pub fn query_handle(&self) -> QueryHandle<K> {
        QueryHandle::new(self.tail.clone())
    }

    /// The newest published snapshot.
    pub fn latest(&self) -> Arc<ReleasedSnapshot<K>> {
        self.tail.snapshot.clone()
    }

    /// Cumulative released estimate of `key` over all completed epochs
    /// (in windowed mode: over the current window only).
    pub fn point_query(&self, key: &K) -> f64 {
        self.latest().point_query(key)
    }

    /// Top-`n` released keys over all completed epochs (in windowed mode:
    /// over the current window only).
    pub fn top_k(&self, n: usize) -> Vec<(K, f64)> {
        self.latest().top_k(n)
    }

    /// Routes one item into the current epoch: [`Self::ingest_from`] over it.
    ///
    /// # Errors
    ///
    /// As [`Self::ingest_from`].
    pub fn ingest(&mut self, item: K) -> Result<(), ServiceError> {
        self.ingest_from(std::iter::once(item))
    }

    /// Ingests a stream as [`Self::ingest`] per item would, stopping at the
    /// first error (later items stay in the iterator): the items up to the
    /// next automatic epoch boundary go to the pipeline in one call, then
    /// that boundary's [`Self::end_epoch`] runs.
    ///
    /// # Errors
    ///
    /// Ingestion failures (their item is not counted in the open epoch),
    /// plus every [`Self::end_epoch`] failure when an automatic boundary
    /// fires — notably the budget refusal, which leaves the epoch open, so
    /// every further item retries it until the caller stops (items are
    /// never dropped; they accumulate in the open epoch).
    pub fn ingest_from(&mut self, items: impl IntoIterator<Item = K>) -> Result<(), ServiceError> {
        let mut items = items.into_iter();
        loop {
            let room = self
                .config
                .epoch_len
                .map_or(u64::MAX, |len| len.saturating_sub(self.epoch_items).max(1));
            let mut taken = 0u64;
            let slice = items
                .by_ref()
                .take(usize::try_from(room).unwrap_or(usize::MAX))
                .inspect(|_| taken += 1);
            let ingested = self.pipeline.ingest_from(slice);
            // The item whose dispatch failed was taken but not ingested.
            self.epoch_items += taken.saturating_sub(u64::from(ingested.is_err()));
            ingested?;
            if taken < room {
                return Ok(());
            }
            self.end_epoch()?;
        }
    }

    /// Explicit epoch tick: rotates the pipeline, performs the epoch's DP
    /// release under the accountant, publishes the new snapshot, and
    /// returns it.
    ///
    /// # Errors
    ///
    /// The budget refusal (`Release(Budget(_))` — uncharged, the epoch
    /// stays open and ingestion may continue), `HorizonExhausted` in
    /// continual mode, engine failures, and mechanism release failures
    /// (after which the rotated epoch is kept pending and retried by the
    /// next call).
    pub fn end_epoch(&mut self) -> Result<Arc<ReleasedSnapshot<K>>, ServiceError> {
        let pipeline = &mut self.pipeline;
        let epoch_items = &mut self.epoch_items;
        let snapshot = self.core.end_epoch(|| {
            let (merged, stats) = pipeline.rotate_epoch()?;
            *epoch_items = 0;
            Ok((merged, stats.items))
        })?;
        self.tail = SnapshotNode::publish(&self.tail, snapshot);
        Ok(self.tail.snapshot.clone())
    }

    /// Live elastic resharding, as a first-class runtime operation: retires
    /// the current shard generation (merging its summaries into the epoch's
    /// carry — Lemma 17/29, zero data loss), re-splits the FNV key-hash
    /// routing over `new_shards`, and respawns workers at the new width.
    /// The open epoch continues across the reshard; queries, the epoch
    /// clock, and the budget are untouched.
    ///
    /// **Release soundness.** After a mid-epoch reshard the epoch's
    /// release input is a merge of summaries, and the merged sensitivity is
    /// shape-independent (Corollary 18) — so for the
    /// `MergedOneSided`-calibrated mechanisms (`gshm`, `merged-laplace`)
    /// the release distribution is *exactly* what it would have been
    /// without the reshard. Services running single-sketch-calibrated
    /// mechanisms (admitted only at one shard, Independent mode) refuse any
    /// reshard that would create merged structure: growing beyond one shard
    /// or resharding with items in flight.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Release`] (`Unsupported`) when the mechanism is not
    /// merged-calibrated and the reshard would create merged epoch
    /// structure; pipeline failures as [`Self::end_epoch`].
    pub fn reshard(&mut self, new_shards: usize) -> Result<(), ServiceError> {
        let creates_merged_structure =
            new_shards > 1 || self.epoch_items > 0 || self.pipeline.carry().is_some();
        if creates_merged_structure && !self.core.releases_merged_only() {
            return Err(ServiceError::Release(ReleaseError::Unsupported {
                mechanism: self.core.mechanism_name(),
                reason: "resharding creates Corollary 18 merged epoch structure \
                         (multi-shard epochs, or a mid-epoch carry merge); only \
                         MergedOneSided-calibrated mechanisms (gshm, merged-laplace) \
                         can release such epochs — reshard at an epoch boundary to \
                         one shard, or run a merged-calibrated mechanism",
            }));
        }
        self.pipeline.reshard(new_shards)?;
        self.config.shards = new_shards;
        Ok(())
    }
}
