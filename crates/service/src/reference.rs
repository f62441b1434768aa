//! The single-threaded differential oracle.

use crate::config::{ServiceConfig, ServiceError};
use crate::service::{EpochCore, EpochRelease};
use crate::snapshot::ReleasedSnapshot;
use dpmg_core::mechanism::ReleaseError;
use dpmg_core::mechanism::ReleaseMechanism;
use dpmg_noise::accounting::{Accountant, PrivacyParams};
use dpmg_pipeline::shard_of_key;
use dpmg_sketch::merge::{merge, merge_tree};
use dpmg_sketch::misra_gries::MisraGries;
use dpmg_sketch::traits::{Item, Summary};
use std::sync::Arc;

/// A single-threaded re-implementation of [`crate::DpmgService`]'s
/// observable behaviour, used as the differential-testing oracle: it
/// partitions items with the same [`shard_of_key`] routing, sketches each
/// shard inline (no threads, no channels, no batching), merges with the
/// same binary tree shape, and feeds the identical per-epoch summaries into
/// the **shared** release core.
///
/// Under the same configuration, seed, and stream, every epoch release and
/// every query answer must match the concurrent service bit for bit — any
/// divergence is a bug in the sharded ingestion path (routing, batching,
/// worker scheduling, or the merge).
pub struct SequentialServiceReference<K: Item> {
    config: ServiceConfig,
    sketches: Vec<MisraGries<K>>,
    core: EpochCore<K>,
    latest: Arc<ReleasedSnapshot<K>>,
    epoch_items: u64,
    /// Retired-generation carry of a mid-epoch [`Self::reshard`] —
    /// replicates `ShardedPipeline`'s carry fold exactly.
    carry: Option<Summary<K>>,
}

impl<K: Item> SequentialServiceReference<K> {
    /// Builds the oracle; parameters mirror
    /// [`DpmgService::new`](crate::DpmgService::new) exactly.
    ///
    /// # Errors
    ///
    /// As [`DpmgService::new`](crate::DpmgService::new).
    pub fn new(
        config: ServiceConfig,
        mechanism: Box<dyn ReleaseMechanism<K>>,
        budget: PrivacyParams,
        seed: u64,
    ) -> Result<Self, ServiceError> {
        let core = EpochCore::new(&config, mechanism, budget, seed)?;
        let sketches = (0..config.shards)
            .map(|_| MisraGries::new(config.k))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            latest: Arc::new(ReleasedSnapshot::empty(config.k)),
            config,
            sketches,
            core,
            epoch_items: 0,
            carry: None,
        })
    }

    /// Live resharding, mirroring
    /// [`DpmgService::reshard`](crate::DpmgService::reshard) observable-for-
    /// observable: the retired shard sketches' summaries are merge-tree'd
    /// into the carry (skipped when empty, exactly like the pipeline) and
    /// the shard set restarts fresh at the new width.
    ///
    /// # Errors
    ///
    /// As [`DpmgService::reshard`](crate::DpmgService::reshard).
    pub fn reshard(&mut self, new_shards: usize) -> Result<(), ServiceError> {
        if new_shards == 0 {
            return Err(ServiceError::Pipeline(
                dpmg_pipeline::PipelineError::InvalidShards(0),
            ));
        }
        let creates_merged_structure =
            new_shards > 1 || self.epoch_items > 0 || self.carry.is_some();
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
        let k = self.config.k;
        let summaries: Vec<Summary<K>> = self.sketches.iter().map(|s| s.summary()).collect();
        let shard_merged = merge_tree(&summaries).unwrap_or_else(|| Summary::empty(k));
        if !shard_merged.is_empty() {
            self.carry = Some(match self.carry.take() {
                Some(c) => merge(&c, &shard_merged),
                None => shard_merged,
            });
        }
        self.sketches = (0..new_shards)
            .map(|_| MisraGries::new(k))
            .collect::<Result<Vec<_>, _>>()?;
        self.config.shards = new_shards;
        Ok(())
    }

    /// Routes one item to its shard sketch inline; closes the epoch at the
    /// configured `epoch_len`, like the service.
    ///
    /// # Errors
    ///
    /// As [`DpmgService::ingest`](crate::DpmgService::ingest).
    pub fn ingest(&mut self, item: K) -> Result<(), ServiceError> {
        let shard = shard_of_key(&item, self.config.shards);
        self.sketches[shard].update(item);
        self.epoch_items += 1;
        if let Some(len) = self.config.epoch_len {
            if self.epoch_items >= len {
                self.end_epoch()?;
            }
        }
        Ok(())
    }

    /// Ingests a whole stream.
    ///
    /// # Errors
    ///
    /// As [`Self::ingest`].
    pub fn ingest_from(&mut self, items: impl IntoIterator<Item = K>) -> Result<(), ServiceError> {
        for item in items {
            self.ingest(item)?;
        }
        Ok(())
    }

    /// Explicit epoch tick; semantics identical to
    /// [`DpmgService::end_epoch`](crate::DpmgService::end_epoch).
    ///
    /// # Errors
    ///
    /// As [`DpmgService::end_epoch`](crate::DpmgService::end_epoch).
    pub fn end_epoch(&mut self) -> Result<Arc<ReleasedSnapshot<K>>, ServiceError> {
        let sketches = &mut self.sketches;
        let epoch_items = &mut self.epoch_items;
        let carry = &mut self.carry;
        let k = self.config.k;
        let snapshot = self.core.end_epoch(|| {
            let summaries: Vec<Summary<K>> = sketches.iter().map(|s| s.summary()).collect();
            let shard_merged = merge_tree(&summaries).unwrap_or_else(|| Summary::empty(k));
            // Identical fold order to `ShardedPipeline::merged`.
            let merged = match carry.take() {
                Some(c) => merge(&c, &shard_merged),
                None => shard_merged,
            };
            let items = *epoch_items;
            for sketch in sketches.iter_mut() {
                *sketch = MisraGries::new(k).expect("k validated at construction");
            }
            *epoch_items = 0;
            Ok((merged, items))
        })?;
        self.latest = Arc::new(snapshot);
        Ok(self.latest.clone())
    }

    /// The newest snapshot.
    pub fn latest(&self) -> Arc<ReleasedSnapshot<K>> {
        self.latest.clone()
    }

    /// Cumulative released estimate of `key`.
    pub fn point_query(&self, key: &K) -> f64 {
        self.latest.point_query(key)
    }

    /// Top-`n` released keys.
    pub fn top_k(&self, n: usize) -> Vec<(K, f64)> {
        self.latest.top_k(n)
    }

    /// Number of completed epochs.
    pub fn completed_epochs(&self) -> u64 {
        self.core.completed_epochs()
    }

    /// The trusted record of the last 16 epochs, oldest first; read each
    /// entry's `epoch`, since the oldest is evicted from the 17th release
    /// on (see [`DpmgService::transcript`](crate::DpmgService::transcript)).
    pub fn transcript(&self) -> &[EpochRelease<K>] {
        self.core.transcript()
    }

    /// The budget accountant.
    pub fn accountant(&self) -> &Accountant {
        self.core.accountant()
    }
}
