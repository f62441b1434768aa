//! Pipeline configuration, routing policy, and error types.

use dpmg_core::mechanism::{GshmMechanism, MergedLaplaceMechanism, ReleaseError, ReleaseMechanism};
use dpmg_noise::accounting::PrivacyParams;
use dpmg_noise::NoiseError;
use dpmg_sketch::traits::{Item, SketchError};

/// How the producer assigns stream items to shard workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// Route by a fixed (FNV-1a) hash of the key. Deterministic and
    /// content-based, so neighbouring datasets differ in exactly one
    /// shard's substream — the premise of the Section 7 sensitivity
    /// argument (see the crate docs). This is the default and the only
    /// routing under which [`crate::ShardedPipeline::release`] is allowed.
    HashKey,
    /// Route by the same fixed key hash, but taken over a **global** shard
    /// space of `total_shards` of which this pipeline owns only the
    /// contiguous block `[first_shard, first_shard + shards)` — the
    /// multi-process partitioning of the aggregation fleet. A worker
    /// process running this policy over its slice of the stream builds
    /// *exactly* the per-shard substreams a single `total_shards`-wide
    /// pipeline would have built for those shards, which is what makes the
    /// fleet's merged summary bit-identical to the single-process one.
    /// Items hashing outside the owned block are rejected at ingest
    /// ([`PipelineError::ForeignShardKey`]) rather than silently misrouted.
    ///
    /// Still a fixed function of the key alone, so the Section 7
    /// sensitivity argument holds and DP releases are permitted.
    HashKeyRange {
        /// Width of the global shard space (across all workers).
        total_shards: usize,
        /// First global shard owned by this pipeline; the pipeline's
        /// `shards` config field is the block width.
        first_shard: usize,
    },
    /// Route by arrival position, cycling through the shards. Balances
    /// load perfectly but makes the shard assignment depend on stream
    /// positions, which voids the neighbouring-substream structure; the
    /// pipeline refuses to perform a DP release under this policy.
    RoundRobin,
}

impl Routing {
    /// Whether the shard assignment is a fixed function of the key alone —
    /// the premise of the Section 7 sensitivity argument and therefore the
    /// precondition for every DP release path.
    pub fn is_content_based(self) -> bool {
        !matches!(self, Routing::RoundRobin)
    }
}

/// Which trusted-aggregator mechanism performs the single DP release.
///
/// A convenience subset of the full `dpmg-core` mechanism registry — each
/// variant resolves to its [`ReleaseMechanism`] via [`ReleaseKind::mechanism`],
/// and the pipeline releases through that common layer. For mechanisms
/// beyond these two, use
/// [`PrivatizedPipeline`](crate::mechanism::PrivatizedPipeline), which
/// accepts *any* registry mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReleaseKind {
    /// Gaussian Sparse Histogram Mechanism exploiting the merged sketch's
    /// ℓ2-sensitivity `√k` (the paper's Section 7 recommendation).
    TrustedGshm,
    /// `Laplace(k/ε)` per counter plus a threshold (the ℓ1 route).
    TrustedLaplace,
}

impl ReleaseKind {
    /// Resolves this kind to its release mechanism at the given privacy
    /// parameters (`TrustedGshm` → `"gshm"`, `TrustedLaplace` →
    /// `"merged-laplace"` — both calibrated for the Corollary 18 merged
    /// neighbour structure).
    ///
    /// # Errors
    ///
    /// Rejects pure-DP parameters: both trusted-aggregator routes rely on
    /// thresholding and are inherently approximate-DP.
    pub fn mechanism<K: Item>(
        self,
        params: PrivacyParams,
    ) -> Result<Box<dyn ReleaseMechanism<K>>, NoiseError> {
        Ok(match self {
            ReleaseKind::TrustedGshm => Box::new(GshmMechanism::new(params)?),
            ReleaseKind::TrustedLaplace => Box::new(MergedLaplaceMechanism::new(params)?),
        })
    }
}

/// Configuration for [`crate::ShardedPipeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Number of shard workers `S ≥ 1`.
    pub shards: usize,
    /// Misra-Gries sketch size `k ≥ 1` used by every shard. All shards must
    /// share one `k` — the merge of Section 7 is only defined for equal
    /// sketch sizes.
    pub k: usize,
    /// Items buffered per shard before a batch is sent to its worker.
    pub batch_size: usize,
    /// Batches in flight per shard channel before the producer blocks
    /// (backpressure).
    pub channel_capacity: usize,
    /// Routing policy.
    pub routing: Routing,
    /// Release mechanism.
    pub release: ReleaseKind,
}

impl PipelineConfig {
    /// A configuration with `shards` workers of sketch size `k` and the
    /// defaults: batch size 1024, channel capacity 8, [`Routing::HashKey`],
    /// [`ReleaseKind::TrustedGshm`].
    pub fn new(shards: usize, k: usize) -> Self {
        Self {
            shards,
            k,
            batch_size: 1024,
            channel_capacity: 8,
            routing: Routing::HashKey,
            release: ReleaseKind::TrustedGshm,
        }
    }

    /// Sets the per-shard batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Sets the per-shard channel capacity (in batches).
    pub fn with_channel_capacity(mut self, capacity: usize) -> Self {
        self.channel_capacity = capacity;
        self
    }

    /// Sets the routing policy.
    pub fn with_routing(mut self, routing: Routing) -> Self {
        self.routing = routing;
        self
    }

    /// Sets the release mechanism.
    pub fn with_release(mut self, release: ReleaseKind) -> Self {
        self.release = release;
        self
    }

    /// Checks the structural parameters (the sketch size `k` is validated
    /// by the sketch constructor when the pipeline spawns its workers).
    pub fn validate(&self) -> Result<(), PipelineError> {
        if self.shards == 0 {
            return Err(PipelineError::InvalidShards(0));
        }
        if self.batch_size == 0 {
            return Err(PipelineError::InvalidBatchSize(0));
        }
        if self.channel_capacity == 0 {
            return Err(PipelineError::InvalidChannelCapacity(0));
        }
        if let Routing::HashKeyRange {
            total_shards,
            first_shard,
        } = self.routing
        {
            // The owned block must fit inside the global shard space.
            let fits = first_shard
                .checked_add(self.shards)
                .is_some_and(|end| end <= total_shards);
            if total_shards == 0 || !fits {
                return Err(PipelineError::InvalidShardRange {
                    total_shards,
                    first_shard,
                    shards: self.shards,
                });
            }
        }
        Ok(())
    }
}

/// Errors produced by the pipeline.
#[derive(Debug)]
pub enum PipelineError {
    /// The shard count must be at least 1.
    InvalidShards(usize),
    /// The batch size must be at least 1.
    InvalidBatchSize(usize),
    /// The channel capacity must be at least 1.
    InvalidChannelCapacity(usize),
    /// A [`Routing::HashKeyRange`] block does not fit the global shard
    /// space (`first_shard + shards` must be ≤ `total_shards ≥ 1`).
    InvalidShardRange {
        /// Width of the global shard space.
        total_shards: usize,
        /// First global shard of the owned block.
        first_shard: usize,
        /// Owned block width (the pipeline's shard count).
        shards: usize,
    },
    /// Under [`Routing::HashKeyRange`], an ingested item hashed to a global
    /// shard outside this pipeline's owned block — the stream slice handed
    /// to this worker was partitioned wrong, and accepting the item would
    /// silently corrupt the shard substreams the fleet merge relies on.
    ForeignShardKey {
        /// The global shard the item actually belongs to.
        global_shard: usize,
    },
    /// The underlying sketch rejected its parameters.
    Sketch(SketchError),
    /// The release mechanism rejected its privacy parameters.
    Noise(NoiseError),
    /// The release mechanism failed (budget exhausted, unsupported input,
    /// or a calibration error surfaced through the mechanism layer).
    Mechanism(ReleaseError),
    /// A shard worker thread panicked.
    WorkerPanicked {
        /// Index of the dead shard.
        shard: usize,
    },
    /// `ingest` was called after `finish`.
    AlreadyFinished,
    /// A DP release was requested under a routing policy for which the
    /// Section 7 sensitivity argument does not hold (see [`Routing`]).
    NonPrivateRouting,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::InvalidShards(s) => write!(f, "shard count must be ≥ 1, got {s}"),
            PipelineError::InvalidBatchSize(b) => write!(f, "batch size must be ≥ 1, got {b}"),
            PipelineError::InvalidChannelCapacity(c) => {
                write!(f, "channel capacity must be ≥ 1, got {c}")
            }
            PipelineError::InvalidShardRange {
                total_shards,
                first_shard,
                shards,
            } => write!(
                f,
                "shard block [{first_shard}, {first_shard} + {shards}) does not fit a \
                 global shard space of {total_shards}"
            ),
            PipelineError::ForeignShardKey { global_shard } => write!(
                f,
                "item routes to global shard {global_shard}, outside this worker's block — \
                 the stream slice was partitioned wrong"
            ),
            PipelineError::Sketch(e) => write!(f, "sketch error: {e}"),
            PipelineError::Noise(e) => write!(f, "noise error: {e}"),
            PipelineError::Mechanism(e) => write!(f, "release mechanism error: {e}"),
            PipelineError::WorkerPanicked { shard } => {
                write!(f, "shard worker {shard} panicked")
            }
            PipelineError::AlreadyFinished => write!(f, "pipeline already finished"),
            PipelineError::NonPrivateRouting => write!(
                f,
                "DP release requires key-hash routing; round-robin voids the \
                 neighbouring-substream sensitivity argument"
            ),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Sketch(e) => Some(e),
            PipelineError::Noise(e) => Some(e),
            PipelineError::Mechanism(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SketchError> for PipelineError {
    fn from(e: SketchError) -> Self {
        PipelineError::Sketch(e)
    }
}

impl From<NoiseError> for PipelineError {
    fn from(e: NoiseError) -> Self {
        PipelineError::Noise(e)
    }
}

impl From<ReleaseError> for PipelineError {
    fn from(e: ReleaseError) -> Self {
        // Unwrap plain noise failures to the long-standing variant so
        // existing callers keep matching on `PipelineError::Noise`.
        match e {
            ReleaseError::Noise(noise) => PipelineError::Noise(noise),
            other => PipelineError::Mechanism(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sound() {
        let c = PipelineConfig::new(4, 64);
        assert!(c.validate().is_ok());
        assert_eq!(c.routing, Routing::HashKey);
        assert_eq!(c.release, ReleaseKind::TrustedGshm);
        assert_eq!(c.batch_size, 1024);
    }

    #[test]
    fn builders_apply() {
        let c = PipelineConfig::new(2, 8)
            .with_batch_size(7)
            .with_channel_capacity(3)
            .with_routing(Routing::RoundRobin)
            .with_release(ReleaseKind::TrustedLaplace);
        assert_eq!(c.batch_size, 7);
        assert_eq!(c.channel_capacity, 3);
        assert_eq!(c.routing, Routing::RoundRobin);
        assert_eq!(c.release, ReleaseKind::TrustedLaplace);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(matches!(
            PipelineConfig::new(0, 8).validate(),
            Err(PipelineError::InvalidShards(0))
        ));
        assert!(matches!(
            PipelineConfig::new(1, 8).with_batch_size(0).validate(),
            Err(PipelineError::InvalidBatchSize(0))
        ));
        assert!(matches!(
            PipelineConfig::new(1, 8)
                .with_channel_capacity(0)
                .validate(),
            Err(PipelineError::InvalidChannelCapacity(0))
        ));
    }

    #[test]
    fn error_display_and_source() {
        let e = PipelineError::Sketch(SketchError::InvalidK(0));
        assert!(e.to_string().contains("sketch error"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(PipelineError::NonPrivateRouting
            .to_string()
            .contains("key-hash"));
        assert!(std::error::Error::source(&PipelineError::AlreadyFinished).is_none());
    }
}
