//! Pipeline configuration, routing policy, and error types.

use dpmg_sketch::traits::SketchError;

/// How the producer assigns stream items to shard workers. Every policy
/// is a fixed function of the key, never of arrival position, so
/// neighbouring datasets differ in exactly one shard's substream — the
/// premise of the Section 7 sensitivity argument (see the crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// Route by a fixed (FNV-1a) hash of the key. The default.
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
    HashKeyRange {
        /// Width of the global shard space (across all workers).
        total_shards: usize,
        /// First global shard owned by this pipeline; the pipeline's
        /// `shards` config field is the block width.
        first_shard: usize,
    },
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
}

impl PipelineConfig {
    /// A configuration with `shards` workers of sketch size `k` and the
    /// defaults: batch size 1024, channel capacity 8, [`Routing::HashKey`].
    pub fn new(shards: usize, k: usize) -> Self {
        Self {
            shards,
            k,
            batch_size: 1024,
            channel_capacity: 8,
            routing: Routing::HashKey,
        }
    }

    /// Sets the per-shard batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Sets the routing policy.
    pub fn with_routing(mut self, routing: Routing) -> Self {
        self.routing = routing;
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
    /// A shard worker thread panicked.
    WorkerPanicked {
        /// Index of the dead shard.
        shard: usize,
    },
    /// `ingest` was called after `finish`.
    AlreadyFinished,
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
            PipelineError::WorkerPanicked { shard } => {
                write!(f, "shard worker {shard} panicked")
            }
            PipelineError::AlreadyFinished => write!(f, "pipeline already finished"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Sketch(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SketchError> for PipelineError {
    fn from(e: SketchError) -> Self {
        PipelineError::Sketch(e)
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
        assert_eq!(c.batch_size, 1024);
    }

    #[test]
    fn builders_apply() {
        let c = PipelineConfig::new(2, 8)
            .with_batch_size(7)
            .with_routing(Routing::HashKeyRange {
                total_shards: 4,
                first_shard: 2,
            });
        assert_eq!(c.batch_size, 7);
        assert_eq!(
            c.routing,
            Routing::HashKeyRange {
                total_shards: 4,
                first_shard: 2
            }
        );
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
        let no_capacity = PipelineConfig {
            channel_capacity: 0,
            ..PipelineConfig::new(1, 8)
        };
        assert!(matches!(
            no_capacity.validate(),
            Err(PipelineError::InvalidChannelCapacity(0))
        ));
    }

    #[test]
    fn error_display_and_source() {
        let e = PipelineError::Sketch(SketchError::InvalidK(0));
        assert!(e.to_string().contains("sketch error"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(PipelineError::ForeignShardKey { global_shard: 5 }
            .to_string()
            .contains("global shard 5"));
        assert!(std::error::Error::source(&PipelineError::AlreadyFinished).is_none());
    }
}
