//! Pipeline configuration and error types.

use dpmg_sketch::traits::SketchError;

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
}

impl PipelineConfig {
    /// A configuration with `shards` workers of sketch size `k` and the
    /// defaults: batch size 1024 and channel capacity 8.
    pub fn new(shards: usize, k: usize) -> Self {
        Self {
            shards,
            k,
            batch_size: 1024,
            channel_capacity: 8,
        }
    }

    /// Sets the per-shard batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
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
        assert_eq!(c.batch_size, 1024);
    }

    #[test]
    fn builders_apply() {
        let c = PipelineConfig::new(2, 8).with_batch_size(7);
        assert_eq!(c.batch_size, 7);
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
        assert!(PipelineError::InvalidShards(0)
            .to_string()
            .contains("shard count"));
        assert!(std::error::Error::source(&PipelineError::AlreadyFinished).is_none());
    }
}
