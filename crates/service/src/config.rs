//! Service configuration and error types.

use dpmg_core::mechanism::ReleaseError;
use dpmg_noise::NoiseError;
use dpmg_pipeline::{PipelineConfig, PipelineError};
use dpmg_sketch::traits::SketchError;

/// How the per-epoch releases compose over the service's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceMode {
    /// Every epoch is released independently at the mechanism's advertised
    /// budget and **charged per epoch** against the accountant (basic
    /// sequential composition); cumulative query answers are the
    /// post-processing sum of the epoch releases. The service refuses epoch
    /// `N + 1` the moment the accountant can no longer afford it.
    Independent,
    /// The binary (dyadic) tree composition of `core::continual`: per-epoch
    /// summaries feed a carry chain of merged dyadic nodes, each released
    /// once by the node mechanism. The whole history costs
    /// `(L·ε_node, L·δ_node)` for `L = ⌈log₂ max_epochs⌉ + 1`, charged
    /// **once** at construction; far cheaper than `Independent` when the
    /// horizon is long.
    Continual {
        /// Epoch horizon the level budget is allocated for.
        max_epochs: u64,
    },
    /// Sliding-window serving: every epoch boundary releases the **merge of
    /// the last `window_epochs` epoch summaries** (Section 7 merge), and
    /// queries answer over that window instead of the whole history — the
    /// trending-topics regime. Each window release is charged
    /// `(ε_w, δ_w)` against the accountant like an `Independent` epoch;
    /// because one item lives in at most `window_epochs` consecutive
    /// windows, its end-to-end guarantee is the basic composition
    /// `(W·ε_w, W·δ_w)` **regardless of how long the service runs** (see
    /// DESIGN.md, "Per-window budget accounting"). Window summaries are
    /// Corollary 18 merged summaries, so this mode is guarded to
    /// `MergedOneSided`-calibrated mechanisms exactly like `Continual`.
    Windowed {
        /// Epochs per window, `W ≥ 1` (the newest epoch is always
        /// included; `W = 1` serves each epoch in isolation).
        window_epochs: u64,
    },
}

/// Configuration for [`crate::DpmgService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Number of ingestion shard workers `S ≥ 1`.
    pub shards: usize,
    /// Misra-Gries sketch size `k ≥ 1` (shared by every shard and epoch).
    pub k: usize,
    /// Items buffered per shard before a batch is dispatched.
    pub batch_size: usize,
    /// Close an epoch automatically every `epoch_len` ingested items
    /// (`None`: epochs end only on explicit [`crate::DpmgService::end_epoch`]
    /// ticks).
    pub epoch_len: Option<u64>,
    /// Release composition across epochs.
    pub mode: ServiceMode,
}

impl ServiceConfig {
    /// A configuration with `shards` workers of sketch size `k` and the
    /// defaults: batch size 1024, explicit epoch ticks,
    /// [`ServiceMode::Independent`].
    pub fn new(shards: usize, k: usize) -> Self {
        Self {
            shards,
            k,
            batch_size: 1024,
            epoch_len: None,
            mode: ServiceMode::Independent,
        }
    }

    /// Sets the per-shard batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Closes an epoch automatically every `items` ingested items.
    pub fn with_epoch_len(mut self, items: u64) -> Self {
        self.epoch_len = Some(items);
        self
    }

    /// Sets the epoch composition mode.
    pub fn with_mode(mut self, mode: ServiceMode) -> Self {
        self.mode = mode;
        self
    }

    /// The pipeline configuration the ingestion engine runs with: key-hash
    /// routing and the pipeline's default channel capacity.
    pub fn pipeline_config(&self) -> PipelineConfig {
        PipelineConfig::new(self.shards, self.k).with_batch_size(self.batch_size)
    }

    /// Checks the structural parameters.
    ///
    /// # Errors
    ///
    /// Rejects invalid pipeline parameters, `epoch_len = 0`,
    /// `max_epochs = 0` in continual mode, and `window_epochs = 0` in
    /// windowed mode.
    pub fn validate(&self) -> Result<(), ServiceError> {
        self.pipeline_config().validate()?;
        if self.epoch_len == Some(0) {
            return Err(ServiceError::InvalidEpochLen);
        }
        if let ServiceMode::Continual { max_epochs: 0 } = self.mode {
            return Err(ServiceError::InvalidHorizon);
        }
        if let ServiceMode::Windowed { window_epochs: 0 } = self.mode {
            return Err(ServiceError::InvalidWindow);
        }
        Ok(())
    }
}

/// Errors produced by the service layer.
#[derive(Debug)]
pub enum ServiceError {
    /// The ingestion engine failed.
    Pipeline(PipelineError),
    /// The release mechanism refused (budget exhausted, sensitivity model
    /// not calibrated for multi-shard merged epochs, calibration failure).
    Release(ReleaseError),
    /// The noise/accounting layer rejected its parameters.
    Noise(NoiseError),
    /// A persisted snapshot could not be decoded.
    Sketch(SketchError),
    /// `epoch_len` must be at least 1 when set.
    InvalidEpochLen,
    /// Continual mode needs a horizon of at least 1 epoch.
    InvalidHorizon,
    /// Windowed mode needs a window of at least 1 epoch.
    InvalidWindow,
    /// Continual mode: the declared `max_epochs` horizon is used up; no
    /// further epoch may be released under the budgeted level count.
    HorizonExhausted {
        /// The horizon the budget was allocated for.
        max_epochs: u64,
    },
    /// Saving or restoring service state failed.
    Persistence(&'static str),
    /// A write-ahead-log or checkpoint filesystem operation failed.
    Io(std::io::Error),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Pipeline(e) => write!(f, "pipeline error: {e}"),
            ServiceError::Release(e) => write!(f, "release error: {e}"),
            ServiceError::Noise(e) => write!(f, "noise error: {e}"),
            ServiceError::Sketch(e) => write!(f, "snapshot decode error: {e}"),
            ServiceError::InvalidEpochLen => write!(f, "epoch_len must be ≥ 1 when set"),
            ServiceError::InvalidHorizon => write!(f, "continual max_epochs must be ≥ 1"),
            ServiceError::InvalidWindow => write!(f, "windowed window_epochs must be ≥ 1"),
            ServiceError::HorizonExhausted { max_epochs } => write!(
                f,
                "continual epoch horizon exhausted: budget was allocated for {max_epochs} epochs"
            ),
            ServiceError::Persistence(what) => write!(f, "service persistence error: {what}"),
            ServiceError::Io(e) => write!(f, "service durability I/O error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Pipeline(e) => Some(e),
            ServiceError::Release(e) => Some(e),
            ServiceError::Noise(e) => Some(e),
            ServiceError::Sketch(e) => Some(e),
            ServiceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Io(e)
    }
}

impl From<PipelineError> for ServiceError {
    fn from(e: PipelineError) -> Self {
        ServiceError::Pipeline(e)
    }
}

impl From<ReleaseError> for ServiceError {
    fn from(e: ReleaseError) -> Self {
        ServiceError::Release(e)
    }
}

impl From<NoiseError> for ServiceError {
    fn from(e: NoiseError) -> Self {
        ServiceError::Noise(e)
    }
}

impl From<SketchError> for ServiceError {
    fn from(e: SketchError) -> Self {
        ServiceError::Sketch(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_builders() {
        let c = ServiceConfig::new(4, 64);
        assert!(c.validate().is_ok());
        assert_eq!(c.mode, ServiceMode::Independent);
        assert_eq!(c.epoch_len, None);
        let c = c
            .with_batch_size(7)
            .with_epoch_len(500)
            .with_mode(ServiceMode::Continual { max_epochs: 16 });
        assert_eq!(c.batch_size, 7);
        assert_eq!(c.epoch_len, Some(500));
        assert_eq!(c.mode, ServiceMode::Continual { max_epochs: 16 });
        assert!(c.validate().is_ok());
        assert_eq!(c.pipeline_config().batch_size, 7);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(ServiceConfig::new(0, 8).validate().is_err());
        assert!(ServiceConfig::new(2, 8)
            .with_batch_size(0)
            .validate()
            .is_err());
        assert!(matches!(
            ServiceConfig::new(2, 8).with_epoch_len(0).validate(),
            Err(ServiceError::InvalidEpochLen)
        ));
        assert!(matches!(
            ServiceConfig::new(2, 8)
                .with_mode(ServiceMode::Continual { max_epochs: 0 })
                .validate(),
            Err(ServiceError::InvalidHorizon)
        ));
        assert!(matches!(
            ServiceConfig::new(2, 8)
                .with_mode(ServiceMode::Windowed { window_epochs: 0 })
                .validate(),
            Err(ServiceError::InvalidWindow)
        ));
        assert!(ServiceConfig::new(2, 8)
            .with_mode(ServiceMode::Windowed { window_epochs: 3 })
            .validate()
            .is_ok());
    }

    #[test]
    fn error_display_and_source() {
        let e = ServiceError::Pipeline(PipelineError::AlreadyFinished);
        assert!(e.to_string().contains("pipeline error"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(ServiceError::HorizonExhausted { max_epochs: 4 }
            .to_string()
            .contains("4 epochs"));
        assert!(std::error::Error::source(&ServiceError::InvalidEpochLen).is_none());
    }
}
