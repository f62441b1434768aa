//! Multi-process aggregation fleet: many untrusted-to-fail worker processes,
//! one trusted differentially private release.
//!
//! # Topology
//!
//! ```text
//!              stream (conceptually one stream of S = W·s global shards)
//!      ┌───────────────┬───────────────┬───────────────┐
//!      ▼               ▼               ▼               ▼
//!  worker 0        worker 1        worker 2   ...  worker W-1     (processes)
//!  shards 0..s     shards s..2s    shards 2s..3s    shards (W-1)s..Ws
//!      │               │               │               │
//!      │  DPFR frames: HELLO, DONE, SUMMARY×s, BYE (checksummed)
//!      └───────────────┴───────┬───────┴───────────────┘
//!                              ▼
//!                         aggregator        merge_tree (Lemma 17/29)
//!                              │
//!                              ▼
//!             ONE trusted (ε, δ) release (MergedOneSided mechanisms only)
//! ```
//!
//! Each worker runs the same deterministic partitioning the single-process
//! [`ShardedPipeline`](dpmg_pipeline::ShardedPipeline) uses: item `x` belongs
//! to global shard [`shard_of_key`](dpmg_pipeline::shard_of_key)`(x, S)`, and
//! worker `w` owns the contiguous block `[w·s, (w+1)·s)`. One untimed pass
//! hashes each item once and sorts the worker's items into one vector per
//! owned shard; after GO the worker runs
//! [`MisraGries::extend_batch`](dpmg_sketch::MisraGries::extend_batch) over
//! each of them, with no thread or router inside the worker. Because the shard
//! function is content-based and pinned, each per-shard substream — and hence
//! each per-shard Misra–Gries summary — is **bit-identical** to what the
//! single-process `S`-shard pipeline would have produced. Merging the `S`
//! summaries in global shard order therefore reproduces the single-process
//! merged summary exactly, and by Corollary 18 the merge-tree's ℓ1-sensitivity
//! stays `k` (ℓ2: `√k`) regardless of how many processes contributed.
//!
//! # Trust and failure model
//!
//! Workers are *honest but crash-prone*: they may die before, during, or after
//! sending their report. The wire protocol (module [`protocol`]) is framed and
//! checksummed, so the aggregator distinguishes a clean end-of-report from a
//! torn or corrupted one and never merges a partial summary. Workers that miss
//! their deadline are killed and retried up to a configured number of times;
//! whatever arrived is merged and the **coverage** (fraction of global shards
//! whose summary arrived intact) is surfaced. A release below the configured
//! coverage floor is refused *before* any noise is drawn, so refusals never
//! charge the [`Accountant`](dpmg_noise::accounting::Accountant).
//!
//! The privacy boundary is unchanged from the single-process path: exactly one
//! release per fleet run, guarded by
//! [`release_merged_metered`](dpmg_core::mechanism::release_merged_metered)
//! to mechanisms whose noise is calibrated for merged summaries
//! (`SensitivityModel::MergedOneSided`, i.e. `gshm` and `merged-laplace`).

#![forbid(unsafe_code)]

pub mod aggregator;
pub mod protocol;
pub mod worker;

pub use aggregator::{
    assemble, release_fleet, run_process_fleet, FleetConfig, FleetRelease, FleetReport,
    WorkerOutcome,
};
pub use protocol::{
    read_go, read_hello, read_report, read_report_body, write_go, Hello, WorkerReport, GO_BYTE,
    KIND_BYE, KIND_DONE, KIND_HELLO, KIND_SUMMARY,
};
pub use worker::{
    run_worker, run_worker_from_env, CrashPoint, WorkerRunStats, WorkerSpec, WORKER_ENV,
};

use dpmg_core::mechanism::ReleaseError;
use dpmg_sketch::serialize::FrameError;
use dpmg_sketch::SketchError;

/// Everything that can go wrong between a worker process and the one trusted
/// release.
#[derive(Debug)]
pub enum FleetError {
    /// Transport-level failure (pipe/socket read or write).
    Io(std::io::Error),
    /// Framing failure: torn stream, bad magic, checksum mismatch.
    Frame(FrameError),
    /// Frames arrived intact but violated the HELLO→DONE→SUMMARY×s→BYE
    /// protocol (wrong kind, wrong order, wrong shard, trailing data, …).
    Protocol(&'static str),
    /// A summary payload failed structural validation on decode.
    Sketch(SketchError),
    /// The trusted release itself failed (wrong sensitivity model, noise
    /// calibration, …). Refusals here never charge the accountant.
    Release(ReleaseError),
    /// Too few shard summaries survived to meet the configured floor; the
    /// release was refused before any noise was drawn.
    CoverageBelowFloor {
        /// Global shards whose summary arrived intact.
        covered: usize,
        /// Total global shards (`workers × shards_per_worker`).
        total: usize,
        /// The configured minimum coverage in `[0, 1]`.
        floor: f64,
    },
    /// Invalid fleet or worker configuration (bad counts, malformed spec
    /// string, …).
    Spec(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Io(e) => write!(f, "fleet transport error: {e}"),
            FleetError::Frame(e) => write!(f, "fleet framing error: {e}"),
            FleetError::Protocol(msg) => write!(f, "fleet protocol violation: {msg}"),
            FleetError::Sketch(e) => write!(f, "fleet summary decode error: {e}"),
            FleetError::Release(e) => write!(f, "fleet release error: {e}"),
            FleetError::CoverageBelowFloor {
                covered,
                total,
                floor,
            } => write!(
                f,
                "fleet release refused: only {covered}/{total} global shards covered \
                 ({:.1}% < floor {:.1}%); no budget was charged",
                100.0 * *covered as f64 / *total as f64,
                100.0 * floor
            ),
            FleetError::Spec(msg) => write!(f, "fleet configuration error: {msg}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Io(e) => Some(e),
            FleetError::Frame(e) => Some(e),
            FleetError::Sketch(e) => Some(e),
            FleetError::Release(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> Self {
        FleetError::Io(e)
    }
}

impl From<FrameError> for FleetError {
    fn from(e: FrameError) -> Self {
        FleetError::Frame(e)
    }
}

impl From<SketchError> for FleetError {
    fn from(e: SketchError) -> Self {
        FleetError::Sketch(e)
    }
}

impl From<ReleaseError> for FleetError {
    fn from(e: ReleaseError) -> Self {
        FleetError::Release(e)
    }
}
