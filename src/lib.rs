//! # dp-misra-gries
//!
//! A production-quality Rust reproduction of
//! [Lebeda & Tětek, *Better Differentially Private Approximate Histograms and
//! Heavy Hitters using the Misra-Gries Sketch*, PODS 2023]
//! (arXiv:2301.02457).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`sketch`] — the non-private streaming substrate: the paper's
//!   Misra-Gries variant (Algorithm 1), the classic variant, the
//!   sensitivity-reduction post-processing (Algorithm 3), the Privacy-Aware
//!   Misra-Gries sketch (Algorithm 4), Agarwal-et-al. merging, plus
//!   Space-Saving / Count-Min / Count-Sketch comparators.
//! * [`noise`] — Laplace, two-sided geometric (discrete Laplace) and Gaussian
//!   noise, special functions, and `(ε, δ)` accounting with group privacy.
//! * [`core`] — the private release mechanisms: `PMG` (Algorithm 2, the
//!   paper's main contribution), the pure-DP release of Section 6, private
//!   merging (Section 7), user-level mechanisms and the Gaussian Sparse
//!   Histogram Mechanism (Section 8), and the baselines the paper compares
//!   against (Chan et al., Böhler–Kerschbaum, stability histograms) — all
//!   unified behind the object-safe `core::mechanism::ReleaseMechanism`
//!   trait, enumerable from one config via `core::mechanism::registry` and
//!   budget-metered with the `noise::accounting::Accountant`.
//! * [`workload`] — synthetic stream generators (Zipf, uniform, adversarial,
//!   user-set, trace-like).
//! * [`pipeline`] — the sharded, batched streaming ingestion engine: `S`
//!   shard workers over channels, binary merge tree, one trusted DP release
//!   (the distributed deployment of Section 7, sound by Lemma 17 /
//!   Corollary 18).
//! * [`service`] — the epoch-driven DP query-serving layer over the
//!   pipeline: per-epoch registry releases metered by an `Accountant`
//!   budget (independent or binary-tree continual composition), a
//!   lock-free snapshot read path answering `point_query`/`top_k`
//!   concurrently with ingestion, and checksummed crash/restart
//!   persistence.
//! * [`server`] — the network-facing multi-tenant query API: a vendored,
//!   dependency-free HTTP/1.1 server with a fixed worker pool, typed JSON
//!   endpoints over a shared service, per-tenant budget accountants, and
//!   plain-text metrics.
//! * [`fleet`] — the multi-process aggregation fleet: worker processes
//!   sketch disjoint shard blocks of one stream, report checksummed framed
//!   summaries over pipes, and a trusted aggregator tree-merges what
//!   arrived (Lemma 17 / Corollary 18), accounts for stragglers and
//!   crashes, and performs the single `(ε, δ)` release.
//! * [`eval`] — error metrics, goodness-of-fit statistics, experiment
//!   sweeps, and an empirical privacy auditor.
//!
//! ## Quickstart
//!
//! ```
//! use dp_misra_gries::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Stream with one obvious heavy hitter.
//! let stream: Vec<u64> = (0..10_000u64).map(|i| if i % 2 == 0 { 7 } else { i }).collect();
//!
//! // Non-private Misra-Gries sketch with k = 64 counters.
//! let mut sketch = MisraGries::new(64).unwrap();
//! sketch.extend(stream.iter().copied());
//!
//! // Release under (1.0, 1e-8)-differential privacy.
//! let params = PrivacyParams::new(1.0, 1e-8).unwrap();
//! let mechanism = PrivateMisraGries::new(params).unwrap();
//! let mut rng = StdRng::seed_from_u64(42);
//! let released = mechanism.release(&sketch, &mut rng);
//!
//! // The heavy hitter survives the noise-and-threshold release.
//! assert!(released.estimate(&7) > 3_000.0);
//! ```

#![forbid(unsafe_code)]

pub use dpmg_core as core;
pub use dpmg_eval as eval;
pub use dpmg_fleet as fleet;
pub use dpmg_noise as noise;
pub use dpmg_pipeline as pipeline;
pub use dpmg_server as server;
pub use dpmg_service as service;
pub use dpmg_sketch as sketch;
pub use dpmg_workload as workload;

/// Convenient glob-import surface covering the common entry points.
pub mod prelude {
    pub use dpmg_core::heavy_hitters::{heavy_hitters, HeavyHitter};
    pub use dpmg_core::mechanism::{
        registry, registry_generic, release_merged_metered, release_metered, MechanismSpec,
        Release, ReleaseError, ReleaseMechanism, SensitivityModel,
    };
    pub use dpmg_core::pmg::{PrivateHistogram, PrivateMisraGries};
    pub use dpmg_fleet::{
        release_fleet, run_process_fleet, FleetConfig, FleetError, FleetRelease, FleetReport,
        WorkerSpec,
    };
    pub use dpmg_noise::accounting::{Accountant, PrivacyParams};
    pub use dpmg_pipeline::{PipelineConfig, ShardedPipeline};
    pub use dpmg_server::{AppState, Server, ServerConfig, ServiceBackend, TenantRegistry};
    pub use dpmg_service::{
        DpmgService, DurabilityConfig, DurableService, OpenEpochStatus, QueryHandle,
        RecoveryReport, ReleasedSnapshot, SequentialServiceReference, ServiceConfig, ServiceError,
        ServiceMode,
    };
    pub use dpmg_sketch::misra_gries::MisraGries;
    pub use dpmg_sketch::pamg::PrivacyAwareMisraGries;
    pub use dpmg_sketch::traits::{FrequencyOracle, TopKSketch};
}
