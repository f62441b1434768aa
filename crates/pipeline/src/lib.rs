//! Sharded streaming ingestion — the ingestion half of the paper's
//! Section 7 deployment. The pipeline ends at the pre-noise merged
//! summary; its one differentially private release is
//! `dpmg_core::mechanism::release_merged_metered`.
//!
//! # Architecture
//!
//! ```text
//!                    ┌── SPSC block ring ⇄ ──▶ shard worker 0: MisraGries(k) ─┐
//! producer ─ router ─┼── SPSC block ring ⇄ ──▶ shard worker 1: MisraGries(k) ─┼─▶ merge tree ─▶ merged()
//!  (batches)         └── SPSC block ring ⇄ ──▶ shard worker S−1 …            ─┘   (sketch::merge)
//! ```
//!
//! [`ShardedPipeline`] routes each item to one of `S` shard workers by a
//! fixed hash of its key ([`Routing::HashKey`]), buffering items into
//! batches so the workers run the amortized
//! [`MisraGries::extend_batch`](dpmg_sketch::misra_gries::MisraGries::extend_batch)
//! hot path. Batch blocks travel over a bounded SPSC block [`ring`] per
//! shard, paired with a return ring (the `⇄`) that recycles spent blocks,
//! so steady-state ingestion allocates nothing. The single-threaded
//! [`sequential_sharded_reference`] replays the same routing and merge
//! shape inline and is the differential-testing oracle for the threaded
//! engine. When an epoch is sealed, the per-shard summaries are combined
//! with the binary merge tree of
//! [`sketch::merge`](dpmg_sketch::merge::merge_tree) into
//! [`ShardedPipeline::merged`], the pre-noise summary that the caller
//! releases **once**.
//!
//! # Worker lifecycle
//!
//! Shard workers are spawned once per generation and stay resident. An
//! epoch is sealed through the ring, not by joining threads:
//! [`ShardedPipeline::rotate_epoch`] (and [`ShardedPipeline::finish`])
//! queue a seal message behind each shard's last batch, and each worker
//! answers on a capacity-1 reply ring with a clone of its sketch, then
//! clears the sketch in place and keeps running.
//! [`ShardedPipeline::checkpoint_sketches`] works the same way, except
//! that the worker keeps its sketch.
//! Only [`ShardedPipeline::reshard`] joins a generation and spawns the
//! next one, at the new width; dropping the pipeline joins the last one.
//! The merge tree is unchanged by this, so merged summaries stay
//! bit-identical to the [`sequential_sharded_reference`].
//!
//! # Why the sharded release is private (Section 7)
//!
//! Neighbouring datasets `S ≃ S'` differ in one element. Every [`Routing`]
//! is a *fixed function of the key* — never of arrival position — so
//! removing one element changes exactly one shard's substream, by exactly
//! that element; every other shard sees an identical stream. Then every
//! merged summary the pipeline produces has the Corollary 18 structure:
//!
//! * **Lemma 8** (per shard): the two Misra-Gries sketches of the affected
//!   shard's neighbouring substreams differ one-sidedly by at most 1, either
//!   on one counter or on all `k`, with nested key sets.
//! * **Lemma 17** (per merge node): the Agarwal-et-al. merge preserves that
//!   relation — if one input pair is so related and the other inputs are
//!   equal, the merged outputs are so related too.
//! * **Corollary 18** (whole tree, by induction): however many merges the
//!   tree performs and in whatever fixed shape, the two merged summaries
//!   differ by at most 1 on at most `k` counters, one-sidedly. Hence
//!   ℓ1-sensitivity `k` and ℓ2-sensitivity `√k` — *independent of the shard
//!   count* — exactly the Theorem 23 precondition with `l = k`, so a single
//!   GSHM (or `Laplace(k/ε)` + threshold) release is `(ε, δ)`-DP.
//! * **Lemma 29** (utility): the merged sketch still underestimates by at
//!   most `M/(k+1)` where `M` is the *total* stream length, so sharding
//!   costs nothing in the sketch error bound either.
//!
//! The release therefore goes through
//! `dpmg_core::mechanism::release_merged_metered`, which refuses any
//! mechanism not calibrated for that structure before drawing noise or
//! charging the budget:
//!
//! ```
//! use dpmg_core::mechanism::{release_merged_metered, GshmMechanism};
//! use dpmg_noise::accounting::{Accountant, PrivacyParams};
//! use dpmg_pipeline::{PipelineConfig, ShardedPipeline};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut pipe = ShardedPipeline::new(PipelineConfig::new(4, 64)).unwrap();
//! pipe.ingest_from((0..10_000u64).map(|i| if i % 2 == 0 { 7 } else { i })).unwrap();
//! let params = PrivacyParams::new(0.9, 1e-8).unwrap();
//! let mechanism = GshmMechanism::new(params).unwrap();
//! let mut accountant = Accountant::new(params);
//! let mut rng = StdRng::seed_from_u64(42);
//! let merged = pipe.merged().unwrap();
//! let released = release_merged_metered(&mechanism, &merged, &mut accountant, &mut rng).unwrap();
//! assert!(released.estimate(&7) > 3_000.0);
//! assert_eq!(accountant.charges(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod ring;

pub use config::{PipelineConfig, PipelineError, Routing};
pub use engine::{sequential_sharded_reference, shard_of_key, PipelineStats, ShardedPipeline};
