//! Sharded streaming ingestion with one trusted differentially private
//! release — the production deployment of the paper's Section 7.
//!
//! # Architecture
//!
//! ```text
//!                    ┌── SPSC block ring ⇄ ──▶ shard worker 0: MisraGries(k) ─┐
//! producer ─ router ─┼── SPSC block ring ⇄ ──▶ shard worker 1: MisraGries(k) ─┼─▶ merge tree ─▶ one DP release
//!  (batches)         └── SPSC block ring ⇄ ──▶ shard worker S−1 …            ─┘   (sketch::merge)   (core::merged)
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
//! [`sketch::merge`](dpmg_sketch::merge::merge_tree) and released **once**
//! through the trusted-aggregator mechanisms of
//! [`core::merged`](dpmg_core::merged) — by default the Gaussian Sparse
//! Histogram Mechanism the paper recommends at the end of Section 7.
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
//! The merge tree and the release are unchanged by this, so releases stay
//! bit-identical to the [`sequential_sharded_reference`].
//!
//! # Why the sharded release is private (Section 7)
//!
//! Neighbouring datasets `S ≃ S'` differ in one element. Because the router
//! is a *fixed function of the key* — never of arrival position — removing
//! one element changes exactly one shard's substream, by exactly that
//! element; every other shard sees an identical stream. Then:
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
//! [`Routing::RoundRobin`] deliberately breaks the premise of this argument
//! (removing one element shifts the shard assignment of every later item),
//! so [`ShardedPipeline::release`] refuses to run under it; it exists for
//! non-private throughput studies only.
//!
//! # Comparing ingestion strategies
//!
//! The [`StreamingMechanism`] trait gives the experiment binaries
//! (`exp_e17_pipeline`) and benches a common surface over the pipeline and
//! the single-threaded [`SequentialBaseline`], which uses the *same* sketch
//! size and release mechanism so error comparisons isolate the effect of
//! sharding.
//!
//! ```
//! use dpmg_pipeline::{PipelineConfig, ShardedPipeline};
//! use dpmg_noise::accounting::PrivacyParams;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut pipe = ShardedPipeline::new(PipelineConfig::new(4, 64)).unwrap();
//! pipe.ingest_from((0..10_000u64).map(|i| if i % 2 == 0 { 7 } else { i })).unwrap();
//! let mut rng = StdRng::seed_from_u64(42);
//! let params = PrivacyParams::new(0.9, 1e-8).unwrap();
//! let released = pipe.release(params, &mut rng).unwrap();
//! assert!(released.estimate(&7) > 3_000.0);
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod mechanism;
pub mod ring;

pub use config::{PipelineConfig, PipelineError, ReleaseKind, Routing};
pub use engine::{shard_of_key, PipelineStats, ShardedPipeline};
pub use mechanism::{
    sequential_sharded_reference, PrivatizedPipeline, SequentialBaseline, StreamingMechanism,
};
