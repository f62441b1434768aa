//! An epoch-driven, differentially private **query-serving layer** over
//! the sharded ingestion pipeline — the deployment shape of the paper's
//! Section 7 for a long-running system: ingest forever, release per epoch,
//! answer heavy-hitter queries concurrently.
//!
//! # Architecture
//!
//! ```text
//!                    ┌─▶ shard worker 0: MisraGries(k) ─┐  rotate_epoch()      ReleaseMechanism
//! ingest ─ router ───┼─▶ shard worker 1: MisraGries(k) ─┼─▶ merged epoch ───▶ (registry, metered ─┐
//!  (batches)         └─▶ shard worker S−1 …            ─┘  summary            by an Accountant)   │
//!                                                                                                 ▼
//! queries ◀── QueryHandle ◀── lock-free snapshot chain ◀── publish(ReleasedSnapshot) ◀── epoch release
//! (point_query/top_k, any thread, zero locks)
//! ```
//!
//! * [`DpmgService`] owns a `ShardedPipeline` for ingestion and an epoch
//!   clock: epochs end by item count or explicit [`DpmgService::end_epoch`]
//!   ticks. Each epoch's merged summary is released through **any**
//!   mechanism of the `dpmg-core` registry, with every release charged
//!   against one [`Accountant`](dpmg_noise::accounting::Accountant) budget;
//!   the service refuses further epochs — uncharged, data intact — the
//!   moment the budget is exhausted.
//! * [`ServiceMode`] picks the composition across epochs: independent
//!   per-epoch charges, or the binary-tree continual-observation
//!   composition of `core::continual` (one up-front charge for the whole
//!   horizon).
//! * Released snapshots are published on a lock-free append-only chain;
//!   any number of [`QueryHandle`]s answer `point_query` / `top_k` /
//!   `histogram` concurrently with ingestion, never taking a lock.
//! * [`SequentialServiceReference`] is the single-threaded differential
//!   oracle: same routing, same merge shape, same release core — byte-for-
//!   byte identical releases under the same seed, or the pipeline is buggy.
//! * `save_state` / `restore` persist the released snapshot plus the
//!   accountant across restarts (checksummed; any corruption is rejected);
//!   the restore reports [`OpenEpochStatus::OpenEpochLost`] because the
//!   open epoch dies with the process on this path.
//! * [`DurableService`] adds full durability and elasticity on top: a
//!   group-committed write-ahead log, periodic whole-service checkpoints
//!   that truncate it, **bit-identical** crash recovery
//!   ([`OpenEpochStatus::Replayed`]), and journaled live resharding
//!   ([`DpmgService::reshard`]) — see [`wal`].
//!
//! # Privacy
//!
//! Ingestion and merging are the `dpmg-pipeline` argument (Lemma 17 /
//! Corollary 18): a multi-shard epoch summary's neighbours differ
//! one-sidedly by ≤ 1 on ≤ `k` counters, so the service only admits
//! `MergedOneSided`-calibrated mechanisms (`gshm`, `merged-laplace`) at
//! `shards > 1` — and in continual mode at *every* shard count, because
//! the dyadic tree merges epoch summaries into its level ≥ 1 nodes —
//! the same guard as `dpmg_core::mechanism::release_merged_metered`.
//! Across epochs, independent mode is basic sequential composition —
//! metered per release; continual mode is the dyadic-tree argument of
//! `core::continual` — charged once for the `L`-level composition.
//! Queries are post-processing of released snapshots and cost nothing.

#![forbid(unsafe_code)]

pub mod config;
#[cfg(test)]
#[path = "../../../tests/support/corruption.rs"]
mod corruption;
mod persist;
pub mod reference;
pub mod service;
pub mod snapshot;
pub mod wal;

pub use config::{ServiceConfig, ServiceError, ServiceMode};
pub use reference::SequentialServiceReference;
pub use service::{DpmgService, EpochRelease, OpenEpochStatus};
pub use snapshot::{QueryHandle, ReleasedSnapshot};
pub use wal::{DurabilityConfig, DurableService, RecoveryReport};
