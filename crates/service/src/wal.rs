//! Write-ahead durability for the service: segmented ingest log,
//! whole-service checkpoints, and crash recovery that reconstructs the open
//! epoch **bit-identically**.
//!
//! # The recovery contract
//!
//! A [`DurableService`] killed at any instant and reopened over the same
//! directory produces exactly the releases, query answers, and budget
//! arithmetic the uninterrupted service would have produced over the
//! *durable prefix* of its input. Three pieces make that true:
//!
//! 1. **The WAL** (`wal-{seq}.dpwl` segments). Ingested items are
//!    group-committed as checksummed `Items` records *before* they are
//!    applied to the in-memory pipeline; explicit epoch ticks are logged
//!    before the release they trigger. Replay is therefore a superset of
//!    what the dead process externally served, never a subset.
//! 2. **Checkpoints** (`checkpoint-{seq}.dpck`). Every
//!    [`DurabilityConfig::checkpoint_every_epochs`] completed epochs the
//!    full pre-noise state is written through
//!    `persist::encode_checkpoint` — per-shard sketch states (dummy slots
//!    and all), the reshard carry, the epoch clock, the accountant ledger,
//!    the released snapshot, and the xoshiro256++ noise-generator words —
//!    with an atomic tmp-file + rename, after which older segments and
//!    checkpoints are deleted. Because the generator state is captured,
//!    every replayed *and future* release re-draws the identical noise.
//! 3. **Replay.** Recovery decodes the newest checkpoint (reject — never
//!    guess — on any checksum, version, or invariant failure), rebuilds the
//!    service around it, and re-applies WAL records from the checkpoint's
//!    `wal_seq` on. Each segment is read through a fixed 64 KiB buffer one
//!    record at a time, and each record is applied as it is read, so
//!    recovery memory is the read buffer plus the largest record, however
//!    long the log; a record is never allocated before its declared length
//!    is checked against the bytes the file has left. A torn tail — a
//!    half-written record at the end of the final segment — stops replay
//!    at the last valid record, exactly the durable prefix, and recovery
//!    then **truncates the segment to that prefix** (a header that never
//!    became durable removes the file), so the segment replays cleanly on
//!    every later recovery even once it is no longer final. Corruption
//!    anywhere *before* the tail is refused outright.
//!
//! Replay mirrors live error behaviour: budget refusals
//! (`ServiceError::Release`) and horizon exhaustion during replay are
//! swallowed, because the live caller observed the same error and carried
//! on ingesting — the WAL records what happened *after* it. Epoch
//! boundaries driven by [`ServiceConfig::with_epoch_len`] are deliberately
//! **not** logged: they are a pure function of the item count, so replaying
//! the items replays the boundaries.
//!
//! # Wire formats
//!
//! Segment files hold one `DPWL` header followed by `DPWL` records;
//! checkpoint files hold one `DPCK` record. Both layouts, and their
//! checksums, are in the format table of [`dpmg_sketch::serialize`]. Both
//! live inside the operator's trust boundary: WAL items are the raw
//! stream and checkpoints are pre-noise state. Only released snapshots may
//! cross a privacy boundary.

use crate::config::{ServiceConfig, ServiceError, ServiceMode};
use crate::persist::{decode_checkpoint, encode_checkpoint, rebuild_service};
use crate::service::{DpmgService, EpochRelease, OpenEpochStatus};
use crate::snapshot::{QueryHandle, ReleasedSnapshot};
use dpmg_core::mechanism::ReleaseMechanism;
use dpmg_noise::accounting::{Accountant, PrivacyParams};
use dpmg_sketch::serialize::{Checksum, Reader, Writer};
use std::fs::{self, File, OpenOptions};
use std::io::{BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SEGMENT_MAGIC: [u8; 4] = *b"DPWL";
const SEGMENT_VERSION: u8 = 1;
const SEGMENT_HEADER_LEN: usize = 4 + 1 + 8 * 4 + 8;
/// Segment headers and records are sealed with the word-folded FNV-1a,
/// which keeps checksumming off the ingest thread's critical path.
const WAL_CHECKSUM: Checksum = Checksum::Fnv1aWords;

const RECORD_ITEMS: u8 = 0;
const RECORD_EPOCH_END: u8 = 1;
const RECORD_RESHARD: u8 = 2;

/// The largest `Items` group one record can frame: the `u32` length field
/// covers the kind byte, the item count and 8 bytes per item.
const MAX_GROUP_ITEMS: usize = (u32::MAX as usize - 1 - 8) / 8;

/// Bytes replay reads from a segment file at a time.
const REPLAY_READ_BUFFER: usize = 64 * 1024;

const SEGMENT_EXT: &str = "dpwl";
const CHECKPOINT_EXT: &str = "dpck";
const TMP_EXT: &str = "tmp";

/// Durability knobs for [`DurableService`].
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the WAL segments and checkpoints. Created on
    /// open; one service per directory.
    pub dir: PathBuf,
    /// Items buffered per group commit: each WAL write covers up to this
    /// many items, amortising the write (and optional fsync) cost.
    /// Buffered items are not yet durable — [`DurableService::flush`]
    /// forces them out. Default 1024.
    pub group_commit: usize,
    /// Checkpoint (and truncate the WAL) after every this many completed
    /// epochs. Default 4.
    pub checkpoint_every_epochs: u64,
    /// `fsync` after every WAL write and checkpoint. Off by default: the
    /// log then survives process crashes but not host power loss —
    /// the right trade for the throughput gate; flip it on when the
    /// stream cannot be replayed from upstream.
    pub sync_writes: bool,
}

impl DurabilityConfig {
    /// Defaults over `dir`: group commit 1024, checkpoint every 4 epochs,
    /// no fsync.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            group_commit: 1024,
            checkpoint_every_epochs: 4,
            sync_writes: false,
        }
    }

    /// Sets the group-commit size (items per WAL write).
    pub fn with_group_commit(mut self, items: usize) -> Self {
        self.group_commit = items;
        self
    }

    /// Sets the checkpoint cadence (completed epochs per checkpoint).
    pub fn with_checkpoint_every_epochs(mut self, epochs: u64) -> Self {
        self.checkpoint_every_epochs = epochs;
        self
    }

    /// Enables `fsync` on every WAL write and checkpoint.
    pub fn with_sync_writes(mut self, sync: bool) -> Self {
        self.sync_writes = sync;
        self
    }
}

/// What [`DurableService::open`] found and rebuilt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// `false`: no prior state existed — this is a fresh service.
    pub recovered: bool,
    /// Completed epochs restored from the checkpoint (0 when starting
    /// fresh or recovering from before the first checkpoint).
    pub checkpoint_epochs: u64,
    /// WAL segments replayed.
    pub segments_replayed: u64,
    /// Items re-applied from `Items` records.
    pub items_replayed: u64,
    /// Epochs completed *during replay* (automatic boundaries plus
    /// replayed explicit ticks).
    pub epochs_replayed: u64,
    /// A half-written record terminated the final segment; replay stopped
    /// at the last valid record (the durable prefix) and the segment was
    /// truncated to it, so a second crash before the next checkpoint still
    /// recovers.
    pub torn_tail: bool,
    /// Fate of the epoch that was open when the state was written — for a
    /// recovery this is always [`OpenEpochStatus::Replayed`].
    pub open_epoch: OpenEpochStatus,
}

/// One decoded WAL record.
enum WalRecord {
    /// An item group, decoded into the caller's reused items buffer.
    Items,
    EpochEnd,
    Reshard(usize),
}

/// A [`DpmgService`] (`u64` keys, [`ServiceMode::Independent`]) wrapped in
/// the write-ahead log + checkpoint discipline of the module docs. All
/// query methods delegate to the inner service; mutating operations are
/// journaled first.
///
/// ```no_run
/// use dpmg_core::mechanism::GshmMechanism;
/// use dpmg_noise::accounting::PrivacyParams;
/// use dpmg_service::{DurabilityConfig, DurableService, ServiceConfig};
///
/// let per_epoch = PrivacyParams::new(0.5, 1e-8).unwrap();
/// let budget = PrivacyParams::new(8.0, 1e-6).unwrap();
/// let config = ServiceConfig::new(2, 64).with_epoch_len(10_000);
/// let durability = DurabilityConfig::new("/var/lib/dpmg");
/// // First open: fresh. After a crash, the same call recovers
/// // bit-identically from the checkpoint + WAL replay.
/// let (mut service, report) = DurableService::open(
///     config,
///     Box::new(GshmMechanism::new(per_epoch).unwrap()),
///     budget,
///     durability,
///     42,
/// )
/// .unwrap();
/// for i in 0..30_000u64 {
///     service.ingest(i % 97).unwrap();
/// }
/// service.flush().unwrap();
/// assert_eq!(service.completed_epochs(), 3);
/// assert!(!report.recovered);
/// ```
pub struct DurableService {
    inner: DpmgService<u64>,
    durability: DurabilityConfig,
    segment: File,
    segment_seq: u64,
    buffer: Vec<u64>,
    last_checkpoint_epochs: u64,
    /// Set when in-memory state may have diverged from the log: a record
    /// write or fsync failed (its bytes may or may not replay), or an
    /// appended item group failed to apply (memory behind the log). Every
    /// further mutation is refused, because anything appended after the
    /// divergence would replay against the wrong state. Reopening recovers
    /// from the consistent durable history.
    poisoned: bool,
    /// Test-only failure injection, once each, in the windows the
    /// double-logging regression tests need: the next committed group's
    /// apply reports a hard error *after* its record is in the log; the
    /// next record fsync reports failure after its bytes were written.
    #[cfg(test)]
    fail_next_apply: bool,
    #[cfg(test)]
    fail_next_sync: bool,
}

impl std::fmt::Debug for DurableService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableService")
            .field("inner", &self.inner)
            .field("dir", &self.durability.dir)
            .field("segment_seq", &self.segment_seq)
            .field("buffered_items", &self.buffer.len())
            .finish_non_exhaustive()
    }
}

impl DurableService {
    /// Opens (or creates) the durable service over `durability.dir`. With
    /// no prior state the directory is initialised and a fresh service
    /// starts at WAL segment 0. With prior state, the newest checkpoint is
    /// decoded — any corruption or version mismatch is refused, never
    /// guessed around — and the WAL is replayed per the module docs, one
    /// record at a time: recovery holds a 64 KiB read buffer plus one
    /// record, not the log since the checkpoint. The report's
    /// [`RecoveryReport::open_epoch`] is then [`OpenEpochStatus::Replayed`]
    /// with the reconstructed open-epoch item count.
    ///
    /// `config`, `budget`, and `seed` must match the original service:
    /// `k`, `epoch_len`, and the budget are validated against the
    /// checkpoint (shard counts may differ — resharding makes the
    /// checkpoint's count authoritative), and the seed only feeds noise
    /// *before* the first checkpoint captures the generator state.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Persistence`] for corrupt or mismatched durable
    /// state, [`ServiceError::Io`] for filesystem failures, plus every
    /// [`DpmgService::new`] error. Continual mode is refused: dyadic-tree
    /// state is not checkpointable.
    pub fn open(
        config: ServiceConfig,
        mechanism: Box<dyn ReleaseMechanism<u64>>,
        budget: PrivacyParams,
        durability: DurabilityConfig,
        seed: u64,
    ) -> Result<(Self, RecoveryReport), ServiceError> {
        if !matches!(config.mode, ServiceMode::Independent) {
            return Err(ServiceError::Persistence(
                "durable services require ServiceMode::Independent; \
                 continual dyadic-tree state is not checkpointable",
            ));
        }
        config.validate()?;
        if durability.group_commit == 0 {
            return Err(ServiceError::Persistence("group_commit must be ≥ 1"));
        }
        if durability.group_commit > MAX_GROUP_ITEMS {
            return Err(ServiceError::Persistence(
                "group_commit exceeds the largest group one wal record can frame",
            ));
        }
        if durability.checkpoint_every_epochs == 0 {
            return Err(ServiceError::Persistence(
                "checkpoint_every_epochs must be ≥ 1",
            ));
        }
        fs::create_dir_all(&durability.dir)?;
        let DirScan {
            segments,
            checkpoints,
            tmp,
        } = DirScan::new(&durability.dir)?;
        // Sweep checkpoint tmp files orphaned by a crash between create
        // and rename: never valid recovery inputs, whatever their name.
        for (_, path) in tmp {
            let _ = fs::remove_file(&path);
        }

        let checkpoint = match checkpoints.last() {
            Some((_, path)) => Some(
                decode_checkpoint(&fs::read(path)?, &config, budget)
                    .map_err(ServiceError::Persistence)?,
            ),
            None => None,
        };
        let recovered = checkpoint.is_some() || !segments.is_empty();
        let checkpoint_epochs = checkpoint.as_ref().map_or(0, |c| c.released.snapshot.epoch);
        let replay_from = checkpoint.as_ref().map_or(0, |c| c.wal_seq);

        let mut inner = match checkpoint {
            Some(checkpoint) => {
                // The checkpoint's shard count is authoritative: live
                // resharding makes it a runtime value the caller's config
                // cannot know.
                let mut config = config;
                config.shards = checkpoint.shards;
                rebuild_service(
                    config,
                    mechanism,
                    seed,
                    checkpoint.released,
                    Some(checkpoint.open),
                )?
            }
            None => DpmgService::new(config, mechanism, budget, seed)?,
        };

        let replay: Vec<&(u64, PathBuf)> = segments
            .iter()
            .filter(|(seq, _)| *seq >= replay_from)
            .collect();
        // A hole in the sequence means a segment went missing: everything
        // after it would replay against the wrong state. That includes a
        // missing *first* segment — replay must pick up exactly where the
        // checkpoint (or, with none, sequence 0) left off.
        if let Some(first) = replay.first() {
            if first.0 != replay_from {
                return Err(ServiceError::Persistence(
                    "wal does not start at the checkpoint's sequence; \
                     refusing partial replay",
                ));
            }
        }
        for pair in replay.windows(2) {
            if pair[1].0 != pair[0].0 + 1 {
                return Err(ServiceError::Persistence(
                    "wal segment sequence has a gap; refusing partial replay",
                ));
            }
        }
        let epochs_before = inner.completed_epochs();
        let mut items_replayed = 0u64;
        let mut torn_tail = false;
        let mut reuse_seq = None;
        for (idx, (seq, path)) in replay.iter().enumerate() {
            let is_last = idx + 1 == replay.len();
            let outcome = replay_segment(&mut inner, path, *seq)?;
            items_replayed += outcome.items;
            if outcome.torn {
                if !is_last {
                    // Valid later segments imply the writer moved on, so
                    // this mid-log damage is corruption, not a crash tail.
                    return Err(ServiceError::Persistence(
                        "wal record corrupt before the final segment",
                    ));
                }
                torn_tail = true;
                // Repair: cut the tail down to its valid prefix so this
                // segment replays cleanly on every later recovery, even
                // once it is no longer the final one.
                if outcome.valid_len >= SEGMENT_HEADER_LEN as u64 {
                    let file = OpenOptions::new().write(true).open(path)?;
                    file.set_len(outcome.valid_len)?;
                    if durability.sync_writes {
                        file.sync_all()?;
                    }
                } else {
                    // Not even the header became durable: nothing valid in
                    // the file at all. Remove it and reissue its sequence.
                    fs::remove_file(path)?;
                    if durability.sync_writes {
                        fsync_dir(&durability.dir)?;
                    }
                    reuse_seq = Some(*seq);
                }
            }
        }
        let epochs_replayed = inner.completed_epochs() - epochs_before;

        let next_seq = match (reuse_seq, segments.last(), replay_from) {
            (Some(seq), _, _) => seq,
            (None, Some((max_seq, _)), _) => max_seq + 1,
            (None, None, seq) => seq,
        };
        let segment = open_segment_file(&durability, &inner, next_seq)?;
        let service = Self {
            inner,
            durability,
            segment,
            segment_seq: next_seq,
            buffer: Vec::new(),
            last_checkpoint_epochs: checkpoint_epochs,
            poisoned: false,
            #[cfg(test)]
            fail_next_apply: false,
            #[cfg(test)]
            fail_next_sync: false,
        };
        let open_epoch = OpenEpochStatus::Replayed {
            items: service.inner.open_epoch_items(),
        };
        let report = RecoveryReport {
            recovered,
            checkpoint_epochs,
            segments_replayed: replay.len() as u64,
            items_replayed,
            epochs_replayed,
            torn_tail,
            open_epoch,
        };
        Ok((service, report))
    }

    /// The wrapped service, for the full read-side API (`query_handle`,
    /// `transcript`, `stats`, …).
    pub fn service(&self) -> &DpmgService<u64> {
        &self.inner
    }

    /// The configuration in use (shard count reflects live reshards).
    pub fn config(&self) -> &ServiceConfig {
        self.inner.config()
    }

    /// The budget accountant.
    pub fn accountant(&self) -> &Accountant {
        self.inner.accountant()
    }

    /// Number of completed (released) epochs.
    pub fn completed_epochs(&self) -> u64 {
        self.inner.completed_epochs()
    }

    /// Items in the current open epoch **that have been committed**;
    /// group-commit-buffered items are excluded until the next flush.
    pub fn open_epoch_items(&self) -> u64 {
        self.inner.open_epoch_items()
    }

    /// Items awaiting the next group commit (not yet durable or visible).
    pub fn buffered_items(&self) -> usize {
        self.buffer.len()
    }

    /// A lock-free read handle, as [`DpmgService::query_handle`].
    pub fn query_handle(&self) -> QueryHandle<u64> {
        self.inner.query_handle()
    }

    /// The newest published snapshot.
    pub fn latest(&self) -> Arc<ReleasedSnapshot<u64>> {
        self.inner.latest()
    }

    /// Cumulative released estimate of `key`.
    pub fn point_query(&self, key: &u64) -> f64 {
        self.inner.point_query(key)
    }

    /// Top-`n` released keys.
    pub fn top_k(&self, n: usize) -> Vec<(u64, f64)> {
        self.inner.top_k(n)
    }

    /// The trusted record of the last 16 epochs released since this
    /// process started (replayed epochs included), oldest first; read each
    /// entry's `epoch`, since the oldest is evicted from the 17th release
    /// on (see [`DpmgService::transcript`]).
    pub fn transcript(&self) -> &[EpochRelease<u64>] {
        self.inner.transcript()
    }

    /// Ingests one item under group commit: [`Self::ingest_from`] over it.
    ///
    /// # Errors
    ///
    /// As [`Self::ingest_from`].
    pub fn ingest(&mut self, item: u64) -> Result<(), ServiceError> {
        self.ingest_from(std::iter::once(item))
    }

    /// Ingests a stream under group commit as [`Self::ingest`] per item
    /// would, stopping at the first error (later items stay in the
    /// iterator): items fill the group buffer in bulk, and each full
    /// [`DurabilityConfig::group_commit`] group is written to the WAL
    /// **first**, then applied with one [`DpmgService::ingest_from`] call.
    /// An item is durable and query-visible only after its group commits.
    ///
    /// # Errors
    ///
    /// WAL I/O failures, which poison the service, plus every
    /// [`DpmgService::ingest_from`] error once a group applies — notably the
    /// budget refusal at automatic epoch boundaries. The refusal never loses
    /// data: the whole group is logged and applied (matching replay), with
    /// the first release error reported after.
    pub fn ingest_from(
        &mut self,
        items: impl IntoIterator<Item = u64>,
    ) -> Result<(), ServiceError> {
        self.check_not_poisoned()?;
        let mut items = items.into_iter();
        let group = self.durability.group_commit;
        loop {
            self.buffer
                .extend(items.by_ref().take(group.saturating_sub(self.buffer.len())));
            if self.buffer.len() < group {
                return Ok(());
            }
            self.commit()?;
        }
    }

    /// Forces out a partial group commit: buffered items become durable,
    /// applied, and query-visible.
    ///
    /// # Errors
    ///
    /// As [`Self::ingest`].
    pub fn flush(&mut self) -> Result<(), ServiceError> {
        self.commit()
    }

    /// Explicit epoch tick: flushes the buffer, journals the tick, then
    /// releases the epoch as [`DpmgService::end_epoch`]. Completed epochs
    /// trigger the checkpoint cadence.
    ///
    /// # Errors
    ///
    /// As [`DpmgService::end_epoch`] plus WAL I/O, which poisons the
    /// service (see [`Self::commit`]). A budget refusal leaves the epoch
    /// open exactly like the inner service; the journaled tick replays to
    /// the same refusal.
    pub fn end_epoch(&mut self) -> Result<Arc<ReleasedSnapshot<u64>>, ServiceError> {
        self.commit()?;
        self.append(wal_record(RECORD_EPOCH_END, 0)?)?;
        let snapshot = self.inner.end_epoch()?;
        self.maybe_checkpoint()?;
        Ok(snapshot)
    }

    /// Live elastic resharding, journaled: flushes the buffer, applies
    /// [`DpmgService::reshard`], and logs the new width once it succeeds
    /// (a reshard that is refused — or lost to a crash in the instant
    /// before its record lands — leaves the log a consistent pre-reshard
    /// history; nothing externally visible depended on it yet).
    ///
    /// # Errors
    ///
    /// As [`DpmgService::reshard`] plus WAL I/O. If the record itself
    /// fails to write *after* the reshard applied, the service is
    /// **poisoned** — the in-memory state is ahead of the log, so every
    /// further mutation is refused; reopen to recover from the durable
    /// pre-reshard state.
    pub fn reshard(&mut self, new_shards: usize) -> Result<(), ServiceError> {
        self.commit()?;
        let mut record = wal_record(RECORD_RESHARD, 8)?;
        record.u64(new_shards as u64);
        self.inner.reshard(new_shards)?;
        self.append(record)
    }

    /// Writes a checkpoint now and truncates the WAL behind it (the
    /// automatic cadence calls this every
    /// [`DurabilityConfig::checkpoint_every_epochs`] completed epochs).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Persistence`] when a rotated epoch is parked
    /// awaiting a release retry (pending summaries are pre-noise state the
    /// checkpoint format does not carry — retry [`Self::end_epoch`]
    /// first); I/O and pipeline failures otherwise.
    pub fn checkpoint(&mut self) -> Result<(), ServiceError> {
        self.commit()?;
        self.write_checkpoint()
    }

    /// Writes the buffered group to the WAL as one `Items` record (items
    /// encoded by one [`Writer::u64s`] call), then applies it; the buffer is
    /// cleared, not replaced, so its capacity is reused. Once the write
    /// starts the group is retired whatever happens: an I/O error or a hard
    /// apply error poisons the service, so a retry can never append the
    /// same group twice.
    fn commit(&mut self) -> Result<(), ServiceError> {
        self.check_not_poisoned()?;
        if self.buffer.is_empty() {
            return Ok(());
        }
        let mut record = wal_record(RECORD_ITEMS, 8 + self.buffer.len() * 8)?;
        record.u64(self.buffer.len() as u64);
        record.u64s(&self.buffer);
        self.append(record)?;
        // The group is in the log from here on: replay WILL apply it on the
        // next open, so the buffer is retired however the apply goes — kept
        // across a hard apply error, a retried flush would append the *same
        // group again*. A hard error leaves memory behind the log: poison,
        // so nothing extends the log from diverged state; reopening replays
        // this group exactly once.
        let applied = apply_items(&mut self.inner, &self.buffer);
        #[cfg(test)]
        let applied = match std::mem::take(&mut self.fail_next_apply) {
            true => Err(ServiceError::Persistence("injected hard apply failure")),
            false => applied,
        };
        self.buffer.clear();
        if applied.is_err() {
            self.poisoned = true;
        }
        let first_error = applied?;
        self.maybe_checkpoint()?;
        first_error.map_or(Ok(()), Err)
    }

    fn maybe_checkpoint(&mut self) -> Result<(), ServiceError> {
        let due = self
            .inner
            .completed_epochs()
            .saturating_sub(self.last_checkpoint_epochs)
            >= self.durability.checkpoint_every_epochs;
        // The automatic cadence silently defers while a failed release is
        // parked for retry; the explicit path reports it instead.
        if due && !self.inner.core().has_pending() {
            self.write_checkpoint()?;
        }
        Ok(())
    }

    fn write_checkpoint(&mut self) -> Result<(), ServiceError> {
        debug_assert!(self.buffer.is_empty(), "commit before checkpointing");
        if self.inner.core().has_pending() {
            return Err(ServiceError::Persistence(
                "a rotated epoch is pending release retry; its pre-noise summary \
                 cannot be checkpointed — retry end_epoch first",
            ));
        }
        let next_seq = self.segment_seq + 1;
        let sketches = self.inner.pipeline_mut().checkpoint_sketches()?;
        let carry = self.inner.pipeline_mut().carry().cloned();
        let bytes = encode_checkpoint(&self.inner, next_seq, &sketches, carry.as_ref());
        let final_path = self
            .durability
            .dir
            .join(artifact_name(CHECKPOINT_EXT, next_seq));
        let tmp_path = final_path.with_extension(TMP_EXT);
        {
            let mut tmp = File::create(&tmp_path)?;
            tmp.write_all(&bytes)?;
            if self.durability.sync_writes {
                tmp.sync_all()?;
            }
        }
        fs::rename(&tmp_path, &final_path)?;
        if self.durability.sync_writes {
            // Make the rename itself power-loss durable before anything
            // that depends on it: the segment rotation, and above all the
            // GC deletions — a lost rename after persisted deletions would
            // leave neither checkpoint nor WAL.
            fsync_dir(&self.durability.dir)?;
        }
        self.open_segment(next_seq)?;
        self.last_checkpoint_epochs = self.inner.completed_epochs();
        self.garbage_collect(next_seq)?;
        Ok(())
    }

    fn open_segment(&mut self, seq: u64) -> Result<(), ServiceError> {
        self.segment = open_segment_file(&self.durability, &self.inner, seq)?;
        self.segment_seq = seq;
        Ok(())
    }

    fn check_not_poisoned(&self) -> Result<(), ServiceError> {
        if self.poisoned {
            return Err(ServiceError::Persistence(
                "service is poisoned: in-memory state diverged from the wal \
                 (a wal write or fsync failed, or a logged group failed to \
                 apply) — reopen to recover from the durable state",
            ));
        }
        Ok(())
    }

    /// Seals `record` and appends it to the segment, fsyncing it under
    /// [`DurabilityConfig::sync_writes`]. Any I/O error poisons the service
    /// and retires the group buffer: the record may already be in the
    /// segment, and a failed fsync is never retried.
    fn append(&mut self, record: Writer) -> Result<(), ServiceError> {
        let mut written = self.segment.write_all(&record.seal(WAL_CHECKSUM));
        if written.is_ok() && self.durability.sync_writes {
            written = self.segment.sync_data();
            #[cfg(test)]
            if std::mem::take(&mut self.fail_next_sync) {
                written = Err(std::io::Error::other("injected fsync failure (test hook)"));
            }
        }
        if written.is_err() {
            self.buffer.clear();
            self.poisoned = true;
        }
        written.map_err(ServiceError::from)
    }

    /// Deletes segments, checkpoints, and orphaned checkpoint tmp files
    /// strictly older than `keep_seq`. Best-effort: a file already gone is
    /// fine.
    fn garbage_collect(&self, keep_seq: u64) -> Result<(), ServiceError> {
        let scan = DirScan::new(&self.durability.dir)?;
        let tmp = scan
            .tmp
            .into_iter()
            .filter_map(|(seq, path)| Some((seq?, path)));
        for (seq, path) in scan.segments.into_iter().chain(scan.checkpoints).chain(tmp) {
            if seq < keep_seq {
                match fs::remove_file(&path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e.into()),
                }
            }
        }
        Ok(())
    }
}

/// Best-effort flush on drop: without it, up to `group_commit − 1`
/// buffered items would vanish silently on every *clean* shutdown — a
/// durability hole no crash was needed to hit. Errors are swallowed (a
/// destructor has no caller to report to, and must never panic); callers
/// that need the error should call [`DurableService::flush`] explicitly
/// before dropping. A poisoned service skips the flush: its buffer is
/// already retired and the log must not be extended from diverged state.
impl Drop for DurableService {
    fn drop(&mut self) {
        if self.poisoned || self.buffer.is_empty() {
            return;
        }
        // commit() only returns errors, but a destructor that unwinds
        // during an unwind aborts the process — keep the guarantee
        // airtight even if an inner invariant trips.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = self.commit();
        }));
    }
}

/// Creates WAL segment `seq` and writes its checksummed header.
fn open_segment_file(
    durability: &DurabilityConfig,
    service: &DpmgService<u64>,
    seq: u64,
) -> Result<File, ServiceError> {
    let path = durability.dir.join(artifact_name(SEGMENT_EXT, seq));
    let mut file = OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&path)?;
    file.write_all(&segment_header(service, seq))?;
    if durability.sync_writes {
        file.sync_data()?;
        // The file's directory entry must survive power loss too.
        fsync_dir(&durability.dir)?;
    }
    Ok(file)
}

/// The sealed header of segment `seq`, stamped with `service`'s `k`,
/// shard count and completed epochs.
fn segment_header(service: &DpmgService<u64>, seq: u64) -> Vec<u8> {
    let mut header = Writer::with_capacity(SEGMENT_HEADER_LEN);
    header.bytes(&SEGMENT_MAGIC);
    header.u8(SEGMENT_VERSION);
    header.u64(seq);
    header.u64(service.config().k as u64);
    header.u64(service.config().shards as u64);
    header.u64(service.completed_epochs());
    header.seal(WAL_CHECKSUM)
}

/// Durably records directory-entry changes (creates, renames, deletes) —
/// the power-loss half of `sync_writes` that `sync_data` on the files
/// themselves cannot provide.
fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Applies a committed group with [`DpmgService::ingest_from`], resuming
/// after each release refusal exactly like replay does (the first such
/// error is handed back for the live caller; fatal engine errors abort
/// immediately).
fn apply_items(
    service: &mut DpmgService<u64>,
    items: &[u64],
) -> Result<Option<ServiceError>, ServiceError> {
    let mut items = items.iter().copied();
    let mut first_error = None;
    loop {
        match service.ingest_from(items.by_ref()) {
            Ok(()) => return Ok(first_error),
            Err(e @ (ServiceError::Release(_) | ServiceError::HorizonExhausted { .. })) => {
                first_error.get_or_insert(e);
            }
            Err(e) => return Err(e),
        }
    }
}

struct SegmentReplay {
    items: u64,
    torn: bool,
    /// Bytes of valid prefix (header plus every checksum-clean record) —
    /// the truncation point when the tail is torn.
    valid_len: u64,
}

/// Replays one segment's valid prefix into `service`, one record at a
/// time: each record is read into one reused buffer, once its declared
/// length fits in the bytes the file has left, and applied before the next
/// is read. Returns how far it got; `torn` flags an invalid header or
/// record, after which the caller decides (tail of the final segment:
/// repairable; earlier: corruption).
fn replay_segment(
    service: &mut DpmgService<u64>,
    path: &Path,
    expected_seq: u64,
) -> Result<SegmentReplay, ServiceError> {
    let file = File::open(path)?;
    let mut left = file.metadata()?.len();
    let mut input = BufReader::with_capacity(REPLAY_READ_BUFFER, file);
    let mut replay = SegmentReplay {
        items: 0,
        torn: true,
        valid_len: 0,
    };
    let mut frame = Vec::new();
    // A header that is short or fails its checksum never became durable.
    if !read_more(&mut input, &mut left, SEGMENT_HEADER_LEN as u64, &mut frame)? {
        return Ok(replay);
    }
    let Ok(header) = unseal_wal(&frame) else {
        return Ok(replay);
    };
    check_segment_header(header, expected_seq, service.config().k)
        .map_err(ServiceError::Persistence)?;

    replay.torn = false;
    replay.valid_len = SEGMENT_HEADER_LEN as u64;
    let mut items = Vec::new();
    while left > 0 {
        // The length field, then the rest of the frame it declares.
        frame.clear();
        if !read_more(&mut input, &mut left, 4, &mut frame)? {
            replay.torn = true;
            break;
        }
        let payload_len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]);
        let rest = u64::from(payload_len) + 8; // the payload, then the checksum
        if !read_more(&mut input, &mut left, rest, &mut frame)? {
            replay.torn = true;
            break;
        }
        let Ok(record) = next_record(&mut frame.as_slice(), &mut items) else {
            replay.torn = true;
            break;
        };
        replay.valid_len += frame.len() as u64;
        match record {
            WalRecord::Items => {
                replay.items += items.len() as u64;
                apply_items(service, &items)?;
            }
            WalRecord::EpochEnd => match service.end_epoch() {
                Ok(_) => {}
                Err(ServiceError::Release(_) | ServiceError::HorizonExhausted { .. }) => {}
                Err(e) => return Err(e),
            },
            WalRecord::Reshard(new_shards) => match service.reshard(new_shards) {
                Ok(()) => {}
                Err(ServiceError::Release(_)) => {}
                Err(e) => return Err(e),
            },
        }
    }
    Ok(replay)
}

/// Appends the next `len` bytes of `input` to `buf`, where `left` counts
/// the bytes the file has left. Returns `false`, reading and allocating
/// nothing, when fewer than `len` are left: a length the file cannot hold
/// is a torn tail, not a buffer to request.
fn read_more(
    input: &mut impl Read,
    left: &mut u64,
    len: u64,
    buf: &mut Vec<u8>,
) -> std::io::Result<bool> {
    if len > *left {
        return Ok(false);
    }
    let start = buf.len();
    let end = start + usize::try_from(len).map_err(std::io::Error::other)?;
    buf.resize(end, 0);
    input.read_exact(&mut buf[start..])?;
    *left -= len;
    Ok(true)
}

/// Verifies a sealed header or record's checksum and reads its body.
fn unseal_wal(bytes: &[u8]) -> Result<Reader<'_>, &'static str> {
    Reader::unseal(
        bytes,
        WAL_CHECKSUM,
        "wal record truncated",
        "wal checksum mismatch",
    )
}

/// Checks a checksum-verified segment header against the segment's
/// filename sequence and the configured `k`.
fn check_segment_header(mut r: Reader<'_>, seq: u64, k: usize) -> Result<(), &'static str> {
    r.expect_magic(SEGMENT_MAGIC, "bad wal segment magic")?;
    r.expect_version(SEGMENT_VERSION, "unsupported wal segment version")?;
    if r.u64()? != seq {
        return Err("wal segment sequence disagrees with its filename");
    }
    if r.u64()? != k as u64 {
        return Err("wal segment k does not match the configuration");
    }
    // Shard count and epoch at open are informational (resharding and
    // replay recompute them); skip.
    r.bytes(16)?;
    r.end("wal segment header has trailing bytes")
}

/// Starts a record whose body is `body_len` bytes: the `u32` payload
/// length, then the kind byte. A payload the length field cannot frame is
/// refused — a wrapped length would make replay truncate the record, and
/// everything after it, as a torn tail.
fn wal_record(kind: u8, body_len: usize) -> Result<Writer, ServiceError> {
    let payload_len = body_len
        .checked_add(1)
        .and_then(|len| u32::try_from(len).ok())
        .ok_or(ServiceError::Persistence(
            "wal record payload exceeds the u32 length field",
        ))?;
    let mut record = Writer::with_capacity(4 + payload_len as usize + 8);
    record.u32(payload_len);
    record.u8(kind);
    Ok(record)
}

/// Decodes the record at the front of `rest`, advancing past it; an
/// `Items` record's group replaces the contents of `items`. An error means
/// the record is truncated, checksum-mismatched or malformed: the segment's
/// valid prefix ends before it.
fn next_record(rest: &mut &[u8], items: &mut Vec<u64>) -> Result<WalRecord, &'static str> {
    let payload_len = Reader::new(rest, "wal record length truncated").u32()? as usize;
    let framed = payload_len
        .checked_add(4 + 8)
        .and_then(|len| rest.get(..len))
        .ok_or("wal record truncated")?;
    let mut r = unseal_wal(framed)?;
    r.u32()?; // the payload length, read above
    let record = match r.u8()? {
        RECORD_ITEMS => {
            let declared = r.u64()?;
            let count = r.count(
                declared,
                8,
                "wal item count disagrees with the record length",
            )?;
            items.clear();
            items.reserve(count);
            for _ in 0..count {
                items.push(r.u64()?);
            }
            WalRecord::Items
        }
        RECORD_EPOCH_END => WalRecord::EpochEnd,
        RECORD_RESHARD => {
            let shards = usize::try_from(r.u64()?)
                .ok()
                .filter(|s| *s >= 1)
                .ok_or("wal reshard width invalid")?;
            WalRecord::Reshard(shards)
        }
        _ => return Err("unknown wal record kind"),
    };
    r.end("wal record has trailing bytes")?;
    *rest = &rest[framed.len()..];
    Ok(record)
}

/// `{stem}-{seq:020}.{ext}` — zero-padded so lexicographic order is
/// sequence order.
fn artifact_name(ext: &str, seq: u64) -> String {
    let stem = match ext {
        SEGMENT_EXT => "wal",
        _ => "checkpoint",
    };
    format!("{stem}-{seq:020}.{ext}")
}

/// One `read_dir` pass over a durability directory, sorted by kind and
/// then by sequence number. Foreign files (other extensions, or a segment
/// or checkpoint whose name has no `-{seq}`) are ignored.
struct DirScan {
    /// `wal-{seq}.dpwl` files.
    segments: Vec<(u64, PathBuf)>,
    /// `checkpoint-{seq}.dpck` files.
    checkpoints: Vec<(u64, PathBuf)>,
    /// Every `.tmp` file (a checkpoint orphaned between create and
    /// rename), with the sequence number its name carries, if any.
    tmp: Vec<(Option<u64>, PathBuf)>,
}

impl DirScan {
    fn new(dir: &Path) -> Result<Self, ServiceError> {
        let mut scan = Self {
            segments: Vec::new(),
            checkpoints: Vec::new(),
            tmp: Vec::new(),
        };
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            let seq = path
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(|name| name.rsplit_once('-'))
                .and_then(|(_, seq)| seq.parse::<u64>().ok());
            let kind = match path.extension().and_then(|e| e.to_str()) {
                Some(SEGMENT_EXT) => &mut scan.segments,
                Some(CHECKPOINT_EXT) => &mut scan.checkpoints,
                Some(TMP_EXT) => {
                    scan.tmp.push((seq, path));
                    continue;
                }
                _ => continue,
            };
            if let Some(seq) = seq {
                kind.push((seq, path));
            }
        }
        scan.segments.sort_unstable_by_key(|(seq, _)| *seq);
        scan.checkpoints.sort_unstable_by_key(|(seq, _)| *seq);
        scan.tmp.sort_unstable_by_key(|(seq, _)| *seq);
        Ok(scan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corruption::{check, reseal_with, Codec};
    use dpmg_core::mechanism::GshmMechanism;
    use dpmg_sketch::serialize::fnv1a_words_checksum;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Self-cleaning unique test directory (no tempfile dependency).
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            static N: AtomicU64 = AtomicU64::new(0);
            let n = N.fetch_add(1, Ordering::SeqCst);
            let path =
                std::env::temp_dir().join(format!("dpmg-wal-{}-{tag}-{n}", std::process::id()));
            let _ = fs::remove_dir_all(&path);
            fs::create_dir_all(&path).unwrap();
            Self(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn open(
        durability: DurabilityConfig,
    ) -> Result<(DurableService, RecoveryReport), ServiceError> {
        DurableService::open(
            ServiceConfig::new(2, 16),
            Box::new(GshmMechanism::new(PrivacyParams::new(0.8, 1e-8).unwrap()).unwrap()),
            PrivacyParams::new(100.0, 1e-4).unwrap(),
            durability,
            42,
        )
    }

    /// Regression for the double-logging bug: `commit()` durably appends
    /// the `Items` record and *then* applies it in memory. On the pre-fix
    /// code a hard apply error left `self.buffer` intact, so a retried
    /// `flush()` appended the same group a second time — replay then
    /// applied it twice while the live service had applied it once.
    #[test]
    fn hard_apply_failure_after_durable_append_never_double_logs() {
        let dir = TempDir::new("double-log");
        let durability = DurabilityConfig::new(&dir.0).with_group_commit(1_000);
        {
            let (mut svc, _) = open(durability.clone()).unwrap();
            for i in 0..100u64 {
                svc.ingest(i).unwrap();
            }
            svc.fail_next_apply = true;
            let err = svc.flush().unwrap_err();
            assert!(matches!(err, ServiceError::Persistence(_)), "{err}");
            // The group is durable; the buffer must be retired so no retry
            // can ever re-append it (pre-fix: 100 items still buffered).
            assert_eq!(svc.buffered_items(), 0, "buffer must be retired");
            // Memory diverged from the log — the service is poisoned and
            // refuses the retry outright (pre-fix: the retry re-appended).
            let err = svc.ingest(1).unwrap_err();
            assert!(
                err.to_string().contains("poisoned"),
                "mutation after divergence must be refused, got: {err}"
            );
            let err = svc.flush().unwrap_err();
            assert!(err.to_string().contains("poisoned"), "{err}");
            std::mem::forget(svc); // killed while poisoned
        }
        // Reopen: replay applies the logged group exactly once.
        let (recovered, report) = open(durability).unwrap();
        assert!(report.recovered);
        assert_eq!(
            report.items_replayed, 100,
            "the group must replay exactly once (a double append replays 200)"
        );
        assert_eq!(recovered.open_epoch_items(), 100);
    }

    /// A poisoned service must not flush from `Drop` either — the log
    /// would be extended from diverged state.
    #[test]
    fn poisoned_service_skips_the_drop_flush() {
        let dir = TempDir::new("poisoned-drop");
        let durability = DurabilityConfig::new(&dir.0).with_group_commit(1_000);
        {
            let (mut svc, _) = open(durability.clone()).unwrap();
            for i in 0..50u64 {
                svc.ingest(i).unwrap();
            }
            svc.fail_next_apply = true;
            svc.flush().unwrap_err();
            // Buffer some more items directly; drop must NOT commit them.
            svc.buffer.push(7);
            // Plain drop: the best-effort flush must notice the poison.
        }
        let (recovered, report) = open(durability).unwrap();
        assert_eq!(report.items_replayed, 50);
        assert_eq!(recovered.open_epoch_items(), 50);
    }

    /// Regression for the retried-fsync bug: a failed write or fsync left
    /// the group buffered and the service live, so a retried `flush`
    /// appended the same group again and replay applied it twice.
    #[test]
    fn failed_fsync_poisons_and_never_double_logs() {
        let dir = TempDir::new("fsync-poison");
        let durability = DurabilityConfig::new(&dir.0)
            .with_group_commit(1_000)
            .with_sync_writes(true);
        {
            let (mut svc, _) = open(durability.clone()).unwrap();
            svc.ingest_from(0..100u64).unwrap();
            svc.fail_next_sync = true;
            let err = svc.flush().unwrap_err();
            assert!(matches!(err, ServiceError::Io(_)), "{err}");
            assert_eq!(svc.buffered_items(), 0, "buffer must be retired");
            for retry in [svc.flush(), svc.ingest(1), svc.end_epoch().map(drop)] {
                let err = retry.unwrap_err();
                assert!(err.to_string().contains("poisoned"), "{err}");
            }
        }
        // The written record replays exactly once; the poisoned drop
        // appended nothing.
        let (recovered, report) = open(durability).unwrap();
        assert_eq!(report.items_replayed, 100);
        assert_eq!(recovered.open_epoch_items(), 100);
        assert_eq!(recovered.completed_epochs(), 0);
    }

    /// The Items record for `items`, as `commit` writes it.
    fn items_record(items: &[u64]) -> Vec<u8> {
        let mut record = wal_record(RECORD_ITEMS, 8 + items.len() * 8).unwrap();
        record.u64(items.len() as u64);
        for &item in items {
            record.u64(item);
        }
        record.seal(WAL_CHECKSUM)
    }

    /// Ingests one flushed group per entry of `groups` into a fresh
    /// service over `dir`, then drops it. Returns segment 0's path and the
    /// offset of each group's record in it.
    fn write_groups(dir: &Path, groups: &[u64]) -> (PathBuf, Vec<u64>) {
        let (mut svc, _) = open(DurabilityConfig::new(dir)).unwrap();
        let mut offsets = Vec::new();
        let mut offset = SEGMENT_HEADER_LEN as u64;
        for &n in groups {
            offsets.push(offset);
            svc.ingest_from(0..n).unwrap();
            svc.flush().unwrap();
            offset += items_record(&vec![0; n as usize]).len() as u64;
        }
        drop(svc);
        let path = dir.join(artifact_name(SEGMENT_EXT, 0));
        assert_eq!(fs::metadata(&path).unwrap().len(), offset);
        (path, offsets)
    }

    /// `read_more` checks a length against the bytes left before it
    /// touches the buffer or the input: a record declaring ~4 GiB in a
    /// short file requests no buffer at all.
    #[test]
    fn read_more_refuses_a_length_the_file_cannot_hold_before_allocating() {
        struct Unreadable;
        impl Read for Unreadable {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                panic!("read_more read past its bytes-left check");
            }
        }
        let mut left = 40;
        let mut buf = Vec::new();
        let declared = u64::from(u32::MAX - 3) + 8;
        assert!(!read_more(&mut Unreadable, &mut left, declared, &mut buf).unwrap());
        assert_eq!((left, buf.capacity()), (40, 0));
        assert!(!read_more(&mut Unreadable, &mut left, 41, &mut buf).unwrap());
        assert_eq!((left, buf.capacity()), (40, 0));
        let mut input: &[u8] = &[7; 40];
        assert!(read_more(&mut input, &mut left, 40, &mut buf).unwrap());
        assert_eq!((left, buf), (0, vec![7; 40]));
    }

    /// The final segment's last record declares a ~4 GiB payload the file
    /// cannot hold: recovery reports a torn tail, truncates to the valid
    /// prefix and opens.
    #[test]
    fn a_record_declaring_more_than_the_file_holds_is_a_torn_tail() {
        let dir = TempDir::new("huge-length");
        let (path, _) = write_groups(&dir.0, &[10, 20]);
        let valid_len = fs::metadata(&path).unwrap().len();
        let mut tail = (u32::MAX - 3).to_le_bytes().to_vec();
        tail.push(RECORD_ITEMS);
        tail.extend_from_slice(&[0xAB; 64]);
        OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(&tail)
            .unwrap();

        let (recovered, report) = open(DurabilityConfig::new(&dir.0)).unwrap();
        assert!(report.torn_tail);
        assert_eq!(report.items_replayed, 30);
        assert_eq!(recovered.open_epoch_items(), 30);
        drop(recovered);
        assert_eq!(fs::metadata(&path).unwrap().len(), valid_len);
    }

    /// A record whose declared length fits in the file but whose checksum
    /// fails is torn at its own offset: it and everything after it in the
    /// final segment are cut, and the next recovery is clean.
    #[test]
    fn a_record_that_fits_but_fails_its_checksum_is_torn_at_its_own_offset() {
        let dir = TempDir::new("bad-checksum");
        let (path, offsets) = write_groups(&dir.0, &[10, 20, 30]);
        let mut bytes = fs::read(&path).unwrap();
        // An item byte of the second record: its length field is intact.
        bytes[offsets[1] as usize + 4 + 1 + 8 + 3] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        let (recovered, report) = open(DurabilityConfig::new(&dir.0)).unwrap();
        assert!(report.torn_tail);
        assert_eq!(report.items_replayed, 10);
        assert_eq!(recovered.open_epoch_items(), 10);
        drop(recovered);
        assert_eq!(fs::metadata(&path).unwrap().len(), offsets[1]);

        let (recovered, report) = open(DurabilityConfig::new(&dir.0)).unwrap();
        assert!(!report.torn_tail);
        assert_eq!(report.items_replayed, 10);
        assert_eq!(recovered.open_epoch_items(), 10);
    }

    #[test]
    fn corruption_suite_dpwl_header() {
        let svc = DpmgService::new(
            ServiceConfig::new(2, 16),
            Box::new(GshmMechanism::new(PrivacyParams::new(0.8, 1e-8).unwrap()).unwrap()),
            PrivacyParams::new(100.0, 1e-4).unwrap(),
            42,
        )
        .unwrap();
        let valid = segment_header(&svc, 3);
        check(Codec {
            valid: &valid,
            decode: &|bytes: &[u8]| {
                unseal_wal(bytes).and_then(|header| check_segment_header(header, 3, 16))
            },
            canonical: None,
            reseal: &reseal_with(fnv1a_words_checksum),
            counts: &[],
        });
    }

    #[test]
    fn corruption_suite_dpwl_records() {
        let one_record = |bytes: &[u8]| {
            let mut rest = bytes;
            let record = next_record(&mut rest, &mut Vec::new())?;
            if rest.is_empty() {
                Ok(record)
            } else {
                Err("bytes after the record")
            }
        };
        let items: Vec<u64> = (0..37).map(|i| i * 7919).collect();
        for valid in [items_record(&[]), items_record(&[5]), items_record(&items)] {
            check(Codec {
                valid: &valid,
                decode: &one_record,
                canonical: None,
                reseal: &reseal_with(fnv1a_words_checksum),
                // The item count, after the length and kind.
                counts: &[&[5]],
            });
        }
        let mut reshard = wal_record(RECORD_RESHARD, 8).unwrap();
        reshard.u64(3);
        let epoch_end = wal_record(RECORD_EPOCH_END, 0).unwrap();
        for valid in [reshard.seal(WAL_CHECKSUM), epoch_end.seal(WAL_CHECKSUM)] {
            check(Codec {
                valid: &valid,
                decode: &one_record,
                canonical: None,
                reseal: &reseal_with(fnv1a_words_checksum),
                counts: &[],
            });
        }
    }

    /// A group whose record the `u32` length field cannot frame is refused
    /// by the writer, and `MAX_GROUP_ITEMS` is exactly the largest group
    /// that fits.
    #[test]
    fn wal_records_refuse_payloads_the_length_field_cannot_frame() {
        assert!(matches!(
            wal_record(RECORD_ITEMS, u32::MAX as usize),
            Err(ServiceError::Persistence(_))
        ));
        let payload = |items: usize| 1 + 8 + items * 8;
        assert!(payload(MAX_GROUP_ITEMS) <= u32::MAX as usize);
        assert!(payload(MAX_GROUP_ITEMS + 1) > u32::MAX as usize);
    }
}
