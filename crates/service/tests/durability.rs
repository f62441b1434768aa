//! Crash-injection and recovery tests for [`DurableService`].
//!
//! The contract under test: a service killed at **any** instant and
//! reopened over the same directory behaves bit-identically — releases,
//! query answers, budget arithmetic — to an uninterrupted run over the
//! durable prefix of its input. "Killed" here is a drop after an explicit
//! flush (the buffer already durable, so the best-effort `Drop` flush is
//! a no-op) or a `mem::forget` (no destructor at all): the WAL never
//! relies on graceful exit.
//!
//! Corruption coverage (torn tails, byte flips, truncation at arbitrary
//! offsets) asserts the stronger property than "rejected": whenever
//! recovery *accepts*, the recovered state must equal a fresh
//! [`SequentialServiceReference`] fed exactly the recovered item count —
//! i.e. replay stops on a valid durable prefix and never fabricates or
//! corrupts an item.

use dpmg_core::mechanism::{GshmMechanism, ReleaseError, ReleaseMechanism};
use dpmg_noise::accounting::PrivacyParams;
use dpmg_service::{
    DpmgService, DurabilityConfig, DurableService, OpenEpochStatus, SequentialServiceReference,
    ServiceConfig, ServiceError, ServiceMode,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Self-cleaning unique test directory (no tempfile dependency).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::SeqCst);
        let path =
            std::env::temp_dir().join(format!("dpmg-durability-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        Self(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const K: usize = 16;
const SEED: u64 = 42;

fn budget() -> PrivacyParams {
    PrivacyParams::new(100.0, 1e-4).unwrap()
}

fn mech() -> Box<dyn ReleaseMechanism<u64>> {
    Box::new(GshmMechanism::new(PrivacyParams::new(0.8, 1e-8).unwrap()).unwrap())
}

/// Deterministic skewed stream: one heavy key plus a rotating tail.
fn item(i: u64) -> u64 {
    if i % 3 == 0 {
        7
    } else {
        i.wrapping_mul(2654435761) % 50
    }
}

fn stream(range: std::ops::Range<u64>) -> impl Iterator<Item = u64> {
    range.map(item)
}

/// Bit-level equality of everything externally observable.
fn assert_bit_identical(
    recovered: &DpmgService<u64>,
    reference_latest: &dpmg_service::ReleasedSnapshot<u64>,
    reference_acct: &dpmg_noise::accounting::Accountant,
    what: &str,
) {
    let got = recovered.latest();
    assert_eq!(got.epoch, reference_latest.epoch, "{what}: epoch clock");
    assert_eq!(got.items, reference_latest.items, "{what}: released items");
    assert_eq!(
        got.estimates.len(),
        reference_latest.estimates.len(),
        "{what}: released key set"
    );
    for (key, value) in &reference_latest.estimates {
        assert_eq!(
            got.estimates
                .get(key)
                .unwrap_or_else(|| panic!("{what}: key {key} missing"))
                .to_bits(),
            value.to_bits(),
            "{what}: estimate of {key} diverged"
        );
    }
    let acct = recovered.accountant();
    assert_eq!(acct.charges(), reference_acct.charges(), "{what}: charges");
    assert_eq!(
        acct.spent_epsilon().to_bits(),
        reference_acct.spent_epsilon().to_bits(),
        "{what}: spent ε"
    );
    assert_eq!(
        acct.spent_delta().to_bits(),
        reference_acct.spent_delta().to_bits(),
        "{what}: spent δ"
    );
}

#[test]
fn kill_mid_epoch_then_recover_matches_uninterrupted_service() {
    let config = ServiceConfig::new(2, K)
        .with_epoch_len(1_000)
        .with_batch_size(64);
    let dir = TempDir::new("kill-mid-epoch");
    let durability = DurabilityConfig::new(dir.path())
        .with_group_commit(64)
        .with_checkpoint_every_epochs(2);

    // Run 3.5 epochs, flush so the prefix is durable, then kill (drop).
    {
        let (mut svc, report) =
            DurableService::open(config, mech(), budget(), durability.clone(), SEED).unwrap();
        assert!(!report.recovered);
        svc.ingest_from(stream(0..3_500)).unwrap();
        svc.flush().unwrap();
        assert_eq!(svc.completed_epochs(), 3);
        assert_eq!(svc.open_epoch_items(), 500);
        // Drop without any shutdown: the crash.
    }

    let (mut recovered, report) =
        DurableService::open(config, mech(), budget(), durability, SEED).unwrap();
    assert!(report.recovered);
    assert_eq!(report.open_epoch, OpenEpochStatus::Replayed { items: 500 });
    assert_eq!(recovered.completed_epochs(), 3);
    // The checkpoint at epoch 2 bounded the replay.
    assert_eq!(report.checkpoint_epochs, 2);
    assert_eq!(report.epochs_replayed, 1);
    assert!(!report.torn_tail);

    // Continue the stream to 5 full epochs.
    recovered.ingest_from(stream(3_500..5_000)).unwrap();
    recovered.flush().unwrap();
    assert_eq!(recovered.completed_epochs(), 5);

    // The uninterrupted control: a plain service over the whole stream.
    let mut control = DpmgService::new(config, mech(), budget(), SEED).unwrap();
    control.ingest_from(stream(0..5_000)).unwrap();
    assert_bit_identical(
        recovered.service(),
        &control.latest(),
        control.accountant(),
        "kill mid-epoch",
    );
    assert_eq!(recovered.top_k(5), control.top_k(5));
}

#[test]
fn checkpoints_truncate_the_wal() {
    let config = ServiceConfig::new(2, K).with_epoch_len(500);
    let dir = TempDir::new("truncate");
    let durability = DurabilityConfig::new(dir.path())
        .with_group_commit(32)
        .with_checkpoint_every_epochs(1);
    {
        let (mut svc, _) =
            DurableService::open(config, mech(), budget(), durability.clone(), SEED).unwrap();
        svc.ingest_from(stream(0..3_250)).unwrap();
        svc.flush().unwrap();
        assert_eq!(svc.completed_epochs(), 6);
    }
    // Per-epoch checkpoints garbage-collect everything behind the newest
    // one: exactly one checkpoint and one live segment remain.
    let names: Vec<String> = std::fs::read_dir(dir.path())
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(
        names.iter().filter(|n| n.ends_with(".dpck")).count(),
        1,
        "{names:?}"
    );
    assert_eq!(
        names.iter().filter(|n| n.ends_with(".dpwl")).count(),
        1,
        "{names:?}"
    );

    let (recovered, report) =
        DurableService::open(config, mech(), budget(), durability, SEED).unwrap();
    assert_eq!(report.checkpoint_epochs, 6);
    assert_eq!(report.segments_replayed, 1);
    assert_eq!(report.open_epoch, OpenEpochStatus::Replayed { items: 250 });

    let mut control = DpmgService::new(config, mech(), budget(), SEED).unwrap();
    control.ingest_from(stream(0..3_250)).unwrap();
    assert_bit_identical(
        recovered.service(),
        &control.latest(),
        control.accountant(),
        "wal truncation",
    );
}

#[test]
fn journaled_reshard_1_2_8_survives_crashes_bit_identically() {
    // Explicit epochs; reshard at boundaries 1 → 2 → 8, plus one mid-epoch
    // reshard (4) that creates a carry, checkpointed mid-epoch and then
    // crashed on — the full elastic lifecycle.
    let config = ServiceConfig::new(1, K);
    let dir = TempDir::new("reshard");
    let durability = DurabilityConfig::new(dir.path())
        .with_group_commit(128)
        // Only explicit checkpoints: keeps the crash windows interesting.
        .with_checkpoint_every_epochs(u64::MAX - 1);
    {
        let (mut svc, _) =
            DurableService::open(config, mech(), budget(), durability.clone(), SEED).unwrap();
        svc.ingest_from(stream(0..900)).unwrap();
        svc.end_epoch().unwrap();
        svc.reshard(2).unwrap();
        svc.ingest_from(stream(900..1_800)).unwrap();
        svc.end_epoch().unwrap();
        svc.reshard(8).unwrap();
        svc.ingest_from(stream(1_800..2_400)).unwrap();
        // Mid-epoch shrink: merges the live width-8 generation into the
        // carry (Lemma 17/29; zero loss).
        svc.reshard(4).unwrap();
        svc.ingest_from(stream(2_400..2_700)).unwrap();
        svc.flush().unwrap();
        // Checkpoint the carry-holding open epoch, then crash.
        svc.checkpoint().unwrap();
        assert_eq!(svc.config().shards, 4);
    }

    let (mut recovered, report) =
        DurableService::open(config, mech(), budget(), durability, SEED).unwrap();
    assert_eq!(report.open_epoch, OpenEpochStatus::Replayed { items: 900 });
    assert_eq!(
        recovered.config().shards,
        4,
        "recovery restores the live width"
    );
    recovered.ingest_from(stream(2_700..3_000)).unwrap();
    recovered.flush().unwrap();
    recovered.end_epoch().unwrap();

    // The oracle runs the identical schedule, uninterrupted.
    let mut oracle = SequentialServiceReference::new(config, mech(), budget(), SEED).unwrap();
    oracle.ingest_from(stream(0..900)).unwrap();
    oracle.end_epoch().unwrap();
    oracle.reshard(2).unwrap();
    oracle.ingest_from(stream(900..1_800)).unwrap();
    oracle.end_epoch().unwrap();
    oracle.reshard(8).unwrap();
    oracle.ingest_from(stream(1_800..2_400)).unwrap();
    oracle.reshard(4).unwrap();
    oracle.ingest_from(stream(2_400..3_000)).unwrap();
    oracle.end_epoch().unwrap();

    assert_bit_identical(
        recovered.service(),
        &oracle.latest(),
        oracle.accountant(),
        "elastic reshard",
    );
    assert_eq!(recovered.completed_epochs(), 3);
}

#[test]
fn budget_wall_still_stands_after_crash_and_recovery() {
    // Budget affords exactly two ε=0.8 epochs (with δ slack for two).
    let tight = PrivacyParams::new(1.7, 1e-6).unwrap();
    let config = ServiceConfig::new(2, K);
    let dir = TempDir::new("budget-wall");
    let durability = DurabilityConfig::new(dir.path()).with_group_commit(64);
    let (spent_eps, spent_delta, charges) = {
        let (mut svc, _) =
            DurableService::open(config, mech(), tight, durability.clone(), SEED).unwrap();
        for _ in 0..2 {
            svc.ingest_from(stream(0..600)).unwrap();
            svc.end_epoch().unwrap();
        }
        svc.ingest_from(stream(0..600)).unwrap();
        let err = svc.end_epoch().unwrap_err();
        assert!(
            matches!(err, ServiceError::Release(ReleaseError::Budget(_))),
            "{err}"
        );
        let a = svc.accountant();
        (a.spent_epsilon(), a.spent_delta(), a.charges())
        // Crash with the refused epoch still open.
    };

    let (mut recovered, report) =
        DurableService::open(config, mech(), tight, durability, SEED).unwrap();
    // The refused tick was journaled and replays to the same refusal, so
    // the 600 open items survive.
    assert_eq!(report.open_epoch, OpenEpochStatus::Replayed { items: 600 });
    let a = recovered.accountant();
    assert_eq!(a.charges(), charges);
    assert_eq!(a.spent_epsilon().to_bits(), spent_eps.to_bits());
    assert_eq!(a.spent_delta().to_bits(), spent_delta.to_bits());
    // Still refused — recovery must not mint fresh budget.
    let err = recovered.end_epoch().unwrap_err();
    assert!(
        matches!(err, ServiceError::Release(ReleaseError::Budget(_))),
        "{err}"
    );
    assert_eq!(recovered.accountant().charges(), charges);
}

#[test]
fn unflushed_group_commit_buffer_dies_with_the_process() {
    // A *killed* process never runs destructors — model that with
    // `mem::forget`, not a plain drop (a clean drop now flushes; see
    // `clean_drop_flushes_the_group_commit_buffer`).
    let config = ServiceConfig::new(2, K);
    let dir = TempDir::new("unflushed");
    let durability = DurabilityConfig::new(dir.path()).with_group_commit(1_000);
    {
        let (mut svc, _) =
            DurableService::open(config, mech(), budget(), durability.clone(), SEED).unwrap();
        svc.ingest_from(stream(0..100)).unwrap();
        assert_eq!(svc.buffered_items(), 100);
        assert_eq!(svc.open_epoch_items(), 0, "uncommitted ⇒ not yet visible");
        std::mem::forget(svc); // the kill: no Drop, no flush
    }
    let (recovered, report) =
        DurableService::open(config, mech(), budget(), durability, SEED).unwrap();
    assert_eq!(report.open_epoch, OpenEpochStatus::Replayed { items: 0 });
    assert_eq!(recovered.open_epoch_items(), 0);
}

#[test]
fn clean_drop_flushes_the_group_commit_buffer() {
    // Regression: before `Drop for DurableService` existed, a clean drop
    // silently lost up to `group_commit - 1` buffered items — this test
    // fails on that code with 100 items missing after reopen.
    let config = ServiceConfig::new(2, K);
    let dir = TempDir::new("drop-flush");
    let durability = DurabilityConfig::new(dir.path()).with_group_commit(1_000);
    {
        let (mut svc, _) =
            DurableService::open(config, mech(), budget(), durability.clone(), SEED).unwrap();
        svc.ingest_from(stream(0..100)).unwrap();
        assert_eq!(svc.buffered_items(), 100);
        // Clean shutdown: plain drop, no explicit flush.
    }
    let (mut recovered, report) =
        DurableService::open(config, mech(), budget(), durability, SEED).unwrap();
    assert!(report.recovered);
    assert_eq!(report.items_replayed, 100, "drop must flush the buffer");
    assert_eq!(report.open_epoch, OpenEpochStatus::Replayed { items: 100 });
    assert_eq!(recovered.open_epoch_items(), 100);

    // And releasing gives bit-identically the uninterrupted run's answer.
    let mut reference = SequentialServiceReference::new(config, mech(), budget(), SEED).unwrap();
    reference.ingest_from(stream(0..100)).unwrap();
    let want = reference.end_epoch().unwrap();
    let got = recovered.end_epoch().unwrap();
    assert_eq!(got.epoch, want.epoch);
    assert_eq!(got.items, want.items);
    assert_eq!(got.estimates.len(), want.estimates.len());
    for (key, value) in &want.estimates {
        assert_eq!(got.estimates[key].to_bits(), value.to_bits());
    }
}

#[test]
fn sync_writes_and_foreign_files_are_tolerated() {
    let config = ServiceConfig::new(2, K).with_epoch_len(300);
    let dir = TempDir::new("sync");
    std::fs::write(dir.path().join("README.txt"), b"not a wal file").unwrap();
    let durability = DurabilityConfig::new(dir.path())
        .with_group_commit(50)
        .with_checkpoint_every_epochs(1)
        .with_sync_writes(true);
    {
        let (mut svc, _) =
            DurableService::open(config, mech(), budget(), durability.clone(), SEED).unwrap();
        svc.ingest_from(stream(0..700)).unwrap();
        svc.flush().unwrap();
        assert_eq!(svc.completed_epochs(), 2);
    }
    let (recovered, report) =
        DurableService::open(config, mech(), budget(), durability, SEED).unwrap();
    assert!(report.recovered);
    assert_eq!(
        recovered.completed_epochs() * 300 + recovered.open_epoch_items(),
        700
    );
}

#[test]
fn open_rejects_invalid_durability_and_continual_mode() {
    let dir = TempDir::new("rejects");
    let base = DurabilityConfig::new(dir.path());
    let continual = ServiceConfig::new(2, K).with_mode(ServiceMode::Continual { max_epochs: 8 });
    assert!(matches!(
        DurableService::open(continual, mech(), budget(), base.clone(), SEED),
        Err(ServiceError::Persistence(_))
    ));
    assert!(matches!(
        DurableService::open(
            ServiceConfig::new(2, K),
            mech(),
            budget(),
            base.clone().with_group_commit(0),
            SEED
        ),
        Err(ServiceError::Persistence(_))
    ));
    assert!(matches!(
        DurableService::open(
            ServiceConfig::new(2, K),
            mech(),
            budget(),
            base.with_checkpoint_every_epochs(0),
            SEED
        ),
        Err(ServiceError::Persistence(_))
    ));
}

/// A group larger than one WAL record can frame used to have its `u32`
/// length wrap, so replay truncated the durable group as a torn tail.
#[test]
fn open_refuses_a_group_commit_no_wal_record_can_frame() {
    let dir = TempDir::new("huge-group");
    let durability = DurabilityConfig::new(dir.path()).with_group_commit(usize::MAX);
    assert!(matches!(
        DurableService::open(ServiceConfig::new(2, K), mech(), budget(), durability, SEED),
        Err(ServiceError::Persistence(_))
    ));
}

#[test]
fn recovery_rejects_mismatched_config_and_budget() {
    let config = ServiceConfig::new(2, K).with_epoch_len(400);
    let dir = TempDir::new("mismatch");
    let durability = DurabilityConfig::new(dir.path()).with_checkpoint_every_epochs(1);
    {
        let (mut svc, _) =
            DurableService::open(config, mech(), budget(), durability.clone(), SEED).unwrap();
        svc.ingest_from(stream(0..500)).unwrap();
        svc.flush().unwrap();
        assert_eq!(svc.completed_epochs(), 1, "need a checkpoint on disk");
    }
    // Different k.
    let wrong_k = ServiceConfig::new(2, K * 2).with_epoch_len(400);
    assert!(matches!(
        DurableService::open(wrong_k, mech(), budget(), durability.clone(), SEED),
        Err(ServiceError::Persistence(_))
    ));
    // Different epoch length (would replay different boundaries).
    let wrong_len = ServiceConfig::new(2, K).with_epoch_len(800);
    assert!(matches!(
        DurableService::open(wrong_len, mech(), budget(), durability.clone(), SEED),
        Err(ServiceError::Persistence(_))
    ));
    // Different budget (would mint or destroy remaining ε).
    let wrong_budget = PrivacyParams::new(50.0, 1e-4).unwrap();
    assert!(matches!(
        DurableService::open(config, mech(), wrong_budget, durability, SEED),
        Err(ServiceError::Persistence(_))
    ));
}

#[test]
fn torn_tail_is_repaired_so_a_second_crash_still_recovers() {
    // The double-crash scenario: a torn tail is tolerated on the final
    // segment, recovery opens a fresh segment after it, and a second
    // crash before the next checkpoint makes the torn segment non-final.
    // Recovery must have truncated it to its valid prefix, or every later
    // open would refuse with "corrupt before the final segment".
    let dir = TempDir::new("double-crash");
    let newest_segment = newest_segment_name();
    materialize(dir.path(), |name, bytes| {
        if name == newest_segment {
            // A half-written record: the first crash's torn tail.
            bytes.extend_from_slice(&[0xAB; 7]);
        }
    });
    let durability = DurabilityConfig::new(dir.path());
    let prefix = {
        let (mut recovered, report) = DurableService::open(
            canonical_config(),
            mech(),
            budget(),
            durability.clone(),
            SEED,
        )
        .unwrap();
        assert!(report.torn_tail);
        assert_valid_prefix(&recovered);
        let prefix = recovered.service().released_items() + recovered.open_epoch_items();
        // Keep streaming past the tear, then crash again before any
        // checkpoint (default cadence is far away at this epoch length).
        recovered.ingest_from(stream(prefix..prefix + 200)).unwrap();
        recovered.flush().unwrap();
        prefix
        // Second crash: plain drop.
    };
    let (recovered, report) =
        DurableService::open(canonical_config(), mech(), budget(), durability, SEED).unwrap();
    assert!(!report.torn_tail, "the tear was repaired on first recovery");
    assert_eq!(
        recovered.service().released_items() + recovered.open_epoch_items(),
        prefix + 200
    );
    let mut oracle =
        SequentialServiceReference::new(canonical_config(), mech(), budget(), SEED).unwrap();
    oracle.ingest_from(stream(0..prefix + 200)).unwrap();
    assert_bit_identical(
        recovered.service(),
        &oracle.latest(),
        oracle.accountant(),
        "second crash after torn-tail repair",
    );
}

#[test]
fn recovery_refuses_a_missing_first_segment_after_the_checkpoint() {
    let config = ServiceConfig::new(2, K).with_epoch_len(600);
    let dir = TempDir::new("missing-first");
    let durability = DurabilityConfig::new(dir.path())
        .with_group_commit(40)
        .with_checkpoint_every_epochs(2);
    {
        let (mut svc, _) =
            DurableService::open(config, mech(), budget(), durability.clone(), SEED).unwrap();
        // Checkpoint after epoch 2 (1_200 items); 100 items land in the
        // post-checkpoint segment.
        svc.ingest_from(stream(0..1_300)).unwrap();
        svc.flush().unwrap();
    }
    {
        // A clean reopen rotates to a second post-checkpoint segment.
        let (mut svc, _) =
            DurableService::open(config, mech(), budget(), durability.clone(), SEED).unwrap();
        svc.ingest_from(stream(1_300..1_500)).unwrap();
        svc.flush().unwrap();
    }
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir.path())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("dpwl"))
        .collect();
    segments.sort();
    assert!(segments.len() >= 2, "{segments:?}");
    // Deleting the first post-checkpoint segment leaves later segments
    // contiguous among themselves; without the checkpoint-anchored start
    // check its 100 items would be silently skipped.
    std::fs::remove_file(&segments[segments.len() - 2]).unwrap();
    assert!(matches!(
        DurableService::open(config, mech(), budget(), durability, SEED),
        Err(ServiceError::Persistence(_))
    ));
}

#[test]
fn orphaned_checkpoint_tmp_files_are_swept_on_open() {
    let dir = TempDir::new("tmp-sweep");
    materialize(dir.path(), |_, _| {});
    // A crash between creating checkpoint-{seq}.tmp and the rename leaves
    // this orphan behind; open must delete it and recover unaffected.
    let orphan = dir.path().join("checkpoint-00000000000000000099.tmp");
    std::fs::write(&orphan, b"half-written checkpoint").unwrap();
    let (recovered, _) = DurableService::open(
        canonical_config(),
        mech(),
        budget(),
        DurabilityConfig::new(dir.path()),
        SEED,
    )
    .unwrap();
    assert!(!orphan.exists(), "orphaned tmp file must be swept");
    assert_valid_prefix(&recovered);
}

/// Name of the newest WAL segment in the canonical directory.
fn newest_segment_name() -> String {
    canonical_state()
        .0
        .iter()
        .filter(|(name, _)| name.ends_with(".dpwl"))
        .map(|(name, _)| name.clone())
        .max()
        .unwrap()
}

/// Canonical durable run for the corruption proptests, built once: the
/// directory's files plus the stream length that produced them.
fn canonical_state() -> &'static (Vec<(String, Vec<u8>)>, u64) {
    #[allow(clippy::type_complexity)]
    static STATE: OnceLock<(Vec<(String, Vec<u8>)>, u64)> = OnceLock::new();
    STATE.get_or_init(|| {
        let total = 2_500u64;
        let dir = TempDir::new("canonical");
        let config = canonical_config();
        let durability = DurabilityConfig::new(dir.path())
            .with_group_commit(40)
            .with_checkpoint_every_epochs(2);
        let (mut svc, _) =
            DurableService::open(config, mech(), budget(), durability, SEED).unwrap();
        svc.ingest_from(stream(0..total)).unwrap();
        svc.flush().unwrap();
        drop(svc);
        let files = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().into_string().unwrap(),
                    std::fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        (files, total)
    })
}

fn canonical_config() -> ServiceConfig {
    ServiceConfig::new(2, K).with_epoch_len(600)
}

/// Rebuilds the canonical directory, optionally mutating one file.
fn materialize(dir: &Path, mutate: impl Fn(&str, &mut Vec<u8>)) {
    let (files, _) = canonical_state();
    for (name, bytes) in files {
        let mut bytes = bytes.clone();
        mutate(name, &mut bytes);
        std::fs::write(dir.join(name), bytes).unwrap();
    }
}

/// The durable-prefix property: whatever recovery accepts must equal a
/// fresh sequential oracle fed exactly the recovered item count.
fn assert_valid_prefix(recovered: &DurableService) {
    let prefix = recovered.service().released_items() + recovered.open_epoch_items();
    let (_, total) = canonical_state();
    assert!(prefix <= *total, "recovered {prefix} items out of {total}");
    let mut oracle =
        SequentialServiceReference::new(canonical_config(), mech(), budget(), SEED).unwrap();
    oracle.ingest_from(stream(0..prefix)).unwrap();
    assert_bit_identical(
        recovered.service(),
        &oracle.latest(),
        oracle.accountant(),
        "durable prefix",
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Truncating the newest WAL segment at ANY offset — the torn-tail
    /// crash — either recovers a valid durable prefix or is rejected;
    /// never a panic, never a wrong summary. And because recovery repairs
    /// the tear, an immediate second crash recovers the same prefix.
    #[test]
    fn prop_truncated_wal_tail_recovers_a_valid_prefix(frac in 0.0f64..1.0) {
        let dir = TempDir::new("prop-trunc");
        let newest_segment = newest_segment_name();
        materialize(dir.path(), |name, bytes| {
            if name == newest_segment {
                let cut = (bytes.len() as f64 * frac) as usize;
                bytes.truncate(cut);
            }
        });
        let durability = DurabilityConfig::new(dir.path());
        match DurableService::open(canonical_config(), mech(), budget(), durability.clone(), SEED) {
            Ok((recovered, _)) => {
                assert_valid_prefix(&recovered);
                let prefix =
                    recovered.service().released_items() + recovered.open_epoch_items();
                drop(recovered);
                let (again, report) =
                    DurableService::open(canonical_config(), mech(), budget(), durability, SEED)
                        .unwrap();
                prop_assert!(!report.torn_tail, "first recovery repaired the tear");
                prop_assert_eq!(
                    again.service().released_items() + again.open_epoch_items(),
                    prefix
                );
                assert_valid_prefix(&again);
            }
            Err(e) => prop_assert!(
                matches!(e, ServiceError::Persistence(_) | ServiceError::Io(_)),
                "unexpected error class: {e}"
            ),
        }
    }

    /// Flipping any bit of any durable file — WAL segment or checkpoint —
    /// is either rejected outright or truncates replay to a valid prefix.
    #[test]
    fn prop_any_byte_flip_rejected_or_valid_prefix(
        file_sel in 0usize..64,
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let dir = TempDir::new("prop-flip");
        let (files, _) = canonical_state();
        let target = files[file_sel % files.len()].0.clone();
        materialize(dir.path(), |name, bytes| {
            if name == target && !bytes.is_empty() {
                let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
                bytes[pos] ^= 1 << bit;
            }
        });
        let durability = DurabilityConfig::new(dir.path());
        match DurableService::open(canonical_config(), mech(), budget(), durability, SEED) {
            Ok((recovered, _)) => assert_valid_prefix(&recovered),
            Err(e) => prop_assert!(
                matches!(e, ServiceError::Persistence(_) | ServiceError::Io(_)),
                "unexpected error class: {e}"
            ),
        }
    }

    /// Kill-at-arbitrary-offset differential: flush, crash, recover,
    /// finish the stream — always bit-identical to the uninterrupted
    /// sequential oracle over the full stream.
    #[test]
    fn prop_kill_at_any_offset_is_bit_identical_to_oracle(
        cut_frac in 0.0f64..1.0,
        seed in 0u64..16,
    ) {
        let total = 2_000u64;
        let cut = ((total as f64) * cut_frac) as u64;
        let config = ServiceConfig::new(2, K).with_epoch_len(450);
        let dir = TempDir::new("prop-kill");
        let durability = DurabilityConfig::new(dir.path())
            .with_group_commit(53)
            .with_checkpoint_every_epochs(2);
        {
            let (mut svc, _) =
                DurableService::open(config, mech(), budget(), durability.clone(), seed).unwrap();
            svc.ingest_from(stream(0..cut)).unwrap();
            svc.flush().unwrap();
        }
        let (mut recovered, report) =
            DurableService::open(config, mech(), budget(), durability, seed).unwrap();
        prop_assert!(!report.torn_tail);
        recovered.ingest_from(stream(cut..total)).unwrap();
        recovered.flush().unwrap();

        let mut oracle = SequentialServiceReference::new(config, mech(), budget(), seed).unwrap();
        oracle.ingest_from(stream(0..total)).unwrap();
        assert_bit_identical(
            recovered.service(),
            &oracle.latest(),
            oracle.accountant(),
            "kill offset",
        );
        prop_assert_eq!(recovered.open_epoch_items(), total % 450);
    }
}
