//! Slice ingest ≡ per-item ingest.
//!
//! `DpmgService::ingest_from` hands the pipeline everything up to the next
//! automatic epoch boundary in one call, and `DurableService::ingest_from`
//! fills its group buffer in bulk and applies each group with one
//! `DpmgService::ingest_from` call. Neither may be observable: whatever
//! the batch split, the service must match the per-item
//! [`SequentialServiceReference`] release for release and error for error,
//! and the durable service must write byte-identical WAL directories.
//!
//! Batches are fed as `ingest_from(chunk.by_ref())` and resumed after each
//! error, so every item of the stream goes in whatever the split; an error
//! is recorded with the number of items consumed when it was raised.

use dpmg_core::mechanism::{GshmMechanism, ReleaseMechanism};
use dpmg_noise::accounting::{Accountant, PrivacyParams};
use dpmg_pipeline::{shard_of_key, PipelineError};
use dpmg_service::{
    DpmgService, DurabilityConfig, DurableService, EpochRelease, ReleasedSnapshot,
    SequentialServiceReference, ServiceConfig, ServiceError,
};
use proptest::prelude::*;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Self-cleaning unique test directory (no tempfile dependency).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::SeqCst);
        let path =
            std::env::temp_dir().join(format!("dpmg-slice-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        Self(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const K: usize = 8;
const SEED: u64 = 5;

fn mech<K: dpmg_sketch::traits::Item>() -> Box<dyn ReleaseMechanism<K>> {
    Box::new(GshmMechanism::new(PrivacyParams::new(0.8, 1e-8).unwrap()).unwrap())
}

/// A budget that affords exactly `epochs` releases of [`mech`].
fn budget(epochs: u32) -> PrivacyParams {
    PrivacyParams::new(0.8 * f64::from(epochs) + 0.4, 1e-6).unwrap()
}

/// `0` → explicit ticks only, else an automatic boundary every few items.
fn epoch_len(choice: u64) -> Option<u64> {
    (choice > 0).then_some(choice * 7)
}

/// Everything a caller can observe of a service, with floats as bits.
#[derive(Debug, PartialEq)]
struct Observed {
    errors: Vec<(usize, String)>,
    transcript: Vec<String>,
    latest: String,
    open_epoch_items: u64,
    ledger: (usize, u64, u64),
}

fn transcript_bits<K: dpmg_sketch::traits::Item>(transcript: &[EpochRelease<K>]) -> Vec<String> {
    transcript
        .iter()
        .map(|epoch| {
            let noised: Vec<(K, u64)> = epoch
                .histogram
                .iter()
                .map(|(key, value)| (key.clone(), value.to_bits()))
                .collect();
            format!(
                "{} {} {:?} {:?}",
                epoch.epoch, epoch.items, epoch.pre_noise, noised
            )
        })
        .collect()
}

fn snapshot_bits(snapshot: &ReleasedSnapshot<u64>) -> String {
    let estimates: Vec<(u64, u64)> = snapshot
        .estimates
        .iter()
        .map(|(key, value)| (*key, value.to_bits()))
        .collect();
    format!("{} {} {:?}", snapshot.epoch, snapshot.items, estimates)
}

fn ledger(accountant: &Accountant) -> (usize, u64, u64) {
    (
        accountant.charges(),
        accountant.spent_epsilon().to_bits(),
        accountant.spent_delta().to_bits(),
    )
}

/// Cuts `stream` into consecutive chunks whose lengths cycle through
/// `lens` (each ≥ 1).
fn split<'a>(stream: &'a [u64], lens: &'a [usize]) -> Vec<&'a [u64]> {
    let mut chunks = Vec::new();
    let mut rest = stream;
    for &len in lens.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (chunk, tail) = rest.split_at(len.min(rest.len()));
        chunks.push(chunk);
        rest = tail;
    }
    chunks
}

/// Feeds one chunk through `ingest_from`, resuming after every error,
/// and records each error at the stream position it was raised.
fn feed_chunk(
    chunk: &[u64],
    consumed: &mut usize,
    errors: &mut Vec<(usize, String)>,
    mut ingest_from: impl FnMut(
        &mut std::iter::Copied<std::slice::Iter<'_, u64>>,
    ) -> Result<(), ServiceError>,
) {
    let mut items = chunk.iter().copied();
    while let Err(e) = ingest_from(&mut items) {
        errors.push((*consumed + chunk.len() - items.len(), format!("{e:?}")));
    }
    *consumed += chunk.len();
}

/// The service fed chunk by chunk, with an explicit tick after every chunk
/// whose index is in `ticks`.
fn run_service(
    config: ServiceConfig,
    epochs: u32,
    stream: &[u64],
    lens: &[usize],
    ticks: &[bool],
) -> Observed {
    let mut svc = DpmgService::new(config, mech(), budget(epochs), SEED).unwrap();
    let mut errors = Vec::new();
    let mut consumed = 0;
    for (i, chunk) in split(stream, lens).into_iter().enumerate() {
        feed_chunk(chunk, &mut consumed, &mut errors, |items| {
            svc.ingest_from(items)
        });
        if ticks[i % ticks.len()] {
            if let Err(e) = svc.end_epoch() {
                errors.push((consumed, format!("{e:?}")));
            }
        }
    }
    Observed {
        errors,
        transcript: transcript_bits(svc.transcript()),
        latest: snapshot_bits(&svc.latest()),
        open_epoch_items: svc.open_epoch_items(),
        ledger: ledger(svc.accountant()),
    }
}

/// The per-item oracle under the same chunking and ticks.
fn run_reference(
    config: ServiceConfig,
    epochs: u32,
    stream: &[u64],
    lens: &[usize],
    ticks: &[bool],
) -> Observed {
    let mut oracle = SequentialServiceReference::new(config, mech(), budget(epochs), SEED).unwrap();
    let mut errors = Vec::new();
    let mut consumed = 0;
    for (i, chunk) in split(stream, lens).into_iter().enumerate() {
        for &item in chunk {
            consumed += 1;
            if let Err(e) = oracle.ingest(item) {
                errors.push((consumed, format!("{e:?}")));
            }
        }
        if ticks[i % ticks.len()] {
            if let Err(e) = oracle.end_epoch() {
                errors.push((consumed, format!("{e:?}")));
            }
        }
    }
    let latest = oracle.latest();
    Observed {
        errors,
        transcript: transcript_bits(oracle.transcript()),
        open_epoch_items: consumed as u64 - latest.items,
        latest: snapshot_bits(&latest),
        ledger: ledger(oracle.accountant()),
    }
}

/// Every file of a WAL directory, by name, with its bytes.
fn wal_files(dir: &TempDir) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir.0)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect();
    files.sort();
    files
}

struct DurableCase {
    config: ServiceConfig,
    epochs: u32,
    group_commit: usize,
}

impl DurableCase {
    fn open(&self, dir: &TempDir) -> DurableService {
        let durability = DurabilityConfig::new(&dir.0)
            .with_group_commit(self.group_commit)
            .with_checkpoint_every_epochs(2);
        DurableService::open(self.config, mech(), budget(self.epochs), durability, SEED)
            .unwrap()
            .0
    }

    /// Feeds `stream` in chunks of `lens` (`None`: one `ingest` call per
    /// item), ticking between the [`segments`] so the operation sequence
    /// is the same whatever the split. Returns the directory, the errors
    /// and the live state after the final flush.
    fn run(
        &self,
        stream: &[u64],
        lens: Option<&[usize]>,
        ticks: &[usize],
    ) -> (TempDir, Vec<(usize, String)>, Observed) {
        let dir = TempDir::new("durable");
        let mut svc = self.open(&dir);
        let mut errors = Vec::new();
        let mut consumed = 0;
        for (i, segment) in segments(stream, ticks).into_iter().enumerate() {
            if i > 0 {
                if let Err(e) = svc.end_epoch() {
                    errors.push((consumed, format!("{e:?}")));
                }
            }
            match lens {
                Some(lens) => {
                    for chunk in split(segment, lens) {
                        feed_chunk(chunk, &mut consumed, &mut errors, |items| {
                            svc.ingest_from(items)
                        });
                    }
                }
                None => {
                    for &item in segment {
                        consumed += 1;
                        if let Err(e) = svc.ingest(item) {
                            errors.push((consumed, format!("{e:?}")));
                        }
                    }
                }
            }
        }
        if let Err(e) = svc.flush() {
            errors.push((consumed, format!("{e:?}")));
        }
        let live = Observed {
            errors: Vec::new(),
            transcript: transcript_bits(svc.transcript()),
            ..state(&svc)
        };
        (dir, errors, live)
    }
}

/// `stream` cut at the sorted positions `ticks`: one more segment than
/// ticks, with an explicit epoch tick between each two.
fn segments<'a>(stream: &'a [u64], ticks: &[usize]) -> Vec<&'a [u64]> {
    let mut start = 0;
    let mut cut: Vec<&[u64]> = ticks
        .iter()
        .map(|&end| {
            let segment = &stream[start..end];
            start = end;
            segment
        })
        .collect();
    cut.push(&stream[start..]);
    cut
}

/// The per-item oracle fed `stream` with ticks between the [`segments`];
/// errors are not recorded (the durable service raises an automatic
/// boundary's error when the item's group commits).
fn reference_with_ticks(case: &DurableCase, stream: &[u64], ticks: &[usize]) -> Observed {
    let mut oracle =
        SequentialServiceReference::new(case.config, mech(), budget(case.epochs), SEED).unwrap();
    for (i, segment) in segments(stream, ticks).into_iter().enumerate() {
        if i > 0 {
            let _ = oracle.end_epoch();
        }
        for &item in segment {
            let _ = oracle.ingest(item);
        }
    }
    let latest = oracle.latest();
    Observed {
        errors: Vec::new(),
        transcript: transcript_bits(oracle.transcript()),
        open_epoch_items: stream.len() as u64 - latest.items,
        latest: snapshot_bits(&latest),
        ledger: ledger(oracle.accountant()),
    }
}

/// The durable service's released state, open-epoch count and ledger;
/// no transcript (a reopened service's starts at its checkpoint).
fn state(svc: &DurableService) -> Observed {
    Observed {
        errors: Vec::new(),
        transcript: Vec::new(),
        latest: snapshot_bits(&svc.latest()),
        open_epoch_items: svc.open_epoch_items(),
        ledger: ledger(svc.accountant()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `DpmgService::ingest_from` over any split ≡ the per-item oracle:
    /// transcript, snapshots, open-epoch count, ledger, and every error at
    /// the same item — across automatic boundaries, explicit ticks, and a
    /// budget that refuses part-way.
    #[test]
    fn prop_service_slices_match_the_per_item_reference(
        stream in proptest::collection::vec(0u64..24, 0..300),
        lens in proptest::collection::vec(1usize..48, 1..12),
        ticks in proptest::collection::vec(0u8..4, 1..8),
        shards in 1usize..4,
        len_choice in 0u64..4,
        epochs in 1u32..6,
    ) {
        let mut config = ServiceConfig::new(shards, K).with_batch_size(5);
        config.epoch_len = epoch_len(len_choice);
        let ticks: Vec<bool> = ticks.iter().map(|&t| t == 0).collect();
        let service = run_service(config, epochs, &stream, &lens, &ticks);
        let oracle = run_reference(config, epochs, &stream, &lens, &ticks);
        prop_assert_eq!(service, oracle);
    }

    /// `DurableService::ingest_from` over any split writes the WAL
    /// directory byte for byte as one `ingest` call per item does, raises
    /// the same errors at the same items, ends in the per-item oracle's
    /// state, and reopens to that state.
    #[test]
    fn prop_durable_slices_write_the_per_item_wal(
        stream in proptest::collection::vec(0u64..24, 0..300),
        lens in proptest::collection::vec(1usize..48, 1..12),
        ticks in proptest::collection::vec(0usize..300, 0..4),
        shards in 1usize..3,
        len_choice in 0u64..4,
        epochs in 1u32..6,
        group_commit in 1usize..20,
    ) {
        let mut config = ServiceConfig::new(shards, K).with_batch_size(5);
        config.epoch_len = epoch_len(len_choice);
        let case = DurableCase { config, epochs, group_commit };
        let mut ticks: Vec<usize> = ticks.iter().map(|&t| t.min(stream.len())).collect();
        ticks.sort_unstable();
        let (item_dir, item_errors, item_live) = case.run(&stream, None, &ticks);
        let (slice_dir, slice_errors, slice_live) = case.run(&stream, Some(&lens), &ticks);
        prop_assert_eq!(&item_errors, &slice_errors);
        prop_assert_eq!(&slice_live, &reference_with_ticks(&case, &stream, &ticks));
        prop_assert_eq!(&item_live, &slice_live);
        prop_assert_eq!(wal_files(&item_dir), wal_files(&slice_dir));
        let reopened = case.open(&slice_dir);
        prop_assert_eq!(state(&reopened), Observed { transcript: Vec::new(), ..slice_live });
    }
}

/// A key whose equality check panics when both sides are [`Self::BOMB`],
/// so a shard worker dies on the sketch probe of a repeated sentinel.
#[derive(Debug, Clone, PartialOrd, Ord)]
struct Bomb(u64);

impl Bomb {
    const BOMB: u64 = u64::MAX;
}

impl PartialEq for Bomb {
    fn eq(&self, other: &Self) -> bool {
        assert!(
            self.0 != Self::BOMB || other.0 != Self::BOMB,
            "sentinel key compared"
        );
        self.0 == other.0
    }
}

impl Eq for Bomb {}

impl Hash for Bomb {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

/// A worker that dies mid-stream is reported at the item whose batch
/// dispatch meets it. Which item that is depends on when the dead thread
/// drops its ring, so both paths are checked against the same rule: the
/// pipeline counted the failing item, the open epoch did not, and the
/// items after it stay unconsumed.
#[test]
fn worker_panic_mid_slice_counts_like_the_per_item_path() {
    let dead = shard_of_key(&Bomb(Bomb::BOMB), 2);
    let stream: Vec<Bomb> = (0..40)
        .chain([Bomb::BOMB, Bomb::BOMB])
        .chain(0..400)
        .map(Bomb)
        .collect();
    for per_item in [true, false] {
        let config = ServiceConfig::new(2, K).with_batch_size(4);
        let mut svc = DpmgService::new(config, mech(), budget(4), SEED).unwrap();
        let mut items = stream.iter().cloned();
        let err = if per_item {
            items.by_ref().find_map(|item| svc.ingest(item).err())
        } else {
            svc.ingest_from(items.by_ref()).err()
        };
        let Some(ServiceError::Pipeline(PipelineError::WorkerPanicked { shard })) = err else {
            panic!("per_item={per_item}: expected WorkerPanicked, got {err:?}");
        };
        assert_eq!(shard, dead);
        let consumed = (stream.len() - items.len()) as u64;
        assert!(consumed > 42, "the failing dispatch follows the sentinels");
        assert!(items.len() > 0, "per_item={per_item}: raised mid-stream");
        assert_eq!(svc.stats().items, consumed, "per_item={per_item}");
        assert_eq!(svc.open_epoch_items(), consumed - 1, "per_item={per_item}");
    }
}
