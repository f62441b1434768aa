//! Byte-layout goldens for every record format: `DPMG`, `DPMS`, `DPKS` and
//! `DPFR` (sketch crate), the fleet's HELLO + DONE + SUMMARY + BYE report,
//! `DPSV` (`save_state`), and the `DPCK` checkpoint and `DPWL` segment a
//! durable service writes. Each fixture is built from fixed inputs and
//! fixed seeds, so any change to a layout, a checksum, or the noise that
//! feeds a persisted record fails here instead of silently orphaning the
//! bytes older builds wrote.
//!
//! Re-bless with `DPMG_BLESS=1 cargo test --test codec_golden`.

use dpmg_core::mechanism::{GshmMechanism, MergedLaplaceMechanism};
use dpmg_fleet::protocol::{write_report_tail, Hello, KIND_HELLO};
use dpmg_noise::accounting::PrivacyParams;
use dpmg_service::{DpmgService, DurabilityConfig, DurableService, ServiceConfig};
use dpmg_sketch::serialize::{
    encode, encode_sketch_state, encode_snapshot, write_frame, SnapshotRecord,
};
use dpmg_sketch::{MisraGries, Summary};
use std::path::{Path, PathBuf};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Compares `bytes` with `tests/golden/codec/{name}.hex`, or rewrites the
/// fixture under `DPMG_BLESS=1`.
fn assert_golden(name: &str, bytes: &[u8]) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/codec")
        .join(format!("{name}.hex"));
    let got = hex(bytes);
    if std::env::var("DPMG_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, format!("{got}\n")).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        got,
        expected.trim(),
        "{name} bytes diverged from {}; re-bless with DPMG_BLESS=1 if intentional",
        path.display()
    );
}

fn sample_summary(seed: u64) -> Summary<u64> {
    let mut mg = MisraGries::new(8).unwrap();
    for i in 0..200u64 {
        mg.update((i * seed) % 17);
    }
    mg.summary()
}

#[test]
fn dpmg_summary_layout() {
    let summary = Summary::from_entries(8, [(3u64, 10), (7, 0), (100, 42)]);
    assert_golden("dpmg", &encode(&summary));
}

#[test]
fn dpms_snapshot_layout() {
    let snapshot = SnapshotRecord {
        k: 8,
        epoch: 5,
        items: 123_456,
        entries: [(3u64, 10.25), (7, 0.0), (100, -41.9)]
            .into_iter()
            .collect(),
    };
    assert_golden("dpms", &encode_snapshot(&snapshot));
}

#[test]
fn dpks_sketch_state_layout() {
    // k = 4 over a stream with decrements, so item and dummy slots, a
    // nonzero stream length and a nonzero decrement count all appear.
    let mut mg = MisraGries::new(4).unwrap();
    mg.extend([3u64, 3, 7, 100, 100, 5, 9, 3, 11, 12, 13]);
    assert_golden("dpks", &encode_sketch_state(&mg));
}

#[test]
fn dpfr_frame_layout() {
    let mut stream = Vec::new();
    write_frame(&mut stream, 7, b"payload bytes").unwrap();
    write_frame(&mut stream, 0, &[]).unwrap();
    assert_golden("dpfr", &stream);
}

#[test]
fn fleet_report_layout() {
    let hello = Hello {
        worker_id: 1,
        workers: 4,
        total_shards: 8,
        first_shard: 2,
        shard_count: 2,
        k: 8,
    };
    let mut wire = Vec::new();
    write_frame(&mut wire, KIND_HELLO, &hello.encode()).unwrap();
    write_report_tail(
        &mut wire,
        hello.first_shard,
        123,
        456_789,
        &[sample_summary(3), sample_summary(5)],
    )
    .unwrap();
    assert_golden("fleet_report", &wire);
}

#[test]
fn dpsv_saved_state_layout() {
    let budget = PrivacyParams::new(2.0, 1e-6).unwrap();
    let mech = MergedLaplaceMechanism::new(PrivacyParams::new(0.5, 1e-8).unwrap()).unwrap();
    let mut svc = DpmgService::new(ServiceConfig::new(2, 8), Box::new(mech), budget, 41).unwrap();
    for epoch in 0..3u64 {
        svc.ingest_from((0..3_000u64).map(|i| {
            if i % 2 == 0 {
                1 + i % 3
            } else {
                i % (40 + epoch)
            }
        }))
        .unwrap();
        svc.end_epoch().unwrap();
    }
    assert_golden("dpsv", &svc.save_state().unwrap());
}

/// Self-cleaning unique directory (no tempfile dependency).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!("dpmg-golden-{}-{tag}", std::process::id()));
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

/// The single file in `dir` with extension `ext`.
fn only_file(dir: &Path, ext: &str) -> Vec<u8> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(ext))
        .collect();
    assert_eq!(found.len(), 1, "expected one .{ext} file, found {found:?}");
    std::fs::read(found.pop().unwrap()).unwrap()
}

/// A fixed-seed durable run that writes every WAL record kind (group-
/// committed `Items`, an explicit `EpochEnd`, a mid-epoch `Reshard`), then
/// ends in an explicit `checkpoint()`. The segment is captured before the
/// checkpoint collects it; the checkpoint carries a release, a reshard
/// carry and three shard sketches.
#[test]
fn dpwl_segment_and_dpck_checkpoint_layout() {
    let dir = TempDir::new("durable");
    let durability = DurabilityConfig::new(&dir.0)
        .with_group_commit(64)
        .with_checkpoint_every_epochs(100);
    let mech = GshmMechanism::new(PrivacyParams::new(0.8, 1e-8).unwrap()).unwrap();
    let (mut svc, _) = DurableService::open(
        ServiceConfig::new(2, 8),
        Box::new(mech),
        PrivacyParams::new(100.0, 1e-4).unwrap(),
        durability,
        42,
    )
    .unwrap();
    let item = |i: u64| {
        if i % 3 == 0 {
            7
        } else {
            i.wrapping_mul(2_654_435_761) % 23
        }
    };
    svc.ingest_from((0..300).map(item)).unwrap();
    svc.end_epoch().unwrap();
    svc.ingest_from((300..400).map(item)).unwrap();
    svc.reshard(3).unwrap();
    svc.ingest_from((400..450).map(item)).unwrap();
    svc.flush().unwrap();
    assert_golden("dpwl", &only_file(&dir.0, "dpwl"));

    svc.checkpoint().unwrap();
    assert_golden("dpck", &only_file(&dir.0, "dpck"));
    drop(svc);
}
