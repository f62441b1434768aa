//! Recovery memory is bounded by one WAL record, not by the log.
//!
//! Reopening a [`DurableService`] replays its WAL one record at a time, so
//! the process's peak resident set (`VmHWM`) must barely move when a
//! 16 MB segment is replayed. The test has its own target, and that target
//! has this one `#[test]`, so no other test shares the process's `VmHWM`.

#![cfg(target_os = "linux")]

use dpmg_core::mechanism::GshmMechanism;
use dpmg_noise::accounting::PrivacyParams;
use dpmg_service::{DurabilityConfig, DurableService, ServiceConfig};

/// Items written before the reopen: 16 MiB of item words in one segment.
const ITEMS: u64 = 2 << 20;
/// Items per group commit: small, so the segment holds many records and
/// no single record is large.
const GROUP: usize = 64;
/// The most the reopen may raise the process's peak resident set by.
const MAX_GROWTH_KB: u64 = 4 << 10;

/// The process's peak resident set, in kB.
fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status")
}

fn open(durability: DurabilityConfig) -> DurableService {
    let (service, _) = DurableService::open(
        ServiceConfig::new(1, 16),
        Box::new(GshmMechanism::new(PrivacyParams::new(0.8, 1e-8).unwrap()).unwrap()),
        PrivacyParams::new(100.0, 1e-4).unwrap(),
        durability,
        42,
    )
    .unwrap();
    service
}

#[test]
fn reopening_a_16_mb_segment_raises_peak_rss_by_less_than_4_mb() {
    let dir = std::env::temp_dir().join(format!("dpmg-recovery-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durability = DurabilityConfig::new(&dir).with_group_commit(GROUP);
    {
        let mut service = open(durability.clone());
        service.ingest_from((0..ITEMS).map(|i| i % 1009)).unwrap();
        service.flush().unwrap();
    }
    let segments: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().metadata().unwrap().len())
        .collect();
    assert_eq!(segments.len(), 1, "one segment, no checkpoint");
    assert!(segments[0] >= ITEMS * 8, "segment is {} bytes", segments[0]);

    let before = vm_hwm_kb();
    let service = open(durability);
    let after = vm_hwm_kb();
    assert_eq!(service.open_epoch_items(), ITEMS);
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        after - before < MAX_GROWTH_KB,
        "replaying a {} byte segment raised VmHWM by {} kB ({before} → {after} kB)",
        segments[0],
        after - before
    );
}
