//! Release memory is bounded by the transcript ring, not by the epoch count.
//!
//! An epoch service keeps the trusted records of its last 16 releases, each
//! holding the epoch's pre-noise summary, so once that ring is full the
//! process's peak resident set (`VmHWM`) must barely move however many more
//! epochs it releases. Keeping every record grows it by about one summary
//! per release: ~4.5 kB for the 200-key summaries below. The test has its
//! own target, and that target has this one `#[test]`, so no other test
//! shares the process's `VmHWM`.

#![cfg(target_os = "linux")]

use dpmg_core::mechanism::GshmMechanism;
use dpmg_noise::accounting::PrivacyParams;
use dpmg_service::{DpmgService, ServiceConfig};

/// Sketch size: the ladder's `epoch_churn` shape.
const K: usize = 256;
/// Distinct keys per epoch: fewer than `K`, so every epoch's pre-noise
/// summary holds all of them.
const KEYS: u64 = 200;
/// Items per epoch.
const EPOCH_ITEMS: u64 = 1_000;
/// Releases before the first reading: the transcript ring fills and the
/// allocator settles.
const WARM_UP: u64 = 64;
/// Releases measured after the warm-up.
const RELEASES: u64 = 4_096;
/// The most the measured releases may raise the peak resident set by.
const MAX_GROWTH_KB: u64 = 2 << 10;

/// The process's peak resident set, in kB.
fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status")
}

fn release(service: &mut DpmgService<u64>) {
    service
        .ingest_from((0..EPOCH_ITEMS).map(|i| i % KEYS))
        .unwrap();
    service.end_epoch().unwrap();
}

#[test]
fn thousands_of_releases_raise_peak_rss_by_less_than_2_mb() {
    let per_epoch = PrivacyParams::new(0.5, 1e-10).unwrap();
    let budget = PrivacyParams::new(1e6, 1e-3).unwrap();
    let mut service = DpmgService::new(
        ServiceConfig::new(1, K),
        Box::new(GshmMechanism::new(per_epoch).unwrap()),
        budget,
        42,
    )
    .unwrap();
    for _ in 0..WARM_UP {
        release(&mut service);
    }
    let before = vm_hwm_kb();
    for _ in 0..RELEASES {
        release(&mut service);
    }
    let after = vm_hwm_kb();
    assert_eq!(service.completed_epochs(), WARM_UP + RELEASES);
    let newest = service.transcript().last().expect("a release record");
    assert_eq!(newest.pre_noise.len() as u64, KEYS);
    assert!(
        after - before < MAX_GROWTH_KB,
        "{RELEASES} releases at k = {K} raised VmHWM by {} kB ({before} → {after} kB)",
        after - before
    );
}
