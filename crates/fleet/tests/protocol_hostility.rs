//! Wire-protocol hostility: whatever a broken, crashed, malicious, or
//! replayed worker puts on the wire, the aggregator must either reject the
//! report outright or (for genuine crashes) absorb it as a coverage gap —
//! never merge a partial or corrupted summary. Mirrors the serialize
//! corruption suite one layer up, at the framed-report level.

use dpmg_fleet::{
    read_hello, read_report, run_worker, CrashPoint, FleetError, Hello, WorkerSpec, GO_BYTE,
    KIND_HELLO,
};
use dpmg_sketch::serialize::write_frame;
use dpmg_sketch::{MisraGries, Summary};
use proptest::prelude::*;

/// A complete, valid report wire (HELLO + DONE + SUMMARY×s + BYE) plus its
/// parsed reference form.
fn valid_wire(k: usize, shards: usize, seed: u64) -> (Vec<u8>, Hello, Vec<Summary<u64>>) {
    let hello = Hello {
        worker_id: 0,
        workers: 1,
        total_shards: shards as u64,
        first_shard: 0,
        shard_count: shards as u64,
        k: k as u64,
    };
    let summaries: Vec<Summary<u64>> = (0..shards)
        .map(|s| {
            let mut mg = MisraGries::new(k).unwrap();
            for i in 0..300u64 {
                mg.update((i.wrapping_mul(seed + s as u64 + 1)) % 23);
            }
            mg.summary()
        })
        .collect();
    let mut wire = Vec::new();
    write_frame(&mut wire, KIND_HELLO, &hello.encode()).unwrap();
    dpmg_fleet::protocol::write_report_tail(&mut wire, 0, 300 * shards as u64, 77, &summaries)
        .unwrap();
    (wire, hello, summaries)
}

fn parse(wire: &[u8]) -> Result<dpmg_fleet::WorkerReport, FleetError> {
    let mut r = wire;
    let hello = read_hello(&mut r)?;
    read_report(&mut r, hello)
}

proptest! {
    /// Every strict prefix of a valid report fails to parse: a worker that
    /// died mid-send is always detected, at any cut point — frame boundary
    /// or mid-frame.
    #[test]
    fn prop_truncated_reports_never_parse(
        shards in 1usize..4,
        seed in 1u64..500,
        frac in 0.0f64..1.0,
    ) {
        let (wire, _, _) = valid_wire(8, shards, seed);
        let cut = (wire.len() as f64 * frac) as usize;
        prop_assert!(parse(&wire[..cut]).is_err(), "prefix of {cut} bytes parsed");
    }

    /// Flipping any single bit anywhere in the report either fails to parse
    /// or parses to something that differs from the original — a corrupted
    /// report can never silently impersonate the real one. (The frame
    /// checksum makes the `Ok` branch astronomically unlikely; it is
    /// tolerated only because FNV-1a is not cryptographic.)
    #[test]
    fn prop_byte_flips_never_impersonate_the_original(
        shards in 1usize..4,
        seed in 1u64..500,
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let (wire, hello, summaries) = valid_wire(8, shards, seed);
        let mut mutated = wire.clone();
        let pos = (mutated.len() as f64 * pos_frac) as usize;
        mutated[pos] ^= 1 << bit;
        if let Ok(report) = parse(&mutated) {
            prop_assert!(
                report.hello != hello || report.summaries != summaries,
                "flipped byte {pos} bit {bit} reproduced the original report"
            );
        }
    }

    /// A worker (or replayed connection) that appends a second copy of its
    /// report is rejected, not double-merged.
    #[test]
    fn prop_duplicated_reports_are_rejected(
        shards in 1usize..4,
        seed in 1u64..500,
    ) {
        let (wire, _, _) = valid_wire(8, shards, seed);
        let mut doubled = wire.clone();
        // Replay everything after HELLO (DONE+SUMMARY+BYE again), and also
        // the whole stream including a second HELLO: both must fail.
        doubled.extend_from_slice(&wire);
        prop_assert!(matches!(
            parse(&doubled),
            Err(FleetError::Protocol("trailing data after BYE"))
        ));
    }

    /// A worker that sends any number of valid frames and then dies —
    /// cleanly at a frame boundary, not mid-frame — is still rejected,
    /// because the report is atomic through BYE.
    #[test]
    fn prop_valid_frames_then_silence_is_rejected(
        shards in 2usize..5,
        crash_after in 0usize..4,
        seed in 1u64..500,
    ) {
        let spec = WorkerSpec {
            worker_id: 0,
            workers: 1,
            shards_per_worker: shards,
            k: 8,
            crash: Some(CrashPoint::AfterSummaries(crash_after.min(shards))),
            stream_n: 2_000,
            universe: 256,
            skew: 1.0,
            seed,
        };
        let stream = spec.generate_stream();
        let mut wire = Vec::new();
        let mut go: &[u8] = &[GO_BYTE];
        run_worker(&spec, &stream, &mut go, &mut wire).unwrap();
        prop_assert!(parse(&wire).is_err(), "crash-after-{crash_after} report parsed");
    }

    /// Parsing is total and panic-free on arbitrary bytes.
    #[test]
    fn prop_arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(0u8..=255, 0..512),
    ) {
        let _ = parse(&bytes);
    }
}

#[test]
fn hello_frame_with_foreign_geometry_is_rejected_by_the_aggregator() {
    // A worker from a differently-shaped fleet (wrong k / wrong shard count)
    // produces a structurally valid report that assemble() must refuse as a
    // geometry mismatch rather than silently merging mis-sized sketches.
    use dpmg_fleet::{assemble, FleetConfig};
    use std::time::Duration;

    let (wire, _, _) = valid_wire(8, 2, 3);
    let report = parse(&wire).unwrap();
    let config = FleetConfig {
        workers: 1,
        shards_per_worker: 2,
        k: 16, // fleet wants k=16; the report announced k=8
        deadline: Duration::from_secs(1),
        retries: 0,
        coverage_floor: 0.0,
    };
    let err = assemble(&config, vec![(Ok(report), 1)], Duration::ZERO).unwrap_err();
    assert!(matches!(err, FleetError::Spec(_)), "got: {err}");
}
