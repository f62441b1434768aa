//! The shared corruption suite ([`corruption::check`]) over every record
//! format reachable through a public decoder: `DPMG`, `DPMS`, `DPKS`,
//! `DPFR`, the fleet's worker report, and `DPSV` through
//! `DpmgService::restore`. `DPCK` and the `DPWL` header and records are
//! checked by the same suite inside `dpmg-service`, whose decoders for
//! them are crate-private.

#[path = "support/corruption.rs"]
mod corruption;

use corruption::{check, no_reseal, reseal_with, Codec};
use dpmg_core::mechanism::MergedLaplaceMechanism;
use dpmg_fleet::protocol::{read_hello, read_report, write_report_tail, Hello, KIND_HELLO};
use dpmg_noise::accounting::PrivacyParams;
use dpmg_service::{DpmgService, ServiceConfig};
use dpmg_sketch::serialize::{
    decode, decode_sketch_state, decode_snapshot, encode, encode_sketch_state, encode_snapshot,
    fnv1a_checksum, read_frame, write_frame, SnapshotRecord,
};
use dpmg_sketch::{MisraGries, Summary};
use proptest::prelude::*;

/// Offsets of the `k` and `len` fields of a `DPMG` record.
const DPMG_K_LEN: [usize; 2] = [5, 13];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn corruption_suite_dpmg(
        entries in proptest::collection::btree_map(0u64..1000, 0u64..1_000_000, 0..16),
    ) {
        let valid = encode(&Summary { k: 16, entries });
        check(Codec {
            valid: &valid,
            decode: &decode,
            canonical: Some(&encode),
            reseal: &no_reseal,
            counts: &[&DPMG_K_LEN],
        });
    }

    #[test]
    fn corruption_suite_dpms(
        entries in proptest::collection::btree_map(0u64..1000, -1.0e9f64..1.0e9, 0..16),
        epoch in 0u64..1000,
        items in 0u64..1_000_000_000,
    ) {
        let valid = encode_snapshot(&SnapshotRecord { k: 16, epoch, items, entries });
        check(Codec {
            valid: &valid,
            decode: &decode_snapshot,
            canonical: None,
            reseal: &reseal_with(fnv1a_checksum),
            counts: &[&[29]],
        });
    }

    #[test]
    fn corruption_suite_dpks(
        stream in proptest::collection::vec(0u64..12, 0..300),
        k in 1usize..8,
    ) {
        let mut mg = MisraGries::new(k).unwrap();
        mg.extend(stream);
        let valid = encode_sketch_state(&mg);
        check(Codec {
            valid: &valid,
            decode: &decode_sketch_state,
            canonical: None,
            reseal: &reseal_with(fnv1a_checksum),
            counts: &[&[5]],
        });
    }

    #[test]
    fn corruption_suite_dpfr(
        kind in 0u8..=255,
        payload in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let mut valid = Vec::new();
        write_frame(&mut valid, kind, &payload).unwrap();
        check(Codec {
            valid: &valid,
            decode: &decode_one_frame,
            canonical: None,
            reseal: &reseal_frames,
            // The length field is a `u32` bounded by the frame cap; the
            // cap is checked by the frame unit tests.
            counts: &[],
        });
    }
}

/// A stream holding exactly one frame: a clean end before it, or bytes
/// after it, is a rejection here.
fn decode_one_frame(bytes: &[u8]) -> Result<(u8, Vec<u8>), String> {
    let mut rest = bytes;
    match read_frame(&mut rest) {
        Ok(Some(frame)) if rest.is_empty() => Ok(frame),
        Ok(Some(_)) => Err("bytes after the frame".into()),
        Ok(None) => Err("no frame".into()),
        Err(e) => Err(e.to_string()),
    }
}

/// Reseals every complete frame of a stream after an edit.
fn reseal_frames(bytes: &mut [u8]) {
    let mut at = 0;
    while let Some(len) = bytes.get(at + 5..at + 9) {
        let end = at + 9 + u32::from_le_bytes(len.try_into().unwrap()) as usize;
        if end + 8 > bytes.len() {
            break;
        }
        let digest = fnv1a_checksum(&bytes[at..end]);
        bytes[end..end + 8].copy_from_slice(&digest.to_le_bytes());
        at = end + 8;
    }
}

fn sample_summary(seed: u64) -> Summary<u64> {
    let mut mg = MisraGries::new(8).unwrap();
    for i in 0..200u64 {
        mg.update((i * seed) % 17);
    }
    mg.summary()
}

#[test]
fn corruption_suite_fleet_report() {
    let hello = Hello {
        worker_id: 1,
        workers: 4,
        total_shards: 8,
        first_shard: 2,
        shard_count: 2,
        k: 8,
    };
    let mut valid = Vec::new();
    write_frame(&mut valid, KIND_HELLO, &hello.encode()).unwrap();
    write_report_tail(
        &mut valid,
        hello.first_shard,
        123,
        456,
        &[sample_summary(3), sample_summary(5)],
    )
    .unwrap();
    // HELLO frame (9 + 48 + 8) and DONE frame (9 + 16 + 8) precede the
    // first SUMMARY, whose payload is the shard index then a DPMG record.
    let dpmg = 65 + 33 + 9 + 8;
    check(Codec {
        valid: &valid,
        decode: &|bytes: &[u8]| {
            let mut rest = bytes;
            let hello = read_hello(&mut rest)?;
            read_report(&mut rest, hello)
        },
        canonical: None,
        reseal: &reseal_frames,
        counts: &[&[dpmg + DPMG_K_LEN[0], dpmg + DPMG_K_LEN[1]]],
    });
}

#[test]
fn corruption_suite_dpsv() {
    let config = ServiceConfig::new(2, 8);
    let mech =
        || Box::new(MergedLaplaceMechanism::new(PrivacyParams::new(0.5, 1e-8).unwrap()).unwrap());
    let budget = PrivacyParams::new(2.0, 1e-6).unwrap();
    let mut svc = DpmgService::new(config, mech(), budget, 41).unwrap();
    for _ in 0..2 {
        svc.ingest_from((0..2_000u64).map(|i| if i % 2 == 0 { 1 + i % 3 } else { i % 40 }))
            .unwrap();
        svc.end_epoch().unwrap();
    }
    let valid = svc.save_state().unwrap();
    check(Codec {
        valid: &valid,
        decode: &|bytes: &[u8]| DpmgService::restore(config, mech(), 1, bytes),
        canonical: None,
        reseal: &reseal_with(fnv1a_checksum),
        // The embedded snapshot's section length.
        counts: &[&[45]],
    });
}
