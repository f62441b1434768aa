//! SPSC block-ring model tests: the ring must be observationally
//! identical to a `std::sync::mpsc::sync_channel` of the same capacity —
//! FIFO order, capacity-bounded occupancy, the same disconnect semantics
//! — and block recycling through a forward/return ring pair must never
//! hand the router a block that still aliases live (unconsumed) data.

use dpmg_pipeline::ring;
use dpmg_pipeline::{sequential_sharded_reference, PipelineConfig, ShardedPipeline};
use proptest::prelude::*;
use std::sync::mpsc;

proptest! {
    /// Differential model check against `std::sync::mpsc`: run the same
    /// saturating op schedule against the ring and a `sync_channel` of
    /// equal capacity; every received value and every would-block /
    /// would-be-empty outcome must agree, and the tail drain after the
    /// producer disconnects must agree too.
    #[test]
    fn ring_matches_mpsc_reference(
        capacity in 1usize..5,
        ops in proptest::collection::vec((0u8..2, 1u8..6), 0..64),
    ) {
        let (mut rtx, mut rrx) = ring::bounded::<u64>(capacity);
        let (mtx, mrx) = mpsc::sync_channel::<u64>(capacity);
        let mut next = 0u64;      // next value the producer publishes
        let mut in_flight = 0usize;
        for &(kind, n) in &ops {
            match kind {
                0 => {
                    for _ in 0..n {
                        // Saturate: only send while the bounded reference
                        // has room, so neither side ever blocks.
                        if in_flight == capacity {
                            break;
                        }
                        rtx.send(next).unwrap();
                        mtx.try_send(next).expect("model says there is room");
                        next += 1;
                        in_flight += 1;
                    }
                }
                _ => {
                    for _ in 0..n {
                        let got = rrx.try_recv();
                        let expected = mrx.try_recv();
                        match (got, expected) {
                            (Ok(a), Ok(b)) => {
                                prop_assert_eq!(a, b, "FIFO order diverged");
                                in_flight -= 1;
                            }
                            (Err(ring::TryRecvError::Empty), Err(mpsc::TryRecvError::Empty)) => {}
                            (got, expected) => {
                                return Err(TestCaseError::fail(format!(
                                    "outcome diverged: ring {got:?} vs mpsc {expected:?}"
                                )));
                            }
                        }
                    }
                }
            }
        }
        // Disconnect the producers; the consumers must drain the same
        // tail and then report disconnection identically.
        drop(rtx);
        drop(mtx);
        loop {
            match (rrx.try_recv(), mrx.try_recv()) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "drain order diverged"),
                (
                    Err(ring::TryRecvError::Disconnected),
                    Err(mpsc::TryRecvError::Disconnected),
                ) => break,
                (got, expected) => {
                    return Err(TestCaseError::fail(format!(
                        "disconnect diverged: ring {got:?} vs mpsc {expected:?}"
                    )));
                }
            }
        }
    }

    /// Recycling a block pool through a forward/return ring pair (the
    /// engine's exact topology) never aliases live data: every block the
    /// "router" gets back off the return path is the cleared remnant of a
    /// block whose payload was already consumed, never one still in
    /// flight.
    #[test]
    fn recycling_never_aliases_live_blocks(
        capacity in 1usize..4,
        batches in 1usize..40,
        batch_len in 1usize..8,
    ) {
        let (mut tx, mut rx) = ring::bounded::<Vec<u64>>(capacity);
        let (mut ret_tx, mut ret_rx) = ring::bounded::<Vec<u64>>(capacity + 2);
        let mut consumed = 0u64;  // items the "worker" has applied, in order
        let mut sent = 0u64;
        let mut minted = 0usize;
        for _ in 0..batches {
            // Router: recycle or mint, fill with the next payload values.
            let mut block = match ret_rx.try_recv() {
                Ok(spare) => {
                    prop_assert!(spare.is_empty(), "recycled block still holds data");
                    spare
                }
                Err(_) => {
                    minted += 1;
                    Vec::with_capacity(batch_len)
                }
            };
            for _ in 0..batch_len {
                block.push(sent);
                sent += 1;
            }
            // The bounded forward ring may be full; drain the "worker"
            // side until the send fits (single-threaded schedule).
            while sent - consumed > (capacity * batch_len) as u64 {
                let mut done = rx.try_recv().unwrap();
                for &v in &done {
                    prop_assert_eq!(v, consumed, "worker saw reordered/clobbered data");
                    consumed += 1;
                }
                done.clear();
                ret_tx.send(done).unwrap();
            }
            tx.send(block).unwrap();
        }
        // Drain the tail.
        drop(tx);
        while let Ok(mut done) = rx.try_recv() {
            for &v in &done {
                prop_assert_eq!(v, consumed);
                consumed += 1;
            }
            done.clear();
            ret_tx.send(done).unwrap();
        }
        prop_assert_eq!(consumed, sent, "items lost in recycling");
        // The pool stabilises: mints are bounded by the circulation bound
        // the engine's return-ring sizing comment proves.
        prop_assert!(minted <= capacity + 3, "minted {minted} blocks at capacity {capacity}");
    }
}

/// High-contention stress: tiny rings (capacity 1–2), a router that is
/// faster than the workers, threads genuinely racing. Checks end-to-end
/// content integrity through the engine, under both tiny forward-ring
/// capacities, against the single-threaded sequential reference on the
/// same stream: every per-shard summary and the merged summary.
#[test]
fn tiny_capacity_contention_stress() {
    let stream: Vec<u64> = (0..120_000u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9) >> 7)
        .collect();
    let (ref_summaries, ref_merged) = sequential_sharded_reference(&stream, 4, 32);
    for capacity in [1usize, 2] {
        let config = PipelineConfig {
            channel_capacity: capacity,
            ..PipelineConfig::new(4, 32).with_batch_size(64)
        };
        let mut pipe = ShardedPipeline::new(config).unwrap();
        pipe.ingest_from(stream.iter().copied()).unwrap();
        assert_eq!(
            pipe.shard_summaries().unwrap(),
            &ref_summaries[..],
            "shard summaries diverged at capacity {capacity}"
        );
        assert_eq!(
            pipe.merged().unwrap(),
            ref_merged,
            "merged summary diverged at capacity {capacity}"
        );
    }
}

/// The hoisted `ingest_from` checks must not change results: the bulk
/// path is regression-compared against the per-item `ingest` path.
#[test]
fn hoisted_checks_match_per_item_path() {
    let stream: Vec<u64> = (0..10_007u64).map(|i| i % 91).collect();
    let config = PipelineConfig::new(3, 16).with_batch_size(17);
    let mut bulk = ShardedPipeline::new(config).unwrap();
    bulk.ingest_from(stream.iter().copied()).unwrap();
    let mut single = ShardedPipeline::new(config).unwrap();
    for &x in &stream {
        single.ingest(x).unwrap();
    }
    assert_eq!(
        bulk.shard_summaries().unwrap(),
        single.shard_summaries().unwrap()
    );
    assert_eq!(
        bulk.stats().shard_stream_lens,
        single.stats().shard_stream_lens
    );
}
