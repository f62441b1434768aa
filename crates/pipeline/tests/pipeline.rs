//! Integration and property tests: the threaded pipeline must be a
//! deterministic replica of the inline sequential reference — identical
//! per-shard summaries, identical merged summary — for every stream,
//! shard count, and batch size.

use dpmg_core::mechanism::{release_merged_metered, GshmMechanism};
use dpmg_noise::accounting::{Accountant, PrivacyParams};
use dpmg_pipeline::{sequential_sharded_reference, shard_of_key, PipelineConfig, ShardedPipeline};
use dpmg_sketch::merge::merged_error_bound;
use dpmg_sketch::misra_gries::MisraGries;
use dpmg_workload::zipf::Zipf;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

#[test]
fn pipeline_replicates_sequential_reference_on_zipf() {
    let mut rng = StdRng::seed_from_u64(17);
    let stream = Zipf::new(10_000, 1.2).stream(60_000, &mut rng);
    for shards in [1usize, 2, 3, 8] {
        let k = 64;
        let config = PipelineConfig::new(shards, k).with_batch_size(777);
        let mut pipe = ShardedPipeline::new(config).unwrap();
        pipe.ingest_from(stream.iter().copied()).unwrap();
        let (ref_summaries, ref_merged) = sequential_sharded_reference(&stream, shards, k);
        assert_eq!(pipe.shard_summaries().unwrap(), &ref_summaries[..]);
        assert_eq!(pipe.merged().unwrap(), ref_merged);
        let lens = pipe.stats().shard_stream_lens;
        assert_eq!(lens.iter().sum::<u64>(), stream.len() as u64);
        for (shard, len) in lens.iter().enumerate() {
            let expected = stream
                .iter()
                .filter(|x| shard_of_key(*x, shards) == shard)
                .count() as u64;
            assert_eq!(*len, expected, "shard {shard}");
        }
    }
}

#[test]
fn merged_estimates_respect_lemma29_window() {
    // The merged sketch underestimates every key by at most M/(k+1) where
    // M is the total stream length, whatever the shard count.
    let mut rng = StdRng::seed_from_u64(5);
    let stream = Zipf::new(500, 1.1).stream(40_000, &mut rng);
    let mut truth: HashMap<u64, u64> = HashMap::new();
    for &x in &stream {
        *truth.entry(x).or_insert(0) += 1;
    }
    let k = 48;
    let bound = merged_error_bound(stream.len() as u64, k);
    for shards in [1usize, 4, 8] {
        let mut pipe = ShardedPipeline::new(PipelineConfig::new(shards, k)).unwrap();
        pipe.ingest_from(stream.iter().copied()).unwrap();
        let merged = pipe.merged().unwrap();
        for (x, &f) in &truth {
            let est = merged.count(x);
            assert!(est <= f, "{shards} shards, key {x}: overestimate");
            assert!(
                est + bound >= f,
                "{shards} shards, key {x}: {est} + {bound} < {f}"
            );
        }
    }
}

#[test]
fn release_recovers_heavy_hitters_across_shard_counts() {
    let mut stream: Vec<u64> = Vec::new();
    for i in 0..30_000u64 {
        stream.push(if i % 3 == 0 { 1 + i % 2 } else { 100 + i % 700 });
    }
    let params = PrivacyParams::new(0.9, 1e-8).unwrap();
    let mechanism = GshmMechanism::new(params).unwrap();
    for shards in [1usize, 2, 8] {
        let mut pipe = ShardedPipeline::new(PipelineConfig::new(shards, 128)).unwrap();
        pipe.ingest_from(stream.iter().copied()).unwrap();
        let mut accountant = Accountant::new(params);
        let mut rng = StdRng::seed_from_u64(23);
        let merged = pipe.merged().unwrap();
        let hist = release_merged_metered(&mechanism, &merged, &mut accountant, &mut rng).unwrap();
        assert_eq!(accountant.charges(), 1, "{shards} shards");
        for key in [1u64, 2] {
            // 5_000 occurrences each; merged error ≤ 30_000/129 ≈ 232.
            assert!(
                hist.estimate(&key) > 4_000.0,
                "{shards} shards, key {key}: {}",
                hist.estimate(&key)
            );
        }
    }
}

#[test]
fn pipeline_and_sequential_baseline_agree_on_single_shard_merged() {
    // A 1-shard hash-routed pipeline is exactly one sequential sketch.
    let stream: Vec<u64> = (0..10_000u64).map(|i| i % 101).collect();
    let mut pipe = ShardedPipeline::new(PipelineConfig::new(1, 32)).unwrap();
    pipe.ingest_from(stream.iter().copied()).unwrap();
    let mut base = MisraGries::new(32).unwrap();
    base.extend_batch(&stream);
    // The merge canonicalizes zero-count keys away (Section 7 treats them
    // as absent), so compare positive supports.
    let mut base_summary = base.summary();
    base_summary.entries.retain(|_, c| *c > 0);
    assert_eq!(pipe.merged().unwrap(), base_summary);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The engine is oblivious to batching and threading: any (stream,
    /// shards, batch size, channel capacity) produces exactly the inline
    /// reference's summaries. Small universe so all three Misra-Gries
    /// branches fire constantly.
    #[test]
    fn prop_pipeline_equals_reference(
        stream in proptest::collection::vec(0u64..25, 0..800),
        shards in 1usize..6,
        k in 1usize..10,
        batch_size in 1usize..100,
        capacity in 1usize..4,
    ) {
        let config = PipelineConfig {
            channel_capacity: capacity,
            ..PipelineConfig::new(shards, k).with_batch_size(batch_size)
        };
        let mut pipe = ShardedPipeline::new(config).unwrap();
        pipe.ingest_from(stream.iter().copied()).unwrap();
        let (ref_summaries, ref_merged) = sequential_sharded_reference(&stream, shards, k);
        prop_assert_eq!(pipe.shard_summaries().unwrap(), &ref_summaries[..]);
        prop_assert_eq!(pipe.merged().unwrap(), ref_merged);
    }

    /// Ingesting in arbitrary chunkings changes nothing.
    #[test]
    fn prop_chunking_is_invisible(
        stream in proptest::collection::vec(0u64..12, 0..400),
        chunk in 1usize..64,
    ) {
        let mut a = ShardedPipeline::new(PipelineConfig::new(3, 5).with_batch_size(7)).unwrap();
        for part in stream.chunks(chunk) {
            a.ingest_from(part.iter().copied()).unwrap();
        }
        let mut b = ShardedPipeline::new(PipelineConfig::new(3, 5).with_batch_size(7)).unwrap();
        b.ingest_from(stream.iter().copied()).unwrap();
        prop_assert_eq!(a.merged().unwrap(), b.merged().unwrap());
    }
}
