//! Concurrency integration tests: the distributed-aggregation flow of
//! Section 7 driven through the `dpmg-pipeline` engine, and thread-safety
//! of the shared experiment infrastructure.

use dp_misra_gries::core::mechanism::GshmMechanism;
use dp_misra_gries::eval::experiment::parallel_trials;
use dp_misra_gries::pipeline::sequential_sharded_reference;
use dp_misra_gries::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

/// Eight pipeline shard workers ingest a 400k-item stream over channels;
/// every per-shard summary, the merged summary, and the final release
/// match a single-threaded reference that replays the same routing inline.
#[test]
fn threaded_aggregation_matches_sequential_reference() {
    let k = 128usize;
    let stream: Vec<u64> = (0..400_000u64)
        .map(|i| {
            if i % 2 == 0 {
                1 + (i / 2) % 4
            } else {
                10 + (i * ((i / 50_000) + 3)) % 500
            }
        })
        .collect();

    // Threaded path: the sharded ingestion engine.
    let config = PipelineConfig::new(8, k).with_batch_size(2048);
    let mut pipe = ShardedPipeline::new(config).unwrap();
    pipe.ingest_from(stream.iter().copied()).unwrap();

    // Sequential reference: identical routing, inline sketching, same
    // merge-tree shape.
    let (ref_summaries, ref_merged) = sequential_sharded_reference(&stream, 8, k);
    assert_eq!(pipe.shard_summaries().unwrap(), &ref_summaries[..]);
    assert_eq!(pipe.merged().unwrap(), ref_merged);
    assert_eq!(pipe.stats().items, stream.len() as u64);

    // And the single trusted DP release over the threaded summaries works.
    let params = PrivacyParams::new(0.9, 1e-8).unwrap();
    let mechanism = GshmMechanism::new(params).unwrap();
    let mut accountant = Accountant::new(params);
    let mut rng = StdRng::seed_from_u64(1);
    let merged = pipe.merged().unwrap();
    let hist = release_merged_metered(&mechanism, &merged, &mut accountant, &mut rng).unwrap();
    assert_eq!(accountant.charges(), 1);
    // True count per heavy key: 50_000; the merged sketch may undershoot
    // by up to M/(k+1) = 400_000/129 ≈ 3100 plus the GSHM noise/threshold.
    for key in 1..=4u64 {
        let est = hist.estimate(&key);
        assert!(est > 40_000.0 && est <= 50_500.0, "key {key}: {est}");
    }
}

/// Sketches behind a mutex can be updated from many threads (ingest-style
/// sharing) and the result equals a sequential run over the concatenation.
#[test]
fn shared_sketch_under_mutex_is_consistent() {
    let sketch = Mutex::new(MisraGries::<u64>::new(64).unwrap());
    let per_thread = 20_000u64;
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let sketch = &sketch;
            scope.spawn(move || {
                for i in 0..per_thread {
                    // Heavy key 7 plus thread-local tail.
                    let x = if i % 2 == 0 {
                        7
                    } else {
                        100 + t * 1_000 + i % 50
                    };
                    sketch.lock().unwrap().update(x);
                }
            });
        }
    });
    let sketch = sketch.into_inner().unwrap();
    assert_eq!(sketch.stream_len(), 4 * per_thread);
    // Key 7 appears 40_000 times out of 80_000; the sketch error bound is
    // 80_000/65 ≈ 1231.
    let est = sketch.count(&7);
    assert!(est >= 40_000 - sketch.error_bound());
    assert!(est <= 40_000);
}

/// The parallel trial runner gives identical results regardless of worker
/// interleaving (trial-indexed seeding).
#[test]
fn parallel_trials_stable_across_runs() {
    let f = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let lap = dp_misra_gries::noise::laplace::Laplace::new(1.0).unwrap();
        lap.sample(&mut rng)
    };
    let a = parallel_trials(500, 99, f);
    let b = parallel_trials(500, 99, f);
    assert_eq!(a, b);
}
