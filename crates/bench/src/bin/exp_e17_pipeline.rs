//! **E17 — Section 7 at production scale:** the sharded ingestion pipeline
//! (`dpmg-pipeline`) against the sequential baseline on a 1M-item Zipf
//! stream: ingestion throughput scales with the shard count (given
//! hardware parallelism), while the released histogram's error stays
//! within the *sequential* baseline's analytic bound — sharding is free
//! accuracy-wise (Lemma 29 + Corollary 18: the merged sensitivity and the
//! merged sketch error are both independent of the number of shards).

use dpmg_bench::{banner, f2, out_dir, quick_mode, verdict};
use dpmg_core::gshm::GshmParams;
use dpmg_core::mechanism::{release_merged_metered, GshmMechanism};
use dpmg_eval::experiment::Table;
use dpmg_noise::accounting::{Accountant, PrivacyParams};
use dpmg_pipeline::{PipelineConfig, ShardedPipeline};
use dpmg_sketch::merge::merge_tree;
use dpmg_sketch::misra_gries::MisraGries;
use dpmg_sketch::traits::Summary;
use dpmg_workload::zipf::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Instant;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn stream_of(n: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(0xE17);
    Zipf::new(1_000_000, 1.1).stream(n, &mut rng)
}

/// Feeds one sequential sketch of size `k` in 4096-item batches.
fn sequential_sketch(k: usize, stream: &[u64]) -> MisraGries<u64> {
    let mut sketch = MisraGries::new(k).unwrap();
    for chunk in stream.chunks(4096) {
        sketch.extend_batch(chunk);
    }
    sketch
}

/// Feeds a fresh pipeline of the given configuration in 4096-item chunks.
fn fed_pipeline(config: PipelineConfig, stream: &[u64]) -> ShardedPipeline<u64> {
    let mut pipe = ShardedPipeline::new(config).unwrap();
    for chunk in stream.chunks(4096) {
        pipe.ingest_from(chunk.iter().copied()).expect("ingest");
    }
    pipe
}

fn main() {
    banner(
        "E17",
        "sharded pipeline: ingest throughput scales with shards; released error within the sequential analytic bound",
    );
    let n = quick_mode(100_000, 1_000_000);
    let k = 256usize;
    let stream = stream_of(n);

    // Part 1: ingestion throughput vs shard count (hardware-dependent; not
    // part of the golden snapshot).
    let threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    let mut t1 = Table::new(
        "E17a ingestion throughput (timing; machine-dependent)",
        &["mechanism", "ms", "Mitems/s", "speedup vs 1 shard"],
    );
    // Wall-clock of a full ingest, up to the pre-noise summary (for the
    // pipeline: route → batch → shard workers → seal → merge).
    let start = Instant::now();
    sequential_sketch(k, &stream).summary();
    let seq_secs = start.elapsed().as_secs_f64();
    t1.row(&[
        "sequential".into(),
        f2(seq_secs * 1e3),
        f2(n as f64 / seq_secs / 1e6),
        "-".into(),
    ]);
    let mut one_shard_secs = f64::NAN;
    let mut speedup8 = f64::NAN;
    for shards in SHARD_COUNTS {
        let config = PipelineConfig::new(shards, k).with_batch_size(4096);
        let start = Instant::now();
        fed_pipeline(config, &stream).merged().expect("finish");
        let secs = start.elapsed().as_secs_f64();
        if shards == 1 {
            one_shard_secs = secs;
        }
        let speedup = one_shard_secs / secs;
        if shards == 8 {
            speedup8 = speedup;
        }
        t1.row(&[
            format!("pipeline-{shards}"),
            f2(secs * 1e3),
            f2(n as f64 / secs / 1e6),
            f2(speedup),
        ]);
    }
    t1.emit(&out_dir()).unwrap();
    println!("(detected hardware parallelism: {threads} threads)\n");
    verdict(
        &format!(
            "throughput: 8-shard speedup {} ≥ 2 (needs ≥2 cores; this host has {threads})",
            f2(speedup8)
        ),
        speedup8 >= 2.0 || threads < 2,
    );

    // Part 2: released-histogram accuracy vs shard count (deterministic:
    // fixed data seed, fixed release seed per row).
    let k_acc = 64usize;
    let params = PrivacyParams::new(0.9, 1e-8).unwrap();
    let gshm = GshmParams::calibrate(0.9, 1e-8, k_acc).unwrap();
    // The sequential baseline's analytic error bound: Fact 7 sketch
    // underestimate + GSHM threshold/noise envelope. Corollary 18 promises
    // the same bound for the merged release, whatever the shard count.
    let bound = (n as f64) / (k_acc as f64 + 1.0) + gshm.tau + 1.0;
    let mut truth: HashMap<u64, u64> = HashMap::new();
    for &x in &stream {
        *truth.entry(x).or_insert(0) += 1;
    }
    let mut top: Vec<(u64, u64)> = truth.into_iter().collect();
    top.sort_by_key(|&(key, f)| (std::cmp::Reverse(f), key));
    top.truncate(20);

    let mut t2 = Table::new(
        "E17b released max error over top-20 keys (eps=0.9, delta=1e-8)",
        &["mechanism", "max err", "seq analytic bound", "within"],
    );
    let mut accuracy_ok = true;
    // Every row releases its merged summary once through the guarded,
    // metered trusted-aggregator path, with GSHM.
    let mechanism = GshmMechanism::new(params).unwrap();
    let max_err_of = |merged: Summary<u64>, seed: u64| -> f64 {
        let mut accountant = Accountant::new(params);
        let mut rng = StdRng::seed_from_u64(seed);
        let hist = release_merged_metered(&mechanism, &merged, &mut accountant, &mut rng)
            .expect("release");
        top.iter()
            .map(|&(key, f)| (hist.estimate(&key) - f as f64).abs())
            .fold(0.0, f64::max)
    };
    // The sequential row is a 1-summary merge, which drops zero-count keys
    // exactly as the pipeline's merge tree does.
    let merged = merge_tree(&[sequential_sketch(k_acc, &stream).summary()]).expect("one summary");
    let err = max_err_of(merged, 0xACC0);
    accuracy_ok &= err <= bound;
    t2.row(&[
        "sequential".into(),
        f2(err),
        f2(bound),
        (err <= bound).to_string(),
    ]);
    for (i, shards) in SHARD_COUNTS.into_iter().enumerate() {
        let merged = fed_pipeline(PipelineConfig::new(shards, k_acc), &stream)
            .merged()
            .expect("finish");
        let err = max_err_of(merged, 0xACC1 + i as u64);
        accuracy_ok &= err <= bound;
        t2.row(&[
            format!("pipeline-{shards}"),
            f2(err),
            f2(bound),
            (err <= bound).to_string(),
        ]);
    }
    t2.emit(&out_dir()).unwrap();
    verdict(
        "released error within the sequential analytic bound at every shard count",
        accuracy_ok,
    );
}
