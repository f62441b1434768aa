//! Statistical privacy audit of the sharded pipeline (Section 7).
//!
//! Three layers of evidence that the engine's single trusted release is
//! sound, mirroring the paper's argument:
//!
//! 1. **Structure** (Lemma 17 / Corollary 18): for random neighbouring
//!    datasets, the merged pre-noise summaries differ one-sidedly by at
//!    most 1 on at most `k` counters — for every shard count, because
//!    key-hash routing confines the difference to one shard's substream.
//! 2. **Noise envelope**: across hundreds of release seeds, every released
//!    counter stays within the calibrated Gaussian envelope of its
//!    pre-noise merged counter and above the `1 + τ` threshold.
//! 3. **Distinguishability** (empirical DP, `eval::audit`): the released
//!    outputs of the neighbouring datasets are statistically no more
//!    distinguishable than the claimed `(ε, δ)` allows.

use dp_misra_gries::core::gshm::GshmParams;
use dp_misra_gries::core::mechanism::GshmMechanism;
use dp_misra_gries::core::merged::release_merged_gshm;
use dp_misra_gries::eval::audit::{audit_mechanism, AuditConfig};
use dp_misra_gries::pipeline::{PipelineConfig, ShardedPipeline};
use dp_misra_gries::prelude::*;
use dp_misra_gries::sketch::traits::Summary;
use dp_misra_gries::workload::streams::remove_at;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const EPS: f64 = 0.9;
const DELTA: f64 = 1e-8;

fn params() -> PrivacyParams {
    PrivacyParams::new(EPS, DELTA).unwrap()
}

/// Runs the full pipeline over `stream` and returns the pre-noise merged
/// summary (exactly what the release will noise).
fn pipeline_merged(stream: &[u64], shards: usize, k: usize) -> Summary<u64> {
    let config = PipelineConfig::new(shards, k).with_batch_size(97);
    let mut pipe = ShardedPipeline::new(config).unwrap();
    pipe.ingest_from(stream.iter().copied()).unwrap();
    pipe.merged().unwrap()
}

/// `x` dominates `y`: `keys(y) ⊆ keys(x)` and `x − y ∈ {0, 1}` pointwise.
fn dominates(x: &Summary<u64>, y: &Summary<u64>) -> bool {
    y.entries.keys().all(|k| x.entries.contains_key(k))
        && x.entries.iter().all(|(k, &c)| {
            let cy = y.count(k);
            c >= cy && c - cy <= 1
        })
}

/// Corollary 18 invariant check over random neighbouring datasets: 50
/// dataset seeds × 4 shard counts = 200 merged neighbour pairs, none of
/// which may differ by more than 1 on more than `k` counters (one-sided).
#[test]
fn lemma17_invariant_holds_for_every_shard_count() {
    let k = 8usize;
    for seed in 0..50u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.random_range(200..1200);
        // Small universe so decrements fire constantly (the hard case for
        // the neighbour structure).
        let stream: Vec<u64> = (0..len).map(|_| rng.random_range(1..=30u64)).collect();
        let neighbour = remove_at(&stream, rng.random_range(0..stream.len()));
        for shards in [1usize, 2, 4, 8] {
            let merged = pipeline_merged(&stream, shards, k);
            let merged_n = pipeline_merged(&neighbour, shards, k);
            let linf = merged.linf_distance(&merged_n);
            let differing = merged
                .entries
                .keys()
                .chain(merged_n.entries.keys())
                .collect::<std::collections::BTreeSet<_>>()
                .iter()
                .filter(|key| merged.count(key) != merged_n.count(key))
                .count();
            assert!(linf <= 1, "seed {seed}, {shards} shards: ℓ∞ = {linf}");
            assert!(
                differing <= k,
                "seed {seed}, {shards} shards: {differing} > k counters differ"
            );
            assert!(
                dominates(&merged, &merged_n) || dominates(&merged_n, &merged),
                "seed {seed}, {shards} shards: difference is not one-sided"
            );
        }
    }
}

/// A skewed neighbouring pair used by the release-distribution tests:
/// heavy keys 1..=4 plus a long tail, with the neighbour missing one
/// occurrence of key 1 (a worst case for the release: the differing key is
/// released with near certainty).
fn neighbouring_pair() -> (Vec<u64>, Vec<u64>) {
    let stream: Vec<u64> = (0..20_000u64)
        .map(|i| {
            if i % 2 == 0 {
                1 + (i / 2) % 4
            } else {
                100 + i % 800
            }
        })
        .collect();
    let at = stream.iter().position(|&x| x == 1).unwrap();
    let neighbour = remove_at(&stream, at);
    (stream, neighbour)
}

/// Every released counter across 256 release seeds stays inside the
/// calibrated noise envelope of its pre-noise merged counter, on both
/// neighbouring datasets.
#[test]
fn released_counters_stay_inside_analytic_envelope() {
    let k = 32usize;
    let shards = 4usize;
    let (stream, neighbour) = neighbouring_pair();
    let gshm = GshmParams::calibrate(EPS, DELTA, k).unwrap();
    // 6.5σ per-draw envelope: P(|N(0,σ²)| > 6.5σ) ≈ 8·10⁻¹¹, so over
    // 2 × 256 × ≤32 released counters a violation indicates a bug, not
    // bad luck.
    let envelope = 6.5 * gshm.sigma;
    let threshold = 1.0 + gshm.tau;
    for merged in [
        pipeline_merged(&stream, shards, k),
        pipeline_merged(&neighbour, shards, k),
    ] {
        for seed in 0..256u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let hist = release_merged_gshm(&merged, params(), &mut rng).unwrap();
            for (key, value) in hist.iter() {
                let pre = merged.count(key);
                assert!(pre > 0, "seed {seed}: released key {key:?} not in summary");
                assert!(
                    (value - pre as f64).abs() <= envelope,
                    "seed {seed}, key {key:?}: |{value} − {pre}| > {envelope}"
                );
                assert!(value >= threshold, "seed {seed}: below threshold");
            }
        }
    }
}

/// Empirical `(ε, δ)` audit over 400 release seeds per dataset: the scalar
/// statistic (sum of released counters) of the two neighbouring runs must
/// not be distinguishable beyond the claimed budget. The audit estimates a
/// LOWER bound on the true privacy loss, so `ε̂ ≫ ε` would falsify the
/// release; `ε̂ ≤ ε` (up to sampling slack) is consistent with the claim.
#[test]
fn statistical_audit_of_pipeline_release() {
    let k = 32usize;
    let shards = 4usize;
    let (stream, neighbour) = neighbouring_pair();
    let merged_a = pipeline_merged(&stream, shards, k);
    let merged_b = pipeline_merged(&neighbour, shards, k);
    // Pre-condition of the audit's interest: the pair really differs.
    assert!(merged_a.l1_distance(&merged_b) >= 1);

    let stat = |merged: Summary<u64>| {
        move |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let hist = release_merged_gshm(&merged, params(), &mut rng).unwrap();
            hist.iter().map(|(_, v)| v).sum::<f64>()
        }
    };
    let config = AuditConfig {
        delta: DELTA,
        ..AuditConfig::default()
    };
    let eps_hat = audit_mechanism(400, 0xA0D17, &config, stat(merged_a), stat(merged_b));
    assert!(
        eps_hat <= EPS * 1.35,
        "audited ε̂ = {eps_hat} exceeds the claimed ε = {EPS}"
    );
}

/// End-to-end: the guarded, metered release of the engine's merged summary
/// on both neighbouring datasets recovers the heavy hitters within the
/// combined sketch + noise bound, seed after seed.
#[test]
fn pipeline_release_end_to_end_on_neighbours() {
    let k = 64usize;
    let (stream, neighbour) = neighbouring_pair();
    let gshm = GshmParams::calibrate(EPS, DELTA, k).unwrap();
    let sketch_slack = (stream.len() as u64 / (k as u64 + 1)) as f64;
    let mechanism = GshmMechanism::new(params()).unwrap();
    for data in [&stream, &neighbour] {
        for seed in 0..8u64 {
            let mut pipe = ShardedPipeline::new(PipelineConfig::new(4, k)).unwrap();
            pipe.ingest_from(data.iter().copied()).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut accountant = Accountant::new(params());
            let merged = pipe.merged().unwrap();
            let hist =
                release_merged_metered(&mechanism, &merged, &mut accountant, &mut rng).unwrap();
            assert_eq!(accountant.charges(), 1);
            for key in 1..=4u64 {
                let est = hist.estimate(&key);
                let truth = 2_500.0;
                assert!(
                    (est - truth).abs() <= sketch_slack + 6.5 * gshm.sigma + gshm.tau + 1.0,
                    "seed {seed}, key {key}: {est} vs {truth}"
                );
            }
        }
    }
}
