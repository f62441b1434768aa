//! Multi-process fleet aggregation (Section 7 at rack scale) — worker
//! *processes* sketch disjoint shard blocks of one stream, report checksummed
//! framed summaries over pipes, and the aggregator performs the single
//! trusted `(ε, δ)` release, absorbing an injected worker crash along the
//! way.
//!
//! The example re-executes itself as the worker processes: when
//! [`WORKER_ENV`] is set, the process runs the framed worker protocol over
//! stdin/stdout instead of the demo.
//!
//! ```sh
//! cargo run --release --example fleet_aggregation
//! ```

use dp_misra_gries::core::mechanism::by_name;
use dp_misra_gries::fleet::{
    release_fleet, run_process_fleet, run_worker_from_env, CrashPoint, FleetConfig, WorkerOutcome,
    WorkerSpec, WORKER_ENV,
};
use dp_misra_gries::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::Command;
use std::time::Duration;

const WORKERS: usize = 4;
const SHARDS_PER_WORKER: usize = 2;
const K: usize = 128;
const STREAM_N: usize = 400_000;

fn main() {
    // Worker role: spawned by the aggregator below.
    if let Some(result) = run_worker_from_env() {
        result.expect("worker run");
        return;
    }

    let config = FleetConfig {
        workers: WORKERS,
        shards_per_worker: SHARDS_PER_WORKER,
        k: K,
        deadline: Duration::from_secs(60),
        retries: 0,
        coverage_floor: 0.5,
    };
    // Worker 2 is rigged to die halfway through its first summary frame —
    // the aggregator must see a torn frame, not merge a partial report.
    let spec_for = |worker_id: usize, _attempt: usize| WorkerSpec {
        worker_id,
        workers: WORKERS,
        shards_per_worker: SHARDS_PER_WORKER,
        k: K,
        crash: (worker_id == 2).then_some(CrashPoint::MidFrame),
        stream_n: STREAM_N,
        universe: 1 << 18,
        skew: 1.2,
        seed: 7,
    };
    let exe = std::env::current_exe().expect("current exe");
    let command_for = move |spec: &WorkerSpec| {
        let mut cmd = Command::new(&exe);
        cmd.env(WORKER_ENV, spec.to_env_string());
        cmd
    };

    println!(
        "spawning {WORKERS} worker processes × {SHARDS_PER_WORKER} shards \
         ({} global shards, k={K}) over {STREAM_N} items…",
        config.total_shards()
    );
    let report = run_process_fleet(&config, &spec_for, &command_for).expect("fleet run");

    for (w, outcome) in report.outcomes.iter().enumerate() {
        match outcome {
            WorkerOutcome::Completed { items, .. } => {
                println!("  worker {w}: ok ({items} items)");
            }
            WorkerOutcome::Failed { error, .. } => println!("  worker {w}: crashed — {error}"),
        }
    }
    println!(
        "coverage: {}/{} shards ({:.0}%)",
        report.covered_shards,
        report.total_shards,
        100.0 * report.coverage()
    );
    assert_eq!(report.covered_shards, 6, "exactly worker 2's block missing");

    // One trusted release over whatever survived — same guarded path as the
    // single-process pipeline (MergedOneSided mechanisms only).
    let params = PrivacyParams::new(0.9, 1e-8).unwrap();
    let mechanism = by_name(&MechanismSpec::new(params), "gshm")
        .unwrap()
        .expect("gshm in registry");
    let mut accountant = Accountant::new(params);
    let mut rng = StdRng::seed_from_u64(99);
    let release = release_fleet(
        &report,
        config.coverage_floor,
        mechanism.as_ref(),
        &mut accountant,
        &mut rng,
    )
    .expect("release above the coverage floor");

    let top = release.histogram.by_estimate_desc();
    println!(
        "trusted gshm release: {} counters ({} of {} shards contributed)",
        release.histogram.len(),
        release.covered_shards,
        release.total_shards
    );
    for (key, est) in top.iter().take(5) {
        println!("  {key:>8} ≈ {est:.0}");
    }
    println!("\nfleet_aggregation OK");
}
