//! The fleet entry point: one binary, two roles.
//!
//! * **Worker mode** — when [`WORKER_ENV`] is set the process parses its
//!   [`WorkerSpec`], regenerates the stream, partitions it into its owned
//!   shards in one pass, sketches each with Algorithm 1, and speaks the
//!   framed report protocol over stdin/stdout. Spawned by the aggregator;
//!   not meant to be invoked by hand.
//! * **Aggregator mode** (default) — spawns `workers` copies of itself as
//!   worker processes, drives the HELLO → GO → report protocol, tree-merges
//!   whatever survived, and performs the single trusted `(ε, δ)` release.
//!
//! ```sh
//! cargo run --release -p dpmg-fleet --bin aggregator -- \
//!     workers=4 shards_per_worker=2 k=256 stream_n=1000000 epsilon=0.9
//! ```
//!
//! All settings are `key=value` arguments with sensible defaults: `workers`,
//! `shards_per_worker`, `k`, `stream_n`, `universe`, `skew`, `seed`,
//! `deadline_secs`, `retries`, `coverage_floor`, `epsilon`, `delta`,
//! `mechanism` and `crash`. Pass `crash=<worker>:<point>` (e.g.
//! `crash=1:mid-frame`; points `before-hello`, `mid-frame`,
//! `after-summaries:N`) to watch straggler handling and coverage accounting
//! absorb an injected failure; `<worker>` must be below `workers`.

use dpmg_core::mechanism::{by_name, MechanismSpec};
use dpmg_fleet::{
    release_fleet, run_process_fleet, run_worker_from_env, CrashPoint, FleetConfig, FleetError,
    WorkerOutcome, WorkerSpec, WORKER_ENV,
};
use dpmg_noise::accounting::{Accountant, PrivacyParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::Command;
use std::time::Duration;

fn main() {
    // Worker role: the aggregator launched us with a spec in the environment.
    if let Some(result) = run_worker_from_env() {
        match result {
            Ok(_) => return,
            Err(e) => {
                eprintln!("worker failed: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Err(e) = run_aggregator() {
        eprintln!("fleet failed: {e}");
        std::process::exit(1);
    }
}

struct Args {
    workers: usize,
    shards_per_worker: usize,
    k: usize,
    stream_n: usize,
    universe: u64,
    skew: f64,
    seed: u64,
    deadline_secs: u64,
    retries: usize,
    coverage_floor: f64,
    epsilon: f64,
    delta: f64,
    mechanism: String,
    crash: Option<(usize, CrashPoint)>,
}

fn parse_args() -> Result<Args, FleetError> {
    let mut args = Args {
        workers: 4,
        shards_per_worker: 2,
        k: 256,
        stream_n: 1_000_000,
        universe: 1 << 20,
        skew: 1.05,
        seed: 42,
        deadline_secs: 60,
        retries: 1,
        coverage_floor: 0.5,
        epsilon: 0.9,
        delta: 1e-8,
        mechanism: "gshm".to_string(),
        crash: None,
    };
    fn parse<T: std::str::FromStr>(value: &str, key: &str) -> Result<T, FleetError> {
        value
            .parse::<T>()
            .map_err(|_| FleetError::Spec(format!("bad value for {key}: {value}")))
    }
    for arg in std::env::args().skip(1) {
        let (key, value) = arg
            .split_once('=')
            .ok_or_else(|| FleetError::Spec(format!("expected key=value, got: {arg}")))?;
        match key {
            "workers" => args.workers = parse(value, key)?,
            "shards_per_worker" => args.shards_per_worker = parse(value, key)?,
            "k" => args.k = parse(value, key)?,
            "stream_n" => args.stream_n = parse(value, key)?,
            "universe" => args.universe = parse(value, key)?,
            "skew" => args.skew = parse(value, key)?,
            "seed" => args.seed = parse(value, key)?,
            "deadline_secs" => args.deadline_secs = parse(value, key)?,
            "retries" => args.retries = parse(value, key)?,
            "coverage_floor" => args.coverage_floor = parse(value, key)?,
            "epsilon" => args.epsilon = parse(value, key)?,
            "delta" => args.delta = parse(value, key)?,
            "mechanism" => args.mechanism = value.to_string(),
            "crash" => {
                let (worker, point) = value.split_once(':').ok_or_else(|| {
                    FleetError::Spec(format!("crash wants worker:point, got {value}"))
                })?;
                args.crash = Some((parse(worker, "crash worker")?, point.parse::<CrashPoint>()?));
            }
            other => return Err(FleetError::Spec(format!("unknown argument: {other}"))),
        }
    }
    if let Some((worker, _)) = args.crash {
        if worker >= args.workers {
            return Err(FleetError::Spec(format!(
                "crash worker {worker} out of range for {} workers",
                args.workers
            )));
        }
    }
    Ok(args)
}

fn run_aggregator() -> Result<(), FleetError> {
    let args = parse_args()?;
    let config = FleetConfig {
        workers: args.workers,
        shards_per_worker: args.shards_per_worker,
        k: args.k,
        deadline: Duration::from_secs(args.deadline_secs),
        retries: args.retries,
        coverage_floor: args.coverage_floor,
    };
    config.validate()?;

    // Injected crashes fire on the first attempt only, so `retries=1`
    // demonstrates the respawn path recovering full coverage.
    let spec_for = |worker_id: usize, attempt: usize| WorkerSpec {
        worker_id,
        workers: args.workers,
        shards_per_worker: args.shards_per_worker,
        k: args.k,
        crash: args
            .crash
            .and_then(|(w, p)| (w == worker_id && attempt == 1).then_some(p)),
        stream_n: args.stream_n,
        universe: args.universe,
        skew: args.skew,
        seed: args.seed,
    };
    let exe = std::env::current_exe()?;
    let command_for = move |spec: &WorkerSpec| {
        let mut cmd = Command::new(&exe);
        cmd.env(WORKER_ENV, spec.to_env_string());
        cmd
    };

    println!(
        "fleet: {} workers × {} shards = {} global shards, k={}, {} items",
        args.workers,
        args.shards_per_worker,
        config.total_shards(),
        args.k,
        args.stream_n
    );
    let report = run_process_fleet(&config, &spec_for, &command_for)?;

    for (w, outcome) in report.outcomes.iter().enumerate() {
        match outcome {
            WorkerOutcome::Completed {
                attempts,
                items,
                elapsed_ns,
            } => {
                let rate = if *elapsed_ns > 0 {
                    *items as f64 / (*elapsed_ns as f64 / 1e9)
                } else {
                    0.0
                };
                println!(
                    "  worker {w}: ok ({items} items, {:.2} Mitems/s, attempt {attempts})",
                    rate / 1e6
                );
            }
            WorkerOutcome::Failed { attempts, error } => {
                println!("  worker {w}: FAILED after {attempts} attempts — {error}");
            }
        }
    }
    println!(
        "coverage: {}/{} shards ({:.1}%), wall {:.2?}",
        report.covered_shards,
        report.total_shards,
        100.0 * report.coverage(),
        report.wall
    );

    let params = PrivacyParams::new(args.epsilon, args.delta)
        .map_err(|e| FleetError::Spec(format!("bad privacy params: {e}")))?;
    let spec = MechanismSpec::new(params);
    let mechanism = by_name(&spec, &args.mechanism)
        .map_err(|e| FleetError::Spec(format!("mechanism spec: {e}")))?
        .ok_or_else(|| FleetError::Spec(format!("unknown mechanism: {}", args.mechanism)))?;
    let mut accountant = Accountant::new(params);
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x9e37_79b9);
    let release = release_fleet(
        &report,
        config.coverage_floor,
        mechanism.as_ref(),
        &mut accountant,
        &mut rng,
    )?;

    let top = release.histogram.by_estimate_desc();
    println!(
        "release via {} ({:.2}, {:.0e}): {} counters, top 5:",
        args.mechanism,
        args.epsilon,
        args.delta,
        release.histogram.len()
    );
    for (key, est) in top.iter().take(5) {
        println!("  {key:>12} ≈ {est:.0}");
    }
    Ok(())
}
