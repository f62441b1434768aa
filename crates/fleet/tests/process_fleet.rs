//! Real multi-process fleet runs: spawn the `aggregator` binary in worker
//! mode as actual child processes over pipes, and check that the
//! orchestrator's merged result is bit-identical to the single-process
//! sharded reference, that injected crashes are retried and recovered, and
//! that exhausted retries surface as coverage gaps. The same binary is also
//! run in its aggregator role, through its documented `key=value` flags.

use dpmg_fleet::{
    run_process_fleet, CrashPoint, FleetConfig, FleetError, WorkerOutcome, WorkerSpec, WORKER_ENV,
};
use dpmg_pipeline::sequential_sharded_reference;
use std::process::Command;
use std::time::Duration;

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_aggregator");

fn base_spec(workers: usize, shards_per_worker: usize) -> WorkerSpec {
    WorkerSpec {
        worker_id: 0,
        workers,
        shards_per_worker,
        k: 16,
        crash: None,
        stream_n: 30_000,
        universe: 1 << 12,
        skew: 1.1,
        seed: 31,
    }
}

fn config(workers: usize, shards_per_worker: usize, retries: usize) -> FleetConfig {
    FleetConfig {
        workers,
        shards_per_worker,
        k: 16,
        deadline: Duration::from_secs(60),
        retries,
        coverage_floor: 0.5,
    }
}

fn command_for(spec: &WorkerSpec) -> Command {
    let mut cmd = Command::new(WORKER_BIN);
    cmd.env(WORKER_ENV, spec.to_env_string());
    cmd
}

#[test]
fn process_fleet_reproduces_the_sequential_reference() {
    let config = config(3, 2, 0);
    let template = base_spec(3, 2);
    let stream = template.generate_stream();
    let (_, merged_ref) = sequential_sharded_reference(&stream, config.total_shards(), config.k);

    let spec_for = |worker_id: usize, _attempt: usize| WorkerSpec {
        worker_id,
        ..template.clone()
    };
    let report = run_process_fleet(&config, &spec_for, &command_for).unwrap();
    assert_eq!(report.covered_shards, 6);
    assert_eq!(report.coverage(), 1.0);
    assert_eq!(report.completed_workers(), 3);
    assert_eq!(report.items as usize, stream.len());
    assert_eq!(
        report.merged, merged_ref,
        "process fleet diverged from reference"
    );
}

#[test]
fn crashed_worker_is_retried_and_recovers_full_coverage() {
    let config = config(2, 2, 1);
    let template = base_spec(2, 2);
    let stream = template.generate_stream();
    let (_, merged_ref) = sequential_sharded_reference(&stream, config.total_shards(), config.k);

    // Worker 1 tears its stream mid-frame on the first attempt only.
    let spec_for = |worker_id: usize, attempt: usize| WorkerSpec {
        worker_id,
        crash: (worker_id == 1 && attempt == 1).then_some(CrashPoint::MidFrame),
        ..template.clone()
    };
    let report = run_process_fleet(&config, &spec_for, &command_for).unwrap();
    assert_eq!(report.coverage(), 1.0, "retry did not recover coverage");
    assert_eq!(report.merged, merged_ref);
    match &report.outcomes[1] {
        WorkerOutcome::Completed { attempts, .. } => assert_eq!(*attempts, 2),
        other => panic!("worker 1 should have completed on retry, got {other:?}"),
    }
}

#[test]
fn exhausted_retries_surface_as_a_coverage_gap() {
    let config = config(2, 1, 1);
    let template = base_spec(2, 1);
    let stream = template.generate_stream();
    let (per_shard, _) = sequential_sharded_reference(&stream, config.total_shards(), config.k);

    // Worker 0 dies before HELLO on every attempt.
    let spec_for = |worker_id: usize, _attempt: usize| WorkerSpec {
        worker_id,
        crash: (worker_id == 0).then_some(CrashPoint::BeforeHello),
        ..template.clone()
    };
    let report = run_process_fleet(&config, &spec_for, &command_for).unwrap();
    assert_eq!(report.covered_shards, 1);
    match &report.outcomes[0] {
        WorkerOutcome::Failed { attempts, .. } => assert_eq!(*attempts, 2),
        other => panic!("worker 0 should have failed twice, got {other:?}"),
    }
    // The surviving shard is still bit-exact (modulo merge_tree's canonical
    // zero-entry stripping, which both sides share).
    assert_eq!(
        report.merged,
        dpmg_sketch::merge::merge_tree(&per_shard[1..2]).unwrap()
    );
}

#[test]
fn a_workload_the_worker_cannot_generate_is_refused_before_spawning() {
    let config = config(2, 1, 0);
    let spec_for = |worker_id: usize, _attempt: usize| WorkerSpec {
        worker_id,
        universe: 0,
        ..base_spec(2, 1)
    };
    let never_spawn = |_: &WorkerSpec| -> Command { panic!("no worker may be spawned") };
    let err = run_process_fleet(&config, &spec_for, &never_spawn).unwrap_err();
    assert!(matches!(err, FleetError::Spec(_)), "got: {err}");
}

/// Runs the binary in its aggregator role with `args` and returns
/// `(exit success, stdout, stderr)`.
fn run_aggregator(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(WORKER_BIN)
        .env_remove(WORKER_ENV)
        .args(args)
        .output()
        .unwrap();
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn aggregator_binary_absorbs_an_injected_crash_on_retry() {
    let (ok, stdout, stderr) = run_aggregator(&[
        "workers=2",
        "shards_per_worker=2",
        "stream_n=50000",
        "crash=1:mid-frame",
        "retries=1",
    ]);
    assert!(ok, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("coverage: 4/4"), "stdout:\n{stdout}");
}

#[test]
fn aggregator_binary_refuses_a_crash_for_a_worker_it_does_not_run() {
    let (ok, stdout, stderr) =
        run_aggregator(&["workers=2", "stream_n=50000", "crash=5:mid-frame"]);
    assert!(!ok, "stdout:\n{stdout}");
    assert!(stderr.contains("crash worker 5"), "stderr:\n{stderr}");
}

#[test]
fn aggregator_binary_refuses_the_removed_mode_flag() {
    let (ok, stdout, stderr) = run_aggregator(&["stream_n=50000", "mode=direct"]);
    assert!(!ok, "stdout:\n{stdout}");
    assert!(stderr.contains("unknown argument"), "stderr:\n{stderr}");
}
