//! The trusted aggregator: collect framed worker reports, merge what
//! arrived, account for what did not, and perform the single DP release.
//!
//! The aggregator is the *only* trusted component in the fleet. Workers see
//! raw data but release nothing; the aggregator sees only per-shard
//! Misra–Gries summaries (whose merge has the Corollary 18 sensitivity) and
//! performs exactly one `(ε, δ)` release per run through
//! [`release_merged_metered`] — the same guarded path every release of a
//! single-process [`ShardedPipeline`](dpmg_pipeline::ShardedPipeline)'s
//! merged summary goes through.
//!
//! # Straggler and crash handling
//!
//! Every worker gets a deadline for each protocol phase (check-in and
//! report). A worker that blows a deadline is killed and respawned up to
//! `retries` times; a worker whose stream tears mid-report is treated the
//! same way. When attempts are exhausted the run proceeds with the shards
//! that *did* arrive: [`assemble`] merges the surviving summaries in global
//! shard order and reports the coverage gap. [`release_fleet`] then refuses
//! to release below the configured coverage floor — before drawing noise, so
//! a refusal never charges the accountant.

use crate::protocol::{read_hello, read_report, write_go, Hello, WorkerReport};
use crate::worker::WorkerSpec;
use crate::FleetError;
use dpmg_core::mechanism::{release_merged_metered, ReleaseMechanism};
use dpmg_core::PrivateHistogram;
use dpmg_noise::accounting::Accountant;
use dpmg_sketch::merge::merge_tree;
use dpmg_sketch::Summary;
use rand::RngCore;
use std::io::BufReader;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Fleet-wide configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of worker processes `W ≥ 1`.
    pub workers: usize,
    /// Consecutive global shards per worker `s ≥ 1`; total shards
    /// `S = W × s`.
    pub shards_per_worker: usize,
    /// Misra–Gries size `k` for every shard sketch.
    pub k: usize,
    /// Per-phase deadline (HELLO check-in, and GO → report completion).
    pub deadline: Duration,
    /// Respawn attempts per worker after the first failure.
    pub retries: usize,
    /// Minimum fraction of global shards that must be covered for
    /// [`release_fleet`] to proceed, in `[0, 1]`.
    pub coverage_floor: f64,
}

impl FleetConfig {
    /// Structural validation.
    ///
    /// # Errors
    ///
    /// [`FleetError::Spec`] on zero counts or a floor outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.workers == 0 || self.shards_per_worker == 0 || self.k == 0 {
            return Err(FleetError::Spec(
                "workers, shards_per_worker and k must be nonzero".to_string(),
            ));
        }
        if !(0.0..=1.0).contains(&self.coverage_floor) {
            return Err(FleetError::Spec(format!(
                "coverage_floor must be in [0, 1], got {}",
                self.coverage_floor
            )));
        }
        if self.workers.checked_mul(self.shards_per_worker).is_none() {
            return Err(FleetError::Spec("shard space overflows usize".to_string()));
        }
        Ok(())
    }

    /// Total global shards `S = workers × shards_per_worker`.
    pub fn total_shards(&self) -> usize {
        self.workers * self.shards_per_worker
    }

    /// The HELLO worker `w` is expected to announce.
    pub fn expected_hello(&self, worker_id: usize) -> Hello {
        Hello {
            worker_id: worker_id as u64,
            workers: self.workers as u64,
            total_shards: self.total_shards() as u64,
            first_shard: (worker_id * self.shards_per_worker) as u64,
            shard_count: self.shards_per_worker as u64,
            k: self.k as u64,
        }
    }
}

/// Per-worker outcome after all attempts resolved.
#[derive(Debug, Clone)]
pub enum WorkerOutcome {
    /// The worker delivered a complete, validated report.
    Completed {
        /// Attempts used (1 = first try).
        attempts: usize,
        /// Items the worker sketched.
        items: u64,
        /// Worker-measured sketching nanoseconds.
        elapsed_ns: u64,
    },
    /// All attempts failed; the worker's shard block is uncovered.
    Failed {
        /// Attempts used.
        attempts: usize,
        /// Human-readable description of the final failure.
        error: String,
    },
}

/// What a fleet run produced, before any privacy is spent.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Total global shards `S`.
    pub total_shards: usize,
    /// Sketch size `k` (the merge-tree's ℓ1-sensitivity, Corollary 18).
    pub k: usize,
    /// Global shards whose summary arrived intact.
    pub covered_shards: usize,
    /// Merge-tree over the surviving summaries in global shard order.
    pub merged: Summary<u64>,
    /// Items sketched across completed workers.
    pub items: u64,
    /// Per-worker outcomes, indexed by worker id.
    pub outcomes: Vec<WorkerOutcome>,
    /// Aggregator-measured wall clock, GO broadcast → last worker resolved.
    pub wall: Duration,
}

impl FleetReport {
    /// Fraction of global shards covered, in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        self.covered_shards as f64 / self.total_shards as f64
    }

    /// Number of workers that delivered a complete report.
    pub fn completed_workers(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, WorkerOutcome::Completed { .. }))
            .count()
    }
}

/// Merges per-worker results into a [`FleetReport`].
///
/// `results[w]` is worker `w`'s final result plus the attempts it took.
/// Completed reports are validated against the expected geometry; the
/// surviving summaries are merged with [`merge_tree`] **in global shard
/// order**, which makes the merged summary bit-identical to the
/// single-process `S`-shard pipeline over the same stream (restricted to
/// the covered shard subset).
///
/// # Errors
///
/// [`FleetError::Spec`] on config/result-shape mismatch or when a completed
/// report announces the wrong geometry (that is an aggregator bug or a
/// misconfigured worker, not a crash — it must not be silently absorbed).
pub fn assemble(
    config: &FleetConfig,
    results: Vec<(Result<WorkerReport, FleetError>, usize)>,
    wall: Duration,
) -> Result<FleetReport, FleetError> {
    config.validate()?;
    if results.len() != config.workers {
        return Err(FleetError::Spec(format!(
            "expected {} worker results, got {}",
            config.workers,
            results.len()
        )));
    }
    let total = config.total_shards();
    let mut slots: Vec<Option<Summary<u64>>> = vec![None; total];
    let mut outcomes = Vec::with_capacity(config.workers);
    let mut items = 0u64;

    for (worker_id, (result, attempts)) in results.into_iter().enumerate() {
        match result {
            Ok(report) => {
                if report.hello != config.expected_hello(worker_id) {
                    return Err(FleetError::Spec(format!(
                        "worker {worker_id} announced geometry {:?}, expected {:?}",
                        report.hello,
                        config.expected_hello(worker_id)
                    )));
                }
                let first = worker_id * config.shards_per_worker;
                for (i, summary) in report.summaries.into_iter().enumerate() {
                    slots[first + i] = Some(summary);
                }
                items += report.items;
                outcomes.push(WorkerOutcome::Completed {
                    attempts,
                    items: report.items,
                    elapsed_ns: report.elapsed_ns,
                });
            }
            Err(e) => outcomes.push(WorkerOutcome::Failed {
                attempts,
                error: e.to_string(),
            }),
        }
    }

    let covered: Vec<Summary<u64>> = slots.into_iter().flatten().collect();
    let covered_shards = covered.len();
    let merged = merge_tree(&covered).unwrap_or_else(|| Summary::empty(config.k));
    Ok(FleetReport {
        total_shards: total,
        k: config.k,
        covered_shards,
        merged,
        items,
        outcomes,
        wall,
    })
}

/// The single trusted release plus its provenance.
#[derive(Debug, Clone)]
pub struct FleetRelease {
    /// The `(ε, δ)` private histogram.
    pub histogram: PrivateHistogram<u64>,
    /// Shards that contributed.
    pub covered_shards: usize,
    /// Total shards.
    pub total_shards: usize,
}

/// Performs the fleet's one trusted release.
///
/// Refuses — **before** drawing noise or charging the accountant — when
/// coverage is below `floor`. The release itself goes through
/// [`release_merged_metered`], so mechanisms whose noise is not calibrated
/// for merged summaries are refused exactly as in the single-process path.
///
/// # Errors
///
/// [`FleetError::CoverageBelowFloor`] on a coverage refusal,
/// [`FleetError::Release`] when the mechanism refuses or the budget is
/// exhausted.
pub fn release_fleet(
    report: &FleetReport,
    floor: f64,
    mechanism: &dyn ReleaseMechanism<u64>,
    accountant: &mut Accountant,
    rng: &mut dyn RngCore,
) -> Result<FleetRelease, FleetError> {
    if report.coverage() < floor {
        return Err(FleetError::CoverageBelowFloor {
            covered: report.covered_shards,
            total: report.total_shards,
            floor,
        });
    }
    let histogram = release_merged_metered(mechanism, &report.merged, accountant, rng)?;
    Ok(FleetRelease {
        histogram,
        covered_shards: report.covered_shards,
        total_shards: report.total_shards,
    })
}

enum Event {
    Hello {
        worker: usize,
        attempt: usize,
        result: Result<Hello, FleetError>,
    },
    Report {
        worker: usize,
        attempt: usize,
        result: Result<WorkerReport, FleetError>,
    },
}

struct Attempt {
    child: Child,
    stdin: std::process::ChildStdin,
    attempt: usize,
}

fn spawn_attempt(
    command_for: &dyn Fn(&WorkerSpec) -> Command,
    spec: &WorkerSpec,
    worker: usize,
    attempt: usize,
    expected: Hello,
    tx: &mpsc::Sender<Event>,
) -> Result<Attempt, FleetError> {
    let mut cmd = command_for(spec);
    cmd.stdin(Stdio::piped()).stdout(Stdio::piped());
    let mut child = cmd.spawn()?;
    let stdin = child
        .stdin
        .take()
        .ok_or(FleetError::Protocol("child stdin not piped"))?;
    let stdout = child
        .stdout
        .take()
        .ok_or(FleetError::Protocol("child stdout not piped"))?;
    let tx = tx.clone();
    std::thread::spawn(move || {
        let mut r = BufReader::new(stdout);
        let hello = read_hello(&mut r).and_then(|h| {
            if h == expected {
                Ok(h)
            } else {
                Err(FleetError::Protocol("worker announced wrong geometry"))
            }
        });
        match hello {
            Ok(h) => {
                let _ = tx.send(Event::Hello {
                    worker,
                    attempt,
                    result: Ok(h),
                });
                let result = read_report(&mut r, h);
                let _ = tx.send(Event::Report {
                    worker,
                    attempt,
                    result,
                });
            }
            Err(e) => {
                let _ = tx.send(Event::Hello {
                    worker,
                    attempt,
                    result: Err(e),
                });
            }
        }
    });
    Ok(Attempt {
        child,
        stdin,
        attempt,
    })
}

fn reap(attempt: &mut Attempt) {
    let _ = attempt.child.kill();
    let _ = attempt.child.wait();
}

/// Runs a whole fleet as child processes and collects the report.
///
/// `spec_for(w, attempt)` supplies worker `w`'s spec for the given 1-based
/// attempt (geometry fields must agree with `config`; chaos tests use the
/// attempt number to inject a crash on the first try and recover on retry);
/// `command_for(spec)` builds the command that launches it — typically the
/// current executable with [`WORKER_ENV`](crate::WORKER_ENV) set to
/// `spec.to_env_string()`. Stdin/stdout are piped by this function.
///
/// Orchestration: spawn all workers; wait (bounded by `config.deadline`)
/// for every HELLO; broadcast GO so all workers start sketching together;
/// wait (bounded by `config.deadline`) for reports. A worker that misses a
/// deadline or tears its stream is killed and respawned up to
/// `config.retries` times — retried workers get an immediate GO since the
/// fleet-wide barrier has passed. The returned report's `wall` spans the GO
/// broadcast to the last resolved worker.
///
/// # Errors
///
/// [`FleetError::Spec`] on invalid config, an invalid first-attempt spec
/// ([`WorkerSpec::validate`]) or a spec/config geometry mismatch, all
/// before any process is spawned; spawn failures surface as
/// [`FleetError::Io`]. Individual worker failures do **not** fail the run —
/// they surface as [`WorkerOutcome::Failed`] and missing coverage.
pub fn run_process_fleet(
    config: &FleetConfig,
    spec_for: &dyn Fn(usize, usize) -> WorkerSpec,
    command_for: &dyn Fn(&WorkerSpec) -> Command,
) -> Result<FleetReport, FleetError> {
    config.validate()?;
    let w = config.workers;
    for worker in 0..w {
        let spec = spec_for(worker, 1);
        spec.validate()?;
        if spec.hello() != config.expected_hello(worker) {
            return Err(FleetError::Spec(format!(
                "spec_for({worker}) geometry disagrees with the fleet config"
            )));
        }
    }

    let (tx, rx) = mpsc::channel::<Event>();
    let mut attempts: Vec<Option<Attempt>> = Vec::with_capacity(w);
    let mut helloed = vec![false; w];
    let mut results: Vec<Option<(Result<WorkerReport, FleetError>, usize)>> =
        (0..w).map(|_| None).collect();

    for (worker, slot) in results.iter_mut().enumerate() {
        let spec = spec_for(worker, 1);
        match spawn_attempt(
            command_for,
            &spec,
            worker,
            1,
            config.expected_hello(worker),
            &tx,
        ) {
            Ok(a) => attempts.push(Some(a)),
            Err(e) => {
                *slot = Some((Err(e), 1));
                attempts.push(None);
            }
        }
    }

    // Phase 1: the check-in barrier.
    let hello_deadline = Instant::now() + config.deadline;
    while helloed.iter().zip(&results).any(|(h, r)| !h && r.is_none()) {
        let Some(remaining) = hello_deadline.checked_duration_since(Instant::now()) else {
            break;
        };
        match rx.recv_timeout(remaining) {
            Ok(Event::Hello {
                worker,
                attempt,
                result,
            }) if attempts[worker]
                .as_ref()
                .is_some_and(|a| a.attempt == attempt) =>
            {
                match result {
                    Ok(_) => helloed[worker] = true,
                    Err(e) => {
                        if let Some(mut a) = attempts[worker].take() {
                            reap(&mut a);
                        }
                        results[worker] = Some((Err(e), attempt));
                    }
                }
            }
            Ok(_) => {} // stale event from a killed attempt
            Err(mpsc::RecvTimeoutError::Timeout) => break,
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    // Stragglers that never checked in: kill; they will be retried below.
    for worker in 0..w {
        if !helloed[worker] && results[worker].is_none() {
            if let Some(mut a) = attempts[worker].take() {
                reap(&mut a);
            }
            results[worker] = Some((Err(FleetError::Protocol("missed check-in deadline")), 1));
        }
    }

    // Phase 2: GO broadcast — the fleet starts sketching together.
    let wall_start = Instant::now();
    for worker in 0..w {
        if helloed[worker] {
            if let Some(a) = attempts[worker].as_mut() {
                if write_go(&mut a.stdin).is_err() {
                    // Worker died at the barrier; its collector will report.
                }
            }
        }
    }

    // Phase 3: collect reports.
    let report_deadline = Instant::now() + config.deadline;
    while (0..w).any(|i| helloed[i] && results[i].is_none()) {
        let Some(remaining) = report_deadline.checked_duration_since(Instant::now()) else {
            break;
        };
        match rx.recv_timeout(remaining) {
            Ok(Event::Report {
                worker,
                attempt,
                result,
            }) if attempts[worker]
                .as_ref()
                .is_some_and(|a| a.attempt == attempt) =>
            {
                if let Some(mut a) = attempts[worker].take() {
                    let _ = a.child.wait();
                    drop(a.stdin);
                }
                results[worker] = Some((result, attempt));
            }
            Ok(_) => {}
            Err(mpsc::RecvTimeoutError::Timeout) => break,
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    for worker in 0..w {
        if helloed[worker] && results[worker].is_none() {
            if let Some(mut a) = attempts[worker].take() {
                reap(&mut a);
            }
            results[worker] = Some((Err(FleetError::Protocol("missed report deadline")), 1));
        }
    }

    // Phase 4: retries — sequential per worker, immediate GO (the fleet
    // barrier has passed; a retried straggler no longer needs to line up).
    for (worker, slot) in results.iter_mut().enumerate() {
        let mut attempt_no = match &*slot {
            Some((Err(_), n)) => *n,
            _ => continue,
        };
        while attempt_no <= config.retries {
            attempt_no += 1;
            let spec = spec_for(worker, attempt_no);
            let mut a = match spawn_attempt(
                command_for,
                &spec,
                worker,
                attempt_no,
                config.expected_hello(worker),
                &tx,
            ) {
                Ok(a) => a,
                Err(e) => {
                    *slot = Some((Err(e), attempt_no));
                    continue;
                }
            };
            let deadline = Instant::now() + config.deadline;
            let mut outcome: Option<Result<WorkerReport, FleetError>> = None;
            let mut go_sent = false;
            while let Some(remaining) = deadline.checked_duration_since(Instant::now()) {
                match rx.recv_timeout(remaining) {
                    Ok(Event::Hello {
                        worker: ew,
                        attempt: ea,
                        result,
                    }) if ew == worker && ea == attempt_no => match result {
                        Ok(_) => {
                            if write_go(&mut a.stdin).is_err() {
                                // dead at the barrier; collector reports
                            }
                            go_sent = true;
                        }
                        Err(e) => {
                            outcome = Some(Err(e));
                            break;
                        }
                    },
                    Ok(Event::Report {
                        worker: ew,
                        attempt: ea,
                        result,
                    }) if ew == worker && ea == attempt_no => {
                        outcome = Some(result);
                        break;
                    }
                    Ok(_) => {}
                    Err(mpsc::RecvTimeoutError::Timeout) => break,
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
            let _ = go_sent;
            match outcome {
                Some(Ok(report)) => {
                    let _ = a.child.wait();
                    *slot = Some((Ok(report), attempt_no));
                    break;
                }
                Some(Err(e)) => {
                    reap(&mut a);
                    *slot = Some((Err(e), attempt_no));
                }
                None => {
                    reap(&mut a);
                    *slot = Some((
                        Err(FleetError::Protocol("missed retry deadline")),
                        attempt_no,
                    ));
                }
            }
        }
    }

    let wall = wall_start.elapsed();
    let results: Vec<(Result<WorkerReport, FleetError>, usize)> = results
        .into_iter()
        .map(|r| r.expect("every worker resolved"))
        .collect();
    assemble(config, results, wall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{run_worker, CrashPoint};
    use dpmg_core::mechanism::{registry, MechanismSpec};
    use dpmg_noise::PrivacyParams;
    use dpmg_pipeline::sequential_sharded_reference;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_config(workers: usize, shards_per_worker: usize) -> FleetConfig {
        FleetConfig {
            workers,
            shards_per_worker,
            k: 16,
            deadline: Duration::from_secs(10),
            retries: 1,
            coverage_floor: 0.5,
        }
    }

    fn spec(config: &FleetConfig, worker_id: usize, crash: Option<CrashPoint>) -> WorkerSpec {
        WorkerSpec {
            worker_id,
            workers: config.workers,
            shards_per_worker: config.shards_per_worker,
            k: config.k,
            crash,
            stream_n: 4_000,
            universe: 1 << 12,
            skew: 1.1,
            seed: 7,
        }
    }

    /// Runs workers in-memory (no processes) and returns their raw results
    /// the way collectors would deliver them.
    fn run_in_memory(
        config: &FleetConfig,
        crashes: &[Option<CrashPoint>],
    ) -> Vec<(Result<WorkerReport, FleetError>, usize)> {
        let stream = spec(config, 0, None).generate_stream();
        (0..config.workers)
            .map(|w| {
                let s = spec(config, w, crashes[w]);
                let mut wire = Vec::new();
                let mut go: &[u8] = &[crate::protocol::GO_BYTE];
                run_worker(&s, &stream, &mut go, &mut wire).unwrap();
                let mut r = wire.as_slice();
                let result = read_hello(&mut r).and_then(|h| read_report(&mut r, h));
                (result, 1)
            })
            .collect()
    }

    #[test]
    fn assemble_full_coverage_matches_the_sequential_reference() {
        let config = test_config(3, 2);
        let stream = spec(&config, 0, None).generate_stream();
        let (_, merged_ref) =
            sequential_sharded_reference(&stream, config.total_shards(), config.k);

        let results = run_in_memory(&config, &[None, None, None]);
        let report = assemble(&config, results, Duration::from_millis(1)).unwrap();
        assert_eq!(report.covered_shards, 6);
        assert_eq!(report.coverage(), 1.0);
        assert_eq!(report.merged, merged_ref);
        assert_eq!(report.items as usize, stream.len());
        assert_eq!(report.completed_workers(), 3);
    }

    #[test]
    fn assemble_with_a_crashed_worker_merges_the_surviving_block() {
        let config = test_config(3, 2);
        let stream = spec(&config, 0, None).generate_stream();
        let (per_shard, _) = sequential_sharded_reference(&stream, config.total_shards(), config.k);

        // Worker 1 dies mid-frame: shards 2..4 uncovered.
        let results = run_in_memory(&config, &[None, Some(CrashPoint::MidFrame), None]);
        let report = assemble(&config, results, Duration::from_millis(1)).unwrap();
        assert_eq!(report.covered_shards, 4);
        assert!(matches!(report.outcomes[1], WorkerOutcome::Failed { .. }));

        let surviving: Vec<Summary<u64>> = per_shard[..2]
            .iter()
            .chain(&per_shard[4..])
            .cloned()
            .collect();
        assert_eq!(report.merged, merge_tree(&surviving).unwrap());
    }

    #[test]
    fn release_refuses_below_the_floor_without_charging() {
        let config = test_config(4, 1);
        // 3 of 4 workers crash before HELLO: coverage 25% < floor 50%.
        let results = run_in_memory(
            &config,
            &[
                None,
                Some(CrashPoint::BeforeHello),
                Some(CrashPoint::BeforeHello),
                Some(CrashPoint::BeforeHello),
            ],
        );
        let report = assemble(&config, results, Duration::from_millis(1)).unwrap();
        assert_eq!(report.covered_shards, 1);

        let params = PrivacyParams::new(0.9, 1e-8).unwrap();
        let mechanisms = registry(&MechanismSpec::new(params)).unwrap();
        let gshm = mechanisms
            .iter()
            .find(|m| m.name() == "gshm")
            .expect("gshm in registry");
        let mut accountant = Accountant::new(params);
        let err = release_fleet(
            &report,
            config.coverage_floor,
            gshm.as_ref(),
            &mut accountant,
            &mut StdRng::seed_from_u64(1),
        )
        .unwrap_err();
        assert!(matches!(err, FleetError::CoverageBelowFloor { .. }));
        assert_eq!(accountant.charges(), 0, "refusal must not charge");

        // At or above the floor the same report releases fine and charges once.
        let release = release_fleet(
            &report,
            0.25,
            gshm.as_ref(),
            &mut accountant,
            &mut StdRng::seed_from_u64(1),
        )
        .unwrap();
        assert_eq!(accountant.charges(), 1);
        assert_eq!(release.covered_shards, 1);
    }

    #[test]
    fn release_guards_the_sensitivity_model_like_the_pipeline_does() {
        let config = test_config(2, 2);
        let results = run_in_memory(&config, &[None, None]);
        let report = assemble(&config, results, Duration::from_millis(1)).unwrap();

        let params = PrivacyParams::new(0.9, 1e-8).unwrap();
        let mechanisms = registry(&MechanismSpec::new(params)).unwrap();
        let mut accountant = Accountant::new(PrivacyParams::new(100.0, 0.5).unwrap());
        for mech in &mechanisms {
            let result = release_fleet(
                &report,
                0.0,
                mech.as_ref(),
                &mut accountant,
                &mut StdRng::seed_from_u64(3),
            );
            let sound = matches!(mech.name(), "gshm" | "merged-laplace");
            assert_eq!(
                result.is_ok(),
                sound,
                "mechanism {} (sound for merged: {sound}) gave {result:?}",
                mech.name()
            );
        }
        // Exactly one charge per sound mechanism, none for refusals.
        assert_eq!(accountant.charges(), 2);
    }

    #[test]
    fn assemble_rejects_shape_and_geometry_mismatches() {
        let config = test_config(2, 1);
        let results = run_in_memory(&config, &[None, None]);
        // Wrong result count.
        let one = vec![results.into_iter().next().unwrap()];
        assert!(matches!(
            assemble(&config, one, Duration::ZERO),
            Err(FleetError::Spec(_))
        ));

        // Geometry mismatch: a worker from a different fleet shape.
        let other = test_config(2, 2);
        let foreign = run_in_memory(&other, &[None, None]);
        assert!(matches!(
            assemble(&config, foreign, Duration::ZERO),
            Err(FleetError::Spec(_))
        ));
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let mut c = test_config(2, 2);
        c.coverage_floor = 1.5;
        assert!(c.validate().is_err());
        let mut c = test_config(2, 2);
        c.workers = 0;
        assert!(c.validate().is_err());
    }
}
