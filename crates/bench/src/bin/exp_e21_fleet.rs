//! **E21 — the aggregation fleet:** worker *processes* sketch disjoint
//! shard blocks and report framed, checksummed summaries to one trusted
//! aggregator (crate `dpmg-fleet`), exported to `BENCH_fleet.json` — the
//! committed baseline the CI perf gate (`perf_gate`) defends.
//!
//! The binary re-executes itself as the worker processes: when
//! `DPMG_FLEET_WORKER` is set it runs the framed worker protocol over
//! stdin/stdout instead of the experiment.
//!
//! Two claims:
//!
//! 1. **Conformance** — across fleet shapes and injected crash patterns
//!    (clean run, torn mid-frame report, crash-then-retry, exhausted
//!    retries) the merged fleet summary is bit-identical to the
//!    single-process sharded reference over exactly the shards that
//!    survived, and lost blocks surface as coverage gaps, never as silently
//!    wrong merges (deterministic; golden-snapshotted).
//! 2. **Throughput** — at equal total shards, fanning the same stream out
//!    to worker processes sustains at least the in-process sharded
//!    pipeline's ingest rate: process isolation costs spawn time (untimed,
//!    before the GO barrier), not steady-state sketching throughput
//!    (machine-dependent; excluded from the golden snapshot, enforced
//!    relatively by the CI perf gate and absolutely via the same-machine
//!    `fleet_vs_sharded_speedup` ratio).

use dpmg_bench::{banner, f2, out_dir, quick, quick_mode, verdict};
use dpmg_eval::experiment::Table;
use dpmg_fleet::{
    run_process_fleet, run_worker_from_env, CrashPoint, FleetConfig, IngestMode, WorkerOutcome,
    WorkerSpec, WORKER_ENV,
};
use dpmg_pipeline::{sequential_sharded_reference, PipelineConfig, ShardedPipeline};
use dpmg_sketch::merge::merge_tree;
use dpmg_sketch::misra_gries::MisraGries;
use dpmg_workload::zipf::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::Command;
use std::time::{Duration, Instant};

/// Throughput section geometry: matches the E20 sharded sweep (k=256,
/// d=1e6, s=1.1, batch 4096) so the fleet rows compare against the
/// committed `BENCH_ingest.json` sharded peak at equal total shards.
const SHARDED_K: usize = 256;
const THROUGHPUT_UNIVERSE: u64 = 1_000_000;
const THROUGHPUT_SKEW: f64 = 1.1;
const BATCH: usize = 4096;
/// Fleet shapes at 8 total shards: workers × shards-per-worker.
const SHAPES: [(usize, usize); 3] = [(8, 1), (4, 2), (2, 4)];

/// One injected failure pattern for the conformance table.
struct CrashCase {
    label: &'static str,
    workers: usize,
    shards_per_worker: usize,
    retries: usize,
    /// (worker, attempt) → crash to inject, or `None` to run clean.
    crash: fn(usize, usize) -> Option<CrashPoint>,
}

const CRASH_CASES: [CrashCase; 4] = [
    CrashCase {
        label: "none",
        workers: 3,
        shards_per_worker: 2,
        retries: 0,
        crash: |_, _| None,
    },
    CrashCase {
        label: "w2 mid-frame",
        workers: 4,
        shards_per_worker: 1,
        retries: 0,
        crash: |w, _| (w == 2).then_some(CrashPoint::MidFrame),
    },
    CrashCase {
        label: "w1 mid-frame, retried",
        workers: 2,
        shards_per_worker: 2,
        retries: 1,
        crash: |w, attempt| (w == 1 && attempt == 1).then_some(CrashPoint::MidFrame),
    },
    CrashCase {
        label: "w0 dead, retries exhausted",
        workers: 2,
        shards_per_worker: 4,
        retries: 1,
        crash: |w, _| (w == 0).then_some(CrashPoint::BeforeHello),
    },
];

struct FleetRow {
    workers: usize,
    shards_per_worker: usize,
    tput: f64,
}

fn command_for(spec: &WorkerSpec) -> Command {
    let exe = std::env::current_exe().expect("current exe");
    let mut cmd = Command::new(exe);
    cmd.env(WORKER_ENV, spec.to_env_string());
    cmd
}

fn write_bench_json(n: usize, fleet: &[FleetRow], sharded_ref_tput: f64, single_ref_tput: f64) {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("create experiment dir");
    let best = fleet.iter().map(|r| r.tput).fold(0.0f64, f64::max);
    let mut json = String::from("{\n");
    json.push_str("  \"experiment\": \"e21_fleet\",\n");
    json.push_str(&format!("  \"quick\": {},\n", quick()));
    json.push_str(&format!("  \"items_per_run\": {n},\n"));
    // Same-machine ratio the perf gate holds to a hard floor (runner speed
    // cancels, like E20's scaling_efficiency_min): the best fleet shape ÷
    // the in-process sharded pipeline at the same 8 total shards.
    json.push_str(&format!(
        "  \"fleet_vs_sharded_speedup\": {:.3},\n",
        best / sharded_ref_tput
    ));
    json.push_str("  \"fleet\": [\n");
    for (i, r) in fleet.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workers\": {}, \"shards_per_worker\": {}, \"k\": {SHARDED_K}, \
             \"mode\": \"fleet\", \"throughput_items_per_s\": {:.0}}}{}\n",
            r.workers,
            r.shards_per_worker,
            r.tput,
            if i + 1 < fleet.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"references\": [\n");
    json.push_str(&format!(
        "    {{\"shards\": 8, \"k\": {SHARDED_K}, \"mode\": \"sharded_ref\", \
         \"throughput_items_per_s\": {sharded_ref_tput:.0}}},\n"
    ));
    json.push_str(&format!(
        "    {{\"k\": {SHARDED_K}, \"mode\": \"single_ref\", \
         \"throughput_items_per_s\": {single_ref_tput:.0}}}\n"
    ));
    json.push_str("  ]\n}\n");
    let path = dir.join("BENCH_fleet.json");
    std::fs::write(&path, json).expect("write BENCH_fleet.json");
    println!("(wrote {})\n", path.display());
}

fn main() {
    // Worker role: spawned by the fleet runs below.
    if let Some(result) = run_worker_from_env() {
        result.expect("worker run");
        return;
    }

    banner(
        "E21",
        "multi-process fleet: merges bit-identical to the single-process reference under every crash pattern; process fan-out sustains the in-process sharded ingest rate",
    );

    // Part 1: conformance across crash patterns (deterministic). Real child
    // processes over pipes; the aggregator recomputes the single-process
    // sharded reference and checks the merge is bit-exact over exactly the
    // surviving shards.
    let n_conf = quick_mode(20_000usize, 200_000);
    let mut t1 = Table::new(
        format!("E21a fleet conformance under injected crashes, k=16, n={n_conf}"),
        &["workers", "s/w", "crash", "retries", "coverage", "merged"],
    );
    let mut all_exact = true;
    let mut gaps_surfaced = true;
    for case in &CRASH_CASES {
        let config = FleetConfig {
            workers: case.workers,
            shards_per_worker: case.shards_per_worker,
            k: 16,
            deadline: Duration::from_secs(120),
            retries: case.retries,
            coverage_floor: 0.0,
        };
        let template = WorkerSpec {
            worker_id: 0,
            workers: case.workers,
            shards_per_worker: case.shards_per_worker,
            k: 16,
            mode: IngestMode::Direct,
            crash: None,
            stream_n: n_conf,
            universe: 1 << 12,
            skew: 1.1,
            seed: 0xE21,
        };
        let spec_for = |worker_id: usize, attempt: usize| WorkerSpec {
            worker_id,
            crash: (case.crash)(worker_id, attempt),
            ..template.clone()
        };
        let report = run_process_fleet(&config, &spec_for, &command_for).expect("fleet run");

        let stream = template.generate_stream();
        let (per_shard, _) = sequential_sharded_reference(&stream, config.total_shards(), 16);
        // The reference restricted to exactly the shard blocks that made it
        // back: the gold standard a crash-tolerant merge must hit.
        let surviving: Vec<_> = report
            .outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| matches!(o, WorkerOutcome::Completed { .. }))
            .flat_map(|(w, _)| {
                per_shard[w * case.shards_per_worker..(w + 1) * case.shards_per_worker]
                    .iter()
                    .cloned()
            })
            .collect();
        let reference = merge_tree(&surviving).expect("at least one surviving shard");
        let exact = report.merged == reference;
        all_exact &= exact;
        let full_coverage = report.covered_shards == config.total_shards();
        // A crash pattern with no retry budget left must show up as a
        // coverage gap, never as full coverage over a wrong merge.
        let expect_gap = matches!(case.label, "w2 mid-frame" | "w0 dead, retries exhausted");
        gaps_surfaced &= full_coverage != expect_gap;
        t1.row(&[
            case.workers.to_string(),
            case.shards_per_worker.to_string(),
            case.label.to_string(),
            case.retries.to_string(),
            format!("{}/{}", report.covered_shards, config.total_shards()),
            if exact { "≡ reference" } else { "DIVERGED" }.to_string(),
        ]);
    }
    t1.emit(&out_dir()).unwrap();
    verdict(
        "fleet merge bit-identical to the single-process reference over the surviving shards, at every shape × crash pattern",
        all_exact,
    );
    verdict(
        "lost shard blocks surface as coverage gaps; retried crashes recover full coverage",
        gaps_surfaced,
    );

    // Part 2: throughput at equal total shards (machine-dependent; the
    // "(timing" marker keeps it out of the golden snapshot). Under the CI
    // perf gate (DPMG_PERF=1) quick mode times substantially larger runs so
    // spawn/scheduling noise cannot dominate; plain quick runs (golden
    // tests, `cargo test`) keep the small fast sizing.
    let n = if dpmg_bench::perf_mode() {
        quick_mode(1_000_000usize, 8_000_000)
    } else {
        quick_mode(150_000usize, 8_000_000)
    };
    let mut rng = StdRng::seed_from_u64(0xE21);
    let stream = Zipf::new(THROUGHPUT_UNIVERSE, THROUGHPUT_SKEW).stream(n, &mut rng);

    // In-process references on the same stream: the 8-shard pipeline (what
    // the fleet must match at equal shards) and the single-thread sketch.
    let config = PipelineConfig::new(8, SHARDED_K).with_batch_size(BATCH);
    let mut pipe = ShardedPipeline::new(config).unwrap();
    let start = Instant::now();
    for chunk in stream.chunks(BATCH) {
        pipe.ingest_from(chunk.iter().copied()).expect("ingest");
    }
    pipe.merged().expect("finish");
    let sharded_ref_tput = n as f64 / start.elapsed().as_secs_f64();
    let start = Instant::now();
    let mut single = MisraGries::new(SHARDED_K).unwrap();
    for chunk in stream.chunks(BATCH) {
        single.extend_batch(chunk);
    }
    let single_ref_tput = n as f64 / start.elapsed().as_secs_f64();
    drop(stream);

    let mut t2 = Table::new(
        format!(
            "E21b fleet ingest at 8 total shards, k={SHARDED_K}, d=1e6, s={THROUGHPUT_SKEW}, \
             n={n} (timing; machine-dependent)"
        ),
        &["workers", "s/w", "Mitems/s", "× sharded", "× single"],
    );
    let mut fleet_rows: Vec<FleetRow> = Vec::new();
    for (workers, shards_per_worker) in SHAPES {
        let config = FleetConfig {
            workers,
            shards_per_worker,
            k: SHARDED_K,
            deadline: Duration::from_secs(600),
            retries: 1,
            coverage_floor: 1.0,
        };
        let spec_for = move |worker_id: usize, _attempt: usize| WorkerSpec {
            worker_id,
            workers,
            shards_per_worker,
            k: SHARDED_K,
            mode: IngestMode::Direct,
            crash: None,
            stream_n: n,
            universe: THROUGHPUT_UNIVERSE,
            skew: THROUGHPUT_SKEW,
            seed: 0xE21,
        };
        let report = run_process_fleet(&config, &spec_for, &command_for).expect("fleet run");
        assert_eq!(report.coverage(), 1.0, "throughput run lost a worker");
        assert_eq!(report.items as usize, n, "fleet lost items");
        // The wall clock runs GO broadcast → last report resolved: spawn,
        // stream generation, and slice filtering all happen before the GO
        // barrier, so this is steady-state sketching + report transfer.
        let tput = n as f64 / report.wall.as_secs_f64();
        t2.row(&[
            workers.to_string(),
            shards_per_worker.to_string(),
            f2(tput / 1e6),
            f2(tput / sharded_ref_tput),
            f2(tput / single_ref_tput),
        ]);
        fleet_rows.push(FleetRow {
            workers,
            shards_per_worker,
            tput,
        });
    }
    t2.emit(&out_dir()).unwrap();
    let best = fleet_rows.iter().map(|r| r.tput).fold(0.0f64, f64::max);
    // (Leading text is load-bearing: the golden filter drops this
    // machine-dependent line by its "(detected hardware parallelism" prefix.)
    println!(
        "(detected hardware parallelism: {} threads; in-process refs: sharded×8 {:.2} Mitems/s, \
         single-thread {:.2} Mitems/s)\n",
        std::thread::available_parallelism().map_or(1, |t| t.get()),
        sharded_ref_tput / 1e6,
        single_ref_tput / 1e6
    );
    write_bench_json(n, &fleet_rows, sharded_ref_tput, single_ref_tput);
    verdict(
        &format!(
            "fleet throughput: best multi-process shape {:.2} Mitems/s ≥ in-process 8-shard \
             pipeline {:.2} Mitems/s at equal total shards",
            best / 1e6,
            sharded_ref_tput / 1e6
        ),
        best >= sharded_ref_tput,
    );
}
