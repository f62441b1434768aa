//! **E25 — the ladder benchmark:** four workloads driven through the public
//! entry points of the stack (HTTP → WAL → service → pipeline → sketch),
//! every output checked against the sequential reference, and a traced
//! run that replays each workload's exact input one layer at a time to
//! attribute its time per layer. See `README.md` beside this file.
//!
//! ```text
//! exp_e25_ladder [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! Without `--workload` every workload runs, each in a fresh child
//! process. Each metric prints as `<workload> <metric> <value> <unit>
//! n=<samples>`; the last line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones). A wrong output exits non-zero.
//!
//! An untraced run executes every round in a fresh child process
//! (`--round`), so every round starts from the same process state.

mod client;
mod e2e;
mod ladder;
mod plan;
mod stats;
mod trace;

use e2e::{remove_dir, Ctx, Round};
use plan::{Expected, Plan, Workload, QUERY_RATES};
use stats::{label, median, percentile, sorted, tail_permille, valid_name};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;

/// Every run repeats its round at least this often, so its per-round
/// medians are not single samples.
const MIN_ROUNDS: usize = 4;

const USAGE: &str = "usage: exp_e25_ladder [--workload <name>] [--seed <u64>] [--seconds <n>] \
                     [--trace <0|1>] [--round]";

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
    /// The percentile a `_tail` metric settled on.
    pub at: Option<u64>,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, n: usize) -> Self {
        assert!(valid_name(name), "invalid metric name {name:?}");
        Self {
            name: name.to_string(),
            value,
            unit,
            n,
            at: None,
        }
    }

    pub fn at(mut self, permille: u64) -> Self {
        self.at = Some(permille);
        self
    }

    fn line(&self, workload: Workload) -> String {
        let at = self
            .at
            .map_or(String::new(), |p| format!(" at={}", label(p)));
        format!(
            "{} {} {} {} n={}{at}",
            workload.name(),
            self.name,
            self.value,
            self.unit,
            self.n
        )
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run one round and print its record: the child side of an untraced
    /// run.
    round: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        round: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--round" => parsed.round = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.round && parsed.workload.is_none() {
        return Err("--round needs --workload".into());
    }
    Ok(parsed)
}

/// What one workload run reports.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Printed as lines only.
    info: Vec<Metric>,
    /// Printed as lines and in the final JSON object.
    metrics: Vec<Metric>,
}

impl Report {
    /// A run whose outputs were wrong.
    fn invalid() -> Self {
        Self {
            correct: false,
            attempted: 1,
            failed: 0,
            info: Vec::new(),
            metrics: Vec::new(),
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// A run whose outputs were wrong, or whose numbers cannot be written
    /// as JSON, exits non-zero.
    fn exit_code(&self) -> ExitCode {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        if self.correct && finite {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("exp_e25_ladder: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) if args.round => one_round(workload, args.seed),
        Some(workload) => run_workload(workload, &args),
        None => run_all(&args),
    }
}

fn exe() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("path of the running binary: {e}"))
}

/// Each workload in a fresh child process.
fn run_all(args: &Args) -> ExitCode {
    let Ok(exe) = exe() else {
        return ExitCode::FAILURE;
    };
    let mut code = ExitCode::SUCCESS;
    for workload in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        if !status.is_ok_and(|s| s.success()) {
            code = ExitCode::FAILURE;
        }
    }
    code
}

/// Scratch space under the checkout's `target/`.
fn bench_dir() -> PathBuf {
    PathBuf::from("target").join("bench")
}

/// This process's WAL scratch directory.
fn work_dir(workload: Workload) -> PathBuf {
    bench_dir()
        .join("ladder")
        .join(format!("{}-{}", workload.name(), std::process::id()))
}

fn run_workload(workload: Workload, args: &Args) -> ExitCode {
    let plan = Plan::new(workload, args.seed);
    println!(
        "{} input_digest {:#018x} fnv64 n={}",
        workload.name(),
        plan.digest(),
        plan.items(&plan.ops)
    );
    let expected = Expected::compute(&plan, args.seed);
    let result = if args.trace {
        traced(&plan, &expected, args.seed)
    } else {
        untraced(&plan, &expected, args)
    };
    let report = result.unwrap_or_else(|e| {
        println!("{} gate FAILED: {e}", workload.name());
        Report::invalid()
    });
    for m in report.info.iter().chain(&report.metrics) {
        println!("{}", m.line(workload));
    }
    println!("{}", report.json());
    report.exit_code()
}

/// Peak resident memory of this process, MB.
fn rss_peak_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn pct(samples: &[f64], permille: u64) -> f64 {
    percentile(&sorted(samples.to_vec()), permille)
}

/// The child side of an untraced run: one round in this fresh process,
/// printed as one record line.
fn one_round(workload: Workload, seed: u64) -> ExitCode {
    let plan = Plan::new(workload, seed);
    let requests = plan.encode();
    let ctx = Ctx {
        plan: &plan,
        requests: &requests,
        seed,
        dir: work_dir(workload),
    };
    let result = e2e::run(&ctx, &mut Tracer::new(false)).and_then(|round| record(&round));
    let _ = remove_dir(&ctx.dir);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("{} gate FAILED: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}

/// A round's numbers as `round digest=<hex> <name>=<value>[,<value>...]
/// ...`, times in seconds: what a child reports to its parent. The
/// per-request samples go in whole, so the parent pools them over rounds.
fn record(round: &Round) -> Result<String, String> {
    let mut fields = vec![
        ("setup_s".to_string(), vec![round.setup_s]),
        ("wall_s".to_string(), vec![round.wall_s]),
        ("items".to_string(), vec![round.items as f64]),
        ("attempted".to_string(), vec![round.attempted as f64]),
        ("failed".to_string(), vec![round.failed as f64]),
        ("rss_mb".to_string(), vec![rss_peak_mb()?]),
        ("window_rates".to_string(), round.window_rates.clone()),
        ("request_s".to_string(), round.request_s.clone()),
        ("release_s".to_string(), round.release_s.clone()),
    ];
    if let Some(recovery) = round.recovery_s {
        fields.push(("recovery_s".to_string(), vec![recovery]));
    }
    if !round.steps.is_empty() {
        let passing = round.steps.iter().take_while(|s| s.passes()).count();
        let max_rps = passing.checked_sub(1).map_or(0, |s| QUERY_RATES[s]);
        fields.push(("max_rps".to_string(), vec![max_rps as f64]));
        fields.push(("backlog_max".to_string(), vec![round.backlog_max as f64]));
        for (s, step) in round.steps.iter().enumerate() {
            fields.push((format!("q{s}_p50_s"), vec![pct(&step.latency_s, 500)]));
            fields.push((format!("q{s}_p99_s"), vec![pct(&step.latency_s, 990)]));
            fields.push((format!("q{s}_lag_p99_s"), vec![pct(&step.lag_s, 990)]));
        }
    }
    if let Some((name, _)) = fields.iter().find(|(_, values)| values.is_empty()) {
        return Err(format!("a round measured no {name}"));
    }
    let fields: Vec<String> = fields
        .iter()
        .map(|(k, values)| {
            let values: Vec<String> = values.iter().map(f64::to_string).collect();
            format!("{k}={}", values.join(","))
        })
        .collect();
    Ok(format!(
        "round digest={:#x} {}",
        round.snapshot_digest,
        fields.join(" ")
    ))
}

/// A parsed [`record`] line.
struct Record {
    digest: u64,
    fields: BTreeMap<String, Vec<f64>>,
}

impl Record {
    fn parse(line: &str) -> Result<Self, String> {
        let bad = || format!("malformed round record {line:?}");
        let mut words = line.split(' ');
        if words.next() != Some("round") {
            return Err(bad());
        }
        let digest = words
            .next()
            .and_then(|w| w.strip_prefix("digest=0x"))
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .ok_or_else(bad)?;
        let fields = words
            .map(|w| {
                let (k, v) = w.split_once('=').ok_or_else(bad)?;
                let values = v.split(',').map(str::parse).collect::<Result<_, _>>();
                Ok((k.to_string(), values.map_err(|_| bad())?))
            })
            .collect::<Result<_, String>>()?;
        Ok(Self { digest, fields })
    }

    /// A one-value field.
    fn get(&self, name: &str) -> f64 {
        self.fields[name][0]
    }
}

/// The sorted values of one field over rounds, a list field's samples
/// pooled; records lacking the field are skipped.
fn column(records: &[Record], name: &str) -> Vec<f64> {
    let values = records.iter().filter_map(|r| r.fields.get(name));
    sorted(values.flatten().copied().collect())
}

/// The median over rounds of a per-round time field, in ms.
fn median_ms(name: &str, records: &[Record], field: &str) -> Metric {
    let values = column(records, field);
    Metric::new(name, percentile(&values, 500) * 1e3, "ms", values.len())
}

/// A percentile of a time field's samples pooled over rounds, in ms.
fn pooled_ms(name: &str, records: &[Record], field: &str, permille: u64) -> Metric {
    let samples = column(records, field);
    Metric::new(
        name,
        percentile(&samples, permille) * 1e3,
        "ms",
        samples.len(),
    )
}

/// The highest pooled tail percentile with ten samples beyond it, in ms.
fn tail_ms(name: &str, records: &[Record], field: &str) -> Metric {
    let permille = tail_permille(column(records, field).len());
    pooled_ms(
        &format!("{name}_{}", label(permille)),
        records,
        field,
        permille,
    )
    .at(permille)
}

/// Other tenants of the shared host, and the scheduler placing the
/// stack's two or three busy threads on its two CPUs, make requests up to
/// 1.5× slower for tenths of a second at a time; they never speed one up.
/// So the gated throughput reads the fast side of the pooled windows,
/// which a regression in the code moves in full: their best 5%.
const WINDOW_PERMILLE: u64 = 950;
/// The fast side of printed latencies.
const LATENCY_PERMILLE: u64 = 50;

/// Runs rounds, each in a fresh child process, until `--seconds` have
/// passed (and at least [`MIN_ROUNDS`] of them); checks every round's
/// snapshot against the reference and reports the end-to-end metrics.
fn untraced(plan: &Plan, expected: &Expected, args: &Args) -> Result<Report, String> {
    let exe = exe()?;
    let mut records = Vec::new();
    let start = Instant::now();
    while records.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds {
        let out = Command::new(&exe)
            .args(["--workload", plan.workload.name()])
            .args(["--seed", &args.seed.to_string(), "--round"])
            .output()
            .map_err(|e| format!("spawning a round: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        if !out.status.success() {
            return Err(format!("round {} failed: {last}", records.len()));
        }
        let record = Record::parse(last)?;
        plan::check_digest(record.digest, expected.digest)
            .map_err(|e| format!("round {}: {e}", records.len()))?;
        records.push(record);
    }
    let rounds = records.len();
    let windows = column(&records, "window_rates");
    let metrics = vec![
        Metric::new("setup_s", median(&column(&records, "setup_s")), "s", rounds),
        Metric::new(
            "items_per_s",
            percentile(&windows, WINDOW_PERMILLE),
            "items/s",
            windows.len(),
        ),
        Metric::new(
            "rss_peak_mb",
            median(&column(&records, "rss_mb")),
            "MB",
            rounds,
        ),
    ];

    let attempted: f64 = column(&records, "attempted").iter().sum();
    let failed: f64 = column(&records, "failed").iter().sum();
    let phase_rates: Vec<f64> = records
        .iter()
        .map(|r| r.get("items") / r.get("wall_s"))
        .collect();
    let mut info = vec![
        Metric::new("phase_items_per_s", median(&phase_rates), "items/s", rounds),
        // Latencies are not gated. A closed loop's request time is its
        // throughput's inverse plus pipeline buffering: `embed_ingest`'s
        // p5 fell 4× whenever a loaded host let the worker drain the ring
        // between calls. `epoch_churn`'s releases, a worker join and
        // respawn each, slowed up to 2× while the host was loaded.
        pooled_ms("request_ms_p5", &records, "request_s", LATENCY_PERMILLE),
        pooled_ms("request_ms_p50", &records, "request_s", 500),
        tail_ms("request_ms", &records, "request_s"),
        pooled_ms("release_ms_p5", &records, "release_s", LATENCY_PERMILLE),
        pooled_ms("release_ms_p50", &records, "release_s", 500),
        tail_ms("release_ms", &records, "release_s"),
        Metric::new("failed_frac", failed / attempted, "ratio", rounds),
        Metric::new("reference.items_per_s", expected.items_per_s, "items/s", 1),
    ];
    if records[0].fields.contains_key("recovery_s") {
        info.push(Metric::new(
            "recovery_s",
            median(&column(&records, "recovery_s")),
            "s",
            rounds,
        ));
    }
    if records[0].fields.contains_key("max_rps") {
        for (s, &rate) in QUERY_RATES.iter().enumerate() {
            let k = rate / 1000;
            info.push(median_ms(
                &format!("query_{k}k.ms_p50"),
                &records,
                &format!("q{s}_p50_s"),
            ));
            info.push(median_ms(
                &format!("query_{k}k.ms_p99"),
                &records,
                &format!("q{s}_p99_s"),
            ));
            info.push(median_ms(
                &format!("query_{k}k.lag_ms_p99"),
                &records,
                &format!("q{s}_lag_p99_s"),
            ));
        }
        let max_rps = median(&column(&records, "max_rps"));
        info.push(Metric::new("query_max_rps", max_rps, "req/s", rounds));
        let backlog = column(&records, "backlog_max");
        info.push(Metric::new(
            "gen.backlog_max",
            backlog[backlog.len() - 1],
            "count",
            rounds,
        ));
    }
    Ok(Report {
        correct: true,
        attempted: attempted as u64,
        failed: failed as u64,
        info,
        metrics,
    })
}

/// [`ladder::REPS`] times: an untraced round, a traced round and the
/// ladder over the same input, all in this process. Reports the
/// per-layer metrics and writes the spans.
fn traced(plan: &Plan, expected: &Expected, seed: u64) -> Result<Report, String> {
    let requests = plan.encode();
    let ctx = Ctx {
        plan,
        requests: &requests,
        seed,
        dir: work_dir(plan.workload),
    };
    let result = traced_rounds(&ctx, expected);
    let _ = remove_dir(&ctx.dir);
    result
}

fn traced_rounds(ctx: &Ctx<'_>, expected: &Expected) -> Result<Report, String> {
    let checked = |round: Round| {
        plan::check_digest(round.snapshot_digest, expected.digest)?;
        Ok::<Round, String>(round)
    };
    let mut tracer = Tracer::new(true);
    let (mut plain, mut spanned, mut reps) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ladder::REPS {
        plain.push(checked(e2e::run(ctx, &mut Tracer::new(false))?)?);
        spanned.push(checked(e2e::run(ctx, &mut tracer)?)?);
        reps.push(ladder::rep(ctx, &mut tracer, expected.digest)?);
    }
    let per_round = |rounds: &[Round], stat: &dyn Fn(&Round) -> f64| {
        median(&rounds.iter().map(stat).collect::<Vec<_>>())
    };
    let wall = per_round(&spanned, &|r| r.wall_s);
    let mut metrics = ladder::metrics(ctx, &tracer, &reps, wall);
    metrics.push(Metric::new(
        "reference.items_per_s",
        expected.items_per_s,
        "items/s",
        1,
    ));
    metrics.push(Metric::new(
        "gen.lag_ms_p99",
        per_round(&spanned, &|r| pct(&r.lag_s, 990)) * 1e3,
        "ms",
        spanned.len(),
    ));
    let backlog = spanned.iter().map(|r| r.backlog_max).max().unwrap_or(0);
    metrics.push(Metric::new(
        "gen.backlog_max",
        backlog as f64,
        "count",
        spanned.len(),
    ));
    // The cost of recording spans: the slowdown of the primary metric.
    let overhead = if ctx.plan.workload == Workload::QueryMix {
        let p50 = |rounds: &[Round]| per_round(rounds, &|r| median(&r.request_s));
        p50(&spanned) / p50(&plain) - 1.0
    } else {
        let rate = |rounds: &[Round]| per_round(rounds, &|r| r.items as f64 / r.wall_s);
        1.0 - rate(&spanned) / rate(&plain)
    };
    metrics.push(Metric::new(
        "trace.overhead_frac",
        overhead,
        "ratio",
        2 * ladder::REPS,
    ));
    let path = bench_dir()
        .join("trace")
        .join(format!("{}.jsonl", ctx.plan.workload.name()));
    tracer.write_jsonl(&path).map_err(|e| e.to_string())?;
    let rounds = plain.iter().chain(&spanned);
    Ok(Report {
        correct: true,
        attempted: rounds.clone().map(|r| r.attempted).sum(),
        failed: rounds.map(|r| r.failed).sum(),
        info: Vec::new(),
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload query_mix --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::QueryMix));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.round),
            (7, 12.0, true, false)
        );
        assert!(args("--workload http_ingest --round").unwrap().round);
        let defaults = args("").unwrap();
        assert_eq!(defaults.workload, None);
        assert!(!defaults.trace);
        for bad in [
            "--workload nope",
            "--seed x",
            "--trace 2",
            "--seconds 0",
            "--bogus",
            "--round",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_failed_gate_exits_non_zero_and_reports_incorrect() {
        // What `run_workload` reports when the gate returns an error, such
        // as a corrupted snapshot (see `plan::tests`).
        let report = Report::invalid();
        assert_eq!(report.exit_code(), ExitCode::FAILURE);
        assert!(report
            .json()
            .starts_with("{\"correct\": false, \"attempted\": 1,"));
        let mut ok = Report::invalid();
        ok.correct = true;
        ok.metrics.push(Metric::new("setup_s", 0.5, "s", 3));
        assert_eq!(ok.exit_code(), ExitCode::SUCCESS);
        assert_eq!(
            ok.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        ok.metrics.push(Metric::new("x", f64::NAN, "s", 1));
        assert_eq!(ok.exit_code(), ExitCode::FAILURE);
    }

    #[test]
    fn round_records_round_trip() {
        let round = Round {
            setup_s: 0.25,
            wall_s: 1.5,
            items: 4096,
            window_rates: vec![2.5e6, 3e6],
            request_s: (1..=2000).map(|i| f64::from(i) * 1e-6).collect(),
            release_s: vec![0.003],
            snapshot_digest: 0xfeed,
            ..Round::default()
        };
        let parsed = Record::parse(&record(&round).unwrap()).unwrap();
        assert_eq!(parsed.digest, 0xfeed);
        assert_eq!(parsed.get("wall_s"), 1.5);
        assert_eq!(parsed.fields["window_rates"], round.window_rates);
        assert_eq!(parsed.fields["request_s"], round.request_s);
        assert!(!parsed.fields.contains_key("recovery_s"));
        // Two rounds pool their samples.
        let both = [parsed, Record::parse(&record(&round).unwrap()).unwrap()];
        assert_eq!(column(&both, "request_s").len(), 4000);
        assert!((pooled_ms("r", &both, "request_s", 500).value - 1.0).abs() < 1e-9);
        let unreleased = Round {
            release_s: Vec::new(),
            ..round
        };
        assert!(record(&unreleased).is_err());
        assert!(Record::parse("round digest=zz").is_err());
        assert!(Record::parse("round digest=0x1 a=1,x").is_err());
    }
}
