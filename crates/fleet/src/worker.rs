//! The worker side of the fleet: deterministic stream partitioning, local
//! sketching, and the framed report back to the aggregator.
//!
//! A worker makes one untimed partition pass over the stream: it hashes
//! each item once with [`shard_of_key`] over the global shard space and
//! pushes the items of its own block into one vector per owned shard, in
//! arrival order. After GO it runs Algorithm 1
//! ([`MisraGries::extend_batch`]) over each owned shard's vector — the same
//! per-shard substreams, in the same order, that a single-process pipeline
//! of the global width would sketch.
//!
//! A worker is a pure function of its [`WorkerSpec`]: the spec pins the
//! partition geometry, the sketch size, the workload (every worker
//! regenerates the *same* seeded stream and keeps only its own slice), and —
//! for tests and chaos drills — an optional [`CrashPoint`]. Specs round-trip
//! through a `key=value` string so a parent process can hand one to a child
//! through a single environment variable ([`WORKER_ENV`]).
//!
//! [`run_worker`] is transport-agnostic: it talks over any `Read` (GO
//! barrier) + `Write` (report) pair, so the same code path is exercised over
//! process pipes (production), loopback sockets (tests), and in-memory
//! buffers (protocol tests).

use crate::protocol::{
    encode_done, encode_summary, read_go, Hello, KIND_BYE, KIND_DONE, KIND_HELLO, KIND_SUMMARY,
};
use crate::FleetError;
use dpmg_pipeline::shard_of_key;
use dpmg_sketch::serialize::write_frame;
use dpmg_sketch::{MisraGries, Summary};
use dpmg_workload::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::time::Instant;

/// Environment variable that flips a fleet binary into worker mode. The
/// value is a [`WorkerSpec`] in `key=value` form.
pub const WORKER_ENV: &str = "DPMG_FLEET_WORKER";

/// Where an injected crash fires (test/chaos use only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Exit before sending HELLO — the worker never checks in.
    BeforeHello,
    /// Exit after sending DONE plus exactly `n` valid SUMMARY frames.
    /// `AfterSummaries(0)` dies right after DONE.
    AfterSummaries(usize),
    /// Exit halfway through writing the first SUMMARY frame — the
    /// aggregator must see a torn frame, not a short report.
    MidFrame,
}

impl CrashPoint {
    fn to_spec(self) -> String {
        match self {
            CrashPoint::BeforeHello => "before-hello".to_string(),
            CrashPoint::AfterSummaries(n) => format!("after-summaries:{n}"),
            CrashPoint::MidFrame => "mid-frame".to_string(),
        }
    }
}

/// Parses `before-hello`, `mid-frame` or `after-summaries:N` — the form
/// used by the `crash=` key of [`WorkerSpec::to_env_string`] and of the
/// `aggregator` binary.
impl std::str::FromStr for CrashPoint {
    type Err = FleetError;

    fn from_str(s: &str) -> Result<Self, FleetError> {
        match s {
            "before-hello" => Ok(CrashPoint::BeforeHello),
            "mid-frame" => Ok(CrashPoint::MidFrame),
            _ => s
                .strip_prefix("after-summaries:")
                .and_then(|n| n.parse::<usize>().ok())
                .map(CrashPoint::AfterSummaries)
                .ok_or_else(|| FleetError::Spec(format!("bad crash spec: {s}"))),
        }
    }
}

/// Everything a worker needs to run, env-string serializable.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerSpec {
    /// Worker index in `[0, workers)`.
    pub worker_id: usize,
    /// Total workers in the fleet.
    pub workers: usize,
    /// Consecutive global shards each worker owns (`s`); total shards are
    /// `workers × shards_per_worker`.
    pub shards_per_worker: usize,
    /// Misra–Gries size `k` for every shard sketch.
    pub k: usize,
    /// Optional injected crash.
    pub crash: Option<CrashPoint>,
    /// Workload: total stream length (before partitioning).
    pub stream_n: usize,
    /// Workload: universe size `d`.
    pub universe: u64,
    /// Workload: Zipf exponent `s`.
    pub skew: f64,
    /// Workload: stream seed — identical across the fleet so every worker
    /// regenerates the same stream and slices it consistently.
    pub seed: u64,
}

impl WorkerSpec {
    /// Total global shards `S = workers × shards_per_worker`.
    pub fn total_shards(&self) -> usize {
        self.workers * self.shards_per_worker
    }

    /// First global shard this worker owns.
    pub fn first_shard(&self) -> usize {
        self.worker_id * self.shards_per_worker
    }

    /// The HELLO announcing this spec's geometry.
    pub fn hello(&self) -> Hello {
        Hello {
            worker_id: self.worker_id as u64,
            workers: self.workers as u64,
            total_shards: self.total_shards() as u64,
            first_shard: self.first_shard() as u64,
            shard_count: self.shards_per_worker as u64,
            k: self.k as u64,
        }
    }

    /// Structural validation.
    ///
    /// # Errors
    ///
    /// [`FleetError::Spec`] on zero counts, id out of range, a shard space
    /// that overflows `usize`, or a workload the stream generator cannot
    /// draw (`universe = 0`, or a `skew` that is negative or not finite).
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.workers == 0 || self.shards_per_worker == 0 || self.k == 0 {
            return Err(FleetError::Spec(
                "workers, shards_per_worker and k must be nonzero".to_string(),
            ));
        }
        if self.worker_id >= self.workers {
            return Err(FleetError::Spec(format!(
                "worker_id {} out of range for {} workers",
                self.worker_id, self.workers
            )));
        }
        if self.workers.checked_mul(self.shards_per_worker).is_none() {
            return Err(FleetError::Spec("shard space overflows usize".to_string()));
        }
        if self.universe == 0 {
            return Err(FleetError::Spec("universe must be nonzero".to_string()));
        }
        if !(self.skew.is_finite() && self.skew >= 0.0) {
            return Err(FleetError::Spec(format!(
                "skew must be finite and ≥ 0, got {}",
                self.skew
            )));
        }
        Ok(())
    }

    /// Serializes to the `key=value` form carried in [`WORKER_ENV`].
    pub fn to_env_string(&self) -> String {
        let crash = self.crash.map_or("none".to_string(), CrashPoint::to_spec);
        format!(
            "worker_id={} workers={} shards_per_worker={} k={} crash={crash} \
             stream_n={} universe={} skew={} seed={}",
            self.worker_id,
            self.workers,
            self.shards_per_worker,
            self.k,
            self.stream_n,
            self.universe,
            self.skew,
            self.seed
        )
    }

    /// Parses the `key=value` form. Inverse of [`Self::to_env_string`].
    ///
    /// # Errors
    ///
    /// [`FleetError::Spec`] on unknown/missing/duplicate keys, unparsable
    /// values, or a spec that fails [`Self::validate`].
    pub fn from_env_string(s: &str) -> Result<Self, FleetError> {
        let mut worker_id = None;
        let mut workers = None;
        let mut shards_per_worker = None;
        let mut k = None;
        let mut crash = None;
        let mut stream_n = None;
        let mut universe = None;
        let mut skew = None;
        let mut seed = None;

        fn put<T>(slot: &mut Option<T>, value: T, key: &str) -> Result<(), FleetError> {
            if slot.is_some() {
                return Err(FleetError::Spec(format!("duplicate key: {key}")));
            }
            *slot = Some(value);
            Ok(())
        }
        fn parse<T: std::str::FromStr>(value: &str, key: &str) -> Result<T, FleetError> {
            value
                .parse::<T>()
                .map_err(|_| FleetError::Spec(format!("bad value for {key}: {value}")))
        }

        for pair in s.split_whitespace() {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| FleetError::Spec(format!("expected key=value, got: {pair}")))?;
            match key {
                "worker_id" => put(&mut worker_id, parse::<usize>(value, key)?, key)?,
                "workers" => put(&mut workers, parse::<usize>(value, key)?, key)?,
                "shards_per_worker" => {
                    put(&mut shards_per_worker, parse::<usize>(value, key)?, key)?;
                }
                "k" => put(&mut k, parse::<usize>(value, key)?, key)?,
                "crash" => {
                    let point = match value {
                        "none" => None,
                        spec => Some(spec.parse::<CrashPoint>()?),
                    };
                    put(&mut crash, point, key)?;
                }
                "stream_n" => put(&mut stream_n, parse::<usize>(value, key)?, key)?,
                "universe" => put(&mut universe, parse::<u64>(value, key)?, key)?,
                "skew" => put(&mut skew, parse::<f64>(value, key)?, key)?,
                "seed" => put(&mut seed, parse::<u64>(value, key)?, key)?,
                other => return Err(FleetError::Spec(format!("unknown key: {other}"))),
            }
        }

        fn need<T>(slot: Option<T>, key: &str) -> Result<T, FleetError> {
            slot.ok_or_else(|| FleetError::Spec(format!("missing key: {key}")))
        }
        let spec = WorkerSpec {
            worker_id: need(worker_id, "worker_id")?,
            workers: need(workers, "workers")?,
            shards_per_worker: need(shards_per_worker, "shards_per_worker")?,
            k: need(k, "k")?,
            crash: need(crash, "crash")?,
            stream_n: need(stream_n, "stream_n")?,
            universe: need(universe, "universe")?,
            skew: need(skew, "skew")?,
            seed: need(seed, "seed")?,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Regenerates the fleet's shared stream (identical for every worker
    /// with the same workload fields).
    pub fn generate_stream(&self) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        Zipf::new(self.universe, self.skew).stream(self.stream_n, &mut rng)
    }
}

/// What the worker measured for its own slice.
#[derive(Debug, Clone, Copy)]
pub struct WorkerRunStats {
    /// Items in this worker's slice (0 when crashed before ingest).
    pub items: u64,
    /// Sketching time in nanoseconds, GO → summaries built.
    pub elapsed_ns: u64,
}

/// Runs one worker over an explicit transport: announce HELLO, wait for GO,
/// sketch the owned slice, stream the report.
///
/// The caller supplies the full fleet stream; the worker partitions it into
/// its owned shards *before* the timed region, so the measured `elapsed_ns`
/// spans sketching only (matching how the single-process ingest benchmark
/// excludes generation). Injected crashes ([`WorkerSpec::crash`]) return
/// `Ok` with whatever was sent so far — from the aggregator's point of view
/// the process just died.
///
/// # Errors
///
/// [`FleetError::Spec`] on an invalid spec, transport/framing errors while
/// reporting.
pub fn run_worker<R: Read, W: Write>(
    spec: &WorkerSpec,
    stream: &[u64],
    go: &mut R,
    out: &mut W,
) -> Result<WorkerRunStats, FleetError> {
    spec.validate()?;
    let total = spec.total_shards();
    let first = spec.first_shard();
    let s = spec.shards_per_worker;

    // Partition (untimed): hash each item once over the global shard space
    // and keep those in our block, one vector per owned shard in arrival
    // order. This mirrors what a real deployment's upstream router would
    // deliver to this process.
    let mut owned: Vec<Vec<u64>> = vec![Vec::new(); s];
    for &x in stream {
        let local = shard_of_key(&x, total).wrapping_sub(first);
        if local < s {
            owned[local].push(x);
        }
    }
    let items = owned.iter().map(|shard| shard.len() as u64).sum();

    if spec.crash == Some(CrashPoint::BeforeHello) {
        return Ok(WorkerRunStats {
            items: 0,
            elapsed_ns: 0,
        });
    }

    write_frame(out, KIND_HELLO, &spec.hello().encode())?;
    out.flush()?;
    read_go(go)?;

    let start = Instant::now();
    let summaries = owned
        .iter()
        .map(|shard| {
            let mut sketch = MisraGries::new(spec.k)?;
            sketch.extend_batch(shard);
            Ok(sketch.summary())
        })
        .collect::<Result<Vec<Summary<u64>>, FleetError>>()?;
    let elapsed_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let stats = WorkerRunStats { items, elapsed_ns };

    write_frame(out, KIND_DONE, &encode_done(items, elapsed_ns))?;
    for (i, summary) in summaries.iter().enumerate() {
        match spec.crash {
            Some(CrashPoint::AfterSummaries(n)) if i == n => {
                out.flush()?;
                return Ok(stats);
            }
            Some(CrashPoint::MidFrame) if i == 0 => {
                let mut frame = Vec::new();
                write_frame(
                    &mut frame,
                    KIND_SUMMARY,
                    &encode_summary((first + i) as u64, summary),
                )?;
                out.write_all(&frame[..frame.len() / 2])?;
                out.flush()?;
                return Ok(stats);
            }
            _ => {}
        }
        write_frame(
            out,
            KIND_SUMMARY,
            &encode_summary((first + i) as u64, summary),
        )?;
    }
    if let Some(CrashPoint::AfterSummaries(n)) = spec.crash {
        if n >= summaries.len() {
            // Crash between the last summary and BYE.
            out.flush()?;
            return Ok(stats);
        }
    }
    write_frame(out, KIND_BYE, &[])?;
    out.flush()?;
    Ok(stats)
}

/// Worker-process entry point: when [`WORKER_ENV`] is set, parse the spec,
/// regenerate the stream, run the worker over stdin/stdout, and return
/// `Some(result)`. Returns `None` when the variable is absent (i.e. the
/// process should act as an aggregator instead).
pub fn run_worker_from_env() -> Option<Result<WorkerRunStats, FleetError>> {
    let raw = std::env::var(WORKER_ENV).ok()?;
    Some((|| {
        let spec = WorkerSpec::from_env_string(&raw)?;
        let stream = spec.generate_stream();
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        let mut go = stdin.lock();
        let mut out = std::io::BufWriter::new(stdout.lock());
        run_worker(&spec, &stream, &mut go, &mut out)
    })())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_hello, read_report, write_go};
    use dpmg_sketch::merge::merge_tree;

    fn spec(worker_id: usize) -> WorkerSpec {
        WorkerSpec {
            worker_id,
            workers: 3,
            shards_per_worker: 2,
            k: 16,
            crash: None,
            stream_n: 5_000,
            universe: 1 << 14,
            skew: 1.2,
            seed: 42,
        }
    }

    #[test]
    fn spec_round_trips_through_env_string() {
        for crash in [
            None,
            Some(CrashPoint::BeforeHello),
            Some(CrashPoint::AfterSummaries(1)),
            Some(CrashPoint::MidFrame),
        ] {
            let mut s = spec(1);
            s.crash = crash;
            let parsed = WorkerSpec::from_env_string(&s.to_env_string()).unwrap();
            assert_eq!(parsed, s);
        }
    }

    #[test]
    fn spec_string_rejects_garbage() {
        for bad in [
            "",
            "worker_id=0",
            "worker_id=0 worker_id=1",
            "nonsense",
            "worker_id=x workers=1 shards_per_worker=1 k=1 crash=none \
             stream_n=1 universe=1 skew=1 seed=1",
            "worker_id=0 workers=1 shards_per_worker=1 k=1 crash=warp \
             stream_n=1 universe=1 skew=1 seed=1",
            "worker_id=5 workers=2 shards_per_worker=1 k=1 crash=none \
             stream_n=1 universe=1 skew=1 seed=1",
            "worker_id=0 workers=1 shards_per_worker=1 k=1 mode=direct crash=none \
             stream_n=1 universe=1 skew=1 seed=1",
            // Workloads the stream generator would panic on.
            "worker_id=0 workers=1 shards_per_worker=1 k=1 crash=none \
             stream_n=1 universe=0 skew=1 seed=1",
            "worker_id=0 workers=1 shards_per_worker=1 k=1 crash=none \
             stream_n=1 universe=1 skew=-1 seed=1",
            "worker_id=0 workers=1 shards_per_worker=1 k=1 crash=none \
             stream_n=1 universe=1 skew=NaN seed=1",
            "worker_id=0 workers=1 shards_per_worker=1 k=1 crash=none \
             stream_n=1 universe=1 skew=inf seed=1",
        ] {
            assert!(
                WorkerSpec::from_env_string(bad).is_err(),
                "accepted: {bad:?}"
            );
        }
    }

    /// At every block width the fleet's summaries reproduce the
    /// single-process sharded reference bit-exactly, and every item lands in
    /// exactly one worker's slice. The last shape's stream is short enough
    /// that some owned shard receives no items; its empty summary must
    /// match the reference's too.
    #[test]
    fn workers_reproduce_the_sequential_reference() {
        let mut shapes: Vec<WorkerSpec> = (1..=3)
            .map(|shards_per_worker| WorkerSpec {
                shards_per_worker,
                ..spec(0)
            })
            .collect();
        let sparse = WorkerSpec {
            shards_per_worker: 3,
            ..spec(0)
        };
        let total = sparse.total_shards();
        let stream_n = (1..=64)
            .rev()
            .find(|&n| {
                let stream = WorkerSpec {
                    stream_n: n,
                    ..sparse.clone()
                }
                .generate_stream();
                (0..total).any(|g| stream.iter().all(|x| shard_of_key(x, total) != g))
            })
            .expect("at most 8 items cannot cover 9 shards");
        shapes.push(WorkerSpec { stream_n, ..sparse });

        for template in &shapes {
            let stream = template.generate_stream();
            let (reference, merged_ref) = dpmg_pipeline::sequential_sharded_reference(
                &stream,
                template.total_shards(),
                template.k,
            );
            let shape = format!(
                "{}×{} over {} items",
                template.workers, template.shards_per_worker, template.stream_n
            );
            let mut collected: Vec<Summary<u64>> = Vec::new();
            let mut items = 0;
            for w in 0..template.workers {
                let s = WorkerSpec {
                    worker_id: w,
                    ..template.clone()
                };
                let mut wire = Vec::new();
                let mut go: &[u8] = &[crate::protocol::GO_BYTE];
                let stats = run_worker(&s, &stream, &mut go, &mut wire).unwrap();

                let mut r = wire.as_slice();
                let hello = read_hello(&mut r).unwrap();
                assert_eq!(hello, s.hello());
                let report = read_report(&mut r, hello).unwrap();
                assert_eq!(report.items, stats.items);
                assert_eq!(report.summaries.len(), s.shards_per_worker);
                items += report.items;
                collected.extend(report.summaries);
            }
            assert_eq!(items, stream.len() as u64, "{shape}");
            assert_eq!(collected, reference, "{shape} diverged per shard");
            assert_eq!(
                merge_tree(&collected).unwrap(),
                merged_ref,
                "{shape} diverged after merge"
            );
        }
    }

    #[test]
    fn crash_points_produce_the_advertised_wire_shapes() {
        let stream = spec(0).generate_stream();

        // before-hello: nothing on the wire at all.
        let mut s = spec(0);
        s.crash = Some(CrashPoint::BeforeHello);
        let mut wire = Vec::new();
        let mut go: &[u8] = &[];
        run_worker(&s, &stream, &mut go, &mut wire).unwrap();
        assert!(wire.is_empty());

        // after-summaries:1 — HELLO + DONE + 1 summary, then silence.
        let mut s = spec(0);
        s.crash = Some(CrashPoint::AfterSummaries(1));
        let mut wire = Vec::new();
        let mut go: &[u8] = &[crate::protocol::GO_BYTE];
        run_worker(&s, &stream, &mut go, &mut wire).unwrap();
        let mut r = wire.as_slice();
        let hello = read_hello(&mut r).unwrap();
        let err = read_report(&mut r, hello).unwrap_err();
        assert!(matches!(err, FleetError::Protocol(_)), "got: {err}");

        // mid-frame — the torn summary must surface as a framing error.
        let mut s = spec(0);
        s.crash = Some(CrashPoint::MidFrame);
        let mut wire = Vec::new();
        let mut go: &[u8] = &[crate::protocol::GO_BYTE];
        run_worker(&s, &stream, &mut go, &mut wire).unwrap();
        let mut r = wire.as_slice();
        let hello = read_hello(&mut r).unwrap();
        let err = read_report(&mut r, hello).unwrap_err();
        assert!(matches!(err, FleetError::Frame(_)), "got: {err}");
    }

    #[test]
    fn worker_blocks_until_go_and_rejects_a_closed_barrier() {
        let s = spec(2);
        let stream = s.generate_stream();
        let mut wire = Vec::new();
        let mut go: &[u8] = &[]; // aggregator hung up before GO
        let err = run_worker(&s, &stream, &mut go, &mut wire).unwrap_err();
        assert!(matches!(err, FleetError::Protocol(_)));
        // HELLO was still sent — the crash happened at the barrier.
        let mut r = wire.as_slice();
        assert!(read_hello(&mut r).is_ok());
    }

    #[test]
    fn write_go_then_worker_sees_barrier_release() {
        let s = spec(0);
        let stream = s.generate_stream();
        let mut barrier = Vec::new();
        write_go(&mut barrier).unwrap();
        let mut go = barrier.as_slice();
        let mut wire = Vec::new();
        let stats = run_worker(&s, &stream, &mut go, &mut wire).unwrap();
        assert!(stats.items > 0);
    }
}
