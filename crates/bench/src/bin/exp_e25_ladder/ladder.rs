//! The traced ladder: replays one round's exact ops through each layer's
//! public functions, one rung at a time, with a span around every call.
//! A rung's self time is its time minus the rungs beneath it
//! ([`Rungs::self_times`]).

use crate::client::Client;
use crate::e2e::{app_state, check_reply, latest, recover, remove_dir, start_server, Ctx};
use crate::plan::{budget, check_snapshot, mechanism, noise_seed, service_config, Op, Requests};
use crate::stats::{median, percentile, shares, sorted, tail_permille, Rungs};
use crate::trace::Tracer;
use crate::Metric;
use dpmg_core::mechanism::release_merged_metered;
use dpmg_noise::accounting::Accountant;
use dpmg_pipeline::{ring, shard_of_key, ShardedPipeline};
use dpmg_server::http::read_request;
use dpmg_server::{handlers, ServerConfig};
use dpmg_service::{DpmgService, DurableService};
use dpmg_sketch::misra_gries::MisraGries;
use dpmg_sketch::traits::Summary;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// `extend_batch` chunk of the sketch rung.
const SKETCH_BATCH: usize = 4096;
/// Reads issued after each read-capable rung's replay, so every workload
/// reports read costs; they count in no rung total.
const PROBES: usize = 1000;

fn pct(name: &str, samples: &[f64], permille: u64, scale: f64, unit: &'static str) -> Metric {
    let sorted = sorted(samples.to_vec());
    Metric::new(
        name,
        percentile(&sorted, permille) * scale,
        unit,
        samples.len(),
    )
}

/// A tail percentile at the highest rank the sample supports.
fn tail(name: &str, samples: &[f64], scale: f64, unit: &'static str) -> Metric {
    let permille = tail_permille(samples.len());
    pct(name, samples, permille, scale, unit).at(permille)
}

fn sum(values: &[f64]) -> f64 {
    values.iter().sum()
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Ladder repetitions; rung times and the end-to-end wall behind the
/// shares are medians over them.
pub const REPS: usize = 3;

/// What one repetition measured besides its spans.
pub struct Rep {
    rungs: Rungs,
    decrements: u64,
    space_bytes: usize,
    handoff_s: f64,
    wal_bytes: u64,
    recovery_s: f64,
}

/// Runs every rung once over `ctx.plan`; each rung that serves snapshots
/// must end on the reference's, whose digest is `want`.
pub fn rep(ctx: &Ctx<'_>, tracer: &mut Tracer, want: u64) -> Result<Rep, String> {
    let first = ctx.plan.setup_ops;
    let (sketch, decrements, space_bytes) = sketch_rung(ctx, tracer);
    let (pipeline, summaries) = pipeline_rung(ctx, tracer)?;
    let handoff_s = handoff(ctx);
    let core = core_rung(ctx, tracer, &summaries)?;
    let service = service_rung(ctx, tracer, want)?;
    let (wal, wal_bytes, recovery_s) = wal_rung(ctx, tracer, want)?;
    server_rung(ctx, tracer, want)?;
    let socket = socket_rung(ctx, tracer, want)?;
    Ok(Rep {
        rungs: Rungs {
            sketch: tracer.total_under(sketch, first),
            pipeline: tracer.total_under(pipeline, first),
            core: tracer.total_under(core, first),
            service: tracer.total_under(service, first),
            wal: tracer.total_under(wal, first),
            socket: tracer.total_under(socket, first),
        },
        decrements,
        space_bytes,
        handoff_s,
        wal_bytes,
        recovery_s,
    })
}

/// Per-op samples of the spans called any of `names`, grouped by op
/// index, in record order (one per repetition).
fn by_op(tracer: &Tracer, names: &[&str], ops: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); ops];
    for name in names {
        for (op, t) in tracer.per_op(name) {
            out[op].push(t);
        }
    }
    out
}

/// The per-layer metrics from the repetitions' spans; `wall_s` is the
/// median measured wall of the traced end-to-end rounds.
pub fn metrics(ctx: &Ctx<'_>, tracer: &Tracer, reps: &[Rep], wall_s: f64) -> Vec<Metric> {
    let plan = ctx.plan;
    let n = plan.ops.len() * reps.len();
    let items = (plan.items(&plan.ops) * reps.len() as u64) as f64;
    let per_rep = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let d = |name: &str| tracer.durations(name);
    let mut m = vec![
        Metric::new(
            "sketch.items_per_s",
            items / sum(&d("sketch.extend_batch")),
            "items/s",
            n,
        ),
        Metric::new(
            "sketch.decrements_per_mitem",
            per_rep(&|r| r.decrements as f64) / plan.items(&plan.ops) as f64 * 1e6,
            "count",
            reps.len(),
        ),
        Metric::new(
            "sketch.space_bytes",
            per_rep(&|r| r.space_bytes as f64),
            "bytes",
            reps.len(),
        ),
        Metric::new(
            "pipeline.items_per_s",
            items / (sum(&d("pipeline.ingest")) + sum(&d("pipeline.rotate"))),
            "items/s",
            n,
        ),
        Metric::new(
            "pipeline.handoff_items_per_s",
            plan.items(&plan.ops) as f64 / per_rep(&|r| r.handoff_s),
            "items/s",
            reps.len(),
        ),
        pct(
            "pipeline.rotate_ms_p50",
            &d("pipeline.rotate"),
            500,
            1e3,
            "ms",
        ),
        tail("pipeline.rotate_ms_tail", &d("pipeline.rotate"), 1e3, "ms"),
        pct("core.release_us_p50", &d("core.release"), 500, 1e6, "us"),
        Metric::new(
            "service.items_per_s",
            items / (sum(&d("service.ingest")) + sum(&d("service.end_epoch"))),
            "items/s",
            n,
        ),
        pct(
            "service.end_epoch_ms_p50",
            &d("service.end_epoch"),
            500,
            1e3,
            "ms",
        ),
        tail(
            "service.end_epoch_ms_tail",
            &d("service.end_epoch"),
            1e3,
            "ms",
        ),
        pct("service.topk_us_p50", &d("service.topk"), 500, 1e6, "us"),
        pct("service.point_us_p50", &d("service.point"), 500, 1e6, "us"),
        Metric::new(
            "wal.items_per_s",
            items / (sum(&d("wal.ingest")) + sum(&d("wal.end_epoch"))),
            "items/s",
            n,
        ),
        pct("wal.end_epoch_ms_p50", &d("wal.end_epoch"), 500, 1e3, "ms"),
        Metric::new(
            "wal.bytes_per_item",
            per_rep(&|r| r.wal_bytes as f64) / plan.items(&plan.ops) as f64,
            "bytes/item",
            reps.len(),
        ),
        Metric::new(
            "wal.recovery_s",
            per_rep(&|r| r.recovery_s),
            "s",
            reps.len(),
        ),
        pct("server.parse_us_p50", &d("server.parse"), 500, 1e6, "us"),
        pct(
            "server.ingest_handle_us_p50",
            &d("server.ingest_handle"),
            500,
            1e6,
            "us",
        ),
        pct(
            "server.topk_handle_us_p50",
            &d("server.topk_handle"),
            500,
            1e6,
            "us",
        ),
        pct(
            "server.point_handle_us_p50",
            &d("server.point_handle"),
            500,
            1e6,
            "us",
        ),
        pct(
            "server.epoch_end_handle_ms_p50",
            &d("server.epoch_end_handle"),
            500,
            1e3,
            "ms",
        ),
    ];

    // Per op: the live round trip minus its in-process parse and handle,
    // each the median over repetitions.
    let round_trips = by_op(tracer, &["socket.request"], plan.ops.len());
    let parses = by_op(tracer, &["server.parse"], plan.ops.len());
    let handles = by_op(
        tracer,
        &[
            "server.ingest_handle",
            "server.epoch_end_handle",
            "server.topk_handle",
            "server.point_handle",
        ],
        plan.ops.len(),
    );
    let socket: Vec<f64> = (0..plan.ops.len())
        .map(|op| median(&round_trips[op]) - median(&parses[op]) - median(&handles[op]))
        .collect();
    m.push(Metric::new(
        "server.socket_us_p50",
        median(&socket) * 1e6,
        "us",
        n,
    ));

    let rung = |f: &dyn Fn(&Rungs) -> f64| per_rep(&|r| f(&r.rungs));
    let rungs = Rungs {
        sketch: rung(&|r| r.sketch),
        pipeline: rung(&|r| r.pipeline),
        core: rung(&|r| r.core),
        service: rung(&|r| r.service),
        wal: rung(&|r| r.wal),
        socket: rung(&|r| r.socket),
    };
    let on_path = if plan.workload.is_embedded() { 4 } else { 6 };
    for (name, share) in shares(&rungs.self_times(), wall_s, on_path) {
        m.push(Metric::new(&name, share, "ratio", reps.len()));
    }
    m
}

fn sketch_rung(ctx: &Ctx<'_>, tracer: &mut Tracer) -> (Option<usize>, u64, usize) {
    let plan = ctx.plan;
    let new = || MisraGries::<u64>::new(plan.k).expect("k ≥ 1");
    let root = tracer.open("ladder.sketch");
    let mut sketch = new();
    let (mut decrements, mut space) = (0, 0);
    for (i, op) in plan.ops.iter().enumerate() {
        match *op {
            Op::Ingest(c) => {
                for part in plan.chunk_items(c).chunks(SKETCH_BATCH) {
                    let t = Instant::now();
                    sketch.extend_batch(part);
                    tracer.record("sketch.extend_batch", root, Some(i), t, Instant::now());
                }
            }
            // Each epoch sketches from scratch, as the shard workers do.
            Op::EndEpoch => {
                decrements += sketch.decrement_count();
                space = space.max(sketch.space_bytes());
                sketch = new();
            }
            Op::Topk | Op::Point(_) => {}
        }
    }
    tracer.close(root);
    (
        root,
        decrements + sketch.decrement_count(),
        space.max(sketch.space_bytes()),
    )
}

/// Each epoch's merged summary with the op index of its release.
type Summaries = Vec<(usize, Summary<u64>)>;

/// `ingest_from` plus `rotate_epoch`.
fn pipeline_rung(ctx: &Ctx<'_>, tracer: &mut Tracer) -> Result<(Option<usize>, Summaries), String> {
    let plan = ctx.plan;
    let root = tracer.open("ladder.pipeline");
    let mut pipeline =
        ShardedPipeline::new(service_config(plan.k).pipeline_config()).map_err(err)?;
    let mut summaries = Vec::new();
    for (i, op) in plan.ops.iter().enumerate() {
        let t = Instant::now();
        match *op {
            Op::Ingest(c) => {
                pipeline
                    .ingest_from(plan.chunk_items(c).iter().copied())
                    .map_err(err)?;
                tracer.record("pipeline.ingest", root, Some(i), t, Instant::now());
            }
            Op::EndEpoch => {
                let (summary, _) = pipeline.rotate_epoch().map_err(err)?;
                tracer.record("pipeline.rotate", root, Some(i), t, Instant::now());
                summaries.push((i, summary));
            }
            Op::Topk | Op::Point(_) => {}
        }
    }
    drop(pipeline);
    tracer.close(root);
    Ok((root, summaries))
}

/// The router alone: route every ingested item and hand full batches
/// through the engine's ring topology to a sink that only drains them.
/// Returns the seconds taken.
fn handoff(ctx: &Ctx<'_>) -> f64 {
    const CAPACITY: usize = 8;
    let plan = ctx.plan;
    let batch = service_config(plan.k).batch_size;
    let (mut tx, mut rx) = ring::bounded::<Vec<u64>>(CAPACITY);
    // The engine's sizing: the sink's give-back can never block.
    let (mut give_back, mut spare) = ring::bounded::<Vec<u64>>(CAPACITY + 2);
    let start = Instant::now();
    let drained = std::thread::scope(|scope| {
        let sink = scope.spawn(move || {
            let mut drained = 0u64;
            while let Ok(mut block) = rx.recv() {
                drained += block.len() as u64;
                block.clear();
                let _ = give_back.send(block);
            }
            drained
        });
        let mut buffers = vec![Vec::with_capacity(batch)];
        for op in &plan.ops {
            let Op::Ingest(c) = *op else { continue };
            for &item in plan.chunk_items(c) {
                let shard = shard_of_key(&item, 1);
                buffers[shard].push(item);
                if buffers[shard].len() == batch {
                    let fresh = spare
                        .try_recv()
                        .unwrap_or_else(|_| Vec::with_capacity(batch));
                    tx.send(std::mem::replace(&mut buffers[shard], fresh))
                        .expect("sink alive");
                }
            }
        }
        if let Some(rest) = buffers.pop().filter(|b| !b.is_empty()) {
            tx.send(rest).expect("sink alive");
        }
        drop(tx);
        sink.join().expect("sink thread")
    });
    let took = start.elapsed().as_secs_f64();
    assert_eq!(drained, plan.items(&plan.ops), "the sink lost items");
    took
}

/// GSHM noise plus threshold on every rotated summary.
fn core_rung(
    ctx: &Ctx<'_>,
    tracer: &mut Tracer,
    summaries: &Summaries,
) -> Result<Option<usize>, String> {
    let mechanism = mechanism(ctx.plan.k);
    let mut accountant = Accountant::new(budget());
    let mut rng = StdRng::seed_from_u64(noise_seed(ctx.seed));
    let root = tracer.open("ladder.core");
    for (op, summary) in summaries {
        let t = Instant::now();
        let release =
            release_merged_metered(mechanism.as_ref(), summary, &mut accountant, &mut rng)
                .map_err(err)?;
        black_box(release);
        tracer.record("core.release", root, Some(*op), t, Instant::now());
    }
    tracer.close(root);
    Ok(root)
}

/// Keys the read probes ask for: the head of the pool.
fn probe_keys<'a>(ctx: &Ctx<'a>) -> impl Iterator<Item = u64> + 'a {
    let plan: &'a crate::plan::Plan = ctx.plan;
    plan.chunk_items(0).iter().copied().take(PROBES)
}

fn service_rung(ctx: &Ctx<'_>, tracer: &mut Tracer, want: u64) -> Result<Option<usize>, String> {
    let plan = ctx.plan;
    let root = tracer.open("ladder.service");
    let mut service = DpmgService::new(
        service_config(plan.k),
        mechanism(plan.k),
        budget(),
        noise_seed(ctx.seed),
    )
    .map_err(err)?;
    let mut reads = service.query_handle();
    for (i, op) in plan.ops.iter().enumerate() {
        let t = Instant::now();
        let name = match *op {
            Op::Ingest(c) => {
                service
                    .ingest_from(plan.chunk_items(c).iter().copied())
                    .map_err(err)?;
                "service.ingest"
            }
            Op::EndEpoch => {
                service.end_epoch().map_err(err)?;
                "service.end_epoch"
            }
            Op::Topk => {
                black_box(reads.top_k(10));
                "service.topk"
            }
            Op::Point(key) => {
                black_box(reads.point_query(&key));
                "service.point"
            }
        };
        tracer.record(name, root, Some(i), t, Instant::now());
    }
    for key in probe_keys(ctx) {
        let t = Instant::now();
        black_box(reads.top_k(10));
        let u = Instant::now();
        black_box(reads.point_query(&key));
        tracer.record("service.topk", root, None, t, u);
        tracer.record("service.point", root, None, u, Instant::now());
    }
    tracer.close(root);
    check_snapshot(&service.latest(), want)?;
    Ok(root)
}

/// Bytes in a directory's files.
fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(err)? {
        total += entry.map_err(err)?.metadata().map_err(err)?.len();
    }
    Ok(total)
}

/// `DurableService` over a fresh directory. Returns the WAL bytes the
/// ingests appended (checkpoints run only at releases, so an ingest's
/// growth of the directory is exactly its log records) and the time to
/// reopen the directory once the service is dropped.
fn wal_rung(
    ctx: &Ctx<'_>,
    tracer: &mut Tracer,
    want: u64,
) -> Result<(Option<usize>, u64, f64), String> {
    let plan = ctx.plan;
    let dir = ctx.fresh_dir("wal")?;
    let root = tracer.open("ladder.wal");
    let (mut service, _) = DurableService::open(
        service_config(plan.k),
        mechanism(plan.k),
        budget(),
        crate::plan::durability(dir.clone()),
        noise_seed(ctx.seed),
    )
    .map_err(err)?;
    let mut reads = service.query_handle();
    let mut wal_bytes = 0;
    for (i, op) in plan.ops.iter().enumerate() {
        let before = match op {
            Op::Ingest(_) => dir_bytes(&dir)?,
            _ => 0,
        };
        let t = Instant::now();
        let name = match *op {
            Op::Ingest(c) => {
                service
                    .ingest_from(plan.chunk_items(c).iter().copied())
                    .map_err(err)?;
                "wal.ingest"
            }
            Op::EndEpoch => {
                service.end_epoch().map_err(err)?;
                "wal.end_epoch"
            }
            Op::Topk => {
                black_box(reads.top_k(10));
                "wal.topk"
            }
            Op::Point(key) => {
                black_box(reads.point_query(&key));
                "wal.point"
            }
        };
        tracer.record(name, root, Some(i), t, Instant::now());
        if matches!(op, Op::Ingest(_)) {
            wal_bytes += dir_bytes(&dir)?.saturating_sub(before);
        }
    }
    tracer.close(root);
    service.flush().map_err(err)?;
    check_snapshot(&service.latest(), want)?;
    drop(service);
    let recovery_s = recover(ctx, &dir, want)?;
    remove_dir(&dir)?;
    Ok((root, wal_bytes, recovery_s))
}

/// `http::read_request` over each op's exact request bytes, then
/// `handlers::handle` on in-process state over a durable backend.
fn server_rung(ctx: &Ctx<'_>, tracer: &mut Tracer, want: u64) -> Result<(), String> {
    let plan = ctx.plan;
    let dir = ctx.fresh_dir("server")?;
    let state = app_state(plan, ctx.seed, &dir)?;
    let mut reads = state.query_handle().map_err(err)?;
    let max_body = ServerConfig::default().max_body_bytes;
    let probes: Vec<(Op, Vec<u8>)> = probe_keys(ctx)
        .flat_map(|key| [Op::Topk, Op::Point(key)])
        .map(|op| (op, Requests::probe(op)))
        .collect();
    let ops = plan
        .ops
        .iter()
        .enumerate()
        .map(|(i, &op)| (Some(i), op, ctx.requests.get(i)));
    let probes = probes
        .iter()
        .map(|(op, bytes)| (None, *op, bytes.as_slice()));
    let root = tracer.open("ladder.server");
    for (req, op, mut bytes) in ops.chain(probes) {
        let t = Instant::now();
        let request = read_request(&mut bytes, max_body)
            .map_err(err)?
            .ok_or("empty request")?;
        let u = Instant::now();
        let response = handlers::handle(&state, &mut reads, &request);
        let v = Instant::now();
        if response.status != 200 {
            return Err(format!("in-process handler answered {}", response.status));
        }
        let name = match op {
            Op::Ingest(_) => "server.ingest_handle",
            Op::EndEpoch => "server.epoch_end_handle",
            Op::Topk => "server.topk_handle",
            Op::Point(_) => "server.point_handle",
        };
        tracer.record("server.parse", root, req, t, u);
        tracer.record(name, root, req, u, v);
    }
    tracer.close(root);
    let snapshot = latest(&state)?;
    check_snapshot(&snapshot, want)?;
    drop(state);
    remove_dir(&dir)
}

/// Every op closed-loop over a live server on one connection.
fn socket_rung(ctx: &Ctx<'_>, tracer: &mut Tracer, want: u64) -> Result<Option<usize>, String> {
    let plan = ctx.plan;
    let dir = ctx.fresh_dir("socket")?;
    let server = start_server(plan, ctx.seed, &dir)?;
    let mut client = Client::connect(server.addr()).map_err(err)?;
    let root = tracer.open("ladder.socket");
    let mut epochs = 0;
    for (i, &op) in plan.ops.iter().enumerate() {
        let t = Instant::now();
        let reply = client.request(ctx.requests.get(i)).map_err(err)?;
        tracer.record("socket.request", root, Some(i), t, Instant::now());
        if !check_reply(op, &reply, plan.chunk, &mut epochs)? {
            return Err(format!("live server answered {}", reply.status));
        }
    }
    tracer.close(root);
    let snapshot = latest(server.state())?;
    check_snapshot(&snapshot, want)?;
    drop(client);
    server.shutdown();
    remove_dir(&dir)?;
    Ok(root)
}
