//! End-to-end rounds: set up the stack, drive one round of a plan through
//! the workload's public entry point, and check every reply. The round
//! reports its final snapshot's digest; the caller compares it with the
//! sequential reference's.

use crate::client::{Client, Reply};
use crate::plan::{
    budget, durability, mechanism, noise_seed, per_release, service_config, snapshot_digest, Op,
    Plan, Requests, Workload, QUERY_RATES,
};
use crate::stats::{open_loop, percentile, sorted, window_rates};
use crate::trace::Tracer;
use dpmg_server::api_types::topk_body;
use dpmg_server::{AppState, Server, ServerConfig, ServiceBackend};
use dpmg_service::{DpmgService, DurableService, ReleasedSnapshot};
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A query step passes when its p99 latency and the completion of its
/// last request after the step ends both stay within this limit.
const QUERY_LIMIT_S: f64 = 0.002;
/// A step whose generator ran later than this at p99 is invalid.
const LAG_LIMIT_S: f64 = 0.001;
/// Consecutive ops per throughput window of a closed loop.
pub const WINDOW_OPS: usize = 32;

/// Everything a round needs besides its tracer.
pub struct Ctx<'a> {
    pub plan: &'a Plan,
    pub requests: &'a Requests,
    pub seed: u64,
    /// Scratch directory for WAL state; emptied before each use.
    pub dir: PathBuf,
}

impl Ctx<'_> {
    /// A fresh, empty WAL directory for one stack.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.dir.join(name);
        remove_dir(&dir)?;
        Ok(dir)
    }
}

pub fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(format!("{}: {e}", dir.display())),
        _ => Ok(()),
    }
}

fn io_err(e: impl std::fmt::Display) -> String {
    format!("i/o: {e}")
}

/// One query step of `query_mix`, pooled over rounds by the caller.
#[derive(Default)]
pub struct Step {
    pub latency_s: Vec<f64>,
    pub lag_s: Vec<f64>,
    /// Every request of the step completed within the limit after the
    /// step ended.
    pub drained: bool,
}

impl Step {
    pub fn passes(&self) -> bool {
        let p99 = percentile(&sorted(self.latency_s.clone()), 990);
        let lag = percentile(&sorted(self.lag_s.clone()), 990);
        self.drained && p99 <= QUERY_LIMIT_S && lag <= LAG_LIMIT_S
    }
}

/// What one round measured.
#[derive(Default)]
pub struct Round {
    pub setup_s: f64,
    pub wall_s: f64,
    /// Acknowledged items.
    pub items: u64,
    /// Acknowledged items per second over each [`WINDOW_OPS`]-op window of
    /// a closed loop, or over each `POST /ingest` round trip of the open
    /// loop, whose schedule fixes its overall rate.
    pub window_rates: Vec<f64>,
    /// The workload's primary request: one ingest call or POST, or (in
    /// `query_mix`) one GET at the 10k req/s step, from its due time.
    pub request_s: Vec<f64>,
    /// One release call or `POST /epoch/end` round trip.
    pub release_s: Vec<f64>,
    /// How late the generator sent each request: after the previous
    /// reply in a closed loop, after its due time in the open loop.
    pub lag_s: Vec<f64>,
    pub backlog_max: u64,
    pub attempted: u64,
    pub failed: u64,
    pub recovery_s: Option<f64>,
    pub steps: Vec<Step>,
    /// [`snapshot_digest`] of the backend's final released snapshot, for
    /// the caller to compare with the reference's.
    pub snapshot_digest: u64,
}

impl Round {
    /// Counts one op; a non-2xx reply or a failed call is a failure.
    fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Each closed-loop op's end, seconds from the phase start, and the items
/// it got acknowledged: the input of [`window_rates`].
#[derive(Default)]
struct Ends {
    at: Vec<f64>,
    items: Vec<u64>,
}

impl Ends {
    fn push(&mut self, phase: Instant, end: Instant, items: u64) {
        self.at.push((end - phase).as_secs_f64());
        self.items.push(items);
    }

    fn rates(&self) -> Vec<f64> {
        window_rates(&self.at, &self.items, WINDOW_OPS)
    }
}

pub fn run(ctx: &Ctx<'_>, tracer: &mut Tracer) -> Result<Round, String> {
    match ctx.plan.workload {
        Workload::EmbedIngest => embedded(ctx, tracer),
        Workload::HttpIngest | Workload::EpochChurn => closed_loop(ctx, tracer),
        Workload::QueryMix => open_loop_round(ctx, tracer),
    }
}

fn embedded(ctx: &Ctx<'_>, tracer: &mut Tracer) -> Result<Round, String> {
    let plan = ctx.plan;
    let mut round = Round {
        backlog_max: 1,
        ..Round::default()
    };
    let t0 = Instant::now();
    let mut service = DpmgService::new(
        service_config(plan.k),
        mechanism(plan.k),
        budget(),
        noise_seed(ctx.seed),
    )
    .map_err(|e| e.to_string())?;
    round.setup_s = t0.elapsed().as_secs_f64();

    let root = tracer.open("e2e.round");
    let phase = Instant::now();
    let mut prev = phase;
    let mut ends = Ends::default();
    let mut epochs = 0;
    for (i, op) in plan.ops.iter().enumerate() {
        let start = Instant::now();
        let (ok, name) = match *op {
            Op::Ingest(c) => {
                let ok = service.ingest_from(plan.chunk_items(c).iter().copied());
                (ok.is_ok(), "e2e.ingest")
            }
            Op::EndEpoch => {
                epochs += 1;
                let snapshot = service.end_epoch();
                if let Ok(s) = &snapshot {
                    if s.epoch != epochs {
                        return Err(format!(
                            "end_epoch released epoch {}, not {epochs}",
                            s.epoch
                        ));
                    }
                }
                (snapshot.is_ok(), "e2e.release")
            }
            Op::Topk | Op::Point(_) => unreachable!("embed_ingest only writes"),
        };
        let end = Instant::now();
        tracer.record(name, root, Some(i), start, end);
        round.count(ok);
        round.lag_s.push((start - prev).as_secs_f64());
        let took = (end - start).as_secs_f64();
        match op {
            Op::Ingest(_) => {
                round.request_s.push(took);
                ends.push(phase, end, if ok { plan.chunk as u64 } else { 0 });
            }
            _ => {
                round.release_s.push(took);
                ends.push(phase, end, 0);
            }
        }
        prev = end;
    }
    round.wall_s = phase.elapsed().as_secs_f64();
    tracer.close(root);
    round.window_rates = ends.rates();
    round.items = ends.items.iter().sum();
    round.snapshot_digest = snapshot_digest(&service.latest());
    Ok(round)
}

/// The server every HTTP workload runs: 2 handler threads over a durable
/// backend in a fresh directory.
pub fn start_server(plan: &Plan, seed: u64, dir: &Path) -> Result<Server, String> {
    let state = app_state(plan, seed, dir)?;
    Server::start(ServerConfig::default().with_threads(2), state).map_err(io_err)
}

pub fn app_state(plan: &Plan, seed: u64, dir: &Path) -> Result<AppState, String> {
    let (service, _) = DurableService::open(
        service_config(plan.k),
        mechanism(plan.k),
        budget(),
        durability(dir.to_path_buf()),
        noise_seed(seed),
    )
    .map_err(|e| e.to_string())?;
    Ok(AppState::new(
        ServiceBackend::Durable(service),
        per_release(),
        budget(),
    ))
}

/// The newest snapshot behind a server or in-process state.
pub fn latest(state: &AppState) -> Result<Arc<ReleasedSnapshot<u64>>, String> {
    match &*state.backend().map_err(|e| e.to_string())? {
        ServiceBackend::Durable(s) => Ok(s.latest()),
        ServiceBackend::InMemory(s) => Ok(s.latest()),
    }
}

/// Checks one reply. `Ok(false)` is a failed op (non-2xx); a 2xx reply
/// with the wrong content is a wrong answer and fails the gate.
pub fn check_reply(op: Op, reply: &Reply, chunk: usize, epochs: &mut u64) -> Result<bool, String> {
    if reply.status != 200 {
        return Ok(false);
    }
    match op {
        Op::Ingest(_) => {
            if reply.field("accepted") != Some(chunk as u64) {
                return Err(format!(
                    "POST /ingest acknowledged {:?}",
                    reply.field("accepted")
                ));
            }
        }
        Op::EndEpoch => {
            *epochs += 1;
            if reply.field("epoch") != Some(*epochs) {
                return Err(format!(
                    "POST /epoch/end released epoch {:?}, not {epochs}",
                    reply.field("epoch")
                ));
            }
        }
        Op::Topk | Op::Point(_) => {}
    }
    Ok(true)
}

/// One `GET /topk` body must equal the top-k of `snapshot` (the backend's
/// latest, which the caller checks against the reference) rendered by the
/// API's codec.
fn check_topk(client: &mut Client, snapshot: &ReleasedSnapshot<u64>) -> Result<(), String> {
    let reply = client.request(&Requests::probe(Op::Topk)).map_err(io_err)?;
    let want = topk_body(snapshot.epoch, &snapshot.top_k(10));
    if reply.status != 200 || reply.body != want.as_bytes() {
        return Err(format!(
            "GET /topk answered {} {:?}, reference {want:?}",
            reply.status,
            String::from_utf8_lossy(&reply.body)
        ));
    }
    Ok(())
}

/// Sends the seeding ops (the `query_mix` seed) closed-loop.
fn seed_ops(ctx: &Ctx<'_>, client: &mut Client, epochs: &mut u64) -> Result<(), String> {
    for (i, &op) in ctx.plan.ops[..ctx.plan.setup_ops].iter().enumerate() {
        let reply = client.request(ctx.requests.get(i)).map_err(io_err)?;
        if !check_reply(op, &reply, ctx.plan.chunk, epochs)? {
            return Err(format!("set-up request {i} answered {}", reply.status));
        }
    }
    Ok(())
}

fn closed_loop(ctx: &Ctx<'_>, tracer: &mut Tracer) -> Result<Round, String> {
    let plan = ctx.plan;
    let dir = ctx.fresh_dir("stack")?;
    let mut round = Round {
        backlog_max: 1,
        ..Round::default()
    };
    let t0 = Instant::now();
    let server = start_server(plan, ctx.seed, &dir)?;
    let mut client = Client::connect(server.addr()).map_err(io_err)?;
    round.setup_s = t0.elapsed().as_secs_f64();

    let root = tracer.open("e2e.round");
    let phase = Instant::now();
    let mut prev = phase;
    let mut ends = Ends::default();
    let mut epochs = 0;
    for (i, &op) in plan.ops.iter().enumerate() {
        let start = Instant::now();
        let reply = client.request(ctx.requests.get(i)).map_err(io_err)?;
        let end = Instant::now();
        tracer.record("e2e.request", root, Some(i), start, end);
        let ok = check_reply(op, &reply, plan.chunk, &mut epochs)?;
        round.count(ok);
        round.lag_s.push((start - prev).as_secs_f64());
        let took = (end - start).as_secs_f64();
        match op {
            Op::Ingest(_) => {
                round.request_s.push(took);
                ends.push(phase, end, if ok { plan.chunk as u64 } else { 0 });
            }
            _ => {
                round.release_s.push(took);
                ends.push(phase, end, 0);
            }
        }
        prev = end;
    }
    round.wall_s = phase.elapsed().as_secs_f64();
    tracer.close(root);
    round.window_rates = ends.rates();
    round.items = ends.items.iter().sum();

    let snapshot = latest(server.state())?;
    round.snapshot_digest = snapshot_digest(&snapshot);
    check_topk(&mut client, &snapshot)?;
    drop(client);
    // Dropping the server drops the durable service with the round's
    // half-open epoch in it; the reopen replays it.
    server.shutdown();
    if plan.workload == Workload::HttpIngest {
        round.recovery_s = Some(recover(ctx, &dir, round.snapshot_digest)?);
    }
    remove_dir(&dir)?;
    Ok(round)
}

/// Times `DurableService::open` over a dropped stack's directory and
/// checks what it recovered: the plan's releases and open epoch, and the
/// snapshot the stack served before it was dropped.
pub fn recover(ctx: &Ctx<'_>, dir: &Path, served: u64) -> Result<f64, String> {
    let mechanism = mechanism(ctx.plan.k);
    let t0 = Instant::now();
    let (service, report) = DurableService::open(
        service_config(ctx.plan.k),
        mechanism,
        budget(),
        durability(dir.to_path_buf()),
        noise_seed(ctx.seed),
    )
    .map_err(|e| e.to_string())?;
    let took = t0.elapsed().as_secs_f64();
    let got = (
        report.recovered,
        service.completed_epochs(),
        service.open_epoch_items(),
    );
    let want = (true, ctx.plan.releases(), ctx.plan.open_items());
    if got != want {
        return Err(format!(
            "recovery found (recovered, epochs, open items) = {got:?}, expected {want:?}"
        ));
    }
    crate::plan::check_snapshot(&service.latest(), served)?;
    Ok(took)
}

/// Connection B of the open loop: releases and ingests sent without
/// waiting, their replies polled by the sender between sends.
struct Writes<'a> {
    client: &'a mut Client,
    /// Op indices sent and not yet answered, in send order.
    pending: VecDeque<usize>,
    ops: &'a [Op],
    chunk: usize,
    phase: Instant,
    epochs: &'a mut u64,
}

impl Writes<'_> {
    /// Sends one write in blocking mode, so a large body is never cut
    /// short by a full socket buffer.
    fn send(&mut self, op: usize, bytes: &[u8]) -> Result<(), String> {
        self.client.set_nonblocking(false).map_err(io_err)?;
        self.client.send(bytes).map_err(io_err)?;
        self.client.set_nonblocking(true).map_err(io_err)?;
        self.pending.push_back(op);
        Ok(())
    }

    /// Takes whatever replies have arrived, without blocking.
    fn poll(&mut self, received: &mut [f64], statuses: &mut [u16]) -> Result<(), String> {
        match self.client.fill() {
            Ok(0) => return Err("connection B closed".into()),
            Err(e) if e.kind() != io::ErrorKind::WouldBlock => return Err(io_err(e)),
            _ => {}
        }
        while let Some(reply) = self.client.take_reply().map_err(io_err)? {
            let j = self.pending.pop_front().ok_or("unexpected reply on B")?;
            received[j] = self.phase.elapsed().as_secs_f64();
            statuses[j] = reply.status;
            check_reply(self.ops[j], &reply, self.chunk, self.epochs)?;
        }
        Ok(())
    }

    /// Blocks until every write is answered.
    fn finish(&mut self, received: &mut [f64], statuses: &mut [u16]) -> Result<(), String> {
        self.client.set_nonblocking(false).map_err(io_err)?;
        while !self.pending.is_empty() {
            self.poll(received, statuses)?;
        }
        Ok(())
    }
}

fn since(phase: Instant, t: f64) -> Instant {
    phase + Duration::from_secs_f64(t)
}

fn open_loop_round(ctx: &Ctx<'_>, tracer: &mut Tracer) -> Result<Round, String> {
    let plan = ctx.plan;
    let dir = ctx.fresh_dir("stack")?;
    let mut round = Round::default();
    let t0 = Instant::now();
    let server = start_server(plan, ctx.seed, &dir)?;
    let mut reads = Client::connect(server.addr()).map_err(io_err)?;
    let mut writes = Client::connect(server.addr()).map_err(io_err)?;
    round.setup_s = t0.elapsed().as_secs_f64();
    // Seeding is input, not set-up: its time is ingest throughput, which
    // `http_ingest` measures, and it would swamp the stack's set-up.
    let mut epochs = 0;
    seed_ops(ctx, &mut reads, &mut epochs)?;

    let first = plan.setup_ops;
    let ops = plan.measured();
    let due: Vec<f64> = plan.due_us.iter().map(|&us| us as f64 * 1e-6).collect();
    let is_read = |op: &Op| matches!(op, Op::Topk | Op::Point(_));
    let read_count = ops.iter().filter(|op| is_read(op)).count();
    let mut sent = vec![0.0; ops.len()];
    let mut received = vec![0.0; ops.len()];
    let mut statuses = vec![0u16; ops.len()];

    let phase = Instant::now();
    let read_replies = std::thread::scope(|scope| -> Result<Vec<(f64, Reply)>, String> {
        // Connection A's replies arrive in send order; one thread reads
        // them as they land.
        let mut receiver = reads.reader().map_err(io_err)?;
        let receiving = scope.spawn(move || -> io::Result<Vec<(f64, Reply)>> {
            let mut out = Vec::with_capacity(read_count);
            while out.len() < read_count {
                let reply = receiver.read_reply()?;
                out.push((phase.elapsed().as_secs_f64(), reply));
            }
            Ok(out)
        });
        let mut writes = Writes {
            client: &mut writes,
            pending: VecDeque::new(),
            ops,
            chunk: plan.chunk,
            phase,
            epochs: &mut epochs,
        };
        writes.client.set_nonblocking(true).map_err(io_err)?;
        let mut batch = Vec::new();
        let mut next = 0;
        while next < ops.len() {
            writes.poll(&mut received, &mut statuses)?;
            let now = phase.elapsed().as_secs_f64();
            if due[next] > now {
                std::thread::sleep(Duration::from_secs_f64(due[next] - now));
                continue;
            }
            batch.clear();
            while next < ops.len() && due[next] <= now {
                sent[next] = now;
                let bytes = ctx.requests.get(first + next);
                if is_read(&ops[next]) {
                    batch.extend_from_slice(bytes);
                } else {
                    writes.send(next, bytes)?;
                }
                next += 1;
            }
            if !batch.is_empty() {
                reads.send(&batch).map_err(io_err)?;
            }
        }
        writes.finish(&mut received, &mut statuses)?;
        receiving
            .join()
            .map_err(|_| "receiver panicked".to_string())?
            .map_err(io_err)
    })?;

    let reads_at: Vec<usize> = (0..ops.len()).filter(|&j| is_read(&ops[j])).collect();
    for (&j, (t, reply)) in reads_at.iter().zip(&read_replies) {
        received[j] = *t;
        statuses[j] = reply.status;
    }
    round.wall_s = received.iter().copied().fold(0.0, f64::max);

    let root = tracer.record("e2e.round", None, None, phase, since(phase, round.wall_s));
    round.steps = (0..QUERY_RATES.len()).map(|_| Step::default()).collect();
    for (j, op) in ops.iter().enumerate() {
        round.count(statuses[j] == 200);
        let name = if is_read(op) {
            "e2e.query"
        } else {
            "e2e.write"
        };
        let span = (since(phase, sent[j]), since(phase, received[j]));
        tracer.record(name, root, Some(first + j), span.0, span.1);
        match op {
            Op::Ingest(_) if statuses[j] == 200 => {
                round.items += plan.chunk as u64;
                let took = received[j] - sent[j];
                round.window_rates.push(plan.chunk as f64 / took);
            }
            Op::Ingest(_) => {}
            Op::EndEpoch => round.release_s.push(received[j] - sent[j]),
            Op::Topk | Op::Point(_) => {
                let step = &mut round.steps[Plan::step_of(plan.due_us[j])];
                step.latency_s.push(received[j] - due[j]);
                step.lag_s.push(sent[j] - due[j]);
            }
        }
    }
    for (s, step) in round.steps.iter_mut().enumerate() {
        let end = Plan::step_end_us(s) as f64 * 1e-6;
        step.drained = reads_at
            .iter()
            .filter(|&&j| Plan::step_of(plan.due_us[j]) == s)
            .all(|&j| received[j] <= end + QUERY_LIMIT_S);
    }
    round.request_s = round.steps[1].latency_s.clone();
    let pick = |v: &[f64]| reads_at.iter().map(|&j| v[j]).collect::<Vec<_>>();
    let (lag, backlog) = open_loop(&pick(&due), &pick(&sent), &pick(&received));
    round.lag_s = lag;
    round.backlog_max = backlog;

    let snapshot = latest(server.state())?;
    round.snapshot_digest = snapshot_digest(&snapshot);
    check_topk(&mut reads, &snapshot)?;
    drop((reads, writes));
    server.shutdown();
    remove_dir(&dir)?;
    Ok(round)
}
