//! The four workloads as data: each is a seeded item pool plus the exact
//! operation sequence of one round, generated and HTTP-encoded before any
//! timed region. Also the stack configuration every workload shares, the
//! sequential reference, and the snapshot gate.

use crate::stats::Fnv;
use dpmg_core::mechanism::{GshmMechanism, ReleaseMechanism};
use dpmg_noise::accounting::PrivacyParams;
use dpmg_service::{DurabilityConfig, ReleasedSnapshot, SequentialServiceReference, ServiceConfig};
use dpmg_workload::zipf::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::Instant;

/// Items in every workload's seeded pool; ingest operations walk it in
/// order and wrap, so memory stays fixed however long a round is.
const POOL_ITEMS: usize = 1 << 20;
/// Zipf universe size of every stream.
const UNIVERSE: u64 = 1_000_000;
/// `query_mix` open-loop steps (requests/s) and the length of each.
pub const QUERY_RATES: [u64; 5] = [5_000, 10_000, 20_000, 30_000, 40_000];
const STEP_US: u64 = 600_000;
/// `query_mix` writes (one ingest plus one release) this often.
const WRITE_EVERY_US: u64 = 125_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EmbedIngest,
    HttpIngest,
    EpochChurn,
    QueryMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::EmbedIngest,
        Workload::HttpIngest,
        Workload::EpochChurn,
        Workload::QueryMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EmbedIngest => "embed_ingest",
            Workload::HttpIngest => "http_ingest",
            Workload::EpochChurn => "epoch_churn",
            Workload::QueryMix => "query_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Library use only: no WAL, no server on the measured path.
    pub fn is_embedded(self) -> bool {
        self == Workload::EmbedIngest
    }
}

/// One operation of a round, in stream order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Ingest pool chunk `i` (`ingest_from`, or `POST /ingest`).
    Ingest(u32),
    /// Close and release the open epoch (`end_epoch`, `POST /epoch/end`).
    EndEpoch,
    /// `GET /topk?n=10`.
    Topk,
    /// `GET /point/{key}`.
    Point(u64),
}

/// The exact input of one round.
pub struct Plan {
    pub workload: Workload,
    /// Sketch size.
    pub k: usize,
    /// Items per ingest operation.
    pub chunk: usize,
    pool: Vec<u64>,
    /// Ingest ops generated so far; the next one takes this chunk (mod the
    /// pool's chunk count).
    ingests: u32,
    /// `ops[..setup_ops]` seed the stack before the measured phase (the
    /// `query_mix` seed).
    pub setup_ops: usize,
    pub ops: Vec<Op>,
    /// Open loop only: due time of each measured op, µs from phase start.
    pub due_us: Vec<u64>,
}

impl Plan {
    /// Builds `workload`'s round from `seed`; the same seed gives the same
    /// pool, operations and schedule.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let (k, exponent, chunk) = match workload {
            Workload::EmbedIngest => (1024, 0.8, 8192),
            Workload::HttpIngest | Workload::QueryMix => (256, 1.1, 8192),
            Workload::EpochChurn => (256, 1.1, 4096),
        };
        let zipf = Zipf::new(UNIVERSE, exponent);
        let pool = zipf.stream(POOL_ITEMS, &mut StdRng::seed_from_u64(seed));
        let mut plan = Self {
            workload,
            k,
            chunk,
            pool,
            ingests: 0,
            setup_ops: 0,
            ops: Vec::new(),
            due_us: Vec::new(),
        };
        match workload {
            // 2 epochs of 4M items.
            Workload::EmbedIngest => plan.epochs(2, 512, 0),
            // 4.5 epochs of 2M items: the round ends with half an epoch
            // open, which the recovery measurement replays.
            Workload::HttpIngest => plan.epochs(4, 256, 128),
            // 1024 releases of 4096 items each.
            Workload::EpochChurn => plan.epochs(1024, 1, 0),
            Workload::QueryMix => {
                // Set-up: 4M items and one release.
                plan.epochs(1, 512, 0);
                plan.setup_ops = plan.ops.len();
                let mut keys = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
                plan.schedule(|| zipf.sample(&mut keys));
            }
        }
        plan
    }

    /// Appends `epochs` × (`per_epoch` ingests, one release), then `tail`
    /// ingests left open.
    fn epochs(&mut self, epochs: usize, per_epoch: usize, tail: usize) {
        for _ in 0..epochs {
            for _ in 0..per_epoch {
                let op = self.next_ingest();
                self.ops.push(op);
            }
            self.ops.push(Op::EndEpoch);
        }
        for _ in 0..tail {
            let op = self.next_ingest();
            self.ops.push(op);
        }
    }

    fn next_ingest(&mut self) -> Op {
        let chunks = (self.pool.len() / self.chunk) as u32;
        self.ingests += 1;
        Op::Ingest((self.ingests - 1) % chunks)
    }

    /// The `query_mix` open-loop schedule: each step sends queries evenly
    /// spaced at its rate, alternating top-k and point reads; every
    /// `WRITE_EVERY_US` one ingest and one release go out together.
    fn schedule(&mut self, mut key: impl FnMut() -> u64) {
        let mut timed: Vec<(u64, Op)> = Vec::new();
        for (step, &rate) in QUERY_RATES.iter().enumerate() {
            let start = step as u64 * STEP_US;
            let count = rate * STEP_US / 1_000_000;
            for i in 0..count {
                let op = if i % 2 == 0 {
                    Op::Topk
                } else {
                    Op::Point(key())
                };
                timed.push((start + i * 1_000_000 / rate, op));
            }
        }
        let phase = QUERY_RATES.len() as u64 * STEP_US;
        let mut writes = Vec::new();
        for due in (1..).map(|i| i * WRITE_EVERY_US).take_while(|&t| t < phase) {
            writes.push((due, self.next_ingest()));
            writes.push((due, Op::EndEpoch));
        }
        timed.extend(writes);
        // Stable: a write's ingest stays ahead of its release.
        timed.sort_by_key(|&(due, _)| due);
        for (due, op) in timed {
            self.due_us.push(due);
            self.ops.push(op);
        }
    }

    pub fn chunk_items(&self, chunk: u32) -> &[u64] {
        let start = chunk as usize * self.chunk;
        &self.pool[start..start + self.chunk]
    }

    pub fn measured(&self) -> &[Op] {
        &self.ops[self.setup_ops..]
    }

    /// Releases in the round.
    pub fn releases(&self) -> u64 {
        self.ops.iter().filter(|op| **op == Op::EndEpoch).count() as u64
    }

    /// Items ingested after the round's last release: the epoch left open.
    pub fn open_items(&self) -> u64 {
        let last = self.ops.iter().rposition(|op| *op == Op::EndEpoch);
        self.items(&self.ops[last.map_or(0, |i| i + 1)..])
    }

    /// Items ingested by `ops`.
    pub fn items(&self, ops: &[Op]) -> u64 {
        let ingests = ops.iter().filter(|op| matches!(op, Op::Ingest(_))).count();
        (ingests * self.chunk) as u64
    }

    /// Which step of the open loop a measured op's due time falls in.
    pub fn step_of(due_us: u64) -> usize {
        ((due_us / STEP_US) as usize).min(QUERY_RATES.len() - 1)
    }

    pub fn step_end_us(step: usize) -> u64 {
        (step as u64 + 1) * STEP_US
    }

    /// FNV digest of everything the round feeds the system: pool, ops and
    /// schedule.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for &item in &self.pool {
            h.write_u64(item);
        }
        for op in &self.ops {
            let (tag, value) = match *op {
                Op::Ingest(c) => (0, u64::from(c)),
                Op::EndEpoch => (1, 0),
                Op::Topk => (2, 0),
                Op::Point(key) => (3, key),
            };
            h.write_u64(tag);
            h.write_u64(value);
        }
        h.write_u64(self.setup_ops as u64);
        for &due in &self.due_us {
            h.write_u64(due);
        }
        h.finish()
    }

    /// Every op as HTTP request bytes; ingest bodies are encoded once per
    /// distinct chunk.
    pub fn encode(&self) -> Requests {
        let mut table = vec![
            b"POST /epoch/end HTTP/1.1\r\nContent-Length: 0\r\n\r\n".to_vec(),
            b"GET /topk?n=10 HTTP/1.1\r\n\r\n".to_vec(),
        ];
        let chunks = self.pool.len() / self.chunk;
        for chunk in 0..chunks as u32 {
            table.push(ingest_request(self.chunk_items(chunk)));
        }
        let per_op = self
            .ops
            .iter()
            .map(|op| match *op {
                Op::EndEpoch => 0,
                Op::Topk => 1,
                Op::Ingest(c) => 2 + c as usize,
                Op::Point(key) => {
                    table.push(format!("GET /point/{key} HTTP/1.1\r\n\r\n").into_bytes());
                    table.len() - 1
                }
            })
            .collect();
        Requests { table, per_op }
    }
}

fn ingest_request(items: &[u64]) -> Vec<u8> {
    let mut body = String::with_capacity(items.len() * 8 + 16);
    body.push_str("{\"items\":[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&item.to_string());
    }
    body.push_str("]}");
    let mut request = format!(
        "POST /ingest HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body.as_bytes());
    request
}

/// The HTTP encoding of a plan's ops.
pub struct Requests {
    table: Vec<Vec<u8>>,
    per_op: Vec<usize>,
}

impl Requests {
    pub fn get(&self, op_index: usize) -> &[u8] {
        &self.table[self.per_op[op_index]]
    }

    /// Request bytes of an op outside the plan (the ladder's probes).
    pub fn probe(op: Op) -> Vec<u8> {
        match op {
            Op::Topk => b"GET /topk?n=10 HTTP/1.1\r\n\r\n".to_vec(),
            Op::Point(key) => format!("GET /point/{key} HTTP/1.1\r\n\r\n").into_bytes(),
            Op::Ingest(_) | Op::EndEpoch => unreachable!("probes only read"),
        }
    }
}

// ------------------------------------------------------ the common stack

/// One shard (router plus worker is two threads, the host's CPU count),
/// 4096-item batches, explicit epoch ticks.
pub fn service_config(k: usize) -> ServiceConfig {
    ServiceConfig::new(1, k).with_batch_size(4096)
}

/// Group commit 4096, a checkpoint every 4 epochs, no fsync.
pub fn durability(dir: PathBuf) -> DurabilityConfig {
    DurabilityConfig::new(dir)
        .with_group_commit(4096)
        .with_checkpoint_every_epochs(4)
        .with_sync_writes(false)
}

/// The price of one release: GSHM at ε = 0.9, δ = 1e-8.
pub fn per_release() -> PrivacyParams {
    PrivacyParams::new(0.9, 1e-8).expect("valid privacy parameters")
}

/// GSHM calibrated for sketch size `k`. Calibration is lazy, costly and
/// draws no noise, so it is done here, in set-up, rather than inside the
/// first timed release.
pub fn mechanism(k: usize) -> Box<dyn ReleaseMechanism<u64>> {
    let gshm = GshmMechanism::new(per_release()).expect("gshm takes approximate DP");
    ReleaseMechanism::<u64>::threshold(&gshm, k).expect("gshm calibrates at ε < 1");
    Box::new(gshm)
}

/// A global budget no round comes near, so no release is ever refused.
pub fn budget() -> PrivacyParams {
    PrivacyParams::new(1e9, 0.5).expect("valid privacy parameters")
}

/// The service's noise seed for a run seed.
pub fn noise_seed(seed: u64) -> u64 {
    seed ^ 0x00e2_5e2d
}

/// FNV digest of everything a released snapshot serves: epoch, item count,
/// `k`, and every key with its estimate's bits. Two snapshots with equal
/// digests are equal bit for bit (up to a 2⁻⁶⁴ collision).
pub fn snapshot_digest(snapshot: &ReleasedSnapshot<u64>) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(snapshot.epoch);
    h.write_u64(snapshot.items);
    h.write_u64(snapshot.k as u64);
    h.write_u64(snapshot.estimates.len() as u64);
    for (&key, value) in &snapshot.estimates {
        h.write_u64(key);
        h.write_u64(value.to_bits());
    }
    h.finish()
}

/// The correctness gate: a released snapshot, by its digest, must equal
/// the reference's bit for bit.
pub fn check_digest(got: u64, want: u64) -> Result<(), String> {
    if got != want {
        return Err(format!(
            "snapshot digest {got:#018x}, the reference's {want:#018x}"
        ));
    }
    Ok(())
}

pub fn check_snapshot(got: &ReleasedSnapshot<u64>, want: u64) -> Result<(), String> {
    check_digest(snapshot_digest(got), want)
}

/// What a correct round must end with: the snapshot digest of a
/// [`SequentialServiceReference`] fed the round's items and epoch ticks
/// under the same noise seed.
pub struct Expected {
    pub digest: u64,
    /// Reference throughput: the single-threaded baseline.
    pub items_per_s: f64,
}

impl Expected {
    pub fn compute(plan: &Plan, seed: u64) -> Self {
        let mut reference = SequentialServiceReference::new(
            service_config(plan.k),
            mechanism(plan.k),
            budget(),
            noise_seed(seed),
        )
        .expect("reference configuration is valid");
        let start = Instant::now();
        for op in &plan.ops {
            match *op {
                Op::Ingest(c) => reference
                    .ingest_from(plan.chunk_items(c).iter().copied())
                    .expect("reference ingest"),
                Op::EndEpoch => {
                    reference.end_epoch().expect("budget never refuses");
                }
                Op::Topk | Op::Point(_) => {}
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        Self {
            digest: snapshot_digest(&reference.latest()),
            items_per_s: plan.items(&plan.ops) as f64 / elapsed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        let a = Plan::new(Workload::EpochChurn, 1);
        let b = Plan::new(Workload::EpochChurn, 1);
        let c = Plan::new(Workload::EpochChurn, 2);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn query_mix_schedule_is_ordered_and_releases_follow_ingests() {
        let plan = Plan::new(Workload::QueryMix, 3);
        let measured = plan.measured();
        assert_eq!(measured.len(), plan.due_us.len());
        assert!(plan.due_us.windows(2).all(|w| w[0] <= w[1]));
        let writes = measured
            .iter()
            .filter(|op| matches!(op, Op::Ingest(_)))
            .count();
        assert_eq!(writes, 23);
        for (i, op) in measured.iter().enumerate() {
            if matches!(op, Op::Ingest(_)) {
                assert_eq!(measured[i + 1], Op::EndEpoch);
            }
        }
    }

    #[test]
    fn a_corrupted_snapshot_fails_the_gate() {
        let snapshot = ReleasedSnapshot {
            epoch: 3,
            items: 30,
            k: 8,
            estimates: [(1u64, 12.5), (2, 7.25)].into_iter().collect(),
        };
        let want = snapshot_digest(&snapshot);
        assert!(check_snapshot(&snapshot.clone(), want).is_ok());
        let mut flipped = snapshot.clone();
        let estimate = flipped.estimates.get_mut(&2).expect("key 2");
        *estimate = f64::from_bits(estimate.to_bits() ^ 1);
        let mut extra = snapshot.clone();
        extra.estimates.insert(3, 0.5);
        let mut late = snapshot.clone();
        late.epoch = 4;
        for corrupted in [flipped, extra, late] {
            assert!(check_snapshot(&corrupted, want).is_err());
        }
    }

    #[test]
    fn open_items_and_releases_follow_the_ops() {
        let plan = Plan::new(Workload::HttpIngest, 1);
        assert_eq!(plan.releases(), 4);
        assert_eq!(plan.open_items(), 128 * 8192);
        let churn = Plan::new(Workload::EpochChurn, 1);
        assert_eq!(churn.open_items(), 0);
    }
}
