//! Crash/restart persistence for the service (`u64` keys, the wire-format
//! key type): the lightweight released-state format (`DPSV`) and the
//! whole-service durable checkpoint (`DPCK`). Byte layouts, checksums and
//! the trust boundary of each are in the format table of
//! [`dpmg_sketch::serialize`].
//!
//! **`DPSV`** persists exactly the **post-privacy-boundary** state: the
//! cumulative released snapshot plus the accountant's budget arithmetic.
//! Pre-noise state — open-epoch sketches, pending dyadic summaries — is
//! *not* carried: these bytes are safe to store anywhere, but a restored
//! service resumes with an empty open epoch, which is why
//! [`DpmgService::restore`] hands back an explicit
//! [`OpenEpochStatus::OpenEpochLost`] marker — items ingested after the
//! last `end_epoch` of the saved service died with the process.
//!
//! **`DPCK`** is the durable path ([`crate::DurableService`]): it
//! additionally captures the full open-epoch engine state (per-shard
//! sketch states including dummy-slot identities, the reshard carry, the
//! epoch clock) and the noise generator's state, so a crashed service
//! replays its write-ahead log and resumes **bit-identically**. Unlike
//! `DPSV` bytes, a checkpoint holds **pre-noise** data: it must stay inside
//! the operator's trust boundary — the same boundary that already holds
//! the raw stream — exactly like the WAL segments next to it.
//!
//! One persistence path serves both: the two formats carry the same
//! released-state section ([`encode_released`] / [`decode_released`]), and
//! [`rebuild_service`] turns it — plus, for a checkpoint, the open epoch —
//! back into a service.

use crate::config::{ServiceError, ServiceMode};
use crate::service::{DpmgService, EpochCore, OpenEpochStatus};
use crate::snapshot::ReleasedSnapshot;
use crate::ServiceConfig;
use dpmg_core::mechanism::ReleaseMechanism;
use dpmg_noise::accounting::{Accountant, PrivacyParams};
use dpmg_pipeline::ShardedPipeline;
use dpmg_sketch::misra_gries::MisraGries;
use dpmg_sketch::serialize::{
    decode, decode_sketch_state, decode_snapshot, encode, encode_sketch_state, encode_snapshot,
    Checksum, Reader, SnapshotRecord, Writer,
};
use dpmg_sketch::traits::Summary;

const MAGIC: [u8; 4] = *b"DPSV";
const VERSION: u8 = 1;

const CHECKPOINT_MAGIC: [u8; 4] = *b"DPCK";
const CHECKPOINT_VERSION: u8 = 1;

impl DpmgService<u64> {
    /// Serializes the service's released state: the latest snapshot and the
    /// accountant. Only [`ServiceMode::Independent`] services are
    /// persistable — a continual tree's pending dyadic summaries are
    /// pre-noise data (see the module docs).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Persistence`] in continual mode.
    pub fn save_state(&self) -> Result<Vec<u8>, ServiceError> {
        if !matches!(self.config().mode, ServiceMode::Independent) {
            return Err(ServiceError::Persistence(
                "continual-mode state is pre-noise and is not persisted; \
                 only Independent services can save_state",
            ));
        }
        let mut w = Writer::default();
        w.bytes(&MAGIC);
        w.u8(VERSION);
        encode_released(&mut w, self);
        Ok(w.seal(Checksum::Fnv1a))
    }

    /// Restores a service from [`Self::save_state`] bytes: query answers
    /// resume from the persisted snapshot, the accountant resumes with the
    /// persisted remaining budget, and a fresh (empty) epoch opens for
    /// ingestion. Fresh releases draw from `seed` — noise is never reused
    /// across a restart. The epoch **transcript restarts empty** (its
    /// pre-noise inputs are not persisted; see the module docs) and then
    /// keeps the last 16 releases like any service's, while
    /// `completed_epochs` and subsequent epoch numbering continue
    /// absolutely from the persisted count.
    ///
    /// The returned status is always [`OpenEpochStatus::OpenEpochLost`]:
    /// `DPSV` bytes never carry the open epoch, so any items ingested after
    /// the saved service's last `end_epoch` are gone. Callers that need
    /// those items replayed must run under [`crate::DurableService`], whose
    /// recovery reports [`OpenEpochStatus::Replayed`] instead.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Persistence`] on any corruption (both layers are
    /// checksummed, so any flipped byte is rejected), a `k` or mode
    /// mismatch with `config`, or an accountant state inconsistent with its
    /// own budget; plus every [`DpmgService::new`] error.
    pub fn restore(
        config: ServiceConfig,
        mechanism: Box<dyn ReleaseMechanism<u64>>,
        seed: u64,
        bytes: &[u8],
    ) -> Result<(Self, OpenEpochStatus), ServiceError> {
        if !matches!(config.mode, ServiceMode::Independent) {
            return Err(ServiceError::Persistence(
                "only Independent services can be restored",
            ));
        }
        let released = decode_saved_state(bytes, config.k).map_err(ServiceError::Persistence)?;
        let service = rebuild_service(config, mechanism, seed, released, None)?;
        Ok((service, OpenEpochStatus::OpenEpochLost))
    }
}

fn decode_saved_state(bytes: &[u8], k: usize) -> Result<Released, &'static str> {
    let mut r = Reader::unseal(
        bytes,
        Checksum::Fnv1a,
        "truncated service state",
        "service state checksum mismatch",
    )?;
    r.expect_magic(MAGIC, "bad service state magic")?;
    r.expect_version(VERSION, "unsupported service state version")?;
    let released = decode_released(&mut r, k)?;
    r.end("service state has trailing bytes after the snapshot")?;
    Ok(released)
}

/// The post-noise state both formats persist: the accountant and the
/// cumulative released snapshot.
pub(crate) struct Released {
    pub accountant: Accountant,
    pub snapshot: SnapshotRecord,
}

/// Writes the released-state section of `service`: budget, spent, charges,
/// then its latest snapshot as an embedded `DPMS` record.
fn encode_released(w: &mut Writer, service: &DpmgService<u64>) {
    let acct = service.accountant();
    w.f64(acct.budget().epsilon());
    w.f64(acct.budget().delta());
    w.f64(acct.spent_epsilon());
    w.f64(acct.spent_delta());
    w.u64(acct.charges() as u64);
    let latest = service.latest();
    w.section(&encode_snapshot(&SnapshotRecord {
        k: latest.k,
        epoch: latest.epoch,
        items: latest.items,
        entries: latest.estimates.clone(),
    }));
}

/// Reads the released-state section and checks it against itself and
/// `k`: the snapshot's sketch size, a valid budget, an accountant
/// consistent with that budget, and no completed epochs without charges.
fn decode_released(r: &mut Reader<'_>, k: usize) -> Result<Released, &'static str> {
    let budget_eps = r.f64()?;
    let budget_delta = r.f64()?;
    let spent_eps = r.f64()?;
    let spent_delta = r.f64()?;
    let charges = r.u64()?;
    let snapshot = decode_snapshot(r.section()?).map_err(|_| "embedded snapshot corrupt")?;
    if snapshot.k != k {
        return Err("persisted k does not match the configuration");
    }
    let budget =
        PrivacyParams::new(budget_eps, budget_delta).map_err(|_| "persisted budget invalid")?;
    let charges = usize::try_from(charges).map_err(|_| "charge count overflows usize")?;
    let accountant = Accountant::restore(budget, spent_eps, spent_delta, charges)
        .map_err(|_| "persisted accountant state invalid")?;
    if snapshot.epoch > 0 && charges == 0 {
        return Err("snapshot claims epochs but no charges were recorded");
    }
    Ok(Released {
        accountant,
        snapshot,
    })
}

/// The pre-noise open-epoch state a checkpoint adds to the released state.
pub(crate) struct OpenEpoch {
    /// xoshiro256++ state words of the release core's noise source.
    pub rng: [u64; 4],
    /// Open-epoch items already folded into the sketches (and carry).
    pub epoch_items: u64,
    /// Retired-generation reshard carry, if a reshard happened mid-epoch.
    pub carry: Option<Summary<u64>>,
    /// Per-shard open-epoch sketch states, in shard order.
    pub sketches: Vec<MisraGries<u64>>,
}

/// Rebuilds a service around persisted released state — the one path
/// both [`DpmgService::restore`] and durable recovery take. The release
/// core resumes the ledger and the cumulative estimates; without `open`
/// a fresh pipeline and `seed`'s noise stream start an empty epoch, with
/// it the workers continue from the checkpointed sketches and the noise
/// stream from the checkpointed generator state.
pub(crate) fn rebuild_service(
    config: ServiceConfig,
    mechanism: Box<dyn ReleaseMechanism<u64>>,
    seed: u64,
    released: Released,
    open: Option<OpenEpoch>,
) -> Result<DpmgService<u64>, ServiceError> {
    let Released {
        accountant,
        snapshot,
    } = released;
    let mut core = EpochCore::new(&config, mechanism, accountant.budget(), seed)?;
    core.resume(
        snapshot.entries.clone(),
        snapshot.epoch,
        snapshot.items,
        accountant,
    );
    let (pipeline, epoch_items) = match open {
        None => (ShardedPipeline::new(config.pipeline_config())?, 0),
        Some(open) => {
            core.set_rng_state(open.rng);
            let pipeline = ShardedPipeline::with_initial_sketches(
                config.pipeline_config(),
                open.sketches,
                open.epoch_items,
                open.carry,
            )?;
            (pipeline, open.epoch_items)
        }
    };
    let initial = ReleasedSnapshot {
        epoch: snapshot.epoch,
        items: snapshot.items,
        k: snapshot.k,
        estimates: snapshot.entries,
    };
    Ok(DpmgService::from_restored(
        config,
        core,
        initial,
        pipeline,
        epoch_items,
    ))
}

/// Encodes `service` as a `DPCK` record. `sketches` and `carry` are the
/// pipeline's open-epoch state, captured by the caller; `wal_seq` is the
/// first WAL segment recovery must replay on top of it.
pub(crate) fn encode_checkpoint(
    service: &DpmgService<u64>,
    wal_seq: u64,
    sketches: &[MisraGries<u64>],
    carry: Option<&Summary<u64>>,
) -> Vec<u8> {
    let config = service.config();
    let mut w = Writer::default();
    w.bytes(&CHECKPOINT_MAGIC);
    w.u8(CHECKPOINT_VERSION);
    w.u64(wal_seq);
    w.u64(config.shards as u64);
    w.u64(config.k as u64);
    w.u64(config.epoch_len.unwrap_or(0));
    w.u64(service.completed_epochs());
    w.u64(service.released_items());
    w.u64(service.open_epoch_items());
    for word in service.core().rng_state() {
        w.u64(word);
    }
    encode_released(&mut w, service);
    match carry {
        Some(summary) => {
            w.u8(1);
            w.section(&encode(summary));
        }
        None => w.u8(0),
    }
    for sketch in sketches {
        w.section(&encode_sketch_state(sketch));
    }
    w.seal(Checksum::Fnv1a)
}

/// A decoded `DPCK` record.
pub(crate) struct Checkpoint {
    /// First WAL segment sequence number to replay on recovery; segments
    /// with smaller sequence numbers are subsumed by this checkpoint.
    pub wal_seq: u64,
    /// Shard count at the checkpoint (a runtime value under resharding).
    pub shards: usize,
    pub released: Released,
    pub open: OpenEpoch,
}

/// Decodes a `DPCK` record and validates it against the caller's
/// configuration and budget. Every invariant is re-checked: the checksum,
/// version, `k` and epoch length against `config` (a different epoch
/// length would replay different boundaries), the budget against
/// `budget`, the released state (via [`decode_released`]) against the epoch
/// clock, a live RNG state, `k`-consistency of the carry and sketches,
/// and the open-epoch item count against the sketches.
pub(crate) fn decode_checkpoint(
    bytes: &[u8],
    config: &ServiceConfig,
    budget: PrivacyParams,
) -> Result<Checkpoint, &'static str> {
    let mut r = Reader::unseal(
        bytes,
        Checksum::Fnv1a,
        "truncated checkpoint",
        "checkpoint checksum mismatch",
    )?;
    r.expect_magic(CHECKPOINT_MAGIC, "bad checkpoint magic")?;
    r.expect_version(CHECKPOINT_VERSION, "unsupported checkpoint version")?;
    let wal_seq = r.u64()?;
    let shards = usize::try_from(r.u64()?)
        .ok()
        .filter(|s| *s >= 1)
        .ok_or("checkpoint shard count invalid")?;
    if r.u64()? != config.k as u64 {
        return Err("checkpoint k does not match the configuration");
    }
    if r.u64()? != config.epoch_len.unwrap_or(0) {
        return Err("checkpoint epoch length does not match the configuration");
    }
    let completed_epochs = r.u64()?;
    let released_items = r.u64()?;
    let epoch_items = r.u64()?;
    let rng = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
    if rng == [0; 4] {
        return Err("checkpoint rng state is the degenerate all-zero state");
    }
    let released = decode_released(&mut r, config.k)?;
    let persisted = released.accountant.budget();
    if persisted.epsilon().to_bits() != budget.epsilon().to_bits()
        || persisted.delta().to_bits() != budget.delta().to_bits()
    {
        return Err("checkpoint budget does not match the configuration");
    }
    if released.snapshot.epoch != completed_epochs || released.snapshot.items != released_items {
        return Err("checkpoint snapshot disagrees with the epoch clock");
    }
    let carry = match r.u8()? {
        0 => None,
        1 => {
            let summary = decode(r.section()?).map_err(|_| "checkpoint carry corrupt")?;
            if summary.k != config.k {
                return Err("checkpoint carry k does not match the checkpoint k");
            }
            Some(summary)
        }
        _ => return Err("checkpoint carry flag invalid"),
    };
    // Divide, don't multiply: a hostile shard count cannot overflow the
    // plausibility guard. Each sketch section is at least 8 length bytes.
    if shards > r.remaining() / 8 {
        return Err("checkpoint declares more shards than the bytes can hold");
    }
    let mut sketches = Vec::with_capacity(shards);
    for _ in 0..shards {
        let sketch =
            decode_sketch_state(r.section()?).map_err(|_| "checkpoint sketch state corrupt")?;
        if sketch.k() != config.k {
            return Err("checkpoint sketch k does not match the checkpoint k");
        }
        sketches.push(sketch);
    }
    r.end("checkpoint has trailing bytes after the last sketch")?;
    // The shard sketches hold the current generation's items; retired
    // generations live only in the carry (a `Summary`, which does not
    // record its stream length). Without a carry the counts must agree
    // exactly; with one the sketches can only account for a prefix.
    let shard_items: u64 = sketches.iter().map(|s| s.stream_len()).sum();
    let consistent = match &carry {
        None => shard_items == epoch_items,
        Some(_) => shard_items <= epoch_items,
    };
    if !consistent {
        return Err("checkpoint epoch item count disagrees with its sketch states");
    }
    Ok(Checkpoint {
        wal_seq,
        shards,
        released,
        open: OpenEpoch {
            rng,
            epoch_items,
            carry,
            sketches,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corruption::{check, reseal_with, Codec};
    use dpmg_core::mechanism::GshmMechanism;
    use dpmg_sketch::serialize::fnv1a_checksum;

    /// The shared corruption suite over a checkpoint that carries a
    /// release, a reshard carry and three shard sketches.
    #[test]
    fn corruption_suite_dpck() {
        let config = ServiceConfig::new(2, 8);
        let budget = PrivacyParams::new(100.0, 1e-4).unwrap();
        let mech = GshmMechanism::new(PrivacyParams::new(0.8, 1e-8).unwrap()).unwrap();
        let mut svc = DpmgService::new(config, Box::new(mech), budget, 42).unwrap();
        svc.ingest_from((0..300u64).map(|i| i * 7 % 23)).unwrap();
        svc.end_epoch().unwrap();
        svc.ingest_from((0..100u64).map(|i| i % 11)).unwrap();
        svc.reshard(3).unwrap();
        svc.ingest_from((0..50u64).map(|i| i % 5)).unwrap();
        let sketches = svc.pipeline_mut().checkpoint_sketches().unwrap();
        let carry = svc.pipeline_mut().carry().cloned();
        assert!(carry.is_some(), "the mid-epoch reshard leaves a carry");
        let valid = encode_checkpoint(&svc, 5, &sketches, carry.as_ref());

        // Huge-count fields: the shard count, then the snapshot and carry
        // section lengths (the carry flag byte sits between the two).
        let snapshot_len_at = 133;
        let mut snapshot_len = [0u8; 8];
        snapshot_len.copy_from_slice(&valid[snapshot_len_at..snapshot_len_at + 8]);
        let carry_len_at = snapshot_len_at + 8 + u64::from_le_bytes(snapshot_len) as usize + 1;
        check(Codec {
            valid: &valid,
            decode: &|bytes: &[u8]| decode_checkpoint(bytes, &config, budget),
            canonical: None,
            reseal: &reseal_with(fnv1a_checksum),
            counts: &[&[13], &[snapshot_len_at], &[carry_len_at]],
        });
    }
}
