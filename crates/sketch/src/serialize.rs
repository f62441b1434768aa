//! Byte formats: one checked record codec under every record the
//! workspace writes.
//!
//! Section 7's distributed setting has every server ship its Misra-Gries
//! summary (noised or raw, depending on whether the aggregator is
//! trusted) to an aggregator; the crash-safe service additionally stores
//! the full sketch state. Every format is written with [`Writer`] and read
//! with [`Reader`], whose reads return an error on short input instead of
//! panicking, and every checksummed format is sealed by
//! [`Writer::seal`] and verified by [`Reader::unseal`].
//!
//! | magic  | record                 | producer                    | checksum    | noise      |
//! |--------|------------------------|-----------------------------|-------------|------------|
//! | `DPMG` | [`Summary`]            | [`encode`]                  | none        | pre-noise  |
//! | `DPMS` | released snapshot      | [`encode_snapshot`]         | FNV-1a      | post-noise |
//! | `DPKS` | full sketch state      | [`encode_sketch_state`]     | FNV-1a      | pre-noise  |
//! | `DPFR` | stream frame           | [`write_frame`]             | FNV-1a      | as payload |
//! | `DPSV` | released service state | `DpmgService::save_state`   | FNV-1a      | post-noise |
//! | `DPCK` | service checkpoint     | `DurableService` checkpoint | FNV-1a      | pre-noise  |
//! | `DPWL` | write-ahead log        | `DurableService` ingest     | FNV-1a/word | pre-noise  |
//!
//! `DPMG` has no checksum, so its decoder checks canonical form instead;
//! `FNV-1a/word` is [`fnv1a_words_checksum`]. The noise column is the
//! trust boundary. Post-noise records may be stored or shipped anywhere.
//! Pre-noise records are functions of the raw stream: they stay inside
//! the operator's trust boundary, the one that already holds the stream.
//! A `DPMG` summary is pre-noise unless its producer noised the counts
//! first; the fleet ships raw summaries to a trusted aggregator.
//!
//! Layouts (integers little-endian, floats as IEEE-754 bits; `checksum`
//! is a `u64` over every preceding byte of the record, `section` is a
//! `u64` length followed by that many bytes):
//!
//! ```text
//! DPMG  magic b"DPMG" | version u8 = 1 | k u64 | len u64 (≤ k)
//!       | len × (key u64, count u64), keys strictly ascending
//! DPMS  magic b"DPMS" | version u8 = 1 | k u64 | epoch u64 | items u64
//!       | len u64 (not capped at k: cumulative snapshots union released
//!         keys over many epochs)
//!       | len × (key u64, estimate f64), keys strictly ascending,
//!         estimates finite | checksum
//! DPKS  magic b"DPKS" | version u8 = 1 | k u64 | n u64 | decrements u64
//!       | k × (tag u8 [0 = item, 1 = dummy], key u64, count u64),
//!         strictly ascending in slot order | checksum
//! DPFR  magic b"DPFR" | kind u8 | len u32 (≤ MAX_FRAME_PAYLOAD)
//!       | payload (len bytes) | checksum
//! DPSV  magic b"DPSV" | version u8 = 1 | released | checksum
//! DPCK  magic b"DPCK" | version u8 = 1 | wal_seq u64 | shards u64 | k u64
//!       | epoch_len u64 (0 = explicit ticks) | completed_epochs u64
//!       | released_items u64 | epoch_items u64 | rng 4 × u64 (xoshiro256++)
//!       | released | carry_flag u8 (0/1) [+ section: DPMG carry]
//!       | shards × section: DPKS sketch state | checksum
//! released  budget_eps f64 | budget_delta f64 | spent_eps f64
//!       | spent_delta f64 | charges u64 | section: DPMS snapshot
//! DPWL  header: magic b"DPWL" | version u8 = 1 | seq u64 | k u64
//!               | shards u64 | completed_epochs u64 | checksum
//!       record: len u32 | kind u8 | body (len − 1 bytes) | checksum
//!       kinds:  0 = Items (count u64, count × key u64)
//!               1 = EpochEnd (empty body)
//!               2 = Reshard (new shard count u64)
//! ```
//!
//! `DPSV` and `DPCK` share the `released` section byte for byte. The
//! fleet's HELLO (6 × u64), DONE (2 × u64) and SUMMARY (shard u64, then
//! `DPMG`) payloads travel inside `DPFR` frames.

use crate::misra_gries::{MisraGries, Slot};
use crate::traits::{SketchError, Summary};
use std::collections::BTreeMap;

const MAGIC: [u8; 4] = *b"DPMG";
const VERSION: u8 = 1;

const SNAPSHOT_MAGIC: [u8; 4] = *b"DPMS";
const SNAPSHOT_VERSION: u8 = 1;

const STATE_MAGIC: [u8; 4] = *b"DPKS";
const STATE_VERSION: u8 = 1;
/// Per-slot encoding: tag byte + key + counter.
const STATE_SLOT_LEN: usize = 1 + 8 + 8;
const STATE_TAG_ITEM: u8 = 0;
const STATE_TAG_DUMMY: u8 = 1;

const FRAME_MAGIC: [u8; 4] = *b"DPFR";
const FRAME_HEADER_LEN: usize = 4 + 1 + 4;

/// Ceiling on a frame's declared payload length. A stream peer is
/// untrusted input: without a cap, a corrupted (or hostile) length field
/// could make the reader allocate gigabytes before the checksum ever gets
/// a chance to reject the frame.
pub const MAX_FRAME_PAYLOAD: usize = 64 << 20;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a over a byte slice — the checksum of every sealed format except
/// the WAL. Each step `h ← (h ⊕ b)·p` is a bijection of the running state
/// (odd prime, modulo 2^64), so flipping any single byte of the input
/// always changes the digest — exactly the guarantee the corruption tests
/// rely on.
pub fn fnv1a_checksum(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// FNV-1a folded over 64-bit little-endian words — the WAL's checksum.
///
/// `Items` records carry 8 bytes per ingested item, and byte-at-a-time
/// FNV-1a is a serial multiply-xor chain costing several percent of ingest
/// throughput on its own; folding a word per step cuts that 8×. The input
/// length is folded in first, so the zero-padding of a final partial word
/// cannot collide with genuine trailing zeros. Each step is a bijection of
/// the running state, so flipping any single bit of the input always
/// changes the digest.
pub fn fnv1a_words_checksum(bytes: &[u8]) -> u64 {
    let mut h = (FNV_OFFSET ^ bytes.len() as u64).wrapping_mul(FNV_PRIME);
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        h ^= u64::from_le_bytes(word.try_into().expect("exact chunk"));
        h = h.wrapping_mul(FNV_PRIME);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        h ^= u64::from_le_bytes(word);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The trailing checksum a format seals its records with. Fixed per
/// format (see the module table): the WAL folds words, every other sealed
/// format hashes bytes.
#[derive(Debug, Clone, Copy)]
pub enum Checksum {
    /// [`fnv1a_checksum`].
    Fnv1a,
    /// [`fnv1a_words_checksum`].
    Fnv1aWords,
}

impl Checksum {
    fn digest(self, bytes: &[u8]) -> u64 {
        match self {
            Checksum::Fnv1a => fnv1a_checksum(bytes),
            Checksum::Fnv1aWords => fnv1a_words_checksum(bytes),
        }
    }
}

/// Builds one record by appending little-endian fields to a `Vec<u8>`.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty record with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends every `u64` of `vs` in order: exactly the bytes of one
    /// [`Self::u64`] call per value, written as one fixed-width block.
    pub fn u64s(&mut self, vs: &[u64]) {
        let start = self.buf.len();
        self.buf.resize(start + vs.len() * 8, 0);
        for (field, v) in self.buf[start..].chunks_exact_mut(8).zip(vs) {
            field.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends an `f64` as its IEEE-754 bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends raw bytes.
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends an embedded record: its `u64` length, then its bytes.
    pub fn section(&mut self, record: &[u8]) {
        self.u64(record.len() as u64);
        self.bytes(record);
    }

    /// Appends `checksum` over every byte written so far and returns the
    /// sealed record.
    pub fn seal(mut self, checksum: Checksum) -> Vec<u8> {
        let digest = checksum.digest(&self.buf);
        self.u64(digest);
        self.buf
    }

    /// The record as written, for formats without a checksum of their
    /// own (`DPMG`, and payloads a `DPFR` frame seals).
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Reads one record's fields in order. Every read checks the bytes left
/// and fails with the record's truncation message instead of panicking,
/// so decoders need no length guard of their own. Errors are the
/// format's own `&'static str` messages, which each decoder wraps in its
/// error type.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    rest: &'a [u8],
    short: &'static str,
}

impl<'a> Reader<'a> {
    /// Reads `bytes`; a read past the end fails with `short`.
    pub fn new(bytes: &'a [u8], short: &'static str) -> Self {
        Self { rest: bytes, short }
    }

    /// Splits the trailing checksum off a sealed record and verifies it
    /// over every preceding byte, then reads the verified body.
    ///
    /// # Errors
    ///
    /// `short` when the record cannot even hold a checksum, `mismatch`
    /// when the checksum disagrees.
    pub fn unseal(
        bytes: &'a [u8],
        checksum: Checksum,
        short: &'static str,
        mismatch: &'static str,
    ) -> Result<Self, &'static str> {
        let body_len = bytes.len().checked_sub(8).ok_or(short)?;
        let (body, trailer) = bytes.split_at(body_len);
        if checksum.digest(body) != Reader::new(trailer, short).u64()? {
            return Err(mismatch);
        }
        Ok(Self::new(body, short))
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], &'static str> {
        if n > self.rest.len() {
            return Err(self.short);
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], &'static str> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, &'static str> {
        Ok(self.array::<1>()?[0])
    }

    /// A `u32`.
    pub fn u32(&mut self) -> Result<u32, &'static str> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, &'static str> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// An `f64` from its IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64, &'static str> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads the 4-byte magic, failing with `bad` unless it is `magic`.
    pub fn expect_magic(&mut self, magic: [u8; 4], bad: &'static str) -> Result<(), &'static str> {
        if self.array()? == magic {
            Ok(())
        } else {
            Err(bad)
        }
    }

    /// Reads the version byte, failing with `bad` unless it is `version`:
    /// unknown versions are rejected, never guessed at.
    pub fn expect_version(&mut self, version: u8, bad: &'static str) -> Result<(), &'static str> {
        if self.u8()? == version {
            Ok(())
        } else {
            Err(bad)
        }
    }

    /// An embedded record written by [`Writer::section`]; a declared
    /// length beyond the bytes left fails with the truncation message.
    pub fn section(&mut self) -> Result<&'a [u8], &'static str> {
        let len = usize::try_from(self.u64()?).map_err(|_| self.short)?;
        self.bytes(len)
    }

    /// Checks a declared element count against the bytes left, which must
    /// be exactly `declared` elements of `width` bytes, and returns it.
    /// Divides instead of multiplying, so a huge declared count cannot
    /// wrap past the check.
    pub fn count(
        &self,
        declared: u64,
        width: usize,
        mismatch: &'static str,
    ) -> Result<usize, &'static str> {
        let left = self.rest.len();
        if left % width != 0 || (left / width) as u64 != declared {
            return Err(mismatch);
        }
        Ok(left / width)
    }

    /// Finishes the record, failing with `trailing` if bytes are left.
    pub fn end(self, trailing: &'static str) -> Result<(), &'static str> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(trailing)
        }
    }
}

/// Reads `len` `(key, value)` pairs whose keys must be strictly
/// ascending; `value` converts (and may reject) each raw value word.
fn read_entries<V>(
    r: &mut Reader<'_>,
    len: usize,
    unordered: &'static str,
    value: impl Fn(u64) -> Result<V, &'static str>,
) -> Result<BTreeMap<u64, V>, &'static str> {
    let mut entries = BTreeMap::new();
    let mut prev: Option<u64> = None;
    for _ in 0..len {
        let key = r.u64()?;
        let raw = r.u64()?;
        if prev.is_some_and(|p| key <= p) {
            return Err(unordered);
        }
        prev = Some(key);
        entries.insert(key, value(raw)?);
    }
    Ok(entries)
}

/// Errors from the framed streaming layer. Unlike [`SketchError`], frame
/// I/O can fail in the transport itself, so corruption and I/O failures are
/// distinct variants — a reader retries or reconnects on `Io`, but must
/// discard the peer's report on `Corrupt`.
#[derive(Debug)]
pub enum FrameError {
    /// Structural or integrity damage: bad magic, a length over the cap,
    /// a checksum mismatch, or a stream that ended mid-frame.
    Corrupt(&'static str),
    /// The underlying transport failed.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Corrupt(what) => write!(f, "corrupt frame: {what}"),
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Corrupt(_) => None,
            FrameError::Io(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one `DPFR` frame — kind tag, length-prefixed payload, trailing
/// FNV-1a checksum over the whole frame — to a byte stream. The frame is
/// assembled in memory and written with a single `write_all`, so a
/// concurrent reader never observes a torn header.
///
/// # Errors
///
/// [`FrameError::Corrupt`] if `payload` exceeds [`MAX_FRAME_PAYLOAD`]
/// (such a frame could never be read back); [`FrameError::Io`] from the
/// transport.
pub fn write_frame<W: std::io::Write>(
    w: &mut W,
    kind: u8,
    payload: &[u8],
) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME_PAYLOAD {
        return Err(FrameError::Corrupt("frame payload exceeds cap"));
    }
    let mut frame = Writer::with_capacity(FRAME_HEADER_LEN + payload.len() + 8);
    frame.bytes(&FRAME_MAGIC);
    frame.u8(kind);
    frame.u32(payload.len() as u32);
    frame.bytes(payload);
    w.write_all(&frame.seal(Checksum::Fnv1a))?;
    Ok(())
}

/// Reads one `DPFR` frame from a byte stream, returning its `(kind,
/// payload)`; `Ok(None)` on a **clean** end of stream — EOF exactly at a
/// frame boundary. EOF anywhere *inside* a frame is a peer that died
/// mid-send and is reported as [`FrameError::Corrupt`], never silently
/// treated as completion.
///
/// # Errors
///
/// [`FrameError::Corrupt`] on bad magic, a declared length over
/// [`MAX_FRAME_PAYLOAD`], a checksum mismatch, or mid-frame EOF;
/// [`FrameError::Io`] from the transport.
pub fn read_frame<R: std::io::Read>(r: &mut R) -> Result<Option<(u8, Vec<u8>)>, FrameError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut filled = 0usize;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            // EOF before the first header byte is the clean end of the
            // stream; EOF after it is a torn frame.
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::Corrupt("stream ended inside frame header")),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let mut fields = Reader::new(&header, "stream ended inside frame header");
    fields
        .expect_magic(FRAME_MAGIC, "bad frame magic")
        .map_err(FrameError::Corrupt)?;
    let kind = fields.u8().map_err(FrameError::Corrupt)?;
    let len = fields.u32().map_err(FrameError::Corrupt)? as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(FrameError::Corrupt("frame length exceeds cap"));
    }
    // The whole frame lands in one buffer so one `unseal` verifies it;
    // the header is then dropped from the front to leave the payload.
    let mut frame = vec![0u8; FRAME_HEADER_LEN + len + 8];
    frame[..FRAME_HEADER_LEN].copy_from_slice(&header);
    let (payload, trailer) = frame[FRAME_HEADER_LEN..].split_at_mut(len);
    read_exact_or_torn(r, payload, "stream ended inside frame payload")?;
    read_exact_or_torn(r, trailer, "stream ended inside frame checksum")?;
    Reader::unseal(
        &frame,
        Checksum::Fnv1a,
        "stream ended inside frame checksum",
        "frame checksum mismatch",
    )
    .map_err(FrameError::Corrupt)?;
    frame.truncate(FRAME_HEADER_LEN + len);
    frame.drain(..FRAME_HEADER_LEN);
    Ok(Some((kind, frame)))
}

/// `read_exact` that reports EOF as frame corruption with a specific
/// message instead of a generic `UnexpectedEof` I/O error.
fn read_exact_or_torn<R: std::io::Read>(
    r: &mut R,
    buf: &mut [u8],
    torn: &'static str,
) -> Result<(), FrameError> {
    match r.read_exact(buf) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Err(FrameError::Corrupt(torn)),
        Err(e) => Err(FrameError::Io(e)),
    }
}

/// Encodes a `u64`-keyed summary into the `DPMG` wire format.
pub fn encode(summary: &Summary<u64>) -> Vec<u8> {
    let mut w = Writer::with_capacity(4 + 1 + 8 + 8 + summary.len() * 16);
    w.bytes(&MAGIC);
    w.u8(VERSION);
    w.u64(summary.k as u64);
    w.u64(summary.len() as u64);
    // BTreeMap iterates in ascending key order — canonical by construction.
    for (&key, &count) in &summary.entries {
        w.u64(key);
        w.u64(count);
    }
    w.into_bytes()
}

/// Decodes a summary from the wire format, validating structure.
///
/// # Errors
///
/// Returns [`SketchError::Corrupt`] on truncated input, bad magic/version,
/// `len > k`, non-ascending keys, or trailing bytes.
pub fn decode(bytes: &[u8]) -> Result<Summary<u64>, SketchError> {
    read_summary(bytes).map_err(SketchError::Corrupt)
}

fn read_summary(bytes: &[u8]) -> Result<Summary<u64>, &'static str> {
    let mut r = Reader::new(bytes, "truncated header");
    r.expect_magic(MAGIC, "bad magic")?;
    r.expect_version(VERSION, "unsupported version")?;
    let k = r.u64()?;
    let len = r.u64()?;
    if len > k {
        return Err("len exceeds k");
    }
    let k = usize::try_from(k).map_err(|_| "k overflows usize")?;
    let len = r.count(len, 16, "entry section length mismatch")?;
    let entries = read_entries(&mut r, len, "keys not strictly ascending", Ok)?;
    Ok(Summary { k, entries })
}

/// The released state a query-serving layer persists across restarts: the
/// cumulative post-noise estimates at a given epoch. Unlike [`Summary`]
/// this is **post-privacy-boundary** data (safe to store anywhere), and its
/// values are real-valued noisy estimates, not exact counters.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotRecord {
    /// Sketch size of the producing service — metadata for compatibility
    /// checks, **not** a bound on `entries`: the cumulative union of
    /// released keys over many epochs can far exceed one sketch's `k`.
    pub k: usize,
    /// Completed epochs the estimates cover.
    pub epoch: u64,
    /// Items ingested over those epochs.
    pub items: u64,
    /// Released key → estimate map (finite values).
    pub entries: BTreeMap<u64, f64>,
}

/// Encodes a released snapshot into the checksummed `DPMS` format: the
/// checksum makes **any** byte corruption — including flips inside the
/// floating-point payload, which no structural check could catch — a
/// rejection instead of silently restored wrong answers.
///
/// # Panics
///
/// Panics on a non-finite estimate — such a record cannot round-trip.
pub fn encode_snapshot(snapshot: &SnapshotRecord) -> Vec<u8> {
    let mut w = Writer::with_capacity(4 + 1 + 8 * 4 + snapshot.entries.len() * 16 + 8);
    w.bytes(&SNAPSHOT_MAGIC);
    w.u8(SNAPSHOT_VERSION);
    w.u64(snapshot.k as u64);
    w.u64(snapshot.epoch);
    w.u64(snapshot.items);
    w.u64(snapshot.entries.len() as u64);
    for (&key, &estimate) in &snapshot.entries {
        assert!(estimate.is_finite(), "snapshot estimate must be finite");
        w.u64(key);
        w.f64(estimate);
    }
    w.seal(Checksum::Fnv1a)
}

/// Decodes a released snapshot, validating structure **and** the trailing
/// checksum, so any corrupted byte is rejected.
///
/// # Errors
///
/// Returns [`SketchError::Corrupt`] on truncated input, bad magic/version,
/// non-ascending keys, non-finite estimates, trailing bytes, or a checksum
/// mismatch. (`len` is deliberately *not* capped at `k` — cumulative
/// snapshots hold the union of released keys over epochs.)
pub fn decode_snapshot(bytes: &[u8]) -> Result<SnapshotRecord, SketchError> {
    read_snapshot(bytes).map_err(SketchError::Corrupt)
}

fn read_snapshot(bytes: &[u8]) -> Result<SnapshotRecord, &'static str> {
    let mut r = Reader::unseal(
        bytes,
        Checksum::Fnv1a,
        "truncated snapshot header",
        "snapshot checksum mismatch",
    )?;
    r.expect_magic(SNAPSHOT_MAGIC, "bad snapshot magic")?;
    r.expect_version(SNAPSHOT_VERSION, "unsupported snapshot version")?;
    let k = usize::try_from(r.u64()?).map_err(|_| "snapshot k overflows usize")?;
    let epoch = r.u64()?;
    let items = r.u64()?;
    let len = r.u64()?;
    let len = r.count(len, 16, "snapshot entry section length mismatch")?;
    let entries = read_entries(
        &mut r,
        len,
        "snapshot keys not strictly ascending",
        |bits| {
            Some(f64::from_bits(bits))
                .filter(|v| v.is_finite())
                .ok_or("snapshot estimate not finite")
        },
    )?;
    Ok(SnapshotRecord {
        k,
        epoch,
        items,
        entries,
    })
}

/// Encodes the **full** Misra-Gries sketch state — every slot including the
/// dummy counters, plus the `n`/`decrements` bookkeeping — into a
/// checksummed `DPKS` record. Unlike the `DPMG` summary (which drops
/// dummies and is safe to merge downstream), this record exists so a
/// crashed service can rebuild a sketch that is *behaviourally identical*
/// to the one it lost: the dummy-slot identities drive the Lemma 8
/// eviction order, so a summary alone cannot reproduce future evictions
/// bit for bit.
///
/// This is **pre-noise** data: it must stay inside the operator's trust
/// boundary (the same boundary that holds the raw stream), exactly like
/// `dpmg-service`'s write-ahead log.
pub fn encode_sketch_state(sketch: &MisraGries<u64>) -> Vec<u8> {
    let slots = sketch.slots();
    let mut w = Writer::with_capacity(4 + 1 + 8 * 3 + slots.len() * STATE_SLOT_LEN + 8);
    w.bytes(&STATE_MAGIC);
    w.u8(STATE_VERSION);
    w.u64(sketch.k() as u64);
    w.u64(sketch.stream_len());
    w.u64(sketch.decrement_count());
    for (slot, count) in &slots {
        match slot {
            Slot::Item(key) => {
                w.u8(STATE_TAG_ITEM);
                w.u64(*key);
            }
            Slot::Dummy(i) => {
                w.u8(STATE_TAG_DUMMY);
                w.u64(u64::from(*i));
            }
        }
        w.u64(*count);
    }
    w.seal(Checksum::Fnv1a)
}

/// Decodes a full sketch state, validating the checksum, the structure, and
/// every reachability invariant [`MisraGries::from_state`] enforces
/// (strictly ascending slots, dummy indices `< k` with zero counters, the
/// Lemma 15 counter-sum identity) — a record that decodes is a state a real
/// sketch can occupy, never a guessed repair.
///
/// # Errors
///
/// Returns [`SketchError::Corrupt`] on any corrupted byte (the record is
/// checksummed), unknown versions, structural damage, or an unreachable
/// state.
pub fn decode_sketch_state(bytes: &[u8]) -> Result<MisraGries<u64>, SketchError> {
    let (k, slots, n, decrements) = read_sketch_state(bytes).map_err(SketchError::Corrupt)?;
    MisraGries::from_state(k, slots, n, decrements)
}

/// The fields of a `DPKS` record: `(k, slots, n, decrements)`.
type SketchStateFields = (usize, Vec<(Slot<u64>, u64)>, u64, u64);

fn read_sketch_state(bytes: &[u8]) -> Result<SketchStateFields, &'static str> {
    let mut r = Reader::unseal(
        bytes,
        Checksum::Fnv1a,
        "truncated sketch state header",
        "sketch state checksum mismatch",
    )?;
    r.expect_magic(STATE_MAGIC, "bad sketch state magic")?;
    r.expect_version(STATE_VERSION, "unsupported sketch state version")?;
    let k = r.u64()?;
    let n = r.u64()?;
    let decrements = r.u64()?;
    let k = r.count(
        k,
        STATE_SLOT_LEN,
        "sketch state slot section length mismatch",
    )?;
    let mut slots = Vec::with_capacity(k);
    for _ in 0..k {
        let tag = r.u8()?;
        let key = r.u64()?;
        let count = r.u64()?;
        let slot = match tag {
            STATE_TAG_ITEM => Slot::Item(key),
            STATE_TAG_DUMMY => {
                Slot::Dummy(u32::try_from(key).map_err(|_| "dummy slot index overflows u32")?)
            }
            _ => return Err("unknown sketch state slot tag"),
        };
        slots.push((slot, count));
    }
    Ok((k, slots, n, decrements))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Fixed-prefix lengths of the three versioned records, for the
    /// truncation cut points below.
    const HEADER_LEN: usize = 4 + 1 + 8 + 8;
    const SNAPSHOT_HEADER_LEN: usize = 4 + 1 + 8 + 8 + 8 + 8;
    const STATE_HEADER_LEN: usize = 4 + 1 + 8 + 8 + 8;

    fn sample() -> Summary<u64> {
        Summary::from_entries(8, [(3u64, 10), (7, 0), (100, 42)])
    }

    #[test]
    fn round_trip() {
        let s = sample();
        let bytes = encode(&s);
        let back = decode(&bytes).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn round_trip_empty() {
        let s = Summary::<u64>::empty(4);
        assert_eq!(decode(&encode(&s)).unwrap(), s);
    }

    #[test]
    fn rejects_truncation() {
        let bytes = encode(&sample());
        for cut in [0, 3, HEADER_LEN - 1, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut = {cut}");
        }
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut bytes = encode(&sample()).to_vec();
        bytes[0] = b'X';
        assert_eq!(
            decode(&bytes).unwrap_err(),
            SketchError::Corrupt("bad magic")
        );
        let mut bytes = encode(&sample()).to_vec();
        bytes[4] = 99;
        assert_eq!(
            decode(&bytes).unwrap_err(),
            SketchError::Corrupt("unsupported version")
        );
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut bytes = encode(&sample()).to_vec();
        bytes.push(0);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn rejects_len_exceeding_k() {
        // Hand-craft a header claiming len > k.
        let mut buf = Writer::default();
        buf.bytes(b"DPMG");
        buf.u8(1);
        buf.u64(1); // k = 1
        buf.u64(2); // len = 2
        buf.u64(1);
        buf.u64(1);
        buf.u64(2);
        buf.u64(1);
        assert_eq!(
            decode(&buf.into_bytes()).unwrap_err(),
            SketchError::Corrupt("len exceeds k")
        );
    }

    #[test]
    fn rejects_unordered_keys() {
        let mut buf = Writer::default();
        buf.bytes(b"DPMG");
        buf.u8(1);
        buf.u64(4);
        buf.u64(2);
        buf.u64(9); // key 9 first
        buf.u64(1);
        buf.u64(3); // then key 3: not ascending
        buf.u64(1);
        assert_eq!(
            decode(&buf.into_bytes()).unwrap_err(),
            SketchError::Corrupt("keys not strictly ascending")
        );
    }

    proptest! {
        /// `u64s` writes exactly the bytes of one `u64` call per value,
        /// also behind an unaligned prefix.
        #[test]
        fn prop_u64s_writes_the_bytes_of_repeated_u64(
            prefix in proptest::collection::vec(0u8..=u8::MAX, 0..9),
            values in proptest::collection::vec(0u64..=u64::MAX, 0..64),
        ) {
            let mut bulk = Writer::default();
            let mut each = Writer::default();
            for w in [&mut bulk, &mut each] {
                w.bytes(&prefix);
            }
            bulk.u64s(&values);
            for &v in &values {
                each.u64(v);
            }
            prop_assert_eq!(bulk.into_bytes(), each.into_bytes());
        }

        #[test]
        fn prop_round_trip(
            entries in proptest::collection::btree_map(0u64..1000, 0u64..1_000_000, 0..16),
        ) {
            let summary = Summary { k: 16, entries };
            let back = decode(&encode(&summary)).unwrap();
            prop_assert_eq!(summary, back);
        }

        /// Every strict prefix of a valid encoding is rejected: the header
        /// carries the entry count, so truncation can never silently decode.
        #[test]
        fn prop_rejects_every_truncation(
            entries in proptest::collection::btree_map(0u64..1000, 0u64..1_000_000, 0..16),
            frac in 0.0f64..1.0,
        ) {
            let summary = Summary { k: 16, entries };
            let bytes = encode(&summary);
            // frac < 1.0 strictly, so cut ∈ [0, len − 1]: every strict
            // prefix length is reachable, including dropping only the
            // final byte.
            let cut = (bytes.len() as f64 * frac) as usize;
            prop_assert!(decode(&bytes[..cut]).is_err(), "prefix of {cut} bytes decoded");
        }

        /// Corruption safety: flipping any single byte either fails to
        /// decode, or decodes to a summary that re-encodes *canonically* —
        /// `encode(decode(m)) == m` — so a mutated buffer can never alias a
        /// different summary's canonical encoding while claiming to be this
        /// one. (Counter bytes are data, so some flips legitimately decode.)
        #[test]
        fn prop_byte_flips_reject_or_stay_canonical(
            entries in proptest::collection::btree_map(0u64..1000, 0u64..1_000_000, 1..16),
            pos_frac in 0.0f64..1.0,
            bit in 0u8..8,
        ) {
            let summary = Summary { k: 16, entries };
            let mut bytes = encode(&summary).to_vec();
            // pos_frac < 1.0 strictly ⇒ pos ∈ [0, len − 1]: the final byte
            // (high byte of the last counter) is flippable too.
            let pos = (bytes.len() as f64 * pos_frac) as usize;
            bytes[pos] ^= 1 << bit;
            if let Ok(mutated) = decode(&bytes) {
                prop_assert_eq!(encode(&mutated).as_slice(), &bytes[..]);
                // And the decoded summary still respects the structural
                // invariant the format promises.
                prop_assert!(mutated.len() <= mutated.k);
            }
        }

        /// Decoding is total and panic-free on arbitrary bytes, and every
        /// accepted buffer is the canonical encoding of its decode.
        #[test]
        fn prop_arbitrary_bytes_never_panic_and_accepts_are_canonical(
            bytes in proptest::collection::vec(0u8..=255, 0..256),
        ) {
            if let Ok(summary) = decode(&bytes) {
                prop_assert_eq!(encode(&summary).as_slice(), &bytes[..]);
            }
        }
    }

    fn sample_snapshot() -> SnapshotRecord {
        SnapshotRecord {
            k: 8,
            epoch: 5,
            items: 123_456,
            entries: [(3u64, 10.25), (7, 0.0), (100, 41.9)].into_iter().collect(),
        }
    }

    #[test]
    fn snapshot_round_trip() {
        let s = sample_snapshot();
        assert_eq!(decode_snapshot(&encode_snapshot(&s)).unwrap(), s);
        let empty = SnapshotRecord {
            k: 4,
            epoch: 0,
            items: 0,
            entries: BTreeMap::new(),
        };
        assert_eq!(decode_snapshot(&encode_snapshot(&empty)).unwrap(), empty);
    }

    #[test]
    fn snapshot_rejects_structural_damage() {
        let bytes = encode_snapshot(&sample_snapshot());
        for cut in [0, 4, SNAPSHOT_HEADER_LEN, bytes.len() - 1] {
            assert!(decode_snapshot(&bytes[..cut]).is_err(), "cut = {cut}");
        }
        let mut long = bytes.to_vec();
        long.push(0);
        assert!(decode_snapshot(&long).is_err(), "trailing byte accepted");
    }

    #[test]
    fn huge_declared_len_is_rejected_not_wrapped() {
        // A header declaring k = len = 2^60 makes `len * 16` wrap to 0 on
        // 64-bit targets; the length guard must reject it (not panic in the
        // entry loop). The snapshot variant even carries a *valid* checksum
        // — FNV is unkeyed, so corruption guards cannot rely on it alone.
        let huge = 1u64 << 60;
        let mut buf = Writer::default();
        buf.bytes(b"DPMG");
        buf.u8(1);
        buf.u64(huge); // k
        buf.u64(huge); // len; entry section empty
        assert_eq!(
            decode(&buf.into_bytes()).unwrap_err(),
            SketchError::Corrupt("entry section length mismatch")
        );

        let mut buf = Writer::default();
        buf.bytes(b"DPMS");
        buf.u8(1);
        buf.u64(huge); // k
        buf.u64(3); // epoch
        buf.u64(9); // items
        buf.u64(huge); // len; entry section empty
        assert_eq!(
            decode_snapshot(&buf.seal(Checksum::Fnv1a)).unwrap_err(),
            SketchError::Corrupt("snapshot entry section length mismatch")
        );
    }

    #[test]
    fn summary_and_snapshot_encodings_do_not_alias() {
        // A valid summary encoding must never decode as a snapshot and
        // vice versa — the magics differ and each decoder checks its own.
        let summary_bytes = encode(&sample());
        assert!(decode_snapshot(&summary_bytes).is_err());
        let snapshot_bytes = encode_snapshot(&sample_snapshot());
        assert!(decode(&snapshot_bytes).is_err());
    }

    proptest! {
        #[test]
        fn prop_snapshot_round_trip(
            entries in proptest::collection::btree_map(
                0u64..1000, -1.0e9f64..1.0e9, 0..16),
            epoch in 0u64..1000,
            items in 0u64..1_000_000_000,
        ) {
            let snapshot = SnapshotRecord { k: 16, epoch, items, entries };
            let back = decode_snapshot(&encode_snapshot(&snapshot)).unwrap();
            prop_assert_eq!(snapshot, back);
        }

        /// Stronger than the summary guarantee: thanks to the checksum,
        /// flipping ANY single bit anywhere — header, float payload, or the
        /// checksum itself — is rejected, never silently decoded.
        #[test]
        fn prop_snapshot_rejects_every_byte_flip(
            entries in proptest::collection::btree_map(
                0u64..1000, -1.0e9f64..1.0e9, 1..16),
            epoch in 0u64..1000,
            pos_frac in 0.0f64..1.0,
            bit in 0u8..8,
        ) {
            let snapshot = SnapshotRecord { k: 16, epoch, items: 7, entries };
            let mut bytes = encode_snapshot(&snapshot).to_vec();
            let pos = (bytes.len() as f64 * pos_frac) as usize;
            bytes[pos] ^= 1 << bit;
            prop_assert!(
                decode_snapshot(&bytes).is_err(),
                "flip at byte {pos} bit {bit} decoded"
            );
        }

        /// Every strict prefix is rejected.
        #[test]
        fn prop_snapshot_rejects_every_truncation(
            entries in proptest::collection::btree_map(
                0u64..1000, -1.0e9f64..1.0e9, 0..16),
            frac in 0.0f64..1.0,
        ) {
            let snapshot = SnapshotRecord { k: 16, epoch: 3, items: 9, entries };
            let bytes = encode_snapshot(&snapshot);
            let cut = (bytes.len() as f64 * frac) as usize;
            prop_assert!(decode_snapshot(&bytes[..cut]).is_err());
        }

        /// Decoding is total and panic-free on arbitrary bytes.
        #[test]
        fn prop_snapshot_arbitrary_bytes_never_panic(
            bytes in proptest::collection::vec(0u8..=255, 0..256),
        ) {
            let _ = decode_snapshot(&bytes);
        }
    }

    fn sample_sketch() -> MisraGries<u64> {
        let mut mg = MisraGries::new(4).unwrap();
        mg.extend([3u64, 3, 7, 100, 100, 5, 9, 3]);
        mg
    }

    #[test]
    fn sketch_state_round_trip() {
        for sketch in [sample_sketch(), MisraGries::new(3).unwrap()] {
            let back = decode_sketch_state(&encode_sketch_state(&sketch)).unwrap();
            assert_eq!(back.slots(), sketch.slots());
            assert_eq!(back.stream_len(), sketch.stream_len());
            assert_eq!(back.decrement_count(), sketch.decrement_count());
            assert_eq!(back.k(), sketch.k());
        }
    }

    #[test]
    fn sketch_state_rejects_structural_damage() {
        let bytes = encode_sketch_state(&sample_sketch());
        for cut in [0, 4, STATE_HEADER_LEN, bytes.len() - 1] {
            assert!(decode_sketch_state(&bytes[..cut]).is_err(), "cut = {cut}");
        }
        let mut long = bytes.to_vec();
        long.push(0);
        assert!(
            decode_sketch_state(&long).is_err(),
            "trailing byte accepted"
        );
        let mut bad_version = bytes.to_vec();
        bad_version[4] = 99;
        // Re-seal so only the version differs: unknown versions are
        // rejected, never guessed at.
        let len = bad_version.len();
        let checksum = fnv1a_checksum(&bad_version[..len - 8]);
        bad_version[len - 8..].copy_from_slice(&checksum.to_le_bytes());
        assert_eq!(
            decode_sketch_state(&bad_version).unwrap_err(),
            SketchError::Corrupt("unsupported sketch state version")
        );
    }

    #[test]
    fn sketch_state_rejects_unreachable_states() {
        // A record can be checksum-valid yet describe a state no real
        // sketch reaches; `from_state`'s invariants must still reject it.
        // Here: a dummy slot with a nonzero counter.
        let mut buf = Writer::default();
        buf.bytes(b"DPKS");
        buf.u8(1);
        buf.u64(2); // k
        buf.u64(5); // n
        buf.u64(0); // decrements
        buf.u8(STATE_TAG_ITEM);
        buf.u64(9);
        buf.u64(2);
        buf.u8(STATE_TAG_DUMMY);
        buf.u64(0);
        buf.u64(3); // dummies can never be incremented
        assert_eq!(
            decode_sketch_state(&buf.seal(Checksum::Fnv1a)).unwrap_err(),
            SketchError::Corrupt("dummy slot with nonzero counter")
        );

        // Huge declared k must hit the division guard, not wrap.
        let mut buf = Writer::default();
        buf.bytes(b"DPKS");
        buf.u8(1);
        buf.u64(1u64 << 60); // k
        buf.u64(0);
        buf.u64(0);
        assert_eq!(
            decode_sketch_state(&buf.seal(Checksum::Fnv1a)).unwrap_err(),
            SketchError::Corrupt("sketch state slot section length mismatch")
        );
    }

    proptest! {
        /// Round trip through the wire format preserves behavioural
        /// identity: the decoded sketch continues any future stream exactly
        /// like the original.
        #[test]
        fn prop_sketch_state_round_trip_continues_identically(
            stream in proptest::collection::vec(0u64..12, 0..300),
            tail in proptest::collection::vec(0u64..12, 0..100),
            k in 1usize..8,
        ) {
            let mut original = MisraGries::new(k).unwrap();
            original.extend(stream.iter().copied());
            let mut restored =
                decode_sketch_state(&encode_sketch_state(&original)).unwrap();
            for &x in &tail {
                original.update(x);
                restored.update(x);
            }
            prop_assert_eq!(original.slots(), restored.slots());
            prop_assert_eq!(original.stream_len(), restored.stream_len());
            prop_assert_eq!(original.decrement_count(), restored.decrement_count());
        }

        /// Thanks to the checksum, flipping ANY single bit anywhere is
        /// rejected — a corrupted checkpoint can never restore a wrong
        /// sketch.
        #[test]
        fn prop_sketch_state_rejects_every_byte_flip(
            stream in proptest::collection::vec(0u64..12, 0..300),
            k in 1usize..8,
            pos_frac in 0.0f64..1.0,
            bit in 0u8..8,
        ) {
            let mut mg = MisraGries::new(k).unwrap();
            mg.extend(stream.iter().copied());
            let mut bytes = encode_sketch_state(&mg).to_vec();
            let pos = (bytes.len() as f64 * pos_frac) as usize;
            bytes[pos] ^= 1 << bit;
            prop_assert!(
                decode_sketch_state(&bytes).is_err(),
                "flip at byte {} bit {} decoded", pos, bit
            );
        }

        /// Every strict prefix is rejected.
        #[test]
        fn prop_sketch_state_rejects_every_truncation(
            stream in proptest::collection::vec(0u64..12, 0..300),
            k in 1usize..8,
            frac in 0.0f64..1.0,
        ) {
            let mut mg = MisraGries::new(k).unwrap();
            mg.extend(stream.iter().copied());
            let bytes = encode_sketch_state(&mg);
            let cut = (bytes.len() as f64 * frac) as usize;
            prop_assert!(decode_sketch_state(&bytes[..cut]).is_err());
        }

        /// Decoding is total and panic-free on arbitrary bytes.
        #[test]
        fn prop_sketch_state_arbitrary_bytes_never_panic(
            bytes in proptest::collection::vec(0u8..=255, 0..256),
        ) {
            let _ = decode_sketch_state(&bytes);
        }
    }

    fn frame_stream(frames: &[(u8, &[u8])]) -> Vec<u8> {
        let mut out = Vec::new();
        for &(kind, payload) in frames {
            write_frame(&mut out, kind, payload).unwrap();
        }
        out
    }

    #[test]
    fn frames_round_trip_in_order_and_end_cleanly() {
        let summary_bytes = encode(&sample());
        let bytes = frame_stream(&[(1, b"hello"), (2, &summary_bytes), (3, &[])]);
        let mut cursor = &bytes[..];
        assert_eq!(
            read_frame(&mut cursor).unwrap(),
            Some((1, b"hello".to_vec()))
        );
        let (kind, payload) = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(kind, 2);
        assert_eq!(decode(&payload).unwrap(), sample());
        assert_eq!(read_frame(&mut cursor).unwrap(), Some((3, Vec::new())));
        // Clean EOF at the frame boundary, and it stays clean on re-read.
        assert!(read_frame(&mut cursor).unwrap().is_none());
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn frame_rejects_every_truncation_as_torn_not_clean_eof() {
        let bytes = frame_stream(&[(7, b"payload bytes")]);
        for cut in 1..bytes.len() {
            let mut cursor = &bytes[..cut];
            let err = read_frame(&mut cursor).unwrap_err();
            assert!(matches!(err, FrameError::Corrupt(_)), "cut = {cut}: {err}");
        }
    }

    #[test]
    fn frame_rejects_bad_magic_and_oversized_len() {
        let mut bytes = frame_stream(&[(7, b"xy")]);
        bytes[0] = b'X';
        assert!(matches!(
            read_frame(&mut &bytes[..]).unwrap_err(),
            FrameError::Corrupt("bad frame magic")
        ));

        let mut huge = Vec::new();
        huge.extend_from_slice(&FRAME_MAGIC);
        huge.push(0);
        huge.extend_from_slice(&(MAX_FRAME_PAYLOAD as u32 + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut &huge[..]).unwrap_err(),
            FrameError::Corrupt("frame length exceeds cap")
        ));
        assert!(matches!(
            write_frame(&mut Vec::new(), 0, &vec![0u8; MAX_FRAME_PAYLOAD + 1]).unwrap_err(),
            FrameError::Corrupt("frame payload exceeds cap")
        ));
    }

    #[test]
    fn frame_error_display_and_source() {
        let corrupt = FrameError::Corrupt("bad frame magic");
        assert!(corrupt.to_string().contains("bad frame magic"));
        assert!(std::error::Error::source(&corrupt).is_none());
        let io = FrameError::from(std::io::Error::other("boom"));
        assert!(io.to_string().contains("boom"));
        assert!(std::error::Error::source(&io).is_some());
    }

    proptest! {
        /// Any sequence of frames round-trips in order and ends with a
        /// clean EOF.
        #[test]
        fn prop_frame_sequences_round_trip(
            frames in proptest::collection::vec(
                (0u8..=255, proptest::collection::vec(0u8..=255, 0..64)), 0..8),
        ) {
            let mut bytes = Vec::new();
            for (kind, payload) in &frames {
                write_frame(&mut bytes, *kind, payload).unwrap();
            }
            let mut cursor = &bytes[..];
            for (kind, payload) in &frames {
                let (k, p) = read_frame(&mut cursor).unwrap().unwrap();
                prop_assert_eq!(k, *kind);
                prop_assert_eq!(&p, payload);
            }
            prop_assert!(read_frame(&mut cursor).unwrap().is_none());
        }

        /// Thanks to the whole-frame checksum, flipping ANY single bit of a
        /// frame is rejected — header, kind, length, payload or trailer.
        #[test]
        fn prop_frame_rejects_every_byte_flip(
            kind in 0u8..=255,
            payload in proptest::collection::vec(0u8..=255, 1..64),
            pos_frac in 0.0f64..1.0,
            bit in 0u8..8,
        ) {
            let mut bytes = Vec::new();
            write_frame(&mut bytes, kind, &payload).unwrap();
            let pos = (bytes.len() as f64 * pos_frac) as usize;
            bytes[pos] ^= 1 << bit;
            let mut cursor = &bytes[..];
            // A flip may corrupt this frame's checksum, declare a bogus
            // length (caught by the cap or as a torn frame), or break the
            // magic — but it must never decode as the original frame.
            match read_frame(&mut cursor) {
                Err(FrameError::Corrupt(_)) => {}
                Err(FrameError::Io(e)) => prop_assert!(false, "I/O error on in-memory read: {e}"),
                Ok(decoded) => prop_assert!(
                    decoded != Some((kind, payload.clone())),
                    "flip at byte {} bit {} decoded as the original frame", pos, bit
                ),
            }
        }

        /// Every strict prefix of a frame is a torn frame, never a clean
        /// EOF or a successful read.
        #[test]
        fn prop_frame_rejects_every_truncation(
            kind in 0u8..=255,
            payload in proptest::collection::vec(0u8..=255, 0..64),
            frac in 0.0f64..1.0,
        ) {
            let mut bytes = Vec::new();
            write_frame(&mut bytes, kind, &payload).unwrap();
            let cut = 1 + ((bytes.len() - 1) as f64 * frac) as usize;
            if cut < bytes.len() {
                let mut cursor = &bytes[..cut];
                prop_assert!(matches!(
                    read_frame(&mut cursor),
                    Err(FrameError::Corrupt(_))
                ));
            }
        }

        /// Reading arbitrary bytes never panics.
        #[test]
        fn prop_frame_arbitrary_bytes_never_panic(
            bytes in proptest::collection::vec(0u8..=255, 0..256),
        ) {
            let mut cursor = &bytes[..];
            let _ = read_frame(&mut cursor);
        }
    }
}
