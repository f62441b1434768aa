//! The fleet wire protocol: what a worker process says to the aggregator.
//!
//! Every message is one checksummed DPFR frame
//! ([`dpmg_sketch::serialize::write_frame`]); the frame `kind` byte carries
//! the message type. A complete worker report is the exact sequence
//!
//! ```text
//! worker → aggregator:  HELLO            (identity + partition geometry)
//! aggregator → worker:  GO               (single 0x47 byte — start barrier)
//! worker → aggregator:  DONE             (items sketched, elapsed ns)
//! worker → aggregator:  SUMMARY × s      (one per owned global shard,
//!                                         ascending shard order)
//! worker → aggregator:  BYE              (empty payload)
//! (worker closes its end; aggregator requires clean EOF here)
//! ```
//!
//! The GO barrier exists so the aggregator can time the fleet fairly: no
//! worker starts sketching until every worker has checked in, so wall-clock
//! spans sketching only, not process spawn or stream generation.
//!
//! Report reading is **atomic**: [`read_report`] either returns a fully
//! validated [`WorkerReport`] or an error, never a partial one. Anything
//! unexpected — a torn frame, a flipped byte (checksum), a frame of the wrong
//! kind, a shard outside the worker's block, out-of-order shards, a duplicate
//! report appended after BYE — rejects the whole report, and the aggregator
//! treats the worker as crashed (retry, then coverage accounting). This is
//! what makes worker crashes safe: a summary either arrived bit-exact or it
//! is not merged at all.

use crate::FleetError;
use dpmg_sketch::serialize::{decode, encode, read_frame, write_frame, Reader, Writer};
use dpmg_sketch::Summary;
use std::io::{Read, Write};

/// Frame kind: worker identity + partition geometry (payload: 6 × u64 LE).
pub const KIND_HELLO: u8 = 1;
/// Frame kind: one serialized shard summary (payload: u64 LE global shard
/// index, then the DPMG summary encoding).
pub const KIND_SUMMARY: u8 = 2;
/// Frame kind: ingest finished (payload: items u64 LE, elapsed ns u64 LE).
pub const KIND_DONE: u8 = 3;
/// Frame kind: end of report (empty payload).
pub const KIND_BYE: u8 = 4;

/// The start-barrier byte the aggregator sends after all HELLOs arrived.
pub const GO_BYTE: u8 = 0x47; // 'G'

/// The HELLO payload: who the worker is and which shard block it owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Worker index in `[0, workers)`.
    pub worker_id: u64,
    /// Total workers in the fleet.
    pub workers: u64,
    /// Total global shards `S = workers × shard_count`.
    pub total_shards: u64,
    /// First global shard this worker owns.
    pub first_shard: u64,
    /// Number of consecutive global shards this worker owns.
    pub shard_count: u64,
    /// Misra–Gries size `k` used for every shard sketch.
    pub k: u64,
}

impl Hello {
    /// Serializes to the fixed 48-byte payload (6 × u64 LE).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(48);
        for v in [
            self.worker_id,
            self.workers,
            self.total_shards,
            self.first_shard,
            self.shard_count,
            self.k,
        ] {
            w.u64(v);
        }
        w.into_bytes()
    }

    /// Parses and structurally validates a HELLO payload.
    ///
    /// # Errors
    ///
    /// [`FleetError::Protocol`] on wrong length or inconsistent geometry
    /// (zero shards/k, worker id out of range, block outside the shard
    /// space).
    pub fn decode(payload: &[u8]) -> Result<Self, FleetError> {
        const WRONG_LEN: &str = "HELLO payload must be 48 bytes";
        let read = || {
            let mut r = Reader::new(payload, WRONG_LEN);
            let hello = Hello {
                worker_id: r.u64()?,
                workers: r.u64()?,
                total_shards: r.u64()?,
                first_shard: r.u64()?,
                shard_count: r.u64()?,
                k: r.u64()?,
            };
            r.end(WRONG_LEN)?;
            Ok(hello)
        };
        let hello = read().map_err(FleetError::Protocol)?;
        if hello.workers == 0 || hello.shard_count == 0 || hello.k == 0 {
            return Err(FleetError::Protocol(
                "HELLO geometry must have nonzero workers, shard_count, k",
            ));
        }
        if hello.worker_id >= hello.workers {
            return Err(FleetError::Protocol("HELLO worker_id out of range"));
        }
        let end = hello
            .first_shard
            .checked_add(hello.shard_count)
            .ok_or(FleetError::Protocol("HELLO shard block overflows"))?;
        if end > hello.total_shards {
            return Err(FleetError::Protocol(
                "HELLO shard block exceeds total shards",
            ));
        }
        Ok(hello)
    }
}

/// Encodes a DONE payload.
pub fn encode_done(items: u64, elapsed_ns: u64) -> Vec<u8> {
    let mut w = Writer::with_capacity(16);
    w.u64(items);
    w.u64(elapsed_ns);
    w.into_bytes()
}

/// Decodes a DONE payload into `(items, elapsed_ns)`.
///
/// # Errors
///
/// [`FleetError::Protocol`] on wrong length.
pub fn decode_done(payload: &[u8]) -> Result<(u64, u64), FleetError> {
    const WRONG_LEN: &str = "DONE payload must be 16 bytes";
    let read = || {
        let mut r = Reader::new(payload, WRONG_LEN);
        let done = (r.u64()?, r.u64()?);
        r.end(WRONG_LEN)?;
        Ok(done)
    };
    read().map_err(FleetError::Protocol)
}

/// Encodes a SUMMARY payload: global shard index, then the DPMG bytes.
pub fn encode_summary(global_shard: u64, summary: &Summary<u64>) -> Vec<u8> {
    let body = encode(summary);
    let mut w = Writer::with_capacity(8 + body.len());
    w.u64(global_shard);
    w.bytes(&body);
    w.into_bytes()
}

/// Decodes a SUMMARY payload into `(global_shard, summary)`.
///
/// # Errors
///
/// [`FleetError::Protocol`] on a short payload, [`FleetError::Sketch`] when
/// the embedded DPMG encoding fails structural validation.
pub fn decode_summary(payload: &[u8]) -> Result<(u64, Summary<u64>), FleetError> {
    let mut r = Reader::new(payload, "SUMMARY payload shorter than header");
    let global_shard = r.u64().map_err(FleetError::Protocol)?;
    let body = r.bytes(r.remaining()).map_err(FleetError::Protocol)?;
    Ok((global_shard, decode(body)?))
}

/// One worker's complete, validated report.
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// The geometry the worker announced (already validated).
    pub hello: Hello,
    /// Items the worker sketched (its slice of the stream).
    pub items: u64,
    /// Worker-measured sketching time in nanoseconds (GO → DONE).
    pub elapsed_ns: u64,
    /// One summary per owned shard; index `i` is global shard
    /// `hello.first_shard + i`.
    pub summaries: Vec<Summary<u64>>,
}

/// Reads and validates the HELLO frame that opens a worker's report.
///
/// # Errors
///
/// [`FleetError::Frame`] on torn/corrupt frames — including a clean EOF
/// before any frame, which means the worker died before checking in;
/// [`FleetError::Protocol`] on a non-HELLO frame or invalid geometry.
pub fn read_hello<R: Read>(r: &mut R) -> Result<Hello, FleetError> {
    match read_frame(r)? {
        Some((KIND_HELLO, payload)) => Hello::decode(&payload),
        Some(_) => Err(FleetError::Protocol("expected HELLO frame first")),
        None => Err(FleetError::Protocol("worker closed stream before HELLO")),
    }
}

/// Reads the rest of a report after HELLO: DONE, exactly `shard_count`
/// SUMMARY frames in ascending global-shard order within the announced
/// block, then BYE. Does **not** require EOF afterwards — use
/// [`read_report`] when the stream must carry exactly one report.
///
/// # Errors
///
/// [`FleetError::Frame`] on torn/corrupt frames, [`FleetError::Protocol`] on
/// any out-of-order / wrong-shard / wrong-`k` message, [`FleetError::Sketch`]
/// on a summary that fails structural validation.
pub fn read_report_body<R: Read>(r: &mut R, hello: Hello) -> Result<WorkerReport, FleetError> {
    let (items, elapsed_ns) = match read_frame(r)? {
        Some((KIND_DONE, payload)) => decode_done(&payload)?,
        Some(_) => return Err(FleetError::Protocol("expected DONE after HELLO")),
        None => return Err(FleetError::Protocol("worker closed stream before DONE")),
    };
    let shard_count = usize::try_from(hello.shard_count)
        .map_err(|_| FleetError::Protocol("HELLO shard_count exceeds address space"))?;
    let mut summaries = Vec::with_capacity(shard_count);
    for i in 0..shard_count {
        let expected_shard = hello.first_shard + i as u64;
        match read_frame(r)? {
            Some((KIND_SUMMARY, payload)) => {
                let (global_shard, summary) = decode_summary(&payload)?;
                if global_shard != expected_shard {
                    return Err(FleetError::Protocol(
                        "SUMMARY shard out of order or outside the worker's block",
                    ));
                }
                if summary.k as u64 != hello.k {
                    return Err(FleetError::Protocol(
                        "SUMMARY sketch size k disagrees with HELLO",
                    ));
                }
                summaries.push(summary);
            }
            Some(_) => return Err(FleetError::Protocol("expected SUMMARY frame")),
            None => {
                return Err(FleetError::Protocol(
                    "worker closed stream before sending all summaries",
                ))
            }
        }
    }
    match read_frame(r)? {
        Some((KIND_BYE, payload)) if payload.is_empty() => {}
        Some((KIND_BYE, _)) => return Err(FleetError::Protocol("BYE payload must be empty")),
        Some(_) => return Err(FleetError::Protocol("expected BYE after summaries")),
        None => return Err(FleetError::Protocol("worker closed stream before BYE")),
    }
    Ok(WorkerReport {
        hello,
        items,
        elapsed_ns,
        summaries,
    })
}

/// Reads one complete report (HELLO body already consumed by
/// [`read_hello`]) and requires the stream to end cleanly afterwards.
///
/// The EOF requirement is what rejects duplicated reports: a worker (or a
/// replayed connection) that appends a second HELLO…BYE sequence fails here
/// and the whole report is discarded rather than double-merged.
///
/// # Errors
///
/// As [`read_report_body`], plus [`FleetError::Protocol`] on trailing bytes
/// after BYE.
pub fn read_report<R: Read>(r: &mut R, hello: Hello) -> Result<WorkerReport, FleetError> {
    let report = read_report_body(r, hello)?;
    let mut probe = [0u8; 1];
    loop {
        match r.read(&mut probe) {
            Ok(0) => return Ok(report),
            Ok(_) => return Err(FleetError::Protocol("trailing data after BYE")),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FleetError::Io(e)),
        }
    }
}

/// Sends the GO byte that releases a worker from the start barrier.
///
/// # Errors
///
/// Propagates transport failures.
pub fn write_go<W: Write>(w: &mut W) -> Result<(), FleetError> {
    w.write_all(&[GO_BYTE])?;
    w.flush()?;
    Ok(())
}

/// Blocks until the GO byte arrives.
///
/// # Errors
///
/// [`FleetError::Protocol`] when the aggregator closed the stream or sent
/// anything other than GO.
pub fn read_go<R: Read>(r: &mut R) -> Result<(), FleetError> {
    let mut buf = [0u8; 1];
    loop {
        match r.read(&mut buf) {
            Ok(0) => return Err(FleetError::Protocol("aggregator closed before GO")),
            Ok(_) if buf[0] == GO_BYTE => return Ok(()),
            Ok(_) => return Err(FleetError::Protocol("expected GO byte")),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FleetError::Io(e)),
        }
    }
}

/// Writes a complete report (HELLO is written by the worker before the GO
/// barrier; this helper writes DONE + SUMMARY×s + BYE). Exposed for tests
/// that need to hand-craft hostile byte streams.
///
/// # Errors
///
/// Propagates framing/transport failures.
pub fn write_report_tail<W: Write>(
    w: &mut W,
    first_shard: u64,
    items: u64,
    elapsed_ns: u64,
    summaries: &[Summary<u64>],
) -> Result<(), FleetError> {
    write_frame(w, KIND_DONE, &encode_done(items, elapsed_ns))?;
    for (i, summary) in summaries.iter().enumerate() {
        write_frame(
            w,
            KIND_SUMMARY,
            &encode_summary(first_shard + i as u64, summary),
        )?;
    }
    write_frame(w, KIND_BYE, &[])?;
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpmg_sketch::MisraGries;

    fn sample_summary(k: usize, seed: u64) -> Summary<u64> {
        let mut mg = MisraGries::new(k).unwrap();
        for i in 0..200u64 {
            mg.update((i * seed) % 17);
        }
        mg.summary()
    }

    fn sample_hello() -> Hello {
        Hello {
            worker_id: 1,
            workers: 4,
            total_shards: 8,
            first_shard: 2,
            shard_count: 2,
            k: 8,
        }
    }

    #[test]
    fn hello_round_trips_and_validates() {
        let h = sample_hello();
        assert_eq!(Hello::decode(&h.encode()).unwrap(), h);

        let bad = Hello { worker_id: 4, ..h };
        assert!(matches!(
            Hello::decode(&bad.encode()),
            Err(FleetError::Protocol(_))
        ));
        let bad = Hello {
            first_shard: 7,
            shard_count: 2,
            ..h
        };
        assert!(matches!(
            Hello::decode(&bad.encode()),
            Err(FleetError::Protocol(_))
        ));
        assert!(matches!(
            Hello::decode(&[0u8; 47]),
            Err(FleetError::Protocol(_))
        ));
    }

    #[test]
    fn full_report_round_trips() {
        let h = sample_hello();
        let summaries = [sample_summary(8, 3), sample_summary(8, 5)];
        let mut wire = Vec::new();
        write_frame(&mut wire, KIND_HELLO, &h.encode()).unwrap();
        write_report_tail(&mut wire, h.first_shard, 123, 456, &summaries).unwrap();

        let mut r = wire.as_slice();
        let hello = read_hello(&mut r).unwrap();
        assert_eq!(hello, h);
        let report = read_report(&mut r, hello).unwrap();
        assert_eq!(report.items, 123);
        assert_eq!(report.elapsed_ns, 456);
        assert_eq!(report.summaries, summaries);
    }

    #[test]
    fn report_rejects_out_of_order_and_foreign_shards() {
        let h = sample_hello();
        let summaries = [sample_summary(8, 3), sample_summary(8, 5)];

        // Shards swapped within the block.
        let mut wire = Vec::new();
        write_frame(&mut wire, KIND_DONE, &encode_done(1, 1)).unwrap();
        write_frame(&mut wire, KIND_SUMMARY, &encode_summary(3, &summaries[1])).unwrap();
        write_frame(&mut wire, KIND_SUMMARY, &encode_summary(2, &summaries[0])).unwrap();
        write_frame(&mut wire, KIND_BYE, &[]).unwrap();
        assert!(matches!(
            read_report_body(&mut wire.as_slice(), h),
            Err(FleetError::Protocol(_))
        ));

        // Shard outside the announced block.
        let mut wire = Vec::new();
        write_frame(&mut wire, KIND_DONE, &encode_done(1, 1)).unwrap();
        write_frame(&mut wire, KIND_SUMMARY, &encode_summary(6, &summaries[0])).unwrap();
        assert!(matches!(
            read_report_body(&mut wire.as_slice(), h),
            Err(FleetError::Protocol(_))
        ));
    }

    #[test]
    fn report_rejects_wrong_k_and_trailing_data() {
        let h = sample_hello();
        let ok = vec![sample_summary(8, 3), sample_summary(8, 5)];

        // k disagrees with HELLO.
        let mut wire = Vec::new();
        write_frame(&mut wire, KIND_DONE, &encode_done(1, 1)).unwrap();
        write_frame(
            &mut wire,
            KIND_SUMMARY,
            &encode_summary(2, &sample_summary(4, 3)),
        )
        .unwrap();
        assert!(matches!(
            read_report_body(&mut wire.as_slice(), h),
            Err(FleetError::Protocol(
                "SUMMARY sketch size k disagrees with HELLO"
            ))
        ));

        // A duplicated report after BYE must be rejected, not double-merged.
        let mut wire = Vec::new();
        write_report_tail(&mut wire, h.first_shard, 9, 9, &ok).unwrap();
        let once = wire.clone();
        wire.extend_from_slice(&once);
        assert!(matches!(
            read_report(&mut wire.as_slice(), h),
            Err(FleetError::Protocol("trailing data after BYE"))
        ));
    }

    #[test]
    fn mid_stream_death_is_a_torn_frame_not_a_clean_report() {
        let h = sample_hello();
        let summaries = [sample_summary(8, 3), sample_summary(8, 5)];
        let mut wire = Vec::new();
        write_frame(&mut wire, KIND_HELLO, &h.encode()).unwrap();
        write_report_tail(&mut wire, h.first_shard, 1, 1, &summaries).unwrap();

        // Cut the stream inside the last summary frame.
        let cut = wire.len() - 20;
        let mut r = &wire[..cut];
        let hello = read_hello(&mut r).unwrap();
        let err = read_report(&mut r, hello).unwrap_err();
        assert!(
            matches!(err, FleetError::Frame(_) | FleetError::Protocol(_)),
            "torn stream must not parse: {err}"
        );
    }

    #[test]
    fn go_barrier_round_trips_and_rejects_garbage() {
        let mut buf = Vec::new();
        write_go(&mut buf).unwrap();
        assert_eq!(buf, [GO_BYTE]);
        read_go(&mut buf.as_slice()).unwrap();
        assert!(matches!(
            read_go(&mut [0x00u8].as_slice()),
            Err(FleetError::Protocol(_))
        ));
        assert!(matches!(
            read_go(&mut [].as_slice()),
            Err(FleetError::Protocol(_))
        ));
    }
}
