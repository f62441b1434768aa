//! One corruption suite for every record format. [`check`] takes one
//! valid encoding and its decoder and asserts four properties:
//!
//! 1. every strict prefix is rejected;
//! 2. every single-bit flip is rejected — or, for a format without a
//!    checksum (`DPMG`), decodes to a value that re-encodes to exactly the
//!    flipped bytes, so a flip can never alias another record;
//! 3. arbitrary bytes never panic the decoder, including resealed
//!    mutations of the valid record that get past the checksum and reach
//!    the structural checks;
//! 4. a huge declared count (2^60 written over a record's count and
//!    length fields, then resealed) is rejected rather than wrapped.
//!
//! Prefixes and flips are enumerated exhaustively, so one call checks
//! every position of the record. Shared as a source file by the codec
//! tests of each crate that owns a format.

#![allow(dead_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Debug;

/// Re-encodes a decoded value.
pub type Encode<'a, T> = &'a dyn Fn(&T) -> Vec<u8>;

/// One format under test.
pub struct Codec<'a, T, E> {
    /// A valid encoding; must decode.
    pub valid: &'a [u8],
    /// The decoder; `Err` is a rejection.
    pub decode: &'a dyn Fn(&[u8]) -> Result<T, E>,
    /// For formats without a checksum: re-encodes a decoded value, so a
    /// flip that decodes must be the canonical encoding of what it
    /// decodes to. `None`: every flip must be rejected.
    pub canonical: Option<Encode<'a, T>>,
    /// Recomputes the record's checksum after a deliberate edit (a no-op
    /// for formats without one).
    pub reseal: &'a dyn Fn(&mut [u8]),
    /// Huge-count cases: each is the byte offsets of the `u64` fields
    /// overwritten together (a `DPMG` count needs its `k` raised too).
    pub counts: &'a [&'a [usize]],
}

/// Random byte strings and resealed mutations per call.
const ARBITRARY_CASES: usize = 256;

/// Runs the four properties against `codec`.
pub fn check<T, E: Debug>(codec: Codec<'_, T, E>) {
    let Codec {
        valid,
        decode,
        canonical,
        reseal,
        counts,
    } = codec;
    if let Err(e) = decode(valid) {
        panic!("the valid encoding does not decode: {e:?}");
    }

    for cut in 0..valid.len() {
        assert!(
            decode(&valid[..cut]).is_err(),
            "prefix of {cut} of {} bytes decoded",
            valid.len()
        );
    }

    let mut flipped = valid.to_vec();
    for pos in 0..valid.len() {
        for bit in 0..8 {
            flipped[pos] ^= 1 << bit;
            match (decode(&flipped), canonical) {
                (Err(_), _) => {}
                (Ok(value), Some(encode)) => assert_eq!(
                    encode(&value),
                    flipped,
                    "flip at byte {pos} bit {bit} decoded to a non-canonical record"
                ),
                (Ok(_), None) => panic!("flip at byte {pos} bit {bit} decoded"),
            }
            flipped[pos] ^= 1 << bit;
        }
    }

    let mut rng = StdRng::seed_from_u64(valid.len() as u64);
    for _ in 0..ARBITRARY_CASES {
        let len = rng.random_range(0..valid.len() * 2 + 16);
        let noise: Vec<u8> = (0..len).map(|_| rng.random()).collect();
        let _ = decode(&noise);

        let mut mutated = valid.to_vec();
        for _ in 0..rng.random_range(1..5) {
            let pos = rng.random_range(0..mutated.len());
            mutated[pos] = rng.random();
        }
        if rng.random_bool(0.5) {
            let len = rng.random_range(0..mutated.len() * 2);
            mutated.resize(len, rng.random());
        }
        reseal(&mut mutated);
        let _ = decode(&mutated);
    }

    for &offsets in counts {
        let mut huge = valid.to_vec();
        for &at in offsets {
            huge[at..at + 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
        }
        reseal(&mut huge);
        assert!(
            decode(&huge).is_err(),
            "a huge count at bytes {offsets:?} decoded"
        );
    }
}

/// A `reseal` for records sealed by a trailing `u64` checksum over every
/// preceding byte.
pub fn reseal_with(checksum: fn(&[u8]) -> u64) -> impl Fn(&mut [u8]) {
    move |bytes: &mut [u8]| {
        if let Some(body) = bytes.len().checked_sub(8) {
            let digest = checksum(&bytes[..body]);
            bytes[body..].copy_from_slice(&digest.to_le_bytes());
        }
    }
}

/// A `reseal` for records without a checksum.
pub fn no_reseal(_: &mut [u8]) {}
