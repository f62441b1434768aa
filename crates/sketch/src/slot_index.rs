//! The hash index behind [`crate::misra_gries::MisraGries`]: an
//! open-addressing table from keys to the sketch's fixed slot ids.
//!
//! The sketch keeps its `k` keys and counters in dense arrays indexed by
//! slot id, where a key and its counter never move. This index only maps a
//! key to its id. Each entry is one packed `u64`, the high 32 bits of the
//! key's hash (the *tag*) above the `u32` slot id, so the index knows
//! nothing about key types: callers pass an id predicate that compares the
//! key stored under a tag-matching id.
//!
//! * **Linear probing** over a power-of-two array of
//!   `max(8, 2k).next_power_of_two()` entries, so the load factor stays
//!   at most ½.
//! * **Fibonacci hashing.** The home slot is the high bits of an fx-style
//!   multiplicative hash ([`FxHasher`]). Every input bit diffuses into
//!   them, so sequential or low-entropy keys still spread.
//! * **Backward-shift deletion.** Removals compact the probe chain in
//!   place instead of leaving tombstones, so probe lengths never degrade
//!   over the sketch's lifetime. The home slot is read back from the tag,
//!   so nothing is rehashed.
//! * **Position-addressed insert and remove.** A missed [`SlotIndex::find`]
//!   returns the empty slot where it stopped, and a hit returns the
//!   entry's position. Branch 3 inserts into that empty slot and deletes
//!   the victim at its recorded position: two walks per eviction.

use std::hash::{Hash, Hasher};

/// Multiplier of the fx hash (the 64-bit golden-ratio constant used by
/// the well-known `FxHasher` family).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, non-cryptographic [`Hasher`] mixing one word per operation.
///
/// Deterministic across runs and platforms (inputs are folded as
/// little-endian words), so the index layout is a pure function of the
/// data. Not DoS-resistant: the DP release guarantees of this crate never
/// depend on hash quality, only the speed does.
#[derive(Debug, Default, Clone)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            // rem.len() < 8, so byte 7 of `buf` is zero and free to carry a
            // length tag (distinguishes trailing-zero inputs of different
            // lengths).
            self.add(u64::from_le_bytes(buf) | (rem.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// Hashes `key` with [`FxHasher`].
#[inline]
pub(crate) fn fx_hash<T: Hash + ?Sized>(key: &T) -> u64 {
    let mut hasher = FxHasher::default();
    key.hash(&mut hasher);
    hasher.finish()
}

/// Largest number of slot ids the index addresses. Ids are `u32`s, and the
/// home slot is read from the 32-bit tag, so the index may have at most
/// 2³² entries, which the ½-load policy fills at 2³¹ ids.
pub(crate) const MAX_IDS: usize = 1 << 31;

/// The tag half of an entry (and of a hash).
const TAG: u64 = !(u32::MAX as u64);

/// An unoccupied entry. No live entry equals it, since ids are `< 2³¹`.
const EMPTY: u64 = u64::MAX;

/// The packed key → slot-id index; see the [module docs](self).
#[derive(Debug, Clone)]
pub(crate) struct SlotIndex {
    /// `64 − log2(entries.len())`: the home slot of a hash (or of an
    /// entry, which shares its high 32 bits) is `x >> shift`.
    shift: u32,
    /// `entries.len() − 1`; probing steps with `(i + 1) & mask`.
    mask: usize,
    entries: Vec<u64>,
}

impl SlotIndex {
    /// An empty index for up to `ids ≤ MAX_IDS` live entries:
    /// `max(8, 2 · ids)` entries rounded up to a power of two.
    pub(crate) fn new(ids: usize) -> Self {
        debug_assert!(ids <= MAX_IDS);
        let len = (ids.max(4) * 2).next_power_of_two();
        Self {
            shift: 64 - len.trailing_zeros(),
            mask: len - 1,
            entries: vec![EMPTY; len],
        }
    }

    /// Heap bytes of the entry array.
    pub(crate) fn space_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<u64>()
    }

    #[inline]
    fn home(&self, hash_or_entry: u64) -> usize {
        (hash_or_entry >> self.shift) as usize
    }

    /// Probes for the key hashing to `hash`. `is_key(id)` is asked only
    /// about ids whose tag matches. Returns `Ok((position, id))` for the
    /// key's entry, or `Err(position)` of the empty slot that ended the
    /// probe, where [`Self::insert_at`] can place the key.
    #[inline]
    pub(crate) fn find(
        &self,
        hash: u64,
        mut is_key: impl FnMut(u32) -> bool,
    ) -> Result<(usize, u32), usize> {
        let tag = hash & TAG;
        let mut i = self.home(hash);
        loop {
            let entry = self.entries[i];
            if entry == EMPTY {
                return Err(i);
            }
            if entry & TAG == tag && is_key(entry as u32) {
                return Ok((i, entry as u32));
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Writes the entry of `(hash, id)` into the empty slot `pos` that a
    /// missed [`Self::find`] for `hash` returned, with no index mutation
    /// since. No other entry moves, so positions recorded earlier stay
    /// valid.
    #[inline]
    pub(crate) fn insert_at(&mut self, pos: usize, hash: u64, id: u32) {
        debug_assert_eq!(self.entries[pos], EMPTY);
        self.entries[pos] = (hash & TAG) | id as u64;
    }

    /// Inserts `(hash, id)` for a key known to be absent.
    pub(crate) fn insert(&mut self, hash: u64, id: u32) {
        let pos = self.find(hash, |_| false).unwrap_err();
        self.insert_at(pos, hash, id);
    }

    /// Deletes the entry at `pos` by backward shifting: every entry of the
    /// run after the hole whose probe path covers the hole moves up, so no
    /// tombstone is left behind.
    #[inline]
    pub(crate) fn remove_at(&mut self, pos: usize) {
        debug_assert_ne!(self.entries[pos], EMPTY);
        let mut hole = pos;
        let mut j = (pos + 1) & self.mask;
        loop {
            let entry = self.entries[j];
            if entry == EMPTY {
                break;
            }
            // The hole lies on `entry`'s probe path iff its displacement
            // from home reaches back to (or past) the hole.
            let displacement = j.wrapping_sub(self.home(entry)) & self.mask;
            if displacement >= j.wrapping_sub(hole) & self.mask {
                self.entries[hole] = entry;
                hole = j;
            }
            j = (j + 1) & self.mask;
        }
        self.entries[hole] = EMPTY;
    }

    /// Removes every entry, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.entries.fill(EMPTY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fx_hash_is_deterministic_and_spreads() {
        assert_eq!(fx_hash(&42u64), fx_hash(&42u64));
        assert_ne!(fx_hash(&42u64), fx_hash(&43u64));
        // High bits (the home-slot bits) spread sequential keys: 64 keys
        // over a 256-slot home space (the index runs at ≤ ½ load, so the
        // slot space is always at least twice the key count) land mostly
        // in distinct homes.
        let homes: std::collections::HashSet<u64> = (0..64u64).map(|x| fx_hash(&x) >> 56).collect();
        assert!(
            homes.len() > 44,
            "sequential keys spread over home slots: {} distinct",
            homes.len()
        );
    }
}
