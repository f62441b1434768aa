//! The hash index behind [`crate::misra_gries::MisraGries`]: an
//! open-addressing table from keys to the sketch's fixed slot ids.
//!
//! The sketch keeps its `k` keys and counters in dense arrays indexed by
//! slot id, where a key and its counter never move. This index only maps a
//! key to its id. Each entry is a bare `u32` slot id (`u32::MAX` when
//! empty), so the index knows nothing about key types: callers pass an id
//! predicate that compares the key stored under an id, and, to delete, a
//! function that hashes the key stored under an id.
//!
//! * **Linear probing** over a power-of-two array of
//!   `(8 · max(1, k)).next_power_of_two()` entries, so the load factor
//!   stays at most ⅛ and almost every miss stops on its home slot, which
//!   is empty. The index takes 32 bytes per sketch slot at most.
//! * **Fibonacci hashing.** The home slot is the high bits of an fx-style
//!   multiplicative hash ([`FxHasher`]). Every input bit diffuses into
//!   them, so sequential or low-entropy keys still spread.
//! * **Backward-shift deletion.** Removals compact the probe chain in
//!   place instead of leaving tombstones, so probe lengths never degrade
//!   over the sketch's lifetime. The home slot of each entry the shift
//!   examines is read from its key's hash (one multiply for `u64` keys).
//! * **Position-addressed eviction.** A missed [`SlotIndex::find`]
//!   returns the empty slot where it stopped, and a hit returns the
//!   entry's position. Branch 3 ([`SlotIndex::evict`]) inserts into that
//!   empty slot and deletes the victim at its recorded position: two walks
//!   per eviction.

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

/// Largest number of slot ids the index addresses. Ids are `u32`s and
/// `u32::MAX` marks an empty entry, so every id below 2³¹ fits with room
/// to spare.
pub(crate) const MAX_IDS: usize = 1 << 31;

/// An unoccupied entry. No live entry equals it, since ids are `< 2³¹`.
const EMPTY: u32 = u32::MAX;

/// The key → slot-id index; see the [module docs](self).
#[derive(Debug, Clone)]
pub(crate) struct SlotIndex {
    /// `64 − log2(ids.len())`: the home slot of a hash is `hash >> shift`.
    shift: u32,
    /// `ids.len() − 1`; probing steps with `(i + 1) & mask`.
    mask: usize,
    ids: Vec<u32>,
}

impl SlotIndex {
    /// An empty index for up to `ids ≤ MAX_IDS` live entries:
    /// `8 · max(1, ids)` entries rounded up to a power of two.
    pub(crate) fn new(ids: usize) -> Self {
        debug_assert!(ids <= MAX_IDS);
        let len = (ids.max(1) * 8).next_power_of_two();
        Self {
            shift: 64 - len.trailing_zeros(),
            mask: len - 1,
            ids: vec![EMPTY; len],
        }
    }

    /// Heap bytes of the entry array.
    pub(crate) fn space_bytes(&self) -> usize {
        self.ids.len() * std::mem::size_of::<u32>()
    }

    #[inline]
    fn home(&self, hash: u64) -> usize {
        (hash >> self.shift) as usize
    }

    /// Probes for the key hashing to `hash`, asking `is_key(id)` about each
    /// id on the probe path. Returns `Ok((position, id))` for the key's
    /// entry, or `Err(position)` of the empty slot that ended the probe,
    /// where [`Self::evict`] can place the key.
    #[inline]
    pub(crate) fn find(
        &self,
        hash: u64,
        mut is_key: impl FnMut(u32) -> bool,
    ) -> Result<(usize, u32), usize> {
        let mut i = self.home(hash);
        loop {
            let id = self.ids[i];
            if id == EMPTY {
                return Err(i);
            }
            if is_key(id) {
                return Ok((i, id));
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Writes `id` into the empty slot `pos` that a missed [`Self::find`]
    /// returned, with no index mutation since. No other entry moves, so
    /// positions recorded earlier stay valid.
    #[inline]
    fn insert_at(&mut self, pos: usize, id: u32) {
        debug_assert_eq!(self.ids[pos], EMPTY);
        self.ids[pos] = id;
    }

    /// Inserts `id` for a key, hashing to `hash`, known to be absent.
    pub(crate) fn insert(&mut self, hash: u64, id: u32) {
        let pos = self.find(hash, |_| false).unwrap_err();
        self.insert_at(pos, id);
    }

    /// Deletes the entry at `pos` by backward shifting: every entry of the
    /// run after the hole whose probe path covers the hole moves up, so no
    /// tombstone is left behind. `hash_of(id)` returns the hash of the key
    /// stored under `id`, from which the entry's home slot is read.
    #[inline]
    fn remove_at(&mut self, pos: usize, mut hash_of: impl FnMut(u32) -> u64) {
        debug_assert_ne!(self.ids[pos], EMPTY);
        let mut hole = pos;
        let mut j = (pos + 1) & self.mask;
        loop {
            let id = self.ids[j];
            if id == EMPTY {
                break;
            }
            // The hole lies on the entry's probe path iff its displacement
            // from home reaches back to (or past) the hole.
            let displacement = j.wrapping_sub(self.home(hash_of(id))) & self.mask;
            if displacement >= j.wrapping_sub(hole) & self.mask {
                self.ids[hole] = id;
                hole = j;
            }
            j = (j + 1) & self.mask;
        }
        self.ids[hole] = EMPTY;
    }

    /// Branch 3's eviction, which hands the victim's slot id to a new key.
    /// `victim_at` is the position of the victim's entry, and `empty` is
    /// where the new key's miss probe stopped, with no index mutation
    /// since. Writes `key` into `keys[id]` for the victim's `id`, inserts
    /// `id` at `empty`, deletes the victim's entry, and returns the
    /// victim's key. The key is written first: a backward shift that moves
    /// the new entry then reads the new key's home, not the victim's.
    /// `hash(key)` must be the hash the key was probed with.
    #[inline]
    pub(crate) fn evict<T>(
        &mut self,
        keys: &mut [T],
        key: T,
        empty: usize,
        victim_at: usize,
        hash: impl Fn(&T) -> u64,
    ) -> T {
        let id = self.ids[victim_at];
        let victim = std::mem::replace(&mut keys[id as usize], key);
        self.insert_at(empty, id);
        self.remove_at(victim_at, |id| hash(&keys[id as usize]));
        victim
    }

    /// Removes every entry, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.ids.fill(EMPTY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The hashes the model test's keys take. `u64::MAX` homes at the last
    /// slot at every index size, so its runs wrap the array end;
    /// `u64::MAX << 61` shares that home at 8 slots only. Three keys share
    /// each hash, so whole runs share one home.
    const HASHES: [u64; 4] = [u64::MAX, u64::MAX << 61, 0, 1 << 63];

    /// Keys `0..UNIVERSE`; key `x` hashes to `HASHES[x % 4]`.
    const UNIVERSE: u64 = 12;

    fn hash_of(key: &u64) -> u64 {
        HASHES[*key as usize % HASHES.len()]
    }

    /// An index over `keys`, driven as the sketch drives it: `keys[id]` is
    /// the key stored under slot id `id` (`None` while the id is free).
    struct Store {
        index: SlotIndex,
        keys: Vec<Option<u64>>,
    }

    impl Store {
        fn find(&self, key: u64) -> Result<(usize, u32), usize> {
            self.index
                .find(hash_of(&key), |id| self.keys[id as usize] == Some(key))
        }

        fn hash_of_id(keys: &[Option<u64>], id: u32) -> u64 {
            hash_of(&keys[id as usize].expect("an entry names a used id"))
        }

        /// Every used id's entry lies on its key's probe path, with no
        /// `EMPTY` between its home and it; the index holds exactly the
        /// model's entries; every key the model holds is found under its
        /// id, and every other key misses.
        fn check(&self, model: &HashMap<u64, u32>) -> Result<(), TestCaseError> {
            let ids = &self.index.ids;
            let mut live = 0;
            for (pos, &id) in ids.iter().enumerate() {
                if id == EMPTY {
                    continue;
                }
                live += 1;
                let key = self.keys[id as usize];
                prop_assert!(key.is_some(), "entry {id} at {pos} names a free id");
                let mut i = self.index.home(hash_of(&key.unwrap()));
                while i != pos {
                    prop_assert_ne!(ids[i], EMPTY, "gap before id {} at {}", id, pos);
                    i = (i + 1) & self.index.mask;
                }
            }
            prop_assert_eq!(live, model.len());
            for key in 0..UNIVERSE {
                let found = self.find(key).map(|(pos, id)| (ids[pos], id));
                match model.get(&key) {
                    Some(&id) => prop_assert_eq!(found, Ok((id, id)), "key {}", key),
                    None => prop_assert!(found.is_err(), "absent key {} found", key),
                }
            }
            Ok(())
        }
    }

    proptest! {
        /// The index ≡ a `HashMap` from keys to ids over random inserts,
        /// removals and Branch-3 evictions, with probe runs that wrap the
        /// array end and backward shifts across it.
        #[test]
        fn slot_index_matches_hashmap_model(
            capacity in 1usize..=8,
            ops in proptest::collection::vec((0u8..3, 0u64..UNIVERSE, 0u64..UNIVERSE), 0..200),
        ) {
            let mut store = Store {
                index: SlotIndex::new(capacity),
                keys: vec![None; capacity],
            };
            let mut model: HashMap<u64, u32> = HashMap::new();
            for (op, key, other) in ops {
                match (op, store.find(key)) {
                    // Insert an absent key under the lowest free id.
                    (0, Err(_)) => {
                        if let Some(id) = store.keys.iter().position(Option::is_none) {
                            store.keys[id] = Some(key);
                            store.index.insert(hash_of(&key), id as u32);
                            model.insert(key, id as u32);
                        }
                    }
                    // Remove a stored key and free its id.
                    (1, Ok((pos, id))) => {
                        let keys = &store.keys;
                        store.index.remove_at(pos, |id| Store::hash_of_id(keys, id));
                        store.keys[id as usize] = None;
                        model.remove(&key);
                    }
                    // Branch 3: an absent key takes the id of the stored
                    // key `other`.
                    (2, Err(empty)) => {
                        if let Ok((victim_at, id)) = store.find(other) {
                            let victim = store.index.evict(
                                &mut store.keys,
                                Some(key),
                                empty,
                                victim_at,
                                |key| hash_of(&key.expect("an entry names a used id")),
                            );
                            prop_assert_eq!(victim, Some(other));
                            model.remove(&other);
                            model.insert(key, id);
                        }
                    }
                    _ => {}
                }
                store.check(&model)?;
            }
        }
    }

    #[test]
    fn fx_hash_is_deterministic_and_spreads() {
        assert_eq!(fx_hash(&42u64), fx_hash(&42u64));
        assert_ne!(fx_hash(&42u64), fx_hash(&43u64));
        // High bits (the home-slot bits) spread sequential keys: 64 keys
        // over a 256-slot home space land mostly in distinct homes (the
        // index runs at ≤ ⅛ load, so its real home space is wider still).
        let homes: std::collections::HashSet<u64> = (0..64u64).map(|x| fx_hash(&x) >> 56).collect();
        assert!(
            homes.len() > 44,
            "sequential keys spread over home slots: {} distinct",
            homes.len()
        );
    }
}
