//! A cache-friendly flat open-addressing counter table — the storage
//! engine behind the [`crate::misra_gries`] hot path.
//!
//! `std::collections::HashMap` serves the Misra-Gries update loop poorly:
//! every lookup pays the SipHash setup cost (SipHash is DoS-resistant,
//! which a fixed-size counter table does not need), and the control-byte
//! group probing of its swisstable layout is tuned for large maps, not for
//! a table of `k` counters that must fit in cache and be probed millions
//! of times per second. [`FlatCounters`] replaces it with the classic
//! open-addressing design:
//!
//! * **single contiguous slot array** — one allocation, no per-entry
//!   indirection; a probe touches consecutive cache lines;
//! * **linear probing** — the next candidate slot is the next array index,
//!   the friendliest possible pattern for the prefetcher;
//! * **power-of-two capacity** — the home slot is extracted with a shift
//!   (no integer division), see [capacity policy](#capacity-policy);
//! * **fx-style multiplicative hashing** ([`FxHasher`]) — one rotate, one
//!   xor and one multiply per word instead of SipHash's full permutation
//!   rounds. The home slot uses the *high* bits of the product
//!   (Fibonacci hashing), which every input bit diffuses into, so
//!   sequential or low-entropy keys still spread across the table;
//! * **backward-shift deletion** — removals compact the probe chain in
//!   place instead of leaving tombstones, so probe lengths never degrade
//!   over the sketch's lifetime (Misra-Gries evicts a key on every
//!   Branch-3 replacement, which would otherwise accumulate millions of
//!   tombstones).
//!
//! # Capacity policy
//!
//! The table is sized once, up front, for the maximum number of live
//! entries it will hold: `with_live_capacity(m)` allocates
//! `max(8, 2m).next_power_of_two()` slots, so the load factor is bounded
//! by ½ and expected probe lengths stay O(1). A Misra-Gries sketch with
//! `k` counters holds exactly `k` live entries at all times, so its table
//! never needs to grow; inserting *beyond* the declared live capacity is
//! still permitted (the table doubles and rehashes) to keep the type
//! safely reusable outside the sketch. [`FlatCounters::space_bytes`]
//! reports the real heap footprint of this layout.

use std::hash::{Hash, Hasher};

/// Multiplier of the fx hash (the 64-bit golden-ratio constant used by
/// the well-known `FxHasher` family).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, non-cryptographic [`Hasher`] mixing one word per operation.
///
/// Deterministic across runs and platforms (inputs are folded as
/// little-endian words), which the sketch layer relies on: shard routing
/// and table layout must be a pure function of the data so end states are
/// reproducible. Not DoS-resistant — only use where the key set is not
/// adversarial against the *implementation* (the DP release guarantees of
/// this crate never depend on hash quality, only the speed does).
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
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
pub fn fx_hash<T: Hash + ?Sized>(key: &T) -> u64 {
    let mut hasher = FxHasher::default();
    key.hash(&mut hasher);
    hasher.finish()
}

/// One occupied slot: the cached full hash (compared before the key to
/// skip expensive `Eq` on probe collisions, and reused by backward-shift
/// deletion without rehashing), the stored counter word, and the key.
#[derive(Debug, Clone)]
struct Entry<T> {
    hash: u64,
    stored: u64,
    key: T,
}

/// A flat open-addressing `key → u64` table; see the [module docs]
/// (self) for the design and capacity policy.
///
/// ```
/// use dpmg_sketch::flat_counters::FlatCounters;
///
/// let mut t = FlatCounters::with_live_capacity(4);
/// t.insert("a", 1);
/// t.insert("b", 2);
/// *t.get_mut(&"a").unwrap() += 10;
/// assert_eq!(t.get(&"a"), Some(11));
/// assert_eq!(t.remove(&"b"), Some(2));
/// assert_eq!(t.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct FlatCounters<T> {
    /// `64 − log2(slots.len())`: the home slot of hash `h` is `h >> shift`.
    shift: u32,
    /// `slots.len() − 1`; probing steps with `(i + 1) & mask`.
    mask: usize,
    /// Number of occupied slots.
    live: usize,
    /// Live-entry count at which the table doubles (`slots.len() / 2`).
    grow_at: usize,
    /// The contiguous slot array.
    slots: Vec<Option<Entry<T>>>,
}

impl<T: Hash + Eq> FlatCounters<T> {
    /// Creates a table pre-sized for up to `max_live` simultaneously live
    /// entries: `max(8, 2 · max_live)` slots rounded up to a power of two
    /// (load factor ≤ ½, the documented capacity policy).
    pub fn with_live_capacity(max_live: usize) -> Self {
        let capacity = (max_live.max(4) * 2).next_power_of_two();
        Self {
            shift: 64 - capacity.trailing_zeros(),
            mask: capacity - 1,
            live: 0,
            grow_at: capacity / 2,
            slots: std::iter::repeat_with(|| None).take(capacity).collect(),
        }
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the table holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of allocated slots (a power of two, ≥ 2 × live capacity).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Heap bytes occupied by the slot array — the real memory footprint
    /// of the flat layout (exact for the table itself; keys with heap
    /// payloads of their own, e.g. `String`, add their payload on top).
    pub fn space_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Option<Entry<T>>>()
    }

    /// Home slot index for a hash: the high `log2(capacity)` bits of the
    /// multiplicative hash (Fibonacci hashing).
    #[inline]
    fn home(&self, hash: u64) -> usize {
        (hash >> self.shift) as usize
    }

    /// Index of the slot holding `key`, or `None`. Linear probing from the
    /// home slot; an empty slot terminates the chain (backward-shift
    /// deletion guarantees no tombstone holes).
    #[inline]
    fn find(&self, key: &T, hash: u64) -> Option<usize> {
        let mut i = self.home(hash);
        loop {
            match &self.slots[i] {
                None => return None,
                Some(e) if e.hash == hash && e.key == *key => return Some(i),
                Some(_) => i = (i + 1) & self.mask,
            }
        }
    }

    /// The counter stored for `key`, if present.
    #[inline]
    pub fn get(&self, key: &T) -> Option<u64> {
        let hash = fx_hash(key);
        self.find(key, hash).map(|i| {
            self.slots[i]
                .as_ref()
                .expect("find returns occupied slots")
                .stored
        })
    }

    /// Mutable access to the counter stored for `key` — the Branch-1
    /// (increment) hot path of the sketch.
    #[inline]
    pub fn get_mut(&mut self, key: &T) -> Option<&mut u64> {
        self.get_mut_hashed(key, fx_hash(key))
    }

    /// [`Self::get_mut`] with a caller-supplied [`fx_hash`] of `key`, so a
    /// miss-then-insert sequence (the sketch's Branch 3) hashes the key
    /// once.
    #[inline]
    pub fn get_mut_hashed(&mut self, key: &T, hash: u64) -> Option<&mut u64> {
        debug_assert_eq!(hash, fx_hash(key));
        let i = self.find(key, hash)?;
        Some(
            &mut self.slots[i]
                .as_mut()
                .expect("find returns occupied slots")
                .stored,
        )
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains(&self, key: &T) -> bool {
        self.find(key, fx_hash(key)).is_some()
    }

    /// Like [`Self::get`], but also returns the slot index holding `key`,
    /// so a validate-then-evict sequence (the sketch's Branch 3: check
    /// that the eviction candidate's counter still equals the minimum,
    /// then remove it) can hand the index to [`Self::remove_at`] and skip
    /// the second hash-and-probe.
    ///
    /// The index stays valid until the next [`Self::insert`]/
    /// [`Self::remove`]-family call (either may shift entries).
    #[inline]
    pub fn get_indexed(&self, key: &T) -> Option<(usize, u64)> {
        let hash = fx_hash(key);
        self.find(key, hash).map(|i| {
            (
                i,
                self.slots[i]
                    .as_ref()
                    .expect("find returns occupied slots")
                    .stored,
            )
        })
    }

    /// [`Self::get_indexed`] probing by hash and a key predicate instead
    /// of a borrowed key, for callers that hold the key in exploded form
    /// (the sketch's level bucket stores bare `K`s, not `Slot<K>`s) and
    /// would otherwise have to construct — possibly clone into — a `T`
    /// just to compare against it. `hash` must be the full [`fx_hash`] of
    /// the key being looked up and `matches` its equality predicate.
    #[inline]
    pub fn get_indexed_by(
        &self,
        hash: u64,
        mut matches: impl FnMut(&T) -> bool,
    ) -> Option<(usize, u64)> {
        let mut i = self.home(hash);
        loop {
            match &self.slots[i] {
                None => return None,
                Some(e) if e.hash == hash && matches(&e.key) => return Some((i, e.stored)),
                Some(_) => i = (i + 1) & self.mask,
            }
        }
    }

    /// Warms the cache line of `hash`'s home slot with a plain read, so a
    /// probe issued a few iterations later finds it resident. Safe-Rust
    /// software prefetch: the read is kept alive with
    /// [`std::hint::black_box`], costs one load, and mutates nothing.
    #[inline]
    pub fn prefetch(&self, hash: u64) {
        let i = self.home(hash);
        std::hint::black_box(self.slots[i].is_some());
    }

    /// Inserts or replaces `key → value`; returns the previous value if
    /// the key was already present. Doubles the table when the live count
    /// would exceed the ½ load bound.
    pub fn insert(&mut self, key: T, value: u64) -> Option<u64> {
        let hash = fx_hash(&key);
        self.insert_hashed(key, hash, value)
    }

    /// [`Self::insert`] with a caller-supplied [`fx_hash`] of `key`.
    pub fn insert_hashed(&mut self, key: T, hash: u64, value: u64) -> Option<u64> {
        debug_assert_eq!(hash, fx_hash(&key));
        let mut i = self.home(hash);
        loop {
            match &mut self.slots[i] {
                Some(e) if e.hash == hash && e.key == key => {
                    return Some(std::mem::replace(&mut e.stored, value));
                }
                Some(_) => i = (i + 1) & self.mask,
                None => {
                    if self.live == self.grow_at {
                        self.grow();
                        return self.insert_hashed(key, hash, value);
                    }
                    self.slots[i] = Some(Entry {
                        hash,
                        stored: value,
                        key,
                    });
                    self.live += 1;
                    return None;
                }
            }
        }
    }

    /// Removes `key`, returning its counter. Compacts the probe chain by
    /// backward shifting: every entry after the hole that is not already
    /// in its home slot's reach moves up, so no tombstone is left behind.
    pub fn remove(&mut self, key: &T) -> Option<u64> {
        let hash = fx_hash(key);
        let i = self.find(key, hash)?;
        let (_, stored) = self.remove_at(i);
        Some(stored)
    }

    /// Removes the entry at slot `index` (as returned by
    /// [`Self::get_indexed`]), returning its key and counter — the second
    /// half of the validate-then-evict sequence, skipping the re-probe.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not address an occupied slot; indices are
    /// only meaningful when no insert/remove happened since they were
    /// obtained.
    pub fn remove_at(&mut self, index: usize) -> (T, u64) {
        let i = index;
        let removed = self.slots[i].take().expect("remove_at on an occupied slot");
        self.live -= 1;
        // Backward-shift: walk the contiguous run after the hole; an entry
        // may fill the hole iff the hole lies within its probe path, i.e.
        // its displacement from home reaches back to (or past) the hole.
        let mut hole = i;
        let mut j = (i + 1) & self.mask;
        while let Some(e) = &self.slots[j] {
            let displacement = j.wrapping_sub(self.home(e.hash)) & self.mask;
            let hole_distance = j.wrapping_sub(hole) & self.mask;
            if displacement >= hole_distance {
                self.slots[hole] = self.slots[j].take();
                hole = j;
            }
            j = (j + 1) & self.mask;
        }
        (removed.key, removed.stored)
    }

    /// Removes every entry, keeping the slot array (and so the capacity)
    /// allocated for reuse.
    pub fn clear(&mut self) {
        self.slots.fill_with(|| None);
        self.live = 0;
    }

    /// Iterates over `(key, counter)` pairs in unspecified (layout) order.
    /// Callers needing the canonical order sort — exactly what the
    /// summary/release boundary of the sketch does.
    pub fn iter(&self) -> impl Iterator<Item = (&T, u64)> + '_ {
        self.slots.iter().flatten().map(|e| (&e.key, e.stored))
    }

    /// Doubles the slot array and re-places every entry (cached hashes are
    /// reused; keys are not rehashed).
    fn grow(&mut self) {
        let capacity = self.slots.len() * 2;
        let old = std::mem::replace(
            &mut self.slots,
            std::iter::repeat_with(|| None).take(capacity).collect(),
        );
        self.shift = 64 - capacity.trailing_zeros();
        self.mask = capacity - 1;
        self.grow_at = capacity / 2;
        for entry in old.into_iter().flatten() {
            let mut i = self.home(entry.hash);
            while self.slots[i].is_some() {
                i = (i + 1) & self.mask;
            }
            self.slots[i] = Some(entry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn capacity_policy() {
        // max(8, 2m) rounded up to a power of two.
        for (m, want) in [(1, 8), (4, 8), (5, 16), (8, 16), (9, 32), (1024, 2048)] {
            let t = FlatCounters::<u64>::with_live_capacity(m);
            assert_eq!(t.capacity(), want, "max_live = {m}");
            assert_eq!(
                t.space_bytes(),
                want * std::mem::size_of::<Option<Entry<u64>>>()
            );
        }
    }

    #[test]
    fn basic_ops() {
        let mut t = FlatCounters::with_live_capacity(4);
        assert!(t.is_empty());
        assert_eq!(t.insert(7u64, 1), None);
        assert_eq!(t.insert(7, 5), Some(1));
        assert_eq!(t.get(&7), Some(5));
        *t.get_mut(&7).unwrap() += 1;
        assert_eq!(t.get(&7), Some(6));
        assert!(t.contains(&7));
        assert!(!t.contains(&8));
        assert_eq!(t.remove(&8), None);
        assert_eq!(t.remove(&7), Some(6));
        assert_eq!(t.remove(&7), None);
        assert!(t.is_empty());
    }

    #[test]
    fn grows_past_declared_capacity() {
        let mut t = FlatCounters::with_live_capacity(2);
        let initial = t.capacity();
        for x in 0..100u64 {
            t.insert(x, x);
        }
        assert_eq!(t.len(), 100);
        assert!(t.capacity() > initial);
        assert!(t.capacity() >= 200); // load factor stays ≤ ½ through growth
        for x in 0..100u64 {
            assert_eq!(t.get(&x), Some(x), "key {x} after growth");
        }
    }

    #[test]
    fn iter_yields_every_entry_once() {
        let mut t = FlatCounters::with_live_capacity(16);
        for x in 0..10u64 {
            t.insert(x, x * x);
        }
        let mut got: Vec<(u64, u64)> = t.iter().map(|(k, v)| (*k, v)).collect();
        got.sort_unstable();
        assert_eq!(got, (0..10).map(|x| (x, x * x)).collect::<Vec<_>>());
    }

    #[test]
    fn fx_hash_is_deterministic_and_spreads() {
        assert_eq!(fx_hash(&42u64), fx_hash(&42u64));
        assert_ne!(fx_hash(&42u64), fx_hash(&43u64));
        // High bits (the home-slot bits) spread sequential keys: 64 keys
        // over a 256-slot home space (the table runs at ≤ ½ load, so the
        // slot space is always at least twice the key count) land mostly
        // in distinct homes.
        let homes: std::collections::HashSet<u64> = (0..64u64).map(|x| fx_hash(&x) >> 56).collect();
        assert!(
            homes.len() > 44,
            "sequential keys spread over home slots: {} distinct",
            homes.len()
        );
    }

    /// Model-based differential test: a random op sequence applied to both
    /// `FlatCounters` and `std::collections::HashMap` (the exact semantics
    /// the sketch previously ran on) agrees op-by-op and in final content.
    /// A tiny key domain over a tiny table forces probe collisions,
    /// wraparound and backward-shift chains; interleaved removals exercise
    /// deletion compaction; the op count exceeds the declared live
    /// capacity so growth is covered too.
    fn run_model(ops: &[(u8, u8, u64)], max_live: usize) {
        let mut flat = FlatCounters::with_live_capacity(max_live);
        let mut model: HashMap<u8, u64> = HashMap::new();
        for &(op, key, val) in ops {
            match op % 4 {
                0 => assert_eq!(flat.insert(key, val), model.insert(key, val)),
                1 => assert_eq!(flat.remove(&key), model.remove(&key)),
                2 => match (flat.get_mut(&key), model.get_mut(&key)) {
                    (Some(a), Some(b)) => {
                        *a += val;
                        *b += val;
                    }
                    (None, None) => {}
                    (a, b) => panic!("presence diverged: {a:?} vs {b:?}"),
                },
                _ => assert_eq!(flat.get(&key), model.get(&key).copied()),
            }
            assert_eq!(flat.len(), model.len());
        }
        let mut got: Vec<(u8, u64)> = flat.iter().map(|(k, v)| (*k, v)).collect();
        got.sort_unstable();
        let mut want: Vec<(u8, u64)> = model.into_iter().collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    proptest! {
        #[test]
        fn prop_matches_hashmap_model(
            ops in proptest::collection::vec((0u8..4, 0u8..32, 0u64..1000), 0..400),
            max_live in 1usize..20,
        ) {
            run_model(&ops, max_live);
        }
    }

    #[test]
    fn backward_shift_preserves_chains_under_churn() {
        // Deterministic churn on a minimal table: every key stays findable
        // across thousands of insert/remove cycles (tombstone-free probe
        // chains would break here if deletion left holes).
        let mut t = FlatCounters::with_live_capacity(4);
        for round in 0..2000u64 {
            let key = round % 7;
            t.insert(key, round);
            if round % 3 == 0 {
                t.remove(&((round + 3) % 7));
            }
            for probe in 0..7u64 {
                if let Some(v) = t.get(&probe) {
                    assert!(v <= round);
                }
            }
            assert!(t.len() <= 7);
        }
    }
}
