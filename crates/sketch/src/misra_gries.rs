//! The paper's Misra-Gries variant (**Algorithm 1**).
//!
//! Differences from the textbook sketch, both load-bearing for privacy:
//!
//! 1. The sketch starts from `k` *dummy* counters (keys outside the universe,
//!    conceptually `d+1, …, d+k`), so there are always exactly `k` slots.
//! 2. Keys whose counter has dropped to zero are **kept** until their slot is
//!    needed, and the slot reclaimed is always the one holding the *smallest*
//!    zero-count key. The eviction order being a fixed function of the key
//!    set (not of stream order) is what makes neighbouring sketches differ in
//!    at most two keys (Lemma 8).
//!
//! Per element `x`, one of three branches runs:
//!
//! * **Branch 1** — `x` is stored: increment its counter.
//! * **Branch 2** — `x` is not stored and every counter is ≥ 1: decrement all
//!   `k` counters.
//! * **Branch 3** — otherwise: replace the smallest key with count zero by
//!   `x` with counter 1.
//!
//! The frequency estimates equal the textbook sketch's exactly, so Fact 7
//! (Bose et al.) applies: `f̂(x) ∈ [f(x) − n/(k+1), f(x)]`.
//!
//! ## Implementation notes
//!
//! Branch 2 touches all `k` counters; executing it literally costs `O(k)`
//! per decrement and `O(nk)` in the worst case. We instead keep a global
//! `offset` and store each counter as `stored = effective + offset`, making
//! Branch 2 a single `offset += 1` — an O(1) scalar add in place of the
//! full-table sweep. Zero-count keys are exactly those with
//! `stored == offset`.
//!
//! The smallest zero-count key is found with a **level bucket**: a
//! key-sorted `Vec` of the keys whose stored value equals the current
//! minimum level. When the bucket runs dry, one linear pass over the
//! contiguous counter array finds the new minimum stored value and a
//! second collects every key at it (`O(k)`, cache-friendly); the
//! collected keys are sorted descending so Branch 3 pops eviction victims
//! off the tail in exactly the `(counter, key)`-lexicographic order
//! Algorithm 1 requires, at `O(1)` per eviction. A bucketed key goes
//! *stale* when its counter is incremented (Branch 1); stale candidates
//! are detected by one index probe at pop time and simply discarded — the
//! next scan rediscovers them at their new level. Scan levels strictly
//! increase and each level the minimum visits is paid for by a Branch-2
//! offset step (bounded by `α ≤ n/(k+1)`), so the scans amortize to
//! `O(1)` per stream element; the bucket sorts are the only remaining
//! `O(log k)` factor. Compared to the lazy min-heap this replaces, the
//! hot Branch 3 sheds the `O(log k)` top-replacement sift *and* the heap
//! push for the replacement key — on low-skew streams, where ~90% of
//! elements run Branch 3, that sift dominated the per-item cost.
//!
//! **Storage.** The `k` slots have fixed ids: `keys[id]` and `stored[id]`
//! are dense arrays, and a key and its counter never move. A slot-id
//! index (`slot_index`: bare 4-byte `u32` ids, linear probing, fx
//! hashing, ⅛ load factor) maps a key to its id. Branch 1 is one probe
//! plus `stored[id] += m`. Branch 3 reuses the victim's id: the miss probe
//! returned the empty index slot where it stopped, and candidate
//! validation recorded the victim's index position, so the eviction
//! overwrites `keys[id]` and `stored[id]`, writes the id into that empty
//! slot and backward-shift-deletes the victim's entry (4-byte moves, each
//! moved entry's home read from its key's hash). That is two index walks
//! per eviction, where a key-carrying table needs three, and at ⅛ load
//! each walk is usually one or two slots long. The [`naive`]
//! submodule contains a literal transcription of Algorithm 1 used for
//! differential testing; the two implementations are proptest-equivalent
//! on every prefix of random streams.

use crate::slot_index::{fx_hash, FxHasher, SlotIndex, MAX_IDS};
use crate::traits::{FrequencyOracle, Item, SketchError, Summary, TopKSketch};
use std::hash::{Hash, Hasher};

/// A slot key: either a real universe element or one of the `k` initial
/// dummy counters.
///
/// The ordering places every real item *before* every dummy, matching the
/// paper's convention that dummies are the universe-external keys
/// `d+1 < d+2 < … < d+k`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Slot<K> {
    /// A real element of the universe.
    Item(K),
    /// The `i`-th dummy counter (`0 ≤ i < k`), ordered after all real items.
    Dummy(u32),
}

/// Manual [`Hash`] with a fixed variant-tag layout (`0u8` + key for items,
/// `1u8` + index for dummies), so [`item_hash`] can produce the exact hash
/// of `Slot::Item(k)` from a `&K` alone — the sketch probes its index with
/// a borrowed key and constructs a `Slot` only when Branch 3 stores one.
impl<K: Hash> Hash for Slot<K> {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Slot::Item(k) => {
                state.write_u8(0);
                k.hash(state);
            }
            Slot::Dummy(i) => {
                state.write_u8(1);
                i.hash(state);
            }
        }
    }
}

/// The fx hash of `Slot::Item(key)`, computed without constructing (or
/// cloning into) the `Slot`. Guaranteed identical to the hash the sketch
/// indexes `Slot::Item(key)` under by the manual [`Hash`] impl above.
#[inline]
pub fn item_hash<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write_u8(0);
    key.hash(&mut hasher);
    hasher.finish()
}

impl<K> Slot<K> {
    /// Returns the real item, if this slot holds one.
    pub fn item(&self) -> Option<&K> {
        match self {
            Slot::Item(k) => Some(k),
            Slot::Dummy(_) => None,
        }
    }

    /// Whether this slot is a dummy counter.
    pub fn is_dummy(&self) -> bool {
        matches!(self, Slot::Dummy(_))
    }
}

/// The paper's Misra-Gries sketch (Algorithm 1).
///
/// ```
/// use dpmg_sketch::misra_gries::MisraGries;
/// use dpmg_sketch::traits::FrequencyOracle;
///
/// let mut mg = MisraGries::new(4).unwrap();
/// mg.extend([1u64, 1, 1, 2, 2, 3, 4, 5, 1]);
/// // Estimates are within n/(k+1) below the true frequency and never above.
/// assert!(mg.estimate(&1) <= 4.0);
/// assert!(mg.estimate(&1) >= 4.0 - 9.0 / 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct MisraGries<K: Item> {
    k: usize,
    /// Global decrement offset: effective counter = stored − offset.
    offset: u64,
    /// The key of each slot, by slot id (`keys.len() == k`). Branch 3
    /// overwrites its victim's entry in place; nothing else moves a key.
    keys: Vec<Slot<K>>,
    /// Stored (shifted) counter of each slot, by slot id. Invariant:
    /// `stored[id] ≥ offset`.
    stored: Vec<u64>,
    /// Key → slot-id index over [`Self::keys`].
    index: SlotIndex,
    /// The level bucket: keys recorded at stored value
    /// [`Self::bucket_level`], sorted *descending*, so popping from the
    /// tail yields candidates in ascending key order — the `(stored,
    /// key)`-lexicographic eviction order Algorithm 1 requires for equal
    /// stored values. Entries may be stale (counter incremented since the
    /// collecting scan; staleness only ever raises the true value), which
    /// one probe at pop time detects; stale candidates are discarded.
    /// Refilled by a linear scan of [`Self::stored`] each time it runs dry.
    ///
    /// Stored in exploded form — real keys here, dummy indices in
    /// [`Self::bucket_dummies`] — rather than as `Slot<K>`s: every real
    /// item orders before every dummy, so the combined pop order (items
    /// ascending, then dummies ascending) is unchanged, while the sort
    /// that dominates refill cost runs on bare `K`s (for `u64` keys,
    /// half-width elements and a branchless comparison — measurably ~2×
    /// the sort throughput of the 16-byte enum).
    bucket_items: Vec<K>,
    /// Dummy-index half of the level bucket, also descending; consulted
    /// only when [`Self::bucket_items`] is empty. Dummies are never
    /// incremented, so these candidates can never be stale.
    bucket_dummies: Vec<u32>,
    /// The stored value every bucket entry was recorded at. Meaningless
    /// while the bucket is empty. Invariant: `offset ≤ bucket_level`
    /// whenever the bucket is non-empty, with equality exactly when
    /// Branch 3 may fire.
    bucket_level: u64,
    /// Number of stream elements processed.
    n: u64,
    /// Number of Branch-2 (decrement-all) executions, the `α` of Lemma 15.
    decrements: u64,
    /// Whether the current minimum candidate — the bucket's tail entry —
    /// is known fresh (its recorded stored value equals the slot's).
    /// While true, [`Self::fresh_min`] is a single field read with *no*
    /// index probes — Branch 2 never touches stored values, so the
    /// validated candidate survives any number of offset bumps; only a
    /// Branch-1 increment of the candidate itself (checked in
    /// [`Self::increment`]) or a Branch-3 eviction can invalidate it.
    /// `min_fresh` implies the bucket is non-empty.
    min_fresh: bool,
    /// Slot id of the validated candidate (valid only while
    /// [`Self::min_fresh`]).
    min_id: u32,
    /// Index position of the validated candidate's entry (valid only while
    /// [`Self::min_fresh`]: only Branch 3 and `clear` mutate the index, and
    /// both reset the flag), so Branch 3 deletes it without a probe.
    min_at: usize,
}

impl<K: Item> MisraGries<K> {
    /// Largest supported `k`: slot ids and dummy indices are `u32`s, and
    /// the slot-id index keeps `u32::MAX` for its empty entries, so every
    /// id stays below `2³¹`.
    pub const MAX_K: usize = MAX_IDS;

    /// Creates a sketch with `k ≥ 1` counters, initially holding the `k`
    /// dummy keys with counter 0 (line 1 of Algorithm 1).
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::InvalidK`] when `k = 0` or
    /// `k >` [`Self::MAX_K`], before allocating anything.
    pub fn new(k: usize) -> Result<Self, SketchError> {
        Self::check_k(k)?;
        // Capacity policy: the sketch holds exactly `k` slots for its whole
        // lifetime, so every array is sized once, for `k` (the index at ≤ ⅛
        // load, see `SlotIndex::new`).
        let mut sketch = Self::with_slots(k, Vec::with_capacity(k), Vec::with_capacity(k), 0, 0);
        sketch.clear();
        Ok(sketch)
    }

    fn check_k(k: usize) -> Result<(), SketchError> {
        if k == 0 || k > Self::MAX_K {
            return Err(SketchError::InvalidK(k));
        }
        Ok(())
    }

    /// A sketch over the given slot arrays (offset 0), with its index
    /// built and an empty bucket.
    fn with_slots(k: usize, keys: Vec<Slot<K>>, stored: Vec<u64>, n: u64, decrements: u64) -> Self {
        let mut sketch = Self {
            k,
            offset: 0,
            keys,
            stored,
            index: SlotIndex::new(k),
            bucket_items: Vec::with_capacity(k),
            bucket_dummies: Vec::with_capacity(k),
            bucket_level: 0,
            n,
            decrements,
            min_fresh: false,
            min_id: 0,
            min_at: 0,
        };
        sketch.reindex();
        sketch
    }

    /// Rebuilds the index from [`Self::keys`].
    fn reindex(&mut self) {
        self.index.clear();
        for (id, slot) in self.keys.iter().enumerate() {
            self.index.insert(fx_hash(slot), id as u32);
        }
    }

    /// Resets the sketch to the state of `MisraGries::new(k)` — `k` dummy
    /// keys with counter 0, empty stream — in place, keeping every
    /// allocation. A shard worker uses this to start the next epoch without
    /// reallocating its arrays.
    pub fn clear(&mut self) {
        // `k ≤ MAX_K < u32::MAX`, so every dummy index fits.
        let k = self.k as u32;
        self.keys.clear();
        self.keys.extend((0..k).map(Slot::Dummy));
        self.stored.clear();
        self.stored.resize(self.k, 0);
        self.reindex();
        // All k dummies share stored value 0, so they start directly in the
        // level bucket (descending index order: Dummy(k−1) … Dummy(0)).
        self.bucket_items.clear();
        self.bucket_dummies.clear();
        self.bucket_dummies.extend((0..k).rev());
        self.offset = 0;
        self.bucket_level = 0;
        self.n = 0;
        self.decrements = 0;
        // The candidate's index position is not known yet; the first
        // fresh_min call validates Dummy(0) with one probe.
        self.min_fresh = false;
    }

    /// Rebuilds a sketch from a full state capture — the `(slot, effective
    /// count)` pairs of [`Self::slots`] plus the [`Self::stream_len`] and
    /// [`Self::decrement_count`] bookkeeping — such that the rebuilt sketch
    /// is *behaviourally identical* to the captured one: every future
    /// update sequence produces the same slots, counts, and summaries.
    ///
    /// This holds because the update rules (Branches 1–3) depend only on
    /// the effective counters and the slot keys, never on the internal
    /// `offset`, slot ids or bucket: the restored sketch stores the
    /// effective counts directly (offset 0), gives the slots ids in slot
    /// order, and starts with an empty bucket, which the first minimum
    /// query fills. `n` and `decrements` are bookkeeping
    /// restored verbatim so `stream_len`, `error_bound`, and the Lemma 15
    /// counter-sum identity keep holding.
    ///
    /// This is the crash-recovery path of `dpmg-service`'s checkpoints —
    /// unlike [`Self::summary`], which drops dummy slots, `slots` preserves
    /// the dummy identities that drive the Lemma 8 eviction order.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::InvalidK`] when `k = 0` or
    /// `k >` [`Self::MAX_K`], and [`SketchError::Corrupt`] unless the state
    /// is one a real sketch can occupy: exactly `k` slots in strictly
    /// ascending slot order, dummy indices `< k` with counter 0, and the
    /// counter sum matching `n − decrements·(k+1)`.
    pub fn from_state(
        k: usize,
        slots: Vec<(Slot<K>, u64)>,
        n: u64,
        decrements: u64,
    ) -> Result<Self, SketchError> {
        Self::check_k(k)?;
        if slots.len() != k {
            return Err(SketchError::Corrupt(
                "sketch state must hold exactly k slots",
            ));
        }
        for pair in slots.windows(2) {
            if pair[0].0 >= pair[1].0 {
                return Err(SketchError::Corrupt(
                    "sketch state slots not strictly ascending",
                ));
            }
        }
        let mut sum: u64 = 0;
        for (slot, count) in &slots {
            if let Slot::Dummy(i) = slot {
                if *i as usize >= k {
                    return Err(SketchError::Corrupt("dummy slot index out of range"));
                }
                if *count != 0 {
                    return Err(SketchError::Corrupt("dummy slot with nonzero counter"));
                }
            }
            sum = sum
                .checked_add(*count)
                .ok_or(SketchError::Corrupt("sketch state counter sum overflows"))?;
        }
        // Lemma 15 identity: Σ c = n − α·(k+1). Any reachable state
        // satisfies it, so a state that does not is corrupt, not merely odd.
        let spent = decrements
            .checked_mul(k as u64 + 1)
            .and_then(|d| d.checked_add(sum))
            .ok_or(SketchError::Corrupt(
                "sketch state counter identity overflows",
            ))?;
        if spent != n {
            return Err(SketchError::Corrupt(
                "sketch state violates the counter-sum identity",
            ));
        }
        let mut keys = Vec::with_capacity(k);
        let mut stored = Vec::with_capacity(k);
        for (slot, count) in slots {
            keys.push(slot);
            stored.push(count);
        }
        Ok(Self::with_slots(k, keys, stored, n, decrements))
    }

    /// The sketch size `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of stream elements processed so far (`n`).
    #[inline]
    pub fn stream_len(&self) -> u64 {
        self.n
    }

    /// Number of decrement-all steps executed so far (Branch 2); this is the
    /// `α ≤ n/(k+1)` of the Lemma 15 proof.
    #[inline]
    pub fn decrement_count(&self) -> u64 {
        self.decrements
    }

    /// The worst-case underestimate `⌊n/(k+1)⌋` guaranteed by Fact 7.
    #[inline]
    pub fn error_bound(&self) -> u64 {
        self.n / (self.k as u64 + 1)
    }

    /// Probes the index for `x` (`hash = item_hash(x)`): `Ok((position,
    /// id))` if stored, else `Err` of the empty index slot where `x` would
    /// go.
    #[inline]
    fn find_item(&self, x: &K, hash: u64) -> Result<(usize, u32), usize> {
        let keys = &self.keys;
        self.index.find(
            hash,
            |id| matches!(&keys[id as usize], Slot::Item(y) if y == x),
        )
    }

    /// Processes one stream element.
    pub fn update(&mut self, x: K) {
        self.n += 1;
        let hash = item_hash(&x);
        match self.find_item(&x, hash) {
            Ok((_, id)) => self.increment(id, 1),
            Err(empty) => self.slow_absent(x, empty, 1),
        }
    }

    /// Branch 1, `m` times: adds `m` to slot `id`'s counter. If that slot
    /// is the validated minimum candidate (the bucket's tail), the
    /// candidate is no longer fresh. Incrementing any *other* key cannot
    /// disturb the candidate's minimality — every recorded bucket value is
    /// a lower bound on its true counter, so a fresh candidate (recorded ≤
    /// every other recorded ≤ every other true value) remains the exact
    /// `(counter, key)`-lexicographic minimum.
    #[inline]
    fn increment(&mut self, id: u32, m: u64) {
        self.stored[id as usize] += m;
        // Only real items are ever incremented, and whenever any item is
        // bucketed the candidate is the item tail, so a dummy candidate can
        // never be the incremented slot.
        if self.min_fresh && id == self.min_id {
            self.min_fresh = false;
        }
    }

    /// Branches 2/3 for `m ≥ 1` consecutive occurrences of an absent key,
    /// whose miss probe stopped at the empty index slot `empty`.
    ///
    /// With minimum effective counter `g`, the first `min(m, g)` occurrences
    /// each run Branch 2 — `key` stays absent and the minimum drops by 1 per
    /// step, and since Branch 2 never touches stored values, the fresh
    /// minimum found once up front stays the minimum throughout — so the
    /// offset advances by `min(m, g)` at once. If occurrences remain after
    /// the minimum hits 0, the next runs Branch 3 — evicting exactly the key
    /// `fresh_min` identified, now at effective count 0 — and the rest are
    /// Branch-1 increments on the freshly inserted key.
    #[inline]
    fn slow_absent(&mut self, key: K, empty: usize, m: u64) {
        let min_stored = self.fresh_min();
        // Branch 2 × min(m, g): every effective counter is ≥ 1; decrement
        // all of them by bumping the global offset. The stored values are
        // untouched, so the validated candidate stays fresh.
        let decrements = (min_stored - self.offset).min(m);
        self.offset += decrements;
        self.decrements += decrements;
        let remaining = m - decrements;
        if remaining > 0 {
            // Branch 3: evict the smallest zero-count key — the validated
            // bucket tail, whose stored value equals the offset — and take
            // its slot id; then `remaining − 1` Branch-1 increments. Only
            // fresh_min ran since the miss probe and it reads the index
            // without mutating it, so `empty` is still empty; inserting
            // there moves nothing, so `min_at` still addresses the victim
            // when it is deleted. The index briefly holds k + 1 entries in
            // ≥ 8k slots, two of them under the victim's id. The
            // replacement needs no bucket entry — its counter sits above
            // the minimum level, and a future scan picks it up if the
            // minimum ever reaches it.
            debug_assert!(self.min_fresh, "fresh_min ran just above");
            let id = self.min_id as usize;
            debug_assert_eq!(self.stored[id], self.offset);
            let victim = self.index.evict(
                &mut self.keys,
                Slot::Item(key),
                empty,
                self.min_at,
                fx_hash::<Slot<K>>,
            );
            self.stored[id] = self.offset + remaining;
            // Retire the candidate from whichever bucket half held it.
            match victim {
                Slot::Item(x) => {
                    let popped = self.bucket_items.pop();
                    debug_assert_eq!(popped, Some(x));
                }
                Slot::Dummy(i) => {
                    debug_assert!(self.bucket_items.is_empty());
                    let popped = self.bucket_dummies.pop();
                    debug_assert_eq!(popped, Some(i));
                }
            }
            self.min_fresh = false;
        }
    }

    /// Processes a whole stream.
    pub fn extend(&mut self, stream: impl IntoIterator<Item = K>) {
        for x in stream {
            self.update(x);
        }
    }

    /// Processes a batch of elements, producing exactly the same sketch
    /// state as calling [`Self::update`] on each element in order.
    ///
    /// The batched path amortizes the decrement bookkeeping: a run of `m`
    /// equal elements costs one hash lookup instead of `m`, and when a run
    /// of an absent key triggers Branch 2 it applies all of the run's
    /// decrement steps as a single offset bump instead of `m` separate
    /// `fresh_min` queries. This is the ingestion hot path of the sharded
    /// pipeline (`dpmg-pipeline`), where key-routed substreams of skewed
    /// workloads have much higher run density than the global stream.
    ///
    /// Runs are applied one after another, with no software pipelining: at
    /// practical `k` the whole store (4-byte index entries plus the dense
    /// key and counter arrays, 56 KB at k = 1024) is L1/L2-resident, so
    /// hashing or prefetching the next run ahead of the current probe
    /// measured neutral. (An 8-wide hash-ahead window measured strictly
    /// slower.)
    pub fn extend_batch(&mut self, batch: &[K]) {
        let mut start = 0;
        while start < batch.len() {
            let end = Self::run_end(batch, start);
            self.update_run(&batch[start], (end - start) as u64);
            start = end;
        }
    }

    /// Returns the exclusive end of the run of equal elements starting at
    /// `i` (`batch[i] == batch[i+1] == …`).
    #[inline]
    fn run_end(batch: &[K], i: usize) -> usize {
        let first = &batch[i];
        let mut j = i + 1;
        while j < batch.len() && batch[j] == *first {
            j += 1;
        }
        j
    }

    /// Processes `m ≥ 1` consecutive occurrences of `x` in one step: `m`
    /// Branch-1 increments collapse to one `+= m` when `x` is stored, and
    /// [`Self::slow_absent`] collapses the decrement bookkeeping when it
    /// is not. Equivalent to `m` sequential [`Self::update`] calls; `x` is
    /// cloned only when Branch 3 stores it.
    #[inline]
    fn update_run(&mut self, x: &K, m: u64) {
        debug_assert!(m >= 1);
        self.n += m;
        let hash = item_hash(x);
        match self.find_item(x, hash) {
            Ok((_, id)) => self.increment(id, m),
            Err(empty) => self.slow_absent(x.clone(), empty, m),
        }
    }

    /// Returns the minimum stored value, discarding stale candidates until
    /// the bucket's tail is fresh. When the candidate is already validated
    /// (`min_fresh`, the common case on miss-heavy streams) this is a
    /// single field read with no index probes. Stale candidates — their
    /// counter was incremented past the bucket level — are simply dropped
    /// (a later scan rediscovers them at their new level), and once the
    /// bucket runs dry [`Self::refill_bucket`] rebuilds it from the
    /// counters; either way the loop leaves the bucket tail as the exact
    /// `(counter, key)`-lexicographic minimum, which Branch 3 pops as its
    /// eviction victim. Validation records the candidate's slot id and
    /// index position for Branch 3.
    fn fresh_min(&mut self) -> u64 {
        if self.min_fresh {
            return self.bucket_level;
        }
        loop {
            if let Some(x) = self.bucket_items.last() {
                let (at, id) = self
                    .find_item(x, item_hash(x))
                    .expect("bucket keys always live in the sketch");
                let current = self.stored[id as usize];
                if current == self.bucket_level {
                    self.min_fresh = true;
                    self.min_id = id;
                    self.min_at = at;
                    return current;
                }
                // Stale: incremented since the collecting scan.
                debug_assert!(current > self.bucket_level);
                self.bucket_items.pop();
                continue;
            }
            if let Some(&i) = self.bucket_dummies.last() {
                // Dummies are never incremented, so this candidate is fresh
                // by construction; the probe only fetches its id and index
                // position.
                let keys = &self.keys;
                let (at, id) = self
                    .index
                    .find(
                        fx_hash(&Slot::<K>::Dummy(i)),
                        |id| matches!(keys[id as usize], Slot::Dummy(j) if j == i),
                    )
                    .expect("bucket keys always live in the sketch");
                debug_assert_eq!(self.stored[id as usize], self.bucket_level);
                self.min_fresh = true;
                self.min_id = id;
                self.min_at = at;
                return self.bucket_level;
            }
            self.refill_bucket();
        }
    }

    /// Rebuilds the bucket with two linear passes over the contiguous
    /// counters: one finds the minimum stored value, the other collects
    /// every key holding it — all fresh at scan time, so the validation the
    /// caller's loop performs next succeeds immediately. Scan levels
    /// strictly increase, and each level the minimum visits is paid for by
    /// Branch-2 offset steps (bounded by `α ≤ n/(k+1)`), so the `O(k)`
    /// passes amortize to `O(1)` per stream element.
    ///
    /// The refill costs ~16 of ~46 ns per item at k = 1024 on Zipf 0.8
    /// (sort ~13, scans ~3) and ~9 of ~31 ns at k = 256 on Zipf 1.1. Two
    /// cheaper refills were measured and dropped. A `u64` LSD byte-radix
    /// sort (reached through a `'static` `Item` and an `Any` downcast)
    /// measured ×1.10 at k = 1024 (20 of 21 in-process pairs) and ×1.00 at
    /// k = 256, too little for a second sort path. A sort-free variant that
    /// kept logically evicted keys in the index until the level was used
    /// up, and answered a hit on one with an `O(bucket)` rank query, passed
    /// the differential tests but measured ×0.55: 2.3% (k = 1024) and 3.0%
    /// (k = 256) of items hit a logically evicted key.
    fn refill_bucket(&mut self) {
        debug_assert!(self.bucket_items.is_empty() && self.bucket_dummies.is_empty());
        let min = *self
            .stored
            .iter()
            .min()
            .expect("the sketch holds k ≥ 1 slots");
        for (key, _) in self
            .keys
            .iter()
            .zip(&self.stored)
            .filter(|&(_, &s)| s == min)
        {
            match key {
                Slot::Item(x) => self.bucket_items.push(x.clone()),
                Slot::Dummy(i) => self.bucket_dummies.push(*i),
            }
        }
        self.bucket_level = min;
        // Descending, so the tails pop in ascending key order.
        self.bucket_items.sort_unstable_by(|a, b| b.cmp(a));
        self.bucket_dummies.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// Effective counter for `x` (0 if not stored).
    pub fn count(&self, x: &K) -> u64 {
        self.find_item(x, item_hash(x))
            .map(|(_, id)| self.stored[id as usize] - self.offset)
            .unwrap_or(0)
    }

    /// Whether `x` currently occupies a slot (its counter may be 0 — the
    /// paper's variant keeps zero-count keys).
    pub fn contains(&self, x: &K) -> bool {
        self.find_item(x, item_hash(x)).is_ok()
    }

    /// `(key, effective counter)` of every slot, in slot-id order.
    fn entries(&self) -> impl Iterator<Item = (&Slot<K>, u64)> + '_ {
        self.keys
            .iter()
            .zip(&self.stored)
            .map(|(slot, &s)| (slot, s - self.offset))
    }

    /// All `k` slots with their effective counters, sorted by slot order
    /// (real items ascending, then dummies). This is the `T, c` pair that
    /// Algorithm 2 consumes — the private release needs dummy slots too.
    pub fn slots(&self) -> Vec<(Slot<K>, u64)> {
        let mut out: Vec<(Slot<K>, u64)> =
            self.entries().map(|(slot, c)| (slot.clone(), c)).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The stored *real* keys with their effective counters (dummies
    /// removed as post-processing), including zero-count keys.
    pub fn summary(&self) -> Summary<K> {
        Summary::from_entries(
            self.k,
            self.entries()
                .filter_map(|(slot, c)| slot.item().map(|k| (k.clone(), c))),
        )
    }

    /// Words of memory the sketch occupies in the paper's accounting:
    /// `k` keys + `k` counters = `2k` words (Theorem 14).
    pub fn space_words(&self) -> usize {
        2 * self.k
    }

    /// Real heap footprint of the sketch in bytes: the slot-id index
    /// (4-byte entries under the ⅛-load policy), the dense key and counter
    /// arrays, and the level bucket's backing buffers. This is the
    /// concrete-machine counterpart of the paper's `2k`-word accounting
    /// ([`Self::space_words`]), used by the E13 space experiment.
    pub fn space_bytes(&self) -> usize {
        self.index.space_bytes()
            + self.keys.capacity() * std::mem::size_of::<Slot<K>>()
            + self.stored.capacity() * std::mem::size_of::<u64>()
            + self.bucket_items.capacity() * std::mem::size_of::<K>()
            + self.bucket_dummies.capacity() * std::mem::size_of::<u32>()
    }
}

impl<K: Item> FrequencyOracle<K> for MisraGries<K> {
    fn estimate(&self, key: &K) -> f64 {
        self.count(key) as f64
    }
}

impl<K: Item> TopKSketch<K> for MisraGries<K> {
    fn stored_keys(&self) -> Vec<K> {
        let mut keys: Vec<K> = self
            .keys
            .iter()
            .filter_map(|slot| slot.item().cloned())
            .collect();
        keys.sort();
        keys
    }
}

/// A literal, unoptimized transcription of Algorithm 1 used as a reference
/// for differential testing of the production implementation.
pub mod naive {
    use super::Slot;
    use crate::traits::{Item, SketchError};

    /// Reference Misra-Gries: plain vector of `(slot, counter)` pairs,
    /// `O(k)` per update, exactly the paper's pseudocode.
    #[derive(Debug, Clone)]
    pub struct NaiveMisraGries<K: Item> {
        k: usize,
        slots: Vec<(Slot<K>, u64)>,
        n: u64,
    }

    impl<K: Item> NaiveMisraGries<K> {
        /// Creates the sketch with `k` dummy counters.
        ///
        /// # Errors
        ///
        /// Returns [`SketchError::InvalidK`] when `k = 0`.
        pub fn new(k: usize) -> Result<Self, SketchError> {
            if k == 0 {
                return Err(SketchError::InvalidK(0));
            }
            Ok(Self {
                k,
                slots: (0..k).map(|i| (Slot::Dummy(i as u32), 0)).collect(),
                n: 0,
            })
        }

        /// Starts the reference from an arbitrary `k`-slot state after `n`
        /// elements, so a restored sketch can be checked against it.
        #[cfg(test)]
        pub(super) fn from_slots(k: usize, slots: Vec<(Slot<K>, u64)>, n: u64) -> Self {
            assert_eq!(slots.len(), k);
            Self { k, slots, n }
        }

        /// Processes one element by running Algorithm 1's three branches
        /// with linear scans.
        pub fn update(&mut self, x: K) {
            self.n += 1;
            let key = Slot::Item(x);
            if let Some(entry) = self.slots.iter_mut().find(|(s, _)| *s == key) {
                entry.1 += 1; // Branch 1
                return;
            }
            if self.slots.iter().all(|&(_, c)| c >= 1) {
                for entry in &mut self.slots {
                    entry.1 -= 1; // Branch 2
                }
                return;
            }
            // Branch 3: smallest key with counter 0.
            let victim = self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, (_, c))| *c == 0)
                .min_by(|a, b| a.1 .0.cmp(&b.1 .0))
                .map(|(i, _)| i)
                .expect("a zero-count slot exists");
            self.slots[victim] = (key, 1);
        }

        /// Processes a whole stream.
        pub fn extend(&mut self, stream: impl IntoIterator<Item = K>) {
            for x in stream {
                self.update(x);
            }
        }

        /// The sketch size `k`.
        pub fn k(&self) -> usize {
            self.k
        }

        /// Number of stream elements processed.
        pub fn stream_len(&self) -> u64 {
            self.n
        }

        /// All `k` slots sorted by slot order, for comparison with
        /// [`super::MisraGries::slots`].
        pub fn slots(&self) -> Vec<(Slot<K>, u64)> {
            let mut out = self.slots.clone();
            out.sort_by(|a, b| a.0.cmp(&b.0));
            out
        }

        /// Effective counter for `x`.
        pub fn count(&self, x: &K) -> u64 {
            let key = Slot::Item(x.clone());
            self.slots
                .iter()
                .find(|(s, _)| *s == key)
                .map(|&(_, c)| c)
                .unwrap_or(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::naive::NaiveMisraGries;
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_k_zero() {
        assert_eq!(
            MisraGries::<u64>::new(0).unwrap_err(),
            SketchError::InvalidK(0)
        );
        assert!(NaiveMisraGries::<u64>::new(0).is_err());
    }

    #[test]
    fn rejects_k_above_the_slot_layout_limit() {
        let k = MisraGries::<u64>::MAX_K + 1;
        assert_eq!(
            MisraGries::<u64>::new(k).unwrap_err(),
            SketchError::InvalidK(k)
        );
        assert_eq!(
            MisraGries::<u64>::from_state(k, vec![], 0, 0).unwrap_err(),
            SketchError::InvalidK(k)
        );
    }

    #[test]
    fn space_bytes_follows_the_dense_layout() {
        // Index: 8k rounded up to a power of two 4-byte entries.
        // Per slot: a 16-byte `Slot<u64>` key and an 8-byte counter, plus
        // the level bucket's 8-byte item and 4-byte dummy capacity.
        for (k, index_slots) in [
            (1, 8),
            (4, 32),
            (5, 64),
            (8, 64),
            (9, 128),
            (64, 512),
            (1024, 8192),
        ] {
            let want = index_slots * 4 + k * (16 + 8 + 8 + 4);
            let mut mg = MisraGries::<u64>::new(k).unwrap();
            assert_eq!(mg.space_bytes(), want, "new, k = {k}");
            let stream: Vec<u64> = (0..5000u64).map(|i| i * i % 97).collect();
            mg.extend_batch(&stream);
            assert_eq!(mg.space_bytes(), want, "after a stream, k = {k}");
            let restored =
                MisraGries::from_state(k, mg.slots(), mg.stream_len(), mg.decrement_count())
                    .unwrap();
            assert_eq!(restored.space_bytes(), want, "from_state, k = {k}");
            mg.clear();
            assert_eq!(mg.space_bytes(), want, "clear, k = {k}");
        }
    }

    /// A deterministic skewed stream over `universe`.
    fn churn_stream(universe: &[u64], len: usize) -> Vec<u64> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                // Squaring a uniform draw skews toward the universe's head.
                let u = (state >> 40) as usize % universe.len();
                universe[u * u / universe.len()]
            })
            .collect()
    }

    #[test]
    fn churn_with_wrapping_probe_chains_matches_naive() {
        // At k ≤ 4 the index has 8 to 32 slots and a key's home slot is
        // the top 3 to 5 bits of its hash. Keys whose top 5 bits are all
        // set home at the last slot at every such size, so every insert
        // among them after the first wraps around the index end, and every
        // backward-shift deletion among them shifts across it.
        let mut universe: Vec<u64> = (0u64..)
            .filter(|x| item_hash(x) >> 59 == 31)
            .take(5)
            .collect();
        universe.extend(0..7);
        let stream = churn_stream(&universe, 3000);
        for k in 1..=4 {
            let mut fast = MisraGries::new(k).unwrap();
            let mut slow = NaiveMisraGries::new(k).unwrap();
            for (i, &x) in stream.iter().enumerate() {
                fast.update(x);
                slow.update(x);
                assert_eq!(fast.slots(), slow.slots(), "k = {k}, item {i}");
                // slots() reads the dense arrays; count() and contains()
                // probe the index.
                for y in &universe {
                    assert_eq!(fast.count(y), slow.count(y), "k = {k}, item {i}, key {y}");
                    assert_eq!(
                        fast.contains(y),
                        slow.slots().contains(&(Slot::Item(*y), slow.count(y))),
                        "k = {k}, item {i}, key {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn from_state_with_interleaved_dummies_continues_like_the_reference() {
        // No stream reaches this state from `new`: Branch 3 evicts dummies
        // in ascending order, so the live ones are always a suffix, while
        // here dummies 0, 2 and 5 are gone and 1, 3, 4 and 6 remain.
        // Σc = 3 and α = 1, so n = 3 + 1·(k+1).
        let k = 7;
        let state = vec![
            (Slot::Item(3u64), 2),
            (Slot::Item(8), 0),
            (Slot::Item(11), 1),
            (Slot::Dummy(1), 0),
            (Slot::Dummy(3), 0),
            (Slot::Dummy(4), 0),
            (Slot::Dummy(6), 0),
        ];
        let n = 3 + (k as u64 + 1);
        let mut restored = MisraGries::from_state(k, state.clone(), n, 1).unwrap();
        let mut naive = NaiveMisraGries::from_slots(k, state, n);
        let universe: Vec<u64> = (0..16).collect();
        let a = churn_stream(&universe, 600);
        for chunk in a.chunks(37) {
            restored.extend_batch(chunk);
            naive.extend(chunk.iter().copied());
            assert_eq!(restored.slots(), naive.slots());
        }
        for x in &universe {
            assert_eq!(restored.count(x), naive.count(x), "key {x}");
        }
        assert_eq!(restored.stream_len(), naive.stream_len());
        let total: u64 = restored.slots().iter().map(|&(_, c)| c).sum();
        assert_eq!(
            total,
            restored.stream_len() - restored.decrement_count() * (k as u64 + 1)
        );

        // Cleared, the restored sketch is a fresh one.
        let b: Vec<u64> = a.iter().rev().map(|x| x + 5).collect();
        restored.clear();
        restored.extend_batch(&b);
        let mut fresh = MisraGries::new(k).unwrap();
        fresh.extend_batch(&b);
        assert_eq!(restored.slots(), fresh.slots());
        assert_eq!(restored.summary(), fresh.summary());
        assert_eq!(restored.stream_len(), fresh.stream_len());
        assert_eq!(restored.decrement_count(), fresh.decrement_count());
        for x in 0..32u64 {
            assert_eq!(restored.count(&x), fresh.count(&x), "key {x}");
        }
    }

    #[test]
    fn starts_with_k_dummies() {
        let mg = MisraGries::<u64>::new(3).unwrap();
        let slots = mg.slots();
        assert_eq!(slots.len(), 3);
        assert!(slots.iter().all(|(s, c)| s.is_dummy() && *c == 0));
        assert!(mg.summary().is_empty());
    }

    #[test]
    fn branch_1_increments() {
        let mut mg = MisraGries::new(2).unwrap();
        mg.extend([5u64, 5, 5]);
        assert_eq!(mg.count(&5), 3);
        assert_eq!(mg.stream_len(), 3);
        assert_eq!(mg.decrement_count(), 0);
    }

    #[test]
    fn branch_3_evicts_smallest_dummy_first() {
        let mut mg = MisraGries::new(3).unwrap();
        mg.update(42u64);
        // Dummy(0) is the smallest zero-count key and must be the victim.
        let slots = mg.slots();
        assert_eq!(slots[0], (Slot::Item(42), 1));
        assert_eq!(slots[1], (Slot::Dummy(1), 0));
        assert_eq!(slots[2], (Slot::Dummy(2), 0));
    }

    #[test]
    fn branch_2_decrements_all() {
        let mut mg = MisraGries::new(2).unwrap();
        mg.extend([1u64, 2, 3]); // 1 and 2 fill the sketch; 3 decrements both.
        assert_eq!(mg.count(&1), 0);
        assert_eq!(mg.count(&2), 0);
        assert_eq!(mg.count(&3), 0);
        // Zero-count keys are KEPT by the paper's variant.
        assert!(mg.contains(&1));
        assert!(mg.contains(&2));
        assert!(!mg.contains(&3));
        assert_eq!(mg.decrement_count(), 1);
    }

    #[test]
    fn zero_count_keys_can_be_incremented_again() {
        let mut mg = MisraGries::new(2).unwrap();
        mg.extend([1u64, 2, 3]); // both counters now 0, keys 1 and 2 kept
        mg.update(1); // Branch 1 on a zero-count stored key
        assert_eq!(mg.count(&1), 1);
        assert_eq!(mg.count(&2), 0);
    }

    #[test]
    fn eviction_prefers_smallest_real_key_over_dummy() {
        let mut mg = MisraGries::new(3).unwrap();
        // Fill all three slots: 7, 9 and one remaining dummy.
        mg.extend([7u64, 9, 7, 9]);
        // counters: 7→2, 9→2, Dummy(2)→0. New key 1 takes the dummy slot
        // (dummy sorts AFTER real keys but it is the only zero-count key).
        mg.update(1);
        assert!(mg.contains(&1));
        // Now force everything to zero with two decrements.
        mg.extend([100u64, 100]); // 100 not stored; all counters ≥ 1 → wait
                                  // After inserting 1: counters 7→2, 9→2, 1→1. Element 100 triggers
                                  // Branch 2 (all ≥ 1): 7→1, 9→1, 1→0. Second 100: zero exists (key
                                  // 1 is smallest zero) → Branch 3 replaces 1 with 100.
        assert!(!mg.contains(&1));
        assert!(mg.contains(&100));
        assert_eq!(mg.count(&100), 1);
        assert_eq!(mg.count(&7), 1);
    }

    #[test]
    fn fact_7_error_window_on_adversarial_stream() {
        // k+1 distinct elements, each n/(k+1) times: MG may estimate as low
        // as f(x) − n/(k+1) but never above f(x).
        let k = 4;
        let reps = 100u64;
        let mut mg = MisraGries::new(k).unwrap();
        let mut stream = Vec::new();
        for r in 0..reps {
            for e in 0..(k as u64 + 1) {
                let _ = r;
                stream.push(e);
            }
        }
        let n = stream.len() as u64;
        mg.extend(stream);
        for e in 0..(k as u64 + 1) {
            let est = mg.count(&e);
            assert!(est <= reps);
            assert!(est + n / (k as u64 + 1) >= reps);
        }
    }

    #[test]
    fn estimates_never_exceed_true_frequency() {
        let mut mg = MisraGries::new(5).unwrap();
        let stream: Vec<u64> = (0..500).map(|i| i % 13).collect();
        let mut truth = std::collections::HashMap::new();
        for &x in &stream {
            *truth.entry(x).or_insert(0u64) += 1;
        }
        mg.extend(stream.iter().copied());
        for (x, &f) in &truth {
            assert!(mg.count(x) <= f, "key {x}");
            assert!(mg.count(x) + mg.error_bound() >= f, "key {x}");
        }
    }

    #[test]
    fn summary_matches_slots() {
        let mut mg = MisraGries::new(4).unwrap();
        mg.extend([3u64, 3, 1, 2]);
        let summary = mg.summary();
        assert_eq!(summary.count(&3), 2);
        assert_eq!(summary.count(&1), 1);
        assert_eq!(summary.count(&2), 1);
        assert_eq!(summary.k, 4);
        // One dummy slot remains, not part of the summary.
        assert_eq!(summary.len(), 3);
        assert_eq!(mg.slots().len(), 4);
    }

    #[test]
    fn space_is_2k_words() {
        let mg = MisraGries::<u64>::new(64).unwrap();
        assert_eq!(mg.space_words(), 128);
    }

    #[test]
    fn frequency_oracle_impl() {
        let mut mg = MisraGries::new(4).unwrap();
        mg.extend([9u64, 9, 9]);
        assert_eq!(mg.estimate(&9), 3.0);
        assert_eq!(mg.estimate(&1), 0.0);
        assert_eq!(mg.stored_keys(), vec![9]);
    }

    #[test]
    fn extend_batch_equals_sequential_on_fixed_stream() {
        // Covers all three branches, including a run of an absent key long
        // enough to drain the minimum counter (Branch 2 → Branch 3 → Branch 1
        // inside a single run).
        let stream: Vec<u64> = vec![1, 1, 1, 2, 2, 3, 9, 9, 9, 9, 9, 1, 4, 4, 3, 3];
        for k in 1..=5 {
            for split in 0..stream.len() {
                let mut batched = MisraGries::new(k).unwrap();
                batched.extend_batch(&stream[..split]);
                batched.extend_batch(&stream[split..]);
                let mut sequential = MisraGries::new(k).unwrap();
                sequential.extend(stream.iter().copied());
                assert_eq!(batched.slots(), sequential.slots(), "k={k} split={split}");
                assert_eq!(batched.stream_len(), sequential.stream_len());
                assert_eq!(batched.decrement_count(), sequential.decrement_count());
            }
        }
    }

    #[test]
    fn extend_batch_empty_is_noop() {
        let mut mg = MisraGries::<u64>::new(3).unwrap();
        mg.extend_batch(&[]);
        assert_eq!(mg.stream_len(), 0);
        assert!(mg.summary().is_empty());
    }

    #[test]
    fn matches_naive_on_fixed_stream() {
        let stream: Vec<u64> = vec![1, 2, 3, 4, 1, 1, 5, 6, 7, 1, 2, 2, 8, 9, 1, 3, 3, 3];
        for k in 1..=6 {
            let mut fast = MisraGries::new(k).unwrap();
            let mut slow = NaiveMisraGries::new(k).unwrap();
            fast.extend(stream.iter().copied());
            slow.extend(stream.iter().copied());
            assert_eq!(fast.slots(), slow.slots(), "k = {k}");
        }
    }

    #[test]
    fn from_state_round_trips_fresh_and_worked_sketches() {
        let mg = MisraGries::<u64>::new(5).unwrap();
        let back =
            MisraGries::from_state(5, mg.slots(), mg.stream_len(), mg.decrement_count()).unwrap();
        assert_eq!(back.slots(), mg.slots());

        let mut mg = MisraGries::new(3).unwrap();
        mg.extend([1u64, 2, 3, 4, 1, 1, 5, 2]);
        let back =
            MisraGries::from_state(3, mg.slots(), mg.stream_len(), mg.decrement_count()).unwrap();
        assert_eq!(back.slots(), mg.slots());
        assert_eq!(back.stream_len(), mg.stream_len());
        assert_eq!(back.decrement_count(), mg.decrement_count());
        assert_eq!(back.summary(), mg.summary());
    }

    #[test]
    fn from_state_rejects_invalid_states() {
        let mg = MisraGries::<u64>::new(3).unwrap();
        let slots = mg.slots();
        // Wrong slot count.
        assert!(MisraGries::from_state(3, slots[..2].to_vec(), 0, 0).is_err());
        // Unsorted slots.
        let mut rev = slots.clone();
        rev.reverse();
        assert!(MisraGries::from_state(3, rev, 0, 0).is_err());
        // Duplicate slots.
        let dup = vec![slots[0].clone(), slots[0].clone(), slots[1].clone()];
        assert!(MisraGries::from_state(3, dup, 0, 0).is_err());
        // Dummy index out of range.
        let bad = vec![
            (Slot::Item(1u64), 1),
            (Slot::Dummy(0), 0),
            (Slot::Dummy(9), 0),
        ];
        assert!(MisraGries::from_state(3, bad, 1, 0).is_err());
        // Dummy with a nonzero counter.
        let bad = vec![
            (Slot::Item(1u64), 1),
            (Slot::Dummy(0), 2),
            (Slot::Dummy(1), 0),
        ];
        assert!(MisraGries::from_state(3, bad, 3, 0).is_err());
        // Counter-sum identity violated (n says 5, counters say 1).
        let bad = vec![
            (Slot::Item(1u64), 1),
            (Slot::Dummy(0), 0),
            (Slot::Dummy(1), 0),
        ];
        assert!(MisraGries::from_state(3, bad, 5, 0).is_err());
        // k = 0.
        assert!(matches!(
            MisraGries::<u64>::from_state(0, vec![], 0, 0),
            Err(SketchError::InvalidK(0))
        ));
    }

    /// Variable-length `String` keys: both full 8-byte hash chunks and the
    /// tagged sub-word remainder, plus key comparisons on tag collisions.
    const PALETTE: [&str; 12] = [
        "",
        "a",
        "b",
        "c",
        "ab",
        "bc",
        "ca",
        "abc",
        "abcdefgh",
        "abcdefghi",
        "quite-a-long-key",
        "quite-a-long-key2",
    ];

    proptest! {
        /// Checkpoint/restore fidelity: capturing a sketch mid-stream with
        /// `slots()` and rebuilding via `from_state` yields a sketch whose
        /// behaviour on the rest of the stream is indistinguishable from the
        /// uninterrupted original — the property `dpmg-service` crash
        /// recovery is built on.
        #[test]
        fn prop_from_state_continuation_is_bit_identical(
            stream in proptest::collection::vec(0u64..12, 0..400),
            k in 1usize..8,
            cut_frac in 0.0f64..1.0,
        ) {
            let cut = (stream.len() as f64 * cut_frac) as usize;
            let mut original = MisraGries::new(k).unwrap();
            original.extend(stream[..cut].iter().copied());
            let mut restored = MisraGries::from_state(
                k,
                original.slots(),
                original.stream_len(),
                original.decrement_count(),
            ).unwrap();
            for &x in &stream[cut..] {
                original.update(x);
                restored.update(x);
            }
            prop_assert_eq!(original.slots(), restored.slots());
            prop_assert_eq!(original.summary(), restored.summary());
            prop_assert_eq!(original.stream_len(), restored.stream_len());
            prop_assert_eq!(original.decrement_count(), restored.decrement_count());
        }

        /// `clear` is `new` in place: a sketch fed stream A, cleared, then
        /// fed stream B is indistinguishable from a fresh sketch fed only B.
        #[test]
        fn prop_clear_then_stream_matches_fresh(
            a in proptest::collection::vec(0u64..12, 0..400),
            b in proptest::collection::vec(0u64..12, 0..400),
            k in 1usize..8,
        ) {
            let mut reused = MisraGries::new(k).unwrap();
            reused.extend_batch(&a);
            reused.clear();
            reused.extend_batch(&b);
            let mut fresh = MisraGries::new(k).unwrap();
            fresh.extend_batch(&b);
            prop_assert_eq!(reused.slots(), fresh.slots());
            prop_assert_eq!(reused.summary(), fresh.summary());
            prop_assert_eq!(reused.stream_len(), fresh.stream_len());
            prop_assert_eq!(reused.decrement_count(), fresh.decrement_count());
        }

        /// Differential test: the heap/offset implementation agrees with the
        /// literal Algorithm 1 transcription on every prefix of random
        /// streams over a small universe (small so collisions are common and
        /// all three branches fire).
        #[test]
        fn prop_fast_matches_naive(
            stream in proptest::collection::vec(0u64..12, 0..400),
            k in 1usize..8,
        ) {
            let mut fast = MisraGries::new(k).unwrap();
            let mut slow = NaiveMisraGries::new(k).unwrap();
            for &x in &stream {
                fast.update(x);
                slow.update(x);
            }
            prop_assert_eq!(fast.slots(), slow.slots());
        }

        /// Differential test for the batched hot path: `extend_batch` over
        /// arbitrary batch boundaries is indistinguishable from per-element
        /// `update`, checked against BOTH the heap/offset implementation and
        /// the literal Algorithm 1 transcription. A small universe with a
        /// skewed repeat pattern makes long runs (the amortized case) common.
        #[test]
        fn prop_extend_batch_matches_updates(
            stream in proptest::collection::vec(0u64..6, 0..400),
            k in 1usize..8,
            batch_size in 1usize..50,
        ) {
            let mut batched = MisraGries::new(k).unwrap();
            for chunk in stream.chunks(batch_size) {
                batched.extend_batch(chunk);
            }
            let mut sequential = MisraGries::new(k).unwrap();
            let mut naive = NaiveMisraGries::new(k).unwrap();
            for &x in &stream {
                sequential.update(x);
                naive.update(x);
            }
            prop_assert_eq!(batched.slots(), sequential.slots());
            prop_assert_eq!(batched.slots(), naive.slots());
            prop_assert_eq!(batched.stream_len(), sequential.stream_len());
            prop_assert_eq!(batched.decrement_count(), sequential.decrement_count());
        }

        /// Differential test with variable-length `String` keys: exercises
        /// the byte-stream hashing path (`Hasher::write`) and key
        /// comparisons on tag collisions, which the `u64` streams above
        /// never touch.
        #[test]
        fn prop_fast_matches_naive_string_keys(
            raw in proptest::collection::vec(0usize..12, 0..200),
            k in 1usize..6,
        ) {
            let stream: Vec<String> = raw.iter().map(|&i| PALETTE[i].to_string()).collect();
            let mut fast = MisraGries::new(k).unwrap();
            let mut slow = NaiveMisraGries::new(k).unwrap();
            for x in &stream {
                fast.update(x.clone());
                slow.update(x.clone());
            }
            prop_assert_eq!(fast.slots(), slow.slots());
            prop_assert_eq!(fast.summary(), Summary::from_entries(
                k,
                slow.slots()
                    .into_iter()
                    .filter_map(|(s, c)| s.item().cloned().map(|key| (key, c))),
            ));
        }

        /// The `String` palette above through `extend_batch` at arbitrary
        /// batch boundaries, against the literal Algorithm 1 transcription.
        #[test]
        fn prop_extend_batch_matches_naive_string_keys(
            raw in proptest::collection::vec(0usize..12, 0..300),
            k in 1usize..6,
            batch_size in 1usize..50,
        ) {
            let stream: Vec<String> = raw.iter().map(|&i| PALETTE[i].to_string()).collect();
            let mut batched = MisraGries::new(k).unwrap();
            for chunk in stream.chunks(batch_size) {
                batched.extend_batch(chunk);
            }
            let mut naive = NaiveMisraGries::new(k).unwrap();
            naive.extend(stream.iter().cloned());
            prop_assert_eq!(batched.slots(), naive.slots());
            for key in PALETTE {
                prop_assert_eq!(batched.count(&key.to_string()), naive.count(&key.to_string()));
            }
        }

        /// Fact 7: estimates live in [f(x) − n/(k+1), f(x)] for every key.
        #[test]
        fn prop_fact7_window(
            stream in proptest::collection::vec(0u64..30, 1..600),
            k in 1usize..10,
        ) {
            let mut mg = MisraGries::new(k).unwrap();
            let mut truth = std::collections::HashMap::new();
            for &x in &stream {
                mg.update(x);
                *truth.entry(x).or_insert(0u64) += 1;
            }
            let bound = stream.len() as u64 / (k as u64 + 1);
            for (x, &f) in &truth {
                let est = mg.count(x);
                prop_assert!(est <= f);
                prop_assert!(est + bound >= f);
            }
        }

        /// The number of decrement rounds never exceeds n/(k+1).
        #[test]
        fn prop_decrement_budget(
            stream in proptest::collection::vec(0u64..20, 0..500),
            k in 1usize..8,
        ) {
            let mut mg = MisraGries::new(k).unwrap();
            mg.extend(stream.iter().copied());
            prop_assert!(mg.decrement_count() <= stream.len() as u64 / (k as u64 + 1));
        }

        /// Counter-sum identity from the Lemma 15 proof:
        /// Σ c_x = n − α·(k+1) where α is the decrement count.
        #[test]
        fn prop_counter_sum_identity(
            stream in proptest::collection::vec(0u64..15, 0..500),
            k in 1usize..8,
        ) {
            let mut mg = MisraGries::new(k).unwrap();
            mg.extend(stream.iter().copied());
            let total: u64 = mg.slots().iter().map(|&(_, c)| c).sum();
            prop_assert_eq!(
                total,
                stream.len() as u64 - mg.decrement_count() * (k as u64 + 1)
            );
        }

        /// The sketch always stores exactly k slots.
        #[test]
        fn prop_always_k_slots(
            stream in proptest::collection::vec(0u64..50, 0..300),
            k in 1usize..10,
        ) {
            let mut mg = MisraGries::new(k).unwrap();
            mg.extend(stream.iter().copied());
            prop_assert_eq!(mg.slots().len(), k);
        }
    }
}
