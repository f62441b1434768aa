//! Windowed and exponentially-decayed Misra-Gries variants.
//!
//! The paper's sketch (Algorithm 1) summarises the *whole* stream; the
//! motivating applications (network monitoring, trending queries) usually
//! want the heavy hitters of the **recent past**. Two standard recency
//! semantics are provided, both built from the paper's own primitives so
//! the release-side privacy analysis carries over unchanged:
//!
//! * [`WindowedMisraGries`] — a **block sliding window**: the stream is
//!   cut into caller-defined blocks (one [`WindowedMisraGries::advance`]
//!   call per block, e.g. one per service epoch); each block is sketched
//!   by its own Algorithm-1 [`MisraGries`] and the window summary is the
//!   Section 7 merge ([`merge_many`]) of the last `W` block summaries.
//!   The window estimate error is the Lemma 29 bound `⌊M/(k+1)⌋` for `M`
//!   items in the window, and — crucially for the private release — a
//!   window summary is *exactly* the merged-summary object Corollary 18
//!   calibrates, so `gshm`/`merged-laplace` release it soundly.
//! * [`DecayedMisraGries`] — **exponential decay**: at every
//!   [`DecayedMisraGries::decay`] tick the stored counters are scaled by a
//!   factor `γ < 1` and the sketch is rebuilt through
//!   [`MisraGries::from_state`] (sound because Algorithm 1's behaviour
//!   depends only on the effective counters and keys). Old mass fades
//!   geometrically instead of falling off a cliff, which tracks key churn
//!   without storing per-block sketches.

use crate::merge::{merge_many, merged_error_bound};
use crate::misra_gries::{MisraGries, Slot};
use crate::traits::{FrequencyOracle, Item, SketchError, Summary};
use std::collections::VecDeque;

/// Sliding-window Misra-Gries over caller-defined blocks.
///
/// Holds the current block's live [`MisraGries`] plus the sealed summaries
/// of the previous `W − 1` blocks; [`Self::summary`] merges all of them.
/// Space is `O(W·k)`; the window summary has at most `k` keys like any
/// merged summary, so everything downstream (release mechanisms, serving)
/// is unchanged.
///
/// ```
/// use dpmg_sketch::windowed::WindowedMisraGries;
///
/// let mut w = WindowedMisraGries::new(8, 2).unwrap(); // window = 2 blocks
/// w.extend(std::iter::repeat_n(7u64, 100));
/// w.advance();
/// w.extend(std::iter::repeat_n(9u64, 100));
/// assert!(w.summary().count(&7) > 0); // block 1 still in the window
/// w.advance();
/// w.extend(std::iter::repeat_n(9u64, 10));
/// assert_eq!(w.summary().count(&7), 0); // block 1 slid out
/// assert!(w.summary().count(&9) > 0);
/// ```
#[derive(Debug, Clone)]
pub struct WindowedMisraGries<K: Item> {
    k: usize,
    window_blocks: usize,
    current: MisraGries<K>,
    /// Sealed `(summary, items)` of recent blocks, oldest first; holds at
    /// most `window_blocks − 1` entries (the current block is the last).
    sealed: VecDeque<(Summary<K>, u64)>,
}

impl<K: Item> WindowedMisraGries<K> {
    /// Creates a windowed sketch of `k` counters per block spanning the
    /// last `window_blocks` blocks (the current, still-open block counts
    /// as one).
    ///
    /// # Errors
    ///
    /// [`SketchError::InvalidK`] when `k = 0`.
    ///
    /// # Panics
    ///
    /// Panics when `window_blocks = 0` — a zero-length window has no
    /// meaning (there is always a current block).
    pub fn new(k: usize, window_blocks: usize) -> Result<Self, SketchError> {
        assert!(window_blocks > 0, "window must span at least 1 block");
        Ok(Self {
            k,
            window_blocks,
            current: MisraGries::new(k)?,
            sealed: VecDeque::with_capacity(window_blocks),
        })
    }

    /// The per-block sketch size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The window span in blocks.
    pub fn window_blocks(&self) -> usize {
        self.window_blocks
    }

    /// Blocks currently inside the window (1 ..= `window_blocks`).
    pub fn occupied_blocks(&self) -> usize {
        self.sealed.len() + 1
    }

    /// Items in the window (sealed blocks + the open block).
    pub fn window_items(&self) -> u64 {
        self.sealed.iter().map(|(_, n)| n).sum::<u64>() + self.current.stream_len()
    }

    /// Routes one element into the open block.
    pub fn update(&mut self, x: K) {
        self.current.update(x);
    }

    /// Ingests a whole iterator into the open block.
    pub fn extend(&mut self, stream: impl IntoIterator<Item = K>) {
        self.current.extend(stream);
    }

    /// Seals the open block and starts a fresh one, sliding the oldest
    /// block out once the window is full. Callers define the block
    /// cadence — the epoch service calls this once per epoch.
    pub fn advance(&mut self) {
        let items = self.current.stream_len();
        let summary = self.current.summary();
        self.sealed.push_back((summary, items));
        while self.sealed.len() >= self.window_blocks {
            self.sealed.pop_front();
        }
        self.current = MisraGries::new(self.k).expect("k validated at construction");
    }

    /// The window summary: the Section 7 merge of every block in the
    /// window. This is a Corollary 18 merged summary — release it only
    /// through `MergedOneSided`-calibrated mechanisms.
    pub fn summary(&self) -> Summary<K> {
        let open = self.current.summary();
        merge_many(self.sealed.iter().map(|(s, _)| s).chain([&open]))
            .expect("window always holds the open block")
    }

    /// Window estimate of `x` (from the merged window summary).
    pub fn count(&self, x: &K) -> u64 {
        self.summary().count(x)
    }

    /// The Lemma 29 error bound of the window summary: `⌊M/(k+1)⌋` over
    /// the `M` items currently in the window.
    pub fn error_bound(&self) -> u64 {
        merged_error_bound(self.window_items(), self.k)
    }
}

impl<K: Item> FrequencyOracle<K> for WindowedMisraGries<K> {
    fn estimate(&self, key: &K) -> f64 {
        self.count(key) as f64
    }
}

/// Exponentially-decayed Misra-Gries: every [`Self::decay`] tick scales the
/// stored counters by the fixed factor `γ ∈ (0, 1)` (flooring), so an
/// element's influence halves every `log(2)/log(1/γ)` ticks instead of
/// persisting forever.
///
/// Soundness of the rebuild: [`MisraGries::from_state`] documents that the
/// sketch's behaviour depends only on the effective counters and slot keys,
/// so restarting from the scaled counters (with the bookkeeping reset to
/// `n' = Σc`, `α' = 0`) is a state a real sketch could occupy, and all
/// future updates behave per Algorithm 1.
///
/// [`Self::error_bound`] maintains an explicit error envelope rather than
/// the stationary `n/(k+1)`: each Branch-2 decrement-all costs every stored
/// counter ≤ 1 (Fact 7's accounting), each decay tick additionally loses
/// < 1 to flooring, and past error itself decays by `γ` — so
/// `E ← γ·(E + α_segment) + 1` at each tick, where `α_segment` is the
/// decrement count since the previous tick.
#[derive(Debug, Clone)]
pub struct DecayedMisraGries<K: Item> {
    inner: MisraGries<K>,
    factor: f64,
    /// Decayed total weight of everything ingested before the last tick.
    carried_weight: f64,
    /// Error envelope carried across ticks (see the type docs).
    carried_error: f64,
    /// The `n' = Σc` the inner sketch was rebuilt with at the last tick:
    /// `inner.stream_len() − rebuilt_base` is the *fresh* item count of the
    /// current segment (the rebuild restarts `n` at the counter sum to keep
    /// the Lemma 15 identity, not at 0).
    rebuilt_base: u64,
}

impl<K: Item> DecayedMisraGries<K> {
    /// Creates a decayed sketch with `k` counters and per-tick factor
    /// `γ = factor`.
    ///
    /// # Errors
    ///
    /// [`SketchError::InvalidK`] when `k = 0`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < factor < 1`.
    pub fn new(k: usize, factor: f64) -> Result<Self, SketchError> {
        assert!(
            factor > 0.0 && factor < 1.0,
            "decay factor must be in (0, 1)"
        );
        Ok(Self {
            inner: MisraGries::new(k)?,
            factor,
            carried_weight: 0.0,
            carried_error: 0.0,
            rebuilt_base: 0,
        })
    }

    /// The sketch size `k`.
    pub fn k(&self) -> usize {
        self.inner.k()
    }

    /// The per-tick decay factor `γ`.
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// Routes one element into the sketch at weight 1.
    pub fn update(&mut self, x: K) {
        self.inner.update(x);
    }

    /// Ingests a whole iterator.
    pub fn extend(&mut self, stream: impl IntoIterator<Item = K>) {
        self.inner.extend(stream);
    }

    /// Applies one decay tick: scales every stored counter by `γ`
    /// (flooring) and rebuilds the sketch from the scaled state.
    pub fn decay(&mut self) {
        let k = self.inner.k();
        let segment_items = (self.inner.stream_len() - self.rebuilt_base) as f64;
        let segment_decrements = self.inner.decrement_count() as f64;
        let scaled: Vec<(Slot<K>, u64)> = self
            .inner
            .slots()
            .into_iter()
            .map(|(slot, c)| (slot, (c as f64 * self.factor).floor() as u64))
            .collect();
        let n: u64 = scaled.iter().map(|(_, c)| c).sum();
        // Scaled dummies stay 0, slot order is unchanged, and Σc = n with
        // α = 0, so this state is structurally valid by construction.
        self.inner =
            MisraGries::from_state(k, scaled, n, 0).expect("scaled state is structurally valid");
        self.rebuilt_base = n;
        self.carried_weight = self.factor * (self.carried_weight + segment_items);
        // Decay the old envelope with the mass it bounds; add this
        // segment's decrement cost (scaled, since the counters it eroded
        // were just scaled too) and < 1 for the flooring loss.
        self.carried_error = self.factor * (self.carried_error + segment_decrements) + 1.0;
    }

    /// Decayed estimate of `x`'s exponentially-weighted count.
    pub fn count(&self, x: &K) -> u64 {
        self.inner.count(x)
    }

    /// Whether `x` currently occupies a slot.
    pub fn contains(&self, x: &K) -> bool {
        self.inner.contains(x)
    }

    /// The decayed summary (stored keys with their decayed counters).
    /// Under decay the counters are `γ`-weighted counts, so release
    /// calibrations that assume unit-weight neighbours do **not** transfer
    /// automatically; the service layer only releases windowed summaries.
    pub fn summary(&self) -> Summary<K> {
        self.inner.summary()
    }

    /// The exponentially-decayed total stream weight `Σ_i γ^{a(i)}` where
    /// `a(i)` is the number of ticks since element `i` arrived.
    pub fn weight(&self) -> f64 {
        self.carried_weight + (self.inner.stream_len() - self.rebuilt_base) as f64
    }

    /// The maintained error envelope on `|decayed true count − stored
    /// counter|` for every stored key (see the type docs for the
    /// recurrence).
    pub fn error_bound(&self) -> f64 {
        self.carried_error + self.inner.decrement_count() as f64
    }
}

impl<K: Item> FrequencyOracle<K> for DecayedMisraGries<K> {
    fn estimate(&self, key: &K) -> f64 {
        self.count(key) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_slides_out_old_blocks() {
        let mut w = WindowedMisraGries::new(16, 3).unwrap();
        w.extend(std::iter::repeat_n(1u64, 500));
        w.advance();
        w.extend(std::iter::repeat_n(2u64, 500));
        w.advance();
        w.extend(std::iter::repeat_n(3u64, 500));
        // All three blocks inside the window.
        assert_eq!(w.occupied_blocks(), 3);
        assert_eq!(w.window_items(), 1_500);
        let s = w.summary();
        assert!(s.count(&1) > 0 && s.count(&2) > 0 && s.count(&3) > 0);
        // Advance: block 1 slides out.
        w.advance();
        w.extend(std::iter::repeat_n(4u64, 500));
        let s = w.summary();
        assert_eq!(s.count(&1), 0, "block 1 must have left the window");
        assert!(s.count(&2) > 0 && s.count(&3) > 0 && s.count(&4) > 0);
        assert_eq!(w.window_items(), 1_500);
    }

    #[test]
    fn single_block_window_matches_plain_misra_gries() {
        let stream: Vec<u64> = (0..5_000).map(|i| i % 97).collect();
        let mut w = WindowedMisraGries::new(32, 1).unwrap();
        let mut mg = MisraGries::new(32).unwrap();
        w.extend(stream.iter().copied());
        mg.extend(stream.iter().copied());
        // Merging strips zero-count keys (semantically absent); otherwise
        // the single-block window is the plain sketch.
        let mut plain = mg.summary();
        plain.entries.retain(|_, c| *c > 0);
        assert_eq!(w.summary(), plain);
        // After advance, a W=1 window contains only the (empty) new block.
        w.advance();
        assert_eq!(w.window_items(), 0);
        assert!(w.summary().is_empty());
    }

    #[test]
    fn window_error_bound_is_lemma_29_over_window_items() {
        let mut w = WindowedMisraGries::new(9, 2).unwrap();
        w.extend(0u64..1_000);
        w.advance();
        w.extend(0u64..500);
        assert_eq!(w.error_bound(), 1_500 / 10);
        // The bound holds: every stored estimate is within it.
        let s = w.summary();
        for (key, &c) in &s.entries {
            let truth = if *key < 500 { 2 } else { 1 };
            assert!((truth as i64 - c as i64).unsigned_abs() <= w.error_bound());
        }
    }

    #[test]
    fn window_tracks_churn_where_cumulative_sketch_lags() {
        // Head flips from key 1 to key 2 at half-time. The window forgets
        // the old head; a whole-stream sketch still ranks it first.
        let mut whole = MisraGries::new(8).unwrap();
        let mut w = WindowedMisraGries::new(8, 2).unwrap();
        let first: Vec<u64> = (0..3_000)
            .map(|i| if i % 3 == 0 { 100 + i } else { 1 })
            .collect();
        let second: Vec<u64> = (0..1_000)
            .map(|i| if i % 3 == 0 { 200 + i } else { 2 })
            .collect();
        whole.extend(first.iter().copied());
        whole.extend(second.iter().copied());
        w.extend(first.iter().copied());
        w.advance();
        w.advance(); // old head's block leaves the 2-block window
        w.extend(second.iter().copied());
        assert!(whole.count(&1) > whole.count(&2), "cumulative sketch lags");
        assert!(w.count(&2) > w.count(&1), "window tracks the new head");
    }

    #[test]
    fn decay_halves_counters_exactly() {
        let mut d = DecayedMisraGries::new(16, 0.5).unwrap();
        d.extend(std::iter::repeat_n(7u64, 100));
        d.extend(std::iter::repeat_n(8u64, 31));
        assert_eq!(d.count(&7), 100);
        d.decay();
        assert_eq!(d.count(&7), 50);
        assert_eq!(d.count(&8), 15); // 31·0.5 floored
        d.decay();
        assert_eq!(d.count(&7), 25);
        assert!((d.weight() - (131.0 * 0.25)).abs() < 1e-9);
    }

    #[test]
    fn decayed_sketch_keeps_working_after_rebuild() {
        let mut d = DecayedMisraGries::new(8, 0.5).unwrap();
        d.extend(std::iter::repeat_n(1u64, 64));
        d.decay();
        // Post-rebuild updates follow Algorithm 1 on the scaled state.
        d.extend(std::iter::repeat_n(1u64, 10));
        assert_eq!(d.count(&1), 42);
        d.extend(0u64..64); // cause decrements in the rebuilt sketch
        assert!(d.error_bound() > 1.0);
        // The envelope still bounds the decayed truth for the heavy key:
        // truth(1) = 64·0.5 + 10 + 1 (key 1 ∈ 0..64) = 43.
        let err = (43.0 - d.count(&1) as f64).abs();
        assert!(err <= d.error_bound(), "err {err} > {}", d.error_bound());
    }

    #[test]
    fn decayed_sketch_tracks_head_flip() {
        let mut d = DecayedMisraGries::new(8, 0.5).unwrap();
        d.extend(std::iter::repeat_n(1u64, 4_000));
        for _ in 0..4 {
            d.decay();
            d.extend(std::iter::repeat_n(2u64, 500));
        }
        assert!(
            d.count(&2) > d.count(&1),
            "new head {} must overtake faded head {}",
            d.count(&2),
            d.count(&1)
        );
    }

    #[test]
    #[should_panic(expected = "window must span at least 1 block")]
    fn zero_window_panics() {
        let _ = WindowedMisraGries::<u64>::new(8, 0);
    }

    #[test]
    #[should_panic(expected = "decay factor must be in (0, 1)")]
    fn decay_factor_must_be_fractional() {
        let _ = DecayedMisraGries::<u64>::new(8, 1.0);
    }

    #[test]
    fn invalid_k_is_rejected() {
        assert!(WindowedMisraGries::<u64>::new(0, 2).is_err());
        assert!(DecayedMisraGries::<u64>::new(0, 0.5).is_err());
    }
}
