//! Shared traits and types for the sketch layer.

use std::collections::BTreeMap;

/// The bound a stream element type must satisfy to be stored in the sketches.
///
/// Matches the paper's setup (Section 3): the universe `U` is a *totally
/// ordered* set. Ordering is load-bearing — Algorithm 1 evicts the *smallest*
/// zero-count key, and the private release emits counters in a fixed
/// (sorted) order so that the output distribution does not leak insertion
/// order (Section 5.2).
pub trait Item: Clone + Ord + Eq + std::hash::Hash + std::fmt::Debug {}

impl<T: Clone + Ord + Eq + std::hash::Hash + std::fmt::Debug> Item for T {}

/// Errors produced when constructing sketches with invalid parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SketchError {
    /// The number of counters `k` must be at least 1 (and, for
    /// [`crate::MisraGries`], at most [`crate::MisraGries::MAX_K`]).
    InvalidK(usize),
    /// A width/depth parameter of a hashed sketch was zero.
    InvalidDimension {
        /// Parameter name (`"width"` or `"depth"`).
        name: &'static str,
    },
    /// A serialized byte buffer could not be decoded.
    Corrupt(&'static str),
}

impl std::fmt::Display for SketchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SketchError::InvalidK(k) => {
                write!(
                    f,
                    "sketch size k must be ≥ 1 (≤ 2^31 for Misra-Gries), got {k}"
                )
            }
            SketchError::InvalidDimension { name } => {
                write!(f, "sketch dimension `{name}` must be ≥ 1")
            }
            SketchError::Corrupt(what) => write!(f, "corrupt sketch encoding: {what}"),
        }
    }
}

impl std::error::Error for SketchError {}

/// A frequency oracle: anything that can answer point queries
/// `x ↦ f̂(x)` (Section 3: the estimate is implicitly 0 for keys the sketch
/// does not store).
pub trait FrequencyOracle<K> {
    /// Estimated frequency of `key`. Exact semantics (one- or two-sided
    /// error) depend on the implementing sketch.
    fn estimate(&self, key: &K) -> f64;
}

/// A sketch that stores an explicit key set `T` and can therefore enumerate
/// candidate heavy hitters without scanning the universe.
pub trait TopKSketch<K>: FrequencyOracle<K> {
    /// The stored keys, sorted ascending. Dummy slots are never reported.
    fn stored_keys(&self) -> Vec<K>;
}

/// An immutable key → count summary extracted from a sketch.
///
/// This is the common currency of the merge algorithm (Section 7), the wire
/// format (distributed aggregation) and the private release mechanisms. The
/// map is ordered so that iteration order is canonical — required for the
/// fixed-output-order rule of Section 5.2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary<K: Ord> {
    /// Maximum number of counters the producing sketch was allowed (`k`).
    pub k: usize,
    /// Stored keys and their (non-negative) counters. Zero counters are
    /// permitted — the paper's Algorithm 1 keeps them.
    pub entries: BTreeMap<K, u64>,
}

impl<K: Item> Summary<K> {
    /// Creates an empty summary for sketch size `k`.
    pub fn empty(k: usize) -> Self {
        Self {
            k,
            entries: BTreeMap::new(),
        }
    }

    /// Creates a summary from explicit entries.
    ///
    /// # Panics
    ///
    /// Panics if more than `k` entries are supplied — a summary never holds
    /// more counters than its sketch size.
    pub fn from_entries(k: usize, entries: impl IntoIterator<Item = (K, u64)>) -> Self {
        let map: BTreeMap<K, u64> = entries.into_iter().collect();
        assert!(
            map.len() <= k,
            "summary holds {} entries but k = {k}",
            map.len()
        );
        Self { k, entries: map }
    }

    /// Number of stored counters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the summary stores no counters.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of all counters (`Σ_{x∈T} c_x`), the quantity Algorithm 3 bases
    /// its offset `γ` on.
    pub fn counter_sum(&self) -> u64 {
        self.entries.values().sum()
    }

    /// Point query; 0 for keys not stored.
    pub fn count(&self, key: &K) -> u64 {
        self.entries.get(key).copied().unwrap_or(0)
    }

    /// ℓ1 distance between two summaries viewed as vectors over the whole
    /// universe (missing keys count as 0). Used by the sensitivity
    /// experiments (E7).
    pub fn l1_distance(&self, other: &Self) -> u64 {
        let mut total: u64 = 0;
        for (key, &c) in &self.entries {
            let c2 = other.count(key);
            total += c.abs_diff(c2);
        }
        for (key, &c2) in &other.entries {
            if !self.entries.contains_key(key) {
                total += c2;
            }
        }
        total
    }

    /// ℓ∞ distance between two summaries viewed as universe-wide vectors.
    pub fn linf_distance(&self, other: &Self) -> u64 {
        let mut worst: u64 = 0;
        for (key, &c) in &self.entries {
            worst = worst.max(c.abs_diff(other.count(key)));
        }
        for (key, &c2) in &other.entries {
            if !self.entries.contains_key(key) {
                worst = worst.max(c2);
            }
        }
        worst
    }

    /// Number of keys stored in exactly one of the two summaries.
    pub fn symmetric_key_difference(&self, other: &Self) -> usize {
        let only_self = self
            .entries
            .keys()
            .filter(|k| !other.entries.contains_key(*k))
            .count();
        let only_other = other
            .entries
            .keys()
            .filter(|k| !self.entries.contains_key(*k))
            .count();
        only_self + only_other
    }
}

impl<K: Item> FrequencyOracle<K> for Summary<K> {
    fn estimate(&self, key: &K) -> f64 {
        self.count(key) as f64
    }
}

impl<K: Item> TopKSketch<K> for Summary<K> {
    fn stored_keys(&self) -> Vec<K> {
        self.entries.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_distances() {
        let a = Summary::from_entries(4, [(1u64, 5), (2, 3), (3, 0)]);
        let b = Summary::from_entries(4, [(1u64, 4), (2, 3), (9, 2)]);
        // |5-4| + |3-3| + |0-0| + |0-2| = 3
        assert_eq!(a.l1_distance(&b), 3);
        assert_eq!(b.l1_distance(&a), 3);
        assert_eq!(a.linf_distance(&b), 2);
        assert_eq!(a.symmetric_key_difference(&b), 2);
    }

    #[test]
    fn summary_counter_sum_and_count() {
        let s = Summary::from_entries(8, [(10u64, 7), (20, 0), (30, 3)]);
        assert_eq!(s.counter_sum(), 10);
        assert_eq!(s.count(&10), 7);
        assert_eq!(s.count(&99), 0);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(Summary::<u64>::empty(4).is_empty());
    }

    #[test]
    #[should_panic(expected = "summary holds")]
    fn summary_rejects_overfull() {
        let _ = Summary::from_entries(1, [(1u64, 1), (2, 2)]);
    }

    #[test]
    fn summary_is_frequency_oracle() {
        let s = Summary::from_entries(4, [(5u64, 9)]);
        assert_eq!(s.estimate(&5), 9.0);
        assert_eq!(s.estimate(&6), 0.0);
        assert_eq!(s.stored_keys(), vec![5]);
    }

    #[test]
    fn error_display() {
        assert!(SketchError::InvalidK(0).to_string().contains("≥ 1"));
        assert!(SketchError::InvalidDimension { name: "width" }
            .to_string()
            .contains("width"));
        assert!(SketchError::Corrupt("truncated")
            .to_string()
            .contains("truncated"));
    }
}
