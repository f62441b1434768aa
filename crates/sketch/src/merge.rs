//! Merging Misra-Gries-style summaries (Section 7).
//!
//! Implements the merge of Agarwal, Cormode, Huang, Phillips, Wei & Yi \[1\]:
//! given two size-`k` summaries,
//!
//! 1. add the counters pointwise (up to `2k` keys),
//! 2. subtract the `(k+1)`-th largest counter value from every counter,
//! 3. drop non-positive counters, leaving at most `k`.
//!
//! Merged sketches keep the Misra-Gries error guarantee: the estimate of any
//! element is at most `M/(k+1)` below its true aggregate frequency, where `M`
//! is the total length of all merged streams (Lemma 29 restates \[1\]).
//!
//! For privacy, the crucial structural fact is **Lemma 17**: if two inputs
//! satisfy "one key set contains the other and counters differ by at most 1",
//! the merged outputs satisfy it too. By induction (Corollary 18), sketches
//! of neighbouring datasets merged in any fixed order differ by 1 on at most
//! `k` counters — so the merged sketch has ℓ1-sensitivity `k` and
//! ℓ2-sensitivity `√k` regardless of how many merges were performed.

use crate::traits::{Item, Summary};

/// Merges two summaries produced with the same sketch size `k`.
///
/// ```
/// use dpmg_sketch::merge::merge;
/// use dpmg_sketch::traits::Summary;
///
/// let a = Summary::from_entries(2, [(1u64, 10), (2, 6)]);
/// let b = Summary::from_entries(2, [(3u64, 4), (4, 1)]);
/// let merged = merge(&a, &b);
/// // 4 candidate counters, (k+1)-th largest (= 4) subtracted, 2 survive.
/// assert_eq!(merged.count(&1), 6);
/// assert_eq!(merged.count(&2), 2);
/// assert_eq!(merged.len(), 2);
/// ```
///
/// Zero counters are dropped from the inputs first (Section 7 analyses the
/// merge over positive-support summaries; the paper's Algorithm 1 variant may
/// carry zero-count keys, which are semantically absent).
///
/// # Panics
///
/// Panics if the summaries disagree on `k` — merging sketches of different
/// sizes voids the error analysis of \[1\].
pub fn merge<K: Item>(a: &Summary<K>, b: &Summary<K>) -> Summary<K> {
    assert_eq!(a.k, b.k, "cannot merge summaries with different k");
    let k = a.k;

    // Step 1: pointwise sum over the union of positive supports.
    let mut combined = a.entries.clone();
    combined.retain(|_, c| *c > 0);
    for (key, &c) in &b.entries {
        if c > 0 {
            *combined.entry(key.clone()).or_insert(0) += c;
        }
    }

    if combined.len() <= k {
        return Summary {
            k,
            entries: combined,
        };
    }

    // Step 2: find the (k+1)-th largest counter (1-indexed), i.e. index k of
    // the descending order. `select_nth_unstable_by` runs in O(len).
    let mut values: Vec<u64> = combined.values().copied().collect();
    let (_, &mut pivot, _) = values.select_nth_unstable_by(k, |x, y| y.cmp(x));

    // Step 3: subtract and drop non-positive counters.
    let entries = combined
        .into_iter()
        .filter_map(|(key, c)| (c > pivot).then(|| (key, c - pivot)))
        .collect();
    Summary { k, entries }
}

/// Left-fold merge of many summaries (any fixed order is valid; Section 7's
/// guarantees are order-independent). Takes any iterator of references, so
/// a caller holding its summaries elsewhere (a window ring, say) merges
/// them without copying; `&Vec<_>`, `&[_]` and `&[_; N]` all qualify.
///
/// Returns `None` for an empty input.
pub fn merge_many<'a, K: Item + 'a>(
    summaries: impl IntoIterator<Item = &'a Summary<K>>,
) -> Option<Summary<K>> {
    let mut summaries = summaries.into_iter();
    let mut acc = summaries.next()?.clone();
    acc.entries.retain(|_, c| *c > 0);
    for s in summaries {
        acc = merge(&acc, s);
    }
    Some(acc)
}

/// Pairwise (tournament-tree) merge. Produces the same guarantees as
/// [`merge_many`]; exposed because distributed aggregators usually combine
/// sketches hierarchically.
pub fn merge_tree<K: Item>(summaries: &[Summary<K>]) -> Option<Summary<K>> {
    if summaries.is_empty() {
        return None;
    }
    let mut layer: Vec<Summary<K>> = summaries
        .iter()
        .map(|s| {
            let mut c = s.clone();
            c.entries.retain(|_, v| *v > 0);
            c
        })
        .collect();
    while layer.len() > 1 {
        layer = layer
            .chunks(2)
            .map(|pair| match pair {
                [a, b] => merge(a, b),
                [a] => a.clone(),
                _ => unreachable!("chunks(2) yields 1- or 2-element slices"),
            })
            .collect();
    }
    layer.pop()
}

/// The Lemma 29 error bound for a merged sketch: `⌊M/(k+1)⌋` where `M` is
/// the total number of elements across all merged streams.
pub fn merged_error_bound(total_elements: u64, k: usize) -> u64 {
    total_elements / (k as u64 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::misra_gries::MisraGries;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn summary_of(entries: &[(u64, u64)], k: usize) -> Summary<u64> {
        Summary::from_entries(k, entries.iter().copied())
    }

    #[test]
    fn merge_within_capacity_is_pointwise_sum() {
        let a = summary_of(&[(1, 5), (2, 3)], 4);
        let b = summary_of(&[(2, 2), (3, 7)], 4);
        let m = merge(&a, &b);
        assert_eq!(m.count(&1), 5);
        assert_eq!(m.count(&2), 5);
        assert_eq!(m.count(&3), 7);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn merge_overflow_subtracts_k_plus_1th_largest() {
        // k = 2; union has 4 keys with counts 10, 6, 4, 1.
        let a = summary_of(&[(1, 10), (2, 6)], 2);
        let b = summary_of(&[(3, 4), (4, 1)], 2);
        let m = merge(&a, &b);
        // Descending: 10, 6, 4, 1 → (k+1)=3rd largest is 4. Subtract 4:
        // 6, 2, 0, −3 → keep {1: 6, 2: 2}.
        assert_eq!(m.count(&1), 6);
        assert_eq!(m.count(&2), 2);
        assert_eq!(m.count(&3), 0);
        assert_eq!(m.count(&4), 0);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn zero_counters_in_inputs_are_ignored() {
        let a = summary_of(&[(1, 0), (2, 3)], 3);
        let b = summary_of(&[(1, 0)], 3);
        let m = merge(&a, &b);
        assert_eq!(m.len(), 1);
        assert_eq!(m.count(&2), 3);
    }

    #[test]
    #[should_panic(expected = "different k")]
    fn merge_rejects_mismatched_k() {
        let a = summary_of(&[(1, 1)], 2);
        let b = summary_of(&[(1, 1)], 3);
        let _ = merge(&a, &b);
    }

    #[test]
    fn merge_many_and_tree_agree_on_bounds() {
        // Build per-stream MG sketches, merge linearly and as a tree; both
        // must satisfy the Lemma 29 error window (the sketches themselves
        // may differ — the guarantee, not the output, is order-independent).
        let streams: Vec<Vec<u64>> = (0..8)
            .map(|s| (0..200u64).map(|i| (i * (s + 3)) % 17).collect())
            .collect();
        let k = 6;
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut total = 0u64;
        let summaries: Vec<Summary<u64>> = streams
            .iter()
            .map(|stream| {
                let mut mg = MisraGries::new(k).unwrap();
                for &x in stream {
                    mg.update(x);
                    *truth.entry(x).or_insert(0) += 1;
                    total += 1;
                }
                mg.summary()
            })
            .collect();
        let bound = merged_error_bound(total, k);
        for merged in [
            merge_many(&summaries).unwrap(),
            merge_tree(&summaries).unwrap(),
        ] {
            for (x, &f) in &truth {
                let est = merged.count(x);
                assert!(est <= f, "overestimate for {x}");
                assert!(
                    est + bound >= f,
                    "under bound for {x}: {est} + {bound} < {f}"
                );
            }
        }
    }

    #[test]
    fn empty_inputs() {
        assert!(merge_many::<u64>(&[]).is_none());
        assert!(merge_tree::<u64>(&[]).is_none());
        let single = summary_of(&[(5, 2)], 3);
        assert_eq!(merge_many(std::slice::from_ref(&single)).unwrap(), single);
        assert_eq!(merge_tree(std::slice::from_ref(&single)).unwrap(), single);
    }

    /// `x` dominates `y` in the Lemma 17 sense: `keys(y) ⊆ keys(x)` and
    /// `x − y ∈ {0, 1}` pointwise.
    fn dominates(x: &Summary<u64>, y: &Summary<u64>) -> bool {
        y.entries.keys().all(|k| x.entries.contains_key(k))
            && x.entries.iter().all(|(k, &c)| {
                let cy = y.count(k);
                c >= cy && c - cy <= 1
            })
    }

    /// Lemma 17 precondition/postcondition as a predicate.
    fn lemma17_related(a: &Summary<u64>, b: &Summary<u64>) -> bool {
        dominates(a, b) || dominates(b, a)
    }

    proptest! {
        /// Lemma 17: merging preserves the "contained key sets, counters
        /// within 1, one-sided" relation.
        #[test]
        fn prop_lemma17_preserved(
            base in proptest::collection::vec((0u64..20, 1u64..30), 0..8),
            other in proptest::collection::vec((0u64..20, 1u64..30), 0..8),
            bump_idx in 0usize..8,
            all_shift in proptest::bool::ANY,
        ) {
            let k = 8;
            // Build a pair (c, c') satisfying the Lemma 17 precondition:
            // either one counter of c is one higher than c', or every
            // counter of c is one higher (simulating Lemma 8's two cases,
            // restricted to positive support).
            let c_prime = summary_of(&dedup(&base), k);
            let mut entries = c_prime.entries.clone();
            if all_shift {
                for v in entries.values_mut() {
                    *v += 1;
                }
            } else if !entries.is_empty() {
                let key = *entries.keys().nth(bump_idx % entries.len()).unwrap();
                *entries.get_mut(&key).unwrap() += 1;
            }
            let c = Summary { k, entries };
            prop_assume!(lemma17_related(&c, &c_prime));

            let t2 = summary_of(&dedup(&other), k);
            let merged = merge(&c, &t2);
            let merged_prime = merge(&c_prime, &t2);
            prop_assert!(
                lemma17_related(&merged, &merged_prime),
                "merged {:?} vs {:?}", merged, merged_prime
            );
        }

        /// Commutativity is exact: the pointwise sum and the
        /// (k+1)-th-largest pivot are both symmetric in the inputs.
        #[test]
        fn prop_merge_commutative(
            a in proptest::collection::vec((0u64..30, 0u64..50), 0..10),
            b in proptest::collection::vec((0u64..30, 0u64..50), 0..10),
        ) {
            let k = 8;
            let sa = summary_of(&dedup(&a), k);
            let sb = summary_of(&dedup(&b), k);
            prop_assert_eq!(merge(&sa, &sb), merge(&sb, &sa));
        }

        /// When the union support fits in k counters, no pivot is ever
        /// subtracted and every merge order/tree shape yields the *same*
        /// summary: the pointwise sum. (With overflow, merge is only
        /// commutative, not associative — the guarantees, not the outputs,
        /// are order-independent; see `merge_many_and_tree_agree_on_bounds`.)
        #[test]
        fn prop_order_independent_without_overflow(
            entries in proptest::collection::vec((0u64..8, 1u64..40), 0..8),
            splits in proptest::collection::vec(0usize..8, 2..5),
            perm_seed in 0usize..720,
        ) {
            let k = 8;
            // Split one multiset of entries into per-"shard" summaries so
            // the union support is at most 8 = k keys by construction.
            let n_parts = splits.len();
            let mut parts: Vec<std::collections::BTreeMap<u64, u64>> =
                vec![std::collections::BTreeMap::new(); n_parts];
            let mut union: std::collections::BTreeMap<u64, u64> =
                std::collections::BTreeMap::new();
            for (i, &(key, c)) in dedup(&entries).iter().enumerate() {
                *parts[splits[i % n_parts] % n_parts].entry(key).or_insert(0) += c;
                *union.entry(key).or_insert(0) += c;
            }
            let summaries: Vec<Summary<u64>> = parts
                .into_iter()
                .map(|m| Summary { k, entries: m })
                .collect();

            // A permutation of the summaries drawn from the seed.
            let mut order: Vec<usize> = (0..n_parts).collect();
            let mut s = perm_seed;
            for i in (1..n_parts).rev() {
                order.swap(i, s % (i + 1));
                s /= i + 1;
            }
            let permuted: Vec<Summary<u64>> =
                order.iter().map(|&i| summaries[i].clone()).collect();

            let expected = Summary { k, entries: union };
            for merged in [
                merge_many(&summaries).unwrap(),
                merge_many(&permuted).unwrap(),
                merge_tree(&summaries).unwrap(),
                merge_tree(&permuted).unwrap(),
            ] {
                prop_assert_eq!(merged, expected.clone());
            }
        }

        /// Every merge order and tree shape obeys the Lemma 29 window:
        /// estimates never exceed the pointwise aggregate and undershoot it
        /// by at most the summed per-summary slack. Checked for the left
        /// fold, the reversed fold, and the tournament tree.
        #[test]
        fn prop_all_merge_shapes_within_bounds(
            streams in proptest::collection::vec(
                proptest::collection::vec(0u64..15, 1..120),
                1..6,
            ),
            k in 2usize..8,
        ) {
            let mut truth: std::collections::HashMap<u64, u64> =
                std::collections::HashMap::new();
            let mut total = 0u64;
            let summaries: Vec<Summary<u64>> = streams
                .iter()
                .map(|stream| {
                    let mut mg = MisraGries::new(k).unwrap();
                    for &x in stream {
                        mg.update(x);
                        *truth.entry(x).or_insert(0) += 1;
                        total += 1;
                    }
                    mg.summary()
                })
                .collect();
            let reversed: Vec<Summary<u64>> = summaries.iter().rev().cloned().collect();
            let bound = merged_error_bound(total, k);
            for merged in [
                merge_many(&summaries).unwrap(),
                merge_many(&reversed).unwrap(),
                merge_tree(&summaries).unwrap(),
                merge_tree(&reversed).unwrap(),
            ] {
                prop_assert!(merged.len() <= k);
                for (x, &f) in &truth {
                    let est = merged.count(x);
                    prop_assert!(est <= f, "overestimate for {}", x);
                    prop_assert!(est + bound >= f, "{} + {} < {} for {}", est, bound, f, x);
                }
            }
        }

        /// Merged estimates never exceed the pointwise sums and at most k
        /// counters survive.
        #[test]
        fn prop_merge_capacity_and_underestimate(
            a in proptest::collection::vec((0u64..30, 0u64..50), 0..10),
            b in proptest::collection::vec((0u64..30, 0u64..50), 0..10),
        ) {
            let k = 8;
            let sa = summary_of(&dedup(&a), k);
            let sb = summary_of(&dedup(&b), k);
            let m = merge(&sa, &sb);
            prop_assert!(m.len() <= k);
            for (key, &c) in &m.entries {
                prop_assert!(c <= sa.count(key) + sb.count(key));
                prop_assert!(c > 0);
            }
        }
    }

    fn dedup(pairs: &[(u64, u64)]) -> Vec<(u64, u64)> {
        let mut map = std::collections::BTreeMap::new();
        for &(k, v) in pairs {
            map.insert(k, v);
        }
        map.into_iter().take(8).collect()
    }
}
