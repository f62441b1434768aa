//! # dpmg-sketch
//!
//! Non-private streaming frequency sketches — the substrate layer of the
//! reproduction of [Lebeda & Tětek, PODS 2023].
//!
//! The paper's private mechanisms are built on top of carefully chosen
//! *variants* of classic counter-based sketches; the exact variant matters
//! because the privacy proofs depend on the combinatorial structure of
//! neighbouring sketches:
//!
//! * [`misra_gries`] — **Algorithm 1** of the paper: a Misra-Gries sketch
//!   that (i) starts from `k` dummy counters, (ii) keeps keys whose counter
//!   has dropped to zero until the slot is needed, and (iii) always evicts
//!   the *smallest* zero-count key. Lemma 8 (neighbouring sketches share at
//!   least `k − 2` keys and differ in the specific ways S1–S6) only holds for
//!   this variant. Its `k` keys and counters live in dense arrays under
//!   fixed slot ids, behind a private open-addressing key → id index (fx
//!   hashing, packed 8-byte entries, backward-shift deletion, ½ load).
//! * [`misra_gries_classic`] — the textbook Misra-Gries sketch that removes
//!   zero counters immediately; Section 5.1 shows it can also be released
//!   privately with a larger threshold.
//! * [`sensitivity_reduce`] — **Algorithm 3**: the post-processing that
//!   subtracts `γ = Σc/(k+1)` from every counter, reducing ℓ1-sensitivity
//!   from `k` to `< 2` (Lemma 16) while keeping the `n/(k+1)` error bound
//!   (Lemma 15). Used for the pure-DP release of Section 6.
//! * [`pamg`] — **Algorithm 4**, the Privacy-Aware Misra-Gries sketch for
//!   streams of user *sets*: counters are decremented at most once per user,
//!   so neighbouring sketches differ by at most 1 per counter (Lemma 27)
//!   giving ℓ2-sensitivity `√k` independent of the set size `m`.
//! * [`merge`] — the merging algorithm of Agarwal et al. \[1\] analysed in
//!   Section 7 (Lemma 17, Corollary 18).
//! * [`windowed`] — sliding-window and exponentially-decayed variants
//!   built from Algorithm 1 blocks plus the Section 7 merge, for the
//!   non-stationary scenarios (window summaries are Corollary 18 merged
//!   summaries, so the merged release calibrations apply unchanged).
//! * [`exact`] — exact histograms, the non-streaming baseline.
//! * [`space_saving`], [`count_min`], [`count_sketch`] — standard
//!   comparators used by the examples and benches (the paper discusses
//!   frequency-oracle-based heavy hitters in Sections 1 and 4).
//! * [`serialize`] — a compact wire format for shipping sketch summaries
//!   between machines (the distributed setting of Section 7).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod count_min;
pub mod count_sketch;
pub mod exact;
pub mod fixed_decrement;
pub mod merge;
pub mod misra_gries;
pub mod misra_gries_classic;
pub mod pamg;
pub mod sensitivity_reduce;
pub mod serialize;
mod slot_index;
pub mod space_saving;
pub mod traits;
pub mod windowed;

pub use exact::ExactHistogram;
pub use misra_gries::MisraGries;
pub use misra_gries_classic::ClassicMisraGries;
pub use pamg::PrivacyAwareMisraGries;
pub use traits::{FrequencyOracle, Item, SketchError, Summary};
