//! The Gaussian Sparse Histogram Mechanism (Theorem 23 / Lemma 24,
//! following Wilkins, Kifer, Zhang & Karrer \[30\]).
//!
//! Setting: sketches of neighbouring streams differ on at most `l` counters,
//! each by exactly 1, all in the same direction (this is what Corollary 18
//! gives for merged MG sketches with `l = k`, and Lemma 27 for PAMG). The
//! mechanism adds `N(0, σ²)` to every *stored* counter and drops noisy
//! counts below `1 + τ`.
//!
//! Because Gaussian noise calibrates to the **ℓ2**-sensitivity `√l` rather
//! than the ℓ1-sensitivity `l`, the required noise grows like `√l` — the
//! reason Section 8 prefers PAMG + GSHM over Laplace mechanisms when users
//! hold many distinct elements.
//!
//! Two calibrations are provided:
//!
//! * [`GshmParams::loose`] — the closed-form Lemma 24 parameters
//!   `σ = √(l·2·ln(2.5/δ))/ε`, `τ = √(2·ln(2l/δ))·σ` (valid for `ε < 1`);
//! * [`GshmParams::calibrate`] — numerically minimises `τ` subject to the
//!   *exact* Theorem 23 inequality, which any real deployment should use
//!   (the paper stresses the loose version is for presentation only).
//!
//! `calibrate` is a grid scan over `σ` with a bisection over `τ` for each
//! grid point, 60 × 81 Theorem 23 tests of `O(l)` terms each. It returns
//! the pair that full scan returns, bit for bit, but runs only the tests
//! that can change that answer (153 of 4860 tests at `l = 1024`, ~1/35 of
//! the time):
//!
//! * each test stops at the first term above `δ` (the Theorem 23 bound is
//!   the `max` of its terms), trying first the split `j` that refused the
//!   previous test;
//! * a bisection stops once its midpoint repeats a bound already decided,
//!   after which its remaining steps cannot move the bracket;
//! * a bisection gives up on a `σ` once its lower bound reaches the best
//!   `τ` found so far, since that `σ` can then no longer win, and the
//!   bracket top is tested only for a `σ` about to win.
//!
//! The first release of a [`crate::mechanism::GshmMechanism`] for a given
//! `l` pays this once: ~6 ms at `l = 1024` and ~25 ms at `l = 4096` on a
//! 2-CPU x86-64 host (the full scan took ~0.2 s and ~0.9 s).

use crate::pmg::PrivateHistogram;
use dpmg_noise::gaussian::Gaussian;
use dpmg_noise::special::normal_cdf;
use dpmg_noise::NoiseError;
use dpmg_sketch::traits::Item;
use rand::Rng;
use std::collections::BTreeMap;

/// Evaluates the right-hand side of the Theorem 23 inequality: the smallest
/// `δ` for which `GSHM(l, σ, τ)` is `(ε, δ)`-DP.
///
/// The three branches cover (i) a differing key escaping the threshold,
/// (ii) the mixed threshold-and-noise privacy loss with `γ = (l−j)·ln Φ(τ/σ)`
/// for each possible split `j` of the differing counters, and (iii) the
/// Gaussian-mechanism loss term with the sign of `γ` flipped.
pub fn gshm_delta(epsilon: f64, l: usize, sigma: f64, tau: f64) -> f64 {
    assert!(l >= 1, "l must be ≥ 1");
    let phi_ratio = normal_cdf(tau / sigma);
    let l_f = l as f64;

    // Branch 1: 1 − Φ(τ/σ)^l.
    let branch1 = 1.0 - phi_ratio.powf(l_f);

    // Gaussian-mechanism privacy-loss tail for sensitivity √j at slack ε̃:
    // Φ(√j/(2σ) − ε̃·σ/√j) − e^{ε̃}·Φ(−√j/(2σ) − ε̃·σ/√j).
    let loss = |j: f64, eps_tilde: f64| -> f64 {
        let sj = j.sqrt();
        let a = sj / (2.0 * sigma) - eps_tilde * sigma / sj;
        let b = -sj / (2.0 * sigma) - eps_tilde * sigma / sj;
        normal_cdf(a) - eps_tilde.exp() * normal_cdf(b)
    };

    let mut branch2 = f64::NEG_INFINITY;
    let mut branch3 = f64::NEG_INFINITY;
    for j in 1..=l {
        let j_f = j as f64;
        let gamma = (l_f - j_f) * phi_ratio.ln(); // ≤ 0
        let keep = phi_ratio.powf(l_f - j_f);
        let b2 = 1.0 - keep + keep * loss(j_f, epsilon - gamma);
        let b3 = loss(j_f, epsilon + gamma);
        branch2 = branch2.max(b2);
        branch3 = branch3.max(b3);
    }

    branch1.max(branch2).max(branch3).max(0.0)
}

/// Calibrated GSHM parameters.
///
/// ```
/// use dpmg_core::gshm::{gshm_delta, GshmParams};
///
/// let loose = GshmParams::loose(0.9, 1e-8, 64).unwrap();
/// let exact = GshmParams::calibrate(0.9, 1e-8, 64).unwrap();
/// assert!(exact.tau <= loose.tau); // exact Theorem 23 beats Lemma 24
/// assert!(gshm_delta(0.9, 64, exact.sigma, exact.tau) <= 1e-8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GshmParams {
    /// Number of counters that may differ between neighbours.
    pub l: usize,
    /// Gaussian noise standard deviation.
    pub sigma: f64,
    /// Threshold margin: noisy counts below `1 + τ` are dropped.
    pub tau: f64,
}

impl GshmParams {
    /// The loose closed-form parameters of Lemma 24 (requires `ε < 1`):
    /// `σ = √(2l·ln(2.5/δ))/ε`, `τ = √(2·ln(2l/δ))·σ`.
    ///
    /// # Errors
    ///
    /// Rejects `ε ∉ (0, 1)`, `δ ∉ (0, 1)`, or `l = 0`.
    pub fn loose(epsilon: f64, delta: f64, l: usize) -> Result<Self, NoiseError> {
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(NoiseError::InvalidPrivacyParameter {
                name: "epsilon",
                value: epsilon,
            });
        }
        if !(delta > 0.0 && delta < 1.0) {
            return Err(NoiseError::InvalidPrivacyParameter {
                name: "delta",
                value: delta,
            });
        }
        if l == 0 {
            return Err(NoiseError::InvalidPrivacyParameter {
                name: "l",
                value: 0.0,
            });
        }
        let l_f = l as f64;
        let sigma = (l_f * 2.0 * (2.5 / delta).ln()).sqrt() / epsilon;
        let tau = (2.0 * (2.0 * l_f / delta).ln()).sqrt() * sigma;
        Ok(Self { l, sigma, tau })
    }

    /// Numerically minimises the error bound `τ` subject to the exact
    /// Theorem 23 condition `gshm_delta(ε, l, σ, τ) ≤ δ`.
    ///
    /// Scans `σ` over 60 steps of a multiplicative grid (×1.047 from
    /// 0.15·σ_loose, ≈ [0.15, 2.3]·σ_loose) and, for each `σ` whose bracket
    /// top `4·τ_loose` is feasible, bisects `[0, 4·τ_loose]` for 80 steps
    /// and takes the top of the final bracket. A `σ` replaces the best pair
    /// only if its `τ` is strictly smaller; if none does, the result is
    /// the loose pair.
    ///
    /// Three shortcuts skip evaluations without changing the result:
    ///
    /// * `feasible` decides `gshm_delta(..) ≤ δ` with `gshm_delta`'s own
    ///   arithmetic, stopping at the first term above `δ`.
    /// * A bisection stops once its midpoint equals `hi`, or equals `lo`
    ///   after `lo` tested infeasible. The midpoint's verdict is then that
    ///   of `lo` (infeasible) or of `hi` (feasible, or still the bracket
    ///   top, which a winning `σ` must pass), so it leaves the bracket as
    ///   it is and every remaining step would repeat it.
    /// * A bisection gives up once `lo ≥` the best `τ` so far: the bracket
    ///   only narrows, so the `τ` it would return is `≥ lo` and cannot pass
    ///   the strict `<` test. The bracket top is tested only when the
    ///   bisection's `τ` would win; a losing `σ` changes nothing whether or
    ///   not its top is feasible.
    ///
    /// # Errors
    ///
    /// Same domain restrictions as [`Self::loose`].
    pub fn calibrate(epsilon: f64, delta: f64, l: usize) -> Result<Self, NoiseError> {
        let loose = Self::loose(epsilon, delta, l)?;
        let top = loose.tau * 4.0;
        let mut best = loose;
        let mut hint = 0;
        // The loose σ is an overestimate; search below and slightly above.
        for step in 0..60 {
            let factor = 0.15 * 1.047f64.powi(step); // ≈ [0.15, 2.3]
            let sigma = loose.sigma * factor;
            if let Some(tau) = min_tau_below(epsilon, delta, l, sigma, top, best.tau, &mut hint) {
                best = Self { l, sigma, tau };
            }
        }
        Ok(best)
    }

    /// The high-probability error radius of the release: with probability
    /// `≥ 1 − 2δ` all `l` noise draws are within `±τ` (Theorem 30's proof),
    /// and thresholding can additionally remove up to `1 + τ`.
    pub fn error_radius(&self) -> f64 {
        self.tau
    }
}

/// The `τ` an 80-step bisection of `[0, top]` for the minimal feasible `τ`
/// returns at this `σ`, if it is `< best_tau` and `top` is feasible;
/// `None` otherwise. See [`GshmParams::calibrate`] for why the early
/// stops leave the answer unchanged.
fn min_tau_below(
    epsilon: f64,
    delta: f64,
    l: usize,
    sigma: f64,
    top: f64,
    best_tau: f64,
    hint: &mut usize,
) -> Option<f64> {
    let (mut lo, mut hi) = (0.0_f64, top);
    let mut lo_tested = false;
    for _ in 0..80 {
        if lo >= best_tau {
            return None;
        }
        let mid = 0.5 * (lo + hi);
        if mid == hi || (mid == lo && lo_tested) {
            break;
        }
        if feasible(epsilon, delta, l, sigma, mid, hint) {
            hi = mid;
        } else {
            lo = mid;
            lo_tested = true;
        }
    }
    (hi < best_tau && feasible(epsilon, delta, l, sigma, top, hint)).then_some(hi)
}

/// Decides `gshm_delta(ε, l, σ, τ) ≤ δ` for `δ ≥ 0`, stopping at the
/// first term above `δ`.
///
/// `gshm_delta` is the `f64::max` of 0, branch 1 and the branch-2 and
/// branch-3 terms of every split `j`. `max` skips NaN and `NaN > δ` is
/// false, so the bound is `≤ δ` exactly when no term is `> δ`. The terms
/// use `gshm_delta`'s arithmetic in its order (only `ln Φ(τ/σ)` is hoisted
/// out of the loop, which gives the same value), so the verdict is the
/// same. Branch 1 goes first, then the splits from `*hint` (the one that
/// refused the previous call) up to `l`, then from 1 up to `*hint`; a
/// refusing split is stored back into `*hint`. The split that refuses a
/// `σ` grows with `σ`, so starting at the last one skips the splits that
/// pass.
fn feasible(epsilon: f64, delta: f64, l: usize, sigma: f64, tau: f64, hint: &mut usize) -> bool {
    debug_assert!(delta >= 0.0, "gshm_delta's floor of 0 is a term too");
    let phi_ratio = normal_cdf(tau / sigma);
    let l_f = l as f64;
    if 1.0 - phi_ratio.powf(l_f) > delta {
        return false;
    }
    let ln_phi = phi_ratio.ln();
    let exceeds = |j: usize| {
        let (b2, b3) = split_terms(epsilon, sigma, l_f, phi_ratio, ln_phi, j);
        b2 > delta || b3 > delta
    };
    let start = (*hint).clamp(1, l);
    match (start..=l).chain(1..start).find(|&j| exceeds(j)) {
        Some(j) => {
            *hint = j;
            false
        }
        None => true,
    }
}

/// Branches 2 and 3 of the Theorem 23 bound at split `j`, computed as
/// [`gshm_delta`] computes them, given `Φ(τ/σ)` and its logarithm.
fn split_terms(
    epsilon: f64,
    sigma: f64,
    l_f: f64,
    phi_ratio: f64,
    ln_phi: f64,
    j: usize,
) -> (f64, f64) {
    let loss = |j: f64, eps_tilde: f64| -> f64 {
        let sj = j.sqrt();
        let a = sj / (2.0 * sigma) - eps_tilde * sigma / sj;
        let b = -sj / (2.0 * sigma) - eps_tilde * sigma / sj;
        normal_cdf(a) - eps_tilde.exp() * normal_cdf(b)
    };
    let j_f = j as f64;
    let gamma = (l_f - j_f) * ln_phi; // ≤ 0
    let keep = phi_ratio.powf(l_f - j_f);
    let b2 = 1.0 - keep + keep * loss(j_f, epsilon - gamma);
    let b3 = loss(j_f, epsilon + gamma);
    (b2, b3)
}

/// The Gaussian Sparse Histogram Mechanism.
#[derive(Debug, Clone)]
pub struct GaussianSparseHistogram {
    params: GshmParams,
}

impl GaussianSparseHistogram {
    /// Wraps calibrated parameters.
    pub fn new(params: GshmParams) -> Self {
        Self { params }
    }

    /// The parameters in use.
    pub fn params(&self) -> GshmParams {
        self.params
    }

    /// Releases the entries of a sketch whose neighbour structure matches
    /// the Theorem 23 precondition (differing counters all ±1 in one
    /// direction, at most `l` of them): adds `N(0, σ²)` to every non-zero
    /// count and drops noisy values below `1 + τ`.
    pub fn release<K: Item, R: Rng + ?Sized>(
        &self,
        entries: impl IntoIterator<Item = (K, u64)>,
        rng: &mut R,
    ) -> PrivateHistogram<K> {
        let gauss = Gaussian::new(self.params.sigma).expect("σ validated at calibration");
        let threshold = 1.0 + self.params.tau;
        let out: BTreeMap<K, f64> = entries
            .into_iter()
            .filter(|&(_, c)| c > 0)
            .filter_map(|(key, c)| {
                let noisy = c as f64 + gauss.sample(rng);
                (noisy >= threshold).then_some((key, noisy))
            })
            .collect();
        PrivateHistogram::from_parts(out, threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The full scan `calibrate` shortcuts: every σ step, the bracket top
    /// tested first, all 80 bisection steps, each a full `gshm_delta`.
    fn reference_calibrate(epsilon: f64, delta: f64, l: usize) -> Result<GshmParams, NoiseError> {
        let loose = GshmParams::loose(epsilon, delta, l)?;
        let mut best = loose;
        for step in 0..60 {
            let factor = 0.15 * 1.047f64.powi(step);
            let sigma = loose.sigma * factor;
            if let Some(tau) = reference_min_feasible_tau(epsilon, delta, l, sigma, loose.tau * 4.0)
            {
                if tau < best.tau {
                    best = GshmParams { l, sigma, tau };
                }
            }
        }
        Ok(best)
    }

    fn reference_min_feasible_tau(
        epsilon: f64,
        delta: f64,
        l: usize,
        sigma: f64,
        hi: f64,
    ) -> Option<f64> {
        if gshm_delta(epsilon, l, sigma, hi) > delta {
            return None;
        }
        let (mut lo, mut hi) = (0.0_f64, hi);
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if gshm_delta(epsilon, l, sigma, mid) <= delta {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(hi)
    }

    const GRID_EPSILON: [f64; 7] = [0.05, 0.1, 0.3, 0.5, 0.8, 0.9, 0.99];
    const GRID_DELTA: [f64; 6] = [1e-3, 1e-5, 1e-6, 1e-8, 1e-10, 1e-12];

    /// `calibrate` equals the reference scan bit for bit, and its pair
    /// meets Theorem 23 with no slack.
    fn assert_matches_reference(epsilon: f64, delta: f64, l: usize) {
        let got = GshmParams::calibrate(epsilon, delta, l).unwrap();
        let want = reference_calibrate(epsilon, delta, l).unwrap();
        assert_eq!(
            (got.l, got.sigma.to_bits(), got.tau.to_bits()),
            (want.l, want.sigma.to_bits(), want.tau.to_bits()),
            "ε={epsilon}, δ={delta:e}, l={l}: calibrate {got:?} ≠ reference {want:?}"
        );
        let achieved = gshm_delta(epsilon, l, got.sigma, got.tau);
        assert!(
            achieved <= delta,
            "ε={epsilon}, δ={delta:e}, l={l}: calibrated pair gives δ = {achieved:e}"
        );
    }

    #[test]
    fn calibrate_matches_reference_scan_bit_for_bit() {
        for &epsilon in &GRID_EPSILON {
            for &delta in &GRID_DELTA {
                for l in [1, 2, 3, 8, 33] {
                    assert_matches_reference(epsilon, delta, l);
                }
            }
        }
        assert_matches_reference(0.9, 1e-8, 256);
    }

    /// The whole grid, ~10 s with optimisations and far longer without,
    /// so it runs under `cargo test --release` only.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "run with --release")]
    fn calibrate_matches_reference_scan_on_full_grid() {
        for &epsilon in &GRID_EPSILON {
            for &delta in &GRID_DELTA {
                for l in [1, 2, 3, 5, 8, 16, 33, 64, 100, 128, 256] {
                    assert_matches_reference(epsilon, delta, l);
                }
            }
        }
        assert_matches_reference(0.9, 1e-8, 1024);
    }

    /// `feasible` against `gshm_delta(..) ≤ δ` at `σ` on the calibration
    /// grid and `τ = top·frac`, from any starting hint.
    fn check_feasible(epsilon: f64, delta: f64, l: usize, step: i32, frac: f64, hint: usize) {
        let loose = GshmParams::loose(epsilon, delta, l).unwrap();
        let sigma = loose.sigma * 0.15 * 1.047f64.powi(step);
        let tau = 4.0 * loose.tau * frac;
        let mut hint = hint;
        assert_eq!(
            feasible(epsilon, delta, l, sigma, tau, &mut hint),
            gshm_delta(epsilon, l, sigma, tau) <= delta,
            "ε={epsilon}, δ={delta:e}, l={l}, σ={sigma}, τ={tau}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn feasible_decides_theorem23_exactly(
            epsilon in 0.01f64..0.999,
            log_delta in -13.0f64..-2.0,
            l in 1usize..65,
            step in 0i32..60,
            // τ ∈ (0, 4·τ_loose]: uniform, or log-uniform down to 1e-9 of it.
            u in 0.0f64..1.0,
            small in proptest::bool::ANY,
            hint in 0usize..66,
        ) {
            let frac = if small { 10f64.powf(-9.0 * u) } else { 1.0 - u };
            check_feasible(epsilon, 10f64.powf(log_delta), l, step, frac, hint);
        }

        // The bisection alone, at any best τ so far, including one no τ
        // can beat (0) and one every τ beats (∞): there the bracket top's
        // own test decides.
        #[test]
        fn min_tau_below_matches_reference_bisection(
            epsilon in 0.01f64..0.999,
            log_delta in -13.0f64..-2.0,
            l in 1usize..33,
            step in 0i32..60,
            u in 0.0f64..1.25,
            hint in 0usize..34,
        ) {
            let delta = 10f64.powf(log_delta);
            let loose = GshmParams::loose(epsilon, delta, l).unwrap();
            let sigma = loose.sigma * 0.15 * 1.047f64.powi(step);
            let top = 4.0 * loose.tau;
            let best_tau = if u > 1.0 { f64::INFINITY } else { top * u };
            let mut hint = hint;
            let got = min_tau_below(epsilon, delta, l, sigma, top, best_tau, &mut hint);
            let want = reference_min_feasible_tau(epsilon, delta, l, sigma, top)
                .filter(|&tau| tau < best_tau);
            prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
        }

        // Above l ≈ 1024 a small τ overflows branch 2's `exp(ε − γ)` and
        // makes some of its terms NaN, which both sides must skip.
        #[test]
        fn feasible_decides_theorem23_exactly_where_terms_are_nan(
            epsilon in 0.01f64..0.999,
            log_delta in -13.0f64..-2.0,
            l in 1100usize..2049,
            step in 0i32..60,
            u in 0.0f64..1.0,
            hint in 0usize..2050,
        ) {
            check_feasible(epsilon, 10f64.powf(log_delta), l, step, 10f64.powf(-6.0 * u), hint);
        }
    }

    /// `feasible` and `gshm_delta` both skip NaN terms, which is safe only
    /// if a NaN term never stands where branch 1 alone would pass `τ`. On a
    /// sampled grid: wherever a term is NaN, branch 1 exceeds `δ`. A failure
    /// here calls for refusing a `τ` with a NaN term, never for loosening
    /// this test.
    #[test]
    fn nan_terms_only_where_branch1_refuses() {
        let mut terms = 0u64;
        let mut nan_terms = 0u64;
        for epsilon in [0.05, 0.5, 0.99] {
            for delta in [1e-3, 1e-8, 1e-12] {
                for l in [1usize, 16, 256, 1024, 1500, 4096] {
                    let loose = GshmParams::loose(epsilon, delta, l).unwrap();
                    for step in [0, 20, 40, 59] {
                        let sigma = loose.sigma * 0.15 * 1.047f64.powi(step);
                        for e in 0..10 {
                            let tau = 4.0 * loose.tau * 10f64.powi(-e);
                            let phi_ratio = normal_cdf(tau / sigma);
                            let l_f = l as f64;
                            let branch1 = 1.0 - phi_ratio.powf(l_f);
                            let ln_phi = phi_ratio.ln();
                            let nan: u64 = (1..=l)
                                .map(|j| split_terms(epsilon, sigma, l_f, phi_ratio, ln_phi, j))
                                .map(|(b2, b3)| u64::from(b2.is_nan()) + u64::from(b3.is_nan()))
                                .sum();
                            terms += 1 + 2 * l as u64;
                            nan_terms += nan + u64::from(branch1.is_nan());
                            assert!(
                                (nan == 0 && !branch1.is_nan()) || branch1 > delta,
                                "ε={epsilon}, δ={delta:e}, l={l}, σ={sigma}, τ={tau}: \
                                 {nan} NaN term(s) beside branch 1 = {branch1:e}"
                            );
                        }
                    }
                }
            }
        }
        // The grid must reach the regime it guards, or it shows nothing.
        assert!(nan_terms > 0, "no NaN term among {terms}");
    }

    #[test]
    fn loose_params_satisfy_exact_condition() {
        // Lemma 24 is a (provably conservative) special case of Theorem 23:
        // the loose parameters must pass the exact check.
        for &(eps, delta, l) in &[(0.5, 1e-6, 8usize), (0.9, 1e-8, 64), (0.3, 1e-10, 256)] {
            let p = GshmParams::loose(eps, delta, l).unwrap();
            let achieved = gshm_delta(eps, l, p.sigma, p.tau);
            assert!(
                achieved <= delta * 1.001,
                "ε={eps}, δ={delta}, l={l}: achieved {achieved:e}"
            );
        }
    }

    #[test]
    fn exact_calibration_beats_loose() {
        for &(eps, delta, l) in &[(0.5, 1e-6, 16usize), (0.9, 1e-8, 128)] {
            let loose = GshmParams::loose(eps, delta, l).unwrap();
            let exact = GshmParams::calibrate(eps, delta, l).unwrap();
            assert!(
                exact.tau <= loose.tau,
                "exact τ {} > loose τ {}",
                exact.tau,
                loose.tau
            );
            // And it satisfies the condition exactly: the bisection keeps
            // only feasible τ.
            assert!(gshm_delta(eps, l, exact.sigma, exact.tau) <= delta);
        }
    }

    #[test]
    fn delta_is_monotone_in_tau() {
        // Raising the threshold margin τ (σ fixed) can only make every
        // branch of the Theorem 23 bound smaller. (δ is NOT monotone in σ:
        // larger σ helps the Gaussian-mechanism branches but hurts the
        // escape-the-threshold branch — which is why calibration scans σ.)
        let (eps, l) = (0.5, 32usize);
        let base = gshm_delta(eps, l, 50.0, 300.0);
        assert!(gshm_delta(eps, l, 50.0, 500.0) <= base + 1e-12);
        assert!(gshm_delta(eps, l, 50.0, 200.0) >= base - 1e-12);
    }

    #[test]
    fn delta_increases_with_l() {
        let (eps, sigma, tau) = (0.5, 40.0, 250.0);
        let d8 = gshm_delta(eps, 8, sigma, tau);
        let d64 = gshm_delta(eps, 64, sigma, tau);
        assert!(d64 >= d8);
    }

    #[test]
    fn sigma_scales_as_sqrt_l() {
        let a = GshmParams::loose(0.5, 1e-8, 16).unwrap();
        let b = GshmParams::loose(0.5, 1e-8, 64).unwrap();
        let ratio = b.sigma / a.sigma;
        assert!((ratio - 2.0).abs() < 1e-9, "ratio = {ratio}");
    }

    #[test]
    fn loose_rejects_bad_domains() {
        assert!(GshmParams::loose(1.5, 1e-8, 8).is_err()); // ε ≥ 1
        assert!(GshmParams::loose(0.5, 0.0, 8).is_err());
        assert!(GshmParams::loose(0.5, 1e-8, 0).is_err());
    }

    #[test]
    fn release_keeps_heavy_and_drops_small() {
        let params = GshmParams::loose(0.5, 1e-6, 8).unwrap();
        let mech = GaussianSparseHistogram::new(params);
        let mut rng = StdRng::seed_from_u64(77);
        let big = 100_000u64;
        let hist = mech.release(vec![(1u64, big), (2, 1), (3, 0)], &mut rng);
        assert!(hist.contains(&1));
        assert!((hist.estimate(&1) - big as f64).abs() < 6.0 * params.sigma);
        assert!(!hist.contains(&2), "count 1 must be thresholded away");
        assert!(!hist.contains(&3), "zero counts receive no noise at all");
    }

    #[test]
    fn error_radius_bounds_noise_empirically() {
        let params = GshmParams::loose(0.5, 1e-4, 16).unwrap();
        let mech = GaussianSparseHistogram::new(params);
        let mut rng = StdRng::seed_from_u64(123);
        let entries: Vec<(u64, u64)> = (1..=16u64).map(|x| (x, 1_000_000)).collect();
        let mut worst: f64 = 0.0;
        for _ in 0..100 {
            let hist = mech.release(entries.clone(), &mut rng);
            for &(key, c) in &entries {
                worst = worst.max((hist.estimate(&key) - c as f64).abs());
            }
        }
        assert!(
            worst <= params.error_radius(),
            "worst noise {worst} exceeded τ = {}",
            params.error_radius()
        );
    }
}
