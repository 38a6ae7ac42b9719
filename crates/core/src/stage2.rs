//! Stage II selection criterion (Eq. 9-11 of the paper).
//!
//! In Stage II the partition is tight (`M(P_k) >= 1`) and the paper selects
//! the frontier vertex whose admission increases modularity the most:
//!
//! ```text
//! mu_s2(v_i) = 1 - 1 / (1 + ΔM),    ΔM = M'(P_k) - M(P_k)
//! ```
//!
//! `mu_s2` is strictly increasing in `ΔM` while `ΔM > -1`, and `M(P_k)` is
//! the same for all candidates at a given step, so ranking candidates by
//! `mu_s2` is the same as ranking them by the *post-admission modularity*
//! `M' = (E + e_in) / (E_out - e_in + e_ext)`, where `e_in` is the number of
//! residual edges from the candidate into the partition and `e_ext` the rest
//! of its residual degree. The engine ranks by `M'` everywhere, also where
//! `ΔM <= -1` makes the float formula exceed 1 or divide by zero.
//! [`GainRatio`] represents `M'` as an exact integer fraction so candidate
//! comparison never suffers floating-point ties.

use std::cmp::Ordering;

/// Post-admission modularity `M' = num/den` as an exact fraction.
///
/// `den == 0` encodes `+inf` (the candidate absorbs every external edge).
///
/// # Example
///
/// ```
/// use tlp_core::stage2::GainRatio;
///
/// // Paper Fig. 7: E=5, E_out=4. Candidate g: e_in=1, e_ext=1 -> M' = 6/4.
/// // Candidate e: e_in=3, e_ext=1 -> M' = 8/2.
/// let g = GainRatio::new(5, 4, 1, 1);
/// let e = GainRatio::new(5, 4, 3, 1);
/// assert!(e > g);
/// assert_eq!(e.to_f64(), 4.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GainRatio {
    num: u64,
    den: u64,
}

impl GainRatio {
    /// Builds the post-admission modularity for a candidate.
    ///
    /// * `internal` — current `|E(P_k)|`
    /// * `external` — current `|E_out(P_k)|`
    /// * `e_in` — candidate's residual edges into `P_k` (all become internal)
    /// * `e_ext` — candidate's residual edges leaving `P_k` (become external)
    ///
    /// `e_in > external` is a caller bug (a candidate cannot absorb more
    /// external edges than exist); the subtraction saturates to zero in
    /// every build mode, with a `debug_assert` to surface the bug in tests.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `e_in > external`.
    pub fn new(internal: usize, external: usize, e_in: usize, e_ext: usize) -> Self {
        debug_assert!(
            e_in <= external,
            "candidate absorbs {e_in} external edges but only {external} exist"
        );
        GainRatio {
            num: (internal + e_in) as u64,
            den: (external.saturating_sub(e_in) + e_ext) as u64,
        }
    }

    /// The ratio as a float (`+inf` when `den == 0`).
    pub fn to_f64(self) -> f64 {
        if self.den == 0 {
            f64::INFINITY
        } else {
            self.num as f64 / self.den as f64
        }
    }
}

impl PartialOrd for GainRatio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for GainRatio {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.den, other.den) {
            (0, 0) => self.num.cmp(&other.num),
            (0, _) => Ordering::Greater,
            (_, 0) => Ordering::Less,
            _ => {
                let left = u128::from(self.num) * u128::from(other.den);
                let right = u128::from(other.num) * u128::from(self.den);
                left.cmp(&right)
            }
        }
    }
}

/// The paper's `ΔM` (Eq. 10) for a candidate, as a float.
pub fn delta_m(internal: usize, external: usize, e_in: usize, e_ext: usize) -> f64 {
    let before = if external == 0 {
        if internal == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        internal as f64 / external as f64
    };
    GainRatio::new(internal, external, e_in, e_ext).to_f64() - before
}

/// The paper's `mu_s2 = 1 - 1/(1 + ΔM)` (Eq. 9), as a float.
///
/// Provided for parity with the paper; ranking by [`GainRatio`] is
/// equivalent and exact.
///
/// # Example
///
/// ```
/// use tlp_core::stage2::mu_s2;
///
/// // Paper Fig. 7: ΔM(g) = 0.25, ΔM(e) = 2.75.
/// let g = mu_s2(5, 4, 1, 1);
/// let e = mu_s2(5, 4, 3, 1);
/// assert!((g - 0.2).abs() < 1e-12);      // 1 - 1/1.25
/// assert!((e - (1.0 - 1.0 / 3.75)).abs() < 1e-12);
/// assert!(e > g);
/// ```
pub fn mu_s2(internal: usize, external: usize, e_in: usize, e_ext: usize) -> f64 {
    let dm = delta_m(internal, external, e_in, e_ext);
    if dm.is_infinite() {
        1.0
    } else {
        1.0 - 1.0 / (1.0 + dm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fig7_walkthrough() {
        // Before allocation: |E_in| = 5, |E_out| = 4, M = 1.25.
        // Vertex g: one edge into P_k, one out: M' = 6/4 = 1.5, ΔM = 0.25.
        assert!((delta_m(5, 4, 1, 1) - 0.25).abs() < 1e-12);
        // Vertex e: three edges in, one out: M' = 8/2 = 4, ΔM = 2.75.
        assert!((delta_m(5, 4, 3, 1) - 2.75).abs() < 1e-12);
        // e wins.
        assert!(GainRatio::new(5, 4, 3, 1) > GainRatio::new(5, 4, 1, 1));
    }

    #[test]
    fn ordering_matches_float_ratio() {
        let cases = [
            (5, 4, 1, 1),
            (5, 4, 3, 1),
            (10, 2, 2, 5),
            (0, 3, 1, 0),
            (7, 7, 7, 0),
        ];
        for &a in &cases {
            for &b in &cases {
                let ga = GainRatio::new(a.0, a.1, a.2, a.3);
                let gb = GainRatio::new(b.0, b.1, b.2, b.3);
                let fa = ga.to_f64();
                let fb = gb.to_f64();
                if fa != fb {
                    assert_eq!(ga > gb, fa > fb, "{a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn infinite_gain_beats_everything_finite() {
        // Absorbing the last external edges with none added: den = 0.
        let inf = GainRatio::new(3, 2, 2, 0);
        assert_eq!(inf.to_f64(), f64::INFINITY);
        let big = GainRatio::new(1_000_000, 1, 1, 1);
        assert!(inf > big);
        // Two infinite gains compare by numerator.
        let inf2 = GainRatio::new(4, 2, 2, 0);
        assert!(inf2 > inf);
    }

    #[test]
    fn mu_s2_is_monotone_in_delta_m() {
        let low = mu_s2(5, 4, 1, 1);
        let high = mu_s2(5, 4, 3, 1);
        assert!(high > low);
        assert!((0.0..=1.0).contains(&low));
        assert!((0.0..=1.0).contains(&high));
    }

    #[test]
    fn e_in_equal_to_external_is_exact_in_both_build_modes() {
        // The candidate absorbs every external edge: den must be exactly
        // e_ext, and the saturating subtraction must not kick in. This is
        // the boundary right below the debug_assert, so it has to produce
        // identical values in debug and release.
        let boundary = GainRatio::new(6, 3, 3, 2);
        assert_eq!(boundary.to_f64(), 9.0 / 2.0);
        assert_eq!(boundary, GainRatio::new(7, 4, 2, 0));
        // With no new external edges either, the ratio is +inf.
        let absorbed = GainRatio::new(6, 3, 3, 0);
        assert_eq!(absorbed.to_f64(), f64::INFINITY);
    }

    #[test]
    fn no_overflow_at_large_counts() {
        let a = GainRatio::new(usize::MAX / 4, 1_000_000, 999_999, 5);
        let b = GainRatio::new(usize::MAX / 4, 1_000_000, 1, 5);
        assert!(a > b);
    }
}
