//! Truncated power-law ("Zipf-like") popularity weights.

use serde::{Deserialize, Serialize};

/// Normalised popularity weights `p(rank) ∝ rank^-f` over `n` ranks.
///
/// The paper computes the popularity of the item of rank *c* as
/// `p_c = c^-f / Σ_i i^-f`; `f = 0` gives a uniform distribution and `f = 1`
/// a Zipf-like one.  Ranks here are zero-based indices (rank 0 is the most
/// popular item).
///
/// # Example
///
/// ```
/// use workload::PowerLawWeights;
///
/// let w = PowerLawWeights::new(5, 1.0);
/// assert_eq!(w.len(), 5);
/// assert!(w.weight(0) > w.weight(4));
/// let total: f64 = (0..5).map(|i| w.weight(i)).sum();
/// assert!((total - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerLawWeights {
    weights: Vec<f64>,
    factor: f64,
}

impl PowerLawWeights {
    /// Builds normalised weights for `n` ranks with power-law factor `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `factor` is negative or not finite.
    #[must_use]
    pub fn new(n: usize, factor: f64) -> Self {
        assert!(n > 0, "popularity distribution needs at least one rank");
        assert!(
            factor.is_finite() && factor >= 0.0,
            "popularity factor must be finite and non-negative, got {factor}"
        );
        let raw: Vec<f64> = (1..=n).map(|rank| rank_power(rank, factor)).collect();
        let total: f64 = raw.iter().sum();
        let weights = raw.into_iter().map(|w| w / total).collect();
        PowerLawWeights { weights, factor }
    }

    /// Number of ranks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the distribution has no ranks (never true for a constructed value).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The power-law factor this distribution was built with.
    #[must_use]
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// The normalised probability of the item at zero-based `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of bounds.
    #[must_use]
    pub fn weight(&self, rank: usize) -> f64 {
        self.weights[rank]
    }

    /// All normalised weights, most popular first.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Samples a rank given a uniform draw `u` in `[0, 1)`.
    ///
    /// Exposed separately from any RNG so that callers can use their own
    /// deterministic random streams.
    #[must_use]
    pub fn sample_with(&self, u: f64) -> usize {
        scan_ranks(self.weights.iter().copied(), u)
    }
}

/// The unnormalised power-law weight `rank^-f` of one-based `rank`.
pub(crate) fn rank_power(rank: usize, factor: f64) -> f64 {
    (rank as f64).powf(-factor)
}

/// Inverse-CDF scan over normalised `weights` (most popular first) for a
/// uniform draw `u`: clamps `u` into `[0, 1)`, then walks the ranks
/// subtracting each weight until the remainder falls below the current
/// one.  Rounding can leave a remainder past the last weight; that draw
/// lands on the last rank.  `weights` must not be empty.
///
/// Both [`PowerLawWeights::sample_with`] and
/// [`Catalog::sample_rank`](crate::Catalog::sample_rank) sample through
/// this one loop, which is what keeps the catalog's table draws
/// bit-identical to a freshly built distribution.
pub(crate) fn scan_ranks(weights: impl ExactSizeIterator<Item = f64>, u: f64) -> usize {
    let last = weights.len() - 1;
    let mut target = u.clamp(0.0, 1.0 - f64::EPSILON);
    for (rank, w) in weights.enumerate() {
        if target < w {
            return rank;
        }
        target -= w;
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_factor_is_uniform() {
        let w = PowerLawWeights::new(10, 0.0);
        for i in 0..10 {
            assert!((w.weight(i) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn weights_are_normalised_and_decreasing() {
        for f in [0.2, 0.5, 1.0, 2.0] {
            let w = PowerLawWeights::new(50, f);
            let total: f64 = w.weights().iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "factor {f}");
            for i in 1..w.len() {
                assert!(w.weight(i - 1) >= w.weight(i), "factor {f} rank {i}");
            }
        }
    }

    #[test]
    fn higher_factor_is_more_skewed() {
        let flat = PowerLawWeights::new(100, 0.2);
        let steep = PowerLawWeights::new(100, 1.0);
        assert!(steep.weight(0) > flat.weight(0));
        assert!(steep.weight(99) < flat.weight(99));
    }

    #[test]
    fn sample_with_covers_all_ranks() {
        let w = PowerLawWeights::new(4, 0.0);
        assert_eq!(w.sample_with(0.0), 0);
        assert_eq!(w.sample_with(0.30), 1);
        assert_eq!(w.sample_with(0.55), 2);
        assert_eq!(w.sample_with(0.99), 3);
        // Out-of-range draws are clamped.
        assert_eq!(w.sample_with(1.5), 3);
        assert_eq!(w.sample_with(-0.5), 0);
    }

    #[test]
    fn single_rank_distribution() {
        let w = PowerLawWeights::new(1, 1.0);
        assert_eq!(w.len(), 1);
        assert_eq!(w.weight(0), 1.0);
        assert_eq!(w.sample_with(0.7), 0);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panic() {
        let _ = PowerLawWeights::new(0, 0.5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_factor_panics() {
        let _ = PowerLawWeights::new(5, -1.0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn sampling_respects_bounds(n in 1usize..200, f in 0.0f64..2.0, u in 0.0f64..1.0) {
                let w = PowerLawWeights::new(n, f);
                let rank = w.sample_with(u);
                prop_assert!(rank < n);
            }

            #[test]
            fn normalisation_holds(n in 1usize..500, f in 0.0f64..3.0) {
                let w = PowerLawWeights::new(n, f);
                let total: f64 = w.weights().iter().sum();
                prop_assert!((total - 1.0).abs() < 1e-6);
            }
        }
    }
}
