//! Numeric similarity measures for values and attribute distributions.

/// Similarity of two scalars based on relative difference:
/// `1 - |a-b| / max(|a|, |b|)`, with `1.0` when both are zero and `0.0`
/// when either is NaN.
pub fn relative_diff_similarity(a: f64, b: f64) -> f64 {
    // `f64::max` drops a NaN, so without this `(NaN, 0.0)` would take the
    // both-zero branch below and score a perfect match.
    if a.is_nan() || b.is_nan() {
        return 0.0;
    }
    if a == b {
        return 1.0;
    }
    let denom = a.abs().max(b.abs());
    if denom == 0.0 {
        return 1.0;
    }
    (1.0 - (a - b).abs() / denom).max(0.0)
}

/// Overlap fraction of two closed ranges `[a_min, a_max]`, `[b_min, b_max]`:
/// intersection length over union length (both 0-length at the same point
/// count as full overlap).
pub fn overlap_fraction(a_min: f64, a_max: f64, b_min: f64, b_max: f64) -> f64 {
    debug_assert!(a_min <= a_max && b_min <= b_max);
    let inter = (a_max.min(b_max) - a_min.max(b_min)).max(0.0);
    let union = (a_max.max(b_max) - a_min.min(b_min)).max(0.0);
    if union == 0.0 {
        // Both ranges are single points; overlap iff equal.
        return if a_min == b_min { 1.0 } else { 0.0 };
    }
    inter / union
}

/// A numeric distribution summary for [`stats_similarity`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub mean: f64,
    pub std: f64,
    pub min: f64,
    pub max: f64,
}

/// Similarity of two numeric distributions summarised as (mean, std, min, max).
///
/// Combines range overlap with mean proximity scaled by pooled spread. This
/// is the distribution matcher's core: "ticket price" columns from two
/// sources match because their numeric shapes agree even when names differ.
#[allow(clippy::too_many_arguments)]
pub fn stats_similarity(
    a_mean: f64,
    a_std: f64,
    a_min: f64,
    a_max: f64,
    b_mean: f64,
    b_std: f64,
    b_min: f64,
    b_max: f64,
) -> f64 {
    summary_similarity(
        Summary { mean: a_mean, std: a_std, min: a_min, max: a_max },
        Summary { mean: b_mean, std: b_std, min: b_min, max: b_max },
    )
}

/// Struct-argument form of [`stats_similarity`].
pub fn summary_similarity(a: Summary, b: Summary) -> f64 {
    let range = overlap_fraction(a.min, a.max, b.min, b.max);
    let pooled = (a.std.max(1e-9).powi(2) + b.std.max(1e-9).powi(2)).sqrt();
    let spread = (a.max - a.min).abs().max((b.max - b.min).abs()).max(1e-9);
    // Mean distance normalised by the larger of pooled std and 1/4 range.
    let scale = pooled.max(spread / 4.0);
    let mean_sim = (-((a.mean - b.mean).abs() / scale).powi(2)).exp();
    0.5 * range + 0.5 * mean_sim
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_diff_basics() {
        assert_eq!(relative_diff_similarity(10.0, 10.0), 1.0);
        assert_eq!(relative_diff_similarity(0.0, 0.0), 1.0);
        assert!((relative_diff_similarity(10.0, 5.0) - 0.5).abs() < 1e-12);
        assert_eq!(relative_diff_similarity(10.0, -10.0), 0.0);
        for (a, b) in [
            (f64::NAN, 0.0),
            (0.0, f64::NAN),
            (f64::NAN, -0.0),
            (f64::NAN, f64::NAN),
            (f64::NAN, 5.0),
        ] {
            assert_eq!(relative_diff_similarity(a, b), 0.0, "({a}, {b})");
        }
    }

    #[test]
    fn overlap_cases() {
        assert_eq!(overlap_fraction(0.0, 10.0, 0.0, 10.0), 1.0);
        assert_eq!(overlap_fraction(0.0, 10.0, 20.0, 30.0), 0.0);
        assert!((overlap_fraction(0.0, 10.0, 5.0, 15.0) - (5.0 / 15.0)).abs() < 1e-12);
        assert_eq!(overlap_fraction(3.0, 3.0, 3.0, 3.0), 1.0);
        assert_eq!(overlap_fraction(3.0, 3.0, 4.0, 4.0), 0.0);
        // Point inside a range: intersection 0 length but union positive.
        assert_eq!(overlap_fraction(5.0, 5.0, 0.0, 10.0), 0.0);
    }

    #[test]
    fn stats_similarity_identical_is_high() {
        let s = stats_similarity(50.0, 10.0, 20.0, 100.0, 50.0, 10.0, 20.0, 100.0);
        assert!(s > 0.99);
    }

    #[test]
    fn stats_similarity_separated_is_low() {
        // Prices ~$50 vs years ~2013: totally different distributions.
        let s = stats_similarity(50.0, 20.0, 20.0, 150.0, 2013.0, 1.0, 2010.0, 2014.0);
        assert!(s < 0.1, "got {s}");
    }

    #[test]
    fn stats_similarity_is_symmetric_and_bounded() {
        let a = (55.0, 12.0, 27.0, 99.0);
        let b = (60.0, 15.0, 25.0, 120.0);
        let s1 = stats_similarity(a.0, a.1, a.2, a.3, b.0, b.1, b.2, b.3);
        let s2 = stats_similarity(b.0, b.1, b.2, b.3, a.0, a.1, a.2, a.3);
        assert!((s1 - s2).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&s1));
        assert!(s1 > 0.5, "similar price columns should score well: {s1}");
    }
}
