//! Quantified prediction accuracy and coverage.
//!
//! The paper (Section 3.5, Figure 8) measures how good a predicted
//! bit-pattern was for a page with three PopCounts:
//!
//! * `Cpred`  — bits set in the predicted pattern,
//! * `Creal`  — bits set in the program's actual access pattern,
//! * `Cacc`   — bits set in `predicted AND program`.
//!
//! Accuracy is `Cacc / Cpred`, coverage is `Cacc / Creal`, and both are
//! quantized into quartiles with shift-and-compare logic rather than a
//! divider. [`PredictionQuality`] packages that computation for either the
//! 64-bit line-granularity patterns or the 32-bit compressed patterns.

use crate::pattern::{CompressedPattern, SpatialPattern};
use dspatch_types::BandwidthQuartile;

/// Quantizes `numerator / denominator` into a quartile without dividing,
/// mirroring the shift-and-compare hardware of Figure 8. A zero denominator
/// quantizes to the lowest quartile.
pub fn quantize_fraction(numerator: u32, denominator: u32) -> BandwidthQuartile {
    if denominator == 0 {
        return BandwidthQuartile::Q0;
    }
    let scaled = u64::from(numerator) * 4;
    let denom = u64::from(denominator);
    if scaled >= denom * 3 {
        BandwidthQuartile::Q3
    } else if scaled >= denom * 2 {
        BandwidthQuartile::Q2
    } else if scaled >= denom {
        BandwidthQuartile::Q1
    } else {
        BandwidthQuartile::Q0
    }
}

/// The quantized accuracy and coverage of one pattern prediction for one
/// page (or 2 KB page segment).
///
/// # Example
///
/// ```
/// use dspatch::{PredictionQuality, SpatialPattern};
/// use dspatch_types::BandwidthQuartile;
///
/// // Paper, Figure 8: program has 8 accesses, prediction has 5 bits,
/// // 3 of which were real accesses -> accuracy 3/5, coverage 3/8.
/// let program = SpatialPattern::from_bits(0b1011_0100_0011_1100);
/// let predicted = SpatialPattern::from_bits(0b1010_0110_0000_0001);
/// let q = PredictionQuality::measure(predicted, program);
/// assert_eq!(q.accuracy, BandwidthQuartile::Q2); // 60% -> 50-75%
/// assert_eq!(q.coverage, BandwidthQuartile::Q1); // 37.5% -> 25-50%
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PredictionQuality {
    /// Quantized `Cacc / Cpred`.
    pub accuracy: BandwidthQuartile,
    /// Quantized `Cacc / Creal`.
    pub coverage: BandwidthQuartile,
    /// Raw accurate-prefetch count (`Cacc`).
    pub accurate: u32,
    /// Raw predicted count (`Cpred`).
    pub predicted: u32,
    /// Raw program access count (`Creal`).
    pub real: u32,
}

impl PredictionQuality {
    /// Measures a line-granularity prediction against the program pattern.
    pub fn measure(predicted: SpatialPattern, program: SpatialPattern) -> Self {
        Self::from_counts(
            (predicted & program).popcount(),
            predicted.popcount(),
            program.popcount(),
        )
    }

    /// Measures a compressed (128 B-granularity) prediction against the
    /// compressed program pattern, which is what the hardware tables store.
    pub fn measure_compressed(predicted: CompressedPattern, program: CompressedPattern) -> Self {
        Self::from_counts(
            (predicted & program).popcount(),
            predicted.popcount(),
            program.popcount(),
        )
    }

    /// Builds the quality record from raw PopCounts.
    pub fn from_counts(accurate: u32, predicted: u32, real: u32) -> Self {
        Self {
            accuracy: quantize_fraction(accurate, predicted),
            coverage: quantize_fraction(accurate, real),
            accurate,
            predicted,
            real,
        }
    }

    /// Whether quantized accuracy is below `threshold` (exclusive).
    pub fn accuracy_below(&self, threshold: BandwidthQuartile) -> bool {
        self.accuracy < threshold
    }

    /// Whether quantized coverage is below `threshold` (exclusive).
    pub fn coverage_below(&self, threshold: BandwidthQuartile) -> bool {
        self.coverage < threshold
    }

    /// Exact accuracy fraction (for statistics; hardware never computes it).
    pub fn accuracy_fraction(&self) -> f64 {
        if self.predicted == 0 {
            0.0
        } else {
            f64::from(self.accurate) / f64::from(self.predicted)
        }
    }

    /// Exact coverage fraction (for statistics; hardware never computes it).
    pub fn coverage_fraction(&self) -> f64 {
        if self.real == 0 {
            0.0
        } else {
            f64::from(self.accurate) / f64::from(self.real)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_handles_boundaries() {
        assert_eq!(quantize_fraction(0, 10), BandwidthQuartile::Q0);
        assert_eq!(quantize_fraction(2, 10), BandwidthQuartile::Q0);
        assert_eq!(quantize_fraction(3, 10), BandwidthQuartile::Q1);
        assert_eq!(quantize_fraction(5, 10), BandwidthQuartile::Q2);
        assert_eq!(
            quantize_fraction(7, 10),
            BandwidthQuartile::Q1.max(BandwidthQuartile::Q2)
        );
        assert_eq!(quantize_fraction(8, 10), BandwidthQuartile::Q3);
        assert_eq!(quantize_fraction(10, 10), BandwidthQuartile::Q3);
    }

    #[test]
    fn quantize_zero_denominator_is_lowest() {
        assert_eq!(quantize_fraction(5, 0), BandwidthQuartile::Q0);
    }

    #[test]
    fn quantize_exact_quarters() {
        assert_eq!(quantize_fraction(1, 4), BandwidthQuartile::Q1);
        assert_eq!(quantize_fraction(2, 4), BandwidthQuartile::Q2);
        assert_eq!(quantize_fraction(3, 4), BandwidthQuartile::Q3);
        assert_eq!(quantize_fraction(4, 4), BandwidthQuartile::Q3);
    }

    #[test]
    fn figure8_example_reproduces() {
        let program = SpatialPattern::from_bits(0b1011_0100_0011_1100);
        let predicted = SpatialPattern::from_bits(0b1010_0110_0000_0001);
        let q = PredictionQuality::measure(predicted, program);
        assert_eq!(q.real, 8);
        assert_eq!(q.predicted, 5);
        assert_eq!(q.accurate, 3);
        assert_eq!(q.accuracy, BandwidthQuartile::Q2);
        assert_eq!(q.coverage, BandwidthQuartile::Q1);
    }

    #[test]
    fn perfect_prediction_is_top_quartile_both_ways() {
        let p = SpatialPattern::from_bits(0xF0F0);
        let q = PredictionQuality::measure(p, p);
        assert_eq!(q.accuracy, BandwidthQuartile::Q3);
        assert_eq!(q.coverage, BandwidthQuartile::Q3);
        assert!((q.accuracy_fraction() - 1.0).abs() < f64::EPSILON);
        assert!((q.coverage_fraction() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn empty_prediction_has_zero_quality() {
        let q = PredictionQuality::measure(SpatialPattern::EMPTY, SpatialPattern::from_bits(0xFF));
        assert_eq!(q.accuracy, BandwidthQuartile::Q0);
        assert_eq!(q.coverage, BandwidthQuartile::Q0);
        assert_eq!(q.accuracy_fraction(), 0.0);
    }

    #[test]
    fn compressed_measure_matches_manual_counts() {
        let program = CompressedPattern::from_bits(0b1111_0000);
        let predicted = CompressedPattern::from_bits(0b0011_0011);
        let q = PredictionQuality::measure_compressed(predicted, program);
        assert_eq!(q.predicted, 4);
        assert_eq!(q.real, 4);
        assert_eq!(q.accurate, 2);
        assert_eq!(q.accuracy, BandwidthQuartile::Q2);
    }

    #[test]
    fn below_threshold_helpers() {
        let q = PredictionQuality::from_counts(1, 4, 8);
        assert!(q.accuracy_below(BandwidthQuartile::Q2));
        assert!(q.coverage_below(BandwidthQuartile::Q2));
        let perfect = PredictionQuality::from_counts(8, 8, 8);
        assert!(!perfect.accuracy_below(BandwidthQuartile::Q2));
    }
}
