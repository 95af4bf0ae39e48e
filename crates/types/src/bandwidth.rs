//! The 2-bit DRAM bandwidth-utilization signal.
//!
//! The DSPatch paper (Section 3.2) tracks memory bandwidth utilization with a
//! CAS-command counter at the memory controller, quantizes it into quartiles
//! of the peak bandwidth, and broadcasts the resulting 2-bit value to every
//! core. This module defines that 2-bit value; the counter itself lives in
//! the DRAM model (`dspatch-sim`).

use std::fmt;

/// Quantized DRAM bandwidth utilization, as broadcast by the memory
/// controller.
///
/// The encoding follows the paper: `Q0` means less than 25 % of peak
/// bandwidth is being used, `Q3` means 75 % or more.
///
/// # Example
///
/// ```
/// use dspatch_types::BandwidthQuartile;
/// assert_eq!(BandwidthQuartile::from_fraction(0.10), BandwidthQuartile::Q0);
/// assert_eq!(BandwidthQuartile::from_fraction(0.60), BandwidthQuartile::Q2);
/// assert!(BandwidthQuartile::Q3.is_high());
/// assert!(!BandwidthQuartile::Q1.is_high());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum BandwidthQuartile {
    /// Utilization below 25 % of peak.
    #[default]
    Q0,
    /// Utilization in [25 %, 50 %).
    Q1,
    /// Utilization in [50 %, 75 %).
    Q2,
    /// Utilization at or above 75 % of peak.
    Q3,
}

impl BandwidthQuartile {
    /// All quartiles in increasing order of utilization.
    pub const ALL: [BandwidthQuartile; 4] = [
        BandwidthQuartile::Q0,
        BandwidthQuartile::Q1,
        BandwidthQuartile::Q2,
        BandwidthQuartile::Q3,
    ];

    /// Builds the quartile from a utilization fraction in `[0, 1]`.
    /// Values outside the range are clamped.
    pub fn from_fraction(fraction: f64) -> Self {
        let f = fraction.clamp(0.0, 1.0);
        if f >= 0.75 {
            BandwidthQuartile::Q3
        } else if f >= 0.50 {
            BandwidthQuartile::Q2
        } else if f >= 0.25 {
            BandwidthQuartile::Q1
        } else {
            BandwidthQuartile::Q0
        }
    }

    /// Returns the 2-bit hardware encoding (0..=3).
    pub const fn as_bits(self) -> u8 {
        match self {
            BandwidthQuartile::Q0 => 0,
            BandwidthQuartile::Q1 => 1,
            BandwidthQuartile::Q2 => 2,
            BandwidthQuartile::Q3 => 3,
        }
    }

    /// Builds the quartile from a 2-bit encoding; values above 3 saturate to
    /// [`BandwidthQuartile::Q3`].
    pub const fn from_bits(bits: u8) -> Self {
        match bits {
            0 => BandwidthQuartile::Q0,
            1 => BandwidthQuartile::Q1,
            2 => BandwidthQuartile::Q2,
            _ => BandwidthQuartile::Q3,
        }
    }

    /// Utilization is 75 % of peak or more — the "throttle for accuracy"
    /// region of the DSPatch selection logic.
    pub const fn is_high(self) -> bool {
        matches!(self, BandwidthQuartile::Q3)
    }

    /// Utilization is 50 % of peak or more.
    pub const fn is_above_half(self) -> bool {
        matches!(self, BandwidthQuartile::Q2 | BandwidthQuartile::Q3)
    }

    /// Lower bound of the quartile as a fraction of peak bandwidth.
    pub const fn lower_bound(self) -> f64 {
        match self {
            BandwidthQuartile::Q0 => 0.0,
            BandwidthQuartile::Q1 => 0.25,
            BandwidthQuartile::Q2 => 0.50,
            BandwidthQuartile::Q3 => 0.75,
        }
    }
}

impl fmt::Display for BandwidthQuartile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BandwidthQuartile::Q0 => write!(f, "<25%"),
            BandwidthQuartile::Q1 => write!(f, "25-50%"),
            BandwidthQuartile::Q2 => write!(f, "50-75%"),
            BandwidthQuartile::Q3 => write!(f, ">=75%"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_boundaries_map_to_expected_quartiles() {
        assert_eq!(BandwidthQuartile::from_fraction(0.0), BandwidthQuartile::Q0);
        assert_eq!(
            BandwidthQuartile::from_fraction(0.2499),
            BandwidthQuartile::Q0
        );
        assert_eq!(
            BandwidthQuartile::from_fraction(0.25),
            BandwidthQuartile::Q1
        );
        assert_eq!(
            BandwidthQuartile::from_fraction(0.4999),
            BandwidthQuartile::Q1
        );
        assert_eq!(BandwidthQuartile::from_fraction(0.5), BandwidthQuartile::Q2);
        assert_eq!(
            BandwidthQuartile::from_fraction(0.75),
            BandwidthQuartile::Q3
        );
        assert_eq!(BandwidthQuartile::from_fraction(1.0), BandwidthQuartile::Q3);
    }

    #[test]
    fn fraction_clamps_out_of_range() {
        assert_eq!(
            BandwidthQuartile::from_fraction(-1.0),
            BandwidthQuartile::Q0
        );
        assert_eq!(BandwidthQuartile::from_fraction(9.0), BandwidthQuartile::Q3);
    }

    #[test]
    fn bits_round_trip() {
        for q in BandwidthQuartile::ALL {
            assert_eq!(BandwidthQuartile::from_bits(q.as_bits()), q);
        }
        assert_eq!(BandwidthQuartile::from_bits(200), BandwidthQuartile::Q3);
    }

    #[test]
    fn ordering_matches_utilization() {
        assert!(BandwidthQuartile::Q0 < BandwidthQuartile::Q1);
        assert!(BandwidthQuartile::Q2 < BandwidthQuartile::Q3);
        assert!(BandwidthQuartile::Q3.is_above_half());
        assert!(BandwidthQuartile::Q2.is_above_half());
        assert!(!BandwidthQuartile::Q1.is_above_half());
    }

    #[test]
    fn lower_bounds_are_monotonic() {
        let bounds: Vec<f64> = BandwidthQuartile::ALL
            .iter()
            .map(|q| q.lower_bound())
            .collect();
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
    }
}
