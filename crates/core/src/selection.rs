//! Run-time selection between the coverage-biased and accuracy-biased
//! bit-patterns (paper, Section 3.6, Figure 10).

use crate::config::SelectionPolicy;
use crate::counters::SaturatingCounter;
use dspatch_types::BandwidthQuartile;
use std::fmt;

/// The pattern (if any) chosen to generate prefetches for one trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternChoice {
    /// Prefetch with the coverage-biased pattern `CovP`.
    Coverage {
        /// When set, prefetched blocks are filled at low replacement priority
        /// because `MeasureCovP` indicates `CovP` is currently inaccurate.
        low_priority: bool,
    },
    /// Prefetch with the accuracy-biased pattern `AccP`.
    Accuracy,
    /// Issue no prefetches for this trigger.
    NoPrefetch,
}

impl PatternChoice {
    /// Returns whether any prefetching happens.
    pub const fn prefetches(self) -> bool {
        !matches!(self, PatternChoice::NoPrefetch)
    }
}

impl fmt::Display for PatternChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternChoice::Coverage {
                low_priority: false,
            } => write!(f, "CovP"),
            PatternChoice::Coverage { low_priority: true } => write!(f, "CovP(low-priority)"),
            PatternChoice::Accuracy => write!(f, "AccP"),
            PatternChoice::NoPrefetch => write!(f, "none"),
        }
    }
}

/// Implements the decision diagram of Figure 10 (plus the two ablation
/// policies of Figure 19).
///
/// * Bandwidth in the top quartile: use `AccP` unless `MeasureAccP` is
///   saturated (then no prefetches).
/// * Bandwidth in the second quartile: use `AccP` if `MeasureCovP` is
///   saturated (i.e. `CovP` is known-bad), `CovP` otherwise.
/// * Bandwidth below 50 %: use `CovP`; if `MeasureCovP` is saturated the
///   prefetches are filled at low priority to bound pollution.
///
/// # Example
///
/// ```
/// use dspatch::{select_pattern, PatternChoice, SaturatingCounter, SelectionPolicy};
/// use dspatch_types::BandwidthQuartile;
///
/// let fresh = SaturatingCounter::two_bit();
/// let choice = select_pattern(
///     BandwidthQuartile::Q0,
///     fresh,
///     fresh,
///     SelectionPolicy::Full,
/// );
/// assert_eq!(choice, PatternChoice::Coverage { low_priority: false });
/// ```
pub fn select_pattern(
    bandwidth: BandwidthQuartile,
    measure_covp: SaturatingCounter,
    measure_accp: SaturatingCounter,
    policy: SelectionPolicy,
) -> PatternChoice {
    match policy {
        SelectionPolicy::Full => {
            if bandwidth.is_high() {
                if measure_accp.is_saturated() {
                    PatternChoice::NoPrefetch
                } else {
                    PatternChoice::Accuracy
                }
            } else if bandwidth.is_above_half() {
                if measure_covp.is_saturated() {
                    PatternChoice::Accuracy
                } else {
                    PatternChoice::Coverage {
                        low_priority: false,
                    }
                }
            } else {
                PatternChoice::Coverage {
                    low_priority: measure_covp.is_saturated(),
                }
            }
        }
        SelectionPolicy::AlwaysCovP => PatternChoice::Coverage {
            low_priority: measure_covp.is_saturated() && !bandwidth.is_above_half(),
        },
        SelectionPolicy::ModCovP => {
            if bandwidth.is_high() {
                PatternChoice::NoPrefetch
            } else if bandwidth.is_above_half() {
                if measure_covp.is_saturated() {
                    PatternChoice::NoPrefetch
                } else {
                    PatternChoice::Coverage {
                        low_priority: false,
                    }
                }
            } else {
                PatternChoice::Coverage {
                    low_priority: measure_covp.is_saturated(),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn saturated() -> SaturatingCounter {
        let mut c = SaturatingCounter::two_bit();
        for _ in 0..3 {
            c.increment();
        }
        c
    }

    fn fresh() -> SaturatingCounter {
        SaturatingCounter::two_bit()
    }

    #[test]
    fn high_bandwidth_uses_accp_when_it_is_good() {
        let c = select_pattern(
            BandwidthQuartile::Q3,
            fresh(),
            fresh(),
            SelectionPolicy::Full,
        );
        assert_eq!(c, PatternChoice::Accuracy);
    }

    #[test]
    fn high_bandwidth_throttles_when_accp_is_bad() {
        let c = select_pattern(
            BandwidthQuartile::Q3,
            fresh(),
            saturated(),
            SelectionPolicy::Full,
        );
        assert_eq!(c, PatternChoice::NoPrefetch);
        assert!(!c.prefetches());
    }

    #[test]
    fn mid_bandwidth_prefers_covp_unless_it_is_bad() {
        let good = select_pattern(
            BandwidthQuartile::Q2,
            fresh(),
            fresh(),
            SelectionPolicy::Full,
        );
        assert_eq!(
            good,
            PatternChoice::Coverage {
                low_priority: false
            }
        );
        let bad = select_pattern(
            BandwidthQuartile::Q2,
            saturated(),
            fresh(),
            SelectionPolicy::Full,
        );
        assert_eq!(bad, PatternChoice::Accuracy);
    }

    #[test]
    fn low_bandwidth_always_uses_covp_with_priority_demotion() {
        for bw in [BandwidthQuartile::Q0, BandwidthQuartile::Q1] {
            let good = select_pattern(bw, fresh(), fresh(), SelectionPolicy::Full);
            assert_eq!(
                good,
                PatternChoice::Coverage {
                    low_priority: false
                }
            );
            let bad = select_pattern(bw, saturated(), fresh(), SelectionPolicy::Full);
            assert_eq!(bad, PatternChoice::Coverage { low_priority: true });
        }
    }

    #[test]
    fn always_covp_never_uses_accp_or_throttles() {
        for bw in BandwidthQuartile::ALL {
            for cov in [fresh(), saturated()] {
                let c = select_pattern(bw, cov, saturated(), SelectionPolicy::AlwaysCovP);
                assert!(
                    matches!(c, PatternChoice::Coverage { .. }),
                    "got {c} at {bw}"
                );
            }
        }
    }

    #[test]
    fn mod_covp_throttles_at_high_bandwidth_but_never_uses_accp() {
        assert_eq!(
            select_pattern(
                BandwidthQuartile::Q3,
                fresh(),
                fresh(),
                SelectionPolicy::ModCovP
            ),
            PatternChoice::NoPrefetch
        );
        assert_eq!(
            select_pattern(
                BandwidthQuartile::Q2,
                saturated(),
                fresh(),
                SelectionPolicy::ModCovP
            ),
            PatternChoice::NoPrefetch
        );
        assert_eq!(
            select_pattern(
                BandwidthQuartile::Q0,
                fresh(),
                fresh(),
                SelectionPolicy::ModCovP
            ),
            PatternChoice::Coverage {
                low_priority: false
            }
        );
    }

    #[test]
    fn display_names_are_distinct() {
        let names: Vec<String> = [
            PatternChoice::Coverage {
                low_priority: false,
            },
            PatternChoice::Coverage { low_priority: true },
            PatternChoice::Accuracy,
            PatternChoice::NoPrefetch,
        ]
        .iter()
        .map(|c| c.to_string())
        .collect();
        for (i, a) in names.iter().enumerate() {
            for b in names.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }
}
