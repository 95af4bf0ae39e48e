//! Configuration of the DSPatch prefetcher.

use dspatch_types::BandwidthQuartile;

/// Which bit-pattern the run-time selection logic is allowed to use.
///
/// [`SelectionPolicy::Full`] is the paper's DSPatch; the other two variants
/// reproduce the ablation of Section 5.5 / Figure 19.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SelectionPolicy {
    /// The full algorithm of Figure 10: choose between `CovP`, `AccP` and
    /// no-prefetch based on bandwidth utilization and the measure counters.
    #[default]
    Full,
    /// Always prefetch with the coverage-biased pattern, regardless of
    /// bandwidth utilization ("AlwaysCovP" in Figure 19).
    AlwaysCovP,
    /// Use only the coverage-biased pattern but throttle it down (issue no
    /// prefetches) when bandwidth utilization is high ("ModCovP" in
    /// Figure 19).
    ModCovP,
}

/// Configuration of a [`DsPatch`](crate::DsPatch) instance.
///
/// The defaults reproduce the configuration the paper evaluates and the
/// storage budget of Table 1 (3.6 KB).
///
/// # Example
///
/// ```
/// use dspatch::{DsPatchConfig, SelectionPolicy};
/// let cfg = DsPatchConfig::default();
/// assert_eq!(cfg.page_buffer_entries, 64);
/// assert_eq!(cfg.spt_entries, 256);
/// let ablation = DsPatchConfig {
///     policy: SelectionPolicy::AlwaysCovP,
///     ..DsPatchConfig::default()
/// };
/// assert_ne!(ablation.policy, cfg.policy);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsPatchConfig {
    /// Number of Page Buffer entries (paper: 64, tracking the 64
    /// most-recently-accessed 4 KB pages).
    pub page_buffer_entries: usize,
    /// Number of Signature Prediction Table entries (paper: 256, tagless,
    /// direct-mapped).
    pub spt_entries: usize,
    /// Width of the folded-XOR PC hash used both to index the SPT and as the
    /// compressed trigger-PC field stored in the Page Buffer (paper: 8 bits).
    pub signature_bits: u32,
    /// Maximum number of OR modulations applied to `CovP` before further ORs
    /// are suppressed (paper: 3, tracked with a 2-bit `OrCount`).
    pub or_limit: u8,
    /// Accuracy threshold `AccThr` below which `MeasureCovP` is incremented
    /// (paper: the 50 % quartile).
    pub accuracy_threshold: BandwidthQuartile,
    /// Coverage threshold `CovThr` below which `MeasureCovP` is incremented
    /// (paper: the 50 % quartile).
    pub coverage_threshold: BandwidthQuartile,
    /// Run-time pattern selection policy (Figure 10, or one of the
    /// Figure 19 ablation variants).
    pub policy: SelectionPolicy,
    /// Physical page number width assumed for storage accounting (Table 1
    /// uses 36 bits).
    pub page_number_bits: u32,
    /// Page-offset width of a trigger stored in a Page Buffer entry (6 bits
    /// for 64 lines).
    pub trigger_offset_bits: u32,
    /// Replacement/valid metadata bits per Page Buffer entry. The explicit
    /// fields of Table 1 (page number 36 + pattern 64 + 2×[PC 8 + offset 6])
    /// sum to 128 bits, while the table states 158 bits per entry and a
    /// 10 112-bit PB total; the remaining 30 bits cover valid bits, LRU state
    /// and trigger-valid flags. We model them explicitly so the storage
    /// accounting reproduces the published 3.6 KB figure.
    pub pb_metadata_bits: u32,
}

impl Default for DsPatchConfig {
    fn default() -> Self {
        Self {
            page_buffer_entries: 64,
            spt_entries: 256,
            signature_bits: 8,
            or_limit: 3,
            accuracy_threshold: BandwidthQuartile::Q2,
            coverage_threshold: BandwidthQuartile::Q2,
            policy: SelectionPolicy::Full,
            page_number_bits: 36,
            trigger_offset_bits: 6,
            pb_metadata_bits: 30,
        }
    }
}

impl DsPatchConfig {
    /// Validates the configuration, returning a description of the first
    /// problem found.
    ///
    /// # Errors
    ///
    /// Returns an error string if a structural parameter is zero, the SPT
    /// entry count is not a power of two (the tagless direct-mapped indexing
    /// requires one), or the signature is wider than 64 bits.
    pub fn validate(&self) -> Result<(), String> {
        if self.page_buffer_entries == 0 {
            return Err("page buffer must have at least one entry".to_owned());
        }
        if self.spt_entries == 0 {
            return Err("SPT must have at least one entry".to_owned());
        }
        if !self.spt_entries.is_power_of_two() {
            return Err(format!(
                "SPT entry count must be a power of two, got {}",
                self.spt_entries
            ));
        }
        if self.signature_bits == 0 || self.signature_bits > 64 {
            return Err(format!(
                "signature width must be in 1..=64 bits, got {}",
                self.signature_bits
            ));
        }
        if self.or_limit == 0 {
            return Err("OR limit must be at least one".to_owned());
        }
        Ok(())
    }

    /// Returns the configuration of the `AlwaysCovP` ablation variant
    /// (Figure 19), keeping every other parameter equal to `self`.
    pub fn always_covp(mut self) -> Self {
        self.policy = SelectionPolicy::AlwaysCovP;
        self
    }

    /// Returns the configuration of the `ModCovP` ablation variant
    /// (Figure 19), keeping every other parameter equal to `self`.
    pub fn mod_covp(mut self) -> Self {
        self.policy = SelectionPolicy::ModCovP;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_parameters() {
        let cfg = DsPatchConfig::default();
        assert_eq!(cfg.page_buffer_entries, 64);
        assert_eq!(cfg.spt_entries, 256);
        assert_eq!(cfg.signature_bits, 8);
        assert_eq!(cfg.or_limit, 3);
        assert_eq!(cfg.accuracy_threshold, BandwidthQuartile::Q2);
        assert_eq!(cfg.coverage_threshold, BandwidthQuartile::Q2);
        assert_eq!(cfg.policy, SelectionPolicy::Full);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let mut cfg = DsPatchConfig {
            spt_entries: 0,
            ..DsPatchConfig::default()
        };
        assert!(cfg.validate().is_err());
        cfg.spt_entries = 100;
        assert!(cfg.validate().is_err(), "non power of two must be rejected");
        cfg.spt_entries = 256;
        cfg.signature_bits = 0;
        assert!(cfg.validate().is_err());
        cfg.signature_bits = 65;
        assert!(cfg.validate().is_err());
        cfg.signature_bits = 8;
        cfg.page_buffer_entries = 0;
        assert!(cfg.validate().is_err());
        cfg.page_buffer_entries = 64;
        cfg.or_limit = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn ablation_builders_change_only_policy() {
        let base = DsPatchConfig::default();
        let a = base.always_covp();
        let m = base.mod_covp();
        assert_eq!(a.policy, SelectionPolicy::AlwaysCovP);
        assert_eq!(m.policy, SelectionPolicy::ModCovP);
        assert_eq!(a.spt_entries, base.spt_entries);
        assert_eq!(m.page_buffer_entries, base.page_buffer_entries);
    }
}
