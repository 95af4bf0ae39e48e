//! Hardware storage accounting (paper, Table 1).
//!
//! Table 1 of the paper breaks DSPatch's 3.6 KB budget down as:
//!
//! | Structure | Entry contents | Entries | Bits |
//! |---|---|---|---|
//! | PB  | page number (36) + bit-pattern (64) + 2 × [PC (8) + offset (6)] = 158 | 64 | 10 112 |
//! | SPT | CovP (32) + 2 × MeasureCovP (2) + 2 × OrCount (2) + AccP (32) + 2 × MeasureAccP (2) = 76 | 256 | 19 456 |
//!
//! [`StorageBreakdown`] recomputes those numbers from a [`DsPatchConfig`]
//! so that configuration sweeps keep the storage column honest.

use crate::config::DsPatchConfig;
use crate::page_buffer::SEGMENTS_PER_PAGE;
use crate::spt::PATTERN_HALVES;
use dspatch_types::LINES_PER_PAGE;
use std::fmt;

/// Storage of the two DSPatch structures, in bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StorageBreakdown {
    /// Bits of one Page Buffer entry.
    pub pb_entry_bits: u64,
    /// Number of Page Buffer entries.
    pub pb_entries: u64,
    /// Bits of one Signature Prediction Table entry.
    pub spt_entry_bits: u64,
    /// Number of SPT entries.
    pub spt_entries: u64,
}

impl StorageBreakdown {
    /// Computes the breakdown for a configuration.
    pub fn for_config(config: &DsPatchConfig) -> Self {
        let pattern_bits = LINES_PER_PAGE as u64; // 64-bit raw pattern in the PB
        let trigger_bits = SEGMENTS_PER_PAGE as u64
            * (u64::from(config.signature_bits) + u64::from(config.trigger_offset_bits));
        let pb_entry_bits = u64::from(config.page_number_bits)
            + pattern_bits
            + trigger_bits
            + u64::from(config.pb_metadata_bits);

        let compressed_bits = (LINES_PER_PAGE / 2) as u64; // 32-bit CovP / AccP
        let counter_bits = 2u64;
        let spt_entry_bits = compressed_bits * 2 // CovP + AccP
            + PATTERN_HALVES as u64 * counter_bits * 3; // MeasureCovP, MeasureAccP, OrCount

        Self {
            pb_entry_bits,
            pb_entries: config.page_buffer_entries as u64,
            spt_entry_bits,
            spt_entries: config.spt_entries as u64,
        }
    }

    /// Total Page Buffer bits.
    pub fn pb_bits(&self) -> u64 {
        self.pb_entry_bits * self.pb_entries
    }

    /// Total Signature Prediction Table bits.
    pub fn spt_bits(&self) -> u64 {
        self.spt_entry_bits * self.spt_entries
    }

    /// Total bits of both structures.
    pub fn total_bits(&self) -> u64 {
        self.pb_bits() + self.spt_bits()
    }

    /// Total storage in kibibytes.
    pub fn total_kib(&self) -> f64 {
        self.total_bits() as f64 / 8.0 / 1024.0
    }
}

impl fmt::Display for StorageBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "PB : {} entries x {} bits = {} bits",
            self.pb_entries,
            self.pb_entry_bits,
            self.pb_bits()
        )?;
        writeln!(
            f,
            "SPT: {} entries x {} bits = {} bits",
            self.spt_entries,
            self.spt_entry_bits,
            self.spt_bits()
        )?;
        write!(
            f,
            "Total: {} bits = {:.2} KB",
            self.total_bits(),
            self.total_kib()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_reproduces_table1() {
        let b = StorageBreakdown::for_config(&DsPatchConfig::default());
        assert_eq!(b.pb_entry_bits, 158);
        assert_eq!(b.pb_bits(), 10_112);
        assert_eq!(b.spt_entry_bits, 76);
        assert_eq!(b.spt_bits(), 19_456);
        assert_eq!(b.total_bits(), 29_568);
        let kb = b.total_kib();
        assert!((3.5..3.7).contains(&kb), "expected ~3.6 KB, got {kb}");
    }

    #[test]
    fn storage_scales_with_entry_counts() {
        let small = StorageBreakdown::for_config(&DsPatchConfig {
            spt_entries: 128,
            page_buffer_entries: 32,
            ..DsPatchConfig::default()
        });
        let base = StorageBreakdown::for_config(&DsPatchConfig::default());
        assert_eq!(small.spt_bits() * 2, base.spt_bits());
        assert_eq!(small.pb_bits() * 2, base.pb_bits());
    }

    #[test]
    fn display_mentions_both_structures() {
        let text = StorageBreakdown::for_config(&DsPatchConfig::default()).to_string();
        assert!(text.contains("PB"));
        assert!(text.contains("SPT"));
        assert!(text.contains("KB"));
    }
}
