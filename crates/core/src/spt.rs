//! The Signature Prediction Table (SPT).
//!
//! The SPT is a 256-entry, tagless, direct-mapped table indexed by a
//! folded-XOR hash of the trigger PC (paper, Section 3.4). Each entry stores
//! the two modulated, anchored, 128 B-granularity bit-patterns (`CovP`,
//! `AccP`) along with the per-2 KB-segment `MeasureCovP`, `MeasureAccP` and
//! `OrCount` saturating counters (Table 1: 76 bits per entry).

use crate::config::DsPatchConfig;
use crate::counters::SaturatingCounter;
use crate::measure::PredictionQuality;
use crate::pattern::{CompressedPattern, SpatialPattern, COMPRESSED_BITS};
use crate::selection::{select_pattern, PatternChoice};
use dspatch_types::snapshot::{SnapshotError, SnapshotState, StateReader, StateWriter};
use dspatch_types::{BandwidthQuartile, Pc};

/// Number of 2 KB halves of an (anchored) 4 KB pattern.
pub const PATTERN_HALVES: usize = 2;
/// Compressed blocks per 2 KB half (16).
pub const BLOCKS_PER_HALF: usize = COMPRESSED_BITS / PATTERN_HALVES;

/// A prediction produced by one SPT entry for one trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SptPrediction {
    /// Anchored line-granularity pattern to prefetch (bit 0 = the trigger
    /// line itself).
    pub anchored: SpatialPattern,
    /// Whether the prefetches should be filled at low replacement priority.
    pub low_priority: bool,
    /// Which pattern was chosen for the first (trigger-relative) half; used
    /// for statistics and the Figure 19 ablation.
    pub choice: PatternChoice,
}

/// One SPT entry: the learnt state for one trigger-PC signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SptEntry {
    /// Coverage-biased pattern (anchored, 128 B granularity, 32 bits).
    pub cov_p: CompressedPattern,
    /// Accuracy-biased pattern (anchored, 128 B granularity, 32 bits).
    pub acc_p: CompressedPattern,
    /// Goodness of `CovP`, one 2-bit counter per 2 KB half.
    pub measure_covp: [SaturatingCounter; PATTERN_HALVES],
    /// Goodness of `AccP`, one 2-bit counter per 2 KB half.
    pub measure_accp: [SaturatingCounter; PATTERN_HALVES],
    /// OR-modulation budget of `CovP`, one 2-bit counter per 2 KB half.
    pub or_count: [SaturatingCounter; PATTERN_HALVES],
}

impl Default for SptEntry {
    fn default() -> Self {
        Self {
            cov_p: CompressedPattern::EMPTY,
            acc_p: CompressedPattern::EMPTY,
            measure_covp: [SaturatingCounter::two_bit(); PATTERN_HALVES],
            measure_accp: [SaturatingCounter::two_bit(); PATTERN_HALVES],
            or_count: [SaturatingCounter::two_bit(); PATTERN_HALVES],
        }
    }
}

impl SptEntry {
    /// Returns whether the entry has learnt nothing yet.
    pub fn is_cold(&self) -> bool {
        self.cov_p.is_empty() && self.acc_p.is_empty()
    }

    fn half(pattern: CompressedPattern, half: usize) -> u16 {
        let (lo, hi) = pattern.halves();
        if half == 0 {
            lo
        } else {
            hi
        }
    }

    fn set_half(pattern: &mut CompressedPattern, half: usize, bits: u16) {
        let (mut lo, mut hi) = pattern.halves();
        if half == 0 {
            lo = bits;
        } else {
            hi = bits;
        }
        *pattern = CompressedPattern::from_halves(lo, hi);
    }

    /// Produces a prediction for a trigger whose anchored view spans
    /// `halves` 2 KB halves (2 for a first-segment trigger, 1 for a
    /// second-segment trigger; paper Section 3.7).
    ///
    /// Returns `None` when the selection logic decides not to prefetch or
    /// when the selected patterns are empty.
    pub fn predict(
        &self,
        bandwidth: BandwidthQuartile,
        config: &DsPatchConfig,
        halves: usize,
    ) -> Option<SptPrediction> {
        let halves = halves.clamp(1, PATTERN_HALVES);
        let mut anchored = SpatialPattern::EMPTY;
        let mut low_priority = false;
        let mut first_choice = PatternChoice::NoPrefetch;
        for h in 0..halves {
            let choice = select_pattern(
                bandwidth,
                self.measure_covp[h],
                self.measure_accp[h],
                config.policy,
            );
            if h == 0 {
                first_choice = choice;
            }
            let bits = match choice {
                PatternChoice::Coverage { low_priority: lp } => {
                    low_priority |= lp;
                    Self::half(self.cov_p, h)
                }
                PatternChoice::Accuracy => Self::half(self.acc_p, h),
                PatternChoice::NoPrefetch => continue,
            };
            let compressed_half =
                CompressedPattern::from_bits(u32::from(bits) << (h * BLOCKS_PER_HALF));
            anchored = anchored | compressed_half.decompress();
        }
        if anchored.is_empty() {
            return None;
        }
        Some(SptPrediction {
            anchored,
            low_priority,
            choice: first_choice,
        })
    }

    /// Trains the entry with the anchored program pattern observed for one
    /// evicted page, limited to the `halves` the trigger was allowed to
    /// predict. `bandwidth` is the current utilization quartile, used by the
    /// `CovP` reset rule.
    pub fn train(
        &mut self,
        program: CompressedPattern,
        halves: usize,
        bandwidth: BandwidthQuartile,
        config: &DsPatchConfig,
    ) {
        let halves = halves.clamp(1, PATTERN_HALVES);
        for h in 0..halves {
            let prog = Self::half(program, h);
            let cov = Self::half(self.cov_p, h);
            let acc = Self::half(self.acc_p, h);
            if prog == 0 {
                // Nothing was observed in this half; skip so that cold halves
                // do not poison the counters.
                continue;
            }

            let cov_quality = PredictionQuality::from_counts(
                (cov & prog).count_ones(),
                cov.count_ones(),
                prog.count_ones(),
            );
            let acc_quality = PredictionQuality::from_counts(
                (acc & prog).count_ones(),
                acc.count_ones(),
                prog.count_ones(),
            );

            // MeasureCovP: incremented when CovP lacks accuracy or coverage
            // (Section 3.6). There is no decrement; the counter is cleared
            // only when CovP is relearnt.
            if cov == 0
                || cov_quality.accuracy_below(config.accuracy_threshold)
                || cov_quality.coverage_below(config.coverage_threshold)
            {
                self.measure_covp[h].increment();
            }

            // MeasureAccP: incremented when AccP accuracy < 50 %, decremented
            // otherwise.
            if acc == 0 || acc_quality.accuracy_below(BandwidthQuartile::Q2) {
                self.measure_accp[h].increment();
            } else {
                self.measure_accp[h].decrement();
            }

            // CovP update: relearn from scratch when it has gone stale and
            // either bandwidth is precious or coverage has collapsed;
            // otherwise OR in the new pattern, bounded by OrCount.
            let new_cov;
            let relearn = self.measure_covp[h].is_saturated()
                && (bandwidth.is_high() || cov_quality.coverage_below(BandwidthQuartile::Q2));
            if cov == 0 || relearn {
                new_cov = prog;
                self.or_count[h].reset();
                self.measure_covp[h].reset();
            } else if self.or_count[h].value() < config.or_limit {
                let merged = cov | prog;
                if merged != cov {
                    self.or_count[h].increment();
                }
                new_cov = merged;
            } else {
                new_cov = cov;
            }
            Self::set_half(&mut self.cov_p, h, new_cov);

            // AccP update: replaced (not recursively ANDed) by program AND CovP.
            Self::set_half(&mut self.acc_p, h, prog & new_cov);
        }
    }

    /// Storage bits of one entry, matching Table 1's 76 bits for the default
    /// configuration.
    pub fn storage_bits(&self) -> u64 {
        let cov_bits = 32;
        let acc_bits = 32;
        let counters: u64 = self
            .measure_covp
            .iter()
            .chain(self.measure_accp.iter())
            .chain(self.or_count.iter())
            .map(|c| c.storage_bits())
            .sum();
        cov_bits + acc_bits + counters
    }
}

/// The Signature Prediction Table.
///
/// # Example
///
/// ```
/// use dspatch::{DsPatchConfig, SignaturePredictionTable, SpatialPattern};
/// use dspatch_types::{BandwidthQuartile, Pc};
///
/// let config = DsPatchConfig::default();
/// let mut spt = SignaturePredictionTable::new(&config);
/// let pc = Pc::new(0x401000);
/// let mut program = SpatialPattern::default();
/// for off in [0, 2, 4, 6] {
///     program.set(off);
/// }
/// spt.train(pc, program.compress(), 2, BandwidthQuartile::Q0, &config);
/// let prediction = spt
///     .predict(pc, BandwidthQuartile::Q0, &config, 2)
///     .expect("trained signature should predict");
/// assert!(prediction.anchored.popcount() >= 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignaturePredictionTable {
    entries: Vec<SptEntry>,
    signature_bits: u32,
}

impl SignaturePredictionTable {
    /// Creates an SPT sized per `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`DsPatchConfig::validate`].
    pub fn new(config: &DsPatchConfig) -> Self {
        config
            .validate()
            .expect("invalid DSPatch configuration passed to SignaturePredictionTable::new");
        Self {
            entries: vec![SptEntry::default(); config.spt_entries],
            signature_bits: config.signature_bits,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns whether the table has zero entries (never true for a
    /// validated configuration).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maps a trigger PC to its direct-mapped, tagless index.
    #[inline]
    pub fn index_of(&self, pc: Pc) -> usize {
        // Every paper configuration sizes the table as a power of two;
        // masking avoids a hardware divide on the train/predict path.
        let folded = pc.folded_xor(self.signature_bits) as usize;
        let len = self.entries.len();
        if len.is_power_of_two() {
            folded & (len - 1)
        } else {
            folded % len
        }
    }

    /// Returns the entry a PC maps to.
    pub fn entry(&self, pc: Pc) -> &SptEntry {
        &self.entries[self.index_of(pc)]
    }

    /// Returns the entry a PC maps to, mutably.
    pub fn entry_mut(&mut self, pc: Pc) -> &mut SptEntry {
        let index = self.index_of(pc);
        &mut self.entries[index]
    }

    /// Predicts for a trigger from `pc` (see [`SptEntry::predict`]).
    pub fn predict(
        &self,
        pc: Pc,
        bandwidth: BandwidthQuartile,
        config: &DsPatchConfig,
        halves: usize,
    ) -> Option<SptPrediction> {
        self.entry(pc).predict(bandwidth, config, halves)
    }

    /// Trains the entry for `pc` with an anchored program pattern (see
    /// [`SptEntry::train`]).
    pub fn train(
        &mut self,
        pc: Pc,
        program: CompressedPattern,
        halves: usize,
        bandwidth: BandwidthQuartile,
        config: &DsPatchConfig,
    ) {
        self.entry_mut(pc).train(program, halves, bandwidth, config);
    }

    /// Total storage bits of the table.
    pub fn storage_bits(&self) -> u64 {
        self.entries.iter().map(SptEntry::storage_bits).sum()
    }

    /// Fraction of entries that have learnt at least one pattern.
    pub fn occupancy(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        let warm = self.entries.iter().filter(|e| !e.is_cold()).count();
        warm as f64 / self.entries.len() as f64
    }
}

fn save_counters(counters: &[SaturatingCounter; PATTERN_HALVES], writer: &mut StateWriter) {
    for counter in counters {
        writer.put_u8(counter.max());
        writer.put_u8(counter.value());
    }
}

fn load_counters(
    counters: &mut [SaturatingCounter; PATTERN_HALVES],
    reader: &mut StateReader<'_>,
) -> Result<(), SnapshotError> {
    for counter in counters.iter_mut() {
        let max = reader.get_u8()?;
        let value = reader.get_u8()?;
        if max == 0 {
            return Err(SnapshotError::Invalid(
                "saturating counter maximum must be positive".to_owned(),
            ));
        }
        *counter = SaturatingCounter::with_value(max, value);
    }
    Ok(())
}

impl SnapshotState for SignaturePredictionTable {
    fn snapshot_tag(&self) -> &'static str {
        "spt"
    }

    fn save_state(&self, writer: &mut StateWriter) -> Result<(), SnapshotError> {
        writer.put_len(self.entries.len());
        for entry in &self.entries {
            writer.put_u32(entry.cov_p.bits());
            writer.put_u32(entry.acc_p.bits());
            save_counters(&entry.measure_covp, writer);
            save_counters(&entry.measure_accp, writer);
            save_counters(&entry.or_count, writer);
        }
        Ok(())
    }

    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let len = reader.get_len()?;
        if len != self.entries.len() {
            return Err(SnapshotError::Invalid(format!(
                "SPT length {} does not match configured {}",
                len,
                self.entries.len()
            )));
        }
        for entry in &mut self.entries {
            entry.cov_p = CompressedPattern::from_bits(reader.get_u32()?);
            entry.acc_p = CompressedPattern::from_bits(reader.get_u32()?);
            load_counters(&mut entry.measure_covp, reader)?;
            load_counters(&mut entry.measure_accp, reader)?;
            load_counters(&mut entry.or_count, reader)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> DsPatchConfig {
        DsPatchConfig::default()
    }

    fn dense_pattern() -> SpatialPattern {
        let mut p = SpatialPattern::default();
        for off in (0..16).step_by(2) {
            p.set(off);
        }
        p
    }

    #[test]
    fn cold_entry_does_not_predict() {
        let spt = SignaturePredictionTable::new(&config());
        assert!(spt
            .predict(Pc::new(0x1234), BandwidthQuartile::Q0, &config(), 2)
            .is_none());
    }

    #[test]
    fn training_then_prediction_reproduces_pattern() {
        let cfg = config();
        let mut spt = SignaturePredictionTable::new(&cfg);
        let pc = Pc::new(0xcafe);
        let program = dense_pattern().compress();
        spt.train(pc, program, 2, BandwidthQuartile::Q0, &cfg);
        let pred = spt
            .predict(pc, BandwidthQuartile::Q0, &cfg, 2)
            .expect("prediction");
        // Every trained block must be covered by the prediction.
        let predicted_compressed = pred.anchored.compress();
        assert_eq!(predicted_compressed.bits() & program.bits(), program.bits());
        assert!(matches!(pred.choice, PatternChoice::Coverage { .. }));
    }

    #[test]
    fn covp_grows_by_or_and_accp_shrinks_by_and() {
        let cfg = config();
        let mut entry = SptEntry::default();
        let first = CompressedPattern::from_bits(0b0000_1111);
        let second = CompressedPattern::from_bits(0b1111_0000);
        entry.train(first, 1, BandwidthQuartile::Q0, &cfg);
        entry.train(second, 1, BandwidthQuartile::Q0, &cfg);
        let (cov_lo, _) = entry.cov_p.halves();
        let (acc_lo, _) = entry.acc_p.halves();
        assert_eq!(cov_lo, 0b1111_1111, "OR accumulates both observations");
        assert_eq!(
            acc_lo, 0b1111_0000,
            "AND keeps only the recurring/current bits"
        );
    }

    #[test]
    fn or_budget_limits_growth() {
        let cfg = config();
        let mut entry = SptEntry::default();
        // Patterns that keep adding one new block each time. After the first
        // training (relearn) plus `or_limit` ORs, further bits are ignored.
        // Keep accuracy/coverage reasonable so MeasureCovP does not trigger a
        // relearn: each new pattern repeats all previously seen blocks.
        let mut bits: u16 = 0b1;
        let mut trained = vec![bits];
        for i in 1..8 {
            bits |= 1 << i;
            trained.push(bits);
        }
        for &t in &trained {
            entry.train(
                CompressedPattern::from_bits(u32::from(t)),
                1,
                BandwidthQuartile::Q0,
                &cfg,
            );
        }
        let (cov_lo, _) = entry.cov_p.halves();
        // First training seeds one bit, then at most `or_limit` ORs each add one bit.
        assert!(cov_lo.count_ones() <= 1 + u32::from(cfg.or_limit));
    }

    #[test]
    fn stale_covp_is_relearnt_under_bandwidth_pressure() {
        let cfg = config();
        let mut entry = SptEntry::default();
        let learnt = CompressedPattern::from_bits(0xFFFF);
        entry.train(learnt, 1, BandwidthQuartile::Q0, &cfg);
        // The program now accesses a completely different, tiny footprint:
        // CovP accuracy collapses, MeasureCovP saturates, and under high
        // bandwidth utilization CovP is reset to the new program pattern.
        let new_program = CompressedPattern::from_bits(0b1);
        for _ in 0..8 {
            entry.train(new_program, 1, BandwidthQuartile::Q3, &cfg);
        }
        let (cov_lo, _) = entry.cov_p.halves();
        assert_eq!(cov_lo, 0b1, "CovP must eventually be relearnt from scratch");
    }

    #[test]
    fn accp_measure_saturates_on_persistent_inaccuracy() {
        let cfg = config();
        let mut entry = SptEntry::default();
        // Alternate between two disjoint patterns so AccP (program AND CovP)
        // keeps missing.
        let a = CompressedPattern::from_bits(0x00FF);
        let b = CompressedPattern::from_bits(0xFF00);
        for _ in 0..6 {
            entry.train(a, 1, BandwidthQuartile::Q0, &cfg);
            entry.train(b, 1, BandwidthQuartile::Q0, &cfg);
        }
        assert!(entry.measure_accp[0].value() > 0);
    }

    #[test]
    fn second_segment_trigger_predicts_single_half() {
        let cfg = config();
        let mut entry = SptEntry::default();
        let full = CompressedPattern::from_bits(0xFFFF_FFFF);
        entry.train(full, 2, BandwidthQuartile::Q0, &cfg);
        let one = entry
            .predict(BandwidthQuartile::Q0, &cfg, 1)
            .expect("prediction");
        let two = entry
            .predict(BandwidthQuartile::Q0, &cfg, 2)
            .expect("prediction");
        assert!(one.anchored.popcount() <= 32);
        assert!(two.anchored.popcount() > one.anchored.popcount());
    }

    #[test]
    fn high_bandwidth_with_bad_accp_suppresses_prefetching() {
        let cfg = config();
        let mut entry = SptEntry::default();
        entry.train(
            CompressedPattern::from_bits(0xF),
            1,
            BandwidthQuartile::Q0,
            &cfg,
        );
        for h in 0..PATTERN_HALVES {
            for _ in 0..4 {
                entry.measure_accp[h].increment();
            }
        }
        assert!(entry.predict(BandwidthQuartile::Q3, &cfg, 2).is_none());
    }

    #[test]
    fn entry_storage_matches_table1() {
        assert_eq!(SptEntry::default().storage_bits(), 76);
        let cfg = config();
        let spt = SignaturePredictionTable::new(&cfg);
        assert_eq!(spt.storage_bits(), 76 * 256);
    }

    #[test]
    fn index_is_stable_and_in_range() {
        let cfg = config();
        let spt = SignaturePredictionTable::new(&cfg);
        for pc in (0..10_000u64).step_by(97) {
            let idx = spt.index_of(Pc::new(pc));
            assert!(idx < spt.len());
            assert_eq!(
                idx,
                spt.index_of(Pc::new(pc)),
                "index must be deterministic"
            );
        }
    }

    #[test]
    fn occupancy_grows_with_training() {
        let cfg = config();
        let mut spt = SignaturePredictionTable::new(&cfg);
        assert_eq!(spt.occupancy(), 0.0);
        for pc in 0..64u64 {
            spt.train(
                Pc::new(pc * 1024 + 7),
                CompressedPattern::from_bits(0xF),
                2,
                BandwidthQuartile::Q0,
                &cfg,
            );
        }
        assert!(spt.occupancy() > 0.0);
    }
}
