//! Best Offset Prefetcher (BOP).
//!
//! BOP (Michaud, HPCA 2016) searches for the single best *global* cache-line
//! offset `d` such that, for recent accesses to line `X`, line `X - d` was
//! also accessed recently — meaning a prefetch of `X` issued at `X - d` would
//! have been timely. It evaluates candidate offsets round-robin against a
//! small Recent Requests (RR) table, scores them over a bounded learning
//! phase, and then prefetches `X + best_offset` (times the degree) for every
//! access.
//!
//! The bandwidth-enhanced **eBOP** variant (paper, Section 2.2) keeps a
//! default degree of one but raises it to two and four when more than 25 %
//! and 50 % of the DRAM bandwidth is unused.

use dspatch_types::snapshot::{SnapshotError, SnapshotState, StateReader, StateWriter};
use dspatch_types::{
    BandwidthQuartile, FillLevel, LineAddr, MemoryAccess, PrefetchContext, PrefetchRequest,
    PrefetchSink, Prefetcher,
};

/// Configuration of the [`BopPrefetcher`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BopConfig {
    /// Recent-requests table entries (paper Table 3: 256).
    pub rr_entries: usize,
    /// Offsets evaluated during learning. The paper notes 126 possible
    /// offsets (-63..=63) in a 4 KB page; the default candidate list covers
    /// that range.
    pub candidate_offsets: Vec<i64>,
    /// Maximum number of learning rounds per phase (paper Table 3: 100).
    pub max_rounds: u32,
    /// Score at which learning terminates early (paper Table 3: 31).
    pub max_score: u32,
    /// Minimum score for the winning offset to be used at all (paper
    /// Table 3: BadScore = 1).
    pub bad_score: u32,
    /// Base prefetch degree (paper: 2 for single-thread runs, 1 for
    /// multi-programmed runs).
    pub degree: usize,
    /// When set, the degree scales with DRAM bandwidth headroom (eBOP).
    pub bandwidth_enhanced: bool,
}

impl Default for BopConfig {
    fn default() -> Self {
        Self {
            rr_entries: 256,
            candidate_offsets: (1..=63).flat_map(|d| [d, -d]).collect(),
            max_rounds: 100,
            max_score: 31,
            bad_score: 1,
            degree: 2,
            bandwidth_enhanced: false,
        }
    }
}

impl BopConfig {
    /// The eBOP configuration: degree 1 by default, scaled up with
    /// bandwidth headroom.
    pub fn enhanced() -> Self {
        Self {
            degree: 1,
            bandwidth_enhanced: true,
            ..Self::default()
        }
    }

    /// Multi-programmed configuration (degree 1, per Table 3).
    pub fn multi_programmed() -> Self {
        Self {
            degree: 1,
            ..Self::default()
        }
    }
}

/// Per-run statistics (observability only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BopStats {
    /// Accesses observed.
    pub accesses: u64,
    /// Prefetch requests issued.
    pub prefetches: u64,
    /// Completed learning phases.
    pub phases: u64,
    /// Phases that ended with no offset good enough to prefetch with.
    pub disabled_phases: u64,
}

/// The Best Offset Prefetcher.
///
/// # Example
///
/// ```
/// use dspatch_prefetchers::{BopConfig, BopPrefetcher};
/// use dspatch_types::{AccessKind, Addr, MemoryAccess, Pc, PrefetchContext, Prefetcher};
///
/// let mut bop = BopPrefetcher::new(BopConfig::default());
/// let ctx = PrefetchContext::default();
/// let mut issued = 0;
/// // Alternating +1/+2 deltas: BOP discovers a global offset of 3 (or a
/// // multiple). One candidate offset is scored per access, so give the
/// // learning phase a few thousand accesses to converge.
/// for i in 0..8000u64 {
///     let line = (i / 2) * 3 + (i % 2);
///     let a = MemoryAccess::new(Pc::new(9), Addr::new(line * 64), AccessKind::Load);
///     issued += bop.collect_requests(&a, &ctx).len();
/// }
/// assert!(issued > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BopPrefetcher {
    config: BopConfig,
    rr_table: Vec<Option<LineAddr>>,
    scores: Vec<u32>,
    round: u32,
    candidate_index: usize,
    best_offset: Option<i64>,
    stats: BopStats,
    name: &'static str,
}

impl BopPrefetcher {
    /// Creates a BOP (or eBOP) instance.
    ///
    /// # Panics
    ///
    /// Panics if the RR table, candidate list or degree is empty/zero.
    pub fn new(config: BopConfig) -> Self {
        assert!(config.rr_entries > 0, "RR table must be non-empty");
        assert!(
            !config.candidate_offsets.is_empty(),
            "candidate offset list must be non-empty"
        );
        assert!(config.degree > 0, "prefetch degree must be positive");
        let name = if config.bandwidth_enhanced {
            "eBOP"
        } else {
            "BOP"
        };
        Self {
            rr_table: vec![None; config.rr_entries],
            scores: vec![0; config.candidate_offsets.len()],
            round: 0,
            candidate_index: 0,
            best_offset: None,
            stats: BopStats::default(),
            name,
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &BopConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &BopStats {
        &self.stats
    }

    /// The currently selected best offset, if learning has converged on one.
    pub fn best_offset(&self) -> Option<i64> {
        self.best_offset
    }

    fn rr_index(&self, line: LineAddr) -> usize {
        // Multiply-shift hash (high half) so that strided line addresses do
        // not collapse onto a few RR slots.
        let mixed = line.as_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((mixed >> 32) as usize) % self.rr_table.len()
    }

    fn rr_contains(&self, line: LineAddr) -> bool {
        self.rr_table[self.rr_index(line)] == Some(line)
    }

    fn rr_insert(&mut self, line: LineAddr) {
        let index = self.rr_index(line);
        self.rr_table[index] = Some(line);
    }

    fn finish_phase(&mut self) {
        self.stats.phases += 1;
        let (best_index, best_score) = self
            .scores
            .iter()
            .copied()
            .enumerate()
            .max_by_key(|&(_, s)| s)
            .expect("candidate list is non-empty");
        self.best_offset = if best_score > self.config.bad_score {
            Some(self.config.candidate_offsets[best_index])
        } else {
            self.stats.disabled_phases += 1;
            None
        };
        self.scores.iter_mut().for_each(|s| *s = 0);
        self.round = 0;
        self.candidate_index = 0;
    }

    fn learn(&mut self, line: LineAddr) {
        let offset = self.config.candidate_offsets[self.candidate_index];
        let test = line.offset_by(-offset);
        if self.rr_contains(test) {
            self.scores[self.candidate_index] += 1;
            if self.scores[self.candidate_index] >= self.config.max_score {
                self.finish_phase();
                return;
            }
        }
        self.candidate_index += 1;
        if self.candidate_index == self.config.candidate_offsets.len() {
            self.candidate_index = 0;
            self.round += 1;
            if self.round >= self.config.max_rounds {
                self.finish_phase();
            }
        }
    }

    fn effective_degree(&self, bandwidth: BandwidthQuartile) -> usize {
        if !self.config.bandwidth_enhanced {
            return self.config.degree;
        }
        // Headroom > 50 % (utilization below 50 %): degree 4.
        // Headroom > 25 % (utilization below 75 %): degree 2. Otherwise 1.
        match bandwidth {
            BandwidthQuartile::Q0 | BandwidthQuartile::Q1 => 4,
            BandwidthQuartile::Q2 => 2,
            BandwidthQuartile::Q3 => self.config.degree,
        }
    }
}

impl Prefetcher for BopPrefetcher {
    fn name(&self) -> &str {
        self.name
    }

    fn on_access(&mut self, access: &MemoryAccess, ctx: &PrefetchContext, out: &mut PrefetchSink) {
        self.stats.accesses += 1;
        let line = access.line();
        self.learn(line);
        self.rr_insert(line);
        let Some(offset) = self.best_offset else {
            return;
        };
        let degree = self.effective_degree(ctx.bandwidth);
        for k in 1..=degree as i64 {
            out.push(
                PrefetchRequest::new(line.offset_by(offset * k)).with_fill_level(FillLevel::L2),
            );
        }
        self.stats.prefetches += degree as u64;
    }

    fn storage_bits(&self) -> u64 {
        // RR table stores truncated line tags (12 b in the original
        // proposal); scores are 5-bit, plus round/candidate bookkeeping.
        let rr = self.config.rr_entries as u64 * 12;
        let scores = self.config.candidate_offsets.len() as u64 * 5;
        rr + scores + 32
    }
}

impl SnapshotState for BopPrefetcher {
    fn snapshot_tag(&self) -> &'static str {
        "bop"
    }

    fn save_state(&self, writer: &mut StateWriter) -> Result<(), SnapshotError> {
        writer.put_len(self.rr_table.len());
        for slot in &self.rr_table {
            writer.put_opt_u64(slot.map(LineAddr::as_u64));
        }
        writer.put_len(self.scores.len());
        for score in &self.scores {
            writer.put_u32(*score);
        }
        writer.put_u32(self.round);
        writer.put_usize(self.candidate_index);
        match self.best_offset {
            Some(offset) => {
                writer.put_bool(true);
                writer.put_i64(offset);
            }
            None => writer.put_bool(false),
        }
        writer.put_u64(self.stats.accesses);
        writer.put_u64(self.stats.prefetches);
        writer.put_u64(self.stats.phases);
        writer.put_u64(self.stats.disabled_phases);
        Ok(())
    }

    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let rr_len = reader.get_len()?;
        if rr_len != self.rr_table.len() {
            return Err(SnapshotError::Invalid(format!(
                "RR table length {} does not match configured {}",
                rr_len,
                self.rr_table.len()
            )));
        }
        for slot in &mut self.rr_table {
            *slot = reader.get_opt_u64()?.map(LineAddr::new);
        }
        let score_len = reader.get_len()?;
        if score_len != self.scores.len() {
            return Err(SnapshotError::Invalid(format!(
                "score table length {} does not match configured {}",
                score_len,
                self.scores.len()
            )));
        }
        for score in &mut self.scores {
            *score = reader.get_u32()?;
        }
        self.round = reader.get_u32()?;
        self.candidate_index = reader.get_usize()?;
        self.best_offset = if reader.get_bool()? {
            Some(reader.get_i64()?)
        } else {
            None
        };
        self.stats.accesses = reader.get_u64()?;
        self.stats.prefetches = reader.get_u64()?;
        self.stats.phases = reader.get_u64()?;
        self.stats.disabled_phases = reader.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspatch_types::{AccessKind, Addr, Pc};

    fn access(line: u64) -> MemoryAccess {
        MemoryAccess::new(Pc::new(1), Addr::new(line * 64), AccessKind::Load)
    }

    fn drive(
        bop: &mut BopPrefetcher,
        lines: impl IntoIterator<Item = u64>,
    ) -> Vec<PrefetchRequest> {
        let ctx = PrefetchContext::default();
        let mut out = Vec::new();
        for l in lines {
            out.extend(bop.collect_requests(&access(l), &ctx));
        }
        out
    }

    #[test]
    fn discovers_the_global_offset_of_a_composite_stream() {
        // Positive-only candidate list (odd length) avoids phase-locking the
        // round-robin candidate pointer against the period-2 delta stream.
        let mut bop = BopPrefetcher::new(BopConfig {
            candidate_offsets: (1..=63).collect(),
            ..BopConfig::default()
        });
        // Local deltas alternate 1,2,1,2,... => the best global offset is 3.
        let lines = (0..4000u64).map(|i| (i / 2) * 3 + (i % 2));
        let reqs = drive(&mut bop, lines);
        assert!(!reqs.is_empty());
        assert_eq!(
            bop.best_offset(),
            Some(3),
            "BOP should converge on offset 3"
        );
    }

    #[test]
    fn discovers_negative_offsets() {
        let mut bop = BopPrefetcher::new(BopConfig::default());
        let lines = (0..4000u64).map(|i| 1_000_000 - i * 2);
        let _ = drive(&mut bop, lines);
        assert_eq!(bop.best_offset(), Some(-2));
    }

    #[test]
    fn stays_disabled_on_random_traffic() {
        let mut bop = BopPrefetcher::new(BopConfig::default());
        // A pseudo-random walk with no repeating offset relationship.
        let mut x = 12345u64;
        let lines = (0..20_000u64).map(move |_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 20
        });
        let reqs = drive(&mut bop, lines);
        // Learning phases complete but never converge on a strong offset;
        // only sporadic weak phases may fire.
        assert!(bop.stats().phases > 0);
        assert!(
            reqs.len() < 2_000,
            "random traffic should issue few prefetches, got {}",
            reqs.len()
        );
    }

    #[test]
    fn prefetch_degree_matches_configuration() {
        let mut bop = BopPrefetcher::new(BopConfig {
            degree: 3,
            ..BopConfig::default()
        });
        let _ = drive(&mut bop, 0..4000u64);
        let reqs = drive(&mut bop, [10_000, 10_001]);
        assert!(!reqs.is_empty());
        assert_eq!(reqs.len() % 3, 0, "each access issues `degree` prefetches");
    }

    #[test]
    fn ebop_scales_degree_with_bandwidth_headroom() {
        let mut bop = BopPrefetcher::new(BopConfig::enhanced());
        let _ = drive(&mut bop, 0..4000u64);
        assert!(bop.best_offset().is_some());
        let low = bop.collect_requests(
            &access(50_000),
            &PrefetchContext::default().with_bandwidth(BandwidthQuartile::Q0),
        );
        let mid = bop.collect_requests(
            &access(60_000),
            &PrefetchContext::default().with_bandwidth(BandwidthQuartile::Q2),
        );
        let high = bop.collect_requests(
            &access(70_000),
            &PrefetchContext::default().with_bandwidth(BandwidthQuartile::Q3),
        );
        assert_eq!(low.len(), 4);
        assert_eq!(mid.len(), 2);
        assert_eq!(high.len(), 1);
    }

    #[test]
    fn learning_restarts_after_each_phase() {
        let mut bop = BopPrefetcher::new(BopConfig::default());
        let _ = drive(&mut bop, (0..4000u64).map(|i| i * 2));
        let first = bop.best_offset();
        assert!(first.is_some());
        // Switch the stream: after enough accesses a new phase adapts the offset.
        let _ = drive(&mut bop, (0..8000u64).map(|i| 10_000_000 + i * 5));
        let second = bop.best_offset();
        assert!(second.is_some());
        assert_ne!(first, second, "BOP must adapt to the new dominant offset");
    }

    #[test]
    fn storage_is_about_1_3_kb() {
        let bop = BopPrefetcher::new(BopConfig::default());
        let kb = bop.storage_bits() as f64 / 8.0 / 1024.0;
        assert!(
            (0.4..2.0).contains(&kb),
            "BOP storage should be ~1 KB, got {kb:.2}"
        );
    }

    #[test]
    fn name_distinguishes_ebop() {
        assert_eq!(BopPrefetcher::new(BopConfig::default()).name(), "BOP");
        assert_eq!(BopPrefetcher::new(BopConfig::enhanced()).name(), "eBOP");
    }
}
