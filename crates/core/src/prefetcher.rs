//! The DSPatch prefetcher: Page Buffer + Signature Prediction Table +
//! bandwidth-driven pattern selection, behind the common
//! [`Prefetcher`](dspatch_types::Prefetcher) trait.

use crate::config::DsPatchConfig;
use crate::page_buffer::{PageBuffer, PageBufferEntry, TriggerInfo};
use crate::selection::PatternChoice;
use crate::spt::SignaturePredictionTable;
use crate::storage::StorageBreakdown;
use dspatch_types::snapshot::{SnapshotError, SnapshotState, StateReader, StateWriter};
use dspatch_types::{
    BandwidthQuartile, FillLevel, MemoryAccess, PrefetchContext, PrefetchRequest, PrefetchSink,
    Prefetcher, LINES_PER_PAGE,
};

/// Aggregate statistics the prefetcher keeps about its own decisions.
/// These are observability counters, not architectural state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DsPatchStats {
    /// Accesses observed (L1 misses forwarded by the hierarchy).
    pub accesses: u64,
    /// Triggers seen (first access to a 2 KB segment of a tracked page).
    pub triggers: u64,
    /// Triggers that selected the coverage-biased pattern.
    pub covp_predictions: u64,
    /// Triggers that selected the accuracy-biased pattern.
    pub accp_predictions: u64,
    /// Triggers for which the selection logic chose not to prefetch.
    pub throttled_predictions: u64,
    /// Triggers whose SPT entry was still cold.
    pub cold_triggers: u64,
    /// Individual prefetch requests issued.
    pub prefetches_issued: u64,
    /// Page Buffer evictions that trained the SPT.
    pub trainings: u64,
}

/// The Dual Spatial Pattern Prefetcher.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone, PartialEq)]
pub struct DsPatch {
    config: DsPatchConfig,
    page_buffer: PageBuffer,
    spt: SignaturePredictionTable,
    last_bandwidth: BandwidthQuartile,
    stats: DsPatchStats,
    name: String,
}

impl DsPatch {
    /// Creates a DSPatch prefetcher with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`DsPatchConfig::validate`].
    pub fn new(config: DsPatchConfig) -> Self {
        config
            .validate()
            .expect("invalid DSPatch configuration passed to DsPatch::new");
        Self {
            page_buffer: PageBuffer::new(config.page_buffer_entries),
            spt: SignaturePredictionTable::new(&config),
            last_bandwidth: BandwidthQuartile::Q0,
            stats: DsPatchStats::default(),
            name: "DSPatch".to_owned(),
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &DsPatchConfig {
        &self.config
    }

    /// Decision statistics accumulated so far.
    pub fn stats(&self) -> &DsPatchStats {
        &self.stats
    }

    /// Read-only access to the Signature Prediction Table (useful for tests
    /// and for the storage/occupancy reports).
    pub fn spt(&self) -> &SignaturePredictionTable {
        &self.spt
    }

    /// Read-only access to the Page Buffer.
    pub fn page_buffer(&self) -> &PageBuffer {
        &self.page_buffer
    }

    /// Hardware storage breakdown (Table 1).
    pub fn storage_breakdown(&self) -> StorageBreakdown {
        StorageBreakdown::for_config(&self.config)
    }

    /// Trains the SPT with every page still resident in the Page Buffer.
    /// The simulator calls this at the end of a run so short traces still
    /// contribute learning; hardware would simply keep the state warm.
    pub fn flush_training(&mut self) {
        let bandwidth = self.last_bandwidth;
        for entry in self.page_buffer.drain() {
            self.train_from_entry(&entry, bandwidth);
        }
    }

    fn train_from_entry(&mut self, entry: &PageBufferEntry, bandwidth: BandwidthQuartile) {
        for trigger in entry.recorded_triggers() {
            let anchored = entry.pattern.anchor(trigger.offset);
            let halves = if trigger.segment == 0 { 2 } else { 1 };
            self.spt.train(
                trigger.pc,
                anchored.compress(),
                halves,
                bandwidth,
                &self.config,
            );
            self.stats.trainings += 1;
        }
    }

    fn predict_for_trigger(
        &mut self,
        page: dspatch_types::PageAddr,
        trigger: &TriggerInfo,
        bandwidth: BandwidthQuartile,
        out: &mut PrefetchSink,
    ) {
        let halves = if trigger.segment == 0 { 2 } else { 1 };
        let entry = self.spt.entry(trigger.pc);
        if entry.is_cold() {
            self.stats.cold_triggers += 1;
            return;
        }
        let Some(prediction) = entry.predict(bandwidth, &self.config, halves) else {
            self.stats.throttled_predictions += 1;
            return;
        };
        match prediction.choice {
            PatternChoice::Coverage { .. } => self.stats.covp_predictions += 1,
            PatternChoice::Accuracy => self.stats.accp_predictions += 1,
            PatternChoice::NoPrefetch => self.stats.throttled_predictions += 1,
        }
        let page_pattern = prediction.anchored.unanchor(trigger.offset);
        let issued_before = out.len();
        for offset in page_pattern.iter_offsets() {
            if offset == trigger.offset {
                continue; // the trigger line is already being fetched by the demand
            }
            debug_assert!(offset < LINES_PER_PAGE);
            let request = PrefetchRequest::new(page.line_at(offset))
                .with_fill_level(FillLevel::L2)
                .with_low_priority(prediction.low_priority);
            out.push(request);
        }
        self.stats.prefetches_issued += (out.len() - issued_before) as u64;
    }
}

impl Prefetcher for DsPatch {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_access(&mut self, access: &MemoryAccess, ctx: &PrefetchContext, out: &mut PrefetchSink) {
        self.stats.accesses += 1;
        self.last_bandwidth = ctx.bandwidth;
        let page = access.page();
        let outcome = self
            .page_buffer
            .record_access(page, access.page_line_offset(), access.pc);
        if let Some(evicted) = &outcome.evicted {
            self.train_from_entry(evicted, ctx.bandwidth);
        }
        if let Some(trigger) = &outcome.trigger {
            self.stats.triggers += 1;
            self.predict_for_trigger(page, trigger, ctx.bandwidth, out);
        }
    }

    fn storage_bits(&self) -> u64 {
        self.storage_breakdown().total_bits()
    }
}

impl SnapshotState for DsPatch {
    fn snapshot_tag(&self) -> &'static str {
        "dspatch"
    }

    fn save_state(&self, writer: &mut StateWriter) -> Result<(), SnapshotError> {
        self.page_buffer.save_state(writer)?;
        self.spt.save_state(writer)?;
        writer.put_u8(self.last_bandwidth.as_bits());
        writer.put_u64(self.stats.accesses);
        writer.put_u64(self.stats.triggers);
        writer.put_u64(self.stats.covp_predictions);
        writer.put_u64(self.stats.accp_predictions);
        writer.put_u64(self.stats.throttled_predictions);
        writer.put_u64(self.stats.cold_triggers);
        writer.put_u64(self.stats.prefetches_issued);
        writer.put_u64(self.stats.trainings);
        Ok(())
    }

    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.page_buffer.load_state(reader)?;
        self.spt.load_state(reader)?;
        self.last_bandwidth = BandwidthQuartile::from_bits(reader.get_u8()?);
        self.stats.accesses = reader.get_u64()?;
        self.stats.triggers = reader.get_u64()?;
        self.stats.covp_predictions = reader.get_u64()?;
        self.stats.accp_predictions = reader.get_u64()?;
        self.stats.throttled_predictions = reader.get_u64()?;
        self.stats.cold_triggers = reader.get_u64()?;
        self.stats.prefetches_issued = reader.get_u64()?;
        self.stats.trainings = reader.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspatch_types::{AccessKind, Addr, Pc};

    fn access(pc: u64, page: u64, offset: u64) -> MemoryAccess {
        MemoryAccess::new(
            Pc::new(pc),
            Addr::new(page * 4096 + offset * 64),
            AccessKind::Load,
        )
    }

    fn train_streaming(pf: &mut DsPatch, pc: u64, pages: std::ops::Range<u64>, offsets: &[u64]) {
        let ctx = PrefetchContext::default();
        for page in pages {
            for &off in offsets {
                let _ = pf.collect_requests(&access(pc, page, off), &ctx);
            }
        }
    }

    #[test]
    fn learns_and_prefetches_repeating_spatial_pattern() {
        let mut pf = DsPatch::new(DsPatchConfig::default());
        // A pattern that needs many pages: the page buffer holds 64 pages,
        // so pages must be evicted to train the SPT. Touch 128 pages.
        train_streaming(&mut pf, 0x400100, 0..128, &[0, 2, 4, 6, 8]);
        let ctx = PrefetchContext::default();
        let requests = pf.collect_requests(&access(0x400100, 500, 0), &ctx);
        assert!(!requests.is_empty(), "trained trigger should prefetch");
        // All requests stay within the triggering page.
        for r in &requests {
            assert_eq!(r.line.page(), Addr::new(500 * 4096).line().page());
        }
        assert!(pf.stats().trainings > 0);
        assert!(pf.stats().covp_predictions > 0);
    }

    #[test]
    fn unknown_pc_issues_no_prefetches() {
        let mut pf = DsPatch::new(DsPatchConfig::default());
        train_streaming(&mut pf, 0x400100, 0..128, &[0, 1, 2, 3]);
        let ctx = PrefetchContext::default();
        // A PC that hashes to a different entry should not predict from a
        // cold entry. (Pick one that maps elsewhere.)
        let other_pc = (0..10_000u64)
            .map(|x| 0x500000 + x)
            .find(|&candidate| {
                pf.spt().index_of(Pc::new(candidate)) != pf.spt().index_of(Pc::new(0x400100))
            })
            .expect("some PC maps to a different SPT entry");
        let requests = pf.collect_requests(&access(other_pc, 999, 0), &ctx);
        assert!(requests.is_empty());
        assert!(pf.stats().cold_triggers > 0);
    }

    #[test]
    fn high_bandwidth_switches_to_accuracy_or_throttles() {
        let mut pf = DsPatch::new(DsPatchConfig::default());
        train_streaming(&mut pf, 0x400200, 0..128, &[0, 2, 4, 6, 8, 10]);
        let low_ctx = PrefetchContext::default().with_bandwidth(BandwidthQuartile::Q0);
        let high_ctx = PrefetchContext::default().with_bandwidth(BandwidthQuartile::Q3);
        let low = pf
            .collect_requests(&access(0x400200, 700, 0), &low_ctx)
            .len();
        let high = pf
            .collect_requests(&access(0x400200, 701, 0), &high_ctx)
            .len();
        assert!(
            high <= low,
            "accuracy-biased prefetching must not be more aggressive than coverage-biased \
             (low bw: {low}, high bw: {high})"
        );
    }

    #[test]
    fn trigger_line_itself_is_never_prefetched() {
        let mut pf = DsPatch::new(DsPatchConfig::default());
        train_streaming(&mut pf, 0x1111, 0..128, &[3, 5, 7, 9]);
        let ctx = PrefetchContext::default();
        let requests = pf.collect_requests(&access(0x1111, 800, 3), &ctx);
        let trigger_line = Addr::new(800 * 4096 + 3 * 64).line();
        assert!(requests.iter().all(|r| r.line != trigger_line));
    }

    #[test]
    fn flush_training_trains_resident_pages() {
        let mut pf = DsPatch::new(DsPatchConfig::default());
        let ctx = PrefetchContext::default();
        for off in [0u64, 1, 2, 3] {
            let _ = pf.collect_requests(&access(0x42, 7, off), &ctx);
        }
        assert_eq!(pf.stats().trainings, 0);
        pf.flush_training();
        assert!(pf.stats().trainings > 0);
        assert!(pf.page_buffer().is_empty());
    }

    #[test]
    fn storage_matches_table1_budget() {
        let pf = DsPatch::new(DsPatchConfig::default());
        let bits = pf.storage_bits();
        let kb = bits as f64 / 8.0 / 1024.0;
        assert!((3.5..3.7).contains(&kb), "expected ~3.6 KB, got {kb:.2} KB");
    }

    #[test]
    fn stats_track_access_and_trigger_counts() {
        let mut pf = DsPatch::new(DsPatchConfig::default());
        let ctx = PrefetchContext::default();
        for off in 0..8u64 {
            let _ = pf.collect_requests(&access(0x10, 3, off), &ctx);
        }
        assert_eq!(pf.stats().accesses, 8);
        // Offsets 0..8 all fall in the first 2 KB segment: exactly one trigger.
        assert_eq!(pf.stats().triggers, 1);
        let _ = pf.collect_requests(&access(0x10, 3, 40), &ctx);
        assert_eq!(pf.stats().triggers, 2);
    }
}
