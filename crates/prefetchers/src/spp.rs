//! Signature Pattern Prefetcher (SPP).
//!
//! SPP (Kim et al., "Path confidence based lookahead prefetching", MICRO
//! 2016) is the state-of-the-art delta prefetcher the paper both compares
//! against and pairs DSPatch with. It learns, per 4 KB page, a 12-bit
//! *signature* compressing the last few cache-line deltas, and associates
//! each signature with up to four candidate next deltas and their
//! confidence counters. A recursive look-ahead walk multiplies confidences
//! along the predicted delta path and keeps prefetching while the cascaded
//! confidence stays above a threshold.
//!
//! The bandwidth-enhanced variant **eSPP** (paper, Section 2.1) lowers the
//! confidence threshold from 25 % to 12.5 % whenever less than half of the
//! DRAM bandwidth is being used.

use dspatch_types::{
    BandwidthQuartile, FillLevel, MemoryAccess, PageAddr, PrefetchContext, PrefetchRequest,
    PrefetchSink, Prefetcher, LINES_PER_PAGE,
};

/// Number of delta slots tracked per pattern-table entry.
const DELTAS_PER_ENTRY: usize = 4;
/// Width of the compressed delta-history signature, in bits.
const SIGNATURE_BITS: u32 = 12;
/// Maximum value of the 4-bit confidence counters.
const COUNTER_MAX: u8 = 15;

/// Configuration of the [`SppPrefetcher`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SppConfig {
    /// Signature-table entries (paper Table 3: 256).
    pub signature_table_entries: usize,
    /// Pattern-table entries (paper Table 3: 512).
    pub pattern_table_entries: usize,
    /// Global-history-register entries used to bootstrap new pages (paper
    /// Table 3: 8).
    pub ghr_entries: usize,
    /// Cascaded-confidence threshold below which look-ahead stops and no
    /// prefetch is issued (paper: 25 %).
    pub prefetch_threshold: f64,
    /// Threshold below which prefetches are demoted to fill only the LLC.
    pub llc_fill_threshold: f64,
    /// Maximum look-ahead depth (bounds the recursive walk).
    pub max_lookahead: usize,
    /// When set, the confidence threshold drops to
    /// `enhanced_prefetch_threshold` while DRAM bandwidth utilization is
    /// below 50 % — this is the paper's eSPP.
    pub bandwidth_enhanced: bool,
    /// The relaxed threshold used by eSPP (paper: 12.5 %).
    pub enhanced_prefetch_threshold: f64,
}

impl Default for SppConfig {
    fn default() -> Self {
        Self {
            signature_table_entries: 256,
            pattern_table_entries: 512,
            ghr_entries: 8,
            prefetch_threshold: 0.25,
            llc_fill_threshold: 0.50,
            max_lookahead: 8,
            bandwidth_enhanced: false,
            enhanced_prefetch_threshold: 0.125,
        }
    }
}

impl SppConfig {
    /// The eSPP configuration: identical hardware, bandwidth-aware threshold.
    pub fn enhanced() -> Self {
        Self {
            bandwidth_enhanced: true,
            ..Self::default()
        }
    }
}

/// Signature-table entry: per-page delta-history state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StEntry {
    page: PageAddr,
    last_offset: usize,
    signature: u16,
    valid: bool,
}

impl Default for StEntry {
    fn default() -> Self {
        Self {
            page: PageAddr::new(0),
            last_offset: 0,
            signature: 0,
            valid: false,
        }
    }
}

/// One candidate delta and its confidence counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct DeltaSlot {
    delta: i8,
    counter: u8,
}

/// Pattern-table entry: candidate next deltas for one signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct PtEntry {
    c_sig: u8,
    deltas: [DeltaSlot; DELTAS_PER_ENTRY],
}

impl PtEntry {
    fn train(&mut self, delta: i8) {
        if self.c_sig == COUNTER_MAX {
            // Halve all counters to age out stale deltas, as in the original
            // SPP proposal.
            self.c_sig /= 2;
            for slot in &mut self.deltas {
                slot.counter /= 2;
            }
        }
        self.c_sig += 1;
        if let Some(slot) = self
            .deltas
            .iter_mut()
            .find(|s| s.counter > 0 && s.delta == delta)
        {
            slot.counter = (slot.counter + 1).min(COUNTER_MAX);
            return;
        }
        // Replace the weakest slot.
        let weakest = self
            .deltas
            .iter_mut()
            .min_by_key(|s| s.counter)
            .expect("entry has delta slots");
        *weakest = DeltaSlot { delta, counter: 1 };
    }

    fn candidates(&self) -> impl Iterator<Item = (i8, f64)> + '_ {
        let c_sig = self.c_sig.max(1);
        self.deltas
            .iter()
            .filter(|s| s.counter > 0)
            .map(move |s| (s.delta, f64::from(s.counter) / f64::from(c_sig)))
    }
}

/// Global-history-register entry used to seed signatures across page
/// boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct GhrEntry {
    signature: u16,
    expected_offset: usize,
    delta: i8,
    valid: bool,
}

/// Per-run statistics kept by the prefetcher (observability only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SppStats {
    /// Accesses observed.
    pub accesses: u64,
    /// Prefetch requests issued.
    pub prefetches: u64,
    /// Look-ahead walks that reached the configured depth limit.
    pub lookahead_limited: u64,
    /// New pages bootstrapped from the GHR.
    pub ghr_hits: u64,
}

/// The Signature Pattern Prefetcher.
///
/// # Example
///
/// ```
/// use dspatch_prefetchers::{SppConfig, SppPrefetcher};
/// use dspatch_types::{AccessKind, Addr, MemoryAccess, Pc, PrefetchContext, Prefetcher};
///
/// let mut spp = SppPrefetcher::new(SppConfig::default());
/// let ctx = PrefetchContext::default();
/// let mut issued = Vec::new();
/// // A regular +1-line stream trains SPP quickly.
/// for page in 0..4u64 {
///     for off in 0..32u64 {
///         let a = MemoryAccess::new(Pc::new(3), Addr::new(page * 4096 + off * 64), AccessKind::Load);
///         issued.extend(spp.collect_requests(&a, &ctx));
///     }
/// }
/// assert!(!issued.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SppPrefetcher {
    config: SppConfig,
    signature_table: Vec<StEntry>,
    pattern_table: Vec<PtEntry>,
    ghr: Vec<GhrEntry>,
    stats: SppStats,
    name: &'static str,
}

impl SppPrefetcher {
    /// Creates an SPP (or eSPP, depending on the configuration) instance.
    ///
    /// # Panics
    ///
    /// Panics if a table size is zero or a threshold is outside `(0, 1]`.
    pub fn new(config: SppConfig) -> Self {
        assert!(
            config.signature_table_entries > 0,
            "signature table must be non-empty"
        );
        assert!(
            config.pattern_table_entries > 0,
            "pattern table must be non-empty"
        );
        assert!(
            config.prefetch_threshold > 0.0 && config.prefetch_threshold <= 1.0,
            "prefetch threshold must be in (0, 1]"
        );
        let name = if config.bandwidth_enhanced {
            "eSPP"
        } else {
            "SPP"
        };
        Self {
            signature_table: vec![StEntry::default(); config.signature_table_entries],
            pattern_table: vec![PtEntry::default(); config.pattern_table_entries],
            ghr: vec![GhrEntry::default(); config.ghr_entries.max(1)],
            stats: SppStats::default(),
            name,
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SppConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &SppStats {
        &self.stats
    }

    #[inline]
    fn st_index(&self, page: PageAddr) -> usize {
        // The table sizes are powers of two in every paper configuration;
        // masking avoids a hardware divide on the per-access path.
        let len = self.signature_table.len();
        if len.is_power_of_two() {
            (page.as_u64() as usize) & (len - 1)
        } else {
            (page.as_u64() as usize) % len
        }
    }

    #[inline]
    fn pt_index(&self, signature: u16) -> usize {
        let len = self.pattern_table.len();
        if len.is_power_of_two() {
            (signature as usize) & (len - 1)
        } else {
            (signature as usize) % len
        }
    }

    fn update_signature(signature: u16, delta: i8) -> u16 {
        let encoded = (delta as i16 & 0x7f) as u16; // 7-bit sign-magnitude-ish encoding
        ((signature << 3) ^ encoded) & ((1 << SIGNATURE_BITS) - 1)
    }

    fn active_threshold(&self, bandwidth: BandwidthQuartile) -> f64 {
        if self.config.bandwidth_enhanced && !bandwidth.is_above_half() {
            self.config.enhanced_prefetch_threshold
        } else {
            self.config.prefetch_threshold
        }
    }

    fn ghr_lookup(&mut self, offset: usize) -> Option<u16> {
        let hit = self
            .ghr
            .iter()
            .find(|e| e.valid && e.expected_offset == offset)
            .copied();
        hit.map(|entry| {
            self.stats.ghr_hits += 1;
            Self::update_signature(entry.signature, entry.delta)
        })
    }

    fn ghr_insert(&mut self, signature: u16, delta: i8, overflowed_offset: i64) {
        if !(0..LINES_PER_PAGE as i64 * 2).contains(&overflowed_offset) {
            return;
        }
        let expected = (overflowed_offset as usize) % LINES_PER_PAGE;
        // Fill an invalid slot first, otherwise replace hashed by signature.
        let index = self
            .ghr
            .iter()
            .position(|e| !e.valid)
            .unwrap_or((signature as usize) % self.ghr.len());
        self.ghr[index] = GhrEntry {
            signature,
            expected_offset: expected,
            delta,
            valid: true,
        };
    }

    fn lookahead(
        &mut self,
        page: PageAddr,
        start_offset: usize,
        start_signature: u16,
        threshold: f64,
        out: &mut PrefetchSink,
    ) {
        // One bit per page line; bit `start_offset` is pre-set so the
        // trigger line is never re-requested.
        let mut issued: u64 = 1 << start_offset;
        let mut signature = start_signature;
        let mut base = start_offset as i64;
        let mut confidence = 1.0;
        for depth in 0..self.config.max_lookahead {
            let entry = self.pattern_table[self.pt_index(signature)];
            if entry.c_sig == 0 {
                break;
            }
            let mut best: Option<(i8, f64)> = None;
            for (delta, local_conf) in entry.candidates() {
                let path_conf = confidence * local_conf;
                if path_conf >= threshold {
                    let target = base + i64::from(delta);
                    if (0..LINES_PER_PAGE as i64).contains(&target) {
                        let offset = target as usize;
                        if issued & (1 << offset) == 0 {
                            issued |= 1 << offset;
                            let fill = if path_conf >= self.config.llc_fill_threshold {
                                FillLevel::L2
                            } else {
                                FillLevel::Llc
                            };
                            out.push(
                                PrefetchRequest::new(page.line_at(offset)).with_fill_level(fill),
                            );
                        }
                    } else {
                        // The predicted path leaves the page: remember it in
                        // the GHR so the next page can pick the stream up.
                        self.ghr_insert(signature, delta, target);
                    }
                }
                if best.is_none_or(|(_, b)| path_conf > b) {
                    best = Some((delta, path_conf));
                }
            }
            let Some((best_delta, best_conf)) = best else {
                break;
            };
            if best_conf < threshold {
                break;
            }
            confidence = best_conf;
            base += i64::from(best_delta);
            signature = Self::update_signature(signature, best_delta);
            if depth + 1 == self.config.max_lookahead {
                self.stats.lookahead_limited += 1;
            }
        }
    }
}

impl Prefetcher for SppPrefetcher {
    fn name(&self) -> &str {
        self.name
    }

    fn on_access(&mut self, access: &MemoryAccess, ctx: &PrefetchContext, out: &mut PrefetchSink) {
        self.stats.accesses += 1;
        let page = access.page();
        let offset = access.page_line_offset();
        let threshold = self.active_threshold(ctx.bandwidth);
        let index = self.st_index(page);
        let entry = self.signature_table[index];

        let signature = if entry.valid && entry.page == page {
            let delta = offset as i64 - entry.last_offset as i64;
            if delta == 0 {
                return;
            }
            let delta = delta.clamp(i64::from(i8::MIN), i64::from(i8::MAX)) as i8;
            // Train the pattern table with the observed transition.
            let pt_index = self.pt_index(entry.signature);
            self.pattern_table[pt_index].train(delta);
            let new_signature = Self::update_signature(entry.signature, delta);
            self.signature_table[index] = StEntry {
                page,
                last_offset: offset,
                signature: new_signature,
                valid: true,
            };
            new_signature
        } else {
            // New page (or conflict eviction): bootstrap from the GHR when a
            // cross-page stream predicted this offset, otherwise start cold.
            let seeded = self.ghr_lookup(offset).unwrap_or(0);
            self.signature_table[index] = StEntry {
                page,
                last_offset: offset,
                signature: seeded,
                valid: true,
            };
            seeded
        };

        if signature == 0 {
            return;
        }
        let issued_before = out.len();
        self.lookahead(page, offset, signature, threshold, out);
        self.stats.prefetches += (out.len() - issued_before) as u64;
    }

    fn storage_bits(&self) -> u64 {
        let st_entry = 16 + 6 + u64::from(SIGNATURE_BITS) + 1; // tag, offset, signature, valid
        let pt_entry = 4 + DELTAS_PER_ENTRY as u64 * (7 + 4); // c_sig + 4 x (delta, counter)
        let ghr_entry = u64::from(SIGNATURE_BITS) + 6 + 7 + 1;
        self.signature_table.len() as u64 * st_entry
            + self.pattern_table.len() as u64 * pt_entry
            + self.ghr.len() as u64 * ghr_entry
            + 10 // global feedback counters (Table 3: "10b feedback")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspatch_types::{AccessKind, Addr, Pc};

    fn access(page: u64, offset: u64) -> MemoryAccess {
        MemoryAccess::new(
            Pc::new(1),
            Addr::new(page * 4096 + offset * 64),
            AccessKind::Load,
        )
    }

    fn drive(spp: &mut SppPrefetcher, accesses: &[(u64, u64)]) -> Vec<PrefetchRequest> {
        let ctx = PrefetchContext::default();
        let mut out = Vec::new();
        for &(p, o) in accesses {
            out.extend(spp.collect_requests(&access(p, o), &ctx));
        }
        out
    }

    #[test]
    fn learns_unit_stride_stream() {
        let mut spp = SppPrefetcher::new(SppConfig::default());
        let stream: Vec<(u64, u64)> = (0..3)
            .flat_map(|p| (0..32u64).map(move |o| (p, o)))
            .collect();
        let reqs = drive(&mut spp, &stream);
        assert!(!reqs.is_empty(), "unit stride must train SPP");
        assert!(spp.stats().prefetches > 0);
    }

    #[test]
    fn learns_alternating_delta_pattern() {
        // Repeating +1,+3 deltas: offsets 0,1,4,5,8,9,... SPP's signature
        // captures the short history so both deltas are predicted.
        let mut spp = SppPrefetcher::new(SppConfig::default());
        let mut stream = Vec::new();
        for p in 0..6u64 {
            let mut off = 0u64;
            stream.push((p, off));
            loop {
                off += 1;
                if off >= 64 {
                    break;
                }
                stream.push((p, off));
                off += 3;
                if off >= 64 {
                    break;
                }
                stream.push((p, off));
            }
        }
        let reqs = drive(&mut spp, &stream);
        assert!(!reqs.is_empty());
    }

    #[test]
    fn prefetches_stay_within_the_page() {
        let mut spp = SppPrefetcher::new(SppConfig::default());
        let stream: Vec<(u64, u64)> = (0..4)
            .flat_map(|p| (0..64u64).step_by(4).map(move |o| (p, o)))
            .collect();
        let reqs = drive(&mut spp, &stream);
        for r in &reqs {
            let page = r.line.page().as_u64();
            assert!(page < 4, "prefetch escaped trained pages: {:?}", r.line);
        }
    }

    #[test]
    fn random_accesses_issue_few_prefetches() {
        let mut spp = SppPrefetcher::new(SppConfig::default());
        // A non-repeating, irregular offset sequence.
        let offsets = [3u64, 47, 12, 60, 1, 33, 20, 55, 9, 41, 27, 14];
        let stream: Vec<(u64, u64)> = (0..8)
            .flat_map(|p| {
                let rotate = (p * 5) as usize % offsets.len();
                offsets
                    .iter()
                    .cycle()
                    .skip(rotate)
                    .take(offsets.len())
                    .map(move |&o| (p, o))
                    .collect::<Vec<_>>()
            })
            .collect();
        let regular: Vec<(u64, u64)> = (100..108)
            .flat_map(|p| (0..12u64).map(move |o| (p, o)))
            .collect();
        let irregular_count = drive(&mut spp, &stream).len();
        let mut spp2 = SppPrefetcher::new(SppConfig::default());
        let regular_count = drive(&mut spp2, &regular).len();
        assert!(
            regular_count > irregular_count,
            "regular streams should out-prefetch irregular ones ({regular_count} vs {irregular_count})"
        );
    }

    #[test]
    fn espp_is_more_aggressive_at_low_bandwidth() {
        let train: Vec<(u64, u64)> = (0..4)
            .flat_map(|p| (0..32u64).step_by(2).map(move |o| (p, o)))
            .collect();
        let mut base = SppPrefetcher::new(SppConfig::default());
        let mut enhanced = SppPrefetcher::new(SppConfig::enhanced());
        let base_reqs = drive(&mut base, &train).len();
        let enhanced_reqs = drive(&mut enhanced, &train).len();
        assert!(
            enhanced_reqs >= base_reqs,
            "eSPP at low bandwidth must be at least as aggressive ({enhanced_reqs} vs {base_reqs})"
        );
    }

    #[test]
    fn espp_reverts_to_base_threshold_at_high_bandwidth() {
        let mut enhanced = SppPrefetcher::new(SppConfig::enhanced());
        assert_eq!(
            enhanced.active_threshold(BandwidthQuartile::Q3),
            enhanced.config.prefetch_threshold
        );
        assert_eq!(
            enhanced.active_threshold(BandwidthQuartile::Q0),
            enhanced.config.enhanced_prefetch_threshold
        );
        // Behavioural check: the threshold actually changes issued volume.
        let train: Vec<(u64, u64)> = (0..4)
            .flat_map(|p| (0..32u64).step_by(2).map(move |o| (p, o)))
            .collect();
        let ctx_high = PrefetchContext::default().with_bandwidth(BandwidthQuartile::Q3);
        let mut high_total = 0;
        for &(p, o) in &train {
            high_total += enhanced.collect_requests(&access(p, o), &ctx_high).len();
        }
        let mut low = SppPrefetcher::new(SppConfig::enhanced());
        let ctx_low = PrefetchContext::default().with_bandwidth(BandwidthQuartile::Q0);
        let mut low_total = 0;
        for &(p, o) in &train {
            low_total += low.collect_requests(&access(p, o), &ctx_low).len();
        }
        assert!(low_total >= high_total);
    }

    #[test]
    fn pattern_table_counters_saturate_and_age() {
        let mut entry = PtEntry::default();
        for _ in 0..100 {
            entry.train(1);
        }
        assert!(entry.c_sig <= COUNTER_MAX);
        assert!(entry.deltas.iter().all(|s| s.counter <= COUNTER_MAX));
        // A competing delta can still be learnt after aging.
        for _ in 0..20 {
            entry.train(-2);
        }
        assert!(entry.deltas.iter().any(|s| s.delta == -2 && s.counter > 0));
    }

    #[test]
    fn signature_update_is_deterministic_and_bounded() {
        let mut sig = 0u16;
        for d in [1i8, 1, -3, 7, 1] {
            sig = SppPrefetcher::update_signature(sig, d);
            assert!(sig < (1 << SIGNATURE_BITS));
        }
        assert_eq!(
            SppPrefetcher::update_signature(0x123, 5),
            SppPrefetcher::update_signature(0x123, 5)
        );
    }

    #[test]
    fn storage_is_in_the_single_digit_kilobyte_range() {
        let spp = SppPrefetcher::new(SppConfig::default());
        let kb = spp.storage_bits() as f64 / 8.0 / 1024.0;
        assert!(
            kb > 2.0 && kb < 8.0,
            "SPP storage should be a few KB, got {kb:.1}"
        );
    }

    #[test]
    fn name_distinguishes_espp() {
        assert_eq!(SppPrefetcher::new(SppConfig::default()).name(), "SPP");
        assert_eq!(SppPrefetcher::new(SppConfig::enhanced()).name(), "eSPP");
    }
}
