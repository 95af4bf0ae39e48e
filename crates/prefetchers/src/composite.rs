//! Adjunct (composite) prefetching.
//!
//! The paper's headline configuration runs DSPatch as a *lightweight adjunct*
//! to SPP (Section 5.1): both prefetchers observe every L2 training access
//! and their prefetch candidates are merged, de-duplicated and issued
//! together. The same mechanism evaluates BOP+SPP and SMS+SPP (Figure 14).

use dspatch_types::{MemoryAccess, PrefetchContext, PrefetchSink, Prefetcher};

/// Runs a primary prefetcher and an adjunct side by side, merging requests.
///
/// Duplicate lines are issued once; the primary prefetcher's request wins on
/// a conflict (e.g. differing fill levels), matching the paper's framing of
/// the adjunct as a coverage supplement to SPP.
///
/// # Example
///
/// ```
/// use dspatch_prefetchers::any::composites;
/// use dspatch_types::{AccessKind, Addr, MemoryAccess, Pc, PrefetchContext, Prefetcher};
///
/// let mut combined = composites::dspatch_plus_spp();
/// let a = MemoryAccess::new(Pc::new(1), Addr::new(0x1000), AccessKind::Load);
/// let _ = combined.collect_requests(&a, &PrefetchContext::default());
/// assert_eq!(combined.name(), "DSPatch+SPP");
/// ```
#[derive(Debug)]
pub struct AdjunctPrefetcher<P, A> {
    primary: P,
    adjunct: A,
    name: String,
}

impl<P: Prefetcher, A: Prefetcher> AdjunctPrefetcher<P, A> {
    /// Combines `primary` with `adjunct`. The display name becomes
    /// `"<adjunct>+<primary>"`, matching the paper's naming (DSPatch+SPP).
    pub fn new(primary: P, adjunct: A) -> Self {
        let name = format!("{}+{}", adjunct.name(), primary.name());
        Self {
            primary,
            adjunct,
            name,
        }
    }

    /// The primary prefetcher.
    pub fn primary(&self) -> &P {
        &self.primary
    }

    /// The adjunct prefetcher.
    pub fn adjunct(&self) -> &A {
        &self.adjunct
    }
}

impl<P: Prefetcher, A: Prefetcher> Prefetcher for AdjunctPrefetcher<P, A> {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_access(&mut self, access: &MemoryAccess, ctx: &PrefetchContext, out: &mut PrefetchSink) {
        // The sink may already hold earlier requests from the caller; only
        // this access's slice takes part in dedup. Both prefetchers append
        // directly to the caller's sink; the adjunct's range is then
        // deduplicated and compacted in place — no scratch buffer, no
        // second copy of the requests.
        let start = out.len();
        self.primary.on_access(access, ctx, out);
        let mid = out.len();
        self.adjunct.on_access(access, ctx, out);
        if out.len() > mid {
            // The spatial prefetchers this composite pairs (SPP, DSPatch,
            // SMS) only request lines inside the triggering 4 KB page, so
            // the primary's slice is almost always representable as one
            // 64-bit offset mask — turning the quadratic line-by-line dedup
            // into a bit test per candidate. Anything off-page (e.g. a BOP
            // adjunct crossing a page boundary) falls back to a scan over
            // the merged range.
            let trigger_page = access.line().as_u64() >> 6;
            let mut mask = 0u64;
            let mut single_page = true;
            for merged in &out.requests()[start..mid] {
                let line = merged.line.as_u64();
                if line >> 6 == trigger_page {
                    mask |= 1 << (line & 63);
                } else {
                    single_page = false;
                    break;
                }
            }
            let len = out.len();
            let requests = out.requests_mut();
            let mut write = mid;
            for read in mid..len {
                let request = requests[read];
                let line = request.line.as_u64();
                let duplicate = if single_page && line >> 6 == trigger_page {
                    let bit = 1u64 << (line & 63);
                    let seen = mask & bit != 0;
                    mask |= bit;
                    seen
                } else {
                    requests[start..write]
                        .iter()
                        .any(|merged| merged.line == request.line)
                };
                if !duplicate {
                    requests[write] = request;
                    write += 1;
                }
            }
            out.truncate(write);
        }
    }

    fn storage_bits(&self) -> u64 {
        self.primary.storage_bits() + self.adjunct.storage_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::any::composites;
    use crate::{
        BopConfig, BopPrefetcher, SmsConfig, SmsPrefetcher, SppConfig, SppPrefetcher, StreamConfig,
        StreamPrefetcher,
    };
    use dspatch::{DsPatch, DsPatchConfig};
    use dspatch_types::{AccessKind, Addr, FillLevel, NullPrefetcher, Pc};

    fn access(byte: u64) -> MemoryAccess {
        MemoryAccess::new(Pc::new(5), Addr::new(byte), AccessKind::Load)
    }

    #[test]
    fn merges_and_deduplicates_requests() {
        // Two identical streamers produce identical requests; the composite
        // must not double-issue them.
        let mut combined = AdjunctPrefetcher::new(
            StreamPrefetcher::new(StreamConfig::default()),
            StreamPrefetcher::new(StreamConfig::default()),
        );
        let reqs = combined.collect_requests(&access(0x4000), &PrefetchContext::default());
        let mut lines: Vec<u64> = reqs.iter().map(|r| r.line.as_u64()).collect();
        let before = lines.len();
        lines.sort_unstable();
        lines.dedup();
        assert_eq!(before, lines.len());
        assert_eq!(before, 4, "dedup keeps exactly one copy of each line");
    }

    #[test]
    fn primary_request_wins_on_conflict() {
        let mut primary_only = StreamPrefetcher::new(StreamConfig {
            fill_level: FillLevel::L2,
            ..StreamConfig::default()
        });
        let expected = primary_only.collect_requests(&access(0x8000), &PrefetchContext::default());
        let mut combined = AdjunctPrefetcher::new(
            StreamPrefetcher::new(StreamConfig {
                fill_level: FillLevel::L2,
                ..StreamConfig::default()
            }),
            StreamPrefetcher::new(StreamConfig {
                fill_level: FillLevel::Llc,
                ..StreamConfig::default()
            }),
        );
        let merged = combined.collect_requests(&access(0x8000), &PrefetchContext::default());
        for (m, e) in merged.iter().zip(expected.iter()) {
            assert_eq!(m.fill_level, e.fill_level, "primary's fill level is kept");
        }
    }

    #[test]
    fn adjunct_adds_coverage_beyond_primary() {
        // A null primary contributes nothing; all coverage comes from the adjunct.
        let mut combined = AdjunctPrefetcher::new(
            NullPrefetcher::new(),
            StreamPrefetcher::new(StreamConfig::default()),
        );
        let reqs = combined.collect_requests(&access(0), &PrefetchContext::default());
        assert_eq!(reqs.len(), 4);
    }

    #[test]
    fn storage_is_the_sum_of_both_parts() {
        let spp = SppPrefetcher::new(SppConfig::default());
        let spp_bits = spp.storage_bits();
        let stream = StreamPrefetcher::new(StreamConfig::default());
        let stream_bits = stream.storage_bits();
        let combined = AdjunctPrefetcher::new(spp, stream);
        assert_eq!(combined.storage_bits(), spp_bits + stream_bits);
    }

    #[test]
    fn lineup_names_match_the_paper() {
        assert_eq!(SppPrefetcher::new(SppConfig::default()).name(), "SPP");
        assert_eq!(SppPrefetcher::new(SppConfig::enhanced()).name(), "eSPP");
        assert_eq!(BopPrefetcher::new(BopConfig::default()).name(), "BOP");
        assert_eq!(BopPrefetcher::new(BopConfig::enhanced()).name(), "eBOP");
        assert_eq!(SmsPrefetcher::new(SmsConfig::default()).name(), "SMS");
        assert_eq!(DsPatch::new(DsPatchConfig::default()).name(), "DSPatch");
        assert_eq!(composites::dspatch_plus_spp().name(), "DSPatch+SPP");
        assert_eq!(composites::bop_plus_spp().name(), "BOP+SPP");
        assert_eq!(composites::ebop_plus_spp().name(), "eBOP+SPP");
        assert_eq!(composites::sms_iso_plus_spp().name(), "SMS+SPP");
    }

    #[test]
    fn lineup_storage_ordering_matches_table3() {
        // BOP < DSPatch < SPP < SMS(16K) in storage.
        let bop = BopPrefetcher::new(BopConfig::default()).storage_bits();
        let dspatch = DsPatch::new(DsPatchConfig::default()).storage_bits();
        let spp = SppPrefetcher::new(SppConfig::default()).storage_bits();
        let sms = SmsPrefetcher::new(SmsConfig::default()).storage_bits();
        assert!(
            bop < dspatch,
            "BOP ({bop}) should be smaller than DSPatch ({dspatch})"
        );
        assert!(
            dspatch < spp,
            "DSPatch ({dspatch}) should be smaller than SPP ({spp})"
        );
        assert!(spp < sms, "SPP ({spp}) should be smaller than SMS ({sms})");
    }
}
