//! Access Map Pattern Matching (AMPM).
//!
//! AMPM (Ishii et al., ICS 2009) keeps an access map — one state per cache
//! line — for a set of hot memory zones (4 KB pages here). On every access at
//! offset `o`, it tests candidate strides `k`: if `o - k` and `o - 2k` were
//! both accessed, the stream is assumed to continue and `o + k` is
//! prefetched. The paper evaluates AMPM but omits it from the plots because
//! it under-performs the other prefetchers in single-thread runs; it is
//! included here for completeness.

use dspatch_types::{
    FillLevel, MemoryAccess, PageAddr, PrefetchContext, PrefetchRequest, PrefetchSink, Prefetcher,
    LINES_PER_PAGE,
};

/// Configuration of the [`AmpmPrefetcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AmpmConfig {
    /// Number of concurrently tracked zones (pages).
    pub tracked_zones: usize,
    /// Largest stride (in cache lines) tested by the pattern matcher.
    pub max_stride: usize,
    /// Maximum prefetches issued per access.
    pub degree: usize,
}

impl Default for AmpmConfig {
    fn default() -> Self {
        Self {
            tracked_zones: 64,
            max_stride: 16,
            degree: 2,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Zone {
    page: PageAddr,
    accessed: u64,
    prefetched: u64,
    last_use: u64,
}

/// The Access Map Pattern Matching prefetcher.
///
/// # Example
///
/// ```
/// use dspatch_prefetchers::{AmpmConfig, AmpmPrefetcher};
/// use dspatch_types::{AccessKind, Addr, MemoryAccess, Pc, PrefetchContext, Prefetcher};
///
/// let mut ampm = AmpmPrefetcher::new(AmpmConfig::default());
/// let ctx = PrefetchContext::default();
/// let mut issued = Vec::new();
/// for off in 0..16u64 {
///     let a = MemoryAccess::new(Pc::new(1), Addr::new(off * 64), AccessKind::Load);
///     issued.extend(ampm.collect_requests(&a, &ctx));
/// }
/// assert!(!issued.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AmpmPrefetcher {
    config: AmpmConfig,
    zones: Vec<Zone>,
    clock: u64,
}

impl AmpmPrefetcher {
    /// Creates an AMPM instance.
    ///
    /// # Panics
    ///
    /// Panics if any configuration parameter is zero or the stride exceeds
    /// the page.
    pub fn new(config: AmpmConfig) -> Self {
        assert!(config.tracked_zones > 0, "must track at least one zone");
        assert!(
            config.max_stride > 0 && config.max_stride < LINES_PER_PAGE,
            "stride must be in 1..64"
        );
        assert!(config.degree > 0, "degree must be positive");
        Self {
            config,
            zones: Vec::with_capacity(config.tracked_zones),
            clock: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &AmpmConfig {
        &self.config
    }

    fn zone_index(&mut self, page: PageAddr) -> usize {
        if let Some(i) = self.zones.iter().position(|z| z.page == page) {
            return i;
        }
        let zone = Zone {
            page,
            accessed: 0,
            prefetched: 0,
            last_use: self.clock,
        };
        if self.zones.len() < self.config.tracked_zones {
            self.zones.push(zone);
            self.zones.len() - 1
        } else {
            let victim = self
                .zones
                .iter()
                .enumerate()
                .min_by_key(|(_, z)| z.last_use)
                .map(|(i, _)| i)
                .expect("zone table is non-empty at capacity");
            self.zones[victim] = zone;
            victim
        }
    }
}

impl Prefetcher for AmpmPrefetcher {
    fn name(&self) -> &str {
        "AMPM"
    }

    fn on_access(&mut self, access: &MemoryAccess, _ctx: &PrefetchContext, out: &mut PrefetchSink) {
        self.clock += 1;
        let page = access.page();
        let offset = access.page_line_offset() as i64;
        let index = self.zone_index(page);
        let clock = self.clock;
        let zone = &mut self.zones[index];
        zone.last_use = clock;
        zone.accessed |= 1u64 << offset;
        let accessed = zone.accessed;
        let already_prefetched = zone.prefetched;

        let mut issued = 0usize;
        let covered =
            |map: u64, o: i64| (0..LINES_PER_PAGE as i64).contains(&o) && (map >> o) & 1 == 1;
        for direction in [1i64, -1] {
            for k in 1..=self.config.max_stride as i64 {
                if issued >= self.config.degree {
                    break;
                }
                let stride = k * direction;
                let target = offset + stride;
                if !(0..LINES_PER_PAGE as i64).contains(&target) {
                    continue;
                }
                if covered(accessed, offset - stride)
                    && covered(accessed, offset - 2 * stride)
                    && !covered(accessed | already_prefetched, target)
                {
                    out.push(
                        PrefetchRequest::new(page.line_at(target as usize))
                            .with_fill_level(FillLevel::L2),
                    );
                    issued += 1;
                    self.zones[index].prefetched |= 1u64 << target;
                }
            }
        }
    }

    fn storage_bits(&self) -> u64 {
        // Per zone: page tag (36 b) + 2 x 64-bit maps + LRU (8 b).
        self.config.tracked_zones as u64 * (36 + 128 + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspatch_types::{AccessKind, Addr, Pc};

    fn access(page: u64, off: u64) -> MemoryAccess {
        MemoryAccess::new(
            Pc::new(1),
            Addr::new(page * 4096 + off * 64),
            AccessKind::Load,
        )
    }

    fn drive(ampm: &mut AmpmPrefetcher, seq: &[(u64, u64)]) -> Vec<PrefetchRequest> {
        let ctx = PrefetchContext::default();
        seq.iter()
            .flat_map(|&(p, o)| ampm.collect_requests(&access(p, o), &ctx))
            .collect()
    }

    #[test]
    fn unit_stride_stream_prefetches_ahead() {
        let mut ampm = AmpmPrefetcher::new(AmpmConfig::default());
        let seq: Vec<(u64, u64)> = (0..12u64).map(|o| (3, o)).collect();
        let reqs = drive(&mut ampm, &seq);
        assert!(!reqs.is_empty());
        assert!(reqs.iter().all(|r| r.line.page() == PageAddr::new(3)));
    }

    #[test]
    fn strided_stream_prefetches_with_matching_stride() {
        let mut ampm = AmpmPrefetcher::new(AmpmConfig::default());
        let seq: Vec<(u64, u64)> = (0..10u64).map(|i| (5, i * 4)).collect();
        let reqs = drive(&mut ampm, &seq);
        assert!(!reqs.is_empty());
        for r in &reqs {
            assert_eq!(
                r.line.page_offset() % 4,
                0,
                "prefetches follow the +4 stride"
            );
        }
    }

    #[test]
    fn descending_stream_is_detected() {
        let mut ampm = AmpmPrefetcher::new(AmpmConfig::default());
        let seq: Vec<(u64, u64)> = (0..10u64).map(|i| (7, 60 - i * 2)).collect();
        let reqs = drive(&mut ampm, &seq);
        assert!(!reqs.is_empty());
        assert!(reqs.iter().any(|r| r.line.page_offset() < 44));
    }

    #[test]
    fn no_duplicate_prefetches_within_a_zone() {
        let mut ampm = AmpmPrefetcher::new(AmpmConfig::default());
        let seq: Vec<(u64, u64)> = (0..20u64).map(|o| (1, o)).collect();
        let reqs = drive(&mut ampm, &seq);
        let mut lines: Vec<u64> = reqs.iter().map(|r| r.line.as_u64()).collect();
        let before = lines.len();
        lines.sort_unstable();
        lines.dedup();
        assert_eq!(
            before,
            lines.len(),
            "each line is prefetched at most once per zone"
        );
    }

    #[test]
    fn degree_bounds_prefetches_per_access() {
        let mut ampm = AmpmPrefetcher::new(AmpmConfig {
            degree: 1,
            ..AmpmConfig::default()
        });
        let ctx = PrefetchContext::default();
        for o in 0..30u64 {
            let reqs = ampm.collect_requests(&access(2, o), &ctx);
            assert!(reqs.len() <= 1);
        }
    }

    #[test]
    fn zone_table_is_bounded() {
        let mut ampm = AmpmPrefetcher::new(AmpmConfig {
            tracked_zones: 8,
            ..AmpmConfig::default()
        });
        let seq: Vec<(u64, u64)> = (0..1000u64).map(|i| (i, i % 64)).collect();
        let _ = drive(&mut ampm, &seq);
        assert!(ampm.zones.len() <= 8);
    }
}
