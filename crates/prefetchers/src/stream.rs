//! A simple sequential streaming prefetcher.
//!
//! The paper's appendix uses "an aggressive but fairly inaccurate streaming
//! prefetcher" (after Chen & Baer, IEEE TC 1995) to study how much cache
//! pollution inaccurate prefetches actually cause (Figure 20). This module
//! provides that prefetcher: on every access it prefetches the next
//! `degree` sequential cache lines, optionally detecting descending streams.

use dspatch_types::snapshot::{SnapshotError, SnapshotState, StateReader, StateWriter};
use dspatch_types::{
    FillLevel, MemoryAccess, PageAddr, PrefetchContext, PrefetchRequest, PrefetchSink, Prefetcher,
};

/// Configuration of the [`StreamPrefetcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Number of sequential lines prefetched per access.
    pub degree: usize,
    /// Whether prefetches are confined to the triggering 4 KB page.
    pub stop_at_page_boundary: bool,
    /// Whether descending access streams are detected and followed.
    pub bidirectional: bool,
    /// Cache level prefetched lines fill into.
    pub fill_level: FillLevel,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            degree: 4,
            stop_at_page_boundary: true,
            bidirectional: true,
            fill_level: FillLevel::L2,
        }
    }
}

/// An aggressive next-line streaming prefetcher.
///
/// # Example
///
/// ```
/// use dspatch_prefetchers::{StreamConfig, StreamPrefetcher};
/// use dspatch_types::{AccessKind, Addr, MemoryAccess, Pc, PrefetchContext, Prefetcher};
///
/// let mut pf = StreamPrefetcher::new(StreamConfig::default());
/// let a = MemoryAccess::new(Pc::new(1), Addr::new(0x1000), AccessKind::Load);
/// let reqs = pf.collect_requests(&a, &PrefetchContext::default());
/// assert_eq!(reqs.len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamPrefetcher {
    config: StreamConfig,
    /// Last observed line per recently seen page, to pick a direction.
    recent: Vec<(PageAddr, usize)>,
}

impl StreamPrefetcher {
    /// Creates a streaming prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero.
    pub fn new(config: StreamConfig) -> Self {
        assert!(config.degree > 0, "stream degree must be positive");
        Self {
            config,
            recent: Vec::with_capacity(16),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    fn direction_for(&mut self, page: PageAddr, offset: usize) -> i64 {
        let slot = self.recent.iter_mut().find(|(p, _)| *p == page);
        match slot {
            Some((_, last)) => {
                let dir = if self.config.bidirectional && offset < *last {
                    -1
                } else {
                    1
                };
                *last = offset;
                dir
            }
            None => {
                if self.recent.len() >= 16 {
                    self.recent.remove(0);
                }
                self.recent.push((page, offset));
                1
            }
        }
    }
}

impl Prefetcher for StreamPrefetcher {
    fn name(&self) -> &str {
        "streamer"
    }

    fn on_access(&mut self, access: &MemoryAccess, _ctx: &PrefetchContext, out: &mut PrefetchSink) {
        let line = access.line();
        let page = access.page();
        let offset = access.page_line_offset();
        let direction = self.direction_for(page, offset);
        for k in 1..=self.config.degree as i64 {
            let target = line.offset_by(direction * k);
            if self.config.stop_at_page_boundary && target.page() != page {
                break;
            }
            out.push(PrefetchRequest::new(target).with_fill_level(self.config.fill_level));
        }
    }

    fn storage_bits(&self) -> u64 {
        // 16 recent-page slots x (page tag 36b + offset 6b + direction 1b).
        16 * (36 + 6 + 1)
    }
}

impl SnapshotState for StreamPrefetcher {
    fn snapshot_tag(&self) -> &'static str {
        "stream"
    }

    fn save_state(&self, writer: &mut StateWriter) -> Result<(), SnapshotError> {
        writer.put_len(self.recent.len());
        for (page, offset) in &self.recent {
            writer.put_u64(page.as_u64());
            writer.put_usize(*offset);
        }
        Ok(())
    }

    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let len = reader.get_len()?;
        self.recent.clear();
        for _ in 0..len {
            let page = PageAddr::new(reader.get_u64()?);
            let offset = reader.get_usize()?;
            self.recent.push((page, offset));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspatch_types::{AccessKind, Addr, Pc};

    fn access(byte: u64) -> MemoryAccess {
        MemoryAccess::new(Pc::new(7), Addr::new(byte), AccessKind::Load)
    }

    #[test]
    fn prefetches_degree_sequential_lines() {
        let mut pf = StreamPrefetcher::new(StreamConfig::default());
        let reqs = pf.collect_requests(&access(0x2000), &PrefetchContext::default());
        assert_eq!(reqs.len(), 4);
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.line, Addr::new(0x2000).line().offset_by(i as i64 + 1));
        }
    }

    #[test]
    fn stops_at_page_boundary_when_configured() {
        let mut pf = StreamPrefetcher::new(StreamConfig::default());
        // Last line of a page: nothing to prefetch without crossing the page.
        let reqs = pf.collect_requests(&access(0x1000 - 64), &PrefetchContext::default());
        assert!(reqs.is_empty());
    }

    #[test]
    fn crosses_page_boundary_when_allowed() {
        let mut pf = StreamPrefetcher::new(StreamConfig {
            stop_at_page_boundary: false,
            ..StreamConfig::default()
        });
        let reqs = pf.collect_requests(&access(0x1000 - 64), &PrefetchContext::default());
        assert_eq!(reqs.len(), 4);
    }

    #[test]
    fn follows_descending_streams() {
        let mut pf = StreamPrefetcher::new(StreamConfig::default());
        let ctx = PrefetchContext::default();
        let _ = pf.collect_requests(&access(0x1000 + 30 * 64), &ctx);
        let reqs = pf.collect_requests(&access(0x1000 + 20 * 64), &ctx);
        assert!(!reqs.is_empty());
        assert!(reqs
            .iter()
            .all(|r| r.line < Addr::new(0x1000 + 20 * 64).line()));
    }

    #[test]
    fn unidirectional_config_ignores_descending_hint() {
        let mut pf = StreamPrefetcher::new(StreamConfig {
            bidirectional: false,
            ..StreamConfig::default()
        });
        let ctx = PrefetchContext::default();
        let _ = pf.collect_requests(&access(0x1000 + 30 * 64), &ctx);
        let reqs = pf.collect_requests(&access(0x1000 + 20 * 64), &ctx);
        assert!(reqs
            .iter()
            .all(|r| r.line > Addr::new(0x1000 + 20 * 64).line()));
    }

    #[test]
    #[should_panic(expected = "degree must be positive")]
    fn zero_degree_rejected() {
        let _ = StreamPrefetcher::new(StreamConfig {
            degree: 0,
            ..StreamConfig::default()
        });
    }
}
