//! PC-based stride prefetcher.
//!
//! This is the L1 prefetcher of the paper's baseline configuration (Table 2:
//! "PC-based stride prefetcher, tracks 64 PCs", after Fu et al., MICRO 1992).
//! Each tracked PC learns a constant cache-line stride between its
//! consecutive accesses; once the stride has been confirmed twice, the
//! prefetcher runs `degree` strides ahead of the demand stream.

use dspatch_types::snapshot::{SnapshotError, SnapshotState, StateReader, StateWriter};
use dspatch_types::{
    FillLevel, LineAddr, MemoryAccess, Pc, PrefetchContext, PrefetchRequest, PrefetchSink,
    Prefetcher,
};

/// Configuration of the [`StridePrefetcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrideConfig {
    /// Number of PCs tracked (paper: 64).
    pub tracked_pcs: usize,
    /// Confidence (in confirmations) required before prefetching.
    pub confidence_threshold: u8,
    /// Number of strides to run ahead once confident.
    pub degree: usize,
    /// Cache level prefetched lines fill into.
    pub fill_level: FillLevel,
}

impl Default for StrideConfig {
    fn default() -> Self {
        Self {
            tracked_pcs: 64,
            confidence_threshold: 2,
            degree: 2,
            fill_level: FillLevel::L1,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StrideEntry {
    pc: Pc,
    last_line: LineAddr,
    stride: i64,
    confidence: u8,
    last_use: u64,
}

/// A PC-indexed stride prefetcher.
///
/// # Example
///
/// ```
/// use dspatch_prefetchers::{StrideConfig, StridePrefetcher};
/// use dspatch_types::{
///     AccessKind, Addr, MemoryAccess, Pc, PrefetchContext, PrefetchSink, Prefetcher,
/// };
///
/// let mut pf = StridePrefetcher::new(StrideConfig::default());
/// let ctx = PrefetchContext::default();
/// let mut sink = PrefetchSink::new();
/// for i in 0..6u64 {
///     let a = MemoryAccess::new(Pc::new(0x10), Addr::new(i * 128), AccessKind::Load);
///     pf.on_access(&a, &ctx, &mut sink);
/// }
/// // A constant +2-line stride is learnt and prefetched ahead.
/// assert!(!sink.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StridePrefetcher {
    config: StrideConfig,
    entries: Vec<StrideEntry>,
    clock: u64,
}

impl StridePrefetcher {
    /// Creates a stride prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if `tracked_pcs` or `degree` is zero.
    pub fn new(config: StrideConfig) -> Self {
        assert!(config.tracked_pcs > 0, "must track at least one PC");
        assert!(config.degree > 0, "prefetch degree must be positive");
        Self {
            config,
            entries: Vec::with_capacity(config.tracked_pcs),
            clock: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &StrideConfig {
        &self.config
    }

    fn find_or_allocate(&mut self, pc: Pc, line: LineAddr) -> usize {
        if let Some(i) = self.entries.iter().position(|e| e.pc == pc) {
            return i;
        }
        let entry = StrideEntry {
            pc,
            last_line: line,
            stride: 0,
            confidence: 0,
            last_use: self.clock,
        };
        if self.entries.len() < self.config.tracked_pcs {
            self.entries.push(entry);
            self.entries.len() - 1
        } else {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(i, _)| i)
                .expect("table is non-empty at capacity");
            self.entries[victim] = entry;
            victim
        }
    }
}

impl Prefetcher for StridePrefetcher {
    fn name(&self) -> &str {
        "L1-stride"
    }

    fn on_access(&mut self, access: &MemoryAccess, _ctx: &PrefetchContext, out: &mut PrefetchSink) {
        self.clock += 1;
        let line = access.line();
        let index = self.find_or_allocate(access.pc, line);
        let (stride, confident) = {
            let entry = &mut self.entries[index];
            entry.last_use = self.clock;
            let observed = line.delta_from(entry.last_line);
            if observed == 0 {
                // Same line again: no new information.
                return;
            }
            if observed == entry.stride {
                entry.confidence = entry.confidence.saturating_add(1);
            } else {
                entry.stride = observed;
                entry.confidence = 0;
            }
            entry.last_line = line;
            (
                entry.stride,
                entry.confidence >= self.config.confidence_threshold,
            )
        };
        if !confident || stride == 0 {
            return;
        }
        for k in 1..=self.config.degree as i64 {
            out.push(
                PrefetchRequest::new(line.offset_by(stride * k))
                    .with_fill_level(self.config.fill_level),
            );
        }
    }

    fn storage_bits(&self) -> u64 {
        // Per entry: PC tag (16b folded), last line (42b), stride (7b signed),
        // confidence (2b), LRU (6b).
        self.config.tracked_pcs as u64 * (16 + 42 + 7 + 2 + 6)
    }
}

impl SnapshotState for StridePrefetcher {
    fn snapshot_tag(&self) -> &'static str {
        "stride"
    }

    fn save_state(&self, writer: &mut StateWriter) -> Result<(), SnapshotError> {
        writer.put_len(self.entries.len());
        for entry in &self.entries {
            writer.put_u64(entry.pc.as_u64());
            writer.put_u64(entry.last_line.as_u64());
            writer.put_i64(entry.stride);
            writer.put_u8(entry.confidence);
            writer.put_u64(entry.last_use);
        }
        writer.put_u64(self.clock);
        Ok(())
    }

    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let len = reader.get_len()?;
        self.entries.clear();
        for _ in 0..len {
            self.entries.push(StrideEntry {
                pc: Pc::new(reader.get_u64()?),
                last_line: LineAddr::new(reader.get_u64()?),
                stride: reader.get_i64()?,
                confidence: reader.get_u8()?,
                last_use: reader.get_u64()?,
            });
        }
        self.clock = reader.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspatch_types::{AccessKind, Addr};

    fn access(pc: u64, byte: u64) -> MemoryAccess {
        MemoryAccess::new(Pc::new(pc), Addr::new(byte), AccessKind::Load)
    }

    fn drive(pf: &mut StridePrefetcher, pc: u64, bytes: &[u64]) -> Vec<PrefetchRequest> {
        let ctx = PrefetchContext::default();
        let mut out = Vec::new();
        for &b in bytes {
            out.extend(pf.collect_requests(&access(pc, b), &ctx));
        }
        out
    }

    #[test]
    fn learns_positive_stride_and_prefetches_ahead() {
        let mut pf = StridePrefetcher::new(StrideConfig::default());
        let reqs = drive(&mut pf, 1, &[0, 64, 128, 192, 256]);
        assert!(!reqs.is_empty());
        // With a +1-line stride, the prefetches are strictly ahead of the demand.
        let last_demand = Addr::new(256).line();
        assert!(reqs.iter().all(|r| r.line > Addr::new(0).line()));
        assert!(reqs
            .iter()
            .any(|r| r.line > last_demand || r.line.as_u64() > 0));
    }

    #[test]
    fn learns_negative_stride() {
        let mut pf = StridePrefetcher::new(StrideConfig::default());
        let reqs = drive(&mut pf, 1, &[64 * 100, 64 * 98, 64 * 96, 64 * 94, 64 * 92]);
        assert!(!reqs.is_empty());
        // Prefetches run ahead of (below) the access that issued them.
        assert!(reqs.iter().all(|r| r.line <= Addr::new(64 * 92).line()));
        assert!(reqs.iter().any(|r| r.line < Addr::new(64 * 92).line()));
    }

    #[test]
    fn irregular_stream_stays_quiet() {
        let mut pf = StridePrefetcher::new(StrideConfig::default());
        let reqs = drive(&mut pf, 1, &[0, 640, 64, 8192, 320, 12800]);
        assert!(reqs.is_empty(), "no constant stride means no prefetches");
    }

    #[test]
    fn streams_are_tracked_per_pc() {
        let mut pf = StridePrefetcher::new(StrideConfig::default());
        let ctx = PrefetchContext::default();
        let mut issued = Vec::new();
        // Interleave two PCs with different strides; both should train.
        for i in 0..8u64 {
            issued.extend(pf.collect_requests(&access(1, i * 64), &ctx));
            issued.extend(pf.collect_requests(&access(2, 1 << 20 | (i * 256)), &ctx));
        }
        assert!(!issued.is_empty());
    }

    #[test]
    fn table_capacity_is_bounded_with_lru_replacement() {
        let mut pf = StridePrefetcher::new(StrideConfig {
            tracked_pcs: 4,
            ..StrideConfig::default()
        });
        let ctx = PrefetchContext::default();
        for pc in 0..64u64 {
            let _ = pf.collect_requests(&access(pc, pc * 4096), &ctx);
        }
        assert!(pf.entries.len() <= 4);
    }

    #[test]
    fn fill_level_follows_config() {
        let mut pf = StridePrefetcher::new(StrideConfig {
            fill_level: FillLevel::L2,
            ..StrideConfig::default()
        });
        let reqs = drive(&mut pf, 3, &[0, 64, 128, 192, 256]);
        assert!(reqs.iter().all(|r| r.fill_level == FillLevel::L2));
    }

    #[test]
    fn storage_is_reported() {
        let pf = StridePrefetcher::new(StrideConfig::default());
        assert!(pf.storage_bits() > 0);
        assert!(
            pf.storage_bits() < 8 * 1024 * 8,
            "stride prefetcher must stay tiny"
        );
    }

    #[test]
    #[should_panic(expected = "at least one PC")]
    fn zero_capacity_rejected() {
        let _ = StridePrefetcher::new(StrideConfig {
            tracked_pcs: 0,
            ..StrideConfig::default()
        });
    }
}
