//! Spatial Memory Streaming (SMS).
//!
//! SMS (Somogyi et al., ISCA 2006) records, per spatial region (2 KB by
//! default), which cache lines a *spatial generation* touches, and stores the
//! resulting bit-pattern in a Pattern History Table (PHT) indexed by a
//! signature of the trigger access (PC + offset within the region). When the
//! same signature triggers a new region, the stored pattern is replayed as
//! prefetches.
//!
//! The paper stresses two SMS properties DSPatch improves on: the large PHT
//! needed for coverage (16 K entries ≈ 88 KB, Figure 5 shows performance
//! halving at 256 entries / 3.5 KB) and the absence of any accuracy or
//! bandwidth feedback.

use dspatch_types::snapshot::{SnapshotError, SnapshotState, StateReader, StateWriter};
use dspatch_types::{
    FillLevel, MemoryAccess, Pc, PrefetchContext, PrefetchRequest, PrefetchSink, Prefetcher,
    CACHE_LINE_BYTES,
};

/// Configuration of the [`SmsPrefetcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmsConfig {
    /// Spatial region size in bytes (paper Table 3: 2 KB).
    pub region_bytes: usize,
    /// Active-generation (accumulation) table entries (paper Table 3: 64).
    pub accumulation_entries: usize,
    /// Filter-table entries (paper Table 3: 32).
    pub filter_entries: usize,
    /// Pattern-history-table entries (paper Table 3: 16 K; Figure 5 sweeps
    /// 16 K / 4 K / 1 K / 256).
    pub pht_entries: usize,
    /// PHT associativity (paper: 16-way).
    pub pht_ways: usize,
}

impl Default for SmsConfig {
    fn default() -> Self {
        Self {
            region_bytes: 2048,
            accumulation_entries: 64,
            filter_entries: 32,
            pht_entries: 16 * 1024,
            pht_ways: 16,
        }
    }
}

impl SmsConfig {
    /// A configuration identical to the default except for the PHT size.
    /// Used by the Figure 5 storage sweep and the iso-storage comparison of
    /// Figure 14 (256 entries ≈ 3.5 KB).
    pub fn with_pht_entries(pht_entries: usize) -> Self {
        Self {
            pht_entries,
            pht_ways: 16.min(pht_entries.max(1)),
            ..Self::default()
        }
    }

    fn lines_per_region(&self) -> usize {
        self.region_bytes / CACHE_LINE_BYTES
    }
}

/// A region being observed (in the filter table or accumulation table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Generation {
    region: u64,
    trigger_pc: Pc,
    trigger_offset: usize,
    pattern: u64,
    accesses: u32,
    last_use: u64,
}

/// One PHT way: a stored signature → pattern correlation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PhtEntry {
    tag: u64,
    pattern: u64,
    last_use: u64,
}

/// Per-run statistics (observability only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmsStats {
    /// Accesses observed.
    pub accesses: u64,
    /// Prefetch requests issued.
    pub prefetches: u64,
    /// Generations written back to the PHT.
    pub trained_generations: u64,
    /// Trigger accesses that found a PHT entry.
    pub pht_hits: u64,
}

/// The Spatial Memory Streaming prefetcher.
///
/// # Example
///
/// ```
/// use dspatch_prefetchers::{SmsConfig, SmsPrefetcher};
/// use dspatch_types::{AccessKind, Addr, MemoryAccess, Pc, PrefetchContext, Prefetcher};
///
/// let mut sms = SmsPrefetcher::new(SmsConfig::default());
/// let ctx = PrefetchContext::default();
/// let mut issued = Vec::new();
/// // The same PC touches the same offsets in many regions.
/// for region in 0..128u64 {
///     for off in [0u64, 3, 6, 9] {
///         let a = MemoryAccess::new(Pc::new(0x77), Addr::new(region * 2048 + off * 64), AccessKind::Load);
///         issued.extend(sms.collect_requests(&a, &ctx));
///     }
/// }
/// assert!(!issued.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SmsPrefetcher {
    config: SmsConfig,
    filter: Vec<Generation>,
    accumulation: Vec<Generation>,
    pht: Vec<Vec<PhtEntry>>,
    clock: u64,
    stats: SmsStats,
}

impl SmsPrefetcher {
    /// Creates an SMS instance.
    ///
    /// # Panics
    ///
    /// Panics if the region does not hold between 1 and 64 cache lines or if
    /// any table size is zero.
    pub fn new(config: SmsConfig) -> Self {
        let lines = config.region_bytes / CACHE_LINE_BYTES;
        assert!(
            (1..=64).contains(&lines),
            "region must hold 1..=64 cache lines, got {lines}"
        );
        assert!(
            config.accumulation_entries > 0,
            "accumulation table must be non-empty"
        );
        assert!(config.filter_entries > 0, "filter table must be non-empty");
        assert!(config.pht_entries > 0, "PHT must be non-empty");
        assert!(config.pht_ways > 0, "PHT associativity must be positive");
        let sets = (config.pht_entries / config.pht_ways).max(1);
        Self {
            filter: Vec::with_capacity(config.filter_entries),
            accumulation: Vec::with_capacity(config.accumulation_entries),
            // Build each bucket individually: cloning a Vec does not clone its
            // capacity, and the buckets must never reallocate on the access
            // hot path once built.
            pht: (0..sets)
                .map(|_| Vec::with_capacity(config.pht_ways))
                .collect(),
            clock: 0,
            stats: SmsStats::default(),
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SmsConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &SmsStats {
        &self.stats
    }

    fn region_of(&self, access: &MemoryAccess) -> (u64, usize) {
        // Region sizes are powers of two (2 KB in every paper
        // configuration); shift-and-mask avoids two hardware divides on the
        // per-access path.
        let addr = access.addr.as_u64();
        let bytes = self.config.region_bytes as u64;
        if bytes.is_power_of_two() {
            let shift = bytes.trailing_zeros();
            let region = addr >> shift;
            let offset = ((addr & (bytes - 1)) as usize) / CACHE_LINE_BYTES;
            (region, offset)
        } else {
            let region = addr / bytes;
            let offset = ((addr % bytes) as usize) / CACHE_LINE_BYTES;
            (region, offset)
        }
    }

    fn signature(&self, pc: Pc, offset: usize) -> u64 {
        pc.folded_xor(32) << 6 | offset as u64
    }

    fn pht_set(&self, signature: u64) -> usize {
        // Multiply-shift hash: take the high half of the product so that
        // aligned signatures (which share trailing zero bits) still spread
        // across all sets.
        let mixed = signature.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((mixed >> 32) as usize) % self.pht.len()
    }

    fn pht_lookup(&mut self, signature: u64) -> Option<u64> {
        let set = self.pht_set(signature);
        let clock = self.clock;
        let entry = self.pht[set].iter_mut().find(|e| e.tag == signature)?;
        entry.last_use = clock;
        Some(entry.pattern)
    }

    fn pht_store(&mut self, signature: u64, pattern: u64) {
        if pattern == 0 {
            return;
        }
        let set = self.pht_set(signature);
        let ways = self.config.pht_ways;
        let clock = self.clock;
        let bucket = &mut self.pht[set];
        if let Some(entry) = bucket.iter_mut().find(|e| e.tag == signature) {
            entry.pattern = pattern;
            entry.last_use = clock;
            return;
        }
        let entry = PhtEntry {
            tag: signature,
            pattern,
            last_use: clock,
        };
        if bucket.len() < ways {
            bucket.push(entry);
        } else {
            let victim = bucket
                .iter_mut()
                .min_by_key(|e| e.last_use)
                .expect("bucket is non-empty at capacity");
            *victim = entry;
        }
        self.stats.trained_generations += 1;
    }

    fn end_generation(&mut self, generation: Generation) {
        let signature = self.signature(generation.trigger_pc, generation.trigger_offset);
        self.pht_store(signature, generation.pattern);
    }

    fn find_generation(&mut self, region: u64) -> Option<&mut Generation> {
        if let Some(i) = self.accumulation.iter().position(|g| g.region == region) {
            return self.accumulation.get_mut(i);
        }
        if let Some(i) = self.filter.iter().position(|g| g.region == region) {
            // Second access to the region: promote from the filter table to
            // the accumulation table.
            let generation = self.filter.swap_remove(i);
            if self.accumulation.len() >= self.config.accumulation_entries {
                let victim = self
                    .accumulation
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, g)| g.last_use)
                    .map(|(i, _)| i)
                    .expect("accumulation table is non-empty at capacity");
                let evicted = self.accumulation.swap_remove(victim);
                self.end_generation(evicted);
            }
            self.accumulation.push(generation);
            let last = self.accumulation.len() - 1;
            return self.accumulation.get_mut(last);
        }
        None
    }

    fn start_generation(&mut self, region: u64, pc: Pc, offset: usize) {
        if self.filter.len() >= self.config.filter_entries {
            // Single-access regions age out of the filter table silently.
            let victim = self
                .filter
                .iter()
                .enumerate()
                .min_by_key(|(_, g)| g.last_use)
                .map(|(i, _)| i)
                .expect("filter table is non-empty at capacity");
            self.filter.swap_remove(victim);
        }
        self.filter.push(Generation {
            region,
            trigger_pc: pc,
            trigger_offset: offset,
            pattern: 1u64 << offset,
            accesses: 1,
            last_use: self.clock,
        });
    }

    fn lines_per_region(&self) -> usize {
        self.config.lines_per_region()
    }
}

impl Prefetcher for SmsPrefetcher {
    fn name(&self) -> &str {
        "SMS"
    }

    fn on_access(&mut self, access: &MemoryAccess, _ctx: &PrefetchContext, out: &mut PrefetchSink) {
        self.stats.accesses += 1;
        self.clock += 1;
        let (region, offset) = self.region_of(access);
        let clock = self.clock;

        if let Some(generation) = self.find_generation(region) {
            generation.pattern |= 1u64 << offset;
            generation.accesses += 1;
            generation.last_use = clock;
            return;
        }

        // Trigger access: start a new generation and replay any stored
        // pattern for this (PC, offset) signature.
        self.start_generation(region, access.pc, offset);
        let signature = self.signature(access.pc, offset);
        let Some(pattern) = self.pht_lookup(signature) else {
            return;
        };
        self.stats.pht_hits += 1;
        let region_base_line = region * self.lines_per_region() as u64;
        let issued_before = out.len();
        for i in (0..self.lines_per_region()).filter(|&i| i != offset && (pattern >> i) & 1 == 1) {
            out.push(
                PrefetchRequest::new(dspatch_types::LineAddr::new(region_base_line + i as u64))
                    .with_fill_level(FillLevel::L2),
            );
        }
        self.stats.prefetches += (out.len() - issued_before) as u64;
    }

    fn storage_bits(&self) -> u64 {
        let lines = self.lines_per_region() as u64;
        // PHT entry: tag (~38 b signature tag) + pattern + LRU (4 b).
        let pht_entry = 38 + lines + 4;
        // Generation entry: region tag (36 b) + PC (32 b) + offset (6 b) + pattern.
        let gen_entry = 36 + 32 + 6 + lines;
        self.config.pht_entries as u64 * pht_entry
            + (self.config.accumulation_entries + self.config.filter_entries) as u64 * gen_entry
    }
}

fn save_generations(generations: &[Generation], writer: &mut StateWriter) {
    writer.put_len(generations.len());
    for generation in generations {
        writer.put_u64(generation.region);
        writer.put_u64(generation.trigger_pc.as_u64());
        writer.put_usize(generation.trigger_offset);
        writer.put_u64(generation.pattern);
        writer.put_u32(generation.accesses);
        writer.put_u64(generation.last_use);
    }
}

fn load_generations(
    generations: &mut Vec<Generation>,
    reader: &mut StateReader<'_>,
) -> Result<(), SnapshotError> {
    let len = reader.get_len()?;
    generations.clear();
    for _ in 0..len {
        generations.push(Generation {
            region: reader.get_u64()?,
            trigger_pc: Pc::new(reader.get_u64()?),
            trigger_offset: reader.get_usize()?,
            pattern: reader.get_u64()?,
            accesses: reader.get_u32()?,
            last_use: reader.get_u64()?,
        });
    }
    Ok(())
}

impl SnapshotState for SmsPrefetcher {
    fn snapshot_tag(&self) -> &'static str {
        "sms"
    }

    fn save_state(&self, writer: &mut StateWriter) -> Result<(), SnapshotError> {
        save_generations(&self.filter, writer);
        save_generations(&self.accumulation, writer);
        writer.put_len(self.pht.len());
        for bucket in &self.pht {
            writer.put_len(bucket.len());
            for entry in bucket {
                writer.put_u64(entry.tag);
                writer.put_u64(entry.pattern);
                writer.put_u64(entry.last_use);
            }
        }
        writer.put_u64(self.clock);
        writer.put_u64(self.stats.accesses);
        writer.put_u64(self.stats.prefetches);
        writer.put_u64(self.stats.trained_generations);
        writer.put_u64(self.stats.pht_hits);
        Ok(())
    }

    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        load_generations(&mut self.filter, reader)?;
        load_generations(&mut self.accumulation, reader)?;
        let sets = reader.get_len()?;
        if sets != self.pht.len() {
            return Err(SnapshotError::Invalid(format!(
                "PHT set count {} does not match configured {}",
                sets,
                self.pht.len()
            )));
        }
        // Refill the existing buckets in place: each was built with exactly
        // `pht_ways` capacity and must never reallocate on the access path.
        for bucket in &mut self.pht {
            let ways = reader.get_len()?;
            if ways > bucket.capacity() {
                return Err(SnapshotError::Invalid(format!(
                    "PHT bucket holds {} ways but only {} are configured",
                    ways,
                    bucket.capacity()
                )));
            }
            bucket.clear();
            for _ in 0..ways {
                bucket.push(PhtEntry {
                    tag: reader.get_u64()?,
                    pattern: reader.get_u64()?,
                    last_use: reader.get_u64()?,
                });
            }
        }
        self.clock = reader.get_u64()?;
        self.stats.accesses = reader.get_u64()?;
        self.stats.prefetches = reader.get_u64()?;
        self.stats.trained_generations = reader.get_u64()?;
        self.stats.pht_hits = reader.get_u64()?;
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

    fn train_regions(
        sms: &mut SmsPrefetcher,
        pc: u64,
        regions: std::ops::Range<u64>,
        offsets: &[u64],
    ) -> Vec<PrefetchRequest> {
        let ctx = PrefetchContext::default();
        let mut out = Vec::new();
        for r in regions {
            for &o in offsets {
                out.extend(sms.collect_requests(&access(pc, r * 2048 + o * 64), &ctx));
            }
        }
        out
    }

    #[test]
    fn replays_learnt_pattern_on_matching_trigger() {
        let mut sms = SmsPrefetcher::new(SmsConfig::default());
        let reqs = train_regions(&mut sms, 0x42, 0..256, &[1, 4, 7, 10]);
        assert!(
            !reqs.is_empty(),
            "repeated (PC, offset) signatures must replay patterns"
        );
        assert!(sms.stats().pht_hits > 0);
        // Replayed prefetches must stay inside one 2 KB region (32 lines).
        for r in &reqs {
            let offset_in_region = r.line.as_u64() % 32;
            assert!(offset_in_region < 32);
        }
    }

    #[test]
    fn different_trigger_offset_is_a_different_signature() {
        let mut sms = SmsPrefetcher::new(SmsConfig::default());
        let _ = train_regions(&mut sms, 0x42, 0..128, &[1, 4, 7]);
        // Same PC but triggering at offset 9 (unseen signature): no replay.
        let ctx = PrefetchContext::default();
        let reqs = sms.collect_requests(&access(0x42, 100_000 * 2048 + 9 * 64), &ctx);
        assert!(reqs.is_empty());
    }

    #[test]
    fn pattern_accumulates_before_training() {
        let mut sms = SmsPrefetcher::new(SmsConfig::default());
        let ctx = PrefetchContext::default();
        // Touch a single region twice so it reaches the accumulation table,
        // then flood other regions so it is eventually evicted and trained.
        let _ = sms.collect_requests(&access(7, 0), &ctx);
        let _ = sms.collect_requests(&access(7, 5 * 64), &ctx);
        assert_eq!(sms.stats().trained_generations, 0);
        let _ = train_regions(&mut sms, 9, 10..200, &[0, 1]);
        assert!(sms.stats().trained_generations > 0);
    }

    #[test]
    fn small_pht_loses_signatures() {
        let offsets = [0u64, 3, 6, 9, 12];
        // Train many distinct PCs so a 256-entry PHT thrashes while 16 K holds them.
        let mut big = SmsPrefetcher::new(SmsConfig::default());
        let mut small = SmsPrefetcher::new(SmsConfig::with_pht_entries(64));
        let ctx = PrefetchContext::default();
        let mut big_hits = 0usize;
        let mut small_hits = 0usize;
        for round in 0..4u64 {
            for pc in 0..256u64 {
                let region = round * 100_000 + pc * 131;
                for &o in offsets.iter() {
                    let byte = region * 2048 + o * 64;
                    big_hits += big
                        .collect_requests(&access(0x1000 + pc * 4, byte), &ctx)
                        .len();
                    small_hits += small
                        .collect_requests(&access(0x1000 + pc * 4, byte), &ctx)
                        .len();
                }
            }
        }
        assert!(
            big_hits > small_hits,
            "a larger PHT must retain more signatures (16K: {big_hits}, 64: {small_hits})"
        );
    }

    #[test]
    fn storage_matches_figure5_scale() {
        let big = SmsPrefetcher::new(SmsConfig::default());
        let small = SmsPrefetcher::new(SmsConfig::with_pht_entries(256));
        let big_kb = big.storage_bits() as f64 / 8.0 / 1024.0;
        let small_kb = small.storage_bits() as f64 / 8.0 / 1024.0;
        assert!(
            big_kb > 80.0 && big_kb < 200.0,
            "16K-entry SMS should be tens of KB, got {big_kb:.1}"
        );
        assert!(
            small_kb < 6.0,
            "256-entry SMS should be a few KB, got {small_kb:.1}"
        );
    }

    #[test]
    fn region_size_is_configurable() {
        let mut sms = SmsPrefetcher::new(SmsConfig {
            region_bytes: 4096,
            ..SmsConfig::default()
        });
        let reqs = train_regions(&mut sms, 0x11, 0..128, &[0, 40]);
        // Offsets up to 63 are representable in a 4 KB region.
        assert!(reqs.iter().all(|r| r.line.as_u64() % 64 < 64));
    }

    #[test]
    #[should_panic(expected = "region must hold")]
    fn oversized_region_is_rejected() {
        let _ = SmsPrefetcher::new(SmsConfig {
            region_bytes: 8192,
            ..SmsConfig::default()
        });
    }
}
