//! Set-associative caches with prefetch metadata.
//!
//! Every level of the hierarchy uses the same structure: physically-indexed
//! sets of ways with true-LRU replacement. Each resident line carries the
//! metadata the coverage/accuracy/pollution accounting needs: whether it was
//! brought in by a prefetch, whether a demand access has used it since, and
//! whether it was inserted at low priority (DSPatch's pollution-bounding
//! hint, paper Section 3.6). Low-priority fills are inserted near the LRU
//! position, standing in for the prefetch-aware dead-block-oriented LLC
//! policy of Table 2.

use dspatch_types::{LineAddr, CACHE_LINE_BYTES};

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Level name ("L1D", "L2", "LLC") used in reports.
    pub name: String,
    /// Capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Round-trip hit latency in core cycles.
    pub latency: u64,
    /// Miss-status-holding registers (bounds outstanding misses).
    pub mshrs: usize,
}

impl CacheConfig {
    /// Creates a cache configuration.
    pub fn new(name: &str, size_bytes: usize, ways: usize, latency: u64, mshrs: usize) -> Self {
        Self {
            name: name.to_owned(),
            size_bytes,
            ways,
            latency,
            mshrs,
        }
    }

    /// Number of sets implied by the geometry, rounded **up** to a power of
    /// two so set selection is a mask instead of a `%` on the lookup hot
    /// path. All of the paper's geometries are powers of two already; an
    /// exotic non-power-of-two configuration gains a little extra capacity
    /// rather than being rejected.
    pub fn sets(&self) -> usize {
        (self.size_bytes / CACHE_LINE_BYTES / self.ways)
            .max(1)
            .next_power_of_two()
    }

    /// The geometry the cache will actually be built with, including the
    /// effect of the power-of-two set rounding.
    pub fn geometry(&self) -> CacheGeometry {
        let sets = self.sets();
        let effective_bytes = sets * self.ways * CACHE_LINE_BYTES;
        CacheGeometry {
            name: self.name.clone(),
            requested_bytes: self.size_bytes,
            ways: self.ways,
            sets,
            effective_bytes,
            rounded: effective_bytes != self.size_bytes,
        }
    }

    /// Validates the geometry and returns what will actually be built.
    ///
    /// Set counts that are not powers of two are rounded **up** by
    /// [`CacheConfig::sets`]; the returned [`CacheGeometry`] makes that
    /// silent capacity inflation visible (`rounded` plus the effective
    /// sets/bytes), and the same record is echoed into
    /// [`crate::stats::SimResult::cache_geometry`] so no report can quote a
    /// requested capacity the simulation didn't actually model.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid parameter.
    pub fn validate(&self) -> Result<CacheGeometry, String> {
        if self.size_bytes < CACHE_LINE_BYTES {
            return Err(format!("{}: capacity smaller than one line", self.name));
        }
        if self.ways == 0 {
            return Err(format!("{}: associativity must be positive", self.name));
        }
        if !self.size_bytes.is_multiple_of(CACHE_LINE_BYTES * self.ways) {
            return Err(format!(
                "{}: capacity must be a multiple of ways x line size",
                self.name
            ));
        }
        Ok(self.geometry())
    }
}

/// The effective geometry of one cache level: what [`Cache::new`] actually
/// builds after [`CacheConfig::sets`] rounds the set count up to a power of
/// two. Returned by [`CacheConfig::validate`] and echoed per level into
/// [`crate::stats::SimResult`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Level name from the configuration ("L1D", "L2", "LLC").
    pub name: String,
    /// Capacity the configuration asked for, in bytes.
    pub requested_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Effective (power-of-two) set count.
    pub sets: usize,
    /// Capacity actually modeled: `sets * ways * 64 B`.
    pub effective_bytes: usize,
    /// Whether rounding changed the capacity (always `false` for the
    /// paper's own power-of-two geometries).
    pub rounded: bool,
}

/// Metadata attached to a resident line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineMeta {
    /// The line was filled by a prefetch (and not yet replaced by a demand
    /// fill).
    pub prefetched: bool,
    /// A demand access touched the line after it was filled.
    pub used: bool,
    /// The line was filled at low replacement priority.
    pub low_priority: bool,
}

/// Sentinel tag marking an unoccupied way. Real tags are line numbers
/// (byte address >> 6), which cannot reach `u64::MAX`.
const EMPTY_TAG: u64 = u64::MAX;

/// `prefetched` flag inside a packed stamp word.
const STAMP_PREFETCHED: u64 = 0b100;
/// `used` flag inside a packed stamp word.
const STAMP_USED: u64 = 0b010;
/// `low_priority` flag inside a packed stamp word.
const STAMP_LOW_PRIORITY: u64 = 0b001;
/// Bit position of the LRU clock inside a packed stamp word.
const STAMP_CLOCK_SHIFT: u32 = 3;

/// Packs an LRU clock value and a [`LineMeta`] into one word. Keeping both
/// in a single slab means a lookup hit or fill touches two arrays (tags +
/// stamps) instead of three — on the per-request hot path the simulator's
/// own memory traffic is what dominates.
#[inline]
const fn pack_stamp(clock: u64, meta: LineMeta) -> u64 {
    (clock << STAMP_CLOCK_SHIFT)
        | if meta.prefetched { STAMP_PREFETCHED } else { 0 }
        | if meta.used { STAMP_USED } else { 0 }
        | if meta.low_priority {
            STAMP_LOW_PRIORITY
        } else {
            0
        }
}

#[inline]
const fn unpack_meta(stamp: u64) -> LineMeta {
    LineMeta {
        prefetched: stamp & STAMP_PREFETCHED != 0,
        used: stamp & STAMP_USED != 0,
        low_priority: stamp & STAMP_LOW_PRIORITY != 0,
    }
}

/// An eviction produced by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The evicted line.
    pub line: LineAddr,
    /// Its metadata at eviction time.
    pub meta: LineMeta,
}

/// Hit/miss and prefetch-usefulness counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand lookups that hit.
    pub demand_hits: u64,
    /// Demand lookups that missed.
    pub demand_misses: u64,
    /// Lines filled by demand misses.
    pub demand_fills: u64,
    /// Lines filled by prefetches.
    pub prefetch_fills: u64,
    /// Demand hits on lines that were prefetched and not yet used.
    pub prefetch_first_uses: u64,
    /// Prefetched lines evicted without ever being used.
    pub prefetch_unused_evictions: u64,
}

impl CacheStats {
    /// Demand miss ratio in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.demand_hits + self.demand_misses;
        if total == 0 {
            0.0
        } else {
            self.demand_misses as f64 / total as f64
        }
    }
}

/// A set-associative, true-LRU cache.
///
/// Storage is a structure-of-arrays `sets × ways` arena (set-major) with a
/// power-of-two set count: the tag array is a dense `u64` slab, so a lookup
/// is one mask, one multiply and a scan of `ways` adjacent 8-byte tags (one
/// or two cache lines of simulator memory), touching the LRU/metadata
/// arrays only on a hit. Unoccupied ways hold `EMPTY_TAG`, which no real
/// line number (a 64-bit byte address shifted right by 6) can equal.
///
/// # Example
///
/// ```
/// use dspatch_sim::{Cache, CacheConfig};
/// use dspatch_types::LineAddr;
///
/// let mut cache = Cache::new(CacheConfig::new("L1D", 4096, 4, 5, 8));
/// assert!(!cache.demand_lookup(LineAddr::new(1)));
/// cache.fill(LineAddr::new(1), false, false);
/// assert!(cache.demand_lookup(LineAddr::new(1)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cache {
    config: CacheConfig,
    /// Line tags, `EMPTY_TAG` when unoccupied; set `s` occupies
    /// `tags[s*assoc..(s+1)*assoc]`, and the same indexing applies to
    /// `stamps`.
    tags: Vec<u64>,
    /// Packed LRU-clock + [`LineMeta`] words (see [`pack_stamp`]). Victim
    /// selection compares `stamp >> STAMP_CLOCK_SHIFT`, which orders
    /// identically to the clock values themselves.
    stamps: Vec<u64>,
    /// `sets - 1`, valid because the set count is a power of two.
    set_mask: usize,
    /// Associativity, denormalized from `config` for the indexing hot path.
    assoc: usize,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CacheConfig::validate`].
    pub fn new(config: CacheConfig) -> Self {
        config.validate().expect("invalid cache configuration");
        let sets = config.sets();
        debug_assert!(sets.is_power_of_two());
        let slots = sets * config.ways;
        Self {
            tags: vec![EMPTY_TAG; slots],
            stamps: vec![0; slots],
            set_mask: sets - 1,
            assoc: config.ways,
            clock: 0,
            stats: CacheStats::default(),
            config,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    #[inline]
    fn set_base(&self, line: LineAddr) -> usize {
        ((line.as_u64() as usize) & self.set_mask) * self.assoc
    }

    /// Index of `line` in the arena if resident.
    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        let base = self.set_base(line);
        let tag = line.as_u64();
        debug_assert_ne!(tag, EMPTY_TAG, "line aliases the empty-way sentinel");
        self.tags[base..base + self.assoc]
            .iter()
            .position(|&t| t == tag)
            .map(|i| base + i)
    }

    /// Returns whether `line` is resident, without touching LRU state or
    /// statistics.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Performs a demand lookup: updates LRU, marks prefetched lines as
    /// used, and records hit/miss statistics. Returns whether it hit.
    pub fn demand_lookup(&mut self, line: LineAddr) -> bool {
        self.demand_lookup_first_use(line).0
    }

    /// [`Cache::demand_lookup`] that also reports whether the hit was the
    /// first demand use of a prefetched line — the coverage-accounting
    /// signal the demand path previously reconstructed by sampling
    /// `prefetch_first_uses` around the call.
    pub fn demand_lookup_first_use(&mut self, line: LineAddr) -> (bool, bool) {
        self.clock += 1;
        if let Some(slot) = self.find(line) {
            let stamp = self.stamps[slot];
            let first_use = stamp & (STAMP_PREFETCHED | STAMP_USED) == STAMP_PREFETCHED;
            if first_use {
                self.stats.prefetch_first_uses += 1;
            }
            self.stamps[slot] = (self.clock << STAMP_CLOCK_SHIFT)
                | (stamp & !(u64::MAX << STAMP_CLOCK_SHIFT))
                | STAMP_USED;
            self.stats.demand_hits += 1;
            (true, first_use)
        } else {
            self.stats.demand_misses += 1;
            (false, false)
        }
    }

    /// Performs a prefetch lookup: returns whether the line is already
    /// resident, updating only the LRU position (prefetch probes do not
    /// count as demand traffic and do not mark lines used).
    pub fn prefetch_lookup(&mut self, line: LineAddr) -> bool {
        self.clock += 1;
        if let Some(slot) = self.find(line) {
            let meta_bits = self.stamps[slot] & !(u64::MAX << STAMP_CLOCK_SHIFT);
            self.stamps[slot] = (self.clock << STAMP_CLOCK_SHIFT) | meta_bits;
            true
        } else {
            false
        }
    }

    /// Fills `line` into the cache. `is_prefetch` marks prefetch fills;
    /// `low_priority` inserts near the LRU position instead of at MRU.
    /// Returns the eviction this fill caused, if any.
    pub fn fill(
        &mut self,
        line: LineAddr,
        is_prefetch: bool,
        low_priority: bool,
    ) -> Option<Eviction> {
        self.clock += 1;
        let clock = self.clock;
        let base = self.set_base(line);
        let tag = line.as_u64();
        let set_tags = &self.tags[base..base + self.assoc];

        // One pass over the set: find a resident copy, the first free way
        // and the LRU victim simultaneously (the victim scan is free here —
        // the stamp line is about to be touched anyway).
        let mut free_index = usize::MAX;
        let mut victim_index = base;
        let mut victim_lru = u64::MAX;
        for (i, &t) in set_tags.iter().enumerate() {
            if t == tag {
                // Already resident: a demand fill upgrades a prefetched line
                // to a demand line; a prefetch fill never downgrades.
                let meta_bits = self.stamps[base + i] & !(u64::MAX << STAMP_CLOCK_SHIFT);
                let used = if is_prefetch { 0 } else { STAMP_USED };
                self.stamps[base + i] = (clock << STAMP_CLOCK_SHIFT) | meta_bits | used;
                return None;
            }
            if t == EMPTY_TAG {
                if free_index == usize::MAX {
                    free_index = i;
                }
            } else if self.stamps[base + i] >> STAMP_CLOCK_SHIFT < victim_lru {
                victim_lru = self.stamps[base + i] >> STAMP_CLOCK_SHIFT;
                victim_index = base + i;
            }
        }

        if is_prefetch {
            self.stats.prefetch_fills += 1;
        } else {
            self.stats.demand_fills += 1;
        }

        // Low-priority fills are inserted with an old LRU stamp so they are
        // the next victims unless promoted by a demand hit.
        let lru_clock = if low_priority {
            clock.saturating_sub(1 << 20)
        } else {
            clock
        };
        let new_meta = LineMeta {
            prefetched: is_prefetch,
            used: false,
            low_priority,
        };

        // A free way wins outright (matching the seed's fill-before-replace
        // order, since free ways only exist before the set first fills up);
        // otherwise the smallest LRU clock, earliest index on ties (the
        // shift discards the packed meta bits, so ties resolve exactly as
        // they did when the clock was stored on its own).
        let slot = if free_index != usize::MAX {
            base + free_index
        } else {
            victim_index
        };
        let evicted_tag = self.tags[slot];
        let evicted_meta = unpack_meta(self.stamps[slot]);
        self.tags[slot] = tag;
        self.stamps[slot] = pack_stamp(lru_clock, new_meta);
        if evicted_tag == EMPTY_TAG {
            return None;
        }
        if evicted_meta.prefetched && !evicted_meta.used {
            self.stats.prefetch_unused_evictions += 1;
        }
        Some(Eviction {
            line: LineAddr::new(evicted_tag),
            meta: evicted_meta,
        })
    }

    /// Number of resident lines (for occupancy checks in tests).
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY_TAG).count()
    }

    /// Bytes of line tags and LRU stamps held, the bulk of a machine
    /// checkpoint (see [`crate::snapshot`]).
    pub(crate) fn state_bytes(&self) -> usize {
        std::mem::size_of_val(self.tags.as_slice()) + std::mem::size_of_val(self.stamps.as_slice())
    }

    /// Zeroes the statistics while keeping contents, LRU state and the
    /// clock — the sampling engine calls this at each measurement-interval
    /// boundary so per-interval stats reflect only the interval.
    pub(crate) fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        // 4 sets x 2 ways.
        Cache::new(CacheConfig::new("test", 8 * CACHE_LINE_BYTES, 2, 1, 4))
    }

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn fill_then_lookup_hits() {
        let mut c = small_cache();
        assert!(!c.demand_lookup(line(1)));
        c.fill(line(1), false, false);
        assert!(c.demand_lookup(line(1)));
        assert_eq!(c.stats().demand_hits, 1);
        assert_eq!(c.stats().demand_misses, 1);
    }

    #[test]
    fn lru_victim_is_least_recently_used() {
        let mut c = small_cache();
        // Lines 0, 4, 8 map to the same set (4 sets).
        c.fill(line(0), false, false);
        c.fill(line(4), false, false);
        // Touch line 0 so line 4 becomes LRU.
        c.demand_lookup(line(0));
        let evicted = c.fill(line(8), false, false).expect("eviction expected");
        assert_eq!(evicted.line, line(4));
        assert!(c.contains(line(0)) && c.contains(line(8)));
    }

    #[test]
    fn capacity_is_bounded() {
        let mut c = small_cache();
        for n in 0..100u64 {
            c.fill(line(n), false, false);
        }
        assert_eq!(c.resident_lines(), 8);
    }

    #[test]
    fn prefetch_use_tracking() {
        let mut c = small_cache();
        c.fill(line(3), true, false);
        assert_eq!(c.stats().prefetch_fills, 1);
        assert!(c.demand_lookup(line(3)));
        assert_eq!(c.stats().prefetch_first_uses, 1);
        // Second hit is not another "first use".
        assert!(c.demand_lookup(line(3)));
        assert_eq!(c.stats().prefetch_first_uses, 1);
    }

    #[test]
    fn unused_prefetch_eviction_is_counted() {
        let mut c = small_cache();
        c.fill(line(0), true, false);
        c.fill(line(4), false, false);
        c.fill(line(8), false, false); // evicts the unused prefetch (line 0)
        assert_eq!(c.stats().prefetch_unused_evictions, 1);
    }

    #[test]
    fn low_priority_fill_is_evicted_first() {
        let mut c = small_cache();
        c.fill(line(0), false, false);
        c.fill(line(4), true, true); // low-priority prefetch
        let evicted = c.fill(line(8), false, false).expect("eviction expected");
        assert_eq!(
            evicted.line,
            line(4),
            "low-priority line must be the victim"
        );
    }

    #[test]
    fn low_priority_line_promoted_by_demand_hit() {
        let mut c = small_cache();
        c.fill(line(0), false, false);
        c.fill(line(4), true, true);
        assert!(c.demand_lookup(line(4))); // promotes to MRU
        let evicted = c.fill(line(8), false, false).expect("eviction expected");
        assert_eq!(evicted.line, line(0));
    }

    #[test]
    fn demand_fill_over_prefetch_marks_used() {
        let mut c = small_cache();
        c.fill(line(0), true, false);
        c.fill(line(0), false, false);
        // Evicting it later must not count as an unused prefetch eviction.
        c.fill(line(4), false, false);
        c.fill(line(8), false, false);
        assert_eq!(c.stats().prefetch_unused_evictions, 0);
    }

    #[test]
    fn prefetch_lookup_does_not_change_demand_stats() {
        let mut c = small_cache();
        c.fill(line(1), false, false);
        assert!(c.prefetch_lookup(line(1)));
        assert!(!c.prefetch_lookup(line(2)));
        assert_eq!(c.stats().demand_hits, 0);
        assert_eq!(c.stats().demand_misses, 0);
    }

    #[test]
    fn miss_ratio_is_computed() {
        let mut c = small_cache();
        c.fill(line(1), false, false);
        c.demand_lookup(line(1));
        c.demand_lookup(line(2));
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }

    #[test]
    fn config_sets_and_validation() {
        assert_eq!(CacheConfig::new("L1D", 32 * 1024, 8, 5, 16).sets(), 64);
        assert!(CacheConfig::new("bad", 100, 3, 1, 1).validate().is_err());
        assert!(CacheConfig::new("bad", 0, 1, 1, 1).validate().is_err());
        assert!(CacheConfig::new("ok", 4096, 4, 1, 1).validate().is_ok());
    }

    #[test]
    fn power_of_two_geometry_validates_as_exact() {
        let geometry = CacheConfig::new("LLC", 2 * 1024 * 1024, 16, 30, 32)
            .validate()
            .expect("valid geometry");
        assert_eq!(geometry.sets, 2048);
        assert_eq!(geometry.effective_bytes, 2 * 1024 * 1024);
        assert!(!geometry.rounded, "paper geometries must not round");
    }

    #[test]
    fn non_power_of_two_geometry_surfaces_the_rounded_capacity() {
        // 96 KB, 8-way => 192 sets, rounded up to 256 => 128 KB modeled.
        // Before the echo existed this inflation left no trace anywhere.
        let config = CacheConfig::new("L2", 96 * 1024, 8, 8, 32);
        let geometry = config.validate().expect("valid geometry");
        assert!(geometry.rounded);
        assert_eq!(geometry.requested_bytes, 96 * 1024);
        assert_eq!(geometry.sets, 256);
        assert_eq!(geometry.effective_bytes, 128 * 1024);
        // The built cache really has that many slots.
        let cache = Cache::new(config);
        assert_eq!(cache.tags.len(), 256 * 8);
    }

    #[test]
    #[should_panic(expected = "invalid cache configuration")]
    fn invalid_config_panics_on_construction() {
        let _ = Cache::new(CacheConfig::new("bad", 100, 3, 1, 1));
    }
}
