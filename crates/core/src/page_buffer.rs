//! The Page Buffer (PB).
//!
//! The Page Buffer tracks the most-recently-accessed 4 KB physical pages at
//! the L2 (paper: 64 entries). Each entry accumulates the L1 misses to its
//! page in a 64-bit spatial bit-pattern and records up to two prefetch
//! triggers — the first access to each 2 KB segment of the page, with the
//! triggering PC and page offset (paper, Sections 3.1, 3.3 and 3.7).
//!
//! When an entry is evicted (capacity replacement), its accumulated program
//! bit-pattern and its triggers are handed back to the prefetcher, which uses
//! them to update the Signature Prediction Table.

use crate::pattern::SpatialPattern;
use dspatch_types::snapshot::{SnapshotError, SnapshotState, StateReader, StateWriter};
use dspatch_types::{PageAddr, Pc, LINES_PER_PAGE, LINES_PER_SEGMENT};

/// Number of 2 KB segments in a 4 KB page (and of triggers per PB entry).
pub const SEGMENTS_PER_PAGE: usize = LINES_PER_PAGE / LINES_PER_SEGMENT;

/// One recorded prefetch trigger: the first access to a 2 KB segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TriggerInfo {
    /// PC of the trigger access.
    pub pc: Pc,
    /// Cache-line offset of the trigger within the 4 KB page (0..64).
    pub offset: usize,
    /// Which 2 KB segment the trigger belongs to (0 or 1).
    pub segment: usize,
}

/// One Page Buffer entry: a tracked 4 KB page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageBufferEntry {
    /// The tracked physical page.
    pub page: PageAddr,
    /// Accumulated program access bit-pattern (one bit per 64 B line).
    pub pattern: SpatialPattern,
    /// Triggers recorded so far, one slot per 2 KB segment.
    pub triggers: [Option<TriggerInfo>; SEGMENTS_PER_PAGE],
    /// LRU timestamp (monotonically increasing access counter).
    last_use: u64,
}

impl PageBufferEntry {
    fn new(page: PageAddr, stamp: u64) -> Self {
        Self {
            page,
            pattern: SpatialPattern::EMPTY,
            triggers: [None; SEGMENTS_PER_PAGE],
            last_use: stamp,
        }
    }

    /// Returns the recorded triggers in segment order, skipping empty slots.
    pub fn recorded_triggers(&self) -> impl Iterator<Item = &TriggerInfo> {
        self.triggers.iter().flatten()
    }

    /// Number of distinct lines accessed in the page so far.
    pub fn access_count(&self) -> u32 {
        self.pattern.popcount()
    }
}

/// Outcome of recording one access in the Page Buffer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecordOutcome {
    /// Set when this access is the first to its 2 KB segment and may
    /// therefore trigger prefetches.
    pub trigger: Option<TriggerInfo>,
    /// Set when recording the access required evicting another page's entry;
    /// the evicted entry carries the training data for the SPT.
    pub evicted: Option<PageBufferEntry>,
    /// Whether the accessed line's bit was newly set (false for repeated
    /// accesses to the same line).
    pub new_line: bool,
}

/// The Page Buffer: a small fully-associative, LRU-replaced structure
/// tracking recently accessed pages.
///
/// # Example
///
/// ```
/// use dspatch::PageBuffer;
/// use dspatch_types::{PageAddr, Pc};
///
/// let mut pb = PageBuffer::new(2);
/// let first = pb.record_access(PageAddr::new(1), 0, Pc::new(0xa));
/// assert!(first.trigger.is_some());
/// assert!(first.evicted.is_none());
/// // Touching two more pages evicts page 1 (capacity 2, LRU).
/// pb.record_access(PageAddr::new(2), 0, Pc::new(0xb));
/// let third = pb.record_access(PageAddr::new(3), 0, Pc::new(0xc));
/// assert_eq!(third.evicted.unwrap().page, PageAddr::new(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageBuffer {
    entries: Vec<PageBufferEntry>,
    /// Shadow array of `entries[i].page` raw values. The per-access lookup
    /// scans this dense `u64` slab (the whole buffer is 8 cache lines at the
    /// paper's 64 entries) instead of striding through the ~100-byte
    /// entries, and is kept in lock-step with `entries` on every mutation.
    pages: Vec<u64>,
    /// Index of the most-recently-accessed entry. Spatial locality makes
    /// consecutive L1 misses overwhelmingly land in the same page, so this
    /// hint usually replaces the scan with a single compare.
    mru: usize,
    /// Shadow array of `entries[i].last_use`, so the LRU eviction scan
    /// walks a dense `u64` slab instead of striding through the entries.
    last_uses: Vec<u64>,
    capacity: usize,
    clock: u64,
}

impl PageBuffer {
    /// Creates a Page Buffer holding at most `capacity` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "page buffer capacity must be positive");
        Self {
            entries: Vec::with_capacity(capacity),
            pages: Vec::with_capacity(capacity),
            mru: 0,
            last_uses: Vec::with_capacity(capacity),
            capacity,
            clock: 0,
        }
    }

    /// Number of pages currently tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns whether no pages are tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum number of tracked pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns the entry for `page`, if it is currently tracked.
    pub fn entry(&self, page: PageAddr) -> Option<&PageBufferEntry> {
        self.entries.iter().find(|e| e.page == page)
    }

    /// Iterates over all tracked entries (no particular order).
    pub fn iter(&self) -> impl Iterator<Item = &PageBufferEntry> {
        self.entries.iter()
    }

    /// Records one L1-miss access to line `line_offset` (0..64) of `page`,
    /// performed by instruction `pc`.
    ///
    /// Returns whether the access is a segment trigger, whether an older
    /// entry had to be evicted to make room, and whether the line bit was
    /// newly set.
    ///
    /// # Panics
    ///
    /// Panics if `line_offset >= 64`.
    pub fn record_access(&mut self, page: PageAddr, line_offset: usize, pc: Pc) -> RecordOutcome {
        assert!(
            line_offset < LINES_PER_PAGE,
            "line offset {line_offset} out of range for a 4 KB page"
        );
        self.clock += 1;
        let stamp = self.clock;
        let segment = line_offset / LINES_PER_SEGMENT;
        let mut outcome = RecordOutcome::default();

        let raw = page.as_u64();
        let position = if self.pages.get(self.mru) == Some(&raw) {
            Some(self.mru)
        } else {
            self.pages.iter().position(|&p| p == raw)
        };
        let index = match position {
            Some(i) => i,
            None => {
                if self.entries.len() == self.capacity {
                    let lru = self
                        .last_uses
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &stamp)| stamp)
                        .map(|(i, _)| i)
                        .expect("page buffer is non-empty at capacity");
                    outcome.evicted = Some(self.entries.swap_remove(lru));
                    self.pages.swap_remove(lru);
                    self.last_uses.swap_remove(lru);
                }
                self.entries.push(PageBufferEntry::new(page, stamp));
                self.pages.push(raw);
                self.last_uses.push(stamp);
                self.entries.len() - 1
            }
        };
        self.mru = index;

        self.last_uses[index] = stamp;
        let entry = &mut self.entries[index];
        entry.last_use = stamp;
        outcome.new_line = !entry.pattern.get(line_offset);
        entry.pattern.set(line_offset);
        if entry.triggers[segment].is_none() {
            let trigger = TriggerInfo {
                pc,
                offset: line_offset,
                segment,
            };
            entry.triggers[segment] = Some(trigger);
            outcome.trigger = Some(trigger);
        }
        outcome
    }

    /// Removes and returns every tracked entry, e.g. at the end of a
    /// simulation so that partially-observed pages still train the SPT.
    pub fn drain(&mut self) -> Vec<PageBufferEntry> {
        self.pages.clear();
        self.last_uses.clear();
        self.mru = 0;
        std::mem::take(&mut self.entries)
    }
}

impl SnapshotState for PageBuffer {
    fn snapshot_tag(&self) -> &'static str {
        "page-buffer"
    }

    fn save_state(&self, writer: &mut StateWriter) -> Result<(), SnapshotError> {
        writer.put_len(self.entries.len());
        for entry in &self.entries {
            writer.put_u64(entry.page.as_u64());
            writer.put_u64(entry.pattern.bits());
            for trigger in &entry.triggers {
                match trigger {
                    Some(t) => {
                        writer.put_bool(true);
                        writer.put_u64(t.pc.as_u64());
                        writer.put_usize(t.offset);
                        writer.put_usize(t.segment);
                    }
                    None => writer.put_bool(false),
                }
            }
            writer.put_u64(entry.last_use);
        }
        writer.put_usize(self.mru);
        writer.put_u64(self.clock);
        Ok(())
    }

    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let len = reader.get_len()?;
        if len > self.capacity {
            return Err(SnapshotError::Invalid(format!(
                "page buffer holds {} entries but only {} are configured",
                len, self.capacity
            )));
        }
        self.entries.clear();
        self.pages.clear();
        self.last_uses.clear();
        for _ in 0..len {
            let page = PageAddr::new(reader.get_u64()?);
            let pattern = SpatialPattern::from_bits(reader.get_u64()?);
            let mut triggers = [None; SEGMENTS_PER_PAGE];
            for slot in &mut triggers {
                if reader.get_bool()? {
                    *slot = Some(TriggerInfo {
                        pc: Pc::new(reader.get_u64()?),
                        offset: reader.get_usize()?,
                        segment: reader.get_usize()?,
                    });
                }
            }
            let last_use = reader.get_u64()?;
            // Rebuild the shadow arrays in lock-step, exactly as the access
            // path maintains them.
            self.pages.push(page.as_u64());
            self.last_uses.push(last_use);
            self.entries.push(PageBufferEntry {
                page,
                pattern,
                triggers,
                last_use,
            });
        }
        self.mru = reader.get_usize()?;
        if self.mru >= self.entries.len() && !self.entries.is_empty() {
            return Err(SnapshotError::Invalid(format!(
                "MRU index {} is out of bounds for {} entries",
                self.mru,
                self.entries.len()
            )));
        }
        self.mru = self.mru.min(self.entries.len().saturating_sub(1));
        self.clock = reader.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pc(x: u64) -> Pc {
        Pc::new(x)
    }

    #[test]
    fn first_access_to_each_segment_is_a_trigger() {
        let mut pb = PageBuffer::new(4);
        let page = PageAddr::new(10);
        let a = pb.record_access(page, 3, pc(1));
        assert_eq!(
            a.trigger,
            Some(TriggerInfo {
                pc: pc(1),
                offset: 3,
                segment: 0
            })
        );
        // Second access to the same segment is not a trigger.
        let b = pb.record_access(page, 9, pc(2));
        assert!(b.trigger.is_none());
        // First access to the second 2 KB segment is a trigger.
        let c = pb.record_access(page, 40, pc(3));
        assert_eq!(
            c.trigger,
            Some(TriggerInfo {
                pc: pc(3),
                offset: 40,
                segment: 1
            })
        );
    }

    #[test]
    fn pattern_accumulates_all_accessed_lines() {
        let mut pb = PageBuffer::new(4);
        let page = PageAddr::new(5);
        for off in [0usize, 5, 5, 63, 31] {
            pb.record_access(page, off, pc(9));
        }
        let entry = pb.entry(page).expect("page must be tracked");
        assert_eq!(entry.access_count(), 4);
        assert!(entry.pattern.get(0) && entry.pattern.get(5) && entry.pattern.get(63));
    }

    #[test]
    fn new_line_flag_distinguishes_repeat_accesses() {
        let mut pb = PageBuffer::new(4);
        let page = PageAddr::new(5);
        assert!(pb.record_access(page, 7, pc(1)).new_line);
        assert!(!pb.record_access(page, 7, pc(1)).new_line);
    }

    #[test]
    fn lru_entry_is_evicted_at_capacity() {
        let mut pb = PageBuffer::new(2);
        pb.record_access(PageAddr::new(1), 0, pc(1));
        pb.record_access(PageAddr::new(2), 0, pc(1));
        // Re-touch page 1 so page 2 becomes the LRU.
        pb.record_access(PageAddr::new(1), 1, pc(1));
        let out = pb.record_access(PageAddr::new(3), 0, pc(1));
        let evicted = out.evicted.expect("capacity eviction expected");
        assert_eq!(evicted.page, PageAddr::new(2));
        assert_eq!(pb.len(), 2);
    }

    #[test]
    fn evicted_entry_carries_pattern_and_triggers() {
        let mut pb = PageBuffer::new(1);
        pb.record_access(PageAddr::new(1), 2, pc(0xaa));
        pb.record_access(PageAddr::new(1), 34, pc(0xbb));
        let out = pb.record_access(PageAddr::new(2), 0, pc(0xcc));
        let evicted = out.evicted.expect("eviction expected");
        assert_eq!(evicted.page, PageAddr::new(1));
        assert_eq!(evicted.recorded_triggers().count(), 2);
        assert!(evicted.pattern.get(2) && evicted.pattern.get(34));
    }

    #[test]
    fn drain_returns_everything_and_empties_buffer() {
        let mut pb = PageBuffer::new(8);
        for p in 0..5u64 {
            pb.record_access(PageAddr::new(p), 0, pc(p));
        }
        let drained = pb.drain();
        assert_eq!(drained.len(), 5);
        assert!(pb.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = PageBuffer::new(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_offset_is_rejected() {
        let mut pb = PageBuffer::new(1);
        pb.record_access(PageAddr::new(1), 64, pc(1));
    }
}
