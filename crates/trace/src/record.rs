//! Trace representation.
//!
//! A trace is a sequence of memory accesses annotated with the number of
//! non-memory instructions executed since the previous access (`gap`). This
//! is the minimal information the approximate core model needs to account
//! for both memory-level parallelism and non-memory work.

use dspatch_types::{AccessKind, Addr, MemoryAccess, Pc};

/// One memory access in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceRecord {
    /// Program counter of the memory instruction.
    pub pc: Pc,
    /// Byte address accessed.
    pub addr: Addr,
    /// Load or store.
    pub kind: AccessKind,
    /// Number of non-memory instructions executed immediately before this
    /// access. Together with the access itself, one record therefore
    /// represents `gap + 1` instructions.
    pub gap: u32,
    /// Whether the address of this access depends on the value returned by
    /// the previous memory access (pointer chasing). Dependent accesses
    /// cannot overlap with their producer in the core model, which is what
    /// makes linked-data-structure traversals latency-bound.
    pub dependent: bool,
}

impl TraceRecord {
    /// Creates a load record with no preceding non-memory instructions.
    pub fn load(pc: u64, addr: u64) -> Self {
        Self {
            pc: Pc::new(pc),
            addr: Addr::new(addr),
            kind: AccessKind::Load,
            gap: 0,
            dependent: false,
        }
    }

    /// Creates a store record with no preceding non-memory instructions.
    pub fn store(pc: u64, addr: u64) -> Self {
        Self {
            pc: Pc::new(pc),
            addr: Addr::new(addr),
            kind: AccessKind::Store,
            gap: 0,
            dependent: false,
        }
    }

    /// Sets the non-memory instruction gap.
    pub fn with_gap(mut self, gap: u32) -> Self {
        self.gap = gap;
        self
    }

    /// Marks the access as dependent on the previous memory access.
    pub fn with_dependent(mut self, dependent: bool) -> Self {
        self.dependent = dependent;
        self
    }

    /// Converts the record into the [`MemoryAccess`] the prefetcher API uses.
    pub fn to_access(self) -> MemoryAccess {
        MemoryAccess::new(self.pc, self.addr, self.kind)
    }

    /// Number of instructions this record represents (`gap + 1`).
    pub fn instructions(&self) -> u64 {
        u64::from(self.gap) + 1
    }
}

/// A named sequence of memory accesses.
///
/// # Example
///
/// ```
/// use dspatch_trace::{Trace, TraceRecord};
///
/// let trace = Trace::new(
///     "toy",
///     vec![
///         TraceRecord::load(0x400, 0x1000).with_gap(3),
///         TraceRecord::store(0x404, 0x1040),
///     ],
/// );
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.instruction_count(), 5);
/// assert_eq!(trace.footprint_lines(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Human-readable workload name.
    pub name: String,
    /// The access sequence.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// Creates a trace.
    pub fn new(name: impl Into<String>, records: Vec<TraceRecord>) -> Self {
        Self {
            name: name.into(),
            records,
        }
    }

    /// Number of memory accesses.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns whether the trace has no accesses.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total number of instructions represented (memory plus gaps).
    pub fn instruction_count(&self) -> u64 {
        self.records.iter().map(TraceRecord::instructions).sum()
    }

    /// Number of distinct cache lines touched.
    pub fn footprint_lines(&self) -> usize {
        let mut lines: Vec<u64> = self
            .records
            .iter()
            .map(|r| r.addr.line().as_u64())
            .collect();
        lines.sort_unstable();
        lines.dedup();
        lines.len()
    }

    /// Number of distinct 4 KB pages touched.
    pub fn footprint_pages(&self) -> usize {
        let mut pages: Vec<u64> = self
            .records
            .iter()
            .map(|r| r.addr.page().as_u64())
            .collect();
        pages.sort_unstable();
        pages.dedup();
        pages.len()
    }

    /// Number of distinct program counters appearing in the trace.
    pub fn distinct_pcs(&self) -> usize {
        let mut pcs: Vec<u64> = self.records.iter().map(|r| r.pc.as_u64()).collect();
        pcs.sort_unstable();
        pcs.dedup();
        pcs.len()
    }

    /// Iterates over the records.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Truncates the trace to at most `limit` accesses.
    pub fn truncate(&mut self, limit: usize) {
        self.records.truncate(limit);
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceRecord;
    type IntoIter = std::slice::Iter<'a, TraceRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

impl Extend<TraceRecord> for Trace {
    fn extend<T: IntoIterator<Item = TraceRecord>>(&mut self, iter: T) {
        self.records.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_instruction_accounting() {
        assert_eq!(TraceRecord::load(1, 2).instructions(), 1);
        assert_eq!(TraceRecord::load(1, 2).with_gap(9).instructions(), 10);
    }

    #[test]
    fn record_conversion_preserves_fields() {
        let r = TraceRecord::store(0x400100, 0xdead00);
        let a = r.to_access();
        assert_eq!(a.pc.as_u64(), 0x400100);
        assert_eq!(a.addr.as_u64(), 0xdead00);
        assert!(!a.kind.is_load());
    }

    #[test]
    fn footprint_counts_distinct_lines_and_pages() {
        let trace = Trace::new(
            "t",
            vec![
                TraceRecord::load(1, 0),
                TraceRecord::load(1, 32),   // same line
                TraceRecord::load(1, 64),   // new line, same page
                TraceRecord::load(1, 8192), // new page
            ],
        );
        assert_eq!(trace.footprint_lines(), 3);
        assert_eq!(trace.footprint_pages(), 2);
        assert_eq!(trace.distinct_pcs(), 1);
    }

    #[test]
    fn empty_trace_behaves() {
        let trace = Trace::new("empty", Vec::new());
        assert!(trace.is_empty());
        assert_eq!(trace.instruction_count(), 0);
        assert_eq!(trace.footprint_lines(), 0);
    }

    #[test]
    fn extend_and_truncate() {
        let mut trace = Trace::new("t", vec![TraceRecord::load(1, 0)]);
        trace.extend([TraceRecord::load(1, 64), TraceRecord::load(1, 128)]);
        assert_eq!(trace.len(), 3);
        trace.truncate(2);
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn iteration_orders_match() {
        let records = vec![TraceRecord::load(1, 0), TraceRecord::load(2, 64)];
        let trace = Trace::new("t", records.clone());
        let collected: Vec<TraceRecord> = trace.iter().copied().collect();
        assert_eq!(collected, records);
        let by_ref: Vec<TraceRecord> = (&trace).into_iter().copied().collect();
        assert_eq!(by_ref, records);
    }
}
