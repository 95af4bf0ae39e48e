//! The prefetcher interface shared by DSPatch, the baseline prefetchers and
//! the simulator.
//!
//! A prefetcher is attached to one cache level. The hierarchy calls
//! [`Prefetcher::on_access`] for every access that level observes (for L2
//! prefetchers in this reproduction, that is every L1 miss — demand or
//! prefetch — exactly as in the paper's methodology, Section 4.1), passing a
//! [`PrefetchContext`] that carries the current cycle, whether the access hit
//! in the cache, and the broadcast [`BandwidthQuartile`]. The prefetcher
//! appends zero or more [`PrefetchRequest`]s to the caller-owned
//! [`PrefetchSink`]; the hierarchy filters ones that are already resident or
//! in flight and issues the rest.
//!
//! The sink is the hot-path contract: the simulator observes hundreds of
//! millions of accesses per run, so `on_access` must not allocate. The
//! caller keeps one `PrefetchSink` alive across calls (clearing it between
//! accesses) and its buffer reaches a steady-state capacity after warm-up,
//! after which the whole train-predict-issue path is allocation-free.

use crate::access::MemoryAccess;
use crate::address::LineAddr;
use crate::bandwidth::BandwidthQuartile;
use std::fmt;

/// The cache level a prefetched line should be filled into.
///
/// The paper's L2 prefetchers fill into the L2 and the LLC; SPP additionally
/// demotes low-confidence prefetches to fill only into the LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FillLevel {
    /// Fill into the L1 data cache (used only by the L1 stride prefetcher).
    L1,
    /// Fill into the L2 cache (and, by inclusion, the LLC).
    L2,
    /// Fill only into the last-level cache.
    Llc,
}

impl fmt::Display for FillLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FillLevel::L1 => write!(f, "L1"),
            FillLevel::L2 => write!(f, "L2"),
            FillLevel::Llc => write!(f, "LLC"),
        }
    }
}

/// A single prefetch candidate produced by a prefetcher.
///
/// # Example
///
/// ```
/// use dspatch_types::{FillLevel, LineAddr, PrefetchRequest};
/// let req = PrefetchRequest::new(LineAddr::new(0x100))
///     .with_fill_level(FillLevel::Llc)
///     .with_low_priority(true);
/// assert_eq!(req.line, LineAddr::new(0x100));
/// assert!(req.low_priority);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrefetchRequest {
    /// The cache line to prefetch.
    pub line: LineAddr,
    /// Where the line should be filled.
    pub fill_level: FillLevel,
    /// When set, the line is inserted with low replacement priority. DSPatch
    /// requests this for coverage-biased prefetches whose `MeasureCovP`
    /// counter is saturated (paper, Section 3.6).
    pub low_priority: bool,
}

impl PrefetchRequest {
    /// Creates a normal-priority request that fills into the L2.
    pub fn new(line: LineAddr) -> Self {
        Self {
            line,
            fill_level: FillLevel::L2,
            low_priority: false,
        }
    }

    /// Sets the fill level.
    pub fn with_fill_level(mut self, fill_level: FillLevel) -> Self {
        self.fill_level = fill_level;
        self
    }

    /// Sets the replacement-priority hint.
    pub fn with_low_priority(mut self, low_priority: bool) -> Self {
        self.low_priority = low_priority;
        self
    }
}

/// Per-access context handed to a prefetcher by the cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PrefetchContext {
    /// Current core clock cycle.
    pub cycle: u64,
    /// Whether the triggering access hit in the cache level the prefetcher is
    /// attached to.
    pub cache_hit: bool,
    /// The 2-bit DRAM bandwidth-utilization quartile broadcast by the memory
    /// controller.
    pub bandwidth: BandwidthQuartile,
}

impl PrefetchContext {
    /// Creates a context for `cycle` with the remaining fields defaulted.
    pub fn at_cycle(cycle: u64) -> Self {
        Self {
            cycle,
            ..Self::default()
        }
    }

    /// Sets the cache-hit flag.
    pub fn with_cache_hit(mut self, cache_hit: bool) -> Self {
        self.cache_hit = cache_hit;
        self
    }

    /// Sets the bandwidth quartile.
    pub fn with_bandwidth(mut self, bandwidth: BandwidthQuartile) -> Self {
        self.bandwidth = bandwidth;
        self
    }
}

/// A reusable, caller-owned buffer prefetchers append their requests to.
///
/// The sink exists so the per-access hot path performs no heap allocation in
/// steady state: the simulator keeps one sink per hook point alive for the
/// whole run and [`clear`](PrefetchSink::clear)s it between accesses, so the
/// backing buffer is allocated once during warm-up and then only reused.
///
/// # Example
///
/// ```
/// use dspatch_types::{LineAddr, PrefetchRequest, PrefetchSink};
/// let mut sink = PrefetchSink::new();
/// sink.push(PrefetchRequest::new(LineAddr::new(3)));
/// assert_eq!(sink.len(), 1);
/// assert_eq!(sink.requests()[0].line, LineAddr::new(3));
/// sink.clear();
/// assert!(sink.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrefetchSink {
    requests: Vec<PrefetchRequest>,
}

impl PrefetchSink {
    /// Creates an empty sink (no allocation until the first push).
    pub const fn new() -> Self {
        Self {
            requests: Vec::new(),
        }
    }

    /// Creates a sink with pre-reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            requests: Vec::with_capacity(capacity),
        }
    }

    /// Appends one request.
    #[inline]
    pub fn push(&mut self, request: PrefetchRequest) {
        self.requests.push(request);
    }

    /// Removes all requests, keeping the allocated capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.requests.clear();
    }

    /// Number of buffered requests.
    #[inline]
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the sink holds no requests.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The buffered requests, in push order.
    #[inline]
    pub fn requests(&self) -> &[PrefetchRequest] {
        &self.requests
    }

    /// Truncates the buffer to at most `len` requests.
    #[inline]
    pub fn truncate(&mut self, len: usize) {
        self.requests.truncate(len);
    }

    /// Mutable access to the buffered requests, for callers that merge or
    /// compact a range in place (e.g. the composite prefetcher
    /// deduplicating its adjunct's candidates without a scratch copy).
    #[inline]
    pub fn requests_mut(&mut self) -> &mut [PrefetchRequest] {
        &mut self.requests
    }

    /// Current capacity of the backing buffer (steady-state allocation
    /// checks in tests observe this).
    pub fn capacity(&self) -> usize {
        self.requests.capacity()
    }

    /// Consumes the sink, returning the backing vector.
    pub fn into_vec(self) -> Vec<PrefetchRequest> {
        self.requests
    }
}

impl Extend<PrefetchRequest> for PrefetchSink {
    fn extend<T: IntoIterator<Item = PrefetchRequest>>(&mut self, iter: T) {
        self.requests.extend(iter);
    }
}

impl<'a> IntoIterator for &'a PrefetchSink {
    type Item = &'a PrefetchRequest;
    type IntoIter = std::slice::Iter<'a, PrefetchRequest>;

    fn into_iter(self) -> Self::IntoIter {
        self.requests.iter()
    }
}

/// A hardware prefetching algorithm.
///
/// Implementations must be deterministic functions of the access stream they
/// observe so that simulation results are reproducible.
///
/// `Send` is a supertrait so a simulation (which owns its prefetchers) can
/// run on a campaign worker thread; prefetchers are plain state machines,
/// so this costs nothing.
pub trait Prefetcher: Send {
    /// Human-readable name used in reports ("SPP", "DSPatch+SPP", ...).
    fn name(&self) -> &str;

    /// Observes one access at the attached cache level and **appends**
    /// prefetch candidates to `out` (implementations never clear the sink —
    /// the caller decides when a fresh set starts). Candidates may duplicate
    /// lines that are already cached; the hierarchy is responsible for
    /// filtering them.
    ///
    /// Implementations must not allocate per call in steady state: all
    /// request construction goes through the caller-owned sink.
    fn on_access(&mut self, access: &MemoryAccess, ctx: &PrefetchContext, out: &mut PrefetchSink);

    /// Convenience wrapper collecting one access's requests into a fresh
    /// `Vec`. For tests, examples and one-shot introspection only — the
    /// simulator hot path reuses a sink instead.
    fn collect_requests(
        &mut self,
        access: &MemoryAccess,
        ctx: &PrefetchContext,
    ) -> Vec<PrefetchRequest> {
        let mut sink = PrefetchSink::new();
        self.on_access(access, ctx, &mut sink);
        sink.into_vec()
    }

    /// Hardware storage budget of the prefetcher in bits, used to reproduce
    /// the storage columns of Tables 1 and 3.
    fn storage_bits(&self) -> u64;
}

/// A prefetcher that never issues prefetches. Used as the no-prefetching
/// baseline and as a placeholder in configurations without an L2 prefetcher.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullPrefetcher;

impl NullPrefetcher {
    /// Creates the null prefetcher.
    pub fn new() -> Self {
        Self
    }
}

impl Prefetcher for NullPrefetcher {
    fn name(&self) -> &str {
        "none"
    }

    fn on_access(
        &mut self,
        _access: &MemoryAccess,
        _ctx: &PrefetchContext,
        _out: &mut PrefetchSink,
    ) {
    }

    fn storage_bits(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessKind, Pc};
    use crate::address::Addr;

    #[test]
    fn null_prefetcher_is_silent_and_free() {
        let mut p = NullPrefetcher::new();
        let access = MemoryAccess::new(Pc::new(1), Addr::new(0x1000), AccessKind::Load);
        let mut sink = PrefetchSink::new();
        p.on_access(&access, &PrefetchContext::default(), &mut sink);
        assert!(sink.is_empty());
        assert!(p
            .collect_requests(&access, &PrefetchContext::default())
            .is_empty());
        assert_eq!(p.storage_bits(), 0);
        assert_eq!(p.name(), "none");
    }

    #[test]
    fn sink_accumulates_and_clears_without_losing_capacity() {
        let mut sink = PrefetchSink::with_capacity(4);
        for i in 0..4u64 {
            sink.push(PrefetchRequest::new(LineAddr::new(i)));
        }
        assert_eq!(sink.len(), 4);
        let capacity = sink.capacity();
        sink.clear();
        assert!(sink.is_empty());
        assert_eq!(sink.capacity(), capacity, "clear must keep the buffer");
        sink.extend((0..2u64).map(|i| PrefetchRequest::new(LineAddr::new(i))));
        assert_eq!(sink.requests().len(), 2);
        sink.truncate(1);
        assert_eq!(sink.len(), 1);
        let lines: Vec<u64> = (&sink).into_iter().map(|r| r.line.as_u64()).collect();
        assert_eq!(lines, vec![0]);
        assert_eq!(sink.into_vec().len(), 1);
    }

    #[test]
    fn request_builder_sets_fields() {
        let req = PrefetchRequest::new(LineAddr::new(7))
            .with_fill_level(FillLevel::Llc)
            .with_low_priority(true);
        assert_eq!(req.fill_level, FillLevel::Llc);
        assert!(req.low_priority);
        let default = PrefetchRequest::new(LineAddr::new(7));
        assert_eq!(default.fill_level, FillLevel::L2);
        assert!(!default.low_priority);
    }

    #[test]
    fn context_builder_sets_fields() {
        let ctx = PrefetchContext::at_cycle(42)
            .with_cache_hit(true)
            .with_bandwidth(BandwidthQuartile::Q3);
        assert_eq!(ctx.cycle, 42);
        assert!(ctx.cache_hit);
        assert_eq!(ctx.bandwidth, BandwidthQuartile::Q3);
    }

    #[test]
    fn prefetcher_trait_is_object_safe() {
        let mut boxed: Box<dyn Prefetcher> = Box::new(NullPrefetcher::new());
        let access = MemoryAccess::new(Pc::new(1), Addr::new(0), AccessKind::Load);
        let mut sink = PrefetchSink::new();
        boxed.on_access(&access, &PrefetchContext::default(), &mut sink);
        assert!(sink.is_empty());
        assert!(boxed
            .collect_requests(&access, &PrefetchContext::default())
            .is_empty());
    }
}
