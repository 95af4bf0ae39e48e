//! The machine's memory side: everything a request meets past the core
//! model.
//!
//! Demand accesses probe L1 → L2 → LLC → DRAM. The optional PC-stride
//! prefetcher observes L1 accesses and fills into the L1 (Table 2). The
//! configurable L2 prefetcher is trained on every L1 miss — demand or
//! prefetch — exactly as in the paper's methodology (Section 4.1), and its
//! requests fill the L2 and the LLC. DRAM-bound fills are tracked in flight,
//! so a demand that arrives while its line is still being fetched by a
//! prefetch observes the remaining latency (prefetch timeliness). In-flight
//! L2 prefetch fills are bounded per core by
//! [`SystemConfig::prefetch_mshrs`] — a full prefetch queue drops further
//! candidates, as the hardware's would — which also keeps the simulator's
//! fill table small however bursty the predictor.
//!
//! A timed demand ([`SharedFabric::demand`]) and a functional warm-up record
//! ([`SharedFabric::warm`]) take one L1 walk (`walk_l1`), one L2/LLC probe
//! (`probe_l2_llc`) and one L2-prefetcher training loop (`train_l2`). Past
//! the probe the two modes differ at every step, so each has its own side:
//! the timed one merges with and promotes in-flight fills, books DRAM,
//! bounds L2 prefetches by their MSHRs and tracks LLC pollution; the
//! functional one fills every level at once, never reaches DRAM, and
//! applies a bounded number of L2 prefetch requests per training event.
//!
//! Every DRAM-bound fill queues one `(ready, line)` event in a plain binary
//! heap, which [`SharedFabric::deliver`] pops in that order. The demands'
//! load buffers and the prefetch MSHRs bound what is in flight, so the heap
//! holds a few hundred events in a typical run and a few thousand at most.

use super::CoreState;
use crate::cache::Cache;
use crate::config::SystemConfig;
use crate::dram::Dram;
use crate::stats::PollutionBreakdown;
use crate::tables::{LineTable, Slot};
use dspatch_trace::TraceRecord;
use dspatch_types::{
    AccessKind, BandwidthQuartile, CoreId, FillLevel, LineAddr, MemoryAccess, Pc, PrefetchContext,
    PrefetchRequest, Prefetcher,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Extra cycles charged for traversing the on-die interconnect to DRAM on
/// top of the cache probe latencies.
const DRAM_REQUEST_OVERHEAD: u64 = 10;
/// Upper bound on tracked pollution victims, in lines (memory guard). The
/// worst case is every victim alone in its page: 2^20 pages at a 16-byte
/// key and mask each, 32 MiB of table (a set of lines would take 16 MiB).
const POLLUTION_TRACK_CAP: usize = 1 << 20;
/// Pages the victim table holds before its first growth (32 KiB of keys
/// and masks); it doubles from there.
const POLLUTION_START_PAGES: usize = 1 << 10;

#[derive(Debug, Clone, Copy, Default)]
struct PendingFill {
    ready: u64,
    core: usize,
    /// Core whose prefetch MSHR this fill occupies (never reassigned by a
    /// demand promotion, unlike `core`).
    issuer: usize,
    is_prefetch: bool,
    fill_l1: bool,
    fill_l2: bool,
    low_priority: bool,
    used_by_demand: bool,
}

/// What asks for a line that missed the L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Requester {
    /// The trace record itself; only a demand counts towards coverage.
    Demand,
    /// A request of the L1 stride prefetcher.
    L1Prefetch,
}

/// Where the L2/LLC probe found a line that missed the L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Probe {
    L2Hit,
    LlcHit,
    Miss,
}

/// The memory side of the machine: the shared LLC, DRAM, in-flight fill
/// table and pollution tracker, and the walk of each request through a
/// core's private L1 and L2 to them.
pub(super) struct SharedFabric {
    pub(super) llc: Cache,
    pub(super) dram: Dram,
    /// In-flight DRAM fills keyed by line address. An open-addressed arena
    /// seeded from the MSHR configuration: probed at least once per L2 miss
    /// and per prefetch candidate.
    pending: LineTable<PendingFill>,
    /// Fill events, earliest `(ready, line)` first. A promotion queues a
    /// second event for its line, so `deliver` drops an event whose fill
    /// has already arrived.
    ready_queue: BinaryHeap<Reverse<(u64, u64)>>,
    pub(super) pollution: PollutionTracker,
    l2_latency: u64,
    llc_latency: u64,
    prefetch_mshrs: usize,
}

impl SharedFabric {
    pub(super) fn new(config: &SystemConfig) -> Self {
        // In-flight fills are bounded: demands by the per-core load buffers,
        // prefetches by the per-core prefetch MSHR budget. Seeding the arena
        // just past that population keeps the whole table a few KB — every
        // probe on the per-request hot path stays cache-resident — while
        // growth remains the safety valve if a configuration outruns it.
        let pending_capacity = (config.cores
            * (config.prefetch_mshrs + config.core.load_buffer_entries + 16))
            .max(128);
        Self {
            llc: Cache::new(config.llc.clone()),
            dram: Dram::new(config.dram, config.core.clock_mhz),
            pending: LineTable::with_capacity(pending_capacity),
            ready_queue: BinaryHeap::new(),
            pollution: PollutionTracker::default(),
            l2_latency: config.l2.latency,
            llc_latency: config.llc.latency,
            prefetch_mshrs: config.prefetch_mshrs,
        }
    }

    /// Performs one timed demand access issued at `cycle` and returns its
    /// completion cycle.
    pub(super) fn demand(
        &mut self,
        core: &mut CoreState,
        record: &TraceRecord,
        l1_latency: u64,
        cycle: u64,
    ) -> u64 {
        let bandwidth = self.dram.bandwidth_quartile();
        let latency = walk_l1(core, record, cycle, bandwidth, |core, access, requester| {
            self.timed_beyond_l1(core, access, requester, cycle)
        });
        cycle + l1_latency + latency
    }

    /// Applies one trace record in functional warm-up mode: the timed
    /// engine's L1 walk, with the functional side past the L1.
    pub(super) fn warm(&mut self, core: &mut CoreState, record: &TraceRecord) {
        let bandwidth = self.dram.bandwidth_quartile();
        walk_l1(core, record, 0, bandwidth, |core, access, requester| {
            self.warm_beyond_l1(core, access, requester, bandwidth);
            0
        });
    }

    /// Brings the memory side up to `cycle`: every fill whose data has
    /// arrived materializes in its caches, in (ready, line) order, and the
    /// DRAM bandwidth tracker advances.
    pub(super) fn deliver(&mut self, cycle: u64, cores: &mut [CoreState]) {
        while let Some(&Reverse((ready, line))) = self.ready_queue.peek() {
            if ready > cycle {
                break;
            }
            self.ready_queue.pop();
            let Some(fill) = self.pending.remove(line) else {
                continue;
            };
            if fill.ready > cycle {
                // A duplicate queue entry from a superseded request; requeue.
                self.pending.insert(line, fill);
                self.ready_queue.push(Reverse((fill.ready, line)));
                continue;
            }
            if fill.is_prefetch {
                // The fill materializes: its prefetch MSHR frees up.
                cores[fill.issuer].inflight_prefetches -= 1;
            }
            let line_addr = LineAddr::new(line);
            let is_prefetch = fill.is_prefetch && !fill.used_by_demand;
            let core = &mut cores[fill.core];
            if fill.fill_l2 {
                core.l2.fill(line_addr, is_prefetch, fill.low_priority);
            }
            if fill.fill_l1 {
                core.l1.fill(line_addr, is_prefetch, fill.low_priority);
            }
            if let Some(eviction) = self.llc.fill(line_addr, is_prefetch, fill.low_priority) {
                if is_prefetch {
                    self.pollution.record_prefetch_victim(eviction.line);
                }
            }
        }
        self.dram.advance(cycle);
    }

    /// Abandons every in-flight DRAM fill, as a context switch would.
    pub(super) fn reset_timing(&mut self) {
        self.pending.clear();
        self.ready_queue.clear();
    }

    /// Whether no DRAM fill is in flight (a functional boundary).
    pub(super) fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.ready_queue.is_empty()
    }

    /// DRAM fills in flight.
    pub(super) fn fills_in_flight(&self) -> usize {
        self.pending.len()
    }

    /// The timed side past the L1: the L2/LLC probe, then an in-flight fill
    /// or DRAM, then the L2 prefetcher's training and issue. Returns the
    /// request's latency beyond the L1 probe.
    fn timed_beyond_l1(
        &mut self,
        core: &mut CoreState,
        access: &MemoryAccess,
        requester: Requester,
        cycle: u64,
    ) -> u64 {
        let line = access.line();
        let count_coverage = requester == Requester::Demand;
        let bandwidth = self.dram.bandwidth_quartile();
        let probe = probe_l2_llc(core, &mut self.llc, line, count_coverage);
        let latency = match probe {
            Probe::L2Hit => self.l2_latency,
            Probe::LlcHit => {
                // Fill the inner levels (demand fill).
                core.l2.fill(line, false, false);
                core.l1.fill(line, false, false);
                self.pollution.observe_demand(line, false);
                self.l2_latency + self.llc_latency
            }
            Probe::Miss => {
                self.l2_latency + self.llc_latency + self.fetch(core, line, cycle, count_coverage)
            }
        };
        let ctx = PrefetchContext::at_cycle(cycle)
            .with_cache_hit(probe == Probe::L2Hit)
            .with_bandwidth(bandwidth);
        train_l2(core, access, &ctx, |core, request| {
            self.issue_l2_prefetch(core, request, cycle)
        });
        if requester == Requester::L1Prefetch {
            // An L1 prefetch fills the L1 at once, whatever its latency.
            core.l1.fill(line, true, false);
        }
        latency
    }

    /// Brings in a line that missed the LLC: an in-flight fill (an earlier
    /// prefetch or demand to the same line) or a DRAM access, resolved with
    /// a single hash probe. Returns the wait beyond the LLC probe.
    fn fetch(
        &mut self,
        core: &mut CoreState,
        line: LineAddr,
        cycle: u64,
        count_coverage: bool,
    ) -> u64 {
        let issue_cycle = cycle + self.l2_latency + self.llc_latency + DRAM_REQUEST_OVERHEAD;
        match self.pending.slot(line.as_u64()) {
            Slot::Occupied(fill) => {
                // A demand hitting an in-flight prefetch promotes it to
                // demand priority (as an MSHR hit would): re-issue the
                // request with demand priority and take whichever data
                // return is earlier.
                let was_prefetch = fill.is_prefetch && !fill.used_by_demand;
                fill.used_by_demand = true;
                fill.fill_l1 = true;
                fill.fill_l2 = true;
                fill.core = core.id;
                let old_ready = fill.ready;
                let promoted_ready = if was_prefetch && old_ready > issue_cycle {
                    let reissued = self.dram.access(line, issue_cycle, false);
                    fill.ready = fill.ready.min(reissued);
                    self.ready_queue.push(Reverse((fill.ready, line.as_u64())));
                    fill.ready
                } else {
                    old_ready
                };
                if count_coverage && was_prefetch {
                    core.accounting.covered += 1;
                    core.accounting.prefetches_used += 1;
                }
                self.pollution.observe_demand(line, false);
                promoted_ready.saturating_sub(cycle).max(1)
            }
            Slot::Vacant(vacant) => {
                if count_coverage {
                    core.accounting.uncovered += 1;
                }
                self.pollution.observe_demand(line, true);
                let ready = self.dram.access(line, issue_cycle, false);
                vacant.insert(PendingFill {
                    ready,
                    core: core.id,
                    issuer: core.id,
                    fill_l1: true,
                    fill_l2: true,
                    used_by_demand: true,
                    ..PendingFill::default()
                });
                self.ready_queue.push(Reverse((ready, line.as_u64())));
                DRAM_REQUEST_OVERHEAD + ready.saturating_sub(issue_cycle)
            }
        }
    }

    /// Issues one request from the L2 prefetcher. Returns `false` when the
    /// core's prefetch MSHR budget is exhausted: the budget only grows
    /// within one access's issue loop, so the caller can stop iterating the
    /// remaining candidates — a full prefetch queue drops them on the
    /// floor, as the hardware's would.
    fn issue_l2_prefetch(
        &mut self,
        core: &mut CoreState,
        request: &PrefetchRequest,
        cycle: u64,
    ) -> bool {
        if core.inflight_prefetches >= self.prefetch_mshrs {
            return false;
        }
        let line = request.line;
        let key = line.as_u64();
        let fill_l2 = request.fill_level != FillLevel::Llc;
        if core.l2.prefetch_lookup(line) {
            return true; // already resident where it would be filled
        }
        // One hash probe decides in-flight filtering and books the fill.
        let Slot::Vacant(vacant) = self.pending.slot(key) else {
            return true;
        };
        core.accounting.prefetches_issued += 1;
        let ready = if self.llc.prefetch_lookup(line) {
            // The line is on-die already: pull it into the L2 without DRAM
            // traffic; model it as arriving after an LLC round trip.
            cycle + self.llc_latency
        } else {
            self.dram.access(line, cycle + DRAM_REQUEST_OVERHEAD, true)
        };
        vacant.insert(PendingFill {
            ready,
            core: core.id,
            issuer: core.id,
            is_prefetch: true,
            fill_l2,
            low_priority: request.low_priority,
            ..PendingFill::default()
        });
        core.inflight_prefetches += 1;
        self.ready_queue.push(Reverse((ready, key)));
        true
    }

    /// The functional side past the L1: after the shared probe, a miss fills
    /// every level at once, and the L2 prefetcher's requests fill at once
    /// too. At most `prefetch_mshrs` of them apply per training event — the
    /// timed engine drops candidates beyond its in-flight MSHR budget on the
    /// floor, so applying a dense pattern in full would warm the caches with
    /// lines the detailed run never fetches (and dominate warm-up cost for
    /// aggressive patterns).
    fn warm_beyond_l1(
        &mut self,
        core: &mut CoreState,
        access: &MemoryAccess,
        requester: Requester,
        bandwidth: BandwidthQuartile,
    ) {
        let line = access.line();
        let count_coverage = requester == Requester::Demand;
        let probe = probe_l2_llc(core, &mut self.llc, line, count_coverage);
        if probe != Probe::L2Hit {
            if probe == Probe::Miss && count_coverage {
                core.accounting.uncovered += 1;
            }
            core.l2.fill(line, false, false);
            core.l1.fill(line, false, false);
            if probe == Probe::Miss {
                let _ = self.llc.fill(line, false, false);
            }
        }
        let ctx = PrefetchContext::at_cycle(0)
            .with_cache_hit(probe == Probe::L2Hit)
            .with_bandwidth(bandwidth);
        let budget = self.prefetch_mshrs;
        let llc = &mut self.llc;
        let mut applied = 0usize;
        train_l2(core, access, &ctx, |core, request| {
            if applied >= budget {
                return false;
            }
            if core.l2.prefetch_lookup(request.line) {
                return true;
            }
            applied += 1;
            core.accounting.prefetches_issued += 1;
            let _ = llc.fill(request.line, true, request.low_priority);
            if request.fill_level != FillLevel::Llc {
                core.l2.fill(request.line, true, request.low_priority);
            }
            true
        });
        if requester == Requester::L1Prefetch {
            core.l1.fill(line, true, false);
        }
    }
}

/// The L1 walk of both modes. The L1 stride prefetcher observes the access
/// and the L1 is probed; a miss goes to `beyond`, the mode's side past the
/// L1. Then each stride request that misses the L1 goes there as an L1
/// prefetch (after the demand, so it never shortens it). Returns the
/// demand's latency beyond the L1 probe, 0 on a hit.
fn walk_l1(
    core: &mut CoreState,
    record: &TraceRecord,
    cycle: u64,
    bandwidth: BandwidthQuartile,
    mut beyond: impl FnMut(&mut CoreState, &MemoryAccess, Requester) -> u64,
) -> u64 {
    let access = MemoryAccess::new(record.pc, record.addr, record.kind).with_core(CoreId(core.id));
    // The sink is taken out of the core for the walk (a pointer swap, not
    // an allocation) so `beyond` can borrow the core while it is iterated.
    let mut l1_sink = std::mem::take(&mut core.l1_sink);
    l1_sink.clear();
    if let Some(prefetcher) = core.l1_prefetcher.as_mut() {
        let ctx = PrefetchContext::at_cycle(cycle).with_bandwidth(bandwidth);
        prefetcher.on_access(&access, &ctx, &mut l1_sink);
    }
    let latency = if core.l1.demand_lookup(access.line()) {
        0
    } else {
        core.accounting.l2_demand_accesses += 1;
        beyond(core, &access, Requester::Demand)
    };
    for request in l1_sink.requests() {
        if core.l1.prefetch_lookup(request.line) {
            continue;
        }
        let access = MemoryAccess::new(Pc::new(0), request.line.to_addr(), AccessKind::Load)
            .with_core(CoreId(core.id));
        beyond(core, &access, Requester::L1Prefetch);
    }
    core.l1_sink = l1_sink;
    latency
}

/// Trains the core's L2 prefetcher on one access that missed the L1 and
/// hands its requests, in order, to `issue` until `issue` returns `false`
/// (the prefetch queue is full).
fn train_l2(
    core: &mut CoreState,
    access: &MemoryAccess,
    ctx: &PrefetchContext,
    mut issue: impl FnMut(&mut CoreState, &PrefetchRequest) -> bool,
) {
    let mut l2_sink = std::mem::take(&mut core.l2_sink);
    l2_sink.clear();
    core.l2_prefetcher.on_access(access, ctx, &mut l2_sink);
    for request in l2_sink.requests() {
        if !issue(core, request) {
            break;
        }
    }
    core.l2_sink = l2_sink;
}

/// Probes the L2 and then the LLC for a line that missed the L1. A hit that
/// is the first use of a prefetched line counts as covered when
/// `count_coverage` is set (a demand). Fills nothing.
fn probe_l2_llc(
    core: &mut CoreState,
    llc: &mut Cache,
    line: LineAddr,
    count_coverage: bool,
) -> Probe {
    let (probe, first_use) = match core.l2.demand_lookup_first_use(line) {
        (true, first_use) => (Probe::L2Hit, first_use),
        _ => match llc.demand_lookup_first_use(line) {
            (true, first_use) => (Probe::LlcHit, first_use),
            _ => return Probe::Miss,
        },
    };
    if count_coverage && first_use {
        core.accounting.covered += 1;
        core.accounting.prefetches_used += 1;
    }
    probe
}

/// Figure 20's LLC pollution classes, fed by fabric events only: a prefetch
/// fill's LLC victim, and a demand that left the L2.
#[derive(Debug)]
pub(super) struct PollutionTracker {
    /// Lines evicted from the LLC by a prefetch fill and not re-demanded
    /// yet, as one mask of victim lines per 4 KB page. A page's entry is
    /// removed when its mask empties.
    victims: LineTable<u64>,
    /// Victim lines tracked: the set bits across every mask.
    lines: usize,
    pub(super) counts: PollutionBreakdown,
}

impl Default for PollutionTracker {
    fn default() -> Self {
        Self {
            victims: LineTable::with_capacity(POLLUTION_START_PAGES),
            lines: 0,
            counts: PollutionBreakdown::default(),
        }
    }
}

impl PollutionTracker {
    fn record_prefetch_victim(&mut self, line: LineAddr) {
        if self.lines >= POLLUTION_TRACK_CAP {
            return;
        }
        let bit = 1u64 << line.page_offset();
        match self.victims.slot(line.page().as_u64()) {
            Slot::Occupied(mask) => {
                if *mask & bit != 0 {
                    return;
                }
                *mask |= bit;
            }
            Slot::Vacant(slot) => slot.insert(bit),
        }
        self.lines += 1;
    }

    /// Classifies a demand that left the L2 if its line is a tracked
    /// victim. Called on every such demand, so it returns at once while
    /// nothing is tracked (every baseline run, and every run before its
    /// first prefetch-fill eviction).
    #[inline]
    fn observe_demand(&mut self, line: LineAddr, went_to_dram: bool) {
        if self.lines == 0 {
            return;
        }
        let page = line.page().as_u64();
        let bit = 1u64 << line.page_offset();
        let Some(mask) = self.victims.get_mut(page) else {
            return;
        };
        if *mask & bit == 0 {
            return;
        }
        *mask &= !bit;
        if *mask == 0 {
            self.victims.remove(page);
        }
        self.lines -= 1;
        if went_to_dram {
            self.counts.bad_pollution += 1;
        } else {
            self.counts.prefetched_before_use += 1;
        }
    }

    /// The breakdown so far: victims still tracked count as never reused.
    pub(super) fn breakdown(&self) -> PollutionBreakdown {
        PollutionBreakdown {
            no_reuse: self.counts.no_reuse + self.lines as u64,
            ..self.counts
        }
    }

    /// Forgets every tracked victim, keeping the table's capacity, and
    /// restarts the counts from `counts`.
    pub(super) fn reset(&mut self, counts: PollutionBreakdown) {
        self.victims.clear();
        self.lines = 0;
        self.counts = counts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Differential-tests the page-mask tracker against a plain set of
    /// lines through a long seeded churn: a few victims per page, victims
    /// recorded again while tracked, pages emptied and refilled, demands
    /// that went to DRAM and ones that did not, and resets.
    #[test]
    fn pollution_tracker_matches_a_line_set_under_churn() {
        let mut tracker = PollutionTracker::default();
        let mut reference = std::collections::HashSet::new();
        let mut counts = PollutionBreakdown::default();
        // Demands before the first victim find nothing.
        for line in 0..256 {
            tracker.observe_demand(LineAddr::new(line), line % 2 == 0);
        }
        assert_eq!(tracker.breakdown(), counts);
        // Offsets at both ends of a page and in between, a few per page.
        const OFFSETS: [u64; 6] = [0, 1, 17, 40, 62, 63];
        let mut state = 0x5EED_F00D_u64;
        for step in 0..200_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let page = (state >> 40) % 512;
            let line = page * 64 + OFFSETS[((state >> 32) % 6) as usize];
            if state % 5 < 2 {
                tracker.record_prefetch_victim(LineAddr::new(line));
                reference.insert(line);
            } else {
                let went_to_dram = (state >> 20) & 1 == 1;
                tracker.observe_demand(LineAddr::new(line), went_to_dram);
                if reference.remove(&line) {
                    if went_to_dram {
                        counts.bad_pollution += 1;
                    } else {
                        counts.prefetched_before_use += 1;
                    }
                }
            }
            if step % 50_000 == 49_999 {
                // An interval boundary or a restore: the victims are
                // forgotten and the counts start from the given values.
                tracker.reset(counts);
                reference.clear();
            }
            assert_eq!(tracker.lines, reference.len(), "step {step}");
            assert_eq!(tracker.counts, counts, "step {step}");
            if step % 1_000 == 0 {
                let pages: std::collections::HashSet<u64> =
                    reference.iter().map(|line| line >> 6).collect();
                assert_eq!(tracker.victims.len(), pages.len(), "step {step}");
            }
        }
        assert!(counts.prefetched_before_use > 0 && counts.bad_pollution > 0);
        assert_eq!(
            tracker.breakdown(),
            PollutionBreakdown {
                no_reuse: counts.no_reuse + reference.len() as u64,
                ..counts
            }
        );
    }
}
