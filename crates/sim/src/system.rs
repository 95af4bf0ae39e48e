//! The simulated machine: approximate out-of-order cores over a memory
//! side of private L1/L2 caches, a shared LLC and shared DRAM.
//!
//! ## Core model
//!
//! Each core is a cycle-stepped approximation of the paper's Skylake-class
//! configuration: a 224-entry ROB filled and retired 4-wide, an 80-entry
//! load buffer bounding outstanding memory operations, non-memory
//! instructions completing in one cycle, and memory instructions completing
//! when the hierarchy returns their data. This captures the two first-order
//! effects prefetching changes — exposed memory latency at the ROB head and
//! memory-level parallelism — without modelling the full pipeline.
//!
//! ## Memory side
//!
//! Everything a request meets past the core model lives in the private
//! `fabric` child module: the request walk through L1, L2 and LLC (whose
//! L1 walk, L2/LLC probe and L2-prefetcher training the timed engine and
//! the functional warm-up share), the in-flight fill table, DRAM booking
//! and promotion, fill delivery and LLC pollution tracking. Cores hand it
//! requests through `SharedFabric::demand` and `SharedFabric::warm`.

mod fabric;

use crate::cache::Cache;
use crate::config::SystemConfig;
use crate::snapshot::{CoreSnapshot, MachineState};
use crate::stats::{CoreResult, PollutionBreakdown, PrefetchAccounting, SimResult};
use dspatch_prefetchers::{AnyPrefetcher, StrideConfig, StridePrefetcher};
use dspatch_trace::{IntoTraceSource, TraceRecord, TraceSource};
use dspatch_types::{PrefetchSink, Prefetcher, SnapshotError};
use fabric::SharedFabric;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A run of consecutive ROB slots sharing one completion cycle. Gap
/// (non-memory) instructions allocated in the same cycle all complete one
/// cycle later, so they compress into a single entry — the dominant ROB
/// traffic shrinks by the allocation width.
#[derive(Debug, Clone, Copy)]
struct RobEntry {
    completion: u64,
    count: u32,
}

/// One simulated core and everything private to it: trace supply, ROB and
/// load-buffer state, the L1/L2 caches, both prefetchers and their reusable
/// request sinks.
struct CoreState {
    id: usize,
    workload: String,
    /// Pull-based record supply: the machine holds O(1) trace state however
    /// long the run (an owned `Trace` arrives as the materialized adapter).
    source: Box<dyn TraceSource>,
    /// One-record lookahead: the next record to issue, already pulled so
    /// its `gap` is known during the preceding gap-allocation phase.
    pending: Option<TraceRecord>,
    gap_remaining: u32,
    /// Records pulled from the source and fully consumed (issued in timed
    /// mode or applied functionally). The one-record lookahead in `pending`
    /// is *not* counted, so a checkpoint can replay the source exactly this
    /// many records to land back on the same lookahead.
    records_consumed: u64,
    /// Remaining records this core may issue before it reports finished
    /// (`u64::MAX` = unbounded). Sampled simulation sets this to the
    /// interval length so a measurement window covers an exact record
    /// count; the record that would exceed the budget stays in `pending`.
    record_budget: u64,
    /// Run-length-compressed, in-order ROB; `rob_len` tracks the summed
    /// instruction count (the occupancy the 224-entry bound applies to).
    rob: std::collections::VecDeque<RobEntry>,
    rob_len: usize,
    load_completions: BinaryHeap<Reverse<u64>>,
    l1: Cache,
    l2: Cache,
    l1_prefetcher: Option<StridePrefetcher>,
    l2_prefetcher: AnyPrefetcher,
    accounting: PrefetchAccounting,
    /// L2 prefetch fills currently in flight for this core (bounded by the
    /// configured prefetch MSHR budget).
    inflight_prefetches: usize,
    instructions: u64,
    finish_cycle: u64,
    finished: bool,
    /// The next cycle at which the machine steps this core (`u64::MAX` once
    /// it has finished). Cycle skipping advances the core in closed form up
    /// to that cycle; 0 means "at the next cycle".
    wake: u64,
    last_memory_completion: u64,
    /// Reusable request buffer for the L1 stride prefetcher (owned by the
    /// core so the per-access hot path never allocates in steady state).
    l1_sink: PrefetchSink,
    /// Reusable request buffer for the L2 prefetcher.
    l2_sink: PrefetchSink,
}

impl CoreState {
    /// Appends `count` instructions completing at `completion`, merging with
    /// the newest run when the completion cycle matches.
    #[inline]
    fn rob_push(&mut self, completion: u64, count: u32) {
        self.rob_len += count as usize;
        if let Some(back) = self.rob.back_mut() {
            if back.completion == completion {
                back.count += count;
                return;
            }
        }
        self.rob.push_back(RobEntry { completion, count });
    }

    /// Drops load completions that have retired by `cycle`.
    #[inline]
    fn drain_load_completions(&mut self, cycle: u64) {
        while let Some(&Reverse(completion)) = self.load_completions.peek() {
            if completion <= cycle {
                self.load_completions.pop();
            } else {
                break;
            }
        }
    }

    /// Drops the core's in-flight timing state (ROB, load buffer, prefetch
    /// MSHRs), marks it unfinished and due at the next cycle. Caches,
    /// predictors and the trace position are untouched. Called wherever
    /// the machine clock restarts.
    fn reset_timing(&mut self) {
        self.finished = false;
        self.wake = 0;
        self.rob.clear();
        self.rob_len = 0;
        self.load_completions.clear();
        self.inflight_prefetches = 0;
    }
}

/// Builds and runs a simulation.
///
/// # Example
///
/// See the [crate-level documentation](crate).
pub struct SimulationBuilder {
    config: SystemConfig,
    cores: Vec<(Box<dyn TraceSource>, AnyPrefetcher)>,
}

impl SimulationBuilder {
    /// Starts a builder for the given system configuration.
    pub fn new(config: SystemConfig) -> Self {
        Self {
            config,
            cores: Vec::new(),
        }
    }

    /// Adds a core pulling records from `source` with `l2_prefetcher`
    /// attached to its L2. Accepts any [`TraceSource`] (lazy synthetic
    /// workloads, file-backed traces) or an owned [`dspatch_trace::Trace`],
    /// which becomes the materialized adapter source.
    ///
    /// The prefetcher is anything convertible into [`AnyPrefetcher`], such
    /// as a concrete registry prefetcher, statically dispatched on the
    /// per-access hot path.
    #[must_use]
    pub fn with_core(
        mut self,
        source: impl IntoTraceSource,
        l2_prefetcher: impl Into<AnyPrefetcher>,
    ) -> Self {
        self.cores
            .push((source.into_trace_source(), l2_prefetcher.into()));
        self
    }

    /// Runs the simulation to completion on the exact cycle-interleaved
    /// [`Machine`], whatever the core count: every cycle, each core in turn
    /// sees the shared LLC and DRAM exactly as the cores before it left
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if no cores were added, more cores were added than the
    /// configuration allows, or the configuration is invalid.
    pub fn run(self) -> SimResult {
        SIMULATIONS_STARTED.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Machine::new(self.config, self.cores).run()
    }

    /// Builds the [`Machine`] without running it, for the sampled
    /// simulation workflow: functional warm-up, checkpoint capture/restore
    /// and bounded measurement intervals. Panics under the same conditions
    /// as [`SimulationBuilder::run`]; additionally the sampling workflow is
    /// single-core-only, so more than one core is rejected.
    ///
    /// # Panics
    ///
    /// Panics if no core or more than one core was added, or the
    /// configuration is invalid.
    pub fn into_machine(self) -> Machine {
        assert!(
            self.cores.len() <= 1,
            "sampled simulation is single-core; use SimulationBuilder::run for multi-core"
        );
        SIMULATIONS_STARTED.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Machine::new(self.config, self.cores)
    }
}

/// Process-wide count of simulations started, see [`simulations_started`].
static SIMULATIONS_STARTED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Process-wide count of simulations started: every
/// [`SimulationBuilder::run`] and [`SimulationBuilder::into_machine`] call
/// since the process began. Purely diagnostic: the experiment harness's
/// tests use the delta across a campaign to prove baseline runs are
/// memoized rather than re-simulated per prefetcher column.
pub fn simulations_started() -> u64 {
    SIMULATIONS_STARTED.load(std::sync::atomic::Ordering::Relaxed)
}

/// Builds the per-core state. Panics on an invalid configuration or core
/// count (the `SimulationBuilder::run` contract).
fn build_cores(
    config: &SystemConfig,
    core_setup: Vec<(Box<dyn TraceSource>, AnyPrefetcher)>,
) -> Vec<CoreState> {
    config.validate().expect("invalid system configuration");
    assert!(!core_setup.is_empty(), "simulation needs at least one core");
    assert!(
        core_setup.len() <= config.cores,
        "more cores supplied ({}) than the configuration allows ({})",
        core_setup.len(),
        config.cores
    );
    core_setup
        .into_iter()
        .enumerate()
        .map(|(id, (mut source, l2_prefetcher))| {
            let workload = source.meta().name;
            let pending = source.next_record();
            let gap = pending.map_or(0, |r| r.gap);
            CoreState {
                id,
                workload,
                source,
                pending,
                gap_remaining: gap,
                records_consumed: 0,
                record_budget: u64::MAX,
                rob: std::collections::VecDeque::with_capacity(config.core.rob_entries),
                rob_len: 0,
                load_completions: BinaryHeap::new(),
                l1: Cache::new(config.l1.clone()),
                l2: Cache::new(config.l2.clone()),
                l1_prefetcher: config
                    .l1_stride_prefetcher
                    .then(|| StridePrefetcher::new(StrideConfig::default())),
                l2_prefetcher,
                accounting: PrefetchAccounting::default(),
                inflight_prefetches: 0,
                instructions: 0,
                finish_cycle: 0,
                finished: false,
                wake: 0,
                last_memory_completion: 0,
                l1_sink: PrefetchSink::new(),
                l2_sink: PrefetchSink::new(),
            }
        })
        .collect()
}

/// The simulated machine: the exact cycle-interleaved engine behind every
/// simulation, single- or multi-core.
pub struct Machine {
    config: SystemConfig,
    cycle: u64,
    cores: Vec<CoreState>,
    fab: SharedFabric,
}

impl Machine {
    fn new(config: SystemConfig, core_setup: Vec<(Box<dyn TraceSource>, AnyPrefetcher)>) -> Self {
        Self {
            cycle: 0,
            cores: build_cores(&config, core_setup),
            fab: SharedFabric::new(&config),
            config,
        }
    }

    /// Runs the machine until every core finishes (trace exhausted or
    /// record budget spent) and returns the accumulated result. Public for
    /// the sampling workflow ([`SimulationBuilder::into_machine`]); plain
    /// exact runs should prefer [`SimulationBuilder::run`].
    pub fn run(&mut self) -> SimResult {
        while !self.cores.iter().all(|c| c.finished) {
            self.step();
            self.skip_idle_cycles();
        }
        let cycles = self.cycle;
        let cores = self
            .cores
            .iter_mut()
            .map(|core| {
                core.accounting.finalize();
                CoreResult {
                    workload: core.workload.clone(),
                    prefetcher: core.l2_prefetcher.name().to_owned(),
                    instructions: core.instructions,
                    finish_cycle: core.finish_cycle.max(1),
                    l1: *core.l1.stats(),
                    l2: *core.l2.stats(),
                    accounting: core.accounting,
                }
            })
            .collect();
        SimResult {
            cores,
            llc: *self.fab.llc.stats(),
            dram: *self.fab.dram.stats(),
            pollution: self.fab.pollution.breakdown(),
            cycles,
            cache_geometry: vec![
                self.config.l1.geometry(),
                self.config.l2.geometry(),
                self.config.llc.geometry(),
            ],
            sampling: None,
        }
    }

    /// Advances the clock one cycle: due fills materialize, then every core
    /// whose wake-up cycle has come runs in core order.
    fn step(&mut self) {
        self.cycle += 1;
        let cycle = self.cycle;
        self.fab.deliver(cycle, &mut self.cores);
        for core in &mut self.cores {
            if core.wake <= cycle {
                step_core(core, &mut self.fab, &self.config, cycle);
            }
        }
    }

    /// Fast-forwards every core the last step ran over the cycles whose
    /// effect on it is either nothing (idle stall) or closed-form (steady
    /// gap-instruction allocation), sets its wake-up cycle to its next
    /// event, and moves the clock to just before the earliest wake-up. This
    /// is exact, not approximate:
    ///
    /// * An idle core's per-cycle work is empty — the retire loop breaks at
    ///   the ROB head and allocation is blocked — so skipping to the next
    ///   event changes nothing.
    /// * A core allocating only gap instructions evolves deterministically
    ///   (`width` allocations per cycle, matching retirements when the ROB
    ///   head is current, pure accumulation when it is blocked), so its
    ///   state after `k` such cycles is computed directly.
    /// * Between a core's own events nothing else reads or writes its ROB,
    ///   gap or load-buffer state, so other cores stepping in the meantime
    ///   cannot change how far it may skip.
    /// * Pending DRAM fills only mutate a core's caches and prefetch MSHR
    ///   count, which a skipped core does not read; they materialize, in
    ///   ready order, at the next stepped cycle before any core runs —
    ///   exactly the order the cycle-by-cycle loop produces. The DRAM
    ///   bandwidth tracker advances by window arithmetic and is jump-safe.
    ///
    /// Memory-bound and compute-gap phases — where simulated time
    /// concentrates — therefore cost wall-clock per *event* of each core,
    /// not per cycle.
    fn skip_idle_cycles(&mut self) {
        if !self.config.cycle_skipping {
            return;
        }
        let cycle = self.cycle;
        let width = self.config.core.width;
        let rob_entries = self.config.core.rob_entries;
        let mut next_wake = u64::MAX;
        for core in &mut self.cores {
            if core.wake <= cycle {
                let skip = core_skip_allowance(core, cycle, &self.config);
                core.wake = if skip == u64::MAX {
                    u64::MAX // finished
                } else {
                    if skip > 0 {
                        advance_core_closed_form(core, cycle, skip, width, rob_entries);
                    }
                    cycle + skip + 1
                };
            }
            next_wake = next_wake.min(core.wake);
        }
        if next_wake != u64::MAX {
            self.cycle = next_wake - 1; // `step` moves onto the wake-up
        }
    }
}

/// How many upcoming cycles (starting at `cycle + 1`) this core can be
/// advanced without stepping it, or `u64::MAX` if it is finished. Zero means
/// the next cycle must run normally. Mirrors the conditions of `step_core`
/// exactly and reads only the core's own state, so the machine next steps
/// the core at `cycle + allowance + 1` whatever the other cores do.
fn core_skip_allowance(core: &CoreState, cycle: u64, config: &SystemConfig) -> u64 {
    {
        if core.finished {
            return u64::MAX;
        }
        let width = config.core.width;
        let rob_entries = config.core.rob_entries;
        let head = core.rob.front().map(|e| e.completion);
        let has_records = core.pending.is_some() && core.record_budget > 0;

        if has_records && core.gap_remaining > 0 {
            // Gap-allocation phase: closed-form for whole cycles of `width`
            // gap instructions. The ROB front may hold already-completed
            // instructions (the backlog) followed by a blocked run.
            let gap_cycles = u64::from(core.gap_remaining) / width as u64;
            if gap_cycles >= 1 {
                let mut backlog = 0usize;
                let mut next_blocked = u64::MAX;
                for entry in core.rob.iter() {
                    if entry.completion <= cycle + 1 {
                        backlog += entry.count as usize;
                    } else {
                        next_blocked = entry.completion;
                        break;
                    }
                }
                if backlog >= width {
                    // Backlog regime: every streak cycle retires exactly
                    // `width` already-completed instructions and (with the
                    // freed slots, if the ROB was full) allocates `width`
                    // gap instructions — occupancy never grows and the
                    // blocked run (if any) never reaches the head.
                    return gap_cycles.min((backlog / width) as u64);
                }
                if core.rob_len < rob_entries {
                    // Accumulation regime: the < `width`-deep current front
                    // retires in the first cycle; afterwards allocations
                    // pile up (blocked head) or retire steadily (no blocked
                    // run at all).
                    let space_cycles = ((rob_entries - core.rob_len + backlog) / width) as u64;
                    let mut skip = gap_cycles.min(space_cycles);
                    if next_blocked != u64::MAX {
                        skip = skip.min(next_blocked - cycle - 1);
                    }
                    return skip;
                }
                // ROB full with a blocked (or shallow) head: idle until the
                // head retires.
                return head.map_or(0, |h| h.saturating_sub(cycle + 1));
            }
            // Partial gap (followed by the memory record within one cycle).
            if core.rob_len < rob_entries {
                return 0; // it allocates next cycle: step normally
            }
            return head.map_or(0, |h| h.saturating_sub(cycle + 1));
        }
        if has_records && core.rob_len < rob_entries {
            // Next up is a memory record.
            if core.load_completions.len() < config.core.load_buffer_entries {
                return 0; // it issues next cycle
            }
            // Blocked on the load buffer: idle until a load completes (or
            // the ROB head retires, whichever is earlier).
            let load_head = core
                .load_completions
                .peek()
                .map_or(u64::MAX, |&Reverse(c)| c);
            return load_head
                .min(head.unwrap_or(u64::MAX))
                .saturating_sub(cycle + 1);
        }
        // Cannot allocate: either the trace is exhausted or the ROB is full.
        match head {
            // Exhausted trace, empty ROB: the core finishes next step.
            None => 0,
            // Idle until the head retires.
            Some(h) => h.saturating_sub(cycle + 1),
        }
    }
}

/// Applies `skip` cycles' worth of closed-form evolution to `core`
/// (validated by `core_skip_allowance`): gap-phase cores allocate
/// `width * skip` instructions, idle cores are untouched (their lazy
/// load-completion drain happens at the next real step, identically to
/// the per-cycle loop's cumulative pops).
fn advance_core_closed_form(
    core: &mut CoreState,
    cycle: u64,
    skip: u64,
    width: usize,
    rob_entries: usize,
) {
    // The guard must classify the core exactly as `core_skip_allowance`
    // did: only a core in the gap-allocation phase evolves during a skip.
    if core.finished || core.gap_remaining == 0 || core.pending.is_none() || core.record_budget == 0
    {
        return;
    }
    let gap_cycles = u64::from(core.gap_remaining) / width as u64;
    if gap_cycles == 0 {
        return; // partial-gap core: it was idle (ROB full) or skip is 0
    }
    let mut backlog = 0usize;
    for entry in core.rob.iter() {
        if entry.completion > cycle + 1 {
            break;
        }
        backlog += entry.count as usize;
    }
    if backlog < width && core.rob_len >= rob_entries {
        return; // ROB-full idle core, untouched during the skip
    }
    debug_assert!(skip <= gap_cycles);
    let allocated = skip * width as u64;
    if backlog >= width {
        // Backlog regime: retire `width` per streak cycle, count-wise
        // from the front runs; every allocation stays in flight (it can
        // only retire once it reaches the head, which the backlog and
        // any blocked run prevent until after the streak).
        let mut to_retire = allocated as usize;
        debug_assert!(backlog >= to_retire);
        while to_retire > 0 {
            let front = core.rob.front_mut().expect("backlog covers retirement");
            let take = to_retire.min(front.count as usize);
            front.count -= take as u32;
            core.rob_len -= take;
            to_retire -= take;
            if front.count == 0 {
                core.rob.pop_front();
            }
        }
        core.rob_push(cycle + skip + 1, allocated as u32);
    } else {
        // Accumulation regime: the current front retires in the first
        // streak cycle.
        while let Some(front) = core.rob.front() {
            if front.completion > cycle + 1 {
                break;
            }
            core.rob_len -= front.count as usize;
            core.rob.pop_front();
        }
        if core.rob.is_empty() {
            // Steady state: each cycle's `width` allocations retire the
            // next cycle; only the final cycle's allocation remains.
            core.rob_push(cycle + skip + 1, width as u32);
        } else {
            // Blocked head: allocations accumulate behind it. Their
            // completions (cycle+2 ..= cycle+skip+1) all precede their
            // earliest possible retirement, so a single run at the
            // latest completion retires identically.
            core.rob_push(cycle + skip + 1, allocated as u32);
        }
    }
    core.gap_remaining -= allocated as u32;
    core.instructions += allocated;
    core.drain_load_completions(cycle + skip);
}

/// Sampled-simulation support: functional warm-up, bounded measurement
/// intervals and machine checkpoints ([`crate::snapshot`]).
impl Machine {
    /// Consumes up to `accesses` trace records per core in **functional
    /// warm-up mode**: caches and prefetcher pattern tables are updated
    /// through the timed engine's own L1 walk and L2/LLC probe, but the
    /// timing model — ROB, load buffer, MSHRs, DRAM banks, cycle
    /// accounting — is skipped entirely, and DRAM-bound fills materialize
    /// immediately. `instructions` and the cycle counter do not advance, so
    /// a measurement interval started afterwards reports only its own work.
    ///
    /// Returns the number of records actually consumed (the minimum across
    /// cores; less than `accesses` only when a trace runs out).
    pub fn run_functional(&mut self, accesses: u64) -> u64 {
        self.consume_records(accesses, SharedFabric::warm)
    }

    /// Discards up to `accesses` trace records per core without simulating
    /// them at all — no cache probes, no prefetcher training. Used by the
    /// sampling harness to fast-forward the bulk of a gap between
    /// measurement intervals before a bounded functional re-warm; machine
    /// state goes stale by exactly the skipped span, which the re-warm then
    /// repairs. Runs at trace-generation speed.
    ///
    /// Returns the number of records actually discarded (the minimum across
    /// cores; less than `accesses` only when a trace runs out).
    pub fn skip_records(&mut self, accesses: u64) -> u64 {
        self.consume_records(accesses, |_, _, _| {})
    }

    /// Consumes up to `accesses` records per core outside the timed engine,
    /// handing each to `apply` first. Returns the fewest any core consumed.
    fn consume_records(
        &mut self,
        accesses: u64,
        mut apply: impl FnMut(&mut SharedFabric, &mut CoreState, &TraceRecord),
    ) -> u64 {
        let fab = &mut self.fab;
        let consumed = self.cores.iter_mut().map(|core| {
            let mut consumed = 0;
            while consumed < accesses {
                let Some(record) = core.pending else { break };
                apply(fab, core, &record);
                core.records_consumed += 1;
                core.pending = core.source.next_record();
                core.gap_remaining = core.pending.map_or(0, |r| r.gap);
                consumed += 1;
            }
            consumed
        });
        consumed.min().unwrap_or(0)
    }

    /// Runs one detailed **measurement interval** of exactly `accesses`
    /// records per core (fewer only if the trace ends) and returns its
    /// isolated [`SimResult`]: interval statistics are reset on entry, so
    /// IPC/coverage/pollution describe this window alone, while warmed
    /// cache and predictor contents carry over. Afterwards the machine is
    /// back at a functional boundary — the record that would have exceeded
    /// the budget is still pending, and in-flight timing state is drained —
    /// so fast-forwarding or capturing can follow directly.
    pub fn run_interval(&mut self, accesses: u64) -> SimResult {
        self.begin_interval();
        for core in &mut self.cores {
            core.record_budget = accesses;
            core.finished = false;
        }
        let result = self.run();
        // Return to a functional boundary: lift the budget and drop timing
        // residue (unmaterialized prefetch fills are abandoned, as they
        // would be by a context switch).
        for core in &mut self.cores {
            core.record_budget = u64::MAX;
            core.reset_timing();
            core.last_memory_completion = 0;
        }
        self.fab.reset_timing();
        result
    }

    /// Resets everything a [`SimResult`] reports — cycle counter, cache and
    /// DRAM statistics, accounting, pollution — without touching the warmed
    /// cache contents, predictor state or trace position.
    fn begin_interval(&mut self) {
        self.cycle = 0;
        self.fab.reset_timing();
        self.fab.pollution.reset(PollutionBreakdown::default());
        self.fab.llc.reset_stats();
        self.fab.dram.reset_interval();
        for core in &mut self.cores {
            core.l1.reset_stats();
            core.l2.reset_stats();
            core.accounting = PrefetchAccounting::default();
            core.instructions = 0;
            core.finish_cycle = 0;
            core.last_memory_completion = 0;
            core.reset_timing();
        }
    }

    /// Copies the machine into a [`MachineState`] checkpoint.
    ///
    /// A checkpoint is the **neutral warm-up** and nothing else: every
    /// core's L2 prefetcher must be the null one, so the checkpoint holds
    /// the configuration, caches, DRAM, the L1 stride prefetcher,
    /// accounting and the trace position but no L2 predictor. Only a
    /// **functional boundary** can be captured — no ROB/load-buffer
    /// occupancy, no in-flight DRAM fills, no outstanding prefetch MSHRs —
    /// which is exactly the state [`Machine::run_functional`] and
    /// [`Machine::run_interval`] leave behind. Anything else is rejected
    /// with [`SnapshotError::Unsupported`].
    pub fn capture(&self) -> Result<MachineState, SnapshotError> {
        if !self.fab.is_idle() {
            return Err(SnapshotError::Unsupported(
                "capture requires a functional boundary: DRAM fills are in flight".to_owned(),
            ));
        }
        for core in &self.cores {
            if core.rob_len != 0
                || !core.load_completions.is_empty()
                || core.inflight_prefetches != 0
            {
                return Err(SnapshotError::Unsupported(format!(
                    "capture requires a functional boundary: core {} has in-flight work",
                    core.id
                )));
            }
            if !matches!(core.l2_prefetcher, AnyPrefetcher::Null(_)) {
                return Err(SnapshotError::Unsupported(format!(
                    "capture requires the null L2 prefetcher: core {} runs {}",
                    core.id,
                    core.l2_prefetcher.name()
                )));
            }
        }
        Ok(MachineState {
            config: self.config.clone(),
            cycle: self.cycle,
            cores: self
                .cores
                .iter()
                .map(|core| CoreSnapshot {
                    records_consumed: core.records_consumed,
                    instructions: core.instructions,
                    finish_cycle: core.finish_cycle,
                    last_memory_completion: core.last_memory_completion,
                    l1: core.l1.clone(),
                    l2: core.l2.clone(),
                    l1_prefetcher: core.l1_prefetcher.clone(),
                    accounting: core.accounting,
                })
                .collect(),
            llc: self.fab.llc.clone(),
            dram: self.fab.dram.clone(),
            pollution: self.fab.pollution.counts,
        })
    }

    /// Restores a [`MachineState`] captured from a machine with the same
    /// configuration, core count and traces. The trace position is
    /// re-derived by replaying each source to the checkpoint's consumed
    /// count (generation only — no cache simulation), so checkpoints stay
    /// small and valid for any `TraceSource`.
    ///
    /// The checkpoint holds no L2 predictor, so this machine's L2
    /// prefetcher keeps its current state: one neutral warm-up forks across
    /// every prefetcher column, each starting its own predictor fresh.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Invalid`] when the checkpoint was captured
    /// under another [`SystemConfig`] or core count, or a trace is shorter
    /// than the checkpoint's position. A machine refused for a short trace
    /// is partially overwritten and must be discarded.
    pub fn restore(&mut self, state: &MachineState) -> Result<(), SnapshotError> {
        if state.config != self.config {
            return Err(SnapshotError::Invalid(
                "snapshot was captured under another system configuration".to_owned(),
            ));
        }
        if state.cores.len() != self.cores.len() {
            return Err(SnapshotError::Invalid(format!(
                "snapshot holds {} cores, machine has {}",
                state.cores.len(),
                self.cores.len()
            )));
        }
        self.cycle = state.cycle;
        for (core, saved) in self.cores.iter_mut().zip(&state.cores) {
            core.instructions = saved.instructions;
            core.finish_cycle = saved.finish_cycle;
            core.last_memory_completion = saved.last_memory_completion;
            core.l1.clone_from(&saved.l1);
            core.l2.clone_from(&saved.l2);
            core.l1_prefetcher.clone_from(&saved.l1_prefetcher);
            core.accounting = saved.accounting;
            core.source.reset();
            for _ in 0..saved.records_consumed {
                if core.source.next_record().is_none() {
                    return Err(SnapshotError::Invalid(format!(
                        "trace '{}' is shorter than the snapshot's {} consumed records",
                        core.workload, saved.records_consumed
                    )));
                }
            }
            core.records_consumed = saved.records_consumed;
            core.pending = core.source.next_record();
            core.gap_remaining = core.pending.map_or(0, |r| r.gap);
            core.record_budget = u64::MAX;
            core.reset_timing();
        }
        self.fab.llc.clone_from(&state.llc);
        self.fab.dram.clone_from(&state.dram);
        self.fab.pollution.reset(state.pollution);
        self.fab.reset_timing();
        Ok(())
    }
}

/// Steps one core for one cycle against `fab`: retire, then allocate,
/// issuing demand accesses and prefetches through the shared fabric.
fn step_core(core: &mut CoreState, fab: &mut SharedFabric, config: &SystemConfig, cycle: u64) {
    let width = config.core.width;
    let rob_entries = config.core.rob_entries;
    let load_buffer = config.core.load_buffer_entries;

    // Retire completed instructions from the ROB head (in order, up to
    // `width` per cycle; compressed runs retire count-wise).
    {
        if core.finished {
            return;
        }
        let mut retired = 0;
        while retired < width {
            match core.rob.front_mut() {
                Some(entry) if entry.completion <= cycle => {
                    let take = (width - retired).min(entry.count as usize);
                    entry.count -= take as u32;
                    core.rob_len -= take;
                    retired += take;
                    if entry.count == 0 {
                        core.rob.pop_front();
                    }
                }
                _ => break,
            }
        }
        core.drain_load_completions(cycle);
        if (core.pending.is_none() || core.record_budget == 0) && core.rob_len == 0 {
            core.finished = true;
            core.finish_cycle = cycle;
            return;
        }
    }

    // Allocate new instructions.
    let mut allocated = 0;
    while allocated < width {
        if core.rob_len >= rob_entries || core.pending.is_none() || core.record_budget == 0 {
            break;
        }
        if core.gap_remaining > 0 {
            // Batch every gap instruction this cycle can take: they all
            // complete next cycle, so they form (or extend) one ROB run.
            let take = (width - allocated)
                .min(core.gap_remaining as usize)
                .min(rob_entries - core.rob_len);
            core.rob_push(cycle + 1, take as u32);
            core.gap_remaining -= take as u32;
            core.instructions += take as u64;
            allocated += take;
            continue;
        }
        if core.load_completions.len() >= load_buffer {
            break;
        }
        let record = core.pending.expect("pending checked above");
        // A dependent (pointer-chasing) access cannot start before the
        // previous memory access has produced its value.
        let issue_cycle = if record.dependent {
            cycle.max(core.last_memory_completion)
        } else {
            cycle
        };
        let completion = fab.demand(core, &record, config.l1.latency, issue_cycle);
        core.last_memory_completion = completion;
        core.rob_push(completion, 1);
        core.load_completions.push(Reverse(completion));
        core.instructions += 1;
        core.records_consumed += 1;
        core.record_budget -= 1;
        core.pending = core.source.next_record();
        core.gap_remaining = core.pending.map_or(0, |r| r.gap);
        allocated += 1;
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("cycle", &self.cycle)
            .field("cores", &self.cores.len())
            .field("pending_fills", &self.fab.fills_in_flight())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramSpeedGrade;
    use dspatch_prefetchers::any::composites;
    use dspatch_prefetchers::{StreamConfig, StreamPrefetcher};
    use dspatch_trace::{
        memory_intensive_suite, PatternGenerator, SpatialPatternGen, StreamGen, Trace,
    };
    use dspatch_types::NullPrefetcher;

    fn stream_trace(len: usize, seed: u64) -> Trace {
        // A gap of ~50 non-memory instructions per access keeps the demand
        // stream below the DRAM bandwidth ceiling, so latency (and therefore
        // prefetching) is what limits performance.
        Trace::new(
            format!("stream-{seed}"),
            StreamGen {
                streams: 2,
                gap: 50,
                store_percent: 10,
            }
            .generate_records(seed, len),
        )
    }

    fn run_single(source: impl IntoTraceSource, prefetcher: impl Into<AnyPrefetcher>) -> SimResult {
        SimulationBuilder::new(SystemConfig::single_thread())
            .with_core(source, prefetcher)
            .run()
    }

    #[test]
    fn simulation_terminates_and_counts_instructions() {
        let trace = stream_trace(2_000, 1);
        let expected_instructions = trace.instruction_count();
        let result = run_single(trace, NullPrefetcher::new());
        assert_eq!(result.cores.len(), 1);
        assert_eq!(result.cores[0].instructions, expected_instructions);
        assert!(result.cores[0].ipc() > 0.0);
        assert!(result.cycles > 0);
    }

    #[test]
    fn prefetching_a_stream_improves_ipc() {
        // Disable the L1 stride prefetcher so the L2 prefetcher's effect is
        // isolated (a pure unit-stride stream is otherwise fully covered at
        // the L1 already).
        let mut config = SystemConfig::single_thread();
        config.l1_stride_prefetcher = false;
        let run = |prefetcher: AnyPrefetcher| {
            SimulationBuilder::new(config.clone())
                .with_core(stream_trace(4_000, 2), prefetcher)
                .run()
        };
        let baseline = run(NullPrefetcher::new().into());
        let prefetched = run(StreamPrefetcher::new(StreamConfig::default()).into());
        let speedup = prefetched.speedup_over(&baseline);
        assert!(
            speedup > 1.10,
            "an aggressive streamer must speed up a streaming trace, got {speedup:.3}"
        );
    }

    #[test]
    fn dependent_chains_are_slower_than_independent_streams() {
        use dspatch_trace::PointerChaseGen;
        let chase = Trace::new(
            "chase",
            PointerChaseGen {
                nodes: 1 << 15,
                node_bytes: 192,
                gap: 10,
            }
            .generate_records(9, 2_000),
        );
        let stream = Trace::new(
            "stream",
            StreamGen {
                streams: 1,
                gap: 10,
                store_percent: 0,
            }
            .generate_records(9, 2_000),
        );
        let chase_result = run_single(chase, NullPrefetcher::new());
        let stream_result = run_single(stream, NullPrefetcher::new());
        assert!(
            chase_result.cores[0].ipc() < stream_result.cores[0].ipc() * 0.6,
            "serialized pointer chasing must be much slower (chase {:.3} vs stream {:.3})",
            chase_result.cores[0].ipc(),
            stream_result.cores[0].ipc()
        );
    }

    #[test]
    fn coverage_accounting_reflects_prefetch_hits() {
        let result = run_single(
            stream_trace(4_000, 3),
            StreamPrefetcher::new(StreamConfig::default()),
        );
        let acc = result.total_accounting();
        assert!(acc.prefetches_issued > 0);
        assert!(
            acc.covered > 0,
            "stream prefetching must cover some L2 accesses"
        );
        assert!(acc.coverage() > 0.1);
        assert!(acc.covered + acc.uncovered <= acc.l2_demand_accesses);
    }

    #[test]
    fn null_prefetcher_has_zero_prefetch_traffic() {
        let result = run_single(stream_trace(2_000, 4), NullPrefetcher::new());
        let acc = result.total_accounting();
        assert_eq!(acc.prefetches_issued, 0);
        assert_eq!(acc.covered, 0);
        assert_eq!(result.dram.prefetch_accesses, 0);
    }

    #[test]
    fn dram_traffic_increases_with_prefetching() {
        let baseline = run_single(stream_trace(3_000, 5), NullPrefetcher::new());
        let prefetched = run_single(
            stream_trace(3_000, 5),
            StreamPrefetcher::new(StreamConfig {
                degree: 8,
                ..StreamConfig::default()
            }),
        );
        assert!(prefetched.dram.cas_commands >= baseline.dram.cas_commands);
        assert!(prefetched.dram.prefetch_accesses > 0);
    }

    #[test]
    fn multi_core_simulation_shares_llc_and_dram() {
        let config = SystemConfig::multi_programmed();
        let mut builder = SimulationBuilder::new(config);
        for seed in 0..4u64 {
            builder = builder.with_core(stream_trace(1_500, 10 + seed), NullPrefetcher::new());
        }
        let result = builder.run();
        assert_eq!(result.cores.len(), 4);
        for core in &result.cores {
            assert!(core.instructions > 0);
            assert!(core.ipc() > 0.0);
        }
        assert!(result.dram.cas_commands > 0);
    }

    #[test]
    fn a_run_ends_only_when_every_record_has_retired() {
        use dspatch_trace::PointerChaseGen;
        // Every miss of a dependent chase waits 100 us for its column
        // access, so 10,000 records take about four billion cycles. No
        // cycle count cuts the run short.
        let mut config = SystemConfig::single_thread();
        config.dram.t_cl_ns = 100_000.0;
        let chase = PointerChaseGen {
            nodes: 1 << 20,
            node_bytes: 192,
            gap: 0,
        };
        let result = SimulationBuilder::new(config)
            .with_core(
                Trace::new("chase", chase.generate_records(3, 10_000)),
                NullPrefetcher::new(),
            )
            .run();
        let core = &result.cores[0];
        assert_eq!(core.instructions, 10_000);
        assert_eq!(core.l1.demand_hits + core.l1.demand_misses, 10_000);
        assert!(result.cycles > 2_000_000_001, "{} cycles", result.cycles);
    }

    #[test]
    fn cycle_skipping_does_not_change_multi_core_results() {
        use dspatch_trace::PointerChaseGen;
        // A heterogeneous 4-core mix: two streamers, a spatial workload and a
        // pointer chase, under three different prefetchers.
        let run = |skipping: bool| {
            let mut config = SystemConfig::multi_programmed();
            config.cycle_skipping = skipping;
            let stream = |seed: u64| {
                Trace::new(
                    format!("stream-{seed}"),
                    StreamGen {
                        streams: 2,
                        gap: 40,
                        store_percent: 10,
                    }
                    .generate_records(seed, 700),
                )
            };
            let spatial = Trace::new(
                "spatial",
                SpatialPatternGen::default().generate_records(7, 700),
            );
            let chase = Trace::new(
                "chase",
                PointerChaseGen {
                    nodes: 1 << 14,
                    node_bytes: 192,
                    gap: 12,
                }
                .generate_records(9, 700),
            );
            SimulationBuilder::new(config)
                .with_core(stream(1), StreamPrefetcher::new(StreamConfig::default()))
                .with_core(stream(2), NullPrefetcher::new())
                .with_core(
                    spatial,
                    StreamPrefetcher::new(StreamConfig {
                        degree: 8,
                        ..StreamConfig::default()
                    }),
                )
                .with_core(chase, NullPrefetcher::new())
                .run()
        };
        assert_eq!(run(true), run(false));
    }

    /// Pins the exact machine's timing on a 4-core spatial mix — the
    /// machine-wide cycle count and every core's own finish cycle and
    /// instruction count — so any change to multi-core timing, including
    /// on a core that finishes before the slowest one, shows up as a
    /// failing number.
    #[test]
    fn four_core_mix_matches_the_exact_machine() {
        use dspatch_prefetchers::any::composites;
        let check = |prefetcher: fn() -> AnyPrefetcher, cycles: u64, finish_cycles: [u64; 4]| {
            let mut builder = SimulationBuilder::new(SystemConfig::multi_programmed());
            for core in 0..4u64 {
                let records = SpatialPatternGen {
                    layouts: 6,
                    density: 10,
                    reorder_window: 3,
                    working_set_pages: 1 << 17,
                    gap: 40,
                }
                .generate_records(0xC0DE + core, 60_000);
                builder =
                    builder.with_core(Trace::new(format!("core{core}"), records), prefetcher());
            }
            let result = builder.run();
            assert_eq!(result.cycles, cycles);
            let finished: Vec<u64> = result.cores.iter().map(|c| c.finish_cycle).collect();
            assert_eq!(finished, finish_cycles);
            let instructions: Vec<u64> = result.cores.iter().map(|c| c.instructions).collect();
            assert_eq!(instructions, [2_460_000; 4]);
        };
        check(
            || NullPrefetcher::new().into(),
            16_543_398,
            [16_510_847, 16_511_922, 16_519_114, 16_543_398],
        );
        check(
            || composites::dspatch_plus_spp().into(),
            13_052_483,
            [12_921_851, 12_673_103, 13_052_483, 12_758_479],
        );
    }

    #[test]
    fn sharing_dram_slows_cores_down() {
        // The same workload on a 4-core system with shared channels should
        // achieve lower per-core IPC than alone on the single-thread system
        // with a whole channel to itself... unless it is cache-resident, so
        // use a spatially sparse trace that misses a lot.
        let sparse = |seed| {
            Trace::new(
                "sparse",
                SpatialPatternGen {
                    layouts: 8,
                    density: 12,
                    reorder_window: 4,
                    working_set_pages: 1 << 18,
                    gap: 2,
                }
                .generate_records(seed, 3_000),
            )
        };
        let alone = SimulationBuilder::new(SystemConfig::single_thread())
            .with_core(sparse(1), NullPrefetcher::new())
            .run();
        let mut builder = SimulationBuilder::new(SystemConfig::multi_programmed());
        for seed in 1..5u64 {
            builder = builder.with_core(sparse(seed), NullPrefetcher::new());
        }
        let shared = builder.run();
        assert!(
            shared.cores[0].ipc() <= alone.cores[0].ipc() * 1.05,
            "sharing memory bandwidth should not speed a core up (shared {:.3} vs alone {:.3})",
            shared.cores[0].ipc(),
            alone.cores[0].ipc()
        );
    }

    #[test]
    fn bandwidth_utilization_responds_to_memory_intensity() {
        let light = run_single(
            Trace::new(
                "light",
                StreamGen {
                    streams: 1,
                    gap: 60,
                    store_percent: 0,
                }
                .generate_records(7, 1_000),
            ),
            NullPrefetcher::new(),
        );
        let heavy = run_single(
            Trace::new(
                "heavy",
                StreamGen {
                    streams: 4,
                    gap: 0,
                    store_percent: 0,
                }
                .generate_records(7, 6_000),
            ),
            StreamPrefetcher::new(StreamConfig {
                degree: 8,
                ..StreamConfig::default()
            }),
        );
        assert!(heavy.dram.average_utilization() > light.dram.average_utilization());
    }

    #[test]
    fn pollution_tracking_classifies_streamer_victims() {
        // A small LLC plus an aggressive streamer on a sparse trace causes
        // prefetch fills to evict lines; most victims should be dead.
        let config = SystemConfig::single_thread().with_llc_capacity(256 * 1024);
        let trace = Trace::new(
            "sparse",
            SpatialPatternGen {
                layouts: 6,
                density: 10,
                reorder_window: 3,
                working_set_pages: 1 << 18,
                gap: 4,
            }
            .generate_records(11, 8_000),
        );
        let result = SimulationBuilder::new(config)
            .with_core(
                trace,
                StreamPrefetcher::new(StreamConfig {
                    degree: 6,
                    ..StreamConfig::default()
                }),
            )
            .run();
        assert_eq!(
            result.pollution,
            PollutionBreakdown {
                no_reuse: 1_158,
                prefetched_before_use: 0,
                bad_pollution: 0,
            },
            "every victim of this sparse trace is dead"
        );
    }

    /// Pins the full breakdown on two memory-intensive workloads whose
    /// victims fall into every class, so a tracker that loses, double-counts
    /// or misfiles a victim moves a number.
    #[test]
    fn pollution_breakdown_is_pinned_on_memory_intensive_workloads() {
        let suite = memory_intensive_suite();
        let cases = [("tpcc", (9_164, 14, 14)), ("astar", (8_985, 4, 165))];
        for (name, (no_reuse, prefetched_before_use, bad_pollution)) in cases {
            let workload = suite
                .iter()
                .find(|w| w.name == name)
                .expect("workload is memory-intensive");
            let result = run_single(workload.source(20_000), composites::dspatch_plus_spp());
            assert_eq!(
                result.pollution,
                PollutionBreakdown {
                    no_reuse,
                    prefetched_before_use,
                    bad_pollution,
                },
                "{name}"
            );
        }
    }

    #[test]
    fn l1_stride_prefetcher_reduces_l1_misses_on_strided_code() {
        let trace = || stream_trace(3_000, 21);
        let mut with_cfg = SystemConfig::single_thread();
        with_cfg.l1_stride_prefetcher = true;
        let mut without_cfg = SystemConfig::single_thread();
        without_cfg.l1_stride_prefetcher = false;
        let with_stride = SimulationBuilder::new(with_cfg)
            .with_core(trace(), NullPrefetcher::new())
            .run();
        let without_stride = SimulationBuilder::new(without_cfg)
            .with_core(trace(), NullPrefetcher::new())
            .run();
        assert!(
            with_stride.cores[0].l1.miss_ratio() < without_stride.cores[0].l1.miss_ratio(),
            "the L1 stride prefetcher must reduce L1 demand misses"
        );
    }

    #[test]
    fn faster_dram_does_not_hurt() {
        let slow = SimulationBuilder::new(
            SystemConfig::single_thread().with_dram(1, DramSpeedGrade::Ddr4_1600),
        )
        .with_core(stream_trace(3_000, 31), NullPrefetcher::new())
        .run();
        let fast = SimulationBuilder::new(
            SystemConfig::single_thread().with_dram(2, DramSpeedGrade::Ddr4_2400),
        )
        .with_core(stream_trace(3_000, 31), NullPrefetcher::new())
        .run();
        assert!(fast.cores[0].ipc() >= slow.cores[0].ipc() * 0.99);
    }

    #[test]
    fn streaming_and_materialized_paths_are_bit_identical() {
        use dspatch_trace::{GeneratorSpec, SynthSource};
        let spec = GeneratorSpec::Spatial(SpatialPatternGen {
            layouts: 8,
            density: 12,
            reorder_window: 4,
            working_set_pages: 1 << 16,
            gap: 20,
        });
        let materialized = run_single(
            Trace::new("golden", spec.generate_records(13, 4_000)),
            StreamPrefetcher::new(StreamConfig::default()),
        );
        let streamed = run_single(
            SynthSource::new("golden", spec, 13, 4_000).into_trace_source(),
            StreamPrefetcher::new(StreamConfig::default()),
        );
        assert_eq!(materialized, streamed);
    }

    #[test]
    fn results_echo_the_effective_cache_geometry() {
        // A non-power-of-two LLC rounds its set count up; the result must
        // say so rather than let reports quote the requested capacity.
        let config = SystemConfig::single_thread().with_llc_capacity(3 * 1024 * 1024);
        let result = SimulationBuilder::new(config)
            .with_core(stream_trace(500, 77), NullPrefetcher::new())
            .run();
        assert_eq!(result.cache_geometry.len(), 3);
        let llc = &result.cache_geometry[2];
        assert_eq!(llc.name, "LLC");
        assert_eq!(llc.requested_bytes, 3 * 1024 * 1024);
        assert!(llc.rounded);
        assert_eq!(llc.effective_bytes, 4 * 1024 * 1024);
        let l1 = &result.cache_geometry[0];
        assert!(!l1.rounded, "the paper's L1 is a power of two");
    }

    #[test]
    fn interval_run_issues_exactly_the_budgeted_records() {
        let mut machine = SimulationBuilder::new(SystemConfig::single_thread())
            .with_core(stream_trace(4_000, 91), NullPrefetcher::new())
            .into_machine();
        assert_eq!(machine.run_functional(1_000), 1_000);
        let result = machine.run_interval(500);
        let l1 = &result.cores[0].l1;
        assert_eq!(
            l1.demand_hits + l1.demand_misses,
            500,
            "an interval must probe the L1 exactly once per budgeted record"
        );
        assert!(result.cycles > 0);
        // The machine is back at a functional boundary and can keep going.
        assert_eq!(machine.run_functional(100), 100);
    }

    #[test]
    fn checkpoint_restore_is_bit_identical() {
        let machine = || {
            SimulationBuilder::new(SystemConfig::single_thread())
                .with_core(stream_trace(6_000, 42), NullPrefetcher::new())
                .into_machine()
        };
        let mut original = machine();
        original.run_functional(2_000);
        let state = original.capture().unwrap();
        let uninterrupted = original.run_interval(1_000);

        let mut restored = machine();
        restored.restore(&state).unwrap();
        let resumed = restored.run_interval(1_000);
        assert_eq!(uninterrupted, resumed);
    }

    #[test]
    fn restore_refuses_a_checkpoint_of_another_config() {
        // Same cache and DRAM shapes, another speed grade: the checkpoint's
        // DRAM timing would not be this machine's.
        let machine = |config: SystemConfig| {
            SimulationBuilder::new(config)
                .with_core(stream_trace(4_000, 42), NullPrefetcher::new())
                .into_machine()
        };
        let mut warm = machine(SystemConfig::single_thread());
        warm.run_functional(1_000);
        let state = warm.capture().unwrap();
        let faster = SystemConfig::single_thread().with_dram(1, DramSpeedGrade::Ddr4_2400);
        let err = machine(faster).restore(&state).unwrap_err();
        assert!(matches!(err, SnapshotError::Invalid(_)), "{err}");
    }

    #[test]
    fn each_interval_restarts_the_core_schedule() {
        // Every interval restarts the clock at 0, so a wake-up cycle left
        // over from the previous interval must not carry into the next: a
        // stale schedule would idle the second interval up to that cycle.
        let machine = || {
            SimulationBuilder::new(SystemConfig::single_thread())
                .with_core(stream_trace(8_000, 42), NullPrefetcher::new())
                .into_machine()
        };
        let mut original = machine();
        original.run_functional(2_000);
        original.run_interval(1_000);
        let state = original.capture().unwrap();
        let second = original.run_interval(1_000);

        let mut restored = machine();
        restored.restore(&state).unwrap();
        assert_eq!(restored.run_interval(1_000), second);
        assert_eq!(second.cycles, 12_755);
    }

    #[test]
    fn neutral_warmup_checkpoint_forks_across_prefetchers() {
        // Warm with the null prefetcher, restore into a streamer column:
        // caches arrive warm, the predictor starts fresh and still issues.
        let mut warm = SimulationBuilder::new(SystemConfig::single_thread())
            .with_core(stream_trace(6_000, 7), NullPrefetcher::new())
            .into_machine();
        warm.run_functional(3_000);
        let state = warm.capture().unwrap();

        let mut column = SimulationBuilder::new(SystemConfig::single_thread())
            .with_core(
                stream_trace(6_000, 7),
                StreamPrefetcher::new(StreamConfig::default()),
            )
            .into_machine();
        column.restore(&state).unwrap();
        let result = column.run_interval(1_000);
        assert!(result.cores[0].accounting.prefetches_issued > 0);
        let warm_l1 = result.cores[0].l1;
        assert!(
            warm_l1.demand_hits > 0,
            "warmed caches must serve some interval hits"
        );
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn empty_simulation_is_rejected() {
        let _ = SimulationBuilder::new(SystemConfig::single_thread()).run();
    }

    #[test]
    #[should_panic(expected = "more cores supplied")]
    fn too_many_cores_are_rejected() {
        let _ = SimulationBuilder::new(SystemConfig::single_thread())
            .with_core(stream_trace(10, 1), NullPrefetcher::new())
            .with_core(stream_trace(10, 2), NullPrefetcher::new())
            .run();
    }
}
