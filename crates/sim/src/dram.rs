//! DDR4 timing model and bandwidth-utilization tracking.
//!
//! The model captures the effects prefetching interacts with: per-channel
//! data-bus occupancy (the bandwidth ceiling), per-bank row-buffer hits and
//! misses (latency variation), and the CAS-per-window counter that feeds the
//! 2-bit utilization quartile DSPatch's selection logic consumes (paper,
//! Section 3.2).

use crate::config::DramConfig;
use dspatch_types::{BandwidthQuartile, LineAddr};

/// Statistics accumulated by the DRAM model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DramStats {
    /// Total column accesses (one per 64 B transfer).
    pub cas_commands: u64,
    /// Accesses that hit an open row.
    pub row_hits: u64,
    /// Accesses that required opening a row (empty or conflicting).
    pub row_misses: u64,
    /// Accesses issued on behalf of prefetches.
    pub prefetch_accesses: u64,
    /// Sum of utilization fractions sampled at each window boundary
    /// (divide by `windows` for the average).
    pub utilization_sum: f64,
    /// Number of completed tracking windows.
    pub windows: u64,
}

impl DramStats {
    /// Average bandwidth utilization over the run, in `[0, 1]`.
    pub fn average_utilization(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.utilization_sum / self.windows as f64
        }
    }

    /// Row-buffer hit rate in `[0, 1]`.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// The CAS-counting bandwidth tracker (paper, Section 3.2): counts column
/// accesses in windows of 4×tRC cycles, halves the counter at each window
/// boundary for hysteresis, and quantizes the result into quartiles of the
/// peak CAS rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthTracker {
    window_cycles: u64,
    peak_cas_per_window: f64,
    window_end: u64,
    counter: f64,
    current_window_cas: u64,
    quartile: BandwidthQuartile,
}

impl BandwidthTracker {
    /// Creates a tracker for the given DRAM configuration and core clock.
    pub fn new(config: &DramConfig, core_clock_mhz: u64) -> Self {
        let cycles_per_ns = core_clock_mhz as f64 / 1000.0;
        let window_cycles = (4.0 * config.t_rc_ns() * cycles_per_ns).round().max(1.0) as u64;
        let transfer_cycles = config.transfer_time_ns() * cycles_per_ns;
        let peak_cas_per_window = (window_cycles as f64 / transfer_cycles) * config.channels as f64;
        Self {
            window_cycles,
            peak_cas_per_window,
            window_end: window_cycles,
            counter: 0.0,
            current_window_cas: 0,
            quartile: BandwidthQuartile::Q0,
        }
    }

    /// Records one CAS command at `cycle`.
    pub fn record_cas(&mut self, cycle: u64, stats: &mut DramStats) {
        self.advance(cycle, stats);
        self.current_window_cas += 1;
    }

    /// Advances the window state to `cycle`, closing any windows that have
    /// elapsed, and returns the current quartile.
    ///
    /// A long idle gap (or a cycle-skipped stall) used to cost one loop
    /// iteration per elapsed window — O(gap/window). Idle windows are pure
    /// decay (the counter halves, nothing else changes), so once their
    /// utilization samples stop being observable the remaining `k` windows
    /// collapse into a closed form: the counter is scaled by `2^-k` via
    /// exponent arithmetic and the window/stat counters jump. The closed
    /// form is **bit-exact** against the reference loop (a test drives both
    /// through randomized traffic): halving an f64 only decrements its
    /// exponent while the value stays normal, and the fast path is taken
    /// only when each skipped sample would round away in
    /// `utilization_sum` and quantize to the bottom quartile.
    pub fn advance(&mut self, cycle: u64, stats: &mut DramStats) -> BandwidthQuartile {
        while cycle >= self.window_end {
            // Close one window: fold the count into the hysteresis counter,
            // sample utilization, then halve (paper: "the counter is halved
            // after every window").
            self.counter = self.counter / 2.0 + self.current_window_cas as f64;
            let utilization = (self.counter / (2.0 * self.peak_cas_per_window)).min(1.0);
            self.quartile = BandwidthQuartile::from_fraction(utilization);
            stats.utilization_sum += utilization;
            stats.windows += 1;
            self.current_window_cas = 0;
            self.window_end += self.window_cycles;

            if cycle < self.window_end {
                break;
            }
            let remaining = (cycle - self.window_end) / self.window_cycles + 1;

            // Fully decayed: every remaining window samples exactly 0.0 and
            // reports Q0; only the window bookkeeping advances.
            if self.counter == 0.0 {
                stats.windows += remaining;
                self.quartile = BandwidthQuartile::from_fraction(0.0);
                self.window_end += remaining * self.window_cycles;
                continue;
            }

            // Decaying: the next sample is the largest of the remaining gap
            // (samples shrink monotonically). If it already (a) rounds away
            // when added to the running sum and (b) quantizes to Q0, then so
            // does every later one, and the whole tail is closed-form.
            let next_utilization =
                ((self.counter / 2.0) / (2.0 * self.peak_cas_per_window)).min(1.0);
            let absorbed = stats.utilization_sum + next_utilization == stats.utilization_sum;
            if absorbed
                && BandwidthQuartile::from_fraction(next_utilization) == BandwidthQuartile::Q0
            {
                self.counter = decay_exact(self.counter, remaining);
                self.quartile = BandwidthQuartile::Q0;
                stats.windows += remaining;
                self.window_end += remaining * self.window_cycles;
            }
            // Otherwise close the next window through the reference path.
        }
        self.quartile
    }

    /// The most recently broadcast quartile.
    pub fn quartile(&self) -> BandwidthQuartile {
        self.quartile
    }

    /// The tracking window length in core cycles (4×tRC).
    pub fn window_cycles(&self) -> u64 {
        self.window_cycles
    }
}

/// Halves `value` `k` times, bit-exactly matching `k` sequential `/= 2.0`
/// steps. While the result stays normal, halving is a pure exponent
/// decrement, so the whole run collapses into one subtraction; the subnormal
/// tail (at most ~60 further halvings before reaching zero) falls back to
/// the literal loop because subnormal halving rounds step by step.
fn decay_exact(value: f64, k: u64) -> f64 {
    debug_assert!(value > 0.0);
    let biased_exponent = (value.to_bits() >> 52) & 0x7FF;
    if biased_exponent > k {
        return f64::from_bits(value.to_bits() - (k << 52));
    }
    let mut out = value;
    for _ in 0..k {
        out /= 2.0;
        if out == 0.0 {
            break;
        }
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Bank {
    open_row: Option<u64>,
    busy_until: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Channel {
    banks: Vec<Bank>,
    /// Cycle at which the data bus is free considering all traffic.
    data_bus_free: u64,
    /// Cycle at which the data bus is free considering demand traffic only.
    /// Demands are prioritized over prefetches (FR-FCFS with demand-first
    /// arbitration), so they queue only behind other demands; prefetches use
    /// leftover bandwidth and queue behind everything.
    demand_bus_free: u64,
}

/// The DRAM subsystem: address-interleaved channels of banks with row
/// buffers, plus the bandwidth tracker.
///
/// # Example
///
/// ```
/// use dspatch_sim::{Dram, DramStats};
/// use dspatch_sim::config::DramConfig;
/// use dspatch_types::LineAddr;
///
/// let mut dram = Dram::new(DramConfig::default(), 4000);
/// let first = dram.access(LineAddr::new(0), 0, false);
/// let second = dram.access(LineAddr::new(1), 0, false);
/// // The shared channel data bus serializes the two transfers.
/// assert!(second > first);
/// assert_eq!(dram.stats().cas_commands, 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dram {
    config: DramConfig,
    channels: Vec<Channel>,
    tracker: BandwidthTracker,
    stats: DramStats,
    /// Composite access latencies converted to core cycles once at
    /// construction — `access` runs on the per-miss hot path and must not
    /// redo the float-multiply-and-round per call. Each composite is the
    /// rounding of the **summed** nanoseconds (tCL, tRCD+tCL,
    /// tRP+tRCD+tCL): rounding the parameters independently and adding the
    /// cycle counts can differ by a cycle from the physical sum at clock
    /// rates where the per-parameter products land on .5 boundaries.
    row_hit_cycles: u64,
    row_open_cycles: u64,
    row_conflict_cycles: u64,
    transfer_cycles: u64,
}

impl Dram {
    /// Creates the DRAM model for a core clocked at `core_clock_mhz`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no channels or banks.
    pub fn new(config: DramConfig, core_clock_mhz: u64) -> Self {
        assert!(config.channels > 0, "DRAM needs at least one channel");
        assert!(
            config.banks_per_channel() > 0,
            "DRAM needs at least one bank"
        );
        let tracker = BandwidthTracker::new(&config, core_clock_mhz);
        let channel = Channel {
            banks: vec![
                Bank {
                    open_row: None,
                    busy_until: 0,
                };
                config.banks_per_channel()
            ],
            data_bus_free: 0,
            demand_bus_free: 0,
        };
        let cycles_per_ns = core_clock_mhz as f64 / 1000.0;
        let to_cycles = |ns: f64| (ns * cycles_per_ns).round() as u64;
        Self {
            channels: vec![channel; config.channels],
            tracker,
            stats: DramStats::default(),
            row_hit_cycles: to_cycles(config.t_cl_ns),
            row_open_cycles: to_cycles(config.t_rcd_ns + config.t_cl_ns),
            row_conflict_cycles: to_cycles(config.t_rp_ns + config.t_rcd_ns + config.t_cl_ns),
            transfer_cycles: to_cycles(config.transfer_time_ns()).max(1),
            config,
        }
    }

    /// The DRAM configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Current bandwidth-utilization quartile as of the last `advance` or
    /// access.
    pub fn bandwidth_quartile(&self) -> BandwidthQuartile {
        self.tracker.quartile()
    }

    /// Advances the bandwidth tracker to `cycle` (called by the system every
    /// so often even when no accesses are issued, so the quartile decays).
    pub fn advance(&mut self, cycle: u64) -> BandwidthQuartile {
        self.tracker.advance(cycle, &mut self.stats)
    }

    /// Issues one 64 B access at `cycle` and returns its completion cycle.
    /// `is_prefetch` only affects statistics.
    pub fn access(&mut self, line: LineAddr, cycle: u64, is_prefetch: bool) -> u64 {
        let raw = line.as_u64();
        let channel_index = (raw % self.config.channels as u64) as usize;
        let banks = self.config.banks_per_channel() as u64;
        let bank_index = ((raw / self.config.channels as u64) % banks) as usize;
        let lines_per_row = (self.config.row_buffer_bytes / 64).max(1) as u64;
        let row = raw / (self.config.channels as u64 * banks * lines_per_row);

        let transfer = self.transfer_cycles;

        let channel = &mut self.channels[channel_index];
        let bank = &mut channel.banks[bank_index];

        let access_latency = match bank.open_row {
            Some(open) if open == row => {
                self.stats.row_hits += 1;
                self.row_hit_cycles
            }
            Some(_) => {
                self.stats.row_misses += 1;
                self.row_conflict_cycles
            }
            None => {
                self.stats.row_misses += 1;
                self.row_open_cycles
            }
        };
        bank.open_row = Some(row);

        let start = cycle.max(bank.busy_until);
        // Demand-first arbitration: demands wait only for earlier demands on
        // the data bus, prefetches wait for all earlier traffic.
        let bus_free = if is_prefetch {
            channel.data_bus_free
        } else {
            channel.demand_bus_free
        };
        let data_ready = (start + access_latency).max(bus_free);
        let completion = data_ready + transfer;
        // Every access — prefetch or demand — occupies the bank for its
        // activation + CAS time: a row activation is not free just because a
        // prefetch issued it. Demand-first arbitration lives entirely on the
        // data bus (`demand_bus_free` advances only for demands), not in the
        // bank model.
        bank.busy_until = start + access_latency;
        channel.data_bus_free = channel.data_bus_free.max(completion);
        if !is_prefetch {
            channel.demand_bus_free = completion;
        }

        self.stats.cas_commands += 1;
        if is_prefetch {
            self.stats.prefetch_accesses += 1;
        }
        // Count the CAS when the column access actually occupies the data
        // bus, so the utilization tracker never exceeds the physical peak.
        self.tracker.record_cas(data_ready, &mut self.stats);
        completion
    }

    /// Rewinds the timing state to cycle 0 for a fresh measurement
    /// interval: statistics are zeroed, bank/bus reservations are released,
    /// and the tracker's window restarts. The *learnt* state carries over —
    /// open rows stay open and the hysteresis counter (and therefore the
    /// broadcast quartile) keeps its value, so the bandwidth signal the
    /// prefetchers see is continuous across the interval boundary.
    pub(crate) fn reset_interval(&mut self) {
        self.stats = DramStats::default();
        for channel in &mut self.channels {
            for bank in &mut channel.banks {
                bank.busy_until = 0;
            }
            channel.data_bus_free = 0;
            channel.demand_bus_free = 0;
        }
        self.tracker.window_end = self.tracker.window_cycles;
        self.tracker.current_window_cas = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramSpeedGrade;

    fn dram() -> Dram {
        Dram::new(DramConfig::with_speed(1, DramSpeedGrade::Ddr4_2133), 4000)
    }

    #[test]
    fn row_hits_are_faster_than_row_misses() {
        let mut d = dram();
        let cold = d.access(LineAddr::new(0), 0, false);
        // With bank interleaving (16 banks/channel), line 16 maps back to
        // bank 0 and the same 2 KB row; issue it long after the bus is free.
        let hit = d.access(LineAddr::new(16), 10_000, false) - 10_000;
        // Line 512 is bank 0 but a different row: row conflict.
        let miss = d.access(LineAddr::new(512), 20_000, false) - 20_000;
        assert!(
            hit < miss,
            "row hit ({hit}) must be faster than row conflict ({miss})"
        );
        assert!(cold >= hit);
        assert!(d.stats().row_hits >= 1);
        assert!(d.stats().row_misses >= 2);
    }

    #[test]
    fn channel_bus_serializes_back_to_back_accesses() {
        let mut d = dram();
        // Two accesses to different banks at the same cycle still share the
        // channel data bus, so the second completes later.
        let a = d.access(LineAddr::new(0), 0, false);
        let b = d.access(LineAddr::new(1), 0, false); // different bank, same channel
        assert!(b > a);
    }

    #[test]
    fn more_channels_increase_parallelism() {
        let mut one = Dram::new(DramConfig::with_speed(1, DramSpeedGrade::Ddr4_2133), 4000);
        let mut two = Dram::new(DramConfig::with_speed(2, DramSpeedGrade::Ddr4_2133), 4000);
        let mut one_last = 0;
        let mut two_last = 0;
        for i in 0..64u64 {
            one_last = one_last.max(one.access(LineAddr::new(i), 0, false));
            two_last = two_last.max(two.access(LineAddr::new(i), 0, false));
        }
        assert!(
            two_last < one_last,
            "two channels ({two_last}) must drain a burst faster than one ({one_last})"
        );
    }

    #[test]
    fn faster_grade_has_higher_peak() {
        let slow = DramConfig::with_speed(1, DramSpeedGrade::Ddr4_1600);
        let fast = DramConfig::with_speed(1, DramSpeedGrade::Ddr4_2400);
        assert!(fast.peak_bandwidth_gbps() > slow.peak_bandwidth_gbps());
        assert!(fast.transfer_time_ns() < slow.transfer_time_ns());
    }

    #[test]
    fn tracker_reports_low_utilization_when_idle() {
        let config = DramConfig::default();
        let mut tracker = BandwidthTracker::new(&config, 4000);
        let mut stats = DramStats::default();
        let q = tracker.advance(10 * tracker.window_cycles(), &mut stats);
        assert_eq!(q, BandwidthQuartile::Q0);
        assert_eq!(stats.windows, 10);
        assert!(stats.average_utilization() < 0.01);
    }

    #[test]
    fn tracker_reports_high_utilization_under_saturation() {
        let config = DramConfig::default();
        let mut tracker = BandwidthTracker::new(&config, 4000);
        let mut stats = DramStats::default();
        let window = tracker.window_cycles();
        // Issue CAS commands at the peak rate for many windows.
        let transfer_cycles = (config.transfer_time_ns() * 4.0).round() as u64;
        let mut cycle = 0;
        for _ in 0..(window * 20 / transfer_cycles) {
            tracker.record_cas(cycle, &mut stats);
            cycle += transfer_cycles;
        }
        let q = tracker.advance(cycle, &mut stats);
        assert!(
            q >= BandwidthQuartile::Q2,
            "saturating traffic should report high utilization, got {q}"
        );
    }

    #[test]
    fn tracker_decays_after_a_burst() {
        let config = DramConfig::default();
        let mut tracker = BandwidthTracker::new(&config, 4000);
        let mut stats = DramStats::default();
        for i in 0..2000u64 {
            tracker.record_cas(i * 2, &mut stats);
        }
        let busy = tracker.advance(4100, &mut stats);
        let after_idle = tracker.advance(4100 + 20 * tracker.window_cycles(), &mut stats);
        assert!(
            after_idle < busy,
            "utilization must decay when traffic stops"
        );
        assert_eq!(after_idle, BandwidthQuartile::Q0);
    }

    /// The reference window loop `advance` used before the closed-form
    /// decay: one iteration per elapsed window, no fast paths.
    fn reference_advance(
        tracker: &mut BandwidthTracker,
        cycle: u64,
        stats: &mut DramStats,
    ) -> BandwidthQuartile {
        while cycle >= tracker.window_end {
            tracker.counter = tracker.counter / 2.0 + tracker.current_window_cas as f64;
            let utilization = (tracker.counter / (2.0 * tracker.peak_cas_per_window)).min(1.0);
            tracker.quartile = BandwidthQuartile::from_fraction(utilization);
            stats.utilization_sum += utilization;
            stats.windows += 1;
            tracker.current_window_cas = 0;
            tracker.window_end += tracker.window_cycles;
        }
        tracker.quartile
    }

    #[test]
    fn closed_form_decay_is_bit_exact_against_the_window_loop() {
        let config = DramConfig::default();
        let mut fast = BandwidthTracker::new(&config, 4000);
        let mut slow = fast;
        let mut fast_stats = DramStats::default();
        let mut slow_stats = DramStats::default();
        let mut state = 0x5EED_u64;
        let mut cycle = 0u64;
        // Bursts of CAS traffic separated by gaps spanning hundreds of
        // thousands of windows — the exact shape the closed form exists
        // for — interleaved with short hops that exercise the slow path.
        for round in 0..200 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let burst = (state >> 48) % 300;
            for i in 0..burst {
                let at = cycle + i * ((state >> 40) % 37 + 1);
                fast.record_cas(at, &mut fast_stats);
                reference_advance(&mut slow, at, &mut slow_stats);
                slow.current_window_cas += 1;
            }
            let gap = if round % 3 == 0 {
                ((state >> 20) % 500_000) * fast.window_cycles()
            } else {
                (state >> 20) % 2_000
            };
            cycle += burst * 37 + gap;
            let fast_q = fast.advance(cycle, &mut fast_stats);
            let slow_q = reference_advance(&mut slow, cycle, &mut slow_stats);
            assert_eq!(fast_q, slow_q, "quartile diverged at round {round}");
            assert_eq!(fast, slow, "tracker state diverged at round {round}");
            assert_eq!(
                fast_stats.utilization_sum.to_bits(),
                slow_stats.utilization_sum.to_bits(),
                "utilization sum diverged at round {round}"
            );
            assert_eq!(fast_stats, slow_stats, "stats diverged at round {round}");
        }
        assert!(
            fast_stats.windows > 1_000_000,
            "gaps must span many windows"
        );
    }

    #[test]
    fn long_idle_gap_advance_is_fast() {
        // O(gap/window) catch-up would make this take minutes; the closed
        // form makes it instant.
        let config = DramConfig::default();
        let mut tracker = BandwidthTracker::new(&config, 4000);
        let mut stats = DramStats::default();
        for i in 0..1_000u64 {
            tracker.record_cas(i * 3, &mut stats);
        }
        let start = std::time::Instant::now();
        let q = tracker.advance(u64::MAX / 2, &mut stats);
        assert!(
            start.elapsed().as_millis() < 2_000,
            "idle catch-up must be closed-form, took {:?}",
            start.elapsed()
        );
        assert_eq!(q, BandwidthQuartile::Q0);
        assert!(stats.windows > 1_000_000_000_000);
    }

    #[test]
    fn quartile_visible_through_dram_facade() {
        let mut d = dram();
        assert_eq!(d.bandwidth_quartile(), BandwidthQuartile::Q0);
        for i in 0..5000u64 {
            d.access(LineAddr::new(i * 7), i * 4, false);
        }
        d.advance(5000 * 4);
        // Back-to-back misses should push utilization above the bottom quartile.
        assert!(d.bandwidth_quartile() > BandwidthQuartile::Q0);
    }

    #[test]
    fn prefetch_accesses_are_counted_separately() {
        let mut d = dram();
        d.access(LineAddr::new(0), 0, true);
        d.access(LineAddr::new(99), 0, false);
        assert_eq!(d.stats().prefetch_accesses, 1);
        assert_eq!(d.stats().cas_commands, 2);
    }

    #[test]
    fn stats_helpers() {
        let stats = DramStats {
            row_hits: 3,
            row_misses: 1,
            utilization_sum: 2.0,
            windows: 4,
            ..DramStats::default()
        };
        assert!((stats.row_hit_rate() - 0.75).abs() < 1e-12);
        assert!((stats.average_utilization() - 0.5).abs() < 1e-12);
        assert_eq!(DramStats::default().row_hit_rate(), 0.0);
    }

    /// Regression for the free-prefetch-activation bug: prefetches used to
    /// rewrite `open_row` without reserving `busy_until`, so a same-bank
    /// prefetch burst never serialized at the bank. At 4 GHz / DDR4-2133 the
    /// timings are exact: row empty = 120 cycles, row conflict = 180,
    /// transfer = 15.
    #[test]
    fn prefetch_accesses_reserve_the_bank() {
        let mut d = dram();
        // Line 0 → bank 0, row 0; bank idle and closed: 120 + 15 = 135.
        let first = d.access(LineAddr::new(0), 0, true);
        assert_eq!(first, d.row_open_cycles + d.transfer_cycles);
        // Line 512 → bank 0, row 1: must wait for the first activation
        // (busy_until = 120), then pay a full row conflict.
        let second = d.access(LineAddr::new(512), 0, true);
        assert_eq!(
            second,
            d.row_open_cycles + d.row_conflict_cycles + d.transfer_cycles,
            "same-bank prefetch bursts must serialize at the bank"
        );
        assert_eq!(second, first + d.row_conflict_cycles);
    }

    /// A demand arriving after a prefetch opened the wrong row pays the full
    /// precharge + activate + CAS penalty *and* waits out the prefetch's
    /// bank reservation — the prefetch activation is not free.
    #[test]
    fn demand_after_prefetch_row_conflict_pays_precharge_and_activate() {
        let mut d = dram();
        let prefetch = d.access(LineAddr::new(0), 0, true);
        let demand = d.access(LineAddr::new(512), 0, false);
        // start = busy_until (120), + row conflict (180) + transfer (15).
        assert_eq!(
            demand,
            d.row_open_cycles + d.row_conflict_cycles + d.transfer_cycles
        );
        assert!(demand > prefetch);
        assert_eq!(d.stats().row_misses, 2);
    }

    /// The composite access latencies must be the rounding of the **summed**
    /// nanoseconds per speed grade, not the sum of independently rounded
    /// parameters — those differ when per-parameter products land near .5.
    #[test]
    fn composite_latencies_round_summed_nanoseconds_per_grade() {
        for grade in DramSpeedGrade::ALL {
            for &clock_mhz in &[1200u64, 2100, 2667, 2900, 3300, 4000] {
                let config = DramConfig::with_speed(1, grade);
                let d = Dram::new(config, clock_mhz);
                let f = clock_mhz as f64 / 1000.0;
                let cycles = |ns: f64| (ns * f).round() as u64;
                assert_eq!(d.row_hit_cycles, cycles(config.t_cl_ns));
                assert_eq!(d.row_open_cycles, cycles(config.t_rcd_ns + config.t_cl_ns));
                assert_eq!(
                    d.row_conflict_cycles,
                    cycles(config.t_rp_ns + config.t_rcd_ns + config.t_cl_ns),
                    "{} @ {clock_mhz} MHz",
                    grade.label()
                );
            }
        }
        // Pin the case that separates the two schemes: at 3.3 GHz each 15 ns
        // parameter is 49.5 cycles. Independent rounding gives 50+50+50 =
        // 150; the physical sum is 45 ns = 148.5 → 149.
        let d = Dram::new(DramConfig::with_speed(1, DramSpeedGrade::Ddr4_2133), 3300);
        assert_eq!(d.row_conflict_cycles, 149);
    }

    /// Demand-first arbitration invariant: prefetch traffic scheduled into
    /// other banks' idle slots must not move demand completion cycles by a
    /// single cycle, across every speed grade.
    #[test]
    fn demand_timing_is_independent_of_prefetch_traffic_on_other_banks() {
        for grade in DramSpeedGrade::ALL {
            let config = DramConfig::with_speed(1, grade);
            let mut quiet = Dram::new(config, 4000);
            let mut noisy = Dram::new(config, 4000);
            let mut quiet_completions = Vec::new();
            let mut noisy_completions = Vec::new();
            let mut cycle = 0u64;
            for i in 0..64u64 {
                // Demands walk bank 0, a new row each time (line i*512).
                let line = LineAddr::new(i * 512);
                quiet_completions.push(quiet.access(line, cycle, false));
                noisy_completions.push(noisy.access(line, cycle, false));
                // The noisy copy also sees prefetches on bank 3 (line 3 is
                // bank 3; +16 lines stays in-bank, advancing the row slowly).
                noisy.access(LineAddr::new(3 + (i % 13) * 16), cycle + 200, true);
                cycle += 400;
            }
            assert_eq!(
                quiet_completions,
                noisy_completions,
                "prefetches on idle banks shifted demand timing ({})",
                grade.label()
            );
        }
    }
}
