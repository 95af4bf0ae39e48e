//! Result types and coverage / accuracy / pollution accounting.
//!
//! The paper reports three classes of numbers this module supports:
//!
//! * **performance delta over baseline** — computed from per-core IPCs
//!   ([`CoreResult::ipc`], [`SimResult::speedup_over`]);
//! * **coverage and mispredictions** as fractions of L2 demand accesses
//!   (Figure 16, [`PrefetchAccounting`]);
//! * the appendix **pollution breakdown** of LLC victims evicted by
//!   prefetches (Figure 20, [`PollutionBreakdown`]).

use crate::cache::{CacheGeometry, CacheStats};
use crate::dram::DramStats;

/// Prefetch coverage/accuracy accounting for one core's L2 prefetcher.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchAccounting {
    /// Demand accesses that reached the L2 (i.e. demand L1 misses).
    pub l2_demand_accesses: u64,
    /// Demand L2 accesses served by a prefetched line (resident and not yet
    /// used, or still in flight).
    pub covered: u64,
    /// Demand L2 accesses that had to go all the way to DRAM unaided.
    pub uncovered: u64,
    /// Prefetch requests accepted and issued into the hierarchy.
    pub prefetches_issued: u64,
    /// Prefetched lines that were used by a demand access.
    pub prefetches_used: u64,
    /// Prefetched lines never used (finalized at the end of the run).
    pub prefetches_unused: u64,
}

impl PrefetchAccounting {
    /// Fraction of L2 demand accesses covered by prefetching (Figure 16's
    /// "Covered" bar).
    pub fn coverage(&self) -> f64 {
        ratio(self.covered, self.l2_demand_accesses)
    }

    /// Fraction of L2 demand accesses that missed to DRAM unaided
    /// ("Uncovered").
    pub fn uncovered_fraction(&self) -> f64 {
        ratio(self.uncovered, self.l2_demand_accesses)
    }

    /// Unused prefetches as a fraction of L2 demand accesses
    /// ("Mispredicted"). This is the paper's normalization in Figure 16.
    pub fn misprediction_fraction(&self) -> f64 {
        ratio(self.prefetches_unused, self.l2_demand_accesses)
    }

    /// Fraction of issued prefetches that were used (prefetch accuracy).
    pub fn accuracy(&self) -> f64 {
        ratio(self.prefetches_used, self.prefetches_issued)
    }

    /// Finalizes the unused-prefetch count once the run is over.
    pub fn finalize(&mut self) {
        self.prefetches_unused = self.prefetches_issued.saturating_sub(self.prefetches_used);
    }

    /// Merges another accounting record into this one (used to aggregate
    /// cores or workloads).
    pub fn merge(&mut self, other: &PrefetchAccounting) {
        self.l2_demand_accesses += other.l2_demand_accesses;
        self.covered += other.covered;
        self.uncovered += other.uncovered;
        self.prefetches_issued += other.prefetches_issued;
        self.prefetches_used += other.prefetches_used;
        self.prefetches_unused += other.prefetches_unused;
    }
}

/// Classification of LLC victims evicted by prefetch fills (Figure 20).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PollutionBreakdown {
    /// Victims never referenced again before the end of the run: already
    /// dead, so their eviction caused no harm.
    pub no_reuse: u64,
    /// Victims whose next reference hit on-die because a prefetch brought
    /// them back first.
    pub prefetched_before_use: u64,
    /// Victims whose next reference had to go back to DRAM: true pollution.
    pub bad_pollution: u64,
}

impl PollutionBreakdown {
    /// Total classified victims.
    pub fn total(&self) -> u64 {
        self.no_reuse + self.prefetched_before_use + self.bad_pollution
    }

    /// The three classes as fractions of the total, in the order
    /// (NoReuse, PrefetchedBeforeUse, BadPollution).
    pub fn fractions(&self) -> (f64, f64, f64) {
        let total = self.total();
        (
            ratio(self.no_reuse, total),
            ratio(self.prefetched_before_use, total),
            ratio(self.bad_pollution, total),
        )
    }
}

/// Per-core outcome of a simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreResult {
    /// Workload name the core ran.
    pub workload: String,
    /// Name of the L2 prefetcher attached to the core.
    pub prefetcher: String,
    /// Instructions executed (memory accesses plus gap instructions).
    pub instructions: u64,
    /// Cycle at which the core finished its trace.
    pub finish_cycle: u64,
    /// L1 data-cache statistics.
    pub l1: CacheStats,
    /// Private L2 statistics.
    pub l2: CacheStats,
    /// Prefetch coverage/accuracy accounting.
    pub accounting: PrefetchAccounting,
}

impl CoreResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.finish_cycle == 0 {
            0.0
        } else {
            self.instructions as f64 / self.finish_cycle as f64
        }
    }
}

/// Mean and half-width of a 95% confidence interval over per-interval
/// estimates from a sampled run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalEstimate {
    /// Arithmetic mean of the per-interval values.
    pub mean: f64,
    /// Half-width of the 95% confidence interval around [`Self::mean`]
    /// (Student's t for small interval counts). Zero when only one
    /// interval was measured.
    pub ci95: f64,
}

impl IntervalEstimate {
    /// Whether `value` falls inside `mean ± ci95` (inclusive).
    pub fn covers(&self, value: f64) -> bool {
        (value - self.mean).abs() <= self.ci95 + 1e-12
    }
}

/// How a sampled (interval-sampling) run was configured and how its
/// per-interval measurements spread. Attached to a [`SimResult`] only when
/// the run was sampled; exact runs leave it `None` so their serialized
/// form is unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingStats {
    /// Records consumed in functional warm-up before the first interval.
    pub warmup_accesses: u64,
    /// Records measured in detail per interval.
    pub interval_accesses: u64,
    /// Number of measurement intervals aggregated.
    pub intervals: u32,
    /// Seed that placed the intervals within the trace.
    pub seed: u64,
    /// Per-interval IPC estimate (mean ± 95% CI).
    pub ipc: IntervalEstimate,
    /// Per-interval prefetch-coverage estimate.
    pub coverage: IntervalEstimate,
    /// Per-interval prefetch-accuracy estimate.
    pub accuracy: IntervalEstimate,
}

/// The complete outcome of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// One entry per core, in core order.
    pub cores: Vec<CoreResult>,
    /// Shared LLC statistics.
    pub llc: CacheStats,
    /// DRAM statistics (bandwidth utilization, row behaviour).
    pub dram: DramStats,
    /// LLC pollution classification.
    pub pollution: PollutionBreakdown,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Effective geometry of each cache level (L1, L2, LLC), echoed from
    /// the validated configuration. When a non-power-of-two geometry is
    /// rounded up, `rounded` and `effective_bytes` record what was actually
    /// modeled.
    pub cache_geometry: Vec<CacheGeometry>,
    /// Sampling methodology and confidence intervals when this result came
    /// from a sampled run (`None` for exact runs). The headline counters
    /// above then aggregate the measured intervals only.
    pub sampling: Option<SamplingStats>,
}

impl SimResult {
    /// Geometric-mean speedup of this run over a baseline run of the same
    /// workloads (the paper's "performance delta over baseline" metric,
    /// reported as a percentage elsewhere).
    ///
    /// # Panics
    ///
    /// Panics if the two results have different core counts.
    pub fn speedup_over(&self, baseline: &SimResult) -> f64 {
        assert_eq!(
            self.cores.len(),
            baseline.cores.len(),
            "speedup requires matching core counts"
        );
        if self.cores.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = self
            .cores
            .iter()
            .zip(baseline.cores.iter())
            .map(|(new, old)| {
                let old_ipc = old.ipc().max(1e-12);
                (new.ipc().max(1e-12) / old_ipc).ln()
            })
            .sum();
        (log_sum / self.cores.len() as f64).exp()
    }

    /// Aggregated prefetch accounting across all cores.
    pub fn total_accounting(&self) -> PrefetchAccounting {
        let mut total = PrefetchAccounting::default();
        for core in &self.cores {
            total.merge(&core.accounting);
        }
        total
    }
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(ipc_num: u64, ipc_den: u64) -> CoreResult {
        CoreResult {
            workload: "w".to_owned(),
            prefetcher: "none".to_owned(),
            instructions: ipc_num,
            finish_cycle: ipc_den,
            l1: CacheStats::default(),
            l2: CacheStats::default(),
            accounting: PrefetchAccounting::default(),
        }
    }

    fn result(cores: Vec<CoreResult>) -> SimResult {
        SimResult {
            cores,
            llc: CacheStats::default(),
            dram: DramStats::default(),
            pollution: PollutionBreakdown::default(),
            cycles: 0,
            cache_geometry: Vec::new(),
            sampling: None,
        }
    }

    #[test]
    fn ipc_is_instructions_over_cycles() {
        assert!((core(1000, 500).ipc() - 2.0).abs() < 1e-12);
        assert_eq!(core(10, 0).ipc(), 0.0);
    }

    #[test]
    fn speedup_is_geometric_mean_of_core_ratios() {
        let baseline = result(vec![core(1000, 1000), core(1000, 1000)]);
        // Core 0 speeds up 2x, core 1 stays flat: geomean = sqrt(2).
        let improved = result(vec![core(1000, 500), core(1000, 1000)]);
        let speedup = improved.speedup_over(&baseline);
        assert!((speedup - 2f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn speedup_of_identical_runs_is_one() {
        let a = result(vec![core(123, 456)]);
        assert!((a.speedup_over(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "matching core counts")]
    fn speedup_rejects_mismatched_core_counts() {
        let a = result(vec![core(1, 1)]);
        let b = result(vec![core(1, 1), core(1, 1)]);
        let _ = a.speedup_over(&b);
    }

    #[test]
    fn accounting_fractions() {
        let mut acc = PrefetchAccounting {
            l2_demand_accesses: 100,
            covered: 60,
            uncovered: 30,
            prefetches_issued: 80,
            prefetches_used: 60,
            prefetches_unused: 0,
        };
        acc.finalize();
        assert!((acc.coverage() - 0.6).abs() < 1e-12);
        assert!((acc.uncovered_fraction() - 0.3).abs() < 1e-12);
        assert!((acc.accuracy() - 0.75).abs() < 1e-12);
        assert!((acc.misprediction_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn accounting_merge_adds_fields() {
        let a = PrefetchAccounting {
            l2_demand_accesses: 10,
            covered: 5,
            uncovered: 2,
            prefetches_issued: 7,
            prefetches_used: 5,
            prefetches_unused: 2,
        };
        let mut total = PrefetchAccounting::default();
        total.merge(&a);
        total.merge(&a);
        assert_eq!(total.l2_demand_accesses, 20);
        assert_eq!(total.prefetches_unused, 4);
    }

    #[test]
    fn empty_accounting_has_zero_fractions() {
        let acc = PrefetchAccounting::default();
        assert_eq!(acc.coverage(), 0.0);
        assert_eq!(acc.accuracy(), 0.0);
    }

    #[test]
    fn pollution_fractions_sum_to_one() {
        let p = PollutionBreakdown {
            no_reuse: 84,
            prefetched_before_use: 13,
            bad_pollution: 3,
        };
        let (a, b, c) = p.fractions();
        assert!((a + b + c - 1.0).abs() < 1e-12);
        assert!(a > b && b > c);
        assert_eq!(PollutionBreakdown::default().fractions(), (0.0, 0.0, 0.0));
    }
}
