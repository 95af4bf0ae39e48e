//! Interval sampling: fast-forward → checkpoint → measure loops.
//!
//! A [`SamplingPlan`] turns one long workload into a short **functional
//! warm-up** (caches and predictor tables updated, timing skipped — see
//! [`dspatch_sim::Machine::run_functional`]) followed by a handful of
//! bounded **measurement intervals** whose per-interval IPC, prefetch
//! coverage and accuracy aggregate into a mean ± 95% confidence interval
//! ([`SamplingStats`] on the returned [`SimResult`]). This is the classic
//! sampled-simulation methodology (SMARTS/SimPoint lineage): wall-clock
//! drops by the ratio of detailed to total records, and the CI quantifies
//! what the shortcut cost in fidelity.
//!
//! Every sampled run starts from one neutral warm-up: it runs with the
//! **null** L2 prefetcher and is captured as a [`MachineState`] checkpoint
//! ([`warmup_checkpoint`]), which each prefetcher column restores before
//! measuring with its own, fresh predictor ([`run_sampled`]). The campaign
//! executor computes that checkpoint once per (workload, config) and
//! shares it across all prefetcher columns.

use crate::error::HarnessError;
use crate::runner::RunScale;
use dspatch_prefetchers::AnyPrefetcher;
use dspatch_sim::stats::{IntervalEstimate, SamplingStats};
use dspatch_sim::{MachineState, SimResult, SimulationBuilder, SystemConfig};
use dspatch_trace::{TraceSource, WorkloadSpec};
use dspatch_types::NullPrefetcher;

/// How a sampled run divides a workload: one warm-up prefix plus
/// seed-placed measurement intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SamplingPlan {
    /// Records consumed in functional warm-up before any interval. The
    /// same length also bounds the functional **re-warm** ahead of each
    /// subsequent interval: gap records beyond it are discarded at trace
    /// speed ([`dspatch_sim::Machine::skip_records`]) instead of warmed,
    /// so sampled wall-clock does not scale with gap length.
    pub warmup_accesses: u64,
    /// Records measured in detail per interval.
    pub interval_accesses: u64,
    /// Number of measurement intervals.
    pub intervals: u32,
    /// Seed for deterministic interval placement.
    pub seed: u64,
}

impl SamplingPlan {
    /// Structural validation independent of any particular trace.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Spec`] for a zero interval length or count.
    pub fn validate(&self) -> Result<(), HarnessError> {
        if self.interval_accesses == 0 {
            return Err(HarnessError::spec("sampling interval must be > 0 accesses"));
        }
        if self.intervals == 0 {
            return Err(HarnessError::spec("sampling needs at least one interval"));
        }
        Ok(())
    }

    /// Validates the plan against a concrete trace length.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Spec`] when warm-up plus all intervals do
    /// not fit in `total_accesses`.
    pub fn validate_for(&self, total_accesses: u64) -> Result<(), HarnessError> {
        self.validate()?;
        let detailed = self
            .interval_accesses
            .saturating_mul(u64::from(self.intervals));
        let needed = self.warmup_accesses.saturating_add(detailed);
        if needed > total_accesses {
            return Err(HarnessError::spec(format!(
                "sampling plan needs {needed} accesses (warmup {} + {} x {}) but the \
                 workload has only {total_accesses}",
                self.warmup_accesses, self.intervals, self.interval_accesses
            )));
        }
        Ok(())
    }

    /// Deterministic interval placement: the post-warm-up region splits
    /// into `intervals` equal slices and the seed picks one aligned window
    /// inside each, so intervals are spread across the whole trace (never
    /// overlapping, never past the end) and identical seeds reproduce
    /// identical placements on any machine.
    ///
    /// Returns absolute record indices of each interval's first access,
    /// strictly increasing. Call [`SamplingPlan::validate_for`] first.
    pub fn interval_starts(&self, total_accesses: u64) -> Vec<u64> {
        let intervals = u64::from(self.intervals);
        let region = total_accesses - self.warmup_accesses;
        let slice = region / intervals;
        (0..intervals)
            .map(|i| {
                let slack = slice.saturating_sub(self.interval_accesses);
                let offset = if slack == 0 {
                    0
                } else {
                    splitmix64(self.seed ^ (i.wrapping_mul(0x9E37_79B9_7F4A_7C15))) % (slack + 1)
                };
                self.warmup_accesses + i * slice + offset
            })
            .collect()
    }

    /// Fraction of the trace simulated in detail (the headroom behind the
    /// wall-clock speedup).
    pub fn detailed_fraction(&self, total_accesses: u64) -> f64 {
        if total_accesses == 0 {
            return 1.0;
        }
        (self.interval_accesses * u64::from(self.intervals)) as f64 / total_accesses as f64
    }

    /// Stable fingerprint suffix appended to campaign and cell identities
    /// so sampled and exact results of the same cell never alias.
    pub fn fingerprint_suffix(&self) -> String {
        format!(
            "|sampling:w{}.i{}.n{}.s{}",
            self.warmup_accesses, self.interval_accesses, self.intervals, self.seed
        )
    }

    /// Parses the CLI form `warmup=N,interval=N,n=N[,seed=N]`. Values take
    /// optional `k`/`m`/`g` suffixes (powers of ten: 2m = 2,000,000).
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed key or value.
    pub fn parse(spec: &str) -> Result<SamplingPlan, String> {
        let mut warmup = None;
        let mut interval = None;
        let mut intervals = None;
        let mut seed = 0u64;
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("sampling spec '{part}' is not key=value"))?;
            let value = parse_scaled(value.trim())
                .ok_or_else(|| format!("sampling spec '{key}' has invalid value '{value}'"))?;
            match key.trim() {
                "warmup" => warmup = Some(value),
                "interval" => interval = Some(value),
                "n" | "intervals" => intervals = Some(value),
                "seed" => seed = value,
                other => {
                    return Err(format!(
                        "unknown sampling key '{other}' (expected warmup/interval/n/seed)"
                    ))
                }
            }
        }
        let plan = SamplingPlan {
            warmup_accesses: warmup.ok_or("sampling spec needs 'warmup='")?,
            interval_accesses: interval.ok_or("sampling spec needs 'interval='")?,
            intervals: u32::try_from(intervals.ok_or("sampling spec needs 'n='")?)
                .map_err(|_| "sampling 'n' is too large")?,
            seed,
        };
        plan.validate().map_err(|e| e.to_string())?;
        Ok(plan)
    }

    /// The CLI form this plan parses back from.
    pub fn display(&self) -> String {
        format!(
            "warmup={},interval={},n={},seed={}",
            self.warmup_accesses, self.interval_accesses, self.intervals, self.seed
        )
    }
}

/// Parses `123`, `4k`, `2m`, `1g` (underscores allowed) into a u64.
fn parse_scaled(text: &str) -> Option<u64> {
    let text = text.replace('_', "");
    let (digits, factor) = match text.as_bytes().last()? {
        b'k' | b'K' => (&text[..text.len() - 1], 1_000u64),
        b'm' | b'M' => (&text[..text.len() - 1], 1_000_000),
        b'g' | b'G' => (&text[..text.len() - 1], 1_000_000_000),
        _ => (text.as_str(), 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(factor)
}

/// SplitMix64: the placement hash (stable, dependency-free).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Two-tailed 95% Student's t critical value for `df` degrees of freedom.
fn t95(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if df == 0 {
        return 0.0;
    }
    if df <= TABLE.len() {
        TABLE[df - 1]
    } else {
        1.96
    }
}

/// Mean ± 95% CI half-width of a sample set (Student's t; zero half-width
/// for fewer than two samples).
pub fn mean_ci95(samples: &[f64]) -> IntervalEstimate {
    if samples.is_empty() {
        return IntervalEstimate {
            mean: 0.0,
            ci95: 0.0,
        };
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    if samples.len() < 2 {
        return IntervalEstimate { mean, ci95: 0.0 };
    }
    let variance = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1.0);
    let standard_error = (variance / n).sqrt();
    IntervalEstimate {
        mean,
        ci95: t95(samples.len() - 1) * standard_error,
    }
}

/// Functionally warms one machine (null L2 prefetcher) over the plan's
/// warm-up prefix and captures the checkpoint the campaign executor forks
/// across prefetcher columns.
///
/// # Errors
///
/// Returns [`HarnessError::Spec`] when the plan does not fit the source
/// or the machine cannot be captured.
pub fn warmup_checkpoint(
    source: Box<dyn TraceSource>,
    config: &SystemConfig,
    plan: &SamplingPlan,
) -> Result<MachineState, HarnessError> {
    plan.validate_for(source.meta().accesses)?;
    let mut machine = SimulationBuilder::new(config.clone())
        .with_core(source, NullPrefetcher::new())
        .into_machine();
    machine.run_functional(plan.warmup_accesses);
    machine
        .capture()
        .map_err(|error| HarnessError::spec(format!("warm-up capture failed: {error}")))
}

/// Runs one sampled single-core simulation: restore the neutral warm-up
/// `warm` (see [`warmup_checkpoint`]), then fast-forward to each interval
/// and measure it in detail. The returned [`SimResult`]'s counters
/// aggregate the measured intervals and [`SimResult::sampling`] carries the
/// per-interval mean ± 95% CI.
///
/// # Errors
///
/// Returns [`HarnessError::Spec`] when the plan does not fit the source
/// or the checkpoint fails to restore.
pub fn run_sampled(
    source: Box<dyn TraceSource>,
    prefetcher: AnyPrefetcher,
    config: &SystemConfig,
    plan: &SamplingPlan,
    warm: &MachineState,
) -> Result<SimResult, HarnessError> {
    let total = source.meta().accesses;
    plan.validate_for(total)?;
    let mut machine = SimulationBuilder::new(config.clone())
        .with_core(source, prefetcher)
        .into_machine();
    machine
        .restore(warm)
        .map_err(|error| HarnessError::spec(format!("warm-up restore failed: {error}")))?;
    let mut position = plan.warmup_accesses;
    let mut intervals = Vec::with_capacity(plan.intervals as usize);
    for start in plan.interval_starts(total) {
        // Fast-forward the gap: anything beyond one warm-up's worth of
        // records is discarded at trace speed without touching the machine
        // (`skip_records`), and only the `warmup_accesses` immediately
        // preceding the interval run in functional warm-up mode. Caches and
        // predictors go stale by the skipped span, exactly as in
        // checkpoint-based sampling, and the bounded re-warm repairs them —
        // this keeps sampled wall-clock from scaling with gap length.
        let gap = start - position;
        if gap > plan.warmup_accesses {
            machine.skip_records(gap - plan.warmup_accesses);
            machine.run_functional(plan.warmup_accesses);
        } else {
            machine.run_functional(gap);
        }
        intervals.push(machine.run_interval(plan.interval_accesses));
        position = start + plan.interval_accesses;
    }
    Ok(aggregate_intervals(intervals, plan))
}

/// Convenience wrapper over [`warmup_checkpoint`] and [`run_sampled`] for
/// a synthetic workload at a given scale (the path `run_workload` takes
/// when the scale samples). It measures what a sampled campaign cell
/// measures.
///
/// # Errors
///
/// See [`warmup_checkpoint`] and [`run_sampled`].
pub fn run_sampled_workload(
    workload: &WorkloadSpec,
    prefetcher: AnyPrefetcher,
    config: &SystemConfig,
    scale: &RunScale,
) -> Result<SimResult, HarnessError> {
    let plan = scale
        .sampling
        .ok_or_else(|| HarnessError::spec("run_sampled_workload needs scale.sampling"))?;
    let source = || Box::new(workload.source(scale.accesses_per_workload)) as Box<dyn TraceSource>;
    let warm = warmup_checkpoint(source(), config, &plan)?;
    run_sampled(source(), prefetcher, config, &plan, &warm)
}

/// Folds per-interval results into one [`SimResult`]: counters sum, the
/// per-interval IPC / coverage / accuracy distributions become mean ± CI.
fn aggregate_intervals(intervals: Vec<SimResult>, plan: &SamplingPlan) -> SimResult {
    assert!(
        !intervals.is_empty(),
        "sampling needs at least one interval"
    );
    let ipcs: Vec<f64> = intervals
        .iter()
        .map(|sim| {
            sim.cores
                .iter()
                .map(dspatch_sim::CoreResult::ipc)
                .sum::<f64>()
                / sim.cores.len().max(1) as f64
        })
        .collect();
    let coverages: Vec<f64> = intervals
        .iter()
        .map(|sim| sim.total_accounting().coverage())
        .collect();
    let accuracies: Vec<f64> = intervals
        .iter()
        .map(|sim| sim.total_accounting().accuracy())
        .collect();

    let mut total = intervals[0].clone();
    for interval in &intervals[1..] {
        total.cycles += interval.cycles;
        for (core, other) in total.cores.iter_mut().zip(&interval.cores) {
            core.instructions += other.instructions;
            core.finish_cycle += other.finish_cycle;
            add_cache_stats(&mut core.l1, &other.l1);
            add_cache_stats(&mut core.l2, &other.l2);
            core.accounting.merge(&other.accounting);
        }
        add_cache_stats(&mut total.llc, &interval.llc);
        let dram = &mut total.dram;
        dram.cas_commands += interval.dram.cas_commands;
        dram.row_hits += interval.dram.row_hits;
        dram.row_misses += interval.dram.row_misses;
        dram.prefetch_accesses += interval.dram.prefetch_accesses;
        dram.utilization_sum += interval.dram.utilization_sum;
        dram.windows += interval.dram.windows;
        total.pollution.no_reuse += interval.pollution.no_reuse;
        total.pollution.prefetched_before_use += interval.pollution.prefetched_before_use;
        total.pollution.bad_pollution += interval.pollution.bad_pollution;
    }
    total.sampling = Some(SamplingStats {
        warmup_accesses: plan.warmup_accesses,
        interval_accesses: plan.interval_accesses,
        intervals: intervals.len() as u32,
        seed: plan.seed,
        ipc: mean_ci95(&ipcs),
        coverage: mean_ci95(&coverages),
        accuracy: mean_ci95(&accuracies),
    });
    total
}

fn add_cache_stats(into: &mut dspatch_sim::CacheStats, from: &dspatch_sim::CacheStats) {
    into.demand_hits += from.demand_hits;
    into.demand_misses += from.demand_misses;
    into.demand_fills += from.demand_fills;
    into.prefetch_fills += from.prefetch_fills;
    into.prefetch_first_uses += from.prefetch_first_uses;
    into.prefetch_unused_evictions += from.prefetch_unused_evictions;
}

/// A warm checkpoint's identity for `--checkpoint-dir`: everything that
/// changes the warm state — target, config, warm-up length — plus the
/// snapshot format and code versions, hashed into a filename-safe token.
/// Prefetcher columns are deliberately absent (warm-up is
/// prefetcher-neutral), as are interval knobs (they only shape
/// measurement, not the warm state).
pub fn checkpoint_token(target_key: &str, config: &SystemConfig, plan: &SamplingPlan) -> String {
    let identity = checkpoint_identity(target_key, config, plan);
    format!("{:016x}", crate::store::fnv1a(identity.as_bytes()))
}

/// The string [`checkpoint_token`] hashes. The code version is part of it,
/// as in [`crate::store::cell_fingerprint`]: a build that changes what the
/// warm-up leaves in the caches or DRAM without changing the byte layout
/// must not restore an older build's checkpoint.
fn checkpoint_identity(target_key: &str, config: &SystemConfig, plan: &SamplingPlan) -> String {
    format!(
        "ckpt-v{}|code-v{}|{}|{:?}|w{}",
        dspatch_sim::snapshot::FORMAT_VERSION,
        crate::store::code_version(),
        target_key,
        config,
        plan.warmup_accesses
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::PrefetcherKind;
    use dspatch_trace::workloads::suite;

    fn plan() -> SamplingPlan {
        SamplingPlan {
            warmup_accesses: 2_000,
            interval_accesses: 400,
            intervals: 4,
            seed: 7,
        }
    }

    #[test]
    fn parse_round_trips_and_scales_suffixes() {
        let parsed = SamplingPlan::parse("warmup=2m,interval=200k,n=10,seed=3").unwrap();
        assert_eq!(parsed.warmup_accesses, 2_000_000);
        assert_eq!(parsed.interval_accesses, 200_000);
        assert_eq!(parsed.intervals, 10);
        assert_eq!(parsed.seed, 3);
        let display = plan().display();
        assert_eq!(SamplingPlan::parse(&display).unwrap(), plan());
        assert!(SamplingPlan::parse("warmup=1k,interval=0,n=2").is_err());
        assert!(SamplingPlan::parse("warmup=1k,n=2").is_err());
        assert!(SamplingPlan::parse("bogus=1").is_err());
    }

    #[test]
    fn interval_placement_is_deterministic_ordered_and_in_bounds() {
        let plan = plan();
        plan.validate_for(20_000).unwrap();
        let starts = plan.interval_starts(20_000);
        assert_eq!(starts, plan.interval_starts(20_000));
        assert_eq!(starts.len(), 4);
        let mut previous_end = plan.warmup_accesses;
        for &start in &starts {
            assert!(start >= previous_end, "intervals must not overlap");
            previous_end = start + plan.interval_accesses;
        }
        assert!(previous_end <= 20_000, "last interval must fit the trace");
        let reseeded = SamplingPlan { seed: 8, ..plan };
        assert_ne!(
            starts,
            reseeded.interval_starts(20_000),
            "the seed must move interval placement"
        );
    }

    #[test]
    fn plans_that_do_not_fit_are_rejected() {
        let plan = plan();
        assert!(plan.validate_for(20_000).is_ok());
        let err = plan.validate_for(3_000).unwrap_err();
        assert!(matches!(err, HarnessError::Spec { .. }), "{err:?}");
    }

    #[test]
    fn ci_math_matches_hand_computation() {
        let estimate = mean_ci95(&[1.0, 2.0, 3.0]);
        assert!((estimate.mean - 2.0).abs() < 1e-12);
        // s = 1, se = 1/sqrt(3), t(2) = 4.303.
        assert!((estimate.ci95 - 4.303 / 3f64.sqrt()).abs() < 1e-9);
        assert_eq!(mean_ci95(&[5.0]).ci95, 0.0);
        assert!(estimate.covers(2.0));
        assert!(!estimate.covers(9.0));
    }

    #[test]
    fn sampled_run_reports_cis_and_shares_warmups() {
        let workload = &suite()[0];
        let config = dspatch_sim::SystemConfig::single_thread();
        let scale = RunScale {
            accesses_per_workload: 20_000,
            sampling: Some(plan()),
            ..RunScale::smoke()
        };
        let source =
            || Box::new(workload.source(scale.accesses_per_workload)) as Box<dyn TraceSource>;
        let warm = warmup_checkpoint(source(), &config, &plan()).unwrap();
        let column = || {
            run_sampled(
                source(),
                PrefetcherKind::Spp.build_any(),
                &config,
                &plan(),
                &warm,
            )
            .unwrap()
        };
        let sampled = column();
        let stats = sampled.sampling.expect("sampled result carries stats");
        assert_eq!(stats.intervals, 4);
        assert!(stats.ipc.mean > 0.0);
        assert!(stats.ipc.covers(stats.ipc.mean));
        // Restoring the shared checkpoint is deterministic: two columns
        // forked from the same warm state agree bit-for-bit.
        assert_eq!(sampled, column());
        // The sampled `run_workload` path warms the same neutral checkpoint
        // itself, so it measures exactly what a campaign column does.
        let standalone =
            run_sampled_workload(workload, PrefetcherKind::Spp.build_any(), &config, &scale)
                .unwrap();
        assert_eq!(sampled, standalone);
    }

    #[test]
    fn checkpoint_token_separates_configs_and_warmups() {
        let config = dspatch_sim::SystemConfig::single_thread();
        let token = checkpoint_token("w:a", &config, &plan());
        assert_eq!(token, checkpoint_token("w:a", &config, &plan()));
        assert_ne!(token, checkpoint_token("w:b", &config, &plan()));
        let longer = SamplingPlan {
            warmup_accesses: 4_000,
            ..plan()
        };
        assert_ne!(token, checkpoint_token("w:a", &config, &longer));
    }

    #[test]
    fn checkpoint_identity_includes_the_code_version() {
        let config = dspatch_sim::SystemConfig::single_thread();
        let identity = checkpoint_identity("w:a", &config, &plan());
        let code = format!("|code-v{}|", crate::store::code_version());
        assert!(identity.contains(&code), "{identity}");
        let format = format!("ckpt-v{}|", dspatch_sim::snapshot::FORMAT_VERSION);
        assert!(identity.starts_with(&format), "{identity}");
    }
}
