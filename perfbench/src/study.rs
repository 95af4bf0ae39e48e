//! The three campaign workloads: seed-built `CampaignSpec`s, the timed
//! repetition loop over `run_campaign_with`, and their output checks.

use crate::util::{Rng, Tracer};
use crate::BenchError;
use dspatch_harness::campaign::{
    CampaignResult, CampaignSpec, CellSpec, ConfigSpec, ExecStats, PrefetcherSel, ScaleSpec,
    Target, TargetSelector,
};
use dspatch_harness::results::sim_result_to_json;
use dspatch_harness::{ExecOptions, PrefetcherKind, ProgressEvent, RunScale, SamplingPlan};
use dspatch_sim::{DramSpeedGrade, SimResult, SimulationBuilder};
use dspatch_trace::{memory_intensive_suite, WorkloadCategory, WorkloadSpec};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which output check a study's results must pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Re-run seed-picked cells directly through `SimulationBuilder::run`.
    DirectRerun,
    /// Every core of every mix retires exactly the records it was given.
    CoresRetireAll,
    /// Every row carries the plan's interval count and finite CIs.
    SampledRows,
}

/// A campaign run repeatedly for the measured part of a workload.
#[derive(Debug, Clone)]
pub struct Study {
    pub spec: CampaignSpec,
    pub scale: RunScale,
    pub check: Check,
}

impl Study {
    /// The same grid at a tenth of the trace length, with the scale
    /// embedded so `dspatch-serve` resolves it exactly as this process
    /// does. Set-up simulates it into the service's store.
    pub fn reduced_spec(&self) -> CampaignSpec {
        let sampling = self.scale.sampling.map(|plan| SamplingPlan {
            warmup_accesses: plan.warmup_accesses / 10,
            interval_accesses: plan.interval_accesses / 10,
            ..plan
        });
        let mut spec = self.spec.clone();
        spec.name = format!("{} (set-up)", spec.name);
        spec.scale = Some(custom_scale(
            self.scale.accesses_per_workload / 10,
            self.scale.mixes,
            1,
            sampling,
        ));
        spec
    }

    /// Every single-core workload the study touches, in first-use order.
    pub fn workloads(&self) -> Vec<WorkloadSpec> {
        let mut out: Vec<WorkloadSpec> = Vec::new();
        for cell in &self.spec.cells {
            let targets = cell.targets.resolve(&self.scale).unwrap_or_default();
            for target in targets {
                let list = match target {
                    Target::Workload(workload) => vec![workload],
                    Target::Mix(mix) => mix.workloads,
                };
                for workload in list {
                    if !out
                        .iter()
                        .any(|w| w.name == workload.name && w.seed == workload.seed)
                    {
                        out.push(workload);
                    }
                }
            }
        }
        out
    }
}

pub fn custom_scale(
    accesses: usize,
    mixes: usize,
    threads: usize,
    sampling: Option<SamplingPlan>,
) -> ScaleSpec {
    ScaleSpec::Custom {
        accesses_per_workload: accesses,
        workloads_per_category: 0,
        mixes,
        threads: Some(threads),
        sim_workers: 0,
        sampling,
    }
}

fn resolve(scale: &ScaleSpec) -> RunScale {
    scale.resolve().expect("benchmark scales are valid")
}

fn kinds(list: &[PrefetcherKind]) -> Vec<PrefetcherSel> {
    list.iter().copied().map(PrefetcherSel::Kind).collect()
}

/// The Fig 12/13 line-up: from every category, a seed-picked half of its
/// memory-intensive workloads under BOP, SMS, SPP, DSPatch and DSPatch+SPP,
/// plus the memoized no-prefetcher baseline. Half of each category, not
/// one workload, so that different seeds cost about the same to simulate.
pub fn single_core_lineup(rng: &mut Rng, accesses: usize, threads: usize) -> Study {
    let pool = memory_intensive_suite();
    let names = WorkloadCategory::ALL
        .into_iter()
        .flat_map(|category| {
            let members: Vec<&WorkloadSpec> =
                pool.iter().filter(|w| w.category == category).collect();
            rng.distinct(members.len().div_ceil(2), members.len())
                .into_iter()
                .map(|i| members[i].name.clone())
                .collect::<Vec<_>>()
        })
        .collect();
    let scale = custom_scale(accesses, 0, threads, None);
    Study {
        spec: CampaignSpec {
            name: "single_core_lineup".to_owned(),
            scale: None,
            cells: vec![CellSpec {
                label: "lineup".to_owned(),
                targets: TargetSelector::Workloads(names),
                prefetchers: kinds(&PrefetcherKind::standalone_lineup()),
                config: ConfigSpec::single_thread(),
                baseline: true,
            }],
        },
        scale: resolve(&scale),
        check: Check::DirectRerun,
    }
}

/// The Fig 17/18 shape: homogeneous and seed-drawn heterogeneous 4-core
/// mixes under DSPatch+SPP and the baseline, at low (1ch DDR4-1600) and
/// high (2ch DDR4-2400) DRAM bandwidth.
pub fn multicore_bandwidth(rng: &mut Rng, accesses: usize, mixes: usize, threads: usize) -> Study {
    let mix_seed = rng.next_u64() >> 11;
    let mut cells = Vec::new();
    for (channels, speed, tag) in [
        (1, DramSpeedGrade::Ddr4_1600, "1ch-1600"),
        (2, DramSpeedGrade::Ddr4_2400, "2ch-2400"),
    ] {
        let config = ConfigSpec::multi_programmed().with_dram(channels, speed);
        cells.push(CellSpec {
            label: format!("homogeneous {tag}"),
            targets: TargetSelector::HomogeneousMixes { cores: 4 },
            prefetchers: kinds(&[PrefetcherKind::DspatchPlusSpp]),
            config,
            baseline: true,
        });
        cells.push(CellSpec {
            label: format!("heterogeneous {tag}"),
            targets: TargetSelector::HeterogeneousMixes {
                count: mixes,
                cores: 4,
                seed: mix_seed,
            },
            prefetchers: kinds(&[PrefetcherKind::DspatchPlusSpp]),
            config,
            baseline: true,
        });
    }
    let scale = custom_scale(accesses, mixes, threads, None);
    Study {
        spec: CampaignSpec {
            name: "multicore_bandwidth".to_owned(),
            scale: None,
            cells,
        },
        scale: resolve(&scale),
        check: Check::CoresRetireAll,
    }
}

/// Long single-core traces under a seeded `SamplingPlan`: fast-forward,
/// functional warm-up and checkpoint forks dominate.
pub fn sampled_long_trace(
    rng: &mut Rng,
    accesses: usize,
    workloads: usize,
    threads: usize,
) -> Study {
    let pool = memory_intensive_suite();
    let names = rng
        .distinct(workloads, pool.len())
        .into_iter()
        .map(|i| pool[i].name.clone())
        .collect();
    // Same proportions as perf_snapshot's sampled row: a 2% warm-up and
    // ten 0.2% intervals.
    let plan = SamplingPlan {
        warmup_accesses: accesses as u64 / 50,
        interval_accesses: accesses as u64 / 500,
        intervals: 10,
        seed: rng.next_u64() >> 11,
    };
    let scale = custom_scale(accesses, 0, threads, Some(plan));
    Study {
        spec: CampaignSpec {
            name: "sampled_long_trace".to_owned(),
            scale: None,
            cells: vec![CellSpec {
                label: "sampled".to_owned(),
                targets: TargetSelector::Workloads(names),
                prefetchers: kinds(&[PrefetcherKind::Spp, PrefetcherKind::DspatchPlusSpp]),
                config: ConfigSpec::single_thread(),
                baseline: true,
            }],
        },
        scale: resolve(&scale),
        check: Check::SampledRows,
    }
}

/// Trace records a campaign result simulated. Sampled runs count the whole
/// trace, skipped records included, as `perf_snapshot` does.
fn records_simulated(result: &CampaignResult, scale: &RunScale) -> u64 {
    result
        .sims
        .iter()
        .map(|sim| sim.cores.len() as u64 * scale.accesses_per_workload as u64)
        .sum()
}

/// One timed repetition: the result and its rendering, for the checks, and
/// its timing.
#[derive(Debug)]
pub struct Rep {
    pub result: CampaignResult,
    pub json: String,
    pub timing: Timing,
}

/// What the metrics need of a repetition once its outputs are checked.
#[derive(Debug, Clone)]
pub struct Timing {
    pub seconds: f64,
    /// Trace records simulated (see [`records_simulated`]).
    pub records: u64,
    pub stats: ExecStats,
    /// Per-cell host seconds, only when the repetition was traced.
    pub cell_seconds: Vec<f64>,
    /// Seconds from the worker pool's start (the `Started` event, after
    /// grid resolution and any warm-up pre-phase) to the campaign's end;
    /// only when traced.
    pub pool_seconds: f64,
}

/// Progress as the sink saw it: when the worker pool started, and each
/// executed cell's worker, label and finish time.
#[derive(Default)]
struct Progress {
    started: Option<Instant>,
    finishes: Vec<(std::thread::ThreadId, String, Instant)>,
}

/// Runs the study once. When traced, a progress sink notes when the worker
/// pool starts and when each cell finishes on which worker; a worker claims
/// its next job as soon as it finishes one, so a cell runs from its
/// worker's previous finish (or the pool start) to its own finish.
pub fn run_rep(
    spec: &CampaignSpec,
    scale: &RunScale,
    tracer: &Tracer,
    traced: bool,
    parent: u64,
    store: Option<dspatch_harness::SharedStore>,
) -> Result<Rep, BenchError> {
    let progress: Arc<Mutex<Progress>> = Arc::default();
    let sink_progress = progress.clone();
    let opts = ExecOptions {
        store,
        progress: traced.then(|| -> dspatch_harness::ProgressSink {
            Arc::new(move |event: &ProgressEvent| {
                let mut progress = sink_progress.lock().expect("progress poisoned");
                match event {
                    ProgressEvent::Started { .. } => progress.started = Some(Instant::now()),
                    // Store hits are announced up front by the caller's
                    // thread; only executed cells are spans.
                    ProgressEvent::CellFinished {
                        target,
                        prefetcher,
                        outcome,
                        ..
                    } if *outcome != dspatch_harness::CellOutcome::Store => {
                        progress.finishes.push((
                            std::thread::current().id(),
                            format!("harness.cell {target} / {prefetcher}"),
                            Instant::now(),
                        ));
                    }
                    _ => {}
                }
            })
        }),
        ..ExecOptions::default()
    };
    let start = Instant::now();
    let run = |span| (run_campaign(spec, scale, &opts), span);
    // An untraced repetition records nothing, not even its own span.
    let (result, span) = if traced {
        tracer.span("harness.run_campaign_with", parent, run)
    } else {
        run(0)
    };
    let result = result?;
    let end = Instant::now();
    let mut progress = progress.lock().expect("progress poisoned");
    let pool_start = progress.started.unwrap_or(start);
    let mut last = HashMap::new();
    let mut cell_seconds = Vec::new();
    for (thread, name, finish) in progress.finishes.drain(..) {
        let begin = last.insert(thread, finish).unwrap_or(pool_start);
        cell_seconds.push(finish.duration_since(begin).as_secs_f64());
        tracer.record(&name, span, tracer.ns_at(begin), tracer.ns_at(finish));
    }
    let json = result.to_json().render();
    Ok(Rep {
        timing: Timing {
            seconds: end.duration_since(start).as_secs_f64(),
            records: records_simulated(&result, scale),
            stats: result.stats,
            cell_seconds,
            pool_seconds: end.duration_since(pool_start).as_secs_f64(),
        },
        result,
        json,
    })
}

fn run_campaign(
    spec: &CampaignSpec,
    scale: &RunScale,
    opts: &ExecOptions,
) -> Result<CampaignResult, BenchError> {
    dspatch_harness::campaign::run_campaign_with(spec, scale, opts)
        .map_err(|error| BenchError::Run(format!("campaign '{}': {error}", spec.name)))
}

/// The study's own output check (see [`Check`]).
pub fn check(study: &Study, rep: &Rep, rng: &mut Rng) -> Result<(), BenchError> {
    let result = &rep.result;
    if !result.failures.is_empty() {
        return Err(BenchError::Check(format!(
            "{} cell(s) quarantined",
            result.failures.len()
        )));
    }
    match study.check {
        Check::DirectRerun => {
            let config = ConfigSpec::single_thread().build();
            let workloads = study.workloads();
            for _ in 0..2 {
                let row = &result.rows[rng.below(result.rows.len())];
                let workload = workloads
                    .iter()
                    .find(|w| w.name == row.target)
                    .ok_or_else(|| BenchError::Check(format!("unknown target {}", row.target)))?;
                let kind = PrefetcherKind::parse(&row.prefetcher).ok_or_else(|| {
                    BenchError::Check(format!("unknown prefetcher {}", row.prefetcher))
                })?;
                let direct = SimulationBuilder::new(config.clone())
                    .with_core(
                        workload.source(study.scale.accesses_per_workload),
                        kind.build_any(),
                    )
                    .run();
                if !identical(&direct, result.sim_of(row)) {
                    return Err(BenchError::Check(format!(
                        "{} / {}: direct SimulationBuilder::run differs from the campaign",
                        row.target, row.prefetcher
                    )));
                }
            }
        }
        Check::CoresRetireAll => {
            let accesses = study.scale.accesses_per_workload;
            let mut mixes = HashMap::new();
            for cell in &study.spec.cells {
                for target in cell.targets.resolve(&study.scale).unwrap_or_default() {
                    if let Target::Mix(mix) = target {
                        mixes.insert(mix.name.clone(), mix);
                    }
                }
            }
            let mut expected: HashMap<(String, u64), u64> = HashMap::new();
            for row in &result.rows {
                let mix = mixes
                    .get(&row.target)
                    .ok_or_else(|| BenchError::Check(format!("unknown mix {}", row.target)))?;
                let sims = std::iter::once(result.sim_of(row)).chain(result.baseline_of(row));
                for sim in sims {
                    if sim.cores.len() != mix.workloads.len() {
                        return Err(BenchError::Check(format!(
                            "{}: {} cores simulated, {} given",
                            row.target,
                            sim.cores.len(),
                            mix.workloads.len()
                        )));
                    }
                    for (core, workload) in sim.cores.iter().zip(&mix.workloads) {
                        let instructions = *expected
                            .entry((workload.name.clone(), workload.seed))
                            .or_insert_with(|| trace_instructions(workload, accesses));
                        let records = core.l1.demand_hits + core.l1.demand_misses;
                        if core.instructions != instructions || records != accesses as u64 {
                            return Err(BenchError::Check(format!(
                                "{} / {}: core running {} retired {} instructions in {} \
                                 records, trace holds {} in {}",
                                row.target,
                                row.prefetcher,
                                workload.name,
                                core.instructions,
                                records,
                                instructions,
                                accesses
                            )));
                        }
                    }
                }
            }
        }
        Check::SampledRows => {
            let plan = study.scale.sampling.expect("sampled study has a plan");
            for row in &result.rows {
                let sims = std::iter::once(result.sim_of(row)).chain(result.baseline_of(row));
                for sim in sims {
                    let ok = sim.sampling.as_ref().is_some_and(|s| {
                        s.intervals == plan.intervals
                            && [s.ipc.ci95, s.coverage.ci95, s.accuracy.ci95]
                                .iter()
                                .all(|ci| ci.is_finite())
                    });
                    if !ok {
                        return Err(BenchError::Check(format!(
                            "{} / {}: row lacks {} intervals with finite CIs",
                            row.target, row.prefetcher, plan.intervals
                        )));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Bit-identity of two results through their exact serialization.
pub fn identical(a: &SimResult, b: &SimResult) -> bool {
    sim_result_to_json(a).render_compact() == sim_result_to_json(b).render_compact()
}

/// Instructions a workload's trace holds: each record plus its gap.
fn trace_instructions(workload: &WorkloadSpec, accesses: usize) -> u64 {
    use dspatch_trace::TraceSource;
    let mut source = workload.source(accesses);
    let mut total = 0;
    while let Some(record) = source.next_record() {
        total += u64::from(record.gap) + 1;
    }
    total
}
