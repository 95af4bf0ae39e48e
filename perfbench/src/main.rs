//! The repository benchmark: "how long a study takes".
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload is set up from the seed (a store simulated in this
//! process and served by a separate `dspatch-serve` process, set up
//! `SETUPS` times for `setup_s`), then repeats its campaign through
//! `run_campaign_with` for `--seconds`. A traced run gives part of that
//! time to a closed loop of reads and writes against the server. Outputs
//! are checked on every run. The last stdout line is the JSON result;
//! `--trace 1` adds spans and per-layer probes (see `README.md`).

mod layers;
mod serve;
mod study;
mod util;

use dspatch_harness::campaign::{CampaignSpec, Target};
use dspatch_harness::RunScale;
use dspatch_sim::SimResult;
use std::path::PathBuf;
use std::time::Instant;
use study::{Study, Timing};
use util::{median, quantile, secs, Metrics, Rng, Tracer};

/// Why a run stopped: a failed output check, or the benchmark itself could
/// not run (bad arguments, I/O, a server that would not start).
#[derive(Debug)]
pub enum BenchError {
    Check(String),
    Run(String),
}

impl From<std::io::Error> for BenchError {
    fn from(error: std::io::Error) -> Self {
        BenchError::Run(error.to_string())
    }
}

/// `sampled_long_trace` runs and checks like the others but is not in
/// `BENCHMARK.json`: two workloads leave each run long enough to be steady
/// (README.md).
const WORKLOADS: [&str; 3] = [
    "single_core_lineup",
    "multicore_bandwidth",
    "sampled_long_trace",
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// A round reference time for `util::HostGauge::time` (it read 0.06-0.35 s
/// on the 2-vCPU host the bounds were set on). `sim_accesses_per_s` and
/// `setup_s` are scaled to the speed of a host where it takes this long.
const REFERENCE_GAUGE_S: f64 = 0.1;

/// Timed campaign repetitions per run, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Share of `--seconds` a traced run spends repeating the campaign; the
/// rest drives the server.
const STUDY_SHARE: f64 = 0.85;

/// Everything one workload runs, built from the seed.
struct Plan {
    /// The campaign repeated in the measured phase.
    study: Study,
    /// Simulated into the service's store during set-up.
    seed_specs: Vec<CampaignSpec>,
    inputs: layers::Inputs,
}

fn plan(workload: &str, seed: u64) -> Option<Plan> {
    let mut rng = Rng::new(seed);
    // Two executor threads, one per host CPU: one thread was no steadier
    // (README.md).
    let study = match workload {
        "single_core_lineup" => study::single_core_lineup(&mut rng, 40_000, 2),
        "multicore_bandwidth" => study::multicore_bandwidth(&mut rng, 25_000, 4, 2),
        "sampled_long_trace" => study::sampled_long_trace(&mut rng, 5_000_000, 4, 2),
        _ => return None,
    };
    let workloads = study.workloads();
    let mix = study.spec.cells.iter().find_map(|cell| {
        cell.targets
            .resolve(&study.scale)
            .ok()?
            .into_iter()
            .find_map(|target| match target {
                Target::Mix(mix) => Some(mix),
                Target::Workload(_) => None,
            })
    });
    let inputs = layers::Inputs {
        config: study.spec.cells[0].config.build(),
        trace_len: study.scale.accesses_per_workload,
        workloads,
        mix,
    };
    Some(Plan {
        seed_specs: vec![study.reduced_spec()],
        study,
        inputs,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs a u64")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds needs a positive number")?,
                );
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_owned()),
                };
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("serve-child") {
        let store = args.nth(1).unwrap_or_default();
        if let Err(error) = serve::child_main(&store) {
            eprintln!("perfbench serve-child: {error:?}");
            std::process::exit(2);
        }
        return;
    }
    let args = match parse_args(args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!(
                "perfbench: {message}\nusage: perfbench --workload {{{}}} --seed N --seconds S \
                 --trace 0|1",
                WORKLOADS.join(",")
            );
            std::process::exit(2);
        }
    };
    let Some(plan) = plan(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload '{}' (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        std::process::exit(2);
    };
    let dir = match util::scratch_dir(&args.workload) {
        Ok(dir) => dir,
        Err(error) => {
            eprintln!("perfbench: scratch directory: {error}");
            std::process::exit(2);
        }
    };
    let outcome = run(&args, &plan, &dir);
    drop(std::fs::remove_dir_all(&dir));
    match outcome {
        Ok(line) => println!("{line}"),
        Err(BenchError::Check(message)) => {
            eprintln!("perfbench: output check failed: {message}");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            std::process::exit(1);
        }
        Err(BenchError::Run(message)) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    }
}

/// Totals of the simulated statistics over a set of results.
fn model_counts(sims: &[&SimResult], metrics: &mut Metrics) {
    let sum = |f: &dyn Fn(&SimResult) -> u64| sims.iter().map(|s| f(s)).sum::<u64>();
    let cores = |f: &dyn Fn(&dspatch_sim::CoreResult) -> u64| {
        sum(&|s: &SimResult| s.cores.iter().map(f).sum())
    };
    metrics.put("sim.cycles", sum(&|s| s.cycles) as f64, "count");
    metrics.put(
        "sim.instructions",
        cores(&|c| c.instructions) as f64,
        "count",
    );
    metrics.put(
        "sim.l2_demand_misses",
        cores(&|c| c.l2.demand_misses) as f64,
        "count",
    );
    metrics.put(
        "sim.llc_misses",
        sum(&|s| s.llc.demand_misses) as f64,
        "count",
    );
    metrics.put(
        "sim.dram.cas",
        sum(&|s| s.dram.cas_commands) as f64,
        "count",
    );
    let hits = sum(&|s| s.dram.row_hits) as f64;
    let rows = hits + sum(&|s| s.dram.row_misses) as f64;
    metrics.put("sim.dram.row_hit_rate", hits / rows.max(1.0), "fraction");
    let windows = sum(&|s| s.dram.windows) as f64;
    let utilization: f64 = sims.iter().map(|s| s.dram.utilization_sum).sum();
    metrics.put(
        "sim.dram.utilization",
        utilization / windows.max(1.0),
        "fraction",
    );
    let issued = sum(&|s| s.total_accounting().prefetches_issued) as f64;
    let used = sum(&|s| s.total_accounting().prefetches_used) as f64;
    let covered = sum(&|s| s.total_accounting().covered) as f64;
    let uncovered = sum(&|s| s.total_accounting().uncovered) as f64;
    metrics.put("sim.prefetches_issued", issued, "count");
    metrics.put("sim.prefetch_accuracy", used / issued.max(1.0), "fraction");
    metrics.put(
        "sim.coverage",
        covered / (covered + uncovered).max(1.0),
        "fraction",
    );
}

/// Cell timings and executor counters of the traced campaign runs. Idle
/// time is counted over the worker pool only, from its start to the end.
fn harness_metrics(traced: &[&Timing], scale: Option<&RunScale>, metrics: &mut Metrics) {
    let cells: Vec<f64> = traced.iter().flat_map(|t| t.cell_seconds.clone()).collect();
    metrics.put("harness.cell_s_p50", median(&cells), "s");
    metrics.put("harness.cell_s_tail", quantile(&cells, 1.0), "s");
    let idle: Vec<f64> = traced
        .iter()
        .map(|t| t.stats.threads as f64 * t.pool_seconds - t.cell_seconds.iter().sum::<f64>())
        .collect();
    metrics.put("harness.executor_idle_s", median(&idle), "s");
    let stat = |f: &dyn Fn(&Timing) -> usize| traced.iter().map(|t| f(t)).sum::<usize>() as f64;
    metrics.put("harness.sims_run", stat(&|t| t.stats.sims_run), "count");
    metrics.put("harness.memo_hits", stat(&|t| t.stats.memo_hits), "count");
    metrics.put(
        "harness.warmups_run",
        stat(&|t| t.stats.warmups_run),
        "count",
    );
    let fraction = scale
        .and_then(|s| {
            s.sampling
                .map(|plan| plan.detailed_fraction(s.accesses_per_workload as u64))
        })
        .unwrap_or(1.0);
    metrics.put("harness.sampling.detailed_fraction", fraction, "fraction");
}

fn run(args: &Args, plan: &Plan, dir: &std::path::Path) -> Result<String, BenchError> {
    let tracer = Tracer::new(args.trace);
    let mut check_rng = Rng::new(args.seed ^ 0xC4EC);
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // Made first, so its tables are resident for the whole run.
    let mut gauge = util::HostGauge::new(2);

    // Set-up; the last set-up's server is kept.
    let mut setup_s = Vec::new();
    let mut service: Option<serve::Service> = None;
    let mut store_dir = PathBuf::new();
    for i in 0..SETUPS {
        if let Some(old) = service.take() {
            old.server.shutdown()?;
        }
        store_dir = dir.join(format!("store-{i}"));
        let start = Instant::now();
        let fresh = tracer.span("setup", 0, |span| {
            serve::set_up(&plan.seed_specs, &store_dir, &tracer, args.trace, span)
        })?;
        setup_s.push(secs(start));
        for rep in &fresh.seeded {
            attempted += rep.result.sims.len() as u64;
            failed += rep.result.failures.len() as u64;
        }
        service = Some(fresh);
    }
    let mut service = service.expect("at least one set-up ran");
    service.seeded.clear();

    // Study phase. The first repetition warms up: its output is checked,
    // and peak RSS is read after it. Each later repetition is timed,
    // compared with it and dropped, so memory does not grow with the
    // repetition count. A traced run alternates traced and untraced
    // repetitions, so the two sets show the tracing overhead. The host is
    // gauged before every timed repetition and after the last.
    let study = &plan.study;
    let first = study::run_rep(&study.spec, &study.scale, &tracer, false, 0, None)?;
    attempted += first.result.sims.len() as u64;
    failed += first.result.failures.len() as u64;
    study::check(study, &first, &mut check_rng)?;
    let own_rss = util::peak_rss_mib("self");
    let budget = args.seconds * if args.trace { STUDY_SHARE } else { 1.0 };
    let mut timings: Vec<Timing> = Vec::new();
    let mut rep_traced = Vec::new();
    let mut gauges = Vec::new();
    let start = Instant::now();
    while timings.len() < MIN_REPS || secs(start) < budget {
        let traced = args.trace && timings.len() % 2 == 1;
        gauges.push(gauge.time());
        let rep = study::run_rep(&study.spec, &study.scale, &tracer, traced, 0, None)?;
        attempted += rep.result.sims.len() as u64;
        failed += rep.result.failures.len() as u64;
        if rep.json != first.json {
            return Err(BenchError::Check(format!(
                "repetition {} of the campaign produced different JSON",
                timings.len() + 1
            )));
        }
        timings.push(rep.timing);
        rep_traced.push(traced);
    }
    gauges.push(gauge.time());
    let rates: Vec<f64> = timings
        .iter()
        .map(|t| t.records as f64 / t.seconds)
        .collect();
    // The median repetition and the median set-up, at the reference host's
    // speed (README.md). A busy host slows the gauge only in bursts, so the
    // host's speed over the run is read from the faster quartile of gauges.
    let gauge_fast = quantile(&gauges, 0.25);
    let slowdown = gauge_fast / REFERENCE_GAUGE_S;
    let rate = median(&rates) * slowdown;
    let setup = median(&setup_s) / slowdown;
    eprintln!(
        "perfbench: {} repetitions, records/s {:.0}-{:.0}, median {:.0}, scaled {:.0}; \
         host gauge {:.1}-{:.1} ms, lower quartile {:.1} ms; set-ups {:.3}-{:.3} s, median \
         {:.3} s, scaled {:.3} s",
        rates.len(),
        quantile(&rates, 0.0),
        quantile(&rates, 1.0),
        median(&rates),
        rate,
        quantile(&gauges, 0.0) * 1e3,
        quantile(&gauges, 1.0) * 1e3,
        gauge_fast * 1e3,
        quantile(&setup_s, 0.0),
        quantile(&setup_s, 1.0),
        median(&setup_s),
        setup
    );

    // Serve phase, traced runs only: two clients read and write.
    let load = if args.trace {
        let seconds = args.seconds * (1.0 - STUDY_SHARE);
        let load = tracer.span("serve.closed_loop", 0, |span| {
            serve::closed_loop(&service, args.seed, seconds, &tracer, span)
        });
        attempted += load.requests;
        failed += load.failed;
        Some(load)
    } else {
        None
    };
    service.server.shutdown()?;
    if let Some(load) = &load {
        serve::check_first_write(load)?;
    }

    let mut metrics = Metrics::default();
    match &load {
        None => {
            metrics.put("setup_s", setup, "s");
            metrics.put("sim_accesses_per_s", rate, "1/s");
            // The gauge's tables are not the program's memory.
            let rss = own_rss.ok_or_else(|| BenchError::Run("peak RSS unavailable".to_owned()))?;
            metrics.put("peak_rss_mib", rss - gauge.mib(), "MiB");
        }
        Some(load) => {
            layers::probe_model(&plan.inputs, &tracer, 0, &mut metrics);
            model_counts(&first.result.sims.iter().collect::<Vec<_>>(), &mut metrics);
            let traced: Vec<&Timing> = timings
                .iter()
                .zip(&rep_traced)
                .filter_map(|(t, traced)| traced.then_some(t))
                .collect();
            harness_metrics(&traced, Some(&study.scale), &mut metrics);
            layers::probe_store(&store_dir, &dir.join("probe-store"), &tracer, &mut metrics);
            for route in ["results", "query", "results_filter", "submit", "status"] {
                let times = load.route_ms.get(route).cloned().unwrap_or_default();
                metrics.put(format!("serve.route.{route}_ms"), median(&times), "ms");
            }
            metrics.put("serve.fresh_sims", load.fresh_sims as f64, "count");
            metrics.put("serve.store_hits", load.store_hits as f64, "count");
            metrics.put("serve.non2xx", load.failed as f64, "count");
            metrics.put("read_ms_p50", median(&load.read_ms), "ms");
            metrics.put("read_ms_p90", quantile(&load.read_ms, 0.9), "ms");
            metrics.put("write_ms_p50", median(&load.write_ms), "ms");
            metrics.put("requests_per_s", load.requests as f64 / load.seconds, "1/s");
            metrics.put("trace.records_pulled", first.timing.records as f64, "count");
            metrics.put("host.gauge_ms", gauge_fast * 1e3, "ms");
            metrics.put("host.unscaled_sim_accesses_per_s", median(&rates), "1/s");
            metrics.put(
                "failed_fraction",
                failed as f64 / attempted.max(1) as f64,
                "fraction",
            );
            // Traced against untraced repetitions of the same campaign.
            let split = |want: bool| {
                median(
                    &timings
                        .iter()
                        .zip(&rep_traced)
                        .filter_map(|(t, traced)| (*traced == want).then_some(t.seconds))
                        .collect::<Vec<_>>(),
                )
            };
            metrics.put(
                "tracing.overhead_pct",
                (split(true) / split(false) - 1.0) * 100.0,
                "%",
            );
            let spans = PathBuf::from(".perfbench")
                .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
            let written = tracer.write_jsonl(&spans)?;
            eprintln!("perfbench: {written} spans written to {}", spans.display());
        }
    }
    let broken = metrics.non_finite();
    if !broken.is_empty() {
        return Err(BenchError::Check(format!("non-finite metrics: {broken:?}")));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.render()
    ))
}
