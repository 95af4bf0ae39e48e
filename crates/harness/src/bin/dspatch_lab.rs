//! `dspatch-lab`: run any paper figure, a custom campaign spec file, or an
//! external trace file.
//!
//! Usage:
//!
//! ```text
//! dspatch-lab --figure fig12 [--scale smoke|quick|full] [--format table|json|csv]
//! dspatch-lab --spec my_campaign.json [--scale ...] [--format ...] [--threads N]
//! dspatch-lab --spec my_campaign.json --store DIR   # crash-safe; re-run to resume
//! dspatch-lab --trace-file foo.champsim.txt [--prefetchers spp,dspatch_plus_spp]
//! dspatch-lab --list        # figures, workloads and scale presets
//! dspatch-lab --template    # print an example spec file
//! ```
//!
//! Figures render their paper-shaped table; spec files render the raw
//! campaign rows. `--trace-file` replays an external trace (native `DSPT`
//! binary or ChampSim-style text, auto-detected from the magic bytes)
//! through the single-thread configuration under the baseline plus every
//! requested prefetcher — the file streams through the simulator with O(1)
//! memory, so multi-gigabyte traces are fine. `--out PATH` writes the
//! report to a file instead of stdout. `--scale` beats a spec file's
//! embedded `"scale"`; the default is `smoke`. `--threads` overrides the
//! worker count (presets default to the machine's available parallelism);
//! results never depend on it.
//!
//! `--sample warmup=N,interval=N,n=K[,seed=S]` switches `--figure`/`--spec`
//! runs to sampled simulation: each workload fast-forwards through a
//! functional warm-up (caches and predictor tables updated, timing
//! skipped), then measures only `n` seed-placed intervals of `interval`
//! accesses each, reporting mean ± 95% CI per row. Values take `k`/`m`/`g`
//! suffixes. One neutral warm-up checkpoint per (workload, config), an
//! in-memory copy of the warmed machine, is shared across all prefetcher
//! columns. Sampled scales are single-core-only (mixes are rejected as a
//! spec error).
//!
//! Each cell runs once; a cell that panics is quarantined and the campaign
//! completes without it. `--store DIR` opens the content-addressed result
//! store `dspatch-serve` uses (`DIR/results.jsonl`): cells already present
//! are served from it and every fresh result is appended and flushed as it
//! finishes, so identical cells never simulate twice across CLI runs or
//! service restarts. That is also how a killed campaign resumes: re-run the
//! same command with the same `--store DIR`, and only the missing cells
//! simulate; the output is bit-identical to an uninterrupted run. Exit
//! codes follow the `HarnessError` classes:
//! 0 success, 1 internal failure, 2 usage error, 3 invalid spec, 4 I/O
//! failure, 5 corrupt store record, 6 foreign store file (other magic or
//! format version), 7 campaign completed with quarantined cells.

// Failures on harness paths carry typed context; panicking helpers are
// forbidden outside tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use dspatch_harness::analytics::{self, ColumnarView, Query, QueryFormat};
use dspatch_harness::campaign::{run_campaign_with, ExecOptions};
use dspatch_harness::figures::FigureId;
use dspatch_harness::runner::{PrefetcherKind, RunScale};
use dspatch_harness::{CampaignSpec, HarnessError, ResultStore, Table};
use dspatch_sim::{SimulationBuilder, SystemConfig};
use dspatch_trace::io::open_trace_source;
use dspatch_trace::suite;

enum Format {
    Table,
    Json,
    Csv,
}

fn usage() -> ! {
    eprintln!(
        "usage: dspatch-lab (--figure NAME | --spec FILE.json | --trace-file FILE | --list | --template)\n\
         \x20                [--scale smoke|quick|full] [--format table|json|csv] [--store DIR]\n\
         \x20                [--threads N] [--prefetchers KIND[,KIND...]] [--out PATH]\n\
         \x20                [--sample warmup=N,interval=N,n=K[,seed=S]]\n\
         \x20      dspatch-lab query --store DIR [--where FIELD<OP>VALUE]... [--FIELD VALUE]...\n\
         \x20                [--group-by FIELDS] [--agg FN:METRIC | --trend METRIC] [--all-versions]\n\
         \x20                [--format table|json|csv] [--out PATH]\n\
         \x20      dspatch-lab store gc --store DIR [--keep-versions N]"
    );
    std::process::exit(2);
}

/// Usage-class failure (bad flag, unknown name, invalid combination):
/// exit 2, like `usage()`.
fn fail(message: &str) -> ! {
    eprintln!("dspatch-lab: {message}");
    std::process::exit(2);
}

/// Exits with the error's class-specific code (3 spec, 4 io, 5 corrupt,
/// 6 mismatch, 7 cell) so scripts can branch on the failure mode.
fn fail_typed(error: &HarnessError) -> ! {
    eprintln!("dspatch-lab: {error}");
    std::process::exit(error.class().exit_code());
}

fn main() {
    // Leading positional word = subcommand; everything else is the classic
    // flag-driven run interface.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("query") => return run_query(&argv[1..]),
        Some("store") => return run_store(&argv[1..]),
        _ => {}
    }
    let mut figure: Option<String> = None;
    let mut spec_path: Option<String> = None;
    let mut trace_file: Option<String> = None;
    let mut prefetchers: Option<String> = None;
    let mut scale_name: Option<String> = None;
    let mut format = Format::Table;
    let mut format_set = false;
    let mut threads: Option<usize> = None;
    let mut out: Option<String> = None;
    let mut store: Option<String> = None;
    let mut sample: Option<String> = None;
    let mut list = false;
    let mut template = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--figure" => figure = Some(value("--figure")),
            "--spec" => spec_path = Some(value("--spec")),
            "--trace-file" => trace_file = Some(value("--trace-file")),
            "--prefetchers" => prefetchers = Some(value("--prefetchers")),
            "--scale" => scale_name = Some(value("--scale")),
            "--format" => {
                format_set = true;
                format = match value("--format").as_str() {
                    "table" => Format::Table,
                    "json" => Format::Json,
                    "csv" => Format::Csv,
                    other => fail(&format!("unknown format '{other}' (table/json/csv)")),
                }
            }
            "--threads" => {
                threads = Some(
                    value("--threads")
                        .parse()
                        .unwrap_or_else(|_| fail("--threads must be an integer")),
                )
            }
            "--out" => out = Some(value("--out")),
            "--store" => store = Some(value("--store")),
            "--sample" => sample = Some(value("--sample")),
            "--list" => list = true,
            "--template" => template = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }

    let run_modes = usize::from(figure.is_some())
        + usize::from(spec_path.is_some())
        + usize::from(trace_file.is_some());
    // --list and --template produce their document through the same `out`
    // sink as the run modes, so `--template --out spec.json` works.
    if (list || template) && run_modes > 0 {
        fail("--list/--template cannot be combined with --figure/--spec/--trace-file");
    }
    if list && template {
        fail("--list and --template are mutually exclusive");
    }
    if run_modes > 1 {
        fail("--figure, --spec and --trace-file are mutually exclusive");
    }
    if prefetchers.is_some() && trace_file.is_none() {
        fail("--prefetchers only applies to --trace-file");
    }
    // Replay always runs the whole file once per prefetcher on one thread,
    // so silently accepting these flags would mislead.
    if trace_file.is_some() && (scale_name.is_some() || threads.is_some()) {
        fail("--scale/--threads do not apply to --trace-file (the whole trace replays once per prefetcher, single-core)");
    }
    if sample.is_some() && figure.is_none() && spec_path.is_none() {
        // A sampling plan without a run to sample would be silently
        // dropped; refuse (exit 2) like every other misplaced flag.
        fail("--sample only applies to --figure and --spec runs");
    }
    if store.is_some() && spec_path.is_none() {
        // Without a campaign the store would be silently ignored; refuse
        // instead (exit 2) so a typo'd invocation can't masquerade as a
        // store-backed run.
        fail("--store only applies to --spec campaigns");
    }
    // --list/--template ignore the report-shaping flags entirely; reject the
    // combination rather than silently dropping them (--out is meaningful:
    // `--template --out spec.json`).
    if (list || template)
        && (scale_name.is_some() || threads.is_some() || format_set || sample.is_some())
    {
        fail("--scale/--threads/--format/--sample do not apply to --list/--template");
    }
    // Exit code 7 when the campaign completed but quarantined cells; set in
    // the --spec branch, applied after the report is written so partial
    // results still land.
    let sampling = sample.as_deref().map(|spec| {
        dspatch_harness::SamplingPlan::parse(spec)
            .unwrap_or_else(|e| fail(&format!("--sample: {e}")))
    });
    let mut exit_code = 0;
    let report = if list {
        inventory()
    } else if template {
        CampaignSpec::template().to_json().render()
    } else if let Some(path) = &trace_file {
        let table = replay_trace_file(path, prefetchers.as_deref());
        match format {
            Format::Table => table.render(),
            Format::Json => table.to_json().render(),
            Format::Csv => table.to_csv(),
        }
    } else {
        match (&figure, &spec_path) {
            (None, None) => usage(),
            (Some(name), None) => {
                let id = FigureId::parse(name)
                    .unwrap_or_else(|| fail(&format!("unknown figure '{name}' (see --list)")));
                let scale =
                    resolve_scale(scale_name.as_deref(), None, threads).with_sampling(sampling);
                let table = id.run(&scale).unwrap_or_else(|error| fail_typed(&error));
                match format {
                    Format::Table => table.render(),
                    Format::Json => table.to_json().render(),
                    Format::Csv => table.to_csv(),
                }
            }
            (None, Some(path)) => {
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| fail_typed(&HarnessError::io(path, "read", &e)));
                let spec = CampaignSpec::parse(&text)
                    .unwrap_or_else(|e| fail_typed(&HarnessError::spec(format!("{path}: {e}"))));
                let scale = resolve_scale(scale_name.as_deref(), spec.scale.as_ref(), threads)
                    .with_sampling(sampling.or_else(|| {
                        // A spec file's embedded custom scale may carry its own
                        // sampling block; the flag wins when both are present.
                        spec.scale
                            .as_ref()
                            .and_then(|s| s.resolve().ok())
                            .and_then(|s| s.sampling)
                    }));
                let opts = ExecOptions {
                    store: store.as_ref().map(|dir| {
                        let result_store = ResultStore::open(std::path::Path::new(dir))
                            .unwrap_or_else(|error| fail_typed(&error));
                        std::sync::Arc::new(std::sync::Mutex::new(result_store))
                    }),
                    ..ExecOptions::default()
                };
                let result = run_campaign_with(&spec, &scale, &opts)
                    .unwrap_or_else(|error| fail_typed(&error));
                eprintln!(
                    "campaign '{}': {} rows from {} simulations ({} baselines, {} memo hits, {} from store), {} threads",
                    result.name,
                    result.rows.len(),
                    result.stats.sims_run,
                    result.stats.baseline_sims,
                    result.stats.memo_hits,
                    result.stats.store_hits,
                    result.stats.threads,
                );
                if scale.sampling.is_some() {
                    // The warm-up counter is the shared-checkpoint proof CI
                    // asserts on: N (workload, config) groups -> N warm-ups,
                    // however many prefetcher columns fork from each.
                    eprintln!(
                        "campaign '{}': sampled run, {} warm-up checkpoint(s) computed",
                        result.name, result.stats.warmups_run,
                    );
                }
                if !result.failures.is_empty() {
                    for failure in &result.failures {
                        eprintln!(
                            "dspatch-lab: quarantined cell ({} / {} / {}): {}",
                            failure.target, failure.prefetcher, failure.config, failure.error
                        );
                    }
                    eprintln!(
                        "dspatch-lab: campaign completed with {} quarantined cell(s)",
                        result.failures.len()
                    );
                    exit_code = 7;
                }
                match format {
                    Format::Table => result.to_table().render(),
                    Format::Json => result.to_json().render(),
                    Format::Csv => result.to_csv(),
                }
            }
            (Some(_), Some(_)) => unreachable!("mutual exclusion checked above"),
        }
    };

    match out {
        None => print!("{report}"),
        Some(path) => {
            std::fs::write(&path, report)
                .unwrap_or_else(|e| fail_typed(&HarnessError::io(path.as_str(), "write", &e)));
            eprintln!("wrote {path}");
        }
    }
    if exit_code != 0 {
        std::process::exit(exit_code);
    }
}

/// The `--list` inventory: figures, workloads and scale presets, so a typo
/// in `--figure fig12` or a spec file's workload name has somewhere to look.
fn inventory() -> String {
    let mut listing = String::from("Figures:\n");
    for id in FigureId::ALL {
        listing.push_str(&format!("  {:8} {}\n", id.name(), id.description()));
    }
    listing.push_str("\nWorkloads (by category; * = memory-intensive subset):\n");
    let workloads = suite();
    for category in dspatch_trace::WorkloadCategory::ALL {
        let names: Vec<String> = workloads
            .iter()
            .filter(|w| w.category == category)
            .map(|w| {
                if w.memory_intensive {
                    format!("{}*", w.name)
                } else {
                    w.name.clone()
                }
            })
            .collect();
        listing.push_str(&format!("  {:8} {}\n", category.label(), names.join(", ")));
    }
    listing.push_str("\nScale presets:\n");
    for name in ["smoke", "quick", "full"] {
        let scale = RunScale::preset(name)
            .unwrap_or_else(|| unreachable!("preset name '{name}' is fixed above"));
        let per_category = match scale.workloads_per_category {
            0 => "all workloads/category".to_owned(),
            n => format!("{n} workload(s)/category"),
        };
        let mixes = match scale.mixes {
            0 => "all mixes".to_owned(),
            n => format!("{n} mixes"),
        };
        listing.push_str(&format!(
            "  {:8} {} accesses/workload, {per_category}, {mixes}\n",
            name, scale.accesses_per_workload
        ));
    }
    listing.push_str("\nSampling (--sample warmup=N,interval=N,n=K[,seed=S]; k/m/g suffixes):\n");
    listing.push_str("  smoke    e.g. --sample warmup=400,interval=100,n=4\n");
    listing.push_str("  quick    e.g. --sample warmup=1k,interval=250,n=8\n");
    listing.push_str("  full     e.g. --sample warmup=8k,interval=1k,n=16\n");
    listing.push_str(
        "  checkpoints: one neutral warm-up per (workload, config), kept in memory \
         and shared across prefetcher columns\n",
    );
    listing.push_str("\nPrefetchers (for --prefetchers and spec files):\n  ");
    let kinds: Vec<&str> = PrefetcherKind::ALL.iter().map(|k| k.spec_name()).collect();
    listing.push_str(&kinds.join(", "));
    listing.push('\n');
    listing
}

/// Replays an external trace file under the baseline and every requested
/// prefetcher, streaming the file once per run via `TraceSource::fork`.
fn replay_trace_file(path: &str, prefetchers: Option<&str>) -> Table {
    let source = open_trace_source(std::path::Path::new(path))
        .unwrap_or_else(|e| fail_typed(&HarnessError::from(e)));
    let meta = source.meta();
    // An empty trace would replay nothing and report IPC 0 and a 1.0x
    // speedup on every row.
    if meta.accesses == 0 {
        fail_typed(&HarnessError::spec(format!(
            "{path}: trace holds no records"
        )));
    }
    let kinds: Vec<PrefetcherKind> = prefetchers
        .unwrap_or("dspatch_plus_spp")
        .split(',')
        .map(str::trim)
        .filter(|name| !name.is_empty())
        .map(|name| {
            PrefetcherKind::parse(name)
                .unwrap_or_else(|| fail(&format!("unknown prefetcher '{name}' (see --list)")))
        })
        .collect();
    if kinds.is_empty() {
        fail("--prefetchers needs at least one prefetcher name");
    }
    let config = SystemConfig::single_thread();
    let run = |kind: PrefetcherKind| {
        SimulationBuilder::new(config.clone())
            .with_core(source.fork(), kind.build_any())
            .run()
    };
    eprintln!(
        "replaying '{}' ({} accesses) under {} prefetcher(s) + baseline",
        meta.name,
        meta.accesses,
        kinds.len(),
    );
    let baseline = run(PrefetcherKind::Baseline);
    let mut table = Table::new(
        format!(
            "External trace replay: {} ({} accesses)",
            meta.name, meta.accesses
        ),
        vec![
            "Prefetcher".into(),
            "IPC".into(),
            "Speedup".into(),
            "Coverage".into(),
            "Accuracy".into(),
        ],
    );
    let mut add_row = |label: &str, result: &dspatch_sim::SimResult| {
        let accounting = result.total_accounting();
        table.add_row(vec![
            label.to_owned(),
            format!("{:.3}", result.cores[0].ipc()),
            format!("{:.4}x", result.speedup_over(&baseline)),
            format!("{:.1}%", accounting.coverage() * 100.0),
            format!("{:.1}%", accounting.accuracy() * 100.0),
        ]);
    };
    add_row(PrefetcherKind::Baseline.label(), &baseline);
    for kind in kinds {
        if kind == PrefetcherKind::Baseline {
            continue; // already the reference row
        }
        add_row(kind.label(), &run(kind));
    }
    table
}

/// `dspatch-lab query`: a typed analytics query against a result store.
///
/// Every shaping flag funnels into the same `(key, value)` parameter
/// grammar `GET /query` decodes, so the CLI and the service render
/// **byte-identical** documents for the same query. Misuse (unknown
/// field/metric/operator, missing `--store`) exits 2 like every other
/// usage error.
fn run_query(args: &[String]) {
    let mut store_dir: Option<String> = None;
    let mut format = QueryFormat::Table;
    let mut out: Option<String> = None;
    let mut params: Vec<(String, String)> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .cloned()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--store" => store_dir = Some(value("--store")),
            "--out" => out = Some(value("--out")),
            "--format" => {
                let name = value("--format");
                format = QueryFormat::parse(&name)
                    .unwrap_or_else(|| fail(&format!("unknown format '{name}' (table/json/csv)")));
            }
            "--where" => params.push(("where".to_owned(), value("--where"))),
            "--group-by" => params.push(("group_by".to_owned(), value("--group-by"))),
            "--agg" => params.push(("agg".to_owned(), value("--agg"))),
            "--trend" => params.push(("trend".to_owned(), value("--trend"))),
            "--all-versions" => params.push(("all_versions".to_owned(), "1".to_owned())),
            "--figure" | "--workload" | "--prefetcher" | "--config" | "--scale" | "--sampling"
            | "--code-version" | "--fingerprint" => {
                let key = arg.trim_start_matches("--").replace('-', "_");
                let filter = value(arg.as_str());
                params.push((key, filter));
            }
            other => fail(&format!("query: unknown argument '{other}'")),
        }
    }
    let dir = store_dir.unwrap_or_else(|| fail("query needs --store DIR"));
    // Grammar errors are usage errors: exit 2, not the spec-class 3.
    let query = Query::from_params(&params).unwrap_or_else(|error| fail(&error.to_string()));
    let store = ResultStore::open(std::path::Path::new(&dir)).unwrap_or_else(|e| fail_typed(&e));
    let output = ColumnarView::from_store(&store)
        .run(&query)
        .unwrap_or_else(|error| fail(&error.to_string()));
    let report = analytics::render(&output, format);
    match out {
        None => print!("{report}"),
        Some(path) => {
            std::fs::write(&path, report)
                .unwrap_or_else(|e| fail_typed(&HarnessError::io(path.as_str(), "write", &e)));
            eprintln!("wrote {path}");
        }
    }
}

/// `dspatch-lab store gc`: compacts a result store, keeping the newest
/// `--keep-versions` distinct code versions per cell identity. The rewrite
/// is crash-safe (temp file + rename) and byte-deterministic.
fn run_store(args: &[String]) {
    let rest = match args.split_first() {
        Some((word, rest)) if word == "gc" => rest,
        _ => fail("store: unknown subcommand (want: store gc --store DIR [--keep-versions N])"),
    };
    let mut store_dir: Option<String> = None;
    let mut keep_versions: usize = 1;
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .cloned()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--store" => store_dir = Some(value("--store")),
            "--keep-versions" => {
                keep_versions = value("--keep-versions")
                    .parse()
                    .unwrap_or_else(|_| fail("--keep-versions must be an integer"));
                if keep_versions == 0 {
                    fail("--keep-versions must be at least 1 (gc never drops every version)");
                }
            }
            other => fail(&format!("store gc: unknown argument '{other}'")),
        }
    }
    let dir = store_dir.unwrap_or_else(|| fail("store gc needs --store DIR"));
    let mut store =
        ResultStore::open(std::path::Path::new(&dir)).unwrap_or_else(|e| fail_typed(&e));
    let stats = store.gc(keep_versions).unwrap_or_else(|e| fail_typed(&e));
    eprintln!(
        "store gc: kept {} row(s), dropped {} superseded row(s) (keep-versions {keep_versions})",
        stats.kept, stats.dropped
    );
}

/// `--scale` wins, then a spec file's embedded scale, then smoke.
/// `--threads` overrides whichever was chosen. A `--scale` name that does
/// not resolve is a usage error (exit 2); an embedded scale that does not
/// is an invalid spec (exit 3).
fn resolve_scale(
    flag: Option<&str>,
    embedded: Option<&dspatch_harness::campaign::ScaleSpec>,
    threads: Option<usize>,
) -> RunScale {
    let mut scale = match (flag, embedded) {
        (Some(name), _) => RunScale::preset(name)
            .unwrap_or_else(|| fail(&format!("unknown scale '{name}' (smoke/quick/full)"))),
        (None, Some(spec)) => spec
            .resolve()
            .unwrap_or_else(|e| fail_typed(&HarnessError::spec(format!("scale: {e}")))),
        (None, None) => RunScale::smoke(),
    };
    if let Some(threads) = threads {
        scale = scale.with_threads(threads);
    }
    scale
}
