//! The declarative Campaign API: one experiment engine behind every figure.
//!
//! A campaign is a grid of [`CellSpec`]s — each a cross-product of targets
//! (workloads or multi-programmed mixes), prefetcher selections and a system
//! configuration — described by a JSON-serializable [`CampaignSpec`] and
//! executed by [`run_campaign_with`], the one way in ([`run_campaign`] is
//! its default-options shorthand). It validates the spec against the
//! workload suite, then runs four phases in order:
//!
//! 1. **plan** deduplicates the grid into jobs: each unique (target,
//!    prefetcher, config) triple simulates exactly once per campaign,
//!    however many cells request it. In particular the no-L2-prefetcher
//!    **baseline is memoized**, so a figure with K prefetcher columns runs
//!    each (workload, config) baseline once instead of K times;
//! 2. **warm** (sampled scales only) computes one neutral warm-up checkpoint,
//!    an in-memory copy of the warmed machine, per (target, config) group
//!    and shares it across the group's columns;
//! 3. **run** simulates every job the result store does not already hold,
//!    mix simulations first so they never strand at the tail of the queue;
//! 4. **assemble** returns a [`CampaignResult`] holding every [`SimResult`]
//!    plus one row per (cell, target, prefetcher), renderable as an ASCII
//!    table, JSON or CSV, and queryable by the figure-specific aggregations
//!    in [`crate::experiments`].
//!
//! Warm-up and run share one **self-scheduling worker pool**:
//! `RunScale::threads` scoped workers (presets default to
//! `std::thread::available_parallelism`) claim the next item from a shared
//! atomic cursor, and the first error stops further claims.
//!
//! Every `fig*`/`table*` function in [`crate::experiments`] is a thin spec
//! over this engine, and the `dspatch-lab` binary runs either a named figure
//! or a custom spec file (see `CampaignSpec::from_json`).
//!
//! The executor is **fault tolerant**: every cell simulation runs once,
//! under `catch_unwind`, and a cell that panics is **quarantined** as a
//! [`CellFailure`] carrying a typed [`crate::error::HarnessError::CellPanic`]
//! instead of sinking the whole campaign (cells are deterministic, so a
//! re-run would panic again). With [`ExecOptions::store`] set, each
//! completed cell is appended to the crash-safe, content-addressed result
//! store ([`crate::store`]); re-running a killed campaign against the same
//! store re-executes only the missing cells, producing bit-identical output
//! to an uninterrupted run.

use crate::error::HarnessError;
use crate::faults::FaultPlan;
use crate::json::Json;
use crate::report::{percent, Table};
use crate::results::ResultRow;
use crate::runner::{default_threads, PrefetcherKind, RunScale};
use crate::sampling::SamplingPlan;
use dspatch_prefetchers::{SmsConfig, SmsPrefetcher};
use dspatch_sim::{DramSpeedGrade, SimResult, SimulationBuilder, SystemConfig};
use dspatch_trace::workloads::{category_suite, memory_intensive_suite, suite, WorkloadCategory};
use dspatch_trace::{heterogeneous_mixes, homogeneous_mixes, WorkloadMix, WorkloadSpec};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Rejects unrecognized keys in a spec-file object so a misspelled override
/// (e.g. `"llcbytes"`) errors instead of silently running the defaults.
fn reject_unknown_keys(json: &Json, allowed: &[&str], context: &str) -> Result<(), String> {
    if let Some(entries) = json.as_obj() {
        for (key, _) in entries {
            if !allowed.contains(&key.as_str()) {
                return Err(format!(
                    "{context}: unknown key '{key}' (allowed: {})",
                    allowed.join(", ")
                ));
            }
        }
    }
    Ok(())
}

/// A prefetcher selection for one campaign column: either one of the named
/// paper configurations or a parameterized variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetcherSel {
    /// One of the paper's named prefetcher configurations.
    Kind(PrefetcherKind),
    /// SMS with a custom pattern-history-table size (the Figure 5 sweep).
    SmsPht(usize),
}

impl PrefetcherSel {
    /// Display label for tables and legends.
    pub fn label(&self) -> String {
        match self {
            PrefetcherSel::Kind(kind) => kind.label().to_owned(),
            PrefetcherSel::SmsPht(entries) => format!("SMS(pht={entries})"),
        }
    }

    /// Whether this selection is the no-L2-prefetcher baseline.
    pub fn is_baseline(&self) -> bool {
        matches!(self, PrefetcherSel::Kind(PrefetcherKind::Baseline))
    }

    /// Checks parameter bounds that would otherwise assert deep inside a
    /// prefetcher constructor (e.g. SMS requires a non-empty PHT).
    ///
    /// # Errors
    ///
    /// Returns a message naming the invalid parameter.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            PrefetcherSel::Kind(_) => Ok(()),
            PrefetcherSel::SmsPht(0) => {
                Err("sms_pht needs at least one pattern-history-table entry".to_owned())
            }
            PrefetcherSel::SmsPht(_) => Ok(()),
        }
    }

    /// Builds a fresh prefetcher instance as a statically dispatched
    /// [`dspatch_prefetchers::AnyPrefetcher`] — what every campaign
    /// simulation runs with.
    pub fn build_any(&self) -> dspatch_prefetchers::AnyPrefetcher {
        match self {
            PrefetcherSel::Kind(kind) => kind.build_any(),
            PrefetcherSel::SmsPht(entries) => {
                SmsPrefetcher::new(SmsConfig::with_pht_entries(*entries)).into()
            }
        }
    }

    /// JSON form: the kind's spec name as a string, or `{"sms_pht": N}`.
    pub fn to_json(&self) -> Json {
        match self {
            PrefetcherSel::Kind(kind) => Json::str(kind.spec_name()),
            PrefetcherSel::SmsPht(entries) => Json::obj([("sms_pht", Json::num(*entries as f64))]),
        }
    }

    /// Parses the JSON form accepted by spec files.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown prefetcher or malformed entry.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        if let Some(name) = json.as_str() {
            return PrefetcherKind::parse(name)
                .map(PrefetcherSel::Kind)
                .ok_or_else(|| format!("unknown prefetcher '{name}'"));
        }
        reject_unknown_keys(json, &["sms_pht"], "prefetcher selection")?;
        if let Some(entries) = json.get("sms_pht").and_then(Json::as_u64) {
            return Ok(PrefetcherSel::SmsPht(entries as usize));
        }
        Err(format!("malformed prefetcher selection: {json}"))
    }
}

impl From<PrefetcherKind> for PrefetcherSel {
    fn from(kind: PrefetcherKind) -> Self {
        PrefetcherSel::Kind(kind)
    }
}

/// The base system configuration a cell starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfigBase {
    /// [`SystemConfig::single_thread`]: 1 core, 2 MB LLC, 1× DDR4-2133.
    SingleThread,
    /// [`SystemConfig::multi_programmed`]: 4 cores, 8 MB LLC, 2× DDR4-2133.
    MultiProgrammed,
}

/// A declarative, hashable system-configuration variant: a base plus the
/// overrides the paper's figures use (DRAM geometry, LLC capacity). The
/// executor keys baseline memoization on this, so two cells asking for the
/// same variant share every simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConfigSpec {
    /// Base configuration.
    pub base: ConfigBase,
    /// Optional DRAM override as (channels, speed grade).
    pub dram: Option<(usize, DramSpeedGrade)>,
    /// Optional LLC capacity override in bytes.
    pub llc_bytes: Option<usize>,
}

impl ConfigSpec {
    /// The paper's single-thread configuration.
    pub fn single_thread() -> Self {
        Self {
            base: ConfigBase::SingleThread,
            dram: None,
            llc_bytes: None,
        }
    }

    /// The paper's 4-core multi-programmed configuration.
    pub fn multi_programmed() -> Self {
        Self {
            base: ConfigBase::MultiProgrammed,
            dram: None,
            llc_bytes: None,
        }
    }

    /// Overrides the DRAM geometry.
    pub fn with_dram(mut self, channels: usize, speed: DramSpeedGrade) -> Self {
        self.dram = Some((channels, speed));
        self
    }

    /// Overrides the LLC capacity.
    pub fn with_llc_bytes(mut self, bytes: usize) -> Self {
        self.llc_bytes = Some(bytes);
        self
    }

    /// Builds the concrete [`SystemConfig`].
    pub fn build(&self) -> SystemConfig {
        let mut config = match self.base {
            ConfigBase::SingleThread => SystemConfig::single_thread(),
            ConfigBase::MultiProgrammed => SystemConfig::multi_programmed(),
        };
        if let Some((channels, speed)) = self.dram {
            config = config.with_dram(channels, speed);
        }
        if let Some(bytes) = self.llc_bytes {
            config = config.with_llc_capacity(bytes);
        }
        config
    }

    /// Short label such as "1T" or "4P/2ch-2400/llc=4MiB".
    pub fn label(&self) -> String {
        let mut label = match self.base {
            ConfigBase::SingleThread => "1T".to_owned(),
            ConfigBase::MultiProgrammed => "4P".to_owned(),
        };
        if let Some((channels, speed)) = self.dram {
            label.push_str(&format!("/{}ch-{}", channels, speed.label()));
        }
        if let Some(bytes) = self.llc_bytes {
            label.push_str(&format!("/llc={}MiB", bytes >> 20));
        }
        label
    }

    /// JSON form, e.g. `{"base": "single_thread", "dram": {...}}`.
    pub fn to_json(&self) -> Json {
        let mut entries = vec![(
            "base".to_owned(),
            Json::str(match self.base {
                ConfigBase::SingleThread => "single_thread",
                ConfigBase::MultiProgrammed => "multi_programmed",
            }),
        )];
        if let Some((channels, speed)) = self.dram {
            entries.push((
                "dram".to_owned(),
                Json::obj([
                    ("channels", Json::num(channels as f64)),
                    ("speed", Json::str(speed.label())),
                ]),
            ));
        }
        if let Some(bytes) = self.llc_bytes {
            entries.push(("llc_bytes".to_owned(), Json::num(bytes as f64)));
        }
        Json::Obj(entries)
    }

    /// Parses the JSON form.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed field.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        // Every field is optional, so a non-object would otherwise silently
        // become the default config.
        if json.as_obj().is_none() {
            return Err(format!("config must be an object, got {json}"));
        }
        reject_unknown_keys(json, &["base", "dram", "llc_bytes"], "config")?;
        let base = match json.get("base") {
            None => ConfigBase::SingleThread,
            Some(base) => match base.as_str() {
                Some("single_thread") => ConfigBase::SingleThread,
                Some("multi_programmed") => ConfigBase::MultiProgrammed,
                Some(other) => return Err(format!("unknown config base '{other}'")),
                None => return Err(format!("config 'base' must be a string, got {base}")),
            },
        };
        let dram = match json.get("dram") {
            None | Some(Json::Null) => None,
            Some(dram) => {
                reject_unknown_keys(dram, &["channels", "speed"], "dram override")?;
                let channels = dram
                    .get("channels")
                    .and_then(Json::as_u64)
                    .ok_or("dram override needs integer 'channels'")?
                    as usize;
                let speed_label = dram
                    .get("speed")
                    .and_then(Json::as_str)
                    .ok_or("dram override needs 'speed'")?;
                Some((channels, parse_speed(speed_label)?))
            }
        };
        let llc_bytes = match json.get("llc_bytes") {
            None | Some(Json::Null) => None,
            Some(bytes) => Some(
                bytes
                    .as_u64()
                    .ok_or("'llc_bytes' must be a non-negative integer")? as usize,
            ),
        };
        Ok(Self {
            base,
            dram,
            llc_bytes,
        })
    }
}

fn parse_speed(label: &str) -> Result<DramSpeedGrade, String> {
    DramSpeedGrade::ALL
        .into_iter()
        .find(|grade| grade.label() == label)
        .ok_or_else(|| format!("unknown DRAM speed grade '{label}' (use 1600/2133/2400)"))
}

fn parse_category(label: &str) -> Result<WorkloadCategory, String> {
    WorkloadCategory::ALL
        .into_iter()
        .find(|category| category.label().eq_ignore_ascii_case(label))
        .ok_or_else(|| format!("unknown workload category '{label}'"))
}

/// Selects the targets (workloads or mixes) of one cell. Group selectors
/// honour the [`RunScale`] caps; explicit name lists do not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TargetSelector {
    /// Explicit workloads by suite name (no scale cap applied).
    Workloads(Vec<String>),
    /// Every workload of one category, capped by the scale.
    Category(WorkloadCategory),
    /// The full 75-workload suite, capped per category by the scale.
    Suite,
    /// The 42-workload memory-intensive subset, capped by the scale.
    MemoryIntensive,
    /// The homogeneous 4-copies-per-workload mixes, capped by the scale.
    HomogeneousMixes {
        /// Cores (copies) per mix.
        cores: usize,
    },
    /// Seed-deterministic random heterogeneous mixes, capped by the scale.
    HeterogeneousMixes {
        /// Mixes generated before the scale cap.
        count: usize,
        /// Cores per mix.
        cores: usize,
        /// Draw seed. Spec files carry it as a JSON number up to 2^53 and
        /// as a decimal string above that, so every value round-trips
        /// exactly.
        seed: u64,
    },
}

impl TargetSelector {
    /// Resolves the selector into concrete targets under `scale`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unknown workload.
    pub fn resolve(&self, scale: &RunScale) -> Result<Vec<Target>, String> {
        let workloads = |all: Vec<WorkloadSpec>| {
            scale
                .select_workloads(all)
                .into_iter()
                .map(Target::Workload)
                .collect::<Vec<_>>()
        };
        Ok(match self {
            TargetSelector::Workloads(names) => {
                // A repeated name would double-weight that workload in
                // every aggregation, so duplicates are rejected like
                // duplicate prefetchers and cell labels.
                let mut seen = std::collections::HashSet::new();
                for name in names {
                    if !seen.insert(name.as_str()) {
                        return Err(format!("duplicate workload '{name}' in target list"));
                    }
                }
                let pool = suite();
                names
                    .iter()
                    .map(|name| {
                        pool.iter()
                            .find(|w| &w.name == name)
                            .cloned()
                            .map(Target::Workload)
                            .ok_or_else(|| format!("unknown workload '{name}'"))
                    })
                    .collect::<Result<Vec<_>, _>>()?
            }
            TargetSelector::Category(category) => workloads(category_suite(*category)),
            TargetSelector::Suite => workloads(suite()),
            TargetSelector::MemoryIntensive => workloads(memory_intensive_suite()),
            TargetSelector::HomogeneousMixes { cores } => scale
                .select_mixes(homogeneous_mixes(*cores))
                .into_iter()
                .map(Target::Mix)
                .collect(),
            TargetSelector::HeterogeneousMixes { count, cores, seed } => scale
                .select_mixes(heterogeneous_mixes(*count, *cores, *seed))
                .into_iter()
                .map(Target::Mix)
                .collect(),
        })
    }

    /// JSON form (see the README's spec-file documentation).
    pub fn to_json(&self) -> Json {
        match self {
            TargetSelector::Workloads(names) => {
                Json::obj([("workloads", Json::arr(names.iter().map(Json::str)))])
            }
            TargetSelector::Category(category) => {
                Json::obj([("category", Json::str(category.label()))])
            }
            TargetSelector::Suite => Json::str("suite"),
            TargetSelector::MemoryIntensive => Json::str("memory_intensive"),
            TargetSelector::HomogeneousMixes { cores } => Json::obj([(
                "homogeneous_mixes",
                Json::obj([("cores", Json::num(*cores as f64))]),
            )]),
            TargetSelector::HeterogeneousMixes { count, cores, seed } => {
                // Seeds above 2^53 are not exact as JSON doubles, so they
                // serialize as decimal strings (the parser accepts both).
                let seed_json = if *seed < (1u64 << 53) {
                    Json::num(*seed as f64)
                } else {
                    Json::str(seed.to_string())
                };
                Json::obj([(
                    "heterogeneous_mixes",
                    Json::obj([
                        ("count", Json::num(*count as f64)),
                        ("cores", Json::num(*cores as f64)),
                        ("seed", seed_json),
                    ]),
                )])
            }
        }
    }

    /// Parses the JSON form.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed selector.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        if let Some(name) = json.as_str() {
            return match name {
                "suite" => Ok(TargetSelector::Suite),
                "memory_intensive" => Ok(TargetSelector::MemoryIntensive),
                other => Err(format!(
                    "unknown target selector '{other}' (use \"suite\" or \"memory_intensive\")"
                )),
            };
        }
        reject_unknown_keys(
            json,
            &[
                "workloads",
                "category",
                "homogeneous_mixes",
                "heterogeneous_mixes",
            ],
            "target selector",
        )?;
        if json.as_obj().is_some_and(|entries| entries.len() != 1) {
            return Err(format!(
                "target selector must have exactly one key, got {json}"
            ));
        }
        if let Some(names) = json.get("workloads").and_then(Json::as_arr) {
            let names = names
                .iter()
                .map(|n| {
                    n.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| format!("workload names must be strings, got {n}"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            return Ok(TargetSelector::Workloads(names));
        }
        if let Some(label) = json.get("category").and_then(Json::as_str) {
            return Ok(TargetSelector::Category(parse_category(label)?));
        }
        if let Some(homogeneous) = json.get("homogeneous_mixes") {
            reject_unknown_keys(homogeneous, &["cores"], "homogeneous_mixes")?;
            let cores = homogeneous
                .get("cores")
                .and_then(Json::as_u64)
                .ok_or("homogeneous_mixes needs integer 'cores'")? as usize;
            return Ok(TargetSelector::HomogeneousMixes { cores });
        }
        if let Some(heterogeneous) = json.get("heterogeneous_mixes") {
            reject_unknown_keys(
                heterogeneous,
                &["count", "cores", "seed"],
                "heterogeneous_mixes",
            )?;
            let count = heterogeneous
                .get("count")
                .and_then(Json::as_u64)
                .ok_or("heterogeneous_mixes needs integer 'count'")?
                as usize;
            let cores = heterogeneous
                .get("cores")
                .and_then(Json::as_u64)
                .ok_or("heterogeneous_mixes needs integer 'cores'")?
                as usize;
            let seed = match heterogeneous.get("seed") {
                None => 0xD5,
                // Number form is exact up to 2^53; larger seeds arrive as
                // decimal strings (matching what to_json emits).
                Some(seed) => match seed.as_str() {
                    Some(text) => text.parse::<u64>().map_err(|_| {
                        format!("heterogeneous_mixes 'seed' string is not a u64: '{text}'")
                    })?,
                    None => seed.as_u64().ok_or(
                        "heterogeneous_mixes 'seed' must be a non-negative integer or a decimal string",
                    )?,
                },
            };
            return Ok(TargetSelector::HeterogeneousMixes { count, cores, seed });
        }
        Err(format!("malformed target selector: {json}"))
    }
}

/// One cell of the campaign grid: targets × prefetchers under one config.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Cell label, used as the first table column (e.g. a category name).
    pub label: String,
    /// Target selection.
    pub targets: TargetSelector,
    /// Prefetcher columns.
    pub prefetchers: Vec<PrefetcherSel>,
    /// System configuration variant.
    pub config: ConfigSpec,
    /// Whether to simulate the no-L2-prefetcher baseline for each target
    /// (memoized per (target, config)) so rows carry speedups. Cells that
    /// only need raw statistics (coverage, pollution) turn this off.
    pub baseline: bool,
}

impl CellSpec {
    /// JSON form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::str(&self.label)),
            ("targets", self.targets.to_json()),
            (
                "prefetchers",
                Json::arr(self.prefetchers.iter().map(PrefetcherSel::to_json)),
            ),
            ("config", self.config.to_json()),
            ("baseline", Json::Bool(self.baseline)),
        ])
    }

    /// Parses the JSON form.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed field.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        reject_unknown_keys(
            json,
            &["label", "targets", "prefetchers", "config", "baseline"],
            "cell",
        )?;
        // Labels are mandatory: report rows are grouped by them, so two
        // silently-defaulted labels would merge unrelated cells.
        let label = json
            .get("label")
            .and_then(Json::as_str)
            .ok_or("cell needs a string 'label'")?
            .to_owned();
        let targets = TargetSelector::from_json(
            json.get("targets")
                .ok_or("cell needs a 'targets' selector")?,
        )?;
        let prefetchers = json
            .get("prefetchers")
            .and_then(Json::as_arr)
            .ok_or("cell needs a 'prefetchers' array")?
            .iter()
            .map(PrefetcherSel::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let config = match json.get("config") {
            None | Some(Json::Null) => ConfigSpec::single_thread(),
            Some(config) => ConfigSpec::from_json(config)?,
        };
        let baseline = match json.get("baseline") {
            None => true,
            Some(baseline) => baseline
                .as_bool()
                .ok_or("cell 'baseline' must be a boolean")?,
        };
        Ok(Self {
            label,
            targets,
            prefetchers,
            config,
            baseline,
        })
    }
}

/// The run scale carried by a spec file: a named preset or explicit knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScaleSpec {
    /// One of "smoke", "quick" or "full".
    Preset(String),
    /// Explicit knobs; `threads: None` means `available_parallelism`.
    Custom {
        /// Memory accesses per workload.
        accesses_per_workload: usize,
        /// Per-category workload cap (0 = all).
        workloads_per_category: usize,
        /// Mix cap (0 = all).
        mixes: usize,
        /// Worker threads; `None` defaults to the machine's parallelism.
        threads: Option<usize>,
        /// Must be 0: every multi-core simulation runs single-threaded on
        /// the exact [`dspatch_sim::Machine`]. Kept only so callers that
        /// name the field still compile; spec files may not carry it, and
        /// [`ScaleSpec::resolve`] rejects any other value.
        sim_workers: usize,
        /// Interval-sampling plan (`None` = exact simulation).
        sampling: Option<SamplingPlan>,
    },
}

impl ScaleSpec {
    /// Resolves into a concrete [`RunScale`].
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown preset name, a zero
    /// `accesses_per_workload` or a non-zero `sim_workers`.
    pub fn resolve(&self) -> Result<RunScale, String> {
        match self {
            ScaleSpec::Preset(name) => RunScale::preset(name)
                .ok_or_else(|| format!("unknown scale preset '{name}' (smoke/quick/full)")),
            // Zero accesses would simulate nothing and report IPC 0 and a
            // 1.0x speedup on every row.
            ScaleSpec::Custom {
                accesses_per_workload: 0,
                ..
            } => Err("custom scale 'accesses_per_workload' must be at least 1".to_owned()),
            ScaleSpec::Custom { sim_workers, .. } if *sim_workers != 0 => Err(format!(
                "custom scale 'sim_workers' must be 0 (got {sim_workers}): multi-core \
                 simulations run single-threaded on the exact machine"
            )),
            ScaleSpec::Custom {
                accesses_per_workload,
                workloads_per_category,
                mixes,
                threads,
                sampling,
                ..
            } => Ok(RunScale {
                accesses_per_workload: *accesses_per_workload,
                workloads_per_category: *workloads_per_category,
                mixes: *mixes,
                threads: threads.unwrap_or_else(default_threads).max(1),
                sampling: *sampling,
            }),
        }
    }

    /// JSON form: a preset string or an object of knobs.
    pub fn to_json(&self) -> Json {
        match self {
            ScaleSpec::Preset(name) => Json::str(name),
            ScaleSpec::Custom {
                accesses_per_workload,
                workloads_per_category,
                mixes,
                threads,
                sampling,
                ..
            } => {
                let mut entries = vec![
                    (
                        "accesses_per_workload".to_owned(),
                        Json::num(*accesses_per_workload as f64),
                    ),
                    (
                        "workloads_per_category".to_owned(),
                        Json::num(*workloads_per_category as f64),
                    ),
                    ("mixes".to_owned(), Json::num(*mixes as f64)),
                ];
                if let Some(threads) = threads {
                    entries.push(("threads".to_owned(), Json::num(*threads as f64)));
                }
                if let Some(plan) = sampling {
                    entries.push((
                        "sampling".to_owned(),
                        Json::Obj(vec![
                            ("warmup".to_owned(), Json::num(plan.warmup_accesses as f64)),
                            (
                                "interval".to_owned(),
                                Json::num(plan.interval_accesses as f64),
                            ),
                            ("n".to_owned(), Json::num(f64::from(plan.intervals))),
                            ("seed".to_owned(), Json::num(plan.seed as f64)),
                        ]),
                    ));
                }
                Json::Obj(entries)
            }
        }
    }

    /// Parses the JSON form.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed field.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        if let Some(name) = json.as_str() {
            return Ok(ScaleSpec::Preset(name.to_owned()));
        }
        reject_unknown_keys(
            json,
            &[
                "accesses_per_workload",
                "workloads_per_category",
                "mixes",
                "threads",
                "sampling",
            ],
            "custom scale",
        )?;
        let field = |key: &str| {
            json.get(key)
                .and_then(Json::as_u64)
                .map(|v| v as usize)
                .ok_or_else(|| format!("custom scale needs integer '{key}'"))
        };
        Ok(ScaleSpec::Custom {
            accesses_per_workload: field("accesses_per_workload")?,
            workloads_per_category: field("workloads_per_category")?,
            mixes: field("mixes")?,
            threads: match json.get("threads") {
                None | Some(Json::Null) => None,
                Some(threads) => Some(
                    threads
                        .as_u64()
                        .ok_or("custom scale 'threads' must be a non-negative integer")?
                        as usize,
                ),
            },
            sim_workers: 0,
            sampling: match json.get("sampling") {
                None | Some(Json::Null) => None,
                Some(plan) => Some(sampling_plan_from_json(plan)?),
            },
        })
    }
}

/// Parses the nested `sampling` object of a custom scale.
fn sampling_plan_from_json(json: &Json) -> Result<SamplingPlan, String> {
    reject_unknown_keys(json, &["warmup", "interval", "n", "seed"], "sampling")?;
    let field = |key: &str| {
        json.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("sampling needs integer '{key}'"))
    };
    let plan = SamplingPlan {
        warmup_accesses: field("warmup")?,
        interval_accesses: field("interval")?,
        intervals: u32::try_from(field("n")?).map_err(|_| "sampling 'n' is too large")?,
        seed: match json.get("seed") {
            None | Some(Json::Null) => 0,
            Some(seed) => seed
                .as_u64()
                .ok_or("sampling 'seed' must be a non-negative integer")?,
        },
    };
    plan.validate().map_err(|e| e.to_string())?;
    Ok(plan)
}

/// A complete campaign description, loadable from a JSON spec file.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name, used as the report title.
    pub name: String,
    /// Optional embedded scale (the CLI's `--scale` flag overrides it).
    pub scale: Option<ScaleSpec>,
    /// The grid cells.
    pub cells: Vec<CellSpec>,
}

impl CampaignSpec {
    /// A single-cell campaign, the common case for programmatic use.
    pub fn single_cell(name: impl Into<String>, cell: CellSpec) -> Self {
        Self {
            name: name.into(),
            scale: None,
            cells: vec![cell],
        }
    }

    /// JSON form (the spec-file format).
    pub fn to_json(&self) -> Json {
        let mut entries = vec![("name".to_owned(), Json::str(&self.name))];
        if let Some(scale) = &self.scale {
            entries.push(("scale".to_owned(), scale.to_json()));
        }
        entries.push((
            "cells".to_owned(),
            Json::arr(self.cells.iter().map(CellSpec::to_json)),
        ));
        Json::Obj(entries)
    }

    /// Parses a spec document.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed field.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        reject_unknown_keys(json, &["name", "scale", "cells"], "campaign spec")?;
        let name = json
            .get("name")
            .map(|name| {
                name.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| format!("campaign 'name' must be a string, got {name}"))
            })
            .transpose()?
            .unwrap_or_else(|| "campaign".to_owned());
        let scale = match json.get("scale") {
            None | Some(Json::Null) => None,
            Some(scale) => Some(ScaleSpec::from_json(scale)?),
        };
        let cells = json
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or("campaign spec needs a 'cells' array")?;
        // An empty grid would run nothing and print an empty result.
        if cells.is_empty() {
            return Err("campaign spec needs at least one cell".to_owned());
        }
        let cells = cells
            .iter()
            .map(CellSpec::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { name, scale, cells })
    }

    /// Parses a spec file's text.
    ///
    /// # Errors
    ///
    /// Returns the JSON syntax error or the first malformed field.
    pub fn parse(text: &str) -> Result<Self, String> {
        Self::from_json(&Json::parse(text)?)
    }

    /// An example spec exercising every selector family, used by the README
    /// and `dspatch-lab --template`.
    pub fn template() -> Self {
        Self {
            name: "example campaign".to_owned(),
            scale: Some(ScaleSpec::Preset("smoke".to_owned())),
            cells: vec![
                CellSpec {
                    label: "cloud single-thread".to_owned(),
                    targets: TargetSelector::Category(WorkloadCategory::Cloud),
                    prefetchers: vec![
                        PrefetcherSel::Kind(PrefetcherKind::Spp),
                        PrefetcherSel::Kind(PrefetcherKind::DspatchPlusSpp),
                        PrefetcherSel::SmsPht(1024),
                    ],
                    config: ConfigSpec::single_thread(),
                    baseline: true,
                },
                CellSpec {
                    label: "mixes low-bandwidth".to_owned(),
                    targets: TargetSelector::HomogeneousMixes { cores: 4 },
                    prefetchers: vec![PrefetcherSel::Kind(PrefetcherKind::DspatchPlusSpp)],
                    config: ConfigSpec::multi_programmed().with_dram(1, DramSpeedGrade::Ddr4_1600),
                    baseline: true,
                },
            ],
        }
    }
}

/// A concrete simulation target.
#[derive(Debug, Clone, PartialEq)]
pub enum Target {
    /// One single-core workload.
    Workload(WorkloadSpec),
    /// One multi-programmed mix (one workload per core).
    Mix(WorkloadMix),
}

impl Target {
    /// Display name.
    pub fn name(&self) -> &str {
        match self {
            Target::Workload(workload) => &workload.name,
            Target::Mix(mix) => &mix.name,
        }
    }

    /// Simulated cores.
    pub fn cores(&self) -> usize {
        match self {
            Target::Workload(_) => 1,
            Target::Mix(mix) => mix.cores(),
        }
    }

    /// Memoization identity. The full `WorkloadSpec` (generator included)
    /// participates so two targets that share a name and seed but differ in
    /// generator parameters never alias to one simulation. Also the target
    /// component of the durable store's [`crate::store::cell_fingerprint`].
    pub fn key(&self) -> String {
        let workload_key = |w: &WorkloadSpec| format!("{}:{:x}:{:?}", w.name, w.seed, w.generator);
        match self {
            Target::Workload(workload) => format!("w:{}", workload_key(workload)),
            Target::Mix(mix) => {
                let cores: Vec<String> = mix.workloads.iter().map(workload_key).collect();
                format!("m:{}:{}", mix.name, cores.join("+"))
            }
        }
    }
}

/// A cell [`resolve_cells`] validated: concrete targets, ready for the
/// executor.
#[derive(Debug, Clone)]
struct ResolvedCell {
    label: String,
    targets: Vec<Target>,
    prefetchers: Vec<PrefetcherSel>,
    config: SystemConfig,
    /// Config label shown in reports.
    config_label: String,
    /// Whether to simulate (memoized) baselines for speedup rows.
    baseline: bool,
}

/// Executor accounting, the observable proof of memoization.
///
/// Only the spec-deterministic fields (`sims_run`, `baseline_sims`,
/// `memo_hits`, `threads`) appear in [`CampaignResult::to_json`]; the
/// robustness counters below them describe *how* this particular run went
/// (store hits, quarantines, warm-ups) and are deliberately excluded so a
/// resumed or store-served campaign renders bit-identically to an
/// uninterrupted, cold-cache one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Deduplicated simulations with a result (fresh or store-served).
    pub sims_run: usize,
    /// How many of those were no-L2-prefetcher baselines.
    pub baseline_sims: usize,
    /// Requests served from the memo table instead of a fresh simulation
    /// (baseline and candidate alike).
    pub memo_hits: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Simulations served from the content-addressed [`crate::store`]
    /// instead of re-executing (cross-campaign, cross-process memoization).
    pub store_hits: usize,
    /// Cells quarantined because their simulation panicked.
    pub quarantined: usize,
    /// Warm-up checkpoints computed by this campaign (sampled scales only),
    /// one per (target, config) group the store did not serve: the counter
    /// proves one warm-up is shared across all prefetcher columns of a
    /// group, not recomputed per column.
    pub warmups_run: usize,
}

/// One output row: a (cell, target, prefetcher) observation.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRow {
    /// Cell label.
    pub cell: String,
    /// Target (workload or mix) name.
    pub target: String,
    /// Config label.
    pub config: String,
    /// Prefetcher label ([`PrefetcherSel::label`] of the column selection).
    pub prefetcher: String,
    /// Index of the candidate simulation in [`CampaignResult::sims`].
    pub sim: usize,
    /// Index of the memoized baseline simulation, if the cell requested one.
    pub baseline: Option<usize>,
}

/// One quarantined grid point: the cell's simulation panicked and the
/// campaign completed without it.
#[derive(Debug, Clone, PartialEq)]
pub struct CellFailure {
    /// The executor's job key.
    pub key: String,
    /// Target (workload or mix) name.
    pub target: String,
    /// Prefetcher label.
    pub prefetcher: String,
    /// Config label.
    pub config: String,
    /// The classified failure, a [`HarnessError::CellPanic`].
    pub error: HarnessError,
}

/// Everything a campaign produced: deduplicated simulation results, one row
/// per grid point, and executor statistics.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Campaign name (report title).
    pub name: String,
    /// One row per (cell, target, prefetcher), in spec order. Rows whose
    /// candidate simulation was quarantined are absent (see `failures`);
    /// rows that only lost their baseline stay, with `baseline: None`.
    pub rows: Vec<CampaignRow>,
    /// Deduplicated simulation results the rows index into.
    pub sims: Vec<SimResult>,
    /// Executor accounting.
    pub stats: ExecStats,
    /// Quarantined cells, in job-discovery order. Empty on a clean run.
    pub failures: Vec<CellFailure>,
}

impl CampaignResult {
    /// The candidate simulation behind a row.
    pub fn sim_of(&self, row: &CampaignRow) -> &SimResult {
        &self.sims[row.sim]
    }

    /// The memoized baseline simulation behind a row, if any.
    pub fn baseline_of(&self, row: &CampaignRow) -> Option<&SimResult> {
        row.baseline.map(|i| &self.sims[i])
    }

    /// Speedup of a row's candidate over its baseline.
    pub fn speedup(&self, row: &CampaignRow) -> Option<f64> {
        self.baseline_of(row)
            .map(|baseline| self.sim_of(row).speedup_over(baseline))
    }

    /// Rows of one cell, in target-major spec order.
    pub fn rows_for_cell<'a>(
        &'a self,
        cell: &'a str,
    ) -> impl Iterator<Item = &'a CampaignRow> + 'a {
        self.rows.iter().filter(move |row| row.cell == cell)
    }

    /// Per-target speedups of one (cell, prefetcher label) column, in target
    /// order. Rows without a baseline are skipped.
    pub fn speedups(&self, cell: &str, prefetcher: &str) -> Vec<f64> {
        self.rows_for_cell(cell)
            .filter(|row| row.prefetcher == prefetcher)
            .filter_map(|row| self.speedup(row))
            .collect()
    }

    /// Mean per-core IPC of a row's candidate simulation (the single IPC
    /// aggregation both report renderers use).
    pub fn row_ipc(&self, row: &CampaignRow) -> f64 {
        crate::results::mean_ipc(self.sim_of(row))
    }

    /// Renders every row as an aligned ASCII table.
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(
            self.name.clone(),
            vec![
                "Cell".into(),
                "Target".into(),
                "Config".into(),
                "Prefetcher".into(),
                "IPC".into(),
                "Speedup".into(),
                "Delta".into(),
            ],
        );
        for row in &self.rows {
            let ipc = self.row_ipc(row);
            let (speedup, delta) = match self.speedup(row) {
                Some(speedup) => (format!("{speedup:.4}x"), percent(speedup - 1.0)),
                None => ("-".to_owned(), "-".to_owned()),
            };
            table.add_row(vec![
                row.cell.clone(),
                row.target.clone(),
                row.config.clone(),
                row.prefetcher.clone(),
                format!("{ipc:.3}"),
                speedup,
                delta,
            ]);
        }
        table
    }

    /// Renders the result as a JSON document (one emitter: [`crate::json`]).
    pub fn to_json(&self) -> Json {
        let rows = self.rows.iter().map(|row| {
            let ipc = self.row_ipc(row);
            let mut entries = vec![
                ("cell".to_owned(), Json::str(&row.cell)),
                ("target".to_owned(), Json::str(&row.target)),
                ("config".to_owned(), Json::str(&row.config)),
                ("prefetcher".to_owned(), Json::str(&row.prefetcher)),
                ("ipc".to_owned(), Json::num(round6(ipc))),
            ];
            match self.speedup(row) {
                Some(speedup) => {
                    entries.push(("speedup".to_owned(), Json::num(round6(speedup))));
                    entries.push(("delta".to_owned(), Json::num(round6(speedup - 1.0))));
                }
                None => {
                    entries.push(("speedup".to_owned(), Json::Null));
                    entries.push(("delta".to_owned(), Json::Null));
                }
            }
            // Sampled rows carry their confidence intervals; exact rows
            // keep the historical byte layout (no key at all).
            if let Some(stats) = &self.sim_of(row).sampling {
                entries.push((
                    "sampling".to_owned(),
                    Json::obj([
                        ("ipc", Json::num(round6(stats.ipc.mean))),
                        ("ipc_ci95", Json::num(round6(stats.ipc.ci95))),
                        ("coverage", Json::num(round6(stats.coverage.mean))),
                        ("coverage_ci95", Json::num(round6(stats.coverage.ci95))),
                        ("accuracy", Json::num(round6(stats.accuracy.mean))),
                        ("accuracy_ci95", Json::num(round6(stats.accuracy.ci95))),
                        ("intervals", Json::num(f64::from(stats.intervals))),
                    ]),
                ));
            }
            Json::Obj(entries)
        });
        let mut document = vec![
            ("campaign".to_owned(), Json::str(&self.name)),
            (
                "stats".to_owned(),
                Json::obj([
                    ("sims_run", Json::num(self.stats.sims_run as f64)),
                    ("baseline_sims", Json::num(self.stats.baseline_sims as f64)),
                    ("memo_hits", Json::num(self.stats.memo_hits as f64)),
                    ("threads", Json::num(self.stats.threads as f64)),
                ]),
            ),
            ("rows".to_owned(), Json::Arr(rows.collect())),
        ];
        // Only present when something was quarantined, so the clean-run
        // document (and with it resumed-vs-uninterrupted parity) is
        // unchanged.
        if !self.failures.is_empty() {
            let failures = self.failures.iter().map(|failure| {
                Json::obj([
                    ("target", Json::str(&failure.target)),
                    ("prefetcher", Json::str(&failure.prefetcher)),
                    ("config", Json::str(&failure.config)),
                    ("error", failure.error.to_json()),
                ])
            });
            document.push(("failures".to_owned(), Json::Arr(failures.collect())));
        }
        Json::Obj(document)
    }

    /// Renders the rows as CSV with **raw numeric values** (six decimals,
    /// like the JSON form) rather than the display strings of
    /// [`CampaignResult::to_table`], so the file loads as numbers in
    /// spreadsheet/pandas pipelines. Baseline-less rows leave the speedup
    /// and delta fields empty.
    pub fn to_csv(&self) -> String {
        // CI columns appear only when at least one row is sampled, so
        // exact-run CSVs keep their historical column set byte-for-byte.
        let sampled = self
            .rows
            .iter()
            .any(|row| self.sim_of(row).sampling.is_some());
        let mut header = vec![
            "Cell".into(),
            "Target".into(),
            "Config".into(),
            "Prefetcher".into(),
            "IPC".into(),
            "Speedup".into(),
            "Delta".into(),
        ];
        if sampled {
            header.extend(["IpcCi95".into(), "Coverage".into(), "CoverageCi95".into()]);
        }
        let mut table = Table::new(self.name.clone(), header);
        for row in &self.rows {
            let (speedup, delta) = match self.speedup(row) {
                Some(speedup) => (
                    round6(speedup).to_string(),
                    round6(speedup - 1.0).to_string(),
                ),
                None => (String::new(), String::new()),
            };
            let mut fields = vec![
                row.cell.clone(),
                row.target.clone(),
                row.config.clone(),
                row.prefetcher.clone(),
                round6(self.row_ipc(row)).to_string(),
                speedup,
                delta,
            ];
            if sampled {
                match &self.sim_of(row).sampling {
                    Some(stats) => fields.extend([
                        round6(stats.ipc.ci95).to_string(),
                        round6(stats.coverage.mean).to_string(),
                        round6(stats.coverage.ci95).to_string(),
                    ]),
                    None => fields.extend([String::new(), String::new(), String::new()]),
                }
            }
            table.add_row(fields);
        }
        table.to_csv()
    }
}

fn round6(value: f64) -> f64 {
    crate::json::rounded(value, 1e6)
}

/// How one grid cell obtained its result, reported in
/// [`ProgressEvent::CellFinished`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellOutcome {
    /// Freshly simulated this run.
    Fresh,
    /// Served from the content-addressed result store.
    Store,
    /// Quarantined: its simulation panicked.
    Quarantined,
}

impl CellOutcome {
    /// Stable lower-case name (the serve layer's event vocabulary).
    pub fn label(self) -> &'static str {
        match self {
            CellOutcome::Fresh => "fresh",
            CellOutcome::Store => "store",
            CellOutcome::Quarantined => "quarantined",
        }
    }
}

/// One executor progress notification, delivered through
/// [`ExecOptions::progress`]. Cached cells (store hits) are
/// announced up-front, before the run phase starts; fresh and quarantined
/// cells as they finish.
#[derive(Debug, Clone)]
pub enum ProgressEvent {
    /// The grid is resolved: `total` deduplicated jobs, of which `cached`
    /// were served from the store before any worker started.
    Started {
        /// Deduplicated job count.
        total: usize,
        /// Jobs already served from the store.
        cached: usize,
    },
    /// One job finished (or was served from a cache).
    CellFinished {
        /// The executor's job key.
        key: String,
        /// Target (workload or mix) name.
        target: String,
        /// Prefetcher label.
        prefetcher: String,
        /// Config label.
        config: String,
        /// How the result was obtained.
        outcome: CellOutcome,
        /// Jobs completed so far (including this one).
        completed: usize,
        /// Deduplicated job count.
        total: usize,
    },
    /// The campaign is complete.
    Finished {
        /// Simulations with a result.
        sims: usize,
        /// Cells quarantined.
        quarantined: usize,
    },
}

/// Callback receiving [`ProgressEvent`]s; invoked from executor worker
/// threads, so it must be cheap and must not block on the caller.
pub type ProgressSink = std::sync::Arc<dyn Fn(&ProgressEvent) + Send + Sync>;

/// Shared handle to the durable result store (one per process, shared across
/// campaigns and with the serve layer's query endpoints).
pub type SharedStore = std::sync::Arc<Mutex<crate::store::ResultStore>>;

/// Execution options for [`run_campaign_with`]: optional fault injection,
/// optional durable result store and optional progress callbacks.
#[derive(Clone, Default)]
pub struct ExecOptions {
    /// Deterministic fault injection (tests only; `None` in production).
    pub faults: Option<FaultPlan>,
    /// Content-addressed durable store: cells whose
    /// [`crate::store::cell_fingerprint`] is present are served from it
    /// (counted in [`ExecStats::store_hits`]), and every fresh result is
    /// appended (and flushed) to it as soon as it finishes — so identical
    /// cells never simulate twice across campaigns, requests, or process
    /// restarts, and a killed campaign resumes by re-running it against
    /// the same store.
    pub store: Option<SharedStore>,
    /// Progress callback; see [`ProgressEvent`].
    pub progress: Option<ProgressSink>,
}

impl std::fmt::Debug for ExecOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecOptions")
            .field("faults", &self.faults)
            .field("store", &self.store.as_ref().map(|_| "<store>"))
            .field("progress", &self.progress.as_ref().map(|_| "<sink>"))
            .finish()
    }
}

struct Job {
    /// Memoization identity.
    key: String,
    /// Content address in the durable store ([`crate::store::cell_fingerprint`]).
    fingerprint: String,
    target: Target,
    sel: PrefetcherSel,
    config: SystemConfig,
    config_label: String,
    /// Sampled scales only: the shared neutral warm-up checkpoint this
    /// column restores (one per (target, config), set by the warm phase).
    warm: Option<std::sync::Arc<dspatch_sim::MachineState>>,
}

impl Job {
    fn run(&self, scale: &RunScale) -> SimResult {
        if let Some(plan) = &scale.sampling {
            // resolve_cells rejects mixes under sampling, so the target is
            // always a single workload here.
            let Target::Workload(workload) = &self.target else {
                panic!("job '{}': sampled scales cannot run mixes", self.key)
            };
            let Some(warm) = self.warm.as_deref() else {
                panic!("sampled job '{}' runs before its warm-up", self.key)
            };
            let source = Box::new(workload.source(scale.accesses_per_workload))
                as Box<dyn dspatch_trace::TraceSource>;
            return crate::sampling::run_sampled(
                source,
                self.sel.build_any(),
                &self.config,
                plan,
                warm,
            )
            .unwrap_or_else(|error| panic!("sampled job '{}': {error}", self.key));
        }
        // Workloads stream into the machine as lazy sources: a campaign's
        // resident memory is independent of `accesses_per_workload`, however
        // many workers run concurrently.
        let mut builder = SimulationBuilder::new(self.config.clone());
        match &self.target {
            Target::Workload(workload) => {
                builder = builder.with_core(
                    workload.source(scale.accesses_per_workload),
                    self.sel.build_any(),
                );
            }
            Target::Mix(mix) => {
                for workload in &mix.workloads {
                    builder = builder.with_core(
                        workload.source(scale.accesses_per_workload),
                        self.sel.build_any(),
                    );
                }
            }
        }
        builder.run()
    }

    /// The [`ProgressEvent::CellFinished`] announcing this job.
    fn finished(&self, outcome: CellOutcome, completed: usize, total: usize) -> ProgressEvent {
        ProgressEvent::CellFinished {
            key: self.key.clone(),
            target: self.target.name().to_owned(),
            prefetcher: self.sel.label(),
            config: self.config_label.clone(),
            outcome,
            completed,
            total,
        }
    }
}

/// Resolves a declarative spec against the workload suite and runs it.
///
/// The scale passed here wins over `spec.scale`; callers that want the
/// spec's embedded scale resolve it first (the CLI does).
///
/// # Errors
///
/// Returns a message for unknown workload names in the spec.
pub fn run_campaign(spec: &CampaignSpec, scale: &RunScale) -> Result<CampaignResult, String> {
    run_campaign_with(spec, scale, &ExecOptions::default()).map_err(|error| error.to_string())
}

/// [`run_campaign`] with explicit execution options: fault injection, the
/// durable result store and progress callbacks.
///
/// # Errors
///
/// * [`HarnessError::Spec`] — the spec is invalid (unknown workloads,
///   duplicate labels, core-count mismatches, ...).
/// * [`HarnessError::Io`] — a fresh result cannot be appended to the
///   store.
///
/// Quarantined cells are **not** errors: the campaign completes and reports
/// them in [`CampaignResult::failures`].
pub fn run_campaign_with(
    spec: &CampaignSpec,
    scale: &RunScale,
    opts: &ExecOptions,
) -> Result<CampaignResult, HarnessError> {
    let cells = resolve_cells(spec, scale).map_err(HarnessError::spec)?;
    execute_cells(&spec.name, &cells, scale, opts)
}

/// Validates a spec and resolves its cells against the workload suite.
fn resolve_cells(spec: &CampaignSpec, scale: &RunScale) -> Result<Vec<ResolvedCell>, String> {
    // Report rows and per-cell queries (rows_for_cell / speedups) key on the
    // label, so duplicates would silently pool unrelated cells.
    let mut labels = std::collections::HashSet::new();
    for cell in &spec.cells {
        if !labels.insert(cell.label.as_str()) {
            return Err(format!(
                "duplicate cell label '{}': every cell needs a unique label",
                cell.label
            ));
        }
    }
    spec.cells
        .iter()
        .map(|cell| {
            let targets = cell.targets.resolve(scale)?;
            let config = cell.config.build();
            config
                .validate()
                .map_err(|e| format!("cell '{}': invalid config: {e}", cell.label))?;
            if cell.prefetchers.is_empty() {
                return Err(format!(
                    "cell '{}': needs at least one prefetcher (an empty cell would \
                     simulate baselines but produce no rows)",
                    cell.label
                ));
            }
            let mut seen_sels = std::collections::HashSet::new();
            for sel in &cell.prefetchers {
                sel.validate()
                    .map_err(|e| format!("cell '{}': {e}", cell.label))?;
                // A repeated column would emit duplicate rows under one
                // label, double-weighting that prefetcher in aggregations.
                if !seen_sels.insert(*sel) {
                    return Err(format!(
                        "cell '{}': duplicate prefetcher '{}'",
                        cell.label,
                        sel.label()
                    ));
                }
            }
            if let Some(plan) = &scale.sampling {
                plan.validate_for(scale.accesses_per_workload as u64)
                    .map_err(|e| match e {
                        // The caller wraps this in its own "invalid spec:".
                        HarnessError::Spec { message } => {
                            format!("cell '{}': {message}", cell.label)
                        }
                        other => format!("cell '{}': {other}", cell.label),
                    })?;
                if let Some(mix) = targets.iter().find_map(|t| match t {
                    Target::Mix(mix) => Some(mix),
                    Target::Workload(_) => None,
                }) {
                    return Err(format!(
                        "cell '{}': sampled scales are single-core-only, but target \
                         '{}' is a multi-programmed mix (drop --sample or the mixes)",
                        cell.label, mix.name
                    ));
                }
            }
            // Catch core-count mismatches here, where they are a clean spec
            // error, instead of panicking inside an executor worker.
            for target in &targets {
                if target.cores() == 0 {
                    return Err(format!(
                        "cell '{}': target '{}' has no cores",
                        cell.label,
                        target.name()
                    ));
                }
                if target.cores() > config.cores {
                    return Err(format!(
                        "cell '{}': target '{}' needs {} cores but config '{}' provides {}",
                        cell.label,
                        target.name(),
                        target.cores(),
                        cell.config.label(),
                        config.cores
                    ));
                }
            }
            Ok(ResolvedCell {
                label: cell.label.clone(),
                targets,
                prefetchers: cell.prefetchers.clone(),
                config,
                config_label: cell.config.label(),
                baseline: cell.baseline,
            })
        })
        .collect::<Result<Vec<_>, String>>()
}

/// Locks a mutex, recovering the guard if a panicking thread poisoned it —
/// the executor's shared state (store handle, first-error slot) stays
/// usable because every write through it is a single self-contained record.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Renders a panic payload (almost always a `&str` or `String`).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_owned()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// A job's outcome: its simulation, or the quarantine record of a job
/// that panicked.
type JobOutcome = Result<SimResult, Box<CellFailure>>;

/// Runs one job once, under `catch_unwind`, so a panic (injected by the
/// fault plan or real) quarantines the cell instead of tearing down the
/// worker pool.
fn run_job(job: &Job, scale: &RunScale, opts: &ExecOptions) -> JobOutcome {
    let prefetcher = job.sel.label();
    let poisoned = opts
        .faults
        .as_ref()
        .is_some_and(|plan| plan.poisons(job.target.name(), &prefetcher));
    catch_unwind(AssertUnwindSafe(|| {
        if poisoned {
            panic!("injected panic");
        }
        job.run(scale)
    }))
    .map_err(|payload| {
        Box::new(CellFailure {
            key: job.key.clone(),
            target: job.target.name().to_owned(),
            prefetcher,
            config: job.config_label.clone(),
            error: HarnessError::CellPanic {
                job: job.key.clone(),
                message: panic_message(payload),
            },
        })
    })
}

/// Computes the neutral warm-up checkpoint for one (target, config) group
/// of a sampled campaign from the group's first job.
fn warm_group(
    job: &Job,
    plan: &SamplingPlan,
    scale: &RunScale,
) -> Result<std::sync::Arc<dspatch_sim::MachineState>, HarnessError> {
    let Target::Workload(workload) = &job.target else {
        return Err(HarnessError::spec(format!(
            "job '{}': sampled scales cannot warm mixes",
            job.key
        )));
    };
    let source = Box::new(workload.source(scale.accesses_per_workload))
        as Box<dyn dspatch_trace::TraceSource>;
    crate::sampling::warmup_checkpoint(source, &job.config, plan).map(std::sync::Arc::new)
}

/// The executor's one worker pool: up to `threads` scoped workers claim
/// the indices `0..count` in order from a shared atomic cursor
/// (self-scheduling, not per-worker deques) and run `work` on each. The
/// first `Err` stops further claims and is returned; a worker that panics
/// anyway becomes [`HarnessError::CellPanic`]. On success the results come
/// back in index order.
fn drain<T: Send>(
    threads: usize,
    count: usize,
    work: impl Fn(usize) -> Result<T, HarnessError> + Sync,
) -> Result<Vec<T>, HarnessError> {
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let first_error: Mutex<Option<HarnessError>> = Mutex::new(None);
    let worker = || {
        let mut local = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            let next = cursor.fetch_add(1, Ordering::Relaxed);
            if next >= count {
                break;
            }
            match work(next) {
                Ok(value) => local.push((next, value)),
                Err(error) => {
                    lock_unpoisoned(&first_error).get_or_insert(error);
                    stop.store(true, Ordering::Relaxed);
                }
            }
        }
        local
    };
    let mut done = Vec::with_capacity(count);
    let mut worker_panic = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.clamp(1, count.max(1)))
            .map(|_| scope.spawn(worker))
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(local) => done.extend(local),
                Err(payload) => {
                    worker_panic = Some(HarnessError::CellPanic {
                        job: "<executor worker>".to_owned(),
                        message: panic_message(payload),
                    });
                }
            }
        }
    });
    if let Some(error) = lock_unpoisoned(&first_error).take().or(worker_panic) {
        return Err(error);
    }
    // Without an error every index was claimed once and produced a value.
    done.sort_unstable_by_key(|(index, _)| *index);
    Ok(done.into_iter().map(|(_, value)| value).collect())
}

/// The executor behind [`run_campaign_with`]: plan the jobs, serve what the
/// store already holds, warm the rest (sampled scales), run them on the
/// pool and assemble the result.
fn execute_cells(
    name: &str,
    cells: &[ResolvedCell],
    scale: &RunScale,
    opts: &ExecOptions,
) -> Result<CampaignResult, HarnessError> {
    let (mut jobs, rows, memo_hits) = plan_jobs(cells, scale);

    // Store replay: cells already simulated by any prior campaign — an
    // earlier, killed run of this one, another request's grid or a previous
    // process incarnation's — load from the content-addressed store and
    // never re-execute.
    let replayed: Vec<Option<SimResult>> = match &opts.store {
        Some(shared) => {
            let store = lock_unpoisoned(shared);
            jobs.iter()
                .map(|job| store.get(&job.fingerprint).cloned())
                .collect()
        }
        None => vec![None; jobs.len()],
    };
    let warmups_run = match &scale.sampling {
        Some(plan) => warm_jobs(&mut jobs, &replayed, plan, scale)?,
        None => 0,
    };

    // Progress: announce the resolved grid, then every store-served cell
    // (in job-discovery order) before the run phase starts.
    let store_hits = replayed.iter().flatten().count();
    if let Some(sink) = &opts.progress {
        sink(&ProgressEvent::Started {
            total: jobs.len(),
            cached: store_hits,
        });
        let cached_jobs = jobs.iter().zip(&replayed).filter(|(_, sim)| sim.is_some());
        for (announced, (job, _)) in cached_jobs.enumerate() {
            sink(&job.finished(CellOutcome::Store, announced + 1, jobs.len()));
        }
    }

    let threads = scale.threads.clamp(1, jobs.len().max(1));
    let mut outcomes = run_jobs(name, &jobs, &replayed, scale, opts, threads)?;
    outcomes.extend(
        replayed
            .into_iter()
            .enumerate()
            .filter_map(|(index, sim)| Some((index, Ok(sim?)))),
    );
    let stats = ExecStats {
        memo_hits,
        threads,
        store_hits,
        warmups_run,
        ..ExecStats::default()
    };
    let result = assemble(name, &jobs, rows, outcomes, stats);
    if let Some(sink) = &opts.progress {
        sink(&ProgressEvent::Finished {
            sims: result.sims.len(),
            quarantined: result.failures.len(),
        });
    }
    Ok(result)
}

/// Plan phase: deduplicates the cells' (target, prefetcher, config) jobs —
/// the no-L2-prefetcher baseline included, so it simulates once per
/// (target, config) however many columns use it — and lays out one row per
/// (cell, target, prefetcher) indexing into them. Also returns how many
/// requests the memo table served.
fn plan_jobs(cells: &[ResolvedCell], scale: &RunScale) -> (Vec<Job>, Vec<CampaignRow>, usize) {
    let mut jobs: Vec<Job> = Vec::new();
    let mut job_index: HashMap<String, usize> = HashMap::new();
    let mut configs: Vec<&SystemConfig> = Vec::new();
    let mut memo_hits = 0usize;
    let mut rows: Vec<CampaignRow> = Vec::new();
    for cell in cells {
        // Deduplicated config index, part of each job's memoization key.
        let cfg = configs
            .iter()
            .position(|c| *c == &cell.config)
            .unwrap_or_else(|| {
                configs.push(&cell.config);
                configs.len() - 1
            });
        for target in &cell.targets {
            let target_key = target.key();
            let mut ensure = |sel: PrefetcherSel| {
                let key = format!("{target_key}|c{cfg}|{sel:?}");
                if let Some(&existing) = job_index.get(&key) {
                    memo_hits += 1;
                    return existing;
                }
                job_index.insert(key.clone(), jobs.len());
                jobs.push(Job {
                    key,
                    fingerprint: crate::store::cell_fingerprint(
                        &target_key,
                        &format!("{sel:?}"),
                        &cell.config,
                        scale.accesses_per_workload,
                        scale.sampling.as_ref(),
                    ),
                    target: target.clone(),
                    sel,
                    config: cell.config.clone(),
                    config_label: cell.config_label.clone(),
                    warm: None,
                });
                jobs.len() - 1
            };
            let baseline = cell
                .baseline
                .then(|| ensure(PrefetcherSel::Kind(PrefetcherKind::Baseline)));
            for sel in &cell.prefetchers {
                rows.push(CampaignRow {
                    cell: cell.label.clone(),
                    target: target.name().to_owned(),
                    config: cell.config_label.clone(),
                    prefetcher: sel.label(),
                    sim: ensure(*sel),
                    baseline,
                });
            }
        }
    }
    (jobs, rows, memo_hits)
}

/// Warm phase (sampled scales): one neutral warm-up checkpoint per
/// (target, config) group of the jobs the store did not serve, computed on
/// the pool and shared across every prefetcher column of the group.
/// Returns how many were computed.
fn warm_jobs(
    jobs: &mut [Job],
    replayed: &[Option<SimResult>],
    plan: &SamplingPlan,
    scale: &RunScale,
) -> Result<usize, HarnessError> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_of: HashMap<String, usize> = HashMap::new();
    for (index, job) in jobs.iter().enumerate() {
        if replayed[index].is_none() {
            let key = format!("{}|{:?}", job.target.key(), job.config);
            let group = *group_of.entry(key).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[group].push(index);
        }
    }
    let warmed = drain(scale.threads, groups.len(), |group| {
        warm_group(&jobs[groups[group][0]], plan, scale)
    })?;
    for (indices, state) in groups.iter().zip(warmed) {
        for &index in indices {
            jobs[index].warm = Some(state.clone());
        }
    }
    Ok(groups.len())
}

/// Run phase: drains the jobs the store did not serve on the pool, in cost
/// order — multi-core mixes first, so the longest simulations never strand
/// at the tail of the queue. Each worker appends its fresh result to the
/// store and announces it; a failed append stops the campaign. Returns
/// each job's index with its outcome.
fn run_jobs(
    name: &str,
    jobs: &[Job],
    replayed: &[Option<SimResult>],
    scale: &RunScale,
    opts: &ExecOptions,
    threads: usize,
) -> Result<Vec<(usize, JobOutcome)>, HarnessError> {
    let mut pending: Vec<usize> = (0..jobs.len())
        .filter(|&index| replayed[index].is_none())
        .collect();
    pending.sort_by_key(|&index| std::cmp::Reverse(jobs[index].target.cores()));
    // Every store row carries the cell's identity spelled out as one
    // canonical ResultRow, so the analytics layer can filter and group
    // without re-deriving anything.
    let sampling_suffix = scale
        .sampling
        .as_ref()
        .map(SamplingPlan::fingerprint_suffix)
        .unwrap_or_default();
    let completed = AtomicUsize::new(jobs.len() - pending.len());
    let outcomes = drain(threads, pending.len(), |next| {
        let job = &jobs[pending[next]];
        let outcome = run_job(job, scale, opts);
        // Durable store append, one flushed record per fresh result: it
        // becomes addressable by all future campaigns (a killed run's re-run
        // included). The lock is taken after the (multi-second) simulation,
        // so it never serializes actual work. A write failure voids the
        // store's guarantee and is fatal for the campaign.
        if let (Some(shared), Ok(sim)) = (&opts.store, &outcome) {
            let row = ResultRow::new(
                job.fingerprint.clone(),
                name.to_owned(),
                job.target.name().to_owned(),
                job.sel.label(),
                job.config_label.clone(),
                scale.accesses_per_workload as u64,
                sampling_suffix.clone(),
                sim.clone(),
            );
            lock_unpoisoned(shared).insert(&row)?;
        }
        if let Some(sink) = &opts.progress {
            let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
            let how = if outcome.is_ok() {
                CellOutcome::Fresh
            } else {
                CellOutcome::Quarantined
            };
            sink(&job.finished(how, done, jobs.len()));
        }
        Ok(outcome)
    })?;
    Ok(pending.into_iter().zip(outcomes).collect())
}

/// Assemble phase: puts the outcomes in job order and compacts the
/// surviving simulations. Quarantined jobs leave no sim, so rows are
/// remapped onto the dense vector: a row that lost its candidate is dropped
/// (its job is in `failures`), one that lost only its baseline stays.
fn assemble(
    name: &str,
    jobs: &[Job],
    rows: Vec<CampaignRow>,
    mut outcomes: Vec<(usize, JobOutcome)>,
    stats: ExecStats,
) -> CampaignResult {
    outcomes.sort_unstable_by_key(|(index, _)| *index);
    let mut sims: Vec<SimResult> = Vec::new();
    let mut failures: Vec<CellFailure> = Vec::new();
    let mut remap: Vec<Option<usize>> = vec![None; jobs.len()];
    for (index, outcome) in outcomes {
        match outcome {
            Ok(sim) => {
                remap[index] = Some(sims.len());
                sims.push(sim);
            }
            Err(failure) => failures.push(*failure),
        }
    }
    let rows = rows
        .into_iter()
        .filter_map(|row| {
            remap[row.sim].map(|sim| CampaignRow {
                sim,
                baseline: row.baseline.and_then(|b| remap[b]),
                ..row
            })
        })
        .collect();
    let baseline_sims = jobs
        .iter()
        .zip(&remap)
        .filter(|(job, sim)| job.sel.is_baseline() && sim.is_some())
        .count();
    CampaignResult {
        name: name.to_owned(),
        stats: ExecStats {
            sims_run: sims.len(),
            baseline_sims,
            quarantined: failures.len(),
            ..stats
        },
        rows,
        sims,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunScale {
        RunScale {
            accesses_per_workload: 600,
            workloads_per_category: 1,
            mixes: 1,
            threads: 2,
            sampling: None,
        }
    }

    fn sampled_tiny() -> RunScale {
        RunScale {
            accesses_per_workload: 20_000,
            sampling: Some(SamplingPlan {
                warmup_accesses: 2_000,
                interval_accesses: 400,
                intervals: 4,
                seed: 1,
            }),
            ..tiny()
        }
    }

    fn sampled_cell() -> CellSpec {
        CellSpec {
            label: "sampled".to_owned(),
            targets: TargetSelector::Category(WorkloadCategory::Cloud),
            prefetchers: vec![
                PrefetcherSel::Kind(PrefetcherKind::Bop),
                PrefetcherSel::Kind(PrefetcherKind::Spp),
                PrefetcherSel::Kind(PrefetcherKind::DspatchPlusSpp),
            ],
            config: ConfigSpec::single_thread(),
            baseline: true,
        }
    }

    #[test]
    fn sampled_campaigns_share_one_warmup_across_columns() {
        let spec = CampaignSpec::single_cell("sampled", sampled_cell());
        let result = run_campaign(&spec, &sampled_tiny()).expect("valid spec");
        // 1 workload × (1 baseline + 3 candidates), all forked from ONE
        // neutral warm-up checkpoint — the counter proves the sharing.
        assert_eq!(result.stats.sims_run, 4);
        assert_eq!(result.stats.warmups_run, 1);
        assert_eq!(result.rows.len(), 3);
        for row in &result.rows {
            let stats = result.sim_of(row).sampling.expect("sampled rows carry CIs");
            assert_eq!(stats.intervals, 4);
            assert!(result.row_ipc(row) > 0.0);
        }
        // The row surface carries the CIs in JSON and CSV.
        let json = result.to_json().render_compact();
        assert!(json.contains("\"ipc_ci95\""));
        let csv = result.to_csv();
        assert!(csv.contains("IpcCi95"));
        // Exact runs keep their historical surfaces untouched.
        let exact = run_campaign(&spec, &tiny()).expect("valid spec");
        assert_eq!(exact.stats.warmups_run, 0);
        assert!(!exact.to_json().render_compact().contains("ipc_ci95"));
        assert!(!exact.to_csv().contains("IpcCi95"));
    }

    #[test]
    fn the_pool_returns_the_error_of_a_failing_item() {
        for threads in [1, 2] {
            let failed = drain(threads, 8, |index| {
                if index == 3 {
                    Err(HarnessError::spec("item 3 failed"))
                } else {
                    Ok(index)
                }
            });
            match failed {
                Err(HarnessError::Spec { message }) => assert_eq!(message, "item 3 failed"),
                other => panic!("{threads} thread(s): expected the item's error, got {other:?}"),
            }
            // Without an error every item comes back, in index order.
            let doubled = drain(threads, 8, |index| Ok(index * 2)).expect("no item fails");
            assert_eq!(doubled, (0..8).map(|index| index * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn sampled_scales_reject_mixes_and_oversized_plans() {
        let mixes = CampaignSpec::single_cell(
            "mixes",
            CellSpec {
                targets: TargetSelector::HomogeneousMixes { cores: 4 },
                config: ConfigSpec::multi_programmed(),
                ..sampled_cell()
            },
        );
        let err = run_campaign(&mixes, &sampled_tiny()).unwrap_err();
        assert!(err.contains("single-core-only"), "{err}");
        let oversized = RunScale {
            accesses_per_workload: 3_000,
            ..sampled_tiny()
        };
        let spec = CampaignSpec::single_cell("oversized", sampled_cell());
        let err = run_campaign(&spec, &oversized).unwrap_err();
        assert!(err.contains("sampling plan needs"), "{err}");
    }

    #[test]
    fn custom_scales_refuse_sim_workers() {
        // Multi-core cells always run on the single-threaded exact machine,
        // so a spec file may not ask for intra-simulation workers...
        let json = Json::parse(
            r#"{"accesses_per_workload": 100, "workloads_per_category": 1, "mixes": 1, "sim_workers": 2}"#,
        )
        .expect("valid JSON");
        let err = ScaleSpec::from_json(&json).unwrap_err();
        assert!(err.contains("unknown key 'sim_workers'"), "{err}");
        // ...and the field kept for source compatibility must stay 0.
        let custom = |sim_workers| ScaleSpec::Custom {
            accesses_per_workload: 100,
            workloads_per_category: 1,
            mixes: 1,
            threads: Some(1),
            sim_workers,
            sampling: None,
        };
        assert!(custom(0).resolve().is_ok());
        let err = custom(2).resolve().unwrap_err();
        assert!(err.contains("'sim_workers' must be 0"), "{err}");
    }

    #[test]
    fn custom_scales_refuse_zero_accesses() {
        // A scale that simulates nothing would report IPC 0 and a 1.0x
        // speedup on every row. The CLI and the service both resolve a
        // spec's scale here.
        let resolve = |accesses: usize| {
            let json = Json::parse(&format!(
                r#"{{"accesses_per_workload": {accesses}, "workloads_per_category": 1, "mixes": 1}}"#
            ))
            .expect("valid JSON");
            ScaleSpec::from_json(&json).expect("parses").resolve()
        };
        let err = resolve(0).unwrap_err();
        assert!(
            err.contains("'accesses_per_workload' must be at least 1"),
            "{err}"
        );
        assert!(resolve(1).is_ok());
    }

    #[test]
    fn sampled_and_exact_cells_never_alias_in_the_store() {
        let config = ConfigSpec::single_thread().build();
        let exact = crate::store::cell_fingerprint("w:a", "Kind(Spp)", &config, 20_000, None);
        let plan = SamplingPlan {
            warmup_accesses: 2_000,
            interval_accesses: 400,
            intervals: 4,
            seed: 1,
        };
        let sampled =
            crate::store::cell_fingerprint("w:a", "Kind(Spp)", &config, 20_000, Some(&plan));
        assert_ne!(exact, sampled);
    }

    #[test]
    fn baselines_are_memoized_across_prefetcher_columns() {
        let spec = CampaignSpec::single_cell(
            "memo",
            CellSpec {
                label: "cloud".to_owned(),
                targets: TargetSelector::Category(WorkloadCategory::Cloud),
                prefetchers: vec![
                    PrefetcherSel::Kind(PrefetcherKind::Bop),
                    PrefetcherSel::Kind(PrefetcherKind::Spp),
                    PrefetcherSel::Kind(PrefetcherKind::Sms),
                ],
                config: ConfigSpec::single_thread(),
                baseline: true,
            },
        );
        let result = run_campaign(&spec, &tiny()).expect("valid spec");
        // 1 workload (smoke cap) × (1 baseline + 3 candidates).
        assert_eq!(result.stats.sims_run, 4);
        assert_eq!(result.stats.baseline_sims, 1);
        assert_eq!(result.rows.len(), 3);
        assert!(result.rows.iter().all(|row| row.baseline.is_some()));
        for row in &result.rows {
            assert!(result.speedup(row).unwrap() > 0.0);
        }
    }

    #[test]
    fn duplicate_cells_share_candidate_simulations() {
        let cell = CellSpec {
            label: "a".to_owned(),
            targets: TargetSelector::Category(WorkloadCategory::Hpc),
            prefetchers: vec![PrefetcherSel::Kind(PrefetcherKind::Spp)],
            config: ConfigSpec::single_thread(),
            baseline: true,
        };
        let mut twin = cell.clone();
        twin.label = "b".to_owned();
        let spec = CampaignSpec {
            name: "dedup".to_owned(),
            scale: None,
            cells: vec![cell, twin],
        };
        let result = run_campaign(&spec, &tiny()).expect("valid spec");
        // Cell b's baseline and candidate both come from the memo table.
        assert_eq!(result.stats.sims_run, 2);
        assert_eq!(result.stats.memo_hits, 2);
        assert_eq!(result.rows.len(), 2);
        assert_eq!(result.rows[0].sim, result.rows[1].sim);
    }

    #[test]
    fn distinct_configs_do_not_share_baselines() {
        let base = CellSpec {
            label: "2133".to_owned(),
            targets: TargetSelector::Category(WorkloadCategory::Hpc),
            prefetchers: vec![PrefetcherSel::Kind(PrefetcherKind::Spp)],
            config: ConfigSpec::single_thread(),
            baseline: true,
        };
        let mut faster = base.clone();
        faster.label = "2400".to_owned();
        faster.config = ConfigSpec::single_thread().with_dram(2, DramSpeedGrade::Ddr4_2400);
        let spec = CampaignSpec {
            name: "configs".to_owned(),
            scale: None,
            cells: vec![base, faster],
        };
        let result = run_campaign(&spec, &tiny()).expect("valid spec");
        assert_eq!(result.stats.sims_run, 4);
        assert_eq!(result.stats.baseline_sims, 2);
        assert_eq!(result.stats.memo_hits, 0);
    }

    #[test]
    fn cells_without_baseline_run_candidates_only() {
        let spec = CampaignSpec::single_cell(
            "raw",
            CellSpec {
                label: "pollution".to_owned(),
                targets: TargetSelector::Category(WorkloadCategory::Server),
                prefetchers: vec![PrefetcherSel::Kind(PrefetcherKind::Streamer)],
                config: ConfigSpec::single_thread().with_llc_bytes(2 << 20),
                baseline: false,
            },
        );
        let result = run_campaign(&spec, &tiny()).expect("valid spec");
        assert_eq!(result.stats.sims_run, 1);
        assert_eq!(result.stats.baseline_sims, 0);
        assert!(result.rows[0].baseline.is_none());
        assert!(result.speedup(&result.rows[0]).is_none());
        assert!(result.to_table().render().contains("-"));
    }

    #[test]
    fn mixes_resolve_and_run_in_parallel() {
        let spec = CampaignSpec::single_cell(
            "mixes",
            CellSpec {
                label: "homogeneous".to_owned(),
                targets: TargetSelector::HomogeneousMixes { cores: 4 },
                prefetchers: vec![PrefetcherSel::Kind(PrefetcherKind::Spp)],
                config: ConfigSpec::multi_programmed(),
                baseline: true,
            },
        );
        let result = run_campaign(&spec, &tiny()).expect("valid spec");
        assert_eq!(result.rows.len(), 1, "mix cap of 1 at tiny scale");
        let sim = result.sim_of(&result.rows[0]);
        assert_eq!(sim.cores.len(), 4);
        assert!(result.speedup(&result.rows[0]).is_some());
    }

    #[test]
    fn spec_json_round_trips() {
        let spec = CampaignSpec::template();
        let text = spec.to_json().render();
        let reparsed = CampaignSpec::parse(&text).expect("template parses");
        assert_eq!(reparsed, spec);
    }

    #[test]
    fn spec_errors_are_reported() {
        assert!(CampaignSpec::parse("{\"cells\": 3}").is_err());
        assert!(CampaignSpec::parse("not json").is_err());
        let err =
            CampaignSpec::parse(r#"{"name": "x", "scale": "smoke", "cells": []}"#).unwrap_err();
        assert!(err.contains("at least one cell"), "{err}");
        let unknown_workload = CampaignSpec::single_cell(
            "bad",
            CellSpec {
                label: "x".to_owned(),
                targets: TargetSelector::Workloads(vec!["no-such-workload".to_owned()]),
                prefetchers: vec![PrefetcherSel::Kind(PrefetcherKind::Spp)],
                config: ConfigSpec::single_thread(),
                baseline: true,
            },
        );
        let err = run_campaign(&unknown_workload, &tiny()).unwrap_err();
        assert!(err.contains("no-such-workload"));
        assert!(PrefetcherSel::from_json(&Json::str("warp-drive")).is_err());
        assert!(TargetSelector::from_json(&Json::str("everything")).is_err());
        assert!(ConfigSpec::from_json(&Json::obj([("base", Json::str("dual"))])).is_err());
    }

    #[test]
    fn mistyped_spec_fields_error_instead_of_defaulting() {
        // A wrongly-typed field must never silently fall back to a default.
        let bad_seed = r#"{"heterogeneous_mixes": {"count": 5, "cores": 4, "seed": "big"}}"#;
        let err = TargetSelector::from_json(&Json::parse(bad_seed).unwrap()).unwrap_err();
        assert!(err.contains("seed"));

        // Decimal-string seeds are the exact encoding for values over 2^53.
        let big_seed =
            r#"{"heterogeneous_mixes": {"count": 5, "cores": 4, "seed": "18446744073709551615"}}"#;
        assert_eq!(
            TargetSelector::from_json(&Json::parse(big_seed).unwrap()).unwrap(),
            TargetSelector::HeterogeneousMixes {
                count: 5,
                cores: 4,
                seed: u64::MAX
            }
        );

        let negative_seed = r#"{"heterogeneous_mixes": {"count": 5, "cores": 4, "seed": -5}}"#;
        assert!(TargetSelector::from_json(&Json::parse(negative_seed).unwrap()).is_err());

        let bad_cell =
            r#"{"label": "x", "targets": "suite", "prefetchers": ["spp"], "baseline": "yes"}"#;
        let err = CellSpec::from_json(&Json::parse(bad_cell).unwrap()).unwrap_err();
        assert!(err.contains("baseline"));

        let unlabeled = r#"{"targets": "suite", "prefetchers": ["spp"]}"#;
        let err = CellSpec::from_json(&Json::parse(unlabeled).unwrap()).unwrap_err();
        assert!(err.contains("label"));

        let bad_base = r#"{"base": 5}"#;
        assert!(ConfigSpec::from_json(&Json::parse(bad_base).unwrap()).is_err());

        let bad_threads = r#"{"accesses_per_workload": 1, "workloads_per_category": 1, "mixes": 1, "threads": "four"}"#;
        let err = ScaleSpec::from_json(&Json::parse(bad_threads).unwrap()).unwrap_err();
        assert!(err.contains("threads"));

        let bad_name = r#"{"name": 7, "cells": []}"#;
        let err = CampaignSpec::parse(bad_name).unwrap_err();
        assert!(err.contains("'name'"), "{err}");
    }

    #[test]
    fn misspelled_spec_keys_error_instead_of_being_ignored() {
        let typo_config = r#"{"base": "single_thread", "llcbytes": 1048576}"#;
        let err = ConfigSpec::from_json(&Json::parse(typo_config).unwrap()).unwrap_err();
        assert!(err.contains("llcbytes"), "got: {err}");

        // A non-object config must error, not silently become the default.
        let err = ConfigSpec::from_json(&Json::str("multi_programmed")).unwrap_err();
        assert!(err.contains("must be an object"), "got: {err}");

        let typo_cell = r#"{"label": "x", "targets": "suite", "prefetcher": ["spp"]}"#;
        let err = CellSpec::from_json(&Json::parse(typo_cell).unwrap()).unwrap_err();
        assert!(err.contains("prefetcher"), "got: {err}");

        let typo_scale =
            r#"{"accesses_per_workload": 1, "workloads_per_category": 1, "mixes": 1, "thread": 2}"#;
        assert!(ScaleSpec::from_json(&Json::parse(typo_scale).unwrap()).is_err());

        let typo_selector = r#"{"categories": "cloud"}"#;
        assert!(TargetSelector::from_json(&Json::parse(typo_selector).unwrap()).is_err());

        let two_selectors = r#"{"category": "cloud", "workloads": ["x"]}"#;
        let err = TargetSelector::from_json(&Json::parse(two_selectors).unwrap()).unwrap_err();
        assert!(err.contains("exactly one"), "got: {err}");

        let typo_campaign = r#"{"name": "x", "cell": []}"#;
        assert!(CampaignSpec::parse(typo_campaign).is_err());
    }

    #[test]
    fn csv_carries_raw_numeric_values() {
        let spec = CampaignSpec::single_cell(
            "csv",
            CellSpec {
                label: "hpc".to_owned(),
                targets: TargetSelector::Category(WorkloadCategory::Hpc),
                prefetchers: vec![PrefetcherSel::Kind(PrefetcherKind::Spp)],
                config: ConfigSpec::single_thread(),
                baseline: true,
            },
        );
        let result = run_campaign(&spec, &tiny()).expect("valid spec");
        let csv = result.to_csv();
        let data_row = csv.lines().nth(1).expect("one data row");
        let fields: Vec<&str> = data_row.split(',').collect();
        assert_eq!(fields.len(), 7);
        for numeric in &fields[4..7] {
            assert!(
                numeric.parse::<f64>().is_ok(),
                "field '{numeric}' should be a raw number in: {data_row}"
            );
        }
    }

    #[test]
    fn mix_targets_under_a_single_core_config_are_a_spec_error() {
        let spec = CampaignSpec::single_cell(
            "mismatch",
            CellSpec {
                label: "mixes".to_owned(),
                targets: TargetSelector::HomogeneousMixes { cores: 4 },
                prefetchers: vec![PrefetcherSel::Kind(PrefetcherKind::Spp)],
                config: ConfigSpec::single_thread(),
                baseline: true,
            },
        );
        let err = run_campaign(&spec, &tiny()).unwrap_err();
        assert!(err.contains("4 cores"), "got: {err}");
    }

    #[test]
    fn degenerate_spec_parameters_are_clean_errors_not_worker_panics() {
        let mut cell = CellSpec {
            label: "bad".to_owned(),
            targets: TargetSelector::Category(WorkloadCategory::Hpc),
            prefetchers: vec![PrefetcherSel::SmsPht(0)],
            config: ConfigSpec::single_thread(),
            baseline: false,
        };
        let spec = CampaignSpec::single_cell("zero-pht", cell.clone());
        let err = run_campaign(&spec, &tiny()).unwrap_err();
        assert!(err.contains("sms_pht"), "got: {err}");

        let mut empty = cell.clone();
        empty.prefetchers = Vec::new();
        let spec = CampaignSpec::single_cell("no-prefetchers", empty);
        let err = run_campaign(&spec, &tiny()).unwrap_err();
        assert!(err.contains("at least one prefetcher"), "got: {err}");

        let mut doubled = cell.clone();
        doubled.prefetchers = vec![
            PrefetcherSel::Kind(PrefetcherKind::Spp),
            PrefetcherSel::Kind(PrefetcherKind::Spp),
        ];
        let spec = CampaignSpec::single_cell("doubled", doubled);
        let err = run_campaign(&spec, &tiny()).unwrap_err();
        assert!(err.contains("duplicate prefetcher"), "got: {err}");

        cell.prefetchers = vec![PrefetcherSel::Kind(PrefetcherKind::Spp)];
        cell.targets = TargetSelector::HomogeneousMixes { cores: 0 };
        let spec = CampaignSpec::single_cell("zero-cores", cell);
        let err = run_campaign(&spec, &tiny()).unwrap_err();
        assert!(err.contains("no cores"), "got: {err}");
    }

    #[test]
    fn duplicate_cell_labels_are_rejected() {
        let cell = CellSpec {
            label: "same".to_owned(),
            targets: TargetSelector::Category(WorkloadCategory::Hpc),
            prefetchers: vec![PrefetcherSel::Kind(PrefetcherKind::Spp)],
            config: ConfigSpec::single_thread(),
            baseline: true,
        };
        let spec = CampaignSpec {
            name: "dupes".to_owned(),
            scale: None,
            cells: vec![cell.clone(), cell],
        };
        let err = run_campaign(&spec, &tiny()).unwrap_err();
        assert!(err.contains("duplicate cell label"), "got: {err}");
    }

    #[test]
    fn explicit_workload_names_resolve_without_caps() {
        let pool = suite();
        let names = vec![pool[0].name.clone(), pool[1].name.clone()];
        let targets = TargetSelector::Workloads(names.clone())
            .resolve(&tiny())
            .expect("known names");
        assert_eq!(targets.len(), 2);
        assert_eq!(targets[0].name(), names[0]);

        let doubled = vec![pool[0].name.clone(), pool[0].name.clone()];
        let err = TargetSelector::Workloads(doubled)
            .resolve(&tiny())
            .unwrap_err();
        assert!(err.contains("duplicate workload"), "got: {err}");
    }

    #[test]
    fn config_spec_builds_the_requested_variant() {
        let spec = ConfigSpec::multi_programmed()
            .with_dram(1, DramSpeedGrade::Ddr4_1600)
            .with_llc_bytes(4 << 20);
        let config = spec.build();
        assert_eq!(config.cores, 4);
        assert_eq!(config.dram.channels, 1);
        assert_eq!(config.llc.size_bytes, 4 << 20);
        assert_eq!(spec.label(), "4P/1ch-1600/llc=4MiB");
    }

    #[test]
    fn campaign_renders_table_json_and_csv() {
        let spec = CampaignSpec::single_cell(
            "render",
            CellSpec {
                label: "hpc".to_owned(),
                targets: TargetSelector::Category(WorkloadCategory::Hpc),
                prefetchers: vec![PrefetcherSel::Kind(PrefetcherKind::Spp)],
                config: ConfigSpec::single_thread(),
                baseline: true,
            },
        );
        let result = run_campaign(&spec, &tiny()).expect("valid spec");
        let table = result.to_table().render();
        assert!(table.contains("SPP") && table.contains("Speedup"));
        let json = result.to_json();
        assert_eq!(json.get("campaign").and_then(Json::as_str), Some("render"));
        assert!(Json::parse(&json.render()).is_ok());
        let csv = result.to_csv();
        assert!(csv.starts_with("Cell,Target,Config,Prefetcher"));
    }
}
