//! One function per table and figure of the paper's evaluation.
//!
//! Every function takes a [`RunScale`] and returns a structured result with
//! a `to_table()` (or `render()`) method producing the same rows or series
//! the paper plots. Since the Campaign API redesign each simulation-backed
//! figure is a *thin declarative spec* over [`crate::campaign`]: the
//! function builds a [`CampaignSpec`] grid, the shared executor runs it
//! (shared-queue parallelism, baselines memoized per (target, config)),
//! and the function aggregates the resulting speedups into its
//! figure-shaped report. The absolute numbers come from the
//! synthetic-workload substitution documented in the `dspatch-trace` crate
//! docs and README's opening paragraph.

use crate::campaign::{
    run_campaign_with, CampaignResult, CampaignSpec, CellSpec, ConfigSpec, ExecOptions,
    PrefetcherSel, TargetSelector,
};
use crate::error::HarnessError;
use crate::report::{percent, Table};
use crate::runner::{geomean, PrefetcherKind, RunScale};
use dspatch::{CompressedPattern, DsPatchConfig, SpatialPattern, StorageBreakdown};
use dspatch_sim::{DramConfig, DramSpeedGrade, SystemConfig};
use dspatch_trace::workloads::{suite, WorkloadCategory};
use dspatch_trace::TraceSource;
use dspatch_types::Prefetcher;
use std::collections::BTreeMap;

fn sels(kinds: &[PrefetcherKind]) -> Vec<PrefetcherSel> {
    kinds.iter().copied().map(PrefetcherSel::Kind).collect()
}

/// Runs a figure's campaign. A figure spec is fixed, but `scale` is not:
/// a sampled scale the figure cannot honour (mixes, or a plan longer than
/// the trace) comes back as the executor's [`HarnessError::Spec`].
fn run_figure_spec(spec: &CampaignSpec, scale: &RunScale) -> Result<CampaignResult, HarnessError> {
    run_campaign_with(spec, scale, &ExecOptions::default())
}

/// Performance of several prefetchers per workload category plus the
/// geometric mean (the shape of Figures 4, 12, 14 and 17).
#[derive(Debug, Clone, PartialEq)]
pub struct CategoryPerformance {
    /// Figure name used as the table caption.
    pub figure: String,
    /// Prefetchers compared, in column order.
    pub kinds: Vec<PrefetcherKind>,
    /// Per-category performance delta over baseline (fraction), one row per
    /// category, plus a final "GEOMEAN" row.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl CategoryPerformance {
    /// Renders the figure as a table.
    pub fn to_table(&self) -> Table {
        let mut headers = vec!["Category".to_owned()];
        headers.extend(self.kinds.iter().map(|k| k.label().to_owned()));
        let mut table = Table::new(self.figure.clone(), headers);
        for (label, deltas) in &self.rows {
            let mut row = vec![label.clone()];
            row.extend(deltas.iter().map(|d| percent(*d)));
            table.add_row(row);
        }
        table
    }

    /// Returns the geometric-mean delta of one prefetcher kind.
    pub fn geomean_delta(&self, kind: PrefetcherKind) -> Option<f64> {
        let column = self.kinds.iter().position(|k| *k == kind)?;
        self.rows
            .iter()
            .find(|(label, _)| label == "GEOMEAN")
            .map(|(_, deltas)| deltas[column])
    }
}

/// One campaign cell per category; the engine memoizes each workload's
/// baseline across all `kinds` columns (previously simulated once per kind).
fn category_performance(
    figure: &str,
    kinds: &[PrefetcherKind],
    config: ConfigSpec,
    scale: &RunScale,
) -> Result<CategoryPerformance, HarnessError> {
    let spec = CampaignSpec {
        name: figure.to_owned(),
        scale: None,
        cells: WorkloadCategory::ALL
            .into_iter()
            .map(|category| CellSpec {
                label: category.label().to_owned(),
                targets: TargetSelector::Category(category),
                prefetchers: sels(kinds),
                config,
                baseline: true,
            })
            .collect(),
    };
    let result = run_figure_spec(&spec, scale)?;
    let mut rows = Vec::new();
    let mut per_kind_all: Vec<Vec<f64>> = vec![Vec::new(); kinds.len()];
    for category in WorkloadCategory::ALL {
        if result.rows_for_cell(category.label()).next().is_none() {
            continue;
        }
        let mut deltas = Vec::with_capacity(kinds.len());
        for (k, kind) in kinds.iter().enumerate() {
            let speedups = result.speedups(category.label(), kind.label());
            per_kind_all[k].extend(speedups.iter().copied());
            deltas.push(geomean(&speedups) - 1.0);
        }
        rows.push((category.label().to_owned(), deltas));
    }
    let geomean_row: Vec<f64> = per_kind_all.iter().map(|s| geomean(s) - 1.0).collect();
    rows.push(("GEOMEAN".to_owned(), geomean_row));
    Ok(CategoryPerformance {
        figure: figure.to_owned(),
        kinds: kinds.to_vec(),
        rows,
    })
}

/// Figure 4: BOP, SMS and SPP per category over the baseline (1-channel
/// DDR4-2133).
pub fn fig4_baseline_prefetchers(scale: &RunScale) -> Result<CategoryPerformance, HarnessError> {
    category_performance(
        "Figure 4: BOP / SMS / SPP performance delta over baseline",
        &[
            PrefetcherKind::Bop,
            PrefetcherKind::Sms,
            PrefetcherKind::Spp,
        ],
        ConfigSpec::single_thread(),
        scale,
    )
}

/// Figure 12: the full single-thread line-up including DSPatch and
/// DSPatch+SPP.
pub fn fig12_single_thread(scale: &RunScale) -> Result<CategoryPerformance, HarnessError> {
    category_performance(
        "Figure 12: single-thread performance delta over baseline",
        &PrefetcherKind::standalone_lineup(),
        ConfigSpec::single_thread(),
        scale,
    )
}

/// Figure 14: adjunct prefetchers on top of SPP.
pub fn fig14_adjuncts(scale: &RunScale) -> Result<CategoryPerformance, HarnessError> {
    category_performance(
        "Figure 14: adjunct prefetchers to SPP",
        &PrefetcherKind::adjunct_lineup(),
        ConfigSpec::single_thread(),
        scale,
    )
}

/// One point of a bandwidth-scaling sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthPoint {
    /// DRAM configuration label ("1ch-2133").
    pub dram: String,
    /// Peak bandwidth in GB/s (the x axis of Figures 1, 6 and 15).
    pub peak_gbps: f64,
    /// Per-prefetcher performance delta over the baseline at this point.
    pub deltas: Vec<(PrefetcherKind, f64)>,
}

/// A bandwidth-scaling sweep (Figures 1, 6 and 15).
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthScaling {
    /// Figure name.
    pub figure: String,
    /// One entry per DRAM configuration, in increasing peak bandwidth.
    pub points: Vec<BandwidthPoint>,
}

impl BandwidthScaling {
    /// Renders the sweep as a table (rows = DRAM configs, columns =
    /// prefetchers).
    pub fn to_table(&self) -> Table {
        let kinds: Vec<PrefetcherKind> = self
            .points
            .first()
            .map(|p| p.deltas.iter().map(|(k, _)| *k).collect())
            .unwrap_or_default();
        let mut headers = vec!["DRAM".to_owned(), "Peak GB/s".to_owned()];
        headers.extend(kinds.iter().map(|k| k.label().to_owned()));
        let mut table = Table::new(self.figure.clone(), headers);
        for point in &self.points {
            let mut row = vec![point.dram.clone(), format!("{:.1}", point.peak_gbps)];
            row.extend(point.deltas.iter().map(|(_, d)| percent(*d)));
            table.add_row(row);
        }
        table
    }
}

/// One cell per DRAM configuration over the memory-intensive subset. The
/// engine memoizes each (workload, DRAM config) baseline across all kinds.
fn bandwidth_scaling(
    figure: &str,
    kinds: &[PrefetcherKind],
    scale: &RunScale,
) -> Result<BandwidthScaling, HarnessError> {
    let sweep = SystemConfig::bandwidth_sweep();
    let spec = CampaignSpec {
        name: figure.to_owned(),
        scale: None,
        cells: sweep
            .iter()
            .map(|&(channels, speed)| CellSpec {
                label: DramConfig::with_speed(channels, speed).label(),
                targets: TargetSelector::MemoryIntensive,
                prefetchers: sels(kinds),
                config: ConfigSpec::single_thread().with_dram(channels, speed),
                baseline: true,
            })
            .collect(),
    };
    let result = run_figure_spec(&spec, scale)?;
    let mut points: Vec<BandwidthPoint> = sweep
        .iter()
        .map(|&(channels, speed)| {
            let dram = DramConfig::with_speed(channels, speed);
            let label = dram.label();
            let deltas = kinds
                .iter()
                .map(|kind| {
                    let speedups = result.speedups(&label, kind.label());
                    (*kind, geomean(&speedups) - 1.0)
                })
                .collect();
            BandwidthPoint {
                dram: label,
                peak_gbps: dram.peak_bandwidth_gbps(),
                deltas,
            }
        })
        .collect();
    points.sort_by(|a, b| a.peak_gbps.total_cmp(&b.peak_gbps));
    Ok(BandwidthScaling {
        figure: figure.to_owned(),
        points,
    })
}

/// Figure 1: BOP / SMS / SPP performance as peak DRAM bandwidth scales.
pub fn fig1_bandwidth_scaling_baselines(
    scale: &RunScale,
) -> Result<BandwidthScaling, HarnessError> {
    bandwidth_scaling(
        "Figure 1: prefetcher performance scaling with DRAM bandwidth",
        &[
            PrefetcherKind::Bop,
            PrefetcherKind::Sms,
            PrefetcherKind::Spp,
        ],
        scale,
    )
}

/// Figure 6: adds the bandwidth-enhanced eSPP and eBOP variants.
pub fn fig6_bandwidth_scaling_enhanced(scale: &RunScale) -> Result<BandwidthScaling, HarnessError> {
    bandwidth_scaling(
        "Figure 6: bandwidth scaling including eSPP and eBOP",
        &[
            PrefetcherKind::Bop,
            PrefetcherKind::Sms,
            PrefetcherKind::Spp,
            PrefetcherKind::Espp,
            PrefetcherKind::Ebop,
        ],
        scale,
    )
}

/// Figure 15: adds eBOP+SPP and DSPatch+SPP.
pub fn fig15_bandwidth_scaling_dspatch(scale: &RunScale) -> Result<BandwidthScaling, HarnessError> {
    bandwidth_scaling(
        "Figure 15: performance scaling with DRAM bandwidth (DSPatch+SPP)",
        &[
            PrefetcherKind::Bop,
            PrefetcherKind::Sms,
            PrefetcherKind::Spp,
            PrefetcherKind::EbopPlusSpp,
            PrefetcherKind::DspatchPlusSpp,
        ],
        scale,
    )
}

/// Figure 5: SMS performance as its pattern-history table shrinks.
#[derive(Debug, Clone, PartialEq)]
pub struct SmsStorageSweep {
    /// `(PHT entries, storage KB, performance delta over baseline)` rows.
    pub rows: Vec<(usize, f64, f64)>,
}

impl SmsStorageSweep {
    /// Renders the sweep.
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(
            "Figure 5: SMS performance vs pattern-history-table size",
            vec![
                "PHT entries".into(),
                "Storage (KB)".into(),
                "Perf delta".into(),
            ],
        );
        for (entries, kb, delta) in &self.rows {
            table.add_row(vec![
                entries.to_string(),
                format!("{kb:.1}"),
                percent(*delta),
            ]);
        }
        table
    }
}

/// Figure 5: sweep the SMS PHT from 16 K entries down to 256. One campaign
/// cell whose four columns are parameterized [`PrefetcherSel::SmsPht`]
/// variants; each workload's baseline simulates once for all four sweep
/// points (previously once per point).
pub fn fig5_sms_storage_sweep(scale: &RunScale) -> Result<SmsStorageSweep, HarnessError> {
    use dspatch_prefetchers::{SmsConfig, SmsPrefetcher};
    const PHT_SIZES: [usize; 4] = [16 * 1024, 4 * 1024, 1024, 256];
    let spec = CampaignSpec::single_cell(
        "Figure 5: SMS storage sweep",
        CellSpec {
            label: "suite".to_owned(),
            targets: TargetSelector::Suite,
            prefetchers: PHT_SIZES.into_iter().map(PrefetcherSel::SmsPht).collect(),
            config: ConfigSpec::single_thread(),
            baseline: true,
        },
    );
    let result = run_figure_spec(&spec, scale)?;
    let rows = PHT_SIZES
        .into_iter()
        .map(|entries| {
            let storage_kb = SmsPrefetcher::new(SmsConfig::with_pht_entries(entries)).storage_bits()
                as f64
                / 8.0
                / 1024.0;
            let speedups = result.speedups("suite", &PrefetcherSel::SmsPht(entries).label());
            (entries, storage_kb, geomean(&speedups) - 1.0)
        })
        .collect();
    Ok(SmsStorageSweep { rows })
}

/// Figure 11: delta-occurrence distribution and the misprediction rate
/// induced by 128 B-granularity pattern compression.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaCompressionStudy {
    /// Fraction of consecutive-access deltas equal to +1 or -1.
    pub plus_minus_one_fraction: f64,
    /// Fraction of deltas equal to +2 or +3.
    pub small_delta_fraction: f64,
    /// Histogram of per-page compression misprediction rates, bucketed as in
    /// Figure 11(b): exactly 0 %, (0, 12.5 %], (12.5, 25 %], (25, 37 %],
    /// (37, 50 %), exactly 50 %.
    pub misprediction_buckets: [f64; 6],
}

impl DeltaCompressionStudy {
    /// Renders both panels as one table.
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(
            "Figure 11: delta distribution and 128B-compression mispredictions",
            vec!["Metric".into(), "Value".into()],
        );
        table.add_row(vec![
            "+1/-1 delta share".into(),
            percent(self.plus_minus_one_fraction),
        ]);
        table.add_row(vec![
            "+2/+3 delta share".into(),
            percent(self.small_delta_fraction),
        ]);
        let labels = ["0%", "0-12.5%", "12.5-25%", "25-37%", "37-50%", "50%"];
        for (label, value) in labels.iter().zip(self.misprediction_buckets.iter()) {
            table.add_row(vec![
                format!("compression misprediction {label}"),
                percent(*value),
            ]);
        }
        table
    }
}

/// Figure 11: pure trace analysis, no simulation (and therefore the one
/// figure that bypasses the campaign executor — there are no sims to run).
pub fn fig11_delta_and_compression(scale: &RunScale) -> DeltaCompressionStudy {
    let workloads = scale.select_workloads(suite());
    let mut delta_total = 0u64;
    let mut delta_unit = 0u64;
    let mut delta_small = 0u64;
    let mut buckets = [0u64; 6];
    let mut pages_total = 0u64;
    for workload in &workloads {
        // The analysis is a single forward pass, so the workload streams
        // through it record by record — no trace is materialized.
        let mut source = workload.source(scale.accesses_per_workload);
        // Per-page delta statistics and access patterns.
        let mut last_offset: BTreeMap<u64, usize> = BTreeMap::new();
        let mut patterns: BTreeMap<u64, SpatialPattern> = BTreeMap::new();
        while let Some(record) = source.next_record() {
            let page = record.addr.page().as_u64();
            let offset = record.addr.page_line_offset();
            if let Some(previous) = last_offset.insert(page, offset) {
                let delta = offset as i64 - previous as i64;
                if delta != 0 {
                    delta_total += 1;
                    if delta.abs() == 1 {
                        delta_unit += 1;
                    } else if delta == 2 || delta == 3 {
                        delta_small += 1;
                    }
                }
            }
            patterns.entry(page).or_default().set(offset);
        }
        for pattern in patterns.values() {
            let real = pattern.popcount();
            if real == 0 {
                continue;
            }
            let mispredicted = CompressedPattern::compression_mispredictions(*pattern);
            let predicted = pattern.compress().decompress().popcount();
            let rate = mispredicted as f64 / predicted.max(1) as f64;
            pages_total += 1;
            let bucket = if mispredicted == 0 {
                0
            } else if rate <= 0.125 {
                1
            } else if rate <= 0.25 {
                2
            } else if rate <= 0.37 {
                3
            } else if rate < 0.5 {
                4
            } else {
                5
            };
            buckets[bucket] += 1;
        }
    }
    let fraction = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    DeltaCompressionStudy {
        plus_minus_one_fraction: fraction(delta_unit, delta_total),
        small_delta_fraction: fraction(delta_small, delta_total),
        misprediction_buckets: std::array::from_fn(|i| fraction(buckets[i], pages_total)),
    }
}

/// Figure 13: per-workload speedups on the 42 memory-intensive workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryIntensiveLine {
    /// Prefetchers plotted.
    pub kinds: Vec<PrefetcherKind>,
    /// `(workload, per-kind delta)` rows sorted by the last kind's delta.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl MemoryIntensiveLine {
    /// Renders the line graph data as a table.
    pub fn to_table(&self) -> Table {
        let mut headers = vec!["Workload".to_owned()];
        headers.extend(self.kinds.iter().map(|k| k.label().to_owned()));
        let mut table = Table::new("Figure 13: memory-intensive workloads", headers);
        for (name, deltas) in &self.rows {
            let mut row = vec![name.clone()];
            row.extend(deltas.iter().map(|d| percent(*d)));
            table.add_row(row);
        }
        table
    }
}

/// Figure 13: SMS, SPP and DSPatch+SPP on the memory-intensive subset.
pub fn fig13_memory_intensive(scale: &RunScale) -> Result<MemoryIntensiveLine, HarnessError> {
    let kinds = vec![
        PrefetcherKind::Sms,
        PrefetcherKind::Spp,
        PrefetcherKind::DspatchPlusSpp,
    ];
    let spec = CampaignSpec::single_cell(
        "Figure 13: memory-intensive workloads",
        CellSpec {
            label: "memory-intensive".to_owned(),
            targets: TargetSelector::MemoryIntensive,
            prefetchers: sels(&kinds),
            config: ConfigSpec::single_thread(),
            baseline: true,
        },
    );
    let result = run_figure_spec(&spec, scale)?;
    let names: Vec<String> = result
        .rows_for_cell("memory-intensive")
        .filter(|row| row.prefetcher == kinds[0].label())
        .map(|row| row.target.clone())
        .collect();
    let per_kind: Vec<Vec<f64>> = kinds
        .iter()
        .map(|kind| result.speedups("memory-intensive", kind.label()))
        .collect();
    let mut rows: Vec<(String, Vec<f64>)> = names
        .into_iter()
        .enumerate()
        .map(|(i, name)| {
            (
                name,
                per_kind.iter().map(|speedups| speedups[i] - 1.0).collect(),
            )
        })
        .collect();
    rows.sort_by(|a, b| {
        let last_a = a.1.last().copied().unwrap_or(0.0);
        let last_b = b.1.last().copied().unwrap_or(0.0);
        last_a.total_cmp(&last_b)
    });
    Ok(MemoryIntensiveLine { kinds, rows })
}

/// Figure 16: covered / uncovered / mispredicted fractions of L2 accesses.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageReport {
    /// `(category, prefetcher, covered, uncovered, mispredicted)` rows.
    pub rows: Vec<(String, PrefetcherKind, f64, f64, f64)>,
}

impl CoverageReport {
    /// Renders the coverage report.
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(
            "Figure 16: coverage and mispredictions (fractions of L2 accesses)",
            vec![
                "Category".into(),
                "Prefetcher".into(),
                "Covered".into(),
                "Uncovered".into(),
                "Mispredicted".into(),
            ],
        );
        for (category, kind, covered, uncovered, mispredicted) in &self.rows {
            table.add_row(vec![
                category.clone(),
                kind.label().to_owned(),
                percent(*covered),
                percent(*uncovered),
                percent(*mispredicted),
            ]);
        }
        table
    }
}

/// Figure 16: coverage and misprediction fractions per category for the
/// standalone line-up plus DSPatch+SPP. Coverage needs raw statistics, not
/// speedups, so the cells run without baselines.
pub fn fig16_coverage(scale: &RunScale) -> Result<CoverageReport, HarnessError> {
    let kinds = [
        PrefetcherKind::Bop,
        PrefetcherKind::Sms,
        PrefetcherKind::Spp,
        PrefetcherKind::DspatchPlusSpp,
    ];
    let spec = CampaignSpec {
        name: "Figure 16: coverage and mispredictions".to_owned(),
        scale: None,
        cells: WorkloadCategory::ALL
            .into_iter()
            .map(|category| CellSpec {
                label: category.label().to_owned(),
                targets: TargetSelector::Category(category),
                prefetchers: sels(&kinds),
                config: ConfigSpec::single_thread(),
                baseline: false,
            })
            .collect(),
    };
    let result = run_figure_spec(&spec, scale)?;
    let mut rows = Vec::new();
    for category in WorkloadCategory::ALL {
        for kind in kinds {
            let mut acc = dspatch_sim::PrefetchAccounting::default();
            for row in result
                .rows_for_cell(category.label())
                .filter(|row| row.prefetcher == kind.label())
            {
                acc.merge(&result.sim_of(row).total_accounting());
            }
            rows.push((
                category.label().to_owned(),
                kind,
                acc.coverage(),
                acc.uncovered_fraction(),
                acc.misprediction_fraction(),
            ));
        }
    }
    Ok(CoverageReport { rows })
}

/// Figures 17 and 18: multi-programmed performance.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiProgrammedReport {
    /// `(configuration label, prefetcher, delta over baseline)` rows.
    pub rows: Vec<(String, PrefetcherKind, f64)>,
}

impl MultiProgrammedReport {
    /// Renders the report.
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(
            "Multi-programmed performance delta over baseline",
            vec![
                "Configuration".into(),
                "Prefetcher".into(),
                "Perf delta".into(),
            ],
        );
        for (label, kind, delta) in &self.rows {
            table.add_row(vec![
                label.clone(),
                kind.label().to_owned(),
                percent(*delta),
            ]);
        }
        table
    }

    /// The delta of `kind` under `label`.
    pub fn delta_of(&self, label: &str, kind: PrefetcherKind) -> Option<f64> {
        self.rows
            .iter()
            .find(|(l, k, _)| l == label && *k == kind)
            .map(|(_, _, d)| *d)
    }
}

/// Aggregates one mix cell of a multi-programmed campaign into the
/// per-kind geomean rows of Figures 17/18.
fn mix_rows(
    result: &CampaignResult,
    cell: &str,
    kinds: &[PrefetcherKind],
) -> Vec<(String, PrefetcherKind, f64)> {
    kinds
        .iter()
        .map(|kind| {
            let speedups = result.speedups(cell, kind.label());
            (cell.to_owned(), *kind, geomean(&speedups) - 1.0)
        })
        .collect()
}

/// Figure 17: homogeneous 4-core mixes on the dual-channel DDR4-2133 system.
/// Mixes run through the same shared-queue parallel executor as single-thread
/// workloads (they were fully serial before the Campaign redesign).
pub fn fig17_homogeneous(scale: &RunScale) -> Result<MultiProgrammedReport, HarnessError> {
    let kinds = [
        PrefetcherKind::Bop,
        PrefetcherKind::Sms,
        PrefetcherKind::Spp,
        PrefetcherKind::DspatchPlusSpp,
    ];
    let label = "homogeneous DDR4-2133";
    let spec = CampaignSpec::single_cell(
        "Figure 17: homogeneous multi-programmed mixes",
        CellSpec {
            label: label.to_owned(),
            targets: TargetSelector::HomogeneousMixes { cores: 4 },
            prefetchers: sels(&kinds),
            config: ConfigSpec::multi_programmed(),
            baseline: true,
        },
    );
    let result = run_figure_spec(&spec, scale)?;
    Ok(MultiProgrammedReport {
        rows: mix_rows(&result, label, &kinds),
    })
}

/// Figure 18: homogeneous and heterogeneous mixes at DDR4-2133 and DDR4-2400.
pub fn fig18_mixes_and_bandwidth(scale: &RunScale) -> Result<MultiProgrammedReport, HarnessError> {
    let kinds = [
        PrefetcherKind::Bop,
        PrefetcherKind::Sms,
        PrefetcherKind::Spp,
        PrefetcherKind::DspatchPlusSpp,
    ];
    let speeds = [DramSpeedGrade::Ddr4_2133, DramSpeedGrade::Ddr4_2400];
    let mut cells = Vec::new();
    for speed in speeds {
        let config = ConfigSpec::multi_programmed().with_dram(2, speed);
        cells.push(CellSpec {
            label: format!("homogeneous DDR4-{}", speed.label()),
            targets: TargetSelector::HomogeneousMixes { cores: 4 },
            prefetchers: sels(&kinds),
            config,
            baseline: true,
        });
        cells.push(CellSpec {
            label: format!("heterogeneous DDR4-{}", speed.label()),
            targets: TargetSelector::HeterogeneousMixes {
                count: 75,
                cores: 4,
                seed: 0xD5,
            },
            prefetchers: sels(&kinds),
            config,
            baseline: true,
        });
    }
    let spec = CampaignSpec {
        name: "Figure 18: mixes across DRAM speeds".to_owned(),
        scale: None,
        cells,
    };
    let result = run_figure_spec(&spec, scale)?;
    let mut rows = Vec::new();
    for cell in &spec.cells {
        rows.extend(mix_rows(&result, &cell.label, &kinds));
    }
    Ok(MultiProgrammedReport { rows })
}

/// Figure 19: the accuracy-biased-pattern ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationReport {
    /// `(variant, delta over baseline)` rows.
    pub rows: Vec<(PrefetcherKind, f64)>,
}

impl AblationReport {
    /// Renders the report.
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(
            "Figure 19: contribution of the accuracy-biased pattern",
            vec!["Variant".into(), "Perf delta".into()],
        );
        for (kind, delta) in &self.rows {
            table.add_row(vec![kind.label().to_owned(), percent(*delta)]);
        }
        table
    }

    /// The delta of one variant.
    pub fn delta_of(&self, kind: PrefetcherKind) -> Option<f64> {
        self.rows.iter().find(|(k, _)| *k == kind).map(|(_, d)| *d)
    }
}

/// Figure 19: full DSPatch vs AlwaysCovP vs ModCovP (as adjuncts to SPP), on
/// the memory-intensive subset with half the DRAM bandwidth per core so the
/// bandwidth-driven selection matters.
pub fn fig19_ablation(scale: &RunScale) -> Result<AblationReport, HarnessError> {
    let kinds = [
        PrefetcherKind::DspatchPlusSpp,
        PrefetcherKind::AlwaysCovpPlusSpp,
        PrefetcherKind::ModCovpPlusSpp,
    ];
    let spec = CampaignSpec::single_cell(
        "Figure 19: accuracy-biased-pattern ablation",
        CellSpec {
            label: "ablation".to_owned(),
            targets: TargetSelector::MemoryIntensive,
            prefetchers: sels(&kinds),
            config: ConfigSpec::single_thread().with_dram(1, DramSpeedGrade::Ddr4_1600),
            baseline: true,
        },
    );
    let result = run_figure_spec(&spec, scale)?;
    let rows = kinds
        .iter()
        .map(|kind| {
            let speedups = result.speedups("ablation", kind.label());
            (*kind, geomean(&speedups) - 1.0)
        })
        .collect();
    Ok(AblationReport { rows })
}

/// Figure 20: pollution caused by an aggressive, inaccurate streamer.
#[derive(Debug, Clone, PartialEq)]
pub struct PollutionReport {
    /// `(LLC size label, NoReuse, PrefetchedBeforeUse, BadPollution)` rows,
    /// fractions of all classified victims.
    pub rows: Vec<(String, f64, f64, f64)>,
}

impl PollutionReport {
    /// Renders the report.
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(
            "Figure 20: breakdown of LLC victims evicted by prefetches",
            vec![
                "LLC size".into(),
                "NoReuse".into(),
                "PrefetchedBeforeUse".into(),
                "BadPollution".into(),
            ],
        );
        for (label, a, b, c) in &self.rows {
            table.add_row(vec![label.clone(), percent(*a), percent(*b), percent(*c)]);
        }
        table
    }
}

/// Figure 20: run the streamer on the workload suite with 8, 4 and 2 MB LLCs
/// and classify the victims of its prefetch fills. Pure-statistics cells:
/// no baselines are simulated.
pub fn fig20_pollution(scale: &RunScale) -> Result<PollutionReport, HarnessError> {
    const LLC_SIZES: [(&str, usize); 3] = [("8MB", 8 << 20), ("4MB", 4 << 20), ("2MB", 2 << 20)];
    let spec = CampaignSpec {
        name: "Figure 20: prefetch pollution".to_owned(),
        scale: None,
        cells: LLC_SIZES
            .into_iter()
            .map(|(label, bytes)| CellSpec {
                label: label.to_owned(),
                targets: TargetSelector::MemoryIntensive,
                prefetchers: vec![PrefetcherSel::Kind(PrefetcherKind::Streamer)],
                config: ConfigSpec::single_thread().with_llc_bytes(bytes),
                baseline: false,
            })
            .collect(),
    };
    let result = run_figure_spec(&spec, scale)?;
    let rows = LLC_SIZES
        .into_iter()
        .map(|(label, _)| {
            let mut totals = dspatch_sim::PollutionBreakdown::default();
            for row in result.rows_for_cell(label) {
                let pollution = &result.sim_of(row).pollution;
                totals.no_reuse += pollution.no_reuse;
                totals.prefetched_before_use += pollution.prefetched_before_use;
                totals.bad_pollution += pollution.bad_pollution;
            }
            let (a, b, c) = totals.fractions();
            (label.to_owned(), a, b, c)
        })
        .collect();
    Ok(PollutionReport { rows })
}

/// Table 1: DSPatch storage budget.
pub fn table1_storage() -> Table {
    let breakdown = StorageBreakdown::for_config(&DsPatchConfig::default());
    let mut table = Table::new(
        "Table 1: DSPatch storage overhead",
        vec![
            "Structure".into(),
            "Entries".into(),
            "Bits/entry".into(),
            "Total bits".into(),
        ],
    );
    table.add_row(vec![
        "PB".into(),
        breakdown.pb_entries.to_string(),
        breakdown.pb_entry_bits.to_string(),
        breakdown.pb_bits().to_string(),
    ]);
    table.add_row(vec![
        "SPT".into(),
        breakdown.spt_entries.to_string(),
        breakdown.spt_entry_bits.to_string(),
        breakdown.spt_bits().to_string(),
    ]);
    table.add_row(vec![
        "Total".into(),
        String::new(),
        String::new(),
        format!(
            "{} ({:.1} KB)",
            breakdown.total_bits(),
            breakdown.total_kib()
        ),
    ]);
    table
}

/// Table 3: storage of every evaluated prefetcher.
pub fn table3_prefetcher_storage() -> Table {
    let mut table = Table::new(
        "Table 3: evaluated prefetcher configurations",
        vec!["Prefetcher".into(), "Storage (KB)".into()],
    );
    for kind in [
        PrefetcherKind::Bop,
        PrefetcherKind::Dspatch,
        PrefetcherKind::Spp,
        PrefetcherKind::SmsIso,
        PrefetcherKind::Sms,
    ] {
        let kb = kind.build_any().storage_bits() as f64 / 8.0 / 1024.0;
        table.add_row(vec![kind.label().to_owned(), format!("{kb:.1}")]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunScale {
        RunScale {
            accesses_per_workload: 800,
            workloads_per_category: 1,
            mixes: 1,
            threads: 4,
            sampling: None,
        }
    }

    #[test]
    fn table1_reproduces_the_paper_budget() {
        let text = table1_storage().render();
        assert!(text.contains("10112"));
        assert!(text.contains("19456"));
        assert!(text.contains("3.6 KB"));
    }

    #[test]
    fn table3_orders_prefetchers_by_storage() {
        let text = table3_prefetcher_storage().render();
        assert!(text.contains("BOP"));
        assert!(text.contains("SMS"));
        assert!(text.contains("DSPatch"));
    }

    #[test]
    fn fig11_finds_unit_strides_dominant() {
        let study = fig11_delta_and_compression(&tiny());
        assert!(study.plus_minus_one_fraction > 0.2);
        let sum: f64 = study.misprediction_buckets.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-6,
            "bucket fractions must sum to 1, got {sum}"
        );
    }

    #[test]
    fn fig4_produces_a_row_per_category_plus_geomean() {
        let fig = fig4_baseline_prefetchers(&tiny()).expect("figure runs");
        assert_eq!(fig.rows.len(), 10);
        assert!(fig.geomean_delta(PrefetcherKind::Spp).is_some());
        assert!(fig.to_table().render().contains("GEOMEAN"));
    }

    #[test]
    fn fig19_reports_all_three_variants() {
        let ablation = fig19_ablation(&tiny()).expect("figure runs");
        assert_eq!(ablation.rows.len(), 3);
        assert!(ablation.delta_of(PrefetcherKind::DspatchPlusSpp).is_some());
    }

    #[test]
    fn fig20_fractions_are_valid() {
        let report = fig20_pollution(&tiny()).expect("figure runs");
        assert_eq!(report.rows.len(), 3);
        for (_, a, b, c) in &report.rows {
            let sum = a + b + c;
            assert!(sum == 0.0 || (sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn fig5_sweeps_four_pht_sizes_with_one_baseline_each() {
        let sweep = fig5_sms_storage_sweep(&tiny()).expect("figure runs");
        assert_eq!(sweep.rows.len(), 4);
        // Rows are ordered largest PHT first and storage shrinks with it.
        assert!(sweep.rows[0].1 > sweep.rows[3].1);
    }
}
