//! The one canonical result-row schema every persistence and reporting
//! layer serializes through.
//!
//! A [`ResultRow`] records one fact — "this (workload, prefetcher, config,
//! scale, code version) cell produced these stats" — in the single shape
//! the content-addressed store and the analytics layer share. It spells
//! the cell identity out as typed fields (the exact components of
//! [`crate::store::cell_fingerprint`], which remains the content
//! address), carries the full exactly-serialized [`SimResult`], and is
//! encoded with a `"schema": 2` tag. A row of any other schema is refused
//! by the store rather than read.
//!
//! The `SimResult` round-trip is exact: `u64` counters encode as JSON
//! numbers below 2^53 and as decimal strings above, `f64` fields rely on
//! the emitter's shortest-round-trip rendering, and the optional
//! `sampling` block is absent (never `null`) on exact runs — so a row
//! parsed from a store file re-renders byte-identically
//! (`tests/schema_upgrade.rs` proves it against a committed fixture).

use crate::json::Json;
use dspatch_sim::stats::{IntervalEstimate, SamplingStats};
use dspatch_sim::{
    CacheGeometry, CacheStats, CoreResult, DramStats, PollutionBreakdown, PrefetchAccounting,
    SimResult,
};

/// Schema version stamped on every row, and the only one read back.
pub const SCHEMA_VERSION: u64 = 2;

/// One simulated cell: the spelled-out fingerprint identity plus the full
/// statistics, in the single canonical JSON encoding.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRow {
    /// Content address ([`crate::store::cell_fingerprint`]),
    /// 16 hex digits.
    pub fingerprint: String,
    /// Campaign (figure) name the cell was first simulated for. Not part
    /// of the fingerprint: identical cells are shared across campaigns, so
    /// this records the first requester.
    pub figure: String,
    /// Target (workload or mix) display name.
    pub workload: String,
    /// Prefetcher display label ([`crate::campaign::PrefetcherSel::label`]).
    pub prefetcher: String,
    /// Config display label.
    pub config: String,
    /// Accesses per workload.
    pub scale: u64,
    /// Sampling-plan fingerprint suffix
    /// ([`crate::sampling::SamplingPlan::fingerprint_suffix`]), empty for
    /// exact runs.
    pub sampling: String,
    /// Crate version that simulated the cell
    /// ([`crate::store::code_version`]).
    pub code_version: String,
    /// The full simulation statistics.
    pub result: SimResult,
}

impl ResultRow {
    /// Builds a current-schema row for a freshly simulated cell.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        fingerprint: String,
        figure: String,
        workload: String,
        prefetcher: String,
        config: String,
        scale: u64,
        sampling: String,
        result: SimResult,
    ) -> Self {
        Self {
            fingerprint,
            figure,
            workload,
            prefetcher,
            config,
            scale,
            sampling,
            code_version: crate::store::code_version().to_owned(),
            result,
        }
    }

    /// The canonical JSON encoding: one object, fixed key order, with the
    /// exactly-serialized result as its last field.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", json_u64(SCHEMA_VERSION)),
            ("fingerprint", Json::str(&self.fingerprint)),
            ("figure", Json::str(&self.figure)),
            ("workload", Json::str(&self.workload)),
            ("prefetcher", Json::str(&self.prefetcher)),
            ("config", Json::str(&self.config)),
            ("scale", json_u64(self.scale)),
            ("sampling", Json::str(&self.sampling)),
            ("code_version", Json::str(&self.code_version)),
            ("result", sim_result_to_json(&self.result)),
        ])
    }

    /// Parses the canonical encoding, the exact inverse of
    /// [`ResultRow::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or mistyped field, or a
    /// schema other than [`SCHEMA_VERSION`].
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let schema = get_u64(json, "schema", "result row")?;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "result row: schema {schema} is not the supported {SCHEMA_VERSION}"
            ));
        }
        Ok(Self {
            fingerprint: get_str(json, "fingerprint", "result row")?.to_owned(),
            figure: get_str(json, "figure", "result row")?.to_owned(),
            workload: get_str(json, "workload", "result row")?.to_owned(),
            prefetcher: get_str(json, "prefetcher", "result row")?.to_owned(),
            config: get_str(json, "config", "result row")?.to_owned(),
            scale: get_u64(json, "scale", "result row")?,
            sampling: get_str(json, "sampling", "result row")?.to_owned(),
            code_version: get_str(json, "code_version", "result row")?.to_owned(),
            result: sim_result_from_json(get(json, "result", "result row")?)?,
        })
    }
}

/// Mean per-core IPC of a simulation — the single IPC aggregation every
/// report renderer and the analytics layer use.
pub fn mean_ipc(sim: &SimResult) -> f64 {
    sim.cores.iter().map(CoreResult::ipc).sum::<f64>() / sim.cores.len().max(1) as f64
}

fn json_u64(value: u64) -> Json {
    // Exact round-trip: JSON numbers are f64, so values at or above 2^53
    // travel as decimal strings (the parser accepts both forms).
    if value < (1u64 << 53) {
        Json::num(value as f64)
    } else {
        Json::str(value.to_string())
    }
}

fn get<'a>(obj: &'a Json, key: &str, context: &str) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("{context}: missing '{key}'"))
}

fn get_u64(obj: &Json, key: &str, context: &str) -> Result<u64, String> {
    let value = get(obj, key, context)?;
    if let Some(text) = value.as_str() {
        return text
            .parse::<u64>()
            .map_err(|_| format!("{context}: '{key}' string is not a u64: '{text}'"));
    }
    value
        .as_u64()
        .ok_or_else(|| format!("{context}: '{key}' must be a non-negative integer"))
}

fn get_f64(obj: &Json, key: &str, context: &str) -> Result<f64, String> {
    get(obj, key, context)?
        .as_f64()
        .ok_or_else(|| format!("{context}: '{key}' must be a number"))
}

fn get_str<'a>(obj: &'a Json, key: &str, context: &str) -> Result<&'a str, String> {
    get(obj, key, context)?
        .as_str()
        .ok_or_else(|| format!("{context}: '{key}' must be a string"))
}

fn cache_stats_to_json(stats: &CacheStats) -> Json {
    Json::obj([
        ("demand_hits", json_u64(stats.demand_hits)),
        ("demand_misses", json_u64(stats.demand_misses)),
        ("demand_fills", json_u64(stats.demand_fills)),
        ("prefetch_fills", json_u64(stats.prefetch_fills)),
        ("prefetch_first_uses", json_u64(stats.prefetch_first_uses)),
        (
            "prefetch_unused_evictions",
            json_u64(stats.prefetch_unused_evictions),
        ),
    ])
}

fn cache_stats_from_json(json: &Json, context: &str) -> Result<CacheStats, String> {
    Ok(CacheStats {
        demand_hits: get_u64(json, "demand_hits", context)?,
        demand_misses: get_u64(json, "demand_misses", context)?,
        demand_fills: get_u64(json, "demand_fills", context)?,
        prefetch_fills: get_u64(json, "prefetch_fills", context)?,
        prefetch_first_uses: get_u64(json, "prefetch_first_uses", context)?,
        prefetch_unused_evictions: get_u64(json, "prefetch_unused_evictions", context)?,
    })
}

fn accounting_to_json(accounting: &PrefetchAccounting) -> Json {
    Json::obj([
        (
            "l2_demand_accesses",
            json_u64(accounting.l2_demand_accesses),
        ),
        ("covered", json_u64(accounting.covered)),
        ("uncovered", json_u64(accounting.uncovered)),
        ("prefetches_issued", json_u64(accounting.prefetches_issued)),
        ("prefetches_used", json_u64(accounting.prefetches_used)),
        ("prefetches_unused", json_u64(accounting.prefetches_unused)),
    ])
}

fn accounting_from_json(json: &Json, context: &str) -> Result<PrefetchAccounting, String> {
    Ok(PrefetchAccounting {
        l2_demand_accesses: get_u64(json, "l2_demand_accesses", context)?,
        covered: get_u64(json, "covered", context)?,
        uncovered: get_u64(json, "uncovered", context)?,
        prefetches_issued: get_u64(json, "prefetches_issued", context)?,
        prefetches_used: get_u64(json, "prefetches_used", context)?,
        prefetches_unused: get_u64(json, "prefetches_unused", context)?,
    })
}

/// Serializes a full [`SimResult`], exactly.
pub fn sim_result_to_json(sim: &SimResult) -> Json {
    let cores = sim.cores.iter().map(|core| {
        Json::obj([
            ("workload", Json::str(&core.workload)),
            ("prefetcher", Json::str(&core.prefetcher)),
            ("instructions", json_u64(core.instructions)),
            ("finish_cycle", json_u64(core.finish_cycle)),
            ("l1", cache_stats_to_json(&core.l1)),
            ("l2", cache_stats_to_json(&core.l2)),
            ("accounting", accounting_to_json(&core.accounting)),
        ])
    });
    let geometry = sim.cache_geometry.iter().map(|geom| {
        Json::obj([
            ("name", Json::str(&geom.name)),
            ("requested_bytes", json_u64(geom.requested_bytes as u64)),
            ("ways", json_u64(geom.ways as u64)),
            ("sets", json_u64(geom.sets as u64)),
            ("effective_bytes", json_u64(geom.effective_bytes as u64)),
            ("rounded", Json::Bool(geom.rounded)),
        ])
    });
    let mut json = Json::obj([
        ("cores", Json::Arr(cores.collect())),
        ("llc", cache_stats_to_json(&sim.llc)),
        (
            "dram",
            Json::obj([
                ("cas_commands", json_u64(sim.dram.cas_commands)),
                ("row_hits", json_u64(sim.dram.row_hits)),
                ("row_misses", json_u64(sim.dram.row_misses)),
                ("prefetch_accesses", json_u64(sim.dram.prefetch_accesses)),
                // f64: the emitter's shortest-round-trip rendering is exact.
                ("utilization_sum", Json::num(sim.dram.utilization_sum)),
                ("windows", json_u64(sim.dram.windows)),
            ]),
        ),
        (
            "pollution",
            Json::obj([
                ("no_reuse", json_u64(sim.pollution.no_reuse)),
                (
                    "prefetched_before_use",
                    json_u64(sim.pollution.prefetched_before_use),
                ),
                ("bad_pollution", json_u64(sim.pollution.bad_pollution)),
            ]),
        ),
        ("cycles", json_u64(sim.cycles)),
        ("cache_geometry", Json::Arr(geometry.collect())),
    ]);
    // Exact runs keep their historical byte layout: the key only appears
    // for sampled results.
    if let Some(stats) = &sim.sampling {
        if let Json::Obj(entries) = &mut json {
            entries.push(("sampling".to_owned(), sampling_stats_to_json(stats)));
        }
    }
    json
}

fn estimate_to_json(estimate: &IntervalEstimate) -> Json {
    Json::obj([
        ("mean", Json::num(estimate.mean)),
        ("ci95", Json::num(estimate.ci95)),
    ])
}

fn estimate_from_json(json: &Json, context: &str) -> Result<IntervalEstimate, String> {
    Ok(IntervalEstimate {
        mean: get_f64(json, "mean", context)?,
        ci95: get_f64(json, "ci95", context)?,
    })
}

fn sampling_stats_to_json(stats: &SamplingStats) -> Json {
    Json::obj([
        ("warmup_accesses", json_u64(stats.warmup_accesses)),
        ("interval_accesses", json_u64(stats.interval_accesses)),
        ("intervals", json_u64(u64::from(stats.intervals))),
        ("seed", json_u64(stats.seed)),
        ("ipc", estimate_to_json(&stats.ipc)),
        ("coverage", estimate_to_json(&stats.coverage)),
        ("accuracy", estimate_to_json(&stats.accuracy)),
    ])
}

fn sampling_stats_from_json(json: &Json) -> Result<SamplingStats, String> {
    Ok(SamplingStats {
        warmup_accesses: get_u64(json, "warmup_accesses", "sampling")?,
        interval_accesses: get_u64(json, "interval_accesses", "sampling")?,
        intervals: u32::try_from(get_u64(json, "intervals", "sampling")?)
            .map_err(|_| "sampling: 'intervals' is too large")?,
        seed: get_u64(json, "seed", "sampling")?,
        ipc: estimate_from_json(get(json, "ipc", "sampling")?, "sampling ipc")?,
        coverage: estimate_from_json(get(json, "coverage", "sampling")?, "sampling coverage")?,
        accuracy: estimate_from_json(get(json, "accuracy", "sampling")?, "sampling accuracy")?,
    })
}

/// Parses a serialized [`SimResult`], the exact inverse of
/// [`sim_result_to_json`].
///
/// # Errors
///
/// Returns a message naming the first missing or mistyped field.
pub fn sim_result_from_json(json: &Json) -> Result<SimResult, String> {
    let cores = get(json, "cores", "sim result")?
        .as_arr()
        .ok_or("sim result: 'cores' must be an array")?
        .iter()
        .map(|core| {
            Ok(CoreResult {
                workload: get_str(core, "workload", "core")?.to_owned(),
                prefetcher: get_str(core, "prefetcher", "core")?.to_owned(),
                instructions: get_u64(core, "instructions", "core")?,
                finish_cycle: get_u64(core, "finish_cycle", "core")?,
                l1: cache_stats_from_json(get(core, "l1", "core")?, "core l1")?,
                l2: cache_stats_from_json(get(core, "l2", "core")?, "core l2")?,
                accounting: accounting_from_json(
                    get(core, "accounting", "core")?,
                    "core accounting",
                )?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let dram = get(json, "dram", "sim result")?;
    let pollution = get(json, "pollution", "sim result")?;
    let geometry = get(json, "cache_geometry", "sim result")?
        .as_arr()
        .ok_or("sim result: 'cache_geometry' must be an array")?
        .iter()
        .map(|geom| {
            Ok(CacheGeometry {
                name: get_str(geom, "name", "geometry")?.to_owned(),
                requested_bytes: get_u64(geom, "requested_bytes", "geometry")? as usize,
                ways: get_u64(geom, "ways", "geometry")? as usize,
                sets: get_u64(geom, "sets", "geometry")? as usize,
                effective_bytes: get_u64(geom, "effective_bytes", "geometry")? as usize,
                rounded: get(geom, "rounded", "geometry")?
                    .as_bool()
                    .ok_or("geometry: 'rounded' must be a boolean")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(SimResult {
        cores,
        llc: cache_stats_from_json(get(json, "llc", "sim result")?, "llc")?,
        dram: DramStats {
            cas_commands: get_u64(dram, "cas_commands", "dram")?,
            row_hits: get_u64(dram, "row_hits", "dram")?,
            row_misses: get_u64(dram, "row_misses", "dram")?,
            prefetch_accesses: get_u64(dram, "prefetch_accesses", "dram")?,
            utilization_sum: get_f64(dram, "utilization_sum", "dram")?,
            windows: get_u64(dram, "windows", "dram")?,
        },
        pollution: PollutionBreakdown {
            no_reuse: get_u64(pollution, "no_reuse", "pollution")?,
            prefetched_before_use: get_u64(pollution, "prefetched_before_use", "pollution")?,
            bad_pollution: get_u64(pollution, "bad_pollution", "pollution")?,
        },
        cycles: get_u64(json, "cycles", "sim result")?,
        cache_geometry: geometry,
        sampling: match json.get("sampling") {
            None | Some(Json::Null) => None,
            Some(stats) => Some(sampling_stats_from_json(stats)?),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sim() -> SimResult {
        SimResult {
            cores: vec![CoreResult {
                workload: "stream_1".to_owned(),
                prefetcher: "SPP".to_owned(),
                instructions: 123_456,
                finish_cycle: 654_321,
                l1: CacheStats {
                    demand_hits: 1,
                    demand_misses: 2,
                    demand_fills: 3,
                    prefetch_fills: 4,
                    prefetch_first_uses: 5,
                    prefetch_unused_evictions: 6,
                },
                l2: CacheStats::default(),
                accounting: PrefetchAccounting {
                    l2_demand_accesses: 7,
                    covered: 8,
                    uncovered: 9,
                    prefetches_issued: 10,
                    prefetches_used: 11,
                    prefetches_unused: 12,
                },
            }],
            llc: CacheStats {
                demand_hits: 99,
                ..CacheStats::default()
            },
            dram: DramStats {
                cas_commands: 1 << 54, // above 2^53: exercises the string form
                row_hits: 14,
                row_misses: 15,
                prefetch_accesses: 16,
                utilization_sum: 0.1 + 0.2, // a value with no short decimal form
                windows: 17,
            },
            pollution: PollutionBreakdown {
                no_reuse: 18,
                prefetched_before_use: 19,
                bad_pollution: 20,
            },
            cycles: 987_654_321,
            cache_geometry: vec![CacheGeometry {
                name: "LLC".to_owned(),
                requested_bytes: 2 << 20,
                ways: 16,
                sets: 2048,
                effective_bytes: 2 << 20,
                rounded: false,
            }],
            sampling: None,
        }
    }

    fn sampled_sim() -> SimResult {
        SimResult {
            sampling: Some(SamplingStats {
                warmup_accesses: 2_000_000,
                interval_accesses: 200_000,
                intervals: 10,
                seed: 3,
                ipc: IntervalEstimate {
                    mean: 1.25,
                    ci95: 0.04,
                },
                coverage: IntervalEstimate {
                    mean: 0.5,
                    ci95: 0.01,
                },
                accuracy: IntervalEstimate {
                    mean: 0.75,
                    ci95: 0.02,
                },
            }),
            ..sample_sim()
        }
    }

    #[test]
    fn sim_results_round_trip_exactly() {
        let sim = sample_sim();
        let json = sim_result_to_json(&sim);
        // Through a full render/parse cycle, like a real store line.
        let reparsed = Json::parse(&json.render_compact()).expect("renders valid JSON");
        let back = sim_result_from_json(&reparsed).expect("parses back");
        assert_eq!(back, sim);
        assert_eq!(
            back.dram.utilization_sum.to_bits(),
            sim.dram.utilization_sum.to_bits()
        );
        assert_eq!(back.dram.cas_commands, 1 << 54);
        // Byte parity for exact runs: the optional sampling key must be
        // absent, not null, so pre-sampling files stay byte-identical.
        assert!(!json.render_compact().contains("sampling"));
    }

    #[test]
    fn sampled_sim_results_round_trip_with_cis() {
        let sim = sampled_sim();
        let json = sim_result_to_json(&sim);
        let reparsed = Json::parse(&json.render_compact()).expect("renders valid JSON");
        let back = sim_result_from_json(&reparsed).expect("parses back");
        assert_eq!(back, sim);
        let stats = back.sampling.expect("sampling survives the round trip");
        assert_eq!(stats.intervals, 10);
        assert!((stats.ipc.ci95 - 0.04).abs() < 1e-12);
    }

    #[test]
    fn rows_round_trip_through_the_canonical_encoding() {
        let row = ResultRow::new(
            "00ff00ff00ff00ff".to_owned(),
            "fig12".to_owned(),
            "linpack".to_owned(),
            "SPP".to_owned(),
            "1T".to_owned(),
            240_000,
            String::new(),
            sample_sim(),
        );
        assert_eq!(row.code_version, crate::store::code_version());
        let reparsed = Json::parse(&row.to_json().render_compact()).expect("valid JSON");
        let back = ResultRow::from_json(&reparsed).expect("parses back");
        assert_eq!(back, row);
    }

    #[test]
    fn mean_ipc_averages_cores() {
        let mut sim = sample_sim();
        assert!((mean_ipc(&sim) - 123_456.0 / 654_321.0).abs() < 1e-12);
        sim.cores.clear();
        assert_eq!(mean_ipc(&sim), 0.0);
    }
}
