//! Per-layer probes for the traced run: each layer's public functions,
//! called directly on the workload's own inputs and timed here.

use crate::util::{Metrics, Tracer};
use dspatch::{DsPatch, DsPatchConfig};
use dspatch_harness::analytics::{ColumnarView, Query};
use dspatch_harness::{PrefetcherKind, ResultStore};
use dspatch_sim::{Cache, Dram, SimulationBuilder, SystemConfig};
use dspatch_trace::{TraceSource, WorkloadMix, WorkloadSpec};
use dspatch_types::{
    BandwidthQuartile, CoreId, MemoryAccess, NullPrefetcher, PrefetchContext, PrefetchSink,
    Prefetcher,
};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The inputs a workload hands to the probes.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub workloads: Vec<WorkloadSpec>,
    /// A 4-core mix for the end-to-end simulation probe, if the workload
    /// simulates mixes.
    pub mix: Option<WorkloadMix>,
    pub config: SystemConfig,
    /// The workload's own trace length (records per core).
    pub trace_len: usize,
}

/// Records per workload fed to the prefetcher, cache and DRAM probes.
const PROBE_RECORDS: usize = 40_000;
/// Cap on the records pulled by the trace probe per workload.
const PULL_CAP: usize = 2_000_000;

const PROBED: [(&str, PrefetcherKind); 5] = [
    ("spp", PrefetcherKind::Spp),
    ("bop", PrefetcherKind::Bop),
    ("sms", PrefetcherKind::Sms),
    ("dspatch", PrefetcherKind::Dspatch),
    ("dspatch_plus_spp", PrefetcherKind::DspatchPlusSpp),
];

fn ns_per(start: Instant, count: u64) -> f64 {
    start.elapsed().as_nanos() as f64 / count.max(1) as f64
}

fn accesses(workload: &WorkloadSpec) -> Vec<MemoryAccess> {
    let mut source = workload.source(PROBE_RECORDS);
    let mut out = Vec::with_capacity(PROBE_RECORDS);
    while let Some(record) = source.next_record() {
        out.push(MemoryAccess::new(record.pc, record.addr, record.kind).with_core(CoreId(0)));
    }
    out
}

/// Feeds `stream` to `prefetcher` at a fixed bandwidth quartile; returns
/// the candidates it produced.
fn feed(prefetcher: &mut impl Prefetcher, stream: &[MemoryAccess], q: BandwidthQuartile) -> u64 {
    let mut sink = PrefetchSink::with_capacity(64);
    let mut candidates = 0;
    for (i, access) in stream.iter().enumerate() {
        sink.clear();
        let ctx = PrefetchContext::at_cycle(i as u64 * 8).with_bandwidth(q);
        prefetcher.on_access(access, &ctx, &mut sink);
        candidates += sink.len() as u64;
    }
    black_box(candidates)
}

/// Trace, prefetcher, DSPatch-selection and simulator-layer probes.
pub fn probe_model(inputs: &Inputs, tracer: &Tracer, parent: u64, metrics: &mut Metrics) {
    let pull_ns = tracer.span("trace.next_record", parent, |_| {
        let start = Instant::now();
        let mut pulled = 0u64;
        for workload in &inputs.workloads {
            let mut source = workload.source(inputs.trace_len.min(PULL_CAP));
            while let Some(record) = source.next_record() {
                black_box(record);
                pulled += 1;
            }
        }
        ns_per(start, pulled)
    });
    metrics.put("trace.pull_ns_per_record", pull_ns, "ns");

    let streams: Vec<Vec<MemoryAccess>> = inputs.workloads.iter().map(accesses).collect();
    let total: u64 = streams.iter().map(|s| s.len() as u64).sum();
    for (name, kind) in PROBED {
        let (ns, candidates) =
            tracer.span(&format!("prefetchers.on_access {name}"), parent, |_| {
                let mut candidates = 0;
                let start = Instant::now();
                for stream in &streams {
                    let mut prefetcher = kind.build_any();
                    candidates += feed(&mut prefetcher, stream, BandwidthQuartile::Q1);
                }
                (ns_per(start, total), candidates)
            });
        metrics.put(format!("prefetchers.on_access_ns.{name}"), ns, "ns");
        metrics.put(
            format!("prefetchers.candidates_per_access.{name}"),
            candidates as f64 / total.max(1) as f64,
            "count",
        );
    }

    // DSPatch's CovP/AccP/throttle choice at each fixed bandwidth quartile.
    let mut triggers = 0;
    tracer.span("dspatch.selection", parent, |_| {
        for (qi, q) in BandwidthQuartile::ALL.into_iter().enumerate() {
            let (mut accp, mut throttled, mut seen) = (0, 0, 0);
            for stream in &streams {
                let mut dspatch = DsPatch::new(DsPatchConfig::default());
                feed(&mut dspatch, stream, q);
                let stats = dspatch.stats();
                accp += stats.accp_predictions;
                throttled += stats.throttled_predictions;
                seen += stats.triggers;
            }
            let base = seen.max(1) as f64;
            metrics.put(
                format!("dspatch.accp_share.q{qi}"),
                accp as f64 / base,
                "fraction",
            );
            metrics.put(
                format!("dspatch.throttled_share.q{qi}"),
                throttled as f64 / base,
                "fraction",
            );
            triggers = seen;
        }
    });
    metrics.put("dspatch.triggers", triggers as f64, "count");

    let config = &inputs.config;
    let sim_ns = tracer.span("sim.SimulationBuilder::run", parent, |_| {
        let cores = match &inputs.mix {
            Some(mix) => mix.workloads.as_slice(),
            None => &inputs.workloads[..1],
        };
        let mut sim = SimulationBuilder::new(config.clone());
        for workload in cores {
            sim = sim.with_core(
                workload.source(PROBE_RECORDS),
                PrefetcherKind::DspatchPlusSpp.build_any(),
            );
        }
        let start = Instant::now();
        black_box(sim.run());
        ns_per(start, (cores.len() * PROBE_RECORDS) as u64)
    });
    metrics.put("sim.ns_per_access", sim_ns, "ns");

    let mut misses = Vec::new();
    let probe_ns = tracer.span("sim.cache", parent, |_| {
        let mut cache = Cache::new(config.l2.clone());
        let start = Instant::now();
        for stream in &streams {
            for access in stream {
                let line = access.line();
                if !cache.demand_lookup(line) {
                    black_box(cache.fill(line, false, false));
                    misses.push(line);
                }
            }
        }
        ns_per(start, total)
    });
    metrics.put("sim.cache.probe_ns", probe_ns, "ns");

    let dram_ns = tracer.span("sim.dram", parent, |_| {
        let mut dram = Dram::new(config.dram, config.core.clock_mhz);
        let start = Instant::now();
        for (i, line) in misses.iter().enumerate() {
            black_box(dram.access(*line, i as u64 * 20, false));
        }
        ns_per(start, misses.len() as u64)
    });
    metrics.put("sim.dram.access_ns", dram_ns, "ns");

    probe_machine(
        &inputs.workloads[0],
        inputs.trace_len,
        tracer,
        parent,
        metrics,
    );
}

/// The sampled-simulation API of `Machine`: functional warm-up, skip,
/// capture and restore, on a single-core machine.
fn probe_machine(
    workload: &WorkloadSpec,
    trace_len: usize,
    tracer: &Tracer,
    parent: u64,
    metrics: &mut Metrics,
) {
    let records = (PROBE_RECORDS as u64) * 4;
    let len = trace_len.max(3 * records as usize);
    let machine = || {
        SimulationBuilder::new(SystemConfig::single_thread())
            .with_core(workload.source(len), NullPrefetcher::new())
            .into_machine()
    };
    tracer.span("sim.Machine", parent, |_| {
        let mut warm = machine();
        let start = Instant::now();
        let done = warm.run_functional(records);
        metrics.put("sim.functional_ns_per_access", ns_per(start, done), "ns");
        let start = Instant::now();
        let skipped = warm.skip_records(records);
        metrics.put("sim.skip_ns_per_record", ns_per(start, skipped), "ns");
        let start = Instant::now();
        let state = warm.capture().expect("a functional boundary is capturable");
        metrics.put(
            "sim.snapshot.capture_ms",
            start.elapsed().as_secs_f64() * 1e3,
            "ms",
        );
        let mut fresh = machine();
        let start = Instant::now();
        fresh
            .restore(&state)
            .expect("a fresh identical machine restores");
        metrics.put(
            "sim.snapshot.restore_ms",
            start.elapsed().as_secs_f64() * 1e3,
            "ms",
        );
        metrics.put("sim.snapshot.bytes", state.len() as f64, "bytes");
    });
}

/// Store and analytics probes over the rows the set-up stored.
pub fn probe_store(store_dir: &Path, scratch: &Path, tracer: &Tracer, metrics: &mut Metrics) {
    tracer.span("harness.store", 0, |_| {
        let start = Instant::now();
        let store = ResultStore::open(store_dir).expect("set-up store reopens");
        metrics.put(
            "harness.store.open_ms",
            start.elapsed().as_secs_f64() * 1e3,
            "ms",
        );

        let rows: Vec<_> = store.rows().cloned().collect();
        let mut copy = ResultStore::open(scratch).expect("scratch store opens");
        let start = Instant::now();
        for row in &rows {
            copy.insert(row).expect("scratch store accepts rows");
        }
        let per_row = start.elapsed().as_secs_f64() * 1e6 / rows.len().max(1) as f64;
        metrics.put("harness.store.insert_us", per_row, "us");

        let query = Query::from_params(&[
            ("group_by".to_owned(), "prefetcher".to_owned()),
            ("agg".to_owned(), "mean:speedup".to_owned()),
        ])
        .expect("a fixed query parses");
        let mut times = Vec::new();
        for _ in 0..5 {
            let start = Instant::now();
            let view = ColumnarView::from_store(&store);
            black_box(view.run(&query).expect("the query runs"));
            times.push(start.elapsed().as_secs_f64() * 1e3);
        }
        metrics.put(
            "harness.analytics.query_ms",
            crate::util::median(&times),
            "ms",
        );
    });
}
