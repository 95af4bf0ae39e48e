//! Golden parity for the streaming trace layer: feeding the simulator a
//! lazily-evaluated [`dspatch_trace::SynthSource`] must produce **bit-identical**
//! [`dspatch_sim::SimResult`]s to feeding it the materialized `Trace` — for
//! every workload in the suite, and for multi-programmed mixes. The streaming
//! path is O(1) in trace length; these tests prove that costs nothing in
//! fidelity.

use dspatch_harness::runner::PrefetcherKind;
use dspatch_sim::{SimResult, SimulationBuilder, SystemConfig};
use dspatch_trace::{collect_source, homogeneous_mixes, suite, IntoTraceSource, TraceSource};

const SMOKE_ACCESSES: usize = 1_200;

fn run_single(source: impl IntoTraceSource, kind: PrefetcherKind) -> SimResult {
    SimulationBuilder::new(SystemConfig::single_thread())
        .with_core(source, kind.build_any())
        .run()
}

#[test]
fn every_suite_workload_streams_bit_identically_to_its_materialized_trace() {
    for workload in suite() {
        let trace = workload.generate(SMOKE_ACCESSES);
        let source = workload.source(SMOKE_ACCESSES);
        // The records themselves agree...
        {
            let mut probe = workload.source(SMOKE_ACCESSES);
            assert_eq!(
                collect_source(&mut probe),
                trace,
                "{}: source records diverge from materialized trace",
                workload.name
            );
        }
        // ...and so does the full simulation through the headline prefetcher.
        let materialized = run_single(trace, PrefetcherKind::DspatchPlusSpp);
        let streamed = run_single(source, PrefetcherKind::DspatchPlusSpp);
        assert_eq!(
            materialized, streamed,
            "{}: streaming and materialized SimResults diverge",
            workload.name
        );
    }
}

#[test]
fn multi_programmed_mixes_stream_bit_identically() {
    let config = SystemConfig::multi_programmed();
    for mix in homogeneous_mixes(4).into_iter().take(2) {
        let mut materialized = SimulationBuilder::new(config.clone());
        let mut streamed = SimulationBuilder::new(config.clone());
        for workload in &mix.workloads {
            materialized = materialized.with_core(
                workload.generate(SMOKE_ACCESSES),
                PrefetcherKind::DspatchPlusSpp.build_any(),
            );
            streamed = streamed.with_core(
                workload.source(SMOKE_ACCESSES),
                PrefetcherKind::DspatchPlusSpp.build_any(),
            );
        }
        assert_eq!(materialized.run(), streamed.run(), "{}", mix.name);
    }
}

#[test]
fn forked_and_reset_sources_replay_the_same_simulation() {
    let workload = &suite()[0];
    let mut source = workload.source(SMOKE_ACCESSES);
    // Consume part of the source, then fork: the fork starts from scratch.
    for _ in 0..100 {
        source.next_record();
    }
    let from_fork = run_single(source.fork(), PrefetcherKind::Spp);
    source.reset();
    let from_reset = run_single(source, PrefetcherKind::Spp);
    let fresh = run_single(workload.source(SMOKE_ACCESSES), PrefetcherKind::Spp);
    assert_eq!(from_fork, fresh);
    assert_eq!(from_reset, fresh);
}

#[test]
fn file_backed_replay_matches_the_in_memory_simulation() {
    let workload = &suite()[3];
    let trace = workload.generate(SMOKE_ACCESSES);
    let path = std::env::temp_dir().join(format!(
        "dspatch_streaming_golden_{}.dspt",
        std::process::id()
    ));
    dspatch_trace::io::save_trace(&trace, &path).expect("save trace");
    let source = dspatch_trace::io::open_trace_source(&path).expect("open trace");
    let from_file = run_single(source, PrefetcherKind::DspatchPlusSpp);
    std::fs::remove_file(&path).ok();
    let in_memory = run_single(trace, PrefetcherKind::DspatchPlusSpp);
    assert_eq!(from_file, in_memory);
}
