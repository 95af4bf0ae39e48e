//! Show DSPatch's bandwidth adaptivity: the same workloads simulated across
//! the paper's six DRAM configurations (Figure 15 at reduced scale).
//!
//! One campaign holds a cell per DRAM configuration, so each workload's
//! baseline simulates once per configuration and serves both columns.
//!
//! Run with `cargo run --release --example bandwidth_adaptive`.

use dspatch_harness::campaign::{
    run_campaign, CampaignSpec, CellSpec, ConfigSpec, PrefetcherSel, TargetSelector,
};
use dspatch_harness::runner::{geomean, PrefetcherKind, RunScale};
use dspatch_repro::example_accesses;
use dspatch_sim::{DramConfig, SystemConfig};
use dspatch_trace::workloads::memory_intensive_suite;

fn main() {
    let scale = RunScale {
        accesses_per_workload: example_accesses(8_000),
        workloads_per_category: 1,
        mixes: 1,
        threads: 8,
        sampling: None,
    };
    let workloads = scale.select_workloads(memory_intensive_suite());
    println!("{} memory-intensive workloads per point\n", workloads.len());
    println!(
        "{:<10} {:>10} {:>12} {:>14}",
        "DRAM", "peak GB/s", "SPP", "DSPatch+SPP"
    );
    let sweep = SystemConfig::bandwidth_sweep();
    let spec = CampaignSpec {
        name: "bandwidth adaptivity".to_owned(),
        scale: None,
        cells: sweep
            .iter()
            .map(|&(channels, speed)| CellSpec {
                label: DramConfig::with_speed(channels, speed).label(),
                targets: TargetSelector::MemoryIntensive,
                prefetchers: vec![
                    PrefetcherSel::Kind(PrefetcherKind::Spp),
                    PrefetcherSel::Kind(PrefetcherKind::DspatchPlusSpp),
                ],
                config: ConfigSpec::single_thread().with_dram(channels, speed),
                baseline: true,
            })
            .collect(),
    };
    let result = run_campaign(&spec, &scale).expect("valid campaign");
    for (channels, speed) in sweep {
        let dram = DramConfig::with_speed(channels, speed);
        let delta =
            |kind: PrefetcherKind| geomean(&result.speedups(&dram.label(), kind.label())) - 1.0;
        println!(
            "{:<10} {:>10.1} {:>11.1}% {:>13.1}%",
            dram.label(),
            dram.peak_bandwidth_gbps(),
            delta(PrefetcherKind::Spp) * 100.0,
            delta(PrefetcherKind::DspatchPlusSpp) * 100.0
        );
    }
}
