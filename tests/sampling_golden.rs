//! Sampled-simulation golden tests: checkpoint fidelity of the neutral
//! warm-up, and statistical validity of the interval estimates.
//!
//! Two guarantees are pinned here:
//!
//! 1. **Bit-identical restore** — a checkpoint holds only the neutral
//!    (null-L2-prefetcher) warm-up. A baseline machine checkpointed after
//!    functional warm-up and restored into a fresh machine captures back
//!    to the same checkpoint and produces *exactly* the measurement the
//!    original machine does (caches, DRAM, the L1 stride prefetcher,
//!    accounting and trace position all travel in the copy), every other
//!    registry prefetcher's capture is refused, and the neutral checkpoint
//!    restores into every prefetcher column.
//! 2. **CI coverage** — on a pinned (workload, prefetcher) matrix, the
//!    sampled run's 95% confidence interval covers the exact run's IPC.
//!    Everything is seed-deterministic, so this is a golden test, not a
//!    flaky statistical one: a regression in warm-up, placement, or
//!    aggregation moves the interval away from the exact value.

use dspatch_harness::runner::{run_workload, PrefetcherKind, RunScale};
use dspatch_harness::sampling::{run_sampled_workload, warmup_checkpoint, SamplingPlan};
use dspatch_sim::{SimulationBuilder, SystemConfig};
use dspatch_trace::workloads::{category_suite, WorkloadCategory};
use dspatch_types::SnapshotError;

fn plan() -> SamplingPlan {
    SamplingPlan {
        warmup_accesses: 6_000,
        interval_accesses: 1_500,
        intervals: 8,
        seed: 42,
    }
}

fn scale() -> RunScale {
    RunScale {
        accesses_per_workload: 40_000,
        workloads_per_category: 1,
        mixes: 0,
        threads: 1,
        sampling: Some(plan()),
    }
}

#[test]
fn only_the_neutral_machine_can_be_checkpointed() {
    let workload = &category_suite(WorkloadCategory::Ispec17)[0];
    let config = SystemConfig::single_thread();
    for kind in PrefetcherKind::ALL {
        let machine = || {
            SimulationBuilder::new(config.clone())
                .with_core(workload.source(20_000), kind.build_any())
                .into_machine()
        };
        let mut original = machine();
        original.run_functional(4_000);
        let captured = original.capture();
        if kind != PrefetcherKind::Baseline {
            assert!(
                matches!(captured, Err(SnapshotError::Unsupported(_))),
                "{kind:?}: only the null L2 prefetcher may be captured, got {:?}",
                captured.map(|state| state.len())
            );
            continue;
        }
        let state = captured.expect("functional boundary is capturable");

        let mut restored = machine();
        restored.restore(&state).expect("restore succeeds");
        let recaptured = restored
            .capture()
            .expect("a restored machine is capturable");
        // Not assert_eq!: a checkpoint's Debug rendering is megabytes long.
        assert!(
            recaptured == state,
            "capture after restore must give the checkpoint back"
        );
        assert_eq!(
            original.run_interval(2_000),
            restored.run_interval(2_000),
            "restored machine must measure bit-identically"
        );
    }
}

#[test]
fn neutral_warmup_restores_into_any_prefetcher_column() {
    // The campaign executor warms once with the null prefetcher and forks
    // the checkpoint across columns; every registry prefetcher must accept
    // it (keeping its own predictor fresh).
    let workload = &category_suite(WorkloadCategory::Cloud)[0];
    let config = SystemConfig::single_thread();
    let warm = warmup_checkpoint(Box::new(workload.source(20_000)), &config, &plan())
        .expect("neutral warm-up captures");
    for kind in PrefetcherKind::ALL {
        let mut machine = SimulationBuilder::new(config.clone())
            .with_core(workload.source(20_000), kind.build_any())
            .into_machine();
        machine
            .restore(&warm)
            .unwrap_or_else(|e| panic!("{kind:?}: neutral restore failed: {e}"));
        let interval = machine.run_interval(1_000);
        assert!(
            interval.cores[0].l1.demand_hits + interval.cores[0].l1.demand_misses > 0,
            "{kind:?}: restored machine must actually measure"
        );
    }
}

#[test]
fn sampled_confidence_intervals_cover_exact_ipc() {
    let config = SystemConfig::single_thread();
    let matrix = [
        (WorkloadCategory::Cloud, PrefetcherKind::Spp),
        (WorkloadCategory::Cloud, PrefetcherKind::DspatchPlusSpp),
        (WorkloadCategory::Ispec17, PrefetcherKind::DspatchPlusSpp),
        (WorkloadCategory::Server, PrefetcherKind::Bop),
    ];
    for (category, kind) in matrix {
        let workload = &category_suite(category)[0];
        let exact_scale = RunScale {
            sampling: None,
            ..scale()
        };
        let exact = run_workload(workload, kind, &config, &exact_scale);
        let exact_ipc = exact.cores[0].ipc();

        let sampled = run_sampled_workload(workload, kind.build_any(), &config, &scale())
            .expect("plan fits the workload");
        let stats = sampled.sampling.expect("sampled result carries stats");
        assert!(
            stats.ipc.covers(exact_ipc),
            "{}/{kind:?}: sampled IPC {} ± {} must cover exact {exact_ipc}",
            workload.name,
            stats.ipc.mean,
            stats.ipc.ci95,
        );
        // The estimate is also *useful*: the half-width stays within 50% of
        // the mean for these pinned seeds (an estimator regression that
        // blows up the variance fails here even if coverage holds).
        assert!(
            stats.ipc.ci95 <= stats.ipc.mean * 0.5,
            "{}/{kind:?}: CI half-width {} too wide for mean {}",
            workload.name,
            stats.ipc.ci95,
            stats.ipc.mean,
        );
    }
}
