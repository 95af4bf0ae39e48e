//! Fault-tolerance integration tests: per-job isolation and quarantine of a
//! panicking cell (each cell runs once), and kill-and-resume parity through
//! the crash-safe result store — a campaign interrupted mid-flight and
//! re-run against the same store must produce **bit-identical** output
//! (rows, sims, rendered JSON/CSV, and the spec-deterministic executor
//! stats) to an uninterrupted run.
//!
//! Panics are injected through the deterministic
//! `dspatch_harness::faults::FaultPlan` harness, so every failure fires at
//! a fixed, reproducible point.

use dspatch_harness::campaign::{
    run_campaign, run_campaign_with, CampaignResult, CampaignSpec, CellSpec, ConfigSpec,
    ExecOptions, PrefetcherSel, TargetSelector,
};
use dspatch_harness::runner::{PrefetcherKind, RunScale};
use dspatch_harness::store::STORE_FILE;
use dspatch_harness::{FaultPlan, HarnessError, Json, ResultStore};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

fn tiny() -> RunScale {
    RunScale {
        accesses_per_workload: 600,
        workloads_per_category: 1,
        mixes: 1,
        threads: 2,
        sampling: None,
    }
}

/// Two explicit workloads × (baseline + SPP + BOP): 6 deduplicated jobs.
fn spec() -> CampaignSpec {
    let pool = dspatch_trace::suite();
    CampaignSpec::single_cell(
        "fault tolerance",
        CellSpec {
            label: "cell".to_owned(),
            targets: TargetSelector::Workloads(vec![pool[0].name.clone(), pool[1].name.clone()]),
            prefetchers: vec![
                PrefetcherSel::Kind(PrefetcherKind::Spp),
                PrefetcherSel::Kind(PrefetcherKind::Bop),
            ],
            config: ConfigSpec::single_thread(),
            baseline: true,
        },
    )
}

/// A fresh, empty store directory per test.
fn temp_store(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dspatch_fault_tolerance_{label}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Options backed by the store under `dir`, opened afresh — like a new
/// process — so each run sees exactly what is on disk.
fn with_store(dir: &Path) -> ExecOptions {
    let store = ResultStore::open(dir).expect("store opens");
    ExecOptions {
        store: Some(Arc::new(Mutex::new(store))),
        ..ExecOptions::default()
    }
}

/// Every observable output a user can diff: rendered table, JSON document,
/// CSV, plus the raw rows/sims (SimResult is PartialEq, so this is
/// bit-level for every counter) and the spec-deterministic stats.
fn assert_bit_identical(a: &CampaignResult, b: &CampaignResult) {
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.sims, b.sims);
    assert_eq!(a.to_table().render(), b.to_table().render());
    assert_eq!(a.to_json().render(), b.to_json().render());
    assert_eq!(a.to_csv(), b.to_csv());
    // Baseline-memoization accounting must survive a resume unchanged.
    assert_eq!(a.stats.sims_run, b.stats.sims_run);
    assert_eq!(a.stats.baseline_sims, b.stats.baseline_sims);
    assert_eq!(a.stats.memo_hits, b.stats.memo_hits);
    assert_eq!(a.stats.threads, b.stats.threads);
}

#[test]
fn a_panicking_cell_is_quarantined_without_sinking_the_campaign() {
    let spec = spec();
    let scale = tiny();
    let reference = run_campaign(&spec, &scale).expect("clean run");
    let target = reference.rows[0].target.clone();

    let opts = ExecOptions {
        faults: Some(FaultPlan::new().poison(target.clone(), PrefetcherKind::Spp.label())),
        ..ExecOptions::default()
    };
    let result = run_campaign_with(&spec, &scale, &opts).expect("campaign must complete");

    // Exactly the poisoned (target, SPP) job is gone; every other row
    // survives with results identical to the clean run.
    assert_eq!(result.failures.len(), 1);
    assert_eq!(result.stats.quarantined, 1);
    let failure = &result.failures[0];
    assert_eq!(failure.target, target);
    assert_eq!(failure.prefetcher, PrefetcherKind::Spp.label());
    match &failure.error {
        HarnessError::CellPanic { job, message } => {
            assert_eq!(job, &failure.key);
            assert_eq!(message, "injected panic");
        }
        other => panic!("expected CellPanic, got {other:?}"),
    }
    assert_eq!(result.rows.len(), reference.rows.len() - 1);
    assert!(!result
        .rows
        .iter()
        .any(|row| row.target == target && row.prefetcher == PrefetcherKind::Spp.label()));
    for row in &result.rows {
        let reference_row = reference
            .rows
            .iter()
            .find(|r| r.target == row.target && r.prefetcher == row.prefetcher)
            .expect("row exists in the clean run");
        assert_eq!(result.sim_of(row), reference.sim_of(reference_row));
        assert_eq!(
            result.speedup(row).map(f64::to_bits),
            reference.speedup(reference_row).map(f64::to_bits)
        );
    }
    // The quarantine is visible in the JSON document: one entry with the
    // cell's coordinates and its classified error, nothing else.
    let json = result.to_json();
    let failures = json
        .get("failures")
        .and_then(Json::as_arr)
        .expect("failures array present");
    assert_eq!(failures.len(), 1);
    let keys: Vec<&str> = failures[0]
        .as_obj()
        .expect("failure entry is an object")
        .iter()
        .map(|(key, _)| key.as_str())
        .collect();
    assert_eq!(keys, ["target", "prefetcher", "config", "error"]);
    let error = failures[0].get("error").expect("error present");
    assert_eq!(error.get("class").and_then(Json::as_str), Some("cell"));
    assert_eq!(
        error.get("message").and_then(Json::as_str),
        Some(format!("cell {} panicked: injected panic", failure.key).as_str())
    );
}

#[test]
fn a_quarantined_baseline_keeps_the_rows_without_speedups() {
    let spec = spec();
    let scale = tiny();
    let target = dspatch_trace::suite()[0].name.clone();
    let opts = ExecOptions {
        faults: Some(FaultPlan::new().poison(target.clone(), PrefetcherKind::Baseline.label())),
        ..ExecOptions::default()
    };
    let result = run_campaign_with(&spec, &scale, &opts).expect("campaign must complete");
    assert_eq!(result.failures.len(), 1);
    assert!(
        matches!(&result.failures[0].error, HarnessError::CellPanic { .. }),
        "got {:?}",
        result.failures[0].error
    );
    // Candidate rows for that target survive, but have no baseline to
    // normalize against.
    let affected: Vec<_> = result.rows.iter().filter(|r| r.target == target).collect();
    assert_eq!(affected.len(), 2, "SPP and BOP rows stay");
    for row in affected {
        assert!(row.baseline.is_none());
        assert!(result.speedup(row).is_none());
    }
}

#[test]
fn kill_and_resume_is_bit_identical_to_an_uninterrupted_run() {
    let spec = spec();
    let scale = tiny();
    let dir = temp_store("kill_resume");

    // The uninterrupted reference, recorded in the store.
    let reference = run_campaign_with(&spec, &scale, &with_store(&dir)).expect("clean run");
    assert!(reference.failures.is_empty());

    // "Kill" the campaign mid-flight: keep the meta line and the first two
    // completed-cell records, as if the process died before the rest.
    let path = dir.join(STORE_FILE);
    let full = std::fs::read_to_string(&path).expect("store readable");
    let lines: Vec<&str> = full.lines().collect();
    assert!(lines.len() >= 4, "expected meta + >=3 records");
    let truncated: String = lines[..3].iter().map(|line| format!("{line}\n")).collect();
    std::fs::write(&path, truncated).expect("truncate store");

    // Re-run: only the missing cells re-execute.
    let resumed = run_campaign_with(&spec, &scale, &with_store(&dir)).expect("resumed run");
    assert_eq!(resumed.stats.store_hits, 2, "two cells served");
    assert_bit_identical(&resumed, &reference);

    // The store is whole again: a third run serves everything.
    let replayed = run_campaign_with(&spec, &scale, &with_store(&dir)).expect("replayed run");
    assert_eq!(replayed.stats.store_hits, replayed.stats.sims_run);
    assert_bit_identical(&replayed, &reference);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_mid_campaign_panic_resumes_into_the_clean_result() {
    let spec = spec();
    let scale = tiny();
    let reference = run_campaign(&spec, &scale).expect("clean run");
    let target = reference.rows[0].target.clone();
    let dir = temp_store("panic_resume");

    // First run: one cell poisoned to panic. The campaign completes with
    // that cell quarantined; the store holds every *other* cell.
    let opts = ExecOptions {
        faults: Some(FaultPlan::new().poison(target.clone(), PrefetcherKind::Spp.label())),
        ..with_store(&dir)
    };
    let faulted = run_campaign_with(&spec, &scale, &opts).expect("faulted run completes");
    assert_eq!(faulted.failures.len(), 1);

    // Re-run without the fault: exactly the quarantined cell re-executes
    // (failures are never stored), and the merged result is bit-identical
    // to the uninterrupted fault-free run.
    let resumed = run_campaign_with(&spec, &scale, &with_store(&dir)).expect("resumed run");
    assert!(resumed.failures.is_empty());
    assert_eq!(
        resumed.stats.store_hits,
        resumed.stats.sims_run - 1,
        "only the quarantined cell re-executed"
    );
    assert_bit_identical(&resumed, &reference);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_torn_store_tail_is_recovered_on_rerun() {
    let spec = spec();
    let scale = tiny();
    let dir = temp_store("torn_tail");
    let reference = run_campaign_with(&spec, &scale, &with_store(&dir)).expect("clean run");

    // Tear the final record mid-bytes — the kill -9 signature.
    let path = dir.join(STORE_FILE);
    let bytes = std::fs::read(&path).expect("store readable");
    std::fs::write(&path, &bytes[..bytes.len() - 25]).expect("tear");

    let resumed = run_campaign_with(&spec, &scale, &with_store(&dir)).expect("resumed run");
    assert_eq!(
        resumed.stats.store_hits,
        resumed.stats.sims_run - 1,
        "only the torn cell re-executed"
    );
    assert_bit_identical(&resumed, &reference);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rerunning_under_a_different_scale_reuses_only_matching_cells() {
    let spec = spec();
    let scale = tiny();
    let dir = temp_store("rescale");
    run_campaign_with(&spec, &scale, &with_store(&dir)).expect("clean run");

    // A different access count is a different cell identity: nothing is
    // served...
    let mut rescaled = scale;
    rescaled.accesses_per_workload = 700;
    let result = run_campaign_with(&spec, &rescaled, &with_store(&dir)).expect("rescaled run");
    assert_eq!(result.stats.store_hits, 0);

    // ...but a different thread count is not: results never depend on it.
    let mut rethreaded = scale;
    rethreaded.threads = 1;
    let resumed = run_campaign_with(&spec, &rethreaded, &with_store(&dir)).expect("rethreaded run");
    assert_eq!(resumed.stats.store_hits, resumed.stats.sims_run);
    std::fs::remove_dir_all(&dir).ok();
}
