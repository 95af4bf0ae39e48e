//! End-to-end tests of the `dspatch-lab` binary: a paper figure and a
//! custom spec file, in all three output formats.

use dspatch_harness::Json;
use std::process::Command;

/// A one-workload campaign: 1 memoized baseline + 2 candidates.
const SMOKE_SPEC: &str = r#"{
    "name": "cli smoke",
    "scale": {"accesses_per_workload": 500, "workloads_per_category": 1, "mixes": 1, "threads": 2},
    "cells": [{
        "label": "cloud",
        "targets": {"category": "cloud"},
        "prefetchers": ["spp", "dspatch_plus_spp"],
        "config": {"base": "single_thread"},
        "baseline": true
    }]
}"#;

fn dspatch_lab(args: &[&str]) -> String {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let output = Command::new(cargo)
        .args([
            "run",
            "--quiet",
            "-p",
            "dspatch-harness",
            "--bin",
            "dspatch-lab",
            "--",
        ])
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn dspatch-lab {args:?}: {e}"));
    assert!(
        output.status.success(),
        "dspatch-lab {args:?} exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    String::from_utf8(output.stdout).expect("utf-8 output")
}

/// Runs `dspatch-lab` expecting a failure; returns (exit code, stderr).
fn dspatch_lab_fails(args: &[&str]) -> (i32, String) {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let output = Command::new(cargo)
        .args([
            "run",
            "--quiet",
            "-p",
            "dspatch-harness",
            "--bin",
            "dspatch-lab",
            "--",
        ])
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn dspatch-lab {args:?}: {e}"));
    assert!(
        !output.status.success(),
        "dspatch-lab {args:?} unexpectedly succeeded:\n{}",
        String::from_utf8_lossy(&output.stdout)
    );
    (
        output.status.code().expect("exit code"),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn misplaced_flags_are_usage_errors_not_silently_ignored() {
    // Without a campaign the store would be silently ignored, so it exits
    // 2 with a usage message.
    for args in [
        &["--figure", "table1", "--store", "store-dir"] as &[&str],
        &["--list", "--store", "store-dir"],
    ] {
        let (code, stderr) = dspatch_lab_fails(args);
        assert_eq!(code, 2, "dspatch-lab {args:?}: {stderr}");
        assert!(
            stderr.contains("--store only applies to --spec campaigns"),
            "dspatch-lab {args:?}: {stderr}"
        );
    }
    // Report-shaping flags are meaningless for --list/--template.
    for args in [
        &["--list", "--format", "json"] as &[&str],
        &["--template", "--scale", "smoke"],
        &["--list", "--threads", "4"],
    ] {
        let (code, stderr) = dspatch_lab_fails(args);
        assert_eq!(code, 2, "dspatch-lab {args:?}: {stderr}");
        assert!(
            stderr.contains("do not apply to --list/--template"),
            "dspatch-lab {args:?}: {stderr}"
        );
    }
}

#[test]
fn removed_multi_core_worker_knobs_fail_loudly() {
    // Multi-core simulations run single-threaded on the exact machine, so
    // the old per-simulation worker flag is an unknown argument (exit 2)...
    let (code, stderr) = dspatch_lab_fails(&["--figure", "table1", "--parallel-cores", "2"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(
        stderr.contains("unknown argument: --parallel-cores"),
        "{stderr}"
    );
    // ...and a spec asking for intra-simulation workers is invalid (exit 3).
    let spec = r#"{
        "name": "workers",
        "scale": {"accesses_per_workload": 500, "workloads_per_category": 1, "mixes": 1, "sim_workers": 2},
        "cells": [{
            "label": "mixes",
            "targets": {"homogeneous_mixes": {"cores": 4}},
            "prefetchers": ["dspatch_plus_spp"],
            "config": {"base": "multi_programmed"},
            "baseline": true
        }]
    }"#;
    let dir = std::env::temp_dir().join("dspatch-lab-cli-sim-workers");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("spec.json");
    std::fs::write(&path, spec).expect("write spec");
    let (code, stderr) = dspatch_lab_fails(&["--spec", path.to_str().expect("utf-8 path")]);
    assert_eq!(code, 3, "{stderr}");
    assert!(stderr.contains("unknown key 'sim_workers'"), "{stderr}");
}

#[test]
fn removed_resume_flags_are_unknown_arguments() {
    // A killed campaign resumes by re-running it with the same --store, a
    // cell runs once, so there is nothing to retry, and a warm-up
    // checkpoint lives in memory only.
    for (flag, value) in [
        ("--journal", "run.jsonl"),
        ("--resume", "run.jsonl"),
        ("--retries", "2"),
        ("--checkpoint-dir", "ckpts"),
    ] {
        let (code, stderr) = dspatch_lab_fails(&["--figure", "table1", flag, value]);
        assert_eq!(code, 2, "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown argument: {flag}")),
            "{flag}: {stderr}"
        );
    }
}

#[test]
fn sampled_figures_the_scale_cannot_serve_are_spec_errors() {
    // The figure's own campaign decides what a sampled scale cannot run:
    // fig17 simulates 4-core mixes, and a plan longer than the 1,200-access
    // smoke trace cannot be placed. Both exit 3 with the executor's message.
    let sampled = |figure, plan| ["--figure", figure, "--scale", "smoke", "--sample", plan];
    for (figure, plan, message) in [
        (
            "fig17",
            "warmup=100,interval=100,n=2",
            "sampled scales are single-core-only",
        ),
        (
            "fig12",
            "warmup=100000,interval=100,n=2",
            "sampling plan needs 100200 accesses",
        ),
    ] {
        let (code, stderr) = dspatch_lab_fails(&sampled(figure, plan));
        assert_eq!(code, 3, "{figure} {plan}: {stderr}");
        assert!(
            stderr.starts_with("dspatch-lab: invalid spec: cell '") && stderr.contains(message),
            "{figure} {plan}: {stderr}"
        );
        assert_eq!(stderr.matches("invalid spec").count(), 1, "{stderr}");
    }
    // A plan that fits a single-core figure still runs.
    let table = dspatch_lab(&sampled("fig12", "warmup=100,interval=100,n=2"));
    assert!(table.contains("Figure 12"), "{table}");
}

#[test]
fn invalid_spec_files_exit_3_with_one_prefix() {
    let dir = std::env::temp_dir().join("dspatch-lab-cli-invalid-specs");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    // Each case edits SMOKE_SPEC once; `PATH` in the expected message
    // stands for the spec file's path.
    let smoke_scale =
        r#"{"accesses_per_workload": 500, "workloads_per_category": 1, "mixes": 1, "threads": 2}"#;
    let cells = &SMOKE_SPEC[SMOKE_SPEC.find("[{").expect("a cells array")..];
    for (name, from, to, expected) in [
        (
            "bogus.json",
            r#""label": "cloud","#,
            r#""label": "cloud", "bogus": 1,"#,
            "PATH: cell: unknown key 'bogus'",
        ),
        (
            "huge.json",
            smoke_scale,
            r#""huge""#,
            "scale: unknown scale preset 'huge'",
        ),
        (
            "zero.json",
            r#""accesses_per_workload": 500"#,
            r#""accesses_per_workload": 0"#,
            "scale: custom scale 'accesses_per_workload' must be at least 1",
        ),
        (
            "empty.json",
            cells,
            "[]}",
            "PATH: campaign spec needs at least one cell",
        ),
    ] {
        assert!(SMOKE_SPEC.contains(from), "{name}");
        let path = dir.join(name);
        std::fs::write(&path, SMOKE_SPEC.replacen(from, to, 1)).expect("write spec");
        let path = path.to_str().expect("utf-8 path");
        let (code, stderr) = dspatch_lab_fails(&["--spec", path]);
        assert_eq!(code, 3, "{name}: {stderr}");
        let expected = format!(
            "dspatch-lab: invalid spec: {}",
            expected.replace("PATH", path)
        );
        assert!(stderr.starts_with(&expected), "{name}: {stderr}");
        assert_eq!(stderr.matches("invalid spec").count(), 1, "{stderr}");
    }
    // An unknown --scale on the command line stays a usage error.
    let valid = dir.join("valid.json");
    std::fs::write(&valid, SMOKE_SPEC).expect("write spec");
    let valid = valid.to_str().expect("utf-8 path");
    let (code, stderr) = dspatch_lab_fails(&["--spec", valid, "--scale", "huge"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("unknown scale 'huge'"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn damaged_and_foreign_stores_exit_with_their_class_codes() {
    let dir = std::env::temp_dir().join("dspatch-lab-cli-damaged-store");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spec_path = dir.join("spec.json");
    std::fs::write(&spec_path, SMOKE_SPEC).expect("write spec");
    let spec_path = spec_path.to_str().expect("utf-8 path");
    let store = dir.join("store");
    let results = store.join("results.jsonl");
    let store = store.to_str().expect("utf-8 path");
    dspatch_lab(&["--spec", spec_path, "--store", store, "--format", "json"]);

    // Cut the first row in half but keep the rows after it: that is
    // corruption (exit 5), not a torn tail, and the message names the file
    // and line without calling it anything else.
    let text = std::fs::read_to_string(&results).expect("store written");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "meta line + one row per simulation");
    let cut = &lines[1][..lines[1].len() / 2];
    let rest = lines[2..].join("\n");
    std::fs::write(&results, format!("{}\n{cut}\n{rest}\n", lines[0])).expect("cut");
    let (code, stderr) = dspatch_lab_fails(&["--spec", spec_path, "--store", store]);
    assert_eq!(code, 5, "{stderr}");
    assert!(
        stderr.contains("results.jsonl:2: corrupt record"),
        "{stderr}"
    );
    assert!(!stderr.contains("journal"), "{stderr}");

    // A file with another magic is never overwritten (exit 6).
    std::fs::write(&results, "{\"store\": \"something-else\"}\n").expect("write");
    let (code, stderr) = dspatch_lab_fails(&["--spec", spec_path, "--store", store]);
    assert_eq!(code, 6, "{stderr}");
    assert!(stderr.contains("store mismatch"), "{stderr}");
    assert!(!stderr.contains("journal"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn runs_a_paper_figure_in_every_format() {
    // Table 1 and Figure 11 need no simulation, keeping the test quick while
    // still exercising the figure registry end to end.
    let table = dspatch_lab(&["--figure", "table1", "--format", "table"]);
    assert!(table.contains("SPT"));

    let json = dspatch_lab(&["--figure", "table1", "--format", "json"]);
    let parsed = Json::parse(&json).expect("figure JSON is valid");
    assert_eq!(
        parsed.get("title").and_then(Json::as_str),
        Some("Table 1: DSPatch storage overhead")
    );

    let csv = dspatch_lab(&["--figure", "fig11", "--format", "csv"]);
    assert!(csv.lines().next().unwrap().contains("Metric,Value"));
}

#[test]
fn runs_a_custom_spec_file_in_every_format() {
    let dir = std::env::temp_dir().join("dspatch-lab-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("spec.json");
    std::fs::write(&path, SMOKE_SPEC).expect("write spec");
    let path = path.to_str().expect("utf-8 temp path");

    let json = dspatch_lab(&["--spec", path, "--format", "json"]);
    let parsed = Json::parse(&json).expect("campaign JSON is valid");
    assert_eq!(
        parsed.get("campaign").and_then(Json::as_str),
        Some("cli smoke")
    );
    // 1 workload × (1 memoized baseline + 2 candidates).
    assert_eq!(
        parsed
            .get("stats")
            .and_then(|s| s.get("sims_run"))
            .and_then(Json::as_u64),
        Some(3)
    );

    let csv = dspatch_lab(&["--spec", path, "--format", "csv"]);
    assert!(csv.starts_with("Cell,Target,Config,Prefetcher"));
    assert_eq!(csv.lines().count(), 3, "header + one row per prefetcher");

    let table = dspatch_lab(&["--spec", path, "--format", "table"]);
    assert!(table.contains("DSPatch+SPP") && table.contains("Speedup"));
}

#[test]
fn template_spec_round_trips_through_the_parser() {
    let template = dspatch_lab(&["--template"]);
    let spec = dspatch_harness::CampaignSpec::parse(&template).expect("template parses");
    assert_eq!(spec.name, "example campaign");
    assert_eq!(spec.cells.len(), 2);
}

#[test]
fn list_prints_the_full_inventory() {
    let listing = dspatch_lab(&["--list"]);
    // Every figure id...
    for id in dspatch_harness::FigureId::ALL {
        assert!(listing.contains(id.name()), "missing figure {}", id.name());
    }
    // ...every workload name (memory-intensive ones carry a marker)...
    for workload in dspatch_trace::suite() {
        assert!(
            listing.contains(&workload.name),
            "missing workload {}",
            workload.name
        );
    }
    assert!(
        listing.contains("mcf06*"),
        "memory-intensive marker missing"
    );
    // ...every scale preset with its knobs, and the prefetcher names.
    for preset in ["smoke", "quick", "full"] {
        assert!(listing.contains(preset), "missing scale preset {preset}");
    }
    assert!(listing.contains("accesses/workload"));
    assert!(listing.contains("dspatch_plus_spp"));
}

#[test]
fn replays_an_external_trace_file_in_both_formats() {
    use dspatch_trace::{suite, TraceSource};

    // Process-unique names so concurrent test runs on one machine never
    // race on the same files.
    let dir = std::env::temp_dir().join(format!("dspatch-lab-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    // Native binary trace.
    let workload = &suite()[0];
    let trace = workload.generate(1_500);
    let binary_path = dir.join("replay.dspt");
    dspatch_trace::io::save_trace(&trace, &binary_path).expect("save");
    let table = dspatch_lab(&[
        "--trace-file",
        binary_path.to_str().expect("utf-8 path"),
        "--prefetchers",
        "spp,dspatch_plus_spp",
    ]);
    assert!(table.contains("External trace replay"));
    assert!(table.contains("Baseline") && table.contains("DSPatch+SPP"));
    std::fs::remove_file(&binary_path).ok();

    // ChampSim-style text trace, JSON output.
    let text_path = dir.join("replay.champsim.txt");
    let mut text = String::from("# synthetic text trace\n");
    let mut source = workload.source(400);
    while let Some(record) = source.next_record() {
        text.push_str(&format!(
            "{:#x} {:#x} {} {}{}\n",
            record.pc.as_u64(),
            record.addr.as_u64(),
            if record.kind.is_load() { "L" } else { "S" },
            record.gap,
            if record.dependent { " D" } else { "" },
        ));
    }
    std::fs::write(&text_path, text).expect("write text trace");
    let json = dspatch_lab(&[
        "--trace-file",
        text_path.to_str().expect("utf-8 path"),
        "--format",
        "json",
    ]);
    let parsed = Json::parse(&json).expect("replay JSON is valid");
    let title = parsed.get("title").and_then(Json::as_str).expect("title");
    assert!(title.contains("400 accesses"), "got title: {title}");
    std::fs::remove_file(&text_path).ok();
}

#[test]
fn replaying_a_trace_without_records_exits_3() {
    // An empty trace would report IPC 0 and a 1.0x speedup on every row.
    let dir = std::env::temp_dir().join(format!("dspatch-lab-cli-empty-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let text = dir.join("comments.champsim.txt");
    std::fs::write(&text, "# only a comment\n").expect("write text trace");
    let binary = dir.join("empty.dspt");
    let empty = dspatch_trace::Trace::new("empty", Vec::new());
    dspatch_trace::io::save_trace(&empty, &binary).expect("save");
    for path in [&text, &binary] {
        let path = path.to_str().expect("utf-8 path");
        let (code, stderr) = dspatch_lab_fails(&["--trace-file", path]);
        assert_eq!(code, 3, "{path}: {stderr}");
        assert!(
            stderr.starts_with(&format!(
                "dspatch-lab: invalid spec: {path}: trace holds no records"
            )),
            "{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
