//! Format guarantees for the result store.
//!
//! The `store_v2_mix_0.1.0.jsonl` fixture is a byte-exact store written by
//! code version `0.1.0` for one 4-core mix, before multi-core simulations
//! ran on the exact cycle-interleaved machine. These tests prove that the
//! current reader loads its rows and re-renders them **bit-for-bit** (if a
//! serializer change ever breaks compatibility with shipped files, that
//! test fails first), that an older store format is refused without being
//! touched, and that the fixture's results, from a different model, are
//! never served.

use dspatch_harness::campaign::{run_campaign_with, ExecOptions};
use dspatch_harness::store::code_version;
use dspatch_harness::{CampaignSpec, HarnessError, Json, ResultStore, RunScale};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Fresh scratch directory per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dspatch-schema-upgrade-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn install_store(tag: &str, fixture_name: &str) -> PathBuf {
    let dir = scratch(tag);
    std::fs::copy(fixture(fixture_name), dir.join("results.jsonl")).expect("install fixture");
    dir
}

#[test]
fn store_v2_rows_load_and_rerender_bit_for_bit() {
    let dir = install_store("store-v2", "store_v2_mix_0.1.0.jsonl");
    let store = ResultStore::open(&dir).expect("v2 store opens");
    assert_eq!(store.len(), 2, "both fixture rows load");

    let text = std::fs::read_to_string(fixture("store_v2_mix_0.1.0.jsonl")).expect("read fixture");
    for line in text.lines().skip(1) {
        let parsed = Json::parse(line).expect("fixture line parses");
        let fingerprint = parsed
            .get("row")
            .and_then(|row| row.get("fingerprint"))
            .and_then(Json::as_str)
            .expect("fingerprint");
        let row = store
            .get_row(fingerprint)
            .unwrap_or_else(|| panic!("fingerprint {fingerprint} loaded"));
        // Re-render the fixture line from the loaded row: byte equality
        // proves the identity and the SimResult payload survived exactly.
        let rebuilt = Json::obj([("row", row.to_json())]).render_compact();
        assert_eq!(rebuilt, line, "row {fingerprint} re-renders bit-for-bit");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// An older store is an unsupported format: opening it is a typed
/// mismatch, and the file keeps every byte. A complete row of schema 1 as
/// the final line must not pass for a torn append and be truncated away.
#[test]
fn older_store_formats_are_refused_and_left_untouched() {
    let text = std::fs::read_to_string(fixture("store_v2_mix_0.1.0.jsonl")).expect("read fixture");
    let last_row = text.rfind("{\"row\": {\"schema\": 2,").expect("final row");
    let cases = [
        (
            "version",
            text.replacen("\"version\": 2}", "\"version\": 1}", 1),
        ),
        (
            "schema",
            format!(
                "{}{}",
                &text[..last_row],
                text[last_row..].replacen("\"schema\": 2,", "\"schema\": 1,", 1)
            ),
        ),
    ];
    for (field, older) in cases {
        assert_ne!(older, text, "{field}: the fixture was rewritten");
        let dir = scratch(&format!("older-{field}"));
        let path = dir.join("results.jsonl");
        std::fs::write(&path, &older).expect("install older store");
        let err = ResultStore::open(&dir).expect_err("older store must be refused");
        assert!(
            matches!(
                &err,
                HarnessError::Mismatch { field: got, expected, found, .. }
                    if *got == field && expected == "2" && found == "1"
            ),
            "{field}: {err:?}"
        );
        assert_eq!(err.class().exit_code(), 6, "{field}: exit code");
        assert_eq!(
            std::fs::read_to_string(&path).expect("reread"),
            older,
            "{field}: a refused store keeps every byte"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The campaign the `store_v2_mix_0.1.0.jsonl` fixture was written for.
const MIX_SPEC: &str = r#"{
  "name": "multi-core store fixture",
  "scale": {"accesses_per_workload": 400, "workloads_per_category": 1, "mixes": 1, "threads": 1},
  "cells": [{
    "label": "mix",
    "targets": {"homogeneous_mixes": {"cores": 4}},
    "prefetchers": ["dspatch_plus_spp"],
    "config": {"base": "multi_programmed"},
    "baseline": true
  }]
}"#;

fn mix_campaign() -> (CampaignSpec, RunScale) {
    let spec = CampaignSpec::parse(MIX_SPEC).expect("fixture spec parses");
    let scale = spec
        .scale
        .as_ref()
        .expect("fixture spec carries a scale")
        .resolve()
        .expect("fixture scale resolves");
    (spec, scale)
}

#[test]
fn multi_core_rows_from_code_0_1_0_are_misses_and_gc_drops_them() {
    let dir = install_store("mix-0.1.0", "store_v2_mix_0.1.0.jsonl");
    let store = ResultStore::open(&dir).expect("0.1.0 store opens");
    assert_eq!(store.len(), 2, "baseline and DSPatch+SPP rows load");
    assert!(store
        .rows()
        .all(|row| row.code_version == "0.1.0" && row.config == "4P"));
    let shared = Arc::new(Mutex::new(store));

    let (spec, scale) = mix_campaign();
    let opts = ExecOptions {
        store: Some(Arc::clone(&shared)),
        ..ExecOptions::default()
    };
    let result = run_campaign_with(&spec, &scale, &opts).expect("campaign runs");
    assert_eq!(result.stats.store_hits, 0, "0.1.0 rows must not be served");
    assert_eq!(result.stats.sims_run, 2);

    let mut store = shared.lock().expect("store lock");
    assert_eq!(store.len(), 4, "fresh rows land beside the old ones");
    let gc = store.gc(1).expect("gc");
    assert_eq!((gc.kept, gc.dropped), (2, 2));
    assert!(store.rows().all(|row| row.code_version == code_version()));
    std::fs::remove_dir_all(&dir).ok();
}
