//! Content-addressed, append-only result store: the durable cross-campaign
//! memo table behind `dspatch-serve` and `dspatch-lab --store`, and the one
//! place a campaign's results persist.
//!
//! Every record is keyed by a [`cell_fingerprint`] — FNV-1a over the `(code
//! version, target, prefetcher, normalized config, accesses-per-workload,
//! sampling plan)` identity of one simulation cell — so *any* campaign, submitted by *any*
//! request or process incarnation, that reaches an already-simulated cell is
//! served from disk instead of re-simulating. That is also how a killed
//! campaign resumes: re-run it against the same store and every cell it
//! completed is a hit, so only the missing cells simulate. The file is
//! crash-safe: one flushed JSON line per record, a torn final line silently
//! truncated on open, mid-file damage a typed [`HarnessError::Corrupt`].
//!
//! Each record is a canonical schema-2 [`ResultRow`] (`{"row": {...}}`)
//! carrying the fingerprint identity spelled out as typed fields, which is
//! what the [`crate::analytics`] layer queries. A store of an older format
//! version, or a row of another schema, is refused with
//! [`HarnessError::Mismatch`] and left untouched on disk.
//!
//! The fingerprint deliberately *includes* the [`code_version`]: a simulator
//! change invalidates old results by changing the key, never by rewriting
//! the file — [`ResultStore::gc`] is how superseded versions are eventually
//! reclaimed.

use crate::error::HarnessError;
use crate::json::Json;
use crate::results::{ResultRow, SCHEMA_VERSION};
use crate::runner::RunScale;
use dspatch_sim::{SimResult, SystemConfig};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic value of the meta line's `store` field.
const STORE_MAGIC: &str = "dspatch-result-store";
/// Store format version (records are canonical [`ResultRow`]s), the only
/// one read.
const STORE_VERSION: u64 = 2;
/// File name inside the store directory.
pub const STORE_FILE: &str = "results.jsonl";

/// The code version participating in every [`cell_fingerprint`] and
/// [`campaign_fingerprint`], so results simulated by older code are never
/// served for newer code (or vice versa).
///
/// It is the crate version plus a trailing model-revision segment, raised
/// whenever simulated results or cell identities change while the crate
/// version stays put. Revision 1 is multi-core simulation on the exact
/// cycle-interleaved machine. Revision 2 runs every simulation until each
/// core has retired its last record: no cycle cap truncates a row any
/// more, and `SystemConfig`'s `Debug` text, which every cell fingerprint
/// hashes, lost the cap's field. [`compare_versions`] sorts `0.1.0.2`
/// after `0.1.0.1` and `0.1.0`, so `store gc --keep-versions 1` drops the
/// superseded rows.
pub fn code_version() -> &'static str {
    concat!(env!("CARGO_PKG_VERSION"), ".2")
}

/// Orders version strings by their dotted numeric segments (`0.10.0` after
/// `0.9.1`), falling back to byte order for non-numeric segments. The empty
/// string sorts before everything.
pub fn compare_versions(a: &str, b: &str) -> std::cmp::Ordering {
    let mut left = a.split('.');
    let mut right = b.split('.');
    loop {
        match (left.next(), right.next()) {
            (None, None) => return std::cmp::Ordering::Equal,
            (None, Some(_)) => return std::cmp::Ordering::Less,
            (Some(_), None) => return std::cmp::Ordering::Greater,
            (Some(x), Some(y)) => {
                let ordering = match (x.parse::<u64>(), y.parse::<u64>()) {
                    (Ok(xn), Ok(yn)) => xn.cmp(&yn),
                    _ => x.cmp(y),
                };
                if ordering != std::cmp::Ordering::Equal {
                    return ordering;
                }
            }
        }
    }
}

/// FNV-1a 64-bit over a byte stream — stable, dependency-free fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Fingerprint of one `(spec, scale, code version)` campaign identity,
/// rendered as 16 hex digits; `dspatch-serve` uses it as the campaign id.
/// `threads` is excluded: it is a machine knob that never changes results
/// (the executor is deterministic for any worker count), so the same spec
/// submitted with a different worker count is the same campaign. The
/// [`code_version`] is included, so code that simulates differently never
/// attaches to a campaign of the old model.
pub fn campaign_fingerprint(spec_json: &Json, scale: &RunScale) -> String {
    let mut identity = format!(
        "{}|a{}|w{}|m{}|v{}",
        spec_json.render_compact(),
        scale.accesses_per_workload,
        scale.workloads_per_category,
        scale.mixes,
        code_version(),
    );
    // Sampled and exact runs of the same spec must never alias: the plan
    // joins the identity when present.
    if let Some(plan) = &scale.sampling {
        identity.push_str(&plan.fingerprint_suffix());
    }
    format!("{:016x}", fnv1a(identity.as_bytes()))
}

/// Content address of one simulation cell, rendered as 16 hex digits.
///
/// The identity is `(code version, target key, prefetcher selection,
/// config, accesses per workload, sampling plan)`. The config is hashed
/// through its `Debug` rendering, which is stable within one code version;
/// `code_version()` in the identity covers renderings drifting *across*
/// versions. Sampled and exact results of the same cell get distinct
/// identities: a sampled IPC is an estimate and must never be served where
/// an exact one was asked for.
pub fn cell_fingerprint(
    target_key: &str,
    prefetcher: &str,
    config: &SystemConfig,
    accesses_per_workload: usize,
    sampling: Option<&crate::sampling::SamplingPlan>,
) -> String {
    let mut identity = format!(
        "v{}|{target_key}|{prefetcher}|{config:?}|a{accesses_per_workload}",
        code_version()
    );
    if let Some(plan) = sampling {
        identity.push_str(&plan.fingerprint_suffix());
    }
    format!("{:016x}", fnv1a(identity.as_bytes()))
}

/// What one [`ResultStore::gc`] pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcStats {
    /// Rows kept (and rewritten).
    pub kept: usize,
    /// Rows dropped (superseded code versions).
    pub dropped: usize,
}

/// The append-only on-disk memo table: an in-memory index over
/// `<dir>/results.jsonl`, with one flushed line per inserted result.
///
/// Opened once per process and shared behind a mutex; the lock is taken per
/// lookup/insert, never on the simulation hot path.
#[derive(Debug)]
pub struct ResultStore {
    path: PathBuf,
    file: std::fs::File,
    results: HashMap<String, ResultRow>,
}

impl ResultStore {
    /// Opens (creating if needed) the store under `dir`, replaying every
    /// existing record into the in-memory index. A torn final line — the
    /// crash signature of an interrupted append — is truncated away;
    /// mid-file damage is a typed error.
    ///
    /// # Errors
    ///
    /// * [`HarnessError::Io`] — the directory or file cannot be created,
    ///   read, or truncated.
    /// * [`HarnessError::Mismatch`] — the file exists but carries a foreign
    ///   magic, an unsupported version, or a row of another schema (never
    ///   silently overwritten).
    /// * [`HarnessError::Corrupt`] — a record before the final line is
    ///   unparsable or structurally invalid.
    pub fn open(dir: &Path) -> Result<Self, HarnessError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| HarnessError::io(dir.display().to_string(), "create_dir", &e))?;
        let path = dir.join(STORE_FILE);
        let display = path.display().to_string();
        if !path.exists() {
            let file = std::fs::File::create(&path)
                .map_err(|e| HarnessError::io(display.clone(), "create", &e))?;
            let mut store = Self {
                path,
                file,
                results: HashMap::new(),
            };
            store.write_line(&meta_json().render_compact())?;
            return Ok(store);
        }

        let (results, clean_len) = Self::replay(&path, &display)?;
        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| HarnessError::io(display.clone(), "open", &e))?;
        file.set_len(clean_len)
            .map_err(|e| HarnessError::io(display.clone(), "truncate", &e))?;
        file.seek(SeekFrom::Start(clean_len))
            .map_err(|e| HarnessError::io(display.clone(), "seek", &e))?;
        let mut store = Self {
            path,
            file,
            results,
        };
        if clean_len == 0 {
            // The file existed but was empty (or all torn): re-stamp it.
            store.write_line(&meta_json().render_compact())?;
        }
        Ok(store)
    }

    /// Reads every record, returning the index and the clean byte prefix.
    fn replay(
        path: &Path,
        display: &str,
    ) -> Result<(HashMap<String, ResultRow>, u64), HarnessError> {
        let file = std::fs::File::open(path)
            .map_err(|e| HarnessError::io(display.to_owned(), "open", &e))?;
        let mut reader = BufReader::new(file);
        let mut results = HashMap::new();
        let mut line = String::new();
        let mut line_no = 0u64;
        let mut offset = 0u64;
        loop {
            line.clear();
            let bytes = reader
                .read_line(&mut line)
                .map_err(|e| HarnessError::io(display.to_owned(), "read", &e))?;
            if bytes == 0 {
                break;
            }
            line_no += 1;
            let parsed = if line.ends_with('\n') {
                parse_store_line(line.trim_end(), line_no, display)
            } else {
                Err(HarnessError::Corrupt {
                    path: display.to_owned(),
                    line: line_no,
                    message: "record has no trailing newline".to_owned(),
                })
            };
            match parsed {
                Ok(StoreRecord::Meta) => offset += bytes as u64,
                Ok(StoreRecord::Row(row)) => {
                    results.insert(row.fingerprint.clone(), *row);
                    offset += bytes as u64;
                }
                Err(error) => {
                    let at_eof = {
                        let probe = reader
                            .fill_buf()
                            .map_err(|e| HarnessError::io(display.to_owned(), "read", &e))?;
                        probe.is_empty()
                    };
                    // A bad FINAL line is a torn append: drop it and keep
                    // the clean prefix. Anything earlier is real damage,
                    // and a foreign meta line always propagates.
                    if at_eof && line_no > 1 && matches!(error, HarnessError::Corrupt { .. }) {
                        break;
                    }
                    return Err(error);
                }
            }
        }
        Ok((results, offset))
    }

    /// Looks up a cell's statistics by fingerprint.
    pub fn get(&self, fingerprint: &str) -> Option<&SimResult> {
        self.results.get(fingerprint).map(|row| &row.result)
    }

    /// Looks up a cell's full row by fingerprint.
    pub fn get_row(&self, fingerprint: &str) -> Option<&ResultRow> {
        self.results.get(fingerprint)
    }

    /// Inserts one row, appending a flushed record; a fingerprint already
    /// present is a no-op (returns `false`, writes nothing), so replaying
    /// overlapping campaigns into one store stays idempotent.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Io`] on write failure.
    pub fn insert(&mut self, row: &ResultRow) -> Result<bool, HarnessError> {
        if self.results.contains_key(&row.fingerprint) {
            return Ok(false);
        }
        let record = Json::obj([("row", row.to_json())]);
        self.write_line(&record.render_compact())?;
        self.results.insert(row.fingerprint.clone(), row.clone());
        Ok(true)
    }

    /// Number of stored results.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Whether the store holds no results.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// The backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Iterates over `(fingerprint, result)` pairs in index order
    /// (unspecified, not insertion order).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &SimResult)> {
        self.results
            .iter()
            .map(|(k, row)| (k.as_str(), &row.result))
    }

    /// Iterates over the stored rows in index order (unspecified, not
    /// insertion order). The analytics layer sorts canonically on load.
    pub fn rows(&self) -> impl Iterator<Item = &ResultRow> {
        self.results.values()
    }

    /// Compacts the store: rewrites `results.jsonl` keeping, for each cell
    /// identity (workload, prefetcher, config, scale, sampling), only the
    /// rows belonging to the newest `keep_versions` distinct code versions.
    ///
    /// The rewrite is crash-safe: rows are written to `results.jsonl.tmp`
    /// (meta line first, rows in canonical identity order) and the file is
    /// atomically renamed over the store — a crash mid-gc leaves the
    /// original store untouched.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Spec`] for `keep_versions == 0` and
    /// [`HarnessError::Io`] on write/rename failure.
    pub fn gc(&mut self, keep_versions: usize) -> Result<GcStats, HarnessError> {
        if keep_versions == 0 {
            return Err(HarnessError::spec(
                "store gc: keep_versions must be at least 1 (0 would drop every row)",
            ));
        }
        // Newest-N code versions per identity group.
        let mut versions_by_group: HashMap<String, Vec<&str>> = HashMap::new();
        for row in self.results.values() {
            let versions = versions_by_group.entry(gc_group_key(row)).or_default();
            if !versions.contains(&row.code_version.as_str()) {
                versions.push(&row.code_version);
            }
        }
        for versions in versions_by_group.values_mut() {
            versions.sort_by(|a, b| compare_versions(b, a));
            versions.truncate(keep_versions);
        }
        let mut kept: Vec<&ResultRow> = self
            .results
            .values()
            .filter(|row| {
                versions_by_group[&gc_group_key(row)].contains(&row.code_version.as_str())
            })
            .collect();
        kept.sort_by_key(|row| row_identity(row));
        let stats = GcStats {
            kept: kept.len(),
            dropped: self.results.len() - kept.len(),
        };

        // Write-temp-then-rename: the live file is replaced atomically.
        let tmp_path = self.path.with_extension("jsonl.tmp");
        let tmp_display = tmp_path.display().to_string();
        {
            let mut tmp = std::fs::File::create(&tmp_path)
                .map_err(|e| HarnessError::io(tmp_display.clone(), "create", &e))?;
            let mut write = |line: &str| {
                tmp.write_all(line.as_bytes())
                    .and_then(|()| tmp.write_all(b"\n"))
                    .map_err(|e| HarnessError::io(tmp_display.clone(), "write", &e))
            };
            write(&meta_json().render_compact())?;
            for row in &kept {
                write(&Json::obj([("row", row.to_json())]).render_compact())?;
            }
            tmp.sync_all()
                .map_err(|e| HarnessError::io(tmp_display.clone(), "sync", &e))?;
        }
        let display = self.path.display().to_string();
        std::fs::rename(&tmp_path, &self.path)
            .map_err(|e| HarnessError::io(display.clone(), "rename", &e))?;

        // Reopen the append handle on the new file and rebuild the index.
        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .open(&self.path)
            .map_err(|e| HarnessError::io(display.clone(), "open", &e))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| HarnessError::io(display, "seek", &e))?;
        self.file = file;
        self.results = kept
            .into_iter()
            .map(|row| (row.fingerprint.clone(), row.clone()))
            .collect();
        Ok(stats)
    }

    fn write_line(&mut self, line: &str) -> Result<(), HarnessError> {
        let display = self.path.display().to_string();
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.write_all(b"\n"))
            .and_then(|()| self.file.flush())
            .map_err(|e| HarnessError::io(display, "write", &e))
    }
}

/// The identity group a row competes in during [`ResultStore::gc`].
fn gc_group_key(row: &ResultRow) -> String {
    format!(
        "{}|{}|{}|{}|{}",
        row.workload, row.prefetcher, row.config, row.scale, row.sampling
    )
}

/// Canonical sort key for the gc rewrite (and deterministic re-query).
fn row_identity(row: &ResultRow) -> (String, u64, String) {
    (gc_group_key(row), row.scale, row.fingerprint.clone())
}

fn meta_json() -> Json {
    Json::obj([
        ("store", Json::str(STORE_MAGIC)),
        ("version", Json::num(STORE_VERSION as u32)),
    ])
}

enum StoreRecord {
    Meta,
    Row(Box<ResultRow>),
}

fn parse_store_line(text: &str, line_no: u64, display: &str) -> Result<StoreRecord, HarnessError> {
    let corrupt = |message: String| HarnessError::Corrupt {
        path: display.to_owned(),
        line: line_no,
        message,
    };
    let json = Json::parse(text).map_err(|e| corrupt(e.to_string()))?;
    if line_no == 1 {
        let magic = json.get("store").and_then(Json::as_str).unwrap_or("");
        if magic != STORE_MAGIC {
            return Err(HarnessError::Mismatch {
                path: display.to_owned(),
                field: "store",
                expected: STORE_MAGIC.to_owned(),
                found: magic.to_owned(),
            });
        }
        let version = json.get("version").and_then(Json::as_u64).unwrap_or(0);
        if version != STORE_VERSION {
            return Err(HarnessError::Mismatch {
                path: display.to_owned(),
                field: "version",
                expected: STORE_VERSION.to_string(),
                found: version.to_string(),
            });
        }
        return Ok(StoreRecord::Meta);
    }
    let row = json
        .get("row")
        .ok_or_else(|| corrupt(format!("unknown record shape: {text}")))?;
    // A complete row of another schema is an unsupported format, not a torn
    // append: a typed mismatch keeps `replay` from truncating it away.
    if let Some(schema) = row.get("schema").and_then(Json::as_u64) {
        if schema != SCHEMA_VERSION {
            return Err(HarnessError::Mismatch {
                path: display.to_owned(),
                field: "schema",
                expected: SCHEMA_VERSION.to_string(),
                found: schema.to_string(),
            });
        }
    }
    let row = ResultRow::from_json(row).map_err(corrupt)?;
    Ok(StoreRecord::Row(Box::new(row)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspatch_sim::{SimulationBuilder, SystemConfig};
    use dspatch_trace::{Trace, TraceRecord};
    use dspatch_types::NullPrefetcher;

    fn tiny_sim() -> SimResult {
        let records: Vec<TraceRecord> = (0..32).map(|i| TraceRecord::load(0x400, i * 64)).collect();
        SimulationBuilder::new(SystemConfig::single_thread())
            .with_core(Trace::new("store-test", records), NullPrefetcher::new())
            .run()
    }

    fn row_for(fingerprint: &str, workload: &str, prefetcher: &str, version: &str) -> ResultRow {
        let mut row = ResultRow::new(
            fingerprint.to_owned(),
            "store-test".to_owned(),
            workload.to_owned(),
            prefetcher.to_owned(),
            "1T".to_owned(),
            32,
            String::new(),
            tiny_sim(),
        );
        row.code_version = version.to_owned();
        row
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dspatch_store_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn round_trips_across_reopen() {
        let dir = temp_dir("roundtrip");
        let sim = tiny_sim();
        let fp = cell_fingerprint(
            "w:test",
            "Kind(Baseline)",
            &SystemConfig::single_thread(),
            32,
            None,
        );
        let row = ResultRow::new(
            fp.clone(),
            "store-test".to_owned(),
            "test".to_owned(),
            "Baseline".to_owned(),
            "1T".to_owned(),
            32,
            String::new(),
            sim.clone(),
        );
        {
            let mut store = ResultStore::open(&dir).expect("open fresh");
            assert!(store.is_empty());
            assert!(store.insert(&row).expect("insert"));
            // Idempotent: a second insert writes nothing.
            assert!(!store.insert(&row).expect("reinsert"));
            assert_eq!(store.len(), 1);
        }
        let store = ResultStore::open(&dir).expect("reopen");
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(&fp), Some(&sim));
        let stored = store.get_row(&fp).expect("full row");
        assert_eq!(stored, &row);
        assert_eq!(stored.code_version, code_version());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_but_midfile_damage_is_typed() {
        let dir = temp_dir("torn");
        let fp_a = cell_fingerprint("w:a", "Kind(Spp)", &SystemConfig::single_thread(), 32, None);
        let fp_b = cell_fingerprint("w:b", "Kind(Spp)", &SystemConfig::single_thread(), 32, None);
        {
            let mut store = ResultStore::open(&dir).expect("open");
            store
                .insert(&row_for(&fp_a, "a", "SPP", "0.1.0"))
                .expect("insert a");
            store
                .insert(&row_for(&fp_b, "b", "SPP", "0.1.0"))
                .expect("insert b");
        }
        let path = dir.join(STORE_FILE);
        let text = std::fs::read_to_string(&path).expect("read");
        // Tear the final record mid-line: the reopen drops it, keeps the rest.
        std::fs::write(&path, &text[..text.len() - 40]).expect("tear");
        let store = ResultStore::open(&dir).expect("reopen torn");
        assert_eq!(store.len(), 1);
        drop(store);
        // Damage a NON-final line: that is real corruption.
        let lines: Vec<&str> = text.lines().collect();
        let mangled = format!(
            "{}\n{}\n{}\n",
            lines[0],
            &lines[1][..lines[1].len() / 2],
            lines[2]
        );
        std::fs::write(&path, mangled).expect("mangle");
        let err = ResultStore::open(&dir).expect_err("mid-file damage");
        assert!(
            matches!(err, HarnessError::Corrupt { line: 2, .. }),
            "{err:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_file_is_a_mismatch() {
        let dir = temp_dir("foreign");
        std::fs::create_dir_all(&dir).expect("dir");
        std::fs::write(dir.join(STORE_FILE), "{\"store\": \"something-else\"}\n").expect("write");
        let err = ResultStore::open(&dir).expect_err("foreign magic");
        assert!(
            matches!(err, HarnessError::Mismatch { field: "store", .. }),
            "{err:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_separates_every_identity_field() {
        let exact = |target, prefetcher, config, accesses| {
            cell_fingerprint(target, prefetcher, config, accesses, None)
        };
        let base = SystemConfig::single_thread();
        let fp = exact("w:x", "Kind(Dspatch)", &base, 1000);
        assert_eq!(fp, exact("w:x", "Kind(Dspatch)", &base, 1000));
        let mut other = base.clone();
        other.prefetch_mshrs += 1;
        assert_ne!(fp, exact("w:x", "Kind(Dspatch)", &other, 1000));
        assert_ne!(fp, exact("w:y", "Kind(Dspatch)", &base, 1000));
        assert_ne!(fp, exact("w:x", "Kind(Spp)", &base, 1000));
        assert_ne!(fp, exact("w:x", "Kind(Dspatch)", &base, 2000));
    }

    #[test]
    fn sampling_plans_change_the_campaign_fingerprint() {
        let spec = Json::obj([("name", Json::str("fp"))]);
        let exact = RunScale::smoke();
        let sampled = RunScale {
            sampling: Some(crate::sampling::SamplingPlan {
                warmup_accesses: 100,
                interval_accesses: 10,
                intervals: 2,
                seed: 0,
            }),
            ..RunScale::smoke()
        };
        assert_ne!(
            campaign_fingerprint(&spec, &exact),
            campaign_fingerprint(&spec, &sampled)
        );
        let reseeded = RunScale {
            sampling: sampled
                .sampling
                .map(|p| crate::sampling::SamplingPlan { seed: 9, ..p }),
            ..sampled
        };
        assert_ne!(
            campaign_fingerprint(&spec, &sampled),
            campaign_fingerprint(&spec, &reseeded)
        );
    }

    #[test]
    fn fingerprints_ignore_threads_but_track_everything_else() {
        let spec = Json::obj([("name", Json::str("c"))]);
        let scale = RunScale {
            accesses_per_workload: 1000,
            workloads_per_category: 1,
            mixes: 1,
            threads: 8,
            sampling: None,
        };
        let mut rethreaded = scale;
        rethreaded.threads = 2;
        assert_eq!(
            campaign_fingerprint(&spec, &scale),
            campaign_fingerprint(&spec, &rethreaded),
            "threads are a machine knob, not an identity"
        );
        let mut rescaled = scale;
        rescaled.accesses_per_workload = 2000;
        assert_ne!(
            campaign_fingerprint(&spec, &scale),
            campaign_fingerprint(&spec, &rescaled)
        );
        let other_spec = Json::obj([("name", Json::str("d"))]);
        assert_ne!(
            campaign_fingerprint(&spec, &scale),
            campaign_fingerprint(&other_spec, &scale)
        );
    }

    #[test]
    fn campaign_ids_stay_pinned() {
        // `dspatch-serve` campaign ids are this fingerprint: a change to it
        // orphans every campaign a running service has registered.
        let spec = crate::campaign::CampaignSpec::template().to_json();
        assert_eq!(
            campaign_fingerprint(&spec, &RunScale::smoke()),
            "691428532a2c3263"
        );
    }

    #[test]
    fn version_ordering_is_numeric_per_segment() {
        use std::cmp::Ordering;
        assert_eq!(compare_versions("0.10.0", "0.9.1"), Ordering::Greater);
        assert_eq!(compare_versions("0.9.1", "0.9.1"), Ordering::Equal);
        assert_eq!(compare_versions("1.0.0", "0.99.99"), Ordering::Greater);
        assert_eq!(compare_versions("", "0.1.0"), Ordering::Less);
        assert_eq!(compare_versions("0.1", "0.1.0"), Ordering::Less);
    }

    #[test]
    fn gc_keeps_newest_versions_and_is_idempotent() {
        let dir = temp_dir("gc");
        {
            let mut store = ResultStore::open(&dir).expect("open");
            // Same identity under three code versions, plus a second cell
            // with one version.
            store
                .insert(&row_for("fp-old", "a", "SPP", "0.0.8"))
                .expect("a old");
            store
                .insert(&row_for("fp-mid", "a", "SPP", "0.0.9"))
                .expect("a mid");
            store
                .insert(&row_for("fp-new", "a", "SPP", "0.1.0"))
                .expect("a new");
            store
                .insert(&row_for("fp-b", "b", "SPP", "0.1.0"))
                .expect("b");
            assert_eq!(store.len(), 4);

            let stats = store.gc(2).expect("gc");
            assert_eq!(
                stats,
                GcStats {
                    kept: 3,
                    dropped: 1
                }
            );
            assert_eq!(store.len(), 3);
            assert!(store.get("fp-old").is_none(), "0.0.8 is superseded");
            assert!(store.get("fp-mid").is_some());
            assert!(store.get("fp-new").is_some());
            assert!(store.get("fp-b").is_some());

            // Idempotent: a second pass with the same policy drops nothing.
            let stats = store.gc(2).expect("gc again");
            assert_eq!(
                stats,
                GcStats {
                    kept: 3,
                    dropped: 0
                }
            );

            // The store stays appendable after the rewrite.
            store
                .insert(&row_for("fp-c", "c", "SPP", "0.1.0"))
                .expect("append after gc");
        }
        let store = ResultStore::open(&dir).expect("reopen");
        assert_eq!(store.len(), 4);
        assert!(store.get("fp-c").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_rewrite_is_byte_deterministic() {
        let dir_x = temp_dir("gc_det_x");
        let dir_y = temp_dir("gc_det_y");
        // Same rows, different insertion orders.
        let rows = [
            row_for("fp-1", "a", "SPP", "0.1.0"),
            row_for("fp-2", "b", "BOP", "0.1.0"),
            row_for("fp-3", "a", "BOP", "0.1.0"),
        ];
        {
            let mut store = ResultStore::open(&dir_x).expect("open x");
            for row in &rows {
                store.insert(row).expect("insert");
            }
            store.gc(1).expect("gc x");
        }
        {
            let mut store = ResultStore::open(&dir_y).expect("open y");
            for row in rows.iter().rev() {
                store.insert(row).expect("insert");
            }
            store.gc(1).expect("gc y");
        }
        let x = std::fs::read(dir_x.join(STORE_FILE)).expect("read x");
        let y = std::fs::read(dir_y.join(STORE_FILE)).expect("read y");
        assert_eq!(x, y, "gc output must not depend on insertion order");
        std::fs::remove_dir_all(&dir_x).ok();
        std::fs::remove_dir_all(&dir_y).ok();
    }

    #[test]
    fn gc_of_zero_versions_is_a_spec_error() {
        let dir = temp_dir("gc_zero");
        let mut store = ResultStore::open(&dir).expect("open");
        let err = store.gc(0).expect_err("must reject");
        assert!(matches!(err, HarnessError::Spec { .. }), "{err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
