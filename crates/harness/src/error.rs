//! The typed error taxonomy for harness paths — the `HarnessError` the
//! ROADMAP's `dspatch-serve` item stacks on.
//!
//! Every fallible harness operation (spec validation, store I/O, cell
//! execution) classifies its failures into one [`HarnessError`] variant, and
//! each variant maps to a stable [`ErrorClass`] with a dedicated
//! `dspatch-lab` exit code, so scripts driving campaigns can branch on the
//! failure mode without string-matching stderr. Cell-level failures carry
//! the `(target, prefetcher, config)` coordinates of the offending job; the
//! campaign itself keeps running (the executor quarantines the cell).

use crate::json::Json;

/// Coarse failure classes, each with a stable `dspatch-lab` exit code.
/// Keep the mapping in sync with the README's "Robustness" section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorClass {
    /// Invalid campaign spec or configuration (exit 3).
    Spec,
    /// OS-level I/O failure on a harness file (exit 4).
    Io,
    /// A corrupt record in a persisted file (exit 5).
    Corrupt,
    /// A persisted file of a foreign kind or an unsupported format version
    /// (exit 6).
    Mismatch,
    /// One or more cells panicked and were quarantined; the rest of the
    /// campaign completed (exit 7).
    Cell,
}

impl ErrorClass {
    /// The `dspatch-lab` exit code for this class. `0` is success, `1` a
    /// generic/internal failure and `2` a usage error, so classes start
    /// at 3.
    pub fn exit_code(self) -> i32 {
        match self {
            ErrorClass::Spec => 3,
            ErrorClass::Io => 4,
            ErrorClass::Corrupt => 5,
            ErrorClass::Mismatch => 6,
            ErrorClass::Cell => 7,
        }
    }

    /// Stable lower-case label (used in JSON reports).
    pub fn label(self) -> &'static str {
        match self {
            ErrorClass::Spec => "spec",
            ErrorClass::Io => "io",
            ErrorClass::Corrupt => "corrupt",
            ErrorClass::Mismatch => "mismatch",
            ErrorClass::Cell => "cell",
        }
    }
}

/// A typed harness failure. Variants carry enough context (path, line,
/// job coordinates) to act on without re-deriving it from the message.
#[derive(Debug, Clone, PartialEq)]
pub enum HarnessError {
    /// The campaign spec or a derived configuration is invalid.
    Spec {
        /// What is wrong with it.
        message: String,
    },
    /// An OS-level I/O failure on a harness file (store, spec, trace).
    Io {
        /// The file the operation targeted.
        path: String,
        /// The failing operation (`"open"`, `"read"`, `"write"`, ...).
        op: &'static str,
        /// The underlying error, rendered.
        message: String,
    },
    /// A structurally corrupt record in a persisted file.
    Corrupt {
        /// The damaged file.
        path: String,
        /// 1-based line number of the bad record.
        line: u64,
        /// What is wrong with it.
        message: String,
    },
    /// A persisted file whose header names a different file kind or an
    /// unsupported format version, or that holds a record of an unsupported
    /// schema; it is never silently overwritten.
    Mismatch {
        /// The offending file.
        path: String,
        /// The differing field: the header's `"store"` or `"version"`, or a
        /// record's `"schema"`.
        field: &'static str,
        /// The value this program expects.
        expected: String,
        /// The value the file holds.
        found: String,
    },
    /// A cell's simulation panicked.
    CellPanic {
        /// The `cell:target:prefetcher@config` coordinates of the job.
        job: String,
        /// The rendered panic payload.
        message: String,
    },
}

impl HarnessError {
    /// Convenience constructor for [`HarnessError::Spec`].
    pub fn spec(message: impl Into<String>) -> Self {
        HarnessError::Spec {
            message: message.into(),
        }
    }

    /// Convenience constructor for [`HarnessError::Io`].
    pub fn io(path: impl Into<String>, op: &'static str, error: &std::io::Error) -> Self {
        HarnessError::Io {
            path: path.into(),
            op,
            message: error.to_string(),
        }
    }

    /// The coarse class this error belongs to (and thereby its exit code).
    pub fn class(&self) -> ErrorClass {
        match self {
            HarnessError::Spec { .. } => ErrorClass::Spec,
            HarnessError::Io { .. } => ErrorClass::Io,
            HarnessError::Corrupt { .. } => ErrorClass::Corrupt,
            HarnessError::Mismatch { .. } => ErrorClass::Mismatch,
            HarnessError::CellPanic { .. } => ErrorClass::Cell,
        }
    }

    /// JSON form for reports: always an object with `class` and `message`,
    /// plus the variant's structured fields.
    pub fn to_json(&self) -> Json {
        let mut entries = vec![
            ("class".to_owned(), Json::str(self.class().label())),
            ("message".to_owned(), Json::str(self.to_string())),
        ];
        match self {
            HarnessError::Spec { .. } => {}
            HarnessError::Io { path, op, .. } => {
                entries.push(("path".to_owned(), Json::str(path)));
                entries.push(("op".to_owned(), Json::str(*op)));
            }
            HarnessError::Corrupt { path, line, .. } => {
                entries.push(("path".to_owned(), Json::str(path)));
                entries.push(("line".to_owned(), Json::num(*line as f64)));
            }
            HarnessError::Mismatch {
                path,
                field,
                expected,
                found,
            } => {
                entries.push(("path".to_owned(), Json::str(path)));
                entries.push(("field".to_owned(), Json::str(*field)));
                entries.push(("expected".to_owned(), Json::str(expected)));
                entries.push(("found".to_owned(), Json::str(found)));
            }
            HarnessError::CellPanic { job, .. } => {
                entries.push(("job".to_owned(), Json::str(job)));
            }
        }
        Json::Obj(entries)
    }
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Spec { message } => write!(f, "invalid spec: {message}"),
            HarnessError::Io { path, op, message } => write!(f, "{path}: {op} failed: {message}"),
            HarnessError::Corrupt {
                path,
                line,
                message,
            } => write!(f, "{path}:{line}: corrupt record: {message}"),
            HarnessError::Mismatch {
                path,
                field,
                expected,
                found,
            } => write!(
                f,
                "{path}: {field} mismatch: file has '{found}', expected '{expected}'"
            ),
            HarnessError::CellPanic { job, message } => {
                write!(f, "cell {job} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<dspatch_trace::TraceFileError> for HarnessError {
    fn from(error: dspatch_trace::TraceFileError) -> Self {
        use dspatch_trace::TraceFileError as T;
        match error {
            T::Io { path, op, message } => HarnessError::Io {
                path: path.display().to_string(),
                op,
                message,
            },
            // Structural trace problems are spec-class: the user pointed the
            // harness at a file that cannot back the requested campaign.
            other => HarnessError::Spec {
                message: other.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_map_to_distinct_exit_codes() {
        let classes = [
            ErrorClass::Spec,
            ErrorClass::Io,
            ErrorClass::Corrupt,
            ErrorClass::Mismatch,
            ErrorClass::Cell,
        ];
        let mut codes: Vec<i32> = classes.iter().map(|c| c.exit_code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), classes.len(), "exit codes must be distinct");
        // 0/1/2 are success/internal/usage; classes start above them.
        assert!(codes.iter().all(|&c| c >= 3));
    }

    #[test]
    fn display_carries_the_context() {
        let err = HarnessError::Corrupt {
            path: "store/results.jsonl".to_owned(),
            line: 17,
            message: "truncated record".to_owned(),
        };
        assert_eq!(
            err.to_string(),
            "store/results.jsonl:17: corrupt record: truncated record"
        );
        let mismatch = HarnessError::Mismatch {
            path: "store/results.jsonl".to_owned(),
            field: "store",
            expected: "dspatch-result-store".to_owned(),
            found: "other".to_owned(),
        };
        assert_eq!(
            mismatch.to_string(),
            "store/results.jsonl: store mismatch: file has 'other', \
             expected 'dspatch-result-store'"
        );
        let panicked = HarnessError::CellPanic {
            job: "hpc:stream_1:SPP@1T".to_owned(),
            message: "boom".to_owned(),
        };
        assert_eq!(
            panicked.to_string(),
            "cell hpc:stream_1:SPP@1T panicked: boom"
        );
        assert_eq!(panicked.class(), ErrorClass::Cell);
    }

    #[test]
    fn json_form_is_structured() {
        let err = HarnessError::Mismatch {
            path: "store/results.jsonl".to_owned(),
            field: "version",
            expected: "2".to_owned(),
            found: "9".to_owned(),
        };
        let json = err.to_json();
        assert_eq!(json.get("class").and_then(Json::as_str), Some("mismatch"));
        assert_eq!(json.get("field").and_then(Json::as_str), Some("version"));
        assert_eq!(json.get("expected").and_then(Json::as_str), Some("2"));
        assert_eq!(json.get("found").and_then(Json::as_str), Some("9"));
    }

    #[test]
    fn trace_errors_convert_with_their_class() {
        let io = dspatch_trace::TraceFileError::Io {
            path: "t.trace".into(),
            op: "open",
            message: "denied".to_owned(),
        };
        assert_eq!(HarnessError::from(io).class(), ErrorClass::Io);
        let short = dspatch_trace::TraceFileError::TooShort {
            path: "t.trace".into(),
            len: 2,
        };
        let converted = HarnessError::from(short);
        assert_eq!(converted.class(), ErrorClass::Spec);
        assert!(converted.to_string().contains("2 bytes"));
    }
}
