//! Memory-access traces and synthetic workload generation.
//!
//! The DSPatch paper evaluates 75 workloads drawn from SPEC CPU2006/2017,
//! server, cloud and SYSmark suites — traces we do not have. This crate
//! substitutes **deterministic synthetic trace generators** that reproduce
//! the *access-pattern structure* the paper attributes to each workload
//! category (streaming, strided, spatially-clustered with out-of-order
//! reordering, sparse-irregular, pointer-chasing, code-heavy), so that the
//! relative behaviour of the prefetchers — the quantity every figure reports
//! — is preserved.
//!
//! * [`TraceRecord`] / [`Trace`] — the trace representation consumed by the
//!   simulator (`dspatch-sim`).
//! * [`source`] — the streaming [`TraceSource`] API: pull-based,
//!   O(1)-memory trace delivery (lazy synthetic sources and the
//!   owned-trace adapter). This is how the simulator consumes traces;
//!   materializing a `Trace` is only needed for random-access analysis.
//! * [`synth`] — the pattern generators, each an incremental
//!   [`RecordStream`] whose materialized form is the stream collected.
//! * [`workloads`] — the named 75-workload suite, its 9 categories
//!   (Table 4) and the 42-workload memory-intensive subset.
//! * [`mixes`] — homogeneous and heterogeneous 4-core mixes for the
//!   multi-programmed experiments (Figures 17 and 18).
//! * [`io`] — a small binary on-disk format plus streaming file-backed
//!   sources (native binary and ChampSim-style text importers).
//!
//! # Example
//!
//! ```
//! use dspatch_trace::workloads::{suite, WorkloadCategory};
//!
//! let all = suite();
//! assert_eq!(all.len(), 75);
//! let cloud: Vec<_> = all.iter().filter(|w| w.category == WorkloadCategory::Cloud).collect();
//! let trace = cloud[0].generate(10_000);
//! assert_eq!(trace.len(), 10_000);
//! ```

pub mod io;
pub mod mixes;
pub use io::TraceFileError;
pub mod record;
pub mod source;
pub mod synth;
pub mod workloads;

pub use mixes::{heterogeneous_mixes, homogeneous_mixes, WorkloadMix};
pub use record::{Trace, TraceRecord};
pub use source::{
    collect_source, IntoTraceSource, MaterializedSource, SynthSource, TraceMeta, TraceSource,
};
pub use synth::{
    CodeHeavyGen, GeneratorSpec, IrregularGen, MixedGen, PatternGenerator, PointerChaseGen,
    RecordStream, SpatialPatternGen, StreamGen, StridedGen,
};
pub use workloads::{memory_intensive_suite, suite, WorkloadCategory, WorkloadSpec};
