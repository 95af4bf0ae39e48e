//! Experiment harness reproducing every table and figure of the DSPatch
//! paper's evaluation.
//!
//! The heart of the crate is the [`campaign`] module: a declarative
//! [`CampaignSpec`] describes a grid of (workload-or-mix × prefetcher ×
//! system-config) cells, and one shared-queue parallel executor runs the grid with
//! every baseline simulation **memoized** per (target, config). Each
//! simulation-backed `figNN_*` function in [`experiments`] is a thin spec
//! over that engine, the [`figures`] registry names them all, and the
//! `dspatch-lab` binary runs any named figure, a custom JSON spec file, or
//! an external trace file (`--trace-file`, streamed with O(1) memory). The
//! [`runner::RunScale`] parameter controls how many workloads and how many
//! accesses per workload are simulated, so the same code scales from a
//! seconds-long smoke run (`RunScale::smoke()`) to a laptop-scale full
//! sweep (`RunScale::full()`) — and because every workload streams into
//! the machine as a lazy [`dspatch_trace::SynthSource`], memory stays flat
//! however many accesses a scale asks for.
//!
//! # Example
//!
//! ```
//! use dspatch_harness::{experiments, runner::RunScale};
//!
//! let scale = RunScale::smoke();
//! let table1 = experiments::table1_storage();
//! assert!(table1.render().contains("SPT"));
//! let fig11 = experiments::fig11_delta_and_compression(&scale);
//! assert!(fig11.plus_minus_one_fraction > 0.0);
//! ```

// Harness paths classify failures into `HarnessError` instead of panicking;
// tests are exempt (assertions are their job).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod analytics;
pub mod campaign;
pub mod error;
pub mod experiments;
pub mod faults;
pub mod figures;
pub mod json;
pub mod report;
pub mod results;
pub mod runner;
pub mod sampling;
pub mod store;

pub use analytics::{ColumnarView, Query, QueryOutput};
pub use campaign::{
    CampaignResult, CampaignSpec, CellFailure, CellOutcome, CellSpec, ExecOptions, ProgressEvent,
    ProgressSink, RetryPolicy, SharedStore,
};
pub use error::{ErrorClass, HarnessError};
pub use faults::{Fault, FaultPlan};
pub use figures::FigureId;
pub use json::{Json, JsonError, JsonErrorKind};
pub use report::Table;
pub use results::ResultRow;
pub use runner::{PrefetcherKind, RunScale};
pub use sampling::SamplingPlan;
pub use store::ResultStore;
