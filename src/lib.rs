//! Umbrella crate for the DSPatch reproduction workspace.
//!
//! Re-exports the member crates so the repository-level examples and
//! integration tests have a single dependency. Library users should depend
//! on the individual crates directly:
//!
//! * [`dspatch`] — the DSPatch prefetcher itself (the paper's contribution).
//! * [`dspatch_prefetchers`] — SPP, BOP, SMS, stride, streamer and the
//!   adjunct combinations.
//! * [`dspatch_sim`] — the cache/DRAM/core simulator substrate.
//! * [`dspatch_trace`] — synthetic workloads and multi-programmed mixes.
//! * [`dspatch_harness`] — the per-figure/table experiment harness.
//! * [`dspatch_types`] — shared address/access/prefetch types.

pub use dspatch;
pub use dspatch_harness;
pub use dspatch_prefetchers;
pub use dspatch_sim;
pub use dspatch_trace;
pub use dspatch_types;

/// Number of accesses an example should simulate per workload: `default`,
/// unless the `DSPATCH_EXAMPLE_ACCESSES` environment variable overrides it.
///
/// The repository's example smoke tests set the variable to a tiny value so
/// every example can be executed end-to-end in CI without paying for the
/// demo-sized simulations the examples run by default.
pub fn example_accesses(default: usize) -> usize {
    std::env::var("DSPATCH_EXAMPLE_ACCESSES")
        .ok()
        .and_then(|value| value.parse().ok())
        .unwrap_or(default)
}
