//! Deterministic fault injection for the campaign executor.
//!
//! A [`FaultPlan`] poisons chosen `(target, prefetcher)` cells: each one
//! panics where its simulation would start, so the executor quarantines it
//! exactly as it would a real panic. Plans are immutable and consulted with
//! pure lookups, so a faulted campaign is exactly as deterministic as a
//! clean one — the integration tests in `tests/fault_tolerance.rs` rely on
//! that to assert bit-identical resume output.
//!
//! Production campaigns never construct a plan; the executor's fault hook
//! is `None` and every lookup short-circuits.

/// An immutable set of `(target, prefetcher)` cells that panic, matched for
/// every job with that target name and prefetcher label (any config).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    cells: Vec<(String, String)>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Poisons the `(target, prefetcher)` cell. `prefetcher` is the display
    /// label (e.g. `"SPP"`, `"DSPatch+SPP"`, `"Baseline"`).
    pub fn poison(mut self, target: impl Into<String>, prefetcher: impl Into<String>) -> Self {
        self.cells.push((target.into(), prefetcher.into()));
        self
    }

    /// Whether this plan poisons the `(target, prefetcher)` cell.
    pub fn poisons(&self, target: &str, prefetcher: &str) -> bool {
        self.cells
            .iter()
            .any(|(t, p)| t == target && p == prefetcher)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_match_on_target_and_prefetcher() {
        let plan = FaultPlan::new()
            .poison("stream_1", "SPP")
            .poison("stream_1", "Baseline");
        assert!(plan.poisons("stream_1", "SPP"));
        assert!(plan.poisons("stream_1", "Baseline"));
        assert!(!plan.poisons("stream_1", "BOP"));
        assert!(!plan.poisons("stream_2", "SPP"));
        assert!(!FaultPlan::new().poisons("stream_1", "SPP"));
    }
}
