//! Multi-programmed workload mixes.
//!
//! The paper's multi-programmed experiments (Section 5.4, Figures 17 and 18)
//! run four cores sharing an 8 MB LLC and two DDR4 channels. Two mix families
//! are used:
//!
//! * **homogeneous** — four copies of the same memory-intensive workload,
//!   one per core (42 mixes, one per memory-intensive workload);
//! * **heterogeneous** — 75 mixes of four workloads drawn at random from the
//!   42 memory-intensive workloads.

use crate::workloads::{memory_intensive_suite, WorkloadSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A 4-core workload mix.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadMix {
    /// Mix name ("4x mcf06" or "mix-17").
    pub name: String,
    /// One workload per core, in core order.
    pub workloads: Vec<WorkloadSpec>,
}

impl WorkloadMix {
    /// Number of cores the mix occupies.
    pub fn cores(&self) -> usize {
        self.workloads.len()
    }

    /// Returns whether every core runs the same workload.
    pub fn is_homogeneous(&self) -> bool {
        self.workloads
            .windows(2)
            .all(|pair| pair[0].name == pair[1].name)
    }
}

/// Builds the 42 homogeneous mixes: four copies of each memory-intensive
/// workload. Each copy gets a distinct seed so the four cores do not access
/// identical addresses in lock step (they share the program, not the data).
pub fn homogeneous_mixes(cores: usize) -> Vec<WorkloadMix> {
    memory_intensive_suite()
        .into_iter()
        .map(|base| {
            let workloads = (0..cores)
                .map(|core| {
                    let mut copy = base.clone();
                    copy.seed = base.seed.wrapping_mul(31).wrapping_add(core as u64 + 1);
                    copy
                })
                .collect();
            WorkloadMix {
                name: format!("{}x {}", cores, base.name),
                workloads,
            }
        })
        .collect()
}

/// Builds `count` heterogeneous mixes of `cores` workloads each, drawn
/// uniformly (with a fixed seed) from the memory-intensive subset.
pub fn heterogeneous_mixes(count: usize, cores: usize, seed: u64) -> Vec<WorkloadMix> {
    let pool = memory_intensive_suite();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x4d49_5853);
    (0..count)
        .map(|i| {
            let workloads: Vec<WorkloadSpec> = (0..cores)
                .map(|_| pool[rng.random_range(0..pool.len())].clone())
                .collect();
            WorkloadMix {
                name: format!("mix-{i:02}"),
                workloads,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_42_homogeneous_mixes_of_4_cores() {
        let mixes = homogeneous_mixes(4);
        assert_eq!(mixes.len(), 42);
        assert!(mixes.iter().all(|m| m.cores() == 4));
        assert!(mixes.iter().all(WorkloadMix::is_homogeneous));
    }

    #[test]
    fn homogeneous_copies_use_distinct_seeds() {
        let mixes = homogeneous_mixes(4);
        for mix in &mixes {
            let mut seeds: Vec<u64> = mix.workloads.iter().map(|w| w.seed).collect();
            seeds.sort_unstable();
            seeds.dedup();
            assert_eq!(seeds.len(), 4, "cores of {} must not alias", mix.name);
        }
    }

    #[test]
    fn heterogeneous_mixes_have_requested_shape() {
        let mixes = heterogeneous_mixes(75, 4, 7);
        assert_eq!(mixes.len(), 75);
        assert!(mixes.iter().all(|m| m.cores() == 4));
        // At least some mixes must actually be heterogeneous.
        assert!(mixes.iter().any(|m| !m.is_homogeneous()));
    }

    #[test]
    fn heterogeneous_mixes_are_seed_deterministic() {
        let a = heterogeneous_mixes(10, 4, 3);
        let b = heterogeneous_mixes(10, 4, 3);
        let c = heterogeneous_mixes(10, 4, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn cores_are_consistent_across_all_generated_mixes() {
        for cores in 1..=6 {
            for mix in homogeneous_mixes(cores) {
                assert_eq!(mix.cores(), cores, "{}", mix.name);
            }
            for mix in heterogeneous_mixes(15, cores, 0xD5) {
                assert_eq!(mix.cores(), cores, "{}", mix.name);
            }
        }
    }

    #[test]
    fn heterogeneous_mixes_draw_only_memory_intensive_workloads() {
        let pool: std::collections::BTreeSet<String> = memory_intensive_suite()
            .into_iter()
            .map(|w| w.name)
            .collect();
        for mix in heterogeneous_mixes(30, 4, 7) {
            for workload in &mix.workloads {
                assert!(pool.contains(&workload.name), "{}", workload.name);
            }
        }
    }

    #[test]
    fn mix_names_are_unique() {
        let mixes = homogeneous_mixes(4);
        let mut names: Vec<&str> = mixes.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), mixes.len());
    }
}
