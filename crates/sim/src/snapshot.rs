//! Machine checkpoints for sampled simulation.
//!
//! A [`MachineState`] is a plain in-memory copy of a warmed machine, made
//! by [`Machine::capture`](crate::Machine::capture) and put back by
//! [`Machine::restore`](crate::Machine::restore). It holds one neutral
//! (null-L2-prefetcher) warm-up: the configuration it was captured under,
//! the caches, DRAM, the L1 stride prefetcher, accounting, pollution counts
//! and the trace position. The campaign executor shares one checkpoint
//! across every prefetcher column of a (workload, config) group; nothing
//! writes it to disk.
//!
//! A checkpoint holds the *count* of consumed records, not the records
//! themselves, and restore replays the source to that count. So a
//! checkpoint of a multi-gigabyte trace stays at a few hundred kilobytes,
//! almost all of it cache tags and LRU stamps, and works for synthetic and
//! file-backed sources alike.

use crate::cache::Cache;
use crate::config::SystemConfig;
use crate::dram::Dram;
use crate::stats::{PollutionBreakdown, PrefetchAccounting};
use dspatch_prefetchers::StridePrefetcher;

/// A copy of a machine at a functional boundary (see the
/// [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineState {
    pub(crate) config: SystemConfig,
    pub(crate) cycle: u64,
    pub(crate) cores: Vec<CoreSnapshot>,
    pub(crate) llc: Cache,
    pub(crate) dram: Dram,
    pub(crate) pollution: PollutionBreakdown,
}

/// One core's part of a [`MachineState`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CoreSnapshot {
    pub(crate) records_consumed: u64,
    pub(crate) instructions: u64,
    pub(crate) finish_cycle: u64,
    pub(crate) last_memory_completion: u64,
    pub(crate) l1: Cache,
    pub(crate) l2: Cache,
    pub(crate) l1_prefetcher: Option<StridePrefetcher>,
    pub(crate) accounting: PrefetchAccounting,
}

impl MachineState {
    /// Bytes of cache tags and LRU stamps the checkpoint holds, across
    /// every core's L1 and L2 and the LLC.
    pub fn len(&self) -> usize {
        self.cores
            .iter()
            .map(|core| core.l1.state_bytes() + core.l2.state_bytes())
            .sum::<usize>()
            + self.llc.state_bytes()
    }

    /// Whether the checkpoint holds no cache state (never true for a
    /// captured machine).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
