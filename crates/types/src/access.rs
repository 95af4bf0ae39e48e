//! Demand-access events observed by the cache hierarchy.

use crate::address::{Addr, LineAddr, PageAddr};
use std::fmt;

/// A program counter value. Prefetchers use the PC as (part of) their
/// signature; DSPatch uses an 8-bit folded hash of the trigger PC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pc(u64);

impl Pc {
    /// Creates a PC from its raw value.
    pub const fn new(pc: u64) -> Self {
        Self(pc)
    }

    /// Returns the raw PC value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Folds the PC down to `bits` bits by XOR-ing successive `bits`-wide
    /// chunks together. This is the "folded-XOR hash" the paper uses to index
    /// the 256-entry SPT (Section 3.4) and that SMS-like prefetchers use to
    /// compress PC tags.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or greater than 64.
    pub fn folded_xor(self, bits: u32) -> u64 {
        assert!(bits > 0 && bits <= 64, "fold width must be in 1..=64");
        if bits == 64 {
            return self.0;
        }
        let mask = (1u64 << bits) - 1;
        let mut value = self.0;
        let mut folded = 0u64;
        while value != 0 {
            folded ^= value & mask;
            value >>= bits;
        }
        folded
    }
}

impl From<u64> for Pc {
    fn from(value: u64) -> Self {
        Self::new(value)
    }
}

impl fmt::Display for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pc:{:#x}", self.0)
    }
}

/// Identifier of a core in a multi-core simulation (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(pub usize);

impl CoreId {
    /// Returns the raw index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// Whether a memory access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AccessKind {
    /// A demand load.
    #[default]
    Load,
    /// A demand store.
    Store,
}

impl AccessKind {
    /// Returns `true` for [`AccessKind::Load`].
    pub const fn is_load(self) -> bool {
        matches!(self, AccessKind::Load)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Load => write!(f, "load"),
            AccessKind::Store => write!(f, "store"),
        }
    }
}

/// A single demand access presented to a cache level and to its prefetcher.
///
/// L2 prefetchers in the paper (and in this reproduction) are trained on L1
/// misses — both demand and prefetch misses from the L1 — so the hierarchy
/// constructs one `MemoryAccess` per L1 miss it forwards to the L2.
///
/// # Example
///
/// ```
/// use dspatch_types::{AccessKind, Addr, CoreId, MemoryAccess, Pc};
/// let access = MemoryAccess::new(Pc::new(0x400123), Addr::new(0x7f00_0040), AccessKind::Load)
///     .with_core(CoreId(2));
/// assert_eq!(access.line().page_offset(), 1);
/// assert_eq!(access.core, CoreId(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryAccess {
    /// Program counter of the instruction performing the access.
    pub pc: Pc,
    /// Byte address accessed.
    pub addr: Addr,
    /// Load or store.
    pub kind: AccessKind,
    /// Core issuing the access.
    pub core: CoreId,
}

impl MemoryAccess {
    /// Creates an access on core 0.
    pub fn new(pc: Pc, addr: Addr, kind: AccessKind) -> Self {
        Self {
            pc,
            addr,
            kind,
            core: CoreId(0),
        }
    }

    /// Returns a copy of the access attributed to `core`.
    pub fn with_core(mut self, core: CoreId) -> Self {
        self.core = core;
        self
    }

    /// Cache line touched by the access.
    pub fn line(&self) -> LineAddr {
        self.addr.line()
    }

    /// 4 KB page touched by the access.
    pub fn page(&self) -> PageAddr {
        self.addr.page()
    }

    /// Cache-line offset within the 4 KB page, in `0..64`.
    pub fn page_line_offset(&self) -> usize {
        self.addr.page_line_offset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folded_xor_is_within_width() {
        for pc in [0u64, 1, 0xffff_ffff_ffff_ffff, 0x1234_5678_9abc_def0] {
            let folded = Pc::new(pc).folded_xor(8);
            assert!(folded < 256, "fold of {pc:#x} escaped 8 bits: {folded:#x}");
        }
    }

    #[test]
    fn folded_xor_full_width_is_identity() {
        assert_eq!(Pc::new(0xabcd).folded_xor(64), 0xabcd);
    }

    #[test]
    fn folded_xor_distinguishes_nearby_pcs() {
        let a = Pc::new(0x400100).folded_xor(8);
        let b = Pc::new(0x400104).folded_xor(8);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "fold width")]
    fn folded_xor_rejects_zero_width() {
        let _ = Pc::new(1).folded_xor(0);
    }

    #[test]
    fn access_helpers_agree_with_address_helpers() {
        let access = MemoryAccess::new(Pc::new(1), Addr::new(0x2345), AccessKind::Store);
        assert_eq!(access.line(), Addr::new(0x2345).line());
        assert_eq!(access.page(), Addr::new(0x2345).page());
        assert_eq!(
            access.page_line_offset(),
            Addr::new(0x2345).page_line_offset()
        );
        assert!(!access.kind.is_load());
    }
}
