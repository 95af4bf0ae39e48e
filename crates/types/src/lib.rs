//! Common types shared across the DSPatch reproduction workspace.
//!
//! This crate defines the vocabulary every other crate speaks:
//!
//! * [`Addr`], [`LineAddr`], [`PageAddr`] — byte, cache-line and 4 KB page
//!   addresses with the conversions the prefetchers and the simulator need.
//! * [`MemoryAccess`] — a single demand access observed by a cache level
//!   (program counter, address, read/write, core id).
//! * [`PrefetchRequest`] and the [`Prefetcher`] trait — the interface between
//!   the simulator's cache hierarchy and any prefetching algorithm.
//! * [`BandwidthQuartile`] — the 2-bit DRAM bandwidth-utilization signal the
//!   memory controller broadcasts to all cores (DSPatch paper, Section 3.2).
//!
//! # Example
//!
//! ```
//! use dspatch_types::{Addr, CACHE_LINE_BYTES, PAGE_BYTES};
//!
//! let a = Addr::new(0x1234_5678);
//! let line = a.line();
//! let page = a.page();
//! assert_eq!(line.to_addr().as_u64() % CACHE_LINE_BYTES as u64, 0);
//! assert_eq!(page.to_addr().as_u64() % PAGE_BYTES as u64, 0);
//! assert_eq!(page.line_offset_of(line), a.page_line_offset());
//! ```

pub mod access;
pub mod address;
pub mod bandwidth;
pub mod prefetch;
pub mod snapshot;

pub use access::{AccessKind, CoreId, MemoryAccess, Pc};
pub use address::{
    Addr, LineAddr, PageAddr, CACHE_LINE_BYTES, LINES_PER_PAGE, LINES_PER_SEGMENT, PAGE_BYTES,
    SEGMENT_BYTES,
};
pub use bandwidth::BandwidthQuartile;
pub use prefetch::{
    FillLevel, NullPrefetcher, PrefetchContext, PrefetchRequest, PrefetchSink, Prefetcher,
};
pub use snapshot::SnapshotError;
