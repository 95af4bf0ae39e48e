//! DSPatch: Dual Spatial Pattern Prefetcher (MICRO 2019).
//!
//! This crate implements the paper's primary contribution: a lightweight L2
//! spatial prefetcher that
//!
//! 1. records program accesses to a 4 KB physical page as a 64-bit spatial
//!    bit-pattern in a small [`PageBuffer`],
//! 2. learns **two modulated bit-patterns** per trigger-PC signature in a
//!    256-entry [`SignaturePredictionTable`] — a coverage-biased pattern
//!    `CovP` (bitwise OR of observed patterns) and an accuracy-biased
//!    pattern `AccP` (`program AND CovP`), and
//! 3. selects between them at run time using the 2-bit DRAM
//!    bandwidth-utilization quartile broadcast by the memory controller
//!    ([`selection`]).
//!
//! The top-level type is [`DsPatch`], which implements the
//! [`Prefetcher`](dspatch_types::Prefetcher) trait and can be dropped into
//! the `dspatch-sim` hierarchy standalone or combined with SPP through
//! `dspatch-prefetchers`' composite prefetcher.
//!
//! # Quick start
//!
//! ```
//! use dspatch::{DsPatch, DsPatchConfig};
//! use dspatch_types::{
//!     AccessKind, Addr, MemoryAccess, Pc, PrefetchContext, PrefetchSink, Prefetcher,
//! };
//!
//! let mut pf = DsPatch::new(DsPatchConfig::default());
//! let ctx = PrefetchContext::default();
//! let mut sink = PrefetchSink::new();
//! // Train on a streaming pattern across many pages (enough to evict
//! // page-buffer entries and populate the signature table)...
//! for page in 0..80u64 {
//!     for off in [0u64, 2, 4, 6, 8, 10] {
//!         let addr = Addr::new(page * 4096 + off * 64);
//!         let access = MemoryAccess::new(Pc::new(0x400100), addr, AccessKind::Load);
//!         pf.on_access(&access, &ctx, &mut sink);
//!         sink.clear();
//!     }
//! }
//! // ...after a few pages the trigger PC predicts the learnt pattern.
//! let trigger = MemoryAccess::new(Pc::new(0x400100), Addr::new(100 * 4096), AccessKind::Load);
//! pf.on_access(&trigger, &ctx, &mut sink);
//! assert!(!sink.is_empty());
//! ```

pub mod config;
pub mod counters;
pub mod measure;
pub mod page_buffer;
pub mod pattern;
pub mod prefetcher;
pub mod selection;
pub mod spt;
pub mod storage;

pub use config::{DsPatchConfig, SelectionPolicy};
pub use counters::SaturatingCounter;
pub use measure::{quantize_fraction, PredictionQuality};
pub use page_buffer::{PageBuffer, PageBufferEntry, TriggerInfo};
pub use pattern::{CompressedPattern, SpatialPattern};
pub use prefetcher::DsPatch;
pub use selection::{select_pattern, PatternChoice};
pub use spt::{SignaturePredictionTable, SptEntry};
pub use storage::StorageBreakdown;
