//! Baseline hardware prefetchers and composite (adjunct) prefetchers used to
//! evaluate DSPatch.
//!
//! The DSPatch paper compares against the state of the art circa 2019:
//!
//! * [`StridePrefetcher`] — the PC-based stride prefetcher at the L1 of the
//!   baseline configuration (Table 2).
//! * [`SppPrefetcher`] — the Signature Pattern Prefetcher (Kim et al., MICRO
//!   2016), the state-of-the-art delta prefetcher, plus its
//!   bandwidth-enhanced variant eSPP (Section 2.1).
//! * [`BopPrefetcher`] — the Best Offset Prefetcher (Michaud, HPCA 2016) and
//!   its bandwidth-enhanced eBOP variant (Section 2.2).
//! * [`SmsPrefetcher`] — Spatial Memory Streaming (Somogyi et al., ISCA
//!   2006) with a configurable pattern-history-table size (Figure 5).
//! * [`StreamPrefetcher`] — an aggressive, fairly inaccurate streaming
//!   prefetcher used for the appendix cache-pollution study (Figure 20).
//! * [`AdjunctPrefetcher`] — runs a primary prefetcher and a lightweight
//!   adjunct side by side and merges their requests (DSPatch+SPP, BOP+SPP,
//!   SMS+SPP; Sections 5.1 and 5.2).
//!
//! Every prefetcher implements [`dspatch_types::Prefetcher`] and reports its
//! hardware budget through `storage_bits`, reproducing Table 3.

pub mod any;
pub mod bop;
pub mod composite;
pub mod sms;
pub mod spp;
pub mod stream;
pub mod stride;

pub use any::AnyPrefetcher;
pub use bop::{BopConfig, BopPrefetcher};
pub use composite::AdjunctPrefetcher;
pub use sms::{SmsConfig, SmsPrefetcher};
pub use spp::{SppConfig, SppPrefetcher};
pub use stream::{StreamConfig, StreamPrefetcher};
pub use stride::{StrideConfig, StridePrefetcher};
