//! Static dispatch over the whole prefetcher line-up.
//!
//! The simulator calls `on_access` once per L1 miss (plus once per L1
//! prefetch miss), hundreds of millions of times per campaign. Behind a
//! `Box<dyn Prefetcher>` every one of those calls is an indirect call the
//! compiler can neither inline nor specialize; behind [`AnyPrefetcher`] the
//! concrete prefetcher type is known at the match arm, so the per-access
//! train-predict-issue path inlines into the machine's demand loop.
//!
//! The enum covers every configuration the experiment registry constructs:
//! the baseline prefetchers, DSPatch, and the adjunct composites the paper
//! evaluates.

use crate::composite::AdjunctPrefetcher;
use crate::{BopPrefetcher, SmsPrefetcher, SppPrefetcher, StreamPrefetcher};
use dspatch::DsPatch;
use dspatch_types::{MemoryAccess, NullPrefetcher, PrefetchContext, PrefetchSink, Prefetcher};

/// SPP with DSPatch as a lightweight adjunct (the paper's headline
/// configuration, including the Figure 19 ablation variants).
pub type DspatchPlusSpp = AdjunctPrefetcher<SppPrefetcher, DsPatch>;
/// SPP with BOP (or eBOP) as an adjunct (Figures 14 and 15).
pub type BopPlusSpp = AdjunctPrefetcher<SppPrefetcher, BopPrefetcher>;
/// SPP with iso-storage SMS as an adjunct (Figure 14).
pub type SmsPlusSpp = AdjunctPrefetcher<SppPrefetcher, SmsPrefetcher>;

/// Concrete constructors for the adjunct composites the paper evaluates.
/// These are the **single** construction table: the experiment registry's
/// `build_any` wraps them in enum variants.
pub mod composites {
    use super::*;
    use crate::{BopConfig, SmsConfig, SppConfig};
    use dspatch::DsPatchConfig;

    /// DSPatch as a lightweight adjunct to SPP (the headline configuration).
    pub fn dspatch_plus_spp() -> DspatchPlusSpp {
        AdjunctPrefetcher::new(
            SppPrefetcher::new(SppConfig::default()),
            DsPatch::new(DsPatchConfig::default()),
        )
    }

    /// BOP as an adjunct to SPP (Figure 14).
    pub fn bop_plus_spp() -> BopPlusSpp {
        AdjunctPrefetcher::new(
            SppPrefetcher::new(SppConfig::default()),
            BopPrefetcher::new(BopConfig::default()),
        )
    }

    /// eBOP as an adjunct to SPP (Figure 15).
    pub fn ebop_plus_spp() -> BopPlusSpp {
        AdjunctPrefetcher::new(
            SppPrefetcher::new(SppConfig::default()),
            BopPrefetcher::new(BopConfig::enhanced()),
        )
    }

    /// 256-entry (iso-storage) SMS as an adjunct to SPP (Figure 14).
    pub fn sms_iso_plus_spp() -> SmsPlusSpp {
        AdjunctPrefetcher::new(
            SppPrefetcher::new(SppConfig::default()),
            SmsPrefetcher::new(SmsConfig::with_pht_entries(256)),
        )
    }

    /// The AlwaysCovP ablation of Figure 19, as an adjunct to SPP.
    pub fn dspatch_always_covp_plus_spp() -> DspatchPlusSpp {
        AdjunctPrefetcher::new(
            SppPrefetcher::new(SppConfig::default()),
            DsPatch::new(DsPatchConfig::default().always_covp()),
        )
    }

    /// The ModCovP ablation of Figure 19, as an adjunct to SPP.
    pub fn dspatch_mod_covp_plus_spp() -> DspatchPlusSpp {
        AdjunctPrefetcher::new(
            SppPrefetcher::new(SppConfig::default()),
            DsPatch::new(DsPatchConfig::default().mod_covp()),
        )
    }
}

/// Every prefetcher the registry can construct, as one statically-dispatched
/// value. See the [module docs](self) for why this exists.
pub enum AnyPrefetcher {
    /// The no-prefetching baseline.
    Null(NullPrefetcher),
    /// Aggressive next-line streamer.
    Stream(StreamPrefetcher),
    /// Best Offset Prefetcher (BOP / eBOP).
    Bop(BopPrefetcher),
    /// Spatial Memory Streaming.
    Sms(SmsPrefetcher),
    /// Signature Pattern Prefetcher (SPP / eSPP).
    Spp(SppPrefetcher),
    /// Standalone DSPatch.
    Dspatch(Box<DsPatch>),
    /// DSPatch (or an ablation variant) as an adjunct to SPP.
    DspatchPlusSpp(Box<DspatchPlusSpp>),
    /// BOP/eBOP as an adjunct to SPP.
    BopPlusSpp(Box<BopPlusSpp>),
    /// Iso-storage SMS as an adjunct to SPP.
    SmsPlusSpp(Box<SmsPlusSpp>),
}

/// Dispatches a method call to the concrete variant.
macro_rules! dispatch {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            AnyPrefetcher::Null($p) => $body,
            AnyPrefetcher::Stream($p) => $body,
            AnyPrefetcher::Bop($p) => $body,
            AnyPrefetcher::Sms($p) => $body,
            AnyPrefetcher::Spp($p) => $body,
            AnyPrefetcher::Dspatch($p) => $body,
            AnyPrefetcher::DspatchPlusSpp($p) => $body,
            AnyPrefetcher::BopPlusSpp($p) => $body,
            AnyPrefetcher::SmsPlusSpp($p) => $body,
        }
    };
}

impl Prefetcher for AnyPrefetcher {
    fn name(&self) -> &str {
        dispatch!(self, p => p.name())
    }

    #[inline]
    fn on_access(&mut self, access: &MemoryAccess, ctx: &PrefetchContext, out: &mut PrefetchSink) {
        dispatch!(self, p => p.on_access(access, ctx, out));
    }

    fn storage_bits(&self) -> u64 {
        dispatch!(self, p => p.storage_bits())
    }
}

impl From<NullPrefetcher> for AnyPrefetcher {
    fn from(p: NullPrefetcher) -> Self {
        AnyPrefetcher::Null(p)
    }
}

impl From<StreamPrefetcher> for AnyPrefetcher {
    fn from(p: StreamPrefetcher) -> Self {
        AnyPrefetcher::Stream(p)
    }
}

impl From<BopPrefetcher> for AnyPrefetcher {
    fn from(p: BopPrefetcher) -> Self {
        AnyPrefetcher::Bop(p)
    }
}

impl From<SmsPrefetcher> for AnyPrefetcher {
    fn from(p: SmsPrefetcher) -> Self {
        AnyPrefetcher::Sms(p)
    }
}

impl From<SppPrefetcher> for AnyPrefetcher {
    fn from(p: SppPrefetcher) -> Self {
        AnyPrefetcher::Spp(p)
    }
}

impl From<DsPatch> for AnyPrefetcher {
    fn from(p: DsPatch) -> Self {
        AnyPrefetcher::Dspatch(Box::new(p))
    }
}

impl From<DspatchPlusSpp> for AnyPrefetcher {
    fn from(p: DspatchPlusSpp) -> Self {
        AnyPrefetcher::DspatchPlusSpp(Box::new(p))
    }
}

impl From<BopPlusSpp> for AnyPrefetcher {
    fn from(p: BopPlusSpp) -> Self {
        AnyPrefetcher::BopPlusSpp(Box::new(p))
    }
}

impl From<SmsPlusSpp> for AnyPrefetcher {
    fn from(p: SmsPlusSpp) -> Self {
        AnyPrefetcher::SmsPlusSpp(Box::new(p))
    }
}

impl std::fmt::Debug for AnyPrefetcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("AnyPrefetcher").field(&self.name()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BopConfig, SmsConfig, SppConfig, StreamConfig};
    use dspatch::DsPatchConfig;
    use dspatch_types::{AccessKind, Addr, Pc};

    fn every_static_variant() -> Vec<AnyPrefetcher> {
        vec![
            NullPrefetcher::new().into(),
            StreamPrefetcher::new(StreamConfig::default()).into(),
            BopPrefetcher::new(BopConfig::default()).into(),
            SmsPrefetcher::new(SmsConfig::default()).into(),
            SppPrefetcher::new(SppConfig::default()).into(),
            DsPatch::new(DsPatchConfig::default()).into(),
            AdjunctPrefetcher::new(
                SppPrefetcher::new(SppConfig::default()),
                DsPatch::new(DsPatchConfig::default()),
            )
            .into(),
            AdjunctPrefetcher::new(
                SppPrefetcher::new(SppConfig::default()),
                BopPrefetcher::new(BopConfig::default()),
            )
            .into(),
            AdjunctPrefetcher::new(
                SppPrefetcher::new(SppConfig::default()),
                SmsPrefetcher::new(SmsConfig::with_pht_entries(256)),
            )
            .into(),
        ]
    }

    #[test]
    fn static_variants_report_names_and_storage() {
        for p in every_static_variant() {
            assert!(!p.name().is_empty());
            if !matches!(p, AnyPrefetcher::Null(_)) {
                assert!(p.storage_bits() > 0, "{} reports no storage", p.name());
            }
        }
    }

    #[test]
    fn enum_and_boxed_forms_issue_identical_requests() {
        // Drive a strided stream through the streamer directly and through
        // the enum; the enum is a transparent wrapper, so the request
        // sequences must be identical.
        let mut direct = StreamPrefetcher::new(StreamConfig::default());
        let mut wrapped: AnyPrefetcher = StreamPrefetcher::new(StreamConfig::default()).into();
        let ctx = PrefetchContext::default();
        for i in 0..256u64 {
            let access = MemoryAccess::new(Pc::new(7), Addr::new(i * 64), AccessKind::Load);
            let want = direct.collect_requests(&access, &ctx);
            assert_eq!(wrapped.collect_requests(&access, &ctx), want);
        }
    }
}
