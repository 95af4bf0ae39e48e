//! Differential tests for the hot-path rewrites: the flattened arena
//! `Cache` is checked against a naive reference LRU model, and the
//! sink-based prefetcher API is checked against per-call collection
//! semantics (a reused sink must produce exactly the concatenation of
//! per-access request sets, with no state leaking through the buffer).

use dspatch_prefetchers::{
    AdjunctPrefetcher, BopConfig, BopPrefetcher, SmsConfig, SmsPrefetcher, SppConfig,
    SppPrefetcher, StreamConfig, StreamPrefetcher, StrideConfig, StridePrefetcher,
};
use dspatch_sim::{Cache, CacheConfig};
use dspatch_types::{
    AccessKind, Addr, LineAddr, MemoryAccess, Pc, PrefetchContext, PrefetchRequest, PrefetchSink,
    Prefetcher, CACHE_LINE_BYTES,
};
use proptest::prelude::*;

/// A deliberately naive set-associative true-LRU model mirroring the seed
/// implementation: per-set grow-then-replace vectors, linear scans,
/// timestamp LRU with low-priority insertion near LRU.
struct ReferenceCache {
    sets: Vec<Vec<RefWay>>,
    ways: usize,
    clock: u64,
    demand_hits: u64,
    demand_misses: u64,
    prefetch_unused_evictions: u64,
}

#[derive(Clone, Copy)]
struct RefWay {
    line: u64,
    prefetched: bool,
    used: bool,
    lru: u64,
}

impl ReferenceCache {
    fn new(sets: usize, ways: usize) -> Self {
        Self {
            sets: vec![Vec::new(); sets],
            ways,
            clock: 0,
            demand_hits: 0,
            demand_misses: 0,
            prefetch_unused_evictions: 0,
        }
    }

    fn set_of(&self, line: u64) -> usize {
        (line as usize) % self.sets.len()
    }

    fn demand_lookup(&mut self, line: u64) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(line);
        if let Some(way) = self.sets[set].iter_mut().find(|w| w.line == line) {
            way.lru = clock;
            way.used = true;
            self.demand_hits += 1;
            true
        } else {
            self.demand_misses += 1;
            false
        }
    }

    fn fill(&mut self, line: u64, is_prefetch: bool, low_priority: bool) -> Option<u64> {
        self.clock += 1;
        let clock = self.clock;
        let ways = self.ways;
        let set_index = self.set_of(line);
        let set = &mut self.sets[set_index];
        if let Some(way) = set.iter_mut().find(|w| w.line == line) {
            if !is_prefetch {
                way.used = true;
            }
            way.lru = clock;
            return None;
        }
        let new_way = RefWay {
            line,
            prefetched: is_prefetch,
            used: false,
            lru: if low_priority {
                clock.saturating_sub(1 << 20)
            } else {
                clock
            },
        };
        if set.len() < ways {
            set.push(new_way);
            return None;
        }
        let victim_index = set
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| w.lru)
            .map(|(i, _)| i)
            .expect("set at capacity");
        let victim = set[victim_index];
        if victim.prefetched && !victim.used {
            self.prefetch_unused_evictions += 1;
        }
        set[victim_index] = new_way;
        Some(victim.line)
    }

    fn resident(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

#[derive(Debug, Clone, Copy)]
enum CacheOp {
    DemandLookup(u64),
    PrefetchFill(u64, bool),
    DemandFill(u64),
}

fn cache_op_strategy(lines: u64) -> impl Strategy<Value = CacheOp> {
    (0u8..4, 0..lines, any::<bool>()).prop_map(|(kind, line, low_priority)| match kind {
        0 => CacheOp::DemandLookup(line),
        1 => CacheOp::PrefetchFill(line, low_priority),
        2 => CacheOp::DemandFill(line),
        // Weight lookups a little higher: they exercise LRU promotion.
        _ => CacheOp::DemandLookup(line),
    })
}

proptest! {
    /// The arena cache is observationally identical to the reference model
    /// over arbitrary operation sequences: same hits, same misses, same
    /// evictions (line and order), same occupancy and same
    /// unused-prefetch-eviction count. Power-of-two set counts are used so
    /// the reference's `%` indexing and the arena's masking agree.
    #[test]
    fn arena_cache_matches_reference_lru(
        sets_log2 in 0usize..4,
        ways in 1usize..5,
        ops in proptest::collection::vec(cache_op_strategy(96), 1..400),
    ) {
        let sets = 1usize << sets_log2;
        let config = CacheConfig::new("diff", sets * ways * CACHE_LINE_BYTES, ways, 1, 4);
        prop_assert_eq!(config.sets(), sets);
        let mut arena = Cache::new(config);
        let mut reference = ReferenceCache::new(sets, ways);
        for op in ops {
            match op {
                CacheOp::DemandLookup(line) => {
                    let a = arena.demand_lookup(LineAddr::new(line));
                    let r = reference.demand_lookup(line);
                    prop_assert_eq!(a, r, "hit/miss diverged on lookup of {}", line);
                }
                CacheOp::PrefetchFill(line, low_priority) => {
                    let a = arena.fill(LineAddr::new(line), true, low_priority);
                    let r = reference.fill(line, true, low_priority);
                    prop_assert_eq!(a.map(|e| e.line.as_u64()), r, "prefetch-fill eviction diverged");
                }
                CacheOp::DemandFill(line) => {
                    let a = arena.fill(LineAddr::new(line), false, false);
                    let r = reference.fill(line, false, false);
                    prop_assert_eq!(a.map(|e| e.line.as_u64()), r, "demand-fill eviction diverged");
                }
            }
        }
        prop_assert_eq!(arena.stats().demand_hits, reference.demand_hits);
        prop_assert_eq!(arena.stats().demand_misses, reference.demand_misses);
        prop_assert_eq!(
            arena.stats().prefetch_unused_evictions,
            reference.prefetch_unused_evictions
        );
        prop_assert_eq!(arena.resident_lines(), reference.resident());
    }
}

/// Drives `build()` twice over the same access stream — once collecting each
/// access's requests into a fresh `Vec` (the seed API's semantics), once
/// appending everything into a single reused sink — and asserts the reused
/// sink saw exactly the concatenation. Any prefetcher that cleared, dropped
/// or re-read the sink's prior contents would diverge.
fn assert_sink_matches_collect<P: Prefetcher, F: Fn() -> P>(
    build: F,
    stream: &[(u64, u64, u8)],
    label: &str,
) {
    let mut collected: Vec<PrefetchRequest> = Vec::new();
    let mut fresh = build();
    for &(pc, addr, bw) in stream {
        let access = MemoryAccess::new(Pc::new(pc), Addr::new(addr), AccessKind::Load);
        let ctx = PrefetchContext::default()
            .with_bandwidth(dspatch_types::BandwidthQuartile::from_bits(bw));
        collected.extend(fresh.collect_requests(&access, &ctx));
    }

    let mut reused = build();
    let mut sink = PrefetchSink::new();
    for &(pc, addr, bw) in stream {
        let access = MemoryAccess::new(Pc::new(pc), Addr::new(addr), AccessKind::Load);
        let ctx = PrefetchContext::default()
            .with_bandwidth(dspatch_types::BandwidthQuartile::from_bits(bw));
        reused.on_access(&access, &ctx, &mut sink);
    }
    assert_eq!(
        sink.requests(),
        collected.as_slice(),
        "{label}: reused sink diverged from per-call collection"
    );
}

fn access_stream_strategy() -> impl Strategy<Value = Vec<(u64, u64, u8)>> {
    proptest::collection::vec(
        (0u64..16, 0u64..(1 << 18), 0u8..4)
            .prop_map(|(pc, line, bw)| (0x400000 + pc * 4, line * CACHE_LINE_BYTES as u64, bw)),
        1..300,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every prefetcher emits the same request sequence through a reused
    /// sink as through per-access collection, for arbitrary access streams.
    #[test]
    fn sink_api_matches_per_call_collection(stream in access_stream_strategy()) {
        assert_sink_matches_collect(
            || StridePrefetcher::new(StrideConfig::default()),
            &stream,
            "stride",
        );
        assert_sink_matches_collect(
            || StreamPrefetcher::new(StreamConfig::default()),
            &stream,
            "stream",
        );
        assert_sink_matches_collect(|| BopPrefetcher::new(BopConfig::default()), &stream, "bop");
        assert_sink_matches_collect(|| SmsPrefetcher::new(SmsConfig::default()), &stream, "sms");
        assert_sink_matches_collect(|| SppPrefetcher::new(SppConfig::default()), &stream, "spp");
        assert_sink_matches_collect(
            || dspatch::DsPatch::new(dspatch::DsPatchConfig::default()),
            &stream,
            "dspatch",
        );
        assert_sink_matches_collect(
            || {
                AdjunctPrefetcher::new(
                    SppPrefetcher::new(SppConfig::default()),
                    dspatch::DsPatch::new(dspatch::DsPatchConfig::default()),
                )
            },
            &stream,
            "dspatch+spp",
        );
    }
}

/// Golden-value check that the sink API reproduces the seed `Vec` API's
/// request sequences for a recorded input: the stream prefetcher's behaviour
/// is simple enough to state exactly.
#[test]
fn stream_prefetcher_golden_requests() {
    let mut pf = StreamPrefetcher::new(StreamConfig::default());
    let mut sink = PrefetchSink::new();
    let ctx = PrefetchContext::default();
    // First touch of a page prefetches the next `degree` (4) lines upward.
    let access = MemoryAccess::new(Pc::new(1), Addr::new(0x8000), AccessKind::Load);
    pf.on_access(&access, &ctx, &mut sink);
    let lines: Vec<u64> = sink.requests().iter().map(|r| r.line.as_u64()).collect();
    let base = 0x8000 / CACHE_LINE_BYTES as u64;
    assert_eq!(lines, vec![base + 1, base + 2, base + 3, base + 4]);
    // A descending second access within the same page flips direction;
    // requests append after the first batch because the caller did not clear
    // the sink.
    let second = base + 20;
    let access = MemoryAccess::new(
        Pc::new(1),
        Addr::new(0x8000 + 30 * CACHE_LINE_BYTES as u64),
        AccessKind::Load,
    );
    pf.on_access(&access, &ctx, &mut sink);
    sink.truncate(4); // drop the ascending batch from the warm-up access
    let access = MemoryAccess::new(
        Pc::new(1),
        Addr::new(0x8000 + 20 * CACHE_LINE_BYTES as u64),
        AccessKind::Load,
    );
    pf.on_access(&access, &ctx, &mut sink);
    assert_eq!(sink.len(), 8);
    assert_eq!(
        sink.requests()[4..]
            .iter()
            .map(|r| r.line.as_u64())
            .collect::<Vec<_>>(),
        vec![second - 1, second - 2, second - 3, second - 4]
    );
}

/// The cycle-skip fast-forward must be *exact*: a machine with
/// `cycle_skipping` disabled steps every core every cycle through the
/// reference loop, and the entire `SimResult` — instruction counts, finish
/// cycles, total cycles, every cache/DRAM/pollution statistic — must be
/// bit-identical. The inputs are single cores and 4-core mixes, whose cores
/// contend for the shared LLC, in-flight fills and DRAM.
mod cycle_skip {
    use super::*;
    use dspatch_prefetchers::any::composites;
    use dspatch_prefetchers::AnyPrefetcher;
    use dspatch_sim::{SimResult, SimulationBuilder, SystemConfig};
    use dspatch_trace::{Trace, TraceRecord};

    fn run(traces: &[Vec<TraceRecord>], skipping: bool, prefetch: bool) -> SimResult {
        let mut config = if traces.len() > 1 {
            SystemConfig::multi_programmed()
        } else {
            SystemConfig::single_thread()
        };
        config.cycle_skipping = skipping;
        let mut builder = SimulationBuilder::new(config);
        for records in traces {
            let prefetcher: AnyPrefetcher = if prefetch {
                composites::dspatch_plus_spp().into()
            } else {
                dspatch_types::NullPrefetcher::new().into()
            };
            builder = builder.with_core(Trace::new("skip-diff", records.clone()), prefetcher);
        }
        builder.run()
    }

    fn trace_strategy() -> impl Strategy<Value = Vec<TraceRecord>> {
        proptest::collection::vec((0u64..256, 0u64..64, 0u32..80, any::<bool>()), 1..250).prop_map(
            |accesses| {
                accesses
                    .iter()
                    .map(|&(page, offset, gap, dependent)| {
                        let mut record =
                            TraceRecord::load(0x400, page * 4096 + offset * 64).with_gap(gap);
                        if dependent {
                            record = record.with_dependent(true);
                        }
                        record
                    })
                    .collect()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn skipped_run_is_bit_identical_to_cycle_by_cycle(
            traces in proptest::collection::vec(trace_strategy(), 4),
            mix in any::<bool>(),
            prefetch in any::<bool>(),
        ) {
            let cores = if mix { &traces[..] } else { &traces[..1] };
            let skipped = run(cores, true, prefetch);
            let reference = run(cores, false, prefetch);
            prop_assert_eq!(skipped, reference);
        }
    }
}
