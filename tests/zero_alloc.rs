//! Verifies the allocation-free promises of the two hot-path APIs:
//!
//! * **prefetchers** — after warm-up, `on_access` performs zero heap
//!   allocations for every prefetcher, with a reused sink;
//! * **streaming trace sources** — after warm-up, pulling records from a
//!   [`dspatch_trace::TraceSource`] (every synthetic generator, including
//!   weighted mixes) performs zero heap allocations, which is what makes
//!   the O(1)-memory claim of the streaming trace layer real rather than
//!   merely amortized.
//!
//! A counting global allocator tallies allocation calls; each subject is
//! warmed on a deterministic stream (filling tables and growing reused
//! buffers to steady-state capacity) and then driven through a second pass
//! during which the allocation count must not move.
//!
//! This file deliberately contains a single `#[test]` so no concurrent test
//! thread can allocate while a measurement window is open.

use dspatch_prefetchers::{
    AdjunctPrefetcher, BopConfig, BopPrefetcher, SmsConfig, SmsPrefetcher, SppConfig,
    SppPrefetcher, StreamConfig, StreamPrefetcher, StrideConfig, StridePrefetcher,
};
use dspatch_types::{
    AccessKind, Addr, MemoryAccess, Pc, PrefetchContext, PrefetchSink, Prefetcher, CACHE_LINE_BYTES,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

/// Global tally (kept for completeness) plus a per-thread tally. The
/// measurement windows read the **thread-local** counter: the libtest
/// harness's main thread allocates on its own schedule (progress output,
/// channel bookkeeping), and counting it made the test flaky.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOCATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(std::cell::Cell::get)
}

fn count_one() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    // A const-initialized thread-local never allocates on access, so the
    // allocator may touch it re-entrantly.
    THREAD_ALLOCATIONS.with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// A deterministic mixed access stream: strided streams, repeated spatial
/// layouts across pages and a bandwidth level that varies — enough to fill
/// every prefetcher's tables and trigger real predictions.
fn stream(len: usize) -> Vec<(MemoryAccess, PrefetchContext)> {
    let mut out = Vec::with_capacity(len);
    let mut state = 0x243F_6A88_85A3_08D3u64;
    for i in 0..len {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let page = (i as u64 / 5) % 4096;
        let offset = match i % 5 {
            0 => 0,
            1 => 3,
            2 => 6,
            3 => 9,
            _ => (state >> 58) % 64,
        };
        let pc = 0x400000 + (i as u64 % 7) * 4;
        let access = MemoryAccess::new(
            Pc::new(pc),
            Addr::new(page * 4096 + offset * CACHE_LINE_BYTES as u64),
            AccessKind::Load,
        );
        let ctx = PrefetchContext::at_cycle(i as u64)
            .with_bandwidth(dspatch_types::BandwidthQuartile::from_bits((i % 4) as u8));
        out.push((access, ctx));
    }
    out
}

fn assert_steady_state_alloc_free(prefetcher: &mut dyn Prefetcher, name: &str) {
    let warmup = stream(6_000);
    // Start at steady-state capacity (a page holds at most 64 lines, so no
    // single access can push more than ~2×64 merged requests); buffer growth
    // is an amortized warm-up cost by design, per-access allocation is not.
    let mut sink = PrefetchSink::with_capacity(256);
    for (access, ctx) in &warmup {
        sink.clear();
        prefetcher.on_access(access, ctx, &mut sink);
    }
    // Steady state: the same stream again must not allocate at all.
    let before = thread_allocations();
    let mut issued = 0usize;
    for (access, ctx) in &warmup {
        sink.clear();
        prefetcher.on_access(access, ctx, &mut sink);
        issued += sink.len();
    }
    let after = thread_allocations();
    assert_eq!(
        after - before,
        0,
        "{name}: on_access allocated in steady state ({} allocations over {} accesses, {} requests)",
        after - before,
        warmup.len(),
        issued
    );
}

/// Streaming trace sources must not allocate per record in steady state.
/// The warm-up pass grows each source's reused buffers (e.g. the spatial
/// generator's visit buffer) to capacity; the measured pass must then be
/// allocation-free.
fn assert_streaming_source_alloc_free(spec: &dspatch_trace::GeneratorSpec, name: &str) {
    use dspatch_trace::{SynthSource, TraceSource};
    // A length far beyond the pulls below: the mixed generator re-creates a
    // part stream only at its replay period, so none occurs mid-measurement.
    let mut source = SynthSource::new(name, spec.clone(), 0xD5, 1 << 40);
    for _ in 0..6_000 {
        source.next_record();
    }
    let before = thread_allocations();
    for _ in 0..6_000 {
        source.next_record();
    }
    let after = thread_allocations();
    assert_eq!(
        after - before,
        0,
        "{name}: streaming source allocated in steady state ({} allocations over 6000 records)",
        after - before,
    );
}

#[test]
fn prefetcher_hot_path_is_allocation_free_in_steady_state() {
    let mut prefetchers: Vec<(&str, Box<dyn Prefetcher>)> = vec![
        (
            "stride",
            Box::new(StridePrefetcher::new(StrideConfig::default())),
        ),
        (
            "stream",
            Box::new(StreamPrefetcher::new(StreamConfig::default())),
        ),
        ("bop", Box::new(BopPrefetcher::new(BopConfig::default()))),
        ("sms", Box::new(SmsPrefetcher::new(SmsConfig::default()))),
        ("spp", Box::new(SppPrefetcher::new(SppConfig::default()))),
        (
            "dspatch",
            Box::new(dspatch::DsPatch::new(dspatch::DsPatchConfig::default())),
        ),
        (
            "dspatch+spp",
            Box::new(AdjunctPrefetcher::new(
                SppPrefetcher::new(SppConfig::default()),
                dspatch::DsPatch::new(dspatch::DsPatchConfig::default()),
            )),
        ),
        ("null", Box::new(dspatch_types::NullPrefetcher::new())),
    ];
    for (name, prefetcher) in &mut prefetchers {
        assert_steady_state_alloc_free(prefetcher.as_mut(), name);
    }

    // The streaming trace layer: every generator family, including the
    // weighted mix the 75-workload suite is built from.
    use dspatch_trace::{
        CodeHeavyGen, GeneratorSpec, IrregularGen, MixedGen, PointerChaseGen, SpatialPatternGen,
        StreamGen, StridedGen,
    };
    let sources: Vec<(&str, GeneratorSpec)> = vec![
        ("stream-source", GeneratorSpec::Stream(StreamGen::default())),
        (
            "strided-source",
            GeneratorSpec::Strided(StridedGen::default()),
        ),
        (
            "spatial-source",
            GeneratorSpec::Spatial(SpatialPatternGen::default()),
        ),
        (
            "irregular-source",
            GeneratorSpec::Irregular(IrregularGen::default()),
        ),
        (
            "chase-source",
            GeneratorSpec::PointerChase(PointerChaseGen::default()),
        ),
        (
            "code-heavy-source",
            GeneratorSpec::CodeHeavy(CodeHeavyGen::default()),
        ),
        (
            "mixed-source",
            GeneratorSpec::Mixed(MixedGen::new(vec![
                (3, GeneratorSpec::Stream(StreamGen::default())),
                (2, GeneratorSpec::Spatial(SpatialPatternGen::default())),
                (1, GeneratorSpec::Irregular(IrregularGen::default())),
            ])),
        ),
    ];
    for (name, spec) in &sources {
        assert_streaming_source_alloc_free(spec, name);
    }
}
