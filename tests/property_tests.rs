//! Property-based tests over the core DSPatch data structures and the
//! simulator substrate, using proptest.

use dspatch::{
    quantize_fraction, CompressedPattern, DsPatch, DsPatchConfig, PageBuffer, PredictionQuality,
    SaturatingCounter, SpatialPattern,
};
use dspatch_types::{
    AccessKind, Addr, BandwidthQuartile, MemoryAccess, PageAddr, Pc, PrefetchContext, Prefetcher,
};
use proptest::prelude::*;

proptest! {
    /// Anchoring and un-anchoring a pattern by the same offset is the
    /// identity, for every pattern and offset.
    #[test]
    fn anchor_round_trips(bits in any::<u64>(), offset in 0usize..64) {
        let pattern = SpatialPattern::from_bits(bits);
        prop_assert_eq!(pattern.anchor(offset).unanchor(offset), pattern);
        prop_assert_eq!(pattern.anchor(offset).popcount(), pattern.popcount());
    }

    /// Anchoring is invariant to which access of the set triggers first in
    /// the sense that the *set* of anchored deltas equals the set of offsets
    /// minus the trigger, modulo 64.
    #[test]
    fn anchored_pattern_contains_trigger_at_bit_zero(bits in any::<u64>(), offset in 0usize..64) {
        let mut pattern = SpatialPattern::from_bits(bits);
        pattern.set(offset);
        prop_assert!(pattern.anchor(offset).get(0));
    }

    /// Compression never loses a touched block: decompressing the compressed
    /// pattern always covers the original.
    #[test]
    fn compression_is_a_superset(bits in any::<u64>()) {
        let pattern = SpatialPattern::from_bits(bits);
        let expanded = pattern.compress().decompress();
        prop_assert_eq!(expanded.bits() & pattern.bits(), pattern.bits());
        // And the overprediction is bounded by one line per touched block.
        let over = CompressedPattern::compression_mispredictions(pattern);
        prop_assert!(over <= pattern.compress().popcount());
    }

    /// OR-ing patterns never reduces coverage of either operand; AND-ing
    /// never exceeds either operand.
    #[test]
    fn or_and_monotonicity(a in any::<u64>(), b in any::<u64>()) {
        let pa = SpatialPattern::from_bits(a);
        let pb = SpatialPattern::from_bits(b);
        let or = pa | pb;
        let and = pa & pb;
        prop_assert_eq!(or.bits() & pa.bits(), pa.bits());
        prop_assert_eq!(or.bits() & pb.bits(), pb.bits());
        prop_assert!(and.popcount() <= pa.popcount().min(pb.popcount()));
        prop_assert!(or.popcount() >= pa.popcount().max(pb.popcount()));
    }

    /// The quantizer never inverts ordering: a strictly larger fraction maps
    /// to an equal or higher quartile.
    #[test]
    fn quantizer_is_monotonic(n1 in 0u32..=64, n2 in 0u32..=64, d in 1u32..=64) {
        let (low, high) = if n1 <= n2 { (n1, n2) } else { (n2, n1) };
        prop_assert!(quantize_fraction(low, d) <= quantize_fraction(high, d));
    }

    /// Accuracy and coverage are always within their defining bounds.
    #[test]
    fn prediction_quality_counts_are_consistent(pred in any::<u64>(), real in any::<u64>()) {
        let q = PredictionQuality::measure(
            SpatialPattern::from_bits(pred),
            SpatialPattern::from_bits(real),
        );
        prop_assert!(q.accurate <= q.predicted);
        prop_assert!(q.accurate <= q.real);
        prop_assert!(q.accuracy_fraction() <= 1.0 && q.accuracy_fraction() >= 0.0);
        prop_assert!(q.coverage_fraction() <= 1.0 && q.coverage_fraction() >= 0.0);
    }

    /// Saturating counters stay within [0, max] under any operation sequence.
    #[test]
    fn saturating_counter_stays_in_range(ops in proptest::collection::vec(any::<bool>(), 0..200)) {
        let mut counter = SaturatingCounter::two_bit();
        for op in ops {
            if op {
                counter.increment();
            } else {
                counter.decrement();
            }
            prop_assert!(counter.value() <= counter.max());
        }
    }

    /// The page buffer never tracks more pages than its capacity and always
    /// reports triggers for the first access to a segment.
    #[test]
    fn page_buffer_respects_capacity(
        capacity in 1usize..32,
        accesses in proptest::collection::vec((0u64..64, 0usize..64, 0u64..1024), 1..300),
    ) {
        let mut pb = PageBuffer::new(capacity);
        for (page, offset, pc) in accesses {
            let outcome = pb.record_access(PageAddr::new(page), offset, Pc::new(pc));
            if let Some(trigger) = outcome.trigger {
                prop_assert_eq!(trigger.offset, offset);
            }
            prop_assert!(pb.len() <= capacity);
        }
    }

    /// DSPatch never prefetches outside the page of the triggering access,
    /// never prefetches the trigger line itself, and issues at most 63 lines
    /// per trigger — for arbitrary access streams and bandwidth levels.
    #[test]
    fn dspatch_prefetches_stay_in_page(
        stream in proptest::collection::vec((0u64..32, 0u64..64, 0u64..8, 0u8..4), 1..400),
    ) {
        let mut prefetcher = DsPatch::new(DsPatchConfig::default());
        let mut sink = dspatch_types::PrefetchSink::new();
        for (page, offset, pc, bw) in stream {
            let addr = Addr::new(page * 4096 + offset * 64);
            let access = MemoryAccess::new(Pc::new(0x400 + pc * 8), addr, AccessKind::Load);
            let ctx = PrefetchContext::default()
                .with_bandwidth(BandwidthQuartile::from_bits(bw));
            sink.clear();
            prefetcher.on_access(&access, &ctx, &mut sink);
            prop_assert!(sink.len() < 64);
            for request in sink.requests() {
                prop_assert_eq!(request.line.page(), addr.page());
                prop_assert_ne!(request.line, addr.line());
            }
        }
    }
}

proptest! {
    /// A counter built with any maximum saturates exactly at that maximum:
    /// `max` increments reach it, further increments are no-ops, and the
    /// same holds symmetrically for decrements at zero.
    #[test]
    fn saturating_counter_saturates_at_both_bounds(max in 1u8..=16, extra in 0u8..32) {
        let mut counter = SaturatingCounter::new(max);
        for _ in 0..max {
            counter.increment();
        }
        prop_assert_eq!(counter.value(), max);
        prop_assert!(counter.is_saturated());
        for _ in 0..extra {
            prop_assert_eq!(counter.increment(), max);
        }
        for _ in 0..max {
            counter.decrement();
        }
        prop_assert_eq!(counter.value(), 0);
        prop_assert!(counter.is_zero());
        for _ in 0..extra {
            prop_assert_eq!(counter.decrement(), 0);
        }
    }

    /// Increment and decrement return exactly the value a subsequent
    /// `value()` call reports, for any operation sequence.
    #[test]
    fn saturating_counter_returns_its_new_value(
        max in 1u8..=16,
        ops in proptest::collection::vec(any::<bool>(), 0..64),
    ) {
        let mut counter = SaturatingCounter::new(max);
        for op in ops {
            let returned = if op { counter.increment() } else { counter.decrement() };
            prop_assert_eq!(returned, counter.value());
            prop_assert!(counter.value() <= counter.max());
        }
    }

    /// The quantizer hits the exact quartile boundaries of the paper
    /// (Section 3.2): `floor(4n/d)` clamped to Q3.
    #[test]
    fn quantizer_matches_quartile_boundaries(n in 0u32..=2048, d in 1u32..=2048) {
        let expected = match (u64::from(n) * 4) / u64::from(d) {
            0 => BandwidthQuartile::Q0,
            1 => BandwidthQuartile::Q1,
            2 => BandwidthQuartile::Q2,
            _ => BandwidthQuartile::Q3,
        };
        prop_assert_eq!(quantize_fraction(n, d), expected);
    }

    /// Quantization only depends on the ratio: scaling numerator and
    /// denominator by the same factor never changes the quartile.
    #[test]
    fn quantizer_is_scale_invariant(n in 0u32..=256, d in 1u32..=256, k in 1u32..=64) {
        prop_assert_eq!(quantize_fraction(n * k, d * k), quantize_fraction(n, d));
    }

    /// Compression is idempotent: once a pattern has been through a
    /// compress→decompress round trip, further round trips are the identity.
    #[test]
    fn compression_round_trip_is_idempotent(bits in any::<u64>()) {
        let compressed = SpatialPattern::from_bits(bits).compress();
        let expanded = compressed.decompress();
        prop_assert_eq!(expanded.compress(), compressed);
        prop_assert_eq!(expanded.compress().decompress(), expanded);
    }

    /// Compressing keeps per-block occupancy: block `b` of the compressed
    /// pattern is set iff any of the two lines of block `b` was touched.
    #[test]
    fn compression_tracks_block_occupancy(bits in any::<u64>()) {
        let pattern = SpatialPattern::from_bits(bits);
        let compressed = pattern.compress();
        for block in 0..32 {
            let touched = pattern.get(2 * block) || pattern.get(2 * block + 1);
            prop_assert_eq!(compressed.get(block), touched);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The binary trace format preserves **every** record field — pc, addr,
    /// kind, `gap` and the `dependent` flag — for arbitrary records, through
    /// both the materializing reader and the streaming file source.
    #[test]
    fn trace_io_round_trips_gap_and_dependent_flags(
        raw in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), any::<bool>(), any::<u32>(), any::<bool>()),
            0..150,
        ),
    ) {
        use dspatch_trace::io::{read_trace, write_trace};
        use dspatch_trace::{Trace, TraceRecord};

        let records: Vec<TraceRecord> = raw
            .into_iter()
            .map(|(pc, addr, store, gap, dependent)| {
                let record = if store {
                    TraceRecord::store(pc, addr)
                } else {
                    TraceRecord::load(pc, addr)
                };
                record.with_gap(gap).with_dependent(dependent)
            })
            .collect();
        let trace = Trace::new("prop-io", records);
        let mut buffer = Vec::new();
        prop_assert!(write_trace(&trace, &mut buffer).is_ok());
        let read = read_trace(buffer.as_slice()).expect("round trip");
        prop_assert_eq!(&read, &trace);
        // The flags byte holds exactly two bits; nothing else may leak in.
        for (a, b) in read.records.iter().zip(trace.records.iter()) {
            prop_assert_eq!(a.gap, b.gap);
            prop_assert_eq!(a.dependent, b.dependent);
        }
    }

    /// Heterogeneous mix generation is a pure function of its arguments
    /// (count, cores, seed) and every generated mix has exactly the
    /// requested core count, drawn from the memory-intensive pool.
    #[test]
    fn heterogeneous_mixes_are_deterministic_with_consistent_cores(
        count in 0usize..12,
        cores in 1usize..6,
        seed in any::<u64>(),
    ) {
        use dspatch_trace::heterogeneous_mixes;

        let a = heterogeneous_mixes(count, cores, seed);
        let b = heterogeneous_mixes(count, cores, seed);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.len(), count);
        let pool: std::collections::BTreeSet<String> =
            dspatch_trace::memory_intensive_suite()
                .into_iter()
                .map(|w| w.name)
                .collect();
        for mix in &a {
            prop_assert_eq!(mix.cores(), cores);
            prop_assert_eq!(mix.workloads.len(), cores);
            for workload in &mix.workloads {
                prop_assert!(
                    pool.contains(&workload.name),
                    "mix workload '{}' is not memory-intensive",
                    workload.name
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hostile bytes never panic the trace openers. A valid binary trace is
    /// arbitrarily truncated and byte-flipped; `FileTraceSource::open` and
    /// `open_trace_source` must then either succeed — and the stream drain
    /// exactly as many records as the header promises — or return a typed
    /// [`dspatch_trace::TraceFileError`]. (A damaged magic demotes the file
    /// to the text importer, so this also feeds binary garbage through the
    /// ChampSim parser.) The in-memory `read_trace` gets the same bytes.
    #[test]
    fn mutated_binary_traces_fail_typed_or_stream_exactly(
        raw in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), any::<bool>(), any::<u32>()),
            0..40,
        ),
        cut in any::<u64>(),
        flip_at in any::<u64>(),
        flip_to in any::<u8>(),
        mutation in 0u8..4,
    ) {
        use dspatch_trace::io::{open_trace_source, read_trace, write_trace, FileTraceSource};
        use dspatch_trace::{Trace, TraceRecord, TraceSource};

        let records: Vec<TraceRecord> = raw
            .into_iter()
            .map(|(pc, addr, store, gap)| {
                let record = if store {
                    TraceRecord::store(pc, addr)
                } else {
                    TraceRecord::load(pc, addr)
                };
                record.with_gap(gap)
            })
            .collect();
        let mut bytes = Vec::new();
        write_trace(&Trace::new("fuzz", records), &mut bytes).expect("serialize");
        // Mutation 0 leaves the trace intact so the Ok path is exercised too.
        if mutation == 1 || mutation == 3 {
            let keep = (cut % (bytes.len() as u64 + 1)) as usize;
            bytes.truncate(keep);
        }
        if (mutation == 2 || mutation == 3) && !bytes.is_empty() {
            let at = (flip_at % bytes.len() as u64) as usize;
            bytes[at] = flip_to;
        }

        // read_trace consumes the bytes directly: typed error or full trace.
        let _ = read_trace(bytes.as_slice());

        let path = std::env::temp_dir().join(format!(
            "dspatch_fuzz_binary_{}.dspt",
            std::process::id()
        ));
        std::fs::write(&path, &bytes).expect("temp file");
        // Ok at open time must mean the whole stream is replayable: the
        // openers promise "validated once, never fails mid-run".
        if let Ok(mut source) = FileTraceSource::open(&path) {
            let promised = source.meta().accesses;
            let mut drained = 0u64;
            while source.next_record().is_some() {
                drained += 1;
            }
            prop_assert_eq!(drained, promised);
        }
        if let Ok(mut source) = open_trace_source(&path) {
            let mut drained = 0u64;
            while source.next_record().is_some() {
                drained += 1;
            }
            prop_assert_eq!(drained, source.meta().accesses);
        }
        std::fs::remove_file(&path).ok();
    }

    /// Hostile text never panics the ChampSim importer: for arbitrary lines
    /// (printable junk and well-formed records interleaved),
    /// `ChampsimTextSource::open` either returns a typed error whose line
    /// number points into the file, or succeeds — and then replay yields
    /// exactly the validated record count.
    #[test]
    fn hostile_champsim_text_fails_typed_or_streams_exactly(
        lines in proptest::collection::vec(
            (0usize..16, any::<u32>(), any::<u32>(), 0u32..50).prop_map(
                |(variant, pc, addr, gap)| match variant {
                    // Well-formed records in the accepted spellings.
                    0 => format!("0x{pc:x} {addr} L {gap}"),
                    1 => format!("{pc} 0x{addr:x} S"),
                    2 => format!("{pc} {addr} load {gap} d"),
                    3 => format!("  {pc} {addr} WRITE 0 DEP  "),
                    // Blanks and comments (skipped by the parser).
                    4 => String::new(),
                    5 => format!("# comment {pc}"),
                    // Malformed in every structural way the parser checks.
                    6 => format!("{pc}"),
                    7 => format!("{pc} {addr}"),
                    8 => format!("{pc} {addr} X {gap}"),
                    9 => format!("{pc} {addr} L {gap} q"),
                    10 => format!("{pc} {addr} L {gap} d extra"),
                    11 => format!("0xzz {addr} L"),
                    12 => format!("{pc} 99999999999999999999999999 L"),
                    13 => format!("{pc},{addr},L"),
                    14 => "\u{7f}\u{1b}[31mjunk\tbytes".to_owned(),
                    _ => format!("-{pc} {addr} L"),
                }
            ),
            0..30,
        ),
    ) {
        use dspatch_trace::io::ChampsimTextSource;
        use dspatch_trace::{TraceFileError, TraceSource};

        let path = std::env::temp_dir().join(format!(
            "dspatch_fuzz_text_{}.trace",
            std::process::id()
        ));
        let text: String = lines.iter().map(|line| format!("{line}\n")).collect();
        std::fs::write(&path, text).expect("temp file");
        match ChampsimTextSource::open(&path) {
            Ok(mut source) => {
                let promised = source.meta().accesses;
                let mut drained = 0u64;
                while source.next_record().is_some() {
                    drained += 1;
                }
                prop_assert_eq!(drained, promised);
            }
            Err(TraceFileError::Malformed { line, .. }) => {
                prop_assert!(line >= 1 && line <= lines.len() as u64);
            }
            Err(other) => {
                return Err(TestCaseError::fail(format!("unexpected error class {other:?}")))
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The simulator conserves instructions (every trace record and gap is
    /// executed exactly once) for arbitrary small traces.
    #[test]
    fn simulator_conserves_instructions(
        accesses in proptest::collection::vec((0u64..128, 0u64..64, 0u32..30), 1..200),
    ) {
        use dspatch_sim::{SimulationBuilder, SystemConfig};
        use dspatch_trace::{Trace, TraceRecord};
        use dspatch_types::NullPrefetcher;

        let records: Vec<TraceRecord> = accesses
            .iter()
            .map(|&(page, offset, gap)| {
                TraceRecord::load(0x400, page * 4096 + offset * 64).with_gap(gap)
            })
            .collect();
        let trace = Trace::new("prop", records);
        let expected = trace.instruction_count();
        let result = SimulationBuilder::new(SystemConfig::single_thread())
            .with_core(trace, NullPrefetcher::new())
            .run();
        prop_assert_eq!(result.cores[0].instructions, expected);
        prop_assert!(result.cores[0].finish_cycle > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Hostile bytes never panic the JSON parser now sitting on a socket
    /// boundary: a valid `CampaignSpec` document is spliced, truncated,
    /// byte-flipped, and seeded with the classic parser traps (duplicate
    /// keys, lone surrogates, nesting bombs). `Json::parse` must either
    /// succeed or return a typed [`JsonError`] whose offset points into the
    /// document, and `CampaignSpec::parse` must turn every surviving
    /// document into a spec or a readable error — never a panic.
    #[test]
    fn mutated_spec_corpora_fail_typed_or_parse(
        corpus in 0usize..3,
        mutation in 0u8..6,
        cut in any::<u64>(),
        flip_at in any::<u64>(),
        flip_to in any::<u8>(),
        splice_at in any::<u64>(),
        trap in 0usize..7,
    ) {
        use dspatch_harness::json::{Json, JsonError, JsonErrorKind, MAX_DEPTH};
        use dspatch_harness::CampaignSpec;

        let seed = match corpus {
            0 => CampaignSpec::template().to_json().render(),
            1 => concat!(
                r#"{"name": "fuzz", "cells": [{"label": "c", "#,
                r#""targets": {"category": "sensitive"}, "#,
                r#""prefetchers": ["dspatch"], "configs": [{"base": "single"}]}]}"#
            ).to_string(),
            _ => r#"{"scale": {"accesses_per_workload": 600, "threads": 2}}"#.to_string(),
        };
        let traps: [&str; 7] = [
            r#""\ud800""#,
            r#""\udc00x""#,
            r#"{"k": 1, "k": 2}"#,
            "\u{0}",
            "1e400",
            "{\"a\":",
            "\"\\u",
        ];

        let mut bytes = seed.into_bytes();
        // Mutation 0 leaves the document intact so the Ok path is hit too.
        if mutation == 1 || mutation == 3 {
            let keep = (cut % (bytes.len() as u64 + 1)) as usize;
            bytes.truncate(keep);
        }
        if (mutation == 2 || mutation == 3) && !bytes.is_empty() {
            let at = (flip_at % bytes.len() as u64) as usize;
            bytes[at] = flip_to;
        }
        if mutation == 4 {
            let at = (splice_at % (bytes.len() as u64 + 1)) as usize;
            let mut spliced = bytes[..at].to_vec();
            spliced.extend_from_slice(traps[trap].as_bytes());
            spliced.extend_from_slice(&bytes[at..]);
            bytes = spliced;
        }
        if mutation == 5 {
            // Nesting bomb wrapped around the document.
            let depth = MAX_DEPTH + 2;
            let mut bomb = "[".repeat(depth).into_bytes();
            bomb.extend_from_slice(&bytes);
            bomb.extend_from_slice("]".repeat(depth).as_bytes());
            bytes = bomb;
        }

        // The parser takes &str; non-UTF-8 mutants exercise the lossy path a
        // network server would apply before parsing.
        let text = String::from_utf8_lossy(&bytes).into_owned();
        match Json::parse(&text) {
            Ok(doc) => {
                // A parsed document must re-render to something re-parseable.
                prop_assert!(Json::parse(&doc.render()).is_ok());
            }
            Err(JsonError { kind, offset, message }) => {
                prop_assert!(offset <= text.len(), "offset {offset} past end");
                prop_assert!(!message.is_empty());
                let _ = kind.label();
                if mutation == 5 {
                    prop_assert_eq!(kind, JsonErrorKind::DepthExceeded);
                }
            }
        }
        // Spec parsing layers its own validation on top; it must never panic.
        let _ = CampaignSpec::parse(&text);
    }
}
