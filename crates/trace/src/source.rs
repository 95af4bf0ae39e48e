//! The streaming trace API: pull-based, O(1)-memory trace sources.
//!
//! Every simulation path used to materialize a full `Vec<TraceRecord>`
//! before the machine saw a single access, so memory scaled linearly with
//! run length. [`TraceSource`] redesigns the trace layer the same way the
//! prefetcher API was redesigned around `PrefetchSink`: the simulator
//! *pulls* records one at a time, and where they come from — a synthetic
//! generator evaluated lazily ([`SynthSource`]), an owned in-memory trace
//! ([`MaterializedSource`]), or a file on disk (see [`crate::io`]) — is the
//! source's business.
//!
//! Sources also carry [`TraceMeta`] (name, exact access count,
//! instruction count when known) and support cheap [`TraceSource::reset`] /
//! [`TraceSource::fork`], which is what lets the experiment harness replay
//! one opened trace under many prefetchers without rereading or
//! regenerating it eagerly.
//!
//! # Example
//!
//! ```
//! use dspatch_trace::{SynthSource, TraceSource, GeneratorSpec, StreamGen, PatternGenerator};
//!
//! let spec = GeneratorSpec::Stream(StreamGen::default());
//! let mut source = SynthSource::new("demo", spec.clone(), 7, 1000);
//! let mut pulled = Vec::new();
//! while let Some(record) = source.next_record() {
//!     pulled.push(record);
//! }
//! // Bit-identical to the materialized form, without holding the trace.
//! assert_eq!(pulled, spec.generate_records(7, 1000));
//! assert_eq!(source.meta().accesses, 1000);
//! ```

use crate::record::{Trace, TraceRecord};
use crate::synth::{GeneratorSpec, PatternGenerator, RecordStream};

/// Metadata a [`TraceSource`] carries alongside its record stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Human-readable workload name.
    pub name: String,
    /// Exact number of memory accesses the source will produce.
    pub accesses: u64,
    /// Total instructions (memory accesses plus gaps) when known without
    /// consuming the source.
    pub instructions: Option<u64>,
}

/// A pull-based stream of trace records with O(1) steady-state memory.
///
/// Unlike [`crate::synth::RecordStream`] (unbounded, raw generator state),
/// a `TraceSource` is *finite* — `next_record` returns `None` when the
/// trace ends — carries metadata, and can be rewound ([`TraceSource::reset`])
/// or duplicated ([`TraceSource::fork`]) so one trace can feed many
/// simulations.
pub trait TraceSource: Send {
    /// Produces the next record, or `None` once the trace is exhausted.
    fn next_record(&mut self) -> Option<TraceRecord>;

    /// Rewinds the source to its first record.
    fn reset(&mut self);

    /// Creates an independent copy of this source positioned at its first
    /// record, leaving `self` untouched. This is what the harness uses to
    /// replay one trace under several prefetchers.
    fn fork(&self) -> Box<dyn TraceSource>;

    /// The source's metadata.
    fn meta(&self) -> TraceMeta;
}

/// Conversion into a boxed [`TraceSource`], so `SimulationBuilder::with_core`
/// accepts sources and owned [`Trace`]s alike (the materialized trace is
/// just one adapter, [`MaterializedSource`]).
pub trait IntoTraceSource {
    /// Converts `self` into a boxed source.
    fn into_trace_source(self) -> Box<dyn TraceSource>;
}

impl<S: TraceSource + 'static> IntoTraceSource for S {
    fn into_trace_source(self) -> Box<dyn TraceSource> {
        Box::new(self)
    }
}

impl IntoTraceSource for Trace {
    fn into_trace_source(self) -> Box<dyn TraceSource> {
        Box::new(MaterializedSource::new(self))
    }
}

impl IntoTraceSource for Box<dyn TraceSource> {
    fn into_trace_source(self) -> Box<dyn TraceSource> {
        self
    }
}

/// Collects a source into an owned [`Trace`] (for analysis code that needs
/// random access; simulation paths should consume the source directly).
pub fn collect_source(source: &mut dyn TraceSource) -> Trace {
    let meta = source.meta();
    let mut records = Vec::with_capacity(meta.accesses as usize);
    while let Some(record) = source.next_record() {
        records.push(record);
    }
    Trace::new(meta.name, records)
}

/// The adapter keeping the owned, in-memory [`Trace`] usable wherever a
/// source is expected: a cursor over its record vector.
#[derive(Debug, Clone)]
pub struct MaterializedSource {
    trace: Trace,
    instructions: u64,
    cursor: usize,
}

impl MaterializedSource {
    /// Wraps an owned trace.
    pub fn new(trace: Trace) -> Self {
        let instructions = trace.instruction_count();
        Self {
            trace,
            instructions,
            cursor: 0,
        }
    }
}

impl TraceSource for MaterializedSource {
    fn next_record(&mut self) -> Option<TraceRecord> {
        let record = self.trace.records.get(self.cursor).copied();
        if record.is_some() {
            self.cursor += 1;
        }
        record
    }

    fn reset(&mut self) {
        self.cursor = 0;
    }

    fn fork(&self) -> Box<dyn TraceSource> {
        Box::new(Self {
            trace: self.trace.clone(),
            instructions: self.instructions,
            cursor: 0,
        })
    }

    fn meta(&self) -> TraceMeta {
        TraceMeta {
            name: self.trace.name.clone(),
            accesses: self.trace.len() as u64,
            instructions: Some(self.instructions),
        }
    }
}

/// A lazily-evaluated synthetic workload: a [`GeneratorSpec`] streamed up to
/// a fixed length, holding only the generator's O(1) state. Bit-identical to
/// `spec.generate_records(seed, len)` by construction (the materialized form
/// is the same stream collected).
pub struct SynthSource {
    name: String,
    spec: GeneratorSpec,
    seed: u64,
    len: u64,
    emitted: u64,
    stream: Box<dyn RecordStream>,
}

impl SynthSource {
    /// Starts a source producing `len` records of `spec` seeded with `seed`.
    pub fn new(name: impl Into<String>, spec: GeneratorSpec, seed: u64, len: usize) -> Self {
        let stream = spec.stream(seed, len);
        Self {
            name: name.into(),
            spec,
            seed,
            len: len as u64,
            emitted: 0,
            stream,
        }
    }
}

impl std::fmt::Debug for SynthSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SynthSource")
            .field("name", &self.name)
            .field("seed", &self.seed)
            .field("len", &self.len)
            .field("emitted", &self.emitted)
            .finish()
    }
}

impl TraceSource for SynthSource {
    fn next_record(&mut self) -> Option<TraceRecord> {
        if self.emitted >= self.len {
            return None;
        }
        self.emitted += 1;
        Some(self.stream.next_record())
    }

    fn reset(&mut self) {
        self.stream = self.spec.stream(self.seed, self.len as usize);
        self.emitted = 0;
    }

    fn fork(&self) -> Box<dyn TraceSource> {
        Box::new(Self::new(
            self.name.clone(),
            self.spec.clone(),
            self.seed,
            self.len as usize,
        ))
    }

    fn meta(&self) -> TraceMeta {
        TraceMeta {
            name: self.name.clone(),
            accesses: self.len,
            instructions: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::StreamGen;
    use crate::workloads::suite;

    fn spec() -> GeneratorSpec {
        GeneratorSpec::Stream(StreamGen::default())
    }

    #[test]
    fn synth_source_matches_materialized_generation() {
        for workload in suite().into_iter().take(5) {
            let trace = workload.generate(700);
            let mut source = workload.source(700);
            let streamed = collect_source(&mut source);
            assert_eq!(streamed, trace, "{}", workload.name);
            assert!(source.next_record().is_none(), "source must stay exhausted");
        }
    }

    #[test]
    fn synth_source_reset_and_fork_replay_from_the_start() {
        let mut source = SynthSource::new("s", spec(), 11, 300);
        let first: Vec<_> = std::iter::from_fn(|| source.next_record()).collect();
        assert_eq!(first.len(), 300);
        source.reset();
        let second: Vec<_> = std::iter::from_fn(|| source.next_record()).collect();
        assert_eq!(first, second);
        // A fork taken mid-stream still starts from record zero.
        source.reset();
        for _ in 0..50 {
            source.next_record();
        }
        let mut forked = source.fork();
        let forked_records: Vec<_> = std::iter::from_fn(|| forked.next_record()).collect();
        assert_eq!(forked_records, first);
        // And the original continues where it was.
        let rest: Vec<_> = std::iter::from_fn(|| source.next_record()).collect();
        assert_eq!(rest, first[50..]);
    }

    #[test]
    fn materialized_source_round_trips_a_trace() {
        let trace = Trace::new("m", spec().generate_records(3, 120));
        let expected_instructions = trace.instruction_count();
        let mut source = MaterializedSource::new(trace.clone());
        let meta = source.meta();
        assert_eq!(meta.name, "m");
        assert_eq!(meta.accesses, 120);
        assert_eq!(meta.instructions, Some(expected_instructions));
        assert_eq!(collect_source(&mut source), trace);
        source.reset();
        assert_eq!(collect_source(&mut source), trace);
    }

    #[test]
    fn trace_converts_into_a_source() {
        let trace = Trace::new("adapter", spec().generate_records(5, 80));
        let mut source = trace.clone().into_trace_source();
        assert_eq!(collect_source(source.as_mut()), trace);
    }
}
