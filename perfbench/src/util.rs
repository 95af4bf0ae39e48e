//! Small shared pieces: the seeded draw, order statistics, the metric list,
//! the in-memory span recorder and peak-RSS readings.

use dspatch_harness::Json;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// SplitMix64: every workload input is drawn from this, keyed by `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct indices in `0..n`, in draw order.
    pub fn distinct(&mut self, k: usize, n: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..n).collect();
        (0..k.min(n))
            .map(|_| pool.swap_remove(self.below(pool.len())))
            .collect()
    }
}

/// The `q` quantile (0..=1) of `values` by linear interpolation; 0 when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Named metrics in emission order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Names whose value is not a finite number (a broken measurement).
    pub fn non_finite(&self) -> Vec<&str> {
        self.0
            .iter()
            .filter(|(_, value, _)| !value.is_finite())
            .map(|(name, _, _)| name.as_str())
            .collect()
    }

    /// The `metrics` object of the result line. Values are printed with
    /// Rust's shortest round-trip formatting, so every digit is kept.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// One recorded span: a call into a layer, made from this benchmark.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: u64,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory and written out once, at the end of a traced run.
/// A disabled tracer records nothing, so untraced runs pay one branch.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// `instant` on the span clock.
    pub fn ns_at(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id (0 when disabled; 0 is
    /// also the root parent).
    pub fn record(&self, name: &str, parent: u64, start_ns: u64, end_ns: u64) -> u64 {
        if !self.enabled {
            return 0;
        }
        let mut spans = self.spans.lock().expect("span list poisoned by a panic");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            name: name.to_owned(),
            start_ns,
            end_ns,
        });
        id
    }

    /// Runs `f` inside a span named `name`. The span's id is allocated
    /// before `f` runs so children can name it as their parent.
    pub fn span<T>(&self, name: &str, parent: u64, f: impl FnOnce(u64) -> T) -> T {
        if !self.enabled {
            return f(0);
        }
        let start = self.now_ns();
        let id = self.record(name, parent, start, start);
        let out = f(id);
        let end = self.now_ns();
        let mut spans = self.spans.lock().expect("span list poisoned by a panic");
        spans[(id - 1) as usize].end_ns = end;
        out
    }

    /// Writes every span as one JSON line; returns how many were written.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        let spans = self.spans.lock().expect("span list poisoned by a panic");
        let mut text = String::new();
        for span in spans.iter() {
            let line = Json::obj([
                ("id", Json::num(span.id as f64)),
                ("parent", Json::num(span.parent as f64)),
                ("name", Json::str(&span.name)),
                ("start_ns", Json::num(span.start_ns as f64)),
                ("end_ns", Json::num(span.end_ns as f64)),
            ]);
            text.push_str(&line.render_compact());
            text.push('\n');
        }
        std::fs::write(path, text)?;
        Ok(spans.len())
    }
}

/// Peak resident set (`VmHWM`) of a process in MiB, from `/proc`.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The benchmark's scratch directory inside the checkout, unique per
/// process so concurrent or repeated runs never share a store.
pub fn scratch_dir(workload: &str) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(".perfbench").join(format!("{workload}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Elapsed seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// A gauge of how fast the host runs at a moment: a fixed loop of random
/// table updates, one table per thread. The loop is this benchmark's own
/// code, so no change to the program moves it. The tables are allocated and
/// touched once, when the gauge is made, so they add a constant
/// [`HostGauge::mib`] to the process's resident set however often it runs.
#[derive(Debug)]
pub struct HostGauge {
    tables: Vec<Vec<u64>>,
}

impl HostGauge {
    const TABLE_LEN: usize = 1 << 19;

    pub fn new(threads: usize) -> Self {
        Self {
            tables: vec![vec![1u64; Self::TABLE_LEN]; threads],
        }
    }

    /// MiB the tables occupy.
    pub fn mib(&self) -> f64 {
        (self.tables.len() * Self::TABLE_LEN * 8) as f64 / (1024.0 * 1024.0)
    }

    /// Seconds the loop takes on every table's thread at once.
    pub fn time(&mut self) -> f64 {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for (t, table) in self.tables.iter_mut().enumerate() {
                scope.spawn(move || {
                    let mask = table.len() - 1;
                    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ t as u64;
                    let mut acc = 0u64;
                    for _ in 0..18_000_000 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let i = x as usize & mask;
                        table[i] = table[i].wrapping_add(x);
                        acc = acc.wrapping_add(table[(i ^ 0x5555) & mask]);
                    }
                    std::hint::black_box(acc);
                });
            }
        });
        secs(start)
    }
}
