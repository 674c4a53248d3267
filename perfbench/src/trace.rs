//! Benchmark-side tracing. Spans are placed by the benchmark around its
//! own calls into each layer's public functions (nothing inside the
//! program is instrumented), kept in memory, and written out as JSON
//! lines when the run ends.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::stats::median;

/// Nanoseconds since the first call in this process: the one clock every
/// span and device event is stamped with.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u64,
    /// Spans of one request share this identifier.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder. A disabled tracer records nothing and
/// hands out span id 0.
pub struct Tracer {
    on: bool,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.spans.lock().expect("span store lock").push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store lock").clone()
    }
}

/// Self time per span id: its duration minus the durations of its
/// children, never below zero.
pub fn self_ns(spans: &[Span]) -> HashMap<u64, u64> {
    let mut child_total: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_total.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            let children = child_total.get(&s.id).copied().unwrap_or(0);
            (s.id, s.dur_ns().saturating_sub(children))
        })
        .collect()
}

/// A request path split into per-layer self times.
pub struct PathSplit {
    pub requests: usize,
    pub root_p50_ms: f64,
    /// Per span name: the median over requests of that layer's self
    /// time in the request (0 where the request never entered it).
    pub layers: Vec<(&'static str, f64)>,
    pub sum_ms: f64,
    /// |sum of layer medians − root median| as a share of the root median.
    pub error_pct: f64,
}

/// Splits every request rooted at a span named `root` into the self
/// times of the spans sharing its request id.
pub fn path_split(spans: &[Span], root: &str) -> PathSplit {
    let own = self_ns(spans);
    let roots: BTreeMap<u64, u64> = spans
        .iter()
        .filter(|s| s.name == root)
        .map(|s| (s.request, s.dur_ns()))
        .collect();
    let mut per_layer: BTreeMap<&'static str, HashMap<u64, u64>> = BTreeMap::new();
    for s in spans.iter().filter(|s| roots.contains_key(&s.request)) {
        *per_layer
            .entry(s.name)
            .or_default()
            .entry(s.request)
            .or_default() += own[&s.id];
    }
    let ms = |ns: u64| ns as f64 / 1e6;
    let root_p50_ms = median(&roots.values().map(|&d| ms(d)).collect::<Vec<_>>());
    let layers: Vec<(&'static str, f64)> = per_layer
        .into_iter()
        .map(|(name, by_req)| {
            let samples: Vec<f64> = roots
                .keys()
                .map(|r| ms(by_req.get(r).copied().unwrap_or(0)))
                .collect();
            (name, median(&samples))
        })
        .collect();
    let sum_ms: f64 = layers.iter().map(|(_, v)| v).sum();
    let error_pct = if root_p50_ms > 0.0 {
        (sum_ms - root_p50_ms).abs() / root_p50_ms * 100.0
    } else {
        0.0
    };
    PathSplit {
        requests: roots.len(),
        root_p50_ms,
        layers,
        sum_ms,
        error_pct,
    }
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
