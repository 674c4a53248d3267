#![deny(missing_docs)]

//! # dme-obs — observability for the equivalence engine
//!
//! Structured tracing and metrics for the decision procedures of *Data
//! Model Equivalence*: every checker tier, closure exploration, state
//! compilation, signature composition and storage transaction can report
//! what it did — and how long it took — without changing what it
//! computes.
//!
//! The design goals, in order:
//!
//! 1. **Zero cost when disabled.** [`Observer::disabled`] is a `None`
//!    behind a pointer-sized handle; every instrumentation call is a
//!    single branch. The hot loops of `dme-core::parallel` charge their
//!    counters at the same batching granularity as the engine's own
//!    budget meter, never per inner iteration.
//! 2. **Deterministic, machine-readable output.** Events carry a global
//!    sequence number and a monotonic timestamp; the JSON-lines
//!    transcript ([`JsonLinesSink`]) is a stable, line-oriented format a
//!    future PR (or a human with `jq`) can diff.
//! 3. **Per-phase attribution.** A [`SpanGuard`] snapshots the counter
//!    table when a phase starts and emits the *delta* when it ends, so a
//!    transcript says not just "12 ms in reachability" but "12 ms and
//!    48 210 node expansions in reachability".
//! 4. **One trace record.** A service request's causal path is a set of
//!    [`TraceStep`]s (trace id, span, parent, shard, name, detail).
//!    [`TraceHub::record`] records each step once: the hub keeps it for
//!    `TraceLookup` and emits the same record as [`EventKind::Trace`],
//!    so a transcript and the hub assemble, through
//!    [`TraceAssembler`], into the same causal tree.
//!
//! ## Quick start
//!
//! ```
//! use dme_obs::{Counter, Observer, Report, RingSink};
//!
//! let ring = RingSink::with_capacity(1024);
//! let obs = Observer::new(ring.clone());
//! {
//!     let _span = obs.span("demo/phase");
//!     obs.add(Counter::NodesExpanded, 42);
//! }
//! let report = Report::from_events(&ring.events());
//! assert_eq!(report.phase("demo/phase").unwrap().calls, 1);
//! println!("{report}");
//! ```

mod event;
mod export;
mod flight;
mod metrics;
mod observer;
mod registry;
mod report;
mod sink;
mod stitch;
mod trace;

pub use event::{Counter, Event, EventKind};
pub use export::{json_snapshot, prometheus_text, TelemetrySnapshot};
pub use flight::FlightRecorder;
pub use metrics::{Histogram, HistogramSnapshot, Metric, MetricsRegistry, TimerGuard, BUCKETS};
pub use observer::{Observer, SpanGuard};
pub use registry::{ShardMetrics, ShardRegistry, ShardSnapshot};
pub use report::{PhaseStats, Report};
pub use sink::{EventSink, JsonLinesSink, RingSink};
pub use stitch::{TraceAssembler, TraceHub, TraceStep};
pub use trace::TraceId;

pub(crate) mod json {
    //! Minimal JSON string escaping (no external deps in this tree).

    /// Escapes `s` as the *contents* of a JSON string literal.
    ///
    /// The output is pure ASCII: control characters and all non-ASCII
    /// code points become `\uXXXX` escapes (non-BMP code points as
    /// UTF-16 surrogate pairs), so transcripts survive locale-naive
    /// tooling and byte-wise diffing.
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if c.is_ascii() && (c as u32) >= 0x20 => out.push(c),
                c => {
                    let mut units = [0u16; 2];
                    for unit in c.encode_utf16(&mut units) {
                        out.push_str(&format!("\\u{:04x}", unit));
                    }
                }
            }
        }
        out
    }

    #[cfg(test)]
    mod tests {
        #[test]
        fn escapes_specials() {
            assert_eq!(super::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
            assert_eq!(super::escape("\u{1}"), "\\u0001");
        }

        #[test]
        fn escapes_non_ascii_and_non_bmp() {
            assert_eq!(super::escape("é"), "\\u00e9");
            assert_eq!(super::escape("€"), "\\u20ac");
            // U+1F600 as a UTF-16 surrogate pair.
            assert_eq!(super::escape("\u{1F600}"), "\\ud83d\\ude00");
            assert!(super::escape("π🎉").is_ascii());
        }
    }
}
