//! Property tests for the observability primitives: JSON-lines
//! escaping must round-trip arbitrary Unicode (control characters and
//! non-BMP code points included) through pure-ASCII transcripts, a
//! trace step's shard must render exactly when it has one, the
//! ring sink must keep exactly the most recent events in order across
//! wraparound, and histogram snapshot merging must be associative and
//! commutative (so per-thread histograms can be combined in any order).

use std::io::Write;
use std::sync::{Arc, Mutex};

use dme_obs::{
    Event, EventKind, EventSink, Histogram, HistogramSnapshot, JsonLinesSink, RingSink, TraceId,
    TraceStep,
};
use proptest::prelude::*;

/// A `Write` handle over a shared buffer, so a transcript written by
/// [`JsonLinesSink`] can be read back in-process.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Inverse of the transcript escaping: decodes the contents of a JSON
/// string literal, including `\uXXXX` escapes and UTF-16 surrogate
/// pairs.
fn unescape(s: &str) -> String {
    let mut out = String::new();
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next().expect("dangling backslash") {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                let unit = u16::from_str_radix(&hex, 16).expect("4 hex digits");
                if (0xD800..0xDC00).contains(&unit) {
                    // High surrogate: the low half must follow as \uXXXX.
                    assert_eq!(chars.next(), Some('\\'));
                    assert_eq!(chars.next(), Some('u'));
                    let hex2: String = chars.by_ref().take(4).collect();
                    let low = u16::from_str_radix(&hex2, 16).expect("4 hex digits");
                    out.extend(char::decode_utf16([unit, low]).map(|r| r.expect("valid pair")));
                } else {
                    out.extend(char::decode_utf16([unit]).map(|r| r.expect("BMP unit")));
                }
            }
            other => panic!("unknown escape \\{other}"),
        }
    }
    out
}

/// Extracts the `detail` field's raw (still-escaped) contents from one
/// transcript line. Works because the transcript is pure ASCII and all
/// quotes inside the literal are escaped.
fn detail_field(line: &str) -> &str {
    let start = line.find("\"detail\":\"").expect("detail field") + "\"detail\":\"".len();
    let rest = &line[start..];
    let mut escaped = false;
    for (i, b) in rest.bytes().enumerate() {
        match b {
            b'\\' if !escaped => escaped = true,
            b'"' if !escaped => return &rest[..i],
            _ => escaped = false,
        }
    }
    panic!("unterminated detail literal: {line}");
}

fn snapshot_of(samples: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h.snapshot()
}

fn merged(a: &HistogramSnapshot, b: &HistogramSnapshot) -> HistogramSnapshot {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Transcript escaping round-trips arbitrary code points — ASCII,
    /// control characters, and non-BMP — through a pure-ASCII line.
    #[test]
    fn jsonl_escaping_roundtrips_and_stays_ascii(
        points in prop::collection::vec(0u32..0x110000, 0..24),
        shard in prop::option::of(0u32..64),
    ) {
        let detail: String = points.iter().filter_map(|&p| char::from_u32(p)).collect();
        let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        let sink = JsonLinesSink::new(buf.clone());
        sink.record(&Event {
            seq: 0,
            at_micros: 0,
            kind: EventKind::Trace(TraceStep {
                trace: TraceId(1),
                span: 0,
                parent: 0,
                shard,
                name: "prop/escape",
                detail: detail.clone(),
            }),
        });
        sink.flush().unwrap();
        let bytes = buf.0.lock().unwrap().clone();
        let line = String::from_utf8(bytes).expect("transcript is UTF-8");
        let line = line.trim_end_matches('\n');
        prop_assert!(line.is_ascii(), "transcript line must be pure ASCII");
        prop_assert!(
            line.bytes().all(|b| (0x20..0x7F).contains(&b)),
            "no raw control bytes in a transcript line"
        );
        match shard {
            Some(s) => prop_assert!(
                line.contains(&format!("\"name\":\"prop/escape\",\"shard\":{s}")),
                "the shard follows the name"
            ),
            None => prop_assert!(!line.contains("\"shard\""), "no shard, no shard key"),
        }
        if detail.is_empty() {
            prop_assert!(!line.contains("\"detail\""), "empty detail is omitted");
        } else {
            prop_assert_eq!(unescape(detail_field(line)), detail);
        }
    }

    /// The ring keeps exactly the most recent `capacity` events, in
    /// order, across any number of wraparounds.
    #[test]
    fn ring_sink_keeps_most_recent_in_order_across_wraparound(
        capacity in 1usize..=32,
        count in 0u64..100,
    ) {
        let ring = RingSink::with_capacity(capacity);
        for seq in 0..count {
            ring.record(&Event {
                seq,
                at_micros: seq,
                kind: EventKind::Mark { name: "m", value: seq },
            });
        }
        prop_assert_eq!(ring.recorded() as u64, count);
        let seqs: Vec<u64> = ring.events().iter().map(|e| e.seq).collect();
        let expected: Vec<u64> = (count.saturating_sub(capacity as u64)..count).collect();
        prop_assert_eq!(seqs, expected);
    }

    /// Merging is associative, commutative, has `empty` as identity,
    /// and agrees with recording the concatenated sample stream — the
    /// algebra that makes per-thread histograms combinable in any order.
    #[test]
    fn histogram_merge_is_an_order_insensitive_fold(
        a in prop::collection::vec(any::<u64>(), 0..20),
        b in prop::collection::vec(any::<u64>(), 0..20),
        c in prop::collection::vec(any::<u64>(), 0..20),
    ) {
        let (sa, sb, sc) = (snapshot_of(&a), snapshot_of(&b), snapshot_of(&c));
        prop_assert_eq!(merged(&merged(&sa, &sb), &sc), merged(&sa, &merged(&sb, &sc)));
        prop_assert_eq!(merged(&sa, &sb), merged(&sb, &sa));
        prop_assert_eq!(merged(&sa, &HistogramSnapshot::empty()), sa.clone());
        let concat: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(merged(&merged(&sa, &sb), &sc), snapshot_of(&concat));
    }
}
