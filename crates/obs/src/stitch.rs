//! Cross-shard trace stitching: reassembling one transaction's causal
//! tree from span-linked trace events.
//!
//! A [`TraceId`](crate::TraceId) names one request; PR 4 made every
//! layer stamp it, so a transcript *grep* finds the request's journey.
//! But a grep is flat: a cross-shard transaction fans out (admit →
//! demux → per-shard validate → cross-shard journal → reply) and the
//! flat view cannot say *which* WAL append belonged to *which* commit
//! batch. This module adds the missing structure:
//!
//! * [`TraceEvent`] — one step, carrying a per-trace **span id** and a
//!   **parent span id** (0 = root) plus an optional shard attribution.
//! * [`TraceHub`] — a bounded, thread-safe store of recent traces the
//!   service records steps into (span ids allocated under the hub's
//!   lock, so they are unique within a trace).
//! * [`TraceAssembler`] — rebuilds the causal tree from events in *any*
//!   order (network capture, shuffled transcript lines, merged
//!   per-shard logs) and renders it as indented text or nested JSON.
//!
//! Assembly is order-insensitive by construction: nodes are keyed by
//! span id and children are sorted by span id, so any permutation of
//! the same event set assembles to the same tree — the property the
//! conformance suite checks by permutation testing.

use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

use crate::json::escape;
use crate::trace::TraceId;

/// One step on a trace's causal path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Arrival order within the trace (0-based). Used only as a
    /// tiebreaker for span-less events; tree shape ignores it.
    pub seq: u64,
    /// This step's span id, unique within the trace, never 0 for
    /// hub-recorded steps.
    pub span: u64,
    /// The parent step's span id; 0 marks a root.
    pub parent: u64,
    /// The step's stable name (e.g. `server/wal_append`).
    pub name: String,
    /// The shard lane this step ran on, when it ran on one.
    pub shard: Option<u32>,
    /// Free-form detail (an LSN, a tier, a batch size, …).
    pub detail: String,
}

/// Rebuilds one trace's causal tree from events in any order.
#[derive(Default)]
pub struct TraceAssembler {
    events: Vec<TraceEvent>,
}

impl TraceAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        TraceAssembler { events: Vec::new() }
    }

    /// Adds one event. Order does not matter.
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Number of events added so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The set of shards that contributed at least one step, sorted.
    pub fn shards(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self.events.iter().filter_map(|e| e.shard).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The canonical node order: roots and their subtrees, depth-first,
    /// children sorted by span id. Returns `(depth, index)` pairs into
    /// an internally sorted copy of the events.
    fn walk(&self) -> (Vec<TraceEvent>, Vec<(usize, usize)>) {
        let mut nodes = self.events.clone();
        // Canonical node order: span id, then arrival order for
        // span-less events. Span ids are allocation-ordered in the live
        // hub, so this also reads causally for real traces.
        nodes.sort_by_key(|e| (e.span, e.seq));
        let mut by_span: HashMap<u64, usize> = HashMap::new();
        for (i, e) in nodes.iter().enumerate() {
            if e.span != 0 {
                by_span.entry(e.span).or_insert(i);
            }
        }
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        let mut roots: Vec<usize> = Vec::new();
        for (i, e) in nodes.iter().enumerate() {
            match by_span.get(&e.parent) {
                // A self-parent is malformed input; treat it as a root
                // rather than recursing forever.
                Some(&p) if e.parent != 0 && p != i => children[p].push(i),
                _ => roots.push(i),
            }
        }
        let mut order: Vec<(usize, usize)> = Vec::new();
        let mut visited = vec![false; nodes.len()];
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for &r in &roots {
            stack.push((0, r));
            while let Some((depth, i)) = stack.pop() {
                if visited[i] {
                    continue;
                }
                visited[i] = true;
                order.push((depth, i));
                for &c in children[i].iter().rev() {
                    stack.push((depth + 1, c));
                }
            }
        }
        // Cycles (malformed input) leave nodes unvisited; surface them
        // as extra roots in span order so assembly still terminates and
        // loses nothing.
        for i in 0..nodes.len() {
            if !visited[i] {
                stack.push((0, i));
                while let Some((depth, j)) = stack.pop() {
                    if visited[j] {
                        continue;
                    }
                    visited[j] = true;
                    order.push((depth, j));
                    for &c in children[j].iter().rev() {
                        stack.push((depth + 1, c));
                    }
                }
            }
        }
        (nodes, order)
    }

    /// Renders the causal tree as indented text, one step per line:
    /// depth markers, name, span coordinates, shard and detail.
    pub fn render(&self, trace: TraceId) -> String {
        let (nodes, order) = self.walk();
        let mut out = format!("trace {trace} ({} events)\n", nodes.len());
        for (depth, i) in order {
            let e = &nodes[i];
            out.push_str(&"  ".repeat(depth));
            out.push_str(if depth == 0 { "• " } else { "└─ " });
            out.push_str(&e.name);
            out.push_str(&format!(" [span {}]", e.span));
            if let Some(s) = e.shard {
                out.push_str(&format!(" shard={s}"));
            }
            if !e.detail.is_empty() {
                out.push_str(&format!(" — {}", e.detail));
            }
            out.push('\n');
        }
        out
    }

    /// Renders the causal tree as one JSON object:
    /// `{"trace":"…","shards":[…],"spans":[{span,parent,name,shard?,
    /// detail?,children:[…]},…]}` with children nested and sorted by
    /// span id.
    pub fn to_json(&self, trace: TraceId) -> String {
        let (nodes, order) = self.walk();
        let mut out = format!("{{\"trace\":\"{trace}\",\"shards\":[");
        for (i, s) in self.shards().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&s.to_string());
        }
        out.push_str("],\"spans\":[");
        let mut open_depths: Vec<usize> = Vec::new();
        for (k, &(depth, i)) in order.iter().enumerate() {
            while let Some(&d) = open_depths.last() {
                if d >= depth {
                    out.push_str("]}");
                    open_depths.pop();
                } else {
                    break;
                }
            }
            if k > 0 && out.ends_with('}') {
                out.push(',');
            }
            let e = &nodes[i];
            out.push_str(&format!(
                "{{\"span\":{},\"parent\":{},\"name\":\"{}\"",
                e.span,
                e.parent,
                escape(&e.name)
            ));
            if let Some(s) = e.shard {
                out.push_str(&format!(",\"shard\":{s}"));
            }
            if !e.detail.is_empty() {
                out.push_str(&format!(",\"detail\":\"{}\"", escape(&e.detail)));
            }
            out.push_str(",\"children\":[");
            open_depths.push(depth);
        }
        while open_depths.pop().is_some() {
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

struct TraceLog {
    events: Vec<TraceEvent>,
    next_span: u64,
}

struct HubInner {
    traces: HashMap<u64, TraceLog>,
    order: VecDeque<u64>,
}

/// A bounded, thread-safe store of recent traces.
///
/// The service records every step of every transaction here; admin
/// `TraceLookup` queries read assembled trees back out. Capacity is a
/// trace count — when full, the oldest trace is evicted FIFO. A
/// capacity of 0 disables the hub entirely: [`TraceHub::record`]
/// becomes a branch and the detail closure is never called.
pub struct TraceHub {
    inner: Mutex<HubInner>,
    capacity: usize,
}

impl TraceHub {
    /// A hub remembering up to `capacity` traces (0 = disabled).
    pub fn new(capacity: usize) -> Self {
        TraceHub {
            inner: Mutex::new(HubInner {
                traces: HashMap::new(),
                order: VecDeque::new(),
            }),
            capacity,
        }
    }

    /// Whether the hub stores anything at all.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records one step of `trace` and returns its span id (0 when the
    /// hub is disabled). `parent` is a span id previously returned for
    /// the same trace, or 0 for the root. The detail string is built
    /// only when the hub is enabled.
    pub fn record(
        &self,
        trace: TraceId,
        name: &str,
        parent: u64,
        shard: Option<u32>,
        detail: impl FnOnce() -> String,
    ) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        let mut inner = self.inner.lock().expect("trace hub poisoned");
        let key = trace.as_u64();
        if !inner.traces.contains_key(&key) {
            if inner.traces.len() >= self.capacity {
                if let Some(old) = inner.order.pop_front() {
                    inner.traces.remove(&old);
                }
            }
            inner.order.push_back(key);
            inner.traces.insert(
                key,
                TraceLog {
                    events: Vec::new(),
                    next_span: 1,
                },
            );
        }
        let log = inner.traces.get_mut(&key).expect("just inserted");
        let span = log.next_span;
        log.next_span += 1;
        let seq = log.events.len() as u64;
        log.events.push(TraceEvent {
            seq,
            span,
            parent,
            name: name.to_string(),
            shard,
            detail: detail(),
        });
        span
    }

    /// The raw events of `trace`, in recording order, if the hub still
    /// remembers it.
    pub fn lookup(&self, trace: TraceId) -> Option<Vec<TraceEvent>> {
        let inner = self.inner.lock().expect("trace hub poisoned");
        inner.traces.get(&trace.as_u64()).map(|l| l.events.clone())
    }

    /// An assembler pre-loaded with `trace`'s events, if remembered.
    pub fn assemble(&self, trace: TraceId) -> Option<TraceAssembler> {
        self.lookup(trace).map(|events| {
            let mut asm = TraceAssembler::new();
            for e in events {
                asm.push(e);
            }
            asm
        })
    }

    /// Number of traces currently remembered.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("trace hub poisoned").traces.len()
    }

    /// Whether no traces are remembered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        // admit(1) ─┬─ verify(2)
        //           └─ group_commit(3) ─┬─ wal_append(4) shard 0
        //                               └─ wal_append(5) shard 2
        vec![
            TraceEvent {
                seq: 0,
                span: 1,
                parent: 0,
                name: "server/admit".into(),
                shard: None,
                detail: "session 3".into(),
            },
            TraceEvent {
                seq: 1,
                span: 2,
                parent: 1,
                name: "server/verify".into(),
                shard: None,
                detail: String::new(),
            },
            TraceEvent {
                seq: 2,
                span: 3,
                parent: 1,
                name: "server/group_commit".into(),
                shard: None,
                detail: "batch=1".into(),
            },
            TraceEvent {
                seq: 3,
                span: 4,
                parent: 3,
                name: "server/wal_append".into(),
                shard: Some(0),
                detail: "lsn 1".into(),
            },
            TraceEvent {
                seq: 4,
                span: 5,
                parent: 3,
                name: "server/wal_append".into(),
                shard: Some(2),
                detail: "lsn 1".into(),
            },
        ]
    }

    fn assembled(events: Vec<TraceEvent>) -> TraceAssembler {
        let mut asm = TraceAssembler::new();
        for e in events {
            asm.push(e);
        }
        asm
    }

    #[test]
    fn assembles_one_tree_with_shard_attribution() {
        let asm = assembled(sample_events());
        assert_eq!(asm.shards(), vec![0, 2]);
        let t = TraceId::derive(1);
        let text = asm.render(t);
        // One root, children indented under it.
        assert_eq!(text.matches("• ").count(), 1, "{text}");
        assert!(
            text.contains("• server/admit [span 1] — session 3"),
            "{text}"
        );
        assert!(
            text.contains("    └─ server/wal_append [span 4] shard=0 — lsn 1"),
            "{text}"
        );
        let json = asm.to_json(t);
        assert!(json.contains("\"shards\":[0,2]"), "{json}");
        assert!(json.contains("\"name\":\"server/group_commit\""), "{json}");
        // wal_append nests inside group_commit's children array.
        let gc = json.find("server/group_commit").unwrap();
        let wal = json.find("server/wal_append").unwrap();
        assert!(wal > gc, "{json}");
    }

    #[test]
    fn assembly_is_order_insensitive() {
        let events = sample_events();
        let t = TraceId::derive(2);
        let reference = assembled(events.clone()).to_json(t);
        // Every rotation and a couple of seeded shuffles must assemble
        // to byte-identical output.
        for rot in 0..events.len() {
            let mut shuffled = events.clone();
            shuffled.rotate_left(rot);
            assert_eq!(assembled(shuffled).to_json(t), reference, "rotation {rot}");
        }
        let mut shuffled = events.clone();
        shuffled.swap(0, 4);
        shuffled.swap(1, 3);
        assert_eq!(assembled(shuffled).to_json(t), reference);
    }

    #[test]
    fn malformed_parents_terminate_and_keep_every_event() {
        let t = TraceId::derive(3);
        let events = vec![
            TraceEvent {
                seq: 0,
                span: 1,
                parent: 2, // cycle with span 2
                name: "a".into(),
                shard: None,
                detail: String::new(),
            },
            TraceEvent {
                seq: 1,
                span: 2,
                parent: 1,
                name: "b".into(),
                shard: None,
                detail: String::new(),
            },
            TraceEvent {
                seq: 2,
                span: 3,
                parent: 3, // self-parent
                name: "c".into(),
                shard: None,
                detail: String::new(),
            },
            TraceEvent {
                seq: 3,
                span: 4,
                parent: 99, // dangling parent
                name: "d".into(),
                shard: None,
                detail: String::new(),
            },
        ];
        let text = assembled(events).render(t);
        for name in ["a", "b", "c", "d"] {
            assert!(text.contains(name), "{text}");
        }
    }

    #[test]
    fn hub_records_allocates_spans_and_evicts_fifo() {
        let hub = TraceHub::new(2);
        let t1 = TraceId::derive(1);
        let t2 = TraceId::derive(2);
        let t3 = TraceId::derive(3);
        let root = hub.record(t1, "server/admit", 0, None, || "s".into());
        assert_eq!(root, 1);
        let child = hub.record(t1, "server/verify", root, None, String::new);
        assert_eq!(child, 2);
        hub.record(t2, "server/admit", 0, None, String::new);
        assert_eq!(hub.len(), 2);
        hub.record(t3, "server/admit", 0, None, String::new);
        assert_eq!(hub.len(), 2, "capacity enforced");
        assert!(hub.lookup(t1).is_none(), "oldest trace evicted");
        assert!(hub.lookup(t3).is_some());
        let asm = hub.assemble(t2).unwrap();
        assert_eq!(asm.len(), 1);
    }

    #[test]
    fn disabled_hub_skips_detail_construction() {
        let hub = TraceHub::new(0);
        assert!(!hub.enabled());
        let span = hub.record(TraceId::derive(1), "x", 0, None, || {
            panic!("must not build")
        });
        assert_eq!(span, 0);
        assert!(hub.is_empty());
    }
}
