//! Cross-shard trace stitching: one record per step of a request's
//! causal path, and the tree those records assemble into.
//!
//! A [`TraceId`] names one request, and a flat transcript grep finds
//! its steps. But a cross-shard transaction fans out (admit → verify →
//! group commit → one WAL append per shard → reply), and a flat view
//! cannot say *which* WAL append belonged to *which* commit batch. This
//! module adds the structure:
//!
//! * [`TraceStep`] — one step: trace id, a per-trace **span id**, the
//!   **parent span id** (0 = root), an optional shard, a name and a
//!   detail. It is the only trace record: the hub stores it, the
//!   observer emits it as [`EventKind::Trace`], and the assembler
//!   builds trees from it.
//! * [`TraceHub`] — a bounded, thread-safe store of recent traces.
//!   [`TraceHub::record`] is the one call per step: it allocates the
//!   span id, stores the step and emits the same step to the hub's
//!   observer, so the transcript and a `TraceLookup` tree are two views
//!   of one stream.
//! * [`TraceAssembler`] — rebuilds the causal tree from steps in *any*
//!   order (a hub lookup, a ring or JSON-lines transcript, merged
//!   per-shard logs) and renders it as nested JSON.
//!
//! Assembly is order-insensitive by construction: steps are sorted by
//! span id (then by content) and children are sorted by span id, so
//! any permutation of the same step set assembles to the same tree —
//! the property the conformance suite checks by permutation testing.

use std::collections::{HashMap, VecDeque};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::event::EventKind;
use crate::json::escape;
use crate::observer::Observer;
use crate::trace::TraceId;

/// One step on a trace's causal path. Steps order by their fields in
/// declaration order (trace, then span, …): the assembler's node order.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceStep {
    /// The request's trace id.
    pub trace: TraceId,
    /// This step's span id, unique within the trace; 0 for a flat point
    /// recorded where no hub allocates spans (replay, checkpoint).
    pub span: u64,
    /// The parent step's span id; 0 marks a root.
    pub parent: u64,
    /// The shard lane this step ran on, when it ran on one.
    pub shard: Option<u32>,
    /// The step's stable name (e.g. `server/wal_append`).
    pub name: &'static str,
    /// Free-form detail (an LSN, a tier, a batch size, …). Empty when
    /// the caller had nothing to add.
    pub detail: String,
}

impl TraceStep {
    /// Appends the step's JSON fields,
    /// `"span":…,"parent":…,"name":"…"[,"shard":…][,"detail":"…"]` —
    /// the shared body of a transcript line and of a tree node.
    pub(crate) fn write_fields(&self, out: &mut String) {
        out.push_str(&format!(
            "\"span\":{},\"parent\":{},\"name\":\"{}\"",
            self.span,
            self.parent,
            escape(self.name)
        ));
        if let Some(s) = self.shard {
            out.push_str(&format!(",\"shard\":{s}"));
        }
        if !self.detail.is_empty() {
            out.push_str(&format!(",\"detail\":\"{}\"", escape(&self.detail)));
        }
    }
}

/// Rebuilds one trace's causal tree from steps in any order.
#[derive(Default)]
pub struct TraceAssembler {
    steps: Vec<TraceStep>,
}

impl TraceAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        TraceAssembler { steps: Vec::new() }
    }

    /// Adds one step. Order does not matter.
    pub fn push(&mut self, step: TraceStep) {
        self.steps.push(step);
    }

    /// Number of steps added so far.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether no steps were added.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The set of shards that contributed at least one step, sorted.
    pub fn shards(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self.steps.iter().filter_map(|e| e.shard).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The canonical node order: roots and their subtrees, depth-first,
    /// children sorted by span id. Returns `(depth, index)` pairs into
    /// an internally sorted copy of the steps.
    fn walk(&self) -> (Vec<TraceStep>, Vec<(usize, usize)>) {
        let mut nodes = self.steps.clone();
        // Canonical node order: one trace's steps sort by span id, then
        // by content for span-less steps. Span ids are
        // allocation-ordered in the live hub, so this also reads
        // causally for real traces.
        nodes.sort();
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
            out.push('{');
            nodes[i].write_fields(&mut out);
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
    steps: Vec<TraceStep>,
    next_span: u64,
}

struct HubInner {
    traces: HashMap<u64, TraceLog>,
    order: VecDeque<u64>,
}

/// A bounded, thread-safe store of recent traces, and the one place a
/// service step is recorded.
///
/// The service records every step of every transaction here; admin
/// `TraceLookup` queries read assembled trees back out, and the hub's
/// observer receives the same steps as [`EventKind::Trace`] events.
/// Capacity is a trace count — when full, the oldest trace is evicted
/// FIFO. A capacity of 0 stores nothing and allocates no span ids; with
/// a disabled observer as well, [`TraceHub::record`] is a branch and
/// the detail closure is never called.
pub struct TraceHub {
    inner: Mutex<HubInner>,
    capacity: usize,
    obs: Observer,
}

impl TraceHub {
    /// A hub remembering up to `capacity` traces (0 = none) and
    /// emitting every recorded step to `obs`.
    pub fn new(capacity: usize, obs: Observer) -> Self {
        TraceHub {
            inner: Mutex::new(HubInner {
                traces: HashMap::new(),
                order: VecDeque::new(),
            }),
            capacity,
            obs,
        }
    }

    /// The hub only caches finished steps, and no update under its lock
    /// can panic halfway (the caller's detail is built before locking),
    /// so a poisoned lock still guards valid data: later steps keep
    /// recording.
    fn lock(&self) -> MutexGuard<'_, HubInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one step of `trace` and returns its span id (0 when the
    /// hub stores nothing). `parent` is a span id previously returned
    /// for the same trace, or 0 for the root. The detail is built once,
    /// before the hub's lock is taken, and only when the step is stored
    /// or emitted.
    pub fn record(
        &self,
        trace: TraceId,
        name: &'static str,
        parent: u64,
        shard: Option<u32>,
        detail: impl FnOnce() -> String,
    ) -> u64 {
        let emit = self.obs.enabled();
        if self.capacity == 0 && !emit {
            return 0;
        }
        let mut step = TraceStep {
            trace,
            span: 0,
            parent,
            shard,
            name,
            detail: detail(),
        };
        if self.capacity > 0 {
            let mut inner = self.lock();
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
                        steps: Vec::new(),
                        next_span: 1,
                    },
                );
            }
            let log = inner.traces.get_mut(&key).expect("just inserted");
            step.span = log.next_span;
            log.next_span += 1;
            if !emit {
                let span = step.span;
                log.steps.push(step);
                return span;
            }
            log.steps.push(step.clone());
        }
        let span = step.span;
        self.obs.emit_kind(EventKind::Trace(step));
        span
    }

    /// The raw steps of `trace`, in recording order, if the hub still
    /// remembers it.
    pub fn lookup(&self, trace: TraceId) -> Option<Vec<TraceStep>> {
        self.lock()
            .traces
            .get(&trace.as_u64())
            .map(|l| l.steps.clone())
    }

    /// An assembler pre-loaded with `trace`'s steps, if remembered.
    pub fn assemble(&self, trace: TraceId) -> Option<TraceAssembler> {
        self.lookup(trace).map(|steps| TraceAssembler { steps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RingSink;

    fn step(
        span: u64,
        parent: u64,
        name: &'static str,
        shard: Option<u32>,
        detail: &str,
    ) -> TraceStep {
        TraceStep {
            trace: TraceId::derive(1),
            span,
            parent,
            shard,
            name,
            detail: detail.into(),
        }
    }

    fn sample_steps() -> Vec<TraceStep> {
        // admit(1) ─┬─ verify(2)
        //           └─ group_commit(3) ─┬─ wal_append(4) shard 0
        //                               └─ wal_append(5) shard 2
        vec![
            step(1, 0, "server/admit", None, "session 3"),
            step(2, 1, "server/verify", None, ""),
            step(3, 1, "server/group_commit", None, "batch=1"),
            step(4, 3, "server/wal_append", Some(0), "lsn 1"),
            step(5, 3, "server/wal_append", Some(2), "lsn 1"),
        ]
    }

    fn assembled(steps: Vec<TraceStep>) -> TraceAssembler {
        let mut asm = TraceAssembler::new();
        for e in steps {
            asm.push(e);
        }
        asm
    }

    #[test]
    fn assembles_one_tree_with_shard_attribution() {
        let asm = assembled(sample_steps());
        assert_eq!(asm.shards(), vec![0, 2]);
        let t = TraceId::derive(1);
        let json = asm.to_json(t);
        assert!(json.contains("\"shards\":[0,2]"), "{json}");
        // One root, and every other step nests inside it.
        assert_eq!(json.matches("\"parent\":0").count(), 1, "{json}");
        assert!(
            json.starts_with(&format!(
                "{{\"trace\":\"{t}\",\"shards\":[0,2],\"spans\":[{{\"span\":1,\"parent\":0,\
                 \"name\":\"server/admit\",\"detail\":\"session 3\",\"children\":[{{\"span\":2,"
            )),
            "{json}"
        );
        assert!(json.ends_with("]}]}]}]}"), "{json}");
        // Both wal_appends nest inside group_commit's children array,
        // each attributed to its shard.
        assert!(
            json.contains(
                "\"name\":\"server/group_commit\",\"detail\":\"batch=1\",\"children\":[\
                 {\"span\":4,\"parent\":3,\"name\":\"server/wal_append\",\"shard\":0,\
                 \"detail\":\"lsn 1\",\"children\":[]},\
                 {\"span\":5,\"parent\":3,\"name\":\"server/wal_append\",\"shard\":2,\
                 \"detail\":\"lsn 1\",\"children\":[]}]}"
            ),
            "{json}"
        );
    }

    #[test]
    fn assembly_is_order_insensitive() {
        let steps = sample_steps();
        let t = TraceId::derive(2);
        let reference = assembled(steps.clone()).to_json(t);
        // Every rotation and a couple of seeded shuffles must assemble
        // to byte-identical output.
        for rot in 0..steps.len() {
            let mut shuffled = steps.clone();
            shuffled.rotate_left(rot);
            assert_eq!(assembled(shuffled).to_json(t), reference, "rotation {rot}");
        }
        let mut shuffled = steps.clone();
        shuffled.swap(0, 4);
        shuffled.swap(1, 3);
        assert_eq!(assembled(shuffled).to_json(t), reference);
    }

    #[test]
    fn malformed_parents_terminate_and_keep_every_event() {
        let t = TraceId::derive(3);
        let steps = vec![
            step(1, 2, "a", None, ""),  // cycle with span 2
            step(2, 1, "b", None, ""),  // ...and back
            step(3, 3, "c", None, ""),  // self-parent
            step(4, 99, "d", None, ""), // dangling parent
        ];
        let json = assembled(steps).to_json(t);
        assert_eq!(json.matches("\"name\":").count(), 4, "{json}");
        for name in ["a", "b", "c", "d"] {
            assert!(json.contains(&format!("\"name\":\"{name}\"")), "{json}");
        }
    }

    #[test]
    fn hub_records_allocates_spans_and_evicts_fifo() {
        let hub = TraceHub::new(2, Observer::disabled());
        let t1 = TraceId::derive(1);
        let t2 = TraceId::derive(2);
        let t3 = TraceId::derive(3);
        let root = hub.record(t1, "server/admit", 0, None, || "s".into());
        assert_eq!(root, 1);
        let child = hub.record(t1, "server/verify", root, None, String::new);
        assert_eq!(child, 2);
        hub.record(t2, "server/admit", 0, None, String::new);
        assert!(hub.lookup(t1).is_some() && hub.lookup(t2).is_some());
        hub.record(t3, "server/admit", 0, None, String::new);
        assert!(hub.lookup(t1).is_none(), "oldest trace evicted");
        assert!(hub.lookup(t3).is_some());
        let asm = hub.assemble(t2).unwrap();
        assert_eq!(asm.len(), 1);
    }

    #[test]
    fn disabled_hub_skips_detail_construction() {
        let hub = TraceHub::new(0, Observer::disabled());
        let t = TraceId::derive(1);
        let span = hub.record(t, "x", 0, None, || panic!("must not build"));
        assert_eq!(span, 0);
        assert!(hub.lookup(t).is_none());
    }

    #[test]
    fn the_observer_receives_exactly_the_stored_steps() {
        let ring = RingSink::with_capacity(8);
        let hub = TraceHub::new(4, Observer::new(ring.clone()));
        let t = TraceId::derive(9);
        let admit = hub.record(t, "server/admit", 0, None, String::new);
        let gc = hub.record(t, "server/group_commit", admit, None, String::new);
        hub.record(t, "server/wal_append", gc, Some(1), || "lsn 7".into());
        let emitted: Vec<TraceStep> = ring
            .events()
            .into_iter()
            .map(|e| match e.kind {
                EventKind::Trace(step) => step,
                other => panic!("non-trace event {other:?}"),
            })
            .collect();
        assert_eq!(Some(emitted), hub.lookup(t));
        let line = ring.events()[2].to_json();
        assert!(
            line.ends_with(&format!(
                "\"ev\":\"trace\",\"trace\":\"{t}\",\"span\":3,\"parent\":2,\
                 \"name\":\"server/wal_append\",\"shard\":1,\"detail\":\"lsn 7\"}}"
            )),
            "{line}"
        );
        // A hub that stores nothing still emits, with span 0.
        let ring = RingSink::with_capacity(8);
        let hub = TraceHub::new(0, Observer::new(ring.clone()));
        assert_eq!(hub.record(t, "server/admit", 0, None, String::new), 0);
        assert_eq!(ring.events()[0].trace(), Some(t));
    }

    #[test]
    fn a_panicking_detail_leaves_the_hub_recording() {
        let hub = TraceHub::new(4, Observer::disabled());
        let t = TraceId::derive(5);
        let admit = hub.record(t, "server/admit", 0, None, String::new);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            hub.record(t, "server/verify", admit, None, || panic!("detail failed"))
        }));
        assert!(caught.is_err());
        let reply = hub.record(t, "server/reply", admit, None, || "lsn 1".into());
        assert_eq!(reply, 2, "the panicking step allocated no span");
        let names: Vec<&str> = hub.lookup(t).unwrap().iter().map(|s| s.name).collect();
        assert_eq!(names, ["server/admit", "server/reply"]);
        // Even a lock poisoned by a panic while held keeps serving.
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = hub.inner.lock();
            panic!("poison the hub");
        }));
        assert!(poisoned.is_err() && hub.inner.is_poisoned());
        assert_eq!(hub.record(t, "server/replay", 0, None, String::new), 3);
        assert_eq!(hub.lookup(t).unwrap().len(), 3);
    }
}
