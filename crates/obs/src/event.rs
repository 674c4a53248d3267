//! Events and the monotonic counter vocabulary.

use std::fmt;

use crate::json::escape;
use crate::trace::TraceId;

/// The fixed vocabulary of monotonic counters. A closed enum (rather
/// than arbitrary strings) keeps the hot-path increment a single indexed
/// atomic add and makes transcripts join-able across runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Counter {
    /// Engine nodes charged against the budget: state applications,
    /// signature compositions and reachability expansions.
    NodesExpanded,
    /// Valid states produced by closure enumeration.
    StatesEnumerated,
    /// States compiled to fact bases (interner hits and misses alike).
    StatesCompiled,
    /// Fact-base compilations answered from the interner cache.
    InternerHits,
    /// Fact-base compilations that had to run `to_facts`.
    InternerMisses,
    /// Behaviour signatures built (one per operation per check).
    SignaturesBuilt,
    /// Signatures produced while closing under composition.
    SignaturesComposed,
    /// States visited by per-state reachability searches.
    ReachabilityExpansions,
    /// §3.3.1 pairing checks performed (1-1 and onto verification).
    PairingChecks,
    /// Definition 6 grid cells (application-model pairs) examined.
    GridCells,
    /// Counterexample witnesses found.
    WitnessesFound,
    /// Scans cancelled early by a first counterexample.
    EarlyExits,
    /// Checks stopped by a blown node or wall-clock budget.
    BudgetTrips,
    /// Operations produced by operation enumeration.
    OpsEnumerated,
    /// Operations produced by the cross-model translators.
    OpsTranslated,
    /// ANSI/SPARC consistency audits run.
    AuditsRun,
    /// Sessions opened against the session service.
    SessionsOpened,
    /// Transactions committed by the session service.
    TxnsCommitted,
    /// Transactions aborted by the session service (failed operations).
    TxnsAborted,
    /// Optimistic-commit conflicts (each one triggers a client retry).
    TxnConflicts,
    /// Group-commit batches flushed through the write-ahead log (one
    /// device sync each, covering one or more transactions).
    GroupCommits,
    /// Write-ahead-log records appended (one per committed transaction).
    WalRecordsAppended,
    /// Checkpoints taken of the conceptual state.
    CheckpointsTaken,
    /// Write-ahead-log records replayed during crash recovery.
    WalRecordsReplayed,
    /// Frontier probes answered by the state arena (successor already
    /// interned; no new state constructed).
    ArenaHits,
    /// Frontier probes that interned a genuinely new state.
    ArenaMisses,
    /// Incremental re-checks answered from the session verdict cache
    /// (no closure work at all).
    VerdictCacheHits,
    /// Incremental re-checks that missed the verdict cache and ran the
    /// engine.
    VerdictCacheMisses,
    /// Session closure caches invalidated because the model's universe
    /// (name, initial state, constraints) changed between runs.
    CacheInvalidations,
    /// Memoized transition-column entries reused by an incremental
    /// re-expansion instead of re-applying the operation.
    TransitionsReused,
    /// Transition-column entries computed fresh by an incremental
    /// re-expansion (new operation, new state, or cold cache).
    TransitionsRecomputed,
    /// Engine runs whose §3.3.1 pairing was rebuilt from a session's
    /// harvested rank cache instead of recompiling every state.
    PairingsReused,
    /// Wire requests served to completion by the network front door
    /// (every decoded frame that got a response, including errors).
    RequestsServed,
    /// Wire requests shed by admission control (bounded queue full —
    /// answered with a typed `Overloaded` response, never enqueued).
    RequestsShed,
    /// Committed transactions whose write set spanned more than one
    /// shard (serialized through multi-shard WAL appends).
    CrossShardCommits,
    /// CNF clauses emitted by the symbolic tier's encoders (path
    /// unrollings, constraint encodings, blocking clauses).
    SymbolicClauses,
    /// Conflicts hit by the symbolic tier's CDCL core across all solver
    /// queries of a check.
    SymbolicConflicts,
    /// Symbolic checks that ran out of bound before reaching the
    /// closure fixpoint — "no verdict", never "equivalent".
    BoundExhausted,
    /// Restarts taken by the symbolic tier's CDCL core (backtrack to
    /// the root after a conflict-count threshold, phases preserved).
    SymbolicRestarts,
    /// `TraceLookup` admin queries answered from the trace hub
    /// (hits and misses alike).
    TraceLookups,
    /// Delta telemetry snapshots pushed to `WatchMetrics` subscribers
    /// over the wire.
    MetricsDeltasStreamed,
    /// Snapshot handles opened by sessions (each an O(1) LSN pin over
    /// the shared state, never a state clone).
    SnapshotOpens,
    /// MVCC versions reclaimed by checkpoint-time garbage collection
    /// (unobservable behind the oldest live snapshot pin).
    VersionsGcd,
    /// Bytes of checkpoint images appended (full and incremental).
    CheckpointBytes,
    /// Bytes of WAL record payloads folded during crash recovery.
    ReplayBytes,
}

impl Counter {
    /// Every counter, in declaration order (the order snapshot arrays
    /// are indexed in).
    pub const ALL: [Counter; 45] = [
        Counter::NodesExpanded,
        Counter::StatesEnumerated,
        Counter::StatesCompiled,
        Counter::InternerHits,
        Counter::InternerMisses,
        Counter::SignaturesBuilt,
        Counter::SignaturesComposed,
        Counter::ReachabilityExpansions,
        Counter::PairingChecks,
        Counter::GridCells,
        Counter::WitnessesFound,
        Counter::EarlyExits,
        Counter::BudgetTrips,
        Counter::OpsEnumerated,
        Counter::OpsTranslated,
        Counter::AuditsRun,
        Counter::SessionsOpened,
        Counter::TxnsCommitted,
        Counter::TxnsAborted,
        Counter::TxnConflicts,
        Counter::GroupCommits,
        Counter::WalRecordsAppended,
        Counter::CheckpointsTaken,
        Counter::WalRecordsReplayed,
        Counter::ArenaHits,
        Counter::ArenaMisses,
        Counter::VerdictCacheHits,
        Counter::VerdictCacheMisses,
        Counter::CacheInvalidations,
        Counter::TransitionsReused,
        Counter::TransitionsRecomputed,
        Counter::PairingsReused,
        Counter::RequestsServed,
        Counter::RequestsShed,
        Counter::CrossShardCommits,
        Counter::SymbolicClauses,
        Counter::SymbolicConflicts,
        Counter::BoundExhausted,
        Counter::SymbolicRestarts,
        Counter::TraceLookups,
        Counter::MetricsDeltasStreamed,
        Counter::SnapshotOpens,
        Counter::VersionsGcd,
        Counter::CheckpointBytes,
        Counter::ReplayBytes,
    ];

    /// Number of counters (the length of a snapshot array).
    pub const COUNT: usize = Self::ALL.len();

    /// The counter's stable snake_case name, used in transcripts and
    /// reports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::NodesExpanded => "nodes_expanded",
            Counter::StatesEnumerated => "states_enumerated",
            Counter::StatesCompiled => "states_compiled",
            Counter::InternerHits => "interner_hits",
            Counter::InternerMisses => "interner_misses",
            Counter::SignaturesBuilt => "signatures_built",
            Counter::SignaturesComposed => "signatures_composed",
            Counter::ReachabilityExpansions => "reachability_expansions",
            Counter::PairingChecks => "pairing_checks",
            Counter::GridCells => "grid_cells",
            Counter::WitnessesFound => "witnesses_found",
            Counter::EarlyExits => "early_exits",
            Counter::BudgetTrips => "budget_trips",
            Counter::OpsEnumerated => "ops_enumerated",
            Counter::OpsTranslated => "ops_translated",
            Counter::AuditsRun => "audits_run",
            Counter::SessionsOpened => "sessions_opened",
            Counter::TxnsCommitted => "txns_committed",
            Counter::TxnsAborted => "txns_aborted",
            Counter::TxnConflicts => "txn_conflicts",
            Counter::GroupCommits => "group_commits",
            Counter::WalRecordsAppended => "wal_records_appended",
            Counter::CheckpointsTaken => "checkpoints_taken",
            Counter::WalRecordsReplayed => "wal_records_replayed",
            Counter::ArenaHits => "arena_hits",
            Counter::ArenaMisses => "arena_misses",
            Counter::VerdictCacheHits => "verdict_cache_hits",
            Counter::VerdictCacheMisses => "verdict_cache_misses",
            Counter::CacheInvalidations => "cache_invalidations",
            Counter::TransitionsReused => "transitions_reused",
            Counter::TransitionsRecomputed => "transitions_recomputed",
            Counter::PairingsReused => "pairings_reused",
            Counter::RequestsServed => "requests_served",
            Counter::RequestsShed => "requests_shed",
            Counter::CrossShardCommits => "cross_shard_commits",
            Counter::SymbolicClauses => "symbolic_clauses",
            Counter::SymbolicConflicts => "symbolic_conflicts",
            Counter::BoundExhausted => "bound_exhausted",
            Counter::SymbolicRestarts => "symbolic_restarts",
            Counter::TraceLookups => "trace_lookups",
            Counter::MetricsDeltasStreamed => "metrics_deltas_streamed",
            Counter::SnapshotOpens => "snapshot_opens",
            Counter::VersionsGcd => "versions_gcd",
            Counter::CheckpointBytes => "checkpoint_bytes",
            Counter::ReplayBytes => "replay_bytes",
        }
    }

    /// The snapshot-array index of this counter.
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A phase began.
    SpanStart {
        /// Span id, unique within one observer.
        id: u64,
        /// The phase's stable name (e.g. `par/closure`).
        name: &'static str,
        /// Free-form detail (a model name, a tier, …). Empty when the
        /// caller had nothing to add.
        detail: String,
    },
    /// A phase ended.
    SpanEnd {
        /// The matching [`EventKind::SpanStart`] id.
        id: u64,
        /// The phase's stable name.
        name: &'static str,
        /// Wall-clock spent inside the span, in microseconds.
        elapsed_micros: u64,
        /// Counter deltas attributed to this span: counters whose value
        /// grew while the span was open, with the growth. Sorted by
        /// counter declaration order; zero deltas are omitted.
        counters: Vec<(Counter, u64)>,
    },
    /// A one-off point annotation (a verdict size, a cache statistic).
    Mark {
        /// The mark's stable name.
        name: &'static str,
        /// The value observed.
        value: u64,
    },
    /// A point on one request's causal path, tagged with its
    /// [`TraceId`]. Grepping a transcript for the 16-hex-digit id
    /// reconstructs the request's journey through the service.
    Trace {
        /// The step's stable name (e.g. `server/admit`).
        name: &'static str,
        /// The request's trace id.
        trace: TraceId,
        /// This step's span id within the trace (`0` when the emitter
        /// did not assign one — legacy flat trace points).
        span: u64,
        /// The parent step's span id (`0` for a root step or a flat
        /// trace point). Parent links let a `TraceAssembler` stitch one
        /// cross-shard transaction back into a single causal tree.
        parent: u64,
        /// Free-form detail (a tier name, an LSN, …). Empty when the
        /// caller had nothing to add.
        detail: String,
    },
}

/// One observed event: a sequence number, a monotonic timestamp (µs
/// since the observer was created) and the payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number within one observer, starting at 0.
    pub seq: u64,
    /// Microseconds since the observer was created.
    pub at_micros: u64,
    /// The payload.
    pub kind: EventKind,
}

impl Event {
    /// Renders the event as one JSON object (no trailing newline) — the
    /// line format of [`crate::JsonLinesSink`].
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"seq\":{},\"at_us\":{},", self.seq, self.at_micros);
        match &self.kind {
            EventKind::SpanStart { id, name, detail } => {
                out.push_str(&format!(
                    "\"ev\":\"span_start\",\"id\":{id},\"name\":\"{}\"",
                    escape(name)
                ));
                if !detail.is_empty() {
                    out.push_str(&format!(",\"detail\":\"{}\"", escape(detail)));
                }
            }
            EventKind::SpanEnd {
                id,
                name,
                elapsed_micros,
                counters,
            } => {
                out.push_str(&format!(
                    "\"ev\":\"span_end\",\"id\":{id},\"name\":\"{}\",\"elapsed_us\":{elapsed_micros}",
                    escape(name)
                ));
                if !counters.is_empty() {
                    out.push_str(",\"counters\":{");
                    for (i, (c, v)) in counters.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!("\"{}\":{v}", c.name()));
                    }
                    out.push('}');
                }
            }
            EventKind::Mark { name, value } => {
                out.push_str(&format!(
                    "\"ev\":\"mark\",\"name\":\"{}\",\"value\":{value}",
                    escape(name)
                ));
            }
            EventKind::Trace {
                name,
                trace,
                span,
                parent,
                detail,
            } => {
                out.push_str(&crate::trace::trace_json(name, *trace, *span, *parent, detail));
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_names_are_unique_and_indexed() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::COUNT);
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert_eq!(Counter::NodesExpanded.to_string(), "nodes_expanded");
    }

    #[test]
    fn json_lines_render() {
        let e = Event {
            seq: 1,
            at_micros: 5,
            kind: EventKind::SpanStart {
                id: 7,
                name: "par/closure",
                detail: "model \"m\"".into(),
            },
        };
        assert_eq!(
            e.to_json(),
            "{\"seq\":1,\"at_us\":5,\"ev\":\"span_start\",\"id\":7,\"name\":\"par/closure\",\"detail\":\"model \\\"m\\\"\"}"
        );
        let e = Event {
            seq: 2,
            at_micros: 9,
            kind: EventKind::SpanEnd {
                id: 7,
                name: "par/closure",
                elapsed_micros: 4,
                counters: vec![(Counter::NodesExpanded, 10)],
            },
        };
        assert!(e.to_json().contains("\"counters\":{\"nodes_expanded\":10}"));
        let e = Event {
            seq: 3,
            at_micros: 11,
            kind: EventKind::Mark {
                name: "witnesses",
                value: 2,
            },
        };
        assert!(e.to_json().contains("\"ev\":\"mark\""));
    }
}
