#![deny(missing_docs)]

//! # dme-server — the concurrent multi-model session service
//!
//! The conclusion of *Data Model Equivalence* claims operation
//! equivalence "would actually allow the implementation of a database
//! system which provides users of two different data models with access
//! to the same data". This crate is that database system, grown from
//! the sequential machinery of the other crates:
//!
//! * **Sessions** ([`Session`], [`SessionKind`]) — N concurrent
//!   clients, some speaking conceptual graph operations, some speaking
//!   relational operations against external views (including §1.2
//!   *subset* schemas), all updating one conceptual database.
//! * **Transactions** ([`SessionService`]) — snapshot reads, optimistic
//!   base-version conflict detection for relational sessions, and
//!   serialized, *batched* commits routed by write-set hash to
//!   per-shard commit lanes ([`crate::shard`]): each lane's leader
//!   drains a batch that shares one WAL append + sync per involved
//!   shard (group commit, [`CommitMode`]), and different lanes' syncs
//!   overlap.
//! * **Admission control** — every lane's queue is bounded
//!   ([`ServiceConfig::queue_depth`]); a submit that finds its home
//!   lane full is *shed* with a typed [`CommitOutcome::Shed`] /
//!   [`wire::Response::Overloaded`] instead of queuing unboundedly.
//! * **Durability** ([`device`], [`codec`]) — write-ahead journaling of
//!   conceptual deltas with appended checkpoints; the durable state is
//!   *only* the checkpoint + logs ([`DurableImage`]), and commits are
//!   acknowledged strictly after their record is synced on every shard
//!   they touch.
//! * **Recovery** ([`SessionService::recover_sharded`]) — merge the
//!   shard logs by LSN (cross-shard frames dedupe), replay to the last
//!   committed transaction, truncating torn tails; aborted transactions
//!   never reach the log and so can never be resurrected.
//! * **The wire front door** ([`wire`], [`net`]) — a single versioned
//!   [`wire::Request`]/[`wire::Response`] enum pair speaking the WAL's
//!   CRC framing end-to-end, served over an in-process duplex transport
//!   by per-shard dispatcher pools with typed overload shedding, and
//!   consumed through a typed [`net::Client`].
//! * **Observability** — every commit lane owns its own metric
//!   registry ([`SessionService::shard_metrics`]) merged and
//!   `shard`-labelled by the exporters; every transaction's causal path
//!   (admit → verify → group commit → per-shard WAL append → reply) is
//!   recorded, one `TraceStep` per step, in a bounded trace hub
//!   ([`SessionService::trace_hub`]) that emits each step to the
//!   service's observer as it stores it, so the transcript and the
//!   hub's cross-shard span tree hold the same steps; the spans are
//!   stamped into the WAL frames and the tree is served back over the
//!   wire via `AdminRequest::TraceLookup`; and
//!   `AdminRequest::WatchMetrics` streams periodic telemetry deltas as
//!   server-push [`wire::Response::MetricsDelta`] frames
//!   ([`Client::watch_metrics`]).
//! * **Verification** — with `lockstep-verify` (compile feature or
//!   [`ServiceConfig::lockstep_verify`]) every commit re-checks
//!   Definition 2 between the conceptual state and every external view,
//!   within each view's vocabulary.

pub mod codec;
pub mod device;
pub mod error;
pub mod net;
pub mod service;
pub mod session;
pub mod shard;
pub mod wire;

pub use codec::AdminRequest;
pub use device::{DeviceError, LogDevice, MemDevice, WriteBudget};
pub use error::ServerError;
pub use net::{Client, MetricsWatch, NetServer, RemoteSession};
pub use service::{
    CommitInfo, CommitMode, CommitOutcome, CommittedTxn, DurableImage, RecoveryReport,
    ServiceConfig, ServiceConfigBuilder, SessionService, ViewSpec,
};
pub use session::{Session, SessionKind};

#[cfg(test)]
mod tests {
    use super::*;
    use dme_core::translate::CompletionMode;
    use dme_graph::fixtures as gfix;
    use dme_graph::{Association, EntityRef, GraphOp};
    use dme_relation::fixtures as rfix;
    use dme_relation::RelOp;
    use dme_value::{tuple, Atom, Value};
    use std::sync::Arc;
    use std::time::Duration;

    fn shop_views() -> Vec<ViewSpec> {
        vec![
            ViewSpec {
                name: "shop".into(),
                schema: rfix::machine_shop_schema(),
                mode: CompletionMode::StateCompleted,
            },
            ViewSpec {
                name: "personnel".into(),
                schema: rfix::personnel_schema(),
                mode: CompletionMode::Minimal,
            },
        ]
    }

    fn boot(config: ServiceConfig) -> SessionService {
        SessionService::new(
            gfix::figure4_state(),
            shop_views(),
            config,
            Box::new(MemDevice::new()),
            Box::new(MemDevice::new()),
        )
        .unwrap()
    }

    fn supervise(agent: &str, object: &str) -> GraphOp {
        GraphOp::InsertAssociation(Association::new(
            "supervise",
            [
                ("agent", EntityRef::new("employee", Atom::str(agent))),
                ("object", EntityRef::new("employee", Atom::str(object))),
            ],
        ))
    }

    #[test]
    fn graph_session_commit_updates_every_view() {
        let service = boot(ServiceConfig {
            lockstep_verify: true,
            ..ServiceConfig::default()
        });
        let mut s = service.open_session(SessionKind::Graph).unwrap();
        let info = s
            .submit_graph(vec![supervise("G.Wayshum", "T.Manhart")])
            .unwrap()
            .expect_commit();
        assert_eq!((info.lsn, info.version, info.attempts), (1, 1, 1));
        assert_eq!(*service.conceptual(), gfix::figure6_state());
        assert_eq!(service.view_state("shop").unwrap(), rfix::figure7_state());
        // The subset view sees the new supervision too.
        let personnel = service.view_state("personnel").unwrap();
        assert!(personnel
            .relation("Supervisions")
            .unwrap()
            .contains(&tuple!["G.Wayshum", "T.Manhart"]));
        s.close().unwrap();
        assert_eq!(service.open_sessions(), 0);
    }

    #[test]
    fn relational_session_round_trips_through_conceptual() {
        let service = boot(ServiceConfig::default());
        let mut s = service
            .open_session(SessionKind::Relational {
                view: "shop".into(),
            })
            .unwrap();
        let op = RelOp::insert("Jobs", [tuple!["G.Wayshum", "T.Manhart", Value::Null]]);
        let outcome = s.submit_relational(&op).unwrap();
        assert!(matches!(outcome, CommitOutcome::Committed(_)));
        assert_eq!(outcome.expect_commit().attempts, 1);
        assert_eq!(*service.conceptual(), gfix::figure6_state());
        assert_eq!(s.relational_state().unwrap(), &rfix::figure7_state());
        s.close().unwrap();
    }

    #[test]
    fn aborted_transactions_leave_no_trace() {
        let service = boot(ServiceConfig::default());
        let mut s = service.open_session(SessionKind::Graph).unwrap();
        let op = supervise("G.Wayshum", "T.Manhart");
        s.submit_graph(vec![op.clone()]).unwrap();
        let image_before = service.durable_image();
        // The same insert again no longer applies: abort.
        let err = s.submit_graph(vec![op]).unwrap_err();
        assert!(matches!(err, ServerError::Aborted(_)));
        assert_eq!(service.durable_image(), image_before);
        assert_eq!(service.committed_history().len(), 1);
        assert_eq!(*service.conceptual(), gfix::figure6_state());
    }

    #[test]
    fn stale_relational_snapshot_conflicts_then_retries() {
        let service = boot(ServiceConfig::default());
        let mut rel = service
            .open_session(SessionKind::Relational {
                view: "personnel".into(),
            })
            .unwrap();
        let mut graph = service.open_session(SessionKind::Graph).unwrap();
        // The graph session commits while the relational snapshot is out.
        graph
            .submit_graph(vec![supervise("G.Wayshum", "T.Manhart")])
            .unwrap();
        // The relational session's first attempt conflicts (stale base
        // version), rebases and succeeds on retry — reported as a
        // Retried outcome.
        let op = RelOp::insert("Supervisions", [tuple!["T.Manhart", "C.Gershag"]]);
        let outcome = rel.submit_relational(&op).unwrap();
        match outcome {
            CommitOutcome::Retried { info, retries } => {
                assert!(retries >= 1);
                assert_eq!(info.attempts, retries + 1);
            }
            other => panic!("expected a conflict retry, got {other:?}"),
        }
        assert_eq!(service.version(), 2);
        let personnel = service.view_state("personnel").unwrap();
        assert!(personnel
            .relation("Supervisions")
            .unwrap()
            .contains(&tuple!["T.Manhart", "C.Gershag"]));
    }

    #[test]
    fn recovery_replays_to_last_committed_txn() {
        let service = boot(ServiceConfig::default());
        let mut s = service.open_session(SessionKind::Graph).unwrap();
        s.submit_graph(vec![supervise("G.Wayshum", "T.Manhart")])
            .unwrap();
        s.submit_graph(vec![supervise("T.Manhart", "C.Gershag")])
            .unwrap();
        let expected = service.conceptual();
        let image = service.durable_image();
        let schema = Arc::clone(expected.schema());
        let (recovered, report) = SessionService::recover(
            schema,
            &image,
            shop_views(),
            ServiceConfig::default(),
            Box::new(MemDevice::new()),
            Box::new(MemDevice::new()),
        )
        .unwrap();
        assert_eq!(report.checkpoint_lsn, 0);
        assert_eq!(report.replayed, 2);
        assert!(report.wal_tail.is_none());
        assert_eq!(recovered.conceptual(), expected);
        assert_eq!(recovered.view_state("shop"), service.view_state("shop"));
    }

    #[test]
    fn recovery_truncates_a_torn_wal_tail() {
        let service = boot(ServiceConfig::default());
        let mut s = service.open_session(SessionKind::Graph).unwrap();
        s.submit_graph(vec![supervise("G.Wayshum", "T.Manhart")])
            .unwrap();
        let after_first = service.conceptual();
        let cut_at = service.durable_image().wal.len();
        s.submit_graph(vec![supervise("T.Manhart", "C.Gershag")])
            .unwrap();
        let mut image = service.durable_image();
        image.wal.truncate(cut_at + 5); // tear the second record
        let schema = Arc::clone(after_first.schema());
        let (recovered, report) = SessionService::recover(
            schema,
            &image,
            shop_views(),
            ServiceConfig::default(),
            Box::new(MemDevice::new()),
            Box::new(MemDevice::new()),
        )
        .unwrap();
        assert_eq!(report.replayed, 1);
        assert!(report.wal_tail.is_some());
        assert_eq!(recovered.conceptual(), after_first);
    }

    #[test]
    fn wal_device_failure_crashes_the_service_without_acknowledging() {
        let service = SessionService::new(
            gfix::figure4_state(),
            vec![],
            ServiceConfig::default(),
            Box::new(MemDevice::new().with_crash_at(10)),
            Box::new(MemDevice::new()),
        )
        .unwrap();
        let mut s = service.open_session(SessionKind::Graph).unwrap();
        let err = s
            .submit_graph(vec![supervise("G.Wayshum", "T.Manhart")])
            .unwrap_err();
        assert!(matches!(err, ServerError::Crashed(_)));
        // The service refuses everything afterwards.
        assert!(matches!(
            service.open_session(SessionKind::Graph),
            Err(ServerError::Crashed(_))
        ));
        assert!(matches!(
            service.checkpoint_now(),
            Err(ServerError::Crashed(_))
        ));
    }

    #[test]
    fn checkpoints_bound_replay_work() {
        let service = boot(ServiceConfig {
            checkpoint_every: 2,
            ..ServiceConfig::default()
        });
        let mut s = service.open_session(SessionKind::Graph).unwrap();
        for (a, o) in [
            ("G.Wayshum", "T.Manhart"),
            ("T.Manhart", "C.Gershag"),
            ("C.Gershag", "T.Manhart"),
        ] {
            s.submit_graph(vec![supervise(a, o)]).unwrap();
        }
        let image = service.durable_image();
        let expected = service.conceptual();
        let (recovered, report) = SessionService::recover(
            Arc::clone(expected.schema()),
            &image,
            shop_views(),
            ServiceConfig::default(),
            Box::new(MemDevice::new()),
            Box::new(MemDevice::new()),
        )
        .unwrap();
        // Checkpoint at lsn 2 absorbs the first two commits: only the
        // third replays.
        assert_eq!(report.checkpoint_lsn, 2);
        assert_eq!(report.replayed, 1);
        assert_eq!(recovered.conceptual(), expected);
    }

    #[test]
    fn unknown_view_and_kind_mismatches_are_errors() {
        let service = boot(ServiceConfig::default());
        assert!(matches!(
            service.open_session(SessionKind::Relational {
                view: "nope".into()
            }),
            Err(ServerError::UnknownView(_))
        ));
        let mut g = service.open_session(SessionKind::Graph).unwrap();
        assert!(g
            .submit_relational(&RelOp::insert("Jobs", [tuple![Value::Null]]))
            .is_err());
        let mut r = service
            .open_session(SessionKind::Relational {
                view: "shop".into(),
            })
            .unwrap();
        assert!(r.submit_graph(vec![]).is_err());
        assert!(r.relational_state().is_ok());
        assert!(g.relational_state().is_err());
        assert_eq!(service.view_names(), vec!["personnel", "shop"]);
    }

    #[test]
    fn config_builder_validates_the_knobs() {
        let config = ServiceConfig::builder()
            .shards(4)
            .queue_depth(128)
            .max_batch(16)
            .commit_mode(CommitMode::Group)
            .checkpoint_every(10)
            .lockstep_verify(false)
            .max_attempts(3)
            .backoff_micros(5)
            .build()
            .unwrap();
        assert_eq!(
            (config.shards, config.queue_depth, config.max_batch),
            (4, 128, 16)
        );
        for broken in [
            ServiceConfig::builder().shards(0).build(),
            ServiceConfig::builder().shards(100_000).build(),
            ServiceConfig::builder().queue_depth(0).build(),
            ServiceConfig::builder().max_batch(0).build(),
            ServiceConfig::builder().max_attempts(0).build(),
        ] {
            match broken {
                Err(e @ ServerError::InvalidConfig(_)) => assert_eq!(e.code(), 9),
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
        // Constructors validate too: a mismatched device count is typed.
        let err = SessionService::new_sharded(
            gfix::figure4_state(),
            vec![],
            ServiceConfig::builder().shards(2).build().unwrap(),
            vec![Box::new(MemDevice::new())],
            Box::new(MemDevice::new()),
        )
        .unwrap_err();
        assert!(matches!(err, ServerError::InvalidConfig(_)));
    }

    #[test]
    fn sharded_service_commits_across_lanes_and_recovers() {
        use crossbeam::scope;
        let config = ServiceConfig::builder().shards(4).build().unwrap();
        let service = SessionService::new_sharded(
            gfix::figure4_state(),
            shop_views(),
            config,
            (0..4)
                .map(|_| Box::new(MemDevice::new()) as Box<dyn LogDevice>)
                .collect(),
            Box::new(MemDevice::new()),
        )
        .unwrap();
        let pairs = [
            ("G.Wayshum", "T.Manhart"),
            ("T.Manhart", "C.Gershag"),
            ("C.Gershag", "T.Manhart"),
            ("T.Manhart", "G.Wayshum"),
        ];
        scope(|sc| {
            for (a, o) in pairs {
                let service = service.clone();
                sc.spawn(move |_| {
                    let mut s = service.open_session(SessionKind::Graph).unwrap();
                    s.submit_graph(vec![supervise(a, o)])
                        .unwrap()
                        .expect_commit();
                });
            }
        })
        .unwrap();
        let history = service.committed_history();
        assert_eq!(history.len(), 4);
        let lsns: Vec<u64> = history.iter().map(|t| t.lsn).collect();
        assert!(
            lsns.windows(2).all(|w| w[0] < w[1]),
            "history sorted: {lsns:?}"
        );
        // Every committed frame is on some shard's log; supervise
        // associations touch two employees, so cross-shard frames are
        // journaled on each involved shard and recovery dedupes them.
        let image = service.durable_image();
        assert_eq!(image.shard_wals.len(), 3);
        let expected = service.conceptual();
        let (recovered, report) = SessionService::recover_sharded(
            Arc::clone(expected.schema()),
            &image,
            shop_views(),
            ServiceConfig::builder().shards(4).build().unwrap(),
            (0..4)
                .map(|_| Box::new(MemDevice::new()) as Box<dyn LogDevice>)
                .collect(),
            Box::new(MemDevice::new()),
        )
        .unwrap();
        assert_eq!(report.replayed, 4);
        assert_eq!(recovered.conceptual(), expected);
        assert_eq!(recovered.view_state("shop"), service.view_state("shop"));
    }

    #[test]
    fn full_lanes_shed_with_a_typed_outcome() {
        // One-slot queue and a slow sync: the first submit becomes the
        // lane leader and parks in the sync, the second occupies the
        // only queue slot, the third is refused at admission.
        let config = ServiceConfig::builder().queue_depth(1).build().unwrap();
        let service = SessionService::new(
            gfix::figure4_state(),
            vec![],
            config,
            Box::new(MemDevice::new().with_sync_delay(Duration::from_millis(200))),
            Box::new(MemDevice::new()),
        )
        .unwrap();
        // new() checkpoints to the checkpoint device, so only commit
        // syncs pay the delay.
        let outcome = crossbeam::scope(|sc| {
            let leader = {
                let service = service.clone();
                sc.spawn(move |_| {
                    let mut s = service.open_session(SessionKind::Graph).unwrap();
                    s.submit_graph(vec![supervise("G.Wayshum", "T.Manhart")])
                        .unwrap()
                })
            };
            std::thread::sleep(Duration::from_millis(50));
            let queued = {
                let service = service.clone();
                sc.spawn(move |_| {
                    let mut s = service.open_session(SessionKind::Graph).unwrap();
                    s.submit_graph(vec![supervise("T.Manhart", "C.Gershag")])
                        .unwrap()
                })
            };
            std::thread::sleep(Duration::from_millis(50));
            let mut s = service.open_session(SessionKind::Graph).unwrap();
            let shed = s
                .submit_graph(vec![supervise("C.Gershag", "G.Wayshum")])
                .unwrap();
            leader.join().unwrap().expect_commit();
            queued.join().unwrap().expect_commit();
            shed
        })
        .unwrap();
        match outcome {
            CommitOutcome::Shed { shard: 0, depth } => assert!(depth >= 1),
            other => panic!("expected Shed, got {other:?}"),
        }
        // Nothing of the shed transaction reached the log.
        assert_eq!(service.committed_history().len(), 2);
    }

    #[test]
    fn the_wire_front_door_serves_sessions_by_id() {
        let service = boot(ServiceConfig::default());
        let opened = service.handle(wire::Request::OpenSession {
            kind: SessionKind::Graph,
        });
        let id = match opened {
            wire::Response::SessionOpened { session } => session,
            other => panic!("expected SessionOpened, got {other:?}"),
        };
        let committed = service.handle(wire::Request::SubmitGraph {
            session: id,
            ops: vec![supervise("G.Wayshum", "T.Manhart")],
        });
        match committed {
            wire::Response::Committed(info) => assert_eq!(info.lsn, 1),
            other => panic!("expected Committed, got {other:?}"),
        }
        // The view read returns the same tuples the embedded API sees.
        match service.handle(wire::Request::ViewState {
            view: "shop".into(),
        }) {
            wire::Response::ViewState { relations } => {
                let jobs = relations.iter().find(|(n, _)| n == "Jobs").unwrap();
                assert!(!jobs.1.is_empty());
            }
            other => panic!("expected ViewState, got {other:?}"),
        }
        // Metrics render through the typed door, and the legacy admin
        // envelope tunnels to the same renderer.
        match service.handle(wire::Request::Metrics { json: false }) {
            wire::Response::Metrics { body } => assert!(body.contains("dme_counter")),
            other => panic!("expected Metrics, got {other:?}"),
        }
        match service.handle(wire::Request::Admin {
            body: AdminRequest::MetricsJson.encode(),
        }) {
            wire::Response::Admin { body } => assert!(body.starts_with('{')),
            other => panic!("expected Admin, got {other:?}"),
        }
        assert!(matches!(
            service.handle(wire::Request::Admin { body: vec![0xFF] }),
            wire::Response::Error { .. }
        ));
        // Close, then the id is gone.
        assert_eq!(
            service.handle(wire::Request::Close { session: id }),
            wire::Response::Closed
        );
        match service.handle(wire::Request::Refresh { session: id }) {
            wire::Response::Error { code, .. } => {
                assert_eq!(code, ServerError::UnknownSession(id).code())
            }
            other => panic!("expected UnknownSession, got {other:?}"),
        }
    }

    #[test]
    fn commits_are_traced_end_to_end_and_metrics_render_over_the_wire() {
        let ring = dme_obs::RingSink::with_capacity(256);
        let service = boot(ServiceConfig {
            obs: dme_obs::Observer::new(ring.clone()),
            ..ServiceConfig::default()
        });
        let mut s = service.open_session(SessionKind::Graph).unwrap();
        let info = s
            .submit_graph(vec![supervise("G.Wayshum", "T.Manhart")])
            .unwrap()
            .expect_commit();
        assert_ne!(info.trace.as_u64(), 0);
        // The WAL frame is stamped with the commit's trace id.
        let image = service.durable_image();
        let records = dme_storage::wal::replay(&image.wal).unwrap();
        assert_eq!(records[0].trace, Some(info.trace.as_u64()));
        // The transcript shows the commit's causal path, in order.
        let path: Vec<&str> = ring
            .events()
            .iter()
            .filter(|e| e.trace() == Some(info.trace))
            .map(|e| match &e.kind {
                dme_obs::EventKind::Trace(step) => step.name,
                other => panic!("non-trace event carried a trace: {other:?}"),
            })
            .collect();
        assert_eq!(
            path,
            vec![
                "server/admit",
                "server/verify",
                "server/group_commit",
                "server/wal_append",
                "server/reply"
            ]
        );
        // Both renderings are served through the typed front door.
        let text = match service.handle(wire::Request::Metrics { json: false }) {
            wire::Response::Metrics { body } => body,
            other => panic!("expected Metrics, got {other:?}"),
        };
        assert!(
            text.contains("dme_counter{name=\"txns_committed\"} 1"),
            "{text}"
        );
        assert!(text.contains("dme_latency_us_count{metric=\"commit_latency_us\"} 1"));
        let json = match service.handle(wire::Request::Metrics { json: true }) {
            wire::Response::Metrics { body } => body,
            other => panic!("expected Metrics, got {other:?}"),
        };
        assert!(json.contains("\"commit_latency_us\""), "{json}");
    }

    #[test]
    fn group_commit_syncs_less_than_per_op() {
        use crossbeam::scope;
        for (mode, name) in [(CommitMode::Group, "group"), (CommitMode::PerOp, "per-op")] {
            let service = boot(ServiceConfig {
                commit_mode: mode,
                ..ServiceConfig::default()
            });
            let pairs = [
                ("G.Wayshum", "T.Manhart"),
                ("T.Manhart", "C.Gershag"),
                ("C.Gershag", "T.Manhart"),
                ("T.Manhart", "G.Wayshum"),
            ];
            scope(|sc| {
                for (a, o) in pairs {
                    let service = service.clone();
                    sc.spawn(move |_| {
                        let mut s = service.open_session(SessionKind::Graph).unwrap();
                        s.submit_graph(vec![supervise(a, o)]).unwrap();
                    });
                }
            })
            .unwrap();
            assert_eq!(service.committed_history().len(), 4, "{name}");
            assert!(
                service.wal_syncs() <= 4,
                "{name}: {} syncs",
                service.wal_syncs()
            );
            // Recovery agrees regardless of batching.
            let expected = service.conceptual();
            let (recovered, _) = SessionService::recover(
                Arc::clone(expected.schema()),
                &service.durable_image(),
                shop_views(),
                ServiceConfig::default(),
                Box::new(MemDevice::new()),
                Box::new(MemDevice::new()),
            )
            .unwrap();
            assert_eq!(recovered.conceptual(), expected);
        }
    }
}
