//! Client sessions: the per-user face of the service.
//!
//! A **graph session** speaks the conceptual model directly and submits
//! conceptual operations as transactions. A **relational session** is
//! bound to one external view; it reads a snapshot of that view,
//! translates its relational operations up to conceptual operations
//! against the snapshot, and submits them with the snapshot's base
//! version attached — if another transaction committed first, the
//! service refuses the commit and the session rebases onto a fresh
//! snapshot and retries with exponential backoff.

use std::time::Duration;

use dme_ansi::ViewSession;
use dme_graph::{GraphOp, GraphState};
use dme_relation::{RelOp, RelationState};

use crate::error::ServerError;
use crate::service::{CommitInfo, CommitOutcome, Outcome, SessionService};

/// Which model a session speaks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionKind {
    /// The conceptual graph model.
    Graph,
    /// A relational external view, by name.
    Relational {
        /// The external view this session is bound to.
        view: String,
    },
}

/// One client session. Not `Clone`: a session is a single client's
/// serial stream of operations (run sessions on separate threads for
/// concurrency).
pub struct Session {
    service: SessionService,
    id: u64,
    kind: SessionKind,
    /// Relational sessions: the snapshot handle and its base version.
    snapshot: Option<(ViewSession, u64)>,
    closed: bool,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Session({}, {:?})", self.id, self.kind)
    }
}

impl Session {
    pub(crate) fn new(
        service: SessionService,
        id: u64,
        kind: SessionKind,
        snapshot: Option<(ViewSession, u64)>,
    ) -> Self {
        Session {
            service,
            id,
            kind,
            snapshot,
            closed: false,
        }
    }

    /// The session's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Which model the session speaks.
    pub fn kind(&self) -> &SessionKind {
        &self.kind
    }

    fn ensure_open(&self) -> Result<(), ServerError> {
        if self.closed {
            Err(ServerError::SessionClosed)
        } else {
            Ok(())
        }
    }

    /// Submits conceptual operations as one transaction (graph sessions
    /// only). `Ok` does not always mean committed: under load the home
    /// commit lane may refuse admission, yielding
    /// [`CommitOutcome::Shed`] — typed backpressure the client decides
    /// how to absorb.
    pub fn submit_graph(&mut self, gops: Vec<GraphOp>) -> Result<CommitOutcome, ServerError> {
        self.ensure_open()?;
        if self.kind != SessionKind::Graph {
            return Err(ServerError::Translate(
                "relational sessions submit relational operations".into(),
            ));
        }
        let hub = std::sync::Arc::clone(&self.service.shared.trace_hub);
        let trace = self.service.next_trace();
        let session_id = self.id;
        let ops = gops.len();
        // The admit step is the transaction's root span; everything the
        // commit pipeline records downstream hangs off it.
        let admit = hub.record(trace, "server/admit", 0, None, || {
            format!("session {session_id} model=graph ops={ops}")
        });
        match self.service.submit(gops, None, trace, admit) {
            Outcome::Committed { lsn, version } => {
                hub.record(trace, "server/reply", admit, None, || {
                    format!("lsn {lsn} version {version}")
                });
                Ok(CommitOutcome::Committed(CommitInfo {
                    lsn,
                    version,
                    attempts: 1,
                    trace,
                }))
            }
            Outcome::Shed { shard, depth } => Ok(CommitOutcome::Shed { shard, depth }),
            Outcome::Aborted(why) => Err(ServerError::Aborted(why)),
            Outcome::Conflict => unreachable!("graph commits carry no base version"),
            Outcome::Lockstep(view) => Err(ServerError::LockstepDiverged { view }),
            Outcome::Crashed(why) => Err(ServerError::Crashed(why)),
        }
    }

    /// Submits one relational operation as a transaction (relational
    /// sessions only): translate against the snapshot, commit with the
    /// snapshot's base version, and on conflict rebase + retry with
    /// exponential backoff up to the configured attempt budget. A
    /// commit that needed retries reports them via
    /// [`CommitOutcome::Retried`]; an overloaded commit lane yields
    /// [`CommitOutcome::Shed`] immediately (shedding is backpressure,
    /// not a conflict — the retry loop does not spin on it).
    pub fn submit_relational(&mut self, op: &RelOp) -> Result<CommitOutcome, ServerError> {
        self.ensure_open()?;
        let view_name = match &self.kind {
            SessionKind::Relational { view } => view.clone(),
            SessionKind::Graph => {
                return Err(ServerError::Translate(
                    "graph sessions submit conceptual operations".into(),
                ))
            }
        };
        let config = &self.service.shared.config;
        let obs = config.obs.clone();
        let hub = std::sync::Arc::clone(&self.service.shared.trace_hub);
        let max_attempts = config.max_attempts.max(1);
        let backoff_micros = config.backoff_micros;
        let trace = self.service.next_trace();
        let session_id = self.id;
        let admit = hub.record(trace, "server/admit", 0, None, || {
            format!("session {session_id} model=relational view={view_name}")
        });
        for attempt in 1..=max_attempts {
            let (handle, base_version) = self
                .snapshot
                .as_ref()
                .expect("relational sessions hold a snapshot");
            let gops = {
                let _span = obs.span("server/translate");
                let _timer = obs.time(dme_obs::Metric::TranslateLatency);
                let gops = handle.translate_up(op)?;
                let n = gops.len();
                hub.record(trace, "server/translate", admit, None, || {
                    format!("attempt {attempt} gops={n}")
                });
                gops
            };
            match self.service.submit(gops, Some(*base_version), trace, admit) {
                Outcome::Committed { lsn, version } => {
                    hub.record(trace, "server/reply", admit, None, || {
                        format!("lsn {lsn} version {version}")
                    });
                    // The snapshot is stale by exactly this commit (and
                    // possibly batch-mates): rebase onto the new state.
                    self.rebase(&view_name)?;
                    let info = CommitInfo {
                        lsn,
                        version,
                        attempts: attempt,
                        trace,
                    };
                    return Ok(if attempt == 1 {
                        CommitOutcome::Committed(info)
                    } else {
                        CommitOutcome::Retried {
                            info,
                            retries: attempt - 1,
                        }
                    });
                }
                Outcome::Shed { shard, depth } => return Ok(CommitOutcome::Shed { shard, depth }),
                Outcome::Conflict => {
                    if attempt < max_attempts && backoff_micros > 0 {
                        std::thread::sleep(Duration::from_micros(
                            backoff_micros << (attempt - 1).min(10),
                        ));
                    }
                    self.rebase(&view_name)?;
                }
                Outcome::Aborted(why) => return Err(ServerError::Aborted(why)),
                Outcome::Lockstep(view) => return Err(ServerError::LockstepDiverged { view }),
                Outcome::Crashed(why) => return Err(ServerError::Crashed(why)),
            }
        }
        Err(ServerError::Conflict {
            attempts: max_attempts,
        })
    }

    fn rebase(&mut self, view: &str) -> Result<(), ServerError> {
        self.snapshot = Some(self.service.snapshot_for(view)?);
        Ok(())
    }

    /// Snapshot read of the session's relational view (relational
    /// sessions only). Reads see the snapshot, not in-flight commits;
    /// [`Session::refresh`] advances it.
    pub fn relational_state(&self) -> Result<&RelationState, ServerError> {
        self.ensure_open()?;
        self.snapshot
            .as_ref()
            .map(|(handle, _)| handle.state())
            .ok_or_else(|| ServerError::Translate("graph sessions read conceptual state".into()))
    }

    /// Snapshot read of the conceptual state (graph sessions read the
    /// current committed state; relational sessions read the conceptual
    /// state paired with their view snapshot).
    pub fn conceptual_state(&self) -> Result<std::sync::Arc<GraphState>, ServerError> {
        self.ensure_open()?;
        match &self.snapshot {
            Some((handle, _)) => Ok(handle.conceptual_shared()),
            None => Ok(self.service.conceptual()),
        }
    }

    /// Advances a relational session's snapshot to the latest committed
    /// state. No-op for graph sessions (they snapshot on every read).
    pub fn refresh(&mut self) -> Result<(), ServerError> {
        self.ensure_open()?;
        if let SessionKind::Relational { view } = self.kind.clone() {
            self.rebase(&view)?;
        }
        Ok(())
    }

    /// Gracefully tears the session down: verifies a relational
    /// snapshot is still state equivalent to its paired conceptual
    /// state (Definition 2 within the view's vocabulary), then releases
    /// the service's session slot. Dropping a session without closing
    /// releases the slot too, skipping the check.
    pub fn close(mut self) -> Result<(), ServerError> {
        self.ensure_open()?;
        if let Some((handle, _)) = &self.snapshot {
            if !handle.consistent() {
                let view = handle.name().to_string();
                self.closed = true;
                self.release();
                return Err(ServerError::LockstepDiverged { view });
            }
        }
        self.closed = true;
        self.release();
        Ok(())
    }

    fn release(&mut self) {
        self.service
            .shared
            .open_sessions
            .fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if !self.closed {
            self.closed = true;
            self.release();
        }
    }
}
