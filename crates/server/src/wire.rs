//! The typed wire API: one versioned [`Request`]/[`Response`] enum pair
//! covering everything a client can ask the service, encoded into the
//! same length/LSN/CRC frames the WAL uses.
//!
//! ## Frame layout
//!
//! A wire message is exactly one WAL frame
//! (`[magic][flags][correlation id][len][payload][fnv1a]`, big-endian,
//! checksum over the whole frame) whose LSN field carries the client's
//! **correlation id** — responses echo it, so one connection can have
//! many requests in flight. The payload is
//! `[version u8][tag u8][body]`; unknown versions and tags are typed
//! [`ServerError::Protocol`] rejections, and any bit flip anywhere in
//! the frame is caught by the frame checksum before the payload is
//! looked at. The payload decoders read through the one bounded
//! [`dme_storage::Reader`] and borrow the payload from the frame.
//! Decoding is canonical: a payload decodes only if it is exactly the
//! bytes its message encodes to, so trailing bytes, boolean bytes other
//! than 0 and 1, and map or set entries out of ascending key order are
//! all rejected.
//!
//! Request tags live in `0x01..=0x09`, response tags in `0x81..=0x8B`,
//! so a frame can never be misread across directions. One response is
//! **server-push**: [`Response::MetricsDelta`] frames are emitted
//! unprompted under a `WatchMetrics` subscription's correlation id,
//! the first path where the server speaks without being spoken to.

use dme_graph::{Association, Entity, EntityRef, GraphOp, SemanticUnit};
use dme_obs::{Counter, Metric, TraceId};
use dme_relation::ops::StatementSet;
use dme_relation::{RelOp, RelationState};
use dme_storage::{decode_tuple, encode_tuple, wal, Reader};
use dme_value::{Atom, Tuple};

use crate::codec::AdminRequest;
use crate::error::ServerError;
use crate::service::{CommitInfo, CommitOutcome, SessionService};
use crate::session::{Session, SessionKind};

/// The wire protocol version this build speaks.
pub const WIRE_VERSION: u8 = 1;

const REQ_OPEN_SESSION: u8 = 0x01;
const REQ_SUBMIT_GRAPH: u8 = 0x02;
const REQ_SUBMIT_RELATIONAL: u8 = 0x03;
const REQ_REFRESH: u8 = 0x04;
const REQ_CLOSE: u8 = 0x05;
const REQ_VIEW_STATE: u8 = 0x06;
const REQ_METRICS: u8 = 0x07;
const REQ_CHECKPOINT: u8 = 0x08;
const REQ_ADMIN: u8 = 0x09;

const RESP_SESSION_OPENED: u8 = 0x81;
const RESP_COMMITTED: u8 = 0x82;
const RESP_OVERLOADED: u8 = 0x83;
const RESP_REFRESHED: u8 = 0x84;
const RESP_CLOSED: u8 = 0x85;
const RESP_VIEW_STATE: u8 = 0x86;
const RESP_METRICS: u8 = 0x87;
const RESP_CHECKPOINT_TAKEN: u8 = 0x88;
const RESP_ADMIN: u8 = 0x89;
const RESP_ERROR: u8 = 0x8A;
const RESP_METRICS_DELTA: u8 = 0x8B;

/// Everything a client can ask the service over the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Open a session of the given kind; answered with
    /// [`Response::SessionOpened`].
    OpenSession {
        /// Which model the session speaks.
        kind: SessionKind,
    },
    /// Submit conceptual operations as one transaction on a graph
    /// session.
    SubmitGraph {
        /// The session to submit on.
        session: u64,
        /// The transaction's conceptual operations.
        ops: Vec<GraphOp>,
    },
    /// Submit one relational operation on a relational session.
    SubmitRelational {
        /// The session to submit on.
        session: u64,
        /// The relational operation.
        op: RelOp,
    },
    /// Advance a relational session's snapshot to the latest committed
    /// state.
    Refresh {
        /// The session to refresh.
        session: u64,
    },
    /// Close a session (with the closing equivalence check).
    Close {
        /// The session to close.
        session: u64,
    },
    /// Read one external view's full relational state.
    ViewState {
        /// The view's name.
        view: String,
    },
    /// Render the service's telemetry.
    Metrics {
        /// `true` for the JSON snapshot, `false` for Prometheus text.
        json: bool,
    },
    /// Take a checkpoint now.
    Checkpoint,
    /// A legacy admin request, in its historical one-byte encoding,
    /// tunneled through the typed protocol.
    Admin {
        /// The [`AdminRequest`] wire bytes.
        body: Vec<u8>,
    },
}

/// The service's answer to a [`Request`].
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A session is open and registered under this id.
    SessionOpened {
        /// The new session's id.
        session: u64,
    },
    /// The transaction committed ([`CommitInfo::attempts`] > 1 means it
    /// was retried past conflicts first).
    Committed(CommitInfo),
    /// The transaction was shed at admission: its home commit lane was
    /// at capacity. Nothing was enqueued or written; retry later.
    Overloaded {
        /// The lane that refused the transaction.
        shard: u64,
        /// The queue depth observed at refusal.
        depth: u64,
    },
    /// The session's snapshot now sits at this database version.
    Refreshed {
        /// The committed version the snapshot advanced to.
        version: u64,
    },
    /// The session is closed.
    Closed,
    /// One external view's relational state, relation by relation.
    ViewState {
        /// `(relation name, tuples)` in name order.
        relations: Vec<(String, Vec<Tuple>)>,
    },
    /// Rendered telemetry.
    Metrics {
        /// The rendered body (Prometheus text or JSON).
        body: String,
    },
    /// The checkpoint is durable.
    CheckpointTaken,
    /// A legacy admin request's rendered answer.
    Admin {
        /// The rendered body.
        body: String,
    },
    /// One server-pushed telemetry delta under a `WatchMetrics`
    /// subscription: a JSON [`dme_obs::TelemetrySnapshot`] rendering of
    /// what moved since the previous push (gauges report their current
    /// value). Pushed periodically, never in reply to a request.
    MetricsDelta {
        /// The delta snapshot's JSON rendering.
        body: String,
    },
    /// The request failed; `code` is the stable [`ServerError::code`].
    Error {
        /// Stable numeric error code.
        code: u16,
        /// Human-readable diagnostic (not part of the stable surface).
        message: String,
    },
}

fn bad(why: impl Into<String>) -> ServerError {
    ServerError::Protocol(why.into())
}

// ---------------------------------------------------------------------
// Primitive writers/readers. Strings are u16-length-prefixed (schema
// names and keys), blobs u32-prefixed.

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

fn put_blob(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

fn put_atom(out: &mut Vec<u8>, a: &Atom) {
    match a {
        Atom::Bool(b) => {
            out.push(1);
            out.push(*b as u8);
        }
        Atom::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_be_bytes());
        }
        Atom::Str(s) => {
            out.push(3);
            put_str(out, s);
        }
    }
}

fn put_entity_ref(out: &mut Vec<u8>, r: &EntityRef) {
    put_str(out, r.entity_type.as_str());
    put_atom(out, &r.key);
}

fn put_entity(out: &mut Vec<u8>, e: &Entity) {
    put_str(out, e.entity_type.as_str());
    put_u16(out, e.characteristics.len() as u16);
    for (name, atom) in &e.characteristics {
        put_str(out, name.as_str());
        put_atom(out, atom);
    }
}

fn put_assoc(out: &mut Vec<u8>, a: &Association) {
    put_str(out, a.predicate.as_str());
    put_u16(out, a.roles.len() as u16);
    for (role, r) in &a.roles {
        put_str(out, role.as_str());
        put_entity_ref(out, r);
    }
}

fn put_graph_op(out: &mut Vec<u8>, op: &GraphOp) {
    match op {
        GraphOp::InsertEntity(e) => {
            out.push(0);
            put_entity(out, e);
        }
        GraphOp::DeleteEntity(r) => {
            out.push(1);
            put_entity_ref(out, r);
        }
        GraphOp::InsertAssociation(a) => {
            out.push(2);
            put_assoc(out, a);
        }
        GraphOp::DeleteAssociation(a) => {
            out.push(3);
            put_assoc(out, a);
        }
        GraphOp::InsertUnit(u) => {
            out.push(4);
            put_unit(out, u);
        }
        GraphOp::DeleteUnit(u) => {
            out.push(5);
            put_unit(out, u);
        }
    }
}

fn put_unit(out: &mut Vec<u8>, u: &SemanticUnit) {
    put_u16(out, u.entities.len() as u16);
    for e in &u.entities {
        put_entity(out, e);
    }
    put_u16(out, u.associations.len() as u16);
    for a in &u.associations {
        put_assoc(out, a);
    }
}

fn put_statements(out: &mut Vec<u8>, s: &StatementSet) {
    put_u32(out, s.len() as u32);
    for (relation, tuple) in s.iter() {
        put_str(out, relation.as_str());
        put_blob(out, &encode_tuple(tuple));
    }
}

fn put_rel_op(out: &mut Vec<u8>, op: &RelOp) {
    match op {
        RelOp::Insert(s) => {
            out.push(0);
            put_statements(out, s);
        }
        RelOp::Delete(s) => {
            out.push(1);
            put_statements(out, s);
        }
    }
}

// Domain readers over the shared bounded reader. Every map or set the
// encoder writes in key order must decode in strictly ascending key
// order, so a payload decodes only from the one byte string it
// re-encodes to.

fn str(r: &mut Reader<'_>) -> Result<String, ServerError> {
    let n = r.u16()?.into();
    String::from_utf8(r.take(n)?.to_vec()).map_err(|_| bad("string is not utf-8"))
}

fn blob<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], ServerError> {
    let n = r.u32()? as usize;
    Ok(r.take(n)?)
}

fn text(r: &mut Reader<'_>, what: &str) -> Result<String, ServerError> {
    String::from_utf8(blob(r)?.to_vec()).map_err(|_| bad(format!("{what} is not utf-8")))
}

/// Reads `count` items, reserving no more slots than input bytes
/// remain (every item takes at least one byte).
fn many<'a, T>(
    r: &mut Reader<'a>,
    count: usize,
    mut item: impl FnMut(&mut Reader<'a>) -> Result<T, ServerError>,
) -> Result<Vec<T>, ServerError> {
    let mut items = Vec::with_capacity(count.min(r.remaining()));
    for _ in 0..count {
        items.push(item(r)?);
    }
    Ok(items)
}

fn ascending<K: Ord>(keys: impl Iterator<Item = K>, what: &str) -> Result<(), ServerError> {
    let sorted = keys.is_sorted_by(|a, b| a < b);
    sorted
        .then_some(())
        .ok_or_else(|| bad(format!("{what} are not in strictly ascending order")))
}

fn atom(r: &mut Reader<'_>) -> Result<Atom, ServerError> {
    match r.u8()? {
        1 => Ok(Atom::Bool(r.bool()?)),
        2 => Ok(Atom::Int(r.u64()? as i64)),
        3 => Ok(Atom::Str(str(r)?)),
        other => Err(bad(format!("bad atom tag {other:#04x}"))),
    }
}

fn entity_ref(r: &mut Reader<'_>) -> Result<EntityRef, ServerError> {
    let ty = str(r)?;
    let key = atom(r)?;
    Ok(EntityRef::new(ty, key))
}

fn entity(r: &mut Reader<'_>) -> Result<Entity, ServerError> {
    let ty = str(r)?;
    let n = r.u16()?.into();
    let chars = many(r, n, |r| Ok((str(r)?, atom(r)?)))?;
    ascending(chars.iter().map(|(name, _)| name), "characteristics")?;
    Ok(Entity::new(ty, chars))
}

fn assoc(r: &mut Reader<'_>) -> Result<Association, ServerError> {
    let pred = str(r)?;
    let n = r.u16()?.into();
    let roles = many(r, n, |r| Ok((str(r)?, entity_ref(r)?)))?;
    ascending(roles.iter().map(|(role, _)| role), "roles")?;
    Ok(Association::new(pred, roles))
}

fn unit(r: &mut Reader<'_>) -> Result<SemanticUnit, ServerError> {
    let mut u = SemanticUnit::new();
    for _ in 0..r.u16()? {
        u = u.with_entity(entity(r)?);
    }
    for _ in 0..r.u16()? {
        u = u.with_association(assoc(r)?);
    }
    Ok(u)
}

fn graph_op(r: &mut Reader<'_>) -> Result<GraphOp, ServerError> {
    match r.u8()? {
        0 => Ok(GraphOp::InsertEntity(entity(r)?)),
        1 => Ok(GraphOp::DeleteEntity(entity_ref(r)?)),
        2 => Ok(GraphOp::InsertAssociation(assoc(r)?)),
        3 => Ok(GraphOp::DeleteAssociation(assoc(r)?)),
        4 => Ok(GraphOp::InsertUnit(unit(r)?)),
        5 => Ok(GraphOp::DeleteUnit(unit(r)?)),
        other => Err(bad(format!("bad graph op tag {other:#04x}"))),
    }
}

fn tuple(r: &mut Reader<'_>) -> Result<Tuple, ServerError> {
    decode_tuple(blob(r)?).map_err(|e| bad(format!("tuple decode: {e}")))
}

fn statements(r: &mut Reader<'_>) -> Result<StatementSet, ServerError> {
    let n = r.u32()? as usize;
    let rows = many(r, n, |r| Ok((str(r)?, tuple(r)?)))?;
    ascending(rows.iter(), "statements")?;
    let mut s = StatementSet::new();
    for (relation, tuple) in rows {
        s.add(relation, tuple);
    }
    Ok(s)
}

fn rel_op(r: &mut Reader<'_>) -> Result<RelOp, ServerError> {
    match r.u8()? {
        0 => Ok(RelOp::Insert(statements(r)?)),
        1 => Ok(RelOp::Delete(statements(r)?)),
        other => Err(bad(format!("bad relational op tag {other:#04x}"))),
    }
}

fn check_version(r: &mut Reader<'_>) -> Result<(), ServerError> {
    match r.u8()? {
        WIRE_VERSION => Ok(()),
        other => Err(bad(format!(
            "unsupported wire version {other} (this build speaks {WIRE_VERSION})"
        ))),
    }
}

// ---------------------------------------------------------------------
// Payload codecs.

impl Request {
    /// The session this request addresses, if it addresses one — the
    /// routing key the network layer uses to pin a session's requests
    /// to one dispatcher shard (sessionless requests may run anywhere).
    pub fn session(&self) -> Option<u64> {
        match self {
            Request::SubmitGraph { session, .. }
            | Request::SubmitRelational { session, .. }
            | Request::Refresh { session }
            | Request::Close { session } => Some(*session),
            _ => None,
        }
    }

    /// Encodes the request payload (version + tag + body, no frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![WIRE_VERSION];
        match self {
            Request::OpenSession { kind } => {
                out.push(REQ_OPEN_SESSION);
                match kind {
                    SessionKind::Graph => out.push(0),
                    SessionKind::Relational { view } => {
                        out.push(1);
                        put_str(&mut out, view);
                    }
                }
            }
            Request::SubmitGraph { session, ops } => {
                out.push(REQ_SUBMIT_GRAPH);
                put_u64(&mut out, *session);
                put_u32(&mut out, ops.len() as u32);
                for op in ops {
                    put_graph_op(&mut out, op);
                }
            }
            Request::SubmitRelational { session, op } => {
                out.push(REQ_SUBMIT_RELATIONAL);
                put_u64(&mut out, *session);
                put_rel_op(&mut out, op);
            }
            Request::Refresh { session } => {
                out.push(REQ_REFRESH);
                put_u64(&mut out, *session);
            }
            Request::Close { session } => {
                out.push(REQ_CLOSE);
                put_u64(&mut out, *session);
            }
            Request::ViewState { view } => {
                out.push(REQ_VIEW_STATE);
                put_str(&mut out, view);
            }
            Request::Metrics { json } => {
                out.push(REQ_METRICS);
                out.push(*json as u8);
            }
            Request::Checkpoint => out.push(REQ_CHECKPOINT),
            Request::Admin { body } => {
                out.push(REQ_ADMIN);
                put_blob(&mut out, body);
            }
        }
        out
    }

    /// Decodes a request payload; every malformation is a typed
    /// [`ServerError::Protocol`].
    pub fn decode(payload: &[u8]) -> Result<Request, ServerError> {
        let mut r = Reader::new(payload);
        check_version(&mut r)?;
        let req = match r.u8()? {
            REQ_OPEN_SESSION => {
                let kind = match r.u8()? {
                    0 => SessionKind::Graph,
                    1 => SessionKind::Relational { view: str(&mut r)? },
                    other => return Err(bad(format!("bad session kind {other:#04x}"))),
                };
                Request::OpenSession { kind }
            }
            REQ_SUBMIT_GRAPH => {
                let session = r.u64()?;
                let n = r.u32()? as usize;
                let ops = many(&mut r, n, graph_op)?;
                Request::SubmitGraph { session, ops }
            }
            REQ_SUBMIT_RELATIONAL => Request::SubmitRelational {
                session: r.u64()?,
                op: rel_op(&mut r)?,
            },
            REQ_REFRESH => Request::Refresh { session: r.u64()? },
            REQ_CLOSE => Request::Close { session: r.u64()? },
            REQ_VIEW_STATE => Request::ViewState { view: str(&mut r)? },
            REQ_METRICS => Request::Metrics { json: r.bool()? },
            REQ_CHECKPOINT => Request::Checkpoint,
            REQ_ADMIN => Request::Admin {
                body: blob(&mut r)?.to_vec(),
            },
            other => return Err(bad(format!("unknown request tag {other:#04x}"))),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes the response payload (version + tag + body, no frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![WIRE_VERSION];
        match self {
            Response::SessionOpened { session } => {
                out.push(RESP_SESSION_OPENED);
                put_u64(&mut out, *session);
            }
            Response::Committed(info) => {
                out.push(RESP_COMMITTED);
                put_u64(&mut out, info.lsn);
                put_u64(&mut out, info.version);
                put_u32(&mut out, info.attempts);
                put_u64(&mut out, info.trace.as_u64());
            }
            Response::Overloaded { shard, depth } => {
                out.push(RESP_OVERLOADED);
                put_u64(&mut out, *shard);
                put_u64(&mut out, *depth);
            }
            Response::Refreshed { version } => {
                out.push(RESP_REFRESHED);
                put_u64(&mut out, *version);
            }
            Response::Closed => out.push(RESP_CLOSED),
            Response::ViewState { relations } => {
                out.push(RESP_VIEW_STATE);
                put_u16(&mut out, relations.len() as u16);
                for (name, tuples) in relations {
                    put_str(&mut out, name);
                    put_u32(&mut out, tuples.len() as u32);
                    for t in tuples {
                        put_blob(&mut out, &encode_tuple(t));
                    }
                }
            }
            Response::Metrics { body } => {
                out.push(RESP_METRICS);
                put_blob(&mut out, body.as_bytes());
            }
            Response::CheckpointTaken => out.push(RESP_CHECKPOINT_TAKEN),
            Response::Admin { body } => {
                out.push(RESP_ADMIN);
                put_blob(&mut out, body.as_bytes());
            }
            Response::MetricsDelta { body } => {
                out.push(RESP_METRICS_DELTA);
                put_blob(&mut out, body.as_bytes());
            }
            Response::Error { code, message } => {
                out.push(RESP_ERROR);
                put_u16(&mut out, *code);
                put_blob(&mut out, message.as_bytes());
            }
        }
        out
    }

    /// Decodes a response payload.
    pub fn decode(payload: &[u8]) -> Result<Response, ServerError> {
        let mut r = Reader::new(payload);
        check_version(&mut r)?;
        let resp = match r.u8()? {
            RESP_SESSION_OPENED => Response::SessionOpened { session: r.u64()? },
            RESP_COMMITTED => Response::Committed(CommitInfo {
                lsn: r.u64()?,
                version: r.u64()?,
                attempts: r.u32()?,
                trace: TraceId(r.u64()?),
            }),
            RESP_OVERLOADED => Response::Overloaded {
                shard: r.u64()?,
                depth: r.u64()?,
            },
            RESP_REFRESHED => Response::Refreshed { version: r.u64()? },
            RESP_CLOSED => Response::Closed,
            RESP_VIEW_STATE => {
                let n = r.u16()?.into();
                let relations = many(&mut r, n, |r| {
                    let name = str(r)?;
                    let n = r.u32()? as usize;
                    Ok((name, many(r, n, tuple)?))
                })?;
                Response::ViewState { relations }
            }
            RESP_METRICS => Response::Metrics {
                body: text(&mut r, "metrics body")?,
            },
            RESP_CHECKPOINT_TAKEN => Response::CheckpointTaken,
            RESP_ADMIN => Response::Admin {
                body: text(&mut r, "admin body")?,
            },
            RESP_METRICS_DELTA => Response::MetricsDelta {
                body: text(&mut r, "metrics delta body")?,
            },
            RESP_ERROR => Response::Error {
                code: r.u16()?,
                message: text(&mut r, "error message")?,
            },
            other => return Err(bad(format!("unknown response tag {other:#04x}"))),
        };
        r.finish()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------
// Framing: one message = one WAL frame, correlation id in the LSN slot.

fn frame(correlation: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(payload.len() + 32);
    wal::append_record_traced(&mut buf, correlation, None, payload);
    buf
}

fn unframe(bytes: &[u8]) -> Result<(u64, &[u8]), ServerError> {
    let (record, consumed) = wal::decode_frame(bytes, 0).map_err(|e| bad(e.to_string()))?;
    if consumed != bytes.len() {
        return Err(bad(format!(
            "{} trailing bytes after the frame",
            bytes.len() - consumed
        )));
    }
    Ok((record.lsn, record.payload))
}

/// Frames a request with its correlation id.
pub fn encode_request_frame(correlation: u64, request: &Request) -> Vec<u8> {
    frame(correlation, &request.encode())
}

/// Decodes exactly one framed request, returning its correlation id.
pub fn decode_request_frame(bytes: &[u8]) -> Result<(u64, Request), ServerError> {
    let (correlation, payload) = unframe(bytes)?;
    Ok((correlation, Request::decode(payload)?))
}

/// Frames a response with the correlation id it answers.
pub fn encode_response_frame(correlation: u64, response: &Response) -> Vec<u8> {
    frame(correlation, &response.encode())
}

/// Decodes exactly one framed response, returning its correlation id.
pub fn decode_response_frame(bytes: &[u8]) -> Result<(u64, Response), ServerError> {
    let (correlation, payload) = unframe(bytes)?;
    Ok((correlation, Response::decode(payload)?))
}

/// Rebuilds a [`ServerError`] from its wire form. The stable code picks
/// the variant; string fields are restored from the message verbatim,
/// but fields the `Display` rendering already folded into prose (retry
/// counts, view names, session ids) are not parsed back out — clients
/// match on [`ServerError::code`], not on reconstructed fields.
pub fn error_from_wire(code: u16, message: String) -> ServerError {
    match code {
        1 => ServerError::Conflict { attempts: 0 },
        2 => ServerError::Aborted(message),
        3 => ServerError::Translate(message),
        4 => ServerError::SessionClosed,
        5 => ServerError::Crashed(message),
        6 => ServerError::LockstepDiverged { view: message },
        7 => ServerError::Recovery(message),
        8 => ServerError::UnknownView(message),
        9 => ServerError::InvalidConfig(message),
        11 => ServerError::UnknownSession(0),
        12 => ServerError::StorageDiverged(message),
        // 10 and anything a newer server might mint.
        _ => ServerError::Protocol(message),
    }
}

// ---------------------------------------------------------------------
// The service-side request handler.

fn outcome_response(outcome: CommitOutcome) -> Response {
    match outcome {
        CommitOutcome::Committed(info) | CommitOutcome::Retried { info, .. } => {
            Response::Committed(info)
        }
        CommitOutcome::Shed { shard, depth } => Response::Overloaded {
            shard: shard as u64,
            depth: depth as u64,
        },
    }
}

fn view_relations(state: &RelationState) -> Vec<(String, Vec<Tuple>)> {
    state
        .schema()
        .relations()
        .map(|r| {
            let name = r.name().as_str().to_string();
            let tuples = state.tuples(name.as_str()).cloned().collect();
            (name, tuples)
        })
        .collect()
}

impl SessionService {
    /// Serves one typed request — the single front door every transport
    /// funnels through. Errors come back as [`Response::Error`] with the
    /// stable [`ServerError::code`]; this function never panics on bad
    /// input.
    pub fn handle(&self, request: Request) -> Response {
        match self.try_handle(request) {
            Ok(response) => response,
            Err(e) => Response::Error {
                code: e.code(),
                message: e.to_string(),
            },
        }
    }

    /// Serves one CRC-framed request and frames the answer under the
    /// same correlation id. A frame that fails the checksum or does not
    /// parse is answered under correlation id 0 (the reserved "broken
    /// frame" id) so the client's demultiplexer can surface it.
    pub fn handle_frame(&self, bytes: &[u8]) -> Vec<u8> {
        let obs = self.shared.config.obs.clone();
        let timer = obs.time(Metric::RequestLatency);
        let (correlation, response) = match decode_request_frame(bytes) {
            Ok((correlation, request)) => (correlation, self.handle(request)),
            Err(e) => (
                0,
                Response::Error {
                    code: e.code(),
                    message: e.to_string(),
                },
            ),
        };
        obs.add(Counter::RequestsServed, 1);
        drop(timer);
        encode_response_frame(correlation, &response)
    }

    /// Runs `f` against a registered session, *checking the session out*
    /// for the duration: a concurrent request against the same id gets
    /// [`ServerError::UnknownSession`] instead of interleaved access.
    fn with_session<T>(
        &self,
        id: u64,
        f: impl FnOnce(&mut Session) -> Result<T, ServerError>,
    ) -> Result<T, ServerError> {
        let mut session = self
            .shared
            .registry
            .lock()
            .unwrap()
            .remove(&id)
            .ok_or(ServerError::UnknownSession(id))?;
        let result = f(&mut session);
        self.shared.registry.lock().unwrap().insert(id, session);
        result
    }

    fn try_handle(&self, request: Request) -> Result<Response, ServerError> {
        match request {
            Request::OpenSession { kind } => {
                let session = self.open_session(kind)?;
                let id = session.id();
                self.shared.registry.lock().unwrap().insert(id, session);
                Ok(Response::SessionOpened { session: id })
            }
            Request::SubmitGraph { session, ops } => self
                .with_session(session, |s| s.submit_graph(ops))
                .map(outcome_response),
            Request::SubmitRelational { session, op } => self
                .with_session(session, |s| s.submit_relational(&op))
                .map(outcome_response),
            Request::Refresh { session } => {
                self.with_session(session, |s| s.refresh())?;
                Ok(Response::Refreshed {
                    version: self.version(),
                })
            }
            Request::Close { session } => {
                let s = self
                    .shared
                    .registry
                    .lock()
                    .unwrap()
                    .remove(&session)
                    .ok_or(ServerError::UnknownSession(session))?;
                s.close()?;
                Ok(Response::Closed)
            }
            Request::ViewState { view } => {
                let state = self
                    .view_state(&view)
                    .ok_or(ServerError::UnknownView(view))?;
                Ok(Response::ViewState {
                    relations: view_relations(&state),
                })
            }
            Request::Metrics { json } => Ok(Response::Metrics {
                body: self.render_metrics(json),
            }),
            Request::Checkpoint => {
                self.checkpoint_now()?;
                Ok(Response::CheckpointTaken)
            }
            Request::Admin { body } => {
                let body = match AdminRequest::decode(&body)? {
                    AdminRequest::MetricsText => self.render_metrics(false),
                    AdminRequest::MetricsJson => self.render_metrics(true),
                    AdminRequest::TraceLookup(id) => {
                        self.shared.config.obs.add(Counter::TraceLookups, 1);
                        self.lookup_trace(TraceId(id))
                    }
                    // Streaming subscriptions are intercepted by the
                    // network layer before dispatch; a WatchMetrics
                    // that reaches the service directly (embedded
                    // callers, no push path) is acknowledged with the
                    // effective interval.
                    AdminRequest::WatchMetrics { interval_ms } => {
                        format!("{{\"watch\":{{\"interval_ms\":{}}}}}", interval_ms.max(1))
                    }
                };
                Ok(Response::Admin { body })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_echo_the_correlation_id() {
        let req = Request::Checkpoint;
        let bytes = encode_request_frame(77, &req);
        let (corr, back) = decode_request_frame(&bytes).unwrap();
        assert_eq!((corr, back), (77, req));
        let resp = Response::CheckpointTaken;
        let bytes = encode_response_frame(77, &resp);
        assert_eq!(decode_response_frame(&bytes).unwrap(), (77, resp));
    }

    #[test]
    fn unknown_version_and_tag_are_protocol_errors() {
        let mut payload = Request::Checkpoint.encode();
        payload[0] = 99;
        assert!(matches!(
            Request::decode(&payload),
            Err(ServerError::Protocol(_))
        ));
        let mut payload = Request::Checkpoint.encode();
        payload[1] = 0x7E;
        assert!(matches!(
            Request::decode(&payload),
            Err(ServerError::Protocol(_))
        ));
        // Direction confusion: a response tag is not a request.
        assert!(Request::decode(&Response::Closed.encode()).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = Request::Refresh { session: 3 }.encode();
        payload.push(0);
        assert!(Request::decode(&payload).is_err());
        let mut framed = encode_request_frame(1, &Request::Checkpoint);
        framed.push(0xAB);
        assert!(decode_request_frame(&framed).is_err());
    }
}
