//! Encoding conceptual deltas and checkpoint images into WAL payloads.
//!
//! A committed transaction is logged as the *difference* between the
//! conceptual state before and after it — entity and association
//! records keyed by type/predicate name, tuples encoded with the
//! storage codec in the same schema order (`BTreeMap` name order for
//! characteristics and roles) the internal level uses. A checkpoint is
//! the same format applied from the empty state, so one decoder serves
//! both: recovery decodes the checkpoint into a state, then folds the
//! logged deltas over it.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use dme_graph::{
    Association, Entity, EntityRef, GraphChange, GraphSchema, GraphState, GraphStateError,
};
use dme_storage::{decode_tuple, encode_tuple, ReadError, Reader};
use dme_value::{Tuple, Value};

use crate::error::ServerError;

const KIND_ENTITY_INSERT: u8 = 0;
const KIND_ENTITY_DELETE: u8 = 1;
const KIND_ASSOC_INSERT: u8 = 2;
const KIND_ASSOC_DELETE: u8 = 3;

// Checkpoint payload tags live in a disjoint 0xF_ range: a checkpoint
// record on the checkpoint stream is either a full image (the delta
// from the empty state, as before) or an incremental image (the
// current records of the keys dirtied since the previous checkpoint,
// chained to it by LSN). Untagged payloads are accepted as full images
// for compatibility with pre-compaction checkpoint streams.
const CP_FULL: u8 = 0xF0;
const CP_INCR: u8 = 0xF1;

// Admin request kinds live in a disjoint 0xA_ range so a stray admin
// byte can never be misread as a delta record (and vice versa).
const KIND_ADMIN_METRICS_TEXT: u8 = 0xA0;
const KIND_ADMIN_METRICS_JSON: u8 = 0xA1;
const KIND_ADMIN_TRACE_LOOKUP: u8 = 0xA2;
const KIND_ADMIN_WATCH_METRICS: u8 = 0xA3;

/// A control-channel request served by the session service outside the
/// transactional data path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdminRequest {
    /// Render counters + latency histograms in the Prometheus
    /// exposition text format.
    MetricsText,
    /// Render counters + latency histograms as one JSON object.
    MetricsJson,
    /// Look a transaction's trace up in the service's trace hub and
    /// render its stitched cross-shard causal tree as JSON.
    TraceLookup(u64),
    /// Subscribe this connection to periodic telemetry delta pushes
    /// (server-push [`crate::wire::Response::MetricsDelta`] frames).
    WatchMetrics {
        /// Push interval in milliseconds (0 is clamped up to 1).
        interval_ms: u32,
    },
}

impl AdminRequest {
    /// The request's wire encoding: one kind byte, plus the trace id
    /// (8 bytes) or interval (4 bytes) for the parameterized kinds.
    pub fn encode(self) -> Vec<u8> {
        match self {
            AdminRequest::MetricsText => vec![KIND_ADMIN_METRICS_TEXT],
            AdminRequest::MetricsJson => vec![KIND_ADMIN_METRICS_JSON],
            AdminRequest::TraceLookup(trace) => {
                let mut out = vec![KIND_ADMIN_TRACE_LOOKUP];
                out.extend_from_slice(&trace.to_be_bytes());
                out
            }
            AdminRequest::WatchMetrics { interval_ms } => {
                let mut out = vec![KIND_ADMIN_WATCH_METRICS];
                out.extend_from_slice(&interval_ms.to_be_bytes());
                out
            }
        }
    }

    /// Decodes a wire-encoded admin request.
    pub fn decode(bytes: &[u8]) -> Result<AdminRequest, ServerError> {
        match bytes {
            [KIND_ADMIN_METRICS_TEXT] => Ok(AdminRequest::MetricsText),
            [KIND_ADMIN_METRICS_JSON] => Ok(AdminRequest::MetricsJson),
            [KIND_ADMIN_TRACE_LOOKUP, rest @ ..] => {
                let id: [u8; 8] = rest
                    .try_into()
                    .map_err(|_| corrupt("trace lookup wants exactly 8 id bytes"))?;
                Ok(AdminRequest::TraceLookup(u64::from_be_bytes(id)))
            }
            [KIND_ADMIN_WATCH_METRICS, rest @ ..] => {
                let ms: [u8; 4] = rest
                    .try_into()
                    .map_err(|_| corrupt("watch metrics wants exactly 4 interval bytes"))?;
                Ok(AdminRequest::WatchMetrics {
                    interval_ms: u32::from_be_bytes(ms),
                })
            }
            [] => Err(corrupt("empty admin request")),
            other => Err(corrupt(format!(
                "unknown admin request {:#04x} ({} bytes)",
                other[0],
                other.len()
            ))),
        }
    }
}

fn entity_tuple(e: &Entity) -> Tuple {
    Tuple::new(e.characteristics.values().map(|a| Value::Atom(a.clone())))
}

fn assoc_tuple(a: &Association) -> Tuple {
    Tuple::new(a.roles.values().map(|e| Value::Atom(e.key.clone())))
}

fn push_record(out: &mut Vec<u8>, kind: u8, name: &str, tuple: &Tuple) {
    out.push(kind);
    let name_bytes = name.as_bytes();
    // `GraphSchema::new` refuses names (and arities) past `u16::MAX`.
    out.extend_from_slice(&(name_bytes.len() as u16).to_be_bytes());
    out.extend_from_slice(name_bytes);
    let encoded = encode_tuple(tuple);
    out.extend_from_slice(&(encoded.len() as u32).to_be_bytes());
    out.extend_from_slice(&encoded);
}

/// Encodes the conceptual difference `before → after` as a WAL payload.
///
/// Record order is replay-safe: association deletes, entity deletes,
/// entity inserts, association inserts — objects are always removed
/// before their anchors and anchors inserted before their dependents.
pub fn encode_delta(before: &GraphState, after: &GraphState) -> Vec<u8> {
    let before_entities: BTreeSet<&Entity> = before.entities().collect();
    let after_entities: BTreeSet<&Entity> = after.entities().collect();
    let before_assocs: BTreeSet<&Association> = before.associations().collect();
    let after_assocs: BTreeSet<&Association> = after.associations().collect();

    let mut out = Vec::new();
    for a in before_assocs.difference(&after_assocs) {
        push_record(
            &mut out,
            KIND_ASSOC_DELETE,
            a.predicate.as_str(),
            &assoc_tuple(a),
        );
    }
    for e in before_entities.difference(&after_entities) {
        push_record(
            &mut out,
            KIND_ENTITY_DELETE,
            e.entity_type.as_str(),
            &entity_tuple(e),
        );
    }
    for e in after_entities.difference(&before_entities) {
        push_record(
            &mut out,
            KIND_ENTITY_INSERT,
            e.entity_type.as_str(),
            &entity_tuple(e),
        );
    }
    for a in after_assocs.difference(&before_assocs) {
        push_record(
            &mut out,
            KIND_ASSOC_INSERT,
            a.predicate.as_str(),
            &assoc_tuple(a),
        );
    }
    out
}

/// Encodes a committed transaction's raw change log as a WAL payload —
/// the same record format [`apply_delta`] decodes, but built in
/// O(changes) from the log instead of diffing two whole states. Records
/// are emitted in application order, which is replay-exact by
/// construction: the log *is* the sequence of raw mutations that
/// produced the post-state.
pub fn encode_changes(changes: &[GraphChange]) -> Vec<u8> {
    let mut out = Vec::new();
    for change in changes {
        match change {
            GraphChange::InsertEntity(e) => push_record(
                &mut out,
                KIND_ENTITY_INSERT,
                e.entity_type.as_str(),
                &entity_tuple(e),
            ),
            GraphChange::DeleteEntity(e) => push_record(
                &mut out,
                KIND_ENTITY_DELETE,
                e.entity_type.as_str(),
                &entity_tuple(e),
            ),
            GraphChange::InsertAssociation(a) => push_record(
                &mut out,
                KIND_ASSOC_INSERT,
                a.predicate.as_str(),
                &assoc_tuple(a),
            ),
            GraphChange::DeleteAssociation(a) => push_record(
                &mut out,
                KIND_ASSOC_DELETE,
                a.predicate.as_str(),
                &assoc_tuple(a),
            ),
        }
    }
    out
}

/// Encodes a full conceptual state (a checkpoint image): the delta from
/// the empty state.
pub fn encode_state(state: &GraphState) -> Vec<u8> {
    encode_delta(&GraphState::empty(Arc::clone(state.schema())), state)
}

fn corrupt(why: impl Into<String>) -> ServerError {
    ServerError::Recovery(why.into())
}

fn decode_entity(schema: &GraphSchema, name: &str, tuple: Tuple) -> Result<Entity, ServerError> {
    let et = schema
        .universe()
        .entity_type(name)
        .ok_or_else(|| corrupt(format!("unknown entity type {name} in log")))?;
    let chars = et.characteristics();
    if tuple.arity() != chars.len() {
        return Err(corrupt(format!(
            "entity record arity {} != {} characteristics of {name}",
            tuple.arity(),
            chars.len()
        )));
    }
    let characteristics = chars
        .zip(tuple.into_values())
        .map(|((c, _), v)| {
            let value = v
                .into_atom()
                .ok_or_else(|| corrupt(format!("null in entity record for {name}")))?;
            Ok((c.clone(), value))
        })
        .collect::<Result<_, ServerError>>()?;
    Ok(Entity {
        entity_type: et.name().clone(),
        characteristics,
    })
}

fn decode_assoc(
    schema: &GraphSchema,
    name: &str,
    tuple: Tuple,
) -> Result<Association, ServerError> {
    let pred = schema
        .universe()
        .predicate(name)
        .ok_or_else(|| corrupt(format!("unknown predicate {name} in log")))?;
    if tuple.arity() != pred.arity() {
        return Err(corrupt(format!("association record arity for {name}")));
    }
    let roles = pred
        .cases()
        .zip(tuple.into_values())
        .map(|((case, et), v)| {
            let key = v
                .into_atom()
                .ok_or_else(|| corrupt(format!("null in association record for {name}")))?;
            Ok((case.clone(), EntityRef::new(et.clone(), key)))
        })
        .collect::<Result<_, ServerError>>()?;
    Ok(Association {
        predicate: pred.name().clone(),
        roles,
    })
}

/// One record of an encoded delta, not yet decoded: its kind byte, the
/// name and tuple bytes that identify its fact, and the whole record.
struct RawRecord<'a> {
    kind: u8,
    name: &'a [u8],
    tuple: &'a [u8],
    bytes: &'a [u8],
}

/// Walks the records of an encoded delta without decoding them.
fn for_each_record<'a>(
    payload: &'a [u8],
    mut f: impl FnMut(RawRecord<'a>) -> Result<(), ServerError>,
) -> Result<(), ServerError> {
    let mut r = Reader::new(payload);
    let torn = |e: ReadError| corrupt(format!("delta record {e}"));
    while !r.is_empty() {
        let start = payload.len() - r.remaining();
        let kind = r.u8().map_err(torn)?;
        let name_len = r.u16().map_err(torn)?.into();
        let name = r.take(name_len).map_err(torn)?;
        let tuple_len = r.u32().map_err(torn)? as usize;
        let tuple = r.take(tuple_len).map_err(torn)?;
        let bytes = &payload[start..payload.len() - r.remaining()];
        f(RawRecord {
            kind,
            name,
            tuple,
            bytes,
        })?;
    }
    Ok(())
}

/// The name and the tuple of one record.
fn decode_parts<'a>(record: &RawRecord<'a>) -> Result<(&'a str, Tuple), ServerError> {
    let name = std::str::from_utf8(record.name).map_err(|_| corrupt("record name is not utf-8"))?;
    let tuple = decode_tuple(record.tuple).map_err(|e| corrupt(format!("tuple decode: {e}")))?;
    Ok((name, tuple))
}

/// Decodes one record into the change it encodes.
fn decode_change(schema: &GraphSchema, record: &RawRecord<'_>) -> Result<GraphChange, ServerError> {
    let (name, tuple) = decode_parts(record)?;
    Ok(match record.kind {
        KIND_ENTITY_INSERT => GraphChange::InsertEntity(decode_entity(schema, name, tuple)?),
        KIND_ENTITY_DELETE => GraphChange::DeleteEntity(decode_entity(schema, name, tuple)?),
        KIND_ASSOC_INSERT => GraphChange::InsertAssociation(decode_assoc(schema, name, tuple)?),
        KIND_ASSOC_DELETE => GraphChange::DeleteAssociation(decode_assoc(schema, name, tuple)?),
        other => return Err(corrupt(format!("unknown delta record kind {other}"))),
    })
}

/// Walks the records of an encoded delta as the changes they encode.
fn for_each_change(
    schema: &GraphSchema,
    payload: &[u8],
    mut f: impl FnMut(GraphChange) -> Result<(), ServerError>,
) -> Result<(), ServerError> {
    for_each_record(payload, |record| f(decode_change(schema, &record)?))
}

/// Applies one decoded change with the strict raw mutations: an insert
/// of a present fact or a delete of an absent one is corruption.
fn apply_change(
    state: &mut GraphState,
    schema: &GraphSchema,
    change: GraphChange,
) -> Result<(), ServerError> {
    let what = change_kind(&change);
    match change {
        GraphChange::InsertEntity(e) => state.insert_entity_raw(e).map(drop),
        GraphChange::DeleteEntity(e) => state.remove_entity_raw(&entity_key(schema, &e)?).map(drop),
        GraphChange::InsertAssociation(a) => state.insert_association_raw(a),
        GraphChange::DeleteAssociation(a) => state.remove_association_raw(&a),
    }
    .map_err(|e| replay_error(what, e))
}

/// What a change does, as replay errors name it.
fn change_kind(change: &GraphChange) -> &'static str {
    match change {
        GraphChange::InsertEntity(_) => "entity insert",
        GraphChange::DeleteEntity(_) => "entity delete",
        GraphChange::InsertAssociation(_) => "association insert",
        GraphChange::DeleteAssociation(_) => "association delete",
    }
}

fn replay_error(what: &str, e: GraphStateError) -> ServerError {
    corrupt(format!("replayed {what}: {e}"))
}

fn entity_key(schema: &GraphSchema, e: &Entity) -> Result<EntityRef, ServerError> {
    e.to_ref(schema)
        .ok_or_else(|| corrupt(format!("entity of type {} has no key", e.entity_type)))
}

/// Folds an encoded delta over `state`, yielding the state after it.
pub fn apply_delta(state: &GraphState, payload: &[u8]) -> Result<GraphState, ServerError> {
    let mut next = state.clone();
    apply_delta_in_place(&mut next, payload)?;
    Ok(next)
}

/// [`apply_delta`] without the clone: folds the delta directly into
/// `state`. On error the state may hold a partial application, so
/// callers must discard it. A run of deltas folds faster through one
/// [`LogReplay`].
pub fn apply_delta_in_place(state: &mut GraphState, payload: &[u8]) -> Result<(), ServerError> {
    let schema = Arc::clone(state.schema());
    for_each_change(&schema, payload, |change| {
        apply_change(state, &schema, change)
    })
}

/// Folds a run of encoded deltas, in order, into a state: recovery's
/// replay of the WAL and the audit's fold of the commit log. Every
/// record gets the checks of [`apply_delta_in_place`] on each payload in
/// turn, in the same order and with the same errors; the state that
/// [`LogReplay::finish`] leaves is the one that would leave.
///
/// What it saves is work on facts a log toggles again and again. An
/// association record is decoded the first time its bytes are seen: the
/// tuple codec is canonical (each decodable byte string is the encoding
/// of its value), so records with equal name and tuple bytes carry
/// equal associations. From then on the replay tracks that
/// association's presence by those bytes — an insert of a present one
/// or a delete of an absent one fails exactly where the fold would —
/// and `finish` applies only the net change of each. Entity records
/// apply at once: the raw mutations of entities and of associations
/// never look at each other, so they commute. Each replayed record thus
/// costs a hash lookup, not a decode and two ordered-set updates, and
/// the state's fingerprint and role index move once per net change.
///
/// On error the state may hold a partial application, so callers must
/// discard it (recovery abandons the whole attempt).
pub struct LogReplay<'s, 'p> {
    state: &'s mut GraphState,
    schema: Arc<GraphSchema>,
    /// Every association a record named, keyed by its name and tuple
    /// bytes.
    touched: HashMap<(&'p [u8], &'p [u8]), Touched>,
}

/// One association a replayed record named.
struct Touched {
    assoc: Association,
    /// Whether the state held it when the replay first met it.
    was_present: bool,
    /// Whether it is present after the records replayed so far.
    present: bool,
    /// Whether an insert record has passed its shape check.
    shape_checked: bool,
}

impl<'s, 'p> LogReplay<'s, 'p> {
    /// Starts a replay into `state`.
    pub fn new(state: &'s mut GraphState) -> Self {
        LogReplay {
            schema: Arc::clone(state.schema()),
            state,
            touched: HashMap::new(),
        }
    }

    /// Replays one encoded delta.
    pub fn apply(&mut self, payload: &'p [u8]) -> Result<(), ServerError> {
        for_each_record(payload, |record| match record.kind {
            KIND_ASSOC_INSERT | KIND_ASSOC_DELETE => self.association(&record),
            _ => apply_change(
                self.state,
                &self.schema,
                decode_change(&self.schema, &record)?,
            ),
        })
    }

    /// One association record: the checks `apply_change` would make
    /// (decode, then for an insert the shape and then the absence, for
    /// a delete the presence), against the tracked presence.
    fn association(&mut self, record: &RawRecord<'p>) -> Result<(), ServerError> {
        let t = match self.touched.entry((record.name, record.tuple)) {
            Entry::Occupied(t) => t.into_mut(),
            Entry::Vacant(slot) => {
                let (name, tuple) = decode_parts(record)?;
                let assoc = decode_assoc(&self.schema, name, tuple)?;
                let was_present = self.state.has_association(&assoc);
                slot.insert(Touched {
                    assoc,
                    was_present,
                    present: was_present,
                    shape_checked: false,
                })
            }
        };
        if record.kind == KIND_ASSOC_INSERT {
            if !t.shape_checked {
                GraphState::check_association(&self.schema, &t.assoc)
                    .map_err(|e| replay_error("association insert", e))?;
                t.shape_checked = true;
            }
            if t.present {
                let e = GraphStateError::AssociationExists(t.assoc.clone());
                return Err(replay_error("association insert", e));
            }
            t.present = true;
        } else {
            if !t.present {
                let e = GraphStateError::NoSuchAssociation(t.assoc.clone());
                return Err(replay_error("association delete", e));
            }
            t.present = false;
        }
        Ok(())
    }

    /// Applies the net change of every association the replay touched.
    pub fn finish(self) -> Result<(), ServerError> {
        for (_, t) in self.touched {
            match (t.was_present, t.present) {
                (false, true) => apply_change(
                    self.state,
                    &self.schema,
                    GraphChange::InsertAssociation(t.assoc),
                )?,
                (true, false) => apply_change(
                    self.state,
                    &self.schema,
                    GraphChange::DeleteAssociation(t.assoc),
                )?,
                _ => {}
            }
        }
        Ok(())
    }
}

/// Folds an encoded delta over `state` with *upsert/ignore* semantics:
/// inserts overwrite an existing fact, deletes of an absent fact are
/// no-ops. This is how incremental checkpoint images apply — they
/// carry the dirty keys' **current** records, not a before/after diff,
/// so "already there" and "already gone" are expected states, not
/// corruption. Malformed records are still typed errors.
pub fn apply_delta_lenient(state: &GraphState, payload: &[u8]) -> Result<GraphState, ServerError> {
    let schema = Arc::clone(state.schema());
    let mut state = state.clone();
    for_each_change(&schema, payload, |change| match change {
        GraphChange::InsertEntity(e) => {
            if let Some(r) = e.to_ref(&schema) {
                let _ = state.remove_entity_raw(&r);
            }
            state
                .insert_entity_raw(e)
                .map(drop)
                .map_err(|e| corrupt(format!("checkpointed entity upsert: {e}")))
        }
        GraphChange::DeleteEntity(e) => {
            let _ = state.remove_entity_raw(&entity_key(&schema, &e)?);
            Ok(())
        }
        GraphChange::InsertAssociation(a) => {
            let _ = state.remove_association_raw(&a);
            state
                .insert_association_raw(a)
                .map_err(|e| corrupt(format!("checkpointed association upsert: {e}")))
        }
        GraphChange::DeleteAssociation(a) => {
            let _ = state.remove_association_raw(&a);
            Ok(())
        }
    })?;
    Ok(state)
}

/// Decodes a checkpoint image into a state over `schema`.
pub fn decode_state(schema: Arc<GraphSchema>, payload: &[u8]) -> Result<GraphState, ServerError> {
    apply_delta(&GraphState::empty(schema), payload)
}

/// A decoded checkpoint payload: either a self-contained full image or
/// an incremental image chained to the checkpoint at `prev_lsn`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointImage<'a> {
    /// A full image: `delta` rebuilds the state from empty.
    Full {
        /// Encoded delta from the empty state.
        delta: &'a [u8],
    },
    /// An incremental image: `delta` holds the *current* records of
    /// every key dirtied since the checkpoint whose LSN is `prev_lsn`,
    /// to be folded leniently over that checkpoint's state.
    Incremental {
        /// LSN of the checkpoint this delta chains to.
        prev_lsn: u64,
        /// Encoded records of the dirty keys (upsert/delete semantics).
        delta: &'a [u8],
    },
}

/// Encodes a full checkpoint payload: tag + delta-from-empty.
pub fn encode_full_checkpoint(state: &GraphState) -> Vec<u8> {
    let mut out = vec![CP_FULL];
    out.extend_from_slice(&encode_state(state));
    out
}

/// Encodes an incremental checkpoint payload: tag + chain link +
/// the dirty keys' current records (already class-ordered by the
/// caller: association deletes, entity deletes, entity inserts,
/// association inserts).
pub fn encode_incremental_checkpoint(prev_lsn: u64, records: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(9 + records.len());
    out.push(CP_INCR);
    out.extend_from_slice(&prev_lsn.to_be_bytes());
    out.extend_from_slice(records);
    out
}

/// Decodes a checkpoint payload. Untagged payloads (whose first byte
/// is a delta record kind, or which are empty) are legacy full images.
pub fn decode_checkpoint(payload: &[u8]) -> Result<CheckpointImage<'_>, ServerError> {
    let mut r = Reader::new(payload);
    match r.u8() {
        Err(_) => Ok(CheckpointImage::Full { delta: payload }),
        Ok(CP_FULL) => Ok(CheckpointImage::Full { delta: r.rest() }),
        Ok(CP_INCR) => {
            let prev_lsn = r
                .u64()
                .map_err(|_| corrupt("incremental checkpoint lacks its chain link"))?;
            Ok(CheckpointImage::Incremental {
                prev_lsn,
                delta: r.rest(),
            })
        }
        Ok(kind) if kind <= KIND_ASSOC_DELETE => Ok(CheckpointImage::Full { delta: payload }),
        Ok(other) => Err(corrupt(format!("unknown checkpoint tag {other:#04x}"))),
    }
}

/// The replay-safe ordering class of a delta record kind: association
/// deletes, entity deletes, entity inserts, association inserts.
fn record_class(kind: u8) -> u8 {
    match kind {
        KIND_ASSOC_DELETE => 0,
        KIND_ENTITY_DELETE => 1,
        KIND_ENTITY_INSERT => 2,
        KIND_ASSOC_INSERT => 3,
        other => other,
    }
}

/// The records of an incremental checkpoint: the newest record of every
/// fact the encoded deltas in `payloads` (oldest first) touch, in
/// canonical order — class by class (see [`encode_delta`]), facts
/// sorted by key within a class. A fact's key is entity-or-association,
/// then its name and tuple, so its insert and its delete share it.
/// Records are copied as they are, never decoded.
pub(crate) fn newest_records<'a>(
    payloads: impl IntoIterator<Item = &'a [u8]>,
) -> Result<Vec<u8>, ServerError> {
    let is_assoc = |kind| matches!(kind, KIND_ASSOC_INSERT | KIND_ASSOC_DELETE);
    let mut newest = HashMap::new();
    for payload in payloads {
        for_each_record(payload, |r| {
            newest.insert((is_assoc(r.kind), r.name, r.tuple), (r.kind, r.bytes));
            Ok(())
        })?;
    }
    // `(length, name)` sorts as the length-prefixed name bytes do.
    let mut records: Vec<_> = newest
        .into_iter()
        .map(|((_, name, tuple), (kind, bytes))| {
            (record_class(kind), name.len(), name, tuple, bytes)
        })
        .collect();
    records.sort_unstable();
    Ok(records.into_iter().flat_map(|r| r.4).copied().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dme_graph::fixtures as gfix;
    use dme_graph::GraphOp;
    use dme_logic::{EntityTypeDecl, PredicateDecl, Universe};
    use dme_value::{Atom, Domain, DomainCatalog, Symbol};
    use proptest::prelude::*;

    #[test]
    fn state_round_trips_through_checkpoint_image() {
        let g = gfix::figure4_state();
        let image = encode_state(&g);
        let rebuilt = decode_state(Arc::clone(g.schema()), &image).unwrap();
        assert_eq!(rebuilt, g);
    }

    #[test]
    fn delta_round_trips_every_record_kind() {
        let g = gfix::figure4_state();
        // A unit deletion exercises association + entity deletes; the
        // reverse exercises both inserts.
        let premise = gfix::figure8_premise_state();
        let down = encode_delta(&g, &premise);
        assert_eq!(apply_delta(&g, &down).unwrap(), premise);
        let up = encode_delta(&premise, &g);
        assert_eq!(apply_delta(&premise, &up).unwrap(), g);
    }

    #[test]
    fn the_widest_schema_name_round_trips_through_a_delta() {
        // `GraphSchema::new` refuses one byte more (`TooWide`).
        let name = "e".repeat(usize::from(u16::MAX));
        let universe = Universe::new(
            DomainCatalog::new().with(Domain::of_strs("ids", ["a"])),
            [EntityTypeDecl::new(
                name.as_str(),
                "id",
                [(Symbol::new("id"), Symbol::new("ids"))],
            )],
            Vec::<PredicateDecl>::new(),
        )
        .unwrap();
        let schema = Arc::new(GraphSchema::new(universe, []).unwrap());
        let empty = GraphState::empty(schema);
        let mut one = empty.clone();
        one.insert_entity_raw(Entity::new(name.as_str(), [("id", Atom::str("a"))]))
            .unwrap();
        let delta = encode_delta(&empty, &one);
        assert_eq!(apply_delta(&empty, &delta).unwrap(), one);
    }

    #[test]
    fn delta_of_an_association_insert() {
        let g = gfix::figure4_state();
        let op = GraphOp::InsertAssociation(Association::new(
            "supervise",
            [
                ("agent", EntityRef::new("employee", Atom::str("G.Wayshum"))),
                ("object", EntityRef::new("employee", Atom::str("T.Manhart"))),
            ],
        ));
        let g2 = op.apply(&g).unwrap();
        let delta = encode_delta(&g, &g2);
        assert_eq!(apply_delta(&g, &delta).unwrap(), g2);
        assert_eq!(apply_delta(&g2, &encode_delta(&g2, &g)).unwrap(), g);
    }

    #[test]
    fn admin_requests_round_trip_and_reject_junk() {
        for req in [
            AdminRequest::MetricsText,
            AdminRequest::MetricsJson,
            AdminRequest::TraceLookup(0),
            AdminRequest::TraceLookup(u64::MAX),
            AdminRequest::WatchMetrics { interval_ms: 100 },
            AdminRequest::WatchMetrics { interval_ms: 0 },
        ] {
            assert_eq!(AdminRequest::decode(&req.encode()).unwrap(), req);
        }
        assert!(AdminRequest::decode(&[]).is_err());
        assert!(
            AdminRequest::decode(&[0x00]).is_err(),
            "delta kinds rejected"
        );
        assert!(AdminRequest::decode(&[KIND_ADMIN_METRICS_TEXT, 0]).is_err());
        // Parameterized kinds demand exact operand lengths: truncated
        // and padded forms are both rejected.
        assert!(AdminRequest::decode(&[KIND_ADMIN_TRACE_LOOKUP]).is_err());
        assert!(AdminRequest::decode(&[KIND_ADMIN_TRACE_LOOKUP, 1, 2, 3]).is_err());
        let mut long = AdminRequest::TraceLookup(7).encode();
        long.push(0);
        assert!(AdminRequest::decode(&long).is_err());
        assert!(AdminRequest::decode(&[KIND_ADMIN_WATCH_METRICS, 1]).is_err());
        let mut long = AdminRequest::WatchMetrics { interval_ms: 50 }.encode();
        long.push(0);
        assert!(AdminRequest::decode(&long).is_err());
    }

    #[test]
    fn checkpoint_payloads_round_trip_and_accept_legacy_images() {
        let g = gfix::figure4_state();
        let full = encode_full_checkpoint(&g);
        match decode_checkpoint(&full).unwrap() {
            CheckpointImage::Full { delta } => {
                assert_eq!(decode_state(Arc::clone(g.schema()), delta).unwrap(), g);
            }
            other => panic!("full image decoded as {other:?}"),
        }
        let incr = encode_incremental_checkpoint(42, b"");
        assert_eq!(
            decode_checkpoint(&incr).unwrap(),
            CheckpointImage::Incremental {
                prev_lsn: 42,
                delta: b"",
            }
        );
        // Untagged legacy payloads (first byte is a record kind, or
        // empty) still read as full images.
        let legacy = encode_state(&g);
        assert_eq!(
            decode_checkpoint(&legacy).unwrap(),
            CheckpointImage::Full {
                delta: legacy.as_slice()
            }
        );
        assert_eq!(
            decode_checkpoint(b"").unwrap(),
            CheckpointImage::Full { delta: b"" }
        );
        assert!(decode_checkpoint(&[0x7F]).is_err(), "unknown tag");
        assert!(
            decode_checkpoint(&[CP_INCR, 0, 0]).is_err(),
            "truncated chain link"
        );
    }

    #[test]
    fn lenient_apply_upserts_and_ignores_absent_deletes() {
        let g = gfix::figure4_state();
        // Re-applying a full image over the state it encodes is a
        // no-op under lenient semantics (and an error under strict).
        let image = encode_state(&g);
        assert!(apply_delta(&g, &image).is_err());
        assert_eq!(apply_delta_lenient(&g, &image).unwrap(), g);
        // Deleting what is already gone is ignored.
        let premise = gfix::figure8_premise_state();
        let down = encode_delta(&g, &premise);
        let once = apply_delta_lenient(&g, &down).unwrap();
        assert_eq!(once, premise);
        assert_eq!(apply_delta_lenient(&once, &down).unwrap(), premise);
        // Malformed records stay typed errors.
        assert!(apply_delta_lenient(&g, &image[..3]).is_err());
    }

    #[test]
    fn newest_records_keep_the_last_record_of_each_fact_in_class_order() {
        let g = gfix::figure4_state();
        let e = g.entities().next().unwrap().clone();
        let a = g.associations().next().unwrap().clone();
        let enc = |c: GraphChange| encode_changes(&[c]);
        let payloads = [
            enc(GraphChange::InsertAssociation(a.clone())),
            enc(GraphChange::DeleteEntity(e.clone())),
            enc(GraphChange::InsertEntity(e.clone())),
            enc(GraphChange::DeleteAssociation(a.clone())),
        ];
        // Insert and delete of one fact share its key: the newest
        // record wins, and deletes sort before inserts.
        let mut want = enc(GraphChange::DeleteAssociation(a));
        want.extend(enc(GraphChange::InsertEntity(e)));
        assert_eq!(
            newest_records(payloads.iter().map(Vec::as_slice)).unwrap(),
            want
        );
        // Class order: assoc-del < ent-del < ent-ins < assoc-ins.
        assert!(record_class(KIND_ASSOC_DELETE) < record_class(KIND_ENTITY_DELETE));
        assert!(record_class(KIND_ENTITY_DELETE) < record_class(KIND_ENTITY_INSERT));
        assert!(record_class(KIND_ENTITY_INSERT) < record_class(KIND_ASSOC_INSERT));
        assert!(newest_records([&payloads[0][..3]]).is_err(), "torn record");
    }

    #[test]
    fn corrupt_payloads_are_typed_errors() {
        let g = gfix::figure4_state();
        let image = encode_state(&g);
        // Truncation inside the first record is caught (a cut at a
        // record boundary is a shorter but well-formed delta).
        for cut in 1..12 {
            assert!(decode_state(Arc::clone(g.schema()), &image[..cut]).is_err());
        }
        // Unknown record kind.
        let mut bad = image.clone();
        bad[0] = 0x7F;
        assert!(matches!(
            decode_state(Arc::clone(g.schema()), &bad),
            Err(ServerError::Recovery(_))
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Garbage checkpoint and delta payloads — valid ones after a
        /// few edits, and random bytes — decode to a typed
        /// [`ServerError::Recovery`] or to a value, and never panic.
        #[test]
        fn garbage_checkpoints_and_deltas_are_typed_errors(
            which in 0usize..3,
            edits in prop::collection::vec((any::<usize>(), any::<u8>(), 0u8..3), 1..4),
            random in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            let g = gfix::figure4_state();
            let empty = GraphState::empty(Arc::clone(g.schema()));
            let valid = [
                encode_full_checkpoint(&g),
                encode_incremental_checkpoint(7, &encode_delta(&g, &empty)),
                encode_state(&g),
            ];
            let mut mutated = valid[which].clone();
            for (at, byte, edit) in edits {
                let at = at % (mutated.len() + 1);
                match (edit, mutated.get_mut(at)) {
                    (0, Some(b)) => *b = byte,
                    (1, _) => mutated.truncate(at),
                    _ => mutated.insert(at, byte),
                }
            }
            for bytes in [mutated, random] {
                match decode_checkpoint(&bytes) {
                    Ok(CheckpointImage::Full { delta } | CheckpointImage::Incremental { delta, .. }) => {
                        prop_assert!(bytes.ends_with(delta));
                    }
                    Err(e) => prop_assert!(matches!(e, ServerError::Recovery(_)), "{:?}", e),
                }
                for base in [&g, &empty] {
                    if let Err(e) = apply_delta(base, &bytes) {
                        prop_assert!(matches!(e, ServerError::Recovery(_)), "{:?}", e);
                    }
                }
            }
        }

        /// A log replay is the per-payload strict fold: on random logs
        /// that toggle a few associations and entities — with now and
        /// then an insert of a present fact, a delete of an absent one,
        /// an unknown predicate or a torn record — both end in the same
        /// state (fingerprint and role index included) or in the same
        /// error.
        #[test]
        fn log_replay_is_the_per_payload_fold(
            log in prop::collection::vec(prop::collection::vec((0usize..12, 0u8..200), 1..4), 0..40),
        ) {
            let g = gfix::figure4_state();
            let mut associations: Vec<Association> = g.associations().cloned().collect();
            associations.push(Association::new(
                "supervise",
                [
                    ("agent", EntityRef::new("employee", Atom::str("G.Wayshum"))),
                    ("object", EntityRef::new("employee", Atom::str("T.Manhart"))),
                ],
            ));
            let entities: Vec<Entity> = g.entities().cloned().collect();
            let mut present = g.clone();
            let payloads: Vec<Vec<u8>> = log
                .iter()
                .map(|records| {
                    let mut out = Vec::new();
                    for &(which, fault) in records {
                        let a = &associations[which % associations.len()];
                        let e = &entities[which % entities.len()];
                        let held = present.has_association(a);
                        // Fault 0 writes the record that must fail.
                        let insert = held == (fault == 0);
                        match fault {
                            1 => push_record(&mut out, KIND_ASSOC_INSERT, "nosuch", &assoc_tuple(a)),
                            2 => out.extend_from_slice(&[KIND_ASSOC_DELETE, 0]),
                            3..=9 => {
                                let r = e.to_ref(g.schema()).expect("entities have keys");
                                if present.entity(&r).is_some() {
                                    let _ = present.remove_entity_raw(&r);
                                    push_record(&mut out, KIND_ENTITY_DELETE, e.entity_type.as_str(), &entity_tuple(e));
                                } else {
                                    let _ = present.insert_entity_raw(e.clone());
                                    push_record(&mut out, KIND_ENTITY_INSERT, e.entity_type.as_str(), &entity_tuple(e));
                                }
                            }
                            _ if insert => {
                                let _ = present.insert_association_raw(a.clone());
                                push_record(&mut out, KIND_ASSOC_INSERT, a.predicate.as_str(), &assoc_tuple(a));
                            }
                            _ => {
                                let _ = present.remove_association_raw(a);
                                push_record(&mut out, KIND_ASSOC_DELETE, a.predicate.as_str(), &assoc_tuple(a));
                            }
                        }
                    }
                    out
                })
                .collect();
            let mut folded = g.clone();
            let fold = payloads
                .iter()
                .try_for_each(|p| apply_delta_in_place(&mut folded, p));
            let mut replayed = g.clone();
            let mut replay = LogReplay::new(&mut replayed);
            let replay = payloads
                .iter()
                .try_for_each(|p| replay.apply(p))
                .and_then(|()| replay.finish());
            match (fold, replay) {
                (Ok(()), Ok(())) => {
                    prop_assert_eq!(&replayed, &folded);
                    prop_assert_eq!(replayed.fingerprint(), folded.fingerprint());
                    for a in &associations {
                        for (role, e) in &a.roles {
                            prop_assert_eq!(
                                replayed.role_count(e, a.predicate.as_str(), role.as_str()),
                                folded.role_count(e, a.predicate.as_str(), role.as_str())
                            );
                        }
                    }
                }
                (Err(f), Err(r)) => prop_assert_eq!(f.to_string(), r.to_string()),
                (f, r) => prop_assert!(false, "fold {:?}, replay {:?}", f, r),
            }
        }
    }
}
