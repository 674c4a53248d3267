//! Property suite for the typed wire codec: every [`Request`] and
//! [`Response`] variant round-trips through its payload encoding and
//! its CRC framing, and the framing rejects *every* single-byte
//! truncation and *every* single-bit flip — at every byte offset of the
//! frame, header and payload and checksum alike. Below the frame, the
//! payload decoders meet garbage directly: random and mutated payloads
//! decode to a typed error or to a message that re-encodes byte for
//! byte, and never panic.

#[path = "common/garbage.rs"]
mod garbage;

use proptest::prelude::*;

use garbage::Garbage;

use borkin_equiv::graph::{Association, Entity, EntityRef, GraphOp, SemanticUnit};
use borkin_equiv::obs::TraceId;
use borkin_equiv::relation::ops::StatementSet;
use borkin_equiv::relation::RelOp;
use borkin_equiv::server::wire::{
    decode_request_frame, decode_response_frame, encode_request_frame, encode_response_frame,
    Request, Response,
};
use borkin_equiv::server::{AdminRequest, CommitInfo, ServerError, SessionKind};
use borkin_equiv::storage::encode_tuple;
use borkin_equiv::value::{Atom, Tuple, Value};

/// Deterministic splitmix64 — the suite's only entropy source, so a
/// failing seed replays exactly.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn string(&mut self) -> String {
        let len = self.below(12) as usize;
        let mut s: String = (0..len)
            .map(|_| char::from(b'a' + (self.below(26) as u8)))
            .collect();
        if self.below(4) == 0 {
            // Non-ASCII sometimes: the codec is length-prefixed UTF-8,
            // not ASCII.
            s.push('λ');
        }
        s
    }

    fn atom(&mut self) -> Atom {
        match self.below(3) {
            0 => Atom::Bool(self.below(2) == 0),
            1 => Atom::Int(self.next() as i64),
            _ => Atom::Str(self.string()),
        }
    }

    fn value(&mut self) -> Value {
        if self.below(4) == 0 {
            Value::Null
        } else {
            Value::Atom(self.atom())
        }
    }

    fn tuple(&mut self) -> Tuple {
        let n = self.below(4) as usize;
        (0..n).map(|_| self.value()).collect()
    }

    fn entity_ref(&mut self) -> EntityRef {
        EntityRef::new(self.string(), self.atom())
    }

    fn entity(&mut self) -> Entity {
        let n = self.below(3) as usize + 1;
        Entity::new(
            self.string(),
            (0..n)
                .map(|_| (self.string(), self.atom()))
                .collect::<Vec<_>>(),
        )
    }

    fn association(&mut self) -> Association {
        let n = self.below(3) as usize + 1;
        Association::new(
            self.string(),
            (0..n)
                .map(|_| (self.string(), self.entity_ref()))
                .collect::<Vec<_>>(),
        )
    }

    fn unit(&mut self) -> SemanticUnit {
        let mut u = SemanticUnit::new();
        for _ in 0..self.below(3) {
            u.entities.push(self.entity());
        }
        for _ in 0..self.below(3) {
            u.associations.push(self.association());
        }
        u
    }

    fn graph_op(&mut self) -> GraphOp {
        match self.below(6) {
            0 => GraphOp::InsertEntity(self.entity()),
            1 => GraphOp::DeleteEntity(self.entity_ref()),
            2 => GraphOp::InsertAssociation(self.association()),
            3 => GraphOp::DeleteAssociation(self.association()),
            4 => GraphOp::InsertUnit(self.unit()),
            _ => GraphOp::DeleteUnit(self.unit()),
        }
    }

    fn statements(&mut self) -> StatementSet {
        let mut s = StatementSet::new();
        for _ in 0..self.below(3) + 1 {
            let relation = self.string();
            for _ in 0..self.below(3) {
                s.add(relation.clone(), self.tuple());
            }
        }
        s
    }

    fn rel_op(&mut self) -> RelOp {
        if self.below(2) == 0 {
            RelOp::Insert(self.statements())
        } else {
            RelOp::Delete(self.statements())
        }
    }

    fn session_kind(&mut self) -> SessionKind {
        if self.below(2) == 0 {
            SessionKind::Graph
        } else {
            SessionKind::Relational {
                view: self.string(),
            }
        }
    }

    fn commit_info(&mut self) -> CommitInfo {
        CommitInfo {
            lsn: self.next(),
            version: self.next(),
            attempts: (self.below(5) + 1) as u32,
            trace: TraceId(self.next()),
        }
    }
}

/// One of each request variant, with randomized contents.
fn sample_requests(mix: &mut Mix) -> Vec<Request> {
    vec![
        Request::OpenSession {
            kind: mix.session_kind(),
        },
        Request::SubmitGraph {
            session: mix.next(),
            ops: (0..mix.below(4)).map(|_| mix.graph_op()).collect(),
        },
        Request::SubmitRelational {
            session: mix.next(),
            op: mix.rel_op(),
        },
        Request::Refresh {
            session: mix.next(),
        },
        Request::Close {
            session: mix.next(),
        },
        Request::ViewState { view: mix.string() },
        Request::Metrics {
            json: mix.below(2) == 0,
        },
        Request::Checkpoint,
        Request::Admin {
            body: (0..mix.below(8)).map(|_| mix.next() as u8).collect(),
        },
        // Typed admin bodies ride the same frame: the observability
        // operations must survive the framing sweeps too.
        Request::Admin {
            body: AdminRequest::TraceLookup(mix.next()).encode(),
        },
        Request::Admin {
            body: AdminRequest::WatchMetrics {
                interval_ms: mix.next() as u32,
            }
            .encode(),
        },
    ]
}

/// One of each response variant, with randomized contents.
fn sample_responses(mix: &mut Mix) -> Vec<Response> {
    vec![
        Response::SessionOpened {
            session: mix.next(),
        },
        Response::Committed(mix.commit_info()),
        Response::Overloaded {
            shard: mix.next(),
            depth: mix.next(),
        },
        Response::Refreshed {
            version: mix.next(),
        },
        Response::Closed,
        Response::ViewState {
            relations: (0..mix.below(3))
                .map(|_| {
                    (
                        mix.string(),
                        (0..mix.below(3)).map(|_| mix.tuple()).collect(),
                    )
                })
                .collect(),
        },
        Response::Metrics { body: mix.string() },
        Response::CheckpointTaken,
        Response::Admin { body: mix.string() },
        Response::MetricsDelta { body: mix.string() },
        Response::Error {
            code: ServerError::UnknownSession(0).code(),
            message: mix.string(),
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every request variant round-trips through payload + frame, and
    /// the frame echoes its correlation id.
    #[test]
    fn requests_round_trip(seed in 0u64..1_000_000) {
        let mut mix = Mix(seed);
        for request in sample_requests(&mut mix) {
            let payload = request.encode();
            prop_assert_eq!(
                &Request::decode(&payload).unwrap(),
                &request,
                "payload round trip"
            );
            let correlation = mix.next();
            let frame = encode_request_frame(correlation, &request);
            let (corr, back) = decode_request_frame(&frame).unwrap();
            prop_assert_eq!(corr, correlation);
            prop_assert_eq!(back, request);
        }
    }

    /// Every response variant round-trips the same way.
    #[test]
    fn responses_round_trip(seed in 0u64..1_000_000) {
        let mut mix = Mix(seed);
        for response in sample_responses(&mut mix) {
            let payload = response.encode();
            prop_assert_eq!(
                &Response::decode(&payload).unwrap(),
                &response,
                "payload round trip"
            );
            let correlation = mix.next();
            let frame = encode_response_frame(correlation, &response);
            let (corr, back) = decode_response_frame(&frame).unwrap();
            prop_assert_eq!(corr, correlation);
            prop_assert_eq!(back, response);
        }
    }

    /// Truncating a request frame anywhere — including cutting zero
    /// bytes off a non-empty tail — never decodes.
    #[test]
    fn every_truncation_is_rejected(seed in 0u64..1_000_000) {
        let mut mix = Mix(seed);
        for request in sample_requests(&mut mix) {
            let frame = encode_request_frame(mix.next(), &request);
            for cut in 0..frame.len() {
                prop_assert!(
                    decode_request_frame(&frame[..cut]).is_err(),
                    "{} bytes of a {}-byte frame decoded",
                    cut,
                    frame.len()
                );
            }
        }
    }

    /// Flipping any single bit anywhere in the frame — magic, flags,
    /// correlation id, length, payload, or checksum — is rejected.
    #[test]
    fn every_bit_flip_is_rejected(seed in 0u64..1_000_000) {
        let mut mix = Mix(seed);
        // One request and one response per case keep the quadratic
        // bit-sweep affordable; across 64 cases every variant is swept
        // many times.
        let requests = sample_requests(&mut mix);
        let request = &requests[mix.below(requests.len() as u64) as usize];
        let frame = encode_request_frame(mix.next(), request);
        for at in 0..frame.len() {
            for bit in 0..8 {
                let mut bent = frame.clone();
                bent[at] ^= 1 << bit;
                prop_assert!(
                    decode_request_frame(&bent).is_err(),
                    "bit {} of byte {} flipped and still decoded",
                    bit,
                    at
                );
            }
        }
        let responses = sample_responses(&mut mix);
        let response = &responses[mix.below(responses.len() as u64) as usize];
        let frame = encode_response_frame(mix.next(), response);
        for at in 0..frame.len() {
            for bit in 0..8 {
                let mut bent = frame.clone();
                bent[at] ^= 1 << bit;
                prop_assert!(
                    decode_response_frame(&bent).is_err(),
                    "bit {} of byte {} flipped and still decoded",
                    bit,
                    at
                );
            }
        }
    }

    /// Appending trailing garbage after a complete frame is rejected by
    /// the one-frame decoders (the streaming transport instead peels
    /// the frame and leaves the tail).
    #[test]
    fn trailing_garbage_is_rejected(seed in 0u64..1_000_000) {
        let mut mix = Mix(seed);
        for request in sample_requests(&mut mix) {
            let mut frame = encode_request_frame(mix.next(), &request);
            frame.push(mix.next() as u8);
            prop_assert!(decode_request_frame(&frame).is_err());
        }
    }
}

/// Random payloads, and valid payloads after a few random edits: each
/// request and each response payload the generator produced.
fn garbage_payloads(seed: u64) -> Vec<Vec<u8>> {
    let mut mix = Mix(seed);
    let mut junk = Garbage(seed);
    let valid: Vec<Vec<u8>> = sample_requests(&mut mix)
        .iter()
        .map(Request::encode)
        .chain(sample_responses(&mut mix).iter().map(Response::encode))
        .collect();
    let mut out = Vec::new();
    for payload in &valid {
        for _ in 0..24 {
            out.push(junk.mutate(payload));
        }
        // Random bodies behind a valid version and tag reach the body
        // decoders, not just the header checks.
        let mut random = payload[..2].to_vec();
        random.extend(junk.bytes(48));
        out.push(random);
        out.push(junk.bytes(16));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The payload decoders never panic on garbage, and decoding is
    /// canonical: every random or mutated payload is refused with a
    /// typed [`ServerError::Protocol`] or is exactly the byte string its
    /// decoded message encodes to.
    #[test]
    fn garbage_payloads_are_protocol_errors_or_canonical(seed in 0u64..1_000_000) {
        for payload in garbage_payloads(seed) {
            match Request::decode(&payload) {
                Ok(request) => prop_assert_eq!(request.encode(), payload.clone()),
                Err(e) => prop_assert!(matches!(e, ServerError::Protocol(_)), "{:?}", e),
            }
            match Response::decode(&payload) {
                Ok(response) => prop_assert_eq!(response.encode(), payload.clone()),
                Err(e) => prop_assert!(matches!(e, ServerError::Protocol(_)), "{:?}", e),
            }
        }
    }
}

/// The two ways tuple blobs used to decode from bytes their encoder
/// never writes: padding after the tuple's last value, and a boolean
/// value byte above 1.
#[test]
fn padded_tuples_and_bool_bytes_above_one_are_rejected() {
    let submit = |blob: &[u8]| {
        let mut payload = Request::Refresh { session: 7 }.encode();
        payload[1] = 0x03; // SubmitRelational
        payload.push(0); // Insert
        payload.extend_from_slice(&1u32.to_be_bytes());
        payload.extend_from_slice(&1u16.to_be_bytes());
        payload.push(b'R');
        payload.extend_from_slice(&(blob.len() as u32).to_be_bytes());
        payload.extend_from_slice(blob);
        payload
    };
    let blob = encode_tuple(&Tuple::new([Value::Atom(Atom::Bool(true))]));
    let valid = submit(&blob);
    assert_eq!(Request::decode(&valid).unwrap().encode(), valid);

    let mut padded = blob.clone();
    padded.extend_from_slice(&[0, 0]);
    assert!(matches!(
        Request::decode(&submit(&padded)),
        Err(ServerError::Protocol(_))
    ));
    let mut two = blob;
    *two.last_mut().unwrap() = 2;
    assert!(matches!(
        Request::decode(&submit(&two)),
        Err(ServerError::Protocol(_))
    ));
}

/// The codec is canonical: encoding a decoded frame reproduces the
/// original bytes (so transcripts and conformance fixtures can compare
/// frames byte for byte).
#[test]
fn encoding_is_canonical() {
    let mut mix = Mix(2026);
    for request in sample_requests(&mut mix) {
        let frame = encode_request_frame(9, &request);
        let (corr, back) = decode_request_frame(&frame).unwrap();
        assert_eq!(encode_request_frame(corr, &back), frame);
    }
    for response in sample_responses(&mut mix) {
        let frame = encode_response_frame(9, &response);
        let (corr, back) = decode_response_frame(&frame).unwrap();
        assert_eq!(encode_response_frame(corr, &back), frame);
    }
}
