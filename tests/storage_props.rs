//! Property tests for the internal-schema formats: WAL framing, the
//! tuple codec and the bounded reader under them.
//!
//! Two contracts:
//!
//! - **WAL framing** — the torn-write harness: a log cut at *every*
//!   byte offset, and single-byte corruption anywhere in a frame, must
//!   yield exactly an intact record prefix plus a typed tail error —
//!   never a wrong record;
//! - **garbage** — random and mutated byte strings fed to
//!   `decode_tuple` and to `wal::decode_frame` at every offset return a
//!   typed result and never panic.

#[path = "common/garbage.rs"]
mod garbage;

use proptest::prelude::*;

use garbage::Garbage;

use borkin_equiv::storage::wal;
use borkin_equiv::storage::{decode_tuple, encode_tuple};
use borkin_equiv::value::{Atom, Tuple, Value};

/// Deterministic case-local randomness (the proptest shim hands us a
/// seed; everything else derives from it).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The torn-write harness: cut a multi-record log at **every** byte
    /// offset. Tolerant replay must return exactly the records whose
    /// frames survive complete — bitwise intact — and flag a torn tail
    /// precisely when the cut lands mid-frame.
    #[test]
    fn wal_cut_at_every_byte_yields_an_intact_prefix(seed in 0u64..1_000_000) {
        let mut rng = Rng(seed);
        let mut buf = Vec::new();
        let mut records = Vec::new();
        let mut ends = vec![0usize];
        for lsn in 1..=8u64 {
            let len = rng.below(60) as usize;
            let payload = rng.bytes(len);
            let trace = (rng.below(2) == 0).then(|| rng.next());
            wal::append_record_traced(&mut buf, lsn, trace, &payload);
            records.push((lsn, trace, payload));
            ends.push(buf.len());
        }
        for cut in 0..=buf.len() {
            let (got, tail) = wal::replay_tolerant(&buf[..cut]);
            let complete = ends.iter().filter(|&&e| e > 0 && e <= cut).count();
            prop_assert_eq!(got.len(), complete, "cut {}", cut);
            for (r, (lsn, trace, payload)) in got.iter().zip(&records) {
                prop_assert_eq!(r.lsn, *lsn);
                prop_assert_eq!(r.trace, *trace);
                prop_assert_eq!(&r.payload, payload);
            }
            prop_assert_eq!(
                tail.is_some(),
                cut != ends[complete],
                "tail error iff the cut is mid-frame (cut {})",
                cut
            );
        }
    }

    /// Single-byte corruption anywhere in the log: the checksum (or
    /// frame header validation) stops replay at the corrupt frame.
    /// Everything before it is returned bitwise intact; nothing at or
    /// after it leaks through as a "decoded" record.
    #[test]
    fn wal_single_byte_corruption_never_yields_a_wrong_record(seed in 0u64..1_000_000) {
        let mut rng = Rng(seed);
        let mut buf = Vec::new();
        let mut records = Vec::new();
        let mut ends = vec![0usize];
        for lsn in 1..=6u64 {
            let len = 1 + rng.below(40) as usize;
            let payload = rng.bytes(len);
            wal::append_record_traced(&mut buf, lsn, Some(rng.next()), &payload);
            records.push((lsn, payload));
            ends.push(buf.len());
        }
        let at = rng.below(buf.len() as u64) as usize;
        let mut corrupt = buf.clone();
        corrupt[at] ^= 1 << rng.below(8);
        let (got, tail) = wal::replay_tolerant(&corrupt);
        // The flipped byte lives in frame k: frames 0..k replay intact.
        let k = ends.iter().filter(|&&e| e > 0 && e <= at).count();
        prop_assert_eq!(got.len(), k, "replay stops at the corrupt frame");
        prop_assert!(tail.is_some(), "corruption is reported, not swallowed");
        for (r, (lsn, payload)) in got.iter().zip(&records) {
            prop_assert_eq!(r.lsn, *lsn);
            prop_assert_eq!(&r.payload, payload);
        }
    }

    /// Random and mutated tuple blobs decode to a typed error or to the
    /// one tuple that re-encodes to exactly those bytes.
    #[test]
    fn garbage_tuples_are_typed_errors_or_canonical(seed in 0u64..1_000_000) {
        let mut junk = Garbage(seed);
        for _ in 0..64 {
            let valid = encode_tuple(&Tuple::new((0..junk.below(4)).map(|_| match junk.below(4) {
                0 => Value::Null,
                1 => Value::Atom(Atom::Bool(junk.below(2) == 0)),
                2 => Value::Atom(Atom::Int(junk.next() as i64)),
                _ => Value::Atom(Atom::Str("λx".repeat(junk.below(3) as usize))),
            })));
            for bytes in [junk.mutate(&valid), junk.bytes(24)] {
                if let Ok(tuple) = decode_tuple(&bytes) {
                    prop_assert_eq!(encode_tuple(&tuple), bytes);
                }
            }
        }
    }

    /// `decode_frame` at every offset up to and including the end of a
    /// random or mutated log returns a typed result: a frame that lies
    /// inside the buffer, or an error. At the end it is always
    /// `Truncated`, which is how a frame scan knows to stop.
    #[test]
    fn decode_frame_at_every_offset_is_typed(seed in 0u64..1_000_000) {
        let mut junk = Garbage(seed);
        let mut log = Vec::new();
        for lsn in 1..=4u64 {
            let payload = junk.bytes(24);
            let span = (junk.below(2) == 0).then(|| (junk.next() | 1, junk.next()));
            wal::append_record_spanned(&mut log, lsn, Some(junk.next()), span, &payload);
        }
        for bytes in [junk.mutate(&log), junk.mutate(&log), junk.bytes(96)] {
            for at in 0..=bytes.len() {
                match wal::decode_frame(&bytes, at) {
                    Ok((record, len)) => {
                        prop_assert!(at + len <= bytes.len(), "frame at {} overruns", at);
                        prop_assert_eq!(record.frame_len(), len);
                    }
                    Err(e) => prop_assert!(
                        at < bytes.len() || e == wal::WalError::Truncated { at },
                        "at the end: {:?}",
                        e
                    ),
                }
            }
        }
    }
}
