//! The write-ahead log: framed, checksummed, torn-write-tolerant.
//!
//! The session service's only durable state is a checkpoint plus a log
//! of committed transactions, so the WAL invariant is *log before
//! acknowledge*: a commit is reported to the client only after its
//! record is appended and synced. This module owns the byte format and
//! the replay logic; payloads are opaque to the storage level (the
//! server encodes conceptual deltas into them — "the internal schema
//! presumably contains much implementation information which has no
//! equivalent at the conceptual level", §3.2.3).
//!
//! ## Record framing
//!
//! ```text
//! [magic u16][flags u8][lsn u64][trace u64 ?][len u32][payload][checksum u64]
//! ```
//!
//! all big-endian; the checksum is FNV-1a over everything before it.
//! The flags byte gates optional fields: bit 0 ([`FLAG_TRACE`]) means an
//! 8-byte trace id follows the LSN, linking the record to one request's
//! observability trace (zero is reserved for "untraced" and never
//! framed); bit 1 ([`FLAG_SPAN`]) means two further 8-byte fields
//! follow — the appending step's span id and its parent span id within
//! the trace — so a cross-shard transaction's WAL frames carry enough
//! structure to be stitched back into one causal tree. Unknown flag
//! bits fail decoding with [`WalError::BadFlags`]
//! so a future format rev can't be silently misread. A crash can tear
//! the final record at any byte: [`replay_tolerant`] truncates the torn
//! tail and reports what it dropped, while [`replay`] returns a typed
//! [`WalError`] so callers who require a clean log (mid-log corruption
//! is *never* tolerated) can distinguish the shapes.

use std::fmt;

use bytes::BufMut;

use crate::read::Reader;

/// Magic leading every record, so a replay landing mid-garbage fails
/// fast instead of mis-framing.
pub const WAL_MAGIC: u16 = 0xDA7A;

/// Flags bit 0: the frame carries an 8-byte trace id after the LSN.
pub const FLAG_TRACE: u8 = 0x01;

/// Flags bit 1: the frame carries an 8-byte span id plus an 8-byte
/// parent span id after the trace field (causal-tree coordinates for
/// trace stitching).
pub const FLAG_SPAN: u8 = 0x02;

const KNOWN_FLAGS: u8 = FLAG_TRACE | FLAG_SPAN;

/// One replayed record: the log sequence number, the optional trace id
/// of the request that produced it, and the opaque payload, borrowed
/// from the decoded buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord<'a> {
    /// Monotonic log sequence number (assigned by the appender).
    pub lsn: u64,
    /// The producing request's trace id, when the appender recorded
    /// one. Opaque at this level (the observability layer renders it);
    /// zero is reserved and never stored.
    pub trace: Option<u64>,
    /// The appending step's `(span, parent)` causal-tree coordinates
    /// within the trace, when recorded. A span id of zero is reserved
    /// and never stored; a parent of zero marks a root step.
    pub span: Option<(u64, u64)>,
    /// Opaque payload bytes.
    pub payload: &'a [u8],
}

impl WalRecord<'_> {
    /// The encoded size of this record's frame in bytes.
    pub fn frame_len(&self) -> usize {
        frame_len(self.payload.len())
            + if self.trace.is_some() { 8 } else { 0 }
            + if self.span.is_some() { 16 } else { 0 }
    }
}

/// Typed replay failures. `at` is always the byte offset of the record
/// that failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalError {
    /// The log ended mid-record (a torn write).
    Truncated {
        /// Byte offset of the torn record's frame.
        at: usize,
    },
    /// A record's checksum did not match its bytes.
    BadChecksum {
        /// Byte offset of the corrupt record's frame.
        at: usize,
        /// The LSN the frame claimed (pre-verification, best effort).
        lsn: u64,
    },
    /// A frame did not start with [`WAL_MAGIC`].
    BadMagic {
        /// Byte offset of the bad frame.
        at: usize,
    },
    /// A frame's flags byte set bits this decoder does not know.
    BadFlags {
        /// Byte offset of the bad frame.
        at: usize,
        /// The offending flags byte.
        flags: u8,
    },
    /// LSNs must be strictly increasing; the log violated that.
    NonMonotonicLsn {
        /// The previous record's LSN.
        prev: u64,
        /// The offending record's LSN.
        next: u64,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Truncated { at } => write!(f, "torn record at byte {at}"),
            WalError::BadChecksum { at, lsn } => {
                write!(f, "checksum mismatch at byte {at} (claimed lsn {lsn})")
            }
            WalError::BadMagic { at } => write!(f, "bad record magic at byte {at}"),
            WalError::BadFlags { at, flags } => {
                write!(f, "unknown record flags {flags:#04x} at byte {at}")
            }
            WalError::NonMonotonicLsn { prev, next } => {
                write!(f, "non-monotonic lsn {next} after {prev}")
            }
        }
    }
}

impl std::error::Error for WalError {}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Appends one untraced framed record to `buf` and returns the encoded
/// frame length in bytes.
pub fn append_record(buf: &mut Vec<u8>, lsn: u64, payload: &[u8]) -> usize {
    append_record_traced(buf, lsn, None, payload)
}

/// Appends one framed record carrying an optional trace id. A zero
/// trace is normalized to "untraced" (zero is the codec's reserved
/// sentinel). Returns the encoded frame length in bytes.
pub fn append_record_traced(
    buf: &mut Vec<u8>,
    lsn: u64,
    trace: Option<u64>,
    payload: &[u8],
) -> usize {
    append_record_spanned(buf, lsn, trace, None, payload)
}

/// Appends one framed record carrying an optional trace id and optional
/// `(span, parent)` causal-tree coordinates. Zero trace and zero span
/// ids are normalized to "absent" (both are reserved sentinels).
/// Returns the encoded frame length in bytes.
pub fn append_record_spanned(
    buf: &mut Vec<u8>,
    lsn: u64,
    trace: Option<u64>,
    span: Option<(u64, u64)>,
    payload: &[u8],
) -> usize {
    let trace = trace.filter(|t| *t != 0);
    let span = span.filter(|(s, _)| *s != 0);
    let start = buf.len();
    buf.put_u16(WAL_MAGIC);
    let mut flags = 0u8;
    if trace.is_some() {
        flags |= FLAG_TRACE;
    }
    if span.is_some() {
        flags |= FLAG_SPAN;
    }
    buf.put_u8(flags);
    buf.put_u64(lsn);
    if let Some(t) = trace {
        buf.put_u64(t);
    }
    if let Some((s, p)) = span {
        buf.put_u64(s);
        buf.put_u64(p);
    }
    buf.put_u32(payload.len() as u32);
    buf.put_slice(payload);
    let checksum = fnv1a(&buf[start..]);
    buf.put_u64(checksum);
    buf.len() - start
}

/// The encoded size of an *untraced* record carrying `payload_len`
/// payload bytes. Traced records add 8 (see [`WalRecord::frame_len`]).
pub fn frame_len(payload_len: usize) -> usize {
    2 + 1 + 8 + 4 + payload_len + 8
}

/// Decodes the single frame starting at byte `at`, returning the record
/// and its encoded frame length. This is the streaming entry point the
/// network transport uses: a connection accumulates bytes and peels
/// complete frames off the front, treating [`WalError::Truncated`] as
/// "wait for more bytes" and every other error as a corrupt stream.
pub fn decode_frame(buf: &[u8], at: usize) -> Result<(WalRecord<'_>, usize), WalError> {
    let mut r = Reader::new(buf.get(at..).unwrap_or_default());
    let torn = |_| WalError::Truncated { at };
    if r.u16().map_err(torn)? != WAL_MAGIC {
        return Err(WalError::BadMagic { at });
    }
    let flags = r.u8().map_err(torn)?;
    if flags & !KNOWN_FLAGS != 0 {
        return Err(WalError::BadFlags { at, flags });
    }
    let lsn = r.u64().map_err(torn)?;
    let trace = match flags & FLAG_TRACE {
        0 => None,
        _ => Some(r.u64().map_err(torn)?),
    };
    let span = match flags & FLAG_SPAN {
        0 => None,
        _ => Some((r.u64().map_err(torn)?, r.u64().map_err(torn)?)),
    };
    let len = r.u32().map_err(torn)? as usize;
    let payload = r.take(len).map_err(torn)?;
    let covered = r.consumed();
    let stored = r.u64().map_err(torn)?;
    if fnv1a(covered) != stored {
        return Err(WalError::BadChecksum { at, lsn });
    }
    let record = WalRecord {
        lsn,
        trace,
        span,
        payload,
    };
    Ok((record, r.consumed().len()))
}

/// Strict replay: decodes every record or returns the typed error of
/// the first frame that fails. Use this when the log is expected to be
/// clean (e.g. after a graceful shutdown).
pub fn replay(buf: &[u8]) -> Result<Vec<WalRecord<'_>>, WalError> {
    match replay_tolerant(buf) {
        (records, None) => Ok(records),
        (_, Some(e)) => Err(e),
    }
}

/// Crash-tolerant replay: decodes the longest clean prefix of records.
/// A torn or corrupt **final** frame is truncated (its error is
/// returned alongside the prefix so callers can log it); a bad frame
/// *followed by more decodable data* still truncates there — once the
/// tail is suspect nothing after it can be trusted, which is exactly
/// the prefix-consistency recovery needs.
pub fn replay_tolerant(buf: &[u8]) -> (Vec<WalRecord<'_>>, Option<WalError>) {
    let mut records: Vec<WalRecord> = Vec::new();
    let mut at = 0;
    while at < buf.len() {
        let (record, frame) = match decode_frame(buf, at) {
            Ok(decoded) => decoded,
            Err(e) => return (records, Some(e)),
        };
        let next = record.lsn;
        if let Some(prev) = records.last().map(|r| r.lsn).filter(|&prev| next <= prev) {
            return (records, Some(WalError::NonMonotonicLsn { prev, next }));
        }
        records.push(record);
        at += frame;
    }
    (records, None)
}

/// The last record of a log whose frames each carry a full snapshot
/// (the checkpoint protocol: checkpoints are *appended*, so a torn
/// checkpoint write simply falls back to the previous one). Returns the
/// latest fully-written checkpoint, if any, plus the error describing a
/// dropped tail.
pub fn latest_checkpoint(buf: &[u8]) -> (Option<WalRecord<'_>>, Option<WalError>) {
    let (mut records, err) = replay_tolerant(buf);
    (records.pop(), err)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log3() -> Vec<u8> {
        let mut buf = Vec::new();
        append_record(&mut buf, 1, b"alpha");
        append_record(&mut buf, 2, b"");
        append_record(&mut buf, 3, b"gamma-gamma");
        buf
    }

    #[test]
    fn round_trips() {
        let log = log3();
        let records = replay(&log).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].payload, b"alpha");
        assert_eq!(records[0].trace, None);
        assert_eq!(records[1].payload, b"");
        assert_eq!(records[2].lsn, 3);
    }

    #[test]
    fn traced_records_round_trip_and_mix_with_untraced() {
        let mut buf = Vec::new();
        let n1 = append_record_traced(&mut buf, 1, Some(0xDEAD_BEEF), b"one");
        let n2 = append_record(&mut buf, 2, b"two");
        assert_eq!(n1, frame_len(3) + 8);
        assert_eq!(n2, frame_len(3));
        let records = replay(&buf).unwrap();
        assert_eq!(records[0].trace, Some(0xDEAD_BEEF));
        assert_eq!(records[0].frame_len(), n1);
        assert_eq!(records[1].trace, None);
        assert_eq!(records[1].frame_len(), n2);
    }

    #[test]
    fn spanned_records_round_trip_and_mix_with_plain() {
        let mut buf = Vec::new();
        let n1 = append_record_spanned(&mut buf, 1, Some(0xFEED), Some((4, 2)), b"one");
        let n2 = append_record_spanned(&mut buf, 2, None, Some((9, 0)), b"two");
        let n3 = append_record(&mut buf, 3, b"three");
        assert_eq!(n1, frame_len(3) + 8 + 16);
        assert_eq!(n2, frame_len(3) + 16);
        let records = replay(&buf).unwrap();
        assert_eq!(records[0].trace, Some(0xFEED));
        assert_eq!(records[0].span, Some((4, 2)));
        assert_eq!(records[0].frame_len(), n1);
        assert_eq!(records[1].trace, None);
        assert_eq!(records[1].span, Some((9, 0)), "parent 0 = root step");
        assert_eq!(records[2].span, None);
        assert_eq!(records[2].frame_len(), n3);
        // Zero span ids are normalized away like zero traces.
        let mut buf = Vec::new();
        let n = append_record_spanned(&mut buf, 1, Some(7), Some((0, 5)), b"x");
        assert_eq!(n, frame_len(1) + 8);
        assert_eq!(replay(&buf).unwrap()[0].span, None);
    }

    #[test]
    fn torn_spanned_tail_is_detected() {
        let mut buf = Vec::new();
        append_record(&mut buf, 1, b"ok");
        let clean = buf.len();
        append_record_spanned(&mut buf, 2, Some(7), Some((3, 1)), b"torn");
        for cut in clean + 1..buf.len() {
            let (records, err) = replay_tolerant(&buf[..cut]);
            assert_eq!(records.len(), 1, "cut at {cut}");
            assert!(matches!(err, Some(WalError::Truncated { .. })));
        }
    }

    #[test]
    fn zero_trace_is_normalized_to_untraced() {
        let mut buf = Vec::new();
        let n = append_record_traced(&mut buf, 1, Some(0), b"x");
        assert_eq!(n, frame_len(1));
        assert_eq!(replay(&buf).unwrap()[0].trace, None);
    }

    #[test]
    fn every_torn_tail_is_detected_and_truncated() {
        let buf = log3();
        let two = frame_len(5) + frame_len(0);
        for cut in two + 1..buf.len() {
            let torn = &buf[..cut];
            assert!(matches!(replay(torn), Err(WalError::Truncated { .. })));
            let (records, err) = replay_tolerant(torn);
            assert_eq!(records.len(), 2, "cut at {cut} keeps the clean prefix");
            assert!(matches!(err, Some(WalError::Truncated { .. })));
        }
    }

    #[test]
    fn torn_traced_tail_is_detected() {
        let mut buf = Vec::new();
        append_record(&mut buf, 1, b"ok");
        let clean = buf.len();
        append_record_traced(&mut buf, 2, Some(7), b"torn");
        for cut in clean + 1..buf.len() {
            let (records, err) = replay_tolerant(&buf[..cut]);
            assert_eq!(records.len(), 1, "cut at {cut}");
            assert!(matches!(err, Some(WalError::Truncated { .. })));
        }
    }

    #[test]
    fn corrupt_final_record_is_typed_not_panicking() {
        let mut buf = log3();
        let n = buf.len();
        buf[n - 1] ^= 0xFF; // flip a checksum byte of the last record
        let at = frame_len(5) + frame_len(0);
        assert_eq!(replay(&buf), Err(WalError::BadChecksum { at, lsn: 3 }));
        let (records, err) = replay_tolerant(&buf);
        assert_eq!(records.len(), 2);
        assert!(matches!(err, Some(WalError::BadChecksum { .. })));
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let mut buf = log3();
        buf[2 + 1 + 8 + 4] ^= 0x01; // first payload byte of record 1
        assert!(matches!(
            replay(&buf),
            Err(WalError::BadChecksum { at: 0, .. })
        ));
        let (records, err) = replay_tolerant(&buf);
        assert!(records.is_empty());
        assert!(err.is_some());
    }

    #[test]
    fn bad_magic_detected() {
        let mut buf = log3();
        buf[0] = 0x00;
        assert_eq!(replay(&buf), Err(WalError::BadMagic { at: 0 }));
    }

    #[test]
    fn unknown_flag_bits_rejected() {
        let mut buf = Vec::new();
        append_record(&mut buf, 1, b"x");
        buf[2] |= 0x80; // set a flag bit no decoder version knows
        assert_eq!(replay(&buf), Err(WalError::BadFlags { at: 0, flags: 0x80 }));
        let (records, err) = replay_tolerant(&buf);
        assert!(records.is_empty());
        assert!(matches!(err, Some(WalError::BadFlags { .. })));
    }

    #[test]
    fn non_monotonic_lsns_rejected() {
        let mut buf = Vec::new();
        append_record(&mut buf, 5, b"a");
        append_record(&mut buf, 5, b"b");
        assert!(matches!(
            replay(&buf),
            Err(WalError::NonMonotonicLsn { prev: 5, next: 5 })
        ));
        let (records, err) = replay_tolerant(&buf);
        assert_eq!(records.len(), 1);
        assert!(err.is_some());
    }

    #[test]
    fn checkpoint_log_falls_back_past_a_torn_tail() {
        let mut buf = Vec::new();
        append_record(&mut buf, 10, b"checkpoint-at-10");
        let full = buf.len();
        append_record(&mut buf, 20, b"checkpoint-at-20");
        // Fully written: the latest wins.
        let (cp, err) = latest_checkpoint(&buf);
        assert_eq!(cp.as_ref().map(|c| c.lsn), Some(20));
        assert!(err.is_none());
        // Torn second write: fall back to the first.
        let (cp, err) = latest_checkpoint(&buf[..full + 7]);
        assert_eq!(cp.as_ref().map(|c| c.lsn), Some(10));
        assert!(matches!(err, Some(WalError::Truncated { .. })));
        // Nothing ever completed: no checkpoint.
        let (cp, _) = latest_checkpoint(&buf[..3]);
        assert!(cp.is_none());
    }

    #[test]
    fn error_display() {
        assert_eq!(
            WalError::Truncated { at: 7 }.to_string(),
            "torn record at byte 7"
        );
        assert!(WalError::BadChecksum { at: 0, lsn: 3 }
            .to_string()
            .contains("checksum"));
        assert!(WalError::BadFlags { at: 0, flags: 0x80 }
            .to_string()
            .contains("0x80"));
    }
}
