//! Binary codec for tuples.
//!
//! Encodes `dme-value` tuples into compact byte strings for heap storage
//! and index keys. The encoding is self-delimiting and **order-exact for
//! index keys** in the common case of same-shaped tuples: values encode
//! with a tag byte (null < bool < int < str) followed by a
//! big-endian/offset payload, so the byte order of two encoded tuples of
//! the same arity and value shapes matches the tuples' representation
//! order.

use std::fmt;

use bytes::BufMut;

use dme_value::{Atom, Tuple, Value};

use crate::read::{ReadError, Reader};

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_STR: u8 = 3;

/// Errors raised while decoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended mid-value.
    Truncated,
    /// An unknown tag byte.
    BadTag(u8),
    /// A string payload was not valid UTF-8.
    BadUtf8,
    /// A boolean value byte was neither 0 nor 1.
    BadBool(u8),
    /// Bytes followed the tuple's last value.
    Trailing(usize),
}

impl From<ReadError> for CodecError {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::Truncated { .. } => CodecError::Truncated,
            ReadError::Trailing { extra, .. } => CodecError::Trailing(extra),
            ReadError::BadBool { byte, .. } => CodecError::BadBool(byte),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated record"),
            CodecError::BadTag(t) => write!(f, "unknown value tag {t}"),
            CodecError::BadUtf8 => write!(f, "invalid utf-8 in string value"),
            CodecError::BadBool(b) => write!(f, "bad boolean byte {b:#04x}"),
            CodecError::Trailing(n) => write!(f, "{n} trailing bytes after the tuple"),
        }
    }
}

impl std::error::Error for CodecError {}

fn encode_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.put_u8(TAG_NULL),
        Value::Atom(Atom::Bool(b)) => {
            out.put_u8(TAG_BOOL);
            out.put_u8(*b as u8);
        }
        Value::Atom(Atom::Int(i)) => {
            out.put_u8(TAG_INT);
            // Offset encoding keeps byte order == numeric order.
            out.put_u64((*i as u64) ^ (1 << 63));
        }
        Value::Atom(Atom::Str(s)) => {
            out.put_u8(TAG_STR);
            out.put_u32(s.len() as u32);
            out.put_slice(s.as_bytes());
        }
    }
}

fn decode_value(r: &mut Reader<'_>) -> Result<Value, CodecError> {
    match r.u8()? {
        TAG_NULL => Ok(Value::Null),
        TAG_BOOL => Ok(Value::bool(r.bool()?)),
        TAG_INT => Ok(Value::int((r.u64()? ^ (1 << 63)) as i64)),
        TAG_STR => {
            let len = r.u32()? as usize;
            let s = std::str::from_utf8(r.take(len)?).map_err(|_| CodecError::BadUtf8)?;
            Ok(Value::str(s))
        }
        other => Err(CodecError::BadTag(other)),
    }
}

/// Encodes a tuple.
pub fn encode_tuple(t: &Tuple) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 * t.arity() + 2);
    out.put_u16(t.arity() as u16);
    for v in t.values() {
        encode_value(&mut out, v);
    }
    out
}

/// Decodes a tuple: exactly one, with no bytes after its last value.
pub fn decode_tuple(buf: &[u8]) -> Result<Tuple, CodecError> {
    let mut r = Reader::new(buf);
    let arity = usize::from(r.u16()?);
    let mut values = Vec::with_capacity(arity.min(r.remaining()));
    for _ in 0..arity {
        values.push(decode_value(&mut r)?);
    }
    r.finish()?;
    Ok(Tuple::new(values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dme_value::tuple;

    #[test]
    fn round_trip() {
        for t in [
            tuple![],
            tuple!["G.Wayshum", 50],
            tuple![Value::Null, "T.Manhart", "NZ745"],
            tuple![true, false, -5, i64::MIN, i64::MAX, ""],
        ] {
            let bytes = encode_tuple(&t);
            assert_eq!(decode_tuple(&bytes), Ok(t));
        }
    }

    #[test]
    fn int_key_order_matches_numeric_order() {
        let nums = [i64::MIN, -100, -1, 0, 1, 42, i64::MAX];
        let encoded: Vec<Vec<u8>> = nums.iter().map(|&n| encode_tuple(&tuple![n])).collect();
        let mut sorted = encoded.clone();
        sorted.sort();
        assert_eq!(encoded, sorted);
    }

    #[test]
    fn truncation_detected() {
        let bytes = encode_tuple(&tuple!["hello", 42]);
        for cut in 0..bytes.len() {
            assert!(
                decode_tuple(&bytes[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn bad_tag_detected() {
        let mut bytes = encode_tuple(&tuple![1]);
        bytes[2] = 99;
        assert_eq!(decode_tuple(&bytes), Err(CodecError::BadTag(99)));
    }

    #[test]
    fn bad_utf8_detected() {
        let mut bytes = encode_tuple(&tuple!["ab"]);
        let n = bytes.len();
        bytes[n - 1] = 0xff;
        assert_eq!(decode_tuple(&bytes), Err(CodecError::BadUtf8));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_tuple(&tuple!["x", 1]);
        bytes.extend_from_slice(&[0, 0]);
        assert_eq!(decode_tuple(&bytes), Err(CodecError::Trailing(2)));
        assert_eq!(decode_tuple(&[0, 0, 9]), Err(CodecError::Trailing(1)));
    }

    #[test]
    fn bool_bytes_other_than_0_and_1_are_rejected() {
        let mut bytes = encode_tuple(&tuple![true]);
        let n = bytes.len();
        bytes[n - 1] = 2;
        assert_eq!(decode_tuple(&bytes), Err(CodecError::BadBool(2)));
        bytes[n - 1] = 0xFF;
        assert_eq!(decode_tuple(&bytes), Err(CodecError::BadBool(0xFF)));
    }

    #[test]
    fn error_display() {
        assert_eq!(CodecError::Truncated.to_string(), "truncated record");
    }
}
