//! One bounded reader for big-endian, length-prefixed bytes.
//!
//! Every decoder of bytes that come from outside the process — WAL and
//! checkpoint frames, wire payloads, tuple blobs — reads through
//! [`Reader`]. It never panics: a read past the end is
//! [`ReadError::Truncated`], a boolean byte other than 0 or 1 is
//! [`ReadError::BadBool`], and bytes left over when the caller says the
//! message is complete are [`ReadError::Trailing`]. Slices come back
//! borrowed from the input, so decoders copy only what they keep.

use std::fmt;

/// Why a [`Reader`] refused to read. `at` is always the byte offset,
/// within the reader's input, where the failed read started.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadError {
    /// The input ended before `wanted` more bytes.
    Truncated {
        /// Offset of the read that ran off the end.
        at: usize,
        /// Bytes the read needed.
        wanted: usize,
    },
    /// The message ended with `extra` unread bytes.
    Trailing {
        /// Offset of the first unread byte.
        at: usize,
        /// Count of unread bytes.
        extra: usize,
    },
    /// A boolean byte was neither 0 nor 1.
    BadBool {
        /// Offset of the byte.
        at: usize,
        /// The byte read.
        byte: u8,
    },
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Truncated { at, wanted } => {
                write!(f, "truncated at byte {at} (wanted {wanted} more)")
            }
            ReadError::Trailing { at, extra } => {
                write!(f, "{extra} trailing bytes at byte {at}")
            }
            ReadError::BadBool { at, byte } => {
                write!(f, "bad boolean byte {byte:#04x} at byte {at}")
            }
        }
    }
}

impl std::error::Error for ReadError {}

/// A cursor over borrowed input bytes. Integers are big-endian.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the first byte of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    /// Whether every byte has been read.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        let bytes = self
            .at
            .checked_add(n)
            .and_then(|end| self.buf.get(self.at..end))
            .ok_or(ReadError::Truncated {
                at: self.at,
                wanted: n,
            })?;
        self.at += n;
        Ok(bytes)
    }

    /// Every byte not yet read (possibly none).
    pub fn rest(&mut self) -> &'a [u8] {
        let rest = self.buf.get(self.at..).unwrap_or_default();
        self.at = self.buf.len();
        rest
    }

    /// The bytes read so far.
    pub(crate) fn consumed(&self) -> &'a [u8] {
        self.buf.get(..self.at).unwrap_or_default()
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ReadError> {
        let at = self.at;
        self.take(N)?
            .try_into()
            .map_err(|_| ReadError::Truncated { at, wanted: N })
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, ReadError> {
        self.array().map(u8::from_be_bytes)
    }

    /// A big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, ReadError> {
        self.array().map(u16::from_be_bytes)
    }

    /// A big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ReadError> {
        self.array().map(u32::from_be_bytes)
    }

    /// A big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ReadError> {
        self.array().map(u64::from_be_bytes)
    }

    /// A boolean byte: 0 or 1, nothing else.
    pub fn bool(&mut self) -> Result<bool, ReadError> {
        let at = self.at;
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            byte => Err(ReadError::BadBool { at, byte }),
        }
    }

    /// Ends the message: fails if any byte is left unread.
    pub fn finish(&self) -> Result<(), ReadError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(ReadError::Trailing { at: self.at, extra }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_big_endian_fields_in_order() {
        let bytes = [1, 0, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 4, 1, 0xAA];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.u16(), Ok(2));
        assert_eq!(r.u32(), Ok(3));
        assert_eq!(r.u64(), Ok(4));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.consumed(), &bytes[..16]);
        assert_eq!(r.finish(), Err(ReadError::Trailing { at: 16, extra: 1 }));
        assert_eq!(r.rest(), &[0xAA]);
        assert_eq!(r.finish(), Ok(()));
        assert_eq!(r.rest(), &[] as &[u8]);
    }

    #[test]
    fn a_short_read_is_truncated_and_consumes_nothing() {
        let mut r = Reader::new(&[7, 8, 9]);
        assert_eq!(r.u32(), Err(ReadError::Truncated { at: 0, wanted: 4 }));
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.take(2), Ok(&[7, 8][..]));
        assert_eq!(r.u64(), Err(ReadError::Truncated { at: 2, wanted: 8 }));
        assert_eq!(
            r.take(usize::MAX),
            Err(ReadError::Truncated {
                at: 2,
                wanted: usize::MAX
            })
        );
        assert_eq!(r.remaining(), 1);
    }

    #[test]
    fn booleans_are_strict() {
        assert_eq!(Reader::new(&[0]).bool(), Ok(false));
        for byte in 2..=255u8 {
            assert_eq!(
                Reader::new(&[byte]).bool(),
                Err(ReadError::BadBool { at: 0, byte })
            );
        }
    }

    #[test]
    fn error_display() {
        assert_eq!(
            ReadError::Truncated { at: 3, wanted: 8 }.to_string(),
            "truncated at byte 3 (wanted 8 more)"
        );
        assert_eq!(
            ReadError::Trailing { at: 5, extra: 2 }.to_string(),
            "2 trailing bytes at byte 5"
        );
        assert!(ReadError::BadBool { at: 0, byte: 2 }
            .to_string()
            .contains("0x02"));
    }
}
