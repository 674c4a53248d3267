//! Content fingerprints: 64- and 128-bit hashes of a value's content.
//!
//! The equivalence kernel probes its state arena by a state's 64-bit
//! fingerprint and confirms every match with a full equality
//! comparison, so only the successors that are genuinely new get
//! interned. The semantic states keep theirs incrementally: each is the
//! XOR of per-element [`content_fingerprint`] hashes, maintained by the
//! state's mutators, so it is order- and path-independent — two equal
//! states carry equal fingerprints whichever operation sequence produced
//! them. Distinct states may collide.

use std::hash::{BuildHasherDefault, DefaultHasher, Hash, Hasher};

/// The stand-alone 64-bit content hash of one value, computed with the
/// standard library's [`DefaultHasher`] from a fixed initial state.
///
/// Deterministic within one build of the program (which is all the
/// kernel needs — fingerprints never cross process boundaries), and
/// consistent with `Eq`: equal values hash equally.
pub fn content_fingerprint<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// A seeded variant of [`content_fingerprint`]: the hash of
/// `(seed, value)` from the same fixed initial state. Different seeds
/// give independent hash families over the same value, which is what
/// wide (multi-word) keys are built from.
pub fn content_fingerprint_seeded<T: Hash + ?Sized>(seed: u64, value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    seed.hash(&mut hasher);
    value.hash(&mut hasher);
    hasher.finish()
}

/// A 128-bit content fingerprint: two independently-seeded 64-bit
/// hashes of the same value packed into one word. Used as a cache key
/// where 64-bit collisions are no longer negligible (e.g. the verdict
/// cache keys of `dme-core`'s incremental session, which index whole
/// model descriptions rather than single states).
///
/// Like [`content_fingerprint`], deterministic within one build only —
/// a persisted image keyed by wide fingerprints must treat a key miss
/// as a cold start, never as an error.
pub fn content_fingerprint_wide<T: Hash + ?Sized>(value: &T) -> u128 {
    let lo = content_fingerprint_seeded(0x9e37_79b9_7f4a_7c15, value);
    let hi = content_fingerprint_seeded(0xc2b2_ae3d_27d4_eb4f, value);
    ((hi as u128) << 64) | lo as u128
}

/// A [`Hasher`] that passes a 64-bit fingerprint through unchanged:
/// the key of a fingerprint-keyed map already is a uniform hash, so
/// hashing it again only costs time. Any other input is folded in byte
/// by byte, which keeps the hasher total but is not meant to be used.
#[derive(Clone, Copy, Debug, Default)]
pub struct FingerprintHasher(u64);

impl Hasher for FingerprintHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(*b);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The [`std::hash::BuildHasher`] of maps keyed by fingerprints (see
/// [`FingerprintHasher`]).
pub type FingerprintBuildHasher = BuildHasherDefault<FingerprintHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_fingerprint_is_deterministic_and_content_based() {
        let a = content_fingerprint(&(1u32, "x"));
        let b = content_fingerprint(&(1u32, "x"));
        assert_eq!(a, b);
        assert_ne!(a, content_fingerprint(&(2u32, "x")));
    }

    #[test]
    fn wide_fingerprint_is_deterministic_and_splits_collisions() {
        let a = content_fingerprint_wide(&"scenario");
        assert_eq!(a, content_fingerprint_wide(&"scenario"));
        assert_ne!(a, content_fingerprint_wide(&"scenari0"));
        // The two halves come from different seeds, so they differ.
        assert_ne!((a >> 64) as u64, a as u64);
        // Seeded hashes form distinct families.
        assert_ne!(
            content_fingerprint_seeded(1, &"x"),
            content_fingerprint_seeded(2, &"x")
        );
    }
}
