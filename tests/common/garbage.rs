//! Garbage inputs for the decoder suites: random byte strings and small
//! edits of valid encodings, drawn from one seeded splitmix64 stream so
//! a failing case replays exactly from its seed.

/// A seeded source of garbage bytes.
pub struct Garbage(pub u64);

impl Garbage {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Up to `max_len` uniformly random bytes.
    pub fn bytes(&mut self, max_len: usize) -> Vec<u8> {
        let len = self.below(max_len as u64 + 1) as usize;
        (0..len).map(|_| self.next() as u8).collect()
    }

    /// `valid` after one to three random edits: a bit flip, a byte
    /// overwrite, a cut, an inserted byte or a duplicated run.
    pub fn mutate(&mut self, valid: &[u8]) -> Vec<u8> {
        let mut out = valid.to_vec();
        for _ in 0..=self.below(2) {
            let at = self.below(out.len() as u64 + 1) as usize;
            match (self.below(5), out.get_mut(at)) {
                (0, Some(byte)) => *byte ^= 1 << (self.next() % 8),
                (1, Some(byte)) => *byte = self.next() as u8,
                (2, _) => out.truncate(at),
                (3, _) => out.insert(at, self.next() as u8),
                _ => {
                    let end = (at + 1 + self.below(8) as usize).min(out.len());
                    let run = out[at..end].to_vec();
                    out.splice(at..at, run);
                }
            }
        }
        out
    }
}
