//! FNV-1a, the stable byte hash behind every digest in the workspace:
//! unlike `std`'s randomly keyed `DefaultHasher`, it gives the same value
//! across runs, builds and platforms.

use std::fmt;

/// A streaming 64-bit FNV-1a hasher. Writing bytes in several calls
/// hashes like writing their concatenation once, and [`fmt::Write`] lets
/// `write!(hasher, "{value:?}")` hash a formatted value without
/// allocating it.
///
/// [`new`](Self::new) is textbook FNV-1a. [`legacy`](Self::legacy)
/// multiplies by 2^44 + 0x1b3 instead of the published 2^40 + 0x1b3:
/// the RIB, export-group and migration-state digests were first written
/// with that constant, and every golden and pinned digest depends on it.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a {
    state: u64,
    prime: u64,
}

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// A textbook FNV-1a hasher.
    pub const fn new() -> Self {
        Fnv1a {
            state: Self::OFFSET,
            prime: 0x0000_0100_0000_01b3,
        }
    }

    /// A hasher with the legacy multiplier (odd, so still a bijection).
    pub const fn legacy() -> Self {
        Fnv1a {
            state: Self::OFFSET,
            prime: 0x0000_1000_0000_01b3,
        }
    }

    /// Mix `bytes` into the state.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(self.prime);
        }
    }

    /// Mix the UTF-8 bytes of `s` into the state.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
    }

    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        self.state
    }

    /// One-shot textbook FNV-1a of `bytes`.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.write(bytes);
        h.finish()
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        Fnv1a::write_str(self, s);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(Fnv1a::hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn legacy_differs_only_in_the_multiplier() {
        let mut h = Fnv1a::legacy();
        h.write(b"a");
        assert_eq!(
            h.finish(),
            (0xcbf2_9ce4_8422_2325 ^ u64::from(b'a')).wrapping_mul(0x1000_0000_01b3)
        );
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv1a::new();
        h.write_str("foo");
        write!(h, "{}", 42).expect("hashing cannot fail");
        assert_eq!(h.finish(), Fnv1a::hash(b"foo42"));
    }
}
