//! Content hashing: FNV-1a with a 128-bit state, behind serve cache keys
//! and output digests, infer cost keys and the golden-file digests.
//!
//! A key must only ever collide for byte-identical content; at the job
//! volumes a single server sees (≪ 2^40), a 128-bit FNV-1a state gives a
//! collision probability far below any operational concern while staying
//! a ten-line, dependency-free function. The hash is **stable across
//! runs, platforms and versions of this crate** — it is part of the
//! on-disk cache format and every committed digest, so changing it
//! invalidates every persisted result (bump the cache file version).

/// FNV-1a/128 offset basis.
const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// FNV-1a/128 prime.
const PRIME: u128 = 0x0000000001000000000000000000013b;

/// An incremental FNV-1a 128-bit hasher.
#[derive(Clone, Copy, Debug)]
pub struct Fnv128 {
    state: u128,
}

impl Default for Fnv128 {
    fn default() -> Fnv128 {
        Fnv128::new()
    }
}

impl Fnv128 {
    /// A fresh hasher at the offset basis.
    pub fn new() -> Fnv128 {
        Fnv128 { state: OFFSET }
    }

    /// Absorbs `bytes`.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Fnv128 {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(PRIME);
        }
        self
    }

    /// Absorbs a length-prefixed field: the 8-byte little-endian length
    /// followed by the bytes. Prefixing makes the framing injective —
    /// `("ab","c")` and `("a","bc")` hash differently.
    pub fn field(&mut self, bytes: &[u8]) -> &mut Fnv128 {
        self.update(&(bytes.len() as u64).to_le_bytes());
        self.update(bytes)
    }

    /// Absorbs a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) -> &mut Fnv128 {
        self.update(&v.to_le_bytes())
    }

    /// The digest as 32 lowercase hex characters.
    pub fn hex(&self) -> String {
        format!("{:032x}", self.state)
    }
}

/// One-shot convenience: the FNV-1a/128 hex digest of `bytes`.
pub fn fnv128_hex(bytes: &[u8]) -> String {
    let mut h = Fnv128::new();
    h.update(bytes);
    h.hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // FNV-1a/128 of the empty string is the offset basis.
        assert_eq!(fnv128_hex(b""), "6c62272e07bb014262b821756295c58d");
        // Published FNV-1a/128 test vector for "a".
        assert_eq!(fnv128_hex(b"a"), "d228cb696f1a8caf78912b704e4a8964");
    }

    #[test]
    fn incremental_matches_one_shot() {
        let mut h = Fnv128::new();
        h.update(b"hello ").update(b"world");
        assert_eq!(h.hex(), fnv128_hex(b"hello world"));
    }

    #[test]
    fn field_framing_is_injective() {
        let mut a = Fnv128::new();
        a.field(b"ab").field(b"c");
        let mut b = Fnv128::new();
        b.field(b"a").field(b"bc");
        assert_ne!(a.hex(), b.hex());
    }

    #[test]
    fn single_byte_sensitivity() {
        assert_ne!(fnv128_hex(b"tcsim"), fnv128_hex(b"tcsiM"));
        assert_eq!(fnv128_hex(b"tcsim").len(), 32);
    }
}
