//! Stable content hashing for uniform bindings and other draw inputs.
//!
//! The draw-plan and tile caches in `mgpu-gles` key cached execution
//! state by the *content* of bound uniforms, varying corners and texel
//! regions, so the hashes here must be stable across processes and
//! runs — [`std::collections::HashMap`]'s `RandomState` (or anything
//! keyed off addresses or iteration order) is unusable. Everything is
//! hashed through 64-bit FNV-1a over an explicit, documented byte
//! encoding:
//!
//! * `f32` values hash as their IEEE-754 bit patterns, so `-0.0 != 0.0`
//!   and every NaN payload is distinguished — bitwise identity is the
//!   contract of the whole execution stack, and the hash must not be
//!   coarser than it;
//! * uniform bindings hash in **name-sorted** order, making the hash
//!   independent of insertion order and of `HashMap` iteration order.
//!
//! These are 64-bit content hashes for caching, not cryptographic
//! digests.

use crate::vm::UniformValues;

/// 64-bit FNV-1a running hash with explicit write methods.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv64 {
    /// A hasher in its initial state.
    #[must_use]
    pub const fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` (little-endian byte order).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a `u32` (little-endian byte order).
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Absorbs an `f32` as its exact bit pattern.
    pub fn write_f32(&mut self, v: f32) {
        self.write_u32(v.to_bits());
    }

    /// Absorbs a length-prefixed string.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The current hash value.
    #[must_use]
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// Hashes a flat slice of `f32`s by bit pattern (length included).
#[must_use]
pub fn hash_f32_bits(values: &[f32]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(values.len() as u64);
    for &v in values {
        h.write_f32(v);
    }
    h.finish()
}

impl UniformValues {
    /// A stable hash of the bound uniform values: name-sorted, values by
    /// f32 bit pattern. Independent of insertion order; sensitive to every
    /// bit of every component. The draw-plan cache uses this to detect
    /// uniform changes between draws.
    #[must_use]
    pub fn stable_hash(&self) -> u64 {
        let mut entries: Vec<(&str, [f32; 4])> = self.entries().collect();
        entries.sort_by_key(|(name, _)| *name);
        let mut h = Fnv64::new();
        h.write_u64(entries.len() as u64);
        for (name, v) in entries {
            h.write_str(name);
            for c in v {
                h.write_f32(c);
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_hash_ignores_insertion_order() {
        let mut u1 = UniformValues::new();
        u1.set_scalar("a", 1.0).set_scalar("b", 2.0);
        let mut u2 = UniformValues::new();
        u2.set_scalar("b", 2.0).set_scalar("a", 1.0);
        assert_eq!(u1.stable_hash(), u2.stable_hash());
    }

    #[test]
    fn uniform_hash_sees_every_bit() {
        let mut u1 = UniformValues::new();
        u1.set_scalar("x", 0.0);
        let mut u2 = UniformValues::new();
        u2.set_scalar("x", -0.0);
        assert_ne!(u1.stable_hash(), u2.stable_hash(), "sign of zero matters");
        let mut u3 = UniformValues::new();
        u3.set("x", [0.0, 1.0, 0.0, 0.0]);
        let mut u4 = UniformValues::new();
        u4.set("x", [0.0, 0.0, 1.0, 0.0]);
        assert_ne!(
            u3.stable_hash(),
            u4.stable_hash(),
            "component position matters"
        );
    }

    #[test]
    fn f32_slice_hash_distinguishes_lengths() {
        assert_ne!(hash_f32_bits(&[0.0]), hash_f32_bits(&[0.0, 0.0]));
    }
}
