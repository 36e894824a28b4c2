//! The simulated-result digest: a 64-bit multiply-rotate hash fed word
//! by word. Bench-local on purpose — it pins simulated results across
//! product changes, so it must not move when a product hash does.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

const K: u64 = 0x9e37_79b9_7f4a_7c15;

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(K).rotate_left(29);
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Length-prefixed, so `ab|c` and `a|bc` differ.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.u64(u64::from_le_bytes(tail));
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_boundaries_and_order_matter() {
        let of = |parts: &[&[u8]]| {
            let mut d = Digest::new();
            for p in parts {
                d.bytes(p);
            }
            d.finish()
        };
        assert_eq!(of(&[b"abcdefghij"]), of(&[b"abcdefghij"]));
        assert_ne!(of(&[b"ab", b"c"]), of(&[b"a", b"bc"]));
        assert_ne!(of(&[b"abcdefghij"]), of(&[b"abcdefghji"]));
        assert_ne!(of(&[b""]), of(&[b"\0"]));
    }
}
