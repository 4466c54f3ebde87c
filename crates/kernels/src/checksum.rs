//! FNV-1a-64 rolling checksum: the integrity layer's chain-boundary
//! check.
//!
//! Every DSA hop (and the driver, for the end-to-end mode) folds the
//! batch it forwards into one of these; a mismatch against the
//! upstream digest means a silent bit flip happened somewhere in
//! between. FNV-1a is not cryptographic — it models the cheap
//! streaming CRC/checksum block a production DMA engine would bolt
//! onto its datapath: one multiply and one xor per byte, incremental,
//! order-sensitive, and guaranteed to change under any single-bit
//! flip (the xor folds the flipped byte in before the avalanching
//! multiply).

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One-shot digest of a byte buffer.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut c = Checksum::new();
    c.update(bytes);
    c.digest()
}

/// An incremental FNV-1a-64 checksum, for digesting a batch as it
/// streams through a boundary chunk by chunk.
///
/// ```
/// use dmx_kernels::checksum::{fnv1a, Checksum};
/// let mut c = Checksum::new();
/// c.update(b"hello ");
/// c.update(b"world");
/// assert_eq!(c.digest(), fnv1a(b"hello world"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checksum {
    state: u64,
}

impl Checksum {
    /// Starts a fresh digest.
    pub fn new() -> Self {
        Checksum { state: FNV_OFFSET }
    }

    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.state;
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self.state = h;
    }

    /// The digest over everything folded in so far.
    pub fn digest(&self) -> u64 {
        self.state
    }
}

impl Default for Checksum {
    fn default() -> Self {
        Checksum::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Applies silent bit flips to a payload in place: each
    /// `(offset, bit)` pair XORs one bit. Offsets at or past the buffer
    /// end are ignored.
    fn apply_bit_flips(bytes: &mut [u8], flips: impl IntoIterator<Item = (u64, u8)>) {
        for (offset, bit) in flips {
            if let Some(b) = bytes.get_mut(offset as usize) {
                *b ^= 1 << (bit & 7);
            }
        }
    }

    #[test]
    fn matches_known_fnv1a_vectors() {
        // Reference values from the FNV specification.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i * 37) as u8).collect();
        let mut c = Checksum::new();
        for chunk in data.chunks(97) {
            c.update(chunk);
        }
        assert_eq!(c.digest(), fnv1a(&data));
    }

    #[test]
    fn any_single_bit_flip_changes_digest() {
        let data: Vec<u8> = (0..256u32).map(|i| i as u8).collect();
        let clean = fnv1a(&data);
        for offset in [0u64, 1, 128, 255] {
            for bit in 0..8u8 {
                let mut flipped = data.clone();
                apply_bit_flips(&mut flipped, [(offset, bit)]);
                assert_ne!(fnv1a(&flipped), clean, "flip at {offset}:{bit}");
                // Flipping twice restores the payload and the digest.
                apply_bit_flips(&mut flipped, [(offset, bit)]);
                assert_eq!(fnv1a(&flipped), clean);
            }
        }
    }

    #[test]
    fn out_of_range_flips_are_ignored() {
        let mut data = vec![0u8; 16];
        apply_bit_flips(&mut data, [(16, 0), (1 << 40, 7)]);
        assert_eq!(data, vec![0u8; 16]);
    }
}
