//! AES-128 in counter mode: the Personal Information Redaction
//! pipeline's decryption kernel (the paper uses a Vitis AES-GCM
//! accelerator; CTR is the confidentiality core of GCM and exercises
//! the same streaming datapath).
//!
//! This is a straightforward table-free implementation of FIPS-197 for
//! a benign purpose: decrypting the benchmark's own synthetic inputs.

const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

fn xtime(x: u8) -> u8 {
    (x << 1) ^ (((x >> 7) & 1) * 0x1b)
}

/// An expanded AES-128 key schedule.
#[derive(Debug, Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
}

impl Aes128 {
    /// Expands a 128-bit key.
    pub fn new(key: &[u8; 16]) -> Aes128 {
        let mut w = [[0u8; 4]; 44];
        for i in 0..4 {
            w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
        }
        for i in 4..44 {
            let mut t = w[i - 1];
            if i % 4 == 0 {
                t.rotate_left(1);
                for b in &mut t {
                    *b = SBOX[*b as usize];
                }
                t[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ t[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for r in 0..11 {
            for c in 0..4 {
                round_keys[r][4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        Aes128 { round_keys }
    }

    /// Encrypts one 16-byte block in place.
    pub(crate) fn encrypt_block(&self, block: &mut [u8; 16]) {
        let add = |b: &mut [u8; 16], k: &[u8; 16]| {
            for i in 0..16 {
                b[i] ^= k[i];
            }
        };
        let sub_shift = |b: &mut [u8; 16]| {
            for v in b.iter_mut() {
                *v = SBOX[*v as usize];
            }
            // ShiftRows on column-major state layout: row r rotates by r.
            let orig = *b;
            for r in 1..4 {
                for c in 0..4 {
                    b[4 * c + r] = orig[4 * ((c + r) % 4) + r];
                }
            }
        };
        let mix = |b: &mut [u8; 16]| {
            for c in 0..4 {
                let col = [b[4 * c], b[4 * c + 1], b[4 * c + 2], b[4 * c + 3]];
                b[4 * c] = xtime(col[0]) ^ xtime(col[1]) ^ col[1] ^ col[2] ^ col[3];
                b[4 * c + 1] = col[0] ^ xtime(col[1]) ^ xtime(col[2]) ^ col[2] ^ col[3];
                b[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ xtime(col[3]) ^ col[3];
                b[4 * c + 3] = xtime(col[0]) ^ col[0] ^ col[1] ^ col[2] ^ xtime(col[3]);
            }
        };
        add(block, &self.round_keys[0]);
        for r in 1..10 {
            sub_shift(block);
            mix(block);
            add(block, &self.round_keys[r]);
        }
        sub_shift(block);
        add(block, &self.round_keys[10]);
    }

    /// CTR-mode keystream transform: encrypting and decrypting are the
    /// same operation. `nonce` occupies the first 12 bytes of the
    /// counter block; the block counter is big-endian in the last 4.
    pub fn ctr_transform(&self, nonce: &[u8; 12], data: &mut [u8]) {
        let mut counter_block = [0u8; 16];
        counter_block[..12].copy_from_slice(nonce);
        for (i, chunk) in data.chunks_mut(16).enumerate() {
            counter_block[12..].copy_from_slice(&(i as u32).to_be_bytes());
            let mut ks = counter_block;
            self.encrypt_block(&mut ks);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fips197_appendix_b_vector() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let mut block = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        Aes128::new(&key).encrypt_block(&mut block);
        let expect = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        assert_eq!(block, expect);
    }

    #[test]
    fn ctr_round_trips() {
        let key = [7u8; 16];
        let nonce = [3u8; 12];
        let aes = Aes128::new(&key);
        let plain: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        let mut data = plain.clone();
        aes.ctr_transform(&nonce, &mut data);
        assert_ne!(data, plain, "ciphertext differs from plaintext");
        aes.ctr_transform(&nonce, &mut data);
        assert_eq!(data, plain, "CTR is an involution");
    }

    #[test]
    fn ctr_handles_partial_final_block() {
        let aes = Aes128::new(&[1u8; 16]);
        let mut data = vec![0u8; 17];
        aes.ctr_transform(&[0u8; 12], &mut data);
        let mut back = data.clone();
        aes.ctr_transform(&[0u8; 12], &mut back);
        assert_eq!(back, vec![0u8; 17]);
    }

    #[test]
    fn different_nonces_differ() {
        let aes = Aes128::new(&[9u8; 16]);
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        aes.ctr_transform(&[1u8; 12], &mut a);
        aes.ctr_transform(&[2u8; 12], &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn keystream_blocks_differ() {
        // Counter increments must change every block.
        let aes = Aes128::new(&[5u8; 16]);
        let mut data = vec![0u8; 48];
        aes.ctr_transform(&[0u8; 12], &mut data);
        assert_ne!(&data[0..16], &data[16..32]);
        assert_ne!(&data[16..32], &data[32..48]);
    }
}
