//! Functional byte-level adapters: run the actual `dmx-kernels`
//! algorithms behind the accelerator models, so examples and tests can
//! push real data through a chain while the catalog supplies timing.

use crate::catalog::AccelKind;
use dmx_kernels::{aes, fft, join, lz, regex, token, video};

/// A functional kernel: bytes in, bytes out.
pub trait Functional {
    /// Which accelerator this implements.
    fn kind(&self) -> AccelKind;
    /// Processes one batch.
    fn process(&self, input: &[u8]) -> Vec<u8>;
}

/// FFT accelerator: input `f32` samples, output interleaved complex
/// one-sided STFT spectra (frame 512, hop 256).
#[derive(Debug, Clone, Copy, Default)]
pub struct FftAccel;

impl Functional for FftAccel {
    fn kind(&self) -> AccelKind {
        AccelKind::Fft
    }

    fn process(&self, input: &[u8]) -> Vec<u8> {
        let samples: Vec<f32> = input
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("sized")))
            .collect();
        let (spec, _frames, _bins) = fft::stft(&samples, 512, 256);
        spec.iter()
            .flat_map(|c| {
                let mut b = c.re.to_le_bytes().to_vec();
                b.extend(c.im.to_le_bytes());
                b
            })
            .collect()
    }
}

/// AES-128-CTR decryption accelerator (fixed demo key/nonce).
#[derive(Debug, Clone)]
pub struct AesAccel {
    cipher: aes::Aes128,
    nonce: [u8; 12],
}

impl Default for AesAccel {
    fn default() -> Self {
        AesAccel {
            cipher: aes::Aes128::new(b"dmx-demo-key-16B"),
            nonce: *b"dmx-nonce-12",
        }
    }
}

impl AesAccel {
    /// Encrypts plaintext (CTR is an involution, so this is also the
    /// decryptor the pipeline runs).
    pub fn encrypt(&self, data: &[u8]) -> Vec<u8> {
        self.process(data)
    }
}

impl Functional for AesAccel {
    fn kind(&self) -> AccelKind {
        AccelKind::AesGcm
    }

    fn process(&self, input: &[u8]) -> Vec<u8> {
        let mut out = input.to_vec();
        self.cipher.ctr_transform(&self.nonce, &mut out);
        out
    }
}

/// Regex PII-redaction accelerator.
#[derive(Debug)]
pub struct RegexAccel {
    patterns: Vec<regex::Regex>,
}

impl RegexAccel {
    /// Compiles redaction patterns.
    ///
    /// # Errors
    ///
    /// Returns the first pattern error.
    pub(crate) fn new(patterns: &[&str]) -> Result<RegexAccel, regex::RegexError> {
        Ok(RegexAccel {
            patterns: patterns
                .iter()
                .map(|p| regex::Regex::new(p))
                .collect::<Result<_, _>>()?,
        })
    }

    /// The default PII patterns (SSN-like ids and e-mail addresses).
    pub fn pii() -> RegexAccel {
        RegexAccel::new(&[r"\d\d\d-\d\d-\d\d\d\d", r"\w+@\w+\.\w+"]).expect("valid patterns")
    }
}

impl Functional for RegexAccel {
    fn kind(&self) -> AccelKind {
        AccelKind::Regex
    }

    fn process(&self, input: &[u8]) -> Vec<u8> {
        let mut text = input.to_vec();
        for p in &self.patterns {
            text = p.redact(&text, b'#').0;
        }
        text
    }
}

/// Gzip-class decompression accelerator.
#[derive(Debug, Clone, Copy, Default)]
pub struct GzipAccel;

impl Functional for GzipAccel {
    fn kind(&self) -> AccelKind {
        AccelKind::Gzip
    }

    fn process(&self, input: &[u8]) -> Vec<u8> {
        lz::decompress(input).expect("pipeline feeds valid streams")
    }
}

/// Hash-join accelerator: input is two concatenated row arrays
/// (`u64 key, u64 payload` pairs, build side length prefix).
#[derive(Debug, Clone, Copy, Default)]
pub struct JoinAccel;

impl Functional for JoinAccel {
    fn kind(&self) -> AccelKind {
        AccelKind::HashJoin
    }

    fn process(&self, input: &[u8]) -> Vec<u8> {
        let n_build = u64::from_le_bytes(input[..8].try_into().expect("sized")) as usize;
        let rows: Vec<join::Row> = input[8..]
            .chunks_exact(16)
            .map(|c| join::Row {
                key: u64::from_le_bytes(c[..8].try_into().expect("sized")),
                payload: u64::from_le_bytes(c[8..].try_into().expect("sized")),
            })
            .collect();
        let (build, probe) = rows.split_at(n_build);
        join::hash_join(build, probe)
            .iter()
            .flat_map(|j| {
                let mut b = j.key.to_le_bytes().to_vec();
                b.extend(j.left.to_le_bytes());
                b.extend(j.right.to_le_bytes());
                b
            })
            .collect()
    }
}

/// Video decoder accelerator (the toy codec from `dmx-kernels`).
#[derive(Debug, Clone, Copy, Default)]
pub struct VideoAccel;

impl Functional for VideoAccel {
    fn kind(&self) -> AccelKind {
        AccelKind::VideoDecode
    }

    fn process(&self, input: &[u8]) -> Vec<u8> {
        let frames = video::decode(input).expect("pipeline feeds valid streams");
        let mut out = Vec::new();
        for f in &frames {
            out.extend_from_slice(&f.y);
            out.extend_from_slice(&f.u);
            out.extend_from_slice(&f.v);
        }
        out
    }
}

/// BERT-NER stand-in: input `u32` token tensor, output one tag byte per
/// token (0 = outside, 1 = entity).
#[derive(Debug, Clone)]
pub struct NerAccel {
    mlp: dmx_kernels::nn::Mlp,
}

impl Default for NerAccel {
    fn default() -> Self {
        NerAccel {
            mlp: dmx_kernels::nn::Mlp::seeded(&[4, 32, 2], 2024),
        }
    }
}

impl Functional for NerAccel {
    fn kind(&self) -> AccelKind {
        AccelKind::BertNer
    }

    fn process(&self, input: &[u8]) -> Vec<u8> {
        let tokens: Vec<u32> = input
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("sized")))
            .collect();
        tokens
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let prev = if i > 0 { tokens[i - 1] } else { 0 };
                let feats = [
                    t as f32 / token::VOCAB_SIZE as f32,
                    prev as f32 / token::VOCAB_SIZE as f32,
                    ((t >= token::special::BYTE_BASE + b'0' as u32)
                        && (t <= token::special::BYTE_BASE + b'9' as u32)) as u8
                        as f32,
                    (i % 64) as f32 / 64.0,
                ];
                let scores = self.mlp.forward(&feats);
                (scores[1] > scores[0]) as u8
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmx_kernels::join::Row;

    /// Packs build/probe tables into the join accelerator's wire format.
    fn pack(build: &[Row], probe: &[Row]) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + (build.len() + probe.len()) * 16);
        out.extend((build.len() as u64).to_le_bytes());
        for r in build.iter().chain(probe) {
            out.extend(r.key.to_le_bytes());
            out.extend(r.payload.to_le_bytes());
        }
        out
    }

    #[test]
    fn fft_accel_output_shape() {
        let samples: Vec<u8> = (0..2048u32)
            .flat_map(|i| ((i as f32 * 0.1).sin()).to_le_bytes())
            .collect();
        let out = FftAccel.process(&samples);
        // frames = (2048-512)/256 + 1 = 7, bins = 257, complex f32
        assert_eq!(out.len(), 7 * 257 * 8);
    }

    #[test]
    fn aes_round_trips() {
        let a = AesAccel::default();
        let plain = b"some personally identifiable text".to_vec();
        let enc = a.encrypt(&plain);
        assert_ne!(enc, plain);
        assert_eq!(a.process(&enc), plain);
    }

    #[test]
    fn regex_accel_redacts() {
        let r = RegexAccel::pii();
        let out = r.process(b"ssn 123-45-6789 mail a@b.com");
        assert!(!out.windows(11).any(|w| w == b"123-45-6789"));
        assert!(out.iter().filter(|&&b| b == b'#').count() >= 11);
    }

    #[test]
    fn gzip_accel_inverts_compress() {
        let data = b"abcabcabcabc data data data".repeat(50);
        let comp = dmx_kernels::lz::compress(&data);
        assert_eq!(GzipAccel.process(&comp), data);
    }

    #[test]
    fn join_accel_joins() {
        let build = vec![
            Row {
                key: 1,
                payload: 10,
            },
            Row {
                key: 2,
                payload: 20,
            },
        ];
        let probe = vec![Row {
            key: 2,
            payload: 200,
        }];
        let wire = pack(&build, &probe);
        let out = JoinAccel.process(&wire);
        assert_eq!(out.len(), 24);
        assert_eq!(u64::from_le_bytes(out[..8].try_into().unwrap()), 2);
    }

    #[test]
    fn video_accel_decodes() {
        let frames = dmx_kernels::video::synthetic_scene(32, 16, 2);
        let enc = dmx_kernels::video::encode(&frames);
        let raw = VideoAccel.process(&enc);
        assert_eq!(raw.len(), 2 * (32 * 16 + 2 * (32 * 16 / 4)));
    }

    #[test]
    fn ner_emits_one_tag_per_token() {
        let toks = dmx_kernels::token::tokenize(b"agent 007 reporting", 32);
        let bytes: Vec<u8> = toks.iter().flat_map(|t| t.to_le_bytes()).collect();
        let tags = NerAccel::default().process(&bytes);
        assert_eq!(tags.len(), toks.len());
        assert!(tags.iter().all(|&t| t <= 1));
    }
}
