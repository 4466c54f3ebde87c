//! Text → token-tensor restructuring (the Fig. 16 chain: regex output
//! feeding the BERT NER kernel): byte-level vocabulary lookup through a
//! resident gather table, `[CLS]`/`[SEP]` framing, and padding to a
//! fixed sequence length.

use crate::op::{Lowered, OpError, OpProfile, RestructureOp};
use dmx_drx::ir::{Access, Kernel, VecStmt};
use dmx_drx::isa::{Dtype, VectorOp};
use dmx_drx::{compile, DrxConfig};
use dmx_kernels::token::{byte_lut, special};

/// Byte text → `u32` token tensor of shape `n_seqs x seq_len`.
///
/// Input: exactly `n_seqs * (seq_len - 2)` text bytes (the host pads
/// the tail chunk). Output row: `[CLS] tokens... [SEP] [PAD]...` — here
/// every payload slot is filled, so rows are `[CLS] payload [SEP]` with
/// any slots beyond `payload + 2` left as `PAD` (zero).
#[derive(Debug, Clone)]
pub struct TokenizeGather {
    /// Number of sequences in the batch.
    pub n_seqs: u64,
    /// Tokens per sequence including `[CLS]`/`[SEP]`.
    pub seq_len: u64,
}

impl TokenizeGather {
    /// Creates the op.
    ///
    /// # Panics
    ///
    /// Panics if `seq_len < 3` or `n_seqs == 0`.
    pub fn new(n_seqs: u64, seq_len: u64) -> TokenizeGather {
        assert!(seq_len >= 3, "sequence too short");
        assert!(n_seqs > 0, "empty batch");
        TokenizeGather { n_seqs, seq_len }
    }

    /// Payload bytes per sequence.
    pub(crate) fn payload(&self) -> u64 {
        self.seq_len - 2
    }
}

impl RestructureOp for TokenizeGather {
    fn name(&self) -> &str {
        "tokenize_gather"
    }

    fn profile(&self) -> OpProfile {
        let input_bytes = self.n_seqs * self.payload();
        let output_bytes = self.n_seqs * self.seq_len * 4;
        OpProfile {
            name: self.name().to_owned(),
            input_bytes,
            output_bytes,
            scratch_bytes: input_bytes * 4,
            stream_passes: 3.0,
            ops_per_byte: 1.0,
            branch_per_kb: 4.0,
            // LUT gathers hit the cache; only the framing is irregular.
            irregular: 0.3,
        }
    }

    fn run_cpu(&self, input: &[u8]) -> Vec<u8> {
        let payload = self.payload() as usize;
        assert_eq!(
            input.len(),
            (self.n_seqs as usize) * payload,
            "input size mismatch"
        );
        let lut = byte_lut();
        let mut out = Vec::with_capacity((self.n_seqs * self.seq_len * 4) as usize);
        for chunk in input.chunks(payload) {
            out.extend(special::CLS.to_le_bytes());
            for &b in chunk {
                out.extend(lut[b as usize].to_le_bytes());
            }
            out.extend(special::SEP.to_le_bytes());
            for _ in (payload + 2)..self.seq_len as usize {
                out.extend(special::PAD.to_le_bytes());
            }
        }
        out
    }

    fn lower(&self, config: &DrxConfig) -> Result<Lowered, OpError> {
        let (n_seqs, seq_len) = (self.n_seqs, self.seq_len);
        let payload = self.payload();
        let mut k = Kernel::new("tokenize_gather");
        let text = k.buffer("text", Dtype::U8, n_seqs * payload);
        let lut = k.resident_buffer("lut", Dtype::U32, 256);
        let idx = k.buffer("idx", Dtype::U32, n_seqs * payload);
        let out = k.buffer("tokens", Dtype::U32, n_seqs * seq_len);

        // idx = cast(text) to u32
        k.nest(
            vec![n_seqs * payload],
            vec![VecStmt {
                op: VectorOp::Cast(Dtype::U32),
                dst: Access::row_major(idx, &[n_seqs * payload]),
                src0: Access::row_major(text, &[n_seqs * payload]),
                src1: None,
                imm: 0.0,
            }],
        );
        // tokens[s][1 + j] = lut[idx[s][j]]
        k.nest(
            vec![n_seqs, payload],
            vec![VecStmt {
                op: VectorOp::Gather,
                dst: Access {
                    buf: out,
                    offset: 1,
                    strides: vec![seq_len as i64, 1],
                },
                src0: Access::broadcast(lut, 2, 0),
                src1: Some(Access {
                    buf: idx,
                    offset: 0,
                    strides: vec![payload as i64, 1],
                }),
                imm: 0.0,
            }],
        );
        // CLS at column 0 and SEP at column payload+1.
        for (col, value) in [(0i64, special::CLS), (payload as i64 + 1, special::SEP)] {
            k.nest(
                vec![n_seqs],
                vec![VecStmt {
                    op: VectorOp::Fill,
                    dst: Access {
                        buf: out,
                        offset: col,
                        strides: vec![seq_len as i64],
                    },
                    src0: Access {
                        buf: out,
                        offset: col,
                        strides: vec![seq_len as i64],
                    },
                    src1: None,
                    imm: value as f64,
                }],
            );
        }
        let compiled = compile(&k, config)?;
        let lut_bytes: Vec<u8> = byte_lut().iter().flat_map(|v| v.to_le_bytes()).collect();
        Ok(Lowered {
            inputs: vec![(compiled.layout.addr(text), n_seqs * payload)],
            outputs: vec![(compiled.layout.addr(out), n_seqs * seq_len * 4)],
            consts: vec![(compiled.layout.addr(lut), lut_bytes)],
            dram_bytes: compiled.layout.total_bytes(),
            program: compiled.program,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::assert_cpu_drx_equal;
    use dmx_kernels::token::detokenize;

    #[test]
    fn cpu_and_drx_agree() {
        let op = TokenizeGather::new(5, 34);
        let text: Vec<u8> = (0..5 * 32).map(|i| (i % 251) as u8).collect();
        assert_cpu_drx_equal(&op, &DrxConfig::default(), &text);
    }

    #[test]
    fn cpu_and_drx_agree_small_spad() {
        let op = TokenizeGather::new(20, 18);
        let text: Vec<u8> = (0..20 * 16).map(|i| (i * 7 % 256) as u8).collect();
        let cfg = DrxConfig::default().with_scratchpad(8 << 10);
        assert_cpu_drx_equal(&op, &cfg, &text);
    }

    #[test]
    fn tokens_round_trip_through_detokenize() {
        let op = TokenizeGather::new(2, 10);
        let text = b"hello you amigo!"; // 2 x 8 payload bytes
        let out = op.run_cpu(text);
        let tokens: Vec<u32> = out
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(detokenize(&tokens), text);
        assert_eq!(tokens[0], special::CLS);
        assert_eq!(tokens[9], special::SEP);
    }

    #[test]
    fn longer_rows_are_padded() {
        let op = TokenizeGather::new(1, 12);
        let text = vec![b'a'; 10];
        let out = op.run_cpu(&text);
        let tokens: Vec<u32> = out
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(tokens.len(), 12);
        assert_eq!(tokens[11], special::SEP);
    }

    #[test]
    #[should_panic(expected = "input size mismatch")]
    fn validates_input_size() {
        TokenizeGather::new(2, 10).run_cpu(b"short");
    }
}
