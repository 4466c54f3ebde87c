//! Property-based tests of the DRX toolchain: assembler round-trips on
//! random programs, and random affine kernels that must match a direct
//! host evaluation. Runs on the in-tree deterministic harness
//! (`dmx_sim::check`).

use dmx_drx::ir::{Access, Kernel, VecStmt};
use dmx_drx::isa::{
    DmaDir, DramAddr, Dtype, Instr, Port, Program, ScalarInstr, ScalarOp, SyncKind, VectorOp,
};
use dmx_drx::{asm, compile, DrxConfig, Machine};
use dmx_sim::{cases, run_cases, Gen};

fn n_cases() -> usize {
    cases(if cfg!(feature = "heavy-tests") {
        512
    } else {
        64
    })
}

fn gen_port(g: &mut Gen) -> Port {
    *g.pick(&[Port::Src0, Port::Src1, Port::Dst])
}

fn gen_dtype(g: &mut Gen) -> Dtype {
    *g.pick(&[
        Dtype::U8,
        Dtype::I8,
        Dtype::U16,
        Dtype::I16,
        Dtype::U32,
        Dtype::I32,
        Dtype::F32,
    ])
}

fn gen_instr(g: &mut Gen) -> Instr {
    match g.usize_in(0, 14) {
        0 => Instr::LoopDims {
            dims: [
                g.u64_in(1, 64) as u32,
                g.u64_in(1, 64) as u32,
                g.u64_in(1, 64) as u32,
                g.u64_in(1, 64) as u32,
            ],
        },
        1 => Instr::SetStride {
            port: gen_port(g),
            strides: [g.i64_in(-512, 512), g.i64_in(-512, 512), 0, 4],
            lane_stride: g.i64_in(-16, 16),
        },
        2 => Instr::SetBase {
            port: gen_port(g),
            addr: g.u64_in(0, 65536),
        },
        3 => Instr::AdvanceBase {
            port: gen_port(g),
            delta: g.i64_in(-4096, 4096),
        },
        4 => Instr::Dma {
            dir: DmaDir::Load,
            dram: DramAddr::Imm(g.u64_in(0, 1 << 20)),
            spad: g.u64_in(0, 65536),
            bytes: g.u64_in(1, 4096),
        },
        5 => Instr::Dma {
            dir: DmaDir::Store,
            dram: DramAddr::Reg {
                reg: g.u64_in(0, 16) as u8,
                offset: g.i64_in(-1024, 1024),
            },
            spad: g.u64_in(0, 65536),
            bytes: g.u64_in(1, 4096),
        },
        6 => {
            let op = *g.pick(&[
                VectorOp::Add,
                VectorOp::Mac,
                VectorOp::Copy,
                VectorOp::Gather,
                VectorOp::Fill,
            ]);
            Instr::Vec {
                op,
                dtype: gen_dtype(g),
                vlen: g.u64_in(1, 256) as u32,
                // Only imm-consuming ops print their immediate, so give
                // the others the default the parser will reconstruct.
                imm: if op.uses_imm() { 1.5 } else { 0.0 },
            }
        }
        7 => Instr::Transpose {
            rows: g.u64_in(1, 64) as u32,
            cols: g.u64_in(1, 64) as u32,
            dtype: gen_dtype(g),
        },
        8 => Instr::Repeat {
            count: g.u64_in(1, 100) as u32,
            body: g.u64_in(1, 20) as u32,
        },
        9 => Instr::Sync(match g.usize_in(0, 6) {
            0 => SyncKind::Start,
            1 => SyncKind::End,
            2 => SyncKind::WaitVec,
            3 => SyncKind::WaitMemAll,
            4 => SyncKind::WaitMemCount(g.u64_in(0, 64)),
            _ => SyncKind::WaitMemPending(g.u64_in(0, 8)),
        }),
        10 => Instr::Scalar(ScalarInstr::LdImm {
            rd: g.u64_in(0, 16) as u8,
            imm: g.i64_in(-1_000_000, 1_000_000),
        }),
        11 => Instr::Scalar(ScalarInstr::Alu {
            op: *g.pick(&[ScalarOp::Add, ScalarOp::Mul, ScalarOp::Slt, ScalarOp::Shr]),
            rd: g.u64_in(0, 16) as u8,
            rs1: g.u64_in(0, 16) as u8,
            rs2: g.u64_in(0, 16) as u8,
        }),
        12 => Instr::Scalar(ScalarInstr::Load {
            rd: g.u64_in(0, 16) as u8,
            ra: g.u64_in(0, 16) as u8,
            offset: g.i64_in(-64, 64),
            dtype: gen_dtype(g),
        }),
        13 => Instr::Scalar(ScalarInstr::Bnez {
            rs: g.u64_in(0, 16) as u8,
            offset: g.i64_in(-10, 10) as i32,
        }),
        _ => Instr::Halt,
    }
}

/// Disassemble -> parse is the identity on arbitrary programs (floats
/// limited to exactly-representable immediates).
#[test]
fn assembler_round_trip() {
    run_cases("drx::assembler_round_trip", n_cases(), |g| {
        let instrs = g.vec(0, 60, gen_instr);
        let prog: Program = instrs.into_iter().collect();
        let text = prog.disassemble();
        let parsed = asm::parse(&text).expect("disassembly parses");
        assert_eq!(parsed, prog);
    });
}

/// Random element-wise affine kernels (scale + bias over random
/// lengths) match a direct host evaluation at any scratchpad size.
#[test]
fn random_scale_bias_kernels_match_host() {
    run_cases("drx::scale_bias_match_host", n_cases(), |g| {
        let n = g.u64_in(1, 3000);
        let scale = g.i64_in(-8, 8) as f64 * 0.5;
        let bias = g.i64_in(-8, 8) as f64 * 0.25;
        let spad_kib = *g.pick(&[4u64, 8, 64]);
        let mut k = Kernel::new("affine");
        let a = k.buffer("a", Dtype::F32, n);
        let out = k.buffer("out", Dtype::F32, n);
        k.nest(
            vec![n],
            vec![
                VecStmt {
                    op: VectorOp::MulS,
                    dst: Access::row_major(out, &[n]),
                    src0: Access::row_major(a, &[n]),
                    src1: None,
                    imm: scale,
                },
                VecStmt {
                    op: VectorOp::AddS,
                    dst: Access::row_major(out, &[n]),
                    src0: Access::row_major(out, &[n]),
                    src1: None,
                    imm: bias,
                },
            ],
        );
        let mut cfg = DrxConfig::default().with_scratchpad(spad_kib << 10);
        cfg.dram.capacity_bytes = 64 << 20;
        let compiled = compile(&k, &cfg).expect("compiles");
        let mut m = Machine::new(cfg);
        let xs: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
        let bytes: Vec<u8> = xs.iter().flat_map(|v| v.to_le_bytes()).collect();
        m.write_dram(compiled.layout.addr(a), &bytes);
        m.run(&compiled.program).expect("runs");
        let got = m.read_dram(compiled.layout.addr(out), n * 4);
        for (i, chunk) in got.chunks_exact(4).enumerate() {
            let got = f32::from_le_bytes(chunk.try_into().unwrap());
            let scaled = (xs[i] as f64 * scale) as f32;
            let want = (scaled as f64 + bias) as f32;
            assert!(
                got == want || (got.is_nan() && want.is_nan()),
                "element {i}: {got} vs {want}"
            );
        }
    });
}

/// Byte-swap twice is the identity on the machine, at random lengths
/// and lane counts.
#[test]
fn double_bswap_is_identity() {
    run_cases("drx::double_bswap_identity", n_cases(), |g| {
        let words = g.vec(1, 800, |g| g.u64_in(0, 1 << 32) as u32);
        let lanes = *g.pick(&[32u32, 128]);
        let n = words.len() as u64;
        let mut k = Kernel::new("bswap2");
        let a = k.buffer("a", Dtype::U32, n);
        let t = k.buffer("t", Dtype::U32, n);
        let out = k.buffer("out", Dtype::U32, n);
        for (src, dst) in [(a, t), (t, out)] {
            k.nest(
                vec![n],
                vec![VecStmt {
                    op: VectorOp::Bswap,
                    dst: Access::row_major(dst, &[n]),
                    src0: Access::row_major(src, &[n]),
                    src1: None,
                    imm: 0.0,
                }],
            );
        }
        let mut cfg = DrxConfig::default().with_lanes(lanes);
        cfg.dram.capacity_bytes = 16 << 20;
        let compiled = compile(&k, &cfg).expect("compiles");
        let mut m = Machine::new(cfg);
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        m.write_dram(compiled.layout.addr(a), &bytes);
        m.run(&compiled.program).expect("runs");
        let got = m.read_dram(compiled.layout.addr(out), n * 4);
        assert_eq!(got, bytes);
    });
}

// ------------------------------------------------------------------
// Deterministic compiler-diagnostics tests (kept here with the other
// cross-module DRX tests).

mod compile_errors {
    use dmx_drx::ir::{Access, Kernel, VecStmt};
    use dmx_drx::isa::{Dtype, VectorOp};
    use dmx_drx::{compile, CompileError, DrxConfig};

    fn copy_stmt(dst: Access, src0: Access) -> VecStmt {
        VecStmt {
            op: VectorOp::Copy,
            dst,
            src0,
            src1: None,
            imm: 0.0,
        }
    }

    #[test]
    fn mixed_outer_strides_rejected() {
        let mut k = Kernel::new("mixed");
        let a = k.buffer("a", Dtype::F32, 64 * 64);
        let b = k.buffer("b", Dtype::F32, 64 * 64);
        k.nest(
            vec![32, 64],
            vec![
                copy_stmt(
                    Access {
                        buf: b,
                        offset: 0,
                        strides: vec![64, 1],
                    },
                    Access {
                        buf: a,
                        offset: 0,
                        strides: vec![64, 1],
                    },
                ),
                // second statement reads `a` with a DIFFERENT outer stride
                copy_stmt(
                    Access {
                        buf: b,
                        offset: 2048,
                        strides: vec![64, 1],
                    },
                    Access {
                        buf: a,
                        offset: 0,
                        strides: vec![128, 1],
                    },
                ),
            ],
        );
        assert!(matches!(
            compile(&k, &DrxConfig::default()),
            Err(CompileError::MixedOuterStride { nest: 0 })
        ));
    }

    #[test]
    fn negative_outer_stride_rejected() {
        let mut k = Kernel::new("neg");
        let a = k.buffer("a", Dtype::F32, 64 * 64);
        let b = k.buffer("b", Dtype::F32, 64 * 64);
        k.nest(
            vec![64, 64],
            vec![copy_stmt(
                Access {
                    buf: b,
                    offset: 0,
                    strides: vec![64, 1],
                },
                // walks `a` backwards over the outer dim
                Access {
                    buf: a,
                    offset: (63 * 64) as i64,
                    strides: vec![-64, 1],
                },
            )],
        );
        assert!(matches!(
            compile(&k, &DrxConfig::default()),
            Err(CompileError::NegativeOuterStride { nest: 0 })
        ));
    }

    #[test]
    fn too_many_buffers_for_register_file() {
        // 9 distinct read+written buffers need 18 registers > 16.
        let mut k = Kernel::new("regs");
        let n = 256u64;
        let mut stmts = Vec::new();
        for i in 0..9 {
            let a = k.buffer(format!("a{i}"), Dtype::F32, n);
            let b = k.buffer(format!("b{i}"), Dtype::F32, n);
            // Mac makes each dst read+written -> two registers per buffer.
            stmts.push(VecStmt {
                op: VectorOp::Mac,
                dst: Access::row_major(b, &[n]),
                src0: Access::row_major(a, &[n]),
                src1: Some(Access::row_major(a, &[n])),
                imm: 0.0,
            });
        }
        k.nest(vec![n], stmts);
        assert!(matches!(
            compile(&k, &DrxConfig::default()),
            Err(CompileError::TooManyBuffers { nest: 0 })
        ));
    }

    #[test]
    fn error_messages_are_informative() {
        for (err, needle) in [
            (
                CompileError::MixedOuterStride { nest: 3 },
                "mix outer strides",
            ),
            (
                CompileError::NegativeOuterStride { nest: 1 },
                "negative outer stride",
            ),
            (CompileError::TooManyBuffers { nest: 0 }, "register"),
            (
                CompileError::WorkingSetTooLarge {
                    nest: 0,
                    need: 100,
                    avail: 50,
                },
                "scratchpad",
            ),
            (
                CompileError::ResidentTooLarge {
                    resident: 64,
                    spad: 32,
                },
                "overflow",
            ),
        ] {
            let msg = err.to_string();
            assert!(msg.contains(needle), "`{msg}` missing `{needle}`");
        }
    }
}

mod machine_edges {
    use dmx_drx::isa::{DmaDir, DramAddr, Dtype, Instr, Port, Program, SyncKind};
    use dmx_drx::machine::ExecError;
    use dmx_drx::{DrxConfig, Machine};

    fn small() -> DrxConfig {
        let mut c = DrxConfig::default();
        c.dram.capacity_bytes = 1 << 20;
        c
    }

    #[test]
    fn gather_rows_with_out_of_range_index_faults() {
        let mut m = Machine::new(small());
        // Row index points past the DRAM capacity.
        m.write_dram(0, &[0u8; 64]);
        let huge = (small().dram.capacity_bytes / 8) as u32 + 10;
        let idx = huge.to_le_bytes();
        let prog: Program = [
            Instr::Dma {
                dir: DmaDir::Load,
                dram: DramAddr::Imm(0),
                spad: 0,
                bytes: 4,
            },
            Instr::Sync(SyncKind::WaitMemAll),
            Instr::DmaGatherRows {
                dram_base: 0,
                row_bytes: 8,
                rows: 1,
                idx_spad: 0,
                spad: 64,
            },
        ]
        .into_iter()
        .collect();
        // Stage the bad index where the gather will read it.
        let mut staged = Machine::new(small());
        staged.write_dram(0, &idx);
        let result = staged.run(&prog);
        assert!(
            matches!(result, Err(ExecError::OobDram { .. })),
            "{result:?}"
        );
        drop(m);
    }

    /// Row-gather sizes and addresses come from the program, so huge
    /// ones fault like any other out-of-range access instead of
    /// overflowing or allocating past memory.
    #[test]
    fn gather_rows_with_overflowing_sizes_faults() {
        let run = |gather: Instr| {
            // Load the row index table [1, 0, 0, 0] from DRAM.
            let mut m = Machine::new(small());
            m.write_dram(0, &1u32.to_le_bytes());
            let prog: Program = [
                Instr::Dma {
                    dir: DmaDir::Load,
                    dram: DramAddr::Imm(0),
                    spad: 0,
                    bytes: 16,
                },
                Instr::Sync(SyncKind::WaitMemAll),
                gather,
            ]
            .into_iter()
            .collect();
            m.run(&prog)
        };
        // rows * row_bytes overflows.
        let total = run(Instr::DmaGatherRows {
            dram_base: 0,
            row_bytes: 1 << 62,
            rows: 4,
            idx_spad: 0,
            spad: 64,
        });
        assert_eq!(total, Err(ExecError::OobScratchpad { addr: 64 }));
        // dram_base + index * row_bytes overflows.
        let src = run(Instr::DmaGatherRows {
            dram_base: u64::MAX - 4,
            row_bytes: 8,
            rows: 1,
            idx_spad: 0,
            spad: 64,
        });
        assert_eq!(src, Err(ExecError::OobDram { addr: u64::MAX }));
        // The index table runs off the scratchpad long before u32::MAX
        // rows.
        let rows = run(Instr::DmaGatherRows {
            dram_base: 0,
            row_bytes: 1,
            rows: u32::MAX,
            idx_spad: 0,
            spad: 64,
        });
        assert_eq!(rows, Err(ExecError::OobScratchpad { addr: 64 << 10 }));
    }

    #[test]
    fn transpose_out_of_scratchpad_faults() {
        let mut m = Machine::new(small());
        let prog: Program = [
            Instr::SetBase {
                port: Port::Src0,
                addr: 0,
            },
            Instr::SetBase {
                port: Port::Dst,
                addr: 64 << 10, // at the very end: no room
            },
            Instr::Transpose {
                rows: 8,
                cols: 8,
                dtype: Dtype::U32,
            },
        ]
        .into_iter()
        .collect();
        assert!(matches!(m.run(&prog), Err(ExecError::OobScratchpad { .. })));
    }

    #[test]
    fn dma_store_beyond_capacity_faults() {
        let mut m = Machine::new(small());
        let prog: Program = [Instr::Dma {
            dir: DmaDir::Store,
            dram: DramAddr::Imm((1 << 20) - 2),
            spad: 0,
            bytes: 16,
        }]
        .into_iter()
        .collect();
        assert!(matches!(m.run(&prog), Err(ExecError::OobDram { .. })));
    }

    #[test]
    fn negative_register_dram_address_faults() {
        use dmx_drx::isa::ScalarInstr;
        let mut m = Machine::new(small());
        let prog: Program = [
            Instr::Scalar(ScalarInstr::LdImm { rd: 1, imm: -64 }),
            Instr::Dma {
                dir: DmaDir::Load,
                dram: DramAddr::Reg { reg: 1, offset: 0 },
                spad: 0,
                bytes: 16,
            },
        ]
        .into_iter()
        .collect();
        assert!(matches!(m.run(&prog), Err(ExecError::OobDram { .. })));
    }

    #[test]
    fn zero_count_repeat_skips_body() {
        use dmx_drx::isa::ScalarInstr;
        let mut m = Machine::new(small());
        let prog: Program = [
            Instr::Scalar(ScalarInstr::LdImm { rd: 1, imm: 7 }),
            Instr::Repeat { count: 0, body: 1 },
            Instr::Scalar(ScalarInstr::LdImm { rd: 1, imm: 99 }),
            Instr::Halt,
        ]
        .into_iter()
        .collect();
        m.run(&prog).expect("runs");
        assert_eq!(m.reg(1), 7, "body must be skipped entirely");
    }
}
