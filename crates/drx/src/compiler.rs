//! The DRX compiler: lowers affine restructuring kernels ([`Kernel`])
//! to DRX programs.
//!
//! Following Sec. IV.B, the compiler (1) maps the kernel to the IR,
//! (2) "optimizes tiling and relaxes dependency ... based on the
//! hardware configuration and the dimension of multidimensional
//! arrays", and (3) emits ISA instructions. Concretely:
//!
//! * the **outermost** dimension is tiled so each tile's working set
//!   fits in half the scratchpad (the other half holds the ping/pong
//!   partner);
//! * the **innermost** dimension is vectorized across RE lanes, with an
//!   explicit tail when it is not a lane multiple;
//! * tiles are walked by a hardware [`Instr::Repeat`] loop whose body
//!   prefetches tile *t+1* while computing tile *t* (double buffering),
//!   falling back to a serial schedule when a read-modify-write buffer
//!   carries values between overlapping tiles;
//! * DRAM tile addresses are carried in scalar registers advanced by
//!   `s.addi`, so program size is independent of tile count and fits
//!   the 64 KB instruction cache.

use crate::config::DrxConfig;
use crate::ir::{Access, BufId, IrError, Kernel, LoopNest, VecStmt};
use crate::isa::{
    DmaDir, DramAddr, Instr, Port, Program, ScalarInstr, SyncKind, VectorOp, MAX_DIMS,
};
use std::fmt;

/// Where a kernel buffer lives in DRX DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufPlacement {
    /// Byte address of the buffer.
    pub addr: u64,
    /// Real payload size in bytes.
    pub bytes: u64,
    /// Allocated size including over-fetch slack.
    pub padded: u64,
}

/// DRAM layout of every kernel buffer.
#[derive(Debug, Clone, Default)]
pub struct Layout {
    entries: Vec<BufPlacement>,
}

impl Layout {
    /// DRAM byte address of a buffer.
    pub fn addr(&self, buf: BufId) -> u64 {
        self.entries[buf.index()].addr
    }

    /// Total DRAM bytes reserved (including slack).
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.padded).sum()
    }
}

/// A compiled kernel: the program plus the buffer layout the caller
/// must use when staging inputs and reading outputs.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The DRX program.
    pub program: Program,
    /// DRAM placement of each kernel buffer.
    pub layout: Layout,
}

/// Compilation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The kernel failed IR validation.
    Ir(IrError),
    /// One iteration row does not fit in half the scratchpad.
    WorkingSetTooLarge {
        /// Offending nest.
        nest: usize,
        /// Bytes needed for a single outer iteration (both sides).
        need: u64,
        /// Bytes available.
        avail: u64,
    },
    /// Two accesses to the same buffer disagree on the outer stride, so
    /// tile footprints would not translate uniformly.
    MixedOuterStride {
        /// Offending nest.
        nest: usize,
    },
    /// A transient buffer access has a negative outer stride.
    NegativeOuterStride {
        /// Offending nest.
        nest: usize,
    },
    /// The nest needs more scalar registers than the ISA has.
    TooManyBuffers {
        /// Offending nest.
        nest: usize,
    },
    /// Resident buffers do not leave room for tile data.
    ResidentTooLarge {
        /// Bytes of resident data.
        resident: u64,
        /// Scratchpad size.
        spad: u64,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Ir(e) => write!(f, "invalid kernel IR: {e}"),
            CompileError::WorkingSetTooLarge { nest, need, avail } => write!(
                f,
                "nest {nest}: one iteration row needs {need} B, scratchpad has {avail} B"
            ),
            CompileError::MixedOuterStride { nest } => {
                write!(f, "nest {nest}: accesses to one buffer mix outer strides")
            }
            CompileError::NegativeOuterStride { nest } => {
                write!(f, "nest {nest}: negative outer stride is unsupported")
            }
            CompileError::TooManyBuffers { nest } => {
                write!(
                    f,
                    "nest {nest}: too many buffers for the scalar register file"
                )
            }
            CompileError::ResidentTooLarge { resident, spad } => {
                write!(
                    f,
                    "resident buffers ({resident} B) overflow the scratchpad ({spad} B)"
                )
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<IrError> for CompileError {
    fn from(e: IrError) -> Self {
        CompileError::Ir(e)
    }
}

const ALIGN: u64 = 64;

fn align(x: u64) -> u64 {
    x.div_ceil(ALIGN) * ALIGN
}

/// Per-buffer facts gathered for one nest.
#[derive(Debug, Clone)]
struct BufUse {
    buf: BufId,
    elem: u64,
    /// Union extent (elements) of all accesses with the outer dim fixed
    /// to a single iteration.
    lo1: i64,
    hi1: i64,
    /// Shared outer stride in elements.
    outer_stride: i64,
    is_read: bool,
    is_written: bool,
    /// Spad region byte addresses for the two sides.
    side_addr: [u64; 2],
    /// Scalar register carrying the DRAM tile address for loads.
    in_reg: Option<u8>,
    /// Scalar register carrying the DRAM tile address for stores.
    out_reg: Option<u8>,
}

impl BufUse {
    /// Footprint in elements for a tile of `t` outer iterations.
    fn fp_elems(&self, t: u64) -> u64 {
        (self.hi1 - self.lo1 + 1) as u64 + (t - 1) * self.outer_stride.unsigned_abs()
    }

    fn fp_bytes(&self, t: u64) -> u64 {
        self.fp_elems(t) * self.elem
    }
}

/// Compiles a kernel for the given DRX configuration.
///
/// # Errors
///
/// Returns a [`CompileError`] when the kernel is invalid or does not
/// fit the hardware (see the error variants).
///
/// ```
/// use dmx_drx::{compile, DrxConfig, Machine};
/// use dmx_drx::ir::{Access, Kernel, VecStmt};
/// use dmx_drx::isa::{Dtype, VectorOp};
///
/// let mut k = Kernel::new("add1");
/// let a = k.buffer("a", Dtype::F32, 256);
/// let b = k.buffer("b", Dtype::F32, 256);
/// k.nest(vec![256], vec![VecStmt {
///     op: VectorOp::AddS,
///     dst: Access::row_major(b, &[256]),
///     src0: Access::row_major(a, &[256]),
///     src1: None,
///     imm: 1.0,
/// }]);
/// let compiled = compile(&k, &DrxConfig::default()).unwrap();
/// let mut m = Machine::new(DrxConfig::default());
/// let input: Vec<u8> = (0..256).flat_map(|i| (i as f32).to_le_bytes()).collect();
/// m.write_dram(compiled.layout.addr(a), &input);
/// m.run(&compiled.program).unwrap();
/// let out = m.read_dram(compiled.layout.addr(b), 4);
/// assert_eq!(f32::from_le_bytes(out.try_into().unwrap()), 1.0);
/// ```
pub fn compile(kernel: &Kernel, config: &DrxConfig) -> Result<Compiled, CompileError> {
    let mut compiled = compile_unoptimized(kernel, config)?;
    let (optimized, _stats) = crate::optimize::optimize(&compiled.program);
    compiled.program = optimized;
    Ok(compiled)
}

/// Compiles without the peephole configuration-elimination pass
/// (used by tests and the optimizer ablation).
///
/// # Errors
///
/// Same as [`compile`].
pub fn compile_unoptimized(kernel: &Kernel, config: &DrxConfig) -> Result<Compiled, CompileError> {
    kernel.validate()?;
    config.validate().expect("invalid DRX configuration");

    // DRAM layout: sequential, aligned, with one scratchpad of slack per
    // buffer so the pipelined prefetch of a final short tile may safely
    // over-read.
    let mut layout = Layout::default();
    let mut cursor = 0u64;
    for decl in &kernel.buffers {
        let bytes = decl.bytes();
        let padded = align(bytes + config.scratchpad_bytes);
        layout.entries.push(BufPlacement {
            addr: cursor,
            bytes,
            padded,
        });
        cursor += padded;
    }

    // Resident buffers are pinned at the bottom of the scratchpad.
    let mut prog = Program::new();
    prog.push(Instr::Sync(SyncKind::Start));
    let mut resident_addr = vec![0u64; kernel.buffers.len()];
    let mut spad_cursor = 0u64;
    for (i, decl) in kernel.buffers.iter().enumerate() {
        if decl.resident {
            resident_addr[i] = spad_cursor;
            prog.push(Instr::Dma {
                dir: DmaDir::Load,
                dram: DramAddr::Imm(layout.entries[i].addr),
                spad: spad_cursor,
                bytes: decl.bytes(),
            });
            spad_cursor += align(decl.bytes());
        }
    }
    if spad_cursor > config.scratchpad_bytes / 2 {
        return Err(CompileError::ResidentTooLarge {
            resident: spad_cursor,
            spad: config.scratchpad_bytes,
        });
    }
    if spad_cursor > 0 {
        prog.push(Instr::Sync(SyncKind::WaitMemAll));
    }

    for (ni, nest) in kernel.nests.iter().enumerate() {
        compile_nest(
            kernel,
            nest,
            ni,
            config,
            &layout,
            &resident_addr,
            spad_cursor,
            &mut prog,
        )?;
        // Full barrier between nests: the next nest reuses the
        // transient scratchpad region.
        prog.push(Instr::Sync(SyncKind::WaitVec));
        prog.push(Instr::Sync(SyncKind::WaitMemAll));
    }

    prog.push(Instr::Sync(SyncKind::End));
    prog.push(Instr::Halt);
    Ok(Compiled {
        program: prog,
        layout,
    })
}

/// True if the statement's destination is probably written densely, so
/// no load-before-store is needed. Conservative: false negatives only
/// cost an extra load.
fn dst_probably_dense(stmts: &[&Access], dims: &[u64]) -> bool {
    let mut touched: u64 = 0;
    let mut lo = i64::MAX;
    let mut hi = i64::MIN;
    for a in stmts {
        if *a.strides.last().expect("validated") != 1 {
            return false;
        }
        let mut points = 1u64;
        for (d, &s) in a.strides.iter().enumerate() {
            if s != 0 {
                points *= dims[d];
            }
        }
        touched += points;
        let (l, h) = a.extent(dims);
        lo = lo.min(l);
        hi = hi.max(h);
    }
    touched as i64 > hi - lo
}

#[allow(clippy::too_many_arguments)]
fn compile_nest(
    kernel: &Kernel,
    nest: &LoopNest,
    ni: usize,
    config: &DrxConfig,
    layout: &Layout,
    resident_addr: &[u64],
    resident_top: u64,
    prog: &mut Program,
) -> Result<(), CompileError> {
    let dims = &nest.dims;
    let d0 = dims[0];

    // ---- gather per-buffer facts ----------------------------------
    let mut uses: Vec<BufUse> = Vec::new();
    let find = |uses: &mut Vec<BufUse>, buf: BufId| -> usize {
        if let Some(i) = uses.iter().position(|u| u.buf == buf) {
            return i;
        }
        uses.push(BufUse {
            buf,
            elem: kernel.buffers[buf.index()].dtype.size(),
            lo1: i64::MAX,
            hi1: i64::MIN,
            outer_stride: i64::MIN, // sentinel: unset
            is_read: false,
            is_written: false,
            side_addr: [0, 0],
            in_reg: None,
            out_reg: None,
        });
        uses.len() - 1
    };
    let mut one_iter_dims = dims.clone();
    one_iter_dims[0] = 1;

    let record = |uses: &mut Vec<BufUse>,
                  a: &Access,
                  read: bool,
                  written: bool|
     -> Result<(), CompileError> {
        if kernel.buffers[a.buf.index()].resident {
            return Ok(());
        }
        let i = find(uses, a.buf);
        let (lo, hi) = a.extent(&one_iter_dims);
        uses[i].lo1 = uses[i].lo1.min(lo);
        uses[i].hi1 = uses[i].hi1.max(hi);
        let s0 = a.strides[0];
        if s0 < 0 {
            return Err(CompileError::NegativeOuterStride { nest: ni });
        }
        if uses[i].outer_stride == i64::MIN {
            uses[i].outer_stride = s0;
        } else if uses[i].outer_stride != s0 {
            return Err(CompileError::MixedOuterStride { nest: ni });
        }
        uses[i].is_read |= read;
        uses[i].is_written |= written;
        Ok(())
    };

    // Destination density per buffer (across all statements writing it).
    let mut dst_accesses: Vec<(BufId, Vec<&Access>)> = Vec::new();
    for stmt in &nest.stmts {
        match dst_accesses.iter_mut().find(|(b, _)| *b == stmt.dst.buf) {
            Some((_, v)) => v.push(&stmt.dst),
            None => dst_accesses.push((stmt.dst.buf, vec![&stmt.dst])),
        }
    }

    for stmt in &nest.stmts {
        let dst_dense = dst_accesses
            .iter()
            .find(|(b, _)| *b == stmt.dst.buf)
            .map(|(_, v)| dst_probably_dense(v, dims))
            .unwrap_or(false);
        let dst_reads = matches!(stmt.op, VectorOp::Mac) || !dst_dense;
        record(&mut uses, &stmt.dst, dst_reads, true)?;
        // Gather reads its table dynamically; the table is resident and
        // skipped by `record` anyway.
        record(&mut uses, &stmt.src0, true, false)?;
        if let Some(s1) = &stmt.src1 {
            record(&mut uses, s1, true, false)?;
        }
    }

    // ---- choose the tile size T ------------------------------------
    let avail = config.scratchpad_bytes - resident_top;
    let a_term: u64 = uses.iter().map(|u| 2 * (u.fp_bytes(1) + ALIGN)).sum();
    let b_term: u64 = uses
        .iter()
        .map(|u| 2 * u.outer_stride.unsigned_abs() * u.elem)
        .sum();
    if a_term > avail {
        return Err(CompileError::WorkingSetTooLarge {
            nest: ni,
            need: a_term,
            avail,
        });
    }
    let t = match (avail - a_term).checked_div(b_term) {
        None => d0,
        Some(q) => (1 + q).min(d0),
    };
    let ntiles = d0.div_ceil(t);
    let t_last = d0 - (ntiles - 1) * t;

    // ---- scratchpad regions and registers --------------------------
    let mut cur = resident_top;
    let mut next_reg: u8 = 1;
    for u in &mut uses {
        let sz = align(u.fp_bytes(t));
        u.side_addr = [cur, cur + sz];
        cur += 2 * sz;
        if u.is_read {
            u.in_reg = Some(next_reg);
            next_reg += 1;
        }
        if u.is_written {
            u.out_reg = Some(next_reg);
            next_reg += 1;
        }
    }
    if next_reg as usize > crate::isa::SCALAR_REGS {
        return Err(CompileError::TooManyBuffers { nest: ni });
    }
    debug_assert!(cur <= config.scratchpad_bytes, "allocator overflow");

    // A read-modify-write buffer whose consecutive tile footprints
    // overlap carries data tile-to-tile through DRAM; prefetching the
    // next tile before the previous store would read stale data.
    let serial = uses
        .iter()
        .any(|u| u.is_read && u.is_written && (t * u.outer_stride.unsigned_abs()) < u.fp_elems(t));

    // ---- preamble ---------------------------------------------------
    let dram_tile0 = |u: &BufUse| -> u64 {
        // lo(0): union minimum over the first tile.
        let lo_t0 = u.lo1; // outer stride >= 0, so dim0 = 0 gives the min
        (layout.addr(u.buf) as i64 + lo_t0 * u.elem as i64) as u64
    };
    for u in &uses {
        if let Some(r) = u.in_reg {
            prog.push(Instr::Scalar(ScalarInstr::LdImm {
                rd: r,
                imm: dram_tile0(u) as i64,
            }));
        }
        if let Some(r) = u.out_reg {
            prog.push(Instr::Scalar(ScalarInstr::LdImm {
                rd: r,
                imm: dram_tile0(u) as i64,
            }));
        }
    }
    let cnt_in = uses.iter().filter(|u| u.is_read).count() as u64;
    // Load tile 0 into side 0.
    for u in &uses {
        if let Some(r) = u.in_reg {
            prog.push(Instr::Dma {
                dir: DmaDir::Load,
                dram: DramAddr::Reg { reg: r, offset: 0 },
                spad: u.side_addr[0],
                bytes: u.fp_bytes(t),
            });
        }
    }

    let delta = |u: &BufUse| (t * u.outer_stride.unsigned_abs() * u.elem) as i64;

    // ---- tile bodies (tiles 0 .. ntiles-2) --------------------------
    // Pipelined body for tile `j` on side `j % 2`: advance input
    // registers, prefetch tile j+1 into the other side, wait until only
    // those prefetches are outstanding (i.e. tile j is loaded), compute,
    // store tile j, advance output registers.
    let emit_pipelined_body = |prog: &mut Program, side: usize| {
        for u in &uses {
            if let Some(r) = u.in_reg {
                prog.push(Instr::Scalar(ScalarInstr::AddImm {
                    rd: r,
                    rs: r,
                    imm: delta(u),
                }));
            }
        }
        for u in &uses {
            if let Some(r) = u.in_reg {
                prog.push(Instr::Dma {
                    dir: DmaDir::Load,
                    dram: DramAddr::Reg { reg: r, offset: 0 },
                    spad: u.side_addr[1 - side],
                    bytes: u.fp_bytes(t),
                });
            }
        }
        prog.push(Instr::Sync(SyncKind::WaitMemPending(cnt_in)));
        for stmt in &nest.stmts {
            emit_stmt(
                kernel,
                stmt,
                dims,
                t,
                side,
                config,
                resident_addr,
                &uses,
                prog,
            );
        }
        prog.push(Instr::Sync(SyncKind::WaitVec));
        for u in &uses {
            if let Some(r) = u.out_reg {
                prog.push(Instr::Dma {
                    dir: DmaDir::Store,
                    dram: DramAddr::Reg { reg: r, offset: 0 },
                    spad: u.side_addr[side],
                    bytes: u.fp_bytes(t),
                });
                prog.push(Instr::Scalar(ScalarInstr::AddImm {
                    rd: r,
                    rs: r,
                    imm: delta(u),
                }));
            }
        }
    };

    // Serial body for tile `j`, all on side 0: compute tile j (already
    // loaded), store it, then load tile j+1. The FIFO off-chip engine
    // orders the load after the store, which is what makes overlapping
    // read-modify-write footprints (reductions through DRAM) correct.
    let emit_serial_body = |prog: &mut Program| {
        prog.push(Instr::Sync(SyncKind::WaitMemPending(0)));
        for stmt in &nest.stmts {
            emit_stmt(kernel, stmt, dims, t, 0, config, resident_addr, &uses, prog);
        }
        prog.push(Instr::Sync(SyncKind::WaitVec));
        for u in &uses {
            if let Some(r) = u.out_reg {
                prog.push(Instr::Dma {
                    dir: DmaDir::Store,
                    dram: DramAddr::Reg { reg: r, offset: 0 },
                    spad: u.side_addr[0],
                    bytes: u.fp_bytes(t),
                });
                prog.push(Instr::Scalar(ScalarInstr::AddImm {
                    rd: r,
                    rs: r,
                    imm: delta(u),
                }));
            }
        }
        for u in &uses {
            if let Some(r) = u.in_reg {
                prog.push(Instr::Scalar(ScalarInstr::AddImm {
                    rd: r,
                    rs: r,
                    imm: delta(u),
                }));
            }
        }
        for u in &uses {
            if let Some(r) = u.in_reg {
                prog.push(Instr::Dma {
                    dir: DmaDir::Load,
                    dram: DramAddr::Reg { reg: r, offset: 0 },
                    spad: u.side_addr[0],
                    bytes: u.fp_bytes(t),
                });
            }
        }
    };

    // Wrap repeated bodies in a hardware loop so program size stays
    // independent of tile count.
    let repeat_block = |prog: &mut Program, count: u64, emit: &dyn Fn(&mut Program)| {
        if count == 0 {
            return;
        }
        let mark = prog.len();
        emit(prog);
        if count > 1 {
            let body_len = (prog.len() - mark) as u32;
            let body: Vec<Instr> = prog.instrs.split_off(mark);
            prog.push(Instr::Repeat {
                count: count as u32,
                body: body_len,
            });
            prog.extend(body);
        }
    };

    let bodies = ntiles - 1;
    if serial {
        repeat_block(prog, bodies, &|p| emit_serial_body(p));
    } else {
        let pairs = bodies / 2;
        repeat_block(prog, pairs, &|p| {
            emit_pipelined_body(p, 0);
            emit_pipelined_body(p, 1);
        });
        if bodies % 2 == 1 {
            emit_pipelined_body(prog, 0);
        }
    }

    // ---- final tile --------------------------------------------------
    let final_side = if serial { 0 } else { (bodies % 2) as usize };
    prog.push(Instr::Sync(SyncKind::WaitMemAll));
    for stmt in &nest.stmts {
        emit_stmt(
            kernel,
            stmt,
            dims,
            t_last,
            final_side,
            config,
            resident_addr,
            &uses,
            prog,
        );
    }
    prog.push(Instr::Sync(SyncKind::WaitVec));
    for u in &uses {
        if let Some(r) = u.out_reg {
            prog.push(Instr::Dma {
                dir: DmaDir::Store,
                dram: DramAddr::Reg { reg: r, offset: 0 },
                spad: u.side_addr[final_side],
                bytes: u.fp_bytes(t_last),
            });
        }
    }
    Ok(())
}

/// Emits one vector statement for a tile of `t_eff` outer iterations on
/// scratchpad side `side` (main vector body plus lane tail).
#[allow(clippy::too_many_arguments)]
fn emit_stmt(
    kernel: &Kernel,
    stmt: &VecStmt,
    dims: &[u64],
    t_eff: u64,
    side: usize,
    config: &DrxConfig,
    resident_addr: &[u64],
    uses: &[BufUse],
    prog: &mut Program,
) {
    let k = dims.len();
    let lanes = config.lanes as u64;
    let inner = if k == 1 {
        t_eff
    } else {
        *dims.last().expect("nonempty")
    };
    // When the nest is one-dimensional the outer (tiled) dim IS the
    // vector dim; treat it as inner with a single outer iteration.
    let (outer_dims, inner_n): (Vec<u64>, u64) = if k == 1 {
        (vec![1], inner)
    } else {
        let mut v = vec![t_eff];
        v.extend_from_slice(&dims[1..k - 1]);
        (v, inner)
    };
    let chunks = inner_n / lanes;
    let rem = inner_n % lanes;

    // Port base within the scratchpad for an access.
    let spad_base = |a: &Access| -> i64 {
        let decl = &kernel.buffers[a.buf.index()];
        if decl.resident {
            resident_addr[a.buf.index()] as i64 + a.offset * decl.dtype.size() as i64
        } else {
            let u = uses
                .iter()
                .find(|u| u.buf == a.buf)
                .expect("transient buffer recorded");
            u.side_addr[side] as i64 + (a.offset - u.lo1) * u.elem as i64
        }
    };

    let gather_table = matches!(stmt.op, VectorOp::Gather);

    let emit_part = |prog: &mut Program, part_chunks: u64, vlen: u64, elem_shift: u64| {
        // Machine dims: left-pad with 1s; last slot counts vector chunks.
        let mut mdims = [1u32; MAX_DIMS];
        let lead = MAX_DIMS - outer_dims.len() - 1;
        for (i, d) in outer_dims.iter().enumerate() {
            mdims[lead + i] = *d as u32;
        }
        mdims[MAX_DIMS - 1] = part_chunks as u32;
        prog.push(Instr::LoopDims { dims: mdims });

        let cfg_port = |prog: &mut Program, port: Port, a: &Access, is_table: bool| {
            let decl = &kernel.buffers[a.buf.index()];
            let elem = decl.dtype.size() as i64;
            if is_table {
                // Gather reads the table via base + idx*elem only.
                prog.push(Instr::SetStride {
                    port,
                    strides: [0; MAX_DIMS],
                    lane_stride: 0,
                });
                prog.push(Instr::SetBase {
                    port,
                    addr: spad_base(a) as u64,
                });
                return;
            }
            let inner_stride = *a.strides.last().expect("validated");
            let mut mstrides = [0i64; MAX_DIMS];
            if dims.len() == 1 {
                // The single dim is the vector dim.
                mstrides[MAX_DIMS - 1] = inner_stride * lanes as i64 * elem;
            } else {
                for (i, s) in a.strides[..dims.len() - 1].iter().enumerate() {
                    mstrides[lead + i] = s * elem;
                }
                mstrides[MAX_DIMS - 1] = inner_stride * lanes as i64 * elem;
            }
            let base = spad_base(a) + elem_shift as i64 * inner_stride * elem;
            prog.push(Instr::SetStride {
                port,
                strides: mstrides,
                lane_stride: inner_stride * elem,
            });
            prog.push(Instr::SetBase {
                port,
                addr: base as u64,
            });
        };

        cfg_port(prog, Port::Src0, &stmt.src0, gather_table);
        if let Some(s1) = &stmt.src1 {
            cfg_port(prog, Port::Src1, s1, false);
        }
        cfg_port(prog, Port::Dst, &stmt.dst, false);
        prog.push(Instr::Vec {
            op: stmt.op,
            dtype: kernel.buffers[stmt.src0.buf.index()].dtype,
            vlen: vlen as u32,
            imm: stmt.imm,
        });
    };

    if chunks > 0 {
        emit_part(prog, chunks, lanes, 0);
    }
    if rem > 0 {
        emit_part(prog, 1, rem, chunks * lanes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Access, Kernel, VecStmt};
    use crate::isa::Dtype;
    use crate::machine::Machine;

    fn write_f32s(m: &mut Machine, addr: u64, xs: &[f32]) {
        let bytes: Vec<u8> = xs.iter().flat_map(|x| x.to_le_bytes()).collect();
        m.write_dram(addr, &bytes);
    }

    fn read_f32s(m: &Machine, addr: u64, n: usize) -> Vec<f32> {
        m.read_dram(addr, 4 * n as u64)
            .chunks(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    fn small_cfg() -> DrxConfig {
        let mut c = DrxConfig::default();
        c.dram.capacity_bytes = 16 << 20;
        c
    }

    #[test]
    fn single_tile_scale() {
        let mut k = Kernel::new("scale");
        let a = k.buffer("a", Dtype::F32, 500);
        let b = k.buffer("b", Dtype::F32, 500);
        k.nest(
            vec![500],
            vec![VecStmt {
                op: VectorOp::MulS,
                dst: Access::row_major(b, &[500]),
                src0: Access::row_major(a, &[500]),
                src1: None,
                imm: 3.0,
            }],
        );
        let c = compile(&k, &small_cfg()).unwrap();
        let mut m = Machine::new(small_cfg());
        let xs: Vec<f32> = (0..500).map(|i| i as f32).collect();
        write_f32s(&mut m, c.layout.addr(a), &xs);
        m.run(&c.program).unwrap();
        let out = read_f32s(&m, c.layout.addr(b), 500);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as f32 * 3.0, "element {i}");
        }
    }

    #[test]
    fn multi_tile_pipelined() {
        // Force many tiles with a tiny scratchpad.
        let mut cfg = small_cfg();
        cfg.scratchpad_bytes = 4096;
        let n = 8000u64;
        let mut k = Kernel::new("add");
        let a = k.buffer("a", Dtype::F32, n);
        let b = k.buffer("b", Dtype::F32, n);
        let o = k.buffer("o", Dtype::F32, n);
        k.nest(
            vec![n],
            vec![VecStmt {
                op: VectorOp::Add,
                dst: Access::row_major(o, &[n]),
                src0: Access::row_major(a, &[n]),
                src1: Some(Access::row_major(b, &[n])),
                imm: 0.0,
            }],
        );
        let c = compile(&k, &cfg).unwrap();
        assert!(
            c.program.encoded_bytes() <= cfg.icache_bytes,
            "program must fit icache"
        );
        let mut m = Machine::new(cfg);
        let xs: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let ys: Vec<f32> = (0..n).map(|i| 2.0 * i as f32).collect();
        write_f32s(&mut m, c.layout.addr(a), &xs);
        write_f32s(&mut m, c.layout.addr(b), &ys);
        let st = m.run(&c.program).unwrap();
        let out = read_f32s(&m, c.layout.addr(o), n as usize);
        for (i, &v) in out.iter().enumerate().take(n as usize) {
            assert_eq!(v, 3.0 * i as f32, "element {i}");
        }
        // Double buffering must overlap DMA with compute.
        assert!(st.dma_count > 4);
        assert!(st.cycles < st.mem_busy_cycles + st.vec_busy_cycles);
    }

    #[test]
    fn two_dim_layout_transform() {
        // Transpose-like strided copy: out[c][r] = in[r][c] for a
        // 64x32 f32 matrix, expressed as an affine nest (the inner dim
        // of dst has stride 64 -> strided lanes, slower but correct).
        let (rows, cols) = (64u64, 32u64);
        let mut k = Kernel::new("strided");
        let a = k.buffer("a", Dtype::F32, rows * cols);
        let b = k.buffer("b", Dtype::F32, rows * cols);
        k.nest(
            vec![rows, cols],
            vec![VecStmt {
                op: VectorOp::Copy,
                dst: Access {
                    buf: b,
                    offset: 0,
                    strides: vec![1, rows as i64],
                },
                src0: Access {
                    buf: a,
                    offset: 0,
                    strides: vec![cols as i64, 1],
                },
                src1: None,
                imm: 0.0,
            }],
        );
        let c = compile(&k, &small_cfg()).unwrap();
        let mut m = Machine::new(small_cfg());
        let xs: Vec<f32> = (0..rows * cols).map(|i| i as f32).collect();
        write_f32s(&mut m, c.layout.addr(a), &xs);
        m.run(&c.program).unwrap();
        let out = read_f32s(&m, c.layout.addr(b), (rows * cols) as usize);
        for r in 0..rows as usize {
            for cidx in 0..cols as usize {
                assert_eq!(
                    out[cidx * rows as usize + r],
                    (r * cols as usize + cidx) as f32,
                    "({r},{cidx})"
                );
            }
        }
    }

    #[test]
    fn reduction_via_mac_broadcast_dst() {
        // acc[j] += x[i][j] over i: dst outer stride 0 -> serial mode.
        let (n, m_) = (40u64, 16u64);
        let mut cfg = small_cfg();
        cfg.scratchpad_bytes = 2048; // force multiple tiles
        let mut k = Kernel::new("colsum");
        let x = k.buffer("x", Dtype::F32, n * m_);
        let ones = k.buffer("ones", Dtype::F32, m_);
        let acc = k.buffer("acc", Dtype::F32, m_);
        k.nest(
            vec![n, m_],
            vec![VecStmt {
                op: VectorOp::Mac,
                dst: Access {
                    buf: acc,
                    offset: 0,
                    strides: vec![0, 1],
                },
                src0: Access {
                    buf: x,
                    offset: 0,
                    strides: vec![m_ as i64, 1],
                },
                src1: Some(Access {
                    buf: ones,
                    offset: 0,
                    strides: vec![0, 1],
                }),
                imm: 0.0,
            }],
        );
        let c = compile(&k, &cfg).unwrap();
        let mut m = Machine::new(cfg);
        let xs: Vec<f32> = (0..n * m_).map(|i| (i % 7) as f32).collect();
        write_f32s(&mut m, c.layout.addr(x), &xs);
        write_f32s(&mut m, c.layout.addr(ones), &vec![1.0; m_ as usize]);
        write_f32s(&mut m, c.layout.addr(acc), &vec![0.0; m_ as usize]);
        m.run(&c.program).unwrap();
        let out = read_f32s(&m, c.layout.addr(acc), m_ as usize);
        for (j, &got) in out.iter().enumerate().take(m_ as usize) {
            let expect: f32 = (0..n as usize)
                .map(|i| ((i * m_ as usize + j) % 7) as f32)
                .sum();
            assert!((got - expect).abs() < 1e-3, "col {j}: {got} vs {expect}");
        }
    }

    #[test]
    fn gather_through_resident_lut() {
        let mut k = Kernel::new("lut");
        let table = k.resident_buffer("table", Dtype::F32, 256);
        let idx = k.buffer("idx", Dtype::U32, 300);
        let out = k.buffer("out", Dtype::F32, 300);
        k.nest(
            vec![300],
            vec![VecStmt {
                op: VectorOp::Gather,
                dst: Access::row_major(out, &[300]),
                src0: Access::broadcast(table, 1, 0),
                src1: Some(Access::row_major(idx, &[300])),
                imm: 0.0,
            }],
        );
        let c = compile(&k, &small_cfg()).unwrap();
        let mut m = Machine::new(small_cfg());
        let tab: Vec<f32> = (0..256).map(|i| (i * i) as f32).collect();
        write_f32s(&mut m, c.layout.addr(table), &tab);
        let idxs: Vec<u8> = (0..300u32)
            .flat_map(|i| ((i * 7) % 256).to_le_bytes())
            .collect();
        m.write_dram(c.layout.addr(idx), &idxs);
        m.run(&c.program).unwrap();
        let out_v = read_f32s(&m, c.layout.addr(out), 300);
        for (i, &v) in out_v.iter().enumerate() {
            let j = (i * 7) % 256;
            assert_eq!(v, (j * j) as f32, "element {i}");
        }
    }

    #[test]
    fn cast_kernel_quantizes() {
        let mut k = Kernel::new("q");
        let a = k.buffer("a", Dtype::F32, 130);
        let b = k.buffer("b", Dtype::U8, 130);
        let n = 130u64;
        k.nest(
            vec![n],
            vec![VecStmt {
                op: VectorOp::Cast(Dtype::U8),
                dst: Access::row_major(b, &[n]),
                src0: Access::row_major(a, &[n]),
                src1: None,
                imm: 0.0,
            }],
        );
        let c = compile(&k, &small_cfg()).unwrap();
        let mut m = Machine::new(small_cfg());
        let xs: Vec<f32> = (0..n).map(|i| i as f32).collect();
        write_f32s(&mut m, c.layout.addr(a), &xs);
        m.run(&c.program).unwrap();
        let out = m.read_dram(c.layout.addr(b), n);
        for (i, &v) in out.iter().enumerate().take(n as usize) {
            assert_eq!(v, i as u8);
        }
    }

    #[test]
    fn working_set_too_large_is_reported() {
        let mut cfg = small_cfg();
        cfg.scratchpad_bytes = 1024;
        let mut k = Kernel::new("wide");
        let a = k.buffer("a", Dtype::F32, 4096);
        let b = k.buffer("b", Dtype::F32, 4096);
        // A single outer iteration touches a whole 4096-elem row.
        k.nest(
            vec![1, 4096],
            vec![VecStmt {
                op: VectorOp::Copy,
                dst: Access::row_major(b, &[1, 4096]),
                src0: Access::row_major(a, &[1, 4096]),
                src1: None,
                imm: 0.0,
            }],
        );
        assert!(matches!(
            compile(&k, &cfg),
            Err(CompileError::WorkingSetTooLarge { .. })
        ));
    }

    #[test]
    fn more_lanes_compile_to_fewer_cycles() {
        let build = |lanes: u32| -> u64 {
            let cfg = small_cfg().with_lanes(lanes);
            let n = 32768u64;
            let mut k = Kernel::new("s");
            let a = k.buffer("a", Dtype::F32, n);
            let b = k.buffer("b", Dtype::F32, n);
            k.nest(
                vec![n],
                vec![VecStmt {
                    op: VectorOp::MulS,
                    dst: Access::row_major(b, &[n]),
                    src0: Access::row_major(a, &[n]),
                    src1: None,
                    imm: 2.0,
                }],
            );
            let c = compile(&k, &cfg).unwrap();
            let mut m = Machine::new(cfg);
            write_f32s(&mut m, c.layout.addr(a), &vec![1.0; n as usize]);
            m.run(&c.program).unwrap().vec_busy_cycles
        };
        let c32 = build(32);
        let c128 = build(128);
        assert!(c32 > 2 * c128, "c32={c32} c128={c128}");
    }
}
