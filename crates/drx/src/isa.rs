//! The DRX instruction set (paper Fig. 7).
//!
//! The ISA "includes specialized loop, compute, off-chip memory access,
//! and synchronization instructions for vector operations while
//! preserving the option for scalar operations" (Sec. IV.B). It departs
//! from SIMD tradition in three ways, all visible here:
//!
//! * **memory** — no vector register file; compute reads and writes a
//!   software-managed scratchpad through three address-generator ports,
//!   and [`Instr::Dma`] moves data between DRAM and the scratchpad;
//! * **loops** — [`Instr::LoopDims`] configures the Instruction
//!   Repeater, and one [`Instr::Vec`] then executes across the whole
//!   loop nest with zero branch overhead; [`Instr::Repeat`] is the
//!   program-level hardware loop used to walk tiles;
//! * **packing** — the compiler partitions arrays across RE lanes via
//!   per-port lane strides, so there are no pack/unpack instructions.

use std::fmt;

/// Maximum loop-nest depth the Instruction Repeater supports.
pub const MAX_DIMS: usize = 4;

/// Number of scalar registers.
pub const SCALAR_REGS: usize = 16;

/// Bytes one encoded instruction occupies in the instruction cache.
pub const INSTR_BYTES: u64 = 16;

/// Element data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dtype {
    /// Unsigned 8-bit integer.
    U8,
    /// Signed 8-bit integer.
    I8,
    /// Unsigned 16-bit integer.
    U16,
    /// Signed 16-bit integer.
    I16,
    /// Unsigned 32-bit integer.
    U32,
    /// Signed 32-bit integer.
    I32,
    /// IEEE-754 single precision.
    F32,
}

impl Dtype {
    /// Size of one element in bytes.
    pub fn size(self) -> u64 {
        match self {
            Dtype::U8 | Dtype::I8 => 1,
            Dtype::U16 | Dtype::I16 => 2,
            Dtype::U32 | Dtype::I32 | Dtype::F32 => 4,
        }
    }

    /// True for the floating-point type.
    pub(crate) fn is_float(self) -> bool {
        self == Dtype::F32
    }
}

impl fmt::Display for Dtype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Dtype::U8 => "u8",
            Dtype::I8 => "i8",
            Dtype::U16 => "u16",
            Dtype::I16 => "i16",
            Dtype::U32 => "u32",
            Dtype::I32 => "i32",
            Dtype::F32 => "f32",
        };
        write!(f, "{s}")
    }
}

/// Address-generator ports feeding the Restructuring Engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Port {
    /// First source operand.
    Src0,
    /// Second source operand (or the index stream for gather/scatter).
    Src1,
    /// Destination.
    Dst,
}

impl Port {
    /// All ports.
    pub const ALL: [Port; 3] = [Port::Src0, Port::Src1, Port::Dst];

    /// Dense index for table lookups.
    pub(crate) fn index(self) -> usize {
        match self {
            Port::Src0 => 0,
            Port::Src1 => 1,
            Port::Dst => 2,
        }
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Port::Src0 => "src0",
            Port::Src1 => "src1",
            Port::Dst => "dst",
        };
        write!(f, "{s}")
    }
}

/// Vector operations executed by the RE lanes.
///
/// Binary ops read `src0` and `src1`; unary ops read `src0`;
/// `*S` ops combine `src0` with the instruction's scalar immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VectorOp {
    /// `dst = src0 + src1`
    Add,
    /// `dst = src0 - src1`
    Sub,
    /// `dst = src0 * src1`
    Mul,
    /// `dst = src0 / src1` (float only)
    Div,
    /// `dst = min(src0, src1)`
    Min,
    /// `dst = max(src0, src1)`
    Max,
    /// `dst += src0 * src1` (multiply-accumulate; with a zero-stride
    /// destination this is the ISA's reduction idiom)
    Mac,
    /// `dst = src0 & src1` (integer only)
    And,
    /// `dst = src0 | src1` (integer only)
    Or,
    /// `dst = src0 ^ src1` (integer only)
    Xor,
    /// `dst = src0 << imm` (integer only; shift amount in the immediate)
    Shl,
    /// `dst = src0 >> imm` (integer only, logical)
    Shr,
    /// `dst = src0`
    Copy,
    /// `dst = |src0|`
    Abs,
    /// `dst = -src0`
    Neg,
    /// `dst = ln(src0)` (float only)
    Log,
    /// `dst = exp(src0)` (float only)
    Exp,
    /// `dst = sqrt(src0)` (float only)
    Sqrt,
    /// `dst = 1/src0` (float only)
    Recip,
    /// `dst = src0 + imm`
    AddS,
    /// `dst = src0 * imm`
    MulS,
    /// `dst = min(src0, imm)`
    MinS,
    /// `dst = max(src0, imm)`
    MaxS,
    /// `dst = imm` (fill)
    Fill,
    /// `dst = convert(src0)` to the given type
    Cast(Dtype),
    /// byte-swap each element (integer only; endianness conversion)
    Bswap,
    /// `dst = data[src1]`: `src1` streams `u32` element indices, the
    /// data is read from scratchpad at `src0.base + idx * elem`
    Gather,
    /// `data[src1] = src0`: scatter through a `u32` index stream; the
    /// target base comes from the `dst` port
    Scatter,
}

impl VectorOp {
    /// True if the op consumes a second streamed operand through `src1`.
    pub(crate) fn uses_src1(self) -> bool {
        matches!(
            self,
            VectorOp::Add
                | VectorOp::Sub
                | VectorOp::Mul
                | VectorOp::Div
                | VectorOp::Min
                | VectorOp::Max
                | VectorOp::Mac
                | VectorOp::And
                | VectorOp::Or
                | VectorOp::Xor
                | VectorOp::Gather
                | VectorOp::Scatter
        )
    }

    /// True if the op reads the scalar immediate.
    pub fn uses_imm(self) -> bool {
        matches!(
            self,
            VectorOp::AddS
                | VectorOp::MulS
                | VectorOp::MinS
                | VectorOp::MaxS
                | VectorOp::Fill
                | VectorOp::Shl
                | VectorOp::Shr
        )
    }

    /// True if the op is only defined on integer element types.
    pub(crate) fn integer_only(self) -> bool {
        matches!(
            self,
            VectorOp::And
                | VectorOp::Or
                | VectorOp::Xor
                | VectorOp::Shl
                | VectorOp::Shr
                | VectorOp::Bswap
        )
    }

    /// True if the op is only defined on the float element type.
    pub(crate) fn float_only(self) -> bool {
        matches!(
            self,
            VectorOp::Div | VectorOp::Log | VectorOp::Exp | VectorOp::Sqrt | VectorOp::Recip
        )
    }

    /// Issue interval in cycles per loop-nest point: transcendental and
    /// division units are pipelined shallower than the ALU datapath;
    /// gather/scatter pay scratchpad bank arbitration.
    pub(crate) fn issue_interval(self) -> u64 {
        match self {
            VectorOp::Div | VectorOp::Log | VectorOp::Exp | VectorOp::Sqrt | VectorOp::Recip => 4,
            VectorOp::Gather | VectorOp::Scatter => 2,
            _ => 1,
        }
    }

    /// Pipeline fill latency charged once per [`Instr::Vec`] execution.
    pub(crate) fn fill_latency(self) -> u64 {
        8
    }

    fn mnemonic(self) -> &'static str {
        match self {
            VectorOp::Add => "vadd",
            VectorOp::Sub => "vsub",
            VectorOp::Mul => "vmul",
            VectorOp::Div => "vdiv",
            VectorOp::Min => "vmin",
            VectorOp::Max => "vmax",
            VectorOp::Mac => "vmac",
            VectorOp::And => "vand",
            VectorOp::Or => "vor",
            VectorOp::Xor => "vxor",
            VectorOp::Shl => "vshl",
            VectorOp::Shr => "vshr",
            VectorOp::Copy => "vcopy",
            VectorOp::Abs => "vabs",
            VectorOp::Neg => "vneg",
            VectorOp::Log => "vlog",
            VectorOp::Exp => "vexp",
            VectorOp::Sqrt => "vsqrt",
            VectorOp::Recip => "vrecip",
            VectorOp::AddS => "vadds",
            VectorOp::MulS => "vmuls",
            VectorOp::MinS => "vmins",
            VectorOp::MaxS => "vmaxs",
            VectorOp::Fill => "vfill",
            VectorOp::Cast(_) => "vcast",
            VectorOp::Bswap => "vbswap",
            VectorOp::Gather => "vgather",
            VectorOp::Scatter => "vscatter",
        }
    }
}

impl fmt::Display for VectorOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VectorOp::Cast(to) => write!(f, "vcast.{to}"),
            other => write!(f, "{}", other.mnemonic()),
        }
    }
}

/// Direction of an off-chip DMA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DmaDir {
    /// DRAM → scratchpad.
    Load,
    /// Scratchpad → DRAM.
    Store,
}

/// How a DMA's DRAM address is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramAddr {
    /// A literal byte address.
    Imm(u64),
    /// `regs[reg] + offset` — lets a [`Instr::Repeat`] body walk tiles.
    Reg {
        /// Scalar register holding the base.
        reg: u8,
        /// Byte offset added to the register.
        offset: i64,
    },
}

/// Synchronization instructions (program-order fences between the
/// front-end, the vector pipeline and the off-chip data access engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncKind {
    /// Stall issue until the first `n` DMAs issued so far have completed.
    WaitMemCount(u64),
    /// Stall issue until at most `n` DMAs are still outstanding. Unlike
    /// [`SyncKind::WaitMemCount`] this is *relative*, so it works inside
    /// [`Instr::Repeat`] bodies — the double-buffering idiom is
    /// "prefetch, then `WaitMemPending(prefetch_count)`".
    WaitMemPending(u64),
    /// Stall issue until every DMA issued so far has completed.
    WaitMemAll,
    /// Stall issue until the vector pipeline has drained.
    WaitVec,
    /// Start-of-stream marker (Sec. IV.B: "synchronization instructions
    /// are issued at the start and the end of the instruction stream").
    Start,
    /// End-of-stream marker; drains every engine.
    End,
}

/// Scalar ALU/branch instructions (DRX "turns off all but one REs and
/// operates as a scalar in-order CPU", Sec. IV.B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarInstr {
    /// `regs[rd] = imm`
    LdImm {
        /// Destination register.
        rd: u8,
        /// Immediate value.
        imm: i64,
    },
    /// `regs[rd] = regs[rs1] op regs[rs2]`
    Alu {
        /// Operation.
        op: ScalarOp,
        /// Destination register.
        rd: u8,
        /// First source register.
        rs1: u8,
        /// Second source register.
        rs2: u8,
    },
    /// `regs[rd] = regs[rs] + imm`
    AddImm {
        /// Destination register.
        rd: u8,
        /// Source register.
        rs: u8,
        /// Immediate addend.
        imm: i64,
    },
    /// `regs[rd] = load(dtype, spad[regs[ra] + offset])` (zero/sign extended)
    Load {
        /// Destination register.
        rd: u8,
        /// Address register.
        ra: u8,
        /// Byte offset.
        offset: i64,
        /// Element type to load.
        dtype: Dtype,
    },
    /// `store(dtype, spad[regs[ra] + offset]) = regs[rs]`
    Store {
        /// Source register.
        rs: u8,
        /// Address register.
        ra: u8,
        /// Byte offset.
        offset: i64,
        /// Element type to store.
        dtype: Dtype,
    },
    /// Branch to `pc + offset` if `regs[rs] != 0`.
    Bnez {
        /// Condition register.
        rs: u8,
        /// Signed instruction offset relative to this instruction.
        offset: i32,
    },
    /// Branch to `pc + offset` if `regs[rs] == 0`.
    Beqz {
        /// Condition register.
        rs: u8,
        /// Signed instruction offset relative to this instruction.
        offset: i32,
    },
}

/// Scalar ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (by rs2 & 63).
    Shl,
    /// Logical shift right (by rs2 & 63).
    Shr,
    /// Set if less-than (signed): `rd = (rs1 < rs2) as i64`.
    Slt,
}

/// One DRX instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Configure the Instruction Repeater with the loop-nest iteration
    /// space (outermost dimension first; unused entries are 1).
    LoopDims {
        /// Iteration counts, outermost first.
        dims: [u32; MAX_DIMS],
    },
    /// Configure one address-generator port: byte strides per loop
    /// dimension plus the stride between adjacent RE lanes.
    SetStride {
        /// Which port.
        port: Port,
        /// Byte stride per dimension (matching `LoopDims` order).
        strides: [i64; MAX_DIMS],
        /// Byte stride between adjacent lanes (element size for unit
        /// access, 0 to broadcast one value to all lanes).
        lane_stride: i64,
    },
    /// Set a port's scratchpad base byte address.
    SetBase {
        /// Which port.
        port: Port,
        /// Scratchpad byte address.
        addr: u64,
    },
    /// Add a signed delta to a port's base (tile walking inside
    /// [`Instr::Repeat`] bodies).
    AdvanceBase {
        /// Which port.
        port: Port,
        /// Signed byte delta.
        delta: i64,
    },
    /// Off-chip DMA between DRAM and the scratchpad.
    Dma {
        /// Direction.
        dir: DmaDir,
        /// DRAM byte address (literal or register-relative).
        dram: DramAddr,
        /// Scratchpad byte address.
        spad: u64,
        /// Transfer length in bytes.
        bytes: u64,
    },
    /// Programmable row-gather DMA: fetches `rows` rows of `row_bytes`
    /// each from DRAM, where row `i`'s index is the `u32` at scratchpad
    /// `idx_spad + 4*i`; row `j` is read from `dram_base + j*row_bytes`
    /// and written to `spad + i*row_bytes`. This is the "programmable
    /// front-end specialized for walking over multi-dimensional data
    /// structures" applied to off-chip access.
    DmaGatherRows {
        /// DRAM base of row 0.
        dram_base: u64,
        /// Bytes per row.
        row_bytes: u64,
        /// Number of rows to fetch.
        rows: u32,
        /// Scratchpad address of the `u32` row-index table.
        idx_spad: u64,
        /// Scratchpad destination.
        spad: u64,
    },
    /// Vector compute across the configured loop nest.
    Vec {
        /// Operation.
        op: VectorOp,
        /// Element type interpretation for sources (and destination,
        /// except for `Cast`).
        dtype: Dtype,
        /// Elements processed per loop-nest point (must not exceed the
        /// configured lane count).
        vlen: u32,
        /// Scalar immediate for `*S`, `Fill` and shift ops.
        imm: f64,
    },
    /// Transposition Engine: transpose a `rows x cols` tile of `dtype`
    /// elements from `src0.base` to `dst.base` (both dense, row-major).
    Transpose {
        /// Rows of the source tile.
        rows: u32,
        /// Columns of the source tile.
        cols: u32,
        /// Element type.
        dtype: Dtype,
    },
    /// Hardware loop over the next `body` instructions, `count` times.
    Repeat {
        /// Iteration count.
        count: u32,
        /// Number of following instructions forming the body.
        body: u32,
    },
    /// Synchronization.
    Sync(SyncKind),
    /// Scalar operation.
    Scalar(ScalarInstr),
    /// Stop execution.
    Halt,
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::LoopDims { dims } => {
                write!(f, "loop.dims {}, {}, {}, {}", dims[0], dims[1], dims[2], dims[3])
            }
            Instr::SetStride {
                port,
                strides,
                lane_stride,
            } => write!(
                f,
                "stride.{port} {}, {}, {}, {} lane={lane_stride}",
                strides[0], strides[1], strides[2], strides[3]
            ),
            Instr::SetBase { port, addr } => write!(f, "base.{port} {addr:#x}"),
            Instr::AdvanceBase { port, delta } => write!(f, "advance.{port} {delta}"),
            Instr::Dma {
                dir,
                dram,
                spad,
                bytes,
            } => {
                let d = match dram {
                    DramAddr::Imm(a) => format!("{a:#x}"),
                    DramAddr::Reg { reg, offset } => format!("r{reg}+{offset}"),
                };
                match dir {
                    DmaDir::Load => write!(f, "dma.ld spad={spad:#x} dram={d} bytes={bytes}"),
                    DmaDir::Store => write!(f, "dma.st dram={d} spad={spad:#x} bytes={bytes}"),
                }
            }
            Instr::DmaGatherRows {
                dram_base,
                row_bytes,
                rows,
                idx_spad,
                spad,
            } => write!(
                f,
                "dma.gather rows={rows} row_bytes={row_bytes} dram={dram_base:#x} idx={idx_spad:#x} spad={spad:#x}"
            ),
            Instr::Vec {
                op,
                dtype,
                vlen,
                imm,
            } => {
                if op.uses_imm() {
                    write!(f, "{op}.{dtype} vlen={vlen} imm={imm}")
                } else {
                    write!(f, "{op}.{dtype} vlen={vlen}")
                }
            }
            Instr::Transpose { rows, cols, dtype } => {
                write!(f, "transpose.{dtype} {rows}x{cols}")
            }
            Instr::Repeat { count, body } => write!(f, "repeat {count} body={body}"),
            Instr::Sync(k) => match k {
                SyncKind::WaitMemCount(n) => write!(f, "sync.mem {n}"),
                SyncKind::WaitMemPending(n) => write!(f, "sync.pending {n}"),
                SyncKind::WaitMemAll => write!(f, "sync.mem.all"),
                SyncKind::WaitVec => write!(f, "sync.vec"),
                SyncKind::Start => write!(f, "sync.start"),
                SyncKind::End => write!(f, "sync.end"),
            },
            Instr::Scalar(s) => match s {
                ScalarInstr::LdImm { rd, imm } => write!(f, "s.li r{rd}, {imm}"),
                ScalarInstr::Alu { op, rd, rs1, rs2 } => {
                    let m = match op {
                        ScalarOp::Add => "s.add",
                        ScalarOp::Sub => "s.sub",
                        ScalarOp::Mul => "s.mul",
                        ScalarOp::And => "s.and",
                        ScalarOp::Or => "s.or",
                        ScalarOp::Xor => "s.xor",
                        ScalarOp::Shl => "s.shl",
                        ScalarOp::Shr => "s.shr",
                        ScalarOp::Slt => "s.slt",
                    };
                    write!(f, "{m} r{rd}, r{rs1}, r{rs2}")
                }
                ScalarInstr::AddImm { rd, rs, imm } => write!(f, "s.addi r{rd}, r{rs}, {imm}"),
                ScalarInstr::Load {
                    rd,
                    ra,
                    offset,
                    dtype,
                } => write!(f, "s.ld.{dtype} r{rd}, {offset}(r{ra})"),
                ScalarInstr::Store {
                    rs,
                    ra,
                    offset,
                    dtype,
                } => write!(f, "s.st.{dtype} r{rs}, {offset}(r{ra})"),
                ScalarInstr::Bnez { rs, offset } => write!(f, "s.bnez r{rs}, {offset}"),
                ScalarInstr::Beqz { rs, offset } => write!(f, "s.beqz r{rs}, {offset}"),
            },
            Instr::Halt => write!(f, "halt"),
        }
    }
}

/// A DRX program: a flat instruction sequence.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// The instructions.
    pub instrs: Vec<Instr>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Encoded size in instruction-cache bytes.
    pub fn encoded_bytes(&self) -> u64 {
        self.instrs.len() as u64 * INSTR_BYTES
    }

    /// Appends an instruction.
    pub fn push(&mut self, i: Instr) {
        self.instrs.push(i);
    }

    /// Renders the program as assembly text (one instruction per line),
    /// re-parseable by [`crate::asm::parse`].
    pub fn disassemble(&self) -> String {
        let mut s = String::new();
        for i in &self.instrs {
            s.push_str(&i.to_string());
            s.push('\n');
        }
        s
    }
}

impl FromIterator<Instr> for Program {
    fn from_iter<T: IntoIterator<Item = Instr>>(iter: T) -> Program {
        Program {
            instrs: iter.into_iter().collect(),
        }
    }
}

impl Extend<Instr> for Program {
    fn extend<T: IntoIterator<Item = Instr>>(&mut self, iter: T) {
        self.instrs.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_sizes() {
        assert_eq!(Dtype::U8.size(), 1);
        assert_eq!(Dtype::I16.size(), 2);
        assert_eq!(Dtype::F32.size(), 4);
        assert!(Dtype::F32.is_float());
        assert!(!Dtype::I32.is_float());
    }

    #[test]
    fn op_classification_is_consistent() {
        for op in [
            VectorOp::Add,
            VectorOp::Mac,
            VectorOp::Gather,
            VectorOp::Scatter,
        ] {
            assert!(op.uses_src1());
        }
        for op in [VectorOp::Copy, VectorOp::Abs, VectorOp::Log, VectorOp::Fill] {
            assert!(!op.uses_src1());
        }
        // No op is both integer-only and float-only.
        let all = [
            VectorOp::Add,
            VectorOp::Sub,
            VectorOp::Mul,
            VectorOp::Div,
            VectorOp::Min,
            VectorOp::Max,
            VectorOp::Mac,
            VectorOp::And,
            VectorOp::Or,
            VectorOp::Xor,
            VectorOp::Shl,
            VectorOp::Shr,
            VectorOp::Copy,
            VectorOp::Abs,
            VectorOp::Neg,
            VectorOp::Log,
            VectorOp::Exp,
            VectorOp::Sqrt,
            VectorOp::Recip,
            VectorOp::AddS,
            VectorOp::MulS,
            VectorOp::MinS,
            VectorOp::MaxS,
            VectorOp::Fill,
            VectorOp::Cast(Dtype::F32),
            VectorOp::Bswap,
            VectorOp::Gather,
            VectorOp::Scatter,
        ];
        for op in all {
            assert!(!(op.integer_only() && op.float_only()), "{op}");
            assert!(op.issue_interval() >= 1);
        }
    }

    #[test]
    fn program_size_accounting() {
        let mut p = Program::new();
        assert!(p.is_empty());
        p.push(Instr::Halt);
        p.push(Instr::Sync(SyncKind::Start));
        assert_eq!(p.len(), 2);
        assert_eq!(p.encoded_bytes(), 32);
    }

    #[test]
    fn display_round_trips_visually() {
        let i = Instr::Vec {
            op: VectorOp::MulS,
            dtype: Dtype::F32,
            vlen: 128,
            imm: 2.5,
        };
        assert_eq!(i.to_string(), "vmuls.f32 vlen=128 imm=2.5");
        let c = Instr::Vec {
            op: VectorOp::Cast(Dtype::U8),
            dtype: Dtype::F32,
            vlen: 64,
            imm: 0.0,
        };
        assert_eq!(c.to_string(), "vcast.u8.f32 vlen=64");
    }

    #[test]
    fn program_collects_from_iterator() {
        let p: Program = [Instr::Halt].into_iter().collect();
        assert_eq!(p.len(), 1);
    }
}
