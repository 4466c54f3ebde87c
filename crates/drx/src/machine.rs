//! Functional DRX simulator with cycle accounting.
//!
//! [`Machine`] executes a [`Program`] instruction by instruction,
//! computing both *results* (so restructuring kernels can be checked
//! bit-for-bit against their CPU references) and *cycles* under the
//! paper's decoupled access–execute microarchitecture: the front-end
//! issues in order; vector work retires on the RE pipeline clock; DMAs
//! retire on the Off-chip Data Access Engine clock; `sync.*`
//! instructions join the clocks. Double buffering emitted by the
//! compiler therefore overlaps DMA and compute with no special cases
//! here.

use crate::config::DrxConfig;
use crate::isa::{
    DmaDir, DramAddr, Dtype, Instr, Port, Program, ScalarInstr, ScalarOp, SyncKind, VectorOp,
    MAX_DIMS, SCALAR_REGS,
};
use dmx_sim::Time;
use std::fmt;

/// Expands `$body` once per element type, with `$t` naming the Rust
/// type of `$dtype`: the one place a [`Dtype`] becomes a static type.
macro_rules! with_elem {
    ($dtype:expr, $t:ident => $body:expr) => {
        match $dtype {
            Dtype::U8 => {
                type $t = u8;
                $body
            }
            Dtype::I8 => {
                type $t = i8;
                $body
            }
            Dtype::U16 => {
                type $t = u16;
                $body
            }
            Dtype::I16 => {
                type $t = i16;
                $body
            }
            Dtype::U32 => {
                type $t = u32;
                $body
            }
            Dtype::I32 => {
                type $t = i32;
                $body
            }
            Dtype::F32 => {
                type $t = f32;
                $body
            }
        }
    };
}

/// Execution statistics and cycle accounting for one program run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// Total cycles until every engine drained.
    pub cycles: u64,
    /// Cycles the vector pipeline was busy.
    pub vec_busy_cycles: u64,
    /// Cycles the off-chip data access engine was busy.
    pub mem_busy_cycles: u64,
    /// Loop-nest points executed by vector instructions.
    pub vec_points: u64,
    /// Individual lane operations (points x vlen).
    pub lane_ops: u64,
    /// Bytes moved between DRAM and scratchpad.
    pub dram_bytes: u64,
    /// Bytes read or written in the scratchpad by compute.
    pub spad_bytes: u64,
    /// Number of DMA commands.
    pub dma_count: u64,
    /// Vector instructions executed (post-repeat).
    pub vec_instrs: u64,
    /// Scalar instructions executed (post-repeat).
    pub scalar_instrs: u64,
    /// Instructions issued by the front-end (post-repeat).
    pub instrs_issued: u64,
}

impl ExecStats {
    /// Wall-clock duration of the run at `config`'s clock.
    pub fn time(&self, config: &DrxConfig) -> Time {
        Time::from_cycles(self.cycles, config.clock.hz())
    }
}

/// Errors raised during execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Program does not fit in the configured instruction cache.
    ProgramTooLarge {
        /// Encoded program size.
        bytes: u64,
        /// Instruction cache capacity.
        icache: u64,
    },
    /// A compute or scalar access fell outside the scratchpad.
    OobScratchpad {
        /// Offending byte address.
        addr: i128,
    },
    /// A DMA touched DRAM beyond the configured capacity.
    OobDram {
        /// Offending byte address.
        addr: u64,
    },
    /// `vlen` exceeded the configured lane count (or was zero).
    BadVlen {
        /// Requested vector length.
        vlen: u32,
        /// Configured lanes.
        lanes: u32,
    },
    /// An integer-only op was applied to `f32`.
    IntOpOnFloat(VectorOp),
    /// A float-only op was applied to an integer type.
    FloatOpOnInt(VectorOp),
    /// `sync.mem n` waited for more DMAs than were issued.
    WaitMemCountTooLarge {
        /// Requested count.
        want: u64,
        /// DMAs issued so far.
        issued: u64,
    },
    /// A branch target left the current hardware-loop frame.
    BranchOutOfFrame {
        /// Target pc.
        target: i64,
    },
    /// A `repeat` body extended past the end of the program.
    BadRepeatBody,
    /// A scalar instruction referenced a register >= 16.
    BadRegister(u8),
    /// A loop dimension was zero.
    ZeroLoopDim,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::ProgramTooLarge { bytes, icache } => {
                write!(
                    f,
                    "program of {bytes} B exceeds {icache} B instruction cache"
                )
            }
            ExecError::OobScratchpad { addr } => {
                write!(f, "scratchpad access out of bounds at byte {addr}")
            }
            ExecError::OobDram { addr } => write!(f, "dram access out of bounds at byte {addr}"),
            ExecError::BadVlen { vlen, lanes } => {
                write!(f, "vlen {vlen} invalid for {lanes} lanes")
            }
            ExecError::IntOpOnFloat(op) => write!(f, "integer-only op {op} applied to f32"),
            ExecError::FloatOpOnInt(op) => write!(f, "float-only op {op} applied to integer type"),
            ExecError::WaitMemCountTooLarge { want, issued } => {
                write!(f, "sync.mem {want} but only {issued} DMAs issued")
            }
            ExecError::BranchOutOfFrame { target } => {
                write!(f, "branch target {target} escapes the active hardware loop")
            }
            ExecError::BadRepeatBody => write!(f, "repeat body extends past end of program"),
            ExecError::BadRegister(r) => write!(f, "scalar register r{r} does not exist"),
            ExecError::ZeroLoopDim => write!(f, "loop dimension of zero configured"),
        }
    }
}

impl std::error::Error for ExecError {}

#[derive(Debug, Clone, Copy, Default)]
struct PortCfg {
    base: i128,
    strides: [i64; MAX_DIMS],
    lane_stride: i64,
}

/// Executes one vector instruction, returning its cycles.
type VecExec =
    fn(&mut Machine, VectorOp, Dtype, u32, f64, &mut ExecStats) -> Result<u64, ExecError>;

#[derive(Debug, Clone, Copy)]
struct Frame {
    start: usize,
    end: usize, // exclusive
    remaining: u32,
}

/// A DRX device instance: configuration, scratchpad, DRAM, and scalar
/// register file.
///
/// ```
/// use dmx_drx::{DrxConfig, Machine};
/// use dmx_drx::isa::{Instr, Program, VectorOp, Dtype, Port, SyncKind, DmaDir, DramAddr};
///
/// let mut m = Machine::new(DrxConfig::default());
/// m.write_dram(0, &42f32.to_le_bytes());
/// let prog: Program = [
///     Instr::Sync(SyncKind::Start),
///     Instr::Dma { dir: DmaDir::Load, dram: DramAddr::Imm(0), spad: 0, bytes: 4 },
///     Instr::Sync(SyncKind::WaitMemAll),
///     Instr::LoopDims { dims: [1, 1, 1, 1] },
///     Instr::SetBase { port: Port::Src0, addr: 0 },
///     Instr::SetStride { port: Port::Src0, strides: [0; 4], lane_stride: 4 },
///     Instr::SetBase { port: Port::Dst, addr: 64 },
///     Instr::SetStride { port: Port::Dst, strides: [0; 4], lane_stride: 4 },
///     Instr::Vec { op: VectorOp::MulS, dtype: Dtype::F32, vlen: 1, imm: 2.0 },
///     Instr::Sync(SyncKind::WaitVec),
///     Instr::Dma { dir: DmaDir::Store, dram: DramAddr::Imm(64), spad: 64, bytes: 4 },
///     Instr::Sync(SyncKind::End),
///     Instr::Halt,
/// ].into_iter().collect();
/// let stats = m.run(&prog).expect("program is well-formed");
/// assert_eq!(f32::from_le_bytes(m.read_dram(64, 4).try_into().unwrap()), 84.0);
/// assert!(stats.cycles > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    config: DrxConfig,
    spad: Vec<u8>,
    dram: Vec<u8>,
    regs: [i64; SCALAR_REGS],
    ports: [PortCfg; 3],
    dims: [u32; MAX_DIMS],
}

impl Machine {
    /// Creates a machine with zeroed memories.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (`DrxConfig::validate`).
    pub fn new(config: DrxConfig) -> Machine {
        config.validate().expect("invalid DRX configuration");
        Machine {
            config,
            spad: vec![0; config.scratchpad_bytes as usize],
            dram: Vec::new(),
            regs: [0; SCALAR_REGS],
            ports: [PortCfg::default(); 3],
            dims: [1; MAX_DIMS],
        }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &DrxConfig {
        &self.config
    }

    /// Writes bytes into DRAM, growing the backing store as needed.
    ///
    /// # Panics
    ///
    /// Panics if the write exceeds the configured DRAM capacity.
    pub fn write_dram(&mut self, addr: u64, data: &[u8]) {
        let end = addr + data.len() as u64;
        assert!(
            end <= self.config.dram.capacity_bytes,
            "write beyond DRAM capacity"
        );
        if self.dram.len() < end as usize {
            self.dram.resize(end as usize, 0);
        }
        self.dram[addr as usize..end as usize].copy_from_slice(data);
    }

    /// Reads bytes from DRAM (untouched bytes read as zero).
    pub fn read_dram(&self, addr: u64, len: u64) -> Vec<u8> {
        let mut out = vec![0u8; len as usize];
        let have = self.dram.len() as u64;
        if addr < have {
            let n = (have - addr).min(len) as usize;
            out[..n].copy_from_slice(&self.dram[addr as usize..addr as usize + n]);
        }
        out
    }

    /// Current value of a scalar register.
    pub fn reg(&self, r: u8) -> i64 {
        self.regs[r as usize]
    }

    /// Flips one bit of device DRAM in place (silent-corruption hook).
    /// Bytes past the current backing store are logically zero, so the
    /// store grows to cover the flip — matching `read_dram`'s
    /// zero-fill view — as long as it stays within capacity;
    /// out-of-capacity offsets are ignored.
    pub fn flip_dram_bit(&mut self, offset: u64, bit: u8) {
        if offset >= self.config.dram.capacity_bytes {
            return;
        }
        if self.dram.len() <= offset as usize {
            self.dram.resize(offset as usize + 1, 0);
        }
        self.dram[offset as usize] ^= 1 << (bit & 7);
    }

    fn dram_ensure(&mut self, addr: u64, len: u64) -> Result<(), ExecError> {
        let end = addr.checked_add(len).ok_or(ExecError::OobDram { addr })?;
        if end > self.config.dram.capacity_bytes {
            return Err(ExecError::OobDram { addr: end });
        }
        if self.dram.len() < end as usize {
            self.dram.resize(end as usize, 0);
        }
        Ok(())
    }

    fn spad_check(&self, addr: i128, len: u64) -> Result<usize, ExecError> {
        spad_offset(self.spad.len(), addr, len)
    }

    fn read_int(&self, addr: i128, dtype: Dtype) -> Result<i64, ExecError> {
        let a = self.spad_check(addr, dtype.size())?;
        let b = &self.spad[a..a + dtype.size() as usize];
        Ok(match dtype {
            Dtype::U8 => b[0] as i64,
            Dtype::I8 => b[0] as i8 as i64,
            Dtype::U16 => u16::from_le_bytes([b[0], b[1]]) as i64,
            Dtype::I16 => i16::from_le_bytes([b[0], b[1]]) as i64,
            Dtype::U32 => u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as i64,
            Dtype::I32 => i32::from_le_bytes([b[0], b[1], b[2], b[3]]) as i64,
            Dtype::F32 => f32::from_le_bytes([b[0], b[1], b[2], b[3]]) as i64,
        })
    }

    fn write_int(&mut self, addr: i128, dtype: Dtype, v: i64) -> Result<(), ExecError> {
        let a = self.spad_check(addr, dtype.size())?;
        match dtype {
            Dtype::U8 => self.spad[a] = v as u8,
            Dtype::I8 => self.spad[a] = v as u8,
            Dtype::U16 | Dtype::I16 => {
                self.spad[a..a + 2].copy_from_slice(&(v as u16).to_le_bytes());
            }
            Dtype::U32 | Dtype::I32 => {
                self.spad[a..a + 4].copy_from_slice(&(v as u32).to_le_bytes());
            }
            Dtype::F32 => {
                self.spad[a..a + 4].copy_from_slice(&(v as f32).to_le_bytes());
            }
        }
        Ok(())
    }

    /// Runs a program to completion, returning cycle and operation
    /// statistics.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] for malformed programs or out-of-bounds
    /// accesses; the machine's memories are left in their partial state.
    pub fn run(&mut self, prog: &Program) -> Result<ExecStats, ExecError> {
        self.run_with(prog, Machine::exec_vec)
    }

    /// [`Machine::run`] with the vector-instruction executor passed in,
    /// so tests can run a program on the per-lane reference instead.
    fn run_with(&mut self, prog: &Program, exec_vec: VecExec) -> Result<ExecStats, ExecError> {
        if prog.encoded_bytes() > self.config.icache_bytes {
            return Err(ExecError::ProgramTooLarge {
                bytes: prog.encoded_bytes(),
                icache: self.config.icache_bytes,
            });
        }
        let mut st = ExecStats::default();
        let mut issue: u64 = 0; // front-end clock
        let mut exec: u64 = 0; // vector pipeline clock
        let mut mem_free: u64 = 0; // off-chip engine clock
        let mut dma_done: Vec<u64> = Vec::new();
        let mut frames: Vec<Frame> = Vec::new();
        let mut pc: usize = 0;

        while pc < prog.instrs.len() {
            let instr = &prog.instrs[pc];
            issue += 1;
            st.instrs_issued += 1;
            let mut next_pc = pc + 1;
            match instr {
                Instr::LoopDims { dims } => {
                    if dims.contains(&0) {
                        return Err(ExecError::ZeroLoopDim);
                    }
                    self.dims = *dims;
                }
                Instr::SetStride {
                    port,
                    strides,
                    lane_stride,
                } => {
                    let p = &mut self.ports[port.index()];
                    p.strides = *strides;
                    p.lane_stride = *lane_stride;
                }
                Instr::SetBase { port, addr } => {
                    self.ports[port.index()].base = *addr as i128;
                }
                Instr::AdvanceBase { port, delta } => {
                    self.ports[port.index()].base += *delta as i128;
                }
                Instr::Dma {
                    dir,
                    dram,
                    spad,
                    bytes,
                } => {
                    let dram_addr = match dram {
                        DramAddr::Imm(a) => *a as i128,
                        DramAddr::Reg { reg, offset } => {
                            if *reg as usize >= SCALAR_REGS {
                                return Err(ExecError::BadRegister(*reg));
                            }
                            self.regs[*reg as usize] as i128 + *offset as i128
                        }
                    };
                    if dram_addr < 0 {
                        return Err(ExecError::OobDram { addr: 0 });
                    }
                    let dram_addr = dram_addr as u64;
                    self.dram_ensure(dram_addr, *bytes)?;
                    let s = self.spad_check(*spad as i128, *bytes)?;
                    match dir {
                        DmaDir::Load => {
                            let d = dram_addr as usize;
                            self.spad[s..s + *bytes as usize]
                                .copy_from_slice(&self.dram[d..d + *bytes as usize]);
                        }
                        DmaDir::Store => {
                            let d = dram_addr as usize;
                            self.dram[d..d + *bytes as usize]
                                .copy_from_slice(&self.spad[s..s + *bytes as usize]);
                        }
                    }
                    let cycles =
                        32 + (*bytes as f64 / self.config.dram_bytes_per_cycle()).ceil() as u64;
                    let start = mem_free.max(issue);
                    mem_free = start + cycles;
                    dma_done.push(mem_free);
                    st.mem_busy_cycles += cycles;
                    st.dram_bytes += bytes;
                    st.dma_count += 1;
                }
                Instr::DmaGatherRows {
                    dram_base,
                    row_bytes,
                    rows,
                    idx_spad,
                    spad,
                } => {
                    // Read the row index table first. It faults before
                    // reading more than a scratchpad of indices.
                    let mut indices = Vec::with_capacity((*rows as usize).min(self.spad.len() / 4));
                    for i in 0..*rows {
                        let v =
                            self.read_int(*idx_spad as i128 + 4 * i as i128, Dtype::U32)? as u64;
                        indices.push(v);
                    }
                    // Sizes and addresses come from the program: a sum or
                    // product that overflows is an access past the end.
                    let total =
                        row_bytes
                            .checked_mul(*rows as u64)
                            .ok_or(ExecError::OobScratchpad {
                                addr: *spad as i128,
                            })?;
                    let dst = self.spad_check(*spad as i128, total)?;
                    for (i, idx) in indices.iter().enumerate() {
                        let src = idx
                            .checked_mul(*row_bytes)
                            .and_then(|off| dram_base.checked_add(off))
                            .ok_or(ExecError::OobDram { addr: u64::MAX })?;
                        self.dram_ensure(src, *row_bytes)?;
                        // Inside the `total` bytes checked above.
                        let s = dst + i * *row_bytes as usize;
                        let d = src as usize;
                        self.spad[s..s + *row_bytes as usize]
                            .copy_from_slice(&self.dram[d..d + *row_bytes as usize]);
                    }
                    let cycles = 32
                        + *rows as u64 * 4
                        + (total as f64 / self.config.dram_bytes_per_cycle()).ceil() as u64;
                    let start = mem_free.max(issue);
                    mem_free = start + cycles;
                    dma_done.push(mem_free);
                    st.mem_busy_cycles += cycles;
                    st.dram_bytes += total;
                    st.dma_count += 1;
                }
                Instr::Vec {
                    op,
                    dtype,
                    vlen,
                    imm,
                } => {
                    let cycles = exec_vec(self, *op, *dtype, *vlen, *imm, &mut st)?;
                    exec = exec.max(issue) + cycles;
                    st.vec_busy_cycles += cycles;
                    st.vec_instrs += 1;
                }
                Instr::Transpose { rows, cols, dtype } => {
                    let cycles = self.exec_transpose(*rows, *cols, *dtype, &mut st)?;
                    exec = exec.max(issue) + cycles;
                    st.vec_busy_cycles += cycles;
                    st.vec_instrs += 1;
                }
                Instr::Repeat { count, body } => {
                    let end = pc + 1 + *body as usize;
                    if end > prog.instrs.len() || *body == 0 {
                        return Err(ExecError::BadRepeatBody);
                    }
                    if *count == 0 {
                        next_pc = end;
                    } else {
                        frames.push(Frame {
                            start: pc + 1,
                            end,
                            remaining: *count,
                        });
                    }
                }
                Instr::Sync(kind) => match kind {
                    SyncKind::WaitMemCount(n) => {
                        if *n > dma_done.len() as u64 {
                            return Err(ExecError::WaitMemCountTooLarge {
                                want: *n,
                                issued: dma_done.len() as u64,
                            });
                        }
                        if *n > 0 {
                            issue = issue.max(dma_done[*n as usize - 1]);
                        }
                    }
                    SyncKind::WaitMemPending(n) => {
                        // The off-chip engine is FIFO, so completion
                        // times are nondecreasing: at most `n` DMAs are
                        // outstanding once the (len-n)-th has finished.
                        if dma_done.len() as u64 > *n {
                            let k = dma_done.len() - 1 - *n as usize;
                            issue = issue.max(dma_done[k]);
                        }
                    }
                    SyncKind::WaitMemAll => {
                        issue = issue.max(mem_free);
                    }
                    SyncKind::WaitVec => {
                        issue = issue.max(exec);
                    }
                    SyncKind::Start => {}
                    SyncKind::End => {
                        issue = issue.max(exec).max(mem_free);
                    }
                },
                Instr::Scalar(s) => {
                    st.scalar_instrs += 1;
                    if let Some(target) = self.exec_scalar(s, pc)? {
                        let (lo, hi) = match frames.last() {
                            Some(f) => (f.start as i64, f.end as i64),
                            None => (0, prog.instrs.len() as i64),
                        };
                        if target < lo || target > hi {
                            return Err(ExecError::BranchOutOfFrame { target });
                        }
                        next_pc = target as usize;
                        issue += 1; // taken-branch bubble
                    }
                }
                Instr::Halt => break,
            }
            // Hardware-loop bookkeeping: falling onto a frame's end
            // re-enters its body or pops it.
            pc = next_pc;
            while let Some(top) = frames.last_mut() {
                if pc == top.end {
                    top.remaining -= 1;
                    if top.remaining == 0 {
                        frames.pop();
                    } else {
                        pc = top.start;
                        break;
                    }
                } else {
                    break;
                }
            }
        }
        st.cycles = issue.max(exec).max(mem_free);
        Ok(st)
    }

    fn lane_penalty(&self, op: VectorOp, dtype: Dtype) -> u64 {
        // Non-unit, non-broadcast lane strides serialize scratchpad
        // banks. Gather/scatter already pay their own interval.
        if matches!(op, VectorOp::Gather | VectorOp::Scatter) {
            return 1;
        }
        let elem = dtype.size() as i64;
        let mut penalty = 1;
        let ports: &[Port] = if op.uses_src1() {
            &[Port::Src0, Port::Src1, Port::Dst]
        } else {
            &[Port::Src0, Port::Dst]
        };
        for p in ports {
            let ls = self.ports[p.index()].lane_stride;
            if ls != 0 && ls != elem {
                penalty = 4;
            }
        }
        penalty
    }

    /// Executes one vector instruction over the configured loop nest.
    ///
    /// `(op, dtype)` and a `Cast`'s destination type are dispatched
    /// once here into a typed lane kernel; see [`Nest::plan`] for how
    /// accesses are bounds-checked and how a fault leaves memory.
    fn exec_vec(
        &mut self,
        op: VectorOp,
        dtype: Dtype,
        vlen: u32,
        imm: f64,
        st: &mut ExecStats,
    ) -> Result<u64, ExecError> {
        if vlen == 0 || vlen > self.config.lanes {
            return Err(ExecError::BadVlen {
                vlen,
                lanes: self.config.lanes,
            });
        }
        if op.integer_only() && dtype.is_float() {
            return Err(ExecError::IntOpOnFloat(op));
        }
        if op.float_only() && !dtype.is_float() {
            return Err(ExecError::FloatOpOnInt(op));
        }
        let nest = Nest {
            dims: self.dims,
            ports: self.ports,
            vlen,
        };
        let spad = &mut self.spad[..];
        match op {
            VectorOp::Gather => with_elem!(dtype, T => gather::<T>(spad, &nest)),
            VectorOp::Scatter => with_elem!(dtype, T => scatter::<T>(spad, &nest)),
            _ => with_elem!(dtype, T => affine::<T>(spad, &nest, op, imm)),
        }?;
        let points: u64 = self.dims.iter().map(|d| *d as u64).product();
        let dst_dtype = match op {
            VectorOp::Cast(to) => to,
            _ => dtype,
        };
        let lane_ops = points * vlen as u64;
        st.vec_points += points;
        st.lane_ops += lane_ops;
        st.spad_bytes += lane_ops
            * (dtype.size() + dst_dtype.size() + if op.uses_src1() { dtype.size() } else { 0 });
        let chunks = vlen.div_ceil(self.config.lanes.min(vlen)) as u64;
        let ii = op.issue_interval() * self.lane_penalty(op, dtype) * chunks;
        Ok(op.fill_latency() + points * ii)
    }

    fn exec_transpose(
        &mut self,
        rows: u32,
        cols: u32,
        dtype: Dtype,
        st: &mut ExecStats,
    ) -> Result<u64, ExecError> {
        let elem = dtype.size();
        let src = self.ports[Port::Src0.index()].base;
        let dst = self.ports[Port::Dst.index()].base;
        let total = rows as u64 * cols as u64 * elem;
        let s = self.spad_check(src, total)?;
        let d0 = self.spad_check(dst, total)?;
        let tile = self.spad[s..s + total as usize].to_vec();
        for r in 0..rows as usize {
            for c in 0..cols as usize {
                let from = (r * cols as usize + c) * elem as usize;
                let to = d0 + (c * rows as usize + r) * elem as usize;
                self.spad[to..to + elem as usize]
                    .copy_from_slice(&tile[from..from + elem as usize]);
            }
        }
        let elems = rows as u64 * cols as u64;
        st.spad_bytes += 2 * total;
        st.lane_ops += elems;
        // The Transposition Engine streams lanes-wide diagonals: two
        // passes (read and write) at `lanes` elements per cycle.
        Ok(8 + 2 * elems.div_ceil(self.config.lanes as u64))
    }

    /// Executes one scalar instruction; returns a branch target if taken.
    fn exec_scalar(&mut self, s: &ScalarInstr, pc: usize) -> Result<Option<i64>, ExecError> {
        let check = |r: u8| -> Result<usize, ExecError> {
            if (r as usize) < SCALAR_REGS {
                Ok(r as usize)
            } else {
                Err(ExecError::BadRegister(r))
            }
        };
        match s {
            ScalarInstr::LdImm { rd, imm } => {
                self.regs[check(*rd)?] = *imm;
            }
            ScalarInstr::Alu { op, rd, rs1, rs2 } => {
                let a = self.regs[check(*rs1)?];
                let b = self.regs[check(*rs2)?];
                self.regs[check(*rd)?] = match op {
                    ScalarOp::Add => a.wrapping_add(b),
                    ScalarOp::Sub => a.wrapping_sub(b),
                    ScalarOp::Mul => a.wrapping_mul(b),
                    ScalarOp::And => a & b,
                    ScalarOp::Or => a | b,
                    ScalarOp::Xor => a ^ b,
                    ScalarOp::Shl => ((a as u64) << (b as u64 & 63)) as i64,
                    ScalarOp::Shr => ((a as u64) >> (b as u64 & 63)) as i64,
                    ScalarOp::Slt => (a < b) as i64,
                };
            }
            ScalarInstr::AddImm { rd, rs, imm } => {
                let a = self.regs[check(*rs)?];
                self.regs[check(*rd)?] = a.wrapping_add(*imm);
            }
            ScalarInstr::Load {
                rd,
                ra,
                offset,
                dtype,
            } => {
                let addr = self.regs[check(*ra)?] as i128 + *offset as i128;
                let v = self.read_int(addr, *dtype)?;
                self.regs[check(*rd)?] = v;
            }
            ScalarInstr::Store {
                rs,
                ra,
                offset,
                dtype,
            } => {
                let addr = self.regs[check(*ra)?] as i128 + *offset as i128;
                let v = self.regs[check(*rs)?];
                self.write_int(addr, *dtype, v)?;
            }
            ScalarInstr::Bnez { rs, offset } => {
                if self.regs[check(*rs)?] != 0 {
                    return Ok(Some(pc as i64 + *offset as i64));
                }
            }
            ScalarInstr::Beqz { rs, offset } => {
                if self.regs[check(*rs)?] == 0 {
                    return Ok(Some(pc as i64 + *offset as i64));
                }
            }
        }
        Ok(None)
    }
}

/// The offset of a `len`-byte scratchpad access at `addr`, or the
/// fault it raises in a scratchpad of `spad_len` bytes.
fn spad_offset(spad_len: usize, addr: i128, len: u64) -> Result<usize, ExecError> {
    if addr < 0 || addr + len as i128 > spad_len as i128 {
        return Err(ExecError::OobScratchpad { addr });
    }
    Ok(addr as usize)
}

/// A scratchpad element type. The conversions are the ISA's: arithmetic
/// is computed in `f64` and stored through a saturating `i64` (integers)
/// or rounded to `f32`; bitwise ops and integer casts work on `i64`.
trait Elem: Copy {
    /// Bytes per element.
    const SIZE: usize;
    /// True for `f32`.
    const FLOAT: bool;
    /// Loads the little-endian element at byte `at`.
    fn get(spad: &[u8], at: usize) -> Self;
    /// Stores the element little-endian at byte `at`.
    fn put(self, spad: &mut [u8], at: usize);
    fn to_f64(self) -> f64;
    fn from_f64(v: f64) -> Self;
    fn to_i64(self) -> i64;
    /// Truncates to the element's width (`f32` rounds).
    fn from_i64(v: i64) -> Self;
    /// The saturating float-to-integer conversion of `Cast`.
    fn from_f32(x: f32) -> Self;
    fn swap_bytes(self) -> Self;
}

macro_rules! int_elem {
    ($($t:ty),*) => {$(
        impl Elem for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            const FLOAT: bool = false;
            fn get(spad: &[u8], at: usize) -> Self {
                <$t>::from_le_bytes(spad[at..at + Self::SIZE].try_into().expect("SIZE bytes"))
            }
            fn put(self, spad: &mut [u8], at: usize) {
                spad[at..at + Self::SIZE].copy_from_slice(&self.to_le_bytes());
            }
            fn to_f64(self) -> f64 {
                self as f64
            }
            fn from_f64(v: f64) -> Self {
                v as i64 as $t
            }
            fn to_i64(self) -> i64 {
                self as i64
            }
            fn from_i64(v: i64) -> Self {
                v as $t
            }
            fn from_f32(x: f32) -> Self {
                x as $t
            }
            fn swap_bytes(self) -> Self {
                <$t>::swap_bytes(self)
            }
        }
    )*};
}

int_elem!(u8, i8, u16, i16, u32, i32);

impl Elem for f32 {
    const SIZE: usize = 4;
    const FLOAT: bool = true;
    fn get(spad: &[u8], at: usize) -> Self {
        f32::from_le_bytes(spad[at..at + 4].try_into().expect("4 bytes"))
    }
    fn put(self, spad: &mut [u8], at: usize) {
        spad[at..at + 4].copy_from_slice(&self.to_le_bytes());
    }
    /// Widening quiets a signaling NaN in hardware. It is done here
    /// explicitly, so the result does not depend on whether the
    /// optimizer folds a widen-then-narrow round trip into a copy.
    fn to_f64(self) -> f64 {
        if self.is_nan() {
            f32::from_bits(self.to_bits() | 0x0040_0000) as f64
        } else {
            self as f64
        }
    }
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    fn to_i64(self) -> i64 {
        self as i64
    }
    fn from_i64(v: i64) -> Self {
        v as f32
    }
    fn from_f32(x: f32) -> Self {
        x
    }
    fn swap_bytes(self) -> Self {
        f32::from_bits(self.to_bits().swap_bytes())
    }
}

/// One port's lane addresses at one loop-nest point: lane `l` accesses
/// `size` bytes at `first + l * stride`. A `size` of 0 marks a port the
/// op does not touch.
#[derive(Debug, Clone, Copy)]
struct LaneSpan {
    first: i128,
    stride: i64,
    size: usize,
}

impl LaneSpan {
    fn addr(self, lane: u32) -> i128 {
        self.first + lane as i128 * self.stride as i128
    }

    fn inside(self, lane: u32, spad_len: usize) -> bool {
        let a = self.addr(lane);
        self.size == 0 || (a >= 0 && a + self.size as i128 <= spad_len as i128)
    }

    /// How many leading lanes of `vlen` stay inside the scratchpad. The
    /// addresses are affine in the lane, so one check of the span
    /// between the first and last lane covers them all; only a span
    /// that leaves the scratchpad is scanned for its first fault.
    fn lanes_inside(self, vlen: u32, spad_len: usize) -> u32 {
        let last = self.addr(vlen - 1);
        let (lo, hi) = (self.first.min(last), self.first.max(last));
        if self.size == 0 || (lo >= 0 && hi + self.size as i128 <= spad_len as i128) {
            return vlen;
        }
        (0..vlen)
            .find(|&l| !self.inside(l, spad_len))
            .unwrap_or(vlen)
    }
}

/// The loop nest, ports and vector length of one vector instruction.
#[derive(Debug, Clone, Copy)]
struct Nest {
    dims: [u32; MAX_DIMS],
    ports: [PortCfg; 3],
    vlen: u32,
}

impl Nest {
    /// Calls `f` with the lane-0 address of each port (`Src0`, `Src1`,
    /// `Dst`) at every loop-nest point, innermost (last) dimension
    /// fastest, stopping at the first error. `f` is called once per
    /// point, not per lane, so the kernels share this loop instead of
    /// each carrying a copy.
    fn each_point(
        &self,
        f: &mut dyn FnMut([i128; 3]) -> Result<(), ExecError>,
    ) -> Result<(), ExecError> {
        let mut idx = [0u32; MAX_DIMS];
        'points: loop {
            f(self.ports.map(|p| {
                let off: i128 = idx
                    .iter()
                    .zip(&p.strides)
                    .map(|(&i, &s)| i as i128 * s as i128)
                    .sum();
                p.base + off
            }))?;
            for k in (0..MAX_DIMS).rev() {
                idx[k] += 1;
                if idx[k] < self.dims[k] {
                    continue 'points;
                }
                idx[k] = 0;
            }
            return Ok(());
        }
    }

    /// Plans one point of an affine op whose ports start at `firsts`
    /// and touch `sizes` bytes per lane (0 for a port the op does not
    /// use): each port's lane-0 offset, how many leading lanes stay
    /// inside the scratchpad, and, if that is fewer than `vlen`, the
    /// fault the next lane raises.
    ///
    /// Each lane reads `Src0`, `Src1`, `Dst` in that order and writes
    /// `Dst` last, so the fault names the first port outside the
    /// scratchpad at that lane, and the lanes before it are all that
    /// ran: the access and memory state at which a lane-by-lane
    /// interpreter stops.
    fn plan(
        &self,
        firsts: [i128; 3],
        sizes: [usize; 3],
        spad_len: usize,
    ) -> ([usize; 3], u32, Result<(), ExecError>) {
        let spans: [LaneSpan; 3] = std::array::from_fn(|p| LaneSpan {
            first: firsts[p],
            stride: self.ports[p].lane_stride,
            size: sizes[p],
        });
        let n = spans
            .iter()
            .map(|s| s.lanes_inside(self.vlen, spad_len))
            .min()
            .unwrap_or(self.vlen);
        let fault = if n < self.vlen {
            let s = spans
                .iter()
                .find(|s| !s.inside(n, spad_len))
                .expect("a port leaves the scratchpad at the first short lane");
            Err(ExecError::OobScratchpad { addr: s.addr(n) })
        } else {
            Ok(())
        };
        // Lanes 0..n of every used port are inside the scratchpad, so
        // their offsets are exact; unused ports' are never read.
        (firsts.map(|a| a as usize), n, fault)
    }

    /// Runs `lane(spad, [src0, src1, dst])` on every lane of every
    /// point, in lane order, with the bounds and faults [`Nest::plan`]
    /// gives; the closure indexes the scratchpad directly.
    fn lanes(
        &self,
        spad: &mut [u8],
        sizes: [usize; 3],
        mut lane: impl FnMut(&mut [u8], [usize; 3]),
    ) -> Result<(), ExecError> {
        let steps = self.ports.map(|p| p.lane_stride as isize);
        self.each_point(&mut |firsts| {
            let (mut at, n, fault) = self.plan(firsts, sizes, spad.len());
            for _ in 0..n {
                lane(spad, at);
                for (a, s) in at.iter_mut().zip(steps) {
                    *a = a.wrapping_add_signed(s);
                }
            }
            fault
        })
    }
}

/// Runs an affine vector op (every op but `Gather` and `Scatter`) on
/// element type `T`; a `Cast` dispatches its destination type here.
fn affine<T: Elem>(spad: &mut [u8], nest: &Nest, op: VectorOp, imm: f64) -> Result<(), ExecError> {
    let sh = (imm as i64).clamp(0, 63) as u32;
    match op {
        VectorOp::Add => binary::<T>(spad, nest, |x, y| x + y),
        VectorOp::Sub => binary::<T>(spad, nest, |x, y| x - y),
        VectorOp::Mul => binary::<T>(spad, nest, |x, y| x * y),
        VectorOp::Div => binary::<T>(spad, nest, |x, y| x / y),
        VectorOp::Min => binary::<T>(spad, nest, f64::min),
        VectorOp::Max => binary::<T>(spad, nest, f64::max),
        VectorOp::Mac => nest.lanes(spad, [T::SIZE; 3], |m, [a0, a1, ad]| {
            let x = T::get(m, a0).to_f64();
            let y = T::get(m, a1).to_f64();
            let acc = T::get(m, ad).to_f64();
            T::from_f64(acc + x * y).put(m, ad);
        }),
        VectorOp::And => bitwise::<T>(spad, nest, |x, y| x & y),
        VectorOp::Or => bitwise::<T>(spad, nest, |x, y| x | y),
        VectorOp::Xor => bitwise::<T>(spad, nest, |x, y| x ^ y),
        VectorOp::Shl => unary(spad, nest, |x: T| {
            T::from_i64(((x.to_i64() as u64) << sh) as i64)
        }),
        VectorOp::Shr => {
            // Logical shift within the element width.
            let width_mask = u64::MAX >> (64 - 8 * T::SIZE);
            unary(spad, nest, |x: T| {
                T::from_i64((((x.to_i64() as u64) & width_mask) >> sh) as i64)
            })
        }
        VectorOp::Copy => unary(spad, nest, |x: T| T::from_f64(x.to_f64())),
        VectorOp::Abs => unary(spad, nest, |x: T| T::from_f64(x.to_f64().abs())),
        VectorOp::Neg => unary(spad, nest, |x: T| T::from_f64(-x.to_f64())),
        VectorOp::Log => unary(spad, nest, |x: T| {
            T::from_f64((x.to_f64() as f32).ln() as f64)
        }),
        VectorOp::Exp => unary(spad, nest, |x: T| {
            T::from_f64((x.to_f64() as f32).exp() as f64)
        }),
        VectorOp::Sqrt => unary(spad, nest, |x: T| {
            T::from_f64((x.to_f64() as f32).sqrt() as f64)
        }),
        VectorOp::Recip => unary(spad, nest, |x: T| {
            T::from_f64((1.0 / x.to_f64() as f32) as f64)
        }),
        VectorOp::AddS => unary(spad, nest, |x: T| T::from_f64(x.to_f64() + imm)),
        VectorOp::MulS => unary(spad, nest, |x: T| T::from_f64(x.to_f64() * imm)),
        VectorOp::MinS => unary(spad, nest, |x: T| T::from_f64(x.to_f64().min(imm))),
        VectorOp::MaxS => unary(spad, nest, |x: T| T::from_f64(x.to_f64().max(imm))),
        VectorOp::Fill => {
            let v = T::from_f64(imm);
            nest.lanes(spad, [0, 0, T::SIZE], |m, [_, _, ad]| v.put(m, ad))
        }
        VectorOp::Cast(to) => with_elem!(to, D => unary(spad, nest, cast::<T, D>)),
        VectorOp::Bswap => unary(spad, nest, T::swap_bytes),
        VectorOp::Gather | VectorOp::Scatter => {
            unreachable!("{op} addresses data through an index stream")
        }
    }
}

/// `dst = f(src0)`.
fn unary<S: Elem, D: Elem>(
    spad: &mut [u8],
    nest: &Nest,
    f: impl Fn(S) -> D,
) -> Result<(), ExecError> {
    nest.lanes(spad, [S::SIZE, 0, D::SIZE], |m, [a0, _, ad]| {
        f(S::get(m, a0)).put(m, ad);
    })
}

/// `dst = f(src0, src1)`, computed in `f64`.
fn binary<T: Elem>(
    spad: &mut [u8],
    nest: &Nest,
    f: impl Fn(f64, f64) -> f64,
) -> Result<(), ExecError> {
    nest.lanes(spad, [T::SIZE; 3], |m, [a0, a1, ad]| {
        let r = f(T::get(m, a0).to_f64(), T::get(m, a1).to_f64());
        T::from_f64(r).put(m, ad);
    })
}

/// `dst = f(src0, src1)`, computed in `i64`.
fn bitwise<T: Elem>(
    spad: &mut [u8],
    nest: &Nest,
    f: impl Fn(i64, i64) -> i64,
) -> Result<(), ExecError> {
    nest.lanes(spad, [T::SIZE; 3], |m, [a0, a1, ad]| {
        let r = f(T::get(m, a0).to_i64(), T::get(m, a1).to_i64());
        T::from_i64(r).put(m, ad);
    })
}

/// `Cast` from `S` to `D`: float to integer saturates from `f32`,
/// integer to integer truncates, and anything to float rounds to `f32`.
fn cast<S: Elem, D: Elem>(x: S) -> D {
    if S::FLOAT && !D::FLOAT {
        D::from_f32(x.to_f64() as f32)
    } else if !S::FLOAT && !D::FLOAT {
        D::from_i64(x.to_i64())
    } else if !S::FLOAT {
        D::from_f64(x.to_i64() as f64)
    } else {
        D::from_f64(x.to_f64())
    }
}

fn load<T: Elem>(spad: &[u8], addr: i128) -> Result<T, ExecError> {
    Ok(T::get(spad, spad_offset(spad.len(), addr, T::SIZE as u64)?))
}

fn store<T: Elem>(spad: &mut [u8], addr: i128, v: T) -> Result<(), ExecError> {
    let at = spad_offset(spad.len(), addr, T::SIZE as u64)?;
    v.put(spad, at);
    Ok(())
}

/// `Gather`: lane `l` reads the `u32` index at its `Src1` address and
/// copies the element at `Src0.base + index * size` to its `Dst`
/// address. The data address comes from scratchpad contents, so each
/// access is checked as it happens.
fn gather<T: Elem>(spad: &mut [u8], nest: &Nest) -> Result<(), ExecError> {
    let [s0, s1, d] = nest.ports;
    nest.each_point(&mut |[_, b1, bd]| {
        for lane in 0..nest.vlen as i128 {
            let i = load::<u32>(spad, b1 + lane * s1.lane_stride as i128)?;
            let x = load::<T>(spad, s0.base + i as i128 * T::SIZE as i128)?;
            store(
                spad,
                bd + lane * d.lane_stride as i128,
                T::from_f64(x.to_f64()),
            )?;
        }
        Ok(())
    })
}

/// `Scatter`: lane `l` reads the `u32` index at its `Src1` address and
/// copies its `Src0` element to `Dst`'s point address plus
/// `index * size`, checking each access as it happens.
fn scatter<T: Elem>(spad: &mut [u8], nest: &Nest) -> Result<(), ExecError> {
    let [s0, s1, _] = nest.ports;
    nest.each_point(&mut |[b0, b1, bd]| {
        for lane in 0..nest.vlen as i128 {
            let i = load::<u32>(spad, b1 + lane * s1.lane_stride as i128)?;
            let x = load::<T>(spad, b0 + lane * s0.lane_stride as i128)?;
            store(
                spad,
                bd + i as i128 * T::SIZE as i128,
                T::from_f64(x.to_f64()),
            )?;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmx_sim::{cases, run_cases, Gen};

    /// The per-lane interpreter the typed kernels replaced, kept as the
    /// reference they must match: it matches the opcode and dtype and
    /// bounds-checks every access of every lane.
    impl Machine {
        fn read_elem(&self, addr: i128, dtype: Dtype) -> Result<f64, ExecError> {
            let a = self.spad_check(addr, dtype.size())?;
            let b = &self.spad[a..a + dtype.size() as usize];
            Ok(match dtype {
                Dtype::U8 => b[0] as f64,
                Dtype::I8 => b[0] as i8 as f64,
                Dtype::U16 => u16::from_le_bytes([b[0], b[1]]) as f64,
                Dtype::I16 => i16::from_le_bytes([b[0], b[1]]) as f64,
                Dtype::U32 => u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as f64,
                Dtype::I32 => i32::from_le_bytes([b[0], b[1], b[2], b[3]]) as f64,
                Dtype::F32 => f32::from_le_bytes([b[0], b[1], b[2], b[3]]) as f64,
            })
        }

        fn write_elem(&mut self, addr: i128, dtype: Dtype, v: f64) -> Result<(), ExecError> {
            let a = self.spad_check(addr, dtype.size())?;
            match dtype {
                Dtype::U8 => self.spad[a] = v as i64 as u8,
                Dtype::I8 => self.spad[a] = v as i64 as i8 as u8,
                Dtype::U16 => {
                    self.spad[a..a + 2].copy_from_slice(&(v as i64 as u16).to_le_bytes());
                }
                Dtype::I16 => {
                    self.spad[a..a + 2].copy_from_slice(&(v as i64 as i16).to_le_bytes());
                }
                Dtype::U32 => {
                    self.spad[a..a + 4].copy_from_slice(&(v as i64 as u32).to_le_bytes());
                }
                Dtype::I32 => {
                    self.spad[a..a + 4].copy_from_slice(&(v as i64 as i32).to_le_bytes());
                }
                Dtype::F32 => {
                    self.spad[a..a + 4].copy_from_slice(&(v as f32).to_le_bytes());
                }
            }
            Ok(())
        }

        #[allow(clippy::too_many_lines)]
        fn exec_vec_reference(
            &mut self,
            op: VectorOp,
            dtype: Dtype,
            vlen: u32,
            imm: f64,
            st: &mut ExecStats,
        ) -> Result<u64, ExecError> {
            if vlen == 0 || vlen > self.config.lanes {
                return Err(ExecError::BadVlen {
                    vlen,
                    lanes: self.config.lanes,
                });
            }
            if op.integer_only() && dtype.is_float() {
                return Err(ExecError::IntOpOnFloat(op));
            }
            if op.float_only() && !dtype.is_float() {
                return Err(ExecError::FloatOpOnInt(op));
            }
            let dims = self.dims;
            let points: u64 = dims.iter().map(|d| *d as u64).product();
            let dst_dtype = match op {
                VectorOp::Cast(to) => to,
                _ => dtype,
            };
            let elem = dtype.size() as i64;
            let s0 = self.ports[Port::Src0.index()];
            let s1 = self.ports[Port::Src1.index()];
            let d = self.ports[Port::Dst.index()];

            let mut idx = [0u32; MAX_DIMS];
            loop {
                let mut off0: i128 = 0;
                let mut off1: i128 = 0;
                let mut offd: i128 = 0;
                for (k, &ix) in idx.iter().enumerate() {
                    off0 += ix as i128 * s0.strides[k] as i128;
                    off1 += ix as i128 * s1.strides[k] as i128;
                    offd += ix as i128 * d.strides[k] as i128;
                }
                for lane in 0..vlen as i128 {
                    let a0 = s0.base + off0 + lane * s0.lane_stride as i128;
                    let a1 = s1.base + off1 + lane * s1.lane_stride as i128;
                    let ad = d.base + offd + lane * d.lane_stride as i128;
                    match op {
                        // Float-or-int arithmetic computed in f64.
                        VectorOp::Add
                        | VectorOp::Sub
                        | VectorOp::Mul
                        | VectorOp::Div
                        | VectorOp::Min
                        | VectorOp::Max => {
                            let x = self.read_elem(a0, dtype)?;
                            let y = self.read_elem(a1, dtype)?;
                            let r = match op {
                                VectorOp::Add => x + y,
                                VectorOp::Sub => x - y,
                                VectorOp::Mul => x * y,
                                VectorOp::Div => x / y,
                                VectorOp::Min => x.min(y),
                                VectorOp::Max => x.max(y),
                                _ => unreachable!("arith subset matched above"),
                            };
                            self.write_elem(ad, dtype, r)?;
                        }
                        VectorOp::Mac => {
                            let x = self.read_elem(a0, dtype)?;
                            let y = self.read_elem(a1, dtype)?;
                            let acc = self.read_elem(ad, dtype)?;
                            self.write_elem(ad, dtype, acc + x * y)?;
                        }
                        VectorOp::And | VectorOp::Or | VectorOp::Xor => {
                            let x = self.read_int(a0, dtype)?;
                            let y = self.read_int(a1, dtype)?;
                            let r = match op {
                                VectorOp::And => x & y,
                                VectorOp::Or => x | y,
                                VectorOp::Xor => x ^ y,
                                _ => unreachable!("bitwise subset matched above"),
                            };
                            self.write_int(ad, dtype, r)?;
                        }
                        VectorOp::Shl | VectorOp::Shr => {
                            let x = self.read_int(a0, dtype)?;
                            let sh = (imm as i64).clamp(0, 63) as u32;
                            let r = match op {
                                VectorOp::Shl => ((x as u64) << sh) as i64,
                                VectorOp::Shr => {
                                    // Logical shift within the element width.
                                    let width_mask = match dtype.size() {
                                        1 => 0xFFu64,
                                        2 => 0xFFFF,
                                        _ => 0xFFFF_FFFF,
                                    };
                                    (((x as u64) & width_mask) >> sh) as i64
                                }
                                _ => unreachable!("shift subset matched above"),
                            };
                            self.write_int(ad, dtype, r)?;
                        }
                        VectorOp::Copy => {
                            let x = self.read_elem(a0, dtype)?;
                            self.write_elem(ad, dtype, x)?;
                        }
                        VectorOp::Abs => {
                            let x = self.read_elem(a0, dtype)?;
                            self.write_elem(ad, dtype, x.abs())?;
                        }
                        VectorOp::Neg => {
                            let x = self.read_elem(a0, dtype)?;
                            self.write_elem(ad, dtype, -x)?;
                        }
                        VectorOp::Log => {
                            let x = self.read_elem(a0, dtype)? as f32;
                            self.write_elem(ad, dtype, x.ln() as f64)?;
                        }
                        VectorOp::Exp => {
                            let x = self.read_elem(a0, dtype)? as f32;
                            self.write_elem(ad, dtype, x.exp() as f64)?;
                        }
                        VectorOp::Sqrt => {
                            let x = self.read_elem(a0, dtype)? as f32;
                            self.write_elem(ad, dtype, x.sqrt() as f64)?;
                        }
                        VectorOp::Recip => {
                            let x = self.read_elem(a0, dtype)? as f32;
                            self.write_elem(ad, dtype, (1.0 / x) as f64)?;
                        }
                        VectorOp::AddS => {
                            let x = self.read_elem(a0, dtype)?;
                            self.write_elem(ad, dtype, x + imm)?;
                        }
                        VectorOp::MulS => {
                            let x = self.read_elem(a0, dtype)?;
                            self.write_elem(ad, dtype, x * imm)?;
                        }
                        VectorOp::MinS => {
                            let x = self.read_elem(a0, dtype)?;
                            self.write_elem(ad, dtype, x.min(imm))?;
                        }
                        VectorOp::MaxS => {
                            let x = self.read_elem(a0, dtype)?;
                            self.write_elem(ad, dtype, x.max(imm))?;
                        }
                        VectorOp::Fill => {
                            self.write_elem(ad, dtype, imm)?;
                        }
                        VectorOp::Cast(to) => {
                            if dtype.is_float() && !to.is_float() {
                                // f32 -> int uses Rust saturating-trunc cast.
                                let x = self.read_elem(a0, dtype)? as f32;
                                let v = match to {
                                    Dtype::U8 => x as u8 as i64,
                                    Dtype::I8 => x as i8 as i64,
                                    Dtype::U16 => x as u16 as i64,
                                    Dtype::I16 => x as i16 as i64,
                                    Dtype::U32 => x as u32 as i64,
                                    Dtype::I32 => x as i32 as i64,
                                    Dtype::F32 => unreachable!("guarded by to.is_float() above"),
                                };
                                self.write_int(ad, to, v)?;
                            } else if !dtype.is_float() {
                                let x = self.read_int(a0, dtype)?;
                                if to.is_float() {
                                    self.write_elem(ad, to, x as f64)?;
                                } else {
                                    self.write_int(ad, to, x)?;
                                }
                            } else {
                                // f32 -> f32: plain copy.
                                let x = self.read_elem(a0, dtype)?;
                                self.write_elem(ad, to, x)?;
                            }
                        }
                        VectorOp::Bswap => {
                            let n = dtype.size() as usize;
                            let a = self.spad_check(a0, dtype.size())?;
                            let mut bytes = self.spad[a..a + n].to_vec();
                            bytes.reverse();
                            let w = self.spad_check(ad, dtype.size())?;
                            self.spad[w..w + n].copy_from_slice(&bytes);
                        }
                        VectorOp::Gather => {
                            let i = self.read_int(a1, Dtype::U32)? as i128;
                            let src = s0.base + i * elem as i128;
                            let x = self.read_elem(src, dtype)?;
                            self.write_elem(ad, dtype, x)?;
                        }
                        VectorOp::Scatter => {
                            let i = self.read_int(a1, Dtype::U32)? as i128;
                            let x = self.read_elem(a0, dtype)?;
                            let tgt = d.base + offd + i * elem as i128;
                            self.write_elem(tgt, dtype, x)?;
                        }
                    }
                }
                st.vec_points += 1;
                st.lane_ops += vlen as u64;
                st.spad_bytes += vlen as u64
                    * (dtype.size()
                        + dst_dtype.size()
                        + if op.uses_src1() { dtype.size() } else { 0 });
                // Advance the multi-index, innermost (last) dimension fastest.
                let mut k = MAX_DIMS;
                loop {
                    if k == 0 {
                        // done
                        let chunks = vlen.div_ceil(self.config.lanes.min(vlen)) as u64;
                        let ii = op.issue_interval() * self.lane_penalty(op, dtype) * chunks;
                        return Ok(op.fill_latency() + points * ii);
                    }
                    k -= 1;
                    idx[k] += 1;
                    if idx[k] < dims[k] {
                        break;
                    }
                    idx[k] = 0;
                }
            }
        }
    }

    fn small_cfg() -> DrxConfig {
        let mut c = DrxConfig::default();
        c.dram.capacity_bytes = 1 << 20;
        c
    }

    #[test]
    fn bit_flip_hooks_corrupt_and_restore() {
        let mut m = Machine::new(small_cfg());
        m.write_dram(0, &[0u8; 64]);
        m.flip_dram_bit(9, 3);
        assert_eq!(m.read_dram(9, 1), vec![0x08]);
        m.flip_dram_bit(9, 3);
        assert_eq!(m.read_dram(9, 1), vec![0x00]);
        // Flipping past the backing store grows it (zero-fill view)...
        m.flip_dram_bit(1000, 0);
        assert_eq!(m.read_dram(1000, 1), vec![0x01]);
        // ...but out-of-capacity flips are ignored.
        m.flip_dram_bit(1 << 21, 0);
    }

    fn vec_cfg(ports: &mut Program, base0: u64, based: u64, n: u32, elem: i64) {
        ports.push(Instr::LoopDims { dims: [1, 1, 1, n] });
        ports.push(Instr::SetBase {
            port: Port::Src0,
            addr: base0,
        });
        ports.push(Instr::SetStride {
            port: Port::Src0,
            strides: [0, 0, 0, elem * 128],
            lane_stride: elem,
        });
        ports.push(Instr::SetBase {
            port: Port::Dst,
            addr: based,
        });
        ports.push(Instr::SetStride {
            port: Port::Dst,
            strides: [0, 0, 0, elem * 128],
            lane_stride: elem,
        });
    }

    #[test]
    fn muls_end_to_end() {
        let mut m = Machine::new(small_cfg());
        let xs: Vec<f32> = (0..256).map(|i| i as f32).collect();
        let bytes: Vec<u8> = xs.iter().flat_map(|x| x.to_le_bytes()).collect();
        m.write_dram(0, &bytes);
        let mut p = Program::new();
        p.push(Instr::Sync(SyncKind::Start));
        p.push(Instr::Dma {
            dir: DmaDir::Load,
            dram: DramAddr::Imm(0),
            spad: 0,
            bytes: 1024,
        });
        p.push(Instr::Sync(SyncKind::WaitMemAll));
        vec_cfg(&mut p, 0, 2048, 2, 4);
        p.push(Instr::Vec {
            op: VectorOp::MulS,
            dtype: Dtype::F32,
            vlen: 128,
            imm: 3.0,
        });
        p.push(Instr::Sync(SyncKind::WaitVec));
        p.push(Instr::Dma {
            dir: DmaDir::Store,
            dram: DramAddr::Imm(4096),
            spad: 2048,
            bytes: 1024,
        });
        p.push(Instr::Sync(SyncKind::End));
        p.push(Instr::Halt);
        let st = m.run(&p).unwrap();
        let out = m.read_dram(4096, 1024);
        for (i, chunk) in out.chunks(4).enumerate() {
            let v = f32::from_le_bytes(chunk.try_into().unwrap());
            assert_eq!(v, i as f32 * 3.0);
        }
        assert_eq!(st.vec_points, 2);
        assert_eq!(st.lane_ops, 256);
        assert_eq!(st.dma_count, 2);
        assert_eq!(st.dram_bytes, 2048);
        assert!(st.cycles > 0);
    }

    #[test]
    fn mac_with_zero_stride_reduces() {
        // dst stride 0 over the loop dim: dst[lane] += a[i][lane]*b[i][lane]
        let mut m = Machine::new(small_cfg());
        let mut p = Program::new();
        // a = [1,2,3,4] per lane row; b = all ones
        for i in 0..4u32 {
            let v = (i + 1) as f32;
            for lane in 0..4u32 {
                let a = (i * 4 + lane) as usize * 4;
                m.spad[a..a + 4].copy_from_slice(&v.to_le_bytes());
                let b = 64 + (i * 4 + lane) as usize * 4;
                m.spad[b..b + 4].copy_from_slice(&1f32.to_le_bytes());
            }
        }
        p.push(Instr::LoopDims { dims: [1, 1, 1, 4] });
        p.push(Instr::SetBase {
            port: Port::Src0,
            addr: 0,
        });
        p.push(Instr::SetStride {
            port: Port::Src0,
            strides: [0, 0, 0, 16],
            lane_stride: 4,
        });
        p.push(Instr::SetBase {
            port: Port::Src1,
            addr: 64,
        });
        p.push(Instr::SetStride {
            port: Port::Src1,
            strides: [0, 0, 0, 16],
            lane_stride: 4,
        });
        p.push(Instr::SetBase {
            port: Port::Dst,
            addr: 256,
        });
        p.push(Instr::SetStride {
            port: Port::Dst,
            strides: [0, 0, 0, 0],
            lane_stride: 4,
        });
        p.push(Instr::Vec {
            op: VectorOp::Mac,
            dtype: Dtype::F32,
            vlen: 4,
            imm: 0.0,
        });
        p.push(Instr::Halt);
        m.run(&p).unwrap();
        for lane in 0..4 {
            let a = 256 + lane * 4;
            let v = f32::from_le_bytes(m.spad[a..a + 4].try_into().unwrap());
            assert_eq!(v, 10.0); // 1+2+3+4
        }
    }

    #[test]
    fn cast_f32_to_u8_saturates() {
        let mut m = Machine::new(small_cfg());
        let vals = [-5.0f32, 0.0, 127.9, 300.0];
        for (i, v) in vals.iter().enumerate() {
            m.spad[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
        let mut p = Program::new();
        p.push(Instr::LoopDims { dims: [1, 1, 1, 1] });
        p.push(Instr::SetBase {
            port: Port::Src0,
            addr: 0,
        });
        p.push(Instr::SetStride {
            port: Port::Src0,
            strides: [0; 4],
            lane_stride: 4,
        });
        p.push(Instr::SetBase {
            port: Port::Dst,
            addr: 128,
        });
        p.push(Instr::SetStride {
            port: Port::Dst,
            strides: [0; 4],
            lane_stride: 1,
        });
        p.push(Instr::Vec {
            op: VectorOp::Cast(Dtype::U8),
            dtype: Dtype::F32,
            vlen: 4,
            imm: 0.0,
        });
        p.push(Instr::Halt);
        m.run(&p).unwrap();
        assert_eq!(&m.spad[128..132], &[0, 0, 127, 255]);
    }

    #[test]
    fn gather_reads_indexed_elements() {
        let mut m = Machine::new(small_cfg());
        // data at 0: [10,20,30,40] f32; indices at 64: [3,0,2,1] u32
        for (i, v) in [10f32, 20.0, 30.0, 40.0].iter().enumerate() {
            m.spad[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
        for (i, v) in [3u32, 0, 2, 1].iter().enumerate() {
            m.spad[64 + i * 4..64 + i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
        let mut p = Program::new();
        p.push(Instr::LoopDims { dims: [1, 1, 1, 1] });
        p.push(Instr::SetBase {
            port: Port::Src0,
            addr: 0,
        });
        p.push(Instr::SetStride {
            port: Port::Src0,
            strides: [0; 4],
            lane_stride: 4,
        });
        p.push(Instr::SetBase {
            port: Port::Src1,
            addr: 64,
        });
        p.push(Instr::SetStride {
            port: Port::Src1,
            strides: [0; 4],
            lane_stride: 4,
        });
        p.push(Instr::SetBase {
            port: Port::Dst,
            addr: 128,
        });
        p.push(Instr::SetStride {
            port: Port::Dst,
            strides: [0; 4],
            lane_stride: 4,
        });
        p.push(Instr::Vec {
            op: VectorOp::Gather,
            dtype: Dtype::F32,
            vlen: 4,
            imm: 0.0,
        });
        p.push(Instr::Halt);
        m.run(&p).unwrap();
        let out: Vec<f32> = (0..4)
            .map(|i| f32::from_le_bytes(m.spad[128 + i * 4..132 + i * 4].try_into().unwrap()))
            .collect();
        assert_eq!(out, vec![40.0, 10.0, 30.0, 20.0]);
    }

    #[test]
    fn transpose_tile() {
        let mut m = Machine::new(small_cfg());
        // 2x3 u32 tile [[1,2,3],[4,5,6]] -> 3x2 [[1,4],[2,5],[3,6]]
        for (i, v) in [1u32, 2, 3, 4, 5, 6].iter().enumerate() {
            m.spad[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
        let mut p = Program::new();
        p.push(Instr::SetBase {
            port: Port::Src0,
            addr: 0,
        });
        p.push(Instr::SetBase {
            port: Port::Dst,
            addr: 256,
        });
        p.push(Instr::Transpose {
            rows: 2,
            cols: 3,
            dtype: Dtype::U32,
        });
        p.push(Instr::Halt);
        m.run(&p).unwrap();
        let out: Vec<u32> = (0..6)
            .map(|i| u32::from_le_bytes(m.spad[256 + i * 4..260 + i * 4].try_into().unwrap()))
            .collect();
        assert_eq!(out, vec![1, 4, 2, 5, 3, 6]);
    }

    #[test]
    fn repeat_walks_tiles_with_advance_base() {
        let mut m = Machine::new(small_cfg());
        for i in 0..8u32 {
            let v = i as f32;
            m.spad[i as usize * 4..i as usize * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
        let mut p = Program::new();
        p.push(Instr::LoopDims { dims: [1, 1, 1, 1] });
        p.push(Instr::SetBase {
            port: Port::Src0,
            addr: 0,
        });
        p.push(Instr::SetStride {
            port: Port::Src0,
            strides: [0; 4],
            lane_stride: 4,
        });
        p.push(Instr::SetBase {
            port: Port::Dst,
            addr: 512,
        });
        p.push(Instr::SetStride {
            port: Port::Dst,
            strides: [0; 4],
            lane_stride: 4,
        });
        // 4 tiles of 2 lanes each: out = in + 100
        p.push(Instr::Repeat { count: 4, body: 3 });
        p.push(Instr::Vec {
            op: VectorOp::AddS,
            dtype: Dtype::F32,
            vlen: 2,
            imm: 100.0,
        });
        p.push(Instr::AdvanceBase {
            port: Port::Src0,
            delta: 8,
        });
        p.push(Instr::AdvanceBase {
            port: Port::Dst,
            delta: 8,
        });
        p.push(Instr::Halt);
        let st = m.run(&p).unwrap();
        assert_eq!(st.vec_instrs, 4);
        for i in 0..8usize {
            let v = f32::from_le_bytes(m.spad[512 + i * 4..516 + i * 4].try_into().unwrap());
            assert_eq!(v, i as f32 + 100.0);
        }
    }

    #[test]
    fn scalar_loop_sums() {
        // Sum 1..=10 with a scalar loop: r1 = counter, r2 = acc.
        let mut m = Machine::new(small_cfg());
        let mut p = Program::new();
        p.push(Instr::Scalar(ScalarInstr::LdImm { rd: 1, imm: 10 }));
        p.push(Instr::Scalar(ScalarInstr::LdImm { rd: 2, imm: 0 }));
        // loop: r2 += r1; r1 -= 1; bnez r1, -2
        p.push(Instr::Scalar(ScalarInstr::Alu {
            op: ScalarOp::Add,
            rd: 2,
            rs1: 2,
            rs2: 1,
        }));
        p.push(Instr::Scalar(ScalarInstr::AddImm {
            rd: 1,
            rs: 1,
            imm: -1,
        }));
        p.push(Instr::Scalar(ScalarInstr::Bnez { rs: 1, offset: -2 }));
        p.push(Instr::Halt);
        let st = m.run(&p).unwrap();
        assert_eq!(m.reg(2), 55);
        assert!(st.scalar_instrs > 20);
    }

    #[test]
    fn dma_overlaps_compute_with_double_buffering() {
        // Issue a long DMA, then compute that does NOT wait on it:
        // total cycles should be ~max(dma, compute), not the sum.
        let cfg = small_cfg();
        let mut m = Machine::new(cfg);
        m.write_dram(0, &vec![0u8; 32 << 10]);
        let mut p = Program::new();
        p.push(Instr::Dma {
            dir: DmaDir::Load,
            dram: DramAddr::Imm(0),
            spad: 0,
            bytes: 32 << 10,
        });
        vec_cfg(&mut p, 32 << 10, 48 << 10, 32, 4);
        // Note: bases above are beyond half; keep within 64 KiB spad.
        p.push(Instr::Vec {
            op: VectorOp::AddS,
            dtype: Dtype::F32,
            vlen: 128,
            imm: 1.0,
        });
        p.push(Instr::Sync(SyncKind::End));
        p.push(Instr::Halt);
        let st = m.run(&p).unwrap();
        let serial = st.vec_busy_cycles + st.mem_busy_cycles;
        assert!(
            st.cycles < serial,
            "expected overlap: cycles={} serial={serial}",
            st.cycles
        );
    }

    #[test]
    fn sync_mem_count_waits_for_specific_dma() {
        let mut m = Machine::new(small_cfg());
        m.write_dram(0, &[1, 2, 3, 4]);
        let mut p = Program::new();
        p.push(Instr::Dma {
            dir: DmaDir::Load,
            dram: DramAddr::Imm(0),
            spad: 0,
            bytes: 4,
        });
        p.push(Instr::Sync(SyncKind::WaitMemCount(1)));
        p.push(Instr::Halt);
        assert!(m.run(&p).is_ok());
        let mut bad = Program::new();
        bad.push(Instr::Sync(SyncKind::WaitMemCount(1)));
        assert_eq!(
            m.run(&bad),
            Err(ExecError::WaitMemCountTooLarge { want: 1, issued: 0 })
        );
    }

    #[test]
    fn gather_rows_dma() {
        let mut m = Machine::new(small_cfg());
        // 4 rows of 8 bytes in DRAM: row i filled with byte i.
        for i in 0..4u8 {
            m.write_dram(i as u64 * 8, &[i; 8]);
        }
        // index table [2, 0] at spad 0
        m.spad[0..4].copy_from_slice(&2u32.to_le_bytes());
        m.spad[4..8].copy_from_slice(&0u32.to_le_bytes());
        let mut p = Program::new();
        p.push(Instr::DmaGatherRows {
            dram_base: 0,
            row_bytes: 8,
            rows: 2,
            idx_spad: 0,
            spad: 64,
        });
        p.push(Instr::Sync(SyncKind::WaitMemAll));
        p.push(Instr::Halt);
        let st = m.run(&p).unwrap();
        assert_eq!(&m.spad[64..72], &[2u8; 8]);
        assert_eq!(&m.spad[72..80], &[0u8; 8]);
        assert_eq!(st.dram_bytes, 16);
    }

    #[test]
    fn errors_are_reported() {
        let mut m = Machine::new(small_cfg());
        // OOB scratchpad
        let mut p = Program::new();
        p.push(Instr::LoopDims { dims: [1, 1, 1, 1] });
        p.push(Instr::SetBase {
            port: Port::Src0,
            addr: 1 << 20,
        });
        p.push(Instr::Vec {
            op: VectorOp::Copy,
            dtype: Dtype::F32,
            vlen: 1,
            imm: 0.0,
        });
        assert!(matches!(m.run(&p), Err(ExecError::OobScratchpad { .. })));
        // bad vlen
        let p: Program = [Instr::Vec {
            op: VectorOp::Copy,
            dtype: Dtype::F32,
            vlen: 9999,
            imm: 0.0,
        }]
        .into_iter()
        .collect();
        assert!(matches!(m.run(&p), Err(ExecError::BadVlen { .. })));
        // float op on int
        let p: Program = [Instr::Vec {
            op: VectorOp::Log,
            dtype: Dtype::I32,
            vlen: 1,
            imm: 0.0,
        }]
        .into_iter()
        .collect();
        assert_eq!(m.run(&p), Err(ExecError::FloatOpOnInt(VectorOp::Log)));
        // int op on float
        let p: Program = [Instr::Vec {
            op: VectorOp::Xor,
            dtype: Dtype::F32,
            vlen: 1,
            imm: 0.0,
        }]
        .into_iter()
        .collect();
        assert_eq!(m.run(&p), Err(ExecError::IntOpOnFloat(VectorOp::Xor)));
        // zero loop dim
        let p: Program = [Instr::LoopDims { dims: [0, 1, 1, 1] }]
            .into_iter()
            .collect();
        assert_eq!(m.run(&p), Err(ExecError::ZeroLoopDim));
    }

    #[test]
    fn icache_limit_enforced() {
        let mut cfg = small_cfg();
        cfg.icache_bytes = 256; // 16 instructions
        let mut m = Machine::new(cfg);
        let p: Program = std::iter::repeat_with(|| Instr::Sync(SyncKind::Start))
            .take(17)
            .collect();
        assert!(matches!(m.run(&p), Err(ExecError::ProgramTooLarge { .. })));
    }

    #[test]
    fn bswap_converts_endianness() {
        let mut m = Machine::new(small_cfg());
        m.spad[0..4].copy_from_slice(&0x1122_3344u32.to_le_bytes());
        let mut p = Program::new();
        p.push(Instr::LoopDims { dims: [1, 1, 1, 1] });
        p.push(Instr::SetBase {
            port: Port::Src0,
            addr: 0,
        });
        p.push(Instr::SetStride {
            port: Port::Src0,
            strides: [0; 4],
            lane_stride: 4,
        });
        p.push(Instr::SetBase {
            port: Port::Dst,
            addr: 64,
        });
        p.push(Instr::SetStride {
            port: Port::Dst,
            strides: [0; 4],
            lane_stride: 4,
        });
        p.push(Instr::Vec {
            op: VectorOp::Bswap,
            dtype: Dtype::U32,
            vlen: 1,
            imm: 0.0,
        });
        p.push(Instr::Halt);
        m.run(&p).unwrap();
        let v = u32::from_le_bytes(m.spad[64..68].try_into().unwrap());
        assert_eq!(v, 0x4433_2211);
    }

    #[test]
    fn branch_escaping_frame_is_error() {
        let mut m = Machine::new(small_cfg());
        let mut p = Program::new();
        p.push(Instr::Repeat { count: 2, body: 1 });
        p.push(Instr::Scalar(ScalarInstr::Beqz { rs: 0, offset: 5 }));
        p.push(Instr::Halt);
        assert!(matches!(m.run(&p), Err(ExecError::BranchOutOfFrame { .. })));
    }

    #[test]
    fn more_lanes_fewer_cycles() {
        let run_with = |lanes: u32| -> u64 {
            let mut cfg = small_cfg().with_lanes(lanes);
            cfg.scratchpad_bytes = 64 << 10;
            let mut m = Machine::new(cfg);
            let mut p = Program::new();
            // 4096 elements in chunks of `lanes`.
            let n = 4096 / lanes;
            p.push(Instr::LoopDims { dims: [1, 1, 1, n] });
            p.push(Instr::SetBase {
                port: Port::Src0,
                addr: 0,
            });
            p.push(Instr::SetStride {
                port: Port::Src0,
                strides: [0, 0, 0, 4 * lanes as i64],
                lane_stride: 4,
            });
            p.push(Instr::SetBase {
                port: Port::Dst,
                addr: 16384,
            });
            p.push(Instr::SetStride {
                port: Port::Dst,
                strides: [0, 0, 0, 4 * lanes as i64],
                lane_stride: 4,
            });
            p.push(Instr::Vec {
                op: VectorOp::AddS,
                dtype: Dtype::F32,
                vlen: lanes,
                imm: 1.0,
            });
            p.push(Instr::Halt);
            m.run(&p).unwrap().cycles
        };
        let c32 = run_with(32);
        let c128 = run_with(128);
        assert!(c32 > 3 * c128, "c32={c32} c128={c128}");
    }

    const DTYPES: [Dtype; 7] = [
        Dtype::U8,
        Dtype::I8,
        Dtype::U16,
        Dtype::I16,
        Dtype::U32,
        Dtype::I32,
        Dtype::F32,
    ];

    /// Every vector op, with `Cast` once per destination type.
    fn all_ops() -> Vec<VectorOp> {
        let mut ops = vec![
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
            VectorOp::Bswap,
            VectorOp::Gather,
            VectorOp::Scatter,
        ];
        ops.extend(DTYPES.map(VectorOp::Cast));
        ops
    }

    const DIFF_SPAD: u64 = 4096;
    const DIFF_LANES: u32 = 32;
    /// Bytes at the scratchpad's start holding `u32` indices below
    /// [`INDEX_RANGE`] for gather and scatter; the [`BAD_INDICES`] bytes
    /// after them hold random, mostly out-of-range, ones.
    const INDEX_TABLE: u64 = 960;
    const BAD_INDICES: u64 = 64;
    const INDEX_RANGE: u64 = 256;

    fn diff_cfg() -> DrxConfig {
        let mut c = small_cfg().with_lanes(DIFF_LANES);
        c.scratchpad_bytes = DIFF_SPAD;
        c
    }

    /// `f32` bit patterns where conversions differ: signaling and quiet
    /// NaNs, infinities, signed zero, subnormals, and values at the
    /// edges of the integer types.
    const SPECIAL_F32: [u32; 17] = [
        0x7f80_0001, // signaling NaN
        0xffa0_1234, // negative signaling NaN with payload
        0x7fc0_0000, // quiet NaN
        0x7f80_0000, // +inf
        0xff80_0000, // -inf
        0x0000_0000, // +0.0
        0x8000_0000, // -0.0
        0x0000_0001, // smallest subnormal
        0x7f7f_ffff, // f32::MAX
        0x437f_8000, // 255.5
        0xc301_0000, // -129.0
        0x477f_ff00, // 65535.0
        0x4f00_0000, // 2^31
        0xcf00_0001, // just below -2^31
        0x4f80_0000, // 2^32
        0x3f00_0000, // 0.5
        0xbf00_0000, // -0.5
    ];

    /// A machine whose scratchpad holds a `u32` index table followed by
    /// words that are random bits, ordinary floats, or
    /// [`SPECIAL_F32`] patterns.
    fn random_machine(g: &mut Gen) -> Machine {
        let mut m = Machine::new(diff_cfg());
        for at in (0..DIFF_SPAD as usize).step_by(4) {
            let word = if at < INDEX_TABLE as usize {
                g.u64_in(0, INDEX_RANGE) as u32
            } else if at < (INDEX_TABLE + BAD_INDICES) as usize {
                g.u64_in(0, 1 << 32) as u32
            } else {
                match g.usize_in(0, 10) {
                    0..=3 => g.u64_in(0, 1 << 32) as u32,
                    4..=6 => (g.f64_in(-300.0, 300.0) as f32).to_bits(),
                    _ => *g.pick(&SPECIAL_F32),
                }
            };
            m.spad[at..at + 4].copy_from_slice(&word.to_le_bytes());
        }
        m.write_dram(0, &g.bytes(0, 64));
        m
    }

    /// Pushes the loop nest, the three ports and one `op` on `dtype`.
    /// Most ports get a base at which every lane of every point stays
    /// inside the scratchpad; the rest start so the span ends exactly
    /// at either end of it or one byte past, or start past its end or
    /// anywhere, so spans leave it, often mid-vector.
    fn push_vec(g: &mut Gen, p: &mut Program, op: VectorOp, dtype: Dtype) {
        let vlen = if g.chance(0.2) {
            DIFF_LANES
        } else {
            g.u64_in(1, DIFF_LANES as u64 + 1) as u32
        };
        let dims = [1, g.u64_in(1, 3), g.u64_in(1, 3), g.u64_in(1, 5)].map(|d| d as u32);
        p.push(Instr::LoopDims { dims });
        let dst_dtype = match op {
            VectorOp::Cast(to) => to,
            _ => dtype,
        };
        let indexed = matches!(op, VectorOp::Gather | VectorOp::Scatter);
        // `f32` accesses stay word-aligned, so a NaN whose payload may
        // differ (see `same_up_to_nan_payloads`) is only ever reread
        // whole, as a NaN, and cannot change a non-NaN result.
        let align = if dtype == Dtype::F32 || dst_dtype == Dtype::F32 {
            4
        } else {
            1
        };
        let aligned = |v: i64| v - v.rem_euclid(align);
        let mut cfgs = Vec::new();
        for port in Port::ALL {
            let e = match port {
                Port::Src1 if indexed => 4,
                Port::Dst => dst_dtype.size() as i64,
                _ => dtype.size() as i64,
            };
            let lane_stride = aligned(match g.usize_in(0, 8) {
                0 => 0,
                1 => -e,
                2 => 2 * e,
                3 => g.i64_in(-9, 10),
                _ => e,
            });
            let vl = vlen as i64;
            let strides = [0, 1, 2, 3].map(|_| match g.usize_in(0, 5) {
                0 => 0,
                1 => -vl * e,
                2 => aligned(g.i64_in(-64, 65)),
                _ => vl * e,
            });
            // The port's byte extent over the nest: `lo..hi` from base.
            let (mut lo, mut hi) = (0i64, e);
            let lane_span = match (indexed, port) {
                // Data addressed by index: up to INDEX_RANGE elements.
                (true, Port::Src0) if op == VectorOp::Gather => (INDEX_RANGE as i64 - 1) * e,
                (true, Port::Dst) if op == VectorOp::Scatter => (INDEX_RANGE as i64 - 1) * e,
                _ => (vl - 1) * lane_stride,
            };
            for span in dims
                .iter()
                .zip(strides)
                .map(|(&d, s)| (d as i64 - 1) * s)
                .chain([lane_span])
            {
                lo += span.min(0);
                hi += span.max(0);
            }
            let room = if indexed && port == Port::Src1 {
                INDEX_TABLE as i64
            } else {
                DIFF_SPAD as i64
            };
            let spad = DIFF_SPAD as i64;
            let base = if -lo <= room - hi && g.chance(0.75) {
                g.i64_in(-lo, room - hi + 1)
            } else {
                match g.usize_in(0, 4) {
                    0 => -lo - g.i64_in(0, 2),
                    1 => spad - hi + g.i64_in(0, 2),
                    2 => spad + g.i64_in(0, 64),
                    _ => g.i64_in(0, spad),
                }
            };
            let base = aligned(base).max(0) as u64;
            cfgs.push((port, strides, lane_stride, base));
        }
        // Alias the destination with a source, exactly (in-place
        // `Mac`) or shifted, so lanes read what earlier lanes wrote.
        if g.chance(0.3) {
            let shift = if g.chance(0.5) {
                0
            } else {
                aligned(g.i64_in(-8, 9))
            };
            let src = if g.chance(0.5) { 0 } else { 1 };
            let (_, strides, lane_stride, base) = cfgs[src];
            cfgs[2] = (
                Port::Dst,
                strides,
                lane_stride,
                base.saturating_add_signed(shift),
            );
        }
        for (port, strides, lane_stride, base) in cfgs {
            p.push(Instr::SetStride {
                port,
                strides,
                lane_stride,
            });
            p.push(Instr::SetBase { port, addr: base });
        }
        if g.chance(0.3) {
            p.push(Instr::AdvanceBase {
                port: *g.pick(&Port::ALL),
                delta: aligned(g.i64_in(-256, 257)),
            });
        }
        let imm = match op {
            VectorOp::Shl | VectorOp::Shr => g.i64_in(-4, 70) as f64,
            _ => match g.usize_in(0, 8) {
                0 => f64::NAN,
                1 => -1e12,
                2 => 0.5,
                _ => g.f64_in(-300.0, 300.0),
            },
        };
        p.push(Instr::Vec {
            op,
            dtype,
            vlen,
            imm,
        });
    }

    /// Whether two scratchpads hold the same bytes up to NaN payloads:
    /// every aligned word that differs reads as an `f32` NaN in both.
    /// Rust leaves the sign and payload of a NaN result unspecified, and
    /// which of two NaN operands an operation returns depends on how the
    /// compiler orders them: a release build of the reference and of
    /// the typed `Mac` were seen to pick different ones.
    fn same_up_to_nan_payloads(a: &[u8], b: &[u8]) -> bool {
        let nan = |w: &[u8]| f32::from_le_bytes(w.try_into().expect("4 bytes")).is_nan();
        a.len() == b.len()
            && a.chunks(4)
                .zip(b.chunks(4))
                .all(|(x, y)| x == y || (nan(x) && nan(y)))
    }

    /// Random vector programs on every op and type, with broadcast,
    /// negative and misaligned lane strides, aliased destinations,
    /// gather and scatter indices out of range, and spans leaving the
    /// scratchpad mid-vector: the typed kernels and the per-lane
    /// reference return the same result and leave the same memory.
    #[test]
    fn widening_quiets_signaling_nans() {
        let mut m = Machine::new(small_cfg());
        for (i, bits) in [0x7f80_0001u32, 0xffa0_1234].iter().enumerate() {
            m.spad[i * 4..i * 4 + 4].copy_from_slice(&bits.to_le_bytes());
        }
        let mut p = Program::new();
        vec_cfg(&mut p, 0, 64, 1, 4);
        p.push(Instr::Vec {
            op: VectorOp::Copy,
            dtype: Dtype::F32,
            vlen: 2,
            imm: 0.0,
        });
        m.run(&p).unwrap();
        let out: Vec<u32> = (0..2)
            .map(|i| u32::from_le_bytes(m.spad[64 + i * 4..68 + i * 4].try_into().unwrap()))
            .collect();
        assert_eq!(out, vec![0x7fc0_0001, 0xffe0_1234]);
    }

    /// Every op paired with every source type.
    fn all_combos() -> Vec<(VectorOp, Dtype)> {
        all_ops()
            .into_iter()
            .flat_map(|op| DTYPES.map(|d| (op, d)))
            .collect()
    }

    /// Every op on every type over every pair of [`SPECIAL_F32`] words
    /// (and their bytes read as integers), into a separate destination
    /// and in place.
    #[test]
    fn typed_kernels_match_the_reference_on_special_values() {
        let n = SPECIAL_F32.len();
        let mut base = Machine::new(diff_cfg());
        for (i, w) in base.spad.chunks_mut(4).enumerate() {
            w.copy_from_slice(&SPECIAL_F32[i % n].to_le_bytes());
        }
        for (op, dtype) in all_combos() {
            let e = dtype.size() as i64;
            let de = match op {
                VectorOp::Cast(to) => to.size() as i64,
                _ => e,
            };
            // Point j, lane l reads word l at Src0 and word l + j at
            // Src1, so the n points cover every pair of special words.
            let ports = [
                (Port::Src0, 1024, [0; 4], e),
                (Port::Src1, 2048, [0, 0, 0, e], e),
                (Port::Dst, 2560, [0, 0, 0, n as i64 * de], de),
            ];
            for in_place in [false, true] {
                let mut p = Program::new();
                p.push(Instr::LoopDims {
                    dims: [1, 1, 1, n as u32],
                });
                for (port, addr, strides, lane_stride) in ports {
                    let (addr, strides, lane_stride) = match (in_place, port) {
                        (true, Port::Dst) => (ports[0].1, ports[0].2, ports[0].3),
                        _ => (addr, strides, lane_stride),
                    };
                    p.push(Instr::SetStride {
                        port,
                        strides,
                        lane_stride,
                    });
                    p.push(Instr::SetBase { port, addr });
                }
                p.push(Instr::Vec {
                    op,
                    dtype,
                    vlen: n as u32,
                    imm: 2.5,
                });
                let mut typed = base.clone();
                let mut reference = base.clone();
                let got = typed.run(&p);
                let want = reference.run_with(&p, Machine::exec_vec_reference);
                assert_eq!(got, want, "{op} {dtype} in place: {in_place}");
                assert!(
                    same_up_to_nan_payloads(&typed.spad, &reference.spad),
                    "{op} {dtype} in place: {in_place}"
                );
            }
        }
    }

    #[test]
    fn typed_kernels_match_the_per_lane_reference() {
        let combos = all_combos();
        let n = cases(if cfg!(feature = "heavy-tests") {
            512
        } else {
            64
        });
        // Each case's programs lead with the next combinations in
        // turn, so 64 cases lead with every op on every type twice.
        let mut next = 0;
        let (mut runs, mut oks, mut faults) = (0, 0, 0);
        run_cases("drx::typed_kernels_match_reference", n, |g| {
            let base = random_machine(g);
            for _ in 0..8 {
                let mut p = Program::new();
                let (op, dtype) = combos[next % combos.len()];
                next += 1;
                push_vec(g, &mut p, op, dtype);
                for _ in 0..g.usize_in(0, 3) {
                    let (op, dtype) = *g.pick(&combos);
                    push_vec(g, &mut p, op, dtype);
                }
                let mut typed = base.clone();
                let mut reference = base.clone();
                // Step one instruction at a time (port and loop state
                // carry over between runs). After each step the typed
                // machine takes the reference's scratchpad, so a NaN
                // payload that may legitimately differ cannot spread.
                let mut outcome = Ok(());
                for instr in &p.instrs {
                    let step: Program = [instr.clone()].into_iter().collect();
                    let got = typed.run(&step);
                    let want = reference.run_with(&step, Machine::exec_vec_reference);
                    assert_eq!(got, want, "{instr:?} in {p:?}");
                    assert!(
                        same_up_to_nan_payloads(&typed.spad, &reference.spad),
                        "scratchpads differ after {instr:?} in {p:?}"
                    );
                    assert!(typed.dram == reference.dram, "DRAM differs: {p:?}");
                    typed.spad.copy_from_slice(&reference.spad);
                    if let Err(e) = got {
                        outcome = Err(e);
                        break;
                    }
                }
                runs += 1;
                match outcome {
                    Ok(()) => oks += 1,
                    Err(ExecError::OobScratchpad { .. }) => faults += 1,
                    Err(_) => {}
                }
            }
        });
        if n >= 64 {
            assert!(next >= combos.len(), "every combination ran");
            assert!(oks * 3 >= runs, "{oks} of {runs} programs completed");
            assert!(faults * 10 >= runs, "{faults} of {runs} programs faulted");
        }
    }
}
