//! The restructuring-operator abstraction.
//!
//! A [`RestructureOp`] is one data-motion step between two accelerators
//! (Table I's "Data Restructuring" column): it has a CPU reference
//! implementation, a lowering to a DRX program, and a [`OpProfile`]
//! describing the work so the host-CPU cost model (`dmx-cpu`) and the
//! Fig. 5 characterization can reason about it without executing it.

use dmx_drx::isa::Program;
use dmx_drx::machine::{ExecError, ExecStats};
use dmx_drx::{CompileError, DrxConfig, Machine};
use std::fmt;

/// Work characteristics of a restructuring op, per invocation.
///
/// These drive the CPU timing model and the top-down characterization:
/// restructuring ops are streaming (huge L1D/L2 MPKI), highly
/// vectorizable, with a small instruction working set (Sec. IV.A).
#[derive(Debug, Clone, PartialEq)]
pub struct OpProfile {
    /// Operator name.
    pub name: String,
    /// Bytes consumed.
    pub input_bytes: u64,
    /// Bytes produced.
    pub output_bytes: u64,
    /// Intermediate bytes written then re-read (extra traffic).
    pub scratch_bytes: u64,
    /// Total streaming passes over the working set (reads + writes,
    /// normalized to one working-set traversal each).
    pub stream_passes: f64,
    /// Vector ALU operations per byte moved.
    pub ops_per_byte: f64,
    /// Branch instructions per kilobyte processed (Video Surveillance's
    /// format handling is the branchy outlier in Fig. 5).
    pub branch_per_kb: f64,
    /// Fraction of accesses that are data-dependent (gather/scatter).
    pub irregular: f64,
}

impl OpProfile {
    /// Total bytes that cross the memory hierarchy.
    pub fn traffic_bytes(&self) -> u64 {
        self.input_bytes + self.output_bytes + 2 * self.scratch_bytes
    }
}

/// A DRX-executable form of an op: the program plus where to stage
/// input, constants, and output in DRX DRAM.
///
/// Inputs and outputs are ordered segment lists: the op's input byte
/// blob is split across the input segments in order, and the output
/// blob is the concatenation of the output segments (ops like the
/// YUV-to-tensor transform keep each plane in its own buffer).
#[derive(Debug, Clone)]
pub struct Lowered {
    /// The compiled or hand-written DRX program.
    pub program: Program,
    /// `(dram_addr, bytes)` segments the input is written to, in order.
    pub inputs: Vec<(u64, u64)>,
    /// `(dram_addr, bytes)` segments the output is read from, in order.
    pub outputs: Vec<(u64, u64)>,
    /// Constant payloads (lookup tables, filter weights) and their
    /// DRAM addresses, written before execution.
    pub consts: Vec<(u64, Vec<u8>)>,
    /// Total DRAM footprint (used to size the machine).
    pub dram_bytes: u64,
}

impl Lowered {
    /// Total input bytes across segments.
    pub fn input_bytes(&self) -> u64 {
        self.inputs.iter().map(|(_, b)| b).sum()
    }

    /// Total output bytes across segments.
    pub(crate) fn output_bytes(&self) -> u64 {
        self.outputs.iter().map(|(_, b)| b).sum()
    }

    /// A machine ready to run the program: `config` with DRAM raised to
    /// hold the footprint, the constants written, and `input` written
    /// across the input segments back to back.
    ///
    /// # Panics
    ///
    /// Panics if `input` is shorter than [`Lowered::input_bytes`].
    pub fn stage(&self, config: &DrxConfig, input: &[u8]) -> Machine {
        let mut cfg = *config;
        cfg.dram.capacity_bytes = cfg.dram.capacity_bytes.max(self.dram_bytes + (1 << 20));
        let mut machine = Machine::new(cfg);
        for (addr, data) in &self.consts {
            machine.write_dram(*addr, data);
        }
        let mut cursor = 0usize;
        for &(addr, bytes) in &self.inputs {
            machine.write_dram(addr, &input[cursor..cursor + bytes as usize]);
            cursor += bytes as usize;
        }
        machine
    }
}

/// Errors from lowering or executing an op on DRX.
#[derive(Debug)]
pub enum OpError {
    /// The affine compiler rejected the kernel.
    Compile(CompileError),
    /// The DRX machine faulted.
    Exec(ExecError),
    /// The provided input has the wrong size.
    InputSize {
        /// Expected bytes.
        expected: u64,
        /// Provided bytes.
        got: u64,
    },
}

impl fmt::Display for OpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpError::Compile(e) => write!(f, "lowering failed: {e}"),
            OpError::Exec(e) => write!(f, "DRX execution failed: {e}"),
            OpError::InputSize { expected, got } => {
                write!(f, "input size mismatch: expected {expected} B, got {got} B")
            }
        }
    }
}

impl std::error::Error for OpError {}

impl From<CompileError> for OpError {
    fn from(e: CompileError) -> Self {
        OpError::Compile(e)
    }
}

impl From<ExecError> for OpError {
    fn from(e: ExecError) -> Self {
        OpError::Exec(e)
    }
}

/// One data-restructuring operator.
///
/// `Send + Sync` so benchmarks holding boxed ops can be shared across
/// the parallel sweep runner's worker threads; ops are plain data.
pub trait RestructureOp: fmt::Debug + Send + Sync {
    /// Operator name (diagnostics and reports).
    fn name(&self) -> &str;

    /// Work profile per invocation.
    fn profile(&self) -> OpProfile;

    /// Reference CPU implementation. Must be semantically identical to
    /// the DRX lowering (bit-for-bit for integer data; float results
    /// follow the DRX evaluation order: f64 arithmetic, f32 storage).
    ///
    /// # Panics
    ///
    /// Implementations panic if `input` has the wrong size.
    fn run_cpu(&self, input: &[u8]) -> Vec<u8>;

    /// Lowers the op for a DRX configuration.
    ///
    /// # Errors
    ///
    /// Returns [`OpError::Compile`] when the op does not fit the
    /// configuration.
    fn lower(&self, config: &DrxConfig) -> Result<Lowered, OpError>;
}

/// Executes `op` on a freshly configured DRX machine and returns the
/// output bytes and execution statistics.
///
/// # Errors
///
/// Returns an [`OpError`] on size mismatch, lowering failure, or
/// machine fault.
pub fn run_on_drx(
    op: &dyn RestructureOp,
    config: &DrxConfig,
    input: &[u8],
) -> Result<(Vec<u8>, ExecStats), OpError> {
    run_on_drx_with_flips(op, config, input, &[])
}

/// [`run_on_drx`] with silent bit flips injected into the staged input
/// after it lands in device DRAM and before the program runs — the
/// functional half of the SDC fault model. Each `(offset, bit)` pair
/// indexes into the op's *logical input buffer* (the same bytes
/// `input` holds), so a flip corrupts exactly one staged input bit and
/// the corruption propagates through the real restructuring datapath
/// into the output, where blast radius can be measured. Offsets at or
/// past the input end are ignored.
///
/// # Errors
///
/// Returns an [`OpError`] on size mismatch, lowering failure, or
/// machine fault.
pub fn run_on_drx_with_flips(
    op: &dyn RestructureOp,
    config: &DrxConfig,
    input: &[u8],
    flips: &[(u64, u8)],
) -> Result<(Vec<u8>, ExecStats), OpError> {
    let lowered = op.lower(config)?;
    if input.len() as u64 != lowered.input_bytes() {
        return Err(OpError::InputSize {
            expected: lowered.input_bytes(),
            got: input.len() as u64,
        });
    }
    let mut machine = lowered.stage(config, input);
    // Map logical-input offsets onto the staged DRAM regions. Input
    // regions are staged back to back, so a logical offset lands in
    // the region whose cumulative range covers it.
    for &(offset, bit) in flips {
        let mut base = 0u64;
        for &(addr, bytes) in &lowered.inputs {
            if offset < base + bytes {
                machine.flip_dram_bit(addr + (offset - base), bit);
                break;
            }
            base += bytes;
        }
    }
    let stats = machine.run(&lowered.program)?;
    let mut out = Vec::with_capacity(lowered.output_bytes() as usize);
    for &(addr, bytes) in &lowered.outputs {
        out.extend(machine.read_dram(addr, bytes));
    }
    Ok((out, stats))
}

/// Runs the op on both CPU and DRX and asserts identical output
/// (test helper used across the op modules and integration tests).
///
/// # Panics
///
/// Panics if outputs differ or execution fails.
pub fn assert_cpu_drx_equal(op: &dyn RestructureOp, config: &DrxConfig, input: &[u8]) {
    let cpu = op.run_cpu(input);
    let (drx, _) = run_on_drx(op, config, input).unwrap_or_else(|e| {
        panic!("{}: DRX run failed: {e}", op.name());
    });
    assert_eq!(
        cpu.len(),
        drx.len(),
        "{}: output sizes differ (cpu {} vs drx {})",
        op.name(),
        cpu.len(),
        drx.len()
    );
    for (i, (a, b)) in cpu.iter().zip(&drx).enumerate() {
        assert_eq!(a, b, "{}: outputs differ at byte {i}", op.name());
    }
}
