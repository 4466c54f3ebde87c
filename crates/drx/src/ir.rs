//! High-level restructuring-kernel IR: the DRX compiler's input
//! language (Sec. IV.B: "a high-level representation of the data
//! restructuring kernel").
//!
//! A [`Kernel`] declares flat DRAM [`BufferDecl`]s and a sequence of
//! affine [`LoopNest`]s. Each nest iterates a rectangular index space;
//! every statement in the nest reads and writes buffers through affine
//! [`Access`]es (element offset + per-dimension element strides). The
//! compiler vectorizes the innermost dimension across RE lanes, tiles
//! the outermost dimension to fit the scratchpad, and double-buffers
//! DMA against compute.

use crate::isa::{Dtype, VectorOp};
use std::fmt;

/// Maximum loop-nest depth the compiler accepts (matches the hardware
/// Instruction Repeater depth).
pub const MAX_IR_DIMS: usize = 4;

/// Identifies a buffer within one [`Kernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufId(pub(crate) usize);

impl BufId {
    /// Raw index into the kernel's buffer table.
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// A flat DRAM buffer of `elems` elements of `dtype`.
#[derive(Debug, Clone)]
pub struct BufferDecl {
    /// Human-readable name (diagnostics only).
    pub name: String,
    /// Element type; accesses to this buffer use this element size.
    pub dtype: Dtype,
    /// Number of elements.
    pub elems: u64,
    /// Resident buffers are loaded to the scratchpad once at kernel
    /// start and stay there (lookup tables, gather targets). They must
    /// be read-only and small.
    pub resident: bool,
}

impl BufferDecl {
    /// Buffer size in bytes.
    pub(crate) fn bytes(&self) -> u64 {
        self.elems * self.dtype.size()
    }
}

/// An affine access: element index = `offset + Σ idx_d * strides[d]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Access {
    /// The buffer accessed.
    pub buf: BufId,
    /// Element offset at the loop origin.
    pub offset: i64,
    /// Element stride per loop dimension (must match the nest's
    /// dimension count; the last entry is the vectorized dimension —
    /// use 1 for contiguous access, 0 to broadcast).
    pub strides: Vec<i64>,
}

impl Access {
    /// Contiguous row-major access over the whole nest: innermost
    /// stride 1, each outer stride the product of inner dimensions.
    pub fn row_major(buf: BufId, dims: &[u64]) -> Access {
        let mut strides = vec![0i64; dims.len()];
        let mut acc = 1i64;
        for d in (0..dims.len()).rev() {
            strides[d] = acc;
            acc *= dims[d] as i64;
        }
        Access {
            buf,
            offset: 0,
            strides,
        }
    }

    /// A broadcast access (all strides zero) at a fixed element.
    pub fn broadcast(buf: BufId, ndims: usize, offset: i64) -> Access {
        Access {
            buf,
            offset,
            strides: vec![0; ndims],
        }
    }

    /// Smallest and largest element index touched over `dims`
    /// (inclusive). `dims[0]` can be overridden to reason about tiles.
    pub(crate) fn extent(&self, dims: &[u64]) -> (i64, i64) {
        let mut lo = self.offset;
        let mut hi = self.offset;
        for (d, &s) in self.strides.iter().enumerate() {
            let span = (dims[d] as i64 - 1) * s;
            if span >= 0 {
                hi += span;
            } else {
                lo += span;
            }
        }
        (lo, hi)
    }
}

/// One vector statement inside a nest.
#[derive(Debug, Clone, PartialEq)]
pub struct VecStmt {
    /// The operation.
    pub op: VectorOp,
    /// Destination access. For [`VectorOp::Cast`] the destination
    /// buffer's dtype must equal the cast target.
    pub dst: Access,
    /// First source.
    pub src0: Access,
    /// Second source (required iff `op.uses_src1()`); for
    /// [`VectorOp::Gather`] this streams `u32` element indices into the
    /// resident table referenced by `src0`.
    pub src1: Option<Access>,
    /// Scalar immediate for `*S` / `Fill` / shift ops.
    pub imm: f64,
}

/// A rectangular loop nest with one or more statements sharing the
/// iteration space. The last dimension is vectorized across RE lanes.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopNest {
    /// Iteration counts, outermost first. Length 1..=[`MAX_IR_DIMS`].
    pub dims: Vec<u64>,
    /// Statements executed (in order) at every iteration point.
    pub stmts: Vec<VecStmt>,
}

/// A restructuring kernel: buffers plus nests.
///
/// ```
/// use dmx_drx::ir::{Kernel, Access, VecStmt};
/// use dmx_drx::isa::{Dtype, VectorOp};
///
/// // out[i] = in[i] * 2.0 for 1024 floats
/// let mut k = Kernel::new("scale");
/// let inp = k.buffer("in", Dtype::F32, 1024);
/// let out = k.buffer("out", Dtype::F32, 1024);
/// k.nest(vec![1024], vec![VecStmt {
///     op: VectorOp::MulS,
///     dst: Access::row_major(out, &[1024]),
///     src0: Access::row_major(inp, &[1024]),
///     src1: None,
///     imm: 2.0,
/// }]);
/// assert!(k.validate().is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Kernel name (diagnostics and reports).
    pub name: String,
    /// Buffer table.
    pub buffers: Vec<BufferDecl>,
    /// Loop nests, executed in order with full synchronization between
    /// them.
    pub nests: Vec<LoopNest>,
}

/// IR validation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// A nest has zero or more than [`MAX_IR_DIMS`] dimensions.
    BadDimCount {
        /// The nest index.
        nest: usize,
    },
    /// A nest dimension is zero.
    ZeroDim {
        /// The nest index.
        nest: usize,
    },
    /// A nest has no statements.
    EmptyNest {
        /// The nest index.
        nest: usize,
    },
    /// An access's stride vector length differs from the nest depth.
    StrideLenMismatch {
        /// The nest index.
        nest: usize,
    },
    /// An access touches elements outside its buffer.
    OutOfBounds {
        /// The nest index.
        nest: usize,
        /// Offending buffer.
        buf: usize,
    },
    /// An op requiring `src1` is missing it, or vice versa.
    Src1Mismatch {
        /// The nest index.
        nest: usize,
    },
    /// Gather's `src0` table buffer is not declared resident.
    GatherTableNotResident {
        /// The nest index.
        nest: usize,
    },
    /// A resident buffer is written.
    ResidentWritten {
        /// Offending buffer.
        buf: usize,
    },
    /// A statement's dtypes are inconsistent with its buffers.
    DtypeMismatch {
        /// The nest index.
        nest: usize,
    },
    /// Scatter is not supported by the affine compiler (use a
    /// hand-written program).
    ScatterUnsupported {
        /// The nest index.
        nest: usize,
    },
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::BadDimCount { nest } => write!(f, "nest {nest}: 1..=4 dimensions required"),
            IrError::ZeroDim { nest } => write!(f, "nest {nest}: zero-sized dimension"),
            IrError::EmptyNest { nest } => write!(f, "nest {nest}: no statements"),
            IrError::StrideLenMismatch { nest } => {
                write!(f, "nest {nest}: stride vector length != nest depth")
            }
            IrError::OutOfBounds { nest, buf } => {
                write!(f, "nest {nest}: access leaves buffer {buf}")
            }
            IrError::Src1Mismatch { nest } => {
                write!(f, "nest {nest}: src1 presence does not match the op")
            }
            IrError::GatherTableNotResident { nest } => {
                write!(f, "nest {nest}: gather table must be a resident buffer")
            }
            IrError::ResidentWritten { buf } => {
                write!(f, "resident buffer {buf} is written")
            }
            IrError::DtypeMismatch { nest } => {
                write!(f, "nest {nest}: buffer dtypes inconsistent with the op")
            }
            IrError::ScatterUnsupported { nest } => {
                write!(f, "nest {nest}: scatter requires a hand-written program")
            }
        }
    }
}

impl std::error::Error for IrError {}

impl Kernel {
    /// Creates an empty kernel.
    pub fn new(name: impl Into<String>) -> Kernel {
        Kernel {
            name: name.into(),
            buffers: Vec::new(),
            nests: Vec::new(),
        }
    }

    /// Declares a DRAM buffer and returns its id.
    pub fn buffer(&mut self, name: impl Into<String>, dtype: Dtype, elems: u64) -> BufId {
        self.buffers.push(BufferDecl {
            name: name.into(),
            dtype,
            elems,
            resident: false,
        });
        BufId(self.buffers.len() - 1)
    }

    /// Declares a resident (scratchpad-pinned, read-only) buffer.
    pub fn resident_buffer(&mut self, name: impl Into<String>, dtype: Dtype, elems: u64) -> BufId {
        self.buffers.push(BufferDecl {
            name: name.into(),
            dtype,
            elems,
            resident: true,
        });
        BufId(self.buffers.len() - 1)
    }

    /// Appends a loop nest.
    pub fn nest(&mut self, dims: Vec<u64>, stmts: Vec<VecStmt>) {
        self.nests.push(LoopNest { dims, stmts });
    }

    /// Validates the kernel.
    ///
    /// # Errors
    ///
    /// Returns the first [`IrError`] found.
    pub fn validate(&self) -> Result<(), IrError> {
        for (ni, nest) in self.nests.iter().enumerate() {
            if nest.dims.is_empty() || nest.dims.len() > MAX_IR_DIMS {
                return Err(IrError::BadDimCount { nest: ni });
            }
            if nest.dims.contains(&0) {
                return Err(IrError::ZeroDim { nest: ni });
            }
            if nest.stmts.is_empty() {
                return Err(IrError::EmptyNest { nest: ni });
            }
            for stmt in &nest.stmts {
                if matches!(stmt.op, VectorOp::Scatter) {
                    return Err(IrError::ScatterUnsupported { nest: ni });
                }
                if stmt.src1.is_some() != stmt.op.uses_src1() {
                    return Err(IrError::Src1Mismatch { nest: ni });
                }
                let mut accs = vec![&stmt.dst, &stmt.src0];
                if let Some(s1) = &stmt.src1 {
                    accs.push(s1);
                }
                for a in accs {
                    if a.strides.len() != nest.dims.len() {
                        return Err(IrError::StrideLenMismatch { nest: ni });
                    }
                    let decl = &self.buffers[a.buf.0];
                    // Gather's src0 is indexed dynamically; bounds are
                    // the whole resident table, checked at runtime.
                    let dynamic =
                        matches!(stmt.op, VectorOp::Gather) && std::ptr::eq(a, &stmt.src0);
                    if !dynamic {
                        let (lo, hi) = a.extent(&nest.dims);
                        if lo < 0 || hi >= decl.elems as i64 {
                            return Err(IrError::OutOfBounds {
                                nest: ni,
                                buf: a.buf.0,
                            });
                        }
                    }
                }
                // dtype consistency
                let src_dt = self.buffers[stmt.src0.buf.0].dtype;
                let dst_dt = self.buffers[stmt.dst.buf.0].dtype;
                match stmt.op {
                    VectorOp::Cast(to) => {
                        if dst_dt != to {
                            return Err(IrError::DtypeMismatch { nest: ni });
                        }
                    }
                    VectorOp::Fill => {}
                    VectorOp::Gather => {
                        if dst_dt != src_dt {
                            return Err(IrError::DtypeMismatch { nest: ni });
                        }
                        if !self.buffers[stmt.src0.buf.0].resident {
                            return Err(IrError::GatherTableNotResident { nest: ni });
                        }
                        let idx_dt = self.buffers[stmt.src1.as_ref().expect("checked").buf.0].dtype;
                        if idx_dt != Dtype::U32 {
                            return Err(IrError::DtypeMismatch { nest: ni });
                        }
                    }
                    _ => {
                        if dst_dt != src_dt {
                            return Err(IrError::DtypeMismatch { nest: ni });
                        }
                        if let Some(s1) = &stmt.src1 {
                            if self.buffers[s1.buf.0].dtype != src_dt {
                                return Err(IrError::DtypeMismatch { nest: ni });
                            }
                        }
                    }
                }
                // resident buffers are read-only
                if self.buffers[stmt.dst.buf.0].resident {
                    return Err(IrError::ResidentWritten {
                        buf: stmt.dst.buf.0,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale_kernel() -> Kernel {
        let mut k = Kernel::new("scale");
        let inp = k.buffer("in", Dtype::F32, 1024);
        let out = k.buffer("out", Dtype::F32, 1024);
        k.nest(
            vec![1024],
            vec![VecStmt {
                op: VectorOp::MulS,
                dst: Access::row_major(out, &[1024]),
                src0: Access::row_major(inp, &[1024]),
                src1: None,
                imm: 2.0,
            }],
        );
        k
    }

    #[test]
    fn row_major_strides() {
        let a = Access::row_major(BufId(0), &[4, 8, 16]);
        assert_eq!(a.strides, vec![128, 16, 1]);
        let (lo, hi) = a.extent(&[4, 8, 16]);
        assert_eq!((lo, hi), (0, 511));
    }

    #[test]
    fn extent_with_negative_strides() {
        let a = Access {
            buf: BufId(0),
            offset: 100,
            strides: vec![-10, 1],
        };
        let (lo, hi) = a.extent(&[5, 10]);
        assert_eq!(lo, 100 - 40);
        assert_eq!(hi, 100 + 9);
    }

    #[test]
    fn valid_kernel_passes() {
        assert!(scale_kernel().validate().is_ok());
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut k = scale_kernel();
        k.nests[0].stmts[0].src0.offset = 1; // 1..=1024 leaves the buffer
        assert_eq!(k.validate(), Err(IrError::OutOfBounds { nest: 0, buf: 0 }));
    }

    #[test]
    fn src1_mismatch_detected() {
        let mut k = scale_kernel();
        k.nests[0].stmts[0].op = VectorOp::Add; // needs src1
        assert_eq!(k.validate(), Err(IrError::Src1Mismatch { nest: 0 }));
    }

    #[test]
    fn dtype_mismatch_detected() {
        let mut k = Kernel::new("bad");
        let a = k.buffer("a", Dtype::F32, 16);
        let b = k.buffer("b", Dtype::I32, 16);
        k.nest(
            vec![16],
            vec![VecStmt {
                op: VectorOp::Copy,
                dst: Access::row_major(b, &[16]),
                src0: Access::row_major(a, &[16]),
                src1: None,
                imm: 0.0,
            }],
        );
        assert_eq!(k.validate(), Err(IrError::DtypeMismatch { nest: 0 }));
    }

    #[test]
    fn cast_requires_matching_target() {
        let mut k = Kernel::new("cast");
        let a = k.buffer("a", Dtype::F32, 16);
        let b = k.buffer("b", Dtype::U8, 16);
        k.nest(
            vec![16],
            vec![VecStmt {
                op: VectorOp::Cast(Dtype::U8),
                dst: Access::row_major(b, &[16]),
                src0: Access::row_major(a, &[16]),
                src1: None,
                imm: 0.0,
            }],
        );
        assert!(k.validate().is_ok());
    }

    #[test]
    fn gather_table_must_be_resident() {
        let mut k = Kernel::new("g");
        let table = k.buffer("table", Dtype::F32, 256); // NOT resident
        let idx = k.buffer("idx", Dtype::U32, 64);
        let out = k.buffer("out", Dtype::F32, 64);
        k.nest(
            vec![64],
            vec![VecStmt {
                op: VectorOp::Gather,
                dst: Access::row_major(out, &[64]),
                src0: Access::broadcast(table, 1, 0),
                src1: Some(Access::row_major(idx, &[64])),
                imm: 0.0,
            }],
        );
        assert_eq!(
            k.validate(),
            Err(IrError::GatherTableNotResident { nest: 0 })
        );
    }

    #[test]
    fn resident_write_rejected() {
        let mut k = Kernel::new("rw");
        let t = k.resident_buffer("t", Dtype::F32, 16);
        let a = k.buffer("a", Dtype::F32, 16);
        k.nest(
            vec![16],
            vec![VecStmt {
                op: VectorOp::Copy,
                dst: Access::row_major(t, &[16]),
                src0: Access::row_major(a, &[16]),
                src1: None,
                imm: 0.0,
            }],
        );
        assert_eq!(k.validate(), Err(IrError::ResidentWritten { buf: 0 }));
    }

    #[test]
    fn scatter_rejected_by_affine_ir() {
        let mut k = Kernel::new("sc");
        let a = k.buffer("a", Dtype::F32, 16);
        let idx = k.buffer("i", Dtype::U32, 16);
        let out = k.buffer("o", Dtype::F32, 16);
        k.nest(
            vec![16],
            vec![VecStmt {
                op: VectorOp::Scatter,
                dst: Access::row_major(out, &[16]),
                src0: Access::row_major(a, &[16]),
                src1: Some(Access::row_major(idx, &[16])),
                imm: 0.0,
            }],
        );
        assert_eq!(k.validate(), Err(IrError::ScatterUnsupported { nest: 0 }));
    }
}
