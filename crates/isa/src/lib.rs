#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! PTX-subset SIMT instruction set, kernel IR, builder DSL and parser.
//!
//! GPGPU-Sim models tensor cores at the PTX virtual-ISA level (§V-A of the
//! paper): the three `wmma.{load,mma,store}` instructions introduced in PTX
//! 6.0 (Fig 2) are executed functionally as whole warp-wide operations with
//! an attached timing model. This crate defines the equivalent instruction
//! set for the Rust reproduction:
//!
//! * scalar integer / FP32 / FP64 / packed-FP16 ALU operations, predicates
//!   and comparisons, conversions;
//! * typed loads/stores over global/shared/param/local address spaces,
//!   including the 64/128-bit vector widths that `wmma.load` decomposes
//!   into at the SASS level (`LD.E.64`, `LD.E.128`, §III-C);
//! * warp barriers, branches with explicit reconvergence points (SIMT
//!   stack), `EXIT`, and a `CS2R SR_CLOCKLO`-style clock read used by the
//!   latency microbenchmarks (Fig 6);
//! * the three WMMA instructions with their layout/shape/type qualifiers.
//!
//! Kernels are built programmatically with [`KernelBuilder`] (the route the
//! CUTLASS-like library uses) or parsed from a PTX-flavoured text format
//! with [`ptx::parse_program`].
//!
//! # Example
//!
//! ```
//! use tcsim_isa::{KernelBuilder, Operand, SpecialReg};
//!
//! let mut b = KernelBuilder::new("saxpy_like");
//! let tid = b.reg();
//! b.mov(tid, Operand::Special(SpecialReg::TidX));
//! let r = b.reg();
//! b.iadd(r, tid, Operand::Imm(1));
//! b.exit();
//! let kernel = b.build();
//! assert_eq!(kernel.name(), "saxpy_like");
//! assert_eq!(kernel.instrs().len(), 3);
//! ```

pub mod emit;
pub mod exec;
mod instr;
mod kernel;
mod occupancy;
pub mod ptx;
mod traits;
mod types;
mod uop;
mod wmma;

pub use instr::{AtomOp, CmpOp, Instr, Op, Operand, PredReg, Reg, ShflMode, UnitClass};
pub use kernel::{Kernel, KernelBuilder, Label, ParamDesc, Program};
pub use occupancy::{CtaRequirements, Limiter, SmResources};
pub use traits::{ByteMemory, Row, VecMemory, WarpRegFile, WarpRegisters};
pub use types::{DataType, Dim3, LaunchConfig, MemSpace, MemWidth, SpecialReg};
pub use uop::{Uop, UopStream};
pub use wmma::{
    fragment_elements, fragment_regs, mma_sync_a_shape, FragmentKind, Layout, TensorGen,
    WmmaDirective, WmmaShape, WmmaType, WARP_SIZE,
};
