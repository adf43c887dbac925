//! A PTX-like kernel intermediate representation.
//!
//! The paper's methodology never touches real hardware state: everything
//! its metrics consume comes from `nvcc -ptx` (an instruction-level view
//! of the kernel) and `nvcc -cubin` (register and shared-memory usage).
//! This crate is that PTX level, built from scratch:
//!
//! * [`instr`] / [`types`] — a typed, virtual-register instruction set
//!   covering the G80's FP/integer/SFU arithmetic, the five memory spaces
//!   of Table 1, predicates and selects.
//! * [`kernel`] — structured kernel bodies: straight-line instruction
//!   sequences, counted loops (with the trip-count annotations the paper
//!   adds by hand), and barrier statements.
//! * [`build`] — an ergonomic builder used by the kernel generators.
//! * [`analysis`] — the static analyses behind the paper's metrics:
//!   dynamic instruction count `Instr`, blocking-delimited `Regions`
//!   (section 4), instruction mix and global-traffic estimates for the
//!   bandwidth-boundedness screen, and a linear-scan register-pressure
//!   model standing in for the CUDA runtime's register allocator.
//! * [`linear`] — flattening into a branch-explicit program consumed by
//!   the functional interpreter and the timing simulator in `gpu-sim`.
//! * [`mod@print`] — a developer-readable "-ptx" style pretty printer.
//! * [`text`] — a round-trippable textual kernel format with a parser,
//!   so kernels can be hand-written or stored as fixtures.
//! * [`verify`] — static well-formedness checking (use-before-def,
//!   read-only stores, static shared-memory bounds, counter clobbers).
//!
//! # Examples
//!
//! Build a trivial SAXPY-style kernel and inspect its static profile:
//!
//! ```
//! use gpu_ir::build::KernelBuilder;
//! use gpu_ir::types::Special;
//! use gpu_ir::analysis::dynamic_counts;
//!
//! let mut b = KernelBuilder::new("saxpy");
//! let x_base = b.param(0);
//! let y_base = b.param(1);
//! let tid = b.read_special(Special::TidX);
//! let xi = b.iadd(x_base, tid);
//! let yi = b.iadd(y_base, tid);
//! let x = b.ld_global(xi, 0);
//! let y = b.ld_global(yi, 0);
//! let ax = b.fmul_imm(x, 2.0);
//! let r = b.fadd(ax, y);
//! b.st_global(yi, 0, r);
//! let kernel = b.finish();
//!
//! let counts = dynamic_counts(&kernel);
//! assert_eq!(counts.regions(), 2); // one load pair + the final store
//! ```

pub mod analysis;
pub mod build;
pub mod instr;
pub mod kernel;
pub mod linear;
pub mod print;
pub mod text;
pub mod types;
pub mod verify;

pub use build::KernelBuilder;
pub use instr::{Instr, Op, Srcs, MAX_SRCS};
pub use kernel::{Dim, Kernel, Launch, Loop, Stmt};
pub use types::{Operand, Special, VReg};

/// Dynamic instructions charged per loop iteration for loop control
/// (induction increment, predicate set, branch), mirroring the
/// `add.s32 / setp / bra` triple nvcc emits for a counted loop.
///
/// The instruction-count analysis, the linearizer, and the timing
/// simulator all share this constant so the static metrics and the
/// simulated machine agree on what a loop costs.
pub const LOOP_OVERHEAD_INSTRS: u32 = 3;
