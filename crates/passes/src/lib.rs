//! Optimization transformations over the kernel IR.
//!
//! Section 3.1 of the paper groups the optimizations it explores into
//! five categories; the mechanical ones — the ones a compiler applies to
//! code rather than a programmer applies to an algorithm — live here:
//!
//! * [`mod@unroll`] — loop unrolling, partial and complete, with
//!   constant-substituted counters (the "instruction count reduction"
//!   category; Figure 2(c)).
//! * [`fold`] — strength reduction of strided address updates after
//!   unrolling: "PTX shows that the group of memory operations only
//!   need the single base address calculation and use their constant
//!   offsets to avoid additional address calculations" (section 2.3).
//! * [`prefetch`] — hoisting global loads one iteration ahead into an
//!   "additional local variable (register)" (the "intra-thread
//!   parallelism" category; Figure 2(d)).
//! * [`spill`] — proactive, explicit register spilling to local memory
//!   (the "resource balancing" category; section 3.1).
//! * [`schedule`] — pressure-aware list scheduling of straight-line
//!   regions, the paper's §7 future-work item ("better control of
//!   scheduling and thus register usage").
//! * [`constfold`] — constant folding, immediate propagation, and dead
//!   code elimination: the clean-up that makes complete unrolling's
//!   constant indices actually cheaper.
//!
//! Work *redistribution* (tiling shape, per-thread tiling, work per
//! kernel invocation) changes the algorithmic decomposition, so those
//! knobs live in the kernel generators of `gpu-kernels`, as they do in
//! the paper's hand-written variants.
//!
//! Every pass preserves functional semantics; the test suites execute
//! transformed kernels against untransformed ones on the `gpu-sim`
//! interpreter.

pub mod constfold;
pub mod error;
pub mod fold;
pub mod loops;
pub mod prefetch;
pub mod schedule;
pub mod spill;
pub mod unroll;

pub use constfold::{fold_constants, FoldReport};
pub use error::PassError;
pub use fold::fold_strided_addresses;
pub use loops::{find_loops, innermost_loops, LoopId};
pub use prefetch::prefetch_global_loads;
pub use schedule::{schedule_for_pressure, ScheduleReport};
pub use spill::{spill_candidates, spill_registers};
pub use unroll::{effective_unroll, unroll, unroll_with_remainder};

/// Allocate a fresh virtual register on a finished kernel (passes need
/// new temporaries after the builder is gone).
pub(crate) fn fresh_reg(kernel: &mut gpu_ir::Kernel) -> gpu_ir::types::VReg {
    let r = gpu_ir::types::VReg(kernel.num_vregs);
    kernel.num_vregs += 1;
    r
}

/// Per-register pass state in a dense table indexed by
/// [`VReg::index`](gpu_ir::types::VReg::index), sized by the kernel's
/// register count: passes touch it once or more per op, so it must not
/// hash. Entries read as `T::default()` until written; a write past the
/// end grows the table.
#[derive(Clone)]
pub(crate) struct RegTable<T>(Vec<T>);

impl<T: Copy + Default> RegTable<T> {
    pub(crate) fn new(num_vregs: u32) -> Self {
        Self(vec![T::default(); num_vregs as usize])
    }

    pub(crate) fn get(&self, r: gpu_ir::types::VReg) -> T {
        self.0.get(r.index()).copied().unwrap_or_default()
    }

    pub(crate) fn get_mut(&mut self, r: gpu_ir::types::VReg) -> &mut T {
        if r.index() >= self.0.len() {
            self.0.resize(r.index() + 1, T::default());
        }
        &mut self.0[r.index()]
    }

    /// Reset every entry to `T::default()`, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.0.fill(T::default());
    }

    /// Every entry with its register, in register order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (gpu_ir::types::VReg, T)> + '_ {
        self.0.iter().enumerate().map(|(i, &v)| (gpu_ir::types::VReg(i as u32), v))
    }
}

pub(crate) mod schedule_support {
    /// Max-live figure used by the scheduler's keep-if-better guard.
    pub fn pressure_of(kernel: &gpu_ir::Kernel) -> u32 {
        gpu_ir::analysis::register_pressure(kernel).max_live
    }
}
