//! Strength reduction of strided address updates.
//!
//! After unrolling, a loop body contains `f` copies of `index += stride`
//! with loads between them. The G80's `[reg + imm]` addressing makes all
//! but one of those adds redundant: fold the running stride into the
//! load/store offsets and keep a single `index += f * stride` at the end
//! of the body. Section 2.3 of the paper observes exactly this in nvcc's
//! PTX output: "the group of memory operations only need the single base
//! address calculation and use their constant offsets".

use gpu_ir::types::{Operand, VReg};
use gpu_ir::{Instr, Kernel, Op, Stmt};

use crate::RegTable;

/// Does this instruction have the accumulate shape `IAdd r, r, imm`?
fn accumulate_of(i: &Instr) -> Option<(VReg, i32)> {
    if i.op != Op::IAdd {
        return None;
    }
    let dst = i.dst?;
    match (&i.srcs[0], &i.srcs[1]) {
        (Operand::Reg(a), Operand::ImmI32(k)) if *a == dst => Some((dst, *k)),
        _ => None,
    }
}

/// Is `reg` the address operand (and nothing else) of this memory op?
fn only_address_use(i: &Instr, reg: VReg) -> bool {
    if i.op.mem_space().is_none() {
        return false;
    }
    let addr_is_reg = i.srcs[0].reg() == Some(reg);
    let other_uses = i.srcs[1..].iter().any(|s| s.reg() == Some(reg));
    addr_is_reg && !other_uses && i.dst != Some(reg)
}

// Per-register folding state within one body.
/// Not yet seen in an accumulate or a disqualifying role.
const UNSEEN: u8 = 0;
/// Accumulated, and every other appearance so far is an address use.
const FOLDABLE: u8 = 1;
/// Touched in a role folding cannot rewrite.
const BLOCKED: u8 = 2;

/// Per-body tables, allocated once per kernel and reused across bodies.
struct Tables {
    /// `UNSEEN`/`FOLDABLE`/`BLOCKED` for each register.
    state: RegTable<u8>,
    /// Running stride of each eligible register at the current
    /// statement; zero outside the body being folded.
    delta: RegTable<i64>,
    /// The body's eligible registers, in ascending order.
    touched: Vec<VReg>,
}

impl Tables {
    fn block(&mut self, r: VReg) {
        *self.state.get_mut(r) = BLOCKED;
    }

    fn eligible(&self, r: VReg) -> bool {
        self.state.get(r) == FOLDABLE
    }
}

/// Any register mentioned inside a nested loop is disqualified.
fn block_mentions(stmts: &[Stmt], t: &mut Tables) {
    for s in stmts {
        match s {
            Stmt::Op(i) => {
                if let Some(d) = i.dst {
                    t.block(d);
                }
                for r in i.uses() {
                    t.block(r);
                }
            }
            Stmt::Sync => {}
            Stmt::Loop(l) => {
                if let Some(c) = l.counter {
                    t.block(c);
                }
                block_mentions(&l.body, t);
            }
        }
    }
}

/// Mark the registers eligible for folding within one body: every write
/// is an accumulate and every other appearance is a memory-address use
/// at the top level of this body. Collects them, sorted, in `touched`
/// and returns whether there are any.
fn mark_eligible(body: &[Stmt], t: &mut Tables) -> bool {
    t.state.clear();
    t.touched.clear();
    for s in body {
        match s {
            Stmt::Op(i) => {
                if let Some((r, _)) = accumulate_of(i) {
                    let state = t.state.get_mut(r);
                    if *state == UNSEEN {
                        *state = FOLDABLE;
                        t.touched.push(r);
                    }
                    continue;
                }
                // Non-accumulate statement: every register it touches in
                // a non-address role is disqualified.
                for r in i.uses() {
                    if !only_address_use(i, r) {
                        t.block(r);
                    }
                }
                if let Some(d) = i.dst {
                    t.block(d);
                }
            }
            Stmt::Sync => {}
            Stmt::Loop(l) => {
                if let Some(c) = l.counter {
                    t.block(c);
                }
                block_mentions(&l.body, t);
            }
        }
    }
    let Tables { state, touched, .. } = t;
    touched.retain(|&r| state.get(r) == FOLDABLE);
    touched.sort_unstable();
    !touched.is_empty()
}

/// Fold one body in place; returns the number of deleted instructions.
fn fold_body(body: &mut Vec<Stmt>, t: &mut Tables) -> u32 {
    // Recurse into nested loops first.
    let mut removed = 0;
    for s in body.iter_mut() {
        if let Stmt::Loop(l) = s {
            removed += fold_body(&mut l.body, t);
        }
    }

    if !mark_eligible(body, t) {
        return removed;
    }

    // Drop eligible accumulates, folding the running stride into the
    // offsets of the memory ops that follow them.
    body.retain_mut(|s| {
        let Stmt::Op(i) = s else { return true };
        if let Some((r, k)) = accumulate_of(i) {
            if t.eligible(r) {
                *t.delta.get_mut(r) += i64::from(k);
                removed += 1;
                return false;
            }
        }
        if i.op.mem_space().is_some() {
            if let Some(r) = i.srcs[0].reg() {
                if t.eligible(r) {
                    i.offset = (i64::from(i.offset) + t.delta.get(r)) as i32;
                }
            }
        }
        true
    });
    // Materialise each register's total stride once, at body end, in
    // register order: the order of these adds cascades into different
    // spill choices downstream, so it must not depend on where in the
    // body each register first accumulated.
    for r in t.touched.drain(..) {
        let d = std::mem::take(t.delta.get_mut(r));
        if d != 0 {
            body.push(Stmt::Op(Instr::new(
                Op::IAdd,
                Some(r),
                [r.into(), Operand::ImmI32(d as i32)],
            )));
            removed -= 1;
        }
    }
    removed
}

/// Fold strided address updates in every loop body of `kernel`.
///
/// Returns the net number of instructions removed. Statements outside
/// loops are untouched (there is nothing repeated to fold).
pub fn fold_strided_addresses(kernel: &mut Kernel) -> u32 {
    let mut tables = Tables {
        state: RegTable::new(kernel.num_vregs),
        delta: RegTable::new(kernel.num_vregs),
        touched: Vec::new(),
    };
    let mut removed = 0;
    for s in kernel.body.iter_mut() {
        if let Stmt::Loop(l) = s {
            removed += fold_body(&mut l.body, &mut tables);
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loops::find_loops;
    use crate::unroll::unroll;
    use gpu_ir::analysis::dynamic_counts;
    use gpu_ir::build::KernelBuilder;
    use gpu_ir::linear::linearize;
    use gpu_ir::{Dim, Launch};
    use gpu_sim::interp::{run_kernel, DeviceMemory};

    /// Strided copy: out[i] = in[i] for 16 words using pointer bumps.
    fn strided_copy() -> Kernel {
        let mut b = KernelBuilder::new("copy");
        let src = b.param(0);
        let dst = b.param(1);
        let ps = b.mov(src);
        let pd = b.mov(dst);
        b.repeat(16, |b| {
            let v = b.ld_global(ps, 0);
            b.st_global(pd, 0, v);
            b.iadd_acc(ps, 1i32);
            b.iadd_acc(pd, 1i32);
        });
        b.finish()
    }

    fn run_copy(k: &Kernel) -> Vec<f32> {
        let prog = linearize(k);
        let mut mem = DeviceMemory::new(32);
        for i in 0..16 {
            mem.global[i] = (i * 3) as f32;
        }
        run_kernel(&prog, &Launch::new(Dim::new_1d(1), Dim::new_1d(1)), &[0, 16], &mut mem)
            .unwrap();
        mem.global[16..].to_vec()
    }

    #[test]
    fn fold_alone_is_identity_on_single_accumulates() {
        // One accumulate per register per iteration: fold removes it and
        // reinserts an identical one — net zero, semantics identical.
        let baseline = run_copy(&strided_copy());
        let mut k = strided_copy();
        let removed = fold_strided_addresses(&mut k);
        assert_eq!(removed, 0);
        assert_eq!(run_copy(&k), baseline);
    }

    #[test]
    fn unroll_then_fold_collapses_address_arithmetic() {
        let baseline = run_copy(&strided_copy());

        let mut k = strided_copy();
        let id = find_loops(&k).remove(0);
        unroll(&mut k, &id, 4).unwrap();
        let before = dynamic_counts(&k).instrs;
        let removed = fold_strided_addresses(&mut k);
        let after = dynamic_counts(&k).instrs;

        // 4 copies × 2 accumulates collapse to 2: 6 removed per
        // iteration, 4 iterations = static 6, dynamic 24.
        assert_eq!(removed, 6);
        assert_eq!(before - after, 24);
        assert_eq!(run_copy(&k), baseline);

        // The folded loads carry constant offsets 0..3.
        let l = crate::loops::get_loop(&k, &id).unwrap();
        let offsets: Vec<i32> = l
            .body
            .iter()
            .filter_map(|s| s.as_instr())
            .filter(|i| matches!(i.op, Op::Ld(_)))
            .map(|i| i.offset)
            .collect();
        assert_eq!(offsets, vec![0, 1, 2, 3]);
    }

    #[test]
    fn complete_unroll_then_fold_deletes_all_updates() {
        let baseline = run_copy(&strided_copy());
        let mut k = strided_copy();
        let id = find_loops(&k).remove(0);
        unroll(&mut k, &id, 16).unwrap();
        // Completely unrolled code sits at kernel top level, not in a
        // loop: folding applies to loop bodies only, so the result must
        // still be correct and untouched.
        let removed = fold_strided_addresses(&mut k);
        assert_eq!(removed, 0);
        assert_eq!(run_copy(&k), baseline);
    }

    #[test]
    fn register_used_arithmetically_is_not_folded() {
        // The pointer is also an operand of an imul: folding must leave
        // its accumulates alone.
        let mut b = KernelBuilder::new("mixed");
        let dst = b.param(0);
        let p = b.mov(dst);
        let acc = b.mov(0.0f32);
        b.repeat(4, |b| {
            let v = b.ld_global(p, 0);
            b.fmad_acc(v, 1.0f32, acc);
            let scaled = b.imul(p, 2i32); // non-address use
            let f = b.i2f(scaled);
            b.fmad_acc(f, 0.0f32, acc);
            b.iadd_acc(p, 1i32);
        });
        b.st_global(dst, 0, acc);
        let mut k = b.finish();
        let before = k.clone();
        let removed = fold_strided_addresses(&mut k);
        assert_eq!(removed, 0);
        assert_eq!(k, before);
    }

    #[test]
    fn register_touched_in_nested_loop_is_not_folded() {
        let mut b = KernelBuilder::new("nested");
        let dst = b.param(0);
        let p = b.mov(dst);
        b.repeat(4, |b| {
            b.iadd_acc(p, 1i32);
            b.repeat(2, |b| {
                b.ld_global(p, 0);
            });
        });
        let mut k = b.finish();
        let before = k.clone();
        fold_strided_addresses(&mut k);
        assert_eq!(k, before);
    }

    #[test]
    fn fold_handles_interleaved_strides() {
        // load; p += 2; load; p += 3 → offsets 0 and 2, one p += 5.
        let mut b = KernelBuilder::new("interleave");
        let src = b.param(0);
        let acc = b.mov(0.0f32);
        let p = b.mov(src);
        b.repeat(3, |b| {
            let a = b.ld_global(p, 0);
            b.fmad_acc(a, 1.0f32, acc);
            b.iadd_acc(p, 2i32);
            let c = b.ld_global(p, 0);
            b.fmad_acc(c, 1.0f32, acc);
            b.iadd_acc(p, 3i32);
        });
        let out = b.param(1);
        b.st_global(out, 0, acc);
        let k0 = b.finish();

        let run = |k: &Kernel| {
            let prog = linearize(k);
            let mut mem = DeviceMemory::new(20);
            for i in 0..16 {
                mem.global[i] = (i + 1) as f32;
            }
            run_kernel(&prog, &Launch::new(Dim::new_1d(1), Dim::new_1d(1)), &[0, 16], &mut mem)
                .unwrap();
            mem.global[16]
        };

        let baseline = run(&k0);
        let mut k = k0.clone();
        let removed = fold_strided_addresses(&mut k);
        assert_eq!(removed, 1); // two accumulates -> one
        assert_eq!(run(&k), baseline);
    }

    #[test]
    fn materialised_accumulates_come_out_in_register_order() {
        // The higher register `q` accumulates first in the body; the
        // folded adds still come out as `p` then `q`.
        let mut b = KernelBuilder::new("order");
        let src = b.param(0);
        let p = b.mov(src);
        let q = b.iadd(src, 64i32);
        let acc = b.mov(0.0f32);
        b.repeat(4, |b| {
            let x = b.ld_global(q, 0);
            b.fmad_acc(x, 1.0f32, acc);
            b.iadd_acc(q, 3i32);
            let y = b.ld_global(p, 0);
            b.fmad_acc(y, 1.0f32, acc);
            b.iadd_acc(q, 1i32);
            b.iadd_acc(p, 2i32);
        });
        b.st_global(src, 0, acc);
        let mut k = b.finish();
        assert!(p < q);
        let id = find_loops(&k).remove(0);
        unroll(&mut k, &id, 2).unwrap();
        fold_strided_addresses(&mut k);

        let l = crate::loops::get_loop(&k, &id).unwrap();
        let adds: Vec<(VReg, Operand)> = l
            .body
            .iter()
            .filter_map(|s| s.as_instr())
            .filter(|i| i.op == Op::IAdd)
            .map(|i| (i.dst.unwrap(), i.srcs[1]))
            .collect();
        assert_eq!(adds, vec![(p, Operand::ImmI32(4)), (q, Operand::ImmI32(8))]);
        let tail: Vec<_> = l.body[l.body.len() - 2..].iter().map(|s| s.as_instr()).collect();
        assert!(tail.iter().all(|i| i.is_some_and(|i| i.op == Op::IAdd)), "{tail:?}");
    }
}
