//! One-time lowering of a [`LinearProgram`] into a flat, fixed-width
//! op arena the execution engines can walk by index.
//!
//! The structured [`LinOp`] form is convenient to build and analyze, but
//! executing it means re-matching an enum (and chasing the `Vec<Operand>`
//! inside every [`gpu_ir::Instr`]) once per warp per scheduler step.
//! [`decode`] pays that cost once: every op becomes a [`DecodedOp`] —
//! operand slots resolved to dense [`Slot`]s, the latency lane
//! pre-classified, branch targets and loop metadata pre-computed — so
//! the simulators' inner loops are index walks over a `Vec<DecodedOp>`.
//!
//! Two invariants make the rest of the stack simple:
//!
//! * **Positional identity**: `arena.ops[pc]` corresponds 1:1 to
//!   `source.code[pc]`. Loop targets, barrier positions, and step counts
//!   are therefore identical between the decoded engines and the legacy
//!   reference interpreters in [`crate::legacy`].
//! * **Trip independence**: the arena stores no trip counts. Loops are
//!   numbered in code order and a [`DecodedProgram`] carries its own
//!   `loop_trips` vector, so structurally identical programs that differ
//!   only in trip counts (the engine's *families*) share one arena via
//!   [`DecodedProgram::with_arena`].

use std::sync::Arc;

use gpu_ir::linear::{LinOp, LinearProgram};
use gpu_ir::types::{Operand, Special};
use gpu_ir::Op;

/// Sentinel register index meaning "none" (no destination / no counter).
pub const NO_REG: u32 = u32::MAX;

/// A pre-resolved operand: what [`Operand`] becomes once register and
/// parameter indices are flattened to plain integers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Slot {
    /// Virtual register, by index into the register file.
    Reg(u32),
    /// `f32` immediate.
    ImmF(f32),
    /// `i32` immediate.
    ImmI(i32),
    /// Thread-geometry special register.
    Special(Special),
    /// Kernel parameter, by index.
    Param(u32),
    /// Unused slot (ops with arity < 3).
    None,
}

impl From<&Operand> for Slot {
    fn from(o: &Operand) -> Self {
        match o {
            Operand::Reg(r) => Slot::Reg(r.index() as u32),
            Operand::ImmF32(v) => Slot::ImmF(*v),
            Operand::ImmI32(v) => Slot::ImmI(*v),
            Operand::Special(s) => Slot::Special(*s),
            Operand::Param(i) => Slot::Param(*i),
        }
    }
}

/// Structural kind of a decoded op — what the scheduler dispatches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecKind {
    /// Ordinary instruction.
    Instr,
    /// Thread-block barrier.
    Sync,
    /// Loop header (consumed by fast-forward, never issued).
    LoopStart,
    /// Loop back edge.
    LoopEnd,
}

/// Pre-classified latency lane of an instruction — which timing rule
/// applies, resolved at decode time instead of per step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatClass {
    /// Long-latency (off-chip) load: bandwidth queue + global latency.
    MemLd,
    /// Long-latency store: fire-and-forget, but consumes bandwidth.
    MemSt,
    /// On-chip load/store: shared latency, bank-conflict replays.
    OnChip,
    /// SFU transcendental: shared SFU issue port, SFU latency.
    Sfu,
    /// Everything else on the SP units.
    Arith,
    /// Control ops (`Sync`/loop markers); carry no latency class.
    Control,
}

fn classify(op: Op) -> LatClass {
    match op {
        Op::Ld(s) if s.is_long_latency() => LatClass::MemLd,
        Op::St(s) if s.is_long_latency() => LatClass::MemSt,
        Op::Ld(_) | Op::St(_) => LatClass::OnChip,
        op if op.is_sfu() => LatClass::Sfu,
        _ => LatClass::Arith,
    }
}

/// One dense, fixed-width decoded op. 1:1 with the source
/// [`LinOp`] at the same index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodedOp {
    /// Structural kind.
    pub kind: DecKind,
    /// Latency lane ([`LatClass::Control`] for non-instructions).
    pub lat: LatClass,
    /// The operation ([`Op::Mov`] placeholder for non-instructions).
    pub op: Op,
    /// Destination register index, or [`NO_REG`].
    pub dst: u32,
    /// Number of live entries in `srcs`.
    pub nsrc: u8,
    /// Coalescing flag (memory ops).
    pub coalesced: bool,
    /// On-chip replay degree (memory ops).
    pub replay_ways: u8,
    /// Immediate address offset (memory ops).
    pub offset: i32,
    /// Pre-resolved source operands.
    pub srcs: [Slot; 3],
    /// Register index of each source slot, or [`NO_REG`] for
    /// non-register slots — the scoreboard walk reads these instead of
    /// matching the [`Slot`] enum per operand per step.
    pub src_regs: [u32; 3],
    /// Loop id (code order) for `LoopStart`/`LoopEnd`, else [`NO_REG`].
    pub loop_id: u32,
    /// Pre-computed branch target: for `LoopStart` the zero-trip skip
    /// (`end + 1`), for `LoopEnd` the body start (`start + 1`).
    pub target: u32,
    /// Loop counter register index, or [`NO_REG`].
    pub counter: u32,
}

const NON_INSTR: DecodedOp = DecodedOp {
    kind: DecKind::Sync,
    lat: LatClass::Control,
    op: Op::Mov,
    dst: NO_REG,
    nsrc: 0,
    coalesced: true,
    replay_ways: 1,
    offset: 0,
    srcs: [Slot::None; 3],
    src_regs: [NO_REG; 3],
    loop_id: NO_REG,
    target: 0,
    counter: NO_REG,
};

/// Static metadata of one loop, indexed by loop id (code order of the
/// `LoopStart` ops).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopInfo {
    /// Code index of the `LoopStart`.
    pub start: u32,
    /// Code index of the matching `LoopEnd`.
    pub end: u32,
    /// Whether the loop sits at nesting depth zero.
    pub top_level: bool,
    /// Counter register index, or [`NO_REG`].
    pub counter: u32,
}

/// The trip-independent decoded form of one program structure. Shared
/// (behind an [`Arc`]) by every family member with the same structure.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedArena {
    /// Decoded ops, positionally identical to the source code.
    pub ops: Vec<DecodedOp>,
    /// Loop metadata by loop id.
    pub loops: Vec<LoopInfo>,
    /// Maximum loop nesting depth — the frame-stack capacity an executor
    /// needs per warp/thread.
    pub max_loop_depth: usize,
}

impl DecodedArena {
    /// Bytes of flat storage this arena occupies (reported by the
    /// engine's `decode.done` trace event).
    pub fn arena_bytes(&self) -> usize {
        self.ops.len() * std::mem::size_of::<DecodedOp>()
            + self.loops.len() * std::mem::size_of::<LoopInfo>()
    }
}

/// A program lowered for execution: a shared [`DecodedArena`] plus this
/// member's trip counts and the retained source (for exact-key
/// recomputation and for the pre-decode reference engines in
/// [`crate::legacy`], which differential tests run on it).
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedProgram {
    /// The shared structural arena.
    pub arena: Arc<DecodedArena>,
    /// Trip count per loop id.
    pub loop_trips: Vec<u32>,
    /// The source program this was decoded from.
    pub source: LinearProgram,
}

impl DecodedProgram {
    /// Decode `source`, building a fresh arena.
    pub fn new(source: LinearProgram) -> Self {
        let (arena, loop_trips) = build_arena(&source);
        Self { arena: Arc::new(arena), loop_trips, source }
    }

    /// Decode `source` against an existing `arena` from a structurally
    /// identical program (same code, trip counts aside): only the trip
    /// vector is collected, the arena is shared.
    ///
    /// # Panics
    ///
    /// Panics when `source` has a different loop count than the arena —
    /// the caller keyed the arena cache wrongly.
    pub fn with_arena(source: LinearProgram, arena: Arc<DecodedArena>) -> Self {
        let loop_trips: Vec<u32> = source
            .code
            .iter()
            .filter_map(|op| match op {
                LinOp::LoopStart { trips, .. } => Some(*trips),
                _ => None,
            })
            .collect();
        assert_eq!(
            loop_trips.len(),
            arena.loops.len(),
            "arena reuse across structurally different programs"
        );
        debug_assert_eq!(arena.ops.len(), source.code.len());
        Self { arena, loop_trips, source }
    }

    /// Number of decoded ops.
    pub fn op_count(&self) -> usize {
        self.arena.ops.len()
    }

    /// Registers in the executor's register file.
    pub fn num_vregs(&self) -> u32 {
        self.source.num_vregs
    }

    /// Shared-memory words per block.
    pub fn smem_words(&self) -> u32 {
        self.source.smem_words
    }

    /// Kernel parameter count.
    pub fn num_params(&self) -> u32 {
        self.source.num_params
    }
}

/// Decode a program, building a fresh arena. Convenience wrapper over
/// [`DecodedProgram::new`] for callers holding a reference.
pub fn decode(prog: &LinearProgram) -> DecodedProgram {
    DecodedProgram::new(prog.clone())
}

fn build_arena(prog: &LinearProgram) -> (DecodedArena, Vec<u32>) {
    let mut ops = Vec::with_capacity(prog.code.len());
    let mut loops: Vec<LoopInfo> = Vec::new();
    let mut trips: Vec<u32> = Vec::new();
    let mut stack: Vec<u32> = Vec::new();
    let mut max_depth = 0usize;
    for (ip, lin) in prog.code.iter().enumerate() {
        match lin {
            LinOp::Instr(i) => {
                let mut srcs = [Slot::None; 3];
                let mut src_regs = [NO_REG; 3];
                for (k, o) in i.srcs.iter().enumerate() {
                    srcs[k] = Slot::from(o);
                    if let Slot::Reg(r) = srcs[k] {
                        src_regs[k] = r;
                    }
                }
                ops.push(DecodedOp {
                    kind: DecKind::Instr,
                    lat: classify(i.op),
                    op: i.op,
                    dst: i.dst.map_or(NO_REG, |d| d.index() as u32),
                    nsrc: i.srcs.len() as u8,
                    coalesced: i.coalesced,
                    replay_ways: i.replay_ways,
                    offset: i.offset,
                    srcs,
                    src_regs,
                    ..NON_INSTR
                });
            }
            LinOp::Sync => ops.push(NON_INSTR),
            LinOp::LoopStart { counter, trips: t, end } => {
                let id = loops.len() as u32;
                let counter = counter.map_or(NO_REG, |c| c.index() as u32);
                loops.push(LoopInfo {
                    start: ip as u32,
                    end: *end as u32,
                    top_level: stack.is_empty(),
                    counter,
                });
                trips.push(*t);
                stack.push(id);
                max_depth = max_depth.max(stack.len());
                ops.push(DecodedOp {
                    kind: DecKind::LoopStart,
                    loop_id: id,
                    target: (*end + 1) as u32,
                    counter,
                    ..NON_INSTR
                });
            }
            LinOp::LoopEnd { start } => {
                let id = stack.pop().expect("unbalanced LoopEnd in a legalized program");
                debug_assert_eq!(loops[id as usize].start as usize, *start);
                ops.push(DecodedOp {
                    kind: DecKind::LoopEnd,
                    loop_id: id,
                    target: (*start + 1) as u32,
                    counter: loops[id as usize].counter,
                    ..NON_INSTR
                });
            }
        }
    }
    debug_assert!(stack.is_empty(), "unbalanced LoopStart in a legalized program");
    (DecodedArena { ops, loops, max_loop_depth: max_depth }, trips)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_ir::build::KernelBuilder;
    use gpu_ir::linear::linearize;

    fn nested() -> LinearProgram {
        let mut b = KernelBuilder::new("k");
        let p = b.param(0);
        let acc = b.mov(0.0f32);
        b.repeat(4, |b| {
            let v = b.ld_global(p, 8);
            b.repeat(3, |b| {
                b.fmad_acc(v, 1.0f32, acc);
            });
            b.sync();
        });
        b.st_global(p, 0, acc);
        linearize(&b.finish())
    }

    #[test]
    fn arena_is_positionally_identical_to_source() {
        let prog = nested();
        let d = DecodedProgram::new(prog.clone());
        assert_eq!(d.op_count(), prog.code.len());
        for (pc, (lin, dec)) in prog.code.iter().zip(&d.arena.ops).enumerate() {
            match lin {
                LinOp::Instr(i) => {
                    assert_eq!(dec.kind, DecKind::Instr, "pc {pc}");
                    assert_eq!(dec.op, i.op);
                    assert_eq!(dec.nsrc as usize, i.srcs.len());
                    assert_eq!(dec.offset, i.offset);
                }
                LinOp::Sync => assert_eq!(dec.kind, DecKind::Sync, "pc {pc}"),
                LinOp::LoopStart { end, .. } => {
                    assert_eq!(dec.kind, DecKind::LoopStart, "pc {pc}");
                    assert_eq!(dec.target as usize, end + 1);
                }
                LinOp::LoopEnd { start } => {
                    assert_eq!(dec.kind, DecKind::LoopEnd, "pc {pc}");
                    assert_eq!(dec.target as usize, start + 1);
                }
            }
        }
    }

    #[test]
    fn loops_are_numbered_in_code_order_with_trips_lifted() {
        let d = DecodedProgram::new(nested());
        assert_eq!(d.loop_trips, vec![4, 3]);
        assert_eq!(d.arena.loops.len(), 2);
        assert!(d.arena.loops[0].top_level);
        assert!(!d.arena.loops[1].top_level);
        assert_eq!(d.arena.max_loop_depth, 2);
        // Loop latency classes resolved once.
        let classes: Vec<LatClass> =
            d.arena.ops.iter().filter(|o| o.kind == DecKind::Instr).map(|o| o.lat).collect();
        assert!(classes.contains(&LatClass::MemLd));
        assert!(classes.contains(&LatClass::MemSt));
        assert!(classes.contains(&LatClass::Arith));
    }

    #[test]
    fn family_members_share_one_arena() {
        let mut long = KernelBuilder::new("k");
        let acc = long.mov(0.0f32);
        long.repeat(9, |b| {
            b.fmad_acc(1.0f32, 1.0f32, acc);
        });
        let p = long.param(0);
        long.st_global(p, 0, acc);
        let long = linearize(&long.finish());

        let mut short = KernelBuilder::new("k");
        let acc = short.mov(0.0f32);
        short.repeat(2, |b| {
            b.fmad_acc(1.0f32, 1.0f32, acc);
        });
        let p = short.param(0);
        short.st_global(p, 0, acc);
        let short = linearize(&short.finish());

        let a = DecodedProgram::new(long);
        let b = DecodedProgram::with_arena(short, a.arena.clone());
        assert!(Arc::ptr_eq(&a.arena, &b.arena));
        assert_eq!(a.loop_trips, vec![9]);
        assert_eq!(b.loop_trips, vec![2]);
    }

    #[test]
    fn arena_bytes_reflect_flat_storage() {
        let d = DecodedProgram::new(nested());
        let want =
            d.op_count() * std::mem::size_of::<DecodedOp>() + 2 * std::mem::size_of::<LoopInfo>();
        assert_eq!(d.arena.arena_bytes(), want);
        assert!(d.arena.arena_bytes() > 0);
    }
}
