//! Content-addressed keys for the timing-simulation memo cache, the
//! persistent result store, and checkpoint replay.
//!
//! A simulation's result is a pure function of the linearized program,
//! the launch geometry, the per-thread resource usage, and the machine
//! spec — and of nothing else. (The invocation count deliberately stays
//! *out* of the key: it scales a cached per-invocation report
//! arithmetically, so work-per-invocation variants share one entry.)
//!
//! Two keys per input:
//!
//! * [`exact_key`] — hash of everything above. Equal keys ⇒ identical
//!   simulation, the report is reused outright.
//! * [`class_key`] — the same hash with every **top-level** loop's trip
//!   count masked out, plus the masked trip counts as data. Inputs that
//!   agree on the class hash but differ in top-level trip counts form a
//!   *family* that `gpu_sim::timing::simulate_family` evaluates in a
//!   single forked run (the MRI-FHD invocation clusters of Figure 6(b));
//!   any number of top-level axes may vary across the members.
//!
//! # Encoding
//!
//! A key hashes a canonical binary encoding of the input: a sequence of
//! `u64` words — the spec, the launch, the usage, the program header,
//! then each op in code order — where every field sits at a fixed width
//! and position.
//!
//! * Every enum tag (op kind, opcode, operand kind, memory space,
//!   special register) has an explicit code in this file, so reordering
//!   a declaration elsewhere cannot move a key.
//! * `LinOp`, `Instr`, `Operand`, `Launch`, `ResourceUsage` and
//!   `MachineSpec` are destructured exhaustively: a new field fails to
//!   compile here until the encoding covers it.
//! * Floats are encoded with `to_bits`: `0.0` and `-0.0`, and NaNs with
//!   different payloads, all get distinct keys; equal bit patterns agree.
//!
//! The class hash covers the encoding with each top-level trip count
//! replaced by a sentinel word; the exact key continues that same hash
//! over the masked trip counts, so one walk yields both. The spec words
//! come first, so a caller keying many programs for one machine hashes
//! them once ([`SpecSeed`]) and derives every key from that prefix
//! ([`keys`]).
//!
//! The hash is `KeyHasher`, specified below — not std's
//! `DefaultHasher`, whose algorithm may change between Rust releases —
//! so keys are stable across toolchains and platforms, which the
//! durable result store and checkpoints depend on. Changing the
//! encoding or the hash changes every key: bump the store's record
//! version and [`CHECKPOINT_SCHEMA`](super::checkpoint::CHECKPOINT_SCHEMA)
//! with it. The golden test below pins the current keys.

use gpu_arch::{MachineSpec, MemorySpace, ResourceUsage};
use gpu_ir::instr::{Instr, Op};
use gpu_ir::linear::{LinOp, LinearProgram};
use gpu_ir::{Dim, Launch, Operand, Special};

/// Class identity of a simulation input: the structural hash with
/// top-level trip counts masked, and those trip counts as a vector (in
/// code order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassKey {
    /// Hash of the trip-count-masked structure.
    pub hash: u64,
    /// The masked top-level trip counts, in code order.
    pub top_trips: Vec<u32>,
}

impl ClassKey {
    /// Whether `self` and `other` agree on the trip-masked structure —
    /// the shape `simulate_family` can fork. Members may differ in any
    /// number of top-level trip counts: the forked run varies every
    /// differing axis. (Same hash and same trips means exact duplicates,
    /// which also qualifies.)
    pub fn family_compatible(&self, other: &Self) -> bool {
        self.hash == other.hash && self.top_trips.len() == other.top_trips.len()
    }
}

/// The key hash. Each word is folded into the state by a 64×64→128-bit
/// multiply whose two halves are XORed (wyhash's multiply-fold), and
/// [`finish`](Self::finish) applies the MurmurHash3 64-bit finalizer:
/// one multiply per encoded field.
#[derive(Debug, Clone, Copy)]
struct KeyHasher(u64);

impl KeyHasher {
    /// Initial state: the first 64 fractional bits of π.
    const SEED: u64 = 0x243f_6a88_85a3_08d3;
    const K0: u64 = 0xa076_1d64_78bd_642f;
    const K1: u64 = 0xe703_7ed1_a0b4_28db;

    fn new() -> Self {
        Self(Self::SEED)
    }

    fn word(&mut self, w: u64) {
        let p = u128::from(self.0 ^ w ^ Self::K0) * u128::from(Self::K1);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    fn words(&mut self, ws: &[u64]) {
        for &w in ws {
            self.word(w);
        }
    }

    fn finish(self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        z = (z ^ (z >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        z ^ (z >> 33)
    }
}

/// Op-kind tags (the low byte of an op's first word).
const TAG_INSTR: u64 = 1;
const TAG_SYNC: u64 = 2;
const TAG_LOOP_START: u64 = 3;
const TAG_LOOP_END: u64 = 4;

/// Stands in for a masked top-level trip count; no `u32` trip equals it.
const TRIPS_MASKED: u64 = u64::MAX;

fn opcode(op: Op) -> u64 {
    match op {
        Op::FAdd => 1,
        Op::FSub => 2,
        Op::FMul => 3,
        Op::FMad => 4,
        Op::FMin => 5,
        Op::FMax => 6,
        Op::FNeg => 7,
        Op::FAbs => 8,
        Op::Rcp => 9,
        Op::Rsqrt => 10,
        Op::Sqrt => 11,
        Op::Sin => 12,
        Op::Cos => 13,
        Op::Ex2 => 14,
        Op::IAdd => 15,
        Op::ISub => 16,
        Op::IMul => 17,
        Op::IMad => 18,
        Op::IDiv => 19,
        Op::IRem => 20,
        Op::Shl => 21,
        Op::Shr => 22,
        Op::And => 23,
        Op::Or => 24,
        Op::Xor => 25,
        Op::IMin => 26,
        Op::IMax => 27,
        Op::Mov => 28,
        Op::F2I => 29,
        Op::I2F => 30,
        Op::SetLt => 31,
        Op::SetLe => 32,
        Op::SetEq => 33,
        Op::SetNe => 34,
        Op::Selp => 35,
        Op::Ld(space) => 36 | memory_space(space) << 8,
        Op::St(space) => 37 | memory_space(space) << 8,
    }
}

fn memory_space(space: MemorySpace) -> u64 {
    match space {
        MemorySpace::Global => 1,
        MemorySpace::Shared => 2,
        MemorySpace::Constant => 3,
        MemorySpace::Texture => 4,
        MemorySpace::Local => 5,
    }
}

fn special(s: Special) -> u32 {
    match s {
        Special::TidX => 1,
        Special::TidY => 2,
        Special::CtaIdX => 3,
        Special::CtaIdY => 4,
        Special::NTidX => 5,
        Special::NTidY => 6,
        Special::NCtaIdX => 7,
        Special::NCtaIdY => 8,
    }
}

/// One operand word: kind code in the high half, payload in the low.
fn operand(o: Operand) -> u64 {
    let (kind, payload): (u64, u32) = match o {
        Operand::Reg(r) => (1, r.0),
        Operand::ImmF32(v) => (2, v.to_bits()),
        Operand::ImmI32(v) => (3, v as u32),
        Operand::Special(s) => (4, special(s)),
        Operand::Param(i) => (5, i),
    };
    kind << 32 | u64::from(payload)
}

fn instr(h: &mut KeyHasher, i: &Instr) {
    let Instr { op, dst, srcs, offset, coalesced, replay_ways } = i;
    h.word(
        TAG_INSTR
            | opcode(*op) << 8
            | u64::from(dst.is_some()) << 24
            | u64::from(*coalesced) << 25
            | u64::from(*replay_ways) << 32
            | (srcs.len() as u64) << 40,
    );
    h.word(u64::from(dst.map_or(0, |d| d.0)) | u64::from(*offset as u32) << 32);
    for &s in srcs {
        h.word(operand(s));
    }
}

/// The machine-spec prefix every key starts from. Hash it once per
/// batch of keys and derive each program's keys from it with [`keys`].
#[derive(Debug, Clone, Copy)]
pub struct SpecSeed(KeyHasher);

impl SpecSeed {
    /// Hash `spec`'s fields, in declaration order.
    pub fn new(spec: &MachineSpec) -> Self {
        let MachineSpec {
            num_sms,
            sps_per_sm,
            sfus_per_sm,
            clock_hz,
            warp_size,
            issue_cycles_per_warp,
            max_threads_per_sm,
            max_blocks_per_sm,
            registers_per_sm,
            shared_mem_per_sm,
            max_threads_per_block,
            global_bandwidth_bytes_per_sec,
            global_latency_min,
            global_latency_max,
            arith_latency,
            sfu_latency,
            sfu_issue_cycles,
            shared_latency,
            constant_latency,
            coalesced_transaction_bytes,
            uncoalesced_transaction_bytes,
        } = spec;
        let mut h = KeyHasher::new();
        h.words(&[
            u64::from(*num_sms),
            u64::from(*sps_per_sm),
            u64::from(*sfus_per_sm),
            clock_hz.to_bits(),
            u64::from(*warp_size),
            u64::from(*issue_cycles_per_warp),
            u64::from(*max_threads_per_sm),
            u64::from(*max_blocks_per_sm),
            u64::from(*registers_per_sm),
            u64::from(*shared_mem_per_sm),
            u64::from(*max_threads_per_block),
            global_bandwidth_bytes_per_sec.to_bits(),
            u64::from(*global_latency_min),
            u64::from(*global_latency_max),
            u64::from(*arith_latency),
            u64::from(*sfu_latency),
            u64::from(*sfu_issue_cycles),
            u64::from(*shared_latency),
            u64::from(*constant_latency),
            u64::from(*coalesced_transaction_bytes),
            u64::from(*uncoalesced_transaction_bytes),
        ]);
        Self(h)
    }
}

/// Both keys of one simulation input, from a single walk of its
/// encoding: `(exact key, class key)`.
pub fn keys(
    seed: &SpecSeed,
    prog: &LinearProgram,
    launch: &Launch,
    usage: &ResourceUsage,
) -> (u64, ClassKey) {
    let mut h = seed.0;
    let Launch { grid: Dim { x: gx, y: gy }, block: Dim { x: bx, y: by } } = launch;
    let ResourceUsage { threads_per_block, regs_per_thread, smem_per_block } = usage;
    let LinearProgram { code, num_vregs, smem_words, num_params } = prog;
    h.words(&[
        u64::from(*gx),
        u64::from(*gy),
        u64::from(*bx),
        u64::from(*by),
        u64::from(*threads_per_block),
        u64::from(*regs_per_thread),
        u64::from(*smem_per_block),
        u64::from(*num_vregs),
        u64::from(*smem_words),
        u64::from(*num_params),
        code.len() as u64,
    ]);
    let mut top_trips = Vec::new();
    let mut depth = 0usize;
    for op in code {
        match op {
            LinOp::Instr(i) => instr(&mut h, i),
            LinOp::Sync => h.word(TAG_SYNC),
            LinOp::LoopStart { counter, trips, end } => {
                let trips_word = if depth == 0 {
                    top_trips.push(*trips);
                    TRIPS_MASKED
                } else {
                    u64::from(*trips)
                };
                h.words(&[
                    TAG_LOOP_START
                        | u64::from(counter.is_some()) << 8
                        | u64::from(counter.map_or(0, |c| c.0)) << 32,
                    *end as u64,
                    trips_word,
                ]);
                depth += 1;
            }
            LinOp::LoopEnd { start } => {
                depth -= 1;
                h.words(&[TAG_LOOP_END, *start as u64]);
            }
        }
    }
    let class = h.finish();
    h.word(top_trips.len() as u64);
    for &t in &top_trips {
        h.word(u64::from(t));
    }
    (h.finish(), ClassKey { hash: class, top_trips })
}

/// Full content hash: equal keys mean the timing simulation would replay
/// identically.
pub fn exact_key(
    prog: &LinearProgram,
    launch: &Launch,
    usage: &ResourceUsage,
    spec: &MachineSpec,
) -> u64 {
    keys(&SpecSeed::new(spec), prog, launch, usage).0
}

/// Family identity: the content hash with top-level trip counts masked.
pub fn class_key(
    prog: &LinearProgram,
    launch: &Launch,
    usage: &ResourceUsage,
    spec: &MachineSpec,
) -> ClassKey {
    keys(&SpecSeed::new(spec), prog, launch, usage).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_ir::build::KernelBuilder;
    use gpu_ir::linear::linearize;
    use gpu_ir::{Dim, Kernel, VReg};
    use proptest::prelude::*;

    fn kernel(trips: u32, inner_trips: u32, imm: f32) -> Kernel {
        let mut b = KernelBuilder::new("k");
        let p = b.param(0);
        let acc = b.mov(0.0f32);
        b.repeat(trips, |b| {
            let x = b.ld_global(p, 0);
            b.repeat(inner_trips, |b| {
                b.fmad_acc(x, imm, acc);
            });
        });
        b.st_global(p, 0, acc);
        b.finish()
    }

    fn ctx() -> (Launch, ResourceUsage, MachineSpec) {
        (
            Launch::new(Dim::new_1d(64), Dim::new_1d(128)),
            ResourceUsage::new(128, 10, 0),
            MachineSpec::geforce_8800_gtx(),
        )
    }

    fn both(prog: &LinearProgram) -> (u64, ClassKey) {
        let (launch, usage, spec) = ctx();
        keys(&SpecSeed::new(&spec), prog, &launch, &usage)
    }

    /// A program spelled out op by op (no builder, no linearizer), using
    /// every op kind and every operand kind.
    fn golden_program() -> LinearProgram {
        let r = VReg;
        LinearProgram {
            code: vec![
                LinOp::Instr(Instr::new(Op::Mov, Some(r(0)), vec![Operand::Param(0)])),
                LinOp::Instr(Instr::new(
                    Op::IMad,
                    Some(r(1)),
                    vec![
                        Operand::Special(Special::CtaIdX),
                        Operand::Special(Special::NTidX),
                        Operand::Special(Special::TidX),
                    ],
                )),
                LinOp::LoopStart { counter: Some(r(2)), trips: 8, end: 7 },
                LinOp::Instr(
                    Instr::new(Op::Ld(MemorySpace::Global), Some(r(3)), vec![Operand::Reg(r(1))])
                        .with_offset(-4)
                        .with_coalesced(false),
                ),
                LinOp::LoopStart { counter: None, trips: 3, end: 5 },
                LinOp::Instr(Instr::new(
                    Op::FMad,
                    Some(r(4)),
                    vec![Operand::Reg(r(3)), Operand::ImmF32(1.5), Operand::Reg(r(4))],
                )),
                LinOp::LoopEnd { start: 4 },
                LinOp::LoopEnd { start: 2 },
                LinOp::Sync,
                LinOp::Instr(
                    Instr::new(
                        Op::St(MemorySpace::Shared),
                        None,
                        vec![Operand::ImmI32(-7), Operand::Reg(r(4))],
                    )
                    .with_replays(2),
                ),
            ],
            num_vregs: 5,
            smem_words: 16,
            num_params: 1,
        }
    }

    /// Pins the encoding and the hash. If this fails, the change alters
    /// every key: bump the store's record version byte and
    /// `CHECKPOINT_SCHEMA`, then update the literals.
    #[test]
    fn golden_keys_are_pinned() {
        let (launch, usage, spec) = ctx();
        let prog = golden_program();
        assert_eq!(exact_key(&prog, &launch, &usage, &spec), 0xe8a7_9bbd_f8ae_c3f7);
        assert_eq!(
            class_key(&prog, &launch, &usage, &spec),
            ClassKey { hash: 0xe5f0_a905_665b_a7f5, top_trips: vec![8] }
        );
    }

    #[test]
    fn identical_inputs_agree_on_both_keys() {
        let a = linearize(&kernel(8, 3, 1.5));
        let b = linearize(&kernel(8, 3, 1.5));
        assert_eq!(both(&a), both(&b));
    }

    #[test]
    fn multiple_differing_top_level_trips_stay_family_compatible() {
        let ca = ClassKey { hash: 7, top_trips: vec![8, 3] };
        let cb = ClassKey { hash: 7, top_trips: vec![4, 9] };
        assert!(ca.family_compatible(&cb), "every top-level axis may vary");
        assert!(!ca.family_compatible(&ClassKey { hash: 8, top_trips: vec![8, 3] }));
        assert!(!ca.family_compatible(&ClassKey { hash: 7, top_trips: vec![8] }));
    }

    #[test]
    fn float_immediates_are_keyed_by_their_bits() {
        let key = |imm: f32| both(&linearize(&kernel(8, 3, imm)));
        for (a, b) in [(1.5, 1.500_000_1), (0.0, -0.0)] {
            let ((ea, ca), (eb, cb)) = (key(a), key(b));
            assert_ne!(ea, eb, "{a:?} vs {b:?}");
            assert_ne!(ca.hash, cb.hash, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn launch_usage_and_spec_are_part_of_the_key() {
        let (launch, usage, spec) = ctx();
        let prog = linearize(&kernel(8, 3, 1.5));
        let base = exact_key(&prog, &launch, &usage, &spec);
        let other_launch = Launch::new(Dim::new_1d(128), Dim::new_1d(128));
        let other_usage = ResourceUsage::new(128, 11, 0);
        let other_spec = MachineSpec::gtx_280_like();
        assert_ne!(base, exact_key(&prog, &other_launch, &usage, &spec));
        assert_ne!(base, exact_key(&prog, &launch, &other_usage, &spec));
        assert_ne!(base, exact_key(&prog, &launch, &usage, &other_spec));
        let mut clock = spec.clone();
        clock.clock_hz = -0.0;
        let mut zero = spec.clone();
        zero.clock_hz = 0.0;
        assert_ne!(
            exact_key(&prog, &launch, &usage, &clock),
            exact_key(&prog, &launch, &usage, &zero),
            "spec floats are encoded by their bits"
        );
    }

    proptest! {
        /// NaN immediates with different payloads are different programs.
        #[test]
        fn nan_payloads_get_distinct_keys(a in 1u32..0x0040_0000, b in 1u32..0x0040_0000) {
            prop_assume!(a != b);
            let nan = |payload: u32| f32::from_bits(0x7fc0_0000 | payload);
            let (ea, ca) = both(&linearize(&kernel(8, 3, nan(a))));
            let (eb, cb) = both(&linearize(&kernel(8, 3, nan(b))));
            prop_assert_ne!(ea, eb);
            prop_assert_ne!(ca.hash, cb.hash);
        }

        /// Any two top-level trip counts land in one family; the exact
        /// key still tells them apart.
        #[test]
        fn top_level_trips_are_masked_from_the_class(a in 1u32..10_000, b in 1u32..10_000) {
            let (ea, ca) = both(&linearize(&kernel(a, 3, 1.5)));
            let (eb, cb) = both(&linearize(&kernel(b, 3, 1.5)));
            prop_assert_eq!(ca.hash, cb.hash);
            prop_assert!(ca.family_compatible(&cb));
            prop_assert_eq!(&ca.top_trips, &vec![a]);
            prop_assert_eq!(ea == eb, a == b);
        }

        /// Inner trip counts are structure: they always split classes.
        #[test]
        fn inner_trips_split_classes(a in 1u32..10_000, b in 1u32..10_000) {
            prop_assume!(a != b);
            let ca = both(&linearize(&kernel(8, a, 1.5))).1;
            let cb = both(&linearize(&kernel(8, b, 1.5))).1;
            prop_assert_ne!(ca.hash, cb.hash);
        }
    }
}
