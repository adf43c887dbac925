//! Property tests across crates: randomized kernels pushed through the
//! full pass pipeline must stay functionally identical on the
//! interpreter, and static analyses must stay consistent with what the
//! timing simulator executes.

use gpu_autotune::arch::{MachineSpec, ResourceUsage};
use gpu_autotune::ir::build::KernelBuilder;
use gpu_autotune::ir::linear::linearize;
use gpu_autotune::ir::{Dim, Kernel, Launch};
use gpu_autotune::passes::{
    find_loops, fold_strided_addresses, innermost_loops, prefetch_global_loads, spill_candidates,
    spill_registers, unroll,
};
use gpu_autotune::sim::interp::{run_kernel, DeviceMemory};
use proptest::prelude::*;

/// A randomized streaming kernel: one pass over `len` elements with a
/// configurable mix of arithmetic, strides, and a second pointer.
fn build_stream(len: u32, stride_b: i32, madd_chain: u32, use_shared: bool) -> Kernel {
    let mut b = KernelBuilder::new("stream");
    let src = b.param(0);
    let dst = b.param(1);
    if use_shared {
        b.alloc_shared(4);
    }
    let pa = b.mov(src);
    let pb = b.iadd(src, stride_b);
    let pd = b.mov(dst);
    let acc = b.mov(0.0f32);
    b.repeat(len, |b| {
        let x = b.ld_global(pa, 0);
        let y = b.ld_global(pb, 0);
        let mut v = b.fadd(x, y);
        for _ in 0..madd_chain {
            v = b.fmad(v, 0.5f32, 1.0f32);
        }
        b.fmad_acc(v, 1.0f32, acc);
        if use_shared {
            b.st_shared(0i32, 0, v);
            b.sync();
            let s = b.ld_shared(0i32, 0);
            b.fmad_acc(s, 0.25f32, acc);
            b.sync();
        }
        b.st_global(pd, 0, v);
        b.iadd_acc(pa, 1i32);
        b.iadd_acc(pb, 1i32);
        b.iadd_acc(pd, 1i32);
    });
    let out = b.iadd(dst, len as i32);
    b.st_global(out, 0, acc);
    b.finish()
}

fn run(k: &Kernel, len: u32, stride_b: i32) -> Vec<f32> {
    let prog = linearize(k);
    // Input region padded by one stride so prefetch's final loads land
    // in bounds.
    let in_words = (len as i32 + stride_b + 2) as usize;
    let mut mem = DeviceMemory::new(in_words + len as usize + 1);
    for i in 0..in_words {
        mem.global[i] = (i as f32 * 0.37).sin();
    }
    let launch = Launch::new(Dim::new_1d(1), Dim::new_1d(1));
    run_kernel(&prog, &launch, &[0, in_words as i32], &mut mem).expect("kernel runs");
    mem.global[in_words..].to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// unroll → fold → prefetch → spill, in any legal combination,
    /// preserves results exactly.
    #[test]
    fn pipeline_preserves_semantics(
        len_pow in 2u32..5,
        stride in 4i32..12,
        chain in 0u32..4,
        factor_pow in 0u32..3,
        do_prefetch in any::<bool>(),
        do_spill in any::<bool>(),
        use_shared in any::<bool>(),
    ) {
        let len = 1 << len_pow; // 4..16, divisible by all factors
        let factor = 1 << factor_pow;
        let baseline = run(&build_stream(len, stride, chain, use_shared), len, stride);

        let mut k = build_stream(len, stride, chain, use_shared);
        if do_prefetch {
            let outer = find_loops(&k).into_iter().next().expect("loop");
            prefetch_global_loads(&mut k, &outer).expect("leading loads exist");
        }
        let inner = innermost_loops(&k).into_iter().next().expect("loop");
        unroll(&mut k, &inner, factor).expect("divides");
        fold_strided_addresses(&mut k);
        if do_spill {
            let victims = spill_candidates(&k, 2);
            spill_registers(&mut k, &victims).expect("no counters picked");
        }
        prop_assert_eq!(run(&k, len, stride), baseline);
    }

    /// The timing simulator issues exactly the instruction count the
    /// static analysis predicts (per warp), for arbitrary pipeline
    /// outputs.
    #[test]
    fn simulator_issue_count_matches_static_analysis(
        len_pow in 2u32..5,
        chain in 0u32..3,
        factor_pow in 0u32..3,
    ) {
        let len = 1 << len_pow;
        let factor = 1 << factor_pow;
        let mut k = build_stream(len, 8, chain, false);
        let inner = innermost_loops(&k).into_iter().next().expect("loop");
        unroll(&mut k, &inner, factor).expect("divides");
        fold_strided_addresses(&mut k);

        let counts = gpu_autotune::ir::analysis::dynamic_counts(&k);
        let spec = MachineSpec::geforce_8800_gtx();
        let launch = Launch::new(Dim::new_1d(16), Dim::new_1d(32));
        let report = gpu_autotune::sim::timing::simulate(
            &linearize(&k),
            &launch,
            &ResourceUsage::new(32, 12, k.smem_bytes),
            &spec,
        ).expect("valid");
        // One resident warp per SM here: per-warp issue slots equal the
        // per-thread dynamic instruction count.
        prop_assert_eq!(report.instructions_issued, counts.instrs);
    }
}

/// FNV-1a over a byte stream.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fold one instantiated configuration into the running digest: the
/// canonical kernel text, the register-pressure figure, and the
/// issue-floor bound, so any change to what the generators and the pass
/// pipeline emit — or to what the static analyses read out of it —
/// moves the digest.
fn fold_candidate(h: u64, c: &gpu_autotune::optspace::Candidate, spec: &MachineSpec) -> u64 {
    let h = fnv1a(h, gpu_autotune::ir::text::to_text(&c.kernel).as_bytes());
    let regs = gpu_autotune::ir::analysis::register_pressure(&c.kernel).regs_per_thread;
    let h = fnv1a(h, &regs.to_le_bytes());
    let floor = gpu_autotune::optspace::model::issue_floor_ms(c, spec);
    fnv1a(h, &floor.to_bits().to_le_bytes())
}

/// Pipeline identity: every point of the four paper spaces plus a fixed
/// stride sample of the fine matmul grid generate exactly the kernels,
/// register counts and issue floors pinned here. Representation changes
/// inside the IR and the passes must leave this digest untouched.
#[test]
fn pass_pipeline_output_is_pinned() {
    use gpu_autotune::kernels::matmul::{MatMul, MatMulFine};
    use gpu_autotune::kernels::{cp::Cp, mri_fhd::MriFhd, sad::Sad, App};

    let spec = MachineSpec::geforce_8800_gtx();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut configs = 0usize;
    let apps: Vec<Box<dyn App>> = vec![
        Box::new(MatMul::reduced_problem()),
        Box::new(Cp::paper_problem()),
        Box::new(Sad::paper_problem()),
        Box::new(MriFhd::paper_problem()),
    ];
    for app in &apps {
        for point in app.space().points() {
            h = fold_candidate(h, &app.instantiate(&point), &spec);
            configs += 1;
        }
    }

    // A prime stride over the 102,400-point fine grid walks every axis
    // out of phase, reaching remainder unrolls of both loops and spill.
    let fine = MatMulFine::reduced_problem();
    let space = fine.space();
    let (mut inner_rem, mut outer_rem, mut spilled) = (false, false, false);
    for rank in (0..space.grid_len()).step_by(1021) {
        let point = space.point_at_grid_rank(rank).expect("rank inside the grid");
        let cfg = MatMulFine::config_of(&point);
        inner_rem |= cfg.unroll != 0 && !cfg.tile.is_multiple_of(cfg.unroll);
        outer_rem |= !(fine.base.n / cfg.tile).is_multiple_of(cfg.ounroll);
        spilled |= cfg.spill;
        h = fold_candidate(h, &fine.instantiate(&point), &spec);
        configs += 1;
    }
    assert!(inner_rem && outer_rem && spilled, "the fine sample must reach every pipeline shape");

    assert_eq!(configs, 1087);
    assert_eq!(h, 0x84f0_dd2a_f054_94e6, "pipeline output changed: digest {h:#018x}");
}
