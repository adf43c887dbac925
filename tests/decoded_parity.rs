//! Differential oracle for the decoded execution engine: on randomized
//! configurations of all four paper applications, the decoded arena
//! engines (`gpu_sim::interp`, `gpu_sim::timing`) must be bit-identical
//! to the pre-decode reference engines retained in `gpu_sim::legacy` —
//! functional results, cycle counts, fuel consumption, and stall-lane
//! attribution alike — per simulation on randomized configurations, and
//! over whole searches through the production engine, where a
//! test-local [`LegacyEval`] stands in for `SimulatorEval`.

use gpu_autotune::arch::{MachineSpec, ResourceUsage};
use gpu_autotune::ir::linear::{linearize, LinearProgram};
use gpu_autotune::ir::Launch;
use gpu_autotune::kernels::cp::Cp;
use gpu_autotune::kernels::matmul::MatMul;
use gpu_autotune::kernels::mri_fhd::MriFhd;
use gpu_autotune::kernels::sad::Sad;
use gpu_autotune::kernels::{App, SpaceSource};
use gpu_autotune::optspace::candidate::Candidate;
use gpu_autotune::optspace::engine::{
    EngineStats, EvalEngine, EvalError, MetricsEval, SimulatorEval, TimingEval,
};
use gpu_autotune::optspace::{CandidateSource, Sample, Selection};
use gpu_autotune::sim::decode::DecodedProgram;
use gpu_autotune::sim::interp::DeviceMemory;
use gpu_autotune::sim::timing::TimingReport;
use gpu_autotune::sim::{legacy, timing};
use proptest::prelude::*;

/// Run one candidate through both engine stacks and require bit
/// identity everywhere the stacks can be observed.
fn assert_parity(cand: &Candidate, mem0: &DeviceMemory, params: &[i32]) {
    let spec = MachineSpec::geforce_8800_gtx();
    let prog = linearize(&cand.kernel);

    // Functional: checked runs (race oracle armed) over the same data.
    let mut mem_dec = mem0.clone();
    let mut mem_leg = mem0.clone();
    let dec =
        gpu_autotune::sim::interp::run_kernel_checked(&prog, &cand.launch, params, &mut mem_dec);
    let leg = legacy::interp::run_kernel_checked(&prog, &cand.launch, params, &mut mem_leg);
    prop_assert_eq!(
        format!("{dec:?}"),
        format!("{leg:?}"),
        "functional outcome diverged on {}",
        cand.label
    );
    prop_assert_eq!(&mem_dec, &mem_leg, "device memory diverged on {}", cand.label);

    // Timing: only launchable configurations have a resource usage to
    // simulate with; the rest are the paper's invalid executables.
    let Ok(eval) = cand.evaluate(&spec) else { return };
    let usage = eval.kernel_profile.usage;
    let dec = timing::simulate_fueled(&prog, &cand.launch, &usage, &spec, None);
    let leg = legacy::timing::simulate_fueled(&prog, &cand.launch, &usage, &spec, None);
    prop_assert_eq!(
        format!("{dec:?}"),
        format!("{leg:?}"),
        "timing report diverged on {}",
        cand.label
    );

    // Fuel watchdog: truncating mid-run must burn identical fuel and
    // fail identically in both stacks.
    if let Ok(rep) = dec {
        if rep.steps > 1 {
            let fuel = Some(rep.steps / 2);
            let dec = timing::simulate_fueled(&prog, &cand.launch, &usage, &spec, fuel);
            let leg = legacy::timing::simulate_fueled(&prog, &cand.launch, &usage, &spec, fuel);
            prop_assert_eq!(
                format!("{dec:?}"),
                format!("{leg:?}"),
                "fuel accounting diverged on {}",
                cand.label
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn matmul_decoded_matches_legacy(pick in 0usize..1_000_000, seed in 0u64..1000) {
        let app = MatMul::test_problem();
        let cfgs = app.configs();
        let cand = app.candidate(&cfgs[pick % cfgs.len()]);
        let (mem, params) = app.setup(seed);
        assert_parity(&cand, &mem, &params);
    }

    #[test]
    fn cp_decoded_matches_legacy(pick in 0usize..1_000_000, seed in 0u64..1000) {
        let app = Cp::test_problem();
        let cfgs = app.configs();
        let cand = app.candidate(&cfgs[pick % cfgs.len()]);
        let (mem, params) = app.setup(seed);
        assert_parity(&cand, &mem, &params);
    }

    #[test]
    fn sad_decoded_matches_legacy(pick in 0usize..1_000_000, seed in 0u64..1000) {
        let app = Sad::test_problem();
        let cfgs = app.configs();
        let cand = app.candidate(&cfgs[pick % cfgs.len()]);
        let (mem, params) = app.setup(seed);
        assert_parity(&cand, &mem, &params);
    }

    #[test]
    fn mri_decoded_matches_legacy(pick in 0usize..1_000_000, seed in 0u64..1000) {
        let app = MriFhd::test_problem();
        let cfgs = app.configs();
        let cand = app.candidate(&cfgs[pick % cfgs.len()]);
        let (mem, params) = app.setup(seed);
        assert_parity(&cand, &mem, &params);
    }
}

/// Regression: a kernel whose last op is a barrier. Every warp retires
/// on arrival, so the release revives warps with nothing left to issue;
/// the decoded engine once indexed past the end of the arena there.
#[test]
fn kernel_ending_on_barrier_matches_legacy() {
    use gpu_autotune::arch::ResourceUsage;
    use gpu_autotune::ir::build::KernelBuilder;
    use gpu_autotune::ir::{Dim, Launch};

    let mut b = KernelBuilder::new("ts");
    let p = b.param(0);
    let acc = b.mov(0.0f32);
    b.fmad_acc(1.0f32, 1.0f32, acc);
    b.st_global(p, 0, acc);
    b.sync(); // program ends at a barrier
    let prog = linearize(&b.finish());
    let spec = MachineSpec::geforce_8800_gtx();
    let launch = Launch::new(Dim::new_1d(4), Dim::new_1d(64));
    let usage = ResourceUsage::new(64, 10, 0);
    let leg = legacy::timing::simulate_fueled(&prog, &launch, &usage, &spec, None);
    let dec = timing::simulate_fueled(&prog, &launch, &usage, &spec, None);
    assert_eq!(format!("{dec:?}"), format!("{leg:?}"));
}

/// The pre-decode reference engine as a [`TimingEval`]: it times each
/// program from its retained linear source, so the production engine
/// (dedup, families, retries, accounting) runs unchanged around it.
struct LegacyEval;

impl TimingEval for LegacyEval {
    fn simulate(
        &self,
        prog: &DecodedProgram,
        launch: &Launch,
        usage: &ResourceUsage,
        spec: &MachineSpec,
    ) -> Result<TimingReport, EvalError> {
        legacy::timing::simulate_fueled(&prog.source, launch, usage, spec, None).map_err(Into::into)
    }

    fn simulate_family(
        &self,
        progs: &[&DecodedProgram],
        launch: &Launch,
        usage: &ResourceUsage,
        spec: &MachineSpec,
    ) -> Option<Vec<TimingReport>> {
        let sources: Vec<&LinearProgram> = progs.iter().map(|p| &p.source).collect();
        legacy::timing::simulate_family_fueled(&sources, launch, usage, spec, None).ok()
    }
}

/// One exhaustive search of `source` on a 2-worker engine with timing
/// evaluator `eval`: every per-candidate timing report, the engine's
/// counters, and the best candidate.
fn exhaustive_with(
    eval: &dyn TimingEval,
    source: &dyn CandidateSource,
) -> (Vec<Option<TimingReport>>, EngineStats, Option<usize>) {
    let spec = MachineSpec::geforce_8800_gtx();
    let engine = EvalEngine::with_jobs(2);
    let mut stats = engine.stats_seed();
    let mut quarantine = Vec::new();
    let statics = engine.evaluate_statics(
        &MetricsEval::default(),
        source,
        &spec,
        &mut stats,
        &mut quarantine,
    );
    let selected: Vec<usize> = (0..statics.len()).filter(|&i| statics[i].is_some()).collect();
    let reports = engine.simulate_selected(
        eval,
        source,
        &statics,
        &selected,
        &spec,
        &mut stats,
        &mut quarantine,
    );
    assert!(quarantine.is_empty(), "a clean search quarantined {quarantine:?}");
    let best = (0..reports.len())
        .filter_map(|i| Some((i, reports[i].as_ref()?.time_ms)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(i, _)| i);
    (reports, stats, best)
}

/// Whole-search parity: the decoded engine and the reference engine,
/// each driven through the production engine, must agree on every
/// timing report, every engine counter (simulations, cache hits,
/// family forks, fuel, cycles, stalls) and the optimum. Returns the
/// shared counters.
fn assert_search_parity(source: &dyn CandidateSource) -> EngineStats {
    let config = EvalEngine::with_jobs(2).config;
    let decoded = exhaustive_with(&SimulatorEval::from_config(&config), source);
    let reference = exhaustive_with(&LegacyEval, source);
    assert!(decoded.2.is_some(), "the search timed nothing");
    assert_eq!(decoded.0, reference.0, "per-candidate timing reports diverged");
    assert_eq!(decoded.1, reference.1, "engine counters diverged");
    assert_eq!(decoded.2, reference.2, "best configuration diverged");
    decoded.1
}

#[test]
fn cp_whole_search_matches_legacy() {
    assert_search_parity(&Cp::paper_problem().candidates());
}

#[test]
fn mri_whole_search_matches_legacy() {
    let stats = assert_search_parity(&MriFhd::paper_problem().candidates());
    // The space's invocation clusters must reach the forked-family path,
    // or this test would not cover it.
    assert!(stats.family_forks > 0, "MRI-FHD formed no trip-count families");
}

/// A seeded seventh of the SAD space: the full 675-point search takes
/// about 37 s through the reference engine in the dev profile.
#[test]
fn sad_sampled_whole_search_matches_legacy() {
    let sad = Sad::paper_problem();
    let selection = Selection { filters: Vec::new(), sample: Some(Sample { count: 96, seed: 7 }) };
    let points = selection.apply(&sad.space()).expect("no filters to reject");
    assert_search_parity(&SpaceSource::new(&sad, points));
}
