//! Evaluation-engine scaling: exhaustive-search throughput over the SAD
//! space at 1/2/4/8 workers. The report must be identical at every
//! worker count (the engine reassembles by candidate index); the point
//! of the sweep is the wall-clock curve.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpu_arch::{MachineSpec, ResourceUsage};
use gpu_ir::linear::LinearProgram;
use gpu_ir::Launch;
use gpu_kernels::sad::Sad;
use gpu_kernels::App;
use gpu_sim::decode::DecodedProgram;
use gpu_sim::timing::TimingReport;
use optspace::candidate::Candidate;
use optspace::engine::{
    EngineConfig, EvalEngine, EvalError, MetricsEval, SimulatorEval, TimingEval,
};
use optspace::tuner::{ExhaustiveSearch, SearchStrategy};
use std::hint::black_box;

fn bench_engine_scaling(c: &mut Criterion) {
    let spec = MachineSpec::geforce_8800_gtx();
    let cands = Sad::paper_problem().candidates();

    // The multi-worker runs must land on the same best configuration as
    // the sequential reference — guard before measuring.
    let reference = ExhaustiveSearch.run(&cands, &spec);
    for jobs in [2usize, 4, 8] {
        let r = ExhaustiveSearch.run_with(&EvalEngine::with_jobs(jobs), &cands, &spec);
        assert_eq!(r.best, reference.best, "jobs={jobs} diverged from sequential best");
    }

    let mut g = c.benchmark_group("engine_scaling");
    g.sample_size(2);
    for jobs in [1usize, 2, 4, 8] {
        let engine = EvalEngine::with_jobs(jobs);
        g.bench_with_input(BenchmarkId::new("exhaustive sad", jobs), &engine, |b, engine| {
            b.iter(|| black_box(ExhaustiveSearch.run_with(engine, black_box(&cands), &spec)))
        });
    }
    g.finish();
}

/// The pre-decode seed engine (`gpu_sim::legacy`) as a timing
/// evaluator, timing each program from its retained linear source.
struct LegacyEval;

impl TimingEval for LegacyEval {
    fn simulate(
        &self,
        prog: &DecodedProgram,
        launch: &Launch,
        usage: &ResourceUsage,
        spec: &MachineSpec,
    ) -> Result<TimingReport, EvalError> {
        gpu_sim::legacy::timing::simulate_fueled(&prog.source, launch, usage, spec, None)
            .map_err(Into::into)
    }

    fn simulate_family(
        &self,
        progs: &[&DecodedProgram],
        launch: &Launch,
        usage: &ResourceUsage,
        spec: &MachineSpec,
    ) -> Option<Vec<TimingReport>> {
        let sources: Vec<&LinearProgram> = progs.iter().map(|p| &p.source).collect();
        gpu_sim::legacy::timing::simulate_family_fueled(&sources, launch, usage, spec, None).ok()
    }
}

/// An exhaustive search through the sequential engine with timing
/// evaluator `eval`; returns the best candidate.
fn exhaustive_with(
    eval: &dyn TimingEval,
    cands: &[Candidate],
    spec: &MachineSpec,
) -> Option<usize> {
    let engine = EvalEngine::default();
    let mut stats = engine.stats_seed();
    let mut quarantine = Vec::new();
    let statics =
        engine.evaluate_statics(&MetricsEval::default(), &cands, spec, &mut stats, &mut quarantine);
    let selected: Vec<usize> = (0..statics.len()).filter(|&i| statics[i].is_some()).collect();
    let reports = engine.simulate_selected(
        eval,
        &cands,
        &statics,
        &selected,
        spec,
        &mut stats,
        &mut quarantine,
    );
    (0..reports.len())
        .filter_map(|i| Some((i, reports[i].as_ref()?.time_ms)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(i, _)| i)
}

/// Whole-search wall clock of the decoded arena engine against the
/// pre-decode seed engine, sequential, over the full SAD space. Same
/// dedup, same memo cache — the only difference is the per-simulation
/// execution model, so the gap is the decoded engine's speedup as a
/// tuning run actually experiences it.
fn bench_engine_decoded_vs_legacy(c: &mut Criterion) {
    let spec = MachineSpec::geforce_8800_gtx();
    let cands = Sad::paper_problem().candidates();
    let decoded = SimulatorEval::from_config(&EngineConfig::default());

    // The engines must be observationally identical before we time them.
    assert_eq!(
        exhaustive_with(&decoded, &cands, &spec),
        exhaustive_with(&LegacyEval, &cands, &spec),
        "legacy and decoded engines disagree on the best config"
    );

    let mut g = c.benchmark_group("engine-decoded-vs-legacy");
    g.sample_size(2);
    let evals: [(&str, &dyn TimingEval); 2] = [("decoded", &decoded), ("legacy", &LegacyEval)];
    for (name, eval) in evals {
        g.bench_with_input(BenchmarkId::new("exhaustive sad", name), &eval, |b, eval| {
            b.iter(|| black_box(exhaustive_with(*eval, black_box(&cands), &spec)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_engine_scaling, bench_engine_decoded_vs_legacy);
criterion_main!(benches);
