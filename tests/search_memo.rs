//! Branch-and-bound does each distinct piece of work once per search:
//! its per-batch engine calls share one timing memo, so a program an
//! earlier batch simulated is served to every later batch as a cache
//! hit. The memo must not leak between searches, must not change a
//! single timing, must replay byte-identically after a resume, and
//! must leave the `max_sims` cap counting fresh simulations only.
//!
//! Every test runs the fine matmul grid narrowed to
//! `prefetch && rect <= 4` (30,720 points), where most timed leaves are
//! complete unrolls of a handful of programs.

use std::collections::HashSet;
use std::fs;
use std::sync::Arc;

use gpu_autotune::arch::MachineSpec;
use gpu_autotune::ir::linear::linearize;
use gpu_autotune::kernels::matmul::MatMulFine;
use gpu_autotune::kernels::{App, AppInstantiator, SpaceSource};
use gpu_autotune::optspace::engine::{
    cache, checkpoint, CheckpointMeta, Checkpointer, EngineConfig, EvalBudget, EvalEngine,
};
use gpu_autotune::optspace::obs::{parse_jsonl, summarize, EventSink, Trace};
use gpu_autotune::optspace::space::{Point, Space};
use gpu_autotune::optspace::tuner::{
    BranchAndBound, ExhaustiveSearch, SearchReport, SearchStrategy,
};

fn g80() -> MachineSpec {
    MachineSpec::geforce_8800_gtx()
}

/// The fine grid narrowed to prefetched, rect ≤ 4 points, labelled like
/// the full grid.
fn narrowed(app: &MatMulFine) -> Space {
    let mut b = Space::builder();
    for axis in app.space().axes() {
        b = b.axis(axis.name(), axis.values().iter().copied());
    }
    b.constraint("prefetch && rect <= 4", |p| p.flag("prefetch") && p.u32("rect") <= 4)
        .label(|p| MatMulFine::config_of(p).to_string())
        .build()
}

fn engine(jobs: usize) -> EvalEngine {
    EvalEngine::new(EngineConfig { jobs, ..Default::default() })
}

fn bnb(engine: &EvalEngine) -> SearchReport {
    let app = MatMulFine::reduced_problem();
    BranchAndBound.run_space(engine, &narrowed(&app), &AppInstantiator(&app), &g80())
}

/// Everything a report decides, minus the worker count.
fn fingerprint(r: &SearchReport) -> String {
    let mut stats = r.stats;
    stats.jobs = 0;
    format!(
        "{:?}\n{:?}\n{:?}\n{:?}\n{stats:?}\n{}",
        r.best,
        r.statics,
        r.simulated,
        r.quarantined,
        r.metrics.deterministic_json().to_string_compact()
    )
}

fn timed_points(space: &Space, r: &SearchReport) -> Vec<Point> {
    space.points().zip(&r.simulated).filter(|(_, t)| t.is_some()).map(|(p, _)| p).collect()
}

#[test]
fn two_searches_on_one_engine_report_identical_stats() {
    let shared = engine(2);
    let first = bnb(&shared);
    let second = bnb(&shared);
    assert!(first.stats.cache_hits > first.stats.unique_sims, "the memo never served");
    assert_eq!(second.stats, first.stats, "the memo leaked into the next search");
    assert_eq!(fingerprint(&second), fingerprint(&first));
}

#[test]
fn each_distinct_program_is_simulated_once_and_times_match_exhaustive() {
    let spec = g80();
    let app = MatMulFine::reduced_problem();
    let space = narrowed(&app);
    let report = bnb(&engine(1));
    assert!(report.best.is_some());

    // One fresh simulation per distinct exact key among timed leaves.
    let timed = timed_points(&space, &report);
    assert_eq!(timed.len(), report.stats.timed);
    let keys: HashSet<u64> = timed
        .iter()
        .map(|p| {
            let c = app.instantiate(p);
            let usage = c.evaluate(&spec).expect("timed leaves are valid").kernel_profile.usage;
            cache::exact_key(&linearize(&c.kernel), &c.launch, &usage, &spec)
        })
        .collect();
    assert_eq!(report.stats.unique_sims, keys.len());
    assert_eq!(report.stats.cache_hits, report.stats.timed - keys.len());

    // Every timing equals what one exhaustive call over the same
    // points reports for them.
    let exhaustive =
        ExhaustiveSearch.run_source(&engine(1), &SpaceSource::new(&app, timed.clone()), &spec);
    let dense: Vec<usize> = space
        .points()
        .enumerate()
        .filter(|(_, p)| timed.iter().any(|t| t.ordinal() == p.ordinal()))
        .map(|(d, _)| d)
        .collect();
    for (k, d) in dense.iter().enumerate() {
        assert_eq!(report.simulated[*d], exhaustive.simulated[k], "{}", timed[k]);
    }

    let base = fingerprint(&report);
    for jobs in [2usize, 8] {
        assert_eq!(fingerprint(&bnb(&engine(jobs))), base, "report drifted at jobs={jobs}");
    }
}

fn traced_bnb(wrap: impl FnOnce(EvalEngine) -> EvalEngine) -> (SearchReport, Trace) {
    let sink = Arc::new(EventSink::new());
    let report = bnb(&wrap(engine(2).with_sink(Arc::clone(&sink))));
    (report, sink.drain())
}

#[test]
fn resumed_search_with_memo_hits_replays_byte_identically() {
    let app = MatMulFine::reduced_problem();
    let dir = std::env::temp_dir().join(format!("optspace-search-memo-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    let ck_path = dir.join("ck.json");
    let meta = CheckpointMeta::new("matmul", "bnb", Some("fine"), &narrowed(&app));

    let (reference, ref_trace) = traced_bnb(|e| e);
    let memo_hits = ref_trace.canonical_text().matches("memo.hit").count();
    assert!(memo_hits > 0, "the batches must include memo hits");
    // `trace report` reads a memo hit as a hit: its misses are exactly
    // the fresh simulations.
    let summary = summarize(&parse_jsonl(&ref_trace.to_jsonl()).expect("trace parses"), 0);
    assert_eq!(summary.cache_misses, reference.stats.unique_sims as u64);
    assert_eq!(summary.cache_hits, reference.stats.cache_hits as u64);

    let ck = Arc::new(Checkpointer::new(&ck_path, 1, meta.clone()).with_stop_after(2));
    let (partial, _) = traced_bnb(|e| e.with_checkpoint(Arc::clone(&ck)));
    assert!(ck.should_stop(), "the stop-after must have tripped");
    assert!(partial.stats.unique_sims < reference.stats.unique_sims);
    ck.write_now().expect("publish the final checkpoint");

    let loaded = checkpoint::load(&ck_path).expect("checkpoint loads");
    let resume_ck = Arc::new(Checkpointer::new(&ck_path, 1, meta));
    resume_ck.seed(&loaded.results);
    let results = Arc::new(loaded.results);
    let (resumed, res_trace) =
        traced_bnb(|e| e.with_replay(Arc::clone(&results)).with_checkpoint(resume_ck));
    assert_eq!(fingerprint(&resumed), fingerprint(&reference));
    assert_eq!(res_trace.canonical_text(), ref_trace.canonical_text());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn max_sims_counts_fresh_simulations_only() {
    let uncapped = bnb(&engine(2));
    let fresh = uncapped.stats.unique_sims;
    assert!(uncapped.stats.timed > fresh);

    // A cap of exactly the fresh simulations completes the search.
    let mut capped = engine(2);
    capped.config.budget = EvalBudget::with_max_sims(fresh);
    let exact = bnb(&capped);
    assert!(!exact.stats.budget_truncated, "memo hits spent the sim budget");
    let mut stats = exact.stats;
    stats.budget = uncapped.stats.budget;
    assert_eq!(stats, uncapped.stats);
    assert_eq!(exact.simulated, uncapped.simulated);

    // One fewer truncates, and never runs past the cap.
    capped.config.budget = EvalBudget::with_max_sims(fresh - 1);
    let short = bnb(&capped);
    assert!(short.stats.budget_truncated);
    assert!(short.stats.unique_sims < fresh);
}
