//! The tuning workloads: how each one is set up, how one search unit
//! runs, and the known optimum every run is checked against.
//!
//! Every search goes through the library's public entry points —
//! [`BranchAndBound::run_space`] and [`SearchStrategy::run_source`] over
//! a [`SpaceSource`], with a [`ResultStore`] and [`Checkpointer`]
//! attached where the workload persists results. The application each
//! search instantiates is wrapped in an [`Instrumented`] app, which
//! counts (and in a traced run times) every instantiation from outside
//! the library.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gpu_arch::MachineSpec;
use gpu_kernels::cp::Cp;
use gpu_kernels::matmul::{MatMul, MatMulFine};
use gpu_kernels::mri_fhd::MriFhd;
use gpu_kernels::sad::Sad;
use gpu_kernels::{App, AppInstantiator, SpaceSource};
use optspace::candidate::Candidate;
use optspace::engine::{
    CheckpointMeta, Checkpointer, EngineConfig, EvalEngine, ResultStore, DEFAULT_CHECKPOINT_EVERY,
};
use optspace::obs::EventSink;
use optspace::space::{Point, Space, Value};
use optspace::tuner::{BranchAndBound, ExhaustiveSearch, SearchReport, SearchStrategy};

/// Pool workers per search: the two cores of the reference machine,
/// in one process.
pub const JOBS: usize = 2;

/// One named workload of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Branch-and-bound over the fine matmul grid, narrowed by
    /// [`FINE_BNB_CONSTRAINT`]: the bound's serial probes, serial
    /// keying, and many small pool batches.
    FineBnb,
    /// Exhaustive search of the four paper spaces, each into a fresh
    /// result store and checkpoint: simulation, decode, store writes.
    PaperCold,
}

/// The constraint that narrows the 102,400-point fine grid for
/// `fine-bnb` to 30,720 points, so one search fits a run many times.
/// It keeps the known optimum (#69694 is prefetched, rect 4), leaves
/// every axis in play for the bound, and keeps bound probing the
/// largest blocking layer with keying and small pool batches present.
pub const FINE_BNB_CONSTRAINT: &str = "prefetch && rect <= 4";

/// A known optimum: which configuration a search must report, and its
/// simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Truth {
    /// Short application key.
    pub app: &'static str,
    /// Configuration index: the dense index for searches over a point
    /// list, the full-grid rank for the narrowed branch-and-bound space.
    pub index: usize,
    /// Configuration label.
    pub label: &'static str,
    /// Simulated time of the optimum, ms.
    pub best_ms: f64,
}

const FINE_BNB_TRUTH: [Truth; 1] = [Truth {
    app: "matmul-fine",
    index: 69694,
    label: "16x16/1x4/uC/o16/pf",
    best_ms: 2.004405925925926,
}];
/// The four paper optima (as recorded in `BENCH_pr6.json`).
const PAPER_TRUTH: [Truth; 4] = [
    Truth { app: "matmul", index: 94, label: "16x16/1x4/uC/pf", best_ms: 2.061294814814815 },
    Truth { app: "cp", index: 8, label: "b64/t16/co", best_ms: 0.9572592592592593 },
    Truth { app: "sad", index: 134, label: "tpb64/mb2/p4r4c4", best_ms: 2.0486140740740737 },
    Truth { app: "mri", index: 63, label: "b64/u16/inv1", best_ms: 6.329199999999999 },
];

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::FineBnb, Workload::PaperCold];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Self::FineBnb => "fine-bnb",
            Self::PaperCold => "paper-cold",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The optimum each search of one unit must report, in search order.
    pub fn truths(self) -> &'static [Truth] {
        match self {
            Self::FineBnb => &FINE_BNB_TRUTH,
            Self::PaperCold => &PAPER_TRUTH,
        }
    }

    /// The (uninstrumented) applications one unit searches, in order.
    pub fn apps(self) -> Vec<(&'static str, Box<dyn App>)> {
        match self {
            Self::FineBnb => {
                vec![("matmul-fine", Box::new(MatMulFine::reduced_problem()) as Box<dyn App>)]
            }
            Self::PaperCold => vec![
                ("matmul", Box::new(MatMul::reduced_problem()) as Box<dyn App>),
                ("cp", Box::new(Cp::paper_problem())),
                ("sad", Box::new(Sad::paper_problem())),
                ("mri", Box::new(MriFhd::paper_problem())),
            ],
        }
    }
}

/// Which of [`Recorder`]'s two lanes an instantiation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// A `ProbeBound` corner instantiated to compute a lower bound.
    Probe = 0,
    /// A candidate instantiated for static analysis or timing.
    Instantiate = 1,
}

/// Counts every instantiation a search requests and, while timing is
/// on, records each call's wall time.
///
/// A probe is recognised from outside: `ProbeBound` legalizes every
/// corner it bounds and instantiates it only on the first visit of
/// that full-grid rank (it memoizes by rank). Mirroring that memo here
/// marks exactly the instantiation that follows a first-visit
/// `legalize` as a probe; everything else is a candidate.
///
/// Only `legalize` (called by the bound, on the orchestrator thread)
/// takes a lock; an instantiation on a pool worker touches atomics
/// only, and takes the sample lock only while timing is on.
#[derive(Debug)]
pub struct Recorder {
    timed: AtomicBool,
    probed: Mutex<HashSet<usize>>,
    /// Rank of the probe whose instantiation comes next, or
    /// [`NO_PROBE`].
    pending_probe: AtomicUsize,
    calls: [AtomicU64; 2],
    samples_us: [Mutex<Vec<f64>>; 2],
}

/// [`Recorder::pending_probe`] when no probe is pending.
const NO_PROBE: usize = usize::MAX;

impl Default for Recorder {
    fn default() -> Self {
        Self {
            timed: AtomicBool::default(),
            probed: Mutex::default(),
            pending_probe: AtomicUsize::new(NO_PROBE),
            calls: Default::default(),
            samples_us: Default::default(),
        }
    }
}

impl Recorder {
    /// Turn per-call timing on or off (counting is always on).
    pub fn set_timed(&self, on: bool) {
        self.timed.store(on, Ordering::Relaxed);
    }

    /// Forget the probe memo and every count: a new search starts.
    pub fn reset(&self) {
        self.probed.lock().expect("probe memo poisoned").clear();
        self.pending_probe.store(NO_PROBE, Ordering::Relaxed);
        for lane in 0..2 {
            self.calls[lane].store(0, Ordering::Relaxed);
            self.samples_us[lane].lock().expect("samples poisoned").clear();
        }
    }

    /// Calls recorded on `lane` since the last reset.
    pub fn calls(&self, lane: Lane) -> u64 {
        self.calls[lane as usize].load(Ordering::Relaxed)
    }

    /// Per-call wall times (µs) recorded on `lane` since the last reset.
    pub fn samples_us(&self, lane: Lane) -> Vec<f64> {
        self.samples_us[lane as usize].lock().expect("samples poisoned").clone()
    }

    fn legalized(&self, rank: usize) {
        let first_visit = self.probed.lock().expect("probe memo poisoned").insert(rank);
        self.pending_probe.store(if first_visit { rank } else { NO_PROBE }, Ordering::Relaxed);
    }

    fn lane_of(&self, rank: usize) -> Lane {
        match self.pending_probe.compare_exchange(
            rank,
            NO_PROBE,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => Lane::Probe,
            Err(_) => Lane::Instantiate,
        }
    }

    fn record(&self, lane: Lane, started: Option<Instant>) {
        self.calls[lane as usize].fetch_add(1, Ordering::Relaxed);
        if let Some(t) = started {
            let us = t.elapsed().as_secs_f64() * 1e6;
            self.samples_us[lane as usize].lock().expect("samples poisoned").push(us);
        }
    }
}

/// An application whose instantiations are counted (and timed) by a
/// [`Recorder`]; everything else passes through.
pub struct Instrumented {
    /// Short application key (matches [`Truth::app`]).
    pub key: &'static str,
    inner: Box<dyn App>,
    rec: Arc<Recorder>,
}

impl Instrumented {
    pub fn new(key: &'static str, inner: Box<dyn App>, rec: Arc<Recorder>) -> Self {
        Self { key, inner, rec }
    }

    /// The wrapped application, for replaying calls without recording.
    pub fn inner(&self) -> &dyn App {
        self.inner.as_ref()
    }
}

impl App for Instrumented {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn space(&self) -> Space {
        self.inner.space()
    }

    fn instantiate(&self, point: &Point) -> Candidate {
        let lane = self.rec.lane_of(point.ordinal());
        let started = self.rec.timed.load(Ordering::Relaxed).then(Instant::now);
        let c = self.inner.instantiate(point);
        self.rec.record(lane, started);
        c
    }

    fn legalize(&self, space: &Space, values: &mut [Value]) {
        self.inner.legalize(space, values);
        self.rec.legalized(space.probe_point(values.to_vec()).ordinal());
    }
}

/// The fine grid narrowed by [`FINE_BNB_CONSTRAINT`], labelled like the
/// full grid.
pub fn narrowed_fine_space(full: &Space) -> Space {
    let mut b = Space::builder();
    for axis in full.axes() {
        b = b.axis(axis.name(), axis.values().iter().copied());
    }
    b.constraint(FINE_BNB_CONSTRAINT, |p| p.flag("prefetch") && p.u32("rect") <= 4)
        .label(|p| MatMulFine::config_of(p).to_string())
        .build()
}

/// How one prepared search runs.
enum Plan<'a> {
    /// Branch-and-bound over a (narrowed) space; nothing is enumerated
    /// up front.
    Bnb(Space),
    /// Exhaustive search over an enumerated point list.
    Exhaustive(SpaceSource<'a>),
}

/// One search, ready to run: everything `setup_s` pays for.
struct PreparedSearch<'a> {
    app: &'a Instrumented,
    plan: Plan<'a>,
    engine: EvalEngine,
    store: Option<Arc<ResultStore>>,
    checkpoint: Option<Arc<Checkpointer>>,
    store_load_s: f64,
}

/// One search unit, ready to run: one search, or a sweep of four.
pub struct Prepared<'a> {
    searches: Vec<PreparedSearch<'a>>,
}

/// Build one unit of `workload` over `apps` — the set-up phase.
/// `paper-cold` opens fresh, empty stores and checkpoints under
/// `store_dir`; `fine-bnb` persists nothing.
pub fn setup<'a>(
    workload: Workload,
    apps: &'a [Instrumented],
    store_dir: &Path,
    sink: Option<&Arc<EventSink>>,
) -> Result<Prepared<'a>, String> {
    let mut searches = Vec::new();
    for app in apps {
        let mut engine = EvalEngine::new(EngineConfig { jobs: JOBS, ..Default::default() });
        if let Some(sink) = sink {
            engine = engine.with_sink(Arc::clone(sink));
        }
        let space = app.space();
        let (mut store, mut checkpoint, mut store_load_s) = (None, None, 0.0);
        let plan = match workload {
            Workload::FineBnb => Plan::Bnb(narrowed_fine_space(&space)),
            Workload::PaperCold => {
                let points: Vec<Point> = space.points().collect();
                let started = Instant::now();
                let st = Arc::new(open_store(&store_dir.join(app.key))?);
                store_load_s = started.elapsed().as_secs_f64();
                engine = engine.with_store(Arc::clone(&st));
                store = Some(st);
                let meta = CheckpointMeta::new(app.key, "exhaustive", None, &space);
                let ck = Arc::new(Checkpointer::new(
                    checkpoint_path(store_dir, app.key),
                    DEFAULT_CHECKPOINT_EVERY,
                    meta,
                ));
                engine = engine.with_checkpoint(Arc::clone(&ck));
                checkpoint = Some(ck);
                Plan::Exhaustive(SpaceSource::new(app, points))
            }
        };
        searches.push(PreparedSearch { app, plan, engine, store, checkpoint, store_load_s });
    }
    Ok(Prepared { searches })
}

fn open_store(dir: &Path) -> Result<ResultStore, String> {
    ResultStore::open(dir).map_err(|e| format!("cannot open result store {}: {e}", dir.display()))
}

fn checkpoint_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{key}.checkpoint.json"))
}

/// One finished search and what the checks and layers need from it.
pub struct Done {
    /// Short application key.
    pub app: &'static str,
    /// The library's report.
    pub report: SearchReport,
    /// Configurations in the searched space.
    pub space_size: usize,
    /// Bound-probe instantiations.
    pub probes: u64,
    /// Per-call wall times (µs) of the probes and of the candidate
    /// instantiations; empty unless the recorder was timing.
    pub probe_us: Vec<f64>,
    pub instantiate_us: Vec<f64>,
    /// The reported best: truth-numbered index, label, point.
    pub best: Option<(usize, String, Point)>,
    /// Every timed configuration, as a point of the app's space.
    pub timed_points: Vec<Point>,
    /// `ResultStore::open` time (0 without a store).
    pub store_load_s: f64,
    /// Bytes the search appended to its store (0 without one).
    pub store_bytes_written: u64,
    /// Checkpoint snapshots published (0 without a checkpoint).
    pub checkpoint_writes: u64,
    /// Size of the final checkpoint snapshot (0 without one).
    pub checkpoint_bytes: u64,
}

/// One finished unit: its wall time and its searches.
pub struct Unit {
    /// Wall time from the first search's start to the last report.
    pub wall_s: f64,
    pub searches: Vec<Done>,
}

/// Run one prepared unit. Only the searches themselves are timed; the
/// bookkeeping that follows (best point, timed points, directory sizes)
/// runs after the clock stops.
pub fn run_unit(prep: Prepared<'_>, rec: &Recorder, spec: &MachineSpec) -> Result<Unit, String> {
    let mut raw = Vec::with_capacity(prep.searches.len());
    let started = Instant::now();
    for s in &prep.searches {
        rec.reset();
        let report = match &s.plan {
            Plan::Bnb(space) => {
                BranchAndBound.run_space(&s.engine, space, &AppInstantiator(s.app), spec)
            }
            Plan::Exhaustive(source) => ExhaustiveSearch.run_source(&s.engine, source, spec),
        };
        raw.push((
            report,
            rec.calls(Lane::Probe),
            rec.samples_us(Lane::Probe),
            rec.samples_us(Lane::Instantiate),
        ));
    }
    let wall_s = started.elapsed().as_secs_f64();

    let mut searches = Vec::with_capacity(raw.len());
    for (s, (report, probes, probe_us, instantiate_us)) in prep.searches.iter().zip(raw) {
        let points: Vec<Point> = match &s.plan {
            // Completions carry full-grid ranks, in the dense order the
            // report is indexed by.
            Plan::Bnb(space) => space.partial().completions().collect(),
            Plan::Exhaustive(source) => source.points().to_vec(),
        };
        let index_of = |i: usize, p: &Point| match &s.plan {
            Plan::Bnb(_) => p.ordinal(),
            Plan::Exhaustive(_) => i,
        };
        let best = report
            .best
            .map(|i| (index_of(i, &points[i]), points[i].to_string(), points[i].clone()));
        let timed_points = report
            .simulated
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_some())
            .map(|(i, _)| points[i].clone())
            .collect();
        let store_bytes_written = match &s.store {
            Some(st) => dir_bytes(st.dir())?.saturating_sub(st.audit().bytes),
            None => 0,
        };
        let (checkpoint_writes, checkpoint_bytes) = match &s.checkpoint {
            // Exhaustive searches make one timing call, dispatched in
            // chunks of `every` units; a snapshot is published after
            // each full chunk.
            Some(ck) => (
                (ck.units_done() / ck.every()) as u64,
                std::fs::metadata(ck.path()).map(|m| m.len()).unwrap_or(0),
            ),
            None => (0, 0),
        };
        searches.push(Done {
            app: s.app.key,
            report,
            space_size: points.len(),
            probes,
            probe_us,
            instantiate_us,
            best,
            timed_points,
            store_load_s: s.store_load_s,
            store_bytes_written,
            checkpoint_writes,
            checkpoint_bytes,
        });
    }
    Ok(Unit { wall_s, searches })
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    let mut total = 0;
    for entry in entries {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("cannot stat in {}: {e}", dir.display()))?;
        total += meta.len();
    }
    Ok(total)
}

/// The counters that must repeat exactly across every search of one
/// workload in one invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counters {
    pub static_evals: usize,
    pub timed: usize,
    pub unique_sims: usize,
    pub probes: u64,
    pub store_hits: usize,
    pub bound_pruned_points: usize,
    pub sims_to_best: Option<u64>,
}

impl Counters {
    pub fn of(d: &Done) -> Self {
        let s = &d.report.stats;
        Self {
            static_evals: s.static_evals,
            timed: s.timed,
            unique_sims: s.unique_sims,
            probes: d.probes,
            store_hits: s.store_hits,
            bound_pruned_points: s.bound_pruned_points,
            sims_to_best: d.report.metrics.convergence.sims_to_optimum(),
        }
    }
}

/// Check every search of `unit` against the workload's truth. Returns
/// one line per mismatch; empty means the unit is correct.
pub fn gate(workload: Workload, unit: &Unit) -> Vec<String> {
    let truths = workload.truths();
    let mut errors = Vec::new();
    if unit.searches.len() != truths.len() {
        errors.push(format!("{} searches ran, {} expected", unit.searches.len(), truths.len()));
    }
    for (done, truth) in unit.searches.iter().zip(truths) {
        errors.extend(check_best(done.app, done.best.as_ref(), done.report.best_time_ms(), truth));
    }
    errors
}

/// Compare one reported best with its truth.
pub fn check_best(
    app: &str,
    best: Option<&(usize, String, Point)>,
    best_ms: Option<f64>,
    truth: &Truth,
) -> Vec<String> {
    let mut errors = Vec::new();
    if app != truth.app {
        errors.push(format!("searched `{app}`, expected `{}`", truth.app));
    }
    match (best, best_ms) {
        (Some((index, label, _)), Some(ms)) => {
            if *index != truth.index || label != truth.label {
                errors.push(format!(
                    "{app}: best #{index} {label}, expected #{} {}",
                    truth.index, truth.label
                ));
            }
            if (ms - truth.best_ms).abs() > 1e-9 * truth.best_ms {
                errors.push(format!("{app}: best {ms} ms, expected {} ms", truth.best_ms));
            }
        }
        _ => errors.push(format!("{app}: no configuration was timed")),
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fine_point(label: &str) -> Point {
        let app = MatMulFine::reduced_problem();
        app.space().points().find(|p| p.to_string() == label).expect("label exists")
    }

    #[test]
    fn gate_accepts_the_truth_and_rejects_a_wrong_optimum() {
        let truth = &FINE_BNB_TRUTH[0];
        let p = fine_point(truth.label);
        assert_eq!(p.ordinal(), truth.index);
        let right = (truth.index, truth.label.to_string(), p.clone());
        assert!(check_best("matmul-fine", Some(&right), Some(truth.best_ms), truth).is_empty());

        let wrong = fine_point("16x16/1x2/uC/o16");
        let wrong = (wrong.ordinal(), wrong.to_string(), wrong);
        assert!(!check_best("matmul-fine", Some(&wrong), Some(truth.best_ms), truth).is_empty());
        assert!(!check_best("matmul-fine", Some(&right), Some(2.01), truth).is_empty());
        assert!(!check_best("matmul-fine", None, None, truth).is_empty());
        assert!(!check_best("matmul", Some(&right), Some(truth.best_ms), truth).is_empty());
    }

    #[test]
    fn narrowing_keeps_the_fine_optimum() {
        let full = MatMulFine::reduced_problem().space();
        let narrowed = narrowed_fine_space(&full);
        assert_eq!(narrowed.len(), 30_720);
        let kept = narrowed
            .partial()
            .completions()
            .find(|p| p.ordinal() == FINE_BNB_TRUTH[0].index)
            .expect("the optimum is admitted");
        assert_eq!(kept.to_string(), FINE_BNB_TRUTH[0].label);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(crate::stats::valid_name(w.name()));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
