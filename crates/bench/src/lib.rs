//! Shared harness for the experiment regenerators.
//!
//! Each `src/bin/*.rs` binary regenerates one table or figure of the
//! paper's evaluation; this library holds the pieces they share: the
//! application suite at bench scale, the search-comparison runner, and
//! [`BenchArgs`], the command line they share with `gpu-autotune tune`.

use std::str::FromStr;
use std::sync::Arc;

use gpu_arch::MachineSpec;
use gpu_kernels::{cp::Cp, matmul::MatMul, mri_fhd::MriFhd, sad::Sad, App, SpaceSource};
use optspace::cli::{self, EngineArgs};
use optspace::engine::{EngineConfig, EvalEngine, ResultStore};
use optspace::tuner::{ExhaustiveSearch, PrunedSearch, SearchReport, SearchStrategy};
use optspace::Selection;

/// The four applications at the scale the experiment binaries run them.
///
/// Matrix multiplication uses a reduced 512² problem (the paper itself
/// ran "smaller inputs than those considered typical"); everything else
/// runs at the paper-flavoured sizes in `gpu-kernels`.
pub fn suite() -> Vec<Box<dyn App>> {
    vec![
        Box::new(MatMul::reduced_problem()),
        Box::new(Cp::paper_problem()),
        Box::new(Sad::paper_problem()),
        Box::new(MriFhd::paper_problem()),
    ]
}

/// Exhaustive vs pruned search for one application.
#[derive(Debug)]
pub struct Comparison {
    /// Application name.
    pub name: &'static str,
    /// Ground truth: every valid configuration simulated.
    pub exhaustive: SearchReport,
    /// The paper's Pareto-pruned search.
    pub pruned: SearchReport,
}

impl Comparison {
    /// Whether the pruned search found the exhaustive optimum (the
    /// paper's headline claim).
    pub fn found_optimum(&self) -> bool {
        match (self.exhaustive.best_time_ms(), self.pruned.best_time_ms()) {
            (Some(a), Some(b)) => (b / a - 1.0).abs() < 1e-9,
            _ => false,
        }
    }
}

/// Run both searches over one application on a default (sequential,
/// unlimited) engine.
pub fn compare(app: &dyn App, spec: &MachineSpec) -> Comparison {
    compare_with(app, spec, &EvalEngine::default())
}

/// Run both searches over one application on an explicit engine,
/// instantiating candidates lazily inside the engine's worker pool.
pub fn compare_with(app: &dyn App, spec: &MachineSpec, engine: &EvalEngine) -> Comparison {
    compare_selected(app, spec, engine, &Selection::default())
}

/// Run both searches over the part of one application's space a
/// selection keeps. Filters naming axes the app does not declare are
/// ignored (lenient application), so one `--filter tile=16` meant for
/// matmul doesn't empty the other suites' spaces. An empty selection
/// yields empty — but well-formed — reports, never a panic.
pub fn compare_selected(
    app: &dyn App,
    spec: &MachineSpec,
    engine: &EvalEngine,
    selection: &Selection,
) -> Comparison {
    let space = app.space();
    let points = selection.apply_lenient(&space);
    let matched = points.len();
    let source = SpaceSource::new(app, points);
    let mut exhaustive = ExhaustiveSearch.run_source(engine, &source, spec);
    let mut pruned = PrunedSearch::default().run_source(engine, &source, spec);
    if !selection.is_noop() {
        exhaustive.selection = Some(selection.record(matched));
        pruned.selection = Some(selection.record(matched));
    }
    Comparison { name: app.name(), exhaustive, pruned }
}

/// Run one named iterative zoo strategy over an application's full
/// space (iterative strategies require dense indices aligned with the
/// declared space, so no selection applies here).
///
/// # Panics
///
/// Panics if `name` is not one of [`optspace::zoo::NAMES`].
pub fn run_zoo(
    app: &dyn App,
    spec: &MachineSpec,
    engine: &EvalEngine,
    name: &str,
    budget: usize,
    seed: u64,
) -> SearchReport {
    let space = app.space();
    let source = SpaceSource::full(app);
    let mut strategy =
        optspace::zoo::by_name(name, &space, budget, seed).expect("a zoo strategy name");
    optspace::tuner::run_iterative(strategy.as_mut(), engine, &source, spec)
}

/// Unwrap a command-line result or print its message and exit 1 — the
/// experiment binaries' analog of the front end's `eprintln!` +
/// `ExitCode::FAILURE`, with the same wording.
pub fn or_exit<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(1)
    })
}

/// The experiment binaries' command line, read once per process: the
/// engine and selection flags `gpu-autotune tune` takes (parsed by
/// [`optspace::cli`], so they are validated with the same wording), the
/// result store opened once, and the remaining arguments for the
/// binary's own flags. Arguments no one reads are ignored, so each
/// binary layers its own flags on top.
#[derive(Debug)]
pub struct BenchArgs {
    config: EngineConfig,
    store: Option<Arc<ResultStore>>,
    /// `--filter`/`--sample` narrowing. Binaries that search whole
    /// spaces call [`BenchArgs::require_full_space`].
    pub selection: Selection,
    rest: Vec<String>,
}

impl BenchArgs {
    /// Parse the process arguments; a bad shared flag or an unusable
    /// `--store-dir` exits 1.
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let parsed = or_exit(EngineArgs::parse(&args));
        let store = or_exit(parsed.open_store());
        Self { config: parsed.config, store, selection: parsed.selection, rest: parsed.rest }
    }

    /// A fresh engine for one search (its own decode cache and
    /// convergence recorder) sharing the run's one result store.
    pub fn engine(&self) -> EvalEngine {
        let engine = EvalEngine::new(self.config);
        match &self.store {
            Some(store) => engine.with_store(Arc::clone(store)),
            None => engine,
        }
    }

    /// One of the binary's own `<flag> <value>` options: `None` when
    /// absent; exits 1 with `"{flag} needs {needs}"` when present but
    /// unusable.
    pub fn value<T: FromStr>(&self, flag: &str, needs: &str) -> Option<T> {
        or_exit(cli::flag_value(&self.rest, flag, needs))
    }

    /// Whether one of the binary's own switches is present.
    pub fn has(&self, flag: &str) -> bool {
        self.rest.iter().any(|a| a == flag)
    }

    /// Exit 1 when `--filter`/`--sample` were given to binary `bin`,
    /// which searches whole spaces and would otherwise ignore them.
    pub fn require_full_space(&self, bin: &str) {
        if !self.selection.is_noop() {
            or_exit(Err(format!("{bin} searches the full space; drop --filter/--sample")))
        }
    }

    /// Make the result store's records durable; call once before exit.
    pub fn sync(&self) {
        cli::sync_store(self.store.as_deref());
    }
}
