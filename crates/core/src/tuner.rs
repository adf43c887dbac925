//! Search strategies over a configuration space.
//!
//! * [`ExhaustiveSearch`] — simulate every valid configuration; the
//!   paper's ground truth ("full exploration of the optimization space
//!   based on wall-clock performance").
//! * [`PrunedSearch`] — the paper's contribution: statically evaluate
//!   everything, optionally screen bandwidth-bound points (section 5.3),
//!   keep the Pareto-optimal subset of the metric plot, and simulate
//!   only those.
//! * [`RandomSearch`] — the baseline the paper's future work proposes
//!   comparing against: simulate a random sample of equal budget.
//!
//! A strategy is only a *selection policy*: it names itself, picks a
//! metric variant, and chooses which candidate indices deserve timing
//! simulation. Everything mechanical — static evaluation, memoized and
//! parallel simulation, invocation scaling, budget enforcement — lives
//! in the shared [`EvalEngine`], which [`SearchStrategy::run_with`]
//! drives. [`SearchStrategy::run`] is the same thing on a default
//! (single-worker, unlimited) engine and reproduces the historical
//! sequential behavior exactly.
//!
//! Strategies that need timing *feedback* — hill climbing, annealing,
//! genetic, surrogate search (the zoo in [`crate::zoo`]) — cannot be
//! one-shot `select()` policies. They implement [`IterativeStrategy`]
//! instead: batches of proposals alternating with observed results,
//! executed by [`run_iterative`] over the engine's round-based driver
//! ([`EvalEngine::drive_iterative`]). Determinism contract: a
//! strategy's randomness per round must be a pure function of
//! `(strategy seed, round)`, so reports, canonical traces, and
//! convergence curves are byte-identical at any `--jobs`.

use std::collections::{BinaryHeap, HashMap};

use gpu_arch::MachineSpec;
use gpu_sim::timing::TimingReport;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::candidate::{Candidate, Evaluated};
use crate::engine::{
    EngineStats, EvalEngine, FrontierSnapshot, MetricsEval, Quarantine, SearchState, SimulatorEval,
};
use crate::metrics::MetricsOptions;
use crate::model::{LowerBound, ProbeBound};
use crate::obs::{EngineMetrics, EventKind, Json, RuntimeMetrics};
use crate::pareto::pareto_indices;
use crate::space::{CandidateSource, Instantiator, PointBatch, SelectionRecord, Space};

pub use crate::engine::LAUNCH_OVERHEAD_MS;
pub use crate::engine::{Observation, Proposer};

/// Outcome of one search over a candidate space.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// Strategy name for report rows.
    pub strategy: String,
    /// Total configurations in the space (valid or not).
    pub space_size: usize,
    /// Static evaluation per candidate; `None` marks the paper's
    /// "invalid executable" cases and candidates quarantined during
    /// static evaluation.
    pub statics: Vec<Option<Evaluated>>,
    /// Timing simulation per candidate; `None` when the strategy did not
    /// simulate that configuration or quarantined it during timing.
    pub simulated: Vec<Option<TimingReport>>,
    /// Index of the fastest simulated configuration.
    pub best: Option<usize>,
    /// Candidates removed from the search by evaluation failures, in
    /// candidate-index order — the degraded-mode section of the report.
    /// The search result covers the rest of the space; each entry
    /// records what failed and after how many attempts.
    pub quarantined: Vec<Quarantine>,
    /// What the evaluation engine did: parallelism, unique simulations,
    /// memo-cache hits, budget status, retries, quarantines.
    pub stats: EngineStats,
    /// Aggregated metrics snapshot derived from `stats`, with wall-clock
    /// runtime measurements attached when the engine carried an event
    /// sink.
    pub metrics: EngineMetrics,
    /// The declarative selection (`--filter`/`--sample`) this search ran
    /// under, when the caller narrowed the space before searching. The
    /// run manifest records it so a sharded sweep stays reconstructible.
    pub selection: Option<SelectionRecord>,
}

impl SearchReport {
    /// Number of valid (launchable) configurations.
    pub fn valid_count(&self) -> usize {
        self.statics.iter().flatten().count()
    }

    /// Number of configurations this strategy actually timed — the
    /// "Selected Configurations" column of Table 4.
    pub fn evaluated_count(&self) -> usize {
        self.simulated.iter().flatten().count()
    }

    /// Sum of simulated kernel times over the timed configurations — the
    /// "Evaluation Time" columns of Table 4 (time a developer would
    /// spend running them on hardware).
    pub fn evaluation_time_ms(&self) -> f64 {
        // fold, not sum: an empty f64 sum is -0.0, which would print as
        // "-0.0 us" for an empty selection.
        self.simulated.iter().flatten().map(|t| t.time_ms).fold(0.0, |a, b| a + b)
    }

    /// Best (minimum) simulated time.
    pub fn best_time_ms(&self) -> Option<f64> {
        self.best.and_then(|i| self.simulated[i].as_ref()).map(|t| t.time_ms)
    }

    /// Fraction of the valid space this strategy did *not* have to time —
    /// the "Space Reduction" column of Table 4.
    pub fn space_reduction(&self) -> f64 {
        let valid = self.valid_count();
        if valid == 0 {
            return 0.0;
        }
        1.0 - self.evaluated_count() as f64 / valid as f64
    }

    /// Number of candidates quarantined by evaluation failures.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.len()
    }

    /// Fraction of the space with a definitive outcome (a result or a
    /// deliberate non-selection), i.e. everything except quarantined
    /// candidates. `1.0` means the search saw the whole space.
    pub fn coverage(&self) -> f64 {
        if self.space_size == 0 {
            return 1.0;
        }
        1.0 - self.quarantined.len() as f64 / self.space_size as f64
    }

    fn pick_best(&mut self) {
        self.best = self
            .simulated
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.as_ref().map(|t| (i, t.time_ms)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, _)| i);
    }
}

/// A search strategy: a selection policy executed by the shared
/// [`EvalEngine`].
pub trait SearchStrategy {
    /// Strategy name for report rows.
    fn name(&self) -> String;

    /// Metric variant used for static evaluation.
    fn metrics_options(&self) -> MetricsOptions {
        MetricsOptions::default()
    }

    /// Choose which candidate indices to timing-simulate, given the
    /// static evaluations. Returned indices must refer to valid
    /// (`Some`) entries of `statics`.
    fn select(&self, statics: &[Option<Evaluated>]) -> Vec<usize>;

    /// Run on a default engine: one worker, no budget — the reference
    /// sequential path.
    fn run(&self, candidates: &[Candidate], spec: &MachineSpec) -> SearchReport {
        self.run_with(&EvalEngine::default(), candidates, spec)
    }

    /// Run on an explicit engine over an eager, materialized slice.
    fn run_with(
        &self,
        engine: &EvalEngine,
        candidates: &[Candidate],
        spec: &MachineSpec,
    ) -> SearchReport {
        self.run_source(engine, &candidates, spec)
    }

    /// Run on an explicit engine over any [`CandidateSource`] — an eager
    /// slice or a lazy point view instantiating candidates inside the
    /// worker pool. This is the single simulate loop in the crate:
    /// statics → select → memoized/parallel simulation. Reports are
    /// byte-identical between eager and lazy sources of the same space.
    fn run_source(
        &self,
        engine: &EvalEngine,
        source: &dyn CandidateSource,
        spec: &MachineSpec,
    ) -> SearchReport {
        engine.emit(
            EventKind::Begin,
            "search",
            vec![("strategy", Json::from(self.name())), ("space", Json::from(source.len()))],
        );
        engine.convergence().reset();
        let mut stats = engine.stats_seed();
        let mut quarantined: Vec<Quarantine> = Vec::new();
        let statics = engine.evaluate_statics(
            &MetricsEval {
                options: self.metrics_options(),
                verify: false,
                check_races: engine.config.check_races,
            },
            source,
            spec,
            &mut stats,
            &mut quarantined,
        );
        let selected = self.select(&statics);
        let simulated = engine.simulate_selected(
            &SimulatorEval::from_config(&engine.config),
            source,
            &statics,
            &selected,
            spec,
            &mut stats,
            &mut quarantined,
        );
        finish_report(engine, self.name(), source.len(), statics, simulated, quarantined, stats)
    }
}

/// Close out a search: sort the quarantine section, pick the best
/// result, finish the convergence curve, attach metrics, and emit the
/// closing trace events. Shared by every search runner so the report
/// shape and trace structure cannot drift between strategies.
fn finish_report(
    engine: &EvalEngine,
    strategy: String,
    space_size: usize,
    statics: Vec<Option<Evaluated>>,
    simulated: Vec<Option<TimingReport>>,
    mut quarantined: Vec<Quarantine>,
    stats: EngineStats,
) -> SearchReport {
    // Static- and timing-phase entries each arrive in index order;
    // merge them into one index-ordered section.
    quarantined.sort_by_key(|q| q.candidate);
    let mut report = SearchReport {
        strategy,
        space_size,
        statics,
        simulated,
        best: None,
        quarantined,
        stats,
        metrics: EngineMetrics::default(),
        selection: None,
    };
    report.pick_best();
    engine.convergence().finish(report.stats.bound_pruned_points as u64);
    report.metrics =
        EngineMetrics::from_stats(&report.stats).with_convergence(engine.convergence().curve());
    if let Some(sink) = engine.sink() {
        report.metrics = report.metrics.clone().with_runtime(RuntimeMetrics::from_counters(
            sink.runtime_counters(),
            report.stats.jobs,
        ));
    }
    engine.emit(EventKind::Counter, "engine.metrics", report.metrics.deterministic_fields());
    engine.emit(
        EventKind::End,
        "search",
        vec![
            ("best", Json::from(report.best)),
            ("best_time_ms", Json::from(report.best_time_ms())),
            ("timed", Json::from(report.evaluated_count())),
        ],
    );
    report
}

/// What an iterative strategy sees before its first proposal: the
/// statically evaluated space it is about to search.
pub struct IterationContext<'a> {
    /// Static evaluation per candidate in dense enumeration order;
    /// `None` marks invalid candidates (the driver never dispatches
    /// them, so strategies should not waste proposals there).
    pub statics: &'a [Option<Evaluated>],
    /// The candidate source under search.
    pub source: &'a dyn CandidateSource,
    /// Machine model.
    pub spec: &'a MachineSpec,
}

/// A feedback-driven search strategy: batches of candidate proposals
/// alternating with observed timing results, the protocol one-shot
/// [`SearchStrategy::select`] cannot express.
///
/// Contract (enforced in part by [`EvalEngine::drive_iterative`]):
///
/// * **Per-round seeding** — any randomness inside `propose` must be a
///   pure function of `(strategy seed, round index)`, never of wall
///   clock or iteration timing, so runs are byte-identical at any
///   worker count.
/// * **No re-proposals** — every observation is final. A failed
///   (quarantined) candidate is observed with `time_ms: None` exactly
///   once and must be written off; the driver silently drops any index
///   that already has a verdict.
/// * **Termination** — an empty batch ends the search. Budgeted
///   strategies stop proposing once their budget is spent; the engine
///   additionally cuts the loop when its own sim/deadline budget trips.
pub trait IterativeStrategy {
    /// Strategy name for report rows. Seeded strategies include their
    /// seed (`hill-64-s7`) so two runs differing only in seed stay
    /// distinguishable in manifests and BENCH keys.
    fn name(&self) -> String;

    /// Metric variant used for static evaluation.
    fn metrics_options(&self) -> MetricsOptions {
        MetricsOptions::default()
    }

    /// Called once per search, before the first `propose`.
    fn begin(&mut self, ctx: &IterationContext);

    /// Next batch of candidate indices given the previous batch's
    /// decided outcomes (empty slice on the first call).
    fn propose(&mut self, observed: &[Observation]) -> Vec<usize>;
}

/// Run an iterative strategy end to end on an engine: statics, then
/// proposal rounds through [`EvalEngine::drive_iterative`], then the
/// standard report. The search loop mirrors
/// [`SearchStrategy::run_source`] exactly, so iterative reports carry
/// the same convergence curves, metrics, and trace structure as
/// one-shot ones.
///
/// Checkpointing is not supported for iterative strategies (their
/// internal state is not snapshotted); callers must reject
/// `--checkpoint`/`--resume` before getting here.
pub fn run_iterative(
    strategy: &mut dyn IterativeStrategy,
    engine: &EvalEngine,
    source: &dyn CandidateSource,
    spec: &MachineSpec,
) -> SearchReport {
    engine.emit(
        EventKind::Begin,
        "search",
        vec![("strategy", Json::from(strategy.name())), ("space", Json::from(source.len()))],
    );
    engine.convergence().reset();
    let mut stats = engine.stats_seed();
    let mut quarantined: Vec<Quarantine> = Vec::new();
    let statics = engine.evaluate_statics(
        &MetricsEval {
            options: strategy.metrics_options(),
            verify: false,
            check_races: engine.config.check_races,
        },
        source,
        spec,
        &mut stats,
        &mut quarantined,
    );
    strategy.begin(&IterationContext { statics: &statics, source, spec });
    struct Adapter<'a>(&'a mut dyn IterativeStrategy);
    impl Proposer for Adapter<'_> {
        fn propose(&mut self, observed: &[Observation]) -> Vec<usize> {
            self.0.propose(observed)
        }
    }
    let simulated = engine.drive_iterative(
        &SimulatorEval::from_config(&engine.config),
        source,
        &statics,
        &mut Adapter(strategy),
        spec,
        &mut stats,
        &mut quarantined,
    );
    finish_report(engine, strategy.name(), source.len(), statics, simulated, quarantined, stats)
}

/// All valid candidate indices, in order.
fn valid_indices(statics: &[Option<Evaluated>]) -> Vec<usize> {
    statics.iter().enumerate().filter_map(|(i, e)| e.as_ref().map(|_| i)).collect()
}

/// Simulate every valid configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExhaustiveSearch;

impl SearchStrategy for ExhaustiveSearch {
    fn name(&self) -> String {
        "exhaustive".into()
    }

    fn select(&self, statics: &[Option<Evaluated>]) -> Vec<usize> {
        valid_indices(statics)
    }
}

/// The paper's Pareto-pruned search.
#[derive(Debug, Clone, Copy)]
pub struct PrunedSearch {
    /// Screen bandwidth-bound configurations before building the curve
    /// (section 5.3). Disabling this is the `ablation_bandwidth`
    /// experiment.
    pub screen_bandwidth: bool,
    /// Metric variant.
    pub options: MetricsOptions,
    /// Cluster resolution (section 5.2): when set, normalized metrics
    /// are rounded to this grid before the Pareto step, so
    /// configurations with "identical or nearly identical metrics" —
    /// the Figure 6(b) clusters — survive dominance *together*, as they
    /// do in the paper's selected sets.
    pub metric_resolution: Option<f64>,
    /// With clustering active, simulate only one representative per
    /// cluster ("it may be sufficient to randomly select a single
    /// configuration from that cluster", section 5.2).
    pub cluster_sample: bool,
}

impl Default for PrunedSearch {
    fn default() -> Self {
        Self {
            screen_bandwidth: true,
            options: MetricsOptions::default(),
            metric_resolution: None,
            cluster_sample: false,
        }
    }
}

impl SearchStrategy for PrunedSearch {
    fn name(&self) -> String {
        "pareto-pruned".into()
    }

    fn metrics_options(&self) -> MetricsOptions {
        self.options
    }

    fn select(&self, statics: &[Option<Evaluated>]) -> Vec<usize> {
        // Candidates entering the plot: valid, and (optionally) not
        // bandwidth-bound. If the screen removes everything (a fully
        // bandwidth-bound space), fall back to the unscreened plot.
        // Carry the evaluation alongside its index so "eligible" cannot
        // drift out of sync with "valid" — no unwrap needed downstream.
        let eligible: Vec<(usize, &Evaluated)> = {
            let valid: Vec<(usize, &Evaluated)> =
                statics.iter().enumerate().filter_map(|(i, e)| Some((i, e.as_ref()?))).collect();
            let screened: Vec<(usize, &Evaluated)> = valid
                .iter()
                .copied()
                .filter(|(_, e)| !self.screen_bandwidth || !e.bandwidth.is_bandwidth_bound())
                .collect();
            if screened.is_empty() {
                valid
            } else {
                screened
            }
        };
        let mut points: Vec<crate::pareto::Point> =
            eligible.iter().map(|(_, e)| e.metrics.point()).collect();
        if let Some(res) = self.metric_resolution {
            // Normalise per axis, then snap to the resolution grid.
            let mx = points.iter().map(|p| p.x).fold(0.0f64, f64::max);
            let my = points.iter().map(|p| p.y).fold(0.0f64, f64::max);
            for p in &mut points {
                if mx > 0.0 {
                    p.x = (p.x / mx / res).round() * res;
                }
                if my > 0.0 {
                    p.y = (p.y / my / res).round() * res;
                }
            }
        }
        let mut selected: Vec<usize> = pareto_indices(&points);

        if self.cluster_sample && self.metric_resolution.is_some() {
            // One representative per rounded coordinate (the first in
            // enumeration order — deterministic).
            let mut seen: Vec<(u64, u64)> = Vec::new();
            selected.retain(|&k| {
                let key = (points[k].x.to_bits(), points[k].y.to_bits());
                if seen.contains(&key) {
                    false
                } else {
                    seen.push(key);
                    true
                }
            });
        }
        selected.into_iter().map(|k| eligible[k].0).collect()
    }
}

/// Random sampling of the valid space with a fixed budget.
#[derive(Debug, Clone, Copy)]
pub struct RandomSearch {
    /// How many configurations to simulate.
    pub budget: usize,
    /// RNG seed (deterministic experiments).
    pub seed: u64,
}

impl RandomSearch {
    /// Validated constructor — the canonical entry point for CLI and
    /// bench wiring. A zero budget selects nothing and would report an
    /// empty search as if it had run; refuse it up front.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    pub fn new(budget: usize, seed: u64) -> Self {
        assert!(budget >= 1, "a budgeted strategy needs a budget >= 1");
        Self { budget, seed }
    }
}

impl SearchStrategy for RandomSearch {
    fn name(&self) -> String {
        // Budget *and* seed: two runs differing only in seed must stay
        // distinguishable in manifests, profiles, and BENCH json keys.
        format!("random-{}-s{}", self.budget, self.seed)
    }

    fn select(&self, statics: &[Option<Evaluated>]) -> Vec<usize> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let mut picks = valid_indices(statics);
        picks.shuffle(&mut rng);
        picks.truncate(self.budget);
        picks
    }
}

/// Best-first branch-and-bound over a structured [`Space`]: subspaces
/// ([`crate::space::PartialPoint`]s) sit on a frontier keyed by an admissible
/// [`LowerBound`], and a subspace whose bound exceeds the incumbent
/// (best simulated time so far) is discarded *whole* — none of its
/// interior points is ever instantiated. This is the refactor the
/// Telamon line of work motivates: prune subspaces, not candidates.
///
/// Exactness: pruning is strictly `bound > incumbent`, so any point at
/// least as fast as the final optimum has `floor ≤ optimum ≤ incumbent`
/// at every moment and can never be pruned — it is simulated, and
/// `SearchReport::pick_best`'s first-index tie-break then matches
/// exhaustive search configuration-for-configuration.
///
/// Determinism: the frontier is a binary min-heap ordered by
/// `(bound, first_grid_rank)` — total on coexisting frontier nodes
/// because splitting always binds the first unbound axis, so two
/// coexisting subspaces differ somewhere in their common bound prefix
/// and thus in their first grid rank. The main loop is sequential;
/// worker parallelism lives entirely inside the engine's batch calls,
/// which reassemble in deterministic order. Reports are therefore
/// byte-identical at any `--jobs`.
///
/// Work is done once per search: aliased probe corners share one
/// instantiation through the bound's rank memo (after
/// [`Instantiator::legalize`] snaps them), and the per-batch engine
/// calls share a search-scoped timing memo, so a program an earlier
/// batch simulated is a cache hit — no `max_sims`, fuel or dispatch —
/// in every later batch.
///
/// A child's key is `max(parent key, child bound)`, which makes the
/// popped-key sequence non-decreasing even if a bound implementation
/// loses monotonicity to legalization; combined with a monotonically
/// non-increasing incumbent, the *first* prune decision ends the
/// search — everything still on the heap is pruned in one drain.
///
/// Used through [`BranchAndBound::run_space`]; the [`SearchStrategy`]
/// impl exists so `bnb` slots into strategy tables, but over a plain
/// candidate slice (no space structure to split) it degenerates to
/// exhaustive selection.
#[derive(Debug, Clone, Copy, Default)]
pub struct BranchAndBound;

/// A frontier entry: a subspace and its heap key. Ordered as a
/// *min*-heap element on `(key, first grid rank)`.
struct FrontierNode {
    key: f64,
    rank: usize,
    partial: crate::space::PartialPoint,
}

impl PartialEq for FrontierNode {
    fn eq(&self, other: &Self) -> bool {
        self.key.total_cmp(&other.key).is_eq() && self.rank == other.rank
    }
}
impl Eq for FrontierNode {}
impl PartialOrd for FrontierNode {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FrontierNode {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest
        // (bound, rank) on top.
        other.key.total_cmp(&self.key).then_with(|| other.rank.cmp(&self.rank))
    }
}

impl SearchStrategy for BranchAndBound {
    fn name(&self) -> String {
        "bnb".into()
    }

    /// Over a flat slice there is no subspace structure to bound, so
    /// the fallback selection is exhaustive. The real entry point is
    /// [`BranchAndBound::run_space`].
    fn select(&self, statics: &[Option<Evaluated>]) -> Vec<usize> {
        valid_indices(statics)
    }
}

impl BranchAndBound {
    /// Run branch-and-bound over a structured space with the production
    /// [`ProbeBound`]. Only frontier leaves that survive bounding reach
    /// instantiation and simulation; everything else is accounted in
    /// `stats.bound_pruned_subspaces` / `stats.bound_pruned_points`.
    pub fn run_space(
        &self,
        engine: &EvalEngine,
        space: &Space,
        inst: &dyn Instantiator,
        spec: &MachineSpec,
    ) -> SearchReport {
        engine.emit(
            EventKind::Begin,
            "search",
            vec![("strategy", Json::from(self.name())), ("space", Json::from(space.len()))],
        );
        engine.convergence().reset();
        let bound = ProbeBound::new(space, inst, spec);
        // Every batch clones this engine, so all of them share one
        // timing memo that lives exactly as long as this search.
        let search_engine = engine.clone().with_search_memo();
        let mut stats = engine.stats_seed();
        let mut quarantined: Vec<Quarantine> = Vec::new();

        let n = space.len();
        let mut statics: Vec<Option<Evaluated>> = vec![None; n];
        let mut simulated: Vec<Option<TimingReport>> = vec![None; n];

        // Completions carry full-grid ranks; report vectors are indexed
        // by the dense admitted ordering (`Space::points`). When the
        // constraints exclude nothing the two coincide.
        let constrained = space.len() != space.grid_len();
        let dense_of: HashMap<usize, usize> = if constrained {
            space.partial().completions().enumerate().map(|(d, p)| (p.ordinal(), d)).collect()
        } else {
            HashMap::new()
        };
        let dense = |grid_rank: usize| -> usize {
            if constrained {
                dense_of[&grid_rank]
            } else {
                grid_rank
            }
        };

        let mut heap: BinaryHeap<FrontierNode> = BinaryHeap::new();
        if n > 0 {
            let root = space.partial();
            let key = bound.bound_ms(&root);
            heap.push(FrontierNode { key, rank: root.first_grid_rank(), partial: root });
        }

        let mut incumbent = f64::INFINITY;
        let mut incumbent_rank: Option<usize> = None;
        let mut completed_ranks: Vec<usize> = Vec::new();
        let mut spent_ms = 0.0f64;
        let mut pruned: Vec<crate::space::PartialPoint> = Vec::new();

        while let Some(node) = heap.pop() {
            if node.key > incumbent {
                // Popped keys are non-decreasing and the incumbent only
                // improves, so the first prune decision is terminal:
                // everything still on the heap is at least as bounded.
                engine.emit(
                    EventKind::Point,
                    "bound.prune",
                    vec![
                        ("subspaces", Json::from(heap.len() + 1)),
                        ("first", Json::from(node.partial.to_string())),
                        ("bound_ms", Json::from(node.key)),
                        ("incumbent_ms", Json::from(incumbent)),
                    ],
                );
                pruned.push(node.partial);
                while let Some(rest) = heap.pop() {
                    pruned.push(rest.partial);
                }
                break;
            }
            if node.partial.is_complete() {
                // Batch the maximal run of ready leaves so the engine's
                // per-call memoization and family forking see as many
                // related points together as possible.
                let mut points = vec![node.partial.as_point().expect("complete")];
                while let Some(top) = heap.peek() {
                    if top.partial.is_complete() && top.key <= incumbent {
                        let leaf = heap.pop().expect("peeked");
                        points.push(leaf.partial.as_point().expect("complete"));
                    } else {
                        break;
                    }
                }
                let ranks: Vec<usize> = points.iter().map(crate::space::Point::ordinal).collect();
                let batch = PointBatch::new(points, inst);

                // Budgets are enforced per engine call; hand each batch
                // only what the whole search has left.
                let mut batch_engine = search_engine.clone();
                if let Some(cap) = engine.config.budget.max_sims {
                    batch_engine.config.budget.max_sims =
                        Some(cap.saturating_sub(stats.unique_sims));
                }
                if let Some(deadline) = engine.config.budget.deadline_ms {
                    batch_engine.config.budget.deadline_ms = Some(deadline - spent_ms);
                }

                let mut batch_quar: Vec<Quarantine> = Vec::new();
                let batch_statics = batch_engine.evaluate_statics(
                    &MetricsEval {
                        options: self.metrics_options(),
                        verify: false,
                        check_races: engine.config.check_races,
                    },
                    &batch,
                    spec,
                    &mut stats,
                    &mut batch_quar,
                );
                let selected = valid_indices(&batch_statics);
                let batch_sims = batch_engine.simulate_selected(
                    &SimulatorEval::from_config(&engine.config),
                    &batch,
                    &batch_statics,
                    &selected,
                    spec,
                    &mut stats,
                    &mut batch_quar,
                );
                for (local, grid_rank) in ranks.iter().copied().enumerate() {
                    let d = dense(grid_rank);
                    statics[d] = batch_statics[local].clone();
                    if let Some(t) = &batch_sims[local] {
                        if t.time_ms < incumbent {
                            incumbent = t.time_ms;
                            incumbent_rank = Some(grid_rank);
                        }
                        spent_ms += t.time_ms;
                    }
                    simulated[d] = batch_sims[local].clone();
                    // "Completed" means the leaf reached a verdict: it
                    // simulated, or its statics rejected it. A leaf the
                    // engine never dispatched (budget- or interrupt-
                    // truncated) has statics but no timing and stays
                    // out of the snapshot.
                    if batch_sims[local].is_some() || batch_statics[local].is_none() {
                        completed_ranks.push(grid_rank);
                    }
                }
                for mut q in batch_quar {
                    q.candidate = dense(ranks[q.candidate]);
                    quarantined.push(q);
                }
                if let Some(ck) = engine.checkpoint() {
                    // Snapshot the search state after every batch so a
                    // checkpoint written mid-search carries a coherent
                    // frontier. Resume replays the whole search from
                    // the start (results served from the checkpoint),
                    // so this snapshot is diagnostic, not load-bearing
                    // for correctness — but it must stay deterministic.
                    let mut frontier: Vec<FrontierSnapshot> = heap
                        .iter()
                        .map(|f| FrontierSnapshot {
                            bound_ms: f.key,
                            bindings: f.partial.bindings().to_vec(),
                        })
                        .collect();
                    frontier.sort_by(|a, b| {
                        a.bound_ms.total_cmp(&b.bound_ms).then_with(|| a.bindings.cmp(&b.bindings))
                    });
                    ck.set_search_state(SearchState {
                        incumbent_rank,
                        incumbent_ms: incumbent.is_finite().then_some(incumbent),
                        frontier,
                        completed_ranks: completed_ranks.clone(),
                    });
                }
                if stats.budget_truncated {
                    // The budget, not the bound, cut this search short;
                    // the remaining frontier is abandoned, not pruned.
                    break;
                }
                if engine.stop_requested() {
                    // Interrupted (or a deterministic stop-after tripped):
                    // abandon the frontier like a budget truncation. The
                    // caller publishes the final checkpoint; resume
                    // replays the search from the top and sails past
                    // everything recorded so far.
                    break;
                }
            } else {
                for child in node.partial.split() {
                    if constrained && child.completions().next().is_none() {
                        // Constraint-empty, exactly the configurations
                        // exhaustive search never enumerates either.
                        continue;
                    }
                    let key = bound.bound_ms(&child).max(node.key);
                    heap.push(FrontierNode { key, rank: child.first_grid_rank(), partial: child });
                }
            }
        }

        stats.bound_pruned_subspaces = pruned.len();
        stats.bound_pruned_points = pruned_points(space, &pruned, &bound.instantiated_ranks());

        finish_report(engine, self.name(), n, statics, simulated, quarantined, stats)
    }
}

/// Honest elimination accounting: of each pruned subspace's admitted
/// completions, the `probed` corners the bound itself instantiated
/// *were* instantiated — only the rest were eliminated sight unseen.
///
/// `split` binds the first unbound axis, so every pruned subspace binds
/// a prefix of the axes, and frontier subspaces are disjoint. A probed
/// rank therefore lies in at most one pruned subspace — the one keyed by
/// a prefix of the rank's own bindings — found in at most n+1 lookups.
fn pruned_points(space: &Space, pruned: &[crate::space::PartialPoint], probed: &[usize]) -> usize {
    let axes = space.axes().len();
    let by_prefix: HashMap<&[Option<usize>], usize> = pruned
        .iter()
        .enumerate()
        .map(|(k, sub)| {
            let prefix = sub.split_axis().unwrap_or(axes);
            debug_assert!(sub.bindings()[prefix..].iter().all(Option::is_none), "{sub}");
            (&sub.bindings()[..prefix], k)
        })
        .collect();
    debug_assert_eq!(by_prefix.len(), pruned.len(), "pruned subspaces repeat");
    let mut inside = vec![0usize; pruned.len()];
    for &rank in probed {
        let Some(point) = space.point_at_grid_rank(rank) else { continue };
        let leaf = point.to_partial();
        let owner = (0..=axes).find_map(|len| by_prefix.get(&leaf.bindings()[..len]).copied());
        if let Some(k) = owner.filter(|&k| pruned[k].contains_admitted_rank(rank)) {
            inside[k] += 1;
        }
    }
    pruned.iter().zip(inside).map(|(sub, n)| sub.admitted_count().saturating_sub(n)).sum()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gpu_ir::build::KernelBuilder;
    use gpu_ir::{Dim, Kernel, Launch};

    /// A small synthetic space: a compute loop whose per-thread work and
    /// register appetite vary with a "tiling" knob, so configurations
    /// genuinely trade efficiency against utilization.
    pub(super) fn synthetic_space_for_debug() -> Vec<Candidate> {
        synthetic_space()
    }
    fn synthetic_space() -> Vec<Candidate> {
        fn kernel(tile: u32, pad_regs: u32) -> Kernel {
            let mut b = KernelBuilder::new(format!("syn{tile}"));
            let p = b.param(0);
            // pad_regs long-lived values inflate register pressure.
            let pads: Vec<_> = (0..pad_regs).map(|i| b.mov(i as f32)).collect();
            let acc = b.mov(0.0f32);
            b.repeat(64 / tile, |b| {
                let x = b.ld_global(p, 0);
                for _ in 0..tile {
                    b.fmad_acc(x, 1.0f32, acc);
                }
                b.sync();
            });
            for pad in pads {
                b.fmad_acc(pad, 0.0f32, acc);
            }
            b.st_global(p, 0, acc);
            b.finish()
        }
        let mut out = Vec::new();
        for tile in [1u32, 2, 4, 8] {
            for pad in [0u32, 8, 20] {
                let total = 1u32 << 14;
                let tpb = 256;
                out.push(Candidate::new(
                    format!("tile={tile}/pad={pad}"),
                    kernel(tile, pad),
                    Launch::new(Dim::new_1d(total / tpb), Dim::new_1d(tpb)),
                ));
            }
        }
        // One deliberately invalid configuration: huge register demand
        // at 512 threads.
        out.push(Candidate::new(
            "invalid",
            kernel(1, 40),
            Launch::new(Dim::new_1d(32), Dim::new_1d(512)),
        ));
        out
    }

    fn g80() -> MachineSpec {
        MachineSpec::geforce_8800_gtx()
    }

    #[test]
    fn exhaustive_times_every_valid_config() {
        let space = synthetic_space();
        let r = ExhaustiveSearch.run(&space, &g80());
        assert_eq!(r.space_size, 13);
        assert_eq!(r.valid_count(), 12);
        assert_eq!(r.evaluated_count(), 12);
        assert!(r.best.is_some());
        assert_eq!(r.space_reduction(), 0.0);
        assert_eq!(r.stats.static_evals, 13);
        assert_eq!(r.stats.timed, 12);
    }

    #[test]
    fn pruned_search_times_a_subset_and_finds_the_optimum() {
        let space = synthetic_space();
        let exhaustive = ExhaustiveSearch.run(&space, &g80());
        let pruned = PrunedSearch::default().run(&space, &g80());
        assert!(pruned.evaluated_count() < exhaustive.evaluated_count());
        assert!(pruned.space_reduction() > 0.0);
        // The pruned search must land on the same optimum (the paper's
        // central claim, here on the synthetic space).
        let best_ex = exhaustive.best_time_ms().unwrap();
        let best_pr = pruned.best_time_ms().unwrap();
        assert!(
            (best_pr / best_ex - 1.0).abs() < 1e-9,
            "pruned best {best_pr} != exhaustive best {best_ex}"
        );
    }

    #[test]
    fn random_search_respects_budget_and_determinism() {
        let space = synthetic_space();
        let a = RandomSearch { budget: 5, seed: 42 }.run(&space, &g80());
        let b = RandomSearch { budget: 5, seed: 42 }.run(&space, &g80());
        assert_eq!(a.evaluated_count(), 5);
        assert_eq!(a.best, b.best);
        let c = RandomSearch { budget: 100, seed: 7 }.run(&space, &g80());
        assert_eq!(c.evaluated_count(), 12); // clamped to valid space
    }

    #[test]
    fn evaluation_time_sums_selected_only() {
        let space = synthetic_space();
        let pruned = PrunedSearch::default().run(&space, &g80());
        let exhaustive = ExhaustiveSearch.run(&space, &g80());
        assert!(pruned.evaluation_time_ms() < exhaustive.evaluation_time_ms());
        assert!(pruned.evaluation_time_ms() > 0.0);
    }

    #[test]
    fn invalid_configurations_are_never_simulated() {
        let space = synthetic_space();
        let r = ExhaustiveSearch.run(&space, &g80());
        assert!(r.statics[12].is_none());
        assert!(r.simulated[12].is_none());
    }

    /// The synthetic space as a structured `Space` + `Instantiator`,
    /// for exercising subspace search in-crate.
    pub(crate) struct SyntheticInst;

    impl crate::space::Instantiator for SyntheticInst {
        fn instantiate(&self, p: &crate::space::Point) -> Candidate {
            let space = synthetic_space();
            let (tile, pad) = (p.u32("tile"), p.u32("pad"));
            space
                .into_iter()
                .find(|c| c.label == format!("tile={tile}/pad={pad}"))
                .expect("point maps to a synthetic candidate")
        }
    }

    pub(crate) fn synthetic_structured() -> Space {
        Space::builder().axis("tile", [1u32, 2, 4, 8]).axis("pad", [0u32, 8, 20]).build()
    }

    #[test]
    fn branch_and_bound_matches_exhaustive_with_fewer_sims() {
        let spec = g80();
        let space = synthetic_structured();
        let inst = SyntheticInst;
        // Exhaustive over the same 12 candidates (the structured space
        // omits the deliberately-invalid 13th configuration).
        let eager: Vec<Candidate> = space.points().map(|p| inst.instantiate(&p)).collect();
        let ex = ExhaustiveSearch.run(&eager, &spec);
        let bb = BranchAndBound.run_space(&EvalEngine::default(), &space, &inst, &spec);
        assert_eq!(bb.strategy, "bnb");
        assert_eq!(bb.space_size, 12);
        assert_eq!(bb.best_time_ms(), ex.best_time_ms());
        assert_eq!(bb.best, ex.best);
        assert!(
            bb.stats.unique_sims < ex.stats.unique_sims,
            "bnb {} sims !< exhaustive {}",
            bb.stats.unique_sims,
            ex.stats.unique_sims
        );
        assert!(bb.stats.bound_pruned_subspaces > 0);
        // With only two axes, the conditioned calibration sweeps probe
        // every point of every pruned subspace, so the points counter
        // stays honest at zero here; `tests/branch_and_bound.rs` pins
        // it nonzero on the real (deeper) application spaces.
        assert!(bb.stats.bound_pruned_points + bb.evaluated_count() <= bb.space_size);
    }

    /// The prefix-indexed accounting agrees with testing every probed
    /// rank against every pruned subspace, on random frontiers of a
    /// constrained space.
    #[test]
    fn pruned_points_match_the_pairwise_definition() {
        use rand::Rng;
        let space = Space::builder()
            .axis("a", [1u32, 2, 3])
            .axis("b", [1u32, 2, 3, 4])
            .axis("c", [0u32, 1])
            .axis("d", [1u32, 2, 3])
            .constraint("a divides b", |p| p.u32("b").is_multiple_of(p.u32("a")))
            .build();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..200 {
            // A frontier grown the way run_space grows one: split a node
            // into its constraint-admitting children.
            let mut frontier = vec![space.partial()];
            for _ in 0..rng.gen_range(0..12) {
                let k = rng.gen_range(0..frontier.len());
                if frontier[k].is_complete() {
                    continue;
                }
                let node = frontier.swap_remove(k);
                frontier
                    .extend(node.split().into_iter().filter(|c| c.completions().next().is_some()));
            }
            let pruned: Vec<_> =
                frontier.into_iter().filter(|_| rng.gen_range(0..10) < 6).collect();
            let probed: Vec<usize> =
                (0..rng.gen_range(0..40)).map(|_| rng.gen_range(0..space.grid_len() + 4)).collect();
            let pairwise: usize = pruned
                .iter()
                .map(|sub| {
                    let hit = probed.iter().filter(|&&r| sub.contains_admitted_rank(r)).count();
                    sub.admitted_count().saturating_sub(hit)
                })
                .sum();
            assert_eq!(pruned_points(&space, &pruned, &probed), pairwise);
        }
    }

    #[test]
    fn branch_and_bound_is_jobs_invariant() {
        let spec = g80();
        let space = synthetic_structured();
        let inst = SyntheticInst;
        let seq = BranchAndBound.run_space(&EvalEngine::default(), &space, &inst, &spec);
        for jobs in [2usize, 8] {
            let par = BranchAndBound.run_space(&EvalEngine::with_jobs(jobs), &space, &inst, &spec);
            assert_eq!(seq.best, par.best);
            assert_eq!(seq.simulated, par.simulated);
            assert_eq!(seq.stats.unique_sims, par.stats.unique_sims);
            assert_eq!(seq.stats.bound_pruned_subspaces, par.stats.bound_pruned_subspaces);
            assert_eq!(seq.stats.bound_pruned_points, par.stats.bound_pruned_points);
        }
    }

    #[test]
    fn branch_and_bound_respects_sim_budget() {
        let spec = g80();
        let space = synthetic_structured();
        let inst = SyntheticInst;
        let free = BranchAndBound.run_space(&EvalEngine::default(), &space, &inst, &spec);
        assert!(free.stats.unique_sims >= 1);
        // Cap the search below what it wants: it must stop at the cap
        // and say so.
        let cap = free.stats.unique_sims.saturating_sub(1);
        let mut engine = EvalEngine::default();
        engine.config.budget = crate::engine::EvalBudget::with_max_sims(cap);
        let r = BranchAndBound.run_space(&engine, &space, &inst, &spec);
        assert!(r.stats.unique_sims <= cap);
        assert!(r.stats.budget_truncated);
    }

    /// The engine path with >1 worker must reproduce the sequential
    /// report field-for-field on every strategy.
    #[test]
    fn parallel_engine_reproduces_sequential_reports() {
        let space = synthetic_space();
        let spec = g80();
        let engine = EvalEngine::with_jobs(4);
        for strategy in [
            &ExhaustiveSearch as &dyn SearchStrategy,
            &PrunedSearch::default(),
            &RandomSearch { budget: 5, seed: 42 },
        ] {
            let seq = strategy.run(&space, &spec);
            let par = strategy.run_with(&engine, &space, &spec);
            assert_eq!(seq.best, par.best, "{}", seq.strategy);
            assert_eq!(seq.simulated, par.simulated, "{}", seq.strategy);
            assert_eq!(par.stats.jobs, 4);
            assert_eq!(seq.stats.unique_sims, par.stats.unique_sims);
        }
    }
}

#[cfg(test)]
mod debug_dump {
    use super::tests::synthetic_space_for_debug;
    use super::*;
    use crate::obs::{EventSink, Scope};
    use std::sync::Arc;

    /// Dump the synthetic space through the event sink instead of ad-hoc
    /// `println!` formatting: one structured `debug.candidate` event per
    /// configuration, printed as the same JSONL the `--trace-out` flag
    /// writes. Run with `cargo test -p optspace dump -- --ignored
    /// --nocapture`.
    #[test]
    #[ignore]
    fn dump() {
        let space = synthetic_space_for_debug();
        let spec = MachineSpec::geforce_8800_gtx();
        let sink = Arc::new(EventSink::new());
        let engine = EvalEngine::with_jobs(1).with_sink(Arc::clone(&sink));
        let ex = ExhaustiveSearch.run_with(&engine, &space, &spec);
        for (i, c) in space.iter().enumerate() {
            let s = ex.statics[i].as_ref();
            let t = ex.simulated[i].as_ref();
            sink.search(
                EventKind::Point,
                "debug.candidate",
                vec![
                    ("label", Json::from(c.label.as_str())),
                    ("efficiency", Json::from(s.map(|e| e.metrics.efficiency))),
                    ("utilization", Json::from(s.map(|e| e.metrics.utilization))),
                    ("bandwidth_pressure", Json::from(s.map(|e| e.bandwidth.pressure()))),
                    ("bandwidth_bound", Json::from(s.map(|e| e.bandwidth.is_bandwidth_bound()))),
                    ("regs", Json::from(s.map(|e| e.kernel_profile.usage.regs_per_thread))),
                    (
                        "blocks_per_sm",
                        Json::from(s.map(|e| e.kernel_profile.occupancy.blocks_per_sm)),
                    ),
                    ("time_ms", Json::from(t.map(|t| t.time_ms))),
                ],
            );
        }
        let trace = sink.drain();
        for event in &trace.events {
            if event.scope == Scope::Search && event.name == "debug.candidate" {
                println!("{}", event.canonical_line());
            }
        }
    }
}

#[cfg(test)]
mod cluster_tests {
    use super::*;
    use gpu_ir::build::KernelBuilder;
    use gpu_ir::{Dim, Kernel, Launch};

    /// A space with deliberate clusters: the `inv` knob splits work
    /// across invocations (metrics near-identical within a cluster), the
    /// `work` knob changes efficiency between clusters.
    fn clustered_space() -> Vec<Candidate> {
        fn kernel(work: u32, trips: u32) -> Kernel {
            let mut b = KernelBuilder::new("c");
            let p = b.param(0);
            let acc = b.mov(0.0f32);
            b.repeat(trips, |b| {
                let x = b.ld_global(p, 0);
                for _ in 0..work {
                    b.fmad_acc(x, 1.0f32, acc);
                }
            });
            b.st_global(p, 0, acc);
            b.finish()
        }
        let mut out = Vec::new();
        for work in [1u32, 2, 4] {
            for inv in [1u32, 2, 4, 8] {
                let total_trips = 64;
                out.push(
                    Candidate::new(
                        format!("w{work}/inv{inv}"),
                        kernel(work, total_trips / inv),
                        Launch::new(Dim::new_1d(256), Dim::new_1d(128)),
                    )
                    .with_invocations(inv),
                );
            }
        }
        out
    }

    #[test]
    fn clustering_retains_whole_clusters_and_sampling_thins_them() {
        let spec = MachineSpec::geforce_8800_gtx();
        let space = clustered_space();

        let exact = PrunedSearch::default().run(&space, &spec);
        let clustered =
            PrunedSearch { metric_resolution: Some(0.02), ..Default::default() }.run(&space, &spec);
        let sampled = PrunedSearch {
            metric_resolution: Some(0.02),
            cluster_sample: true,
            ..Default::default()
        }
        .run(&space, &spec);

        // Clustering keeps more configurations than exact dominance
        // (the near-identical invocation variants survive together)...
        assert!(
            clustered.evaluated_count() > exact.evaluated_count(),
            "clustered {} !> exact {}",
            clustered.evaluated_count(),
            exact.evaluated_count()
        );
        // ...and sampling collapses each cluster to one representative.
        assert!(sampled.evaluated_count() < clustered.evaluated_count());

        // The sampled search must land within the cluster's small
        // spread of the true optimum.
        let truth = ExhaustiveSearch.run(&space, &spec).best_time_ms().unwrap();
        let got = sampled.best_time_ms().unwrap();
        assert!(got / truth < 1.10, "sampled best {got} more than 10% off optimum {truth}");

        // The invocation clusters are exactly what the memo cache
        // collapses: the exhaustive run times 12 configurations out of
        // only 3 unique simulations (work variants), families included.
        let ex = ExhaustiveSearch.run(&space, &spec);
        assert_eq!(ex.stats.timed, 12);
        assert_eq!(ex.stats.unique_sims, 3);
        assert_eq!(ex.stats.cache_hits, 9);
    }
}
