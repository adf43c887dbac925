//! The traced run's per-layer numbers, gathered from outside the
//! library in three ways:
//!
//! * **wrappers** — [`Instrumented`](crate::workload::Instrumented)
//!   times every instantiation the search asks for, split into bound
//!   probes and candidate instantiations;
//! * **engine sink** — the engine's own [`EventSink`] counters: phase
//!   walls, worker busy time, spawns, and per-lane call counts;
//! * **layer replay** — a seeded sample of the unit's timed
//!   configurations re-run through each layer's public function, one
//!   call at a time. The sink's latency lanes are log₂ buckets, so exact
//!   per-call costs come from here, multiplied by the exact call counts
//!   where a layer's busy time is wanted.
//!
//! [`blocking_rows`] splits the traced wall into the layers that block
//! the search's result; what none of them covers is the orchestrator
//! remainder, `tuner.unattributed`.
//!
//! Which end-to-end metric each layer should move, and where (a layer
//! reads zero, or stays flat, on the workloads listed after the slash):
//!
//! | layer (module)                   | moves                    | on / flat on                      |
//! |----------------------------------|--------------------------|-----------------------------------|
//! | `kernels` (generators + passes)  | `tune_s`, `configs_per_s`| fine-bnb (serial), paper-cold / — |
//! | `model` (`ProbeBound`)           | `tune_s`                 | fine-bnb / zero on paper-cold     |
//! | `metrics` (static analysis)      | `tune_s`                 | fine-bnb / small on paper-cold    |
//! | `linear` (linearize)             | `tune_s`                 | fine-bnb, paper-cold              |
//! | `cache` (key + memo)             | `tune_s`                 | fine-bnb (serial) / small on paper-cold |
//! | `decode`                         | `tune_s`                 | paper-cold / —                    |
//! | `timing` (simulate)              | `tune_s`                 | paper-cold / —                    |
//! | `store`, `checkpoint`            | `tune_s`, `setup_s`      | paper-cold (writes) / zero on fine-bnb |
//! | `pool`                           | `tune_s`                 | fine-bnb (many small batches)     |
//! | `engine` phases                  | `tune_s`                 | all                               |
//! | `tuner` (orchestrator remainder) | `tune_s`                 | fine-bnb                          |
//! | `obs`                            | —                        | all                               |
//!
//! `peak_rss_mb` follows the decode cache, the memo map and the store
//! index; it moves on fine-bnb.
//!
//! `decode.calls` is the engine's decode lane: fresh decodes *and*
//! arena rebinds (trip-count family members and bound-probe corners
//! that share a decoded arena). The replay times fresh decodes only, so
//! the `decode (serial)` row (fresh-decode mean × `decode.calls`) is an
//! upper bound, and `engine.timing (rest)` is short by the difference.

use std::hint::black_box;
use std::time::Instant;

use gpu_arch::MachineSpec;
use gpu_ir::linear::linearize;
use gpu_sim::decode::decode;
use gpu_sim::timing::simulate_decoded_fueled;
use optspace::engine::cache::{class_key, exact_key};
use optspace::obs::{RuntimeCounters, RuntimeMetrics};

use crate::stats::{mean, p50_tail, sample_indices, total};
use crate::workload::{Instrumented, Unit, JOBS};

/// Configurations replayed through the cheap layers (instantiate,
/// static analysis, linearize, key, decode): enough for a p99.
pub const REPLAY_CALLS: usize = 1000;
/// Of those, how many are also timing-simulated (a simulation costs up
/// to tens of ms on the fine grid).
pub const REPLAY_SIMS: usize = 250;

/// Per-layer metrics of the traced run: name, unit, and direction.
pub const PER_LAYER: [(&str, &str, &str); 47] = [
    ("kernels.instantiate.calls", "count", "lower"),
    ("kernels.instantiate.busy_s", "s", "lower"),
    ("kernels.instantiate.p50_us", "us", "lower"),
    ("kernels.instantiate.p99_us", "us", "lower"),
    ("model.probe.calls", "count", "lower"),
    ("model.probe.busy_s", "s", "lower"),
    ("model.probe.p50_us", "us", "lower"),
    ("model.pruned_points", "count", "higher"),
    ("model.pruned_per_probe", "ratio", "higher"),
    ("metrics.evaluate.calls", "count", "lower"),
    ("metrics.evaluate.busy_s", "s", "lower"),
    ("metrics.evaluate.p50_us", "us", "lower"),
    ("metrics.evaluate.p99_us", "us", "lower"),
    ("metrics.valid_ratio", "ratio", "higher"),
    ("linear.linearize.p50_us", "us", "lower"),
    ("linear.linearize.p99_us", "us", "lower"),
    ("cache.key.calls", "count", "lower"),
    ("cache.key.busy_s", "s", "lower"),
    ("cache.key.p50_us", "us", "lower"),
    ("cache.key.p99_us", "us", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.family_members", "count", "higher"),
    ("decode.calls", "count", "lower"),
    ("decode.p50_us", "us", "lower"),
    ("timing.sims", "count", "lower"),
    ("timing.busy_s", "s", "lower"),
    ("timing.p50_ms", "ms", "lower"),
    ("timing.p99_ms", "ms", "lower"),
    ("timing.steps", "count", "lower"),
    ("timing.cycles", "count", "lower"),
    ("timing.steps_per_s", "1/s", "higher"),
    ("store.hits", "count", "higher"),
    ("store.io.calls", "count", "lower"),
    ("store.bytes_written", "bytes", "lower"),
    ("store.load_s", "s", "lower"),
    ("checkpoint.writes", "count", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("pool.workers_spawned", "count", "lower"),
    ("pool.busy_s", "s", "lower"),
    ("pool.utilization", "ratio", "higher"),
    ("engine.static_wall_s", "s", "lower"),
    ("engine.timing_wall_s", "s", "lower"),
    ("tuner.unattributed_s", "s", "lower"),
    ("tuner.unattributed_share", "ratio", "lower"),
    ("obs.trace_overhead", "ratio", "lower"),
    ("obs.traced_wall_s", "s", "lower"),
    ("obs.untraced_tune_s", "s", "lower"),
];

/// Per-call costs measured by replaying sampled configurations.
#[derive(Debug, Default)]
pub struct Replay {
    pub evaluate_us: Vec<f64>,
    pub linearize_us: Vec<f64>,
    pub exact_key_us: Vec<f64>,
    pub class_key_us: Vec<f64>,
    pub decode_us: Vec<f64>,
    pub sim_ms: Vec<f64>,
    /// Scheduler steps of the replayed simulations.
    pub sim_steps: u64,
}

fn time<T>(out: &mut Vec<f64>, scale: f64, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let v = black_box(f());
    out.push(started.elapsed().as_secs_f64() * scale);
    v
}

/// Replay a `seed`-chosen sample of `unit`'s timed configurations
/// through each layer. Simulation replays only when the unit simulated
/// at all.
pub fn replay(
    apps: &[Instrumented],
    unit: &Unit,
    seed: u64,
    spec: &MachineSpec,
) -> Result<Replay, String> {
    let timed: Vec<(usize, &optspace::space::Point)> = unit
        .searches
        .iter()
        .enumerate()
        .flat_map(|(a, d)| d.timed_points.iter().map(move |p| (a, p)))
        .collect();
    let simulates = unit.searches.iter().any(|d| d.report.stats.unique_sims > 0);
    let mut r = Replay::default();
    for (k, &i) in sample_indices(timed.len(), REPLAY_CALLS, seed).iter().enumerate() {
        let (a, point) = timed[i];
        let c = apps[a].inner().instantiate(point);
        let e = time(&mut r.evaluate_us, 1e6, || c.evaluate(spec))
            .map_err(|err| format!("replay: timed configuration {point} is invalid: {err}"))?;
        let prog = time(&mut r.linearize_us, 1e6, || linearize(&c.kernel));
        let usage = e.kernel_profile.usage;
        time(&mut r.exact_key_us, 1e6, || exact_key(&prog, &c.launch, &usage, spec));
        time(&mut r.class_key_us, 1e6, || class_key(&prog, &c.launch, &usage, spec));
        let decoded = time(&mut r.decode_us, 1e6, || decode(&prog));
        if simulates && k < REPLAY_SIMS {
            let rep = time(&mut r.sim_ms, 1e3, || {
                simulate_decoded_fueled(&decoded, &c.launch, &usage, spec, None)
            })
            .map_err(|err| format!("replay: {point} failed to simulate: {err}"))?;
            r.sim_steps += rep.steps;
        }
    }
    Ok(r)
}

/// The layers that block a search's result, in the order they occur,
/// plus the orchestrator remainder; the rows sum to `wall_s` exactly.
/// `key_s` and `decode_s` are serial work inside the timing phase and
/// are split out of it.
pub fn blocking_rows(
    wall_s: f64,
    probe_s: f64,
    static_s: f64,
    timing_s: f64,
    key_s: f64,
    decode_s: f64,
) -> Vec<(&'static str, f64)> {
    vec![
        ("model.probe", probe_s),
        ("engine.static", static_s),
        ("cache.key (serial)", key_s),
        ("decode (serial)", decode_s),
        ("engine.timing (rest)", timing_s - key_s - decode_s),
        ("tuner.unattributed", wall_s - probe_s - static_s - timing_s),
    ]
}

/// Everything [`per_layer`] needs about the traced unit.
pub struct TracedRun<'a> {
    pub unit: &'a Unit,
    pub counters: RuntimeCounters,
    pub replay: &'a Replay,
    /// Median untraced search-unit wall of the same invocation.
    pub untraced_tune_s: f64,
}

/// Compute every [`PER_LAYER`] metric (in that order) and the layers
/// table printed beside them.
pub fn per_layer(t: &TracedRun<'_>) -> (Vec<(&'static str, f64)>, String) {
    let u = t.unit;
    let sum = |f: &dyn Fn(&crate::workload::Done) -> f64| {
        u.searches.iter().map(f).fold(0.0, |a, b| a + b)
    };
    let stat = |f: &dyn Fn(&optspace::engine::EngineStats) -> usize| {
        u.searches.iter().map(|d| f(&d.report.stats) as f64).fold(0.0, |a, b| a + b)
    };
    let probe_us: Vec<f64> = u.searches.iter().flat_map(|d| d.probe_us.iter().copied()).collect();
    let inst_us: Vec<f64> =
        u.searches.iter().flat_map(|d| d.instantiate_us.iter().copied()).collect();
    let r = t.replay;
    let c = &t.counters;

    let probes = sum(&|d| d.probes as f64);
    let probe_s = total(&probe_us) / 1e6;
    let static_evals = stat(&|s| s.static_evals);
    let valid = sum(&|d| d.report.valid_count() as f64);
    let timed = stat(&|s| s.timed);
    let unique_sims = stat(&|s| s.unique_sims);
    let pruned = stat(&|s| s.bound_pruned_points);
    let key_calls = c.cache_lookup_hist.count() as f64;
    let decode_calls = c.decode_hist.count() as f64;
    let key_s = (mean(&r.exact_key_us) * key_calls + mean(&r.class_key_us) * decode_calls) / 1e6;
    let decode_s = mean(&r.decode_us) * decode_calls / 1e6;
    let static_s = c.static_wall_us as f64 / 1e6;
    let timing_s = c.timing_wall_us as f64 / 1e6;
    let wall = u.wall_s;
    let unattributed = wall - probe_s - static_s - timing_s;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let (inst_p50, inst_p99) = p50_tail(&inst_us);
    let (eval_p50, eval_p99) = p50_tail(&r.evaluate_us);
    let (lin_p50, lin_p99) = p50_tail(&r.linearize_us);
    let (key_p50, key_p99) = p50_tail(&r.exact_key_us);
    let (sim_p50, sim_p99) = p50_tail(&r.sim_ms);
    let sim_host_s = total(&r.sim_ms) / 1e3;
    let runtime = RuntimeMetrics::from_counters(*c, JOBS);

    let values = [
        inst_us.len() as f64,
        total(&inst_us) / 1e6,
        inst_p50,
        inst_p99,
        probes,
        probe_s,
        p50_tail(&probe_us).0,
        pruned,
        ratio(pruned, probes),
        static_evals,
        mean(&r.evaluate_us) * static_evals / 1e6,
        eval_p50,
        eval_p99,
        ratio(valid, static_evals),
        lin_p50,
        lin_p99,
        key_calls,
        key_s,
        key_p50,
        key_p99,
        ratio(stat(&|s| s.cache_hits), timed),
        stat(&|s| s.family_members),
        decode_calls,
        p50_tail(&r.decode_us).0,
        unique_sims,
        mean(&r.sim_ms) * unique_sims / 1e3,
        sim_p50,
        sim_p99,
        sum(&|d| d.report.stats.fuel_consumed as f64),
        sum(&|d| d.report.stats.sim_cycles as f64),
        ratio(r.sim_steps as f64, sim_host_s),
        stat(&|s| s.store_hits),
        c.store_io_hist.count() as f64,
        sum(&|d| d.store_bytes_written as f64),
        sum(&|d| d.store_load_s),
        sum(&|d| d.checkpoint_writes as f64),
        sum(&|d| d.checkpoint_bytes as f64),
        c.workers_spawned as f64,
        c.worker_busy_us as f64 / 1e6,
        runtime.worker_utilization(),
        static_s,
        timing_s,
        unattributed,
        ratio(unattributed, wall),
        wall / t.untraced_tune_s - 1.0,
        wall,
        t.untraced_tune_s,
    ];
    let metrics: Vec<(&'static str, f64)> =
        PER_LAYER.iter().zip(values).map(|(&(name, _, _), v)| (name, v)).collect();

    let mut table = format!(
        "layers, outside-in (traced wall {wall:.3} s; untraced tune_s {:.3} s):\n",
        t.untraced_tune_s
    );
    table.push_str(&format!("  {:<24} {:>10} {:>8}\n", "blocking path", "s", "share"));
    let rows = blocking_rows(wall, probe_s, static_s, timing_s, key_s, decode_s);
    for (name, s) in &rows {
        table.push_str(&format!("  {name:<24} {s:>10.3} {:>7.1}%\n", 100.0 * ratio(*s, wall)));
    }
    let sum_rows: f64 = rows.iter().map(|(_, s)| s).sum();
    table.push_str(&format!(
        "  {:<24} {sum_rows:>10.3} {:>7.1}%\n",
        "total",
        100.0 * ratio(sum_rows, wall)
    ));
    table.push_str("  worker-side busy time (overlaps the rows above; not summed):\n");
    for (name, s) in [
        ("kernels.instantiate", total(&inst_us) / 1e6),
        ("metrics.evaluate (est.)", mean(&r.evaluate_us) * static_evals / 1e6),
        ("timing (est.)", mean(&r.sim_ms) * unique_sims / 1e3),
        ("pool busy", c.worker_busy_us as f64 / 1e6),
    ] {
        table.push_str(&format!("  {name:<24} {s:>10.3}\n"));
    }
    table.push_str("  (est.) = replayed per-call cost x exact call count\n");
    (metrics, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_rows_sum_to_the_wall() {
        for (wall, probe, stat, timing, key, dec) in [
            (94.3, 20.1, 21.8, 31.6, 11.0, 0.02),
            (2.97, 0.0, 0.46, 0.96, 0.55, 0.01),
            (1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        ] {
            let rows = blocking_rows(wall, probe, stat, timing, key, dec);
            let total: f64 = rows.iter().map(|(_, s)| s).sum();
            assert!((total - wall).abs() < 1e-9 * wall.max(1.0), "{rows:?} sums to {total}");
            let dark = rows.last().expect("rows").1;
            assert!((dark - (wall - probe - stat - timing)).abs() < 1e-12);
        }
    }

    #[test]
    fn per_layer_names_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit, better) in PER_LAYER {
            assert!(crate::stats::valid_name(name), "{name}");
            assert!(seen.insert(name), "duplicate {name}");
            assert!(!unit.is_empty() && matches!(better, "lower" | "higher"));
        }
    }
}
