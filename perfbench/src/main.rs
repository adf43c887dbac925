//! `perfbench`: the repository's tuning-cost benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fine-bnb|paper-cold> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it repeats a timed batch of set-ups plus one search
//! unit of the workload until `--seconds` have passed, checks every
//! unit against the workload's known optimum, runs the winner on the
//! interpreter against the CPU reference, and prints the end-to-end
//! metrics. With
//! `--trace 1` it measures untraced units for half the window, then one
//! traced unit, and prints the per-layer metrics (see `layers.rs`).
//! The last stdout line is always one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; `attempted` counts
//! configurations covered and `failed` the quarantined ones. A failed
//! check prints `"correct": false` and exits non-zero.
//!
//! The searches are deterministic; `--seed` chooses the input data of
//! the functional check and the traced run's replay sample.
//!
//! The two workloads between them exercise every layer: the bound,
//! keying and small pool batches on `fine-bnb`; simulation, decode and
//! the store and checkpoint writes on `paper-cold`.

mod check;
mod layers;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gpu_arch::MachineSpec;
use optspace::obs::{EventSink, Json};

use crate::stats::{median, min_max};
use crate::workload::{Counters, Instrumented, Recorder, Unit, Workload};

/// End-to-end metrics of an untraced run: name, unit, direction, bound.
pub const END_TO_END: [(&str, &str, &str, f64); 8] = [
    ("tune_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("configs_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
    ("best_ms", "sim_ms", "lower", 0.01),
    ("timed_configs", "count", "lower", 0.01),
    ("sims_to_best", "count", "lower", 0.01),
    ("ok_frac", "ratio", "higher", 0.01),
];

/// One `setup_s` sample is a batch of back-to-back set-ups that runs at
/// least this long, divided by its count: a single `fine-bnb` set-up
/// takes about a microsecond.
const SETUP_SAMPLE: Duration = Duration::from_millis(1);
/// `setup_s` samples taken before each search unit, so the samples are
/// spread over the window like the units; `setup_s` is their median.
const SETUP_SAMPLES_PER_UNIT: usize = 20;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag}: `{value}` is not a number"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` ({})", names.join("|"))
                })?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The run's scratch directory under the working directory, removed
/// when the run ends however it ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: Workload) -> Result<Self, String> {
        let dir = PathBuf::from(".perfbench_work").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // `remove_dir` fails on a non-empty directory, so the parent
        // survives while another run still uses it.
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

/// Checks and counts over every unit of one invocation.
struct Tally {
    first_counters: Vec<Counters>,
    walls: Vec<f64>,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

impl Tally {
    fn new(first: &Unit) -> Self {
        Self {
            first_counters: first.searches.iter().map(Counters::of).collect(),
            walls: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Check `unit` against the truth and against the first unit's
    /// counters, and count what it covered.
    fn absorb(&mut self, workload: Workload, unit: &Unit) {
        self.errors.extend(workload::gate(workload, unit));
        let now: Vec<Counters> = unit.searches.iter().map(Counters::of).collect();
        if now != self.first_counters {
            self.errors.push(format!(
                "counters changed between repeats: {:?} vs {now:?}",
                self.first_counters
            ));
        }
        self.attempted += unit.searches.iter().map(|d| d.space_size).sum::<usize>();
        self.failed += unit.searches.iter().map(|d| d.report.quarantined_count()).sum::<usize>();
    }
}

/// What a measuring loop saw: the first unit in full, set-up times,
/// and the tally of every unit (later units are dropped once checked).
struct Measured {
    first: Unit,
    /// Process peak resident memory once the first unit finished, MiB.
    peak_rss_mb: f64,
    /// Set-up time of one set-up, per sample, s.
    setups: Vec<f64>,
    tally: Tally,
}

/// Take [`SETUP_SAMPLES_PER_UNIT`] `setup_s` samples: each is the mean
/// time of one set-up, and of releasing it (holding many fine-grid
/// set-ups would inflate `peak_rss_mb`), over a batch of back-to-back
/// set-ups (see [`SETUP_SAMPLE`]).
///
/// Every set-up opens its stores in the same directory `dir`. No search
/// runs there, so the stores stay empty, and only the first set-up of a
/// run pays for creating the directories: directory creation on a disk
/// busy with the units' writes stalls for milliseconds at random, which
/// is file-system noise rather than set-up work.
fn time_setups(
    workload: Workload,
    apps: &[Instrumented],
    dir: &Path,
    samples: &mut Vec<f64>,
) -> Result<(), String> {
    for _ in 0..SETUP_SAMPLES_PER_UNIT {
        let mut count = 0;
        let started = Instant::now();
        while count == 0 || started.elapsed() < SETUP_SAMPLE {
            drop(workload::setup(workload, apps, dir, None)?);
            count += 1;
        }
        samples.push(started.elapsed().as_secs_f64() / count as f64);
    }
    Ok(())
}

/// Set up and run untraced units until `budget` has passed (at least
/// one unit).
fn measure(
    workload: Workload,
    apps: &[Instrumented],
    rec: &Recorder,
    spec: &MachineSpec,
    work: &Path,
    budget: Duration,
) -> Result<Measured, String> {
    let mut first: Option<Unit> = None;
    let mut tally: Option<Tally> = None;
    let mut peak_rss_mb = 0.0;
    let mut setups = Vec::new();
    let started = Instant::now();
    for n in 0.. {
        if n > 0 && started.elapsed() >= budget {
            break;
        }
        time_setups(workload, apps, &work.join("setups"), &mut setups)?;
        let store_dir = work.join(format!("unit-{n}"));
        let prep = workload::setup(workload, apps, &store_dir, None)?;
        let unit = workload::run_unit(prep, rec, spec)?;
        remove_dir(&store_dir)?;
        let t = tally.get_or_insert_with(|| Tally::new(&unit));
        t.absorb(workload, &unit);
        t.walls.push(unit.wall_s);
        if first.is_none() {
            // Later units run on a heap the earlier ones fragmented, so
            // the process peak keeps creeping up with the unit count;
            // the peak after one unit is what a single tuning run needs.
            peak_rss_mb = stats::peak_rss_mb()?;
            first = Some(unit);
        }
    }
    Ok(Measured {
        first: first.expect("the loop runs at least one unit"),
        peak_rss_mb,
        setups,
        tally: tally.expect("the loop runs at least one unit"),
    })
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("cannot remove {}: {e}", dir.display())),
    }
}

/// The final line: `correct`, `attempted`, `failed`, `metrics`.
fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let metrics = Json::obj(metrics.iter().map(|&(name, value, unit)| {
        (name, Json::obj([("value", Json::Float(value)), ("unit", Json::from(unit))]))
    }));
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", metrics),
    ])
    .to_string_compact()
}

/// Functional check of every winner of `unit`.
fn check_winners(unit: &Unit, seed: u64) -> Vec<String> {
    unit.searches
        .iter()
        .filter_map(|d| {
            let (_, _, point) = d.best.as_ref()?;
            check::functional(d.app, point, seed).err()
        })
        .collect()
}

struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn untraced(
    w: Workload,
    apps: &[Instrumented],
    rec: &Recorder,
    spec: &MachineSpec,
    work: &Path,
    args: &Args,
) -> Result<Outcome, String> {
    let m = measure(w, apps, rec, spec, work, Duration::from_secs(args.seconds))?;
    let mut errors = m.tally.errors.clone();
    errors.extend(check_winners(&m.first, args.seed));

    let tune_s = median(&m.tally.walls);
    let setup_s = median(&m.setups);
    let (lo, hi) = min_max(&m.tally.walls);
    let (slo, shi) = min_max(&m.setups);
    println!(
        "{}: {} units; tune_s median {tune_s:.4} s (min {lo:.4}, max {hi:.4}); \
         setup_s median {setup_s:.3e} s (min {slo:.3e}, max {shi:.3e}, n={})",
        w.name(),
        m.tally.walls.len(),
        m.setups.len()
    );
    let first = &m.first.searches;
    for d in first {
        if let Some((index, label, _)) = &d.best {
            println!(
                "  {:<12} best #{index} {label} {:.4} ms; {} timed, {} unique sims, {} probes",
                d.app,
                d.report.best_time_ms().unwrap_or(f64::NAN),
                d.report.evaluated_count(),
                d.report.stats.unique_sims,
                d.probes
            );
        }
    }
    let space: usize = first.iter().map(|d| d.space_size).sum();
    let values = [
        tune_s,
        setup_s,
        space as f64 / tune_s,
        m.peak_rss_mb,
        first.iter().filter_map(|d| d.report.best_time_ms()).sum(),
        first.iter().map(|d| d.report.evaluated_count() as f64).sum(),
        first
            .iter()
            .map(|d| d.report.metrics.convergence.sims_to_optimum().unwrap_or(0) as f64)
            .sum(),
        1.0 - m.tally.failed as f64 / m.tally.attempted as f64,
    ];
    for e in &errors {
        eprintln!("CHECK FAILED: {e}");
    }
    Ok(Outcome {
        correct: errors.is_empty(),
        attempted: m.tally.attempted,
        failed: m.tally.failed,
        metrics: END_TO_END.iter().zip(values).map(|(&(n, u, _, _), v)| (n, v, u)).collect(),
    })
}

fn traced(
    w: Workload,
    apps: &[Instrumented],
    rec: &Recorder,
    spec: &MachineSpec,
    work: &Path,
    args: &Args,
) -> Result<Outcome, String> {
    let mut m = measure(w, apps, rec, spec, work, Duration::from_secs(args.seconds) / 2)?;
    let untraced_tune_s = median(&m.tally.walls);

    let sink = Arc::new(EventSink::new());
    let store_dir = work.join("traced");
    rec.set_timed(true);
    let prep = workload::setup(w, apps, &store_dir, Some(&sink))?;
    let unit = workload::run_unit(prep, rec, spec)?;
    rec.set_timed(false);
    remove_dir(&store_dir)?;
    m.tally.absorb(w, &unit);

    // Parity: tracing must not change what the search does or picks.
    let mut errors = m.tally.errors.clone();
    for (a, b) in m.first.searches.iter().zip(&unit.searches) {
        let (da, db) =
            (a.report.metrics.deterministic_json(), b.report.metrics.deterministic_json());
        if da != db || a.report.best != b.report.best {
            errors.push(format!("{}: traced search differs from the untraced one", a.app));
        }
    }
    errors.extend(check_winners(&unit, args.seed));

    let replay = layers::replay(apps, &unit, args.seed, spec)?;
    let (metrics, table) = layers::per_layer(&layers::TracedRun {
        unit: &unit,
        counters: sink.runtime_counters(),
        replay: &replay,
        untraced_tune_s,
    });
    println!(
        "{}: seed {} replayed {} configurations",
        w.name(),
        args.seed,
        replay.evaluate_us.len()
    );
    print!("{table}");
    for e in &errors {
        eprintln!("CHECK FAILED: {e}");
    }
    Ok(Outcome {
        correct: errors.is_empty(),
        attempted: m.tally.attempted,
        failed: m.tally.failed,
        metrics: metrics
            .into_iter()
            .zip(layers::PER_LAYER)
            .map(|((name, v), (_, unit, _))| (name, v, unit))
            .collect(),
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let spec = MachineSpec::geforce_8800_gtx();
    let work = WorkDir::create(args.workload)?;
    let rec = Arc::new(Recorder::default());
    let apps: Vec<Instrumented> = args
        .workload
        .apps()
        .into_iter()
        .map(|(key, app)| Instrumented::new(key, app, Arc::clone(&rec)))
        .collect();
    if args.trace {
        traced(args.workload, &apps, &rec, &spec, &work.0, args)
    } else {
        untraced(args.workload, &apps, &rec, &spec, &work.0, args)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            for &(name, value, _) in &out.metrics {
                if !value.is_finite() || !stats::valid_name(name) {
                    eprintln!("perfbench: metric `{name}` is malformed or not finite ({value})");
                    return ExitCode::FAILURE;
                }
            }
            println!("{}", result_line(out.correct, out.attempted, out.failed, &out.metrics));
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optspace::obs::json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        doc.get(key).and_then(Json::as_arr).expect("a metric list")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).expect("a string field")
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_printed() {
        let doc = benchmark_json();
        let e2e = entries(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, (name, unit, better, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(
                (field(entry, "name"), field(entry, "unit"), field(entry, "better")),
                (name, unit, better)
            );
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(bound), "{name}");
            assert!(stats::valid_name(name));
        }
        let setup = END_TO_END.iter().find(|m| m.0 == "setup_s").expect("setup_s is listed");
        assert!(END_TO_END.iter().all(|m| m.3 <= setup.3), "setup_s has the largest bound");

        let per = entries(&doc, "per_layer");
        assert_eq!(per.len(), layers::PER_LAYER.len());
        for (entry, (name, unit, better)) in per.iter().zip(layers::PER_LAYER) {
            assert_eq!(
                (field(entry, "name"), field(entry, "unit"), field(entry, "better")),
                (name, unit, better)
            );
        }
        for w in entries(&doc, "workloads") {
            assert!(Workload::parse(field(w, "name")).is_some(), "{w:?}");
        }
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args("--workload paper-cold --seed 3 --seconds 10 --trace 1"))
            .expect("valid arguments");
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace),
            (Workload::PaperCold, 3, 10, true)
        );
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 0",
            "--workload fine-bnb --seed x --seconds 10 --trace 0",
            "--workload fine-bnb --seed 3 --seconds 10 --trace 2",
            "--workload fine-bnb --seed 3 --seconds 10",
            "--workload fine-bnb --seed 3 --seconds 10 --trace",
            "--bogus 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 10, 0, &[("tune_s", 1.25, "s")]);
        let doc = json::parse(&line).expect("the result line is JSON");
        let Json::Obj(pairs) = &doc else { panic!("an object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let tune = doc.get("metrics").and_then(|m| m.get("tune_s")).expect("tune_s");
        assert_eq!(tune.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(tune.get("unit").and_then(Json::as_str), Some("s"));
    }
}
