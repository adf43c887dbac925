//! The engine and selection flags every front end shares, parsed in one
//! place so a search is configured — and a bad value rejected — the
//! same way whichever binary runs it (`gpu-autotune tune`, the
//! experiment binaries, the examples).
//!
//! * Engine flags: `--jobs N`, `--max-sims N`, `--deadline-ms X`,
//!   `--sim-fuel N`, `--check-races`, `--retries N`, `--inject-faults`,
//!   `--fault-seed N`, `--store-dir <dir>`.
//! * Selection flags: `--filter axis=value` (repeatable), `--sample N`,
//!   `--sample-seed S`.
//!
//! [`EngineArgs::parse`] consumes those and hands every other argument
//! back, in order, for the caller's own flags. A flag that is present
//! but unusable is an error (`"<flag> needs <what>"`), never a silent
//! default; [`value`], [`positive`] and [`flag_value`] apply the same
//! rule to the callers' own flags.

use std::str::FromStr;
use std::sync::Arc;

use crate::engine::{EngineConfig, FaultPlan, ResultStore};
use crate::space::{Filter, Sample, Selection};

/// The shared flags of one command line, plus what they left over.
#[derive(Debug)]
pub struct EngineArgs {
    /// Engine configuration from the engine flags (defaults elsewhere).
    pub config: EngineConfig,
    /// `--store-dir`, not yet opened (see [`EngineArgs::open_store`]).
    pub store_dir: Option<String>,
    /// `--filter`/`--sample`/`--sample-seed`; a no-op when none given.
    pub selection: Selection,
    /// Every argument not consumed above, in its original order.
    pub rest: Vec<String>,
}

impl EngineArgs {
    /// Consume the engine and selection flags from `args`.
    ///
    /// # Errors
    ///
    /// The message to print when a shared flag is present but unusable,
    /// or when `--sample-seed`/`--fault-seed` come without the flag they
    /// qualify.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut config = EngineConfig::default();
        let mut store_dir = None;
        let mut filters = Vec::new();
        let mut sample = None;
        let mut sample_seed = None;
        let mut inject = false;
        let mut fault_seed = None;
        let mut rest = Vec::new();
        let mut it = args.iter().map(String::as_str);
        while let Some(flag) = it.next() {
            match flag {
                "--jobs" => config.jobs = positive(flag, it.next(), "a number >= 1")?,
                "--max-sims" => config.budget.max_sims = Some(value(flag, it.next(), "a number")?),
                "--deadline-ms" => {
                    config.budget.deadline_ms =
                        Some(positive(flag, it.next(), "a positive number")?)
                }
                "--sim-fuel" => {
                    config.sim_fuel = Some(positive(flag, it.next(), "a positive number of steps")?)
                }
                "--check-races" => config.check_races = true,
                "--retries" => {
                    config.retry.max_attempts = positive(flag, it.next(), "a number >= 1")?
                }
                "--inject-faults" => inject = true,
                "--fault-seed" => fault_seed = Some(value(flag, it.next(), "a number")?),
                "--store-dir" => store_dir = Some(value(flag, it.next(), "a directory")?),
                "--filter" => {
                    let raw: String = value(flag, it.next(), "axis=value")?;
                    filters.push(Filter::parse(&raw).map_err(|e| e.to_string())?);
                }
                "--sample" => sample = Some(positive(flag, it.next(), "a number >= 1")?),
                "--sample-seed" => sample_seed = Some(value(flag, it.next(), "a number")?),
                other => rest.push(other.to_string()),
            }
        }
        if sample_seed.is_some() && sample.is_none() {
            return Err("--sample-seed requires --sample".to_string());
        }
        config.fault_plan = match (inject, fault_seed) {
            (false, None) => None,
            (false, Some(_)) => return Err("--fault-seed requires --inject-faults".to_string()),
            (true, None) => Some(FaultPlan::default()),
            (true, Some(seed)) => Some(FaultPlan::with_seed(seed)),
        };
        let sample = sample.map(|count| Sample { count, seed: sample_seed.unwrap_or(0) });
        Ok(Self { config, store_dir, selection: Selection { filters, sample }, rest })
    }

    /// Open the `--store-dir` result store, when one was given. Open it
    /// once per process and share the `Arc` between engines: every
    /// open re-scans every segment.
    ///
    /// # Errors
    ///
    /// The message to print when the directory cannot be used as a
    /// store. A run that silently re-simulated everything it meant to
    /// reuse would report misleading numbers.
    pub fn open_store(&self) -> Result<Option<Arc<ResultStore>>, String> {
        self.store_dir
            .as_deref()
            .map(|dir| match ResultStore::open(dir) {
                Ok(store) => Ok(Arc::new(store)),
                Err(e) => Err(format!("cannot open result store {dir}: {e}")),
            })
            .transpose()
    }
}

/// Parse the value that followed `flag`. A missing (`None`) or
/// unparsable value is the error `"{flag} needs {needs}"`.
///
/// # Errors
///
/// As above.
pub fn value<T: FromStr>(flag: &str, raw: Option<&str>, needs: &str) -> Result<T, String> {
    raw.and_then(|v| v.parse().ok()).ok_or_else(|| format!("{flag} needs {needs}"))
}

/// [`value`], additionally rejecting values `<=` the type's zero.
///
/// # Errors
///
/// `"{flag} needs {needs}"` for a missing, unparsable or non-positive
/// value.
pub fn positive<T: FromStr + PartialOrd + Default>(
    flag: &str,
    raw: Option<&str>,
    needs: &str,
) -> Result<T, String> {
    value(flag, raw, needs)
        .ok()
        .filter(|v| *v > T::default())
        .ok_or_else(|| format!("{flag} needs {needs}"))
}

/// Look `flag` up anywhere in `args`: `Ok(None)` when it is absent,
/// the parsed value when present and usable, and [`value`]'s error when
/// present but unusable (a bad value is never replaced by a default).
///
/// # Errors
///
/// As above.
pub fn flag_value<T: FromStr>(
    args: &[String],
    flag: &str,
    needs: &str,
) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == flag) {
        Some(p) => value(flag, args.get(p + 1).map(String::as_str), needs).map(Some),
        None => Ok(None),
    }
}

/// Check that `path` could plausibly be created: its parent directory,
/// when it names one, must already exist. Called before a long run so a
/// doomed export fails in seconds, not after the search.
///
/// # Errors
///
/// The message to print when the parent directory is missing.
pub fn writable_parent(path: &str) -> Result<(), String> {
    match std::path::Path::new(path).parent() {
        Some(parent) if !parent.as_os_str().is_empty() && !parent.is_dir() => Err(format!(
            "cannot write {path}: parent directory `{}` does not exist",
            parent.display()
        )),
        _ => Ok(()),
    }
}

/// Make a result store's records durable before the process exits. A
/// failure is reported on stderr, not fatal: the search's results are
/// already in hand.
pub fn sync_store(store: Option<&ResultStore>) {
    if let Some(st) = store {
        if let Err(e) = st.sync() {
            eprintln!("result store {}: sync failed: {e}", st.dir().display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    fn parse(line: &str) -> Result<EngineArgs, String> {
        EngineArgs::parse(&args(line))
    }

    #[test]
    fn shared_flags_are_consumed_and_the_rest_kept_in_order() {
        let parsed = parse(
            "--strategy bnb --jobs 2 --max-sims 7 --deadline-ms 1.5 --sim-fuel 9 --check-races \
             --retries 4 --inject-faults --fault-seed 3 --store-dir st --filter tile=16 \
             --sample 5 --sample-seed 6 --profile --seed 1",
        )
        .expect("valid flags");
        assert_eq!(parsed.rest, args("--strategy bnb --profile --seed 1"));
        let c = parsed.config;
        assert_eq!((c.jobs, c.budget.max_sims, c.budget.deadline_ms), (2, Some(7), Some(1.5)));
        assert_eq!((c.sim_fuel, c.check_races, c.retry.max_attempts), (Some(9), true, 4));
        assert_eq!(c.fault_plan, Some(FaultPlan::with_seed(3)));
        assert_eq!(parsed.store_dir.as_deref(), Some("st"));
        assert_eq!(parsed.selection.filters, vec![Filter::parse("tile=16").expect("clause")]);
        assert_eq!(parsed.selection.sample, Some(Sample { count: 5, seed: 6 }));
    }

    #[test]
    fn no_flags_is_the_default_engine_and_no_selection() {
        let parsed = parse("").expect("empty line");
        assert_eq!(parsed.config, EngineConfig::default());
        assert!(parsed.selection.is_noop() && parsed.store_dir.is_none() && parsed.rest.is_empty());
    }

    #[test]
    fn unusable_values_fail_with_the_shared_wording() {
        for (line, msg) in [
            ("--jobs 0", "--jobs needs a number >= 1"),
            ("--jobs", "--jobs needs a number >= 1"),
            ("--max-sims x", "--max-sims needs a number"),
            ("--deadline-ms 0", "--deadline-ms needs a positive number"),
            ("--sim-fuel 0", "--sim-fuel needs a positive number of steps"),
            ("--retries 0", "--retries needs a number >= 1"),
            ("--fault-seed x --inject-faults", "--fault-seed needs a number"),
            ("--store-dir", "--store-dir needs a directory"),
            ("--filter", "--filter needs axis=value"),
            ("--sample 0", "--sample needs a number >= 1"),
            ("--sample x", "--sample needs a number >= 1"),
            ("--sample 2 --sample-seed x", "--sample-seed needs a number"),
            ("--sample-seed 3", "--sample-seed requires --sample"),
            ("--fault-seed 3", "--fault-seed requires --inject-faults"),
        ] {
            assert_eq!(parse(line).expect_err(line), msg, "{line}");
        }
        assert!(parse("--filter tile").expect_err("bad clause").contains("tile"));
    }

    #[test]
    fn flag_value_tells_absent_from_unusable() {
        let line = args("--seed 4 --budget x --out");
        assert_eq!(flag_value::<u64>(&line, "--seed", "a number"), Ok(Some(4)));
        assert_eq!(flag_value::<u64>(&line, "--app", "a name"), Ok(None));
        assert_eq!(
            flag_value::<usize>(&line, "--budget", "a number >= 1"),
            Err("--budget needs a number >= 1".to_string())
        );
        assert_eq!(
            flag_value::<String>(&line, "--out", "a path"),
            Err("--out needs a path".to_string())
        );
    }

    #[test]
    fn writable_parent_requires_an_existing_directory() {
        assert_eq!(writable_parent("out.json"), Ok(()));
        assert_eq!(writable_parent(&std::env::temp_dir().join("x").display().to_string()), Ok(()));
        assert!(writable_parent("/no/such/dir/out.json")
            .expect_err("missing parent")
            .contains("parent directory `/no/such/dir` does not exist"));
    }
}
