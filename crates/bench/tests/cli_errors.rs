//! The experiment binaries parse the engine and selection flags with the
//! front end's parser (`optspace::cli`), so present-but-invalid values
//! must fail with the same wording and exit 1 — a bench run that
//! silently defaulted `--jobs 0` to sequential once reported misleading
//! utilization numbers, and `table4 --sample 0` once "searched" an
//! empty selection and exited 0.

use std::process::Command;

/// Run experiment binary `bin` (its `CARGO_BIN_EXE_*` path) with
/// `args`; assert exit status 1 and that stderr contains `expect`.
fn assert_fails(bin: &str, exe: &str, args: &[&str], expect: &str) {
    let out = Command::new(exe).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "`{bin} {}` did not exit 1; stderr: {stderr}",
        args.join(" "),
    );
    assert!(
        stderr.contains(expect),
        "`{bin} {}`: stderr {stderr:?} does not mention {expect:?}",
        args.join(" "),
    );
}

fn assert_profile_fails(args: &[&str], expect: &str) {
    assert_fails("profile", env!("CARGO_BIN_EXE_profile"), args, expect);
}

fn assert_table4_fails(args: &[&str], expect: &str) {
    assert_fails("table4", env!("CARGO_BIN_EXE_table4"), args, expect);
}

#[test]
fn jobs_rejects_zero_and_garbage() {
    assert_profile_fails(&["--jobs", "0"], "--jobs needs a number >= 1");
    assert_profile_fails(&["--jobs", "lots"], "--jobs needs a number >= 1");
    assert_profile_fails(&["--jobs"], "--jobs needs a number >= 1");
}

#[test]
fn engine_flags_reject_invalid_values() {
    assert_profile_fails(&["--sim-fuel", "0"], "--sim-fuel needs a positive number of steps");
    assert_profile_fails(&["--retries", "0"], "--retries needs a number >= 1");
    assert_profile_fails(&["--retries", "x"], "--retries needs a number >= 1");
    assert_profile_fails(&["--fault-seed", "9"], "--fault-seed requires --inject-faults");
}

#[test]
fn profile_validates_its_own_flags() {
    assert_profile_fails(&["--app", "teapot"], "unknown app `teapot` (matmul|cp|sad|mri)");
    assert_profile_fails(&["--budget", "0"], "--budget needs a number >= 1");
    assert_profile_fails(&["--budget", "x"], "--budget needs a number >= 1");
    assert_profile_fails(&["--seed", "x"], "--seed needs a number");
    assert_profile_fails(&["--bench-out"], "--bench-out needs a path");
}

#[test]
fn table4_validates_the_selection_flags() {
    assert_table4_fails(&["--sample", "0"], "--sample needs a number >= 1");
    assert_table4_fails(&["--sample", "x"], "--sample needs a number >= 1");
    assert_table4_fails(&["--sample-seed", "3"], "--sample-seed requires --sample");
    assert_table4_fails(&["--filter", "tile"], "bad filter `tile` (expected axis=value)");
    assert_table4_fails(&["--filter"], "--filter needs axis=value");
}

#[test]
fn table4_validates_the_engine_flags() {
    assert_table4_fails(&["--jobs", "0"], "--jobs needs a number >= 1");
    assert_table4_fails(&["--max-sims", "x"], "--max-sims needs a number");
    assert_table4_fails(&["--fault-seed", "9"], "--fault-seed requires --inject-faults");
}
