//! Durable-tuning guarantees:
//!
//! * **Corruption tolerance** — for any single torn-tail truncation or
//!   bit flip in a result-store segment, reopening the store never
//!   panics, drops exactly the damaged record, and returns every
//!   survivor bit-for-bit (the checksum forbids silent corruption).
//! * **Kill-and-resume** — a search stopped mid-run (the deterministic
//!   stand-in for SIGKILL) and resumed from its checkpoint produces a
//!   final report, canonical trace, and deterministic metrics that are
//!   byte-identical to an uninterrupted run, at `--jobs` 1, 2, and 8.
//! * **Warm store** — a second run over the same space with the same
//!   store completes with zero fresh simulations: every unique comes
//!   back as a store hit and the report matches the cold run.
//! * **Key-schema changes** — records and checkpoints written under a
//!   retired key encoding are rejected cleanly: stale store records are
//!   counted and never served, and an old checkpoint refuses to resume.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use gpu_autotune::arch::{LimitingFactor, MachineSpec, Occupancy};
use gpu_autotune::kernels::{sad::Sad, App};
use gpu_autotune::optspace::engine::{
    cache, checkpoint, store, CheckpointMeta, Checkpointer, EngineConfig, EvalEngine, ResultStore,
};
use gpu_autotune::optspace::obs::{EventSink, Trace};
use gpu_autotune::optspace::tuner::{ExhaustiveSearch, SearchReport, SearchStrategy};
use gpu_autotune::sim::TimingReport;
use proptest::prelude::*;

fn g80() -> MachineSpec {
    MachineSpec::geforce_8800_gtx()
}

/// A fresh scratch directory under the system temp dir, unique per test
/// name and process so parallel test threads cannot collide.
fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("optspace-durability-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn key(i: usize) -> u64 {
    (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// A fabricated but fully finite report whose every field varies with
/// the seed, so a survivor that comes back wrong cannot accidentally
/// equal its original.
fn fake_report(i: usize) -> TimingReport {
    let k = key(i) ^ 0x5bd1_e995;
    TimingReport {
        cycles_per_wave: k % 100_000,
        waves: (k % 64) as f64 / 4.0 + 1.0,
        total_cycles: k % 10_000_000,
        time_ms: (k % 1_000_000) as f64 / 65_536.0,
        instructions_issued: k % 50_000,
        busy_cycles: k % 40_000,
        dram_bytes: k % (1 << 20),
        bandwidth_utilization: (k % 1000) as f64 / 1000.0,
        occupancy: Occupancy {
            blocks_per_sm: (k % 8) as u32 + 1,
            warps_per_block: (k % 16) as u32 + 1,
            limited_by: match k % 4 {
                0 => LimitingFactor::BlockSlots,
                1 => LimitingFactor::Threads,
                2 => LimitingFactor::Registers,
                _ => LimitingFactor::SharedMemory,
            },
            threads_per_sm: (k % 768) as u32 + 1,
        },
        steps: k % 99_999,
        stall_mem_cycles: k % 7_000,
        stall_sfu_cycles: k % 5_000,
        stall_arith_cycles: k % 3_000,
        stall_other_cycles: k % 2_000,
    }
}

/// Sorted segment files of a store directory.
fn segment_files(dir: &PathBuf) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read store dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    segs.sort();
    segs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any victim segment and any single truncation or bit flip,
    /// reopening drops exactly the one damaged record: the other
    /// `n - 1` survive bit-for-bit and nothing panics.
    #[test]
    fn single_corruption_drops_exactly_the_damaged_record(
        victim_pick in any::<u64>(),
        offset_pick in any::<u64>(),
        truncate in any::<bool>(),
        amount in 1usize..64,
    ) {
        let dir = scratch("corruption");
        let n = 24usize;
        {
            // Small segments force several files per shard, so the
            // victim choice exercises middle segments, not just tails.
            let st = ResultStore::open_with_segment_bytes(&dir, 512).expect("open");
            for i in 0..n {
                st.put(key(i), &fake_report(i));
            }
            st.sync().expect("sync");
        }
        let segs = segment_files(&dir);
        prop_assert!(segs.len() >= 4, "tiny segments must have rolled files");
        let victim = &segs[(victim_pick % segs.len() as u64) as usize];
        let mut data = fs::read(victim).expect("read victim");
        prop_assert!(data.len() > 64, "segment holds at least one record");
        if truncate {
            // A torn tail: the crash cut the last append short.
            let cut = data.len() - amount.min(data.len() - 1);
            data.truncate(cut);
        } else {
            // A bit flip somewhere inside the file. Every byte belongs
            // to exactly one record, so exactly one record is damaged.
            let at = (offset_pick % data.len() as u64) as usize;
            data[at] ^= (amount as u8) | 1;
        }
        fs::write(victim, &data).expect("write damage");

        let st = ResultStore::open(&dir).expect("a damaged store still opens");
        prop_assert_eq!(st.len(), n - 1, "exactly one record lost");
        prop_assert!(st.records_dropped() >= 1, "the damage is counted");
        let mut missing = 0usize;
        for i in 0..n {
            match st.get(key(i)) {
                Some(got) => prop_assert_eq!(got, fake_report(i), "survivor {} must be exact", i),
                None => missing += 1,
            }
        }
        prop_assert_eq!(missing, 1);
    }
}

/// Run the SAD space exhaustively with `jobs` workers through `wrap`'s
/// engine customization, returning the report and the drained trace.
fn run_sad(jobs: usize, wrap: impl FnOnce(EvalEngine) -> EvalEngine) -> (SearchReport, Trace) {
    let sink = Arc::new(EventSink::new());
    let engine = wrap(
        EvalEngine::new(EngineConfig { jobs, ..Default::default() }).with_sink(Arc::clone(&sink)),
    );
    let report = ExhaustiveSearch.run_with(&engine, &Sad::test_problem().candidates(), &g80());
    (report, sink.drain())
}

fn assert_reports_match(resumed: &SearchReport, reference: &SearchReport) {
    assert_eq!(resumed.statics, reference.statics);
    assert_eq!(resumed.simulated, reference.simulated);
    assert_eq!(resumed.quarantined, reference.quarantined);
    assert_eq!(resumed.best, reference.best);
    assert_eq!(resumed.stats.timed, reference.stats.timed);
    assert_eq!(resumed.stats.unique_sims, reference.stats.unique_sims);
    assert_eq!(resumed.stats.cache_hits, reference.stats.cache_hits);
    assert_eq!(resumed.stats.store_hits, reference.stats.store_hits);
    assert_eq!(resumed.stats.fuel_consumed, reference.stats.fuel_consumed);
    assert_eq!(resumed.stats.sim_cycles, reference.stats.sim_cycles);
}

#[test]
fn killed_and_resumed_runs_are_byte_identical_at_any_worker_count() {
    let dir = scratch("resume");
    let ck_path = dir.join("ck.json");
    let meta = CheckpointMeta::new("sad", "exhaustive", None, &Sad::test_problem().space());

    // The uninterrupted reference, once per worker count.
    for jobs in [1usize, 2, 8] {
        let (reference, ref_trace) = run_sad(jobs, |e| e);

        // Interrupt deterministically partway through (the in-process
        // stand-in for SIGKILL: the partial report is discarded and
        // only the checkpoint file survives).
        let stop_at = 20usize;
        let ck = Arc::new(Checkpointer::new(&ck_path, 8, meta.clone()).with_stop_after(stop_at));
        let (_partial, _trace) = run_sad(jobs, |e| e.with_checkpoint(Arc::clone(&ck)));
        assert!(ck.should_stop(), "the stop-after must have tripped");
        ck.write_now().expect("publish the final checkpoint");

        // Load and resume: replay serves the checkpointed results, the
        // rest run live, and the final report must be indistinguishable
        // from never having been interrupted.
        let loaded = checkpoint::load(&ck_path).expect("checkpoint loads");
        assert_eq!(loaded.meta, meta);
        assert!(loaded.units_done >= stop_at);
        assert!(!loaded.results.is_empty(), "some results were checkpointed");
        let resume_ck = Arc::new(Checkpointer::new(&ck_path, 8, meta.clone()));
        resume_ck.seed(&loaded.results);
        let results = Arc::new(loaded.results);
        let (resumed, res_trace) = run_sad(jobs, |e| {
            e.with_replay(Arc::clone(&results)).with_checkpoint(Arc::clone(&resume_ck))
        });

        assert_reports_match(&resumed, &reference);
        assert_eq!(
            res_trace.canonical_text(),
            ref_trace.canonical_text(),
            "canonical trace differs after resume at {jobs} jobs"
        );
        assert_eq!(
            resumed.metrics.deterministic_json().to_string_compact(),
            reference.metrics.deterministic_json().to_string_compact(),
            "deterministic metrics differ after resume at {jobs} jobs"
        );
        let _ = fs::remove_file(&ck_path);
    }
}

#[test]
fn resume_replays_injected_faults_identically() {
    use gpu_autotune::optspace::engine::FaultPlan;
    let dir = scratch("resume-faults");
    let ck_path = dir.join("ck.json");
    let meta = CheckpointMeta::new("sad", "exhaustive", None, &Sad::test_problem().space());
    let plan = FaultPlan { seed: 7, rate_per_mille: 300, transient_per_mille: 500 };
    let with_faults =
        |jobs: usize| EngineConfig { jobs, fault_plan: Some(plan), ..Default::default() };

    let sink = Arc::new(EventSink::new());
    let engine = EvalEngine::new(with_faults(2)).with_sink(Arc::clone(&sink));
    let reference = ExhaustiveSearch.run_with(&engine, &Sad::test_problem().candidates(), &g80());
    let ref_trace = sink.drain();

    let ck = Arc::new(Checkpointer::new(&ck_path, 4, meta.clone()).with_stop_after(10));
    let engine = EvalEngine::new(with_faults(2)).with_checkpoint(Arc::clone(&ck));
    let _partial = ExhaustiveSearch.run_with(&engine, &Sad::test_problem().candidates(), &g80());
    ck.write_now().expect("publish");

    let loaded = checkpoint::load(&ck_path).expect("loads");
    let sink = Arc::new(EventSink::new());
    let engine = EvalEngine::new(with_faults(2))
        .with_sink(Arc::clone(&sink))
        .with_replay(Arc::new(loaded.results));
    let resumed = ExhaustiveSearch.run_with(&engine, &Sad::test_problem().candidates(), &g80());

    assert_reports_match(&resumed, &reference);
    assert_eq!(resumed.quarantined, reference.quarantined);
    assert_eq!(resumed.stats.retries, reference.stats.retries);
    assert_eq!(resumed.stats.injected_faults, reference.stats.injected_faults);
    assert_eq!(sink.drain().canonical_text(), ref_trace.canonical_text());
}

#[test]
fn warm_store_run_simulates_nothing_and_matches_the_cold_run() {
    let dir = scratch("warm");
    let store = Arc::new(ResultStore::open(&dir).expect("open store"));
    let (cold, _) = run_sad(2, |e| e.with_store(Arc::clone(&store)));
    assert_eq!(cold.stats.store_hits, 0, "a fresh store serves nothing");
    assert!(cold.stats.unique_sims > 0);
    store.sync().expect("persist");

    // Reopen from disk: everything must now come from the store.
    let warm_store = Arc::new(ResultStore::open(&dir).expect("reopen store"));
    assert_eq!(warm_store.records_dropped(), 0);
    assert!(!warm_store.is_empty());
    let (warm, _) = run_sad(2, |e| e.with_store(Arc::clone(&warm_store)));
    assert_eq!(warm.stats.unique_sims, 0, "a warm store leaves nothing to simulate");
    assert_eq!(warm.stats.store_hits, cold.stats.unique_sims);
    assert_eq!(warm.simulated, cold.simulated);
    assert_eq!(warm.statics, cold.statics);
    assert_eq!(warm.best, cold.best);
}

#[test]
fn warm_store_survives_a_corrupt_segment() {
    let dir = scratch("warm-corrupt");
    let store = Arc::new(ResultStore::open(&dir).expect("open store"));
    let (cold, _) = run_sad(1, |e| e.with_store(Arc::clone(&store)));
    store.sync().expect("persist");

    // Clip a tail off one segment; the re-run must still complete and
    // agree with the cold run, re-simulating only what was lost.
    let segs = segment_files(&dir);
    assert!(!segs.is_empty());
    let victim = &segs[0];
    let data = fs::read(victim).expect("read");
    fs::write(victim, &data[..data.len() - 7]).expect("tear the tail");

    let damaged = Arc::new(ResultStore::open(&dir).expect("damaged store opens"));
    assert!(damaged.records_dropped() >= 1);
    let (rerun, _) = run_sad(1, |e| e.with_store(Arc::clone(&damaged)));
    assert!(rerun.stats.store_hits > 0, "undamaged records still serve");
    assert!(rerun.stats.unique_sims >= 1, "the lost record is re-simulated");
    assert_eq!(rerun.simulated, cold.simulated);
    assert_eq!(rerun.best, cold.best);
    assert_eq!(
        rerun.stats.store_records_dropped,
        damaged.records_dropped(),
        "the drop count surfaces in the engine stats"
    );
}

/// A store record framed as the retired `Debug`-text key encoding wrote
/// them: marker `00 52 53 01`, then payload length and an FNV-1a 64
/// checksum of the payload alone.
fn version_one_record(key: u64, report: &TimingReport) -> Vec<u8> {
    let payload = gpu_autotune::optspace::obs::Json::obj([
        ("key", key.into()),
        ("report", store::report_to_json(report)),
    ])
    .to_string_compact()
    .into_bytes();
    let mut checksum = 0xcbf2_9ce4_8422_2325u64;
    for &b in &payload {
        checksum = (checksum ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut rec = vec![0x00, b'R', b'S', 0x01];
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rec.extend_from_slice(&checksum.to_le_bytes());
    rec.extend_from_slice(&payload);
    rec
}

#[test]
fn a_version_one_record_is_stale_and_never_served() {
    use gpu_autotune::ir::linear::linearize;
    let dir = scratch("stale");
    // Address the old record by a key the search will really look up,
    // so only the version byte stands between it and a store hit.
    let spec = g80();
    let (c, e) = Sad::test_problem()
        .candidates()
        .into_iter()
        .find_map(|c| c.evaluate(&spec).ok().map(|e| (c, e)))
        .expect("a valid SAD candidate");
    let key = cache::exact_key(&linearize(&c.kernel), &c.launch, &e.kernel_profile.usage, &spec);
    fs::write(dir.join("s0-0000.seg"), version_one_record(key, &fake_report(0))).expect("write");

    let audit = store::verify(&dir).expect("verify");
    assert_eq!((audit.records, audit.stale, audit.dropped), (0, 1, 0));
    let st = Arc::new(ResultStore::open(&dir).expect("open"));
    assert_eq!(st.records_stale(), 1);
    assert_eq!(st.records_dropped(), 0, "a stale record is not damage");
    assert_eq!(st.get(key), None);
    let (report, _) = run_sad(1, |e| e.with_store(Arc::clone(&st)));
    assert_eq!(report.stats.store_hits, 0, "a stale record is never served");
    assert_eq!(report.stats.store_records_dropped, 0);
}

#[test]
fn a_checkpoint_of_the_previous_key_schema_refuses_to_resume() {
    let dir = scratch("old-checkpoint");
    let ck_path = dir.join("ck.json");
    let meta = CheckpointMeta::new("sad", "exhaustive", None, &Sad::test_problem().space());
    let ck = Arc::new(Checkpointer::new(&ck_path, 8, meta).with_stop_after(4));
    let _ = run_sad(1, |e| e.with_checkpoint(Arc::clone(&ck)));
    ck.write_now().expect("publish");
    assert!(checkpoint::load(&ck_path).is_ok());

    let current = format!("\"schema\":{}", checkpoint::CHECKPOINT_SCHEMA);
    let text = fs::read_to_string(&ck_path).expect("read");
    assert!(text.starts_with(&format!("{{{current},")), "the schema field leads the file");
    fs::write(&ck_path, text.replacen(&current, "\"schema\":1", 1)).expect("rewrite");
    let err = checkpoint::load(&ck_path).expect_err("an old checkpoint must not resume");
    assert!(err.contains("checkpoint schema 1"), "{err}");
}
