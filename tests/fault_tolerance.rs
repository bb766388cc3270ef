//! Fault-tolerance acceptance tier: the quick-profile sweep executed as
//! (a) a one-shot store-backed run, (b) two shards merged, (c) a
//! kill/resume cycle over a checkpointed disk store, and (d) a run with
//! injected cell panics absorbed by the retry budget must all produce
//! **byte-identical** CSV to `tests/golden/quick_sweep.csv` — the same
//! bytes the plain [`calloc_eval::Suite::sweep`] path pins in
//! `tests/golden_reports.rs`, without regenerating goldens.
//!
//! The pinned fixture (building, scenario, suite profile, sweep spec)
//! comes from `calloc_repro::testkit`, shared with the golden tier. CI
//! runs this binary in every tier-1 leg (`CALLOC_THREADS` = 1, 2, 3, 4
//! and 8) plus a dedicated fault-injection leg, and the in-process
//! invariance test additionally compares thread counts 1 and 4.
//!
//! Faults are injected only through [`calloc_tensor::par::FaultPlan`] — an
//! explicit, deterministic schedule on plan indices — never ambient
//! randomness, so every leg injects exactly the same panics.

use calloc_eval::{ExecSpec, ResultStore, Suite, SweepPlan};
use calloc_repro::testkit::{
    lock_knobs, quick_sweep_spec, scenario_and_suite, silence_injected_panics,
};
use calloc_sim::Dataset;
use calloc_tensor::par::{self, FaultPlan};
use std::path::PathBuf;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/quick_sweep.csv");

fn golden_bytes() -> String {
    std::fs::read_to_string(GOLDEN_PATH).expect(
        "tests/golden/quick_sweep.csv is checked in; regenerate it with \
         `cargo test --test golden_reports -- --ignored`",
    )
}

/// The quick-profile plan and datasets over the pinned trained suite.
fn plan_and_datasets() -> (SweepPlan, Vec<(String, String, &'static Dataset)>) {
    let (scenario, suite) = scenario_and_suite();
    let datasets = Suite::scenario_datasets(scenario, "B1");
    let plan = suite.sweep_plan(&datasets, &quick_sweep_spec());
    (plan, datasets)
}

/// A per-process, per-case temp path for file-backed stores.
fn tmp_store(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("calloc_ft_{}_{name}.bin", std::process::id()))
}

#[test]
fn store_backed_one_shot_matches_golden() {
    let _guard = lock_knobs();
    let (_, suite) = scenario_and_suite();
    let (plan, datasets) = plan_and_datasets();
    let mut store = plan.memory_store();
    let report = suite
        .sweep_with_store(&plan, &datasets, &ExecSpec::default(), &mut store)
        .expect("one-shot store-backed run");
    assert!(report.is_complete(), "{}", report.summary());
    assert_eq!(report.executed, plan.len());
    assert_eq!(
        report.table.to_csv(),
        golden_bytes(),
        "store-backed one-shot CSV diverged from the golden file at {} threads",
        par::threads()
    );
}

#[test]
fn two_shards_merge_to_the_golden_bytes() {
    let _guard = lock_knobs();
    let (_, suite) = scenario_and_suite();
    let (plan, datasets) = plan_and_datasets();
    let ranges = plan.shard_ranges(2);
    assert_eq!(ranges.len(), 2);

    // Each shard runs against its own store — as two independent
    // processes would — and the stores merge afterwards.
    let mut merged: Option<ResultStore> = None;
    let mut executed = 0;
    for range in ranges {
        let shard = plan.shard(range);
        let mut store = plan.memory_store();
        let report = suite
            .sweep_with_store(&shard, &datasets, &ExecSpec::default(), &mut store)
            .expect("shard run");
        assert!(report.is_complete(), "{}", report.summary());
        executed += report.executed;
        merged = Some(match merged.take() {
            None => store,
            Some(mut acc) => {
                acc.merge(&store).expect("disjoint shard stores");
                acc
            }
        });
    }
    assert_eq!(executed, plan.len(), "the shards must partition the plan");
    let merged = merged.expect("two shards ran");
    assert_eq!(merged.len(), plan.len());
    assert_eq!(
        plan.table_from_store(&merged).to_csv(),
        golden_bytes(),
        "merged two-shard CSV diverged from the golden file at {} threads",
        par::threads()
    );
}

#[test]
fn kill_and_resume_cycle_matches_golden() {
    let _guard = lock_knobs();
    let (_, suite) = scenario_and_suite();
    let (plan, datasets) = plan_and_datasets();
    let path = tmp_store("resume");
    let _ = std::fs::remove_file(&path);
    let half = plan.len() / 2;

    // First run: half the plan into a checkpointed disk store, then the
    // process "dies" — only the store file survives this scope.
    {
        let mut store = plan.open_store(&path).expect("open fresh store");
        let report = suite
            .sweep_with_store(
                &plan.shard(0..half),
                &datasets,
                &ExecSpec::default().with_checkpoint_every(16),
                &mut store,
            )
            .expect("first (killed) run");
        assert!(report.is_complete(), "{}", report.summary());
    }

    // Resume: reopen from disk, rerun the same spec; only the missing
    // cells may execute, and restored rows must be bit-exact.
    let mut store = plan.open_store(&path).expect("reopen after the crash");
    assert_eq!(store.len(), half, "the checkpointed rows must survive");
    let report = suite
        .sweep_with_store(&plan, &datasets, &ExecSpec::default(), &mut store)
        .expect("resumed run");
    assert!(report.is_complete(), "{}", report.summary());
    assert_eq!(
        report.executed,
        plan.len() - half,
        "resume must only execute the missing cells"
    );
    assert_eq!(
        report.table.to_csv(),
        golden_bytes(),
        "killed-then-resumed CSV diverged from the golden file at {} threads",
        par::threads()
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn cadence_zero_checkpoints_exactly_once_at_run_finish() {
    let _guard = lock_knobs();
    let (_, suite) = scenario_and_suite();
    let (plan, datasets) = plan_and_datasets();
    let path = tmp_store("cadence0");
    let _ = std::fs::remove_file(&path);

    // checkpoint_every = 0 disables mid-run checkpoints: the store file
    // must not exist while rows are only accumulating in memory, and the
    // single finish-time checkpoint must land the complete result set.
    let mut store = plan.open_store(&path).expect("open fresh store");
    let report = suite
        .sweep_with_store(
            &plan,
            &datasets,
            &ExecSpec::default().with_checkpoint_every(0),
            &mut store,
        )
        .expect("cadence-0 run");
    assert!(report.is_complete(), "{}", report.summary());
    assert_eq!(report.executed, plan.len());

    let reopened = plan
        .open_store(&path)
        .expect("reopen the finish checkpoint");
    assert_eq!(
        reopened.len(),
        plan.len(),
        "the finish-time checkpoint must hold every row"
    );
    assert_eq!(
        plan.table_from_store(&reopened).to_csv(),
        golden_bytes(),
        "cadence-0 store CSV diverged from the golden file at {} threads",
        par::threads()
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn injected_panics_absorbed_by_retry_match_golden() {
    silence_injected_panics();
    let _guard = lock_knobs();
    let (_, suite) = scenario_and_suite();
    let (plan, datasets) = plan_and_datasets();
    // Three cells across the plan panic on their first two attempts and
    // succeed on the third — inside the budget, so nothing is lost.
    let faulted = vec![0, plan.len() / 2, plan.len() - 1];
    let exec = ExecSpec::default()
        .with_retries(2)
        .with_faults(FaultPlan::panic_on(&faulted, 2));
    let report = suite.sweep_fault_tolerant(&datasets, &quick_sweep_spec(), &exec);
    assert!(report.is_complete(), "{}", report.summary());
    assert_eq!(
        report.recovered,
        faulted.len(),
        "every faulted cell must recover within the retry budget"
    );
    assert_eq!(
        report.table.to_csv(),
        golden_bytes(),
        "retried-past-faults CSV diverged from the golden file at {} threads",
        par::threads()
    );
}

#[test]
fn quarantined_cell_resumes_to_the_golden_bytes() {
    silence_injected_panics();
    let _guard = lock_knobs();
    let (_, suite) = scenario_and_suite();
    let (plan, datasets) = plan_and_datasets();
    // One cell panics on every attempt of the first run: it is
    // quarantined (not fatal), surfaced in the summary, and left out of
    // the store — so a second run with the fault gone heals the sweep.
    let poisoned = plan.len() / 3;
    let exec = ExecSpec::default()
        .with_retries(1)
        .with_faults(FaultPlan::none().panicking(poisoned, 10));
    let mut store = plan.memory_store();
    let report = suite
        .sweep_with_store(&plan, &datasets, &exec, &mut store)
        .expect("run with a poisoned cell");
    assert!(!report.is_complete());
    assert_eq!(report.errors.len(), 1);
    assert_eq!(report.errors[0].plan_index, poisoned);
    assert!(
        report.summary().contains("1 quarantined"),
        "{}",
        report.summary()
    );
    assert_eq!(store.len(), plan.len() - 1);

    let report = suite
        .sweep_with_store(&plan, &datasets, &ExecSpec::default(), &mut store)
        .expect("healing rerun");
    assert!(report.is_complete(), "{}", report.summary());
    assert_eq!(report.executed, 1, "only the quarantined cell may rerun");
    assert_eq!(
        report.table.to_csv(),
        golden_bytes(),
        "quarantine-then-resume CSV diverged from the golden file at {} threads",
        par::threads()
    );
}

#[test]
fn fault_paths_match_golden_at_threads_1_and_4() {
    silence_injected_panics();
    let _guard = lock_knobs();
    let (scenario, suite) = scenario_and_suite();
    let datasets = Suite::scenario_datasets(scenario, "B1");
    let plan = suite.sweep_plan(&datasets, &quick_sweep_spec());
    let exec = ExecSpec::default()
        .with_retries(2)
        .with_faults(FaultPlan::panic_on(&[1, plan.len() - 2], 2));
    // The guard restores the ambient budget even if a comparison fails.
    let _threads = par::ThreadGuard::new(1);
    for threads in [1usize, 4] {
        par::set_threads(threads);
        let report = suite.sweep_fault_tolerant(&datasets, &quick_sweep_spec(), &exec);
        assert!(report.is_complete(), "{}", report.summary());
        assert_eq!(
            report.table.to_csv(),
            golden_bytes(),
            "fault-tolerant CSV diverged from the golden file at {threads} threads"
        );
    }
}
