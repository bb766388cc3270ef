//! Determinism regression tests: the whole pipeline — simulation, training
//! and inference — must be bit-identical across runs for a fixed seed.
//!
//! Every future performance PR (sharding, batching, parallel hot paths)
//! rides on the seeded xoshiro/splitmix substrate in `calloc_tensor::Rng`;
//! this suite is the tripwire that catches any change that silently breaks
//! reproducibility.

use calloc::{CallocConfig, CallocTrainer, Localizer};
use calloc_sim::{Building, BuildingId, BuildingSpec, CollectionConfig, Scenario};
use calloc_tensor::par;
use std::sync::Mutex;

/// Serializes the tests that flip the process-global `par` knobs, so one
/// test's guard drop cannot land in the middle of another's parallel run
/// and silently turn it into a serial-vs-serial comparison.
static KNOB_LOCK: Mutex<()> = Mutex::new(());

fn lock_knobs() -> std::sync::MutexGuard<'static, ()> {
    KNOB_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Raw-bit matrix equality: the contract is *bit*-identity, and
/// `PartialEq` on `f64` would let a `0.0` / `-0.0` divergence slip by.
fn assert_matrix_bits_eq(a: &calloc_tensor::Matrix, b: &calloc_tensor::Matrix, context: &str) {
    assert_eq!(a.shape(), b.shape(), "{context}: shapes differ");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{context}: element {i} differs ({x} vs {y})"
        );
    }
}

fn small_spec() -> BuildingSpec {
    BuildingSpec {
        path_length_m: 14,
        num_aps: 18,
        ..BuildingId::B1.spec()
    }
}

/// `Scenario::generate` is a pure function of (building, config, seed):
/// feature matrices and labels are bit-identical across runs.
#[test]
fn scenario_generation_is_bit_identical() {
    let building = Building::generate(small_spec(), 9);
    let a = Scenario::generate(&building, &CollectionConfig::small(), 123);
    let b = Scenario::generate(&building, &CollectionConfig::small(), 123);
    assert_eq!(a.train.x, b.train.x);
    assert_eq!(a.train.labels, b.train.labels);
    assert_eq!(a.test_per_device.len(), b.test_per_device.len());
    for ((da, dsa), (db, dsb)) in a.test_per_device.iter().zip(&b.test_per_device) {
        assert_eq!(da, db);
        assert_eq!(dsa.x, dsb.x, "test features differ for device {da:?}");
        assert_eq!(dsa.labels, dsb.labels);
    }
}

/// Building realization itself is seed-deterministic.
#[test]
fn building_generation_is_bit_identical() {
    let a = Building::generate(small_spec(), 4);
    let b = Building::generate(small_spec(), 4);
    assert_eq!(a.num_rps(), b.num_rps());
    assert_eq!(a.num_aps(), b.num_aps());
    let pm = calloc_sim::PropagationModel::default();
    for rp in 0..a.num_rps() {
        for ap in 0..a.num_aps() {
            assert_eq!(
                pm.mean_rss_dbm(&a, rp, ap).to_bits(),
                pm.mean_rss_dbm(&b, rp, ap).to_bits(),
                "mean RSS differs at rp={rp} ap={ap}"
            );
        }
    }
}

/// Two `CallocTrainer::fit` runs with the same config seed produce
/// bit-identical models: identical logits (compared exactly, via `f64`
/// bit patterns) and identical predictions on both train and test data.
#[test]
fn calloc_training_is_bit_identical() {
    let building = Building::generate(small_spec(), 9);
    let scenario = Scenario::generate(&building, &CollectionConfig::small(), 123);
    let config = CallocConfig {
        epochs_per_lesson: 4,
        ..CallocConfig::fast()
    };

    let run_a = CallocTrainer::new(config).fit(&scenario.train);
    let run_b = CallocTrainer::new(config).fit(&scenario.train);

    let test = &scenario.test_per_device[0].1;
    let logits_a = run_a
        .model
        .as_differentiable()
        .expect("calloc is differentiable")
        .logits(&test.x);
    let logits_b = run_b
        .model
        .as_differentiable()
        .expect("calloc is differentiable")
        .logits(&test.x);
    assert_matrix_bits_eq(&logits_a, &logits_b, "test logits are not bit-identical");

    assert_eq!(
        run_a.model.predict_classes(&scenario.train.x),
        run_b.model.predict_classes(&scenario.train.x)
    );
    assert_eq!(
        run_a.model.predict_classes(&test.x),
        run_b.model.predict_classes(&test.x)
    );
    assert_eq!(run_a.lesson_reports.len(), run_b.lesson_reports.len());
}

/// The parallel compute runtime's core contract: training is
/// bit-identical for every thread count (`CALLOC_THREADS` = 1, 2, 4 here,
/// via the process-local override), with the per-chunk work floor dropped
/// so the parallel code paths actually engage at test sizes.
///
/// CI additionally runs this whole suite twice, with `CALLOC_THREADS=1`
/// and `CALLOC_THREADS=4`, comparing across processes.
#[test]
fn calloc_training_is_thread_count_invariant() {
    let _guard = lock_knobs();
    let building = Building::generate(small_spec(), 9);
    let scenario = Scenario::generate(&building, &CollectionConfig::small(), 123);
    let config = CallocConfig {
        epochs_per_lesson: 3,
        ..CallocConfig::fast()
    };
    let test = &scenario.test_per_device[0].1;

    let _floor = par::MinWorkGuard::new(1);
    let _threads = par::ThreadGuard::new(1);
    let mut logits_per_thread_count = Vec::new();
    for threads in [1usize, 2, 4] {
        par::set_threads(threads);
        let run = CallocTrainer::new(config).fit(&scenario.train);
        logits_per_thread_count.push((
            threads,
            run.model
                .as_differentiable()
                .expect("calloc is differentiable")
                .logits(&test.x),
        ));
    }

    let (_, ref serial) = logits_per_thread_count[0];
    for (threads, logits) in &logits_per_thread_count[1..] {
        assert_matrix_bits_eq(
            serial,
            logits,
            &format!("training logits diverge between 1 and {threads} threads"),
        );
    }
}

/// Parallel suite training (members fan out onto worker threads) must
/// produce the same members, in figure order, with bit-identical
/// predictions, for every thread count.
#[test]
fn suite_training_is_thread_count_invariant() {
    use calloc_eval::{Suite, SuiteProfile};

    let _guard = lock_knobs();
    let building = Building::generate(small_spec(), 9);
    let scenario = Scenario::generate(&building, &CollectionConfig::small(), 7);
    let profile = SuiteProfile {
        calloc: CallocConfig {
            epochs_per_lesson: 2,
            ..CallocConfig::fast()
        },
        lessons: 2,
        include_nc: false,
        include_sota: false,
        include_classical: true,
        baseline_epochs: 4,
        train_epsilon: 0.025,
        seed: 3,
    };
    let test = &scenario.test_per_device[0].1;

    let _floor = par::MinWorkGuard::new(1);
    let _threads = par::ThreadGuard::new(1);
    let serial = Suite::train(&scenario, &profile);
    par::set_threads(4);
    let parallel = Suite::train(&scenario, &profile);

    assert_eq!(serial.members.len(), parallel.members.len());
    for (a, b) in serial.members.iter().zip(&parallel.members) {
        assert_eq!(a.name, b.name, "member order must be figure order");
        assert_eq!(
            a.model.predict_classes(&test.x),
            b.model.predict_classes(&test.x),
            "{} predictions diverge across thread counts",
            a.name
        );
    }
    assert_matrix_bits_eq(
        &serial.surrogate.infer(&test.x),
        &parallel.surrogate.infer(&test.x),
        "surrogate diverges across thread counts",
    );
}

/// GPC inference rides on the batched kernel-distance engine
/// (`calloc_tensor::kernel` cross-kernel + row-parallel gradient): scores,
/// predictions and the white-box input gradient must be bit-identical for
/// every thread count, with the work floor dropped so every row fan-out
/// engages at test sizes.
#[test]
fn gpc_inference_is_thread_count_invariant() {
    use calloc_baselines::{GpcConfig, GpcLocalizer};
    use calloc_nn::DifferentiableModel;
    use calloc_tensor::{Matrix, Rng};

    let _guard = lock_knobs();
    let mut rng = Rng::new(41);
    let classes = 4;
    let x_train = Matrix::from_fn(33, 6, |_, _| rng.uniform(0.0, 1.0));
    let y_train: Vec<usize> = (0..33).map(|i| i % classes).collect();
    let gpc =
        GpcLocalizer::fit(x_train, y_train, classes, GpcConfig::default()).expect("SPD kernel");
    let x = Matrix::from_fn(11, 6, |_, _| rng.uniform(0.0, 1.0));
    let targets: Vec<usize> = (0..11).map(|i| (i * 3) % classes).collect();

    let _floor = par::MinWorkGuard::new(1);
    let _threads = par::ThreadGuard::new(1);
    let mut runs = Vec::new();
    for threads in [1usize, 2, 4] {
        par::set_threads(threads);
        let (loss, grad) = gpc.loss_and_input_grad(&x, &targets);
        runs.push((threads, gpc.scores(&x), loss, grad));
    }

    let (_, ref scores1, loss1, ref grad1) = runs[0];
    for (threads, scores, loss, grad) in &runs[1..] {
        assert_matrix_bits_eq(
            scores1,
            scores,
            &format!("GPC scores diverge between 1 and {threads} threads"),
        );
        assert_eq!(
            loss1.to_bits(),
            loss.to_bits(),
            "GPC loss diverges between 1 and {threads} threads"
        );
        assert_matrix_bits_eq(
            grad1,
            grad,
            &format!("GPC input gradient diverges between 1 and {threads} threads"),
        );
    }
}

/// The sweep engine's plan-index merge contract: the full attack-axis
/// cross-product (all crafting kinds × both MITM variants × all targeting
/// strategies × ε × ø grids plus the clean cell) over a quick-profile
/// suite produces an **equal `ResultTable`** — same rows, same order,
/// same CSV bytes — at every thread count.
#[test]
fn sweep_engine_is_thread_count_invariant() {
    use calloc_eval::{Suite, SuiteProfile, SweepSpec};

    let _guard = lock_knobs();
    let building = Building::generate(small_spec(), 9);
    let scenario = Scenario::generate(&building, &CollectionConfig::small(), 7);
    let profile = SuiteProfile {
        calloc: CallocConfig {
            epochs_per_lesson: 2,
            ..CallocConfig::fast()
        },
        lessons: 2,
        include_nc: false,
        include_sota: false,
        include_classical: true, // covers the GPC Cholesky path
        baseline_epochs: 4,
        train_epsilon: 0.025,
        seed: 3,
    };
    let spec = SweepSpec::full_grid(vec![0.1, 0.3], vec![50.0, 100.0]).with_seed(5);

    let _floor = par::MinWorkGuard::new(1);
    let _threads = par::ThreadGuard::new(1);
    let suite = Suite::train(&scenario, &profile);
    let datasets = Suite::scenario_datasets(&scenario, "B1");
    let serial = suite.sweep(&datasets, &spec);
    let mut parallel_tables = Vec::new();
    for threads in [2usize, 4] {
        par::set_threads(threads);
        parallel_tables.push((threads, suite.sweep(&datasets, &spec)));
    }

    let per_pair = 1 + 3 * 2 * 3 * 2 * 2;
    assert_eq!(
        serial.len(),
        suite.members.len() * datasets.len() * per_pair,
        "plan must cover the full cross-product"
    );
    for (threads, table) in &parallel_tables {
        assert_eq!(
            &serial, table,
            "ResultTable diverges between 1 and {threads} threads"
        );
        assert_eq!(
            serial.to_csv(),
            table.to_csv(),
            "CSV bytes diverge between 1 and {threads} threads"
        );
    }
}

/// The scenario-grid engine's plan-index merge contract: a
/// `ScenarioSpec` grid (buildings × densities × device sets ×
/// environments × seeds) generates **bit-identical** scenario sets at
/// every thread count, and a one-cell grid is bit-identical to the direct
/// `Scenario::generate` call — the session-level fan-out inside a single
/// generation is covered by the same comparison (a one-cell plan leaves
/// the thread budget to the sessions).
#[test]
fn scenario_grid_is_thread_count_invariant() {
    use calloc_sim::{EnvLevel, ScenarioSpec};

    let _guard = lock_knobs();
    let spec = ScenarioSpec::from_base(
        vec![
            small_spec(),
            BuildingSpec {
                path_length_m: 11,
                num_aps: 13,
                ..BuildingId::B5.spec()
            },
        ],
        9,
        CollectionConfig::small(),
        vec![123, 124],
    )
    .with_environments(vec![EnvLevel::BASELINE, EnvLevel::uniform(2.0)]);
    let single = ScenarioSpec::single(small_spec(), 9, CollectionConfig::small(), 123);

    let _floor = par::MinWorkGuard::new(1);
    let _threads = par::ThreadGuard::new(1);
    let serial = spec.generate();
    let serial_single = single.generate();
    assert_eq!(serial.len(), 2 * 2 * 2);
    let mut parallel_runs = Vec::new();
    for threads in [2usize, 4] {
        par::set_threads(threads);
        parallel_runs.push((threads, spec.generate(), single.generate()));
    }

    let direct = Scenario::generate(
        &Building::generate(small_spec(), 9),
        &CollectionConfig::small(),
        123,
    );
    assert_eq!(
        serial_single.scenario(0),
        &direct,
        "one-cell grid must match the direct call"
    );
    for (threads, set, set_single) in &parallel_runs {
        assert_eq!(serial.len(), set.len());
        for i in 0..serial.len() {
            let (a, b) = (serial.scenario(i), set.scenario(i));
            assert_matrix_bits_eq(
                &a.train.x,
                &b.train.x,
                &format!("grid cell {i} survey diverges between 1 and {threads} threads"),
            );
            assert_eq!(a.train.labels, b.train.labels);
            for ((da, ta), (_, tb)) in a.test_per_device.iter().zip(&b.test_per_device) {
                assert_matrix_bits_eq(
                    &ta.x,
                    &tb.x,
                    &format!(
                        "grid cell {i} {} session diverges between 1 and {threads} threads",
                        da.acronym
                    ),
                );
            }
        }
        assert_matrix_bits_eq(
            &serial_single.scenario(0).train.x,
            &set_single.scenario(0).train.x,
            &format!("single-cell survey diverges between 1 and {threads} threads"),
        );
    }
}

/// Fault-tolerance extension of the merge contract: a sweep that is
/// first poisoned by an injected always-failing cell (quarantined, not
/// fatal) and then **resumed** against the same store with the fault
/// cleared must produce a `ResultTable` equal — same rows, same order,
/// same CSV bytes — to the plain one-shot sweep, at every thread count.
#[test]
fn resume_after_injected_fault_is_thread_count_invariant() {
    use calloc_eval::{ExecSpec, Suite, SuiteProfile, SweepSpec};
    use calloc_tensor::par::FaultPlan;

    calloc_tensor::par::silence_injected_panics();
    let _guard = lock_knobs();
    let building = Building::generate(small_spec(), 9);
    let scenario = Scenario::generate(&building, &CollectionConfig::small(), 7);
    let profile = SuiteProfile {
        calloc: CallocConfig {
            epochs_per_lesson: 2,
            ..CallocConfig::fast()
        },
        lessons: 2,
        include_nc: false,
        include_sota: false,
        include_classical: true,
        baseline_epochs: 4,
        train_epsilon: 0.025,
        seed: 3,
    };
    let spec = SweepSpec::full_grid(vec![0.1, 0.3], vec![50.0, 100.0]).with_seed(5);

    let _floor = par::MinWorkGuard::new(1);
    let _threads = par::ThreadGuard::new(1);
    let suite = Suite::train(&scenario, &profile);
    let datasets = Suite::scenario_datasets(&scenario, "B1");
    let reference = suite.sweep(&datasets, &spec);
    let plan = suite.sweep_plan(&datasets, &spec);
    let poisoned = [1usize, plan.len() / 2];

    for threads in [1usize, 2, 4] {
        par::set_threads(threads);
        // First pass: the poisoned cells fail every attempt and are
        // quarantined; everything else lands in the store.
        let faulty = ExecSpec::default()
            .with_retries(1)
            .with_faults(FaultPlan::panic_on(&poisoned, usize::MAX));
        let mut store = plan.memory_store();
        let report = suite
            .sweep_with_store(&plan, &datasets, &faulty, &mut store)
            .expect("poisoned pass");
        assert_eq!(
            report.errors.len(),
            poisoned.len(),
            "both poisoned cells must be quarantined at {threads} threads"
        );
        assert_eq!(store.len(), plan.len() - poisoned.len());
        // Resume with the fault gone: only the quarantined cells rerun.
        let report = suite
            .sweep_with_store(&plan, &datasets, &ExecSpec::default(), &mut store)
            .expect("resumed pass");
        assert!(report.is_complete(), "{}", report.summary());
        assert_eq!(report.executed, poisoned.len());
        assert_eq!(
            &reference, &report.table,
            "resumed ResultTable diverges from the one-shot sweep at {threads} threads"
        );
        assert_eq!(
            reference.to_csv(),
            report.table.to_csv(),
            "resumed CSV bytes diverge from the one-shot sweep at {threads} threads"
        );
    }
}

/// The trajectory pipeline's merge contract: grid generation (motion
/// walks + per-tick sessions) and the sequential-inference sweep (raw /
/// filtered / smoothed rows per member) produce an **equal
/// `TrajectoryTable`** — same rows, same order, same CSV bytes — at
/// `CALLOC_THREADS` 1, 2, 4 and 8, and the generated trajectories
/// themselves are bit-identical across thread counts.
#[test]
fn trajectory_sweep_is_thread_count_invariant() {
    use calloc_baselines::KnnLocalizer;
    use calloc_sim::{EnvLevel, MotionConfig, TrajectorySpec};
    use calloc_track::{run_trajectory_sweep, TrackConfig};

    let _guard = lock_knobs();
    let spec = TrajectorySpec::from_base(
        vec![
            small_spec(),
            BuildingSpec {
                path_length_m: 11,
                num_aps: 13,
                ..BuildingId::B5.spec()
            },
        ],
        9,
        MotionConfig::paper(),
        CollectionConfig::small(),
        vec![5, 8],
        vec![3],
    )
    .with_environments(vec![EnvLevel::BASELINE, EnvLevel::uniform(2.0)]);

    let _floor = par::MinWorkGuard::new(1);
    let _threads = par::ThreadGuard::new(1);
    let run = || {
        let set = spec.plan().generate();
        let members: Vec<KnnLocalizer> = set
            .plan()
            .buildings()
            .iter()
            .map(|building| {
                let scenario = Scenario::generate(building, &CollectionConfig::small(), 17);
                KnnLocalizer::fit(
                    scenario.train.x.clone(),
                    scenario.train.labels.clone(),
                    building.num_rps(),
                    3,
                )
            })
            .collect();
        let member_refs: Vec<Vec<(&str, &dyn Localizer)>> = members
            .iter()
            .map(|knn| vec![("KNN", knn as &dyn Localizer)])
            .collect();
        let table = run_trajectory_sweep(&set, &member_refs, &TrackConfig::paper());
        let observation_bits: Vec<Vec<u64>> = set
            .trajectories()
            .iter()
            .map(|t| {
                t.observations
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            })
            .collect();
        (table, observation_bits)
    };

    let (serial_table, serial_bits) = run();
    assert_eq!(
        serial_table.len(),
        2 * 2 * 2 * 3,
        "one raw/filtered/smoothed row triple per grid cell"
    );
    for threads in [2usize, 4, 8] {
        par::set_threads(threads);
        let (table, bits) = run();
        assert_eq!(
            serial_bits, bits,
            "generated trajectories diverge between 1 and {threads} threads"
        );
        assert_eq!(
            serial_table, table,
            "TrajectoryTable diverges between 1 and {threads} threads"
        );
        assert_eq!(
            serial_table.to_csv(),
            table.to_csv(),
            "trajectory CSV bytes diverge between 1 and {threads} threads"
        );
    }
}

/// Different seeds must actually change the realization — guards against a
/// determinism test passing because the seed is ignored entirely.
#[test]
fn different_seeds_produce_different_scenarios() {
    let building = Building::generate(small_spec(), 9);
    let a = Scenario::generate(&building, &CollectionConfig::small(), 1);
    let b = Scenario::generate(&building, &CollectionConfig::small(), 2);
    assert_ne!(
        a.train.x, b.train.x,
        "seed is ignored by Scenario::generate"
    );
}
