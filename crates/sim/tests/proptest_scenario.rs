//! Property-based tests of the declarative scenario grid
//! (`ScenarioSpec → ScenarioPlan → ScenarioSet`): cross-product
//! enumeration, thread-count-invariant generation and per-cell seed
//! independence.

use calloc_sim::{
    Building, BuildingId, BuildingSpec, CollectionConfig, EnvLevel, Scenario, ScenarioSpec,
    SurveyDensity,
};
use calloc_tensor::par;
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes the tests that flip the process-global `par` knobs. The
/// other tests in this binary may generate while a knob flip is in
/// flight — harmless by the grid's own contract (generation is
/// thread-count invariant), but the flipping tests must not interleave
/// with each other.
static KNOB_LOCK: Mutex<()> = Mutex::new(());

fn lock_knobs() -> std::sync::MutexGuard<'static, ()> {
    KNOB_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tiny_building(salt: u64) -> BuildingSpec {
    let id = BuildingId::ALL[(salt % 5) as usize];
    BuildingSpec {
        path_length_m: 8 + (salt % 5) as usize,
        num_aps: 6 + (salt % 7) as usize,
        ..id.spec()
    }
}

/// Raw-bit scenario equality: the grid contract is *bit* identity, and
/// `PartialEq` on `f64` would let a `0.0` / `-0.0` divergence slip by.
fn assert_scenario_bits_eq(a: &Scenario, b: &Scenario, context: &str) {
    assert_eq!(a.train.labels, b.train.labels, "{context}: labels differ");
    for (i, (x, y)) in a
        .train
        .x
        .as_slice()
        .iter()
        .zip(b.train.x.as_slice())
        .enumerate()
    {
        assert_eq!(x.to_bits(), y.to_bits(), "{context}: train element {i}");
    }
    assert_eq!(
        a.test_per_device.len(),
        b.test_per_device.len(),
        "{context}"
    );
    for ((da, ta), (db, tb)) in a.test_per_device.iter().zip(&b.test_per_device) {
        assert_eq!(da, db, "{context}: device order differs");
        for (i, (x, y)) in ta.x.as_slice().iter().zip(tb.x.as_slice()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{context}: {} element {i}",
                da.acronym
            );
        }
    }
}

/// The plan-index merge contract end to end: the same grid generated at
/// 1, 2, 3 and 8 worker threads is bit-identical, with the work floor
/// dropped so every fan-out engages at test sizes. (CI additionally runs
/// this binary at `CALLOC_THREADS` ∈ {1, 2, 3, 4}, comparing across
/// processes through the golden tier.)
#[test]
fn scenario_set_is_bit_identical_across_thread_counts() {
    let _guard = lock_knobs();
    let spec = ScenarioSpec::from_base(
        vec![tiny_building(0), tiny_building(1)],
        5,
        CollectionConfig::small(),
        vec![3, 4],
    )
    .with_environments(vec![EnvLevel::BASELINE, EnvLevel::uniform(2.0)]);

    // RAII guards: a failed assertion below must not leak the overrides
    // into the rest of the process.
    let _floor = par::MinWorkGuard::new(1);
    let _threads = par::ThreadGuard::new(1);
    let serial = spec.generate();
    assert_eq!(serial.len(), 8);
    for threads in [2usize, 3, 8] {
        par::set_threads(threads);
        let parallel = spec.generate();
        assert_eq!(serial.len(), parallel.len());
        for i in 0..serial.len() {
            assert_eq!(serial.cell(i), parallel.cell(i), "cell {i}");
            assert_scenario_bits_eq(
                serial.scenario(i),
                parallel.scenario(i),
                &format!("cell {i} diverges between 1 and {threads} threads"),
            );
        }
    }
}

/// Grid cells are bit-identical to direct `Scenario::generate` calls with
/// the matching `(building, config, seed)` triple — the grid engine adds
/// parallelism, never new randomness.
#[test]
fn grid_cells_match_direct_generation() {
    let _guard = lock_knobs();
    let base = CollectionConfig::small();
    let spec = ScenarioSpec::from_base(vec![tiny_building(2)], 7, base.clone(), vec![11, 12]);
    let set = {
        let _floor = par::MinWorkGuard::new(1);
        let _threads = par::ThreadGuard::new(4);
        spec.generate()
    };
    let building = Building::generate(tiny_building(2), 7);
    for (i, &seed) in [11u64, 12].iter().enumerate() {
        let direct = Scenario::generate(&building, &base, seed);
        assert_scenario_bits_eq(
            set.scenario(i),
            &direct,
            &format!("grid cell {i} diverges from the direct call"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Plan enumeration is the row-major cross-product: the cell count is
    /// the product of every axis length, plan indices equal positions,
    /// every axis index stays in range and consecutive cells' axis tuples
    /// strictly increase lexicographically — which, with the count and
    /// the ranges, leaves exactly one order — for arbitrary axis sizes.
    #[test]
    fn scenario_plan_is_a_complete_cross_product(
        salt in 0u64..1000,
        n_buildings in 1usize..3,
        n_densities in 1usize..3,
        n_devices in 1usize..3,
        n_envs in 1usize..3,
        n_seeds in 1usize..4,
    ) {
        let base = CollectionConfig::small();
        let device_sets: Vec<_> = (0..n_devices)
            .map(|i| base.test_devices[..=i.min(base.test_devices.len() - 1)].to_vec())
            .collect();
        let spec = ScenarioSpec::from_base(
            (0..n_buildings).map(|i| tiny_building(salt + i as u64)).collect(),
            salt,
            base,
            (0..n_seeds).map(|i| salt + i as u64).collect(),
        )
        .with_densities(
            (0..n_densities)
                .map(|i| SurveyDensity { train_per_rp: i + 1, test_per_rp: 1 })
                .collect(),
        )
        .with_device_sets(device_sets)
        .with_environments((0..n_envs).map(|i| EnvLevel::uniform(1.0 + i as f64)).collect());
        let plan = spec.plan();
        prop_assert_eq!(
            plan.len(),
            n_buildings * n_densities * n_devices * n_envs * n_seeds
        );
        for (i, cell) in plan.cells().iter().enumerate() {
            prop_assert_eq!(cell.plan_index, i);
            prop_assert!(cell.building < n_buildings);
            prop_assert!(cell.density < n_densities);
            prop_assert!(cell.device_set < n_devices);
            prop_assert!(cell.environment < n_envs);
            prop_assert!(cell.seed < n_seeds);
        }
        for pair in plan.cells().windows(2) {
            let axes = |c: &calloc_sim::ScenarioCell| {
                (c.building, c.density, c.device_set, c.environment, c.seed)
            };
            prop_assert!(axes(&pair[0]) < axes(&pair[1]), "{:?} !< {:?}", pair[0], pair[1]);
        }
    }

    /// Per-cell seed independence: changing one entry of the seed axis
    /// changes only the cells that carry it — every other cell's bits are
    /// untouched.
    #[test]
    fn changing_one_seed_leaves_other_cells_unchanged(
        salt in 0u64..1000,
        seed in 0u64..10_000,
    ) {
        let base = CollectionConfig::small();
        let building = tiny_building(salt);
        let shared = ScenarioSpec::from_base(
            vec![building.clone()], salt, base.clone(), vec![seed, seed + 1],
        );
        let changed = ScenarioSpec::from_base(
            vec![building], salt, base, vec![seed, seed + 2],
        );
        let a = shared.generate();
        let b = changed.generate();
        // The shared-seed cell is bit-identical across the two grids...
        assert_scenario_bits_eq(a.scenario(0), b.scenario(0), "shared-seed cell");
        // ...while the re-seeded cell actually changed.
        prop_assert!(
            a.scenario(1).train.x != b.scenario(1).train.x,
            "different seeds must change the realization"
        );
    }
}
