//! Property-based tests of the trajectory subsystem
//! (`TrajectorySpec → TrajectoryPlan → TrajectorySet`): walks stay inside
//! the building, cross-product enumeration, thread-count-invariant
//! generation and per-cell seed independence.

use calloc_sim::{
    Building, BuildingId, BuildingSpec, CollectionConfig, EnvLevel, MotionConfig, Trajectory,
    TrajectorySpec,
};
use calloc_tensor::par;
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes the tests that flip the process-global `par` knobs (see
/// `proptest_scenario.rs` for the rationale).
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

/// Raw-bit trajectory equality: the grid contract is *bit* identity, and
/// `PartialEq` on `f64` would let a `0.0` / `-0.0` divergence slip by.
fn assert_trajectory_bits_eq(a: &Trajectory, b: &Trajectory, context: &str) {
    assert_eq!(a.rp_labels, b.rp_labels, "{context}: labels differ");
    assert_eq!(a.positions_m.len(), b.positions_m.len(), "{context}");
    for (i, (x, y)) in a
        .observations
        .as_slice()
        .iter()
        .zip(b.observations.as_slice())
        .enumerate()
    {
        assert_eq!(x.to_bits(), y.to_bits(), "{context}: observation {i}");
    }
    for (i, (t, u)) in a.timestamps_s.iter().zip(&b.timestamps_s).enumerate() {
        assert_eq!(t.to_bits(), u.to_bits(), "{context}: timestamp {i}");
    }
}

/// The plan-index merge contract end to end: the same trajectory grid
/// generated at 1, 2, 3 and 8 worker threads is bit-identical, with the
/// work floor dropped so every fan-out engages at test sizes.
#[test]
fn trajectory_set_is_bit_identical_across_thread_counts() {
    let _guard = lock_knobs();
    let spec = TrajectorySpec::from_base(
        vec![tiny_building(0), tiny_building(1)],
        5,
        MotionConfig::paper(),
        CollectionConfig::small(),
        vec![6, 12],
        vec![3, 4],
    )
    .with_environments(vec![EnvLevel::BASELINE, EnvLevel::uniform(2.0)]);

    let _floor = par::MinWorkGuard::new(1);
    let _threads = par::ThreadGuard::new(1);
    let serial = spec.generate();
    assert_eq!(serial.len(), 16);
    for threads in [2usize, 3, 8] {
        par::set_threads(threads);
        let parallel = spec.generate();
        assert_eq!(serial.len(), parallel.len());
        for i in 0..serial.len() {
            assert_eq!(serial.cell(i), parallel.cell(i), "cell {i}");
            assert_trajectory_bits_eq(
                serial.trajectory(i),
                parallel.trajectory(i),
                &format!("cell {i} diverges between 1 and {threads} threads"),
            );
        }
    }
}

/// Grid cells are bit-identical to direct `Trajectory::generate` calls —
/// the grid engine adds parallelism, never new randomness.
#[test]
fn grid_cells_match_direct_generation() {
    let _guard = lock_knobs();
    let motion = MotionConfig::paper();
    let base = CollectionConfig::small();
    let spec = TrajectorySpec::from_base(
        vec![tiny_building(2)],
        7,
        motion.clone(),
        base.clone(),
        vec![9],
        vec![11, 12],
    );
    let set = {
        let _floor = par::MinWorkGuard::new(1);
        let _threads = par::ThreadGuard::new(4);
        spec.generate()
    };
    let building = Building::generate(tiny_building(2), 7);
    for (i, &seed) in [11u64, 12].iter().enumerate() {
        let direct = Trajectory::generate(&building, &motion, &base, 9, seed);
        assert_trajectory_bits_eq(
            set.trajectory(i),
            &direct,
            &format!("grid cell {i} diverges from the direct call"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Walks never leave the building: every ground-truth RP index is in
    /// range and every position lies inside the floorplan extent, for
    /// arbitrary buildings, walk lengths and seeds.
    #[test]
    fn walks_never_leave_building_bounds(
        salt in 0u64..1000,
        steps in 1usize..64,
        seed in 0u64..10_000,
    ) {
        let building = Building::generate(tiny_building(salt), salt);
        let t = Trajectory::generate(
            &building,
            &MotionConfig::paper(),
            &CollectionConfig::small(),
            steps,
            seed,
        );
        let (w, h) = building.spec().extent_m;
        prop_assert_eq!(t.len(), steps);
        for (&rp, &(x, y)) in t.rp_labels.iter().zip(&t.positions_m) {
            prop_assert!(rp < building.num_rps(), "RP {} out of range", rp);
            prop_assert!((0.0..=w).contains(&x), "x = {} outside [0, {}]", x, w);
            prop_assert!((0.0..=h).contains(&y), "y = {} outside [0, {}]", y, h);
        }
        for v in t.observations.as_slice() {
            prop_assert!((0.0..=1.0).contains(v), "observation {} not normalized", v);
        }
    }

    /// Plan enumeration is the row-major cross-product: the cell count is
    /// the product of every axis length, plan indices equal positions,
    /// every axis index stays in range and consecutive cells' axis tuples
    /// strictly increase lexicographically — which, with the count and
    /// the ranges, leaves exactly one order.
    #[test]
    fn trajectory_plan_is_a_complete_cross_product(
        salt in 0u64..1000,
        n_buildings in 1usize..3,
        n_lengths in 1usize..4,
        n_envs in 1usize..3,
        n_seeds in 1usize..4,
    ) {
        let spec = TrajectorySpec::from_base(
            (0..n_buildings).map(|i| tiny_building(salt + i as u64)).collect(),
            salt,
            MotionConfig::paper(),
            CollectionConfig::small(),
            (0..n_lengths).map(|i| 4 + i).collect(),
            (0..n_seeds).map(|i| salt + i as u64).collect(),
        )
        .with_environments((0..n_envs).map(|i| EnvLevel::uniform(1.0 + i as f64)).collect());
        let plan = spec.plan();
        prop_assert_eq!(plan.len(), n_buildings * n_lengths * n_envs * n_seeds);
        for (i, cell) in plan.cells().iter().enumerate() {
            prop_assert_eq!(cell.plan_index, i);
            prop_assert!(cell.building < n_buildings);
            prop_assert!(cell.path_length < n_lengths);
            prop_assert!(cell.environment < n_envs);
            prop_assert!(cell.seed < n_seeds);
        }
        for pair in plan.cells().windows(2) {
            let axes =
                |c: &calloc_sim::TrajectoryCell| (c.building, c.path_length, c.environment, c.seed);
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
        let motion = MotionConfig::paper();
        let base = CollectionConfig::small();
        let building = tiny_building(salt);
        let shared = TrajectorySpec::from_base(
            vec![building.clone()], salt, motion.clone(), base.clone(),
            vec![8], vec![seed, seed + 1],
        );
        let changed = TrajectorySpec::from_base(
            vec![building], salt, motion, base, vec![8], vec![seed, seed + 2],
        );
        let a = shared.generate();
        let b = changed.generate();
        // The shared-seed cell is bit-identical across the two grids...
        assert_trajectory_bits_eq(a.trajectory(0), b.trajectory(0), "shared-seed cell");
        // ...while the re-seeded cell actually changed.
        prop_assert!(
            a.trajectory(1).observations != b.trajectory(1).observations,
            "different seeds must change the realization"
        );
    }
}
