//! Trajectory workloads: waypoint-walk motion simulation over a building.
//!
//! The paper evaluates localizers on i.i.d. test fingerprints; production
//! users *move*. This module adds the motion half of that story: a
//! [`MotionModel`] walks the building's RP path (the serpentine survey
//! path of Table II, RPs at 1 m granularity) under a speed / dwell / turn
//! configuration, and [`Trajectory::generate`] samples RSSI along the walk
//! through the existing propagation + temporal-drift machinery — a
//! trajectory is one *online session in motion*, so it realizes its
//! between-phase drift exactly the way a [`crate::Scenario`] online
//! session does.
//!
//! # The motion grammar
//!
//! The walker lives on the RP path parameterized by arc length: a
//! continuous position `s ∈ [0, num_rps − 1]` plus a direction. Each
//! sample tick it
//!
//! 1. records the RP nearest to `s` (ground truth) and one fingerprint
//!    measured at that RP;
//! 2. *dwells* (no movement) with probability
//!    [`MotionConfig::dwell_prob`], otherwise *turns around* with
//!    probability [`MotionConfig::turn_prob`] and advances by
//!    `speed_mps × sample_period_s` metres (consecutive RPs are 1 m
//!    apart), reflecting off the path ends.
//!
//! Positions are RP positions, so a walk can never leave the building
//! extent (`crates/sim/tests/proptest_motion.rs` pins this). Future
//! motion models (room graphs, pause-and-go, multi-floor) follow the same
//! axis rules as the scenario grid: new fields on [`MotionConfig`] with
//! defaults that keep every pinned walk bit-identical, new axes on
//! [`TrajectorySpec`] with singleton defaults.
//!
//! # Grids and the plan-index merge contract
//!
//! [`TrajectorySpec`] → [`TrajectoryPlan`] → [`TrajectorySet`] is the
//! scenario grid's engine ([`crate::GridPlan`] / [`crate::GridSet`]) over
//! trajectory axes: axes are flattened into a plan-indexed work list
//! (building-major, then path length, then environment, seed innermost)
//! and [`GridPlan::generate`] fans cells out on
//! [`calloc_tensor::par::par_chunks`] merging in plan-index order — a
//! [`TrajectorySet`] is **bit-identical at every `CALLOC_THREADS`**.
//! Every trajectory derives all randomness from its cell seed and the
//! building seed via per-trajectory RNG forks (one stream for the walk,
//! one for the measurement session), so cells are pure functions of
//! `(building, motion, config, steps, seed)`.

use calloc_tensor::{Matrix, Rng};
use serde::{Deserialize, Serialize};

use crate::building::{Building, BuildingSpec};
use crate::grid::{paper_buildings, quick_buildings, EnvLevel, Grid, GridCell, GridPlan, GridSet};
use crate::propagation::{normalize_rss, RSS_FLOOR_DBM};
use crate::scenario::{CollectionConfig, PhaseDrift};

/// Waypoint-walk parameters: how a user moves along the RP path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MotionConfig {
    /// Walking speed in metres per second (consecutive path RPs are 1 m
    /// apart, so this is also RPs per second along the path).
    pub speed_mps: f64,
    /// Probability of dwelling (zero movement) at each sample tick —
    /// users stop at desks, doors and displays.
    pub dwell_prob: f64,
    /// Probability of reversing walk direction at each moving tick.
    pub turn_prob: f64,
    /// Seconds between consecutive RSSI samples (Wi-Fi scan period).
    pub sample_period_s: f64,
}

impl MotionConfig {
    /// The default walk: 1.4 m/s pedestrian speed, occasional dwells and
    /// turn-arounds, one scan per second.
    pub fn paper() -> Self {
        MotionConfig {
            speed_mps: 1.4,
            dwell_prob: 0.1,
            turn_prob: 0.05,
            sample_period_s: 1.0,
        }
    }
}

/// A waypoint walker over one building's RP path.
pub struct MotionModel<'a> {
    building: &'a Building,
    config: MotionConfig,
}

impl<'a> MotionModel<'a> {
    /// A walker for `building` under `config`.
    pub fn new(building: &'a Building, config: MotionConfig) -> Self {
        MotionModel { building, config }
    }

    /// Walks `num_steps` sample ticks and returns the ground-truth RP
    /// index at each tick. The start RP, start direction, dwells and
    /// turns are all drawn from `rng`, so the walk is a pure function of
    /// the RNG state; consecutive ticks move at most
    /// `speed_mps × sample_period_s` metres of arc length.
    pub fn walk(&self, num_steps: usize, rng: &mut Rng) -> Vec<usize> {
        let n = self.building.num_rps();
        let max_s = (n - 1) as f64;
        let mut s = rng.index(n) as f64;
        let mut dir = if rng.bernoulli(0.5) { 1.0 } else { -1.0 };
        let step_m = self.config.speed_mps * self.config.sample_period_s;
        let mut rps = Vec::with_capacity(num_steps);
        for _ in 0..num_steps {
            rps.push((s.round() as usize).min(n - 1));
            if rng.bernoulli(self.config.dwell_prob) {
                continue;
            }
            if rng.bernoulli(self.config.turn_prob) {
                dir = -dir;
            }
            s += dir * step_m;
            // Reflect off the path ends; the clamp guards degenerate
            // single-RP paths and steps longer than the whole path.
            if s < 0.0 {
                s = -s;
                dir = 1.0;
            }
            if s > max_s {
                s = 2.0 * max_s - s;
                dir = -1.0;
            }
            s = s.clamp(0.0, max_s);
        }
        rps
    }
}

/// One walked-and-measured trajectory: timestamped ground truth plus the
/// RSSI fingerprint observed at each sample tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trajectory {
    /// Seconds since walk start, one per sample tick.
    pub timestamps_s: Vec<f64>,
    /// Ground-truth RP index at each tick.
    pub rp_labels: Vec<usize>,
    /// Ground-truth position in metres at each tick (the RP position).
    pub positions_m: Vec<(f64, f64)>,
    /// Normalized RSSI observations, one row per tick (`len × num_aps`).
    pub observations: Matrix,
}

impl Trajectory {
    /// Walks and measures one trajectory, reproducibly from `seed`.
    ///
    /// Randomness discipline (the per-trajectory fork contract): a
    /// trajectory RNG is seeded from `seed` and the building seed, then
    /// forked once for the walk and once for the measurement session —
    /// so two trajectories with different seeds are independent, and the
    /// walk of a cell is unchanged by environment-axis drift multipliers
    /// (drift shifts what is *measured*, never where the user *walks*).
    /// The session stream samples a [`crate::Scenario`]-style drift
    /// realization first, then measures one fingerprint per tick at the
    /// walker's RP through propagation → drift shift → device transfer →
    /// normalization, exactly the scenario collection sequence. The
    /// device is [`CollectionConfig::reference_device`].
    pub fn generate(
        building: &Building,
        motion: &MotionConfig,
        config: &CollectionConfig,
        num_steps: usize,
        seed: u64,
    ) -> Trajectory {
        let n_rp = building.num_rps();
        let n_ap = building.num_aps();
        let mut rng = Rng::new(seed ^ building.spec().seed.rotate_left(23));
        let mut walk_rng = rng.fork(1);
        let mut session_rng = rng.fork(2);

        let model = MotionModel::new(building, motion.clone());
        let rp_labels = model.walk(num_steps, &mut walk_rng);

        let drift = PhaseDrift::sample(
            n_rp,
            n_ap,
            config.temporal_drift_std_db,
            config.reshadow_std_db,
            &mut session_rng,
        );
        let mut observations = Matrix::zeros(num_steps, n_ap);
        for (row, &rp) in rp_labels.iter().enumerate() {
            for ap in 0..n_ap {
                let truth = config
                    .propagation
                    .measure_dbm(building, rp, ap, &mut session_rng);
                let shifted = if truth > RSS_FLOOR_DBM {
                    (truth + drift.ap_drift_db[ap] + drift.reshadow_db.get(rp, ap))
                        .clamp(RSS_FLOOR_DBM, 0.0)
                } else {
                    truth
                };
                let observed = config.reference_device.observe(shifted, &mut session_rng);
                observations.set(row, ap, normalize_rss(observed));
            }
        }

        let positions_m = rp_labels
            .iter()
            .map(|&rp| building.rp_positions()[rp])
            .collect();
        let timestamps_s = (0..num_steps)
            .map(|t| t as f64 * motion.sample_period_s)
            .collect();
        Trajectory {
            timestamps_s,
            rp_labels,
            positions_m,
            observations,
        }
    }

    /// Number of sample ticks.
    pub fn len(&self) -> usize {
        self.rp_labels.len()
    }

    /// Whether the trajectory has no ticks.
    pub fn is_empty(&self) -> bool {
        self.rp_labels.is_empty()
    }

    /// Total ground-truth path length in metres (sum of consecutive
    /// position distances — dwells contribute zero).
    pub fn path_length_m(&self) -> f64 {
        self.positions_m
            .windows(2)
            .map(|w| {
                let (x0, y0) = w[0];
                let (x1, y1) = w[1];
                ((x1 - x0).powi(2) + (y1 - y0).powi(2)).sqrt()
            })
            .sum()
    }
}

/// Canonical identity string of one trajectory generation: the resolved
/// `(building spec, salt, motion config, collection config, steps, seed)`
/// tuple [`Trajectory::generate`] is a pure function of — the trajectory
/// mirror of [`crate::collection_identity`], usable as a cache key.
/// The scheme version must be bumped whenever generation semantics change
/// incompatibly.
pub fn trajectory_identity(
    spec: &BuildingSpec,
    building_salt: u64,
    motion: &MotionConfig,
    config: &CollectionConfig,
    num_steps: usize,
    seed: u64,
) -> String {
    format!(
        "trajectory v1 building={spec:?} salt={building_salt} motion={motion:?} \
         config={config:?} steps={num_steps} seed={seed}"
    )
}

/// Declarative description of a trajectory grid: buildings × path lengths
/// × environment levels × seeds over a template motion + collection
/// config, mirroring [`crate::ScenarioSpec`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrajectorySpec {
    /// Building axis (outermost): one generated realization per spec.
    pub buildings: Vec<BuildingSpec>,
    /// Salt fed to [`Building::generate`] for every building realization.
    pub building_salt: u64,
    /// Template walk parameters, shared by the whole grid.
    pub motion: MotionConfig,
    /// Template collection protocol; the environment axis scales its
    /// drift fields per cell, everything else is shared.
    pub base: CollectionConfig,
    /// Path-length axis: number of sample ticks per trajectory.
    pub path_lengths: Vec<usize>,
    /// Environment axis: between-phase drift severity (shifts what the
    /// walker measures, never where it walks).
    pub environments: Vec<EnvLevel>,
    /// Seed axis (innermost): independent walk + session realizations.
    pub seeds: Vec<u64>,
}

impl TrajectorySpec {
    /// A grid over `buildings` with a singleton baseline environment
    /// axis — each cell is then exactly a direct
    /// [`Trajectory::generate`] call.
    pub fn from_base(
        buildings: Vec<BuildingSpec>,
        building_salt: u64,
        motion: MotionConfig,
        base: CollectionConfig,
        path_lengths: Vec<usize>,
        seeds: Vec<u64>,
    ) -> Self {
        TrajectorySpec {
            environments: vec![EnvLevel::BASELINE],
            buildings,
            building_salt,
            motion,
            base,
            path_lengths,
            seeds,
        }
    }

    /// The paper grid: all five Table II buildings, three path lengths,
    /// baseline environment, one seed.
    pub fn paper() -> Self {
        Self::from_base(
            paper_buildings(),
            0,
            MotionConfig::paper(),
            CollectionConfig::paper(),
            vec![30, 60, 120],
            vec![42],
        )
    }

    /// The quick grid: two shrunken buildings (24 m paths, 40 APs — the
    /// bench quick profile), two path lengths, baseline environment, one
    /// seed.
    pub fn quick() -> Self {
        Self::from_base(
            quick_buildings(),
            0,
            MotionConfig::paper(),
            CollectionConfig::paper(),
            vec![16, 32],
            vec![42],
        )
    }

    /// A one-cell grid: the generated cell is bit-identical to the
    /// direct [`Trajectory::generate`] call with the same arguments.
    pub fn single(
        building: BuildingSpec,
        building_salt: u64,
        motion: MotionConfig,
        config: CollectionConfig,
        num_steps: usize,
        seed: u64,
    ) -> Self {
        Self::from_base(
            vec![building],
            building_salt,
            motion,
            config,
            vec![num_steps],
            vec![seed],
        )
    }

    /// Returns a copy with the given path-length axis.
    pub fn with_path_lengths(mut self, path_lengths: Vec<usize>) -> Self {
        self.path_lengths = path_lengths;
        self
    }

    /// Returns a copy with the given environment axis.
    pub fn with_environments(mut self, environments: Vec<EnvLevel>) -> Self {
        self.environments = environments;
        self
    }

    /// Returns a copy with the given seed axis.
    pub fn with_seeds(mut self, seeds: Vec<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Enumerates the grid (see [`GridPlan`]).
    pub fn plan(&self) -> TrajectoryPlan {
        GridPlan::new(self.clone())
    }

    /// Plans and generates in one call.
    pub fn generate(&self) -> TrajectorySet {
        self.plan().generate()
    }
}

impl Grid for TrajectorySpec {
    type Cell = TrajectoryCell;
    type Item = Trajectory;

    fn building_specs(&self) -> &[BuildingSpec] {
        &self.buildings
    }

    fn building_salt(&self) -> u64 {
        self.building_salt
    }

    fn environments(&self) -> &[EnvLevel] {
        &self.environments
    }

    fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    fn enumerate(&self) -> Vec<TrajectoryCell> {
        let mut cells = Vec::new();
        for building in 0..self.buildings.len() {
            for path_length in 0..self.path_lengths.len() {
                for environment in 0..self.environments.len() {
                    for seed in 0..self.seeds.len() {
                        cells.push(TrajectoryCell {
                            plan_index: cells.len(),
                            building,
                            path_length,
                            environment,
                            seed,
                        });
                    }
                }
            }
        }
        cells
    }

    /// The template config with the cell's environment applied. A
    /// baseline cell reproduces the template **exactly** (multiplying by
    /// `1.0` preserves bits).
    fn config_for(&self, cell: &TrajectoryCell) -> CollectionConfig {
        self.environments[cell.environment].apply(&self.base)
    }

    /// See [`trajectory_identity`].
    fn cell_identity(&self, cell: &TrajectoryCell) -> String {
        trajectory_identity(
            &self.buildings[cell.building],
            self.building_salt,
            &self.motion,
            &self.config_for(cell),
            self.path_lengths[cell.path_length],
            self.seeds[cell.seed],
        )
    }

    fn generate_cell(&self, building: &Building, cell: &TrajectoryCell) -> Trajectory {
        Trajectory::generate(
            building,
            &self.motion,
            &self.config_for(cell),
            self.path_lengths[cell.path_length],
            self.seeds[cell.seed],
        )
    }
}

/// One unit of trajectory-generation work: one point on the grid axes.
/// All fields are indices into the axes of the owning plan's
/// [`TrajectorySpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrajectoryCell {
    /// Position of this cell in the plan — the merge key of the engine's
    /// determinism contract.
    pub plan_index: usize,
    /// Index into [`TrajectorySpec::buildings`].
    pub building: usize,
    /// Index into [`TrajectorySpec::path_lengths`].
    pub path_length: usize,
    /// Index into [`TrajectorySpec::environments`].
    pub environment: usize,
    /// Index into [`TrajectorySpec::seeds`].
    pub seed: usize,
}

impl GridCell for TrajectoryCell {
    fn building(&self) -> usize {
        self.building
    }

    fn environment(&self) -> usize {
        self.environment
    }

    fn seed(&self) -> usize {
        self.seed
    }
}

/// A fully enumerated trajectory grid (see [`GridPlan`]).
pub type TrajectoryPlan = GridPlan<TrajectorySpec>;

impl TrajectoryPlan {
    /// The number of sample ticks of one cell.
    pub fn steps_for(&self, cell: &TrajectoryCell) -> usize {
        self.spec().path_lengths[cell.path_length]
    }
}

/// A generated trajectory grid: one [`Trajectory`] per plan cell, in
/// plan-index order (see [`GridSet`]).
pub type TrajectorySet = GridSet<TrajectorySpec>;

impl TrajectorySet {
    /// All trajectories, in plan-index order.
    pub fn trajectories(&self) -> &[Trajectory] {
        &self.items
    }

    /// The trajectory at a plan index (panics like [`GridSet::cell`]).
    pub fn trajectory(&self, index: usize) -> &Trajectory {
        &self.items[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::building::BuildingId;

    fn tiny_building() -> BuildingSpec {
        BuildingSpec {
            path_length_m: 10,
            num_aps: 8,
            ..BuildingId::B2.spec()
        }
    }

    #[test]
    fn presets_have_singleton_axes() {
        let paper = TrajectorySpec::paper();
        assert_eq!(paper.buildings.len(), 5);
        assert_eq!(paper.environments, vec![EnvLevel::BASELINE]);
        assert_eq!(paper.plan().len(), 15);

        let quick = TrajectorySpec::quick();
        assert_eq!(quick.buildings.len(), 2);
        assert!(quick
            .buildings
            .iter()
            .all(|b| b.path_length_m == 24 && b.num_aps == 40));
        assert_eq!(quick.plan().len(), 4);
    }

    #[test]
    fn plan_enumerates_the_full_cross_product() {
        let spec = TrajectorySpec::from_base(
            vec![tiny_building(), BuildingId::B4.spec()],
            3,
            MotionConfig::paper(),
            CollectionConfig::small(),
            vec![4, 8],
            vec![7, 8, 9],
        )
        .with_environments(vec![EnvLevel::BASELINE, EnvLevel::uniform(2.0)]);
        let plan = spec.plan();
        // 2 buildings × 2 path lengths × 2 environments × 3 seeds
        assert_eq!(plan.len(), 24);
        assert!(!plan.is_empty());
        for (i, cell) in plan.cells().iter().enumerate() {
            assert_eq!(cell.plan_index, i, "plan index must equal position");
        }
        // Seed is the innermost axis; building the outermost.
        assert_eq!(plan.cells()[0].seed, 0);
        assert_eq!(plan.cells()[1].seed, 1);
        assert_eq!(plan.cells()[2].seed, 2);
        assert_eq!(plan.cells()[3].environment, 1);
        assert!(plan.cells()[..plan.len() / 2]
            .iter()
            .all(|c| c.building == 0));
    }

    #[test]
    fn baseline_cell_config_reproduces_the_template() {
        let base = CollectionConfig::small();
        let spec = TrajectorySpec::single(
            tiny_building(),
            1,
            MotionConfig::paper(),
            base.clone(),
            6,
            5,
        );
        let plan = spec.plan();
        let cell = plan.cells()[0];
        let config = plan.config_for(&cell);
        assert_eq!(
            config.temporal_drift_std_db.to_bits(),
            base.temporal_drift_std_db.to_bits()
        );
        assert_eq!(
            config.reshadow_std_db.to_bits(),
            base.reshadow_std_db.to_bits()
        );
        assert_eq!(plan.steps_for(&cell), 6);
        assert_eq!(plan.seed_for(&cell), 5);
    }

    #[test]
    fn single_cell_matches_direct_generate() {
        let bspec = tiny_building();
        let motion = MotionConfig::paper();
        let config = CollectionConfig::small();
        let set = TrajectorySpec::single(bspec.clone(), 4, motion.clone(), config.clone(), 9, 11)
            .generate();
        assert_eq!(set.len(), 1);
        let direct = Trajectory::generate(&Building::generate(bspec, 4), &motion, &config, 9, 11);
        assert_eq!(
            set.trajectory(0),
            &direct,
            "grid cell must equal direct call"
        );
        assert_eq!(set.seed_for(0), 11);
        assert!(set.env_for(0).is_baseline());
        assert_eq!(set.building_name(0), "Building 2");
    }

    #[test]
    fn trajectory_shape_and_truth_are_consistent() {
        let building = Building::generate(tiny_building(), 2);
        let motion = MotionConfig::paper();
        let t = Trajectory::generate(&building, &motion, &CollectionConfig::small(), 12, 3);
        assert_eq!(t.len(), 12);
        assert!(!t.is_empty());
        assert_eq!(t.timestamps_s.len(), 12);
        assert_eq!(t.positions_m.len(), 12);
        assert_eq!(t.observations.rows(), 12);
        assert_eq!(t.observations.cols(), building.num_aps());
        assert_eq!(t.timestamps_s[0], 0.0);
        assert_eq!(t.timestamps_s[1], motion.sample_period_s);
        for (&rp, &pos) in t.rp_labels.iter().zip(&t.positions_m) {
            assert!(rp < building.num_rps());
            assert_eq!(pos, building.rp_positions()[rp]);
        }
        assert!(t
            .observations
            .as_slice()
            .iter()
            .all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn walks_move_at_most_one_step_per_tick() {
        let building = Building::generate(tiny_building(), 7);
        let motion = MotionConfig::paper();
        let model = MotionModel::new(&building, motion.clone());
        let mut rng = Rng::new(99);
        let rps = model.walk(64, &mut rng);
        let max_step = (motion.speed_mps * motion.sample_period_s).ceil() as usize;
        for w in rps.windows(2) {
            let jump = w[0].abs_diff(w[1]);
            assert!(
                jump <= max_step,
                "walk jumped {jump} RPs in one tick (max {max_step})"
            );
        }
    }

    #[test]
    fn environment_axis_changes_observations_but_not_the_walk() {
        let spec = TrajectorySpec::single(
            tiny_building(),
            2,
            MotionConfig::paper(),
            CollectionConfig::small(),
            10,
            3,
        )
        .with_environments(vec![EnvLevel::BASELINE, EnvLevel::uniform(3.0)]);
        let set = spec.generate();
        assert_eq!(set.len(), 2);
        let (baseline, harsh) = (set.trajectory(0), set.trajectory(1));
        // Drift multipliers shift what is measured, never where the user
        // walks: the ground truth is shared, the observations are not.
        assert_eq!(baseline.rp_labels, harsh.rp_labels, "walk must not drift");
        assert_ne!(
            baseline.observations, harsh.observations,
            "environment level must change the measurements"
        );
    }

    #[test]
    fn longer_walks_share_their_prefix() {
        // The walk and session streams are forked before length is
        // consumed, so a longer cell extends — bit-identically — the
        // shorter cell's realization.
        let building = Building::generate(tiny_building(), 5);
        let motion = MotionConfig::paper();
        let config = CollectionConfig::small();
        let short = Trajectory::generate(&building, &motion, &config, 6, 21);
        let long = Trajectory::generate(&building, &motion, &config, 12, 21);
        assert_eq!(short.rp_labels[..], long.rp_labels[..6]);
        for row in 0..6 {
            assert_eq!(short.observations.row(row), long.observations.row(row));
        }
    }

    #[test]
    fn cell_identity_distinguishes_every_axis() {
        let spec = TrajectorySpec::single(
            tiny_building(),
            0,
            MotionConfig::paper(),
            CollectionConfig::small(),
            5,
            1,
        )
        .with_path_lengths(vec![5, 6])
        .with_environments(vec![EnvLevel::BASELINE, EnvLevel::uniform(2.0)])
        .with_seeds(vec![1, 2]);
        let plan = spec.plan();
        let ids: std::collections::BTreeSet<String> =
            plan.cells().iter().map(|c| plan.cell_identity(c)).collect();
        assert_eq!(ids.len(), plan.len(), "identities must be unique per cell");
        assert!(ids.iter().all(|id| id.starts_with("trajectory v1 ")));
    }
}
