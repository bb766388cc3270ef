//! Declarative data grids: the batch data-generation engine.
//!
//! Every workload in the reproduction starts from generated data —
//! collected scenarios or walked trajectories — and every multi-cell
//! experiment (figure bins, benches, robustness sweeps) is a grid of such
//! generations. This module is that grid, the data-side mirror of
//! `calloc_eval::sweep`:
//!
//! ```text
//! ScenarioSpec    --plan-->  ScenarioPlan    --generate-->  ScenarioSet
//! TrajectorySpec  --plan-->  TrajectoryPlan  --generate-->  TrajectorySet
//! ```
//!
//! Both rows are one engine. A spec implements [`Grid`]: it declares its
//! axes, enumerates their cross-product, resolves one cell's config and
//! identity, and generates one cell. [`GridPlan`] and [`GridSet`] do the
//! rest, and the four plan and set names above are aliases of them.
//!
//! * [`ScenarioSpec`] declares the scenario axes: buildings × survey
//!   densities × device sets × environment levels × seeds, on top of a
//!   template [`CollectionConfig`]. [`ScenarioSpec::paper`] and
//!   [`ScenarioSpec::quick`] mirror the sweep engine's presets;
//!   [`ScenarioSpec::single`] wraps the historical one-building call.
//!   [`crate::TrajectorySpec`] declares the trajectory axes the same way.
//! * [`ScenarioSpec::plan`] generates one [`Building`] realization per
//!   building-axis entry and flattens the cross-product into a work list
//!   of cells, each carrying its **plan index** — its position in the
//!   canonical enumeration order (building-major, then density, then
//!   device set, then environment, seed innermost).
//! * [`GridPlan::generate`] generates every cell on
//!   [`calloc_tensor::par::par_chunks`] — the work list is split into
//!   contiguous chunks that idle pool workers reclaim off a shared queue
//!   — and merges the results **in plan-index order**. The session
//!   fan-out inside each scenario cell draws the full configured budget
//!   too (nested fan-outs no longer collapse to serial).
//!
//! # The plan-index merge contract
//!
//! Every cell is a pure function of its resolved axes (for a scenario,
//! the `(building, config, seed)` triple: [`Scenario::generate`] derives
//! all randomness from the cell seed and the building seed), and the
//! generated cells are reassembled by ascending plan index, so a
//! [`GridSet`] is **bit-identical for every thread count**
//! (`CALLOC_THREADS` ∈ {1, 2, 3, …}) — and every cell is bit-identical to
//! the direct call with the same arguments. `tests/determinism.rs`,
//! `crates/sim/tests/proptest_scenario.rs` and
//! `crates/sim/tests/proptest_motion.rs` enforce both.
//!
//! # Adding an environment axis
//!
//! Environment axes select the *data* a cell collects (the attack axes of
//! `calloc_eval::SweepSpec` select the *adversary*), so they follow the
//! data-side mirror of the attack-axis rule: give the axis a field on
//! [`ScenarioSpec`] (every constructor defaulting to the axis' baseline
//! singleton so existing plans are unchanged), fold it into the spec's
//! [`Grid::config_for`] so a baseline cell reproduces the template config
//! **exactly** (bit-compatibility with pinned realizations), keep the new
//! loop's position in the enumeration documented, and — when the axis is
//! exposed to the sweep engine, as [`EnvLevel`] is through
//! `SweepSpec::env_multipliers` — label it in the result rows and pin a
//! golden CSV for it (`tests/golden/env_sweep.csv` is the template).

use std::fmt::Debug;

use calloc_tensor::par;
use serde::{Deserialize, Serialize};

use crate::building::{Building, BuildingId, BuildingSpec};
use crate::device::DeviceProfile;
use crate::scenario::{CollectionConfig, Scenario};

/// One survey-density point of a scenario grid: how many fingerprints the
/// offline and online phases capture per RP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SurveyDensity {
    /// Offline fingerprints per RP (reference device).
    pub train_per_rp: usize,
    /// Online fingerprints per RP per device.
    pub test_per_rp: usize,
}

impl SurveyDensity {
    /// The density of an existing collection protocol.
    pub fn of(config: &CollectionConfig) -> Self {
        SurveyDensity {
            train_per_rp: config.train_fingerprints_per_rp,
            test_per_rp: config.test_fingerprints_per_rp,
        }
    }
}

/// One environment-severity point: multipliers on the between-phase drift
/// of the collection protocol (per-AP temporal power drift and per-link
/// re-shadowing). `1.0 / 1.0` is the baseline environment; larger values
/// model harsher deployments — APs rebooted, moved or re-loaded, furniture
/// and people rearranged — the Fig. 3-style robustness axis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnvLevel {
    /// Multiplier on [`CollectionConfig::temporal_drift_std_db`].
    pub drift_mult: f64,
    /// Multiplier on [`CollectionConfig::reshadow_std_db`].
    pub reshadow_mult: f64,
}

impl EnvLevel {
    /// The unmodified environment (both multipliers `1.0`).
    pub const BASELINE: EnvLevel = EnvLevel {
        drift_mult: 1.0,
        reshadow_mult: 1.0,
    };

    /// A level scaling drift and re-shadowing by the same factor — the
    /// shape `calloc_eval::SweepSpec::env_multipliers` maps onto.
    pub fn uniform(mult: f64) -> Self {
        EnvLevel {
            drift_mult: mult,
            reshadow_mult: mult,
        }
    }

    /// Whether this is the baseline environment.
    pub fn is_baseline(&self) -> bool {
        self.drift_mult == 1.0 && self.reshadow_mult == 1.0
    }

    /// Applies the multipliers to a collection protocol. The baseline
    /// level returns a bit-identical config (multiplying a finite `f64`
    /// by `1.0` preserves its bits), so baseline cells reproduce pinned
    /// realizations exactly.
    pub fn apply(&self, config: &CollectionConfig) -> CollectionConfig {
        CollectionConfig {
            temporal_drift_std_db: config.temporal_drift_std_db * self.drift_mult,
            reshadow_std_db: config.reshadow_std_db * self.reshadow_mult,
            ..config.clone()
        }
    }

    /// Human-readable axis label, e.g. `"drift x2"` (`"baseline"` for the
    /// unmodified environment).
    pub fn label(&self) -> String {
        if self.is_baseline() {
            "baseline".to_string()
        } else if self.drift_mult == self.reshadow_mult {
            format!("drift x{}", self.drift_mult)
        } else {
            format!(
                "drift x{} / reshadow x{}",
                self.drift_mult, self.reshadow_mult
            )
        }
    }
}

/// The five Table II buildings at paper scale, in order: the building
/// axis of the `paper` grid presets.
pub(crate) fn paper_buildings() -> Vec<BuildingSpec> {
    BuildingId::ALL.iter().map(|id| id.spec()).collect()
}

/// Two shrunken buildings (B1 and B3 at 24 m paths and 40 APs, the bench
/// quick profile): the building axis of the `quick` grid presets.
pub(crate) fn quick_buildings() -> Vec<BuildingSpec> {
    [BuildingId::B1, BuildingId::B3]
        .iter()
        .map(|id| BuildingSpec {
            path_length_m: 24,
            num_aps: 40,
            ..id.spec()
        })
        .collect()
}

/// The axis indices of one grid cell that the shared [`GridPlan`] and
/// [`GridSet`] code reads. Every grid has a building, an environment and
/// a seed axis; a domain's own axes stay on its cell type.
pub trait GridCell {
    /// Index into the grid's building axis.
    fn building(&self) -> usize;
    /// Index into the grid's environment axis.
    fn environment(&self) -> usize;
    /// Index into the grid's seed axis.
    fn seed(&self) -> usize;
}

/// A declarative data grid: the part of a grid that differs between
/// domains. [`GridPlan`] enumerates it and [`GridSet`] holds what it
/// generated; both are shared by every implementation
/// ([`ScenarioSpec`], [`crate::TrajectorySpec`]).
pub trait Grid: Clone + Debug + Sync {
    /// One unit of generation work: the cell's index on every axis.
    type Cell: GridCell + Clone + Debug + Sync;
    /// What one cell generates.
    type Item: Clone + Debug + Send;

    /// Building axis (outermost): one generated realization per spec.
    fn building_specs(&self) -> &[BuildingSpec];
    /// Salt fed to [`Building::generate`] for every building realization.
    fn building_salt(&self) -> u64;
    /// Environment axis: between-phase drift severity.
    fn environments(&self) -> &[EnvLevel];
    /// Seed axis (innermost).
    fn seeds(&self) -> &[u64];
    /// The cross-product of every axis, in plan-index order: each cell's
    /// `plan_index` equals its position.
    fn enumerate(&self) -> Vec<Self::Cell>;
    /// The concrete collection protocol of one cell.
    fn config_for(&self, cell: &Self::Cell) -> CollectionConfig;
    /// Canonical identity of one cell's generation, built from the
    /// **resolved** per-cell config: two cells of different grids that
    /// generate the same data share one identity, and any axis that
    /// changes the data changes it.
    fn cell_identity(&self, cell: &Self::Cell) -> String;
    /// Generates one cell in its building realization.
    fn generate_cell(&self, building: &Building, cell: &Self::Cell) -> Self::Item;
}

/// A fully enumerated grid: the generated building realizations plus the
/// flat cell work list, in plan-index order.
#[derive(Debug, Clone)]
pub struct GridPlan<G: Grid> {
    spec: G,
    buildings: Vec<Building>,
    cells: Vec<G::Cell>,
}

impl<G: Grid> GridPlan<G> {
    /// Enumerates `spec`: generates one [`Building`] realization per
    /// building-axis entry (fanned out on [`par::par_chunks`], merged in
    /// axis order) and flattens the cross-product into the plan-indexed
    /// work list. An empty axis yields an empty plan.
    pub(crate) fn new(spec: G) -> Self {
        let specs = spec.building_specs();
        let buildings: Vec<Building> = par::par_chunks(specs.len(), 1, |range| {
            range
                .map(|i| Building::generate(specs[i].clone(), spec.building_salt()))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        let cells = spec.enumerate();
        GridPlan {
            spec,
            buildings,
            cells,
        }
    }

    /// The spec this plan was enumerated from.
    pub fn spec(&self) -> &G {
        &self.spec
    }

    /// The generated building realizations, in building-axis order.
    pub fn buildings(&self) -> &[Building] {
        &self.buildings
    }

    /// The flat work list, in plan-index order.
    pub fn cells(&self) -> &[G::Cell] {
        &self.cells
    }

    /// Number of cells in the plan.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the plan has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The concrete collection protocol of one cell (see
    /// [`Grid::config_for`]).
    pub fn config_for(&self, cell: &G::Cell) -> CollectionConfig {
        self.spec.config_for(cell)
    }

    /// The generation seed of one cell.
    pub fn seed_for(&self, cell: &G::Cell) -> u64 {
        self.spec.seeds()[cell.seed()]
    }

    /// Canonical identity of one cell's generation (see
    /// [`Grid::cell_identity`]).
    pub fn cell_identity(&self, cell: &G::Cell) -> String {
        self.spec.cell_identity(cell)
    }

    /// Executes the plan: every cell is generated (fanned out on
    /// [`par::par_chunks`]: contiguous chunks of the work list reclaimed
    /// by idle pool workers) and the results are merged in plan-index
    /// order, so the returned set is bit-identical for every thread
    /// count. Fan-outs inside a cell see the full configured budget as
    /// well — the pool schedules nested fan-outs instead of collapsing
    /// them to serial.
    pub fn generate(self) -> GridSet<G> {
        let items = par::par_chunks(self.cells.len(), 1, |range| {
            range
                .map(|i| {
                    let cell = &self.cells[i];
                    self.spec
                        .generate_cell(&self.buildings[cell.building()], cell)
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        GridSet { plan: self, items }
    }
}

/// A generated grid: one item per plan cell, in plan-index order,
/// together with the plan that produced it.
#[derive(Debug, Clone)]
pub struct GridSet<G: Grid> {
    plan: GridPlan<G>,
    pub(crate) items: Vec<G::Item>,
}

impl<G: Grid> GridSet<G> {
    /// The plan this set was generated from.
    pub fn plan(&self) -> &GridPlan<G> {
        &self.plan
    }

    /// Number of generated cells in the set.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The cell at a plan index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range, as do the other per-index
    /// accessors.
    pub fn cell(&self, index: usize) -> &G::Cell {
        &self.plan.cells[index]
    }

    /// The building realization a plan index was generated in.
    pub fn building_for(&self, index: usize) -> &Building {
        &self.plan.buildings[self.cell(index).building()]
    }

    /// The Table II name of the building a plan index was generated in.
    pub fn building_name(&self, index: usize) -> &'static str {
        self.building_for(index).spec().id.name()
    }

    /// The environment level a plan index was generated under.
    pub fn env_for(&self, index: usize) -> EnvLevel {
        self.plan.spec.environments()[self.cell(index).environment()]
    }

    /// The generation seed of a plan index.
    pub fn seed_for(&self, index: usize) -> u64 {
        self.plan.seed_for(self.cell(index))
    }

    /// Canonical identity of a plan index — see [`Grid::cell_identity`].
    pub fn cell_identity(&self, index: usize) -> String {
        self.plan.cell_identity(self.cell(index))
    }
}

/// Declarative description of a scenario grid: the data axes crossed into
/// a flat, plan-indexed generation work list.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Building axis (outermost): one generated realization per spec.
    pub buildings: Vec<BuildingSpec>,
    /// Salt fed to [`Building::generate`] for every building realization
    /// (the historical `salt` argument of the one-building workflow).
    pub building_salt: u64,
    /// Template protocol. The axes below override its density, device and
    /// drift fields per cell; everything else (reference device, radio
    /// constants) is shared by the whole grid.
    pub base: CollectionConfig,
    /// Survey-density axis.
    pub densities: Vec<SurveyDensity>,
    /// Device-set axis: each entry is a complete test-device list.
    pub device_sets: Vec<Vec<DeviceProfile>>,
    /// Environment axis: between-phase drift severity.
    pub environments: Vec<EnvLevel>,
    /// Seed axis (innermost): independent collection realizations. This is
    /// the grid's independence axis — changing one seed entry changes only
    /// the cells that carry it (see `proptest_scenario.rs`).
    pub seeds: Vec<u64>,
}

impl ScenarioSpec {
    /// A grid over `buildings` with singleton density / device-set /
    /// environment axes derived from `base` — each cell is then exactly a
    /// historical `Scenario::generate(building, base, seed)` call.
    pub fn from_base(
        buildings: Vec<BuildingSpec>,
        building_salt: u64,
        base: CollectionConfig,
        seeds: Vec<u64>,
    ) -> Self {
        ScenarioSpec {
            densities: vec![SurveyDensity::of(&base)],
            device_sets: vec![base.test_devices.clone()],
            environments: vec![EnvLevel::BASELINE],
            buildings,
            building_salt,
            base,
            seeds,
        }
    }

    /// The paper grid: all five Table II buildings under the paper
    /// protocol (5 train / 1 test fingerprints per RP, OP3 reference, all
    /// six Table I devices), baseline environment, one seed.
    pub fn paper() -> Self {
        Self::from_base(paper_buildings(), 0, CollectionConfig::paper(), vec![42])
    }

    /// The quick grid: two shrunken buildings (24 m paths, 40 APs — the
    /// bench quick profile) under the paper protocol, baseline
    /// environment, one seed.
    pub fn quick() -> Self {
        Self::from_base(quick_buildings(), 0, CollectionConfig::paper(), vec![42])
    }

    /// The historical one-building entry point as a one-cell grid: the
    /// generated cell is bit-identical to
    /// `Scenario::generate(&Building::generate(building, salt), &config, seed)`.
    pub fn single(
        building: BuildingSpec,
        building_salt: u64,
        config: CollectionConfig,
        seed: u64,
    ) -> Self {
        Self::from_base(vec![building], building_salt, config, vec![seed])
    }

    /// Returns a copy with the given survey-density axis.
    pub fn with_densities(mut self, densities: Vec<SurveyDensity>) -> Self {
        self.densities = densities;
        self
    }

    /// Returns a copy with the given device-set axis.
    pub fn with_device_sets(mut self, device_sets: Vec<Vec<DeviceProfile>>) -> Self {
        self.device_sets = device_sets;
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
    pub fn plan(&self) -> ScenarioPlan {
        GridPlan::new(self.clone())
    }

    /// Plans and generates in one call.
    pub fn generate(&self) -> ScenarioSet {
        self.plan().generate()
    }
}

impl Grid for ScenarioSpec {
    type Cell = ScenarioCell;
    type Item = Scenario;

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

    fn enumerate(&self) -> Vec<ScenarioCell> {
        let mut cells = Vec::new();
        for building in 0..self.buildings.len() {
            for density in 0..self.densities.len() {
                for device_set in 0..self.device_sets.len() {
                    for environment in 0..self.environments.len() {
                        for seed in 0..self.seeds.len() {
                            cells.push(ScenarioCell {
                                plan_index: cells.len(),
                                building,
                                density,
                                device_set,
                                environment,
                                seed,
                            });
                        }
                    }
                }
            }
        }
        cells
    }

    /// The template config with the cell's density, device set and
    /// environment applied. A cell on all-baseline axes (as produced by
    /// [`ScenarioSpec::from_base`]) reproduces the template **exactly**,
    /// which is what keeps grid cells bit-identical to historical
    /// `Scenario::generate` calls.
    fn config_for(&self, cell: &ScenarioCell) -> CollectionConfig {
        let density = self.densities[cell.density];
        let mut config = self.environments[cell.environment].apply(&self.base);
        config.train_fingerprints_per_rp = density.train_per_rp;
        config.test_fingerprints_per_rp = density.test_per_rp;
        config.test_devices = self.device_sets[cell.device_set].clone();
        config
    }

    /// See [`collection_identity`].
    fn cell_identity(&self, cell: &ScenarioCell) -> String {
        collection_identity(
            &self.buildings[cell.building],
            self.building_salt,
            &self.config_for(cell),
            self.seeds[cell.seed],
        )
    }

    fn generate_cell(&self, building: &Building, cell: &ScenarioCell) -> Scenario {
        Scenario::generate(building, &self.config_for(cell), self.seeds[cell.seed])
    }
}

/// Canonical identity string of one scenario collection: the resolved
/// `(building spec, building salt, collection config, seed)` quadruple
/// that [`Scenario::generate`] is a pure function of. Two collections with
/// equal identity strings produce bit-identical scenarios, so the string
/// is a sound cache key for anything derived deterministically from the
/// collected data (`calloc_eval::cache` keys trained models on it).
///
/// The encoding is the `Debug` form of each component (Rust's `{:?}`
/// round-trips `f64` exactly, so distinct configs never collide by
/// formatting), prefixed with a scheme version that must be bumped
/// whenever the generation semantics change incompatibly.
pub fn collection_identity(
    spec: &BuildingSpec,
    building_salt: u64,
    config: &CollectionConfig,
    seed: u64,
) -> String {
    format!("scenario v1 building={spec:?} salt={building_salt} config={config:?} seed={seed}")
}

/// One unit of generation work: collect one scenario for one point on the
/// grid axes. All fields are indices into the axes of the owning plan's
/// [`ScenarioSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioCell {
    /// Position of this cell in the plan — the merge key of the engine's
    /// determinism contract.
    pub plan_index: usize,
    /// Index into [`ScenarioSpec::buildings`].
    pub building: usize,
    /// Index into [`ScenarioSpec::densities`].
    pub density: usize,
    /// Index into [`ScenarioSpec::device_sets`].
    pub device_set: usize,
    /// Index into [`ScenarioSpec::environments`].
    pub environment: usize,
    /// Index into [`ScenarioSpec::seeds`].
    pub seed: usize,
}

impl GridCell for ScenarioCell {
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

/// A fully enumerated scenario grid (see [`GridPlan`]).
pub type ScenarioPlan = GridPlan<ScenarioSpec>;

/// A generated scenario grid: one collected [`Scenario`] per plan cell, in
/// plan-index order (see [`GridSet`]).
pub type ScenarioSet = GridSet<ScenarioSpec>;

impl ScenarioSet {
    /// All scenarios, in plan-index order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.items
    }

    /// The scenario at a plan index (panics like [`GridSet::cell`]).
    pub fn scenario(&self, index: usize) -> &Scenario {
        &self.items[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_building() -> BuildingSpec {
        BuildingSpec {
            path_length_m: 10,
            num_aps: 8,
            ..BuildingId::B2.spec()
        }
    }

    #[test]
    fn presets_have_singleton_axes() {
        let paper = ScenarioSpec::paper();
        assert_eq!(paper.buildings.len(), 5);
        assert_eq!(
            paper.densities,
            vec![SurveyDensity {
                train_per_rp: 5,
                test_per_rp: 1
            }]
        );
        assert_eq!(paper.device_sets[0].len(), 6);
        assert_eq!(paper.environments, vec![EnvLevel::BASELINE]);
        assert_eq!(paper.plan().len(), 5);

        let quick = ScenarioSpec::quick();
        assert_eq!(quick.buildings.len(), 2);
        assert!(quick
            .buildings
            .iter()
            .all(|b| b.path_length_m == 24 && b.num_aps == 40));
        assert_eq!(quick.plan().len(), 2);
    }

    #[test]
    fn plan_enumerates_the_full_cross_product() {
        let spec = ScenarioSpec::from_base(
            vec![tiny_building(), BuildingId::B4.spec()],
            3,
            CollectionConfig::small(),
            vec![7, 8, 9],
        )
        .with_densities(vec![
            SurveyDensity {
                train_per_rp: 1,
                test_per_rp: 1,
            },
            SurveyDensity {
                train_per_rp: 2,
                test_per_rp: 1,
            },
        ])
        .with_environments(vec![EnvLevel::BASELINE, EnvLevel::uniform(2.0)]);
        let plan = spec.plan();
        // 2 buildings × 2 densities × 1 device set × 2 environments × 3 seeds
        assert_eq!(plan.len(), 24);
        assert!(!plan.is_empty());
        for (i, cell) in plan.cells().iter().enumerate() {
            assert_eq!(cell.plan_index, i, "plan index must equal position");
        }
        // Seed is the innermost axis.
        assert_eq!(plan.cells()[0].seed, 0);
        assert_eq!(plan.cells()[1].seed, 1);
        assert_eq!(plan.cells()[2].seed, 2);
        assert_eq!(plan.cells()[3].environment, 1);
        // Building is the outermost axis.
        assert!(plan.cells()[..plan.len() / 2]
            .iter()
            .all(|c| c.building == 0));
    }

    #[test]
    fn baseline_cell_config_reproduces_the_template() {
        let base = CollectionConfig::small();
        let spec = ScenarioSpec::single(tiny_building(), 1, base.clone(), 5);
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
        assert_eq!(config.test_devices, base.test_devices);
        assert_eq!(
            config.train_fingerprints_per_rp,
            base.train_fingerprints_per_rp
        );
        assert_eq!(plan.seed_for(&cell), 5);
    }

    #[test]
    fn single_cell_matches_direct_generate() {
        let spec_b = tiny_building();
        let config = CollectionConfig::small();
        let set = ScenarioSpec::single(spec_b.clone(), 4, config.clone(), 11).generate();
        assert_eq!(set.len(), 1);
        let direct = Scenario::generate(&Building::generate(spec_b, 4), &config, 11);
        assert_eq!(set.scenario(0), &direct, "grid cell must equal direct call");
        assert_eq!(set.seed_for(0), 11);
        assert!(set.env_for(0).is_baseline());
        assert_eq!(set.building_name(0), "Building 2");
    }

    #[test]
    fn environment_axis_changes_online_but_not_offline_data() {
        let spec = ScenarioSpec::single(tiny_building(), 2, CollectionConfig::small(), 3)
            .with_environments(vec![EnvLevel::BASELINE, EnvLevel::uniform(3.0)]);
        let set = spec.generate();
        assert_eq!(set.len(), 2);
        let (baseline, harsh) = (set.scenario(0), set.scenario(1));
        // The offline survey has no between-phase drift, so the training
        // data is shared by every environment level.
        assert_eq!(baseline.train, harsh.train, "survey must not see drift");
        // The online sessions do drift: the harsher environment yields
        // different (and typically worse-aligned) fingerprints.
        assert_ne!(
            baseline.test_per_device[0].1.x, harsh.test_per_device[0].1.x,
            "environment level must change the online data"
        );
        assert_eq!(set.env_for(1), EnvLevel::uniform(3.0));
    }

    #[test]
    fn env_level_labels() {
        assert_eq!(EnvLevel::BASELINE.label(), "baseline");
        assert_eq!(EnvLevel::uniform(2.0).label(), "drift x2");
        assert_eq!(
            EnvLevel {
                drift_mult: 2.0,
                reshadow_mult: 1.0
            }
            .label(),
            "drift x2 / reshadow x1"
        );
    }
}
