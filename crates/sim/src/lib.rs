//! # calloc-sim
//!
//! Wi-Fi RSS indoor-localization data simulator: the substrate that stands
//! in for the measured smartphone dataset of the CALLOC paper (Tables I and
//! II), which is not publicly available.
//!
//! The simulator produces RSS fingerprints with the statistical structure
//! that drives the paper's results:
//!
//! * a **log-distance path-loss** radio model with per-building path-loss
//!   exponent, wall attenuation and static log-normal shadowing;
//! * **dynamic environmental noise** per measurement (people, equipment),
//!   scaled per building to mimic Table II's material characteristics;
//! * **device heterogeneity** (Table I): each smartphone applies its own
//!   gain offset, scale distortion, quantization and noise to the true RSS
//!   field, with the OnePlus 3 (OP3) as the reference capture device;
//! * the paper's collection protocol: reference points at 1 m granularity
//!   along a path, 5 training fingerprints per RP captured with OP3 and 1
//!   test fingerprint per RP per device;
//! * **declarative scenario grids** ([`ScenarioSpec`] → [`ScenarioPlan`] →
//!   [`ScenarioSet`]): buildings × survey densities × device sets ×
//!   environment levels × seeds, generated in parallel and merged in
//!   plan-index order, so a grid is bit-identical at every
//!   `CALLOC_THREADS`. Every grid runs on one engine: a spec implements
//!   [`Grid`] and [`GridPlan`] / [`GridSet`] enumerate, generate and
//!   hold it (see the [`GridPlan`] docs for the grammar and the
//!   plan-index merge contract);
//! * **trajectory workloads** ([`MotionConfig`] / [`MotionModel`] /
//!   [`Trajectory`] and the [`TrajectorySpec`] → [`TrajectoryPlan`] →
//!   [`TrajectorySet`] grid on the same engine): waypoint walks along
//!   the RP path with RSSI sampled through the same propagation +
//!   temporal-drift machinery — moving users instead of i.i.d. test
//!   points (see the [`motion`](crate::Trajectory) docs for the motion
//!   grammar).
//!
//! # Example
//!
//! ```
//! use calloc_sim::{Building, BuildingId, Scenario, CollectionConfig};
//!
//! let building = Building::generate(BuildingId::B1.spec(), 7);
//! let scenario = Scenario::generate(&building, &CollectionConfig::paper(), 7);
//! assert_eq!(scenario.train.num_classes(), building.num_rps());
//! assert_eq!(scenario.test_per_device.len(), 6);
//! ```
//!
//! The same collection as a (one-cell) declarative grid — grids of any
//! size generate in parallel with bit-identical results:
//!
//! ```
//! use calloc_sim::{BuildingId, CollectionConfig, EnvLevel, ScenarioSpec};
//!
//! let mut spec = BuildingId::B1.spec();
//! spec.path_length_m = 10;
//! spec.num_aps = 8;
//! let set = ScenarioSpec::single(spec, 7, CollectionConfig::small(), 7)
//!     .with_environments(vec![EnvLevel::BASELINE, EnvLevel::uniform(2.0)])
//!     .generate();
//! assert_eq!(set.len(), 2);
//! assert_eq!(set.scenario(0).train, set.scenario(1).train);
//! ```

#![deny(missing_docs)]

mod building;
mod dataset;
mod device;
mod grid;
mod motion;
mod propagation;
mod scenario;

pub use building::{Building, BuildingId, BuildingSpec, Material};
pub use dataset::Dataset;
pub use device::DeviceProfile;
pub use grid::{
    collection_identity, EnvLevel, Grid, GridCell, GridPlan, GridSet, ScenarioCell, ScenarioPlan,
    ScenarioSet, ScenarioSpec, SurveyDensity,
};
pub use motion::{
    trajectory_identity, MotionConfig, MotionModel, Trajectory, TrajectoryCell, TrajectoryPlan,
    TrajectorySet, TrajectorySpec,
};
pub use propagation::{normalize_rss, PropagationModel, RSS_FLOOR_DBM, RSS_MAX_DBM};
pub use scenario::{CollectionConfig, Scenario};
