//! # calloc-eval
//!
//! The evaluation harness that regenerates the CALLOC paper's experiments:
//! localization-error metrics, a framework suite trainer, attack
//! application (white-box or surrogate-transfer) and plain-text reporting
//! (ASCII heatmaps, CSV, markdown tables).
//!
//! The harness operates on the [`calloc_nn::Localizer`] contract, so the
//! same experiment code runs CALLOC, every baseline and any future model.
//!
//! # Example: evaluate a model under attack
//!
//! ```
//! use calloc_attack::AttackConfig;
//! use calloc_baselines::KnnLocalizer;
//! use calloc_eval::{evaluate, Evaluation};
//! use calloc_sim::{Building, BuildingId, CollectionConfig, Scenario};
//!
//! let building = Building::generate(BuildingId::B3.spec(), 1);
//! let scenario = Scenario::generate(&building, &CollectionConfig::small(), 7);
//! let knn = KnnLocalizer::fit(
//!     scenario.train.x.clone(),
//!     scenario.train.labels.clone(),
//!     scenario.train.num_classes(),
//!     3,
//! );
//! let soft = knn.to_soft(0.05); // white-box surrogate for the attack
//! let test = &scenario.test_per_device[0].1;
//! let clean = evaluate(&knn, test, None, None);
//! let attacked = evaluate(&knn, test, Some(&AttackConfig::fgsm(0.3, 100.0)), Some(&soft));
//! assert!(attacked.summary.mean >= clean.summary.mean * 0.8);
//! ```

#![deny(missing_docs)]

pub mod cache;
pub mod fault;
mod metrics;
mod report;
pub mod store;
mod suite;
pub mod sweep;

pub use cache::ModelCache;
pub use fault::{checkpoint_due, CellError, ExecSpec, FaultPlan, RunReport};
pub use metrics::{
    attacked_inputs, evaluate, evaluate_mitm, transfer_batch, AttackedInputs, Evaluation,
};
pub use report::{ascii_heatmap, csv_table, markdown_table, ResultRow, ResultTable};
pub use store::{write_atomic, ResultStore, StoreError};
pub use suite::{Suite, SuiteMember, SuiteProfile};
pub use sweep::{run_env_sweep, run_sweep, AttackCell, SweepCell, SweepPlan, SweepSpec};

// Re-export what experiment binaries usually need alongside the harness.
pub use calloc_nn::{DifferentiableModel, Localizer};
