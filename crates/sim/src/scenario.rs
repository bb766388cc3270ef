//! End-to-end data collection scenarios following the paper's protocol.
//!
//! [`Scenario::generate`] is the single-scenario entry point; grids of
//! scenarios (buildings × survey densities × device sets × environment
//! levels × seeds) are declared with [`crate::ScenarioSpec`] and generated
//! in parallel by [`crate::ScenarioPlan::generate`].
//!
//! # Parallelism and the session merge contract
//!
//! A scenario is a set of independent *collection sessions*: the offline
//! survey (reference device, no drift) plus one online session per test
//! device, each under its own realization of between-phase drift. Every
//! session consumes its own forked RNG stream (the forks are drawn from
//! the scenario RNG serially, in session order, exactly as the original
//! serial implementation did), so the sessions fan out onto
//! [`calloc_tensor::par::par_run`] workers and are merged back in session
//! order — the collected scenario is **bit-identical to the historical
//! serial implementation at every `CALLOC_THREADS`**. This fan-out draws
//! the full configured budget even when the scenario itself is one cell
//! of a parallel grid: the pool schedules nested fan-outs rather than
//! collapsing them to serial.
//!
//! Parallelism deliberately stops at session granularity: within one
//! session the measurement loop threads a single RNG stream through the
//! RPs (each draw count is data-dependent), so splitting it per RP would
//! require per-RP forks and change every pinned realization — the golden
//! regression tier (`tests/golden/quick_sweep.csv`) forbids that. Grids
//! scale across cells instead (see [`crate::ScenarioPlan`]).

use calloc_tensor::{par, Matrix, Rng};
use serde::{Deserialize, Serialize};

use crate::building::Building;
use crate::dataset::Dataset;
use crate::device::DeviceProfile;
use crate::propagation::{normalize_rss, PropagationModel};

/// Collection protocol parameters (§V.A of the paper).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CollectionConfig {
    /// Training fingerprints captured per RP (paper: 5).
    pub train_fingerprints_per_rp: usize,
    /// Test fingerprints captured per RP per device (paper: 1).
    pub test_fingerprints_per_rp: usize,
    /// Device used to capture training data (paper: OP3).
    pub reference_device: DeviceProfile,
    /// Devices used for testing (paper: all six of Table I).
    pub test_devices: Vec<DeviceProfile>,
    /// Radio constants.
    pub propagation: PropagationModel,
    /// Std (dB) of the per-AP power drift between the offline survey and
    /// each online session — APs reboot, change load and get moved between
    /// phases, the dominant error source in real deployments.
    pub temporal_drift_std_db: f64,
    /// Std (dB) of the per-link re-shadowing between phases (furniture and
    /// people rearrange the multipath field).
    pub reshadow_std_db: f64,
}

impl CollectionConfig {
    /// The exact protocol of the paper: 5 train / 1 test fingerprints per
    /// RP, OP3 as the reference device, all six Table I devices for test.
    pub fn paper() -> Self {
        CollectionConfig {
            train_fingerprints_per_rp: 5,
            test_fingerprints_per_rp: 1,
            reference_device: DeviceProfile::reference(),
            test_devices: DeviceProfile::paper_devices(),
            propagation: PropagationModel::default(),
            temporal_drift_std_db: 4.0,
            reshadow_std_db: 2.5,
        }
    }

    /// A faster protocol for unit tests and examples: fewer fingerprints
    /// and only the reference + one heterogeneous device (the MOTO, the
    /// most distorting transfer function of Table I).
    pub fn small() -> Self {
        CollectionConfig {
            train_fingerprints_per_rp: 3,
            test_fingerprints_per_rp: 1,
            reference_device: DeviceProfile::reference(),
            test_devices: vec![
                DeviceProfile::by_acronym("MOTO").expect("MOTO is a Table I device"),
                DeviceProfile::reference(),
            ],
            propagation: PropagationModel::default(),
            temporal_drift_std_db: 4.0,
            reshadow_std_db: 2.5,
        }
    }
}

/// A fully collected offline/online scenario for one building: one training
/// set (reference device) and one test set per device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Training fingerprints (offline phase, reference device).
    pub train: Dataset,
    /// Per-device test fingerprints (online phase), in the order of
    /// [`CollectionConfig::test_devices`].
    pub test_per_device: Vec<(DeviceProfile, Dataset)>,
}

impl Scenario {
    /// Collects a complete scenario for `building`, reproducibly from
    /// `seed`.
    ///
    /// The offline survey and the per-device online sessions run in
    /// parallel on up to `calloc_tensor::par::threads()` workers and are
    /// merged in session order; each session owns a forked RNG stream, so
    /// the result is bit-identical for every thread count — and
    /// bit-identical to the historical serial implementation (see the
    /// `scenario` module docs).
    pub fn generate(building: &Building, config: &CollectionConfig, seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ building.spec().seed.rotate_left(17));
        // Fork every session stream up front, in the order the serial
        // implementation consumed them: the offline survey first, then one
        // stream per online device session. Each fork draws exactly one
        // word from the scenario RNG, so the stream assignment is
        // independent of how the sessions are later scheduled.
        let mut train_rng = rng.fork(1);
        let session_rngs: Vec<Rng> = (0..config.test_devices.len())
            .map(|i| rng.fork(100 + i as u64))
            .collect();

        // Offline phase: no drift — the survey defines the reference field.
        let no_drift = PhaseDrift::none(building.num_rps(), building.num_aps());
        let mut jobs: Vec<Box<dyn FnOnce() -> Dataset + Send + '_>> =
            Vec::with_capacity(config.test_devices.len() + 1);
        jobs.push(Box::new(move || {
            collect(
                building,
                &config.propagation,
                &config.reference_device,
                config.train_fingerprints_per_rp,
                &no_drift,
                &mut train_rng,
            )
        }));
        // Online phase: every device session happens later, under its own
        // realization of AP power drift and re-shadowing.
        for (device, mut session_rng) in config.test_devices.iter().zip(session_rngs) {
            jobs.push(Box::new(move || {
                let drift = PhaseDrift::sample(
                    building.num_rps(),
                    building.num_aps(),
                    config.temporal_drift_std_db,
                    config.reshadow_std_db,
                    &mut session_rng,
                );
                collect(
                    building,
                    &config.propagation,
                    device,
                    config.test_fingerprints_per_rp,
                    &drift,
                    &mut session_rng,
                )
            }));
        }

        let mut sessions = par::par_run(jobs).into_iter();
        let train = sessions.next().expect("the first job is the survey");
        let test_per_device = config.test_devices.iter().cloned().zip(sessions).collect();
        Scenario {
            train,
            test_per_device,
        }
    }

    /// The test dataset for a device acronym, if collected.
    ///
    /// Device lists may repeat an acronym (e.g. the same phone model used
    /// for two online sessions); this returns the **first** matching
    /// session, in [`CollectionConfig::test_devices`] order. Use
    /// [`Scenario::device_acronyms`] to enumerate every collected session
    /// instead of probing acronym strings.
    pub fn test_for(&self, acronym: &str) -> Option<&Dataset> {
        self.test_per_device
            .iter()
            .find(|(d, _)| d.acronym == acronym)
            .map(|(_, ds)| ds)
    }

    /// The acronyms of every collected test device, in session
    /// ([`CollectionConfig::test_devices`]) order — duplicates included,
    /// so the indices align with [`Scenario::test_per_device`].
    pub fn device_acronyms(&self) -> Vec<&str> {
        self.test_per_device
            .iter()
            .map(|(d, _)| d.acronym.as_str())
            .collect()
    }
}

/// Between-phase environment change for one online session: per-AP power
/// drift plus per-link re-shadowing (both in dB).
///
/// Shared crate-internally with [`crate::motion`]: a trajectory is one
/// online session walked through the building, so it samples its drift
/// realization with exactly this machinery.
pub(crate) struct PhaseDrift {
    pub(crate) ap_drift_db: Vec<f64>,
    pub(crate) reshadow_db: Matrix,
}

impl PhaseDrift {
    pub(crate) fn none(n_rp: usize, n_ap: usize) -> Self {
        PhaseDrift {
            ap_drift_db: vec![0.0; n_ap],
            reshadow_db: Matrix::zeros(n_rp, n_ap),
        }
    }

    pub(crate) fn sample(
        n_rp: usize,
        n_ap: usize,
        drift_std: f64,
        reshadow_std: f64,
        rng: &mut Rng,
    ) -> Self {
        PhaseDrift {
            ap_drift_db: (0..n_ap).map(|_| rng.normal(0.0, drift_std)).collect(),
            reshadow_db: Matrix::from_fn(n_rp, n_ap, |_, _| rng.normal(0.0, reshadow_std)),
        }
    }
}

/// Collects `per_rp` fingerprints at every RP with the given device and
/// returns them as a normalized dataset.
fn collect(
    building: &Building,
    propagation: &PropagationModel,
    device: &DeviceProfile,
    per_rp: usize,
    drift: &PhaseDrift,
    rng: &mut Rng,
) -> Dataset {
    let n_rp = building.num_rps();
    let n_ap = building.num_aps();
    let mut x = Matrix::zeros(n_rp * per_rp, n_ap);
    let mut labels = Vec::with_capacity(n_rp * per_rp);
    let mut row = 0;
    for rp in 0..n_rp {
        for _ in 0..per_rp {
            for ap in 0..n_ap {
                let truth = propagation.measure_dbm(building, rp, ap, rng);
                let shifted = if truth > crate::propagation::RSS_FLOOR_DBM {
                    (truth + drift.ap_drift_db[ap] + drift.reshadow_db.get(rp, ap))
                        .clamp(crate::propagation::RSS_FLOOR_DBM, 0.0)
                } else {
                    truth
                };
                let observed = device.observe(shifted, rng);
                x.set(row, ap, normalize_rss(observed));
            }
            labels.push(rp);
            row += 1;
        }
    }
    Dataset::new(x, labels, building.rp_positions().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::building::BuildingId;

    fn scenario() -> (Building, Scenario) {
        let b = Building::generate(BuildingId::B3.spec(), 1);
        let s = Scenario::generate(&b, &CollectionConfig::paper(), 42);
        (b, s)
    }

    #[test]
    fn paper_protocol_counts() {
        let (b, s) = scenario();
        assert_eq!(s.train.len(), b.num_rps() * 5);
        assert_eq!(s.test_per_device.len(), 6);
        for (_, ds) in &s.test_per_device {
            assert_eq!(ds.len(), b.num_rps());
        }
    }

    #[test]
    fn features_are_normalized() {
        let (_, s) = scenario();
        assert!(s
            .train
            .x
            .as_slice()
            .iter()
            .all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn every_rp_is_labelled() {
        let (b, s) = scenario();
        let mut seen = vec![false; b.num_rps()];
        for &l in &s.train.labels {
            seen[l] = true;
        }
        assert!(seen.iter().all(|&v| v));
    }

    #[test]
    fn generation_is_deterministic() {
        let b = Building::generate(BuildingId::B1.spec(), 2);
        let s1 = Scenario::generate(&b, &CollectionConfig::small(), 7);
        let s2 = Scenario::generate(&b, &CollectionConfig::small(), 7);
        assert_eq!(s1.train.x, s2.train.x);
        let s3 = Scenario::generate(&b, &CollectionConfig::small(), 8);
        assert_ne!(s1.train.x, s3.train.x);
    }

    #[test]
    fn device_heterogeneity_shifts_fingerprints() {
        let (_, s) = scenario();
        let op3 = s.test_for("OP3").expect("OP3 collected");
        let moto = s.test_for("MOTO").expect("MOTO collected");
        // Same building, same RPs — but a clearly different mean feature
        // level because of the MOTO transfer function.
        let diff = (op3.x.mean() - moto.x.mean()).abs();
        assert!(diff > 0.005, "device shift too small: {diff}");
    }

    #[test]
    fn nearby_rps_have_similar_fingerprints() {
        // Spatial coherence: the fingerprint at RP i should usually be
        // closer to RP i+1 than to a far-away RP.
        let (b, s) = scenario();
        let per_rp = 5;
        let mut closer = 0;
        let mut total = 0;
        let dist = |a: &[f64], b: &[f64]| -> f64 {
            a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum::<f64>()
        };
        for rp in 0..b.num_rps() - 1 {
            let here = s.train.x.row(rp * per_rp);
            let next = s.train.x.row((rp + 1) * per_rp);
            let far_rp = (rp + b.num_rps() / 2) % b.num_rps();
            let far = s.train.x.row(far_rp * per_rp);
            if dist(here, next) < dist(here, far) {
                closer += 1;
            }
            total += 1;
        }
        assert!(
            closer as f64 > total as f64 * 0.8,
            "spatial coherence too weak: {closer}/{total}"
        );
    }

    #[test]
    fn test_for_unknown_device_is_none() {
        let (_, s) = scenario();
        assert!(s.test_for("PIXEL").is_none());
    }

    #[test]
    fn test_for_duplicate_acronym_returns_first_session() {
        // Two online sessions with the same phone model: each gets its own
        // drift realization, so their datasets differ — `test_for` must
        // resolve the ambiguity to the first session, by contract.
        let b = Building::generate(BuildingId::B1.spec(), 2);
        let mut config = CollectionConfig::small();
        config.test_devices = vec![DeviceProfile::reference(), DeviceProfile::reference()];
        let s = Scenario::generate(&b, &config, 6);
        assert_ne!(
            s.test_per_device[0].1.x, s.test_per_device[1].1.x,
            "sessions must see independent drift"
        );
        let first = s.test_for("OP3").expect("OP3 collected");
        assert_eq!(first.x, s.test_per_device[0].1.x, "first match wins");
    }

    #[test]
    fn device_acronyms_follow_session_order() {
        let (_, s) = scenario();
        assert_eq!(
            s.device_acronyms(),
            vec!["BLU", "HTC", "S7", "LG", "MOTO", "OP3"]
        );
        let b = Building::generate(BuildingId::B1.spec(), 2);
        let mut config = CollectionConfig::small();
        config.test_devices = vec![DeviceProfile::reference(), DeviceProfile::reference()];
        let s = Scenario::generate(&b, &config, 6);
        assert_eq!(s.device_acronyms(), vec!["OP3", "OP3"], "duplicates kept");
    }
}
