//! Localization-error evaluation with optional adversarial attacks.

use calloc_attack::{craft, AttackConfig, MitmAttack};
use calloc_nn::{DifferentiableModel, Localizer};
use calloc_sim::Dataset;
use calloc_tensor::stats::Summary;
use calloc_tensor::Matrix;

/// Result of evaluating one model on one dataset.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Per-fingerprint localization error in meters.
    pub errors_m: Vec<f64>,
    /// Summary statistics (mean = the paper's "mean error", max = the
    /// paper's "worst-case error").
    pub summary: Summary,
    /// Classification accuracy over RP classes (auxiliary metric).
    pub accuracy: f64,
}

/// How the adversarial inputs for a model were produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackedInputs {
    /// No attack was applied.
    Clean,
    /// White-box: gradients taken from the victim itself.
    WhiteBox,
    /// Transfer: gradients taken from a surrogate model because the victim
    /// is not differentiable.
    Transfer,
}

/// Evaluates `model` on `dataset`, optionally under attack.
///
/// Attack crafting uses the **strongest available adversary**: when both
/// the victim's own gradients and a `surrogate` are available, both a
/// white-box and a transfer attack are crafted and the more damaging one
/// (higher mean error) is reported. This is standard robust-evaluation
/// practice — kernel-based victims (GPC/WiDeep) otherwise hide behind
/// gradient masking and look spuriously robust. With neither gradient
/// source available, the attack is skipped and the clean inputs are used.
///
/// # Panics
///
/// Panics if `dataset` is empty.
pub fn evaluate(
    model: &dyn Localizer,
    dataset: &Dataset,
    attack: Option<&AttackConfig>,
    surrogate: Option<&dyn DifferentiableModel>,
) -> Evaluation {
    assert!(!dataset.is_empty(), "cannot evaluate on an empty dataset");
    // A manipulation-style MITM applies exactly `craft`, so plain-config
    // evaluation is the manipulation special case of the MITM path.
    let mitm = attack.map(|config| MitmAttack::manipulation(config.clone()));
    let transfer = mitm
        .as_ref()
        .zip(surrogate)
        .map(|(mitm, surrogate)| transfer_batch(surrogate, dataset, mitm));
    evaluate_mitm(model, dataset, mitm.as_ref(), transfer.as_ref())
}

/// The transfer batch of a MITM attack on `dataset`: the attack crafted
/// on the `surrogate`'s gradients. It does not depend on the victim, so
/// one batch serves every member evaluated under the same attack on the
/// same data — the sweep engine crafts it once per such group.
pub fn transfer_batch(
    surrogate: &dyn DifferentiableModel,
    dataset: &Dataset,
    attack: &MitmAttack,
) -> Matrix {
    attack.apply(surrogate, &dataset.x, &dataset.labels)
}

/// Evaluates `model` on `dataset` under a full MITM attack (manipulation
/// *or* spoofing injection), with the same strongest-available-adversary
/// rule as [`evaluate`]: the victim's own gradients (when it has them)
/// craft one candidate batch, `transfer` — the attack's
/// [`transfer_batch`] from a surrogate, when one is available — is the
/// other, and the more damaging one is reported. This is what the sweep
/// engine runs for every cell. Without an attack, `transfer` is ignored
/// and the clean inputs are evaluated.
///
/// # Panics
///
/// Panics if `dataset` is empty.
pub fn evaluate_mitm(
    model: &dyn Localizer,
    dataset: &Dataset,
    attack: Option<&MitmAttack>,
    transfer: Option<&Matrix>,
) -> Evaluation {
    assert!(!dataset.is_empty(), "cannot evaluate on an empty dataset");
    let eval_on = |x: &Matrix| -> Evaluation {
        let predictions = model.predict_classes(x);
        let errors_m = dataset.errors_meters(&predictions);
        let accuracy = calloc_nn::metrics::accuracy(&predictions, &dataset.labels);
        Evaluation {
            summary: Summary::of(&errors_m),
            errors_m,
            accuracy,
        }
    };
    let Some(mitm) = attack else {
        return eval_on(&dataset.x);
    };
    let white_box = model
        .as_differentiable()
        .map(|victim| mitm.apply(victim, &dataset.x, &dataset.labels));
    // Victim first: on a tie the later (transfer) candidate is reported,
    // as `max_by` keeps the last maximum.
    let candidates: Vec<&Matrix> = white_box.iter().chain(transfer).collect();
    if candidates.is_empty() {
        return eval_on(&dataset.x);
    }
    candidates
        .into_iter()
        .map(eval_on)
        .max_by(|a, b| {
            a.summary
                .mean
                .partial_cmp(&b.summary.mean)
                .expect("finite errors")
        })
        .expect("non-empty candidates")
}

/// Produces the (possibly adversarial) inputs a model would see, along
/// with how they were produced.
///
/// # Panics
///
/// Panics if `dataset` is empty.
pub fn attacked_inputs(
    model: &dyn Localizer,
    dataset: &Dataset,
    attack: Option<&AttackConfig>,
    surrogate: Option<&dyn DifferentiableModel>,
) -> (Matrix, AttackedInputs) {
    assert!(!dataset.is_empty(), "cannot evaluate on an empty dataset");
    let Some(config) = attack else {
        return (dataset.x.clone(), AttackedInputs::Clean);
    };
    if let Some(victim) = model.as_differentiable() {
        (
            craft(victim, &dataset.x, &dataset.labels, config),
            AttackedInputs::WhiteBox,
        )
    } else if let Some(sur) = surrogate {
        (
            craft(sur, &dataset.x, &dataset.labels, config),
            AttackedInputs::Transfer,
        )
    } else {
        (dataset.x.clone(), AttackedInputs::Clean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calloc_baselines::{DnnConfig, DnnLocalizer, KnnLocalizer};
    use calloc_sim::{Building, BuildingId, BuildingSpec, CollectionConfig, Scenario};

    fn scenario() -> Scenario {
        let spec = BuildingSpec {
            path_length_m: 15,
            num_aps: 20,
            ..BuildingId::B2.spec()
        };
        let building = Building::generate(spec, 2);
        Scenario::generate(&building, &CollectionConfig::small(), 5)
    }

    #[test]
    fn clean_evaluation_reports_errors() {
        let s = scenario();
        let knn = KnnLocalizer::fit(
            s.train.x.clone(),
            s.train.labels.clone(),
            s.train.num_classes(),
            3,
        );
        let eval = evaluate(&knn, &s.test_per_device[1].1, None, None);
        assert_eq!(eval.errors_m.len(), s.test_per_device[1].1.len());
        assert!(eval.summary.mean < 8.0, "mean error {}", eval.summary.mean);
        assert!(eval.summary.max >= eval.summary.mean);
    }

    #[test]
    fn white_box_attack_used_when_available() {
        let s = scenario();
        let dnn = DnnLocalizer::fit(
            &s.train.x,
            &s.train.labels,
            s.train.num_classes(),
            &DnnConfig {
                hidden: vec![32],
                epochs: 20,
                ..Default::default()
            },
        );
        let (_, how) = attacked_inputs(
            &dnn,
            &s.test_per_device[0].1,
            Some(&AttackConfig::fgsm(0.2, 100.0)),
            None,
        );
        assert_eq!(how, AttackedInputs::WhiteBox);
    }

    #[test]
    fn transfer_attack_used_for_non_differentiable() {
        let s = scenario();
        let knn = KnnLocalizer::fit(
            s.train.x.clone(),
            s.train.labels.clone(),
            s.train.num_classes(),
            3,
        );
        let dnn = DnnLocalizer::fit(
            &s.train.x,
            &s.train.labels,
            s.train.num_classes(),
            &DnnConfig {
                hidden: vec![32],
                epochs: 10,
                ..Default::default()
            },
        );
        let surrogate = dnn.as_differentiable().expect("dnn differentiable");
        let (x, how) = attacked_inputs(
            &knn,
            &s.test_per_device[0].1,
            Some(&AttackConfig::fgsm(0.2, 100.0)),
            Some(surrogate),
        );
        assert_eq!(how, AttackedInputs::Transfer);
        assert_ne!(x, s.test_per_device[0].1.x);
    }

    #[test]
    fn attack_skipped_without_any_gradient_source() {
        let s = scenario();
        let knn = KnnLocalizer::fit(
            s.train.x.clone(),
            s.train.labels.clone(),
            s.train.num_classes(),
            3,
        );
        let (x, how) = attacked_inputs(
            &knn,
            &s.test_per_device[0].1,
            Some(&AttackConfig::fgsm(0.2, 100.0)),
            None,
        );
        assert_eq!(how, AttackedInputs::Clean);
        assert_eq!(x, s.test_per_device[0].1.x);
    }

    #[test]
    fn attack_degrades_dnn() {
        let s = scenario();
        let dnn = DnnLocalizer::fit(
            &s.train.x,
            &s.train.labels,
            s.train.num_classes(),
            &DnnConfig {
                hidden: vec![64],
                epochs: 40,
                ..Default::default()
            },
        );
        let test = &s.test_per_device[1].1;
        let clean = evaluate(&dnn, test, None, None);
        let attacked = evaluate(&dnn, test, Some(&AttackConfig::fgsm(0.3, 100.0)), None);
        assert!(
            attacked.summary.mean > clean.summary.mean,
            "clean {} vs attacked {}",
            clean.summary.mean,
            attacked.summary.mean
        );
    }
}
