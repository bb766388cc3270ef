//! AdvLoc — DNN with adversarial training (Patil et al., WiseML 2021).
//!
//! AdvLoc hardens a plain DNN by mixing a fixed ratio of FGSM adversarial
//! samples into the offline training phase. Unlike CALLOC there is **no
//! curriculum**: the adversarial ratio, ε and targeted-AP fraction are
//! constant throughout training, which is exactly the weakness the paper's
//! Fig. 7 exposes (error rising from ø ≈ 60).

use calloc_attack::{craft, AttackConfig};
use calloc_nn::state;
use calloc_nn::{
    loss, Adam, DifferentiableModel, Localizer, Mode, Optimizer, Sequential, TrainReport,
};
use calloc_tensor::codec::{Reader, Writer};
use calloc_tensor::{Matrix, Rng};
use serde::{Deserialize, Serialize};

use crate::dnn::{DnnConfig, DnnLocalizer};

/// AdvLoc hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdvLocConfig {
    /// Base network configuration.
    pub dnn: DnnConfig,
    /// Fraction of each batch replaced by adversarial samples (paper-style
    /// "a few adversarial samples": 0.3).
    pub adversarial_ratio: f64,
    /// FGSM ε used for the training-time adversarial samples.
    pub epsilon: f64,
    /// Percentage of APs perturbed in the training-time samples.
    pub phi_percent: f64,
    /// Epochs of clean warm-up before adversarial mixing starts.
    pub warmup_epochs: usize,
}

impl Default for AdvLocConfig {
    fn default() -> Self {
        AdvLocConfig {
            dnn: DnnConfig::default(),
            adversarial_ratio: 0.3,
            epsilon: 0.1,
            phi_percent: 50.0,
            warmup_epochs: 5,
        }
    }
}

/// The AdvLoc framework: adversarially trained MLP.
#[derive(Debug, Clone)]
pub struct AdvLocLocalizer {
    net: Sequential,
    report: TrainReport,
}

impl AdvLocLocalizer {
    /// Trains AdvLoc on `(x, y)`.
    ///
    /// Each post-warm-up epoch crafts FGSM samples against the *current*
    /// network for a random subset of the batch and trains on the mix.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or empty data.
    pub fn fit(x: &Matrix, y: &[usize], num_classes: usize, config: &AdvLocConfig) -> Self {
        assert_eq!(x.rows(), y.len(), "sample/label mismatch");
        assert!(!y.is_empty(), "empty training set");
        assert!(
            (0.0..=1.0).contains(&config.adversarial_ratio),
            "ratio out of range"
        );
        let mut rng = Rng::new(config.dnn.seed);
        let mut net = DnnLocalizer::architecture(x.cols(), num_classes, &config.dnn, &mut rng);
        let mut opt = Adam::new(config.dnn.learning_rate);
        let attack = AttackConfig::fgsm(config.epsilon, config.phi_percent);

        let mut history = Vec::new();
        let mut best_loss = f64::INFINITY;
        let mut best_epoch = 0;
        let mut best = net.clone();

        for epoch in 0..config.dnn.epochs {
            let order = rng.permutation(x.rows());
            let mut epoch_loss = 0.0;
            let mut batches = 0.0f64;
            for chunk in order.chunks(config.dnn.batch_size.max(1)) {
                let mut bx = x.select_rows(chunk);
                let by: Vec<usize> = chunk.iter().map(|&i| y[i]).collect();
                if epoch >= config.warmup_epochs && config.adversarial_ratio > 0.0 {
                    // Replace a random prefix of the (already shuffled)
                    // batch with adversarial versions of itself.
                    let k = ((chunk.len() as f64) * config.adversarial_ratio).round() as usize;
                    if k > 0 {
                        let idx: Vec<usize> = (0..k).collect();
                        let sub = bx.select_rows(&idx);
                        let sub_y: Vec<usize> = by[..k].to_vec();
                        let adv = craft(&net, &sub, &sub_y, &attack);
                        for (i, row) in idx.iter().enumerate() {
                            bx.set_row(*row, adv.row(i));
                        }
                    }
                }
                let (logits, caches) = net.forward(&bx, Mode::Train, &mut rng);
                let (l, grad) = loss::cross_entropy(&logits, &by);
                let (_, grads) = net.backward(&caches, &grad);
                opt.step(&mut net, &grads);
                epoch_loss += l;
                batches += 1.0;
            }
            epoch_loss /= batches.max(1.0);
            history.push(epoch_loss);
            if epoch_loss < best_loss {
                best_loss = epoch_loss;
                best_epoch = epoch;
                best = net.clone();
            }
        }
        AdvLocLocalizer {
            net: best,
            report: TrainReport {
                loss_history: history,
                best_loss,
                best_epoch,
                stopped_early: false,
            },
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &Sequential {
        &self.net
    }

    /// The training report.
    pub fn report(&self) -> &TrainReport {
        &self.report
    }

    /// Bit-exact encoding of the trained model for the model cache
    /// (see [`calloc_nn::state`]).
    pub fn state_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        state::write_sequential(&mut w, &self.net);
        state::write_train_report(&mut w, &self.report);
        w.into_bytes()
    }

    /// Decodes a model written by [`Self::state_bytes`]; malformed input
    /// errors, never panics.
    pub fn from_state(bytes: &[u8]) -> Result<Self, String> {
        let mut r = Reader::new(bytes);
        let net = state::read_sequential(&mut r)?;
        let report = state::read_train_report(&mut r)?;
        r.finish()?;
        Ok(AdvLocLocalizer { net, report })
    }
}

impl Localizer for AdvLocLocalizer {
    fn name(&self) -> &str {
        "AdvLoc"
    }

    fn predict_classes(&self, x: &Matrix) -> Vec<usize> {
        self.net.predict(x)
    }

    fn as_differentiable(&self) -> Option<&dyn DifferentiableModel> {
        Some(&self.net)
    }

    fn state(&self) -> Option<Vec<u8>> {
        Some(self.state_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calloc_nn::metrics::accuracy;

    fn blobs() -> (Matrix, Vec<usize>) {
        let mut rng = Rng::new(21);
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for c in 0..3usize {
            for _ in 0..20 {
                rows.push(vec![
                    (0.15 + 0.35 * c as f64 + rng.normal(0.0, 0.04)).clamp(0.0, 1.0),
                    (0.85 - 0.35 * c as f64 + rng.normal(0.0, 0.04)).clamp(0.0, 1.0),
                    rng.uniform(0.0, 1.0),
                    rng.uniform(0.0, 1.0),
                ]);
                ys.push(c);
            }
        }
        (Matrix::from_rows(&rows), ys)
    }

    fn small_config(epochs: usize) -> AdvLocConfig {
        AdvLocConfig {
            dnn: DnnConfig {
                hidden: vec![32],
                epochs,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn trains_to_high_clean_accuracy() {
        let (x, y) = blobs();
        let advloc = AdvLocLocalizer::fit(&x, &y, 3, &small_config(50));
        let acc = accuracy(&advloc.predict_classes(&x), &y);
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn adversarial_training_improves_robustness() {
        let (x, y) = blobs();
        let plain = DnnLocalizer::fit(
            &x,
            &y,
            3,
            &DnnConfig {
                hidden: vec![32],
                epochs: 50,
                ..Default::default()
            },
        );
        let advloc = AdvLocLocalizer::fit(&x, &y, 3, &small_config(50));

        let attack = AttackConfig::fgsm(0.15, 100.0);
        let adv_for = |m: &dyn DifferentiableModel| craft(m, &x, &y, &attack);

        let plain_net = plain.as_differentiable().expect("dnn differentiable");
        let advloc_net = advloc.as_differentiable().expect("advloc differentiable");
        let plain_acc = accuracy(&plain.predict_classes(&adv_for(plain_net)), &y);
        let advloc_acc = accuracy(&advloc.predict_classes(&adv_for(advloc_net)), &y);
        assert!(
            advloc_acc >= plain_acc,
            "adversarial training did not help: plain {plain_acc}, advloc {advloc_acc}"
        );
    }

    #[test]
    fn zero_ratio_matches_plain_training_shape() {
        let (x, y) = blobs();
        let mut config = small_config(5);
        config.adversarial_ratio = 0.0;
        let advloc = AdvLocLocalizer::fit(&x, &y, 3, &config);
        assert_eq!(advloc.report().loss_history.len(), 5);
    }

    #[test]
    #[should_panic(expected = "ratio out of range")]
    fn rejects_bad_ratio() {
        let (x, y) = blobs();
        let mut config = small_config(1);
        config.adversarial_ratio = 1.5;
        AdvLocLocalizer::fit(&x, &y, 3, &config);
    }
}
