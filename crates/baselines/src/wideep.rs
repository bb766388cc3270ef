//! WiDeep — denoising autoencoder + Gaussian-process classifier
//! (Abbas et al., IEEE PerCom 2019).
//!
//! WiDeep denoises fingerprints with an autoencoder and classifies the
//! latent code with a GPC. The full pipeline *is* differentiable (encoder
//! chain rule + the GPC's analytic RBF gradient), so WiDeep is attacked
//! white-box — and, as the paper stresses, its GPC head makes it extremely
//! sensitive to residual noise and perturbations.

use calloc_nn::state;
use calloc_nn::{
    Adam, Dense, DifferentiableModel, Layer, Localizer, Mode, Sequential, TrainConfig, Trainer,
};
use calloc_tensor::codec::{Reader, Writer};
use calloc_tensor::{Matrix, Rng, TensorError};
use serde::{Deserialize, Serialize};

use crate::gpc::{GpcConfig, GpcLocalizer};

/// WiDeep hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WiDeepConfig {
    /// Latent width of the denoising autoencoder.
    pub latent: usize,
    /// Epochs of denoising pre-training.
    pub pretrain_epochs: usize,
    /// Adam learning rate for pre-training.
    pub learning_rate: f64,
    /// Gaussian corruption std during denoising training.
    pub corruption_std: f64,
    /// GPC head configuration.
    pub gpc: GpcConfig,
    /// Seed.
    pub seed: u64,
}

impl Default for WiDeepConfig {
    fn default() -> Self {
        WiDeepConfig {
            latent: 32,
            pretrain_epochs: 40,
            learning_rate: 1e-3,
            corruption_std: 0.08,
            gpc: GpcConfig::default(),
            seed: 0,
        }
    }
}

/// The WiDeep framework.
#[derive(Debug, Clone)]
pub struct WiDeepLocalizer {
    encoder: Sequential,
    gpc: GpcLocalizer,
}

impl WiDeepLocalizer {
    /// Trains WiDeep: denoising-autoencoder pre-training, then GPC on the
    /// latent codes.
    ///
    /// # Errors
    ///
    /// Returns an error if the GPC kernel matrix is not positive definite.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or empty data.
    pub fn fit(
        x: &Matrix,
        y: &[usize],
        num_classes: usize,
        config: &WiDeepConfig,
    ) -> Result<Self, TensorError> {
        assert_eq!(x.rows(), y.len(), "sample/label mismatch");
        assert!(!y.is_empty(), "empty training set");
        let mut rng = Rng::new(config.seed);
        let in_dim = x.cols();
        let mut dae = Sequential::new(vec![
            Layer::GaussianNoise {
                std: config.corruption_std,
            },
            Layer::Dense(Dense::he(in_dim, config.latent, &mut rng)),
            Layer::Relu,
            Layer::Dense(Dense::xavier(config.latent, in_dim, &mut rng)),
        ]);
        let mut trainer = Trainer::new(
            Adam::new(config.learning_rate),
            TrainConfig {
                epochs: config.pretrain_epochs,
                batch_size: 32,
                seed: config.seed,
                ..Default::default()
            },
        );
        trainer.fit_regression(&mut dae, x, x);
        let encoder = Sequential::new(vec![dae.layers()[1].clone(), Layer::Relu]);
        let latent = encoder.infer(x);
        let gpc = GpcLocalizer::fit(latent, y.to_vec(), num_classes, config.gpc)?;
        Ok(WiDeepLocalizer { encoder, gpc })
    }

    /// Latent codes for a batch of fingerprints.
    pub fn encode(&self, x: &Matrix) -> Matrix {
        self.encoder.infer(x)
    }

    /// The denoising encoder.
    pub fn encoder(&self) -> &Sequential {
        &self.encoder
    }

    /// Bit-exact encoding of the trained framework for the model cache
    /// (see [`calloc_nn::state`]).
    pub fn state_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        state::write_sequential(&mut w, &self.encoder);
        self.gpc.encode_into(&mut w);
        w.into_bytes()
    }

    /// Decodes a model written by [`Self::state_bytes`]; malformed input
    /// errors, never panics.
    pub fn from_state(bytes: &[u8]) -> Result<Self, String> {
        let mut r = Reader::new(bytes);
        let encoder = state::read_sequential(&mut r)?;
        let gpc = GpcLocalizer::decode_from(&mut r)?;
        r.finish()?;
        Ok(WiDeepLocalizer { encoder, gpc })
    }
}

impl DifferentiableModel for WiDeepLocalizer {
    fn num_classes(&self) -> usize {
        self.gpc.num_classes()
    }

    fn logits(&self, x: &Matrix) -> Matrix {
        self.gpc.logits(&self.encode(x))
    }

    fn loss_and_input_grad(&self, x: &Matrix, targets: &[usize]) -> (f64, Matrix) {
        // Chain rule: dL/dx = dL/dz · dz/dx, where z = encoder(x).
        let mut rng = Rng::new(0);
        let (z, caches) = self.encoder.forward(x, Mode::Eval, &mut rng);
        let (loss, grad_z) = self.gpc.loss_and_input_grad(&z, targets);
        (loss, self.encoder.backward_input(&caches, &grad_z))
    }
}

impl Localizer for WiDeepLocalizer {
    fn name(&self) -> &str {
        "WiDeep"
    }

    fn predict_classes(&self, x: &Matrix) -> Vec<usize> {
        self.gpc.predict_classes(&self.encode(x))
    }

    fn as_differentiable(&self) -> Option<&dyn DifferentiableModel> {
        Some(self)
    }

    fn state(&self) -> Option<Vec<u8>> {
        Some(self.state_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calloc_nn::metrics::accuracy;

    fn blobs(n_per: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = Rng::new(seed);
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        let centers = [(0.25, 0.25), (0.75, 0.3), (0.5, 0.8)];
        for (c, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..n_per {
                rows.push(vec![
                    (cx + rng.normal(0.0, 0.04)).clamp(0.0, 1.0),
                    (cy + rng.normal(0.0, 0.04)).clamp(0.0, 1.0),
                    rng.uniform(0.0, 1.0),
                ]);
                ys.push(c);
            }
        }
        (Matrix::from_rows(&rows), ys)
    }

    fn small_config() -> WiDeepConfig {
        WiDeepConfig {
            latent: 8,
            pretrain_epochs: 30,
            ..Default::default()
        }
    }

    #[test]
    fn trains_to_high_accuracy() {
        let (x, y) = blobs(20, 1);
        let model = WiDeepLocalizer::fit(&x, &y, 3, &small_config()).expect("fit");
        let acc = accuracy(&model.predict_classes(&x), &y);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn input_gradient_matches_finite_diff() {
        let (x, y) = blobs(10, 2);
        let model = WiDeepLocalizer::fit(&x, &y, 3, &small_config()).expect("fit");
        let mut rng = Rng::new(3);
        let q = Matrix::from_fn(2, 3, |_, _| rng.uniform(0.2, 0.8));
        let targets = vec![0usize, 2];
        let (_, grad) = model.loss_and_input_grad(&q, &targets);
        let eps = 1e-6;
        for r in 0..2 {
            for c in 0..3 {
                let mut qp = q.clone();
                qp.set(r, c, q.get(r, c) + eps);
                let mut qm = q.clone();
                qm.set(r, c, q.get(r, c) - eps);
                let fd = (model.loss_and_input_grad(&qp, &targets).0
                    - model.loss_and_input_grad(&qm, &targets).0)
                    / (2.0 * eps);
                assert!(
                    (grad.get(r, c) - fd).abs() < 1e-4,
                    "grad[{r}][{c}] {} vs {fd}",
                    grad.get(r, c)
                );
            }
        }
    }

    #[test]
    fn input_only_gradient_is_bit_identical_to_the_full_backward() {
        let (x, y) = blobs(10, 6);
        let model = WiDeepLocalizer::fit(&x, &y, 3, &small_config()).expect("fit");
        let mut rng = Rng::new(7);
        let q = Matrix::from_fn(9, 3, |_, _| rng.uniform(0.0, 1.0));
        let targets: Vec<usize> = (0..9).map(|_| rng.index(3)).collect();
        let (z, caches) = model.encoder.forward(&q, Mode::Eval, &mut rng);
        let (full_loss, grad_z) = model.gpc.loss_and_input_grad(&z, &targets);
        let (full_grad, _) = model.encoder.backward(&caches, &grad_z);
        let (loss, grad) = model.loss_and_input_grad(&q, &targets);
        assert_eq!(loss.to_bits(), full_loss.to_bits());
        assert_eq!(grad.shape(), full_grad.shape());
        for (a, b) in grad.as_slice().iter().zip(full_grad.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn white_box_attack_is_devastating() {
        use calloc_attack::{craft, AttackConfig};
        let (x, y) = blobs(15, 4);
        let model = WiDeepLocalizer::fit(&x, &y, 3, &small_config()).expect("fit");
        let clean = accuracy(&model.predict_classes(&x), &y);
        let adv = craft(&model, &x, &y, &AttackConfig::fgsm(0.3, 100.0));
        let attacked = accuracy(&model.predict_classes(&adv), &y);
        assert!(
            attacked < clean,
            "attack ineffective: {clean} -> {attacked}"
        );
    }

    #[test]
    fn latent_width_matches_config() {
        let (x, y) = blobs(5, 5);
        let model = WiDeepLocalizer::fit(&x, &y, 3, &small_config()).expect("fit");
        assert_eq!(model.encode(&x).cols(), 8);
    }
}
