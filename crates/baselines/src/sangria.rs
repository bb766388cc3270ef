//! SANGRIA — stacked autoencoder + gradient-boosted trees
//! (Gufran et al., IEEE ESL 2023).
//!
//! SANGRIA first learns a compact latent representation of the fingerprint
//! space with a greedily pre-trained stacked autoencoder (which is what
//! gives it strong noise/heterogeneity augmentation resilience), then
//! classifies latents with a categorical gradient-boosted tree ensemble.
//! The tree ensemble is **not differentiable**, so
//! [`calloc_nn::Localizer::as_differentiable`] returns `None` and the
//! evaluation harness attacks SANGRIA by transfer from a surrogate — the
//! realistic scenario for this architecture.

use calloc_nn::state;
use calloc_nn::{Adam, Dense, Layer, Localizer, Sequential, TrainConfig, Trainer};
use calloc_tensor::codec::{Reader, Writer};
use calloc_tensor::{Matrix, Rng};
use serde::{Deserialize, Serialize};

use crate::gbdt::{GbdtClassifier, GbdtConfig};

/// SANGRIA hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SangriaConfig {
    /// Widths of the stacked encoder layers (input → ... → latent).
    pub encoder: Vec<usize>,
    /// Epochs per greedy autoencoder stage.
    pub pretrain_epochs: usize,
    /// Adam learning rate for pre-training.
    pub learning_rate: f64,
    /// Gaussian corruption added to inputs during pre-training (denoising
    /// flavour that provides the augmentation resilience).
    pub corruption_std: f64,
    /// Tree ensemble configuration.
    pub gbdt: GbdtConfig,
    /// Seed.
    pub seed: u64,
}

impl Default for SangriaConfig {
    fn default() -> Self {
        SangriaConfig {
            encoder: vec![128, 32],
            pretrain_epochs: 40,
            learning_rate: 1e-3,
            corruption_std: 0.05,
            gbdt: GbdtConfig::default(),
            seed: 0,
        }
    }
}

/// The SANGRIA framework.
#[derive(Debug, Clone)]
pub struct SangriaLocalizer {
    encoder: Sequential,
    classifier: GbdtClassifier,
}

impl SangriaLocalizer {
    /// Trains SANGRIA: greedy stacked-autoencoder pre-training followed by
    /// GBDT fitting on the latent codes.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or empty data.
    pub fn fit(x: &Matrix, y: &[usize], num_classes: usize, config: &SangriaConfig) -> Self {
        assert_eq!(x.rows(), y.len(), "sample/label mismatch");
        assert!(!y.is_empty(), "empty training set");
        let mut rng = Rng::new(config.seed);

        // Greedy stage-wise pre-training: each stage learns to reconstruct
        // the previous stage's (corrupted) activations.
        let mut encoder_layers: Vec<Layer> = Vec::new();
        let mut current = x.clone();
        for (stage, &width) in config.encoder.iter().enumerate() {
            let in_dim = current.cols();
            let mut stage_net = Sequential::new(vec![
                Layer::GaussianNoise {
                    std: config.corruption_std,
                },
                Layer::Dense(Dense::he(in_dim, width, &mut rng)),
                Layer::Relu,
                Layer::Dense(Dense::xavier(width, in_dim, &mut rng)),
            ]);
            let mut trainer = Trainer::new(
                Adam::new(config.learning_rate),
                TrainConfig {
                    epochs: config.pretrain_epochs,
                    batch_size: 32,
                    seed: config.seed ^ (stage as u64 + 1),
                    ..Default::default()
                },
            );
            trainer.fit_regression(&mut stage_net, &current, &current);
            // Keep the trained encoder half (Dense + Relu).
            let dense = stage_net.layers()[1].clone();
            encoder_layers.push(dense);
            encoder_layers.push(Layer::Relu);
            let partial = Sequential::new(encoder_layers.clone());
            current = partial.infer(x);
        }
        let encoder = Sequential::new(encoder_layers);
        let latent = encoder.infer(x);
        let classifier = GbdtClassifier::fit(&latent, y, num_classes, &config.gbdt);
        SangriaLocalizer {
            encoder,
            classifier,
        }
    }

    /// Latent codes for a batch of fingerprints.
    pub fn encode(&self, x: &Matrix) -> Matrix {
        self.encoder.infer(x)
    }

    /// The trained encoder.
    pub fn encoder(&self) -> &Sequential {
        &self.encoder
    }

    /// The trained tree ensemble.
    pub fn classifier(&self) -> &GbdtClassifier {
        &self.classifier
    }

    /// Bit-exact encoding of the trained framework for the model cache
    /// (see [`calloc_nn::state`]).
    pub fn state_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        state::write_sequential(&mut w, &self.encoder);
        self.classifier.encode_into(&mut w);
        w.into_bytes()
    }

    /// Decodes a model written by [`Self::state_bytes`]; malformed input
    /// errors, never panics.
    pub fn from_state(bytes: &[u8]) -> Result<Self, String> {
        let mut r = Reader::new(bytes);
        let encoder = state::read_sequential(&mut r)?;
        let classifier = GbdtClassifier::decode_from(&mut r)?;
        r.finish()?;
        Ok(SangriaLocalizer {
            encoder,
            classifier,
        })
    }
}

impl Localizer for SangriaLocalizer {
    fn name(&self) -> &str {
        "SANGRIA"
    }

    fn predict_classes(&self, x: &Matrix) -> Vec<usize> {
        self.classifier.predict(&self.encode(x))
    }

    // No `as_differentiable`: the GBDT head blocks analytic gradients, so
    // attacks are transferred from a surrogate (see calloc-eval).

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
        let centers = [(0.2, 0.3), (0.8, 0.2), (0.5, 0.85)];
        for (c, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..n_per {
                rows.push(vec![
                    (cx + rng.normal(0.0, 0.04)).clamp(0.0, 1.0),
                    (cy + rng.normal(0.0, 0.04)).clamp(0.0, 1.0),
                    rng.uniform(0.0, 1.0),
                    rng.uniform(0.0, 1.0),
                ]);
                ys.push(c);
            }
        }
        (Matrix::from_rows(&rows), ys)
    }

    fn small_config() -> SangriaConfig {
        SangriaConfig {
            encoder: vec![16, 8],
            pretrain_epochs: 30,
            gbdt: GbdtConfig {
                rounds: 25,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn trains_to_high_accuracy() {
        let (x, y) = blobs(20, 1);
        let model = SangriaLocalizer::fit(&x, &y, 3, &small_config());
        let acc = accuracy(&model.predict_classes(&x), &y);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn latent_has_configured_width() {
        let (x, y) = blobs(10, 2);
        let model = SangriaLocalizer::fit(&x, &y, 3, &small_config());
        assert_eq!(model.encode(&x).cols(), 8);
    }

    #[test]
    fn is_not_differentiable() {
        let (x, y) = blobs(5, 3);
        let model = SangriaLocalizer::fit(&x, &y, 3, &small_config());
        assert!(model.as_differentiable().is_none());
    }

    #[test]
    fn noise_resilience_from_denoising_pretraining() {
        // SANGRIA's selling point: modest feature noise should not destroy
        // accuracy.
        let (x, y) = blobs(20, 4);
        let model = SangriaLocalizer::fit(&x, &y, 3, &small_config());
        let mut rng = Rng::new(5);
        let noisy = Matrix::from_fn(x.rows(), x.cols(), |r, c| {
            (x.get(r, c) + rng.normal(0.0, 0.03)).clamp(0.0, 1.0)
        });
        let acc = accuracy(&model.predict_classes(&noisy), &y);
        assert!(acc > 0.8, "noisy accuracy {acc}");
    }
}
