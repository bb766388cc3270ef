//! Plain deep-neural-network localization (Fig. 1 "DNN" baseline,
//! Echizenya et al.).

use calloc_nn::state;
use calloc_nn::{
    Adam, Dense, DifferentiableModel, Layer, Localizer, Sequential, TrainConfig, TrainReport,
    Trainer,
};
use calloc_tensor::codec::{Reader, Writer};
use calloc_tensor::{Matrix, Rng};
use serde::{Deserialize, Serialize};

/// DNN baseline hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DnnConfig {
    /// Hidden layer widths (ReLU between them).
    pub hidden: Vec<usize>,
    /// Dropout after each hidden activation (0 disables).
    pub dropout: f64,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Training schedule.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initialization / shuffling seed.
    pub seed: u64,
}

impl Default for DnnConfig {
    fn default() -> Self {
        DnnConfig {
            hidden: vec![128, 64],
            dropout: 0.1,
            learning_rate: 1e-3,
            epochs: 80,
            batch_size: 32,
            seed: 0,
        }
    }
}

/// A standard MLP classifier over RSS fingerprints.
///
/// # Example
///
/// ```
/// use calloc_baselines::{DnnConfig, DnnLocalizer};
/// use calloc_nn::Localizer;
/// use calloc_tensor::{Matrix, Rng};
///
/// let mut rng = Rng::new(0);
/// let x = Matrix::from_fn(30, 4, |r, _| if r < 15 { rng.uniform(0.0, 0.4) } else { rng.uniform(0.6, 1.0) });
/// let y: Vec<usize> = (0..30).map(|r| usize::from(r >= 15)).collect();
/// let config = DnnConfig { epochs: 80, learning_rate: 5e-3, ..Default::default() };
/// let dnn = DnnLocalizer::fit(&x, &y, 2, &config);
/// let acc = calloc_nn::metrics::accuracy(&dnn.predict_classes(&x), &y);
/// assert!(acc > 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct DnnLocalizer {
    net: Sequential,
    report: TrainReport,
}

impl DnnLocalizer {
    /// Builds the MLP architecture for the given dimensions (untrained).
    pub fn architecture(
        num_aps: usize,
        num_classes: usize,
        config: &DnnConfig,
        rng: &mut Rng,
    ) -> Sequential {
        let mut layers = Vec::new();
        let mut in_dim = num_aps;
        for &h in &config.hidden {
            layers.push(Layer::Dense(Dense::he(in_dim, h, rng)));
            layers.push(Layer::Relu);
            if config.dropout > 0.0 {
                layers.push(Layer::Dropout {
                    rate: config.dropout,
                });
            }
            in_dim = h;
        }
        layers.push(Layer::Dense(Dense::xavier(in_dim, num_classes, rng)));
        Sequential::new(layers)
    }

    /// Trains the baseline on `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or empty data (see
    /// [`calloc_nn::Trainer::fit`]).
    pub fn fit(x: &Matrix, y: &[usize], num_classes: usize, config: &DnnConfig) -> Self {
        let mut rng = Rng::new(config.seed);
        let mut net = Self::architecture(x.cols(), num_classes, config, &mut rng);
        let mut trainer = Trainer::new(
            Adam::new(config.learning_rate),
            TrainConfig {
                epochs: config.epochs,
                batch_size: config.batch_size,
                seed: config.seed,
                ..Default::default()
            },
        );
        let report = trainer.fit(&mut net, x, y, None);
        DnnLocalizer { net, report }
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
        Ok(DnnLocalizer { net, report })
    }
}

impl Localizer for DnnLocalizer {
    fn name(&self) -> &str {
        "DNN"
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

    fn blobs() -> (Matrix, Vec<usize>) {
        let mut rng = Rng::new(9);
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for c in 0..3usize {
            for _ in 0..20 {
                rows.push(vec![
                    (0.2 + 0.3 * c as f64 + rng.normal(0.0, 0.04)).clamp(0.0, 1.0),
                    (0.8 - 0.3 * c as f64 + rng.normal(0.0, 0.04)).clamp(0.0, 1.0),
                    rng.uniform(0.0, 1.0),
                ]);
                ys.push(c);
            }
        }
        (Matrix::from_rows(&rows), ys)
    }

    #[test]
    fn trains_to_high_accuracy() {
        let (x, y) = blobs();
        let dnn = DnnLocalizer::fit(
            &x,
            &y,
            3,
            &DnnConfig {
                epochs: 60,
                ..Default::default()
            },
        );
        let acc = calloc_nn::metrics::accuracy(&dnn.predict_classes(&x), &y);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn exposes_gradients() {
        let (x, y) = blobs();
        let dnn = DnnLocalizer::fit(
            &x,
            &y,
            3,
            &DnnConfig {
                epochs: 5,
                ..Default::default()
            },
        );
        let model = dnn.as_differentiable().expect("DNN is differentiable");
        let (loss, grad) = model.loss_and_input_grad(&x, &y);
        assert!(loss.is_finite());
        assert_eq!(grad.shape(), x.shape());
    }

    #[test]
    fn architecture_layer_count() {
        let mut rng = Rng::new(0);
        let config = DnnConfig::default(); // two hidden layers with dropout
        let net = DnnLocalizer::architecture(10, 4, &config, &mut rng);
        // 2 × (Dense + Relu + Dropout) + final Dense
        assert_eq!(net.layers().len(), 7);
        assert_eq!(
            net.parameter_count(),
            10 * 128 + 128 + 128 * 64 + 64 + 64 * 4 + 4
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (x, y) = blobs();
        let config = DnnConfig {
            epochs: 5,
            ..Default::default()
        };
        let a = DnnLocalizer::fit(&x, &y, 3, &config);
        let b = DnnLocalizer::fit(&x, &y, 3, &config);
        assert_eq!(a.network(), b.network());
    }
}
