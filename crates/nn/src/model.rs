//! Sequential container and the differentiable-model abstraction used by
//! the attack crate.

use calloc_tensor::{Matrix, Rng};
use serde::{Deserialize, Serialize};

use crate::layer::{Cache, Layer, LayerGrad, Mode};
use crate::loss;

/// A feed-forward stack of [`Layer`]s.
///
/// # Example
///
/// ```
/// use calloc_nn::{Dense, Layer, Sequential, Mode};
/// use calloc_tensor::{Matrix, Rng};
///
/// let mut rng = Rng::new(3);
/// let net = Sequential::new(vec![
///     Layer::Dense(Dense::he(8, 32, &mut rng)),
///     Layer::Relu,
///     Layer::Dense(Dense::xavier(32, 5, &mut rng)),
/// ]);
/// assert_eq!(net.parameter_count(), 8 * 32 + 32 + 32 * 5 + 5);
/// let x = Matrix::zeros(1, 8);
/// let (y, _) = net.forward(&x, Mode::Eval, &mut rng);
/// assert_eq!(y.shape(), (1, 5));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sequential {
    layers: Vec<Layer>,
}

impl Sequential {
    /// Creates a network from an ordered list of layers.
    pub fn new(layers: Vec<Layer>) -> Self {
        Sequential { layers }
    }

    /// Borrow the layer list.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutably borrow the layer list (used by optimizers).
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Total number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(Layer::parameter_count).sum()
    }

    /// Approximate serialized size in kilobytes assuming 4-byte (f32)
    /// storage, matching how the paper reports its 254.84 kB model.
    pub fn size_kb_f32(&self) -> f64 {
        self.parameter_count() as f64 * 4.0 / 1000.0
    }

    /// Forward pass through all layers; returns the output and the caches
    /// needed for [`Sequential::backward`].
    pub fn forward(&self, x: &Matrix, mode: Mode, rng: &mut Rng) -> (Matrix, Vec<Cache>) {
        let mut caches = Vec::with_capacity(self.layers.len());
        let mut h = x.clone();
        for layer in &self.layers {
            let (out, cache) = layer.forward(&h, mode, rng);
            caches.push(cache);
            h = out;
        }
        (h, caches)
    }

    /// Convenience eval-mode forward that discards caches.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        // Eval mode never consults the RNG; any seed works.
        let mut rng = Rng::new(0);
        self.forward(x, Mode::Eval, &mut rng).0
    }

    /// Backward pass. Consumes the caches from a prior forward call and the
    /// gradient of the loss with respect to the network output; returns the
    /// gradient with respect to the network **input** plus per-layer
    /// parameter gradients (aligned with the layer order).
    ///
    /// # Panics
    ///
    /// Panics if `caches.len()` does not match the number of layers.
    pub fn backward(&self, caches: &[Cache], grad_out: &Matrix) -> (Matrix, Vec<LayerGrad>) {
        assert_eq!(
            caches.len(),
            self.layers.len(),
            "cache count {} does not match layer count {}",
            caches.len(),
            self.layers.len()
        );
        let mut grad = grad_out.clone();
        let mut grads = vec![LayerGrad::None; self.layers.len()];
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let (gx, g) = layer.backward(&caches[i], &grad);
            grads[i] = g;
            grad = gx;
        }
        (grad, grads)
    }

    /// The input half of [`Sequential::backward`]: `dL/dx` only, with no
    /// parameter gradients — what an attack step needs. Bit-identical to
    /// `backward(..).0`.
    ///
    /// # Panics
    ///
    /// Panics if `caches.len()` does not match the number of layers.
    pub fn backward_input(&self, caches: &[Cache], grad_out: &Matrix) -> Matrix {
        assert_eq!(
            caches.len(),
            self.layers.len(),
            "cache count {} does not match layer count {}",
            caches.len(),
            self.layers.len()
        );
        let mut grad = grad_out.clone();
        for (layer, cache) in self.layers.iter().zip(caches).rev() {
            grad = layer.backward_input(cache, &grad);
        }
        grad
    }
}

/// A classifier that exposes the gradient of its training loss with respect
/// to its **input** — the contract required by white-box adversarial attacks
/// (FGSM, PGD, MIM all consume exactly this).
///
/// Implementations must be deterministic in evaluation mode so that attack
/// crafting is reproducible, and (like [`Localizer`]) thread-safe so the
/// sweep engine can share one gradient source across evaluation workers.
pub trait DifferentiableModel: Send + Sync {
    /// Number of output classes.
    fn num_classes(&self) -> usize;

    /// Class scores (higher = more likely); shape `batch` x `num_classes`.
    fn logits(&self, x: &Matrix) -> Matrix;

    /// Mean cross-entropy loss over the batch and its gradient with respect
    /// to `x`.
    fn loss_and_input_grad(&self, x: &Matrix, targets: &[usize]) -> (f64, Matrix);

    /// Predicted class per row.
    fn predict(&self, x: &Matrix) -> Vec<usize> {
        self.logits(x).argmax_rows()
    }
}

/// A trained indoor-localization model: anything that maps a batch of
/// normalized RSS fingerprints to RP class predictions.
///
/// This is the contract the evaluation harness runs experiments against.
/// Models that expose white-box gradients (for first-party adversarial
/// attacks) return themselves from
/// [`Localizer::as_differentiable`]; models that are not differentiable
/// (e.g. tree ensembles) return `None` and are attacked by *transfer* from
/// a surrogate model.
///
/// `Send + Sync` is a supertrait so trained models can be produced on
/// worker threads and evaluated from parallel harnesses (all implementors
/// are plain owned data). Prediction takes `&self`, so sharing across
/// threads is safe by construction.
pub trait Localizer: Send + Sync {
    /// Framework name as used in the paper's figures (e.g. `"CALLOC"`).
    fn name(&self) -> &str;

    /// Predicted RP class per fingerprint row.
    fn predict_classes(&self, x: &Matrix) -> Vec<usize>;

    /// White-box gradient access, when the model is differentiable.
    fn as_differentiable(&self) -> Option<&dyn DifferentiableModel> {
        None
    }

    /// Bit-exact encoding of this model's trained state (see
    /// [`crate::state`]), or `None` if the model is not persistable. The
    /// trained-model cache skips models that return `None`; models that
    /// return `Some` must restore **bit-identically** through their
    /// crate's `from_state` counterpart, so a cache hit is
    /// indistinguishable from a fresh train.
    fn state(&self) -> Option<Vec<u8>> {
        None
    }
}

impl DifferentiableModel for Sequential {
    fn num_classes(&self) -> usize {
        self.layers
            .iter()
            .rev()
            .find_map(|l| match l {
                Layer::Dense(d) => Some(d.out_dim()),
                _ => None,
            })
            .unwrap_or(0)
    }

    fn logits(&self, x: &Matrix) -> Matrix {
        self.infer(x)
    }

    fn loss_and_input_grad(&self, x: &Matrix, targets: &[usize]) -> (f64, Matrix) {
        let mut rng = Rng::new(0);
        let (logits, caches) = self.forward(x, Mode::Eval, &mut rng);
        let (loss_value, grad_logits) = loss::cross_entropy(&logits, targets);
        (loss_value, self.backward_input(&caches, &grad_logits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Dense;

    fn small_net(seed: u64) -> Sequential {
        let mut rng = Rng::new(seed);
        Sequential::new(vec![
            Layer::Dense(Dense::he(6, 12, &mut rng)),
            Layer::Relu,
            Layer::Dense(Dense::xavier(12, 4, &mut rng)),
        ])
    }

    #[test]
    fn forward_output_shape() {
        let net = small_net(1);
        let x = Matrix::zeros(7, 6);
        assert_eq!(net.infer(&x).shape(), (7, 4));
    }

    #[test]
    fn parameter_count_sums_layers() {
        let net = small_net(2);
        assert_eq!(net.parameter_count(), 6 * 12 + 12 + 12 * 4 + 4);
    }

    #[test]
    fn num_classes_reads_last_dense() {
        assert_eq!(small_net(3).num_classes(), 4);
    }

    #[test]
    fn input_gradient_matches_finite_diff() {
        let net = small_net(4);
        let mut rng = Rng::new(5);
        let x = Matrix::from_fn(3, 6, |_, _| rng.normal(0.0, 1.0));
        let targets = vec![0usize, 2, 3];
        let (_, grad) = net.loss_and_input_grad(&x, &targets);
        let eps = 1e-5;
        for r in 0..3 {
            for c in 0..6 {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + eps);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - eps);
                let fp = net.loss_and_input_grad(&xp, &targets).0;
                let fm = net.loss_and_input_grad(&xm, &targets).0;
                let fd = (fp - fm) / (2.0 * eps);
                assert!(
                    (grad.get(r, c) - fd).abs() < 1e-5,
                    "grad[{r}][{c}] {} vs {fd}",
                    grad.get(r, c)
                );
            }
        }
    }

    #[test]
    fn input_only_gradient_is_bit_identical_to_the_full_backward() {
        // Every layer variant, including the eval-mode identities.
        let mut rng = Rng::new(9);
        let net = Sequential::new(vec![
            Layer::Dense(Dense::he(6, 10, &mut rng)),
            Layer::Relu,
            Layer::Dropout { rate: 0.3 },
            Layer::Dense(Dense::xavier(10, 8, &mut rng)),
            Layer::Tanh,
            Layer::GaussianNoise { std: 0.2 },
            Layer::Dense(Dense::xavier(8, 8, &mut rng)),
            Layer::Sigmoid,
            Layer::Dense(Dense::xavier(8, 5, &mut rng)),
        ]);
        for batch in [1, 11] {
            let x = Matrix::from_fn(batch, 6, |_, _| rng.normal(0.0, 1.0));
            let targets: Vec<usize> = (0..batch).map(|_| rng.index(5)).collect();
            let (logits, caches) = net.forward(&x, Mode::Eval, &mut rng);
            let (full_loss, grad_logits) = loss::cross_entropy(&logits, &targets);
            let (full_grad, _) = net.backward(&caches, &grad_logits);
            let (loss, grad) = net.loss_and_input_grad(&x, &targets);
            assert_eq!(loss.to_bits(), full_loss.to_bits());
            assert_eq!(grad.shape(), full_grad.shape());
            for (a, b) in grad.as_slice().iter().zip(full_grad.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn eval_forward_is_deterministic() {
        let net = Sequential::new(vec![
            Layer::Dropout { rate: 0.5 },
            Layer::GaussianNoise { std: 0.3 },
        ]);
        let x = Matrix::filled(2, 3, 1.0);
        assert_eq!(net.infer(&x), x);
        assert_eq!(net.infer(&x), net.infer(&x));
    }

    #[test]
    fn backward_rejects_wrong_cache_count() {
        let net = small_net(6);
        let x = Matrix::zeros(1, 6);
        let mut rng = Rng::new(0);
        let (y, mut caches) = net.forward(&x, Mode::Eval, &mut rng);
        caches.pop();
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| net.backward(&caches, &y)));
        assert!(result.is_err());
    }

    #[test]
    fn predict_matches_argmax_of_logits() {
        let net = small_net(7);
        let mut rng = Rng::new(8);
        let x = Matrix::from_fn(5, 6, |_, _| rng.normal(0.0, 1.0));
        assert_eq!(net.predict(&x), net.logits(&x).argmax_rows());
    }
}
