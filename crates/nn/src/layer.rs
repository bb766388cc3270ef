//! Neural-network layers with explicit forward/backward passes.

use calloc_tensor::{Matrix, Rng};
use serde::{Deserialize, Serialize};

use crate::init;

/// Whether a forward pass is part of training (stochastic layers active) or
/// evaluation (stochastic layers are identity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training: dropout masks and Gaussian noise are applied.
    Train,
    /// Evaluation/inference: the network is deterministic.
    Eval,
}

/// A fully connected layer `y = x W + b`.
///
/// `W` is `in_dim`-by-`out_dim`, `b` is `1`-by-`out_dim`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dense {
    /// Weight matrix (`in_dim` x `out_dim`).
    pub w: Matrix,
    /// Bias row vector (`1` x `out_dim`).
    pub b: Matrix,
}

impl Dense {
    /// Creates a dense layer with Xavier-uniform weights and zero bias.
    pub fn xavier(in_dim: usize, out_dim: usize, rng: &mut Rng) -> Self {
        Dense {
            w: init::xavier_init(in_dim, out_dim, rng),
            b: Matrix::zeros(1, out_dim),
        }
    }

    /// Creates a dense layer with He-normal weights and zero bias
    /// (preferred before ReLU activations).
    pub fn he(in_dim: usize, out_dim: usize, rng: &mut Rng) -> Self {
        Dense {
            w: init::he_init(in_dim, out_dim, rng),
            b: Matrix::zeros(1, out_dim),
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Number of trainable parameters (weights + biases).
    pub fn parameter_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Forward pass `x W + b`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        x.matmul(&self.w).add_row_broadcast(&self.b)
    }

    /// Backward pass. Given the cached input and `dL/dy`, returns
    /// `(dL/dx, dL/dW, dL/db)`.
    pub fn backward(&self, input: &Matrix, grad_out: &Matrix) -> (Matrix, Matrix, Matrix) {
        // Xᵀ·G via the transpose-free kernel (bit-identical to
        // materializing the transpose).
        let grad_x = self.backward_input(grad_out);
        let grad_w = input.transposed_matmul(grad_out);
        let grad_b = grad_out.sum_rows();
        (grad_x, grad_w, grad_b)
    }

    /// The input half of [`Dense::backward`]: `dL/dx = dL/dy · Wᵀ`, with
    /// no weight gradients. Bit-identical to `backward(..).0`.
    pub fn backward_input(&self, grad_out: &Matrix) -> Matrix {
        grad_out.matmul_transposed(&self.w)
    }
}

/// A layer in a [`crate::Sequential`] network.
///
/// The closed set of variants covers every architecture in the paper:
/// MLP classifiers (DNN, AdvLoc), autoencoders (SANGRIA, WiDeep), the
/// embedding networks of CALLOC (Dense + Dropout + GaussianNoise) and the
/// feature blocks of ANVIL.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Layer {
    /// Fully connected affine map.
    Dense(Dense),
    /// Rectified linear activation.
    Relu,
    /// Logistic sigmoid activation.
    Sigmoid,
    /// Hyperbolic tangent activation.
    Tanh,
    /// Inverted dropout with the given drop probability (active only in
    /// [`Mode::Train`]).
    Dropout {
        /// Probability of dropping each activation.
        rate: f64,
    },
    /// Additive zero-mean Gaussian noise (active only in [`Mode::Train`]).
    /// The paper's H^O embedding network uses `std = 0.32`.
    GaussianNoise {
        /// Standard deviation of the injected noise.
        std: f64,
    },
}

/// Per-layer cache produced by a forward pass and consumed by backward.
#[derive(Debug, Clone)]
pub enum Cache {
    /// Dense layers cache their input.
    Input(Matrix),
    /// Saturating activations cache their output.
    Output(Matrix),
    /// Dropout caches its (already scaled) keep mask.
    Mask(Matrix),
    /// Stateless layers (noise in eval mode, etc.) cache nothing.
    None,
}

/// Parameter gradients for one layer (only [`Layer::Dense`] has any).
#[derive(Debug, Clone)]
pub enum LayerGrad {
    /// Gradients for a dense layer: `(dL/dW, dL/db)`.
    Dense {
        /// Gradient with respect to the weight matrix.
        w: Matrix,
        /// Gradient with respect to the bias row.
        b: Matrix,
    },
    /// The layer has no trainable parameters.
    None,
}

impl Layer {
    /// Forward pass; returns the output and the backward cache.
    pub fn forward(&self, x: &Matrix, mode: Mode, rng: &mut Rng) -> (Matrix, Cache) {
        match self {
            Layer::Dense(d) => (d.forward(x), Cache::Input(x.clone())),
            Layer::Relu => {
                let y = x.map(|v| if v > 0.0 { v } else { 0.0 });
                (y, Cache::Input(x.clone()))
            }
            Layer::Sigmoid => {
                let y = x.map(|v| 1.0 / (1.0 + (-v).exp()));
                (y.clone(), Cache::Output(y))
            }
            Layer::Tanh => {
                let y = x.map(f64::tanh);
                (y.clone(), Cache::Output(y))
            }
            Layer::Dropout { rate } => {
                if mode == Mode::Eval || *rate <= 0.0 {
                    return (x.clone(), Cache::None);
                }
                let keep = 1.0 - rate.min(1.0 - f64::EPSILON);
                let mask = Matrix::from_fn(x.rows(), x.cols(), |_, _| {
                    if rng.bernoulli(keep) {
                        1.0 / keep
                    } else {
                        0.0
                    }
                });
                (x.hadamard(&mask), Cache::Mask(mask))
            }
            Layer::GaussianNoise { std } => {
                if mode == Mode::Eval || *std <= 0.0 {
                    return (x.clone(), Cache::None);
                }
                let noise = Matrix::from_fn(x.rows(), x.cols(), |_, _| rng.normal(0.0, *std));
                (x.add(&noise), Cache::None)
            }
        }
    }

    /// Backward pass; returns `dL/dx` and the parameter gradients.
    ///
    /// # Panics
    ///
    /// Panics if `cache` does not match the layer variant (a cache produced
    /// by a different layer or mode).
    pub fn backward(&self, cache: &Cache, grad_out: &Matrix) -> (Matrix, LayerGrad) {
        match (self, cache) {
            (Layer::Dense(d), Cache::Input(x)) => {
                let (gx, gw, gb) = d.backward(x, grad_out);
                (gx, LayerGrad::Dense { w: gw, b: gb })
            }
            _ => (self.backward_input(cache, grad_out), LayerGrad::None),
        }
    }

    /// The input half of [`Layer::backward`]: `dL/dx` only, skipping the
    /// parameter gradients. Bit-identical to `backward(..).0`.
    ///
    /// # Panics
    ///
    /// Panics if `cache` does not match the layer variant.
    pub fn backward_input(&self, cache: &Cache, grad_out: &Matrix) -> Matrix {
        match (self, cache) {
            (Layer::Dense(d), Cache::Input(_)) => d.backward_input(grad_out),
            (Layer::Relu, Cache::Input(x)) => {
                grad_out.zip_map(x, |g, v| if v > 0.0 { g } else { 0.0 })
            }
            (Layer::Sigmoid, Cache::Output(y)) => grad_out.zip_map(y, |g, s| g * s * (1.0 - s)),
            (Layer::Tanh, Cache::Output(y)) => grad_out.zip_map(y, |g, t| g * (1.0 - t * t)),
            (Layer::Dropout { .. }, Cache::Mask(mask)) => grad_out.hadamard(mask),
            // Dropout in eval mode and noise layers are identity maps.
            (Layer::Dropout { .. }, Cache::None) | (Layer::GaussianNoise { .. }, Cache::None) => {
                grad_out.clone()
            }
            (layer, cache) => panic!("cache {cache:?} does not match layer {layer:?}"),
        }
    }

    /// Number of trainable parameters in this layer.
    pub fn parameter_count(&self) -> usize {
        match self {
            Layer::Dense(d) => d.parameter_count(),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff_input(layer: &Layer, x: &Matrix, grad_out: &Matrix, eps: f64) -> Matrix {
        // d/dx of sum(grad_out ⊙ f(x)) via central differences, eval-free
        // layers only (deterministic path).
        let mut rng = Rng::new(0);
        let mut g = Matrix::zeros(x.rows(), x.cols());
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + eps);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - eps);
                let (yp, _) = layer.forward(&xp, Mode::Eval, &mut rng);
                let (ym, _) = layer.forward(&xm, Mode::Eval, &mut rng);
                let fp = yp.hadamard(grad_out).sum();
                let fm = ym.hadamard(grad_out).sum();
                g.set(r, c, (fp - fm) / (2.0 * eps));
            }
        }
        g
    }

    fn check_input_grad(layer: Layer, seed: u64, tol: f64) {
        let mut rng = Rng::new(seed);
        let in_dim = match &layer {
            Layer::Dense(d) => d.in_dim(),
            _ => 5,
        };
        let x = Matrix::from_fn(3, in_dim, |_, _| rng.normal(0.0, 1.0));
        let (y, cache) = layer.forward(&x, Mode::Eval, &mut rng);
        let grad_out = Matrix::from_fn(y.rows(), y.cols(), |_, _| rng.normal(0.0, 1.0));
        let (gx, _) = layer.backward(&cache, &grad_out);
        let fd = finite_diff_input(&layer, &x, &grad_out, 1e-5);
        assert!(
            gx.approx_eq(&fd, tol),
            "analytic vs finite-diff mismatch for {layer:?}"
        );
    }

    #[test]
    fn dense_input_gradient_matches_finite_diff() {
        let mut rng = Rng::new(1);
        check_input_grad(Layer::Dense(Dense::xavier(4, 6, &mut rng)), 2, 1e-6);
    }

    #[test]
    fn sigmoid_gradient_matches_finite_diff() {
        check_input_grad(Layer::Sigmoid, 3, 1e-6);
    }

    #[test]
    fn tanh_gradient_matches_finite_diff() {
        check_input_grad(Layer::Tanh, 4, 1e-6);
    }

    #[test]
    fn relu_gradient_matches_finite_diff() {
        // ReLU is non-differentiable at 0; the random inputs avoid exact 0.
        check_input_grad(Layer::Relu, 5, 1e-6);
    }

    #[test]
    fn dense_weight_gradient_matches_finite_diff() {
        let mut rng = Rng::new(6);
        let dense = Dense::xavier(3, 4, &mut rng);
        let layer = Layer::Dense(dense.clone());
        let x = Matrix::from_fn(5, 3, |_, _| rng.normal(0.0, 1.0));
        let (y, cache) = layer.forward(&x, Mode::Eval, &mut rng);
        let grad_out = Matrix::from_fn(y.rows(), y.cols(), |_, _| rng.normal(0.0, 1.0));
        let (_, grads) = layer.backward(&cache, &grad_out);
        let LayerGrad::Dense { w: gw, b: gb } = grads else {
            panic!("dense layer must produce dense grads");
        };

        let eps = 1e-5;
        for r in 0..dense.w.rows() {
            for c in 0..dense.w.cols() {
                let mut dp = dense.clone();
                dp.w.set(r, c, dense.w.get(r, c) + eps);
                let mut dm = dense.clone();
                dm.w.set(r, c, dense.w.get(r, c) - eps);
                let fp = dp.forward(&x).hadamard(&grad_out).sum();
                let fm = dm.forward(&x).hadamard(&grad_out).sum();
                let fd = (fp - fm) / (2.0 * eps);
                assert!(
                    (gw.get(r, c) - fd).abs() < 1e-6,
                    "w[{r}][{c}]: {} vs {fd}",
                    gw.get(r, c)
                );
            }
        }
        for c in 0..dense.b.cols() {
            let mut dp = dense.clone();
            dp.b.set(0, c, dense.b.get(0, c) + eps);
            let mut dm = dense.clone();
            dm.b.set(0, c, dense.b.get(0, c) - eps);
            let fp = dp.forward(&x).hadamard(&grad_out).sum();
            let fm = dm.forward(&x).hadamard(&grad_out).sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!((gb.get(0, c) - fd).abs() < 1e-6);
        }
    }

    #[test]
    fn dropout_eval_is_identity() {
        let mut rng = Rng::new(7);
        let x = Matrix::from_fn(4, 4, |_, _| rng.normal(0.0, 1.0));
        let layer = Layer::Dropout { rate: 0.5 };
        let (y, cache) = layer.forward(&x, Mode::Eval, &mut rng);
        assert_eq!(y, x);
        assert!(matches!(cache, Cache::None));
    }

    #[test]
    fn dropout_train_preserves_expectation() {
        let mut rng = Rng::new(8);
        let x = Matrix::filled(200, 50, 1.0);
        let layer = Layer::Dropout { rate: 0.3 };
        let (y, _) = layer.forward(&x, Mode::Train, &mut rng);
        // inverted dropout: E[y] == x
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
        // Some elements must actually be dropped.
        assert!(y.as_slice().contains(&0.0));
    }

    #[test]
    fn dropout_backward_uses_same_mask() {
        let mut rng = Rng::new(9);
        let x = Matrix::filled(3, 3, 2.0);
        let layer = Layer::Dropout { rate: 0.5 };
        let (y, cache) = layer.forward(&x, Mode::Train, &mut rng);
        let ones = Matrix::filled(3, 3, 1.0);
        let (gx, _) = layer.backward(&cache, &ones);
        // grad must be zero exactly where the output was zeroed
        for i in 0..9 {
            let dropped = y.as_slice()[i] == 0.0;
            assert_eq!(gx.as_slice()[i] == 0.0, dropped);
        }
    }

    #[test]
    fn gaussian_noise_train_perturbs_eval_does_not() {
        let mut rng = Rng::new(10);
        let x = Matrix::filled(10, 10, 0.5);
        let layer = Layer::GaussianNoise { std: 0.32 };
        let (y_eval, _) = layer.forward(&x, Mode::Eval, &mut rng);
        assert_eq!(y_eval, x);
        let (y_train, _) = layer.forward(&x, Mode::Train, &mut rng);
        assert_ne!(y_train, x);
        let noise_std = calloc_tensor::stats::std_dev(y_train.sub(&x).as_slice());
        assert!((noise_std - 0.32).abs() < 0.1, "std {noise_std}");
    }

    #[test]
    fn parameter_counts() {
        let mut rng = Rng::new(11);
        assert_eq!(
            Layer::Dense(Dense::xavier(165, 128, &mut rng)).parameter_count(),
            165 * 128 + 128
        );
        assert_eq!(Layer::Relu.parameter_count(), 0);
        assert_eq!(Layer::Dropout { rate: 0.2 }.parameter_count(), 0);
    }

    #[test]
    #[should_panic(expected = "does not match layer")]
    fn mismatched_cache_panics() {
        let layer = Layer::Relu;
        let bad = Cache::Output(Matrix::zeros(1, 1));
        layer.backward(&bad, &Matrix::zeros(1, 1));
    }
}
