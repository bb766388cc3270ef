//! Gaussian-process classification (the WiDeep/Fig. 1 "GPC" baseline).
//!
//! Exact GP classification needs an iterative Laplace/EP approximation; as
//! documented in DESIGN.md we use the standard shortcut of **GP regression
//! on one-hot labels** with an RBF kernel — a well-behaved classifier whose
//! key property for this paper (extreme sensitivity to input noise) is
//! identical. The predictive scores are differentiable in closed form,
//! giving white-box attack gradients.

use calloc_nn::{DifferentiableModel, Localizer};
use calloc_tensor::codec::{Reader, Writer};
use calloc_tensor::{kernel, linalg, par, Matrix};
use serde::{Deserialize, Serialize};

/// Hyper-parameters of the GPC baseline.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GpcConfig {
    /// RBF kernel length scale ℓ (in normalized RSS units).
    pub length_scale: f64,
    /// Observation noise σ² added to the kernel diagonal.
    pub noise: f64,
    /// Score sharpening applied before the softmax used for attack
    /// gradients (GP regression scores live near [0, 1]).
    pub sharpness: f64,
}

impl Default for GpcConfig {
    fn default() -> Self {
        GpcConfig {
            length_scale: 0.5,
            noise: 1e-2,
            sharpness: 10.0,
        }
    }
}

/// RBF-kernel Gaussian-process localization.
///
/// # Example
///
/// ```
/// use calloc_baselines::{GpcConfig, GpcLocalizer};
/// use calloc_nn::Localizer;
/// use calloc_tensor::Matrix;
///
/// let x = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0]]);
/// let gpc = GpcLocalizer::fit(x.clone(), vec![0, 1], 2, GpcConfig::default())?;
/// assert_eq!(gpc.predict_classes(&x), vec![0, 1]);
/// # Ok::<(), calloc_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GpcLocalizer {
    x_train: Matrix,
    /// `alpha = (K + σ²I)⁻¹ Y_onehot`, shape `n_train` x `num_classes`.
    alpha: Matrix,
    /// Lower-triangular Cholesky factor of `K + σ²I`, kept from
    /// [`GpcLocalizer::fit`] so [`GpcLocalizer::absorb`] can fold new
    /// fingerprints in without refactoring. `None` on models restored
    /// from serialized state (the wire format predates the factor and
    /// stays unchanged); `absorb` rebuilds it lazily on first use.
    factor: Option<Matrix>,
    /// Forward-solve state `Z = L⁻¹·Y_onehot` carried with the factor:
    /// each absorbed point appends one row to it in `O(n·C)`, so a batch
    /// absorb needs only a single backward substitution at the end.
    /// Rebuilt lazily (as `Lᵀ·α`) together with `factor`.
    fwd: Option<Matrix>,
    config: GpcConfig,
    num_classes: usize,
}

impl GpcLocalizer {
    /// Fits GP regression on one-hot labels.
    ///
    /// # Errors
    ///
    /// Returns a [`calloc_tensor::TensorError`] if the kernel matrix is not
    /// positive definite (raise `config.noise`).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or an out-of-range label.
    pub fn fit(
        x_train: Matrix,
        y_train: Vec<usize>,
        num_classes: usize,
        config: GpcConfig,
    ) -> Result<Self, calloc_tensor::TensorError> {
        assert_eq!(x_train.rows(), y_train.len(), "sample/label mismatch");
        assert!(!y_train.is_empty(), "empty training set");
        assert!(
            y_train.iter().all(|&y| y < num_classes),
            "label out of range"
        );
        // The symmetric Gram matrix, one triangle computed and mirrored —
        // each element is the same ascending-column RBF the scalar loop
        // computed, so the factorization input is unchanged bit-for-bit.
        let gram = kernel::rbf_gram(&x_train, config.length_scale);
        let kernel = linalg::add_diagonal(&gram, config.noise);
        let mut onehot = Matrix::zeros(x_train.rows(), num_classes);
        for (i, &y) in y_train.iter().enumerate() {
            onehot.set(i, y, 1.0);
        }
        // Factor once and keep L for `absorb`; the two triangular solves
        // are exactly what `linalg::solve_spd` does internally, so alpha
        // is bit-identical to the historical `solve_spd` call.
        let l = linalg::cholesky(&kernel)?;
        let fwd = linalg::solve_lower_triangular(&l, &onehot)?;
        let alpha = linalg::solve_upper_from_lower(&l, &fwd)?;
        Ok(GpcLocalizer {
            x_train,
            alpha,
            factor: Some(l),
            fwd: Some(fwd),
            config,
            num_classes,
        })
    }

    /// Folds newly surveyed fingerprints into the fitted model **without
    /// a full refit** — the streaming counterpart of environment drift:
    /// fingerprint databases age, and production surveys arrive
    /// continuously.
    ///
    /// For each new point the kernel factor is grown by one bordered
    /// row (`L' = [[L, 0], [mᵀ, d]]` with `m = L⁻¹k`,
    /// `d = √(κ − ‖m‖²)`) and the carried forward-solve state
    /// `Z = L⁻¹·Y_onehot` by one row (`z = (y − mᵀZ)/d`); the
    /// regression weights are then re-solved **once** per batch by a
    /// single backward substitution against the grown factor —
    /// `O(n²)` per point plus `O(n²·C)` per batch, against the
    /// `O(n³/3)` of refactoring, which `perf_baseline`'s
    /// `recalibration` section measures.
    ///
    /// **Tolerance tier:** in exact arithmetic the absorbed model equals
    /// a full [`GpcLocalizer::fit`] on the concatenated training set; in
    /// floating point it agrees to rounding, not bit-exactly. The pinned
    /// tolerance (`scores` within `1e-6` absolute of the refit) is
    /// enforced by `crates/baselines/tests/proptest_recalibration.rs`;
    /// batch fitting and inference stay bit-pinned and are untouched by
    /// this path.
    ///
    /// Models restored from serialized state carry no factor (the wire
    /// format is unchanged); the first `absorb` refactors once, then
    /// increments.
    ///
    /// # Errors
    ///
    /// Returns a [`calloc_tensor::TensorError`] if the grown kernel
    /// loses positive definiteness to working precision (e.g. a new
    /// fingerprint duplicates an existing one more closely than the
    /// noise floor can absorb — raise `config.noise`).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or an out-of-range label, mirroring
    /// [`GpcLocalizer::fit`].
    pub fn absorb(
        &mut self,
        x_new: &Matrix,
        y_new: &[usize],
    ) -> Result<(), calloc_tensor::TensorError> {
        assert_eq!(x_new.rows(), y_new.len(), "sample/label mismatch");
        assert_eq!(
            x_new.cols(),
            self.x_train.cols(),
            "fingerprint width mismatch"
        );
        assert!(
            y_new.iter().all(|&y| y < self.num_classes),
            "label out of range"
        );
        self.ensure_recalibration_state()?;
        for (row, &label) in y_new.iter().enumerate() {
            let point = Matrix::from_fn(1, x_new.cols(), |_, c| x_new.get(row, c));
            self.border_one(&point, label)?;
        }
        // One backward substitution re-solves the weights against the
        // grown factor; sequential single-point absorbs reach the same
        // (factor, Z) state, so their final alpha is bit-identical to
        // the batch path.
        let l = self.factor.as_ref().expect("factor ensured above");
        let fwd = self.fwd.as_ref().expect("fwd ensured above");
        self.alpha = linalg::solve_upper_from_lower(l, fwd)?;
        Ok(())
    }

    /// Rebuilds the `(factor, Z)` recalibration state if this model came
    /// off the wire without it: refactor once, recover `Z` as `Lᵀ·α`
    /// (which equals `L⁻¹·Y_onehot` in exact arithmetic).
    fn ensure_recalibration_state(&mut self) -> Result<(), calloc_tensor::TensorError> {
        if self.factor.is_none() {
            let gram = kernel::rbf_gram(&self.x_train, self.config.length_scale);
            self.factor = Some(linalg::cholesky(&linalg::add_diagonal(
                &gram,
                self.config.noise,
            ))?);
            self.fwd = None;
        }
        if self.fwd.is_none() {
            let l = self.factor.as_ref().expect("factor ensured above");
            let n = self.x_train.rows();
            let classes = self.num_classes;
            let mut z = Matrix::zeros(n, classes);
            for i in 0..n {
                for c in 0..classes {
                    let mut sum = 0.0;
                    for k in i..n {
                        sum += l.get(k, i) * self.alpha.get(k, c);
                    }
                    z.set(i, c, sum);
                }
            }
            self.fwd = Some(z);
        }
        Ok(())
    }

    /// Grows the factor, forward-solve state and training bank by one
    /// fingerprint (the weights are re-solved once per batch in
    /// [`GpcLocalizer::absorb`]).
    fn border_one(
        &mut self,
        point: &Matrix,
        label: usize,
    ) -> Result<(), calloc_tensor::TensorError> {
        let l = self.factor.as_ref().expect("factor ensured by absorb");
        let z = self.fwd.as_ref().expect("fwd ensured by absorb");
        let n = self.x_train.rows();
        let classes = self.num_classes;

        // Cross-kernel column against the current bank and its forward
        // solve m = L⁻¹ k.
        let k_row = kernel::rbf_cross(point, &self.x_train, self.config.length_scale);
        let k_col = Matrix::from_fn(n, 1, |i, _| k_row.get(0, i));
        let m = linalg::solve_lower_triangular(l, &k_col)?;
        // RBF self-similarity is 1, plus the diagonal noise.
        let kappa = 1.0 + self.config.noise;
        let d2 = kappa - m.as_slice().iter().map(|v| v * v).sum::<f64>();
        if d2 <= 0.0 {
            return Err(calloc_tensor::TensorError::Numeric(format!(
                "absorb: bordered pivot {d2:.3e} not positive; \
                 kernel lost definiteness (raise noise)"
            )));
        }
        let d = d2.sqrt();

        // The forward-solve state gains one row: z = (y_onehot − mᵀZ) / d.
        let mut z_new = vec![0.0; classes];
        for (c, zv) in z_new.iter_mut().enumerate() {
            let y = if c == label { 1.0 } else { 0.0 };
            let dot: f64 = (0..n).map(|i| m.get(i, 0) * z.get(i, c)).sum();
            *zv = (y - dot) / d;
        }

        // Commit the grown state: bordered factor, extended forward
        // solve, appended fingerprint.
        let grown = Matrix::from_fn(n + 1, n + 1, |i, j| {
            if i < n && j < n {
                l.get(i, j)
            } else if i == n && j < n {
                m.get(j, 0)
            } else if i == n && j == n {
                d
            } else {
                0.0
            }
        });
        let grown_fwd = Matrix::from_fn(
            n + 1,
            classes,
            |i, c| {
                if i < n {
                    z.get(i, c)
                } else {
                    z_new[c]
                }
            },
        );
        self.x_train = Matrix::from_fn(n + 1, self.x_train.cols(), |i, c| {
            if i < n {
                self.x_train.get(i, c)
            } else {
                point.get(0, c)
            }
        });
        self.factor = Some(grown);
        self.fwd = Some(grown_fwd);
        Ok(())
    }

    /// Raw GP regression scores (`batch` x `num_classes`), before
    /// sharpening: `k(x, X_train) · α`, computed as one batched
    /// cross-kernel followed by a matrix product.
    ///
    /// The blocked matmul accumulates each output element over ascending
    /// training indices exactly like the former scalar loop, so scores are
    /// bit-identical to the seed path (enforced by `perf_baseline`).
    pub fn scores(&self, x: &Matrix) -> Matrix {
        self.cross_kernel(x).matmul(&self.alpha)
    }

    /// The batch × train RBF cross-kernel `k(x, X_train)`.
    ///
    /// This is the single most expensive piece of GPC inference; callers
    /// that need both scores and gradients (see
    /// [`DifferentiableModel::loss_and_input_grad`]) compute it **once**
    /// and share it.
    fn cross_kernel(&self, x: &Matrix) -> Matrix {
        kernel::rbf_cross(x, &self.x_train, self.config.length_scale)
    }

    /// The stored training fingerprints.
    pub fn x_train(&self) -> &Matrix {
        &self.x_train
    }

    /// The fitted regression weights `α = (K + σ²I)⁻¹ Y_onehot`
    /// (`n_train` × `num_classes`).
    pub fn alpha(&self) -> &Matrix {
        &self.alpha
    }

    /// The hyper-parameters this model was fitted with.
    pub fn config(&self) -> GpcConfig {
        self.config
    }

    /// The retained Cholesky factor of `K + σ²I`, if this model still
    /// carries one (`None` after a state-bytes round trip — the wire
    /// format is factor-free and unchanged).
    pub fn factor(&self) -> Option<&Matrix> {
        self.factor.as_ref()
    }

    /// Encodes the fitted model into an open writer (used standalone and
    /// nested inside WiDeep's state).
    pub(crate) fn encode_into(&self, w: &mut Writer) {
        w.matrix(&self.x_train);
        w.matrix(&self.alpha);
        w.f64(self.config.length_scale);
        w.f64(self.config.noise);
        w.f64(self.config.sharpness);
        w.usize(self.num_classes);
    }

    /// Decodes a model written by [`Self::encode_into`].
    pub(crate) fn decode_from(r: &mut Reader) -> Result<Self, String> {
        let x_train = r.matrix()?;
        let alpha = r.matrix()?;
        let config = GpcConfig {
            length_scale: r.f64()?,
            noise: r.f64()?,
            sharpness: r.f64()?,
        };
        let num_classes = r.usize()?;
        if alpha.rows() != x_train.rows() || alpha.cols() != num_classes {
            return Err(format!(
                "alpha shape {:?} inconsistent with {} train rows / {num_classes} classes",
                alpha.shape(),
                x_train.rows()
            ));
        }
        Ok(GpcLocalizer {
            x_train,
            alpha,
            factor: None,
            fwd: None,
            config,
            num_classes,
        })
    }

    /// Bit-exact encoding of the fitted model for the model cache
    /// (see [`calloc_nn::state`]).
    pub fn state_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Decodes a model written by [`Self::state_bytes`]; malformed input
    /// errors, never panics.
    pub fn from_state(bytes: &[u8]) -> Result<Self, String> {
        let mut r = Reader::new(bytes);
        let model = Self::decode_from(&mut r)?;
        r.finish()?;
        Ok(model)
    }
}

impl DifferentiableModel for GpcLocalizer {
    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn logits(&self, x: &Matrix) -> Matrix {
        self.scores(x).scale(self.config.sharpness)
    }

    fn loss_and_input_grad(&self, x: &Matrix, targets: &[usize]) -> (f64, Matrix) {
        assert_eq!(targets.len(), x.rows(), "label count mismatch");
        // The cross-kernel is computed ONCE and shared between the logits
        // and the gradient — the seed path evaluated every RBF row twice
        // per attack step.
        let cross = self.cross_kernel(x);
        let logits = cross.matmul(&self.alpha).scale(self.config.sharpness);
        let (loss, grad_logits) = calloc_nn::loss::cross_entropy(&logits, targets);

        // d logits_c / dx = sharpness · Σ_i α_ic · dk_i/dx,
        // dk_i/dx = k_i · (x_i − x) / ℓ²
        let ls2 = self.config.length_scale * self.config.length_scale;
        let sharpness = self.config.sharpness;
        let (rows, cols) = x.shape();
        let mut grad_x = Matrix::zeros(rows, cols);
        if rows == 0 || cols == 0 {
            return (loss, grad_x);
        }
        // weights[r][i] = Σ_c grad_logits_rc · α_ic — the blocked `A·Bᵀ`
        // kernel accumulates over ascending classes exactly like the former
        // per-pair scalar dot.
        let weights = grad_logits.matmul_transposed(&self.alpha);
        let n_train = self.x_train.rows();
        let (kd, wd) = (cross.as_slice(), weights.as_slice());
        let (xtd, xd) = (self.x_train.as_slice(), x.as_slice());
        // Rows are independent; per-row cost is train × dim.
        let min_rows = par::min_rows_for(n_train.saturating_mul(2 * cols + 8));
        par::par_row_chunks_mut(grad_x.as_mut_slice(), cols, min_rows, |first_row, chunk| {
            for (rr, grow) in chunk.chunks_exact_mut(cols).enumerate() {
                let r = first_row + rr;
                let krow = &kd[r * n_train..(r + 1) * n_train];
                let wrow = &wd[r * n_train..(r + 1) * n_train];
                let xrow = &xd[r * cols..(r + 1) * cols];
                // The training loop is unrolled four wide to cut `grow`
                // load/store traffic; the per-element left-associated
                // chain keeps the additions in exact ascending-i order, so
                // the result bits match adding one row at a time.
                let mut i = 0;
                while i + 4 <= n_train {
                    let w0 = wrow[i] * (sharpness * krow[i] / ls2);
                    let w1 = wrow[i + 1] * (sharpness * krow[i + 1] / ls2);
                    let w2 = wrow[i + 2] * (sharpness * krow[i + 2] / ls2);
                    let w3 = wrow[i + 3] * (sharpness * krow[i + 3] / ls2);
                    let t0 = &xtd[i * cols..(i + 1) * cols];
                    let t1 = &xtd[(i + 1) * cols..(i + 2) * cols];
                    let t2 = &xtd[(i + 2) * cols..(i + 3) * cols];
                    let t3 = &xtd[(i + 3) * cols..(i + 4) * cols];
                    for (c, (gv, &xv)) in grow.iter_mut().zip(xrow).enumerate() {
                        #[allow(clippy::assign_op_pattern)]
                        {
                            *gv = *gv
                                + w0 * (t0[c] - xv)
                                + w1 * (t1[c] - xv)
                                + w2 * (t2[c] - xv)
                                + w3 * (t3[c] - xv);
                        }
                    }
                    i += 4;
                }
                while i < n_train {
                    let w = wrow[i] * (sharpness * krow[i] / ls2);
                    let xtrow = &xtd[i * cols..(i + 1) * cols];
                    for ((gv, &xt), &xv) in grow.iter_mut().zip(xtrow).zip(xrow) {
                        *gv += w * (xt - xv);
                    }
                    i += 1;
                }
            }
        });
        (loss, grad_x)
    }
}

impl Localizer for GpcLocalizer {
    fn name(&self) -> &str {
        "GPC"
    }

    fn predict_classes(&self, x: &Matrix) -> Vec<usize> {
        self.scores(x).argmax_rows()
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
    use calloc_tensor::Rng;

    fn blobs(noise: f64, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = Rng::new(seed);
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        let centers = [(0.2, 0.2), (0.8, 0.3), (0.5, 0.9)];
        for (c, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..12 {
                rows.push(vec![
                    (cx + rng.normal(0.0, noise)).clamp(0.0, 1.0),
                    (cy + rng.normal(0.0, noise)).clamp(0.0, 1.0),
                ]);
                ys.push(c);
            }
        }
        (Matrix::from_rows(&rows), ys)
    }

    #[test]
    fn fits_and_classifies_blobs() {
        let (x, y) = blobs(0.03, 1);
        let gpc = GpcLocalizer::fit(x.clone(), y.clone(), 3, GpcConfig::default()).expect("fit");
        let acc = calloc_nn::metrics::accuracy(&gpc.predict_classes(&x), &y);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn training_scores_interpolate_labels() {
        let (x, y) = blobs(0.03, 2);
        let gpc = GpcLocalizer::fit(x.clone(), y.clone(), 3, GpcConfig::default()).expect("fit");
        let s = gpc.scores(&x);
        // On training points the regression should be close to the one-hot.
        for (r, &c) in y.iter().enumerate() {
            assert!(
                s.get(r, c) > 0.5,
                "score at train point {r}: {}",
                s.get(r, c)
            );
        }
    }

    #[test]
    fn input_gradient_matches_finite_diff() {
        let (x, y) = blobs(0.05, 3);
        let gpc = GpcLocalizer::fit(x.clone(), y.clone(), 3, GpcConfig::default()).expect("fit");
        let mut rng = Rng::new(4);
        let q = Matrix::from_fn(2, 2, |_, _| rng.uniform(0.1, 0.9));
        let targets = vec![1usize, 2];
        let (_, grad) = gpc.loss_and_input_grad(&q, &targets);
        let eps = 1e-6;
        for r in 0..2 {
            for c in 0..2 {
                let mut qp = q.clone();
                qp.set(r, c, q.get(r, c) + eps);
                let mut qm = q.clone();
                qm.set(r, c, q.get(r, c) - eps);
                let fd = (gpc.loss_and_input_grad(&qp, &targets).0
                    - gpc.loss_and_input_grad(&qm, &targets).0)
                    / (2.0 * eps);
                assert!(
                    (grad.get(r, c) - fd).abs() < 1e-5,
                    "grad[{r}][{c}] {} vs {fd}",
                    grad.get(r, c)
                );
            }
        }
    }

    #[test]
    fn gpc_is_noise_sensitive() {
        // The paper's rationale for WiDeep's weakness: GPC accuracy
        // collapses under feature noise much faster than it degrades on
        // clean data.
        let (x, y) = blobs(0.02, 5);
        let gpc = GpcLocalizer::fit(
            x.clone(),
            y.clone(),
            3,
            GpcConfig {
                length_scale: 0.1,
                ..Default::default()
            },
        )
        .expect("fit");
        let clean_acc = calloc_nn::metrics::accuracy(&gpc.predict_classes(&x), &y);
        let mut rng = Rng::new(6);
        let noisy = Matrix::from_fn(x.rows(), x.cols(), |r, c| {
            (x.get(r, c) + rng.normal(0.0, 0.25)).clamp(0.0, 1.0)
        });
        let noisy_acc = calloc_nn::metrics::accuracy(&gpc.predict_classes(&noisy), &y);
        assert!(
            noisy_acc < clean_acc * 0.8,
            "clean {clean_acc}, noisy {noisy_acc}"
        );
    }

    #[test]
    fn fit_alpha_matches_the_historical_solve_spd_path() {
        // The factor-retaining fit must be bit-identical to the old
        // `solve_spd` composition — batch fitting stays bit-pinned.
        let (x, y) = blobs(0.03, 11);
        let config = GpcConfig::default();
        let gpc = GpcLocalizer::fit(x.clone(), y.clone(), 3, config).expect("fit");
        let kernel = calloc_tensor::linalg::add_diagonal(
            &calloc_tensor::kernel::rbf_gram(&x, config.length_scale),
            config.noise,
        );
        let mut onehot = Matrix::zeros(x.rows(), 3);
        for (i, &c) in y.iter().enumerate() {
            onehot.set(i, c, 1.0);
        }
        let reference = calloc_tensor::linalg::solve_spd(&kernel, &onehot).expect("spd");
        for (i, (a, b)) in gpc
            .alpha()
            .as_slice()
            .iter()
            .zip(reference.as_slice())
            .enumerate()
        {
            assert_eq!(a.to_bits(), b.to_bits(), "alpha element {i}");
        }
        let l = gpc.factor().expect("fit retains the factor");
        assert!(l.matmul(&l.transpose()).approx_eq(&kernel, 1e-9));
    }

    #[test]
    fn absorb_matches_full_refit_within_tolerance() {
        let (x, y) = blobs(0.05, 12);
        let split = x.rows() - 5;
        let head = Matrix::from_fn(split, x.cols(), |r, c| x.get(r, c));
        let tail = Matrix::from_fn(5, x.cols(), |r, c| x.get(split + r, c));
        let mut absorbed =
            GpcLocalizer::fit(head, y[..split].to_vec(), 3, GpcConfig::default()).expect("fit");
        absorbed.absorb(&tail, &y[split..]).expect("absorb");
        let refit = GpcLocalizer::fit(x.clone(), y.clone(), 3, GpcConfig::default()).expect("fit");

        assert_eq!(absorbed.x_train().shape(), refit.x_train().shape());
        let mut rng = Rng::new(13);
        let queries = Matrix::from_fn(8, 2, |_, _| rng.uniform(0.0, 1.0));
        let (sa, sr) = (absorbed.scores(&queries), refit.scores(&queries));
        for (i, (a, b)) in sa.as_slice().iter().zip(sr.as_slice()).enumerate() {
            assert!((a - b).abs() < 1e-6, "score {i}: absorbed {a} vs refit {b}");
        }
        assert_eq!(
            absorbed.predict_classes(&queries),
            refit.predict_classes(&queries)
        );
    }

    #[test]
    fn absorb_after_state_round_trip_rebuilds_the_factor() {
        let (x, y) = blobs(0.05, 14);
        let split = x.rows() - 3;
        let head = Matrix::from_fn(split, x.cols(), |r, c| x.get(r, c));
        let tail = Matrix::from_fn(3, x.cols(), |r, c| x.get(split + r, c));
        let fitted =
            GpcLocalizer::fit(head, y[..split].to_vec(), 3, GpcConfig::default()).expect("fit");
        let mut restored = GpcLocalizer::from_state(&fitted.state_bytes()).expect("decode");
        assert!(restored.factor().is_none(), "wire format is factor-free");
        restored.absorb(&tail, &y[split..]).expect("absorb");
        let refit = GpcLocalizer::fit(x.clone(), y.clone(), 3, GpcConfig::default()).expect("fit");
        let mut rng = Rng::new(15);
        let queries = Matrix::from_fn(6, 2, |_, _| rng.uniform(0.0, 1.0));
        for (i, (a, b)) in restored
            .scores(&queries)
            .as_slice()
            .iter()
            .zip(refit.scores(&queries).as_slice())
            .enumerate()
        {
            assert!((a - b).abs() < 1e-6, "score {i}: {a} vs {b}");
        }
    }

    #[test]
    fn white_box_attack_reduces_accuracy() {
        use calloc_attack::{craft, AttackConfig};
        let (x, y) = blobs(0.04, 7);
        let gpc = GpcLocalizer::fit(x.clone(), y.clone(), 3, GpcConfig::default()).expect("fit");
        let clean = calloc_nn::metrics::accuracy(&gpc.predict_classes(&x), &y);
        let adv = craft(&gpc, &x, &y, &AttackConfig::fgsm(0.3, 100.0));
        let attacked = calloc_nn::metrics::accuracy(&gpc.predict_classes(&adv), &y);
        assert!(
            attacked < clean,
            "attack ineffective: {clean} -> {attacked}"
        );
    }
}
