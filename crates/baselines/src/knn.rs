//! K-nearest-neighbours localization (Fig. 1 baseline) and its
//! differentiable soft surrogate.

use calloc_nn::{DifferentiableModel, Localizer};
use calloc_tensor::codec::{Reader, Writer};
use calloc_tensor::{kernel, par, Matrix};

/// Distance-weighted k-nearest-neighbours fingerprint matcher.
///
/// The classical fingerprinting baseline: at query time the `k` closest
/// training fingerprints vote for their RP class, weighted by inverse
/// distance.
///
/// # Example
///
/// ```
/// use calloc_baselines::KnnLocalizer;
/// use calloc_nn::Localizer;
/// use calloc_tensor::Matrix;
///
/// let x = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0]]);
/// let knn = KnnLocalizer::fit(x.clone(), vec![0, 1], 2, 1);
/// assert_eq!(knn.predict_classes(&x), vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct KnnLocalizer {
    x_train: Matrix,
    y_train: Vec<usize>,
    num_classes: usize,
    k: usize,
}

impl KnnLocalizer {
    /// Stores the training fingerprints. `k` is clamped to the training
    /// set size.
    ///
    /// # Panics
    ///
    /// Panics if shapes mismatch, `k == 0`, or the set is empty.
    pub fn fit(x_train: Matrix, y_train: Vec<usize>, num_classes: usize, k: usize) -> Self {
        assert_eq!(x_train.rows(), y_train.len(), "sample/label mismatch");
        assert!(!y_train.is_empty(), "empty training set");
        assert!(k > 0, "k must be positive");
        assert!(
            y_train.iter().all(|&y| y < num_classes),
            "label out of range"
        );
        KnnLocalizer {
            k: k.min(y_train.len()),
            x_train,
            y_train,
            num_classes,
        }
    }

    /// The `k` hyper-parameter.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Bit-exact encoding of the fitted matcher for the model cache
    /// (see [`calloc_nn::state`]).
    pub fn state_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.matrix(&self.x_train);
        w.usize_slice(&self.y_train);
        w.usize(self.num_classes);
        w.usize(self.k);
        w.into_bytes()
    }

    /// Decodes a model written by [`Self::state_bytes`]; malformed input
    /// errors, never panics.
    pub fn from_state(bytes: &[u8]) -> Result<Self, String> {
        let mut r = Reader::new(bytes);
        let x_train = r.matrix()?;
        let y_train = r.usize_vec()?;
        let num_classes = r.usize()?;
        let k = r.usize()?;
        r.finish()?;
        if y_train.len() != x_train.rows() {
            return Err("knn state: sample/label count mismatch".to_string());
        }
        if y_train.is_empty() {
            return Err("knn state: empty training set".to_string());
        }
        if y_train.iter().any(|&y| y >= num_classes) {
            return Err("knn state: label out of range".to_string());
        }
        if k == 0 || k > y_train.len() {
            return Err("knn state: k out of range".to_string());
        }
        Ok(KnnLocalizer {
            x_train,
            y_train,
            num_classes,
            k,
        })
    }

    /// Builds the matching differentiable surrogate (see [`SoftKnn`]),
    /// sharing this model's training memory.
    pub fn to_soft(&self, temperature: f64) -> SoftKnn {
        SoftKnn::fit(
            self.x_train.clone(),
            self.y_train.clone(),
            self.num_classes,
            temperature,
        )
    }
}

impl Localizer for KnnLocalizer {
    fn name(&self) -> &str {
        "KNN"
    }

    fn predict_classes(&self, x: &Matrix) -> Vec<usize> {
        // One batched pairwise-distance pass, then a cheap per-row vote.
        // `sq_dists` accumulates each distance in the same ascending-column
        // order as the former per-query loop, and the stable sort on
        // identical keys yields the identical neighbour order, so the
        // predictions are unchanged bit-for-bit.
        let sq = kernel::sq_dists(x, &self.x_train);
        let n_train = self.x_train.rows();
        // Roughly sort-dominated; weight a training row as ~32 work units.
        let min_rows = par::min_rows_for(n_train.saturating_mul(32));
        let chunks = par::par_chunks(x.rows(), min_rows, |range| {
            range
                .map(|r| {
                    // (distance², train index) for all training rows
                    let mut dists: Vec<(f64, usize)> =
                        sq.row(r).iter().copied().zip(0..n_train).collect();
                    dists.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"));
                    let mut votes = vec![0.0f64; self.num_classes];
                    for &(d, i) in dists.iter().take(self.k) {
                        votes[self.y_train[i]] += 1.0 / (d.sqrt() + 1e-6);
                    }
                    votes
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite votes"))
                        .map(|(c, _)| c)
                        .unwrap_or(0)
                })
                .collect::<Vec<usize>>()
        });
        chunks.into_iter().flatten().collect()
    }

    fn state(&self) -> Option<Vec<u8>> {
        Some(self.state_bytes())
    }
}

/// Differentiable soft-KNN: class scores are kernel-density sums over the
/// training memory,
/// `s_c(x) = log Σ_{i: y_i = c} exp(-‖x − x_i‖² / τ)`.
///
/// As `τ → 0` the arg-max of the scores converges to 1-NN. White-box
/// attacks against the non-differentiable [`KnnLocalizer`] are crafted on
/// this surrogate — the standard practice for attacking non-parametric
/// models.
#[derive(Debug, Clone)]
pub struct SoftKnn {
    x_train: Matrix,
    y_train: Vec<usize>,
    num_classes: usize,
    temperature: f64,
}

impl SoftKnn {
    /// Stores the training memory.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, empty data, or non-positive temperature.
    pub fn fit(x_train: Matrix, y_train: Vec<usize>, num_classes: usize, temperature: f64) -> Self {
        assert_eq!(x_train.rows(), y_train.len(), "sample/label mismatch");
        assert!(!y_train.is_empty(), "empty training set");
        assert!(temperature > 0.0, "temperature must be positive");
        SoftKnn {
            x_train,
            y_train,
            num_classes,
            temperature,
        }
    }

    /// Batch × train squared distances to the training memory — one
    /// batched pass over the shared pairwise primitive, bit-identical to
    /// the former per-query scalar loop.
    fn sq_dists(&self, x: &Matrix) -> Matrix {
        kernel::sq_dists(x, &self.x_train)
    }

    /// Logits from a precomputed squared-distance matrix (see
    /// [`SoftKnn::sq_dists`]): per row, a per-class log-sum-exp over the
    /// training memory, stabilized by the global max exponent.
    ///
    /// Rows are independent and fan out on the row-parallel runtime; the
    /// per-row arithmetic order is exactly the serial loop's.
    fn logits_from_sq_dists(&self, sq: &Matrix) -> Matrix {
        let mut logits = Matrix::zeros(sq.rows(), self.num_classes);
        if sq.rows() == 0 {
            return logits;
        }
        let nc = self.num_classes;
        let n_train = self.x_train.rows();
        let (dd, yt, tau) = (sq.as_slice(), &self.y_train, self.temperature);
        // exp dominates; weight a training row as ~20 work units.
        let min_rows = par::min_rows_for(n_train.saturating_mul(20));
        par::par_row_chunks_mut(logits.as_mut_slice(), nc, min_rows, |first_row, chunk| {
            for (rr, lrow) in chunk.chunks_exact_mut(nc).enumerate() {
                let drow = &dd[(first_row + rr) * n_train..(first_row + rr + 1) * n_train];
                // log-sum-exp per class, stabilized by the global max exponent
                let m = drow
                    .iter()
                    .map(|&v| -v / tau)
                    .fold(f64::NEG_INFINITY, f64::max);
                let mut sums = vec![0.0f64; nc];
                for (&di, &c) in drow.iter().zip(yt) {
                    sums[c] += (-di / tau - m).exp();
                }
                for (l, &sum) in lrow.iter_mut().zip(&sums) {
                    // classes with no training samples get a very low score
                    *l = if sum > 0.0 { m + sum.ln() } else { -1e9 };
                }
            }
        });
        logits
    }
}

impl DifferentiableModel for SoftKnn {
    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn logits(&self, x: &Matrix) -> Matrix {
        self.logits_from_sq_dists(&self.sq_dists(x))
    }

    fn loss_and_input_grad(&self, x: &Matrix, targets: &[usize]) -> (f64, Matrix) {
        assert_eq!(targets.len(), x.rows(), "label count mismatch");
        // One batched distance pass shared between the logits and the
        // gradient (the seed path recomputed every distance row twice).
        let sq = self.sq_dists(x);
        let logits = self.logits_from_sq_dists(&sq);
        let (loss, grad_logits) = calloc_nn::loss::cross_entropy(&logits, targets);

        let (rows, cols) = x.shape();
        let mut grad_x = Matrix::zeros(rows, cols);
        if rows == 0 || cols == 0 {
            return (loss, grad_x);
        }
        let nc = self.num_classes;
        let n_train = self.x_train.rows();
        let (dd, gld) = (sq.as_slice(), grad_logits.as_slice());
        let (xtd, xd) = (self.x_train.as_slice(), x.as_slice());
        let (yt, tau) = (&self.y_train, self.temperature);
        // Rows are independent; exp + the delta loop dominate per row.
        let min_rows = par::min_rows_for(n_train.saturating_mul(2 * cols + 20));
        par::par_row_chunks_mut(grad_x.as_mut_slice(), cols, min_rows, |first_row, chunk| {
            for (rr, grow) in chunk.chunks_exact_mut(cols).enumerate() {
                let r = first_row + rr;
                let drow = &dd[r * n_train..(r + 1) * n_train];
                let glrow = &gld[r * nc..(r + 1) * nc];
                let qrow = &xd[r * cols..(r + 1) * cols];
                let m = drow
                    .iter()
                    .map(|&v| -v / tau)
                    .fold(f64::NEG_INFINITY, f64::max);
                // per-class normalizers
                let mut sums = vec![0.0f64; nc];
                let mut exps = vec![0.0f64; n_train];
                for ((e, &di), &c) in exps.iter_mut().zip(drow).zip(yt) {
                    *e = (-di / tau - m).exp();
                    sums[c] += *e;
                }
                // ds_c/dx = Σ_{i∈c} (exp_i / sum_c) · (−2(x − x_i)/τ)
                for (i, &ei) in exps.iter().enumerate() {
                    let c = yt[i];
                    if sums[c] <= 0.0 {
                        continue;
                    }
                    let w = glrow[c] * ei / sums[c] * (-2.0 / tau);
                    let xtrow = &xtd[i * cols..(i + 1) * cols];
                    for ((gv, &qv), &xt) in grow.iter_mut().zip(qrow).zip(xtrow) {
                        *gv += w * (qv - xt);
                    }
                }
            }
        });
        (loss, grad_x)
    }
}

impl Localizer for SoftKnn {
    fn name(&self) -> &str {
        "SoftKNN"
    }

    fn predict_classes(&self, x: &Matrix) -> Vec<usize> {
        self.logits(x).argmax_rows()
    }

    fn as_differentiable(&self) -> Option<&dyn DifferentiableModel> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calloc_tensor::Rng;

    fn blobs() -> (Matrix, Vec<usize>) {
        let mut rng = Rng::new(1);
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for c in 0..3usize {
            let cx = 0.2 + 0.3 * c as f64;
            for _ in 0..15 {
                rows.push(vec![
                    (cx + rng.normal(0.0, 0.03)).clamp(0.0, 1.0),
                    (0.8 - 0.3 * c as f64 + rng.normal(0.0, 0.03)).clamp(0.0, 1.0),
                ]);
                ys.push(c);
            }
        }
        (Matrix::from_rows(&rows), ys)
    }

    #[test]
    fn knn_classifies_blobs() {
        let (x, y) = blobs();
        let knn = KnnLocalizer::fit(x.clone(), y.clone(), 3, 5);
        let acc = calloc_nn::metrics::accuracy(&knn.predict_classes(&x), &y);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn knn_k_is_clamped() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        let knn = KnnLocalizer::fit(x, vec![0, 1], 2, 99);
        assert_eq!(knn.k(), 2);
    }

    #[test]
    fn soft_knn_agrees_with_knn_at_low_temperature() {
        let (x, y) = blobs();
        let knn = KnnLocalizer::fit(x.clone(), y.clone(), 3, 1);
        let soft = knn.to_soft(1e-3);
        let mut rng = Rng::new(2);
        let queries = Matrix::from_fn(20, 2, |_, _| rng.uniform(0.0, 1.0));
        let hard = knn.predict_classes(&queries);
        let softp = soft.predict_classes(&queries);
        let agree = hard.iter().zip(&softp).filter(|(a, b)| a == b).count();
        assert!(agree >= 18, "only {agree}/20 agree");
    }

    #[test]
    fn soft_knn_gradient_matches_finite_diff() {
        let (x, y) = blobs();
        let soft = SoftKnn::fit(x.clone(), y.clone(), 3, 0.05);
        let mut rng = Rng::new(3);
        let q = Matrix::from_fn(2, 2, |_, _| rng.uniform(0.2, 0.8));
        let targets = vec![0usize, 2];
        let (_, grad) = soft.loss_and_input_grad(&q, &targets);
        let eps = 1e-6;
        for r in 0..2 {
            for c in 0..2 {
                let mut qp = q.clone();
                qp.set(r, c, q.get(r, c) + eps);
                let mut qm = q.clone();
                qm.set(r, c, q.get(r, c) - eps);
                let fd = (soft.loss_and_input_grad(&qp, &targets).0
                    - soft.loss_and_input_grad(&qm, &targets).0)
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
    fn soft_knn_is_attackable() {
        use calloc_attack::{craft, AttackConfig};
        let (x, y) = blobs();
        let soft = SoftKnn::fit(x.clone(), y.clone(), 3, 0.05);
        let clean_acc = calloc_nn::metrics::accuracy(&soft.predict_classes(&x), &y);
        let adv = craft(&soft, &x, &y, &AttackConfig::fgsm(0.3, 100.0));
        let adv_acc = calloc_nn::metrics::accuracy(&soft.predict_classes(&adv), &y);
        assert!(
            adv_acc < clean_acc,
            "attack had no effect: {clean_acc} -> {adv_acc}"
        );
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn knn_rejects_bad_labels() {
        KnnLocalizer::fit(Matrix::zeros(1, 2), vec![5], 3, 1);
    }
}
