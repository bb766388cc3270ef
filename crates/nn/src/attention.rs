//! Scaled dot-product attention with an analytic backward pass.
//!
//! `Attention(Q, K, V) = softmax(Q Kᵀ / √d_k) V` — equation (3) of the
//! CALLOC paper. This module provides the raw functional form; the CALLOC
//! model (crate `calloc`) and the ANVIL baseline build their architectures
//! on top of it.

use calloc_tensor::Matrix;

/// Intermediate values cached by [`attention_forward`] for the backward
/// pass.
#[derive(Debug, Clone)]
pub struct AttentionCache {
    q: Matrix,
    k: Matrix,
    v: Matrix,
    /// Row-softmaxed attention weights.
    weights: Matrix,
    scale: f64,
}

impl AttentionCache {
    /// The attention weight matrix (rows sum to one). Useful for
    /// interpretability: which reference fingerprints the model attended to.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }
}

/// Forward pass of scaled dot-product attention.
///
/// Shapes: `q` is `n_q`×`d`, `k` is `n_k`×`d`, `v` is `n_k`×`d_v`; the
/// output is `n_q`×`d_v`.
///
/// # Panics
///
/// Panics if `q`/`k` widths differ or `k`/`v` heights differ.
///
/// # Example
///
/// ```
/// use calloc_nn::attention::attention_forward;
/// use calloc_tensor::Matrix;
///
/// // One query attending to two keys; value rows are 2-D locations.
/// let q = Matrix::from_rows(&[vec![1.0, 0.0]]);
/// let k = Matrix::from_rows(&[vec![1.0, 0.0], vec![-1.0, 0.0]]);
/// let v = Matrix::from_rows(&[vec![0.0, 0.0], vec![10.0, 10.0]]);
/// let (out, cache) = attention_forward(&q, &k, &v);
/// // The query matches the first key, so the output leans to (0, 0).
/// assert!(out.get(0, 0) < 5.0);
/// assert!(cache.weights().get(0, 0) > 0.5);
/// ```
pub fn attention_forward(q: &Matrix, k: &Matrix, v: &Matrix) -> (Matrix, AttentionCache) {
    assert_eq!(
        q.cols(),
        k.cols(),
        "query width {} must equal key width {}",
        q.cols(),
        k.cols()
    );
    assert_eq!(
        k.rows(),
        v.rows(),
        "key count {} must equal value count {}",
        k.rows(),
        v.rows()
    );
    let scale = 1.0 / (q.cols().max(1) as f64).sqrt();
    // Q·Kᵀ without materializing Kᵀ (bit-identical to the transpose form).
    let scores = q.matmul_transposed(k).scale(scale);
    let weights = scores.softmax_rows();
    let out = weights.matmul(v);
    (
        out,
        AttentionCache {
            q: q.clone(),
            k: k.clone(),
            v: v.clone(),
            weights,
            scale,
        },
    )
}

/// Backward pass of scaled dot-product attention.
///
/// Given `dL/d(out)`, returns `(dL/dQ, dL/dK, dL/dV)`.
///
/// # Panics
///
/// Panics if `grad_out` does not match the forward output shape.
pub fn attention_backward(cache: &AttentionCache, grad_out: &Matrix) -> (Matrix, Matrix, Matrix) {
    // out = A V; all transposed products use the transpose-free kernels.
    let grad_scores = score_grad(cache, grad_out);
    let grad_v = cache.weights.transposed_matmul(grad_out);
    let grad_q = grad_scores.matmul(&cache.k);
    let grad_k = grad_scores.transposed_matmul(&cache.q);
    (grad_q, grad_k, grad_v)
}

/// The query half of [`attention_backward`]: `dL/dQ` only, for callers
/// whose keys and values are constants (an attack step against a frozen
/// reference memory). Bit-identical to `attention_backward(..).0`.
///
/// # Panics
///
/// Panics if `grad_out` does not match the forward output shape.
pub fn attention_backward_query(cache: &AttentionCache, grad_out: &Matrix) -> Matrix {
    score_grad(cache, grad_out).matmul(&cache.k)
}

/// `dL/dS` for the pre-softmax scores `S = Q Kᵀ`, scale included: the
/// part of the backward pass shared by the query and key gradients.
fn score_grad(cache: &AttentionCache, grad_out: &Matrix) -> Matrix {
    assert_eq!(
        grad_out.shape(),
        (cache.q.rows(), cache.v.cols()),
        "grad_out shape mismatch"
    );
    let grad_a = grad_out.matmul_transposed(&cache.v);

    // Softmax backward, row-wise: dS_ij = A_ij (dA_ij - Σ_k dA_ik A_ik)
    let mut grad_scores = Matrix::zeros(grad_a.rows(), grad_a.cols());
    for r in 0..grad_a.rows() {
        let ga_row = grad_a.row(r);
        let w_row = cache.weights.row(r);
        let dot: f64 = ga_row.iter().zip(w_row).map(|(&g, &a)| g * a).sum();
        let out_row = grad_scores.row_mut(r);
        for ((o, &g), &a) in out_row.iter_mut().zip(ga_row).zip(w_row) {
            *o = a * (g - dot);
        }
    }
    grad_scores.scale(cache.scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use calloc_tensor::Rng;

    fn rand_matrix(rows: usize, cols: usize, rng: &mut Rng) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| rng.normal(0.0, 1.0))
    }

    #[test]
    fn output_shape() {
        let mut rng = Rng::new(0);
        let q = rand_matrix(3, 4, &mut rng);
        let k = rand_matrix(7, 4, &mut rng);
        let v = rand_matrix(7, 2, &mut rng);
        let (out, _) = attention_forward(&q, &k, &v);
        assert_eq!(out.shape(), (3, 2));
    }

    #[test]
    fn weights_are_row_distributions() {
        let mut rng = Rng::new(1);
        let q = rand_matrix(5, 6, &mut rng);
        let k = rand_matrix(9, 6, &mut rng);
        let v = rand_matrix(9, 3, &mut rng);
        let (_, cache) = attention_forward(&q, &k, &v);
        for r in 0..5 {
            let s: f64 = cache.weights().row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn output_is_convex_combination_of_values() {
        // With identical values, the output equals that value regardless of
        // the attention distribution.
        let mut rng = Rng::new(2);
        let q = rand_matrix(2, 3, &mut rng);
        let k = rand_matrix(4, 3, &mut rng);
        let v = Matrix::from_fn(4, 2, |_, c| if c == 0 { 3.0 } else { -1.0 });
        let (out, _) = attention_forward(&q, &k, &v);
        for r in 0..2 {
            assert!((out.get(r, 0) - 3.0).abs() < 1e-12);
            assert!((out.get(r, 1) + 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn matched_query_attends_to_matching_key() {
        let q = Matrix::from_rows(&[vec![5.0, 0.0]]);
        let k = Matrix::from_rows(&[vec![5.0, 0.0], vec![0.0, 5.0], vec![-5.0, 0.0]]);
        let v = Matrix::identity(3);
        let (_, cache) = attention_forward(&q, &k, &v);
        let w = cache.weights();
        assert!(w.get(0, 0) > w.get(0, 1));
        assert!(w.get(0, 1) > w.get(0, 2));
    }

    /// Full finite-difference check of all three input gradients.
    #[test]
    fn gradients_match_finite_diff() {
        let mut rng = Rng::new(3);
        let q = rand_matrix(3, 4, &mut rng);
        let k = rand_matrix(5, 4, &mut rng);
        let v = rand_matrix(5, 2, &mut rng);
        let (out, cache) = attention_forward(&q, &k, &v);
        let g_out = rand_matrix(out.rows(), out.cols(), &mut rng);
        let (gq, gk, gv) = attention_backward(&cache, &g_out);

        let eps = 1e-6;
        let f = |q: &Matrix, k: &Matrix, v: &Matrix| -> f64 {
            attention_forward(q, k, v).0.hadamard(&g_out).sum()
        };
        // dQ
        for r in 0..q.rows() {
            for c in 0..q.cols() {
                let mut qp = q.clone();
                qp.set(r, c, q.get(r, c) + eps);
                let mut qm = q.clone();
                qm.set(r, c, q.get(r, c) - eps);
                let fd = (f(&qp, &k, &v) - f(&qm, &k, &v)) / (2.0 * eps);
                assert!((gq.get(r, c) - fd).abs() < 1e-5, "dQ[{r}][{c}]");
            }
        }
        // dK
        for r in 0..k.rows() {
            for c in 0..k.cols() {
                let mut kp = k.clone();
                kp.set(r, c, k.get(r, c) + eps);
                let mut km = k.clone();
                km.set(r, c, k.get(r, c) - eps);
                let fd = (f(&q, &kp, &v) - f(&q, &km, &v)) / (2.0 * eps);
                assert!((gk.get(r, c) - fd).abs() < 1e-5, "dK[{r}][{c}]");
            }
        }
        // dV
        for r in 0..v.rows() {
            for c in 0..v.cols() {
                let mut vp = v.clone();
                vp.set(r, c, v.get(r, c) + eps);
                let mut vm = v.clone();
                vm.set(r, c, v.get(r, c) - eps);
                let fd = (f(&q, &k, &vp) - f(&q, &k, &vm)) / (2.0 * eps);
                assert!((gv.get(r, c) - fd).abs() < 1e-5, "dV[{r}][{c}]");
            }
        }
    }

    #[test]
    fn query_gradient_is_bit_identical_to_the_full_backward() {
        let mut rng = Rng::new(4);
        let q = rand_matrix(6, 5, &mut rng);
        let k = rand_matrix(9, 5, &mut rng);
        let v = rand_matrix(9, 3, &mut rng);
        let (out, cache) = attention_forward(&q, &k, &v);
        let g_out = rand_matrix(out.rows(), out.cols(), &mut rng);
        let (gq, _, _) = attention_backward(&cache, &g_out);
        let gq_only = attention_backward_query(&cache, &g_out);
        assert_eq!(gq.shape(), gq_only.shape());
        for (a, b) in gq.as_slice().iter().zip(gq_only.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "width")]
    fn rejects_mismatched_qk() {
        let q = Matrix::zeros(1, 3);
        let k = Matrix::zeros(2, 4);
        let v = Matrix::zeros(2, 2);
        attention_forward(&q, &k, &v);
    }
}
