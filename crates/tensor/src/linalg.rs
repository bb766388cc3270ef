//! Dense linear-algebra routines.
//!
//! Only what the reproduction needs: Cholesky factorization and the
//! associated triangular / positive-definite solves. These power the
//! Gaussian-process baseline (`calloc-baselines::gpc`), which must solve
//! `(K + σ²I) α = Y` for an RBF kernel matrix `K`.

use crate::{par, Matrix, TensorError};

/// Default panel width of the blocked [`cholesky`] factorization. Wide
/// enough that the trailing-matrix update dominates (and caches the panel),
/// small enough that the serial panel factorization stays negligible.
pub const CHOLESKY_BLOCK: usize = 64;

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite
/// matrix, returning the lower-triangular factor `L`.
///
/// This is a **blocked right-looking** factorization: panels of
/// [`CHOLESKY_BLOCK`] columns are factored serially, then the trailing
/// matrix receives the panel's rank-`nb` update row-parallel on
/// [`par::par_row_chunks_mut`]. Every element subtracts its
/// `l(i,k)·l(j,k)` contributions one at a time in ascending `k` — exactly
/// the operation sequence of the textbook unblocked kernel — so the result
/// is **bit-identical** to the serial factorization for every block size
/// and thread count (`CALLOC_THREADS=1` degenerates to a plain serial
/// loop). `crates/tensor/tests/proptest_linalg.rs` enforces this.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `a` is not square and
/// [`TensorError::Numeric`] if a non-positive pivot is encountered (i.e.
/// `a` is not positive definite to working precision).
///
/// # Example
///
/// ```
/// use calloc_tensor::{linalg, Matrix};
///
/// let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
/// let l = linalg::cholesky(&a)?;
/// let recon = l.matmul(&l.transpose());
/// assert!(recon.approx_eq(&a, 1e-12));
/// # Ok::<(), calloc_tensor::TensorError>(())
/// ```
pub fn cholesky(a: &Matrix) -> Result<Matrix, TensorError> {
    cholesky_with_block(a, CHOLESKY_BLOCK)
}

/// [`cholesky`] with an explicit panel width `nb` (clamped to at least 1).
///
/// With `nb >= a.rows()` the whole matrix is one panel and the routine *is*
/// the unblocked serial kernel — tests and benches use that as the
/// bit-identity reference for the blocked/parallel path.
///
/// # Errors
///
/// Same conditions as [`cholesky`].
pub fn cholesky_with_block(a: &Matrix, nb: usize) -> Result<Matrix, TensorError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(TensorError::ShapeMismatch(format!(
            "cholesky requires a square matrix, got {}x{}",
            a.rows(),
            a.cols()
        )));
    }
    let nb = nb.clamp(1, n.max(1));
    // Factor in place on a copy; the strict upper triangle (untouched
    // original values) is zeroed at the end.
    let mut l = a.clone();
    let data = l.as_mut_slice();
    let mut p0 = 0;
    while p0 < n {
        let p1 = (p0 + nb).min(n);
        // Panel factorization (columns p0..p1, all rows, serial). The
        // contributions of columns k < p0 were already subtracted by the
        // previous panels' trailing updates, so each element only subtracts
        // the in-panel k range here — continuing the ascending-k sequence.
        for j in p0..p1 {
            for i in j..n {
                let mut sum = data[i * n + j];
                for k in p0..j {
                    sum -= data[i * n + k] * data[j * n + k];
                }
                data[i * n + j] = sum;
            }
            let pivot = data[j * n + j];
            if pivot <= 0.0 {
                return Err(TensorError::Numeric(format!(
                    "non-positive pivot {pivot:.3e} at row {j}; matrix is not positive definite"
                )));
            }
            let d = pivot.sqrt();
            data[j * n + j] = d;
            for i in j + 1..n {
                data[i * n + j] /= d;
            }
        }
        // Trailing-matrix update: a(i,j) -= Σ_{k in panel} l(i,k)·l(j,k)
        // for i,j >= p1, j <= i. Rows are independent (each reads only the
        // finalized panel snapshot and writes its own trailing columns), so
        // the update fans out row-parallel; within each element the
        // subtractions stay in ascending k, keeping the bit-identity.
        if p1 < n {
            let nbk = p1 - p0;
            let trailing_rows = n - p1;
            let mut panel = vec![0.0; trailing_rows * nbk];
            for (i, prow) in panel.chunks_exact_mut(nbk).enumerate() {
                let src = (p1 + i) * n + p0;
                prow.copy_from_slice(&data[src..src + nbk]);
            }
            let min_rows = par::min_rows_for(nbk * trailing_rows / 2);
            par::par_row_chunks_mut(&mut data[p1 * n..], n, min_rows, |first, chunk| {
                for (ri, row) in chunk.chunks_exact_mut(n).enumerate() {
                    let i = first + ri; // row index relative to p1
                    let pi = &panel[i * nbk..(i + 1) * nbk];
                    for (j, pj) in panel.chunks_exact(nbk).enumerate().take(i + 1) {
                        let v = &mut row[p1 + j];
                        for (&lik, &ljk) in pi.iter().zip(pj) {
                            *v -= lik * ljk;
                        }
                    }
                }
            });
        }
        p0 = p1;
    }
    for i in 0..n {
        for v in &mut data[i * n + i + 1..(i + 1) * n] {
            *v = 0.0;
        }
    }
    Ok(l)
}

/// Solves `L x = b` for lower-triangular `L` (forward substitution).
///
/// `b` may have multiple right-hand-side columns.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] on incompatible shapes and
/// [`TensorError::Numeric`] on a zero diagonal element.
pub fn solve_lower_triangular(l: &Matrix, b: &Matrix) -> Result<Matrix, TensorError> {
    let n = l.rows();
    if l.cols() != n || b.rows() != n {
        return Err(TensorError::ShapeMismatch(format!(
            "solve_lower_triangular: L is {}x{}, b is {}x{}",
            l.rows(),
            l.cols(),
            b.rows(),
            b.cols()
        )));
    }
    let mut x = b.clone();
    for col in 0..b.cols() {
        for i in 0..n {
            let mut sum = x.get(i, col);
            for k in 0..i {
                sum -= l.get(i, k) * x.get(k, col);
            }
            let d = l.get(i, i);
            if d == 0.0 {
                return Err(TensorError::Numeric(format!("zero diagonal at row {i}")));
            }
            x.set(i, col, sum / d);
        }
    }
    Ok(x)
}

/// Solves `Lᵀ x = b` for lower-triangular `L` (backward substitution).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] on incompatible shapes and
/// [`TensorError::Numeric`] on a zero diagonal element.
pub fn solve_upper_from_lower(l: &Matrix, b: &Matrix) -> Result<Matrix, TensorError> {
    let n = l.rows();
    if l.cols() != n || b.rows() != n {
        return Err(TensorError::ShapeMismatch(format!(
            "solve_upper_from_lower: L is {}x{}, b is {}x{}",
            l.rows(),
            l.cols(),
            b.rows(),
            b.cols()
        )));
    }
    let mut x = b.clone();
    for col in 0..b.cols() {
        for i in (0..n).rev() {
            let mut sum = x.get(i, col);
            for k in i + 1..n {
                // (Lᵀ)[i][k] == L[k][i]
                sum -= l.get(k, i) * x.get(k, col);
            }
            let d = l.get(i, i);
            if d == 0.0 {
                return Err(TensorError::Numeric(format!("zero diagonal at row {i}")));
            }
            x.set(i, col, sum / d);
        }
    }
    Ok(x)
}

/// Solves the symmetric positive-definite system `A x = b` via Cholesky.
///
/// # Errors
///
/// Propagates errors from [`cholesky`] and the triangular solves.
///
/// # Example
///
/// ```
/// use calloc_tensor::{linalg, Matrix};
///
/// let a = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]);
/// let b = Matrix::from_rows(&[vec![1.0], vec![2.0]]);
/// let x = linalg::solve_spd(&a, &b)?;
/// assert!(a.matmul(&x).approx_eq(&b, 1e-10));
/// # Ok::<(), calloc_tensor::TensorError>(())
/// ```
pub fn solve_spd(a: &Matrix, b: &Matrix) -> Result<Matrix, TensorError> {
    let l = cholesky(a)?;
    let y = solve_lower_triangular(&l, b)?;
    solve_upper_from_lower(&l, &y)
}

/// Adds `jitter` to the diagonal of a square matrix (in place on a copy).
///
/// Kernel matrices are often numerically semi-definite; a small diagonal
/// jitter restores positive definiteness.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn add_diagonal(a: &Matrix, jitter: f64) -> Matrix {
    assert_eq!(a.rows(), a.cols(), "add_diagonal requires a square matrix");
    let mut out = a.clone();
    for i in 0..a.rows() {
        out.set(i, i, out.get(i, i) + jitter);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    fn random_spd(n: usize, seed: u64) -> Matrix {
        let mut rng = Rng::new(seed);
        let b = Matrix::from_fn(n, n, |_, _| rng.normal(0.0, 1.0));
        add_diagonal(&b.matmul(&b.transpose()), 1e-3 + n as f64 * 0.1)
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = random_spd(8, 1);
        let l = cholesky(&a).expect("spd");
        assert!(l.matmul(&l.transpose()).approx_eq(&a, 1e-9));
    }

    #[test]
    fn cholesky_rejects_non_square() {
        assert!(matches!(
            cholesky(&Matrix::zeros(2, 3)),
            Err(TensorError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(cholesky(&a), Err(TensorError::Numeric(_))));
    }

    #[test]
    fn blocked_is_bit_identical_to_unblocked() {
        for n in [1usize, 5, 17, 40, 70] {
            let a = random_spd(n, n as u64);
            // One panel spanning the whole matrix == the unblocked kernel.
            let reference = cholesky_with_block(&a, usize::MAX).expect("spd");
            for nb in [1usize, 2, 3, 8, 64] {
                let blocked = cholesky_with_block(&a, nb).expect("spd");
                for (i, (x, y)) in reference
                    .as_slice()
                    .iter()
                    .zip(blocked.as_slice())
                    .enumerate()
                {
                    assert_eq!(x.to_bits(), y.to_bits(), "n={n} nb={nb} element {i}");
                }
            }
        }
    }

    #[test]
    fn blocked_rejects_indefinite_in_later_panel() {
        // Positive-definite leading block, indefinite overall: the failure
        // must surface in a panel past the first.
        let n = 12;
        let mut a = random_spd(n, 9);
        a.set(n - 1, n - 1, -5.0);
        assert!(matches!(
            cholesky_with_block(&a, 4),
            Err(TensorError::Numeric(_))
        ));
    }

    #[test]
    fn solve_spd_solves() {
        let a = random_spd(10, 2);
        let mut rng = Rng::new(3);
        let b = Matrix::from_fn(10, 3, |_, _| rng.normal(0.0, 2.0));
        let x = solve_spd(&a, &b).expect("solve");
        assert!(a.matmul(&x).approx_eq(&b, 1e-7));
    }

    #[test]
    fn triangular_solves_match_direct() {
        let a = random_spd(6, 4);
        let l = cholesky(&a).expect("spd");
        let b = Matrix::from_fn(6, 1, |r, _| r as f64 + 1.0);
        let y = solve_lower_triangular(&l, &b).expect("fwd");
        assert!(l.matmul(&y).approx_eq(&b, 1e-9));
        let x = solve_upper_from_lower(&l, &y).expect("bwd");
        assert!(l.transpose().matmul(&x).approx_eq(&y, 1e-9));
    }

    #[test]
    fn add_diagonal_only_touches_diagonal() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let j = add_diagonal(&a, 0.5);
        assert_eq!(j.get(0, 0), 1.5);
        assert_eq!(j.get(1, 1), 4.5);
        assert_eq!(j.get(0, 1), 2.0);
        assert_eq!(j.get(1, 0), 3.0);
    }
}
