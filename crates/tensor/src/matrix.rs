//! Dense row-major `f64` matrix.
//!
//! The compute-heavy kernels (`matmul`, `matmul_transposed`,
//! `transposed_matmul`, `transpose`, `softmax_rows`) are cache-blocked and
//! row-chunk-parallel on top of [`crate::par`]. Every kernel accumulates
//! each output element in a fixed ascending order that does not depend on
//! chunk boundaries, so results are bit-identical for every
//! `CALLOC_THREADS` value (including the serial fallback).

use serde::{Deserialize, Serialize};

use crate::par;
use crate::TensorError;

/// Number of inner-dimension (`k`) entries processed per cache block of the
/// matmul kernel: the block of `other` rows it keeps hot is
/// `MATMUL_K_BLOCK × other.cols()` doubles (32 KiB at 64 columns).
const MATMUL_K_BLOCK: usize = 64;

/// Output-column tile width of the packed `A · Bᵀ` kernel; together with
/// [`MATMUL_K_BLOCK`] it bounds the pack scratch at 32 KiB (L1-sized).
const MATMUL_J_BLOCK: usize = 64;

/// Square tile edge of the blocked transpose.
const TRANSPOSE_BLOCK: usize = 32;

/// Microkernel shared by the matmul-family kernels:
/// `crow[j] (+)= Σ_t asub[t] * b_block[t * ldb + j]`, with `t` strictly
/// ascending and every addition left-associated onto the existing value.
///
/// The `t` loop is unrolled eight wide purely to cut `crow` load/store
/// traffic; the per-element chain `c + p0 + p1 + …` associates left, so the
/// result bits are identical to adding one product at a time.
fn accumulate_block(asub: &[f64], b_block: &[f64], ldb: usize, crow: &mut [f64]) {
    let kw = asub.len();
    let jw = crow.len();
    let mut t = 0;
    while t + 8 <= kw {
        let (a0, a1, a2, a3) = (asub[t], asub[t + 1], asub[t + 2], asub[t + 3]);
        let (a4, a5, a6, a7) = (asub[t + 4], asub[t + 5], asub[t + 6], asub[t + 7]);
        let b0 = &b_block[t * ldb..t * ldb + jw];
        let b1 = &b_block[(t + 1) * ldb..(t + 1) * ldb + jw];
        let b2 = &b_block[(t + 2) * ldb..(t + 2) * ldb + jw];
        let b3 = &b_block[(t + 3) * ldb..(t + 3) * ldb + jw];
        let b4 = &b_block[(t + 4) * ldb..(t + 4) * ldb + jw];
        let b5 = &b_block[(t + 5) * ldb..(t + 5) * ldb + jw];
        let b6 = &b_block[(t + 6) * ldb..(t + 6) * ldb + jw];
        let b7 = &b_block[(t + 7) * ldb..(t + 7) * ldb + jw];
        for j in 0..jw {
            // Not `+=`: the explicit left-associated chain keeps the
            // additions in exact ascending-t order; `c += p0+p1+…` would
            // round differently.
            #[allow(clippy::assign_op_pattern)]
            {
                crow[j] = crow[j]
                    + a0 * b0[j]
                    + a1 * b1[j]
                    + a2 * b2[j]
                    + a3 * b3[j]
                    + a4 * b4[j]
                    + a5 * b5[j]
                    + a6 * b6[j]
                    + a7 * b7[j];
            }
        }
        t += 8;
    }
    while t < kw {
        let av = asub[t];
        let brow = &b_block[t * ldb..t * ldb + jw];
        for (c, &bv) in crow.iter_mut().zip(brow) {
            *c += av * bv;
        }
        t += 1;
    }
}

/// One row chunk of the dense product `out += A · B`.
///
/// `out_chunk` holds rows `first_row ..` of the product; `a` and `b` are
/// the full operand buffers with inner dimension `k` and output width `n`.
/// The `k` loop is blocked ([`MATMUL_K_BLOCK`]) and delegated to
/// [`accumulate_block`], but every output element is accumulated by a
/// chain of left-associated `+` in ascending `k` — the same order as the
/// naive triple loop — so the blocking, the unroll, and the row chunking
/// are all invisible in the result bits.
fn matmul_chunk(a: &[f64], k: usize, b: &[f64], n: usize, first_row: usize, out_chunk: &mut [f64]) {
    if n == 0 || k == 0 {
        return;
    }
    let chunk_rows = out_chunk.len() / n;
    for kb in (0..k).step_by(MATMUL_K_BLOCK) {
        let kend = (kb + MATMUL_K_BLOCK).min(k);
        for i in 0..chunk_rows {
            let arow = &a[(first_row + i) * k..(first_row + i + 1) * k];
            let crow = &mut out_chunk[i * n..(i + 1) * n];
            accumulate_block(&arow[kb..kend], &b[kb * n..kend * n], n, crow);
        }
    }
}

/// One row chunk of `out = A · Bᵀ`, without materializing `Bᵀ` globally:
/// an L1-sized tile of `B` (at most [`MATMUL_K_BLOCK`] ×
/// [`MATMUL_J_BLOCK`]) is transposed into a pack scratch per `(j, k)`
/// block, then fed through the same [`accumulate_block`] microkernel as
/// the dense product.
///
/// For every output element the `k` blocks are visited in ascending order
/// and the microkernel accumulates ascending within the block, so
/// `a.matmul_transposed(&b) == a.matmul(&b.transpose())` holds bitwise.
fn matmul_t_chunk(
    a: &[f64],
    k: usize,
    b: &[f64],
    n: usize,
    first_row: usize,
    out_chunk: &mut [f64],
) {
    if n == 0 || k == 0 {
        return;
    }
    let chunk_rows = out_chunk.len() / n;
    let mut pack = [0.0f64; MATMUL_K_BLOCK * MATMUL_J_BLOCK];
    for jb in (0..n).step_by(MATMUL_J_BLOCK) {
        let jw = MATMUL_J_BLOCK.min(n - jb);
        for kb in (0..k).step_by(MATMUL_K_BLOCK) {
            let kw = MATMUL_K_BLOCK.min(k - kb);
            // Pack the transpose of B[jb..jb+jw][kb..kb+kw] row-major.
            for (jj, dst_col) in (jb..jb + jw).enumerate() {
                let brow = &b[dst_col * k + kb..dst_col * k + kb + kw];
                for (t, &bv) in brow.iter().enumerate() {
                    pack[t * jw + jj] = bv;
                }
            }
            for i in 0..chunk_rows {
                let arow = &a[(first_row + i) * k..(first_row + i + 1) * k];
                let crow = &mut out_chunk[i * n + jb..i * n + jb + jw];
                accumulate_block(&arow[kb..kb + kw], &pack[..kw * jw], jw, crow);
            }
        }
    }
}

/// One row chunk of `out = Aᵀ · B`: rows `first_row ..` of the output are
/// columns `first_row ..` of `a`.
///
/// Blocks of [`MATMUL_K_BLOCK`] `a` rows are processed at a time: the
/// column strip of `a` belonging to each output row is gathered into a
/// small buffer and fed through [`accumulate_block`] against the matching
/// block of `b` rows. Each output element accumulates over ascending `a`
/// rows, matching `a.transpose().matmul(&b)` bit for bit.
fn t_matmul_chunk(
    a: &[f64],
    a_rows: usize,
    a_cols: usize,
    b: &[f64],
    n: usize,
    first_row: usize,
    out_chunk: &mut [f64],
) {
    if n == 0 || a_rows == 0 {
        return;
    }
    let chunk_rows = out_chunk.len() / n;
    for ib in (0..a_rows).step_by(MATMUL_K_BLOCK) {
        let iw = MATMUL_K_BLOCK.min(a_rows - ib);
        let b_block = &b[ib * n..(ib + iw) * n];
        for jj in 0..chunk_rows {
            let col = first_row + jj;
            let mut asub = [0.0f64; MATMUL_K_BLOCK];
            for (t, dst) in asub[..iw].iter_mut().enumerate() {
                *dst = a[(ib + t) * a_cols + col];
            }
            let crow = &mut out_chunk[jj * n..(jj + 1) * n];
            accumulate_block(&asub[..iw], b_block, n, crow);
        }
    }
}

/// A dense, row-major matrix of `f64` values.
///
/// `Matrix` is the workhorse of the whole reproduction: RSS fingerprint
/// batches, network activations, weight tensors and kernel matrices are all
/// `Matrix` values. Shapes are validated eagerly; shape errors panic with a
/// descriptive message because they are always programming bugs, never data
/// conditions (the fallible [`Matrix::checked_matmul`] variant is available
/// for callers that prefer a `Result`).
///
/// # Example
///
/// ```
/// use calloc_tensor::Matrix;
///
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// assert_eq!(a.get(1, 0), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of zeros with the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n`-by-`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix by calling `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from row vectors.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                cols,
                "row {i} has length {} but row 0 has length {cols}",
                row.len()
            );
            data.extend_from_slice(row);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "flat data length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Builds a 1-by-`n` row matrix from a slice.
    pub fn row_vector(values: &[f64]) -> Self {
        Matrix {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reads element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c]
    }

    /// Writes element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c] = v;
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(
            c < self.cols,
            "col {c} out of bounds for {} cols",
            self.cols
        );
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Overwrites row `r` with `values`.
    ///
    /// # Panics
    ///
    /// Panics on index or length mismatch.
    pub fn set_row(&mut self, r: usize, values: &[f64]) {
        assert_eq!(values.len(), self.cols, "row length mismatch");
        self.row_mut(r).copy_from_slice(values);
    }

    /// Borrows the flat row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the flat row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns the flat row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns a new matrix whose elements are `f(x)` of this one's.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise combination of two equally-shaped matrices.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        self.assert_same_shape(other, "zip_map");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a + b)
    }

    /// Element-wise difference (`self - other`).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Adds `other` scaled by `alpha` in place (`self += alpha * other`).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        self.assert_same_shape(other, "axpy");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Broadcast-adds a 1-by-`cols` row vector to every row.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not 1-by-`cols`.
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Matrix {
        assert_eq!(bias.rows, 1, "bias must have exactly one row");
        assert_eq!(
            bias.cols, self.cols,
            "bias has {} cols but matrix has {}",
            bias.cols, self.cols
        );
        let mut out = self.clone();
        if self.cols == 0 {
            return out;
        }
        for row in out.data.chunks_exact_mut(self.cols) {
            for (v, &bv) in row.iter_mut().zip(&bias.data) {
                *v += bv;
            }
        }
        out
    }

    /// Sums over rows, producing a 1-by-`cols` row vector.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        if self.cols == 0 {
            return out;
        }
        for row in self.data.chunks_exact(self.cols) {
            for (acc, &v) in out.data.iter_mut().zip(row) {
                *acc += v;
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements; 0.0 for an empty matrix.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Maximum element; `f64::NEG_INFINITY` for an empty matrix.
    ///
    /// NaN-robust: the fold uses [`f64::max`], which implements IEEE-754
    /// `maximumNumber` semantics — NaN elements are *ignored*, never
    /// propagated, so an otherwise-finite matrix with a stray NaN still
    /// reports its largest real element (and an all-NaN matrix reports
    /// `NEG_INFINITY`, as if empty). Callers that must detect NaNs should
    /// check [`Matrix::has_non_finite`] explicitly.
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum element; `f64::INFINITY` for an empty matrix.
    ///
    /// NaN-robust like [`Matrix::max`]: NaN elements are ignored, and an
    /// all-NaN matrix reports `INFINITY`. Check
    /// [`Matrix::has_non_finite`] to detect NaNs.
    pub fn min(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Clamps every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f64, hi: f64) -> Matrix {
        self.map(|x| x.clamp(lo, hi))
    }

    /// Matrix transpose (cache-blocked, row-chunk-parallel).
    ///
    /// Pure data movement, so it is trivially bit-identical for every
    /// thread count.
    pub fn transpose(&self) -> Matrix {
        let (in_rows, in_cols) = (self.rows, self.cols);
        let mut out = Matrix::zeros(in_cols, in_rows);
        if in_rows == 0 || in_cols == 0 {
            return out;
        }
        let src = &self.data;
        // Memory-bound: weight a moved element as ~4 work units.
        let min_rows = par::min_rows_for(in_rows.saturating_mul(4));
        par::par_row_chunks_mut(&mut out.data, in_rows, min_rows, |first_row, chunk| {
            let chunk_rows = chunk.len() / in_rows;
            for ob in (0..chunk_rows).step_by(TRANSPOSE_BLOCK) {
                let oend = (ob + TRANSPOSE_BLOCK).min(chunk_rows);
                for ib in (0..in_rows).step_by(TRANSPOSE_BLOCK) {
                    let iend = (ib + TRANSPOSE_BLOCK).min(in_rows);
                    for o in ob..oend {
                        let col = first_row + o;
                        for i in ib..iend {
                            chunk[o * in_rows + i] = src[i * in_cols + col];
                        }
                    }
                }
            }
        });
        out
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.checked_matmul(other).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Matrix product returning an error instead of panicking on a shape
    /// mismatch.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the inner dimensions differ.
    pub fn checked_matmul(&self, other: &Matrix) -> Result<Matrix, TensorError> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch(format!(
                "cannot multiply {}x{} by {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let (k, n) = (self.cols, other.cols);
        let mut out = Matrix::zeros(self.rows, n);
        if self.rows == 0 || n == 0 || k == 0 {
            return Ok(out);
        }
        let (a, b) = (&self.data, &other.data);
        let min_rows = par::min_rows_for(k.saturating_mul(n));
        par::par_row_chunks_mut(&mut out.data, n, min_rows, |first_row, chunk| {
            matmul_chunk(a, k, b, n, first_row, chunk);
        });
        Ok(out)
    }

    /// Matrix product with the transpose of `other`: `self · otherᵀ`,
    /// computed without materializing the transpose (both operands stream
    /// along contiguous rows).
    ///
    /// Bit-identical to `self.matmul(&other.transpose())`: every output
    /// element is a dot product accumulated in the same ascending order the
    /// dense kernel uses.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    ///
    /// # Example
    ///
    /// ```
    /// use calloc_tensor::Matrix;
    ///
    /// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
    /// let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
    /// assert_eq!(a.matmul_transposed(&b), a.matmul(&b.transpose()));
    /// ```
    pub fn matmul_transposed(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transposed: width {} must equal width {}",
            self.cols, other.cols
        );
        let (k, n) = (self.cols, other.rows);
        let mut out = Matrix::zeros(self.rows, n);
        if self.rows == 0 || n == 0 {
            return out;
        }
        let (a, b) = (&self.data, &other.data);
        let min_rows = par::min_rows_for(k.saturating_mul(n));
        par::par_row_chunks_mut(&mut out.data, n, min_rows, |first_row, chunk| {
            matmul_t_chunk(a, k, b, n, first_row, chunk);
        });
        out
    }

    /// Matrix product of the transpose of `self` with `other`:
    /// `selfᵀ · other`, computed without materializing the transpose.
    ///
    /// Bit-identical to `self.transpose().matmul(other)`: each output
    /// element accumulates over the rows of `self` in ascending order, the
    /// same order the dense kernel uses on the materialized transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()`.
    ///
    /// # Example
    ///
    /// ```
    /// use calloc_tensor::Matrix;
    ///
    /// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
    /// let b = Matrix::from_rows(&[vec![5.0], vec![6.0]]);
    /// assert_eq!(a.transposed_matmul(&b), a.transpose().matmul(&b));
    /// ```
    pub fn transposed_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "transposed_matmul: height {} must equal height {}",
            self.rows, other.rows
        );
        let n = other.cols;
        let mut out = Matrix::zeros(self.cols, n);
        if self.cols == 0 || n == 0 {
            return out;
        }
        let (a, b) = (&self.data, &other.data);
        let (a_rows, a_cols) = (self.rows, self.cols);
        let min_rows = par::min_rows_for(a_rows.saturating_mul(n));
        par::par_row_chunks_mut(&mut out.data, n, min_rows, |first_row, chunk| {
            t_matmul_chunk(a, a_rows, a_cols, b, n, first_row, chunk);
        });
        out
    }

    /// Row-wise softmax: each row is exponentiated (with max subtraction for
    /// stability) and normalized to sum to one.
    ///
    /// Rows are independent, so the kernel is row-chunk-parallel and
    /// bit-identical for every thread count.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        let cols = self.cols;
        if cols == 0 || self.rows == 0 {
            return out;
        }
        // exp dominates; weight an element as ~16 work units.
        let min_rows = par::min_rows_for(cols.saturating_mul(16));
        par::par_row_chunks_mut(&mut out.data, cols, min_rows, |_, chunk| {
            for row in chunk.chunks_exact_mut(cols) {
                let m = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let mut sum = 0.0;
                for v in row.iter_mut() {
                    *v = (*v - m).exp();
                    sum += *v;
                }
                if sum > 0.0 {
                    for v in row.iter_mut() {
                        *v /= sum;
                    }
                }
            }
        });
        out
    }

    /// Row-wise log-softmax (numerically stable).
    ///
    /// Rows are independent, so the kernel is row-chunk-parallel like
    /// [`Matrix::softmax_rows`]; the per-row arithmetic order is unchanged
    /// from the serial loop, so results are bit-identical for every thread
    /// count.
    pub fn log_softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        let cols = self.cols;
        if cols == 0 || self.rows == 0 {
            return out;
        }
        // exp dominates; weight an element as ~16 work units.
        let min_rows = par::min_rows_for(cols.saturating_mul(16));
        par::par_row_chunks_mut(&mut out.data, cols, min_rows, |_, chunk| {
            for row in chunk.chunks_exact_mut(cols) {
                let m = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let lse = m + row.iter().map(|&v| (v - m).exp()).sum::<f64>().ln();
                for v in row.iter_mut() {
                    *v -= lse;
                }
            }
        });
        out
    }

    /// Index of the maximum element in each row.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                let row = self.row(r);
                let mut best = 0;
                for (i, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    /// Stacks two matrices vertically (`self` on top).
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "vstack requires equal column counts ({} vs {})",
            self.cols, other.cols
        );
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Concatenates two matrices horizontally (`self` on the left).
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn hstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "hstack requires equal row counts ({} vs {})",
            self.rows, other.rows
        );
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.data[r * out.cols..r * out.cols + self.cols].copy_from_slice(self.row(r));
            out.data[r * out.cols + self.cols..(r + 1) * out.cols].copy_from_slice(other.row(r));
        }
        out
    }

    /// Extracts the rows with the given indices, in order, into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &idx) in indices.iter().enumerate() {
            out.set_row(i, self.row(idx));
        }
        out
    }

    /// Extracts the columns with the given indices, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_cols(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, indices.len());
        for r in 0..self.rows {
            for (j, &c) in indices.iter().enumerate() {
                out.set(r, j, self.get(r, c));
            }
        }
        out
    }

    /// `true` when every corresponding element differs by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    fn assert_same_shape(&self, other: &Matrix, op: &str) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "{op}: shape {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(10) {
                write!(f, "{:>10.4}", self.get(r, c))?;
            }
            if self.cols > 10 {
                write!(f, "  ...")?;
            }
            writeln!(f)?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn checked_matmul_shape_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.checked_matmul(&b),
            Err(TensorError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_swaps_indices() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), a.get(1, 2));
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![-5.0, 0.0, 5.0]]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f64 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        let b = a.map(|x| x + 100.0);
        assert!(a.softmax_rows().approx_eq(&b.softmax_rows(), 1e-12));
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let a = Matrix::row_vector(&[0.5, -1.0, 2.0, 0.0]);
        let ls = a.log_softmax_rows();
        let s = a.softmax_rows().map(f64::ln);
        assert!(ls.approx_eq(&s, 1e-10));
    }

    #[test]
    fn argmax_rows_picks_maximum() {
        let a = Matrix::from_rows(&[vec![0.1, 0.9, 0.0], vec![3.0, 1.0, 2.0]]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn add_row_broadcast_adds_bias_to_each_row() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let bias = Matrix::row_vector(&[10.0, 20.0]);
        let out = a.add_row_broadcast(&bias);
        assert_eq!(
            out,
            Matrix::from_rows(&[vec![11.0, 22.0], vec![13.0, 24.0]])
        );
    }

    #[test]
    fn sum_rows_collapses_to_row_vector() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.sum_rows(), Matrix::row_vector(&[4.0, 6.0]));
    }

    #[test]
    fn hstack_and_vstack_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 2);
        assert_eq!(a.hstack(&b).shape(), (2, 5));
        let c = Matrix::zeros(4, 3);
        assert_eq!(a.vstack(&c).shape(), (6, 3));
    }

    #[test]
    fn hstack_preserves_values() {
        let a = Matrix::from_rows(&[vec![1.0], vec![2.0]]);
        let b = Matrix::from_rows(&[vec![3.0], vec![4.0]]);
        let h = a.hstack(&b);
        assert_eq!(h.row(0), &[1.0, 3.0]);
        assert_eq!(h.row(1), &[2.0, 4.0]);
    }

    #[test]
    fn select_rows_and_cols() {
        let a = Matrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
        ]);
        let r = a.select_rows(&[2, 0]);
        assert_eq!(
            r,
            Matrix::from_rows(&[vec![7.0, 8.0, 9.0], vec![1.0, 2.0, 3.0]])
        );
        let c = a.select_cols(&[1]);
        assert_eq!(c, Matrix::from_rows(&[vec![2.0], vec![5.0], vec![8.0]]));
    }

    #[test]
    fn clamp_bounds_elements() {
        let a = Matrix::row_vector(&[-2.0, 0.5, 3.0]);
        assert_eq!(a.clamp(0.0, 1.0), Matrix::row_vector(&[0.0, 0.5, 1.0]));
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::row_vector(&[1.0, 1.0]);
        let b = Matrix::row_vector(&[2.0, 3.0]);
        a.axpy(0.5, &b);
        assert_eq!(a, Matrix::row_vector(&[2.0, 2.5]));
    }

    #[test]
    fn frobenius_norm_of_unit_vectors() {
        let a = Matrix::from_rows(&[vec![3.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    /// Reference triple loop (the seed kernel, minus its `a == 0.0` skip):
    /// the blocked/unrolled kernel must match it bit for bit.
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                let av = a.get(i, k);
                for j in 0..b.cols() {
                    let v = out.get(i, j) + av * b.get(k, j);
                    out.set(i, j, v);
                }
            }
        }
        out
    }

    fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = crate::Rng::new(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.normal(0.0, 1.0))
    }

    /// Raw-bit equality (distinguishes `0.0` from `-0.0`, unlike
    /// `PartialEq` on `f64`): the kernel contract is bit-identity.
    fn assert_bits_eq(a: &Matrix, b: &Matrix, context: &str) {
        assert_eq!(a.shape(), b.shape(), "{context}");
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{context}: element {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn blocked_matmul_matches_naive_bitwise_across_block_boundaries() {
        // Shapes straddling the k-block (64) and unroll (4) boundaries.
        for &(m, k, n) in &[(3, 1, 5), (7, 63, 9), (5, 64, 4), (9, 65, 7), (4, 130, 3)] {
            let a = rand_matrix(m, k, 1000 + k as u64);
            let b = rand_matrix(k, n, 2000 + k as u64);
            assert_bits_eq(
                &a.matmul(&b),
                &naive_matmul(&a, &b),
                &format!("shape {m}x{k}x{n}"),
            );
        }
    }

    #[test]
    fn matmul_transposed_matches_explicit_transpose_bitwise() {
        for &(m, k, n) in &[(1, 1, 1), (4, 7, 5), (9, 65, 6), (3, 128, 11)] {
            let a = rand_matrix(m, k, 31 + n as u64);
            let b = rand_matrix(n, k, 77 + m as u64);
            assert_bits_eq(
                &a.matmul_transposed(&b),
                &a.matmul(&b.transpose()),
                &format!("shape {m}x{k} · ({n}x{k})ᵀ"),
            );
        }
    }

    #[test]
    fn transposed_matmul_matches_explicit_transpose_bitwise() {
        for &(m, k, n) in &[(1, 1, 1), (6, 4, 5), (65, 9, 6), (128, 3, 11)] {
            let a = rand_matrix(m, k, 13 + n as u64);
            let b = rand_matrix(m, n, 57 + k as u64);
            assert_bits_eq(
                &a.transposed_matmul(&b),
                &a.transpose().matmul(&b),
                &format!("shape ({m}x{k})ᵀ · {m}x{n}"),
            );
        }
    }

    #[test]
    #[should_panic(expected = "matmul_transposed")]
    fn matmul_transposed_rejects_mismatched_widths() {
        let _ = Matrix::zeros(2, 3).matmul_transposed(&Matrix::zeros(2, 4));
    }

    #[test]
    #[should_panic(expected = "transposed_matmul")]
    fn transposed_matmul_rejects_mismatched_heights() {
        let _ = Matrix::zeros(3, 2).transposed_matmul(&Matrix::zeros(4, 2));
    }

    #[test]
    fn blocked_transpose_handles_non_tile_multiples() {
        // 70x33 straddles the 32-wide tile in both dimensions.
        let a = rand_matrix(70, 33, 5);
        let t = a.transpose();
        assert_eq!(t.shape(), (33, 70));
        for r in 0..a.rows() {
            for c in 0..a.cols() {
                assert_eq!(t.get(c, r).to_bits(), a.get(r, c).to_bits());
            }
        }
    }

    #[test]
    fn max_min_ignore_nan() {
        let a = Matrix::row_vector(&[1.0, f64::NAN, -3.0, 2.0]);
        assert_eq!(a.max(), 2.0);
        assert_eq!(a.min(), -3.0);
        // The guard for callers that care about NaNs:
        assert!(a.has_non_finite());
    }

    #[test]
    fn max_min_of_all_nan_behave_like_empty() {
        let a = Matrix::row_vector(&[f64::NAN, f64::NAN]);
        assert_eq!(a.max(), f64::NEG_INFINITY);
        assert_eq!(a.min(), f64::INFINITY);
        let empty = Matrix::zeros(0, 0);
        assert_eq!(empty.max(), f64::NEG_INFINITY);
        assert_eq!(empty.min(), f64::INFINITY);
    }

    #[test]
    fn zero_inner_dimension_products_are_zero_matrices() {
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 4);
        assert_eq!(a.matmul(&b), Matrix::zeros(3, 4));
        let c = Matrix::zeros(5, 0);
        assert_eq!(a.matmul_transposed(&c), Matrix::zeros(3, 5));
        let d = Matrix::zeros(0, 2);
        assert_eq!(b.transposed_matmul(&d), Matrix::zeros(4, 2));
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn add_shape_mismatch_panics() {
        let _ = Matrix::zeros(2, 2).add(&Matrix::zeros(2, 3));
    }

    #[test]
    fn serde_round_trip() {
        let a = Matrix::from_rows(&[vec![1.5, -2.5], vec![0.0, 9.0]]);
        let json = serde_json_like(&a);
        assert!(json.contains("1.5"));
    }

    // serde_json is not a dependency; just check Serialize is wired by using
    // the Debug representation as a stand-in round trip driver.
    fn serde_json_like(m: &Matrix) -> String {
        format!("{m:?}")
    }
}
