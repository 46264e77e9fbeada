//! Small dense matrices.
//!
//! The QBD blocks are at most `(MPL+1) × (MPL+1)` (a few dozen rows), so a
//! simple row-major dense matrix with partial-pivot LU is all we need — no
//! external linear-algebra dependency.

use serde::{Deserialize, Serialize};
use std::ops::{Index, IndexMut};

/// A row-major dense matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// An `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Mat {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Mat {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// An `n × n` diagonal matrix with the given diagonal.
    pub fn diag(d: &[f64]) -> Mat {
        let mut m = Mat::zeros(d.len(), d.len());
        for (i, &x) in d.iter().enumerate() {
            m[(i, i)] = x;
        }
        m
    }

    /// Build from a row-major closure.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Mat {
        let mut m = Mat::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix product `self · rhs`. Zero entries of `self` are skipped, so
    /// a sparse left factor costs only its nonzeros times `rhs.cols`.
    pub fn mul(&self, rhs: &Mat) -> Mat {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch in mul");
        let mut out = Mat::zeros(self.rows, rhs.cols);
        if self.cols == 0 || rhs.cols == 0 {
            return out;
        }
        let rhs_rows = rhs.data.chunks_exact(rhs.cols);
        for (out_row, row) in out
            .data
            .chunks_exact_mut(rhs.cols)
            .zip(self.data.chunks_exact(self.cols))
        {
            for (&a, rhs_row) in row.iter().zip(rhs_rows.clone()) {
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Row-vector × matrix: `v · self`.
    pub fn vec_mul(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.rows, "dimension mismatch in vec_mul");
        let mut out = vec![0.0; self.cols];
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            for j in 0..self.cols {
                out[j] += vi * self[(i, j)];
            }
        }
        out
    }

    /// Matrix × column-vector: `self · v`.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch in mul_vec");
        let mut out = vec![0.0; self.rows];
        for i in 0..self.rows {
            let mut s = 0.0;
            for j in 0..self.cols {
                s += self[(i, j)] * v[j];
            }
            out[i] = s;
        }
        out
    }

    /// Element-wise `self + rhs`.
    pub fn add(&self, rhs: &Mat) -> Mat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
        out
    }

    /// Element-wise `self - rhs`.
    pub fn sub(&self, rhs: &Mat) -> Mat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
        out
    }

    /// Scalar multiple.
    pub fn scale(&self, s: f64) -> Mat {
        let mut out = self.clone();
        for a in out.data.iter_mut() {
            *a *= s;
        }
        out
    }

    /// Maximum absolute element (∞ norm of the flattened matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// Largest absolute row sum (the ∞-norm of the matrix as an operator).
    pub fn max_row_sum(&self) -> f64 {
        if self.cols == 0 {
            return 0.0;
        }
        self.data
            .chunks_exact(self.cols)
            .map(|row| row.iter().map(|x| x.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Solve `x · self = b` for the row vector `x` (i.e. solve
    /// `selfᵀ xᵀ = bᵀ`). Panics if the matrix is singular.
    pub fn solve_left(&self, b: &[f64]) -> Vec<f64> {
        let t = self.transpose();
        t.solve(b)
    }

    /// Solve `self · x = b` by LU with partial pivoting. Panics if the
    /// matrix is numerically singular.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.rows);
        let mut x = vec![0.0; self.rows];
        Lu::factor(self).solve_into(b, &mut x);
        x
    }

    /// Matrix inverse: one LU factorization, then one pair of triangular
    /// substitutions per column. Panics if singular.
    pub fn inverse(&self) -> Mat {
        let lu = Lu::factor(self);
        let n = self.rows;
        let mut out = Mat::zeros(n, n);
        let mut e = vec![0.0; n];
        let mut col = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            lu.solve_into(&e, &mut col);
            e[j] = 0.0;
            for (i, &v) in col.iter().enumerate() {
                out[(i, j)] = v;
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Mat {
        Mat::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }
}

/// LU factorization with partial pivoting, `P·A = L·U`, packed in one
/// row-major buffer: the unit-lower `L`'s multipliers below the diagonal,
/// `U` on and above it. Row `i` of `P·A` is row `perm[i]` of `A`.
struct Lu {
    n: usize,
    a: Vec<f64>,
    perm: Vec<usize>,
}

impl Lu {
    fn factor(m: &Mat) -> Lu {
        assert_eq!(m.rows, m.cols, "LU requires a square matrix");
        let n = m.rows;
        let mut a = m.data.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for col in 0..n {
            let mut piv = col;
            let mut best = a[col * n + col].abs();
            for r in (col + 1)..n {
                let v = a[r * n + col].abs();
                if v > best {
                    best = v;
                    piv = r;
                }
            }
            assert!(best > 1e-300, "singular matrix in solve (col {col})");
            if piv != col {
                for j in 0..n {
                    a.swap(col * n + j, piv * n + j);
                }
                perm.swap(col, piv);
            }
            let d = a[col * n + col];
            let (upper, lower) = a.split_at_mut((col + 1) * n);
            let pivot_row = &upper[col * n + col + 1..col * n + n];
            for row in lower.chunks_exact_mut(n) {
                let f = row[col] / d;
                row[col] = f;
                if f != 0.0 {
                    for (x, p) in row[col + 1..].iter_mut().zip(pivot_row) {
                        *x -= f * p;
                    }
                }
            }
        }
        Lu { n, a, perm }
    }

    /// Write the solution of `A·x = b` into `x`.
    fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        let n = self.n;
        for (xi, &p) in x.iter_mut().zip(&self.perm) {
            *xi = b[p];
        }
        for r in 1..n {
            let row = &self.a[r * n..r * n + r];
            let s: f64 = row.iter().zip(&x[..r]).map(|(l, y)| l * y).sum();
            x[r] -= s;
        }
        for r in (0..n).rev() {
            let row = &self.a[r * n + r + 1..(r + 1) * n];
            let s: f64 = row.iter().zip(&x[r + 1..]).map(|(u, y)| u * y).sum();
            x[r] = (x[r] - s) / self.a[r * n + r];
        }
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_mul() {
        let i = Mat::identity(3);
        let a = Mat::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        assert_eq!(i.mul(&a), a);
        assert_eq!(a.mul(&i), a);
    }

    #[test]
    fn solve_known_system() {
        // [2 1; 1 3] x = [3; 5] -> x = [4/5, 7/5]
        let mut a = Mat::zeros(2, 2);
        a[(0, 0)] = 2.0;
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        a[(1, 1)] = 3.0;
        let x = a.solve(&[3.0, 5.0]);
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn solve_needs_pivoting() {
        // Zero on the diagonal forces a pivot swap.
        let mut a = Mat::zeros(2, 2);
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        let x = a.solve(&[2.0, 3.0]);
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn inverse_roundtrip() {
        let a = Mat::from_fn(4, 4, |i, j| {
            if i == j {
                4.0
            } else {
                1.0 / (1.0 + (i + 2 * j) as f64)
            }
        });
        let inv = a.inverse();
        let prod = a.mul(&inv);
        let err = prod.sub(&Mat::identity(4)).max_abs();
        assert!(err < 1e-10, "err {err}");
    }

    #[test]
    fn vec_mul_matches_mul() {
        let a = Mat::from_fn(3, 4, |i, j| (i + j) as f64);
        let v = [1.0, 2.0, 3.0];
        let got = a.vec_mul(&v);
        for j in 0..4 {
            let want: f64 = (0..3).map(|i| v[i] * a[(i, j)]).sum();
            assert!((got[j] - want).abs() < 1e-12);
        }
    }

    #[test]
    fn solve_left_is_transpose_solve() {
        let a = Mat::from_fn(3, 3, |i, j| if i == j { 3.0 } else { 0.5 });
        let b = [1.0, 2.0, 3.0];
        let x = a.solve_left(&b);
        let back = a.vec_mul(&x);
        for (g, w) in back.iter().zip(b.iter()) {
            assert!((g - w).abs() < 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn singular_panics() {
        let a = Mat::zeros(2, 2);
        a.solve(&[1.0, 1.0]);
    }

    #[test]
    fn transpose_diag_scale() {
        let d = Mat::diag(&[1.0, 2.0]);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d.transpose(), d);
        assert_eq!(d.scale(2.0)[(1, 1)], 4.0);
        assert_eq!(d.add(&d)[(0, 0)], 2.0);
        assert_eq!(d.sub(&d).max_abs(), 0.0);
    }
}
