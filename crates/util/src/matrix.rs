//! A small row-major `f64` matrix shared by the learning crates.
//!
//! The deep-forest and neural-network crates both consume profile data as
//! dense 2-D arrays (rows = profiled executions, columns = features, or for
//! multi-grain scanning rows = counters, columns = time steps). Keeping one
//! matrix type in the foundation crate avoids conversion churn between them.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Dense row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a flat row-major buffer. Panics if lengths disagree.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Matrix { rows, cols, data }
    }

    /// Build from nested rows. Panics on ragged input.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
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

    /// Borrow a row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow a row mutably.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy a column out.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Copy a column into a reusable buffer (cleared first). The
    /// allocation-free counterpart of [`Matrix::col`] for per-tree loops
    /// that gather every feature column.
    pub fn col_into(&self, c: usize, out: &mut Vec<f64>) {
        assert!(c < self.cols);
        out.clear();
        out.extend((0..self.rows).map(|r| self[(r, c)]));
    }

    /// Flat row-major view.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable row-major view.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Append a row. Panics if width disagrees (unless matrix is empty).
    pub fn push_row(&mut self, row: &[f64]) {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        assert_eq!(row.len(), self.cols, "row width mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// New matrix containing the selected rows, in the given order.
    pub fn select_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (i, &r) in idx.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Horizontally concatenate two matrices with equal row counts.
    pub fn hcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "row count mismatch in hcat");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(6) {
            writeln!(f, "  {:?}", &self.row(r)[..self.cols.min(8)])?;
        }
        if self.rows > 6 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let mut m = Matrix::zeros(2, 3);
        m[(0, 0)] = 1.0;
        m[(1, 2)] = 5.0;
        assert_eq!(m.row(0), &[1.0, 0.0, 0.0]);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
        assert_eq!(m.col(2), vec![0.0, 5.0]);
    }

    #[test]
    fn from_rows_and_push() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        m.push_row(&[5.0, 6.0]);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.row(2), &[5.0, 6.0]);
    }

    #[test]
    #[should_panic]
    fn ragged_rows_panic() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn select_rows_orders() {
        let m = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]);
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.row(0), &[2.0]);
        assert_eq!(s.row(1), &[0.0]);
    }

    #[test]
    fn hcat_widths() {
        let a = Matrix::from_rows(&[vec![1.0], vec![2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]);
        let c = a.hcat(&b);
        assert_eq!(c.cols(), 3);
        assert_eq!(c.row(1), &[2.0, 5.0, 6.0]);
    }

    #[test]
    fn col_into_matches_col() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let mut buf = vec![9.0; 8];
        m.col_into(1, &mut buf);
        assert_eq!(buf, m.col(1));
    }

    #[test]
    fn push_row_into_empty_sets_width() {
        let mut m = Matrix::zeros(0, 0);
        m.push_row(&[1.0, 2.0, 3.0]);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.rows(), 1);
    }
}
