//! Labelled dataset: features + class labels + class index helpers.
//!
//! Historically binary-only; now k-class capable. [`Dataset::new`] keeps
//! the paper's binary contract (labels in `{0, 1}`, `n_classes = 2`) so
//! every existing call site behaves bit-identically, while
//! [`Dataset::multiclass`] admits dense class ids `0..k`.

use crate::matrix::Matrix;
use crate::{NEGATIVE, POSITIVE};

/// A classification dataset.
///
/// Labels are `u8` class ids in `0..n_classes`. The binary case follows
/// the paper's convention: `1` = minority / positive, `0` = majority /
/// negative.
#[derive(Clone, Debug)]
pub struct Dataset {
    x: Matrix,
    y: Vec<u8>,
    n_classes: usize,
}

impl Dataset {
    /// Wraps a feature matrix and a *binary* label vector
    /// (`n_classes = 2`).
    ///
    /// # Panics
    /// Panics if lengths disagree or a label is not 0/1.
    pub fn new(x: Matrix, y: Vec<u8>) -> Self {
        assert_eq!(x.rows(), y.len(), "feature/label length mismatch");
        assert!(
            y.iter().all(|&l| l == POSITIVE || l == NEGATIVE),
            "labels must be 0 or 1"
        );
        Self { x, y, n_classes: 2 }
    }

    /// Wraps a feature matrix and a k-class label vector of dense class
    /// ids `0..n_classes` (use [`crate::ClassIndex::from_labels`] to map
    /// raw labels down to ids first). `n_classes = 2` is exactly
    /// [`Dataset::new`].
    ///
    /// # Panics
    /// Panics if lengths disagree, `n_classes < 2`, `n_classes > 256`,
    /// or a label is `>= n_classes`.
    pub fn multiclass(x: Matrix, y: Vec<u8>, n_classes: usize) -> Self {
        assert_eq!(x.rows(), y.len(), "feature/label length mismatch");
        assert!(
            (2..=256).contains(&n_classes),
            "n_classes must be in 2..=256, got {n_classes}"
        );
        assert!(
            y.iter().all(|&l| (l as usize) < n_classes),
            "labels must be class ids below n_classes ({n_classes})"
        );
        Self { x, y, n_classes }
    }

    /// Feature matrix.
    #[inline]
    pub fn x(&self) -> &Matrix {
        &self.x
    }

    /// Mutable feature matrix (used by missing-value injection).
    #[inline]
    pub fn x_mut(&mut self) -> &mut Matrix {
        &mut self.x
    }

    /// Label vector (dense class ids).
    #[inline]
    pub fn y(&self) -> &[u8] {
        &self.y
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when the dataset has no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Number of features.
    #[inline]
    pub fn n_features(&self) -> usize {
        self.x.cols()
    }

    /// Number of classes `k` this dataset is declared over (2 for every
    /// dataset built with [`Dataset::new`]).
    #[inline]
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Samples per class id (length [`Self::n_classes`]; classes with no
    /// samples report 0).
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes];
        for &l in &self.y {
            counts[l as usize] += 1;
        }
        counts
    }

    /// Row indices of each class, grouped by class id (length
    /// [`Self::n_classes`]).
    pub fn per_class_indices(&self) -> Vec<Vec<usize>> {
        let mut idx = vec![Vec::new(); self.n_classes];
        for (i, &l) in self.y.iter().enumerate() {
            idx[l as usize].push(i);
        }
        idx
    }

    /// Minority/majority row indices (binary convention: class 1 is the
    /// minority).
    pub fn class_index(&self) -> BinaryIndex {
        BinaryIndex::of_labels(&self.y)
    }

    /// Number of positive (minority) samples.
    pub fn n_positive(&self) -> usize {
        self.y.iter().filter(|&&l| l == POSITIVE).count()
    }

    /// Number of negative (majority) samples.
    pub fn n_negative(&self) -> usize {
        self.len() - self.n_positive()
    }

    /// Imbalance ratio |N| / |P| as defined in the paper (§II).
    ///
    /// Returns `f64::INFINITY` when there are no positive samples.
    pub fn imbalance_ratio(&self) -> f64 {
        let p = self.n_positive();
        if p == 0 {
            f64::INFINITY
        } else {
            self.n_negative() as f64 / p as f64
        }
    }

    /// Gathers a subset by sample index (indices may repeat). Keeps the
    /// declared class count.
    pub fn select(&self, indices: &[usize]) -> Dataset {
        let x = self.x.select_rows(indices);
        let y = indices.iter().map(|&i| self.y[i]).collect();
        Dataset {
            x,
            y,
            n_classes: self.n_classes,
        }
    }

    /// Concatenates two datasets (self first). The result spans the
    /// wider of the two class counts.
    pub fn concat(&self, other: &Dataset) -> Dataset {
        let x = self.x.vstack(&other.x);
        let mut y = self.y.clone();
        y.extend_from_slice(&other.y);
        Dataset {
            x,
            y,
            n_classes: self.n_classes.max(other.n_classes),
        }
    }

    /// Splits into (minority subset, majority subset) — binary view.
    pub fn split_classes(&self) -> (Dataset, Dataset) {
        let idx = self.class_index();
        (self.select(&idx.minority), self.select(&idx.majority))
    }

    /// Same rows and class count with a replaced feature matrix (used by
    /// sanitization repairs, which never touch labels).
    ///
    /// # Panics
    /// Panics when `x.rows()` disagrees with the label count.
    pub fn with_x(&self, x: Matrix) -> Dataset {
        assert_eq!(x.rows(), self.y.len(), "feature/label length mismatch");
        Dataset {
            x,
            y: self.y.clone(),
            n_classes: self.n_classes,
        }
    }
}

/// Minority/majority row-index lists for a [`Dataset`] — the binary
/// special case the paper's Algorithm 1 consumes. (K-way grouping lives
/// in [`Dataset::per_class_indices`].)
#[derive(Clone, Debug, Default)]
pub struct BinaryIndex {
    /// Indices of positive (minority) samples.
    pub minority: Vec<usize>,
    /// Indices of negative (majority) samples.
    pub majority: Vec<usize>,
}

impl BinaryIndex {
    /// Splits row ids by binary label: class 1 rows are the minority,
    /// every other label the majority.
    pub fn of_labels(y: &[u8]) -> Self {
        let mut minority = Vec::new();
        let mut majority = Vec::new();
        for (i, &l) in y.iter().enumerate() {
            if l == POSITIVE {
                minority.push(i);
            } else {
                majority.push(i);
            }
        }
        Self { minority, majority }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let x = Matrix::from_vec(5, 2, vec![0., 0., 1., 1., 2., 2., 3., 3., 4., 4.]);
        Dataset::new(x, vec![1, 0, 0, 0, 1])
    }

    #[test]
    fn class_counts() {
        let d = toy();
        assert_eq!(d.n_positive(), 2);
        assert_eq!(d.n_negative(), 3);
        assert_eq!(d.imbalance_ratio(), 1.5);
        assert_eq!(d.n_classes(), 2);
        assert_eq!(d.class_counts(), vec![3, 2]);
    }

    #[test]
    fn class_index_partitions() {
        let idx = toy().class_index();
        assert_eq!(idx.minority, vec![0, 4]);
        assert_eq!(idx.majority, vec![1, 2, 3]);
    }

    #[test]
    fn select_gathers_rows_and_labels() {
        let d = toy();
        let s = d.select(&[4, 0]);
        assert_eq!(s.y(), &[1, 1]);
        assert_eq!(s.x().row(0), &[4.0, 4.0]);
        assert_eq!(s.n_classes(), 2);
    }

    #[test]
    fn concat_appends() {
        let d = toy();
        let c = d.concat(&d);
        assert_eq!(c.len(), 10);
        assert_eq!(c.n_positive(), 4);
    }

    #[test]
    fn split_classes_partitions() {
        let (p, n) = toy().split_classes();
        assert_eq!(p.len(), 2);
        assert!(p.y().iter().all(|&l| l == 1));
        assert_eq!(n.len(), 3);
        assert!(n.y().iter().all(|&l| l == 0));
    }

    #[test]
    fn infinite_ir_without_positives() {
        let x = Matrix::zeros(2, 1);
        let d = Dataset::new(x, vec![0, 0]);
        assert!(d.imbalance_ratio().is_infinite());
    }

    #[test]
    #[should_panic(expected = "labels must be 0 or 1")]
    fn rejects_bad_labels() {
        let _ = Dataset::new(Matrix::zeros(1, 1), vec![2]);
    }

    #[test]
    fn multiclass_counts_and_indices() {
        let x = Matrix::zeros(6, 1);
        let d = Dataset::multiclass(x, vec![0, 2, 1, 2, 2, 0], 3);
        assert_eq!(d.n_classes(), 3);
        assert_eq!(d.class_counts(), vec![2, 1, 3]);
        assert_eq!(
            d.per_class_indices(),
            vec![vec![0, 5], vec![2], vec![1, 3, 4]]
        );
        // Select/concat preserve the declared class count.
        assert_eq!(d.select(&[1, 2]).n_classes(), 3);
        assert_eq!(d.concat(&d).n_classes(), 3);
        let binary = Dataset::new(Matrix::zeros(2, 1), vec![0, 1]);
        assert_eq!(binary.concat(&d).n_classes(), 3);
    }

    #[test]
    #[should_panic(expected = "below n_classes")]
    fn multiclass_rejects_out_of_range_ids() {
        let _ = Dataset::multiclass(Matrix::zeros(1, 1), vec![3], 3);
    }

    #[test]
    #[should_panic(expected = "n_classes must be in 2..=256")]
    fn multiclass_rejects_degenerate_k() {
        let _ = Dataset::multiclass(Matrix::zeros(1, 1), vec![0], 1);
    }
}
