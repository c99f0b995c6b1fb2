//! Synthetic classification dataset for the end-to-end accuracy testbed.
//!
//! The paper measures ImageNet top-1 accuracy, which is not reproducible offline. This
//! dataset is the substitution: a Gaussian-cluster classification task whose accuracy under
//! a trained network responds to weight/activation approximation the same way a real
//! model's accuracy does (monotone degradation as more signal is dropped), giving the
//! TASDER selection algorithms a *true* accuracy metric to respect.

use tasd_tensor::{Matrix, MatrixGenerator};

/// A labelled synthetic classification dataset.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    features: Matrix,
    labels: Vec<usize>,
    num_classes: usize,
}

impl SyntheticDataset {
    /// Generates a dataset of `samples` points in `features` dimensions spread over
    /// `classes` Gaussian clusters with unit within-cluster noise.
    ///
    /// `separation` controls how far apart cluster centres are (≈2.5 gives a task that a
    /// small MLP solves at 90–99 % accuracy, leaving visible headroom for approximation
    /// error to show up).
    pub fn gaussian_clusters(
        samples: usize,
        features: usize,
        classes: usize,
        separation: f32,
        seed: u64,
    ) -> Self {
        assert!(classes >= 2, "need at least two classes");
        assert!(features >= 1 && samples >= classes, "degenerate dataset");
        let mut gen = MatrixGenerator::seeded(seed);
        // Random cluster centres.
        let centers = gen.normal(classes, features, 0.0, separation);
        let mut data = Matrix::zeros(samples, features);
        let mut labels = Vec::with_capacity(samples);
        for i in 0..samples {
            let class = i % classes;
            labels.push(class);
            for j in 0..features {
                data[(i, j)] = centers[(class, j)] + gen.normal_scalar(0.0, 1.0);
            }
        }
        SyntheticDataset {
            features: data,
            labels,
            num_classes: classes,
        }
    }

    /// The feature matrix, one sample per row.
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// The labels, one per sample.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` when the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Feature dimensionality.
    pub fn num_features(&self) -> usize {
        self.features.cols()
    }

    /// Splits into `(train, test)` with the first `train_fraction` of samples (samples are
    /// interleaved by class, so the split is stratified).
    pub fn split(&self, train_fraction: f64) -> (SyntheticDataset, SyntheticDataset) {
        let n_train = ((self.len() as f64) * train_fraction.clamp(0.0, 1.0)).round() as usize;
        let take = |range: std::ops::Range<usize>| -> SyntheticDataset {
            let rows: Vec<Vec<f32>> = range
                .clone()
                .map(|i| self.features.row(i).to_vec())
                .collect();
            SyntheticDataset {
                features: if rows.is_empty() {
                    Matrix::zeros(0, self.num_features())
                } else {
                    Matrix::from_rows(&rows)
                },
                labels: self.labels[range].to_vec(),
                num_classes: self.num_classes,
            }
        };
        (take(0..n_train), take(n_train..self.len()))
    }

    /// A contiguous mini-batch `[start, start+len)` (clamped to the dataset size) as
    /// `(features, labels)`.
    pub fn batch(&self, start: usize, len: usize) -> (Matrix, &[usize]) {
        let end = (start + len).min(self.len());
        let start = start.min(end);
        let rows: Vec<Vec<f32>> = (start..end)
            .map(|i| self.features.row(i).to_vec())
            .collect();
        let feats = if rows.is_empty() {
            Matrix::zeros(0, self.num_features())
        } else {
            Matrix::from_rows(&rows)
        };
        (feats, &self.labels[start..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_shapes_and_labels() {
        let ds = SyntheticDataset::gaussian_clusters(120, 16, 4, 2.0, 1);
        assert_eq!(ds.len(), 120);
        assert_eq!(ds.num_features(), 16);
        assert_eq!(ds.num_classes(), 4);
        assert!(ds.labels().iter().all(|&l| l < 4));
        // Stratified by construction: every class appears.
        for c in 0..4 {
            assert!(ds.labels().iter().filter(|&&l| l == c).count() >= 25);
        }
    }

    #[test]
    fn determinism() {
        let a = SyntheticDataset::gaussian_clusters(50, 8, 3, 2.0, 9);
        let b = SyntheticDataset::gaussian_clusters(50, 8, 3, 2.0, 9);
        assert_eq!(a.features(), b.features());
        assert_eq!(a.labels(), b.labels());
    }

    #[test]
    fn split_fractions() {
        let ds = SyntheticDataset::gaussian_clusters(100, 4, 2, 2.0, 3);
        let (train, test) = ds.split(0.8);
        assert_eq!(train.len(), 80);
        assert_eq!(test.len(), 20);
        assert_eq!(train.num_features(), 4);
    }

    #[test]
    fn clusters_are_separable() {
        // Nearest-centroid classification should already do well at high separation,
        // confirming the task carries signal.
        let ds = SyntheticDataset::gaussian_clusters(400, 16, 4, 3.0, 5);
        let mut centroids = vec![vec![0.0f64; 16]; 4];
        let mut counts = [0usize; 4];
        for i in 0..ds.len() {
            let c = ds.labels()[i];
            counts[c] += 1;
            for (j, slot) in centroids[c].iter_mut().enumerate() {
                *slot += ds.features()[(i, j)] as f64;
            }
        }
        for (centroid, &count) in centroids.iter_mut().zip(&counts) {
            for slot in centroid.iter_mut() {
                *slot /= count as f64;
            }
        }
        let mut correct = 0;
        for i in 0..ds.len() {
            let mut best = 0;
            let mut best_d = f64::INFINITY;
            for (c, cent) in centroids.iter().enumerate() {
                let d: f64 = (0..16)
                    .map(|j| {
                        let diff = ds.features()[(i, j)] as f64 - cent[j];
                        diff * diff
                    })
                    .sum();
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if best == ds.labels()[i] {
                correct += 1;
            }
        }
        let acc = correct as f64 / ds.len() as f64;
        assert!(acc > 0.9, "nearest-centroid accuracy {acc}");
    }

    #[test]
    fn batch_clamps_at_end() {
        let ds = SyntheticDataset::gaussian_clusters(10, 4, 2, 2.0, 3);
        let (feats, labels) = ds.batch(8, 5);
        assert_eq!(feats.rows(), 2);
        assert_eq!(labels.len(), 2);
        let (empty, l2) = ds.batch(20, 5);
        assert_eq!(empty.rows(), 0);
        assert!(l2.is_empty());
    }
}
