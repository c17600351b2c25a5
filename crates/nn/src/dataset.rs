//! Labelled datasets for classification training.

use nrpm_linalg::Matrix;
use rand::seq::SliceRandom;
use rand::Rng;

/// A classification dataset: one input row per sample plus integer labels.
#[derive(Debug, Clone)]
pub struct Dataset {
    inputs: Matrix,
    labels: Vec<usize>,
    num_classes: usize,
}

impl Dataset {
    /// Creates a dataset. Fails if shapes disagree or a label is out of
    /// range.
    pub fn new(inputs: Matrix, labels: Vec<usize>, num_classes: usize) -> Result<Self, String> {
        if inputs.rows() != labels.len() {
            return Err(format!(
                "{} input rows but {} labels",
                inputs.rows(),
                labels.len()
            ));
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= num_classes) {
            return Err(format!(
                "label {bad} out of range (num_classes = {num_classes})"
            ));
        }
        if !inputs.all_finite() {
            return Err("inputs contain NaN or infinite values".to_string());
        }
        Ok(Dataset {
            inputs,
            labels,
            num_classes,
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Input feature dimension.
    pub fn num_features(&self) -> usize {
        self.inputs.cols()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The input matrix (samples × features).
    pub fn inputs(&self) -> &Matrix {
        &self.inputs
    }

    /// Mutable inputs, bypassing the finiteness check of [`Self::new`];
    /// tests use it to corrupt a row.
    #[cfg(test)]
    pub(crate) fn inputs_mut(&mut self) -> &mut Matrix {
        &mut self.inputs
    }

    /// The labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Feature row of sample `i`.
    pub fn sample(&self, i: usize) -> (&[f64], usize) {
        (self.inputs.row(i), self.labels[i])
    }

    /// A new dataset containing the samples at `indices`, in order.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let mut inputs = Matrix::zeros(indices.len(), self.num_features());
        let mut labels = Vec::with_capacity(indices.len());
        for (r, &i) in indices.iter().enumerate() {
            inputs.row_mut(r).copy_from_slice(self.inputs.row(i));
            labels.push(self.labels[i]);
        }
        Dataset {
            inputs,
            labels,
            num_classes: self.num_classes,
        }
    }

    /// Returns a shuffled copy of the sample indices.
    pub fn shuffled_indices(&self, rng: &mut impl Rng) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(rng);
        idx
    }

    /// Splits into `(train, validation)` with `validation_fraction` of the
    /// samples (at least one if the dataset is non-empty and the fraction is
    /// positive) going to validation, after shuffling.
    pub fn split(&self, validation_fraction: f64, rng: &mut impl Rng) -> (Dataset, Dataset) {
        let idx = self.shuffled_indices(rng);
        let n_val = if validation_fraction <= 0.0 {
            0
        } else {
            ((self.len() as f64 * validation_fraction).round() as usize).clamp(1, self.len())
        };
        let (val_idx, train_idx) = idx.split_at(n_val);
        (self.subset(train_idx), self.subset(val_idx))
    }

    /// Concatenates two datasets (they must agree on features and classes).
    pub fn concat(&self, other: &Dataset) -> Result<Dataset, String> {
        if self.num_features() != other.num_features() || self.num_classes != other.num_classes {
            return Err("datasets have incompatible shapes".to_string());
        }
        let inputs = self
            .inputs
            .vstack(&other.inputs)
            .map_err(|e| e.to_string())?;
        let mut labels = self.labels.clone();
        labels.extend_from_slice(&other.labels);
        Dataset::new(inputs, labels, self.num_classes)
    }

    /// One-hot encodes the labels of the samples at `indices` into a
    /// `indices.len() x num_classes` matrix.
    pub fn one_hot(&self, indices: &[usize]) -> Matrix {
        let mut y = Matrix::zeros(indices.len(), self.num_classes);
        self.one_hot_into(indices, &mut y);
        y
    }

    /// Like [`Dataset::one_hot`], but fills a caller-owned matrix (resized
    /// in place) so the training loop reuses one buffer across batches.
    pub fn one_hot_into(&self, indices: &[usize], y: &mut Matrix) {
        y.resize(indices.len(), self.num_classes);
        y.fill_zero();
        for (r, &i) in indices.iter().enumerate() {
            y[(r, self.labels[i])] = 1.0;
        }
    }

    /// Gathers the input rows at `indices` into a dense batch matrix.
    pub fn gather(&self, indices: &[usize]) -> Matrix {
        let mut x = Matrix::zeros(indices.len(), self.num_features());
        self.gather_into(indices, &mut x);
        x
    }

    /// Like [`Dataset::gather`], but fills a caller-owned matrix (resized
    /// in place) so the training loop reuses one buffer across batches.
    pub fn gather_into(&self, indices: &[usize], x: &mut Matrix) {
        x.resize(indices.len(), self.num_features());
        for (r, &i) in indices.iter().enumerate() {
            x.row_mut(r).copy_from_slice(self.inputs.row(i));
        }
    }

    /// Per-class sample counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> Dataset {
        let inputs = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0], &[2.0, 2.0], &[3.0, 1.0]]);
        Dataset::new(inputs, vec![0, 1, 0, 1], 2).unwrap()
    }

    #[test]
    fn construction_validates_shapes_and_labels() {
        let inputs = Matrix::zeros(2, 3);
        assert!(Dataset::new(inputs.clone(), vec![0], 2).is_err());
        assert!(Dataset::new(inputs.clone(), vec![0, 5], 2).is_err());
        let mut bad = inputs.clone();
        bad[(0, 0)] = f64::NAN;
        assert!(Dataset::new(bad, vec![0, 1], 2).is_err());
        assert!(Dataset::new(inputs, vec![0, 1], 2).is_ok());
    }

    #[test]
    fn subset_and_gather_agree() {
        let d = toy();
        let s = d.subset(&[2, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.sample(0), (&[2.0, 2.0][..], 0));
        assert_eq!(s.sample(1), (&[0.0, 1.0][..], 0));
        let g = d.gather(&[2, 0]);
        assert_eq!(g.row(0), &[2.0, 2.0]);
        assert_eq!(g.row(1), &[0.0, 1.0]);
    }

    #[test]
    fn one_hot_sets_exactly_one_entry_per_row() {
        let d = toy();
        let y = d.one_hot(&[0, 1, 3]);
        assert_eq!(y.shape(), (3, 2));
        for r in 0..3 {
            let sum: f64 = y.row(r).iter().sum();
            assert_eq!(sum, 1.0);
        }
        assert_eq!(y[(0, 0)], 1.0);
        assert_eq!(y[(1, 1)], 1.0);
        assert_eq!(y[(2, 1)], 1.0);
    }

    #[test]
    fn split_partitions_all_samples() {
        let d = toy();
        let mut rng = StdRng::seed_from_u64(1);
        let (train, val) = d.split(0.25, &mut rng);
        assert_eq!(train.len() + val.len(), d.len());
        assert_eq!(val.len(), 1);
        // zero fraction keeps everything in train
        let (train, val) = d.split(0.0, &mut rng);
        assert_eq!(train.len(), 4);
        assert_eq!(val.len(), 0);
    }

    #[test]
    fn shuffled_indices_are_a_permutation() {
        let d = toy();
        let mut rng = StdRng::seed_from_u64(99);
        let mut idx = d.shuffled_indices(&mut rng);
        idx.sort();
        assert_eq!(idx, vec![0, 1, 2, 3]);
    }

    #[test]
    fn concat_appends_samples() {
        let d = toy();
        let e = d.subset(&[0]);
        let c = d.concat(&e).unwrap();
        assert_eq!(c.len(), 5);
        assert_eq!(c.sample(4), (&[0.0, 1.0][..], 0));
        // incompatible class count
        let inputs = Matrix::zeros(1, 2);
        let other = Dataset::new(inputs, vec![0], 3).unwrap();
        assert!(d.concat(&other).is_err());
    }

    #[test]
    fn class_counts_tally_labels() {
        let d = toy();
        assert_eq!(d.class_counts(), vec![2, 2]);
    }
}
