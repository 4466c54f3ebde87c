//! Linear support vector machine: the Sound Detection pipeline's
//! second kernel (audio genre classification over log-mel features).
//!
//! Inference is a dense dot product per class; training uses the
//! Pegasos stochastic sub-gradient method, which is plenty to produce a
//! working classifier for the end-to-end examples.

/// A trained multi-class (one-vs-rest) linear SVM.
#[derive(Debug, Clone)]
pub struct LinearSvm {
    weights: Vec<f32>, // classes x dims, row-major
    bias: Vec<f32>,
    dims: usize,
}

impl LinearSvm {
    /// Number of classes.
    pub(crate) fn classes(&self) -> usize {
        self.bias.len()
    }

    /// Per-class decision values for one feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dims`.
    pub(crate) fn decision(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.dims, "feature size mismatch");
        (0..self.classes())
            .map(|c| {
                self.weights[c * self.dims..(c + 1) * self.dims]
                    .iter()
                    .zip(x)
                    .map(|(w, v)| w * v)
                    .sum::<f32>()
                    + self.bias[c]
            })
            .collect()
    }

    /// Predicted class index.
    pub fn predict(&self, x: &[f32]) -> usize {
        self.decision(x)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite scores"))
            .expect("at least one class")
            .0
    }

    /// Trains a one-vs-rest linear SVM with Pegasos.
    ///
    /// `data` is `n x dims` row-major, `labels` in `0..classes`.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent shapes or empty input.
    pub fn train(
        data: &[f32],
        labels: &[usize],
        dims: usize,
        classes: usize,
        epochs: usize,
        lambda: f32,
    ) -> LinearSvm {
        assert!(dims > 0 && classes > 0, "dims and classes must be nonzero");
        let n = labels.len();
        assert!(n > 0, "empty training set");
        assert_eq!(data.len(), n * dims, "data shape mismatch");
        let mut weights = vec![0.0f32; classes * dims];
        let mut bias = vec![0.0f32; classes];
        let mut t: f32 = 1.0;
        // Deterministic sweep order is fine for Pegasos on small sets.
        for _ in 0..epochs {
            for (i, &label) in labels.iter().enumerate() {
                let x = &data[i * dims..(i + 1) * dims];
                for c in 0..classes {
                    let y = if label == c { 1.0f32 } else { -1.0 };
                    let w = &mut weights[c * dims..(c + 1) * dims];
                    let margin: f32 = w.iter().zip(x).map(|(w, v)| w * v).sum::<f32>() + bias[c];
                    let eta = 1.0 / (lambda * t);
                    let shrink = 1.0 - eta * lambda;
                    for wv in w.iter_mut() {
                        *wv *= shrink;
                    }
                    if y * margin < 1.0 {
                        for (wv, xv) in w.iter_mut().zip(x) {
                            *wv += eta * y * xv;
                        }
                        bias[c] += eta * y;
                    }
                    t += 1.0;
                }
            }
        }
        LinearSvm {
            weights,
            bias,
            dims,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LinearSvm {
        /// An SVM with explicit weights (`classes x dims`) and biases.
        fn from_weights(weights: Vec<f32>, bias: Vec<f32>, dims: usize) -> LinearSvm {
            assert_eq!(weights.len(), bias.len() * dims, "weight matrix shape");
            LinearSvm {
                weights,
                bias,
                dims,
            }
        }
    }

    /// Two well-separated 2-D blobs.
    fn blobs() -> (Vec<f32>, Vec<usize>) {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..50 {
            let j = (i % 10) as f32 * 0.1;
            data.extend([2.0 + j, 2.0 - j]);
            labels.push(0);
            data.extend([-2.0 - j, -2.0 + j]);
            labels.push(1);
        }
        (data, labels)
    }

    #[test]
    fn trains_separable_blobs() {
        let (data, labels) = blobs();
        let svm = LinearSvm::train(&data, &labels, 2, 2, 20, 0.01);
        let correct = labels
            .iter()
            .enumerate()
            .filter(|(i, &l)| svm.predict(&data[i * 2..(i + 1) * 2]) == l)
            .count();
        assert_eq!(correct, labels.len(), "separable data must classify fully");
    }

    #[test]
    fn decision_is_linear() {
        let svm = LinearSvm::from_weights(vec![1.0, -2.0], vec![0.5], 2);
        let d = svm.decision(&[3.0, 1.0]);
        assert_eq!(d, vec![3.0 - 2.0 + 0.5]);
    }

    #[test]
    fn predict_picks_argmax() {
        let svm = LinearSvm::from_weights(vec![1.0, 0.0, 0.0, 1.0], vec![0.0, 0.0], 2);
        assert_eq!(svm.predict(&[5.0, 1.0]), 0);
        assert_eq!(svm.predict(&[1.0, 5.0]), 1);
    }

    #[test]
    fn three_class_one_vs_rest() {
        // Three blobs at 120-degree separation.
        let mut data = Vec::new();
        let mut labels = Vec::new();
        let centers = [(3.0f32, 0.0f32), (-1.5, 2.6), (-1.5, -2.6)];
        for (c, &(cx, cy)) in centers.iter().enumerate() {
            for i in 0..30 {
                let d = (i % 5) as f32 * 0.05;
                data.extend([cx + d, cy - d]);
                labels.push(c);
            }
        }
        let svm = LinearSvm::train(&data, &labels, 2, 3, 50, 0.1);
        let correct = labels
            .iter()
            .enumerate()
            .filter(|(i, &l)| svm.predict(&data[i * 2..(i + 1) * 2]) == l)
            .count();
        assert!(correct as f32 / labels.len() as f32 > 0.95);
    }

    #[test]
    #[should_panic(expected = "feature size mismatch")]
    fn decision_validates_dims() {
        LinearSvm::from_weights(vec![1.0, 0.0], vec![0.0], 2).decision(&[1.0]);
    }
}
