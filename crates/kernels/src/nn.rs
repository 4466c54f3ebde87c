//! Small neural-network forward passes: functional stand-ins for the
//! paper's DNN kernels — object detection (Video Surveillance), the PPO
//! policy (Brain Stimulation), and the BERT NER head (the Fig. 16
//! three-kernel extension).
//!
//! The accelerator latency models live in `dmx-accel`; these give the
//! examples real tensors flowing end to end with deterministic weights.

/// Rectified linear unit.
pub(crate) fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// A dense layer `y = relu?(W x + b)`.
#[derive(Debug, Clone)]
pub struct Dense {
    weights: Vec<f32>, // out x in, row-major
    bias: Vec<f32>,
    inputs: usize,
    relu: bool,
}

impl Dense {
    /// Creates a layer with deterministic pseudo-random weights derived
    /// from `seed` (scaled like Xavier init).
    pub(crate) fn seeded(inputs: usize, outputs: usize, relu: bool, seed: u64) -> Dense {
        assert!(inputs > 0 && outputs > 0, "empty layer");
        let scale = (2.0 / (inputs + outputs) as f32).sqrt();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // uniform in [-1, 1)
            (state >> 11) as f32 / (1u64 << 52) as f32 - 1.0
        };
        let weights = (0..inputs * outputs).map(|_| next() * scale).collect();
        let bias = (0..outputs).map(|_| next() * 0.01).collect();
        Dense {
            weights,
            bias,
            inputs,
            relu,
        }
    }

    /// Output dimensionality.
    pub(crate) fn outputs(&self) -> usize {
        self.bias.len()
    }

    /// Forward pass for one vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != inputs`.
    pub(crate) fn forward(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.inputs, "input size mismatch");
        (0..self.outputs())
            .map(|o| {
                let dot: f32 = self.weights[o * self.inputs..(o + 1) * self.inputs]
                    .iter()
                    .zip(x)
                    .map(|(w, v)| w * v)
                    .sum();
                let y = dot + self.bias[o];
                if self.relu {
                    relu(y)
                } else {
                    y
                }
            })
            .collect()
    }
}

/// A multi-layer perceptron.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Builds an MLP with the given layer sizes (ReLU between layers,
    /// linear output), weights derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn seeded(sizes: &[usize], seed: u64) -> Mlp {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let layers = sizes
            .windows(2)
            .enumerate()
            .map(|(i, w)| Dense::seeded(w[0], w[1], i + 2 < sizes.len(), seed + i as u64))
            .collect();
        Mlp { layers }
    }

    /// Forward pass.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut v = x.to_vec();
        for layer in &self.layers {
            v = layer.forward(&v);
        }
        v
    }
}

/// A detection: grid cell plus confidence (the object-detection
/// stand-in emits one score per cell and thresholds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Cell x index.
    pub cx: usize,
    /// Cell y index.
    pub cy: usize,
    /// Confidence in `[0, 1]`.
    pub score: f32,
}

/// Grid-based object detector stand-in: splits a `width x height` luma
/// plane into `grid x grid` cells, featurizes each cell (mean, max,
/// edge energy), and scores it with an MLP. Returns cells above
/// `threshold`.
#[derive(Debug, Clone)]
pub struct GridDetector {
    mlp: Mlp,
    grid: usize,
}

impl GridDetector {
    /// Creates a detector with a `grid x grid` output map.
    pub fn new(grid: usize, seed: u64) -> GridDetector {
        assert!(grid > 0, "grid must be nonzero");
        GridDetector {
            mlp: Mlp::seeded(&[3, 16, 1], seed),
            grid,
        }
    }

    /// Scores every cell of a luma plane (values already normalized to
    /// `[0,1]`), returning detections above `threshold`.
    ///
    /// # Panics
    ///
    /// Panics if the plane size does not match `width * height`.
    pub fn detect(
        &self,
        luma: &[f32],
        width: usize,
        height: usize,
        threshold: f32,
    ) -> Vec<Detection> {
        assert_eq!(luma.len(), width * height, "plane size mismatch");
        let mut out = Vec::new();
        let cw = width / self.grid;
        let ch = height / self.grid;
        if cw == 0 || ch == 0 {
            return out;
        }
        for cy in 0..self.grid {
            for cx in 0..self.grid {
                let mut sum = 0.0f32;
                let mut maxv = 0.0f32;
                let mut edge = 0.0f32;
                for y in 0..ch {
                    for x in 0..cw {
                        let idx = (cy * ch + y) * width + cx * cw + x;
                        let v = luma[idx];
                        sum += v;
                        maxv = maxv.max(v);
                        if x + 1 < cw {
                            edge += (luma[idx + 1] - v).abs();
                        }
                    }
                }
                let n = (cw * ch) as f32;
                let feats = [sum / n, maxv, edge / n];
                let score = 1.0 / (1.0 + (-self.mlp.forward(&feats)[0]).exp());
                if score >= threshold {
                    out.push(Detection { cx, cy, score });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_forward_shape_and_determinism() {
        let a = Dense::seeded(8, 4, true, 42);
        let b = Dense::seeded(8, 4, true, 42);
        let x = vec![0.5; 8];
        assert_eq!(a.forward(&x), b.forward(&x));
        assert_eq!(a.forward(&x).len(), 4);
    }

    #[test]
    fn relu_layers_are_nonnegative() {
        let l = Dense::seeded(16, 16, true, 7);
        let x: Vec<f32> = (0..16).map(|i| i as f32 - 8.0).collect();
        assert!(l.forward(&x).iter().all(|v| *v >= 0.0));
    }

    #[test]
    fn mlp_macs_counts_all_layers() {
        // 10 inputs through both layers come out as 5.
        let m = Mlp::seeded(&[10, 20, 5], 1);
        assert_eq!(m.forward(&[0.5; 10]).len(), 5);
    }

    #[test]
    fn detector_fires_on_bright_square() {
        let (w, h) = (64, 64);
        let mut plain = vec![0.3f32; w * h];
        let det = GridDetector::new(4, 99);
        let baseline = det.detect(&plain, w, h, 0.0);
        // Paint a bright square in cell (2, 1).
        for y in 16..32 {
            for x in 32..48 {
                plain[y * w + x] = 1.0;
            }
        }
        let after = det.detect(&plain, w, h, 0.0);
        let cell = |ds: &[Detection], cx: usize, cy: usize| {
            ds.iter().find(|d| d.cx == cx && d.cy == cy).unwrap().score
        };
        // That cell's score must move; which direction depends on the
        // seeded weights, so assert a significant change.
        let delta = (cell(&after, 2, 1) - cell(&baseline, 2, 1)).abs();
        assert!(delta > 1e-3, "score did not react: {delta}");
    }

    #[test]
    fn detector_threshold_filters() {
        let det = GridDetector::new(2, 5);
        let plane = vec![0.5f32; 32 * 32];
        let all = det.detect(&plane, 32, 32, 0.0);
        let none = det.detect(&plane, 32, 32, 1.1);
        assert_eq!(all.len(), 4);
        assert!(none.is_empty());
    }
}
