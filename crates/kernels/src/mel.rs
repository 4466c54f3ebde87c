//! Mel-scale filterbank: the data-restructuring math of the Sound
//! Detection pipeline ("applying mel scale transformation to the
//! spectrogram ... maps the spectrogram into mel-frequency bins which
//! are closer to the human-perceivable scale", Sec. II.A).

/// Converts a frequency in hertz to mels (HTK formula).
pub(crate) fn hz_to_mel(hz: f32) -> f32 {
    2595.0 * (1.0 + hz / 700.0).log10()
}

/// Converts mels back to hertz.
pub(crate) fn mel_to_hz(mel: f32) -> f32 {
    700.0 * (10f32.powf(mel / 2595.0) - 1.0)
}

/// A dense triangular mel filterbank: `bands x bins`, row-major.
///
/// Each row is a triangular filter in FFT-bin space; applying the bank
/// to a power spectrum is a small matrix–vector product — exactly the
/// multiply-accumulate loop the DRX executes with a zero-stride
/// destination.
#[derive(Debug, Clone)]
pub struct MelFilterbank {
    weights: Vec<f32>,
    bands: usize,
    bins: usize,
}

impl MelFilterbank {
    /// Builds a filterbank with `bands` triangular filters over `bins`
    /// one-sided FFT bins for a signal sampled at `sample_rate` Hz.
    ///
    /// # Panics
    ///
    /// Panics if `bands` or `bins` is zero, or `bands + 2 > bins`.
    pub fn new(bands: usize, bins: usize, sample_rate: f32) -> MelFilterbank {
        assert!(bands > 0 && bins > 0, "bands and bins must be nonzero");
        assert!(bands + 2 <= bins, "too many bands for this resolution");
        let nyquist = sample_rate / 2.0;
        let mel_max = hz_to_mel(nyquist);
        // bands + 2 evenly spaced mel points -> bin centers.
        let centers: Vec<f32> = (0..bands + 2)
            .map(|i| {
                let mel = mel_max * i as f32 / (bands + 1) as f32;
                mel_to_hz(mel) / nyquist * (bins - 1) as f32
            })
            .collect();
        let mut weights = vec![0.0f32; bands * bins];
        for b in 0..bands {
            let (lo, mid, hi) = (centers[b], centers[b + 1], centers[b + 2]);
            for k in 0..bins {
                let x = k as f32;
                let w = if x <= lo || x >= hi {
                    0.0
                } else if x <= mid {
                    (x - lo) / (mid - lo).max(1e-6)
                } else {
                    (hi - x) / (hi - mid).max(1e-6)
                };
                weights[b * bins + k] = w;
            }
        }
        MelFilterbank {
            weights,
            bands,
            bins,
        }
    }

    /// The dense `bands x bins` weight matrix, row-major.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Applies the bank to one power spectrum (`bins` values),
    /// producing `bands` mel energies.
    ///
    /// # Panics
    ///
    /// Panics if `power.len() != bins`.
    pub fn apply(&self, power: &[f32]) -> Vec<f32> {
        assert_eq!(power.len(), self.bins, "spectrum size mismatch");
        (0..self.bands)
            .map(|b| {
                self.weights[b * self.bins..(b + 1) * self.bins]
                    .iter()
                    .zip(power)
                    .map(|(w, p)| w * p)
                    .sum()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mel_conversions_invert() {
        for hz in [0.0f32, 100.0, 440.0, 4000.0, 16000.0] {
            let back = mel_to_hz(hz_to_mel(hz));
            assert!((back - hz).abs() < 0.5, "{hz} -> {back}");
        }
    }

    #[test]
    fn mel_scale_is_monotonic() {
        let mut prev = -1.0;
        for i in 0..100 {
            let m = hz_to_mel(i as f32 * 100.0);
            assert!(m > prev);
            prev = m;
        }
    }

    #[test]
    fn filters_are_triangular_and_nonnegative() {
        let fb = MelFilterbank::new(26, 257, 16000.0);
        for w in fb.weights() {
            assert!((0.0..=1.0).contains(w));
        }
        // Every band has some nonzero weight.
        for b in 0..26 {
            let sum: f32 = fb.weights()[b * 257..(b + 1) * 257].iter().sum();
            assert!(sum > 0.0, "band {b} is empty");
        }
    }

    #[test]
    fn apply_flat_spectrum_gives_filter_areas() {
        let fb = MelFilterbank::new(8, 65, 8000.0);
        let flat = vec![1.0f32; 65];
        let out = fb.apply(&flat);
        for (b, v) in out.iter().enumerate() {
            let area: f32 = fb.weights()[b * 65..(b + 1) * 65].iter().sum();
            assert!((v - area).abs() < 1e-4);
        }
    }

    #[test]
    #[should_panic(expected = "spectrum size mismatch")]
    fn apply_checks_size() {
        MelFilterbank::new(8, 65, 8000.0).apply(&[0.0; 64]);
    }
}
