//! Radix-2 FFT and short-time Fourier transform (the Sound Detection
//! and Brain Stimulation pipelines' first kernel).

use std::f32::consts::PI;

/// A complex number in single precision.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f32,
    /// Imaginary part.
    pub im: f32,
}

impl Complex {
    /// Creates a complex number.
    pub(crate) fn new(re: f32, im: f32) -> Complex {
        Complex { re, im }
    }

    /// Squared magnitude `re² + im²`.
    pub fn norm_sq(self) -> f32 {
        self.re * self.re + self.im * self.im
    }

    fn mul(self, other: Complex) -> Complex {
        Complex {
            re: self.re * other.re - self.im * other.im,
            im: self.re * other.im + self.im * other.re,
        }
    }

    fn add(self, other: Complex) -> Complex {
        Complex {
            re: self.re + other.re,
            im: self.im + other.im,
        }
    }

    fn sub(self, other: Complex) -> Complex {
        Complex {
            re: self.re - other.re,
            im: self.im - other.im,
        }
    }
}

/// In-place iterative radix-2 Cooley–Tukey FFT.
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub(crate) fn fft_in_place(data: &mut [Complex]) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if i < j {
            data.swap(i, j);
        }
    }
    // Butterflies.
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * PI / len as f32;
        let wlen = Complex::new(ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let mut w = Complex::new(1.0, 0.0);
            for j in 0..len / 2 {
                let u = data[i + j];
                let v = data[i + j + len / 2].mul(w);
                data[i + j] = u.add(v);
                data[i + j + len / 2] = u.sub(v);
                w = w.mul(wlen);
            }
            i += len;
        }
        len <<= 1;
    }
}

/// FFT of a real signal, returning the full complex spectrum.
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn fft_real(signal: &[f32]) -> Vec<Complex> {
    let mut buf: Vec<Complex> = signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
    fft_in_place(&mut buf);
    buf
}

/// Hann window of length `n`.
pub(crate) fn hann_window(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| 0.5 * (1.0 - (2.0 * PI * i as f32 / n as f32).cos()))
        .collect()
}

/// Short-time Fourier transform: windows of `frame` samples every `hop`
/// samples, Hann-windowed, one FFT per frame. Returns `frames x (frame/2+1)`
/// one-sided complex spectra, flattened row-major.
///
/// This is exactly the output format the Sound Detection restructuring
/// step converts into a mel spectrogram.
///
/// # Panics
///
/// Panics if `frame` is not a power of two or `hop` is zero.
pub fn stft(signal: &[f32], frame: usize, hop: usize) -> (Vec<Complex>, usize, usize) {
    assert!(frame.is_power_of_two(), "frame must be a power of two");
    assert!(hop > 0, "hop must be positive");
    let window = hann_window(frame);
    let bins = frame / 2 + 1;
    let n_frames = if signal.len() < frame {
        0
    } else {
        (signal.len() - frame) / hop + 1
    };
    let mut out = Vec::with_capacity(n_frames * bins);
    let mut buf = vec![Complex::default(); frame];
    for f in 0..n_frames {
        let start = f * hop;
        for (i, b) in buf.iter_mut().enumerate() {
            *b = Complex::new(signal[start + i] * window[i], 0.0);
        }
        fft_in_place(&mut buf);
        out.extend_from_slice(&buf[..bins]);
    }
    (out, n_frames, bins)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive O(n²) DFT, the oracle the FFT is checked against.
    fn dft_naive(signal: &[f32]) -> Vec<Complex> {
        let n = signal.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::default();
                for (t, &x) in signal.iter().enumerate() {
                    let ang = -2.0 * PI * (k * t) as f32 / n as f32;
                    acc = acc.add(Complex::new(x * ang.cos(), x * ang.sin()));
                }
                acc
            })
            .collect()
    }

    /// Inverse FFT, in place: recovers the time-domain signal from a
    /// full complex spectrum (conjugate → forward FFT → conjugate →
    /// scale).
    fn ifft_in_place(data: &mut [Complex]) {
        let n = data.len();
        for c in data.iter_mut() {
            c.im = -c.im;
        }
        fft_in_place(data);
        let scale = 1.0 / n as f32;
        for c in data.iter_mut() {
            c.re *= scale;
            c.im = -c.im * scale;
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut signal = vec![0.0f32; 64];
        signal[0] = 1.0;
        let spec = fft_real(&signal);
        for c in &spec {
            assert!((c.re - 1.0).abs() < 1e-5);
            assert!(c.im.abs() < 1e-5);
        }
    }

    #[test]
    fn matches_naive_dft() {
        let signal: Vec<f32> = (0..32).map(|i| ((i * 7) % 13) as f32 - 6.0).collect();
        let fast = fft_real(&signal);
        let slow = dft_naive(&signal);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a.re - b.re).abs() < 1e-3, "{} vs {}", a.re, b.re);
            assert!((a.im - b.im).abs() < 1e-3);
        }
    }

    #[test]
    fn pure_tone_peaks_at_its_bin() {
        let n = 256;
        let k = 19;
        let signal: Vec<f32> = (0..n)
            .map(|i| (2.0 * PI * k as f32 * i as f32 / n as f32).sin())
            .collect();
        let spec = fft_real(&signal);
        let mags: Vec<f32> = spec.iter().take(n / 2).map(|c| c.norm_sq()).collect();
        let peak = mags
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, k);
    }

    #[test]
    fn parseval_energy_conserved() {
        let signal: Vec<f32> = (0..128).map(|i| (i as f32 * 0.37).sin()).collect();
        let time_energy: f32 = signal.iter().map(|x| x * x).sum();
        let spec = fft_real(&signal);
        let freq_energy: f32 = spec.iter().map(|c| c.norm_sq()).sum::<f32>() / 128.0;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-4);
    }

    #[test]
    fn ifft_inverts_fft() {
        let signal: Vec<f32> = (0..128).map(|i| ((i * 13) % 29) as f32 - 14.0).collect();
        let mut spec = fft_real(&signal);
        ifft_in_place(&mut spec);
        for (c, &x) in spec.iter().zip(&signal) {
            assert!((c.re - x).abs() < 1e-3, "{} vs {}", c.re, x);
            assert!(c.im.abs() < 1e-3);
        }
    }

    #[test]
    fn ifft_of_flat_spectrum_is_impulse() {
        let mut spec = vec![Complex::new(1.0, 0.0); 64];
        ifft_in_place(&mut spec);
        assert!((spec[0].re - 1.0).abs() < 1e-5);
        for c in &spec[1..] {
            assert!(c.re.abs() < 1e-5);
        }
    }

    #[test]
    fn stft_shape() {
        let signal = vec![0.5f32; 1024];
        let (out, frames, bins) = stft(&signal, 256, 128);
        assert_eq!(bins, 129);
        assert_eq!(frames, (1024 - 256) / 128 + 1);
        assert_eq!(out.len(), frames * bins);
    }

    #[test]
    fn stft_short_signal_is_empty() {
        let (out, frames, _) = stft(&[0.0; 10], 64, 32);
        assert_eq!(frames, 0);
        assert!(out.is_empty());
    }

    #[test]
    fn hann_window_periodic_symmetry_and_bounds() {
        let w = hann_window(128);
        // Periodic Hann: w[i] == w[n - i] for 1 <= i < n.
        for i in 1..128 {
            assert!((w[i] - w[128 - i]).abs() < 1e-5, "i={i}");
        }
        for v in &w {
            assert!((0.0..=1.0).contains(v));
        }
        assert!(w[0].abs() < 1e-6);
        assert!((w[64] - 1.0).abs() < 1e-6);
    }
}
