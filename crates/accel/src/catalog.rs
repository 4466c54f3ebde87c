//! The accelerator catalog: latency, throughput and energy models for
//! the ten application-kernel accelerators of Table I.
//!
//! The paper implements these on AWS VU9P FPGAs at 250 MHz (hard-IP for
//! the video codec, Vitis HLS for FFT/SVM/AES-GCM/Gzip/regex/hash-join,
//! open-source RTL for the DNNs) and reports a 6.5x geometric-mean
//! speedup over CPU execution (Sec. II.B). Per-kind throughputs and
//! speedups here are calibrated to that aggregate.

use dmx_sim::Time;

/// The application-kernel accelerators of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccelKind {
    /// Video decoder (VT1 hard-IP class).
    VideoDecode,
    /// Object-detection DNN (RTL).
    ObjectDetection,
    /// FFT / STFT (Vitis HLS).
    Fft,
    /// Support vector machine (Vitis HLS).
    Svm,
    /// AES-GCM decryption (Vitis HLS).
    AesGcm,
    /// Regular-expression scanning (Vitis HLS).
    Regex,
    /// Gzip-class decompression (Vitis HLS).
    Gzip,
    /// Database hash join (Vitis HLS).
    HashJoin,
    /// PPO reinforcement-learning policy (RTL).
    Ppo,
    /// BERT-based named-entity recognition (the Fig. 16 third kernel).
    BertNer,
}

impl AccelKind {
    /// All kinds.
    pub const ALL: [AccelKind; 10] = [
        AccelKind::VideoDecode,
        AccelKind::ObjectDetection,
        AccelKind::Fft,
        AccelKind::Svm,
        AccelKind::AesGcm,
        AccelKind::Regex,
        AccelKind::Gzip,
        AccelKind::HashJoin,
        AccelKind::Ppo,
        AccelKind::BertNer,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            AccelKind::VideoDecode => "video-decode",
            AccelKind::ObjectDetection => "object-detection",
            AccelKind::Fft => "fft",
            AccelKind::Svm => "svm",
            AccelKind::AesGcm => "aes-gcm",
            AccelKind::Regex => "regex",
            AccelKind::Gzip => "gzip",
            AccelKind::HashJoin => "hash-join",
            AccelKind::Ppo => "ppo",
            AccelKind::BertNer => "bert-ner",
        }
    }

    /// The timing/energy model for this accelerator.
    pub fn model(self) -> AccelModel {
        // (bytes per cycle at 250 MHz, setup cycles, speedup over CPU,
        //  active watts, idle watts)
        let (bpc, setup, speedup, active_w, idle_w) = match self {
            AccelKind::VideoDecode => (4.0, 20_000, 3.0, 18.0, 6.0),
            AccelKind::ObjectDetection => (1.4, 50_000, 12.0, 35.0, 10.0),
            AccelKind::Fft => (2.8, 10_000, 8.0, 28.0, 8.0),
            AccelKind::Svm => (6.0, 8_000, 5.5, 22.0, 7.0),
            AccelKind::AesGcm => (4.0, 6_000, 9.0, 20.0, 6.0),
            AccelKind::Regex => (6.0, 8_000, 4.0, 24.0, 7.0),
            AccelKind::Gzip => (4.0, 12_000, 5.5, 26.0, 8.0),
            AccelKind::HashJoin => (6.0, 15_000, 7.0, 30.0, 9.0),
            AccelKind::Ppo => (1.6, 30_000, 10.0, 32.0, 10.0),
            AccelKind::BertNer => (0.5, 80_000, 15.0, 40.0, 12.0),
        };
        AccelModel {
            kind: self,
            bytes_per_cycle: bpc,
            setup_cycles: setup,
            clock_hz: 250_000_000,
            cpu_speedup: speedup,
            active_watts: active_w,
            idle_watts: idle_w,
        }
    }
}

/// Latency/energy model of one accelerator card.
#[derive(Debug, Clone, Copy)]
pub struct AccelModel {
    /// Which accelerator.
    pub kind: AccelKind,
    /// Streaming throughput in input bytes per cycle.
    pub bytes_per_cycle: f64,
    /// Fixed pipeline fill / configuration cycles per invocation.
    pub setup_cycles: u64,
    /// FPGA clock (250 MHz for every Table I kernel).
    pub clock_hz: u64,
    /// Speedup over running the same kernel on the host CPU
    /// (geomean across the catalog ≈ 6.5x, Sec. II.B).
    pub cpu_speedup: f64,
    /// Power while processing, watts (post-synthesis class numbers).
    pub active_watts: f64,
    /// Power while idle but powered, watts.
    pub idle_watts: f64,
}

impl AccelModel {
    /// Kernel execution latency for `bytes` of input.
    pub fn service_time(&self, bytes: u64) -> Time {
        let cycles = self.setup_cycles + (bytes as f64 / self.bytes_per_cycle).ceil() as u64;
        Time::from_cycles(cycles, self.clock_hz)
    }

    /// The same kernel's latency on the host CPU (the All-CPU
    /// configuration of Fig. 3).
    pub fn cpu_time(&self, bytes: u64) -> Time {
        self.service_time(bytes).scale(self.cpu_speedup)
    }
}

/// Geometric mean of the catalog's CPU speedups.
pub fn catalog_speedup_geomean() -> f64 {
    let logs: f64 = AccelKind::ALL
        .iter()
        .map(|k| k.model().cpu_speedup.ln())
        .sum();
    (logs / AccelKind::ALL.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_geomean_matches_paper() {
        // Sec. II.B: "the geometric mean of per accelerator speedup is 6.5x".
        let g = catalog_speedup_geomean();
        assert!((g - 6.5).abs() < 1.0, "geomean speedup {g} should be ~6.5");
    }

    #[test]
    fn service_time_scales_with_bytes() {
        let m = AccelKind::Fft.model();
        let t1 = m.service_time(1 << 20);
        let t8 = m.service_time(8 << 20);
        let ratio = t8.as_secs_f64() / t1.as_secs_f64();
        assert!(ratio > 6.0 && ratio < 8.5, "ratio {ratio}");
    }

    #[test]
    fn eight_megabytes_lands_in_milliseconds() {
        // Sanity: Table I batches (6-16 MB) take ~1-10 ms per kernel,
        // leaving restructuring to dominate end-to-end time (Fig. 3).
        for kind in AccelKind::ALL {
            if kind == AccelKind::BertNer {
                continue; // deliberately much slower (compute-bound)
            }
            let t = kind.model().service_time(8 << 20);
            assert!(
                t.as_ms_f64() > 0.2 && t.as_ms_f64() < 30.0,
                "{}: {t}",
                kind.name()
            );
        }
    }

    #[test]
    fn bert_is_the_compute_heavy_outlier() {
        let bert = AccelKind::BertNer.model().service_time(1 << 20);
        let regex = AccelKind::Regex.model().service_time(1 << 20);
        assert!(bert.as_secs_f64() > 10.0 * regex.as_secs_f64());
    }

    #[test]
    fn cpu_time_applies_speedup() {
        let m = AccelKind::Svm.model();
        let acc = m.service_time(1 << 20).as_secs_f64();
        let cpu = m.cpu_time(1 << 20).as_secs_f64();
        assert!((cpu / acc - m.cpu_speedup).abs() < 0.01);
    }

    #[test]
    fn video_has_least_speedup() {
        // Sec. VII.A: "the accelerator used for Video Surveillance
        // provides less speedup compared to the other benchmarks".
        let video = AccelKind::VideoDecode.model().cpu_speedup;
        for kind in AccelKind::ALL {
            assert!(kind.model().cpu_speedup >= video);
        }
    }

    #[test]
    fn energy_positive_and_bounded() {
        // The simulator charges a kernel its active power over its busy
        // (service) time.
        for kind in AccelKind::ALL {
            let m = kind.model();
            let e = m.active_watts * m.service_time(8 << 20).as_secs_f64();
            assert!(e > 0.0 && e < 100.0, "{}: {e} J", kind.name());
        }
    }
}
