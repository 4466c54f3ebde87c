//! The five end-to-end cross-domain benchmarks of Table I (plus the
//! Fig. 16 three-kernel extension), as simulation workloads.
//!
//! Each [`Benchmark`] is a chain of accelerator [`Stage`]s with a data
//! restructuring [`Edge`] between consecutive stages. Edges carry
//! *small-scale* `dmx-restructure` op instances: the DRX cost of an
//! edge is measured by actually compiling and executing the op on the
//! DRX functional simulator, then scaling linearly to the full batch
//! (all ops are streaming, so cycles scale with bytes). CPU cost comes
//! from the op profile via `dmx-cpu`'s cost model.

use dmx_accel::AccelKind;
use dmx_drx::{DrxConfig, DrxEnergyModel};
use dmx_restructure::{
    BandPower, DbPivot, OpProfile, RestructureOp, SpectrogramMel, TokenizeGather, VecSum,
    YuvToTensor,
};
use dmx_sim::Time;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// One accelerated kernel in a chain.
#[derive(Debug, Clone, Copy)]
pub struct Stage {
    /// Which accelerator runs it.
    pub kind: AccelKind,
    /// Input batch size in bytes.
    pub input_bytes: u64,
}

/// Scaled DRX execution cost of one edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrxCost {
    /// Restructuring service time on one bump-in-the-wire DRX.
    pub time: Time,
    /// Lane operations (for energy).
    pub lane_ops: f64,
    /// DRX DRAM bytes moved (for energy).
    pub dram_bytes: f64,
    /// Scratchpad bytes moved (for energy).
    pub spad_bytes: f64,
}

impl DrxCost {
    /// Dynamic energy of this cost on `model`: lane operations plus
    /// scratchpad and DRAM traffic. Static power accrues per unit over
    /// the whole run and is charged separately.
    pub fn dynamic_joules(&self, model: &DrxEnergyModel) -> f64 {
        (self.lane_ops * model.pj_per_lane_op
            + self.spad_bytes * model.pj_per_spad_byte
            + self.dram_bytes * model.pj_per_dram_byte)
            * 1e-12
    }
}

/// A data-motion step between two stages.
pub struct Edge {
    /// Small-scale op instances plus the full-scale input bytes each is
    /// responsible for (composite edges list several ops).
    pub ops: Vec<(Box<dyn RestructureOp>, u64)>,
    /// Bytes leaving the upstream accelerator.
    pub bytes_in: u64,
    /// Bytes entering the downstream accelerator.
    pub bytes_out: u64,
    /// Full-scale combined work profile.
    pub profile: OpProfile,
    drx_cache: Mutex<HashMap<DrxConfig, DrxCost>>,
}

impl fmt::Debug for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Edge")
            .field("profile", &self.profile.name)
            .field("bytes_in", &self.bytes_in)
            .field("bytes_out", &self.bytes_out)
            .finish()
    }
}

fn merge_profiles(
    name: &str,
    parts: &[(OpProfile, f64)],
    bytes_in: u64,
    bytes_out: u64,
) -> OpProfile {
    let mut scratch = 0.0f64;
    let mut total_ops = 0.0f64;
    let mut weight = 0.0f64;
    let mut branch = 0.0f64;
    let mut irregular = 0.0f64;
    let mut passes = 0.0f64;
    for (p, scale) in parts {
        let moved = (p.input_bytes + p.output_bytes) as f64 * scale;
        scratch += p.scratch_bytes as f64 * scale;
        total_ops += p.ops_per_byte * moved;
        branch += p.branch_per_kb * moved;
        irregular += p.irregular * moved;
        passes += p.stream_passes * moved;
        weight += moved;
    }
    OpProfile {
        name: name.to_owned(),
        input_bytes: bytes_in,
        output_bytes: bytes_out,
        scratch_bytes: scratch as u64,
        stream_passes: passes / weight,
        ops_per_byte: total_ops / (bytes_in + bytes_out) as f64,
        branch_per_kb: branch / weight,
        irregular: irregular / weight,
    }
}

impl Edge {
    /// Builds an edge from small-scale ops and the full batch sizes.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty.
    pub fn new(
        name: &str,
        ops: Vec<(Box<dyn RestructureOp>, u64)>,
        bytes_in: u64,
        bytes_out: u64,
    ) -> Edge {
        assert!(!ops.is_empty(), "an edge needs at least one op");
        let parts: Vec<(OpProfile, f64)> = ops
            .iter()
            .map(|(op, full)| {
                let p = op.profile();
                let scale = *full as f64 / p.input_bytes as f64;
                (p, scale)
            })
            .collect();
        let profile = merge_profiles(name, &parts, bytes_in, bytes_out);
        Edge {
            ops,
            bytes_in,
            bytes_out,
            profile,
            drx_cache: Mutex::new(HashMap::new()),
        }
    }

    /// Measures (and caches) the edge's DRX cost for a configuration by
    /// compiling and executing each small op and scaling to full size.
    ///
    /// # Panics
    ///
    /// Panics if an op fails to lower or execute — the benchmark suite
    /// is expected to fit every evaluated configuration.
    pub fn drx_cost(&self, config: &DrxConfig) -> DrxCost {
        // The cache memoizes pure measurements, so a lock poisoned by a
        // panicking sibling thread still holds valid entries — recover
        // the guard instead of propagating the panic.
        if let Some(c) = self
            .drx_cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(config)
        {
            return *c;
        }
        let mut total = DrxCost {
            time: Time::ZERO,
            lane_ops: 0.0,
            dram_bytes: 0.0,
            spad_bytes: 0.0,
        };
        for (op, full_bytes) in &self.ops {
            let lowered = op
                .lower(config)
                .unwrap_or_else(|e| panic!("{}: lowering failed: {e}", op.name()));
            // Synthetic input: the byte stream 0, 1, ..., 250, 0, 1, ...
            let n = lowered.input_bytes() as usize;
            let mut input = (0..=250u8).collect::<Vec<u8>>().repeat(n.div_ceil(251));
            input.truncate(n);
            let mut machine = lowered.stage(config, &input);
            let stats = machine
                .run(&lowered.program)
                .unwrap_or_else(|e| panic!("{}: DRX run failed: {e}", op.name()));
            let scale = *full_bytes as f64 / lowered.input_bytes() as f64;
            total.time += stats.time(machine.config()).scale(scale);
            total.lane_ops += stats.lane_ops as f64 * scale;
            total.dram_bytes += stats.dram_bytes as f64 * scale;
            total.spad_bytes += stats.spad_bytes as f64 * scale;
        }
        self.drx_cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(*config, total);
        total
    }
}

/// A cross-domain benchmark: `stages.len()` kernels chained through
/// `stages.len() - 1` restructuring edges.
#[derive(Debug)]
pub struct Benchmark {
    /// Display name.
    pub name: &'static str,
    /// Kernel stages, in order.
    pub stages: Vec<Stage>,
    /// Edges between consecutive stages.
    pub edges: Vec<Edge>,
}

/// Shared handle — benchmarks are built once and reused across system
/// configurations and sweep worker threads (the DRX-cost cache lives
/// inside, behind a mutex, so concurrent runs share measurements).
pub type BenchmarkRef = Arc<Benchmark>;

/// The benchmark identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchmarkId {
    /// Video decode → object detection.
    VideoSurveillance,
    /// FFT → SVM.
    SoundDetection,
    /// FFT → PPO.
    BrainStimulation,
    /// AES decrypt → regex redaction.
    PersonalInfoRedaction,
    /// Gzip decompress → hash join.
    DatabaseHashJoin,
    /// AES → regex → BERT NER (Fig. 16 sensitivity study).
    PirWithNer,
}

impl BenchmarkId {
    /// The five Table I benchmarks.
    pub const FIVE: [BenchmarkId; 5] = [
        BenchmarkId::VideoSurveillance,
        BenchmarkId::SoundDetection,
        BenchmarkId::BrainStimulation,
        BenchmarkId::PersonalInfoRedaction,
        BenchmarkId::DatabaseHashJoin,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BenchmarkId::VideoSurveillance => "Video Surveillance",
            BenchmarkId::SoundDetection => "Sound Detection",
            BenchmarkId::BrainStimulation => "Brain Stimulation",
            BenchmarkId::PersonalInfoRedaction => "Personal Info Redaction",
            BenchmarkId::DatabaseHashJoin => "Database Hash Join",
            BenchmarkId::PirWithNer => "PIR + NER",
        }
    }

    /// Builds the benchmark's stages, edges and batch sizes.
    pub fn build(self) -> BenchmarkRef {
        const MB: u64 = 1 << 20;
        let b = match self {
            BenchmarkId::SoundDetection => {
                // 4 MB audio -> STFT spectra 8.4 MB -> log-mel 424 KB.
                let frames_full: u64 = 4080;
                let frames_small: u64 = 64;
                let op = SpectrogramMel::sound_detection(frames_small);
                let bytes_in = frames_full * 257 * 8;
                let bytes_out = frames_full * 26 * 4;
                Benchmark {
                    name: self.name(),
                    stages: vec![
                        Stage {
                            kind: AccelKind::Fft,
                            input_bytes: 4 * MB,
                        },
                        Stage {
                            kind: AccelKind::Svm,
                            input_bytes: bytes_out,
                        },
                    ],
                    edges: vec![Edge::new(
                        "spectrogram+mel",
                        vec![(Box::new(op), bytes_in)],
                        bytes_in,
                        bytes_out,
                    )],
                }
            }
            BenchmarkId::VideoSurveillance => {
                // 4 MB bitstream -> 8 MB YUV frames -> 16 MB i8 tensor.
                let (w, h) = (160u64, 96u64);
                let _frame_bytes = w * h * 3 / 2;
                let bytes_in = 8 * MB;
                let bytes_out = 16 * MB;
                let quant = dmx_restructure::QuantizeTensor {
                    elems: 3 * w * h,
                    scale: 64.0,
                };
                Benchmark {
                    name: self.name(),
                    stages: vec![
                        Stage {
                            kind: AccelKind::VideoDecode,
                            input_bytes: 4 * MB,
                        },
                        Stage {
                            kind: AccelKind::ObjectDetection,
                            input_bytes: bytes_out,
                        },
                    ],
                    edges: vec![Edge::new(
                        "frame->tensor",
                        vec![
                            (Box::new(YuvToTensor::new(w, h)), bytes_in),
                            // The quantize pass runs on the f32 planes.
                            (Box::new(quant), bytes_in * 8),
                        ],
                        bytes_in,
                        bytes_out,
                    )],
                }
            }
            BenchmarkId::BrainStimulation => {
                // 3 MB EM signal -> 6 MB spectra -> 366 KB band powers.
                let bins: u64 = 128;
                let bands: u64 = 16;
                let frames_full = 6 * MB / (bins * 8);
                let op = BandPower::new(64, bins, bands, 0.01, -0.5);
                let bytes_in = frames_full * bins * 8;
                let bytes_out = frames_full * bands * 4;
                Benchmark {
                    name: self.name(),
                    stages: vec![
                        Stage {
                            kind: AccelKind::Fft,
                            input_bytes: 3 * MB,
                        },
                        Stage {
                            kind: AccelKind::Ppo,
                            input_bytes: bytes_out,
                        },
                    ],
                    edges: vec![Edge::new(
                        "band-power",
                        vec![(Box::new(op), bytes_in)],
                        bytes_in,
                        bytes_out,
                    )],
                }
            }
            BenchmarkId::PersonalInfoRedaction => {
                // 6 MB ciphertext -> 6 MB text -> 24.4 MB framed records.
                let bytes_in = 6 * MB;
                let op = TokenizeGather::new(128, 128);
                let bytes_out = bytes_in / 126 * 128 * 4;
                Benchmark {
                    name: self.name(),
                    stages: vec![
                        Stage {
                            kind: AccelKind::AesGcm,
                            input_bytes: bytes_in,
                        },
                        Stage {
                            kind: AccelKind::Regex,
                            input_bytes: bytes_out,
                        },
                    ],
                    edges: vec![Edge::new(
                        "record framing",
                        vec![(Box::new(op), bytes_in)],
                        bytes_in,
                        bytes_out,
                    )],
                }
            }
            BenchmarkId::DatabaseHashJoin => {
                // 6 MB compressed -> 16 MB rows -> 16 MB columns with
                // native endianness. (Hash partitioning across multiple
                // join units — `HashPartition` — is exercised by the
                // collective/ablation studies, not this 1-join chain.)
                let bytes_in = 16 * MB;
                let cols = 8u64;
                let rows_small = 4096u64;
                let pivot = DbPivot::new(rows_small, cols);
                Benchmark {
                    name: self.name(),
                    stages: vec![
                        Stage {
                            kind: AccelKind::Gzip,
                            input_bytes: 6 * MB,
                        },
                        Stage {
                            kind: AccelKind::HashJoin,
                            input_bytes: bytes_in,
                        },
                    ],
                    edges: vec![Edge::new(
                        "row->column pivot",
                        vec![(Box::new(pivot), bytes_in)],
                        bytes_in,
                        bytes_in,
                    )],
                }
            }
            BenchmarkId::PirWithNer => {
                let bytes_text = 6 * MB;
                let framed = bytes_text / 126 * 128 * 4;
                let frame_op = TokenizeGather::new(128, 128);
                let tok_op = TokenizeGather::new(128, 128);
                Benchmark {
                    name: self.name(),
                    stages: vec![
                        Stage {
                            kind: AccelKind::AesGcm,
                            input_bytes: bytes_text,
                        },
                        Stage {
                            kind: AccelKind::Regex,
                            input_bytes: framed,
                        },
                        Stage {
                            kind: AccelKind::BertNer,
                            input_bytes: framed,
                        },
                    ],
                    edges: vec![
                        Edge::new(
                            "record framing",
                            vec![(Box::new(frame_op), bytes_text)],
                            bytes_text,
                            framed,
                        ),
                        // Reshape + typecast into NER token tensors
                        // (Sec. VII.C).
                        Edge::new(
                            "reshape+typecast",
                            vec![(Box::new(tok_op), bytes_text)],
                            framed,
                            framed,
                        ),
                    ],
                }
            }
        };
        Arc::new(b)
    }
}

/// The op used by the Fig. 17 collective experiments: summing two
/// partial vectors (one reduction step of all-reduce).
pub fn collective_sum_op(elems_small: u64) -> VecSum {
    VecSum { elems: elems_small }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_build() {
        for id in BenchmarkId::FIVE {
            let b = id.build();
            assert_eq!(b.edges.len(), b.stages.len() - 1, "{}", b.name);
            for e in &b.edges {
                assert!(e.bytes_in > 0 && e.bytes_out > 0);
            }
        }
        let ner = BenchmarkId::PirWithNer.build();
        assert_eq!(ner.stages.len(), 3);
        assert_eq!(ner.edges.len(), 2);
    }

    #[test]
    fn intermediate_batches_in_paper_band() {
        // Sec. IV.A: "the size of each data batch is between 6-16 MBs".
        for id in BenchmarkId::FIVE {
            let b = id.build();
            for e in &b.edges {
                let mb = e.bytes_in as f64 / (1 << 20) as f64;
                assert!(
                    (5.0..=17.0).contains(&mb),
                    "{}: edge batch {mb} MB outside 6-16 MB",
                    b.name
                );
            }
        }
    }

    #[test]
    fn drx_cost_measured_and_cached() {
        let b = BenchmarkId::SoundDetection.build();
        let cfg = DrxConfig::default();
        let c1 = b.edges[0].drx_cost(&cfg);
        let c2 = b.edges[0].drx_cost(&cfg);
        assert_eq!(c1, c2);
        assert!(c1.time > Time::ZERO);
        assert!(c1.dram_bytes > b.edges[0].bytes_in as f64 * 0.5);
    }

    #[test]
    fn drx_beats_cpu_on_every_edge() {
        let cpu = dmx_cpu::HostCpuConfig::default();
        let cfg = DrxConfig::default();
        for id in BenchmarkId::FIVE {
            let b = id.build();
            for e in &b.edges {
                let cpu_alone =
                    cpu.restructure_core_seconds(&e.profile) / cpu.restructure_core_cap(&e.profile);
                let drx = e.drx_cost(&cfg).time.as_secs_f64();
                assert!(
                    cpu_alone > 2.0 * drx,
                    "{} / {}: CPU {cpu_alone:.6}s vs DRX {drx:.6}s",
                    b.name,
                    e.profile.name
                );
            }
        }
    }

    #[test]
    fn fewer_lanes_cost_more_drx_time() {
        let b = BenchmarkId::SoundDetection.build();
        let t128 = b.edges[0].drx_cost(&DrxConfig::default()).time;
        let t32 = b.edges[0]
            .drx_cost(&DrxConfig::default().with_lanes(32))
            .time;
        assert!(t32 > t128);
    }

    #[test]
    fn profiles_scale_to_full_batches() {
        let b = BenchmarkId::SoundDetection.build();
        let p = &b.edges[0].profile;
        assert_eq!(p.input_bytes, b.edges[0].bytes_in);
        assert_eq!(p.output_bytes, b.edges[0].bytes_out);
        assert!(p.ops_per_byte > 0.5);
    }
}
