//! Host CPU configuration and the restructuring cost model.
//!
//! The testbed host is an Intel Xeon Platinum 8260L: 2.4 GHz, 16 cores
//! in use (hyperthreading disabled), AVX-256 (Sec. VI). Restructuring
//! on this CPU is what the Multi-Axl baseline measures; the cost model
//! turns a [`OpProfile`] into *single-core work* plus a *parallelism
//! cap*, which the system simulator feeds into a processor-sharing
//! pool — concurrency effects then emerge rather than being tabulated.

use dmx_restructure::OpProfile;

/// Host CPU parameters.
#[derive(Debug, Clone, Copy)]
pub struct HostCpuConfig {
    /// Usable cores (hyperthreading disabled).
    pub cores: u32,
    /// Core frequency, Hz.
    pub freq_hz: u64,
    /// Vector width in bytes (AVX-256).
    pub vector_bytes: u32,
    /// Effective per-core streaming bandwidth for cache-thrashing
    /// access patterns, bytes/second. Far below the socket peak:
    /// write-allocate traffic, TLB walks and inter-pass evictions all
    /// land on the same core's MLP budget.
    pub per_core_stream_bw: u64,
    /// Fraction of peak vector throughput that restructuring code
    /// reaches (shuffles, lane crossings, mixed-width converts).
    pub vector_efficiency: f64,
    /// Per-invocation software overhead (the ephemeral-thread spawning
    /// the paper observes around MKL-based restructuring), seconds.
    pub launch_overhead_s: f64,
    /// How many cores one restructuring instance can use productively.
    /// Streaming kernels stop scaling early (Fig. 5: memory bound).
    pub per_op_core_cap: f64,
}

impl Default for HostCpuConfig {
    fn default() -> Self {
        HostCpuConfig {
            cores: 16,
            freq_hz: 2_400_000_000,
            vector_bytes: 32,
            per_core_stream_bw: 1_100_000_000,
            vector_efficiency: 0.075,
            launch_overhead_s: 250e-6,
            per_op_core_cap: 6.0,
        }
    }
}

impl HostCpuConfig {
    /// Peak vector operations per second per core (one AVX-256 f32 op
    /// per lane per cycle).
    pub(crate) fn peak_vec_ops_per_sec(&self) -> f64 {
        self.freq_hz as f64 * (self.vector_bytes / 4) as f64
    }

    /// Single-core seconds to execute one restructuring invocation.
    ///
    /// Compute and memory phases are summed, not overlapped: with the
    /// working set thrashing the LLC, loads serialize behind the
    /// in-flight-miss limit and the FP pipe drains between bursts.
    pub fn restructure_core_seconds(&self, profile: &OpProfile) -> f64 {
        let moved = (profile.input_bytes + profile.output_bytes) as f64;
        let total_ops = profile.ops_per_byte * moved;
        let eff = self.vector_efficiency * (1.0 - 0.6 * profile.irregular)
            / (1.0 + profile.branch_per_kb / 25.0);
        let compute = total_ops / (self.peak_vec_ops_per_sec() * eff.max(0.01));
        // Write-allocate and inter-pass evictions roughly double the
        // DRAM traffic of each streaming pass; scattered (irregular)
        // stores waste most of every cache line they allocate.
        let line_waste = 1.0 + 6.0 * profile.irregular;
        let traffic =
            profile.traffic_bytes() as f64 * (profile.stream_passes / 2.0).max(1.0) * line_waste;
        let memory = traffic * 2.0 / self.per_core_stream_bw as f64;
        compute + memory + self.launch_overhead_s
    }

    /// Parallelism cap for one restructuring invocation, in cores.
    pub fn restructure_core_cap(&self, profile: &OpProfile) -> f64 {
        // Irregular kernels scale even worse across threads.
        (self.per_op_core_cap * (1.0 - 0.4 * profile.irregular)).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_profile(mb: u64) -> OpProfile {
        OpProfile {
            name: "stream".into(),
            input_bytes: mb << 20,
            output_bytes: mb << 20,
            scratch_bytes: 0,
            stream_passes: 2.0,
            ops_per_byte: 0.5,
            branch_per_kb: 1.0,
            irregular: 0.0,
        }
    }

    #[test]
    fn default_matches_testbed() {
        let c = HostCpuConfig::default();
        assert_eq!(c.cores, 16);
        assert_eq!(c.freq_hz, 2_400_000_000);
        assert_eq!(c.vector_bytes, 32);
        // AVX-256 = 8 f32 lanes
        assert_eq!(c.peak_vec_ops_per_sec(), 2.4e9 * 8.0);
    }

    #[test]
    fn work_scales_with_size() {
        let c = HostCpuConfig::default();
        let t8 = c.restructure_core_seconds(&stream_profile(8));
        let t16 = c.restructure_core_seconds(&stream_profile(16));
        assert!(t16 > 1.8 * t8 && t16 < 2.2 * t8, "t8={t8} t16={t16}");
    }

    #[test]
    fn branchy_ops_are_slower() {
        let c = HostCpuConfig::default();
        let mut branchy = stream_profile(8);
        branchy.branch_per_kb = 20.0;
        assert!(
            c.restructure_core_seconds(&branchy) > c.restructure_core_seconds(&stream_profile(8))
        );
    }

    #[test]
    fn irregular_ops_scale_worse() {
        let c = HostCpuConfig::default();
        let mut irr = stream_profile(8);
        irr.irregular = 1.0;
        assert!(c.restructure_core_cap(&irr) < c.restructure_core_cap(&stream_profile(8)));
        assert!(c.restructure_core_cap(&irr) >= 1.0);
    }

    #[test]
    fn throughput_is_single_digit_gbps() {
        // The paper's motivating observation: restructuring on a big
        // Xeon still moves only ~1-2 GB/s per instance. The simulator
        // charges an instance `restructure_core_seconds` of work spread
        // over at most `restructure_core_cap` cores, so running alone it
        // moves its bytes in work / cap seconds.
        let c = HostCpuConfig::default();
        let p = stream_profile(8);
        let secs = c.restructure_core_seconds(&p) / c.restructure_core_cap(&p);
        let tp = (p.input_bytes + p.output_bytes) as f64 / secs;
        assert!(
            tp > 0.3e9 && tp < 8e9,
            "restructure throughput {tp} out of plausible range"
        );
    }

    #[test]
    fn overhead_dominates_tiny_ops() {
        let c = HostCpuConfig::default();
        let tiny = OpProfile {
            name: "tiny".into(),
            input_bytes: 1024,
            output_bytes: 1024,
            scratch_bytes: 0,
            stream_passes: 1.0,
            ops_per_byte: 0.1,
            branch_per_kb: 0.5,
            irregular: 0.0,
        };
        let t = c.restructure_core_seconds(&tiny);
        assert!(t >= c.launch_overhead_s);
        assert!(t < 2.0 * c.launch_overhead_s);
    }
}
