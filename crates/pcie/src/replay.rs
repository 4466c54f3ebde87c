//! PCIe link-level error recovery: chunk replay and link retrain.
//!
//! The PCIe data link layer guarantees delivery: every TLP is CRC-
//! protected, and a corrupted packet is NAKed and replayed from the
//! transmitter's replay buffer. DMX moves data in 256 KB chunks
//! (Sec. V's queue-pair granularity), so we model recovery at chunk
//! granularity: a chunk that catches at least one bit error is
//! retransmitted in full, paying the replay-buffer turnaround latency
//! and consuming link bandwidth a second time. A burst of errors on one
//! transfer pushes the link into *retrain* (recovery.speed change in
//! PCIe terms), which temporarily drops its usable bandwidth.
//!
//! All randomness comes from a [`FaultPlan`] keyed by the flow id, so a
//! transfer's fault outcome is a pure function of `(config, seed, flow)`.

use dmx_sim::{FaultPlan, Time};

/// Parameters of the chunk-replay / link-retrain model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayParams {
    /// Transfer chunk size; the unit of replay. DMX's DRX queues move
    /// data in 256 KB chunks.
    pub chunk_bytes: u64,
    /// Latency to detect the CRC error, NAK, and restart from the
    /// replay buffer, per replayed chunk (on top of re-sending the
    /// chunk's bytes).
    pub replay_latency: Time,
    /// Number of replayed chunks within a single transfer that pushes
    /// the link into retrain.
    pub retrain_threshold: u64,
    /// How long a retrain keeps the link degraded.
    pub retrain_time: Time,
    /// Bandwidth multiplier while retraining (PCIe drops to a lower
    /// speed during recovery).
    pub retrain_bw_scale: f64,
}

impl Default for ReplayParams {
    fn default() -> Self {
        ReplayParams {
            chunk_bytes: 256 * 1024,
            // DLLP NAK turnaround plus replay-buffer restart: ~1 us at
            // Gen3 (ack latency ~200 ns, conservative with software-
            // visible effects folded in).
            replay_latency: Time::from_us(1),
            retrain_threshold: 8,
            // Recovery.Speed is specced in the tens of microseconds;
            // observable retrains take longer once software notices.
            retrain_time: Time::from_us(100),
            retrain_bw_scale: 0.5,
        }
    }
}

/// Fault outcome of one transfer, derived deterministically from the
/// plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferFaults {
    /// Chunks that arrived corrupted and were retransmitted.
    pub replays: u64,
    /// Extra bytes the link must carry for the retransmissions.
    pub extra_bytes: u64,
    /// Fixed latency added by replay turnarounds.
    pub extra_latency: Time,
    /// Whether the error burst triggers a link retrain.
    pub retrain: bool,
}

impl TransferFaults {
    /// A clean transfer: nothing replayed.
    pub(crate) fn clean() -> TransferFaults {
        TransferFaults::default()
    }
}

impl ReplayParams {
    /// Probability that one chunk catches at least one bit error under
    /// `plan`. It is fixed for a plan, so a simulation computes it once
    /// and hands it to every [`transfer_faults`] call.
    pub fn chunk_corruption(&self, plan: &FaultPlan) -> f64 {
        plan.chunk_corruption_probability((self.chunk_bytes.max(1) * 8) as f64)
    }
}

/// Computes the fault outcome of moving `bytes` as flow `flow` under
/// `plan`, whose per-chunk corruption probability is `per_chunk_p`
/// ([`ReplayParams::chunk_corruption`]). Deterministic and
/// order-independent: depends only on the plan's config and the
/// arguments.
pub fn transfer_faults(
    plan: &FaultPlan,
    params: &ReplayParams,
    per_chunk_p: f64,
    flow: u64,
    bytes: u64,
) -> TransferFaults {
    if bytes == 0 {
        return TransferFaults::clean();
    }
    let chunk = params.chunk_bytes.max(1);
    let chunks = bytes.div_ceil(chunk);
    let replays = plan.corrupted_chunks(flow, chunks, per_chunk_p);
    if replays == 0 {
        return TransferFaults::clean();
    }
    TransferFaults {
        replays,
        extra_bytes: replays * chunk.min(bytes),
        extra_latency: params.replay_latency * replays,
        retrain: replays >= params.retrain_threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmx_sim::FaultConfig;

    fn plan(ber: f64) -> FaultPlan {
        FaultPlan::new(FaultConfig {
            seed: 7,
            bit_error_rate: ber,
            ..FaultConfig::none()
        })
    }

    /// `transfer_faults` at the default replay parameters.
    fn faults(p: &FaultPlan, flow: u64, bytes: u64) -> TransferFaults {
        let params = ReplayParams::default();
        transfer_faults(p, &params, params.chunk_corruption(p), flow, bytes)
    }

    #[test]
    fn clean_link_never_replays() {
        let p = plan(0.0);
        for flow in 0..100 {
            assert_eq!(faults(&p, flow, 16 << 20), TransferFaults::clean());
        }
    }

    #[test]
    fn replays_scale_with_ber() {
        let total = |ber: f64| -> u64 {
            let p = plan(ber);
            (0..50).map(|f| faults(&p, f, 16 << 20).replays).sum()
        };
        let low = total(1e-9);
        let high = total(1e-7);
        assert!(high > low, "high-BER {high} vs low-BER {low}");
        // 50 x 64 chunks at p~=2.1e-3: expect ~7 replays.
        assert!(low < 40, "{low}");
    }

    #[test]
    fn replay_costs_add_up() {
        let p = plan(1e-6);
        let params = ReplayParams::default();
        let tf = faults(&p, 3, 16 << 20);
        assert!(tf.replays > 0);
        assert_eq!(tf.extra_bytes, tf.replays * params.chunk_bytes);
        assert_eq!(tf.extra_latency, params.replay_latency * tf.replays);
    }

    #[test]
    fn heavy_bursts_trigger_retrain() {
        // At BER 1e-6 nearly every 256 KB chunk is corrupted.
        let p = plan(1e-6);
        let tf = faults(&p, 1, 16 << 20);
        assert!(tf.retrain, "{} replays", tf.replays);
        // A tiny transfer cannot cross the threshold.
        let small = faults(&p, 1, 4 * 1024);
        assert!(!small.retrain);
    }

    #[test]
    fn deterministic_per_flow() {
        let p = plan(1e-7);
        let a = faults(&p, 11, 8 << 20);
        let b = faults(&p, 11, 8 << 20);
        assert_eq!(a, b);
        // Different flows see independent outcomes.
        let other = faults(&p, 12, 8 << 20);
        let _ = other; // may or may not differ; just must not panic
    }

    #[test]
    fn sub_chunk_transfer_replays_whole_transfer() {
        let p = plan(1e-4);
        // 4 KB transfer: one "chunk" of 4 KB; extra bytes capped at the
        // transfer size.
        let tf = faults(&p, 2, 4 * 1024);
        if tf.replays > 0 {
            assert_eq!(tf.extra_bytes, tf.replays * 4 * 1024);
        }
    }
}
