//! Deterministic fault injection.
//!
//! A [`FaultPlan`] answers every "did this go wrong?" question the
//! system model asks — chunk corruption on a PCIe transfer, a lost
//! completion notification, a stalled DRX command, a unit dying — from
//! a single seed. Each query draws from its own [`SplitMix64`]
//! sub-stream keyed on `(seed, domain, ids)`, so answers are
//! *order-independent*: the same `(config, seed)` yields the same fault
//! schedule no matter which order the simulator happens to ask in, and
//! a run is exactly reproducible from its config.

use crate::rng::{u53_threshold, SplitMix64};
use crate::time::Time;

/// Domain tags keeping sub-streams disjoint.
const DOMAIN_CHUNK: u64 = 0x01;
const DOMAIN_COMPLETION: u64 = 0x02;
const DOMAIN_STALL: u64 = 0x03;
const DOMAIN_DEATH: u64 = 0x04;
const DOMAIN_SDC: u64 = 0x05;
const DOMAIN_DEGRADE: u64 = 0x06;

/// Silent-data-corruption rates: bit flips that raise *no* fault
/// signal — no LCRC NAK, no timeout, no interrupt — and can only be
/// caught by an end-to-end integrity check. Rates are per *byte* of
/// the exposed buffer (per pass for scratchpad/DMA, per second of
/// residency for DDR), so the expected flip count scales with batch
/// size the way real soft-error rates do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SdcConfig {
    /// Flip probability per byte staged through a DRX scratchpad
    /// (SRAM without ECC), applied once per restructuring pass.
    pub spad_flip_rate: f64,
    /// Flip probability per byte held in a DMA staging buffer, applied
    /// once per chain-hop transfer.
    pub dma_flip_rate: f64,
    /// Flip probability per byte per *second* of DDR residency
    /// (non-ECC DIMM soft-error model); scaled by how long the batch
    /// sat in host memory.
    pub ddr_flip_rate_per_sec: f64,
}

impl SdcConfig {
    /// An inert config: no silent corruption ever.
    pub fn none() -> Self {
        SdcConfig {
            spad_flip_rate: 0.0,
            dma_flip_rate: 0.0,
            ddr_flip_rate_per_sec: 0.0,
        }
    }

    /// True when no silent corruption can fire.
    pub(crate) fn is_inert(&self) -> bool {
        self.spad_flip_rate == 0.0 && self.dma_flip_rate == 0.0 && self.ddr_flip_rate_per_sec == 0.0
    }
}

impl Default for SdcConfig {
    fn default() -> Self {
        SdcConfig::none()
    }
}

/// Which memory a silent bit flip lands in. Selects the [`SdcConfig`]
/// rate and keeps the per-memory fault sub-streams disjoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SdcDomain {
    /// DRX scratchpad SRAM, exposed once per restructuring pass.
    Scratchpad,
    /// DMA staging buffer, exposed once per chain-hop transfer.
    DmaStaging,
    /// Host DDR, exposed for the batch's residency time.
    Ddr,
}

impl SdcDomain {
    fn tag(self) -> u64 {
        match self {
            SdcDomain::Scratchpad => 1,
            SdcDomain::DmaStaging => 2,
            SdcDomain::Ddr => 3,
        }
    }
}

/// What a crash-stop event takes down.
///
/// Unlike the `kills` schedule (a permanent *unit* death modelling a
/// burned-out accelerator), a crash is a surprise removal at the PCIe
/// level: in-flight DMA dies with the device, and a crash with a finite
/// outage is later hot-plug re-admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashTarget {
    /// One service unit (stable unit id, same namespace as `kills`).
    Device(u64),
    /// Every device under one PCIe switch (index into the server
    /// layout's switch list): the whole subtree goes dark at once.
    Subtree(usize),
    /// The host driver process: every in-flight request loses its
    /// doorbell/completion path and must be re-driven after restart.
    Driver,
}

/// One crash-stop event in a deterministic schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashEvent {
    /// What goes down.
    pub target: CrashTarget,
    /// When it goes down.
    pub at: Time,
    /// Outage length; `None` means the target never comes back.
    pub down_for: Option<Time>,
}

impl CrashEvent {
    /// When the target is re-admitted, if ever.
    pub fn recovers_at(&self) -> Option<Time> {
        self.down_for.map(|d| self.at + d)
    }

    /// A whole-host crash-stop: the driver process dies at `at` and —
    /// with `down_for` — restarts after the outage. This is the event
    /// a fleet-level fault plan folds into a server's schedule to kill
    /// the *entire server* (every in-flight request re-plans from its
    /// checkpoint on restart; a permanent outage sheds them all).
    pub fn host(at: Time, down_for: Option<Time>) -> CrashEvent {
        CrashEvent {
            target: CrashTarget::Driver,
            at,
            down_for,
        }
    }
}

/// What a fail-slow (gray) degradation slows down.
///
/// Unlike a crash, nothing goes *offline*: the target keeps accepting
/// and completing work, just slower than nominal. That is exactly what
/// makes gray failures dangerous — no fault signal fires, only observed
/// latency drifts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeTarget {
    /// One service unit (stable unit id, same namespace as `kills` and
    /// `CrashTarget::Device`): its compute/command service times
    /// stretch by the slowdown factor.
    Device(u64),
    /// One PCIe link (index into the fabric's link list): effective
    /// bandwidth drops by the slowdown factor, composing with any
    /// retrain degradation already in effect.
    Link(usize),
    /// Every link under one PCIe switch (index into the server layout's
    /// switch list): the whole subtree runs slow at once, modelling a
    /// misbehaving switch or a shared clock/power domain.
    Subtree(usize),
}

/// An intermittent on/off duty cycle within a degradation window.
///
/// The slowdown applies during the first `on_fraction` of every
/// `period`, starting at the event's `at`, and lifts for the rest —
/// the "sometimes slow" gray-failure mode that defeats naive
/// threshold detectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DutyCycle {
    /// Length of one on+off cycle.
    pub period: Time,
    /// Fraction of each period spent degraded, in `(0, 1]`.
    pub on_fraction: f64,
}

/// One fail-slow event in a deterministic schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradeEvent {
    /// What runs slow.
    pub target: DegradeTarget,
    /// When the degradation window opens.
    pub at: Time,
    /// Window length; `None` means the target never recovers.
    pub down_for: Option<Time>,
    /// Service-time multiplier (device targets) or bandwidth divisor
    /// (link/subtree targets). Must be `>= 1`.
    pub slowdown: f64,
    /// Extra multiplicative jitter amplitude on top of `slowdown`, as a
    /// fraction: each affected batch draws `u in [0, 1)` from its own
    /// sub-stream and is stretched by `slowdown * (1 + jitter * u)`.
    /// Zero means a clean, constant slowdown. Device targets only —
    /// link bandwidth changes are square waves.
    pub jitter: f64,
    /// Optional intermittent duty cycle within the window.
    pub duty: Option<DutyCycle>,
}

impl DegradeEvent {
    /// A clean (jitter-free, always-on) subtree slowdown: every link
    /// under switch `s` runs at `1/slowdown` bandwidth for the window.
    /// Fleet-level fault plans gray out a whole server by emitting one
    /// of these per switch — schedules naming more subtrees than the
    /// server layout has are ignored gracefully, so a plan need not
    /// know each server's switch count.
    pub fn subtree(s: usize, at: Time, down_for: Option<Time>, slowdown: f64) -> DegradeEvent {
        DegradeEvent {
            target: DegradeTarget::Subtree(s),
            at,
            down_for,
            slowdown,
            jitter: 0.0,
            duty: None,
        }
    }

    /// When the window closes, if ever.
    pub fn ends_at(&self) -> Option<Time> {
        self.down_for.map(|d| self.at + d)
    }

    /// True when `now` falls inside the degradation window (ignoring
    /// the duty cycle).
    pub(crate) fn window_covers(&self, now: Time) -> bool {
        now >= self.at && self.ends_at().map(|e| now < e).unwrap_or(true)
    }

    /// True when the degradation is actually in effect at `now`:
    /// inside the window *and*, if intermittent, inside the on-phase of
    /// the duty cycle (phase-aligned to the window start).
    pub fn active_at(&self, now: Time) -> bool {
        if !self.window_covers(now) {
            return false;
        }
        match self.duty {
            None => true,
            Some(d) => {
                if d.period.is_zero() {
                    return true;
                }
                let phase = (now - self.at).as_ps() % d.period.as_ps();
                (phase as f64) < d.period.as_ps() as f64 * d.on_fraction
            }
        }
    }
}

/// Fault-injection configuration. All rates default to zero; a
/// zero-rate config is *inert* — it must not perturb the simulation in
/// any way (verified by integration tests).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Root seed for every fault sub-stream.
    pub seed: u64,
    /// PCIe bit-error rate (errors per bit transferred). Real links
    /// guarantee ~1e-12; sweeps push this far higher to expose the
    /// replay/retrain machinery.
    pub bit_error_rate: f64,
    /// Probability a completion notification (interrupt) is lost and
    /// the driver's watchdog must recover by polling.
    pub lost_completion_rate: f64,
    /// Probability a DRX command attempt stalls past its timeout.
    pub stall_rate: f64,
    /// Mean time to permanent unit failure, in seconds. `None`
    /// disables random deaths.
    pub death_mttf_secs: Option<f64>,
    /// Explicit `(unit, time)` kill schedule, independent of the seed.
    pub kills: Vec<(u64, Time)>,
    /// Silent-data-corruption rates (bit flips with no fault signal).
    pub sdc: SdcConfig,
    /// Deterministic crash-stop schedule: surprise device/subtree/driver
    /// removal, optionally hot-plug re-admitted after `down_for`.
    pub crashes: Vec<CrashEvent>,
    /// Deterministic fail-slow schedule: devices/links/subtrees run
    /// slower than nominal for a window (or forever), with optional
    /// jitter and intermittent duty cycles.
    pub degrades: Vec<DegradeEvent>,
}

impl FaultConfig {
    /// An inert config: nothing ever fails.
    pub fn none() -> Self {
        FaultConfig {
            seed: 0,
            bit_error_rate: 0.0,
            lost_completion_rate: 0.0,
            stall_rate: 0.0,
            death_mttf_secs: None,
            kills: Vec::new(),
            sdc: SdcConfig::none(),
            crashes: Vec::new(),
            degrades: Vec::new(),
        }
    }

    /// True when no fault of any kind can fire.
    pub fn is_inert(&self) -> bool {
        self.bit_error_rate == 0.0
            && self.lost_completion_rate == 0.0
            && self.stall_rate == 0.0
            && self.death_mttf_secs.is_none()
            && self.kills.is_empty()
            && self.sdc.is_inert()
            && self.crashes.is_empty()
            && self.degrades.is_empty()
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// A compiled fault schedule. Cheap to clone; all state is derived on
/// demand from the config.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultConfig,
}

impl FaultPlan {
    /// Compiles a plan from a config.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultPlan { cfg }
    }

    /// A fresh sub-stream for `(domain, a, b)`. SplitMix64's output
    /// function is a strong 64-bit mixer, so feeding each key through
    /// one round decorrelates the streams.
    fn stream(&self, domain: u64, a: u64, b: u64) -> SplitMix64 {
        let mut k = SplitMix64::new(self.cfg.seed ^ domain.wrapping_mul(0xA076_1D64_78BD_642F));
        let s1 = k.next_u64() ^ SplitMix64::new(a).next_u64();
        SplitMix64::new(s1 ^ SplitMix64::new(b.wrapping_add(1)).next_u64())
    }

    /// Probability that one `chunk_bits`-bit chunk carries at least one
    /// bit error at this plan's bit-error rate.
    pub fn chunk_corruption_probability(&self, chunk_bits: f64) -> f64 {
        if self.cfg.bit_error_rate <= 0.0 {
            return 0.0;
        }
        1.0 - (1.0 - self.cfg.bit_error_rate).powf(chunk_bits)
    }

    /// How many of `chunks` chunks of transfer `flow` arrive corrupted
    /// and must be replayed. Binomial via per-chunk Bernoulli draws on
    /// the flow's own stream, each `next_f64() < per_chunk_p` tested in
    /// its integer form.
    pub fn corrupted_chunks(&self, flow: u64, chunks: u64, per_chunk_p: f64) -> u64 {
        if per_chunk_p <= 0.0 || chunks == 0 {
            return 0;
        }
        let mut rng = self.stream(DOMAIN_CHUNK, flow, chunks);
        let t = u53_threshold(per_chunk_p);
        (0..chunks).filter(|_| rng.next_u53() < t).count() as u64
    }

    /// Whether completion notification `event` is lost in delivery.
    pub fn completion_lost(&self, event: u64) -> bool {
        if self.cfg.lost_completion_rate <= 0.0 {
            return false;
        }
        self.stream(DOMAIN_COMPLETION, event, 0).next_f64() < self.cfg.lost_completion_rate
    }

    /// Whether attempt `attempt` of DRX command `job` stalls past its
    /// timeout and must be retried.
    pub fn drx_stalled(&self, job: u64, attempt: u32) -> bool {
        if self.cfg.stall_rate <= 0.0 {
            return false;
        }
        self.stream(DOMAIN_STALL, job, attempt as u64).next_f64() < self.cfg.stall_rate
    }

    /// How many silent bit flips batch `batch` of device `device` picks
    /// up while exposed to `domain` for one pass of `bytes` bytes
    /// (`residency_secs` scales the DDR rate; ignored elsewhere).
    ///
    /// `attempt` is the re-execution attempt: a retried batch re-rolls
    /// its exposure rather than deterministically re-corrupting, which
    /// is what makes quarantine/re-execute recovery converge.
    ///
    /// The count is a Poisson draw on the batch's own sub-stream with
    /// mean `bytes x rate` (inverse-transform, so one stream walk per
    /// query regardless of buffer size — a per-byte Bernoulli over
    /// megabyte batches would dominate the run). No stream is touched
    /// when the exposure cannot fire (zero rate or empty batch), the
    /// common case on hot paths. Order-independent like every other
    /// plan query.
    pub fn sdc_flip_count(
        &self,
        domain: SdcDomain,
        device: u64,
        batch: u64,
        attempt: u32,
        bytes: u64,
        residency_secs: f64,
    ) -> u64 {
        let rate = match domain {
            SdcDomain::Scratchpad => self.cfg.sdc.spad_flip_rate,
            SdcDomain::DmaStaging => self.cfg.sdc.dma_flip_rate,
            SdcDomain::Ddr => self.cfg.sdc.ddr_flip_rate_per_sec * residency_secs.max(0.0),
        };
        let mean = bytes as f64 * rate;
        if mean <= 0.0 || bytes == 0 {
            return 0;
        }
        let mut rng = self.stream(
            DOMAIN_SDC ^ (domain.tag() << 8),
            device,
            batch
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(attempt as u64),
        );
        // Knuth's inverse-transform Poisson; exact for the small means
        // swept here. The cap bounds pathological configs, not sane
        // ones (P(N > 4096) is negligible for any mean under ~3800).
        let limit = (bytes * 8).min(4096);
        let floor = (-mean).exp();
        let mut count = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.next_f64();
            if p <= floor || count >= limit {
                break;
            }
            count += 1;
        }
        count
    }

    /// The crash-stop schedule, ordered by crash time (ties broken by
    /// schedule position, so equal-time crashes apply in config order).
    pub fn crash_schedule(&self) -> Vec<CrashEvent> {
        let mut sched = self.cfg.crashes.clone();
        sched.sort_by_key(|e| e.at);
        sched
    }

    /// The fail-slow schedule, ordered by window-open time (ties broken
    /// by schedule position, so equal-time degradations apply in config
    /// order). The returned indices are positions in *this* sorted
    /// order, which is what [`FaultPlan::degrade_jitter`] keys on.
    pub fn degrade_schedule(&self) -> Vec<DegradeEvent> {
        let mut sched = self.cfg.degrades.clone();
        sched.sort_by_key(|e| e.at);
        sched
    }

    /// Jitter draw in `[0, 1)` for batch `key` under degrade event
    /// `event` (index into the sorted [`FaultPlan::degrade_schedule`]).
    /// Order-independent like every other plan query, so a batch's
    /// stretch does not depend on simulation order.
    pub fn degrade_jitter(&self, event: u64, key: u64) -> f64 {
        self.stream(DOMAIN_DEGRADE, event, key).next_f64()
    }

    /// When unit `unit` permanently dies, if ever: the earlier of its
    /// explicit kill entry and a seed-driven exponential draw.
    pub fn death_time(&self, unit: u64) -> Option<Time> {
        let scheduled = self
            .cfg
            .kills
            .iter()
            .filter(|(u, _)| *u == unit)
            .map(|(_, t)| *t)
            .min();
        let sampled = self.cfg.death_mttf_secs.map(|mttf| {
            let secs = self.stream(DOMAIN_DEATH, unit, 0).next_exp(mttf);
            Time::from_secs_f64(secs)
        });
        match (scheduled, sampled) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy() -> FaultPlan {
        FaultPlan::new(lossy_config())
    }

    fn lossy_config() -> FaultConfig {
        FaultConfig {
            seed: 42,
            bit_error_rate: 1e-9,
            lost_completion_rate: 0.1,
            stall_rate: 0.2,
            death_mttf_secs: Some(1.0),
            kills: vec![(3, Time::from_ms(5))],
            sdc: SdcConfig {
                spad_flip_rate: 1e-6,
                dma_flip_rate: 1e-6,
                ddr_flip_rate_per_sec: 1e-5,
            },
            crashes: Vec::new(),
            degrades: Vec::new(),
        }
    }

    #[test]
    fn order_independent_queries() {
        let p = lossy();
        let a = (
            p.corrupted_chunks(7, 100, 0.05),
            p.completion_lost(9),
            p.drx_stalled(4, 2),
        );
        // Ask in a different order, interleaved with other queries.
        let q = lossy();
        let stalled = q.drx_stalled(4, 2);
        let _ = q.completion_lost(1000);
        let lost = q.completion_lost(9);
        let _ = q.corrupted_chunks(8, 50, 0.05);
        let chunks = q.corrupted_chunks(7, 100, 0.05);
        assert_eq!(a, (chunks, lost, stalled));
    }

    #[test]
    fn seeds_change_outcomes() {
        let a = FaultPlan::new(FaultConfig {
            seed: 1,
            ..lossy_config()
        });
        let b = FaultPlan::new(FaultConfig {
            seed: 2,
            ..lossy_config()
        });
        let hits = |p: &FaultPlan| (0..1000).filter(|&e| p.completion_lost(e)).count();
        let (ha, hb) = (hits(&a), hits(&b));
        // Both near 10% but not identical sets.
        assert!((50..200).contains(&ha));
        assert!((50..200).contains(&hb));
        assert_ne!(
            (0..1000)
                .filter(|&e| a.completion_lost(e))
                .collect::<Vec<_>>(),
            (0..1000)
                .filter(|&e| b.completion_lost(e))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn inert_plan_never_fires() {
        assert!(FaultConfig::none().is_inert());
        let p = FaultPlan::new(FaultConfig::none());
        for i in 0..100 {
            assert_eq!(
                p.corrupted_chunks(i, 1000, p.chunk_corruption_probability(2e6)),
                0
            );
            assert!(!p.completion_lost(i));
            assert!(!p.drx_stalled(i, 0));
            assert_eq!(p.death_time(i), None);
        }
    }

    #[test]
    fn chunk_probability_matches_ber() {
        let p = lossy();
        // 256 KB = 2^21 bits; p ~= 1 - (1-1e-9)^(2^21) ~= 2.1e-3.
        let pc = p.chunk_corruption_probability((256 * 1024 * 8) as f64);
        assert!((pc - 2.1e-3).abs() < 2e-4, "{pc}");
    }

    #[test]
    fn corruption_rate_tracks_probability() {
        let p = lossy();
        let total: u64 = (0..200).map(|f| p.corrupted_chunks(f, 100, 0.05)).sum();
        // 20_000 chunks at 5%: expect ~1000.
        assert!((700..1300).contains(&total), "{total}");
    }

    #[test]
    fn explicit_kill_beats_sampled_death() {
        let p = lossy();
        assert_eq!(p.death_time(3), Some(Time::from_ms(5)).min(p.death_time(3)));
        assert!(p.death_time(3).expect("dies") <= Time::from_ms(5));
        // Unit without a kill entry still dies eventually via MTTF.
        assert!(p.death_time(4).is_some());
        // No MTTF, no kill entry: immortal.
        let immortal = FaultPlan::new(FaultConfig {
            death_mttf_secs: None,
            kills: vec![],
            ..lossy_config()
        });
        assert_eq!(immortal.death_time(4), None);
    }

    #[test]
    fn death_times_deterministic() {
        assert_eq!(lossy().death_time(9), lossy().death_time(9));
    }

    #[test]
    fn sdc_flips_deterministic_and_in_bounds() {
        let p = lossy();
        for b in 0..50 {
            let n = p.sdc_flip_count(SdcDomain::Scratchpad, 7, b, 0, 1 << 20, 0.0);
            assert_eq!(
                n,
                lossy().sdc_flip_count(SdcDomain::Scratchpad, 7, b, 0, 1 << 20, 0.0)
            );
            assert!(n <= 4096, "the draw is capped at 4096 flips");
        }
        // A mean far past a tiny buffer's bit count is capped there.
        let heavy = FaultPlan::new(FaultConfig {
            sdc: SdcConfig {
                dma_flip_rate: 100.0,
                ..SdcConfig::none()
            },
            ..FaultConfig::none()
        });
        assert_eq!(
            heavy.sdc_flip_count(SdcDomain::DmaStaging, 1, 0, 0, 2, 0.0),
            16
        );
    }

    #[test]
    fn sdc_flip_count_tracks_mean() {
        let p = lossy();
        // 1 MB at 1e-6/byte: mean ~1.05 flips per batch; over 500
        // batches expect ~524.
        let total: u64 = (0..500)
            .map(|b| p.sdc_flip_count(SdcDomain::DmaStaging, 1, b, 0, 1 << 20, 0.0))
            .sum();
        assert!((350..750).contains(&total), "{total}");
    }

    #[test]
    fn sdc_domains_and_attempts_draw_disjoint_streams() {
        let p = lossy();
        let counts = |dom, attempt| -> Vec<u64> {
            (0..50)
                .map(|b| p.sdc_flip_count(dom, 7, b, attempt, 1 << 22, 0.0))
                .collect()
        };
        let spad = counts(SdcDomain::Scratchpad, 0);
        assert_ne!(
            spad,
            counts(SdcDomain::DmaStaging, 0),
            "domains must not alias"
        );
        // A re-execution re-rolls the exposure: over many batches the
        // attempt-1 counts must differ from attempt-0 somewhere.
        assert_ne!(
            spad,
            counts(SdcDomain::Scratchpad, 1),
            "attempt must be part of the draw key"
        );
    }

    #[test]
    fn sdc_ddr_scales_with_residency() {
        let p = lossy();
        let ddr = |b, res| p.sdc_flip_count(SdcDomain::Ddr, 2, b, 0, 1 << 20, res);
        let short: u64 = (0..200).map(|b| ddr(b, 1e-3)).sum();
        let long: u64 = (0..200).map(|b| ddr(b, 1.0)).sum();
        assert!(long > short * 10, "long {long} short {short}");
        // Zero residency: DDR rate is per-second, so nothing can fire.
        assert_eq!(ddr(0, 0.0), 0);
    }

    #[test]
    fn crash_schedule_sorts_stably_and_flips_inertness() {
        let late = CrashEvent {
            target: CrashTarget::Driver,
            at: Time::from_ms(9),
            down_for: Some(Time::from_ms(2)),
        };
        let early_a = CrashEvent {
            target: CrashTarget::Device(3),
            at: Time::from_ms(1),
            down_for: None,
        };
        let early_b = CrashEvent {
            target: CrashTarget::Subtree(0),
            at: Time::from_ms(1),
            down_for: Some(Time::from_ms(4)),
        };
        let cfg = FaultConfig {
            crashes: vec![late, early_a, early_b],
            ..FaultConfig::none()
        };
        assert!(!cfg.is_inert(), "a crash schedule is not inert");
        let plan = FaultPlan::new(cfg);
        // Sorted by time; equal-time events keep config order.
        assert_eq!(plan.crash_schedule(), vec![early_a, early_b, late]);
        assert_eq!(late.recovers_at(), Some(Time::from_ms(11)));
        assert_eq!(early_a.recovers_at(), None);
    }

    #[test]
    fn degrade_schedule_sorts_stably_and_flips_inertness() {
        let late = DegradeEvent {
            target: DegradeTarget::Link(2),
            at: Time::from_ms(8),
            down_for: None,
            slowdown: 2.0,
            jitter: 0.0,
            duty: None,
        };
        let early_a = DegradeEvent {
            target: DegradeTarget::Device(5),
            at: Time::from_ms(1),
            down_for: Some(Time::from_ms(3)),
            slowdown: 4.0,
            jitter: 0.25,
            duty: None,
        };
        let early_b = DegradeEvent {
            target: DegradeTarget::Subtree(0),
            at: Time::from_ms(1),
            down_for: Some(Time::from_ms(2)),
            slowdown: 1.5,
            jitter: 0.0,
            duty: Some(DutyCycle {
                period: Time::from_us(100),
                on_fraction: 0.5,
            }),
        };
        let cfg = FaultConfig {
            degrades: vec![late, early_a, early_b],
            ..FaultConfig::none()
        };
        assert!(!cfg.is_inert(), "a degrade schedule is not inert");
        let plan = FaultPlan::new(cfg);
        assert_eq!(plan.degrade_schedule(), vec![early_a, early_b, late]);
        assert_eq!(early_a.ends_at(), Some(Time::from_ms(4)));
        assert_eq!(late.ends_at(), None);
    }

    #[test]
    fn degrade_window_and_duty_phase() {
        let permanent = DegradeEvent {
            target: DegradeTarget::Device(1),
            at: Time::from_ms(2),
            down_for: None,
            slowdown: 3.0,
            jitter: 0.0,
            duty: None,
        };
        assert!(!permanent.active_at(Time::from_ms(1)));
        assert!(permanent.active_at(Time::from_ms(2)));
        assert!(permanent.active_at(Time::from_secs(100)));

        let windowed = DegradeEvent {
            down_for: Some(Time::from_ms(4)),
            ..permanent
        };
        assert!(windowed.active_at(Time::from_ms(5)));
        assert!(!windowed.active_at(Time::from_ms(6)), "window end excl.");

        // 50% duty at 1 ms period, phase-aligned to the window start:
        // on during [2,2.5) ms, off during [2.5,3) ms, and so on.
        let duty = DegradeEvent {
            duty: Some(DutyCycle {
                period: Time::from_ms(1),
                on_fraction: 0.5,
            }),
            ..permanent
        };
        assert!(duty.active_at(Time::from_us(2100)));
        assert!(!duty.active_at(Time::from_us(2700)));
        assert!(duty.active_at(Time::from_us(3100)));
        assert!(!duty.active_at(Time::from_us(3900)));
    }

    #[test]
    fn degrade_jitter_deterministic_and_bounded() {
        let p = lossy();
        for ev in 0..4u64 {
            for key in 0..100u64 {
                let u = p.degrade_jitter(ev, key);
                assert!((0.0..1.0).contains(&u), "{u}");
                assert_eq!(u, lossy().degrade_jitter(ev, key));
            }
        }
        // Distinct events draw distinct streams.
        let a: Vec<f64> = (0..20).map(|k| p.degrade_jitter(0, k)).collect();
        let b: Vec<f64> = (0..20).map(|k| p.degrade_jitter(1, k)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn inert_sdc_never_fires() {
        let p = FaultPlan::new(FaultConfig::none());
        for b in 0..100 {
            assert_eq!(
                p.sdc_flip_count(SdcDomain::Scratchpad, 1, b, 0, 1 << 24, 1.0),
                0
            );
        }
        // A config whose only live rates are SDC is not inert.
        let sdc_only = FaultConfig {
            sdc: SdcConfig {
                spad_flip_rate: 1e-9,
                ..SdcConfig::none()
            },
            ..FaultConfig::none()
        };
        assert!(!sdc_only.is_inert());
    }
}
