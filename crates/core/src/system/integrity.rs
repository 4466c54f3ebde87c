//! End-to-end data integrity: chain checksums, poison tracking, and
//! quarantine/re-execute recovery.
//!
//! The silent-corruption fault domain (`dmx_sim::fault::SdcConfig`)
//! flips bits in DRX scratchpads, DMA staging buffers, and host DDR
//! with *no* fault signal — no LCRC NAK, no timeout, no interrupt.
//! Left alone, a flipped bit sails through the rest of the accelerator
//! chain and corrupts the final result. This module is the driver-side
//! countermeasure: an optional integrity mode that digests each batch
//! at chain boundaries (modeled FNV-style rolling checksum, see
//! `dmx_kernels::checksum`), tags mismatching batches as *poisoned*,
//! quarantines the affected tenant's queue, and recovers by
//! re-executing the request from its last verified boundary with the
//! recovery layer's exponential backoff.
//!
//! The config is layered like the fault and overload layers: `None` on
//! [`SystemConfig`](crate::system::SystemConfig) disables it entirely,
//! and an inert config ([`IntegrityConfig::none`]) must be
//! byte-identical to the layer-absent run. Injection accounting
//! (injected / escaped counts) is driven by the *fault* layer and
//! works even with checksums off — silent corruption never perturbs
//! timing, only data — so the `repro integrity` sweep can show the
//! escape count that checksum mode `None` leaves on the table.
//!
//! Both halves live here: the flip draw that poisons a batch at each
//! exposure of the chain walk, and the boundary checks, re-executions
//! and quarantines that answer it.

use super::{Ev, Sim, SimError, Step};
use dmx_sim::{SdcDomain, Time};

/// Where integrity checksums are computed along the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChecksumMode {
    /// No checksums: every injected corruption escapes into the final
    /// result. This is today's default hardware behavior.
    None,
    /// Verify at every chain boundary (each accelerator-to-accelerator
    /// hop) plus the final result. Smallest blast radius and cheapest
    /// re-execution (rewind one hop), highest checksum overhead.
    PerHop,
    /// Verify only the final result against the source digest. One
    /// check per request, but a detection re-executes the whole chain
    /// and the poison travels every hop before it is caught.
    EndToEnd,
}

/// Configuration of the integrity layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntegrityConfig {
    /// Checksum placement.
    pub mode: ChecksumMode,
    /// Modeled digest throughput of the checking device. The check
    /// blocks the request for `bytes / checksum_bytes_per_sec`; ~25
    /// GB/s matches a single-core software FNV/CRC sweep, which is the
    /// conservative cost (a hardware CRC block would be free).
    pub checksum_bytes_per_sec: f64,
    /// How long a tenant's queue is quarantined after one of its
    /// batches is found poisoned: open-loop arrivals inside the window
    /// are shed before admission. [`Time::ZERO`] disables quarantine.
    pub quarantine: Time,
    /// Re-executions allowed per request before the driver gives up
    /// and passes the batch through unchecked (every later flip then
    /// escapes). Each attempt re-rolls the fault exposure, so at sane
    /// SDC rates exhaustion is astronomically unlikely; the cap exists
    /// to bound pathological configs.
    pub max_reexec: u32,
}

impl IntegrityConfig {
    /// An inert config: no checks, no cost, nothing detected.
    pub fn none() -> Self {
        IntegrityConfig {
            mode: ChecksumMode::None,
            checksum_bytes_per_sec: 25e9,
            quarantine: Time::from_ms(1),
            max_reexec: 32,
        }
    }

    /// Checking enabled with placement `mode` and default costs.
    pub fn checked(mode: ChecksumMode) -> Self {
        IntegrityConfig {
            mode,
            ..IntegrityConfig::none()
        }
    }

    /// True when the layer does nothing: results must be byte-identical
    /// to a run with the layer absent.
    pub(crate) fn is_inert(&self) -> bool {
        self.mode == ChecksumMode::None
    }

    /// Modeled wall time to digest `bytes`.
    pub(crate) fn check_time(&self, bytes: u64) -> Time {
        Time::from_secs_f64(bytes as f64 / self.checksum_bytes_per_sec.max(1.0))
    }
}

impl Default for IntegrityConfig {
    fn default() -> Self {
        IntegrityConfig::none()
    }
}

/// What the silent-corruption and integrity layers did during a run.
/// All-zero when no SDC fired and the integrity layer is off.
///
/// Invariant (checked by the `repro integrity` harness): every
/// injected flip is either detected at a checksum boundary or escapes
/// into a completed request — `injected == detected + escaped`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityReport {
    /// Silent bit flips injected by the fault layer (all domains, all
    /// attempts).
    pub injected: u64,
    /// Injected flips caught at a checksum boundary.
    pub detected: u64,
    /// Injected flips that reached a completed request undetected.
    pub escaped: u64,
    /// Poisoning incidents: times a clean request picked up its first
    /// undetected flip (one incident can carry several flips).
    pub poisoned_batches: u64,
    /// Blast radius: total chain steps traversed while poisoned,
    /// summed over all incidents (poison caught at its injection hop
    /// contributes 1).
    pub poison_hops: u64,
    /// Largest single-incident blast radius.
    pub max_blast: u64,
    /// Checksum verifications performed.
    pub checks: u64,
    /// Wall time spent computing checksums (charged to the requests).
    pub checksum_time: Time,
    /// Re-executions triggered by detections.
    pub reexecs: u64,
    /// Wall time of work thrown away by re-executions (from the last
    /// verified boundary to the detection point).
    pub reexec_time: Time,
    /// Requests that exhausted `max_reexec` and continued unchecked.
    pub reexec_giveups: u64,
    /// Tenant quarantine windows opened by detections.
    pub quarantines: u64,
    /// Open-loop arrivals shed because their tenant was quarantined.
    pub quarantine_shed: u64,
}

impl IntegrityReport {
    /// True if any corruption fired or any integrity action ran.
    pub(crate) fn any(&self) -> bool {
        *self != IntegrityReport::default()
    }

    /// The conservation invariant: every flip is accounted exactly
    /// once.
    pub fn conserved(&self) -> bool {
        self.conserved_with_discarded(0)
    }

    /// The conservation invariant under crash-stop failures: flips can
    /// also leave the system inside crash-killed requests (the crash
    /// report's `flips_discarded` ledger).
    pub fn conserved_with_discarded(&self, discarded: u64) -> bool {
        self.injected == self.detected + self.escaped + discarded
    }

    /// Mean blast radius per poisoning incident (0 with none).
    pub fn mean_blast(&self) -> f64 {
        if self.poisoned_batches == 0 {
            0.0
        } else {
            self.poison_hops as f64 / self.poisoned_batches as f64
        }
    }
}

impl Sim<'_> {
    /// Draws the silent bit flips batch `id` picks up while its
    /// current step exposes `bytes` bytes to `domain` on `device`, and
    /// poisons the request accordingly. Returns the flip count (for
    /// breaker attribution). SDC is *silent*: injection never perturbs
    /// timing — only the integrity layer's checks and re-executions do
    /// — so a fault plan whose only live rates are SDC is
    /// timing-identical to a clean run.
    pub(super) fn inject_sdc(
        &mut self,
        id: u64,
        domain: SdcDomain,
        device: u64,
        bytes: u64,
        residency_secs: f64,
    ) -> u64 {
        let Some(plan) = &self.plan else { return 0 };
        let Some(r) = self.reqs.get_mut(id) else {
            return 0;
        };
        // One sub-stream per (request, step); the re-execution attempt
        // is part of the key so retries re-roll their exposure.
        let batch = id.wrapping_mul(1_000_003).wrapping_add(r.step as u64);
        // Crash migrations re-roll exposure too, without consuming the
        // integrity layer's re-execution budget.
        let attempt = r.reexecs.wrapping_add(r.crash_rewinds);
        let n = plan.sdc_flip_count(domain, device, batch, attempt, bytes, residency_secs);
        if n == 0 {
            return 0;
        }
        self.ireport.injected += n;
        if r.flips == 0 {
            self.ireport.poisoned_batches += 1;
        }
        r.flips += n;
        n
    }

    /// Bytes to digest if the step just completed lands on an integrity
    /// boundary: each chain hop's arrival in per-hop mode, and the
    /// final result in both checking modes. `None` = no check here.
    pub(super) fn check_bytes(
        &self,
        id: u64,
        app: usize,
        prev_step: Step,
        finished: bool,
    ) -> Option<u64> {
        let integ = self.integ.as_ref()?;
        let r = self.reqs.get(id)?;
        if r.reexecs > integ.max_reexec {
            // Re-executions exhausted: checking stopped for good.
            return None;
        }
        match (integ.mode, prev_step) {
            (ChecksumMode::PerHop, Step::ToNext(e)) => Some(self.cfg.apps[app].edges[e].bytes_out),
            _ if finished => {
                // The final result: its size is the last stage's batch.
                self.cfg.apps[app].stages.last().map(|s| s.input_bytes)
            }
            _ => None,
        }
    }

    /// A chain-boundary checksum finished. Clean digest: the boundary
    /// becomes the request's verified rewind point and it advances.
    /// Mismatch: the batch is poisoned — account the detection, trip
    /// the tenant's quarantine, and re-execute from the last verified
    /// boundary after the recovery layer's exponential backoff.
    pub(super) fn integrity_done(&mut self, id: u64, epoch: u32) -> Result<(), SimError> {
        let now = self.q.now();
        let integ = self.integ.expect("integrity event without config");
        enum Next {
            Complete,
            Continue,
            Rewind(Time),
        }
        let (app, next) = {
            let Some(r) = self.reqs.get_mut(id) else {
                return Ok(());
            };
            if r.epoch != epoch {
                return Ok(());
            }
            // The digest itself is data-motion overhead.
            r.breakdown.movement += now - r.step_started;
            let finished = r.step == self.server.steps[r.app].len();
            let next = if r.flips == 0 {
                r.verified_step = r.step;
                r.verified_at = now;
                if !self.crash_sched.is_empty() {
                    // A verified boundary is the best possible crash
                    // checkpoint: refresh it so a later migration
                    // restarts from known-clean state.
                    r.ckpt_step = r.step;
                    r.ckpt_at = now;
                }
                if finished {
                    Next::Complete
                } else {
                    Next::Continue
                }
            } else {
                self.ireport.detected += r.flips;
                self.ireport.poison_hops += r.poison_hops;
                self.ireport.max_blast = self.ireport.max_blast.max(r.poison_hops);
                r.flips = 0;
                r.poison_hops = 0;
                r.reexecs += 1;
                if r.reexecs > integ.max_reexec {
                    // Give up: pass the known-bad batch through and stop
                    // checking; any further corruption escapes.
                    self.ireport.reexec_giveups += 1;
                    if finished {
                        Next::Complete
                    } else {
                        Next::Continue
                    }
                } else {
                    self.ireport.reexecs += 1;
                    // Work since the verified boundary is thrown away.
                    self.ireport.reexec_time += now - r.verified_at;
                    r.step = r.verified_step;
                    if r.ckpt_step > r.step {
                        // The crash checkpoint cannot sit ahead of the
                        // rewound cursor.
                        r.ckpt_step = r.step;
                        r.ckpt_at = now;
                    }
                    // Invalidate anything still in flight for the
                    // discarded attempt.
                    r.epoch += 1;
                    Next::Rewind(self.cfg.recovery.backoff(r.reexecs - 1))
                }
            };
            (r.app, next)
        };
        match next {
            Next::Complete => self.complete_request(id),
            Next::Continue => self.begin_or_park(id),
            Next::Rewind(delay) => {
                self.quarantine_tenant(app, now);
                if let Some(r) = self.reqs.get(id) {
                    self.q.schedule_at(now + delay, Ev::Resume(id, r.epoch));
                }
                Ok(())
            }
        }
    }

    /// Opens (or extends) tenant `app`'s quarantine window after one of
    /// its batches was found poisoned. Only meaningful open-loop, where
    /// arrivals exist to shed.
    fn quarantine_tenant(&mut self, app: usize, now: Time) {
        let Some(integ) = &self.integ else { return };
        if integ.quarantine == Time::ZERO || !self.ov.as_ref().is_some_and(|o| o.open_loop) {
            return;
        }
        self.ireport.quarantines += 1;
        let until = now + integ.quarantine;
        if until > self.quarantine_until[app] {
            self.quarantine_until[app] = until;
        }
    }
}
