//! Host driver model (Sec. V): completion notification costs.
//!
//! "By default, we operate accelerators and DRXs in interrupt mode ...
//! The interrupt handling of the drivers utilizes interrupt coalescing
//! for the bursty arrival of interrupts. If the arrival rate of
//! interrupts exceeds a certain threshold, the drivers switch to
//! polling. This design is similar to Linux NAPI."

use crate::params::{DriverParams, RecoveryParams};
use dmx_sim::Time;

/// Notification handling mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotifyMode {
    /// Interrupt per completion.
    Interrupt,
    /// Busy-polling completions.
    Polling,
}

/// Cost of handling one completion event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NotifyCost {
    /// Host CPU work (single-core seconds) to handle the event and
    /// program the next DMA descriptor.
    pub cpu_seconds: f64,
    /// Fixed signalling latency before the host reacts.
    pub latency: Time,
    /// Mode the driver was in.
    pub mode: NotifyMode,
}

/// NAPI-style adaptive notification: tracks an exponential moving
/// average of completion inter-arrival times and flips to polling when
/// events arrive faster than the threshold.
#[derive(Debug, Clone)]
pub struct DriverState {
    params: DriverParams,
    last_event: Option<Time>,
    ema_interval_s: f64,
    irq_count: u64,
    poll_count: u64,
    /// If `true`, the driver is pinned to one mode (the abl-irq study).
    forced: Option<NotifyMode>,
}

impl DriverState {
    /// Creates an adaptive driver.
    pub(crate) fn new(params: DriverParams) -> DriverState {
        DriverState {
            params,
            last_event: None,
            ema_interval_s: 1.0, // start relaxed: interrupt mode
            irq_count: 0,
            poll_count: 0,
            forced: None,
        }
    }

    /// Creates a driver pinned to one mode (ablation support).
    pub(crate) fn forced(params: DriverParams, mode: NotifyMode) -> DriverState {
        DriverState {
            forced: Some(mode),
            ..DriverState::new(params)
        }
    }

    /// Current mode.
    pub(crate) fn mode(&self) -> NotifyMode {
        if let Some(m) = self.forced {
            return m;
        }
        if self.ema_interval_s < self.params.polling_threshold.as_secs_f64() {
            NotifyMode::Polling
        } else {
            NotifyMode::Interrupt
        }
    }

    /// Registers a completion at `now` and returns its handling cost.
    pub(crate) fn on_completion(&mut self, now: Time) -> NotifyCost {
        if let Some(last) = self.last_event {
            let dt = (now.saturating_sub(last)).as_secs_f64();
            self.ema_interval_s = 0.7 * self.ema_interval_s + 0.3 * dt;
        }
        self.last_event = Some(now);
        let mode = self.mode();

        match mode {
            NotifyMode::Interrupt => {
                self.irq_count += 1;
                NotifyCost {
                    cpu_seconds: self.params.irq_cpu_seconds + self.params.dma_setup_cpu_seconds,
                    latency: self.params.irq_latency,
                    mode,
                }
            }
            NotifyMode::Polling => {
                self.poll_count += 1;
                NotifyCost {
                    cpu_seconds: self.params.poll_cpu_seconds + self.params.dma_setup_cpu_seconds,
                    latency: self.params.poll_latency,
                    mode,
                }
            }
        }
    }

    /// Registers a completion whose interrupt was *lost* in delivery.
    ///
    /// The driver's watchdog notices the silent queue after
    /// `recovery.watchdog_timeout` and recovers the event by polling:
    /// the caller pays the watchdog wait plus a polled handling cost.
    /// The NAPI EMA observes the event at the watchdog fire time (the
    /// moment software actually saw it), not its true arrival.
    pub(crate) fn on_lost_completion(
        &mut self,
        now: Time,
        recovery: &RecoveryParams,
    ) -> NotifyCost {
        // The event becomes visible to software only when the watchdog
        // fires and polls the queue.
        let seen = now + recovery.watchdog_timeout;
        if let Some(last) = self.last_event {
            let dt = (seen.saturating_sub(last)).as_secs_f64();
            self.ema_interval_s = 0.7 * self.ema_interval_s + 0.3 * dt;
        }
        self.last_event = Some(seen);
        self.poll_count += 1;
        NotifyCost {
            cpu_seconds: self.params.poll_cpu_seconds + self.params.dma_setup_cpu_seconds,
            latency: recovery.watchdog_timeout + self.params.poll_latency,
            mode: NotifyMode::Polling,
        }
    }

    /// Resets adaptive state after a driver crash-restart: the arrival
    /// history is forgotten and the EMA relaxes back to interrupt mode.
    /// Lifetime event counts survive — they are accounting, not device
    /// state.
    pub(crate) fn restart(&mut self) {
        self.last_event = None;
        self.ema_interval_s = 1.0;
    }

    /// (interrupt, polled) event counts so far.
    pub(crate) fn counts(&self) -> (u64, u64) {
        (self.irq_count, self.poll_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_events_use_interrupts() {
        let mut d = DriverState::new(DriverParams::default());
        let mut now = Time::ZERO;
        for _ in 0..10 {
            now += Time::from_ms(1);
            let c = d.on_completion(now);
            assert_eq!(c.mode, NotifyMode::Interrupt);
        }
        assert_eq!(d.counts().1, 0);
    }

    #[test]
    fn bursty_events_flip_to_polling() {
        let mut d = DriverState::new(DriverParams::default());
        let mut now = Time::ZERO;
        let mut saw_polling = false;
        for _ in 0..50 {
            now += Time::from_us(5);
            let c = d.on_completion(now);
            saw_polling |= c.mode == NotifyMode::Polling;
        }
        assert!(saw_polling, "high rate must switch to polling");
        // Polling is cheaper per event.
        let p = DriverParams::default();
        assert!(p.poll_cpu_seconds < p.irq_cpu_seconds);
    }

    #[test]
    fn driver_recovers_interrupt_mode() {
        let mut d = DriverState::new(DriverParams::default());
        let mut now = Time::ZERO;
        for _ in 0..50 {
            now += Time::from_us(5);
            d.on_completion(now);
        }
        assert_eq!(d.mode(), NotifyMode::Polling);
        for _ in 0..20 {
            now += Time::from_ms(5);
            d.on_completion(now);
        }
        assert_eq!(d.mode(), NotifyMode::Interrupt);
    }

    #[test]
    fn forced_modes_stick() {
        let mut a = DriverState::forced(DriverParams::default(), NotifyMode::Interrupt);
        let mut b = DriverState::forced(DriverParams::default(), NotifyMode::Polling);
        let mut now = Time::ZERO;
        for _ in 0..30 {
            now += Time::from_us(2);
            assert_eq!(a.on_completion(now).mode, NotifyMode::Interrupt);
            assert_eq!(b.on_completion(now).mode, NotifyMode::Polling);
        }
    }

    /// Drives a fresh adaptive driver with `n` completions at a constant
    /// `interval` and returns its final state.
    fn driven(interval: Time, n: usize) -> DriverState {
        let mut d = DriverState::new(DriverParams::default());
        let mut now = Time::ZERO;
        for _ in 0..n {
            now += interval;
            d.on_completion(now);
        }
        d
    }

    #[test]
    fn threshold_boundary_is_exclusive() {
        let p = DriverParams::default();
        let thr = p.polling_threshold.as_secs_f64();
        // The comparison is strict: an EMA *exactly at* the threshold
        // keeps interrupts; polling needs the EMA strictly below it.
        let mut d = DriverState::new(p);
        d.ema_interval_s = thr;
        assert_eq!(d.mode(), NotifyMode::Interrupt);
        d.ema_interval_s = thr * (1.0 - 1e-9);
        assert_eq!(d.mode(), NotifyMode::Polling);
        d.ema_interval_s = thr * (1.0 + 1e-9);
        assert_eq!(d.mode(), NotifyMode::Interrupt);
        // And the same boundary reached by actually driving the state:
        // sustained arrivals well below/above the threshold settle into
        // the matching modes.
        assert_eq!(driven(Time::from_us(10), 400).mode(), NotifyMode::Polling);
        assert_eq!(driven(Time::from_us(90), 400).mode(), NotifyMode::Interrupt);
    }

    #[test]
    fn ema_recovery_takes_a_handful_of_events() {
        // Saturate into polling, then feed sparse events and count how
        // many the EMA (alpha = 0.3) needs to recover interrupt mode.
        let mut d = driven(Time::from_us(5), 50);
        assert_eq!(d.mode(), NotifyMode::Polling);
        let mut now = Time::from_us(5 * 50);
        let mut events = 0;
        while d.mode() == NotifyMode::Polling && events < 100 {
            now += Time::from_ms(1);
            d.on_completion(now);
            events += 1;
        }
        // One 1 ms gap lifts the EMA from ~5 us to ~300 us > 30 us.
        assert_eq!(d.mode(), NotifyMode::Interrupt);
        assert!(events <= 3, "recovery took {events} events");
    }

    #[test]
    fn forced_mode_counts_attribute_every_event() {
        let mut a = DriverState::forced(DriverParams::default(), NotifyMode::Interrupt);
        let mut b = DriverState::forced(DriverParams::default(), NotifyMode::Polling);
        let mut now = Time::ZERO;
        for _ in 0..25 {
            now += Time::from_us(2);
            a.on_completion(now);
            b.on_completion(now);
        }
        assert_eq!(a.counts(), (25, 0));
        assert_eq!(b.counts(), (0, 25));
    }

    #[test]
    fn lost_completion_recovered_by_watchdog() {
        use crate::params::RecoveryParams;
        let rec = RecoveryParams::default();
        let p = DriverParams::default();
        let mut d = DriverState::new(p);
        let c = d.on_lost_completion(Time::from_ms(1), &rec);
        assert_eq!(c.mode, NotifyMode::Polling);
        assert_eq!(c.latency, rec.watchdog_timeout + p.poll_latency);
        assert!(c.latency > p.irq_latency, "loss must cost more than an irq");
        assert_eq!(d.counts(), (0, 1));
    }

    #[test]
    fn mode_flips_are_monotone_in_arrival_rate() {
        // Property: a faster arrival rate never makes the driver *less*
        // likely to poll. Drive two drivers with random interval pairs
        // and check the implication both ways.
        dmx_sim::run_cases("driver_monotone_in_rate", dmx_sim::cases(64), |g| {
            let a_us = g.u64_in(1, 200);
            let b_us = g.u64_in(1, 200);
            let (fast, slow) = (a_us.min(b_us), a_us.max(b_us));
            let n = g.usize_in(5, 120);
            let df = driven(Time::from_us(fast), n);
            let ds = driven(Time::from_us(slow), n);
            if ds.mode() == NotifyMode::Polling {
                assert_eq!(
                    df.mode(),
                    NotifyMode::Polling,
                    "slow {slow}us polls but fast {fast}us does not (n={n})"
                );
            }
            // EMA itself is monotone in the interval.
            assert!(df.ema_interval_s <= ds.ema_interval_s + 1e-12);
        });
    }
}
