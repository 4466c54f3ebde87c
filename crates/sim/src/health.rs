//! One health lifecycle for every guard in the simulator.
//!
//! A guarded resource (a DRX unit behind the overload layer's circuit
//! breaker or the fail-slow scorer, a whole server behind the fleet
//! balancer) is demoted on a signal, sits out a probation, then takes
//! one half-open probe that reinstates it or demotes it again. Each
//! guard keeps its own signal, window and baseline; it only decides
//! when to demote and whether a probe passed.

use crate::Time;

/// Where a guarded resource's next piece of work goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Healthy: use the resource normally.
    Primary,
    /// Probation over: use the resource; this work's outcome settles it.
    Probe,
    /// Demoted, or a probe is in flight: reroute.
    Fallback,
}

/// A guarded resource's place in the lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Health {
    /// In service.
    #[default]
    Healthy,
    /// Sitting out a probation.
    Demoted {
        /// When the probation ends and a probe may start.
        until: Time,
        /// A severe demotion (the balancer's Dark, against Suspected):
        /// counted apart, routed alike.
        dark: bool,
    },
    /// The probe named by the guard's token (a batch id or a dispatch
    /// tag) is in flight; only its outcome settles the resource.
    Probing(u64),
}

impl Health {
    /// Routing verdict at `now`. A guard that learns a probe's outcome
    /// at dispatch never enters `Probing`, so from `until` on it sees
    /// `Probe` on every call until it settles.
    pub fn route(&self, now: Time) -> Route {
        match *self {
            Health::Healthy => Route::Primary,
            Health::Demoted { until, .. } if now < until => Route::Fallback,
            Health::Demoted { .. } => Route::Probe,
            Health::Probing(_) => Route::Fallback,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_table() {
        let until = Time::from_us(10);
        for dark in [false, true] {
            let h = Health::Demoted { until, dark };
            assert_eq!(h.route(Time::from_us(9)), Route::Fallback);
            assert_eq!(h.route(until), Route::Probe);
            assert_eq!(h.route(Time::MAX), Route::Probe);
        }
        for now in [Time::ZERO, until, Time::MAX] {
            assert_eq!(Health::Healthy.route(now), Route::Primary);
            assert_eq!(Health::Probing(3).route(now), Route::Fallback);
        }
    }
}
