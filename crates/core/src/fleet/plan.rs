//! Fleet-scale fault schedules: kill, gray out, or unplug *whole
//! servers* mid-run.
//!
//! A [`FleetFaultPlan`] is the fleet-level mirror of the per-server
//! [`FaultConfig`] schedules: deterministic, order-independent, and
//! composed from the same machinery. Each entry names a server index
//! and a window; at fleet construction the plan folds into each
//! server's own fault config —
//!
//! * a [`ServerKill`] becomes a host driver [`CrashEvent`] (every
//!   in-flight request re-plans from its checkpoint on restart, or is
//!   shed outright when the outage is permanent);
//! * a [`ServerGray`] becomes a set of subtree [`DegradeEvent`]s, so
//!   every PCIe link in the server runs at a fraction of nominal
//!   bandwidth — the server keeps answering, just slower, which is
//!   exactly the gray failure an LB health scorer must infer from
//!   latency alone;
//! * a [`ServerOutage`] covers the server's inter-node hop with a
//!   [`LinkOutage`]: messages sent during the window are lost in both
//!   directions, so the server goes *dark* from the LB's point of view
//!   while continuing to run locally.
//!
//! The plan is inert by default ([`FleetFaultPlan::none`]): a fleet
//! with an inert plan constructs bit-identical servers to a fleet with
//! no plan at all.

use dmx_pcie::LinkOutage;
use dmx_sim::{CrashEvent, DegradeEvent, FaultConfig, Time};

/// Subtree indices a [`ServerGray`] degrades. Eight exceeds the switch
/// count of every server layout in the tree; degrade events naming
/// subtrees a layout does not have are ignored gracefully, so the plan
/// never needs to know each server's topology.
const GRAY_SUBTREES: usize = 8;

/// One whole-server crash-stop: the host driver of `server` dies at
/// `at` and — when `down_for` is finite — restarts after the outage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerKill {
    /// Which server dies.
    pub server: usize,
    /// When it dies.
    pub at: Time,
    /// Outage length; `None` means the server never comes back and
    /// every request it holds (or later receives) is shed.
    pub down_for: Option<Time>,
}

/// One whole-server gray-out: every PCIe link in `server` runs at
/// `1/slowdown` bandwidth for the window. No fault signal fires — the
/// server answers everything, late.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerGray {
    /// Which server runs slow.
    pub server: usize,
    /// When the window opens.
    pub at: Time,
    /// Window length; `None` means it never recovers.
    pub down_for: Option<Time>,
    /// Bandwidth divisor, `>= 1`.
    pub slowdown: f64,
}

/// One whole-server network cut: the LB↔server hop drops every message
/// sent during the window, in both directions. The server keeps
/// executing what it already holds; only its traffic disappears.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerOutage {
    /// Which server's hop goes dark.
    pub server: usize,
    /// When the hop goes dark.
    pub at: Time,
    /// Outage length; `None` means the hop never recovers.
    pub down_for: Option<Time>,
}

/// A deterministic fleet-level fault schedule; see the module docs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetFaultPlan {
    /// Whole-server crash-stops.
    pub kills: Vec<ServerKill>,
    /// Whole-server gray-outs.
    pub grays: Vec<ServerGray>,
    /// Whole-server network cuts.
    pub outages: Vec<ServerOutage>,
}

impl FleetFaultPlan {
    /// An inert plan: no server ever fails.
    pub fn none() -> FleetFaultPlan {
        FleetFaultPlan::default()
    }

    /// True when no fleet-level fault can fire.
    pub(crate) fn is_inert(&self) -> bool {
        self.kills.is_empty() && self.grays.is_empty() && self.outages.is_empty()
    }

    /// The fault config `server` must run under: `base` (the shared
    /// per-server config) plus this plan's kills and grays folded in
    /// as driver crashes and subtree degrades. `None` when the plan
    /// leaves `server` untouched — the caller then reuses the shared
    /// config verbatim, keeping unaffected servers bit-identical to a
    /// plan-free fleet.
    pub(crate) fn server_faults(
        &self,
        server: usize,
        base: Option<&FaultConfig>,
    ) -> Option<FaultConfig> {
        let kills: Vec<&ServerKill> = self.kills.iter().filter(|k| k.server == server).collect();
        let grays: Vec<&ServerGray> = self.grays.iter().filter(|g| g.server == server).collect();
        if kills.is_empty() && grays.is_empty() {
            return None;
        }
        let mut cfg = base.cloned().unwrap_or_default();
        for k in kills {
            cfg.crashes.push(CrashEvent::host(k.at, k.down_for));
        }
        for g in grays {
            for s in 0..GRAY_SUBTREES {
                cfg.degrades
                    .push(DegradeEvent::subtree(s, g.at, g.down_for, g.slowdown));
            }
        }
        Some(cfg)
    }

    /// The network-cut windows covering `server`'s LB hop, in schedule
    /// order.
    pub(crate) fn outages_for(&self, server: usize) -> Vec<LinkOutage> {
        self.outages
            .iter()
            .filter(|o| o.server == server)
            .map(|o| LinkOutage {
                at: o.at,
                down_for: o.down_for,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmx_sim::CrashTarget;

    #[test]
    fn inert_plan_leaves_every_server_untouched() {
        let p = FleetFaultPlan::none();
        assert!(p.is_inert());
        for s in 0..4 {
            assert_eq!(p.server_faults(s, None), None);
            assert!(p.outages_for(s).is_empty());
        }
    }

    #[test]
    fn kills_fold_into_driver_crashes_on_their_server_only() {
        let p = FleetFaultPlan {
            kills: vec![ServerKill {
                server: 1,
                at: Time::from_ms(2),
                down_for: None,
            }],
            ..FleetFaultPlan::none()
        };
        assert!(!p.is_inert());
        assert_eq!(p.server_faults(0, None), None);
        let f = p.server_faults(1, None).expect("server 1 has faults");
        assert_eq!(f.crashes.len(), 1);
        assert_eq!(f.crashes[0].target, CrashTarget::Driver);
        assert_eq!(f.crashes[0].at, Time::from_ms(2));
        assert!(!f.is_inert());
    }

    #[test]
    fn grays_compose_with_an_existing_base_config() {
        let mut base = FaultConfig::none();
        base.seed = 9;
        base.kills.push((7, Time::from_ms(1)));
        let p = FleetFaultPlan {
            grays: vec![ServerGray {
                server: 0,
                at: Time::from_ms(1),
                down_for: Some(Time::from_ms(4)),
                slowdown: 3.0,
            }],
            ..FleetFaultPlan::none()
        };
        let f = p.server_faults(0, Some(&base)).expect("gray on server 0");
        // The base schedule survives; the gray adds one degrade per
        // candidate subtree.
        assert_eq!(f.seed, 9);
        assert_eq!(f.kills.len(), 1);
        assert_eq!(f.degrades.len(), GRAY_SUBTREES);
        assert!(f.degrades.iter().all(|d| d.slowdown == 3.0));
    }

    #[test]
    fn outages_map_to_link_windows() {
        let p = FleetFaultPlan {
            outages: vec![
                ServerOutage {
                    server: 2,
                    at: Time::from_ms(1),
                    down_for: Some(Time::from_ms(2)),
                },
                ServerOutage {
                    server: 0,
                    at: Time::from_ms(5),
                    down_for: None,
                },
            ],
            ..FleetFaultPlan::none()
        };
        assert_eq!(p.outages_for(1), vec![]);
        let w = p.outages_for(2);
        assert_eq!(w.len(), 1);
        assert!(w[0].covers(Time::from_ms(2)));
        assert!(!w[0].covers(Time::from_ms(4)));
        assert!(p.outages_for(0)[0].covers(Time::from_secs_f64(100.0)));
    }
}
