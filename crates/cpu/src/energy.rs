//! RAPL-style package energy model for the host CPU (the paper
//! measures CPU energy with Intel RAPL, Sec. VI).

/// Package power parameters for a Xeon Platinum 8260L-class socket.
#[derive(Debug, Clone, Copy)]
pub struct CpuEnergyModel {
    /// Package power with all cores idle (uncore, caches, fabric), watts.
    pub idle_watts: f64,
    /// Additional power per fully-busy core, watts.
    pub active_watts_per_core: f64,
}

impl Default for CpuEnergyModel {
    fn default() -> Self {
        // 165 W TDP socket: ~55 W uncore/idle, ~7 W per busy core
        // running AVX-heavy streaming code.
        CpuEnergyModel {
            idle_watts: 55.0,
            active_watts_per_core: 7.0,
        }
    }
}

impl CpuEnergyModel {
    /// Joules consumed over `wall_secs` of which `busy_core_secs`
    /// core-seconds were spent computing.
    pub fn energy(&self, wall_secs: f64, busy_core_secs: f64) -> f64 {
        self.idle_watts * wall_secs + self.active_watts_per_core * busy_core_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_loaded_socket_near_tdp() {
        let m = CpuEnergyModel::default();
        // Joules over one second with all 16 cores busy: watts.
        let p = m.energy(1.0, 16.0);
        assert!(p > 140.0 && p < 200.0, "full-socket power {p} W");
    }

    #[test]
    fn energy_integrates_busy_time() {
        let m = CpuEnergyModel::default();
        let e = m.energy(2.0, 8.0);
        assert!((e - (2.0 * 55.0 + 8.0 * 7.0)).abs() < 1e-9);
    }

    #[test]
    fn idle_still_burns_power() {
        let m = CpuEnergyModel::default();
        assert!(m.energy(1.0, 0.0) > 0.0);
    }
}
