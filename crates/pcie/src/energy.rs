//! Energy model for PCIe data movement.
//!
//! The paper's energy evaluation "include\[s\] the energy consumption of
//! the PCIe switch and the energy for data transfer over PCIe"
//! (Sec. VI). We model both: a per-bit link-crossing energy and a static
//! switch power drawn for the whole experiment.

use crate::link::Gen;
use dmx_sim::Time;

/// Energy in joules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Joules(pub f64);

impl Joules {
    /// Zero energy.
    pub const ZERO: Joules = Joules(0.0);

    /// Energy from power (watts) over a duration.
    pub(crate) fn from_power(watts: f64, t: Time) -> Joules {
        Joules(watts * t.as_secs_f64())
    }

    /// Value in joules.
    pub fn as_joules(self) -> f64 {
        self.0
    }
}

impl std::ops::Add for Joules {
    type Output = Joules;
    fn add(self, rhs: Joules) -> Joules {
        Joules(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for Joules {
    fn add_assign(&mut self, rhs: Joules) {
        self.0 += rhs.0;
    }
}

impl std::iter::Sum for Joules {
    fn sum<I: Iterator<Item = Joules>>(iter: I) -> Joules {
        iter.fold(Joules::ZERO, std::ops::Add::add)
    }
}

/// PCIe energy parameters.
#[derive(Debug, Clone, Copy)]
pub struct PcieEnergyModel {
    /// Energy for one bit to cross one link, in picojoules. Published
    /// PHY surveys put PCIe at roughly 5 pJ/bit end to end.
    pub pj_per_bit: f64,
    /// Static power of one PCIe switch chip in watts (Microchip/Broadcom
    /// datasheet class devices draw 10-25 W; we use a mid value).
    pub switch_static_watts: f64,
}

impl Default for PcieEnergyModel {
    fn default() -> Self {
        PcieEnergyModel {
            pj_per_bit: 5.0,
            switch_static_watts: 15.0,
        }
    }
}

impl PcieEnergyModel {
    /// Energy for `bytes` to cross one link.
    pub fn transfer_energy(&self, bytes: f64) -> Joules {
        Joules(bytes * 8.0 * self.pj_per_bit * 1e-12)
    }

    /// Static energy of `switches` switch chips over `duration`.
    pub fn switch_static_energy(&self, switches: usize, duration: Time) -> Joules {
        Joules::from_power(self.switch_static_watts * switches as f64, duration)
    }

    /// Newer generations move more bits per joule; the per-bit energy
    /// improves modestly per generation (~20% per gen, per PHY surveys).
    pub fn scaled_for_gen(&self, gen: Gen) -> PcieEnergyModel {
        let factor = match gen {
            Gen::Gen3 => 1.0,
            Gen::Gen4 => 0.8,
            Gen::Gen5 => 0.64,
        };
        PcieEnergyModel {
            pj_per_bit: self.pj_per_bit * factor,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn joules_arithmetic() {
        let a = Joules(1.5) + Joules(0.5);
        assert_eq!(a, Joules(2.0));
        let s: Joules = [Joules(1.0), Joules(2.0)].into_iter().sum();
        assert_eq!(s, Joules(3.0));
    }

    #[test]
    fn power_integration() {
        let e = Joules::from_power(100.0, Time::from_ms(10));
        assert!((e.as_joules() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn transfer_energy_per_gigabyte() {
        let m = PcieEnergyModel::default();
        // 1 GB at 5 pJ/bit = 1e9 * 8 * 5e-12 = 0.04 J
        let e = m.transfer_energy(1e9);
        assert!((e.as_joules() - 0.04).abs() < 1e-9);
    }

    #[test]
    fn newer_gens_cheaper_per_bit() {
        let m = PcieEnergyModel::default();
        assert!(m.scaled_for_gen(Gen::Gen5).pj_per_bit < m.scaled_for_gen(Gen::Gen4).pj_per_bit);
        assert_eq!(m.scaled_for_gen(Gen::Gen3).pj_per_bit, m.pj_per_bit);
    }

    #[test]
    fn switch_static_scales_with_count() {
        let m = PcieEnergyModel::default();
        let e1 = m.switch_static_energy(1, Time::from_secs(1));
        let e4 = m.switch_static_energy(4, Time::from_secs(1));
        assert!((e4.as_joules() / e1.as_joules() - 4.0).abs() < 1e-12);
    }
}
