//! Lumped-RC thermal model of the package.
//!
//! `dT/dt = (P·R_th + T_amb − T) / τ`. Coarse but sufficient: the paper's
//! §4 only needs "heavy all-core load trips the thermal limit before the
//! default power limit, while a 4 W-capped lowpowermode stays cold".

use crate::config::ThermalSpec;

/// Thermal state of the package.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalModel {
    spec: ThermalSpec,
    temperature_c: f64,
}

impl ThermalModel {
    /// Start at ambient temperature.
    #[must_use]
    pub fn new(spec: ThermalSpec) -> Self {
        Self { spec, temperature_c: spec.ambient_c }
    }

    /// Current junction temperature in °C.
    #[must_use]
    pub fn temperature_c(&self) -> f64 {
        self.temperature_c
    }

    /// The configured limit in °C.
    #[must_use]
    pub fn limit_c(&self) -> f64 {
        self.spec.limit_c
    }

    /// Whether the junction is at/over the thermal limit.
    #[must_use]
    pub fn at_limit(&self) -> bool {
        self.temperature_c >= self.spec.limit_c
    }

    /// Steady-state temperature for a constant package power.
    #[must_use]
    pub fn steady_state_c(&self, package_w: f64) -> f64 {
        self.spec.ambient_c + package_w * self.spec.r_th_c_per_w
    }

    /// Advance the model by `dt_s` seconds at `package_w` watts.
    pub fn step(&mut self, package_w: f64, dt_s: f64) {
        self.step_decayed(package_w, self.decay(dt_s));
    }

    /// The relaxation factor of a `dt_s`-second step, for
    /// [`Self::step_decayed`]: callers stepping many times by the same
    /// `dt_s` compute it once.
    #[must_use]
    pub fn decay(&self, dt_s: f64) -> f64 {
        debug_assert!(dt_s >= 0.0);
        (-dt_s / self.spec.tau_s).exp()
    }

    /// [`Self::step`] with its relaxation factor `decay(dt_s)` given.
    pub fn step_decayed(&mut self, package_w: f64, decay: f64) {
        let target = self.steady_state_c(package_w);
        // Exact solution of the first-order ODE over the step.
        self.temperature_c = target + (self.temperature_c - target) * decay;
    }

    /// Reset to ambient.
    pub fn reset(&mut self) {
        self.temperature_c = self.spec.ambient_c;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ThermalSpec {
        ThermalSpec { ambient_c: 25.0, r_th_c_per_w: 5.0, tau_s: 30.0, limit_c: 99.0 }
    }

    #[test]
    fn starts_at_ambient() {
        let t = ThermalModel::new(spec());
        assert_eq!(t.temperature_c(), 25.0);
        assert!(!t.at_limit());
    }

    #[test]
    fn converges_to_steady_state() {
        let mut t = ThermalModel::new(spec());
        for _ in 0..10_000 {
            t.step(10.0, 0.1);
        }
        assert!((t.temperature_c() - 75.0).abs() < 0.01);
    }

    #[test]
    fn monotone_rise_under_constant_power() {
        let mut t = ThermalModel::new(spec());
        let mut prev = t.temperature_c();
        for _ in 0..100 {
            t.step(15.0, 0.5);
            assert!(t.temperature_c() >= prev);
            prev = t.temperature_c();
        }
    }

    #[test]
    fn cools_when_power_removed() {
        let mut t = ThermalModel::new(spec());
        for _ in 0..1000 {
            t.step(15.0, 1.0);
        }
        let hot = t.temperature_c();
        for _ in 0..1000 {
            t.step(0.0, 1.0);
        }
        assert!(t.temperature_c() < hot);
        assert!((t.temperature_c() - 25.0).abs() < 0.1);
    }

    #[test]
    fn high_power_trips_limit_low_power_does_not() {
        // 16 W → steady 105 °C > 99 °C limit; 4 W → 45 °C, never throttles.
        let mut hot = ThermalModel::new(spec());
        let mut cold = ThermalModel::new(spec());
        for _ in 0..5000 {
            hot.step(16.0, 0.5);
            cold.step(4.0, 0.5);
        }
        assert!(hot.at_limit());
        assert!(!cold.at_limit());
        assert!(cold.temperature_c() < 50.0);
    }

    #[test]
    fn bounded_by_steady_state_when_heating() {
        let mut t = ThermalModel::new(spec());
        for _ in 0..100 {
            t.step(12.0, 2.0);
            assert!(t.temperature_c() <= t.steady_state_c(12.0) + 1e-9);
        }
    }

    #[test]
    fn zero_dt_is_identity() {
        let mut t = ThermalModel::new(spec());
        t.step(50.0, 0.0);
        assert_eq!(t.temperature_c(), 25.0);
    }

    #[test]
    fn reset_returns_to_ambient() {
        let mut t = ThermalModel::new(spec());
        t.step(20.0, 100.0);
        assert!(t.temperature_c() > 25.0);
        t.reset();
        assert_eq!(t.temperature_c(), 25.0);
    }
}
