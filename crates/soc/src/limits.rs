//! Reactive power limits, the power *estimator*, and the throttle governor.
//!
//! Two design decisions here carry the paper's key negative results:
//!
//! 1. The governor's feedback signal is a **model-based power estimator**
//!    (utilization × frequency × voltage² — no sensed, data-dependent
//!    component). The paper infers exactly this from the `PHPS` key pegging
//!    at 4 W during throttling while showing no data dependence: throttling
//!    "may rely on PHPS rather than actual power use, explaining the lack
//!    of data correlation" (§4). `PHPS` and the IOReport `PCPU` channel are
//!    both fed from this estimator.
//! 2. Only the **P-cluster** throttles on the reactive power limit; the
//!    E-cluster keeps its frequency (§4: E-cores stayed at 2.424 GHz).

use crate::config::SocSpec;

/// System power mode (the `pmset` setting the paper toggles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PowerMode {
    /// Default mode: generous package limit; heavy loads hit the *thermal*
    /// limit first (§4's initial observation).
    #[default]
    Normal,
    /// `pmset lowpowermode 1`: 4 W package cap and a P-cluster frequency
    /// ceiling of 1.968 GHz.
    LowPower,
}

/// Utilization-based package power estimator with exponential smoothing.
///
/// Deliberately blind to data-dependent switching activity: it sees only
/// which cores are busy and at what operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerEstimator {
    smoothed_w: f64,
    alpha: f64,
    initialized: bool,
}

impl Default for PowerEstimator {
    fn default() -> Self {
        Self::new(0.35)
    }
}

impl PowerEstimator {
    /// Estimator with smoothing factor `alpha` (1.0 = no smoothing).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1], got {alpha}");
        Self { smoothed_w: 0.0, alpha, initialized: false }
    }

    /// Feed one instantaneous model estimate; returns the smoothed value.
    pub fn update(&mut self, estimate_w: f64) -> f64 {
        if self.initialized {
            self.smoothed_w += self.alpha * (estimate_w - self.smoothed_w);
        } else {
            self.smoothed_w = estimate_w;
            self.initialized = true;
        }
        self.smoothed_w
    }

    /// Current smoothed estimate in watts.
    #[must_use]
    pub fn value_w(&self) -> f64 {
        self.smoothed_w
    }
}

/// Why the governor last throttled (if it did).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThrottleReason {
    /// Estimated package power exceeded the reactive limit.
    PowerLimit,
    /// Junction temperature reached the thermal limit.
    ThermalLimit,
}

/// The reactive-limit governor: walks the P-cluster OPP ladder in response
/// to the estimator and thermal state.
#[derive(Debug, Clone, PartialEq)]
pub struct LimitGovernor {
    mode: PowerMode,
    /// Current index into the P-cluster OPP table.
    p_index: usize,
    /// Highest index allowed in the current mode.
    p_ceiling_index: usize,
    last_throttle: Option<ThrottleReason>,
}

impl LimitGovernor {
    /// Governor starting at the P-cluster's maximum operating point.
    #[must_use]
    pub fn new(spec: &SocSpec) -> Self {
        let top = spec.p_cluster.opp.len() - 1;
        Self { mode: PowerMode::Normal, p_index: top, p_ceiling_index: top, last_throttle: None }
    }

    /// Active power mode.
    #[must_use]
    pub fn mode(&self) -> PowerMode {
        self.mode
    }

    /// Package power cap for the active mode, watts.
    #[must_use]
    pub fn power_cap_w(&self, spec: &SocSpec) -> f64 {
        match self.mode {
            PowerMode::Normal => spec.platform.power_limit_w,
            PowerMode::LowPower => spec.platform.low_power_limit_w,
        }
    }

    /// Switch power mode (applies the lowpowermode frequency ceiling).
    pub fn set_mode(&mut self, spec: &SocSpec, mode: PowerMode) {
        self.mode = mode;
        let opp = &spec.p_cluster.opp;
        self.p_ceiling_index = match mode {
            PowerMode::Normal => opp.len() - 1,
            PowerMode::LowPower => {
                let cap = spec.platform.low_power_p_freq_cap_ghz;
                opp.nearest_index(opp.highest_at_most(cap).freq_ghz)
            }
        };
        self.p_index = self.p_index.min(self.p_ceiling_index);
        self.last_throttle = None;
    }

    /// Current P-cluster frequency in GHz.
    #[must_use]
    pub fn p_freq_ghz(&self, spec: &SocSpec) -> f64 {
        spec.p_cluster.opp.points()[self.p_index].freq_ghz
    }

    /// Current P-cluster voltage in volts.
    #[must_use]
    pub fn p_voltage_v(&self, spec: &SocSpec) -> f64 {
        spec.p_cluster.opp.points()[self.p_index].voltage_v
    }

    /// E-cluster operating point: pinned at the cluster maximum — the
    /// reactive limit never throttles E-cores (§4).
    #[must_use]
    pub fn e_freq_ghz(&self, spec: &SocSpec) -> f64 {
        spec.e_cluster.opp.max().freq_ghz
    }

    /// E-cluster voltage.
    #[must_use]
    pub fn e_voltage_v(&self, spec: &SocSpec) -> f64 {
        spec.e_cluster.opp.max().voltage_v
    }

    /// Whether the P-cluster is currently below its mode ceiling.
    #[must_use]
    pub fn is_throttled(&self) -> bool {
        self.p_index < self.p_ceiling_index
    }

    /// The reason for the most recent downward step, if any.
    #[must_use]
    pub fn last_throttle(&self) -> Option<ThrottleReason> {
        self.last_throttle
    }

    /// One governor evaluation: react to the smoothed power estimate and
    /// the junction temperature. Returns the throttle action taken.
    pub fn evaluate(
        &mut self,
        spec: &SocSpec,
        estimated_power_w: f64,
        temperature_c: f64,
    ) -> Option<ThrottleReason> {
        let cap = self.power_cap_w(spec);
        let thermal_limit = spec.thermal.limit_c;

        if temperature_c >= thermal_limit {
            if self.p_index > 0 {
                self.p_index -= 1;
            }
            self.last_throttle = Some(ThrottleReason::ThermalLimit);
            return Some(ThrottleReason::ThermalLimit);
        }
        if estimated_power_w > cap {
            if self.p_index > 0 {
                self.p_index -= 1;
            }
            self.last_throttle = Some(ThrottleReason::PowerLimit);
            return Some(ThrottleReason::PowerLimit);
        }
        // Recover one step when comfortably below both limits.
        if estimated_power_w < cap * 0.94
            && temperature_c < thermal_limit - 4.0
            && self.p_index < self.p_ceiling_index
        {
            self.p_index += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SocSpec;

    fn spec() -> SocSpec {
        SocSpec::macbook_air_m2()
    }

    #[test]
    fn estimator_smooths_toward_input() {
        let mut est = PowerEstimator::new(0.5);
        assert_eq!(est.update(10.0), 10.0, "first sample initializes");
        let v = est.update(20.0);
        assert!((v - 15.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn estimator_rejects_bad_alpha() {
        let _ = PowerEstimator::new(0.0);
    }

    #[test]
    fn governor_starts_at_max() {
        let s = spec();
        let g = LimitGovernor::new(&s);
        assert!((g.p_freq_ghz(&s) - 3.504).abs() < 1e-9);
        assert!(!g.is_throttled());
    }

    #[test]
    fn lowpowermode_caps_p_at_1968() {
        let s = spec();
        let mut g = LimitGovernor::new(&s);
        g.set_mode(&s, PowerMode::LowPower);
        assert!((g.p_freq_ghz(&s) - 1.968).abs() < 1e-9);
        assert_eq!(g.power_cap_w(&s), 4.0);
        // E-cluster unaffected: stays at 2.424 GHz (§4).
        assert!((g.e_freq_ghz(&s) - 2.424).abs() < 1e-9);
    }

    #[test]
    fn power_over_cap_steps_down_only_p() {
        let s = spec();
        let mut g = LimitGovernor::new(&s);
        g.set_mode(&s, PowerMode::LowPower);
        let f_before = g.p_freq_ghz(&s);
        let action = g.evaluate(&s, 4.5, 40.0);
        assert_eq!(action, Some(ThrottleReason::PowerLimit));
        assert!(g.p_freq_ghz(&s) < f_before);
        assert!(g.is_throttled());
        assert!((g.e_freq_ghz(&s) - 2.424).abs() < 1e-9, "E-cores never throttle");
    }

    #[test]
    fn thermal_limit_takes_priority() {
        let s = spec();
        let mut g = LimitGovernor::new(&s);
        let action = g.evaluate(&s, 1.0, 105.0);
        assert_eq!(action, Some(ThrottleReason::ThermalLimit));
        assert_eq!(g.last_throttle(), Some(ThrottleReason::ThermalLimit));
    }

    #[test]
    fn recovers_when_below_cap() {
        let s = spec();
        let mut g = LimitGovernor::new(&s);
        g.set_mode(&s, PowerMode::LowPower);
        g.evaluate(&s, 4.5, 40.0);
        g.evaluate(&s, 4.5, 40.0);
        assert!(g.is_throttled());
        for _ in 0..10 {
            g.evaluate(&s, 2.0, 40.0);
        }
        assert!(!g.is_throttled(), "steps back up to the mode ceiling");
        assert!((g.p_freq_ghz(&s) - 1.968).abs() < 1e-9);
    }

    #[test]
    fn never_steps_below_lowest_opp() {
        let s = spec();
        let mut g = LimitGovernor::new(&s);
        g.set_mode(&s, PowerMode::LowPower);
        for _ in 0..100 {
            g.evaluate(&s, 99.0, 40.0);
        }
        assert!((g.p_freq_ghz(&s) - s.p_cluster.opp.min().freq_ghz).abs() < 1e-9);
    }

    #[test]
    fn returning_to_normal_restores_ceiling() {
        let s = spec();
        let mut g = LimitGovernor::new(&s);
        g.set_mode(&s, PowerMode::LowPower);
        g.set_mode(&s, PowerMode::Normal);
        for _ in 0..20 {
            g.evaluate(&s, 1.0, 30.0);
        }
        assert!((g.p_freq_ghz(&s) - 3.504).abs() < 1e-9);
        assert_eq!(g.power_cap_w(&s), s.platform.power_limit_w);
    }

    #[test]
    fn hysteresis_holds_near_cap() {
        let s = spec();
        let mut g = LimitGovernor::new(&s);
        g.set_mode(&s, PowerMode::LowPower);
        g.evaluate(&s, 4.5, 40.0); // throttle once
        let idx_freq = g.p_freq_ghz(&s);
        // 3.9 W is under the cap but above the 0.94 recovery threshold.
        g.evaluate(&s, 3.9, 40.0);
        assert_eq!(g.p_freq_ghz(&s), idx_freq, "no oscillation in the hysteresis band");
    }
}
