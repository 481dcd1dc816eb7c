//! Countermeasures (§5 of the paper).
//!
//! Modeled after the vendors' PLATYPUS responses the paper cites:
//! Linux dropped unprivileged RAPL access (CVE-2020-8694/-12912) and Intel
//! added a filtering mode that blends random energy noise and stretches the
//! update interval. The same three knobs apply to SMC keys:

/// Active mitigation configuration of the SMC firmware / driver stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MitigationConfig {
    /// Deny unprivileged reads of power-related keys (the "remove user
    /// space access" countermeasure).
    pub restrict_power_keys: bool,
    /// Extra Gaussian noise σ (watts) blended into every published
    /// power-related value (the "RAPL filtering" style countermeasure).
    pub extra_noise_sigma_w: f64,
    /// Multiplier on the SMC update interval (≥ 1.0); fewer samples per
    /// unit time means fewer traces for the attacker.
    pub update_interval_multiplier: f64,
}

impl Default for MitigationConfig {
    fn default() -> Self {
        Self::none()
    }
}

impl MitigationConfig {
    /// No mitigation — the state of shipping macOS at publication time
    /// ("no indication that Apple has implemented specific mitigation").
    #[must_use]
    pub fn none() -> Self {
        Self {
            restrict_power_keys: false,
            extra_noise_sigma_w: 0.0,
            update_interval_multiplier: 1.0,
        }
    }

    /// Access restriction only.
    #[must_use]
    pub fn restrict_access() -> Self {
        Self { restrict_power_keys: true, ..Self::none() }
    }

    /// Noise blending at the given σ.
    #[must_use]
    pub fn noise_blend(sigma_w: f64) -> Self {
        Self { extra_noise_sigma_w: sigma_w, ..Self::none() }
    }

    /// Update-interval stretching by `factor`.
    #[must_use]
    pub fn slow_updates(factor: f64) -> Self {
        Self { update_interval_multiplier: factor.max(1.0), ..Self::none() }
    }

    /// Whether any mitigation is active.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.restrict_power_keys
            || self.extra_noise_sigma_w > 0.0
            || self.update_interval_multiplier > 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inactive() {
        assert!(!MitigationConfig::none().is_active());
        assert!(!MitigationConfig::default().is_active());
    }

    #[test]
    fn presets_are_active() {
        assert!(MitigationConfig::restrict_access().is_active());
        assert!(MitigationConfig::noise_blend(0.01).is_active());
        assert!(MitigationConfig::slow_updates(4.0).is_active());
    }

    #[test]
    fn slow_updates_clamps_below_one() {
        let m = MitigationConfig::slow_updates(0.5);
        assert_eq!(m.update_interval_multiplier, 1.0);
        assert!(!m.is_active());
    }
}
