//! Rail-level power accounting.
//!
//! The SMC keys the paper exploits each integrate a different physical rail;
//! [`PowerRails`] is the snapshot the SMC/IOReport layers sample. All values
//! are watts.

/// Instantaneous (or window-averaged) power broken down by rail.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerRails {
    /// P-cluster rail (`PHPC`'s source).
    pub p_cluster_w: f64,
    /// E-cluster rail.
    pub e_cluster_w: f64,
    /// DRAM rail (contributes to `PMVC`/`PMVR`/`PPMR`).
    pub dram_w: f64,
    /// Fabric/uncore/SoC-other power.
    pub uncore_w: f64,
    /// Total package power (sum of the above).
    pub package_w: f64,
    /// DC-in rail: package through VR losses plus platform base
    /// (`PDTR`'s source).
    pub dc_in_w: f64,
    /// Total system power (`PSTR`'s source).
    pub system_w: f64,
}

impl PowerRails {
    /// Assemble rails from component powers and platform parameters.
    #[must_use]
    pub fn assemble(
        p_cluster_w: f64,
        e_cluster_w: f64,
        dram_w: f64,
        uncore_w: f64,
        vr_efficiency: f64,
        platform_base_w: f64,
    ) -> Self {
        let package_w = p_cluster_w + e_cluster_w + dram_w + uncore_w;
        let dc_in_w = package_w / vr_efficiency + platform_base_w;
        // The "system" rail adds small always-on loads measured upstream of
        // DC-in on Apple's telemetry (battery charger, SMC itself).
        let system_w = dc_in_w * 1.02 + 0.15;
        Self { p_cluster_w, e_cluster_w, dram_w, uncore_w, package_w, dc_in_w, system_w }
    }

    /// Element-wise scale (used for window averaging).
    #[must_use]
    pub fn scaled(mut self, factor: f64) -> Self {
        self.p_cluster_w *= factor;
        self.e_cluster_w *= factor;
        self.dram_w *= factor;
        self.uncore_w *= factor;
        self.package_w *= factor;
        self.dc_in_w *= factor;
        self.system_w *= factor;
        self
    }

    /// Element-wise accumulate (used for window averaging).
    pub fn accumulate(&mut self, other: &PowerRails) {
        self.p_cluster_w += other.p_cluster_w;
        self.e_cluster_w += other.e_cluster_w;
        self.dram_w += other.dram_w;
        self.uncore_w += other.uncore_w;
        self.package_w += other.package_w;
        self.dc_in_w += other.dc_in_w;
        self.system_w += other.system_w;
    }

    /// True if every rail is finite and non-negative.
    #[must_use]
    pub fn is_physical(&self) -> bool {
        [
            self.p_cluster_w,
            self.e_cluster_w,
            self.dram_w,
            self.uncore_w,
            self.package_w,
            self.dc_in_w,
            self.system_w,
        ]
        .iter()
        .all(|w| w.is_finite() && *w >= 0.0)
    }
}

/// Dynamic power of one core at (freq, voltage, utilization):
/// `coeff · util · f · V²` — the canonical CMOS scaling the DVFS ladder
/// exploits.
#[inline]
#[must_use]
pub fn core_dynamic_power_w(coeff: f64, utilization: f64, freq_ghz: f64, voltage_v: f64) -> f64 {
    coeff * utilization.clamp(0.0, 1.0) * freq_ghz * voltage_v * voltage_v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assemble_sums_package() {
        let r = PowerRails::assemble(2.0, 0.5, 0.4, 0.6, 0.9, 1.5);
        assert!((r.package_w - 3.5).abs() < 1e-12);
        assert!((r.dc_in_w - (3.5 / 0.9 + 1.5)).abs() < 1e-12);
        assert!(r.system_w > r.dc_in_w);
        assert!(r.is_physical());
    }

    #[test]
    fn dynamic_power_scales_with_f_v2() {
        let p1 = core_dynamic_power_w(0.6, 1.0, 1.0, 1.0);
        let p2 = core_dynamic_power_w(0.6, 1.0, 2.0, 1.0);
        let p3 = core_dynamic_power_w(0.6, 1.0, 1.0, 2.0);
        assert!((p2 - 2.0 * p1).abs() < 1e-12);
        assert!((p3 - 4.0 * p1).abs() < 1e-12);
    }

    #[test]
    fn utilization_clamped() {
        assert_eq!(core_dynamic_power_w(1.0, -0.5, 1.0, 1.0), 0.0);
        assert_eq!(
            core_dynamic_power_w(1.0, 2.0, 1.0, 1.0),
            core_dynamic_power_w(1.0, 1.0, 1.0, 1.0)
        );
    }

    #[test]
    fn accumulate_and_scale_average() {
        let a = PowerRails::assemble(1.0, 1.0, 1.0, 1.0, 1.0, 0.0);
        let b = PowerRails::assemble(3.0, 3.0, 3.0, 3.0, 1.0, 0.0);
        let mut acc = PowerRails::default();
        acc.accumulate(&a);
        acc.accumulate(&b);
        let avg = acc.scaled(0.5);
        assert!((avg.p_cluster_w - 2.0).abs() < 1e-12);
        assert!((avg.package_w - 8.0).abs() < 1e-12);
    }

    #[test]
    fn default_is_physical_zero() {
        let r = PowerRails::default();
        assert!(r.is_physical());
        assert_eq!(r.package_w, 0.0);
    }
}
