//! # psc-bench — kernel and ablation benches
//!
//! The benches (`benches/`) time the kernels (AES, TVLA/CPA
//! accumulation, SMC window simulation, bus, serve, fleet) and run the
//! ablation studies backing the calibration (`psc_aes::leakage` and
//! `psc_smc::sensors` module docs, `Device::aes_signal`). [`measure`] is
//! their one timing harness: each bench run appends one JSON line —
//! environment, then median and IQR per kernel — to the bench history.
//! The paper's tables and figures are regenerated by `psc repro`, not
//! here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod measure;

#[cfg(test)]
mod tests {
    use std::time::Duration;

    #[test]
    fn bench_function_runs_and_prints() {
        let mut run = crate::measure::Run::new("unit_test", Duration::from_millis(5));
        let mut calls = 0u64;
        let median_ns = run.measure_ns("smoke", || calls += 1);
        assert!(calls > 9, "an estimation pass, then every one of the 9 samples: {calls}");
        assert!(median_ns.is_finite() && median_ns >= 0.0, "{median_ns}");
        let inner_ns = run.measure_ns("inner", || {
            std::hint::black_box(1 + 1);
        });
        assert!(inner_ns.is_finite() && inner_ns >= 0.0, "{inner_ns}");
    }
}
