//! # psc-bench — reproduction harness
//!
//! Two kinds of targets live in this crate:
//!
//! * **`repro_all`** (`src/bin/`) — regenerates every table/figure of the
//!   paper at the configured scale, prints the same rows/series the paper
//!   reports and writes them to `REPORT.md` (plus `fig1a.csv` /
//!   `fig1b.csv` for plotting); `repro_all --only <target>` runs one.
//!   Scale with `PSC_TRACES` / `PSC_TVLA_TRACES` / `PSC_SHARDS` /
//!   `PSC_SEED`.
//! * **criterion benches** (`benches/`) — kernel throughput benches (AES,
//!   TVLA/CPA accumulation, SMC window simulation, bus, serve, fleet) and
//!   the ablation studies backing the calibration (`psc_aes::leakage` and
//!   `psc_smc::sensors` module docs, `Device::aes_signal`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod measure;

use psc_core::experiments::ExperimentConfig;

/// The configuration `repro_all` runs with: environment-scaled defaults.
#[must_use]
pub fn repro_config() -> ExperimentConfig {
    ExperimentConfig::from_env()
}

/// A reduced configuration for criterion experiment benches (keeps
/// `cargo bench` minutes, not hours).
#[must_use]
pub fn bench_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick();
    cfg.tvla_traces_per_class = 300;
    cfg.cpa_traces_m2 = 6_000;
    cfg.cpa_traces_m1 = 2_000;
    cfg.cpa_traces_kernel = 6_000;
    cfg.timing_traces_per_class = 30;
    cfg
}

/// Standard banner printed before every `repro_all` section.
#[must_use]
pub fn banner(artifact: &str) -> String {
    format!(
        "=== apple-power-sca reproduction: {artifact} ===\n\
         (simulated M1/M2 substrate; shapes — not absolute values — are the\n\
         reproduction target; see EXPERIMENTS.md)\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_config_smaller_than_repro_defaults() {
        let bench = bench_config();
        let repro = ExperimentConfig::default();
        assert!(bench.cpa_traces_m2 <= repro.cpa_traces_m2);
        assert!(bench.tvla_traces_per_class <= repro.tvla_traces_per_class);
    }

    #[test]
    fn banner_mentions_artifact() {
        assert!(banner("Table 4").contains("Table 4"));
    }
}
