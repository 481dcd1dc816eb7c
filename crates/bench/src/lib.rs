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
    fn banner_mentions_artifact() {
        assert!(banner("Table 4").contains("Table 4"));
    }
}
