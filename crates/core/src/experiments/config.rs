//! Shared experiment configuration and scaled defaults.
//!
//! The paper's full campaigns (1 M traces on M2, 350 k on M1) are
//! CPU-minutes of simulation; the defaults below are sized so every
//! experiment finishes in seconds while preserving the qualitative results.
//! Scale up with environment variables (`PSC_TRACES`, `PSC_TVLA_TRACES`,
//! `PSC_SHARDS`, `PSC_SEED`) or by constructing the config directly.

use crate::spec::{parse_seed, parse_shards, parse_traces};

/// The default victim secret key used across experiments.
///
/// Its Hamming weight (87) sits above the 64 average, which — exactly like
/// a "lucky" key on real hardware — gives the fixed-vs-fixed TVLA classes
/// a healthy first-round power contrast at the scaled trace counts. CPA
/// difficulty is unaffected (it works per byte on random plaintexts).
pub const DEFAULT_SECRET_KEY: [u8; 16] = [
    0xB7, 0x6F, 0xEB, 0x3E, 0xD5, 0x9D, 0x77, 0xFA, 0xCE, 0xBB, 0x67, 0xF3, 0x5E, 0xAD, 0xD9, 0x7C,
];

/// Tunable knobs shared by all experiment runners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentConfig {
    /// Master seed for all simulation randomness.
    pub seed: u64,
    /// The victim's secret AES-128 key.
    pub secret_key: [u8; 16],
    /// TVLA: traces per plaintext class per pass (paper: 10 000).
    pub tvla_traces_per_class: usize,
    /// CPA: traces on the M2 user-space target (paper: 1 000 000).
    pub cpa_traces_m2: usize,
    /// CPA: traces on the M1 user-space target (paper: 350 000).
    pub cpa_traces_m1: usize,
    /// CPA: traces on the M2 kernel-module target (paper: 1 000 000).
    pub cpa_traces_kernel: usize,
    /// Timing side-channel: traces per class per pass (§4 campaign).
    pub timing_traces_per_class: usize,
    /// Parallel collection shards.
    pub shards: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        let shards = std::thread::available_parallelism().map_or(4, |n| n.get().min(8));
        Self {
            seed: 0x00D5_C0DE,
            secret_key: DEFAULT_SECRET_KEY,
            tvla_traces_per_class: 2_500,
            cpa_traces_m2: 10_000,
            cpa_traces_m1: 3_500,
            cpa_traces_kernel: 10_000,
            timing_traces_per_class: 300,
            shards,
        }
    }
}

impl ExperimentConfig {
    /// Defaults, then environment-variable overrides.
    ///
    /// # Errors
    ///
    /// Returns `NAME: reason` for the first variable that is set but
    /// does not parse (see [`Self::from_lookup`]).
    pub fn from_env() -> Result<Self, String> {
        Self::from_lookup(|name| std::env::var(name).ok())
    }

    /// Defaults, then the overrides `lookup` returns for `PSC_TRACES`,
    /// `PSC_TVLA_TRACES`, `PSC_SHARDS` and `PSC_SEED`. Each value goes
    /// through the parser every front end shares for that field, so a
    /// zero budget, an out-of-range shard count or a typo is refused
    /// instead of being silently ignored.
    ///
    /// # Errors
    ///
    /// Returns `NAME: reason` for the first value that does not parse.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        fn var<T>(
            lookup: &impl Fn(&str) -> Option<String>,
            name: &str,
            parse: fn(&str) -> Result<T, String>,
        ) -> Result<Option<T>, String> {
            lookup(name).map(|v| parse(&v).map_err(|e| format!("{name}: {e}"))).transpose()
        }
        let mut cfg = Self::default();
        if let Some(n) = var(&lookup, "PSC_TRACES", parse_traces)? {
            cfg.cpa_traces_m2 = n;
            cfg.cpa_traces_kernel = n;
            cfg.cpa_traces_m1 = (n / 3).max(1000);
        }
        if let Some(n) = var(&lookup, "PSC_TVLA_TRACES", parse_traces)? {
            cfg.tvla_traces_per_class = n;
        }
        if let Some(n) = var(&lookup, "PSC_SHARDS", parse_shards)? {
            cfg.shards = n;
        }
        if let Some(s) = var(&lookup, "PSC_SEED", parse_seed)? {
            cfg.seed = s;
        }
        Ok(cfg)
    }

    /// A minimal configuration for fast tests and smoke benches.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            seed: 0x00D5_C0DE,
            secret_key: DEFAULT_SECRET_KEY,
            tvla_traces_per_class: 200,
            cpa_traces_m2: 4_000,
            cpa_traces_m1: 2_000,
            cpa_traces_kernel: 4_000,
            timing_traces_per_class: 30,
            shards: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_scaled_down_from_paper() {
        let cfg = ExperimentConfig::default();
        assert!(cfg.cpa_traces_m2 < 1_000_000);
        assert!(cfg.cpa_traces_m1 < cfg.cpa_traces_m2);
        assert!(cfg.tvla_traces_per_class < 10_000);
        assert!(cfg.shards >= 1);
    }

    #[test]
    fn quick_is_smaller_than_default() {
        let quick = ExperimentConfig::quick();
        let def = ExperimentConfig::default();
        assert!(quick.cpa_traces_m2 < def.cpa_traces_m2);
        assert!(quick.tvla_traces_per_class < def.tvla_traces_per_class);
    }

    fn lookup<'a>(vars: &'a [(&str, &str)]) -> impl Fn(&str) -> Option<String> + 'a {
        |name| vars.iter().find(|(k, _)| *k == name).map(|(_, v)| (*v).to_string())
    }

    #[test]
    fn lookup_overrides_parse_through_the_shared_parsers() {
        assert_eq!(ExperimentConfig::from_lookup(lookup(&[])), Ok(ExperimentConfig::default()));
        let vars = [
            ("PSC_TRACES", "9000"),
            ("PSC_TVLA_TRACES", "40"),
            ("PSC_SHARDS", "3"),
            ("PSC_SEED", "7"),
        ];
        let cfg = ExperimentConfig::from_lookup(lookup(&vars)).expect("valid overrides");
        assert_eq!(
            (cfg.cpa_traces_m2, cfg.cpa_traces_kernel, cfg.cpa_traces_m1),
            (9000, 9000, 3000)
        );
        assert_eq!((cfg.tvla_traces_per_class, cfg.shards, cfg.seed), (40, 3, 7));
    }

    #[test]
    fn lookup_refuses_bad_overrides_by_name() {
        for (name, value) in [
            ("PSC_TRACES", "0"),
            ("PSC_TRACES", "lots"),
            ("PSC_TVLA_TRACES", "0"),
            ("PSC_SHARDS", "0"),
            ("PSC_SHARDS", "257"),
            ("PSC_SEED", "-1"),
        ] {
            let err = ExperimentConfig::from_lookup(lookup(&[(name, value)]))
                .expect_err("a bad override is refused");
            assert!(err.starts_with(&format!("{name}: ")), "{name}={value}: {err}");
        }
    }

    #[test]
    fn secret_key_has_elevated_hamming_weight() {
        let hw: u32 = DEFAULT_SECRET_KEY.iter().map(|b| b.count_ones()).sum();
        assert!(hw > 80, "hw {hw}");
        assert!(hw < 100, "not degenerate");
    }
}
