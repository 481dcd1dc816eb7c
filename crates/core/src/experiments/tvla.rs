//! Tables 3 and 5: TVLA t-score matrices for the selected SMC keys,
//! against the user-space victim (Table 3) and the kernel-module victim
//! (Table 5), both on the MacBook Air M2.

use crate::experiments::config::ExperimentConfig;
use crate::rig::Device;
use crate::session::Campaign;
use crate::source::Schedule;
use crate::victim::VictimKind;
use psc_sca::tvla::{SecondOrderAccumulator, TvlaAccumulator, TvlaMatrix};
use psc_smc::key::key;
use psc_smc::SmcKey;
use psc_telemetry::event::ChannelId;
use psc_telemetry::processors::SecondOrderTvla;

/// Result of one TVLA table (3 or 5).
#[derive(Debug, Clone)]
pub struct TvlaTable {
    /// Which victim was attacked.
    pub victim: VictimKind,
    /// Matrices in the paper's column order (PHPC, PDTR, PHPS, PMVC, PSTR).
    pub matrices: Vec<TvlaMatrix>,
    /// Second-order (variance) matrices for the same keys — an extension
    /// beyond the paper's first-order analysis. The Random class carries a
    /// small per-trace signal variance the fixed classes lack, but the
    /// effect (≈6% of the noise variance) sits below second-order
    /// detection power at realistic trace counts: the expected result is
    /// all-null, confirming the first-order channel is the whole story.
    pub second_order: Vec<TvlaMatrix>,
    /// Traces per class per pass used.
    pub traces_per_class: usize,
}

/// The paper's Table 3/5 column order.
#[must_use]
pub fn table3_key_order() -> Vec<SmcKey> {
    vec![key("PHPC"), key("PDTR"), key("PHPS"), key("PMVC"), key("PSTR")]
}

fn run_tvla_table(cfg: &ExperimentConfig, victim: VictimKind) -> TvlaTable {
    let keys = table3_key_order();
    let tvla = Campaign::live(Device::MacbookAirM2, victim, cfg.secret_key, cfg.seed)
        .keys(&keys)
        .traces(cfg.tvla_traces_per_class)
        .session()
        .analyze(|n| Schedule::Tvla { traces_per_class: n }, |_| SecondOrderTvla::new())
        .into_analysis()
        .expect("the campaign's one shard survives");
    // A channel whose every read was denied keeps an empty (all-zero) matrix.
    let matrices = keys
        .iter()
        .map(|&k| {
            let acc = tvla.first_order().accumulator(ChannelId::Smc(k));
            acc.copied().unwrap_or_default().matrix(k.to_string())
        })
        .collect();
    let second_order = keys
        .iter()
        .map(|&k| {
            tvla.second_order_matrix(ChannelId::Smc(k), k.to_string())
                .unwrap_or_else(|| SecondOrderAccumulator::default().matrix(k.to_string()))
        })
        .collect();
    TvlaTable { victim, matrices, second_order, traces_per_class: cfg.tvla_traces_per_class }
}

/// Table 3: user-space AES victim.
#[must_use]
pub fn run_table3(cfg: &ExperimentConfig) -> TvlaTable {
    run_tvla_table(cfg, VictimKind::UserSpace)
}

/// Table 5: kernel-module AES victim.
#[must_use]
pub fn run_table5(cfg: &ExperimentConfig) -> TvlaTable {
    run_tvla_table(cfg, VictimKind::KernelModule)
}

/// §3.3's closing check: TVLA on `PHPC` traces collected on the **M1**
/// platform, "affirming a similar data-dependency pattern for the PHPC key
/// on that system as well".
#[must_use]
pub fn run_m1_phpc_tvla(cfg: &ExperimentConfig) -> TvlaMatrix {
    let seed = cfg.seed ^ 0x0117;
    let report = Campaign::live(Device::MacMiniM1, VictimKind::UserSpace, cfg.secret_key, seed)
        .keys(&[key("PHPC")])
        .traces(cfg.tvla_traces_per_class)
        .session()
        .tvla();
    let acc = report.tvla.accumulator(ChannelId::Smc(key("PHPC")));
    acc.copied().unwrap_or_else(TvlaAccumulator::new).matrix("PHPC (M1)")
}

impl TvlaTable {
    /// The matrix for one key.
    #[must_use]
    pub fn matrix(&self, k: SmcKey) -> Option<&TvlaMatrix> {
        self.matrices.iter().find(|m| m.label == k.to_string())
    }

    /// The paper's per-key verdicts:
    /// data-dependent keys and non-leaking keys.
    #[must_use]
    pub fn verdicts(&self) -> Vec<(String, &'static str)> {
        self.matrices
            .iter()
            .map(|m| {
                let verdict = if m.is_data_dependent() {
                    "data-dependent"
                } else if m.shows_no_leakage() {
                    "no data correlation"
                } else {
                    "weak/unstable correlation"
                };
                (m.label.clone(), verdict)
            })
            .collect()
    }

    /// Paper-format rendering: one 3×3 block per key plus verdicts.
    #[must_use]
    pub fn render(&self) -> String {
        let table_name = match self.victim {
            VictimKind::UserSpace => "Table 3 (user-space AES victim, MacBook Air M2)",
            VictimKind::KernelModule => "Table 5 (AES kernel module victim, MacBook Air M2)",
        };
        let mut out = format!(
            "{table_name}\nTVLA t-scores, {} traces per plaintext class per pass\n\n",
            self.traces_per_class
        );
        for m in &self.matrices {
            out.push_str(&m.render());
            let c = m.outcome_counts();
            out.push_str(&format!(
                "  outcomes: TP={} TN={} FP={} FN={}\n\n",
                c.true_positive, c.true_negative, c.false_positive, c.false_negative
            ));
        }
        out.push_str("Verdicts:\n");
        for (label, verdict) in self.verdicts() {
            out.push_str(&format!("  {label}: {verdict}\n"));
        }
        out.push_str("\nSecond-order (variance) analysis, extension:\n");
        for m in &self.second_order {
            let c = m.outcome_counts();
            out.push_str(&format!(
                "  {}: TP={} TN={} FP={} FN={}\n",
                m.label, c.true_positive, c.true_negative, c.false_positive, c.false_negative
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One shared quick run (collection dominates test time).
    fn table3() -> &'static TvlaTable {
        use std::sync::OnceLock;
        static TABLE: OnceLock<TvlaTable> = OnceLock::new();
        TABLE.get_or_init(|| {
            let mut cfg = ExperimentConfig::quick();
            cfg.tvla_traces_per_class = 400;
            run_table3(&cfg)
        })
    }

    #[test]
    fn phpc_shows_clean_data_dependence() {
        let m = table3().matrix(key("PHPC")).unwrap();
        assert!(m.is_data_dependent(), "{}", m.render());
    }

    #[test]
    fn phps_shows_no_leakage() {
        let m = table3().matrix(key("PHPS")).unwrap();
        assert!(m.shows_no_leakage(), "{}", m.render());
    }

    #[test]
    fn pstr_produces_false_outcomes() {
        let m = table3().matrix(key("PSTR")).unwrap();
        let c = m.outcome_counts();
        assert!(
            c.false_positive + c.false_negative > 0,
            "PSTR drift must corrupt the matrix: {}",
            m.render()
        );
    }

    #[test]
    fn m1_phpc_shows_the_same_pattern() {
        let mut cfg = ExperimentConfig::quick();
        cfg.tvla_traces_per_class = 400;
        let m = run_m1_phpc_tvla(&cfg);
        assert!(m.is_data_dependent(), "{}", m.render());
    }

    #[test]
    fn phps_is_null_at_second_order_too() {
        let table = table3();
        let m = table
            .second_order
            .iter()
            .find(|m| m.label == "PHPS")
            .expect("second-order PHPS matrix present");
        assert!(m.shows_no_leakage(), "{}", m.render());
    }

    #[test]
    fn second_order_adds_no_detectable_leakage_at_this_scale() {
        // The Random class inflates variance by only ≈(signal σ / noise σ)²
        // ≈ 6%, far below second-order detection power at these trace
        // counts — so the extension's finding is a clean negative: the
        // first-order channel is the whole story for these keys.
        let table = table3();
        let m = table.second_order.iter().find(|m| m.label == "PHPC").unwrap();
        let c = m.outcome_counts();
        assert_eq!(c.false_positive, 0, "{}", m.render());
        assert!(m.shows_no_leakage(), "{}", m.render());
    }

    #[test]
    fn render_has_all_five_keys() {
        let text = table3().render();
        for k in ["PHPC", "PDTR", "PHPS", "PMVC", "PSTR"] {
            assert!(text.contains(k), "missing {k}");
        }
        assert!(text.contains("Verdicts"));
    }
}
