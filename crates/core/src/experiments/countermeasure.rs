//! §5 countermeasure evaluation (extension beyond the paper's qualitative
//! discussion): quantify how each proposed mitigation degrades the CPA
//! attack on `PHPC`.
//!
//! * **Access restriction** — the PLATYPUS-response style fix: unprivileged
//!   reads of power keys fail, so the attacker collects nothing.
//! * **Noise blending** — extra Gaussian noise in published values lowers
//!   the SNR; GE stays high at the same trace budget.
//! * **Slower updates** — stretching the update interval divides the
//!   attacker's trace rate; at a fixed wall-clock budget the trace count
//!   (and hence recovery) drops.

use crate::experiments::config::ExperimentConfig;
use crate::rig::Device;
use crate::session::Campaign;
use crate::victim::VictimKind;
use psc_sca::model::Rd0Hw;
use psc_sca::rank::{guessing_entropy, recovery_tally};
use psc_smc::key::key;
use psc_smc::MitigationConfig;
use psc_telemetry::event::ChannelId;

/// Result of one mitigation scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct CountermeasureRow {
    /// Scenario name.
    pub name: String,
    /// Traces the attacker obtained within the wall-clock budget.
    pub traces_collected: usize,
    /// Whether the channel was readable at all.
    pub readable: bool,
    /// Guessing entropy after CPA (None when unreadable).
    pub ge: Option<f64>,
    /// Bytes recovered at rank 1 (0 when unreadable).
    pub recovered_bytes: usize,
}

/// The countermeasure study.
#[derive(Debug, Clone, PartialEq)]
pub struct CountermeasureStudy {
    /// Scenario rows: baseline first.
    pub rows: Vec<CountermeasureRow>,
}

fn scenario(
    cfg: &ExperimentConfig,
    name: &str,
    mitigation: MitigationConfig,
    wall_clock_windows: usize,
) -> CountermeasureRow {
    // The interval multiplier divides the trace rate at fixed wall clock.
    let traces = (wall_clock_windows as f64 / mitigation.update_interval_multiplier) as usize;
    let report = Campaign::live(
        Device::MacbookAirM2,
        VictimKind::UserSpace,
        cfg.secret_key,
        cfg.seed ^ 0xC0DE,
    )
    .keys(&[key("PHPC")])
    .traces(traces)
    .shards(cfg.shards)
    .mitigation(mitigation)
    .session()
    .cpa(|| Box::new(Rd0Hw));
    let cpa = report.cpa.cpa(ChannelId::Smc(key("PHPC"))).expect("registered");
    if cpa.trace_count() == 0 {
        return CountermeasureRow {
            name: name.to_owned(),
            traces_collected: 0,
            readable: false,
            ge: None,
            recovered_bytes: 0,
        };
    }
    let ranks = cpa.ranks(&cfg.secret_key);
    CountermeasureRow {
        name: name.to_owned(),
        traces_collected: cpa.trace_count() as usize,
        readable: true,
        ge: Some(guessing_entropy(&ranks)),
        recovered_bytes: recovery_tally(&ranks).0,
    }
}

/// Run the four scenarios at the configured CPA budget.
#[must_use]
pub fn run_countermeasures(cfg: &ExperimentConfig) -> CountermeasureStudy {
    let budget = cfg.cpa_traces_m2;
    let rows = vec![
        scenario(cfg, "no mitigation (baseline)", MitigationConfig::none(), budget),
        scenario(cfg, "restrict user-space access", MitigationConfig::restrict_access(), budget),
        scenario(cfg, "noise blending (σ = 20 mW)", MitigationConfig::noise_blend(0.020), budget),
        scenario(cfg, "update interval × 4", MitigationConfig::slow_updates(4.0), budget),
    ];
    CountermeasureStudy { rows }
}

impl CountermeasureStudy {
    /// Row lookup by name prefix.
    #[must_use]
    pub fn row(&self, prefix: &str) -> Option<&CountermeasureRow> {
        self.rows.iter().find(|r| r.name.starts_with(prefix))
    }

    /// Rendering for the repro binary.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Section 5 extension: countermeasure efficacy against PHPC CPA\n\n\
             scenario                         traces   readable        GE   recovered\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<32} {:>7}   {:>8}   {:>7}   {:>9}\n",
                r.name,
                r.traces_collected,
                r.readable,
                r.ge.map_or_else(|| "—".to_owned(), |g| format!("{g:.1}")),
                r.recovered_bytes
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn study() -> &'static CountermeasureStudy {
        static STUDY: OnceLock<CountermeasureStudy> = OnceLock::new();
        STUDY.get_or_init(|| {
            let mut cfg = ExperimentConfig::quick();
            cfg.cpa_traces_m2 = 8_000;
            run_countermeasures(&cfg)
        })
    }

    #[test]
    fn baseline_attack_works() {
        let base = study().row("no mitigation").unwrap();
        assert!(base.readable);
        assert!(base.ge.unwrap() < 90.0, "baseline GE {:?}", base.ge);
    }

    #[test]
    fn access_restriction_defeats_attack() {
        let row = study().row("restrict").unwrap();
        assert!(!row.readable);
        assert_eq!(row.traces_collected, 0);
        assert_eq!(row.ge, None);
        assert_eq!(row.recovered_bytes, 0);
    }

    #[test]
    fn noise_blending_degrades_ge() {
        let base = study().row("no mitigation").unwrap().ge.unwrap();
        let noisy = study().row("noise blending").unwrap().ge.unwrap();
        assert!(noisy > base + 15.0, "noise GE {noisy} vs baseline {base}");
    }

    #[test]
    fn slower_updates_reduce_traces() {
        let base = study().row("no mitigation").unwrap();
        let slow = study().row("update interval").unwrap();
        assert_eq!(slow.traces_collected, base.traces_collected / 4);
        assert!(slow.ge.unwrap() >= base.ge.unwrap(), "{:?} vs {:?}", slow.ge, base.ge);
    }

    #[test]
    fn render_lists_all_scenarios() {
        let text = study().render();
        assert!(text.contains("baseline"));
        assert!(text.contains("restrict"));
        assert!(text.contains("noise"));
        assert!(text.contains("interval"));
    }
}
