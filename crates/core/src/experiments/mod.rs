//! One runner per table/figure of the paper, plus shared configuration.
//!
//! | Paper artifact | Runner |
//! |---|---|
//! | Table 1 (device specs) | [`screening::run_table1`] |
//! | Table 2 (workload-dependent keys) | [`screening::run_table2`] |
//! | Table 3 (TVLA, user victim) | [`tvla::run_table3`] |
//! | Table 4 (CPA ranks + GE) | [`cpa::run_table4`] |
//! | Table 5 (TVLA, kernel victim) | [`tvla::run_table5`] |
//! | Table 6 (PCPU + timing nulls) | [`table6::run_table6`] |
//! | Fig. 1(a) (GE curves, user) | [`fig1::run_fig1a`] |
//! | Fig. 1(b) (GE curves, kernel) | [`fig1::run_fig1b`] |
//! | §4 narrative (throttling) | [`throttling::run_throttling_study`] |
//! | §5 countermeasures | [`countermeasure::run_countermeasures`] |
//!
//! [`TARGETS`] lists them in report order, each with the name
//! `psc repro --only <name>` selects and its rendering.

pub mod config;
pub mod countermeasure;
pub mod cpa;
pub mod fig1;
pub mod screening;
pub mod success_rate;
pub mod table6;
pub mod throttling;
pub mod tvla;

pub use config::ExperimentConfig;

/// One reproduction target: `--only` name, report section title, and
/// the runner that renders the section.
pub type Target = (&'static str, &'static str, fn(&ExperimentConfig) -> String);

/// Every reproduction target, in report order. The success-rate
/// extension runs a ¼×…2× ladder around `cpa_traces_m2`; the Fig. 1
/// runners also write their curves to `fig1a.csv` / `fig1b.csv` in the
/// working directory.
pub const TARGETS: [Target; 11] = [
    ("table1", "Table 1", |_| screening::run_table1().render()),
    ("table2", "Table 2", |cfg| screening::run_table2(cfg).render()),
    ("table3", "Table 3", |cfg| tvla::run_table3(cfg).render()),
    ("table4", "Table 4", |cfg| cpa::run_table4(cfg).render()),
    ("table5", "Table 5", |cfg| tvla::run_table5(cfg).render()),
    ("table6", "Table 6", |cfg| table6::run_table6(cfg).render()),
    ("fig1a", "Fig 1(a)", |cfg| plotted("fig1a.csv", fig1::run_fig1a(cfg))),
    ("fig1b", "Fig 1(b)", |cfg| plotted("fig1b.csv", fig1::run_fig1b(cfg))),
    ("throttling", "Section 4 (throttling)", |cfg| throttling::run_throttling_study(cfg).render()),
    ("countermeasures", "Section 5 (countermeasures)", |cfg| {
        countermeasure::run_countermeasures(cfg).render()
    }),
    ("success_rate", "Extension (success rate)", |cfg| {
        let max = cfg.cpa_traces_m2;
        success_rate::run_success_rate(cfg, &[max / 4, max / 2, max, max * 2], 5).render()
    }),
];

/// Write a figure's CSV to the working directory and return its rendering.
fn plotted(csv: &str, fig: fig1::Fig1) -> String {
    if let Err(e) = std::fs::write(csv, fig.to_csv()) {
        eprintln!("could not write {csv}: {e}");
    }
    fig.render()
}

/// The banner printed before every reproduction section.
#[must_use]
pub fn banner(artifact: &str) -> String {
    format!(
        "=== apple-power-sca reproduction: {artifact} ===\n\
         (simulated M1/M2 substrate; shapes, not absolute values, are the\n\
         reproduction target: it needs far fewer traces than the paper's devices)\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_mentions_artifact() {
        assert!(banner("Table 4").contains("Table 4"));
    }

    #[test]
    fn target_names_are_unique() {
        let mut names = TARGETS.map(|(name, ..)| name);
        names.sort_unstable();
        assert!(names.windows(2).all(|w| w[0] != w[1]), "{names:?}");
    }
}
