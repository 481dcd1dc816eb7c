//! Figure 1: Guessing-Entropy convergence curves.
//!
//! * Fig. 1(a): GE vs number of `PHPC` traces for the **user-space** AES
//!   victim on both M1 and M2, under all three power models.
//! * Fig. 1(b): the same for the **kernel-module** victim on the M2.
//!
//! The qualitative claims to reproduce: GE decreases with more traces;
//! `Rd0-HW` converges fastest, `Rd10-HW` slower, `Rd10-HD` not at all; and
//! the kernel victim converges ≈2× slower than the user-space victim.

use crate::experiments::config::ExperimentConfig;
use crate::experiments::cpa::{m1_phpc_campaign, m2_kernel_campaign, m2_user_campaign};
use crate::session::Campaign;
use crate::source::Schedule;
use psc_aes::Aes;
use psc_sca::cpa::Cpa;
use psc_sca::model::{Rd0Hw, Rd10Hd, Rd10Hw, RecoveredRound};
use psc_sca::rank::{guessing_entropy, log_checkpoints, GeCurve, GePoint};
use psc_smc::key::key;
use psc_telemetry::event::ChannelId;
use psc_telemetry::processors::cpa::ModelFactory;
use psc_telemetry::processors::CpaGrid;

/// One figure's worth of curves.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1 {
    /// Figure label (`Fig 1(a)` / `Fig 1(b)`).
    pub label: String,
    /// GE curves (channel × model).
    pub curves: Vec<GeCurve>,
}

/// The paper's three power models, in figure order.
const MODELS: [ModelFactory; 3] = [|| Box::new(Rd0Hw), || Box::new(Rd10Hw), || Box::new(Rd10Hd)];

/// Run `campaign` and compute the GE curves of its `PHPC` channel under
/// all three paper models, at log-spaced trace counts (counted over the
/// first *n* traces in shard order).
///
/// # Panics
///
/// Panics if every campaign shard failed.
#[must_use]
pub fn curves_for(campaign: Campaign, secret_key: &[u8; 16], channel: &str) -> Vec<GeCurve> {
    let k10 = *Aes::new(secret_key).expect("valid key").schedule().round_key(10);
    let session = campaign.session();
    let total = session.spec().traces;
    let max = total.max(2);
    let checkpoints = log_checkpoints((max / 100).max(50).min(max), max, 4);
    let grid = session
        .analyze(
            |n| Schedule::KnownPlaintext { traces: n },
            |slice| CpaGrid::new(ChannelId::Smc(key("PHPC")), &MODELS, &checkpoints, slice),
        )
        .into_analysis()
        .expect("at least one campaign shard survives");
    let mut points: Vec<(usize, &[Cpa])> =
        grid.points().iter().map(|(n, cpas)| (*n, cpas.as_slice())).collect();
    // A trailing point at the full campaign size when the grid lacks one.
    if total > 0 && points.last().is_none_or(|&(n, _)| n != total) {
        points.push((total, grid.cpas()));
    }
    MODELS
        .iter()
        .enumerate()
        .map(|(m, model)| {
            let model = model();
            let true_key = match model.recovered_round() {
                RecoveredRound::Round0 => *secret_key,
                RecoveredRound::Round10 => k10,
            };
            GeCurve {
                channel: channel.to_owned(),
                model: model.name().to_owned(),
                points: points
                    .iter()
                    .map(|(n, cpas)| GePoint {
                        traces: *n,
                        ge: guessing_entropy(&cpas[m].ranks(&true_key)),
                    })
                    .collect(),
            }
        })
        .collect()
}

/// Fig. 1(a): user-space victim, M2 and M1.
#[must_use]
pub fn run_fig1a(cfg: &ExperimentConfig) -> Fig1 {
    let mut curves = curves_for(m2_user_campaign(cfg), &cfg.secret_key, "PHPC (M2 user)");
    curves.extend(curves_for(m1_phpc_campaign(cfg), &cfg.secret_key, "PHPC (M1 user)"));
    Fig1 { label: "Fig 1(a)".to_owned(), curves }
}

/// Fig. 1(b): kernel-module victim, M2.
#[must_use]
pub fn run_fig1b(cfg: &ExperimentConfig) -> Fig1 {
    let curves = curves_for(m2_kernel_campaign(cfg), &cfg.secret_key, "PHPC (M2 kernel)");
    Fig1 { label: "Fig 1(b)".to_owned(), curves }
}

impl Fig1 {
    /// Find a curve by channel + model.
    #[must_use]
    pub fn curve(&self, channel: &str, model: &str) -> Option<&GeCurve> {
        self.curves.iter().find(|c| c.channel == channel && c.model == model)
    }

    /// CSV export (long format: series, traces, ge) for external plotting.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("channel,model,traces,ge_bits\n");
        for curve in &self.curves {
            for p in &curve.points {
                out.push_str(&format!(
                    "{},{},{},{:.3}\n",
                    curve.channel, curve.model, p.traces, p.ge
                ));
            }
        }
        out
    }

    /// Series rendering: one line per checkpoint per curve, followed by a
    /// compact ASCII chart (log-x, GE 0..128 on y).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("{}: Guessing entropy vs collected PHPC traces\n", self.label);
        for curve in &self.curves {
            out.push_str(&format!("\n  series: {} / {}\n", curve.channel, curve.model));
            out.push_str("    traces        GE (bits)\n");
            for p in &curve.points {
                out.push_str(&format!("    {:>8}      {:>8.1}\n", p.traces, p.ge));
            }
        }
        out.push('\n');
        out.push_str(&self.render_chart(56, 14));
        out
    }

    /// A compact ASCII chart of all curves: log-scaled x (trace count),
    /// linear y (GE in bits, 0 at the bottom). Each curve is drawn with a
    /// digit keyed in the legend.
    #[must_use]
    pub fn render_chart(&self, width: usize, height: usize) -> String {
        let max_traces = self
            .curves
            .iter()
            .flat_map(|c| c.points.iter().map(|p| p.traces))
            .max()
            .unwrap_or(1)
            .max(2) as f64;
        let min_traces = self
            .curves
            .iter()
            .flat_map(|c| c.points.iter().map(|p| p.traces))
            .min()
            .unwrap_or(1)
            .max(1) as f64;
        let max_ge = 128.0f64;
        let mut grid = vec![vec![b' '; width]; height];
        for (ci, curve) in self.curves.iter().enumerate() {
            let symbol = char::from_digit((ci % 10) as u32, 10).unwrap_or('?') as u8;
            for p in &curve.points {
                let x = if max_traces > min_traces {
                    ((p.traces as f64 / min_traces).ln() / (max_traces / min_traces).ln()
                        * (width - 1) as f64)
                        .round() as usize
                } else {
                    0
                };
                let y_frac = (p.ge / max_ge).clamp(0.0, 1.0);
                let y = ((1.0 - y_frac) * (height - 1) as f64).round() as usize;
                grid[y.min(height - 1)][x.min(width - 1)] = symbol;
            }
        }
        let mut out = String::new();
        out.push_str(&format!("  GE {max_ge:>5.0} ┐\n"));
        for (row_idx, row) in grid.iter().enumerate() {
            let label = if row_idx == height - 1 { "     0 ┘" } else { "       │" }.to_owned();
            out.push_str(&format!("  {label}{}\n", String::from_utf8_lossy(row)));
        }
        out.push_str(&format!(
            "          {:<width$}\n",
            format!("{min_traces:.0} … traces (log) … {max_traces:.0}"),
            width = width
        ));
        for (ci, curve) in self.curves.iter().enumerate() {
            out.push_str(&format!("    [{}] {} / {}\n", ci % 10, curve.channel, curve.model));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn fig1a() -> &'static Fig1 {
        static FIG: OnceLock<Fig1> = OnceLock::new();
        FIG.get_or_init(|| {
            let mut cfg = ExperimentConfig::quick();
            cfg.cpa_traces_m2 = 12_000;
            cfg.cpa_traces_m1 = 3_000;
            run_fig1a(&cfg)
        })
    }

    #[test]
    fn six_series_present() {
        let fig = fig1a();
        assert_eq!(fig.curves.len(), 6, "2 devices × 3 models");
        assert!(fig.curve("PHPC (M2 user)", "Rd0-HW").is_some());
        assert!(fig.curve("PHPC (M1 user)", "Rd10-HD").is_some());
    }

    #[test]
    fn rd0_converges_and_beats_rd10hd() {
        let fig = fig1a();
        let rd0 = fig.curve("PHPC (M2 user)", "Rd0-HW").unwrap();
        let hd = fig.curve("PHPC (M2 user)", "Rd10-HD").unwrap();
        assert!(rd0.converges_by(20.0), "Rd0-HW must converge: {:?}", rd0.points);
        assert!(
            rd0.final_ge() + 20.0 < hd.final_ge(),
            "Rd0-HW {} must end far below Rd10-HD {}",
            rd0.final_ge(),
            hd.final_ge()
        );
    }

    #[test]
    fn rd10hw_between_rd0_and_hd() {
        let fig = fig1a();
        let rd0 = fig.curve("PHPC (M2 user)", "Rd0-HW").unwrap().final_ge();
        let rd10 = fig.curve("PHPC (M2 user)", "Rd10-HW").unwrap().final_ge();
        let hd = fig.curve("PHPC (M2 user)", "Rd10-HD").unwrap().final_ge();
        assert!(rd0 <= rd10 + 8.0, "rd0 {rd0} vs rd10 {rd10}");
        assert!(rd10 < hd, "rd10 {rd10} must beat hd {hd}");
    }

    #[test]
    fn csv_export_has_all_series() {
        let fig = fig1a();
        let csv = fig.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "channel,model,traces,ge_bits");
        let expected_rows: usize = fig.curves.iter().map(|c| c.points.len()).sum();
        assert_eq!(lines.len(), expected_rows + 1);
        assert!(csv.contains("Rd10-HD"));
    }

    #[test]
    fn ascii_chart_draws_every_curve() {
        let fig = fig1a();
        let chart = fig.render_chart(48, 12);
        for ci in 0..fig.curves.len() {
            assert!(chart.contains(&format!("[{ci}]")), "legend entry {ci} missing");
        }
        assert!(chart.lines().count() > 12);
    }

    #[test]
    fn render_mentions_models() {
        let text = fig1a().render();
        for m in ["Rd0-HW", "Rd10-HW", "Rd10-HD"] {
            assert!(text.contains(m));
        }
    }
}
