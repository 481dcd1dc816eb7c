//! Success-rate study (extension): repeat the whole PHPC CPA attack over
//! independent collection sessions and report, per trace budget, the
//! probability of full key recovery and of enumeration-feasible recovery
//! (every byte at rank ≤ 10) — the standard way to quantify the paper's
//! observation that "accumulating more traces improves the likelihood of
//! recovering all key bytes".

use crate::experiments::config::ExperimentConfig;
use crate::rig::Device;
use crate::session::Campaign;
use crate::source::Schedule;
use crate::victim::VictimKind;
use psc_sca::model::Rd0Hw;
use psc_sca::rank::{bounded_rank_rate, full_recovery_rate, guessing_entropy, NEAR_RECOVERY_RANK};
use psc_smc::key::key;
use psc_telemetry::event::ChannelId;
use psc_telemetry::processors::cpa::ModelFactory;
use psc_telemetry::processors::CpaGrid;

/// Success statistics at one trace budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuccessRatePoint {
    /// Trace budget.
    pub traces: usize,
    /// Fraction of repetitions with every byte at rank 1.
    pub full_recovery_rate: f64,
    /// Fraction with every byte at rank ≤ 10 (enumeration-feasible).
    pub bounded_rate: f64,
    /// Mean guessing entropy across repetitions, bits.
    pub mean_ge: f64,
}

/// The study result.
#[derive(Debug, Clone, PartialEq)]
pub struct SuccessRateStudy {
    /// Independent attack repetitions per point.
    pub repetitions: usize,
    /// Points in ascending trace-budget order.
    pub points: Vec<SuccessRatePoint>,
}

const RD0_HW: [ModelFactory; 1] = [|| Box::new(Rd0Hw)];

/// Run `repetitions` independent attacks, checkpointing at `trace_counts`
/// (ascending). Each repetition is a fresh collection session (fresh
/// seeds for device, victim noise and attacker plaintexts).
#[must_use]
pub fn run_success_rate(
    cfg: &ExperimentConfig,
    trace_counts: &[usize],
    repetitions: usize,
) -> SuccessRateStudy {
    assert!(!trace_counts.is_empty() && repetitions > 0, "non-trivial study required");
    let max_traces = *trace_counts.iter().max().expect("non-empty");
    // ranks_per_point[p][r] = ranks of repetition r at checkpoint p.
    let mut ranks_per_point: Vec<Vec<[usize; 16]>> =
        vec![Vec::with_capacity(repetitions); trace_counts.len()];

    for rep in 0..repetitions {
        let seed = cfg.seed.wrapping_add(90_000 + 131 * rep as u64);
        let grid =
            Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, cfg.secret_key, seed)
                .keys(&[key("PHPC")])
                .traces(max_traces)
                .session()
                .analyze(
                    |n| Schedule::KnownPlaintext { traces: n },
                    |slice| CpaGrid::new(ChannelId::Smc(key("PHPC")), &RD0_HW, trace_counts, slice),
                )
                .into_analysis()
                .expect("the campaign's one shard survives");
        for (ranks, &count) in ranks_per_point.iter_mut().zip(trace_counts) {
            // A count the campaign never reached ranks over every trace.
            let cpas = grid
                .points()
                .iter()
                .find(|(n, _)| *n == count)
                .map_or(grid.cpas(), |(_, cpas)| cpas.as_slice());
            ranks.push(cpas[0].ranks(&cfg.secret_key));
        }
    }

    let points = trace_counts
        .iter()
        .zip(&ranks_per_point)
        .map(|(&traces, ranks)| SuccessRatePoint {
            traces,
            full_recovery_rate: full_recovery_rate(ranks),
            bounded_rate: bounded_rank_rate(ranks, NEAR_RECOVERY_RANK),
            mean_ge: ranks.iter().map(guessing_entropy).sum::<f64>() / ranks.len() as f64,
        })
        .collect();
    SuccessRateStudy { repetitions, points }
}

impl SuccessRateStudy {
    /// Rendering for the repro binary.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "Success rate of the PHPC CPA attack over {} independent sessions\n\n\
             {:>8} {:>14} {:>18} {:>10}\n",
            self.repetitions, "traces", "full recovery", "all ranks ≤ 10", "mean GE"
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:>8} {:>13.0}% {:>17.0}% {:>10.1}\n",
                p.traces,
                p.full_recovery_rate * 100.0,
                p.bounded_rate * 100.0,
                p.mean_ge
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn study() -> &'static SuccessRateStudy {
        static STUDY: OnceLock<SuccessRateStudy> = OnceLock::new();
        STUDY.get_or_init(|| {
            run_success_rate(&ExperimentConfig::quick(), &[1_000, 4_000, 16_000], 4)
        })
    }

    #[test]
    fn rates_monotone_in_traces() {
        let s = study();
        assert_eq!(s.points.len(), 3);
        for w in s.points.windows(2) {
            assert!(
                w[1].bounded_rate >= w[0].bounded_rate - 1e-12,
                "bounded rate must not decrease: {:?}",
                s.points
            );
            assert!(w[1].mean_ge <= w[0].mean_ge + 4.0, "mean GE should fall: {:?}", s.points);
        }
    }

    #[test]
    fn large_budget_succeeds_small_fails() {
        let s = study();
        let small = &s.points[0];
        let large = &s.points[2];
        assert!(small.full_recovery_rate < 0.5, "{small:?}");
        assert!(large.bounded_rate > 0.5, "{large:?}");
        assert!(large.mean_ge < small.mean_ge);
    }

    #[test]
    fn rates_bounded_by_probability_axioms() {
        for p in &study().points {
            assert!((0.0..=1.0).contains(&p.full_recovery_rate));
            assert!((0.0..=1.0).contains(&p.bounded_rate));
            assert!(p.full_recovery_rate <= p.bounded_rate + 1e-12);
        }
    }

    #[test]
    fn render_has_all_rows() {
        let text = study().render();
        assert!(text.contains("16000"));
        assert!(text.contains("full recovery"));
    }

    #[test]
    #[should_panic(expected = "non-trivial study")]
    fn empty_spec_panics() {
        let _ = run_success_rate(&ExperimentConfig::quick(), &[], 1);
    }
}
