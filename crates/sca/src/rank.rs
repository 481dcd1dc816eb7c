//! Key-byte ranks and Guessing Entropy.
//!
//! The paper reports, per key byte, the 1-based rank of the correct value
//! among all 256 guesses (rank 1 = recovered, rank < 10 = "nearly
//! recovered"), and aggregates the 16 ranks into a **Guessing Entropy**:
//!
//! > GE = Σᵢ log₂(rankᵢ)   (bits)
//!
//! This is the log of the estimated full-key enumeration effort; GE = 0
//! means every byte ranked first, i.e. complete key recovery. (Table 4's
//! PHPC column — ranks {7,7,1,11,5,4,4,13,1,37,1,1,1,4,1,26} with
//! GE = 31.0 — confirms this is the paper's aggregation.)

use crate::cpa::Cpa;
use crate::trace::TraceSet;

/// Rank threshold the paper highlights red (recovered).
pub const RECOVERED_RANK: usize = 1;
/// Rank threshold the paper highlights yellow (nearly recovered).
pub const NEAR_RECOVERY_RANK: usize = 10;

/// Guessing entropy (bits) of a set of per-byte ranks.
///
/// # Panics
///
/// Panics if any rank is zero (ranks are 1-based).
///
/// # Examples
///
/// ```
/// use psc_sca::rank::guessing_entropy;
/// assert_eq!(guessing_entropy(&[1; 16]), 0.0);
/// assert_eq!(guessing_entropy(&[2; 16]), 16.0);
/// ```
#[must_use]
pub fn guessing_entropy(ranks: &[usize; 16]) -> f64 {
    ranks
        .iter()
        .map(|&r| {
            assert!(r >= 1, "ranks are 1-based");
            (r as f64).log2()
        })
        .sum()
}

/// Number of bytes at rank 1 / rank ≤ 10 (the paper's red/yellow tallies).
#[must_use]
pub fn recovery_tally(ranks: &[usize; 16]) -> (usize, usize) {
    let recovered = ranks.iter().filter(|&&r| r == RECOVERED_RANK).count();
    let near = ranks.iter().filter(|&&r| r > RECOVERED_RANK && r <= NEAR_RECOVERY_RANK).count();
    (recovered, near)
}

/// Success rate across repeated independent attacks: the fraction of
/// repetitions that fully recovered the key (every byte at rank 1).
///
/// # Examples
///
/// ```
/// use psc_sca::rank::full_recovery_rate;
/// let runs = [[1usize; 16], [1; 16], [2; 16]];
/// assert!((full_recovery_rate(&runs) - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[must_use]
pub fn full_recovery_rate(rank_sets: &[[usize; 16]]) -> f64 {
    if rank_sets.is_empty() {
        return 0.0;
    }
    let successes = rank_sets.iter().filter(|r| r.iter().all(|&x| x == 1)).count();
    successes as f64 / rank_sets.len() as f64
}

/// o-th order success rate: fraction of repetitions where *every* byte
/// ranked within `max_rank` (the enumeration-feasibility test).
#[must_use]
pub fn bounded_rank_rate(rank_sets: &[[usize; 16]], max_rank: usize) -> f64 {
    if rank_sets.is_empty() {
        return 0.0;
    }
    let successes = rank_sets.iter().filter(|r| r.iter().all(|&x| x <= max_rank)).count();
    successes as f64 / rank_sets.len() as f64
}

/// One point of a GE-vs-trace-count curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GePoint {
    /// Number of traces consumed.
    pub traces: usize,
    /// Guessing entropy at that point, bits.
    pub ge: f64,
}

/// A GE convergence curve for one (channel, model) pair — the content of
/// the paper's Figure 1.
#[derive(Debug, Clone, PartialEq)]
pub struct GeCurve {
    /// Channel label (e.g. `PHPC (M2)`).
    pub channel: String,
    /// Model name (e.g. `Rd0-HW`).
    pub model: String,
    /// Curve points, ascending in trace count.
    pub points: Vec<GePoint>,
}

impl GeCurve {
    /// Final GE (last checkpoint), or 128·... the maximum if empty.
    #[must_use]
    pub fn final_ge(&self) -> f64 {
        self.points.last().map_or(16.0 * 8.0, |p| p.ge)
    }

    /// Whether the curve decreased from its first to its last checkpoint by
    /// at least `margin_bits` — the paper's notion of "converging".
    #[must_use]
    pub fn converges_by(&self, margin_bits: f64) -> bool {
        match (self.points.first(), self.points.last()) {
            (Some(first), Some(last)) => first.ge - last.ge >= margin_bits,
            _ => false,
        }
    }
}

/// Run CPA over `traces` with snapshots at `checkpoints` (ascending trace
/// counts), producing the GE curve against `true_round_key`.
///
/// The accumulator is streamed once; checkpoints cost one rank evaluation
/// each.
#[must_use]
pub fn ge_curve(
    mut cpa: Cpa,
    traces: &TraceSet,
    true_round_key: &[u8; 16],
    checkpoints: &[usize],
) -> GeCurve {
    let model = cpa.model().name().to_owned();
    let mut points = Vec::with_capacity(checkpoints.len());
    let mut next_checkpoint = 0usize;
    for (i, trace) in traces.iter().enumerate() {
        cpa.add_trace(trace);
        let n = i + 1;
        while next_checkpoint < checkpoints.len() && checkpoints[next_checkpoint] == n {
            points.push(GePoint { traces: n, ge: guessing_entropy(&cpa.ranks(true_round_key)) });
            next_checkpoint += 1;
        }
    }
    // A trailing checkpoint at the full set size if not already present.
    if points.last().is_none_or(|p| p.traces != traces.len()) && !traces.is_empty() {
        points.push(GePoint {
            traces: traces.len(),
            ge: guessing_entropy(&cpa.ranks(true_round_key)),
        });
    }
    GeCurve { channel: traces.label.clone(), model, points }
}

/// Measurements-to-disclosure: the smallest checkpointed trace count at
/// which the GE curve falls to or below `threshold_bits` (and stays there
/// for the remainder of the curve). `None` if never reached — the metric
/// security evaluators quote alongside GE curves.
///
/// # Examples
///
/// ```
/// use psc_sca::rank::{measurements_to_disclosure, GeCurve, GePoint};
/// let curve = GeCurve {
///     channel: "PHPC".into(),
///     model: "Rd0-HW".into(),
///     points: vec![
///         GePoint { traces: 100, ge: 90.0 },
///         GePoint { traces: 1000, ge: 10.0 },
///         GePoint { traces: 10000, ge: 0.0 },
///     ],
/// };
/// assert_eq!(measurements_to_disclosure(&curve, 16.0), Some(1000));
/// assert_eq!(measurements_to_disclosure(&curve, -1.0), None);
/// ```
#[must_use]
pub fn measurements_to_disclosure(curve: &GeCurve, threshold_bits: f64) -> Option<usize> {
    let mut candidate: Option<usize> = None;
    for p in &curve.points {
        if p.ge <= threshold_bits {
            candidate.get_or_insert(p.traces);
        } else {
            candidate = None; // bounced back above the threshold
        }
    }
    candidate
}

/// Logarithmically spaced checkpoints from `min` to `max` (inclusive),
/// deduplicated — the x-axis of Fig. 1.
#[must_use]
pub fn log_checkpoints(min: usize, max: usize, per_decade: usize) -> Vec<usize> {
    assert!(min >= 1 && max >= min && per_decade >= 1, "invalid checkpoint spec");
    let mut out = Vec::new();
    let lmin = (min as f64).log10();
    let lmax = (max as f64).log10();
    let steps = ((lmax - lmin) * per_decade as f64).ceil() as usize + 1;
    for i in 0..=steps {
        let l = lmin + (lmax - lmin) * i as f64 / steps as f64;
        let n = 10f64.powf(l).round() as usize;
        out.push(n.clamp(min, max));
    }
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpa::Cpa;
    use crate::model::Rd0Hw;
    use crate::trace::Trace;
    use psc_aes::Aes;

    #[test]
    fn ge_matches_paper_table4_phpc_column() {
        let ranks: [usize; 16] = [7, 7, 1, 11, 5, 4, 4, 13, 1, 37, 1, 1, 1, 4, 1, 26];
        let ge = guessing_entropy(&ranks);
        assert!((ge - 31.0).abs() < 0.05, "GE {ge} should reproduce the paper's 31.0");
    }

    #[test]
    fn ge_zero_iff_full_recovery() {
        assert_eq!(guessing_entropy(&[1; 16]), 0.0);
        let mut ranks = [1usize; 16];
        ranks[5] = 2;
        assert!(guessing_entropy(&ranks) > 0.0);
    }

    #[test]
    fn ge_maximum_is_128_bits() {
        assert_eq!(guessing_entropy(&[256; 16]), 128.0);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_rank_panics() {
        let _ = guessing_entropy(&[0; 16]);
    }

    #[test]
    fn tally_counts_red_and_yellow() {
        let ranks: [usize; 16] = [1, 1, 1, 2, 9, 10, 11, 100, 1, 1, 1, 3, 200, 1, 1, 5];
        let (recovered, near) = recovery_tally(&ranks);
        assert_eq!(recovered, 8);
        assert_eq!(near, 5, "ranks 2, 9, 10, 3, 5 fall in the (1, 10] band");
    }

    #[test]
    fn log_checkpoints_ascending_unique() {
        let cps = log_checkpoints(100, 100_000, 4);
        assert!(cps.len() > 8);
        assert_eq!(*cps.first().unwrap(), 100);
        assert_eq!(*cps.last().unwrap(), 100_000);
        for w in cps.windows(2) {
            assert!(w[0] < w[1], "{cps:?}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid checkpoint spec")]
    fn bad_checkpoint_spec_panics() {
        let _ = log_checkpoints(0, 10, 2);
    }

    #[test]
    fn curve_converges_on_clean_synthetic_channel() {
        let key: [u8; 16] = core::array::from_fn(|i| (i * 23 + 5) as u8);
        let aes = Aes::new(&key).unwrap();
        let mut set = TraceSet::new("clean");
        let mut state = 42u64;
        for _ in 0..3000 {
            let mut pt = [0u8; 16];
            for b in pt.iter_mut() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                *b = (state >> 40) as u8;
            }
            let trace = aes.encrypt_traced(&pt);
            let value: u32 = trace.round0_addkey().iter().map(|&x| x.count_ones()).sum();
            set.push(Trace {
                value: f64::from(value),
                plaintext: pt,
                ciphertext: trace.ciphertext,
            });
        }
        let curve = ge_curve(Cpa::new(Box::new(Rd0Hw)), &set, &key, &[100, 500, 1000, 3000]);
        assert_eq!(curve.model, "Rd0-HW");
        assert_eq!(curve.points.len(), 4);
        assert!(curve.converges_by(10.0), "{:?}", curve.points);
        assert_eq!(curve.final_ge(), 0.0, "noiseless channel fully recovers");
    }

    #[test]
    fn curve_appends_final_checkpoint() {
        let set: TraceSet = (0..10)
            .map(|i| Trace { value: f64::from(i), plaintext: [i as u8; 16], ciphertext: [0; 16] })
            .collect();
        let curve = ge_curve(Cpa::new(Box::new(Rd0Hw)), &set, &[0u8; 16], &[5]);
        assert_eq!(curve.points.len(), 2);
        assert_eq!(curve.points[1].traces, 10);
    }

    #[test]
    fn mtd_requires_staying_below_threshold() {
        let curve = GeCurve {
            channel: "x".into(),
            model: "m".into(),
            points: vec![
                GePoint { traces: 100, ge: 20.0 },
                GePoint { traces: 200, ge: 10.0 }, // dips…
                GePoint { traces: 400, ge: 30.0 }, // …bounces back
                GePoint { traces: 800, ge: 8.0 },
                GePoint { traces: 1600, ge: 2.0 },
            ],
        };
        assert_eq!(measurements_to_disclosure(&curve, 16.0), Some(800));
        assert_eq!(measurements_to_disclosure(&curve, 1.0), None);
        let empty = GeCurve { channel: "x".into(), model: "m".into(), points: vec![] };
        assert_eq!(measurements_to_disclosure(&empty, 16.0), None);
    }

    #[test]
    fn success_rates() {
        let runs = [[1usize; 16], [1; 16], {
            let mut r = [1usize; 16];
            r[3] = 7;
            r
        }];
        assert!((full_recovery_rate(&runs) - 2.0 / 3.0).abs() < 1e-12);
        assert!((bounded_rank_rate(&runs, 10) - 1.0).abs() < 1e-12);
        assert!((bounded_rank_rate(&runs, 3) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(full_recovery_rate(&[]), 0.0);
        assert_eq!(bounded_rank_rate(&[], 5), 0.0);
    }

    #[test]
    fn empty_curve_defaults() {
        let curve = GeCurve { channel: "x".into(), model: "m".into(), points: vec![] };
        assert_eq!(curve.final_ge(), 128.0);
        assert!(!curve.converges_by(1.0));
    }
}
