//! Test Vector Leakage Assessment (TVLA) over SMC key value traces.
//!
//! §3.3 of the paper: collect trace sets for three chosen plaintext classes
//! (All 0s, All 1s, Random), **twice each** (the primed and unprimed sets
//! of Tables 3/5/6), then compute Welch's t between every primed/unprimed
//! pair. |t| ≥ 4.5 means statistically distinguishable at 99.999%
//! confidence. The color coding becomes the four outcome classes below.

use crate::stats::{welch_t, welch_t_x4, CentralMoments, RunningMoments};

// (TvlaTracker below relies on RunningMoments being mergeable; see
// `stats::RunningMoments::merged`.)

/// The TVLA distinguishability threshold.
pub const TVLA_THRESHOLD: f64 = 4.5;

/// The fixed plaintext classes of the paper's TVLA campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlaintextClass {
    /// 16 bytes of `0x00`.
    AllZeros,
    /// 16 bytes of `0xFF`.
    AllOnes,
    /// A fresh random plaintext per trace.
    Random,
}

impl PlaintextClass {
    /// The three classes in the paper's table order.
    pub const ALL: [PlaintextClass; 3] =
        [PlaintextClass::AllZeros, PlaintextClass::AllOnes, PlaintextClass::Random];

    /// Position of this class in [`Self::ALL`] — constant-time, for direct
    /// indexing of per-class accumulator arrays.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            PlaintextClass::AllZeros => 0,
            PlaintextClass::AllOnes => 1,
            PlaintextClass::Random => 2,
        }
    }

    /// The label used in the paper's tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PlaintextClass::AllZeros => "All 0s",
            PlaintextClass::AllOnes => "All 1s",
            PlaintextClass::Random => "Random",
        }
    }

    /// The fixed plaintext for fixed classes; `None` for Random.
    #[must_use]
    pub fn fixed_plaintext(self) -> Option<[u8; 16]> {
        match self {
            PlaintextClass::AllZeros => Some([0x00; 16]),
            PlaintextClass::AllOnes => Some([0xFF; 16]),
            PlaintextClass::Random => None,
        }
    }
}

impl core::fmt::Display for PlaintextClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Outcome classification of one TVLA cell, given ground truth about
/// whether the two datasets really used different data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TvlaOutcome {
    /// Different data, |t| ≥ threshold: leakage correctly detected.
    TruePositive,
    /// Same data, |t| < threshold: correctly indistinguishable.
    TrueNegative,
    /// Same data, |t| ≥ threshold: spurious distinguishability (drift!).
    FalsePositive,
    /// Different data, |t| < threshold: leakage missed.
    FalseNegative,
}

impl TvlaOutcome {
    /// Classify a t-score.
    #[must_use]
    pub fn classify(t_score: f64, truly_different: bool) -> Self {
        let distinguishable = t_score.abs() >= TVLA_THRESHOLD;
        match (truly_different, distinguishable) {
            (true, true) => TvlaOutcome::TruePositive,
            (true, false) => TvlaOutcome::FalseNegative,
            (false, true) => TvlaOutcome::FalsePositive,
            (false, false) => TvlaOutcome::TrueNegative,
        }
    }

    /// Whether this outcome is consistent with a *data-dependent* channel.
    #[must_use]
    pub fn supports_leakage(self) -> bool {
        matches!(self, TvlaOutcome::TruePositive | TvlaOutcome::TrueNegative)
    }
}

/// The nine Welch t-scores of a 3×3 TVLA matrix in row-major order:
/// `t[ri * 3 + ci] = welch_t(&second[ri], &first[ci])`. Three lockstep
/// [`welch_t_x4`] evaluations cover all nine cells (the third broadcasts the
/// final cell across its lanes). Bit-identical to nine [`welch_t`] calls —
/// the x4 lanes are themselves pinned bit-identical to the scalar formula,
/// so no cell takes a different rounding path.
pub fn welch_t_matrix(second: &[RunningMoments; 3], first: &[RunningMoments; 3]) -> [f64; 9] {
    let lanes = |idx: [usize; 4]| {
        let a = idx.map(|i| second[i / 3]);
        let b = idx.map(|i| first[i % 3]);
        welch_t_x4(&a, &b)
    };
    let lo = lanes([0, 1, 2, 3]);
    let hi = lanes([4, 5, 6, 7]);
    let last = lanes([8, 8, 8, 8]);
    [lo[0], lo[1], lo[2], lo[3], hi[0], hi[1], hi[2], hi[3], last[0]]
}

/// One cell of the 3×3 TVLA matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TvlaCell {
    /// Row class (the primed second collection).
    pub row: PlaintextClass,
    /// Column class (the first collection).
    pub column: PlaintextClass,
    /// Welch's t between the two datasets.
    pub t_score: f64,
    /// Classification against ground truth.
    pub outcome: TvlaOutcome,
}

/// The full 3×3 matrix for one channel (one SMC key / one probe).
#[derive(Debug, Clone, PartialEq)]
pub struct TvlaMatrix {
    /// Channel label (e.g. `PHPC`).
    pub label: String,
    /// Cells in row-major order (rows = primed classes).
    pub cells: Vec<TvlaCell>,
}

impl TvlaMatrix {
    /// Compute the matrix from per-class datasets collected twice.
    ///
    /// `first[i]` and `second[i]` are the unprimed/primed value sets for
    /// `PlaintextClass::ALL[i]`.
    #[must_use]
    pub fn compute(
        label: impl Into<String>,
        first: &[Vec<f64>; 3],
        second: &[Vec<f64>; 3],
    ) -> Self {
        let moments = |sets: &[Vec<f64>; 3]| {
            core::array::from_fn(|i| {
                let mut m = RunningMoments::new();
                m.extend_slice(&sets[i]);
                m
            })
        };
        TvlaAccumulator::from_raw([moments(first), moments(second)]).matrix(label)
    }

    /// The cell for (row, column).
    #[must_use]
    pub fn cell(&self, row: PlaintextClass, column: PlaintextClass) -> &TvlaCell {
        self.cells
            .iter()
            .find(|c| c.row == row && c.column == column)
            .expect("matrix always has all 9 cells")
    }

    /// Count of each outcome class.
    #[must_use]
    pub fn outcome_counts(&self) -> TvlaCounts {
        let mut counts = TvlaCounts::default();
        for c in &self.cells {
            match c.outcome {
                TvlaOutcome::TruePositive => counts.true_positive += 1,
                TvlaOutcome::TrueNegative => counts.true_negative += 1,
                TvlaOutcome::FalsePositive => counts.false_positive += 1,
                TvlaOutcome::FalseNegative => counts.false_negative += 1,
            }
        }
        counts
    }

    /// The paper's per-key verdict: a key is *data-dependent* when the
    /// matrix shows true positives and no (or almost no) false outcomes;
    /// `PHPC`-grade channels have all 9 cells correct.
    #[must_use]
    pub fn is_data_dependent(&self) -> bool {
        let c = self.outcome_counts();
        c.true_positive >= 4 && c.false_positive + c.false_negative <= 2
    }

    /// A channel with no true positives at all (the `PHPS` / `PCPU` /
    /// timing verdict: not data-dependent).
    #[must_use]
    pub fn shows_no_leakage(&self) -> bool {
        self.outcome_counts().true_positive == 0
    }

    /// Render in the paper's row/column layout.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("TVLA t-scores for {}\n", self.label);
        out.push_str(&format!("{:>10}", ""));
        for c in PlaintextClass::ALL {
            out.push_str(&format!("{:>10}", c.label()));
        }
        out.push('\n');
        for row in PlaintextClass::ALL {
            out.push_str(&format!("{:>9}'", row.label()));
            for column in PlaintextClass::ALL {
                out.push_str(&format!("{:>10.2}", self.cell(row, column).t_score));
            }
            out.push('\n');
        }
        out
    }
}

/// Streaming two-dataset TVLA tracker: feed observations as they are
/// collected and read the running t-score at any point — the standard
/// online form used by leakage-assessment rigs to stop collection as soon
/// as the threshold is crossed.
///
/// # Examples
///
/// ```
/// use psc_sca::tvla::TvlaTracker;
/// let mut tracker = TvlaTracker::new();
/// for i in 0..200 {
///     tracker.push_a(1.0 + f64::from(i % 3) * 0.01);
///     tracker.push_b(2.0 + f64::from(i % 3) * 0.01);
/// }
/// assert!(tracker.leakage_detected());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TvlaTracker {
    a: RunningMoments,
    b: RunningMoments,
}

impl TvlaTracker {
    /// Empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an observation to dataset A.
    pub fn push_a(&mut self, x: f64) {
        self.a.push(x);
    }

    /// Add an observation to dataset B.
    pub fn push_b(&mut self, x: f64) {
        self.b.push(x);
    }

    /// Observations so far (A, B).
    #[must_use]
    pub fn counts(&self) -> (u64, u64) {
        (self.a.count(), self.b.count())
    }

    /// Running Welch t-score.
    #[must_use]
    pub fn t_score(&self) -> f64 {
        welch_t(&self.a, &self.b)
    }

    /// Whether |t| has reached the TVLA threshold.
    #[must_use]
    pub fn leakage_detected(&self) -> bool {
        self.t_score().abs() >= TVLA_THRESHOLD
    }

    /// Merge two trackers (parallel collection shards).
    #[must_use]
    pub fn merged(self, other: Self) -> Self {
        Self { a: self.a.merged(other.a), b: self.b.merged(other.b) }
    }

    /// The raw `(A, B)` moment pair, for checkpoint serialization.
    #[must_use]
    pub fn raw(&self) -> (RunningMoments, RunningMoments) {
        (self.a, self.b)
    }

    /// Rebuild a tracker from the raw pair captured by [`Self::raw`].
    #[must_use]
    pub fn from_raw(a: RunningMoments, b: RunningMoments) -> Self {
        Self { a, b }
    }
}

/// Online accumulator for a full 3×3 TVLA campaign: six Welford moment
/// accumulators (three plaintext classes, collected twice), O(1) in trace
/// count. This is the streaming backbone of `psc-telemetry`'s TVLA
/// processor — shards accumulate independently and [`merged`] combines
/// them exactly (up to floating-point reassociation), so a sharded
/// campaign reproduces the batch [`TvlaMatrix`] without ever retaining
/// per-trace vectors.
///
/// [`merged`]: TvlaAccumulator::merged
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TvlaAccumulator {
    /// `moments[pass][class]`, indexed like [`PlaintextClass::ALL`].
    moments: [[RunningMoments; 3]; 2],
}

impl TvlaAccumulator {
    /// Empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation for (`pass`, `class`). `pass` 0 is the unprimed
    /// first collection, `pass` 1 the primed second collection.
    ///
    /// # Panics
    ///
    /// Panics if `pass > 1`.
    pub fn push(&mut self, pass: usize, class: PlaintextClass, value: f64) {
        self.moments[pass][class.index()].push(value);
    }

    /// Add many observations for (`pass`, `class`) in order — the slice
    /// ingestion path of the telemetry block pipeline. The `(pass,
    /// class)` cell is resolved once for the whole run instead of per
    /// sample; the Welford stream is **bit-identical** to pushing the
    /// values one by one.
    ///
    /// # Panics
    ///
    /// Panics if `pass > 1`.
    pub fn extend(
        &mut self,
        pass: usize,
        class: PlaintextClass,
        values: impl IntoIterator<Item = f64>,
    ) {
        self.moments[pass][class.index()].extend(values);
    }

    /// As [`Self::extend`] for a dense slice: the cell resolves once and
    /// the Welford state stays in registers for the whole run (see
    /// [`RunningMoments::extend_slice`]). Bit-identical to the
    /// per-sample path.
    ///
    /// # Panics
    ///
    /// Panics if `pass > 1`.
    pub fn extend_slice(&mut self, pass: usize, class: PlaintextClass, values: &[f64]) {
        self.moments[pass][class.index()].extend_slice(values);
    }

    /// Observations accumulated for (`pass`, `class`).
    #[must_use]
    pub fn count(&self, pass: usize, class: PlaintextClass) -> u64 {
        self.moments[pass][class.index()].count()
    }

    /// Total observations across all six datasets.
    #[must_use]
    pub fn total_count(&self) -> u64 {
        self.moments.iter().flatten().map(RunningMoments::count).sum()
    }

    /// Merge two accumulators (parallel collection shards).
    #[must_use]
    pub fn merged(self, other: Self) -> Self {
        let mut out = self;
        for (pass, other_pass) in out.moments.iter_mut().zip(other.moments) {
            for (m, o) in pass.iter_mut().zip(other_pass) {
                *m = m.merged(o);
            }
        }
        out
    }

    /// The six raw moment accumulators in `[pass][class]` order, for
    /// checkpoint serialization.
    #[must_use]
    pub fn raw(&self) -> [[RunningMoments; 3]; 2] {
        self.moments
    }

    /// Rebuild an accumulator from raw moments captured by [`Self::raw`].
    #[must_use]
    pub fn from_raw(moments: [[RunningMoments; 3]; 2]) -> Self {
        Self { moments }
    }

    /// The 3×3 t-score matrix, identical in structure and classification
    /// to [`TvlaMatrix::compute`] over the same data.
    #[must_use]
    pub fn matrix(&self, label: impl Into<String>) -> TvlaMatrix {
        let t_scores = welch_t_matrix(&self.moments[1], &self.moments[0]);
        let mut cells = Vec::with_capacity(9);
        for (ri, row) in PlaintextClass::ALL.iter().enumerate() {
            for (ci, column) in PlaintextClass::ALL.iter().enumerate() {
                let t_score = t_scores[ri * 3 + ci];
                let truly_different = row != column;
                cells.push(TvlaCell {
                    row: *row,
                    column: *column,
                    t_score,
                    outcome: TvlaOutcome::classify(t_score, truly_different),
                });
            }
        }
        TvlaMatrix { label: label.into(), cells }
    }
}

/// Second-order counterpart of [`TvlaAccumulator`]: six 4th-order
/// central-moment accumulators (see [`CentralMoments`]), whose
/// centred-square moments give the variance (second-order) TVLA matrix
/// in one mergeable pass instead of two passes over retained samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SecondOrderAccumulator {
    /// `moments[pass][class]`, indexed like [`PlaintextClass::ALL`].
    moments: [[CentralMoments; 3]; 2],
}

impl SecondOrderAccumulator {
    /// Add one observation for (`pass`, `class`).
    ///
    /// # Panics
    ///
    /// Panics if `pass > 1`.
    pub fn push(&mut self, pass: usize, class: PlaintextClass, value: f64) {
        self.moments[pass][class.index()].push(value);
    }

    /// Merge two accumulators (parallel collection shards).
    #[must_use]
    pub fn merged(self, other: Self) -> Self {
        let mut out = self;
        for (pass, other_pass) in out.moments.iter_mut().zip(other.moments) {
            for (m, o) in pass.iter_mut().zip(other_pass) {
                *m = m.merged(o);
            }
        }
        out
    }

    /// The six raw accumulators in `[pass][class]` order.
    #[must_use]
    pub fn raw(&self) -> [[CentralMoments; 3]; 2] {
        self.moments
    }

    /// Rebuild an accumulator from [`Self::raw`] output.
    #[must_use]
    pub fn from_raw(moments: [[CentralMoments; 3]; 2]) -> Self {
        Self { moments }
    }

    /// The 3×3 second-order matrix: Welch t over the centred squares.
    #[must_use]
    pub fn matrix(&self, label: impl Into<String>) -> TvlaMatrix {
        TvlaAccumulator::from_raw(self.moments.map(|pass| pass.map(|m| m.second_order())))
            .matrix(label)
    }
}

/// Outcome tallies of one matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TvlaCounts {
    /// |t| ≥ 4.5 across different data.
    pub true_positive: usize,
    /// |t| < 4.5 across same data.
    pub true_negative: usize,
    /// |t| ≥ 4.5 across same data.
    pub false_positive: usize,
    /// |t| < 4.5 across different data.
    pub false_negative: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gaussian_like(n: usize, mean: f64, spread: f64, salt: u64) -> Vec<f64> {
        // Deterministic pseudo-noise (keeps this module free of rand).
        (0..n)
            .map(|i| {
                let x = ((i as u64).wrapping_mul(6_364_136_223_846_793_005).wrapping_add(salt)
                    >> 33) as f64
                    / f64::from(1u32 << 31);
                mean + spread * (x - 0.5)
            })
            .collect()
    }

    fn second_order_matrix(
        label: &str,
        first: &[Vec<f64>; 3],
        second: &[Vec<f64>; 3],
    ) -> TvlaMatrix {
        let mut acc = SecondOrderAccumulator::default();
        for (pass, sets) in [first, second].into_iter().enumerate() {
            for (class, xs) in PlaintextClass::ALL.into_iter().zip(sets) {
                xs.iter().for_each(|&x| acc.push(pass, class, x));
            }
        }
        acc.matrix(label)
    }

    fn leaky_matrix() -> TvlaMatrix {
        // Class means differ → diagonal same, off-diagonal different.
        let first = [
            gaussian_like(2000, 1.00, 0.05, 1),
            gaussian_like(2000, 1.05, 0.05, 2),
            gaussian_like(2000, 1.025, 0.05, 3),
        ];
        let second = [
            gaussian_like(2000, 1.00, 0.05, 4),
            gaussian_like(2000, 1.05, 0.05, 5),
            gaussian_like(2000, 1.025, 0.05, 6),
        ];
        TvlaMatrix::compute("PHPC", &first, &second)
    }

    fn flat_matrix() -> TvlaMatrix {
        let first = [
            gaussian_like(2000, 1.0, 0.05, 11),
            gaussian_like(2000, 1.0, 0.05, 12),
            gaussian_like(2000, 1.0, 0.05, 13),
        ];
        let second = [
            gaussian_like(2000, 1.0, 0.05, 14),
            gaussian_like(2000, 1.0, 0.05, 15),
            gaussian_like(2000, 1.0, 0.05, 16),
        ];
        TvlaMatrix::compute("PHPS", &first, &second)
    }

    #[test]
    fn classify_quadrants() {
        assert_eq!(TvlaOutcome::classify(10.0, true), TvlaOutcome::TruePositive);
        assert_eq!(TvlaOutcome::classify(1.0, false), TvlaOutcome::TrueNegative);
        assert_eq!(TvlaOutcome::classify(-9.0, false), TvlaOutcome::FalsePositive);
        assert_eq!(TvlaOutcome::classify(0.4, true), TvlaOutcome::FalseNegative);
        assert_eq!(
            TvlaOutcome::classify(4.5, true),
            TvlaOutcome::TruePositive,
            "threshold inclusive"
        );
    }

    #[test]
    fn leaky_channel_detected() {
        let m = leaky_matrix();
        assert!(m.is_data_dependent(), "{:?}", m.outcome_counts());
        let counts = m.outcome_counts();
        assert_eq!(counts.true_positive, 6);
        assert_eq!(counts.true_negative, 3);
    }

    #[test]
    fn flat_channel_shows_no_leakage() {
        let m = flat_matrix();
        assert!(m.shows_no_leakage(), "{:?}", m.outcome_counts());
        assert!(!m.is_data_dependent());
        assert_eq!(m.outcome_counts().true_negative, 3);
    }

    #[test]
    fn matrix_has_nine_cells_in_order() {
        let m = leaky_matrix();
        assert_eq!(m.cells.len(), 9);
        assert_eq!(m.cells[0].row, PlaintextClass::AllZeros);
        assert_eq!(m.cells[0].column, PlaintextClass::AllZeros);
        assert_eq!(m.cells[8].row, PlaintextClass::Random);
        assert_eq!(m.cells[8].column, PlaintextClass::Random);
    }

    #[test]
    fn diagonal_counts_as_same_data_even_for_random() {
        let m = flat_matrix();
        let cell = m.cell(PlaintextClass::Random, PlaintextClass::Random);
        assert_eq!(cell.outcome, TvlaOutcome::TrueNegative);
    }

    #[test]
    fn render_contains_labels_and_scores() {
        let m = leaky_matrix();
        let text = m.render();
        assert!(text.contains("PHPC"));
        assert!(text.contains("All 0s"));
        assert!(text.contains("Random"));
        assert!(text.lines().count() >= 5);
    }

    #[test]
    fn class_index_matches_all_order() {
        for (i, class) in PlaintextClass::ALL.iter().enumerate() {
            assert_eq!(class.index(), i);
        }
    }

    #[test]
    fn fixed_plaintexts() {
        assert_eq!(PlaintextClass::AllZeros.fixed_plaintext(), Some([0x00; 16]));
        assert_eq!(PlaintextClass::AllOnes.fixed_plaintext(), Some([0xFF; 16]));
        assert_eq!(PlaintextClass::Random.fixed_plaintext(), None);
        assert_eq!(PlaintextClass::AllZeros.to_string(), "All 0s");
    }

    #[test]
    fn tracker_matches_batch_computation() {
        let xs = gaussian_like(500, 1.0, 0.1, 91);
        let ys = gaussian_like(500, 1.03, 0.1, 92);
        let mut tracker = TvlaTracker::new();
        for &x in &xs {
            tracker.push_a(x);
        }
        for &y in &ys {
            tracker.push_b(y);
        }
        let mut a = crate::stats::RunningMoments::new();
        let mut b = crate::stats::RunningMoments::new();
        a.extend(xs.iter().copied());
        b.extend(ys.iter().copied());
        assert!((tracker.t_score() - crate::stats::welch_t(&a, &b)).abs() < 1e-12);
        assert_eq!(tracker.counts(), (500, 500));
    }

    #[test]
    fn tracker_merge_equals_single_stream() {
        let xs = gaussian_like(400, 1.0, 0.1, 93);
        let ys = gaussian_like(400, 1.05, 0.1, 94);
        let mut whole = TvlaTracker::new();
        let mut left = TvlaTracker::new();
        let mut right = TvlaTracker::new();
        for (i, (&x, &y)) in xs.iter().zip(&ys).enumerate() {
            whole.push_a(x);
            whole.push_b(y);
            if i % 2 == 0 {
                left.push_a(x);
                left.push_b(y);
            } else {
                right.push_a(x);
                right.push_b(y);
            }
        }
        let merged = left.merged(right);
        assert!((merged.t_score() - whole.t_score()).abs() < 1e-9);
    }

    #[test]
    fn tracker_detects_separation_early() {
        let mut tracker = TvlaTracker::new();
        let mut detected_at = None;
        for i in 0..1000usize {
            let jitter = f64::from((i % 7) as u32) * 0.01;
            tracker.push_a(1.0 + jitter);
            tracker.push_b(1.2 + jitter);
            if detected_at.is_none() && tracker.leakage_detected() {
                detected_at = Some(i);
            }
        }
        let at = detected_at.expect("clear separation must be detected");
        assert!(at < 100, "detected only at {at}");
    }

    #[test]
    fn second_order_detects_variance_leakage_first_order_misses() {
        // Same means, different variances between classes.
        let spread_sets = |spreads: [f64; 3], salt: u64| -> [Vec<f64>; 3] {
            [
                gaussian_like(3000, 1.0, spreads[0], salt),
                gaussian_like(3000, 1.0, spreads[1], salt + 1),
                gaussian_like(3000, 1.0, spreads[2], salt + 2),
            ]
        };
        let first = spread_sets([0.05, 0.12, 0.08], 100);
        let second = spread_sets([0.05, 0.12, 0.08], 200);
        let first_order = TvlaMatrix::compute("var-chan", &first, &second);
        let second_order = second_order_matrix("var-chan", &first, &second);
        assert!(
            first_order.shows_no_leakage(),
            "means are equal — first order must stay silent: {}",
            first_order.render()
        );
        assert!(
            second_order.outcome_counts().true_positive >= 4,
            "variance differences must show up at second order: {}",
            second_order.render()
        );
    }

    #[test]
    fn second_order_silent_on_identical_distributions() {
        let first = [
            gaussian_like(3000, 1.0, 0.05, 31),
            gaussian_like(3000, 1.0, 0.05, 32),
            gaussian_like(3000, 1.0, 0.05, 33),
        ];
        let second = [
            gaussian_like(3000, 1.0, 0.05, 34),
            gaussian_like(3000, 1.0, 0.05, 35),
            gaussian_like(3000, 1.0, 0.05, 36),
        ];
        let m = second_order_matrix("null", &first, &second);
        assert!(m.shows_no_leakage(), "{}", m.render());
    }

    #[test]
    fn outcome_supports_leakage() {
        assert!(TvlaOutcome::TruePositive.supports_leakage());
        assert!(TvlaOutcome::TrueNegative.supports_leakage());
        assert!(!TvlaOutcome::FalsePositive.supports_leakage());
        assert!(!TvlaOutcome::FalseNegative.supports_leakage());
    }
}
