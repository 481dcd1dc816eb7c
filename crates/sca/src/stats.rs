//! Numerically stable streaming statistics.
//!
//! Everything downstream (TVLA's Welch t-test, CPA's Pearson correlation)
//! runs over up to millions of traces, so all estimators here are one-pass
//! with Welford-style updates.

use pulp::{F64x4, Simd, WithSimd};

/// Welford running mean/variance accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningMoments {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningMoments {
    /// Empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Add many observations.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, xs: I) {
        for x in xs {
            self.push(x);
        }
    }

    /// Add a dense slice of observations — the telemetry block pipeline's
    /// slice-ingestion path. The Welford state lives in locals for the
    /// whole sweep (no per-sample store/reload of `self`), and every
    /// operation matches [`Self::push`] exactly, so the stream is
    /// **bit-identical** to pushing the values one by one.
    pub fn extend_slice(&mut self, xs: &[f64]) {
        let mut n = self.n;
        let mut mean = self.mean;
        let mut m2 = self.m2;
        for &x in xs {
            n += 1;
            let delta = x - mean;
            mean += delta / n as f64;
            m2 += delta * (x - mean);
        }
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 until two observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// The raw Welford state `(n, mean, m2)` — the exact words a
    /// checkpoint must persist for [`Self::from_raw`] to resume the
    /// stream bit-identically.
    #[must_use]
    pub fn raw(&self) -> (u64, f64, f64) {
        (self.n, self.mean, self.m2)
    }

    /// Rebuild an accumulator from raw state captured by [`Self::raw`].
    #[must_use]
    pub fn from_raw(n: u64, mean: f64, m2: f64) -> Self {
        Self { n, mean, m2 }
    }

    /// Merge two accumulators (parallel collection).
    #[must_use]
    pub fn merged(self, other: Self) -> Self {
        if self.n == 0 {
            return other;
        }
        if other.n == 0 {
            return self;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        Self { n, mean, m2 }
    }
}

/// One-pass central moments up to 4th order (Pébay's update and merge):
/// `n`, the mean and `Mₖ = Σ(x − mean)ᵏ` for k = 2, 3, 4. Mergeable like
/// [`RunningMoments`], so shards accumulate independently.
///
/// Its use is second-order TVLA: the centred squares `(x − mean)²` have
/// mean `M₂/n` and sample variance `(M₄ − M₂²/n)/(n − 1)`, which
/// [`Self::second_order`] packs as a [`RunningMoments`] — no pass over
/// retained samples is needed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CentralMoments {
    n: u64,
    mean: f64,
    m2: f64,
    m3: f64,
    m4: f64,
}

impl CentralMoments {
    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        let n1 = self.n as f64;
        self.n += 1;
        let n = self.n as f64;
        let delta = x - self.mean;
        let delta_n = delta / n;
        let delta_n2 = delta_n * delta_n;
        let term1 = delta * delta_n * n1;
        self.mean += delta_n;
        self.m4 += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * self.m2
            - 4.0 * delta_n * self.m3;
        self.m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * self.m2;
        self.m2 += term1;
    }

    /// Merge two accumulators (parallel collection shards).
    #[must_use]
    pub fn merged(self, other: Self) -> Self {
        if self.n == 0 {
            return other;
        }
        if other.n == 0 {
            return self;
        }
        let (na, nb) = (self.n as f64, other.n as f64);
        let n = na + nb;
        let delta = other.mean - self.mean;
        let delta2 = delta * delta;
        let m2 = self.m2 + other.m2 + delta2 * na * nb / n;
        let m3 = self.m3
            + other.m3
            + delta2 * delta * na * nb * (na - nb) / (n * n)
            + 3.0 * delta * (na * other.m2 - nb * self.m2) / n;
        let m4 = self.m4
            + other.m4
            + delta2 * delta2 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n)
            + 6.0 * delta2 * (na * na * other.m2 + nb * nb * self.m2) / (n * n)
            + 4.0 * delta * (na * other.m3 - nb * self.m3) / n;
        Self { n: self.n + other.n, mean: self.mean + delta * nb / n, m2, m3, m4 }
    }

    /// The moments of the centred squares `(x − mean)²`: mean `M₂/n`,
    /// Welford sum of squares `M₄ − M₂²/n` — the input of a second-order
    /// Welch t-test.
    #[must_use]
    pub fn second_order(&self) -> RunningMoments {
        if self.n == 0 {
            return RunningMoments::new();
        }
        let n = self.n as f64;
        RunningMoments::from_raw(self.n, self.m2 / n, self.m4 - self.m2 * self.m2 / n)
    }

    /// The raw state `(n, mean, M₂, M₃, M₄)`, for checkpoints.
    #[must_use]
    pub fn raw(&self) -> (u64, [f64; 4]) {
        (self.n, [self.mean, self.m2, self.m3, self.m4])
    }

    /// Rebuild an accumulator from state captured by [`Self::raw`].
    #[must_use]
    pub fn from_raw(n: u64, [mean, m2, m3, m4]: [f64; 4]) -> Self {
        Self { n, mean, m2, m3, m4 }
    }
}

/// Four independent Welford chains advanced in lockstep — the vector form
/// of four [`RunningMoments`] (e.g. four telemetry channels' TVLA cells
/// ingesting one columnar block together).
///
/// Each lane is a private `(n, mean, m2)` dependency chain; a row advances
/// a lane only where that lane's column holds a sample (denied reads are
/// `None`), via masked select. Per lane, the operations and their order
/// are exactly [`RunningMoments::push`] over the lane's present values, so
/// the result is **bit-identical** to four independent scalar
/// accumulators under every SIMD backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MomentsQuad {
    /// Per-lane counts, kept as exact small integers in f64.
    n: [f64; 4],
    mean: [f64; 4],
    m2: [f64; 4],
}

impl MomentsQuad {
    /// Pack four accumulators into lockstep lanes.
    #[must_use]
    pub fn load(lanes: [RunningMoments; 4]) -> Self {
        Self { n: lanes.map(|m| m.n as f64), mean: lanes.map(|m| m.mean), m2: lanes.map(|m| m.m2) }
    }

    /// Unpack the four lanes back into scalar accumulators.
    #[must_use]
    pub fn store(self) -> [RunningMoments; 4] {
        core::array::from_fn(|i| RunningMoments {
            n: self.n[i] as u64,
            mean: self.mean[i],
            m2: self.m2[i],
        })
    }

    /// Ingest one row per index across four columns: lane `k` pushes
    /// `cols[k][i]` when present and is untouched when the read was denied
    /// (`None`). Runs on the runtime-dispatched SIMD backend.
    ///
    /// # Panics
    ///
    /// Panics if the four columns differ in length.
    pub fn extend_columns(&mut self, cols: [&[Option<f64>]; 4]) {
        pulp::dispatch(ExtendColumns { quad: self, cols });
    }

    /// As [`Self::extend_columns`], pinned to the scalar fallback — the
    /// reference side of the simd == scalar bit-identity proptests.
    ///
    /// # Panics
    ///
    /// Panics if the four columns differ in length.
    pub fn extend_columns_scalar(&mut self, cols: [&[Option<f64>]; 4]) {
        pulp::dispatch_scalar(ExtendColumns { quad: self, cols });
    }
}

/// Masked lockstep Welford over four sample columns.
struct ExtendColumns<'a> {
    quad: &'a mut MomentsQuad,
    cols: [&'a [Option<f64>]; 4],
}

impl WithSimd for ExtendColumns<'_> {
    type Output = ();

    #[inline(always)]
    fn with_simd<S: Simd>(self) {
        let rows = self.cols[0].len();
        for col in &self.cols[1..] {
            assert_eq!(col.len(), rows, "lockstep columns must have equal lengths");
        }
        let zero = S::f64x4::splat(0.0);
        let one = S::f64x4::splat(1.0);
        let mut n = S::f64x4::from_array(self.quad.n);
        let mut mean = S::f64x4::from_array(self.quad.mean);
        let mut m2 = S::f64x4::from_array(self.quad.m2);
        for i in 0..rows {
            let cells = [self.cols[0][i], self.cols[1][i], self.cols[2][i], self.cols[3][i]];
            let x = S::f64x4::from_array(cells.map(|c| c.unwrap_or(0.0)));
            let present = S::f64x4::from_array(cells.map(|c| if c.is_some() { 1.0 } else { 0.0 }));
            let mask = present.gt(zero);
            // Per present lane this is exactly RunningMoments::push; the
            // masked lanes keep their old words (the garbage quotients
            // computed for them are blended away, never trapped on).
            let np = n + S::f64x4::select(mask, one, zero);
            let delta = x - mean;
            let mean_p = S::f64x4::select(mask, mean + delta / np, mean);
            let m2_p = S::f64x4::select(mask, m2 + delta * (x - mean_p), m2);
            n = np;
            mean = mean_p;
            m2 = m2_p;
        }
        self.quad.n = n.to_array();
        self.quad.mean = mean.to_array();
        self.quad.m2 = m2.to_array();
    }
}

/// Four Welch t statistics at once: `t[k] = welch_t(&a[k], &b[k])`, with
/// the degenerate guards (either count < 2, vanishing standard error)
/// applied per lane by masked select. For finite accumulator states the
/// lanes are **bit-identical** to four [`welch_t`] calls — the telemetry
/// TVLA matrix sweeps use this to fold 9 cells into 2 vector evaluations.
#[must_use]
pub fn welch_t_x4(a: &[RunningMoments; 4], b: &[RunningMoments; 4]) -> [f64; 4] {
    pulp::dispatch(WelchTx4 { a: *a, b: *b })
}

/// As [`welch_t_x4`], pinned to the scalar fallback backend.
#[must_use]
pub fn welch_t_x4_scalar(a: &[RunningMoments; 4], b: &[RunningMoments; 4]) -> [f64; 4] {
    pulp::dispatch_scalar(WelchTx4 { a: *a, b: *b })
}

struct WelchTx4 {
    a: [RunningMoments; 4],
    b: [RunningMoments; 4],
}

impl WithSimd for WelchTx4 {
    type Output = [f64; 4];

    #[inline(always)]
    fn with_simd<S: Simd>(self) -> [f64; 4] {
        let zero = S::f64x4::splat(0.0);
        let one = S::f64x4::splat(1.0);
        let two = S::f64x4::splat(2.0);
        let na = S::f64x4::from_array(self.a.map(|m| m.n as f64));
        let nb = S::f64x4::from_array(self.b.map(|m| m.n as f64));
        let ma = S::f64x4::from_array(self.a.map(|m| m.mean));
        let mb = S::f64x4::from_array(self.b.map(|m| m.mean));
        let m2a = S::f64x4::from_array(self.a.map(|m| m.m2));
        let m2b = S::f64x4::from_array(self.b.map(|m| m.m2));
        // variance(): m2 / (n - 1), zero below two observations. The n = 0
        // lanes divide by -1 harmlessly; the select discards them.
        let va = S::f64x4::select(na.ge(two), m2a / (na - one), zero);
        let vb = S::f64x4::select(nb.ge(two), m2b / (nb - one), zero);
        let se2 = va / na + vb / nb;
        let valid = na.ge(two).and(nb.ge(two)).and(se2.gt(zero));
        S::f64x4::select(valid, (ma - mb) / se2.sqrt(), zero).to_array()
    }
}

/// Welch's two-sample t statistic between accumulated samples `a` and `b`.
///
/// This is the statistic TVLA thresholds at |t| ≥ 4.5. Returns 0 when
/// either sample has fewer than 2 observations or both variances vanish.
///
/// # Examples
///
/// ```
/// use psc_sca::stats::{RunningMoments, welch_t};
/// let mut a = RunningMoments::new();
/// let mut b = RunningMoments::new();
/// a.extend([1.0, 2.0, 3.0]);
/// b.extend([1.0, 2.0, 3.0]);
/// assert_eq!(welch_t(&a, &b), 0.0);
/// ```
#[must_use]
pub fn welch_t(a: &RunningMoments, b: &RunningMoments) -> f64 {
    if a.count() < 2 || b.count() < 2 {
        return 0.0;
    }
    let se2 = a.variance() / a.count() as f64 + b.variance() / b.count() as f64;
    if se2 <= 0.0 {
        return 0.0;
    }
    (a.mean() - b.mean()) / se2.sqrt()
}

/// Welch–Satterthwaite degrees of freedom (reported alongside t-scores for
/// completeness; TVLA's 4.5 threshold assumes large samples).
#[must_use]
pub fn welch_df(a: &RunningMoments, b: &RunningMoments) -> f64 {
    if a.count() < 2 || b.count() < 2 {
        return 0.0;
    }
    let va = a.variance() / a.count() as f64;
    let vb = b.variance() / b.count() as f64;
    let denom = va * va / (a.count() - 1) as f64 + vb * vb / (b.count() - 1) as f64;
    if denom <= 0.0 {
        return 0.0;
    }
    (va + vb).powi(2) / denom
}

/// One-pass Pearson correlation accumulator between a hypothesis stream
/// `h` and a trace stream `t`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Correlation {
    n: u64,
    sum_h: f64,
    sum_t: f64,
    sum_hh: f64,
    sum_tt: f64,
    sum_ht: f64,
}

impl Correlation {
    /// Empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one (hypothesis, trace) pair.
    pub fn push(&mut self, h: f64, t: f64) {
        self.n += 1;
        self.sum_h += h;
        self.sum_t += t;
        self.sum_hh += h * h;
        self.sum_tt += t * t;
        self.sum_ht += h * t;
    }

    /// Number of pairs.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Merge two accumulators (parallel collection shards). Exact: the
    /// moment sums simply add, so `merge(a, b)` equals accumulating both
    /// streams into one accumulator up to floating-point reassociation.
    #[must_use]
    pub fn merged(self, other: Self) -> Self {
        Self {
            n: self.n + other.n,
            sum_h: self.sum_h + other.sum_h,
            sum_t: self.sum_t + other.sum_t,
            sum_hh: self.sum_hh + other.sum_hh,
            sum_tt: self.sum_tt + other.sum_tt,
            sum_ht: self.sum_ht + other.sum_ht,
        }
    }

    /// Pearson r (0 when undefined: fewer than 2 pairs or zero variance).
    #[must_use]
    pub fn r(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let n = self.n as f64;
        let cov = self.sum_ht - self.sum_h * self.sum_t / n;
        let var_h = self.sum_hh - self.sum_h * self.sum_h / n;
        let var_t = self.sum_tt - self.sum_t * self.sum_t / n;
        if var_h <= 0.0 || var_t <= 0.0 {
            return 0.0;
        }
        (cov / (var_h * var_t).sqrt()).clamp(-1.0, 1.0)
    }
}

/// Complementary error function (Abramowitz & Stegun 7.1.26, |ε| ≤ 1.5e-7).
#[must_use]
fn erfc(x: f64) -> f64 {
    let sign_positive = x >= 0.0;
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let result = poly * (-x * x).exp();
    if sign_positive {
        result
    } else {
        2.0 - result
    }
}

/// Two-sided p-value of a t-score under the large-sample normal
/// approximation (TVLA's regime: thousands of traces, so Student-t ≈ N).
/// The 4.5 threshold corresponds to p ≈ 6.8×10⁻⁶ per test — the basis of
/// TVLA's "99.999% confidence" claim the paper quotes.
///
/// # Examples
///
/// ```
/// use psc_sca::stats::p_value_two_sided;
/// assert!(p_value_two_sided(0.0) > 0.99);
/// let p_at_threshold = p_value_two_sided(4.5);
/// assert!(p_at_threshold < 1.0e-5 && p_at_threshold > 1.0e-7);
/// ```
#[must_use]
pub fn p_value_two_sided(t_score: f64) -> f64 {
    erfc(t_score.abs() / core::f64::consts::SQRT_2)
}

/// Batch Pearson correlation of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
pub fn pearson(h: &[f64], t: &[f64]) -> f64 {
    assert_eq!(h.len(), t.len(), "pearson requires equal lengths");
    let mut acc = Correlation::new();
    for (&x, &y) in h.iter().zip(t) {
        acc.push(x, y);
    }
    acc.r()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_match_textbook() {
        let mut m = RunningMoments::new();
        m.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(m.count(), 8);
        assert!((m.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic dataset is 32/7.
        assert!((m.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_are_safe() {
        let m = RunningMoments::new();
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.variance(), 0.0);
        let mut one = RunningMoments::new();
        one.push(3.0);
        assert_eq!(one.variance(), 0.0);
    }

    #[test]
    fn central_moments_match_textbook_and_merge() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut whole = CentralMoments::default();
        data.iter().for_each(|&x| whole.push(x));
        // Deviations from the mean 5: -3 -1 -1 -1 0 0 2 4.
        let (n, [mean, m2, m3, m4]) = whole.raw();
        assert_eq!(n, 8);
        assert!((mean - 5.0).abs() < 1e-12);
        assert!((m2 - 32.0).abs() < 1e-12);
        assert!((m3 - 42.0).abs() < 1e-12);
        assert!((m4 - 356.0).abs() < 1e-12);
        let (mut left, mut right) = (CentralMoments::default(), CentralMoments::default());
        data[..3].iter().for_each(|&x| left.push(x));
        data[3..].iter().for_each(|&x| right.push(x));
        let (_, merged) = left.merged(right).raw();
        for (a, b) in merged.iter().zip([mean, m2, m3, m4]) {
            assert!((a - b).abs() < 1e-9, "{merged:?}");
        }
        // Centred squares 9 1 1 1 0 0 4 16: mean 4, sum of squares 356 - 32²/8.
        let so = whole.second_order();
        assert!((so.mean() - 4.0).abs() < 1e-12);
        assert!((so.variance() - (356.0 - 128.0) / 7.0).abs() < 1e-12);
        assert_eq!(CentralMoments::default().second_order(), RunningMoments::new());
    }

    #[test]
    fn extend_slice_matches_push_bitwise() {
        let data: Vec<f64> = (0..257).map(|i| (f64::from(i) * 0.71).sin() * 42.0 + 3.0).collect();
        let mut pushed = RunningMoments::new();
        for &x in &data {
            pushed.push(x);
        }
        let mut sliced = RunningMoments::new();
        sliced.extend_slice(&data[..100]);
        sliced.extend_slice(&[]);
        sliced.extend_slice(&data[100..]);
        assert_eq!(pushed.raw().0, sliced.raw().0);
        assert_eq!(pushed.raw().1.to_bits(), sliced.raw().1.to_bits());
        assert_eq!(pushed.raw().2.to_bits(), sliced.raw().2.to_bits());
    }

    #[test]
    fn moments_quad_matches_independent_lanes_bitwise() {
        // Four columns with different None (denied-read) patterns,
        // including an all-None lane.
        let rows = 113usize;
        let cols: [Vec<Option<f64>>; 4] = core::array::from_fn(|lane| {
            (0..rows)
                .map(|i| match lane {
                    0 => Some((i as f64 * 0.37).cos() * 5.0),
                    1 => (i % 3 != 0).then_some(i as f64 * 0.5 - 7.0),
                    2 => (i % 7 == 0).then(|| (i as f64).sqrt()),
                    _ => None,
                })
                .collect()
        });
        let col_refs: [&[Option<f64>]; 4] = core::array::from_fn(|k| cols[k].as_slice());
        let mut quad = MomentsQuad::load([RunningMoments::new(); 4]);
        quad.extend_columns(col_refs);
        let mut quad_scalar = MomentsQuad::load([RunningMoments::new(); 4]);
        quad_scalar.extend_columns_scalar(col_refs);
        let reference: [RunningMoments; 4] = core::array::from_fn(|k| {
            let mut m = RunningMoments::new();
            m.extend(cols[k].iter().copied().flatten());
            m
        });
        for (got, want) in [quad.store(), quad_scalar.store()].iter().flat_map(|lanes| {
            lanes.iter().copied().zip(reference.iter().copied()).collect::<Vec<_>>()
        }) {
            assert_eq!(got.raw().0, want.raw().0);
            assert_eq!(got.raw().1.to_bits(), want.raw().1.to_bits());
            assert_eq!(got.raw().2.to_bits(), want.raw().2.to_bits());
        }
    }

    #[test]
    fn welch_t_x4_matches_scalar_including_degenerates() {
        let filled = |xs: &[f64]| {
            let mut m = RunningMoments::new();
            m.extend_slice(xs);
            m
        };
        let a = [
            filled(&[1.0, 2.0, 3.5, 0.7, 2.2]),
            filled(&[]),              // n = 0
            filled(&[5.0]),           // n = 1
            filled(&[4.0, 4.0, 4.0]), // zero variance
        ];
        let b = [
            filled(&[0.5, 3.0, 2.5, 1.7, 2.9]),
            filled(&[1.0, 2.0, 3.0]),
            filled(&[1.0, 2.0, 3.0]),
            filled(&[4.0, 4.0]), // zero variance on both sides → se2 = 0
        ];
        let fast = welch_t_x4(&a, &b);
        let slow = welch_t_x4_scalar(&a, &b);
        for k in 0..4 {
            let want = welch_t(&a[k], &b[k]);
            assert_eq!(fast[k].to_bits(), want.to_bits(), "lane {k} dispatch");
            assert_eq!(slow[k].to_bits(), want.to_bits(), "lane {k} scalar");
        }
        assert_eq!(fast[1], 0.0);
        assert_eq!(fast[2], 0.0);
        assert_eq!(fast[3], 0.0);
    }

    #[test]
    fn merged_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = RunningMoments::new();
        whole.extend(data.iter().copied());
        let mut left = RunningMoments::new();
        left.extend(data[..37].iter().copied());
        let mut right = RunningMoments::new();
        right.extend(data[37..].iter().copied());
        let merged = left.merged(right);
        assert_eq!(merged.count(), whole.count());
        assert!((merged.mean() - whole.mean()).abs() < 1e-12);
        assert!((merged.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merged_with_empty_is_identity() {
        let mut m = RunningMoments::new();
        m.extend([1.0, 2.0, 3.0]);
        assert_eq!(m.merged(RunningMoments::new()), m);
        assert_eq!(RunningMoments::new().merged(m), m);
    }

    #[test]
    fn welch_t_zero_for_identical() {
        let mut a = RunningMoments::new();
        let mut b = RunningMoments::new();
        a.extend([1.0, 2.0, 3.0, 4.0]);
        b.extend([4.0, 3.0, 2.0, 1.0]);
        assert_eq!(welch_t(&a, &b), 0.0);
    }

    #[test]
    fn welch_t_antisymmetric() {
        let mut a = RunningMoments::new();
        let mut b = RunningMoments::new();
        a.extend([1.0, 2.0, 3.0, 4.0, 5.0]);
        b.extend([2.0, 3.0, 4.0, 5.0, 7.0]);
        assert!((welch_t(&a, &b) + welch_t(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn welch_t_known_value() {
        // Two samples with known statistics: a = N(0) samples, b shifted.
        let mut a = RunningMoments::new();
        let mut b = RunningMoments::new();
        a.extend([0.0, 1.0, -1.0, 0.5, -0.5]); // mean 0, var 0.625
        b.extend([2.0, 3.0, 1.0, 2.5, 1.5]); // mean 2, var 0.625
        let t = welch_t(&a, &b);
        let expected = (0.0 - 2.0) / (0.625f64 / 5.0 + 0.625 / 5.0).sqrt();
        assert!((t - expected).abs() < 1e-12);
    }

    #[test]
    fn welch_t_translation_invariant() {
        let xs = [1.0, 2.0, 3.5, 0.7, 2.2];
        let ys = [0.5, 3.0, 2.5, 1.7, 2.9];
        let t_of = |shift: f64| {
            let mut a = RunningMoments::new();
            let mut b = RunningMoments::new();
            a.extend(xs.iter().map(|x| x + shift));
            b.extend(ys.iter().map(|y| y + shift));
            welch_t(&a, &b)
        };
        assert!((t_of(0.0) - t_of(1234.5)).abs() < 1e-8);
    }

    #[test]
    fn welch_df_reasonable() {
        let mut a = RunningMoments::new();
        let mut b = RunningMoments::new();
        a.extend((0..50).map(f64::from));
        b.extend((0..50).map(|i| f64::from(i) * 1.1));
        let df = welch_df(&a, &b);
        assert!(df > 40.0 && df < 100.0, "df={df}");
    }

    #[test]
    fn correlation_perfect_positive_negative() {
        let xs: Vec<f64> = (0..64).map(f64::from).collect();
        let pos: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.0).collect();
        let neg: Vec<f64> = xs.iter().map(|x| -0.5 * x + 7.0).collect();
        assert!((pearson(&xs, &pos) - 1.0).abs() < 1e-12);
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_zero_variance_is_zero() {
        let xs = [1.0, 1.0, 1.0, 1.0];
        let ys = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(pearson(&xs, &ys), 0.0);
    }

    #[test]
    fn correlation_incremental_matches_batch() {
        let h: Vec<f64> = (0..200).map(|i| ((i * 37) % 17) as f64).collect();
        let t: Vec<f64> = (0..200).map(|i| ((i * 53) % 23) as f64 + 0.25).collect();
        let mut acc = Correlation::new();
        for (&x, &y) in h.iter().zip(&t) {
            acc.push(x, y);
        }
        assert!((acc.r() - pearson(&h, &t)).abs() < 1e-12);
        assert_eq!(acc.count(), 200);
    }

    #[test]
    fn correlation_bounded() {
        let h: Vec<f64> = (0..500).map(|i| ((i * 7919) % 104_729) as f64).collect();
        let t: Vec<f64> = (0..500).map(|i| ((i * 104_729) % 7919) as f64).collect();
        let r = pearson(&h, &t);
        assert!((-1.0..=1.0).contains(&r));
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn pearson_length_mismatch_panics() {
        let _ = pearson(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn p_values_match_known_quantiles() {
        // Standard normal two-sided quantiles.
        assert!((p_value_two_sided(1.959_964) - 0.05).abs() < 1e-4);
        assert!((p_value_two_sided(2.575_829) - 0.01).abs() < 1e-4);
        assert!((p_value_two_sided(-1.959_964) - 0.05).abs() < 1e-4, "symmetric in sign");
        // The A&S 7.1.26 approximation carries ~1.5e-7 absolute error.
        assert!((p_value_two_sided(0.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn p_value_monotone_decreasing() {
        let mut prev = 1.1;
        for i in 0..100 {
            let p = p_value_two_sided(f64::from(i) * 0.1);
            assert!(p <= prev + 1e-12);
            prev = p;
        }
    }

    #[test]
    fn tvla_threshold_is_the_papers_confidence() {
        // |t| ≥ 4.5 ⇒ distinguishable with 99.999% confidence (§3.3).
        let p = p_value_two_sided(4.5);
        assert!(p < 1.0e-5, "p at threshold {p}");
    }
}
