//! Correlation Power Analysis over single-value traces.
//!
//! §3.4 of the paper: for each of the 16 key bytes, correlate the observed
//! SMC key values against the hypothesis model for all 256 guesses, rank
//! guesses by (absolute) correlation, and read off the rank of the true
//! byte.
//!
//! ## Implementation note — class binning
//!
//! All of the paper's models depend on attacker data only through one byte
//! per key byte ([`PowerModel::input_bytes`]). The accumulator therefore
//! keeps, per key byte, 256 bins of `(count, Σ value)` keyed by that input
//! byte — adding a trace is O(16), not O(16 × 256) — and reconstructs
//! every guess's Pearson correlation exactly from the bins:
//!
//! ```text
//! Σh   = Σ_v count(v)·H(v,g)        Σh²  = Σ_v count(v)·H(v,g)²
//! Σh·t = Σ_v sum_t(v)·H(v,g)
//! ```
//!
//! The sweep runs in two passes: a **count pass** (Σh and Σh², from the
//! bin counts alone) and a **value pass** (Σh·t). Channels that bin the
//! same rows have equal counts, so a finished report runs the count pass
//! once and each channel only its value pass ([`CountPassMemo`]).

use crate::model::PowerModel;
use crate::trace::{Trace, TraceSet};
use pulp::{F64x4, Simd, WithSimd};
use std::sync::{Arc, Mutex, PoisonError};

#[derive(Debug, Clone, Copy, Default)]
struct Bin {
    count: u64,
    sum_t: f64,
}

/// Precomputed hypothesis table for one power model, in **value-major**
/// layout: `rows[v][g]` is the hypothetical leakage of input byte `v`
/// under guess `g`.
///
/// The table is 256 × 256 f64 (528 KB with row padding) — expensive to
/// rebuild and identical for every [`Cpa`] instance of the same model, so
/// it is built once per model per process ([`HypTable::shared`]) and
/// shared via `Arc` by every channel, shard and job. The correlation
/// sweeps give each vector lane one guess and walk `v` in order, so
/// value-major rows put a block's adjacent guesses side by side: one
/// vector load per `v` fills four lanes, where guess-major rows would
/// force a gather from four rows 2 KB apart.
pub struct HypTable {
    model_name: &'static str,
    /// `rows[v][g]`; the guesses fill the first 256 entries of a row.
    rows: Vec<Row>,
}

/// One value-major table row, padded from 256 to 264 entries: a 2 KB row
/// stride maps every row's guess block onto the same few L1 sets, so a
/// block's 256 rows would evict each other; 2 112 B strides spread them.
type Row = [f64; ROW_LEN];
const ROW_LEN: usize = 264;

impl HypTable {
    /// The process-wide table for `model`, built on first use. Tables are
    /// keyed by [`PowerModel::name`], the identity [`Cpa::with_table`]
    /// checks.
    #[must_use]
    pub fn shared(model: &dyn PowerModel) -> Arc<Self> {
        static TABLES: Mutex<Vec<Arc<HypTable>>> = Mutex::new(Vec::new());
        // The list only ever gains a finished table, so a panic while the
        // lock was held cannot have left it invalid.
        let mut tables = TABLES.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(table) = tables.iter().find(|t| t.model_name == model.name()) {
            return Arc::clone(table);
        }
        let table = Arc::new(Self::for_model(model));
        tables.push(Arc::clone(&table));
        table
    }

    /// Build a fresh table for `model`, shared with nothing; analysis
    /// code wants [`Self::shared`].
    #[must_use]
    pub fn for_model(model: &dyn PowerModel) -> Self {
        let mut rows = vec![[0.0f64; ROW_LEN]; 256];
        for (v, row) in rows.iter_mut().enumerate() {
            for (g, cell) in row[..256].iter_mut().enumerate() {
                *cell = model.hypothesis_value(v as u8, g as u8);
            }
        }
        Self { model_name: model.name(), rows }
    }
}

impl core::fmt::Debug for HypTable {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("HypTable").field("model_name", &self.model_name).finish_non_exhaustive()
    }
}

/// Attempted to merge CPA accumulators built for different power models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpaMergeError {
    /// Model of the accumulator being merged into.
    pub ours: &'static str,
    /// Model of the accumulator being merged from.
    pub theirs: &'static str,
}

impl core::fmt::Display for CpaMergeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "cannot merge CPA accumulators: model {} vs {}", self.ours, self.theirs)
    }
}

impl std::error::Error for CpaMergeError {}

/// Attempted to restore checkpointed CPA state captured under a different
/// power model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpaRestoreError {
    /// Model of the live accumulator.
    pub ours: &'static str,
    /// Model recorded in the checkpointed state.
    pub theirs: String,
}

impl core::fmt::Display for CpaRestoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "cannot restore CPA state: live model {} vs checkpoint {}",
            self.ours, self.theirs
        )
    }
}

impl std::error::Error for CpaRestoreError {}

/// Raw accumulator state of a [`Cpa`] — everything a checkpoint must
/// persist to resume the accumulator bit-identically (the model itself and
/// the hypothesis table are code, rebuilt at restore time and validated by
/// name).
#[derive(Debug, Clone, PartialEq)]
pub struct CpaState {
    /// Name of the power model the state was captured under.
    pub model_name: String,
    /// The 16 × 256 `(count, Σ value)` bins, flattened key-byte-major.
    pub bins: Vec<(u64, f64)>,
    /// Traces accumulated.
    pub n: u64,
    /// Σ value over all traces.
    pub sum_t: f64,
    /// Σ value² over all traces.
    pub sum_tt: f64,
}

/// Streaming CPA accumulator for one channel and one power model.
#[derive(Debug)]
pub struct Cpa {
    model: Box<dyn PowerModel>,
    /// Shared value-major hypothesis table (see [`HypTable`]).
    table: Arc<HypTable>,
    /// Per key byte, per input-byte value.
    bins: Vec<[Bin; 256]>,
    n: u64,
    sum_t: f64,
    sum_tt: f64,
    /// Vectors (of four guesses each) per sweep block; see
    /// [`Self::set_unroll`].
    unroll: usize,
}

/// Guesses per vector: each `f64x4` lane owns one guess.
const LANES: usize = 4;

/// Guesses `g..g + 4` of one value-major hypothesis row, as one vector.
#[inline(always)]
fn guess_lanes<S: Simd>(row: &Row, g: usize) -> S::f64x4 {
    let quad: &[f64; LANES] = row[g..g + LANES].try_into().expect("four guesses");
    S::f64x4::from_array(*quad)
}

/// Store one block's per-guess sums at guess `g` of `out`.
#[inline(always)]
fn store_lanes<S: Simd, const N: usize>(acc: [S::f64x4; N], out: &mut [f64; 256], g: usize) {
    for (j, v) in acc.into_iter().enumerate() {
        out[g + j * LANES..g + (j + 1) * LANES].copy_from_slice(&v.to_array());
    }
}

/// The **count pass**, generic over the SIMD backend: per key byte and
/// guess, `Σh = Σ_v count(v)·H(v,g)` and `Σh² = Σ_v (count(v)·H(v,g))·H(v,g)`.
/// It reads the bin counts alone, so every accumulator with the same
/// counts shares one pass ([`CountPassMemo`]).
///
/// **Lane-per-guess layout:** each vector lane owns one guess's private
/// dependency chain, walked in `v` order, so per-guess addition order —
/// and therefore the result bits — is identical under every backend and
/// every unroll width. The unroll width (vectors per block) only changes
/// how guesses are *grouped*. Blocks run outermost, so one block's
/// columns of the table stay in cache across all key bytes.
struct CountSweep<'a> {
    /// Value-major hypothesis rows (`rows[v][g]`).
    rows: &'a [Row],
    /// Per key byte: dense per-value bin counts, as f64.
    cnt: &'a [[f64; 256]],
    unroll: usize,
    sum_h: &'a mut [[f64; 256]],
    sum_hh: &'a mut [[f64; 256]],
}

impl WithSimd for CountSweep<'_> {
    type Output = ();

    #[inline(always)]
    fn with_simd<S: Simd>(self) {
        match self.unroll {
            2 => self.sweep::<S, 2>(),
            8 => self.sweep::<S, 8>(),
            _ => self.sweep::<S, 4>(),
        }
    }
}

impl CountSweep<'_> {
    #[inline(always)]
    fn sweep<S: Simd, const N: usize>(self) {
        let Self { rows, cnt, sum_h, sum_hh, .. } = self;
        for g in (0..256).step_by(N * LANES) {
            let mut pairs =
                cnt.chunks_exact(2).zip(sum_h.chunks_exact_mut(2)).zip(sum_hh.chunks_exact_mut(2));
            for ((cnt, sum_h), sum_hh) in &mut pairs {
                Self::block::<S, N, 2>(rows, cnt, g, sum_h, sum_hh);
            }
            let tail = cnt.len() - cnt.len() % 2;
            Self::block::<S, N, 1>(rows, &cnt[tail..], g, &mut sum_h[tail..], &mut sum_hh[tail..]);
        }
    }

    /// One guess block of `B` key bytes (none when `cnt` is empty): the
    /// bytes share each vector load.
    #[inline(always)]
    fn block<S: Simd, const N: usize, const B: usize>(
        rows: &[Row],
        cnt: &[[f64; 256]],
        g: usize,
        sum_h: &mut [[f64; 256]],
        sum_hh: &mut [[f64; 256]],
    ) {
        let (Ok(cnt), Ok(sum_h), Ok(sum_hh)) = (
            <&[[f64; 256]; B]>::try_from(cnt),
            <&mut [[f64; 256]; B]>::try_from(sum_h),
            <&mut [[f64; 256]; B]>::try_from(sum_hh),
        ) else {
            return;
        };
        let mut h_acc = [[S::f64x4::splat(0.0); N]; B];
        let mut hh_acc = [[S::f64x4::splat(0.0); N]; B];
        for (v, row) in rows.iter().enumerate() {
            let h: [S::f64x4; N] = core::array::from_fn(|j| guess_lanes::<S>(row, g + j * LANES));
            for ((h_acc, hh_acc), cnt) in h_acc.iter_mut().zip(hh_acc.iter_mut()).zip(cnt) {
                let c = S::f64x4::splat(cnt[v]);
                for ((h_acc, hh_acc), &h) in h_acc.iter_mut().zip(hh_acc.iter_mut()).zip(&h) {
                    let ch = c * h;
                    *h_acc += ch;
                    *hh_acc += ch * h;
                }
            }
        }
        for (((h_acc, hh_acc), sum_h), sum_hh) in
            h_acc.into_iter().zip(hh_acc).zip(sum_h).zip(sum_hh)
        {
            store_lanes::<S, N>(h_acc, sum_h, g);
            store_lanes::<S, N>(hh_acc, sum_hh, g);
        }
    }
}

/// The **value pass**: per key byte and guess, `Σh·t = Σ_v sum_t(v)·H(v,g)`,
/// in the [`CountSweep`] lane layout and block order.
struct ValueSweep<'a> {
    /// Value-major hypothesis rows (`rows[v][g]`).
    rows: &'a [Row],
    /// Per key byte: dense per-value bin Σ value.
    st: &'a [[f64; 256]],
    unroll: usize,
    sum_ht: &'a mut [[f64; 256]],
}

impl WithSimd for ValueSweep<'_> {
    type Output = ();

    #[inline(always)]
    fn with_simd<S: Simd>(self) {
        match self.unroll {
            2 => self.sweep::<S, 2>(),
            8 => self.sweep::<S, 8>(),
            _ => self.sweep::<S, 4>(),
        }
    }
}

impl ValueSweep<'_> {
    #[inline(always)]
    fn sweep<S: Simd, const N: usize>(self) {
        let Self { rows, st, sum_ht, .. } = self;
        for g in (0..256).step_by(N * LANES) {
            let mut pairs = st.chunks_exact(2).zip(sum_ht.chunks_exact_mut(2));
            for (st, sum_ht) in &mut pairs {
                Self::block::<S, N, 2>(rows, st, g, sum_ht);
            }
            let tail = st.len() - st.len() % 2;
            Self::block::<S, N, 1>(rows, &st[tail..], g, &mut sum_ht[tail..]);
        }
    }

    /// One guess block of `B` key bytes (none when `st` is empty): the
    /// bytes share each vector load, doubling the independent chains.
    #[inline(always)]
    fn block<S: Simd, const N: usize, const B: usize>(
        rows: &[Row],
        st: &[[f64; 256]],
        g: usize,
        sum_ht: &mut [[f64; 256]],
    ) {
        let (Ok(st), Ok(sum_ht)) =
            (<&[[f64; 256]; B]>::try_from(st), <&mut [[f64; 256]; B]>::try_from(sum_ht))
        else {
            return;
        };
        let mut acc = [[S::f64x4::splat(0.0); N]; B];
        for (v, row) in rows.iter().enumerate() {
            let h: [S::f64x4; N] = core::array::from_fn(|j| guess_lanes::<S>(row, g + j * LANES));
            for (acc, st) in acc.iter_mut().zip(st) {
                let s = S::f64x4::splat(st[v]);
                for (acc, &h) in acc.iter_mut().zip(&h) {
                    *acc += s * h;
                }
            }
        }
        for (acc, sum_ht) in acc.into_iter().zip(sum_ht) {
            store_lanes::<S, N>(acc, sum_ht, g);
        }
    }
}

/// Run a sweep on the runtime-dispatched backend, or pinned to scalar.
fn run_sweep<W: WithSimd>(sweep: W, force_scalar: bool) -> W::Output {
    if force_scalar {
        pulp::dispatch_scalar(sweep)
    } else {
        pulp::dispatch(sweep)
    }
}

/// The scalar epilogue of one guess: covariance, variance, the guarded
/// normalized correlation. Identical under every backend (operates on
/// lane-extracted scalars).
#[inline(always)]
fn finish_guess(sum_t: f64, n: f64, var_t: f64, sum_h: f64, sum_hh: f64, sum_ht: f64) -> f64 {
    let cov = sum_ht - sum_h * sum_t / n;
    let var_h = sum_hh - sum_h * sum_h / n;
    if var_h <= 0.0 {
        0.0
    } else {
        (cov / (var_h * var_t).sqrt()).clamp(-1.0, 1.0)
    }
}

/// The count pass of one accumulator: Σh and Σh² for all 16 key bytes
/// and 256 guesses, with the bin counts they were taken over. Only the
/// power model and the counts determine it, so [`CountPassMemo`] serves
/// one pass to every accumulator whose counts compare equal.
struct CountPass {
    model_name: &'static str,
    /// Per key byte, the bin counts the sums cover.
    counts: Vec<[u64; 256]>,
    sum_h: Vec<[f64; 256]>,
    sum_hh: Vec<[f64; 256]>,
}

impl CountPass {
    /// Whether this pass is `cpa`'s own: same model, equal bin counts.
    fn serves(&self, cpa: &Cpa) -> bool {
        self.model_name == cpa.model.name()
            && self
                .counts
                .iter()
                .zip(&cpa.bins)
                .all(|(counts, bins)| counts.iter().zip(bins).all(|(&c, bin)| c == bin.count))
    }
}

/// Count passes shared by the accumulators of one finished report.
///
/// The channels of a CPA campaign bin the same rows, so unless a channel
/// denied reads their bin counts — and with them Σh and Σh² — are equal.
/// The memo keeps one [`CountPass`] per distinct count vector (96 KB
/// each) and hands it to an accumulator only after comparing its counts,
/// never on assumption; [`Self::ranks`] is then bit-identical to
/// [`Cpa::ranks`] at a value pass's cost.
#[derive(Default)]
pub struct CountPassMemo {
    passes: Mutex<Vec<CountPass>>,
}

impl core::fmt::Debug for CountPassMemo {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let passes = self.passes.lock().unwrap_or_else(PoisonError::into_inner).len();
        f.debug_struct("CountPassMemo").field("passes", &passes).finish()
    }
}

impl CountPassMemo {
    /// As [`Cpa::ranks`], on `cpa`'s count pass from this memo (run and
    /// kept on first use).
    #[must_use]
    pub fn ranks(&self, cpa: &Cpa, true_round_key: &[u8; 16]) -> [usize; 16] {
        let mut corr = [[0.0f64; 256]; 16];
        self.correlations_all_into(cpa, &mut corr);
        core::array::from_fn(|b| Cpa::rank_in(&corr[b], true_round_key[b]))
    }

    /// As [`Cpa::correlations_all_into`], on `cpa`'s count pass from this
    /// memo. Bit-identical to it.
    fn correlations_all_into(&self, cpa: &Cpa, out: &mut [[f64; 256]; 16]) {
        let Some(moments) = cpa.clear_and_guard(out) else { return };
        // A pass is pushed only once complete, so a panic while the lock
        // was held cannot have left the list invalid.
        let mut passes = self.passes.lock().unwrap_or_else(PoisonError::into_inner);
        let i = passes.iter().position(|p| p.serves(cpa)).unwrap_or_else(|| {
            passes.push(cpa.count_pass(false));
            passes.len() - 1
        });
        let pass = &passes[i];
        cpa.value_pass(&cpa.bins, &pass.sum_h, &pass.sum_hh, moments, out, false);
    }
}

impl Cpa {
    /// New accumulator for `model`, on the process-wide hypothesis table
    /// of [`HypTable::shared`].
    #[must_use]
    pub fn new(model: Box<dyn PowerModel>) -> Self {
        let table = HypTable::shared(model.as_ref());
        Self::with_table(model, table)
    }

    /// New accumulator on a given hypothesis table.
    ///
    /// # Panics
    ///
    /// Panics if `table` was built for a different model than `model` —
    /// correlating against a foreign table would silently produce garbage.
    #[must_use]
    pub fn with_table(model: Box<dyn PowerModel>, table: Arc<HypTable>) -> Self {
        assert_eq!(
            model.name(),
            table.model_name,
            "hypothesis table model mismatch: accumulator model vs table model"
        );
        Self {
            model,
            table,
            bins: vec![[Bin::default(); 256]; 16],
            n: 0,
            sum_t: 0.0,
            sum_tt: 0.0,
            unroll: Self::DEFAULT_UNROLL,
        }
    }

    /// Default correlation sweep unroll width (vectors per block).
    pub const DEFAULT_UNROLL: usize = 4;

    /// The unroll widths [`Self::set_unroll`] accepts — the autotuner's
    /// sweep domain.
    pub const UNROLL_WIDTHS: [usize; 3] = [2, 4, 8];

    /// Set the correlation sweep unroll width: how many four-guess
    /// vectors (= 4 × `unroll` lane chains) each sweep block carries. Pure
    /// throughput knob — every guess keeps its private accumulator chain
    /// regardless of grouping, so results are bit-identical across widths
    /// (and the autotuner may pick whichever is fastest on the host).
    ///
    /// # Panics
    ///
    /// Panics unless `unroll` is one of [`Self::UNROLL_WIDTHS`].
    pub fn set_unroll(&mut self, unroll: usize) {
        assert!(
            Self::UNROLL_WIDTHS.contains(&unroll),
            "unsupported CPA unroll width {unroll}; expected one of {:?}",
            Self::UNROLL_WIDTHS
        );
        self.unroll = unroll;
    }

    /// The hypothesis table, shareable with further accumulators of the
    /// same model (clone the `Arc`, not the table).
    #[must_use]
    pub fn shared_table(&self) -> &Arc<HypTable> {
        &self.table
    }

    /// The model in use.
    #[must_use]
    pub fn model(&self) -> &dyn PowerModel {
        self.model.as_ref()
    }

    /// Number of traces accumulated.
    #[must_use]
    pub fn trace_count(&self) -> u64 {
        self.n
    }

    /// Add one trace.
    pub fn add_trace(&mut self, trace: &Trace) {
        self.n += 1;
        self.sum_t += trace.value;
        self.sum_tt += trace.value * trace.value;
        let inputs = self.model.input_bytes(&trace.plaintext, &trace.ciphertext);
        for (bins, &v) in self.bins.iter_mut().zip(&inputs) {
            let bin = &mut bins[v as usize];
            bin.count += 1;
            bin.sum_t += trace.value;
        }
    }

    /// Add a whole set.
    pub fn add_set(&mut self, set: &TraceSet) {
        for t in set.iter() {
            self.add_trace(t);
        }
    }

    /// Add one column of rows: `values[i]` was observed for the row whose
    /// [`PowerModel::input_bytes`] are `inputs[i]`; `None` rows (denied
    /// reads) are skipped. **Bit-identical** to calling
    /// [`Self::add_trace`] once per present row in order — every
    /// accumulator (the trace moments and each bin) receives the same
    /// terms in the same order. The inputs are the caller's, so one pass
    /// over a block's rows serves every channel binned under the same
    /// model.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length.
    pub fn add_rows(&mut self, inputs: &[[u8; 16]], values: &[Option<f64>]) {
        assert_eq!(inputs.len(), values.len(), "one input row per value");
        for (input, value) in inputs.iter().zip(values) {
            let Some(t) = *value else { continue };
            self.n += 1;
            self.sum_t += t;
            self.sum_tt += t * t;
            for (bins, &v) in self.bins.iter_mut().zip(input) {
                let bin = &mut bins[v as usize];
                bin.count += 1;
                bin.sum_t += t;
            }
        }
    }

    /// Merge another accumulator collected under the *same* power model
    /// (parallel collection shards). Exact up to floating-point
    /// reassociation: bin counts and moment sums simply add.
    ///
    /// # Errors
    ///
    /// Returns [`CpaMergeError`] when the two accumulators were built for
    /// different power models; merging their bins would correlate against
    /// the wrong hypothesis table.
    pub fn merge(&mut self, other: &Self) -> Result<(), CpaMergeError> {
        if self.model.name() != other.model.name() {
            return Err(CpaMergeError { ours: self.model.name(), theirs: other.model.name() });
        }
        self.n += other.n;
        self.sum_t += other.sum_t;
        self.sum_tt += other.sum_tt;
        for (bins, other_bins) in self.bins.iter_mut().zip(&other.bins) {
            for (bin, other_bin) in bins.iter_mut().zip(other_bins.iter()) {
                bin.count += other_bin.count;
                bin.sum_t += other_bin.sum_t;
            }
        }
        Ok(())
    }

    /// Capture the raw accumulator state for checkpointing; see
    /// [`CpaState`]. [`Self::restore_raw`] inverts this exactly.
    #[must_use]
    pub fn raw_state(&self) -> CpaState {
        CpaState {
            model_name: self.model.name().to_owned(),
            bins: self.bins.iter().flatten().map(|b| (b.count, b.sum_t)).collect(),
            n: self.n,
            sum_t: self.sum_t,
            sum_tt: self.sum_tt,
        }
    }

    /// Overwrite this accumulator with checkpointed state captured by
    /// [`Self::raw_state`] on an accumulator of the same model. The
    /// restored accumulator continues the stream bit-identically.
    ///
    /// # Errors
    ///
    /// Returns [`CpaRestoreError`] when `state` was captured under a
    /// different power model.
    ///
    /// # Panics
    ///
    /// Panics if `state.bins` does not hold exactly 16 × 256 entries —
    /// decoded checkpoints validate the length before constructing a
    /// [`CpaState`], so this only fires on hand-built state.
    pub fn restore_raw(&mut self, state: &CpaState) -> Result<(), CpaRestoreError> {
        if self.model.name() != state.model_name {
            return Err(CpaRestoreError {
                ours: self.model.name(),
                theirs: state.model_name.clone(),
            });
        }
        assert_eq!(state.bins.len(), 16 * 256, "CpaState must carry 16x256 bins");
        for (bin, &(count, sum_t)) in self.bins.iter_mut().flatten().zip(&state.bins) {
            *bin = Bin { count, sum_t };
        }
        self.n = state.n;
        self.sum_t = state.sum_t;
        self.sum_tt = state.sum_tt;
        Ok(())
    }

    /// Pearson correlation for (`byte_index`, `guess`).
    ///
    /// # Panics
    ///
    /// Panics if `byte_index >= 16`.
    #[must_use]
    pub fn correlation(&self, byte_index: usize, guess: u8) -> f64 {
        let mut corr = [0.0f64; 256];
        self.correlations_into(byte_index, &mut corr);
        corr[guess as usize]
    }

    /// Correlations for all 256 guesses of one key byte.
    ///
    /// # Panics
    ///
    /// Panics if `byte_index >= 16`.
    #[must_use]
    pub fn correlations(&self, byte_index: usize) -> [f64; 256] {
        let mut out = [0.0f64; 256];
        self.correlations_into(byte_index, &mut out);
        out
    }

    /// As [`Self::correlations`], writing into a caller-owned buffer —
    /// the rank trackers and adaptive early-stop loops call this per key
    /// byte, and the in-place form spares them a 2 KB return copy each.
    ///
    /// The sweep is branch-free and vectorized: the bins are flattened
    /// into dense `f64` counts and Σ values, then the count pass
    /// (`CountSweep`: Σh, Σh²) and the value pass (`ValueSweep`: Σh·t)
    /// run as vector multiply-adds on the runtime-dispatched SIMD backend
    /// (AVX2 / NEON / scalar — see the crate docs' *SIMD dispatch &
    /// autotuning* section), each lane one guess and each vector one load
    /// of a value-major [`HypTable`] row. Every guess's sums keep their
    /// `v` order, so the result is **bit-identical** across backends and
    /// unroll widths (and to the historical scalar skip-empty loop: empty
    /// bins contribute exact `±0.0` terms, which never perturb a partial
    /// sum that starts at `+0.0`).
    ///
    /// # Panics
    ///
    /// Panics if `byte_index >= 16`.
    pub fn correlations_into(&self, byte_index: usize, out: &mut [f64; 256]) {
        self.correlations_into_impl(byte_index, out, false);
    }

    /// As [`Self::correlations_into`], pinned to the scalar fallback
    /// backend regardless of host capabilities or `PSC_SIMD`. This is the
    /// reference side of the simd == scalar bit-identity proptests and the
    /// baseline leg of the kernel benchmarks; analysis code should call
    /// [`Self::correlations_into`].
    ///
    /// # Panics
    ///
    /// Panics if `byte_index >= 16`.
    pub fn correlations_into_scalar(&self, byte_index: usize, out: &mut [f64; 256]) {
        self.correlations_into_impl(byte_index, out, true);
    }

    fn correlations_into_impl(&self, byte_index: usize, out: &mut [f64; 256], force_scalar: bool) {
        let out = core::slice::from_mut(out);
        let Some(moments) = self.clear_and_guard(out) else { return };
        let bins = core::slice::from_ref(&self.bins[byte_index]);
        let (mut sum_h, mut sum_hh) = ([[0.0f64; 256]], [[0.0f64; 256]]);
        self.count_sums(bins, &mut sum_h, &mut sum_hh, force_scalar);
        self.value_pass(bins, &sum_h, &sum_hh, moments, out, force_scalar);
    }

    /// Zero `out`, then the degenerate-input guards shared by every sweep
    /// entry point: `None` when no correlation is defined (fewer than 2
    /// traces, or a constant value column), else `(n, var_t)`.
    fn clear_and_guard(&self, out: &mut [[f64; 256]]) -> Option<(f64, f64)> {
        for o in out.iter_mut() {
            o.fill(0.0);
        }
        if self.n < 2 {
            return None;
        }
        let n = self.n as f64;
        let var_t = self.sum_tt - self.sum_t * self.sum_t / n;
        if var_t <= 0.0 {
            return None;
        }
        Some((n, var_t))
    }

    /// The count pass over `bins` (some of this accumulator's key bytes).
    fn count_sums(
        &self,
        bins: &[[Bin; 256]],
        sum_h: &mut [[f64; 256]],
        sum_hh: &mut [[f64; 256]],
        force_scalar: bool,
    ) {
        let cnt: Vec<[f64; 256]> =
            bins.iter().map(|bins| core::array::from_fn(|v| bins[v].count as f64)).collect();
        let rows = &self.table.rows;
        run_sweep(CountSweep { rows, cnt: &cnt, unroll: self.unroll, sum_h, sum_hh }, force_scalar);
    }

    /// This accumulator's count pass over all 16 key bytes.
    fn count_pass(&self, force_scalar: bool) -> CountPass {
        let mut sum_h = vec![[0.0f64; 256]; 16];
        let mut sum_hh = vec![[0.0f64; 256]; 16];
        self.count_sums(&self.bins, &mut sum_h, &mut sum_hh, force_scalar);
        CountPass {
            model_name: self.model.name(),
            counts: self.bins.iter().map(|bins| core::array::from_fn(|v| bins[v].count)).collect(),
            sum_h,
            sum_hh,
        }
    }

    /// The value pass over `bins`, finished against their count sums into
    /// `out` (one row per key byte of `bins`).
    fn value_pass(
        &self,
        bins: &[[Bin; 256]],
        sum_h: &[[f64; 256]],
        sum_hh: &[[f64; 256]],
        (n, var_t): (f64, f64),
        out: &mut [[f64; 256]],
        force_scalar: bool,
    ) {
        let st: Vec<[f64; 256]> =
            bins.iter().map(|bins| core::array::from_fn(|v| bins[v].sum_t)).collect();
        let mut sum_ht = vec![[0.0f64; 256]; bins.len()];
        let rows = &self.table.rows;
        run_sweep(
            ValueSweep { rows, st: &st, unroll: self.unroll, sum_ht: &mut sum_ht },
            force_scalar,
        );
        let sum_t = self.sum_t;
        for (((out, h), hh), ht) in out.iter_mut().zip(sum_h).zip(sum_hh).zip(&sum_ht) {
            for (g, c) in out.iter_mut().enumerate() {
                *c = finish_guess(sum_t, n, var_t, h[g], hh[g], ht[g]);
            }
        }
    }

    /// Correlations for all 256 guesses of **all 16 key bytes** in one
    /// call: the degenerate-input guards, the bin flattening, and the SIMD
    /// dispatch frames are paid once instead of 16 times, which is what the
    /// rank sweeps ([`Self::ranks`], [`Self::best_guesses`]) want. Each
    /// byte's 256 correlations are bit-identical to a per-byte
    /// [`Self::correlations_into`] call.
    pub fn correlations_all_into(&self, out: &mut [[f64; 256]; 16]) {
        self.correlations_all_into_impl(out, false);
    }

    /// As [`Self::correlations_all_into`], pinned to the scalar fallback —
    /// the reference side of bit-identity tests and benches.
    pub fn correlations_all_into_scalar(&self, out: &mut [[f64; 256]; 16]) {
        self.correlations_all_into_impl(out, true);
    }

    fn correlations_all_into_impl(&self, out: &mut [[f64; 256]; 16], force_scalar: bool) {
        let Some(moments) = self.clear_and_guard(out) else { return };
        let pass = self.count_pass(force_scalar);
        self.value_pass(&self.bins, &pass.sum_h, &pass.sum_hh, moments, out, force_scalar);
    }

    /// Guesses of one byte ranked by descending (signed) correlation — the
    /// paper's ranking rule. Signed ranking matters: under an HW model the
    /// complement guess correlates at exactly −r, so ranking by |r| would
    /// create a permanent tie at the top.
    #[must_use]
    pub fn ranked_guesses(&self, byte_index: usize) -> Vec<u8> {
        let mut corr = [0.0f64; 256];
        self.correlations_into(byte_index, &mut corr);
        let mut order: Vec<u8> = (0..=255).collect();
        order.sort_by(|&a, &b| corr[b as usize].total_cmp(&corr[a as usize]).then(a.cmp(&b)));
        order
    }

    /// 1-based rank of `true_byte` among all guesses for `byte_index`.
    ///
    /// Counts the guesses ordered strictly ahead of `true_byte` under the
    /// [`Self::ranked_guesses`] ordering (descending signed correlation,
    /// ties broken by ascending guess) — no 256-entry sort or allocation.
    #[must_use]
    pub fn rank_of(&self, byte_index: usize, true_byte: u8) -> usize {
        let mut corr = [0.0f64; 256];
        self.correlations_into(byte_index, &mut corr);
        Self::rank_in(&corr, true_byte)
    }

    fn rank_in(corr: &[f64; 256], true_byte: u8) -> usize {
        let target = corr[true_byte as usize];
        let mut rank = 1;
        for (g, c) in corr.iter().enumerate() {
            match c.total_cmp(&target) {
                core::cmp::Ordering::Greater => rank += 1,
                core::cmp::Ordering::Equal if (g as u8) < true_byte => rank += 1,
                _ => {}
            }
        }
        rank
    }

    /// Ranks of all 16 bytes of `true_round_key` (the round key matching
    /// [`PowerModel::recovered_round`]). One
    /// [`Self::correlations_all_into`] sweep serves all 16 bytes, so the
    /// guard checks, bin flatten and dispatch frame amortize across the
    /// whole rank vector.
    #[must_use]
    pub fn ranks(&self, true_round_key: &[u8; 16]) -> [usize; 16] {
        let mut corr = [[0.0f64; 256]; 16];
        self.correlations_all_into(&mut corr);
        core::array::from_fn(|b| Self::rank_in(&corr[b], true_round_key[b]))
    }

    /// The best guess and its correlation for every key byte — a whole-key
    /// [`Self::best_guess`] sweep amortized through
    /// [`Self::correlations_all_into`].
    #[must_use]
    pub fn best_guesses(&self) -> [(u8, f64); 16] {
        let mut corr = [[0.0f64; 256]; 16];
        self.correlations_all_into(&mut corr);
        core::array::from_fn(|b| Self::best_in(&corr[b]))
    }

    /// The best guess and its correlation for one byte. Single
    /// [`Self::correlations`] evaluation, scanned with the
    /// [`Self::ranked_guesses`] ordering (first on ties).
    #[must_use]
    pub fn best_guess(&self, byte_index: usize) -> (u8, f64) {
        let mut corr = [0.0f64; 256];
        self.correlations_into(byte_index, &mut corr);
        Self::best_in(&corr)
    }

    fn best_in(corr: &[f64; 256]) -> (u8, f64) {
        let mut best = 0usize;
        for (g, c) in corr.iter().enumerate().skip(1) {
            if c.total_cmp(&corr[best]) == core::cmp::Ordering::Greater {
                best = g;
            }
        }
        (best as u8, corr[best])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PowerModel, Rd0Hw, Rd10Hd, Rd10Hw};
    use psc_aes::Aes;

    /// A noiseless synthetic channel: value = HW(pt ⊕ key) summed over all
    /// 16 bytes. Rd0-HW CPA must recover every byte at rank 1.
    fn synthetic_rd0_traces(key: &[u8; 16], n: usize) -> TraceSet {
        let aes = Aes::new(key).unwrap();
        let mut set = TraceSet::new("synthetic");
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        for _ in 0..n {
            let mut pt = [0u8; 16];
            for b in pt.iter_mut() {
                // xorshift64 PRNG, dependency-free.
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                *b = (state >> 32) as u8;
            }
            let trace = aes.encrypt_traced(&pt);
            let value: u32 = trace.round0_addkey().iter().map(|&x| x.count_ones()).sum();
            set.push(Trace {
                value: f64::from(value),
                plaintext: pt,
                ciphertext: trace.ciphertext,
            });
        }
        set
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn noiseless_rd0_recovers_whole_key() {
        let key: [u8; 16] = core::array::from_fn(|i| (i * 19 + 41) as u8);
        let set = synthetic_rd0_traces(&key, 4000);
        let mut cpa = Cpa::new(Box::new(Rd0Hw));
        cpa.add_set(&set);
        let ranks = cpa.ranks(&key);
        assert_eq!(ranks, [1usize; 16], "ranks {ranks:?}");
        for b in 0..16 {
            let (guess, r) = cpa.best_guess(b);
            assert_eq!(guess, key[b]);
            assert!(r > 0.2, "byte {b} correlation {r}");
        }
    }

    #[test]
    fn rd10_model_recovers_round10_key_from_its_own_leakage() {
        // Channel leaks HW of the last-round input: Rd10-HW must find k10.
        let key: [u8; 16] = core::array::from_fn(|i| (i * 7 + 99) as u8);
        let aes = Aes::new(&key).unwrap();
        let k10 = *aes.schedule().round_key(10);
        let mut set = TraceSet::new("synthetic-rd10");
        let mut state = 0xDEAD_BEEF_CAFE_F00Du64;
        for _ in 0..4000 {
            let mut pt = [0u8; 16];
            for b in pt.iter_mut() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                *b = (state >> 24) as u8;
            }
            let trace = aes.encrypt_traced(&pt);
            let value: u32 = trace.last_round_input().iter().map(|&x| x.count_ones()).sum();
            set.push(Trace {
                value: f64::from(value),
                plaintext: pt,
                ciphertext: trace.ciphertext,
            });
        }
        let mut cpa = Cpa::new(Box::new(Rd10Hw));
        cpa.add_set(&set);
        let ranks = cpa.ranks(&k10);
        assert_eq!(ranks, [1usize; 16], "ranks {ranks:?}");
    }

    #[test]
    fn pure_noise_gives_random_ranks() {
        let key = [0x42u8; 16];
        let aes = Aes::new(&key).unwrap();
        let mut set = TraceSet::new("noise");
        let mut state = 0x0BAD_5EED_0BAD_5EEDu64;
        for i in 0..4000 {
            let mut pt = [0u8; 16];
            for b in pt.iter_mut() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                *b = (state >> 16) as u8;
            }
            let ct = aes.encrypt_block(&pt);
            // Value unrelated to the data.
            set.push(Trace { value: f64::from(i % 97), plaintext: pt, ciphertext: ct });
        }
        let mut cpa = Cpa::new(Box::new(Rd0Hw));
        cpa.add_set(&set);
        let ranks = cpa.ranks(&key);
        let mean_rank = ranks.iter().sum::<usize>() as f64 / 16.0;
        // Uniform ranks average ≈128.5; allow a very wide band.
        assert!(mean_rank > 40.0, "noise should not recover the key: {ranks:?}");
    }

    #[test]
    fn binned_correlation_matches_direct_pearson() {
        let key = [7u8; 16];
        let set = synthetic_rd0_traces(&key, 500);
        let mut cpa = Cpa::new(Box::new(Rd0Hw));
        cpa.add_set(&set);
        // Direct computation for a few (byte, guess) pairs.
        for &(b, g) in &[(0usize, 0u8), (3, 0x42), (15, 0xFF), (7, key[7])] {
            let hyp: Vec<f64> =
                set.iter().map(|t| Rd0Hw.hypothesis(&t.plaintext, &t.ciphertext, b, g)).collect();
            let vals: Vec<f64> = set.iter().map(|t| t.value).collect();
            let direct = crate::stats::pearson(&hyp, &vals);
            let binned = cpa.correlation(b, g);
            assert!((direct - binned).abs() < 1e-9, "b={b} g={g}: {direct} vs {binned}");
        }
    }

    #[test]
    fn empty_accumulator_is_neutral() {
        let cpa = Cpa::new(Box::new(Rd0Hw));
        assert_eq!(cpa.trace_count(), 0);
        assert_eq!(cpa.correlation(0, 0), 0.0);
        let ranked = cpa.ranked_guesses(0);
        assert_eq!(ranked.len(), 256);
        // Deterministic tie-break: ascending guess order.
        assert_eq!(ranked[0], 0);
        assert_eq!(ranked[255], 255);
    }

    #[test]
    fn ranks_are_one_based_permutation_positions() {
        let key = [1u8; 16];
        let set = synthetic_rd0_traces(&key, 300);
        let mut cpa = Cpa::new(Box::new(Rd0Hw));
        cpa.add_set(&set);
        for b in 0..16 {
            for probe in [0u8, 17, 255] {
                let rank = cpa.rank_of(b, probe);
                assert!((1..=256).contains(&rank));
            }
        }
    }

    #[test]
    fn shared_table_matches_private_table_exactly() {
        let key = [0x6Bu8; 16];
        let set = synthetic_rd0_traces(&key, 600);
        let mut private = Cpa::with_table(Box::new(Rd0Hw), Arc::new(HypTable::for_model(&Rd0Hw)));
        private.add_set(&set);
        let mut shared = Cpa::new(Box::new(Rd0Hw));
        shared.add_set(&set);
        // One table per model per process, whoever asks for it.
        assert!(Arc::ptr_eq(shared.shared_table(), &HypTable::shared(&Rd0Hw)));
        assert!(!Arc::ptr_eq(shared.shared_table(), private.shared_table()));
        for b in 0..16 {
            let pc = private.correlations(b);
            let sc = shared.correlations(b);
            for g in 0..256 {
                assert_eq!(pc[g].to_bits(), sc[g].to_bits(), "byte {b} guess {g}");
            }
        }
        assert_eq!(private.ranks(&key), shared.ranks(&key));
    }

    #[test]
    #[should_panic(expected = "hypothesis table model mismatch")]
    fn foreign_table_is_rejected() {
        let _ = Cpa::with_table(Box::new(Rd10Hw), HypTable::shared(&Rd0Hw));
    }

    #[test]
    fn rank_of_matches_sorted_position() {
        let key = [0x21u8; 16];
        let set = synthetic_rd0_traces(&key, 400);
        let mut cpa = Cpa::new(Box::new(Rd0Hw));
        cpa.add_set(&set);
        for b in [0usize, 5, 15] {
            let order = cpa.ranked_guesses(b);
            for probe in [0u8, 0x21, 0x80, 255] {
                let sorted_rank = order.iter().position(|&g| g == probe).unwrap() + 1;
                assert_eq!(cpa.rank_of(b, probe), sorted_rank, "byte {b} probe {probe}");
            }
        }
    }

    #[test]
    fn best_guess_matches_top_ranked() {
        let key = [0x99u8; 16];
        let set = synthetic_rd0_traces(&key, 400);
        let mut cpa = Cpa::new(Box::new(Rd0Hw));
        cpa.add_set(&set);
        for b in 0..16 {
            let (g, r) = cpa.best_guess(b);
            assert_eq!(g, cpa.ranked_guesses(b)[0]);
            assert_eq!(r, cpa.correlation(b, g));
        }
        // Tie behaviour (empty accumulator → all-zero correlations): the
        // lowest guess wins, matching ranked_guesses' tie-break.
        let empty = Cpa::new(Box::new(Rd0Hw));
        assert_eq!(empty.best_guess(3).0, 0);
        assert_eq!(empty.rank_of(3, 0), 1);
        assert_eq!(empty.rank_of(3, 255), 256);
    }

    #[test]
    fn add_rows_matches_sequential_add_trace_bitwise() {
        let key = [0x5Du8; 16];
        let set = synthetic_rd0_traces(&key, 777);
        // Every fifth row is a denied read.
        let values: Vec<Option<f64>> =
            set.iter().enumerate().map(|(i, t)| (i % 5 != 3).then_some(t.value)).collect();
        let models: [fn() -> Box<dyn PowerModel>; 3] =
            [|| Box::new(Rd0Hw), || Box::new(Rd10Hw), || Box::new(Rd10Hd)];
        for model in models {
            let mut sequential = Cpa::new(model());
            for (t, v) in set.iter().zip(&values) {
                if v.is_some() {
                    sequential.add_trace(t);
                }
            }
            let mut blocked = Cpa::new(model());
            let inputs: Vec<[u8; 16]> =
                set.iter().map(|t| model().input_bytes(&t.plaintext, &t.ciphertext)).collect();
            // Uneven chunks, including an empty one.
            let mut offset = 0;
            for chunk in [300usize, 0, 256, 221] {
                let rows = offset..offset + chunk;
                blocked.add_rows(&inputs[rows.clone()], &values[rows]);
                offset += chunk;
            }
            let name = model().name();
            assert_eq!(blocked.raw_state(), sequential.raw_state(), "{name}");
            for b in 0..16 {
                let sc = sequential.correlations(b);
                let bc = blocked.correlations(b);
                for g in 0..256 {
                    assert_eq!(sc[g].to_bits(), bc[g].to_bits(), "{name} byte {b} guess {g}");
                }
            }
        }
    }

    #[test]
    fn correlations_into_matches_correlations_bitwise() {
        let key = [0xC3u8; 16];
        let set = synthetic_rd0_traces(&key, 450);
        let mut cpa = Cpa::new(Box::new(Rd0Hw));
        cpa.add_set(&set);
        let mut buf = [f64::NAN; 256];
        for b in 0..16 {
            let owned = cpa.correlations(b);
            cpa.correlations_into(b, &mut buf);
            for g in 0..256 {
                assert_eq!(owned[g].to_bits(), buf[g].to_bits(), "byte {b} guess {g}");
            }
        }
        // The degenerate early returns must also clear the buffer.
        let empty = Cpa::new(Box::new(Rd0Hw));
        let mut buf = [f64::NAN; 256];
        empty.correlations_into(0, &mut buf);
        assert_eq!(buf, [0.0f64; 256]);
    }

    #[test]
    fn simd_dispatch_matches_scalar_bitwise_across_unrolls() {
        let key = [0xA7u8; 16];
        let set = synthetic_rd0_traces(&key, 333);
        let mut cpa = Cpa::new(Box::new(Rd0Hw));
        cpa.add_set(&set);
        let mut reference = [f64::NAN; 256];
        let mut got = [f64::NAN; 256];
        for unroll in Cpa::UNROLL_WIDTHS {
            cpa.set_unroll(unroll);
            for b in 0..16 {
                cpa.correlations_into_scalar(b, &mut reference);
                cpa.correlations_into(b, &mut got);
                for g in 0..256 {
                    assert_eq!(
                        reference[g].to_bits(),
                        got[g].to_bits(),
                        "unroll {unroll} byte {b} guess {g}"
                    );
                }
            }
        }
        // Unroll width must not change bits either: compare widths pairwise
        // at the scalar backend (per-guess chains are private to a lane).
        cpa.set_unroll(4);
        cpa.correlations_into_scalar(0, &mut reference);
        for unroll in [2usize, 8] {
            cpa.set_unroll(unroll);
            cpa.correlations_into_scalar(0, &mut got);
            for g in 0..256 {
                assert_eq!(reference[g].to_bits(), got[g].to_bits(), "unroll {unroll} guess {g}");
            }
        }
    }

    #[test]
    fn correlations_all_into_matches_per_byte_bitwise() {
        let key = [0x3Eu8; 16];
        let set = synthetic_rd0_traces(&key, 400);
        let mut cpa = Cpa::new(Box::new(Rd0Hw));
        cpa.add_set(&set);
        let mut all = [[f64::NAN; 256]; 16];
        cpa.correlations_all_into(&mut all);
        let mut single = [f64::NAN; 256];
        for (b, all_b) in all.iter().enumerate() {
            cpa.correlations_into(b, &mut single);
            for g in 0..256 {
                assert_eq!(all_b[g].to_bits(), single[g].to_bits(), "byte {b} guess {g}");
            }
        }
        // Degenerate accumulators must clear the whole buffer.
        let empty = Cpa::new(Box::new(Rd0Hw));
        let mut all = [[f64::NAN; 256]; 16];
        empty.correlations_all_into(&mut all);
        assert_eq!(all, [[0.0f64; 256]; 16]);
        // best_guesses is the amortized best_guess sweep.
        assert_eq!(cpa.best_guesses(), core::array::from_fn(|b| cpa.best_guess(b)));
    }

    /// The fused guess-major sweep the two passes replaced: per guess, the
    /// three sums in one `v` loop over a guess-major row. Kept as the
    /// reference the count and value passes must match bit for bit.
    fn fused_guess_major_reference(cpa: &Cpa) -> [[f64; 256]; 16] {
        let mut out = [[0.0f64; 256]; 16];
        let Some((n, var_t)) = cpa.clear_and_guard(&mut out) else { return out };
        let model = cpa.model();
        for (bins, out) in cpa.bins.iter().zip(out.iter_mut()) {
            for (g, corr) in out.iter_mut().enumerate() {
                let (mut sum_h, mut sum_hh, mut sum_ht) = (0.0f64, 0.0f64, 0.0f64);
                for (v, bin) in bins.iter().enumerate() {
                    let h = model.hypothesis_value(v as u8, g as u8);
                    let ch = bin.count as f64 * h;
                    sum_h += ch;
                    sum_hh += ch * h;
                    sum_ht += bin.sum_t * h;
                }
                *corr = finish_guess(cpa.sum_t, n, var_t, sum_h, sum_hh, sum_ht);
            }
        }
        out
    }

    #[test]
    fn two_pass_sweep_matches_fused_guess_major_reference_bitwise() {
        let key = [0x1Fu8; 16];
        let models: [fn() -> Box<dyn PowerModel>; 3] =
            [|| Box::new(Rd0Hw), || Box::new(Rd10Hw), || Box::new(Rd10Hd)];
        for model in models {
            for n in [0usize, 1, 2, 3, 50, 1_500] {
                let mut cpa = Cpa::new(model());
                cpa.add_set(&synthetic_rd0_traces(&key, n));
                let reference = fused_guess_major_reference(&cpa);
                for unroll in Cpa::UNROLL_WIDTHS {
                    cpa.set_unroll(unroll);
                    let mut got = [[f64::NAN; 256]; 16];
                    cpa.correlations_all_into(&mut got);
                    for (b, (r, g)) in reference.iter().zip(&got).enumerate() {
                        for (guess, (r, g)) in r.iter().zip(g).enumerate() {
                            assert_eq!(
                                r.to_bits(),
                                g.to_bits(),
                                "{} n={n} unroll {unroll} byte {b} guess {guess}",
                                cpa.model().name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn count_pass_memo_shares_only_equal_counts() {
        let key = [0x77u8; 16];
        let set = synthetic_rd0_traces(&key, 900);
        let inputs: Vec<[u8; 16]> =
            set.iter().map(|t| Rd0Hw.input_bytes(&t.plaintext, &t.ciphertext)).collect();
        // Two channels over the same rows with different values share
        // counts; a third with denied reads does not.
        let channel = |value: &dyn Fn(usize, f64) -> Option<f64>| {
            let column: Vec<Option<f64>> =
                set.iter().enumerate().map(|(i, t)| value(i, t.value)).collect();
            let mut cpa = Cpa::new(Box::new(Rd0Hw));
            cpa.add_rows(&inputs, &column);
            cpa
        };
        let a = channel(&|_, v| Some(v));
        let b = channel(&|i, v| Some(v * 0.5 + (i % 13) as f64));
        let sparse = channel(&|i, v| (i % 4 != 0).then_some(v));
        let memo = CountPassMemo::default();
        for cpa in [&a, &sparse, &b, &sparse, &a] {
            let mut shared = [[f64::NAN; 256]; 16];
            let mut own = [[f64::NAN; 256]; 16];
            memo.correlations_all_into(cpa, &mut shared);
            cpa.correlations_all_into(&mut own);
            for (s, o) in shared.iter().flatten().zip(own.iter().flatten()) {
                assert_eq!(s.to_bits(), o.to_bits());
            }
            assert_eq!(memo.ranks(cpa, &key), cpa.ranks(&key));
        }
        assert_eq!(memo.passes.lock().expect("memo lock").len(), 2, "one pass per count vector");
        // A degenerate accumulator clears the output without a pass.
        let mut out = [[f64::NAN; 256]; 16];
        memo.correlations_all_into(&Cpa::new(Box::new(Rd0Hw)), &mut out);
        assert_eq!(out, [[0.0f64; 256]; 16]);
    }

    #[test]
    #[should_panic(expected = "unsupported CPA unroll width")]
    fn unroll_width_is_validated() {
        let mut cpa = Cpa::new(Box::new(Rd0Hw));
        cpa.set_unroll(3);
    }

    #[test]
    fn correlations_all_bounded() {
        let key = [9u8; 16];
        let set = synthetic_rd0_traces(&key, 200);
        let mut cpa = Cpa::new(Box::new(Rd0Hw));
        cpa.add_set(&set);
        for b in 0..16 {
            for r in cpa.correlations(b) {
                assert!((-1.0..=1.0).contains(&r));
            }
        }
    }
}
