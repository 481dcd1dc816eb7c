//! Workloads the simulated cores can run.
//!
//! A workload contributes to core power in two parts:
//!
//! * a *mean* component — `intensity × utilization` plugged into the CMOS
//!   dynamic-power formula (`coeff·α·u·f·V²`), data-independent;
//! * a *window signal* — a zero-mean, data-dependent (for AES) or purely
//!   stochastic (for stressors) wattage deviation over one measurement
//!   window. This is the quantity the SMC power meters ultimately leak.
//!
//! The AES victim workload is where the paper's side channel originates:
//! its window signal is proportional to the [`psc_aes::LeakageModel`]
//! activity of the plaintext being processed, shared across victim threads
//! (the paper runs three copies with identical input to amplify leakage).

use crate::noise::gaussian;
use psc_aes::leakage::LeakageModel;
use rand::Rng;
use std::sync::{Arc, Mutex};

/// Per-batch evaluation plan of one thread's window signal.
///
/// Over a batch of windows in which the operating point (and therefore
/// `reps`) and the workload's data input stay constant, every built-in
/// workload's window signal is `deterministic_w + N(0, sigma_w²)` with an
/// independent Gaussian draw per window. Capturing the two scalars once
/// per batch lets [`crate::Soc::run_windows`] replace the per-window
/// virtual `window_signal_w` calls (each locking the shared plaintext and
/// activity memo) with a tight loop of batched Gaussian draws — while
/// consuming the simulation RNG in exactly the same order, so batched and
/// sequential evaluation stay bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalPlan {
    /// Data-dependent (noise-free) part of the signal, watts.
    pub deterministic_w: f64,
    /// Per-window Gaussian noise σ, watts. Zero draws nothing from the RNG
    /// (matching `window_signal_w` of noiseless workloads).
    pub sigma_w: f64,
}

impl SignalPlan {
    /// A plan with no signal at all (idle / constant-power workloads).
    #[must_use]
    pub fn silent() -> Self {
        Self { deterministic_w: 0.0, sigma_w: 0.0 }
    }

    /// Draw one window's signal. Bit-identical to the planned workload's
    /// `window_signal_w` at the `reps` the plan was built for.
    #[must_use]
    #[inline]
    pub fn sample<R: rand::RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        self.deterministic_w + gaussian(rng, 0.0, self.sigma_w)
    }

    /// Fill `out` with one signal per window, drawing noise in window
    /// order (slot 0 first).
    pub fn fill<R: rand::RngCore + ?Sized>(&self, out: &mut [f64], rng: &mut R) {
        for slot in out {
            *slot = self.sample(rng);
        }
    }
}

/// Behaviour of one simulated thread's computation.
pub trait Workload: Send + std::fmt::Debug {
    /// Human-readable name for logs and debugging.
    fn name(&self) -> &str;

    /// Fraction of cycles the thread keeps its core busy (0..=1).
    fn utilization(&self) -> f64 {
        1.0
    }

    /// Relative switching-activity factor α (1.0 ≈ typical integer code).
    fn intensity(&self) -> f64;

    /// Zero-mean power deviation (watts) of this thread over one window in
    /// which the workload body executed `reps` times.
    fn window_signal_w(&mut self, reps: f64, rng: &mut dyn rand::RngCore) -> f64;

    /// The batch evaluation plan at `reps` repetitions per window, if this
    /// workload's signal decomposes as `deterministic + N(0, σ²)` per
    /// window (true for every built-in workload). `None` makes the window
    /// engine fall back to per-window [`Workload::window_signal_w`] calls.
    ///
    /// Implementations must guarantee that, while the plan's inputs stay
    /// unchanged, `plan.sample(rng)` is **bit-identical** to
    /// `window_signal_w(reps, rng)` including RNG consumption.
    fn signal_plan(&mut self, reps: f64) -> Option<SignalPlan> {
        let _ = reps;
        None
    }

    /// Fill `out` with one window signal per slot — the vectorized form of
    /// [`Workload::window_signal_w`]. The default batches the Gaussian
    /// draws through [`Workload::signal_plan`] when one exists and
    /// otherwise loops the scalar path; either way the RNG is consumed
    /// exactly as `out.len()` sequential `window_signal_w` calls would.
    fn fill_window_signals(&mut self, reps: f64, out: &mut [f64], rng: &mut dyn rand::RngCore) {
        match self.signal_plan(reps) {
            Some(plan) => plan.fill(out, rng),
            None => {
                for slot in out {
                    *slot = self.window_signal_w(reps, rng);
                }
            }
        }
    }

    /// The deterministic (noise-free) part of the current data-dependent
    /// power deviation, watts. Zero for data-independent workloads. Used by
    /// the stepped simulation path so instantaneous rails carry the same
    /// data dependence the window path models.
    fn deterministic_signal_w(&self) -> f64 {
        0.0
    }
}

/// An idle placeholder workload (clock-gated core).
#[derive(Debug, Clone, Copy, Default)]
pub struct Idle;

impl Workload for Idle {
    fn name(&self) -> &str {
        "idle"
    }

    fn utilization(&self) -> f64 {
        0.0
    }

    fn intensity(&self) -> f64 {
        0.0
    }

    fn window_signal_w(&mut self, _reps: f64, _rng: &mut dyn rand::RngCore) -> f64 {
        0.0
    }

    fn signal_plan(&mut self, _reps: f64) -> Option<SignalPlan> {
        Some(SignalPlan::silent())
    }
}

/// `stress-ng --matrix`-style stressor: dense FP/SIMD matrix products, high
/// constant power with small data-independent jitter. Used to create the
/// busy condition for the Table 2 key screening.
#[derive(Debug, Clone, Copy)]
pub struct MatrixStressor {
    /// Per-window power jitter σ in watts.
    pub jitter_w: f64,
}

impl Default for MatrixStressor {
    fn default() -> Self {
        Self { jitter_w: 0.010 }
    }
}

impl Workload for MatrixStressor {
    fn name(&self) -> &str {
        "stress-ng-matrix"
    }

    fn intensity(&self) -> f64 {
        1.30
    }

    fn window_signal_w(&mut self, _reps: f64, rng: &mut dyn rand::RngCore) -> f64 {
        gaussian(rng, 0.0, self.jitter_w)
    }

    fn signal_plan(&mut self, _reps: f64) -> Option<SignalPlan> {
        Some(SignalPlan { deterministic_w: 0.0, sigma_w: self.jitter_w })
    }
}

/// The paper's §4 stressor: floating-point multiplies between two *constant*
/// operands — a steady, secret-independent load with (ideally) zero power
/// fluctuation, used to push total power over the 4 W lowpowermode limit
/// without adding noise.
#[derive(Debug, Clone, Copy, Default)]
pub struct FmulStressor;

impl Workload for FmulStressor {
    fn name(&self) -> &str {
        "fmul-stressor"
    }

    fn intensity(&self) -> f64 {
        0.95
    }

    fn window_signal_w(&mut self, _reps: f64, _rng: &mut dyn rand::RngCore) -> f64 {
        0.0
    }

    fn signal_plan(&mut self, _reps: f64) -> Option<SignalPlan> {
        Some(SignalPlan::silent())
    }
}

/// Shared, mutable plaintext input of an AES victim: the attacker (in the
/// known-plaintext model) writes it, every victim thread reads it.
pub type SharedPlaintext = Arc<Mutex<[u8; 16]>>;

/// Calibration of the AES victim's electrical signature. See DESIGN.md §6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AesSignal {
    /// Watts of rail deviation per unit of leakage activity, per thread.
    pub w_per_unit: f64,
    /// Residual per-window electrical noise σ (watts) from the victim core
    /// itself (amortized over the repeated encryptions in the window).
    pub residual_sigma_w: f64,
}

impl Default for AesSignal {
    fn default() -> Self {
        Self { w_per_unit: 5.0e-5, residual_sigma_w: 3.0e-4 }
    }
}

/// Shared memo of the last plaintext's leakage activity. All victim
/// threads of one campaign encrypt the *same* shared plaintext within a
/// window, so the first thread to evaluate a plaintext computes the fused
/// kernel once and every other thread (and every later window on the same
/// input) reads the cached scalar. A plaintext swap invalidates the entry
/// naturally: the cache is keyed by the plaintext bytes.
type ActivityCache = Arc<Mutex<Option<([u8; 16], f64)>>>;

/// The AES-Intrinsics-style victim workload: repeatedly encrypts the shared
/// plaintext with a fixed secret key for the whole window (the paper sizes
/// the repeat count so one input spans slightly more than one SMC update).
///
/// Cloning shares the per-plaintext activity memo: spawn victim replicas by
/// cloning one workload so that each window's activity is computed once,
/// not once per thread.
#[derive(Debug, Clone)]
pub struct AesWorkload {
    model: Arc<LeakageModel>,
    plaintext: SharedPlaintext,
    signal: AesSignal,
    center_activity: f64,
    cache: ActivityCache,
}

impl AesWorkload {
    /// Build a victim workload around a shared leakage model and plaintext.
    #[must_use]
    pub fn new(model: Arc<LeakageModel>, plaintext: SharedPlaintext) -> Self {
        Self::with_signal(model, plaintext, AesSignal::default())
    }

    /// Build with explicit signal calibration.
    #[must_use]
    pub fn with_signal(
        model: Arc<LeakageModel>,
        plaintext: SharedPlaintext,
        signal: AesSignal,
    ) -> Self {
        // E[HW(state)] = 64 for effectively-random states; the center makes
        // the window signal zero-mean so it never shifts the rail average.
        let w = model.weights();
        let rounds = model.cipher().schedule().rounds() as f64;
        let center_activity = 64.0
            * (w.round0_addkey
                + w.round_output * (rounds - 1.0)
                + w.last_round_input
                + w.ciphertext);
        Self { model, plaintext, signal, center_activity, cache: Arc::new(Mutex::new(None)) }
    }

    /// The signal calibration in effect.
    #[must_use]
    pub fn signal(&self) -> AesSignal {
        self.signal
    }

    /// Memoized leakage activity of `pt`: hit if the cache holds this exact
    /// plaintext, otherwise one fused-kernel evaluation repopulates it.
    fn activity_memoized(&self, pt: &[u8; 16]) -> f64 {
        let mut cache = self.cache.lock().expect("activity cache lock");
        if let Some((cached_pt, activity)) = *cache {
            if cached_pt == *pt {
                return activity;
            }
        }
        let activity = self.model.activity(pt);
        *cache = Some((*pt, activity));
        activity
    }

    /// Deterministic part of the current plaintext's signal, in watts.
    #[must_use]
    pub fn deterministic_signal_w(&self) -> f64 {
        let pt = *self.plaintext.lock().expect("plaintext lock");
        self.signal.w_per_unit * (self.activity_memoized(&pt) - self.center_activity)
    }
}

impl Workload for AesWorkload {
    fn name(&self) -> &str {
        "aes-victim"
    }

    fn intensity(&self) -> f64 {
        // Calibrated so one AES thread on an M2 P-core at 1.968 GHz draws
        // ≈0.7 W (§4: four threads ≈ 2.8 W).
        0.73
    }

    fn window_signal_w(&mut self, reps: f64, rng: &mut dyn rand::RngCore) -> f64 {
        self.signal_plan(reps).expect("AES workload always plans").sample(rng)
    }

    fn signal_plan(&mut self, reps: f64) -> Option<SignalPlan> {
        // Per-encryption electrical noise averages down over the window's
        // repetitions; `residual_sigma_w` is already the window-level value
        // for the nominal repetition count, so only mild extra averaging is
        // applied for longer windows.
        let averaging = (reps.max(1.0) / 1.0e7).sqrt().max(0.25);
        Some(SignalPlan {
            deterministic_w: self.deterministic_signal_w(),
            sigma_w: self.signal.residual_sigma_w / averaging,
        })
    }

    fn deterministic_signal_w(&self) -> f64 {
        AesWorkload::deterministic_signal_w(self)
    }
}

/// A first-order *masked* AES victim (see [`psc_aes::masked`]): every
/// encryption draws fresh uniform masks, so each recorded state's expected
/// Hamming weight is exactly 64 regardless of the data — the window-mean
/// power carries **zero** deterministic signal, and per-mask variance
/// averages down as 1/√reps. This workload therefore models the masked
/// victim analytically: no data-dependent component at all, only the
/// residual electrical noise (slightly larger than the unmasked victim's
/// because table recomputation adds activity jitter).
#[derive(Debug, Clone)]
pub struct MaskedAesWorkload {
    signal: AesSignal,
}

impl MaskedAesWorkload {
    /// Build with the device's signal calibration (the data-dependent
    /// coupling `w_per_unit` is irrelevant here — masking zeroes it).
    #[must_use]
    pub fn new(signal: AesSignal) -> Self {
        Self { signal }
    }
}

impl Workload for MaskedAesWorkload {
    fn name(&self) -> &str {
        "aes-victim-masked"
    }

    fn intensity(&self) -> f64 {
        // Slightly above the unmasked victim: the per-encryption masked
        // S-box recomputation costs extra switching activity.
        0.76
    }

    fn window_signal_w(&mut self, reps: f64, rng: &mut dyn rand::RngCore) -> f64 {
        self.signal_plan(reps).expect("masked AES workload always plans").sample(rng)
    }

    fn signal_plan(&mut self, reps: f64) -> Option<SignalPlan> {
        let averaging = (reps.max(1.0) / 1.0e7).sqrt().max(0.25);
        // Mask-sampling variance joins the residual noise; both average
        // down over the window's repetitions. No deterministic part at
        // all: masking scrubs the data dependence.
        Some(SignalPlan {
            deterministic_w: 0.0,
            sigma_w: 1.4 * self.signal.residual_sigma_w / averaging,
        })
    }
}

/// Convenience: a fresh shared plaintext handle.
#[must_use]
pub fn shared_plaintext(initial: [u8; 16]) -> SharedPlaintext {
    Arc::new(Mutex::new(initial))
}

/// Draw a uniformly random plaintext (helper for known-plaintext attacks).
#[must_use]
pub fn random_plaintext(rng: &mut impl Rng) -> [u8; 16] {
    let mut pt = [0u8; 16];
    rng.fill(&mut pt);
    pt
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(42)
    }

    fn aes_workload() -> (AesWorkload, SharedPlaintext) {
        let model = Arc::new(LeakageModel::new(&[7u8; 16]).unwrap());
        let pt = shared_plaintext([0u8; 16]);
        (AesWorkload::new(model, Arc::clone(&pt)), pt)
    }

    #[test]
    fn idle_contributes_nothing() {
        let mut idle = Idle;
        assert_eq!(idle.utilization(), 0.0);
        assert_eq!(idle.intensity(), 0.0);
        assert_eq!(idle.window_signal_w(1e7, &mut rng()), 0.0);
    }

    #[test]
    fn fmul_stressor_has_zero_fluctuation() {
        let mut fmul = FmulStressor;
        let mut r = rng();
        for _ in 0..16 {
            assert_eq!(fmul.window_signal_w(1e7, &mut r), 0.0);
        }
        assert!(fmul.intensity() > 0.5, "fmul is a real load");
    }

    #[test]
    fn matrix_stressor_jitters_but_zero_mean() {
        let mut m = MatrixStressor::default();
        let mut r = rng();
        let n = 4000;
        let mean: f64 = (0..n).map(|_| m.window_signal_w(1e7, &mut r)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.002, "mean {mean} should be ~0");
    }

    #[test]
    fn aes_signal_is_data_dependent() {
        let (w, pt) = aes_workload();
        *pt.lock().unwrap() = [0x00u8; 16];
        let s0 = w.deterministic_signal_w();
        *pt.lock().unwrap() = [0xFFu8; 16];
        let s1 = w.deterministic_signal_w();
        assert_ne!(s0, s1);
    }

    #[test]
    fn aes_signal_magnitude_sane() {
        // |signal| is bounded by w_per_unit × max activity deviation.
        let (w, pt) = aes_workload();
        let bound = w.signal().w_per_unit * 128.0 * 3.0; // generous
        for b in [0x00u8, 0x55, 0xAA, 0xFF] {
            *pt.lock().unwrap() = [b; 16];
            assert!(w.deterministic_signal_w().abs() < bound);
        }
    }

    #[test]
    fn aes_window_signal_centers_on_deterministic_part() {
        let (mut w, pt) = aes_workload();
        *pt.lock().unwrap() = [0xA5u8; 16];
        let det = w.deterministic_signal_w();
        let mut r = rng();
        let n = 4000;
        let mean: f64 = (0..n).map(|_| w.window_signal_w(1e7, &mut r)).sum::<f64>() / n as f64;
        assert!((mean - det).abs() < 1e-4, "mean {mean} vs det {det}");
    }

    #[test]
    fn aes_same_plaintext_same_deterministic_signal() {
        let (w, pt) = aes_workload();
        *pt.lock().unwrap() = [0x3Cu8; 16];
        assert_eq!(w.deterministic_signal_w(), w.deterministic_signal_w());
    }

    #[test]
    fn memoized_signal_matches_unmemoized_model() {
        let (w, pt) = aes_workload();
        for b in [0x00u8, 0x3C, 0x3C, 0xFF, 0x3C] {
            *pt.lock().unwrap() = [b; 16];
            let direct = w.signal().w_per_unit * (w.model.activity(&[b; 16]) - w.center_activity);
            // Cache hits and misses alike must reproduce the direct value.
            assert_eq!(w.deterministic_signal_w().to_bits(), direct.to_bits());
        }
    }

    #[test]
    fn clones_share_the_activity_memo() {
        let (w, pt) = aes_workload();
        let replica = w.clone();
        *pt.lock().unwrap() = [0x77u8; 16];
        let first = w.deterministic_signal_w();
        assert_eq!(replica.deterministic_signal_w().to_bits(), first.to_bits());
        assert!(Arc::ptr_eq(&w.cache, &replica.cache), "clones must share one cache");
        // Plaintext swap invalidates by key: the replica sees fresh data.
        *pt.lock().unwrap() = [0x78u8; 16];
        assert_ne!(replica.deterministic_signal_w(), first);
    }

    #[test]
    fn aes_intensity_close_to_calibration() {
        let (w, _) = aes_workload();
        assert!((w.intensity() - 0.73).abs() < 1e-12);
        assert_eq!(w.utilization(), 1.0);
    }

    #[test]
    fn random_plaintext_varies() {
        let mut r = rng();
        let a = random_plaintext(&mut r);
        let b = random_plaintext(&mut r);
        assert_ne!(a, b);
    }
}
