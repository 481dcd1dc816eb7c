//! CMOS-style leakage model over traced AES encryptions.
//!
//! When an Apple P-core retires `AESE`/`AESMC` instructions, the register
//! file and datapath toggle proportionally to the values being processed —
//! that is the physical effect the paper's SMC power meters integrate. We
//! model the noiseless, deterministic part of that effect here: a weighted
//! sum of Hamming weights (and optionally Hamming distances) over the
//! architectural round states of one encryption.
//!
//! The weights in [`LeakageWeights::default`] are calibrated, together with
//! the per-device signal coupling (`psc_core::Device::aes_signal`) and the
//! per-key sensor pipelines (`psc_smc::sensors` module docs), so that the
//! paper's three CPA hypothesis models behave as measured:
//!
//! * `Rd0-HW` (state after the initial AddRoundKey) — strongest leakage,
//!   fastest guessing-entropy convergence (Fig. 1);
//! * `Rd10-HW` (state entering the final SubBytes) — present but weaker, so
//!   convergence is slower;
//! * `Rd10-HD` (distance between last-round input and ciphertext) — not a
//!   term of the physical model, so CPA with it stalls.
//!
//! Noise is *not* added here: the SoC/SMC layers own noise, quantization
//! and averaging, mirroring where those effects live physically.
//!
//! ## Traced vs fused evaluation
//!
//! [`LeakageModel::activity`] — the hot path every simulated trace goes
//! through — runs a **fused** kernel with zero heap allocation: under the
//! default HW-only weights it evaluates [`Aes::encrypt_with_hw_profile`] (a
//! table-driven round function producing the ciphertext and only the
//! AddRoundKey-output Hamming weights); with an HD term enabled, an
//! accumulator rides along [`Aes::encrypt_observed`] and folds every
//! intermediate state inline.
//! The **traced** path ([`LeakageModel::activity_traced`] /
//! [`LeakageModel::activity_of_trace`]) materializes the full
//! [`EncryptionTrace`] first and remains the ground truth the fused kernel
//! is validated against.
//!
//! The contract between the paths is *bit-identical equality*. Every path
//! accumulates the Hamming weights/distances into exact integer sums (one
//! per weight component), then combines them with the f64 weights in one
//! fixed-order expression — so `activity(pt)` ==
//! `activity_of_trace(&encrypt_traced(pt))` to the last bit for every key,
//! plaintext and weight profile. `tests/proptest_aes.rs` pins this.

use crate::cipher::{Aes, AesOp, EncryptionTrace, RoundObserver};
use crate::hamming::{hd_state, hw_state};
use crate::key_schedule::InvalidKeyLength;
use crate::state::State;

/// Weights of the deterministic leakage components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakageWeights {
    /// Weight on `HW(state after round-0 AddRoundKey)` — the paper's
    /// `Rd0-HW` target.
    pub round0_addkey: f64,
    /// Weight on `HW(state)` of every full-round AddRoundKey output
    /// (rounds 1..Nr-1).
    pub round_output: f64,
    /// Extra weight on `HW(state entering the final SubBytes)` — the
    /// paper's `Rd10-HW` target (this state equals the round-(Nr-1)
    /// AddRoundKey output, so it receives `round_output + last_round_input`).
    pub last_round_input: f64,
    /// Weight on `HW(ciphertext)` (final AddRoundKey output).
    pub ciphertext: f64,
    /// Weight on the Hamming distance between consecutive recorded states
    /// (register-overwrite leakage). Zero by default: on the simulated
    /// datapath, register updates are precharged, so only HW leaks — this
    /// is what makes the paper's `Rd10-HD` model fail to converge.
    pub hd_consecutive: f64,
}

impl Default for LeakageWeights {
    fn default() -> Self {
        Self {
            round0_addkey: 1.0,
            round_output: 0.15,
            last_round_input: 0.45,
            ciphertext: 0.15,
            hd_consecutive: 0.0,
        }
    }
}

impl LeakageWeights {
    /// A flat profile where every recorded state leaks equally — useful in
    /// ablation studies of the default calibration (see the module docs).
    #[must_use]
    pub fn uniform(weight: f64) -> Self {
        Self {
            round0_addkey: weight,
            round_output: weight,
            last_round_input: 0.0,
            ciphertext: weight,
            hd_consecutive: 0.0,
        }
    }

    /// A profile with register-overwrite (Hamming-distance) leakage enabled,
    /// used by the `ablation_leakage_weights` bench to show what Fig. 1
    /// would look like on a HD-leaking datapath.
    #[must_use]
    pub fn with_hd(mut self, hd: f64) -> Self {
        self.hd_consecutive = hd;
        self
    }
}

/// The fused activity kernel: a [`RoundObserver`] that folds Hamming terms
/// into exact integer sums as an encryption progresses, combining them
/// into the weighted f64 activity only once, in [`Self::finish`].
///
/// Because integer addition is exact, every evaluation path that feeds the
/// same Hamming weights — the fused table-driven profile, the observed
/// encryption, and a replay of a recorded trace — reaches identical sums,
/// and `finish()`'s single fixed-order weighted combination makes the
/// final f64 bit-identical across all of them. Holding its state entirely
/// on the stack, it makes [`LeakageModel::activity`] allocation-free.
#[derive(Debug)]
struct ActivityAccumulator<'w> {
    weights: &'w LeakageWeights,
    /// Number of cipher rounds (`Nr`) — decides which weight a given
    /// AddRoundKey output receives.
    nr: u8,
    hw_round0: u32,
    /// Σ HW over rounds `1..Nr` (the penultimate round also lands in
    /// `hw_last_in`; weights stack, mirroring [`LeakageWeights`]).
    hw_rounds: u32,
    hw_last_in: u32,
    hw_ciphertext: u32,
    hd_sum: u32,
    prev: State,
    has_prev: bool,
}

impl<'w> ActivityAccumulator<'w> {
    fn new(weights: &'w LeakageWeights, nr: u8) -> Self {
        Self {
            weights,
            nr,
            hw_round0: 0,
            hw_rounds: 0,
            hw_last_in: 0,
            hw_ciphertext: 0,
            hd_sum: 0,
            prev: [0u8; 16],
            has_prev: false,
        }
    }

    /// Credit the Hamming weight of round `round`'s AddRoundKey output.
    fn add_round_hw(&mut self, round: u8, hw: u32) {
        if round == 0 {
            self.hw_round0 += hw;
        } else if round == self.nr {
            self.hw_ciphertext += hw;
        } else {
            self.hw_rounds += hw;
            if round == self.nr.wrapping_sub(1) {
                self.hw_last_in += hw;
            }
        }
    }

    fn step(&mut self, round: u8, op: AesOp, state: &State) {
        if self.weights.hd_consecutive != 0.0 {
            if self.has_prev {
                self.hd_sum += hd_state(&self.prev, state);
            }
            self.prev = *state;
            self.has_prev = true;
        }
        if op == AesOp::AddRoundKey {
            self.add_round_hw(round, hw_state(state));
        }
    }

    /// The canonical weighted combination — the only place integer Hamming
    /// sums meet f64 weights, so its operation order defines the activity
    /// value for every evaluation path.
    fn finish(&self) -> f64 {
        let w = self.weights;
        let mut acc = w.round0_addkey * f64::from(self.hw_round0);
        acc += w.round_output * f64::from(self.hw_rounds);
        acc += w.last_round_input * f64::from(self.hw_last_in);
        acc += w.ciphertext * f64::from(self.hw_ciphertext);
        if w.hd_consecutive != 0.0 {
            acc += w.hd_consecutive * f64::from(self.hd_sum);
        }
        acc
    }
}

impl RoundObserver for ActivityAccumulator<'_> {
    fn observe(&mut self, round: u8, op: AesOp, state: &State) {
        self.step(round, op, state);
    }
}

/// Deterministic data-dependent activity model for AES encryptions.
///
/// # Examples
///
/// ```
/// use psc_aes::leakage::LeakageModel;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = LeakageModel::new(&[0u8; 16])?;
/// let a0 = model.activity(&[0x00u8; 16]);
/// let a1 = model.activity(&[0xFFu8; 16]);
/// assert_ne!(a0, a1, "activity is data-dependent");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LeakageModel {
    aes: Aes,
    weights: LeakageWeights,
}

impl LeakageModel {
    /// Build a model for a fixed key with default (paper-calibrated) weights.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidKeyLength`] if `key` is not 16/24/32 bytes.
    pub fn new(key: &[u8]) -> Result<Self, InvalidKeyLength> {
        Ok(Self { aes: Aes::new(key)?, weights: LeakageWeights::default() })
    }

    /// Build a model with explicit weights.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidKeyLength`] if `key` is not 16/24/32 bytes.
    pub fn with_weights(key: &[u8], weights: LeakageWeights) -> Result<Self, InvalidKeyLength> {
        Ok(Self { aes: Aes::new(key)?, weights })
    }

    /// The weights in effect.
    #[must_use]
    pub fn weights(&self) -> &LeakageWeights {
        &self.weights
    }

    /// The underlying cipher (e.g. to obtain ciphertexts for the attacker's
    /// known-plaintext records).
    #[must_use]
    pub fn cipher(&self) -> &Aes {
        &self.aes
    }

    /// Deterministic switching activity (arbitrary units) of encrypting
    /// `plaintext` once, together with the trace it was derived from. This
    /// is the ground-truth (traced) path; prefer [`Self::activity`] when
    /// the trace itself is not needed.
    #[must_use]
    pub fn activity_traced(&self, plaintext: &[u8; 16]) -> (f64, EncryptionTrace) {
        let trace = self.aes.encrypt_traced(plaintext);
        (self.activity_of_trace(&trace), trace)
    }

    /// Deterministic switching activity of encrypting `plaintext` once.
    ///
    /// Runs the fused kernel with zero heap allocation. Under the default
    /// HW-only weights (`hd_consecutive == 0`), the table-driven
    /// [`Aes::encrypt_with_hw_profile`] computes only the AddRoundKey-output
    /// Hamming weights the model consumes; with an HD term, the full
    /// observed encryption ([`Aes::encrypt_observed`]) feeds every
    /// intermediate state through the same accumulator. Either way the
    /// result equals the traced computation bit for bit (module docs
    /// explain the contract).
    #[must_use]
    pub fn activity(&self, plaintext: &[u8; 16]) -> f64 {
        self.encrypt_with_activity(plaintext).1
    }

    /// The ciphertext of `plaintext` together with its
    /// [`Self::activity`], from one encryption: both fused kernels
    /// ([`Aes::encrypt_with_hw_profile`], and [`Aes::encrypt_observed`]
    /// when an HD term is on) produce the ciphertext as they go. The
    /// ciphertext equals [`Aes::encrypt_block`] and the activity equals
    /// [`Self::activity`], bit for bit.
    #[must_use]
    pub fn encrypt_with_activity(&self, plaintext: &[u8; 16]) -> ([u8; 16], f64) {
        let nr = self.aes.schedule().rounds() as u8;
        let mut acc = ActivityAccumulator::new(&self.weights, nr);
        let ciphertext = if self.weights.hd_consecutive == 0.0 {
            let (ciphertext, profile) = self.aes.encrypt_with_hw_profile(plaintext);
            for (r, &hw) in profile.hw.iter().enumerate().take(profile.rounds + 1) {
                acc.add_round_hw(r as u8, hw);
            }
            ciphertext
        } else {
            self.aes.encrypt_observed(plaintext, &mut acc)
        };
        (ciphertext, acc.finish())
    }

    /// Activity of an already-recorded trace (the ground-truth computation
    /// the fused kernel is pinned against).
    #[must_use]
    pub fn activity_of_trace(&self, trace: &EncryptionTrace) -> f64 {
        let nr = trace.states.last().map_or(0, |s| s.round);
        let mut acc = ActivityAccumulator::new(&self.weights, nr);
        for rs in &trace.states {
            acc.step(rs.round, rs.op, &rs.state);
        }
        acc.finish()
    }

    /// The maximum possible activity under these weights (all tracked states
    /// at Hamming weight 128), ignoring HD terms. Useful for normalizing
    /// into a power budget.
    #[must_use]
    pub fn max_activity(&self) -> f64 {
        let nr = self.aes.schedule().rounds() as f64;
        let w = &self.weights;
        128.0 * (w.round0_addkey + w.round_output * (nr - 1.0) + w.last_round_input + w.ciphertext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> LeakageModel {
        LeakageModel::new(&[
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ])
        .unwrap()
    }

    #[test]
    fn activity_is_deterministic() {
        let m = model();
        let pt = [0x5Au8; 16];
        assert_eq!(m.activity(&pt), m.activity(&pt));
    }

    #[test]
    fn activity_is_data_dependent() {
        let m = model();
        assert_ne!(m.activity(&[0x00u8; 16]), m.activity(&[0xFFu8; 16]));
    }

    #[test]
    fn activity_positive_and_below_max() {
        let m = model();
        for s in 0u8..32 {
            let pt: [u8; 16] = core::array::from_fn(|i| (i as u8).wrapping_mul(s).wrapping_add(s));
            let a = m.activity(&pt);
            assert!(a > 0.0, "activity must be positive");
            assert!(a <= m.max_activity(), "activity {a} above bound {}", m.max_activity());
        }
    }

    #[test]
    fn round0_component_dominates_default_weights() {
        // Two plaintexts whose round-0 AddRoundKey outputs have extreme HW
        // difference must produce clearly different activity.
        let key = [0u8; 16];
        let m = LeakageModel::new(&key).unwrap();
        // key=0 → round-0 state == plaintext.
        let low = m.activity(&[0x00u8; 16]);
        let high = m.activity(&[0xFFu8; 16]);
        // Rd0 term alone differs by 128 × 1.0; later rounds are pseudo-random
        // around HW 64 with small weights, so the ordering must hold.
        assert!(high > low + 32.0, "high={high} low={low}");
    }

    #[test]
    fn hd_weight_changes_activity() {
        let key = [3u8; 16];
        let base = LeakageModel::new(&key).unwrap();
        let hd = LeakageModel::with_weights(&key, LeakageWeights::default().with_hd(0.2)).unwrap();
        let pt = [0xA5u8; 16];
        assert!(hd.activity(&pt) > base.activity(&pt));
    }

    #[test]
    fn uniform_weights_profile() {
        let w = LeakageWeights::uniform(0.5);
        assert_eq!(w.round0_addkey, 0.5);
        assert_eq!(w.round_output, 0.5);
        assert_eq!(w.last_round_input, 0.0);
        assert_eq!(w.hd_consecutive, 0.0);
    }

    #[test]
    fn traced_variant_returns_matching_trace() {
        let m = model();
        let pt = [0x11u8; 16];
        let (a, trace) = m.activity_traced(&pt);
        assert_eq!(a, m.activity_of_trace(&trace));
        assert_eq!(trace.plaintext, pt);
        assert_eq!(trace.ciphertext, m.cipher().encrypt_block(&pt));
    }

    #[test]
    fn fused_equals_traced_bit_for_bit() {
        for hd in [0.0, 0.2] {
            let weights = LeakageWeights::default().with_hd(hd);
            for key_len in [16usize, 24, 32] {
                let key: Vec<u8> = (0..key_len).map(|i| (i * 11 + 5) as u8).collect();
                let m = LeakageModel::with_weights(&key, weights).unwrap();
                for s in 0u8..8 {
                    let pt: [u8; 16] =
                        core::array::from_fn(|i| (i as u8).wrapping_mul(s).wrapping_add(7));
                    let (traced, trace) = m.activity_traced(&pt);
                    assert_eq!(m.activity(&pt).to_bits(), traced.to_bits(), "hd={hd} s={s}");
                    assert_eq!(m.activity_of_trace(&trace).to_bits(), traced.to_bits());
                }
            }
        }
    }

    #[test]
    fn one_pass_encryption_equals_encrypt_block_and_activity() {
        for hd in [0.0, 0.2] {
            let weights = LeakageWeights::default().with_hd(hd);
            for key_len in [16usize, 24, 32] {
                let key: Vec<u8> = (0..key_len).map(|i| (i * 7 + 3) as u8).collect();
                let m = LeakageModel::with_weights(&key, weights).unwrap();
                for s in 0u8..16 {
                    let pt: [u8; 16] =
                        core::array::from_fn(|i| (i as u8).wrapping_mul(s ^ 0x5A).wrapping_add(s));
                    let (ct, activity) = m.encrypt_with_activity(&pt);
                    assert_eq!(ct, m.cipher().encrypt_block(&pt), "hd={hd} s={s}");
                    assert_eq!(activity.to_bits(), m.activity(&pt).to_bits(), "hd={hd} s={s}");
                    let (traced, _) = m.activity_traced(&pt);
                    assert_eq!(activity.to_bits(), traced.to_bits(), "hd={hd} s={s}");
                }
            }
        }
    }

    #[test]
    fn max_activity_formula_aes128() {
        let m = model();
        let w = LeakageWeights::default();
        let expected =
            128.0 * (w.round0_addkey + w.round_output * 9.0 + w.last_round_input + w.ciphertext);
        assert_eq!(m.max_activity(), expected);
    }
}
