//! CPA hypothesis power models (§3.4 of the paper).
//!
//! The attacker posits that the measured power correlates with the Hamming
//! weight/distance of an intermediate AES state reachable from known data
//! (plaintext or ciphertext) and a single unknown key byte:
//!
//! * [`Rd0Hw`] — HW after the first AddRoundKey (`pt ⊕ k₀`), recovering the
//!   initial round key. Converges fastest in the paper (Fig. 1).
//! * [`Rd10Hw`] — HW before the last round's SubBytes
//!   (`InvSBox(ct ⊕ k₁₀)`), recovering the round-10 key. Converges slower.
//! * [`Rd10Hd`] — HD between last-round input and ciphertext. Does not
//!   converge in the paper (nor here: the simulated datapath has no
//!   register-overwrite leakage).

use psc_aes::hamming::hw_u8;
use psc_aes::sbox::inv_sub_byte;

/// A per-byte hypothesis model.
///
/// All of the paper's models share a crucial structure that
/// [`crate::cpa::Cpa`] exploits: the hypothesis for `(byte_index, guess)`
/// depends on attacker-visible data only through a **single byte**
/// (`input_bytes(pt, ct)[byte_index]`, see [`Self::input_bytes`]). The
/// accumulator can therefore bin traces by that byte value (256 bins)
/// instead of evaluating all 256 guesses per trace.
pub trait PowerModel: Send + Sync + core::fmt::Debug {
    /// Short identifier (used in reports: `Rd0-HW`, `Rd10-HW`, `Rd10-HD`).
    fn name(&self) -> &'static str;

    /// The attacker-visible bytes the hypotheses depend on: entry `b` is
    /// the one byte the hypothesis for key byte `b` reads.
    fn input_bytes(&self, plaintext: &[u8; 16], ciphertext: &[u8; 16]) -> [u8; 16];

    /// Hypothetical leakage as a function of that input byte and the guess.
    fn hypothesis_value(&self, input: u8, guess: u8) -> f64;

    /// Hypothetical leakage for `guess` at `byte_index` (derived).
    fn hypothesis(
        &self,
        plaintext: &[u8; 16],
        ciphertext: &[u8; 16],
        byte_index: usize,
        guess: u8,
    ) -> f64 {
        self.hypothesis_value(self.input_bytes(plaintext, ciphertext)[byte_index], guess)
    }

    /// Which actual key byte a correct guess corresponds to: the round-0
    /// key for plaintext-side models, the round-10 key for
    /// ciphertext-side models.
    fn recovered_round(&self) -> RecoveredRound;
}

/// Which round key a model recovers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveredRound {
    /// The initial (round 0) AddRoundKey key — equals the AES-128 key.
    Round0,
    /// The final (round 10) round key.
    Round10,
}

/// Hamming weight after the initial AddRoundKey.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rd0Hw;

impl PowerModel for Rd0Hw {
    fn name(&self) -> &'static str {
        "Rd0-HW"
    }

    fn input_bytes(&self, pt: &[u8; 16], _ct: &[u8; 16]) -> [u8; 16] {
        *pt
    }

    fn hypothesis_value(&self, input: u8, guess: u8) -> f64 {
        f64::from(hw_u8(input ^ guess))
    }

    fn recovered_round(&self) -> RecoveredRound {
        RecoveredRound::Round0
    }
}

/// Hamming weight of the state entering the final SubBytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rd10Hw;

impl PowerModel for Rd10Hw {
    fn name(&self) -> &'static str {
        "Rd10-HW"
    }

    fn input_bytes(&self, _pt: &[u8; 16], ct: &[u8; 16]) -> [u8; 16] {
        *ct
    }

    fn hypothesis_value(&self, input: u8, guess: u8) -> f64 {
        f64::from(hw_u8(inv_sub_byte(input ^ guess)))
    }

    fn recovered_round(&self) -> RecoveredRound {
        RecoveredRound::Round10
    }
}

/// Hamming distance between last-round input and ciphertext.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rd10Hd;

impl PowerModel for Rd10Hd {
    fn name(&self) -> &'static str {
        "Rd10-HD"
    }

    fn input_bytes(&self, _pt: &[u8; 16], ct: &[u8; 16]) -> [u8; 16] {
        *ct
    }

    fn hypothesis_value(&self, input: u8, guess: u8) -> f64 {
        let last_round_input = inv_sub_byte(input ^ guess);
        f64::from(hw_u8(last_round_input ^ input))
    }

    fn recovered_round(&self) -> RecoveredRound {
        RecoveredRound::Round10
    }
}

/// The three models of the paper, in its presentation order.
#[must_use]
pub fn paper_models() -> Vec<Box<dyn PowerModel>> {
    vec![Box::new(Rd0Hw), Box::new(Rd10Hw), Box::new(Rd10Hd)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_aes::Aes;

    #[test]
    fn rd0_hypothesis_is_hw_of_xor() {
        let pt = [0xA5u8; 16];
        let ct = [0u8; 16];
        assert_eq!(Rd0Hw.hypothesis(&pt, &ct, 3, 0xA5), 0.0, "guess == pt byte → HW 0");
        assert_eq!(Rd0Hw.hypothesis(&pt, &ct, 3, !0xA5), 8.0);
    }

    #[test]
    fn rd0_correct_guess_matches_true_state() {
        // For the true key, the hypothesis must equal the HW of the actual
        // round-0 state byte.
        let key: [u8; 16] = core::array::from_fn(|i| (i * 17 + 3) as u8);
        let aes = Aes::new(&key).unwrap();
        let pt: [u8; 16] = core::array::from_fn(|i| (i * 31 + 7) as u8);
        let trace = aes.encrypt_traced(&pt);
        let rd0 = trace.round0_addkey();
        for b in 0..16 {
            assert_eq!(
                Rd0Hw.hypothesis(&pt, &trace.ciphertext, b, key[b]),
                f64::from(psc_aes::hamming::hw_u8(rd0[b]))
            );
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn rd10_correct_guess_matches_true_state() {
        // For the true round-10 key byte, the Rd10-HW hypothesis equals the
        // HW of the true last-round-input byte at the matching position.
        let key: [u8; 16] = core::array::from_fn(|i| (i * 13 + 5) as u8);
        let aes = Aes::new(&key).unwrap();
        let pt = [0x5Au8; 16];
        let trace = aes.encrypt_traced(&pt);
        let k10 = aes.schedule().round_key(10);
        let last_in = trace.last_round_input();
        for i in 0..16usize {
            // ct index i = row r, col c; the pre-SubBytes byte sits at
            // j = r + 4*((c + r) % 4) before ShiftRows moved it.
            let (r, c) = (i % 4, i / 4);
            let j = r + 4 * ((c + r) % 4);
            let hyp = Rd10Hw.hypothesis(&pt, &trace.ciphertext, i, k10[i]);
            assert_eq!(hyp, f64::from(psc_aes::hamming::hw_u8(last_in[j])), "byte {i}");
        }
    }

    #[test]
    fn rd10hd_zero_when_states_equal() {
        // If InvSBox(ct ⊕ guess) == ct byte, distance is zero.
        let ct = [0x63u8; 16]; // SBox(0) = 0x63
        let pt = [0u8; 16];
        // guess such that ct ^ guess = 0x63's SBox preimage... directly:
        // InvSbox(0x63 ^ g) == 0x63 → 0x63 ^ g = Sbox(0x63) = 0xFB → g = 0x98.
        assert_eq!(Rd10Hd.hypothesis(&pt, &ct, 0, 0x98), 0.0);
    }

    #[test]
    fn hypotheses_bounded_zero_to_eight() {
        let pt: [u8; 16] = core::array::from_fn(|i| (i * 29) as u8);
        let ct: [u8; 16] = core::array::from_fn(|i| (i * 41 + 11) as u8);
        for model in paper_models() {
            for b in 0..16 {
                for g in 0..=255u8 {
                    let h = model.hypothesis(&pt, &ct, b, g);
                    assert!((0.0..=8.0).contains(&h), "{} b={b} g={g} h={h}", model.name());
                }
            }
        }
    }

    #[test]
    fn model_names_and_rounds() {
        assert_eq!(Rd0Hw.name(), "Rd0-HW");
        assert_eq!(Rd10Hw.name(), "Rd10-HW");
        assert_eq!(Rd10Hd.name(), "Rd10-HD");
        assert_eq!(Rd0Hw.recovered_round(), RecoveredRound::Round0);
        assert_eq!(Rd10Hw.recovered_round(), RecoveredRound::Round10);
        assert_eq!(Rd10Hd.recovered_round(), RecoveredRound::Round10);
        assert_eq!(paper_models().len(), 3);
    }
}
