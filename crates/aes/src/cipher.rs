//! The AES block cipher with optional round-state tracing.
//!
//! [`Aes`] provides plain encrypt/decrypt; [`Aes::encrypt_traced`]
//! additionally records every intermediate state, which the leakage model
//! ([`crate::leakage`]) converts into data-dependent switching activity and
//! the CPA hypothesis models in `psc-sca` consume as ground truth.

use crate::key_schedule::{InvalidKeyLength, KeySchedule};
use crate::sbox::SBOX;
use crate::state::{
    add_round_key, inv_mix_columns, inv_shift_rows, inv_sub_bytes, mix_columns, shift_rows,
    sub_bytes, State,
};
use serde::{Deserialize, Serialize};

/// `xtime` (multiplication by 2 in GF(2⁸)) for const table construction.
const fn mul2(x: u8) -> u8 {
    (x << 1) ^ (((x >> 7) & 1) * 0x1B)
}

/// Fused SubBytes+ShiftRows+MixColumns lookup tables (classic T-tables):
/// `T0[x]` packs the MixColumns column `(2·S[x], S[x], S[x], 3·S[x])`
/// big-endian; `T1..T3` are its byte rotations. 4 KB total, const-built
/// from [`SBOX`], used by [`Aes::encrypt_block`] and the HW-profile fast
/// path — the reference byte-oriented round functions in [`crate::state`]
/// (run by [`Aes::encrypt_observed`]/[`Aes::encrypt_traced`]) stay the
/// ground truth that tests compare against.
const fn t_table(shift: u32) -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let word = ((mul2(s) as u32) << 24)
            | ((s as u32) << 16)
            | ((s as u32) << 8)
            | (mul2(s) ^ s) as u32;
        t[i] = word.rotate_right(shift * 8);
        i += 1;
    }
    t
}

static T0: [u32; 256] = t_table(0);
static T1: [u32; 256] = t_table(1);
static T2: [u32; 256] = t_table(2);
static T3: [u32; 256] = t_table(3);

/// Column `c` of a state as a big-endian word.
#[inline]
fn col(bytes: &[u8; 16], c: usize) -> u32 {
    u32::from_be_bytes([bytes[4 * c], bytes[4 * c + 1], bytes[4 * c + 2], bytes[4 * c + 3]])
}

/// Byte `byte` (0 = most significant) of a column word, as a table index.
#[inline]
fn b(w: u32, byte: u32) -> usize {
    ((w >> (24 - 8 * byte)) & 0xFF) as usize
}

/// Which transformation produced a recorded state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AesOp {
    /// State after an AddRoundKey.
    AddRoundKey,
    /// State after SubBytes.
    SubBytes,
    /// State after ShiftRows.
    ShiftRows,
    /// State after MixColumns.
    MixColumns,
}

/// Observer invoked with every intermediate state of one encryption, in
/// execution order — the same recording points, in the same order, as
/// [`Aes::encrypt_traced`].
///
/// This is the allocation-free alternative to collecting an
/// [`EncryptionTrace`]: instead of materializing a `Vec<RoundState>` and
/// scanning it afterwards, a fused consumer (e.g. the leakage model's
/// activity kernel) folds each state into its running result as the round
/// functions produce it. `encrypt_traced` itself is implemented as an
/// observer that records, so both paths share one definition of what gets
/// observed and when.
pub trait RoundObserver {
    /// Called once per recorded state, immediately after the transformation
    /// `op` of round `round` produced `state`.
    fn observe(&mut self, round: u8, op: AesOp, state: &State);
}

/// Per-round Hamming weights of one encryption's AddRoundKey outputs (see
/// [`Aes::round_hw_profile`]). `hw[r]` is meaningful for `r <= rounds`;
/// the array is sized for AES-256's 14 rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundHwProfile {
    /// `hw[r]` = Hamming weight of the round-`r` AddRoundKey output.
    pub hw: [u32; 15],
    /// Number of cipher rounds (`Nr`): 10/12/14.
    pub rounds: usize,
}

/// One recorded intermediate state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundState {
    /// Round number: 0 for the initial AddRoundKey, 1..=Nr for cipher rounds.
    pub round: u8,
    /// The transformation that produced this state.
    pub op: AesOp,
    /// The 16-byte state after the transformation.
    pub state: State,
}

/// A fully-traced single-block encryption: plaintext, ciphertext and every
/// intermediate state in execution order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncryptionTrace {
    /// The input block.
    pub plaintext: State,
    /// The output block.
    pub ciphertext: State,
    /// Intermediate states in execution order, starting with the round-0
    /// AddRoundKey output and ending with the final AddRoundKey output
    /// (= ciphertext).
    pub states: Vec<RoundState>,
}

/// Index of (`round`, `op`) in the canonical state layout produced by
/// [`Aes::encrypt_traced`]: round-0 AddRoundKey first, then four states per
/// full round, then the three final-round states (no MixColumns).
fn canonical_index(round: u8, op: AesOp, nr: u8) -> Option<usize> {
    if round == 0 {
        return (op == AesOp::AddRoundKey).then_some(0);
    }
    if round > nr {
        return None;
    }
    let base = 1 + 4 * (usize::from(round) - 1);
    let offset = if round < nr {
        match op {
            AesOp::SubBytes => 0,
            AesOp::ShiftRows => 1,
            AesOp::MixColumns => 2,
            AesOp::AddRoundKey => 3,
        }
    } else {
        match op {
            AesOp::SubBytes => 0,
            AesOp::ShiftRows => 1,
            AesOp::AddRoundKey => 2,
            AesOp::MixColumns => return None,
        }
    };
    Some(base + offset)
}

impl EncryptionTrace {
    /// The state recorded for (`round`, `op`), if present.
    ///
    /// Traces produced by [`Aes::encrypt_traced`] have a fixed layout, so
    /// the lookup is O(1) by computed index (verified against the entry, so
    /// hand-built or truncated traces still resolve correctly via a scan).
    #[must_use]
    pub fn state(&self, round: u8, op: AesOp) -> Option<&State> {
        let nr = self.states.last()?.round;
        if let Some(idx) = canonical_index(round, op, nr) {
            if let Some(rs) = self.states.get(idx) {
                if rs.round == round && rs.op == op {
                    return Some(&rs.state);
                }
            }
        }
        self.states.iter().find(|s| s.round == round && s.op == op).map(|s| &s.state)
    }

    /// The state after the initial (round 0) AddRoundKey — the target of the
    /// paper's `Rd0-HW` power model.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty (cannot happen for traces produced by
    /// [`Aes::encrypt_traced`]).
    #[must_use]
    pub fn round0_addkey(&self) -> &State {
        self.state(0, AesOp::AddRoundKey).expect("trace always records round-0 AddRoundKey")
    }

    /// The state entering the final round's SubBytes (i.e. the output of the
    /// penultimate round) — the target of the paper's `Rd10-HW` model.
    #[must_use]
    pub fn last_round_input(&self) -> &State {
        let last = self.states.last().expect("non-empty trace").round;
        self.state(last - 1, AesOp::AddRoundKey).expect("penultimate round output recorded")
    }
}

/// An AES cipher instance (any key size) with tracing support.
///
/// # Examples
///
/// ```
/// use psc_aes::Aes;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let aes = Aes::new(&[0u8; 16])?;
/// let ct = aes.encrypt_block(&[0u8; 16]);
/// assert_eq!(aes.decrypt_block(&ct), [0u8; 16]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Aes {
    schedule: KeySchedule,
}

impl Aes {
    /// Build a cipher from a 16/24/32-byte key.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidKeyLength`] for other key lengths.
    pub fn new(key: &[u8]) -> Result<Self, InvalidKeyLength> {
        Ok(Self { schedule: KeySchedule::new(key)? })
    }

    /// The expanded key schedule.
    #[must_use]
    pub fn schedule(&self) -> &KeySchedule {
        &self.schedule
    }

    /// Encrypt one 16-byte block.
    #[must_use]
    pub fn encrypt_block(&self, plaintext: &State) -> State {
        let c = self.encrypt_columns(plaintext, |_, _| {});
        let mut out = [0u8; 16];
        for (chunk, word) in out.chunks_exact_mut(4).zip(c) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Decrypt one 16-byte block.
    #[must_use]
    pub fn decrypt_block(&self, ciphertext: &State) -> State {
        let nr = self.schedule.rounds();
        let mut s = *ciphertext;
        add_round_key(&mut s, self.schedule.round_key(nr));
        for r in (1..nr).rev() {
            inv_shift_rows(&mut s);
            inv_sub_bytes(&mut s);
            add_round_key(&mut s, self.schedule.round_key(r));
            inv_mix_columns(&mut s);
        }
        inv_shift_rows(&mut s);
        inv_sub_bytes(&mut s);
        add_round_key(&mut s, self.schedule.round_key(0));
        s
    }

    /// Encrypt one block, reporting every intermediate state to `observer`
    /// as it is produced. Performs no heap allocation itself; the returned
    /// state is the ciphertext.
    pub fn encrypt_observed<O: RoundObserver>(&self, plaintext: &State, observer: &mut O) -> State {
        let nr = self.schedule.rounds();
        let mut s = *plaintext;

        add_round_key(&mut s, self.schedule.round_key(0));
        observer.observe(0, AesOp::AddRoundKey, &s);

        for r in 1..nr {
            let r8 = r as u8;
            sub_bytes(&mut s);
            observer.observe(r8, AesOp::SubBytes, &s);
            shift_rows(&mut s);
            observer.observe(r8, AesOp::ShiftRows, &s);
            mix_columns(&mut s);
            observer.observe(r8, AesOp::MixColumns, &s);
            add_round_key(&mut s, self.schedule.round_key(r));
            observer.observe(r8, AesOp::AddRoundKey, &s);
        }

        let nr8 = nr as u8;
        sub_bytes(&mut s);
        observer.observe(nr8, AesOp::SubBytes, &s);
        shift_rows(&mut s);
        observer.observe(nr8, AesOp::ShiftRows, &s);
        add_round_key(&mut s, self.schedule.round_key(nr));
        observer.observe(nr8, AesOp::AddRoundKey, &s);
        s
    }

    /// Hamming weights of every AddRoundKey output (rounds `0..=Nr`) of one
    /// encryption — the only states the default (HW-only) leakage model
    /// needs — computed with the fused, table-driven round function that
    /// never materializes the SubBytes/ShiftRows/MixColumns intermediates
    /// and performs no heap allocation.
    ///
    /// The AddRoundKey output states are computed exactly (T-tables are a
    /// pure refactoring of the round algebra), so the profile equals the
    /// per-round `hw_state` of [`Self::encrypt_traced`]'s AddRoundKey
    /// entries; a test pins this for every key size.
    #[must_use]
    pub fn round_hw_profile(&self, plaintext: &State) -> RoundHwProfile {
        let mut hw = [0u32; 15];
        self.encrypt_columns(plaintext, |r, c| {
            hw[r] = c[0].count_ones() + c[1].count_ones() + c[2].count_ones() + c[3].count_ones();
        });
        RoundHwProfile { hw, rounds: self.schedule.rounds() }
    }

    /// The T-table round function over big-endian column words. Hands
    /// every AddRoundKey output (round `0..=Nr`, in order) to `on_round`
    /// and returns the ciphertext columns.
    #[inline(always)]
    fn encrypt_columns(
        &self,
        plaintext: &State,
        mut on_round: impl FnMut(usize, &[u32; 4]),
    ) -> [u32; 4] {
        let nr = self.schedule.rounds();

        let k0 = self.schedule.round_key(0);
        let mut c = [
            col(plaintext, 0) ^ col(k0, 0),
            col(plaintext, 1) ^ col(k0, 1),
            col(plaintext, 2) ^ col(k0, 2),
            col(plaintext, 3) ^ col(k0, 3),
        ];
        on_round(0, &c);

        for r in 1..nr {
            let k = self.schedule.round_key(r);
            c = [
                T0[b(c[0], 0)] ^ T1[b(c[1], 1)] ^ T2[b(c[2], 2)] ^ T3[b(c[3], 3)] ^ col(k, 0),
                T0[b(c[1], 0)] ^ T1[b(c[2], 1)] ^ T2[b(c[3], 2)] ^ T3[b(c[0], 3)] ^ col(k, 1),
                T0[b(c[2], 0)] ^ T1[b(c[3], 1)] ^ T2[b(c[0], 2)] ^ T3[b(c[1], 3)] ^ col(k, 2),
                T0[b(c[3], 0)] ^ T1[b(c[0], 1)] ^ T2[b(c[1], 2)] ^ T3[b(c[2], 3)] ^ col(k, 3),
            ];
            on_round(r, &c);
        }

        // Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
        let s = |w: u32, byte: u32| u32::from(SBOX[b(w, byte)]);
        let k = self.schedule.round_key(nr);
        c = [
            ((s(c[0], 0) << 24) | (s(c[1], 1) << 16) | (s(c[2], 2) << 8) | s(c[3], 3)) ^ col(k, 0),
            ((s(c[1], 0) << 24) | (s(c[2], 1) << 16) | (s(c[3], 2) << 8) | s(c[0], 3)) ^ col(k, 1),
            ((s(c[2], 0) << 24) | (s(c[3], 1) << 16) | (s(c[0], 2) << 8) | s(c[1], 3)) ^ col(k, 2),
            ((s(c[3], 0) << 24) | (s(c[0], 1) << 16) | (s(c[1], 2) << 8) | s(c[2], 3)) ^ col(k, 3),
        ];
        on_round(nr, &c);
        c
    }

    /// Encrypt one block while recording every intermediate state.
    #[must_use]
    pub fn encrypt_traced(&self, plaintext: &State) -> EncryptionTrace {
        struct Recorder {
            states: Vec<RoundState>,
        }
        impl RoundObserver for Recorder {
            fn observe(&mut self, round: u8, op: AesOp, state: &State) {
                self.states.push(RoundState { round, op, state: *state });
            }
        }
        let mut recorder = Recorder { states: Vec::with_capacity(4 * self.schedule.rounds() + 1) };
        let ciphertext = self.encrypt_observed(plaintext, &mut recorder);
        EncryptionTrace { plaintext: *plaintext, ciphertext, states: recorder.states }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS-197 Appendix B: full worked AES-128 example.
    #[test]
    fn aes128_fips_appendix_b() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let pt = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expected = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        let aes = Aes::new(&key).unwrap();
        assert_eq!(aes.encrypt_block(&pt), expected);
        assert_eq!(aes.decrypt_block(&expected), pt);
    }

    /// FIPS-197 Appendix C.1 known-answer test (AES-128).
    #[test]
    fn aes128_fips_appendix_c1() {
        let key: Vec<u8> = (0u8..16).collect();
        let pt: [u8; 16] = core::array::from_fn(|i| (i as u8) * 0x11);
        let expected = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let aes = Aes::new(&key).unwrap();
        assert_eq!(aes.encrypt_block(&pt), expected);
        assert_eq!(aes.decrypt_block(&expected), pt);
    }

    /// FIPS-197 Appendix C.2 known-answer test (AES-192).
    #[test]
    fn aes192_fips_appendix_c2() {
        let key: Vec<u8> = (0u8..24).collect();
        let pt: [u8; 16] = core::array::from_fn(|i| (i as u8) * 0x11);
        let expected = [
            0xdd, 0xa9, 0x7c, 0xa4, 0x86, 0x4c, 0xdf, 0xe0, 0x6e, 0xaf, 0x70, 0xa0, 0xec, 0x0d,
            0x71, 0x91,
        ];
        let aes = Aes::new(&key).unwrap();
        assert_eq!(aes.encrypt_block(&pt), expected);
        assert_eq!(aes.decrypt_block(&expected), pt);
    }

    /// FIPS-197 Appendix C.3 known-answer test (AES-256).
    #[test]
    fn aes256_fips_appendix_c3() {
        let key: Vec<u8> = (0u8..32).collect();
        let pt: [u8; 16] = core::array::from_fn(|i| (i as u8) * 0x11);
        let expected = [
            0x8e, 0xa2, 0xb7, 0xca, 0x51, 0x67, 0x45, 0xbf, 0xea, 0xfc, 0x49, 0x90, 0x4b, 0x49,
            0x60, 0x89,
        ];
        let aes = Aes::new(&key).unwrap();
        assert_eq!(aes.encrypt_block(&pt), expected);
        assert_eq!(aes.decrypt_block(&expected), pt);
    }

    #[test]
    fn traced_matches_untraced_ciphertext() {
        let aes = Aes::new(&[0x42u8; 16]).unwrap();
        for seed in 0u8..8 {
            let pt: [u8; 16] =
                core::array::from_fn(|i| (i as u8).wrapping_mul(seed).wrapping_add(seed));
            let trace = aes.encrypt_traced(&pt);
            assert_eq!(trace.ciphertext, aes.encrypt_block(&pt));
            assert_eq!(trace.plaintext, pt);
        }
    }

    #[test]
    fn table_encrypt_matches_bytewise_reference_every_key_size() {
        struct Ignore;
        impl RoundObserver for Ignore {
            fn observe(&mut self, _: u8, _: AesOp, _: &State) {}
        }
        for key_len in [16usize, 24, 32] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 37 + 11) as u8).collect();
            let aes = Aes::new(&key).unwrap();
            for seed in 0u8..32 {
                let pt: [u8; 16] = core::array::from_fn(|i| {
                    (i as u8).wrapping_mul(seed ^ 0x5D).wrapping_add(seed)
                });
                assert_eq!(
                    aes.encrypt_block(&pt),
                    aes.encrypt_observed(&pt, &mut Ignore),
                    "key_len {key_len} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn trace_has_expected_state_count_aes128() {
        let aes = Aes::new(&[0u8; 16]).unwrap();
        let trace = aes.encrypt_traced(&[0u8; 16]);
        // 1 (rd0) + 9 rounds × 4 ops + final round × 3 ops = 40.
        assert_eq!(trace.states.len(), 1 + 9 * 4 + 3);
    }

    #[test]
    fn trace_round0_is_pt_xor_key() {
        let key = [0x0Fu8; 16];
        let pt = [0xF0u8; 16];
        let aes = Aes::new(&key).unwrap();
        let trace = aes.encrypt_traced(&pt);
        assert_eq!(trace.round0_addkey(), &[0xFFu8; 16]);
    }

    #[test]
    fn trace_last_round_input_consistency() {
        // last_round_input must equal InvShiftRows(InvSubBytes(ct ^ k10)).
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let aes = Aes::new(&key).unwrap();
        let pt = [0x5Au8; 16];
        let trace = aes.encrypt_traced(&pt);
        let mut s = trace.ciphertext;
        crate::state::add_round_key(&mut s, aes.schedule().round_key(10));
        crate::state::inv_shift_rows(&mut s);
        crate::state::inv_sub_bytes(&mut s);
        assert_eq!(&s, trace.last_round_input());
    }

    #[test]
    fn trace_final_state_is_ciphertext() {
        let aes = Aes::new(&[7u8; 16]).unwrap();
        let trace = aes.encrypt_traced(&[9u8; 16]);
        assert_eq!(trace.states.last().unwrap().state, trace.ciphertext);
        assert_eq!(trace.states.last().unwrap().op, AesOp::AddRoundKey);
        assert_eq!(trace.states.last().unwrap().round, 10);
    }

    #[test]
    fn state_lookup_missing_returns_none() {
        let aes = Aes::new(&[0u8; 16]).unwrap();
        let trace = aes.encrypt_traced(&[0u8; 16]);
        // Final round has no MixColumns.
        assert!(trace.state(10, AesOp::MixColumns).is_none());
        assert!(trace.state(0, AesOp::SubBytes).is_none());
    }

    #[test]
    fn observer_sees_exactly_the_traced_states() {
        struct Collector(Vec<RoundState>);
        impl RoundObserver for Collector {
            fn observe(&mut self, round: u8, op: AesOp, state: &State) {
                self.0.push(RoundState { round, op, state: *state });
            }
        }
        for key_len in [16usize, 24, 32] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 13 + 1) as u8).collect();
            let aes = Aes::new(&key).unwrap();
            let pt = [0xC3u8; 16];
            let mut collector = Collector(Vec::new());
            let ct = aes.encrypt_observed(&pt, &mut collector);
            let trace = aes.encrypt_traced(&pt);
            assert_eq!(ct, trace.ciphertext);
            assert_eq!(collector.0, trace.states);
        }
    }

    #[test]
    fn round_hw_profile_matches_traced_states() {
        for key_len in [16usize, 24, 32] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 29 + 17) as u8).collect();
            let aes = Aes::new(&key).unwrap();
            for seed in 0u8..8 {
                let pt: [u8; 16] =
                    core::array::from_fn(|i| (i as u8).wrapping_mul(seed).wrapping_add(seed ^ 3));
                let profile = aes.round_hw_profile(&pt);
                let trace = aes.encrypt_traced(&pt);
                assert_eq!(profile.rounds, aes.schedule().rounds());
                for r in 0..=profile.rounds {
                    let state = trace.state(r as u8, AesOp::AddRoundKey).unwrap();
                    let expected: u32 = state.iter().map(|&x| x.count_ones()).sum();
                    assert_eq!(profile.hw[r], expected, "key_len {key_len} seed {seed} round {r}");
                }
            }
        }
    }

    #[test]
    fn state_lookup_canonical_matches_scan() {
        let aes = Aes::new(&[0x42u8; 16]).unwrap();
        let trace = aes.encrypt_traced(&[0x5Au8; 16]);
        for rs in &trace.states {
            assert_eq!(trace.state(rs.round, rs.op), Some(&rs.state));
        }
    }

    #[test]
    fn state_lookup_survives_non_canonical_layout() {
        let aes = Aes::new(&[0u8; 16]).unwrap();
        let mut trace = aes.encrypt_traced(&[1u8; 16]);
        // A hand-mangled trace (e.g. filtered or reordered by a consumer)
        // must still resolve via the fallback scan.
        trace.states.retain(|s| s.op == AesOp::AddRoundKey);
        for r in 0..=10u8 {
            assert!(trace.state(r, AesOp::AddRoundKey).is_some(), "round {r}");
        }
        assert!(trace.state(5, AesOp::SubBytes).is_none());
    }

    #[test]
    fn encrypt_decrypt_roundtrip_many_sizes() {
        for key_len in [16usize, 24, 32] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 7 + 3) as u8).collect();
            let aes = Aes::new(&key).unwrap();
            for s in 0u8..16 {
                let pt: [u8; 16] =
                    core::array::from_fn(|i| (i as u8).wrapping_add(s).wrapping_mul(31));
                assert_eq!(aes.decrypt_block(&aes.encrypt_block(&pt)), pt);
            }
        }
    }
}
