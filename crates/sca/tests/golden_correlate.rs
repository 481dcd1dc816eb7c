//! Golden digests of the CPA correlation sweep.
//!
//! Every bit of [`Cpa::correlations_all_into`] (and of its scalar twin)
//! is folded into one FNV-1a digest per case. The digests were recorded
//! on the fused guess-major sweep that predates the value-major count and
//! value passes, so a kernel change that moves any correlation bit — a
//! reordered sum, a contracted multiply-add, a count pass served to the
//! wrong accumulator — fails here, not only in a rank far downstream.

use psc_sca::cpa::Cpa;
use psc_sca::model::{PowerModel, Rd0Hw, Rd10Hd, Rd10Hw};

/// FNV-1a over the little-endian bits of every correlation, byte-major.
fn digest(corr: &[[f64; 256]; 16]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for c in corr.iter().flatten() {
        for byte in c.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

/// A deterministic row stream: xorshift64 plaintexts and ciphertexts,
/// and a value that leaks the Hamming weight of `pt[0] ^ 0x3C` plus a
/// non-integer noise term, so bins hold fractional sums.
struct Rows {
    state: u64,
}

impl Rows {
    fn new(seed: u64) -> Self {
        Self { state: seed | 1 }
    }

    fn next_u64(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }

    fn block(&mut self) -> [u8; 16] {
        let (a, b) = (self.next_u64(), self.next_u64());
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&a.to_le_bytes());
        out[8..].copy_from_slice(&b.to_le_bytes());
        out
    }

    /// `n` rows of (model inputs, value) for `model`.
    fn take(&mut self, model: &dyn PowerModel, n: usize) -> (Vec<[u8; 16]>, Vec<f64>) {
        let (mut inputs, mut values) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for _ in 0..n {
            let (pt, ct) = (self.block(), self.block());
            let noise = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            values.push(f64::from((pt[0] ^ 0x3C).count_ones()) * 0.75 + noise);
            inputs.push(model.input_bytes(&pt, &ct));
        }
        (inputs, values)
    }
}

/// The paper's three models, as factories (a [`Cpa`] owns its model).
const MODELS: [fn() -> Box<dyn PowerModel>; 3] =
    [|| Box::new(Rd0Hw), || Box::new(Rd10Hw), || Box::new(Rd10Hd)];

/// Both entry points' digests; they must agree with each other.
fn digests_of(cpa: &Cpa) -> u64 {
    let mut dispatched = [[f64::NAN; 256]; 16];
    let mut scalar = [[f64::NAN; 256]; 16];
    cpa.correlations_all_into(&mut dispatched);
    cpa.correlations_all_into_scalar(&mut scalar);
    let d = digest(&dispatched);
    assert_eq!(d, digest(&scalar), "dispatched and scalar sweeps differ");
    d
}

/// A fresh accumulator of `model` fed `rows` with `mask(i)` deciding
/// whether row `i` is present (a denied read otherwise).
fn seeded(model: Box<dyn PowerModel>, n: usize, seed: u64, mask: impl Fn(usize) -> bool) -> Cpa {
    let (inputs, values) = Rows::new(seed).take(model.as_ref(), n);
    let column: Vec<Option<f64>> =
        values.iter().enumerate().map(|(i, &v)| mask(i).then_some(v)).collect();
    let mut cpa = Cpa::new(model);
    cpa.add_rows(&inputs, &column);
    cpa
}

/// The digest of 16 × 256 `+0.0` correlations (a degenerate accumulator).
const ALL_ZERO: u64 = 0x8f69_55bf_94ec_2325;

fn check(cases: Vec<(String, Cpa, u64)>) {
    let mut wrong = Vec::new();
    for (name, cpa, expected) in &cases {
        let got = digests_of(cpa);
        if got != *expected {
            wrong.push(format!("{name}: expected {expected:#018x}, got {got:#018x}"));
        }
    }
    assert!(wrong.is_empty(), "correlation digests moved:\n{}", wrong.join("\n"));
}

#[test]
fn seeded_accumulators_match_golden_digests() {
    // Per model: 0, 1 and 2 traces (the n < 2 guard and the smallest
    // defined correlation), 3 and 50 traces (sparse bins) and 5 000 traces.
    const GOLDEN: [[u64; 6]; 3] = [
        [
            ALL_ZERO,
            ALL_ZERO,
            0x33bb_d4ce_4d07_8482,
            0x4e0b_21ed_48aa_a852,
            0xc308_e353_74ab_31d1,
            0x6d52_a2e5_a1ed_71a3,
        ],
        [
            ALL_ZERO,
            ALL_ZERO,
            0xfcf5_9b6a_237a_d947,
            0xcdfb_46ce_bf9c_189a,
            0x9052_f814_ea9c_8762,
            0xbbba_ee35_9292_1d18,
        ],
        [
            ALL_ZERO,
            ALL_ZERO,
            0x81f4_3618_44c1_e9d2,
            0xf4e1_8ebb_6025_747e,
            0xf0fa_9932_1f2e_95db,
            0xcc0c_4baf_2732_3bee,
        ],
    ];
    let mut cases = Vec::new();
    for (model, golden) in MODELS.into_iter().zip(GOLDEN) {
        for (n, expected) in [0usize, 1, 2, 3, 50, 5_000].into_iter().zip(golden) {
            let cpa = seeded(model(), n, 0x9E37_79B9 + n as u64, |_| true);
            cases.push((format!("{} n={n}", model().name()), cpa, expected));
        }
    }
    check(cases);
}

#[test]
fn degenerate_and_sparse_columns_match_golden_digests() {
    // A constant value column (var_t == 0: every correlation is zero) and
    // channels with denied rows, whose bin counts differ from a fully read
    // channel over the same rows.
    let constant = {
        let (inputs, _) = Rows::new(7).take(&Rd0Hw, 300);
        let mut cpa = Cpa::new(Box::new(Rd0Hw));
        cpa.add_rows(&inputs, &vec![Some(2.5); inputs.len()]);
        cpa
    };
    check(vec![
        ("constant column".into(), constant, ALL_ZERO),
        (
            "None rows Rd0-HW".into(),
            seeded(Box::new(Rd0Hw), 3_000, 11, |i| i % 3 != 1),
            0xe9a8_c409_6356_191b,
        ),
        (
            "None rows Rd10-HW".into(),
            seeded(Box::new(Rd10Hw), 3_000, 13, |i| i % 7 < 5),
            0x47ac_615e_b726_cef1,
        ),
    ]);
}
