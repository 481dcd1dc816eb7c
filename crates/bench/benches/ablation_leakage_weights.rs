//! Ablation: the leakage-weight calibration of `psc_aes::leakage` (see its
//! module docs, with `Device::aes_signal` and the `psc_smc::sensors` module
//! docs for the rest of the calibration).
//!
//! Generates synthetic noisy channels under three weight profiles and runs
//! Rd0-HW CPA on each. Alongside the timing numbers, the bench prints and
//! records (`<profile>/ge_bits`) the resulting guessing entropy once per
//! profile so the quality effect of the calibration is visible:
//!
//! * `paper-calibrated` — round-0 dominant (the default): Rd0-HW recovers;
//! * `uniform` — all rounds equal: round-0 share of the signal shrinks,
//!   recovery degrades;
//! * `hd-enabled` — register-overwrite leakage added: Rd10-HD would start
//!   to work (counterfactual to the paper's datapath).

use psc_aes::leakage::{LeakageModel, LeakageWeights};
use psc_bench::measure::Run;
use psc_sca::cpa::Cpa;
use psc_sca::model::Rd0Hw;
use psc_sca::rank::guessing_entropy;
use psc_sca::trace::{Trace, TraceSet};
use psc_soc::noise::gaussian;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::hint::black_box;

const KEY: [u8; 16] = [
    0xB7, 0x6F, 0xEB, 0x3E, 0xD5, 0x9D, 0x77, 0xFA, 0xCE, 0xBB, 0x67, 0xF3, 0x5E, 0xAD, 0xD9, 0x7C,
];

fn synthetic_channel(weights: LeakageWeights, n: usize, noise_sigma: f64) -> TraceSet {
    let model = LeakageModel::with_weights(&KEY, weights).expect("valid key");
    let mut rng = ChaCha12Rng::seed_from_u64(4242);
    let mut set = TraceSet::with_capacity("ablation", n);
    for _ in 0..n {
        let mut pt = [0u8; 16];
        rng.fill(&mut pt);
        let (activity, trace) = model.activity_traced(&pt);
        set.push(Trace {
            value: gaussian(&mut rng, activity, noise_sigma),
            plaintext: pt,
            ciphertext: trace.ciphertext,
        });
    }
    set
}

fn ge_of(set: &TraceSet) -> f64 {
    let mut cpa = Cpa::new(Box::new(Rd0Hw));
    cpa.add_set(set);
    guessing_entropy(&cpa.ranks(&KEY))
}

fn main() {
    let n = 5_000;
    let noise = 25.0; // activity units
    let profiles: [(&str, LeakageWeights); 3] = [
        ("paper-calibrated", LeakageWeights::default()),
        ("uniform", LeakageWeights::uniform(0.3)),
        ("hd-enabled", LeakageWeights::default().with_hd(0.3)),
    ];

    let mut run = Run::start("ablation_leakage_weights");
    for (name, weights) in profiles {
        let set = synthetic_channel(weights, n, noise);
        let ge = ge_of(&set);
        eprintln!("[ablation_leakage_weights] {name}: Rd0-HW GE = {ge:.1} bits at {n} traces");
        run.field(&format!("{name}/ge_bits"), ge);
        run.measure_ns(name, || {
            black_box(ge_of(&set));
        });
    }
    run.finish();
}
