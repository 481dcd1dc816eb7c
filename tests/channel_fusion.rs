//! Cross-crate integration: fusing the SMC power keys the attacker logs
//! anyway (§3.3 logs them all per window) beats the best single channel —
//! an extension showing the paper's per-channel analysis leaves SNR on the
//! table.

mod common;

use apple_power_sca::core::{Campaign, Device, VictimKind};
use apple_power_sca::sca::cpa::Cpa;
use apple_power_sca::sca::fusion::fuse_z;
use apple_power_sca::sca::model::Rd0Hw;
use apple_power_sca::sca::rank::guessing_entropy;
use apple_power_sca::smc::key::key;
use common::Recorded;

const SECRET: [u8; 16] = [
    0xB7, 0x6F, 0xEB, 0x3E, 0xD5, 0x9D, 0x77, 0xFA, 0xCE, 0xBB, 0x67, 0xF3, 0x5E, 0xAD, 0xD9, 0x7C,
];

/// A live campaign against the M2 user-space victim, seeded `seed`.
fn live(seed: u64) -> Campaign {
    Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, seed)
}

fn ge_of(set: &apple_power_sca::sca::trace::TraceSet) -> f64 {
    let mut cpa = Cpa::new(Box::new(Rd0Hw));
    cpa.add_set(set);
    guessing_entropy(&cpa.ranks(&SECRET))
}

#[test]
fn fused_channels_beat_each_input() {
    // A budget where PHPC alone is clearly mid-convergence.
    let keys = [key("PHPC"), key("PDTR"), key("PMVC")];
    let (sets, _) = Recorded::cpa(live(0xF0F0).keys(&keys).traces(5_000));

    let phpc = &sets.traces("PHPC");
    let pdtr = &sets.traces("PDTR");
    let pmvc = &sets.traces("PMVC");
    let fused = fuse_z(&[phpc, pdtr, pmvc]).expect("same campaign");

    let (ge_phpc, ge_pdtr, ge_pmvc, ge_fused) =
        (ge_of(phpc), ge_of(pdtr), ge_of(pmvc), ge_of(&fused));

    // Fusion must beat the weaker channels outright and at least match the
    // best channel within statistical wiggle.
    assert!(ge_fused < ge_pdtr, "fused {ge_fused} vs PDTR {ge_pdtr}");
    assert!(ge_fused < ge_pmvc, "fused {ge_fused} vs PMVC {ge_pmvc}");
    assert!(ge_fused <= ge_phpc + 3.0, "fused {ge_fused} vs PHPC {ge_phpc}");
}

#[test]
fn fusion_rejects_sets_from_different_campaigns() {
    let collect =
        |seed: u64| Recorded::cpa(live(seed).keys(&[key("PHPC")]).traces(30)).0.traces("PHPC");
    let a = collect(1);
    let b = collect(2); // different plaintext sequence
    let err = fuse_z(&[&a, &b]).unwrap_err();
    assert!(matches!(err, apple_power_sca::sca::fusion::FusionError::RecordMismatch { .. }));
}
