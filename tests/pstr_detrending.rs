//! Cross-crate integration: attacker-side detrending partially defeats the
//! drift that protects `PSTR` — an extension showing that drift alone is a
//! weaker countermeasure than it looks in Table 4.
//!
//! The traces must be collected *serially* (single session) so the drift
//! is a continuous random walk the high-pass filter can remove.

mod common;

use apple_power_sca::core::{Campaign, Device, VictimKind};
use apple_power_sca::sca::cpa::Cpa;
use apple_power_sca::sca::filter::detrend_trace_set;
use apple_power_sca::sca::model::Rd0Hw;
use apple_power_sca::sca::rank::guessing_entropy;
use apple_power_sca::smc::key::key;

const SECRET: [u8; 16] = [
    0xB7, 0x6F, 0xEB, 0x3E, 0xD5, 0x9D, 0x77, 0xFA, 0xCE, 0xBB, 0x67, 0xF3, 0x5E, 0xAD, 0xD9, 0x7C,
];

fn ge_of(set: &apple_power_sca::sca::trace::TraceSet) -> f64 {
    let mut cpa = Cpa::new(Box::new(Rd0Hw));
    cpa.add_set(set);
    guessing_entropy(&cpa.ranks(&SECRET))
}

#[test]
fn detrending_recovers_much_of_the_pstr_channel() {
    let (sets, _) = common::Recorded::cpa(
        Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, 0xD7D7)
            .keys(&[key("PSTR"), key("PHPC")])
            .traces(10_000),
    );

    let pstr_raw = &sets.traces("PSTR");
    let ge_raw = ge_of(pstr_raw);
    // A short window beats the drift: the walk moves ≈σ·√w within a
    // window, so smaller windows leave less residual drift; w = 7 is near
    // the optimum for this drift spectrum (measured sweep: w=7 → GE 41,
    // w=31 → GE 75, raw → GE 100).
    let pstr_filtered = detrend_trace_set(pstr_raw, 7);
    let ge_filtered = ge_of(&pstr_filtered);

    assert!(ge_raw > 60.0, "raw PSTR must fail as in Table 4 (GE {ge_raw})");
    assert!(
        ge_filtered + 40.0 < ge_raw,
        "detrending must bite: raw {ge_raw} vs filtered {ge_filtered}"
    );

    // Sanity: the filter does not help an already-clean channel much, nor
    // does it destroy it.
    let phpc_raw = &sets.traces("PHPC");
    let phpc_filtered = detrend_trace_set(phpc_raw, 7);
    let (clean_raw, clean_filtered) = (ge_of(phpc_raw), ge_of(&phpc_filtered));
    assert!(
        clean_filtered < clean_raw + 12.0,
        "PHPC must stay usable after filtering: {clean_raw} -> {clean_filtered}"
    );
}
