//! Cross-crate integration: the paper's null results hold by construction
//! and survive the full pipeline — PHPS, IOReport PCPU and throttled
//! timing never show data dependence, no matter how the attacker drives
//! the victim.

mod common;

use apple_power_sca::core::experiments::throttling::timing_tvla;
use apple_power_sca::core::experiments::ExperimentConfig;
use apple_power_sca::core::{Campaign, Device, Rig, VictimKind};
use apple_power_sca::sca::tvla::TvlaMatrix;
use apple_power_sca::smc::key::key;
use common::Recorded;

const SECRET: [u8; 16] = [
    0xB7, 0x6F, 0xEB, 0x3E, 0xD5, 0x9D, 0x77, 0xFA, 0xCE, 0xBB, 0x67, 0xF3, 0x5E, 0xAD, 0xD9, 0x7C,
];

#[test]
fn phps_and_pcpu_never_leak() {
    let (campaign, _) = Recorded::tvla(
        Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, 0x9011)
            .keys(&[key("PHPS"), key("PHPC")])
            .traces(300),
    );
    let matrix = |label: &str| {
        let (first, second) = campaign.datasets(label);
        TvlaMatrix::compute(label, &first, &second)
    };

    let phps = matrix("PHPS");
    assert!(phps.shows_no_leakage(), "{}", phps.render());

    let pcpu = matrix("PCPU");
    assert!(pcpu.shows_no_leakage(), "{}", pcpu.render());

    // Control: the same windows DO leak through PHPC, so the nulls above
    // are meaningful (the victim was really encrypting distinct classes).
    let phpc = matrix("PHPC");
    assert!(phpc.is_data_dependent(), "{}", phpc.render());
}

#[test]
fn throttled_timing_never_leaks() {
    let mut cfg = ExperimentConfig::quick();
    cfg.timing_traces_per_class = 60;
    let matrix = timing_tvla(&cfg).matrix("timing");
    assert!(matrix.shows_no_leakage(), "{}", matrix.render());
}

#[test]
fn estimator_blindness_is_the_common_cause() {
    // PHPS (SMC) and PCPU (IOReport) are both fed by the estimator; their
    // values across two extreme plaintexts must agree to within noise,
    // while the sensed PHPC moves.
    let mut rig = Rig::new(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, 0x1D1E);
    let mean = |rig: &mut Rig, pt: [u8; 16]| {
        let n = 150;
        let mut phpc = 0.0;
        let mut phps = 0.0;
        for _ in 0..n {
            let obs = rig.observe_window(pt, &[key("PHPC"), key("PHPS")]);
            phpc += obs.smc[0].1.expect("readable");
            phps += obs.smc[1].1.expect("readable");
        }
        (phpc / f64::from(n), phps / f64::from(n))
    };
    let (phpc0, phps0) = mean(&mut rig, [0x00; 16]);
    let (phpc1, phps1) = mean(&mut rig, [0xFF; 16]);
    assert!(
        (phpc0 - phpc1).abs() > 3.0 * (phps0 - phps1).abs(),
        "sensed delta {:.2} mW vs estimator delta {:.2} mW",
        (phpc0 - phpc1).abs() * 1e3,
        (phps0 - phps1).abs() * 1e3
    );
}
