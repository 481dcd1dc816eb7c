//! Cross-crate integration: the full attack pipeline of the paper, run end
//! to end at reduced scale — screening finds the power keys, TVLA confirms
//! data dependence, CPA extracts key material, and the victim's secret is
//! never consulted except for evaluation.

use apple_power_sca::core::experiments::screening::screen_device;
use apple_power_sca::core::experiments::ExperimentConfig;
use apple_power_sca::core::{Campaign, Device, VictimKind};
use apple_power_sca::sca::model::Rd0Hw;
use apple_power_sca::sca::rank::{guessing_entropy, recovery_tally};
use apple_power_sca::smc::key::key;
use apple_power_sca::telemetry::ChannelId;

const SECRET: [u8; 16] = [
    0xB7, 0x6F, 0xEB, 0x3E, 0xD5, 0x9D, 0x77, 0xFA, 0xCE, 0xBB, 0x67, 0xF3, 0x5E, 0xAD, 0xD9, 0x7C,
];

/// Stage 1 (§3.2): the screening surfaces PHPC among the varying keys.
#[test]
fn screening_surfaces_phpc() {
    let row = screen_device(Device::MacbookAirM2, &ExperimentConfig::quick());
    assert!(row.varying_keys.contains(&key("PHPC")), "screening found {:?}", row.varying_keys);
}

/// Stages 2+3 (§3.3–3.4): collect known-plaintext traces through the
/// unprivileged IOKit client and run CPA; a meaningful share of the key
/// must be recovered and GE must beat random guessing by a wide margin.
#[test]
fn cpa_extracts_key_material_from_user_victim() {
    let report = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, 0xE2E)
        .keys(&[key("PHPC")])
        .traces(8_000)
        .session()
        .cpa(|| Box::new(Rd0Hw));
    let ranks = report.ranks(key("PHPC"), &SECRET).expect("registered");
    let ge = guessing_entropy(&ranks);
    let (recovered, near) = recovery_tally(&ranks);
    assert!(recovered >= 4, "expected substantial recovery, ranks {ranks:?}");
    assert!(recovered + near >= 8, "ranks {ranks:?}");
    // Random guessing sits at E[GE] ≈ 16·log2(128) ≈ 112 bits.
    assert!(ge < 60.0, "GE {ge}");
}

/// §3.5: the same attack against the kernel-module victim still leaks, but
/// converges more slowly than the user-space victim at equal trace count.
#[test]
fn kernel_victim_leaks_but_slower() {
    let n = 8_000;
    let ge_of = |kind: VictimKind| {
        let report = Campaign::live(Device::MacbookAirM2, kind, SECRET, 0x5E5E)
            .keys(&[key("PHPC")])
            .traces(n)
            .session()
            .cpa(|| Box::new(Rd0Hw));
        guessing_entropy(&report.ranks(key("PHPC"), &SECRET).expect("registered"))
    };
    let user = ge_of(VictimKind::UserSpace);
    let kernel = ge_of(VictimKind::KernelModule);
    assert!(kernel > user, "kernel GE {kernel} must exceed user GE {user}");
    assert!(kernel < 110.0, "kernel channel must still leak, GE {kernel}");
}

/// The attacker is unprivileged: the same pipeline dies at collection time
/// once the access-restriction countermeasure ships.
#[test]
fn restricted_access_breaks_the_pipeline() {
    let report = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, 0xACCE)
        .keys(&[key("PHPC")])
        .traces(50)
        .mitigation(apple_power_sca::smc::MitigationConfig::restrict_access())
        .session()
        .cpa(|| Box::new(Rd0Hw));
    let cpa = report.cpa.cpa(ChannelId::Smc(key("PHPC"))).expect("registered");
    assert_eq!(cpa.trace_count(), 0, "no traces under restriction");
}
