//! End-to-end equivalence of the batched observation pipeline: for every
//! device × mitigation × victim combination, `Rig::observe_windows_with`
//! must produce **bit-identical** observations to a per-window
//! `observe_window` loop — same SMC publishes (same firmware RNG stream),
//! same IOReport `PCPU` deltas, same simulated clock — and the chunked
//! campaign drivers must therefore reproduce trace sets exactly.

mod common;

use apple_power_sca::core::{Campaign, Device, Observation, Rig, VictimKind};
use apple_power_sca::smc::key::key;
use apple_power_sca::smc::{MitigationConfig, SmcKey};
use common::Recorded;

/// One batched `observe_windows_with` call, its observations cloned out.
fn observe_batch(rig: &mut Rig, pts: &[[u8; 16]], keys: &[SmcKey]) -> Vec<Observation> {
    let mut out = Vec::with_capacity(pts.len());
    rig.observe_windows_with(pts, keys, |obs| out.push(obs.clone()));
    out
}

fn assert_obs_bits(a: &Observation, b: &Observation, context: &str) {
    assert_eq!(a.plaintext, b.plaintext, "{context}: plaintext");
    assert_eq!(a.ciphertext, b.ciphertext, "{context}: ciphertext");
    assert_eq!(a.windows, b.windows, "{context}: windows consumed");
    assert_eq!(a.time_s.to_bits(), b.time_s.to_bits(), "{context}: time");
    assert_eq!(
        a.pcpu_delta_mj.to_bits(),
        b.pcpu_delta_mj.to_bits(),
        "{context}: pcpu {} vs {}",
        a.pcpu_delta_mj,
        b.pcpu_delta_mj
    );
    assert_eq!(a.smc.len(), b.smc.len(), "{context}: smc count");
    for ((ka, va), (kb, vb)) in a.smc.iter().zip(&b.smc) {
        assert_eq!(ka, kb, "{context}: key order");
        assert_eq!(
            va.map(f64::to_bits),
            vb.map(f64::to_bits),
            "{context}: {ka} value {va:?} vs {vb:?}"
        );
    }
}

#[test]
fn batched_equals_sequential_across_devices_and_mitigations() {
    let mitigations = [
        ("none", MitigationConfig::none()),
        ("slow x3", MitigationConfig::slow_updates(3.0)),
        ("noise blend", MitigationConfig::noise_blend(0.05)),
        ("restrict", MitigationConfig::restrict_access()),
    ];
    for device in Device::ALL {
        for (mit_name, mitigation) in mitigations {
            for kind in [VictimKind::UserSpace, VictimKind::KernelModule] {
                let context = format!("{} / {mit_name} / {kind:?}", device.label());
                let keys = device.table2_keys();
                let mut seq = Rig::new(device, kind, [0x3Cu8; 16], 21);
                let mut bat = Rig::new(device, kind, [0x3Cu8; 16], 21);
                seq.set_mitigation(mitigation);
                bat.set_mitigation(mitigation);
                let pts: Vec<[u8; 16]> = (0..4).map(|_| seq.random_plaintext()).collect();
                let batched = observe_batch(&mut bat, &pts, &keys);
                for (pt, b) in pts.iter().zip(&batched) {
                    let s = seq.observe_window(*pt, &keys);
                    assert_obs_bits(&s, b, &context);
                }
            }
        }
    }
}

#[test]
fn batched_equals_sequential_under_publish_jitter() {
    // Cadence jitter makes the windows-per-publish count vary; the batch
    // sizing must track the firmware's jittered target exactly.
    let keys = [key("PHPC")];
    let mut seq = Rig::new(Device::MacbookAirM2, VictimKind::UserSpace, [7u8; 16], 5);
    let mut bat = Rig::new(Device::MacbookAirM2, VictimKind::UserSpace, [7u8; 16], 5);
    for rig in [&mut seq, &mut bat] {
        let mut smc = rig.smc.write();
        smc.set_update_interval(2.0);
        smc.set_interval_jitter(0.3);
    }
    let pts: Vec<[u8; 16]> = (0..12).map(|_| seq.random_plaintext()).collect();
    let batched = observe_batch(&mut bat, &pts, &keys);
    let mut consumed = Vec::new();
    for (pt, b) in pts.iter().zip(&batched) {
        let s = seq.observe_window(*pt, &keys);
        assert_obs_bits(&s, b, "jittered cadence");
        consumed.push(b.windows);
    }
    assert!(
        consumed.iter().any(|&w| w != consumed[0]),
        "jitter must vary the cadence: {consumed:?}"
    );
}

#[test]
fn chunked_campaign_reproduces_per_trace_loop() {
    // A known-plaintext campaign chunks plaintexts through observe_windows_with;
    // a hand-rolled per-trace loop over an identically seeded rig must
    // yield the same (plaintext, value) sequence.
    let keys = [key("PHPC")];
    let n = 70; // spans multiple OBS_CHUNK slices
    let live = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, [1u8; 16], 77);
    let set = &Recorded::cpa(live.keys(&keys).traces(n)).0.traces("PHPC");
    assert_eq!(set.len(), n);

    let mut rig = Rig::new(Device::MacbookAirM2, VictimKind::UserSpace, [1u8; 16], 77);
    for (i, trace) in set.iter().enumerate() {
        let pt = rig.random_plaintext();
        let obs = rig.observe_window(pt, &keys);
        assert_eq!(trace.plaintext, pt, "trace {i} plaintext");
        assert_eq!(trace.ciphertext, obs.ciphertext, "trace {i} ciphertext");
        let value = obs.smc[0].1.expect("PHPC readable");
        assert_eq!(trace.value.to_bits(), value.to_bits(), "trace {i} value");
    }
}
