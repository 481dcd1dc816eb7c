//! Golden pin of the firmware's published values.
//!
//! Each case runs 200 publishes over a fixed synthetic window sequence and
//! folds every key's published value (bit pattern and wire bytes) into one
//! FNV-1a digest. The recorded digests come from the straightforward
//! per-sensor pipeline `quantize(gain · source + drift + noise)`; any change
//! to a published bit, to the number or order of RNG draws, or to how a
//! `write_key` override reads back moves a digest.

use psc_smc::key::key;
use psc_smc::{MitigationConfig, SensorSet, Smc};
use psc_soc::{PowerRails, WindowBatch, WindowReport};

const PUBLISHES: u64 = 200;

fn fold(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Window `i` of the synthetic sequence: rails, estimator and temperature
/// all move, and the temperature crosses the fan curve's 45 °C knee.
fn window(i: u64) -> WindowReport {
    let step = (i * 7 % 13) as f64;
    let est = 1.5 + 0.11 * (i % 5) as f64;
    WindowReport {
        duration_s: 0.5,
        rails: PowerRails::assemble(1.0 + 0.37 * step, 0.3, 0.4, 0.5, 0.88, 1.5),
        estimated_cpu_power_w: est,
        estimated_p_cluster_w: est * 0.8,
        estimated_e_cluster_w: est * 0.2,
        p_freq_ghz: 3.5,
        e_freq_ghz: 2.4,
        temperature_c: 38.0 + (i % 17) as f64,
        p_core_reps: 1.0e7,
        ..WindowReport::default()
    }
}

/// Fold every key's published value, in the firmware's key order.
fn fold_published(smc: &Smc, mut h: u64) -> u64 {
    for &k in smc.keys() {
        let v = smc.read(k).expect("listed key reads");
        h = fold(h, v.value.to_bits());
        for b in v.to_bytes().iter() {
            h = fold(h, u64::from(*b));
        }
    }
    h
}

/// Run `PUBLISHES` publishes, alternating the per-window and the batched
/// ingestion paths, and digest the published view after each one. `hook`
/// runs before every ingestion step (numbered from 0), for mid-run key
/// writes.
fn digest(sensors: SensorSet, mitigation: MitigationConfig, hook: Hook) -> u64 {
    let mut smc = Smc::new(sensors, 0x00C0_FFEE);
    smc.set_mitigation(mitigation);
    let mut h = fold_published(&smc, 0xcbf2_9ce4_8422_2325);
    let mut batch = WindowBatch::new();
    let mut i = 0u64;
    let mut step = 0u64;
    while smc.update_count() < PUBLISHES {
        hook(&mut smc, step);
        step += 1;
        h = fold_published(&smc, h);
        if smc.update_count().is_multiple_of(2) {
            if smc.observe_window(&window(i)) {
                h = fold_published(&smc, h);
            }
            i += 1;
        } else {
            batch.clear(0.5);
            for _ in 0..smc.windows_until_publish(0.5) {
                batch.push(&window(i));
                i += 1;
            }
            assert!(!smc.observe_windows(&batch).is_empty());
            h = fold_published(&smc, h);
        }
    }
    fold(h, smc.update_count())
}

/// A mid-run action: called with the firmware and the ingestion step.
type Hook = fn(&mut Smc, u64);

fn no_writes(_: &mut Smc, _: u64) {}

/// Override the writable fan target: `-0.0` first (published as written,
/// then as `+0.0` once the pipeline adds its zero drift), later a value
/// that needs rounding on the wire, then `-0.0` again.
fn fan_target_writes(smc: &mut Smc, step: u64) {
    let value = match step {
        0 => -0.0,
        120 => 1234.567,
        240 => -0.0,
        _ => return,
    };
    smc.write_key(key("F0Tg"), value).expect("F0Tg is writable");
}

/// The five pinned cases of one device, with their recorded digests in
/// the order none, noise blend, slow updates, restrict, fan-target writes.
fn check_device(device: &str, sensors: fn() -> SensorSet, want: [u64; 5]) {
    let cases: [(&str, MitigationConfig, Hook); 5] = [
        ("none", MitigationConfig::none(), no_writes),
        ("noise", MitigationConfig::noise_blend(0.05), no_writes),
        ("slow", MitigationConfig::slow_updates(3.0), no_writes),
        ("restrict", MitigationConfig::restrict_access(), no_writes),
        ("write", MitigationConfig::noise_blend(0.05), fan_target_writes),
    ];
    for ((name, mitigation, hook), want) in cases.into_iter().zip(want) {
        let got = digest(sensors(), mitigation, hook);
        assert_eq!(got, want, "{device}/{name}: digest {got:#018x} moved from {want:#018x}");
    }
}

#[test]
fn golden_publish_digests_m1() {
    check_device(
        "m1",
        SensorSet::mac_mini_m1,
        [
            0xf3c3_63c8_7692_e535,
            0x4ea7_6658_1a88_fe63,
            0xb672_1c71_1c22_8739,
            0xf3c3_63c8_7692_e535,
            0x6d39_ad37_2e6a_235b,
        ],
    );
}

#[test]
fn golden_publish_digests_m2() {
    check_device(
        "m2",
        SensorSet::macbook_air_m2,
        [
            0x98c5_879d_7b91_c81f,
            0x3391_5694_fc18_4616,
            0x605e_7892_c188_98cd,
            0x98c5_879d_7b91_c81f,
            0x94c1_9de5_0650_9216,
        ],
    );
}
