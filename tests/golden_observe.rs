//! Golden pin of the live observation pipeline.
//!
//! Each rig case runs 300 observations through the campaign driver's
//! streaming observe path and folds every observable bit into one FNV-1a
//! digest: ciphertext, windows consumed, simulated time, the IOReport
//! `PCPU` delta, and every SMC key's `Option<f64>` read through the
//! unprivileged client (a denied read folds differently from any value).
//! The SoC case folds every column of 1-window `run_windows_into` calls
//! while power mode, placements, window length and the governor's
//! operating point change between calls.
//!
//! The digests were recorded on the straightforward per-call pipeline
//! (segment rebuilt every call, AES run twice per observation); any change
//! to a simulated bit, to the number or order of RNG draws, or to when the
//! window engine refreshes its operating point moves a digest.

use apple_power_sca::aes::leakage::LeakageModel;
use apple_power_sca::core::{Device, Observation, Rig, VictimKind};
use apple_power_sca::smc::MitigationConfig;
use apple_power_sca::soc::workload::{
    shared_plaintext, AesWorkload, FmulStressor, MatrixStressor, SharedPlaintext,
};
use apple_power_sca::soc::{PowerMode, SchedAttrs, Soc, SocSpec, ThreadId, WindowBatch};
use std::sync::Arc;

const OBSERVATIONS: usize = 300;
const CHUNK: usize = 12;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fold(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn fold_observation(mut h: u64, obs: &Observation) -> u64 {
    for &b in &obs.ciphertext {
        h = fold(h, u64::from(b));
    }
    h = fold(h, u64::from(obs.windows));
    h = fold(h, obs.time_s.to_bits());
    h = fold(h, obs.pcpu_delta_mj.to_bits());
    for &(_, value) in &obs.smc {
        h = match value {
            Some(v) => fold(fold(h, 1), v.to_bits()),
            None => fold(h, 0),
        };
    }
    h
}

/// Digest `OBSERVATIONS` observations of one rig, reading every key the
/// device's SMC exposes, with `chunk(rig, k, n)` drawing the `n`
/// plaintexts of the `k`-th chunk.
fn rig_digest_with(
    device: Device,
    kind: VictimKind,
    mitigation: MitigationConfig,
    mut chunk: impl FnMut(&mut Rig, usize, usize) -> Vec<[u8; 16]>,
) -> u64 {
    let mut rig = Rig::new(device, kind, [0x5Au8; 16], 0x0B5E_0001);
    rig.set_mitigation(mitigation);
    let keys = rig.smc.read().keys().to_vec();
    let mut h = FNV_OFFSET;
    let mut done = 0;
    for k in 0.. {
        if done >= OBSERVATIONS {
            break;
        }
        let n = CHUNK.min(OBSERVATIONS - done);
        let pts = chunk(&mut rig, k, n);
        rig.observe_windows_with(&pts, &keys, |obs| h = fold_observation(h, obs));
        done += n;
    }
    fold(h, done as u64)
}

/// [`rig_digest_with`] over random plaintexts only.
fn rig_digest(device: Device, kind: VictimKind, mitigation: MitigationConfig) -> u64 {
    rig_digest_with(device, kind, mitigation, |rig, _, n| {
        (0..n).map(|_| rig.random_plaintext()).collect()
    })
}

/// TVLA-shaped chunks, as the live TVLA source draws them: an all-zeros
/// run spanning two chunks, an all-ones run, a random run, the all-ones
/// class again, then one chunk that swaps class every observation. Fixed
/// plaintexts repeat back to back and come back after other inputs, so a
/// stale per-plaintext memo (ciphertext or activity) moves the digest.
fn tvla_chunk(rig: &mut Rig, k: usize, n: usize) -> Vec<[u8; 16]> {
    const ZEROS: [u8; 16] = [0x00; 16];
    const ONES: [u8; 16] = [0xFF; 16];
    match k % 6 {
        0 | 1 => vec![ZEROS; n],
        2 | 4 => vec![ONES; n],
        3 => (0..n).map(|_| rig.random_plaintext()).collect(),
        _ => (0..n)
            .map(|i| match i % 3 {
                0 => ZEROS,
                1 => ONES,
                _ => rig.random_plaintext(),
            })
            .collect(),
    }
}

/// The sixteen pinned rig cases of one device, with their recorded
/// digests in the order (user, kernel) × (none, slow ×3, noise 0.05,
/// restrict).
fn check_device(device: Device, want: [u64; 8]) {
    let mitigations = [
        ("none", MitigationConfig::none()),
        ("slow", MitigationConfig::slow_updates(3.0)),
        ("noise", MitigationConfig::noise_blend(0.05)),
        ("restrict", MitigationConfig::restrict_access()),
    ];
    let cases = [VictimKind::UserSpace, VictimKind::KernelModule]
        .into_iter()
        .flat_map(|kind| mitigations.iter().map(move |&(name, m)| (kind, name, m)));
    let mut moved = Vec::new();
    for ((kind, name, mitigation), want) in cases.zip(want) {
        let got = rig_digest(device, kind, mitigation);
        if got != want {
            moved.push(format!("{kind:?}/{name}: {got:#018x} (recorded {want:#018x})"));
        }
    }
    assert!(moved.is_empty(), "{} digests moved:\n{}", device.label(), moved.join("\n"));
}

#[test]
fn golden_observe_digests_m1() {
    check_device(
        Device::MacMiniM1,
        [
            0x68fa_f69e_f649_6c89,
            0xb838_72f4_7fda_b782,
            0x3629_b25c_80f9_4b05,
            0xcf94_1e89_8a4f_586f,
            0x8a11_66d1_e4cb_b5ca,
            0xedd1_a334_f4cd_08b3,
            0x5209_a001_6c88_82d3,
            0x8804_d34a_fea7_d501,
        ],
    );
}

#[test]
fn golden_observe_digests_m2() {
    check_device(
        Device::MacbookAirM2,
        [
            0xc9e8_3d59_03e5_a9b7,
            0x4145_45df_279f_ae2c,
            0x4bda_97d0_a8fa_2bfd,
            0x8456_282b_8fde_12c4,
            0x089f_c4ff_3996_4d68,
            0x9f8f_fa14_1167_277a,
            0x1ac9_e168_649c_8cb8,
            0x53ce_6dc6_8879_7e71,
        ],
    );
}

/// The TVLA-schedule digests, (M1, M2) × (user, kernel), no mitigation.
#[test]
fn golden_observe_digests_tvla_schedule() {
    let want = [
        (Device::MacMiniM1, VictimKind::UserSpace, 0x7d14_99eb_3b89_4a76),
        (Device::MacMiniM1, VictimKind::KernelModule, 0x2903_16bf_b3d8_c63f),
        (Device::MacbookAirM2, VictimKind::UserSpace, 0x743a_5bf7_018c_f5ef),
        (Device::MacbookAirM2, VictimKind::KernelModule, 0x531b_2158_57f6_de11),
    ];
    let mut moved = Vec::new();
    for (device, kind, want) in want {
        let got = rig_digest_with(device, kind, MitigationConfig::none(), tvla_chunk);
        if got != want {
            moved.push(format!("{}/{kind:?}: {got:#018x} (recorded {want:#018x})", device.label()));
        }
    }
    assert!(moved.is_empty(), "{} TVLA-schedule digests moved:\n{}", moved.len(), moved.join("\n"));
}

fn fold_window(mut h: u64, batch: &WindowBatch) -> u64 {
    for r in batch.reports() {
        let rails = r.rails;
        for v in [
            r.duration_s,
            rails.p_cluster_w,
            rails.e_cluster_w,
            rails.dram_w,
            rails.uncore_w,
            rails.package_w,
            rails.dc_in_w,
            rails.system_w,
            r.estimated_cpu_power_w,
            r.estimated_p_cluster_w,
            r.estimated_e_cluster_w,
            r.p_freq_ghz,
            r.e_freq_ghz,
            r.temperature_c,
            r.p_core_reps,
        ] {
            h = fold(h, v.to_bits());
        }
        for u in r.p_core_util.iter().chain(&r.e_core_util) {
            h = fold(h, u.to_bits());
        }
    }
    h
}

/// A deterministic plaintext sequence (a byte-wise LCG walk).
fn plaintext(i: u64) -> [u8; 16] {
    core::array::from_fn(|b| (i.wrapping_mul(0x9E37_79B9).wrapping_add(b as u64 * 77) >> 3) as u8)
}

fn spawn_aes(soc: &mut Soc, pt: &SharedPlaintext, n: usize) -> Vec<ThreadId> {
    let model = Arc::new(LeakageModel::new(&[0x2Bu8; 16]).expect("16-byte key"));
    let w = AesWorkload::new(model, Arc::clone(pt));
    (0..n)
        .map(|i| soc.spawn(format!("aes{i}"), SchedAttrs::realtime_p_core(), Box::new(w.clone())))
        .collect()
}

#[test]
fn golden_soc_window_digest() {
    let mut soc = Soc::new(SocSpec::macbook_air_m2(), 0x50C0_0001);
    let pt = shared_plaintext([0u8; 16]);
    let mut aes = spawn_aes(&mut soc, &pt, 3);
    let mut batch = WindowBatch::new();
    let mut h = FNV_OFFSET;
    let mut duration_s = 1.0;
    let mut extra: Vec<ThreadId> = Vec::new();
    let mut stretch_freqs: Vec<u64> = Vec::new();
    for i in 0..360u64 {
        match i {
            40 => soc.set_power_mode(PowerMode::LowPower),
            60 => extra.push(soc.spawn(
                "matrix",
                SchedAttrs::background_e_core(),
                Box::new(MatrixStressor::default()),
            )),
            80 => {
                for id in extra.drain(..) {
                    assert!(soc.kill(id));
                }
            }
            100 => duration_s = 0.5,
            120 => soc.set_power_mode(PowerMode::Normal),
            140 => duration_s = 1.0,
            160 => {
                assert!(soc.kill(aes.pop().expect("victim thread")));
            }
            // The throttling stretch: lowpower, four AES threads and four
            // E-core stressors push the estimator over the 4 W cap, so the
            // governor moves the P-cluster between calls.
            180 => {
                soc.set_power_mode(PowerMode::LowPower);
                aes.extend(spawn_aes(&mut soc, &pt, 2));
                for k in 0..4 {
                    extra.push(soc.spawn(
                        format!("fmul{k}"),
                        SchedAttrs::background_e_core(),
                        Box::new(FmulStressor),
                    ));
                }
                duration_s = 0.25;
            }
            300 => {
                soc.kill_all();
                extra.clear();
                aes = spawn_aes(&mut soc, &pt, 3);
                soc.set_power_mode(PowerMode::Normal);
                duration_s = 1.0;
            }
            _ => {}
        }
        // Most calls swap the plaintext; every fourth keeps it.
        if i % 4 != 3 {
            pt.set(plaintext(i));
        }
        soc.run_windows_into(1, duration_s, &mut batch);
        if (180..300).contains(&i) {
            stretch_freqs.push(batch.p_freq_ghz()[0].to_bits());
        }
        h = fold_window(h, &batch);
    }
    stretch_freqs.dedup();
    assert!(stretch_freqs.len() > 2, "the stretch must throttle between calls: {stretch_freqs:?}");
    let want = 0x33a3_c0bb_0f6c_0f8f;
    assert_eq!(h, want, "soc window digest {h:#018x} moved from {want:#018x}");
}
