//! Cross-crate integration: the attack surface is not AES-128-specific.
//! Against an AES-256 victim, the same Rd0-HW CPA recovers the *first 16
//! bytes* of the 32-byte key (the round-0 AddRoundKey only involves them)
//! — halving the remaining security margin of the larger key.

use apple_power_sca::core::Device;
use apple_power_sca::sca::cpa::Cpa;
use apple_power_sca::sca::model::Rd0Hw;
use apple_power_sca::sca::rank::{guessing_entropy, recovery_tally};
use apple_power_sca::sca::trace::{Trace, TraceSet};
use apple_power_sca::smc::iokit::{share, SmcUserClient};
use apple_power_sca::smc::key::key;
use apple_power_sca::smc::Smc;
use apple_power_sca::soc::sched::SchedAttrs;
use apple_power_sca::soc::workload::{shared_plaintext, AesWorkload};
use apple_power_sca::soc::Soc;
use psc_aes::leakage::LeakageModel;
use psc_aes::Aes;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::sync::Arc;

#[test]
fn rd0_cpa_recovers_first_half_of_an_aes256_key() {
    let key256: [u8; 32] = core::array::from_fn(|i| (i as u8).wrapping_mul(37).wrapping_add(0xB1));
    let device = Device::MacbookAirM2;
    let mut soc = Soc::new(device.soc_spec(), 0x256);

    // Victim: three P-core threads running AES-256 on a shared plaintext.
    let model = Arc::new(LeakageModel::new(&key256).expect("32-byte key"));
    let plaintext = shared_plaintext([0u8; 16]);
    for i in 0..3 {
        let w = AesWorkload::with_signal(
            Arc::clone(&model),
            Arc::clone(&plaintext),
            device.aes_signal(),
        );
        soc.spawn(format!("aes256-{i}"), SchedAttrs::realtime_p_core(), Box::new(w));
    }
    let smc = share(Smc::new(device.sensor_set(), 0x257));
    let client = SmcUserClient::new(Arc::clone(&smc));

    let aes = Aes::new(&key256).expect("valid key");
    let mut rng = ChaCha12Rng::seed_from_u64(0x258);
    let mut set = TraceSet::new("PHPC (AES-256 victim)");
    for _ in 0..20_000 {
        let mut pt = [0u8; 16];
        rng.fill(&mut pt);
        plaintext.set(pt);
        let ct = aes.encrypt_block(&pt);
        let report = soc.run_window(1.0);
        smc.write().observe_window(&report);
        let value = client.read_key(key("PHPC")).expect("readable").value;
        set.push(Trace { value, plaintext: pt, ciphertext: ct });
    }

    let mut cpa = Cpa::new(Box::new(Rd0Hw));
    cpa.add_set(&set);
    // The round-0 AddRoundKey uses key bytes 0..16 — exactly what Rd0-HW
    // targets, regardless of the total key length.
    let first_half: [u8; 16] = core::array::from_fn(|i| key256[i]);
    let ranks = cpa.ranks(&first_half);
    let ge = guessing_entropy(&ranks);
    let (recovered, near) = recovery_tally(&ranks);
    assert!(
        recovered + near >= 12,
        "first half of the AES-256 key must be recoverable: ranks {ranks:?} (GE {ge:.1})"
    );
}
