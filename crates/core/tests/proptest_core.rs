//! Property-based tests for the attack-pipeline crate.

use proptest::prelude::*;
use psc_core::rig::{Device, Rig};
use psc_core::session::Campaign;
use psc_core::victim::{AesVictim, VictimKind};
use psc_core::ShardReplay;
use psc_smc::key::key;
use psc_soc::workload::AesSignal;
use psc_soc::{Soc, SocSpec};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The victim service is a correct AES oracle for any key/plaintext.
    #[test]
    fn victim_service_is_correct_oracle(secret in any::<[u8; 16]>(), pt in any::<[u8; 16]>()) {
        let mut soc = Soc::new(SocSpec::macbook_air_m2(), 1);
        let victim = AesVictim::install(&mut soc, VictimKind::UserSpace, secret, AesSignal::default());
        let expected = psc_aes::Aes::new(&secret).unwrap().encrypt_block(&pt);
        prop_assert_eq!(victim.request_encrypt(pt), expected);
    }

    /// Collection always yields exactly n traces with consistent pt/ct
    /// pairs and finite values, for any seed/secret.
    #[test]
    fn collection_shape_invariants(seed in any::<u64>(), secret in any::<[u8; 16]>()) {
        let dir = std::env::temp_dir()
            .join(format!("psc_proptest_core_{}_{seed:016x}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let _ = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, secret, seed)
            .keys(&[key("PHPC"), key("PSTR")])
            .traces(12)
            .record_to(&dir)
            .session()
            .cpa(|| Box::new(psc_sca::model::Rd0Hw));
        let replay = ShardReplay::from_dir(&dir).unwrap();
        let aes = psc_aes::Aes::new(&secret).unwrap();
        for k in [key("PHPC"), key("PSTR")] {
            let set = replay.read_channel(&k.to_string()).unwrap().into_trace_set();
            prop_assert_eq!(set.len(), 12);
            for t in set.iter() {
                prop_assert!(t.value.is_finite());
                prop_assert_eq!(t.ciphertext, aes.encrypt_block(&t.plaintext));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Observations are reproducible per seed and sensitive to the seed.
    #[test]
    fn seed_determinism(seed in any::<u64>()) {
        let run = |s: u64| {
            let mut rig = Rig::new(Device::MacMiniM1, VictimKind::KernelModule, [7u8; 16], s);
            let pt = rig.random_plaintext();
            let obs = rig.observe_window(pt, &[key("PHPC")]);
            (pt, obs.smc[0].1.map(f64::to_bits))
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// Device invariants hold for both presets.
    #[test]
    fn device_preset_invariants(m1 in any::<bool>()) {
        let device = if m1 { Device::MacMiniM1 } else { Device::MacbookAirM2 };
        let spec = device.soc_spec();
        prop_assert_eq!(spec.core_count(), 8);
        let sensors = device.sensor_set();
        // Every Table 2 key exists in the sensor population.
        for k in device.table2_keys() {
            prop_assert!(sensors.get(k).is_some(), "{k} missing");
        }
        // CPA keys are the Table 2 keys minus PHPS.
        prop_assert_eq!(device.cpa_keys().len(), device.table2_keys().len() - 1);
    }
}
