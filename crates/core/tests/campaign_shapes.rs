//! Campaign shapes through the streaming runner: per-class counts,
//! recorded known-plaintext pairs, denied-read accounting, sharded trace
//! counts and the zero-shard refusal.

use psc_core::session::Campaign;
use psc_core::{Device, ShardReplay, VictimKind};
use psc_sca::model::Rd0Hw;
use psc_sca::tvla::PlaintextClass;
use psc_smc::key::key;
use psc_smc::MitigationConfig;
use psc_telemetry::event::ChannelId;

fn live() -> Campaign {
    Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, [0x3Cu8; 16], 21)
}

#[test]
fn tvla_campaign_shapes() {
    let keys = [key("PHPC"), key("PHPS")];
    let report = live().keys(&keys).traces(40).session().tvla();
    for channel in keys.map(ChannelId::Smc).into_iter().chain([ChannelId::Pcpu]) {
        let acc = report.tvla.accumulator(channel).expect("collected");
        for pass in 0..2 {
            for class in PlaintextClass::ALL {
                assert_eq!(acc.count(pass, class), 40);
            }
        }
    }
    assert_eq!(report.matrix(key("PHPC")).expect("collected").cells.len(), 9);
    assert_eq!(report.monitor.denied_reads(), 0, "all requested keys readable");
    assert_eq!(report.tvla.orphan_samples(), 0);
}

#[test]
fn known_plaintext_collection_records_pairs() {
    let dir = std::env::temp_dir().join(format!("psc_session_pairs_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let _ =
        live().keys(&[key("PHPC")]).traces(25).record_to(&dir).session().cpa(|| Box::new(Rd0Hw));
    let set = ShardReplay::from_dir(&dir).unwrap().read_channel("PHPC").unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(set.traces.len(), 25);
    let aes = psc_aes::Aes::new(&[0x3Cu8; 16]).unwrap();
    for t in &set.traces {
        assert_eq!(t.trace.ciphertext, aes.encrypt_block(&t.trace.plaintext), "service");
        assert!(t.trace.value > 0.0);
    }
    // Plaintexts are fresh random per trace.
    let first_pt = set.traces[0].trace.plaintext;
    assert!(set.traces.iter().any(|t| t.trace.plaintext != first_pt));
}

#[test]
fn denied_reads_are_counted_not_panicked() {
    let report = live()
        .keys(&[key("PHPC")])
        .traces(5)
        .mitigation(MitigationConfig::restrict_access())
        .session()
        .tvla();
    // Every read denied: no PHPC accumulator, drops are accounted.
    assert!(report.tvla.accumulator(ChannelId::Smc(key("PHPC"))).is_none());
    assert_eq!(report.monitor.denied_reads(), 30, "2 passes x 3 classes x 5 traces");
    // PCPU is unaffected by SMC access control.
    let pcpu = report.tvla.accumulator(ChannelId::Pcpu).expect("collected");
    assert_eq!(pcpu.count(0, PlaintextClass::AllZeros), 5);
}

#[test]
fn parallel_collection_matches_requested_count() {
    let keys = [key("PHPC"), key("PDTR")];
    let report = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, [0x3Cu8; 16], 5)
        .keys(&keys)
        .traces(53)
        .shards(4)
        .session()
        .cpa(|| Box::new(Rd0Hw));
    for k in keys {
        assert_eq!(report.cpa.cpa(ChannelId::Smc(k)).expect("registered").trace_count(), 53);
    }
}

#[test]
#[should_panic(expected = "at least one shard")]
fn zero_shards_panics() {
    let _ = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, [1u8; 16], 1)
        .keys(&[key("PHPC")])
        .traces(10)
        .shards(0)
        .session()
        .cpa(|| Box::new(Rd0Hw));
}
