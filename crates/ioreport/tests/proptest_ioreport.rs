//! Property-based tests for the IOReport substrate.

use proptest::prelude::*;
use psc_ioreport::channel::{ChannelId, ChannelUnit, IoReport};
use psc_ioreport::energy_model::EnergyModelReporter;
use psc_soc::{PowerRails, WindowReport};
use std::collections::BTreeMap;

fn window(est_p: f64, dt: f64) -> WindowReport {
    WindowReport {
        duration_s: dt,
        rails: PowerRails::assemble(est_p * 1.1, 0.3, 0.4, 0.5, 0.88, 1.5),
        estimated_cpu_power_w: est_p + 0.3,
        estimated_p_cluster_w: est_p,
        estimated_e_cluster_w: 0.3,
        p_freq_ghz: 3.5,
        e_freq_ghz: 2.4,
        temperature_c: 40.0,
        p_core_reps: 1.0e7,
        ..WindowReport::default()
    }
}

proptest! {
    /// Cumulative counters never decrease, regardless of the window stream.
    #[test]
    fn counters_monotone(
        powers in proptest::collection::vec(0.0f64..15.0, 1..40),
        dt in 0.1f64..3.0,
    ) {
        let mut rep = EnergyModelReporter::new();
        let mut prev = rep.snapshot();
        for p in powers {
            rep.observe_window(&window(p, dt));
            let now = rep.snapshot();
            for (id, v) in &now.channels {
                let before = prev.get(id).map_or(0.0, |x| x.value);
                prop_assert!(v.value + 1e-9 >= before, "{id} decreased");
            }
            prev = now;
        }
    }

    /// Delta of consecutive snapshots equals per-window consumption within
    /// quantization error.
    #[test]
    fn delta_accounts_energy(p in 0.1f64..10.0, windows in 1usize..20) {
        let mut rep = EnergyModelReporter::new();
        let before = rep.snapshot();
        for _ in 0..windows {
            rep.observe_window(&window(p, 1.0));
        }
        let delta = rep.snapshot().delta(&before);
        let pcpu = delta.get(&EnergyModelReporter::pcpu()).expect("channel").value;
        let expected_mj = p * windows as f64 * 1.0e3;
        prop_assert!(
            (pcpu - expected_mj).abs() <= windows as f64 + 1.0,
            "pcpu {pcpu} vs expected {expected_mj}"
        );
    }

    /// Snapshot delta is anti-symmetric in time for monotone counters.
    #[test]
    fn delta_nonnegative_forward(p in 0.0f64..10.0, n1 in 1usize..10, n2 in 1usize..10) {
        let mut rep = EnergyModelReporter::new();
        for _ in 0..n1 {
            rep.observe_window(&window(p, 1.0));
        }
        let early = rep.snapshot();
        for _ in 0..n2 {
            rep.observe_window(&window(p, 1.0));
        }
        let late = rep.snapshot();
        for v in late.delta(&early).channels.values() {
            prop_assert!(v.value >= -1e-9);
        }
    }

    /// The registry never panics on arbitrary (registered) accumulation.
    #[test]
    fn registry_accumulation_total(amounts in proptest::collection::vec(-1.0e6f64..1.0e6, 0..50)) {
        let mut reg = IoReport::new();
        let id = ChannelId::new("g", "c");
        reg.register(id.clone(), ChannelUnit::Count);
        let mut sum = 0.0;
        for a in amounts {
            reg.accumulate(&id, a);
            sum += a;
        }
        let got = reg.snapshot().get(&id).expect("registered").value;
        prop_assert!((got - sum).abs() < 1e-6 * sum.abs().max(1.0));
    }

    /// Re-registering an id returns its existing slot and keeps its value
    /// and unit, however many other channels registered in between.
    #[test]
    fn reregistering_returns_the_existing_slot(
        before in 0usize..6,
        after in 0usize..6,
        amount in -1.0e6f64..1.0e6,
    ) {
        let mut reg = IoReport::new();
        for i in 0..before {
            reg.register(ChannelId::new("g", format!("pre{i}")), ChannelUnit::Count);
        }
        let id = ChannelId::new("Energy Model", "PCPU");
        let slot = reg.register(id.clone(), ChannelUnit::Millijoules);
        prop_assert_eq!(slot, before, "a new channel takes the next dense slot");
        reg.accumulate_slot(slot, amount);
        for i in 0..after {
            reg.register(ChannelId::new("h", format!("post{i}")), ChannelUnit::Count);
        }
        prop_assert_eq!(reg.register(id.clone(), ChannelUnit::Count), slot);
        prop_assert_eq!(reg.slot(&id), Some(slot));
        let v = reg.get(&id).expect("registered");
        prop_assert_eq!(v.value.to_bits(), amount.to_bits());
        prop_assert_eq!(v.unit, ChannelUnit::Millijoules);
        prop_assert_eq!(reg.channel_ids().len(), before + after + 1);
    }

    /// After any register/accumulate sequence (by name or by slot), the
    /// slot reads, `get`, `snapshot`, `channel_ids` and `groups` agree with
    /// a by-name model of the registry.
    #[test]
    fn slot_storage_agrees_with_the_by_name_view(
        ops in proptest::collection::vec(
            (0u8..3, 0usize..4, 0usize..5, -1.0e3f64..1.0e3),
            0..60,
        ),
    ) {
        let mut reg = IoReport::new();
        let mut model: BTreeMap<ChannelId, f64> = BTreeMap::new();
        let mut slots: BTreeMap<ChannelId, usize> = BTreeMap::new();
        for (op, group, channel, amount) in ops {
            let id = ChannelId::new(format!("g{group}"), format!("c{channel}"));
            match op {
                0 => {
                    let slot = reg.register(id.clone(), ChannelUnit::Count);
                    let expected = *slots.entry(id.clone()).or_insert(slot);
                    prop_assert_eq!(slot, expected, "{} changed slot", id);
                    model.entry(id).or_insert(0.0);
                }
                1 if model.contains_key(&id) => {
                    reg.accumulate(&id, amount);
                    *model.get_mut(&id).expect("registered") += amount;
                }
                _ if model.contains_key(&id) => {
                    reg.accumulate_slot(slots[&id], amount);
                    *model.get_mut(&id).expect("registered") += amount;
                }
                _ => prop_assert!(reg.get(&id).is_none() && reg.slot(&id).is_none()),
            }
        }
        let ids: Vec<ChannelId> = model.keys().cloned().collect();
        prop_assert_eq!(reg.channel_ids(), ids);
        let mut groups: Vec<String> = model.keys().map(|id| id.group.clone()).collect();
        groups.dedup();
        prop_assert_eq!(reg.groups(), groups);
        let snap = reg.snapshot();
        prop_assert_eq!(snap.channels.len(), model.len());
        for (id, &want) in &model {
            let slot = slots[id];
            prop_assert_eq!(reg.value(slot).to_bits(), want.to_bits(), "{}", id);
            prop_assert_eq!(reg.get(id).expect("registered").value.to_bits(), want.to_bits());
            prop_assert_eq!(snap.get(id).expect("in snapshot").value.to_bits(), want.to_bits());
        }
        let mut dense: Vec<usize> = slots.values().copied().collect();
        dense.sort_unstable();
        prop_assert_eq!(dense, (0..model.len()).collect::<Vec<_>>(), "slots are dense");
    }

    /// A default-constructed reporter is the standard one: it integrates
    /// windows without panicking and publishes what `new()` publishes.
    #[test]
    fn default_reporter_matches_new(powers in proptest::collection::vec(0.0f64..15.0, 1..10)) {
        let mut a = EnergyModelReporter::default();
        let mut b = EnergyModelReporter::new();
        for p in powers {
            a.observe_window(&window(p, 0.7));
            b.observe_window(&window(p, 0.7));
        }
        prop_assert_eq!(a.snapshot(), b.snapshot());
        prop_assert_eq!(a.pcpu_total_mj().to_bits(), b.pcpu_total_mj().to_bits());
    }
}
