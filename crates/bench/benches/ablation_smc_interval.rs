//! Ablation: SMC update-interval stretching (§5 mitigation knob).
//!
//! At a fixed attacker wall-clock budget, multiplying the update interval
//! by k divides the trace count by k. The bench prints and records
//! (`interval_x<k>/ge_bits`) the CPA guessing entropy at each multiplier.

use psc_bench::measure::Run;
use psc_core::{Campaign, Device, VictimKind};
use psc_sca::model::Rd0Hw;
use psc_sca::rank::guessing_entropy;
use psc_smc::key::key;
use psc_smc::MitigationConfig;
use std::hint::black_box;

const KEY: [u8; 16] = [
    0xB7, 0x6F, 0xEB, 0x3E, 0xD5, 0x9D, 0x77, 0xFA, 0xCE, 0xBB, 0x67, 0xF3, 0x5E, 0xAD, 0xD9, 0x7C,
];

fn run_with_multiplier(multiplier: f64, wall_clock_windows: usize) -> f64 {
    let traces = (wall_clock_windows as f64 / multiplier) as usize;
    let report = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, KEY, 51)
        .keys(&[key("PHPC")])
        .traces(traces)
        .shards(2)
        .mitigation(MitigationConfig::slow_updates(multiplier))
        .session()
        .cpa(|| Box::new(Rd0Hw));
    guessing_entropy(&report.ranks(key("PHPC"), &KEY).expect("registered"))
}

fn main() {
    let budget = 6_000;
    let mut run = Run::start("ablation_smc_interval");
    for multiplier in [1.0f64, 2.0, 4.0] {
        let ge = run_with_multiplier(multiplier, budget);
        eprintln!(
            "[ablation_smc_interval] interval ×{multiplier}: GE = {ge:.1} bits \
             ({} traces in a {budget}-window budget)",
            (budget as f64 / multiplier) as usize
        );
        run.field(&format!("interval_x{multiplier}/ge_bits"), ge);
        run.measure_ns(&format!("interval_x{multiplier}"), || {
            black_box(run_with_multiplier(multiplier, 1_200));
        });
    }
    run.finish();
}
