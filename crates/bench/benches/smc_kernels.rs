//! Kernel benches: the simulation substrate (SoC step, SMC publish
//! pipeline, IOKit read path, fuzzer dump, one full observation). The
//! SoC window loop is timed in `window_kernels`.

use psc_bench::measure::Run;
use psc_core::{Device, Rig, VictimKind};
use psc_smc::fuzzer::dump_keys;
use psc_smc::key::key;
use std::hint::black_box;

fn rig() -> Rig {
    Rig::new(Device::MacbookAirM2, VictimKind::UserSpace, [1u8; 16], 9)
}

/// A rig whose SMC has published one window, so every key reads.
fn published_rig() -> Rig {
    let mut rig = rig();
    let report = rig.soc.run_window(1.0);
    rig.smc.write().observe_window(&report);
    rig
}

fn main() {
    let mut run = Run::start("smc_kernels");

    let mut stepped = rig();
    run.measure_ns("substrate/soc_step", || {
        black_box(stepped.soc.step(0.05));
    });

    let mut observer = rig();
    let report = observer.soc.run_window(1.0);
    run.measure_ns("substrate/smc_observe_window", || {
        black_box(observer.smc.write().observe_window(black_box(&report)));
    });

    let reader = published_rig();
    let phpc = key("PHPC");
    run.measure_ns("substrate/iokit_read_key", || {
        black_box(reader.client.read_key(black_box(phpc)).expect("readable"));
    });

    let fuzzed = published_rig();
    run.measure_ns("substrate/fuzzer_dump_p_keys", || {
        black_box(dump_keys(&fuzzed.client, Some('P')).expect("enumeration"));
    });

    let mut observed = rig();
    let keys = [key("PHPC"), key("PDTR"), key("PMVC"), key("PSTR")];
    run.measure_ns("substrate/end_to_end_observation", || {
        let pt = observed.random_plaintext();
        black_box(observed.observe_window(pt, &keys));
    });
    run.finish();
}
