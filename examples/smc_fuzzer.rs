//! The §3.2 screening methodology as a runnable tool: an `smc-fuzzer`
//! equivalent that enumerates SMC keys, dumps them idle vs busy, and
//! reports which power keys vary with workload (the paper's Table 2).
//!
//! Run with: `cargo run --release --example smc_fuzzer`

use apple_power_sca::core::experiments::screening::{run_table1, screen_device};
use apple_power_sca::core::{Device, ExperimentConfig};

fn main() -> Result<(), String> {
    let cfg = ExperimentConfig::from_env()?;
    println!("{}", run_table1().render());

    for device in Device::ALL {
        println!("== Screening {} ==", device.label());
        let row = screen_device(device, &cfg);
        println!("workload-dependent P-keys:");
        for (key, idle, busy) in &row.details {
            println!("  {key}: idle {idle:>8.3} W -> busy {busy:>8.3} W");
        }
        let expected = device.table2_keys();
        let found_all = expected.iter().all(|k| row.varying_keys.contains(k));
        println!(
            "matches the paper's Table 2 set for this device: {}\n",
            if found_all && row.varying_keys.len() == expected.len() { "yes" } else { "partially" }
        );
    }
    Ok(())
}
