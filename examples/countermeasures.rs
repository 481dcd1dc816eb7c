//! §5 countermeasures: quantifying how the mitigations the paper proposes
//! (mirroring Intel/AMD's PLATYPUS responses) degrade the PHPC CPA attack.
//!
//! Run with: `cargo run --release --example countermeasures`

use apple_power_sca::core::experiments::countermeasure::run_countermeasures;
use apple_power_sca::core::ExperimentConfig;

fn main() -> Result<(), String> {
    let mut cfg = ExperimentConfig::from_env()?;
    // A modest budget keeps this example snappy; raise PSC_TRACES to probe
    // the mitigations at higher attacker effort.
    cfg.cpa_traces_m2 = cfg.cpa_traces_m2.min(30_000);

    let study = run_countermeasures(&cfg);
    println!("{}", study.render());
    println!(
        "Reading: access restriction stops the attack outright; noise\n\
         blending and slower updates both push the required trace count up\n\
         — the same trade-offs Intel documented for RAPL filtering."
    );
    Ok(())
}
