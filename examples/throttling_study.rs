//! The §4 frequency-throttling study: discovering the lowpowermode 4 W
//! reactive power limit, steering AES to P-cores and stressors to E-cores,
//! and showing that the resulting timing channel does NOT leak.
//!
//! Run with: `cargo run --release --example throttling_study`

use apple_power_sca::core::experiments::throttling::{run_throttling_study, timing_tvla};
use apple_power_sca::core::ExperimentConfig;

fn main() -> Result<(), String> {
    let mut cfg = ExperimentConfig::from_env()?;
    cfg.timing_traces_per_class = cfg.timing_traces_per_class.min(200);

    let study = run_throttling_study(&cfg);
    println!("{}", study.render());

    println!("== Timing side-channel attempt under throttling ==");
    let matrix = timing_tvla(&cfg).matrix("Time (during throttling)");
    println!("{}", matrix.render());
    println!(
        "no data dependence: {} (the governor follows the PHPS estimator,\n\
         which is computed from utilization — not from the sensed, data-\n\
         dependent power)",
        matrix.shows_no_leakage()
    );
    Ok(())
}
