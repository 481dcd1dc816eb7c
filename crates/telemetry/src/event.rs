//! The record types of one observation row.
//!
//! Every window of the attacker's measurement loop (§3.4) yields the
//! submitted plaintext / returned ciphertext ([`WindowEvent`]), one
//! scalar reading per polled channel, and scheduler metadata
//! ([`SchedEvent`]: how many SoC windows the SMC consumed before
//! publishing — >1 under the interval-stretching mitigation). An
//! [`EventBlock`](crate::block::EventBlock) stores these as one row per
//! observation, the readings as one `Option<f64>` column per channel.

use psc_sca::tvla::PlaintextClass;
use psc_smc::SmcKey;

/// Identifies one telemetry channel (one time series).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ChannelId {
    /// An SMC key read through the unprivileged IOKit client.
    Smc(SmcKey),
    /// The IOReport `PCPU` energy delta (mJ per window).
    Pcpu,
    /// Wall-clock timing of the observation window (seconds).
    Timing,
}

impl core::fmt::Display for ChannelId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ChannelId::Smc(key) => write!(f, "{key}"),
            ChannelId::Pcpu => f.write_str("PCPU"),
            ChannelId::Timing => f.write_str("TIME"),
        }
    }
}

/// Start-of-window marker carrying the attacker's known-plaintext record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowEvent {
    /// Monotone per-shard window sequence number.
    pub seq: u64,
    /// Simulated time at the end of the window, seconds.
    pub time_s: f64,
    /// TVLA pass (0 = unprimed first collection, 1 = primed second);
    /// always 0 for known-plaintext CPA collection.
    pub pass: u8,
    /// TVLA plaintext class; `None` for known-plaintext CPA windows.
    pub class: Option<PlaintextClass>,
    /// Plaintext the attacker submitted.
    pub plaintext: [u8; 16],
    /// Ciphertext the victim returned.
    pub ciphertext: [u8; 16],
}

/// Scheduler/cadence metadata for one observation window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedEvent {
    /// Simulated time at the end of the observation, seconds.
    pub time_s: f64,
    /// SoC windows consumed before the SMC published (>1 under the
    /// interval-stretching mitigation).
    pub windows_consumed: u32,
    /// Nominal window length, seconds.
    pub window_s: f64,
    /// SMC key reads denied by access control during this window.
    pub denied_reads: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_smc::key::key;

    #[test]
    fn channel_ids_order_and_display() {
        let a = ChannelId::Smc(key("PHPC"));
        let b = ChannelId::Smc(key("PSTR"));
        assert!(a < b, "SMC keys order lexically");
        assert_eq!(a.to_string(), "PHPC");
        assert_eq!(ChannelId::Pcpu.to_string(), "PCPU");
        assert_eq!(ChannelId::Timing.to_string(), "TIME");
    }
}
