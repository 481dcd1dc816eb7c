//! Shared by the integration tests: a campaign's raw traces, read back
//! from the `.psct` recording the campaign itself wrote, and the
//! per-row scalar [`oracle`] the streaming processors are checked
//! against.

#![allow(dead_code)]

pub mod oracle;

use apple_power_sca::core::{Campaign, ShardReplay, StreamingCpaReport, StreamingTvlaReport};
use apple_power_sca::sca::model::Rd0Hw;
use apple_power_sca::sca::trace::TraceSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A finished campaign's recording (its directory is removed on drop).
pub struct Recorded {
    dir: PathBuf,
    replay: ShardReplay,
}

impl Recorded {
    fn record<R>(campaign: Campaign, run: impl FnOnce(Campaign) -> R) -> (Self, R) {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "psc_it_{}_{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        let report = run(campaign.record_to(&dir));
        let replay = ShardReplay::from_dir(&dir).expect("campaign recorded");
        (Self { dir, replay }, report)
    }

    /// Run `campaign` as a known-plaintext CPA session (Rd0-HW) while
    /// recording every channel.
    pub fn cpa(campaign: Campaign) -> (Self, StreamingCpaReport) {
        Self::record(campaign, |c| c.session().cpa(|| Box::new(Rd0Hw)))
    }

    /// Run `campaign` as a TVLA session while recording every channel.
    pub fn tvla(campaign: Campaign) -> (Self, StreamingTvlaReport) {
        Self::record(campaign, |c| c.session().tvla())
    }

    /// One channel's traces in the campaign's order (shards in order).
    pub fn traces(&self, label: &str) -> TraceSet {
        self.replay.read_channel(label).expect("recording readable").into_trace_set()
    }

    /// One channel's TVLA datasets: `(first, second)` pass values per
    /// plaintext class, indexed like `PlaintextClass::ALL`.
    pub fn datasets(&self, label: &str) -> ([Vec<f64>; 3], [Vec<f64>; 3]) {
        let mut sets: [[Vec<f64>; 3]; 2] = Default::default();
        for t in self.replay.read_channel(label).expect("recording readable").traces {
            let class = t.class.expect("TVLA recordings carry their class");
            sets[usize::from(t.pass)][class.index()].push(t.trace.value);
        }
        let [first, second] = sets;
        (first, second)
    }
}

impl Drop for Recorded {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}
