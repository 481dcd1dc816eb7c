//! End-to-end campaign benchmark for the M1/M2 power side-channel
//! reproduction.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload tvla-live --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Three workloads drive the public APIs the way a user of the attack
//! does (see `e2ebench/README.md` for why each exists and which layer
//! metric should move which end-to-end metric):
//!
//! * `tvla-live` — streaming TVLA on the live M2 simulator, 1 shard;
//! * `cpa-replay` — known-plaintext CPA over a recorded `.psct` campaign;
//! * `serve-jobs` — a closed loop of 2 clients against an in-process
//!   `psc serve` server running small TVLA and CPA jobs.
//!
//! The two campaign workloads run on one CPU, so their figures are the
//! work a job costs rather than how a shared host schedules its threads.
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run;
//! `--trace 1` adds traced phases and prints the per-layer metrics.
//! The last stdout line is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod cpa_replay;
mod measure;
mod serve_jobs;
mod traced;
mod tvla_live;

use measure::{Gate, LoopStats, Metric};
use std::path::PathBuf;
use std::time::Instant;

/// Set-up repetitions per run of `serve-jobs`;
/// `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Workloads whose process runs on one CPU (see
/// [`measure::pin_to_one_cpu`]): their jobs are CPU-bound campaigns of
/// several threads. `serve-jobs` keeps every CPU; its jobs wait mostly on
/// the server's progress sleep, and its two clients and two workers are
/// meant to run side by side.
const PINNED: [&str; 2] = ["tvla-live", "cpa-replay"];

/// Job sizes of the campaign workloads, in twentieths of their base size
/// ([`Size::tvla_traces`], [`Size::cpa_traces`]); job `i` takes the
/// `i % 9`-th. On one core of a shared host a job runs either at full speed
/// or ~1.5× slower, depending on a neighbour; with one job size the
/// latencies form two spikes and the median jumps from one to the other
/// as their shares change run to run. A spread of sizes makes every
/// latency quantile move in proportion instead.
const MIX: [usize; 9] = [12, 14, 16, 18, 20, 22, 24, 26, 28];

/// The job sizes for base size `base`, in job order (see [`MIX`]).
pub fn mix(base: usize) -> Vec<usize> {
    MIX.iter().map(|m| base * m / 20).collect()
}

/// End-to-end metrics printed by every untraced run, with their units.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("traces_per_s", "1/s"),
    ("cpu_us_per_trace", "us"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_s", "1/s"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_p90_ms", "ms"),
];

/// Per-layer metrics printed by every traced run, with their units. A
/// layer a workload does not execute reads 0 on that workload.
const PER_LAYER: [(&str, &str); 32] = [
    ("victim.encrypt_ns_per_obs", "ns"),
    ("smc.until_publish_ns_per_obs", "ns"),
    ("soc.run_windows_ns_per_obs", "ns"),
    ("soc.windows_per_obs", "count"),
    ("ioreport.observe_ns_per_obs", "ns"),
    ("smc.publish_ns_per_obs", "ns"),
    ("smc.iokit.read_ns_per_obs", "ns"),
    ("smc.iokit.reads_per_obs", "count"),
    ("core.rig.observe_ns_per_obs", "ns"),
    ("telemetry.block.fill_ns_per_obs", "ns"),
    ("core.source.fill_ns_per_obs", "ns"),
    ("telemetry.consume.ns_per_obs", "ns"),
    ("telemetry.bus.blocks_per_trace", "count"),
    ("telemetry.bus.recycle_hit_ratio", "ratio"),
    ("telemetry.bus.high_water_blocks", "count"),
    ("sca.tvla.finish_ms", "ms"),
    ("sca.codec.read_ns_per_trace", "ns"),
    ("sca.codec.bytes_per_trace", "B"),
    ("telemetry.replay.fill_ns_per_trace", "ns"),
    ("sca.cpa.ingest_ns_per_trace", "ns"),
    ("sca.cpa.correlate_ms", "ms"),
    ("sca.codec.write_ns_per_trace", "ns"),
    ("serve.accept_ms", "ms"),
    ("serve.report_wait_ms", "ms"),
    ("serve.job_run_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.progress_frames_per_job", "count"),
    ("serve.jobs_rejected", "count"),
    ("serve.jobs_failed", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.sim_layer_sum_ratio", "ratio"),
    ("trace.fill_consume_coverage", "ratio"),
];

/// Job sizes. `FULL` is what the benchmark measures; `TINY` keeps the
/// self-test fast while still passing every correctness gate.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// TVLA traces per class of the middle `tvla-live` job size.
    pub tvla_traces: usize,
    /// Known-plaintext traces of the middle `cpa-replay` recording.
    pub cpa_traces: usize,
    /// TVLA traces per class of a served TVLA job.
    pub serve_tvla_traces: usize,
    /// Traces of a served CPA job.
    pub serve_cpa_traces: usize,
    /// Jobs a timed loop completes at least, so p90 has ten samples
    /// beyond it.
    pub min_jobs: u64,
}

impl Size {
    const FULL: Size = Size {
        tvla_traces: 2_000,
        cpa_traces: 60_000,
        serve_tvla_traces: 500,
        serve_cpa_traces: 3_000,
        min_jobs: 100,
    };
    #[cfg(test)]
    const TINY: Size = Size {
        tvla_traces: 200,
        cpa_traces: 60_000,
        serve_tvla_traces: 50,
        serve_cpa_traces: 300,
        min_jobs: 2,
    };
}

/// Everything a workload needs to run once.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The benchmark's workload seed.
    pub seed: u64,
    /// Master simulation seed derived from `seed`.
    pub campaign_seed: u64,
    /// Victim AES-128 key derived from `seed`.
    pub key: [u8; 16],
    /// Timed-phase length in seconds.
    pub seconds: f64,
    /// Run the traced phases and report per-layer metrics.
    pub trace: bool,
    /// Scratch directory for recordings (removed after the run).
    pub work: PathBuf,
    /// Job sizes.
    pub size: Size,
}

impl RunConfig {
    fn new(seed: u64, seconds: f64, trace: bool, work: PathBuf, size: Size) -> Self {
        let mut state = seed ^ 0x5053_435f_4245_4e43;
        let campaign_seed = measure::splitmix64(&mut state);
        // Each key byte is the OR of two random bytes, so about three
        // quarters of the key bits are set (the reference key has 87 of
        // 128). A key near 64 set bits gives the all-0s and all-1s TVLA
        // classes the same first-round Hamming weight, hiding the
        // fixed-vs-fixed contrast Table 3 shows; CPA is unaffected.
        let mut key = [0u8; 16];
        for chunk in key.chunks_mut(8) {
            let bits = measure::splitmix64(&mut state) | measure::splitmix64(&mut state);
            chunk.copy_from_slice(&bits.to_le_bytes());
        }
        Self { seed, campaign_seed, key, seconds, trace, work, size }
    }

    /// The timed-phase budget: a traced run splits `seconds` between its
    /// untraced and traced loops.
    fn loop_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness checks and their failures.
    pub gate: Gate,
    /// Set-up durations, seconds, one per repetition.
    pub setups_s: Vec<f64>,
    /// The untraced timed loop.
    pub stats: LoopStats,
    /// Per-layer values by name (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
}

fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let s = &out.stats;
    let values = [
        measure::median(&out.setups_s),
        s.traces as f64 / s.wall_s,
        s.cpu_s * 1e6 / s.traces as f64,
        measure::peak_rss_mb(),
        s.jobs as f64 / s.wall_s,
        measure::quantile(&s.latencies_ms, 0.5),
        measure::quantile(&s.latencies_ms, 0.9),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect()
}

fn per_layer(out: &Outcome) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = out.layers.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v);
            Metric { name, unit, value }
        })
        .collect()
}

fn run_workload(name: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.work).map_err(|e| format!("work dir: {e}"))?;
    let out = match name {
        "tvla-live" => tvla_live::run(cfg),
        "cpa-replay" => cpa_replay::run(cfg),
        "serve-jobs" => serve_jobs::run(cfg),
        other => Err(format!("unknown workload {other:?} (tvla-live|cpa-replay|serve-jobs)")),
    };
    let _ = std::fs::remove_dir_all(&cfg.work);
    if let Some(parent) = cfg.work.parent() {
        // Succeeds only once no other run is using the directory.
        let _ = std::fs::remove_dir(parent);
    }
    out
}

/// Run one workload and render its result: the environment line `env`,
/// the sample and gate lines, then the JSON result line.
fn report(name: &str, cfg: &RunConfig, env: &str) -> Result<String, String> {
    let started = Instant::now();
    let out = run_workload(name, cfg)?;
    let metrics = if cfg.trace { per_layer(&out) } else { end_to_end(&out) };
    let mut text = format!("# env: {env}\n");
    text.push_str(&format!(
        "# samples: jobs={} setup_reps={} loop_s={:.3} run_s={:.3}\n",
        out.stats.jobs,
        out.setups_s.len(),
        out.stats.wall_s,
        started.elapsed().as_secs_f64()
    ));
    for failure in &out.gate.failures {
        text.push_str(&format!("# gate failed: {failure}\n"));
    }
    text.push_str(&format!(
        "# gate: {} ({} checks)\n",
        if out.gate.failures.is_empty() { "pass" } else { "FAIL" },
        out.gate.checks
    ));
    let attempted = out.stats.jobs + out.gate.checks;
    let failed = out.stats.failed + out.gate.failures.len() as u64;
    text.push_str(&measure::result_json(out.gate.failures.is_empty(), attempted, failed, &metrics));
    text.push('\n');
    Ok(text)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_owned(),
        seed: get("--seed")?.parse().map_err(|e| format!("bad --seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "e2ebench: {e}\nusage: e2ebench --workload tvla-live|cpa-replay|serve-jobs \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let mut env = measure::environment(&args.workload, args.seed);
    if PINNED.contains(&args.workload.as_str()) {
        // Before any thread starts, so every campaign thread inherits it.
        let pinned = measure::pin_to_one_cpu();
        env += &pinned.map_or_else(|| " pinned=no".to_owned(), |cpu| format!(" pinned=cpu{cpu}"));
    }
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let cfg = RunConfig::new(args.seed, args.seconds, args.trace, work, Size::FULL);
    match report(&args.workload, &cfg, &env) {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at a tiny size, untraced and traced: every metric
    /// name prints with its unit and the correctness gate passes.
    #[test]
    fn self_test_every_workload_prints_every_metric() {
        for workload in ["tvla-live", "cpa-replay", "serve-jobs"] {
            for trace in [false, true] {
                let work = PathBuf::from(".bench_work")
                    .join(format!("selftest-{workload}-{trace}-{}", std::process::id()));
                let cfg = RunConfig::new(7, 0.2, trace, work, Size::TINY);
                let env = measure::environment(workload, 7);
                let text = report(workload, &cfg, &env).expect("workload runs");
                let last = text.lines().last().expect("result line");
                assert!(last.starts_with("{\"correct\": true,"), "{workload}: {text}");
                let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
                for (name, unit) in names {
                    let needle = format!("\"{name}\": {{\"value\": ");
                    let at = last.find(&needle).expect("every metric prints by name");
                    let entry = &last[at..at + last[at..].find('}').expect("closed entry")];
                    assert!(entry.ends_with(&format!("\"unit\": \"{unit}\"")), "{entry}");
                }
                assert!(last.contains("\"failed\": 0,"), "{workload}: {text}");
            }
        }
    }
}
