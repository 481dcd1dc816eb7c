//! `tvla-live`: streaming TVLA on the live M2 simulator — user-space
//! victim, all five Table 2 keys, no mitigation, 1 shard. One job is one
//! campaign plus its rendered report, its size cycling through
//! [`crate::mix`]; the simulator does nearly all the work.

use crate::measure::{self, closed_loop, Job};
use crate::traced::{account, overhead_pct, Pipeline, TracedLive};
use crate::{Outcome, RunConfig};
use apple_power_sca::core::report::render_tvla_body;
use apple_power_sca::core::{Campaign, Device, StreamingTvlaReport, VictimKind};
use apple_power_sca::sca::tvla::{PlaintextClass, TvlaMatrix};
use apple_power_sca::smc::key::key;
use std::time::Instant;

const DEVICE: Device = Device::MacbookAirM2;
const KIND: VictimKind = VictimKind::UserSpace;
const SHARDS: usize = 1;
/// Warm-up campaigns in set-up, two of each job size. One 30–130 ms
/// campaign varies run to run on a shared host, so `setup_s` takes the
/// median of many.
const WARM_UPS: usize = 18;
/// The TVLA leakage threshold.
const T_THRESHOLD: f64 = 4.5;

/// |t| of the two fixed-vs-fixed cells (All 0s' vs All 1s, All 1s' vs
/// All 0s).
fn fixed_vs_fixed(m: &TvlaMatrix) -> [f64; 2] {
    use PlaintextClass::{AllOnes, AllZeros};
    [m.cell(AllZeros, AllOnes).t_score.abs(), m.cell(AllOnes, AllZeros).t_score.abs()]
}

/// The Table 3 shape: PHPC separates the fixed classes, PHPS does not.
fn table3_shape(report: &StreamingTvlaReport) -> Result<(), String> {
    let phpc = report.matrix(key("PHPC")).ok_or("no PHPC matrix")?;
    let phps = report.matrix(key("PHPS")).ok_or("no PHPS matrix")?;
    let (c, s) = (fixed_vs_fixed(&phpc), fixed_vs_fixed(&phps));
    if c.iter().all(|t| *t > T_THRESHOLD) && s.iter().all(|t| *t < T_THRESHOLD) {
        Ok(())
    } else {
        Err(format!("Table 3 shape: PHPC fixed-vs-fixed |t| {c:?}, PHPS {s:?}"))
    }
}

fn healthy(report: &StreamingTvlaReport) -> bool {
    report.bus.dropped == 0 && report.health.iter().all(|h| h.is_ok())
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let keys = DEVICE.table2_keys();
    let sizes = crate::mix(cfg.size.tvla_traces);
    let job = |traces: usize| {
        let report = Campaign::live(DEVICE, KIND, cfg.key, cfg.campaign_seed)
            .keys(&keys)
            .traces(traces)
            .shards(SHARDS)
            .session()
            .tvla();
        let body = render_tvla_body(&report);
        (report, body)
    };

    let mut out = Outcome::default();
    // Set-up: warm-up campaigns (caches, allocator, lazy tables); the
    // first of each size also provides the reference body every later
    // run of that size must match.
    let mut references: Vec<Option<String>> = vec![None; sizes.len()];
    for rep in 0..WARM_UPS {
        let k = rep % sizes.len();
        let t0 = Instant::now();
        let (report, body) = job(sizes[k]);
        out.setups_s.push(t0.elapsed().as_secs_f64());
        let reference = references[k].get_or_insert_with(|| body.clone());
        out.gate.check(*reference == body, || "warm-up campaigns differ run to run".into());
        out.gate.check(healthy(&report), || "warm-up campaign lost blocks or shards".into());
        if rep == k {
            let shape = table3_shape(&report);
            out.gate.check(shape.is_ok(), || shape.unwrap_err());
        }
    }
    let references: Vec<String> =
        references.into_iter().map(|r| r.expect("a set-up run of every size")).collect();

    out.stats = closed_loop(1, cfg.loop_seconds(), cfg.size.min_jobs, |_, i| {
        let k = i as usize % sizes.len();
        let (report, body) = job(sizes[k]);
        Job { traces: 6 * sizes[k] as u64, ok: healthy(&report) && body == references[k] }
    });

    if cfg.trace {
        traced(cfg, &keys, &sizes, &references, &mut out);
    }
    Ok(out)
}

/// The traced loop: the same campaigns over the benchmark's traced
/// source with pipeline metrics on, then the identical-rig sum check.
fn traced(
    cfg: &RunConfig,
    keys: &[apple_power_sca::smc::SmcKey],
    sizes: &[usize],
    references: &[String],
    out: &mut Outcome,
) {
    let source = TracedLive::new(DEVICE, KIND, cfg.key, cfg.campaign_seed);
    // Pipeline totals, finish times, campaign latencies, identical bodies.
    let state = std::sync::Mutex::new((Pipeline::default(), Vec::new(), Vec::new(), true));
    let stats = closed_loop(1, cfg.loop_seconds(), cfg.size.min_jobs, |_, i| {
        let k = i as usize % sizes.len();
        let (reference, obs_per_job) = (&references[k], 6 * sizes[k] as u64);
        let t0 = Instant::now();
        let report = Campaign::from_source(source.clone())
            .keys(keys)
            .traces(sizes[k])
            .shards(SHARDS)
            .metrics()
            .session()
            .tvla();
        let body = render_tvla_body(&report);
        let t1 = Instant::now();
        for &k in keys {
            std::hint::black_box(report.matrix(k));
        }
        let finish_ms = t1.elapsed().as_secs_f64() * 1e3;
        let mut s = state.lock().expect("traced state lock");
        if let Some(m) = &report.metrics {
            s.0.add(m, obs_per_job);
        }
        s.1.push(finish_ms);
        s.2.push(t1.duration_since(t0).as_secs_f64() * 1e3);
        s.3 &= body == *reference;
        Job { traces: obs_per_job, ok: healthy(&report) && body == *reference }
    });
    let (pipeline, finish_ms, traced_ms, identical) =
        state.into_inner().expect("traced state lock");
    out.gate.check(identical, || "traced report differs from the untraced report".into());
    out.gate.check(stats.failed == 0, || format!("{} traced job(s) failed", stats.failed));

    let accounting = account(&mut out.gate, &source.layers(), source.paired_check(keys), &pipeline);
    out.layers.extend(accounting);
    out.layers.extend([
        ("sca.tvla.finish_ms", measure::median(&finish_ms)),
        ("trace.overhead_pct", overhead_pct(&out.stats.latencies_ms, &traced_ms)),
    ]);
}
