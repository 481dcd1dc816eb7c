//! `psc` — the unified command-line front end.
//!
//! Subcommands map onto the paper's workflow:
//!
//! ```text
//! psc repro [--only <target>]      # every paper table/figure → REPORT.md
//! psc campaign [--cpa|--adaptive] [--fleet] [--record DIR] [--key HEX32]
//!              [--checkpoint DIR [--checkpoint-every N]]
//!                                  # the Campaign-builder drivers
//! psc resume DIR                   # resume a checkpointed campaign
//! psc replay DIR [--cpa] [--key HEX32] [--detrend W]
//!                                  # offline analysis of recorded shards
//! psc tune [--out FILE]            # calibrate SIMD/chunk constants
//! psc serve [--workers N]          # multi-tenant campaign daemon
//! psc submit FILE [--wait]         # send a campaign.cfg to the daemon
//! psc worker | aggregate           # one process per fleet member
//! psc jobs | cancel ID | drain     # inspect / steer the daemon
//! ```
//!
//! The offline attack is record-then-replay: `psc campaign --cpa
//! --record DIR` keeps every channel's traces, and `psc replay DIR --cpa`
//! streams them back through the same analysis in flat memory.

use apple_power_sca::core::experiments::{banner, TARGETS};
use apple_power_sca::core::spec::{
    parse_key_hex, parse_monitor_interval, parse_shards, parse_traces,
};
use apple_power_sca::core::{report, tune};
use apple_power_sca::core::{
    AnalysisMode, Campaign, CampaignSpec, Device, ExperimentConfig, MitigationSetting, ShardReplay,
    TuneConfig,
};
use apple_power_sca::serve::fleet::{run_worker, Aggregator, AggregatorConfig, WorkerConfig};
use apple_power_sca::serve::server::names as serve_names;
use apple_power_sca::serve::{
    AdmissionConfig, Client, Response, Server, ServerConfig, DEFAULT_ADDR,
};
use apple_power_sca::telemetry::faults::RetryPolicy;
use apple_power_sca::telemetry::json::{validate_json, JsonWriter, Layout};
use apple_power_sca::telemetry::metrics::MetricsReport;
use apple_power_sca::telemetry::spans::SpanTracer;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "\
psc — software power side-channel reproduction toolkit

USAGE:
    psc <command> [options]

COMMANDS:
    repro [--only <target>]   Regenerate the paper's tables and figures
                              (Tables 1-6, Fig 1(a)/(b), the Section 4
                              throttling study, the Section 5
                              countermeasures and the success-rate
                              extension), print them and write REPORT.md
                              plus fig1a.csv/fig1b.csv to the working
                              directory; --only runs one target
                              (table1..table6, fig1a, fig1b, throttling,
                              countermeasures, success_rate).
    campaign [--cpa|--adaptive] [--traces N] [--shards N] [--device m1|m2]
             [--fleet] [--record DIR] [--kernel] [--key HEX32]
             [--mitigation none|restrict|noise[=SIGMA]|slow[=MULT]]
             [--metrics FILE] [--trace FILE] [--progress [SECS]]
             [--monitor SECS] [--tune FILE]
             [--checkpoint DIR [--checkpoint-every N] [--halt-after K]]
                              The Campaign-builder drivers (O(1)-memory
                              online TVLA / CPA; --adaptive stops at the
                              TVLA threshold crossing; --fleet fans shards
                              across the M2+M1 device fleet; --record
                              persists labeled .psct shards for replay;
                              --key sets the victim's AES key;
                              --mitigation noise takes SIGMA in 0..=100 W
                              (default 0.05), slow takes MULT in 1..=1000
                              (default 3);
                              --metrics writes the pipeline MetricsReport
                              as JSON, --trace writes campaign spans as
                              Chrome trace-event JSON for Perfetto,
                              --progress prints a periodic stderr line
                              (every SECS >= 0.01 s, default 1),
                              --monitor sets the cadence poll interval
                              (SECS >= 0.01 simulated s);
                              --checkpoint snapshots every shard to DIR
                              every N consumed blocks (default 8) and
                              records the spec so `psc resume DIR` can
                              finish the campaign bit-identically;
                              --halt-after stops the run after K
                              checkpoints, a deterministic interrupt).
    resume DIR                Resume an interrupted `campaign --checkpoint
                              DIR` run from its frames: accumulators
                              restore, sources fast-forward, and the
                              completed report matches an uninterrupted
                              run. Extra flags pass through (e.g.
                              --halt-after to re-interrupt).
    replay DIR [--cpa] [--key HEX32] [--detrend W]
                              Replay recorded .psct shards (from
                              `campaign --record DIR`) through the
                              streaming TVLA (default) or CPA analysis,
                              in memory independent of the recording's
                              size. --key: the recording's true key;
                              --detrend: subtract each channel's centered
                              moving average over W >= 2 traces, shard by
                              shard, to strip slow drift (PSTR).
    tune [--out FILE]         Calibrate the SIMD/chunk-size constants on
                              this machine (CPA unroll width, block rows,
                              replay chunk, bus depth) and print the
                              winning config as JSON; --out saves it for
                              `psc campaign --tune FILE`. PSC_TUNE_REPS
                              (1-9, default 3) trades time for stability.
    serve [--addr HOST:PORT] [--workers N] [--max-queue N]
          [--tenant-cap N] [--spool DIR]
                              Run the multi-tenant campaign daemon on
                              loopback TCP (default 127.0.0.1:7145):
                              campaign.cfg specs submitted over the
                              framed wire protocol run concurrently over
                              N workers (default 2); admission sheds
                              load with a typed `saturated` rejection
                              when the queue, drop rate or dispatch p99
                              crosses its threshold; jobs checkpoint to
                              the spool (default under the temp dir) so
                              drained jobs finish via `psc resume`.
                              Blocks until a client sends `psc drain`.
    submit FILE [--wait] [--tenant NAME] [--addr HOST:PORT]
                              Send a campaign.cfg (as written by
                              --checkpoint, or hand-rolled) to the
                              daemon. --wait streams progress and prints
                              the final report — byte-identical to
                              running the same spec inline with
                              `psc campaign`.
    worker --connect HOST:PORT --spec FILE --member I [--workdir DIR]
           [--heartbeat-ms N] [--drop-frames N] [--frame-delay-us N]
           [--disconnects N] [--corrupt-frames N]
                              Run one fleet member's shard of a
                              distributed campaign: execute the shard,
                              stream partial checkpoint frames and
                              heartbeats to the aggregator, reconnect
                              under the jittered retry policy, and
                              deliver the final member state. The fault
                              flags arm deterministic transport-fault
                              budgets on the send path for testing.
    aggregate --listen HOST:PORT --spec FILE [--heartbeat-timeout-ms N]
              [--join-timeout-ms N] [--straggler-timeout-ms N]
              [--stats FILE]
                              Collect the fleet's workers: dedup their
                              partials by (epoch, seq), demote members
                              that miss their deadlines to Failed, and
                              print the merged report — byte-identical
                              to the in-process `psc campaign --fleet`
                              run when every member survives cleanly.
                              --stats writes transport/merge counters
                              as JSON.
    jobs [--addr HOST:PORT]   List the daemon's jobs and service metrics.
    cancel ID [--addr HOST:PORT]
                              Cancel a queued (immediate) or running
                              (cooperative, next block boundary) job.
    drain [--addr HOST:PORT]  Reject queued jobs, stop running ones at
                              the next block boundary, and shut the
                              daemon down once everything settles.

Campaign tuning: `--tune FILE` loads a saved `psc tune` config; the
tuned constants change throughput only — reports stay bit-identical.
The active SIMD backend and tuned sizes appear in the --metrics report
(PSC_SIMD=off pins the scalar backend).

Scaling env vars: PSC_TRACES, PSC_TVLA_TRACES, PSC_SHARDS, PSC_SEED.";

fn parse_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn parse_opt(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

/// `--traces N`, refusing a malformed count instead of falling back.
fn traces_opt(args: &[String], default: usize) -> Result<usize, String> {
    parse_opt(args, "--traces")
        .map(|s| parse_traces(&s).map_err(|e| format!("bad --traces value {s:?}: {e}")))
        .transpose()
        .map(|n| n.unwrap_or(default))
}

/// `--key HEX32`, the victim's (or the recording's true) AES key.
fn key_opt(args: &[String], default: [u8; 16]) -> Result<[u8; 16], String> {
    parse_opt(args, "--key")
        .map(|hex| parse_key_hex(&hex).map_err(|e| format!("bad --key value {hex:?}: {e}")))
        .transpose()
        .map(|k| k.unwrap_or(default))
}

/// `psc repro [--only <target>]`: run every reproduction target (or the
/// one named) in report order, echo each section to stdout and write the
/// consolidated `REPORT.md` to the working directory.
fn cmd_repro(cfg: &ExperimentConfig, args: &[String]) -> Result<(), String> {
    let names = || TARGETS.map(|(name, ..)| name).join(", ");
    let only = match args {
        [] => None,
        [flag, name] if flag == "--only" => match TARGETS.iter().find(|(n, ..)| n == name) {
            Some(target) => Some(target.0),
            None => return Err(format!("unknown target {name:?}; valid targets: {}", names())),
        },
        _ => return Err(format!("usage: psc repro [--only <target>]\ntargets: {}", names())),
    };
    let started = Instant::now();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "# apple-power-sca — consolidated reproduction report\n\n\
         Configuration: seed {}, CPA traces {} (M2) / {} (M1), TVLA {} per\n\
         class per pass, {} shards.\n",
        cfg.seed, cfg.cpa_traces_m2, cfg.cpa_traces_m1, cfg.tvla_traces_per_class, cfg.shards
    );
    for (name, title, run) in TARGETS {
        if only.is_some_and(|o| o != name) {
            continue;
        }
        let body = run(cfg);
        println!("{}", banner(title));
        println!("{body}");
        let _ = writeln!(report, "## {title}\n\n```text\n{body}\n```\n");
    }
    let elapsed = started.elapsed().as_secs_f64();
    let _ = writeln!(report, "---\nTotal wall-clock: {elapsed:.1} s");
    std::fs::write("REPORT.md", &report).map_err(|e| format!("could not write REPORT.md: {e}"))?;
    println!("\nwrote REPORT.md ({elapsed:.1} s total)");
    Ok(())
}

fn parse_device(args: &[String]) -> Result<Device, String> {
    match parse_opt(args, "--device").as_deref() {
        None | Some("m2") => Ok(Device::MacbookAirM2),
        Some("m1") => Ok(Device::MacMiniM1),
        Some(other) => Err(format!("unknown device {other:?} (expected m1 or m2)")),
    }
}

/// Resolve the campaign's [`TuneConfig`]: defaults, then a saved
/// `--tune FILE` config, then individual `--obs-chunk`-style overrides.
fn parse_tune(args: &[String]) -> Result<TuneConfig, String> {
    let mut tuned = match parse_opt(args, "--tune") {
        Some(path) => TuneConfig::load(&path).map_err(|e| format!("{path}: {e}"))?,
        None => TuneConfig::default(),
    };
    for (flag, field) in [
        ("--cpa-unroll", &mut tuned.cpa_unroll as &mut usize),
        ("--obs-chunk", &mut tuned.obs_chunk),
        ("--replay-chunk", &mut tuned.replay_chunk),
        ("--bus-capacity", &mut tuned.bus_capacity),
    ] {
        if let Some(v) = parse_opt(args, flag) {
            *field = v.parse().map_err(|e| format!("bad {flag} value {v:?}: {e}"))?;
        }
    }
    tuned.validate()?;
    Ok(tuned)
}

/// `psc tune [--out FILE]`: calibrate the SIMD/chunk-size constants on
/// this machine and print (optionally save) the winning config.
fn cmd_tune(args: &[String]) -> Result<(), String> {
    let reps = std::env::var("PSC_TUNE_REPS").unwrap_or_else(|_| "3".into());
    eprintln!("[psc] calibrating (backend {}, {reps} rep(s) per candidate) ...", tune::backend());
    let tuned = tune::calibrate();
    println!("{}", tuned.to_json());
    if let Some(path) = parse_opt(args, "--out") {
        tuned.save(&path).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("[psc] wrote tuned config to {path} (use: psc campaign --tune {path})");
    }
    Ok(())
}

/// Write the metrics report / span trace the user asked for with
/// `--metrics FILE` / `--trace FILE`.
fn emit_observability(
    metrics: Option<&MetricsReport>,
    metrics_out: Option<&str>,
    tracer: Option<&SpanTracer>,
    trace_out: Option<&str>,
) -> Result<(), String> {
    if let (Some(m), Some(path)) = (metrics, metrics_out) {
        let json = m.to_json();
        validate_json(&json).map_err(|e| format!("{path}: emitted invalid JSON: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote metrics report to {path}");
    }
    if let (Some(t), Some(path)) = (tracer, trace_out) {
        let json = t.to_chrome_json();
        validate_json(&json).map_err(|e| format!("{path}: emitted invalid JSON: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote Chrome trace to {path} (load in Perfetto / chrome://tracing)");
    }
    Ok(())
}

/// Build the serializable campaign spec from `psc campaign` flags — the
/// same [`CampaignSpec`] the checkpoint cfg, `psc resume` and the serve
/// protocol use, so every front end agrees on what a campaign is.
fn spec_from_args(cfg: &ExperimentConfig, args: &[String]) -> Result<CampaignSpec, String> {
    let device = parse_device(args)?;
    let mode = if parse_flag(args, "--cpa") {
        AnalysisMode::Cpa
    } else if parse_flag(args, "--adaptive") {
        AnalysisMode::Adaptive
    } else {
        AnalysisMode::Tvla
    };
    let mut spec = CampaignSpec::new(mode, device, cfg);
    spec.kernel = parse_flag(args, "--kernel");
    spec.fleet = parse_flag(args, "--fleet");
    spec.traces = traces_opt(args, CampaignSpec::default_traces(mode, device, cfg))?;
    if let Some(s) = parse_opt(args, "--shards") {
        spec.shards = parse_shards(&s).map_err(|e| format!("bad --shards value {s:?}: {e}"))?;
    }
    spec.tune = parse_tune(args)?;
    spec.mitigation = parse_opt(args, "--mitigation")
        .map(|s| {
            MitigationSetting::parse(&s).map_err(|e| format!("bad --mitigation value {s:?}: {e}"))
        })
        .transpose()?;
    spec.record = parse_opt(args, "--record");
    spec.key = key_opt(args, spec.key)?;
    spec.monitor = parse_opt(args, "--monitor")
        .map(|s| parse_monitor_interval(&s).map_err(|e| format!("bad --monitor value {s:?}: {e}")))
        .transpose()?;
    if let Some(every) = parse_opt(args, "--checkpoint-every") {
        spec.every = every
            .parse::<u64>()
            .map_err(|e| format!("bad --checkpoint-every value {every:?}: {e}"))?;
        if spec.every == 0 {
            return Err("--checkpoint-every must be positive".into());
        }
    }
    Ok(spec)
}

/// The runtime-only options of `psc campaign` and `psc resume`: they
/// shape how a run is observed and interrupted, not what it computes.
struct RunOpts {
    metrics_out: Option<String>,
    trace_out: Option<String>,
    progress_s: Option<f64>,
    halt_after: Option<u64>,
}

impl RunOpts {
    /// Parse and check the options before the run prints anything.
    fn parse(args: &[String]) -> Result<Self, String> {
        // `--progress` alone defaults to one line per second; a value
        // that follows it overrides the interval.
        let progress_s = parse_flag(args, "--progress")
            .then(|| match parse_opt(args, "--progress").filter(|s| !s.starts_with("--")) {
                None => Ok(1.0),
                Some(s) => parse_monitor_interval(&s)
                    .map_err(|e| format!("bad --progress value {s:?}: {e}")),
            })
            .transpose()?;
        let halt_after = parse_opt(args, "--halt-after")
            .map(|s| match s.parse::<u64>() {
                Ok(0) => Err("--halt-after must be positive".to_owned()),
                Ok(n) => Ok(n),
                Err(e) => Err(format!("bad --halt-after value {s:?}: {e}")),
            })
            .transpose()?;
        Ok(Self {
            metrics_out: parse_opt(args, "--metrics"),
            trace_out: parse_opt(args, "--trace"),
            progress_s,
            halt_after,
        })
    }
}

/// Run a campaign spec with its runtime-only options, printing the
/// banner, the deterministic report body, and — separately, because it
/// carries wall-clock rates — the metrics summary line.
fn run_campaign(
    spec: &CampaignSpec,
    opts: RunOpts,
    ckpt_dir: Option<&str>,
    resume_dir: Option<&str>,
) -> Result<(), String> {
    let RunOpts { metrics_out, trace_out, progress_s, halt_after } = opts;
    let tracer = trace_out.is_some().then(|| Arc::new(SpanTracer::new()));

    print!("{}", report::campaign_banner(spec));
    let mut campaign = Campaign::from_spec(spec);
    if metrics_out.is_some() {
        campaign = campaign.metrics();
    }
    if let Some(interval_s) = progress_s {
        campaign = campaign.progress(interval_s);
    }
    if let Some(t) = &tracer {
        campaign = campaign.tracer(Arc::clone(t));
    }
    if let Some(dir) = ckpt_dir {
        campaign = campaign.checkpoint_to(dir, spec.every);
    }
    if let Some(n) = halt_after {
        campaign = campaign.halt_after(n);
    }
    if let Some(dir) = resume_dir {
        campaign = campaign.resume_from(dir);
    }
    let outcome = report::run_session(campaign.session(), spec);
    print!("{}", outcome.body);
    print!("{}", report::render_metrics_summary(outcome.metrics.as_ref()));
    emit_observability(
        outcome.metrics.as_ref(),
        metrics_out.as_deref(),
        tracer.as_deref(),
        trace_out.as_deref(),
    )
}

fn cmd_campaign(cfg: &ExperimentConfig, args: &[String]) -> Result<(), String> {
    let spec = spec_from_args(cfg, args)?;
    let opts = RunOpts::parse(args)?;
    let ckpt_dir = parse_opt(args, "--checkpoint");
    let resume_dir = parse_opt(args, "--resume-from");
    if opts.halt_after.is_some() && ckpt_dir.is_none() {
        return Err("--halt-after counts checkpoints, so it needs --checkpoint DIR".into());
    }
    if let Some(dir) = &ckpt_dir {
        // A fresh checkpointed run records its spec next to the frames so
        // `psc resume DIR` can reconstruct the exact campaign; a resumed
        // run keeps the file it was launched from.
        if resume_dir.is_none() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
            let path = std::path::Path::new(dir).join("campaign.cfg");
            std::fs::write(&path, spec.render()).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        eprintln!("[psc] checkpointing to {dir} every {} block(s)", spec.every);
    }
    run_campaign(&spec, opts, ckpt_dir.as_deref(), resume_dir.as_deref())
}

/// `psc resume DIR`: rebuild the campaign described by `DIR/campaign.cfg`
/// (one parser — [`CampaignSpec::parse`] — shared with the serve
/// protocol) and run it with `--resume-from DIR`, so the interrupted run
/// completes bit-identically. Any extra flags pass through (e.g.
/// `--halt-after` to re-interrupt, `--metrics` to add observability).
fn cmd_resume(args: &[String]) -> Result<(), String> {
    let dir = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .ok_or("resume needs a DIR argument")?;
    let path = std::path::Path::new(&dir).join("campaign.cfg");
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!("{}: {e} (was this campaign run with --checkpoint?)", path.display())
    })?;
    let spec = CampaignSpec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let opts = RunOpts::parse(&args[1..])?;
    eprintln!("[psc] resuming {} campaign from {dir}", spec.mode.token());
    run_campaign(&spec, opts, Some(&dir), Some(&dir))
}

/// `psc replay DIR`: stream a recording back through the TVLA or (with
/// `--cpa`) the CPA analysis, optionally high-passed by `--detrend W`.
fn cmd_replay(cfg: &ExperimentConfig, args: &[String]) -> Result<(), String> {
    let dir = args.first().filter(|a| !a.starts_with("--")).ok_or("replay needs a DIR argument")?;
    let detrend = parse_flag(args, "--detrend")
        .then(|| {
            let s = parse_opt(args, "--detrend").unwrap_or_default();
            s.parse::<usize>()
                .ok()
                // A window-1 moving average is the trace itself, so
                // detrending by it zeroes every trace.
                .filter(|&w| w >= 2)
                .ok_or(format!("bad --detrend value {s:?}: expected a window of at least 2"))
        })
        .transpose()?;
    let secret = key_opt(args, cfg.secret_key)?;
    let mut replay = ShardReplay::from_dir(dir).map_err(|e| e.to_string())?;
    let shard_count = replay.shards().len();
    // Discover the recorded SMC channels from the authoritative header
    // labels (filenames are just the recorder's convention — a lone
    // single-file recording carries its label only in the header).
    let keys: Vec<_> = replay
        .shards()
        .iter()
        .flat_map(|s| &s.files)
        .filter_map(|p| std::fs::File::open(p).ok())
        .filter_map(|f| apple_power_sca::sca::codec::read_label(f).ok())
        .filter_map(|label| match apple_power_sca::telemetry::channel_for_label(&label) {
            Some(apple_power_sca::telemetry::ChannelId::Smc(k)) => Some(k),
            _ => None,
        })
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let cpa = parse_flag(args, "--cpa");
    if cpa && keys.is_empty() {
        return Err(format!(
            "{dir} holds no SMC-key recording to correlate; CPA needs one \
             (TVLA over PCPU runs without --cpa)"
        ));
    }
    let key_names: Vec<String> = keys.iter().map(ToString::to_string).collect();
    println!(
        "replaying {shard_count} recorded shard group(s) from {dir} (keys: {})",
        key_names.join(" ")
    );
    if let Some(w) = detrend {
        // High-pass each shard's series to strip slow drift (useful on
        // PSTR-class channels); see tests/pstr_detrending.rs.
        replay = replay.detrend(w);
        println!("applied moving-average detrend, window {w}, per shard");
    }
    // Only the mode and the true key shape a replayed report.
    let mode = if cpa { AnalysisMode::Cpa } else { AnalysisMode::Tvla };
    let spec = CampaignSpec { key: secret, ..CampaignSpec::new(mode, Device::MacbookAirM2, cfg) };
    print!("{}", report::run_session(Campaign::replay(replay).keys(&keys).session(), &spec).body);
    Ok(())
}

fn serve_addr(args: &[String]) -> String {
    parse_opt(args, "--addr").unwrap_or_else(|| DEFAULT_ADDR.to_owned())
}

fn parse_usize(args: &[String], flag: &str, default: usize) -> Result<usize, String> {
    parse_opt(args, flag)
        .map(|s| s.parse::<usize>().map_err(|e| format!("bad {flag} value {s:?}: {e}")))
        .transpose()
        .map(|v| v.unwrap_or(default))
}

/// `psc serve`: run the campaign daemon until a client drains it.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let workers = parse_usize(args, "--workers", 2)?;
    let admission = AdmissionConfig {
        max_queue: parse_usize(args, "--max-queue", AdmissionConfig::default().max_queue)?,
        tenant_cap: parse_usize(args, "--tenant-cap", AdmissionConfig::default().tenant_cap)?,
        ..AdmissionConfig::default()
    };
    let spool = match parse_opt(args, "--spool") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::env::temp_dir().join(format!("psc-serve-{}", std::process::id())),
    };
    std::fs::create_dir_all(&spool).map_err(|e| format!("{}: {e}", spool.display()))?;
    let server = Server::start(ServerConfig {
        addr: serve_addr(args),
        workers,
        admission,
        spool: Some(spool.clone()),
        ..ServerConfig::default()
    })
    .map_err(|e| e.to_string())?;
    eprintln!(
        "[psc] serving on {} ({} worker(s), queue cap {}, spool {})",
        server.addr(),
        workers,
        admission.max_queue,
        spool.display()
    );
    server.join();
    eprintln!("[psc] server drained; interrupted jobs resume from the spool with `psc resume`");
    Ok(())
}

/// `psc submit FILE`: send a campaign.cfg to the daemon; with `--wait`,
/// stream progress (stderr) and print the final report (stdout) —
/// byte-identical to running the spec inline with `psc campaign`.
fn cmd_submit(args: &[String]) -> Result<(), String> {
    let file = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .ok_or("submit needs a campaign.cfg FILE argument")?;
    let spec = std::fs::read_to_string(&file).map_err(|e| format!("{file}: {e}"))?;
    // Parse locally first for a fast, line-numbered error instead of a
    // round trip (the server re-parses with the same shared parser).
    CampaignSpec::parse(&spec).map_err(|e| format!("{file}: {e}"))?;
    let tenant = parse_opt(args, "--tenant").unwrap_or_else(|| "default".to_owned());
    let wait = parse_flag(args, "--wait");
    let mut client = Client::connect(serve_addr(args)).map_err(|e| e.to_string())?;
    match client.submit(&tenant, &spec, wait).map_err(|e| e.to_string())? {
        Response::Accepted { job } => {
            if !wait {
                eprintln!("[psc] job {job} accepted (psc jobs / psc cancel {job})");
                return Ok(());
            }
            eprintln!("[psc] job {job} accepted; streaming ...");
            // The wait stream may drop without killing the job: the
            // server keeps running it, so reconnect under the retry
            // policy and re-subscribe by id with Watch.
            let retry = RetryPolicy::default();
            let mut attempt = 1u32;
            let finale = loop {
                match client.wait_for_report(|_| ()) {
                    Ok(response) => break response,
                    Err(e) => {
                        if !retry.should_retry(attempt) {
                            return Err(e.to_string());
                        }
                        std::thread::sleep(retry.delay(attempt, job));
                        attempt += 1;
                        eprintln!("[psc] wait stream dropped; re-subscribing to job {job} ...");
                        client = match Client::connect(serve_addr(args)) {
                            Ok(client) => client,
                            Err(_) => continue,
                        };
                        match client.watch(job) {
                            Ok(Response::Accepted { .. }) => {}
                            Ok(other) => break other,
                            Err(_) => continue,
                        }
                    }
                }
            };
            match finale {
                Response::Report { text, .. } => {
                    print!("{text}");
                    Ok(())
                }
                Response::Rejected { reason } => Err(reason.to_string()),
                other => Err(format!("unexpected final frame: {other:?}")),
            }
        }
        Response::Rejected { reason } => Err(reason.to_string()),
        other => Err(format!("unexpected response: {other:?}")),
    }
}

fn parse_u64_opt(args: &[String], flag: &str) -> Result<Option<u64>, String> {
    parse_opt(args, flag)
        .map(|s| s.parse::<u64>().map_err(|e| format!("bad {flag} value {s:?}: {e}")))
        .transpose()
}

fn read_spec_file(args: &[String]) -> Result<CampaignSpec, String> {
    let file = parse_opt(args, "--spec").ok_or("--spec FILE is required")?;
    let text = std::fs::read_to_string(&file).map_err(|e| format!("{file}: {e}"))?;
    CampaignSpec::parse(&text).map_err(|e| format!("{file}: {e}"))
}

/// `psc worker`: run one fleet member's shard of a distributed
/// campaign, streaming partial state to the aggregator.
fn cmd_worker(args: &[String]) -> Result<(), String> {
    let addr = parse_opt(args, "--connect").ok_or("--connect HOST:PORT is required")?;
    let spec = read_spec_file(args)?;
    let member = parse_u64_opt(args, "--member")?.ok_or("--member I is required")? as usize;
    let workdir = match parse_opt(args, "--workdir") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::env::temp_dir().join(format!("psc-worker-{}-{member}", std::process::id())),
    };
    std::fs::create_dir_all(&workdir).map_err(|e| format!("{}: {e}", workdir.display()))?;
    let mut cfg = WorkerConfig::new(member, workdir);
    if let Some(ms) = parse_u64_opt(args, "--heartbeat-ms")? {
        cfg.heartbeat_interval = std::time::Duration::from_millis(ms);
    }
    cfg.faults.frame_drops =
        u32::try_from(parse_u64_opt(args, "--drop-frames")?.unwrap_or(0)).unwrap_or(u32::MAX);
    cfg.faults.frame_delay_us = parse_u64_opt(args, "--frame-delay-us")?.unwrap_or(0);
    cfg.faults.disconnects =
        u32::try_from(parse_u64_opt(args, "--disconnects")?.unwrap_or(0)).unwrap_or(u32::MAX);
    cfg.faults.frame_corrupt =
        u32::try_from(parse_u64_opt(args, "--corrupt-frames")?.unwrap_or(0)).unwrap_or(u32::MAX);
    let summary = run_worker(&addr, &spec, &cfg).map_err(|e| e.to_string())?;
    eprintln!(
        "[psc] member {member} done: {} partial(s) sent, {} rejected, {} reconnect(s) \
         ({:?} recovering), {} epoch(s)",
        summary.partials_sent,
        summary.rejected,
        summary.reconnects,
        summary.recovery,
        summary.epochs
    );
    Ok(())
}

/// `psc aggregate`: collect a fleet's workers and print the merged
/// report.
fn cmd_aggregate(args: &[String]) -> Result<(), String> {
    let addr = parse_opt(args, "--listen").ok_or("--listen HOST:PORT is required")?;
    let spec = read_spec_file(args)?;
    let mut cfg = AggregatorConfig::default();
    if let Some(ms) = parse_u64_opt(args, "--heartbeat-timeout-ms")? {
        cfg.heartbeat_timeout = std::time::Duration::from_millis(ms);
    }
    if let Some(ms) = parse_u64_opt(args, "--join-timeout-ms")? {
        cfg.join_timeout = std::time::Duration::from_millis(ms);
    }
    if let Some(ms) = parse_u64_opt(args, "--straggler-timeout-ms")? {
        cfg.straggler_timeout = std::time::Duration::from_millis(ms);
    }
    let stats_out = parse_opt(args, "--stats");
    let aggregator = Aggregator::bind(&addr, spec, cfg).map_err(|e| e.to_string())?;
    eprintln!("[psc] aggregating on {} ...", aggregator.local_addr().map_err(|e| e.to_string())?);
    let outcome = aggregator.run().map_err(|e| e.to_string())?;
    print!("{}", outcome.merged.text);
    eprintln!(
        "[psc] merged {} survivor(s): {} partial(s) accepted, {} rejected, {} corrupt frame(s), \
         {} reconnect(s), merge took {} ns",
        outcome.merged.survivors,
        outcome.stats.partials_accepted,
        outcome.stats.partials_rejected,
        outcome.stats.corrupt_frames,
        outcome.stats.reconnects,
        outcome.merged.merge_ns
    );
    if let Some(path) = stats_out {
        let mut json = JsonWriter::object(Layout::Lines(0));
        json.field("survivors", outcome.merged.survivors)
            .field("partials_accepted", outcome.stats.partials_accepted)
            .field("partials_rejected", outcome.stats.partials_rejected)
            .field("corrupt_frames", outcome.stats.corrupt_frames)
            .field("reconnects", outcome.stats.reconnects)
            .field("merge_ns", outcome.merged.merge_ns);
        std::fs::write(&path, json.finish() + "\n").map_err(|e| format!("{path}: {e}"))?;
        eprintln!("[psc] wrote aggregation stats to {path}");
    }
    Ok(())
}

/// `psc jobs`: list the daemon's job table and service counters.
fn cmd_jobs(args: &[String]) -> Result<(), String> {
    let mut client = Client::connect(serve_addr(args)).map_err(|e| e.to_string())?;
    match client.status().map_err(|e| e.to_string())? {
        Response::JobList { jobs, server } => {
            println!("{:>5}  {:<12} {:<9} STATE", "JOB", "TENANT", "MODE");
            for job in &jobs {
                println!(
                    "{:>5}  {:<12} {:<9} {}",
                    job.id,
                    job.tenant,
                    job.mode.token(),
                    job.state.label()
                );
            }
            let p99_wait = server
                .histogram(serve_names::DISPATCH_WAIT_NS)
                .and_then(|h| h.percentile(0.99))
                .unwrap_or(0);
            println!(
                "server: {} submitted, {} accepted, {} rejected, {} completed, {} cancelled, \
                 {} failed; peak running {}, peak queue {}, p99 dispatch wait {p99_wait}ns",
                server.counter(serve_names::SUBMITTED),
                server.counter(serve_names::ACCEPTED),
                server.counter(serve_names::REJECTED),
                server.counter(serve_names::COMPLETED),
                server.counter(serve_names::CANCELLED),
                server.counter(serve_names::FAILED),
                server.gauge(serve_names::PEAK_RUNNING),
                server.gauge(serve_names::PEAK_QUEUE),
            );
            Ok(())
        }
        other => Err(format!("unexpected response: {other:?}")),
    }
}

/// `psc cancel ID`: cancel a queued or running job.
fn cmd_cancel(args: &[String]) -> Result<(), String> {
    let id = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("cancel needs a job ID argument")?
        .parse::<u64>()
        .map_err(|e| format!("bad job ID: {e}"))?;
    let mut client = Client::connect(serve_addr(args)).map_err(|e| e.to_string())?;
    match client.cancel(id).map_err(|e| e.to_string())? {
        Response::CancelOutcome { job, outcome } => {
            use apple_power_sca::serve::proto::CancelResult;
            let verdict = match outcome {
                CancelResult::Cancelled => "cancelled (was queued)",
                CancelResult::Stopping => "stopping at the next block boundary",
                CancelResult::AlreadyDone => "already finished",
                CancelResult::NotFound => return Err(format!("no job {job}")),
            };
            println!("job {job}: {verdict}");
            Ok(())
        }
        other => Err(format!("unexpected response: {other:?}")),
    }
}

/// `psc drain`: gracefully stop the daemon.
fn cmd_drain(args: &[String]) -> Result<(), String> {
    let mut client = Client::connect(serve_addr(args)).map_err(|e| e.to_string())?;
    match client.drain().map_err(|e| e.to_string())? {
        Response::Drained { completed, rejected } => {
            println!("drained: {completed} job(s) completed, {rejected} queued job(s) rejected");
            Ok(())
        }
        other => Err(format!("unexpected response: {other:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = ExperimentConfig::from_env();
    let Some(command) = args.first() else {
        println!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result: Result<(), String> = match command.as_str() {
        "repro" => cmd_repro(&cfg, rest),
        "campaign" => cmd_campaign(&cfg, rest),
        "tune" => cmd_tune(rest),
        "resume" => cmd_resume(rest),
        "replay" => cmd_replay(&cfg, rest),
        "serve" => cmd_serve(rest),
        "submit" => cmd_submit(rest),
        "worker" => cmd_worker(rest),
        "aggregate" => cmd_aggregate(rest),
        "jobs" => cmd_jobs(rest),
        "cancel" => cmd_cancel(rest),
        "drain" => cmd_drain(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
