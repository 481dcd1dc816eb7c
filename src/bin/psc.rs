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
use apple_power_sca::core::spec::parse_monitor_interval;
use apple_power_sca::core::{report, tune};
use apple_power_sca::core::{
    AnalysisMode, Campaign, CampaignSpec, Device, ExperimentConfig, ShardReplay, TuneConfig,
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
use std::num::ParseIntError;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
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
                              DIR` run (or a `serve --spool` job's
                              DIR/job-NNN) from its frames: accumulators
                              restore, sources fast-forward, and the
                              completed report matches an uninterrupted
                              run. Frames of another campaign (an edited
                              campaign.cfg) are refused before anything
                              runs, naming the first field that differs.
                              Takes the runtime flags only (--metrics,
                              --trace, --progress, --halt-after to
                              re-interrupt).
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
                              crosses its threshold; each job checkpoints
                              to DIR/job-NNN of the spool (default under
                              the temp dir) with its campaign.cfg, so a
                              drained job finishes via `psc resume
                              DIR/job-NNN`.
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

Every command refuses a flag it does not take, a repeated flag, and a
missing value (exit 1). Campaign tuning: the tuned constants come from
`--tune FILE` (a saved `psc tune` config) or the cpa_unroll/obs_chunk/
replay_chunk/bus_capacity lines of a campaign.cfg; they change
throughput only — reports stay bit-identical. The active SIMD backend
and tuned sizes appear in the --metrics report (PSC_SIMD=off pins the
scalar backend).

Scaling env vars: PSC_TRACES, PSC_TVLA_TRACES, PSC_SHARDS, PSC_SEED.";

/// How a flag takes its value.
#[derive(Clone, Copy)]
enum Takes {
    /// None: a switch such as `--fleet`.
    Nothing,
    /// Exactly one, as in `--traces N`.
    Value,
    /// The next argument unless it is a flag, as in `--progress [SECS]`.
    MaybeValue,
}

/// A subcommand's command line: its positionals, which come first, then
/// each flag it was given, with that flag's value.
struct Args<'a> {
    positionals: Vec<&'a str>,
    flags: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    /// Parse the arguments of `psc COMMAND`, which takes the named
    /// `positionals` and the declared `flags`. A missing positional, an
    /// unknown flag, a flag given twice and a missing value (or one that
    /// is itself a `--flag`) are refused, naming the argument.
    fn parse(
        command: &str,
        args: &'a [String],
        positionals: &[&str],
        flags: &[(&str, Takes)],
    ) -> Result<Self, String> {
        let is_value = |arg: &&str| !arg.starts_with("--");
        let mut rest = args.iter().map(String::as_str).peekable();
        let mut parsed = Self { positionals: Vec::new(), flags: Vec::new() };
        for name in positionals {
            let arg = rest.next_if(is_value).ok_or(format!("{command} needs a {name} argument"))?;
            parsed.positionals.push(arg);
        }
        while let Some(arg) = rest.next() {
            let Some(&(_, takes)) = flags.iter().find(|(flag, _)| *flag == arg) else {
                let what = if is_value(&arg) { "unexpected argument" } else { "unknown flag" };
                return Err(format!("{what} {arg:?} for psc {command}"));
            };
            if parsed.has(arg) {
                return Err(format!("{arg} is given twice"));
            }
            let value = match takes {
                Takes::Nothing => None,
                Takes::Value => Some(rest.next_if(is_value).ok_or(format!("{arg} needs a value"))?),
                Takes::MaybeValue => rest.next_if(is_value),
            };
            parsed.flags.push((arg, value));
        }
        Ok(parsed)
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|&(given, _)| given == flag)
    }

    fn value(&self, flag: &str) -> Option<&'a str> {
        self.flags.iter().find(|&&(given, _)| given == flag).and_then(|&(_, value)| value)
    }

    /// The number given with `flag`, refused by name when it does not
    /// parse as a `T`.
    fn number<T: FromStr<Err = ParseIntError>>(&self, flag: &str) -> Result<Option<T>, String> {
        let parse = |s: &str| s.parse().map_err(|e| format!("bad {flag} value {s:?}: {e}"));
        self.value(flag).map(parse).transpose()
    }
}

/// The `--addr HOST:PORT` flag of the daemon's client commands.
const ADDR: (&str, Takes) = ("--addr", Takes::Value);

/// `psc repro [--only <target>]`: run every reproduction target (or the
/// one named) in report order, echo each section to stdout and write the
/// consolidated `REPORT.md` to the working directory.
fn cmd_repro(cfg: &ExperimentConfig, args: &[String]) -> Result<(), String> {
    let args = Args::parse("repro", args, &[], &[("--only", Takes::Value)])?;
    let only = match args.value("--only") {
        None => None,
        Some(name) => match TARGETS.iter().find(|(n, ..)| *n == name) {
            Some(target) => Some(target.0),
            None => {
                let names = TARGETS.map(|(name, ..)| name).join(", ");
                return Err(format!("unknown target {name:?}; valid targets: {names}"));
            }
        },
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

/// `psc tune [--out FILE]`: calibrate the SIMD/chunk-size constants on
/// this machine and print (optionally save) the winning config.
fn cmd_tune(args: &[String]) -> Result<(), String> {
    let args = Args::parse("tune", args, &[], &[("--out", Takes::Value)])?;
    let reps = std::env::var("PSC_TUNE_REPS").unwrap_or_else(|_| "3".into());
    eprintln!("[psc] calibrating (backend {}, {reps} rep(s) per candidate) ...", tune::backend());
    let tuned = tune::calibrate();
    println!("{}", tuned.to_json());
    if let Some(path) = args.value("--out") {
        tuned.save(path).map_err(|e| format!("{path}: {e}"))?;
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

/// `psc campaign`'s spec flags and the `campaign.cfg` field each one
/// sets through [`CampaignSpec::set`]: a switch sets its fixed value,
/// any other flag the value it is given.
const SPEC_FLAGS: [(&str, &str, Option<&str>); 12] = [
    ("--cpa", "mode", Some("cpa")),
    ("--adaptive", "mode", Some("adaptive")),
    ("--device", "device", None),
    ("--kernel", "kernel", Some("true")),
    ("--fleet", "fleet", Some("true")),
    ("--traces", "traces", None),
    ("--shards", "shards", None),
    ("--key", "key", None),
    ("--mitigation", "mitigation", None),
    ("--record", "record", None),
    ("--monitor", "monitor", None),
    ("--checkpoint-every", "every", None),
];

/// The runtime-only flags of `psc campaign` and `psc resume`: they
/// shape how a run is observed and interrupted, not what it computes.
const RUN_FLAGS: [(&str, Takes); 4] = [
    ("--metrics", Takes::Value),
    ("--trace", Takes::Value),
    ("--progress", Takes::MaybeValue),
    ("--halt-after", Takes::Value),
];

/// Build the serializable campaign spec from `psc campaign` flags — the
/// same [`CampaignSpec`] the checkpoint cfg, `psc resume` and the serve
/// protocol use, each field set by the one parser they share.
fn spec_from_args(cfg: &ExperimentConfig, args: &Args) -> Result<CampaignSpec, String> {
    if args.has("--cpa") && args.has("--adaptive") {
        return Err("--cpa and --adaptive both set mode".into());
    }
    let mut spec = CampaignSpec::new(AnalysisMode::Tvla, Device::MacbookAirM2, cfg);
    for &(flag, value) in &args.flags {
        if let Some(&(_, field, fixed)) = SPEC_FLAGS.iter().find(|(f, ..)| *f == flag) {
            let value = fixed.or(value).unwrap_or_default();
            spec.set(field, value).map_err(|e| format!("{flag}: {e}"))?;
        }
    }
    if !args.has("--traces") {
        spec.traces = CampaignSpec::default_traces(spec.mode, spec.device, cfg);
    }
    if let Some(path) = args.value("--tune") {
        spec.tune = TuneConfig::load(path).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(spec)
}

/// Run a campaign spec with the runtime-only flags in `args`, printing
/// the banner, the deterministic report body, and — separately, because
/// it carries wall-clock rates — the metrics summary line. A fresh
/// checkpointed run records its spec next to its frames, so `psc resume
/// DIR` can rebuild the exact campaign; a `resume` run continues from
/// those frames.
fn run_campaign(
    spec: &CampaignSpec,
    args: &Args,
    ckpt_dir: Option<&str>,
    resume: bool,
) -> Result<(), String> {
    // Every option is checked before the run writes or prints anything;
    // `--progress` alone defaults to one line per second.
    let progress_s = match args.value("--progress") {
        Some(s) => Some(
            parse_monitor_interval(s).map_err(|e| format!("bad --progress value {s:?}: {e}"))?,
        ),
        None => args.has("--progress").then_some(1.0),
    };
    let halt_after = match args.number("--halt-after")? {
        Some(0) => return Err("--halt-after must be positive".into()),
        Some(_) if ckpt_dir.is_none() => {
            return Err("--halt-after counts checkpoints, so it needs --checkpoint DIR".into())
        }
        n => n,
    };
    let (metrics_out, trace_out) = (args.value("--metrics"), args.value("--trace"));
    if let (Some(dir), false) = (ckpt_dir, resume) {
        spec.save(Path::new(dir))?;
        eprintln!("[psc] checkpointing to {dir} every {} block(s)", spec.every);
    }
    let tracer = trace_out.is_some().then(|| Arc::new(SpanTracer::new()));

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
        if resume {
            campaign = campaign.resume_from(dir);
        }
    }
    if let Some(n) = halt_after {
        campaign = campaign.halt_after(n);
    }
    let session = campaign.session();
    if let (Some(dir), true) = (ckpt_dir, resume) {
        session.check_resume(spec.mode).map_err(|e| format!("{dir}: {e}"))?;
    }
    print!("{}", report::campaign_banner(spec));
    let outcome = report::run_session(session, spec);
    print!("{}", outcome.body);
    print!("{}", report::render_metrics_summary(outcome.metrics.as_ref()));
    emit_observability(outcome.metrics.as_ref(), metrics_out, tracer.as_deref(), trace_out)
}

fn cmd_campaign(cfg: &ExperimentConfig, args: &[String]) -> Result<(), String> {
    let mut flags: Vec<_> = SPEC_FLAGS
        .iter()
        .map(|&(flag, _, fixed)| {
            (flag, if fixed.is_some() { Takes::Nothing } else { Takes::Value })
        })
        .collect();
    flags.extend(RUN_FLAGS);
    flags.extend([("--tune", Takes::Value), ("--checkpoint", Takes::Value)]);
    let args = Args::parse("campaign", args, &[], &flags)?;
    let spec = spec_from_args(cfg, &args)?;
    run_campaign(&spec, &args, args.value("--checkpoint"), false)
}

/// `psc resume DIR`: rebuild the campaign described by `DIR/campaign.cfg`
/// (one parser — [`CampaignSpec::parse`] — shared with the serve
/// protocol) and resume it from the frames in `DIR`, so the interrupted
/// run completes bit-identically. The runtime-only flags apply (e.g.
/// `--halt-after` to re-interrupt, `--metrics` to add observability).
fn cmd_resume(args: &[String]) -> Result<(), String> {
    let args = Args::parse("resume", args, &["DIR"], &RUN_FLAGS)?;
    let dir = args.positionals[0];
    let spec = CampaignSpec::load(Path::new(dir))?;
    eprintln!("[psc] resuming {} campaign from {dir}", spec.mode.token());
    run_campaign(&spec, &args, Some(dir), true)
}

/// `psc replay DIR`: stream a recording back through the TVLA or (with
/// `--cpa`) the CPA analysis, optionally high-passed by `--detrend W`.
fn cmd_replay(cfg: &ExperimentConfig, args: &[String]) -> Result<(), String> {
    let flags = [("--cpa", Takes::Nothing), ("--key", Takes::Value), ("--detrend", Takes::Value)];
    let args = Args::parse("replay", args, &["DIR"], &flags)?;
    let dir = args.positionals[0];
    let detrend = match args.number::<usize>("--detrend")? {
        // A window-1 moving average is the trace itself, so detrending
        // by it zeroes every trace.
        Some(w) if w < 2 => {
            return Err(format!("bad --detrend value \"{w}\": expected a window of at least 2"))
        }
        w => w,
    };
    // Only the mode and the true key shape a replayed report.
    let cpa = args.has("--cpa");
    let mode = if cpa { AnalysisMode::Cpa } else { AnalysisMode::Tvla };
    let mut spec = CampaignSpec::new(mode, Device::MacbookAirM2, cfg);
    if let Some(hex) = args.value("--key") {
        spec.set("key", hex).map_err(|e| format!("--key: {e}"))?;
    }
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
    print!("{}", report::run_session(Campaign::replay(replay).keys(&keys).session(), &spec).body);
    Ok(())
}

fn serve_addr(args: &Args) -> String {
    args.value("--addr").unwrap_or(DEFAULT_ADDR).to_owned()
}

/// `psc serve`: run the campaign daemon until a client drains it.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = ["--workers", "--max-queue", "--tenant-cap", "--spool"].map(|f| (f, Takes::Value));
    let args = Args::parse("serve", args, &[], &[&flags[..], &[ADDR]].concat())?;
    let workers = args.number("--workers")?.unwrap_or(ServerConfig::default().workers);
    let defaults = AdmissionConfig::default();
    let admission = AdmissionConfig {
        max_queue: args.number("--max-queue")?.unwrap_or(defaults.max_queue),
        tenant_cap: args.number("--tenant-cap")?.unwrap_or(defaults.tenant_cap),
        ..defaults
    };
    let spool = match args.value("--spool") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::env::temp_dir().join(format!("psc-serve-{}", std::process::id())),
    };
    std::fs::create_dir_all(&spool).map_err(|e| format!("{}: {e}", spool.display()))?;
    let server = Server::start(ServerConfig {
        addr: serve_addr(&args),
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
    let flags = [("--wait", Takes::Nothing), ("--tenant", Takes::Value), ADDR];
    let args = Args::parse("submit", args, &["campaign.cfg FILE"], &flags)?;
    let file = args.positionals[0];
    let spec = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    // Parse locally first for a fast, line-numbered error instead of a
    // round trip (the server re-parses with the same shared parser).
    CampaignSpec::parse(&spec).map_err(|e| format!("{file}: {e}"))?;
    let tenant = args.value("--tenant").unwrap_or("default");
    let wait = args.has("--wait");
    let mut client = Client::connect(serve_addr(&args)).map_err(|e| e.to_string())?;
    match client.submit(tenant, &spec, wait).map_err(|e| e.to_string())? {
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
                        client = match Client::connect(serve_addr(&args)) {
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

fn read_spec_file(args: &Args) -> Result<CampaignSpec, String> {
    let file = args.value("--spec").ok_or("--spec FILE is required")?;
    let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    CampaignSpec::parse(&text).map_err(|e| format!("{file}: {e}"))
}

/// `psc worker`: run one fleet member's shard of a distributed
/// campaign, streaming partial state to the aggregator.
fn cmd_worker(args: &[String]) -> Result<(), String> {
    let faults = ["--drop-frames", "--frame-delay-us", "--disconnects", "--corrupt-frames"];
    let flags = ["--connect", "--spec", "--member", "--workdir", "--heartbeat-ms"].iter();
    let flags: Vec<_> = flags.chain(&faults).map(|&flag| (flag, Takes::Value)).collect();
    let args = Args::parse("worker", args, &[], &flags)?;
    let addr = args.value("--connect").ok_or("--connect HOST:PORT is required")?;
    let spec = read_spec_file(&args)?;
    let member: usize = args.number("--member")?.ok_or("--member I is required")?;
    let workdir = match args.value("--workdir") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::env::temp_dir().join(format!("psc-worker-{}-{member}", std::process::id())),
    };
    std::fs::create_dir_all(&workdir).map_err(|e| format!("{}: {e}", workdir.display()))?;
    let mut cfg = WorkerConfig::new(member, workdir);
    if let Some(ms) = args.number("--heartbeat-ms")? {
        cfg.heartbeat_interval = std::time::Duration::from_millis(ms);
    }
    // A fault budget past `u32::MAX` saturates.
    let budget = |flag| -> Result<u32, String> {
        Ok(args.number::<u64>(flag)?.map_or(0, |n| u32::try_from(n).unwrap_or(u32::MAX)))
    };
    cfg.faults.frame_drops = budget("--drop-frames")?;
    cfg.faults.frame_delay_us = args.number("--frame-delay-us")?.unwrap_or(0);
    cfg.faults.disconnects = budget("--disconnects")?;
    cfg.faults.frame_corrupt = budget("--corrupt-frames")?;
    let summary = run_worker(addr, &spec, &cfg).map_err(|e| e.to_string())?;
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
    let timeouts = ["--heartbeat-timeout-ms", "--join-timeout-ms", "--straggler-timeout-ms"];
    let flags = ["--listen", "--spec", "--stats"].iter();
    let flags: Vec<_> = flags.chain(&timeouts).map(|&flag| (flag, Takes::Value)).collect();
    let args = Args::parse("aggregate", args, &[], &flags)?;
    let addr = args.value("--listen").ok_or("--listen HOST:PORT is required")?;
    let spec = read_spec_file(&args)?;
    let mut cfg = AggregatorConfig::default();
    let fields = [&mut cfg.heartbeat_timeout, &mut cfg.join_timeout, &mut cfg.straggler_timeout];
    for (flag, field) in timeouts.into_iter().zip(fields) {
        if let Some(ms) = args.number(flag)? {
            *field = std::time::Duration::from_millis(ms);
        }
    }
    let stats_out = args.value("--stats");
    let aggregator = Aggregator::bind(addr, spec, cfg).map_err(|e| e.to_string())?;
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
        std::fs::write(path, json.finish() + "\n").map_err(|e| format!("{path}: {e}"))?;
        eprintln!("[psc] wrote aggregation stats to {path}");
    }
    Ok(())
}

/// `psc jobs`: list the daemon's job table and service counters.
fn cmd_jobs(args: &[String]) -> Result<(), String> {
    let args = Args::parse("jobs", args, &[], &[ADDR])?;
    let mut client = Client::connect(serve_addr(&args)).map_err(|e| e.to_string())?;
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
    let args = Args::parse("cancel", args, &["job ID"], &[ADDR])?;
    let id = args.positionals[0].parse::<u64>().map_err(|e| format!("bad job ID: {e}"))?;
    let mut client = Client::connect(serve_addr(&args)).map_err(|e| e.to_string())?;
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
    let args = Args::parse("drain", args, &[], &[ADDR])?;
    let mut client = Client::connect(serve_addr(&args)).map_err(|e| e.to_string())?;
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
    // The scaling variables are read only by the commands that take
    // their defaults from them, and a bad one fails the command.
    let cfg = ExperimentConfig::from_env;
    let Some(command) = args.first() else {
        println!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result: Result<(), String> = match command.as_str() {
        "repro" => cfg().and_then(|cfg| cmd_repro(&cfg, rest)),
        "campaign" => cfg().and_then(|cfg| cmd_campaign(&cfg, rest)),
        "tune" => cmd_tune(rest),
        "resume" => cmd_resume(rest),
        "replay" => cfg().and_then(|cfg| cmd_replay(&cfg, rest)),
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
