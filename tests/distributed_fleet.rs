//! Process-level distributed fleet smoke: real `psc aggregate` and
//! `psc worker` processes over loopback TCP must reproduce the
//! in-process fleet run byte for byte, and a `kill -9`'d worker must be
//! demoted onto the final report while the survivors merge to exactly
//! the fault-free run restricted to the surviving members.

use apple_power_sca::core::report;
use apple_power_sca::core::spec::{AnalysisMode, CampaignSpec};
use apple_power_sca::core::{Device, TuneConfig};
use apple_power_sca::serve::fleet::{member_state, merge_survivors, MemberOutcome};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn spec(traces: usize) -> CampaignSpec {
    CampaignSpec {
        mode: AnalysisMode::Tvla,
        device: Device::MacMiniM1,
        kernel: false,
        fleet: true,
        traces,
        shards: 2,
        seed: 0x00D5_C0DE,
        key: *b"fleet-smoke-key!",
        every: 4,
        tune: TuneConfig::default(),
        mitigation: None,
        record: None,
        monitor: None,
    }
}

/// A scratch directory holding the rendered spec plus per-worker
/// workdirs, removed on drop even when an assertion fails first.
struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new(tag: &str, spec: &CampaignSpec) -> Self {
        let root = std::env::temp_dir().join(format!("psc_dfleet_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(root.join("w0")).unwrap();
        std::fs::create_dir_all(root.join("w1")).unwrap();
        std::fs::write(root.join("campaign.cfg"), spec.render()).unwrap();
        Scratch { root }
    }

    fn spec_file(&self) -> String {
        self.root.join("campaign.cfg").display().to_string()
    }

    fn workdir(&self, member: usize) -> String {
        self.root.join(format!("w{member}")).display().to_string()
    }

    fn stats_file(&self) -> PathBuf {
        self.root.join("stats.json")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}

/// Reserve a loopback port by binding and dropping an ephemeral
/// listener; the aggregator rebinds it an instant later.
fn reserve_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("reserve a port");
    listener.local_addr().expect("local addr").to_string()
}

fn psc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_psc"))
}

fn spawn_aggregator(addr: &str, scratch: &Scratch, extra: &[&str]) -> Child {
    psc()
        .args(["aggregate", "--listen", addr, "--spec", &scratch.spec_file()])
        .args(["--stats", &scratch.stats_file().display().to_string()])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn aggregator")
}

fn spawn_worker(addr: &str, scratch: &Scratch, member: usize, extra: &[&str]) -> Child {
    psc()
        .args(["worker", "--connect", addr, "--spec", &scratch.spec_file()])
        .args(["--member", &member.to_string(), "--workdir", &scratch.workdir(member)])
        .args(["--heartbeat-ms", "50"])
        .args(extra)
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn worker")
}

fn stats_field(stats: &Path, field: &str) -> u64 {
    let json = std::fs::read_to_string(stats).expect("stats json");
    let line = json
        .lines()
        .find(|l| l.contains(&format!("\"{field}\"")))
        .unwrap_or_else(|| panic!("no {field} in {json}"));
    line.split(':').nth(1).expect("value").trim().trim_end_matches(',').parse().expect("u64")
}

#[test]
fn worker_processes_reproduce_the_inline_fleet_run_byte_for_byte() {
    let spec = spec(48);
    let scratch = Scratch::new("clean", &spec);
    let addr = reserve_addr();

    let aggregator = spawn_aggregator(&addr, &scratch, &[]);
    let workers: Vec<Child> = (0..2).map(|m| spawn_worker(&addr, &scratch, m, &[])).collect();
    for mut worker in workers {
        assert!(worker.wait().expect("wait worker").success(), "worker process failed");
    }
    let output = aggregator.wait_with_output().expect("wait aggregator");
    assert!(output.status.success(), "aggregator process failed");

    let inline = report::run_spec(&spec);
    let expected = report::campaign_banner(&spec) + &inline.body;
    assert_eq!(
        String::from_utf8(output.stdout).expect("utf8 report"),
        expected,
        "distributed report must match the inline fleet run byte for byte"
    );
    assert_eq!(stats_field(&scratch.stats_file(), "survivors"), 2);
    assert_eq!(stats_field(&scratch.stats_file(), "corrupt_frames"), 0);
}

#[test]
fn a_sigkilled_worker_is_demoted_and_survivors_match_the_restricted_run() {
    let spec = spec(2_000);
    let scratch = Scratch::new("sigkill", &spec);
    let addr = reserve_addr();

    let aggregator = spawn_aggregator(
        &addr,
        &scratch,
        &["--heartbeat-timeout-ms", "1500", "--straggler-timeout-ms", "2500"],
    );
    let mut survivor = spawn_worker(&addr, &scratch, 0, &[]);
    // Every frame member 1 sends after its hello waits a minute, so
    // however fast its campaign runs, it cannot deliver `Done` (or exit)
    // before the kill: it is provably still running when the kill lands.
    let mut casualty = spawn_worker(&addr, &scratch, 1, &["--frame-delay-us", "60000000"]);
    // Its campaign, and so its checkpoint file, starts only after the
    // aggregator accepted its hello: kill a member the aggregator knows.
    let ckpt = Path::new(&scratch.workdir(1)).join("shard-000.ckpt");
    for _ in 0..3000 {
        if ckpt.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(casualty.try_wait().expect("poll worker 1").is_none(), "member 1 must be running");
    casualty.kill().expect("SIGKILL worker 1"); // SIGKILL: no cleanup, no goodbye
    casualty.wait().expect("reap worker 1");

    assert!(survivor.wait().expect("wait worker 0").success(), "surviving worker failed");
    let output = aggregator.wait_with_output().expect("wait aggregator");
    assert!(output.status.success(), "the aggregator must complete despite the kill");

    assert_eq!(stats_field(&scratch.stats_file(), "survivors"), 1, "member 1 was demoted");

    // The printed report equals the fault-free run restricted to the
    // surviving member — built without sockets from the same helpers
    // the worker and aggregator use.
    let state = member_state(&spec, 0, None).expect("member 0 state");
    let restricted = merge_survivors(
        &spec,
        &[
            MemberOutcome::Completed { state, reconnects: 0 },
            MemberOutcome::Failed { reason: "killed".into() },
        ],
    )
    .expect("restricted merge");
    let text = String::from_utf8(output.stdout).expect("utf8 report");
    assert_eq!(text, restricted.text, "survivor-restricted byte identity");
    assert!(
        text.contains("1/2 shard(s) degraded or failed"),
        "the dead member must surface on the report:\n{text}"
    );
}
