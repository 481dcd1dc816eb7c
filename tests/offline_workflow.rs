//! Cross-crate integration: the record-then-analyze-offline workflow — a
//! real attacker collects once (slow, on-target) and analyzes many times
//! (fast, off-target). The persisted campaign must yield bit-identical
//! analysis results, and the `psc` front door must refuse bad offline
//! flags before doing any work.

mod common;

use apple_power_sca::core::{Campaign, Device, VictimKind};
use apple_power_sca::sca::codec::{read_trace_set, write_recording, LabeledTrace};
use apple_power_sca::sca::cpa::Cpa;
use apple_power_sca::sca::enumerate::{verify_with_pair, KeyEnumerator};
use apple_power_sca::sca::model::Rd0Hw;
use apple_power_sca::sca::trace::TraceSet;
use apple_power_sca::smc::key::key;
use common::Recorded;

const SECRET: [u8; 16] = [
    0xB7, 0x6F, 0xEB, 0x3E, 0xD5, 0x9D, 0x77, 0xFA, 0xCE, 0xBB, 0x67, 0xF3, 0x5E, 0xAD, 0xD9, 0x7C,
];

/// A live campaign against the M2 user-space victim, seeded `seed`.
fn live(seed: u64) -> Campaign {
    Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, seed)
}

/// `set` written in the on-disk recording format (unclassed CPA records).
fn persist(set: &TraceSet) -> Vec<u8> {
    let records: Vec<LabeledTrace> =
        set.iter().map(|&trace| LabeledTrace { trace, pass: 0, class: None }).collect();
    let mut bytes = Vec::new();
    write_recording(&set.label, &records, &mut bytes).expect("serialize");
    bytes
}

#[test]
fn persisted_campaign_analyzes_identically() {
    let (sets, _) = Recorded::cpa(live(0x0FF1).keys(&[key("PHPC")]).traces(4_000));
    let original = &sets.traces("PHPC");

    // Round-trip through the on-disk format.
    let bytes = persist(original);
    let restored = read_trace_set(&bytes[..]).expect("deserialize");
    assert_eq!(&restored, original);

    // Analysis over the restored set matches analysis over the original,
    // bit for bit.
    let ranks_of = |set: &TraceSet| {
        let mut cpa = Cpa::new(Box::new(Rd0Hw));
        cpa.add_set(set);
        (cpa.ranks(&SECRET), cpa.correlations(0).map(f64::to_bits))
    };
    assert_eq!(ranks_of(original), ranks_of(&restored));
}

#[test]
fn full_offline_attack_with_enumeration_endgame() {
    // Enough traces that every byte ranks near the top, then the
    // enumeration endgame confirms the exact key from the recording alone.
    let (sets, _) = Recorded::cpa(live(0x0FF2).keys(&[key("PHPC")]).traces(25_000));
    let bytes = persist(&sets.traces("PHPC"));

    // "Another machine": only the recording is available.
    let recording = read_trace_set(&bytes[..]).expect("deserialize");
    let mut cpa = Cpa::new(Box::new(Rd0Hw));
    cpa.add_set(&recording);
    let pair = recording.traces()[0];
    let found = KeyEnumerator::from_cpa(&cpa)
        .search(200_000, |c| verify_with_pair(c, &pair.plaintext, &pair.ciphertext));
    let (recovered_key, _tried) = found.expect("key recoverable at this trace count");
    assert_eq!(recovered_key, SECRET, "offline attack recovers the exact key");
}

#[test]
fn cli_replay_refuses_cpa_without_an_smc_key_recording() {
    // A directory holding only PCPU recordings has nothing for CPA to
    // correlate: `psc replay --cpa` must fail loudly instead of printing
    // an empty report, while TVLA over PCPU stays a valid replay.
    let dir = std::env::temp_dir().join(format!("psc_replay_pcpu_only_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let _ = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, 0x0FF3)
        .keys(&[key("PHPC")])
        .traces(12)
        .shards(1)
        .record_to(&dir)
        .session()
        .tvla();
    for entry in std::fs::read_dir(&dir).expect("recorded") {
        let path = entry.expect("dir entry").path();
        if !path.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with("PCPU")) {
            std::fs::remove_file(path).expect("drop SMC-key recording");
        }
    }
    let psc = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_psc"))
            .arg("replay")
            .arg(&dir)
            .args(args)
            .output()
            .expect("run psc")
    };
    let cpa = psc(&["--cpa"]);
    assert_eq!(cpa.status.code(), Some(1));
    assert!(cpa.stdout.is_empty(), "no report: {}", String::from_utf8_lossy(&cpa.stdout));
    assert!(String::from_utf8_lossy(&cpa.stderr).contains("no SMC-key recording"));
    let tvla = psc(&[]);
    assert!(tvla.status.success());
    assert!(String::from_utf8_lossy(&tvla.stdout).contains("PCPU"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_refuses_bad_shard_and_trace_counts() {
    // A small valid recording, so `replay` fails on its flags alone.
    let dir = std::env::temp_dir().join(format!("psc_cli_refuses_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let _ = live(0x0FF1)
        .keys(&[key("PHPC")])
        .traces(20)
        .record_to(&dir)
        .session()
        .cpa(|| Box::new(Rd0Hw));
    let dir_arg = dir.to_str().expect("utf-8 temp path");
    let ckpt = dir.join("ckpt");
    let ckpt_arg = ckpt.to_str().expect("utf-8 temp path");
    let resumable = dir.join("resumable");
    let resumable_arg = resumable.to_str().expect("utf-8 temp path");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_psc"))
        .args(["campaign", "--traces", "8", "--checkpoint", resumable_arg])
        .output()
        .expect("run psc");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let newline_record = format!("{dir_arg}/r1\nr2");

    // A typo must not fall back to the default budget, key, target or
    // progress interval (or to no detrending), a huge shard count must not
    // spawn a producer and a worker thread per shard, and an interrupt
    // that can never fire is an error. A flag the command does not take
    // (a typo, or one of the deleted duplicates of `psc resume` and
    // `--tune`), a flag missing its value and a record path no cfg line
    // can carry back are refused too, as is a flag that restates one
    // already given. Each refusal exits 1 before any output and names
    // what was wrong. The subcommands that `repro`,
    // `campaign --record` and `replay` replaced are unknown commands.
    let gone = [
        "fuzz",
        "tvla",
        "cpa",
        "throttle",
        "countermeasures",
        "success",
        "stream",
        "collect",
        "analyze",
    ];
    let refusals = [
        (&["campaign", "--traces", "abc"][..], "--traces"),
        (&["campaign", "--shards", "abc"], "--shards"),
        (&["campaign", "--shards", "3000"], "--shards"),
        (&["campaign", "--shards", "0"], "--shards"),
        (&["campaign", "--cpa", "--traces", "-5"], "--traces"),
        (&["campaign", "--cpa", "--traces", "0"], "--traces"),
        (&["campaign", "--traces", "0"], "--traces"),
        (&["campaign", "--key", "zz"], "--key"),
        (&["campaign", "--progress", "0"], "--progress"),
        (&["campaign", "--progress", "-1"], "--progress"),
        (&["campaign", "--progress", "nan"], "--progress"),
        (&["campaign", "--progress", "abc"], "--progress"),
        (&["campaign", "--monitor", "1e-300"], "--monitor"),
        (&["campaign", "--monitor", "0.000001"], "--monitor"),
        (&["campaign", "--mitigation", "noise=1e300"], "--mitigation"),
        (&["campaign", "--mitigation", "slow=1e300"], "--mitigation"),
        (&["campaign", "--checkpoint", ckpt_arg, "--halt-after", "0"], "--halt-after"),
        (&["campaign", "--checkpoint", ckpt_arg, "--halt-after", "abc"], "--halt-after"),
        (&["campaign", "--halt-after", "1"], "--halt-after"),
        (&["repro", "--only", "nope"], "nope"),
        (&["replay", dir_arg, "--detrend", "abc"], "--detrend"),
        (&["replay", dir_arg, "--detrend", "-3"], "--detrend"),
        (&["replay", dir_arg, "--detrend", "0"], "--detrend"),
        (&["replay", dir_arg, "--detrend", "1"], "--detrend"),
        (&["replay", dir_arg, "--detrend"], "--detrend"),
        (&["replay", "--key", "00112233445566778899aabbccddeeff", dir_arg], "DIR"),
        (&["campaign", "--traces", "8", "--seed", "5"], "--seed"),
        (&["campaign", "--traces", "8", "--shard", "3"], "--shard"),
        (&["campaign", "--traces", "8", "--shards"], "--shards"),
        (&["campaign", "--traces", "8", "--record", "--cpa"], "--record"),
        (&["campaign", "--traces", "8", "--record", &newline_record], "--record"),
        (&["campaign", "--traces", "8", "--resume-from", resumable_arg], "--resume-from"),
        (&["campaign", "--traces", "8", "--obs-chunk", "16"], "--obs-chunk"),
        (&["campaign", "--traces", "8", "--traces", "9"], "--traces"),
        (&["campaign", "--traces", "8", "--cpa", "--adaptive"], "--adaptive"),
        (&["resume", resumable_arg, "--traces", "5"], "--traces"),
    ];
    let unknown = gone.iter().map(|g| (std::slice::from_ref(g), "unknown command"));
    for (args, named) in refusals.into_iter().chain(unknown) {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_psc"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("run psc");
        assert_eq!(out.status.code(), Some(1), "psc {args:?} must exit 1");
        assert!(out.stdout.is_empty(), "nothing ran for {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(named), "{args:?} names {named}: {stderr}");
    }
    assert!(!ckpt.exists(), "a refused campaign writes no checkpoint directory");

    // Bare `--progress` keeps its one-second default, whatever follows it.
    for args in [
        &["campaign", "--traces", "8", "--progress"][..],
        &["campaign", "--progress", "--traces", "8"],
        &["campaign", "--traces", "8", "--progress", "0.5"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_psc"))
            .args(args)
            .output()
            .expect("run psc");
        assert!(out.status.success(), "psc {args:?}: {}", String::from_utf8_lossy(&out.stderr));
        assert!(!out.stdout.is_empty(), "psc {args:?} prints its report");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_resume_refuses_a_checkpoint_of_another_campaign() {
    // A `campaign.cfg` edited after the frames were taken describes
    // another campaign: resuming would merge two victims' traces into
    // one statistic. `psc resume` refuses it before printing anything,
    // naming the field, and without a panic.
    let root = std::env::temp_dir().join(format!("psc_cli_foreign_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let taken = root.join("taken");
    let psc = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_psc")).args(args).output().expect("psc")
    };
    let ckpt = ["--checkpoint", taken.to_str().expect("utf-8 temp path")];
    let flags = ["campaign", "--cpa", "--traces", "400", "--shards", "2", "--checkpoint-every"];
    let out = psc(&[&flags[..], &["1", "--halt-after", "2"], &ckpt].concat());
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let cfg = std::fs::read_to_string(taken.join("campaign.cfg")).expect("spec kept");
    for (field, value) in [
        ("seed", "99"),
        ("key", "00112233445566778899aabbccddeeff"),
        ("device", "m1"),
        ("traces", "500"),
    ] {
        let edited = root.join(field);
        std::fs::create_dir_all(&edited).unwrap();
        for entry in std::fs::read_dir(&taken).unwrap() {
            let path = entry.unwrap().path();
            std::fs::copy(&path, edited.join(path.file_name().unwrap())).unwrap();
        }
        let line = cfg.lines().find(|l| l.starts_with(&format!("{field}="))).expect("field");
        let text = cfg.replace(line, &format!("{field}={value}"));
        std::fs::write(edited.join("campaign.cfg"), text).unwrap();
        let out = psc(&["resume", edited.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "edited {field}: {stderr}");
        assert!(out.stdout.is_empty(), "edited {field} printed a report");
        assert!(stderr.contains(&format!("its {field} differs")), "{field}: {stderr}");
        assert!(!stderr.contains("panicked"), "{field}: {stderr}");
    }
    let out = psc(&["resume", taken.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn cli_refuses_bad_scaling_variables() {
    // The commands that take their defaults from the scaling variables
    // refuse a bad one by name instead of ignoring it: `PSC_TVLA_TRACES=0`
    // used to run a campaign with no samples and exit 0.
    for (args, var, value) in [
        (&["campaign"][..], "PSC_TVLA_TRACES", "0"),
        (&["campaign", "--cpa"], "PSC_TRACES", "0"),
        (&["campaign"], "PSC_TRACES", "lots"),
        (&["campaign"], "PSC_SHARDS", "300"),
        (&["campaign"], "PSC_SEED", "-1"),
        (&["repro", "--only", "table4"], "PSC_TRACES", "0"),
        (&["replay", "no-such-dir"], "PSC_SHARDS", "0"),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_psc"))
            .args(args)
            .env(var, value)
            .output()
            .expect("run psc");
        assert_eq!(out.status.code(), Some(1), "{var}={value} psc {args:?} must exit 1");
        assert!(out.stdout.is_empty(), "nothing ran for {var}={value} psc {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with(&format!("error: {var}: ")), "{var}={value}: {stderr}");
    }
}
