//! The serializable campaign description (`campaign.cfg`).
//!
//! [`CampaignSpec`] is the one shared description of a campaign across
//! every front end: the `psc campaign` CLI builds one from flags,
//! `psc resume` re-reads the one persisted next to the checkpoint
//! frames, and the `psc serve` daemon receives one over its wire
//! protocol. It renders to — and parses back from — the simple
//! `key=value` line format `psc campaign --checkpoint` has always
//! written, and `parse(render(spec)) == spec` is pinned by a proptest
//! (`crates/core/tests/spec_roundtrip.rs`). Every field is parsed and
//! bounded in one place, [`CampaignSpec::set`]: a cfg line and a
//! `psc campaign` flag go through it alike, and a name it does not know
//! is refused.
//!
//! The spec captures everything that shapes the *result* — analysis
//! mode, device/fleet topology, victim kind, budgets, seed and key,
//! tuned pipeline constants (checkpoint frames are taken at `obs_chunk`
//! boundaries, so a resume must match), mitigation, recording and
//! monitor cadence. Runtime-only knobs (metrics emission, span tracing,
//! checkpoint/resume directories, halt/stop flags) stay out of it: they
//! change observability, never the report bytes.

use crate::experiments::ExperimentConfig;
use crate::rig::Device;
use crate::session::{Campaign, MIN_MONITOR_INTERVAL_S};
use crate::source::{Fleet, FleetMember, LiveRig, TraceSource};
use crate::tune::TuneConfig;
use crate::victim::VictimKind;
use psc_smc::key::key;
use psc_smc::{MitigationConfig, SmcKey};
use std::fmt::Display;
use std::num::NonZeroU64;
use std::ops::RangeInclusive;
use std::path::Path;
use std::str::FromStr;

/// The file a checkpointing campaign keeps its spec in, next to its
/// frames ([`CampaignSpec::save`]).
pub const SPEC_FILE: &str = "campaign.cfg";

/// Which streaming analysis a campaign runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisMode {
    /// Fixed-budget streaming TVLA over every requested channel.
    Tvla,
    /// Streaming known-plaintext CPA.
    Cpa,
    /// Adaptive TVLA: stop at the threshold crossing on the watch key.
    Adaptive,
}

impl AnalysisMode {
    /// The `mode=` token (`"tvla"`, `"cpa"`, `"adaptive"`).
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            AnalysisMode::Tvla => "tvla",
            AnalysisMode::Cpa => "cpa",
            AnalysisMode::Adaptive => "adaptive",
        }
    }

    /// Parse a `mode=` token.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown token.
    pub fn parse(token: &str) -> Result<Self, String> {
        [AnalysisMode::Tvla, AnalysisMode::Cpa, AnalysisMode::Adaptive]
            .into_iter()
            .find(|mode| mode.token() == token)
            .ok_or_else(|| format!("unknown mode {token:?} (tvla|cpa|adaptive)"))
    }
}

/// The largest `noise=` σ, in watts: about 20× the ~5 W the victim's
/// three AES threads draw on `PHPC`, so far past the point where any
/// rail's data dependence drowns, and far below where blending it with a
/// sensor's own σ (`sqrt(σ² + extra²)`) overflows to an infinite σ that
/// every producer panics on.
pub const MAX_NOISE_SIGMA_W: f64 = 100.0;

/// The largest `slow=` multiplier of the sensor update interval. Every
/// observation runs SoC windows until the SMC publishes, so its cost
/// grows with the multiplier; ×1000 (about 17 simulated minutes per
/// sample) is already useless to an attacker and costs ~1000 windows per
/// observation, where ×1e300 would never finish.
pub const MAX_SLOW_MULTIPLIER: f64 = 1000.0;

/// A countermeasure selection in the CLI/cfg grammar
/// (`none|restrict|noise[=SIGMA]|slow[=MULT]`), kept symbolic so it
/// round-trips through `campaign.cfg` exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MitigationSetting {
    /// No countermeasure.
    None,
    /// Restrict the power-domain keys to privileged readers.
    Restrict,
    /// Blend Gaussian noise of this sigma (watts) into the rails.
    Noise(f64),
    /// Multiply the sensor update interval by this factor.
    Slow(f64),
}

impl MitigationSetting {
    /// Parse the CLI/cfg grammar. A bare `noise`/`slow` takes the same
    /// default the CLI has always used (σ = 0.05 W, ×3.0).
    ///
    /// # Errors
    ///
    /// Returns a message for unknown names, unparsable values, a `noise`
    /// σ outside `0..=`[`MAX_NOISE_SIGMA_W`] and a `slow` multiplier
    /// outside `1..=`[`MAX_SLOW_MULTIPLIER`] (NaN and infinities
    /// included).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (name, value) = match spec.split_once('=') {
            Some((n, v)) => (n, Some(v)),
            None => (spec, None),
        };
        let parse_value = |default: f64, range: RangeInclusive<f64>| {
            let v = value.map_or(Ok(default), |v| {
                v.parse::<f64>().map_err(|e| format!("bad mitigation value {v:?}: {e}"))
            })?;
            if range.contains(&v) {
                Ok(v)
            } else {
                let (lo, hi) = range.into_inner();
                Err(format!("bad {name} mitigation value {v:?}: must be in {lo}..={hi}"))
            }
        };
        match name {
            "none" => Ok(MitigationSetting::None),
            "restrict" => Ok(MitigationSetting::Restrict),
            "noise" => Ok(MitigationSetting::Noise(parse_value(0.05, 0.0..=MAX_NOISE_SIGMA_W)?)),
            "slow" => Ok(MitigationSetting::Slow(parse_value(3.0, 1.0..=MAX_SLOW_MULTIPLIER)?)),
            other => Err(format!("unknown mitigation {other:?} (none|restrict|noise|slow)")),
        }
    }

    /// The canonical cfg token. `f64` values use Rust's shortest
    /// round-trip formatting, so `parse(render())` is exact.
    #[must_use]
    pub fn render(self) -> String {
        match self {
            MitigationSetting::None => "none".into(),
            MitigationSetting::Restrict => "restrict".into(),
            MitigationSetting::Noise(sigma) => format!("noise={sigma}"),
            MitigationSetting::Slow(mult) => format!("slow={mult}"),
        }
    }

    /// The concrete SMC-stack configuration this selection installs.
    #[must_use]
    pub fn to_config(self) -> MitigationConfig {
        match self {
            MitigationSetting::None => MitigationConfig::none(),
            MitigationSetting::Restrict => MitigationConfig::restrict_access(),
            MitigationSetting::Noise(sigma) => MitigationConfig::noise_blend(sigma),
            MitigationSetting::Slow(mult) => MitigationConfig::slow_updates(mult),
        }
    }
}

/// The serializable description of one campaign — everything needed to
/// rebuild the exact [`Campaign`] (same keys, budgets, seed, tuned
/// sizes) from a `campaign.cfg` file or a `psc serve` submission.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Which analysis to run.
    pub mode: AnalysisMode,
    /// Target device (shard seed base; ignored for key *selection* when
    /// `fleet` — the fleet reads the keys its members share).
    pub device: Device,
    /// Kernel-module victim instead of user-space.
    pub kernel: bool,
    /// Fan one shard per member across the M2+M1 device fleet.
    pub fleet: bool,
    /// Trace budget: per class for TVLA/adaptive, total for CPA.
    pub traces: usize,
    /// Requested worker count (a fleet overrides it with one shard per
    /// member at session time).
    pub shards: usize,
    /// Master simulation seed.
    pub seed: u64,
    /// The victim's secret AES-128 key.
    pub key: [u8; 16],
    /// Checkpoint cadence in consumed blocks (recorded even when the
    /// run doesn't checkpoint, so a later resume keeps the cadence).
    pub every: u64,
    /// Tuned pipeline constants. `obs_chunk` is part of the campaign
    /// identity (checkpoint frames are taken at its block boundaries);
    /// the other three change throughput only.
    pub tune: TuneConfig,
    /// Countermeasure selection (`None` = the line was absent; the
    /// built campaign installs [`MitigationConfig::none`] either way,
    /// matching the CLI's historical default).
    pub mitigation: Option<MitigationSetting>,
    /// Record labeled `.psct` shards under this directory.
    pub record: Option<String>,
    /// Cadence-monitor poll interval override, simulated seconds.
    pub monitor: Option<f64>,
}

impl CampaignSpec {
    /// A spec with the historical CLI defaults for `mode` on `device`:
    /// per-device CPA budgets mirror the paper's 1M-vs-350k campaign
    /// sizes (scaled down in [`ExperimentConfig`]), TVLA/adaptive take
    /// the per-class budget, and seed/key/shards come from `cfg`.
    #[must_use]
    pub fn new(mode: AnalysisMode, device: Device, cfg: &ExperimentConfig) -> Self {
        Self {
            mode,
            device,
            kernel: false,
            fleet: false,
            traces: Self::default_traces(mode, device, cfg),
            shards: cfg.shards.max(1),
            seed: cfg.seed,
            key: cfg.secret_key,
            every: 8,
            tune: TuneConfig::default(),
            mitigation: None,
            record: None,
            monitor: None,
        }
    }

    /// The historical CLI default trace budget for `mode` on `device`.
    #[must_use]
    pub fn default_traces(mode: AnalysisMode, device: Device, cfg: &ExperimentConfig) -> usize {
        match (mode, device) {
            (AnalysisMode::Cpa, Device::MacbookAirM2) => cfg.cpa_traces_m2,
            (AnalysisMode::Cpa, Device::MacMiniM1) => cfg.cpa_traces_m1,
            _ => cfg.tvla_traces_per_class,
        }
    }

    /// The victim kind the `kernel` flag selects.
    #[must_use]
    pub fn victim_kind(&self) -> VictimKind {
        if self.kernel {
            VictimKind::KernelModule
        } else {
            VictimKind::UserSpace
        }
    }

    /// The fleet membership a `fleet` campaign fans across (one shard
    /// per member, both Table 1 devices; empty when not a fleet).
    #[must_use]
    pub fn fleet_members(&self) -> Vec<FleetMember> {
        if self.fleet {
            Device::ALL
                .iter()
                .map(|&device| FleetMember { device, kind: self.victim_kind() })
                .collect()
        } else {
            Vec::new()
        }
    }

    /// The SMC keys this campaign reads: the device's Table 2 set, the
    /// fleet's shared subset when `fleet`, minus `PHPS` for CPA (its
    /// duty-cycle quantization defeats first-order CPA, as the paper
    /// found).
    #[must_use]
    pub fn keys(&self) -> Vec<SmcKey> {
        let members = self.fleet_members();
        let base: Vec<SmcKey> = if self.fleet {
            self.device
                .table2_keys()
                .into_iter()
                .filter(|k| members.iter().all(|m| m.device.table2_keys().contains(k)))
                .collect()
        } else {
            self.device.table2_keys()
        };
        if self.mode == AnalysisMode::Cpa {
            base.into_iter().filter(|&k| k != key("PHPS")).collect()
        } else {
            base
        }
    }

    /// The channel adaptive campaigns watch for the threshold crossing.
    #[must_use]
    pub fn adaptive_watch() -> SmcKey {
        key("PHPC")
    }

    /// Render as `campaign.cfg` text: the `key=value` line format
    /// `psc campaign --checkpoint` has written since checkpointing
    /// landed, one line per field, optional lines omitted when unset.
    /// [`Self::parse`] inverts it exactly.
    #[must_use]
    pub fn render(&self) -> String {
        let key_hex: String = self.key.iter().map(|b| format!("{b:02x}")).collect();
        let mut text = format!(
            "mode={}\ndevice={}\nkernel={}\nfleet={}\ntraces={}\n\
             shards={}\nseed={}\nkey={key_hex}\nevery={}\n",
            self.mode.token(),
            self.device.token(),
            self.kernel,
            self.fleet,
            self.traces,
            self.shards,
            self.seed,
            self.every,
        );
        text.push_str(&format!(
            "cpa_unroll={}\nobs_chunk={}\nreplay_chunk={}\nbus_capacity={}\n",
            self.tune.cpa_unroll,
            self.tune.obs_chunk,
            self.tune.replay_chunk,
            self.tune.bus_capacity
        ));
        if let Some(m) = self.mitigation {
            text.push_str(&format!("mitigation={}\n", m.render()));
        }
        if let Some(dir) = &self.record {
            text.push_str(&format!("record={dir}\n"));
        }
        if let Some(s) = self.monitor {
            text.push_str(&format!("monitor={s}\n"));
        }
        text
    }

    /// Parse `campaign.cfg` text (the [`Self::render`] format): each
    /// `name=value` line goes through [`Self::set`]. Blank lines and `#`
    /// comments are skipped; `kernel`/`fleet` default to `false` and the
    /// tuned constants to the shipped baseline when their lines are
    /// absent (files older than the knob).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first bad line: an unknown, repeated
    /// or missing field, a value [`Self::set`] refuses, or a tune config
    /// that fails [`TuneConfig::validate`].
    pub fn parse(text: &str) -> Result<Self, String> {
        // Every required field overwrites its placeholder.
        let mut spec =
            Self::new(AnalysisMode::Tvla, Device::MacbookAirM2, &ExperimentConfig::quick());
        let mut seen = Vec::new();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (name, value) = line.split_once('=').ok_or_else(|| format!("bad line {line:?}"))?;
            if seen.contains(&name) {
                return Err(format!("duplicate {name}= line"));
            }
            spec.set(name, value)?;
            seen.push(name);
        }
        let required = ["mode", "device", "traces", "shards", "seed", "key", "every"];
        if let Some(name) = required.iter().find(|name| !seen.contains(name)) {
            return Err(format!("missing {name}="));
        }
        spec.tune.validate()?;
        Ok(spec)
    }

    /// Write the spec to `dir`/[`SPEC_FILE`], creating `dir`: a campaign
    /// checkpointing to `dir` keeps it next to its frames, so `psc resume
    /// DIR` can rebuild the campaign with [`CampaignSpec::load`].
    ///
    /// # Errors
    ///
    /// The I/O error, naming the path.
    pub fn save(&self, dir: &Path) -> Result<(), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(SPEC_FILE);
        std::fs::write(&path, self.render()).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Read the spec [`CampaignSpec::save`] wrote to `dir`.
    ///
    /// # Errors
    ///
    /// A missing or unreadable file, or a [`CampaignSpec::parse`] error,
    /// naming the path.
    pub fn load(dir: &Path) -> Result<Self, String> {
        let path = dir.join(SPEC_FILE);
        let text = std::fs::read_to_string(&path).map_err(|e| {
            format!("{}: {e} (was this campaign run with --checkpoint?)", path.display())
        })?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Set the field a `campaign.cfg` line names — the one place a
    /// field's value is parsed and bounded, shared by spec files,
    /// `psc serve` submissions and the `psc campaign` flags. `kernel` and
    /// `fleet` take exactly `true` or `false`. The four tune fields are
    /// bounded together, by the [`TuneConfig::validate`] call in
    /// [`Self::parse`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the field for an unknown name, a value
    /// out of its bounds, and a value no cfg line can carry back (one
    /// holding a newline or ending in whitespace, which
    /// [`Self::parse`] trims).
    pub fn set(&mut self, name: &str, value: &str) -> Result<(), String> {
        let bad = |e: String| format!("bad {name} value {value:?}: {e}");
        if value.contains('\n') || value.ends_with(char::is_whitespace) {
            return Err(bad("a cfg line cannot hold a newline or end in whitespace".into()));
        }
        match name {
            "mode" => self.mode = AnalysisMode::parse(value)?,
            "device" => match Device::ALL.into_iter().find(|d| d.token() == value) {
                Some(device) => self.device = device,
                None => return Err(bad("expected m1 or m2".into())),
            },
            "kernel" => self.kernel = parsed(value).map_err(bad)?,
            "fleet" => self.fleet = parsed(value).map_err(bad)?,
            "traces" => self.traces = parse_traces(value).map_err(bad)?,
            "shards" => self.shards = parse_shards(value).map_err(bad)?,
            "seed" => self.seed = parse_seed(value).map_err(bad)?,
            "key" => self.key = parse_key_hex(value).map_err(bad)?,
            "every" => self.every = parsed::<NonZeroU64>(value).map_err(bad)?.get(),
            "cpa_unroll" => self.tune.cpa_unroll = parsed(value).map_err(bad)?,
            "obs_chunk" => self.tune.obs_chunk = parsed(value).map_err(bad)?,
            "replay_chunk" => self.tune.replay_chunk = parsed(value).map_err(bad)?,
            "bus_capacity" => self.tune.bus_capacity = parsed(value).map_err(bad)?,
            "mitigation" => self.mitigation = Some(MitigationSetting::parse(value)?),
            "record" => self.record = Some(value.to_owned()),
            "monitor" => self.monitor = Some(parse_monitor_interval(value).map_err(bad)?),
            _ => return Err(format!("unknown field {name:?}")),
        }
        Ok(())
    }
}

/// Parse a value with its type's own [`FromStr`] (`bool` takes exactly
/// `true` or `false`).
fn parsed<T: FromStr>(value: &str) -> Result<T, String>
where
    T::Err: Display,
{
    value.parse().map_err(|e: T::Err| e.to_string())
}

/// Parse a cadence-monitor poll interval: at least
/// [`MIN_MONITOR_INTERVAL_S`] simulated seconds (`inf` included). The one
/// check every front end shares (`psc` flags, spec files, `psc serve`),
/// so a zero, negative, NaN or vanishing interval is refused at the edge
/// instead of panicking or spinning inside [`Campaign::monitor`].
/// `psc campaign --progress` reads its wall-clock interval through it
/// too, so it prints at most 100 progress lines a second.
///
/// # Errors
///
/// Returns a message for non-numbers and for values below the floor.
pub fn parse_monitor_interval(s: &str) -> Result<f64, String> {
    let interval_s = s.parse::<f64>().map_err(|e| e.to_string())?;
    if interval_s >= MIN_MONITOR_INTERVAL_S {
        Ok(interval_s)
    } else {
        Err(format!("interval must be at least {MIN_MONITOR_INTERVAL_S} s, got {interval_s:?}"))
    }
}

/// The most shards one campaign may request: each shard runs a producer
/// and a consumer thread.
pub const MAX_SHARDS: usize = 256;

/// Parse a shard count: an integer in `1..=`[`MAX_SHARDS`]. The one check
/// every front end shares (`psc` flags, spec files, `psc serve`), so a
/// typo is refused instead of silently falling back to a default, and a
/// huge count never spawns thousands of threads.
///
/// # Errors
///
/// Returns a message for non-integers and out-of-range counts.
pub fn parse_shards(s: &str) -> Result<usize, String> {
    let shards = s.parse::<usize>().map_err(|e| e.to_string())?;
    if (1..=MAX_SHARDS).contains(&shards) {
        Ok(shards)
    } else {
        Err(format!("shard count must be in 1..={MAX_SHARDS}, got {shards}"))
    }
}

/// Parse a trace budget: a positive integer, the one check every front
/// end shares (`psc` flags, spec files, `psc serve`).
///
/// # Errors
///
/// Returns a message for non-integers and zero.
pub fn parse_traces(s: &str) -> Result<usize, String> {
    match s.parse::<usize>().map_err(|e| e.to_string())? {
        0 => Err("trace count must be positive, got 0".into()),
        traces => Ok(traces),
    }
}

/// Parse a master simulation seed: an unsigned 64-bit integer.
///
/// # Errors
///
/// Returns a message for anything else.
pub fn parse_seed(s: &str) -> Result<u64, String> {
    s.parse::<u64>().map_err(|e| e.to_string())
}

/// Parse a 32-hex-character AES-128 key (whitespace ignored).
///
/// # Errors
///
/// Returns a message for non-hex characters and wrong lengths.
pub fn parse_key_hex(hex: &str) -> Result<[u8; 16], String> {
    let hex: String = hex.chars().filter(|c| !c.is_whitespace()).collect();
    // Only ASCII hex digits, so the two-byte slices below fall on
    // character boundaries (and `+f` is no byte).
    if let Some(c) = hex.chars().find(|c| !c.is_ascii_hexdigit()) {
        return Err(format!("key holds non-hex character {c:?}"));
    }
    if hex.len() != 32 {
        return Err(format!("key must be 32 hex chars, got {}", hex.len()));
    }
    let mut out = [0u8; 16];
    for (i, byte) in out.iter_mut().enumerate() {
        *byte = u8::from_str_radix(&hex[2 * i..2 * i + 2], 16)
            .map_err(|e| format!("bad hex at byte {i}: {e}"))?;
    }
    Ok(out)
}

impl Campaign {
    /// Build the [`Campaign`] a spec describes: source topology (live
    /// rig or fleet), keys, budgets, mitigation, tuned constants,
    /// recording, monitor cadence, and the adaptive early-stop policy.
    /// Runtime-only concerns (metrics, tracing, checkpoint/resume
    /// directories, stop flags) are layered on by the caller with the
    /// ordinary builder methods — they never change the report bytes.
    #[must_use]
    pub fn from_spec(spec: &CampaignSpec) -> Self {
        if spec.fleet {
            Self::from_spec_over(Fleet::new(spec.fleet_members(), spec.key, spec.seed), spec)
        } else {
            let rig = LiveRig::new(spec.device, spec.victim_kind(), spec.key, spec.seed);
            Self::from_spec_over(rig, spec)
        }
    }

    /// [`Campaign::from_spec`] over `source` instead of the spec's own
    /// topology (a distributed fleet member's `FleetShard`).
    #[must_use]
    pub fn from_spec_over(source: impl TraceSource + 'static, spec: &CampaignSpec) -> Self {
        let mut campaign = Campaign::from_source(source)
            .keys(&spec.keys())
            .traces(spec.traces)
            .shards(spec.shards)
            .mitigation(spec.mitigation.unwrap_or(MitigationSetting::None).to_config())
            .tune(spec.tune);
        if let Some(dir) = &spec.record {
            campaign = campaign.record_to(dir.as_str());
        }
        if let Some(interval_s) = spec.monitor {
            campaign = campaign.monitor(interval_s);
        }
        if spec.mode == AnalysisMode::Adaptive {
            campaign = campaign.early_stop(CampaignSpec::adaptive_watch());
        }
        campaign
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CampaignSpec {
        let cfg = ExperimentConfig::default();
        CampaignSpec::new(AnalysisMode::Tvla, Device::MacbookAirM2, &cfg)
    }

    #[test]
    fn render_parse_round_trips() {
        let mut spec = sample();
        spec.mitigation = Some(MitigationSetting::Noise(0.125));
        spec.record = Some("out/shards".into());
        spec.monitor = Some(2.5);
        assert_eq!(CampaignSpec::parse(&spec.render()).unwrap(), spec);
    }

    #[test]
    fn render_bytes_are_pinned() {
        // Existing `campaign.cfg` files (checkpoint directories, serve
        // spools, fleet spec files) depend on these exact bytes, field
        // order included. The fleet handshake hashes the campaign
        // identity record, not these bytes.
        let spec = CampaignSpec {
            mode: AnalysisMode::Cpa,
            device: Device::MacMiniM1,
            kernel: true,
            fleet: true,
            traces: 1234,
            shards: 3,
            seed: 42,
            key: std::array::from_fn(|i| i as u8),
            every: 5,
            tune: TuneConfig { cpa_unroll: 2, obs_chunk: 16, replay_chunk: 100, bus_capacity: 8 },
            mitigation: Some(MitigationSetting::Noise(0.125)),
            record: Some("out/shards".into()),
            monitor: Some(2.5),
        };
        let expected = "mode=cpa\ndevice=m1\nkernel=true\nfleet=true\ntraces=1234\nshards=3\n\
                        seed=42\nkey=000102030405060708090a0b0c0d0e0f\nevery=5\ncpa_unroll=2\n\
                        obs_chunk=16\nreplay_chunk=100\nbus_capacity=8\nmitigation=noise=0.125\n\
                        record=out/shards\nmonitor=2.5\n";
        assert_eq!(spec.render(), expected);
        assert_eq!(CampaignSpec::parse(expected).unwrap(), spec);
    }

    #[test]
    fn parse_accepts_legacy_minimal_files() {
        // Files from before the tune/kernel/fleet lines existed.
        let text = "mode=cpa\ndevice=m1\ntraces=100\nshards=2\nseed=7\n\
                    key=000102030405060708090a0b0c0d0e0f\nevery=4\n";
        let spec = CampaignSpec::parse(text).unwrap();
        assert_eq!(spec.mode, AnalysisMode::Cpa);
        assert_eq!(spec.device, Device::MacMiniM1);
        assert!(!spec.kernel && !spec.fleet);
        assert_eq!(spec.tune, TuneConfig::default());
        assert_eq!(spec.key[1], 0x01);
    }

    #[test]
    fn parse_rejects_bad_fields() {
        assert!(CampaignSpec::parse("").is_err());
        let good = sample().render();
        assert!(CampaignSpec::parse(&good.replace("mode=tvla", "mode=voodoo")).is_err());
        assert!(CampaignSpec::parse(&good.replace("device=m2", "device=m9")).is_err());
        assert!(CampaignSpec::parse(&good.replace("every=8", "every=0")).is_err());
        assert!(CampaignSpec::parse(&good.replace("obs_chunk=", "obs_chunk=x")).is_err());
        // A flag that is not exactly `true`/`false` must not fall back to
        // the user-space victim or a single device; a repeated field must
        // not let its last line win; a misspelt field must not be skipped.
        for edited in [
            good.replace("kernel=false", "kernel=yes"),
            good.replace("fleet=false", "fleet=1"),
            good.replace("traces=2500\n", "traces=2500\ntraces=8\n"),
            format!("{good}mitigaton=restrict\n"),
        ] {
            assert!(CampaignSpec::parse(&edited).is_err(), "{edited:?} must be refused");
        }
        let mut spec = sample();
        for record in ["r1\nr2", "r1 ", "r1\t"] {
            assert!(spec.set("record", record).is_err(), "record={record:?} cannot round-trip");
        }
        let counted = CampaignSpec { traces: 40, shards: 2, ..sample() }.render();
        for shards in ["0", "257", "3000", "abc", "-1", ""] {
            let text = counted.replace("shards=2\n", &format!("shards={shards}\n"));
            assert!(CampaignSpec::parse(&text).is_err(), "shards={shards} must be refused");
        }
        for shards in ["1", "256"] {
            let text = counted.replace("shards=2\n", &format!("shards={shards}\n"));
            assert!(CampaignSpec::parse(&text).is_ok(), "shards={shards} must parse");
        }
        for traces in ["0", "abc", "-5", "1e3", ""] {
            let text = counted.replace("traces=40\n", &format!("traces={traces}\n"));
            assert!(CampaignSpec::parse(&text).is_err(), "traces={traces} must be refused");
        }
        for monitor in ["0", "-1", "NaN", "1e-300", "0.000001"] {
            let text = format!("{good}monitor={monitor}\n");
            assert!(CampaignSpec::parse(&text).is_err(), "monitor={monitor} must be refused");
        }
        for monitor in ["0.01", "0.5", "inf"] {
            let text = format!("{good}monitor={monitor}\n");
            assert!(CampaignSpec::parse(&text).is_ok(), "monitor={monitor} must parse");
        }
        let refused = [
            "noise=NaN",
            "noise=inf",
            "noise=-inf",
            "noise=-1",
            "slow=0",
            "slow=-2",
            "slow=0.5",
            "slow=NaN",
            "slow=inf",
            "noise=1e300",
            "noise=100.5",
            "slow=1e300",
            "slow=1001",
            "bogus",
            "noise=x",
        ];
        for mitigation in refused {
            let text = format!("{good}mitigation={mitigation}\n");
            assert!(CampaignSpec::parse(&text).is_err(), "mitigation={mitigation} must be refused");
        }
        for mitigation in
            ["noise=0", "noise=0.2", "noise=100", "slow=1", "slow=4", "slow=1000", "noise", "slow"]
        {
            let text = format!("{good}mitigation={mitigation}\n");
            assert!(CampaignSpec::parse(&text).is_ok(), "mitigation={mitigation} must parse");
        }
    }

    #[test]
    fn cpa_keys_drop_phps_and_fleet_intersects() {
        let mut spec = sample();
        assert!(spec.keys().contains(&key("PHPS")));
        spec.mode = AnalysisMode::Cpa;
        assert!(!spec.keys().contains(&key("PHPS")));
        spec.fleet = true;
        let keys = spec.keys();
        for member in spec.fleet_members() {
            for k in &keys {
                assert!(member.device.table2_keys().contains(k));
            }
        }
    }
}
