//! Self-calibrating autotuner for the pipeline's block-size and kernel
//! constants.
//!
//! The analysis kernels and the campaign driver are parameterized by a
//! handful of constants whose best values depend on the host — cache
//! sizes, SIMD width, core count: the CPA correlation sweep's unroll
//! width ([`psc_sca::cpa::Cpa::set_unroll`]), the collection loops' block
//! size ([`crate::source::OBS_CHUNK`]), the replay codec's read window
//! ([`crate::source::REPLAY_CHUNK`]) and the shard bus depth
//! ([`crate::session::BUS_CAPACITY`]). [`calibrate`] measures each
//! candidate **in process** with the real kernels on synthetic workloads
//! and returns the winning [`TuneConfig`]; [`TuneConfig::save`] /
//! [`TuneConfig::load`] cache the result as a small JSON file so a
//! campaign start does not pay the sweep again.
//!
//! None of the tuned constants changes analysis *results*, only speed:
//! every accumulator consumes its observations in row order regardless of
//! how the stream is chunked, the CPA unroll only regroups independent
//! per-guess chains, and the bus depth is pure backpressure. The pinned
//! campaign tests in this module assert that bit-identity.

use crate::session::BUS_CAPACITY;
use crate::source::{OBS_CHUNK, REPLAY_CHUNK};
use psc_sca::cpa::Cpa;
use psc_sca::model::Rd0Hw;
use psc_sca::trace::Trace;
use psc_telemetry::json::{validate_json, JsonWriter, Layout};
use std::time::Instant;

/// Tuned pipeline constants (see the module docs for what each controls).
/// `Default` is the hand-picked baseline the workspace shipped with — a
/// campaign run without calibration behaves exactly as before.
///
/// Only `obs_chunk` is part of the campaign
/// [`Identity`](crate::checkpoint::Identity): checkpoint offsets count
/// whole blocks, so a frame taken under one block size cannot resume
/// under another. `cpa_unroll`, `replay_chunk` and `bus_capacity` change
/// throughput only, so a resume (or a fleet worker) may differ in them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneConfig {
    /// CPA correlation-sweep unroll width (four-guess vectors per sweep
    /// block);
    /// one of [`Cpa::UNROLL_WIDTHS`].
    pub cpa_unroll: usize,
    /// Observations per [`psc_telemetry::block::EventBlock`] in the
    /// collection loops.
    pub obs_chunk: usize,
    /// Recorded traces per codec read in the replay path.
    pub replay_chunk: usize,
    /// Shard bus depth, in blocks.
    pub bus_capacity: usize,
}

impl Default for TuneConfig {
    fn default() -> Self {
        Self {
            cpa_unroll: Cpa::DEFAULT_UNROLL,
            obs_chunk: OBS_CHUNK,
            replay_chunk: REPLAY_CHUNK,
            bus_capacity: BUS_CAPACITY,
        }
    }
}

/// Candidate observation-chunk sizes swept by [`calibrate`].
pub const OBS_CHUNK_CANDIDATES: [usize; 4] = [16, 32, 64, 128];
/// Candidate replay read windows swept by [`calibrate`].
pub const REPLAY_CHUNK_CANDIDATES: [usize; 4] = [256, 512, 1024, 2048];
/// Candidate bus depths swept by [`calibrate`].
pub const BUS_CAPACITY_CANDIDATES: [usize; 4] = [32, 64, 128, 256];

impl TuneConfig {
    /// Render as one line of JSON. The `simd_backend` field records which
    /// vector backend was active when the config was produced — it is
    /// informational and ignored by [`TuneConfig::from_json`].
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = JsonWriter::object(Layout::Inline);
        out.field("cpa_unroll", self.cpa_unroll)
            .field("obs_chunk", self.obs_chunk)
            .field("replay_chunk", self.replay_chunk)
            .field("bus_capacity", self.bus_capacity)
            .string("simd_backend", pulp::backend_name());
        out.finish()
    }

    /// Parse a config previously written by [`TuneConfig::to_json`].
    /// Unknown keys are ignored and missing keys keep their defaults, so
    /// configs survive field additions in either direction.
    ///
    /// # Errors
    ///
    /// Returns a message when `input` is not syntactically valid JSON,
    /// when a known key has a non-integer value, or when a parsed value
    /// fails [`TuneConfig::validate`].
    pub fn from_json(input: &str) -> Result<Self, String> {
        validate_json(input)?;
        let mut cfg = Self::default();
        for (key, field) in [
            ("cpa_unroll", &mut cfg.cpa_unroll as &mut usize),
            ("obs_chunk", &mut cfg.obs_chunk),
            ("replay_chunk", &mut cfg.replay_chunk),
            ("bus_capacity", &mut cfg.bus_capacity),
        ] {
            if let Some(value) = json_usize_field(input, key)? {
                *field = value;
            }
        }
        cfg.validate()?;
        Ok(cfg)
    }

    /// Check the invariants the campaign driver relies on.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field: the unroll width
    /// must be one of [`Cpa::UNROLL_WIDTHS`] and every block size must be
    /// positive.
    pub fn validate(&self) -> Result<(), String> {
        if !Cpa::UNROLL_WIDTHS.contains(&self.cpa_unroll) {
            return Err(format!(
                "cpa_unroll {} is not one of {:?}",
                self.cpa_unroll,
                Cpa::UNROLL_WIDTHS
            ));
        }
        for (name, value) in [
            ("obs_chunk", self.obs_chunk),
            ("replay_chunk", self.replay_chunk),
            ("bus_capacity", self.bus_capacity),
        ] {
            if value == 0 {
                return Err(format!("{name} must be positive"));
            }
        }
        Ok(())
    }

    /// Write the config (as [`TuneConfig::to_json`]) to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error on failure.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json() + "\n")
    }

    /// Load a config cached by [`TuneConfig::save`].
    ///
    /// # Errors
    ///
    /// I/O errors reading `path`, or [`std::io::ErrorKind::InvalidData`]
    /// when the file does not parse as a tune config.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// Extract `"key": <non-negative integer>` from a flat JSON object,
/// `Ok(None)` when the key is absent.
fn json_usize_field(input: &str, key: &str) -> Result<Option<usize>, String> {
    let needle = format!("\"{key}\"");
    let Some(at) = input.find(&needle) else { return Ok(None) };
    let rest = input[at + needle.len()..]
        .trim_start()
        .strip_prefix(':')
        .ok_or_else(|| format!("{key} is not followed by a value"))?
        .trim_start();
    let end = rest.find(|c: char| c == ',' || c == '}' || c.is_whitespace()).unwrap_or(rest.len());
    let value = &rest[..end];
    match value.parse() {
        Ok(n) if value.bytes().all(|b| b.is_ascii_digit()) => Ok(Some(n)),
        _ => Err(format!("{key} is not a non-negative integer")),
    }
}

/// Median wall time of `f` over `reps` runs, in nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut()) -> u64 {
    let mut samples: Vec<u64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// The argmin candidate under `cost` (first winner on ties, so the sweep
/// is deterministic given the measurements).
fn fastest<const N: usize>(candidates: [usize; N], mut cost: impl FnMut(usize) -> u64) -> usize {
    let mut best = candidates[0];
    let mut best_ns = u64::MAX;
    for c in candidates {
        let ns = cost(c);
        if ns < best_ns {
            best_ns = ns;
            best = c;
        }
    }
    best
}

/// A deterministic synthetic CPA accumulator (fixed trace count, SplitMix
/// plaintexts/values) — enough bins populated that the correlation sweep
/// runs its full 16×256 workload.
fn synthetic_cpa(traces: usize) -> Cpa {
    let mut cpa = Cpa::new(Box::new(Rd0Hw));
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state = state.wrapping_mul(0xD129_0286_13FD_5C8D).wrapping_add(0x2545_F491_4F6C_DD1D);
        state
    };
    for _ in 0..traces {
        let mut plaintext = [0u8; 16];
        for chunk in plaintext.chunks_exact_mut(8) {
            chunk.copy_from_slice(&next().to_le_bytes());
        }
        let value = (next() % 1024) as f64 * 0.01;
        cpa.add_trace(&Trace { value, plaintext, ciphertext: [0; 16] });
    }
    cpa
}

/// Pick the fastest CPA correlation unroll width on this host: each
/// candidate runs the real [`Cpa::correlations_all_into`] sweep over a
/// synthetic accumulator, median-of-`reps`.
fn calibrate_cpa_unroll(reps: usize) -> usize {
    let mut cpa = synthetic_cpa(256);
    let mut out = [[0.0f64; 256]; 16];
    fastest(Cpa::UNROLL_WIDTHS, |unroll| {
        cpa.set_unroll(unroll);
        median_ns(reps, || {
            cpa.correlations_all_into(&mut out);
            std::hint::black_box(&out);
        })
    })
}

/// Pick the fastest collection block size: each candidate drives a real
/// [`crate::rig::Rig`] through `total` observations in candidate-sized
/// batches (the exact inner loop of the live sources).
fn calibrate_obs_chunk(reps: usize, total: usize) -> usize {
    use crate::rig::{Device, Rig};
    use crate::victim::VictimKind;
    let keys = [psc_smc::key::key("PHPC")];
    let mut rig = Rig::new(Device::MacbookAirM2, VictimKind::UserSpace, [0x3C; 16], 41);
    let mut pts: Vec<[u8; 16]> = Vec::new();
    fastest(OBS_CHUNK_CANDIDATES, |chunk| {
        median_ns(reps, || {
            let mut remaining = total;
            while remaining > 0 {
                let take = remaining.min(chunk);
                pts.clear();
                pts.extend((0..take).map(|_| rig.random_plaintext()));
                rig.observe_windows_with(&pts, &keys, |obs| {
                    std::hint::black_box(obs.pcpu_delta_mj);
                });
                remaining -= take;
            }
        })
    })
}

/// Write a synthetic aligned recording into `dir`: one file per channel
/// (`PCPU` and four SMC keys) of `rows` known-plaintext observations.
fn synthetic_recording(dir: &std::path::Path, rows: usize) -> Option<crate::source::ShardReplay> {
    use psc_sca::codec::{self, LabeledTrace};
    std::fs::create_dir_all(dir).ok()?;
    for (c, label) in ["PCPU", "PDTR", "PHPC", "PMVC", "PSTR"].into_iter().enumerate() {
        let traces: Vec<LabeledTrace> = (0..rows)
            .map(|i| LabeledTrace {
                trace: Trace {
                    value: (i * 5 + c) as f64 * 0.001,
                    plaintext: [i as u8; 16],
                    ciphertext: [(i >> 8) as u8; 16],
                },
                pass: 0,
                class: None,
            })
            .collect();
        let file = std::fs::File::create(dir.join(format!("{label}-s000-0000.psct"))).ok()?;
        codec::write_recording(label, &traces, file).ok()?;
    }
    crate::source::ShardReplay::from_dir(dir).ok()
}

/// Pick the fastest replay read window: each candidate replays a
/// synthetic five-channel recording through the real
/// [`crate::source::ShardReplay`] lockstep merge (codec windows of the
/// candidate size merged into `obs_chunk`-row blocks, handed to a sink
/// that drops them). The files are page-cached after the first read, so
/// disk latency — the workload's, not the sweep's, to measure — stays
/// out. Falls back to [`REPLAY_CHUNK`] when no temp file can be written.
fn calibrate_replay_chunk(reps: usize, obs_chunk: usize) -> usize {
    use crate::source::{Schedule, ShardPlan, TraceSource};
    use psc_telemetry::faults::RetryPolicy;
    const ROWS: usize = 2048;
    let dir = std::env::temp_dir().join(format!("psc-tune-replay-{}", std::process::id()));
    let best = synthetic_recording(&dir, ROWS).map_or(REPLAY_CHUNK, |replay| {
        let stop = std::sync::atomic::AtomicBool::new(false);
        fastest(REPLAY_CHUNK_CANDIDATES, |replay_chunk| {
            let plan = ShardPlan {
                shard: 0,
                keys: &[],
                mitigation: None,
                schedule: Schedule::KnownPlaintext { traces: ROWS },
                skip_obs: 0,
                resume_rng_offset: None,
                retry: RetryPolicy::default(),
                faults: None,
                log: None,
                obs_chunk,
                replay_chunk,
            };
            median_ns(reps, || {
                replay.run_shard(&plan, &mut |block| _ = std::hint::black_box(block.len()), &stop);
            })
        })
    });
    std::fs::remove_dir_all(&dir).ok();
    best
}

/// Pick the fastest shard-bus depth: each candidate pushes a fixed block
/// stream through a real bounded ring (producer thread + consumer
/// thread, `Block` backpressure) and measures the end-to-end drain time.
fn calibrate_bus_capacity(reps: usize, blocks: usize) -> usize {
    use psc_telemetry::block::EventBlock;
    use psc_telemetry::event::{ChannelId, SchedEvent, WindowEvent};
    use psc_telemetry::ring::{channel, OverflowPolicy};
    fastest(BUS_CAPACITY_CANDIDATES, |capacity| {
        median_ns(reps, || {
            let (tx, rx) = channel::<EventBlock>(capacity, OverflowPolicy::Block);
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    for seq in 0..blocks as u64 {
                        let mut block = EventBlock::new();
                        block.reset(&[ChannelId::Pcpu]);
                        block.begin(WindowEvent {
                            seq,
                            time_s: seq as f64,
                            pass: 0,
                            class: None,
                            plaintext: [0; 16],
                            ciphertext: [0; 16],
                        });
                        block.sample(0, seq as f64);
                        block.commit(SchedEvent {
                            time_s: seq as f64,
                            windows_consumed: 1,
                            window_s: 1.0,
                            denied_reads: 0,
                        });
                        tx.send(block).expect("consumer alive");
                    }
                    drop(tx);
                });
                let mut consumed = 0usize;
                while let Some(block) = rx.recv() {
                    consumed += block.len();
                }
                std::hint::black_box(consumed);
            });
        })
    })
}

/// The SIMD backend the dispatcher resolved for this process: `"avx2"`,
/// `"neon"`, or `"scalar"` (see `pulp::backend_name`; `PSC_SIMD=off`
/// pins `"scalar"`).
#[must_use]
pub fn backend() -> &'static str {
    pulp::backend_name()
}

/// One-shot in-process calibration: sweep every tunable constant with
/// the real kernels on synthetic workloads and return the winning
/// configuration. Takes on the order of a second at the default effort;
/// set the `PSC_TUNE_REPS` environment variable (1–9, default 3) to
/// trade accuracy against sweep time.
#[must_use]
pub fn calibrate() -> TuneConfig {
    let reps = std::env::var("PSC_TUNE_REPS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(3, |v| v.clamp(1, 9));
    let cpa_unroll = calibrate_cpa_unroll(reps);
    let obs_chunk = calibrate_obs_chunk(reps, 128);
    let replay_chunk = calibrate_replay_chunk(reps, obs_chunk);
    let bus_capacity = calibrate_bus_capacity(reps, 64);
    TuneConfig { cpa_unroll, obs_chunk, replay_chunk, bus_capacity }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_shipped_constants() {
        let d = TuneConfig::default();
        assert_eq!(d.cpa_unroll, Cpa::DEFAULT_UNROLL);
        assert_eq!(d.obs_chunk, OBS_CHUNK);
        assert_eq!(d.replay_chunk, REPLAY_CHUNK);
        assert_eq!(d.bus_capacity, BUS_CAPACITY);
        assert!(d.validate().is_ok());
    }

    #[test]
    fn json_round_trip_is_lossless_and_valid() {
        let cfg = TuneConfig { cpa_unroll: 8, obs_chunk: 64, replay_chunk: 512, bus_capacity: 256 };
        let json = cfg.to_json();
        validate_json(&json).expect("emitted JSON is valid");
        assert!(json.contains("\"simd_backend\""));
        assert_eq!(TuneConfig::from_json(&json).expect("round trip"), cfg);
    }

    #[test]
    fn from_json_defaults_missing_keys_and_rejects_garbage() {
        let partial = TuneConfig::from_json("{\"obs_chunk\": 16}").expect("partial config");
        assert_eq!(partial.obs_chunk, 16);
        assert_eq!(partial.cpa_unroll, Cpa::DEFAULT_UNROLL);
        assert!(TuneConfig::from_json("{\"obs_chunk\": }").is_err(), "invalid JSON");
        assert!(TuneConfig::from_json("{\"obs_chunk\": 0}").is_err(), "zero chunk");
        assert!(TuneConfig::from_json("{\"cpa_unroll\": 3}").is_err(), "bad unroll");
        assert!(TuneConfig::from_json("{\"obs_chunk\": \"x\"}").is_err(), "non-integer");
        assert!(TuneConfig::from_json("{\"obs_chunk\": 16.5}").is_err(), "fraction");
        assert!(TuneConfig::from_json("{\"bus_capacity\": 1e3}").is_err(), "exponent");
        assert!(TuneConfig::from_json("{\"obs_chunk\": -16}").is_err(), "negative");
    }

    #[test]
    fn save_load_round_trips() {
        let cfg = TuneConfig { cpa_unroll: 2, obs_chunk: 128, ..TuneConfig::default() };
        let path = std::env::temp_dir().join(format!("psc-tune-{}.json", std::process::id()));
        cfg.save(&path).expect("write");
        assert_eq!(TuneConfig::load(&path).expect("read"), cfg);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn calibrate_yields_a_valid_config() {
        std::env::set_var("PSC_TUNE_REPS", "1");
        let cfg = calibrate();
        cfg.validate().expect("calibrated config is valid");
        assert!(OBS_CHUNK_CANDIDATES.contains(&cfg.obs_chunk));
        assert!(REPLAY_CHUNK_CANDIDATES.contains(&cfg.replay_chunk));
        assert!(BUS_CAPACITY_CANDIDATES.contains(&cfg.bus_capacity));
    }
}
