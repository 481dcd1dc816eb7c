//! The one timing harness of the kernel and ablation benches.
//!
//! A bench opens one [`Run`], times each kernel through
//! [`Run::measure_ns`], adds the figures it derives from those timings
//! with [`Run::field`], and closes with [`Run::finish`], which appends
//! the whole run as one JSON line to the bench history. Every kernel is
//! timed the same way: one estimation pass sizes the iteration count to
//! the per-kernel budget (`PSC_BENCH_BUDGET_MS`, default 300 ms), then
//! 9 timed samples give its median and interquartile range. Each line
//! starts with the run's environment — bench name, Unix time, CPU count,
//! SIMD backend, source revision, budget and sample count — so lines from
//! different hosts, backends or commits are never mistaken for one
//! another.

use psc_telemetry::json::{JsonWriter, Layout};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Timed samples per kernel.
const SAMPLES: usize = 9;

/// Per-kernel time budget from `PSC_BENCH_BUDGET_MS` (default 300 ms;
/// CI smokes the benches with a few milliseconds).
fn budget() -> Duration {
    let ms = std::env::var("PSC_BENCH_BUDGET_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(300);
    Duration::from_millis(ms.max(1))
}

/// The history file runs append to: `PSC_BENCH_OUT` if set, else
/// `target/bench-history.jsonl` under the workspace root.
fn history_path() -> PathBuf {
    std::env::var_os("PSC_BENCH_OUT").map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/bench-history.jsonl"),
        PathBuf::from,
    )
}

/// `git rev-parse --short=12 HEAD` of the workspace checkout, or
/// `"unknown"` outside one.
fn revision() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let git = root.join(".git").exists().then(|| {
        std::process::Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(["rev-parse", "--short=12", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
    });
    match git {
        Some(Ok(out)) if out.status.success() => {
            String::from_utf8_lossy(&out.stdout).trim().to_owned()
        }
        _ => "unknown".to_owned(),
    }
}

/// Median and interquartile range of one kernel's per-iteration times.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Spread {
    median_ns: f64,
    iqr_ns: f64,
}

impl Spread {
    /// Nearest-rank median and quartiles of `samples`, which it sorts;
    /// `samples` must not be empty.
    fn of(samples: &mut [f64]) -> Self {
        samples.sort_by(f64::total_cmp);
        let rank = |p: f64| samples[(p * samples.len() as f64).ceil().max(1.0) as usize - 1];
        Self { median_ns: rank(0.5), iqr_ns: rank(0.75) - rank(0.25) }
    }
}

/// One bench run: its environment header, then one member per timed
/// kernel (`"kernel": {"median_ns": …, "iqr_ns": …}`) or derived figure,
/// in call order.
#[derive(Debug)]
pub struct Run {
    bench: &'static str,
    budget: Duration,
    json: JsonWriter,
}

impl Run {
    /// Open a run of `bench` under the per-kernel budget from
    /// `PSC_BENCH_BUDGET_MS`.
    #[must_use]
    pub fn start(bench: &'static str) -> Self {
        Self::new(bench, budget())
    }

    pub(crate) fn new(bench: &'static str, budget: Duration) -> Self {
        let epoch_s = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
        let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let mut json = JsonWriter::object(Layout::Inline);
        json.string("bench", bench)
            .field("unix_time_s", epoch_s)
            .field("cpus", cpus)
            .string("simd_backend", pulp::backend_name())
            .string("revision", &revision())
            .field("budget_ms", budget.as_millis())
            .field("samples", SAMPLES);
        Self { bench, budget, json }
    }

    /// Time `f` as the kernel `kernel`: record its median and IQR, print
    /// a `bench/kernel  median: … ns/iter` line, and return the median.
    pub fn measure_ns(&mut self, kernel: &str, mut f: impl FnMut()) -> f64 {
        let start = Instant::now();
        f();
        let est = start.elapsed().max(Duration::from_nanos(1));
        let per_sample = self.budget.as_nanos() / SAMPLES as u128;
        let iters = (per_sample / est.as_nanos()).clamp(1, 4_000_000) as u64;

        let mut per_iter = [0.0; SAMPLES];
        for sample in &mut per_iter {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            *sample = start.elapsed().as_nanos() as f64 / iters as f64;
        }
        let Spread { median_ns, iqr_ns } = Spread::of(&mut per_iter);
        let label = format!("{}/{kernel}", self.bench);
        println!(
            "{label:<58} median: {median_ns:>12.1} ns/iter  iqr: {iqr_ns:>10.1}  ({iters} iters)"
        );
        let mut spread = JsonWriter::object(Layout::Inline);
        spread.field("median_ns", format_args!("{median_ns:.3}"));
        spread.field("iqr_ns", format_args!("{iqr_ns:.3}"));
        self.json.field(kernel, spread.finish());
        median_ns
    }

    /// Record a figure derived from the timings, or a fixed parameter of
    /// the run, to three decimals.
    pub fn field(&mut self, key: &str, value: f64) -> &mut Self {
        self.json.field(key, format_args!("{value:.3}"));
        self
    }

    /// Record a string member.
    pub fn string(&mut self, key: &str, value: &str) -> &mut Self {
        self.json.string(key, value);
        self
    }

    /// Append the run as one JSON line to the bench history:
    /// `PSC_BENCH_OUT` if set, else `target/bench-history.jsonl` under the
    /// workspace root.
    ///
    /// # Panics
    ///
    /// Panics if the history cannot be written (a CI failure, not a
    /// recoverable condition for a bench run).
    pub fn finish(self) {
        let path = history_path();
        self.append_to(&path);
        println!("appended to {}", path.display());
    }

    fn append_to(self, path: &Path) {
        let line = self.json.finish() + "\n";
        path.parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::OpenOptions::new().create(true).append(true).open(path))
            .and_then(|mut file| file.write_all(line.as_bytes()))
            .unwrap_or_else(|e| panic!("append {}: {e}", path.display()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_pins_median_and_iqr() {
        let mut samples = [9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0];
        assert_eq!(Spread::of(&mut samples), Spread { median_ns: 5.0, iqr_ns: 4.0 });
        let mut skewed = [100.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0];
        assert_eq!(Spread::of(&mut skewed), Spread { median_ns: 14.0, iqr_ns: 4.0 });
    }

    #[test]
    fn header_and_fields_form_valid_shape() {
        let mut run = Run::new("unit_test", Duration::from_millis(5));
        run.field("alpha_ns", 12.3456).string("mode", "a\"b");
        let line = run.json.finish();
        assert!(!line.contains('\n'), "one line per run: {line}");
        assert!(line.starts_with("{\"bench\": \"unit_test\", \"unix_time_s\": "), "{line}");
        assert!(line.ends_with("\"alpha_ns\": 12.346, \"mode\": \"a\\\"b\"}"), "{line}");
        for member in [
            ", \"cpus\": ",
            &format!(", \"simd_backend\": \"{}\"", pulp::backend_name()),
            &format!(", \"revision\": \"{}\"", revision()),
            ", \"budget_ms\": 5, \"samples\": 9, ",
        ] {
            assert!(line.contains(member), "{member:?} in {line}");
        }
        let rev = revision();
        let hex = rev.len() == 12 && rev.bytes().all(|b| b.is_ascii_hexdigit());
        assert!(hex || rev == "unknown", "revision {rev:?}");
        psc_telemetry::json::validate_json(&line).expect("the line parses");
    }

    #[test]
    fn runs_append_one_valid_json_line_each() {
        let path =
            std::env::temp_dir().join(format!("psc_bench_history_{}.jsonl", std::process::id()));
        std::fs::remove_file(&path).ok();
        for kernel in ["alpha", "beta"] {
            let mut run = Run::new("unit_test", Duration::from_millis(5));
            run.measure_ns(kernel, || {});
            run.field("derived", 12.3456);
            run.append_to(&path);
        }
        let history = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = history.lines().collect();
        assert_eq!(lines.len(), 2, "one line per run: {history}");
        for (line, kernel) in lines.iter().zip(["alpha", "beta"]) {
            psc_telemetry::json::validate_json(line).expect("each line parses");
            for member in [
                "{\"bench\": \"unit_test\", \"unix_time_s\": ",
                ", \"budget_ms\": 5, \"samples\": 9, ",
                &format!("\"{kernel}\": {{\"median_ns\": "),
                ", \"iqr_ns\": ",
                "\"derived\": 12.346}",
            ] {
                assert!(line.contains(member), "{member:?} in {line}");
            }
        }
    }

    #[test]
    fn budget_defaults_positive() {
        assert!(budget() >= Duration::from_millis(1));
    }
}
