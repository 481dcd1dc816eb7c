//! Wall-clock micro-measurement helpers shared by the `*_kernels`
//! benches, so every `BENCH_*.json` artifact is produced with one
//! methodology (same budget handling, same iteration sizing, same median
//! estimator) and the numbers stay comparable across benches.

use psc_telemetry::json::{JsonWriter, Layout};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Samples per kernel measurement (the reported value is their median).
pub const SAMPLES: usize = 9;

/// `Cpa::correlations` for one key byte on the 1-CPU reference container
/// before the branch-free rewrite (the guess-major loop with the per-bin
/// zero-count branch, recorded in `BENCH_leakage.json`). One shared
/// baseline so the leakage and bus kernel benches report their
/// before/after speedups against the same reference.
pub const CPA_CORRELATIONS_BEFORE_BRANCHFREE_NS: f64 = 119_437.8;

/// Per-kernel time budget from `PSC_BENCH_BUDGET_MS` (default 300 ms;
/// CI smokes the benches with a few milliseconds).
#[must_use]
pub fn budget() -> Duration {
    let ms = std::env::var("PSC_BENCH_BUDGET_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(300);
    Duration::from_millis(ms.max(1))
}

/// Median ns/iter over [`SAMPLES`] samples whose iteration counts fit the
/// per-kernel time budget (one estimation pass picks the count). Prints a
/// `bench/kernel  median: … ns/iter` line as a side effect.
pub fn measure_ns(bench: &str, name: &str, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    let est = start.elapsed().max(Duration::from_nanos(1));
    let per_sample = budget().as_nanos() / SAMPLES as u128;
    let iters = (per_sample / est.as_nanos()).clamp(1, 4_000_000) as u64;

    let mut per_iter: Vec<f64> = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        per_iter.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    per_iter.sort_by(f64::total_cmp);
    let median = per_iter[SAMPLES / 2];
    let label = format!("{bench}/{name}");
    println!("{label:<58} median: {median:>12.1} ns/iter  ({iters} iters)");
    median
}

/// Start a `BENCH_*.json` object: bench name, timestamp, CPU count and
/// the active budget. Append fields with [`json_field`] (or
/// [`JsonWriter::string`]), then close and persist with
/// [`write_artifact`].
#[must_use]
pub fn json_header(bench: &str) -> JsonWriter {
    let epoch_s = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut json = JsonWriter::object(Layout::Lines(0));
    json.string("bench", bench)
        .field("unix_time_s", epoch_s)
        .field("cpus", cpus)
        .field("budget_ms", budget().as_millis());
    json
}

/// Append one `"key": value` member, the value to three decimals.
pub fn json_field(json: &mut JsonWriter, key: &str, value: f64) {
    json.field(key, format_args!("{value:.3}"));
}

/// Close the JSON object and write it to `PSC_BENCH_OUT` if set, else
/// `default_path`. Returns the path written.
///
/// # Panics
///
/// Panics if the artifact cannot be written (a CI failure, not a
/// recoverable condition for a bench run).
pub fn write_artifact(json: JsonWriter, default_path: &str) -> String {
    let out_path = std::env::var("PSC_BENCH_OUT").unwrap_or_else(|_| default_path.to_owned());
    std::fs::write(&out_path, json.finish() + "\n")
        .unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    out_path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_and_fields_form_valid_shape() {
        let mut json = json_header("unit_test");
        json_field(&mut json, "alpha_ns", 12.3456);
        json.string("mode", "a\"b");
        let path = std::env::temp_dir().join("psc_bench_measure_test.json");
        std::env::remove_var("PSC_BENCH_OUT");
        let written = write_artifact(json, path.to_str().unwrap());
        let content = std::fs::read_to_string(&written).unwrap();
        assert!(content.starts_with("{\n"));
        assert!(content.ends_with("\n}\n"));
        assert!(content.contains("\"bench\": \"unit_test\""));
        assert!(content.contains("\"alpha_ns\": 12.346"));
        assert!(content.contains("\"mode\": \"a\\\"b\""), "string values are escaped");
        assert!(!content.contains(",\n}"), "no trailing comma");
        psc_telemetry::json::validate_json(&content).expect("artifact parses");
        let _ = std::fs::remove_file(written);
    }

    #[test]
    fn budget_defaults_positive() {
        assert!(budget() >= Duration::from_millis(1));
    }
}
