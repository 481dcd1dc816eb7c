//! Measurement plumbing: closed-loop job runner, process CPU and memory
//! from `/proc`, sample statistics, the environment line and the JSON
//! result line.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One named metric value.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Correctness checks of one run.
#[derive(Debug, Default)]
pub struct Gate {
    /// Checks made.
    pub checks: u64,
    /// Descriptions of the checks that failed.
    pub failures: Vec<String>,
}

impl Gate {
    /// Record one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// What one job of a timed loop did.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// Attacker traces (observations) the job completed.
    pub traces: u64,
    /// Whether the job succeeded and its output passed its check.
    pub ok: bool,
}

/// Totals of one timed closed loop.
#[derive(Debug, Default, Clone)]
pub struct LoopStats {
    /// Per-job latency, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Loop wall time, seconds.
    pub wall_s: f64,
    /// Process user+system CPU over the loop, seconds.
    pub cpu_s: f64,
    /// Traces completed.
    pub traces: u64,
    /// Jobs completed.
    pub jobs: u64,
    /// Jobs that failed or did not pass their check.
    pub failed: u64,
}

/// Run `clients` closed-loop clients: each sends its next job only after
/// the previous one returned. The loop ends once `seconds` have passed
/// and at least `min_jobs` jobs completed (or after a hard cap of three
/// times `seconds` plus 30 s, so a slow build still exits in time).
pub fn closed_loop<F>(clients: usize, seconds: f64, min_jobs: u64, job: F) -> LoopStats
where
    F: Fn(usize, u64) -> Job + Sync,
{
    let budget = Duration::from_secs_f64(seconds);
    let cap = Duration::from_secs_f64(3.0 * seconds + 30.0);
    let done = AtomicU64::new(0);
    let merged = Mutex::new(LoopStats::default());
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..clients {
            let (job, done, merged) = (&job, &done, &merged);
            scope.spawn(move || {
                let mut local = LoopStats::default();
                for i in 0.. {
                    let elapsed = start.elapsed();
                    let enough = elapsed >= budget && done.load(Ordering::Relaxed) >= min_jobs;
                    if enough || elapsed >= cap {
                        break;
                    }
                    let t0 = Instant::now();
                    let outcome = job(client, i);
                    local.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    local.traces += outcome.traces;
                    local.jobs += 1;
                    local.failed += u64::from(!outcome.ok);
                    done.fetch_add(1, Ordering::Relaxed);
                }
                let mut m = merged.lock().expect("loop stats lock");
                m.latencies_ms.extend(local.latencies_ms);
                m.traces += local.traces;
                m.jobs += local.jobs;
                m.failed += local.failed;
            });
        }
    });
    let mut stats = merged.into_inner().expect("loop stats lock");
    stats.wall_s = start.elapsed().as_secs_f64();
    stats.cpu_s = cpu_seconds() - cpu0;
    stats
}

/// Restrict this thread, and every thread it starts afterwards, to one
/// CPU: the highest-numbered one it may run on. Returns that CPU, or
/// `None` when the affinity calls fail (the process then stays unpinned).
///
/// A campaign runs a producer and a consumer thread per shard. Spread
/// over the CPUs of a shared host, a job stalls whenever the host takes
/// away any one of them, so job latency jumps between runs; on one CPU
/// the job slows only in proportion to that CPU's lost time.
pub fn pin_to_one_cpu() -> Option<usize> {
    // glibc, which std already links on Linux; a cpu_set_t is 1024 bits.
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..size * 8).rev().find(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes; pid 0 is the
    // calling thread.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// Nanoseconds between two instants.
pub fn ns(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Process user+system CPU time, seconds, from `/proc/self/stat`
/// (clock ticks of 1/100 s; every thread of the process counts).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// One step of SplitMix64: derives the campaign seed and AES key from
/// the workload seed.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The environment the result was measured in: CPU count, SIMD backend
/// (after any `PSC_SIMD` pin), build profile and source revision.
/// Call it before [`pin_to_one_cpu`], which narrows the CPU count.
pub fn environment(workload: &str, seed: u64) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "workload={workload} seed={seed} cpus={cpus} simd={} profile={profile} rev={}",
        pulp::backend_name(),
        revision()
    )
}

/// `git rev-parse HEAD` when the benchmark runs in a git checkout, else
/// an FNV-1a hash of the sources the benchmark builds (`tree:…`).
fn revision() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if root.join(".git").exists() {
        let git = std::process::Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(["rev-parse", "--short=12", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output();
        if let Ok(out) = git {
            let rev = String::from_utf8_lossy(&out.stdout).trim().to_owned();
            if out.status.success() && !rev.is_empty() {
                return rev;
            }
        }
    }
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "e2ebench/src"] {
        collect_files(&root.join(top), &mut files);
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for path in files {
        for byte in std::fs::read(&path).unwrap_or_default() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("tree:{hash:016x}")
}

fn collect_files(path: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    match std::fs::read_dir(path) {
        Ok(entries) => {
            for entry in entries.flatten() {
                collect_files(&entry.path(), out);
            }
        }
        Err(_) if path.is_file() => out.push(path.to_path_buf()),
        Err(_) => {}
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric as `{"value": …, "unit": …}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let m = [Metric { name: "setup_s", unit: "s", value: 0.5 }];
        assert_eq!(
            result_json(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
