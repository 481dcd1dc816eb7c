//! The SMC co-processor firmware: samples rails, applies each key's sensor
//! pipeline, and publishes key/value pairs at its update interval
//! (≈ 1 s on the real systems, per §3.3: "SMC key values are updated
//! approximately every one second").

use crate::key::SmcKey;
use crate::mitigation::MitigationConfig;
use crate::sensors::{SensorSet, SensorSource};
use crate::types::{SmcDataType, SmcValue};
use psc_soc::noise::{gaussian, RandomWalk};
use psc_soc::{SocTick, WindowBatch, WindowReport};
use pulp::{F64x4, Simd, WithSimd};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Default update interval in seconds.
pub const DEFAULT_UPDATE_INTERVAL_S: f64 = 1.0;

/// Running sums of the window fields the sensors sample (the rails, the
/// estimator's CPU power and the last temperature), time-weighted, since
/// the last publish. Nothing else of a window reaches a published value,
/// so nothing else is summed.
#[derive(Debug, Clone, Copy, Default)]
struct Accumulator {
    time_s: f64,
    rails_sum: psc_soc::PowerRails,
    est_cpu_sum: f64,
    temp_last: f64,
}

impl Accumulator {
    /// Accumulate rows `start..end` of a batch in one columnar pass.
    ///
    /// Performs the exact floating-point operations (in the exact order)
    /// that per-row [`Accumulator::add`] calls would, but as unit-stride
    /// sweeps over the batch columns — so batched and sequential SMC
    /// integration publish bit-identical values.
    fn add_columns(&mut self, batch: &WindowBatch, start: usize, end: usize) {
        self.add_columns_impl(batch, start, end, false);
    }

    fn add_columns_impl(&mut self, batch: &WindowBatch, start: usize, end: usize, scalar: bool) {
        let dt = batch.duration_s();
        for _ in start..end {
            self.time_s += dt;
        }
        let sweep = ColumnSweep { acc: self, batch, start, end };
        if scalar {
            pulp::dispatch_scalar(sweep);
        } else {
            pulp::dispatch(sweep);
        }
        if end > start {
            self.temp_last = batch.temperature_c()[end - 1];
        }
    }

    fn add(&mut self, report: &WindowReport) {
        let dt = report.duration_s;
        self.time_s += dt;
        self.rails_sum.accumulate(&report.rails.scaled(dt));
        self.est_cpu_sum += report.estimated_cpu_power_w * dt;
        self.temp_last = report.temperature_c;
    }

    /// The mean window the sensors sample. Only the fields
    /// [`crate::SensorSource::sample`] reads are filled; the rest keep
    /// their defaults.
    fn mean_report(&self) -> WindowReport {
        let t = self.time_s.max(1e-12);
        WindowReport {
            duration_s: self.time_s,
            rails: self.rails_sum.scaled(1.0 / t),
            estimated_cpu_power_w: self.est_cpu_sum / t,
            temperature_c: self.temp_last,
            ..WindowReport::default()
        }
    }
}

/// Columnar accumulation sweep over rows `start..end` of a batch.
///
/// The seven rails and the estimator's CPU power ride as two `f64x4`
/// quads. Each SIMD lane carries exactly one accumulator's private
/// addition chain in row order, so the vector sweep performs the same
/// floating-point operations (in the same order) as the eight independent
/// scalar column loops it replaces — the published SMC values are
/// bit-identical on every backend.
struct ColumnSweep<'a> {
    acc: &'a mut Accumulator,
    batch: &'a WindowBatch,
    start: usize,
    end: usize,
}

impl WithSimd for ColumnSweep<'_> {
    type Output = ();

    #[inline(always)]
    fn with_simd<S: Simd>(self) {
        let Self { acc, batch, start, end } = self;
        let dt = S::f64x4::splat(batch.duration_s());
        let rails = batch.rails();
        let est_cpu = batch.estimated_cpu_power_w();

        let rs = acc.rails_sum;
        let mut quad_a = S::f64x4::new(rs.p_cluster_w, rs.e_cluster_w, rs.dram_w, rs.uncore_w);
        let mut quad_b = S::f64x4::new(rs.package_w, rs.dc_in_w, rs.system_w, acc.est_cpu_sum);
        for (i, &cpu) in (start..end).zip(&est_cpu[start..end]) {
            quad_a += S::f64x4::new(
                rails.p_cluster_w[i],
                rails.e_cluster_w[i],
                rails.dram_w[i],
                rails.uncore_w[i],
            ) * dt;
            quad_b +=
                S::f64x4::new(rails.package_w[i], rails.dc_in_w[i], rails.system_w[i], cpu) * dt;
        }
        let [pc, ec, dr, un] = quad_a.to_array();
        let [pkg, dc, sys, cpu] = quad_b.to_array();
        acc.rails_sum = psc_soc::PowerRails {
            p_cluster_w: pc,
            e_cluster_w: ec,
            dram_w: dr,
            uncore_w: un,
            package_w: pkg,
            dc_in_w: dc,
            system_w: sys,
        };
        acc.est_cpu_sum = cpu;
    }
}

/// Error returned by [`Smc::write_key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKeyError {
    /// The key does not exist.
    KeyNotFound(SmcKey),
    /// The key exists but is read-only.
    NotWritable(SmcKey),
}

impl core::fmt::Display for WriteKeyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WriteKeyError::KeyNotFound(k) => write!(f, "SMC key {k} not found"),
            WriteKeyError::NotWritable(k) => write!(f, "SMC key {k} is read-only"),
        }
    }
}

impl std::error::Error for WriteKeyError {}

/// One sensor's publish pipeline, flattened out of [`SensorSet`] once at
/// [`Smc::new`]: the per-publish sweep walks this dense vector instead of
/// cloning definitions and chasing three `BTreeMap`s per key, and reads
/// resolve through a sorted key index in O(log n) without allocating.
#[derive(Debug, Clone)]
struct SensorRuntime {
    key: SmcKey,
    source: SensorSource,
    gain: f64,
    quant_step: f64,
    noise_sigma: f64,
    power_related: bool,
    writable: bool,
    data_type: SmcDataType,
    drift: Option<RandomWalk>,
    /// User-written override of a writable key.
    override_value: Option<f64>,
    /// Effective noise σ: the sensor's own σ combined with the active
    /// mitigation's extra σ on power-related keys.
    sigma: f64,
    /// The value every publish yields, for a sensor with no noise, no
    /// drift and a constant or overridden source; `None` when a publish
    /// must run the pipeline.
    fixed: Option<f64>,
}

impl SensorRuntime {
    fn quantize(&self, v: f64) -> f64 {
        if self.quant_step > 0.0 {
            (v / self.quant_step).round() * self.quant_step
        } else {
            v
        }
    }

    /// Recompute `sigma` and `fixed` after a mitigation change or a key
    /// write. `fixed` is what the pipeline yields for that sensor,
    /// `quantize(gain · v + 0.0)` (the zero drift turns `-0.0` into
    /// `+0.0`), with no RNG draw.
    fn refresh(&mut self, extra_noise_sigma_w: f64) {
        let extra = if self.power_related { extra_noise_sigma_w } else { 0.0 };
        self.sigma = (self.noise_sigma * self.noise_sigma + extra * extra).sqrt();
        let source = match (self.override_value, self.source) {
            (Some(v), _) | (None, SensorSource::Constant(v)) => Some(v),
            _ => None,
        };
        self.fixed = source
            .filter(|_| self.sigma == 0.0 && self.drift.is_none())
            .map(|v| self.quantize(self.gain * v + 0.0));
    }
}

/// The published key/value table, shared between the firmware and every
/// IOKit client so that a read takes no lock. Keys, types and which keys
/// are power-related are fixed at [`Smc::new`]; each value (as `f64`
/// bits) and the restriction flag are atomics the firmware stores at every
/// publish, key write and mitigation change. A read sees one key's value
/// whole, as with the lock it replaces.
#[derive(Debug)]
pub(crate) struct PublishedTable {
    /// Lexicographically sorted keys; parallel `index` maps each to its
    /// sensor slot for binary-search lookup.
    sorted_keys: Vec<SmcKey>,
    index: Vec<usize>,
    /// Per sensor slot, in definition order.
    data_types: Vec<SmcDataType>,
    power_related: Vec<bool>,
    values: Vec<AtomicU64>,
    /// The active mitigation's `restrict_power_keys`.
    restrict_power_keys: AtomicBool,
}

impl PublishedTable {
    /// The sensor slot of `k`, if the key exists.
    fn slot(&self, k: SmcKey) -> Option<usize> {
        self.sorted_keys.binary_search(&k).ok().map(|i| self.index[i])
    }

    fn value(&self, slot: usize) -> SmcValue {
        let bits = self.values[slot].load(Ordering::Acquire);
        SmcValue::new(self.data_types[slot], f64::from_bits(bits))
    }

    fn store(&self, slot: usize, value: f64) {
        self.values[slot].store(value.to_bits(), Ordering::Release);
    }

    fn restricted(&self, slot: usize) -> bool {
        self.power_related[slot] && self.restrict_power_keys.load(Ordering::Acquire)
    }

    /// Everything an IOKit read needs, from one key lookup: the published
    /// value (with its wire type) and whether the active mitigation denies
    /// it to unprivileged clients.
    pub(crate) fn read_entry(&self, k: SmcKey) -> Option<(SmcValue, bool)> {
        self.slot(k).map(|i| (self.value(i), self.restricted(i)))
    }
}

/// The simulated SMC.
#[derive(Debug)]
pub struct Smc {
    sensors: SensorSet,
    base_interval_s: f64,
    /// Fractional jitter on the publish interval (the paper: values update
    /// "approximately every one second"). 0 = exact cadence (default, and
    /// what the trace-collection loop assumes since it polls publishes).
    interval_jitter: f64,
    /// The current window's jittered target interval.
    current_target_s: f64,
    mitigation: MitigationConfig,
    rng: ChaCha12Rng,
    /// Per-sensor pipelines in definition order.
    runtime: Vec<SensorRuntime>,
    /// Published values, indexed by `runtime` slot.
    table: Arc<PublishedTable>,
    acc: Accumulator,
    update_count: u64,
}

impl Smc {
    /// New firmware instance over a sensor population.
    #[must_use]
    pub fn new(sensors: SensorSet, seed: u64) -> Self {
        let runtime: Vec<SensorRuntime> = sensors
            .sensors()
            .iter()
            .map(|s| SensorRuntime {
                key: s.key,
                source: s.source,
                gain: s.gain,
                quant_step: s.quant_step,
                noise_sigma: s.noise_sigma,
                power_related: s.power_related,
                writable: s.writable,
                data_type: s.data_type,
                drift: (s.drift_step_sigma > 0.0)
                    .then(|| RandomWalk::new(s.drift_step_sigma, s.drift_reversion)),
                override_value: None,
                sigma: 0.0,
                fixed: None,
            })
            .collect();
        let mut order: Vec<usize> = (0..runtime.len()).collect();
        order.sort_by_key(|&i| runtime[i].key);
        let table = Arc::new(PublishedTable {
            sorted_keys: order.iter().map(|&i| runtime[i].key).collect(),
            index: order,
            data_types: runtime.iter().map(|rt| rt.data_type).collect(),
            power_related: runtime.iter().map(|rt| rt.power_related).collect(),
            values: runtime.iter().map(|_| AtomicU64::new(0.0f64.to_bits())).collect(),
            restrict_power_keys: AtomicBool::new(false),
        });
        let mut smc = Self {
            sensors,
            base_interval_s: DEFAULT_UPDATE_INTERVAL_S,
            interval_jitter: 0.0,
            current_target_s: DEFAULT_UPDATE_INTERVAL_S,
            mitigation: MitigationConfig::none(),
            rng: ChaCha12Rng::seed_from_u64(seed ^ 0x5AC5_AC5A),
            runtime,
            table,
            acc: Accumulator::default(),
            update_count: 0,
        };
        smc.refresh_runtime();
        // Publish an initial idle snapshot so reads before the first window
        // return something, as the real SMC does.
        smc.publish(&WindowReport {
            duration_s: DEFAULT_UPDATE_INTERVAL_S,
            ..WindowReport::default()
        });
        smc.update_count = 0;
        smc
    }

    /// The `runtime` slot for `k`, if the key exists.
    fn lookup(&self, k: SmcKey) -> Option<usize> {
        self.table.slot(k)
    }

    /// The published table IOKit clients read without locking.
    pub(crate) fn published_table(&self) -> Arc<PublishedTable> {
        Arc::clone(&self.table)
    }

    /// Override the base update interval (default 1 s).
    ///
    /// # Panics
    ///
    /// Panics if `interval_s` is not positive.
    pub fn set_update_interval(&mut self, interval_s: f64) {
        assert!(interval_s > 0.0, "interval must be positive");
        self.base_interval_s = interval_s;
        self.current_target_s = self.update_interval_s();
    }

    /// Set a fractional jitter on the publish cadence (e.g. 0.05 for the
    /// "approximately every one second" behaviour of real firmware). Each
    /// publish draws the next interval uniformly in
    /// `interval · [1−j, 1+j]`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ jitter < 1`.
    pub fn set_interval_jitter(&mut self, jitter: f64) {
        assert!((0.0..1.0).contains(&jitter), "jitter must be in [0, 1)");
        self.interval_jitter = jitter;
    }

    /// The effective update interval (base × mitigation multiplier).
    #[must_use]
    pub fn update_interval_s(&self) -> f64 {
        self.base_interval_s * self.mitigation.update_interval_multiplier
    }

    /// Install a mitigation configuration (§5 countermeasures).
    pub fn set_mitigation(&mut self, mitigation: MitigationConfig) {
        self.mitigation = mitigation;
        self.refresh_runtime();
    }

    fn refresh_runtime(&mut self) {
        for rt in &mut self.runtime {
            rt.refresh(self.mitigation.extra_noise_sigma_w);
        }
        let restrict = self.mitigation.restrict_power_keys;
        self.table.restrict_power_keys.store(restrict, Ordering::Release);
    }

    /// The active mitigation configuration.
    #[must_use]
    pub fn mitigation(&self) -> MitigationConfig {
        self.mitigation
    }

    /// The sensor population.
    #[must_use]
    pub fn sensors(&self) -> &SensorSet {
        &self.sensors
    }

    /// Number of publishes so far.
    #[must_use]
    pub fn update_count(&self) -> u64 {
        self.update_count
    }

    /// The accumulated-time threshold the next publish requires. Respects
    /// mitigation changes made since the last publish, plus any configured
    /// cadence jitter.
    fn publish_target_s(&self) -> f64 {
        let base_target = self.update_interval_s();
        if self.interval_jitter > 0.0 {
            self.current_target_s.clamp(
                base_target * (1.0 - self.interval_jitter),
                base_target * (1.0 + self.interval_jitter),
            )
        } else {
            base_target
        }
    }

    /// Post-publish bookkeeping: reset the accumulator and draw the next
    /// jittered interval.
    fn finish_publish(&mut self) {
        self.acc = Accumulator::default();
        if self.interval_jitter > 0.0 {
            let u: f64 = rand::Rng::gen_range(&mut self.rng, -1.0..1.0);
            self.current_target_s = self.update_interval_s() * (1.0 + self.interval_jitter * u);
        }
    }

    /// Feed one aggregated window; publishes if the accumulated time has
    /// reached the update interval. Returns `true` if a publish happened.
    pub fn observe_window(&mut self, report: &WindowReport) -> bool {
        self.acc.add(report);
        if self.acc.time_s + 1e-9 >= self.publish_target_s() {
            let mean = self.acc.mean_report();
            self.publish(&mean);
            self.finish_publish();
            true
        } else {
            false
        }
    }

    /// Feed a whole [`WindowBatch`] in one pass, publishing at every
    /// update-interval crossing (the interval-stretching mitigation and
    /// cadence jitter are honoured mid-batch exactly as the per-window
    /// path honours them). Returns the batch indices of the windows whose
    /// integration triggered a publish.
    ///
    /// Bit-identical to feeding the batch's reports through
    /// [`Smc::observe_window`] one at a time — the accumulation runs as
    /// columnar segment sweeps but performs the same floating-point
    /// operations in the same order.
    pub fn observe_windows(&mut self, batch: &WindowBatch) -> Vec<usize> {
        let dt = batch.duration_s();
        let mut published = Vec::new();
        let mut seg_start = 0usize;
        // Probe time evolves by the same `+= dt` sequence the accumulator
        // applies, so the publish boundaries match the sequential path
        // exactly despite the deferred column sums.
        let mut probe = self.acc.time_s;
        for i in 0..batch.len() {
            probe += dt;
            if probe + 1e-9 >= self.publish_target_s() {
                self.acc.add_columns(batch, seg_start, i + 1);
                let mean = self.acc.mean_report();
                self.publish(&mean);
                self.finish_publish();
                published.push(i);
                seg_start = i + 1;
                probe = 0.0;
            }
        }
        if seg_start < batch.len() {
            self.acc.add_columns(batch, seg_start, batch.len());
        }
        published
    }

    /// How many more windows of `window_s` seconds the firmware needs
    /// before its next publish, given the currently accumulated time, the
    /// active mitigation's interval multiplier and the current jittered
    /// target. Lets callers size a [`WindowBatch`] so that its last window
    /// is exactly the publishing one.
    ///
    /// # Panics
    ///
    /// Panics if `window_s` is not positive, or is so small relative to
    /// the update interval that accumulated time cannot reach it.
    #[must_use]
    pub fn windows_until_publish(&self, window_s: f64) -> usize {
        assert!(window_s > 0.0, "window must be positive, got {window_s}");
        let target = self.publish_target_s();
        let mut probe = self.acc.time_s;
        let mut n = 0usize;
        while probe + 1e-9 < target {
            let next = probe + window_s;
            assert!(next > probe, "window {window_s} s too small to reach the publish interval");
            probe = next;
            n += 1;
        }
        n.max(1)
    }

    /// Feed one simulation tick (throttling-study path).
    pub fn observe_tick(&mut self, tick: &SocTick, dt_s: f64) -> bool {
        let report = WindowReport {
            duration_s: dt_s,
            rails: tick.rails,
            estimated_cpu_power_w: tick.estimated_cpu_power_w,
            estimated_p_cluster_w: tick.rails.p_cluster_w,
            estimated_e_cluster_w: tick.rails.e_cluster_w,
            p_freq_ghz: tick.p_freq_ghz,
            e_freq_ghz: tick.e_freq_ghz,
            temperature_c: tick.temperature_c,
            p_core_reps: 0.0,
            ..WindowReport::default()
        };
        self.observe_window(&report)
    }

    fn publish(&mut self, mean: &WindowReport) {
        // One dense sweep in definition order: the exact floating-point
        // pipeline and RNG call order of the historical per-key walk.
        // Sensors that cannot change copy their precomputed value.
        for (i, rt) in self.runtime.iter_mut().enumerate() {
            let value = match rt.fixed {
                Some(v) => v,
                None => {
                    let source_value = rt.override_value.unwrap_or_else(|| rt.source.sample(mean));
                    let raw = rt.gain * source_value;
                    let drift = rt.drift.as_mut().map_or(0.0, |w| w.step(&mut self.rng));
                    rt.quantize(gaussian(&mut self.rng, raw + drift, rt.sigma))
                }
            };
            self.table.store(i, value);
        }
        self.update_count += 1;
    }

    /// Firmware-level read (no privilege checks — those live in the IOKit
    /// client layer).
    #[must_use]
    pub fn read(&self, k: SmcKey) -> Option<SmcValue> {
        self.lookup(k).map(|i| self.table.value(i))
    }

    /// All keys in deterministic (lexicographic) order. The slice is
    /// resolved once at construction — hot enumeration loops may call this
    /// per round without allocating.
    #[must_use]
    pub fn keys(&self) -> &[SmcKey] {
        &self.table.sorted_keys
    }

    /// Type/size info for a key.
    #[must_use]
    pub fn key_info(&self, k: SmcKey) -> Option<(SmcDataType, usize)> {
        self.lookup(k).map(|i| {
            let dt = self.runtime[i].data_type;
            (dt, dt.size())
        })
    }

    /// Whether reads of this key are denied to unprivileged clients under
    /// the active mitigation.
    #[must_use]
    pub fn is_restricted(&self, k: SmcKey) -> bool {
        self.lookup(k).is_some_and(|i| self.table.restricted(i))
    }

    /// Whether user space may write this key.
    #[must_use]
    pub fn is_writable(&self, k: SmcKey) -> bool {
        self.lookup(k).is_some_and(|i| self.runtime[i].writable)
    }

    /// Write a key's value. The new value takes effect at the next publish
    /// (and immediately in the published view, matching how fan-target
    /// writes read back on real hardware).
    ///
    /// # Errors
    ///
    /// [`WriteKeyError::KeyNotFound`] for unknown keys,
    /// [`WriteKeyError::NotWritable`] for read-only keys — which is every
    /// power/limit-related key, reproducing §4's negative probe.
    pub fn write_key(&mut self, k: SmcKey, value: f64) -> Result<(), WriteKeyError> {
        let i = self.lookup(k).ok_or(WriteKeyError::KeyNotFound(k))?;
        let rt = &mut self.runtime[i];
        if !rt.writable {
            return Err(WriteKeyError::NotWritable(k));
        }
        rt.override_value = Some(value);
        rt.refresh(self.mitigation.extra_noise_sigma_w);
        self.table.store(i, value);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::key;
    use crate::sensors::SensorSet;
    use psc_soc::PowerRails;

    fn report(p_cluster_w: f64, est: f64) -> WindowReport {
        WindowReport {
            duration_s: 1.0,
            rails: PowerRails::assemble(p_cluster_w, 0.3, 0.4, 0.5, 0.88, 1.5),
            estimated_cpu_power_w: est,
            estimated_p_cluster_w: est * 0.8,
            estimated_e_cluster_w: est * 0.2,
            p_freq_ghz: 3.5,
            e_freq_ghz: 2.4,
            temperature_c: 42.0,
            p_core_reps: 1.0e7,
            ..WindowReport::default()
        }
    }

    fn smc() -> Smc {
        Smc::new(SensorSet::macbook_air_m2(), 99)
    }

    #[test]
    fn publishes_once_per_interval() {
        let mut s = smc();
        assert_eq!(s.update_count(), 0);
        assert!(s.observe_window(&report(2.0, 2.5)));
        assert_eq!(s.update_count(), 1);
    }

    #[test]
    fn sub_interval_windows_accumulate() {
        let mut s = smc();
        let mut r = report(2.0, 2.5);
        r.duration_s = 0.4;
        assert!(!s.observe_window(&r));
        assert!(!s.observe_window(&r));
        assert!(s.observe_window(&r), "third 0.4 s window crosses 1 s");
        assert_eq!(s.update_count(), 1);
    }

    #[test]
    fn phpc_tracks_p_cluster_rail() {
        let mut s = smc();
        s.observe_window(&report(2.0, 2.5));
        let low = s.read(key("PHPC")).unwrap().value;
        s.observe_window(&report(8.0, 2.5));
        let high = s.read(key("PHPC")).unwrap().value;
        assert!(high > low + 4.0, "PHPC {low} -> {high}");
    }

    #[test]
    fn phps_tracks_estimator_only() {
        let mut s = smc();
        s.observe_window(&report(2.0, 3.0));
        let a = s.read(key("PHPS")).unwrap().value;
        s.observe_window(&report(9.0, 3.0));
        let b = s.read(key("PHPS")).unwrap().value;
        assert!((a - b).abs() < 0.02, "PHPS must not follow rails: {a} vs {b}");
    }

    #[test]
    fn unknown_key_reads_none() {
        let s = smc();
        assert!(s.read(key("ZZZZ")).is_none());
        assert!(s.key_info(key("ZZZZ")).is_none());
    }

    #[test]
    fn noise_blending_mitigation_increases_variance() {
        let variance_of = |mitigation: MitigationConfig| {
            let mut s = Smc::new(SensorSet::macbook_air_m2(), 7);
            s.set_mitigation(mitigation);
            let vals: Vec<f64> = (0..400)
                .map(|_| {
                    s.observe_window(&report(2.0, 2.5));
                    s.read(key("PHPC")).unwrap().value
                })
                .collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (vals.len() - 1) as f64
        };
        let base = variance_of(MitigationConfig::none());
        let blended = variance_of(MitigationConfig::noise_blend(0.05));
        assert!(blended > base * 10.0, "blend {blended} vs base {base}");
    }

    #[test]
    fn interval_mitigation_slows_updates() {
        let mut s = smc();
        s.set_mitigation(MitigationConfig::slow_updates(3.0));
        let r = report(2.0, 2.5);
        assert!(!s.observe_window(&r));
        assert!(!s.observe_window(&r));
        assert!(s.observe_window(&r));
    }

    #[test]
    fn restriction_marks_only_power_keys() {
        let mut s = smc();
        s.set_mitigation(MitigationConfig::restrict_access());
        assert!(s.is_restricted(key("PHPC")));
        assert!(s.is_restricted(key("PSTR")));
        assert!(!s.is_restricted(key("TC0P")));
        assert!(!s.is_restricted(key("B0FC")));
    }

    #[test]
    fn no_restriction_by_default() {
        let s = smc();
        assert!(!s.is_restricted(key("PHPC")));
    }

    #[test]
    fn pstr_drifts_between_epochs() {
        let mut s = smc();
        let epoch = |s: &mut Smc| {
            let n = 200;
            (0..n)
                .map(|_| {
                    s.observe_window(&report(2.0, 2.5));
                    s.read(key("PSTR")).unwrap().value
                })
                .sum::<f64>()
                / f64::from(n)
        };
        let means: Vec<f64> = (0..6).map(|_| epoch(&mut s)).collect();
        let spread = means.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - means.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread > 0.005, "PSTR epoch means must drift apart, spread {spread}");
    }

    #[test]
    fn interval_jitter_varies_publish_cadence() {
        let mut s = smc();
        s.set_interval_jitter(0.2);
        let mut windows_per_publish = Vec::new();
        let mut count = 0u32;
        let mut small = report(2.0, 2.5);
        small.duration_s = 0.1;
        for _ in 0..400 {
            count += 1;
            if s.observe_window(&small) {
                windows_per_publish.push(count);
                count = 0;
            }
        }
        let min = *windows_per_publish.iter().min().unwrap();
        let max = *windows_per_publish.iter().max().unwrap();
        assert!(min < max, "jitter must vary the cadence: {windows_per_publish:?}");
        // Bounded by ±20% around 10 windows of 0.1 s.
        assert!((8..=13).contains(&min) && (8..=13).contains(&max));
    }

    #[test]
    #[should_panic(expected = "jitter must be in")]
    fn invalid_jitter_rejected() {
        let mut s = smc();
        s.set_interval_jitter(1.5);
    }

    #[test]
    fn keys_sorted_and_complete() {
        let s = smc();
        let keys = s.keys();
        assert_eq!(keys.len(), s.sensors().len());
        for w in keys.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn batch_matches_sequential_publishes_bitwise() {
        let reports: Vec<WindowReport> =
            (0..10).map(|i| report(2.0 + f64::from(i) * 0.3, 2.5)).collect();
        let mut small = Vec::new();
        for r in &reports {
            let mut r = *r;
            r.duration_s = 0.4;
            small.push(r);
        }
        let batch = psc_soc::WindowBatch::from_reports(&small);

        let mut seq = Smc::new(SensorSet::macbook_air_m2(), 7);
        seq.set_mitigation(MitigationConfig::slow_updates(2.0));
        let mut seq_published = Vec::new();
        for (i, r) in small.iter().enumerate() {
            if seq.observe_window(r) {
                seq_published.push(i);
            }
        }

        let mut batched = Smc::new(SensorSet::macbook_air_m2(), 7);
        batched.set_mitigation(MitigationConfig::slow_updates(2.0));
        let published = batched.observe_windows(&batch);

        assert_eq!(published, seq_published);
        assert_eq!(batched.update_count(), seq.update_count());
        for &k in seq.keys() {
            let a = seq.read(k).unwrap().value;
            let b = batched.read(k).unwrap().value;
            assert_eq!(a.to_bits(), b.to_bits(), "key {k}: {a} vs {b}");
        }
    }

    #[test]
    fn column_sweep_simd_matches_scalar_bitwise() {
        let reports: Vec<WindowReport> = (0..23)
            .map(|i| {
                let mut r = report(1.5 + f64::from(i) * 0.17, 2.5 + f64::from(i % 5) * 0.05);
                r.duration_s = 0.31;
                r
            })
            .collect();
        let batch = psc_soc::WindowBatch::from_reports(&reports);
        // Exercise sub-segment sweeps too (the session driver publishes at
        // interval boundaries inside a batch), including an empty segment.
        for (start, end) in [(0, reports.len()), (3, 17), (5, 5), (22, 23)] {
            let mut simd = Accumulator::default();
            let mut scalar = Accumulator::default();
            simd.add_columns_impl(&batch, start, end, false);
            scalar.add_columns_impl(&batch, start, end, true);
            let a = simd.mean_report();
            let b = scalar.mean_report();
            assert_eq!(a.rails.p_cluster_w.to_bits(), b.rails.p_cluster_w.to_bits());
            assert_eq!(a.rails.e_cluster_w.to_bits(), b.rails.e_cluster_w.to_bits());
            assert_eq!(a.rails.dram_w.to_bits(), b.rails.dram_w.to_bits());
            assert_eq!(a.rails.uncore_w.to_bits(), b.rails.uncore_w.to_bits());
            assert_eq!(a.rails.package_w.to_bits(), b.rails.package_w.to_bits());
            assert_eq!(a.rails.dc_in_w.to_bits(), b.rails.dc_in_w.to_bits());
            assert_eq!(a.rails.system_w.to_bits(), b.rails.system_w.to_bits());
            assert_eq!(a.estimated_cpu_power_w.to_bits(), b.estimated_cpu_power_w.to_bits());
            assert_eq!(a.temperature_c.to_bits(), b.temperature_c.to_bits());
        }
    }

    #[test]
    fn batch_publish_indices_follow_interval() {
        let mut s = smc();
        let batch = psc_soc::WindowBatch::from_reports(&vec![report(2.0, 2.5); 3]);
        assert_eq!(s.observe_windows(&batch), vec![0, 1, 2], "1 s windows publish every window");
        s.set_mitigation(MitigationConfig::slow_updates(3.0));
        assert_eq!(s.observe_windows(&batch), vec![2], "3x stretching: one publish per 3 windows");
    }

    #[test]
    fn windows_until_publish_predicts_the_boundary() {
        let mut s = smc();
        assert_eq!(s.windows_until_publish(1.0), 1);
        assert_eq!(s.windows_until_publish(0.4), 3);
        s.set_mitigation(MitigationConfig::slow_updates(3.0));
        assert_eq!(s.windows_until_publish(1.0), 3);
        // Partial accumulation shortens the remainder.
        let mut r = report(2.0, 2.5);
        r.duration_s = 1.0;
        assert!(!s.observe_window(&r));
        assert_eq!(s.windows_until_publish(1.0), 2);
        // The prediction matches the actual publish across jitter too.
        let mut s = smc();
        s.set_interval_jitter(0.2);
        let mut small = report(2.0, 2.5);
        small.duration_s = 0.1;
        for _ in 0..50 {
            let predicted = s.windows_until_publish(0.1);
            let mut consumed = 0usize;
            loop {
                consumed += 1;
                if s.observe_window(&small) {
                    break;
                }
            }
            assert_eq!(consumed, predicted);
        }
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn windows_until_publish_rejects_zero_window() {
        let _ = smc().windows_until_publish(0.0);
    }

    #[test]
    fn tick_path_publishes_after_interval() {
        let mut s = smc();
        let tick = psc_soc::SocTick {
            time_s: 0.0,
            rails: PowerRails::assemble(2.0, 0.3, 0.4, 0.5, 0.88, 1.5),
            estimated_cpu_power_w: 2.3,
            p_freq_ghz: 3.5,
            e_freq_ghz: 2.4,
            temperature_c: 42.0,
            throttled: false,
            throttle_action: None,
        };
        let mut published = 0;
        for _ in 0..25 {
            if s.observe_tick(&tick, 0.05) {
                published += 1;
            }
        }
        assert_eq!(published, 1, "25 × 0.05 s = 1.25 s → one publish");
    }
}
