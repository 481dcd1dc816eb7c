//! The simulated SoC: threads, clusters, governor, thermal and rails.
//!
//! Two execution paths serve the two kinds of experiments:
//!
//! * [`Soc::run_windows`] — the *fast analytic path* used for side-channel
//!   trace collection: it aggregates whole batches of SMC-update-sized
//!   windows into a columnar [`WindowBatch`] (the victim repeats the same
//!   input for each window, so window averages are computable in closed
//!   form plus sampled noise). [`Soc::run_window`] is the single-window
//!   view over the same engine, bit-identical per window;
//! * [`Soc::step`] — the *time-stepped path* used for the §4 throttling
//!   study, where governor/thermal feedback dynamics matter. It shares
//!   the mean-power / governor-feed primitives with the window engine.
//!
//! The power **estimator** fed to the governor (and exported to `PHPS` /
//! IOReport `PCPU`) deliberately excludes the data-dependent window signal;
//! see [`crate::limits`] for why that reproduces the paper's null results.

use crate::batch::WindowBatch;
use crate::config::{ClusterKind, SocSpec};
use crate::limits::{LimitGovernor, PowerEstimator, PowerMode, ThrottleReason};
use crate::power::{core_dynamic_power_w, PowerRails};
use crate::sched::{place, Placement, SchedAttrs, ThreadId};
use crate::thermal::ThermalModel;
use crate::workload::{SignalPlan, Workload};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// What the throttle governor's power telemetry is connected to.
///
/// Apple's governor follows the model-based estimator (the paper's §4
/// inference from `PHPS`); the sensed alternative is a *counterfactual*
/// used by the ablation benches to demonstrate that estimator-blindness is
/// exactly what kills the timing side channel — a governor fed by the
/// sensed, data-dependent rails would leak timing (Hertzbleed-style).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GovernorFeed {
    /// Utilization-based estimate (data-independent) — the real systems.
    #[default]
    Estimator,
    /// Sensed CPU rails (data-dependent) — counterfactual.
    SensedPower,
}

/// A simulated thread: scheduling attributes plus its workload behaviour.
#[derive(Debug)]
pub struct Thread {
    id: ThreadId,
    name: String,
    attrs: SchedAttrs,
    workload: Box<dyn Workload>,
}

impl Thread {
    /// Thread identifier.
    #[must_use]
    pub fn id(&self) -> ThreadId {
        self.id
    }

    /// Thread name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Scheduling attributes.
    #[must_use]
    pub fn attrs(&self) -> SchedAttrs {
        self.attrs
    }
}

/// Result of one time step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocTick {
    /// Simulation time after the step, seconds.
    pub time_s: f64,
    /// Instantaneous rails (mean power; no window noise).
    pub rails: PowerRails,
    /// Smoothed estimator output (the `PHPS`/governor signal), watts.
    pub estimated_cpu_power_w: f64,
    /// Current P-cluster frequency, GHz.
    pub p_freq_ghz: f64,
    /// Current E-cluster frequency, GHz.
    pub e_freq_ghz: f64,
    /// Junction temperature, °C.
    pub temperature_c: f64,
    /// Whether the P-cluster sits below its mode ceiling.
    pub throttled: bool,
    /// Throttle action taken during this step, if any.
    pub throttle_action: Option<ThrottleReason>,
}

/// Aggregate of one measurement window (≈ one SMC update interval).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowReport {
    /// Window length in seconds.
    pub duration_s: f64,
    /// Window-averaged rails *including* data-dependent signals.
    pub rails: PowerRails,
    /// Estimator CPU power (data-independent), watts.
    pub estimated_cpu_power_w: f64,
    /// Estimator P-cluster power (data-independent), watts — the IOReport
    /// `PCPU` energy source.
    pub estimated_p_cluster_w: f64,
    /// Estimator E-cluster power, watts.
    pub estimated_e_cluster_w: f64,
    /// P-cluster frequency during the window, GHz.
    pub p_freq_ghz: f64,
    /// E-cluster frequency during the window, GHz.
    pub e_freq_ghz: f64,
    /// Junction temperature at the end of the window, °C.
    pub temperature_c: f64,
    /// AES-block repetitions a P-core victim thread completed this window.
    pub p_core_reps: f64,
    /// Per-core utilization of the P-cluster (index = core), 0..=1.
    pub p_core_util: [f64; 4],
    /// Per-core utilization of the E-cluster.
    pub e_core_util: [f64; 4],
}

impl Default for WindowReport {
    fn default() -> Self {
        Self {
            duration_s: 0.0,
            rails: PowerRails::default(),
            estimated_cpu_power_w: 0.0,
            estimated_p_cluster_w: 0.0,
            estimated_e_cluster_w: 0.0,
            p_freq_ghz: 0.0,
            e_freq_ghz: 0.0,
            temperature_c: 24.0,
            p_core_reps: 0.0,
            p_core_util: [0.0; 4],
            e_core_util: [0.0; 4],
        }
    }
}

/// Snapshot of everything the window engine holds constant between
/// operating-point moves, kept across [`Soc::run_windows_into`] calls.
///
/// The *operating-point part* — mean cluster powers, per-core utilization,
/// the repetition count and which placements share a plan — depends only
/// on the P/E frequencies, the placements and the window length (workload
/// utilization and intensity are constant for a workload's life). It is
/// rebuilt only when one of those changes. The *plans* read the workloads'
/// data inputs, which the attacker may swap between calls, so every call
/// re-evaluates them: once per [`Workload::plan_source`], not once per
/// placement.
#[derive(Debug, Default)]
struct BatchSegment {
    /// Whether the operating-point part matches the current placements
    /// (cleared by spawn/kill/kill_all).
    valid: bool,
    duration_s: f64,
    /// The thermal model's relaxation factor over `duration_s`.
    thermal_decay: f64,
    p_mean_w: f64,
    e_mean_w: f64,
    util_sum: f64,
    reps: f64,
    p_freq_ghz: f64,
    e_freq_ghz: f64,
    p_core_util: [f64; 4],
    e_core_util: [f64; 4],
    /// `(cluster, plan)` per placement, in placement order. `None` falls
    /// back to the thread's scalar `window_signal_w` each window.
    plans: Vec<(ClusterKind, Option<SignalPlan>)>,
    /// `shared[k]` is an earlier placement whose plan placement `k`
    /// copies (same [`Workload::plan_source`]).
    shared: Vec<Option<usize>>,
}

impl BatchSegment {
    /// Whether the operating-point part was built for this window length
    /// and these frequencies.
    fn holds(&self, duration_s: f64, p_freq_ghz: f64, e_freq_ghz: f64) -> bool {
        self.valid
            && self.duration_s == duration_s
            && self.p_freq_ghz == p_freq_ghz
            && self.e_freq_ghz == e_freq_ghz
    }
}

/// The simulated system.
#[derive(Debug)]
pub struct Soc {
    spec: SocSpec,
    rng: ChaCha12Rng,
    threads: Vec<Thread>,
    placements: Vec<Placement>,
    /// `placement_threads[k]` is the index into `threads` of
    /// `placements[k].thread`, resolved at (re)schedule time so the hot
    /// paths never pay the linear thread lookup per placement.
    placement_threads: Vec<usize>,
    governor: LimitGovernor,
    estimator: PowerEstimator,
    governor_feed: GovernorFeed,
    thermal: ThermalModel,
    time_s: f64,
    next_tid: u64,
    /// Reusable segment scratch for the window engine.
    segment: BatchSegment,
    /// Reusable single-window batch backing [`Soc::run_window`].
    scratch: WindowBatch,
}

impl Soc {
    /// A fresh SoC in `Normal` power mode at ambient temperature.
    #[must_use]
    pub fn new(spec: SocSpec, seed: u64) -> Self {
        let governor = LimitGovernor::new(&spec);
        let thermal = ThermalModel::new(spec.thermal);
        Self {
            spec,
            rng: ChaCha12Rng::seed_from_u64(seed),
            threads: Vec::new(),
            placements: Vec::new(),
            placement_threads: Vec::new(),
            governor,
            estimator: PowerEstimator::default(),
            governor_feed: GovernorFeed::default(),
            thermal,
            time_s: 0.0,
            next_tid: 1,
            segment: BatchSegment::default(),
            scratch: WindowBatch::new(),
        }
    }

    /// Rewire the governor's telemetry (counterfactual studies only; real
    /// systems use the default [`GovernorFeed::Estimator`]).
    pub fn set_governor_feed(&mut self, feed: GovernorFeed) {
        self.governor_feed = feed;
    }

    /// The active governor feed.
    #[must_use]
    pub fn governor_feed(&self) -> GovernorFeed {
        self.governor_feed
    }

    /// The device specification.
    #[must_use]
    pub fn spec(&self) -> &SocSpec {
        &self.spec
    }

    /// Current simulation time, seconds.
    #[must_use]
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// Current power mode.
    #[must_use]
    pub fn power_mode(&self) -> PowerMode {
        self.governor.mode()
    }

    /// Toggle `lowpowermode` (the paper's `pmset` knob).
    pub fn set_power_mode(&mut self, mode: PowerMode) {
        self.governor.set_mode(&self.spec, mode);
    }

    /// Current P-cluster frequency, GHz.
    #[must_use]
    pub fn p_freq_ghz(&self) -> f64 {
        self.governor.p_freq_ghz(&self.spec)
    }

    /// Current E-cluster frequency, GHz.
    #[must_use]
    pub fn e_freq_ghz(&self) -> f64 {
        self.governor.e_freq_ghz(&self.spec)
    }

    /// Junction temperature, °C.
    #[must_use]
    pub fn temperature_c(&self) -> f64 {
        self.thermal.temperature_c()
    }

    /// Spawn a thread; placement is recomputed immediately.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        attrs: SchedAttrs,
        workload: Box<dyn Workload>,
    ) -> ThreadId {
        let id = ThreadId(self.next_tid);
        self.next_tid += 1;
        self.threads.push(Thread { id, name: name.into(), attrs, workload });
        self.reschedule();
        id
    }

    /// Terminate a thread. Returns `true` if it existed.
    pub fn kill(&mut self, id: ThreadId) -> bool {
        let before = self.threads.len();
        self.threads.retain(|t| t.id != id);
        let removed = self.threads.len() != before;
        if removed {
            self.reschedule();
        }
        removed
    }

    /// Terminate all threads.
    pub fn kill_all(&mut self) {
        self.threads.clear();
        self.placements.clear();
        self.placement_threads.clear();
        self.segment.valid = false;
    }

    /// Threads currently alive.
    #[must_use]
    pub fn threads(&self) -> &[Thread] {
        &self.threads
    }

    /// Current placements.
    #[must_use]
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// The cluster a thread landed on, if placed.
    #[must_use]
    pub fn cluster_of(&self, id: ThreadId) -> Option<ClusterKind> {
        self.placements.iter().find(|p| p.thread == id).map(|p| p.cluster)
    }

    fn reschedule(&mut self) {
        let attrs: Vec<(ThreadId, SchedAttrs)> =
            self.threads.iter().map(|t| (t.id, t.attrs)).collect();
        self.placements =
            place(&attrs, self.spec.p_cluster.core_count, self.spec.e_cluster.core_count);
        // Resolve the placement→thread mapping once here so no per-window
        // path ever needs the O(threads) lookup again.
        self.placement_threads = self
            .placements
            .iter()
            .map(|pl| {
                self.threads
                    .iter()
                    .position(|t| t.id == pl.thread)
                    .expect("placement references live thread")
            })
            .collect();
        self.segment.valid = false;
    }

    /// Mean (data-independent) power of both clusters at current operating
    /// points: `(p_cluster_w, e_cluster_w, utilization_sum)`.
    fn mean_cluster_power(&self) -> (f64, f64, f64) {
        let (pf, pv) =
            (self.governor.p_freq_ghz(&self.spec), self.governor.p_voltage_v(&self.spec));
        let (ef, ev) =
            (self.governor.e_freq_ghz(&self.spec), self.governor.e_voltage_v(&self.spec));
        let mut p_w = self.spec.p_cluster.static_power_w;
        let mut e_w = self.spec.e_cluster.static_power_w;
        let mut util_sum = 0.0;
        for (pl, &ti) in self.placements.iter().zip(&self.placement_threads) {
            let w = &self.threads[ti].workload;
            util_sum += w.utilization();
            match pl.cluster {
                ClusterKind::Performance => {
                    p_w += core_dynamic_power_w(
                        self.spec.p_cluster.dyn_coeff_w * w.intensity(),
                        w.utilization(),
                        pf,
                        pv,
                    );
                }
                ClusterKind::Efficiency => {
                    e_w += core_dynamic_power_w(
                        self.spec.e_cluster.dyn_coeff_w * w.intensity(),
                        w.utilization(),
                        ef,
                        ev,
                    );
                }
            }
        }
        (p_w, e_w, util_sum)
    }

    /// Assemble full rails from cluster powers and utilization.
    fn assemble_rails(&self, p_w: f64, e_w: f64, util_sum: f64) -> PowerRails {
        let dram_w =
            self.spec.platform.dram_base_w + self.spec.platform.dram_util_coeff_w * util_sum;
        PowerRails::assemble(
            p_w,
            e_w,
            dram_w,
            self.spec.platform.uncore_w,
            self.spec.platform.vr_efficiency,
            self.spec.platform.platform_base_w,
        )
    }

    /// AES-block repetitions one P-core thread completes in `duration_s`.
    #[must_use]
    pub fn p_core_reps(&self, duration_s: f64) -> f64 {
        self.governor.p_freq_ghz(&self.spec) * 1.0e9 * duration_s / self.spec.aes_cycles_per_block
    }

    /// Per-core utilization from the current placements:
    /// `(p_core_util, e_core_util)`, indices are core numbers.
    fn per_core_utilization(&self) -> ([f64; 4], [f64; 4]) {
        let mut p = [0.0f64; 4];
        let mut e = [0.0f64; 4];
        for (pl, &ti) in self.placements.iter().zip(&self.placement_threads) {
            let util = self.threads[ti].workload.utilization();
            match pl.cluster {
                ClusterKind::Performance => {
                    if pl.core_index < 4 {
                        p[pl.core_index] = util;
                    }
                }
                ClusterKind::Efficiency => {
                    if pl.core_index < 4 {
                        e[pl.core_index] = util;
                    }
                }
            }
        }
        (p, e)
    }

    /// Deterministic data-dependent signal currently carried by each
    /// cluster's rail, watts: `(p_signal, e_signal)`.
    fn deterministic_signals(&self) -> (f64, f64) {
        let mut p_sig = 0.0;
        let mut e_sig = 0.0;
        for (pl, &ti) in self.placements.iter().zip(&self.placement_threads) {
            let sig = self.threads[ti].workload.deterministic_signal_w();
            match pl.cluster {
                ClusterKind::Performance => p_sig += sig,
                ClusterKind::Efficiency => e_sig += sig,
            }
        }
        (p_sig, e_sig)
    }

    /// The governor-feed step shared by [`Soc::step`] and the window
    /// engine: select the telemetry feed, smooth it through the estimator
    /// and let the governor react. Returns `(estimate_w, action)`.
    fn feed_and_evaluate(
        &mut self,
        p_mean_w: f64,
        e_mean_w: f64,
        p_sig: f64,
        e_sig: f64,
    ) -> (f64, Option<ThrottleReason>) {
        let feed_w = match self.governor_feed {
            GovernorFeed::Estimator => p_mean_w + e_mean_w,
            GovernorFeed::SensedPower => p_mean_w + e_mean_w + p_sig + e_sig,
        };
        let est = self.estimator.update(feed_w);
        let action = self.governor.evaluate(&self.spec, est, self.thermal.temperature_c());
        (est, action)
    }

    /// Advance one time step (throttling-study path).
    pub fn step(&mut self, dt_s: f64) -> SocTick {
        let (p_w, e_w, util_sum) = self.mean_cluster_power();
        let (p_sig, e_sig) = self.deterministic_signals();
        let (est, action) = self.feed_and_evaluate(p_w, e_w, p_sig, e_sig);
        let rails = self.assemble_rails((p_w + p_sig).max(0.0), (e_w + e_sig).max(0.0), util_sum);
        self.thermal.step(rails.package_w, dt_s);
        self.time_s += dt_s;
        SocTick {
            time_s: self.time_s,
            rails,
            estimated_cpu_power_w: est,
            p_freq_ghz: self.governor.p_freq_ghz(&self.spec),
            e_freq_ghz: self.governor.e_freq_ghz(&self.spec),
            temperature_c: self.thermal.temperature_c(),
            throttled: self.governor.is_throttled(),
            throttle_action: action,
        }
    }

    /// Rebuild the segment's operating-point part: mean cluster powers,
    /// per-core utilization, repetition count and plan sharing.
    fn refresh_operating_point(&self, duration_s: f64, seg: &mut BatchSegment) {
        let (p_mean, e_mean, util_sum) = self.mean_cluster_power();
        let (p_core_util, e_core_util) = self.per_core_utilization();
        seg.valid = true;
        seg.duration_s = duration_s;
        seg.thermal_decay = self.thermal.decay(duration_s);
        seg.p_mean_w = p_mean;
        seg.e_mean_w = e_mean;
        seg.util_sum = util_sum;
        seg.reps = self.p_core_reps(duration_s);
        seg.p_freq_ghz = self.governor.p_freq_ghz(&self.spec);
        seg.e_freq_ghz = self.governor.e_freq_ghz(&self.spec);
        seg.p_core_util = p_core_util;
        seg.e_core_util = e_core_util;
        seg.plans.clear();
        seg.shared.clear();
        for (k, pl) in self.placements.iter().enumerate() {
            seg.plans.push((pl.cluster, None));
            let source = self.threads[self.placement_threads[k]].workload.plan_source();
            let twin = source.and_then(|src| {
                (0..k).find(|&j| {
                    self.threads[self.placement_threads[j]].workload.plan_source() == Some(src)
                })
            });
            seg.shared.push(twin);
        }
    }

    /// Evaluate the segment's signal plans at its repetition count, one
    /// per plan source, in placement order.
    fn refresh_plans(&mut self, seg: &mut BatchSegment) {
        for k in 0..seg.plans.len() {
            seg.plans[k].1 = match seg.shared[k] {
                Some(j) => seg.plans[j].1,
                None => self.threads[self.placement_threads[k]].workload.signal_plan(seg.reps),
            };
        }
    }

    /// Aggregate one measurement window analytically (trace-collection
    /// path). A thin single-window view over the batch engine: exactly
    /// [`Soc::run_windows`] with `n = 1`, reusing an internal scratch
    /// batch so the call allocates nothing in steady state.
    pub fn run_window(&mut self, duration_s: f64) -> WindowReport {
        let mut scratch = std::mem::take(&mut self.scratch);
        self.run_windows_into(1, duration_s, &mut scratch);
        let report = scratch.report(0);
        self.scratch = scratch;
        report
    }

    /// Run `n` measurement windows of `duration_s` each and collect them
    /// into a fresh [`WindowBatch`]. See [`Soc::run_windows_into`].
    #[must_use]
    pub fn run_windows(&mut self, n: usize, duration_s: f64) -> WindowBatch {
        let mut batch = WindowBatch::new();
        self.run_windows_into(n, duration_s, &mut batch);
        batch
    }

    /// Run `n` measurement windows of `duration_s` each into a reusable
    /// [`WindowBatch`] (cleared first; reusing one batch across calls
    /// makes the steady-state campaign loop allocation-free).
    ///
    /// **Bit-identical to the sequential path**: the batch holds exactly
    /// the reports `n` consecutive [`Soc::run_window`] calls would have
    /// returned, consuming the simulation RNG in the same order. The
    /// speedup comes from hoisting everything that is constant while the
    /// operating point does not move — the placement walk, the workload
    /// virtual calls, per-core utilization and the repetition count — out
    /// of the per-window loop into a segment.
    ///
    /// The segment persists across calls. Its operating-point part is
    /// rebuilt only when the P- or E-cluster frequency moved (governor
    /// action or [`Soc::set_power_mode`]), the placements changed
    /// ([`Soc::spawn`], [`Soc::kill`], [`Soc::kill_all`]) or `duration_s`
    /// differs from the previous call; a governor move mid-batch rebuilds
    /// it before the next window. The workloads' signal plans are
    /// re-evaluated at the start of every call, once per shared workload
    /// input, so a plaintext swapped between calls is always seen.
    ///
    /// Within one batch the victim plaintext (and any other workload data
    /// input) is treated as constant, which holds by construction for the
    /// single-threaded rigs: attacker interactions happen between batches.
    pub fn run_windows_into(&mut self, n: usize, duration_s: f64, batch: &mut WindowBatch) {
        batch.clear(duration_s);
        batch.reserve(n);
        if n == 0 {
            return;
        }
        let mut seg = std::mem::take(&mut self.segment);
        if !seg.holds(duration_s, self.p_freq_ghz(), self.e_freq_ghz()) {
            self.refresh_operating_point(duration_s, &mut seg);
        }
        self.refresh_plans(&mut seg);
        for i in 0..n {
            // Data-dependent / stochastic deviations per placed thread, in
            // placement order (fixing the RNG stream).
            let mut p_sig = 0.0;
            let mut e_sig = 0.0;
            for k in 0..seg.plans.len() {
                let (cluster, plan) = seg.plans[k];
                let sig = match plan {
                    Some(plan) => plan.sample(&mut self.rng),
                    None => {
                        let ti = self.placement_threads[k];
                        self.threads[ti].workload.window_signal_w(seg.reps, &mut self.rng)
                    }
                };
                match cluster {
                    ClusterKind::Performance => p_sig += sig,
                    ClusterKind::Efficiency => e_sig += sig,
                }
            }

            let (est, _action) = self.feed_and_evaluate(seg.p_mean_w, seg.e_mean_w, p_sig, e_sig);
            let rails = self.assemble_rails(
                (seg.p_mean_w + p_sig).max(0.0),
                (seg.e_mean_w + e_sig).max(0.0),
                seg.util_sum,
            );
            self.thermal.step_decayed(rails.package_w, seg.thermal_decay);
            self.time_s += duration_s;

            let p_freq_ghz = self.governor.p_freq_ghz(&self.spec);
            let e_freq_ghz = self.governor.e_freq_ghz(&self.spec);
            batch.push(&WindowReport {
                duration_s,
                rails,
                estimated_cpu_power_w: est,
                estimated_p_cluster_w: seg.p_mean_w,
                estimated_e_cluster_w: seg.e_mean_w,
                p_freq_ghz,
                e_freq_ghz,
                temperature_c: self.thermal.temperature_c(),
                p_core_reps: seg.reps,
                p_core_util: seg.p_core_util,
                e_core_util: seg.e_core_util,
            });

            // The governor may have moved the operating point (power or
            // thermal limit, or recovery): everything derived from the
            // frequency is stale, so rebuild the segment before the next
            // window (after the last one, the next call does).
            if i + 1 < n && (p_freq_ghz != seg.p_freq_ghz || e_freq_ghz != seg.e_freq_ghz) {
                self.refresh_operating_point(duration_s, &mut seg);
                self.refresh_plans(&mut seg);
            }
        }
        self.segment = seg;
    }

    /// Borrow the simulation RNG (for callers that must stay on the same
    /// reproducible stream, e.g. timing-jitter sampling in attacks).
    pub fn rng(&mut self) -> &mut ChaCha12Rng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::SchedAttrs;
    use crate::workload::{shared_plaintext, AesWorkload, FmulStressor, Idle, MatrixStressor};
    use psc_aes::leakage::LeakageModel;
    use std::sync::Arc;

    fn m2() -> Soc {
        Soc::new(SocSpec::macbook_air_m2(), 1234)
    }

    fn spawn_aes_threads(soc: &mut Soc, n: usize) -> crate::workload::SharedPlaintext {
        let model = Arc::new(LeakageModel::new(&[0x11u8; 16]).unwrap());
        let pt = shared_plaintext([0u8; 16]);
        let w = AesWorkload::new(Arc::clone(&model), Arc::clone(&pt));
        for i in 0..n {
            soc.spawn(format!("aes{i}"), SchedAttrs::realtime_p_core(), Box::new(w.clone()));
        }
        pt
    }

    #[test]
    fn idle_soc_power_is_baseline() {
        let mut soc = m2();
        let tick = soc.step(0.1);
        assert!(tick.rails.package_w < 1.5, "idle package {} W", tick.rails.package_w);
        assert!(tick.rails.is_physical());
    }

    #[test]
    fn aes_threads_land_on_p_cores() {
        let mut soc = m2();
        let _pt = spawn_aes_threads(&mut soc, 3);
        for pl in soc.placements() {
            assert_eq!(pl.cluster, ClusterKind::Performance);
        }
    }

    #[test]
    fn four_aes_threads_in_lowpower_draw_about_2_8w() {
        // §4: "running the AES-128 workload on all four P-cores resulted in
        // a power draw of only 2.8 W" (CPU power, lowpowermode @1.968 GHz).
        let mut soc = m2();
        soc.set_power_mode(PowerMode::LowPower);
        let _pt = spawn_aes_threads(&mut soc, 4);
        let tick = soc.step(0.1);
        let cpu = tick.rails.p_cluster_w + tick.rails.e_cluster_w;
        assert!((cpu - 2.8).abs() < 0.45, "cpu power {cpu} W, expected ≈2.8 W");
        assert!(!tick.throttled, "2.8 W must not throttle under the 4 W cap");
    }

    #[test]
    fn aes_plus_e_stressor_crosses_4w_and_throttles_p_only() {
        let mut soc = m2();
        soc.set_power_mode(PowerMode::LowPower);
        let _pt = spawn_aes_threads(&mut soc, 4);
        for i in 0..4 {
            soc.spawn(format!("fmul{i}"), SchedAttrs::background_e_core(), Box::new(FmulStressor));
        }
        let mut throttled = false;
        let mut last = None;
        for _ in 0..200 {
            let tick = soc.step(0.05);
            throttled |= tick.throttled;
            last = Some(tick);
        }
        let last = last.unwrap();
        assert!(throttled, "must hit the 4 W reactive limit");
        assert!(last.p_freq_ghz < 1.968, "P-cluster throttled below the lowpower cap");
        assert!((last.e_freq_ghz - 2.424).abs() < 1e-9, "E-cores keep 2.424 GHz");
        assert!(
            last.temperature_c < 60.0,
            "lowpowermode stays cool ({}°C): power limit, not thermal",
            last.temperature_c
        );
    }

    #[test]
    fn all_core_stress_hits_thermal_limit_first_in_normal_mode() {
        // §4: without lowpowermode, the thermal limit is consistently
        // reached before any power-based throttling on the fanless Air.
        let mut soc = m2();
        for i in 0..8 {
            soc.spawn(
                format!("matrix{i}"),
                if i < 4 { SchedAttrs::realtime_p_core() } else { SchedAttrs::background_e_core() },
                Box::new(MatrixStressor::default()),
            );
        }
        let mut first_throttle = None;
        for _ in 0..40_000 {
            let tick = soc.step(0.05);
            if let Some(reason) = tick.throttle_action {
                first_throttle = Some(reason);
                break;
            }
        }
        assert_eq!(first_throttle, Some(ThrottleReason::ThermalLimit));
    }

    #[test]
    fn window_rails_reflect_data_dependence() {
        let mut soc = m2();
        let pt = spawn_aes_threads(&mut soc, 3);
        let samples = |soc: &mut Soc, value: [u8; 16], pt: &crate::workload::SharedPlaintext| {
            pt.set(value);
            let n = 300;
            (0..n).map(|_| soc.run_window(1.0).rails.p_cluster_w).sum::<f64>() / n as f64
        };
        let mean0 = samples(&mut soc, [0x00; 16], &pt);
        let mean1 = samples(&mut soc, [0xFF; 16], &pt);
        assert!(
            (mean0 - mean1).abs() > 1.0e-4,
            "window p-rail must be data-dependent: {mean0} vs {mean1}"
        );
    }

    #[test]
    fn estimator_is_data_independent() {
        let mut soc = m2();
        let pt = spawn_aes_threads(&mut soc, 3);
        pt.set([0x00; 16]);
        let a = soc.run_window(1.0).estimated_cpu_power_w;
        pt.set([0xFF; 16]);
        // Run several windows so the EMA settles; estimate must not move
        // with the plaintext.
        let mut b = 0.0;
        for _ in 0..8 {
            b = soc.run_window(1.0).estimated_cpu_power_w;
        }
        assert!((a - b).abs() < 1e-9, "estimator moved with data: {a} vs {b}");
    }

    #[test]
    fn kill_restores_idle() {
        let mut soc = m2();
        let pt = spawn_aes_threads(&mut soc, 2);
        drop(pt);
        let busy = soc.step(0.1).rails.package_w;
        let ids: Vec<ThreadId> = soc.threads().iter().map(Thread::id).collect();
        for id in ids {
            assert!(soc.kill(id));
        }
        let idle = soc.step(0.1).rails.package_w;
        assert!(idle < busy);
        assert!(soc.placements().is_empty());
        assert!(!soc.kill(ThreadId(999)), "unknown thread");
    }

    #[test]
    fn reps_scale_with_frequency_and_duration() {
        let mut soc = m2();
        let full = soc.p_core_reps(1.0);
        assert!(full > 1.0e7, "multi-GHz core does >10M AES blocks/s");
        assert!((soc.p_core_reps(2.0) - 2.0 * full).abs() < 1.0);
        soc.set_power_mode(PowerMode::LowPower);
        assert!(soc.p_core_reps(1.0) < full, "lower frequency, fewer reps");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut soc = Soc::new(SocSpec::macbook_air_m2(), 77);
            let _pt = spawn_aes_threads(&mut soc, 3);
            (0..16).map(|_| soc.run_window(1.0).rails.p_cluster_w).collect::<Vec<f64>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn idle_workload_occupies_core_without_power() {
        let mut soc = m2();
        soc.spawn("idler", SchedAttrs::default(), Box::new(Idle));
        let tick = soc.step(0.1);
        assert!(tick.rails.package_w < 1.5);
    }

    #[test]
    fn per_core_utilization_matches_placements() {
        let mut soc = m2();
        let _pt = spawn_aes_threads(&mut soc, 2);
        let report = soc.run_window(1.0);
        // Two P-core victim threads at full utilization, two P-cores idle.
        let busy = report.p_core_util.iter().filter(|&&u| u > 0.99).count();
        let idle = report.p_core_util.iter().filter(|&&u| u == 0.0).count();
        assert_eq!((busy, idle), (2, 2), "{:?}", report.p_core_util);
        assert_eq!(report.e_core_util, [0.0; 4]);
    }

    /// Run one 1-window call on `soc`, and on `reference` with its segment
    /// forced stale first, and require bit-identical batches.
    fn step_pair(soc: &mut Soc, reference: &mut Soc, duration_s: f64, what: &str) {
        let mut a = WindowBatch::new();
        let mut b = WindowBatch::new();
        soc.run_windows_into(1, duration_s, &mut a);
        reference.segment.valid = false;
        reference.run_windows_into(1, duration_s, &mut b);
        let (ra, rb) = (a.report(0), b.report(0));
        assert_eq!(format!("{ra:?}"), format!("{rb:?}"), "{what}");
        assert_eq!(ra.rails.p_cluster_w.to_bits(), rb.rails.p_cluster_w.to_bits(), "{what}");
    }

    #[test]
    fn persistent_segment_honours_every_invalidation_trigger() {
        let mut soc = m2();
        let mut reference = m2();
        let pt = spawn_aes_threads(&mut soc, 3);
        let pt_ref = spawn_aes_threads(&mut reference, 3);
        let step = |soc: &mut Soc, reference: &mut Soc, d: f64, what: &str| {
            for i in 0..4u8 {
                pt.set([i.wrapping_mul(37); 16]);
                pt_ref.set([i.wrapping_mul(37); 16]);
                step_pair(soc, reference, d, what);
            }
        };
        step(&mut soc, &mut reference, 1.0, "steady state");
        // Frequency move between calls.
        for s in [&mut soc, &mut reference] {
            s.set_power_mode(PowerMode::LowPower);
        }
        step(&mut soc, &mut reference, 1.0, "after a frequency move");
        // Placement change between calls.
        let ids: Vec<ThreadId> = [&mut soc, &mut reference]
            .into_iter()
            .map(|s| {
                s.spawn(
                    "matrix",
                    SchedAttrs::background_e_core(),
                    Box::new(MatrixStressor::default()),
                )
            })
            .collect();
        step(&mut soc, &mut reference, 1.0, "after a spawn");
        assert!(soc.kill(ids[0]) && reference.kill(ids[1]));
        step(&mut soc, &mut reference, 1.0, "after a kill");
        // Window length change between calls.
        step(&mut soc, &mut reference, 0.25, "after a duration change");
        // kill_all leaves an idle SoC.
        for s in [&mut soc, &mut reference] {
            s.kill_all();
        }
        step(&mut soc, &mut reference, 0.25, "after kill_all");
        // Governor throttling between calls: lowpower, 4 AES threads and 4
        // E-core stressors cross the 4 W cap.
        let pt = spawn_aes_threads(&mut soc, 4);
        let pt_ref = spawn_aes_threads(&mut reference, 4);
        for s in [&mut soc, &mut reference] {
            for i in 0..4 {
                s.spawn(
                    format!("fmul{i}"),
                    SchedAttrs::background_e_core(),
                    Box::new(FmulStressor),
                );
            }
        }
        let mut freqs = Vec::new();
        for i in 0..60u8 {
            pt.set([i; 16]);
            pt_ref.set([i; 16]);
            step_pair(&mut soc, &mut reference, 0.25, "while throttling");
            freqs.push(soc.p_freq_ghz().to_bits());
        }
        freqs.dedup();
        assert!(freqs.len() > 1, "the governor must move the frequency between calls");
    }

    #[test]
    fn replicas_share_one_plan_per_call() {
        let mut soc = m2();
        let _pt = spawn_aes_threads(&mut soc, 3);
        soc.spawn("matrix", SchedAttrs::background_e_core(), Box::new(MatrixStressor::default()));
        soc.run_window(1.0);
        assert_eq!(soc.segment.shared, vec![None, Some(0), Some(0), None]);
    }

    #[test]
    fn time_advances() {
        let mut soc = m2();
        soc.step(0.25);
        soc.run_window(1.0);
        assert!((soc.time_s() - 1.25).abs() < 1e-12);
    }
}
