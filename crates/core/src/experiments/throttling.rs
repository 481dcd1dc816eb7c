//! §4: the frequency-throttling side-channel study on the M2.
//!
//! Three stages, mirroring the paper's narrative:
//!
//! 1. **Thermal-first observation** — under default power mode, all-core
//!    stress trips the thermal limit before any power limit.
//! 2. **Finding the reactive power limit** — `lowpowermode` pins P-cores at
//!    1.968 GHz and enforces a 4 W CPU power cap; AES alone (≈2.8 W) does
//!    not throttle; adding an `fmul` stressor on the E-cores crosses 4 W
//!    and throttles the P-cluster only (E stays at 2.424 GHz, cool).
//! 3. **Timing attack attempt** — measure AES batch execution time under
//!    throttling for the TVLA plaintext classes. Because the governor is
//!    fed by the data-blind estimator (the `PHPS` signal), timing shows no
//!    data dependence (Table 6, right column).

use crate::experiments::config::ExperimentConfig;
use crate::rig::Device;
use psc_aes::leakage::LeakageModel;
use psc_sca::tvla::{PlaintextClass, TvlaAccumulator};
use psc_soc::noise::gaussian;
use psc_soc::sched::SchedAttrs;
use psc_soc::workload::{
    shared_plaintext, AesWorkload, FmulStressor, MatrixStressor, SharedPlaintext,
};
use psc_soc::{PowerMode, Soc, ThrottleReason};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::sync::Arc;

/// One row of the lowpowermode sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepRow {
    /// AES threads on P-cores.
    pub aes_threads: usize,
    /// `fmul` stressor threads on E-cores.
    pub e_stressors: usize,
    /// Steady-state estimator CPU power, watts.
    pub cpu_power_w: f64,
    /// Steady-state P-cluster frequency, GHz.
    pub p_freq_ghz: f64,
    /// Steady-state E-cluster frequency, GHz.
    pub e_freq_ghz: f64,
    /// Whether the P-cluster throttled below the lowpower cap.
    pub throttled: bool,
    /// Junction temperature at steady state, °C.
    pub temperature_c: f64,
}

/// The full §4 study result.
#[derive(Debug, Clone, PartialEq)]
pub struct ThrottlingStudy {
    /// First throttle reason under default mode, all-core stress.
    pub normal_mode_first_throttle: Option<ThrottleReason>,
    /// lowpowermode sweep rows (1..=4 AES threads, then +E stressors).
    pub sweep: Vec<SweepRow>,
    /// The reactive limit inferred from the sweep, watts.
    pub discovered_limit_w: f64,
    /// Keys that accepted writes during the smc-fuzzer probe (§4's search
    /// for reactive-limit configuration knobs).
    pub writable_keys: Vec<psc_smc::SmcKey>,
    /// Whether any writable key was power/limit-related (paper: none).
    pub limit_key_found: bool,
    /// P-cluster frequency residency (GHz, fraction) in the throttled
    /// 4-AES + 4-fmul configuration.
    pub p_residency: Vec<(f64, f64)>,
    /// E-cluster frequency residency in the same configuration — must be
    /// 100% at 2.424 GHz (§4: E-cores never throttle).
    pub e_residency: Vec<(f64, f64)>,
}

fn spawn_aes_threads(soc: &mut Soc, secret_key: &[u8; 16], count: usize) -> SharedPlaintext {
    spawn_aes_threads_boosted(soc, secret_key, count, 1.0)
}

fn spawn_aes_threads_boosted(
    soc: &mut Soc,
    secret_key: &[u8; 16],
    count: usize,
    signal_boost: f64,
) -> SharedPlaintext {
    use psc_soc::workload::AesSignal;
    let model = Arc::new(LeakageModel::new(secret_key).expect("valid key"));
    let plaintext = shared_plaintext([0u8; 16]);
    let base = AesSignal::default();
    let signal = AesSignal { w_per_unit: base.w_per_unit * signal_boost, ..base };
    // One workload cloned per thread: replicas share the plaintext memo.
    let workload = AesWorkload::with_signal(Arc::clone(&model), Arc::clone(&plaintext), signal);
    for i in 0..count {
        soc.spawn(format!("aes-{i}"), SchedAttrs::realtime_p_core(), Box::new(workload.clone()));
    }
    plaintext
}

fn settle(soc: &mut Soc, steps: usize, dt: f64) -> psc_soc::SocTick {
    let mut last = soc.step(dt);
    for _ in 1..steps {
        last = soc.step(dt);
    }
    last
}

/// Stage 1+2: discover the reactive power limit.
#[must_use]
pub fn run_throttling_study(cfg: &ExperimentConfig) -> ThrottlingStudy {
    // Stage 1: default mode, all-core matrix stress → thermal limit first.
    let mut soc = Soc::new(Device::MacbookAirM2.soc_spec(), cfg.seed);
    let spec = soc.spec().clone();
    for i in 0..spec.p_cluster.core_count {
        soc.spawn(
            format!("mx-p{i}"),
            SchedAttrs::realtime_p_core(),
            Box::new(MatrixStressor::default()),
        );
    }
    for i in 0..spec.e_cluster.core_count {
        soc.spawn(
            format!("mx-e{i}"),
            SchedAttrs::background_e_core(),
            Box::new(MatrixStressor::default()),
        );
    }
    let mut normal_mode_first_throttle = None;
    for _ in 0..60_000 {
        let tick = soc.step(0.05);
        if let Some(reason) = tick.throttle_action {
            normal_mode_first_throttle = Some(reason);
            break;
        }
    }

    // Stage 2: lowpowermode sweep.
    let mut sweep = Vec::new();
    for aes_threads in 1..=4usize {
        let mut soc = Soc::new(Device::MacbookAirM2.soc_spec(), cfg.seed + aes_threads as u64);
        soc.set_power_mode(PowerMode::LowPower);
        let _pt = spawn_aes_threads(&mut soc, &cfg.secret_key, aes_threads);
        let tick = settle(&mut soc, 400, 0.05);
        sweep.push(SweepRow {
            aes_threads,
            e_stressors: 0,
            cpu_power_w: tick.estimated_cpu_power_w,
            p_freq_ghz: tick.p_freq_ghz,
            e_freq_ghz: tick.e_freq_ghz,
            throttled: tick.throttled,
            temperature_c: tick.temperature_c,
        });
    }
    // 4 AES threads + fmul stressors on the E-cores.
    for e_stressors in 1..=4usize {
        let mut soc =
            Soc::new(Device::MacbookAirM2.soc_spec(), cfg.seed + 100 + e_stressors as u64);
        soc.set_power_mode(PowerMode::LowPower);
        let _pt = spawn_aes_threads(&mut soc, &cfg.secret_key, 4);
        for i in 0..e_stressors {
            soc.spawn(format!("fmul-{i}"), SchedAttrs::background_e_core(), Box::new(FmulStressor));
        }
        let tick = settle(&mut soc, 400, 0.05);
        sweep.push(SweepRow {
            aes_threads: 4,
            e_stressors,
            cpu_power_w: tick.estimated_cpu_power_w,
            p_freq_ghz: tick.p_freq_ghz,
            e_freq_ghz: tick.e_freq_ghz,
            throttled: tick.throttled,
            temperature_c: tick.temperature_c,
        });
    }

    // §4's preceding step: probe the SMC for modifiable keys that might
    // configure the reactive limits — the paper (and this probe) finds
    // none, which motivated the pmset/lowpowermode route.
    let smc = psc_smc::iokit::share(psc_smc::Smc::new(
        Device::MacbookAirM2.sensor_set(),
        cfg.seed ^ 0x11F7,
    ));
    let client = psc_smc::iokit::SmcUserClient::new(smc);
    let writable_keys = psc_smc::fuzzer::probe_writable_keys(&client).unwrap_or_default();
    let limit_key_found = writable_keys.iter().any(|k| k.is_power_key());

    // Frequency residency in the fully-stressed throttling regime, the
    // quantitative form of §4's "consistent frequency" observations.
    let mut soc = Soc::new(Device::MacbookAirM2.soc_spec(), cfg.seed + 777);
    soc.set_power_mode(PowerMode::LowPower);
    let _pt = spawn_aes_threads(&mut soc, &cfg.secret_key, 4);
    for i in 0..4 {
        soc.spawn(format!("fmul-r{i}"), SchedAttrs::background_e_core(), Box::new(FmulStressor));
    }
    settle(&mut soc, 200, 0.05);
    let mut p_res = psc_soc::residency::FreqResidency::new();
    let mut e_res = psc_soc::residency::FreqResidency::new();
    for _ in 0..400 {
        let tick = soc.step(0.05);
        p_res.observe(tick.p_freq_ghz, 0.05);
        e_res.observe(tick.e_freq_ghz, 0.05);
    }

    // The discovered limit: the configured lowpower cap, confirmed by the
    // first throttling row's power level.
    let discovered_limit_w = spec.platform.low_power_limit_w;
    ThrottlingStudy {
        normal_mode_first_throttle,
        sweep,
        discovered_limit_w,
        writable_keys,
        limit_key_found,
        p_residency: p_res.histogram(),
        e_residency: e_res.histogram(),
    }
}

impl ThrottlingStudy {
    /// The first sweep row that throttled, if any.
    #[must_use]
    pub fn first_throttled_row(&self) -> Option<&SweepRow> {
        self.sweep.iter().find(|r| r.throttled)
    }

    /// Paper-narrative rendering.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from("Section 4: throttling study on MacBook Air M2\n\n");
        out.push_str(&format!(
            "Default mode, all-core stress: first throttle = {:?} (paper: thermal limit first)\n\n",
            self.normal_mode_first_throttle
        ));
        out.push_str("lowpowermode sweep:\n");
        out.push_str("  AES(P) fmul(E)   CPU power    P freq    E freq  throttled   temp\n");
        for r in &self.sweep {
            out.push_str(&format!(
                "  {:>6} {:>7} {:>9.2} W {:>6.3} GHz {:>6.3} GHz {:>9} {:>5.1}°C\n",
                r.aes_threads,
                r.e_stressors,
                r.cpu_power_w,
                r.p_freq_ghz,
                r.e_freq_ghz,
                r.throttled,
                r.temperature_c
            ));
        }
        out.push_str(&format!(
            "\nDiscovered reactive power limit: {:.1} W (paper: 4 W)\n",
            self.discovered_limit_w
        ));
        let names: Vec<String> =
            self.writable_keys.iter().map(std::string::ToString::to_string).collect();
        out.push_str(&format!(
            "Writable SMC keys found by the fuzzer probe: [{}] — limit-related: {} \
             (paper: none found)\n",
            names.join(", "),
            self.limit_key_found
        ));
        let fmt_hist = |hist: &[(f64, f64)]| {
            hist.iter()
                .map(|(f, frac)| format!("{f:.3} GHz: {:.0}%", frac * 100.0))
                .collect::<Vec<_>>()
                .join(", ")
        };
        out.push_str(&format!(
            "Throttled-regime residency — P-cluster: [{}]; E-cluster: [{}]\n",
            fmt_hist(&self.p_residency),
            fmt_hist(&self.e_residency)
        ));
        out
    }
}

/// Stage 3: the timing side-channel attempt — the TVLA accumulator of
/// execution times for the plaintext classes while the system throttles
/// at the 4 W cap.
#[must_use]
pub fn timing_tvla(cfg: &ExperimentConfig) -> TvlaAccumulator {
    timing_tvla_with_feed(cfg, psc_soc::GovernorFeed::Estimator, 1.0)
}

/// The counterfactual variant: rewire the throttle governor to sensed
/// (data-dependent) power and optionally boost the victim's electrical
/// coupling by `signal_boost`. With [`psc_soc::GovernorFeed::SensedPower`]
/// the throttled frequency — and hence timing — becomes data-dependent,
/// demonstrating that the estimator feed is exactly what protects the real
/// systems (and what a Hertzbleed-style design would get wrong).
#[must_use]
pub fn timing_tvla_with_feed(
    cfg: &ExperimentConfig,
    feed: psc_soc::GovernorFeed,
    signal_boost: f64,
) -> TvlaAccumulator {
    let mut acc = TvlaAccumulator::new();
    timing_samples(cfg, feed, signal_boost, |pass, class, t| acc.push(pass, class, t));
    acc
}

/// Measure one AES batch time per (pass, class, trace) of the TVLA
/// schedule under throttling, handing each to `sink` as it is taken.
fn timing_samples(
    cfg: &ExperimentConfig,
    feed: psc_soc::GovernorFeed,
    signal_boost: f64,
    mut sink: impl FnMut(usize, PlaintextClass, f64),
) {
    let mut soc = Soc::new(Device::MacbookAirM2.soc_spec(), cfg.seed ^ 0x7180_771E);
    soc.set_power_mode(PowerMode::LowPower);
    soc.set_governor_feed(feed);
    let plaintext = spawn_aes_threads_boosted(&mut soc, &cfg.secret_key, 4, signal_boost);
    for i in 0..4 {
        soc.spawn(format!("fmul-{i}"), SchedAttrs::background_e_core(), Box::new(FmulStressor));
    }
    // Reach the steady throttling regime before measuring.
    settle(&mut soc, 300, 0.05);

    let spec = soc.spec().clone();
    let blocks_per_batch = 1.968e9 / spec.aes_cycles_per_block; // ≈1 s of work
    let mut rng = ChaCha12Rng::seed_from_u64(cfg.seed ^ 0x7171_7171);

    let batch_time = |soc: &mut Soc, rng: &mut ChaCha12Rng| -> f64 {
        let dt = 0.05;
        let mut done = 0.0;
        let mut elapsed = 0.0;
        loop {
            let tick = soc.step(dt);
            let rate = tick.p_freq_ghz * 1.0e9 / spec.aes_cycles_per_block;
            let step_blocks = rate * dt;
            if done + step_blocks >= blocks_per_batch {
                elapsed += (blocks_per_batch - done) / rate;
                break;
            }
            done += step_blocks;
            elapsed += dt;
        }
        // OS timer / scheduler jitter on the measurement.
        elapsed + gaussian(rng, 0.0, 0.8e-3)
    };

    for pass in 0..2 {
        for class in PlaintextClass::ALL {
            for _ in 0..cfg.timing_traces_per_class {
                let pt = class.fixed_plaintext().unwrap_or_else(|| {
                    let mut pt = [0u8; 16];
                    rng.fill(&mut pt);
                    pt
                });
                plaintext.set(pt);
                sink(pass, class, batch_time(&mut soc, &mut rng));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn study() -> &'static ThrottlingStudy {
        static STUDY: OnceLock<ThrottlingStudy> = OnceLock::new();
        STUDY.get_or_init(|| run_throttling_study(&ExperimentConfig::quick()))
    }

    #[test]
    fn normal_mode_hits_thermal_limit_first() {
        assert_eq!(study().normal_mode_first_throttle, Some(ThrottleReason::ThermalLimit));
    }

    #[test]
    fn aes_alone_stays_under_4w_at_1968() {
        let s = study();
        for r in s.sweep.iter().filter(|r| r.e_stressors == 0) {
            assert!(!r.throttled, "AES-only must not throttle: {r:?}");
            assert!((r.p_freq_ghz - 1.968).abs() < 1e-9, "{r:?}");
            assert!(r.cpu_power_w < 4.0, "{r:?}");
        }
        // 4 AES threads ≈ 2.8 W (§4).
        let four = s.sweep.iter().find(|r| r.aes_threads == 4 && r.e_stressors == 0).unwrap();
        assert!((four.cpu_power_w - 2.8).abs() < 0.5, "{four:?}");
    }

    #[test]
    fn stressors_cross_the_cap_and_throttle_p_only() {
        let s = study();
        let throttled = s.first_throttled_row().expect("some configuration throttles");
        assert!(throttled.e_stressors >= 1);
        assert!(throttled.p_freq_ghz < 1.968);
        assert!((throttled.e_freq_ghz - 2.424).abs() < 1e-9, "E-cores hold 2.424 GHz");
        assert!(throttled.temperature_c < 60.0, "power limit, not thermal: {throttled:?}");
        assert_eq!(s.discovered_limit_w, 4.0);
    }

    #[test]
    fn counterfactual_sensed_governor_leaks_timing() {
        // The ablation that validates the null-result mechanism: rewire the
        // governor to sensed power (with amplified victim coupling so the
        // effect is visible at test scale) and the timing channel leaks.
        let mut cfg = ExperimentConfig::quick();
        cfg.timing_traces_per_class = 60;
        let matrix = crate::experiments::throttling::timing_tvla_with_feed(
            &cfg,
            psc_soc::GovernorFeed::SensedPower,
            30.0,
        )
        .matrix("timing (sensed-feed counterfactual)");
        assert!(
            matrix.outcome_counts().true_positive >= 2,
            "sensed-fed governor must leak: {}",
            matrix.render()
        );
        // Control at the same scale: the estimator feed stays silent.
        let null = crate::experiments::throttling::timing_tvla_with_feed(
            &cfg,
            psc_soc::GovernorFeed::Estimator,
            30.0,
        )
        .matrix("timing (estimator feed)");
        assert!(null.shows_no_leakage(), "{}", null.render());
    }

    #[test]
    fn timing_datasets_have_expected_shape_and_scale() {
        let mut cfg = ExperimentConfig::quick();
        cfg.timing_traces_per_class = 12;
        let mut data: [[Vec<f64>; 3]; 2] = Default::default();
        timing_samples(&cfg, psc_soc::GovernorFeed::Estimator, 1.0, |pass, class, t| {
            data[pass][class.index()].push(t);
        });
        let acc = timing_tvla(&cfg);
        for (class, (first, second)) in
            PlaintextClass::ALL.into_iter().zip(data[0].iter().zip(&data[1]))
        {
            assert_eq!(first.len(), 12);
            assert_eq!(second.len(), 12);
            assert_eq!(acc.count(0, class), 12);
            assert_eq!(acc.count(1, class), 12);
            for &t in first {
                // Throttled: must take LONGER than the unthrottled ≈1 s.
                assert!(t > 0.9 && t < 3.0, "batch time {t}s");
            }
        }
    }

    #[test]
    fn render_mentions_key_findings() {
        let text = study().render();
        assert!(text.contains("ThermalLimit"));
        assert!(text.contains("4 W") || text.contains("4.0 W"));
        assert!(text.contains("Writable SMC keys"));
    }

    #[test]
    fn e_cluster_residency_is_entirely_at_2424() {
        let s = study();
        assert_eq!(s.e_residency.len(), 1, "{:?}", s.e_residency);
        assert!((s.e_residency[0].0 - 2.424).abs() < 1e-9);
        assert!((s.e_residency[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn p_cluster_residency_sits_below_the_lowpower_cap() {
        let s = study();
        let total: f64 = s.p_residency.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for &(freq, frac) in &s.p_residency {
            assert!(freq <= 1.968 + 1e-9, "throttled P must not exceed the cap");
            assert!(frac > 0.0);
        }
        // The regime oscillates between the cap point and throttled points;
        // a meaningful share of time is spent throttled.
        let below_cap: f64 = s.p_residency.iter().filter(|(f, _)| *f < 1.9).map(|(_, fr)| fr).sum();
        assert!(below_cap > 0.2, "residency {:?}", s.p_residency);
    }

    #[test]
    fn no_writable_limit_keys_exist() {
        let s = study();
        assert!(!s.writable_keys.is_empty(), "tunables like fan targets are writable");
        assert!(!s.limit_key_found, "§4: no reactive-limit key is modifiable");
    }
}
