//! Round-trip law for the serializable campaign spec: one parser serves
//! the CLI, `psc resume` and the `psc serve` wire protocol, so
//! `parse(render(spec)) == spec` must hold for every representable spec.

use proptest::prelude::*;
use psc_core::spec::{
    AnalysisMode, CampaignSpec, MitigationSetting, MAX_NOISE_SIGMA_W, MAX_SLOW_MULTIPLIER,
};
use psc_core::{Device, TuneConfig};

#[allow(clippy::too_many_arguments)]
fn build_spec(
    mode: usize,
    device: bool,
    kernel: bool,
    fleet: bool,
    traces: usize,
    shards: usize,
    seed: u64,
    key: [u8; 16],
    every: u64,
    mit: usize,
    sigma: f64,
    obs: usize,
    unroll: usize,
    bus: usize,
    monitor_on: bool,
    monitor_s: f64,
) -> CampaignSpec {
    // Valid tuned constants only — parse() validates them.
    let tune = TuneConfig {
        cpa_unroll: [2, 4, 8][unroll],
        obs_chunk: [16, 32, 64, 128][obs],
        replay_chunk: TuneConfig::default().replay_chunk,
        bus_capacity: [4, 8, 16, 32][bus],
    };
    CampaignSpec {
        mode: [AnalysisMode::Tvla, AnalysisMode::Cpa, AnalysisMode::Adaptive][mode],
        device: if device { Device::MacbookAirM2 } else { Device::MacMiniM1 },
        kernel,
        fleet,
        traces,
        shards,
        seed,
        key,
        every,
        tune,
        mitigation: match mit {
            0 => None,
            1 => Some(MitigationSetting::Restrict),
            _ => Some(MitigationSetting::Noise(sigma)),
        },
        record: None,
        monitor: monitor_on.then_some(monitor_s),
    }
}

proptest! {
    #[test]
    fn spec_render_parse_round_trips(
        mode in 0usize..3,
        device in any::<bool>(),
        kernel in any::<bool>(),
        fleet in any::<bool>(),
        traces in 1usize..100_000,
        shards in 1usize..16,
        seed in any::<u64>(),
        key in any::<[u8; 16]>(),
        every in 1u64..1000,
        mit in 0usize..3,
        sigma in 0.001f64..100.0,
        obs in 0usize..4,
        unroll in 0usize..3,
        bus in 0usize..4,
        monitor_on in any::<bool>(),
        monitor_s in 0.01f64..600.0,
    ) {
        let spec = build_spec(
            mode, device, kernel, fleet, traces, shards, seed, key, every, mit, sigma, obs,
            unroll, bus, monitor_on, monitor_s,
        );
        let rendered = spec.render();
        let back = CampaignSpec::parse(&rendered).unwrap();
        prop_assert_eq!(back, spec);
    }

    // f64 fields ride through the cfg text via Display/parse; Rust's
    // shortest-round-trip formatting makes that exact, which the
    // PartialEq above only checks for the generated range — pin the
    // bitwise claim explicitly for the mitigation values, log-uniform
    // over every magnitude the parser accepts (σ from 1e-9 W up to
    // `MAX_NOISE_SIGMA_W`, multipliers from 1 up to `MAX_SLOW_MULTIPLIER`).
    #[test]
    fn mitigation_values_round_trip_bitwise(
        sigma_exp in -9.0f64..MAX_NOISE_SIGMA_W.log10(),
        mult_exp in 0.0f64..MAX_SLOW_MULTIPLIER.log10(),
    ) {
        let (sigma, mult) = (10f64.powf(sigma_exp), 10f64.powf(mult_exp));
        let back = MitigationSetting::parse(&MitigationSetting::Noise(sigma).render()).unwrap();
        prop_assert!(matches!(back, MitigationSetting::Noise(b) if b.to_bits() == sigma.to_bits()));
        let back = MitigationSetting::parse(&MitigationSetting::Slow(mult).render()).unwrap();
        prop_assert!(matches!(back, MitigationSetting::Slow(b) if b.to_bits() == mult.to_bits()));
    }
}
