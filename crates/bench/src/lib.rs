//! # psc-bench — kernel and ablation benches
//!
//! The criterion benches (`benches/`) time the kernels (AES, TVLA/CPA
//! accumulation, SMC window simulation, bus, serve, fleet) and run the
//! ablation studies backing the calibration (`psc_aes::leakage` and
//! `psc_smc::sensors` module docs, `Device::aes_signal`). [`measure`] is
//! the timing and JSON-artifact helper they share. The paper's tables
//! and figures are regenerated by `psc repro`, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod measure;
