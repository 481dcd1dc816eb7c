//! # psc-sca — side-channel analysis toolkit
//!
//! The attacker-side mathematics of the paper, independent of where the
//! traces came from (simulated SMC keys here; real hardware in the paper):
//!
//! * [`stats`] — streaming Welford moments, Welch's t, Pearson correlation;
//! * [`trace`] — known-plaintext trace records and sets;
//! * [`tvla`] — Test Vector Leakage Assessment: the fixed-plaintext 3×3
//!   t-score matrices of Tables 3/5/6 with TP/TN/FP/FN classification;
//! * [`model`] — the CPA hypothesis models `Rd0-HW`, `Rd10-HW`, `Rd10-HD`;
//! * [`cpa`] — streaming Correlation Power Analysis with class binning,
//!   ranked by a count pass (Σh, Σh² from the bin counts alone, shared by
//!   every channel with the same counts) and a per-channel value pass
//!   (Σh·t);
//! * [`rank`] — key-byte ranks, Guessing Entropy (Σ log₂ rank), and the
//!   GE-vs-traces curves of Figure 1.
//!
//! ## Example: CPA on a synthetic leaky channel
//!
//! ```
//! use psc_sca::cpa::Cpa;
//! use psc_sca::model::Rd0Hw;
//! use psc_sca::trace::{Trace, TraceSet};
//! use psc_aes::Aes;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let key = [0x2Bu8; 16];
//! let aes = Aes::new(&key)?;
//! let mut traces = TraceSet::new("demo");
//! for i in 0u32..2000 {
//!     let pt: [u8; 16] = core::array::from_fn(|b| (i as u8).wrapping_mul(37).wrapping_add((b as u8).wrapping_mul(29)));
//!     let t = aes.encrypt_traced(&pt);
//!     let hw: u32 = t.round0_addkey().iter().map(|&x| x.count_ones()).sum();
//!     traces.push(Trace { value: hw as f64, plaintext: pt, ciphertext: t.ciphertext });
//! }
//! let mut cpa = Cpa::new(Box::new(Rd0Hw));
//! cpa.add_set(&traces);
//! let ranks = cpa.ranks(&key);
//! assert!(ranks.iter().all(|&r| r <= 256));
//! # Ok(())
//! # }
//! ```
//!
//! ## SIMD dispatch & autotuning
//!
//! The three hot analysis kernels — the CPA correlation sweep's count
//! and value passes ([`Cpa::correlations_into`] /
//! [`Cpa::correlations_all_into`]), the masked 4-lane Welford column
//! ingestion ([`stats::MomentsQuad`]) and the 4-lane Welch-t sweep
//! ([`stats::welch_t_x4`]) — run on the vendored `pulp` portable-SIMD
//! shim: one generic kernel, dispatched at runtime to AVX2 (x86-64), NEON
//! (aarch64) or a scalar fallback with the identical lane layout. Every
//! lane is a private addition chain in row order and no FMA contraction
//! is used, so **results are bit-identical across backends and unroll
//! widths** — pinned by `*_scalar` twin entry points, the `simd_props`
//! proptests and the `golden_correlate` digests. In the CPA passes a lane
//! is one guess: the value-major hypothesis table ([`cpa::HypTable`])
//! fills four lanes with one load, and splitting Σh/Σh² from Σh·t keeps
//! each guess's sums in `v` order, so the split moves no bit. Set
//! `PSC_SIMD=off` to force the scalar backend; the unroll width of the
//! correlation sweep ([`Cpa::set_unroll`]) is chosen per machine by the
//! `psc-core` autotuner.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod codec;
pub mod cpa;
pub mod enumerate;
pub mod filter;
pub mod fusion;
pub mod model;
pub mod rank;
pub mod stats;
pub mod trace;
pub mod tvla;

pub use checkpoint::{CheckpointError, PayloadReader, PayloadWriter, Section, CHECKPOINT_VERSION};
pub use cpa::{CountPassMemo, Cpa, CpaMergeError, CpaRestoreError, CpaState};
pub use enumerate::{verify_with_pair, KeyEnumerator};
pub use model::{paper_models, PowerModel, Rd0Hw, Rd10Hd, Rd10Hw, RecoveredRound};
pub use rank::{ge_curve, guessing_entropy, GeCurve, GePoint};
pub use stats::{pearson, welch_t, Correlation, RunningMoments};
pub use trace::{Trace, TraceSet};
pub use tvla::{
    PlaintextClass, TvlaAccumulator, TvlaCell, TvlaMatrix, TvlaOutcome, TVLA_THRESHOLD,
};
