//! Streaming processors: the consumers on the telemetry bus.

pub mod cpa;
pub mod monitor;
pub mod recorder;
pub mod tvla;

pub use cpa::{CpaGrid, StreamingCpa};
pub use monitor::{CadenceCheckpoint, ThrottleMonitor};
pub use recorder::{RecorderState, ShardRecorder};
pub use tvla::{SecondOrderTvla, StreamingTvla};
