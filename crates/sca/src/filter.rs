//! Trace preprocessing filters.
//!
//! The paper's `PSTR` key fails CPA because the system rail *drifts*
//! slowly (Table 3's same-plaintext false positives; Table 4's random-ish
//! ranks). Drift is low-frequency; the per-trace leakage is white. An
//! attacker can therefore subtract a centered moving average from the
//! trace series — a high-pass filter — and recover much of the channel.
//! [`detrend_trace_set`] implements exactly that (traces must be kept in
//! collection order, which [`crate::trace::TraceSet`] preserves).
//! [`Detrender`] is its streaming form: the same bits in O(window)
//! memory, for recordings replayed chunk by chunk.

use crate::codec::LabeledTrace;
use crate::trace::{Trace, TraceSet};
use std::collections::VecDeque;

/// Centered moving average with window `window` (forced odd by rounding
/// up); edges use the available neighbourhood.
///
/// # Panics
///
/// Panics if `window == 0`.
#[must_use]
pub fn moving_average(xs: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "window must be positive");
    let half = window / 2;
    let n = xs.len();
    // Prefix sums for O(n) evaluation.
    let mut prefix = Vec::with_capacity(n + 1);
    prefix.push(0.0);
    for &x in xs {
        prefix.push(prefix.last().expect("non-empty") + x);
    }
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(n);
            (prefix[hi] - prefix[lo]) / (hi - lo) as f64
        })
        .collect()
}

/// Subtract the centered moving average from each element (high-pass).
/// Window 1 yields all zeros (each element is its own average); the
/// smallest useful window is 2, which rounds up to 3.
///
/// # Panics
///
/// Panics if `window == 0`.
#[must_use]
pub fn detrend(xs: &[f64], window: usize) -> Vec<f64> {
    let ma = moving_average(xs, window);
    xs.iter().zip(ma).map(|(x, m)| x - m).collect()
}

/// Detrend a trace set's values in collection order, keeping the
/// plaintext/ciphertext records aligned.
///
/// # Panics
///
/// Panics if `window == 0`.
#[must_use]
pub fn detrend_trace_set(set: &TraceSet, window: usize) -> TraceSet {
    let values = detrend(&set.values(), window);
    let mut out = TraceSet::with_capacity(set.label.clone(), set.len());
    for (t, v) in set.iter().zip(values) {
        out.push(Trace { value: v, plaintext: t.plaintext, ciphertext: t.ciphertext });
    }
    out
}

/// Streaming [`detrend`]: records go in one chunk at a time and come
/// out detrended, in order and bit for bit as `detrend` over the whole
/// series would give them, with the labels and texts untouched.
///
/// A record leaves once the half window after it has arrived, so output
/// lags input by `window / 2` records; [`Detrender::finish`] flushes the
/// tail with the shrunken edge windows. The running prefix sums are the
/// ones [`moving_average`] builds, kept in a ring of the last
/// `2 × (window / 2) + 2` entries, so memory is O(window), not O(series).
#[derive(Debug, Clone)]
pub struct Detrender {
    half: u64,
    /// Prefix sums `P[base..=seen]`, `P[k]` = sum of the first `k` values.
    prefix: VecDeque<f64>,
    base: u64,
    /// Records that have not left yet; the front one has index `seen -
    /// pending.len()`.
    pending: VecDeque<LabeledTrace>,
    seen: u64,
}

impl Detrender {
    /// A detrender for a centered moving-average window of `window`
    /// (rounded up to odd, as in [`moving_average`]).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    #[must_use]
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        let half = window / 2;
        Self {
            half: half as u64,
            prefix: VecDeque::from([0.0]),
            base: 0,
            pending: VecDeque::with_capacity(half + 1),
            seen: 0,
        }
    }

    /// Take `input` in, appending to `out` every record whose window is
    /// now complete.
    pub fn push(&mut self, input: &[LabeledTrace], out: &mut Vec<LabeledTrace>) {
        for &t in input {
            let last = *self.prefix.back().expect("the ring keeps P[seen]");
            self.prefix.push_back(last + t.trace.value);
            self.pending.push_back(t);
            self.seen += 1;
            if self.pending.len() as u64 > self.half {
                self.emit(out);
            }
        }
    }

    /// Flush the records still waiting, each over the window the end of
    /// the series leaves it, and start over as a fresh detrender.
    pub fn finish(&mut self, out: &mut Vec<LabeledTrace>) {
        while !self.pending.is_empty() {
            self.emit(out);
        }
        *self = Self::new(2 * self.half as usize + 1);
    }

    /// Emit the front pending record, index `i`, over the values
    /// `lo..hi`: its half window each side, cut at the series start and
    /// at the last value seen (the series end when called from `finish`).
    fn emit(&mut self, out: &mut Vec<LabeledTrace>) {
        let mut t = self.pending.pop_front().expect("a pending record");
        let i = self.seen - self.pending.len() as u64 - 1;
        let (lo, hi) = (i.saturating_sub(self.half), self.seen);
        let at = |k: u64| self.prefix[(k - self.base) as usize];
        let mean = (at(hi) - at(lo)) / (hi - lo) as f64;
        t.trace.value -= mean;
        out.push(t);
        // The next record's window starts one later.
        while self.base < (i + 1).saturating_sub(self.half) {
            self.prefix.pop_front();
            self.base += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moving_average_of_constant_is_constant() {
        let xs = vec![3.5; 20];
        for w in [1, 3, 7, 21] {
            assert!(moving_average(&xs, w).iter().all(|&m| (m - 3.5).abs() < 1e-12));
        }
    }

    #[test]
    fn detrend_removes_linear_trend() {
        let xs: Vec<f64> = (0..200).map(|i| 0.5 * f64::from(i)).collect();
        let detrended = detrend(&xs, 21);
        // Away from the edges, a linear trend is removed exactly.
        for &v in &detrended[10..190] {
            assert!(v.abs() < 1e-9, "residual {v}");
        }
    }

    #[test]
    fn detrend_preserves_high_frequency_signal() {
        // Alternating ±1 plus slow drift: detrending keeps the alternation.
        let xs: Vec<f64> =
            (0..300).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 } + 0.01 * f64::from(i)).collect();
        let detrended = detrend(&xs, 31);
        for (i, &v) in detrended.iter().enumerate().skip(16).take(260) {
            let expected = if i % 2 == 0 { 1.0 } else { -1.0 };
            assert!((v - expected).abs() < 0.1, "i={i} v={v}");
        }
    }

    #[test]
    fn window_one_zeroes_everything() {
        let xs = [1.0, -2.0, 3.0];
        assert!(detrend(&xs, 1).iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(moving_average(&[], 5).is_empty());
        assert!(detrend(&[], 5).is_empty());
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let _ = moving_average(&[1.0], 0);
    }

    #[test]
    fn trace_set_detrend_keeps_records_aligned() {
        let mut set = TraceSet::new("PSTR");
        for i in 0..50 {
            set.push(Trace {
                value: f64::from(i) * 0.2 + if i % 2 == 0 { 0.5 } else { -0.5 },
                plaintext: [i as u8; 16],
                ciphertext: [(i * 3) as u8; 16],
            });
        }
        let filtered = detrend_trace_set(&set, 11);
        assert_eq!(filtered.len(), set.len());
        assert_eq!(filtered.label, "PSTR");
        for (orig, filt) in set.iter().zip(filtered.iter()) {
            assert_eq!(orig.plaintext, filt.plaintext);
            assert_eq!(orig.ciphertext, filt.ciphertext);
        }
        // The drift component is largely gone in the middle.
        let mid: f64 = filtered.values()[10..40].iter().sum::<f64>() / 30.0;
        assert!(mid.abs() < 0.1, "mean after detrend {mid}");
    }
}
