//! Frequency-residency accounting.
//!
//! §4 of the paper reasons from frequency plateaus ("P-cores maintained a
//! consistent frequency of 1.968 GHz", "E-cores … continued to operate at
//! a stable frequency of 2.424 GHz"). This recorder accumulates how long a
//! cluster spends at each operating point so experiments can report those
//! plateaus quantitatively.

use std::collections::BTreeMap;

/// Time spent per frequency (binned at kHz resolution).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FreqResidency {
    /// kHz → seconds.
    bins: BTreeMap<u64, f64>,
    total_s: f64,
}

impl FreqResidency {
    /// Empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn bin_of(freq_ghz: f64) -> u64 {
        (freq_ghz * 1.0e6).round() as u64
    }

    /// Record `dt_s` seconds at `freq_ghz`.
    ///
    /// # Panics
    ///
    /// Panics on negative durations (a caller bug).
    pub fn observe(&mut self, freq_ghz: f64, dt_s: f64) {
        assert!(dt_s >= 0.0, "negative duration");
        *self.bins.entry(Self::bin_of(freq_ghz)).or_insert(0.0) += dt_s;
        self.total_s += dt_s;
    }

    /// Total observed time, seconds.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.total_s
    }

    /// Fraction of time spent at `freq_ghz` (0 if never observed).
    #[must_use]
    pub fn fraction_at(&self, freq_ghz: f64) -> f64 {
        if self.total_s <= 0.0 {
            return 0.0;
        }
        self.bins.get(&Self::bin_of(freq_ghz)).copied().unwrap_or(0.0) / self.total_s
    }

    /// The frequency with the largest residency, with its fraction.
    #[must_use]
    pub fn dominant(&self) -> Option<(f64, f64)> {
        if self.total_s <= 0.0 {
            return None;
        }
        self.bins
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(&khz, &s)| (khz as f64 / 1.0e6, s / self.total_s))
    }

    /// All (freq GHz, fraction) pairs, ascending by frequency.
    #[must_use]
    pub fn histogram(&self) -> Vec<(f64, f64)> {
        if self.total_s <= 0.0 {
            return Vec::new();
        }
        self.bins.iter().map(|(&khz, &s)| (khz as f64 / 1.0e6, s / self.total_s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one() {
        let mut r = FreqResidency::new();
        r.observe(1.968, 3.0);
        r.observe(1.704, 1.0);
        let sum: f64 = r.histogram().iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((r.fraction_at(1.968) - 0.75).abs() < 1e-12);
        assert!((r.fraction_at(1.704) - 0.25).abs() < 1e-12);
        assert_eq!(r.fraction_at(3.204), 0.0);
    }

    #[test]
    fn dominant_is_majority_bin() {
        let mut r = FreqResidency::new();
        r.observe(2.424, 5.0);
        r.observe(1.968, 2.0);
        let (freq, frac) = r.dominant().unwrap();
        assert!((freq - 2.424).abs() < 1e-9);
        assert!((frac - 5.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_recorder_is_safe() {
        let r = FreqResidency::new();
        assert_eq!(r.total_s(), 0.0);
        assert_eq!(r.fraction_at(1.0), 0.0);
        assert!(r.dominant().is_none());
        assert!(r.histogram().is_empty());
    }

    #[test]
    fn nearby_frequencies_bin_separately() {
        let mut r = FreqResidency::new();
        r.observe(1.968, 1.0);
        r.observe(1.9680001, 1.0); // same kHz bin
        r.observe(1.969, 1.0); // different bin
        assert_eq!(r.histogram().len(), 2);
        assert!((r.fraction_at(1.968) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "negative duration")]
    fn negative_duration_panics() {
        let mut r = FreqResidency::new();
        r.observe(1.0, -0.1);
    }
}
