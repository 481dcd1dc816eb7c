//! Dynamic voltage and frequency scaling: operating-point tables.
//!
//! Each cluster exposes a discrete ladder of (frequency, voltage) operating
//! points. The power model uses `f·V²` scaling between points; the reactive
//! limit governor ([`crate::limits`]) walks the ladder down/up one step at a
//! time, which is how the paper observes P-core frequencies settle at
//! distinct plateaus (e.g. 1.968 GHz in `lowpowermode`).

/// One DVFS operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Core clock in GHz.
    pub freq_ghz: f64,
    /// Supply voltage in volts at this point.
    pub voltage_v: f64,
}

/// An ordered (ascending frequency) table of operating points.
#[derive(Debug, Clone, PartialEq)]
pub struct OppTable {
    points: Vec<OperatingPoint>,
}

impl OppTable {
    /// Build a table from points; they are sorted by frequency.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or contains non-positive frequency or
    /// voltage (a configuration bug, not a runtime condition).
    #[must_use]
    pub fn new(mut points: Vec<OperatingPoint>) -> Self {
        assert!(!points.is_empty(), "OPP table must have at least one point");
        for p in &points {
            assert!(p.freq_ghz > 0.0 && p.voltage_v > 0.0, "invalid OPP {p:?}");
        }
        points.sort_by(|a, b| a.freq_ghz.total_cmp(&b.freq_ghz));
        Self { points }
    }

    /// All points, ascending by frequency.
    #[must_use]
    pub fn points(&self) -> &[OperatingPoint] {
        &self.points
    }

    /// Number of operating points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The highest operating point.
    #[must_use]
    pub fn max(&self) -> OperatingPoint {
        *self.points.last().expect("non-empty")
    }

    /// The lowest operating point.
    #[must_use]
    pub fn min(&self) -> OperatingPoint {
        self.points[0]
    }

    /// Index of the point with frequency closest to `freq_ghz`.
    #[must_use]
    pub fn nearest_index(&self, freq_ghz: f64) -> usize {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, p) in self.points.iter().enumerate() {
            let d = (p.freq_ghz - freq_ghz).abs();
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    /// The point at `index`, clamped into range.
    #[must_use]
    pub fn clamped(&self, index: isize) -> OperatingPoint {
        let idx = index.clamp(0, self.points.len() as isize - 1) as usize;
        self.points[idx]
    }

    /// The highest point whose frequency does not exceed `cap_ghz`; falls
    /// back to the lowest point if the cap is below the whole ladder.
    #[must_use]
    pub fn highest_at_most(&self, cap_ghz: f64) -> OperatingPoint {
        self.points
            .iter()
            .rev()
            .find(|p| p.freq_ghz <= cap_ghz + 1e-9)
            .copied()
            .unwrap_or(self.points[0])
    }
}

/// Linear-ish voltage ladder helper used by the presets: interpolates
/// voltage between `v_min` (at the lowest frequency) and `v_max` (at the
/// highest).
#[must_use]
pub fn ladder(freqs_ghz: &[f64], v_min: f64, v_max: f64) -> OppTable {
    assert!(freqs_ghz.len() >= 2, "ladder needs at least two frequencies");
    let f_min = freqs_ghz[0];
    let f_max = *freqs_ghz.last().expect("non-empty");
    let points = freqs_ghz
        .iter()
        .map(|&f| OperatingPoint {
            freq_ghz: f,
            voltage_v: v_min + (v_max - v_min) * (f - f_min) / (f_max - f_min),
        })
        .collect();
    OppTable::new(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> OppTable {
        ladder(&[0.6, 1.0, 1.5, 2.0, 2.5, 3.0], 0.75, 1.05)
    }

    #[test]
    fn sorted_ascending() {
        let t = table();
        for w in t.points().windows(2) {
            assert!(w[0].freq_ghz < w[1].freq_ghz);
        }
    }

    #[test]
    fn voltage_monotone_in_frequency() {
        let t = table();
        for w in t.points().windows(2) {
            assert!(w[0].voltage_v <= w[1].voltage_v);
        }
        assert_eq!(t.min().voltage_v, 0.75);
        assert_eq!(t.max().voltage_v, 1.05);
    }

    #[test]
    fn nearest_index_picks_closest() {
        let t = table();
        assert_eq!(t.points()[t.nearest_index(0.0)].freq_ghz, 0.6);
        assert_eq!(t.points()[t.nearest_index(1.4)].freq_ghz, 1.5);
        assert_eq!(t.points()[t.nearest_index(99.0)].freq_ghz, 3.0);
    }

    #[test]
    fn clamped_saturates() {
        let t = table();
        assert_eq!(t.clamped(-5).freq_ghz, 0.6);
        assert_eq!(t.clamped(100).freq_ghz, 3.0);
        assert_eq!(t.clamped(1).freq_ghz, 1.0);
    }

    #[test]
    fn highest_at_most_respects_cap() {
        let t = table();
        assert_eq!(t.highest_at_most(2.2).freq_ghz, 2.0);
        assert_eq!(t.highest_at_most(3.0).freq_ghz, 3.0);
        assert_eq!(t.highest_at_most(0.1).freq_ghz, 0.6, "falls back to lowest");
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_table_panics() {
        let _ = OppTable::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "invalid OPP")]
    fn invalid_point_panics() {
        let _ = OppTable::new(vec![OperatingPoint { freq_ghz: -1.0, voltage_v: 1.0 }]);
    }
}
