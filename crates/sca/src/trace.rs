//! Side-channel trace containers.
//!
//! One *trace* in this attack is a single scalar — the SMC key value (or
//! timing) observed for one measurement window — together with the
//! known-plaintext record the attacker keeps (§3.4: "the attacker records
//! the plaintext, the generated ciphertext, and the corresponding SMC key
//! values right after the encryption").

/// One observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trace {
    /// The side-channel value (watts for power keys, seconds for timing).
    pub value: f64,
    /// The plaintext the attacker submitted.
    pub plaintext: [u8; 16],
    /// The ciphertext the victim returned.
    pub ciphertext: [u8; 16],
}

/// A labelled collection of traces.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceSet {
    /// Human-readable label (e.g. the SMC key name).
    pub label: String,
    traces: Vec<Trace>,
}

impl TraceSet {
    /// Empty set with a label.
    #[must_use]
    pub fn new(label: impl Into<String>) -> Self {
        Self { label: label.into(), traces: Vec::new() }
    }

    /// Empty set with pre-allocated capacity.
    #[must_use]
    pub fn with_capacity(label: impl Into<String>, capacity: usize) -> Self {
        Self { label: label.into(), traces: Vec::with_capacity(capacity) }
    }

    /// Append one trace.
    pub fn push(&mut self, trace: Trace) {
        self.traces.push(trace);
    }

    /// Number of traces.
    #[must_use]
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// All traces.
    #[must_use]
    pub fn traces(&self) -> &[Trace] {
        &self.traces
    }

    /// Iterate over traces.
    pub fn iter(&self) -> core::slice::Iter<'_, Trace> {
        self.traces.iter()
    }

    /// The side-channel values only.
    #[must_use]
    pub fn values(&self) -> Vec<f64> {
        self.traces.iter().map(|t| t.value).collect()
    }

    /// A new set containing the first `n` traces (prefix subsampling, used
    /// for GE-vs-trace-count curves).
    #[must_use]
    pub fn prefix(&self, n: usize) -> TraceSet {
        TraceSet {
            label: self.label.clone(),
            traces: self.traces[..n.min(self.traces.len())].to_vec(),
        }
    }
}

impl Extend<Trace> for TraceSet {
    fn extend<I: IntoIterator<Item = Trace>>(&mut self, iter: I) {
        self.traces.extend(iter);
    }
}

impl FromIterator<Trace> for TraceSet {
    fn from_iter<I: IntoIterator<Item = Trace>>(iter: I) -> Self {
        Self { label: String::new(), traces: iter.into_iter().collect() }
    }
}

impl<'a> IntoIterator for &'a TraceSet {
    type Item = &'a Trace;
    type IntoIter = core::slice::Iter<'a, Trace>;

    fn into_iter(self) -> Self::IntoIter {
        self.traces.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(v: f64) -> Trace {
        Trace { value: v, plaintext: [1; 16], ciphertext: [2; 16] }
    }

    #[test]
    fn push_and_len() {
        let mut set = TraceSet::new("PHPC");
        assert!(set.is_empty());
        set.push(trace(1.0));
        set.push(trace(2.0));
        assert_eq!(set.len(), 2);
        assert_eq!(set.label, "PHPC");
        assert_eq!(set.values(), vec![1.0, 2.0]);
    }

    #[test]
    fn prefix_subsamples() {
        let mut set = TraceSet::new("x");
        set.extend((0..10).map(|i| trace(f64::from(i))));
        let p = set.prefix(4);
        assert_eq!(p.len(), 4);
        assert_eq!(p.values(), vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(set.prefix(99).len(), 10, "prefix clamps");
    }

    #[test]
    fn collect_from_iterator() {
        let set: TraceSet = (0..5).map(|i| trace(f64::from(i))).collect();
        assert_eq!(set.len(), 5);
    }

    #[test]
    fn borrowed_iteration() {
        let mut set = TraceSet::new("x");
        set.extend([trace(1.0), trace(2.0)]);
        let sum: f64 = (&set).into_iter().map(|t| t.value).sum();
        assert_eq!(sum, 3.0);
    }

    #[test]
    fn clone_preserves_contents() {
        let mut set = TraceSet::new("PHPC");
        set.push(Trace { value: 2.25, plaintext: [3; 16], ciphertext: [9; 16] });
        let cloned = set.clone();
        assert_eq!(cloned, set);
        assert_eq!(cloned.traces()[0].plaintext, [3; 16]);
    }
}
