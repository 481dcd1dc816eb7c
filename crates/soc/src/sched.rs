//! A miniature scheduler: priorities, SCHED_RR, and P/E-core placement.
//!
//! The paper (§4) steers its AES threads onto the P-cores by switching the
//! scheduler policy to round-robin (`SCHED_RR`) and raising thread priority,
//! while stressors run on the E-cores. We model exactly the placement
//! decision: higher-priority threads win performance cores; explicit
//! preferences are honoured when capacity allows.

use crate::config::ClusterKind;

/// Opaque thread identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub u64);

impl core::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "tid{}", self.0)
    }
}

/// Scheduling policy (macOS exposes these through `pthread` APIs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedPolicy {
    /// Default timeshare policy.
    #[default]
    TimeShare,
    /// `SCHED_RR`: fixed-priority round robin — the paper sets this, with
    /// maximum priority, to pin AES threads onto P-cores.
    RoundRobin,
}

/// Placement preference a workload may express (macOS QoS classes behave
/// similarly: background QoS lands on E-cores).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CorePreference {
    /// No preference: scheduler decides by priority.
    #[default]
    Any,
    /// Prefer performance cores.
    Performance,
    /// Prefer efficiency cores (background QoS).
    Efficiency,
}

/// Scheduling attributes of a simulated thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedAttrs {
    /// Priority, 0 (lowest) ..= 47 (highest realtime-ish band).
    pub priority: u8,
    /// Scheduling policy.
    pub policy: SchedPolicy,
    /// Placement preference.
    pub preference: CorePreference,
}

impl Default for SchedAttrs {
    fn default() -> Self {
        Self { priority: 20, policy: SchedPolicy::TimeShare, preference: CorePreference::Any }
    }
}

impl SchedAttrs {
    /// The attribute set the paper uses for its AES victim threads:
    /// `SCHED_RR` at maximum priority → P-core placement.
    #[must_use]
    pub fn realtime_p_core() -> Self {
        Self { priority: 47, policy: SchedPolicy::RoundRobin, preference: CorePreference::Any }
    }

    /// Background attributes used for E-core stressors.
    #[must_use]
    pub fn background_e_core() -> Self {
        Self { priority: 4, policy: SchedPolicy::TimeShare, preference: CorePreference::Efficiency }
    }
}

/// Where one thread landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The placed thread.
    pub thread: ThreadId,
    /// Chosen cluster.
    pub cluster: ClusterKind,
    /// Core index within the cluster.
    pub core_index: usize,
}

/// Compute placements for `(thread, attrs)` pairs given cluster capacities.
///
/// Deterministic: threads are sorted by descending effective priority
/// (round-robin threads outrank timeshare at equal priority), ties broken
/// by `ThreadId`. Each core runs at most one thread; threads that do not
/// fit anywhere are left unplaced (they would timeshare in reality; our
/// experiments never oversubscribe).
#[must_use]
pub fn place(threads: &[(ThreadId, SchedAttrs)], p_cores: usize, e_cores: usize) -> Vec<Placement> {
    let mut order: Vec<&(ThreadId, SchedAttrs)> = threads.iter().collect();
    order.sort_by_key(|(id, a)| {
        let policy_boost = match a.policy {
            SchedPolicy::RoundRobin => 1u16,
            SchedPolicy::TimeShare => 0,
        };
        // Descending priority: negate via Reverse-style arithmetic.
        (u16::MAX - (u16::from(a.priority) * 2 + policy_boost), id.0)
    });

    let mut p_used = 0usize;
    let mut e_used = 0usize;
    let mut out = Vec::with_capacity(threads.len());

    for (id, attrs) in order {
        let want_p_first = match attrs.preference {
            CorePreference::Performance => true,
            CorePreference::Efficiency => false,
            // No preference: high-priority / realtime work goes to P-cores,
            // low-priority work to E-cores (macOS QoS-style).
            CorePreference::Any => attrs.priority >= 16 || attrs.policy == SchedPolicy::RoundRobin,
        };
        let placed = if want_p_first {
            if p_used < p_cores {
                p_used += 1;
                Some((ClusterKind::Performance, p_used - 1))
            } else if e_used < e_cores {
                e_used += 1;
                Some((ClusterKind::Efficiency, e_used - 1))
            } else {
                None
            }
        } else if e_used < e_cores {
            e_used += 1;
            Some((ClusterKind::Efficiency, e_used - 1))
        } else if p_used < p_cores {
            p_used += 1;
            Some((ClusterKind::Performance, p_used - 1))
        } else {
            None
        };
        if let Some((cluster, core_index)) = placed {
            out.push(Placement { thread: *id, cluster, core_index });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(n: u64) -> ThreadId {
        ThreadId(n)
    }

    #[test]
    fn realtime_threads_take_p_cores() {
        let threads = vec![
            (tid(1), SchedAttrs::realtime_p_core()),
            (tid(2), SchedAttrs::realtime_p_core()),
            (tid(3), SchedAttrs::background_e_core()),
        ];
        let placements = place(&threads, 4, 4);
        assert_eq!(placements.len(), 3);
        let find = |id| placements.iter().find(|p| p.thread == tid(id)).unwrap();
        assert_eq!(find(1).cluster, ClusterKind::Performance);
        assert_eq!(find(2).cluster, ClusterKind::Performance);
        assert_eq!(find(3).cluster, ClusterKind::Efficiency);
    }

    #[test]
    fn overflow_from_p_to_e() {
        let threads: Vec<_> = (0..6).map(|i| (tid(i), SchedAttrs::realtime_p_core())).collect();
        let placements = place(&threads, 4, 4);
        let p = placements.iter().filter(|p| p.cluster == ClusterKind::Performance).count();
        let e = placements.iter().filter(|p| p.cluster == ClusterKind::Efficiency).count();
        assert_eq!((p, e), (4, 2));
    }

    #[test]
    fn higher_priority_wins_contended_p_core() {
        let low = SchedAttrs { priority: 20, ..Default::default() };
        let high = SchedAttrs { priority: 40, ..Default::default() };
        let threads = vec![(tid(1), low), (tid(2), high)];
        let placements = place(&threads, 1, 1);
        let find = |id| placements.iter().find(|p| p.thread == tid(id)).unwrap();
        assert_eq!(find(2).cluster, ClusterKind::Performance);
        assert_eq!(find(1).cluster, ClusterKind::Efficiency);
    }

    #[test]
    fn round_robin_outranks_timeshare_at_equal_priority() {
        let ts = SchedAttrs { priority: 30, ..Default::default() };
        let rr = SchedAttrs { priority: 30, policy: SchedPolicy::RoundRobin, ..Default::default() };
        let threads = vec![(tid(1), ts), (tid(2), rr)];
        let placements = place(&threads, 1, 0);
        assert_eq!(placements.len(), 1);
        assert_eq!(placements[0].thread, tid(2));
    }

    #[test]
    fn low_priority_any_prefers_e_cores() {
        let bg = SchedAttrs { priority: 5, ..Default::default() };
        let placements = place(&[(tid(1), bg)], 4, 4);
        assert_eq!(placements[0].cluster, ClusterKind::Efficiency);
    }

    #[test]
    fn explicit_efficiency_preference_honoured() {
        let attrs = SchedAttrs {
            priority: 47,
            policy: SchedPolicy::RoundRobin,
            preference: CorePreference::Efficiency,
        };
        let placements = place(&[(tid(1), attrs)], 4, 4);
        assert_eq!(placements[0].cluster, ClusterKind::Efficiency);
    }

    #[test]
    fn unplaceable_threads_dropped() {
        let threads: Vec<_> = (0..10).map(|i| (tid(i), SchedAttrs::default())).collect();
        let placements = place(&threads, 2, 2);
        assert_eq!(placements.len(), 4);
    }

    #[test]
    fn deterministic_tie_break_by_id() {
        let threads =
            vec![(tid(9), SchedAttrs::realtime_p_core()), (tid(1), SchedAttrs::realtime_p_core())];
        let placements = place(&threads, 1, 0);
        assert_eq!(placements[0].thread, tid(1), "lower id wins ties");
    }

    #[test]
    fn core_indices_unique_per_cluster() {
        let threads: Vec<_> = (0..8).map(|i| (tid(i), SchedAttrs::realtime_p_core())).collect();
        let placements = place(&threads, 4, 4);
        let mut seen = std::collections::HashSet::new();
        for p in &placements {
            assert!(seen.insert((p.cluster, p.core_index)), "duplicate core {p:?}");
        }
    }
}
