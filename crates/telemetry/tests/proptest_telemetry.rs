//! Property-based tests for the telemetry substrate: ring-buffer FIFO /
//! drop-accounting invariants and accumulator merge laws.

use proptest::prelude::*;
use psc_sca::stats::{Correlation, RunningMoments};
use psc_sca::tvla::{PlaintextClass, TvlaAccumulator};
use psc_telemetry::ring::{OverflowPolicy, RingBuffer};

fn policy_strategy() -> impl Strategy<Value = OverflowPolicy> {
    prop_oneof![Just(OverflowPolicy::Block), Just(OverflowPolicy::DropNewest),]
}

fn tvla_from_obs(obs: &[(bool, u8, f64)]) -> TvlaAccumulator {
    let mut acc = TvlaAccumulator::new();
    for &(pass, class, value) in obs {
        acc.push(usize::from(pass), PlaintextClass::ALL[usize::from(class % 3)], value);
    }
    acc
}

proptest! {
    /// Conservation: every push is either accepted or dropped, and the
    /// queue length never exceeds capacity.
    #[test]
    fn ring_conserves_items(
        capacity in 1usize..32,
        policy in policy_strategy(),
        items in proptest::collection::vec(any::<u16>(), 0..200),
    ) {
        let mut ring = RingBuffer::new(capacity, policy);
        for &item in &items {
            ring.push(item);
            prop_assert!(ring.len() <= capacity);
        }
        // Both policies refuse when full: every push is accepted or shed.
        prop_assert_eq!(ring.accepted() + ring.dropped(), items.len() as u64);
        let drained: Vec<u16> = std::iter::from_fn(|| ring.pop()).collect();
        prop_assert!(drained.len() <= items.len());
    }

    /// FIFO: under lossless conditions (never full) the ring replays the
    /// input sequence exactly.
    #[test]
    fn ring_is_fifo_when_not_full(
        policy in policy_strategy(),
        items in proptest::collection::vec(any::<u16>(), 0..64),
    ) {
        let mut ring = RingBuffer::new(64, policy);
        for &item in &items {
            prop_assert!(ring.push(item));
        }
        prop_assert_eq!(ring.dropped(), 0);
        let drained: Vec<u16> = std::iter::from_fn(|| ring.pop()).collect();
        prop_assert_eq!(drained, items);
    }

    /// DropNewest keeps exactly the oldest `capacity` items, in order.
    #[test]
    fn drop_newest_keeps_oldest_prefix(
        capacity in 1usize..16,
        items in proptest::collection::vec(any::<u16>(), 0..100),
    ) {
        let mut ring = RingBuffer::new(capacity, OverflowPolicy::DropNewest);
        for &item in &items {
            ring.push(item);
        }
        let drained: Vec<u16> = std::iter::from_fn(|| ring.pop()).collect();
        let expected: Vec<u16> = items[..items.len().min(capacity)].to_vec();
        prop_assert_eq!(drained, expected);
    }

    /// RunningMoments merge is commutative within tolerance.
    #[test]
    fn moments_merge_commutes(
        a in proptest::collection::vec(-1.0e3f64..1.0e3, 0..60),
        b in proptest::collection::vec(-1.0e3f64..1.0e3, 0..60),
    ) {
        let m = |xs: &Vec<f64>| {
            let mut m = RunningMoments::new();
            m.extend(xs.iter().copied());
            m
        };
        let ab = m(&a).merged(m(&b));
        let ba = m(&b).merged(m(&a));
        prop_assert_eq!(ab.count(), ba.count());
        prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9);
        prop_assert!((ab.variance() - ba.variance()).abs() < 1e-7);
    }

    /// Merging a split equals accumulating the whole stream.
    #[test]
    fn moments_merge_of_split_equals_whole(
        xs in proptest::collection::vec(-1.0e3f64..1.0e3, 1..120),
        cut_seed in any::<u32>(),
    ) {
        let cut = cut_seed as usize % (xs.len() + 1);
        let m = |slice: &[f64]| {
            let mut m = RunningMoments::new();
            m.extend(slice.iter().copied());
            m
        };
        let whole = m(&xs);
        let merged = m(&xs[..cut]).merged(m(&xs[cut..]));
        prop_assert_eq!(whole.count(), merged.count());
        prop_assert!((whole.mean() - merged.mean()).abs() < 1e-9);
        prop_assert!((whole.variance() - merged.variance()).abs() < 1e-7);
    }

    /// Correlation merge: commutative and split-equals-whole (the CPA
    /// accumulator is a per-bin family of exactly these sums).
    #[test]
    fn correlation_merge_laws(
        pairs in proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 2..100),
        cut_seed in any::<u32>(),
    ) {
        let cut = cut_seed as usize % (pairs.len() + 1);
        let c = |slice: &[(f64, f64)]| {
            let mut c = Correlation::new();
            for &(h, t) in slice {
                c.push(h, t);
            }
            c
        };
        let whole = c(&pairs);
        let merged = c(&pairs[..cut]).merged(c(&pairs[cut..]));
        prop_assert_eq!(whole.count(), merged.count());
        prop_assert!((whole.r() - merged.r()).abs() < 1e-9);
        let ab = c(&pairs[..cut]).merged(c(&pairs[cut..]));
        let ba = c(&pairs[cut..]).merged(c(&pairs[..cut]));
        prop_assert!((ab.r() - ba.r()).abs() < 1e-12);
    }

    /// TVLA accumulator merge: commutative, and split-equals-whole on
    /// every t-score cell.
    #[test]
    fn tvla_accumulator_merge_laws(
        obs in proptest::collection::vec(
            (any::<bool>(), any::<u8>(), -100.0f64..100.0),
            1..150,
        ),
        cut_seed in any::<u32>(),
    ) {
        let cut = cut_seed as usize % (obs.len() + 1);
        let whole = tvla_from_obs(&obs);
        let left = tvla_from_obs(&obs[..cut]);
        let right = tvla_from_obs(&obs[cut..]);
        let merged = left.merged(right);
        let commuted = right.merged(left);
        prop_assert_eq!(whole.total_count(), merged.total_count());
        let wm = whole.matrix("w");
        let mm = merged.matrix("m");
        let cm = commuted.matrix("c");
        for ((w, m), c) in wm.cells.iter().zip(&mm.cells).zip(&cm.cells) {
            prop_assert!((w.t_score - m.t_score).abs() < 1e-9,
                "split/whole: {} vs {}", w.t_score, m.t_score);
            prop_assert!((m.t_score - c.t_score).abs() < 1e-9,
                "commutativity: {} vs {}", m.t_score, c.t_score);
        }
    }
}
