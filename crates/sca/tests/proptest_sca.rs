//! Property-based tests for the analysis toolkit.

use proptest::prelude::*;
use psc_sca::codec::LabeledTrace;
use psc_sca::cpa::Cpa;
use psc_sca::filter::{detrend, Detrender};
use psc_sca::model::{paper_models, Rd0Hw, RecoveredRound};
use psc_sca::rank::{guessing_entropy, log_checkpoints};
use psc_sca::stats::{pearson, welch_t, Correlation, RunningMoments};
use psc_sca::trace::{Trace, TraceSet};
use psc_sca::tvla::{PlaintextClass, SecondOrderAccumulator, TvlaMatrix, TvlaOutcome};

proptest! {
    #[test]
    fn welford_matches_two_pass(xs in proptest::collection::vec(-1.0e6f64..1.0e6, 2..200)) {
        let mut m = RunningMoments::new();
        m.extend(xs.iter().copied());
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((m.mean() - mean).abs() < 1e-6 * mean.abs().max(1.0));
        prop_assert!((m.variance() - var).abs() < 1e-5 * var.max(1.0));
    }

    #[test]
    fn merge_is_associative_enough(
        a in proptest::collection::vec(-100.0f64..100.0, 1..50),
        b in proptest::collection::vec(-100.0f64..100.0, 1..50),
        c in proptest::collection::vec(-100.0f64..100.0, 1..50),
    ) {
        let m = |xs: &Vec<f64>| {
            let mut m = RunningMoments::new();
            m.extend(xs.iter().copied());
            m
        };
        let left = m(&a).merged(m(&b)).merged(m(&c));
        let right = m(&a).merged(m(&b).merged(m(&c)));
        prop_assert_eq!(left.count(), right.count());
        prop_assert!((left.mean() - right.mean()).abs() < 1e-9);
        prop_assert!((left.variance() - right.variance()).abs() < 1e-7);
    }

    #[test]
    fn welch_t_scale_invariant(
        xs in proptest::collection::vec(-10.0f64..10.0, 4..60),
        ys in proptest::collection::vec(-10.0f64..10.0, 4..60),
        scale in 0.001f64..1000.0,
    ) {
        let t_of = |s: f64| {
            let mut a = RunningMoments::new();
            let mut b = RunningMoments::new();
            a.extend(xs.iter().map(|x| x * s));
            b.extend(ys.iter().map(|y| y * s));
            welch_t(&a, &b)
        };
        let t1 = t_of(1.0);
        let t2 = t_of(scale);
        prop_assert!((t1 - t2).abs() < 1e-6 * t1.abs().max(1.0), "{t1} vs {t2}");
    }

    #[test]
    fn pearson_bounded_and_symmetric(
        pairs in proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 2..100),
    ) {
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let r = pearson(&xs, &ys);
        prop_assert!((-1.0..=1.0).contains(&r));
        prop_assert!((pearson(&ys, &xs) - r).abs() < 1e-12);
    }

    #[test]
    fn correlation_affine_invariance(
        pairs in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 3..60),
        a in 0.1f64..10.0,
        b in -5.0f64..5.0,
    ) {
        let mut base = Correlation::new();
        let mut scaled = Correlation::new();
        for (h, t) in &pairs {
            base.push(*h, *t);
            scaled.push(*h, a * t + b);
        }
        prop_assert!((base.r() - scaled.r()).abs() < 1e-6);
    }

    #[test]
    fn hypotheses_depend_only_on_input_byte(
        pt in any::<[u8; 16]>(),
        ct in any::<[u8; 16]>(),
        byte_index in 0usize..16,
        guess in any::<u8>(),
    ) {
        for model in paper_models() {
            let inputs = model.input_bytes(&pt, &ct);
            let direct = model.hypothesis(&pt, &ct, byte_index, guess);
            let via_input = model.hypothesis_value(inputs[byte_index], guess);
            prop_assert_eq!(direct, via_input, "{}", model.name());
            // The input byte is the known byte of the recovered round's side.
            let side = match model.recovered_round() {
                RecoveredRound::Round0 => pt,
                RecoveredRound::Round10 => ct,
            };
            prop_assert_eq!(inputs, side, "{}", model.name());
            // Every other plaintext and ciphertext byte leaves it alone.
            let flip = |xs: [u8; 16]| -> [u8; 16] {
                core::array::from_fn(|i| if i == byte_index { xs[i] } else { !xs[i] })
            };
            let moved = model.input_bytes(&flip(pt), &flip(ct));
            prop_assert_eq!(moved[byte_index], inputs[byte_index], "{}", model.name());
        }
    }

    #[test]
    fn cpa_ranks_always_valid(
        traces in proptest::collection::vec((any::<[u8; 16]>(), any::<[u8; 16]>(), -5.0f64..5.0), 2..80),
        key in any::<[u8; 16]>(),
    ) {
        let set: TraceSet = traces
            .iter()
            .map(|(pt, ct, v)| Trace { value: *v, plaintext: *pt, ciphertext: *ct })
            .collect();
        let mut cpa = Cpa::new(Box::new(Rd0Hw));
        cpa.add_set(&set);
        let ranks = cpa.ranks(&key);
        for r in ranks {
            prop_assert!((1..=256).contains(&r));
        }
        let ge = guessing_entropy(&ranks);
        prop_assert!((0.0..=128.0).contains(&ge));
    }

    #[test]
    fn ranked_guesses_is_permutation(
        traces in proptest::collection::vec((any::<[u8; 16]>(), -5.0f64..5.0), 2..40),
    ) {
        let set: TraceSet = traces
            .iter()
            .map(|(pt, v)| Trace { value: *v, plaintext: *pt, ciphertext: [0; 16] })
            .collect();
        let mut cpa = Cpa::new(Box::new(Rd0Hw));
        cpa.add_set(&set);
        let mut guesses = cpa.ranked_guesses(0);
        guesses.sort_unstable();
        let expected: Vec<u8> = (0..=255).collect();
        prop_assert_eq!(guesses, expected);
    }

    /// Second-order TVLA from one-pass mergeable central moments equals
    /// the two-pass reference (centre each dataset on its mean, square,
    /// then first-order TVLA) within 1e-9 relative, however the input is
    /// split into shards and in whatever order the shards merge.
    #[test]
    fn second_order_moments_match_two_pass_centred_squares(
        seed in any::<u64>(),
        offset in -1.0e3f64..1.0e3,
        shards in 1usize..6,
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Six datasets (pass × class) of different sizes and spreads.
        let mut sets: [[Vec<f64>; 3]; 2] = Default::default();
        for (i, set) in sets.iter_mut().flatten().enumerate() {
            let n = 2 + (next() % 300) as usize;
            let spread = 0.5 + (i % 3) as f64 * 0.4;
            *set = (0..n)
                .map(|_| {
                    let u = (next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
                    offset + spread * u * u * u
                })
                .collect();
        }
        let reference = {
            let centre_square = |xs: &Vec<f64>| -> Vec<f64> {
                let mean = xs.iter().sum::<f64>() / xs.len() as f64;
                xs.iter().map(|x| (x - mean) * (x - mean)).collect()
            };
            let [first, second] = &sets;
            TvlaMatrix::compute("ref", &first.clone().map(|xs| centre_square(&xs)), &second.clone().map(|xs| centre_square(&xs)))
        };
        // Deal every sample to a random shard, then merge the shards in a
        // random order.
        let mut parts = vec![SecondOrderAccumulator::default(); shards];
        for (pass, classes) in sets.iter().enumerate() {
            for (class, xs) in PlaintextClass::ALL.into_iter().zip(classes) {
                for &x in xs {
                    parts[(next() % shards as u64) as usize].push(pass, class, x);
                }
            }
        }
        let mut merged = SecondOrderAccumulator::default();
        while !parts.is_empty() {
            let pick = (next() % parts.len() as u64) as usize;
            merged = merged.merged(parts.swap_remove(pick));
        }
        let streamed = merged.matrix("streamed");
        for (r, s) in reference.cells.iter().zip(&streamed.cells) {
            let tol = 1e-9 * r.t_score.abs().max(1.0);
            prop_assert!(
                (r.t_score - s.t_score).abs() <= tol,
                "cell ({:?}, {:?}): reference {} vs streamed {}",
                r.row, r.column, r.t_score, s.t_score
            );
        }
    }

    #[test]
    fn tvla_same_distribution_rarely_distinguishable(
        seed in any::<u32>(),
    ) {
        // Deterministic LCG samples from ONE distribution for all six sets.
        let mut state = u64::from(seed) | 1;
        let mut sample = |n: usize| -> Vec<f64> {
            (0..n)
                .map(|_| {
                    state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    ((state >> 33) as f64 / f64::from(1u32 << 30)) - 4.0
                })
                .collect()
        };
        let first = [sample(800), sample(800), sample(800)];
        let second = [sample(800), sample(800), sample(800)];
        let m = TvlaMatrix::compute("null", &first, &second);
        // With no real effect, true positives are impossible by construction
        // of the ground truth, and false positives should be rare. Allow a
        // couple to avoid flakiness, but the diagonal of a same-distribution
        // channel must never produce 9/9 distinguishable cells.
        let counts = m.outcome_counts();
        prop_assert!(counts.false_positive + counts.true_positive < 9);
        prop_assert_eq!(counts.true_positive + counts.false_negative, 6, "6 off-diagonal cells");
    }

    #[test]
    fn tvla_outcome_classification_consistent(t in -50.0f64..50.0, diff in any::<bool>()) {
        let outcome = TvlaOutcome::classify(t, diff);
        let distinguishable = t.abs() >= 4.5;
        prop_assert_eq!(
            matches!(outcome, TvlaOutcome::TruePositive | TvlaOutcome::FalsePositive),
            distinguishable
        );
        prop_assert_eq!(
            matches!(outcome, TvlaOutcome::TruePositive | TvlaOutcome::FalseNegative),
            diff
        );
    }

    #[test]
    fn log_checkpoints_strictly_increasing(
        min in 1usize..1000,
        span in 2usize..1000,
        per_decade in 1usize..10,
    ) {
        let cps = log_checkpoints(min, min + span, per_decade);
        for w in cps.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        prop_assert_eq!(*cps.first().unwrap(), min);
        prop_assert_eq!(*cps.last().unwrap(), min + span);
    }

    #[test]
    fn trace_set_prefix_is_prefix(
        values in proptest::collection::vec(-10.0f64..10.0, 0..50),
        n in 0usize..60,
    ) {
        let set: TraceSet = values
            .iter()
            .map(|&v| Trace { value: v, plaintext: [0; 16], ciphertext: [0; 16] })
            .collect();
        let p = set.prefix(n);
        prop_assert_eq!(p.len(), n.min(set.len()));
        let p_values = p.values();
        let set_values = set.values();
        prop_assert_eq!(&p_values[..], &set_values[..p.len()]);
    }
}

mod simd_props {
    use proptest::prelude::*;
    use psc_sca::cpa::Cpa;
    use psc_sca::model::Rd0Hw;
    use psc_sca::stats::{welch_t, welch_t_x4, welch_t_x4_scalar, MomentsQuad, RunningMoments};
    use psc_sca::trace::Trace;
    use psc_sca::tvla::welch_t_matrix;

    proptest! {
        // Kernel 1 (CPA correlation sweep): the runtime-dispatched vector
        // path must be bit-identical to the scalar backend for arbitrary
        // accumulator states at every unroll width — including the
        // degenerate guards (no traces → n < 2; constant values →
        // var_t <= 0, where the sweep must zero the output).
        #[test]
        fn cpa_correlations_simd_matches_scalar_bitwise(
            traces in proptest::collection::vec((any::<[u8; 16]>(), -5.0f64..5.0), 0..60),
            constant in any::<bool>(),
            unroll_idx in 0usize..3,
        ) {
            let mut cpa = Cpa::new(Box::new(Rd0Hw));
            for (pt, v) in &traces {
                let value = if constant { 1.25 } else { *v };
                cpa.add_trace(&Trace { value, plaintext: *pt, ciphertext: [0; 16] });
            }
            cpa.set_unroll(Cpa::UNROLL_WIDTHS[unroll_idx]);
            let mut simd = [[0.0f64; 256]; 16];
            let mut scalar = [[1.0f64; 256]; 16];
            cpa.correlations_all_into(&mut simd);
            cpa.correlations_all_into_scalar(&mut scalar);
            for (simd_row, scalar_row) in simd.iter().zip(&scalar) {
                for (a, b) in simd_row.iter().zip(scalar_row) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            // The per-byte entry point runs the same chains.
            let mut one = [0.0f64; 256];
            cpa.correlations_into(0, &mut one);
            for (a, b) in one.iter().zip(&simd[0]) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        // Kernel 2a (TVLA column ingestion): the masked 4-lane Welford
        // update must be bit-identical to four independent scalar
        // accumulators for arbitrary present/denied (None) patterns.
        #[test]
        fn moments_quad_simd_matches_scalar_bitwise(
            rows in proptest::collection::vec(
                (any::<u8>(), (-100.0f64..100.0), (-100.0f64..100.0)),
                0..80,
            ),
        ) {
            // Lane i of row r is present iff mask bit i is set; denied
            // reads are None.
            let cell = |r: &(u8, f64, f64), i: usize| {
                (r.0 & (1 << i) != 0).then_some(r.1 + r.2 * i as f64)
            };
            let cols: [Vec<Option<f64>>; 4] =
                core::array::from_fn(|i| rows.iter().map(|r| cell(r, i)).collect());
            let col_refs: [&[Option<f64>]; 4] = core::array::from_fn(|i| cols[i].as_slice());
            let fresh = || core::array::from_fn(|_| RunningMoments::new());
            let mut simd = MomentsQuad::load(fresh());
            simd.extend_columns(col_refs);
            let mut scalar = MomentsQuad::load(fresh());
            scalar.extend_columns_scalar(col_refs);
            let mut independent: [RunningMoments; 4] = fresh();
            for (lane, col) in independent.iter_mut().zip(&cols) {
                lane.extend(col.iter().copied().flatten());
            }
            for ((a, b), c) in simd.store().iter().zip(&scalar.store()).zip(&independent) {
                prop_assert_eq!(a.raw().0, c.raw().0);
                prop_assert_eq!(a.raw().1.to_bits(), c.raw().1.to_bits());
                prop_assert_eq!(a.raw().2.to_bits(), c.raw().2.to_bits());
                prop_assert_eq!(a.raw().0, b.raw().0);
                prop_assert_eq!(a.raw().1.to_bits(), b.raw().1.to_bits());
                prop_assert_eq!(a.raw().2.to_bits(), b.raw().2.to_bits());
            }
        }

        // Kernel 2b (Welch-t column sweep): the 4-lane t statistic must
        // match the scalar formula bit for bit on finite accumulators,
        // degenerate lanes included (n = 0, n = 1, zero variance → 0.0).
        #[test]
        fn welch_t_x4_simd_matches_scalar_bitwise(
            lanes in proptest::collection::vec(
                (0usize..6, 0usize..6, -10.0f64..10.0, any::<bool>()),
                4,
            ),
        ) {
            let moments = |n: usize, base: f64, constant: bool| {
                let mut m = RunningMoments::new();
                for i in 0..n {
                    m.push(if constant { base } else { base + i as f64 * 0.37 });
                }
                m
            };
            let a: [RunningMoments; 4] =
                core::array::from_fn(|i| moments(lanes[i].0, lanes[i].2, lanes[i].3));
            let b: [RunningMoments; 4] =
                core::array::from_fn(|i| moments(lanes[i].1, -lanes[i].2, lanes[i].3));
            let vector = welch_t_x4(&a, &b);
            let scalar = welch_t_x4_scalar(&a, &b);
            for lane in 0..4 {
                prop_assert_eq!(vector[lane].to_bits(), scalar[lane].to_bits());
                prop_assert_eq!(vector[lane].to_bits(), welch_t(&a[lane], &b[lane]).to_bits());
            }
        }

        // Kernel 2c (3×3 matrix sweep): the fully vectorized nine-cell sweep
        // — three x4 evaluations, the last broadcasting the ninth cell — is
        // bit-identical to nine scalar `welch_t` calls, degenerate
        // accumulators included.
        #[test]
        fn welch_t_matrix_matches_nine_scalar_calls_bitwise(
            cells in proptest::collection::vec(
                (0usize..6, -10.0f64..10.0, any::<bool>()),
                6,
            ),
        ) {
            let moments = |n: usize, base: f64, constant: bool| {
                let mut m = RunningMoments::new();
                for i in 0..n {
                    m.push(if constant { base } else { base + i as f64 * 0.37 });
                }
                m
            };
            let second: [RunningMoments; 3] =
                core::array::from_fn(|i| moments(cells[i].0, cells[i].1, cells[i].2));
            let first: [RunningMoments; 3] =
                core::array::from_fn(|i| moments(cells[i + 3].0, cells[i + 3].1, cells[i + 3].2));
            let swept = welch_t_matrix(&second, &first);
            for (cell, t) in swept.iter().enumerate() {
                let scalar = welch_t(&second[cell / 3], &first[cell % 3]);
                prop_assert_eq!(t.to_bits(), scalar.to_bits());
            }
        }
    }
}

mod checkpoint_props {
    use proptest::prelude::*;
    use psc_sca::checkpoint::{
        decode_frame, encode_frame, get_cpa_state, get_tracker, get_tvla_accumulator,
        put_cpa_state, put_tracker, put_tvla_accumulator, PayloadReader, PayloadWriter, Section,
        CPA_BINS,
    };
    use psc_sca::cpa::CpaState;
    use psc_sca::tvla::{PlaintextClass, TvlaAccumulator, TvlaTracker};

    fn arb_sections() -> impl Strategy<Value = Vec<Section>> {
        proptest::collection::vec(
            (any::<u16>(), proptest::collection::vec(any::<u8>(), 0..96))
                .prop_map(|(tag, payload)| Section { tag, payload }),
            0..6,
        )
    }

    proptest! {
        #[test]
        fn frame_round_trips_bit_identically(sections in arb_sections()) {
            let bytes = encode_frame(&sections);
            prop_assert_eq!(decode_frame(&bytes).unwrap(), sections);
        }

        #[test]
        fn truncation_never_panics_and_always_errs(sections in arb_sections(), frac in 0.0f64..1.0) {
            let bytes = encode_frame(&sections);
            let cut = ((bytes.len() as f64) * frac) as usize;
            prop_assert!(decode_frame(&bytes[..cut.min(bytes.len() - 1)]).is_err());
        }

        #[test]
        fn byte_flips_never_panic_and_always_err(
            sections in arb_sections(),
            idx in any::<usize>(),
            bit in 0u8..8,
        ) {
            let mut bytes = encode_frame(&sections);
            let i = idx % bytes.len();
            bytes[i] ^= 1 << bit;
            prop_assert!(decode_frame(&bytes).is_err());
        }

        #[test]
        fn arbitrary_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_frame(&bytes);
        }

        #[test]
        fn tvla_accumulator_round_trips_bit_identically(
            samples in proptest::collection::vec((0usize..2, 0usize..3, -50.0f64..50.0), 0..120),
        ) {
            let mut acc = TvlaAccumulator::new();
            for &(pass, class, v) in &samples {
                acc.push(pass, PlaintextClass::ALL[class], v);
            }
            let mut w = PayloadWriter::new();
            put_tvla_accumulator(&mut w, &acc);
            let section = w.into_section(3);
            let mut r = PayloadReader::new(&section.payload);
            let back = get_tvla_accumulator(&mut r).unwrap();
            r.finish().unwrap();
            let ours = acc.raw();
            let theirs = back.raw();
            for (a, b) in ours.iter().flatten().zip(theirs.iter().flatten()) {
                let (an, am, a2) = a.raw();
                let (bn, bm, b2) = b.raw();
                prop_assert_eq!(an, bn);
                prop_assert_eq!(am.to_bits(), bm.to_bits());
                prop_assert_eq!(a2.to_bits(), b2.to_bits());
            }
        }

        #[test]
        fn tracker_round_trips_bit_identically(
            xs in proptest::collection::vec(-10.0f64..10.0, 0..40),
            ys in proptest::collection::vec(-10.0f64..10.0, 0..40),
        ) {
            let mut tracker = TvlaTracker::new();
            for &x in &xs { tracker.push_a(x); }
            for &y in &ys { tracker.push_b(y); }
            let mut w = PayloadWriter::new();
            put_tracker(&mut w, &tracker);
            let section = w.into_section(4);
            let mut r = PayloadReader::new(&section.payload);
            let back = get_tracker(&mut r).unwrap();
            r.finish().unwrap();
            let (a1, b1) = tracker.raw();
            let (a2, b2) = back.raw();
            prop_assert_eq!(a1.raw().0, a2.raw().0);
            prop_assert_eq!(a1.raw().1.to_bits(), a2.raw().1.to_bits());
            prop_assert_eq!(b1.raw().2.to_bits(), b2.raw().2.to_bits());
        }

        #[test]
        fn cpa_state_round_trips_and_rejects_truncation(
            seed in any::<u64>(),
            n in 0u64..10_000,
        ) {
            let mut x = seed | 1;
            let mut next = move || {
                // xorshift64* — cheap deterministic bin filler.
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                x.wrapping_mul(0x2545_F491_4F6C_DD1D)
            };
            let state = CpaState {
                model_name: "Rd10-HD".into(),
                bins: (0..CPA_BINS)
                    .map(|_| (next() % 1024, (next() % 2048) as f64 / 7.0 - 100.0))
                    .collect(),
                n,
                sum_t: (next() % 4096) as f64 / 3.0,
                sum_tt: (next() % 4096) as f64 * 11.0,
            };
            let mut w = PayloadWriter::new();
            put_cpa_state(&mut w, &state);
            let section = w.into_section(5);
            let mut r = PayloadReader::new(&section.payload);
            let back = get_cpa_state(&mut r).unwrap();
            r.finish().unwrap();
            prop_assert_eq!(back, state);
            // Any truncated prefix must decode to a clean error.
            let cut = section.payload.len() / 2;
            let mut r = PayloadReader::new(&section.payload[..cut]);
            prop_assert!(get_cpa_state(&mut r).is_err());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The streaming detrender gives `filter::detrend`'s bits, whatever
    /// the chunking, including windows wider than the series, lags by
    /// exactly half a window, and starts over clean after `finish`.
    #[test]
    fn streaming_detrend_matches_the_batch_filter_bit_for_bit(
        xs in proptest::collection::vec(-1.0e6f64..1.0e6, 0..=300),
        window in 2usize..=65,
        cuts in proptest::collection::vec(1usize..=40, 1..20),
    ) {
        let records: Vec<LabeledTrace> = xs
            .iter()
            .enumerate()
            .map(|(i, &value)| LabeledTrace {
                trace: Trace { value, plaintext: [i as u8; 16], ciphertext: [(i >> 8) as u8; 16] },
                pass: (i % 2) as u8,
                class: PlaintextClass::ALL.get(i % 4).copied(),
            })
            .collect();
        let want: Vec<u64> = detrend(&xs, window).iter().map(|v| v.to_bits()).collect();
        let mut detrender = Detrender::new(window);
        for _ in 0..2 {
            let mut out = Vec::new();
            let (mut rest, mut pushed) = (&records[..], 0usize);
            for &cut in cuts.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (chunk, tail) = rest.split_at(cut.min(rest.len()));
                detrender.push(chunk, &mut out);
                (rest, pushed) = (tail, pushed + chunk.len());
                prop_assert_eq!(out.len(), pushed.saturating_sub(window / 2));
            }
            detrender.finish(&mut out);
            let got: Vec<u64> = out.iter().map(|t| t.trace.value.to_bits()).collect();
            prop_assert_eq!(&got, &want, "window {}", window);
            for (got, record) in out.iter().zip(&records) {
                prop_assert_eq!(
                    (got.trace.plaintext, got.trace.ciphertext, got.pass, got.class),
                    (record.trace.plaintext, record.trace.ciphertext, record.pass, record.class)
                );
            }
        }
    }
}
