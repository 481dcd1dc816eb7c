//! Kernel benches: the analysis toolkit (Welch-t accumulation, CPA
//! streaming, correlation evaluation, TVLA matrix computation).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use psc_sca::cpa::Cpa;
use psc_sca::model::Rd0Hw;
use psc_sca::stats::{welch_t, RunningMoments};
use psc_sca::trace::{Trace, TraceSet};
use psc_sca::tvla::TvlaMatrix;

fn synthetic_traces(n: usize) -> TraceSet {
    let mut set = TraceSet::with_capacity("bench", n);
    let mut state = 0x1357_9BDFu64;
    for i in 0..n {
        let mut pt = [0u8; 16];
        for b in pt.iter_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *b = (state >> 32) as u8;
        }
        set.push(Trace { value: (i % 251) as f64, plaintext: pt, ciphertext: pt });
    }
    set
}

fn bench_sca(c: &mut Criterion) {
    let traces = synthetic_traces(10_000);

    c.bench_function("sca/welford_push_10k", |b| {
        let values: Vec<f64> = traces.values();
        b.iter(|| {
            let mut m = RunningMoments::new();
            for &v in &values {
                m.push(v);
            }
            black_box(m.variance())
        });
    });

    c.bench_function("sca/welch_t", |b| {
        let mut a = RunningMoments::new();
        let mut bb = RunningMoments::new();
        a.extend(traces.values());
        bb.extend(traces.values().iter().map(|v| v + 0.1));
        b.iter(|| welch_t(black_box(&a), black_box(&bb)));
    });

    c.bench_function("sca/cpa_add_trace_x1000", |b| {
        b.iter(|| {
            let mut cpa = Cpa::new(Box::new(Rd0Hw));
            for t in traces.traces().iter().take(1000) {
                cpa.add_trace(t);
            }
            black_box(cpa.trace_count())
        });
    });

    c.bench_function("sca/cpa_correlations_one_byte", |b| {
        let mut cpa = Cpa::new(Box::new(Rd0Hw));
        cpa.add_set(&traces);
        b.iter(|| black_box(cpa.correlations(black_box(7))));
    });

    c.bench_function("sca/cpa_full_rank_evaluation", |b| {
        let mut cpa = Cpa::new(Box::new(Rd0Hw));
        cpa.add_set(&traces);
        let key = [0x42u8; 16];
        b.iter(|| black_box(cpa.ranks(black_box(&key))));
    });

    c.bench_function("sca/tvla_matrix_3x3", |b| {
        let values = traces.values();
        let ds: [Vec<f64>; 3] =
            [values[..3000].to_vec(), values[3000..6000].to_vec(), values[6000..9000].to_vec()];
        b.iter(|| black_box(TvlaMatrix::compute("bench", &ds, &ds)));
    });

    c.bench_function("sca/detrend_10k", |b| {
        b.iter(|| black_box(psc_sca::filter::detrend_trace_set(&traces, 31)));
    });

    c.bench_function("sca/fuse_z_3x10k", |b| {
        let mut a = traces.clone();
        a.label = "A".to_owned();
        let mut bb = traces.clone();
        bb.label = "B".to_owned();
        let mut cc = traces.clone();
        cc.label = "C".to_owned();
        b.iter(|| black_box(psc_sca::fusion::fuse_z(&[&a, &bb, &cc]).expect("aligned")));
    });

    c.bench_function("sca/codec_roundtrip_10k", |b| {
        let records: Vec<psc_sca::codec::LabeledTrace> = traces
            .iter()
            .map(|&trace| psc_sca::codec::LabeledTrace { trace, pass: 0, class: None })
            .collect();
        b.iter(|| {
            let mut bytes = Vec::with_capacity(traces.len() * 42 + 64);
            psc_sca::codec::write_recording(&traces.label, &records, &mut bytes).expect("write");
            black_box(psc_sca::codec::read_trace_set(&bytes[..]).expect("read"))
        });
    });

    c.bench_function("sca/enumeration_1k_candidates", |b| {
        let mut cpa = Cpa::new(Box::new(Rd0Hw));
        cpa.add_set(&traces);
        let enumerator = psc_sca::enumerate::KeyEnumerator::from_cpa(&cpa);
        b.iter(|| black_box(enumerator.search(1_000, |_| false)));
    });
}

criterion_group!(benches, bench_sca);
criterion_main!(benches);
