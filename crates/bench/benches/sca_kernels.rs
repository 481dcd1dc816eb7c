//! Kernel benches: the analysis toolkit (Welch-t accumulation, CPA
//! streaming and ranking, TVLA matrix computation, filtering, fusion,
//! codec, frame CRC-32, key enumeration). The one-byte correlation sweep
//! is timed in `leakage_kernels`.

use psc_bench::measure::Run;
use psc_sca::cpa::{CountPassMemo, Cpa};
use psc_sca::model::{PowerModel, Rd0Hw};
use psc_sca::stats::{welch_t, RunningMoments};
use psc_sca::trace::{Trace, TraceSet};
use psc_sca::tvla::TvlaMatrix;
use std::hint::black_box;

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

fn main() {
    let traces = synthetic_traces(10_000);
    let values = traces.values();
    let mut run = Run::start("sca_kernels");

    run.measure_ns("sca/welford_push_10k", || {
        let mut m = RunningMoments::new();
        for &v in &values {
            m.push(v);
        }
        black_box(m.variance());
    });

    let mut a = RunningMoments::new();
    let mut b = RunningMoments::new();
    a.extend(values.iter().copied());
    b.extend(values.iter().map(|v| v + 0.1));
    run.measure_ns("sca/welch_t", || {
        black_box(welch_t(black_box(&a), black_box(&b)));
    });

    run.measure_ns("sca/cpa_add_trace_x1000", || {
        let mut cpa = Cpa::new(Box::new(Rd0Hw));
        for t in traces.traces().iter().take(1000) {
            cpa.add_trace(t);
        }
        black_box(cpa.trace_count());
    });

    let mut cpa = Cpa::new(Box::new(Rd0Hw));
    cpa.add_set(&traces);
    let key = [0x42u8; 16];
    run.measure_ns("sca/cpa_full_rank_evaluation", || {
        black_box(cpa.ranks(black_box(&key)));
    });

    // A served CPA job's rank sweep: four channels binned over the same
    // 3 000 rows share their counts, so one count pass serves all four.
    let inputs: Vec<[u8; 16]> = traces
        .traces()
        .iter()
        .take(3_000)
        .map(|t| Rd0Hw.input_bytes(&t.plaintext, &t.ciphertext))
        .collect();
    let channels: Vec<Cpa> = (0..4)
        .map(|ch| {
            let column: Vec<Option<f64>> =
                values[..3_000].iter().map(|v| Some(v * (1.0 + 0.25 * ch as f64))).collect();
            let mut cpa = Cpa::new(Box::new(Rd0Hw));
            cpa.add_rows(&inputs, &column);
            cpa
        })
        .collect();
    run.measure_ns("sca/cpa_ranks_4ch_3000", || {
        let memo = CountPassMemo::default();
        for cpa in &channels {
            black_box(memo.ranks(cpa, black_box(&key)));
        }
    });

    // A served CPA Report frame's analysis state is ~256 KiB.
    let state: Vec<u8> =
        (0..256 * 1024u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
    run.measure_ns("sca/crc32_256k", || {
        black_box(psc_sca::checkpoint::crc32(black_box(&state)));
    });

    let ds: [Vec<f64>; 3] =
        [values[..3000].to_vec(), values[3000..6000].to_vec(), values[6000..9000].to_vec()];
    run.measure_ns("sca/tvla_matrix_3x3", || {
        black_box(TvlaMatrix::compute("bench", &ds, &ds));
    });

    run.measure_ns("sca/detrend_10k", || {
        black_box(psc_sca::filter::detrend_trace_set(&traces, 31));
    });

    let labelled = |label: &str| {
        let mut set = traces.clone();
        label.clone_into(&mut set.label);
        set
    };
    let (fa, fb, fc) = (labelled("A"), labelled("B"), labelled("C"));
    run.measure_ns("sca/fuse_z_3x10k", || {
        black_box(psc_sca::fusion::fuse_z(&[&fa, &fb, &fc]).expect("aligned"));
    });

    let records: Vec<psc_sca::codec::LabeledTrace> = traces
        .iter()
        .map(|&trace| psc_sca::codec::LabeledTrace { trace, pass: 0, class: None })
        .collect();
    run.measure_ns("sca/codec_roundtrip_10k", || {
        let mut bytes = Vec::with_capacity(traces.len() * 42 + 64);
        psc_sca::codec::write_recording(&traces.label, &records, &mut bytes).expect("write");
        black_box(psc_sca::codec::read_trace_set(&bytes[..]).expect("read"));
    });

    let enumerator = psc_sca::enumerate::KeyEnumerator::from_cpa(&cpa);
    run.measure_ns("sca/enumeration_1k_candidates", || {
        black_box(enumerator.search(1_000, |_| false));
    });
    run.finish();
}
