//! The streamed GE grid pinned against the batch curve: `CpaGrid` run
//! through `Session::analyze` must give, at every grid point, exactly the
//! guessing entropy `psc_sca::rank::ge_curve` computes over the first *n*
//! traces of the same campaign, read back from its `.psct` recording.
//! Shards 1, 2 and 3 (an uneven split), grid points just before, on and
//! just after every shard boundary, under all three paper models.

use apple_power_sca::aes::Aes;
use apple_power_sca::core::source::Schedule;
use apple_power_sca::core::{Campaign, Device, ShardReplay, VictimKind};
use apple_power_sca::sca::codec::RecordingReader;
use apple_power_sca::sca::cpa::Cpa;
use apple_power_sca::sca::model::{Rd0Hw, Rd10Hd, Rd10Hw, RecoveredRound};
use apple_power_sca::sca::rank::{ge_curve, guessing_entropy};
use apple_power_sca::sca::trace::TraceSet;
use apple_power_sca::smc::key::key;
use apple_power_sca::telemetry::processors::cpa::ModelFactory;
use apple_power_sca::telemetry::processors::CpaGrid;
use apple_power_sca::telemetry::{split_counts, ChannelId};

const SECRET: [u8; 16] = [
    0xB7, 0x6F, 0xEB, 0x3E, 0xD5, 0x9D, 0x77, 0xFA, 0xCE, 0xBB, 0x67, 0xF3, 0x5E, 0xAD, 0xD9, 0x7C,
];
const MODELS: [ModelFactory; 3] = [|| Box::new(Rd0Hw), || Box::new(Rd10Hw), || Box::new(Rd10Hd)];
/// Few traces, so one trace more or less moves the ranks.
const TRACES: usize = 100;

/// The recorded PHPC traces in campaign order, streamed with
/// `RecordingReader`.
fn recorded_phpc(dir: &std::path::Path) -> TraceSet {
    let mut set = TraceSet::new("PHPC");
    let mut chunk = Vec::new();
    for path in ShardReplay::from_dir(dir).expect("recorded").shards().iter().flat_map(|s| &s.files)
    {
        let mut reader = RecordingReader::new(std::fs::File::open(path).expect("open"))
            .expect("recording header");
        if reader.label() != "PHPC" {
            continue;
        }
        while reader.read_chunk(16, &mut chunk).expect("recording body") > 0 {
            set.extend(chunk.iter().map(|t| t.trace));
        }
    }
    set
}

#[test]
fn streamed_ge_grid_equals_ge_curve_at_shard_boundaries() {
    let k10 = *Aes::new(&SECRET).unwrap().schedule().round_key(10);
    for shards in [1usize, 2, 3] {
        // Every shard boundary b contributes b - 1, b and b + 1.
        let mut grid = vec![1, 2, TRACES - 1, TRACES];
        let mut boundary = 0;
        for n in split_counts(TRACES, shards) {
            boundary += n;
            grid.extend(
                [boundary - 1, boundary, boundary + 1].into_iter().filter(|&g| g <= TRACES),
            );
        }
        grid.sort_unstable();
        grid.dedup();

        let dir = std::env::temp_dir().join(format!("psc_ge_grid_{}_{shards}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let streamed = Campaign::live(Device::MacbookAirM2, VictimKind::UserSpace, SECRET, 0x6E6E)
            .keys(&[key("PHPC")])
            .traces(TRACES)
            .shards(shards)
            .record_to(&dir)
            .session()
            .analyze(
                |n| Schedule::KnownPlaintext { traces: n },
                |slice| CpaGrid::new(ChannelId::Smc(key("PHPC")), &MODELS, &grid, slice),
            )
            .into_analysis()
            .expect("no shard failed");
        let traces = recorded_phpc(&dir);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(traces.len(), TRACES);

        let points: Vec<usize> = streamed.points().iter().map(|(n, _)| *n).collect();
        assert_eq!(points, grid, "{shards} shard(s): one snapshot per grid point");
        for (m, model) in MODELS.iter().enumerate() {
            let round_key = match model().recovered_round() {
                RecoveredRound::Round0 => SECRET,
                RecoveredRound::Round10 => k10,
            };
            let batch = ge_curve(Cpa::new(model()), &traces, &round_key, &grid);
            for ((n, cpas), want) in streamed.points().iter().zip(&batch.points) {
                assert_eq!(*n, want.traces);
                let got = guessing_entropy(&cpas[m].ranks(&round_key));
                assert_eq!(
                    got.to_bits(),
                    want.ge.to_bits(),
                    "{shards} shard(s), {} at {n} traces: streamed {got} vs batch {}",
                    batch.model,
                    want.ge
                );
            }
        }
    }
}
