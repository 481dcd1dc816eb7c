//! Run every reproduction target in sequence and write a single
//! consolidated report (REPORT.md in the working directory, also echoed
//! to stdout) — the one-command regeneration of the whole paper. Fig. 1's
//! curves also land in `fig1a.csv` / `fig1b.csv` (long format, for
//! external plotting). `--only <target>` runs one target.

use psc_bench::{banner, repro_config};
use psc_core::experiments::countermeasure::run_countermeasures;
use psc_core::experiments::cpa::run_table4;
use psc_core::experiments::fig1::{run_fig1a, run_fig1b};
use psc_core::experiments::screening::{run_table1, run_table2};
use psc_core::experiments::success_rate::run_success_rate;
use psc_core::experiments::table6::run_table6;
use psc_core::experiments::throttling::run_throttling_study;
use psc_core::experiments::tvla::{run_table3, run_table5};
use psc_core::experiments::ExperimentConfig;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// One report section: `--only` name, section title, runner.
type Target = (&'static str, &'static str, fn(&ExperimentConfig) -> String);

const TARGETS: [Target; 11] = [
    ("table1", "Table 1", |_| run_table1().render()),
    ("table2", "Table 2", |cfg| run_table2(cfg).render()),
    ("table3", "Table 3", |cfg| run_table3(cfg).render()),
    ("table4", "Table 4", |cfg| run_table4(cfg).render()),
    ("table5", "Table 5", |cfg| run_table5(cfg).render()),
    ("table6", "Table 6", |cfg| run_table6(cfg).render()),
    ("fig1a", "Fig 1(a)", |cfg| plotted("fig1a.csv", run_fig1a(cfg))),
    ("fig1b", "Fig 1(b)", |cfg| plotted("fig1b.csv", run_fig1b(cfg))),
    ("throttling", "Section 4 (throttling)", |cfg| run_throttling_study(cfg).render()),
    ("countermeasures", "Section 5 (countermeasures)", |cfg| run_countermeasures(cfg).render()),
    ("success_rate", "Extension (success rate)", |cfg| {
        let max = cfg.cpa_traces_m2;
        run_success_rate(cfg, &[max / 4, max / 2, max, max * 2], 5).render()
    }),
];

/// Write a figure's CSV next to REPORT.md and return its rendering.
fn plotted(csv: &str, fig: psc_core::experiments::fig1::Fig1) -> String {
    if let Err(e) = std::fs::write(csv, fig.to_csv()) {
        eprintln!("could not write {csv}: {e}");
    }
    fig.render()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names = || TARGETS.map(|(name, ..)| name).join(", ");
    let only = match args.as_slice() {
        [] => None,
        [flag, name] if flag == "--only" => match TARGETS.iter().find(|(n, ..)| n == name) {
            Some(target) => Some(target.0),
            None => {
                eprintln!("unknown target {name:?}; valid targets: {}", names());
                return ExitCode::FAILURE;
            }
        },
        _ => {
            eprintln!("usage: repro_all [--only <target>]\ntargets: {}", names());
            return ExitCode::FAILURE;
        }
    };

    let cfg = repro_config();
    let started = Instant::now();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "# apple-power-sca — consolidated reproduction report\n\n\
         Configuration: seed {}, CPA traces {} (M2) / {} (M1), TVLA {} per\n\
         class per pass, {} shards.\n",
        cfg.seed, cfg.cpa_traces_m2, cfg.cpa_traces_m1, cfg.tvla_traces_per_class, cfg.shards
    );
    for (name, title, run) in TARGETS {
        if only.is_some_and(|o| o != name) {
            continue;
        }
        let body = run(&cfg);
        println!("{}", banner(title));
        println!("{body}");
        let _ = writeln!(report, "## {title}\n\n```text\n{body}\n```\n");
    }

    let elapsed = started.elapsed();
    let _ = writeln!(report, "---\nTotal wall-clock: {:.1} s", elapsed.as_secs_f64());
    match std::fs::write("REPORT.md", &report) {
        Ok(()) => println!("\nwrote REPORT.md ({:.1} s total)", elapsed.as_secs_f64()),
        Err(e) => eprintln!("could not write REPORT.md: {e}"),
    }
    ExitCode::SUCCESS
}
