//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run -p smarth-bench --release --bin figures            # everything
//! cargo run -p smarth-bench --release --bin figures -- fig6    # one figure
//! cargo run -p smarth-bench --release --bin figures -- --quick # sparser sweeps
//! ```
//!
//! Output: aligned tables on stdout plus `results/<id>.{csv,json}` and,
//! for every table, a `results/<id>.metrics.json` with the
//! observability counters the underlying simulations accumulated and a
//! `results/<id>.trace.json` Chrome trace_event file (Perfetto /
//! chrome://tracing) of the simulated block lifecycles.
//!
//! The extra `soak` id runs the sustained fault-injection harness on
//! the threaded emulator (not the simulator) and saves
//! `results/<run>.soak.json` with per-window recovery attribution.
//!
//! The `claims` id judges the paper's shape claims over
//! `smarth_sim::claims::SEEDS` and saves `results/claims.csv`: per claim
//! and quantity the median, q10 and q90, the verdict on the medians and
//! how many seeds pass on their own.
//!
//! Throughput is not measured here: `benchmark/` (`BENCHMARK.json`,
//! `scripts/bench_check.sh`) is the repo's one measuring system.

use smarth_bench::figures::{self, FigureOpts};
use smarth_bench::report::Table;
use smarth_cluster::soak::{self, SoakConfig};
use smarth_sim::claims::{self, CLAIMS, SEEDS};
use std::path::PathBuf;

const ALL_IDS: &[&str] = &[
    "table1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
    "ablations", "ext_storage", "soak", "claims",
];

fn run_claims(out_dir: &std::path::Path) {
    let columns = ["claim", "quantity", "median", "q10", "q90", "verdict", "seeds_passing"];
    let title = "the paper's shape claims over seeds 2000–2011, judged on the median";
    let mut t = Table::new("claims", title, &columns);
    for v in claims::evaluate(&CLAIMS, &SEEDS) {
        for (k, name) in v.claim.quantities.iter().enumerate() {
            let [median, q10, q90] = [&v.median, &v.q10, &v.q90].map(|q| format!("{:.3}", q[k]));
            let verdict = if v.holds { "✓" } else { "✗" }.to_string();
            let passing = format!("{}/{}", v.passing, SEEDS.len());
            t.row(vec![v.claim.id.into(), name.to_string(), median, q10, q90, verdict, passing]);
        }
        t.note(format!("{}: {} — {}", v.claim.id, v.claim.paper, v.claim.band));
    }
    println!("{}", t.render());
    let path = out_dir.join("claims.csv");
    match std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, t.csv())) {
        Ok(()) => println!("  saved {}\n", path.display()),
        Err(e) => eprintln!("  failed to save {}: {e}", path.display()),
    }
}

fn generate(id: &str, opts: FigureOpts) -> Option<Vec<Table>> {
    Some(match id {
        "table1" => vec![figures::table1()],
        "fig5" => figures::fig5(opts),
        "fig6" => vec![figures::fig6(opts)],
        "fig7" => vec![figures::fig7(opts)],
        "fig8" => vec![figures::fig8(opts)],
        "fig9" => vec![figures::fig9(opts)],
        "fig10" => vec![figures::fig10(opts)],
        "fig11" => figures::fig11(opts),
        "fig12" => figures::fig12(opts),
        "fig13" => vec![figures::fig13(opts)],
        "ablations" => figures::ablations(opts),
        "ext_storage" => vec![figures::ext_storage(opts)],
        _ => return None,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let wanted: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let opts = FigureOpts { quick };

    let ids: Vec<&str> = if wanted.is_empty() {
        ALL_IDS.to_vec()
    } else {
        wanted.iter().map(|s| s.as_str()).collect()
    };
    for id in &ids {
        if !ALL_IDS.contains(id) {
            eprintln!("unknown figure id: {id}");
            eprintln!("known: {}", ALL_IDS.join(" "));
            std::process::exit(2);
        }
    }

    let out_dir = PathBuf::from("results");
    for id in ids {
        if id == "soak" {
            // The soak harness runs the real emulator, so it produces a
            // windowed invariant report instead of a figure table. The
            // namenode-hostile profile rides along in both modes; any
            // violation (unattributed recovery, integrity failure,
            // handler panic) fails the process so CI goes red.
            // Distinct seeds: the report id (and file name) is derived
            // from the seed, and the hostile report must not overwrite
            // the churn report.
            let profiles = if quick {
                vec![SoakConfig::smoke(42), SoakConfig::hostile(43)]
            } else {
                vec![SoakConfig::sustained(16, 20, 42), SoakConfig::hostile(43)]
            };
            for cfg in profiles {
                match soak::run(&cfg) {
                    Ok(report) => {
                        print!("{}", report.render());
                        match report.save(&out_dir) {
                            Ok(path) => println!("  saved {}\n", path.display()),
                            Err(e) => eprintln!("  failed to save soak report: {e}"),
                        }
                        if !report.violations.is_empty() {
                            eprintln!(
                                "soak seed {} violated {} invariant(s)",
                                cfg.seed,
                                report.violations.len()
                            );
                            std::process::exit(1);
                        }
                    }
                    Err(e) => {
                        eprintln!("soak run failed: {e}");
                        std::process::exit(1);
                    }
                }
            }
            continue;
        }
        if id == "claims" {
            run_claims(&out_dir);
            continue;
        }
        let tables = generate(id, opts).expect("ids validated above");
        // Metrics and the assembled causal trace accumulated by this
        // generator's simulations — shared by every table the generator
        // produced, reset per generator.
        let (metrics, trace) = figures::take_run_artifacts();
        for table in &tables {
            println!("{}", table.render());
            match table.save(&out_dir) {
                Ok((csv, _)) => {
                    let mpath = out_dir.join(format!("{}.metrics.json", table.id));
                    let tpath = out_dir.join(format!("{}.trace.json", table.id));
                    let saved = std::fs::write(&mpath, metrics.to_string_pretty() + "\n")
                        .and_then(|()| {
                            std::fs::write(&tpath, trace.to_string_compact() + "\n")
                        });
                    match saved {
                        Ok(()) => println!(
                            "  saved {} (+ {} + {})\n",
                            csv.display(),
                            mpath.display(),
                            tpath.display()
                        ),
                        Err(e) => eprintln!("  failed to save metrics/trace for {id}: {e}"),
                    }
                }
                Err(e) => eprintln!("  failed to save {}: {e}", table.id),
            }
        }
    }
}
