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
//! The `conformance` id runs the same workload through BOTH engines
//! (threaded emulator and DES) per cluster preset, saves the paired
//! Chrome traces (`results/conformance_<preset>.{emulator,sim}.trace.json`,
//! each with its digest embedded under `otherData.digest`) and the
//! machine-readable verdict (`results/conformance_<preset>.diff.json`).
//!
//! Throughput is not measured here: `benchmark/` (`BENCHMARK.json`,
//! `scripts/bench_check.sh`) is the repo's one measuring system.

use smarth_bench::figures::{self, FigureOpts};
use smarth_bench::report::Table;
use smarth_cluster::soak::{self, SoakConfig};
use smarth_cluster::{random_data, MiniCluster};
use smarth_core::conformance::diff_reports;
use smarth_core::obs::{Obs, RingBufferSink};
use smarth_core::trace::{write_chrome_trace, TraceAssembler, TraceReport};
use smarth_core::units::{Bandwidth, ByteSize};
use smarth_core::{ClusterSpec, DfsConfig, InstanceType, SimDuration, WriteMode};
use smarth_sim::{simulate_upload_with_obs, SimScenario};
use std::path::PathBuf;

const ALL_IDS: &[&str] = &[
    "table1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
    "ablations", "ext_storage", "soak", "conformance",
];

/// One conformance preset run through both engines: a single-client
/// SMARTH upload on a homogeneous two-rack cluster, identical spec,
/// config, seed and size on each side.
fn paired_conformance_reports(
    instance: InstanceType,
    upload_bytes: usize,
    seed: u64,
    read_back: bool,
) -> smarth_core::DfsResult<(TraceReport, TraceReport)> {
    let mut spec = ClusterSpec::homogeneous(instance);
    spec.cross_rack_throttle = Some(Bandwidth::mbps(300.0));
    spec.link_latency = SimDuration::from_micros(50);
    let mut config = DfsConfig::test_scale();
    config.disk_bandwidth = Bandwidth::unlimited();

    let sink = RingBufferSink::new(262_144);
    let obs = Obs::new(sink.clone());
    let cluster = MiniCluster::start_with_obs(&spec, config.clone(), seed, obs)?;
    let client = cluster.client()?;
    let data = random_data(seed, upload_bytes);
    client.put("/conformance/a.bin", &data, WriteMode::Smarth)?;
    if read_back {
        client.get("/conformance/a.bin")?;
    }
    let panics = cluster.obs().metrics().handler_panics.get();
    if panics > 0 {
        return Err(smarth_core::DfsError::internal(format!(
            "{panics} handler panic(s) during conformance run"
        )));
    }
    cluster.shutdown();
    let emulator = TraceAssembler::assemble(&sink.snapshot());

    let sink = RingBufferSink::new(262_144);
    let obs = Obs::new(sink.clone());
    let mut scenario = SimScenario::new(
        spec,
        config,
        WriteMode::Smarth,
        ByteSize::bytes(upload_bytes as u64),
    );
    scenario.seed = seed;
    scenario.warmup_uploads = 0;
    scenario.read_back = read_back;
    simulate_upload_with_obs(&scenario, obs);
    let sim = TraceAssembler::assemble(&sink.snapshot());
    Ok((emulator, sim))
}

fn run_conformance(out_dir: &std::path::Path, quick: bool) {
    // (preset, instance, bytes, read-back): the `read` preset puts and
    // reads back on both engines, so the diff checks read admission block
    // by block — its tail, under a packet and read as one stripe, included.
    let presets: &[(&str, InstanceType, usize, bool)] = if quick {
        &[
            ("large", InstanceType::Large, 2 * 1024 * 1024, false),
            ("read", InstanceType::Medium, 2 * 1024 * 1024 + 5_000, true),
        ]
    } else {
        &[
            ("small", InstanceType::Small, 1024 * 1024, false),
            ("medium", InstanceType::Medium, 2 * 1024 * 1024 + 512 * 1024, false),
            ("large", InstanceType::Large, 5 * 1024 * 1024, false),
            ("read", InstanceType::Medium, 2 * 1024 * 1024 + 5_000, true),
        ]
    };
    for (name, instance, bytes, read_back) in presets {
        let id = format!("conformance_{name}");
        let (emulator, sim) = match paired_conformance_reports(*instance, *bytes, 0xC0F0, *read_back)
        {
            Ok(pair) => pair,
            Err(e) => {
                // Covers handler panics detected after the run as well —
                // a conformance pass with panicking servers is no pass.
                eprintln!("{id}: paired run failed: {e}");
                std::process::exit(1);
            }
        };
        let verdict = diff_reports(&id, &emulator, &sim);
        print!("{}", verdict.render());
        let epath = out_dir.join(format!("{id}.emulator.trace.json"));
        let spath = out_dir.join(format!("{id}.sim.trace.json"));
        let saved = std::fs::create_dir_all(out_dir)
            .and_then(|()| write_chrome_trace(&emulator, &epath))
            .and_then(|()| write_chrome_trace(&sim, &spath))
            .and_then(|()| verdict.save(out_dir));
        match saved {
            Ok(dpath) => println!(
                "  saved {} (+ {} + {})\n",
                dpath.display(),
                epath.display(),
                spath.display()
            ),
            Err(e) => eprintln!("  failed to save conformance artifacts for {id}: {e}"),
        }
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
        if id == "conformance" {
            // Paired emulator + DES runs with a cross-engine diff
            // verdict instead of a figure table.
            run_conformance(&out_dir, quick);
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
