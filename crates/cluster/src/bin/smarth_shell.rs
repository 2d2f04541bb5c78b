//! `smarth-shell` — an interactive DFS shell over an in-process emulated
//! cluster, in the spirit of `hdfs dfs` + `dfsadmin`.
//!
//! ```text
//! cargo run -p smarth-cluster --release --bin smarth_shell
//! ```
//!
//! Commands:
//!
//! ```text
//! put <path> <size>[k|m] [hdfs|smarth]   upload generated data
//! get <path>                             read back and verify length
//! ls <path>                              list a directory
//! rm <path>                              delete a file
//! report                                 dfsadmin-style cluster report + per-client trace table
//! trace <file.json> [full]               write a Chrome trace_event file; incremental since the
//!                                        last export unless `full` is given
//! metrics                                dump the observability counters as JSON
//! top [n]                                live cluster table scraped over the fabric
//!                                        (per-node buffer gauges piggybacked on heartbeats);
//!                                        refreshes n times (default once)
//! slo                                    evaluate the standard SLOs against the namenode's
//!                                        telemetry series and print the verdict
//! kill <host>                            crash a datanode
//! throttle <host> <mbps|off>             tc a host NIC
//! seed <path> <size>[k|m]                put with both protocols, print timing
//! soak <clients> <secs> [seed]           sustained churn + fault injection on a fresh cluster;
//!                                        prints the invariant report, saves results/<id>.soak.json
//! replay <soak.json>                     re-run a saved soak report's echoed fault plan verbatim
//!                                        and check the recovery schedule reproduces
//! help | quit
//! ```

use smarth_cluster::soak::{self, SoakConfig};
use smarth_cluster::{random_data, replay, MiniCluster};
use smarth_core::json::Json;
use smarth_core::obs::telemetry::{SloTracker, TelemetrySeries};
use smarth_core::obs::{Obs, RingBufferSink};
use smarth_core::trace::{write_chrome_trace, TraceAssembler};
use smarth_core::units::Bandwidth;
use smarth_core::{ClusterSpec, DfsConfig, InstanceType, WriteMode};
use std::io::{BufRead, Write};

fn parse_size(s: &str) -> Option<usize> {
    let s = s.to_ascii_lowercase();
    if let Some(n) = s.strip_suffix('k') {
        n.parse::<usize>().ok().map(|v| v * 1024)
    } else if let Some(n) = s.strip_suffix('m') {
        n.parse::<usize>().ok().map(|v| v * 1024 * 1024)
    } else {
        s.parse().ok()
    }
}

fn parse_mode(s: Option<&str>) -> WriteMode {
    match s {
        Some("hdfs") => WriteMode::Hdfs,
        _ => WriteMode::Smarth,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = ClusterSpec::homogeneous(InstanceType::Large);
    // Every node shares one event stream so `report`/`trace` can stitch
    // per-block timelines across the whole cluster.
    let sink = RingBufferSink::new(262_144);
    let obs = Obs::new(sink.clone());
    let cluster = MiniCluster::start_with_obs(&spec, DfsConfig::test_scale(), 42, obs)?;
    let client = cluster.client()?;
    println!(
        "smarth-shell: emulated cluster with {} datanodes up. Type `help`.",
        cluster.spec().datanode_count()
    );

    let stdin = std::io::stdin();
    let mut seed = 0u64;
    // The ring's read cursor after the last `trace` export, so repeat
    // exports are incremental instead of re-serializing the whole ring.
    let mut trace_cursor: Option<u64> = None;
    loop {
        print!("smarth> ");
        std::io::stdout().flush()?;
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break; // EOF
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let result = match parts.as_slice() {
            [] => Ok(()),
            ["quit"] | ["exit"] => break,
            ["help"] => {
                println!("put <path> <size>[k|m] [hdfs|smarth] | get <path> | ls <path> | rm <path>");
                println!("report | trace <file.json> [full] | metrics | top [n] | slo | kill <host> | throttle <host> <mbps|off> | seed <path> <size>");
                println!("soak <clients> <secs> [seed] | replay <soak.json> | quit");
                Ok(())
            }
            ["put", path, size, rest @ ..] => (|| {
                let bytes = parse_size(size).ok_or("bad size")?;
                let mode = parse_mode(rest.first().copied());
                seed += 1;
                let data = random_data(seed, bytes);
                let report = client.put(path, &data, mode)?;
                println!(
                    "{}: {} bytes in {:?} ({:.1} Mbps), {} blocks, {} pipelines max, {} recoveries",
                    mode.name(),
                    report.bytes,
                    report.elapsed,
                    report.throughput_mbps(),
                    report.stats.blocks_committed,
                    report.stats.max_concurrent_pipelines,
                    report.stats.recoveries,
                );
                Ok::<(), Box<dyn std::error::Error>>(())
            })(),
            ["get", path] => (|| {
                let data = client.get(path)?;
                println!("read {} bytes (checksums verified)", data.len());
                Ok::<(), Box<dyn std::error::Error>>(())
            })(),
            ["ls", path] => (|| {
                for e in client.list(path)? {
                    println!(
                        "{:>12}  {}  {}",
                        e.len,
                        if e.is_dir { "dir " } else { "file" },
                        e.path
                    );
                }
                Ok::<(), Box<dyn std::error::Error>>(())
            })(),
            ["rm", path] => (|| {
                let existed = client.delete(path)?;
                println!("{}", if existed { "deleted" } else { "no such file" });
                Ok::<(), Box<dyn std::error::Error>>(())
            })(),
            ["report"] => (|| {
                let r = cluster.namenode_state().cluster_report();
                println!(
                    "live datanodes: {}  blocks: {}  inodes: {}  safe mode: {}",
                    r.live_datanodes.len(),
                    r.blocks,
                    r.files,
                    r.safe_mode
                );
                for d in &r.live_datanodes {
                    let replicas = cluster
                        .datanode(&d.host_name)
                        .map(|dn| dn.store().replica_count())
                        .unwrap_or(0);
                    println!(
                        "  {} ({}) used {} bytes, {} replicas",
                        d.host_name, d.rack, d.used_bytes, replicas
                    );
                }
                let m = cluster.obs().metrics();
                println!(
                    "forward buffers: {} bytes now, {} bytes high-water",
                    m.datanode_buffered_bytes.get(),
                    m.datanode_buffered_bytes.high_water()
                );
                let report = TraceAssembler::assemble(&sink.snapshot());
                if report.clients.is_empty() {
                    println!("no traced writes yet");
                } else {
                    println!(
                        "{:<12} {:>7} {:>9} {:>6} {:>13} {:>10} {:>15}",
                        "client", "blocks", "committed", "fnfa", "overlap pairs", "max conc", "fnfa→alloc ms"
                    );
                    for c in &report.clients {
                        let h = &c.fnfa_to_allocation_us;
                        let lat = if h.count() > 0 {
                            format!("{:.2}", h.mean() / 1_000.0)
                        } else {
                            "-".to_string()
                        };
                        println!(
                            "{:<12} {:>7} {:>9} {:>6} {:>13} {:>10} {:>15}",
                            c.client.to_string(),
                            c.blocks,
                            c.committed,
                            c.fnfa_count,
                            c.overlap_pairs,
                            c.max_concurrent,
                            lat
                        );
                    }
                }
                Ok::<(), Box<dyn std::error::Error>>(())
            })(),
            ["trace", path, rest @ ..] => (|| {
                let full = rest.first() == Some(&"full") || trace_cursor.is_none();
                let (events, cursor) = sink.snapshot_from(trace_cursor.filter(|_| !full).unwrap_or(0));
                if events.is_empty() {
                    println!("no new events since the last export; use `trace {path} full` for everything");
                    return Ok(());
                }
                trace_cursor = Some(cursor);
                let report = TraceAssembler::assemble(&events);
                write_chrome_trace(&report, std::path::Path::new(path))?;
                println!(
                    "{}: {} {} events -> {} block timelines ({} committed, {} overlapping pairs); load in Perfetto / chrome://tracing",
                    path,
                    if full { "total" } else { "new" },
                    report.events,
                    report.blocks.len(),
                    report.committed_blocks(),
                    report.overlap_pairs()
                );
                Ok::<(), Box<dyn std::error::Error>>(())
            })(),
            ["metrics"] => {
                println!("{}", cluster.obs().metrics().snapshot().to_string_pretty());
                Ok(())
            }
            ["top", rest @ ..] => (|| {
                let refreshes: u32 = match rest.first() {
                    Some(n) => n.parse().map_err(|_| "bad refresh count")?,
                    None => 1,
                };
                for i in 0..refreshes.max(1) {
                    if i > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(500));
                    }
                    let (rows, _text, _series) = client.get_telemetry()?;
                    let m = cluster.obs().metrics();
                    println!(
                        "cluster: {:.1} MiB written, {} blocks committed, {} FNFAs, {} pipelines now ({} peak)",
                        m.bytes_written.get() as f64 / (1024.0 * 1024.0),
                        m.blocks_committed.get(),
                        m.fnfa_received.get(),
                        m.concurrent_pipelines.get(),
                        m.concurrent_pipelines.high_water(),
                    );
                    println!(
                        "{:<8} {:<8} {:>5} {:>12} {:>6} {:>8} {:>10} {:>10} {:>8}",
                        "node", "rack", "alive", "used", "xfers", "staging", "buffered", "forward", "hb-age"
                    );
                    for r in &rows {
                        println!(
                            "{:<8} {:<8} {:>5} {:>12} {:>6} {:>8} {:>10} {:>10} {:>7}ms",
                            r.host_name,
                            r.rack,
                            if r.alive { "yes" } else { "DEAD" },
                            r.used,
                            r.active_transfers,
                            r.telemetry.staging_packets,
                            r.telemetry.buffered_bytes,
                            r.telemetry.forward_bytes,
                            r.age_ms,
                        );
                    }
                }
                Ok::<(), Box<dyn std::error::Error>>(())
            })(),
            ["slo"] => (|| {
                let (_rows, _text, series_json) = client.get_telemetry()?;
                let v = smarth_core::json::parse(&series_json)
                    .map_err(|e| format!("parse series: {e:?}"))?;
                let series = TelemetrySeries::from_json(&v)?;
                if series.frames_len() < 2 {
                    println!(
                        "only {} telemetry frame(s) sampled so far; wait a couple of heartbeats",
                        series.frames_len()
                    );
                    return Ok(());
                }
                print!("{}", SloTracker::standard().evaluate(&series).render());
                Ok::<(), Box<dyn std::error::Error>>(())
            })(),
            ["kill", host] => (|| {
                cluster.kill_datanode(host)?;
                println!("{host} killed");
                Ok::<(), Box<dyn std::error::Error>>(())
            })(),
            ["throttle", host, rate] => (|| {
                let bw = if *rate == "off" {
                    None
                } else {
                    Some(Bandwidth::mbps(rate.parse::<f64>().map_err(|_| "bad rate")?))
                };
                cluster.throttle_host(host, bw)?;
                println!("{host} throttled to {rate}");
                Ok::<(), Box<dyn std::error::Error>>(())
            })(),
            ["seed", path, size] => (|| {
                let bytes = parse_size(size).ok_or("bad size")?;
                seed += 1;
                let data = random_data(seed, bytes);
                for mode in [WriteMode::Hdfs, WriteMode::Smarth] {
                    let p = format!("{path}-{}", mode.name().to_lowercase());
                    let report = client.put(&p, &data, mode)?;
                    println!(
                        "  {:<6} {:?} ({:.1} Mbps)",
                        mode.name(),
                        report.elapsed,
                        report.throughput_mbps()
                    );
                }
                Ok::<(), Box<dyn std::error::Error>>(())
            })(),
            ["soak", clients, secs, rest @ ..] => (|| {
                let clients: usize = clients.parse().map_err(|_| "bad client count")?;
                let secs: u64 = secs.parse().map_err(|_| "bad duration")?;
                let soak_seed: u64 = match rest.first() {
                    Some(s) => s.parse().map_err(|_| "bad seed")?,
                    None => 42,
                };
                println!(
                    "running {clients}-client soak for {secs} s (seed {soak_seed}) on its own cluster..."
                );
                let report = soak::run(&SoakConfig::sustained(clients, secs, soak_seed))?;
                print!("{}", report.render());
                let path = report.save(std::path::Path::new("results"))?;
                println!("saved {}", path.display());
                Ok::<(), Box<dyn std::error::Error>>(())
            })(),
            ["replay", path] => (|| {
                println!("replaying {path} on its own cluster...");
                let outcome = replay::replay_file(std::path::Path::new(path))?;
                print!("{}", outcome.render());
                Ok::<(), Box<dyn std::error::Error>>(())
            })(),
            other => {
                println!("unknown command {other:?}; try `help`");
                Ok(())
            }
        };
        if let Err(e) = result {
            println!("error: {e}");
        }
    }
    cluster.shutdown();
    Ok(())
}
