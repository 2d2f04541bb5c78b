//! Cross-engine equality: the threaded emulator and the discrete-event
//! simulator run the same workload on the same [`ClusterSpec`] and must
//! make the same decisions. Both host the same namenode, datanode hop
//! and client write session from `smarth-core`, so every block's
//! payload, commit, pipeline width and read admission, and each
//! engine's FNFA count, must match exactly. Timing is not compared:
//! one engine runs on wall-clock microseconds, the other on virtual
//! ones.

use smarth::cluster::{random_data, MiniCluster};
use smarth::core::obs::{Obs, RingBufferSink};
use smarth::core::trace::{BlockTimeline, TraceAssembler, TraceReport};
use smarth::core::units::{Bandwidth, ByteSize};
use smarth::core::{ClusterSpec, DfsConfig, InstanceType, SimDuration, WriteMode};
use smarth::sim::{simulate_upload_with_obs, SimScenario};

/// One spec + config + upload size, run through BOTH engines. The
/// emulator drives a real [`MiniCluster`] with a single client `put`
/// (plus a striped `get` when `read_back`); the simulator replays the
/// identical scenario in virtual time (its read mirror when
/// `read_back`). Both event streams are assembled the same way.
fn paired_reports(
    instance: InstanceType,
    upload_bytes: usize,
    seed: u64,
    read_back: bool,
) -> (TraceReport, TraceReport) {
    let mut spec = ClusterSpec::homogeneous(instance);
    // A cross-rack throttle slows the pipeline drain relative to the
    // client, so FNFA-driven overlap is robust in both engines.
    spec.cross_rack_throttle = Some(Bandwidth::mbps(300.0));
    spec.link_latency = SimDuration::from_micros(50);
    let mut config = DfsConfig::test_scale();
    config.disk_bandwidth = Bandwidth::unlimited();

    // Engine A: the threaded emulator, real microseconds.
    let sink = RingBufferSink::new(262_144);
    let obs = Obs::new(sink.clone());
    let cluster = MiniCluster::start_with_obs(&spec, config.clone(), seed, obs).unwrap();
    let client = cluster.client().unwrap();
    let data = random_data(seed, upload_bytes);
    client.put("/conformance/a.bin", &data, WriteMode::Smarth).unwrap();
    if read_back {
        let got = client.get("/conformance/a.bin").unwrap();
        assert_eq!(got, data, "striped read must return the written bytes");
    }
    cluster.shutdown();
    let emulator = TraceAssembler::assemble(&sink.snapshot());

    // Engine B: the discrete-event simulator, virtual microseconds.
    let sink = RingBufferSink::new(262_144);
    let obs = Obs::new(sink.clone());
    let mut scenario = SimScenario::new(
        spec,
        config,
        WriteMode::Smarth,
        ByteSize::bytes(upload_bytes as u64),
    );
    scenario.seed = seed;
    scenario.warmup_uploads = 0; // the emulator client above is cold too
    scenario.read_back = read_back;
    simulate_upload_with_obs(&scenario, obs);
    let sim = TraceAssembler::assemble(&sink.snapshot());

    assert!(!emulator.virtual_time, "emulator must report real time");
    assert!(sim.virtual_time, "simulator must report virtual time");
    (emulator, sim)
}

/// Per block, in allocation order: payload bytes, committed, pipeline
/// width, read spans, announced stripes and bytes read back.
type Decisions = Vec<(u64, bool, usize, usize, u64, u64)>;
fn block_decisions(report: &TraceReport) -> Decisions {
    let decide = |b: &BlockTimeline| {
        let bytes = b.hops.iter().map(|h| h.bytes).max().unwrap_or(0);
        let stripes = b.reads.iter().map(|r| r.stripes).sum();
        let read = b.reads.iter().map(|r| r.bytes).sum();
        (bytes, b.committed, b.targets.len(), b.reads.len(), stripes, read)
    };
    report.blocks.iter().map(decide).collect()
}

fn fnfa_count(report: &TraceReport) -> u64 {
    report.clients.iter().map(|c| c.fnfa_count).sum()
}

fn max_concurrent(report: &TraceReport) -> usize {
    report.clients.iter().map(|c| c.max_concurrent).max().unwrap_or(0)
}

/// Runs one preset through both engines and asserts equal decisions.
fn conforming_blocks(
    name: &str, instance: InstanceType, bytes: usize, seed: u64, read_back: bool,
) -> Decisions {
    let (emulator, sim) = paired_reports(instance, bytes, seed, read_back);
    let blocks = block_decisions(&emulator);
    assert!(blocks.iter().all(|b| b.1), "{name}: every block must commit: {blocks:?}");
    assert_eq!(blocks, block_decisions(&sim), "{name}: per-block decisions differ");
    assert_eq!(fnfa_count(&emulator), fnfa_count(&sim), "{name}: FNFA counts differ");
    for (engine, report) in [("emulator", &emulator), ("sim", &sim)] {
        let peak = max_concurrent(report);
        assert!(peak >= 2, "{name}: the {engine} must overlap pipelines, peaked at {peak}");
    }
    blocks
}

#[test]
fn engines_conform_on_cluster_presets() {
    let presets = [
        ("small", InstanceType::Small, 1024 * 1024),
        ("medium", InstanceType::Medium, 2 * 1024 * 1024 + 512 * 1024),
        ("large", InstanceType::Large, 5 * 1024 * 1024),
    ];
    for (name, instance, bytes) in presets {
        conforming_blocks(name, instance, bytes, 0xC0F0 + bytes as u64, false);
    }
}

#[test]
fn engines_conform_on_reads() {
    // Put + full read-back; the sub-packet tail announces one stripe.
    let bytes = 2 * 1024 * 1024 + 5_000;
    let blocks = conforming_blocks("read", InstanceType::Medium, bytes, 0xBEAD, true);
    let stripes: Vec<u64> = blocks.iter().map(|&(.., stripes, _)| stripes).collect();
    assert_eq!(stripes, [3, 3, 3, 3, 3, 3, 3, 3, 1], "read: announced stripes");
    let in_full = blocks.iter().all(|&(bytes, _, _, reads, _, read)| reads == 1 && read == bytes);
    assert!(in_full, "read: each block must be read back once, in full: {blocks:?}");
}
