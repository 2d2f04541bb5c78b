//! Integration tests for causal block-lifecycle tracing
//! (`smarth_core::trace`): multiple SMARTH writers contend on one
//! observed cluster and the assembled per-block timelines must satisfy
//! the trace invariants — one FNFA span per committed block, overlapping
//! pipeline spans per client, well-nested allocation → open → close
//! spans — on both the threaded emulator (real time) and the
//! discrete-event simulator (virtual time, real minted block ids).

use smarth::cluster::{random_data, MiniCluster};
use smarth::core::ids::{BlockId, ClientId};
use smarth::core::json;
use smarth::core::obs::{Obs, RingBufferSink};
use smarth::core::trace::{to_chrome_trace, TraceAssembler, TraceReport};
use smarth::core::units::{Bandwidth, ByteSize};
use smarth::core::{ClusterSpec, DfsConfig, InstanceType, SimDuration, WriteMode};
use smarth::sim::scenario::two_rack;
use smarth::sim::simulate_upload_with_obs;

const UPLOAD_BYTES: usize = 2_500_000; // 10 blocks at the 256 KiB test scale

fn fast_config() -> DfsConfig {
    let mut c = DfsConfig::test_scale();
    c.disk_bandwidth = Bandwidth::unlimited();
    c.heartbeat_interval = SimDuration::from_millis(25);
    c
}

/// Asserts the span invariants every assembled timeline must satisfy:
/// a trace id is present, allocation ≤ open ≤ close, and committed
/// blocks carry exactly one FNFA inside their pipeline span.
fn assert_well_formed(report: &TraceReport) {
    for b in &report.blocks {
        assert!(b.trace.is_some(), "block {} has no trace id", b.block);
        assert!(b.client.is_some(), "block {} has no owning client", b.block);
        let alloc = b.allocated_us.unwrap_or_else(|| panic!("{} never allocated", b.block));
        let open = b.opened_us.unwrap_or_else(|| panic!("{} never opened", b.block));
        let close = b.closed_us.unwrap_or_else(|| panic!("{} never closed", b.block));
        assert!(
            alloc <= open && open <= close,
            "{}: spans must nest, got alloc {alloc} open {open} close {close}",
            b.block
        );
        if b.committed {
            let fnfa = b
                .fnfa_us
                .unwrap_or_else(|| panic!("committed block {} has no FNFA span", b.block));
            assert!(
                open <= fnfa && fnfa <= close,
                "{}: FNFA at {fnfa} outside pipeline span [{open}, {close}]",
                b.block
            );
        }
    }
    // Trace ids are minted per block allocation, so they never repeat
    // across timelines.
    let mut traces: Vec<_> = report.blocks.iter().filter_map(|b| b.trace).collect();
    let total = traces.len();
    traces.sort();
    traces.dedup();
    assert_eq!(traces.len(), total, "trace ids must be unique per block");
}

#[test]
fn concurrent_smarth_writers_assemble_into_disjoint_well_formed_traces() {
    let sink = RingBufferSink::new(262_144);
    let obs = Obs::new(sink.clone());
    // The cross-rack throttle keeps pipeline drain slow enough that
    // FNFA-driven overlap is robustly observable per writer.
    let mut spec = ClusterSpec::homogeneous(InstanceType::Large);
    spec.cross_rack_throttle = Some(Bandwidth::mbps(300.0));
    let cluster = MiniCluster::start_with_obs(&spec, fast_config(), 21, obs).unwrap();

    // Two clients race full multi-block uploads through the same
    // datanodes; their events interleave in one shared sink.
    let mut handles = Vec::new();
    for w in 0..2u64 {
        let client = cluster.client().unwrap();
        handles.push(std::thread::spawn(move || {
            let data = random_data(100 + w, UPLOAD_BYTES);
            let path = format!("/trace/file-{w}.bin");
            let report = client.put(&path, &data, WriteMode::Smarth).unwrap();
            (client.id(), report.stats.blocks_committed)
        }));
    }
    let writers: Vec<(ClientId, u64)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    cluster.shutdown();

    let report = TraceAssembler::assemble(&sink.snapshot());
    assert!(!report.virtual_time, "emulator events carry real time");
    assert_well_formed(&report);
    assert_eq!(report.clients.len(), 2, "one summary per writer");
    assert_ne!(writers[0].0, writers[1].0, "writers get distinct client ids");

    for (id, blocks) in &writers {
        assert!(*blocks >= 2, "upload must span several blocks, got {blocks}");
        let c = report.client(*id).expect("summary for each writer");
        assert_eq!(c.committed, *blocks, "{id}: every block must commit");
        assert_eq!(
            c.fnfa_count, *blocks,
            "{id}: exactly one FNFA per committed block"
        );
        assert!(
            c.max_concurrent >= 2,
            "{id}: SMARTH must overlap pipelines, peak {}",
            c.max_concurrent
        );
        assert!(
            c.overlap_pairs >= 1,
            "{id}: at least one pipeline-span pair must intersect"
        );
        assert!(
            c.fnfa_to_allocation_us.count() > 0,
            "{id}: FNFA→next-allocation latency must be sampled"
        );
    }

    // The Chrome trace_event rendering of the same report survives a
    // serialize → parse round trip and keeps one lane per block.
    let text = to_chrome_trace(&report).to_string_compact();
    let parsed = json::parse(&text).expect("trace JSON must parse");
    let events = parsed
        .get("traceEvents")
        .as_array()
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut lanes: Vec<u64> = events
        .iter()
        .filter_map(|e| e.get("tid").as_u64())
        .collect();
    lanes.sort_unstable();
    lanes.dedup();
    assert_eq!(
        lanes.len(),
        report.blocks.len(),
        "one trace lane (tid) per block timeline"
    );
}

#[test]
fn simulator_traces_satisfy_the_same_invariants_with_real_block_ids() {
    let sink = RingBufferSink::new(65_536);
    let obs = Obs::new(sink.clone());
    let scenario = two_rack(
        InstanceType::Small,
        ByteSize::mib(512),
        Some(Bandwidth::mbps(60.0)),
        WriteMode::Smarth,
    );
    let result = simulate_upload_with_obs(&scenario, obs);

    let report = TraceAssembler::assemble(&sink.snapshot());
    assert!(report.virtual_time, "simulator events carry virtual time");
    assert_well_formed(&report);
    assert_eq!(report.blocks.len() as u64, result.blocks);
    assert_eq!(report.committed_blocks(), result.blocks);

    // The simulator's namenode mints real monotonic block ids at
    // allocation time, not recycled per-pipe placeholders: the measured
    // upload's n blocks follow the warm-up upload's n.
    let mut ids: Vec<u64> = report.blocks.iter().map(|b| b.block.raw()).collect();
    ids.sort_unstable();
    assert_eq!(scenario.warmup_uploads, 1);
    let expected: Vec<u64> = (result.blocks + 1..=2 * result.blocks).collect();
    assert_eq!(ids, expected, "block ids must be freshly minted per block");
    assert!(
        report.blocks.iter().all(|b| b.block != BlockId::INVALID),
        "no sentinel block ids in the stream"
    );

    let c = &report.clients[0];
    assert_eq!(c.fnfa_count, result.blocks, "one FNFA per simulated block");
    assert!(
        c.max_concurrent >= 2 && c.overlap_pairs >= 1,
        "virtual-time pipeline spans must overlap (peak {}, pairs {})",
        c.max_concurrent,
        c.overlap_pairs
    );
    assert!(
        report.fnfa_to_allocation_us.count() > 0,
        "virtual-time FNFA→allocation latency must be sampled"
    );
    assert_eq!(
        c.max_concurrent, result.max_concurrent_pipelines,
        "assembled concurrency matches the simulator's own accounting"
    );
}
