//! Integration tests for the staged datanode write path: the bounded
//! receive→flush staging queue and its `datanode_buffered_bytes`
//! accounting under a disk that cannot keep up with the network.

use smarth::cluster::{await_replicas, random_data, MiniCluster};
use smarth::core::obs::{Obs, ObsEvent, RingBufferSink};
use smarth::core::units::{Bandwidth, ByteSize};
use smarth::core::{ClusterSpec, DfsConfig, InstanceType, SimDuration, WriteMode};
use std::time::Duration;

fn small_spec(datanodes: usize) -> ClusterSpec {
    let mut spec = ClusterSpec::homogeneous(InstanceType::Large);
    spec.hosts.retain(|h| {
        h.role != smarth::core::HostRole::DataNode
            || h.name
                .strip_prefix("dn")
                .and_then(|s| s.parse::<usize>().ok())
                .is_some_and(|i| i < datanodes)
    });
    spec.link_latency = SimDuration::ZERO;
    spec
}

#[test]
fn stalled_disk_plateaus_staging_at_configured_buffer() {
    // The receiver drains the socket into a staging queue sized from
    // `datanode_client_buffer`; the flusher drains it at disk speed.
    // With the disk far slower than the NIC the queue must fill to the
    // configured bound — and no further: the bound is what turns a slow
    // disk into socket backpressure instead of unbounded memory.
    const BUFFER: u64 = 64 * 1024;
    const PACKET: u64 = 16 * 1024;

    let mut config = DfsConfig::test_scale();
    // Single-hop pipelines so exactly one staging queue is live and the
    // global gauge reads a single node's occupancy.
    config.replication = 1;
    config.datanode_client_buffer = ByteSize::bytes(BUFFER);
    // ~250 KB/s against an effectively unthrottled NIC: the 256 KiB
    // block outlasts the 64 KiB disk-token burst, so the flusher stalls
    // while the receiver keeps staging.
    config.disk_bandwidth = Bandwidth::mbps(2.0);

    let cluster = MiniCluster::start(&small_spec(2), config, 11).unwrap();
    let client = cluster.client().unwrap();
    let data = random_data(5, 256 * 1024); // exactly one block
    client.put("/wp/plateau.bin", &data, WriteMode::Hdfs).unwrap();

    let m = cluster.obs().metrics();
    let hw = m.datanode_buffered_bytes.high_water();
    assert!(
        hw >= BUFFER - PACKET,
        "staging never built up to the bound: high water {hw} B"
    );
    // Add/sub bookkeeping straddles the channel send, so a reader can
    // transiently observe up to two extra in-flight packets.
    assert!(
        hw <= BUFFER + 2 * PACKET,
        "staging exceeded the configured buffer: high water {hw} B > {BUFFER} B"
    );
    assert_eq!(
        m.datanode_buffered_bytes.get(),
        0,
        "staging must drain to zero after the upload"
    );
    assert_eq!(client.get("/wp/plateau.bin").unwrap(), data);
    cluster.shutdown();
}

#[test]
fn fast_disk_keeps_staging_shallow() {
    // Control experiment: with the disk faster than the NIC the staging
    // queue never approaches its bound — the flusher keeps up.
    let mut config = DfsConfig::test_scale();
    config.replication = 1;
    config.datanode_client_buffer = ByteSize::bytes(256 * 1024);
    config.disk_bandwidth = Bandwidth::unlimited();

    let cluster = MiniCluster::start(&small_spec(2), config, 13).unwrap();
    let client = cluster.client().unwrap();
    let data = random_data(7, 256 * 1024);
    client.put("/wp/shallow.bin", &data, WriteMode::Hdfs).unwrap();

    let m = cluster.obs().metrics();
    let hw = m.datanode_buffered_bytes.high_water();
    assert!(
        hw < 256 * 1024,
        "unlimited disk should never fill the staging bound: high water {hw} B"
    );
    assert_eq!(m.datanode_buffered_bytes.get(), 0);
    cluster.shutdown();
}

#[test]
fn deferred_commits_ride_successive_add_blocks() {
    // A fully acked block's commit rides the next `addBlock` as
    // `previous`, and a successful reply retires it so the *next* commit
    // rides the *next* request. Before `close()` the namenode must
    // therefore already know the length of several blocks — not of the
    // first one only, re-sent with every request and the rest left to a
    // burst of `commitBlock` round trips at close.
    const BLOCK: usize = 256 * 1024;
    // The paper cluster: 9 datanodes, 300 µs links.
    let spec = ClusterSpec::homogeneous(InstanceType::Large);
    let cluster = MiniCluster::start(&spec, DfsConfig::test_scale(), 29).unwrap();
    let client = cluster.client().unwrap();
    let len = 6 * BLOCK + 10_000; // seven allocations, six of them after block 1
    let data = random_data(13, len);

    let mut stream = client.create("/commits/seven.bin", WriteMode::Smarth).unwrap();
    stream.write(&data).unwrap();
    let known = client.file_info("/commits/seven.bin").unwrap().unwrap().len;
    assert!(
        known >= 2 * BLOCK as u64,
        "namenode knows {known} bytes before close"
    );
    let stats = stream.close().unwrap();
    assert_eq!(stats.blocks_committed, 7);
    // Every allocation was written: none given back, none left empty.
    assert_eq!(cluster.obs().metrics().allocations_abandoned.get(), 0);
    let reader = client.open("/commits/seven.bin").unwrap();
    let blocks = reader.block_layout();
    assert_eq!(blocks.len(), 7, "{blocks:?}");
    assert!(blocks.iter().all(|b| b.block.len > 0), "{blocks:?}");
    assert_eq!(client.get("/commits/seven.bin").unwrap(), data);
    cluster.shutdown();
}

#[test]
fn stream_closed_before_any_write_gives_its_first_block_back() {
    // `create` brings the first block's allocation with it; a stream that
    // never writes returns it, so the file is complete with no blocks
    // rather than with an empty one.
    let cluster = MiniCluster::start(&small_spec(3), DfsConfig::test_scale(), 31).unwrap();
    let client = cluster.client().unwrap();
    let stream = client.create("/wp/empty.bin", WriteMode::Smarth).unwrap();
    assert_eq!(cluster.namenode_state().cluster_report().blocks, 1);
    let stats = stream.close().unwrap();

    assert_eq!((stats.bytes_written, stats.blocks_committed), (0, 0));
    assert_eq!(cluster.obs().metrics().allocations_abandoned.get(), 1);
    assert_eq!(cluster.namenode_state().cluster_report().blocks, 0);
    let info = client.file_info("/wp/empty.bin").unwrap().unwrap();
    assert!(info.complete);
    assert_eq!(info.len, 0);
    assert!(client.open("/wp/empty.bin").unwrap().block_layout().is_empty());
    assert_eq!(client.get("/wp/empty.bin").unwrap(), Vec::<u8>::new());
    cluster.shutdown();
}

#[test]
fn one_block_put_costs_two_namenode_round_trips_and_a_commit_in_hdfs_mode() {
    // create (carrying the first addBlock) + complete; HDFS mode keeps its
    // own commitBlock. Multi-block puts are left out: how many commits
    // find an addBlock to ride depends on ack timing.
    let mut config = DfsConfig::test_scale();
    // No speed report may fall into the counted window.
    config.heartbeat_interval = SimDuration::from_secs(3);
    let cluster = MiniCluster::start(&small_spec(3), config, 37).unwrap();
    let client = cluster.client().unwrap();
    let data = random_data(3, 4096);
    let rpcs = || cluster.obs().metrics().namenode_client_rpcs.get();

    let before = rpcs();
    client.put("/wp/two.bin", &data, WriteMode::Smarth).unwrap();
    assert_eq!(rpcs() - before, 2);
    let before = rpcs();
    client.put("/wp/three.bin", &data, WriteMode::Hdfs).unwrap();
    assert_eq!(rpcs() - before, 3);
    cluster.shutdown();
}

#[test]
fn a_returned_put_lists_its_pipeline_head_for_every_block() {
    // Replicas behind the head report `blockReceived` after their ack;
    // the head reports before its last ack. So when `put` returns, every
    // block lists at least its pipeline's first datanode, and the rest
    // follow shortly.
    let sink = RingBufferSink::new(65_536);
    let config = DfsConfig::test_scale();
    let block = config.block_size.as_u64() as usize;
    let cluster =
        MiniCluster::start_with_obs(&small_spec(3), config, 41, Obs::new(sink.clone())).unwrap();
    let client = cluster.client().unwrap();
    let mut files = Vec::new();
    for mode in [WriteMode::Hdfs, WriteMode::Smarth] {
        for i in 0..100 {
            files.push((format!("/raw/{}/{i}", mode.name()), 4096, mode));
        }
    }
    files.push(("/raw/multi".to_string(), 3 * block + 5_000, WriteMode::Smarth));
    for (i, (path, len, mode)) in files.iter().enumerate() {
        sink.clear();
        client.put(path, &random_data(i as u64, *len), *mode).unwrap();
        let blocks = client.open(path).unwrap().block_layout().to_vec();
        let heads: Vec<_> = sink
            .snapshot()
            .into_iter()
            .filter_map(|r| match r.event {
                ObsEvent::PipelineOpened { block, targets } => Some((block, targets[0])),
                _ => None,
            })
            .collect();
        assert_eq!(blocks.len(), heads.len(), "{path}: one pipeline per block");
        for lb in &blocks {
            let head = heads.iter().find(|(b, _)| *b == lb.block.id).map(|(_, h)| *h);
            assert!(!lb.targets.is_empty(), "{path}: block {} has no location", lb.block.id);
            assert!(
                lb.targets.iter().any(|t| Some(t.id) == head),
                "{path}: block {} lists {:?} without its head {head:?}",
                lb.block.id,
                lb.targets
            );
        }
    }
    for (path, ..) in &files {
        assert!(
            await_replicas(&client, path, 3, Duration::from_secs(10)).unwrap(),
            "{path}: replicas never all reported"
        );
    }
    cluster.shutdown();
}
