//! Integration tests for the SMARTH read path: striped reads with full
//! admission, typed range errors, salvage of damaged files, stalled
//! source failover within the read timeout, and corrupt-replica
//! reporting — including the namenode-error attribution when the
//! report RPC itself fails.

use smarth::cluster::{await_replicas, random_data, MiniCluster};
use smarth::core::obs::{Obs, ObsEvent, RecoveryCause, RingBufferSink};
use smarth::core::trace::TraceAssembler;
use smarth::core::units::Bandwidth;
use smarth::core::{
    ClusterSpec, DatanodeId, DfsConfig, DfsError, HostRole, InstanceType, SimDuration, WriteMode,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The homogeneous paper cluster trimmed to `dns` datanodes — read
/// tests want small replica sets with known holders, not all nine
/// hosts.
fn small_spec(dns: usize) -> ClusterSpec {
    let mut spec = ClusterSpec::homogeneous(InstanceType::Small);
    let mut kept = 0;
    spec.hosts.retain(|h| {
        h.role != HostRole::DataNode || {
            kept += 1;
            kept <= dns
        }
    });
    spec
}

/// Maps each datanode id to its fabric host name, so tests can target
/// faults at the holder of a specific replica.
fn hosts_by_id(cluster: &MiniCluster) -> HashMap<DatanodeId, String> {
    cluster
        .datanode_hosts()
        .into_iter()
        .map(|h| (cluster.datanode(&h).expect("host exists").id(), h))
        .collect()
}

/// The reason of every source switch recorded so far, in order.
fn switch_reasons(sink: &RingBufferSink) -> Vec<String> {
    sink.snapshot()
        .iter()
        .filter_map(|r| match &r.event {
            ObsEvent::SourceSwitched { reason, .. } => Some(reason.clone()),
            _ => None,
        })
        .collect()
}

#[test]
fn striped_reads_return_written_bytes_with_full_admission() {
    let sink = RingBufferSink::new(65_536);
    let obs = Obs::new(sink.clone());
    let config = DfsConfig::test_scale();
    let cluster = MiniCluster::start_with_obs(&small_spec(3), config.clone(), 7, obs).unwrap();
    let client = cluster.client().unwrap();
    // Three full blocks plus an uneven tail.
    let block = config.block_size.as_u64();
    let data = random_data(0xD1CE, 3 * block as usize + 10_001);
    client.put("/read/plain.bin", &data, WriteMode::Smarth).unwrap();
    assert!(await_replicas(&client, "/read/plain.bin", 3, Duration::from_secs(10)).unwrap());

    assert_eq!(client.get("/read/plain.bin").unwrap(), data);

    // pread returns exactly the slice wherever it starts and ends: across
    // a block boundary, across the stripe cuts inside a block (a third of
    // a block each, give or take the speed weights), over several blocks,
    // the uneven tail, a single byte, nothing.
    let total = data.len() as u64;
    for (off, len) in [
        (block - 1234, 5678),
        (block / 3 - 20_000, 40_000),
        (block + 2 * block / 3 - 20_000, 40_000),
        (block / 2, 2 * block),
        (7, total - 7),
        (3 * block - 1, 10_002),
        (2 * block, 1),
        (block, 0),
    ] {
        let got = client.get_range("/read/plain.bin", off, len).unwrap();
        assert_eq!(got, &data[off as usize..(off + len) as usize], "{len} bytes at {off}");
    }

    cluster.shutdown();
    let report = TraceAssembler::assemble(&sink.snapshot());
    // The full read plans every block over its whole replica set and
    // the fetched stripes cover every byte exactly once.
    let full_reads: Vec<_> = report
        .blocks
        .iter()
        .filter_map(|tl| tl.reads.first())
        .collect();
    assert_eq!(full_reads.len(), 4, "one read span per block");
    for (i, span) in full_reads.iter().enumerate() {
        assert_eq!(span.sources.len(), 3, "planned over the replica set");
        // The tail is shorter than a packet: one stripe moves it.
        let stripes = if i < 3 { 3 } else { 1 };
        assert_eq!((span.stripes, span.stripes_fetched), (stripes, stripes));
        assert_eq!(span.source_switches, 0, "healthy reads never switch");
    }
    let read_bytes: u64 = full_reads.iter().map(|s| s.bytes).sum();
    assert_eq!(read_bytes, data.len() as u64);
}

#[test]
fn reads_past_eof_are_a_typed_out_of_range_error() {
    let cluster = MiniCluster::start(&small_spec(3), DfsConfig::test_scale(), 11).unwrap();
    let client = cluster.client().unwrap();
    let data = random_data(2, 100_000);
    client.put("/read/eof.bin", &data, WriteMode::Smarth).unwrap();

    match client.get_range("/read/eof.bin", 99_990, 20).unwrap_err() {
        DfsError::OutOfRange {
            offset,
            len,
            file_len,
            ..
        } => assert_eq!((offset, len, file_len), (99_990, 20, 100_000)),
        other => panic!("expected OutOfRange, got {other:?}"),
    }
    // offset + len overflowing u64 must classify the same way, not wrap
    // around into an in-range read.
    assert!(matches!(
        client.get_range("/read/eof.bin", u64::MAX, 2).unwrap_err(),
        DfsError::OutOfRange { .. }
    ));
    // The boundary itself is fine.
    assert_eq!(
        client.get_range("/read/eof.bin", 99_990, 10).unwrap(),
        &data[99_990..]
    );
    cluster.shutdown();
}

#[test]
fn opening_what_is_not_a_file_is_a_typed_error() {
    let cluster = MiniCluster::start(&small_spec(3), DfsConfig::test_scale(), 12).unwrap();
    let client = cluster.client().unwrap();
    client.put("/typed/dir/f.bin", &random_data(4, 100), WriteMode::Hdfs).unwrap();
    let attempts = |path: &str| {
        [
            client.open(path).err(),
            client.get(path).err(),
            client.get_range(path, 0, 1).err(),
            client.get_salvage(path).err(),
        ]
    };
    for e in attempts("/typed/ghost.bin") {
        assert!(matches!(&e, Some(DfsError::NotFound(p)) if p == "/typed/ghost.bin"), "{e:?}");
    }
    for e in attempts("/typed/dir") {
        assert!(matches!(&e, Some(DfsError::IsADirectory(p)) if p == "/typed/dir"), "{e:?}");
    }
    cluster.shutdown();
}

/// Before the length and the blocks came in one reply, an overwrite
/// landing between the two trips of `open` failed the read with
/// `Internal("blocks cover … bytes, expected …")`.
#[test]
fn get_racing_an_overwrite_sees_one_file_or_none() {
    let cluster = MiniCluster::start(&small_spec(3), DfsConfig::test_scale(), 41).unwrap();
    let (writer, reader) = (cluster.client().unwrap(), cluster.client().unwrap());
    let versions = [random_data(5, 3_000), random_data(6, 9_000)];
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..120 {
                if i % 4 == 3 {
                    writer.delete("/race/f").unwrap();
                }
                let mut f = writer.create_with("/race/f", WriteMode::Smarth, 3, true).unwrap();
                f.write(&versions[i % 2]).unwrap();
                f.close().unwrap();
            }
            done.store(true, Ordering::SeqCst);
        });
        let mut whole = 0;
        while !done.load(Ordering::SeqCst) {
            match reader.get("/race/f") {
                Ok(got) if versions.contains(&got) => whole += 1,
                // A file still being written shows its committed prefix:
                // of a one-block file, nothing.
                Ok(got) if got.is_empty() => {}
                Err(DfsError::NotFound(_)) => {}
                other => panic!("torn read: {:?}", other.map(|b| b.len())),
            }
        }
        assert!(whole > 0, "the reader never saw a finished file");
    });
    cluster.shutdown();
}

/// The fixed cost of a read, counted: one namenode trip, one datanode
/// connection, no stripe beyond the packets there are to move.
#[test]
fn sub_packet_get_costs_one_namenode_trip_and_one_stripe() {
    let sink = RingBufferSink::new(4_096);
    let mut config = DfsConfig::test_scale();
    // No speed report may fall into the counted window.
    config.heartbeat_interval = SimDuration::from_secs(3);
    let packet = config.packet_size.as_u64() as usize;
    let cluster =
        MiniCluster::start_with_obs(&small_spec(3), config, 43, Obs::new(sink.clone())).unwrap();
    let client = cluster.client().unwrap();
    // (bytes, stripes a full read of it announces)
    let files = [(4_096, 1), (2 * packet, 2), (3 * packet, 3), (packet + 1, 2)];
    for (bytes, _) in files {
        let data = random_data(bytes as u64, bytes);
        client.put(&format!("/cost/{bytes}"), &data, WriteMode::Smarth).unwrap();
    }
    let metrics = cluster.obs().metrics();
    let before = metrics.namenode_client_rpcs.get();
    let got = client.get("/cost/4096").unwrap();
    assert_eq!(metrics.namenode_client_rpcs.get() - before, 1, "open is one trip");
    assert_eq!(got, random_data(4_096, 4_096));
    assert_eq!(metrics.client_read_inflight_stripes.high_water(), 1);
    for (bytes, _) in &files[1..] {
        client.get(&format!("/cost/{bytes}")).unwrap();
    }
    cluster.shutdown();

    let events = sink.snapshot();
    let announced: Vec<u64> = events
        .iter()
        .filter_map(|r| match &r.event {
            ObsEvent::ReadStarted { stripes, .. } => Some(*stripes),
            _ => None,
        })
        .collect();
    assert_eq!(announced, files.map(|(_, stripes)| stripes));
    let fetched: Vec<(u64, u64)> = events
        .iter()
        .filter_map(|r| match &r.event {
            ObsEvent::StripeFetched { offset, bytes, .. } => Some((*offset, *bytes)),
            _ => None,
        })
        .collect();
    assert_eq!(fetched[0], (0, 4_096), "one stripe covers the small file");
    assert_eq!(fetched.len() as u64, announced.iter().sum::<u64>());
}

#[test]
fn salvage_recovers_every_intact_block_and_maps_the_gap() {
    let config = DfsConfig::test_scale();
    let cluster = MiniCluster::start(&small_spec(4), config.clone(), 21).unwrap();
    let client = cluster.client().unwrap();
    let block = config.block_size.as_u64() as usize;
    let data = random_data(0x5A1F, 3 * block + 4096);
    // Replication 1: each block lives on exactly one datanode, so
    // killing one host makes its blocks fully dead without touching the
    // rest of the file.
    let mut stream = client
        .create_with("/read/fragile.bin", WriteMode::Smarth, 1, false)
        .unwrap();
    stream.write(&data).unwrap();
    stream.close().unwrap();

    let layout: Vec<(smarth::core::BlockId, DatanodeId, u64)> = client
        .open("/read/fragile.bin")
        .unwrap()
        .block_layout()
        .iter()
        .map(|lb| (lb.block.id, lb.targets[0].id, lb.block.len))
        .collect();
    let victim = layout[1].1;
    let hosts = hosts_by_id(&cluster);
    cluster.kill_datanode(&hosts[&victim]).unwrap();

    let report = client.get_salvage("/read/fragile.bin").unwrap();

    // Exactly the blocks whose sole replica sat on the killed host are
    // gone (block 1 by construction, plus any co-located ones); every
    // other block comes back intact at its file offset.
    let mut expected_gaps = Vec::new();
    let mut offset = 0u64;
    for (id, holder, len) in &layout {
        if *holder == victim {
            expected_gaps.push((*id, offset, *len));
        }
        offset += len;
    }
    assert!(
        expected_gaps.iter().any(|(id, ..)| *id == layout[1].0),
        "the targeted block must be among the losses"
    );
    assert_eq!(
        report
            .gaps
            .iter()
            .map(|g| (g.block, g.offset, g.len))
            .collect::<Vec<_>>(),
        expected_gaps
    );
    assert!(!report.is_complete());
    assert_eq!(report.file_len, data.len() as u64);
    assert_eq!(
        report.recovered_bytes() + report.lost_bytes(),
        data.len() as u64
    );
    for (off, bytes) in &report.recovered {
        assert_eq!(
            bytes.as_slice(),
            &data[*off as usize..*off as usize + bytes.len()],
            "recovered block at {off} must match the written bytes"
        );
    }
    // A plain full read of the damaged file still fails outright.
    assert!(client.get("/read/fragile.bin").is_err());
    cluster.shutdown();
}

#[test]
fn stalled_source_fails_over_within_the_read_timeout() {
    let sink = RingBufferSink::new(65_536);
    let obs = Obs::new(sink.clone());
    let mut config = DfsConfig::test_scale();
    config.read_timeout = SimDuration::from_secs_f64(0.4);
    let block = config.block_size.as_u64() as usize;
    let cluster = MiniCluster::start_with_obs(&small_spec(3), config, 31, obs).unwrap();
    let client = cluster.client().unwrap();
    let data = random_data(0xAB, block); // one full block, on all three nodes
    client.put("/read/stall.bin", &data, WriteMode::Smarth).unwrap();

    // Stall one replica's NIC far below a stripe per timeout window
    // (each ~87 KiB stripe dwarfs the fabric's 64 KiB burst floor):
    // whichever stripe lands on it must blow the deadline and fail
    // over instead of hanging the read.
    let stalled = cluster.datanode_hosts()[0].clone();
    cluster
        .throttle_host(&stalled, Some(Bandwidth::mbps(0.02)))
        .unwrap();

    let started = Instant::now();
    assert_eq!(client.get("/read/stall.bin").unwrap(), data);
    let elapsed = started.elapsed();
    assert!(
        elapsed.as_secs_f64() < 10.0,
        "read should fail over, not crawl: took {elapsed:?}"
    );

    let reasons = switch_reasons(&sink);
    assert!(
        reasons.iter().any(|r| r == "timeout"),
        "expected a timeout-driven source switch, saw {reasons:?}"
    );
    cluster.shutdown();
}

#[test]
fn corrupt_replicas_are_reported_and_dropped_from_locations() {
    let sink = RingBufferSink::new(65_536);
    let obs = Obs::new(sink.clone());
    let cluster =
        MiniCluster::start_with_obs(&small_spec(3), DfsConfig::test_scale(), 41, obs.clone())
            .unwrap();
    let client = cluster.client().unwrap();
    let data = random_data(0xC0, 180_000);
    client.put("/read/bitrot.bin", &data, WriteMode::Smarth).unwrap();
    assert!(await_replicas(&client, "/read/bitrot.bin", 3, Duration::from_secs(10)).unwrap());

    let (block_id, bad) = {
        let stream = client.open("/read/bitrot.bin").unwrap();
        let lb = &stream.block_layout()[0];
        (lb.block.id, lb.targets[0].id)
    };
    let hosts = hosts_by_id(&cluster);
    cluster
        .datanode(&hosts[&bad])
        .unwrap()
        .inject_read_corruption(block_id);

    // The read catches the flipped bit client-side, reports the
    // replica, and still returns the right bytes from the other copies.
    assert_eq!(client.get("/read/bitrot.bin").unwrap(), data);
    let m = obs.metrics();
    assert!(m.bad_replicas_reported.get() >= 1, "report must reach the namenode");
    assert!(
        m.re_replications_scheduled.get() >= 1,
        "dropping below the expected replica count schedules re-replication"
    );

    // The namenode stops serving the corrupt copy to future readers.
    let stream = client.open("/read/bitrot.bin").unwrap();
    let after: Vec<DatanodeId> = stream.block_layout()[0]
        .targets
        .iter()
        .map(|t| t.id)
        .collect();
    assert!(!after.contains(&bad), "corrupt replica still served: {after:?}");
    assert_eq!(after.len(), 2);

    // Only the stripe planned on the corrupt copy switched, once: its
    // slice of the result was filled again from the next source.
    assert_eq!(switch_reasons(&sink), ["checksum"]);
    cluster.shutdown();
}

/// A source that delivers the first packet of its stripe and then stalls
/// past the deadline has written into the stripe's slice of the result;
/// the failover fills that slice again from its start, so the read ends
/// with exact bytes after exactly one switch.
#[test]
fn source_stalling_midway_leaves_no_trace_in_the_result() {
    let sink = RingBufferSink::new(65_536);
    let obs = Obs::new(sink.clone());
    let mut config = DfsConfig::test_scale();
    config.read_timeout = SimDuration::from_secs_f64(0.6);
    let block = config.block_size.as_u64() as usize;
    let cluster = MiniCluster::start_with_obs(&small_spec(3), config, 33, obs).unwrap();
    let client = cluster.client().unwrap();
    let data = random_data(0xAC, block);
    client.put("/read/midway.bin", &data, WriteMode::Smarth).unwrap();

    // ≈ 26 KiB per timeout window: one 16 KiB packet of the ~87 KiB
    // stripe arrives in time, the second cannot.
    let stalled = cluster.datanode_hosts()[0].clone();
    cluster
        .throttle_host(&stalled, Some(Bandwidth::mbps(0.36)))
        .unwrap();

    assert_eq!(client.get("/read/midway.bin").unwrap(), data);
    assert_eq!(switch_reasons(&sink), ["timeout"]);
    cluster.shutdown();
}

#[test]
fn failed_bad_replica_report_is_attributed_to_the_namenode() {
    let sink = RingBufferSink::new(65_536);
    let obs = Obs::new(sink.clone());
    let cluster =
        MiniCluster::start_with_obs(&small_spec(3), DfsConfig::test_scale(), 43, obs.clone())
            .unwrap();
    let client = cluster.client().unwrap();
    let data = random_data(0xEE, 150_000);
    client.put("/read/orphan.bin", &data, WriteMode::Smarth).unwrap();
    assert!(await_replicas(&client, "/read/orphan.bin", 3, Duration::from_secs(10)).unwrap());

    let stream = client.open("/read/orphan.bin").unwrap();
    let block_id = stream.block_layout()[0].block.id;
    let bad = stream.block_layout()[0].targets[0].id;
    let hosts = hosts_by_id(&cluster);
    cluster
        .datanode(&hosts[&bad])
        .unwrap()
        .inject_read_corruption(block_id);
    // Deleting the file retires its blocks namenode-side only — the
    // datanodes keep serving an already-open stream. The corrupt-replica
    // report is now the RPC that fails (unknown block), which is the
    // one read-path failure only the namenode can cause.
    assert!(client.delete("/read/orphan.bin").unwrap());

    assert_eq!(stream.read_all().unwrap(), data, "failover still serves the read");
    let m = obs.metrics();
    assert!(
        m.recoveries(RecoveryCause::NamenodeError) >= 1,
        "the failed report must be attributed to the namenode"
    );
    assert_eq!(
        m.bad_replicas_reported.get(),
        0,
        "the namenode never accepted a report for the retired block"
    );

    cluster.shutdown();
    let report = TraceAssembler::assemble(&sink.snapshot());
    let tl = report
        .blocks
        .iter()
        .find(|b| b.block == block_id)
        .expect("block timeline assembled");
    assert!(
        tl.recoveries
            .iter()
            .any(|r| matches!(r.cause, RecoveryCause::NamenodeError)),
        "recovery span must carry the namenode_error cause"
    );
    assert!(
        tl.reads.iter().any(|r| r.source_switches >= 1),
        "the read span must record the source switch"
    );
}
