//! Harsh fault-tolerance integration tests for Algorithms 3 and 4:
//! sequential double failures, first-datanode loss, failure during the
//! final ack drain, and recovery bookkeeping at the namenode.

use smarth::cluster::{random_data, MiniCluster};
use smarth::core::units::Bandwidth;
use smarth::core::{ClusterSpec, DfsConfig, InstanceType, SimDuration, WriteMode};

fn fast_config() -> DfsConfig {
    let mut c = DfsConfig::test_scale();
    c.disk_bandwidth = Bandwidth::unlimited();
    c.heartbeat_interval = SimDuration::from_millis(25);
    c
}

fn cluster(datanodes_to_keep: usize, seed: u64) -> MiniCluster {
    let mut spec = ClusterSpec::homogeneous(InstanceType::Large);
    spec.hosts.retain(|h| {
        h.role != smarth::core::HostRole::DataNode
            || h.name
                .strip_prefix("dn")
                .and_then(|s| s.parse::<usize>().ok())
                .is_some_and(|i| i < datanodes_to_keep)
    });
    spec.link_latency = SimDuration::ZERO;
    MiniCluster::start(&spec, fast_config(), seed).unwrap()
}

/// Kills the datanode hosting an in-flight (RBW) replica, polling until
/// one exists.
fn kill_inflight_victim(cluster: &MiniCluster, exclude: &[String]) -> String {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let found = cluster.datanode_hosts().into_iter().find(|h| {
            if exclude.contains(h) {
                return false;
            }
            let store = cluster.datanode(h).unwrap().store();
            store.replica_count() > store.finalized_blocks().len()
        });
        if let Some(v) = found {
            cluster.kill_datanode(&v).unwrap();
            return v;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no in-flight replica appeared"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

#[test]
fn sequential_double_failure_smarth() {
    // Two datanodes die at different points of the upload; the stream
    // recovers twice and the file survives.
    let cluster = cluster(8, 31);
    let client = cluster.client().unwrap();
    let data = random_data(42, 2_500_000);

    let mut stream = client.create("/dbl/a.bin", WriteMode::Smarth).unwrap();
    stream.write(&data[..600_000]).unwrap();
    let first = kill_inflight_victim(&cluster, &[]);
    stream.write(&data[600_000..1_400_000]).unwrap();
    let second = kill_inflight_victim(&cluster, std::slice::from_ref(&first));
    assert_ne!(first, second);
    stream.write(&data[1_400_000..]).unwrap();
    let stats = stream.close().unwrap();
    assert!(
        stats.recoveries >= 2,
        "two kills must trigger at least two recoveries, got {}",
        stats.recoveries
    );
    assert_eq!(client.get("/dbl/a.bin").unwrap(), data);
    cluster.shutdown();
}

#[test]
fn failure_during_final_drain_smarth() {
    // Kill a node after the last byte is written but (likely) before all
    // pipelines drained: close() must still succeed via Algorithm 4.
    let cluster = cluster(6, 37);
    let client = cluster.client().unwrap();
    // Slow the cross-rack hop so pending pipelines exist at close time.
    cluster.fabric().set_cross_rack_throttle(Some(Bandwidth::mbps(40.0)));
    let data = random_data(17, 1_800_000);
    let mut stream = client.create("/drain/x.bin", WriteMode::Smarth).unwrap();
    stream.write(&data).unwrap();
    // At this point the last block has FNFA'd but cross-rack replication
    // is still draining. Kill an in-flight replica holder if any exists;
    // if everything already finalized the close simply succeeds.
    let victim = cluster.datanode_hosts().into_iter().find(|h| {
        let store = cluster.datanode(h).unwrap().store();
        store.replica_count() > store.finalized_blocks().len()
    });
    if let Some(v) = &victim {
        cluster.kill_datanode(v).unwrap();
    }
    let stats = stream.close().unwrap();
    if victim.is_some() {
        // Either recovery ran, or the pipeline finished racing the kill.
        // In both cases the data must verify below.
        let _ = stats;
    }
    assert_eq!(client.get("/drain/x.bin").unwrap(), data);
    cluster.shutdown();
}

#[test]
fn hdfs_mode_first_datanode_failure() {
    // The stream's pipeline connection target itself dies.
    let cluster = cluster(6, 41);
    let client = cluster.client().unwrap();
    let data = random_data(23, 1_200_000);
    let mut stream = client.create("/first/fail.bin", WriteMode::Hdfs).unwrap();
    stream.write(&data[..300_000]).unwrap();
    let _victim = kill_inflight_victim(&cluster, &[]);
    stream.write(&data[300_000..]).unwrap();
    let stats = stream.close().unwrap();
    assert!(stats.recoveries >= 1);
    assert_eq!(client.get("/first/fail.bin").unwrap(), data);
    cluster.shutdown();
}

#[test]
fn reads_fail_over_to_surviving_replicas() {
    let cluster = cluster(5, 43);
    let client = cluster.client().unwrap();
    let data = random_data(29, 700_000);
    client.put("/ro/f.bin", &data, WriteMode::Smarth).unwrap();
    // Kill one replica holder; reads must fail over to the others.
    let victim = cluster
        .datanode_hosts()
        .into_iter()
        .find(|h| cluster.datanode(h).unwrap().store().replica_count() > 0)
        .unwrap();
    cluster.kill_datanode(&victim).unwrap();
    assert_eq!(client.get("/ro/f.bin").unwrap(), data);
    cluster.shutdown();
}

#[test]
fn upload_survives_minimum_viable_cluster() {
    // Exactly replication-many datanodes: any loss leaves fewer nodes
    // than replicas. Recovery must continue at reduced width.
    let cluster = cluster(3, 47);
    let client = cluster.client().unwrap();
    let data = random_data(31, 1_000_000);
    let mut stream = client.create("/minimal/f.bin", WriteMode::Smarth).unwrap();
    stream.write(&data[..400_000]).unwrap();
    let _ = kill_inflight_victim(&cluster, &[]);
    stream.write(&data[400_000..]).unwrap();
    let stats = stream.close().unwrap();
    assert!(stats.recoveries >= 1);
    assert_eq!(client.get("/minimal/f.bin").unwrap(), data);
    cluster.shutdown();
}

#[test]
fn namenode_replica_accounting_after_recovery() {
    let cluster = cluster(6, 53);
    let client = cluster.client().unwrap();
    let data = random_data(61, 900_000);
    let mut stream = client.create("/acct/f.bin", WriteMode::Smarth).unwrap();
    stream.write(&data[..300_000]).unwrap();
    let _ = kill_inflight_victim(&cluster, &[]);
    stream.write(&data[300_000..]).unwrap();
    stream.close().unwrap();

    // Every block of the file must report at least one current-
    // generation replica at the namenode, and the file reads back.
    let info = client.file_info("/acct/f.bin").unwrap().unwrap();
    assert!(info.complete);
    assert_eq!(info.len, data.len() as u64);
    assert_eq!(client.get("/acct/f.bin").unwrap(), data);
    cluster.shutdown();
}

#[test]
fn second_fault_during_recovery_attributed_as_nested() {
    // Regression: a replica holder lost *while recovery for the same
    // block is already running* used to be folded into the original
    // incident's cause. The two incidents must surface as two
    // separately-attributed recoveries: the original cause plus a
    // distinct `nested_failure`.
    use smarth::core::obs::{Obs, RecoveryCause, RingBufferSink};
    use smarth::core::trace::TraceAssembler;

    let mut spec = ClusterSpec::homogeneous(InstanceType::Large);
    spec.hosts.retain(|h| {
        h.role != smarth::core::HostRole::DataNode
            || h.name
                .strip_prefix("dn")
                .and_then(|s| s.parse::<usize>().ok())
                .is_some_and(|i| i < 8)
    });
    spec.link_latency = SimDuration::ZERO;
    let sink = RingBufferSink::new(65_536);
    let obs = Obs::new(sink.clone());
    let cluster = MiniCluster::start_with_obs(&spec, fast_config(), 59, obs).unwrap();
    let client = cluster.client().unwrap();
    let data = random_data(67, 1_500_000);
    let mut stream = client.create("/nested/f.bin", WriteMode::Smarth).unwrap();
    stream.write(&data[..400_000]).unwrap();

    // Take two members of the pipeline being written that hold an RBW
    // replica and kill both at once: the first death starts the
    // recovery, the second is discovered by the recovery's own replica
    // probe. (A draining block's holders would do neither if the block
    // finalized first: SMARTH's busy set keeps them out of the current
    // pipeline.)
    let victims = {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let mut hosts = stream.current_target_hosts();
            hosts.retain(|h| !cluster.datanode(h).unwrap().store().rbw_blocks().is_empty());
            if hosts.len() >= 2 {
                break hosts;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "the current pipeline never had two in-flight replicas"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    };
    cluster.kill_datanode(&victims[0]).unwrap();
    cluster.kill_datanode(&victims[1]).unwrap();

    stream.write(&data[400_000..]).unwrap();
    let stats = stream.close().unwrap();
    assert!(
        stats.recoveries >= 2,
        "both deaths must be accounted, got {}",
        stats.recoveries
    );

    let m = cluster.obs().metrics();
    let nested = m.recoveries(RecoveryCause::NestedFailure);
    let original = m.recoveries(RecoveryCause::ConnectionLost)
        + m.recoveries(RecoveryCause::DatanodeError)
        + m.recoveries(RecoveryCause::AckTimeout);
    assert!(
        nested >= 1,
        "mid-recovery death must be attributed as nested_failure \
         (nested={nested}, original={original})"
    );
    assert!(
        original >= 1,
        "the triggering incident must keep its own cause \
         (nested={nested}, original={original})"
    );

    // The assembled trace carries the distinction per span.
    let report = TraceAssembler::assemble(&sink.snapshot());
    let spans: Vec<_> = report
        .blocks
        .iter()
        .flat_map(|b| b.recoveries.iter())
        .collect();
    assert!(spans.iter().any(|r| r.nested));
    assert!(spans.iter().any(|r| !r.nested));
    assert!(spans
        .iter()
        .filter(|r| r.nested)
        .all(|r| r.cause == RecoveryCause::NestedFailure));

    assert_eq!(client.get("/nested/f.bin").unwrap(), data);
    cluster.shutdown();
}

#[test]
fn rebuilt_pipeline_whose_resend_fails_is_closed() {
    // Recovery reopens a block on its survivors and resends the retained
    // packets. When that resend fails after the pipeline opened, the
    // pipeline must still be closed and its packets uncounted: both
    // `concurrent_pipelines` and `packets_in_flight` drain to 0.
    use smarth::core::proto::{DataOp, DataReply};
    use smarth::core::wire::{recv_message, send_message};
    use smarth::core::{ExtendedBlock, GenStamp};
    use smarth::datanode::DataNode;

    let cluster = cluster(8, 71);
    let client = cluster.client().unwrap();
    let data = random_data(73, 600_000);
    let mut stream = client.create("/resend/f.bin", WriteMode::Smarth).unwrap();
    // Twelve packets of the first block: more than one socket buffer.
    stream.write(&data[..200_000]).unwrap();
    let head = stream.current_target_hosts()[0].clone();

    // The head's data port now answers as a fake: one empty replica (at
    // a stamp no probe calls stale) and one `RecoverBlock`, so recovery
    // resends everything to it; it reads the header of that pipeline and
    // hangs up, and refuses every later connection unanswered.
    let addr = DataNode::data_addr_of(&head);
    cluster.fabric().close_listener(&addr);
    let listener = cluster.fabric().listen(&addr).unwrap();
    std::thread::spawn(move || {
        let mut hung_up = false;
        while let Ok(mut s) = listener.accept() {
            match recv_message::<DataOp>(&mut s) {
                Ok(DataOp::GetReplicaInfo { block }) if !hung_up => {
                    let block = Some(ExtendedBlock::new(block, GenStamp(u64::MAX), 0));
                    let _ = send_message(&mut s, &DataReply::ReplicaInfo { block, finalized: false });
                }
                Ok(DataOp::RecoverBlock { block, new_gen, new_len }) if !hung_up => {
                    let block = ExtendedBlock::new(block.id, new_gen, new_len);
                    let _ = send_message(&mut s, &DataReply::RecoverOk { block });
                }
                _ => hung_up = true,
            }
        }
    });
    cluster.fabric().cut_link(&cluster.spec().client_host().name, &head);

    stream.write(&data[200_000..]).unwrap();
    let stats = stream.close().unwrap();
    assert!(stats.recoveries >= 1, "the cut must be recovered");
    assert_eq!(client.get("/resend/f.bin").unwrap(), data);
    let m = cluster.obs().metrics();
    assert_eq!((m.concurrent_pipelines.get(), m.packets_in_flight.get()), (0, 0));
    cluster.shutdown();
}

#[test]
fn flush_stage_fault_surfaces_as_error_ack_and_recovers() {
    // The staged write path moves disk writes onto a dedicated flusher
    // thread. A flush-stage failure (here: the RBW replica vanishing
    // under the flusher, so its next `write_packet` fails) must surface
    // as an error ack on the existing ack stream — driving the client's
    // normal recovery causes — not as a silent stall or a bare socket
    // drop with no attribution.
    use smarth::core::obs::{Obs, RecoveryCause, RingBufferSink};
    use smarth::core::trace::TraceAssembler;

    let mut spec = ClusterSpec::homogeneous(InstanceType::Large);
    spec.hosts.retain(|h| {
        h.role != smarth::core::HostRole::DataNode
            || h.name
                .strip_prefix("dn")
                .and_then(|s| s.parse::<usize>().ok())
                .is_some_and(|i| i < 6)
    });
    spec.link_latency = SimDuration::ZERO;
    let sink = RingBufferSink::new(65_536);
    let obs = Obs::new(sink.clone());
    let cluster = MiniCluster::start_with_obs(&spec, fast_config(), 83, obs).unwrap();
    let client = cluster.client().unwrap();
    let data = random_data(91, 1_000_000);

    let mut stream = client.create("/flush/fault.bin", WriteMode::Smarth).unwrap();
    // Stay inside the first 256 KiB block so it cannot finalize before
    // the fault lands: more packets for this block are still to come.
    stream.write(&data[..100_000]).unwrap();

    // Yank an in-flight RBW replica out from under a datanode's flusher.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    'found: loop {
        for h in cluster.datanode_hosts() {
            let store = cluster.datanode(&h).unwrap().store();
            if let Some(block) = store.rbw_blocks().into_iter().next() {
                assert!(store.remove(block), "rbw replica vanished before removal");
                break 'found;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no in-flight replica appeared"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    // The rest of the block hits the gutted store: its flusher fails,
    // acks the error upstream, and the client pipeline recovers.
    stream.write(&data[100_000..]).unwrap();
    let stats = stream.close().unwrap();
    assert!(
        stats.recoveries >= 1,
        "flush fault must trigger a recovery, got {}",
        stats.recoveries
    );

    // The incident carries a cause the recovery machinery already knows:
    // the error ack yields datanode_error; the connection teardown that
    // follows may be observed first on some interleavings.
    let m = cluster.obs().metrics();
    let attributed = m.recoveries(RecoveryCause::DatanodeError)
        + m.recoveries(RecoveryCause::ConnectionLost)
        + m.recoveries(RecoveryCause::AckTimeout);
    assert!(
        attributed >= 1,
        "flush fault must be attributed to an existing recovery cause"
    );

    // Every recovery span in the assembled trace must be balanced: the
    // incident reported a conclusion, not a dangling start.
    let report = TraceAssembler::assemble(&sink.snapshot());
    let spans: Vec<_> = report
        .blocks
        .iter()
        .flat_map(|b| b.recoveries.iter())
        .collect();
    assert!(!spans.is_empty(), "trace must carry the recovery span");
    assert!(
        spans.iter().all(|r| r.end_us.is_some()),
        "unbalanced recovery span in trace: {spans:?}"
    );

    assert_eq!(client.get("/flush/fault.bin").unwrap(), data);
    cluster.shutdown();
}

#[test]
fn stalled_datanode_record_ages_out_and_re_earns_after_restore() {
    // Speed-record aging (namenode side): with a half-life configured,
    // a datanode that stops producing fresh speed reports loses its
    // standing exponentially instead of keeping a stale record forever;
    // once the stall lifts and it carries traffic again, a fresh report
    // restores it at full weight.
    let mut config = fast_config();
    config.speed_half_life = Some(SimDuration::from_millis(100));
    let mut spec = ClusterSpec::homogeneous(InstanceType::Large);
    spec.hosts.retain(|h| {
        h.role != smarth::core::HostRole::DataNode
            || h.name
                .strip_prefix("dn")
                .and_then(|s| s.parse::<usize>().ok())
                .is_some_and(|i| i < 6)
    });
    spec.link_latency = SimDuration::ZERO;
    let cluster = MiniCluster::start(&spec, config, 73).unwrap();
    let client = cluster.client().unwrap();

    // Warm the registry with a multi-block SMARTH upload.
    client
        .put("/age/warm.bin", &random_data(1, 1_200_000), WriteMode::Smarth)
        .unwrap();
    client.flush_speed_report().unwrap();
    let warm = cluster.namenode_state().speed_records(client.id());
    assert!(!warm.is_empty(), "warm-up must leave speed records");
    let (victim_id, warm_rate) = warm
        .iter()
        .cloned()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    let victim_host = cluster
        .datanode_hosts()
        .into_iter()
        .find(|h| cluster.datanode(h).unwrap().id() == victim_id)
        .unwrap();

    // Stall the fastest recorded node. No fresh reports arrive while it
    // crawls, so several half-lives later its record must have decayed
    // to a fraction of the warm value (or dropped below the floor).
    cluster
        .throttle_host(&victim_host, Some(Bandwidth::mbps(0.5)))
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(450));
    let aged = cluster.namenode_state().speed_records(client.id());
    if let Some((_, decayed)) = aged.iter().find(|(d, _)| *d == victim_id) {
        assert!(
            *decayed < warm_rate * 0.2,
            "4+ half-lives must shrink the record: warm {warm_rate:.0} B/s, \
             still {decayed:.0} B/s"
        );
    }

    // Restore the node and keep writing: as soon as it carries a
    // pipeline hop again, the client's next report must re-earn its
    // record at fresh (undecayed) strength.
    cluster.throttle_host(&victim_host, None).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(15);
    let mut round = 0u64;
    loop {
        round += 1;
        client
            .put(
                &format!("/age/re{round}.bin"),
                &random_data(100 + round, 1_200_000),
                WriteMode::Smarth,
            )
            .unwrap();
        client.flush_speed_report().unwrap();
        let records = cluster.namenode_state().speed_records(client.id());
        if let Some((_, rate)) = records.iter().find(|(d, _)| *d == victim_id) {
            if *rate > warm_rate * 0.25 {
                break; // fresh report landed: record re-earned
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "restored datanode {victim_host} never re-earned its speed record"
        );
    }
    cluster.shutdown();
}

#[test]
fn dead_first_target_is_given_back_and_the_block_allocated_again() {
    use smarth::core::obs::{Obs, ObsEvent, RecoveryCause, RingBufferSink};
    use smarth::core::DatanodeId;

    // A first target that died after placement but before the namenode
    // expired it refuses the pipeline. Placement is a function of the
    // cluster seed, so a rehearsal on an identical cluster tells which
    // datanode the first `addBlock` will put first. Algorithm 2 is off
    // so that is also the node the client connects to.
    const BLOCK: usize = 256 * 1024;
    let len = BLOCK + 50_000;
    let data = random_data(73, len);
    let opened_pipelines = |sink: &RingBufferSink| -> Vec<Vec<DatanodeId>> {
        sink.snapshot()
            .into_iter()
            .filter_map(|r| match r.event {
                ObsEvent::PipelineOpened { targets, .. } => Some(targets),
                _ => None,
            })
            .collect()
    };
    let start = || {
        let mut config = fast_config();
        config.local_opt_enabled = false;
        let sink = RingBufferSink::new(16_384);
        let spec = ClusterSpec::homogeneous(InstanceType::Large);
        let cluster =
            MiniCluster::start_with_obs(&spec, config, 101, Obs::new(sink.clone())).unwrap();
        (cluster, sink)
    };

    let (rehearsal, sink) = start();
    let client = rehearsal.client().unwrap();
    client.put("/dead/first.bin", &data, WriteMode::Smarth).unwrap();
    let victim = opened_pipelines(&sink)[0][0];
    drop(client);
    rehearsal.shutdown();

    let (cluster, sink) = start();
    let host = cluster
        .datanode_hosts()
        .into_iter()
        .find(|h| cluster.datanode(h).unwrap().id() == victim)
        .unwrap();
    // Nobody tells the namenode: until heartbeats expire the node, its
    // placements keep pointing at it.
    cluster.kill_datanode_silently(&host).unwrap();
    let client = cluster.client().unwrap();
    let report = client.put("/dead/first.bin", &data, WriteMode::Smarth).unwrap();

    let m = cluster.obs().metrics();
    assert_eq!(report.stats.recoveries, 1);
    assert_eq!(m.recoveries(RecoveryCause::ConnectionLost), 1);
    assert_eq!(m.allocations_abandoned.get(), 1);
    // No pipeline ever opened on the dead node; the block given back
    // left no empty block in the file.
    let opened = opened_pipelines(&sink);
    assert_eq!(opened.len(), 2);
    assert!(opened.iter().all(|targets| !targets.contains(&victim)), "{opened:?}");
    let reader = client.open("/dead/first.bin").unwrap();
    let blocks = reader.block_layout();
    assert_eq!(blocks.len(), 2, "{blocks:?}");
    assert!(blocks.iter().all(|b| b.block.len > 0), "{blocks:?}");
    assert_eq!(client.get("/dead/first.bin").unwrap(), data);
    cluster.shutdown();
}

#[test]
fn first_target_lost_between_create_and_the_first_write() {
    use smarth::core::obs::{Obs, ObsEvent, RecoveryCause, RingBufferSink};

    // `create` brings the first block's allocation with it, so the stream
    // can hold a placement the namenode would no longer make: the first
    // target dies (and the namenode is told) before a byte is written.
    // Algorithm 2 is off, so the namenode's first choice is the node the
    // client connects to.
    let mut config = fast_config();
    config.local_opt_enabled = false;
    let sink = RingBufferSink::new(16_384);
    let spec = ClusterSpec::homogeneous(InstanceType::Large);
    let cluster = MiniCluster::start_with_obs(&spec, config, 113, Obs::new(sink.clone())).unwrap();
    let client = cluster.client().unwrap();
    let data = random_data(79, 256 * 1024 + 50_000);

    let mut stream = client.create("/dead/held.bin", WriteMode::Smarth).unwrap();
    let placed: Vec<_> = sink
        .snapshot()
        .into_iter()
        .filter_map(|r| match r.event {
            ObsEvent::PlacementDecision { chosen, .. } => Some(chosen),
            _ => None,
        })
        .collect();
    assert_eq!(placed.len(), 1, "create placed the first block: {placed:?}");
    let victim = placed[0][0];
    let host = cluster
        .datanode_hosts()
        .into_iter()
        .find(|h| cluster.datanode(h).unwrap().id() == victim)
        .unwrap();
    cluster.kill_datanode(&host).unwrap();
    stream.write(&data).unwrap();
    let stats = stream.close().unwrap();

    // The path a first target dead at `addBlock` time takes: one
    // incident, the allocation given back, the block placed again.
    let m = cluster.obs().metrics();
    assert_eq!(stats.recoveries, 1);
    assert_eq!(m.recoveries(RecoveryCause::ConnectionLost), 1);
    assert_eq!(m.allocations_abandoned.get(), 1);
    let reader = client.open("/dead/held.bin").unwrap();
    let blocks = reader.block_layout();
    assert_eq!(blocks.len(), 2, "{blocks:?}");
    assert!(blocks.iter().all(|b| b.block.len > 0), "{blocks:?}");
    assert_eq!(client.get("/dead/held.bin").unwrap(), data);
    cluster.shutdown();
}

#[test]
fn block_lost_before_its_first_ack_is_written_again_in_its_place() {
    // Block 0 is sent and FNFA'd, block 1 is allocated behind it, and
    // then every holder of block 0 dies before one packet ack came back:
    // the client abandons the block and writes its retained packets into
    // a fresh allocation, which must take block 0's place in the file,
    // not the end. Placement is a function of the cluster seed, so a
    // rehearsal on an identical cluster tells who will hold block 0.
    const BLOCK: usize = 256 * 1024;
    let data = random_data(91, 2 * BLOCK + 70_000);
    let start = || {
        let mut config = fast_config();
        config.local_opt_enabled = false;
        let spec = ClusterSpec::homogeneous(InstanceType::Large);
        MiniCluster::start(&spec, config, 57).unwrap()
    };

    let rehearsal = start();
    let client = rehearsal.client().unwrap();
    let mut stream = client.create("/again/a.bin", WriteMode::Smarth).unwrap();
    stream.write(&data[..BLOCK / 2]).unwrap();
    let holders = stream.current_target_hosts();
    assert_eq!(holders.len(), 3);
    stream.write(&data[BLOCK / 2..]).unwrap();
    stream.close().unwrap();
    drop(client);
    rehearsal.shutdown();

    let cluster = start();
    // A packet needs over a second to enter the second holder, and as
    // long again to leave it: the tail acks nothing in time.
    cluster
        .throttle_host(&holders[1], Some(Bandwidth::mbps(0.1)))
        .unwrap();
    let client = cluster.client().unwrap();
    let mut stream = client.create("/again/a.bin", WriteMode::Smarth).unwrap();
    // Two packets into block 1: block 0 is pending behind its FNFA.
    stream.write(&data[..BLOCK + 40_000]).unwrap();
    assert_eq!(stream.active_pipelines(), 2);
    for host in &holders {
        cluster.kill_datanode(host).unwrap();
    }
    stream.write(&data[BLOCK + 40_000..]).unwrap();
    let stats = stream.close().unwrap();
    assert!(stats.recoveries >= 1, "{stats:?}");
    // The first block of the file is the youngest allocation.
    let ids: Vec<u64> = client
        .open("/again/a.bin")
        .unwrap()
        .block_layout()
        .iter()
        .map(|b| b.block.id.raw())
        .collect();
    assert_eq!(ids.len(), 3, "{ids:?}");
    assert!(ids[0] > ids[1] && ids[1] < ids[2], "{ids:?}");
    assert_eq!(client.get("/again/a.bin").unwrap(), data);
    cluster.shutdown();
}
