//! # smarth-datanode
//!
//! The datanode of the mini-DFS: an in-memory [`BlockStore`] with the
//! RBW → finalized replica lifecycle and recovery truncation, plus the
//! data-transfer server ([`DataNode`]) implementing pipelined block
//! writes with checksum verification, mirror forwarding, upstream ack
//! aggregation and — in SMARTH mode — the FIRST_NODE_FINISH ack that
//! unlocks the client's next pipeline (§III-A).

#![forbid(unsafe_code)]

pub mod server;
pub mod store;

pub use server::{DataNode, NnClient};
pub use store::BlockStore;

#[cfg(test)]
mod tests {
    use super::*;
    use smarth_core::checksum::ChunkedChecksum;
    use smarth_core::config::{DfsConfig, WriteMode};
    use smarth_core::ids::{BlockId, ClientId, ExtendedBlock, GenStamp, PipelineId, SpanId, TraceId};
    use smarth_core::obs::Obs;
    use smarth_core::proto::{
        AckKind, DataOp, DataReply, DatanodeInfo, DatanodeRequest, DatanodeResponse, Packet,
        PipelineAck, WriteBlockHeader,
    };
    use smarth_core::units::Bandwidth;
    use smarth_core::wire::{recv_message, send_message};
    use smarth_fabric::{Fabric, FabricConfig, FabricStream};
    use std::time::Duration;

    /// How the fake namenode answers `BlockReceived`: at once with an
    /// ack by default.
    #[derive(Clone, Default)]
    struct NnReplies {
        /// Datanode ids whose reply waits `HOLD` first.
        held: Vec<u32>,
        /// Answer `Error` instead of the ack.
        refuse: bool,
    }

    const HOLD: Duration = Duration::from_millis(600);

    /// Minimal namenode stand-in: answers registrations with sequential
    /// ids and acks heartbeats / blockReceived as `replies` says.
    fn spawn_fake_namenode(fabric: &Fabric, host: &str, replies: NnReplies) {
        fabric.add_host(host, "rack-nn", Bandwidth::unlimited());
        let listener = fabric.listen(&format!("{host}:8021")).unwrap();
        std::thread::spawn(move || {
            let mut next_id = 0u32;
            while let Ok(Some(mut s)) = listener.accept_timeout(Duration::from_secs(5)) {
                let id = next_id;
                next_id += 1;
                let replies = replies.clone();
                std::thread::spawn(move || {
                    while let Ok(req) = recv_message::<DatanodeRequest>(&mut s) {
                        let resp = match req {
                        DatanodeRequest::Register { .. } => DatanodeResponse::Registered {
                            id: smarth_core::ids::DatanodeId(id),
                        },
                        DatanodeRequest::Heartbeat { .. } => DatanodeResponse::HeartbeatAck,
                            DatanodeRequest::BlockReceived { id, .. } => {
                                if replies.held.contains(&id.0) {
                                    std::thread::sleep(HOLD);
                                }
                                if replies.refuse {
                                    DatanodeResponse::Error("refused by test".into())
                                } else {
                                    DatanodeResponse::BlockReceivedAck
                                }
                            }
                        };
                        if send_message(&mut s, &resp).is_err() {
                            break;
                        }
                    }
                });
            }
        });
    }

    struct TestCluster {
        fabric: Fabric,
        datanodes: Vec<DataNode>,
        config: DfsConfig,
        obs: Obs,
    }

    impl TestCluster {
        fn new(n: usize) -> Self {
            Self::with_config(n, DfsConfig::test_scale())
        }

        fn with_config(n: usize, config: DfsConfig) -> Self {
            Self::with_namenode(n, config, NnReplies::default())
        }

        /// `dn{i}` registers first of all and so gets datanode id `i`.
        fn with_namenode(n: usize, config: DfsConfig, replies: NnReplies) -> Self {
            let fabric = Fabric::new(FabricConfig {
                latency: Duration::ZERO,
                socket_buffer: 64 * 1024,
                chunk_size: 8 * 1024,
            });
            spawn_fake_namenode(&fabric, "nn", replies);
            fabric.add_host("client", "rack-a", Bandwidth::unlimited());
            let obs = Obs::disabled();
            let datanodes = (0..n)
                .map(|i| {
                    let host = format!("dn{i}");
                    fabric.add_host(&host, "rack-a", Bandwidth::unlimited());
                    let (cfg, obs) = (config.clone(), obs.clone());
                    DataNode::start_with_obs(&fabric, &host, "rack-a", "nn:8021", cfg, obs).unwrap()
                })
                .collect();
            Self {
                fabric,
                datanodes,
                config,
                obs,
            }
        }

        fn info(&self, i: usize) -> DatanodeInfo {
            let dn = &self.datanodes[i];
            DatanodeInfo {
                id: dn.id(),
                host_name: dn.host().to_string(),
                rack: "rack-a".into(),
                addr: dn.data_addr(),
            }
        }

        fn connect_first(&self, targets: &[DatanodeInfo]) -> FabricStream {
            self.fabric.connect("client", &targets[0].addr).unwrap()
        }
    }

    impl Drop for TestCluster {
        fn drop(&mut self) {
            self.fabric.shutdown();
            for dn in self.datanodes.drain(..) {
                dn.shutdown();
            }
        }
    }

    fn make_packets(config: &DfsConfig, data: &[u8]) -> Vec<Packet> {
        let csum = ChunkedChecksum::new(config.bytes_per_checksum);
        let chunk = config.packet_size.as_u64() as usize;
        let payload = bytes::Bytes::copy_from_slice(data);
        let mut out = Vec::new();
        let mut sent = 0usize;
        let mut seq = 0u64;
        loop {
            let n = chunk.min(data.len() - sent);
            let part = payload.slice(sent..sent + n);
            let last = sent + n >= data.len();
            out.push(Packet {
                seq,
                offset_in_block: sent as u64,
                last_in_block: last,
                checksums: csum.compute(&part),
                payload: part,
            });
            sent += n;
            seq += 1;
            if last {
                break;
            }
        }
        out
    }

    fn write_block(
        cluster: &TestCluster,
        targets: &[DatanodeInfo],
        block: ExtendedBlock,
        data: &[u8],
        mode: WriteMode,
    ) -> (Vec<PipelineAck>, Option<PipelineAck>) {
        let mut stream = cluster.connect_first(targets);
        let header = WriteBlockHeader {
            pipeline: PipelineId(1),
            client: ClientId(1),
            block,
            mode,
            targets: targets[1..].to_vec(),
            position: 0,
            client_buffer: cluster.config.datanode_client_buffer.as_u64(),
            trace: TraceId::INVALID,
            span: SpanId::INVALID,
        };
        send_message(&mut stream, &DataOp::WriteBlock(header)).unwrap();
        let packets = make_packets(&cluster.config, data);
        let total = packets.len();
        for p in &packets {
            send_message(&mut stream, p).unwrap();
        }
        // Collect acks until every packet is covered (frames are
        // cumulative: one may cover a whole batch), plus maybe one FNFA.
        let mut acks = Vec::new();
        let mut covered = 0u64;
        let mut fnfa = None;
        while covered < total as u64 {
            let ack: PipelineAck = recv_message(&mut stream).unwrap();
            match ack.kind {
                AckKind::Packet => {
                    covered += ack.batch.max(1);
                    acks.push(ack);
                }
                AckKind::FirstNodeFinish => fnfa = Some(ack),
            }
        }
        (acks, fnfa)
    }

    #[test]
    fn single_node_write_stores_and_acks() {
        let cluster = TestCluster::new(1);
        let block = ExtendedBlock::new(BlockId(1), GenStamp::INITIAL, 0);
        let data = vec![0xAB; 40_000];
        let (acks, fnfa) = write_block(
            &cluster,
            &[cluster.info(0)],
            block,
            &data,
            WriteMode::Hdfs,
        );
        assert!(acks.iter().all(|a| a.all_success()));
        assert!(acks.iter().all(|a| a.statuses.len() == 1));
        assert!(fnfa.is_none(), "no FNFA in HDFS mode");
        // Cumulative frames cover consecutive seqs without gaps.
        let mut covered = 0u64;
        for a in &acks {
            assert_eq!(
                a.seq,
                covered + a.batch.max(1) - 1,
                "frame seq must be the highest of its batch"
            );
            covered += a.batch.max(1);
        }
        // Replica is finalized with the right contents.
        let store = cluster.datanodes[0].store();
        let (info, finalized) = store.replica_info(BlockId(1)).unwrap();
        assert!(finalized);
        assert_eq!(info.len, 40_000);
        assert_eq!(
            store.read(BlockId(1), GenStamp::INITIAL, 0, 40_000).unwrap().concat(),
            data
        );
    }

    #[test]
    fn three_node_pipeline_replicates_everywhere() {
        let cluster = TestCluster::new(3);
        let targets = [cluster.info(0), cluster.info(1), cluster.info(2)];
        let block = ExtendedBlock::new(BlockId(7), GenStamp::INITIAL, 0);
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let (acks, _) = write_block(&cluster, &targets, block, &data, WriteMode::Hdfs);
        // Each ack carries one status per pipeline member.
        assert!(acks.iter().all(|a| a.statuses.len() == 3 && a.all_success()));
        for dn in &cluster.datanodes {
            let (info, finalized) = dn.store().replica_info(BlockId(7)).unwrap();
            assert!(finalized, "replica not finalized on {}", dn.host());
            assert_eq!(info.len, data.len() as u64);
            assert_eq!(
                dn.store()
                    .read(BlockId(7), GenStamp::INITIAL, 0, data.len() as u64)
                    .unwrap()
                    .concat(),
                data
            );
        }
    }

    #[test]
    fn smarth_mode_emits_fnfa_from_first_node() {
        let cluster = TestCluster::new(3);
        let targets = [cluster.info(0), cluster.info(1), cluster.info(2)];
        let block = ExtendedBlock::new(BlockId(9), GenStamp::INITIAL, 0);
        let data = vec![7u8; 60_000];
        let (acks, fnfa) = write_block(&cluster, &targets, block, &data, WriteMode::Smarth);
        let fnfa = fnfa.expect("first node must emit FNFA in SMARTH mode");
        assert_eq!(fnfa.kind, AckKind::FirstNodeFinish);
        assert!(fnfa.all_success());
        assert!(acks.iter().all(|a| a.all_success()));
    }

    /// Writes one single-packet block down a 3-node pipeline whose
    /// namenode holds the `blockReceived` replies of `held` positions, and
    /// returns how long the client waited for the last ack.
    fn full_ack_wait_with_held_reports(held: &[u32]) -> Duration {
        let replies = NnReplies {
            held: held.to_vec(),
            refuse: false,
        };
        let cluster = TestCluster::with_namenode(3, DfsConfig::test_scale(), replies);
        let targets = [cluster.info(0), cluster.info(1), cluster.info(2)];
        let block = ExtendedBlock::new(BlockId(12), GenStamp::INITIAL, 0);
        let started = std::time::Instant::now();
        let (acks, _) = write_block(&cluster, &targets, block, &[5u8; 4096], WriteMode::Hdfs);
        let waited = started.elapsed();
        assert!(acks.iter().all(|a| a.statuses.len() == 3 && a.all_success()));
        waited
    }

    #[test]
    fn replicas_behind_the_head_ack_before_they_report() {
        let waited = full_ack_wait_with_held_reports(&[1, 2]);
        assert!(waited < Duration::from_millis(250), "last ack waited {waited:?} for reports");
    }

    #[test]
    fn the_head_reports_before_its_last_ack() {
        let waited = full_ack_wait_with_held_reports(&[0]);
        assert!(waited >= Duration::from_millis(400), "last ack left after {waited:?}");
    }

    /// Only the head sends an FNFA: one from a mirror fails the mirror
    /// upstream instead of acking the packet it names.
    #[test]
    fn an_fnfa_from_a_mirror_is_a_mirror_error() {
        let cluster = TestCluster::new(1);
        cluster.fabric.add_host("mirror", "rack-a", Bandwidth::unlimited());
        let listener = cluster.fabric.listen("mirror:50010").unwrap();
        std::thread::spawn(move || {
            let mut s = listener.accept().unwrap();
            let (_, pkt): (DataOp, Packet) = (recv_message(&mut s).unwrap(), recv_message(&mut s).unwrap());
            let statuses = vec![smarth_core::proto::AckStatus::Success];
            let fnfa = PipelineAck { kind: AckKind::FirstNodeFinish, seq: pkt.seq, batch: 1, statuses };
            send_message(&mut s, &fnfa).unwrap();
            std::thread::sleep(Duration::from_secs(2)); // no close to learn from
        });
        let id = smarth_core::ids::DatanodeId(9);
        let mirror = DatanodeInfo { id, host_name: "mirror".into(), rack: "rack-a".into(), addr: "mirror:50010".into() };
        let block = ExtendedBlock::new(BlockId(14), GenStamp::INITIAL, 0);
        let (acks, _) = write_block(&cluster, &[cluster.info(0), mirror], block, &[3; 4096], WriteMode::Hdfs);
        assert_eq!(acks[0].first_error(), Some(1), "{acks:?}");
    }

    #[test]
    fn refused_reports_are_counted_and_the_block_still_acks() {
        let replies = NnReplies {
            held: vec![],
            refuse: true,
        };
        let cluster = TestCluster::with_namenode(3, DfsConfig::test_scale(), replies);
        let targets = [cluster.info(0), cluster.info(1), cluster.info(2)];
        let block = ExtendedBlock::new(BlockId(13), GenStamp::INITIAL, 0);
        let (acks, _) = write_block(&cluster, &targets, block, &[6u8; 4096], WriteMode::Smarth);
        assert!(acks.iter().all(|a| a.all_success()));
        // Positions 1 and 2 may still be reporting when the ack is in.
        let failures = &cluster.obs.metrics().block_report_failures;
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while failures.get() < 3 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(failures.get(), 3, "one failed report per replica");
    }

    #[test]
    fn corrupt_packet_gets_error_ack() {
        let cluster = TestCluster::new(1);
        let mut stream = cluster.connect_first(&[cluster.info(0)]);
        let block = ExtendedBlock::new(BlockId(3), GenStamp::INITIAL, 0);
        send_message(
            &mut stream,
            &DataOp::WriteBlock(WriteBlockHeader {
                pipeline: PipelineId(1),
                client: ClientId(1),
                block,
                mode: WriteMode::Hdfs,
                targets: vec![],
                position: 0,
                client_buffer: 1 << 20,
                trace: TraceId::INVALID,
                span: SpanId::INVALID,
            }),
        )
        .unwrap();
        let mut pkts = make_packets(&cluster.config, &[0x55u8; 4096]);
        // Flip a payload bit without fixing the checksum.
        let mut corrupted = pkts.remove(0);
        let mut raw = corrupted.payload.to_vec();
        raw[100] ^= 0x01;
        corrupted.payload = bytes::Bytes::from(raw);
        send_message(&mut stream, &corrupted).unwrap();
        let ack: PipelineAck = recv_message(&mut stream).unwrap();
        assert_eq!(ack.first_error(), Some(0), "corruption must be reported");
        // The replica was not finalized.
        let (_, finalized) = cluster.datanodes[0]
            .store()
            .replica_info(BlockId(3))
            .unwrap();
        assert!(!finalized);
    }

    /// Sends one corrupted single-packet block down an `n`-node chain
    /// and returns the first ack the client gets back.
    fn write_corrupt_block(cluster: &TestCluster, n: usize, block_id: u64) -> PipelineAck {
        let targets: Vec<_> = (0..n).map(|i| cluster.info(i)).collect();
        let mut stream = cluster.connect_first(&targets);
        let block = ExtendedBlock::new(BlockId(block_id), GenStamp::INITIAL, 0);
        send_message(
            &mut stream,
            &DataOp::WriteBlock(WriteBlockHeader {
                pipeline: PipelineId(1),
                client: ClientId(1),
                block,
                mode: WriteMode::Hdfs,
                targets: targets[1..].to_vec(),
                position: 0,
                client_buffer: cluster.config.datanode_client_buffer.as_u64(),
                trace: TraceId::INVALID,
                span: SpanId::INVALID,
            }),
        )
        .unwrap();
        let mut pkts = make_packets(&cluster.config, &[0x55u8; 4096]);
        let mut corrupted = pkts.remove(0);
        let mut raw = corrupted.payload.to_vec();
        raw[100] ^= 0x01;
        corrupted.payload = bytes::Bytes::from(raw);
        send_message(&mut stream, &corrupted).unwrap();
        recv_message(&mut stream).unwrap()
    }

    #[test]
    fn tail_only_verification_rejects_corruption_at_last_hop() {
        // Default mode: intermediate hops skip verification and forward
        // as-is; the tail verifies and rejects, so the failure index in
        // the combined ack points at the LAST pipeline position.
        let cluster = TestCluster::new(2);
        let ack = write_corrupt_block(&cluster, 2, 21);
        assert_eq!(
            ack.first_error(),
            Some(1),
            "tail-only mode must report corruption at the tail, got {ack:?}"
        );
    }

    /// A stage of the write path that cannot get a thread costs the
    /// client one error ack naming this node — never a panic — and the
    /// node serves the next block.
    #[test]
    fn unstartable_write_stage_answers_an_error_ack_and_the_node_keeps_serving() {
        let cluster = TestCluster::new(2);
        let targets = [cluster.info(0), cluster.info(1)];
        let data = vec![0x3Cu8; 20_000];
        for (i, stage) in ["dn-forwarder", "dn-flusher", "dn-responder"].into_iter().enumerate() {
            cluster.datanodes[0].refuse_spawn(Some(stage));
            let block = ExtendedBlock::new(BlockId(30 + i as u64), GenStamp::INITIAL, 0);
            let mut stream = cluster.connect_first(&targets);
            let header = WriteBlockHeader {
                pipeline: PipelineId(1),
                client: ClientId(1),
                block,
                mode: WriteMode::Hdfs,
                targets: targets[1..].to_vec(),
                position: 0,
                client_buffer: cluster.config.datanode_client_buffer.as_u64(),
                trace: TraceId::INVALID,
                span: SpanId::INVALID,
            };
            send_message(&mut stream, &DataOp::WriteBlock(header)).unwrap();
            let ack: PipelineAck = recv_message(&mut stream).unwrap();
            assert_eq!(ack.first_error(), Some(0), "{stage}: {ack:?}");

            cluster.datanodes[0].refuse_spawn(None);
            let retry = ExtendedBlock::new(block.id, GenStamp(2), 0);
            let (acks, _) = write_block(&cluster, &targets, retry, &data, WriteMode::Hdfs);
            assert!(acks.iter().all(|a| a.all_success()), "{stage}: retry must succeed");
        }
    }

    /// A connection the accept loop cannot get a thread for is dropped;
    /// the loop itself keeps accepting.
    #[test]
    fn unstartable_xceiver_drops_that_connection_only() {
        let cluster = TestCluster::new(1);
        let probe = |cluster: &TestCluster| {
            let mut stream = cluster.connect_first(&[cluster.info(0)]);
            send_message(&mut stream, &DataOp::GetReplicaInfo { block: BlockId(1) })?;
            recv_message::<DataReply>(&mut stream)
        };
        cluster.datanodes[0].refuse_spawn(Some("dn-xceiver"));
        assert!(probe(&cluster).is_err(), "the refused connection is closed");
        cluster.datanodes[0].refuse_spawn(None);
        assert!(matches!(probe(&cluster), Ok(DataReply::ReplicaInfo { block: None, .. })));
    }

    #[test]
    fn read_block_roundtrip() {
        let cluster = TestCluster::new(1);
        let block = ExtendedBlock::new(BlockId(4), GenStamp::INITIAL, 0);
        let data: Vec<u8> = (0..50_000u32).map(|i| (i * 7 % 256) as u8).collect();
        write_block(&cluster, &[cluster.info(0)], block, &data, WriteMode::Hdfs);

        let mut stream = cluster.connect_first(&[cluster.info(0)]);
        let stored = ExtendedBlock::new(BlockId(4), GenStamp::INITIAL, data.len() as u64);
        send_message(
            &mut stream,
            &DataOp::ReadBlock {
                block: stored,
                offset: 1000,
                len: 30_000,
            },
        )
        .unwrap();
        match recv_message::<DataReply>(&mut stream).unwrap() {
            DataReply::ReadOk { len } => assert_eq!(len, 30_000),
            other => panic!("unexpected {other:?}"),
        }
        let csum = ChunkedChecksum::new(cluster.config.bytes_per_checksum);
        let mut got = Vec::new();
        loop {
            let pkt: Packet = recv_message(&mut stream).unwrap();
            assert!(csum.verify(&pkt.payload, &pkt.checksums));
            got.extend_from_slice(&pkt.payload);
            if pkt.last_in_block {
                break;
            }
        }
        assert_eq!(got, data[1000..31_000]);
    }

    #[test]
    fn read_of_unknown_block_errors() {
        let cluster = TestCluster::new(1);
        let mut stream = cluster.connect_first(&[cluster.info(0)]);
        send_message(
            &mut stream,
            &DataOp::ReadBlock {
                block: ExtendedBlock::new(BlockId(99), GenStamp::INITIAL, 10),
                offset: 0,
                len: 10,
            },
        )
        .unwrap();
        match recv_message::<DataReply>(&mut stream).unwrap() {
            DataReply::Error(_) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn recover_block_rpc() {
        let cluster = TestCluster::new(1);
        // Write a partial block directly into the store (simulating a
        // failed pipeline that stored a prefix).
        let store = cluster.datanodes[0].store();
        store.create_rbw(BlockId(5), GenStamp::INITIAL).unwrap();
        store
            .write_packet(BlockId(5), GenStamp::INITIAL, 0, &[1u8; 1000])
            .unwrap();

        let mut stream = cluster.connect_first(&[cluster.info(0)]);
        send_message(
            &mut stream,
            &DataOp::RecoverBlock {
                block: ExtendedBlock::new(BlockId(5), GenStamp::INITIAL, 1000),
                new_gen: GenStamp(2),
                new_len: 600,
            },
        )
        .unwrap();
        match recv_message::<DataReply>(&mut stream).unwrap() {
            DataReply::RecoverOk { block } => {
                assert_eq!(block.gen, GenStamp(2));
                assert_eq!(block.len, 600);
            }
            other => panic!("unexpected {other:?}"),
        }

        // Replica info reflects the recovery.
        let mut stream = cluster.connect_first(&[cluster.info(0)]);
        send_message(&mut stream, &DataOp::GetReplicaInfo { block: BlockId(5) }).unwrap();
        match recv_message::<DataReply>(&mut stream).unwrap() {
            DataReply::ReplicaInfo {
                block: Some(b),
                finalized,
            } => {
                assert_eq!(b.len, 600);
                assert_eq!(b.gen, GenStamp(2));
                assert!(!finalized);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn replica_info_for_unknown_block_is_none() {
        let cluster = TestCluster::new(1);
        let mut stream = cluster.connect_first(&[cluster.info(0)]);
        send_message(&mut stream, &DataOp::GetReplicaInfo { block: BlockId(42) }).unwrap();
        match recv_message::<DataReply>(&mut stream).unwrap() {
            DataReply::ReplicaInfo { block: None, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mid_pipeline_death_yields_error_ack() {
        let cluster = TestCluster::new(3);
        let targets = [cluster.info(0), cluster.info(1), cluster.info(2)];
        let mut stream = cluster.connect_first(&targets);
        let block = ExtendedBlock::new(BlockId(11), GenStamp::INITIAL, 0);
        send_message(
            &mut stream,
            &DataOp::WriteBlock(WriteBlockHeader {
                pipeline: PipelineId(1),
                client: ClientId(1),
                block,
                mode: WriteMode::Hdfs,
                targets: targets[1..].to_vec(),
                position: 0,
                client_buffer: cluster.config.datanode_client_buffer.as_u64(),
                trace: TraceId::INVALID,
                span: SpanId::INVALID,
            }),
        )
        .unwrap();
        let pkts = make_packets(&cluster.config, &vec![3u8; 200_000]);
        // Send the first packet, then kill the middle node.
        send_message(&mut stream, &pkts[0]).unwrap();
        let first: PipelineAck = recv_message(&mut stream).unwrap();
        assert!(first.all_success());
        cluster.fabric.kill_host("dn1");
        // Keep sending; eventually an error ack (or a broken stream)
        // must surface.
        let mut saw_failure = false;
        for p in &pkts[1..] {
            if send_message(&mut stream, p).is_err() {
                saw_failure = true;
                break;
            }
            match recv_message::<PipelineAck>(&mut stream) {
                Ok(ack) if ack.first_error().is_some() => saw_failure = true,
                Ok(_) => {}
                Err(_) => saw_failure = true,
            }
            if saw_failure {
                break;
            }
        }
        assert!(saw_failure, "death of dn1 must surface to the writer");
    }
}
