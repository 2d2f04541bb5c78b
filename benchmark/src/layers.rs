//! The layer pass: calls into each layer's public functions in
//! isolation, at the workload's operating point (its packet, block and
//! file sizes, cluster width and link latency). Each number is a
//! layer's ceiling with nothing else contending; `README.md` says which
//! end-to-end metric each one should move, and on which workload.

use crate::gen::Gen;
use crate::metrics::Values;
use crate::stats::{median, percentile};
use crate::workload::{OperatingPoint, MIB};
use bytes::Bytes;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use smarth_core::checksum::ChunkedChecksum;
use smarth_core::config::{DfsConfig, WriteMode};
use smarth_core::ids::{
    BlockId, ClientId, DatanodeId, ExtendedBlock, FileId, GenStamp, PipelineId, SpanId, TraceId,
};
use smarth_core::localopt::local_optimize;
use smarth_core::obs::{Obs, ObsEvent, RingBufferSink};
use smarth_core::placement::{default_placement, smarth_placement, ClientLocality};
use smarth_core::proto::{
    AckKind, ClientRequest, ClientResponse, DataOp, DataReply, DatanodeInfo, DatanodeRequest,
    DatanodeResponse, DatanodeTelemetry, LocatedBlock, Packet, PipelineAck, SpeedRecord,
    WriteBlockHeader,
};
use smarth_core::speed::{ClientSpeedTracker, NamenodeSpeedRegistry};
use smarth_core::topology::{NetworkTopology, TopologyNode};
use smarth_core::units::{Bandwidth, ByteSize, SimInstant};
use smarth_core::wire::{recv_message, send_message, FrameIo, Wire};
use smarth_datanode::{BlockStore, DataNode};
use smarth_fabric::{ByteChannel, Fabric, FabricConfig, TokenBucket};
use smarth_namenode::{NameNode, NameNodeState};
use smarth_sim::RateServer;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

const REPS: usize = 7;
const FABRIC_CHUNK: usize = 8 * 1024;
/// The shaped workloads' NIC rate; the finite-bucket rows use it on
/// every workload so they compare across workloads.
const LINE_RATE_MBPS: f64 = 376.0;

/// Median nanoseconds per call of `op`: sizes a batch to about 8 ms,
/// then times `REPS` batches.
fn ns_per_op(mut op: impl FnMut()) -> f64 {
    let mut n = 1u64;
    let per_op = loop {
        let t = Instant::now();
        for _ in 0..n {
            op();
        }
        let ns = t.elapsed().as_nanos() as f64;
        if ns >= 2e6 {
            break ns / n as f64;
        }
        n *= 2;
    };
    let n = ((8e6 / per_op) as u64).max(1);
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..n {
                op();
            }
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&samples)
}

fn mibps(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / MIB / (ns / 1e9)
}

fn infos(n: usize) -> Vec<DatanodeInfo> {
    (0..n as u32)
        .map(|i| DatanodeInfo {
            id: DatanodeId(i),
            host_name: format!("dn{i}"),
            rack: if i % 2 == 0 { "rack-a" } else { "rack-b" }.into(),
            addr: format!("dn{i}:50010"),
        })
        .collect()
}

fn core(op: &OperatingPoint, v: &mut Values) {
    let c = &op.config;
    let packet = c.packet_size.as_u64() as usize;
    let payload = Bytes::from(Gen::new(1, 1).bytes(packet));
    let csum = ChunkedChecksum::new(c.bytes_per_checksum);
    let sums = csum.compute(&payload);
    v.set(
        "core.checksum.compute_mibps",
        mibps(
            packet,
            ns_per_op(|| drop(black_box(csum.compute(black_box(&payload))))),
        ),
    );
    v.set(
        "core.checksum.verify_mibps",
        mibps(
            packet,
            ns_per_op(|| {
                black_box(csum.verify(black_box(&payload), &sums));
            }),
        ),
    );
    let pkt = Packet {
        seq: 7,
        offset_in_block: 7 * packet as u64,
        last_in_block: false,
        checksums: sums,
        payload,
    };
    v.set(
        "core.wire.packet_encode_mibps",
        mibps(
            packet,
            ns_per_op(|| drop(black_box(black_box(&pkt).to_bytes()))),
        ),
    );
    let encoded = pkt.to_bytes();
    v.set(
        "core.wire.packet_decode_mibps",
        mibps(
            packet,
            ns_per_op(|| drop(black_box(Packet::from_bytes(encoded.clone())))),
        ),
    );

    // One addBlock exchange as the client and namenode code it: the
    // idempotency envelope out, the located block back.
    let block = ExtendedBlock::new(BlockId(77), GenStamp(3), c.block_size.as_u64());
    let request = ClientRequest::Idempotent {
        client: ClientId(1),
        request_id: 99,
        inner: Box::new(ClientRequest::AddBlock {
            client: ClientId(1),
            file_id: FileId(12),
            previous: Some(block),
            excluded: Vec::new(),
        }),
    };
    let response = ClientResponse::BlockAllocated(LocatedBlock {
        block,
        targets: infos(c.replication),
        trace: TraceId(5),
        span: SpanId(6),
    });
    v.set(
        "core.wire.rpc_codec_ns",
        ns_per_op(|| {
            black_box(ClientRequest::from_bytes(black_box(&request).to_bytes())).ok();
            black_box(ClientResponse::from_bytes(black_box(&response).to_bytes())).ok();
        }),
    );

    let mut topo = NetworkTopology::new();
    for d in infos(op.datanodes) {
        topo.add(TopologyNode {
            id: d.id,
            rack: d.rack,
            host_name: d.host_name,
        });
    }
    let locality = ClientLocality {
        client: ClientId(1),
        rack: "rack-a".into(),
        local_datanode: None,
    };
    let records: Vec<SpeedRecord> = (0..op.datanodes as u32)
        .map(|i| SpeedRecord {
            datanode: DatanodeId(i),
            bytes_per_sec: 1e6 + f64::from(i),
            samples: 3,
        })
        .collect();
    let mut registry = NamenodeSpeedRegistry::new();
    registry.ingest(ClientId(1), &records);
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    v.set(
        "core.placement.smarth_ns",
        ns_per_op(|| {
            black_box(smarth_placement(
                &topo,
                &registry,
                &mut rng,
                &locality,
                c.replication,
                op.datanodes,
                &[],
            ))
            .ok();
        }),
    );
    v.set(
        "core.placement.default_ns",
        ns_per_op(|| {
            black_box(default_placement(
                &topo,
                &mut rng,
                &locality,
                c.replication,
                &[],
            ))
            .ok();
        }),
    );
    let mut tracker = ClientSpeedTracker::new(c.speed_ewma_alpha);
    for r in &records {
        tracker.observe_rate(r.datanode, r.bytes_per_sec);
    }
    let mut targets = infos(c.replication);
    v.set(
        "core.localopt.sort_ns",
        ns_per_op(|| {
            black_box(local_optimize(
                &mut targets,
                &tracker,
                c.local_opt_threshold,
                &mut rng,
            ));
        }),
    );
    let mut i = 0u32;
    v.set(
        "core.speed.observe_ns",
        ns_per_op(|| {
            tracker.observe_rate(DatanodeId(i % 64), f64::from(i) * 10.0 + 1.0);
            i = i.wrapping_add(1);
        }),
    );

    let event = || ObsEvent::PacketBatchAcked {
        block: BlockId(1),
        acked_seq: 9,
        packets: 4,
    };
    let null = Obs::disabled();
    v.set("core.obs.emit_null_ns", ns_per_op(|| null.emit(event())));
    let ring = Obs::new(RingBufferSink::new(4096));
    v.set("core.obs.emit_ring_ns", ns_per_op(|| ring.emit(event())));
}

/// Achieved MiB/s of `threads` callers draining one line-rate bucket in
/// fabric-chunk acquires for about 150 ms.
fn bucket_rate(threads: usize) -> f64 {
    let rate = Bandwidth::mbps(LINE_RATE_MBPS);
    let bucket = TokenBucket::new(rate);
    // The bucket starts with its 20 ms burst; spend it first.
    let burst = (rate.as_bytes_per_sec() * 0.02) as usize;
    for _ in 0..burst.div_ceil(FABRIC_CHUNK) {
        bucket.acquire(FABRIC_CHUNK).expect("open bucket");
    }
    let chunks_each = (rate.as_bytes_per_sec() * 0.15) as usize / FABRIC_CHUNK / threads;
    let barrier = Barrier::new(threads);
    let slowest = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    let t = Instant::now();
                    for _ in 0..chunks_each {
                        bucket.acquire(FABRIC_CHUNK).expect("open bucket");
                    }
                    t.elapsed().as_secs_f64()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("bucket thread panicked"))
            .fold(0.0, f64::max)
    });
    (chunks_each * threads * FABRIC_CHUNK) as f64 / MIB / slowest
}

fn null_fabric(config: &DfsConfig, latency: Duration, hosts: &[&str]) -> Fabric {
    let fabric = Fabric::new(FabricConfig {
        latency,
        socket_buffer: config.socket_buffer.as_u64() as usize,
        chunk_size: FABRIC_CHUNK,
    });
    for h in hosts {
        fabric.add_host(h, "rack-a", Bandwidth::unlimited());
    }
    fabric
}

fn fabric(op: &OperatingPoint, v: &mut Values) {
    let c = &op.config;
    let packet = c.packet_size.as_u64() as usize;
    let unlimited = TokenBucket::unlimited();
    v.set(
        "fabric.bucket.acquire_unlimited_ns",
        ns_per_op(|| {
            black_box(unlimited.acquire(black_box(FABRIC_CHUNK))).ok();
        }),
    );
    // Fast enough that no acquire ever sleeps.
    let finite = TokenBucket::new(Bandwidth::mib_per_sec(1e7));
    v.set(
        "fabric.bucket.acquire_finite_ns",
        ns_per_op(|| {
            black_box(finite.acquire(black_box(FABRIC_CHUNK))).ok();
        }),
    );
    let nominal = Bandwidth::mbps(LINE_RATE_MBPS).as_bytes_per_sec() / MIB;
    let one: Vec<f64> = (0..3).map(|_| bucket_rate(1)).collect();
    v.set(
        "fabric.bucket.rate_error_pct",
        (median(&one) / nominal - 1.0).abs() * 100.0,
    );
    let two: Vec<f64> = (0..3).map(|_| bucket_rate(2)).collect();
    v.set("fabric.bucket.shared_2t_mibps", median(&two));

    // One hop: a producer thread pushes fabric chunks, this thread
    // reads whole packets.
    let total = (16usize << 20).max(4 * packet) / packet * packet;
    let chunk = Bytes::from(vec![0x5Au8; FABRIC_CHUNK]);
    let channel_rates: Vec<f64> = (0..3)
        .map(|_| {
            let ch = ByteChannel::new(c.socket_buffer.as_u64() as usize, Duration::ZERO);
            let mut buf = vec![0u8; packet];
            let t = Instant::now();
            std::thread::scope(|s| {
                s.spawn(|| {
                    for _ in 0..total / FABRIC_CHUNK {
                        ch.push(chunk.clone()).expect("open channel");
                    }
                });
                for _ in 0..total / packet {
                    ch.read_exact(&mut buf).expect("open channel");
                }
            });
            total as f64 / MIB / t.elapsed().as_secs_f64()
        })
        .collect();
    v.set("fabric.channel.hop_mibps", median(&channel_rates));

    let net = null_fabric(c, Duration::ZERO, &["a", "b"]);
    let listener = net.listen("b:1").expect("listen");
    let payload = vec![0xA5u8; packet];
    let stream_rates: Vec<f64> = (0..3)
        .map(|_| {
            let mut tx = net.connect("a", "b:1").expect("connect");
            let mut rx = listener.accept().expect("accept");
            let mut buf = vec![0u8; packet];
            let t = Instant::now();
            std::thread::scope(|s| {
                s.spawn(|| {
                    for _ in 0..total / packet {
                        tx.write_all(&payload).expect("open stream");
                    }
                });
                for _ in 0..total / packet {
                    rx.read_exact(&mut buf).expect("open stream");
                }
            });
            total as f64 / MIB / t.elapsed().as_secs_f64()
        })
        .collect();
    v.set("fabric.stream.hop_mibps", median(&stream_rates));

    let connects: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            let a = net.connect("a", "b:1").expect("connect");
            let b = listener.accept().expect("accept");
            let us = t.elapsed().as_nanos() as f64 / 1e3;
            drop((a, b));
            us
        })
        .collect();
    v.set("fabric.stream.connect_us", median(&connects));
    net.shutdown();

    // Round trip of a 64-byte frame over the workload's link latency.
    let net = null_fabric(c, op.link_latency, &["a", "b"]);
    let listener = net.listen("b:1").expect("listen");
    let mut ping = net.connect("a", "b:1").expect("connect");
    let mut pong = listener.accept().expect("accept");
    const TRIPS: usize = 200;
    let rtts: Vec<f64> = std::thread::scope(|s| {
        s.spawn(|| {
            let mut buf = [0u8; 64];
            for _ in 0..TRIPS {
                pong.read_exact(&mut buf).expect("open stream");
                pong.write_all(&buf).expect("open stream");
            }
        });
        let mut buf = [7u8; 64];
        (0..TRIPS)
            .map(|_| {
                let t = Instant::now();
                ping.write_all(&buf).expect("open stream");
                ping.read_exact(&mut buf).expect("open stream");
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect()
    });
    v.set("fabric.stream.rtt_p50_us", median(&rtts));
    v.set("fabric.stream.rtt_p99_us", percentile(&rtts, 0.99));
    net.shutdown();
}

/// The packets of one block of `data`, checksummed as a client would.
fn packets_of(config: &DfsConfig, data: &Bytes) -> Vec<Packet> {
    let csum = ChunkedChecksum::new(config.bytes_per_checksum);
    let size = config.packet_size.as_u64() as usize;
    let count = data.len().div_ceil(size);
    (0..count)
        .map(|i| {
            let part = data.slice(i * size..data.len().min((i + 1) * size));
            Packet {
                seq: i as u64,
                offset_in_block: (i * size) as u64,
                last_in_block: i + 1 == count,
                checksums: csum.compute(&part),
                payload: part,
            }
        })
        .collect()
}

fn store(op: &OperatingPoint, v: &mut Values) {
    let c = &op.config;
    let block_bytes = c.block_size.as_u64() as usize;
    let data = Bytes::from(Gen::new(1, 2).bytes(block_bytes));
    let packets = packets_of(c, &data);
    let gen = GenStamp::INITIAL;
    let st = BlockStore::new();
    let mut next = 0u64;
    let write_ns = ns_per_op(|| {
        next += 1;
        let id = BlockId(next);
        st.create_rbw(id, gen).expect("fresh replica");
        for p in &packets {
            st.write_packet(id, gen, p.offset_in_block, &p.payload)
                .expect("in-order write");
        }
        st.finalize(id, gen, block_bytes as u64).expect("finalize");
        st.remove(id);
    });
    v.set("datanode.store.write_mibps", mibps(block_bytes, write_ns));

    let id = BlockId(0);
    st.create_rbw(id, gen).expect("fresh replica");
    st.write_packet(id, gen, 0, &data).expect("write");
    st.finalize(id, gen, block_bytes as u64).expect("finalize");
    let read_ns = ns_per_op(|| drop(black_box(st.read(id, gen, 0, block_bytes as u64))));
    v.set("datanode.store.read_mibps", mibps(block_bytes, read_ns));

    // 64 one-packet replicas: what a heartbeat's `used` sum walks.
    let small = BlockStore::new();
    let first = &packets[0].payload;
    let finalize_us: Vec<f64> = (0..2000u64)
        .map(|i| {
            let id = BlockId(i);
            small.create_rbw(id, gen).expect("fresh replica");
            small.write_packet(id, gen, 0, first).expect("write");
            let t = Instant::now();
            small
                .finalize(id, gen, first.len() as u64)
                .expect("finalize");
            let us = t.elapsed().as_nanos() as f64 / 1e3;
            if i >= 64 {
                small.remove(id);
            }
            us
        })
        .collect();
    v.set("datanode.store.finalize_us", median(&finalize_us));
    v.set(
        "datanode.store.used_bytes_us",
        ns_per_op(|| {
            black_box(small.used_bytes());
        }) / 1e3,
    );
}

/// Datanodes behind a namenode on a fabric with no bucket and no
/// latency: the data-transfer server with nothing but itself to wait on.
struct NullCluster {
    fabric: Fabric,
    namenode: NameNode,
    datanodes: Vec<DataNode>,
    config: DfsConfig,
    next_block: u64,
}

impl NullCluster {
    fn start(op: &OperatingPoint) -> Self {
        let mut config = op.config.clone();
        config.disk_bandwidth = Bandwidth::unlimited();
        let width = config.replication;
        let names: Vec<String> = (0..width).map(|i| format!("dn{i}")).collect();
        let mut hosts: Vec<&str> = vec!["nn", "client"];
        hosts.extend(names.iter().map(String::as_str));
        let fabric = null_fabric(&config, Duration::ZERO, &hosts);
        let namenode = NameNode::start(&fabric, "nn", config.clone(), 1).expect("namenode");
        let datanodes = names
            .iter()
            .map(|h| {
                DataNode::start(
                    &fabric,
                    h,
                    "rack-a",
                    &namenode.datanode_addr(),
                    config.clone(),
                )
                .expect("datanode")
            })
            .collect();
        NullCluster {
            fabric,
            namenode,
            datanodes,
            config,
            next_block: 0,
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

    /// Streams one block through a pipeline `width` datanodes long and
    /// waits for every packet's ack; returns the block and the seconds.
    fn write_block(&mut self, width: usize, packets: &[Packet]) -> (ExtendedBlock, f64) {
        self.next_block += 1;
        let block = ExtendedBlock::new(BlockId(self.next_block), GenStamp::INITIAL, 0);
        let header = WriteBlockHeader {
            pipeline: PipelineId(self.next_block),
            client: ClientId(1),
            block,
            mode: WriteMode::Hdfs,
            targets: (1..width).map(|i| self.info(i)).collect(),
            position: 0,
            client_buffer: self.config.datanode_client_buffer.as_u64(),
            trace: TraceId::INVALID,
            span: SpanId::INVALID,
        };
        let t = Instant::now();
        let stream = self
            .fabric
            .connect("client", &self.info(0).addr)
            .expect("connect");
        let (mut acks, mut out) = stream.split();
        let clean = std::thread::scope(|s| {
            let acked = s.spawn(|| {
                let mut covered = 0u64;
                let mut clean = true;
                while covered < packets.len() as u64 {
                    let ack: PipelineAck = recv_message(&mut acks).expect("ack stream");
                    clean &= ack.all_success();
                    if ack.kind == AckKind::Packet {
                        covered += ack.batch.max(1);
                    }
                }
                clean
            });
            send_message(&mut out, &DataOp::WriteBlock(header)).expect("header");
            for p in packets {
                send_message(&mut out, p).expect("packet");
            }
            acked.join().expect("ack thread panicked")
        });
        let secs = t.elapsed().as_secs_f64();
        assert!(clean, "null-network pipeline reported an error ack");
        let len = packets.iter().map(Packet::len).sum::<usize>() as u64;
        (ExtendedBlock::new(block.id, block.gen, len), secs)
    }

    fn read_block(&self, block: ExtendedBlock) -> (usize, f64) {
        let t = Instant::now();
        let mut stream = self
            .fabric
            .connect("client", &self.info(0).addr)
            .expect("connect");
        let op = DataOp::ReadBlock {
            block,
            offset: 0,
            len: block.len,
        };
        send_message(&mut stream, &op).expect("read request");
        let reply: DataReply = recv_message(&mut stream).expect("read reply");
        assert!(
            matches!(reply, DataReply::ReadOk { len } if len == block.len),
            "{reply:?}"
        );
        let mut got = 0usize;
        while got < block.len as usize {
            let p: Packet = recv_message(&mut stream).expect("read packet");
            got += p.len();
        }
        (got, t.elapsed().as_secs_f64())
    }

    fn drop_replicas(&self, block: BlockId) {
        for dn in &self.datanodes {
            dn.store().remove(block);
        }
    }

    fn shutdown(self) {
        self.fabric.shutdown();
        self.namenode.shutdown();
        for dn in self.datanodes {
            dn.shutdown();
        }
    }
}

/// Returns the cluster it ran on, still up.
fn server(op: &OperatingPoint, v: &mut Values) -> NullCluster {
    let mut cluster = NullCluster::start(op);
    // At most 8 MiB of a block: a paper-scale block is 64 MiB, and the
    // per-byte path is the same for all of it.
    let block_bytes = (op.config.block_size.as_u64() as usize).min(8 << 20);
    let data = Bytes::from(Gen::new(1, 3).bytes(block_bytes));
    let packets = packets_of(&op.config, &data);
    // At least 8 MiB per sample, so a test-scale block is not all
    // connection set-up.
    let blocks = (8usize << 20).div_ceil(block_bytes);
    let rate = |cluster: &mut NullCluster, width: usize| -> f64 {
        let samples: Vec<f64> = (0..3)
            .map(|_| {
                let mut secs = 0.0;
                for _ in 0..blocks {
                    let (block, s) = cluster.write_block(width, &packets);
                    secs += s;
                    cluster.drop_replicas(block.id);
                }
                (blocks * block_bytes) as f64 / MIB / secs
            })
            .collect();
        median(&samples)
    };
    let r1 = rate(&mut cluster, 1);
    let r3 = rate(&mut cluster, op.config.replication);
    v.set("datanode.server.r1_write_mibps", r1);
    v.set("datanode.server.r3_over_r1", r3 / r1);

    let (block, _) = cluster.write_block(1, &packets);
    let reads: Vec<f64> = (0..3)
        .map(|_| {
            let mut secs = 0.0;
            for _ in 0..blocks {
                let (got, s) = cluster.read_block(block);
                assert_eq!(got, block_bytes);
                secs += s;
            }
            (blocks * block_bytes) as f64 / MIB / secs
        })
        .collect();
    v.set("datanode.server.r1_read_mibps", median(&reads));
    cluster
}

/// A namenode state with `datanodes` registered datanodes and `clients`
/// registered clients, driven with no network in between.
fn namenode_state(
    config: &DfsConfig,
    datanodes: usize,
    clients: usize,
) -> (NameNodeState, Vec<ClientId>) {
    let st = NameNodeState::new(config.clone(), 7);
    for d in infos(datanodes) {
        let resp = st.handle_datanode_request(DatanodeRequest::Register {
            host_name: d.host_name,
            rack: d.rack,
            data_addr: d.addr,
            capacity: 1 << 40,
        });
        assert!(
            matches!(resp, DatanodeResponse::Registered { .. }),
            "{resp:?}"
        );
    }
    let ids = (0..clients)
        .map(|i| {
            match st.handle_client_request(ClientRequest::Register {
                host_name: format!("client{i}"),
                rack: "rack-a".into(),
            }) {
                ClientResponse::Registered { client } => client,
                other => panic!("register: {other:?}"),
            }
        })
        .collect();
    (st, ids)
}

/// Mutations go in the idempotency envelope, as the client sends them.
struct NnCaller<'a> {
    st: &'a NameNodeState,
    client: ClientId,
    next_request: u64,
}

impl NnCaller<'_> {
    fn mutate(&mut self, inner: ClientRequest) -> ClientResponse {
        self.next_request += 1;
        self.st.handle_client_request(ClientRequest::Idempotent {
            client: self.client,
            request_id: self.next_request,
            inner: Box::new(inner),
        })
    }

    fn create(&mut self, path: &str, config: &DfsConfig) -> FileId {
        match self.mutate(ClientRequest::Create {
            client: self.client,
            path: path.to_string(),
            replication: config.replication as u32,
            block_size: config.block_size.as_u64(),
            overwrite: false,
            mode: WriteMode::Smarth,
        }) {
            ClientResponse::Created { file_id } => file_id,
            other => panic!("create {path}: {other:?}"),
        }
    }

    fn add_block(&mut self, file_id: FileId) -> LocatedBlock {
        match self.mutate(ClientRequest::AddBlock {
            client: self.client,
            file_id,
            previous: None,
            excluded: Vec::new(),
        }) {
            ClientResponse::BlockAllocated(lb) => lb,
            other => panic!("addBlock: {other:?}"),
        }
    }

    /// Datanode reports, then `complete`.
    fn seal(&mut self, file_id: FileId, lb: &LocatedBlock, len: u64) {
        let done = ExtendedBlock::new(lb.block.id, lb.block.gen, len);
        for t in &lb.targets {
            let resp = self
                .st
                .handle_datanode_request(DatanodeRequest::BlockReceived {
                    id: t.id,
                    block: done,
                });
            assert!(
                matches!(resp, DatanodeResponse::BlockReceivedAck),
                "{resp:?}"
            );
        }
        let resp = self.mutate(ClientRequest::Complete {
            client: self.client,
            file_id,
            last: Some(done),
        });
        assert!(matches!(resp, ClientResponse::Completed), "{resp:?}");
    }

    fn delete(&mut self, path: &str) {
        let resp = self.mutate(ClientRequest::Delete {
            path: path.to_string(),
        });
        assert!(
            matches!(resp, ClientResponse::Deleted { existed: true }),
            "{resp:?}"
        );
    }

    /// The namenode side of writing and removing one small file: five
    /// client RPCs (create, addBlock, complete, getFileInfo, delete).
    fn file_cycle(&mut self, path: &str, config: &DfsConfig) {
        let file_id = self.create(path, config);
        let lb = self.add_block(file_id);
        self.seal(file_id, &lb, 4096);
        let info = self.st.handle_client_request(ClientRequest::GetFileInfo {
            path: path.to_string(),
        });
        assert!(
            matches!(info, ClientResponse::FileInfo(Some(_))),
            "{info:?}"
        );
        self.delete(path);
    }
}

const CYCLE_RPCS: f64 = 5.0;

/// Client RPCs per second with one caller per entry of `volumes`, each
/// cycling files in its volume until a common deadline.
fn cycle_rate(
    st: &NameNodeState,
    config: &DfsConfig,
    clients: &[ClientId],
    volumes: &[&str],
) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let barrier = Barrier::new(volumes.len());
            let stop = AtomicBool::new(false);
            let t = Instant::now();
            let cycles: u64 = std::thread::scope(|s| {
                let workers: Vec<_> = volumes
                    .iter()
                    .zip(clients)
                    .enumerate()
                    .map(|(t, (volume, &client))| {
                        let (barrier, stop) = (&barrier, &stop);
                        s.spawn(move || {
                            let mut caller = NnCaller {
                                st,
                                client,
                                next_request: 0,
                            };
                            barrier.wait();
                            let deadline = Instant::now() + Duration::from_millis(40);
                            let mut n = 0u64;
                            while !stop.load(Ordering::Relaxed) {
                                caller.file_cycle(&format!("{volume}/t{t}-f{n}"), config);
                                n += 1;
                                if Instant::now() >= deadline {
                                    // Everyone stops with the first to
                                    // finish, so the rate is of full
                                    // contention only.
                                    stop.store(true, Ordering::Relaxed);
                                }
                            }
                            n
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("namenode caller panicked"))
                    .sum()
            });
            cycles as f64 * CYCLE_RPCS / t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

fn namenode(op: &OperatingPoint, v: &mut Values) {
    let c = &op.config;
    let (st, clients) = namenode_state(c, op.datanodes, 2);
    // Two volumes on different shards, so the 2-thread row measures the
    // sharded plane and not a lucky or unlucky hash.
    let other = (0..)
        .map(|i| format!("/vol{i}"))
        .find(|p| st.shard_of(p) != st.shard_of("/vol"))
        .expect("more than one shard");
    v.set(
        "namenode.server.file_cycle_ops_per_s",
        cycle_rate(&st, c, &clients[..1], &["/vol"]),
    );
    v.set(
        "namenode.server.file_cycle_2t_ops_per_s",
        cycle_rate(&st, c, &clients, &["/vol", &other]),
    );
    v.set(
        "namenode.server.same_shard_2t_ops_per_s",
        cycle_rate(&st, c, &clients, &["/vol", "/vol"]),
    );
    let mut one_shard = c.clone();
    one_shard.namenode_shards = 1;
    let (st1, clients1) = namenode_state(&one_shard, op.datanodes, 2);
    v.set(
        "namenode.server.shards1_2t_ops_per_s",
        cycle_rate(&st1, &one_shard, &clients1, &["/vol", &other]),
    );

    let mut caller = NnCaller {
        st: &st,
        client: clients[0],
        next_request: 1 << 32,
    };
    let add_block_us: Vec<f64> = (0..2000)
        .map(|i| {
            let path = format!("/vol/ab{i}");
            let file_id = caller.create(&path, c);
            let t = Instant::now();
            let lb = caller.add_block(file_id);
            let us = t.elapsed().as_nanos() as f64 / 1e3;
            caller.seal(file_id, &lb, 4096);
            caller.delete(&path);
            us
        })
        .collect();
    v.set("namenode.server.add_block_p50_us", median(&add_block_us));
    v.set(
        "namenode.server.add_block_p99_us",
        percentile(&add_block_us, 0.99),
    );

    for i in 0..1000 {
        let path = format!("/big/f{i:04}");
        let file_id = caller.create(&path, c);
        let lb = caller.add_block(file_id);
        caller.seal(file_id, &lb, 4096);
    }
    let stat = || ClientRequest::GetFileInfo {
        path: "/big/f0500".into(),
    };
    v.set(
        "namenode.server.get_file_info_ns",
        ns_per_op(|| drop(black_box(st.handle_client_request(stat())))),
    );
    let list = || ClientRequest::List {
        path: "/big".into(),
    };
    assert!(
        matches!(st.handle_client_request(list()), ClientResponse::Listing { entries } if entries.len() == 1000)
    );
    v.set(
        "namenode.server.list_1k_us",
        ns_per_op(|| drop(black_box(st.handle_client_request(list())))) / 1e3,
    );
    let beat = || DatanodeRequest::Heartbeat {
        id: DatanodeId(0),
        used: 1 << 20,
        active_transfers: 1,
        telemetry: DatanodeTelemetry::default(),
    };
    assert!(matches!(
        st.handle_datanode_request(beat()),
        DatanodeResponse::HeartbeatAck
    ));
    v.set(
        "namenode.server.heartbeat_ns",
        ns_per_op(|| drop(black_box(st.handle_datanode_request(beat())))),
    );
}

pub fn run(op: &OperatingPoint) -> Values {
    let mut v = Values::default();
    core(op, &mut v);
    fabric(op, &mut v);
    store(op, &mut v);
    let cluster = server(op, &mut v);
    // Joining a datanode's threads is seconds of sleeping (its heartbeat
    // loop backs off once the fabric is gone) and next to no CPU, so it
    // runs beside the namenode rows.
    let retiring = std::thread::spawn(move || cluster.shutdown());
    namenode(op, &mut v);
    retiring.join().expect("shutdown thread panicked");
    let mut rs = RateServer::new(Bandwidth::mbps(100.0));
    v.set(
        "sim.server.reserve_ns",
        ns_per_op(|| {
            black_box(rs.reserve(SimInstant::ZERO, ByteSize::kib(64)));
        }),
    );
    v
}
