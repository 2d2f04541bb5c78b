//! Hostile concurrency battery for the sharded namenode: disjoint
//! volumes hammered from many threads while cross-shard renames and
//! full listings run through the middle, a serially-replayed oracle
//! over the final namespace, equal block decisions across shard counts,
//! and the slow-tenant throughput proof that sharding actually buys
//! isolation (a pinned shard stalls 1/N of the namespace, not all of
//! it).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use smarth::cluster::{await_replicas, random_data, MiniCluster};
use smarth::core::ids::{ClientId, FileId};
use smarth::core::obs::{Obs, RingBufferSink};
use smarth::core::proto::{
    ClientRequest, ClientResponse, DatanodeRequest, DatanodeResponse,
};
use smarth::core::trace::TraceAssembler;
use smarth::core::units::Bandwidth;
use smarth::core::{ClusterSpec, DfsConfig, InstanceType, SimDuration, WriteMode};
use smarth::namenode::NameNodeState;

fn state_with_shards(shards: usize, datanodes: u32) -> Arc<NameNodeState> {
    let mut config = DfsConfig::test_scale();
    config.namenode_shards = shards;
    let st = Arc::new(NameNodeState::new(config, 7));
    for i in 0..datanodes {
        let rack = if i % 2 == 0 { "rack-a" } else { "rack-b" };
        match st.handle_datanode_request(DatanodeRequest::Register {
            host_name: format!("dn{i}"),
            rack: rack.into(),
            data_addr: format!("dn{i}:50010"),
            capacity: 1 << 30,
        }) {
            DatanodeResponse::Registered { id: _ } => {}
            other => panic!("unexpected {other:?}"),
        }
    }
    st
}

fn register_client(st: &NameNodeState) -> ClientId {
    match st.handle_client_request(ClientRequest::Register {
        host_name: "client".into(),
        rack: "rack-a".into(),
    }) {
        ClientResponse::Registered { client } => client,
        other => panic!("unexpected {other:?}"),
    }
}

/// Full create→addBlock→complete sequence; returns the file id.
fn write_file(st: &NameNodeState, client: ClientId, path: &str, len: u64) -> FileId {
    let file = match st.handle_client_request(ClientRequest::Create {
        client,
        path: path.into(),
        replication: 3,
        block_size: 1 << 20,
        overwrite: false,
        mode: WriteMode::Hdfs,
    }) {
        ClientResponse::Created { file_id } => file_id,
        other => panic!("create {path}: {other:?}"),
    };
    let lb = match st.handle_client_request(ClientRequest::AddBlock {
        client,
        file_id: file,
        previous: None,
        excluded: vec![],
    }) {
        ClientResponse::BlockAllocated(lb) => lb,
        other => panic!("addBlock {path}: {other:?}"),
    };
    let done = smarth::core::ids::ExtendedBlock::new(lb.block.id, lb.block.gen, len);
    for t in &lb.targets {
        match st.handle_datanode_request(DatanodeRequest::BlockReceived {
            id: t.id,
            block: done,
        }) {
            DatanodeResponse::BlockReceivedAck => {}
            other => panic!("blockReceived {path}: {other:?}"),
        }
    }
    match st.handle_client_request(ClientRequest::Complete {
        client,
        file_id: file,
        last: Some(done),
    }) {
        ClientResponse::Completed => file,
        other => panic!("complete {path}: {other:?}"),
    }
}

/// What one worker believes its volume looks like when it stops.
#[derive(Default)]
struct VolumeOracle {
    /// path → expected length of a complete, surviving file.
    live: std::collections::BTreeMap<String, u64>,
    /// paths created then deleted — must NOT resolve afterwards.
    dead: Vec<String>,
}

/// N hammer threads on disjoint volumes (create/addBlock/complete/
/// delete) while a rival thread runs cross-shard renames and full
/// listings. The run must finish inside a generous deadline (deadlock
/// detection), and the final namespace must agree with each worker's
/// serially-replayed oracle — volumes are disjoint, so each worker's
/// log alone determines its volume's final state.
#[test]
fn concurrent_hammer_agrees_with_serial_oracle() {
    const WORKERS: usize = 6;
    const OPS: usize = 60;
    let st = state_with_shards(8, 9);
    let started = Instant::now();
    let deadline = Duration::from_secs(120);

    let stop_renamer = Arc::new(AtomicBool::new(false));
    let hops = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(WORKERS + 1));

    let mut handles = Vec::new();
    for w in 0..WORKERS {
        let st = Arc::clone(&st);
        let barrier = Arc::clone(&barrier);
        let hops = Arc::clone(&hops);
        handles.push(std::thread::spawn(move || {
            let client = register_client(&st);
            let vol = format!("/hammer{w}");
            let mut oracle = VolumeOracle::default();
            barrier.wait();
            for op in 0..OPS {
                // The rival is not left to the scheduler: worker 0 stands
                // still mid-run until one more rename has gone through (or
                // the deadline, should the renamer have died).
                let seen = hops.load(Ordering::SeqCst);
                while w == 0 && op == OPS / 2 && hops.load(Ordering::SeqCst) == seen {
                    if started.elapsed() >= deadline {
                        break;
                    }
                    std::thread::yield_now();
                }
                let path = format!("{vol}/f{}", op % 7);
                match op % 3 {
                    // create+complete (every third op deletes below, so
                    // re-creates of a live name use a fresh file name).
                    0 | 1 => {
                        if oracle.live.contains_key(&path) {
                            match st.handle_client_request(ClientRequest::Delete {
                                path: path.clone(),
                            }) {
                                ClientResponse::Deleted { existed: true } => {}
                                other => panic!("delete live {path}: {other:?}"),
                            }
                        }
                        let len = (op as u64 + 1) * 10;
                        write_file(&st, client, &path, len);
                        oracle.live.insert(path, len);
                    }
                    _ => {
                        let existed = oracle.live.remove(&path).is_some();
                        match st.handle_client_request(ClientRequest::Delete {
                            path: path.clone(),
                        }) {
                            ClientResponse::Deleted { existed: got } => {
                                assert_eq!(got, existed, "delete {path} disagreed");
                            }
                            other => panic!("delete {path}: {other:?}"),
                        }
                        if existed {
                            oracle.dead.push(path);
                        }
                    }
                }
            }
            oracle.dead.sort();
            oracle.dead.dedup();
            oracle.dead.retain(|p| !oracle.live.contains_key(p));
            (vol, oracle)
        }));
    }

    // The rival: cross-shard renames over its own private volumes plus
    // full root listings, concurrent with everything above.
    let renamer = {
        let st = Arc::clone(&st);
        let (stop, hop_count) = (Arc::clone(&stop_renamer), Arc::clone(&hops));
        std::thread::spawn(move || {
            let client = register_client(&st);
            let mut at = "/renames-a/ball.bin".to_string();
            write_file(&st, client, &at, 77);
            let mut hops = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let next = if at.starts_with("/renames-a") {
                    format!("/renames-b/ball{}.bin", hops)
                } else {
                    format!("/renames-a/ball{}.bin", hops)
                };
                match st.handle_client_request(ClientRequest::Rename {
                    src: at.clone(),
                    dst: next.clone(),
                }) {
                    ClientResponse::Renamed => at = next,
                    other => panic!("rename {at} -> {next}: {other:?}"),
                }
                hops += 1;
                hop_count.store(hops, Ordering::SeqCst);
                match st.handle_client_request(ClientRequest::List { path: "/".into() }) {
                    ClientResponse::Listing { entries } => {
                        assert!(!entries.is_empty(), "root listing went empty mid-run");
                    }
                    other => panic!("list /: {other:?}"),
                }
            }
            (at, hops)
        })
    };

    barrier.wait();
    let mut oracles = Vec::new();
    for h in handles {
        oracles.push(h.join().expect("hammer worker panicked"));
    }
    stop_renamer.store(true, Ordering::Relaxed);
    let (ball_path, hops) = renamer.join().expect("renamer panicked");
    assert!(
        started.elapsed() < deadline,
        "hammer took {:?} — shard locking is wedging",
        started.elapsed()
    );
    assert!(hops > 0, "renamer never completed a rename");

    // Serially-replayed oracle vs the live namespace.
    let client = register_client(&st);
    for (vol, oracle) in &oracles {
        for (path, len) in &oracle.live {
            match st.handle_client_request(ClientRequest::GetFileInfo { path: path.clone() }) {
                ClientResponse::FileInfo(Some(info)) => {
                    assert!(info.complete, "{path} not complete");
                    assert_eq!(info.len, *len, "{path} length drifted");
                }
                other => panic!("oracle says {path} lives: {other:?}"),
            }
            match st.handle_client_request(ClientRequest::GetBlockLocations {
                client,
                path: path.clone(),
            }) {
                ClientResponse::BlockLocations { blocks, .. } => {
                    assert_eq!(blocks.len(), 1, "{path} block count");
                    assert_eq!(blocks[0].targets.len(), 3, "{path} lost replicas");
                }
                other => panic!("locations {path}: {other:?}"),
            }
        }
        for path in &oracle.dead {
            match st.handle_client_request(ClientRequest::GetFileInfo { path: path.clone() }) {
                ClientResponse::FileInfo(None) => {}
                other => panic!("oracle says {path} ({vol}) is dead: {other:?}"),
            }
        }
    }
    // The renamer's ball survived wherever it last landed, blocks intact.
    match st.handle_client_request(ClientRequest::GetFileInfo { path: ball_path.clone() }) {
        ClientResponse::FileInfo(Some(info)) => {
            assert!(info.complete);
            assert_eq!(info.len, 77);
        }
        other => panic!("renamed file lost: {other:?}"),
    }

    // Root listing reflects every hammer volume (merged across shards).
    match st.handle_client_request(ClientRequest::List { path: "/".into() }) {
        ClientResponse::Listing { entries } => {
            for (vol, _) in &oracles {
                assert!(
                    entries.iter().any(|e| e.path == *vol),
                    "volume {vol} missing from merged root listing"
                );
            }
        }
        other => panic!("list /: {other:?}"),
    }

    // Cross-check the block map: cluster totals equal the oracle's.
    let live_files: usize = oracles.iter().map(|(_, o)| o.live.len()).sum::<usize>() + 1;
    let report = st.cluster_report();
    assert_eq!(report.blocks, live_files, "block map leaked or lost records");
}

/// The emulator run with `namenode_shards = 1` and `= 8` must make the
/// same decisions: per block, payloads, commits, widths, recoveries and
/// read admission, plus the FNFA count — everything not timing-derived.
/// Timing is left out on purpose; two wall-clock runs of one build
/// differ by scheduler noise, whatever the shard count.
#[test]
fn shard_count_does_not_change_conformance_digests() {
    type Block = (u64, bool, usize, usize, usize, u64, u64);
    fn emulator_run(shards: usize) -> (Vec<Block>, u64) {
        let mut spec = ClusterSpec::homogeneous(InstanceType::Medium);
        spec.cross_rack_throttle = Some(Bandwidth::mbps(300.0));
        spec.link_latency = SimDuration::from_micros(50);
        let mut config = DfsConfig::test_scale();
        config.disk_bandwidth = Bandwidth::unlimited();
        config.namenode_shards = shards;
        let sink = RingBufferSink::new(262_144);
        let obs = Obs::new(sink.clone());
        let cluster = MiniCluster::start_with_obs(&spec, config, 0xC0F0, obs).unwrap();
        let client = cluster.client().unwrap();
        let data = random_data(0xC0F0, 2 * 1024 * 1024);
        client.put("/conformance/a.bin", &data, WriteMode::Smarth).unwrap();
        assert!(await_replicas(&client, "/conformance/a.bin", 3, Duration::from_secs(10)).unwrap());
        let got = client.get("/conformance/a.bin").unwrap();
        assert_eq!(got, data);
        cluster.shutdown();
        let report = TraceAssembler::assemble(&sink.snapshot());
        let blocks = report.blocks.iter().map(|b| {
            let bytes = b.hops.iter().map(|h| h.bytes).max().unwrap_or(0);
            let (stripes, read) = b.reads.iter().fold((0, 0), |(s, r), x| (s + x.stripes, r + x.bytes));
            (bytes, b.committed, b.targets.len(), b.recoveries.len(), b.reads.len(), stripes, read)
        });
        (blocks.collect(), report.clients.iter().map(|c| c.fnfa_count).sum())
    }

    // Same blocks, in the same allocation order, and the same FNFAs.
    assert_eq!(emulator_run(1), emulator_run(8));
}

/// The slow-tenant proof: pin one volume's shard busy and hammer the
/// rest of the namespace. At 8 shards the hammer keeps its throughput
/// (only 1/8th of volumes stall); at 1 shard the same pin freezes all
/// metadata traffic. Requires >= 2x aggregate op throughput — honest on
/// a single-core host, because the win comes from lock isolation, not
/// parallel speedup.
#[test]
fn pinned_shard_halves_nothing_but_its_own_volume() {
    fn hammer_ops(shards: usize, window: Duration) -> u64 {
        const THREADS: usize = 4;
        let st = state_with_shards(shards, 9);
        let pinned_path = "/pinned/f.bin";
        let ready = Arc::new(Barrier::new(2));
        let done = Arc::new(AtomicBool::new(false));
        let pin = {
            let st = Arc::clone(&st);
            let ready = Arc::clone(&ready);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                st.with_shard_locked(pinned_path, || {
                    ready.wait();
                    while !done.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                });
            })
        };
        ready.wait(); // pin is holding the shard now

        let ops = Arc::new(AtomicU64::new(0));
        let mut workers = Vec::new();
        for w in 0..THREADS {
            let st = Arc::clone(&st);
            let ops = Arc::clone(&ops);
            let done = Arc::clone(&done);
            workers.push(std::thread::spawn(move || {
                let client = register_client(&st);
                // Volumes chosen to land on shards *other* than the
                // pinned one whenever more than one shard exists.
                let vol: String = (0u32..)
                    .map(|i| format!("/w{w}v{i}"))
                    .find(|v| st.shard_count() == 1 || st.shard_of(v) != st.shard_of(pinned_path))
                    .unwrap();
                let mut n = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let path = format!("{vol}/f{n}");
                    match st.handle_client_request(ClientRequest::Create {
                        client,
                        path,
                        replication: 3,
                        block_size: 1 << 20,
                        overwrite: false,
                        mode: WriteMode::Hdfs,
                    }) {
                        ClientResponse::Created { .. } => {
                            n += 1;
                            ops.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("create: {other:?}"),
                    }
                }
            }));
        }
        std::thread::sleep(window);
        done.store(true, Ordering::Relaxed);
        pin.join().unwrap();
        for w in workers {
            w.join().unwrap();
        }
        ops.load(Ordering::Relaxed)
    }

    let window = Duration::from_millis(400);
    let sharded = hammer_ops(8, window);
    let single = hammer_ops(1, window);
    assert!(
        sharded >= 2 * single.max(1),
        "sharding bought < 2x under a pinned shard: {sharded} ops at 8 shards vs {single} at 1"
    );
}
