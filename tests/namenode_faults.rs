//! Integration tests for the hostile-namenode story: mid-stream namenode
//! outages convert into attributed `NamenodeError` recoveries instead of
//! stream death, retried mutations cannot double-allocate thanks to the
//! idempotency envelope, handler panics surface as typed errors while
//! the server keeps serving, datanode heartbeats survive namenode
//! outages with bounded backoff, and the `hostile` soak profile rides
//! out every injected namenode fault with zero stream failures.

use smarth::cluster::soak::{self, SoakConfig};
use smarth::cluster::{random_data, MiniCluster};
use smarth::core::config::RetryPolicy;
use smarth::core::json::{Json, ToJson};
use smarth::core::obs::{Obs, ObsEvent, RecoveryCause, RingBufferSink};
use smarth::core::proto::{ClientRequest, ClientResponse};
use smarth::core::units::Bandwidth;
use smarth::core::{ClusterSpec, DfsConfig, InstanceType, SimDuration, WriteMode};
use std::time::Duration;

fn fast_config() -> DfsConfig {
    let mut c = DfsConfig::test_scale();
    c.disk_bandwidth = Bandwidth::unlimited();
    c.heartbeat_interval = SimDuration::from_millis(25);
    c
}

/// A retry policy tight enough that a short outage exhausts it, so the
/// tests below can observe `NamenodeUnavailable` converting into
/// stream-level `NamenodeError` recoveries.
fn tiny_retries() -> RetryPolicy {
    RetryPolicy {
        attempts: 2,
        base_backoff: SimDuration::from_millis(20),
        deadline: SimDuration::from_millis(200),
    }
}

fn cluster_with_obs(seed: u64, config: DfsConfig) -> (MiniCluster, std::sync::Arc<RingBufferSink>) {
    let sink = RingBufferSink::new(65_536);
    let obs = Obs::new(sink.clone());
    let spec = ClusterSpec::homogeneous(InstanceType::Large);
    let cluster = MiniCluster::start_with_obs(&spec, config, seed, obs).unwrap();
    (cluster, sink)
}

#[test]
fn mid_stream_namenode_outage_recovers_as_namenode_error() {
    // Partition the client from the namenode mid-upload. The stream's
    // RPC retries exhaust, the outage is recorded as a NamenodeError
    // recovery (metric + balanced trace span), and once the partition
    // heals the same stream finishes and the data verifies.
    let mut config = fast_config();
    config.rpc_retry = tiny_retries();
    let (cluster, sink) = cluster_with_obs(61, config);
    let client = cluster.client().unwrap();
    let data = random_data(91, 1_800_000);

    let mut stream = client.create("/nnfault/a.bin", WriteMode::Smarth).unwrap();
    stream.write(&data[..500_000]).unwrap();

    cluster.fabric().partition_link("client", "namenode");
    let fabric = cluster.fabric().clone();
    let healer = std::thread::spawn(move || {
        // Long enough that at least one addBlock exhausts its retry
        // budget (2 attempts + backoff ≈ 50 ms per call), short enough
        // that the stream's own recovery attempts (5) outlast it.
        std::thread::sleep(Duration::from_millis(400));
        fabric.heal_link("client", "namenode");
    });

    // This write spans several more 256 KiB blocks, so it needs fresh
    // allocations while the namenode is unreachable.
    stream.write(&data[500_000..]).unwrap();
    let stats = stream.close().unwrap();
    healer.join().unwrap();

    assert!(
        stats.recoveries >= 1,
        "the outage must surface as at least one recovery, got {}",
        stats.recoveries
    );
    let metrics = cluster.obs().metrics();
    assert!(
        metrics.recoveries(RecoveryCause::NamenodeError) >= 1,
        "outage must be attributed to the namenode cause"
    );
    assert_eq!(client.get("/nnfault/a.bin").unwrap(), data);
    cluster.shutdown();

    // The incident shows up as a balanced recovery span in the event
    // stream: every NamenodeError RecoveryStarted has a matching
    // RecoveryFinished for the same block.
    let events = sink.snapshot();
    let mut started = Vec::new();
    for r in &events {
        if let ObsEvent::RecoveryStarted { block, cause, .. } = r.event {
            if cause == RecoveryCause::NamenodeError {
                started.push(block);
            }
        }
    }
    assert!(!started.is_empty(), "no NamenodeError recovery span emitted");
    for block in started {
        assert!(
            events.iter().any(|r| matches!(
                r.event,
                ObsEvent::RecoveryFinished { block: b, .. } if b == block
            )),
            "unbalanced recovery span for {block}"
        );
    }
}

#[test]
fn retried_add_block_does_not_double_allocate() {
    // Replay an identical Idempotent AddBlock — the exact wire shape a
    // client resends after a dropped response — straight at the
    // namenode: the cached response comes back and no second block is
    // allocated or committed.
    let cluster = MiniCluster::start(
        &ClusterSpec::homogeneous(InstanceType::Large),
        fast_config(),
        67,
    )
    .unwrap();
    let nn = cluster.namenode_state();

    let client = match nn.handle_client_request(ClientRequest::Register {
        host_name: "client".into(),
        rack: "r0".into(),
    }) {
        ClientResponse::Registered { client } => client,
        other => panic!("register failed: {other:?}"),
    };
    let file_id = match nn.handle_client_request(ClientRequest::Create {
        client,
        path: "/dedupe/f.bin".into(),
        replication: 3,
        block_size: 256 * 1024,
        overwrite: false,
        mode: WriteMode::Smarth,
    }) {
        ClientResponse::Created { file_id } => file_id,
        other => panic!("create failed: {other:?}"),
    };

    let add = ClientRequest::Idempotent {
        client,
        request_id: 42,
        inner: Box::new(ClientRequest::AddBlock {
            client,
            file_id,
            previous: None,
            excluded: Vec::new(),
        }),
    };
    let first = nn.handle_client_request(add.clone());
    let lb = match &first {
        ClientResponse::BlockAllocated(lb) => lb.clone(),
        other => panic!("addBlock failed: {other:?}"),
    };
    let blocks_after_first = nn.cluster_report().blocks;

    // The retry: same client, same request_id, same inner request.
    let second = nn.handle_client_request(add);
    assert_eq!(
        first, second,
        "a retried mutation must replay the cached response verbatim"
    );
    assert_eq!(
        nn.cluster_report().blocks,
        blocks_after_first,
        "the retry must not allocate a second block"
    );

    // A *new* request_id is a genuinely new mutation and does allocate.
    let third = nn.handle_client_request(ClientRequest::Idempotent {
        client,
        request_id: 43,
        inner: Box::new(ClientRequest::AddBlock {
            client,
            file_id,
            previous: None,
            excluded: Vec::new(),
        }),
    });
    match third {
        ClientResponse::BlockAllocated(lb2) => {
            assert_ne!(lb.block.id, lb2.block.id, "fresh id ⇒ fresh block")
        }
        other => panic!("fresh addBlock failed: {other:?}"),
    }
    assert_eq!(nn.cluster_report().blocks, blocks_after_first + 1);
    cluster.shutdown();
}

#[test]
fn dropped_response_to_create_is_retried_and_replayed() {
    use smarth::client::DfsClient;
    use smarth::core::wire::{recv_message, send_message};

    // The client talks to the namenode through a relay on its own host
    // that passes every frame on, except that it hangs up instead of
    // delivering the first answer to a `create`: the request was
    // executed, the response is lost.
    let cluster = MiniCluster::start(
        &ClusterSpec::homogeneous(InstanceType::Large),
        fast_config(),
        83,
    )
    .unwrap();
    let host = cluster.spec().client_host().clone();
    let relay_addr = format!("{}:8020", host.name);
    let listener = cluster.fabric().listen(&relay_addr).unwrap();
    let (fabric, nn_addr, from) = (cluster.fabric().clone(), cluster.client_addr(), host.name.clone());
    let (creates_tx, creates_rx) = std::sync::mpsc::channel();
    let relay = std::thread::spawn(move || {
        let mut dropped = false;
        while let Ok(mut down) = listener.accept() {
            let mut up = fabric.connect(&from, &nn_addr).unwrap();
            while let Ok(req) = recv_message::<ClientRequest>(&mut down) {
                send_message(&mut up, &req).unwrap();
                let resp: ClientResponse = recv_message(&mut up).unwrap();
                let is_create = matches!(
                    &req,
                    ClientRequest::Idempotent { inner, .. }
                        if matches!(**inner, ClientRequest::CreateWithBlock { .. })
                );
                if is_create {
                    creates_tx.send((req, resp.clone())).unwrap();
                    if !std::mem::replace(&mut dropped, true) {
                        break;
                    }
                }
                if send_message(&mut down, &resp).is_err() {
                    break;
                }
            }
        }
    });

    let client = DfsClient::connect(
        cluster.fabric(),
        &host.name,
        &host.rack,
        &relay_addr,
        cluster.config().clone(),
        5,
    )
    .unwrap();
    let data = random_data(17, 4096);
    client.put("/replay/f.bin", &data, WriteMode::Smarth).unwrap();
    assert_eq!(client.get("/replay/f.bin").unwrap(), data);

    // The same envelope went out twice and got the same answer twice; the
    // second was a replay, so there is one file holding one block.
    let creates: Vec<_> = creates_rx.try_iter().collect();
    assert_eq!(creates.len(), 2, "{creates:?}");
    assert_eq!(creates[0], creates[1]);
    assert!(
        matches!(creates[0].1, ClientResponse::CreatedWithBlock { first: Some(_), .. }),
        "{:?}",
        creates[0].1
    );
    assert_eq!(cluster.namenode_state().cluster_report().blocks, 1);
    assert_eq!(client.list("/replay").unwrap().len(), 1);

    drop(client);
    cluster.fabric().close_listener(&relay_addr);
    relay.join().unwrap();
    cluster.shutdown();
}

#[test]
fn handler_panic_is_a_typed_error_and_the_server_survives() {
    // Arm the namenode's panic hook for one path: the create comes back
    // as a typed error (not a dead connection), handler_panics ticks,
    // and the very next request on the same server succeeds.
    let (cluster, _sink) = cluster_with_obs(73, fast_config());
    let client = cluster.client().unwrap();

    cluster.namenode_state().arm_create_panic("/boom.bin");
    let err = match client.create("/boom.bin", WriteMode::Smarth) {
        Ok(_) => panic!("armed create must fail"),
        Err(e) => e,
    };
    assert!(
        err.to_string().contains("panicked"),
        "panic must surface as a typed handler error, got: {err}"
    );
    assert_eq!(cluster.obs().metrics().handler_panics.get(), 1);

    // The accept loop survived the panic: the same client keeps working.
    let data = random_data(5, 300_000);
    client.put("/after-boom.bin", &data, WriteMode::Smarth).unwrap();
    assert_eq!(client.get("/after-boom.bin").unwrap(), data);
    assert_eq!(
        cluster.obs().metrics().handler_panics.get(),
        1,
        "healthy requests must not tick the panic counter"
    );
    cluster.shutdown();
}

#[test]
fn datanode_heartbeats_survive_a_namenode_outage() {
    // Partition one datanode from the namenode: its heartbeat loop must
    // count failures and back off — not break permanently — and resume
    // once the link heals.
    let (cluster, _sink) = cluster_with_obs(79, fast_config());
    let metrics = cluster.obs().metrics();
    assert_eq!(metrics.heartbeat_failures.get(), 0);

    cluster.fabric().partition_link("dn0", "namenode");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while metrics.heartbeat_failures.get() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "heartbeat failures never counted during the partition"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    cluster.fabric().heal_link("dn0", "namenode");

    // Healed: dn0 must report again (fresh heartbeats keep it alive and
    // writes through it keep working).
    let failures_at_heal = metrics.heartbeat_failures.get();
    let client = cluster.client().unwrap();
    let data = random_data(9, 600_000);
    client.put("/hb/alive.bin", &data, WriteMode::Smarth).unwrap();
    assert_eq!(client.get("/hb/alive.bin").unwrap(), data);
    std::thread::sleep(Duration::from_millis(200));
    assert!(
        metrics.heartbeat_failures.get() <= failures_at_heal + 1,
        "failures must stop accumulating after the heal"
    );
    cluster.shutdown();
}

#[test]
fn hostile_soak_rides_out_namenode_faults() {
    // The hostile profile stalls and partitions the namenode repeatedly;
    // the widened retry budget must absorb every outage: zero stream
    // failures, zero violations (which includes the attribution check —
    // any NamenodeError recovery must land in a namenode-fault window —
    // and the zero-handler-panics gate).
    let cfg = SoakConfig::hostile(83);
    let report = soak::run(&cfg).unwrap();

    assert_eq!(
        report.violations,
        Vec::<String>::new(),
        "\n{}",
        report.render()
    );
    assert!(report.blocks_committed > 0, "\n{}", report.render());
    for w in &report.workers {
        assert!(w.ops > 0, "every client makes progress\n{}", report.render());
        assert_eq!(w.op_errors, 0, "errors: {:?}\n{}", w.errors, report.render());
        assert_eq!(w.integrity_failures, 0, "\n{}", report.render());
    }
    // All three namenode faults actually fired.
    assert_eq!(report.fault_log.iter().filter(|f| f.applied).count(), 3);

    // The widened retry budget outlasts every outage, so streams ride
    // the faults out without a single recovery incident.
    assert_eq!(report.recoveries_total(), 0, "\n{}", report.render());

    // Replayability: the report's config (fault plan + retry policy +
    // heartbeat horizon) round-trips through JSON bit-for-bit...
    let back = SoakConfig::from_json(&report.config.to_json()).unwrap();
    assert_eq!(back.plan, cfg.plan);
    assert_eq!(back.config.rpc_retry, cfg.config.rpc_retry);
    assert_eq!(
        back.to_json().to_string_compact(),
        report.config.to_json().to_string_compact()
    );
    // ...and actually re-running the decoded config reproduces the same
    // clean verdict: same fault schedule, zero violations, zero
    // recoveries, zero op errors — the saved report alone is enough to
    // replay a hostile run.
    let replayed = soak::run(&back).unwrap();
    assert_eq!(
        replayed.violations,
        Vec::<String>::new(),
        "\n{}",
        replayed.render()
    );
    assert_eq!(replayed.plan, report.plan);
    assert_eq!(replayed.recoveries, report.recoveries);
    assert!(replayed.workers.iter().all(|w| w.op_errors == 0));
}

#[test]
fn namenode_stall_exhausts_tight_retries_into_recoveries() {
    // Same outage class as the soak, but with a no-retry budget: a
    // stalled namenode NIC trips the per-attempt deadline, the single
    // attempt is the whole budget, and the stream logs NamenodeError
    // recoveries yet still completes once the stall lifts.
    let mut config = fast_config();
    config.rpc_retry = RetryPolicy {
        attempts: 1,
        ..tiny_retries()
    };
    // The stall starves heartbeats as well; keep the expiry horizon
    // (interval × 10 = 1 s) past the 500 ms stall so the namenode does
    // not declare the datanodes dead and fail placement.
    config.heartbeat_interval = SimDuration::from_millis(100);
    let (cluster, _sink) = cluster_with_obs(89, config);
    let client = cluster.client().unwrap();
    let data = random_data(41, 1_500_000);

    let mut stream = client.create("/stall/s.bin", WriteMode::Smarth).unwrap();
    stream.write(&data[..400_000]).unwrap();

    // Throttle the namenode NIC to a trickle (~125 B/s): connections
    // open but responses crawl past the 200 ms per-attempt deadline.
    cluster
        .throttle_host("namenode", Some(Bandwidth::mbps(0.001)))
        .unwrap();
    let cluster_ref = &cluster;
    std::thread::scope(|s| {
        s.spawn(|| {
            std::thread::sleep(Duration::from_millis(500));
            cluster_ref.throttle_host("namenode", None).unwrap();
        });
        stream.write(&data[400_000..]).unwrap();
        stream.close().unwrap();
    });

    assert!(
        cluster.obs().metrics().recoveries(RecoveryCause::NamenodeError) >= 1,
        "deadline exhaustion must be recorded as a NamenodeError recovery"
    );
    assert_eq!(client.get("/stall/s.bin").unwrap(), data);
    cluster.shutdown();
}
