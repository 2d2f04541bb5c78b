//! Cross-crate end-to-end tests: the full emulated system (namenode +
//! datanodes + client over the fabric) exercised through the public
//! facade, plus agreement checks between the two execution engines.

use smarth::cluster::{await_replicas, random_data, summarize, MiniCluster, UploadWorkload};
use smarth::core::units::Bandwidth;
use smarth::core::{ClusterSpec, DfsConfig, InstanceType, SimDuration, WriteMode};
use smarth::sim::scenario::two_rack;
use smarth::sim::simulate_upload;
use std::time::Duration;

fn fast_config() -> DfsConfig {
    let mut c = DfsConfig::test_scale();
    c.disk_bandwidth = Bandwidth::unlimited();
    c.heartbeat_interval = SimDuration::from_millis(25);
    c
}

#[test]
fn facade_exposes_full_workflow() {
    let spec = ClusterSpec::homogeneous(InstanceType::Large);
    let cluster = MiniCluster::start(&spec, fast_config(), 1).unwrap();
    let client = cluster.client().unwrap();

    // Write, stat, list, read, delete through the re-exported API.
    let data = random_data(3, 800_000);
    let report = client.put("/api/file.bin", &data, WriteMode::Smarth).unwrap();
    assert_eq!(report.bytes, 800_000);
    assert!(client.exists("/api/file.bin").unwrap());
    let info = client.file_info("/api/file.bin").unwrap().unwrap();
    assert!(info.complete);
    assert_eq!(client.get("/api/file.bin").unwrap(), data);
    assert_eq!(client.list("/api").unwrap().len(), 1);
    assert!(client.delete("/api/file.bin").unwrap());
    assert!(!client.exists("/api/file.bin").unwrap());
    cluster.shutdown();
}

#[test]
fn many_files_interleaved_modes_all_verify() {
    let spec = ClusterSpec::homogeneous(InstanceType::Large);
    let cluster = MiniCluster::start(&spec, fast_config(), 2).unwrap();
    let client = cluster.client().unwrap();
    let mut expected = Vec::new();
    for i in 0..10u64 {
        let mode = if i % 2 == 0 {
            WriteMode::Smarth
        } else {
            WriteMode::Hdfs
        };
        let data = random_data(i, 100_000 + (i as usize * 37_000));
        let path = format!("/mix/f{i}");
        client.put(&path, &data, mode).unwrap();
        expected.push((path, data));
    }
    for (path, data) in expected {
        assert_eq!(client.get(&path).unwrap(), data, "{path}");
    }
    cluster.shutdown();
}

#[test]
fn emulator_and_simulator_agree_on_protocol_ordering() {
    // Same qualitative question to both engines: who wins under a tight
    // cross-rack throttle, and who wins (nobody, within noise) without?
    // The emulator runs scaled sizes in real time; the simulator runs
    // paper scale in virtual time. Their *orderings* must agree.
    let throttle = Bandwidth::mbps(50.0);

    // Engine 1: deterministic simulator at paper scale.
    let sim_hdfs = simulate_upload(&two_rack(
        InstanceType::Small,
        smarth::core::ByteSize::gib(1),
        Some(throttle),
        WriteMode::Hdfs,
    ))
    .upload_secs;
    let sim_smarth = simulate_upload(&two_rack(
        InstanceType::Small,
        smarth::core::ByteSize::gib(1),
        Some(throttle),
        WriteMode::Smarth,
    ))
    .upload_secs;
    assert!(sim_smarth < sim_hdfs, "simulator: SMARTH must win throttled");
    let sim_improvement = sim_hdfs / sim_smarth - 1.0;

    // Engine 2: real threads over the emulated fabric, scaled file.
    // Wall-clock measurements flake under parallel test load, so allow
    // one retry before judging.
    let mut emu_improvement = 0.0f64;
    for attempt in 0..2 {
        let spec =
            ClusterSpec::homogeneous(InstanceType::Small).with_cross_rack_throttle(throttle);
        let cluster = MiniCluster::start(&spec, fast_config(), 3 + attempt).unwrap();
        let wl = UploadWorkload {
            files: 1,
            file_size: 3 * 1024 * 1024,
            seed: 1,
            warmup_files: 2,
        };
        let emu_hdfs = summarize(&wl.run(&cluster, WriteMode::Hdfs).unwrap()).total_secs;
        let emu_smarth = summarize(&wl.run(&cluster, WriteMode::Smarth).unwrap()).total_secs;
        cluster.shutdown();
        emu_improvement = emu_hdfs / emu_smarth - 1.0;
        if emu_improvement > 0.2 {
            break;
        }
    }

    // Both engines should see a *substantial* (not marginal) win.
    assert!(
        sim_improvement > 0.5 && emu_improvement > 0.2,
        "sim {:.0}% vs emulator {:.0}%",
        sim_improvement * 100.0,
        emu_improvement * 100.0
    );
}

#[test]
fn smarth_stream_respects_pipeline_cap_from_config_override() {
    let spec = ClusterSpec::homogeneous(InstanceType::Large)
        .with_cross_rack_throttle(Bandwidth::mbps(60.0));
    let mut config = fast_config();
    config.max_pipelines_override = Some(1);
    let cluster = MiniCluster::start(&spec, config, 4).unwrap();
    let client = cluster.client().unwrap();
    let data = random_data(5, 1_500_000);
    let report = client.put("/cap/one.bin", &data, WriteMode::Smarth).unwrap();
    // With cap 1 there is never pipeline overlap beyond current+0.
    assert_eq!(report.stats.max_concurrent_pipelines, 1);
    assert_eq!(client.get("/cap/one.bin").unwrap(), data);
    cluster.shutdown();
}

#[test]
fn replication_factor_two_works_end_to_end() {
    let spec = ClusterSpec::homogeneous(InstanceType::Large);
    let mut config = fast_config();
    config.replication = 2;
    let cluster = MiniCluster::start(&spec, config, 6).unwrap();
    let client = cluster.client().unwrap();
    let data = random_data(6, 600_000);
    for mode in [WriteMode::Hdfs, WriteMode::Smarth] {
        let path = format!("/r2/{}", mode.name());
        client.put(&path, &data, mode).unwrap();
        assert_eq!(client.get(&path).unwrap(), data);
    }
    // Replica accounting: 600 KB → 3 blocks × 2 replicas per mode.
    let total: usize = cluster
        .datanode_hosts()
        .iter()
        .map(|h| cluster.datanode(h).unwrap().store().replica_count())
        .sum();
    assert_eq!(total, 12);
    cluster.shutdown();
}

#[test]
fn overwrite_semantics() {
    let spec = ClusterSpec::homogeneous(InstanceType::Large);
    let cluster = MiniCluster::start(&spec, fast_config(), 7).unwrap();
    let client = cluster.client().unwrap();
    let first = random_data(1, 50_000);
    client.put("/ow/x", &first, WriteMode::Hdfs).unwrap();
    // Plain create over an existing path fails...
    let err = client.create("/ow/x", WriteMode::Hdfs).err().unwrap();
    assert!(matches!(err, smarth::core::DfsError::AlreadyExists(_)));
    // ...but overwrite replaces content, and the namenode lets go of the
    // old file's block as `delete` would.
    let old_block = client.open("/ow/x").unwrap().block_layout()[0].block.id;
    assert!(await_replicas(&client, "/ow/x", 3, Duration::from_secs(10)).unwrap());
    assert_eq!(cluster.namenode_state().replica_count(old_block), 3);
    let second = random_data(2, 80_000);
    let mut s = client
        .create_with("/ow/x", WriteMode::Smarth, 3, true)
        .unwrap();
    assert_eq!(cluster.namenode_state().replica_count(old_block), 0);
    s.write(&second).unwrap();
    s.close().unwrap();
    assert_eq!(client.get("/ow/x").unwrap(), second);
    cluster.shutdown();
}

#[test]
fn ranged_reads_match_full_reads() {
    let spec = ClusterSpec::homogeneous(InstanceType::Large);
    let cluster = MiniCluster::start(&spec, fast_config(), 9).unwrap();
    let client = cluster.client().unwrap();
    let block = cluster.config().block_size.as_u64();
    // 2.5 blocks so ranges can straddle block boundaries.
    let data = random_data(77, (block * 2 + block / 2) as usize);
    client.put("/pr/f.bin", &data, WriteMode::Smarth).unwrap();

    let cases = [
        (0u64, 100u64),                         // head
        (block - 50, 100),                      // straddles block 0/1
        (block * 2 - 10, block / 2 + 10),       // straddles into the tail
        (data.len() as u64 - 1, 1),             // last byte
        (0, data.len() as u64),                 // whole file
        (block, 0),                             // empty range
    ];
    for (off, len) in cases {
        let got = client.get_range("/pr/f.bin", off, len).unwrap();
        assert_eq!(
            got,
            &data[off as usize..(off + len) as usize],
            "range {off}+{len}"
        );
    }
    // Out-of-bounds is rejected.
    assert!(client
        .get_range("/pr/f.bin", data.len() as u64, 1)
        .is_err());
    assert!(client.get_range("/pr/f.bin", u64::MAX, 2).is_err());
    cluster.shutdown();
}
