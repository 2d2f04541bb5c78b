//! Tier-1 soak-harness tests: a deterministic replay profile whose
//! per-window recovery-cause counts must be bit-identical across runs
//! (including a mid-recovery second fault attributed separately as
//! `nested_failure`), and a short multi-client churn smoke with a
//! generated fault plan, and a saved report whose replay reproduces its
//! recovery schedule. The sustained profile is opt-in via
//! `SMARTH_SOAK_LONG=1` so tier-1 stays fast.

use smarth::cluster::soak::{self, SoakConfig};
use smarth::cluster::{random_data, replay, MiniCluster};
use smarth::core::json::{Json, ToJson};
use smarth::core::obs::RecoveryCause;
use smarth::core::{ClusterSpec, DfsConfig, WriteMode};

fn slot(cause: RecoveryCause) -> usize {
    RecoveryCause::ALL
        .iter()
        .position(|c| *c == cause)
        .unwrap()
}

#[test]
fn deterministic_profile_replays_exactly() {
    // Two runs of the byte-triggered single-client profile must agree
    // window-by-window on recovery-cause counts: the whole fault plan —
    // a cable pull mid-block, then a double datanode kill mid-block —
    // fires at exact byte offsets, not wall-clock times.
    let a = soak::run(&SoakConfig::deterministic(71)).unwrap();
    let b = soak::run(&SoakConfig::deterministic(71)).unwrap();

    assert_eq!(a.violations, Vec::<String>::new(), "\n{}", a.render());
    assert_eq!(b.violations, Vec::<String>::new(), "\n{}", b.render());

    let causes = |r: &soak::SoakReport| -> Vec<soak::CauseCounts> {
        r.windows.iter().map(|w| w.recoveries).collect()
    };
    assert_eq!(
        causes(&a),
        causes(&b),
        "same seed, same fault plan, same per-window recovery-cause counts\nrun A:\n{}\nrun B:\n{}",
        a.render(),
        b.render()
    );
    assert_eq!(a.plan, b.plan);

    // The plan injects exactly one connection loss (the cable pull) and
    // one double kill whose second death lands *during* the recovery of
    // the first — so causes must be attributed distinctly: two
    // connection-lost recoveries plus one nested failure.
    assert_eq!(
        a.recoveries.0[slot(RecoveryCause::ConnectionLost)],
        2,
        "\n{}",
        a.render()
    );
    assert_eq!(
        a.recoveries.0[slot(RecoveryCause::NestedFailure)],
        1,
        "\n{}",
        a.render()
    );
    assert_eq!(a.recoveries.0[slot(RecoveryCause::AckTimeout)], 0);
    assert_eq!(a.recoveries.0[slot(RecoveryCause::NamenodeError)], 0);

    // Churn completed and every read-back matched.
    let w = &a.workers[0];
    assert_eq!(w.ops, 6);
    assert_eq!(w.integrity_failures, 0);
    assert_eq!(w.op_errors, 0, "errors: {:?}", w.errors);
    assert!(a.blocks_committed >= 6, "\n{}", a.render());
}

#[test]
fn multi_client_churn_smoke_holds_invariants() {
    let cfg = SoakConfig::smoke(29);
    let report = soak::run(&cfg).unwrap();

    assert_eq!(
        report.violations,
        Vec::<String>::new(),
        "\n{}",
        report.render()
    );
    assert!(
        report.blocks_committed > 0 && report.bytes_written > 0,
        "\n{}",
        report.render()
    );
    // All six clients made progress.
    assert_eq!(report.workers.len(), 6);
    assert!(report.workers.iter().all(|w| w.ops > 0));
    assert!(report.workers.iter().all(|w| w.integrity_failures == 0));
    // The generated plan is replayable: regenerating from the same seed
    // gives the same schedule, a different seed a different one.
    assert_eq!(
        report.plan,
        soak::FaultPlan::generate(29, cfg.clients, cfg.datanodes, 3_500, 4)
    );
    assert_ne!(
        report.plan,
        soak::FaultPlan::generate(30, cfg.clients, cfg.datanodes, 3_500, 4)
    );
    // The harness produced a report file via the figures plumbing's
    // results convention.
    let dir = std::env::temp_dir().join("smarth-soak-test");
    let path = report.save(&dir).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let parsed = smarth::core::json::parse(&text).unwrap();
    assert_eq!(parsed.get("seed").as_u64(), Some(29));
    assert!(text.contains("\"windows\""));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn read_heavy_smoke_exercises_striped_reads_under_faults() {
    // The read-dominant profile: ~65% of ops are full striped
    // read-backs, with the same fault plan as the write smoke — so
    // stalls and kills land on reads and must convert into source
    // failover, never into integrity failures.
    let cfg = SoakConfig::read_heavy(37);
    let report = soak::run(&cfg).unwrap();

    assert_eq!(
        report.violations,
        Vec::<String>::new(),
        "\n{}",
        report.render()
    );
    assert_eq!(report.config.op_mix, soak::OpMix::read_heavy());
    assert!(report.workers.iter().all(|w| w.ops > 0));
    assert!(report.workers.iter().all(|w| w.integrity_failures == 0));
    // The mix survives the report's JSON round trip (replayability).
    let back = SoakConfig::from_json(&report.config.to_json()).unwrap();
    assert_eq!(back.op_mix, cfg.op_mix);
}

#[test]
fn rack_partition_profile_replays_with_attributed_recoveries() {
    // The rack-partition profile severs rack-b twice mid-run: its
    // clients lose the namenode, its datanodes drop out of every live
    // pipeline, and both outages heal before heartbeat expiry. All
    // resulting recoveries must be attributable to the partition
    // windows (an unattributable recovery is a violation), and the
    // report's echoed config must replay cleanly — the saved JSON alone
    // reproduces the run.
    let cfg = SoakConfig::rack_partition(11);
    let report = soak::run(&cfg).unwrap();
    assert_eq!(
        report.violations,
        Vec::<String>::new(),
        "\n{}",
        report.render()
    );
    assert!(report.workers.iter().all(|w| w.integrity_failures == 0));
    assert!(report.blocks_committed > 0, "\n{}", report.render());

    // Both injected partitions are in the echoed plan and survive the
    // JSON round trip (class attribution is unit-tested in the soak
    // module itself).
    let partitions = report
        .plan
        .events
        .iter()
        .filter(|e| matches!(e.kind, soak::FaultKind::RackPartition { .. }))
        .count();
    assert_eq!(partitions, 2, "plan lost its partition events");
    let back = SoakConfig::from_json(&report.config.to_json()).unwrap();
    assert_eq!(back.plan, cfg.plan);

    // Replay the saved report verbatim: wall-clock profiles skip the
    // window-count comparison, but the fresh run must hold the same
    // invariants under the same partition schedule.
    let outcome = replay::replay_json(&report.to_json()).unwrap();
    assert!(outcome.matches(), "\n{}", outcome.render());
    assert_eq!(
        outcome.report.violations,
        Vec::<String>::new(),
        "replayed run violated invariants:\n{}",
        outcome.report.render()
    );
    assert!(outcome.report.blocks_committed > 0);
}

#[test]
fn tiered_cluster_smoke_holds_invariants() {
    // The heterogeneous profile: Table I's instance mix with per-tier
    // disk caps on every datanode. Same churn and fault plan as the
    // homogeneous smoke — slow disks must surface as slower pipelines,
    // never as violations or integrity failures.
    let cfg = SoakConfig::tiered_smoke(41);
    assert!(cfg.tiered_disks);
    let report = soak::run(&cfg).unwrap();
    assert_eq!(
        report.violations,
        Vec::<String>::new(),
        "\n{}",
        report.render()
    );
    assert!(report.workers.iter().all(|w| w.ops > 0));
    assert!(report.workers.iter().all(|w| w.integrity_failures == 0));
    let back = SoakConfig::from_json(&report.config.to_json()).unwrap();
    assert!(back.tiered_disks, "tiered_disks lost in the JSON round trip");
}

#[test]
fn speed_registry_converges_to_fast_tier_on_reads() {
    // On the tiered heterogeneous spec the small tier is slow end to
    // end (216 Mbps NIC vs 376). The reading client must NOT be the
    // bottleneck, so it runs on an unthrottled fabric host — then each
    // striped read samples every replica at the replica's own ceiling,
    // the speed heartbeat feeds those observations to the namenode, and
    // after a few rounds the registry's descending source order must
    // put a fast-tier (medium/large) datanode on top with every
    // small-tier record strictly below it.
    let spec = ClusterSpec::heterogeneous_tiered();
    let mut config = DfsConfig::test_scale();
    // Single-block files: each read is one sustained 3-stripe fetch, long
    // enough to drain the token-bucket burst that would otherwise mask
    // the per-tier NIC caps at the 256 KiB scale.
    config.block_size = smarth::core::units::ByteSize::mib(4);
    let cluster = MiniCluster::start(&spec, config, 0x7EAD).unwrap();
    cluster
        .fabric()
        .add_host("reader", "rack-a", smarth::core::units::Bandwidth::unlimited());
    let client = cluster.client_on("reader", "rack-a").unwrap();

    let mut datas = Vec::new();
    for i in 0..4u64 {
        let data = random_data(100 + i, 4 * 1024 * 1024);
        client
            .put(&format!("/tiers/f{i}.bin"), &data, WriteMode::Smarth)
            .unwrap();
        datas.push(data);
    }
    for _ in 0..5 {
        for (i, data) in datas.iter().enumerate() {
            let got = client.get(&format!("/tiers/f{i}.bin")).unwrap();
            assert_eq!(&got, data, "read-back mismatch on /tiers/f{i}.bin");
        }
        client.flush_speed_report().unwrap();
    }

    let records = cluster.namenode_state().speed_records(client.id());
    assert!(records.len() >= 4, "reads must leave speed records: {records:?}");
    let report = cluster.namenode_state().cluster_report();
    let tier_of = |id| {
        report
            .live_datanodes
            .iter()
            .find(|d| d.id == id)
            .map(|d| {
                d.host_name
                    .trim_end_matches(|c: char| c.is_ascii_digit())
                    .to_string()
            })
            .unwrap()
    };
    let (top_id, top_rate) = records
        .iter()
        .cloned()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    assert_ne!(
        tier_of(top_id),
        "small",
        "registry order tops out on the slow tier: {records:?}"
    );
    let mut small = Vec::new();
    let mut fast = Vec::new();
    for (id, rate) in &records {
        if tier_of(*id) == "small" {
            assert!(
                *rate < top_rate,
                "small-tier {id:?} at {rate:.0} B/s outranks the fast tier \
                 ({top_rate:.0} B/s): {records:?}"
            );
            small.push(*rate);
        } else {
            fast.push(*rate);
        }
    }
    // Both tiers must actually have been observed, and on average the
    // fast tier must rank above the slow one.
    assert!(!small.is_empty() && !fast.is_empty(), "both tiers sampled: {records:?}");
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        mean(&small) < mean(&fast),
        "small tier mean {:.0} B/s >= fast tier mean {:.0} B/s: {records:?}",
        mean(&small),
        mean(&fast)
    );
    cluster.shutdown();
}

#[test]
fn sustained_profile_long_soak() {
    // Opt-in long profile: `SMARTH_SOAK_LONG=1 cargo test --test soak`.
    if std::env::var("SMARTH_SOAK_LONG").map(|v| v == "1") != Ok(true) {
        eprintln!("skipping long soak (set SMARTH_SOAK_LONG=1 to run)");
        return;
    }
    let secs = std::env::var("SMARTH_SOAK_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60);
    let report = soak::run(&SoakConfig::sustained(24, secs, 3)).unwrap();
    println!("{}", report.render());
    assert_eq!(
        report.violations,
        Vec::<String>::new(),
        "\n{}",
        report.render()
    );
    assert!(report.blocks_committed > 0);
    report
        .save(std::path::Path::new("results"))
        .expect("report written");
}

#[test]
fn replay_reproduces_recovery_schedule_exactly() {
    // The deterministic soak profile: op-budgeted, single window, both
    // faults at exact byte offsets mid-block.
    let cfg = SoakConfig::deterministic(4242);
    let report = soak::run(&cfg).unwrap();
    assert!(
        report.violations.is_empty(),
        "reference run must be clean: {:?}",
        report.violations
    );
    assert!(
        report.recoveries_total() >= 2,
        "both injected faults must recover something"
    );

    // Save the report and replay the file — exactly what the shell's
    // `replay <file>` does — so the echoed config is printed, parsed
    // and re-run verbatim.
    let dir = std::env::temp_dir().join(format!("smarth-replay-{}", std::process::id()));
    let path = report.save(&dir).unwrap();
    let outcome = replay::replay_file(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(outcome.comparable, "op-budgeted profiles compare windows");
    assert!(
        outcome.matches(),
        "replay diverged from the saved schedule:\n{}",
        outcome.render()
    );
    assert_eq!(
        outcome.saved.len(),
        outcome.replayed.len(),
        "window structure must reproduce"
    );
}
