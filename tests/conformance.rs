//! Cross-engine conformance: the threaded emulator and the
//! discrete-event simulator run the same workload on the same
//! [`ClusterSpec`], and the dimensionless digests of their trace
//! streams must agree within the tolerance bands — block-by-block
//! payloads exactly, FNFA counts, pipeline overlap, and per-hop
//! replica residency approximately. Also exercises the other half of
//! the harness: replaying a saved soak report's echoed fault plan must
//! reproduce its per-window recovery-cause counts exactly.

use smarth::cluster::{random_data, replay, soak, MiniCluster, SoakConfig};
use smarth::core::conformance::{diff_digests, diff_reports, TraceDigest};
use smarth::core::obs::{Obs, RingBufferSink};
use smarth::core::trace::{TraceAssembler, TraceReport};
use smarth::core::units::{Bandwidth, ByteSize};
use smarth::core::{ClusterSpec, DfsConfig, InstanceType, SimDuration, WriteMode};
use smarth::sim::{simulate_upload_with_obs, SimScenario};

/// One spec + config + upload size, run through BOTH engines. The
/// emulator drives a real [`MiniCluster`] with a single client `put`;
/// the simulator replays the identical scenario in virtual time. Both
/// event streams are assembled the same way.
fn paired_reports(
    instance: InstanceType,
    upload_bytes: usize,
    seed: u64,
) -> (TraceReport, TraceReport) {
    paired_reports_with_read_back(instance, upload_bytes, seed, false)
}

/// [`paired_reports`], optionally reading the file back on both engines
/// (striped `get` on the emulator, the DES read mirror on the
/// simulator) so the digests carry read admission too.
fn paired_reports_with_read_back(
    instance: InstanceType,
    upload_bytes: usize,
    seed: u64,
    read_back: bool,
) -> (TraceReport, TraceReport) {
    let mut spec = ClusterSpec::homogeneous(instance);
    // A cross-rack throttle slows the pipeline drain relative to the
    // client, so FNFA-driven overlap is robust in both engines.
    spec.cross_rack_throttle = Some(Bandwidth::mbps(300.0));
    spec.link_latency = SimDuration::from_micros(50);
    let mut config = DfsConfig::test_scale();
    config.disk_bandwidth = Bandwidth::unlimited();

    // Engine A: the threaded emulator, real microseconds.
    let sink = RingBufferSink::new(262_144);
    let obs = Obs::new(sink.clone());
    let cluster = MiniCluster::start_with_obs(&spec, config.clone(), seed, obs).unwrap();
    let client = cluster.client().unwrap();
    let data = random_data(seed, upload_bytes);
    client.put("/conformance/a.bin", &data, WriteMode::Smarth).unwrap();
    if read_back {
        let got = client.get("/conformance/a.bin").unwrap();
        assert_eq!(got, data, "striped read must return the written bytes");
    }
    cluster.shutdown();
    let emulator = TraceAssembler::assemble(&sink.snapshot());

    // Engine B: the discrete-event simulator, virtual microseconds.
    let sink = RingBufferSink::new(262_144);
    let obs = Obs::new(sink.clone());
    let mut scenario = SimScenario::new(
        spec,
        config,
        WriteMode::Smarth,
        ByteSize::bytes(upload_bytes as u64),
    );
    scenario.seed = seed;
    scenario.warmup_uploads = 0; // the emulator client above is cold too
    scenario.read_back = read_back;
    simulate_upload_with_obs(&scenario, obs);
    let sim = TraceAssembler::assemble(&sink.snapshot());

    assert!(!emulator.virtual_time, "emulator must report real time");
    assert!(sim.virtual_time, "simulator must report virtual time");
    (emulator, sim)
}

#[test]
fn engines_conform_on_cluster_presets() {
    // (preset name, instance, upload size): a handful of blocks up to a
    // few dozen at the 256 KiB test scale.
    let presets = [
        ("small", InstanceType::Small, 1024 * 1024),
        ("medium", InstanceType::Medium, 2 * 1024 * 1024 + 512 * 1024),
        ("large", InstanceType::Large, 5 * 1024 * 1024),
    ];
    for (name, instance, bytes) in presets {
        let (emulator, sim) = paired_reports(instance, bytes, 0xC0F0 + bytes as u64);
        let verdict = diff_reports(&format!("conformance-{name}"), &emulator, &sim);
        assert!(
            verdict.pass,
            "{name}: engines diverged beyond tolerance\n{}",
            verdict.render()
        );
    }
}

#[test]
fn engines_conform_on_reads() {
    // The read preset: put + full read-back on both engines. Beyond the
    // write-path bands, every paired block must show identical read
    // admission — same span count, same announced stripes, same bytes.
    // The tail block is shorter than a packet: both engines take its
    // stripe count from `DfsConfig::stripes_for` and announce one.
    let (emulator, sim) =
        paired_reports_with_read_back(InstanceType::Medium, 2 * 1024 * 1024 + 5_000, 0xBEAD, true);
    let a = TraceDigest::from_report(&emulator);
    let b = TraceDigest::from_report(&sim);
    assert!(
        a.blocks.iter().all(|x| x.reads == 1 && x.read_stripes >= 1),
        "emulator digest must carry one read span per block"
    );
    for digest in [&a, &b] {
        let stripes: Vec<u64> = digest.blocks.iter().map(|x| x.read_stripes).collect();
        assert_eq!(stripes, [3, 3, 3, 3, 3, 3, 3, 3, 1]);
    }
    assert!(
        a.blocks.iter().all(|x| x.read_bytes == x.bytes),
        "each block must be read back in full"
    );
    let verdict = diff_digests("conformance-read", &a, &b);
    assert!(
        verdict.pass,
        "engines diverged beyond tolerance on the read preset\n{}",
        verdict.render()
    );
}

#[test]
fn perturbed_report_fails_the_bands() {
    let (emulator, sim) = paired_reports(InstanceType::Large, 1024 * 1024, 99);
    let a = TraceDigest::from_report(&emulator);
    let mut b = TraceDigest::from_report(&sim);
    let honest = diff_digests("perturb-baseline", &a, &b);
    assert!(honest.pass, "baseline must pass:\n{}", honest.render());

    // Corrupt one block's payload: positional pairing must flag it as a
    // structural mismatch, not absorb it into a ratio band.
    b.blocks[0].bytes *= 2;
    let verdict = diff_digests("perturb-bytes", &a, &b);
    assert!(!verdict.pass, "doubled payload must fail");
    assert!(
        verdict.failures().iter().any(|m| m.name == "block_size_mismatches"),
        "failure must name the perturbed metric:\n{}",
        verdict.render()
    );

    // Drop a committed block entirely: the exact committed-count gate
    // must fail.
    b.blocks[0].bytes /= 2; // undo
    b.blocks.pop();
    let verdict = diff_digests("perturb-missing", &a, &b);
    assert!(!verdict.pass, "missing block must fail");
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
