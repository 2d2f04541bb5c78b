//! Integration tests for the live telemetry plane
//! (`smarth_core::obs::telemetry`): a throttled writer observed through
//! a wall-clock `Sampler` whose counter-rate series reconstruct the
//! upload, a deliberately starved SLO that must fail with the violating
//! windows identified, and a structural comparison of the emulator's
//! and the simulator's series on the same two-rack preset.

use smarth::cluster::{random_data, MiniCluster};
use smarth::core::obs::telemetry::{
    MetricKind, Sampler, SloKind, SloObjective, SloTracker, TelemetrySeries,
};
use smarth::core::obs::{Obs, RingBufferSink};
use smarth::core::units::{Bandwidth, ByteSize};
use smarth::core::{ClusterSpec, DfsConfig, InstanceType, SimDuration, WriteMode};
use smarth::sim::scenario::two_rack;
use smarth::sim::simulate_upload_with_telemetry;
use std::sync::Arc;
use std::time::Duration;

const UPLOAD_BYTES: usize = 2_500_000; // 10 blocks at the 256 KiB test scale
const NIC_MBPS: f64 = 40.0;

fn fast_config() -> DfsConfig {
    let mut c = DfsConfig::test_scale();
    c.disk_bandwidth = Bandwidth::unlimited();
    c.heartbeat_interval = SimDuration::from_millis(25);
    c
}

/// Uploads one file on a cluster whose client NIC is shaped to
/// `nic_mbps`, sampling the shared metrics registry from the test
/// thread every 10 ms — the same wall-clock capture the datanode
/// heartbeat loop performs — and returns the derived series plus the
/// sampler (frames and registry) it was derived from.
fn sampled_upload(seed: u64, nic_mbps: f64) -> (TelemetrySeries, Arc<Sampler>) {
    let obs = Obs::new(RingBufferSink::new(4096));
    let metrics = Arc::clone(obs.metrics());
    let sampler = Sampler::new(metrics.clone(), 4096);

    let spec = ClusterSpec::homogeneous(InstanceType::Large);
    let cluster = MiniCluster::start_with_obs(&spec, fast_config(), seed, obs).unwrap();
    let client_host = cluster.spec().client_host().name.clone();
    cluster
        .throttle_host(&client_host, Some(Bandwidth::mbps(nic_mbps)))
        .unwrap();
    let client = cluster.client().unwrap();
    let data = random_data(seed, UPLOAD_BYTES);

    sampler.sample_at(Obs::now_us());
    let writer = std::thread::spawn(move || {
        client
            .put("/telemetry/file.bin", &data, WriteMode::Smarth)
            .unwrap()
    });
    while !writer.is_finished() {
        std::thread::sleep(Duration::from_millis(10));
        sampler.sample_at(Obs::now_us());
    }
    let report = writer.join().unwrap();
    assert_eq!(report.stats.bytes_written, UPLOAD_BYTES as u64);
    sampler.sample_at(Obs::now_us());
    cluster.shutdown();

    (sampler.series(), sampler)
}

#[test]
fn counter_rates_reconstruct_a_throttled_writers_throughput() {
    let (series, sampler) = sampled_upload(31, NIC_MBPS);
    let metrics = sampler.metrics();
    let bw = series.get("bytes_written").expect("bytes_written series");
    assert!(
        series.frames_len() >= 5,
        "a shaped upload spans several 10 ms sampling windows, got {} frames",
        series.frames_len()
    );

    // Integrating rate over the window durations must reproduce the
    // counter's total to within float noise.
    let mut integrated = 0.0;
    for (i, rate) in bw.rates.iter().enumerate() {
        let dt_s = (bw.points[i + 1].t_us - bw.points[i].t_us) as f64 / 1e6;
        integrated += rate.value * dt_s;
    }
    let total = metrics.bytes_written.get() as f64;
    assert_eq!(total, UPLOAD_BYTES as f64);
    assert!(
        (integrated - total).abs() / total < 0.01,
        "sum(rate x dt) = {integrated:.0} must reconstruct the {total:.0}-byte upload"
    );

    // The mean rate over the active region must reflect the shaped NIC:
    // far below memory speed, not implausibly above the throttle. The
    // client stages packets ahead of the wire, so individual windows
    // may burst; the band is deliberately loose.
    let (lo, hi) = bw.active_span().expect("the upload moved bytes");
    let active_s = (bw.rates[hi].t_us - bw.points[lo].t_us) as f64 / 1e6;
    let active_bytes: f64 = (lo..=hi)
        .map(|i| bw.rates[i].value * (bw.points[i + 1].t_us - bw.points[i].t_us) as f64 / 1e6)
        .sum();
    let mean_mbps = active_bytes * 8.0 / 1e6 / active_s;
    assert!(
        mean_mbps <= NIC_MBPS * 2.0,
        "mean {mean_mbps:.1} Mbps cannot meaningfully exceed the {NIC_MBPS} Mbps NIC"
    );
    assert!(
        mean_mbps >= NIC_MBPS * 0.05,
        "mean {mean_mbps:.1} Mbps is implausibly slow for a {NIC_MBPS} Mbps NIC"
    );
}

#[test]
fn starved_slo_fails_with_the_violating_windows_identified() {
    let (series, sampler) = sampled_upload(32, NIC_MBPS);

    // A sustained-throughput floor far above the shaped NIC: 10 Gbit/s
    // against a 40 Mbit/s link. Every active window must fall short.
    let floor_mbps = 10_000.0;
    let tracker = SloTracker::new(vec![SloObjective {
        name: "impossible_floor".into(),
        metric: "bytes_written".into(),
        kind: SloKind::ThroughputFloorMbps,
        target: floor_mbps,
    }]);
    let verdict = tracker.evaluate(&series);

    assert!(!verdict.pass, "a floor above the NIC cannot be met");
    let obj = &verdict.objectives[0];
    assert!(!obj.pass);
    assert_eq!(obj.objective.metric, "bytes_written");
    assert!(
        obj.observed < floor_mbps,
        "worst observed rate {:.1} Mbps must be under the floor",
        obj.observed
    );
    assert!(
        !obj.violations.is_empty(),
        "the verdict must identify the violating windows"
    );
    let bw = series.get("bytes_written").unwrap();
    for w in &obj.violations {
        assert!(w.index < bw.rates.len());
        assert!(w.from_us < w.to_us, "a violation window spans real time");
        assert_eq!(w.from_us, bw.points[w.index].t_us);
        assert_eq!(w.to_us, bw.rates[w.index].t_us);
        assert!(w.observed < floor_mbps);
    }
    // Every active window is starved, so all of them are reported.
    let (lo, hi) = bw.active_span().unwrap();
    assert_eq!(obj.violations.len(), hi - lo + 1);

    // The standard objectives are lenient by design: the same capture
    // passes them, so soak verdicts only flag genuine pathology. Judged
    // over 100 ms windows (every tenth frame): a writer descheduled for
    // one 10 ms tick moves nothing in it, which is scheduler noise and
    // not a starved upload, and no sampler in the system ticks that
    // finely (heartbeat loops: 25 ms here; soak monitor: per window).
    let coarse: Vec<_> = sampler.frames().into_iter().step_by(10).collect();
    let lenient = SloTracker::standard().evaluate(&TelemetrySeries::from_frames(&coarse));
    assert!(lenient.pass, "{lenient:?}");
}

#[test]
fn emulator_and_des_samplers_produce_structurally_comparable_series() {
    let (emu, _sampler) = sampled_upload(33, NIC_MBPS);

    let obs = Obs::new(RingBufferSink::new(65_536));
    let sampler = Sampler::new(Arc::clone(obs.metrics()), 4096);
    let file_size = ByteSize::mib(512);
    let scenario = two_rack(
        InstanceType::Small,
        file_size,
        Some(Bandwidth::mbps(60.0)),
        WriteMode::Smarth,
    );
    // 100 ms of virtual time per frame, against the emulator's 10 ms of
    // wall time — cadences differ, the derived structure must not.
    let result = simulate_upload_with_telemetry(&scenario, obs, sampler.clone(), 100_000);
    let des = sampler.series();

    assert!(emu.frames_len() >= 2, "emulator capture must have frames");
    assert!(des.frames_len() >= 2, "DES capture must have frames");

    // Same descriptor table, same order, same kinds.
    let shape = |s: &TelemetrySeries| -> Vec<(String, MetricKind)> {
        s.series.iter().map(|m| (m.name.clone(), m.kind)).collect()
    };
    assert_eq!(shape(&emu), shape(&des));

    // Every column of a capture is derived from the same frames.
    for s in &emu.series {
        assert_eq!(s.points.len(), emu.frames_len());
    }
    for s in &des.series {
        assert_eq!(s.points.len(), des.frames_len());
    }

    for s in emu.series.iter().chain(des.series.iter()) {
        assert!(
            s.points.windows(2).all(|w| w[0].t_us < w[1].t_us),
            "{}: timestamps must be strictly increasing",
            s.name
        );
        if s.kind == MetricKind::Counter {
            assert!(
                s.points.windows(2).all(|w| w[0].value <= w[1].value),
                "{}: counters must be monotone",
                s.name
            );
            assert_eq!(s.rates.len(), s.points.len() - 1);
            assert!(s.rates.iter().all(|r| r.value >= 0.0));
        } else {
            assert!(s.rates.is_empty(), "{}: only counters derive rates", s.name);
        }
    }

    // Both engines saw the upload in their bytes_written column.
    let emu_bytes = emu.get("bytes_written").unwrap().points.last().unwrap().value;
    assert_eq!(emu_bytes, UPLOAD_BYTES as f64);
    let des_bytes = des.get("bytes_written").unwrap().points.last().unwrap().value;
    assert_eq!(des_bytes, file_size.as_u64() as f64);

    // The DES capture is stamped in virtual time: it starts at the
    // virtual epoch and ends no later than the measured upload.
    let des_bw = des.get("bytes_written").unwrap();
    assert_eq!(des_bw.points.first().unwrap().t_us, 0);
    let last_us = des_bw.points.last().unwrap().t_us;
    assert!(last_us as f64 / 1e6 <= result.upload_secs + 1e-6);
}
