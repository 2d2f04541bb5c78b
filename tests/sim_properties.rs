//! Property-based tests over the discrete-event simulator: invariants
//! that must hold for *any* scenario in the supported parameter space,
//! checked against randomly drawn configurations.

use proptest::prelude::*;
use smarth::core::obs::{Obs, RingBufferSink};
use smarth::core::units::{Bandwidth, ByteSize};
use smarth::core::{InstanceType, WriteMode};
use smarth::sim::scenario::two_rack;
use smarth::sim::{simulate_upload, simulate_upload_with_obs};

fn instance_strategy() -> impl Strategy<Value = InstanceType> {
    prop_oneof![
        Just(InstanceType::Small),
        Just(InstanceType::Medium),
        Just(InstanceType::Large),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    /// Throughput can never exceed the client NIC — bytes leave the
    /// client exactly once in both protocols.
    #[test]
    fn throughput_bounded_by_client_nic(
        inst in instance_strategy(),
        mib in 64u64..512,
        throttle in prop_oneof![Just(None), (30u32..200).prop_map(Some)],
        smarth_mode in any::<bool>(),
    ) {
        let mode = if smarth_mode { WriteMode::Smarth } else { WriteMode::Hdfs };
        let mut s = two_rack(
            inst,
            ByteSize::mib(mib),
            throttle.map(|m| Bandwidth::mbps(m as f64)),
            mode,
        );
        s.warmup_uploads = 0;
        let r = simulate_upload(&s);
        let nic = inst.network_bandwidth().as_mbps();
        prop_assert!(
            r.throughput_mbps <= nic * 1.02,
            "throughput {:.1} exceeds NIC {:.1}", r.throughput_mbps, nic
        );
        prop_assert!(r.upload_secs > 0.0);
        prop_assert_eq!(r.file_bytes, mib * 1024 * 1024);
    }

    /// HDFS throughput is additionally bounded by the cross-rack
    /// throttle (the pipeline always crosses racks with replication 3
    /// and the default rack rules), while SMARTH may exceed it.
    #[test]
    fn hdfs_bounded_by_cross_rack_throttle(
        mib in 128u64..512,
        throttle_mbps in 30u32..150,
    ) {
        let mut s = two_rack(
            InstanceType::Medium,
            ByteSize::mib(mib),
            Some(Bandwidth::mbps(throttle_mbps as f64)),
            WriteMode::Hdfs,
        );
        s.warmup_uploads = 0;
        let r = simulate_upload(&s);
        prop_assert!(
            r.throughput_mbps <= throttle_mbps as f64 * 1.05,
            "HDFS {:.1} Mbps exceeds throttle {throttle_mbps}",
            r.throughput_mbps
        );
    }

    /// Upload time is monotone non-decreasing in file size.
    #[test]
    fn monotone_in_file_size(
        mib in 64u64..256,
        extra in 32u64..256,
        smarth_mode in any::<bool>(),
    ) {
        let mode = if smarth_mode { WriteMode::Smarth } else { WriteMode::Hdfs };
        let bw = Some(Bandwidth::mbps(100.0));
        let mut small = two_rack(InstanceType::Small, ByteSize::mib(mib), bw, mode);
        small.warmup_uploads = 0;
        let mut large = two_rack(InstanceType::Small, ByteSize::mib(mib + extra), bw, mode);
        large.warmup_uploads = 0;
        let ts = simulate_upload(&small).upload_secs;
        let tl = simulate_upload(&large).upload_secs;
        prop_assert!(tl >= ts, "larger file faster: {tl} < {ts}");
    }

    /// SMARTH never loses to HDFS by more than protocol noise, for any
    /// throttle level, once warmed up.
    #[test]
    fn smarth_never_substantially_worse(
        throttle_mbps in 30u32..200,
    ) {
        let bw = Some(Bandwidth::mbps(throttle_mbps as f64));
        let h = simulate_upload(&two_rack(
            InstanceType::Small, ByteSize::mib(512), bw, WriteMode::Hdfs));
        let s = simulate_upload(&two_rack(
            InstanceType::Small, ByteSize::mib(512), bw, WriteMode::Smarth));
        prop_assert!(
            s.upload_secs <= h.upload_secs * 1.10,
            "SMARTH {:.1}s much worse than HDFS {:.1}s at {throttle_mbps} Mbps",
            s.upload_secs, h.upload_secs
        );
    }

    /// Determinism: equal scenarios (same seed) produce identical
    /// results; different seeds may differ but stay within the same
    /// physical envelope.
    #[test]
    fn seeded_determinism(seed in any::<u64>()) {
        let mut a = two_rack(
            InstanceType::Small,
            ByteSize::mib(256),
            Some(Bandwidth::mbps(80.0)),
            WriteMode::Smarth,
        );
        a.seed = seed;
        a.warmup_uploads = 0;
        let r1 = simulate_upload(&a);
        let r2 = simulate_upload(&a);
        prop_assert_eq!(r1.upload_secs, r2.upload_secs);
        prop_assert_eq!(r1.first_node_histogram, r2.first_node_histogram);
    }

    /// Determinism extends beyond aggregates to the full event
    /// structure: two runs of the same seeded scenario must emit the
    /// same event stream, record for record (times, order, payloads).
    #[test]
    fn seeded_determinism_extends_to_trace_digests(
        seed in any::<u64>(),
        mib in 64u64..256,
    ) {
        let events = || {
            let sink = RingBufferSink::new(65_536);
            let obs = Obs::new(sink.clone());
            let mut s = two_rack(
                InstanceType::Small,
                ByteSize::mib(mib),
                Some(Bandwidth::mbps(80.0)),
                WriteMode::Smarth,
            );
            s.seed = seed;
            s.warmup_uploads = 0;
            simulate_upload_with_obs(&s, obs);
            sink.snapshot()
        };
        let a = events();
        prop_assert!(!a.is_empty());
        prop_assert!(a == events(), "same seed and spec must emit the same events");
    }

    /// The pipeline cap (active datanodes / replication) holds for any
    /// replication factor.
    #[test]
    fn pipeline_cap_holds_for_any_replication(repl in 1usize..5) {
        let mut s = two_rack(
            InstanceType::Small,
            ByteSize::mib(512),
            Some(Bandwidth::mbps(50.0)),
            WriteMode::Smarth,
        );
        s.config.replication = repl;
        s.warmup_uploads = 0;
        let r = simulate_upload(&s);
        let cap = (9 / repl).max(1);
        prop_assert!(
            r.max_concurrent_pipelines <= cap,
            "{} pipelines exceeds cap {cap} at repl {repl}",
            r.max_concurrent_pipelines
        );
    }
}
