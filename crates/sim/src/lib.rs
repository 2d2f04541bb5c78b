//! # smarth-sim
//!
//! Deterministic packet-level discrete-event simulator of the SMARTH and
//! HDFS write protocols at full paper scale (8 GB files, 64 MB blocks,
//! 64 KB packets, Mbps-class links). Algorithm 2, speed tracking and
//! configuration are *shared* with the real implementation through
//! `smarth-core`, and the namenode is the emulator's own, hosted in
//! process on virtual time; only the execution substrate (virtual-time
//! rate servers instead of threads and token buckets) differs. Every figure of §V is regenerated from [`scenario`] sweeps
//! by the `smarth-bench` crate.

#![forbid(unsafe_code)]

pub mod model;
mod queue;
pub mod scenario;
pub mod server;

pub use model::{
    simulate_upload, simulate_upload_with_obs, simulate_upload_with_telemetry, PipelineTrace,
    SimResult, SimScenario,
};
pub use server::RateServer;

#[cfg(test)]
mod tests {
    use super::*;
    use scenario::{contention, heterogeneous, improvement_percent, two_rack};
    use smarth_core::config::{InstanceType, WriteMode};
    use smarth_core::costmodel::{hdfs_upload_time, CostInputs};
    use smarth_core::units::{Bandwidth, ByteSize, SimDuration};

    fn gib(n: u64) -> ByteSize {
        ByteSize::gib(n)
    }

    #[test]
    fn simulation_is_deterministic() {
        let s = two_rack(
            InstanceType::Small,
            gib(1),
            Some(Bandwidth::mbps(100.0)),
            WriteMode::Smarth,
        );
        let a = simulate_upload(&s);
        let b = simulate_upload(&s);
        assert_eq!(a.upload_secs, b.upload_secs);
        assert_eq!(a.first_node_histogram, b.first_node_histogram);
        assert_eq!(a.max_concurrent_pipelines, b.max_concurrent_pipelines);
    }

    #[test]
    fn hdfs_time_matches_cost_model_envelope() {
        // Unthrottled small cluster: the pipeline bottleneck is the
        // 216 Mbps NIC. Formula (2) should predict the simulated time
        // within a small tolerance (the DES adds pipeline fill/drain and
        // per-block RPC serialization the formula ignores).
        let s = two_rack(InstanceType::Small, gib(1), None, WriteMode::Hdfs);
        let sim = simulate_upload(&s);
        let inputs = CostInputs {
            file_size: gib(1),
            block_size: s.config.block_size,
            packet_size: s.config.packet_size,
            t_namenode: s.config.namenode_rpc_cost,
            t_produce: s.config.packet_production_cost,
            t_write: s.config.packet_write_cost,
        };
        let model = hdfs_upload_time(&inputs, Bandwidth::mbps(216.0));
        let ratio = sim.upload_secs / model.total.as_secs_f64();
        assert!(
            (0.9..1.4).contains(&ratio),
            "sim {}s vs model {} (ratio {ratio})",
            sim.upload_secs,
            model.total
        );
    }

    #[test]
    fn hdfs_throttled_time_tracks_bottleneck_bandwidth() {
        // 50 Mbps cross-rack cap → HDFS pipeline rate ≈ 50 Mbps.
        let s = two_rack(
            InstanceType::Small,
            gib(1),
            Some(Bandwidth::mbps(50.0)),
            WriteMode::Hdfs,
        );
        let sim = simulate_upload(&s);
        let expected = 1024.0 * 1024.0 * 1024.0 * 8.0 / 50e6; // 1 GiB at 50 Mbps
        let ratio = sim.upload_secs / expected;
        assert!(
            (0.95..1.4).contains(&ratio),
            "HDFS @50Mbps: sim {:.1}s vs ideal {:.1}s",
            sim.upload_secs,
            expected
        );
    }

    #[test]
    fn throughput_never_exceeds_client_nic() {
        for mode in [WriteMode::Hdfs, WriteMode::Smarth] {
            let s = two_rack(InstanceType::Medium, gib(1), None, mode);
            let r = simulate_upload(&s);
            assert!(
                r.throughput_mbps <= 376.0 * 1.02,
                "{} exceeded NIC: {:.1} Mbps",
                mode.name(),
                r.throughput_mbps
            );
        }
    }

    #[test]
    fn homogeneous_unthrottled_shows_no_big_gain() {
        // §V-B.1: "there is no big gain if the cluster's network status
        // is homogeneous ... without throttling".
        for inst in InstanceType::ALL {
            let h = simulate_upload(&two_rack(inst, gib(2), None, WriteMode::Hdfs));
            let s = simulate_upload(&two_rack(inst, gib(2), None, WriteMode::Smarth));
            let imp = improvement_percent(h.upload_secs, s.upload_secs);
            assert!(
                imp.abs() < 15.0,
                "{}: unexpected gain {imp:.1}% without throttling",
                inst.name()
            );
        }
    }

    #[test]
    fn cross_rack_throttling_gives_smarth_a_large_win() {
        // Figure 6 shape: throttle 50 Mbps → large improvement.
        let h = simulate_upload(&two_rack(
            InstanceType::Small,
            gib(2),
            Some(Bandwidth::mbps(50.0)),
            WriteMode::Hdfs,
        ));
        let s = simulate_upload(&two_rack(
            InstanceType::Small,
            gib(2),
            Some(Bandwidth::mbps(50.0)),
            WriteMode::Smarth,
        ));
        let imp = improvement_percent(h.upload_secs, s.upload_secs);
        assert!(
            imp > 60.0,
            "expected a big win at 50 Mbps, got {imp:.1}% (HDFS {:.0}s, SMARTH {:.0}s)",
            h.upload_secs,
            s.upload_secs
        );
        assert!(
            s.max_concurrent_pipelines >= 2,
            "SMARTH must overlap pipelines under throttling"
        );
    }

    #[test]
    fn improvement_decreases_as_throttle_loosens() {
        // Figures 6/9 shape: gain at 50 > 100 > 150 Mbps.
        let mut imps = Vec::new();
        for mbps in [50.0, 100.0, 150.0] {
            let h = simulate_upload(&two_rack(
                InstanceType::Small,
                gib(2),
                Some(Bandwidth::mbps(mbps)),
                WriteMode::Hdfs,
            ));
            let s = simulate_upload(&two_rack(
                InstanceType::Small,
                gib(2),
                Some(Bandwidth::mbps(mbps)),
                WriteMode::Smarth,
            ));
            imps.push(improvement_percent(h.upload_secs, s.upload_secs));
        }
        assert!(
            imps[0] > imps[1] && imps[1] > imps[2],
            "improvement must fall with looser throttling: {imps:?}"
        );
        assert!(imps[2] > 5.0, "even 150 Mbps should show a gain: {imps:?}");
    }

    #[test]
    fn medium_and_large_clusters_behave_alike() {
        // §V-B.1: medium ≈ large because the NICs are equal.
        for mode in [WriteMode::Hdfs, WriteMode::Smarth] {
            let m = simulate_upload(&two_rack(
                InstanceType::Medium,
                gib(2),
                Some(Bandwidth::mbps(100.0)),
                mode,
            ));
            let l = simulate_upload(&two_rack(
                InstanceType::Large,
                gib(2),
                Some(Bandwidth::mbps(100.0)),
                mode,
            ));
            let ratio = m.upload_secs / l.upload_secs;
            assert!(
                (0.9..1.1).contains(&ratio),
                "{}: medium {:.0}s vs large {:.0}s",
                mode.name(),
                m.upload_secs,
                l.upload_secs
            );
        }
    }

    #[test]
    fn upload_time_is_linear_in_file_size() {
        // Figure 5 shape.
        for mode in [WriteMode::Hdfs, WriteMode::Smarth] {
            let t1 = simulate_upload(&two_rack(
                InstanceType::Small,
                gib(1),
                Some(Bandwidth::mbps(100.0)),
                mode,
            ))
            .upload_secs;
            let t4 = simulate_upload(&two_rack(
                InstanceType::Small,
                gib(4),
                Some(Bandwidth::mbps(100.0)),
                mode,
            ))
            .upload_secs;
            let ratio = t4 / t1;
            assert!(
                (3.4..4.6).contains(&ratio),
                "{}: 4GiB/1GiB time ratio {ratio}",
                mode.name()
            );
        }
    }

    #[test]
    fn contention_single_slow_node_hurts_hdfs_more() {
        // Figure 10 shape at k=1.
        let h = simulate_upload(&contention(
            InstanceType::Small,
            gib(2),
            1,
            Bandwidth::mbps(50.0),
            WriteMode::Hdfs,
        ));
        let s = simulate_upload(&contention(
            InstanceType::Small,
            gib(2),
            1,
            Bandwidth::mbps(50.0),
            WriteMode::Smarth,
        ));
        let imp = improvement_percent(h.upload_secs, s.upload_secs);
        assert!(
            imp > 25.0,
            "one slow node should already help SMARTH: {imp:.1}%"
        );
        // SMARTH must mostly avoid the throttled node (dn0) as first
        // datanode after warm-up.
        let slow_first = s.first_node_histogram.get(&0).copied().unwrap_or(0);
        assert!(
            slow_first <= s.blocks / 8,
            "SMARTH kept picking the slow first node: {slow_first}/{} blocks",
            s.blocks
        );
    }

    #[test]
    fn contention_improvement_grows_with_more_slow_nodes() {
        // Figure 10 shape across k.
        let imp_at = |k: usize| {
            let h = simulate_upload(&contention(
                InstanceType::Small,
                gib(2),
                k,
                Bandwidth::mbps(50.0),
                WriteMode::Hdfs,
            ));
            let s = simulate_upload(&contention(
                InstanceType::Small,
                gib(2),
                k,
                Bandwidth::mbps(50.0),
                WriteMode::Smarth,
            ));
            improvement_percent(h.upload_secs, s.upload_secs)
        };
        let i0 = imp_at(0);
        let i2 = imp_at(2);
        let i4 = imp_at(4);
        assert!(
            i4 > i2 && i2 > i0,
            "improvement must grow with slow nodes: k0={i0:.0}% k2={i2:.0}% k4={i4:.0}%"
        );
    }

    #[test]
    fn milder_contention_throttle_means_smaller_gain() {
        // Figure 12 vs Figure 10: 150 Mbps throttling yields less than
        // 50 Mbps throttling.
        let imp = |throttle: f64| {
            let h = simulate_upload(&contention(
                InstanceType::Small,
                gib(2),
                3,
                Bandwidth::mbps(throttle),
                WriteMode::Hdfs,
            ));
            let s = simulate_upload(&contention(
                InstanceType::Small,
                gib(2),
                3,
                Bandwidth::mbps(throttle),
                WriteMode::Smarth,
            ));
            improvement_percent(h.upload_secs, s.upload_secs)
        };
        let strong = imp(50.0);
        let mild = imp(150.0);
        assert!(
            strong > mild,
            "50 Mbps throttle ({strong:.0}%) must beat 150 Mbps ({mild:.0}%)"
        );
    }

    #[test]
    fn heterogeneous_cluster_shows_paper_scale_gain() {
        // Figure 13: 8 GB on the heterogeneous cluster — paper measured
        // 289 s (HDFS) vs 205 s (SMARTH), a 41 % gain. Accept a broad
        // band around that shape.
        let h = simulate_upload(&heterogeneous(gib(8), WriteMode::Hdfs));
        let s = simulate_upload(&heterogeneous(gib(8), WriteMode::Smarth));
        let imp = improvement_percent(h.upload_secs, s.upload_secs);
        assert!(
            (10.0..150.0).contains(&imp),
            "heterogeneous gain {imp:.1}% (HDFS {:.0}s, SMARTH {:.0}s)",
            h.upload_secs,
            s.upload_secs
        );
        // Absolute times should be in the paper's order of magnitude.
        assert!(
            (100.0..700.0).contains(&h.upload_secs),
            "HDFS heterogeneous time {:.0}s wildly off paper's 289s",
            h.upload_secs
        );
    }

    #[test]
    fn pipeline_cap_respected() {
        let s = simulate_upload(&two_rack(
            InstanceType::Small,
            gib(2),
            Some(Bandwidth::mbps(50.0)),
            WriteMode::Smarth,
        ));
        assert!(s.max_concurrent_pipelines <= 3, "cap 9/3 violated");
    }

    #[test]
    fn warmup_improves_smarth_on_contended_cluster() {
        // A cold client has no speed records; Algorithm 1 falls back to
        // the default policy, so the first upload is no faster than a
        // warmed one.
        let mut cold = contention(
            InstanceType::Small,
            gib(1),
            3,
            Bandwidth::mbps(50.0),
            WriteMode::Smarth,
        );
        cold.warmup_uploads = 0;
        let mut warm = cold.clone();
        warm.warmup_uploads = 2;
        let tc = simulate_upload(&cold).upload_secs;
        let tw = simulate_upload(&warm).upload_secs;
        assert!(
            tw <= tc * 1.02,
            "warmed client should not be slower: cold {tc:.0}s warm {tw:.0}s"
        );
    }

    #[test]
    fn ablation_fnfa_is_the_key_mechanism() {
        // Cap SMARTH at one pipeline: the FNFA can no longer open the
        // next block early, so SMARTH degenerates to roughly
        // HDFS-with-smart-placement and loses most of the gain in the
        // two-rack scenario (where placement matters little because
        // every pipeline crosses racks anyway).
        let base = two_rack(
            InstanceType::Small,
            gib(2),
            Some(Bandwidth::mbps(50.0)),
            WriteMode::Smarth,
        );
        let full = simulate_upload(&base).upload_secs;
        let mut one_pipeline = base.clone();
        one_pipeline.config.max_pipelines_override = Some(1);
        let capped = simulate_upload(&one_pipeline);
        assert_eq!(capped.max_concurrent_pipelines, 1);
        assert!(
            capped.upload_secs > full * 1.5,
            "removing FNFA overlap must hurt badly: full {full:.0}s vs one pipeline {:.0}s",
            capped.upload_secs
        );
    }

    #[test]
    fn local_opt_off_in_the_config_explores_nothing() {
        // The simulator reads the emulator's knob: with Algorithm 2
        // disabled a SMARTH upload makes no exploration swap.
        let mut s = contention(
            InstanceType::Small,
            gib(1),
            3,
            Bandwidth::mbps(50.0),
            WriteMode::Smarth,
        );
        assert!(simulate_upload(&s).explored_swaps > 0, "the default explores");
        s.config.local_opt_enabled = false;
        assert_eq!(simulate_upload(&s).explored_swaps, 0);
    }

    #[test]
    fn tiny_files_and_single_packet_blocks_work() {
        let mut s = two_rack(
            InstanceType::Small,
            ByteSize::bytes(1),
            None,
            WriteMode::Smarth,
        );
        s.warmup_uploads = 0;
        let r = simulate_upload(&s);
        assert_eq!(r.blocks, 1);
        assert!(r.upload_secs > 0.0);

        let s2 = two_rack(
            InstanceType::Small,
            ByteSize::kib(64),
            None,
            WriteMode::Hdfs,
        );
        let r2 = simulate_upload(&s2);
        assert_eq!(r2.blocks, 1);
    }

    #[test]
    fn replication_one_pipelines_work() {
        let mut s = two_rack(
            InstanceType::Small,
            ByteSize::mib(256),
            None,
            WriteMode::Smarth,
        );
        s.config.replication = 1;
        let r = simulate_upload(&s);
        assert_eq!(r.blocks, 4);
        assert!(r.throughput_mbps > 50.0);
    }

    #[test]
    fn event_budget_is_reasonable() {
        // An 8 GiB upload at paper scale must finish (the run() guard
        // panics on runaway loops) and produce the right block count.
        let r = simulate_upload(&two_rack(
            InstanceType::Small,
            gib(8),
            Some(Bandwidth::mbps(100.0)),
            WriteMode::Smarth,
        ));
        assert_eq!(r.blocks, 128);
    }

    #[test]
    fn timeline_is_consistent_with_protocol_semantics() {
        let r = simulate_upload(&two_rack(
            InstanceType::Small,
            ByteSize::mib(512),
            Some(Bandwidth::mbps(60.0)),
            WriteMode::Smarth,
        ));
        assert_eq!(r.timeline.len(), r.blocks as usize);
        for t in &r.timeline {
            let fnfa = t.fnfa_secs.expect("SMARTH pipelines emit FNFA");
            assert!(t.open_secs <= fnfa, "open {} > fnfa {fnfa}", t.open_secs);
            assert!(fnfa <= t.done_secs, "fnfa {fnfa} > done {}", t.done_secs);
        }
        // The reported high-water mark matches the interval overlap.
        let max_overlap = r
            .timeline
            .iter()
            .map(|a| {
                r.timeline
                    .iter()
                    .filter(|b| b.open_secs <= a.open_secs && a.open_secs < b.done_secs)
                    .count()
            })
            .max()
            .unwrap_or(0);
        assert_eq!(max_overlap, r.max_concurrent_pipelines);

        // HDFS pipelines have no FNFA and never overlap.
        let h = simulate_upload(&two_rack(
            InstanceType::Small,
            ByteSize::mib(512),
            Some(Bandwidth::mbps(60.0)),
            WriteMode::Hdfs,
        ));
        assert!(h.timeline.iter().all(|t| t.fnfa_secs.is_none()));
        for w in h.timeline.windows(2) {
            assert!(
                w[1].open_secs >= w[0].done_secs - 1e-9,
                "HDFS pipelines must be serialized"
            );
        }
    }

    /// The benchmark's six cases at 256 MiB, each read back: upload and
    /// read seconds, compared by `f64::to_bits` (each literal is the
    /// shortest decimal that parses to the recorded bits), recorded
    /// when placement moved onto the hosted namenode's RNG. A change to
    /// what the DES computes, or an event popped before one due earlier,
    /// moves these without regenerating the figures. The order of events
    /// due at one instant moves neither these nor any figure;
    /// `queue.rs`'s test holds it.
    #[test]
    fn des_results_are_pinned_bit_for_bit() {
        use WriteMode::{Hdfs, Smarth};
        let (mib, mbps) = (ByteSize::mib(256), Bandwidth::mbps);
        let golden = [
            ("two_rack", Hdfs, 21.552454028, 17.814643744),
            ("two_rack", Smarth, 18.644589517, 17.814643744),
            ("contention", Hdfs, 43.03328946, 20.74226122),
            ("contention", Smarth, 24.366542637, 13.5839825),
            ("heterogeneous", Hdfs, 9.997566864, 9.739721704),
            ("heterogeneous", Smarth, 8.914404864, 9.034611508),
        ];
        let bits = |(name, mode, up, read): (&'static str, WriteMode, f64, f64)| {
            (name, mode, f64::to_bits(up), f64::to_bits(read))
        };
        for case in golden {
            let (name, mode, _, _) = case;
            let mut s = match name {
                "two_rack" => two_rack(InstanceType::Small, mib, Some(mbps(100.0)), mode),
                "contention" => contention(InstanceType::Medium, mib, 3, mbps(50.0), mode),
                _ => heterogeneous(mib, mode),
            };
            s.read_back = true;
            let r = simulate_upload(&s);
            let read = r.read_secs.expect("a read_back scenario reads");
            let got = (name, mode, r.upload_secs, read);
            assert_eq!(bits(got), bits(case), "{got:?}");
        }
    }

    #[test]
    fn duration_unit_sanity() {
        // Guard against unit slips: 1 GiB at exactly 100 Mbps is ~86 s.
        let expected = 1024.0 * 1024.0 * 1024.0 * 8.0 / 100e6;
        assert!((SimDuration::from_secs_f64(expected).as_secs_f64() - 85.9).abs() < 0.1);
    }
}
