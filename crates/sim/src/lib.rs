//! # smarth-sim
//!
//! Deterministic packet-level discrete-event simulator of the SMARTH and
//! HDFS write protocols at full paper scale (8 GB files, 64 MB blocks,
//! 64 KB packets, Mbps-class links). Algorithm 2, speed tracking and
//! configuration are *shared* with the real implementation through
//! `smarth-core`, and the namenode is the emulator's own, hosted in
//! process on virtual time; only the execution substrate (virtual-time
//! rate servers instead of threads and token buckets) differs. Every figure of §V is regenerated from [`scenario`] sweeps
//! by the `smarth-bench` crate, and the shapes they argue from are
//! [`claims`], judged over a seed ensemble.

#![forbid(unsafe_code)]

pub mod claims;
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
    use scenario::{contention, heterogeneous, two_rack};
    use smarth_core::config::{InstanceType, WriteMode};
    use smarth_core::units::{Bandwidth, ByteSize, SimDuration};

    /// `two_rack` on the small cluster, with an optional cross-rack throttle.
    fn small(size: ByteSize, mbps: Option<f64>, mode: WriteMode) -> SimScenario {
        two_rack(InstanceType::Small, size, mbps.map(Bandwidth::mbps), mode)
    }

    #[test]
    fn local_opt_off_in_the_config_explores_nothing() {
        // The simulator reads the emulator's knob: with Algorithm 2
        // disabled a SMARTH upload makes no exploration swap.
        let (gib, mbps) = (ByteSize::gib(1), Bandwidth::mbps(50.0));
        let mut s = contention(InstanceType::Small, gib, 3, mbps, WriteMode::Smarth);
        assert!(simulate_upload(&s).explored_swaps > 0, "the default explores");
        s.config.local_opt_enabled = false;
        assert_eq!(simulate_upload(&s).explored_swaps, 0);
    }

    #[test]
    fn tiny_files_and_single_packet_blocks_work() {
        let mut s = small(ByteSize::bytes(1), None, WriteMode::Smarth);
        s.warmup_uploads = 0;
        let r = simulate_upload(&s);
        assert_eq!(r.blocks, 1);
        assert!(r.upload_secs > 0.0);

        let r2 = simulate_upload(&small(ByteSize::kib(64), None, WriteMode::Hdfs));
        assert_eq!(r2.blocks, 1);
    }

    #[test]
    fn replication_one_pipelines_work() {
        let mut s = small(ByteSize::mib(256), None, WriteMode::Smarth);
        s.config.replication = 1;
        let r = simulate_upload(&s);
        assert_eq!(r.blocks, 4);
        assert!(r.throughput_mbps > 50.0);
    }

    #[test]
    fn timeline_is_consistent_with_protocol_semantics() {
        let run = |mode| simulate_upload(&small(ByteSize::mib(512), Some(60.0), mode));
        let r = run(WriteMode::Smarth);
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
        let h = run(WriteMode::Hdfs);
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
