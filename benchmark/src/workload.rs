//! What the four workloads share: the shape of one round's result, the
//! failure tally, and the factory that sets a workload up.

use crate::bulk::Bulk;
use crate::cluster::Shape;
use crate::simw::SimWorkload;
use crate::small::SmallFiles;
use crate::spans::Tracer;
use smarth_core::config::DfsConfig;
use smarth_core::error::DfsResult;
use smarth_core::ids::ClientId;
use smarth_core::obs::Obs;
use std::time::{Duration, Instant};

pub const MIB: f64 = (1u64 << 20) as f64;
pub const GIB: f64 = (1u64 << 30) as f64;

/// Operations attempted and failed. A failed, refused or byte-mismatched
/// operation, or a failed correctness check, counts as failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One round's outcome.
#[derive(Debug, Default)]
pub struct RoundOut {
    /// The per-round value of each per-round end-to-end metric.
    pub values: Vec<(&'static str, f64)>,
    pub tally: Tally,
    /// Payload bytes moved through the engine in the timed phases
    /// (harness housekeeping between them, the replica purge and the
    /// replica-count polling, is outside every timing).
    pub payload_bytes: u64,
    /// Per-layer values only this workload can measure (the DES rows).
    pub layer_values: Vec<(String, f64)>,
    /// `(smarth, hdfs)` upload throughput in MiB/s to hold against the
    /// cost model, on the workloads Formulas 1–3 apply to.
    pub model_measured: Option<(f64, f64)>,
    /// Bytes of the files this round put while events were recorded:
    /// what the registry's `bytes_written` must have grown by.
    pub traced_written_bytes: u64,
    /// Seconds of the SMARTH put work a traced round records events
    /// for; traced against untraced gives the tracing overhead.
    pub smarth_put_s: f64,
}

impl RoundOut {
    pub fn value(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// The parameters the layer pass isolates each layer at: the packet and
/// block sizes, the cluster width and the link latency of the workload.
#[derive(Debug, Clone)]
pub struct OperatingPoint {
    pub config: DfsConfig,
    pub datanodes: usize,
    pub link_latency: Duration,
}

pub trait Workload: Send {
    /// Runs one fixed-size round. `index` only decides which protocol
    /// goes first, so that SMARTH and HDFS alternate.
    fn round(&mut self, index: usize, tracer: &Tracer) -> RoundOut;
    fn operating_point(&self) -> OperatingPoint;
    /// Seconds `MiniCluster::start` (or its hand-assembled equal) took.
    fn cluster_start_s(&self) -> f64;
    /// The client each load thread (span lane) writes with.
    fn writer_clients(&self) -> Vec<ClientId>;
    /// Cost-model prediction `(smarth, hdfs)` in MiB/s for this
    /// workload's parameters, where Formulas 1–3 apply to it.
    fn predicted_mibps(&self) -> Option<(f64, f64)>;
    /// True when every round does bit-identical work (the simulator).
    /// Such rounds differ only by interference from outside, which only
    /// ever slows them, so the fastest round is the measurement. Rounds
    /// of the threaded emulator differ in earnest (thread interleavings,
    /// token-bucket state) and are reported by their median.
    fn rounds_repeat_exactly(&self) -> bool {
        false
    }
    /// Orderly shutdown; returns how long it took.
    fn shutdown(self: Box<Self>) -> f64;
}

/// Sets a workload up: cluster start, registration, generated inputs,
/// corpus or prefill upload. The warm-up round is the caller's.
pub fn set_up(name: &str, seed: u64, obs: Obs) -> DfsResult<Box<dyn Workload>> {
    Ok(match name {
        "shaped_bulk" => Box::new(Bulk::set_up(Shape::Shaped, seed, obs)?),
        "unshaped_bulk" => Box::new(Bulk::set_up(Shape::Unshaped, seed, obs)?),
        "small_files" => Box::new(SmallFiles::set_up(seed, obs)?),
        "sim_paper_scale" => Box::new(SimWorkload::set_up(seed, obs)),
        other => panic!("unknown workload {other}"),
    })
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Polls `done` for up to half a second. The datanodes report replicas
/// to the namenode off the client's critical path, so a count read right
/// after `put` returns may still be on its way.
pub fn eventually(mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_millis(500);
    loop {
        if done() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}
