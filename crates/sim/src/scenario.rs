//! Ready-made scenarios for every experiment in §V, parameterized the
//! way the paper's figures sweep them.

use crate::model::SimScenario;
use smarth_core::config::{ClusterSpec, DfsConfig, InstanceType, WriteMode};
use smarth_core::units::{Bandwidth, ByteSize};

/// §V-B.1 two-rack scenario: homogeneous cluster of `instance` nodes,
/// optional cross-rack `tc` throttle.
pub fn two_rack(
    instance: InstanceType,
    file_size: ByteSize,
    cross_rack_throttle: Option<Bandwidth>,
    mode: WriteMode,
) -> SimScenario {
    let mut spec = ClusterSpec::homogeneous(instance);
    spec.cross_rack_throttle = cross_rack_throttle;
    SimScenario::new(spec, DfsConfig::paper_scale(), mode, file_size)
}

/// §V-B.2 bandwidth-contention scenario: homogeneous cluster with the
/// first `k` datanodes throttled to `throttle` in both directions.
pub fn contention(
    instance: InstanceType,
    file_size: ByteSize,
    k_throttled: usize,
    throttle: Bandwidth,
    mode: WriteMode,
) -> SimScenario {
    let spec =
        ClusterSpec::homogeneous(instance).with_throttled_datanodes(k_throttled, throttle);
    SimScenario::new(spec, DfsConfig::paper_scale(), mode, file_size)
}

/// §V-B.3 heterogeneous scenario: 3 small + 3 medium + 3 large
/// datanodes, medium namenode/client.
pub fn heterogeneous(file_size: ByteSize, mode: WriteMode) -> SimScenario {
    SimScenario::new(
        ClusterSpec::heterogeneous(),
        DfsConfig::paper_scale(),
        mode,
        file_size,
    )
}

/// The paper's improvement metric between two runs.
pub fn improvement_percent(hdfs_secs: f64, smarth_secs: f64) -> f64 {
    (hdfs_secs / smarth_secs - 1.0) * 100.0
}
