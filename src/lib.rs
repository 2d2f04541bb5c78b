//! # smarth
//!
//! Facade crate for the SMARTH reproduction (ICPP 2014, "SMARTH:
//! Enabling Multi-pipeline Data Transfer in HDFS"). Re-exports the whole
//! workspace so examples and downstream users need a single dependency:
//!
//! * [`core`] — shared types, config, placement algorithms, cost model.
//! * [`fabric`] — real-time in-memory network emulation.
//! * [`namenode`] / [`datanode`] / [`client`] — the DFS node
//!   implementations with both the stock HDFS and the SMARTH write
//!   protocols.
//! * [`cluster`] — MiniCluster orchestration and the paper's scenarios.
//! * [`sim`] — deterministic discrete-event simulator at paper scale.

#![forbid(unsafe_code)]

pub use smarth_client as client;
pub use smarth_cluster as cluster;
pub use smarth_core as core;
pub use smarth_datanode as datanode;
pub use smarth_fabric as fabric;
pub use smarth_namenode as namenode;
pub use smarth_sim as sim;
