//! # smarth-namenode
//!
//! The namenode of the mini-DFS: filesystem namespace with leases and
//! safe mode, block manager with generation stamps and replica tracking,
//! datanode membership with heartbeat liveness, the per-client speed
//! registry (§III-B) and both placement policies wired into the
//! `addBlock` path — the stock HDFS strategy for `WriteMode::Hdfs`
//! streams and Algorithm 1 for `WriteMode::Smarth` streams.

#![forbid(unsafe_code)]

pub mod block_mgr;
mod clock;
pub mod datanode_mgr;
pub mod namespace;
pub mod server;

pub use block_mgr::BlockManager;
pub use clock::Clock;
pub use datanode_mgr::DatanodeManager;
pub use namespace::FsNamespace;
pub use server::{ClusterReport, DatanodeReport, NameNode, NameNodeState};
