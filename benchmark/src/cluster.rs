//! The two cluster shapes the emulator workloads run on.
//!
//! `Shaped` is the paper cluster through `MiniCluster`. `Unshaped` needs
//! NICs with no token bucket at all, which a `ClusterSpec` cannot say
//! (an instance type always carries its Table I NIC rate and a throttle
//! only lowers it), so that cluster is assembled from the same public
//! parts `MiniCluster::start` uses: `Fabric`, `NameNode`, `DataNode`,
//! `DfsClient`.

use smarth_client::DfsClient;
use smarth_cluster::MiniCluster;
use smarth_core::config::{ClusterSpec, DfsConfig, InstanceType};
use smarth_core::error::DfsResult;
use smarth_core::ids::BlockId;
use smarth_core::obs::Obs;
use smarth_core::units::{Bandwidth, ByteSize};
use smarth_datanode::{BlockStore, DataNode};
use smarth_fabric::{Fabric, FabricConfig};
use smarth_namenode::{NameNode, NameNodeState};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

const RACK: &str = "rack-a";
const CLIENT_HOST: &str = "client";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `ClusterSpec::homogeneous(Large)`: 9 datanodes on two racks,
    /// 376 Mbps NICs, 300 µs links; test-scale geometry with the disk
    /// shaped to the NIC rate.
    Shaped,
    /// 3 datanodes (the replication width), no NIC or disk bucket, no
    /// link latency, 2 MiB blocks and 64 KiB packets.
    Unshaped,
}

impl Shape {
    pub fn config(self) -> DfsConfig {
        let mut c = DfsConfig::test_scale();
        match self {
            Shape::Shaped => c.disk_bandwidth = Bandwidth::mbps(376.0),
            Shape::Unshaped => {
                c.disk_bandwidth = Bandwidth::unlimited();
                c.block_size = ByteSize::mib(2);
                c.packet_size = ByteSize::kib(64);
                // The paper's geometry: the first node buffers one block.
                c.datanode_client_buffer = c.block_size;
            }
        }
        c
    }

    pub fn datanodes(self) -> usize {
        match self {
            Shape::Shaped => 9,
            Shape::Unshaped => 3,
        }
    }

    pub fn link_latency(self) -> Duration {
        match self {
            Shape::Shaped => Duration::from_micros(300),
            Shape::Unshaped => Duration::ZERO,
        }
    }

    /// Client NIC rate in MiB/s; `None` when nothing shapes it.
    pub fn line_rate_mibps(self) -> Option<f64> {
        match self {
            Shape::Shaped => Some(Bandwidth::mbps(376.0).as_bytes_per_sec() / (1u64 << 20) as f64),
            Shape::Unshaped => None,
        }
    }
}

struct Parts {
    fabric: Fabric,
    namenode: NameNode,
    datanodes: Vec<DataNode>,
    config: DfsConfig,
    seed: u64,
    obs: Obs,
}

enum Inner {
    Mini(MiniCluster),
    Parts(Parts),
}

pub struct Cluster(Inner);

impl Cluster {
    pub fn start(shape: Shape, seed: u64, obs: Obs) -> DfsResult<Self> {
        let config = shape.config();
        Ok(Cluster(match shape {
            Shape::Shaped => Inner::Mini(MiniCluster::start_with_obs(
                &ClusterSpec::homogeneous(InstanceType::Large),
                config,
                seed,
                obs,
            )?),
            Shape::Unshaped => {
                let fabric = Fabric::new(FabricConfig {
                    latency: shape.link_latency(),
                    socket_buffer: config.socket_buffer.as_u64() as usize,
                    chunk_size: 8 * 1024,
                });
                fabric.add_host("namenode", RACK, Bandwidth::unlimited());
                fabric.add_host(CLIENT_HOST, RACK, Bandwidth::unlimited());
                let namenode = NameNode::start_with_obs(
                    &fabric,
                    "namenode",
                    config.clone(),
                    seed,
                    obs.clone(),
                )?;
                let mut datanodes = Vec::new();
                for i in 0..shape.datanodes() {
                    let host = format!("dn{i}");
                    fabric.add_host(&host, RACK, Bandwidth::unlimited());
                    datanodes.push(DataNode::start_with_obs(
                        &fabric,
                        &host,
                        RACK,
                        &namenode.datanode_addr(),
                        config.clone(),
                        obs.clone(),
                    )?);
                }
                Inner::Parts(Parts {
                    fabric,
                    namenode,
                    datanodes,
                    config,
                    seed,
                    obs,
                })
            }
        }))
    }

    /// A new client session on the client host.
    pub fn client(&self) -> DfsResult<DfsClient> {
        match &self.0 {
            Inner::Mini(m) => m.client(),
            Inner::Parts(p) => DfsClient::connect_with_obs(
                &p.fabric,
                CLIENT_HOST,
                RACK,
                &p.namenode.client_addr(),
                p.config.clone(),
                p.seed ^ 0x9E37_79B9_7F4A_7C15,
                p.obs.clone(),
            ),
        }
    }

    pub fn config(&self) -> &DfsConfig {
        match &self.0 {
            Inner::Mini(m) => m.config(),
            Inner::Parts(p) => &p.config,
        }
    }

    pub fn namenode_state(&self) -> &Arc<NameNodeState> {
        match &self.0 {
            Inner::Mini(m) => m.namenode_state(),
            Inner::Parts(p) => p.namenode.state(),
        }
    }

    fn stores(&self) -> Vec<&BlockStore> {
        match &self.0 {
            Inner::Mini(m) => m
                .datanode_hosts()
                .iter()
                .filter_map(|h| m.datanode(h))
                .map(DataNode::store)
                .collect(),
            Inner::Parts(p) => p.datanodes.iter().map(DataNode::store).collect(),
        }
    }

    /// Drops every finalized replica except the `keep` set. The
    /// namenode's `Delete` retires metadata only and nothing tells the
    /// datanodes, so without this the in-memory stores would grow with
    /// every round.
    pub fn purge_replicas(&self, keep: &HashSet<BlockId>) {
        for store in self.stores() {
            for b in store.finalized_blocks() {
                if !keep.contains(&b.id) {
                    store.remove(b.id);
                }
            }
        }
    }

    pub fn shutdown(self) {
        match self.0 {
            Inner::Mini(m) => m.shutdown(),
            Inner::Parts(p) => {
                p.fabric.shutdown();
                p.namenode.shutdown();
                for dn in p.datanodes {
                    dn.shutdown();
                }
            }
        }
    }
}
