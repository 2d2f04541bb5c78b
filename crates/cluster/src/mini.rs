//! `MiniCluster` — one-call orchestration of a full emulated DFS: fabric
//! hosts shaped per the [`ClusterSpec`], a namenode, all datanodes, and
//! client factories. The equivalent of Hadoop's `MiniDFSCluster`, but on
//! the bandwidth-emulating fabric so the paper's `tc` scenarios run as
//! real concurrent systems.

use smarth_client::DfsClient;
use smarth_core::config::{ClusterSpec, DfsConfig, HostRole};
use smarth_core::error::{DfsError, DfsResult};
use smarth_core::obs::Obs;
use smarth_core::units::Bandwidth;
use smarth_datanode::DataNode;
use smarth_fabric::{Fabric, FabricConfig};
use smarth_namenode::{NameNode, NameNodeState};
use std::sync::Arc;
use std::time::Duration;

/// A running emulated cluster.
pub struct MiniCluster {
    fabric: Fabric,
    namenode: Option<NameNode>,
    datanodes: Vec<DataNode>,
    spec: ClusterSpec,
    config: DfsConfig,
    seed: u64,
    obs: Obs,
}

impl MiniCluster {
    /// Builds the fabric from the spec (instance NICs, per-host
    /// throttles, cross-rack throttle, link latency) and starts the
    /// namenode plus every datanode. Datanode registration is
    /// synchronous: when this returns, placement sees the whole cluster.
    pub fn start(spec: &ClusterSpec, config: DfsConfig, seed: u64) -> DfsResult<Self> {
        Self::start_with_obs(spec, config, seed, Obs::disabled())
    }

    /// [`Self::start`] with an observability handle shared by the
    /// namenode, every datanode, and every client created through this
    /// cluster — one event stream and metrics registry for the whole
    /// write path.
    pub fn start_with_obs(
        spec: &ClusterSpec,
        config: DfsConfig,
        seed: u64,
        obs: Obs,
    ) -> DfsResult<Self> {
        config.validate().map_err(DfsError::Internal)?;
        let fabric = Fabric::new(FabricConfig {
            latency: Duration::from_secs_f64(spec.link_latency.as_secs_f64()),
            socket_buffer: config.socket_buffer.as_u64() as usize,
            chunk_size: 8 * 1024,
        });

        for host in &spec.hosts {
            fabric.add_host(&host.name, &host.rack, host.instance.network_bandwidth());
            if let Some(throttle) = host.nic_throttle {
                fabric.throttle_host(&host.name, Some(throttle))?;
            }
        }
        if let Some(bw) = spec.cross_rack_throttle {
            fabric.set_cross_rack_throttle(Some(bw));
        }

        let nn_host = spec.namenode_host().name.clone();
        let namenode =
            NameNode::start_with_obs(&fabric, &nn_host, config.clone(), seed, obs.clone())?;
        let nn_dn_addr = namenode.datanode_addr();

        let mut datanodes = Vec::new();
        for host in spec.hosts.iter().filter(|h| h.role == HostRole::DataNode) {
            // Heterogeneous specs can pin a host below the cluster-wide
            // disk rate; each datanode gets its own effective config.
            let mut dn_config = config.clone();
            dn_config.disk_bandwidth = host.effective_disk(config.disk_bandwidth);
            datanodes.push(DataNode::start_with_obs(
                &fabric,
                &host.name,
                &host.rack,
                &nn_dn_addr,
                dn_config,
                obs.clone(),
            )?);
        }

        Ok(Self {
            fabric,
            namenode: Some(namenode),
            datanodes,
            spec: spec.clone(),
            config,
            seed,
            obs,
        })
    }

    /// The cluster-wide observability handle (disabled unless the
    /// cluster was started with [`Self::start_with_obs`]).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    pub fn config(&self) -> &DfsConfig {
        &self.config
    }

    pub fn namenode_state(&self) -> &Arc<NameNodeState> {
        self.namenode
            .as_ref()
            .expect("cluster is running")
            .state()
    }

    pub fn client_addr(&self) -> String {
        self.namenode.as_ref().expect("running").client_addr()
    }

    /// A client on the spec's designated client host.
    pub fn client(&self) -> DfsResult<DfsClient> {
        let host = self.spec.client_host().clone();
        self.client_on(&host.name, &host.rack)
    }

    /// A client bound to an arbitrary existing fabric host.
    pub fn client_on(&self, host: &str, rack: &str) -> DfsResult<DfsClient> {
        DfsClient::connect_with_obs(
            &self.fabric,
            host,
            rack,
            &self.client_addr(),
            self.config.clone(),
            self.seed ^ 0x9E37_79B9_7F4A_7C15,
            self.obs.clone(),
        )
    }

    pub fn datanode_hosts(&self) -> Vec<String> {
        self.datanodes.iter().map(|d| d.host().to_string()).collect()
    }

    pub fn datanode(&self, host: &str) -> Option<&DataNode> {
        self.datanodes.iter().find(|d| d.host() == host)
    }

    /// Kills a datanode host abruptly: live streams break, and the
    /// namenode is told immediately (the heartbeat expiry path is
    /// exercised separately — see `expire_via_heartbeats`).
    pub fn kill_datanode(&self, host: &str) -> DfsResult<()> {
        let dn = self
            .datanode(host)
            .ok_or_else(|| DfsError::internal(format!("no datanode on {host}")))?;
        let id = dn.id();
        self.fabric.kill_host(host);
        self.namenode_state().decommission(id);
        Ok(())
    }

    /// Kills a datanode host but leaves discovery to missed heartbeats,
    /// the paper-faithful path.
    pub fn kill_datanode_silently(&self, host: &str) -> DfsResult<()> {
        self.datanode(host)
            .ok_or_else(|| DfsError::internal(format!("no datanode on {host}")))?;
        self.fabric.kill_host(host);
        Ok(())
    }

    /// Applies / lifts a `tc`-style throttle on one host at runtime.
    pub fn throttle_host(&self, host: &str, bw: Option<Bandwidth>) -> DfsResult<()> {
        self.fabric.throttle_host(host, bw)
    }

    /// Orderly teardown: breaks the fabric (unblocking every thread)
    /// then joins all node threads.
    pub fn shutdown(self) {
        // `Drop` does the work, so a forgotten `shutdown()` tears down
        // the same way.
    }
}

impl Drop for MiniCluster {
    fn drop(&mut self) {
        self.fabric.shutdown();
        // Every node is told to stop before any is joined, so their
        // threads wind down side by side, not one node after another.
        if let Some(nn) = &self.namenode {
            nn.stop();
        }
        for dn in &self.datanodes {
            dn.stop();
        }
        if let Some(nn) = self.namenode.take() {
            nn.shutdown();
        }
        for dn in self.datanodes.drain(..) {
            dn.shutdown();
        }
    }
}
