//! Configuration for the DFS and the evaluation clusters.
//!
//! [`DfsConfig`] collects every tunable the paper mentions (block size,
//! packet size, replication factor, heartbeat interval, the local
//! optimization threshold, the per-client datanode buffer) plus engine
//! knobs that let tests run the same code at small scale.
//!
//! [`InstanceType`] and [`ClusterSpec`] encode Table I and the four
//! clusters of §V-A so that benches and examples construct byte-identical
//! scenarios.

use crate::units::{Bandwidth, ByteSize, SimDuration};

/// Packets a pipeline hop past the first may hold between receiving and
/// forwarding them ([`DfsConfig::forward_window`]).
const FORWARD_WINDOW_PACKETS: u64 = 4;

/// Heartbeats a datanode may miss before the namenode declares it dead
/// ([`DfsConfig::heartbeat_expiry`]).
const HEARTBEAT_EXPIRY_MULTIPLIER: u64 = 10;

/// Most parallel range stripes one block read is split into
/// ([`DfsConfig::stripes_for`]).
const READ_STRIPES: usize = 3;

/// Recovery attempts per pipeline incident (Algorithm 3's retry budget)
/// before a stream gives up.
pub const MAX_RECOVERY_ATTEMPTS: u32 = 5;

/// Which write protocol a client uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteMode {
    /// Original HDFS: one pipeline at a time, block `k+1` starts only
    /// after every ack of block `k` arrived (stop-and-wait, §II).
    Hdfs,
    /// SMARTH: a new pipeline starts as soon as the first datanode of the
    /// current block sends its FIRST_NODE_FINISH ack (§III-A).
    Smarth,
}

impl WriteMode {
    pub fn name(self) -> &'static str {
        match self {
            WriteMode::Hdfs => "HDFS",
            WriteMode::Smarth => "SMARTH",
        }
    }
}

crate::json_enum!(impl Json for WriteMode { "hdfs" => Hdfs, "smarth" => Smarth });

/// Retry/backoff policy for client→namenode RPCs. One stalled or
/// restarting namenode must not turn SMARTH's overlapped write path
/// back into a hanging serial one, so every ClientProtocol call runs
/// under this policy: up to `attempts` tries, a backoff that doubles
/// between them, and a per-attempt response deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per RPC (1 = no retries).
    pub attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: SimDuration,
    /// Per-attempt deadline for the response; a namenode that accepts
    /// the connection but stalls past this counts as a failed attempt.
    pub deadline: SimDuration,
}

impl RetryPolicy {
    /// Jitter fraction: each backoff is scaled by a factor drawn
    /// uniformly from `[1 - JITTER, 1 + JITTER]` so retrying clients
    /// don't stampede a recovering namenode in lockstep.
    pub const JITTER: f64 = 0.25;

    /// Backoff before retry number `retry` (0-based), pre-jitter: the
    /// base backoff, doubled after each failed attempt.
    pub fn backoff_for(&self, retry: u32) -> SimDuration {
        SimDuration::from_secs_f64(self.base_backoff.as_secs_f64() * 2f64.powi(retry as i32))
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.attempts == 0 {
            return Err("rpc_retry.attempts must be at least 1".into());
        }
        if self.deadline <= SimDuration::ZERO {
            return Err("rpc_retry.deadline must be positive".into());
        }
        Ok(())
    }
}

/// All protocol-level tunables. Defaults mirror Hadoop 1.0.3 as described
/// in the paper; tests override sizes downward to keep runtimes small.
#[derive(Debug, Clone, PartialEq)]
pub struct DfsConfig {
    /// Block size (paper default: 64 MB).
    pub block_size: ByteSize,
    /// Packet size (paper default: 64 KB).
    pub packet_size: ByteSize,
    /// Bytes covered by one checksum within a packet.
    pub bytes_per_checksum: usize,
    /// Replication factor (paper experiments use 3).
    pub replication: usize,
    /// Heartbeat / speed-report interval (paper: 3 s). A datanode
    /// silent for ten of them is dead ([`Self::heartbeat_expiry`]).
    pub heartbeat_interval: SimDuration,
    /// Local-optimization exploration threshold of Algorithm 2
    /// (paper: 0.8 — i.e. swap with probability 0.2).
    pub local_opt_threshold: f64,
    /// Enable the client-side re-sort of Algorithm 2 at all
    /// (ablation knob; on by default in SMARTH mode).
    pub local_opt_enabled: bool,
    /// Per-client buffer on the first datanode, in bytes
    /// (§IV-C: one block, 64 MB).
    pub datanode_client_buffer: ByteSize,
    /// Hard cap on concurrent pipelines per client. `None` means the
    /// paper's rule `active_datanodes / replication` computed at run time.
    pub max_pipelines_override: Option<usize>,
    /// EWMA smoothing factor for speed records (1.0 = keep raw last
    /// sample, which is what the paper stores; see DESIGN.md §5.4).
    pub speed_ewma_alpha: f64,
    /// Round-trip cost of one namenode RPC (the paper's `T_n`).
    pub namenode_rpc_cost: SimDuration,
    /// Client-side packet production cost (the paper's `T_c`): local read
    /// + checksum + framing per packet.
    pub packet_production_cost: SimDuration,
    /// Datanode per-packet verify+write cost (the paper's `T_w`) on top
    /// of the disk bandwidth model.
    pub packet_write_cost: SimDuration,
    /// Sustained disk write bandwidth of a datanode (EC2 ephemeral disk).
    pub disk_bandwidth: Bandwidth,
    /// Socket buffer size used by the emulator's streams; bounds how far
    /// a sender can run ahead of a slow receiver hop.
    pub socket_buffer: ByteSize,
    /// How long a stream waits on pipeline events before declaring the
    /// pipeline hung and returning a timeout.
    pub pipeline_event_timeout: SimDuration,
    /// Half-life for namenode speed records. `Some(t)`: a record loses
    /// half its weight every `t` without a fresh report, so a datanode
    /// that stalled and recovered re-earns its ranking instead of
    /// coasting on the pre-stall estimate. `None` keeps records forever
    /// (the paper's behaviour).
    pub speed_half_life: Option<SimDuration>,
    /// Per-attempt deadline for one read stripe. A datanode that stalls
    /// longer than this (the soak harness's 0.5 Mbps stall fault) is
    /// abandoned and the stripe fails over to the next replica instead of
    /// hanging the reader forever.
    pub read_timeout: SimDuration,
    /// Retry/backoff policy for every client→namenode RPC.
    pub rpc_retry: RetryPolicy,
    /// Number of volume shards the namenode partitions its namespace and
    /// block map into. Paths hash to a shard by their first component, so
    /// independent volumes never contend on a lock. `1` reproduces the
    /// single-lock namenode bit-for-bit (ids and RNG draws are global, so
    /// a serial workload's blocks, commits and read admission do not
    /// depend on this knob).
    pub namenode_shards: usize,
}

impl Default for DfsConfig {
    fn default() -> Self {
        Self::paper_scale()
    }
}

impl DfsConfig {
    /// Full paper-scale parameters (64 MB blocks, 64 KB packets, 3 s
    /// heartbeats). Use with the discrete-event simulator.
    pub fn paper_scale() -> Self {
        Self {
            block_size: ByteSize::mib(64),
            packet_size: ByteSize::kib(64),
            bytes_per_checksum: 512,
            replication: 3,
            heartbeat_interval: SimDuration::from_secs(3),
            local_opt_threshold: 0.8,
            local_opt_enabled: true,
            datanode_client_buffer: ByteSize::mib(64),
            max_pipelines_override: None,
            speed_ewma_alpha: 1.0,
            namenode_rpc_cost: SimDuration::from_millis(2),
            packet_production_cost: SimDuration::from_micros(30),
            packet_write_cost: SimDuration::from_micros(20),
            disk_bandwidth: Bandwidth::mib_per_sec(120.0),
            socket_buffer: ByteSize::kib(256),
            pipeline_event_timeout: SimDuration::from_secs(60),
            speed_half_life: None,
            read_timeout: SimDuration::from_secs(30),
            rpc_retry: RetryPolicy {
                attempts: 5,
                base_backoff: SimDuration::from_millis(200),
                deadline: SimDuration::from_secs(10),
            },
            namenode_shards: 8,
        }
    }

    /// Scaled-down parameters for real-time emulation in tests and
    /// examples: 256 KB blocks, 16 KB packets, 50 ms heartbeats. The
    /// geometry (block/packet ratio, buffer = one block) matches the
    /// paper so protocol behaviour is preserved.
    pub fn test_scale() -> Self {
        Self {
            block_size: ByteSize::kib(256),
            packet_size: ByteSize::kib(16),
            bytes_per_checksum: 512,
            replication: 3,
            heartbeat_interval: SimDuration::from_millis(50),
            local_opt_threshold: 0.8,
            local_opt_enabled: true,
            datanode_client_buffer: ByteSize::kib(256),
            max_pipelines_override: None,
            speed_ewma_alpha: 1.0,
            namenode_rpc_cost: SimDuration::from_micros(200),
            packet_production_cost: SimDuration::from_micros(5),
            packet_write_cost: SimDuration::from_micros(5),
            disk_bandwidth: Bandwidth::mib_per_sec(512.0),
            socket_buffer: ByteSize::kib(64),
            // A hung test pipeline should fail fast, not after a minute.
            pipeline_event_timeout: SimDuration::from_secs(5),
            speed_half_life: None,
            // A stalled test read should fail over fast, not after 30 s.
            read_timeout: SimDuration::from_secs(2),
            // A hostile namenode in tests should be detected in tens of
            // milliseconds, and the retry budget exhausted within ~1 s.
            rpc_retry: RetryPolicy {
                attempts: 4,
                base_backoff: SimDuration::from_millis(25),
                deadline: SimDuration::from_millis(500),
            },
            namenode_shards: 8,
        }
    }

    /// How long a datanode may go without a heartbeat before the
    /// namenode declares it dead: ten heartbeat intervals.
    pub fn heartbeat_expiry(&self) -> SimDuration {
        self.heartbeat_interval.mul_u64(HEARTBEAT_EXPIRY_MULTIPLIER)
    }

    /// Packets per block (the paper's B/P; 1024 at paper scale).
    pub fn packets_per_block(&self) -> u64 {
        self.block_size.div_ceil(self.packet_size)
    }

    /// The paper's maximum pipeline count rule (§III-B Algorithm 1 line 3
    /// and §IV-C): `active datanodes / replication`, at least 1, unless
    /// overridden for ablation.
    pub fn max_pipelines(&self, active_datanodes: usize) -> usize {
        if let Some(n) = self.max_pipelines_override {
            return n.max(1);
        }
        (active_datanodes / self.replication.max(1)).max(1)
    }

    /// How many parallel range stripes a read of `len` bytes of one block
    /// with `replicas` sources is split into: as many as there are
    /// packets to move, up to three and the replica count, and at least
    /// one. A range shorter than a packet gains no bandwidth from a
    /// second source and pays a connection and a thread for it. Both
    /// engines call this, so they announce the same count.
    pub fn stripes_for(&self, replicas: usize, len: u64) -> usize {
        let packets = ByteSize(len).div_ceil(self.packet_size);
        (READ_STRIPES.min(replicas) as u64).min(packets).max(1) as usize
    }

    /// Whether a write in `mode` runs Algorithm 2, the client-side
    /// re-sort with ε-exploration: SMARTH writes only, and only while
    /// `local_opt_enabled`. Both engines ask this.
    pub fn runs_local_opt(&self, mode: WriteMode) -> bool {
        mode == WriteMode::Smarth && self.local_opt_enabled
    }

    /// §IV-C forward window, in bytes, of the node at `position` in a
    /// pipeline: the first node holds the client's whole buffer
    /// (`client_buffer`, one block by default) in either write mode, and
    /// every later hop a few packets. The datanode sizes its forward
    /// queue by it and the simulator its per-hop credit.
    pub fn forward_window(&self, position: usize, client_buffer: u64) -> u64 {
        if position == 0 {
            client_buffer
        } else {
            FORWARD_WINDOW_PACKETS * self.packet_size.as_u64()
        }
    }

    /// A byte budget as a queue length: the packets it holds, rounded up,
    /// and at least one.
    pub fn packets_in(&self, bytes: u64) -> usize {
        bytes.max(1).div_ceil(self.packet_size.as_u64().max(1)) as usize
    }

    /// Sanity checks; call after hand-building a config.
    pub fn validate(&self) -> Result<(), String> {
        if self.packet_size.as_u64() == 0 || self.block_size.as_u64() == 0 {
            return Err("block and packet size must be positive".into());
        }
        if self.packet_size > self.block_size {
            return Err("packet size must not exceed block size".into());
        }
        if self.replication == 0 {
            return Err("replication must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&self.local_opt_threshold) {
            return Err("local_opt_threshold must be in [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.speed_ewma_alpha) || self.speed_ewma_alpha == 0.0 {
            return Err("speed_ewma_alpha must be in (0,1]".into());
        }
        if self.datanode_client_buffer < self.packet_size {
            return Err("datanode buffer must hold at least one packet".into());
        }
        if self.pipeline_event_timeout <= SimDuration::ZERO {
            return Err("pipeline_event_timeout must be positive".into());
        }
        if let Some(hl) = self.speed_half_life {
            if hl <= SimDuration::ZERO {
                return Err("speed_half_life must be positive".into());
            }
        }
        if self.read_timeout <= SimDuration::ZERO {
            return Err("read_timeout must be positive".into());
        }
        if self.namenode_shards == 0 {
            return Err("namenode_shards must be at least 1".into());
        }
        self.rpc_retry.validate()?;
        Ok(())
    }
}

/// Amazon EC2 instance types of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstanceType {
    Small,
    Medium,
    Large,
}

impl InstanceType {
    pub const ALL: [InstanceType; 3] = [
        InstanceType::Small,
        InstanceType::Medium,
        InstanceType::Large,
    ];

    pub fn name(self) -> &'static str {
        match self {
            InstanceType::Small => "Small",
            InstanceType::Medium => "Medium",
            InstanceType::Large => "Large",
        }
    }

    /// Memory per Table I.
    pub fn memory(self) -> ByteSize {
        match self {
            // 1.7 GB and 3.75 GB are not whole GiB; express in MiB.
            InstanceType::Small => ByteSize::mib(1741),
            InstanceType::Medium => ByteSize::mib(3840),
            InstanceType::Large => ByteSize::mib(7680),
        }
    }

    /// Elastic Compute Units per Table I.
    pub fn ecus(self) -> u32 {
        match self {
            InstanceType::Small => 1,
            InstanceType::Medium => 2,
            InstanceType::Large => 4,
        }
    }

    /// Measured NIC bandwidth per Table I (≈216 / ≈376 / ≈376 Mbps).
    pub fn network_bandwidth(self) -> Bandwidth {
        match self {
            InstanceType::Small => Bandwidth::mbps(216.0),
            InstanceType::Medium | InstanceType::Large => Bandwidth::mbps(376.0),
        }
    }

    /// Sustained ephemeral-disk write bandwidth per tier. Table I does
    /// not quote disk rates, so these follow the ECU ladder: the large
    /// tier matches [`DfsConfig::paper_scale`]'s 120 MiB/s and the
    /// smaller tiers scale down with compute.
    pub fn disk_bandwidth(self) -> Bandwidth {
        match self {
            InstanceType::Small => Bandwidth::mib_per_sec(60.0),
            InstanceType::Medium => Bandwidth::mib_per_sec(90.0),
            InstanceType::Large => Bandwidth::mib_per_sec(120.0),
        }
    }
}

/// Role a host plays in a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostRole {
    NameNode,
    DataNode,
    Client,
}

/// One host of a cluster scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct HostSpec {
    pub name: String,
    pub role: HostRole,
    pub instance: InstanceType,
    /// Rack label used by the topology-aware placement policies.
    pub rack: String,
    /// Optional per-host NIC throttle (the contention scenario's
    /// `tc`-limited nodes). Applied on top of the instance NIC; the
    /// effective rate is the minimum of the two, on both directions.
    pub nic_throttle: Option<Bandwidth>,
    /// Optional per-host disk cap. The effective disk rate is the
    /// minimum of this and [`DfsConfig::disk_bandwidth`]; `None` keeps
    /// the config-wide rate. Set by the tiered heterogeneous preset so
    /// slow instances have slow disks, not just slow NICs.
    pub disk_throttle: Option<Bandwidth>,
}

impl HostSpec {
    /// Effective sustained disk rate for this host given the
    /// config-wide default.
    pub fn effective_disk(&self, base: Bandwidth) -> Bandwidth {
        match self.disk_throttle {
            Some(t) if t.as_mbps() < base.as_mbps() => t,
            _ => base,
        }
    }
}

/// A full cluster blueprint: hosts plus the inter-rack throttle that the
/// two-rack experiments apply with `tc`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    pub name: String,
    pub hosts: Vec<HostSpec>,
    /// Bandwidth cap between hosts on *different* racks (None = only the
    /// NICs limit).
    pub cross_rack_throttle: Option<Bandwidth>,
    /// One-way propagation latency between any two distinct hosts.
    pub link_latency: SimDuration,
}

impl ClusterSpec {
    /// The paper's homogeneous cluster: one namenode + 9 datanodes of a
    /// single instance type, split across two racks (5 on rack-a with the
    /// namenode and client, 4 on rack-b), plus one client host.
    pub fn homogeneous(instance: InstanceType) -> Self {
        let mut hosts = Vec::new();
        hosts.push(HostSpec {
            name: "namenode".into(),
            role: HostRole::NameNode,
            instance,
            rack: "rack-a".into(),
            nic_throttle: None,
            disk_throttle: None,
        });
        hosts.push(HostSpec {
            name: "client".into(),
            role: HostRole::Client,
            instance,
            rack: "rack-a".into(),
            nic_throttle: None,
            disk_throttle: None,
        });
        for i in 0..9 {
            let rack = if i < 5 { "rack-a" } else { "rack-b" };
            hosts.push(HostSpec {
                name: format!("dn{i}"),
                role: HostRole::DataNode,
                instance,
                rack: rack.into(),
                nic_throttle: None,
            disk_throttle: None,
            });
        }
        Self {
            name: format!("{}-homogeneous", instance.name().to_lowercase()),
            hosts,
            cross_rack_throttle: None,
            link_latency: SimDuration::from_micros(300),
        }
    }

    /// The paper's heterogeneous cluster (§V-B.3): 3 small + 4 medium +
    /// 3 large instances; one medium instance is the namenode, the rest
    /// are datanodes. The client runs on the namenode host's rack with a
    /// medium NIC.
    pub fn heterogeneous() -> Self {
        let mut hosts = vec![
            HostSpec {
                name: "namenode".into(),
                role: HostRole::NameNode,
                instance: InstanceType::Medium,
                rack: "rack-a".into(),
                nic_throttle: None,
            disk_throttle: None,
            },
            HostSpec {
                name: "client".into(),
                role: HostRole::Client,
                instance: InstanceType::Medium,
                rack: "rack-a".into(),
                nic_throttle: None,
            disk_throttle: None,
            },
        ];
        let mut add = |n: usize, inst: InstanceType, prefix: &str| {
            for i in 0..n {
                // Spread each class across both racks.
                let rack = if i % 2 == 0 { "rack-a" } else { "rack-b" };
                hosts.push(HostSpec {
                    name: format!("{prefix}{i}"),
                    role: HostRole::DataNode,
                    instance: inst,
                    rack: rack.into(),
                    nic_throttle: None,
            disk_throttle: None,
                });
            }
        };
        add(3, InstanceType::Small, "small");
        add(3, InstanceType::Medium, "medium");
        add(3, InstanceType::Large, "large");
        Self {
            name: "heterogeneous".into(),
            hosts,
            cross_rack_throttle: None,
            link_latency: SimDuration::from_micros(300),
        }
    }

    /// The Table I instance mix with **tiered disks as well as NICs**:
    /// same host layout as [`ClusterSpec::heterogeneous`], but every
    /// datanode's disk is capped at its instance tier's
    /// [`InstanceType::disk_bandwidth`]. On this spec the small tier is
    /// slow end to end (216 Mbps NIC, 60 MiB/s disk), so the speed
    /// registry has a real gradient to learn and reads should converge
    /// onto the large tier.
    pub fn heterogeneous_tiered() -> Self {
        let mut spec = Self::heterogeneous();
        spec.name = "heterogeneous-tiered".into();
        for h in &mut spec.hosts {
            if h.role == HostRole::DataNode {
                h.disk_throttle = Some(h.instance.disk_bandwidth());
            }
        }
        spec
    }

    /// Applies the two-rack `tc` throttle of §V-B.1.
    #[must_use]
    pub fn with_cross_rack_throttle(mut self, bw: Bandwidth) -> Self {
        self.cross_rack_throttle = Some(bw);
        self
    }

    /// Adds `n` extra client hosts named `client0..clientN-1`, spread
    /// round-robin across the spec's racks — the multi-client soak
    /// topology. The original `client` host is kept.
    #[must_use]
    pub fn with_extra_clients(mut self, n: usize, instance: InstanceType) -> Self {
        let racks = self.racks();
        for i in 0..n {
            self.hosts.push(HostSpec {
                name: format!("client{i}"),
                role: HostRole::Client,
                instance,
                rack: racks[i % racks.len()].clone(),
                nic_throttle: None,
            disk_throttle: None,
            });
        }
        self
    }

    /// Throttles the NICs of the first `k` datanodes (both directions),
    /// reproducing the bandwidth-contention scenario of §V-B.2.
    #[must_use]
    pub fn with_throttled_datanodes(mut self, k: usize, bw: Bandwidth) -> Self {
        let mut done = 0;
        for h in &mut self.hosts {
            if h.role == HostRole::DataNode && done < k {
                h.nic_throttle = Some(bw);
                done += 1;
            }
        }
        assert!(done == k, "cluster has fewer than {k} datanodes");
        self
    }

    pub fn datanodes(&self) -> impl Iterator<Item = &HostSpec> {
        self.hosts.iter().filter(|h| h.role == HostRole::DataNode)
    }

    pub fn datanode_count(&self) -> usize {
        self.datanodes().count()
    }

    pub fn client_host(&self) -> &HostSpec {
        self.hosts
            .iter()
            .find(|h| h.role == HostRole::Client)
            .expect("cluster has no client host")
    }

    pub fn namenode_host(&self) -> &HostSpec {
        self.hosts
            .iter()
            .find(|h| h.role == HostRole::NameNode)
            .expect("cluster has no namenode host")
    }

    pub fn racks(&self) -> Vec<String> {
        let mut racks: Vec<String> = self.hosts.iter().map(|h| h.rack.clone()).collect();
        racks.sort();
        racks.dedup();
        racks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        assert_eq!(InstanceType::Small.ecus(), 1);
        assert_eq!(InstanceType::Medium.ecus(), 2);
        assert_eq!(InstanceType::Large.ecus(), 4);
        assert!((InstanceType::Small.network_bandwidth().as_mbps() - 216.0).abs() < 1e-9);
        assert!((InstanceType::Medium.network_bandwidth().as_mbps() - 376.0).abs() < 1e-9);
        assert!((InstanceType::Large.network_bandwidth().as_mbps() - 376.0).abs() < 1e-9);
        assert!(InstanceType::Large.memory() > InstanceType::Medium.memory());
        assert!(InstanceType::Medium.memory() > InstanceType::Small.memory());
    }

    #[test]
    fn default_config_matches_paper() {
        let c = DfsConfig::paper_scale();
        assert_eq!(c.block_size, ByteSize::mib(64));
        assert_eq!(c.packet_size, ByteSize::kib(64));
        assert_eq!(c.replication, 3);
        assert_eq!(c.packets_per_block(), 1024);
        assert_eq!(c.heartbeat_interval, SimDuration::from_secs(3));
        assert_eq!(c.datanode_client_buffer, c.block_size);
        assert!((c.local_opt_threshold - 0.8).abs() < 1e-12);
        c.validate().unwrap();
    }

    #[test]
    fn test_scale_preserves_geometry() {
        let c = DfsConfig::test_scale();
        c.validate().unwrap();
        assert_eq!(c.packets_per_block(), 16);
        assert_eq!(c.datanode_client_buffer, c.block_size);
    }

    #[test]
    fn max_pipelines_rule() {
        let c = DfsConfig::paper_scale();
        assert_eq!(c.max_pipelines(9), 3); // 9 datanodes / repl 3
        assert_eq!(c.max_pipelines(8), 2);
        assert_eq!(c.max_pipelines(2), 1); // never below 1
        let mut o = c.clone();
        o.max_pipelines_override = Some(2);
        assert_eq!(o.max_pipelines(9), 2);
    }

    #[test]
    fn local_opt_runs_in_smarth_mode_while_enabled() {
        let mut c = DfsConfig::test_scale();
        assert!(c.runs_local_opt(WriteMode::Smarth));
        assert!(!c.runs_local_opt(WriteMode::Hdfs));
        c.local_opt_enabled = false;
        assert!(!c.runs_local_opt(WriteMode::Smarth));
    }

    #[test]
    fn forward_window_is_the_client_buffer_on_the_first_hop_only() {
        // (config, first-hop packets, later-hop packets): the datanode's
        // forward-queue lengths at both scales.
        for (c, first, later) in [
            (DfsConfig::test_scale(), 16, 4),
            (DfsConfig::paper_scale(), 1024, 4),
        ] {
            let buffer = c.datanode_client_buffer.as_u64();
            assert_eq!(c.forward_window(0, buffer), buffer);
            assert_eq!(c.packets_in(c.forward_window(0, buffer)), first);
            for position in 1..3 {
                assert_eq!(c.forward_window(position, buffer), 4 * c.packet_size.as_u64());
                assert_eq!(c.packets_in(c.forward_window(position, buffer)), later);
            }
            // A sub-packet (or empty) budget still queues one packet.
            assert_eq!(c.packets_in(c.forward_window(0, 1)), 1);
            assert_eq!(c.packets_in(0), 1);
        }
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = DfsConfig::test_scale();
        c.packet_size = ByteSize::mib(1);
        assert!(c.validate().is_err(), "packet > block must fail");

        let mut c = DfsConfig::test_scale();
        c.replication = 0;
        assert!(c.validate().is_err());

        let mut c = DfsConfig::test_scale();
        c.local_opt_threshold = 1.5;
        assert!(c.validate().is_err());

        let mut c = DfsConfig::test_scale();
        c.datanode_client_buffer = ByteSize::bytes(1);
        assert!(c.validate().is_err());

        let mut c = DfsConfig::test_scale();
        c.pipeline_event_timeout = SimDuration::ZERO;
        assert!(c.validate().is_err());

        let mut c = DfsConfig::test_scale();
        c.read_timeout = SimDuration::ZERO;
        assert!(c.validate().is_err(), "zero read timeout must fail");

        let mut c = DfsConfig::test_scale();
        c.rpc_retry.attempts = 0;
        assert!(c.validate().is_err(), "zero rpc attempts must fail");

        let mut c = DfsConfig::test_scale();
        c.rpc_retry.deadline = SimDuration::ZERO;
        assert!(c.validate().is_err(), "zero rpc deadline must fail");
    }

    #[test]
    fn rpc_retry_backoff_grows_exponentially() {
        let p = RetryPolicy {
            attempts: 4,
            base_backoff: SimDuration::from_millis(100),
            deadline: SimDuration::from_secs(1),
        };
        p.validate().unwrap();
        assert_eq!(p.backoff_for(0), SimDuration::from_millis(100));
        assert_eq!(p.backoff_for(1), SimDuration::from_millis(200));
        assert_eq!(p.backoff_for(2), SimDuration::from_millis(400));
        // Tests retry within ~1 s total; paper scale is patient.
        assert!(DfsConfig::test_scale().rpc_retry.deadline < DfsConfig::paper_scale().rpc_retry.deadline);
    }

    #[test]
    fn read_knobs_default_per_scale() {
        let paper = DfsConfig::paper_scale();
        assert_eq!(paper.read_timeout, SimDuration::from_secs(30));
        let test = DfsConfig::test_scale();
        assert!(test.read_timeout < paper.read_timeout, "tests fail fast");
    }

    #[test]
    fn stripe_count_follows_packets_and_replicas() {
        let c = DfsConfig::test_scale();
        let p = c.packet_size.as_u64();
        // (len, [stripes with 1, 2, 3 replicas])
        for (len, want) in [
            (0, [1, 1, 1]),
            (1, [1, 1, 1]),
            (p, [1, 1, 1]),
            (p + 1, [1, 2, 2]),
            (3 * p, [1, 2, 3]),
            (c.block_size.as_u64(), [1, 2, 3]),
        ] {
            for replicas in 1..=3 {
                assert_eq!(c.stripes_for(replicas, len), want[replicas - 1], "{len} B, {replicas} replicas");
            }
        }
        // More than three replicas do not add stripes; no replicas
        // still count one (the caller reports the empty set).
        assert_eq!(c.stripes_for(5, 10 * p), 3);
        assert_eq!(c.stripes_for(0, 10 * p), 1);
    }

    #[test]
    fn extra_clients_spread_across_racks() {
        let spec = ClusterSpec::homogeneous(InstanceType::Large).with_extra_clients(4, InstanceType::Large);
        let clients: Vec<_> = spec
            .hosts
            .iter()
            .filter(|h| h.role == HostRole::Client)
            .collect();
        assert_eq!(clients.len(), 5); // original + 4
        assert!(clients.iter().any(|h| h.name == "client3"));
        assert!(clients.iter().any(|h| h.rack == "rack-b"));
    }

    #[test]
    fn recovery_knobs_default_to_paper_values() {
        let c = DfsConfig::paper_scale();
        assert_eq!(c.pipeline_event_timeout, SimDuration::from_secs(60));
        assert_eq!(c.heartbeat_expiry(), SimDuration::from_secs(30));
        // Tests fail fast on hung pipelines and dead datanodes.
        let t = DfsConfig::test_scale();
        assert!(t.pipeline_event_timeout < c.pipeline_event_timeout);
        assert_eq!(t.heartbeat_expiry(), SimDuration::from_millis(500));
    }

    #[test]
    fn homogeneous_cluster_shape() {
        for inst in InstanceType::ALL {
            let spec = ClusterSpec::homogeneous(inst);
            assert_eq!(spec.datanode_count(), 9);
            assert_eq!(spec.racks(), vec!["rack-a".to_string(), "rack-b".to_string()]);
            assert_eq!(spec.client_host().rack, "rack-a");
            assert_eq!(spec.namenode_host().role, HostRole::NameNode);
            // 5 datanodes on rack-a, 4 on rack-b.
            let on_a = spec.datanodes().filter(|h| h.rack == "rack-a").count();
            assert_eq!(on_a, 5);
        }
    }

    #[test]
    fn heterogeneous_cluster_shape() {
        let spec = ClusterSpec::heterogeneous();
        assert_eq!(spec.datanode_count(), 9);
        let smalls = spec
            .datanodes()
            .filter(|h| h.instance == InstanceType::Small)
            .count();
        let mediums = spec
            .datanodes()
            .filter(|h| h.instance == InstanceType::Medium)
            .count();
        let larges = spec
            .datanodes()
            .filter(|h| h.instance == InstanceType::Large)
            .count();
        assert_eq!((smalls, mediums, larges), (3, 3, 3));
        assert_eq!(spec.namenode_host().instance, InstanceType::Medium);
    }

    #[test]
    fn throttled_datanodes_marks_exactly_k() {
        let spec = ClusterSpec::homogeneous(InstanceType::Small)
            .with_throttled_datanodes(3, Bandwidth::mbps(50.0));
        let throttled = spec
            .datanodes()
            .filter(|h| h.nic_throttle.is_some())
            .count();
        assert_eq!(throttled, 3);
    }

    #[test]
    #[should_panic(expected = "fewer than")]
    fn throttling_more_nodes_than_exist_panics() {
        let _ = ClusterSpec::homogeneous(InstanceType::Small)
            .with_throttled_datanodes(10, Bandwidth::mbps(50.0));
    }
}
