//! Sustained multi-client soak harness with deterministic fault
//! injection and live, time-windowed invariant checking.
//!
//! The paper's evaluation (§IV/§V) runs long-lived clusters where
//! SMARTH's speed records are warm and pipelines fail *while other
//! pipelines are mid-flight*. This module reproduces that regime on the
//! threaded emulator: [`run`] drives N concurrent clients against one
//! [`MiniCluster`] for a configurable budget with file churn (creates,
//! re-writes, deletes, read-back verification interleaved mid-flight), a
//! seeded, replayable [`FaultPlan`] layered on `smarth_fabric`
//! (datanode stalls, connection drops, slow-node bandwidth dips), and a
//! monitor that consumes the observability stream incrementally
//! (via [`RingBufferSink::snapshot_from`]) and asserts per-window
//! invariants while the run is live:
//!
//! * no block gets more FNFAs than one plus its recoveries (a recovery
//!   legitimately re-finalizes the first node; any other extra FNFA is
//!   a duplicate FIRST_NODE_FINISH);
//! * pipeline overlap ≥ 2 shows up for SMARTH streams under load;
//! * every recovery is attributable by cause to an injected fault that
//!   was recently active (nothing recovers "for no reason");
//! * no gauge (datanode buffer bytes, in-flight pipelines) exceeds its
//!   bound.
//!
//! Every worker writes in SMARTH mode.
//!
//! Fault triggers come in two flavours, both replayable: absolute
//! wall-clock offsets from run start (executed by an injector thread)
//! and absolute *byte offsets* in one client's write stream (executed
//! cooperatively by that client's worker, which makes the fault land at
//! an exact, repeatable point mid-block — the foundation of the
//! deterministic smoke profile).

use crate::workload::random_data;
use crate::MiniCluster;
use parking_lot::Mutex;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use smarth_client::{DfsClient, DfsOutputStream};
use smarth_core::config::{
    ClusterSpec, DfsConfig, HostRole, HostSpec, InstanceType, RetryPolicy, WriteMode,
};
use smarth_core::error::{DfsError, DfsResult};
use smarth_core::ids::{BlockId, DatanodeId};
use smarth_core::json::{self, Json, ToJson, Value};
use smarth_core::{json_enum, json_struct};
use smarth_core::obs::telemetry::{Sampler, SloTracker, SloVerdict, TelemetrySeries};
use smarth_core::obs::{
    EventRecord, Obs, ObsEvent, RecoveryCause, RingBufferSink, SamplingSink,
};
use smarth_core::trace::TraceAssembler;
use smarth_core::units::{Bandwidth, SimDuration};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Number of distinct recovery causes (slots in per-window counters).
const CAUSES: usize = RecoveryCause::ALL.len();

// ---------------------------------------------------------------------------
// Fault plan
// ---------------------------------------------------------------------------

/// When a fault fires.
#[derive(Debug, Clone, PartialEq)]
pub enum Trigger {
    /// Wall-clock offset from run start, applied by the injector thread.
    AtMs(u64),
    /// When `client`'s cumulative written bytes reach exactly `bytes`,
    /// applied cooperatively by that client's worker between two write
    /// chunks. Exact and replayable: same plan → same injection point.
    AtClientBytes { client: usize, bytes: u64 },
}

/// What the fault does. The first two are cooperative (they act on the
/// triggering client's own links / current pipeline and therefore
/// require an [`Trigger::AtClientBytes`] trigger); the rest are timed.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Cut every live stream between the triggering client and all
    /// datanodes (cable pull; reconnects still succeed).
    DropOwnLinks,
    /// Kill the first `nodes` members of the triggering client's
    /// current pipeline. With `nodes >= 2` the extra deaths are
    /// discovered *during* the recovery of the first — the
    /// nested-failure attribution path.
    KillPipelineNodes { nodes: usize },
    /// Cut every live stream between client `client` and all datanodes.
    DropClientLinks { client: usize },
    /// Throttle datanode `datanode`'s NIC to a crawl for `for_ms`.
    DatanodeStall { datanode: usize, for_ms: u64 },
    /// Dip datanode `datanode`'s bandwidth to `mbps` for `for_ms`.
    SlowNodeDip { datanode: usize, mbps: f64, for_ms: u64 },
    /// Throttle the *namenode*'s NIC to a crawl for `for_ms`: RPCs stall
    /// until the per-attempt read deadline trips, exercising the client
    /// retry layer. The injector guarantees the restore.
    NamenodeStall { for_ms: u64 },
    /// Partition every client host from the namenode for `for_ms`
    /// (datanode heartbeats keep flowing): live RPC streams are cut and
    /// reconnects are refused until the injector heals the partition.
    NamenodePartition { for_ms: u64 },
    /// Partition every fabric link crossing `rack`'s boundary for
    /// `for_ms` (top-of-rack switch failure): hosts inside the rack keep
    /// talking to each other but lose everything outside — pipelines,
    /// reads, heartbeats and namenode RPCs alike, on both sides.
    RackPartition { rack: String, for_ms: u64 },
}

impl FaultKind {
    fn describe(&self) -> String {
        match self {
            FaultKind::DropOwnLinks => "drop own client links".into(),
            FaultKind::KillPipelineNodes { nodes } => {
                format!("kill first {nodes} current-pipeline nodes")
            }
            FaultKind::DropClientLinks { client } => {
                format!("drop client{client} links")
            }
            FaultKind::DatanodeStall { datanode, for_ms } => {
                format!("stall dn{datanode} for {for_ms} ms")
            }
            FaultKind::SlowNodeDip {
                datanode,
                mbps,
                for_ms,
            } => format!("dip dn{datanode} to {mbps} Mbps for {for_ms} ms"),
            FaultKind::NamenodeStall { for_ms } => {
                format!("stall namenode for {for_ms} ms")
            }
            FaultKind::NamenodePartition { for_ms } => {
                format!("partition clients from namenode for {for_ms} ms")
            }
            FaultKind::RackPartition { rack, for_ms } => {
                format!("partition rack {rack} for {for_ms} ms")
            }
        }
    }

    fn class(&self) -> FaultClass {
        match self {
            FaultKind::DropOwnLinks
            | FaultKind::KillPipelineNodes { .. }
            | FaultKind::DropClientLinks { .. } => FaultClass::Disconnect,
            FaultKind::DatanodeStall { .. } => FaultClass::Stall,
            FaultKind::SlowNodeDip { .. } => FaultClass::Dip,
            FaultKind::NamenodeStall { .. } | FaultKind::NamenodePartition { .. } => {
                FaultClass::Namenode
            }
            FaultKind::RackPartition { .. } => FaultClass::Partition,
        }
    }

    fn cooperative(&self) -> bool {
        matches!(
            self,
            FaultKind::DropOwnLinks | FaultKind::KillPipelineNodes { .. }
        )
    }
}

json_enum!(impl Json for FaultKind, tag "type" {
    "drop_own_links" => DropOwnLinks,
    "kill_pipeline_nodes" => KillPipelineNodes { "nodes" => nodes: usize },
    "drop_client_links" => DropClientLinks { "client" => client: usize },
    "datanode_stall" => DatanodeStall { "datanode" => datanode: usize, "for_ms" => for_ms: u64 },
    "slow_node_dip" => SlowNodeDip {
        "datanode" => datanode: usize,
        "mbps" => mbps: f64,
        "for_ms" => for_ms: u64,
    },
    "namenode_stall" => NamenodeStall { "for_ms" => for_ms: u64 },
    "namenode_partition" => NamenodePartition { "for_ms" => for_ms: u64 },
    "rack_partition" => RackPartition { "rack" => rack: String, "for_ms" => for_ms: u64 },
});

/// Broad effect class, used to attribute recovery causes to faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultClass {
    /// Breaks transport: explains `ConnectionLost`, `DatanodeError`
    /// and `NestedFailure` recoveries.
    Disconnect,
    /// Starves acks: explains `AckTimeout` recoveries.
    Stall,
    /// Slows a node; usually recovers nothing, may explain a timeout.
    Dip,
    /// Takes the namenode away (stall or partition): explains
    /// `NamenodeError` recoveries, which only arise when the client RPC
    /// retry budget is exhausted mid-stream.
    Namenode,
    /// Severs a whole rack from the fabric: cuts client↔datanode links
    /// *and* (for hosts inside the rack) the namenode, so it explains
    /// disconnect-type recoveries and `NamenodeError` alike.
    Partition,
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    pub trigger: Trigger,
    pub kind: FaultKind,
}

json_struct!(impl Json for FaultEvent { "trigger" => trigger: Trigger, "kind" => kind: FaultKind });

/// A trigger is told apart by its key: `{"at_ms": …}` or
/// `{"client": …, "bytes": …}`.
impl ToJson for Trigger {
    fn to_json(&self) -> Value {
        let field = |key: &str, v: Value| (key.to_string(), v);
        Value::Object(match self {
            Trigger::AtMs(ms) => vec![field("at_ms", ms.to_json())],
            Trigger::AtClientBytes { client, bytes } => {
                vec![field("client", client.to_json()), field("bytes", bytes.to_json())]
            }
        })
    }
}

impl Json for Trigger {
    fn from_json(v: &Value) -> DfsResult<Self> {
        if json::member(v, "at_ms")?.is_some() {
            return json::read(v, "at_ms").map(Trigger::AtMs);
        }
        Ok(Trigger::AtClientBytes {
            client: json::read(v, "client")?,
            bytes: json::read(v, "bytes")?,
        })
    }
}

/// A deterministic, replayable fault schedule. Same seed and shape →
/// byte-identical plan; the plan is echoed into the soak report so any
/// run can be replayed exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    pub seed: u64,
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            events: Vec::new(),
        }
    }

    /// Generates `faults` timed faults spread over the middle 70% of a
    /// `budget_ms` run, deterministically from `seed`: a mix of client
    /// link drops, datanode stalls and bandwidth dips.
    pub fn generate(
        seed: u64,
        clients: usize,
        datanodes: usize,
        budget_ms: u64,
        faults: usize,
    ) -> Self {
        assert!(clients > 0 && datanodes > 0);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x50AC_F417);
        let lo = budget_ms * 15 / 100;
        let hi = (budget_ms * 85 / 100).max(lo + 1);
        let mut events = Vec::with_capacity(faults);
        for _ in 0..faults {
            let at_ms = rng.gen_range(lo..hi);
            let roll: f64 = rng.gen_range(0.0..1.0);
            let kind = if roll < 0.4 {
                FaultKind::DropClientLinks {
                    client: rng.gen_range(0..clients),
                }
            } else if roll < 0.7 {
                FaultKind::DatanodeStall {
                    datanode: rng.gen_range(0..datanodes),
                    for_ms: rng.gen_range(300..1200),
                }
            } else {
                FaultKind::SlowNodeDip {
                    datanode: rng.gen_range(0..datanodes),
                    mbps: rng.gen_range(10.0..60.0),
                    for_ms: rng.gen_range(300..1500),
                }
            };
            events.push(FaultEvent {
                trigger: Trigger::AtMs(at_ms),
                kind,
            });
        }
        events.sort_by_key(|e| match e.trigger {
            Trigger::AtMs(ms) => ms,
            Trigger::AtClientBytes { .. } => unreachable!("generate emits timed faults"),
        });
        FaultPlan { seed, events }
    }

    /// Shape checks: cooperative kinds need byte triggers on the same
    /// client that executes them; indices must exist.
    pub fn validate(&self, clients: usize, datanodes: usize) -> Result<(), String> {
        for (i, ev) in self.events.iter().enumerate() {
            match (&ev.trigger, ev.kind.cooperative()) {
                (Trigger::AtClientBytes { client, .. }, true) if *client >= clients => {
                    return Err(format!("event {i}: client {client} out of range"));
                }
                (Trigger::AtClientBytes { .. }, true) => {}
                (Trigger::AtMs(_), false) => {}
                (Trigger::AtMs(_), true) => {
                    return Err(format!(
                        "event {i}: cooperative fault needs an at-client-bytes trigger"
                    ));
                }
                (Trigger::AtClientBytes { .. }, false) => {
                    return Err(format!(
                        "event {i}: timed fault cannot use a client-bytes trigger"
                    ));
                }
            }
            match &ev.kind {
                FaultKind::DropClientLinks { client } if *client >= clients => {
                    return Err(format!("event {i}: client {client} out of range"));
                }
                FaultKind::DatanodeStall { datanode, .. }
                | FaultKind::SlowNodeDip { datanode, .. }
                    if *datanode >= datanodes =>
                {
                    return Err(format!("event {i}: datanode {datanode} out of range"));
                }
                FaultKind::KillPipelineNodes { nodes } if *nodes == 0 => {
                    return Err(format!("event {i}: kill must target at least one node"));
                }
                FaultKind::RackPartition { rack, .. } if rack.is_empty() => {
                    return Err(format!("event {i}: rack partition needs a rack name"));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

json_struct!(impl Json for FaultPlan { "seed" => seed: u64, "events" => events: Vec<FaultEvent> });

/// One fault as actually executed (or skipped), relative to run start.
#[derive(Debug, Clone)]
pub struct AppliedFault {
    pub at_ms: u64,
    /// End of the fault's direct effect (`at_ms` for instantaneous
    /// drops/kills, `at_ms + for_ms` for stalls and dips).
    pub until_ms: u64,
    pub desc: String,
    pub applied: bool,
    /// Datanode hosts the fault directly hit (killed / stalled /
    /// dipped). Empty for link drops, whose victims are client-side
    /// links rather than datanodes — those keep window-only attribution.
    pub victims: Vec<String>,
    class: FaultClass,
}

json_struct!(impl ToJson for AppliedFault {
    "at_ms" => at_ms: u64,
    "until_ms" => until_ms: u64,
    "desc" => desc: String,
    "applied" => applied: bool,
    "victims" => victims: Vec<String>,
});

// ---------------------------------------------------------------------------
// Config
// ---------------------------------------------------------------------------

/// How long the soak runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Budget {
    /// Run until the wall clock expires (workers finish their op).
    WallClock(Duration),
    /// Each client performs exactly this many operations — the
    /// deterministic profile (no timing-dependent cutoff).
    OpsPerClient(usize),
}

/// A budget is told apart by its key: `{"wall_clock_ms": …}` or
/// `{"ops_per_client": …}`.
impl ToJson for Budget {
    fn to_json(&self) -> Value {
        let (key, v) = match self {
            Budget::WallClock(d) => ("wall_clock_ms", d.to_json()),
            Budget::OpsPerClient(k) => ("ops_per_client", k.to_json()),
        };
        Value::Object(vec![(key.to_string(), v)])
    }
}

impl Json for Budget {
    fn from_json(v: &Value) -> DfsResult<Self> {
        if json::member(v, "wall_clock_ms")?.is_some() {
            return json::read(v, "wall_clock_ms").map(Budget::WallClock);
        }
        json::read(v, "ops_per_client").map(Budget::OpsPerClient)
    }
}

/// Workload operation mix: the fraction of each worker's op roll given
/// to creates, rewrites and deletes; whatever remains is verifying
/// reads (`get` + content check, i.e. the striped read path).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMix {
    pub create: f64,
    pub rewrite: f64,
    pub delete: f64,
}

impl OpMix {
    /// The historical soak mix: mostly writes, 15% verifying reads.
    pub fn write_dominant() -> Self {
        OpMix { create: 0.55, rewrite: 0.15, delete: 0.15 }
    }

    /// Read-dominant: 65% verifying reads over a slowly churning file
    /// population.
    pub fn read_heavy() -> Self {
        OpMix { create: 0.25, rewrite: 0.05, delete: 0.05 }
    }

    /// Balanced read/write churn: 40% verifying reads.
    pub fn mixed() -> Self {
        OpMix { create: 0.35, rewrite: 0.15, delete: 0.10 }
    }

    /// Fraction of ops left for verifying reads.
    pub fn read(&self) -> f64 {
        1.0 - self.create - self.rewrite - self.delete
    }

    fn validate(&self) -> Result<(), String> {
        let parts = [self.create, self.rewrite, self.delete];
        if parts.iter().any(|p| !(0.0..=1.0).contains(p)) || self.read() < -1e-9 {
            return Err(format!("op_mix fractions must be in [0,1] and sum to <= 1: {self:?}"));
        }
        Ok(())
    }
}

json_struct!(impl Json for OpMix {
    "create" => create: f64,
    "rewrite" => rewrite: f64,
    "delete" => delete: f64,
});

/// Events the ring behind the sampling sink holds.
const RING_CAPACITY: usize = 262_144;

/// Packet acks [`SamplingSink`] keeps at each end of a block.
const SAMPLED_ACKS: usize = 4;

/// Attribution slack after a fault's direct effect ends, ms.
const GRACE_MS: u64 = 6_000;

/// The two-rack throttle every soak cluster runs under.
const CROSS_RACK_MBPS: f64 = 300.0;

/// Full soak profile. Build one with a constructor
/// ([`SoakConfig::smoke`], [`SoakConfig::deterministic`],
/// [`SoakConfig::sustained`], [`SoakConfig::read_heavy`],
/// [`SoakConfig::mixed`]) and adjust fields as needed.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakConfig {
    pub clients: usize,
    pub datanodes: usize,
    pub seed: u64,
    pub budget: Budget,
    /// Invariant-checking window length.
    pub window: Duration,
    /// Uniform file size range (bytes), inclusive.
    pub file_size_range: (usize, usize),
    pub plan: FaultPlan,
    pub config: DfsConfig,
    /// Bound on the concurrent-pipelines gauge; `None` derives it from
    /// the §IV-C pipeline cap.
    pub max_concurrent_pipelines: Option<u64>,
    /// Create/rewrite/delete fractions of each worker's op roll; the
    /// remainder is verifying striped reads.
    pub op_mix: OpMix,
    /// Build a heterogeneous cluster: datanodes cycle Large/Medium/Small
    /// with per-tier disk and NIC rates (the paper's Table I instance
    /// mix), instead of a uniform Large fleet.
    pub tiered_disks: bool,
}

impl SoakConfig {
    fn base(clients: usize, datanodes: usize, seed: u64) -> Self {
        SoakConfig {
            clients,
            datanodes,
            seed,
            budget: Budget::WallClock(Duration::from_secs(10)),
            window: Duration::from_millis(1000),
            file_size_range: (192 * 1024, 768 * 1024),
            plan: FaultPlan::none(),
            config: DfsConfig::test_scale(),
            max_concurrent_pipelines: None,
            op_mix: OpMix::write_dominant(),
            tiered_disks: false,
        }
    }

    /// Tier-1 smoke: a handful of clients, a few seconds, a generated
    /// fault plan with two link drops plus a stall and a dip.
    pub fn smoke(seed: u64) -> Self {
        let mut cfg = Self::base(6, 9, seed);
        cfg.budget = Budget::WallClock(Duration::from_millis(3_500));
        cfg.window = Duration::from_millis(700);
        cfg.plan = FaultPlan::generate(seed, cfg.clients, cfg.datanodes, 3_500, 4);
        cfg
    }

    /// Single-client, op-budgeted, single-window profile whose
    /// per-window recovery-cause counts are exactly reproducible: the
    /// pipeline cap is 1 (one active pipeline at any instant) and both
    /// faults fire at exact byte offsets mid-block.
    pub fn deterministic(seed: u64) -> Self {
        let mut cfg = Self::base(1, 9, seed);
        cfg.budget = Budget::OpsPerClient(6);
        // One window spans the whole run.
        cfg.window = Duration::from_secs(3_600);
        cfg.file_size_range = (768 * 1024, 768 * 1024); // exactly 3 blocks
        cfg.config.max_pipelines_override = Some(1);
        cfg.plan = FaultPlan {
            seed,
            events: vec![
                // Mid-block 2 of the first file: cable pull.
                FaultEvent {
                    trigger: Trigger::AtClientBytes {
                        client: 0,
                        bytes: 384 * 1024,
                    },
                    kind: FaultKind::DropOwnLinks,
                },
                // Mid-block 2 of the second file: kill two pipeline
                // members at once — the second death is discovered
                // during the recovery of the first (nested).
                FaultEvent {
                    trigger: Trigger::AtClientBytes {
                        client: 0,
                        bytes: (768 + 384) * 1024,
                    },
                    kind: FaultKind::KillPipelineNodes { nodes: 2 },
                },
            ],
        };
        cfg
    }

    /// Namenode-hostile profile: every fault targets the namenode —
    /// a NIC stall that trips per-attempt read deadlines, and a
    /// client↔namenode partition that refuses reconnects until healed.
    /// The retry budget is widened so its backoff schedule outlasts any
    /// single injected outage: streams must ride every fault out with
    /// zero failures, and any `NamenodeError` recovery that does surface
    /// must land inside an active namenode-class fault window.
    pub fn hostile(seed: u64) -> Self {
        let mut cfg = Self::base(4, 9, seed);
        cfg.budget = Budget::WallClock(Duration::from_millis(4_000));
        cfg.window = Duration::from_millis(800);
        // A stalled namenode NIC starves heartbeats too. Keep the
        // expiry horizon (interval × 10) beyond the longest stall so
        // the run measures namenode availability, not datanode death.
        cfg.config.heartbeat_interval = SimDuration::from_millis(100);
        cfg.config.rpc_retry = RetryPolicy {
            attempts: 8,
            base_backoff: SimDuration::from_millis(50),
            deadline: SimDuration::from_millis(500),
        };
        cfg.plan = FaultPlan {
            seed,
            events: vec![
                FaultEvent {
                    trigger: Trigger::AtMs(800),
                    kind: FaultKind::NamenodeStall { for_ms: 700 },
                },
                FaultEvent {
                    trigger: Trigger::AtMs(2_000),
                    kind: FaultKind::NamenodePartition { for_ms: 600 },
                },
                FaultEvent {
                    trigger: Trigger::AtMs(3_100),
                    kind: FaultKind::NamenodeStall { for_ms: 500 },
                },
            ],
        };
        cfg
    }

    /// Read-heavy smoke: the [`Self::smoke`] cluster and fault plan with
    /// a read-dominant op mix, so stalls and link drops land on striped
    /// reads (source failover) at least as often as on pipelines.
    pub fn read_heavy(seed: u64) -> Self {
        let mut cfg = Self::smoke(seed);
        cfg.op_mix = OpMix::read_heavy();
        cfg
    }

    /// Top-of-rack switch failure profile: rack-b (half the datanodes
    /// and the odd-numbered clients) drops off the fabric mid-run and
    /// comes back, twice. The heartbeat horizon and RPC retry budget are
    /// widened so the run measures partition-riding, not cascade death.
    pub fn rack_partition(seed: u64) -> Self {
        let mut cfg = Self::base(4, 9, seed);
        cfg.budget = Budget::WallClock(Duration::from_millis(4_000));
        cfg.window = Duration::from_millis(800);
        // 100 ms × 10 = a 1 s expiry horizon, beyond the longest outage:
        // partitioned datanodes must come back alive, not expired.
        cfg.config.heartbeat_interval = SimDuration::from_millis(100);
        // The retry deadline must outlive the longest outage: a client
        // that gives up mid-partition can have its last mutation land
        // anyway (the response was lost, not the request), which the
        // churn bookkeeping would mis-read as an integrity failure.
        cfg.config.rpc_retry = RetryPolicy {
            attempts: 12,
            base_backoff: SimDuration::from_millis(50),
            deadline: SimDuration::from_millis(1_500),
        };
        // Partition churn holds broken pipelines and their replacements
        // open at once, so the steady-state bound does not apply.
        cfg.max_concurrent_pipelines = Some(48);
        cfg.plan = FaultPlan {
            seed,
            events: vec![
                FaultEvent {
                    trigger: Trigger::AtMs(1_000),
                    kind: FaultKind::RackPartition {
                        rack: "rack-b".into(),
                        for_ms: 700,
                    },
                },
                FaultEvent {
                    trigger: Trigger::AtMs(2_600),
                    kind: FaultKind::RackPartition {
                        rack: "rack-b".into(),
                        for_ms: 500,
                    },
                },
            ],
        };
        cfg
    }

    /// The [`Self::smoke`] shape over the paper's Table I instance mix:
    /// tiered disk and NIC rates per datanode, so placement and read
    /// ordering face a genuinely heterogeneous fleet.
    pub fn tiered_smoke(seed: u64) -> Self {
        let mut cfg = Self::smoke(seed);
        cfg.tiered_disks = true;
        cfg
    }

    /// Balanced read/write churn over the [`Self::sustained`] shape.
    pub fn mixed(clients: usize, secs: u64, seed: u64) -> Self {
        let mut cfg = Self::sustained(clients, secs, seed);
        cfg.op_mix = OpMix::mixed();
        cfg
    }

    /// Longer profile for `smarth_shell soak` and the opt-in long test:
    /// dozens of clients, minutes of churn, a denser generated plan.
    pub fn sustained(clients: usize, secs: u64, seed: u64) -> Self {
        let datanodes = 12;
        let mut cfg = Self::base(clients, datanodes, seed);
        cfg.budget = Budget::WallClock(Duration::from_secs(secs));
        cfg.window = Duration::from_secs(2);
        // Stalls should outlast the event timeout so they surface as
        // AckTimeout recoveries, not just throughput dips.
        cfg.config.pipeline_event_timeout = SimDuration::from_millis(1_500);
        let faults = ((secs / 3).max(2)) as usize;
        cfg.plan = FaultPlan::generate(seed, clients, datanodes, secs * 1_000, faults);
        // Make generated stalls long enough to trip the timeout.
        for ev in &mut cfg.plan.events {
            if let FaultKind::DatanodeStall { for_ms, .. } = &mut ev.kind {
                *for_ms = (*for_ms).max(2_500);
            }
        }
        cfg
    }

    fn build_spec(&self) -> ClusterSpec {
        let instance = InstanceType::Large;
        let mut hosts = vec![
            HostSpec {
                name: "namenode".into(),
                role: HostRole::NameNode,
                instance,
                rack: "rack-a".into(),
                nic_throttle: None,
                disk_throttle: None,
            },
            HostSpec {
                name: "client".into(),
                role: HostRole::Client,
                instance,
                rack: "rack-a".into(),
                nic_throttle: None,
                disk_throttle: None,
            },
        ];
        for i in 0..self.datanodes {
            let tier = if self.tiered_disks {
                [InstanceType::Large, InstanceType::Medium, InstanceType::Small][i % 3]
            } else {
                instance
            };
            hosts.push(HostSpec {
                name: format!("dn{i}"),
                role: HostRole::DataNode,
                instance: tier,
                rack: if i % 2 == 0 { "rack-a" } else { "rack-b" }.into(),
                nic_throttle: None,
                disk_throttle: self.tiered_disks.then(|| tier.disk_bandwidth()),
            });
        }
        ClusterSpec {
            name: format!("soak-{}c-{}dn", self.clients, self.datanodes),
            hosts,
            cross_rack_throttle: Some(Bandwidth::mbps(CROSS_RACK_MBPS)),
            link_latency: SimDuration::from_micros(50),
        }
        .with_extra_clients(self.clients, instance)
    }

    fn derived_pipeline_bound(&self) -> u64 {
        let cap = self.config.max_pipelines(self.datanodes) as u64;
        self.clients as u64 * cap + 2
    }

    fn concurrent_bound(&self) -> u64 {
        self.max_concurrent_pipelines
            .unwrap_or_else(|| self.derived_pipeline_bound())
    }

    fn buffered_bound(&self) -> u64 {
        // Every hop of an active pipeline stages up to one
        // `datanode_client_buffer` of bytes between its receive and flush
        // threads (the staged write path), so the bound scales with
        // replication width, with one extra buffer of slack for drain
        // raggedness.
        let hops = self.config.replication as u64;
        self.derived_pipeline_bound() * self.config.datanode_client_buffer.as_u64() * (hops + 1)
    }
}

// Everything needed to re-run a profile. The embedded `DfsConfig` is
// written as the knobs the constructors set; a read starts from
// `DfsConfig::test_scale` (the base every constructor starts from) for
// the rest.
json_struct!(impl Json for SoakConfig from SoakConfig::base(0, 0, 0), {
    "clients" => clients: usize,
    "datanodes" => datanodes: usize,
    "seed" => seed: u64,
    "budget" => budget: Budget,
    "window_ms" => window: Duration,
    "file_size_range" => file_size_range: (usize, usize),
    "max_concurrent_pipelines" => max_concurrent_pipelines: Option<u64>,
    "tiered_disks" => tiered_disks: bool,
    "op_mix" => op_mix: OpMix,
    "max_pipelines_override" => config.max_pipelines_override: Option<usize>,
    "pipeline_event_timeout_ms" => config.pipeline_event_timeout: SimDuration,
    "speed_half_life_ms" => config.speed_half_life: Option<SimDuration>,
    "heartbeat_ms" => config.heartbeat_interval: SimDuration,
    "rpc_retry_attempts" => config.rpc_retry.attempts: u32,
    "rpc_retry_base_ms" => config.rpc_retry.base_backoff: SimDuration,
    "rpc_retry_deadline_ms" => config.rpc_retry.deadline: SimDuration,
    "plan" => plan: FaultPlan,
});

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// Recovery counts, one slot per [`RecoveryCause::ALL`] entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CauseCounts(pub [u64; CAUSES]);

/// An object keyed by cause name, in [`RecoveryCause::ALL`] order.
impl ToJson for CauseCounts {
    fn to_json(&self) -> Value {
        let names = RecoveryCause::ALL.iter().map(|c| c.name().to_string());
        Value::Object(names.zip(self.0.iter().map(u64::to_json)).collect())
    }
}

impl Json for CauseCounts {
    fn from_json(v: &Value) -> DfsResult<Self> {
        let mut counts = CauseCounts::default();
        for (slot, cause) in counts.0.iter_mut().zip(RecoveryCause::ALL) {
            *slot = json::read(v, cause.name())?;
        }
        Ok(counts)
    }
}

/// Per-window accounting produced by the live invariant checker.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    pub index: usize,
    pub start_ms: u64,
    pub end_ms: u64,
    pub blocks_committed: u64,
    pub fnfa_received: u64,
    /// Recoveries begun in this window.
    pub recoveries: CauseCounts,
    pub faults_applied: u64,
    pub violations: u64,
}

json_struct!(impl Json for WindowStats {
    "index" => index: usize,
    "start_ms" => start_ms: u64,
    "end_ms" => end_ms: u64,
    "blocks_committed" => blocks_committed: u64,
    "fnfa_received" => fnfa_received: u64,
    "recoveries" => recoveries: CauseCounts,
    "faults_applied" => faults_applied: u64,
    "violations" => violations: u64,
});

/// Per-worker operation tally.
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    pub ops: u64,
    pub creates: u64,
    pub rewrites: u64,
    pub deletes: u64,
    pub verifies: u64,
    pub bytes_written: u64,
    pub op_errors: u64,
    pub integrity_failures: u64,
    pub errors: Vec<String>,
}

json_struct!(impl ToJson for WorkerStats {
    "ops" => ops: u64,
    "creates" => creates: u64,
    "rewrites" => rewrites: u64,
    "deletes" => deletes: u64,
    "verifies" => verifies: u64,
    "bytes_written" => bytes_written: u64,
    "op_errors" => op_errors: u64,
    "integrity_failures" => integrity_failures: u64,
});

/// The full outcome of one soak run.
#[derive(Debug)]
pub struct SoakReport {
    pub id: String,
    pub seed: u64,
    /// The profile that produced this report, echoed in full so the
    /// report alone is enough to replay the run (`replay` command).
    pub config: SoakConfig,
    pub elapsed_ms: u64,
    pub windows: Vec<WindowStats>,
    pub violations: Vec<String>,
    pub plan: FaultPlan,
    pub fault_log: Vec<AppliedFault>,
    pub workers: Vec<WorkerStats>,
    pub blocks_committed: u64,
    pub bytes_written: u64,
    pub fnfa_received: u64,
    /// Run totals per cause.
    pub recoveries: CauseCounts,
    pub max_concurrent_pipelines: u64,
    pub max_buffered_bytes: u64,
    /// Peak simultaneous pipelines of the busiest client, from the
    /// assembled trace (the paper's overlap signature).
    pub max_client_overlap: usize,
    pub events_seen: u64,
    pub events_sampled_out: u64,
    pub events_evicted: u64,
    /// Time-series sampled once per monitor window (plus run start/end).
    pub telemetry: TelemetrySeries,
    /// `SloTracker::standard()` evaluated over `telemetry`.
    pub slo: SloVerdict,
}

impl SoakReport {
    pub fn recoveries_by_cause(&self) -> BTreeMap<&'static str, u64> {
        RecoveryCause::ALL
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name(), self.recoveries.0[i]))
            .collect()
    }

    pub fn recoveries_total(&self) -> u64 {
        self.recoveries.0.iter().sum()
    }

    /// Writes `<dir>/<id>.soak.json` (same conventions as the figures
    /// plumbing's `<id>.metrics.json` / `<id>.trace.json`).
    pub fn save(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.soak.json", self.id));
        std::fs::write(&path, self.to_json().to_string_pretty() + "\n")?;
        Ok(path)
    }

    /// Human-readable summary for the shell.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "soak {} — seed {} — {:.1} s, {} committed blocks, {:.1} MiB, {} recoveries, {} faults\n",
            self.id,
            self.seed,
            self.elapsed_ms as f64 / 1_000.0,
            self.blocks_committed,
            self.bytes_written as f64 / (1024.0 * 1024.0),
            self.recoveries_total(),
            self.fault_log.iter().filter(|f| f.applied).count(),
        ));
        out.push_str(&format!(
            "  overlap: peak {} concurrent pipelines ({} per busiest client); buffered bytes peak {}\n",
            self.max_concurrent_pipelines, self.max_client_overlap, self.max_buffered_bytes
        ));
        for (name, n) in self.recoveries_by_cause() {
            if n > 0 {
                out.push_str(&format!("  recoveries/{name}: {n}\n"));
            }
        }
        out.push_str("  window  start..end ms   blocks  fnfa  recoveries  faults  violations\n");
        for w in &self.windows {
            out.push_str(&format!(
                "  {:>6}  {:>6}..{:<6}  {:>6}  {:>4}  {:>10}  {:>6}  {:>10}\n",
                w.index,
                w.start_ms,
                w.end_ms,
                w.blocks_committed,
                w.fnfa_received,
                w.recoveries.0.iter().sum::<u64>(),
                w.faults_applied,
                w.violations,
            ));
        }
        if self.violations.is_empty() {
            out.push_str("  invariants: OK\n");
        } else {
            for v in &self.violations {
                out.push_str(&format!("  VIOLATION: {v}\n"));
            }
        }
        out.push_str(&self.slo.render());
        out
    }
}

json_struct!(impl ToJson for SoakReport {
    "id" => id: String,
    "seed" => seed: u64,
    "config" => config: SoakConfig,
    "elapsed_ms" => elapsed_ms: u64,
    "plan" => plan: FaultPlan,
    "fault_log" => fault_log: Vec<AppliedFault>,
    "windows" => windows: Vec<WindowStats>,
    "workers" => workers: Vec<WorkerStats>,
    "blocks_committed" => blocks_committed: u64,
    "bytes_written" => bytes_written: u64,
    "fnfa_received" => fnfa_received: u64,
    "recoveries" => recoveries: CauseCounts,
    "recoveries_total" => recoveries_total(): u64,
    "max_concurrent_pipelines" => max_concurrent_pipelines: u64,
    "max_buffered_bytes" => max_buffered_bytes: u64,
    "max_client_overlap" => max_client_overlap: usize,
    "events_seen" => events_seen: u64,
    "events_sampled_out" => events_sampled_out: u64,
    "events_evicted" => events_evicted: u64,
    "telemetry" => telemetry: TelemetrySeries,
    "slo" => slo: SloVerdict,
    "violations" => violations: Vec<String>,
});

// ---------------------------------------------------------------------------
// Live invariant checker
// ---------------------------------------------------------------------------

#[derive(Default)]
struct BlockState {
    fnfa: u64,
    recoveries: u64,
    /// Every datanode host this block's pipelines have included
    /// (allocation targets plus recovery replacements) — the causal side
    /// of fault attribution.
    targets: BTreeSet<String>,
}

struct Checker {
    timeout_ms: u64,
    run_start_us: u64,
    concurrent_bound: u64,
    buffered_bound: u64,
    /// Datanode id → fabric host name, for matching a recovering
    /// block's pipeline against a fault's victim hosts.
    dn_hosts: BTreeMap<DatanodeId, String>,
    blocks: BTreeMap<BlockId, BlockState>,
    violations: Vec<String>,
    // Current-window accumulators, reset by `close_window`.
    win_recoveries: CauseCounts,
    win_committed: u64,
    win_fnfa: u64,
    win_violations: u64,
}

impl Checker {
    fn new(cfg: &SoakConfig, run_start_us: u64, dn_hosts: BTreeMap<DatanodeId, String>) -> Self {
        Checker {
            timeout_ms: (cfg.config.pipeline_event_timeout.as_secs_f64() * 1_000.0) as u64,
            run_start_us,
            concurrent_bound: cfg.concurrent_bound(),
            buffered_bound: cfg.buffered_bound(),
            dn_hosts,
            blocks: BTreeMap::new(),
            violations: Vec::new(),
            win_recoveries: CauseCounts::default(),
            win_committed: 0,
            win_fnfa: 0,
            win_violations: 0,
        }
    }

    fn note_targets(&mut self, block: BlockId, targets: &[DatanodeId]) {
        let hosts: Vec<String> = targets
            .iter()
            .filter_map(|id| self.dn_hosts.get(id).cloned())
            .collect();
        self.blocks.entry(block).or_default().targets.extend(hosts);
    }

    fn violation(&mut self, msg: String) {
        self.win_violations += 1;
        if self.violations.len() < 64 {
            self.violations.push(msg);
        }
    }

    fn rel_ms(&self, at_us: u64) -> u64 {
        at_us.saturating_sub(self.run_start_us) / 1_000
    }

    /// Is a recovery of `block` with this cause at `t_ms` explained by a
    /// fault that was recently active? Attribution is causal where it
    /// can be: a fault that names datanode victims only explains
    /// recoveries of blocks whose pipeline actually included one of
    /// those victims. `AckTimeout` keeps the pure time-window fallback —
    /// a stalled node's back-pressure starves acks on pipelines that
    /// never touch the stalled host.
    fn attributable(
        &self,
        cause: RecoveryCause,
        t_ms: u64,
        block: BlockId,
        faults: &[AppliedFault],
    ) -> bool {
        let targets = self.blocks.get(&block).map(|b| &b.targets);
        faults.iter().filter(|f| f.applied).any(|f| {
            let slack = match cause {
                // Timeouts surface up to one event-timeout after the
                // fault's direct effect ends.
                RecoveryCause::AckTimeout => self.timeout_ms + GRACE_MS,
                _ => GRACE_MS,
            };
            let compatible = match cause {
                RecoveryCause::ConnectionLost
                | RecoveryCause::DatanodeError
                | RecoveryCause::NestedFailure => {
                    matches!(f.class, FaultClass::Disconnect | FaultClass::Partition)
                }
                RecoveryCause::AckTimeout => true,
                RecoveryCause::NamenodeError => {
                    matches!(f.class, FaultClass::Namenode | FaultClass::Partition)
                }
            };
            if !(compatible && t_ms >= f.at_ms && t_ms <= f.until_ms + slack) {
                return false;
            }
            if cause == RecoveryCause::AckTimeout || f.victims.is_empty() {
                return true;
            }
            match targets {
                Some(t) => f.victims.iter().any(|v| t.contains(v)),
                // Allocation events for this block were evicted from the
                // ring before we saw them; fall back to the window.
                None => true,
            }
        })
    }

    fn ingest(&mut self, records: &[EventRecord], faults: &[AppliedFault]) {
        for r in records {
            match &r.event {
                ObsEvent::BlockAllocated { block, targets, .. }
                | ObsEvent::PipelineOpened { block, targets } => {
                    self.note_targets(*block, targets);
                }
                ObsEvent::FnfaReceived { block, .. } => {
                    self.win_fnfa += 1;
                    let st = self.blocks.entry(*block).or_default();
                    st.fnfa += 1;
                    // A recovery legitimately re-finalizes the first
                    // node; more FNFAs than 1 + recoveries is a protocol
                    // bug (duplicate FIRST_NODE_FINISH).
                    if st.fnfa > 1 + st.recoveries {
                        let (fnfa, recov) = (st.fnfa, st.recoveries);
                        self.violation(format!(
                            "block {} received {} FNFAs with only {} recoveries",
                            block.raw(),
                            fnfa,
                            recov
                        ));
                    }
                }
                ObsEvent::RecoveryStarted { block, cause, .. } => {
                    self.blocks.entry(*block).or_default().recoveries += 1;
                    self.win_recoveries.0[cause.index()] += 1;
                    let t_ms = self.rel_ms(r.at_us);
                    if !self.attributable(*cause, t_ms, *block, faults) {
                        self.violation(format!(
                            "unattributed recovery: block {} cause {} at {} ms has no \
                             matching injected fault",
                            block.raw(),
                            cause.name(),
                            t_ms
                        ));
                    }
                }
                ObsEvent::PipelineClosed {
                    committed: true, ..
                } => self.win_committed += 1,
                _ => {}
            }
        }
    }

    fn check_gauges(&mut self, metrics: &smarth_core::obs::Metrics) {
        let pipes = metrics.concurrent_pipelines.get();
        if pipes > self.concurrent_bound {
            let bound = self.concurrent_bound;
            self.violation(format!(
                "concurrent pipelines gauge {pipes} exceeds bound {bound}"
            ));
        }
        let buffered = metrics.datanode_buffered_bytes.get();
        if buffered > self.buffered_bound {
            let bound = self.buffered_bound;
            self.violation(format!(
                "datanode buffered bytes gauge {buffered} exceeds bound {bound}"
            ));
        }
    }

    fn close_window(&mut self, index: usize, start_ms: u64, end_ms: u64, faults: u64) -> WindowStats {
        let w = WindowStats {
            index,
            start_ms,
            end_ms,
            blocks_committed: self.win_committed,
            fnfa_received: self.win_fnfa,
            recoveries: self.win_recoveries,
            faults_applied: faults,
            violations: self.win_violations,
        };
        self.win_recoveries = CauseCounts::default();
        self.win_committed = 0;
        self.win_fnfa = 0;
        self.win_violations = 0;
        w
    }
}

// ---------------------------------------------------------------------------
// Workers and fault execution
// ---------------------------------------------------------------------------

struct Shared {
    cluster: MiniCluster,
    dn_hosts: Vec<String>,
    /// Worker hosts (`client{i}`), the victims of namenode partitions.
    client_hosts: Vec<String>,
    start: Instant,
    stop: AtomicBool,
    fault_log: Mutex<Vec<AppliedFault>>,
}

impl Shared {
    /// Applies one fault and logs it; `apply` says whether it took
    /// effect (see [`stamp_then_apply`]).
    fn apply_fault(
        &self,
        kind: &FaultKind,
        until_extra_ms: u64,
        detail: String,
        victims: Vec<String>,
        apply: impl FnOnce() -> bool,
    ) {
        let fault = stamp_then_apply(self.start, kind, until_extra_ms, detail, victims, apply);
        self.fault_log.lock().push(fault);
    }

    fn drop_links(&self, client_host: &str) {
        for dn in &self.dn_hosts {
            self.cluster.fabric().cut_link(client_host, dn);
        }
    }

    /// Blocks (or re-allows) client↔namenode traffic: live RPC streams
    /// are cut and reconnects refused until healed, so the client retry
    /// layer — not a lucky surviving stream — has to carry the outage.
    fn set_namenode_partition(&self, active: bool) {
        for host in &self.client_hosts {
            if active {
                self.cluster.fabric().partition_link(host, "namenode");
            } else {
                self.cluster.fabric().heal_link(host, "namenode");
            }
        }
    }

    /// Severs (or heals) every fabric link with exactly one endpoint in
    /// `rack` — a top-of-rack switch failure. Intra-rack traffic is
    /// untouched; everything crossing the boundary (pipelines, reads,
    /// heartbeats, namenode RPCs) is cut and refused until healed.
    fn set_rack_partition(&self, rack: &str, active: bool) {
        let hosts = &self.cluster.spec().hosts;
        for (i, a) in hosts.iter().enumerate() {
            for b in &hosts[i + 1..] {
                if (a.rack == rack) == (b.rack == rack) {
                    continue;
                }
                if active {
                    self.cluster.fabric().partition_link(&a.name, &b.name);
                } else {
                    self.cluster.fabric().heal_link(&a.name, &b.name);
                }
            }
        }
    }
}

/// Stamps a fault's `at_ms`, then applies it; `apply` says whether it
/// took effect. The stamp comes first for every kind: a fault can surface
/// a recovery before `apply` returns (the first of many links cut), and
/// attribution needs the fault's window to open no later than its first
/// effect.
fn stamp_then_apply(
    start: Instant,
    kind: &FaultKind,
    until_extra_ms: u64,
    desc: String,
    victims: Vec<String>,
    apply: impl FnOnce() -> bool,
) -> AppliedFault {
    let at_ms = start.elapsed().as_millis() as u64;
    let applied = apply();
    AppliedFault {
        at_ms,
        until_ms: at_ms + until_extra_ms,
        desc,
        applied,
        victims,
        class: kind.class(),
    }
}

struct Worker<'a> {
    shared: &'a Shared,
    cfg: &'a SoakConfig,
    idx: usize,
    host: String,
    total_bytes: u64,
    /// Remaining byte-offset triggers for this client, ascending.
    triggers: VecDeque<(u64, FaultKind)>,
    stats: WorkerStats,
}

impl<'a> Worker<'a> {
    fn record_error(&mut self, what: &str, e: &DfsError) {
        self.stats.op_errors += 1;
        if self.stats.errors.len() < 8 {
            self.stats.errors.push(format!("{what}: {e}"));
        }
    }

    fn execute_cooperative(&mut self, kind: &FaultKind, stream: Option<&DfsOutputStream>) {
        match kind {
            FaultKind::DropOwnLinks => {
                let detail =
                    format!("client{} dropped own links at byte {}", self.idx, self.total_bytes);
                self.shared.apply_fault(kind, 0, detail, Vec::new(), || {
                    self.shared.drop_links(&self.host);
                    true
                });
            }
            FaultKind::KillPipelineNodes { nodes } => {
                let targets = stream
                    .map(|s| s.current_target_hosts())
                    .unwrap_or_default();
                let victims: Vec<String> = targets.into_iter().take(*nodes).collect();
                let detail = format!(
                    "client{} killed {:?} at byte {}",
                    self.idx, victims, self.total_bytes
                );
                self.shared.apply_fault(kind, 0, detail, victims.clone(), || {
                    for host in &victims {
                        let _ = self.shared.cluster.kill_datanode(host);
                    }
                    !victims.is_empty()
                });
            }
            _ => unreachable!("validated: only cooperative kinds reach workers"),
        }
    }

    /// Writes `data`, firing any byte-offset triggers exactly when the
    /// stream's cumulative byte count crosses them.
    fn write_with_triggers(
        &mut self,
        stream: &mut DfsOutputStream,
        data: &[u8],
    ) -> DfsResult<()> {
        const CHUNK: usize = 16 * 1024;
        let mut off = 0usize;
        while off < data.len() {
            let mut take = (data.len() - off).min(CHUNK);
            if let Some((at, _)) = self.triggers.front() {
                if *at > self.total_bytes {
                    take = take.min((*at - self.total_bytes) as usize);
                }
            }
            stream.write(&data[off..off + take])?;
            off += take;
            self.total_bytes += take as u64;
            self.stats.bytes_written += take as u64;
            while self
                .triggers
                .front()
                .is_some_and(|(at, _)| *at <= self.total_bytes)
            {
                let (_, kind) = self.triggers.pop_front().expect("front checked");
                self.execute_cooperative(&kind, Some(stream));
            }
        }
        Ok(())
    }

}

fn run_worker(
    shared: &Shared,
    cfg: &SoakConfig,
    idx: usize,
    host: String,
    rack: String,
    triggers: VecDeque<(u64, FaultKind)>,
) -> WorkerStats {
    let mut w = Worker {
        shared,
        cfg,
        idx,
        host: host.clone(),
        total_bytes: 0,
        triggers,
        stats: WorkerStats::default(),
    };
    let client = match shared.cluster.client_on(&host, &rack) {
        Ok(c) => c,
        Err(e) => {
            w.record_error("connect", &e);
            return w.stats;
        }
    };
    let mut rng =
        ChaCha8Rng::seed_from_u64(cfg.seed ^ ((idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    // Owned files: (path, content seed, len); rewrites refresh the seed.
    let mut files: Vec<(String, u64, usize)> = Vec::new();
    let mut file_no = 0u64;
    loop {
        match cfg.budget {
            Budget::OpsPerClient(k) => {
                if w.stats.ops >= k as u64 {
                    break;
                }
            }
            Budget::WallClock(_) => {
                if shared.stop.load(Ordering::Relaxed) {
                    break;
                }
            }
        }
        let (lo, hi) = cfg.file_size_range;
        let mix = cfg.op_mix;
        let roll: f64 = rng.gen_range(0.0..1.0);
        if files.is_empty() || roll < mix.create {
            // Create a new file.
            let len = if hi > lo { rng.gen_range(lo..hi + 1) } else { lo };
            let path = format!("/soak/c{idx}/f{file_no}");
            let content_seed = cfg.seed ^ ((idx as u64) << 32) ^ (file_no << 8) ^ 1;
            file_no += 1;
            match upload(&mut w, &client, &path, content_seed, len, false) {
                Ok(()) => {
                    w.stats.creates += 1;
                    files.push((path, content_seed, len));
                }
                Err(e) => w.record_error("create", &e),
            }
        } else if roll < mix.create + mix.rewrite {
            // Re-write an existing file with fresh content.
            let i = rng.gen_range(0..files.len());
            let len = if hi > lo { rng.gen_range(lo..hi + 1) } else { lo };
            let content_seed = files[i].1 ^ 0xA5A5_5A5A ^ (w.stats.ops + 1);
            let path = files[i].0.clone();
            match upload(&mut w, &client, &path, content_seed, len, true) {
                Ok(()) => {
                    w.stats.rewrites += 1;
                    files[i].1 = content_seed;
                    files[i].2 = len;
                }
                Err(e) => {
                    // The on-cluster state is now unknown: the overwrite
                    // may have replaced any prefix of the old content
                    // (or all of it, if only the final ack was lost).
                    // Stop tracking the path so a later verify doesn't
                    // mis-read the ambiguity as an integrity failure.
                    w.record_error("rewrite", &e);
                    files.swap_remove(i);
                    let _ = client.delete(&path);
                }
            }
        } else if roll < mix.create + mix.rewrite + mix.delete {
            let i = rng.gen_range(0..files.len());
            let (path, _, _) = files.swap_remove(i);
            match client.delete(&path) {
                Ok(_) => w.stats.deletes += 1,
                Err(e) => w.record_error("delete", &e),
            }
        } else {
            let i = rng.gen_range(0..files.len());
            let (path, content_seed, len) = files[i].clone();
            match client.get(&path) {
                Ok(data) => {
                    w.stats.verifies += 1;
                    if data != random_data(content_seed, len) {
                        w.stats.integrity_failures += 1;
                    }
                }
                Err(e) => w.record_error("verify", &e),
            }
        }
        w.stats.ops += 1;
    }
    w.stats
}

fn upload(
    w: &mut Worker<'_>,
    client: &DfsClient,
    path: &str,
    content_seed: u64,
    len: usize,
    overwrite: bool,
) -> DfsResult<()> {
    let mut stream = client.create_with(
        path,
        WriteMode::Smarth,
        w.cfg.config.replication as u32,
        overwrite,
    )?;
    let data = random_data(content_seed, len);
    w.write_with_triggers(&mut stream, &data)?;
    stream.close()?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Timed-fault injector
// ---------------------------------------------------------------------------

enum TimedAction {
    Apply(FaultKind),
    Restore { host: String },
    /// Heal the client↔namenode partition (all client hosts at once).
    HealNamenodePartition,
    /// Re-connect `rack` to the rest of the fabric.
    HealRackPartition { rack: String },
}

fn run_injector(shared: &Shared, mut actions: Vec<(u64, TimedAction)>) {
    actions.sort_by_key(|(ms, _)| *ms);
    let mut actions = actions.into_iter();
    while let Some((at_ms, action)) = actions.next() {
        loop {
            if shared.stop.load(Ordering::Relaxed) {
                // The run is winding down: skip remaining faults but
                // still lift every pending throttle and partition,
                // otherwise a node stays stalled (or the namenode stays
                // unreachable) and in-flight ops crawl for minutes.
                for (_, pending) in std::iter::once((at_ms, action)).chain(&mut actions) {
                    match pending {
                        TimedAction::Restore { host } => {
                            let _ = shared.cluster.throttle_host(&host, None);
                        }
                        TimedAction::HealNamenodePartition => {
                            shared.set_namenode_partition(false);
                        }
                        TimedAction::HealRackPartition { rack } => {
                            shared.set_rack_partition(&rack, false);
                        }
                        TimedAction::Apply(_) => {}
                    }
                }
                return;
            }
            let now = shared.start.elapsed().as_millis() as u64;
            if now >= at_ms {
                break;
            }
            std::thread::sleep(Duration::from_millis((at_ms - now).min(50)));
        }
        match action {
            TimedAction::Apply(kind) => {
                match &kind {
                    FaultKind::DropClientLinks { client } => {
                        shared.apply_fault(&kind, 0, kind.describe(), Vec::new(), || {
                            shared.drop_links(&format!("client{client}"));
                            true
                        });
                    }
                    FaultKind::DatanodeStall { datanode, for_ms } => {
                        let host = &shared.dn_hosts[*datanode];
                        shared.apply_fault(&kind, *for_ms, kind.describe(), vec![host.clone()], || {
                            shared.cluster.throttle_host(host, Some(Bandwidth::mbps(0.5))).is_ok()
                        });
                    }
                    FaultKind::SlowNodeDip {
                        datanode,
                        mbps,
                        for_ms,
                    } => {
                        let host = &shared.dn_hosts[*datanode];
                        shared.apply_fault(&kind, *for_ms, kind.describe(), vec![host.clone()], || {
                            shared.cluster.throttle_host(host, Some(Bandwidth::mbps(*mbps))).is_ok()
                        });
                    }
                    FaultKind::NamenodeStall { for_ms } => {
                        // Low enough that even small RPC replies blow the
                        // per-attempt read deadline (unlike datanode
                        // stalls, namenode traffic is a few hundred
                        // bytes, not 64 KiB packets).
                        // Victims stay empty: namenode faults hit every
                        // client's RPCs, so attribution is window+class.
                        shared.apply_fault(&kind, *for_ms, kind.describe(), Vec::new(), || {
                            shared.cluster.throttle_host("namenode", Some(Bandwidth::mbps(0.01))).is_ok()
                        });
                    }
                    FaultKind::NamenodePartition { for_ms } => {
                        shared.apply_fault(&kind, *for_ms, kind.describe(), Vec::new(), || {
                            shared.set_namenode_partition(true);
                            true
                        });
                    }
                    FaultKind::RackPartition { rack, for_ms } => {
                        // Victims stay empty: the fault severs link *pairs*
                        // on both sides of the boundary, so attribution is
                        // window+class (Partition explains disconnects and
                        // namenode errors).
                        shared.apply_fault(&kind, *for_ms, kind.describe(), Vec::new(), || {
                            shared.set_rack_partition(rack, true);
                            true
                        });
                    }
                    _ => unreachable!("validated: cooperative kinds never reach injector"),
                }
            }
            TimedAction::Restore { host } => {
                let _ = shared.cluster.throttle_host(&host, None);
            }
            TimedAction::HealNamenodePartition => {
                shared.set_namenode_partition(false);
            }
            TimedAction::HealRackPartition { rack } => {
                shared.set_rack_partition(&rack, false);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Runs one soak profile to completion and returns the report. The
/// caller decides what to do with violations — tests assert emptiness,
/// the shell prints them.
pub fn run(cfg: &SoakConfig) -> DfsResult<SoakReport> {
    cfg.plan
        .validate(cfg.clients, cfg.datanodes)
        .map_err(DfsError::Internal)?;
    cfg.op_mix.validate().map_err(DfsError::Internal)?;
    let spec = cfg.build_spec();

    let ring = RingBufferSink::new(RING_CAPACITY);
    let sampling = SamplingSink::new(ring.clone(), SAMPLED_ACKS, SAMPLED_ACKS);
    let obs = Obs::new(sampling.clone());
    let metrics = obs.metrics().clone();
    let sampler = Sampler::new(metrics.clone(), 4096);

    let run_start_us = Obs::now_us();
    sampler.sample_at(run_start_us);
    let cluster = MiniCluster::start_with_obs(&spec, cfg.config.clone(), cfg.seed, obs)?;
    let dn_hosts = cluster.datanode_hosts();
    let shared = Arc::new(Shared {
        cluster,
        dn_hosts,
        client_hosts: (0..cfg.clients).map(|i| format!("client{i}")).collect(),
        start: Instant::now(),
        stop: AtomicBool::new(false),
        fault_log: Mutex::new(Vec::new()),
    });

    // Split the plan: byte triggers go to their worker, timed faults to
    // the injector (plus a restore action per stall/dip).
    let mut per_client: Vec<VecDeque<(u64, FaultKind)>> =
        (0..cfg.clients).map(|_| VecDeque::new()).collect();
    let mut timed: Vec<(u64, TimedAction)> = Vec::new();
    for ev in &cfg.plan.events {
        match &ev.trigger {
            Trigger::AtClientBytes { client, bytes } => {
                per_client[*client].push_back((*bytes, ev.kind.clone()));
            }
            Trigger::AtMs(ms) => {
                match &ev.kind {
                    FaultKind::DatanodeStall { datanode, for_ms }
                    | FaultKind::SlowNodeDip {
                        datanode, for_ms, ..
                    } => {
                        timed.push((
                            ms + for_ms,
                            TimedAction::Restore {
                                host: format!("dn{datanode}"),
                            },
                        ));
                    }
                    FaultKind::NamenodeStall { for_ms } => {
                        timed.push((
                            ms + for_ms,
                            TimedAction::Restore {
                                host: "namenode".into(),
                            },
                        ));
                    }
                    FaultKind::NamenodePartition { for_ms } => {
                        timed.push((ms + for_ms, TimedAction::HealNamenodePartition));
                    }
                    FaultKind::RackPartition { rack, for_ms } => {
                        timed.push((
                            ms + for_ms,
                            TimedAction::HealRackPartition { rack: rack.clone() },
                        ));
                    }
                    _ => {}
                }
                timed.push((*ms, TimedAction::Apply(ev.kind.clone())));
            }
        }
    }
    for q in &mut per_client {
        q.make_contiguous().sort_by_key(|(b, _)| *b);
    }

    let mut handles = Vec::with_capacity(cfg.clients);
    for (idx, triggers) in per_client.into_iter().enumerate() {
        let shared = shared.clone();
        let cfg = cfg.clone();
        let host = format!("client{idx}");
        let rack = spec
            .hosts
            .iter()
            .find(|h| h.name == host)
            .map(|h| h.rack.clone())
            .expect("spec has soak client hosts");
        handles.push(std::thread::spawn(move || {
            run_worker(&shared, &cfg, idx, host, rack, triggers)
        }));
    }
    let injector = (!timed.is_empty()).then(|| {
        let shared = shared.clone();
        std::thread::spawn(move || run_injector(&shared, timed))
    });

    // Monitor: drain the ring incrementally each window, check
    // invariants live, record per-window stats.
    let dn_ids: BTreeMap<DatanodeId, String> = shared
        .dn_hosts
        .iter()
        .filter_map(|h| shared.cluster.datanode(h).map(|d| (d.id(), h.clone())))
        .collect();
    let mut checker = Checker::new(cfg, run_start_us, dn_ids);
    let mut windows: Vec<WindowStats> = Vec::new();
    let mut cursor = 0;
    let mut events_seen: u64 = 0;
    let mut window_start = 0u64;
    let mut faults_seen = 0usize;
    let window_ms = cfg.window.as_millis().max(1) as u64;
    // One-shot: cleared once it fires so the window loop keeps its
    // normal cadence while workers drain their last op.
    let mut deadline = match cfg.budget {
        Budget::WallClock(d) => Some(shared.start + d),
        Budget::OpsPerClient(_) => None,
    };
    loop {
        // Sleep in slices so worker completion and deadlines are
        // noticed promptly.
        let window_end_at = shared.start + Duration::from_millis(window_start + window_ms);
        let workers_done = loop {
            let done = handles.iter().all(|h| h.is_finished());
            let now = Instant::now();
            if done || now >= window_end_at || deadline.is_some_and(|d| now >= d) {
                break done;
            }
            let until = window_end_at.min(deadline.unwrap_or(window_end_at));
            std::thread::sleep(until.saturating_duration_since(now).min(Duration::from_millis(25)));
        };

        if workers_done {
            // The last window closes after join + flush below, so every
            // remaining event lands in it deterministically.
            break;
        }

        let faults_snapshot = shared.fault_log.lock().clone();
        let fresh;
        (fresh, cursor) = ring.snapshot_from(cursor);
        events_seen += fresh.len() as u64;
        checker.ingest(&fresh, &faults_snapshot);
        checker.check_gauges(&metrics);
        let now_ms = shared.start.elapsed().as_millis() as u64;
        let faults_in_window = faults_snapshot
            .iter()
            .skip(faults_seen)
            .filter(|f| f.applied)
            .count() as u64;
        faults_seen = faults_snapshot.len();
        sampler.sample_at(Obs::now_us());
        windows.push(checker.close_window(windows.len(), window_start, now_ms, faults_in_window));
        window_start = now_ms;

        if deadline.is_some_and(|d| Instant::now() >= d) {
            shared.stop.store(true, Ordering::Relaxed);
            deadline = None;
        }
    }
    shared.stop.store(true, Ordering::Relaxed);
    let workers: Vec<WorkerStats> = handles
        .into_iter()
        .map(|h| h.join().unwrap_or_default())
        .collect();
    if let Some(inj) = injector {
        let _ = inj.join();
    }

    // Final flush: release sampled tails of streams that never closed,
    // drain everything left, and close the last window over it.
    sampling.flush();
    let faults_snapshot = shared.fault_log.lock().clone();
    let (fresh, _) = ring.snapshot_from(cursor);
    events_seen += fresh.len() as u64;
    checker.ingest(&fresh, &faults_snapshot);
    checker.check_gauges(&metrics);
    {
        let now_ms = shared.start.elapsed().as_millis() as u64;
        let faults_in_window = faults_snapshot
            .iter()
            .skip(faults_seen)
            .filter(|f| f.applied)
            .count() as u64;
        sampler.sample_at(Obs::now_us());
        windows.push(checker.close_window(windows.len(), window_start, now_ms, faults_in_window));
    }

    for w in &workers {
        if w.integrity_failures > 0 {
            checker.violations.push(format!(
                "{} read-back integrity failures",
                w.integrity_failures
            ));
        }
    }

    // A handler panic anywhere in the cluster is a bug even when the
    // catch_unwind guards kept the servers alive through it.
    let panics = metrics.handler_panics.get();
    if panics > 0 {
        checker
            .violations
            .push(format!("{panics} handler panics during soak"));
    }

    // End-of-run overlap check on the assembled (sampled) trace: under
    // load, SMARTH must show ≥ 2 simultaneous pipelines somewhere.
    let assembled = TraceAssembler::assemble(&ring.snapshot());
    let max_client_overlap = assembled
        .clients
        .iter()
        .map(|c| c.max_concurrent)
        .max()
        .unwrap_or(0);
    let committed = metrics.blocks_committed.get();
    let cap = cfg.config.max_pipelines(cfg.datanodes);
    if cap > 1 && committed >= (cfg.clients as u64) * 3 && max_client_overlap < 2 {
        checker.violations.push(format!(
            "no pipeline overlap under load: {committed} committed blocks, peak concurrency {max_client_overlap}"
        ));
    }

    let elapsed_ms = shared.start.elapsed().as_millis() as u64;
    let recoveries = CauseCounts(RecoveryCause::ALL.map(|c| metrics.recoveries(c)));
    let telemetry = sampler.series();
    let slo = SloTracker::standard().evaluate(&telemetry);
    let report = SoakReport {
        id: format!("soak-{}", cfg.seed),
        seed: cfg.seed,
        config: cfg.clone(),
        elapsed_ms,
        windows,
        violations: checker.violations,
        plan: cfg.plan.clone(),
        fault_log: faults_snapshot,
        workers,
        blocks_committed: committed,
        bytes_written: metrics.bytes_written.get(),
        fnfa_received: metrics.fnfa_received.get(),
        recoveries,
        max_concurrent_pipelines: metrics.concurrent_pipelines.high_water(),
        max_buffered_bytes: metrics.datanode_buffered_bytes.high_water(),
        max_client_overlap,
        events_seen,
        events_sampled_out: sampling.sampled_out(),
        events_evicted: ring.dropped(),
        telemetry,
        slo,
    };

    // Orderly teardown: get the cluster back out of the Arc now that
    // every thread holding it has been joined.
    match Arc::try_unwrap(shared) {
        Ok(shared) => shared.cluster.shutdown(),
        Err(_) => {} // a straggler clone keeps it alive; Drop cleans up
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::Golden;

    #[test]
    fn every_fault_kind_is_stamped_before_it_is_applied() {
        let start = Instant::now();
        for kind in [
            FaultKind::DropOwnLinks,
            FaultKind::KillPipelineNodes { nodes: 2 },
            FaultKind::DropClientLinks { client: 1 },
            FaultKind::DatanodeStall { datanode: 0, for_ms: 700 },
            FaultKind::SlowNodeDip { datanode: 0, mbps: 5.0, for_ms: 900 },
            FaultKind::NamenodeStall { for_ms: 500 },
            FaultKind::NamenodePartition { for_ms: 600 },
            FaultKind::RackPartition { rack: "rack-b".into(), for_ms: 800 },
        ] {
            let mut applied_at = 0;
            let fault = stamp_then_apply(start, &kind, 40, kind.describe(), Vec::new(), || {
                applied_at = start.elapsed().as_millis() as u64;
                // Applying takes time (many links to cut): into the next
                // millisecond, so a stamp taken afterwards would show.
                while start.elapsed().as_millis() as u64 == applied_at {
                    std::hint::spin_loop();
                }
                true
            });
            assert!(fault.at_ms <= applied_at, "{kind:?} stamped at {} after applying at {applied_at}", fault.at_ms);
            assert_eq!((fault.until_ms, fault.class), (fault.at_ms + 40, kind.class()));
        }
    }

    #[test]
    fn fault_plan_generation_is_deterministic() {
        let a = FaultPlan::generate(7, 6, 9, 4_000, 5);
        let b = FaultPlan::generate(7, 6, 9, 4_000, 5);
        assert_eq!(a, b);
        assert_eq!(
            a.to_json().to_string_compact(),
            b.to_json().to_string_compact()
        );
        let c = FaultPlan::generate(8, 6, 9, 4_000, 5);
        assert_ne!(a, c, "different seed must change the plan");
        // Events are timed, sorted, and inside the middle of the run.
        let mut last = 0;
        for ev in &a.events {
            match ev.trigger {
                Trigger::AtMs(ms) => {
                    assert!(ms >= last && ms >= 600 && ms <= 3_400);
                    last = ms;
                }
                _ => panic!("generated plans are timed"),
            }
        }
        a.validate(6, 9).unwrap();
    }

    #[test]
    fn fault_plan_validation_catches_shape_errors() {
        let bad = FaultPlan {
            seed: 0,
            events: vec![FaultEvent {
                trigger: Trigger::AtMs(10),
                kind: FaultKind::DropOwnLinks,
            }],
        };
        assert!(bad.validate(2, 3).is_err(), "cooperative kind needs byte trigger");

        let bad = FaultPlan {
            seed: 0,
            events: vec![FaultEvent {
                trigger: Trigger::AtClientBytes { client: 5, bytes: 1 },
                kind: FaultKind::KillPipelineNodes { nodes: 1 },
            }],
        };
        assert!(bad.validate(2, 3).is_err(), "client index out of range");

        let bad = FaultPlan {
            seed: 0,
            events: vec![FaultEvent {
                trigger: Trigger::AtMs(10),
                kind: FaultKind::DatanodeStall {
                    datanode: 9,
                    for_ms: 100,
                },
            }],
        };
        assert!(bad.validate(2, 3).is_err(), "datanode index out of range");
    }

    #[test]
    fn deterministic_profile_shape() {
        let cfg = SoakConfig::deterministic(42);
        assert_eq!(cfg.clients, 1);
        assert_eq!(cfg.config.max_pipelines_override, Some(1));
        cfg.plan.validate(cfg.clients, cfg.datanodes).unwrap();
        // Byte triggers land mid-block (256 KiB blocks).
        for ev in &cfg.plan.events {
            if let Trigger::AtClientBytes { bytes, .. } = ev.trigger {
                assert_ne!(bytes % (256 * 1024), 0, "trigger must land mid-block");
            }
        }
    }

    #[test]
    fn attribution_windows() {
        let cfg = SoakConfig::smoke(1);
        let mut checker = Checker::new(&cfg, 0, BTreeMap::new());
        let blk = BlockId(7);
        let faults = vec![AppliedFault {
            at_ms: 1_000,
            until_ms: 1_000,
            desc: "drop".into(),
            applied: true,
            victims: Vec::new(),
            class: FaultClass::Disconnect,
        }];
        assert!(checker.attributable(RecoveryCause::ConnectionLost, 1_010, blk, &faults));
        assert!(checker.attributable(RecoveryCause::NestedFailure, 2_000, blk, &faults));
        assert!(
            !checker.attributable(RecoveryCause::ConnectionLost, 900, blk, &faults),
            "recovery before the fault is not explained by it"
        );
        assert!(
            !checker.attributable(
                RecoveryCause::ConnectionLost,
                1_000 + GRACE_MS + 1,
                blk,
                &faults
            ),
            "recovery long after the fault is not explained"
        );
        assert!(!checker.attributable(RecoveryCause::NamenodeError, 1_010, blk, &faults));
        // Namenode-class faults explain NamenodeError recoveries (and only
        // those) by window+class: the namenode is not in any pipeline, so
        // there is no victim set to narrow by.
        let nn_faults = vec![AppliedFault {
            at_ms: 1_000,
            until_ms: 1_600,
            desc: "stall namenode".into(),
            applied: true,
            victims: Vec::new(),
            class: FaultClass::Namenode,
        }];
        assert!(checker.attributable(RecoveryCause::NamenodeError, 1_100, blk, &nn_faults));
        assert!(
            checker.attributable(RecoveryCause::NamenodeError, 1_600 + GRACE_MS - 1, blk, &nn_faults),
            "timed faults stay attributable until until_ms + grace"
        );
        assert!(!checker.attributable(RecoveryCause::ConnectionLost, 1_100, blk, &nn_faults));
        // Ack timeouts get the extra event-timeout slack.
        assert!(checker.attributable(
            RecoveryCause::AckTimeout,
            1_000 + checker.timeout_ms + 10,
            blk,
            &faults
        ));
        checker.violation("x".into());
        let w = checker.close_window(0, 0, 100, 1);
        assert_eq!(w.violations, 1);
        assert_eq!(checker.win_violations, 0, "window counters reset");
    }

    #[test]
    fn attribution_is_causal_for_victim_faults() {
        let cfg = SoakConfig::smoke(1);
        let dn_hosts: BTreeMap<DatanodeId, String> = (0..4u32)
            .map(|i| (DatanodeId(i), format!("dn{i}")))
            .collect();
        let mut checker = Checker::new(&cfg, 0, dn_hosts);
        // Block 1's pipeline runs through dn0..dn2; block 2 through dn3.
        checker.note_targets(BlockId(1), &[DatanodeId(0), DatanodeId(1), DatanodeId(2)]);
        checker.note_targets(BlockId(2), &[DatanodeId(3)]);
        let faults = vec![AppliedFault {
            at_ms: 1_000,
            until_ms: 1_000,
            desc: "kill dn1".into(),
            applied: true,
            victims: vec!["dn1".into()],
            class: FaultClass::Disconnect,
        }];
        assert!(
            checker.attributable(RecoveryCause::ConnectionLost, 1_010, BlockId(1), &faults),
            "victim dn1 sits in block 1's pipeline"
        );
        assert!(
            !checker.attributable(RecoveryCause::ConnectionLost, 1_010, BlockId(2), &faults),
            "block 2 never touched dn1: the kill cannot explain its recovery"
        );
        assert!(
            checker.attributable(RecoveryCause::AckTimeout, 1_010, BlockId(2), &faults),
            "ack timeouts keep the window-only fallback (cross-pipeline back-pressure)"
        );
        assert!(
            checker.attributable(RecoveryCause::ConnectionLost, 1_010, BlockId(99), &faults),
            "unknown block (allocation events evicted) falls back to the window"
        );
    }

    #[test]
    fn fault_plan_round_trips_through_json() {
        let plan = SoakConfig::deterministic(42).plan;
        let back = FaultPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(plan, back);
        let generated = FaultPlan::generate(7, 6, 9, 4_000, 5);
        let back = FaultPlan::from_json(&generated.to_json()).unwrap();
        assert_eq!(generated, back);
        let hostile = SoakConfig::hostile(3).plan;
        let back = FaultPlan::from_json(&hostile.to_json()).unwrap();
        assert_eq!(hostile, back);
        let rack = SoakConfig::rack_partition(5).plan;
        let back = FaultPlan::from_json(&rack.to_json()).unwrap();
        assert_eq!(rack, back);
    }

    #[test]
    fn rack_partition_plan_validates_and_classifies() {
        let cfg = SoakConfig::rack_partition(5);
        cfg.plan.validate(cfg.clients, cfg.datanodes).unwrap();
        for ev in &cfg.plan.events {
            assert!(!ev.kind.cooperative());
            assert_eq!(ev.kind.class(), FaultClass::Partition);
        }
        // An empty rack name is a shape error.
        let bad = FaultPlan {
            seed: 0,
            events: vec![FaultEvent {
                trigger: Trigger::AtMs(100),
                kind: FaultKind::RackPartition {
                    rack: String::new(),
                    for_ms: 200,
                },
            }],
        };
        assert!(bad.validate(1, 9).is_err());
    }

    #[test]
    fn soak_config_round_trips_through_json() {
        for cfg in [
            SoakConfig::deterministic(42),
            SoakConfig::smoke(7),
            SoakConfig::sustained(4, 30, 9),
            SoakConfig::read_heavy(11),
            SoakConfig::mixed(4, 30, 13),
            SoakConfig::hostile(17),
            SoakConfig::rack_partition(19),
            SoakConfig::tiered_smoke(23),
        ] {
            assert_eq!(SoakConfig::from_json(&cfg.to_json()).unwrap(), cfg);
        }
    }

    /// One `name compact-json` line per record and per enum variant, as
    /// `tests/golden/json.txt` has them.
    fn golden_lines() -> Golden {
        let mut g = Golden::default();
        let kinds = [
            ("DropOwnLinks", FaultKind::DropOwnLinks),
            ("KillPipelineNodes", FaultKind::KillPipelineNodes { nodes: 2 }),
            ("DropClientLinks", FaultKind::DropClientLinks { client: 3 }),
            ("DatanodeStall", FaultKind::DatanodeStall { datanode: 4, for_ms: 700 }),
            ("SlowNodeDip", FaultKind::SlowNodeDip { datanode: 5, mbps: 12.5, for_ms: 900 }),
            ("NamenodeStall", FaultKind::NamenodeStall { for_ms: 500 }),
            ("NamenodePartition", FaultKind::NamenodePartition { for_ms: 600 }),
            ("RackPartition", FaultKind::RackPartition { rack: "rack-b".into(), for_ms: 800 }),
        ];
        for (name, kind) in &kinds {
            g.read(&format!("FaultKind::{name}"), kind);
        }
        let timed = FaultEvent { trigger: Trigger::AtMs(800), kind: FaultKind::NamenodeStall { for_ms: 700 } };
        let bytes = FaultEvent { trigger: Trigger::AtClientBytes { client: 1, bytes: 393_216 }, kind: FaultKind::DropOwnLinks };
        g.read("Trigger::AtMs", &timed.trigger);
        g.read("Trigger::AtClientBytes", &bytes.trigger);
        g.read("FaultEvent", &timed);
        g.read("FaultPlan", &FaultPlan { seed: 42, events: vec![bytes, timed] });

        let det = SoakConfig::deterministic(42);
        // Every knob away from its default, so each `Option` shows both arms.
        let mut knobs = SoakConfig::hostile(17);
        knobs.max_concurrent_pipelines = Some(48);
        knobs.tiered_disks = true;
        knobs.config.speed_half_life = Some(SimDuration::from_millis(2_500));
        g.read("Budget::WallClock", &knobs.budget);
        g.read("Budget::OpsPerClient", &det.budget);
        g.read("OpMix", &OpMix::read_heavy());
        g.read("SoakConfig", &det);
        g.read("SoakConfig.knobs", &knobs);

        let applied = AppliedFault { at_ms: 800, until_ms: 1_500, desc: "stall namenode for 700 ms".into(), applied: true, victims: vec!["dn1".into(), "dn4".into()], class: FaultClass::Namenode };
        let recoveries = CauseCounts([1, 0, 2, 0, 1]);
        let window = WindowStats { index: 1, start_ms: 700, end_ms: 1_400, blocks_committed: 9, fnfa_received: 8, recoveries, faults_applied: 1, violations: 2 };
        let worker = WorkerStats { ops: 12, creates: 6, rewrites: 2, deletes: 1, verifies: 3, bytes_written: 4_718_592, op_errors: 1, integrity_failures: 0, errors: vec!["boom".into()] };
        let report = SoakReport {
            id: "soak-42".into(), seed: 42, config: det.clone(), elapsed_ms: 4_321, windows: vec![window.clone()],
            violations: vec!["late fnfa".into()], plan: det.plan.clone(), fault_log: vec![applied.clone()], workers: vec![worker.clone()],
            blocks_committed: 18, bytes_written: 4_718_592, fnfa_received: 17, recoveries, max_concurrent_pipelines: 2,
            max_buffered_bytes: 1_048_576, max_client_overlap: 2, events_seen: 900, events_sampled_out: 40, events_evicted: 3,
            telemetry: TelemetrySeries::default(), slo: SloVerdict::default(),
        };
        g.write("AppliedFault", &applied);
        g.read("WindowStats", &window);
        g.write("WorkerStats", &worker);
        g.write("SoakReport", &report);
        g
    }

    /// The JSON text of every record is pinned line for line (a change
    /// that moves one shows the line it moved), every table has a line,
    /// and every line that reads back rejects malformed input.
    #[test]
    fn golden_json_is_unchanged() {
        let src = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/src"));
        golden_lines().check(include_str!("../tests/golden/json.txt"), src);
    }
}
