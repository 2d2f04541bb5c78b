//! Protocol messages.
//!
//! Three protocol families, mirroring Hadoop's layering (§II):
//!
//! * **ClientProtocol** — client ↔ namenode RPCs (`create`, `addBlock`,
//!   `complete`, speed reports, block locations, replacement datanodes).
//! * **DatanodeProtocol** — datanode ↔ namenode RPCs (registration,
//!   heartbeats, `blockReceived`).
//! * **Data transfer** — the streaming protocol between a client and the
//!   datanodes of a pipeline: a write header, then data packets downstream
//!   and acks upstream. SMARTH adds the `FirstNodeFinish` ack kind (FNFA,
//!   §III-A) and per-block `recoverBlock` used by Algorithms 3/4.
//!
//! All messages implement [`Wire`] and are exchanged as length-prefixed
//! frames (see [`crate::wire`]).

use crate::config::WriteMode;
use crate::error::{DfsError, DfsResult};
use crate::ids::{
    BlockId, ClientId, DatanodeId, ExtendedBlock, FileId, GenStamp, PipelineId, SpanId, TraceId,
};
use crate::obs::TraceCtx;
use crate::wire::{Wire, WireReader, WireWriter};
use bytes::Bytes;

// ---------------------------------------------------------------------------
// Shared wire impls for id types
// ---------------------------------------------------------------------------

impl Wire for ExtendedBlock {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.id.raw());
        w.put_u64(self.gen.raw());
        w.put_u64(self.len);
    }
    fn decode(r: &mut WireReader) -> DfsResult<Self> {
        Ok(ExtendedBlock {
            id: BlockId(r.get_u64()?),
            gen: GenStamp(r.get_u64()?),
            len: r.get_u64()?,
        })
    }
}

impl Wire for WriteMode {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(match self {
            WriteMode::Hdfs => 0,
            WriteMode::Smarth => 1,
        });
    }
    fn decode(r: &mut WireReader) -> DfsResult<Self> {
        match r.get_u8()? {
            0 => Ok(WriteMode::Hdfs),
            1 => Ok(WriteMode::Smarth),
            x => Err(DfsError::codec(format!("invalid write mode {x}"))),
        }
    }
}

/// Everything a client needs to reach a datanode: identity, rack (for
/// local sorting) and fabric address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatanodeInfo {
    pub id: DatanodeId,
    pub host_name: String,
    pub rack: String,
    /// Address of the datanode's data-transfer listener on the fabric.
    pub addr: String,
}

impl Wire for DatanodeInfo {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.id.raw());
        w.put_str(&self.host_name);
        w.put_str(&self.rack);
        w.put_str(&self.addr);
    }
    fn decode(r: &mut WireReader) -> DfsResult<Self> {
        Ok(DatanodeInfo {
            id: DatanodeId(r.get_u32()?),
            host_name: r.get_str()?,
            rack: r.get_str()?,
            addr: r.get_str()?,
        })
    }
}

fn encode_vec<T: Wire>(w: &mut WireWriter, v: &[T]) {
    w.put_u32(v.len() as u32);
    for item in v {
        item.encode(w);
    }
}

fn decode_vec<T: Wire>(r: &mut WireReader) -> DfsResult<Vec<T>> {
    let n = r.get_u32()? as usize;
    if n > 1 << 20 {
        return Err(DfsError::codec(format!("vector length {n} unreasonable")));
    }
    (0..n).map(|_| T::decode(r)).collect()
}

/// Per-datanode gauge snapshot piggybacked on every heartbeat: the
/// §IV-C staging/buffer levels local to *that* node, as opposed to the
/// process-wide aggregates in `Metrics` (which, in a `MiniCluster`,
/// sum every datanode sharing one `Obs`). The namenode retains the
/// latest snapshot per node, giving it a cluster-wide live view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DatanodeTelemetry {
    /// Packets currently queued between receive and flush stages.
    pub staging_packets: u64,
    /// Bytes staged awaiting flush.
    pub buffered_bytes: u64,
    /// Bytes queued toward the downstream mirror.
    pub forward_bytes: u64,
}

impl Wire for DatanodeTelemetry {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.staging_packets);
        w.put_u64(self.buffered_bytes);
        w.put_u64(self.forward_bytes);
    }
    fn decode(r: &mut WireReader) -> DfsResult<Self> {
        Ok(DatanodeTelemetry {
            staging_packets: r.get_u64()?,
            buffered_bytes: r.get_u64()?,
            forward_bytes: r.get_u64()?,
        })
    }
}

/// One row of the namenode's cluster telemetry table: liveness and
/// usage from the datanode manager joined with the node's last
/// piggybacked [`DatanodeTelemetry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeTelemetryRow {
    pub id: DatanodeId,
    pub host_name: String,
    pub rack: String,
    pub alive: bool,
    pub used: u64,
    pub capacity: u64,
    pub active_transfers: u32,
    pub telemetry: DatanodeTelemetry,
    /// Milliseconds since the node's last heartbeat.
    pub age_ms: u64,
}

impl Wire for NodeTelemetryRow {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.id.raw());
        w.put_str(&self.host_name);
        w.put_str(&self.rack);
        w.put_bool(self.alive);
        w.put_u64(self.used);
        w.put_u64(self.capacity);
        w.put_u32(self.active_transfers);
        self.telemetry.encode(w);
        w.put_u64(self.age_ms);
    }
    fn decode(r: &mut WireReader) -> DfsResult<Self> {
        Ok(NodeTelemetryRow {
            id: DatanodeId(r.get_u32()?),
            host_name: r.get_str()?,
            rack: r.get_str()?,
            alive: r.get_bool()?,
            used: r.get_u64()?,
            capacity: r.get_u64()?,
            active_transfers: r.get_u32()?,
            telemetry: DatanodeTelemetry::decode(r)?,
            age_ms: r.get_u64()?,
        })
    }
}

/// A block plus the pipeline targets chosen by the namenode — the
/// response to `addBlock` (§II step 2). The namenode also mints the
/// block's causal trace here: `trace`/`span` identify the lifecycle
/// trace this allocation roots, carried back to the client and onward
/// through every pipeline hop (`INVALID` on untraced paths such as
/// read-side block locations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocatedBlock {
    pub block: ExtendedBlock,
    pub targets: Vec<DatanodeInfo>,
    pub trace: TraceId,
    pub span: SpanId,
}

impl LocatedBlock {
    /// An untraced located block (read path, tests).
    pub fn untraced(block: ExtendedBlock, targets: Vec<DatanodeInfo>) -> Self {
        LocatedBlock {
            block,
            targets,
            trace: TraceId::INVALID,
            span: SpanId::INVALID,
        }
    }

    /// The causal context of this allocation, when traced.
    pub fn trace_ctx(&self) -> Option<TraceCtx> {
        TraceCtx::from_raw(self.trace.raw(), self.span.raw())
    }
}

impl Wire for LocatedBlock {
    fn encode(&self, w: &mut WireWriter) {
        self.block.encode(w);
        encode_vec(w, &self.targets);
        w.put_u64(self.trace.raw());
        w.put_u64(self.span.raw());
    }
    fn decode(r: &mut WireReader) -> DfsResult<Self> {
        Ok(LocatedBlock {
            block: ExtendedBlock::decode(r)?,
            targets: decode_vec(r)?,
            trace: TraceId(r.get_u64()?),
            span: SpanId(r.get_u64()?),
        })
    }
}

/// One client→namenode speed observation: mean transfer bandwidth to a
/// first-datanode, in bytes per second (§III-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedRecord {
    pub datanode: DatanodeId,
    pub bytes_per_sec: f64,
    /// How many block transfers this record aggregates since last report.
    pub samples: u32,
}

impl Wire for SpeedRecord {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.datanode.raw());
        w.put_f64(self.bytes_per_sec);
        w.put_u32(self.samples);
    }
    fn decode(r: &mut WireReader) -> DfsResult<Self> {
        Ok(SpeedRecord {
            datanode: DatanodeId(r.get_u32()?),
            bytes_per_sec: r.get_f64()?,
            samples: r.get_u32()?,
        })
    }
}

/// File metadata as returned by `getFileInfo`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileStatus {
    pub file_id: FileId,
    pub path: String,
    pub len: u64,
    pub replication: u32,
    pub block_size: u64,
    pub is_dir: bool,
    pub complete: bool,
}

impl Wire for FileStatus {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.file_id.raw());
        w.put_str(&self.path);
        w.put_u64(self.len);
        w.put_u32(self.replication);
        w.put_u64(self.block_size);
        w.put_bool(self.is_dir);
        w.put_bool(self.complete);
    }
    fn decode(r: &mut WireReader) -> DfsResult<Self> {
        Ok(FileStatus {
            file_id: FileId(r.get_u64()?),
            path: r.get_str()?,
            len: r.get_u64()?,
            replication: r.get_u32()?,
            block_size: r.get_u64()?,
            is_dir: r.get_bool()?,
            complete: r.get_bool()?,
        })
    }
}

// ---------------------------------------------------------------------------
// ClientProtocol
// ---------------------------------------------------------------------------

/// Client → namenode requests.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientRequest {
    /// Registers a client session; the namenode answers with a fresh id.
    Register { host_name: String, rack: String },
    /// §II step 1: create a file in the namespace.
    Create {
        client: ClientId,
        path: String,
        replication: u32,
        block_size: u64,
        overwrite: bool,
        mode: WriteMode,
    },
    /// §II step 2: allocate the next block and its pipeline targets.
    /// `previous` is committed (with its final length) as a side effect.
    AddBlock {
        client: ClientId,
        file_id: FileId,
        previous: Option<ExtendedBlock>,
        excluded: Vec<DatanodeId>,
    },
    /// Commits a block without allocating a new one (used when a block
    /// finishes but the stream keeps other pipelines running — SMARTH).
    CommitBlock {
        client: ClientId,
        file_id: FileId,
        block: ExtendedBlock,
    },
    /// §II step 6: all blocks acked, seal the file.
    Complete {
        client: ClientId,
        file_id: FileId,
        last: Option<ExtendedBlock>,
    },
    /// Abandon an allocated-but-unwritten block (recovery path).
    AbandonBlock {
        client: ClientId,
        file_id: FileId,
        block: BlockId,
    },
    /// Replacement targets for a damaged pipeline (Algorithm 3 line 10).
    GetAdditionalDatanodes {
        client: ClientId,
        block: BlockId,
        existing: Vec<DatanodeId>,
        wanted: u32,
    },
    /// Bumps the generation stamp for block recovery and returns the new
    /// stamp (Algorithm 3 line 11 support).
    BeginBlockRecovery { client: ClientId, block: BlockId },
    /// §III-B: the 3-second heartbeat piggybacking observed speeds.
    ReportSpeeds {
        client: ClientId,
        records: Vec<SpeedRecord>,
    },
    GetFileInfo { path: String },
    /// Read path: block list plus replica locations. Carries the client
    /// id so the namenode can order each block's sources by that
    /// client's observed speeds (§III-B applied to reads).
    GetBlockLocations { client: ClientId, path: String },
    /// Read path: a reader observed a corrupt or truncated replica. The
    /// namenode drops the replica from future location responses and
    /// schedules re-replication accounting.
    ReportBadReplica {
        client: ClientId,
        block: ExtendedBlock,
        datanode: DatanodeId,
    },
    /// Namespace listing (for examples/tools).
    List { path: String },
    Delete { path: String },
    /// Move a complete file to a new path. The destination must not
    /// exist; parents are created as needed. On the sharded namenode
    /// this is the one client-visible cross-shard mutation (src and dst
    /// volumes may live on different shards).
    Rename { src: String, dst: String },
    /// Telemetry scrape: the namenode's Prometheus exposition, its
    /// sampled series, and the per-datanode cluster table assembled
    /// from heartbeat piggybacks (`smarth_shell top` / `slo`).
    GetTelemetry,
    /// Retry envelope for mutations. The namenode remembers the last
    /// responses per `(client, request_id)` in a bounded table and
    /// replays the cached response when a retried request arrives, so a
    /// retry after a lost response cannot double-allocate or
    /// double-commit. Nesting `Idempotent` inside `Idempotent` is a
    /// protocol error.
    Idempotent {
        client: ClientId,
        /// Client-minted, unique per logical mutation (not per attempt).
        request_id: u64,
        inner: Box<ClientRequest>,
    },
}

/// Namenode → client responses. `Error` carries the failed variant's
/// error; every happy-path response has its own variant so callers can
/// pattern-match exhaustively.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientResponse {
    Registered { client: ClientId },
    Created { file_id: FileId },
    BlockAllocated(LocatedBlock),
    Committed,
    Completed,
    Abandoned,
    AdditionalDatanodes { targets: Vec<DatanodeInfo> },
    BadReplicaAck,
    RecoveryStamp { new_gen: GenStamp },
    SpeedsAck,
    FileInfo(Option<FileStatus>),
    BlockLocations { blocks: Vec<LocatedBlock> },
    Listing { entries: Vec<FileStatus> },
    Deleted { existed: bool },
    Renamed,
    /// Cluster-wide telemetry: per-node rows, the namenode's Prometheus
    /// text exposition, and its `TelemetrySeries` as compact JSON.
    Telemetry {
        rows: Vec<NodeTelemetryRow>,
        text: String,
        series_json: String,
    },
    Error(String),
}

const CR_REGISTER: u8 = 0;
const CR_CREATE: u8 = 1;
const CR_ADD_BLOCK: u8 = 2;
const CR_COMMIT: u8 = 3;
const CR_COMPLETE: u8 = 4;
const CR_ABANDON: u8 = 5;
const CR_ADDITIONAL: u8 = 6;
const CR_RECOVERY: u8 = 7;
const CR_SPEEDS: u8 = 8;
const CR_FILE_INFO: u8 = 9;
const CR_LOCATIONS: u8 = 10;
const CR_LIST: u8 = 11;
const CR_DELETE: u8 = 12;
const CR_BAD_REPLICA: u8 = 13;
const CR_TELEMETRY: u8 = 14;
const CR_IDEMPOTENT: u8 = 15;
const CR_RENAME: u8 = 16;

impl Wire for ClientRequest {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            ClientRequest::Register { host_name, rack } => {
                w.put_u8(CR_REGISTER);
                w.put_str(host_name);
                w.put_str(rack);
            }
            ClientRequest::Create {
                client,
                path,
                replication,
                block_size,
                overwrite,
                mode,
            } => {
                w.put_u8(CR_CREATE);
                w.put_u64(client.raw());
                w.put_str(path);
                w.put_u32(*replication);
                w.put_u64(*block_size);
                w.put_bool(*overwrite);
                mode.encode(w);
            }
            ClientRequest::AddBlock {
                client,
                file_id,
                previous,
                excluded,
            } => {
                w.put_u8(CR_ADD_BLOCK);
                w.put_u64(client.raw());
                w.put_u64(file_id.raw());
                match previous {
                    Some(b) => {
                        w.put_bool(true);
                        b.encode(w);
                    }
                    None => w.put_bool(false),
                }
                w.put_u32(excluded.len() as u32);
                for d in excluded {
                    w.put_u32(d.raw());
                }
            }
            ClientRequest::CommitBlock {
                client,
                file_id,
                block,
            } => {
                w.put_u8(CR_COMMIT);
                w.put_u64(client.raw());
                w.put_u64(file_id.raw());
                block.encode(w);
            }
            ClientRequest::Complete {
                client,
                file_id,
                last,
            } => {
                w.put_u8(CR_COMPLETE);
                w.put_u64(client.raw());
                w.put_u64(file_id.raw());
                match last {
                    Some(b) => {
                        w.put_bool(true);
                        b.encode(w);
                    }
                    None => w.put_bool(false),
                }
            }
            ClientRequest::AbandonBlock {
                client,
                file_id,
                block,
            } => {
                w.put_u8(CR_ABANDON);
                w.put_u64(client.raw());
                w.put_u64(file_id.raw());
                w.put_u64(block.raw());
            }
            ClientRequest::GetAdditionalDatanodes {
                client,
                block,
                existing,
                wanted,
            } => {
                w.put_u8(CR_ADDITIONAL);
                w.put_u64(client.raw());
                w.put_u64(block.raw());
                w.put_u32(existing.len() as u32);
                for d in existing {
                    w.put_u32(d.raw());
                }
                w.put_u32(*wanted);
            }
            ClientRequest::BeginBlockRecovery { client, block } => {
                w.put_u8(CR_RECOVERY);
                w.put_u64(client.raw());
                w.put_u64(block.raw());
            }
            ClientRequest::ReportSpeeds { client, records } => {
                w.put_u8(CR_SPEEDS);
                w.put_u64(client.raw());
                encode_vec(w, records);
            }
            ClientRequest::GetFileInfo { path } => {
                w.put_u8(CR_FILE_INFO);
                w.put_str(path);
            }
            ClientRequest::GetBlockLocations { client, path } => {
                w.put_u8(CR_LOCATIONS);
                w.put_u64(client.raw());
                w.put_str(path);
            }
            ClientRequest::ReportBadReplica {
                client,
                block,
                datanode,
            } => {
                w.put_u8(CR_BAD_REPLICA);
                w.put_u64(client.raw());
                block.encode(w);
                w.put_u32(datanode.raw());
            }
            ClientRequest::List { path } => {
                w.put_u8(CR_LIST);
                w.put_str(path);
            }
            ClientRequest::Delete { path } => {
                w.put_u8(CR_DELETE);
                w.put_str(path);
            }
            ClientRequest::Rename { src, dst } => {
                w.put_u8(CR_RENAME);
                w.put_str(src);
                w.put_str(dst);
            }
            ClientRequest::GetTelemetry => w.put_u8(CR_TELEMETRY),
            ClientRequest::Idempotent {
                client,
                request_id,
                inner,
            } => {
                w.put_u8(CR_IDEMPOTENT);
                w.put_u64(client.raw());
                w.put_u64(*request_id);
                inner.encode(w);
            }
        }
    }

    fn decode(r: &mut WireReader) -> DfsResult<Self> {
        let tag = r.get_u8()?;
        Ok(match tag {
            CR_REGISTER => ClientRequest::Register {
                host_name: r.get_str()?,
                rack: r.get_str()?,
            },
            CR_CREATE => ClientRequest::Create {
                client: ClientId(r.get_u64()?),
                path: r.get_str()?,
                replication: r.get_u32()?,
                block_size: r.get_u64()?,
                overwrite: r.get_bool()?,
                mode: WriteMode::decode(r)?,
            },
            CR_ADD_BLOCK => {
                let client = ClientId(r.get_u64()?);
                let file_id = FileId(r.get_u64()?);
                let previous = if r.get_bool()? {
                    Some(ExtendedBlock::decode(r)?)
                } else {
                    None
                };
                let n = r.get_u32()? as usize;
                let excluded = (0..n)
                    .map(|_| r.get_u32().map(DatanodeId))
                    .collect::<DfsResult<Vec<_>>>()?;
                ClientRequest::AddBlock {
                    client,
                    file_id,
                    previous,
                    excluded,
                }
            }
            CR_COMMIT => ClientRequest::CommitBlock {
                client: ClientId(r.get_u64()?),
                file_id: FileId(r.get_u64()?),
                block: ExtendedBlock::decode(r)?,
            },
            CR_COMPLETE => {
                let client = ClientId(r.get_u64()?);
                let file_id = FileId(r.get_u64()?);
                let last = if r.get_bool()? {
                    Some(ExtendedBlock::decode(r)?)
                } else {
                    None
                };
                ClientRequest::Complete {
                    client,
                    file_id,
                    last,
                }
            }
            CR_ABANDON => ClientRequest::AbandonBlock {
                client: ClientId(r.get_u64()?),
                file_id: FileId(r.get_u64()?),
                block: BlockId(r.get_u64()?),
            },
            CR_ADDITIONAL => {
                let client = ClientId(r.get_u64()?);
                let block = BlockId(r.get_u64()?);
                let n = r.get_u32()? as usize;
                let existing = (0..n)
                    .map(|_| r.get_u32().map(DatanodeId))
                    .collect::<DfsResult<Vec<_>>>()?;
                let wanted = r.get_u32()?;
                ClientRequest::GetAdditionalDatanodes {
                    client,
                    block,
                    existing,
                    wanted,
                }
            }
            CR_RECOVERY => ClientRequest::BeginBlockRecovery {
                client: ClientId(r.get_u64()?),
                block: BlockId(r.get_u64()?),
            },
            CR_SPEEDS => ClientRequest::ReportSpeeds {
                client: ClientId(r.get_u64()?),
                records: decode_vec(r)?,
            },
            CR_FILE_INFO => ClientRequest::GetFileInfo { path: r.get_str()? },
            CR_LOCATIONS => ClientRequest::GetBlockLocations {
                client: ClientId(r.get_u64()?),
                path: r.get_str()?,
            },
            CR_BAD_REPLICA => ClientRequest::ReportBadReplica {
                client: ClientId(r.get_u64()?),
                block: ExtendedBlock::decode(r)?,
                datanode: DatanodeId(r.get_u32()?),
            },
            CR_LIST => ClientRequest::List { path: r.get_str()? },
            CR_DELETE => ClientRequest::Delete { path: r.get_str()? },
            CR_RENAME => ClientRequest::Rename {
                src: r.get_str()?,
                dst: r.get_str()?,
            },
            CR_TELEMETRY => ClientRequest::GetTelemetry,
            CR_IDEMPOTENT => {
                let client = ClientId(r.get_u64()?);
                let request_id = r.get_u64()?;
                let inner = Box::new(ClientRequest::decode(r)?);
                if matches!(*inner, ClientRequest::Idempotent { .. }) {
                    return Err(DfsError::codec(
                        "nested Idempotent request envelope".to_string(),
                    ));
                }
                ClientRequest::Idempotent {
                    client,
                    request_id,
                    inner,
                }
            }
            x => return Err(DfsError::codec(format!("unknown ClientRequest tag {x}"))),
        })
    }
}

const CP_REGISTERED: u8 = 0;
const CP_CREATED: u8 = 1;
const CP_ALLOCATED: u8 = 2;
const CP_COMMITTED: u8 = 3;
const CP_COMPLETED: u8 = 4;
const CP_ABANDONED: u8 = 5;
const CP_ADDITIONAL: u8 = 6;
const CP_RECOVERY: u8 = 7;
const CP_SPEEDS_ACK: u8 = 8;
const CP_FILE_INFO: u8 = 9;
const CP_LOCATIONS: u8 = 10;
const CP_LISTING: u8 = 11;
const CP_DELETED: u8 = 12;
const CP_BAD_REPLICA_ACK: u8 = 13;
const CP_TELEMETRY: u8 = 14;
const CP_RENAMED: u8 = 15;
const CP_ERROR: u8 = 255;

impl Wire for ClientResponse {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            ClientResponse::Registered { client } => {
                w.put_u8(CP_REGISTERED);
                w.put_u64(client.raw());
            }
            ClientResponse::Created { file_id } => {
                w.put_u8(CP_CREATED);
                w.put_u64(file_id.raw());
            }
            ClientResponse::BlockAllocated(lb) => {
                w.put_u8(CP_ALLOCATED);
                lb.encode(w);
            }
            ClientResponse::Committed => w.put_u8(CP_COMMITTED),
            ClientResponse::Completed => w.put_u8(CP_COMPLETED),
            ClientResponse::Abandoned => w.put_u8(CP_ABANDONED),
            ClientResponse::AdditionalDatanodes { targets } => {
                w.put_u8(CP_ADDITIONAL);
                encode_vec(w, targets);
            }
            ClientResponse::RecoveryStamp { new_gen } => {
                w.put_u8(CP_RECOVERY);
                w.put_u64(new_gen.raw());
            }
            ClientResponse::SpeedsAck => w.put_u8(CP_SPEEDS_ACK),
            ClientResponse::FileInfo(info) => {
                w.put_u8(CP_FILE_INFO);
                match info {
                    Some(fs) => {
                        w.put_bool(true);
                        fs.encode(w);
                    }
                    None => w.put_bool(false),
                }
            }
            ClientResponse::BlockLocations { blocks } => {
                w.put_u8(CP_LOCATIONS);
                encode_vec(w, blocks);
            }
            ClientResponse::Listing { entries } => {
                w.put_u8(CP_LISTING);
                encode_vec(w, entries);
            }
            ClientResponse::Deleted { existed } => {
                w.put_u8(CP_DELETED);
                w.put_bool(*existed);
            }
            ClientResponse::Renamed => w.put_u8(CP_RENAMED),
            ClientResponse::BadReplicaAck => w.put_u8(CP_BAD_REPLICA_ACK),
            ClientResponse::Telemetry {
                rows,
                text,
                series_json,
            } => {
                w.put_u8(CP_TELEMETRY);
                encode_vec(w, rows);
                w.put_str(text);
                w.put_str(series_json);
            }
            ClientResponse::Error(msg) => {
                w.put_u8(CP_ERROR);
                w.put_str(msg);
            }
        }
    }

    fn decode(r: &mut WireReader) -> DfsResult<Self> {
        let tag = r.get_u8()?;
        Ok(match tag {
            CP_REGISTERED => ClientResponse::Registered {
                client: ClientId(r.get_u64()?),
            },
            CP_CREATED => ClientResponse::Created {
                file_id: FileId(r.get_u64()?),
            },
            CP_ALLOCATED => ClientResponse::BlockAllocated(LocatedBlock::decode(r)?),
            CP_COMMITTED => ClientResponse::Committed,
            CP_COMPLETED => ClientResponse::Completed,
            CP_ABANDONED => ClientResponse::Abandoned,
            CP_ADDITIONAL => ClientResponse::AdditionalDatanodes {
                targets: decode_vec(r)?,
            },
            CP_RECOVERY => ClientResponse::RecoveryStamp {
                new_gen: GenStamp(r.get_u64()?),
            },
            CP_SPEEDS_ACK => ClientResponse::SpeedsAck,
            CP_FILE_INFO => {
                let present = r.get_bool()?;
                ClientResponse::FileInfo(if present {
                    Some(FileStatus::decode(r)?)
                } else {
                    None
                })
            }
            CP_LOCATIONS => ClientResponse::BlockLocations {
                blocks: decode_vec(r)?,
            },
            CP_LISTING => ClientResponse::Listing {
                entries: decode_vec(r)?,
            },
            CP_DELETED => ClientResponse::Deleted {
                existed: r.get_bool()?,
            },
            CP_RENAMED => ClientResponse::Renamed,
            CP_BAD_REPLICA_ACK => ClientResponse::BadReplicaAck,
            CP_TELEMETRY => ClientResponse::Telemetry {
                rows: decode_vec(r)?,
                text: r.get_str()?,
                series_json: r.get_str()?,
            },
            CP_ERROR => ClientResponse::Error(r.get_str()?),
            x => return Err(DfsError::codec(format!("unknown ClientResponse tag {x}"))),
        })
    }
}

// ---------------------------------------------------------------------------
// DatanodeProtocol
// ---------------------------------------------------------------------------

/// Datanode → namenode requests.
#[derive(Debug, Clone, PartialEq)]
pub enum DatanodeRequest {
    Register {
        host_name: String,
        rack: String,
        data_addr: String,
        capacity: u64,
    },
    Heartbeat {
        id: DatanodeId,
        used: u64,
        active_transfers: u32,
        /// The node's live gauge snapshot, piggybacked so the namenode
        /// holds a cluster-wide telemetry view with no extra RPC.
        telemetry: DatanodeTelemetry,
    },
    BlockReceived {
        id: DatanodeId,
        block: ExtendedBlock,
    },
}

/// Namenode → datanode responses.
#[derive(Debug, Clone, PartialEq)]
pub enum DatanodeResponse {
    Registered { id: DatanodeId },
    HeartbeatAck,
    BlockReceivedAck,
    Error(String),
}

impl Wire for DatanodeRequest {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            DatanodeRequest::Register {
                host_name,
                rack,
                data_addr,
                capacity,
            } => {
                w.put_u8(0);
                w.put_str(host_name);
                w.put_str(rack);
                w.put_str(data_addr);
                w.put_u64(*capacity);
            }
            DatanodeRequest::Heartbeat {
                id,
                used,
                active_transfers,
                telemetry,
            } => {
                w.put_u8(1);
                w.put_u32(id.raw());
                w.put_u64(*used);
                w.put_u32(*active_transfers);
                telemetry.encode(w);
            }
            DatanodeRequest::BlockReceived { id, block } => {
                w.put_u8(2);
                w.put_u32(id.raw());
                block.encode(w);
            }
        }
    }

    fn decode(r: &mut WireReader) -> DfsResult<Self> {
        Ok(match r.get_u8()? {
            0 => DatanodeRequest::Register {
                host_name: r.get_str()?,
                rack: r.get_str()?,
                data_addr: r.get_str()?,
                capacity: r.get_u64()?,
            },
            1 => DatanodeRequest::Heartbeat {
                id: DatanodeId(r.get_u32()?),
                used: r.get_u64()?,
                active_transfers: r.get_u32()?,
                telemetry: DatanodeTelemetry::decode(r)?,
            },
            2 => DatanodeRequest::BlockReceived {
                id: DatanodeId(r.get_u32()?),
                block: ExtendedBlock::decode(r)?,
            },
            x => return Err(DfsError::codec(format!("unknown DatanodeRequest tag {x}"))),
        })
    }
}

impl Wire for DatanodeResponse {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            DatanodeResponse::Registered { id } => {
                w.put_u8(0);
                w.put_u32(id.raw());
            }
            DatanodeResponse::HeartbeatAck => w.put_u8(1),
            DatanodeResponse::BlockReceivedAck => w.put_u8(2),
            DatanodeResponse::Error(msg) => {
                w.put_u8(255);
                w.put_str(msg);
            }
        }
    }

    fn decode(r: &mut WireReader) -> DfsResult<Self> {
        Ok(match r.get_u8()? {
            0 => DatanodeResponse::Registered {
                id: DatanodeId(r.get_u32()?),
            },
            1 => DatanodeResponse::HeartbeatAck,
            2 => DatanodeResponse::BlockReceivedAck,
            255 => DatanodeResponse::Error(r.get_str()?),
            x => {
                return Err(DfsError::codec(format!(
                    "unknown DatanodeResponse tag {x}"
                )))
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Data transfer protocol
// ---------------------------------------------------------------------------

/// First frame on a data connection: what the receiver should do.
#[derive(Debug, Clone, PartialEq)]
pub enum DataOp {
    /// Start receiving a block. `targets` is the *remaining* pipeline
    /// downstream of the receiver (empty for the tail node).
    WriteBlock(WriteBlockHeader),
    /// Read a finalized block back (verification path).
    ReadBlock {
        block: ExtendedBlock,
        offset: u64,
        len: u64,
    },
    /// Recover a block: adopt the new generation stamp and truncate to
    /// `new_len` (Algorithm 3's `recoverBlock` issued by the primary).
    RecoverBlock {
        block: ExtendedBlock,
        new_gen: GenStamp,
        new_len: u64,
    },
    /// Ask a datanode for the current state of a replica (used by the
    /// recovery primary to agree on a safe length).
    GetReplicaInfo { block: BlockId },
    /// Scrape this datanode's telemetry: Prometheus text exposition
    /// plus its local sampled series as compact JSON.
    GetTelemetry,
}

/// Header of a block write (§II step 3 / §III-A step 3).
#[derive(Debug, Clone, PartialEq)]
pub struct WriteBlockHeader {
    pub pipeline: PipelineId,
    pub client: ClientId,
    pub block: ExtendedBlock,
    pub mode: WriteMode,
    /// Downstream targets the receiver must forward to, nearest first.
    pub targets: Vec<DatanodeInfo>,
    /// Index of the receiver in the original pipeline (0 = first node).
    /// The first node is the one that emits the FNFA in SMARTH mode.
    pub position: u32,
    /// Buffer budget granted to this client on the first node (§IV-C).
    pub client_buffer: u64,
    /// Causal trace of the block's lifecycle, forwarded unchanged down
    /// the pipeline (`INVALID` when the write is untraced).
    pub trace: TraceId,
    /// The parent span datanode-side events hang off; each hop derives
    /// its own child span from this and its position.
    pub span: SpanId,
}

impl WriteBlockHeader {
    /// The causal context this hop should emit events under: the
    /// block's trace, entered through a per-position child span.
    pub fn hop_ctx(&self) -> Option<TraceCtx> {
        TraceCtx::from_raw(self.trace.raw(), self.span.raw())
            .map(|ctx| ctx.child(self.position as u64 + 1))
    }
}

impl Wire for WriteBlockHeader {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.pipeline.raw());
        w.put_u64(self.client.raw());
        self.block.encode(w);
        self.mode.encode(w);
        encode_vec(w, &self.targets);
        w.put_u32(self.position);
        w.put_u64(self.client_buffer);
        w.put_u64(self.trace.raw());
        w.put_u64(self.span.raw());
    }
    fn decode(r: &mut WireReader) -> DfsResult<Self> {
        Ok(WriteBlockHeader {
            pipeline: PipelineId(r.get_u64()?),
            client: ClientId(r.get_u64()?),
            block: ExtendedBlock::decode(r)?,
            mode: WriteMode::decode(r)?,
            targets: decode_vec(r)?,
            position: r.get_u32()?,
            client_buffer: r.get_u64()?,
            trace: TraceId(r.get_u64()?),
            span: SpanId(r.get_u64()?),
        })
    }
}

impl Wire for DataOp {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            DataOp::WriteBlock(h) => {
                w.put_u8(0);
                h.encode(w);
            }
            DataOp::ReadBlock { block, offset, len } => {
                w.put_u8(1);
                block.encode(w);
                w.put_u64(*offset);
                w.put_u64(*len);
            }
            DataOp::RecoverBlock {
                block,
                new_gen,
                new_len,
            } => {
                w.put_u8(2);
                block.encode(w);
                w.put_u64(new_gen.raw());
                w.put_u64(*new_len);
            }
            DataOp::GetReplicaInfo { block } => {
                w.put_u8(3);
                w.put_u64(block.raw());
            }
            DataOp::GetTelemetry => w.put_u8(4),
        }
    }

    fn decode(r: &mut WireReader) -> DfsResult<Self> {
        Ok(match r.get_u8()? {
            0 => DataOp::WriteBlock(WriteBlockHeader::decode(r)?),
            1 => DataOp::ReadBlock {
                block: ExtendedBlock::decode(r)?,
                offset: r.get_u64()?,
                len: r.get_u64()?,
            },
            2 => DataOp::RecoverBlock {
                block: ExtendedBlock::decode(r)?,
                new_gen: GenStamp(r.get_u64()?),
                new_len: r.get_u64()?,
            },
            3 => DataOp::GetReplicaInfo {
                block: BlockId(r.get_u64()?),
            },
            4 => DataOp::GetTelemetry,
            x => return Err(DfsError::codec(format!("unknown DataOp tag {x}"))),
        })
    }
}

/// A data packet travelling down a pipeline (§II step 3). The payload is
/// a reference-counted `Bytes`: forwarding a packet to the mirror never
/// copies the data.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    pub seq: u64,
    /// Byte offset of this payload within the block.
    pub offset_in_block: u64,
    pub last_in_block: bool,
    pub checksums: Vec<u32>,
    pub payload: Bytes,
}

impl Packet {
    pub fn len(&self) -> usize {
        self.payload.len()
    }
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

impl Wire for Packet {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.seq);
        w.put_u64(self.offset_in_block);
        w.put_bool(self.last_in_block);
        w.put_u32_slice(&self.checksums);
        w.put_bytes(&self.payload);
    }
    fn decode(r: &mut WireReader) -> DfsResult<Self> {
        Ok(Packet {
            seq: r.get_u64()?,
            offset_in_block: r.get_u64()?,
            last_in_block: r.get_bool()?,
            checksums: r.get_u32_vec()?,
            payload: r.get_bytes()?,
        })
    }
}

/// Per-datanode status inside an ack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckStatus {
    Success,
    Error,
}

/// Kind of acknowledgement travelling upstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckKind {
    /// Normal per-packet ack aggregated across the downstream pipeline.
    Packet,
    /// SMARTH's FIRST_NODE_FINISH ack: the first datanode has stored the
    /// entire block (§III-A step 3). Sent once per block, in addition to
    /// the per-packet acks.
    FirstNodeFinish,
}

/// Acknowledgement message (§II step 4).
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineAck {
    pub kind: AckKind,
    pub seq: u64,
    /// Number of packets this ack covers: acks are cumulative, so an
    /// ack for `seq` with `batch = n` acknowledges packets
    /// `seq - n + 1 ..= seq`. The responder coalesces whatever is ready
    /// into one ack, cutting upstream ack traffic on large uploads.
    pub batch: u64,
    /// Status per pipeline member downstream of (and including) the
    /// sender, ordered nearest-first. A client sees `replication` entries
    /// on an intact pipeline.
    pub statuses: Vec<AckStatus>,
}

impl PipelineAck {
    pub fn all_success(&self) -> bool {
        self.statuses.iter().all(|s| *s == AckStatus::Success)
    }

    /// Index of the first failed node, if any — the node Algorithm 3
    /// removes from the pipeline.
    pub fn first_error(&self) -> Option<usize> {
        self.statuses.iter().position(|s| *s == AckStatus::Error)
    }
}

impl Wire for PipelineAck {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(match self.kind {
            AckKind::Packet => 0,
            AckKind::FirstNodeFinish => 1,
        });
        w.put_u64(self.seq);
        w.put_u64(self.batch);
        w.put_u32(self.statuses.len() as u32);
        for s in &self.statuses {
            w.put_u8(match s {
                AckStatus::Success => 0,
                AckStatus::Error => 1,
            });
        }
    }

    fn decode(r: &mut WireReader) -> DfsResult<Self> {
        let kind = match r.get_u8()? {
            0 => AckKind::Packet,
            1 => AckKind::FirstNodeFinish,
            x => return Err(DfsError::codec(format!("unknown ack kind {x}"))),
        };
        let seq = r.get_u64()?;
        let batch = r.get_u64()?;
        let n = r.get_u32()? as usize;
        if n > 1024 {
            return Err(DfsError::codec(format!("ack status count {n} absurd")));
        }
        let statuses = (0..n)
            .map(|_| {
                Ok(match r.get_u8()? {
                    0 => AckStatus::Success,
                    1 => AckStatus::Error,
                    x => return Err(DfsError::codec(format!("unknown ack status {x}"))),
                })
            })
            .collect::<DfsResult<Vec<_>>>()?;
        Ok(PipelineAck {
            kind,
            seq,
            batch,
            statuses,
        })
    }
}

/// Reply to `DataOp::ReadBlock` / `RecoverBlock` / `GetReplicaInfo`.
#[derive(Debug, Clone, PartialEq)]
pub enum DataReply {
    /// Block content follows as a stream of `Packet`s; this frame carries
    /// the total length to expect.
    ReadOk { len: u64 },
    RecoverOk { block: ExtendedBlock },
    ReplicaInfo {
        block: Option<ExtendedBlock>,
        finalized: bool,
    },
    /// Reply to [`DataOp::GetTelemetry`].
    Telemetry { text: String, series_json: String },
    Error(String),
}

impl Wire for DataReply {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            DataReply::ReadOk { len } => {
                w.put_u8(0);
                w.put_u64(*len);
            }
            DataReply::RecoverOk { block } => {
                w.put_u8(1);
                block.encode(w);
            }
            DataReply::ReplicaInfo { block, finalized } => {
                w.put_u8(2);
                match block {
                    Some(b) => {
                        w.put_bool(true);
                        b.encode(w);
                    }
                    None => w.put_bool(false),
                }
                w.put_bool(*finalized);
            }
            DataReply::Telemetry { text, series_json } => {
                w.put_u8(3);
                w.put_str(text);
                w.put_str(series_json);
            }
            DataReply::Error(m) => {
                w.put_u8(255);
                w.put_str(m);
            }
        }
    }

    fn decode(r: &mut WireReader) -> DfsResult<Self> {
        Ok(match r.get_u8()? {
            0 => DataReply::ReadOk { len: r.get_u64()? },
            1 => DataReply::RecoverOk {
                block: ExtendedBlock::decode(r)?,
            },
            2 => {
                let block = if r.get_bool()? {
                    Some(ExtendedBlock::decode(r)?)
                } else {
                    None
                };
                DataReply::ReplicaInfo {
                    block,
                    finalized: r.get_bool()?,
                }
            }
            3 => DataReply::Telemetry {
                text: r.get_str()?,
                series_json: r.get_str()?,
            },
            255 => DataReply::Error(r.get_str()?),
            x => return Err(DfsError::codec(format!("unknown DataReply tag {x}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dn(i: u32) -> DatanodeInfo {
        DatanodeInfo {
            id: DatanodeId(i),
            host_name: format!("dn{i}"),
            rack: format!("rack-{}", i % 2),
            addr: format!("dn{i}:50010"),
        }
    }

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let decoded = T::from_bytes(v.to_bytes()).unwrap();
        assert_eq!(decoded, v);
    }

    /// The golden values, one `"name" => value` per line as
    /// `crates/core/tests/golden/wire.hex` has one `name hex` per line:
    /// each is encoded, decoded back and compared on the way in.
    macro_rules! golden {
        ($($name:literal => $value:expr,)*) => {{
            fn add<T: Wire + PartialEq + std::fmt::Debug>(out: &mut Vec<String>, name: &str, v: T) {
                let bytes = v.to_bytes();
                assert_eq!(T::from_bytes(bytes.clone()).unwrap(), v, "{name} decodes back");
                let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
                out.push(format!("{name} {hex}"));
            }
            let mut lines = Vec::new();
            $(add(&mut lines, $name, $value);)*
            lines
        }};
    }

    /// One value per record and per enum variant (both arms of every
    /// `Option`, and an `Idempotent` envelope around an `AddBlock`).
    fn golden_lines() -> Vec<String> {
        let blk = ExtendedBlock::new(BlockId(0x0b10c), GenStamp(3), 64 << 20);
        let (client, file_id) = (ClientId(4), FileId(8));
        let telemetry = DatanodeTelemetry { staging_packets: 7, buffered_bytes: 4096, forward_bytes: 128 };
        let status = FileStatus { file_id: FileId(11), path: "/vol/a.bin".into(), len: 12345, replication: 3, block_size: 64 << 20, is_dir: false, complete: true };
        let located = LocatedBlock { block: blk, targets: vec![dn(0), dn(5)], trace: TraceId(17), span: SpanId(18) };
        let row = NodeTelemetryRow { id: DatanodeId(3), host_name: "dn3".into(), rack: "rack-1".into(), alive: true, used: 1 << 30, capacity: 1 << 40, active_transfers: 2, telemetry, age_ms: 1500 };
        let header = WriteBlockHeader { pipeline: PipelineId(3), client, block: blk, mode: WriteMode::Smarth, targets: vec![dn(5), dn(6)], position: 1, client_buffer: 64 << 20, trace: TraceId(9), span: SpanId(10) };
        let speed = SpeedRecord { datanode: DatanodeId(3), bytes_per_sec: 27e6, samples: 12 };
        let add_block = ClientRequest::AddBlock { client, file_id, previous: Some(blk), excluded: vec![DatanodeId(1), DatanodeId(5)] };
        let ok3 = vec![AckStatus::Success, AckStatus::Error, AckStatus::Success];
        golden! {
            "ExtendedBlock" => blk,
            "DatanodeInfo" => dn(7),
            "DatanodeTelemetry" => telemetry,
            "NodeTelemetryRow" => row.clone(),
            "LocatedBlock" => located.clone(),
            "LocatedBlock.untraced" => LocatedBlock::untraced(blk, vec![]),
            "SpeedRecord" => speed,
            "FileStatus" => status.clone(),
            "WriteBlockHeader" => header.clone(),
            "Packet" => Packet { seq: 17, offset_in_block: 64 * 1024, last_in_block: true, checksums: vec![1, 0xdead_beef], payload: Bytes::from_static(b"payload bytes") },
            "PipelineAck.Packet" => PipelineAck { kind: AckKind::Packet, seq: 12, batch: 5, statuses: ok3 },
            "PipelineAck.FirstNodeFinish" => PipelineAck { kind: AckKind::FirstNodeFinish, seq: 99, batch: 1, statuses: vec![AckStatus::Success] },
            "WriteMode.Hdfs" => WriteMode::Hdfs,
            "WriteMode.Smarth" => WriteMode::Smarth,
            "ClientRequest::Register" => ClientRequest::Register { host_name: "client".into(), rack: "rack-a".into() },
            "ClientRequest::Create" => ClientRequest::Create { client, path: "/data/file.bin".into(), replication: 3, block_size: 64 << 20, overwrite: true, mode: WriteMode::Smarth },
            "ClientRequest::AddBlock" => add_block.clone(),
            "ClientRequest::AddBlock.none" => ClientRequest::AddBlock { client, file_id, previous: None, excluded: vec![] },
            "ClientRequest::CommitBlock" => ClientRequest::CommitBlock { client, file_id, block: blk },
            "ClientRequest::Complete" => ClientRequest::Complete { client, file_id, last: Some(blk) },
            "ClientRequest::Complete.none" => ClientRequest::Complete { client, file_id, last: None },
            "ClientRequest::AbandonBlock" => ClientRequest::AbandonBlock { client, file_id, block: BlockId(77) },
            "ClientRequest::GetAdditionalDatanodes" => ClientRequest::GetAdditionalDatanodes { client, block: BlockId(77), existing: vec![DatanodeId(0), DatanodeId(2)], wanted: 1 },
            "ClientRequest::BeginBlockRecovery" => ClientRequest::BeginBlockRecovery { client, block: BlockId(77) },
            "ClientRequest::ReportSpeeds" => ClientRequest::ReportSpeeds { client, records: vec![speed] },
            "ClientRequest::GetFileInfo" => ClientRequest::GetFileInfo { path: "/a/b".into() },
            "ClientRequest::GetBlockLocations" => ClientRequest::GetBlockLocations { client, path: "/data/file.bin".into() },
            "ClientRequest::ReportBadReplica" => ClientRequest::ReportBadReplica { client, block: blk, datanode: DatanodeId(5) },
            "ClientRequest::List" => ClientRequest::List { path: "/a".into() },
            "ClientRequest::Delete" => ClientRequest::Delete { path: "/x".into() },
            "ClientRequest::Rename" => ClientRequest::Rename { src: "/x".into(), dst: "/vol/y".into() },
            "ClientRequest::GetTelemetry" => ClientRequest::GetTelemetry,
            "ClientRequest::Idempotent{AddBlock}" => ClientRequest::Idempotent { client, request_id: 99, inner: Box::new(add_block) },
            "ClientResponse::Registered" => ClientResponse::Registered { client },
            "ClientResponse::Created" => ClientResponse::Created { file_id },
            "ClientResponse::BlockAllocated" => ClientResponse::BlockAllocated(located.clone()),
            "ClientResponse::Committed" => ClientResponse::Committed,
            "ClientResponse::Completed" => ClientResponse::Completed,
            "ClientResponse::Abandoned" => ClientResponse::Abandoned,
            "ClientResponse::AdditionalDatanodes" => ClientResponse::AdditionalDatanodes { targets: vec![dn(8)] },
            "ClientResponse::BadReplicaAck" => ClientResponse::BadReplicaAck,
            "ClientResponse::RecoveryStamp" => ClientResponse::RecoveryStamp { new_gen: GenStamp(4) },
            "ClientResponse::SpeedsAck" => ClientResponse::SpeedsAck,
            "ClientResponse::FileInfo" => ClientResponse::FileInfo(Some(status.clone())),
            "ClientResponse::FileInfo.none" => ClientResponse::FileInfo(None),
            "ClientResponse::BlockLocations" => ClientResponse::BlockLocations { blocks: vec![located] },
            "ClientResponse::Listing" => ClientResponse::Listing { entries: vec![status] },
            "ClientResponse::Deleted" => ClientResponse::Deleted { existed: true },
            "ClientResponse::Renamed" => ClientResponse::Renamed,
            "ClientResponse::Telemetry" => ClientResponse::Telemetry { rows: vec![row], text: "smarth_bytes_written 1\n".into(), series_json: "[]".into() },
            "ClientResponse::Error" => ClientResponse::Error("boom".into()),
            "DatanodeRequest::Register" => DatanodeRequest::Register { host_name: "dn0".into(), rack: "rack-a".into(), data_addr: "dn0:50010".into(), capacity: 1 << 40 },
            "DatanodeRequest::Heartbeat" => DatanodeRequest::Heartbeat { id: DatanodeId(2), used: 42, active_transfers: 3, telemetry },
            "DatanodeRequest::BlockReceived" => DatanodeRequest::BlockReceived { id: DatanodeId(2), block: blk },
            "DatanodeResponse::Registered" => DatanodeResponse::Registered { id: DatanodeId(7) },
            "DatanodeResponse::HeartbeatAck" => DatanodeResponse::HeartbeatAck,
            "DatanodeResponse::BlockReceivedAck" => DatanodeResponse::BlockReceivedAck,
            "DatanodeResponse::Error" => DatanodeResponse::Error("nope".into()),
            "DataOp::WriteBlock" => DataOp::WriteBlock(header),
            "DataOp::ReadBlock" => DataOp::ReadBlock { block: blk, offset: 512, len: 1024 },
            "DataOp::RecoverBlock" => DataOp::RecoverBlock { block: blk, new_gen: GenStamp(4), new_len: 2048 },
            "DataOp::GetReplicaInfo" => DataOp::GetReplicaInfo { block: BlockId(77) },
            "DataOp::GetTelemetry" => DataOp::GetTelemetry,
            "DataReply::ReadOk" => DataReply::ReadOk { len: 4096 },
            "DataReply::RecoverOk" => DataReply::RecoverOk { block: blk },
            "DataReply::ReplicaInfo" => DataReply::ReplicaInfo { block: Some(blk), finalized: false },
            "DataReply::ReplicaInfo.none" => DataReply::ReplicaInfo { block: None, finalized: true },
            "DataReply::Telemetry" => DataReply::Telemetry { text: "smarth_bytes_written 9\n".into(), series_json: "[{\"name\":\"bytes_written\"}]".into() },
            "DataReply::Error" => DataReply::Error("no such block".into()),
        }
    }

    /// The wire format is pinned byte for byte. A new message adds one
    /// line to the table above and one to `tests/golden/wire.hex` (the
    /// failure prints the line to add); an existing line never changes.
    #[test]
    fn golden_bytes_are_unchanged() {
        let actual = golden_lines();
        let expected: Vec<&str> = include_str!("../tests/golden/wire.hex").lines().collect();
        for (i, line) in actual.iter().enumerate() {
            assert_eq!(Some(line.as_str()), expected.get(i).copied(), "line {} of wire.hex", i + 1);
        }
        assert_eq!(actual.len(), expected.len(), "wire.hex has lines no value accounts for");
    }

    #[test]
    fn client_request_roundtrips() {
        roundtrip(ClientRequest::Register {
            host_name: "client".into(),
            rack: "rack-a".into(),
        });
        roundtrip(ClientRequest::Create {
            client: ClientId(4),
            path: "/data/file.bin".into(),
            replication: 3,
            block_size: 64 << 20,
            overwrite: false,
            mode: WriteMode::Smarth,
        });
        roundtrip(ClientRequest::AddBlock {
            client: ClientId(4),
            file_id: FileId(8),
            previous: Some(ExtendedBlock::new(BlockId(1), GenStamp(1), 64 << 20)),
            excluded: vec![DatanodeId(1), DatanodeId(5)],
        });
        roundtrip(ClientRequest::AddBlock {
            client: ClientId(4),
            file_id: FileId(8),
            previous: None,
            excluded: vec![],
        });
        roundtrip(ClientRequest::Complete {
            client: ClientId(4),
            file_id: FileId(8),
            last: None,
        });
        roundtrip(ClientRequest::GetAdditionalDatanodes {
            client: ClientId(4),
            block: BlockId(77),
            existing: vec![DatanodeId(0), DatanodeId(2)],
            wanted: 1,
        });
        roundtrip(ClientRequest::BeginBlockRecovery {
            client: ClientId(4),
            block: BlockId(77),
        });
        roundtrip(ClientRequest::ReportSpeeds {
            client: ClientId(4),
            records: vec![SpeedRecord {
                datanode: DatanodeId(3),
                bytes_per_sec: 27e6,
                samples: 12,
            }],
        });
        roundtrip(ClientRequest::Delete { path: "/x".into() });
        roundtrip(ClientRequest::Rename {
            src: "/x".into(),
            dst: "/vol/y".into(),
        });
        roundtrip(ClientRequest::GetBlockLocations {
            client: ClientId(4),
            path: "/data/file.bin".into(),
        });
        roundtrip(ClientRequest::ReportBadReplica {
            client: ClientId(4),
            block: ExtendedBlock::new(BlockId(77), GenStamp(2), 1 << 20),
            datanode: DatanodeId(5),
        });
        roundtrip(ClientRequest::Idempotent {
            client: ClientId(4),
            request_id: 99,
            inner: Box::new(ClientRequest::AddBlock {
                client: ClientId(4),
                file_id: FileId(8),
                previous: Some(ExtendedBlock::new(BlockId(1), GenStamp(1), 64 << 20)),
                excluded: vec![DatanodeId(2)],
            }),
        });
    }

    #[test]
    fn nested_idempotent_envelope_is_rejected() {
        let nested = ClientRequest::Idempotent {
            client: ClientId(1),
            request_id: 7,
            inner: Box::new(ClientRequest::Idempotent {
                client: ClientId(1),
                request_id: 8,
                inner: Box::new(ClientRequest::GetTelemetry),
            }),
        };
        assert!(ClientRequest::from_bytes(nested.to_bytes()).is_err());
    }

    #[test]
    fn client_response_roundtrips() {
        roundtrip(ClientResponse::Registered { client: ClientId(9) });
        roundtrip(ClientResponse::BlockAllocated(LocatedBlock {
            block: ExtendedBlock::new(BlockId(5), GenStamp(1), 0),
            targets: vec![dn(0), dn(5), dn(6)],
            trace: TraceId(17),
            span: SpanId(18),
        }));
        roundtrip(ClientResponse::BlockAllocated(LocatedBlock::untraced(
            ExtendedBlock::new(BlockId(6), GenStamp(1), 0),
            vec![dn(1)],
        )));
        roundtrip(ClientResponse::AdditionalDatanodes {
            targets: vec![dn(8)],
        });
        roundtrip(ClientResponse::RecoveryStamp {
            new_gen: GenStamp(3),
        });
        roundtrip(ClientResponse::FileInfo(Some(FileStatus {
            file_id: FileId(1),
            path: "/a/b".into(),
            len: 12345,
            replication: 3,
            block_size: 64 << 20,
            is_dir: false,
            complete: true,
        })));
        roundtrip(ClientResponse::FileInfo(None));
        roundtrip(ClientResponse::BadReplicaAck);
        roundtrip(ClientResponse::Error("boom".into()));
    }

    #[test]
    fn telemetry_roundtrips() {
        roundtrip(ClientRequest::GetTelemetry);
        roundtrip(ClientResponse::Telemetry {
            rows: vec![NodeTelemetryRow {
                id: DatanodeId(3),
                host_name: "dn3".into(),
                rack: "rack-1".into(),
                alive: true,
                used: 1 << 30,
                capacity: 1 << 40,
                active_transfers: 2,
                telemetry: DatanodeTelemetry {
                    staging_packets: 7,
                    buffered_bytes: 4096,
                    forward_bytes: 128,
                },
                age_ms: 1500,
            }],
            text: "# TYPE smarth_bytes_written counter\nsmarth_bytes_written 1\n".into(),
            series_json: "[]".into(),
        });
        roundtrip(ClientResponse::Telemetry {
            rows: vec![],
            text: String::new(),
            series_json: String::new(),
        });
        roundtrip(DataOp::GetTelemetry);
        roundtrip(DataReply::Telemetry {
            text: "smarth_bytes_written 9\n".into(),
            series_json: "[{\"name\":\"bytes_written\"}]".into(),
        });
    }

    #[test]
    fn datanode_protocol_roundtrips() {
        roundtrip(DatanodeRequest::Register {
            host_name: "dn0".into(),
            rack: "rack-a".into(),
            data_addr: "dn0:50010".into(),
            capacity: 1 << 40,
        });
        roundtrip(DatanodeRequest::Heartbeat {
            id: DatanodeId(2),
            used: 42,
            active_transfers: 3,
            telemetry: DatanodeTelemetry {
                staging_packets: 5,
                buffered_bytes: 1 << 16,
                forward_bytes: 512,
            },
        });
        roundtrip(DatanodeRequest::BlockReceived {
            id: DatanodeId(2),
            block: ExtendedBlock::new(BlockId(9), GenStamp(2), 100),
        });
        roundtrip(DatanodeResponse::Registered { id: DatanodeId(7) });
        roundtrip(DatanodeResponse::HeartbeatAck);
        roundtrip(DatanodeResponse::Error("nope".into()));
    }

    #[test]
    fn data_transfer_roundtrips() {
        roundtrip(DataOp::WriteBlock(WriteBlockHeader {
            pipeline: PipelineId(3),
            client: ClientId(1),
            block: ExtendedBlock::new(BlockId(2), GenStamp(1), 0),
            mode: WriteMode::Smarth,
            targets: vec![dn(5), dn(6)],
            position: 0,
            client_buffer: 64 << 20,
            trace: TraceId(9),
            span: SpanId(10),
        }));
        roundtrip(DataOp::ReadBlock {
            block: ExtendedBlock::new(BlockId(2), GenStamp(1), 4096),
            offset: 512,
            len: 1024,
        });
        roundtrip(DataOp::RecoverBlock {
            block: ExtendedBlock::new(BlockId(2), GenStamp(1), 4096),
            new_gen: GenStamp(2),
            new_len: 2048,
        });
        roundtrip(DataReply::ReadOk { len: 4096 });
        roundtrip(DataReply::ReplicaInfo {
            block: Some(ExtendedBlock::new(BlockId(2), GenStamp(1), 4096)),
            finalized: false,
        });
    }

    #[test]
    fn packet_roundtrip_preserves_payload() {
        let payload = Bytes::from(vec![0xAB; 1000]);
        let p = Packet {
            seq: 17,
            offset_in_block: 64 * 1024,
            last_in_block: true,
            checksums: vec![1, 2],
            payload: payload.clone(),
        };
        roundtrip(p);
    }

    #[test]
    fn ack_helpers() {
        let ok = PipelineAck {
            kind: AckKind::Packet,
            seq: 1,
            batch: 1,
            statuses: vec![AckStatus::Success; 3],
        };
        assert!(ok.all_success());
        assert_eq!(ok.first_error(), None);

        let bad = PipelineAck {
            kind: AckKind::Packet,
            seq: 1,
            batch: 1,
            statuses: vec![AckStatus::Success, AckStatus::Error, AckStatus::Success],
        };
        assert!(!bad.all_success());
        assert_eq!(bad.first_error(), Some(1));

        let fnfa = PipelineAck {
            kind: AckKind::FirstNodeFinish,
            seq: 99,
            batch: 1,
            statuses: vec![AckStatus::Success],
        };
        roundtrip(fnfa);

        // A coalesced ack round-trips its batch size.
        let batched = PipelineAck {
            kind: AckKind::Packet,
            seq: 12,
            batch: 5,
            statuses: vec![AckStatus::Success; 3],
        };
        roundtrip(batched);
    }

    #[test]
    fn trace_context_propagates_through_headers() {
        let lb = LocatedBlock {
            block: ExtendedBlock::new(BlockId(5), GenStamp(1), 0),
            targets: vec![dn(0)],
            trace: TraceId(21),
            span: SpanId(34),
        };
        let ctx = lb.trace_ctx().expect("traced block has a context");
        assert_eq!(ctx.trace, TraceId(21));
        assert_eq!(ctx.span, SpanId(34));
        assert_eq!(
            LocatedBlock::untraced(lb.block, vec![]).trace_ctx(),
            None,
            "sentinel ids mean untraced"
        );

        let header = WriteBlockHeader {
            pipeline: PipelineId(3),
            client: ClientId(1),
            block: ExtendedBlock::new(BlockId(5), GenStamp(1), 0),
            mode: WriteMode::Smarth,
            targets: vec![],
            position: 1,
            client_buffer: 0,
            trace: TraceId(21),
            span: SpanId(34),
        };
        let hop = header.hop_ctx().unwrap();
        assert_eq!(hop.trace, TraceId(21), "hops stay in the block's trace");
        assert_eq!(hop.span, SpanId(34).child(2), "hop span derives from position");
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(ClientRequest::from_bytes(Bytes::from_static(&[200])).is_err());
        assert!(ClientResponse::from_bytes(Bytes::from_static(&[200])).is_err());
        assert!(DataOp::from_bytes(Bytes::from_static(&[9])).is_err());
    }

    proptest! {
        #[test]
        fn packet_roundtrip_prop(seq in any::<u64>(),
                                 offset in any::<u64>(),
                                 last in any::<bool>(),
                                 sums in proptest::collection::vec(any::<u32>(), 0..64),
                                 payload in proptest::collection::vec(any::<u8>(), 0..4096)) {
            let p = Packet {
                seq,
                offset_in_block: offset,
                last_in_block: last,
                checksums: sums,
                payload: Bytes::from(payload),
            };
            let d = Packet::from_bytes(p.to_bytes()).unwrap();
            prop_assert_eq!(d, p);
        }

        #[test]
        fn speed_record_roundtrip_prop(dn_id in any::<u32>(), bps in 0f64..1e12, n in any::<u32>()) {
            let rec = SpeedRecord { datanode: DatanodeId(dn_id), bytes_per_sec: bps, samples: n };
            let mut w = WireWriter::new();
            rec.encode(&mut w);
            let mut r = WireReader::new(w.finish());
            let d = SpeedRecord::decode(&mut r).unwrap();
            prop_assert_eq!(d, rec);
        }

        #[test]
        fn garbage_never_panics_decoders(raw in proptest::collection::vec(any::<u8>(), 0..128)) {
            let b = Bytes::from(raw);
            let _ = ClientRequest::from_bytes(b.clone());
            let _ = ClientResponse::from_bytes(b.clone());
            let _ = DatanodeRequest::from_bytes(b.clone());
            let _ = DatanodeResponse::from_bytes(b.clone());
            let _ = DataOp::from_bytes(b.clone());
            let _ = Packet::from_bytes(b.clone());
            let _ = PipelineAck::from_bytes(b.clone());
            let _ = DataReply::from_bytes(b);
        }
    }
}
