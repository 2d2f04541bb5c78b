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
//! Every message is declared once, through [`wire_struct!`] or
//! [`wire_enum!`]: the declaration is the type, its [`Wire`](crate::wire::Wire)
//! codec (fields in declaration order, tags as written) and its test
//! sampler. Adding a message is one line in a table here and one line in
//! `tests/golden/wire.hex`; a tag, once used, is never given to another
//! variant. Messages are exchanged as length-prefixed frames (see
//! [`crate::wire`]).

use crate::config::WriteMode;
use crate::error::{DfsError, DfsResult};
use crate::ids::{
    BlockId, ClientId, DatanodeId, ExtendedBlock, FileId, GenStamp, PipelineId, SpanId, TraceId,
};
use crate::obs::TraceCtx;
use crate::wire::{wire_enum, wire_struct};
use bytes::Bytes;

// ---------------------------------------------------------------------------
// Shared records
// ---------------------------------------------------------------------------

wire_struct!(impl ExtendedBlock { id: BlockId, gen: GenStamp, len: u64 });
wire_enum!(impl WriteMode { 0 => Hdfs, 1 => Smarth });

wire_struct! {
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
}

wire_struct! {
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
}

wire_struct! {
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
}

wire_struct! {
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

wire_struct! {
    /// One client→namenode speed observation: mean transfer bandwidth to a
    /// first-datanode, in bytes per second (§III-B).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct SpeedRecord {
        pub datanode: DatanodeId,
        pub bytes_per_sec: f64,
        /// How many block transfers this record aggregates since last report.
        pub samples: u32,
    }
}

wire_struct! {
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
}

// ---------------------------------------------------------------------------
// ClientProtocol
// ---------------------------------------------------------------------------

wire_enum! {
    /// Client → namenode requests.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ClientRequest {
        /// Registers a client session; the namenode answers with a fresh id.
        0 => Register { host_name: String, rack: String },
        /// §II step 1: create a file in the namespace.
        1 => Create {
            client: ClientId,
            path: String,
            replication: u32,
            block_size: u64,
            overwrite: bool,
            mode: WriteMode,
        },
        /// §II step 2: allocate the next block and its pipeline targets.
        /// `previous` is committed (with its final length) as a side effect.
        2 => AddBlock {
            client: ClientId,
            file_id: FileId,
            previous: Option<ExtendedBlock>,
            excluded: Vec<DatanodeId>,
        },
        /// Commits a block without allocating a new one (used when a block
        /// finishes but the stream keeps other pipelines running — SMARTH).
        3 => CommitBlock { client: ClientId, file_id: FileId, block: ExtendedBlock },
        /// §II step 6: all blocks acked, seal the file.
        4 => Complete { client: ClientId, file_id: FileId, last: Option<ExtendedBlock> },
        /// Abandon an allocated-but-unwritten block (recovery path).
        5 => AbandonBlock { client: ClientId, file_id: FileId, block: BlockId },
        /// Replacement targets for a damaged pipeline (Algorithm 3 line 10).
        6 => GetAdditionalDatanodes {
            client: ClientId,
            block: BlockId,
            existing: Vec<DatanodeId>,
            wanted: u32,
        },
        /// Bumps the generation stamp for block recovery and returns the new
        /// stamp (Algorithm 3 line 11 support).
        7 => BeginBlockRecovery { client: ClientId, block: BlockId },
        /// §III-B: the 3-second heartbeat piggybacking observed speeds.
        8 => ReportSpeeds { client: ClientId, records: Vec<SpeedRecord> },
        9 => GetFileInfo { path: String },
        /// Read path: the file's status and its block list with replica
        /// locations, one consistent view in one trip. Carries the client
        /// id so the namenode can order each block's sources by that
        /// client's observed speeds (§III-B applied to reads).
        10 => GetBlockLocations { client: ClientId, path: String },
        /// Namespace listing (for examples/tools).
        11 => List { path: String },
        12 => Delete { path: String },
        /// Read path: a reader observed a corrupt or truncated replica. The
        /// namenode drops the replica from future location responses and
        /// schedules re-replication accounting.
        13 => ReportBadReplica { client: ClientId, block: ExtendedBlock, datanode: DatanodeId },
        /// Telemetry scrape: the namenode's Prometheus exposition, its
        /// sampled series, and the per-datanode cluster table assembled
        /// from heartbeat piggybacks (`smarth_shell top` / `slo`).
        14 => GetTelemetry,
        /// Retry envelope for mutations. The namenode remembers the last
        /// responses per `(client, request_id)` in a bounded table and
        /// replays the cached response when a retried request arrives, so a
        /// retry after a lost response cannot double-allocate or
        /// double-commit. Nesting `Idempotent` inside `Idempotent` is a
        /// protocol error.
        15 => Idempotent {
            client: ClientId,
            /// Client-minted, unique per logical mutation (not per attempt).
            request_id: u64,
            inner: Box<ClientRequest> where not_an_envelope,
        },
        /// Move a complete file to a new path. The destination must not
        /// exist; parents are created as needed. On the sharded namenode
        /// this is the one client-visible cross-shard mutation (src and dst
        /// volumes may live on different shards).
        16 => Rename { src: String, dst: String },
        /// §II steps 1 and 2 in one round trip: `Create`, then the first
        /// `AddBlock` (`previous: None`, nothing excluded) on the new file.
        17 => CreateWithBlock {
            client: ClientId,
            path: String,
            replication: u32,
            block_size: u64,
            overwrite: bool,
            mode: WriteMode,
        },
    }
}

/// The check on [`ClientRequest::Idempotent`]'s `inner`: an envelope
/// never carries another envelope.
fn not_an_envelope(inner: &ClientRequest) -> DfsResult<()> {
    match inner {
        ClientRequest::Idempotent { .. } => {
            Err(DfsError::codec("nested Idempotent request envelope"))
        }
        _ => Ok(()),
    }
}

wire_enum! {
    /// Namenode → client responses. `Error` carries the failed variant's
    /// error; every happy-path response has its own variant so callers can
    /// pattern-match exhaustively.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ClientResponse {
        0 => Registered { client: ClientId },
        1 => Created { file_id: FileId },
        2 => BlockAllocated(LocatedBlock),
        3 => Committed,
        4 => Completed,
        5 => Abandoned,
        6 => AdditionalDatanodes { targets: Vec<DatanodeInfo> },
        7 => RecoveryStamp { new_gen: GenStamp },
        8 => SpeedsAck,
        9 => FileInfo(Option<FileStatus>),
        10 => BlockLocations { status: FileStatus, blocks: Vec<LocatedBlock> },
        11 => Listing { entries: Vec<FileStatus> },
        12 => Deleted { existed: bool },
        13 => BadReplicaAck,
        /// Cluster-wide telemetry: per-node rows, the namenode's Prometheus
        /// text exposition, and its `TelemetrySeries` as compact JSON.
        14 => Telemetry { rows: Vec<NodeTelemetryRow>, text: String, series_json: String },
        15 => Renamed,
        /// The file exists; `first` is `None` when no block could be placed
        /// yet, and the client then asks through `AddBlock` as for any block.
        16 => CreatedWithBlock { file_id: FileId, first: Option<LocatedBlock> },
        255 => Error(String),
    }
}

// ---------------------------------------------------------------------------
// DatanodeProtocol
// ---------------------------------------------------------------------------

wire_enum! {
    /// Datanode → namenode requests.
    #[derive(Debug, Clone, PartialEq)]
    pub enum DatanodeRequest {
        0 => Register { host_name: String, rack: String, data_addr: String, capacity: u64 },
        1 => Heartbeat {
            id: DatanodeId,
            used: u64,
            active_transfers: u32,
            /// The node's live gauge snapshot, piggybacked so the namenode
            /// holds a cluster-wide telemetry view with no extra RPC.
            telemetry: DatanodeTelemetry,
        },
        2 => BlockReceived { id: DatanodeId, block: ExtendedBlock },
    }
}

wire_enum! {
    /// Namenode → datanode responses.
    #[derive(Debug, Clone, PartialEq)]
    pub enum DatanodeResponse {
        0 => Registered { id: DatanodeId },
        1 => HeartbeatAck,
        2 => BlockReceivedAck,
        255 => Error(String),
    }
}

// ---------------------------------------------------------------------------
// Data transfer protocol
// ---------------------------------------------------------------------------

wire_enum! {
    /// First frame on a data connection: what the receiver should do.
    #[derive(Debug, Clone, PartialEq)]
    pub enum DataOp {
        /// Start receiving a block. `targets` is the *remaining* pipeline
        /// downstream of the receiver (empty for the tail node).
        0 => WriteBlock(WriteBlockHeader),
        /// Read a finalized block back (verification path).
        1 => ReadBlock { block: ExtendedBlock, offset: u64, len: u64 },
        /// Recover a block: adopt the new generation stamp and truncate to
        /// `new_len` (Algorithm 3's `recoverBlock` issued by the primary).
        2 => RecoverBlock { block: ExtendedBlock, new_gen: GenStamp, new_len: u64 },
        /// Ask a datanode for the current state of a replica (used by the
        /// recovery primary to agree on a safe length).
        3 => GetReplicaInfo { block: BlockId },
        /// Scrape this datanode's telemetry: Prometheus text exposition
        /// plus its local sampled series as compact JSON.
        4 => GetTelemetry,
    }
}

wire_struct! {
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
}

impl WriteBlockHeader {
    /// The causal context this hop should emit events under: the
    /// block's trace, entered through a per-position child span.
    pub fn hop_ctx(&self) -> Option<TraceCtx> {
        TraceCtx::from_raw(self.trace.raw(), self.span.raw())
            .map(|ctx| ctx.child(self.position as u64 + 1))
    }
}

wire_struct! {
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
}

impl Packet {
    pub fn len(&self) -> usize {
        self.payload.len()
    }
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

wire_enum! {
    /// Per-datanode status inside an ack.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum AckStatus {
        0 => Success,
        1 => Error,
    }
}

wire_enum! {
    /// Kind of acknowledgement travelling upstream.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum AckKind {
        /// Normal per-packet ack aggregated across the downstream pipeline.
        0 => Packet,
        /// SMARTH's FIRST_NODE_FINISH ack: the first datanode has stored the
        /// entire block (§III-A step 3). Sent once per block, in addition to
        /// the per-packet acks.
        1 => FirstNodeFinish,
    }
}

wire_struct! {
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
        pub statuses: Vec<AckStatus> where at_most_1024_statuses,
    }
}

/// The check on [`PipelineAck`]'s `statuses`: no pipeline is that long.
fn at_most_1024_statuses(statuses: &[AckStatus]) -> DfsResult<()> {
    match statuses.len() {
        n if n > 1024 => Err(DfsError::codec(format!("ack status count {n} absurd"))),
        _ => Ok(()),
    }
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

wire_enum! {
    /// Reply to `DataOp::ReadBlock` / `RecoverBlock` / `GetReplicaInfo`.
    #[derive(Debug, Clone, PartialEq)]
    pub enum DataReply {
        /// Block content follows as a stream of `Packet`s; this frame carries
        /// the total length to expect.
        0 => ReadOk { len: u64 },
        1 => RecoverOk { block: ExtendedBlock },
        2 => ReplicaInfo { block: Option<ExtendedBlock>, finalized: bool },
        /// Reply to [`DataOp::GetTelemetry`].
        3 => Telemetry { text: String, series_json: String },
        255 => Error(String),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::testing::{round_trips_and_rejects_prefixes, WireVariants};
    use crate::wire::{Wire, WireWriter};
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

    /// Every type a table in this file declares: the ten records, then
    /// the enums.
    macro_rules! every_record {
        ($f:ident $args:tt) => {
            every_record!(
                $f $args:
                ExtendedBlock, DatanodeInfo, DatanodeTelemetry, NodeTelemetryRow, LocatedBlock,
                SpeedRecord, FileStatus, WriteBlockHeader, Packet, PipelineAck
            );
            every_enum!($f $args)
        };
        ($f:ident $args:tt: $($record:ty),*) => {
            $($f::<$record> $args;)*
        };
    }

    /// Every `wire_enum!` table: the six message enums and the three
    /// tag-only ones.
    macro_rules! every_enum {
        ($f:ident $args:tt) => {
            every_record!(
                $f $args:
                ClientRequest, ClientResponse, DatanodeRequest, DatanodeResponse, DataOp,
                DataReply, WriteMode, AckKind, AckStatus
            )
        };
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
            "AckKind::Packet" => AckKind::Packet,
            "AckKind::FirstNodeFinish" => AckKind::FirstNodeFinish,
            "AckStatus::Success" => AckStatus::Success,
            "AckStatus::Error" => AckStatus::Error,
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
            "ClientRequest::CreateWithBlock" => ClientRequest::CreateWithBlock { client, path: "/data/file.bin".into(), replication: 3, block_size: 64 << 20, overwrite: true, mode: WriteMode::Smarth },
            "ClientRequest::GetTelemetry" => ClientRequest::GetTelemetry,
            "ClientRequest::Idempotent{AddBlock}" => ClientRequest::Idempotent { client, request_id: 99, inner: Box::new(add_block) },
            "ClientResponse::Registered" => ClientResponse::Registered { client },
            "ClientResponse::Created" => ClientResponse::Created { file_id },
            "ClientResponse::CreatedWithBlock" => ClientResponse::CreatedWithBlock { file_id, first: Some(located.clone()) },
            "ClientResponse::CreatedWithBlock.none" => ClientResponse::CreatedWithBlock { file_id, first: None },
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
            "ClientResponse::BlockLocations" => ClientResponse::BlockLocations { status: status.clone(), blocks: vec![located] },
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

    /// The variants of `T` that no golden line is named after. A line's
    /// name is `Enum::Variant` (`Enum.Variant` for `WriteMode`), then
    /// possibly `.arm` or `{Inner}`.
    fn unpinned_variants<T: WireVariants>(lines: &[String], out: &mut Vec<String>) {
        for variant in T::VARIANTS {
            let names_it = |line: &String| {
                line.strip_prefix(T::NAME)
                    .and_then(|rest| rest.strip_prefix("::").or_else(|| rest.strip_prefix('.')))
                    .and_then(|rest| rest.strip_prefix(variant))
                    .is_some_and(|tail| !tail.starts_with(|c: char| c.is_alphanumeric()))
            };
            if !lines.iter().any(names_it) {
                out.push(format!("{}::{variant}", T::NAME));
            }
        }
    }

    /// The wire format is pinned byte for byte. A new message adds one
    /// line to the table above and one to `tests/golden/wire.hex` (the
    /// failure prints the line to add); an existing line never changes,
    /// and a variant of any table with no line at all is a failure too.
    #[test]
    fn golden_bytes_are_unchanged() {
        let actual = golden_lines();
        let expected: Vec<&str> = include_str!("../tests/golden/wire.hex").lines().collect();
        for (i, line) in actual.iter().enumerate() {
            assert_eq!(Some(line.as_str()), expected.get(i).copied(), "line {} of wire.hex", i + 1);
        }
        assert_eq!(actual.len(), expected.len(), "wire.hex has lines no value accounts for");
        let mut unpinned = Vec::new();
        every_enum!(unpinned_variants(&actual, &mut unpinned));
        assert!(unpinned.is_empty(), "variants with no golden line: {unpinned:?}");
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

    /// The tables' samplers draw every variant of every record; the one
    /// property (`wire::testing`) holds each to: encode → decode is the
    /// identity, and a truncated encoding is a codec error, not a panic.
    #[test]
    fn every_record_round_trips_and_rejects_truncation() {
        every_record!(round_trips_and_rejects_prefixes(0x5EED));
    }

    /// `PipelineAck` keeps its own, tighter bound on top of the generic
    /// `Vec` one: 1 024 statuses decode, 1 025 are a codec error.
    #[test]
    fn ack_status_count_is_bounded_at_1024() {
        let ack = |n: usize| PipelineAck {
            kind: AckKind::Packet,
            seq: 1,
            batch: 1,
            statuses: vec![AckStatus::Success; n],
        };
        roundtrip(ack(1024));
        let refused = PipelineAck::from_bytes(ack(1025).to_bytes());
        assert!(matches!(refused, Err(DfsError::Codec(m)) if m.contains("1025 absurd")));

        // The same claim over a frame that carries no statuses at all.
        let mut w = WireWriter::new();
        w.put_u8(0);
        w.put_u64(1);
        w.put_u64(1);
        w.put_u32(1025);
        assert!(matches!(PipelineAck::from_bytes(w.finish()), Err(DfsError::Codec(_))));
    }

    /// `AddBlock.excluded` and `GetAdditionalDatanodes.existing` used to
    /// decode with no length guard; a 16-byte body claiming 2²⁰+1 ids is
    /// refused at the count, before any id is read or stored.
    #[test]
    fn id_lists_are_bounded_by_the_generic_vec_guard() {
        let claimed = crate::wire::MAX_VEC_LEN as u32 + 1;
        // tag, client, file_id | block, [previous: None,] count
        let frames: [&[&[u8]]; 2] = [
            &[&[2], &[4; 8], &[8; 8], &[0], &claimed.to_le_bytes()],
            &[&[6], &[4; 8], &[7; 8], &claimed.to_le_bytes()],
        ];
        for parts in frames {
            let frame = Bytes::from(parts.concat());
            assert!(frame.len() <= 22, "16 bytes of ids, a tag, a flag, a count");
            let refused = ClientRequest::from_bytes(frame);
            assert!(matches!(refused, Err(DfsError::Codec(m)) if m.contains("unreasonable")));
        }
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
        fn garbage_never_panics_decoders(raw in proptest::collection::vec(any::<u8>(), 0..128)) {
            fn decode<T: Wire>(b: &Bytes) {
                let _ = T::from_bytes(b.clone());
            }
            let b = Bytes::from(raw);
            every_record!(decode(&b));
        }
    }
}
