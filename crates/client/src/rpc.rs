//! Typed client-side wrapper over the namenode's ClientProtocol.
//!
//! One persistent fabric connection, serialized by a mutex (HDFS
//! similarly multiplexes ClientProtocol calls over one IPC connection).
//! Every helper unwraps the expected response variant and converts
//! `ClientResponse::Error` into a [`DfsError`].
//!
//! Every call runs under the retry/backoff policy of
//! `DfsConfig::rpc_retry`: a broken or stalled connection is torn down
//! and reopened, each attempt carries a per-attempt response deadline,
//! and backoff between attempts is exponential with jitter. Pure reads
//! retry freely. Mutations (`create`, which carries the first `addBlock`;
//! `addBlock` with its piggybacked commit, `commitBlock`, `complete`,
//! `abandonBlock`, `beginBlockRecovery`, `delete`) travel inside a
//! [`ClientRequest::Idempotent`] envelope whose client-minted
//! `request_id` lets the namenode dedupe retries, so a retry after a
//! lost response cannot double-allocate or double-commit. Exhausted
//! retries surface as [`DfsError::NamenodeUnavailable`].

use parking_lot::Mutex;
use smarth_core::config::RetryPolicy;
use smarth_core::error::{DfsError, DfsResult};
use smarth_core::ids::{BlockId, ClientId, DatanodeId, ExtendedBlock, FileId, GenStamp};
use smarth_core::proto::{
    ClientRequest, ClientResponse, DatanodeInfo, FileStatus, LocatedBlock, NodeTelemetryRow,
    SpeedRecord,
};
use smarth_core::wire::{recv_message, send_message};
use smarth_core::WriteMode;
use smarth_fabric::{Fabric, FabricStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// RPC stub for the namenode, shared by the stream code and the
/// heartbeat thread.
pub struct NamenodeClient {
    fabric: Fabric,
    from_host: String,
    nn_addr: String,
    policy: RetryPolicy,
    /// Current connection; `None` after a transport failure until the
    /// next attempt reconnects.
    stream: Mutex<Option<FabricStream>>,
    /// Mints per-mutation `request_id`s. Unique within this session
    /// (dedupe tables are keyed per client, so that is enough).
    request_ids: AtomicU64,
    /// Cheap xorshift state for backoff jitter — no wall clock, no
    /// global RNG.
    jitter_state: AtomicU64,
    /// ClientId learned from `register` (0 = not yet registered); lets
    /// client-less mutations like `delete` use the idempotency envelope.
    session: AtomicU64,
}

impl NamenodeClient {
    pub fn connect(
        fabric: &Fabric,
        from_host: &str,
        nn_client_addr: &str,
        policy: RetryPolicy,
    ) -> DfsResult<Self> {
        // Eager first connection so configuration errors (unknown host,
        // nothing listening) surface at session setup, not mid-write.
        let stream = fabric.connect(from_host, nn_client_addr)?;
        Ok(Self {
            fabric: fabric.clone(),
            from_host: from_host.to_string(),
            nn_addr: nn_client_addr.to_string(),
            policy,
            stream: Mutex::new(Some(stream)),
            request_ids: AtomicU64::new(1),
            jitter_state: AtomicU64::new(0x9E37_79B9_7F4A_7C15),
            session: AtomicU64::new(0),
        })
    }

    /// One send/receive attempt over the cached connection, reconnecting
    /// if the previous attempt broke it. Any transport failure tears the
    /// connection down so the next attempt starts clean — a half-used
    /// stream may hold stale response bytes.
    fn attempt(&self, req: &ClientRequest) -> DfsResult<ClientResponse> {
        let mut slot = self.stream.lock();
        if slot.is_none() {
            *slot = Some(self.fabric.connect(&self.from_host, &self.nn_addr)?);
        }
        let stream = slot.as_mut().expect("stream populated above");
        stream.set_read_deadline(Some(
            Instant::now() + Duration::from_secs_f64(self.policy.deadline.as_secs_f64()),
        ));
        let result: DfsResult<ClientResponse> =
            send_message(&mut *stream, req).and_then(|()| recv_message(&mut *stream));
        match result {
            Ok(resp) => {
                stream.set_read_deadline(None);
                Ok(resp)
            }
            Err(e) => {
                *slot = None;
                Err(e)
            }
        }
    }

    /// Jittered backoff before retry number `retry` (0-based).
    fn backoff(&self, retry: u32) {
        let base = self.policy.backoff_for(retry).as_secs_f64();
        // xorshift64* — enough entropy to de-synchronize retrying
        // clients without touching the global RNG.
        let mut x = self.jitter_state.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter_state.store(x, Ordering::Relaxed);
        let unit = (x >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
        let factor = 1.0 - RetryPolicy::JITTER + 2.0 * RetryPolicy::JITTER * unit;
        let secs = (base * factor).max(0.0);
        if secs > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(secs));
        }
    }

    /// Runs `req` under the retry policy. The caller guarantees the
    /// request is safe to re-send: either a pure read, or a mutation
    /// already wrapped in an [`ClientRequest::Idempotent`] envelope.
    fn call(&self, req: &ClientRequest) -> DfsResult<ClientResponse> {
        let mut last_err = String::new();
        for attempt in 0..self.policy.attempts {
            if attempt > 0 {
                self.backoff(attempt - 1);
            }
            match self.attempt(req) {
                // The namenode answered: a typed remote error is a
                // definitive verdict, not an availability problem.
                Ok(ClientResponse::Error(msg)) => return Err(remote_error(msg)),
                Ok(other) => return Ok(other),
                Err(e) => last_err = e.to_string(),
            }
        }
        Err(DfsError::NamenodeUnavailable(format!(
            "{} attempts to {} failed, last: {last_err}",
            self.policy.attempts, self.nn_addr
        )))
    }

    /// Wraps a mutation in an idempotency envelope with a fresh
    /// client-minted `request_id` (stable across this call's retries)
    /// and runs it under the retry policy.
    fn call_idempotent(
        &self,
        client: ClientId,
        inner: ClientRequest,
    ) -> DfsResult<ClientResponse> {
        let request_id = self.request_ids.fetch_add(1, Ordering::Relaxed);
        self.call(&ClientRequest::Idempotent {
            client,
            request_id,
            inner: Box::new(inner),
        })
    }

    pub fn register(&self, host_name: &str, rack: &str) -> DfsResult<ClientId> {
        match self.call(&ClientRequest::Register {
            host_name: host_name.to_string(),
            rack: rack.to_string(),
        })? {
            ClientResponse::Registered { client } => {
                self.session.store(client.raw(), Ordering::Relaxed);
                Ok(client)
            }
            other => Err(unexpected(other)),
        }
    }

    /// §II steps 1 and 2 in one round trip: creates the file and brings
    /// back its first block's allocation — `None` when the namenode could
    /// not place one yet, and [`Self::add_block`] is the way to ask again.
    #[allow(clippy::too_many_arguments)]
    pub fn create_with_block(
        &self,
        client: ClientId,
        path: &str,
        replication: u32,
        block_size: u64,
        overwrite: bool,
        mode: WriteMode,
    ) -> DfsResult<(FileId, Option<LocatedBlock>)> {
        match self.call_idempotent(
            client,
            ClientRequest::CreateWithBlock {
                client,
                path: path.to_string(),
                replication,
                block_size,
                overwrite,
                mode,
            },
        )? {
            ClientResponse::CreatedWithBlock { file_id, first } => Ok((file_id, first)),
            other => Err(unexpected(other)),
        }
    }

    pub fn add_block(
        &self,
        client: ClientId,
        file_id: FileId,
        previous: Option<ExtendedBlock>,
        excluded: &[DatanodeId],
    ) -> DfsResult<LocatedBlock> {
        match self.call_idempotent(
            client,
            ClientRequest::AddBlock {
                client,
                file_id,
                previous,
                excluded: excluded.to_vec(),
            },
        )? {
            ClientResponse::BlockAllocated(lb) => Ok(lb),
            other => Err(unexpected(other)),
        }
    }

    pub fn commit_block(
        &self,
        client: ClientId,
        file_id: FileId,
        block: ExtendedBlock,
    ) -> DfsResult<()> {
        match self.call_idempotent(
            client,
            ClientRequest::CommitBlock {
                client,
                file_id,
                block,
            },
        )? {
            ClientResponse::Committed => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    pub fn complete(
        &self,
        client: ClientId,
        file_id: FileId,
        last: Option<ExtendedBlock>,
    ) -> DfsResult<()> {
        match self.call_idempotent(
            client,
            ClientRequest::Complete {
                client,
                file_id,
                last,
            },
        )? {
            ClientResponse::Completed => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    pub fn abandon_block(
        &self,
        client: ClientId,
        file_id: FileId,
        block: BlockId,
    ) -> DfsResult<()> {
        match self.call_idempotent(
            client,
            ClientRequest::AbandonBlock {
                client,
                file_id,
                block,
            },
        )? {
            ClientResponse::Abandoned => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    pub fn additional_datanodes(
        &self,
        client: ClientId,
        block: BlockId,
        existing: &[DatanodeId],
        wanted: u32,
    ) -> DfsResult<Vec<DatanodeInfo>> {
        match self.call(&ClientRequest::GetAdditionalDatanodes {
            client,
            block,
            existing: existing.to_vec(),
            wanted,
        })? {
            ClientResponse::AdditionalDatanodes { targets } => Ok(targets),
            other => Err(unexpected(other)),
        }
    }

    pub fn begin_block_recovery(&self, client: ClientId, block: BlockId) -> DfsResult<GenStamp> {
        match self.call_idempotent(client, ClientRequest::BeginBlockRecovery { client, block })? {
            ClientResponse::RecoveryStamp { new_gen } => Ok(new_gen),
            other => Err(unexpected(other)),
        }
    }

    pub fn report_speeds(&self, client: ClientId, records: Vec<SpeedRecord>) -> DfsResult<()> {
        match self.call(&ClientRequest::ReportSpeeds { client, records })? {
            ClientResponse::SpeedsAck => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    pub fn file_info(&self, path: &str) -> DfsResult<Option<FileStatus>> {
        match self.call(&ClientRequest::GetFileInfo {
            path: path.to_string(),
        })? {
            ClientResponse::FileInfo(info) => Ok(info),
            other => Err(unexpected(other)),
        }
    }

    /// Opens a file for reading in one trip: its status and its located
    /// blocks, as one consistent view.
    pub fn block_locations(
        &self,
        client: ClientId,
        path: &str,
    ) -> DfsResult<(FileStatus, Vec<LocatedBlock>)> {
        match self.call(&ClientRequest::GetBlockLocations {
            client,
            path: path.to_string(),
        })? {
            ClientResponse::BlockLocations { status, blocks } => Ok((status, blocks)),
            other => Err(unexpected(other)),
        }
    }

    /// Read path: tell the namenode a replica served corrupt or truncated
    /// data so it stops handing it out and re-replicates.
    pub fn report_bad_replica(
        &self,
        client: ClientId,
        block: ExtendedBlock,
        datanode: DatanodeId,
    ) -> DfsResult<()> {
        match self.call(&ClientRequest::ReportBadReplica {
            client,
            block,
            datanode,
        })? {
            ClientResponse::BadReplicaAck => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Scrapes the namenode's telemetry plane: the per-node cluster
    /// table (heartbeat-piggybacked gauges), the Prometheus-style text
    /// exposition, and the JSON-encoded `TelemetrySeries`.
    pub fn get_telemetry(&self) -> DfsResult<(Vec<NodeTelemetryRow>, String, String)> {
        match self.call(&ClientRequest::GetTelemetry)? {
            ClientResponse::Telemetry {
                rows,
                text,
                series_json,
            } => Ok((rows, text, series_json)),
            other => Err(unexpected(other)),
        }
    }

    pub fn list(&self, path: &str) -> DfsResult<Vec<FileStatus>> {
        match self.call(&ClientRequest::List {
            path: path.to_string(),
        })? {
            ClientResponse::Listing { entries } => Ok(entries),
            other => Err(unexpected(other)),
        }
    }

    pub fn delete(&self, path: &str) -> DfsResult<bool> {
        let req = ClientRequest::Delete {
            path: path.to_string(),
        };
        // Delete carries no client id of its own; dedupe under the
        // registered session when there is one (a retried delete would
        // otherwise report `existed: false` for its own first attempt).
        let resp = match self.session.load(Ordering::Relaxed) {
            0 => self.call(&req)?,
            raw => self.call_idempotent(ClientId(raw), req)?,
        };
        match resp {
            ClientResponse::Deleted { existed } => Ok(existed),
            other => Err(unexpected(other)),
        }
    }
}

fn unexpected(resp: ClientResponse) -> DfsError {
    DfsError::internal(format!("unexpected namenode response: {resp:?}"))
}

/// Best-effort mapping of a remote error string back onto the local
/// error taxonomy; unknown shapes become `Internal`.
fn remote_error(msg: String) -> DfsError {
    if msg.contains("safe mode") {
        DfsError::SafeMode
    } else if msg.contains("already exists") {
        DfsError::AlreadyExists(msg)
    } else if msg.contains("not found") {
        DfsError::NotFound(after(&msg, "path not found: "))
    } else if msg.contains("is a directory") {
        DfsError::IsADirectory(after(&msg, "is a directory: "))
    } else if msg.contains("placement failed") {
        // The counts are embedded in the message; callers only branch on
        // the variant.
        DfsError::PlacementFailed {
            wanted: 0,
            available: 0,
        }
    } else if msg.contains("lease expired") {
        DfsError::LeaseExpired(msg)
    } else if let Some(rest) = msg.split("unknown block blk_").nth(1) {
        // Recovery treats UnknownBlock specially (e.g. abandoning a block
        // twice across retries), so recover the id from the message.
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        match digits.parse::<u64>() {
            Ok(raw) => DfsError::UnknownBlock(BlockId(raw)),
            Err(_) => DfsError::Internal(format!("namenode: {msg}")),
        }
    } else {
        DfsError::Internal(format!("namenode: {msg}"))
    }
}

/// What follows `prefix` in `msg` — the path a remote `Display` put
/// there, so the rebuilt error prints as the original did — or all of it.
fn after(msg: &str, prefix: &str) -> String {
    msg.split_once(prefix).map_or(msg, |(_, rest)| rest).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_error_mapping() {
        assert!(matches!(
            remote_error("namenode is in safe mode".into()),
            DfsError::SafeMode
        ));
        assert!(matches!(
            remote_error("path already exists: /x".into()),
            DfsError::AlreadyExists(_)
        ));
        assert!(matches!(
            remote_error("path not found: /x".into()),
            DfsError::NotFound(p) if p == "/x"
        ));
        assert!(matches!(
            remote_error("is a directory: /x".into()),
            DfsError::IsADirectory(p) if p == "/x"
        ));
        assert!(matches!(
            remote_error("placement failed: wanted 3 datanodes, 1 available".into()),
            DfsError::PlacementFailed { .. }
        ));
        assert!(matches!(
            remote_error("lease expired for /y".into()),
            DfsError::LeaseExpired(_)
        ));
        assert!(matches!(
            remote_error("unknown block blk_42".into()),
            DfsError::UnknownBlock(BlockId(42))
        ));
        assert!(matches!(
            remote_error("boom".into()),
            DfsError::Internal(_)
        ));
    }
}
