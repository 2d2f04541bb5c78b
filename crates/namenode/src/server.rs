//! The namenode: RPC handlers plus the fabric server loops.
//!
//! All protocol logic lives in [`NameNodeState::handle_client_request`] /
//! [`NameNodeState::handle_datanode_request`], which are plain functions
//! over the state — unit-testable without any networking. [`NameNode`]
//! wraps the state with fabric listeners (one address for clients, one
//! for datanodes) and a heartbeat-expiry sweeper thread.

use crate::block_mgr::BlockManager;
use crate::clock::Clock;
use crate::datanode_mgr::DatanodeManager;
use crate::namespace::FsNamespace;
use parking_lot::{Mutex, RwLock, RwLockWriteGuard};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use smarth_core::config::{DfsConfig, WriteMode};
use smarth_core::error::{DfsError, DfsResult};
use smarth_core::ids::{
    BlockId, ClientId, DatanodeId, ExtendedBlock, FileId, IdGenerator, SpanId, TraceId,
};
use smarth_core::shard::{shard_of_path, volume_of};
use smarth_core::json::ToJson;
use smarth_core::obs::telemetry::{prometheus_exposition, Sampler};
use smarth_core::obs::{Obs, ObsEvent, TraceCtx};
use smarth_core::placement::{place_block, replacement_targets, ClientLocality};
use smarth_core::proto::{
    ClientRequest, ClientResponse, DatanodeRequest, DatanodeResponse, LocatedBlock,
};
use smarth_core::speed::NamenodeSpeedRegistry;
use smarth_core::wire::{recv_message, send_message};
use smarth_fabric::{Fabric, Listener, StopSignal};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Cached responses retained per client for idempotent-retry dedupe.
/// Sized so a client's full pipeline window of in-flight mutations fits
/// with slack, while a hot namenode stays bounded.
const RECENT_REQUESTS_PER_CLIENT: usize = 64;

/// Per-datanode line of a [`ClusterReport`].
#[derive(Debug, Clone)]
pub struct DatanodeReport {
    pub id: DatanodeId,
    pub host_name: String,
    pub rack: String,
    pub used_bytes: u64,
    pub capacity_bytes: u64,
}

/// Snapshot of cluster health — the `dfsadmin -report` equivalent.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    pub live_datanodes: Vec<DatanodeReport>,
    pub blocks: usize,
    pub files: usize,
    pub safe_mode: bool,
}

impl ClusterReport {
    pub fn total_used(&self) -> u64 {
        self.live_datanodes.iter().map(|d| d.used_bytes).sum()
    }
}

/// Session info the namenode keeps per registered client.
#[derive(Debug, Clone)]
struct ClientSession {
    host_name: String,
    rack: String,
}

/// Bounded per-client memory of recently answered idempotent requests:
/// the response replayed when a retry of the same `request_id` arrives
/// after the original response was lost in transit.
#[derive(Debug, Default)]
struct RecentRequests {
    responses: HashMap<u64, ClientResponse>,
    order: VecDeque<u64>,
}

impl RecentRequests {
    fn get(&self, request_id: u64) -> Option<ClientResponse> {
        self.responses.get(&request_id).cloned()
    }

    fn remember(&mut self, request_id: u64, resp: ClientResponse) {
        if self.responses.insert(request_id, resp).is_none() {
            self.order.push_back(request_id);
            while self.order.len() > RECENT_REQUESTS_PER_CLIENT {
                if let Some(evicted) = self.order.pop_front() {
                    self.responses.remove(&evicted);
                }
            }
        }
    }
}

/// One volume shard: a slice of the namespace plus the block records of
/// the files living in it, each behind its own lock so independent
/// volumes never contend on the metadata plane.
struct Shard {
    namespace: Mutex<FsNamespace>,
    blocks: Mutex<BlockManager>,
    /// Per-shard slice of the idempotent-replay table (routed by client
    /// id), so retry dedupe does not re-serialize what sharding just
    /// parallelized.
    recent_requests: Mutex<HashMap<ClientId, RecentRequests>>,
}

/// All namenode state, partitioned into
/// [`DfsConfig::namenode_shards`] volume shards keyed by
/// [`shard_of_path`] (the first path component). File and block ids are
/// drawn from generators shared across shards, and the placement RNG is
/// global, so `namenode_shards = 1` reproduces today's single-lock
/// namenode bit-for-bit under serial traffic.
///
/// Lock order (when multiple are held):
/// 1. shard `namespace` locks, ascending shard index;
/// 2. shard `blocks` locks, ascending shard index;
/// 3. `datanodes`;
/// 4. `rng`;
/// 5. `speeds`.
///
/// `file_shards`/`block_shards` are leaf locks: their guards are never
/// held across the acquisition of any other lock. Cross-shard
/// operations — rename, the root listing, the expiry sweep,
/// [`NameNodeState::cluster_report`] — either take the shards they need
/// in index order (rename) or visit shards one at a time (everything
/// else); there is no global freeze, and the heartbeat plane
/// (`datanodes`) is reachable without any shard lock.
pub struct NameNodeState {
    pub config: DfsConfig,
    shards: Vec<Shard>,
    /// `FileId` → owning shard index (files only; every shard holds its
    /// own root inode). Populated at create, dropped at delete, updated
    /// by cross-shard renames.
    file_shards: RwLock<HashMap<FileId, usize>>,
    /// `BlockId` → owning shard index: blocks inherit their file's
    /// shard and follow it across renames.
    block_shards: RwLock<HashMap<BlockId, usize>>,
    datanodes: RwLock<DatanodeManager>,
    speeds: RwLock<NamenodeSpeedRegistry>,
    clients: RwLock<HashMap<ClientId, ClientSession>>,
    /// Test hook (panic-hardening regression coverage): a `Create` for
    /// exactly this path panics inside the handler.
    panic_on_create_path: Mutex<Option<String>>,
    client_ids: IdGenerator,
    /// Mints `TraceId`/root-`SpanId` pairs at `addBlock` time — the
    /// origin of every block-lifecycle trace in the system.
    trace_ids: IdGenerator,
    rng: Mutex<ChaCha8Rng>,
    obs: Obs,
    /// Every time this namenode reads: liveness, speed ageing and the
    /// stamps of the events it emits.
    clock: Clock,
    /// Time-series over this namenode's metrics registry, ticked by the
    /// expiry sweeper and served over `ClientRequest::GetTelemetry`.
    sampler: Arc<Sampler>,
    /// Fault injection: the thread name [`Self::spawn`] refuses.
    #[cfg(test)]
    refuse_spawn: Mutex<Option<&'static str>>,
}

impl NameNodeState {
    pub fn new(config: DfsConfig, seed: u64) -> Self {
        Self::with_clock(config, seed, Obs::disabled(), Clock::wall())
    }

    /// A namenode that reports to `obs` and reads the time from `clock`.
    pub fn with_clock(config: DfsConfig, seed: u64, obs: Obs, clock: Clock) -> Self {
        let expiry = config.heartbeat_expiry();
        let speed_half_life = config.speed_half_life;
        let sampler = Sampler::new(obs.metrics().clone(), 1024);
        let shard_count = config.namenode_shards.max(1);
        let file_ids = Arc::new(IdGenerator::starting_at(2));
        let block_ids = Arc::new(IdGenerator::starting_at(1));
        let shards = (0..shard_count)
            .map(|_| Shard {
                namespace: Mutex::new(FsNamespace::with_shared_ids(Arc::clone(&file_ids))),
                blocks: Mutex::new(BlockManager::with_shared_ids(Arc::clone(&block_ids))),
                recent_requests: Mutex::new(HashMap::new()),
            })
            .collect();
        Self {
            config,
            shards,
            file_shards: RwLock::new(HashMap::new()),
            block_shards: RwLock::new(HashMap::new()),
            datanodes: RwLock::new(DatanodeManager::new(expiry, clock.clone())),
            speeds: RwLock::new(NamenodeSpeedRegistry::with_half_life(speed_half_life)),
            clients: RwLock::new(HashMap::new()),
            panic_on_create_path: Mutex::new(None),
            client_ids: IdGenerator::starting_at(1),
            trace_ids: IdGenerator::starting_at(1),
            rng: Mutex::new(ChaCha8Rng::seed_from_u64(seed)),
            obs,
            clock,
            sampler,
            #[cfg(test)]
            refuse_spawn: Mutex::new(None),
        }
    }

    /// Sends this namenode's events and metrics to `obs` from now on: a
    /// simulation measures one upload of the several it runs.
    pub fn set_obs(&mut self, obs: Obs) {
        self.sampler = Sampler::new(obs.metrics().clone(), 1024);
        self.obs = obs;
    }

    /// Restarts placement's random draws from `seed`. A simulation gives
    /// every upload its own draws, so an upload places alike whatever
    /// the uploads before it placed.
    pub fn reseed(&self, seed: u64) {
        *self.rng.lock() = ChaCha8Rng::seed_from_u64(seed);
    }

    /// The speed registry, aged to now: Algorithm 1 and the read order
    /// always see decayed records, and fresh reports are not decayed by
    /// time that passed before they arrived.
    fn speeds(&self) -> RwLockWriteGuard<'_, NamenodeSpeedRegistry> {
        let mut speeds = self.speeds.write();
        speeds.age(self.clock.now_us());
        speeds
    }

    /// The sampler behind `ClientRequest::GetTelemetry`.
    pub fn sampler(&self) -> &Arc<Sampler> {
        &self.sampler
    }

    /// Number of volume shards this namenode runs with.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard index a path routes to.
    pub fn shard_of(&self, path: &str) -> usize {
        shard_of_path(path, self.shards.len())
    }

    fn shard_for_path(&self, path: &str) -> &Shard {
        &self.shards[self.shard_of(path)]
    }

    fn shard_of_file(&self, file: FileId) -> DfsResult<usize> {
        self.file_shards
            .read()
            .get(&file)
            .copied()
            .ok_or_else(|| DfsError::NotFound(format!("{file}")))
    }

    fn shard_of_block(&self, block: BlockId) -> DfsResult<usize> {
        self.block_shards
            .read()
            .get(&block)
            .copied()
            .ok_or(DfsError::UnknownBlock(block))
    }

    /// Test hook: runs `f` while holding the namespace lock of the
    /// shard owning `path`. Lets tests pin one shard busy and prove the
    /// other shards (and the heartbeat plane) keep moving.
    pub fn with_shard_locked<R>(&self, path: &str, f: impl FnOnce() -> R) -> R {
        let _ns = self.shard_for_path(path).namespace.lock();
        f()
    }

    /// Sweeps heartbeat-expired datanodes, purging their replicas and
    /// speed records. Returns the newly dead ids. The purge visits
    /// shards one at a time — a busy (or held) shard delays only its
    /// own slice of the sweep, never heartbeat liveness itself.
    pub fn expire_dead_datanodes(&self) -> Vec<DatanodeId> {
        let dead = self.datanodes.write().expire_dead();
        if !dead.is_empty() {
            for shard in &self.shards {
                let mut blocks = shard.blocks.lock();
                for dn in &dead {
                    blocks.forget_datanode(*dn);
                }
            }
            let mut speeds = self.speeds.write();
            for dn in &dead {
                speeds.forget_datanode(*dn);
            }
        }
        dead
    }

    fn locality_of(&self, client: ClientId) -> ClientLocality {
        let sessions = self.clients.read();
        let session = sessions.get(&client);
        let (host_name, rack) = match session {
            Some(s) => (s.host_name.clone(), s.rack.clone()),
            None => (String::new(), String::new()),
        };
        drop(sessions);
        // The client is "on" a datanode if host names match (HDFS's
        // first-replica-local rule).
        let local_datanode = {
            let dns = self.datanodes.read();
            dns.alive()
                .into_iter()
                .find(|id| dns.info(*id).is_some_and(|i| i.host_name == host_name))
        };
        ClientLocality {
            client,
            rack,
            local_datanode,
        }
    }

    fn allocate_block(
        &self,
        client: ClientId,
        file_id: FileId,
        excluded: &[DatanodeId],
    ) -> DfsResult<LocatedBlock> {
        let shard_idx = self.shard_of_file(file_id)?;
        let shard = &self.shards[shard_idx];
        let mode = shard.namespace.lock().mode_of(file_id)?;
        let replication = shard.namespace.lock().replication_of(file_id)? as usize;
        let locality = self.locality_of(client);

        let dns = self.datanodes.read();
        let mut rng = self.rng.lock();
        let speeds = self.speeds();
        let placement = place_block(
            mode,
            dns.topology(),
            &speeds,
            &mut *rng,
            &locality,
            replication,
            dns.alive().len(),
            excluded,
        )?;
        drop(speeds);
        drop(rng);
        let targets = dns.infos(&placement.targets);
        if targets.len() != placement.targets.len() {
            return Err(DfsError::internal("placement returned unknown datanode"));
        }
        drop(dns);

        let block = shard.blocks.lock().allocate(file_id, &placement.targets);
        self.block_shards.write().insert(block.id, shard_idx);
        shard.namespace.lock().append_block(client, file_id, block)?;
        if mode == WriteMode::Smarth {
            self.obs.metrics().speed_aware_placements.inc();
        }
        // Mint the block's causal trace: the allocation decision is the
        // root span every downstream event hangs off.
        let trace = TraceId(self.trace_ids.allocate());
        let span = SpanId(self.trace_ids.allocate());
        self.clock.emit(
            &self.obs,
            Some(TraceCtx::new(trace, span)),
            placement.decision(client, block.id),
        );
        Ok(LocatedBlock {
            block,
            targets,
            trace,
            span,
        })
    }

    /// §II step 1 for both create requests: the namespace entry (and the
    /// end of whatever file an overwrite displaced) plus its shard route.
    fn create_file(
        &self,
        client: ClientId,
        path: &str,
        replication: u32,
        block_size: u64,
        overwrite: bool,
        mode: WriteMode,
    ) -> DfsResult<FileId> {
        let injected = {
            let mut armed = self.panic_on_create_path.lock();
            if armed.as_deref() == Some(path) {
                *armed = None;
                true
            } else {
                false
            }
        };
        if injected {
            panic!("injected handler panic for {path}");
        }
        let shard_idx = self.shard_of(path);
        let shard = &self.shards[shard_idx];
        let (file_id, displaced) = shard.namespace.lock().create_file(
            client,
            path,
            replication,
            block_size,
            mode,
            overwrite,
        )?;
        if let Some((old_file, blocks)) = displaced {
            self.retire_file(shard, old_file, &blocks);
        }
        self.file_shards.write().insert(file_id, shard_idx);
        Ok(file_id)
    }

    /// Forgets a file the namespace no longer holds: its block records
    /// and both shard routes.
    fn retire_file(&self, shard: &Shard, file_id: FileId, blocks: &[ExtendedBlock]) {
        let mut bm = shard.blocks.lock();
        for b in blocks {
            bm.retire(b.id);
        }
        drop(bm);
        self.file_shards.write().remove(&file_id);
        let mut block_map = self.block_shards.write();
        for b in blocks {
            block_map.remove(&b.id);
        }
    }

    /// Handles one client RPC. Never panics on malformed input — every
    /// failure becomes `ClientResponse::Error`.
    pub fn handle_client_request(&self, req: ClientRequest) -> ClientResponse {
        self.call(req)
            .unwrap_or_else(|e| ClientResponse::Error(e.to_string()))
    }

    /// [`Self::handle_client_request`] with the error still typed: the
    /// entry of a client in the same process.
    pub fn call(&self, req: ClientRequest) -> DfsResult<ClientResponse> {
        self.obs.metrics().namenode_client_rpcs.inc();
        match req {
            ClientRequest::Idempotent {
                client,
                request_id,
                inner,
            } => Ok(self.handle_idempotent(client, request_id, *inner)),
            req => self.try_handle_client(req),
        }
    }

    /// Exactly-once execution for retried mutations: the first arrival
    /// of `(client, request_id)` executes and its response is cached;
    /// any retry replays the cached response without re-executing, so a
    /// retried `addBlock` after a lost response cannot double-allocate
    /// or double-commit its piggybacked previous block.
    fn handle_idempotent(
        &self,
        client: ClientId,
        request_id: u64,
        inner: ClientRequest,
    ) -> ClientResponse {
        if matches!(inner, ClientRequest::Idempotent { .. }) {
            return ClientResponse::Error("nested Idempotent envelope".into());
        }
        // Route by client id (stable under namespace mutations), so the
        // replay table shards along with the metadata plane.
        let table = &self.shards[client.raw() as usize % self.shards.len()].recent_requests;
        if let Some(cached) = table.lock().get(&client).and_then(|t| t.get(request_id)) {
            return cached;
        }
        let resp = match self.try_handle_client(inner) {
            Ok(resp) => resp,
            Err(e) => ClientResponse::Error(e.to_string()),
        };
        table
            .lock()
            .entry(client)
            .or_default()
            .remember(request_id, resp.clone());
        resp
    }

    /// Arms the panic test hook: the next `Create` for exactly `path`
    /// panics inside the handler. Exists so integration tests can prove
    /// a handler panic surfaces as a typed error response (and bumps
    /// `handler_panics`) instead of silently killing the conn thread.
    pub fn arm_create_panic(&self, path: &str) {
        *self.panic_on_create_path.lock() = Some(path.to_string());
    }

    fn try_handle_client(&self, req: ClientRequest) -> DfsResult<ClientResponse> {
        match req {
            ClientRequest::Register { host_name, rack } => {
                let id = ClientId(self.client_ids.allocate());
                self.clients
                    .write()
                    .insert(id, ClientSession { host_name, rack });
                Ok(ClientResponse::Registered { client: id })
            }
            ClientRequest::Create {
                client,
                path,
                replication,
                block_size,
                overwrite,
                mode,
            } => {
                let file_id =
                    self.create_file(client, &path, replication, block_size, overwrite, mode)?;
                Ok(ClientResponse::Created { file_id })
            }
            ClientRequest::CreateWithBlock {
                client,
                path,
                replication,
                block_size,
                overwrite,
                mode,
            } => {
                let file_id =
                    self.create_file(client, &path, replication, block_size, overwrite, mode)?;
                // A failed allocation is not a failed create: the client
                // asks again through `AddBlock`, which has the retries and
                // the §IV-C waits.
                let first = self.allocate_block(client, file_id, &[]).ok();
                Ok(ClientResponse::CreatedWithBlock { file_id, first })
            }
            ClientRequest::AddBlock {
                client,
                file_id,
                previous,
                excluded,
            } => {
                if let Some(prev) = previous {
                    let shard = &self.shards[self.shard_of_file(file_id)?];
                    shard.namespace.lock().update_block(client, file_id, prev)?;
                }
                let located = self.allocate_block(client, file_id, &excluded)?;
                Ok(ClientResponse::BlockAllocated(located))
            }
            ClientRequest::CommitBlock {
                client,
                file_id,
                block,
            } => {
                let shard = &self.shards[self.shard_of_file(file_id)?];
                shard.namespace.lock().update_block(client, file_id, block)?;
                Ok(ClientResponse::Committed)
            }
            ClientRequest::Complete {
                client,
                file_id,
                last,
            } => {
                let shard = &self.shards[self.shard_of_file(file_id)?];
                shard.namespace.lock().complete_file(client, file_id, last)?;
                Ok(ClientResponse::Completed)
            }
            ClientRequest::AbandonBlock {
                client,
                file_id,
                block,
            } => {
                let shard = &self.shards[self.shard_of_file(file_id)?];
                shard.namespace.lock().remove_block(client, file_id, block)?;
                shard.blocks.lock().retire(block);
                self.block_shards.write().remove(&block);
                Ok(ClientResponse::Abandoned)
            }
            ClientRequest::GetAdditionalDatanodes {
                client: _,
                block,
                existing,
                wanted,
            } => {
                let shard = &self.shards[self.shard_of_block(block)?];
                let _ = shard.blocks.lock().generation(block)?; // must exist
                let dns = self.datanodes.read();
                let mut rng = self.rng.lock();
                let replacements = replacement_targets(
                    dns.topology(),
                    &mut *rng,
                    &existing,
                    &[],
                    wanted as usize,
                )?;
                Ok(ClientResponse::AdditionalDatanodes {
                    targets: dns.infos(&replacements),
                })
            }
            ClientRequest::BeginBlockRecovery { client: _, block } => {
                let shard = &self.shards[self.shard_of_block(block)?];
                let new_gen = shard.blocks.lock().begin_recovery(block)?;
                Ok(ClientResponse::RecoveryStamp { new_gen })
            }
            ClientRequest::ReportSpeeds { client, records } => {
                self.speeds().ingest(client, &records);
                self.obs
                    .metrics()
                    .speed_records_ingested
                    .add(records.len() as u64);
                let records = records.len() as u64;
                self.clock.emit(
                    &self.obs,
                    None,
                    ObsEvent::SpeedReportIngested { client, records },
                );
                Ok(ClientResponse::SpeedsAck)
            }
            ClientRequest::GetFileInfo { path } => Ok(ClientResponse::FileInfo(
                self.shard_for_path(&path).namespace.lock().get_file_info(&path),
            )),
            ClientRequest::GetBlockLocations { client, path } => {
                // A file's blocks always live in its own shard, so one
                // shard's namespace + block map suffice. The status and
                // the block list come from one hold of the namespace
                // lock: the length a reader is told is the length of the
                // blocks it is told, whatever an overwrite does next.
                let shard = self.shard_for_path(&path);
                let ns = shard.namespace.lock();
                let file = ns.resolve_file(&path)?;
                let status = ns.status_of(file).expect("resolved under this lock");
                let blocks = ns.blocks_of(file)?;
                // Namespace, then block map (rename's order), and the
                // first is let go only once the second is held: an
                // overwrite retires these blocks after its own turn in
                // the namespace, so it now waits for this reply.
                let bm = shard.blocks.lock();
                drop(ns);
                let dns = self.datanodes.read();
                let speeds = self.speeds();
                let located = blocks
                    .into_iter()
                    .map(|b| {
                        // §III-B applied to reads: sources this client has
                        // observed go fastest-first, the rest after them
                        // in id order.
                        let mut ids = bm.locations(b.id);
                        speeds.order_by_speed(client, &mut ids);
                        LocatedBlock::untraced(b, dns.infos(&ids))
                    })
                    .collect();
                drop(speeds);
                Ok(ClientResponse::BlockLocations { status, blocks: located })
            }
            ClientRequest::ReportBadReplica {
                client,
                block,
                datanode,
            } => {
                let shard = &self.shards[self.shard_of_block(block.id)?];
                let mut bm = shard.blocks.lock();
                bm.generation(block.id)?; // unknown blocks are an error
                let removed = bm.remove_replica(block.id, datanode);
                let remaining = bm.replica_count(block.id);
                let expected = bm
                    .expected_targets(block.id)
                    .map(|t| t.len())
                    .unwrap_or(0);
                drop(bm);
                // Sink the replica in this client's speed view so future
                // orderings stop preferring the corrupt copy even before
                // re-replication restores it elsewhere.
                self.speeds().ingest(
                    client,
                    &[smarth_core::proto::SpeedRecord {
                        datanode,
                        bytes_per_sec: 1.0,
                        samples: 1,
                    }],
                );
                self.obs.metrics().bad_replicas_reported.inc();
                if removed && remaining < expected {
                    self.obs.metrics().re_replications_scheduled.inc();
                }
                Ok(ClientResponse::BadReplicaAck)
            }
            ClientRequest::GetTelemetry => {
                // Touches no shard lock at all: a pinned shard cannot
                // stall the telemetry plane.
                let rows = self.datanodes.read().telemetry_rows();
                Ok(ClientResponse::Telemetry {
                    rows,
                    text: prometheus_exposition(self.obs.metrics()),
                    series_json: self.sampler.series().to_json().to_string_compact(),
                })
            }
            ClientRequest::List { path } => {
                if volume_of(&path).is_empty() {
                    // Root listing spans every shard: visit them one at
                    // a time (never two namespace locks at once) and
                    // merge, sorted by path for a stable wire order.
                    let mut entries = Vec::new();
                    for shard in &self.shards {
                        entries.extend(shard.namespace.lock().list(&path)?);
                    }
                    entries.sort_by(|a, b| a.path.cmp(&b.path));
                    Ok(ClientResponse::Listing { entries })
                } else {
                    Ok(ClientResponse::Listing {
                        entries: self.shard_for_path(&path).namespace.lock().list(&path)?,
                    })
                }
            }
            ClientRequest::Delete { path } => {
                let shard = self.shard_for_path(&path);
                let removed = shard.namespace.lock().delete_file(&path)?;
                let existed = removed.is_some();
                if let Some((file_id, blocks)) = removed {
                    self.retire_file(shard, file_id, &blocks);
                }
                Ok(ClientResponse::Deleted { existed })
            }
            ClientRequest::Rename { src, dst } => self.rename(&src, &dst),
            // Unwrapped in handle_client_request / handle_idempotent;
            // reaching here means a nested envelope slipped through.
            ClientRequest::Idempotent { .. } => {
                Err(DfsError::codec("nested Idempotent request envelope"))
            }
        }
    }

    /// Handles one datanode RPC.
    pub fn handle_datanode_request(&self, req: DatanodeRequest) -> DatanodeResponse {
        match req {
            DatanodeRequest::Register {
                host_name,
                rack,
                data_addr,
                capacity,
            } => {
                let id =
                    self.datanodes
                        .write()
                        .register(&host_name, &rack, &data_addr, capacity);
                DatanodeResponse::Registered { id }
            }
            DatanodeRequest::Heartbeat {
                id,
                used,
                active_transfers,
                telemetry,
            } => {
                // Heartbeats never touch a shard lock: metadata traffic
                // (or a wedged shard) cannot starve liveness tracking.
                if self
                    .datanodes
                    .write()
                    .heartbeat(id, used, active_transfers, telemetry)
                {
                    DatanodeResponse::HeartbeatAck
                } else {
                    DatanodeResponse::Error(format!("unknown or dead datanode {id}"))
                }
            }
            DatanodeRequest::BlockReceived { id, block } => {
                let shard_idx = match self.shard_of_block(block.id) {
                    Ok(s) => s,
                    Err(e) => return DatanodeResponse::Error(e.to_string()),
                };
                match self.shards[shard_idx].blocks.lock().block_received(id, block) {
                    Ok(()) => DatanodeResponse::BlockReceivedAck,
                    Err(e) => DatanodeResponse::Error(e.to_string()),
                }
            }
        }
    }

    /// `dfsadmin -report` equivalent: a snapshot of cluster health.
    pub fn cluster_report(&self) -> ClusterReport {
        let dns = self.datanodes.read();
        let nodes = dns
            .alive()
            .into_iter()
            .filter_map(|id| {
                // A node can expire between `alive()` and `info()` if
                // the sweeper races this snapshot; skip it rather than
                // panicking the caller.
                let info = dns.info(id)?;
                let (used, capacity) = dns.usage(id).unwrap_or((0, 0));
                Some(DatanodeReport {
                    id,
                    host_name: info.host_name,
                    rack: info.rack,
                    used_bytes: used,
                    capacity_bytes: capacity,
                })
            })
            .collect::<Vec<_>>();
        drop(dns);
        // Per-shard snapshots, one lock at a time: the report is a
        // consistent-enough health view without freezing the namenode.
        let mut blocks = 0;
        let mut files = 0;
        let mut safe_mode = false;
        for (idx, shard) in self.shards.iter().enumerate() {
            blocks += shard.blocks.lock().block_count();
            let ns = shard.namespace.lock();
            files += ns.inode_count();
            if idx == 0 {
                // Safe mode is toggled on every shard in lockstep;
                // shard 0 is the canonical read.
                safe_mode = ns.safe_mode();
            }
        }
        // Every shard carries its own root inode; the namespace has one.
        files -= self.shards.len() - 1;
        ClusterReport {
            blocks,
            files,
            safe_mode,
            live_datanodes: nodes,
        }
    }

    /// Moves a complete file from `src` to `dst`, across shards if the
    /// volumes hash apart. The destination is pre-flighted *before* the
    /// source file is detached (both shard locks held, ascending index
    /// order), so a rename either fully happens or leaves the namespace
    /// untouched — no stranded files.
    fn rename(&self, src: &str, dst: &str) -> DfsResult<ClientResponse> {
        let s = self.shard_of(src);
        let d = self.shard_of(dst);
        if s == d {
            let mut ns = self.shards[s].namespace.lock();
            ns.check_attach(dst)?;
            let detached = ns.detach_file(src)?;
            ns.attach_file(dst, detached)?;
            return Ok(ClientResponse::Renamed);
        }
        let lo = s.min(d);
        let hi = s.max(d);
        let ns_lo = self.shards[lo].namespace.lock();
        let ns_hi = self.shards[hi].namespace.lock();
        let (mut src_ns, mut dst_ns) = if s == lo { (ns_lo, ns_hi) } else { (ns_hi, ns_lo) };
        dst_ns.check_attach(dst)?;
        let detached = src_ns.detach_file(src)?;
        let moved_blocks: Vec<BlockId> = detached.blocks().iter().map(|b| b.id).collect();
        let file_id = dst_ns.attach_file(dst, detached)?;
        // Move the block records while still holding both namespaces so
        // no reader can observe the file without its blocks; blocks
        // locks nest inside namespace locks per the documented order.
        {
            let bl_lo = self.shards[lo].blocks.lock();
            let bl_hi = self.shards[hi].blocks.lock();
            let (mut src_bm, mut dst_bm) = if s == lo { (bl_lo, bl_hi) } else { (bl_hi, bl_lo) };
            for block in &moved_blocks {
                if let Some(moved) = src_bm.evict(*block) {
                    dst_bm.adopt(moved, file_id);
                }
            }
            self.file_shards.write().insert(file_id, d);
            let mut block_map = self.block_shards.write();
            for block in &moved_blocks {
                block_map.insert(*block, d);
            }
        }
        drop(src_ns);
        drop(dst_ns);
        Ok(ClientResponse::Renamed)
    }

    /// Starts one server thread. Running out of threads is an error for
    /// the caller, never a panic.
    fn spawn(
        &self,
        name: &'static str,
        f: impl FnOnce() + Send + 'static,
    ) -> DfsResult<JoinHandle<()>> {
        #[cfg(test)]
        if *self.refuse_spawn.lock() == Some(name) {
            return Err(DfsError::internal(format!("spawn {name}: refused by test")));
        }
        std::thread::Builder::new()
            .name(name.into())
            .spawn(f)
            .map_err(|e| DfsError::internal(format!("spawn {name}: {e}")))
    }

    // --- inspection helpers used by cluster tooling and tests ---

    pub fn alive_datanodes(&self) -> Vec<DatanodeId> {
        self.datanodes.read().alive()
    }

    pub fn replica_count(&self, block: BlockId) -> usize {
        match self.shard_of_block(block) {
            Ok(idx) => self.shards[idx].blocks.lock().replica_count(block),
            Err(_) => 0,
        }
    }

    pub fn has_speed_records(&self, client: ClientId) -> bool {
        self.speeds().has_records_for(client)
    }

    /// The effective (decayed) speed records currently held for `client`
    /// — what Algorithm 1 would consult right now.
    pub fn speed_records(&self, client: ClientId) -> Vec<(DatanodeId, f64)> {
        self.speeds().records_for(client)
    }

    pub fn decommission(&self, dn: DatanodeId) {
        self.datanodes.write().decommission(dn);
        for shard in &self.shards {
            shard.blocks.lock().forget_datanode(dn);
        }
        self.speeds.write().forget_datanode(dn);
    }

    pub fn set_safe_mode(&self, on: bool) {
        // Toggled on every shard so any shard's namespace enforces it;
        // `cluster_report` reads shard 0 as canonical.
        for shard in &self.shards {
            shard.namespace.lock().set_safe_mode(on);
        }
    }
}

/// A running namenode: state + server threads on the fabric.
pub struct NameNode {
    state: Arc<NameNodeState>,
    fabric: Fabric,
    host: String,
    stop: Arc<StopSignal>,
    threads: Vec<JoinHandle<()>>,
}

impl NameNode {
    pub const CLIENT_PORT: &'static str = "8020";
    pub const DATANODE_PORT: &'static str = "8021";

    /// Starts the namenode's listeners on `host` (which must already be a
    /// fabric host) and the expiry sweeper.
    pub fn start(fabric: &Fabric, host: &str, config: DfsConfig, seed: u64) -> DfsResult<Self> {
        Self::start_with_obs(fabric, host, config, seed, Obs::disabled())
    }

    /// [`Self::start`] with an observability handle for placement and
    /// speed-registry events.
    pub fn start_with_obs(
        fabric: &Fabric,
        host: &str,
        config: DfsConfig,
        seed: u64,
        obs: Obs,
    ) -> DfsResult<Self> {
        let state = NameNodeState::with_clock(config, seed, obs, Clock::wall());
        Self::serve(fabric, host, Arc::new(state))
    }

    /// Serves `state` on `host`. A thread that cannot be started stops
    /// the ones already running and fails the start.
    fn serve(fabric: &Fabric, host: &str, state: Arc<NameNodeState>) -> DfsResult<Self> {
        let client_listener = fabric.listen(&format!("{host}:{}", Self::CLIENT_PORT))?;
        let dn_listener = fabric.listen(&format!("{host}:{}", Self::DATANODE_PORT))?;
        let mut node = Self {
            state: Arc::clone(&state),
            fabric: fabric.clone(),
            host: host.to_string(),
            stop: Arc::new(StopSignal::new()),
            threads: Vec::new(),
        };
        let stop = &node.stop;
        let interval = Duration::from_secs_f64(state.config.heartbeat_interval.as_secs_f64())
            .max(Duration::from_millis(10));
        let sweeper = {
            let (state, stop) = (Arc::clone(&state), Arc::clone(stop));
            move || {
                while !stop.wait_timeout(interval) {
                    state.sampler.sample_at(state.clock.now_us());
                    state.expire_dead_datanodes();
                }
            }
        };
        let started = [
            spawn_accept_loop(
                "nn-client-accept",
                client_listener,
                &state,
                stop,
                |state, req| state.handle_client_request(req),
                ClientResponse::Error,
            ),
            spawn_accept_loop(
                "nn-datanode-accept",
                dn_listener,
                &state,
                stop,
                |state, req| state.handle_datanode_request(req),
                DatanodeResponse::Error,
            ),
            state.spawn("nn-expiry", sweeper),
        ];
        let mut failed = None;
        for thread in started {
            match thread {
                Ok(t) => node.threads.push(t),
                Err(e) => failed = failed.or(Some(e)),
            }
        }
        match failed {
            None => Ok(node),
            Some(e) => {
                node.shutdown();
                Err(e)
            }
        }
    }

    pub fn state(&self) -> &Arc<NameNodeState> {
        &self.state
    }

    pub fn client_addr(&self) -> String {
        format!("{}:{}", self.host, Self::CLIENT_PORT)
    }

    pub fn datanode_addr(&self) -> String {
        format!("{}:{}", self.host, Self::DATANODE_PORT)
    }

    /// Tells the server threads to stop, without waiting for them: the
    /// sweeper's wait ends at once and both listeners close.
    pub fn stop(&self) {
        self.stop.stop();
        self.fabric.close_listener(&self.client_addr());
        self.fabric.close_listener(&self.datanode_addr());
    }

    /// Signals all server threads to stop and joins them. Connection
    /// handlers blocked on a silent peer are released by shutting the
    /// fabric down — the cluster orchestrator does both.
    pub fn shutdown(mut self) {
        self.stop();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

use smarth_core::error::panic_message;

fn spawn_accept_loop<Req, Resp, F>(
    name: &'static str,
    listener: Listener,
    state: &Arc<NameNodeState>,
    stop: &Arc<StopSignal>,
    handler: F,
    on_panic: fn(String) -> Resp,
) -> DfsResult<JoinHandle<()>>
where
    Req: smarth_core::wire::Wire + Send + 'static,
    Resp: smarth_core::wire::Wire + Send + 'static,
    F: Fn(&NameNodeState, Req) -> Resp + Send + Sync + Copy + 'static,
{
    let (state, stop) = (Arc::clone(state), Arc::clone(stop));
    let accepting = Arc::clone(&state);
    accepting.spawn(name, move || {
        // `NameNode::stop` closes the listener, which ends the
        // blocking accept (so does a fabric shutdown).
        while let Ok(stream) = listener.accept() {
            if stop.is_stopped() {
                break;
            }
            let conn_state = Arc::clone(&state);
            let conn_stop = Arc::clone(&stop);
            // The loop keeps the stream until the spawn is decided, so a
            // refused connection is counted before its peer sees it close.
            let held = Arc::new(Mutex::new(Some(stream)));
            let conn = Arc::clone(&held);
            let serve = move || {
                let Some(mut stream) = conn.lock().take() else {
                    return;
                };
                while !conn_stop.is_stopped() {
                    let req: Req = match recv_message(&mut stream) {
                        Ok(r) => r,
                        Err(_) => break, // peer closed
                    };
                    // A buggy handler must cost one error response,
                    // not the whole connection with zero diagnostics.
                    let resp = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        handler(&conn_state, req)
                    })) {
                        Ok(resp) => resp,
                        Err(payload) => {
                            conn_state.obs.metrics().handler_panics.inc();
                            on_panic(format!(
                                "internal error: handler panicked: {}",
                                panic_message(payload)
                            ))
                        }
                    };
                    if send_message(&mut stream, &resp).is_err() {
                        break;
                    }
                }
            };
            // Out of threads: this connection is dropped (its peer sees
            // it close and retries) and the loop keeps accepting.
            if state.spawn("nn-conn", serve).is_err() {
                state.obs.metrics().connections_dropped.inc();
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarth_core::proto::SpeedRecord;

    fn state_with_datanodes(n: u32) -> (NameNodeState, Vec<DatanodeId>) {
        let st = NameNodeState::new(DfsConfig::test_scale(), 7);
        let ids = register_datanodes(&st, n);
        (st, ids)
    }

    fn register_datanodes(st: &NameNodeState, n: u32) -> Vec<DatanodeId> {
        (0..n)
            .map(|i| {
                let rack = if i < n.div_ceil(2) { "rack-a" } else { "rack-b" };
                match st.handle_datanode_request(DatanodeRequest::Register {
                    host_name: format!("dn{i}"),
                    rack: rack.into(),
                    data_addr: format!("dn{i}:50010"),
                    capacity: 1 << 30,
                }) {
                    DatanodeResponse::Registered { id } => id,
                    other => panic!("unexpected {other:?}"),
                }
            })
            .collect()
    }

    fn register_client(st: &NameNodeState) -> ClientId {
        match st.handle_client_request(ClientRequest::Register {
            host_name: "client".into(),
            rack: "rack-a".into(),
        }) {
            ClientResponse::Registered { client } => client,
            other => panic!("unexpected {other:?}"),
        }
    }

    fn create(st: &NameNodeState, client: ClientId, path: &str, mode: WriteMode) -> FileId {
        match st.handle_client_request(ClientRequest::Create {
            client,
            path: path.into(),
            replication: 3,
            block_size: 1 << 20,
            overwrite: false,
            mode,
        }) {
            ClientResponse::Created { file_id } => file_id,
            other => panic!("unexpected {other:?}"),
        }
    }

    /// `AddBlock` with nothing to commit and nothing excluded.
    fn add_block(st: &NameNodeState, client: ClientId, file_id: FileId) -> LocatedBlock {
        match st.handle_client_request(ClientRequest::AddBlock {
            client,
            file_id,
            previous: None,
            excluded: vec![],
        }) {
            ClientResponse::BlockAllocated(lb) => lb,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn full_write_rpc_sequence() {
        let (st, _dns) = state_with_datanodes(9);
        let client = register_client(&st);
        let file = create(&st, client, "/a/b.bin", WriteMode::Hdfs);

        let lb = add_block(&st, client, file);
        assert_eq!(lb.targets.len(), 3);
        let done = ExtendedBlock::new(lb.block.id, lb.block.gen, 999);

        // blockReceived from each target.
        for t in &lb.targets {
            assert_eq!(
                st.handle_datanode_request(DatanodeRequest::BlockReceived {
                    id: t.id,
                    block: done,
                }),
                DatanodeResponse::BlockReceivedAck
            );
        }
        assert_eq!(st.replica_count(lb.block.id), 3);

        // Second block commits the first.
        let lb2 = match st.handle_client_request(ClientRequest::AddBlock {
            client,
            file_id: file,
            previous: Some(done),
            excluded: vec![],
        }) {
            ClientResponse::BlockAllocated(lb) => lb,
            other => panic!("unexpected {other:?}"),
        };
        let done2 = ExtendedBlock::new(lb2.block.id, lb2.block.gen, 500);
        assert_eq!(
            st.handle_client_request(ClientRequest::Complete {
                client,
                file_id: file,
                last: Some(done2),
            }),
            ClientResponse::Completed
        );
        match st.handle_client_request(ClientRequest::GetFileInfo { path: "/a/b.bin".into() }) {
            ClientResponse::FileInfo(Some(info)) => {
                assert!(info.complete);
                assert_eq!(info.len, 1499);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Locations include the confirmed replicas of block 1.
        match st.handle_client_request(ClientRequest::GetBlockLocations {
            client,
            path: "/a/b.bin".into(),
        }) {
            ClientResponse::BlockLocations { blocks, .. } => {
                assert_eq!(blocks.len(), 2);
                assert_eq!(blocks[0].targets.len(), 3);
                assert!(blocks[1].targets.is_empty(), "no blockReceived for block 2");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// One reply, one view: the status a reader opens with describes the
    /// blocks that came with it, at every stage of a file's life.
    #[test]
    fn block_locations_status_len_is_the_sum_of_its_blocks() {
        let (st, _dns) = state_with_datanodes(9);
        let client = register_client(&st);
        let open = |path: &str| match st.handle_client_request(ClientRequest::GetBlockLocations {
            client,
            path: path.into(),
        }) {
            ClientResponse::BlockLocations { status, blocks } => {
                assert_eq!(status.len, blocks.iter().map(|b| b.block.len).sum::<u64>(), "{path}");
                assert!(!status.is_dir);
                (status, blocks.len())
            }
            other => panic!("unexpected {other:?}"),
        };
        // Under construction: one committed block, one still open.
        let file = create(&st, client, "/v/f.bin", WriteMode::Smarth);
        let first = add_block(&st, client, file);
        let done = ExtendedBlock::new(first.block.id, first.block.gen, 700);
        let commit = ClientRequest::AddBlock { client, file_id: file, previous: Some(done), excluded: vec![] };
        let ClientResponse::BlockAllocated(second) = st.handle_client_request(commit) else {
            panic!("second block refused")
        };
        let (status, blocks) = open("/v/f.bin");
        assert_eq!((status.file_id, status.len, status.complete, blocks), (file, 700, false, 2));
        // Complete.
        let last = Some(ExtendedBlock::new(second.block.id, second.block.gen, 41));
        st.handle_client_request(ClientRequest::Complete { client, file_id: file, last });
        let (status, _) = open("/v/f.bin");
        assert_eq!((status.len, status.complete), (741, true));
        // Empty.
        let empty = create(&st, client, "/v/empty.bin", WriteMode::Hdfs);
        st.handle_client_request(ClientRequest::Complete { client, file_id: empty, last: None });
        let (status, blocks) = open("/v/empty.bin");
        assert_eq!((status.file_id, status.len, status.complete, blocks), (empty, 0, true, 0));
        // What is not a file is an error the client can type.
        for (path, says) in [("/v", "is a directory"), ("/v/ghost", "not found")] {
            let req = ClientRequest::GetBlockLocations { client, path: path.into() };
            assert!(matches!(st.handle_client_request(req), ClientResponse::Error(m) if m.contains(says)));
        }
    }

    #[test]
    fn smarth_placement_uses_reported_speeds() {
        let (st, dns) = state_with_datanodes(9);
        let client = register_client(&st);
        let file = create(&st, client, "/s.bin", WriteMode::Smarth);

        // Report dn8 as blazing fast, everyone else slow.
        let records: Vec<SpeedRecord> = dns
            .iter()
            .enumerate()
            .map(|(i, id)| SpeedRecord {
                datanode: *id,
                bytes_per_sec: if i == 8 { 1e9 } else { 1e3 + i as f64 },
                samples: 1,
            })
            .collect();
        assert_eq!(
            st.handle_client_request(ClientRequest::ReportSpeeds { client, records }),
            ClientResponse::SpeedsAck
        );
        assert!(st.has_speed_records(client));

        // n = 9/3 = 3 → top-3 = {dn8, dn7?, ...}: dn8 has 1e9, others
        // 1e3.. so top-3 = dn8, dn7(1010), dn6(1009)... wait speeds are
        // 1e3+i → top besides dn8 are dn7, dn6. First target must be one
        // of those three; over many draws dn8 must appear.
        let mut firsts = std::collections::BTreeSet::new();
        for _ in 0..60 {
            let lb = add_block(&st, client, file);
            firsts.insert(lb.targets[0].id);
        }
        for f in &firsts {
            assert!(
                [dns[8], dns[7], dns[6]].contains(f),
                "first target {f} outside top-3"
            );
        }
        assert!(firsts.contains(&dns[8]));
    }

    #[test]
    fn every_allocation_mints_a_fresh_trace() {
        let (st, _dns) = state_with_datanodes(6);
        let client = register_client(&st);
        let file = create(&st, client, "/t.bin", WriteMode::Smarth);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..5 {
            let lb = add_block(&st, client, file);
            let ctx = lb.trace_ctx().expect("allocations are always traced");
            assert!(seen.insert(ctx.trace), "trace ids must be unique");
        }
        // The read path hands out untraced located blocks.
        match st.handle_client_request(ClientRequest::GetBlockLocations {
            client,
            path: "/t.bin".into(),
        }) {
            ClientResponse::BlockLocations { blocks, .. } => {
                assert!(blocks.iter().all(|b| b.trace_ctx().is_none()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn add_block_fails_when_all_nodes_excluded() {
        let (st, dns) = state_with_datanodes(6);
        let client = register_client(&st);
        let file = create(&st, client, "/x.bin", WriteMode::Hdfs);
        let resp = st.handle_client_request(ClientRequest::AddBlock {
            client,
            file_id: file,
            previous: None,
            excluded: dns.clone(),
        });
        assert!(matches!(resp, ClientResponse::Error(_)), "got {resp:?}");
    }

    #[test]
    fn additional_datanodes_for_recovery() {
        let (st, dns) = state_with_datanodes(5);
        let client = register_client(&st);
        let file = create(&st, client, "/r.bin", WriteMode::Hdfs);
        let lb = add_block(&st, client, file);
        let existing: Vec<DatanodeId> = lb.targets.iter().map(|t| t.id).collect();
        match st.handle_client_request(ClientRequest::GetAdditionalDatanodes {
            client,
            block: lb.block.id,
            existing: existing.clone(),
            wanted: 1,
        }) {
            ClientResponse::AdditionalDatanodes { targets } => {
                assert_eq!(targets.len(), 1);
                assert!(!existing.contains(&targets[0].id));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Recovery stamp bump.
        match st.handle_client_request(ClientRequest::BeginBlockRecovery {
            client,
            block: lb.block.id,
        }) {
            ClientResponse::RecoveryStamp { new_gen } => {
                assert_eq!(new_gen, lb.block.gen.next());
            }
            other => panic!("unexpected {other:?}"),
        }
        let _ = dns;
    }

    #[test]
    fn decommission_excludes_node_from_placement() {
        let (st, dns) = state_with_datanodes(4);
        let client = register_client(&st);
        let file = create(&st, client, "/d.bin", WriteMode::Hdfs);
        st.decommission(dns[0]);
        assert_eq!(st.alive_datanodes().len(), 3);
        for _ in 0..30 {
            let lb = add_block(&st, client, file);
            assert!(lb.targets.iter().all(|t| t.id != dns[0]));
        }
    }

    #[test]
    fn delete_retires_blocks() {
        let (st, _) = state_with_datanodes(3);
        let client = register_client(&st);
        let file = create(&st, client, "/del.bin", WriteMode::Hdfs);
        let lb = add_block(&st, client, file);
        assert_eq!(
            st.handle_client_request(ClientRequest::Delete { path: "/del.bin".into() }),
            ClientResponse::Deleted { existed: true }
        );
        assert_eq!(
            st.handle_client_request(ClientRequest::Delete { path: "/del.bin".into() }),
            ClientResponse::Deleted { existed: false }
        );
        // blockReceived for a retired block errors.
        let resp = st.handle_datanode_request(DatanodeRequest::BlockReceived {
            id: DatanodeId(0),
            block: lb.block,
        });
        assert!(matches!(resp, DatanodeResponse::Error(_)));
    }

    #[test]
    fn cluster_report_snapshot() {
        let (st, dns) = state_with_datanodes(4);
        let client = register_client(&st);
        let file = create(&st, client, "/rep.bin", WriteMode::Hdfs);
        let lb = add_block(&st, client, file);
        // A heartbeat reports usage for the first target.
        st.handle_datanode_request(DatanodeRequest::Heartbeat {
            id: lb.targets[0].id,
            used: 12345,
            active_transfers: 1,
            telemetry: smarth_core::proto::DatanodeTelemetry::default(),
        });
        let report = st.cluster_report();
        assert_eq!(report.live_datanodes.len(), 4);
        assert_eq!(report.blocks, 1);
        assert!(!report.safe_mode);
        assert_eq!(report.total_used(), 12345);
        // Decommission drops a node from the report.
        st.decommission(dns[0]);
        assert_eq!(st.cluster_report().live_datanodes.len(), 3);
        // Safe mode is reflected.
        st.set_safe_mode(true);
        assert!(st.cluster_report().safe_mode);
    }

    #[test]
    fn get_telemetry_serves_rows_exposition_and_series() {
        let (st, _dns) = state_with_datanodes(3);
        st.sampler().sample_at(1);
        match st.handle_client_request(ClientRequest::GetTelemetry) {
            ClientResponse::Telemetry {
                rows,
                text,
                series_json,
            } => {
                assert_eq!(rows.len(), 3);
                assert!(rows.iter().all(|r| r.alive));
                assert!(text.contains("# TYPE smarth_bytes_written counter"));
                let v = smarth_core::json::parse(&series_json).expect("series parses");
                assert!(v.as_array().is_some_and(|a| !a.is_empty()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors_are_responses_not_panics() {
        let (st, _) = state_with_datanodes(3);
        // Unregistered client id in create: file creation still works
        // (lease is per-id), but AddBlock on a bogus file errors.
        let resp = st.handle_client_request(ClientRequest::AddBlock {
            client: ClientId(999),
            file_id: smarth_core::ids::FileId(424242),
            previous: None,
            excluded: vec![],
        });
        assert!(matches!(resp, ClientResponse::Error(_)));
        let resp = st.handle_client_request(ClientRequest::GetBlockLocations {
            client: ClientId(999),
            path: "/nope".into(),
        });
        assert!(matches!(resp, ClientResponse::Error(_)));
        // Reporting a bad replica of an unknown block is an error too.
        let resp = st.handle_client_request(ClientRequest::ReportBadReplica {
            client: ClientId(999),
            block: ExtendedBlock::new(smarth_core::ids::BlockId(424242), smarth_core::ids::GenStamp(1), 0),
            datanode: DatanodeId(0),
        });
        assert!(matches!(resp, ClientResponse::Error(_)));
    }

    #[test]
    fn idempotent_retry_replays_cached_response() {
        let (st, _dns) = state_with_datanodes(9);
        let client = register_client(&st);
        let file = create(&st, client, "/idem.bin", WriteMode::Smarth);
        let wrap = |request_id: u64| ClientRequest::Idempotent {
            client,
            request_id,
            inner: Box::new(ClientRequest::AddBlock {
                client,
                file_id: file,
                previous: None,
                excluded: vec![],
            }),
        };

        let first = st.handle_client_request(wrap(1));
        let retry = st.handle_client_request(wrap(1));
        assert_eq!(first, retry, "retry must replay, not re-allocate");
        let lb = match first {
            ClientResponse::BlockAllocated(lb) => lb,
            other => panic!("unexpected {other:?}"),
        };

        // A different request id is a genuinely new mutation.
        let second = st.handle_client_request(wrap(2));
        match second {
            ClientResponse::BlockAllocated(lb2) => {
                assert_ne!(lb2.block.id, lb.block.id);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn idempotent_retry_cannot_double_commit() {
        let (st, _dns) = state_with_datanodes(9);
        let client = register_client(&st);
        let file = create(&st, client, "/commit.bin", WriteMode::Smarth);
        let lb = add_block(&st, client, file);
        let done = ExtendedBlock::new(lb.block.id, lb.block.gen, 777);
        // addBlock(previous=done) piggybacks the commit; a retried copy
        // must not allocate a second new block.
        let wrapped = ClientRequest::Idempotent {
            client,
            request_id: 42,
            inner: Box::new(ClientRequest::AddBlock {
                client,
                file_id: file,
                previous: Some(done),
                excluded: vec![],
            }),
        };
        let a = st.handle_client_request(wrapped.clone());
        let b = st.handle_client_request(wrapped);
        assert_eq!(a, b);
        // Exactly two blocks exist: the first and the one allocation.
        assert_eq!(st.cluster_report().blocks, 2);
    }

    fn create_with_block(path: &str, client: ClientId, overwrite: bool) -> ClientRequest {
        ClientRequest::CreateWithBlock {
            client,
            path: path.into(),
            replication: 3,
            block_size: 1 << 20,
            overwrite,
            mode: WriteMode::Smarth,
        }
    }

    #[test]
    fn create_with_block_is_create_then_add_block() {
        // Two namenodes with the same seed and the same datanodes: the
        // folded request on one, the two it replaces on the other.
        let (folded, _) = state_with_datanodes(9);
        let (apart, _) = state_with_datanodes(9);
        let client = register_client(&folded);
        assert_eq!(register_client(&apart), client);

        let file = create(&apart, client, "/fold/a.bin", WriteMode::Smarth);
        let lb = add_block(&apart, client, file);
        assert!(lb.trace_ctx().is_some());
        // File id, block id, targets, trace and span: all of it.
        assert_eq!(
            folded.handle_client_request(create_with_block("/fold/a.bin", client, false)),
            ClientResponse::CreatedWithBlock { file_id: file, first: Some(lb) }
        );
        assert_eq!(folded.cluster_report().blocks, 1);
    }

    #[test]
    fn retried_create_with_block_is_replayed_and_an_existing_path_allocates_nothing() {
        let (st, _dns) = state_with_datanodes(9);
        let client = register_client(&st);
        let wrapped = |request_id| ClientRequest::Idempotent {
            client,
            request_id,
            inner: Box::new(create_with_block("/fold/once.bin", client, false)),
        };
        let first = st.handle_client_request(wrapped(1));
        assert!(
            matches!(first, ClientResponse::CreatedWithBlock { first: Some(_), .. }),
            "{first:?}"
        );
        let after_first = st.cluster_report();
        assert_eq!(st.handle_client_request(wrapped(1)), first);
        // A new request for the same path is refused before any placement.
        match st.handle_client_request(wrapped(2)) {
            ClientResponse::Error(msg) => assert!(msg.contains("already exists"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
        let report = st.cluster_report();
        assert_eq!((report.files, report.blocks), (after_first.files, 1));
    }

    #[test]
    fn create_with_block_without_datanodes_leaves_the_block_to_add_block() {
        let (st, _) = state_with_datanodes(0);
        let client = register_client(&st);
        let file_id = match st.handle_client_request(create_with_block("/fold/early.bin", client, false)) {
            ClientResponse::CreatedWithBlock { file_id, first: None } => file_id,
            other => panic!("unexpected {other:?}"),
        };
        match st.handle_client_request(ClientRequest::GetFileInfo { path: "/fold/early.bin".into() }) {
            ClientResponse::FileInfo(Some(info)) => assert_eq!((info.file_id, info.len), (file_id, 0)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(st.cluster_report().blocks, 0);
        register_datanodes(&st, 3);
        assert_eq!(add_block(&st, client, file_id).targets.len(), 3);
    }

    #[test]
    fn overwrite_retires_the_file_it_replaces() {
        let (st, _dns) = state_with_datanodes(3);
        let client = register_client(&st);
        let old_block = write_file(&st, client, "/ow/x.bin");
        let old_file = match st.handle_client_request(ClientRequest::GetFileInfo { path: "/ow/x.bin".into() }) {
            ClientResponse::FileInfo(Some(info)) => info.file_id,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(st.replica_count(old_block.id), 3);

        let resp = st.handle_client_request(create_with_block("/ow/x.bin", client, true));
        let ClientResponse::CreatedWithBlock { file_id, first: Some(lb) } = resp else {
            panic!("unexpected {resp:?}");
        };
        // As after `Delete`: no replicas, no block record, no routes.
        assert_eq!(st.replica_count(old_block.id), 0);
        assert_eq!(st.cluster_report().blocks, 1);
        assert!(!st.block_shards.read().contains_key(&old_block.id));
        assert!(!st.file_shards.read().contains_key(&old_file));
        assert!(st.block_shards.read().contains_key(&lb.block.id));
        assert!(st.file_shards.read().contains_key(&file_id));
    }

    #[test]
    fn idempotent_table_is_bounded() {
        let mut table = RecentRequests::default();
        for i in 0..(RECENT_REQUESTS_PER_CLIENT as u64 + 10) {
            table.remember(i, ClientResponse::Committed);
        }
        assert_eq!(table.responses.len(), RECENT_REQUESTS_PER_CLIENT);
        assert!(table.get(0).is_none(), "oldest entries evicted");
        assert!(table.get(RECENT_REQUESTS_PER_CLIENT as u64 + 9).is_some());
    }

    #[test]
    fn nested_idempotent_is_an_error() {
        let (st, _dns) = state_with_datanodes(3);
        let client = register_client(&st);
        let resp = st.handle_client_request(ClientRequest::Idempotent {
            client,
            request_id: 1,
            inner: Box::new(ClientRequest::Idempotent {
                client,
                request_id: 2,
                inner: Box::new(ClientRequest::GetTelemetry),
            }),
        });
        assert!(matches!(resp, ClientResponse::Error(_)));
    }

    #[test]
    fn block_locations_are_ordered_by_reported_speeds() {
        let (st, dns) = state_with_datanodes(3);
        let client = register_client(&st);
        let file = create(&st, client, "/ord.bin", WriteMode::Hdfs);
        let lb = add_block(&st, client, file);
        let done = ExtendedBlock::new(lb.block.id, lb.block.gen, 100);
        for t in &lb.targets {
            st.handle_datanode_request(DatanodeRequest::BlockReceived { id: t.id, block: done });
        }
        st.handle_client_request(ClientRequest::Complete {
            client,
            file_id: file,
            last: Some(done),
        });
        // dn2 fast, dn0 slow, dn1 unreported → expect [dn2, dn0, dn1].
        st.handle_client_request(ClientRequest::ReportSpeeds {
            client,
            records: vec![
                SpeedRecord { datanode: dns[0], bytes_per_sec: 1e3, samples: 1 },
                SpeedRecord { datanode: dns[2], bytes_per_sec: 1e9, samples: 1 },
            ],
        });
        let order = |st: &NameNodeState| -> Vec<DatanodeId> {
            match st.handle_client_request(ClientRequest::GetBlockLocations {
                client,
                path: "/ord.bin".into(),
            }) {
                ClientResponse::BlockLocations { blocks, .. } => {
                    blocks[0].targets.iter().map(|t| t.id).collect()
                }
                other => panic!("unexpected {other:?}"),
            }
        };
        assert_eq!(order(&st), vec![dns[2], dns[0], dns[1]]);

        // A bad-replica report drops the fast copy from locations and
        // counts toward re-replication accounting.
        assert_eq!(
            st.handle_client_request(ClientRequest::ReportBadReplica {
                client,
                block: done,
                datanode: dns[2],
            }),
            ClientResponse::BadReplicaAck
        );
        let after = order(&st);
        assert!(!after.contains(&dns[2]), "corrupt replica still served: {after:?}");
        assert_eq!(after.len(), 2);
        assert_eq!(st.replica_count(lb.block.id), 2);
    }

    /// Writes a complete single-block file and returns its last block.
    fn write_file(st: &NameNodeState, client: ClientId, path: &str) -> ExtendedBlock {
        let file = create(st, client, path, WriteMode::Hdfs);
        let lb = add_block(st, client, file);
        let done = ExtendedBlock::new(lb.block.id, lb.block.gen, 100);
        for t in &lb.targets {
            assert_eq!(
                st.handle_datanode_request(DatanodeRequest::BlockReceived {
                    id: t.id,
                    block: done,
                }),
                DatanodeResponse::BlockReceivedAck
            );
        }
        assert_eq!(
            st.handle_client_request(ClientRequest::Complete {
                client,
                file_id: file,
                last: Some(done),
            }),
            ClientResponse::Completed
        );
        done
    }

    /// First volume name (scanning from `start`) landing on a different
    /// (`want_same = false`) or the same (`true`) shard as `path`.
    fn volume_with_shard(st: &NameNodeState, path: &str, want_same: bool, start: u32) -> String {
        let target = st.shard_of(path);
        (start..)
            .map(|i| format!("/vol{i}"))
            .find(|v| (st.shard_of(v) == target) == want_same)
            .unwrap()
    }

    #[test]
    fn rename_moves_files_within_and_across_shards() {
        let (st, _dns) = state_with_datanodes(9);
        assert_eq!(st.shard_count(), DfsConfig::test_scale().namenode_shards);
        let client = register_client(&st);

        let src = "/vol0/a.bin";
        let done = write_file(&st, client, src);
        let same = format!("{}/same.bin", volume_with_shard(&st, src, true, 1));
        let cross = format!("{}/cross.bin", volume_with_shard(&st, src, false, 1));

        // Same-shard rename first, then a cross-shard hop.
        assert_eq!(
            st.handle_client_request(ClientRequest::Rename {
                src: src.into(),
                dst: same.clone(),
            }),
            ClientResponse::Renamed
        );
        assert_eq!(
            st.handle_client_request(ClientRequest::Rename {
                src: same.clone(),
                dst: cross.clone(),
            }),
            ClientResponse::Renamed
        );

        // The old paths are gone; the file (and its replicas) followed.
        for gone in [src.to_string(), same] {
            match st.handle_client_request(ClientRequest::GetFileInfo { path: gone }) {
                ClientResponse::FileInfo(None) => {}
                other => panic!("stale path still resolves: {other:?}"),
            }
        }
        match st.handle_client_request(ClientRequest::GetFileInfo { path: cross.clone() }) {
            ClientResponse::FileInfo(Some(info)) => {
                assert!(info.complete);
                assert_eq!(info.len, 100);
            }
            other => panic!("unexpected {other:?}"),
        }
        match st.handle_client_request(ClientRequest::GetBlockLocations {
            client,
            path: cross.clone(),
        }) {
            ClientResponse::BlockLocations { blocks, .. } => {
                assert_eq!(blocks.len(), 1);
                assert_eq!(blocks[0].block.id, done.id);
                assert_eq!(blocks[0].targets.len(), 3, "replicas lost in the move");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(st.replica_count(done.id), 3);

        // Deleting at the new home retires the moved block for real.
        assert_eq!(
            st.handle_client_request(ClientRequest::Delete { path: cross }),
            ClientResponse::Deleted { existed: true }
        );
        assert_eq!(st.replica_count(done.id), 0);
    }

    #[test]
    fn rename_refuses_open_files_and_occupied_destinations() {
        let (st, _dns) = state_with_datanodes(9);
        let client = register_client(&st);

        // Open (under-construction) files cannot move.
        create(&st, client, "/vol0/open.bin", WriteMode::Hdfs);
        match st.handle_client_request(ClientRequest::Rename {
            src: "/vol0/open.bin".into(),
            dst: "/vol1/moved.bin".into(),
        }) {
            ClientResponse::Error(_) => {}
            other => panic!("open file renamed: {other:?}"),
        }

        // An occupied destination refuses the move — and the refusal is
        // atomic: the source must still be intact afterwards.
        let done = write_file(&st, client, "/vol2/src.bin");
        write_file(&st, client, "/vol3/taken.bin");
        match st.handle_client_request(ClientRequest::Rename {
            src: "/vol2/src.bin".into(),
            dst: "/vol3/taken.bin".into(),
        }) {
            ClientResponse::Error(_) => {}
            other => panic!("rename onto existing file: {other:?}"),
        }
        match st.handle_client_request(ClientRequest::GetFileInfo {
            path: "/vol2/src.bin".into(),
        }) {
            ClientResponse::FileInfo(Some(info)) => assert!(info.complete),
            other => panic!("failed rename stranded the source: {other:?}"),
        }
        assert_eq!(st.replica_count(done.id), 3);

        // Renaming nothing is an error, not a panic.
        match st.handle_client_request(ClientRequest::Rename {
            src: "/vol4/missing.bin".into(),
            dst: "/vol5/x.bin".into(),
        }) {
            ClientResponse::Error(_) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    fn fabric_with_host(host: &str) -> Fabric {
        let fabric = Fabric::new(smarth_fabric::FabricConfig {
            latency: Duration::ZERO,
            socket_buffer: 64 * 1024,
            chunk_size: 8 * 1024,
        });
        fabric.add_host(host, "rack-a", smarth_core::units::Bandwidth::unlimited());
        fabric
    }

    /// A server thread that cannot start fails `start` with a typed
    /// error, and the threads and listeners it had started go with it:
    /// the same host serves again once threads are available.
    #[test]
    fn a_server_thread_that_cannot_start_fails_the_start() {
        let fabric = fabric_with_host("nn");
        for name in ["nn-client-accept", "nn-datanode-accept", "nn-expiry"] {
            let state = Arc::new(NameNodeState::new(DfsConfig::test_scale(), 7));
            *state.refuse_spawn.lock() = Some(name);
            match NameNode::serve(&fabric, "nn", Arc::clone(&state)) {
                Err(DfsError::Internal(msg)) => assert!(msg.contains(name), "{msg}"),
                Err(other) => panic!("{name}: untyped failure {other:?}"),
                Ok(_) => panic!("{name}: started without its thread"),
            }
            *state.refuse_spawn.lock() = None;
            NameNode::serve(&fabric, "nn", state)
                .expect("the host serves again")
                .shutdown();
        }
        fabric.shutdown();
    }

    /// A connection the namenode has no thread for is dropped and
    /// counted; the accept loop lives on and serves the next one.
    #[test]
    fn a_connection_without_a_thread_is_dropped_and_counted() {
        let fabric = fabric_with_host("nn");
        fabric.add_host(
            "client",
            "rack-a",
            smarth_core::units::Bandwidth::unlimited(),
        );
        let state = Arc::new(NameNodeState::new(DfsConfig::test_scale(), 7));
        let nn = NameNode::serve(&fabric, "nn", Arc::clone(&state)).unwrap();
        let ask = || -> DfsResult<ClientResponse> {
            let mut stream = fabric.connect("client", &nn.client_addr())?;
            send_message(
                &mut stream,
                &ClientRequest::GetFileInfo { path: "/x".into() },
            )?;
            recv_message(&mut stream)
        };
        *state.refuse_spawn.lock() = Some("nn-conn");
        assert!(ask().is_err(), "a dropped connection answers nothing");
        assert_eq!(state.obs.metrics().connections_dropped.get(), 1);
        *state.refuse_spawn.lock() = None;
        assert_eq!(ask().unwrap(), ClientResponse::FileInfo(None));
        assert_eq!(state.obs.metrics().connections_dropped.get(), 1);
        nn.shutdown();
        fabric.shutdown();
    }

    #[test]
    fn held_shard_stalls_only_its_own_volume() {
        let (st, dns) = state_with_datanodes(9);
        let client = register_client(&st);
        let pinned = "/vol0/pinned.bin";
        let elsewhere = format!("{}/free.bin", volume_with_shard(&st, pinned, false, 1));

        // With /vol0's shard lock held, other volumes' metadata ops and
        // the heartbeat/telemetry plane must all keep moving (this very
        // closure would deadlock if any of them touched vol0's shard).
        st.with_shard_locked(pinned, || {
            create(&st, client, &elsewhere, WriteMode::Hdfs);
            match st.handle_datanode_request(DatanodeRequest::Heartbeat {
                id: dns[0],
                used: 0,
                active_transfers: 0,
                telemetry: Default::default(),
            }) {
                DatanodeResponse::HeartbeatAck => {}
                other => panic!("heartbeat stalled by a held shard: {other:?}"),
            }
            assert!(!st.expire_dead_datanodes().contains(&dns[0]));
            match st.handle_client_request(ClientRequest::GetTelemetry) {
                ClientResponse::Telemetry { rows, .. } => assert_eq!(rows.len(), 9),
                other => panic!("unexpected {other:?}"),
            }
        });

        // Root listings visit the pinned shard, so they serialize with
        // it — but only after the hold is released.
        match st.handle_client_request(ClientRequest::List { path: "/".into() }) {
            ClientResponse::Listing { entries } => {
                assert!(entries.iter().any(|e| e.path.ends_with(volume_with_shard(
                    &st,
                    pinned,
                    false,
                    1
                )
                .trim_start_matches('/'))));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
