//! The datanode: data-transfer server, pipeline forwarding and the
//! namenode heartbeat loop.
//!
//! Every inbound `WriteBlock` connection runs four cooperating threads —
//! a staged pipeline, so network receive, downstream replication and
//! disk writes genuinely overlap (§IV-C's buffer actually decouples the
//! stages instead of sitting behind a serial loop):
//!
//! * the **receiver** (the connection's own thread) only drains the
//!   upstream socket: it reads each packet's frame, decodes it, verifies
//!   CRC-32C where `DfsConfig::verify_checksums_at` says this hop must
//!   (tail-only by default, like real HDFS), hands the frame to the
//!   forwarder *first* and then fans the packet into the bounded staging
//!   queue;
//! * the **flusher** drains the staging queue: pays the disk token
//!   bucket, appends to the [`BlockStore`], finalizes on the last packet,
//!   signals the responder and reports `blockReceived` to the namenode —
//!   before the signal at the pipeline head, after it everywhere else.
//!   The staging queue is sized from
//!   `DfsConfig::datanode_client_buffer` (§IV-C) and tracked by the
//!   `datanode_buffered_bytes` / `datanode_staging_packets` gauges, so
//!   a slow disk backpressures the socket only once the buffer is full;
//! * the **forwarder** relays frames to the next datanode through a
//!   bounded queue of `DfsConfig::forward_window` bytes (the client's
//!   buffer, one whole block, on the *first* node and a few packets
//!   elsewhere), tracked by the `datanode_forward_bytes` gauge;
//! * the **responder** merges the downstream ack stream with this node's
//!   own status and sends the combined ack upstream.
//!
//! A byte is copied once on its way through a node (§II step 3: the
//! datanode "stores the packet and passes it on"): out of the socket
//! into the frame. The decoded packet's payload is a slice of that
//! frame; the forwarder writes the same frame to the mirror as it is,
//! and the flusher hands the store that same slice. The receiver still
//! decodes and checks *before* it relays: a malformed frame, or with
//! `EveryHop` a corrupt one, stops here and never reaches the mirror.
//! Reads go out the same way — packets that are slices of the stored
//! segments, written by the copy-free [`send_packet`].
//!
//! Flush-stage errors (disk full, store failure mid-block) surface as
//! error acks from the flusher, so clients classify them exactly like
//! the old serial path did (`RecoveryCause::DatanodeError`); a stage
//! that cannot get a thread is answered the same way, and a connection
//! the accept loop cannot get a thread for is dropped — neither takes
//! the node down.
//!
//! In SMARTH mode the *first* node additionally emits the
//! FIRST_NODE_FINISH ack (FNFA) the moment the last packet of the block
//! is durably stored (§III-A), unblocking the client's next pipeline.

use crate::store::BlockStore;
use bytes::Bytes;
use crossbeam_channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::Mutex;
use smarth_core::checksum::ChunkedChecksum;
use smarth_core::config::{DfsConfig, VerifyChecksumsAt, WriteMode};
use smarth_core::error::{panic_message, DfsError, DfsResult};
use smarth_core::ids::{BlockId, DatanodeId};
use smarth_core::json::ToJson;
use smarth_core::obs::telemetry::{prometheus_exposition, Sampler};
use smarth_core::obs::{Obs, ObsEvent};
use smarth_core::proto::{
    AckKind, AckStatus, DataOp, DataReply, DatanodeRequest, DatanodeResponse, DatanodeTelemetry,
    Packet, PipelineAck, WriteBlockHeader,
};
use smarth_core::wire::{read_frame, recv_message, send_message, send_packet, write_frame, Wire};
use smarth_fabric::{Fabric, FabricStream, ReadHalf, StopSignal, TokenBucket, WriteHalf};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Persistent RPC connection to the namenode's datanode port.
///
/// Reconnects lazily after a transport failure: a namenode restart or a
/// healed partition must not leave every datanode permanently mute just
/// because its original stream died.
pub struct NnClient {
    fabric: Fabric,
    from_host: String,
    nn_addr: String,
    stream: Mutex<Option<FabricStream>>,
}

impl NnClient {
    pub fn connect(fabric: &Fabric, from_host: &str, nn_addr: &str) -> DfsResult<Self> {
        // Eager first connect so setup errors (bad address, dead
        // namenode at boot) surface at construction.
        let stream = fabric.connect(from_host, nn_addr)?;
        Ok(Self {
            fabric: fabric.clone(),
            from_host: from_host.to_string(),
            nn_addr: nn_addr.to_string(),
            stream: Mutex::new(Some(stream)),
        })
    }

    pub fn call(&self, req: &DatanodeRequest) -> DfsResult<DatanodeResponse> {
        let mut slot = self.stream.lock();
        if slot.is_none() {
            *slot = Some(self.fabric.connect(&self.from_host, &self.nn_addr)?);
        }
        let s = slot.as_mut().expect("stream populated above");
        let result: DfsResult<DatanodeResponse> =
            send_message(&mut *s, req).and_then(|()| recv_message(&mut *s));
        if result.is_err() {
            // The stream may hold half-written or stale bytes; drop it so
            // the next call starts from a clean connection.
            *slot = None;
        }
        result
    }
}

/// This node's own live buffer levels. The corresponding gauges in
/// `Metrics` are shared across every datanode wired to one `Obs` (a
/// `MiniCluster` aggregates them), so heartbeat piggybacks and the
/// per-node telemetry scrape read these node-local atomics instead.
#[derive(Default)]
struct DnLocalStats {
    staging_packets: AtomicU64,
    buffered_bytes: AtomicU64,
    forward_bytes: AtomicU64,
}

impl DnLocalStats {
    fn add(cell: &AtomicU64, n: u64) {
        cell.fetch_add(n, Ordering::Relaxed);
    }

    fn sub(cell: &AtomicU64, n: u64) {
        // Saturating, like `Gauge::sub`: a spurious extra dec must not
        // wrap the piggybacked level to u64::MAX.
        let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(n))
        });
    }

    fn snapshot(&self) -> DatanodeTelemetry {
        DatanodeTelemetry {
            staging_packets: self.staging_packets.load(Ordering::Relaxed),
            buffered_bytes: self.buffered_bytes.load(Ordering::Relaxed),
            forward_bytes: self.forward_bytes.load(Ordering::Relaxed),
        }
    }
}

struct DnInner {
    id: DatanodeId,
    host: String,
    config: DfsConfig,
    fabric: Fabric,
    store: BlockStore,
    /// Disk write bandwidth model: every stored byte pays this bucket,
    /// so concurrent pipelines on one datanode contend for the disk.
    disk: TokenBucket,
    nn: NnClient,
    active_transfers: AtomicU32,
    checksum: ChunkedChecksum,
    /// Fault injection: blocks whose read payloads are flipped *after*
    /// checksum computation — a modelled bit rot / in-flight corruption
    /// that the client-side verify must catch.
    read_corruption: Mutex<HashSet<BlockId>>,
    obs: Obs,
    local: DnLocalStats,
    /// Ticked by the heartbeat loop; serves `DataOp::GetTelemetry`.
    sampler: Arc<Sampler>,
    /// Fault injection: the thread name [`DnInner::spawn`] refuses.
    #[cfg(test)]
    refuse_spawn: Mutex<Option<&'static str>>,
}

impl DnInner {
    /// Starts one thread of the serving path. Running out of threads is
    /// an error the caller answers on the wire, never a panic: the node
    /// keeps serving what it can.
    fn spawn<T: Send + 'static>(
        &self,
        name: &'static str,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> DfsResult<JoinHandle<T>> {
        #[cfg(test)]
        if *self.refuse_spawn.lock() == Some(name) {
            return Err(DfsError::internal(format!("spawn {name}: refused by test")));
        }
        std::thread::Builder::new()
            .name(name.into())
            .spawn(f)
            .map_err(|e| DfsError::internal(format!("spawn {name}: {e}")))
    }

    fn notify_block_received(&self, block: smarth_core::ids::ExtendedBlock) {
        // Best effort: if the namenode is unreachable the replica is
        // still durable; the next block report would reconcile (and in
        // tests the namenode outliving datanodes makes this reliable).
        // Off the ack path nobody waits for the answer, so a lost report
        // is counted.
        let reply = self.nn.call(&DatanodeRequest::BlockReceived {
            id: self.id,
            block,
        });
        if !matches!(reply, Ok(DatanodeResponse::BlockReceivedAck)) {
            self.obs.metrics().block_report_failures.inc();
        }
    }
}

/// A running datanode.
pub struct DataNode {
    inner: Arc<DnInner>,
    stop: Arc<StopSignal>,
    threads: Vec<JoinHandle<()>>,
}

impl DataNode {
    pub const DATA_PORT: &'static str = "50010";

    pub fn data_addr_of(host: &str) -> String {
        format!("{host}:{}", Self::DATA_PORT)
    }

    /// Registers with the namenode and starts the data server plus the
    /// heartbeat loop. `host` must already exist on the fabric.
    pub fn start(
        fabric: &Fabric,
        host: &str,
        rack: &str,
        nn_datanode_addr: &str,
        config: DfsConfig,
    ) -> DfsResult<Self> {
        Self::start_with_obs(fabric, host, rack, nn_datanode_addr, config, Obs::disabled())
    }

    /// [`Self::start`] with an observability handle for FNFA, replica and
    /// buffer-accounting events.
    pub fn start_with_obs(
        fabric: &Fabric,
        host: &str,
        rack: &str,
        nn_datanode_addr: &str,
        config: DfsConfig,
        obs: Obs,
    ) -> DfsResult<Self> {
        let nn = NnClient::connect(fabric, host, nn_datanode_addr)?;
        let data_addr = Self::data_addr_of(host);
        let id = match nn.call(&DatanodeRequest::Register {
            host_name: host.to_string(),
            rack: rack.to_string(),
            data_addr: data_addr.clone(),
            capacity: 1 << 40,
        })? {
            DatanodeResponse::Registered { id } => id,
            other => {
                return Err(DfsError::internal(format!(
                    "unexpected register response {other:?}"
                )))
            }
        };

        let listener = fabric.listen(&data_addr)?;
        let sampler = Sampler::new(obs.metrics().clone(), 1024);
        let inner = Arc::new(DnInner {
            id,
            host: host.to_string(),
            checksum: ChunkedChecksum::new(config.bytes_per_checksum),
            disk: TokenBucket::new(config.disk_bandwidth),
            config,
            fabric: fabric.clone(),
            store: BlockStore::new(),
            nn,
            active_transfers: AtomicU32::new(0),
            read_corruption: Mutex::new(HashSet::new()),
            obs,
            local: DnLocalStats::default(),
            sampler,
            #[cfg(test)]
            refuse_spawn: Mutex::new(None),
        });
        let stop = Arc::new(StopSignal::new());
        let mut threads = Vec::new();

        // Accept loop. `stop()` closes the listener, which ends the
        // blocking accept (so does a host kill or a fabric shutdown).
        {
            let inner = Arc::clone(&inner);
            let stop = Arc::clone(&stop);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("dn-{host}-accept"))
                    .spawn(move || {
                        while let Ok(stream) = listener.accept() {
                            if stop.is_stopped() {
                                break;
                            }
                            // Out of threads: this connection is dropped
                            // (its peer sees it close and fails over or
                            // recovers) and the loop keeps accepting.
                            let conn = Arc::clone(&inner);
                            let _ = inner.spawn("dn-xceiver", move || {
                                handle_connection(conn, stream)
                            });
                        }
                    })
                    .expect("spawn dn accept"),
            );
        }

        // Heartbeat loop.
        {
            let inner = Arc::clone(&inner);
            let stop = Arc::clone(&stop);
            let interval = Duration::from_secs_f64(
                inner.config.heartbeat_interval.as_secs_f64(),
            )
            .max(Duration::from_millis(5));
            threads.push(
                std::thread::Builder::new()
                    .name(format!("dn-{host}-heartbeat"))
                    .spawn(move || {
                        let mut failure_streak = 0u32;
                        loop {
                            let mut pause = interval;
                            if failure_streak > 0 {
                                // Bounded exponential backoff: a namenode
                                // outage must not turn every datanode
                                // into a hot retry loop — and must not
                                // silence the heartbeat forever either
                                // (the old loop broke on first error, so
                                // a healed namenode saw a ghost node).
                                pause += interval
                                    .saturating_mul(1 << failure_streak.min(3))
                                    .min(Duration::from_secs(2));
                            }
                            if stop.wait_timeout(pause) {
                                break;
                            }
                            inner.sampler.sample_at(Obs::now_us());
                            let req = DatanodeRequest::Heartbeat {
                                id: inner.id,
                                used: inner.store.used_bytes(),
                                active_transfers: inner.active_transfers.load(Ordering::Relaxed),
                                telemetry: inner.local.snapshot(),
                            };
                            if inner.nn.call(&req).is_err() {
                                failure_streak = failure_streak.saturating_add(1);
                                inner.obs.metrics().heartbeat_failures.inc();
                            } else {
                                failure_streak = 0;
                            }
                        }
                    })
                    .expect("spawn dn heartbeat"),
            );
        }

        Ok(Self {
            inner,
            stop,
            threads,
        })
    }

    pub fn id(&self) -> DatanodeId {
        self.inner.id
    }

    pub fn host(&self) -> &str {
        &self.inner.host
    }

    pub fn data_addr(&self) -> String {
        Self::data_addr_of(&self.inner.host)
    }

    pub fn store(&self) -> &BlockStore {
        &self.inner.store
    }

    pub fn active_transfers(&self) -> u32 {
        self.inner.active_transfers.load(Ordering::Relaxed)
    }

    /// The time-series sampler this node's heartbeat loop ticks.
    pub fn sampler(&self) -> &Arc<Sampler> {
        &self.inner.sampler
    }

    /// Fault injection for read-path tests: every packet this node
    /// serves for `block` has its payload corrupted *after* checksums
    /// are computed, so the copy looks fine locally but fails the
    /// client-side verify — bit rot the reader must catch and report.
    pub fn inject_read_corruption(&self, block: BlockId) {
        self.inner.read_corruption.lock().insert(block);
    }

    /// Fault injection for the spawn-failure tests: [`DnInner::spawn`]
    /// refuses threads of this name until `None` lifts it.
    #[cfg(test)]
    pub(crate) fn refuse_spawn(&self, name: Option<&'static str>) {
        *self.inner.refuse_spawn.lock() = name;
    }

    /// Tells the server threads to stop, without waiting for them: the
    /// heartbeat's wait ends at once and the listener closes. An
    /// orchestrator stops every node first and joins afterwards.
    pub fn stop(&self) {
        self.stop.stop();
        self.inner.fabric.close_listener(&self.data_addr());
    }

    /// Stops server threads. Blocked I/O is released by killing the host
    /// or shutting the fabric down (the cluster orchestrator does this).
    pub fn shutdown(mut self) {
        self.stop();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn handle_connection(dn: Arc<DnInner>, mut stream: FabricStream) {
    let op: DataOp = match recv_message(&mut stream) {
        Ok(op) => op,
        Err(_) => return,
    };
    // A panicking op handler costs one typed error response (or, for the
    // streaming ops that consume the connection, one dropped peer that
    // failover already handles) — never a silently dead xceiver thread
    // with counters left askew.
    match op {
        DataOp::WriteBlock(header) => {
            dn.active_transfers.fetch_add(1, Ordering::Relaxed);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = handle_write(&dn, header, stream);
            }));
            dn.active_transfers.fetch_sub(1, Ordering::Relaxed);
            if outcome.is_err() {
                dn.obs.metrics().handler_panics.inc();
            }
        }
        DataOp::ReadBlock { block, offset, len } => {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = handle_read(&dn, block, offset, len, stream);
            }));
            if outcome.is_err() {
                dn.obs.metrics().handler_panics.inc();
            }
        }
        DataOp::RecoverBlock {
            block,
            new_gen,
            new_len,
        } => {
            let reply = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                dn.store.recover(block.id, new_gen, new_len)
            })) {
                Ok(Ok(b)) => DataReply::RecoverOk { block: b },
                Ok(Err(e)) => DataReply::Error(e.to_string()),
                Err(payload) => {
                    dn.obs.metrics().handler_panics.inc();
                    DataReply::Error(format!(
                        "internal error: handler panicked: {}",
                        panic_message(payload)
                    ))
                }
            };
            let _ = send_message(&mut stream, &reply);
        }
        DataOp::GetTelemetry => {
            let reply = DataReply::Telemetry {
                text: prometheus_exposition(dn.obs.metrics()),
                series_json: dn.sampler.series().to_json().to_string_compact(),
            };
            let _ = send_message(&mut stream, &reply);
        }
        DataOp::GetReplicaInfo { block } => {
            let reply = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                dn.store.replica_info(block)
            })) {
                Ok(Some((b, finalized))) => DataReply::ReplicaInfo {
                    block: Some(b),
                    finalized,
                },
                Ok(None) => DataReply::ReplicaInfo {
                    block: None,
                    finalized: false,
                },
                Err(payload) => {
                    dn.obs.metrics().handler_panics.inc();
                    DataReply::Error(format!(
                        "internal error: handler panicked: {}",
                        panic_message(payload)
                    ))
                }
            };
            let _ = send_message(&mut stream, &reply);
        }
    }
}

/// `(seq, last_in_block)` handed from the receiver to the responder.
type AckSignal = (u64, bool);

/// A validated packet frame on its way to the mirror: the frame body as
/// it arrived, and its payload length for the buffer gauges.
type Relay = (Bytes, u64);

/// Sends an ack upstream under the shared writer lock.
fn send_ack(up: &Mutex<WriteHalf>, ack: &PipelineAck) -> DfsResult<()> {
    let mut w = up.lock();
    send_message(&mut *w, ack)
}

/// This node's refusal of packet `seq` (or, at `seq` 0 before any packet,
/// of the whole transfer).
fn error_ack(seq: u64) -> PipelineAck {
    PipelineAck {
        kind: AckKind::Packet,
        seq,
        batch: 1,
        statuses: vec![AckStatus::Error],
    }
}

fn handle_write(
    dn: &Arc<DnInner>,
    header: WriteBlockHeader,
    stream: FabricStream,
) -> DfsResult<()> {
    let (up_read, up_write) = stream.split();
    let up_write = Arc::new(Mutex::new(up_write));

    dn.store.create_rbw(header.block.id, header.block.gen)?;

    // Build the mirror connection (the rest of the pipeline), if any.
    let mirror = if let Some((next, rest)) = header.targets.split_first() {
        let mut m = dn.fabric.connect(&dn.host, &next.addr)?;
        let fwd_header = WriteBlockHeader {
            pipeline: header.pipeline,
            client: header.client,
            block: header.block,
            mode: header.mode,
            targets: rest.to_vec(),
            position: header.position + 1,
            client_buffer: header.client_buffer,
            trace: header.trace,
            span: header.span,
        };
        send_message(&mut m, &DataOp::WriteBlock(fwd_header))?;
        Some(m.split())
    } else {
        None
    };

    run_write_threads(dn, &header, up_read, up_write, mirror)
}

// Receiver/flusher/forwarder/responder orchestration for one block write.
fn run_write_threads(
    dn: &Arc<DnInner>,
    header: &WriteBlockHeader,
    mut up_read: ReadHalf,
    up_write: Arc<Mutex<WriteHalf>>,
    mirror: Option<(ReadHalf, WriteHalf)>,
) -> DfsResult<()> {
    let block = header.block;
    let has_mirror = mirror.is_some();
    let config = &dn.config;
    let queue_packets =
        config.packets_in(config.forward_window(header.position as usize, header.client_buffer));
    // Staging between receive and flush: the §IV-C buffer, in packets.
    let staging_packets = config.packets_in(config.datanode_client_buffer.as_u64());

    let (fwd_tx, fwd_rx): (Sender<Relay>, Receiver<Relay>) = bounded(queue_packets);
    let (flush_tx, flush_rx): (Sender<Packet>, Receiver<Packet>) = bounded(staging_packets);
    let (ack_tx, ack_rx): (Sender<AckSignal>, Receiver<AckSignal>) = unbounded();

    let (mirror_read, mirror_write) = match mirror {
        Some((r, w)) => (Some(r), Some(w)),
        None => (None, None),
    };

    // Forwarder: relays each frame to the next datanode as it arrived.
    let forwarder = mirror_write.map(|mut m_write| {
        let node = Arc::clone(dn);
        dn.spawn("dn-forwarder", move || {
            let mut mirror_alive = true;
            for (frame, n) in fwd_rx.iter() {
                // Past a dead mirror the queue is only drained, so the
                // receiver never blocks on it; the responder reports the
                // error.
                mirror_alive = mirror_alive && write_frame(&mut m_write, &frame).is_ok();
                node.obs.metrics().datanode_forward_bytes.sub(n);
                DnLocalStats::sub(&node.local.forward_bytes, n);
            }
        })
    });

    // Flusher: drains the staging queue into the disk model and the
    // block store, finalizes on the last packet (emitting the FNFA from
    // the first node in SMARTH mode), signals the responder and reports
    // the replica to the namenode. A flush failure is reported upstream
    // as an error ack so the client's recovery classifies it as a
    // datanode error, exactly like the old serial path.
    let flusher = {
        let node = Arc::clone(dn);
        let header = header.clone();
        let up_write = Arc::clone(&up_write);
        dn.spawn("dn-flusher", move || -> DfsResult<()> {
            let metrics_drop = |pkt: &Packet| {
                let m = node.obs.metrics();
                m.datanode_buffered_bytes.sub(pkt.payload.len() as u64);
                m.datanode_staging_packets.sub(1);
                DnLocalStats::sub(&node.local.buffered_bytes, pkt.payload.len() as u64);
                DnLocalStats::sub(&node.local.staging_packets, 1);
            };
            for pkt in flush_rx.iter() {
                let flushed = flush_packet(&node, &header, &up_write, &pkt);
                metrics_drop(&pkt);
                let finalized = flushed.inspect_err(|_| {
                    let _ = send_ack(&up_write, &error_ack(pkt.seq));
                    // Unblock the receiver: drain whatever is staged.
                    for pkt in flush_rx.iter() {
                        metrics_drop(&pkt);
                    }
                })?;
                // The head reports before its last ack goes up, so every
                // block of a returned put has a replica the namenode
                // knows; the report overlaps the wait for the mirror's
                // ack. Every other position acks first and reports
                // after, off the ack path, as Hadoop's responder does.
                let (report_first, report_after) = match header.position {
                    0 => (finalized, None),
                    _ => (None, finalized),
                };
                if let Some(replica) = report_first {
                    node.notify_block_received(replica);
                }
                let last = pkt.last_in_block;
                ack_tx.send((pkt.seq, last)).ok();
                if let Some(replica) = report_after {
                    node.notify_block_received(replica);
                }
                if last {
                    break;
                }
            }
            Ok(())
        })
    };

    // Responder: merges downstream acks with our own success and relays
    // upstream (§II step 4). Acks are *cumulative*: while the previous
    // upstream frame was in flight, every signal the receiver queued in
    // the meantime is coalesced into one frame whose `batch` is the
    // number of packets covered — the batching window is exactly the
    // upstream backlog, so an idle pipeline still acks per-packet.
    let responder = {
        let up_write = Arc::clone(&up_write);
        let mut mirror_read = mirror_read;
        dn.spawn("dn-responder", move || {
            // Highest seq the mirror has cumulatively acked, plus
            // the statuses of its latest frame. The mirror batches
            // independently, so its frame boundaries need not match
            // ours — only coverage matters.
            let mut mirror_covered: Option<u64> = None;
            let mut mirror_statuses: Vec<AckStatus> = Vec::new();
            // Reused across frames: taken into each outgoing ack and
            // reclaimed after the send, so the per-frame hot path
            // allocates nothing once warm.
            let mut statuses: Vec<AckStatus> = Vec::new();
            loop {
                let (first_seq, first_last) = match ack_rx.recv() {
                    Ok(s) => s,
                    Err(_) => break,
                };
                let mut seq = first_seq;
                let mut last = first_last;
                let mut batch = 1u64;
                while !last {
                    match ack_rx.try_recv() {
                        Ok((s, l)) => {
                            seq = s;
                            last = l;
                            batch += 1;
                        }
                        Err(_) => break,
                    }
                }
                if mirror_read.is_some() {
                    let mr = mirror_read.as_mut().expect("checked above");
                    while mirror_covered.is_none_or(|c| c < seq) {
                        match recv_message::<PipelineAck>(mr) {
                            Ok(ack) => {
                                mirror_covered = Some(ack.seq);
                                let errored = ack.first_error().is_some();
                                mirror_statuses = ack.statuses;
                                if errored {
                                    break;
                                }
                            }
                            Err(_) => {
                                mirror_statuses = vec![AckStatus::Error];
                                break;
                            }
                        }
                    }
                }
                statuses.clear();
                statuses.push(AckStatus::Success);
                statuses.extend_from_slice(&mirror_statuses);
                let ack = PipelineAck {
                    kind: AckKind::Packet,
                    seq,
                    batch,
                    statuses: std::mem::take(&mut statuses),
                };
                let sent = send_ack(&up_write, &ack);
                statuses = ack.statuses;
                if sent.is_err() || last {
                    break;
                }
            }
        })
    };

    // Out of threads for a stage: one error ack, so the client classifies
    // the block as a datanode error, and straight to the wind-down, where
    // the stages that did start end with their queues.
    let unstarted = forwarder
        .as_ref()
        .and_then(|f| f.as_ref().err())
        .or(flusher.as_ref().err())
        .or(responder.as_ref().err())
        .cloned();

    // Receiver loop (this thread): drain the socket, forward, stage.
    let verify_here = match dn.config.verify_checksums_at {
        VerifyChecksumsAt::EveryHop => true,
        // The tail is the hop with no mirror: it verifies on behalf of
        // the whole pipeline before the success ack chain starts.
        VerifyChecksumsAt::TailOnly => !has_mirror,
    };
    let result: DfsResult<()> = (|| {
        if let Some(e) = unstarted {
            let _ = send_ack(&up_write, &error_ack(0));
            return Err(e);
        }
        loop {
            // The frame is decoded and checked here and then relayed as
            // it is: `pkt.payload` is a slice of `frame`, and the mirror
            // and the store get handles on that one buffer.
            let frame = read_frame(&mut up_read)?;
            let pkt = Packet::from_bytes(frame.clone())?;
            // Verify before ack/store (§II step 3: "verifies the packet's
            // checksum") — on the hops the config says must pay for it.
            if verify_here
                && dn
                    .checksum
                    .first_corrupt_chunk(&pkt.payload, &pkt.checksums)
                    .is_some()
            {
                let _ = send_ack(&up_write, &error_ack(pkt.seq));
                return Err(DfsError::ChecksumMismatch {
                    block: block.id,
                    seq: pkt.seq,
                });
            }
            let last = pkt.last_in_block;
            let n = pkt.payload.len() as u64;
            if has_mirror {
                // Forward *before* the local flush so downstream
                // replication is never gated on this node's disk. A
                // closed forwarder means the mirror died; the responder
                // reports it via error acks, we just stop forwarding.
                dn.obs.metrics().datanode_forward_bytes.add(n);
                DnLocalStats::add(&dn.local.forward_bytes, n);
                if fwd_tx.send((frame, n)).is_err() {
                    dn.obs.metrics().datanode_forward_bytes.sub(n);
                    DnLocalStats::sub(&dn.local.forward_bytes, n);
                }
            }
            // Stage for the flusher. Accounting happens before the send:
            // the bounded queue blocks here once the §IV-C buffer is
            // full, and that backlog is what backpressures the socket.
            let m = dn.obs.metrics();
            m.datanode_buffered_bytes.add(n);
            m.datanode_staging_packets.add(1);
            DnLocalStats::add(&dn.local.buffered_bytes, n);
            DnLocalStats::add(&dn.local.staging_packets, 1);
            if flush_tx.send(pkt).is_err() {
                // Flusher already failed and reported upstream; its
                // error is picked up at join below.
                let m = dn.obs.metrics();
                m.datanode_buffered_bytes.sub(n);
                m.datanode_staging_packets.sub(1);
                DnLocalStats::sub(&dn.local.buffered_bytes, n);
                DnLocalStats::sub(&dn.local.staging_packets, 1);
                return Ok(());
            }
            if last {
                break;
            }
        }
        Ok(())
    })();

    // Wind down: closing the queues lets the flusher finish writing
    // staged packets and the forwarder finish streaming to the mirror.
    drop(fwd_tx);
    drop(flush_tx);
    let flush_result = flusher.map_or(Ok(()), |f| {
        f.join()
            .unwrap_or_else(|_| Err(DfsError::internal("flusher thread panicked")))
    });
    if let Some(Ok(f)) = forwarder {
        let _ = f.join();
    }
    if let Ok(r) = responder {
        let _ = r.join();
    }
    // A flush failure is the root cause (the receiver usually dies
    // second, with a derived connection error) — report it first.
    match flush_result {
        Err(e) => Err(e),
        Ok(()) => result,
    }
}

/// One packet through the flush stage: disk tokens, store append and —
/// on the last packet — finalize and FNFA (first node, SMARTH). Returns
/// the finalized replica, which the caller reports to the namenode.
fn flush_packet(
    dn: &Arc<DnInner>,
    header: &WriteBlockHeader,
    up_write: &Mutex<WriteHalf>,
    pkt: &Packet,
) -> DfsResult<Option<smarth_core::ids::ExtendedBlock>> {
    let block = header.block;
    // Disk time: modelled as bucket tokens (§III-D's T_w is the
    // per-packet constant; sustained rate is the disk bandwidth).
    dn.disk
        .acquire(pkt.payload.len())
        .map_err(|_| DfsError::connection_lost("datanode stopping"))?;
    dn.store
        .append(block.id, block.gen, pkt.offset_in_block, pkt.payload.clone())?;
    if pkt.last_in_block {
        let final_len = pkt.offset_in_block + pkt.payload.len() as u64;
        let finalized = dn.store.finalize(block.id, block.gen, final_len)?;
        // SMARTH's key move: the first node announces completion
        // immediately (§III-A step 3).
        if header.position == 0 && header.mode == WriteMode::Smarth {
            let _ = send_ack(
                up_write,
                &PipelineAck {
                    kind: AckKind::FirstNodeFinish,
                    seq: pkt.seq,
                    batch: 1,
                    statuses: vec![AckStatus::Success],
                },
            );
            dn.obs.emit_traced(header.hop_ctx(), ObsEvent::FnfaSent {
                datanode: dn.id,
                block: block.id,
            });
        }
        dn.obs.emit_traced(header.hop_ctx(), ObsEvent::BlockReceived {
            datanode: dn.id,
            block: block.id,
            bytes: final_len,
        });
        return Ok(Some(finalized));
    }
    Ok(None)
}

/// Serves a range of a finalized replica as packets of at most
/// `packet_size`, each a slice of one stored segment — a packet never
/// spans two, so nothing is joined or copied on the way out.
fn handle_read(
    dn: &Arc<DnInner>,
    block: smarth_core::ids::ExtendedBlock,
    offset: u64,
    len: u64,
    mut stream: FabricStream,
) -> DfsResult<()> {
    let segments = match dn.store.read(block.id, block.gen, offset, len) {
        Ok(s) => s,
        Err(e) => {
            let _ = send_message(&mut stream, &DataReply::Error(e.to_string()));
            return Err(e);
        }
    };
    send_message(&mut stream, &DataReply::ReadOk { len })?;
    let chunk = dn.config.packet_size.as_u64().max(1) as usize;
    let corrupt = dn.read_corruption.lock().contains(&block.id);
    // An empty range is still answered with one (empty) last packet.
    let parts = segments
        .iter()
        .flat_map(|seg| {
            (0..seg.len())
                .step_by(chunk)
                .map(move |at| seg.slice(at..seg.len().min(at + chunk)))
        })
        .chain((len == 0).then(Bytes::new));
    let mut sent = 0u64;
    for (seq, mut part) in parts.enumerate() {
        let checksums = dn.checksum.compute(&part);
        if corrupt && !part.is_empty() {
            // Injected fault: flip a bit after checksumming, so the
            // frame self-reports as clean and only the reader's verify
            // can catch it.
            let mut bytes = part.to_vec();
            bytes[0] ^= 0x80;
            part = Bytes::from(bytes);
        }
        let pkt = Packet {
            seq: seq as u64,
            offset_in_block: offset + sent,
            last_in_block: sent + part.len() as u64 >= len,
            checksums,
            payload: part,
        };
        sent += pkt.payload.len() as u64;
        send_packet(&mut stream, &pkt)?;
    }
    Ok(())
}
