//! The datanode: data-transfer server, pipeline forwarding and the
//! namenode heartbeat loop.
//!
//! A block write's protocol — where checksums are checked, what an ack
//! covers and carries, the FNFA and when the replica is reported — is
//! one [`Hop`] machine from `smarth_core::hop`, the one the DES drives
//! too. This file performs its actions. Every inbound `WriteBlock`
//! connection runs four cooperating threads — a staged pipeline, so
//! network receive, downstream replication and disk writes genuinely
//! overlap (§IV-C's buffer decouples the stages):
//!
//! * the **receiver** (the connection's own thread) only drains the
//!   upstream socket: it reads each packet's frame, decodes it, verifies
//!   CRC-32C if the hop says so (the tail), hands the frame to the
//!   forwarder *first* and then fans the packet into the bounded staging
//!   queue;
//! * the **flusher** drains the staging queue: pays the disk token
//!   bucket, appends to the [`BlockStore`], finalizes on the last packet,
//!   and performs what the store calls for up to the first ack: the FNFA
//!   and the head's report. The ack, and what follows it, it hands to the
//!   responder. The staging queue is sized from
//!   `DfsConfig::datanode_client_buffer` (§IV-C) and tracked by the
//!   `datanode_buffered_bytes` / `datanode_staging_packets` gauges, so
//!   a slow disk backpressures the socket only once the buffer is full;
//! * the **forwarder** relays frames to the next datanode through a
//!   bounded queue of `DfsConfig::forward_window` bytes (the client's
//!   buffer, one whole block, on the *first* node and a few packets
//!   elsewhere), tracked by the `datanode_forward_bytes` gauge;
//! * the **responder** reads the mirror's acks while an ack waits on
//!   them, and sends every ack upstream, the backlog coalesced into one
//!   cumulative frame; behind the head it reports the replica after the
//!   last one.
//!
//! A byte is copied once on its way through a node (§II step 3: the
//! datanode "stores the packet and passes it on"): out of the socket
//! into the frame. The decoded packet's payload is a slice of that
//! frame; the forwarder writes the same frame to the mirror as it is,
//! and the flusher hands the store that same slice. The receiver still
//! decodes *before* it relays: a malformed frame stops here and never
//! reaches the mirror. Reads go out the same way — packets that are
//! slices of the stored segments, written by the copy-free
//! [`send_packet`].
//!
//! Flush-stage errors (disk full, store failure mid-block) surface as
//! error acks from the flusher, so clients classify them exactly like
//! the old serial path did (`RecoveryCause::DatanodeError`); a stage
//! that cannot get a thread is answered the same way, and a connection
//! the accept loop cannot get a thread for is dropped — neither takes
//! the node down.

use crate::store::BlockStore;
use bytes::Bytes;
use crossbeam_channel::{bounded, unbounded};
use parking_lot::Mutex;
use smarth_core::checksum::ChunkedChecksum;
use smarth_core::config::DfsConfig;
use smarth_core::error::{panic_message, DfsError, DfsResult};
use smarth_core::hop::{Ack, Action, Actions, Hop, Input};
use smarth_core::ids::{BlockId, DatanodeId, ExtendedBlock};
use smarth_core::json::ToJson;
use smarth_core::obs::telemetry::{prometheus_exposition, Sampler};
use smarth_core::obs::{Gauge, Obs, ObsEvent, TraceCtx};
use smarth_core::proto::{
    AckKind, AckStatus, DataOp, DataReply, DatanodeRequest, DatanodeResponse, DatanodeTelemetry,
    Packet, PipelineAck, WriteBlockHeader,
};
use smarth_core::wire::{read_frame, recv_message, send_message, send_packet, write_frame, Wire};
use smarth_fabric::{Fabric, FabricStream, StopSignal, TokenBucket, WriteHalf};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, Ordering};
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
/// per-node telemetry scrape read these node-local gauges instead.
#[derive(Default)]
struct DnLocalStats {
    staging_packets: Gauge,
    buffered_bytes: Gauge,
    forward_bytes: Gauge,
}

impl DnLocalStats {
    fn snapshot(&self) -> DatanodeTelemetry {
        DatanodeTelemetry {
            staging_packets: self.staging_packets.get(),
            buffered_bytes: self.buffered_bytes.get(),
            forward_bytes: self.forward_bytes.get(),
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

    /// A packet of `n` payload bytes enters (`into`) or leaves the
    /// staging queue: this node's own gauges and the registry's move
    /// together.
    fn staged(&self, n: u64, into: bool) {
        let (m, l) = (self.obs.metrics(), &self.local);
        level([&l.buffered_bytes, &m.datanode_buffered_bytes], n, into);
        level([&l.staging_packets, &m.datanode_staging_packets], 1, into);
    }

    /// The same for the forward queue.
    fn forwarding(&self, n: u64, into: bool) {
        let (m, l) = (self.obs.metrics(), &self.local);
        level([&l.forward_bytes, &m.datanode_forward_bytes], n, into);
    }

    /// Reports the replica of `block`, as this node's store holds it, to
    /// the namenode. Best effort: if the namenode is unreachable the
    /// replica is still durable; the next block report would reconcile
    /// (and in tests the namenode outliving datanodes makes this
    /// reliable). Nobody waits for the answer, so a lost report is
    /// counted.
    fn report(&self, block: BlockId) {
        let reply = match self.store.replica_info(block) {
            Some((block, true)) => self.nn.call(&DatanodeRequest::BlockReceived { id: self.id, block }),
            _ => Err(DfsError::UnknownBlock(block)),
        };
        if !matches!(reply, Ok(DatanodeResponse::BlockReceivedAck)) {
            self.obs.metrics().block_report_failures.inc();
        }
    }
}

fn level(gauges: [&Gauge; 2], n: u64, into: bool) {
    for g in gauges {
        if into {
            g.add(n);
        } else {
            g.sub(n);
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
            let (node, stop) = (Arc::clone(&inner), Arc::clone(&stop));
            threads.push(inner.spawn("dn-accept", move || {
                while let Ok(stream) = listener.accept() {
                    if stop.is_stopped() {
                        break;
                    }
                    // Out of threads: this connection is dropped (its peer
                    // sees it close and fails over or recovers) and the
                    // loop keeps accepting.
                    let conn = Arc::clone(&node);
                    let _ = node.spawn("dn-xceiver", move || handle_connection(conn, stream));
                }
            })?);
        }

        // Heartbeat loop.
        {
            let (node, stop) = (Arc::clone(&inner), Arc::clone(&stop));
            let interval = Duration::from_secs_f64(inner.config.heartbeat_interval.as_secs_f64())
                .max(Duration::from_millis(5));
            threads.push(inner.spawn("dn-heartbeat", move || {
                let mut failure_streak = 0u32;
                loop {
                    let mut pause = interval;
                    if failure_streak > 0 {
                        // Bounded exponential backoff: a namenode outage
                        // must not turn every datanode into a hot retry
                        // loop — and must not silence the heartbeat
                        // forever either (the old loop broke on first
                        // error, so a healed namenode saw a ghost node).
                        pause += interval
                            .saturating_mul(1 << failure_streak.min(3))
                            .min(Duration::from_secs(2));
                    }
                    if stop.wait_timeout(pause) {
                        break;
                    }
                    node.sampler.sample_at(Obs::now_us());
                    let req = DatanodeRequest::Heartbeat {
                        id: node.id,
                        used: node.store.used_bytes(),
                        active_transfers: node.active_transfers.load(Ordering::Relaxed),
                        telemetry: node.local.snapshot(),
                    };
                    if node.nn.call(&req).is_err() {
                        failure_streak = failure_streak.saturating_add(1);
                        node.obs.metrics().heartbeat_failures.inc();
                    } else {
                        failure_streak = 0;
                    }
                }
            })?);
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

/// Runs one op's handler. A panic costs one counted, typed error — never
/// a silently dead xceiver thread with counters left askew.
fn guarded<T>(dn: &DnInner, handler: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(handler)).map_err(|payload| {
        dn.obs.metrics().handler_panics.inc();
        format!("internal error: handler panicked: {}", panic_message(payload))
    })
}

fn handle_connection(dn: Arc<DnInner>, mut stream: FabricStream) {
    let Ok(op) = recv_message::<DataOp>(&mut stream) else {
        return;
    };
    // The streaming ops consume the connection: their panic costs one
    // dropped peer, which failover already handles.
    let reply = match op {
        DataOp::WriteBlock(header) => {
            dn.active_transfers.fetch_add(1, Ordering::Relaxed);
            let _ = guarded(&dn, || handle_write(&dn, header, stream));
            dn.active_transfers.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        DataOp::ReadBlock { block, offset, len } => {
            let _ = guarded(&dn, || handle_read(&dn, block, offset, len, stream));
            return;
        }
        DataOp::RecoverBlock { block, new_gen, new_len } => {
            match guarded(&dn, || dn.store.recover(block.id, new_gen, new_len)) {
                Ok(Ok(block)) => DataReply::RecoverOk { block },
                Ok(Err(e)) => DataReply::Error(e.to_string()),
                Err(panic) => DataReply::Error(panic),
            }
        }
        DataOp::GetTelemetry => DataReply::Telemetry {
            text: prometheus_exposition(dn.obs.metrics()),
            series_json: dn.sampler.series().to_json().to_string_compact(),
        },
        DataOp::GetReplicaInfo { block } => match guarded(&dn, || dn.store.replica_info(block)) {
            Ok(info) => {
                let (block, finalized) = info.unzip();
                DataReply::ReplicaInfo { block, finalized: finalized.unwrap_or(false) }
            }
            Err(panic) => DataReply::Error(panic),
        },
    };
    let _ = send_message(&mut stream, &reply);
}

/// An ack of packet `seq` with this node's status alone: an FNFA, or a
/// refusal (at `seq` 0 before any packet, of the whole transfer).
fn own_ack(kind: AckKind, seq: u64, status: AckStatus) -> PipelineAck {
    PipelineAck { kind, seq, batch: 1, statuses: vec![status] }
}

/// What the threads of one block write share.
struct Write {
    dn: Arc<DnInner>,
    block: ExtendedBlock,
    ctx: Option<TraceCtx>,
    hop: Mutex<Hop>,
    /// The upstream socket's writing half.
    up: Mutex<WriteHalf>,
}

impl Write {
    fn send(&self, ack: &PipelineAck) -> DfsResult<()> {
        send_message(&mut *self.up.lock(), ack)
    }

    fn refuse(&self, seq: u64) {
        let _ = self.send(&own_ack(AckKind::Packet, seq, AckStatus::Error));
    }

    /// Performs what a store calls for before its ack; `bytes` is the
    /// replica's length once the last packet is in.
    fn perform(&self, action: Action, bytes: u64) {
        let (datanode, block) = (self.dn.id, self.block.id);
        match action {
            Action::Fnfa { seq } => {
                let _ = self.send(&own_ack(AckKind::FirstNodeFinish, seq, AckStatus::Success));
                self.dn.obs.emit_traced(self.ctx, ObsEvent::FnfaSent { datanode, block });
            }
            Action::Received => {
                let event = ObsEvent::BlockReceived { datanode, block, bytes };
                self.dn.obs.emit_traced(self.ctx, event);
            }
            Action::Report => self.dn.report(block),
            Action::Refuse { seq } => self.refuse(seq),
            other => unreachable!("a store calls for no {other:?} before its ack"),
        }
    }
}

fn handle_write(
    dn: &Arc<DnInner>,
    header: WriteBlockHeader,
    stream: FabricStream,
) -> DfsResult<()> {
    let (mut up_read, up) = stream.split();
    dn.store.create_rbw(header.block.id, header.block.gen)?;

    // Build the mirror connection (the rest of the pipeline), if any.
    let mirror = if let Some((next, rest)) = header.targets.split_first() {
        let mut m = dn.fabric.connect(&dn.host, &next.addr)?;
        let (targets, position) = (rest.to_vec(), header.position + 1);
        let fwd_header = WriteBlockHeader { targets, position, ..header.clone() };
        send_message(&mut m, &DataOp::WriteBlock(fwd_header))?;
        Some(m.split())
    } else {
        None
    };

    // The receiver (this thread), forwarder, flusher and responder.
    let (config, position) = (&dn.config, header.position as usize);
    let queue_packets = config.packets_in(config.forward_window(position, header.client_buffer));
    // Staging between receive and flush: the §IV-C buffer, in packets.
    let staging_packets = config.packets_in(config.datanode_client_buffer.as_u64());
    let hop = Hop::new(position, mirror.is_some(), header.mode);
    let verifies = hop.verifies();
    let (block, ctx, hop, up) = (header.block, header.hop_ctx(), Mutex::new(hop), Mutex::new(up));
    let w = Arc::new(Write { dn: Arc::clone(dn), block, ctx, hop, up });

    // A checked frame on its way to the mirror as it arrived, with its
    // payload length for the gauges.
    let (fwd_tx, fwd_rx) = bounded::<(Bytes, u64)>(queue_packets);
    let (flush_tx, flush_rx) = bounded::<Packet>(staging_packets);
    // One message per store: the ack it made due and what follows that
    // ack, or nothing, which still wakes the responder to read the mirror.
    let (ack_tx, ack_rx) = unbounded::<Actions>();
    let (mut mirror_read, mirror_write) = mirror.unzip();

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
                node.forwarding(n, false);
            }
        })
    });

    // Flusher. A store failure is refused upstream with an error ack, so
    // the client's recovery classifies it as a datanode error.
    let flusher = {
        let w = Arc::clone(&w);
        dn.spawn("dn-flusher", move || -> DfsResult<()> {
            // The ack an input calls for goes to the responder with what
            // follows it, under the hop's lock, so the responder gets
            // acks in the order they were decided.
            let feed = |input: Input<'static>| {
                let mut hop = w.hop.lock();
                let (mine, responders) = hop.on(input).split_at_ack();
                let _ = ack_tx.send(responders);
                mine
            };
            for pkt in flush_rx.iter() {
                let (seq, last, n) = (pkt.seq, pkt.last_in_block, pkt.payload.len() as u64);
                let stored = store_packet(&w.dn, block, &pkt);
                w.dn.staged(n, false);
                let input = match stored {
                    Ok(()) => Input::Stored { seq, last },
                    Err(_) => Input::StoreFailed { seq },
                };
                for action in feed(input) {
                    w.perform(action, pkt.offset_in_block + n);
                    if action == Action::Report {
                        // The answer calls only for the held ack.
                        let mine = feed(Input::Reported);
                        debug_assert_eq!(mine, Actions::default());
                    }
                }
                if let Err(e) = stored {
                    // Unblock the receiver: drain whatever is staged.
                    for pkt in flush_rx.iter() {
                        w.dn.staged(pkt.payload.len() as u64, false);
                    }
                    return Err(e);
                }
                if last {
                    break;
                }
            }
            Ok(())
        })
    };

    // Responder (§II step 4). Acks are *cumulative*: every ack decided
    // while the previous frame was in flight goes out in one frame whose
    // `batch` is the packets it covers, so the batching window is exactly
    // the upstream backlog and an idle pipeline still acks per packet.
    let responder = {
        let w = Arc::clone(&w);
        dn.spawn("dn-responder", move || {
            // Reused across frames: taken into each outgoing ack and
            // reclaimed after the send, so the per-frame hot path
            // allocates nothing once warm.
            let mut statuses: Vec<AckStatus> = Vec::new();
            loop {
                let decided = match mirror_read.as_mut().filter(|_| w.hop.lock().awaits_mirror()) {
                    Some(mr) => {
                        let reply = recv_message::<PipelineAck>(mr);
                        // Only the head sends an FNFA: any other kind
                        // from a mirror is a protocol error.
                        let input = match &reply {
                            Ok(ack) if ack.kind == AckKind::Packet => {
                                Input::MirrorAck { seq: ack.seq, statuses: &ack.statuses }
                            }
                            _ => Input::MirrorLost,
                        };
                        let decided = w.hop.lock().on(input);
                        decided
                    }
                    None => match ack_rx.recv() {
                        Ok(decided) => decided,
                        Err(_) => break,
                    },
                };
                // The flusher's acks queued so far were decided before
                // or after this one; they all go out in this frame.
                let (mut ack, mut report) = (None::<Ack>, false);
                for action in ack_rx.try_iter().chain([decided]).flatten() {
                    match action {
                        Action::Ack(a) => ack = Some(ack.map_or(a, |b| b.merge(a))),
                        Action::Report => report = true,
                        other => unreachable!("an ack brings no {other:?}"),
                    }
                }
                let Some(ack) = ack else { continue };
                w.hop.lock().statuses(&mut statuses);
                let (seq, batch) = (ack.seq, ack.batch);
                let frame = PipelineAck { kind: AckKind::Packet, seq, batch, statuses };
                let sent = w.send(&frame);
                statuses = frame.statuses;
                if report {
                    w.dn.report(block.id);
                }
                if sent.is_err() || ack.last {
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
    let result: DfsResult<()> = (|| {
        if let Some(e) = unstarted {
            w.refuse(0);
            return Err(e);
        }
        loop {
            // The frame is decoded and checked here and then relayed as
            // it is: `pkt.payload` is a slice of `frame`, and the mirror
            // and the store get handles on that one buffer.
            let frame = read_frame(&mut up_read)?;
            let pkt = Packet::from_bytes(frame.clone())?;
            // §II step 3: the packet's checksum is verified before it is
            // acked or stored, by the hop that verifies for the pipeline.
            let intact = !verifies
                || dn.checksum.first_corrupt_chunk(&pkt.payload, &pkt.checksums).is_none();
            let (seq, last, n) = (pkt.seq, pkt.last_in_block, pkt.payload.len() as u64);
            let mut pkt = Some(pkt);
            let actions = w.hop.lock().on(Input::Arrived { seq, intact });
            for action in actions {
                match action {
                    // Forwarded *before* the local flush, so downstream
                    // replication is never gated on this node's disk. A
                    // closed forwarder means the mirror died; the
                    // responder reports it via error acks.
                    Action::Forward => {
                        dn.forwarding(n, true);
                        if fwd_tx.send((frame.clone(), n)).is_err() {
                            dn.forwarding(n, false);
                        }
                    }
                    // Accounted before the send: the bounded queue blocks
                    // here once the §IV-C buffer is full, and that backlog
                    // is what backpressures the socket.
                    Action::Stage => {
                        dn.staged(n, true);
                        if flush_tx.send(pkt.take().expect("one stage")).is_err() {
                            // Flusher already failed and reported
                            // upstream; its error is picked up at join.
                            dn.staged(n, false);
                            return Ok(());
                        }
                    }
                    Action::Refuse { seq } => {
                        w.refuse(seq);
                        return Err(DfsError::ChecksumMismatch { block: block.id, seq });
                    }
                    other => unreachable!("an arrival calls for no {other:?}"),
                }
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

/// One packet into the store: disk tokens, the append and, for the last
/// packet, the finalize.
fn store_packet(dn: &DnInner, block: ExtendedBlock, pkt: &Packet) -> DfsResult<()> {
    // Disk time: modelled as bucket tokens (§III-D's T_w is the
    // per-packet constant; sustained rate is the disk bandwidth).
    dn.disk
        .acquire(pkt.payload.len())
        .map_err(|_| DfsError::connection_lost("datanode stopping"))?;
    dn.store
        .append(block.id, block.gen, pkt.offset_in_block, pkt.payload.clone())?;
    if pkt.last_in_block {
        let len = pkt.offset_in_block + pkt.payload.len() as u64;
        dn.store.finalize(block.id, block.gen, len)?;
    }
    Ok(())
}

/// Serves a range of a finalized replica as packets of at most
/// `packet_size`, each a slice of one stored segment — a packet never
/// spans two, so nothing is joined or copied on the way out.
fn handle_read(
    dn: &Arc<DnInner>,
    block: ExtendedBlock,
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
