//! The discrete-event model of one file upload, at full paper scale.
//!
//! The simulator replays the protocol state machines of the real
//! implementation — packet-granular store-and-forward pipelines, per-hop
//! forward buffers with credit backpressure (§IV-C), FNFA-triggered
//! pipelining (§III-A), speed tracking with 3-second heartbeat flushes
//! (§III-B) — over [`RateServer`]s standing in for NICs, `tc` pair
//! shapers and disks. Each datanode hop is the emulator's own
//! [`hop::Hop`], fed by the `Stored` and `AckDown` events: it decides
//! the acks, the FNFA and when the replica is reported. Virtual time makes an 8 GB
//! upload over a 50 Mbps-throttled cluster take milliseconds of wall time
//! and produce bit-identical results for a given seed.
//!
//! Pending events wait, packed into one `u64` each, in a monotone radix
//! queue (`queue.rs`), which pops them by due time and then push order.
//! Virtual time restarts at zero for each upload, and so does the queue.
//! A hop keeps in-order watermarks, not per-packet records, so the
//! engine's memory follows the blocks, not the packets.
//!
//! A run is steered by the knobs the emulator reads and no others: the
//! scenario's [`WriteMode`] and its [`DfsConfig`]. The client sends its
//! RPCs to the emulator's own namenode, hosted in process on virtual
//! time, which mints the ids, places (Algorithm 1), keeps the speed
//! registry and the replica map, and orders read sources. The client is
//! the emulator's [`write::Session`], fed once per block event; the
//! §IV-C forward window and the read stripe count are `smarth-core`
//! calls too. Only the FNFA→`T_n` timing of the next open is written here.

use crate::queue::EventQueue;
use crate::server::RateServer;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use smarth_core::config::{ClusterSpec, DfsConfig, WriteMode};
use smarth_core::error::DfsResult;
use smarth_core::hop::{self, Action, Input};
use smarth_core::ids::{ClientId, DatanodeId, ExtendedBlock, FileId, PipelineId};
use smarth_core::obs::telemetry::Sampler;
use smarth_core::obs::{Obs, ObsEvent, TraceCtx};
use smarth_core::proto::{
    ClientRequest, ClientResponse, DatanodeInfo, DatanodeRequest, DatanodeResponse,
};
use smarth_core::speed::ClientSpeedTracker;
use smarth_core::write::{self, Lent, Session};
use smarth_core::units::{Bandwidth, ByteSize, SimDuration, SimInstant};
use smarth_namenode::{Clock, NameNodeState};
use std::collections::BTreeMap;

/// One upload experiment.
#[derive(Debug, Clone)]
pub struct SimScenario {
    pub spec: ClusterSpec,
    /// The write protocol. With `config` it is every knob the run reads:
    /// the same ones the emulator reads.
    pub mode: WriteMode,
    pub config: DfsConfig,
    pub file_size: ByteSize,
    pub seed: u64,
    /// Uploads run back to back before the measured one, to warm the
    /// speed records like a long-running cluster (0 = cold client).
    pub warmup_uploads: u32,
    /// After the measured upload commits, read the file back with the
    /// client's striped-read admission (one `ReadStarted` per block,
    /// `stripes_for` range stripes across its replica set) so read
    /// events join the same virtual-time stream the emulator emits.
    pub read_back: bool,
}

impl SimScenario {
    pub fn new(spec: ClusterSpec, config: DfsConfig, mode: WriteMode, file_size: ByteSize) -> Self {
        Self {
            spec,
            mode,
            config,
            file_size,
            seed: 42,
            warmup_uploads: 1,
            read_back: false,
        }
    }
}

/// Measured outcome of one simulated upload.
#[derive(Debug, Clone)]
pub struct SimResult {
    pub upload_secs: f64,
    pub file_bytes: u64,
    pub blocks: u64,
    pub throughput_mbps: f64,
    pub max_concurrent_pipelines: usize,
    /// Blocks whose first datanode was each node (placement shape).
    pub first_node_histogram: BTreeMap<u32, u64>,
    pub explored_swaps: u64,
    /// Per-pipeline lifecycle, in block order — the raw material behind
    /// Figure 4's timeline view of overlapped transfers.
    pub timeline: Vec<PipelineTrace>,
    /// Wall time of the striped read-back phase (`read_back` scenarios
    /// only), from the locations RPC to the last stripe's arrival.
    pub read_secs: Option<f64>,
}

/// Lifecycle of one block's pipeline in the simulation.
#[derive(Debug, Clone)]
pub struct PipelineTrace {
    /// First datanode of the pipeline (raw id).
    pub first_node: u32,
    /// Pipeline creation (after the namenode RPC), seconds.
    pub open_secs: f64,
    /// FIRST_NODE_FINISH arrival at the client (SMARTH modes only).
    pub fnfa_secs: Option<f64>,
    /// Fully acked by every replica.
    pub done_secs: f64,
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// Client attempts to transmit the next packet of its sending pipe.
    ClientSend { pipe: usize },
    /// A packet fully arrived at pipeline position `hop`.
    Arrive { pipe: usize, hop: usize, pkt: u64 },
    /// Node at `hop` attempts to forward its next queued packet.
    Forward { pipe: usize, hop: usize },
    /// The node's egress NIC finished serializing a forwarded packet —
    /// the next forward may start (cut-through across devices).
    EgressFree { pipe: usize, hop: usize },
    /// A forwarded packet fully cleared the path (ack-clocked drain):
    /// it stops occupying the node's forward buffer.
    ForwardDone { pipe: usize, hop: usize, pkt: u64 },
    /// Disk write finished at `hop`.
    Stored { pipe: usize, hop: usize, pkt: u64 },
    /// Ack from downstream arrived at `hop`.
    AckDown { pipe: usize, hop: usize, pkt: u64 },
    /// Ack arrived at the client.
    AckClient { pipe: usize, pkt: u64 },
    /// FIRST_NODE_FINISH arrived at the client.
    Fnfa { pipe: usize },
    /// Client tries to open the next block.
    TryOpen,
}

/// Bit widths of an [`Ev`]'s fields in its packed form (the kind takes
/// the top 4 bits); `simulate_upload` refuses a scenario that does not fit.
const PIPE_BITS: u32 = 24;
const HOP_BITS: u32 = 8;
const PKT_BITS: u32 = 28;

impl Ev {
    /// `(kind, pipe, hop, pkt)`.
    fn fields(self) -> (u64, usize, usize, u64) {
        match self {
            Ev::ClientSend { pipe } => (0, pipe, 0, 0),
            Ev::Arrive { pipe, hop, pkt } => (1, pipe, hop, pkt),
            Ev::Forward { pipe, hop } => (2, pipe, hop, 0),
            Ev::EgressFree { pipe, hop } => (3, pipe, hop, 0),
            Ev::ForwardDone { pipe, hop, pkt } => (4, pipe, hop, pkt),
            Ev::Stored { pipe, hop, pkt } => (5, pipe, hop, pkt),
            Ev::AckDown { pipe, hop, pkt } => (6, pipe, hop, pkt),
            Ev::AckClient { pipe, pkt } => (7, pipe, 0, pkt),
            Ev::Fnfa { pipe } => (8, pipe, 0, 0),
            Ev::TryOpen => (9, 0, 0, 0),
        }
    }

    /// The event as one `u64`, which keeps a queue entry at 16 bytes.
    fn pack(self) -> u64 {
        let (kind, pipe, hop, pkt) = self.fields();
        let packed = kind << (PIPE_BITS + HOP_BITS + PKT_BITS)
            | (pipe as u64) << (HOP_BITS + PKT_BITS)
            | (hop as u64) << PKT_BITS
            | pkt;
        debug_assert_eq!(Ev::unpack(packed), self);
        packed
    }

    fn unpack(v: u64) -> Ev {
        let field = |shift: u32, bits: u32| v >> shift & ((1 << bits) - 1);
        let pipe = field(HOP_BITS + PKT_BITS, PIPE_BITS) as usize;
        let hop = field(PKT_BITS, HOP_BITS) as usize;
        let pkt = field(0, PKT_BITS);
        match v >> (PIPE_BITS + HOP_BITS + PKT_BITS) {
            0 => Ev::ClientSend { pipe },
            1 => Ev::Arrive { pipe, hop, pkt },
            2 => Ev::Forward { pipe, hop },
            3 => Ev::EgressFree { pipe, hop },
            4 => Ev::ForwardDone { pipe, hop, pkt },
            5 => Ev::Stored { pipe, hop, pkt },
            6 => Ev::AckDown { pipe, hop, pkt },
            7 => Ev::AckClient { pipe, pkt },
            8 => Ev::Fnfa { pipe },
            _ => Ev::TryOpen,
        }
    }
}

// ---------------------------------------------------------------------------
// State
// ---------------------------------------------------------------------------

struct Host {
    egress: RateServer,
    ingress: RateServer,
    disk: RateServer,
    /// The index of the first host in the same rack.
    rack: usize,
}

struct Hop {
    host: usize,
    /// The datanode's side of the protocol: stores, acks, the FNFA and
    /// the report.
    machine: hop::Hop,
    /// Packets fully arrived here; they arrive in order.
    arrived: u64,
    fwd_next: u64,
    fwd_busy: bool,
    /// Bytes received but not yet fully forwarded (forward buffer), and
    /// not yet on disk (the staging queue); see [`Sim::admits`].
    queue_bytes: u64,
    disk_queue_bytes: u64,
    waiting_credit: bool,
}

struct Pipe {
    target_ids: Vec<DatanodeId>,
    /// The block the namenode allocated, at its full length, and its
    /// causal context.
    block: ExtendedBlock,
    ctx: Option<TraceCtx>,
    packets: u64,
    packet_size: u64,
    last_packet_size: u64,
    first_global_pkt: u64,
    next_send: u64,
    waiting_credit: bool,
    acked: u64,
    hops: Vec<Hop>,
    started: SimInstant,
    fnfa_at: Option<SimInstant>,
    /// Fully acked; until then the pipeline is active.
    done_at: Option<SimInstant>,
}

impl Pipe {
    fn pkt_size(&self, k: u64) -> u64 {
        if k + 1 == self.packets {
            self.last_packet_size
        } else {
            self.packet_size
        }
    }
}

struct Sim {
    now: SimInstant,
    /// Pending events, packed.
    queue: EventQueue,
    hosts: Vec<Host>,
    client_host: usize,
    /// `tc` pair shapers, one per ordered cross-rack host pair, at
    /// `src * hosts.len() + dst`; made at the pair's first packet.
    pairs: Vec<Option<RateServer>>,
    cross_rack: Option<Bandwidth>,
    latency: SimDuration,
    mode: WriteMode,
    config: DfsConfig,
    /// Indexed by `PipelineId`.
    pipes: Vec<Pipe>,
    /// The client's decisions.
    session: Session,
    finished_at: Option<SimInstant>,
    /// The namenode the emulator runs, in process, on `clock`: it mints
    /// ids, places, keeps the speed registry and the replica map.
    nn: NameNodeState,
    clock: Clock,
    /// This round's file.
    path: String,
    file: FileId,
    /// Algorithm 2's inputs: the client's speed records and its RNG.
    tracker: ClientSpeedTracker,
    rng: ChaCha8Rng,
    dn_hosts: Vec<usize>,
    last_heartbeat: SimInstant,
    // measurement
    file_size: ByteSize,
    // Same event stream as the real write path, stamped with virtual
    // time (warm-up rounds run with a disabled handle).
    obs: Obs,
    /// `(sampler, interval_us, next_due_us)`: the telemetry sampler
    /// ticked in virtual time as the event loop advances — the DES twin
    /// of the emulator's heartbeat-driven `Sampler`.
    sampler: Option<(std::sync::Arc<Sampler>, u64, u64)>,
    /// Events [`Sim::run`] dispatched.
    #[cfg(test)]
    dispatched: u64,
}

const CLIENT: ClientId = ClientId(1);

impl Sim {
    fn schedule(&mut self, at: SimInstant, ev: Ev) {
        self.queue.push(at, ev.pack());
    }

    fn schedule_now(&mut self, ev: Ev) {
        let now = self.now;
        self.schedule(now, ev);
    }

    /// Current virtual time in microseconds, the timestamp unit of
    /// [`smarth_core::obs::EventRecord`].
    fn vtime_us(&self) -> u64 {
        self.now.0 / 1_000
    }

    /// Reserves the server chain from `src` to `dst` (egress → optional
    /// pair shaper → ingress) and returns
    /// `(egress_free, chain_done, arrival)`:
    /// * `egress_free` — when the sender's NIC can start the next packet
    ///   (cut-through across devices);
    /// * `chain_done` — when the packet has fully left the path, i.e.
    ///   when it stops occupying the sender-side forward buffer (this is
    ///   the ack-clocked drain point TCP send buffers observe);
    /// * `arrival` — `chain_done` plus propagation latency.
    fn transmit(
        &mut self,
        src: usize,
        dst: usize,
        earliest: SimInstant,
        size: u64,
    ) -> (SimInstant, SimInstant, SimInstant) {
        let size = ByteSize::bytes(size);
        let t_egress = self.hosts[src].egress.reserve(earliest, size);
        let t_pair = match self.cross_rack {
            Some(bw) if self.hosts[src].rack != self.hosts[dst].rack => self.pairs
                [src * self.hosts.len() + dst]
                .get_or_insert_with(|| RateServer::new(bw))
                .reserve(t_egress, size),
            _ => t_egress,
        };
        let t_ingress = self.hosts[dst].ingress.reserve(t_pair, size);
        (t_egress, t_ingress, t_ingress + self.latency)
    }

    /// Whether hop `hop` takes `size` more bytes now (§IV-C): room in its
    /// forward buffer, the window the emulator's datanode sizes its
    /// forward queue by (a tail forwards nothing), and in its receive →
    /// flush staging queue, bounded by `datanode_client_buffer` at every
    /// hop like the emulator's bounded flush channel, which always admits
    /// one packet.
    fn admits(&self, pipe: usize, hop: usize, size: u64) -> bool {
        let (p, buffer) = (&self.pipes[pipe], self.config.datanode_client_buffer.as_u64());
        let h = &p.hops[hop];
        (hop + 1 == p.hops.len() || h.queue_bytes + size <= self.config.forward_window(hop, buffer))
            && (h.disk_queue_bytes == 0 || h.disk_queue_bytes + size <= buffer)
    }

    // -- event handlers ----------------------------------------------------

    fn on_client_send(&mut self, pipe: usize) {
        let (k, size, prod_done, target0, sent_all_after) = {
            let p = &self.pipes[pipe];
            if p.next_send >= p.packets {
                return;
            }
            let k = p.next_send;
            let size = p.pkt_size(k);
            // Packet production (T_c per packet, continuous since
            // upload start — §III-D's production model).
            let produced = p.first_global_pkt + k + 1;
            let prod_done = SimInstant(self.config.packet_production_cost.0 * produced);
            (k, size, prod_done, p.hops[0].host, k + 1 == p.packets)
        };
        if prod_done > self.now {
            self.schedule(prod_done, Ev::ClientSend { pipe });
            return;
        }
        // Credit at the first node: a saturated disk or mirror stalls
        // the sender.
        if !self.admits(pipe, 0, size) {
            self.pipes[pipe].waiting_credit = true;
            return;
        }
        let (egress_free, _chain_done, arrival) =
            self.transmit(self.client_host, target0, self.now, size);
        self.pipes[pipe].next_send += 1;
        self.schedule(arrival, Ev::Arrive { pipe, hop: 0, pkt: k });
        if !sent_all_after {
            self.schedule(egress_free, Ev::ClientSend { pipe });
        }
    }

    fn on_arrive(&mut self, pipe: usize, hop: usize, pkt: u64) {
        let size = self.pipes[pipe].pkt_size(pkt);
        let host = self.pipes[pipe].hops[hop].host;
        let n_hops = self.pipes[pipe].hops.len();
        {
            let h = &mut self.pipes[pipe].hops[hop];
            debug_assert_eq!(h.arrived, pkt, "arrivals come in order");
            h.arrived += 1;
            if hop + 1 < n_hops {
                h.queue_bytes += size;
            }
            h.disk_queue_bytes += size;
        }
        // Disk: rate-limited write plus the fixed per-packet T_w.
        let disk_done = self.hosts[host]
            .disk
            .reserve(self.now, ByteSize::bytes(size))
            + self.config.packet_write_cost;
        self.schedule(disk_done, Ev::Stored { pipe, hop, pkt });
        if hop + 1 < n_hops {
            self.schedule_now(Ev::Forward { pipe, hop });
        }
    }

    fn on_forward(&mut self, pipe: usize, hop: usize) {
        let (k, size, src, dst) = {
            let p = &self.pipes[pipe];
            let h = &p.hops[hop];
            // Busy, or the next packet not yet received (or none left).
            if h.fwd_busy || h.fwd_next >= h.arrived {
                return;
            }
            let k = h.fwd_next;
            (k, p.pkt_size(k), h.host, p.hops[hop + 1].host)
        };
        if !self.admits(pipe, hop + 1, size) {
            self.pipes[pipe].hops[hop].waiting_credit = true;
            return;
        }
        let (_egress_free, chain_done, arrival) = self.transmit(src, dst, self.now, size);
        {
            let h = &mut self.pipes[pipe].hops[hop];
            h.fwd_busy = true;
            h.fwd_next += 1;
        }
        // Cut-through: the next forward may start as soon as this
        // node's egress NIC frees up...
        self.schedule(_egress_free, Ev::EgressFree { pipe, hop });
        // ...but the packet occupies the forward buffer until it fully
        // cleared the path (ack-clocked drain) — this is what makes
        // small §IV-C buffers push back on the upstream sender.
        self.schedule(chain_done, Ev::ForwardDone { pipe, hop, pkt: k });
        self.schedule(arrival, Ev::Arrive { pipe, hop: hop + 1, pkt: k });
    }

    fn on_egress_free(&mut self, pipe: usize, hop: usize) {
        self.pipes[pipe].hops[hop].fwd_busy = false;
        self.schedule_now(Ev::Forward { pipe, hop });
    }

    fn on_forward_done(&mut self, pipe: usize, hop: usize, pkt: u64) {
        let size = self.pipes[pipe].pkt_size(pkt);
        {
            let h = &mut self.pipes[pipe].hops[hop];
            h.queue_bytes = h.queue_bytes.saturating_sub(size);
        }
        self.wake_upstream(pipe, hop);
    }

    /// Wakes the sender upstream of `hop` if it stalled on this hop's
    /// credit: the rescheduled handler rechecks both the forward-buffer
    /// and the staging credits before it sends.
    fn wake_upstream(&mut self, pipe: usize, hop: usize) {
        if hop == 0 {
            if self.pipes[pipe].waiting_credit {
                self.pipes[pipe].waiting_credit = false;
                self.schedule_now(Ev::ClientSend { pipe });
            }
        } else if self.pipes[pipe].hops[hop - 1].waiting_credit {
            self.pipes[pipe].hops[hop - 1].waiting_credit = false;
            self.schedule_now(Ev::Forward { pipe, hop: hop - 1 });
        }
    }

    fn on_stored(&mut self, pipe: usize, hop: usize, pkt: u64) {
        let last = pkt + 1 == self.pipes[pipe].packets;
        let size = self.pipes[pipe].pkt_size(pkt);
        {
            let h = &mut self.pipes[pipe].hops[hop];
            h.disk_queue_bytes = h.disk_queue_bytes.saturating_sub(size);
        }
        // Staging space freed.
        self.wake_upstream(pipe, hop);
        let actions = self.pipes[pipe].hops[hop].machine.on(Input::Stored { seq: pkt, last });
        self.perform(pipe, hop, actions);
    }

    fn on_ack_down(&mut self, pipe: usize, hop: usize, pkt: u64) {
        let ack = Input::MirrorAck { seq: pkt, statuses: &[] };
        let actions = self.pipes[pipe].hops[hop].machine.on(ack);
        self.perform(pipe, hop, actions);
    }

    /// Performs at this instant what hop `hop`'s machine called for, and
    /// what the answer to a report calls for. An ack is one event per
    /// packet it covers.
    fn perform(&mut self, pipe: usize, hop: usize, mut actions: hop::Actions) {
        let names = |sim: &Sim| {
            let p = &sim.pipes[pipe];
            (p.block, p.ctx, p.target_ids[hop])
        };
        let mut reported = true;
        while std::mem::take(&mut reported) {
            for action in actions {
                match action {
                    Action::Ack(ack) => {
                        let at = self.now + self.latency;
                        for pkt in ack.seq + 1 - ack.batch..ack.seq + 1 {
                            let ev = match hop {
                                0 => Ev::AckClient { pipe, pkt },
                                _ => Ev::AckDown { pipe, hop: hop - 1, pkt },
                            };
                            self.schedule(at, ev);
                        }
                    }
                    Action::Fnfa { .. } => {
                        let (block, ctx, datanode) = names(self);
                        let event = ObsEvent::FnfaSent { datanode, block: block.id };
                        self.obs.emit_virtual_traced(self.vtime_us(), ctx, event);
                        self.schedule(self.now + self.latency, Ev::Fnfa { pipe });
                    }
                    // The DES timelines carry the same per-hop replica
                    // records as the emulator's.
                    Action::Received => {
                        let (block, ctx, datanode) = names(self);
                        let (block, bytes) = (block.id, block.len);
                        let event = ObsEvent::BlockReceived { datanode, block, bytes };
                        self.obs.emit_virtual_traced(self.vtime_us(), ctx, event);
                    }
                    Action::Report => {
                        let (block, _, datanode) = names(self);
                        self.clock.set(self.vtime_us());
                        let report = DatanodeRequest::BlockReceived { id: datanode, block };
                        let ack = self.nn.handle_datanode_request(report);
                        assert_eq!(ack, DatanodeResponse::BlockReceivedAck, "{block:?} on {datanode}");
                        reported = true;
                    }
                    other => unreachable!("no DES event calls for {other:?}"),
                }
            }
            if reported {
                actions = self.pipes[pipe].hops[hop].machine.on(Input::Reported);
            }
        }
    }

    fn on_ack_client(&mut self, pipe: usize, _pkt: u64) {
        let p = &mut self.pipes[pipe];
        p.acked += 1;
        if p.acked == p.packets {
            p.done_at = Some(self.now);
            self.feed(write::Input::FullyAcked(PipelineId(pipe as u64)));
        }
    }

    fn on_fnfa(&mut self, pipe: usize) {
        self.pipes[pipe].fnfa_at.get_or_insert(self.now);
        self.feed(write::Input::Fnfa { id: PipelineId(pipe as u64), now: self.now });
    }

    /// Feeds the client one pipeline event and performs its answer. A
    /// finished block or a drained pipeline lets the client ask again:
    /// for the next block, or, with every byte placed and no pipeline
    /// left, to close the file.
    fn feed(&mut self, input: write::Input<'_>) {
        let actions = self.session.on(input);
        if !self.client(actions) {
            return;
        }
        if self.session.stats.bytes_written < self.file_size.as_u64() || self.session.active() > 0 {
            return self.schedule_now(Ev::TryOpen);
        }
        while self.finished_at.is_none() {
            let actions = self.session.on(write::Input::Close);
            self.client(actions);
        }
    }

    fn on_try_open(&mut self) {
        if self.session.stats.bytes_written == self.file_size.as_u64() {
            return;
        }
        let lent = Lent { now: self.now, tracker: &self.tracker, rng: &mut self.rng };
        let actions = self.session.on(write::Input::NeedBlock(lent));
        self.client(actions);
    }

    /// Performs at this instant what the client session called for, and
    /// what the answers call for. Returns whether a block finished or a
    /// pipeline closed.
    fn client(&mut self, actions: write::Actions) -> bool {
        let mut asks = false;
        for action in actions {
            use write::Action as A;
            match action {
                A::Log(ctx, event) => self.obs.emit_virtual_traced(self.vtime_us(), ctx, event),
                A::AddBlock { previous, excluded } => {
                    if self.now.elapsed_since(self.last_heartbeat) >= self.config.heartbeat_interval {
                        self.heartbeat();
                    }
                    let (client, file_id) = (CLIENT, self.file);
                    let req = ClientRequest::AddBlock { client, file_id, previous, excluded };
                    let reply = self.call(req).map(|resp| match resp {
                        ClientResponse::BlockAllocated(located) => located,
                        other => unreachable!("addBlock answered {other:?}"),
                    });
                    let lent = Lent { now: self.now, tracker: &self.tracker, rng: &mut self.rng };
                    let actions = self.session.on(write::Input::Allocated(reply, lent));
                    asks |= self.client(actions);
                }
                A::GiveBack(block) => {
                    self.obs.metrics().allocations_abandoned.inc();
                    let abandon = ClientRequest::AbandonBlock { client: CLIENT, file_id: self.file, block };
                    self.call(abandon).expect("the namenode takes back an unused block");
                }
                A::Open { block, targets, ctx } => self.open(block, targets, ctx),
                A::SpeedRecord { first, bytes, took } => self.tracker.observe(first, bytes, took),
                // Commits take no time: they ride `addBlock` or `complete`,
                // or go out between two events.
                A::Commit(block) => {
                    let commit = ClientRequest::CommitBlock { client: CLIENT, file_id: self.file, block };
                    self.call(commit).expect("the namenode commits a written block");
                }
                A::Close { id, committed } => {
                    self.obs.metrics().concurrent_pipelines.dec();
                    let p = &self.pipes[id.raw() as usize];
                    let event = ObsEvent::PipelineClosed { block: p.block.id, committed };
                    self.obs.emit_virtual_traced(self.vtime_us(), p.ctx, event);
                    asks = true;
                }
                A::NextBlock => asks = true,
                A::Complete(last) => {
                    let complete = ClientRequest::Complete { client: CLIENT, file_id: self.file, last };
                    self.call(complete).expect("the namenode completes a written file");
                    self.finished_at = Some(self.now + self.config.namenode_rpc_cost);
                }
                // A completion or an FNFA asks again.
                A::AwaitEvent | A::Send { .. } => {}
                A::Failed(e) => panic!("the namenode refused a block: {e}"),
                A::Recover(..) => unreachable!("no DES event fails a pipeline"),
            }
        }
        asks
    }

    /// One client RPC to the hosted namenode, at the current instant.
    fn call(&self, req: ClientRequest) -> DfsResult<ClientResponse> {
        self.clock.set(self.vtime_us());
        self.nn.call(req)
    }

    /// The heartbeats of §III-B: every datanode's, and the client's
    /// speed report.
    fn heartbeat(&mut self) {
        self.clock.set(self.vtime_us());
        for id in (0..self.dn_hosts.len() as u32).map(DatanodeId) {
            let telemetry = Default::default();
            let beat = DatanodeRequest::Heartbeat {
                id,
                used: 0,
                active_transfers: 0,
                telemetry,
            };
            let ack = self.nn.handle_datanode_request(beat);
            assert_eq!(ack, DatanodeResponse::HeartbeatAck, "{id} is registered");
        }
        let records = self.tracker.drain_report();
        if !records.is_empty() {
            let req = ClientRequest::ReportSpeeds {
                client: CLIENT,
                records,
            };
            self.call(req).expect("the namenode takes speed reports");
        }
        self.last_heartbeat = self.now;
    }

    /// Opens a pipeline for the file's next block; the namenode RPC
    /// (`T_n`) passes before its first packet can leave.
    fn open(&mut self, block: ExtendedBlock, targets: Vec<DatanodeInfo>, ctx: Option<TraceCtx>) {
        let target_ids: Vec<DatanodeId> = targets.iter().map(|t| t.id).collect();
        let n_hops = target_ids.len();
        let hops = (target_ids.iter().enumerate())
            .map(|(position, id)| Hop {
                host: self.dn_hosts[id.raw() as usize],
                machine: hop::Hop::new(position, position + 1 < n_hops, self.mode),
                arrived: 0,
                fwd_next: 0,
                fwd_busy: false,
                queue_bytes: 0,
                disk_queue_bytes: 0,
                waiting_credit: false,
            })
            .collect();
        let (block_size, packet_size) = (self.config.block_size.as_u64(), self.config.packet_size.as_u64());
        let offset = self.session.stats.bytes_written;
        let len = block_size.min(self.file_size.as_u64() - offset);
        let packets = len.div_ceil(packet_size).max(1);
        let (pipe, at) = (self.pipes.len(), self.now + self.config.namenode_rpc_cost);
        self.pipes.push(Pipe {
            target_ids: target_ids.clone(),
            block: ExtendedBlock { len, ..block },
            ctx,
            packets,
            packet_size,
            last_packet_size: len - packet_size * (packets - 1),
            first_global_pkt: offset / block_size * self.config.packets_per_block(),
            next_send: 0,
            waiting_credit: false,
            acked: 0,
            hops,
            started: at,
            fnfa_at: None,
            done_at: None,
        });
        self.obs.metrics().concurrent_pipelines.inc();
        let event = ObsEvent::PipelineOpened { block: block.id, targets: target_ids.clone() };
        self.obs.emit_virtual_traced(self.vtime_us(), ctx, event);
        let up = write::Opened { id: PipelineId(pipe as u64), block, targets: target_ids, ctx, at };
        self.session.on(write::Input::Opened(up));
        let sent = self.session.on(write::Input::Packet { len, last: true });
        assert!(sent.into_iter().all(|a| matches!(a, write::Action::Send { .. })), "{block:?} opens unfinished");
        self.schedule(at, Ev::ClientSend { pipe });
    }

    fn run(&mut self) {
        self.schedule_now(Ev::TryOpen);
        let mut guard: u64 = 0;
        while let Some((at, packed)) = self.queue.pop() {
            let ev = Ev::unpack(packed);
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            let vt = self.now.0 / 1_000;
            if let Some((sampler, interval, next_due)) = &mut self.sampler {
                // Catch up every tick the event jump skipped over, so
                // the series keeps its fixed cadence in virtual time.
                while *next_due <= vt {
                    sampler.sample_at(*next_due);
                    *next_due += *interval;
                }
            }
            match ev {
                Ev::ClientSend { pipe } => self.on_client_send(pipe),
                Ev::Arrive { pipe, hop, pkt } => self.on_arrive(pipe, hop, pkt),
                Ev::Forward { pipe, hop } => self.on_forward(pipe, hop),
                Ev::EgressFree { pipe, hop } => self.on_egress_free(pipe, hop),
                Ev::ForwardDone { pipe, hop, pkt } => self.on_forward_done(pipe, hop, pkt),
                Ev::Stored { pipe, hop, pkt } => self.on_stored(pipe, hop, pkt),
                Ev::AckDown { pipe, hop, pkt } => self.on_ack_down(pipe, hop, pkt),
                Ev::AckClient { pipe, pkt } => self.on_ack_client(pipe, pkt),
                Ev::Fnfa { pipe } => self.on_fnfa(pipe),
                Ev::TryOpen => self.on_try_open(),
            }
            guard += 1;
            assert!(
                guard < 500_000_000,
                "runaway simulation: {} events without completing",
                guard
            );
            if self.finished_at.is_some() && self.queue.is_empty() {
                break;
            }
        }
        #[cfg(test)]
        {
            self.dispatched = guard;
        }
        assert!(
            self.finished_at.is_some(),
            "simulation deadlocked: {} of {} bytes placed, {} pipelines open, {} events processed",
            self.session.stats.bytes_written,
            self.file_size.as_u64(),
            self.session.active(),
            guard
        );
    }

    /// Virtual-time twin of `DfsInputStream::read_all`: after the upload
    /// commits, the client asks the namenode for the file's blocks, their
    /// replicas ordered fastest-first for this client, and fetches every
    /// block back as `stripes_for` range stripes (the rule the emulator
    /// calls too). Stripes within a block run concurrently on the modeled
    /// NICs (source disk → source egress → client ingress); blocks are
    /// consumed in order, like the emulator's in-order window join.
    /// Returns when the last stripe lands.
    fn run_read_phase(&mut self) -> SimInstant {
        self.now = self
            .finished_at
            .expect("read phase follows a completed upload");
        let open = ClientRequest::GetBlockLocations {
            client: CLIENT,
            path: self.path.clone(),
        };
        let Ok(ClientResponse::BlockLocations { blocks, .. }) = self.call(open) else {
            panic!("the namenode locates a complete file");
        };
        // One locations RPC before the first byte.
        let mut t = self.now + self.config.namenode_rpc_cost;
        for located in blocks {
            let (block, bytes) = (located.block.id, located.block.len);
            let sources: Vec<DatanodeId> = located.targets.iter().map(|d| d.id).collect();
            let stripes = self.config.stripes_for(sources.len(), bytes);
            self.obs.emit_virtual(
                t.0 / 1_000,
                ObsEvent::ReadStarted {
                    client: CLIENT,
                    block,
                    sources: sources.clone(),
                    stripes: stripes as u64,
                },
            );
            // Equal range cuts: one block's replicas sit on identical
            // modeled NICs, which is what the client's speed-weighted
            // cuts converge to under uniform observed speeds.
            let mut done = t;
            let mut offset = 0u64;
            for (i, src) in sources.iter().take(stripes).enumerate() {
                let cut_end = bytes * (i as u64 + 1) / stripes as u64;
                let len = cut_end - offset;
                if len == 0 {
                    continue;
                }
                // Datanodes registered in spec order, so raw() keys
                // dn_hosts.
                let host = self.dn_hosts[src.raw() as usize];
                let off_disk = self.hosts[host].disk.reserve(t, ByteSize::bytes(len));
                let (_egress_free, _chain_done, arrival) =
                    self.transmit(host, self.client_host, off_disk, len);
                self.obs.emit_virtual(
                    arrival.0 / 1_000,
                    ObsEvent::StripeFetched {
                        block,
                        source: *src,
                        offset,
                        bytes: len,
                    },
                );
                self.obs.metrics().bytes_read.add(len);
                done = done.max(arrival);
                offset = cut_end;
            }
            t = done;
        }
        t
    }
}

/// Runs one upload (plus warm-ups) and returns the measured result.
pub fn simulate_upload(scenario: &SimScenario) -> SimResult {
    simulate_upload_with_obs(scenario, Obs::disabled())
}

/// [`simulate_upload`] with an observability handle. Only the measured
/// (final) round emits events and counts metrics — warm-up uploads run
/// with a disabled handle so the stream describes exactly one upload.
/// Events carry virtual time: `at_us` is simulated microseconds since
/// upload start, not wall time.
pub fn simulate_upload_with_obs(scenario: &SimScenario, obs: Obs) -> SimResult {
    simulate_upload_inner(scenario, obs, None)
}

/// [`simulate_upload_with_obs`] plus a telemetry [`Sampler`] ticked
/// every `interval_us` of *virtual* time during the measured round —
/// the DES twin of the emulator's heartbeat-driven sampling, so series
/// shapes can be compared across engines. The sampler must wrap the
/// same `Metrics` registry as `obs`.
pub fn simulate_upload_with_telemetry(
    scenario: &SimScenario,
    obs: Obs,
    sampler: std::sync::Arc<Sampler>,
    interval_us: u64,
) -> SimResult {
    simulate_upload_inner(scenario, obs, Some((sampler, interval_us.max(1))))
}

fn simulate_upload_inner(
    scenario: &SimScenario,
    obs: Obs,
    telemetry: Option<(std::sync::Arc<Sampler>, u64)>,
) -> SimResult {
    let (sim, read_secs) = run_rounds(scenario, obs, telemetry);
    let secs = sim
        .finished_at
        .expect("run() asserts completion")
        .as_secs_f64();
    let timeline = sim
        .pipes
        .iter()
        .map(|p| PipelineTrace {
            first_node: p.target_ids[0].raw(),
            open_secs: p.started.as_secs_f64(),
            fnfa_secs: p.fnfa_at.map(|t| t.as_secs_f64()),
            done_secs: p
                .done_at
                .expect("completed run has all pipelines done")
                .as_secs_f64(),
        })
        .collect();
    let mut first_node_histogram = BTreeMap::new();
    for p in &sim.pipes {
        *first_node_histogram
            .entry(p.target_ids[0].raw())
            .or_insert(0) += 1;
    }
    SimResult {
        upload_secs: secs,
        file_bytes: scenario.file_size.as_u64(),
        blocks: sim.pipes.len() as u64,
        throughput_mbps: scenario.file_size.as_f64() * 8.0 / 1e6 / secs,
        max_concurrent_pipelines: sim.session.stats.max_concurrent_pipelines,
        first_node_histogram,
        explored_swaps: sim.session.stats.explored_swaps,
        timeline,
        read_secs,
    }
}

/// Runs the warm-up uploads and the measured one, and returns the
/// measured upload's simulation with its read-back time.
fn run_rounds(
    scenario: &SimScenario,
    obs: Obs,
    telemetry: Option<(std::sync::Arc<Sampler>, u64)>,
) -> (Sim, Option<f64>) {
    scenario.config.validate().expect("invalid config");
    assert!(
        scenario.file_size.as_u64() > 0,
        "file size must be positive"
    );
    let config = &scenario.config;
    assert!(
        scenario.file_size.div_ceil(config.block_size) < 1 << PIPE_BITS
            && config.packets_per_block() < 1 << PKT_BITS
            && config.replication < 1 << HOP_BITS,
        "scenario too large for the simulator's event encoding"
    );

    // One namenode and one client live across the rounds, so speed
    // records and ids carry over like a long-running cluster's.
    let clock = Clock::manual();
    let mut nn = NameNodeState::with_clock(
        config.clone(),
        scenario.seed,
        Obs::disabled(),
        clock.clone(),
    );
    let specs = &scenario.spec.hosts;
    let host_index = |name: &str| {
        specs
            .iter()
            .position(|h| h.name == name)
            .expect("host in spec")
    };
    let mut dn_hosts = Vec::new();
    for h in scenario.spec.datanodes() {
        let register = DatanodeRequest::Register {
            host_name: h.name.clone(),
            rack: h.rack.clone(),
            data_addr: format!("{}:50010", h.name),
            capacity: u64::MAX,
        };
        let registered = nn.handle_datanode_request(register);
        let id = DatanodeId(dn_hosts.len() as u32);
        assert_eq!(
            registered,
            DatanodeResponse::Registered { id },
            "datanodes register in spec order"
        );
        dn_hosts.push(host_index(&h.name));
    }
    let client = scenario.spec.client_host();
    let register = ClientRequest::Register {
        host_name: client.name.clone(),
        rack: client.rack.clone(),
    };
    let registered = nn.call(register);
    assert_eq!(
        registered,
        Ok(ClientResponse::Registered { client: CLIENT })
    );
    let client_host = host_index(&client.name);
    let mut tracker = ClientSpeedTracker::new(config.speed_ewma_alpha);
    let mut seeds = ChaCha8Rng::seed_from_u64(scenario.seed);
    // The queue is empty between uploads and keeps its buffers.
    let mut queue = EventQueue::default();

    for round in 0..=scenario.warmup_uploads {
        let measured = round == scenario.warmup_uploads;
        // Host servers are rebuilt per upload (links idle between runs).
        let hosts: Vec<Host> = specs
            .iter()
            .map(|h| {
                let nic = match h.nic_throttle {
                    Some(t) => h.instance.network_bandwidth().min(t),
                    None => h.instance.network_bandwidth(),
                };
                Host {
                    egress: RateServer::new(nic),
                    ingress: RateServer::new(nic),
                    disk: RateServer::new(h.effective_disk(config.disk_bandwidth)),
                    rack: specs
                        .iter()
                        .position(|o| o.rack == h.rack)
                        .expect("h is in specs"),
                }
            })
            .collect();
        let round_obs = if measured {
            obs.clone()
        } else {
            Obs::disabled()
        };
        nn.set_obs(round_obs.clone());
        // Every upload draws from a seed of its own, so its draws do not
        // depend on the file sizes of the uploads before it. Placement
        // draws from the namenode's RNG and Algorithm 2 from the
        // client's, seeded as `MiniCluster` seeds its namenode and
        // clients.
        let seed = seeds.next_u64();
        nn.reseed(seed);
        // `create` brings the first block, as on the emulator.
        clock.set(0);
        let path = format!("/sim/upload-{round}");
        let create = ClientRequest::CreateWithBlock {
            client: CLIENT,
            path: path.clone(),
            replication: config.replication as u32,
            block_size: config.block_size.as_u64(),
            overwrite: false,
            mode: scenario.mode,
        };
        let Ok(ClientResponse::CreatedWithBlock { file_id, first }) = nn.call(create) else {
            panic!("the namenode refused to create {path}");
        };
        let mut sim = Sim {
            now: SimInstant::ZERO,
            queue: std::mem::take(&mut queue),
            pairs: vec![None; hosts.len() * hosts.len()],
            hosts,
            client_host,
            cross_rack: scenario.spec.cross_rack_throttle,
            latency: scenario.spec.link_latency,
            mode: scenario.mode,
            config: config.clone(),
            pipes: Vec::new(),
            session: Session::new(CLIENT, scenario.mode, config, first, round_obs.metrics().clone()),
            finished_at: None,
            nn,
            clock: clock.clone(),
            path,
            file: file_id,
            tracker,
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15),
            dn_hosts: dn_hosts.clone(),
            last_heartbeat: SimInstant::ZERO,
            file_size: scenario.file_size,
            obs: round_obs,
            sampler: if measured {
                telemetry.clone().map(|(s, interval)| (s, interval, 0))
            } else {
                None
            },
            #[cfg(test)]
            dispatched: 0,
        };
        sim.run();
        if let Some((s, _, _)) = &sim.sampler {
            // Close the series on the final metric state; duplicate
            // stamps are dropped by the sampler.
            s.sample_at(sim.finished_at.expect("run() asserts completion").0 / 1_000);
        }
        // A last heartbeat, so the upload's speeds reach the namenode
        // before the read and the next round.
        sim.heartbeat();

        if measured {
            let read_secs = scenario.read_back.then(|| {
                let upload_done = sim.finished_at.expect("run() asserts completion");
                let read_done = sim.run_read_phase();
                SimDuration(read_done.0 - upload_done.0).as_secs_f64()
            });
            return (sim, read_secs);
        }
        (nn, tracker) = (sim.nn, sim.tracker);
        queue = sim.queue;
        queue.reset();
    }
    unreachable!("the measured round returns")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{contention, heterogeneous, two_rack};
    use smarth_core::config::InstanceType;

    /// The DES's namenode is the emulator's: after each golden case every
    /// datanode is alive on its heartbeats, the namespace holds one
    /// complete file per round whose blocks have their committed length
    /// and `replication` reported replicas, and the measured stream is
    /// the measured round's alone, in virtual time.
    #[test]
    fn the_hosted_namenode_records_every_round() {
        use smarth_core::obs::RingBufferSink;
        let (mib, mbps) = (ByteSize::mib(256), Bandwidth::mbps);
        for mode in [WriteMode::Hdfs, WriteMode::Smarth] {
            for mut s in [
                two_rack(InstanceType::Small, mib, Some(mbps(100.0)), mode),
                contention(InstanceType::Medium, mib, 3, mbps(50.0), mode),
                heterogeneous(mib, mode),
            ] {
                s.read_back = true;
                let case = format!("{} {mode:?}", s.spec.name);
                let sink = RingBufferSink::new(1 << 20);
                let (sim, _) = run_rounds(&s, Obs::new(sink.clone()), None);
                // Alive on their heartbeats: every datanode was heard
                // from within one interval.
                let Ok(ClientResponse::Telemetry { rows, .. }) =
                    sim.nn.call(ClientRequest::GetTelemetry)
                else {
                    panic!("{case}: no telemetry")
                };
                let interval_ms = s.config.heartbeat_interval.as_secs_f64() * 1e3;
                assert_eq!(rows.len(), s.spec.datanode_count(), "{case}");
                for r in &rows {
                    assert!(r.alive && r.age_ms as f64 <= interval_ms, "{case}: {r:?}");
                }
                let mut measured = Vec::new();
                for round in 0..=s.warmup_uploads {
                    let path = format!("/sim/upload-{round}");
                    let open = ClientRequest::GetBlockLocations {
                        client: CLIENT,
                        path,
                    };
                    let Ok(ClientResponse::BlockLocations { status, blocks }) = sim.nn.call(open)
                    else {
                        panic!("{case}: round {round} left no file");
                    };
                    assert!(status.complete, "{case}");
                    assert_eq!(status.len, s.file_size.as_u64(), "{case}");
                    assert_eq!(blocks.len(), 4, "{case}");
                    for b in &blocks {
                        assert_eq!(b.block.len, s.config.block_size.as_u64(), "{case}");
                        assert_eq!(b.targets.len(), s.config.replication, "{case}");
                    }
                    measured = blocks.iter().map(|b| b.block.id).collect();
                }
                let listing = sim.nn.call(ClientRequest::List {
                    path: "/sim".into(),
                });
                let Ok(ClientResponse::Listing { entries }) = listing else {
                    panic!("{case}")
                };
                assert_eq!(entries.len(), s.warmup_uploads as usize + 1, "{case}");
                let records = sink.snapshot();
                assert!(records.iter().all(|r| r.virtual_time), "{case}");
                for r in &records {
                    let block = r.event.block();
                    assert!(
                        block.is_none_or(|b| measured.contains(&b)),
                        "{case}: {:?}",
                        r.event
                    );
                }
            }
        }
    }

    /// The events the measured upload dispatches, for each case of
    /// `des_results_are_pinned_bit_for_bit`. A change that adds or drops
    /// events re-pins this on purpose. HDFS dispatches 18 events per
    /// packet and one `TryOpen` per block: 18 × 4 096 + 4. SMARTH adds
    /// one `Fnfa` per block and the `TryOpen` each FNFA schedules.
    #[test]
    fn des_event_counts_are_pinned() {
        use WriteMode::{Hdfs, Smarth};
        let (mib, mbps) = (ByteSize::mib(256), Bandwidth::mbps);
        let golden = [
            ("two_rack", Hdfs, 73_732),
            ("two_rack", Smarth, 73_740),
            ("contention", Hdfs, 73_732),
            ("contention", Smarth, 73_740),
            ("heterogeneous", Hdfs, 73_732),
            ("heterogeneous", Smarth, 73_740),
        ];
        let got = golden.map(|(name, mode, _)| {
            let s = match name {
                "two_rack" => two_rack(InstanceType::Small, mib, Some(mbps(100.0)), mode),
                "contention" => contention(InstanceType::Medium, mib, 3, mbps(50.0), mode),
                _ => heterogeneous(mib, mode),
            };
            (name, mode, run_rounds(&s, Obs::disabled(), None).0.dispatched)
        });
        assert_eq!(got, golden);
    }
}
