//! The discrete-event model of one file upload, at full paper scale.
//!
//! The simulator replays the protocol state machines of the real
//! implementation — packet-granular store-and-forward pipelines, per-hop
//! forward buffers with credit backpressure (§IV-C), in-order ack
//! aggregation, FNFA-triggered pipelining (§III-A), speed tracking with
//! 3-second heartbeat flushes (§III-B) — over [`RateServer`]s standing in
//! for NICs, `tc` pair shapers and disks. Virtual time makes an 8 GB
//! upload over a 50 Mbps-throttled cluster take milliseconds of wall time
//! and produce bit-identical results for a given seed.
//!
//! Pending events wait, packed into one `u64` each, in a monotone radix
//! queue (`queue.rs`), which pops them by due time and then push order.
//! Virtual time restarts at zero for each upload, and so does the queue.
//! A fully acked pipeline drops its per-packet arrays, so the engine's
//! memory follows the pipelines in flight, not the file.
//!
//! A run is steered by the knobs the emulator reads and no others: the
//! scenario's [`WriteMode`] (FNFA pipelining and speed-aware placement)
//! and its [`DfsConfig`]. The decisions both engines make are
//! `smarth-core` calls both make: placement by mode
//! ([`place_block`]), whether Algorithm 2 runs
//! ([`DfsConfig::runs_local_opt`]), the §IV-C forward window
//! ([`DfsConfig::forward_window`]), the read-source order
//! ([`NamenodeSpeedRegistry::order_by_speed`]) and the read stripe count
//! ([`DfsConfig::stripes_for`]). The pipeline-count gate, the wait for a
//! full-width pipeline and the FNFA→`T_n` timing are still written here.

use crate::queue::EventQueue;
use crate::server::RateServer;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use smarth_core::config::{ClusterSpec, DfsConfig, HostRole, WriteMode};
use smarth_core::ids::{BlockId, ClientId, DatanodeId, SpanId, TraceId};
use smarth_core::localopt::{local_optimize, LocalOptOutcome};
use smarth_core::obs::telemetry::Sampler;
use smarth_core::obs::{Obs, ObsEvent, TraceCtx};
use smarth_core::placement::{place_block, ClientLocality};
use smarth_core::proto::DatanodeInfo;
use smarth_core::speed::{ClientSpeedTracker, NamenodeSpeedRegistry};
use smarth_core::topology::{NetworkTopology, TopologyNode};
use smarth_core::units::{Bandwidth, ByteSize, SimDuration, SimInstant};
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
    /// Per-packet state, dropped once the pipeline is fully acked.
    arrived: Vec<Option<SimInstant>>,
    stored: Vec<Option<SimInstant>>,
    down_ack: Vec<Option<SimInstant>>,
    fwd_next: u64,
    fwd_busy: bool,
    /// Bytes received but not yet fully forwarded (forward buffer).
    queue_bytes: u64,
    /// Bytes received but not yet on disk — the staging queue between
    /// the emulator datanode's receive and flush stages. Bounded by
    /// `datanode_client_buffer`, so a slow disk pushes back on the
    /// upstream sender exactly like the bounded flush channel does in
    /// the emulated write path.
    disk_queue_bytes: u64,
    waiting_credit: bool,
}

struct Pipe {
    targets: Vec<usize>,
    target_ids: Vec<DatanodeId>,
    /// Real allocation id, minted like the namenode's block counter —
    /// the same id the emulated cluster would hand this pipeline.
    block: BlockId,
    /// Causal context minted at allocation (virtual-time twin of the
    /// namenode's trace minting).
    ctx: TraceCtx,
    packets: u64,
    packet_size: u64,
    last_packet_size: u64,
    block_bytes: u64,
    first_global_pkt: u64,
    next_send: u64,
    waiting_credit: bool,
    acked: u64,
    hops: Vec<Hop>,
    started: SimInstant,
    fnfa_at: Option<SimInstant>,
    done_at: Option<SimInstant>,
    active: bool,
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
    pipes: Vec<Pipe>,
    // client protocol state
    sending: Option<usize>,
    active_count: usize,
    next_block: u64,
    /// Monotonic allocation counters, mirroring the namenode's block and
    /// trace id generators (satisfies "real BlockIds in the simulator").
    next_block_id: u64,
    next_trace_id: u64,
    /// Virtual timestamp of the latest FNFA, consumed by the next
    /// allocation — the §III-A overlap latency, same as the real client.
    last_fnfa_vt: Option<u64>,
    total_blocks: u64,
    blocks_done: u64,
    produced_packets_before: u64,
    upload_start: SimInstant,
    finished_at: Option<SimInstant>,
    // policy machinery (shared code with the real system)
    topo: NetworkTopology,
    registry: NamenodeSpeedRegistry,
    tracker: ClientSpeedTracker,
    infos: Vec<DatanodeInfo>,
    dn_hosts: Vec<usize>,
    client_rack: String,
    rng: ChaCha8Rng,
    last_speed_flush: SimInstant,
    // measurement
    file_size: ByteSize,
    max_concurrent: usize,
    first_node_histogram: BTreeMap<u32, u64>,
    explored_swaps: u64,
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

    /// The §IV-C forward window of pipeline position `hop`, the same
    /// rule the emulator's datanode sizes its forward queue by.
    fn buffer_of(&self, hop: usize) -> u64 {
        self.config
            .forward_window(hop, self.config.datanode_client_buffer.as_u64())
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

    /// Whether `size` more bytes would overflow the hop's receive→flush
    /// staging queue. Mirrors the emulator's bounded flush channel: the
    /// bound is `datanode_client_buffer` at every hop, and an empty
    /// queue always admits one packet.
    fn staging_full(&self, pipe: usize, hop: usize, size: u64) -> bool {
        let occ = self.pipes[pipe].hops[hop].disk_queue_bytes;
        occ > 0 && occ + size > self.config.datanode_client_buffer.as_u64()
    }

    // -- event handlers ----------------------------------------------------

    fn on_client_send(&mut self, pipe: usize) {
        if self.sending != Some(pipe) {
            return;
        }
        let (k, size, prod_done, target0, sent_all_after) = {
            let p = &self.pipes[pipe];
            if p.next_send >= p.packets {
                return;
            }
            let k = p.next_send;
            let size = p.pkt_size(k);
            // Packet production (T_c per packet, continuous since
            // upload start — §III-D's production model).
            let global = p.first_global_pkt + k;
            let prod_done = self.upload_start
                + SimDuration::from_nanos(
                    self.config.packet_production_cost.0 * (global - self.produced_packets_before + 1),
                );
            (k, size, prod_done, p.targets[0], k + 1 == p.packets)
        };
        if prod_done > self.now {
            self.schedule(prod_done, Ev::ClientSend { pipe });
            return;
        }
        // Credit on the first node's forward buffer (only relevant when
        // the pipeline actually forwards, i.e. replication > 1).
        if self.pipes[pipe].hops.len() > 1 {
            let occ = self.pipes[pipe].hops[0].queue_bytes;
            if occ + size > self.buffer_of(0) {
                self.pipes[pipe].waiting_credit = true;
                return;
            }
        }
        // Credit on the first node's receive→flush staging queue: the
        // emulator bounds bytes waiting for disk by
        // `datanode_client_buffer`, so a saturated disk stalls the
        // sender. An empty queue always admits one packet (the bounded
        // channel's minimum capacity of one).
        if self.staging_full(pipe, 0, size) {
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
        // In SMARTH mode the client stays "sending" until the FNFA; in
        // HDFS mode until the full ack. Both handled by those events.
    }

    fn on_arrive(&mut self, pipe: usize, hop: usize, pkt: u64) {
        let size = self.pipes[pipe].pkt_size(pkt);
        let host = self.pipes[pipe].hops[hop].host;
        let n_hops = self.pipes[pipe].hops.len();
        {
            let h = &mut self.pipes[pipe].hops[hop];
            h.arrived[pkt as usize] = Some(self.now);
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
        let n_hops = self.pipes[pipe].hops.len();
        debug_assert!(hop + 1 < n_hops);
        let (k, size, arrived_at, src, dst) = {
            let p = &self.pipes[pipe];
            let h = &p.hops[hop];
            if h.fwd_busy || h.fwd_next >= p.packets {
                return;
            }
            let k = h.fwd_next;
            match h.arrived[k as usize] {
                Some(t) => (
                    k,
                    p.pkt_size(k),
                    t,
                    h.host,
                    p.hops[hop + 1].host,
                ),
                None => return, // not yet received
            }
        };
        // Credit at the next hop's forward buffer (tail stores only).
        if hop + 2 < n_hops {
            let occ = self.pipes[pipe].hops[hop + 1].queue_bytes;
            if occ + size > self.buffer_of(hop + 1) {
                self.pipes[pipe].hops[hop].waiting_credit = true;
                return;
            }
        }
        // Credit at the next hop's receive→flush staging queue — every
        // hop (including the tail) bounds bytes awaiting disk.
        if self.staging_full(pipe, hop + 1, size) {
            self.pipes[pipe].hops[hop].waiting_credit = true;
            return;
        }
        let earliest = if arrived_at > self.now { arrived_at } else { self.now };
        let (_egress_free, chain_done, arrival) = self.transmit(src, dst, earliest, size);
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
        // Wake the upstream credit waiter now that buffer space freed.
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
        let n_hops = self.pipes[pipe].hops.len();
        let is_last_pkt = pkt + 1 == self.pipes[pipe].packets;
        let size = self.pipes[pipe].pkt_size(pkt);
        {
            let h = &mut self.pipes[pipe].hops[hop];
            h.stored[pkt as usize] = Some(self.now);
            h.disk_queue_bytes = h.disk_queue_bytes.saturating_sub(size);
        }
        // Staging space freed — wake the upstream sender if it stalled
        // on this hop's flush backlog. The rescheduled handler rechecks
        // both the forward-buffer and staging credits before sending.
        if hop == 0 {
            if self.pipes[pipe].waiting_credit {
                self.pipes[pipe].waiting_credit = false;
                self.schedule_now(Ev::ClientSend { pipe });
            }
        } else if self.pipes[pipe].hops[hop - 1].waiting_credit {
            self.pipes[pipe].hops[hop - 1].waiting_credit = false;
            self.schedule_now(Ev::Forward { pipe, hop: hop - 1 });
        }
        if is_last_pkt {
            // The replica is fully on disk at this hop — the virtual twin
            // of the emulator datanode's BlockReceived, so DES timelines
            // carry the same per-hop residency spans the conformance
            // differ joins on.
            let p = &self.pipes[pipe];
            let (block, ctx, datanode, bytes) =
                (p.block, p.ctx, p.target_ids[hop], p.block_bytes);
            self.obs.emit_virtual_traced(
                self.vtime_us(),
                ctx,
                ObsEvent::BlockReceived {
                    datanode,
                    block,
                    bytes,
                },
            );
        }
        if hop == 0 && is_last_pkt && self.mode == WriteMode::Smarth {
            let at = self.now + self.latency;
            let p = &self.pipes[pipe];
            let (block, ctx, datanode) = (p.block, p.ctx, p.target_ids[0]);
            self.obs.emit_virtual_traced(
                self.vtime_us(),
                ctx,
                ObsEvent::FnfaSent { datanode, block },
            );
            self.schedule(at, Ev::Fnfa { pipe });
        }
        let down_ready =
            hop + 1 == n_hops || self.pipes[pipe].hops[hop].down_ack[pkt as usize].is_some();
        if down_ready {
            self.emit_ack_up(pipe, hop, pkt);
        }
    }

    fn on_ack_down(&mut self, pipe: usize, hop: usize, pkt: u64) {
        self.pipes[pipe].hops[hop].down_ack[pkt as usize] = Some(self.now);
        if self.pipes[pipe].hops[hop].stored[pkt as usize].is_some() {
            self.emit_ack_up(pipe, hop, pkt);
        }
    }

    fn emit_ack_up(&mut self, pipe: usize, hop: usize, pkt: u64) {
        let at = self.now + self.latency;
        if hop == 0 {
            self.schedule(at, Ev::AckClient { pipe, pkt });
        } else {
            self.schedule(at, Ev::AckDown { pipe, hop: hop - 1, pkt });
        }
    }

    fn on_ack_client(&mut self, pipe: usize, _pkt: u64) {
        let p = &mut self.pipes[pipe];
        p.acked += 1;
        if p.acked == p.packets && p.active {
            p.active = false;
            p.done_at = Some(self.now);
            // Every hop has stored and acked every packet: no handler
            // reads the per-packet state again.
            for h in &mut p.hops {
                h.arrived = Vec::new();
                h.stored = Vec::new();
                h.down_ack = Vec::new();
            }
            self.active_count -= 1;
            self.blocks_done += 1;
            if self.sending == Some(pipe) {
                // HDFS mode: the block completes while still "current".
                self.sending = None;
            }
            self.obs.metrics().blocks_committed.inc();
            self.obs
                .metrics()
                .bytes_written
                .add(self.pipes[pipe].block_bytes);
            self.obs.metrics().concurrent_pipelines.dec();
            let (block, ctx) = (self.pipes[pipe].block, self.pipes[pipe].ctx);
            self.obs.emit_virtual_traced(
                self.vtime_us(),
                ctx,
                ObsEvent::PipelineClosed {
                    block,
                    committed: true,
                },
            );
            if self.blocks_done == self.total_blocks {
                // complete() RPC.
                self.finished_at = Some(self.now + self.config.namenode_rpc_cost);
            } else {
                self.schedule_now(Ev::TryOpen);
            }
        }
    }

    fn on_fnfa(&mut self, pipe: usize) {
        // §III-B: record the observed client→first-datanode speed.
        let (first, bytes, elapsed) = {
            let p = &self.pipes[pipe];
            (
                p.target_ids[0],
                p.block_bytes,
                self.now.elapsed_since(p.started),
            )
        };
        self.tracker
            .observe(first, ByteSize::bytes(bytes), elapsed);
        if self.pipes[pipe].fnfa_at.is_none() {
            self.pipes[pipe].fnfa_at = Some(self.now);
            self.last_fnfa_vt = Some(self.vtime_us());
            self.obs.metrics().fnfa_received.inc();
            let (block, ctx) = (self.pipes[pipe].block, self.pipes[pipe].ctx);
            self.obs.emit_virtual_traced(
                self.vtime_us(),
                ctx,
                ObsEvent::FnfaReceived {
                    block,
                    first_node: first,
                },
            );
        }
        if self.sending == Some(pipe) {
            self.sending = None;
            self.schedule_now(Ev::TryOpen);
        }
    }

    fn flush_speeds_if_due(&mut self) {
        // Decay records up to the current virtual instant; called before
        // every placement so Algorithm 1 always reads aged speeds.
        self.registry.age(self.vtime_us());
        let elapsed = self.now.elapsed_since(self.last_speed_flush);
        if elapsed >= self.config.heartbeat_interval {
            let records = self.tracker.drain_report();
            if !records.is_empty() {
                self.obs
                    .metrics()
                    .speed_records_ingested
                    .add(records.len() as u64);
                self.obs.emit_virtual(
                    self.vtime_us(),
                    ObsEvent::SpeedReportIngested {
                        client: CLIENT,
                        records: records.len() as u64,
                    },
                );
                self.registry.ingest(CLIENT, &records);
            }
            self.last_speed_flush = self.now;
        }
    }

    fn on_try_open(&mut self) {
        if self.sending.is_some() || self.next_block >= self.total_blocks {
            return;
        }
        if self.mode == WriteMode::Smarth {
            let max = self.config.max_pipelines(self.dn_hosts.len());
            if self.active_count >= max {
                return; // a completion event will retry
            }
        } else if self.active_count > 0 {
            return; // stop-and-wait
        }
        self.flush_speeds_if_due();

        // Busy set: §IV-C — one pipeline per datanode per client.
        let busy: Vec<DatanodeId> = self
            .pipes
            .iter()
            .filter(|p| p.active)
            .flat_map(|p| p.target_ids.iter().copied())
            .collect();
        let locality = ClientLocality {
            client: CLIENT,
            rack: self.client_rack.clone(),
            local_datanode: None,
        };
        let replication = self.config.replication;
        let Ok(placement) = place_block(
            self.mode,
            &self.topo,
            &self.registry,
            &mut self.rng,
            &locality,
            replication,
            self.dn_hosts.len(),
            &busy,
        ) else {
            return; // all nodes busy; retry on next completion
        };
        if placement.targets.len() < replication && self.active_count > 0 {
            // Short pipeline caused by our own busy set (§IV-C): wait
            // for a pipeline to drain instead of under-replicating.
            return;
        }
        let mut target_infos: Vec<DatanodeInfo> = placement
            .targets
            .iter()
            .map(|id| self.infos[id.raw() as usize].clone())
            .collect();
        let mut explored_swap = None;
        if self.config.runs_local_opt(self.mode) {
            if let LocalOptOutcome::Explored { swapped_index } = local_optimize(
                &mut target_infos,
                &self.tracker,
                self.config.local_opt_threshold,
                &mut self.rng,
            ) {
                self.explored_swaps += 1;
                explored_swap = Some(swapped_index);
            }
        }
        let final_ids: Vec<DatanodeId> = target_infos.iter().map(|t| t.id).collect();
        let hosts: Vec<usize> = final_ids
            .iter()
            .map(|id| self.dn_hosts[id.raw() as usize])
            .collect();

        // Block geometry.
        let block_size = self.config.block_size.as_u64();
        let packet_size = self.config.packet_size.as_u64();
        let block_index = self.next_block;
        self.next_block += 1;
        let file = self.file_size.as_u64();
        let offset = block_index * block_size;
        let block_bytes = block_size.min(file - offset);
        let packets = block_bytes.div_ceil(packet_size).max(1);
        let last_packet_size = block_bytes - packet_size * (packets - 1);
        let ppb = self.config.packets_per_block();

        let hops = hosts
            .iter()
            .map(|&host| Hop {
                host,
                arrived: vec![None; packets as usize],
                stored: vec![None; packets as usize],
                down_ack: vec![None; packets as usize],
                fwd_next: 0,
                fwd_busy: false,
                queue_bytes: 0,
                disk_queue_bytes: 0,
                waiting_credit: false,
            })
            .collect();

        // Namenode RPC (T_n) before the first packet can leave. The
        // block id and causal trace are minted here, exactly where the
        // real namenode would mint them.
        let start = self.now + self.config.namenode_rpc_cost;
        let pipe_idx = self.pipes.len();
        let block = BlockId(self.next_block_id);
        self.next_block_id += 1;
        let ctx = TraceCtx::new(
            TraceId(self.next_trace_id),
            SpanId(self.next_trace_id + 1),
        );
        self.next_trace_id += 2;
        *self
            .first_node_histogram
            .entry(final_ids[0].raw())
            .or_insert(0) += 1;
        self.pipes.push(Pipe {
            targets: hosts,
            target_ids: final_ids,
            block,
            ctx,
            packets,
            packet_size,
            last_packet_size,
            block_bytes,
            first_global_pkt: block_index * ppb,
            next_send: 0,
            waiting_credit: false,
            acked: 0,
            hops,
            started: start,
            fnfa_at: None,
            done_at: None,
            active: true,
        });
        let at = self.vtime_us();
        // The §III-A overlap latency, measured the same way the real
        // client measures it (FNFA consumed by the next allocation).
        if let Some(fnfa_at) = self.last_fnfa_vt.take() {
            self.obs
                .metrics()
                .fnfa_to_allocation_us
                .observe(at.saturating_sub(fnfa_at));
        }
        if self.mode == WriteMode::Smarth {
            self.obs.metrics().speed_aware_placements.inc();
        }
        self.obs
            .emit_virtual_traced(at, ctx, placement.decision(CLIENT, block));
        let final_ids = self.pipes[pipe_idx].target_ids.clone();
        self.obs.emit_virtual_traced(
            at,
            ctx,
            ObsEvent::BlockAllocated {
                client: CLIENT,
                block,
                targets: final_ids.clone(),
            },
        );
        if let Some(swapped_index) = explored_swap {
            self.obs.metrics().exploration_swaps.inc();
            self.obs.emit_virtual_traced(
                at,
                ctx,
                ObsEvent::ExplorationSwap {
                    block,
                    promoted: final_ids[0],
                    displaced: final_ids[swapped_index],
                },
            );
        }
        self.obs.metrics().concurrent_pipelines.inc();
        self.obs
            .emit_virtual_traced(at, ctx, ObsEvent::PipelineOpened { block, targets: final_ids });
        self.sending = Some(pipe_idx);
        self.active_count += 1;
        self.max_concurrent = self.max_concurrent.max(self.active_count);
        self.schedule(start, Ev::ClientSend { pipe: pipe_idx });
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
            "simulation deadlocked: {} of {} blocks done, {} events processed",
            self.blocks_done,
            self.total_blocks,
            guard
        );
    }

    /// Virtual-time twin of `DfsInputStream::read_all`: after the upload
    /// commits, the client fetches every block back as `stripes_for`
    /// range stripes (the rule the emulator calls too), sources ordered
    /// fastest-first by the registry exactly like the namenode orders
    /// `GetBlockLocations`. Stripes within a block run concurrently on
    /// the modeled NICs (source disk → source egress → client ingress);
    /// blocks are consumed in order, like the emulator's in-order window
    /// join. Returns when the last stripe lands.
    fn run_read_phase(&mut self) -> SimInstant {
        // One locations RPC before the first byte.
        let mut t = self
            .finished_at
            .expect("read phase follows a completed upload")
            + self.config.namenode_rpc_cost;
        for pipe in 0..self.pipes.len() {
            let (block, bytes, mut sources) = {
                let p = &self.pipes[pipe];
                (p.block, p.block_bytes, p.target_ids.clone())
            };
            // Fastest-first, unknown-speed sources last in pipeline
            // order: the namenode's `GetBlockLocations` order.
            self.registry.order_by_speed(CLIENT, &mut sources);
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
                // target_ids index datanode_specs directly (minted as
                // DatanodeId(spec index)), so raw() keys dn_hosts.
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
    SimResult {
        upload_secs: secs,
        file_bytes: scenario.file_size.as_u64(),
        blocks: sim.total_blocks,
        throughput_mbps: scenario.file_size.as_f64() * 8.0 / 1e6 / secs,
        max_concurrent_pipelines: sim.max_concurrent,
        first_node_histogram: sim.first_node_histogram,
        explored_swaps: sim.explored_swaps,
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

    // Build the static cluster view once; speed state persists across
    // warm-up uploads like a long-lived client session.
    let mut topo = NetworkTopology::new();
    let mut infos = Vec::new();
    let datanode_specs: Vec<_> = scenario.spec.datanodes().cloned().collect();
    for (i, h) in datanode_specs.iter().enumerate() {
        let id = DatanodeId(i as u32);
        topo.add(TopologyNode {
            id,
            rack: h.rack.clone(),
            host_name: h.name.clone(),
        });
        infos.push(DatanodeInfo {
            id,
            host_name: h.name.clone(),
            rack: h.rack.clone(),
            addr: format!("{}:50010", h.name),
        });
    }

    let mut registry = NamenodeSpeedRegistry::with_half_life(scenario.config.speed_half_life);
    let mut tracker = ClientSpeedTracker::new(scenario.config.speed_ewma_alpha);
    let mut rng = ChaCha8Rng::seed_from_u64(scenario.seed);
    // The queue is empty between uploads and keeps its buffers.
    let mut queue = EventQueue::default();

    for round in 0..=scenario.warmup_uploads {
        let measured = round == scenario.warmup_uploads;
        // Host servers are rebuilt per upload (links idle between runs);
        // registry/tracker persist (that is the warm-up's purpose).
        let mut hosts = Vec::new();
        let mut client_host = usize::MAX;
        let mut dn_hosts = vec![usize::MAX; datanode_specs.len()];
        let mut client_rack = String::new();
        let specs = &scenario.spec.hosts;
        for h in specs {
            let nic = match h.nic_throttle {
                Some(t) => h.instance.network_bandwidth().min(t),
                None => h.instance.network_bandwidth(),
            };
            let idx = hosts.len();
            let rack = specs.iter().position(|o| o.rack == h.rack);
            hosts.push(Host {
                egress: RateServer::new(nic),
                ingress: RateServer::new(nic),
                disk: RateServer::new(h.effective_disk(scenario.config.disk_bandwidth)),
                rack: rack.expect("h is in specs"),
            });
            match h.role {
                HostRole::Client => {
                    client_host = idx;
                    client_rack = h.rack.clone();
                }
                HostRole::DataNode => {
                    let dn_index = datanode_specs
                        .iter()
                        .position(|d| d.name == h.name)
                        .expect("datanode spec");
                    dn_hosts[dn_index] = idx;
                }
                HostRole::NameNode => {}
            }
        }
        assert!(client_host != usize::MAX, "spec has no client host");

        let total_blocks = scenario
            .file_size
            .div_ceil(scenario.config.block_size)
            .max(1);
        let mut sim = Sim {
            now: SimInstant::ZERO,
            queue: std::mem::take(&mut queue),
            pairs: vec![None; hosts.len() * hosts.len()],
            hosts,
            client_host,
            cross_rack: scenario.spec.cross_rack_throttle,
            latency: scenario.spec.link_latency,
            mode: scenario.mode,
            config: scenario.config.clone(),
            pipes: Vec::new(),
            sending: None,
            active_count: 0,
            next_block: 0,
            next_block_id: 1,
            next_trace_id: 1,
            last_fnfa_vt: None,
            total_blocks,
            blocks_done: 0,
            produced_packets_before: 0,
            upload_start: SimInstant::ZERO,
            finished_at: None,
            topo: topo.clone(),
            registry: std::mem::take(&mut registry),
            tracker: tracker.clone(),
            infos: infos.clone(),
            dn_hosts: dn_hosts.clone(),
            client_rack,
            rng: ChaCha8Rng::seed_from_u64(rng_next(&mut rng)),
            last_speed_flush: SimInstant::ZERO,
            file_size: scenario.file_size,
            max_concurrent: 0,
            first_node_histogram: BTreeMap::new(),
            explored_swaps: 0,
            obs: if measured {
                obs.clone()
            } else {
                Obs::disabled()
            },
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

        // Final heartbeat so warm-up knowledge reaches the registry —
        // before the read phase, which orders sources by that registry.
        let records = sim.tracker.drain_report();
        if !records.is_empty() {
            sim.registry.ingest(CLIENT, &records);
        }

        if measured {
            let read_secs = scenario.read_back.then(|| {
                let upload_done = sim.finished_at.expect("run() asserts completion");
                let read_done = sim.run_read_phase();
                SimDuration(read_done.0 - upload_done.0).as_secs_f64()
            });
            return (sim, read_secs);
        }
        registry = sim.registry;
        tracker = sim.tracker;
        queue = sim.queue;
        queue.reset();
    }
    unreachable!("the measured round returns")
}

fn rng_next(rng: &mut ChaCha8Rng) -> u64 {
    use rand::RngCore;
    rng.next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{contention, heterogeneous, two_rack};
    use smarth_core::config::InstanceType;

    /// After a run every pipeline is fully acked, so none may hold its
    /// per-packet arrays.
    #[test]
    fn fully_acked_pipes_hold_no_per_packet_state() {
        let mib = ByteSize::mib(256);
        for mode in [WriteMode::Hdfs, WriteMode::Smarth] {
            for s in [
                two_rack(InstanceType::Small, mib, Some(Bandwidth::mbps(100.0)), mode),
                contention(InstanceType::Medium, mib, 3, Bandwidth::mbps(50.0), mode),
                heterogeneous(mib, mode),
            ] {
                let (sim, _) = run_rounds(&s, Obs::disabled(), None);
                assert_eq!(sim.pipes.len(), 4);
                for (i, p) in sim.pipes.iter().enumerate() {
                    for h in &p.hops {
                        let held = [&h.arrived, &h.stored, &h.down_ack].map(Vec::capacity);
                        assert_eq!(held, [0; 3], "{mode:?}: pipe {i} keeps per-packet state");
                    }
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
