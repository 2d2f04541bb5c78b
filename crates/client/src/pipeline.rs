//! One write pipeline: the client-side connection to the first datanode
//! of a block, the retained-packet buffer and the PacketResponder thread.
//!
//! SMARTH keeps *several* of these alive at once (§III-A step 4: "After
//! creating a pipeline, we create an ACK queue and a PacketResponder
//! thread for it"). Each pipeline reports three kinds of events back to
//! its owning stream through a shared channel:
//!
//! * [`PipelineEventKind::FirstNodeFinish`] — the FNFA arrived: the first
//!   datanode holds the whole block, a new pipeline may start;
//! * [`PipelineEventKind::FullyAcked`] — every packet was acked by every
//!   datanode: the block is durable at full replication;
//! * [`PipelineEventKind::Error`] — an error ack or a broken connection:
//!   the stream must run recovery (Algorithms 3/4).
//!
//! Packets are retained until the block is fully acked so recovery can
//! requeue them ("moves all packets in ACK queue back to data queue",
//! Algorithm 3 line 3).

use crossbeam_channel::Sender;
use parking_lot::Mutex;
use smarth_core::config::WriteMode;
use smarth_core::error::{DfsError, DfsResult};
use smarth_core::ids::{ClientId, DatanodeId, ExtendedBlock, PipelineId, SpanId, TraceId};
use smarth_core::obs::{Obs, ObsEvent, TraceCtx};
use smarth_core::proto::{AckKind, DataOp, DatanodeInfo, Packet, PipelineAck, WriteBlockHeader};
use smarth_core::units::SimInstant;
use smarth_core::wire::{send_message, send_packet};
use smarth_core::write::Opened;
use smarth_fabric::{Fabric, WriteHalf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The client's clock: the process-wide one the event log stamps with.
pub(crate) fn now() -> SimInstant {
    SimInstant(Obs::now_us() * 1_000)
}

/// What a pipeline can report to its stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineEventKind {
    FirstNodeFinish,
    FullyAcked,
    /// `failed_index` is the pipeline position of the first failing node
    /// when an error ack identified it; `None` when the connection broke
    /// without one (the stream probes replicas in that case).
    Error { failed_index: Option<usize> },
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineEvent {
    pub pipeline: PipelineId,
    pub kind: PipelineEventKind,
}

const NO_LAST: u64 = u64::MAX;

#[derive(Debug)]
struct Shared {
    /// Every packet sent on this pipeline, in seq order, retained until
    /// the block fully acks (recovery resend source).
    sent: Mutex<Vec<Packet>>,
    /// Number of in-order packet acks received.
    acked: AtomicU64,
    /// Sequence of the packet flagged `last_in_block`, or `NO_LAST`.
    last_seq: AtomicU64,
}

/// An open block-write pipeline.
pub struct Pipeline {
    pub id: PipelineId,
    /// Block being written (generation reflects any recovery).
    pub block: ExtendedBlock,
    /// Full pipeline membership, first datanode first.
    pub targets: Vec<DatanodeInfo>,
    /// Causal context minted by the namenode at allocation time; `None`
    /// for untraced writes (e.g. blocks located by a read path).
    pub ctx: Option<TraceCtx>,
    /// When the first packet was sent (speed measurement, §III-B).
    pub started: SimInstant,
    write: WriteHalf,
    shared: Arc<Shared>,
    responder: Option<JoinHandle<()>>,
    obs: Obs,
}

impl Pipeline {
    /// Connects to the first target, sends the WriteBlock header and
    /// spawns the PacketResponder.
    #[allow(clippy::too_many_arguments)]
    pub fn open(
        fabric: &Fabric,
        client_host: &str,
        client: ClientId,
        id: PipelineId,
        block: ExtendedBlock,
        targets: Vec<DatanodeInfo>,
        ctx: Option<TraceCtx>,
        mode: WriteMode,
        client_buffer: u64,
        events: Sender<PipelineEvent>,
        obs: Obs,
    ) -> DfsResult<Self> {
        assert!(!targets.is_empty(), "pipeline needs at least one target");
        let mut stream = fabric.connect(client_host, &targets[0].addr)?;
        let header = WriteBlockHeader {
            pipeline: id,
            client,
            block,
            mode,
            targets: targets[1..].to_vec(),
            position: 0,
            client_buffer,
            trace: ctx.map_or(TraceId::INVALID, |c| c.trace),
            span: ctx.map_or(SpanId::INVALID, |c| c.span),
        };
        send_message(&mut stream, &DataOp::WriteBlock(header))?;
        let (mut read, write) = stream.split();

        let shared = Arc::new(Shared {
            sent: Mutex::new(Vec::new()),
            acked: AtomicU64::new(0),
            last_seq: AtomicU64::new(NO_LAST),
        });

        let responder = {
            let shared = Arc::clone(&shared);
            let obs = obs.clone();
            std::thread::Builder::new()
                .name(format!("pipe-{}-responder", id.raw()))
                .spawn(move || {
                    let send = |kind| {
                        let _ = events.send(PipelineEvent { pipeline: id, kind });
                    };
                    loop {
                        let ack: PipelineAck =
                            match smarth_core::wire::recv_message(&mut read) {
                                Ok(a) => a,
                                Err(_) => {
                                    return send(PipelineEventKind::Error { failed_index: None })
                                }
                            };
                        match ack.kind {
                            AckKind::FirstNodeFinish => send(PipelineEventKind::FirstNodeFinish),
                            AckKind::Packet => {
                                if let Some(idx) = ack.first_error() {
                                    let failed_index = Some(idx);
                                    return send(PipelineEventKind::Error { failed_index });
                                }
                                // Acks are cumulative: one frame may cover
                                // a whole batch of consecutive packets
                                // (the datanode responder coalesces under
                                // load). Advance by the batch width.
                                let batch = ack.batch.max(1);
                                let acked =
                                    shared.acked.fetch_add(batch, Ordering::SeqCst) + batch;
                                obs.metrics().packets_in_flight.sub(batch);
                                obs.emit_traced(ctx, ObsEvent::PacketBatchAcked {
                                    block: block.id,
                                    acked_seq: ack.seq,
                                    packets: batch,
                                });
                                // Fully acked once the last packet has
                                // been *sent* (so the retained count is
                                // final) and every sent packet on this
                                // pipeline is acked. Counting sent
                                // packets (not seq numbers) keeps this
                                // correct for post-recovery pipelines
                                // that resend only a suffix.
                                if shared.last_seq.load(Ordering::SeqCst) != NO_LAST {
                                    let total = shared.sent.lock().len() as u64;
                                    if acked >= total {
                                        return send(PipelineEventKind::FullyAcked);
                                    }
                                }
                            }
                        }
                    }
                })
                .map_err(|e| DfsError::internal(format!("spawn responder: {e}")))?
        };

        Ok(Self {
            id,
            block,
            targets,
            ctx,
            started: now(),
            write,
            shared,
            responder: Some(responder),
            obs,
        })
    }

    /// Sends one packet downstream, retaining it for possible recovery.
    /// The send blocks under bandwidth backpressure — that is the
    /// emulated network doing its job.
    ///
    /// Retention is cheap: `Packet::payload` is a [`bytes::Bytes`], so
    /// the `pkt.clone()` below copies a header and bumps a refcount —
    /// it never duplicates payload bytes.
    pub fn send_packet(&mut self, pkt: Packet) -> DfsResult<()> {
        if pkt.last_in_block {
            self.shared.last_seq.store(pkt.seq, Ordering::SeqCst);
        }
        self.shared.sent.lock().push(pkt.clone());
        self.obs.metrics().packets_sent.inc();
        self.obs.metrics().packets_in_flight.inc();
        send_packet(&mut self.write, &pkt)
    }

    /// Packets acked so far (in-order prefix).
    pub fn packets_acked(&self) -> u64 {
        self.shared.acked.load(Ordering::SeqCst)
    }

    /// True once the last packet has been handed to `send_packet`.
    pub fn finished_sending(&self) -> bool {
        self.shared.last_seq.load(Ordering::SeqCst) != NO_LAST
    }

    /// Datanode ids in this pipeline (the §IV-C busy set).
    pub fn datanode_ids(&self) -> Vec<DatanodeId> {
        self.targets.iter().map(|t| t.id).collect()
    }

    /// The pipeline as the write session knows it.
    pub(crate) fn up(&self) -> Opened {
        let (id, block, ctx, at) = (self.id, self.block, self.ctx, self.started);
        Opened { id, block, targets: self.datanode_ids(), ctx, at }
    }

    /// Takes all retained packets — the recovery resend source
    /// (Algorithm 3 line 3: ACK queue back to data queue).
    pub fn take_retained_packets(&self) -> Vec<Packet> {
        let taken = std::mem::take(&mut *self.shared.sent.lock());
        // Whatever was never acked on this pipeline is no longer in
        // flight — the recovery resend will re-count each packet.
        let outstanding = (taken.len() as u64).saturating_sub(self.packets_acked());
        self.obs.metrics().packets_in_flight.sub(outstanding);
        taken
    }

}

/// Dropping a pipeline shuts it down, joining the responder; safe on
/// broken pipelines.
impl Drop for Pipeline {
    fn drop(&mut self) {
        self.write.close_write();
        if let Some(r) = self.responder.take() {
            // The responder exits when the connection breaks/drains.
            let _ = r.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_channel::unbounded;
    use smarth_core::proto::{AckStatus, DataOp, Packet};
    use smarth_core::units::Bandwidth;
    use smarth_core::wire::{recv_message, send_message};
    use smarth_fabric::{Fabric, FabricConfig};
    use std::time::Duration;

    /// A scripted "datanode": consumes the WriteBlock header, then acks
    /// each packet, optionally emitting an FNFA on the last one or an
    /// error ack at a given seq.
    fn spawn_acker(fabric: &Fabric, addr: &str, fnfa_on_last: bool, error_at: Option<u64>) {
        let listener = fabric.listen(addr).unwrap();
        std::thread::spawn(move || {
            let mut s = listener.accept().unwrap();
            let _header: DataOp = recv_message(&mut s).unwrap();
            loop {
                let pkt: Packet = match recv_message(&mut s) {
                    Ok(p) => p,
                    Err(_) => return,
                };
                if error_at == Some(pkt.seq) {
                    let _ = send_message(
                        &mut s,
                        &PipelineAck {
                            kind: AckKind::Packet,
                            seq: pkt.seq,
                            batch: 1,
                            statuses: vec![AckStatus::Success, AckStatus::Error],
                        },
                    );
                    return;
                }
                if pkt.last_in_block && fnfa_on_last {
                    let _ = send_message(
                        &mut s,
                        &PipelineAck {
                            kind: AckKind::FirstNodeFinish,
                            seq: pkt.seq,
                            batch: 1,
                            statuses: vec![AckStatus::Success],
                        },
                    );
                }
                if send_message(
                    &mut s,
                    &PipelineAck {
                        kind: AckKind::Packet,
                        seq: pkt.seq,
                        batch: 1,
                        statuses: vec![AckStatus::Success],
                    },
                )
                .is_err()
                {
                    return;
                }
                if pkt.last_in_block {
                    return;
                }
            }
        });
    }

    fn fabric() -> Fabric {
        let f = Fabric::new(FabricConfig {
            latency: Duration::ZERO,
            socket_buffer: 64 * 1024,
            chunk_size: 8 * 1024,
        });
        f.add_host("client", "rack-a", Bandwidth::unlimited());
        f.add_host("dn", "rack-a", Bandwidth::unlimited());
        f
    }

    fn target() -> DatanodeInfo {
        DatanodeInfo {
            id: DatanodeId(0),
            host_name: "dn".into(),
            rack: "rack-a".into(),
            addr: "dn:1".into(),
        }
    }

    fn packet(seq: u64, offset: u64, len: usize, last: bool) -> Packet {
        Packet {
            seq,
            offset_in_block: offset,
            last_in_block: last,
            checksums: vec![],
            payload: bytes::Bytes::from(vec![7u8; len]),
        }
    }

    fn open(fabric: &Fabric, events: Sender<PipelineEvent>) -> Pipeline {
        Pipeline::open(
            fabric,
            "client",
            ClientId(1),
            PipelineId(9),
            ExtendedBlock::new(smarth_core::ids::BlockId(1), smarth_core::ids::GenStamp(1), 0),
            vec![target()],
            None,
            WriteMode::Smarth,
            1 << 20,
            events,
            Obs::disabled(),
        )
        .unwrap()
    }

    #[test]
    fn full_block_yields_fnfa_then_fully_acked() {
        let f = fabric();
        spawn_acker(&f, "dn:1", true, None);
        let (tx, rx) = unbounded();
        let mut p = open(&f, tx);
        for i in 0..4u64 {
            p.send_packet(packet(i, i * 100, 100, i == 3)).unwrap();
        }
        assert!(p.finished_sending());
        let mut kinds = Vec::new();
        while let Ok(ev) = rx.recv_timeout(Duration::from_secs(5)) {
            assert_eq!(ev.pipeline, PipelineId(9));
            kinds.push(ev.kind.clone());
            if kinds.contains(&PipelineEventKind::FullyAcked) {
                break;
            }
        }
        assert!(kinds.contains(&PipelineEventKind::FirstNodeFinish));
        assert_eq!(kinds.last(), Some(&PipelineEventKind::FullyAcked));
        assert_eq!(p.packets_acked(), 4);
    }

    #[test]
    fn cumulative_batch_ack_advances_by_batch_width() {
        // A datanode that coalesces: stays silent until the last packet,
        // then sends one cumulative ack covering the whole block. The
        // responder must count all packets acked and report FullyAcked.
        let f = fabric();
        let listener = f.listen("dn:1").unwrap();
        std::thread::spawn(move || {
            let mut s = listener.accept().unwrap();
            let _header: DataOp = recv_message(&mut s).unwrap();
            let mut n = 0u64;
            loop {
                let pkt: Packet = match recv_message(&mut s) {
                    Ok(p) => p,
                    Err(_) => return,
                };
                n += 1;
                if pkt.last_in_block {
                    let _ = send_message(
                        &mut s,
                        &PipelineAck {
                            kind: AckKind::Packet,
                            seq: pkt.seq,
                            batch: n,
                            statuses: vec![AckStatus::Success],
                        },
                    );
                    return;
                }
            }
        });
        let (tx, rx) = unbounded();
        let mut p = open(&f, tx);
        for i in 0..5u64 {
            p.send_packet(packet(i, i * 100, 100, i == 4)).unwrap();
        }
        let ev = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(ev.kind, PipelineEventKind::FullyAcked);
        assert_eq!(p.packets_acked(), 5, "one frame, five packets covered");
    }

    #[test]
    fn suffix_resend_still_fully_acks() {
        // A recovery pipeline resends only seqs 5..8 — FullyAcked must
        // fire when those 3 (not 8) acks arrive. (Regression: the old
        // responder compared ack count against last_seq+1.)
        let f = fabric();
        spawn_acker(&f, "dn:1", false, None);
        let (tx, rx) = unbounded();
        let mut p = open(&f, tx);
        for i in 5..8u64 {
            p.send_packet(packet(i, i * 100, 100, i == 7)).unwrap();
        }
        let ev = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(ev.kind, PipelineEventKind::FullyAcked);
        assert_eq!(p.packets_acked(), 3);
    }

    #[test]
    fn error_ack_reports_failed_index() {
        let f = fabric();
        spawn_acker(&f, "dn:1", false, Some(1));
        let (tx, rx) = unbounded();
        let mut p = open(&f, tx);
        for i in 0..3u64 {
            // Sends may fail once the acker hangs up; recovery owns that.
            let _ = p.send_packet(packet(i, i * 100, 100, i == 2));
        }
        let ev = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        match ev.kind {
            PipelineEventKind::Error { failed_index } => {
                assert_eq!(failed_index, Some(1), "index of the failing node");
            }
            other => panic!("expected error event, got {other:?}"),
        }
        // Retained packets are available for recovery resend.
        assert_eq!(p.take_retained_packets().len(), 3);
    }

    #[test]
    fn broken_connection_reports_error_without_index() {
        let f = fabric();
        // Listener accepts, reads the header, then drops the stream: a
        // drop before the header would fail `open` itself.
        let listener = f.listen("dn:1").unwrap();
        std::thread::spawn(move || {
            let mut s = listener.accept().unwrap();
            let _: DataOp = recv_message(&mut s).unwrap();
        });
        let (tx, rx) = unbounded();
        let _p = open(&f, tx);
        let ev = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(ev.kind, PipelineEventKind::Error { failed_index: None });
    }

    #[test]
    fn datanode_ids_and_nothing_sent() {
        let f = fabric();
        spawn_acker(&f, "dn:1", false, None);
        let (tx, _rx) = unbounded();
        let p = open(&f, tx);
        assert_eq!(p.datanode_ids(), vec![DatanodeId(0)]);
        assert!(!p.finished_sending());
    }
}
