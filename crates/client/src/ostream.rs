//! `DfsOutputStream` — the client write path, in both protocols.
//!
//! * **HDFS mode** (§II): one pipeline at a time. The stream sends every
//!   packet of a block, then blocks until the pipeline is *fully acked*
//!   by all replicas before asking the namenode for the next block —
//!   the stop-and-wait behaviour whose cost §III-D's Formula (2) models.
//!
//! * **SMARTH mode** (§III-A): the stream waits only for the first
//!   datanode's FIRST_NODE_FINISH ack, then immediately allocates the
//!   next block on a *new* pipeline while the previous pipelines keep
//!   replicating in the background. The active-pipeline set is bounded
//!   by the §IV-C rule (a datanode serves at most one of this client's
//!   pipelines; when every datanode is busy, block allocation fails and
//!   the stream waits for a pipeline to drain).
//!
//! In both modes the first block's allocation arrives with the stream:
//! `create` carried the first `addBlock` (§II steps 1–2 in one namenode
//! round trip), so the first `write` opens a pipeline at once. Every
//! later block, and the first one when the namenode had nowhere to place
//! it, is asked for with `addBlock`; a stream closed before any byte was
//! written gives the unused allocation back.
//!
//! Fault tolerance implements Algorithm 3 (single pipeline recovery:
//! requeue retained packets, probe replicas, bump the generation stamp,
//! truncate survivors to the common prefix, rebuild and resend) embedded
//! in Algorithm 4's multi-pipeline loop (recover every errored pipeline,
//! then resume the interrupted block).

use crate::client::ClientCtx;
use crate::pipeline::{Pipeline, PipelineEvent, PipelineEventKind};
use crossbeam_channel::{unbounded, Receiver, Sender};
use smarth_core::checksum::ChunkedChecksum;
use smarth_core::config::{WriteMode, MAX_RECOVERY_ATTEMPTS};
use smarth_core::error::{DfsError, DfsResult};
use smarth_core::ids::{BlockId, DatanodeId, ExtendedBlock, FileId, PipelineId};
use smarth_core::localopt::{local_optimize, LocalOptOutcome};
use smarth_core::obs::{Obs, ObsEvent, RecoveryCause, TraceCtx};
use smarth_core::proto::{DataOp, DataReply, DatanodeInfo, LocatedBlock, Packet};
use smarth_core::units::{ByteSize, SimDuration};
use smarth_core::wire::{recv_message, send_message};
use std::sync::Arc;
use std::time::Duration;

/// Counters reported by [`DfsOutputStream::close`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamStats {
    pub bytes_written: u64,
    pub blocks_committed: u64,
    /// Pipeline recoveries performed (Algorithm 3 invocations).
    pub recoveries: u64,
    /// Exploration swaps done by the local optimization (Algorithm 2).
    pub explored_swaps: u64,
    /// High-water mark of concurrently active pipelines.
    pub max_concurrent_pipelines: usize,
}

struct ActiveBlock {
    pipeline: Pipeline,
    next_seq: u64,
    /// Bytes handed to the pipeline so far.
    offset: u64,
    fnfa: bool,
    fully_acked: bool,
}

struct PendingPipeline {
    pipeline: Pipeline,
    len: u64,
}

/// A writable stream to one DFS file. Not `Sync`: one writer per stream,
/// like HDFS's single-writer lease model.
pub struct DfsOutputStream {
    ctx: Arc<ClientCtx>,
    file_id: FileId,
    path: String,
    mode: WriteMode,
    replication: usize,
    checksum: ChunkedChecksum,

    events_tx: Sender<PipelineEvent>,
    events_rx: Receiver<PipelineEvent>,
    next_pipeline: u64,

    /// The allocation `create` brought back, until the first block is
    /// opened on it or `close()` gives it back.
    first_block: Option<LocatedBlock>,
    current: Option<ActiveBlock>,
    pending: Vec<PendingPipeline>,
    /// Fully-acked SMARTH blocks whose namenode commit has not been
    /// sent yet. Instead of paying a dedicated `commitBlock` round
    /// trip on the critical path between blocks, the head of this
    /// queue rides the next `add_block` RPC as its `previous`
    /// argument (mirroring HDFS `addBlock(previous)`); leftovers are
    /// flushed at `close()`, the newest on `complete(last)`.
    deferred_commits: Vec<ExtendedBlock>,
    /// Datanodes discovered dead through recovery; excluded from all
    /// future placements of this stream.
    dead: Vec<DatanodeId>,
    packet_buf: Vec<u8>,
    stats: StreamStats,
    /// Timestamp of the most recent FNFA, for the FNFA→next-allocation
    /// latency histogram (the §III-A overlap the protocol exists to buy).
    last_fnfa_at: Option<u64>,
}

impl DfsOutputStream {
    pub(crate) fn new(
        ctx: Arc<ClientCtx>,
        file_id: FileId,
        path: String,
        mode: WriteMode,
        replication: usize,
        first_block: Option<LocatedBlock>,
    ) -> Self {
        let (events_tx, events_rx) = unbounded();
        let checksum = ChunkedChecksum::new(ctx.config.bytes_per_checksum);
        Self {
            ctx,
            file_id,
            path,
            mode,
            replication,
            checksum,
            events_tx,
            events_rx,
            next_pipeline: 1,
            first_block,
            current: None,
            pending: Vec::new(),
            deferred_commits: Vec::new(),
            dead: Vec::new(),
            packet_buf: Vec::new(),
            stats: StreamStats::default(),
            last_fnfa_at: None,
        }
    }

    fn obs(&self) -> &Obs {
        &self.ctx.obs
    }

    fn event_timeout(&self) -> Duration {
        Duration::from_secs_f64(self.ctx.config.pipeline_event_timeout.as_secs_f64())
    }

    /// Queues a fully-acked block for a piggybacked commit (see
    /// `deferred_commits`).
    fn defer_commit(&mut self, block: ExtendedBlock) {
        self.deferred_commits.push(block);
    }

    /// Marks the head deferred commit as applied by the namenode.
    /// `AddBlock` runs `update_block(previous)` before placement, so
    /// any placement outcome — success, a short pipeline, or
    /// `PlacementFailed` — means the commit landed. Re-sending after
    /// other errors is safe: `update_block` is idempotent.
    fn deferred_commit_landed(&mut self) {
        if !self.deferred_commits.is_empty() {
            self.deferred_commits.remove(0);
            self.stats.blocks_committed += 1;
            self.obs().metrics().blocks_committed.inc();
        }
    }

    pub fn path(&self) -> &str {
        &self.path
    }

    pub fn mode(&self) -> WriteMode {
        self.mode
    }

    /// Bytes accepted so far.
    pub fn len(&self) -> u64 {
        self.stats.bytes_written
    }

    pub fn is_empty(&self) -> bool {
        self.stats.bytes_written == 0
    }

    /// Currently active pipelines (current + draining).
    pub fn active_pipelines(&self) -> usize {
        self.pending.len() + usize::from(self.current.is_some())
    }

    /// Host names of the datanodes in the *current* block's pipeline,
    /// first node first; empty between blocks. Fault-injection harnesses
    /// use this to aim a kill at a live pipeline member.
    pub fn current_target_hosts(&self) -> Vec<String> {
        self.current
            .as_ref()
            .map(|c| {
                c.pipeline
                    .targets
                    .iter()
                    .map(|t| t.host_name.clone())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Appends data to the stream, blocking under network backpressure.
    pub fn write(&mut self, mut data: &[u8]) -> DfsResult<()> {
        let packet_size = self.ctx.config.packet_size.as_u64() as usize;
        let block_size = self.ctx.config.block_size.as_u64();
        while !data.is_empty() {
            self.ensure_current_block()?;
            let offset = self
                .current
                .as_ref()
                .map(|c| c.offset)
                .expect("ensure_current_block");
            let block_remaining = block_size - offset - self.packet_buf.len() as u64;
            let packet_remaining = packet_size - self.packet_buf.len();
            let take = data
                .len()
                .min(packet_remaining)
                .min(block_remaining as usize);
            self.packet_buf.extend_from_slice(&data[..take]);
            data = &data[take..];
            self.stats.bytes_written += take as u64;
            self.obs().metrics().bytes_written.add(take as u64);

            let at_block_end =
                offset + self.packet_buf.len() as u64 == block_size;
            if self.packet_buf.len() == packet_size || at_block_end {
                self.flush_packet(at_block_end)?;
                if at_block_end {
                    self.finish_current_block()?;
                }
            }
        }
        Ok(())
    }

    /// Flushes any partial packet, waits for full durability of every
    /// block, seals the file, and returns the stream statistics.
    pub fn close(mut self) -> DfsResult<StreamStats> {
        // Tail of the file: a last, possibly short, packet. When the
        // file ends exactly on a packet boundary mid-block, the buffer
        // is empty but the block is still open — seal it with an empty
        // `last` packet (the datanodes finalize at the current length).
        if !self.packet_buf.is_empty() || self.current.is_some() {
            self.flush_packet(true)?;
            self.finish_current_block()?;
        }
        // Nothing was ever written: the file is sealed with no blocks, not
        // with an empty one.
        if let Some(unused) = self.first_block.take() {
            self.abandon_allocation(unused.block.id)?;
        }

        // §II steps 5-6: wait for every ack, then complete.
        // (In HDFS mode finish_current_block already waited per block, so
        // `pending` is only populated in SMARTH mode.)
        self.wait_all_pending_acked()?;
        // Flush commits that never found an `add_block` to ride: all
        // but the newest go as explicit commits, the newest rides the
        // `complete` RPC itself (HDFS `complete(last)` semantics).
        let mut deferred = std::mem::take(&mut self.deferred_commits);
        let last = deferred.pop();
        for block in deferred {
            self.ctx.rpc.commit_block(self.ctx.id, self.file_id, block)?;
            self.stats.blocks_committed += 1;
            self.obs().metrics().blocks_committed.inc();
        }
        self.ctx.rpc.complete(self.ctx.id, self.file_id, last)?;
        if last.is_some() {
            self.stats.blocks_committed += 1;
            self.obs().metrics().blocks_committed.inc();
        }
        Ok(self.stats)
    }

    // ------------------------------------------------------------------
    // Block lifecycle
    // ------------------------------------------------------------------

    fn ensure_current_block(&mut self) -> DfsResult<()> {
        if self.current.is_some() {
            return Ok(());
        }
        self.open_next_block(0)
    }

    /// Allocates the next block and opens its pipeline. `lost_targets`
    /// counts the allocations of this block already given back because
    /// their first target was dead (see `first_target_lost`).
    fn open_next_block(&mut self, lost_targets: u32) -> DfsResult<()> {
        // Ablation cap on concurrent pipelines (§IV-C's rule emerges
        // naturally from placement exclusions; the override forces a
        // different cap).
        if let Some(cap) = self.ctx.config.max_pipelines_override {
            while self.pending.len() + 1 > cap.max(1) {
                let ev = self.wait_event()?;
                self.process_event(ev)?;
            }
        }

        let mut attempts = 0u32;
        let located = loop {
            let excluded = self.busy_and_dead();
            // Piggyback the oldest deferred commit on this allocation
            // rather than spending a separate RPC round trip. The
            // recovery rebuild path below keeps `previous = None`: it
            // must not couple a replay to unrelated commit state.
            let previous = self.deferred_commits.first().copied();
            // The first block's allocation came with `create`, when
            // nothing was busy, dead or waiting for its commit.
            let reply = match self.first_block.take() {
                Some(lb) => Ok(lb),
                None => self
                    .ctx
                    .rpc
                    .add_block(self.ctx.id, self.file_id, previous, &excluded),
            };
            match reply {
                Ok(lb) if lb.targets.len() < self.replication && !self.pending.is_empty() => {
                    self.deferred_commit_landed();
                    // The namenode could only find a short pipeline
                    // because our own active pipelines occupy the rest
                    // (§IV-C). Release the allocation and wait for one
                    // to drain rather than writing under-replicated.
                    let _ = self.abandon_allocation(lb.block.id);
                    let ev = self.wait_event()?;
                    self.process_event(ev)?;
                }
                Ok(lb) => {
                    self.deferred_commit_landed();
                    break lb;
                }
                Err(DfsError::PlacementFailed { .. }) if !self.pending.is_empty() => {
                    // Every datanode is busy in one of our pipelines —
                    // the §IV-C limit. Wait for one to drain. (The
                    // commit still landed: the namenode applies
                    // `previous` before attempting placement.)
                    self.deferred_commit_landed();
                    let ev = self.wait_event()?;
                    self.process_event(ev)?;
                }
                Err(e) => {
                    attempts += 1;
                    if attempts >= MAX_RECOVERY_ATTEMPTS {
                        return Err(e);
                    }
                    if let DfsError::NamenodeUnavailable(msg) = &e {
                        // The RPC layer's own retry budget is spent. From
                        // the stream's view this is one namenode-outage
                        // incident — record it like any other recovery
                        // cause and retry the allocation after a longer
                        // pause, instead of killing the stream.
                        let msg = msg.clone();
                        self.note_namenode_outage(BlockId(0), None, attempts, false, &msg);
                        continue;
                    }
                    // Transient (e.g. a node died between liveness check
                    // and placement): retry.
                    if !e.is_recoverable() {
                        return Err(e);
                    }
                }
            }
        };

        // §III-A overlap: how long after the previous block's FNFA did
        // the next allocation land?
        if let Some(fnfa_at) = self.last_fnfa_at.take() {
            self.obs()
                .metrics()
                .fnfa_to_allocation_us
                .observe(Obs::now_us().saturating_sub(fnfa_at));
        }
        // Causal context minted by the namenode for this block's whole
        // lifecycle; every event below rides on it.
        let ctx = located.trace_ctx();
        self.obs().emit_traced(ctx, ObsEvent::BlockAllocated {
            client: self.ctx.id,
            block: located.block.id,
            targets: located.targets.iter().map(|t| t.id).collect(),
        });

        let mut targets = located.targets;
        // Algorithm 2: client-side re-sort plus ε-exploration.
        if self.ctx.config.runs_local_opt(self.mode) {
            let tracker = self.ctx.tracker.lock();
            let mut rng = self.ctx.rng.lock();
            if let LocalOptOutcome::Explored { swapped_index } = local_optimize(
                &mut targets,
                &tracker,
                self.ctx.config.local_opt_threshold,
                &mut *rng,
            ) {
                self.stats.explored_swaps += 1;
                self.obs().metrics().exploration_swaps.inc();
                self.obs().emit_traced(ctx, ObsEvent::ExplorationSwap {
                    block: located.block.id,
                    promoted: targets[0].id,
                    displaced: targets[swapped_index].id,
                });
            }
        }

        let first = targets[0].id;
        let pipeline = match self.open_pipeline(located.block, targets, ctx) {
            Ok(p) => p,
            Err(e) => return self.first_target_lost(located.block, first, ctx, lost_targets, e),
        };
        self.current = Some(ActiveBlock {
            pipeline,
            next_seq: 0,
            offset: 0,
            fnfa: false,
            fully_acked: false,
        });
        let active = self.active_pipelines();
        self.stats.max_concurrent_pipelines = self.stats.max_concurrent_pipelines.max(active);
        Ok(())
    }

    /// The first target died after placement but before the namenode
    /// expired it, so it refused the connection. Nothing was sent: as in
    /// `rebuild_from_scratch`, mark it dead, give the block back and
    /// allocate again without it — one `ConnectionLost` incident.
    fn first_target_lost(
        &mut self,
        block: ExtendedBlock,
        first: DatanodeId,
        ctx: Option<TraceCtx>,
        lost_targets: u32,
        e: DfsError,
    ) -> DfsResult<()> {
        let attempt = lost_targets + 1;
        if !e.is_recoverable() || attempt >= MAX_RECOVERY_ATTEMPTS {
            return Err(e);
        }
        let step = format!(
            "first target {} refused the pipeline: abandoning block, reallocating",
            first.raw()
        );
        self.record_incident(ctx, block.id, attempt, RecoveryCause::ConnectionLost, false, step);
        self.mark_dead(first);
        self.abandon_allocation(block.id)?;
        self.open_next_block(attempt)
    }

    /// Returns an allocation no pipeline was opened on to the namenode.
    fn abandon_allocation(&mut self, block: BlockId) -> DfsResult<()> {
        self.obs().metrics().allocations_abandoned.inc();
        self.ctx.rpc.abandon_block(self.ctx.id, self.file_id, block)
    }

    fn open_pipeline(
        &mut self,
        block: ExtendedBlock,
        targets: Vec<DatanodeInfo>,
        ctx: Option<TraceCtx>,
    ) -> DfsResult<Pipeline> {
        let id = PipelineId(self.next_pipeline);
        self.next_pipeline += 1;
        let pipeline = Pipeline::open(
            &self.ctx.fabric,
            &self.ctx.host,
            self.ctx.id,
            id,
            block,
            targets,
            ctx,
            self.mode,
            self.ctx.config.datanode_client_buffer.as_u64(),
            self.events_tx.clone(),
            self.obs().clone(),
        )?;
        self.obs().metrics().concurrent_pipelines.inc();
        self.obs().emit_traced(ctx, ObsEvent::PipelineOpened {
            block: block.id,
            targets: pipeline.targets.iter().map(|t| t.id).collect(),
        });
        Ok(pipeline)
    }

    /// Tears down a pipeline's threads and records its fate.
    fn close_pipeline(&self, pipeline: Pipeline, committed: bool) {
        self.obs().metrics().concurrent_pipelines.dec();
        self.obs().emit_traced(pipeline.ctx, ObsEvent::PipelineClosed {
            block: pipeline.block.id,
            committed,
        });
        pipeline.close();
    }

    fn flush_packet(&mut self, last_in_block: bool) -> DfsResult<()> {
        // Surface any pending pipeline events (errors especially) before
        // committing more data to a possibly-dead pipeline.
        while let Ok(ev) = self.events_rx.try_recv() {
            self.process_event(ev)?;
        }
        let payload = bytes::Bytes::from(std::mem::take(&mut self.packet_buf));
        let current = self.current.as_mut().expect("flush without current block");
        let pkt = Packet {
            seq: current.next_seq,
            offset_in_block: current.offset,
            last_in_block,
            checksums: self.checksum.compute(&payload),
            payload,
        };
        current.next_seq += 1;
        current.offset += pkt.payload.len() as u64;
        let pipeline_id = current.pipeline.id;
        if current.pipeline.send_packet(pkt).is_err() {
            // The packet is retained in the pipeline, so recovery will
            // resend it (Algorithm 3 line 3).
            self.recover(pipeline_id, None, RecoveryCause::ConnectionLost)?;
        }
        Ok(())
    }

    /// Called once the last packet of the current block has been sent.
    fn finish_current_block(&mut self) -> DfsResult<()> {
        match self.mode {
            WriteMode::Hdfs => {
                // Stop-and-wait: block until every replica acked.
                let mut timeouts = 0u32;
                loop {
                    if self.current.as_ref().is_some_and(|c| c.fully_acked) {
                        break;
                    }
                    self.pump_event(&mut timeouts)?;
                }
                let done = self.current.take().expect("current");
                let block = ExtendedBlock::new(
                    done.pipeline.block.id,
                    done.pipeline.block.gen,
                    done.offset,
                );
                self.ctx.rpc.commit_block(self.ctx.id, self.file_id, block)?;
                self.stats.blocks_committed += 1;
                self.obs().metrics().blocks_committed.inc();
                self.close_pipeline(done.pipeline, true);
            }
            WriteMode::Smarth => {
                // §III-A: wait only for the FNFA, then let the pipeline
                // drain in the background.
                let mut timeouts = 0u32;
                loop {
                    if self.current.as_ref().is_some_and(|c| c.fnfa) {
                        break;
                    }
                    self.pump_event(&mut timeouts)?;
                }
                let done = self.current.take().expect("current");
                if done.fully_acked {
                    // On a fast cluster the full-pipeline ack can arrive
                    // while the block is still current (it may even beat
                    // the FNFA frame, whose write races the final ack).
                    // Its completion event is already consumed, so
                    // queue its commit here instead of parking it in
                    // `pending` where no further event would ever
                    // release it.
                    let block = ExtendedBlock::new(
                        done.pipeline.block.id,
                        done.pipeline.block.gen,
                        done.offset,
                    );
                    self.defer_commit(block);
                    self.close_pipeline(done.pipeline, true);
                } else {
                    self.pending.push(PendingPipeline {
                        len: done.offset,
                        pipeline: done.pipeline,
                    });
                }
            }
        }
        Ok(())
    }

    fn wait_all_pending_acked(&mut self) -> DfsResult<()> {
        let mut timeouts = 0u32;
        while !self.pending.is_empty() {
            self.pump_event(&mut timeouts)?;
        }
        Ok(())
    }

    fn busy_and_dead(&self) -> Vec<DatanodeId> {
        let mut v = self.dead.clone();
        if let Some(c) = &self.current {
            v.extend(c.pipeline.datanode_ids());
        }
        for p in &self.pending {
            v.extend(p.pipeline.datanode_ids());
        }
        v.sort_unstable();
        v.dedup();
        v
    }

    // ------------------------------------------------------------------
    // Events
    // ------------------------------------------------------------------

    fn wait_event(&self) -> DfsResult<PipelineEvent> {
        self.events_rx
            .recv_timeout(self.event_timeout())
            .map_err(|_| DfsError::Timeout("waiting for pipeline events".into()))
    }

    /// Waits for one pipeline event and processes it. A timeout while a
    /// pipeline is in flight is classified as an *ack timeout* — the
    /// transport is up but no ack arrived within the event timeout — and
    /// triggers recovery with [`RecoveryCause::AckTimeout`], distinct
    /// from `ConnectionLost` (a broken transport, reported by the
    /// responder). Bounded by `timeouts` so a persistently silent
    /// cluster still surfaces the timeout error.
    fn pump_event(&mut self, timeouts: &mut u32) -> DfsResult<()> {
        match self.wait_event() {
            Ok(ev) => self.process_event(ev),
            Err(e @ DfsError::Timeout(_)) => {
                *timeouts += 1;
                let stalled = self
                    .current
                    .as_ref()
                    .map(|c| c.pipeline.id)
                    .or_else(|| self.pending.first().map(|p| p.pipeline.id));
                match stalled {
                    Some(pid) if *timeouts <= MAX_RECOVERY_ATTEMPTS => {
                        self.recover(pid, None, RecoveryCause::AckTimeout)
                    }
                    _ => Err(e),
                }
            }
            Err(e) => Err(e),
        }
    }

    fn process_event(&mut self, ev: PipelineEvent) -> DfsResult<()> {
        match ev.kind {
            PipelineEventKind::FirstNodeFinish => {
                if let Some(c) = &mut self.current {
                    if c.pipeline.id == ev.pipeline {
                        c.fnfa = true;
                        // §III-B: record the block transfer speed to the
                        // first datanode.
                        let elapsed = c.pipeline.started.elapsed();
                        let first = c.pipeline.first_datanode().id;
                        self.ctx.tracker.lock().observe(
                            first,
                            ByteSize::bytes(c.offset),
                            SimDuration::from_secs_f64(elapsed.as_secs_f64()),
                        );
                        let block = c.pipeline.block.id;
                        let ctx = c.pipeline.ctx;
                        self.last_fnfa_at = Some(Obs::now_us());
                        self.obs().metrics().fnfa_received.inc();
                        self.obs().emit_traced(ctx, ObsEvent::FnfaReceived {
                            block,
                            first_node: first,
                        });
                    }
                }
            }
            PipelineEventKind::FullyAcked => {
                if let Some(c) = &mut self.current {
                    if c.pipeline.id == ev.pipeline {
                        c.fully_acked = true;
                        c.fnfa = true; // full ack implies first-node done
                        return Ok(());
                    }
                }
                if let Some(idx) = self
                    .pending
                    .iter()
                    .position(|p| p.pipeline.id == ev.pipeline)
                {
                    let done = self.pending.swap_remove(idx);
                    let block = ExtendedBlock::new(
                        done.pipeline.block.id,
                        done.pipeline.block.gen,
                        done.len,
                    );
                    self.defer_commit(block);
                    self.close_pipeline(done.pipeline, true);
                }
            }
            PipelineEventKind::Error { failed_index } => {
                // Stale error events for already-recovered pipelines are
                // ignored inside recover().
                let cause = if failed_index.is_some() {
                    RecoveryCause::DatanodeError
                } else {
                    RecoveryCause::ConnectionLost
                };
                self.recover(ev.pipeline, failed_index, cause)?;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Fault tolerance (Algorithms 3 & 4)
    // ------------------------------------------------------------------

    /// Recovers one pipeline. Implements Algorithm 3, invoked per failed
    /// pipeline per Algorithm 4's loop (events arrive one at a time, so
    /// the error-pipeline set is drained through repeated calls).
    fn recover(
        &mut self,
        pipeline_id: PipelineId,
        failed_index: Option<usize>,
        cause: RecoveryCause,
    ) -> DfsResult<()> {
        enum Slot {
            Current,
            Pending(usize),
        }
        let slot = if self
            .current
            .as_ref()
            .is_some_and(|c| c.pipeline.id == pipeline_id)
        {
            Slot::Current
        } else if let Some(i) = self
            .pending
            .iter()
            .position(|p| p.pipeline.id == pipeline_id)
        {
            Slot::Pending(i)
        } else {
            return Ok(()); // stale event for a replaced pipeline
        };
        self.stats.recoveries += 1;
        self.obs().metrics().record_recovery(cause);

        // Step 1-3 of Algorithm 3: stop the transfer, close streams,
        // move retained packets back to the resend queue.
        let (old, block_len, was_current_state) = match slot {
            Slot::Current => {
                let c = self.current.take().expect("checked");
                (c.pipeline, c.offset, Some((c.next_seq, c.fnfa)))
            }
            Slot::Pending(i) => {
                let p = self.pending.remove(i);
                (p.pipeline, p.len, None)
            }
        };
        let retained = old.take_retained_packets();
        let packets_acked = old.packets_acked();
        let old_targets = old.targets.clone();
        let old_block = old.block;
        let old_ctx = old.ctx;
        let finished_sending = old.finished_sending();
        self.obs().emit_traced(old_ctx, ObsEvent::RecoveryStarted {
            block: old_block.id,
            attempt: 1,
            cause,
            nested: false,
        });
        self.close_pipeline(old, false);

        let mut attempt = 0u32;
        let mut targets = old_targets;
        let mut failed_hint = failed_index;
        // The incident that triggered this recovery accounts for exactly
        // one dead node. With a `failed_index` hint that node is known;
        // otherwise the first unreachable probe is attributed to the
        // original cause. Every *further* node lost while this recovery
        // runs is a distinct incident (`RecoveryCause::NestedFailure`) —
        // folding it into `cause` is the attribution bug the soak
        // harness counts against injected faults.
        let mut original_accounted = failed_index.is_some();
        let mut nested_losses: Vec<DatanodeId> = Vec::new();
        let result: DfsResult<()> = loop {
            attempt += 1;
            if attempt > MAX_RECOVERY_ATTEMPTS {
                break Err(DfsError::PipelineUnrecoverable {
                    pipeline: pipeline_id,
                    reason: format!(
                        "gave up after {} attempts",
                        MAX_RECOVERY_ATTEMPTS
                    ),
                });
            }
            self.obs().emit_traced(old_ctx, ObsEvent::RecoveryStep {
                block: old_block.id,
                step: format!(
                    "attempt {attempt}: probing {} targets, {} retained packets",
                    targets.len(),
                    retained.len()
                ),
            });
            let rebuilt = self.try_rebuild(
                old_block,
                &targets,
                failed_hint,
                &retained,
                packets_acked,
                finished_sending,
                old_ctx,
                &mut original_accounted,
                &mut nested_losses,
            );
            // Attribute nodes lost *during* this attempt as their own
            // incidents, whether or not the rebuild went through. Each
            // gets a balanced zero-length span so the trace assembler
            // closes the nested span and keeps attaching later steps to
            // the enclosing recovery.
            for dn in std::mem::take(&mut nested_losses) {
                self.record_incident(
                    old_ctx,
                    old_block.id,
                    attempt,
                    RecoveryCause::NestedFailure,
                    true,
                    format!("datanode {} lost mid-recovery", dn.raw()),
                );
            }
            match rebuilt {
                Ok((new_pipeline, resent_all)) => {
                    debug_assert!(resent_all);
                    // Step 7 of Algorithm 4: resume the interrupted
                    // block / restore the pipeline to its former role.
                    match was_current_state {
                        Some((next_seq, _)) => {
                            self.current = Some(ActiveBlock {
                                pipeline: new_pipeline,
                                next_seq,
                                offset: block_len,
                                fnfa: false,
                                fully_acked: false,
                            });
                        }
                        None => {
                            debug_assert!(finished_sending);
                            self.pending.push(PendingPipeline {
                                pipeline: new_pipeline,
                                len: block_len,
                            });
                        }
                    }
                    break Ok(());
                }
                Err((e, surviving)) => {
                    if let DfsError::NamenodeUnavailable(msg) = &e {
                        // A distinct incident nested inside this
                        // recovery: the *namenode* (not another pipeline
                        // member) went away mid-rebuild. Record it and
                        // keep the bounded retry loop going — the pause
                        // gives a stalled namenode time to come back.
                        let msg = msg.clone();
                        self.note_namenode_outage(old_block.id, old_ctx, attempt, true, &msg);
                    } else if !e.is_recoverable()
                        && !matches!(e, DfsError::PlacementFailed { .. })
                    {
                        break Err(e);
                    }
                    // Narrow the target set and try again.
                    targets = surviving;
                    failed_hint = None;
                    if targets.is_empty() && packets_acked > 0 {
                        break Err(DfsError::PipelineUnrecoverable {
                            pipeline: pipeline_id,
                            reason: "no surviving replica holds acked data".into(),
                        });
                    }
                }
            }
        };
        self.obs().emit_traced(old_ctx, ObsEvent::RecoveryFinished {
            block: old_block.id,
            success: result.is_ok(),
        });
        result
    }

    /// Counts and attributes a recovery incident that is over the moment
    /// it is known, and traces it as a balanced zero-length span.
    fn record_incident(
        &mut self,
        ctx: Option<TraceCtx>,
        block: BlockId,
        attempt: u32,
        cause: RecoveryCause,
        nested: bool,
        step: String,
    ) {
        self.stats.recoveries += 1;
        self.obs().metrics().record_recovery(cause);
        self.obs().emit_traced(ctx, ObsEvent::RecoveryStarted {
            block,
            attempt,
            cause,
            nested,
        });
        self.obs().emit_traced(ctx, ObsEvent::RecoveryStep { block, step });
        self.obs().emit_traced(ctx, ObsEvent::RecoveryFinished {
            block,
            success: false,
        });
    }

    /// Records a namenode outage as a first-class recovery incident
    /// ([`RecoveryCause::NamenodeError`]) with a balanced trace span,
    /// then backs off before the caller retries. `block` is the block
    /// whose lifecycle the outage interrupted — `BlockId(0)` when it
    /// struck between blocks, before an allocation existed.
    fn note_namenode_outage(
        &mut self,
        block: BlockId,
        ctx: Option<TraceCtx>,
        attempt: u32,
        nested: bool,
        detail: &str,
    ) {
        let step = format!("namenode outage: {detail}");
        self.record_incident(ctx, block, attempt, RecoveryCause::NamenodeError, nested, step);
        // The RPC layer already burned its per-call retry budget; the
        // stream waits longer between incidents so a stalled namenode
        // has time to come back before the bounded attempts run out.
        let pause = self.ctx.config.rpc_retry.backoff_for(attempt.min(8));
        std::thread::sleep(Duration::from_secs_f64(pause.as_secs_f64()));
    }

    /// One rebuild attempt. On failure returns the error plus the target
    /// subset that still looked alive, for the retry loop.
    ///
    /// Death attribution: the original incident already accounts for one
    /// node (`failed_index` when known, else the first unreachable
    /// probe, tracked through `original_accounted`). Every additional
    /// node this attempt condemns — a further unreachable probe, or a
    /// survivor whose `recoverBlock` fails — is appended to `nested` for
    /// the caller to record as [`RecoveryCause::NestedFailure`].
    #[allow(clippy::type_complexity)]
    #[allow(clippy::too_many_arguments)]
    fn try_rebuild(
        &mut self,
        old_block: ExtendedBlock,
        targets: &[DatanodeInfo],
        failed_index: Option<usize>,
        retained: &[Packet],
        packets_acked: u64,
        finished_sending: bool,
        ctx: Option<TraceCtx>,
        original_accounted: &mut bool,
        nested: &mut Vec<DatanodeId>,
    ) -> Result<(Pipeline, bool), (DfsError, Vec<DatanodeInfo>)> {
        // Probe every target: who is alive, and how much of the block
        // does each hold? (Algorithm 3's parameter-validity check plus
        // the agreement on a safe resume length.) Only *unreachable*
        // nodes are condemned — a node that answers but holds no replica
        // (e.g. downstream of a first-node failure, never fed a byte) is
        // healthy and must stay eligible for future placements, or a
        // single mid-pipeline death poisons the whole pool.
        let mut survivors: Vec<(DatanodeInfo, u64)> = Vec::new();
        for (idx, t) in targets.iter().enumerate() {
            if Some(idx) == failed_index {
                self.mark_dead(t.id);
                continue;
            }
            match self.probe_replica(t, old_block) {
                Probe::Has(len) => survivors.push((t.clone(), len)),
                Probe::NoReplica => {}
                Probe::Unreachable => {
                    self.mark_dead(t.id);
                    if *original_accounted {
                        nested.push(t.id);
                    } else {
                        *original_accounted = true;
                    }
                }
            }
        }

        if survivors.is_empty() {
            // A scratch rebuild is only safe when the retained packets
            // cover the block from offset 0 — after an earlier
            // partial-prefix recovery they may be a suffix only, and
            // replaying a suffix into a fresh block would corrupt data.
            let covers_block = retained
                .first()
                .is_none_or(|p| p.offset_in_block == 0);
            if packets_acked == 0 && covers_block {
                // Nothing durable was lost: abandon the block and write a
                // brand-new one elsewhere.
                return self
                    .rebuild_from_scratch(old_block, retained, ctx)
                    .map_err(|e| (e, Vec::new()));
            }
            return Err((
                DfsError::connection_lost("all replicas unreachable"),
                Vec::new(),
            ));
        }

        // Agree on the common durable prefix.
        let min_len = survivors.iter().map(|(_, l)| *l).min().unwrap_or(0);

        // Bump the generation stamp (namenode coordination).
        let new_gen = self
            .ctx
            .rpc
            .begin_block_recovery(self.ctx.id, old_block.id)
            .map_err(|e| (e, infos(&survivors)))?;

        // recoverBlock on every survivor: adopt new_gen, truncate.
        let mut recovered: Vec<DatanodeInfo> = Vec::new();
        for (t, _) in &survivors {
            match self.recover_replica(t, old_block, new_gen, min_len) {
                Ok(()) => recovered.push(t.clone()),
                Err(_) => {
                    // The probe just said this node was alive; losing it
                    // now is by definition a failure nested inside the
                    // ongoing recovery, never the original incident.
                    self.mark_dead(t.id);
                    nested.push(t.id);
                }
            }
        }
        if recovered.is_empty() {
            return Err((
                DfsError::connection_lost("all survivors failed recoverBlock"),
                Vec::new(),
            ));
        }

        // When the block restarts from zero we can splice fresh nodes in
        // (they need no prefix); otherwise continue at reduced width and
        // let the namenode re-replicate after completion.
        let mut new_targets = recovered;
        if min_len == 0 && new_targets.len() < self.replication {
            let existing: Vec<DatanodeId> = new_targets
                .iter()
                .map(|t| t.id)
                .chain(self.dead.iter().copied())
                .chain(self.busy_and_dead())
                .collect();
            let wanted = (self.replication - new_targets.len()) as u32;
            if let Ok(extra) =
                self.ctx
                    .rpc
                    .additional_datanodes(self.ctx.id, old_block.id, &existing, wanted)
            {
                new_targets.extend(extra);
            }
        }

        let new_block = ExtendedBlock::new(old_block.id, new_gen, 0);
        // Same block, same trace: the rebuilt pipeline's events stay on
        // the original causal context so the assembler can stitch the
        // recovery sub-span into the block's timeline.
        let mut pipeline = self
            .open_pipeline(new_block, new_targets.clone(), ctx)
            .map_err(|e| (e, new_targets.clone()))?;

        // Resend everything past the agreed prefix (retained packets are
        // the ACK-queue-to-data-queue requeue of Algorithm 3 line 3).
        let mut sent_last = false;
        for pkt in retained {
            if pkt.offset_in_block >= min_len {
                sent_last |= pkt.last_in_block;
                if let Err(e) = pipeline.send_packet(pkt.clone()) {
                    return Err((e, new_targets));
                }
            }
        }
        // If the whole block already survived on every remaining replica
        // (min_len == block length) there is nothing to resend — send a
        // synthetic empty `last` packet so the recovered (un-finalized)
        // replicas re-finalize under the new generation and the acks /
        // FNFA flow as usual.
        if finished_sending && !sent_last {
            let seq = retained.last().map(|p| p.seq + 1).unwrap_or(0);
            let empty = Packet {
                seq,
                offset_in_block: min_len,
                last_in_block: true,
                checksums: Vec::new(),
                payload: bytes::Bytes::new(),
            };
            if let Err(e) = pipeline.send_packet(empty) {
                return Err((e, new_targets));
            }
        }
        Ok((pipeline, true))
    }

    /// Total loss before any ack: abandon the block and allocate a fresh
    /// one on undamaged nodes.
    fn rebuild_from_scratch(
        &mut self,
        old_block: ExtendedBlock,
        retained: &[Packet],
        old_ctx: Option<TraceCtx>,
    ) -> DfsResult<(Pipeline, bool)> {
        self.obs().emit_traced(old_ctx, ObsEvent::RecoveryStep {
            block: old_block.id,
            step: "scratch rebuild: abandoning block, reallocating".into(),
        });
        match self
            .ctx
            .rpc
            .abandon_block(self.ctx.id, self.file_id, old_block.id)
        {
            Ok(()) => {}
            // A previous attempt of this same incident already abandoned
            // the block before failing further along — not an error.
            Err(DfsError::UnknownBlock(_)) => {}
            Err(e) => return Err(e),
        }
        let mut attempts = 0u32;
        let located = loop {
            let excluded = self.busy_and_dead();
            match self
                .ctx
                .rpc
                .add_block(self.ctx.id, self.file_id, None, &excluded)
            {
                Ok(lb) if lb.targets.len() < self.replication && !self.pending.is_empty() => {
                    // Short only because our own draining pipelines hold
                    // the other nodes (§IV-C) — wait for one to finish
                    // rather than replaying into an under-replicated
                    // pipeline.
                    let _ = self.abandon_allocation(lb.block.id);
                    let ev = self.wait_event()?;
                    self.process_event(ev)?;
                }
                Ok(lb) => break lb,
                Err(DfsError::PlacementFailed { .. }) if !self.pending.is_empty() => {
                    let ev = self.wait_event()?;
                    self.process_event(ev)?;
                }
                Err(e) => return Err(e),
            }
            attempts += 1;
            if attempts >= MAX_RECOVERY_ATTEMPTS {
                return Err(DfsError::PlacementFailed {
                    wanted: self.replication,
                    available: 0,
                });
            }
        };
        // A scratch rebuild is a new allocation: it carries the fresh
        // trace context the namenode just minted for it.
        let ctx = located.trace_ctx();
        let mut pipeline = self.open_pipeline(located.block, located.targets, ctx)?;
        for pkt in retained {
            pipeline.send_packet(pkt.clone())?;
        }
        Ok((pipeline, true))
    }

    fn mark_dead(&mut self, dn: DatanodeId) {
        if !self.dead.contains(&dn) {
            self.dead.push(dn);
        }
    }

    /// What a probe learned about one former pipeline member.
    fn probe_replica(&self, target: &DatanodeInfo, block: ExtendedBlock) -> Probe {
        let Ok(mut stream) = self.ctx.fabric.connect(&self.ctx.host, &target.addr) else {
            return Probe::Unreachable;
        };
        if send_message(&mut stream, &DataOp::GetReplicaInfo { block: block.id }).is_err() {
            return Probe::Unreachable;
        }
        match recv_message::<DataReply>(&mut stream) {
            Ok(DataReply::ReplicaInfo {
                block: Some(b), ..
            }) if b.gen >= block.gen => Probe::Has(b.len),
            // The node answered: it is alive, it just has nothing (or
            // only a stale generation) for this block.
            Ok(_) => Probe::NoReplica,
            Err(_) => Probe::Unreachable,
        }
    }

    fn recover_replica(
        &self,
        target: &DatanodeInfo,
        block: ExtendedBlock,
        new_gen: smarth_core::ids::GenStamp,
        new_len: u64,
    ) -> DfsResult<()> {
        let mut stream = self.ctx.fabric.connect(&self.ctx.host, &target.addr)?;
        send_message(
            &mut stream,
            &DataOp::RecoverBlock {
                block,
                new_gen,
                new_len,
            },
        )?;
        match recv_message::<DataReply>(&mut stream)? {
            DataReply::RecoverOk { .. } => Ok(()),
            DataReply::Error(e) => Err(DfsError::connection_lost(format!(
                "recoverBlock on {}: {e}",
                target.host_name
            ))),
            other => Err(DfsError::internal(format!(
                "unexpected recoverBlock reply {other:?}"
            ))),
        }
    }
}

/// Outcome of probing a former pipeline member during recovery. The
/// distinction between `Unreachable` and `NoReplica` matters: only the
/// former means the node is dead.
enum Probe {
    Unreachable,
    NoReplica,
    Has(u64),
}

fn infos(survivors: &[(DatanodeInfo, u64)]) -> Vec<DatanodeInfo> {
    survivors.iter().map(|(t, _)| t.clone()).collect()
}
