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
//! then resume the interrupted block). `smarth_core::recovery` decides
//! every step; this stream performs them.

use crate::client::ClientCtx;
use crate::pipeline::{Pipeline, PipelineEvent, PipelineEventKind};
use crossbeam_channel::{unbounded, Receiver, Sender};
use smarth_core::checksum::ChunkedChecksum;
use smarth_core::config::WriteMode;
use smarth_core::error::{DfsError, DfsResult};
use smarth_core::ids::{BlockId, DatanodeId, ExtendedBlock, FileId, GenStamp, PipelineId};
use smarth_core::localopt::{local_optimize, LocalOptOutcome};
use smarth_core::obs::{Obs, ObsEvent, RecoveryCause, TraceCtx};
use smarth_core::proto::{DataOp, DataReply, DatanodeInfo, LocatedBlock, Packet};
use smarth_core::recovery::{self, AckTimeouts, Action, Allocation, Input, Probe, Recovery, Retained};
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
        mode: WriteMode,
        replication: usize,
        first_block: Option<LocatedBlock>,
    ) -> Self {
        let (events_tx, events_rx) = unbounded();
        let checksum = ChunkedChecksum::new(ctx.config.bytes_per_checksum);
        Self {
            ctx,
            file_id,
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

    /// Currently active pipelines (current + draining).
    pub fn active_pipelines(&self) -> usize {
        self.pending.len() + usize::from(self.current.is_some())
    }

    /// Host names of the datanodes in the *current* block's pipeline,
    /// first node first; empty between blocks. Fault-injection harnesses
    /// use this to aim a kill at a live pipeline member.
    pub fn current_target_hosts(&self) -> Vec<String> {
        let targets = self.current.iter().flat_map(|c| &c.pipeline.targets);
        targets.map(|t| t.host_name.clone()).collect()
    }

    /// Appends data to the stream, blocking under network backpressure.
    pub fn write(&mut self, mut data: &[u8]) -> DfsResult<()> {
        let packet_size = self.ctx.config.packet_size.as_u64() as usize;
        let block_size = self.ctx.config.block_size.as_u64();
        while !data.is_empty() {
            if self.current.is_none() {
                self.open_next_block()?;
            }
            let offset = self.current.as_ref().map(|c| c.offset).expect("a current block");
            let block_remaining = block_size - offset - self.packet_buf.len() as u64;
            let packet_remaining = packet_size - self.packet_buf.len();
            let take = data.len().min(packet_remaining).min(block_remaining as usize);
            self.packet_buf.extend_from_slice(&data[..take]);
            data = &data[take..];
            self.stats.bytes_written += take as u64;
            self.obs().metrics().bytes_written.add(take as u64);

            let at_block_end = offset + self.packet_buf.len() as u64 == block_size;
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
        let mut timeouts = AckTimeouts::default();
        while !self.pending.is_empty() {
            self.pump_event(&mut timeouts)?;
        }
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

    /// Allocates the next block and opens its pipeline. A namenode outage
    /// on `addBlock` and a first target that refuses the pipeline are
    /// incidents of one [`Recovery::opening`] plan per block.
    fn open_next_block(&mut self) -> DfsResult<()> {
        let mut plan = Recovery::opening();
        loop {
            // Ablation cap on concurrent pipelines (§IV-C's rule emerges
            // naturally from placement exclusions; the override forces a
            // different cap).
            if let Some(cap) = self.ctx.config.max_pipelines_override {
                while self.pending.len() + 1 > cap.max(1) {
                    self.handle_next_event()?;
                }
            }

            let located = loop {
                let excluded = self.busy_and_dead();
                // Piggyback the oldest deferred commit on this allocation
                // rather than spending a separate RPC round trip. A
                // scratch rebuild keeps `previous = None`: it must not
                // couple a replay to unrelated commit state.
                let previous = self.deferred_commits.first().copied();
                // The first block's allocation came with `create`, when
                // nothing was busy, dead or waiting for its commit.
                let reply = match self.first_block.take() {
                    Some(lb) => Ok(lb),
                    None => self.ctx.rpc.add_block(self.ctx.id, self.file_id, previous, &excluded),
                };
                let outcome = recovery::allocation(reply, self.replication, !self.pending.is_empty());
                if !matches!(outcome, Allocation::Failed(_)) {
                    // Any placement outcome means the commit landed: the
                    // namenode applies `previous` before it places.
                    self.deferred_commit_landed();
                }
                match outcome {
                    Allocation::Use(lb) => break lb,
                    Allocation::GiveBack(block) => {
                        let _ = self.abandon_allocation(block);
                        self.handle_next_event()?;
                    }
                    Allocation::Wait => self.handle_next_event()?,
                    Allocation::Failed(e) => {
                        // Between blocks: no allocation exists yet.
                        let mut site = Site::new(ExtendedBlock::new(BlockId(0), GenStamp::INITIAL, 0), None);
                        self.drive(&mut plan, Input::AllocationFailed(e), &mut site)?;
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
            match self.open_pipeline(located.block, targets, ctx) {
                Ok(pipeline) => {
                    self.current = Some(ActiveBlock {
                        pipeline,
                        next_seq: 0,
                        offset: 0,
                        fnfa: false,
                        fully_acked: false,
                    });
                    let active = self.active_pipelines();
                    self.stats.max_concurrent_pipelines =
                        self.stats.max_concurrent_pipelines.max(active);
                    return Ok(());
                }
                Err(error) => {
                    let mut site = Site::new(located.block, ctx);
                    self.drive(&mut plan, Input::Refused { first, error }, &mut site)?;
                }
            }
        }
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

    /// Records a pipeline's fate; dropping it joins its threads.
    fn close_pipeline(&self, pipeline: Pipeline, committed: bool) {
        self.obs().metrics().concurrent_pipelines.dec();
        self.obs().emit_traced(pipeline.ctx, ObsEvent::PipelineClosed {
            block: pipeline.block.id,
            committed,
        });
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
            self.recover(pipeline_id, Input::SendFailed)?;
        }
        Ok(())
    }

    /// Called once the last packet of the current block has been sent.
    /// HDFS is stop-and-wait: it blocks until every replica acked. SMARTH
    /// (§III-A) waits only for the FNFA and lets the pipeline drain in
    /// the background.
    fn finish_current_block(&mut self) -> DfsResult<()> {
        let hdfs = self.mode == WriteMode::Hdfs;
        let mut timeouts = AckTimeouts::default();
        while !self.current.as_ref().is_some_and(|c| if hdfs { c.fully_acked } else { c.fnfa }) {
            self.pump_event(&mut timeouts)?;
        }
        let done = self.current.take().expect("current");
        let block = ExtendedBlock::new(done.pipeline.block.id, done.pipeline.block.gen, done.offset);
        if hdfs {
            self.ctx.rpc.commit_block(self.ctx.id, self.file_id, block)?;
            self.stats.blocks_committed += 1;
            self.obs().metrics().blocks_committed.inc();
            self.close_pipeline(done.pipeline, true);
        } else if done.fully_acked {
            // On a fast cluster the full-pipeline ack can arrive while the
            // block is still current (it may even beat the FNFA frame,
            // whose write races the final ack). Its completion event is
            // already consumed, so queue its commit here instead of
            // parking it in `pending` where no further event would ever
            // release it.
            self.deferred_commits.push(block);
            self.close_pipeline(done.pipeline, true);
        } else {
            self.pending.push(PendingPipeline { len: done.offset, pipeline: done.pipeline });
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
        let timeout = Duration::from_secs_f64(self.ctx.config.pipeline_event_timeout.as_secs_f64());
        let ev = self.events_rx.recv_timeout(timeout);
        ev.map_err(|_| DfsError::Timeout("waiting for pipeline events".into()))
    }

    /// Waits for one pipeline event and processes it.
    fn handle_next_event(&mut self) -> DfsResult<()> {
        let ev = self.wait_event()?;
        self.process_event(ev)
    }

    /// Waits for one pipeline event and processes it. A timeout while a
    /// pipeline is in flight is classified as an *ack timeout* — the
    /// transport is up but no ack arrived within the event timeout — and
    /// triggers recovery with [`RecoveryCause::AckTimeout`], distinct
    /// from `ConnectionLost` (a broken transport, reported by the
    /// responder). `timeouts` holds the retry budget, so a persistently
    /// silent cluster still surfaces the timeout error.
    fn pump_event(&mut self, timeouts: &mut AckTimeouts) -> DfsResult<()> {
        match self.wait_event() {
            Ok(ev) => self.process_event(ev),
            Err(e) => {
                let current = self.current.as_ref().map(|c| c.pipeline.id);
                match current.or_else(|| self.pending.first().map(|p| p.pipeline.id)) {
                    Some(pid) if timeouts.recover() => self.recover(pid, Input::AckTimeout),
                    _ => Err(e),
                }
            }
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
                        let first = c.pipeline.targets[0].id;
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
                    let block = done.pipeline.block;
                    self.deferred_commits.push(ExtendedBlock::new(block.id, block.gen, done.len));
                    self.close_pipeline(done.pipeline, true);
                }
            }
            PipelineEventKind::Error { failed_index } => {
                // Stale error events for already-recovered pipelines are
                // ignored inside recover().
                self.recover(ev.pipeline, Input::HopError(failed_index))?;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Fault tolerance (Algorithms 3 & 4), decided by `smarth_core::recovery`
    // ------------------------------------------------------------------

    /// Recovers one pipeline: Algorithm 3, invoked per failed pipeline as
    /// Algorithm 4's loop (events arrive one at a time, so the
    /// error-pipeline set is drained through repeated calls).
    fn recover(&mut self, pipeline_id: PipelineId, trigger: Input) -> DfsResult<()> {
        let is_current = self.current.as_ref().is_some_and(|c| c.pipeline.id == pipeline_id);
        let (old, len, resume) = if is_current {
            let c = self.current.take().expect("checked");
            (c.pipeline, c.offset, Some(c.next_seq))
        } else if let Some(i) = self.pending.iter().position(|p| p.pipeline.id == pipeline_id) {
            let p = self.pending.remove(i);
            (p.pipeline, p.len, None)
        } else {
            return Ok(()); // stale event for a replaced pipeline
        };
        let retained = old.take_retained_packets();
        let mut plan = Recovery::new(
            pipeline_id,
            old.targets.clone(),
            old.packets_acked() > 0,
            Retained::of(&retained, old.finished_sending()),
            self.replication,
        );
        let mut site = Site::new(old.block, old.ctx);
        site.retained = &retained;
        site.broken = Some(old);
        let result = self.drive(&mut plan, trigger, &mut site);
        if result.is_ok() {
            // Step 7 of Algorithm 4: resume the interrupted block, or
            // restore the pipeline to its draining role.
            let pipeline = site.rebuilt.take().expect("a rebuilt pipeline");
            match resume {
                Some(next_seq) => {
                    self.current = Some(ActiveBlock {
                        pipeline,
                        next_seq,
                        offset: len,
                        fnfa: false,
                        fully_acked: false,
                    });
                }
                None => self.pending.push(PendingPipeline { pipeline, len }),
            }
        }
        self.obs().emit_traced(site.ctx, ObsEvent::RecoveryFinished {
            block: site.block.id,
            success: result.is_ok(),
        });
        result
    }

    /// Executes `plan` from `input` on: performs every action and feeds
    /// the answer to the one request among them back, until a list asks
    /// for nothing.
    fn drive(&mut self, plan: &mut Recovery, mut input: Input, site: &mut Site<'_>) -> DfsResult<()> {
        loop {
            let mut answer = None;
            for action in plan.on(input) {
                answer = self.perform(action, site)?.or(answer);
            }
            let Some(next) = answer else { return Ok(()) };
            input = next;
        }
    }

    /// Performs one action; a request returns its answer.
    fn perform(&mut self, action: Action, site: &mut Site<'_>) -> DfsResult<Option<Input>> {
        let (block, ctx, client) = (site.block, site.ctx, self.ctx.id);
        let retained = site.retained;
        Ok(match action {
            Action::Begin(cause) => {
                self.recovery_started(ctx, block.id, cause, 1, false);
                if let Some(old) = site.broken.take() {
                    self.close_pipeline(old, false);
                }
                None
            }
            Action::Step(step) => {
                self.obs().emit_traced(ctx, ObsEvent::RecoveryStep { block: block.id, step });
                None
            }
            // Over the moment it is known: a balanced zero-length span.
            Action::Incident { cause, nested, attempt, step } => {
                self.recovery_started(ctx, block.id, cause, attempt, nested);
                self.obs().emit_traced(ctx, ObsEvent::RecoveryStep { block: block.id, step });
                let finished = ObsEvent::RecoveryFinished { block: block.id, success: false };
                self.obs().emit_traced(ctx, finished);
                None
            }
            Action::MarkDead(dn) => {
                if !self.dead.contains(&dn) {
                    self.dead.push(dn);
                }
                None
            }
            Action::Backoff(attempt) => {
                // The RPC layer already spent its per-call retries; the
                // stream waits longer between incidents so a stalled
                // namenode has time to come back.
                let pause = self.ctx.config.rpc_retry.backoff_for(attempt.min(8));
                std::thread::sleep(Duration::from_secs_f64(pause.as_secs_f64()));
                None
            }
            Action::Probe(targets) => {
                Some(Input::Probed(targets.iter().map(|t| self.probe_replica(t, block)).collect()))
            }
            Action::NewStamp => Some(Input::Stamp(self.ctx.rpc.begin_block_recovery(client, block.id))),
            Action::Recover { targets, gen, len } => Some(Input::Recovered(
                targets
                    .iter()
                    .map(|t| self.recover_replica(t, block, gen, len).is_ok())
                    .collect(),
            )),
            Action::AddDatanodes { mut existing, wanted } => {
                existing.extend(self.busy_and_dead());
                let reply = self.ctx.rpc.additional_datanodes(client, block.id, &existing, wanted);
                Some(Input::Extra(reply))
            }
            Action::Reopen { targets, gen, from, seal } => {
                // Same block, same trace: the rebuilt pipeline stays on the
                // original causal context so the assembler can stitch the
                // recovery sub-span into the block's timeline.
                let packets = retained.iter().filter(|p| p.offset_in_block >= from).cloned();
                let block = ExtendedBlock::new(block.id, gen, 0);
                let opened = self.resend(block, targets, ctx, packets.chain(seal));
                Some(Input::Opened(opened.map(|p| site.rebuilt = Some(p))))
            }
            // A new allocation carries the trace context minted for it.
            Action::OpenFresh(lb) => {
                let ctx = lb.trace_ctx();
                let opened = self.resend(lb.block, lb.targets, ctx, retained.iter().cloned());
                Some(Input::Opened(opened.map(|p| site.rebuilt = Some(p))))
            }
            Action::Abandon => Some(Input::Abandoned(
                self.ctx.rpc.abandon_block(client, self.file_id, block.id),
            )),
            Action::Allocate => {
                let reply = self.ctx.rpc.add_block(client, self.file_id, None, &self.busy_and_dead());
                Some(Input::Allocated { reply, draining: !self.pending.is_empty() })
            }
            Action::GiveBack(id) => {
                let _ = self.abandon_allocation(id);
                None
            }
            Action::WaitDrain => Some(Input::Drained(self.handle_next_event())),
            Action::Reallocate => {
                self.abandon_allocation(block.id)?;
                None
            }
            Action::Done => None,
            Action::Fail(e) => return Err(e),
        })
    }

    /// Opens a pipeline and sends it `packets`.
    fn resend(
        &mut self,
        block: ExtendedBlock,
        targets: Vec<DatanodeInfo>,
        ctx: Option<TraceCtx>,
        packets: impl Iterator<Item = Packet>,
    ) -> DfsResult<Pipeline> {
        let mut pipeline = self.open_pipeline(block, targets, ctx)?;
        for pkt in packets {
            pipeline.send_packet(pkt)?;
        }
        Ok(pipeline)
    }

    /// Counts and attributes a recovery incident and opens its span.
    fn recovery_started(
        &mut self,
        ctx: Option<TraceCtx>,
        block: BlockId,
        cause: RecoveryCause,
        attempt: u32,
        nested: bool,
    ) {
        self.stats.recoveries += 1;
        self.obs().metrics().record_recovery(cause);
        let started = ObsEvent::RecoveryStarted { block, attempt, cause, nested };
        self.obs().emit_traced(ctx, started);
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
        new_gen: GenStamp,
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

/// What the executor of one incident acts on.
struct Site<'a> {
    /// The block the incident interrupted (`BlockId(0)` between blocks).
    block: ExtendedBlock,
    ctx: Option<TraceCtx>,
    /// The recovery resend source (Algorithm 3 line 3).
    retained: &'a [Packet],
    /// The broken pipeline, until `Action::Begin` closes it.
    broken: Option<Pipeline>,
    rebuilt: Option<Pipeline>,
}

impl Site<'_> {
    fn new(block: ExtendedBlock, ctx: Option<TraceCtx>) -> Self {
        Site { block, ctx, retained: &[], broken: None, rebuilt: None }
    }
}
