//! `DfsOutputStream` — the client write path, in both protocols: the
//! executor of one [`Session`], which decides when a block is asked for,
//! finished and committed (HDFS stop-and-wait, §II; SMARTH's FNFA
//! pipelining under the §IV-C busy set, §III-A), and of
//! `smarth_core::recovery`'s Algorithms 3 and 4 when a pipeline breaks.
//! This stream owns the threads, sockets and retained packets: it opens
//! the pipelines, sends the packets and the RPCs, and feeds back every
//! pipeline event. `create` brought the first block's allocation, so
//! the first `write` opens a pipeline at once.

use crate::client::ClientCtx;
use crate::pipeline::{now, Pipeline, PipelineEvent, PipelineEventKind};
use crossbeam_channel::{unbounded, Receiver, Sender};
use smarth_core::checksum::ChunkedChecksum;
use smarth_core::config::WriteMode;
use smarth_core::error::{DfsError, DfsResult};
use smarth_core::ids::{BlockId, ExtendedBlock, FileId, GenStamp, PipelineId};
use smarth_core::obs::{Obs, ObsEvent, RecoveryCause, TraceCtx};
use smarth_core::proto::{DataOp, DataReply, DatanodeInfo, LocatedBlock, Packet};
use smarth_core::recovery::{self, AckTimeouts, Probe, Recovery, Retained};
use smarth_core::wire::{recv_message, send_message};
use smarth_core::write::{Action, Input, Lent, Session};
pub use smarth_core::write::StreamStats;
use std::sync::Arc;
use std::time::Duration;

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

    /// Decides what happens to every block; this stream performs it.
    session: Session,
    /// The open pipelines: the current one and the draining ones.
    pipes: Vec<Pipeline>,
    packet_buf: Vec<u8>,
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
        let metrics = ctx.obs.metrics().clone();
        let session = Session::new(ctx.id, mode, &ctx.config, first_block, metrics);
        Self {
            ctx,
            file_id,
            mode,
            replication,
            checksum,
            events_tx,
            events_rx,
            next_pipeline: 1,
            session,
            pipes: Vec::new(),
            packet_buf: Vec::new(),
        }
    }

    fn obs(&self) -> &Obs {
        &self.ctx.obs
    }

    /// Currently active pipelines (current + draining).
    pub fn active_pipelines(&self) -> usize {
        self.session.active()
    }

    /// Host names of the datanodes in the *current* block's pipeline,
    /// first node first; empty between blocks. Fault-injection harnesses
    /// use this to aim a kill at a live pipeline member.
    pub fn current_target_hosts(&self) -> Vec<String> {
        let current = self.pipes.iter().filter(|p| Some(p.id) == self.session.current());
        current.flat_map(|p| &p.targets).map(|t| t.host_name.clone()).collect()
    }

    /// Appends data to the stream, blocking under network backpressure.
    pub fn write(&mut self, mut data: &[u8]) -> DfsResult<()> {
        let packet_size = self.ctx.config.packet_size.as_u64() as usize;
        while !data.is_empty() {
            if self.session.current().is_none() {
                self.open_next_block()?;
            }
            let block_room = self.session.room() - self.packet_buf.len() as u64;
            let take = data.len().min(packet_size - self.packet_buf.len()).min(block_room as usize);
            self.packet_buf.extend_from_slice(&data[..take]);
            data = &data[take..];

            let at_block_end = take as u64 == block_room;
            if self.packet_buf.len() == packet_size || at_block_end {
                self.flush_packet(at_block_end)?;
                if at_block_end {
                    self.await_finish()?;
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
        if !self.packet_buf.is_empty() || self.session.current().is_some() {
            self.flush_packet(true)?;
            self.await_finish()?;
        }
        // §II steps 5-6: wait for every ack, commit, then complete.
        let mut timeouts = AckTimeouts::default();
        loop {
            for action in self.session.on(Input::Close) {
                match action {
                    Action::AwaitEvent => self.pump_event(&mut timeouts)?,
                    Action::GiveBack(block) => self.abandon_allocation(block)?,
                    Action::Complete(last) => {
                        self.ctx.rpc.complete(self.ctx.id, self.file_id, last)?;
                        return Ok(self.session.stats);
                    }
                    other => self.act(other)?,
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Block lifecycle
    // ------------------------------------------------------------------

    /// Asks the session for a block until one is open. A namenode outage
    /// on `addBlock` and a first target that refuses the pipeline are
    /// incidents of one [`Recovery::opening`] plan per block.
    fn open_next_block(&mut self) -> DfsResult<()> {
        let mut plan = Recovery::opening();
        let mut reply = None;
        while self.session.current().is_none() {
            let actions = {
                let (tracker, mut rng) = (self.ctx.tracker.lock(), self.ctx.rng.lock());
                let lent = Lent { now: now(), tracker: &tracker, rng: &mut *rng };
                self.session.on(match reply.take() {
                    Some(reply) => Input::Allocated(reply, lent),
                    None => Input::NeedBlock(lent),
                })
            };
            for action in actions {
                match action {
                    Action::AddBlock { previous, excluded } => {
                        reply = Some(self.ctx.rpc.add_block(self.ctx.id, self.file_id, previous, &excluded));
                    }
                    Action::AwaitEvent => self.handle_next_event()?,
                    Action::Failed(e) => {
                        // Between blocks: no allocation exists yet.
                        let mut site = Site::new(ExtendedBlock::new(BlockId(0), GenStamp::INITIAL, 0), None);
                        self.drive(&mut plan, recovery::Input::AllocationFailed(e), &mut site)?;
                    }
                    Action::Open { block, targets, ctx } => {
                        let first = targets[0].id;
                        match self.open_pipeline(block, targets, ctx) {
                            Ok(pipeline) => {
                                self.feed(Input::Opened(pipeline.up()))?;
                                self.pipes.push(pipeline);
                            }
                            Err(error) => {
                                let mut site = Site::new(block, ctx);
                                self.drive(&mut plan, recovery::Input::Refused { first, error }, &mut site)?;
                            }
                        }
                    }
                    other => self.act(other)?,
                }
            }
        }
        Ok(())
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

    fn take_pipe(&mut self, id: PipelineId) -> Pipeline {
        let i = self.pipes.iter().position(|p| p.id == id).expect("an open pipeline");
        self.pipes.swap_remove(i)
    }

    fn flush_packet(&mut self, last_in_block: bool) -> DfsResult<()> {
        // Surface any pending pipeline events (errors especially) before
        // committing more data to a possibly-dead pipeline.
        while let Ok(ev) = self.events_rx.try_recv() {
            self.on_event(ev)?;
        }
        let payload = bytes::Bytes::from(std::mem::take(&mut self.packet_buf));
        let packet = Input::Packet { len: payload.len() as u64, last: last_in_block };
        let mut actions = self.session.on(packet).into_iter();
        let Some(Action::Send { id, seq, offset, last }) = actions.next() else {
            unreachable!("a packet is sent before anything it finishes")
        };
        let checksums = self.checksum.compute(&payload);
        let pkt = Packet { seq, offset_in_block: offset, last_in_block: last, checksums, payload };
        let pipeline = self.pipes.iter_mut().find(|p| p.id == id).expect("the current pipeline");
        if pipeline.send_packet(pkt).is_err() {
            // The packet is retained in the pipeline, so recovery will
            // resend it (Algorithm 3 line 3).
            self.feed(Input::Failed(id, recovery::Input::SendFailed))?;
        }
        actions.try_for_each(|action| self.act(action))
    }

    /// Waits until the session finished the current block: HDFS is
    /// stop-and-wait, every replica acks; SMARTH (§III-A) waits only for
    /// the FNFA and lets the pipeline drain in the background.
    fn await_finish(&mut self) -> DfsResult<()> {
        let mut timeouts = AckTimeouts::default();
        while self.session.current().is_some() {
            self.pump_event(&mut timeouts)?;
        }
        Ok(())
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
        self.on_event(ev)
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
            Ok(ev) => self.on_event(ev),
            Err(_) if self.session.active() > 0 && timeouts.recover() => self.feed(Input::Stalled),
            Err(e) => Err(e),
        }
    }

    fn on_event(&mut self, ev: PipelineEvent) -> DfsResult<()> {
        let id = ev.pipeline;
        self.feed(match ev.kind {
            PipelineEventKind::FirstNodeFinish => Input::Fnfa { id, now: now() },
            PipelineEventKind::FullyAcked => Input::FullyAcked(id),
            PipelineEventKind::Error { failed_index } => {
                Input::Failed(id, recovery::Input::HopError(failed_index))
            }
        })
    }

    fn feed(&mut self, input: Input<'_>) -> DfsResult<()> {
        self.session.on(input).into_iter().try_for_each(|action| self.act(action))
    }

    /// Performs one action of the session that needs no answer here.
    fn act(&mut self, action: Action) -> DfsResult<()> {
        match action {
            Action::Log(ctx, event) => self.obs().emit_traced(ctx, event),
            Action::SpeedRecord { first, bytes, took } => self.ctx.tracker.lock().observe(first, bytes, took),
            Action::GiveBack(block) => _ = self.abandon_allocation(block),
            // The write loop asks for the next block when it has bytes.
            Action::NextBlock => {}
            Action::Commit(block) => self.ctx.rpc.commit_block(self.ctx.id, self.file_id, block)?,
            Action::Close { id, committed } => {
                let pipeline = self.take_pipe(id);
                self.close_pipeline(pipeline, committed);
            }
            Action::Recover(id, cause) => self.recover(id, cause)?,
            other => unreachable!("{other:?} answers no pipeline event"),
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Fault tolerance (Algorithms 3 & 4), decided by `smarth_core::recovery`
    // ------------------------------------------------------------------

    /// Recovers one pipeline: Algorithm 3, invoked per failed pipeline as
    /// Algorithm 4's loop (events arrive one at a time, so the
    /// error-pipeline set is drained through repeated calls).
    fn recover(&mut self, pipeline_id: PipelineId, trigger: recovery::Input) -> DfsResult<()> {
        let old = self.take_pipe(pipeline_id);
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
        // Step 7 of Algorithm 4: the session resumes the interrupted
        // block, or restores the pipeline to its draining role.
        let rebuilt = site.rebuilt.take().filter(|_| result.is_ok());
        let new = rebuilt.as_ref().map(Pipeline::up);
        self.pipes.extend(rebuilt);
        self.feed(Input::Rebuilt { old: pipeline_id, new })?;
        self.obs().emit_traced(site.ctx, ObsEvent::RecoveryFinished {
            block: site.block.id,
            success: result.is_ok(),
        });
        result
    }

    /// Executes `plan` from `input` on: performs every action and feeds
    /// the answer to the one request among them back, until a list asks
    /// for nothing.
    fn drive(&mut self, plan: &mut Recovery, mut input: recovery::Input, site: &mut Site<'_>) -> DfsResult<()> {
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
    fn perform(&mut self, action: recovery::Action, site: &mut Site<'_>) -> DfsResult<Option<recovery::Input>> {
        use recovery::{Action, Input};
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
                self.feed(smarth_core::write::Input::Dead(dn))?;
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
                existing.extend(self.session.excluded());
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
                let reply = self.ctx.rpc.add_block(client, self.file_id, None, &self.session.excluded());
                Some(Input::Allocated { reply, draining: self.session.draining() })
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

    /// Opens a pipeline and sends it `packets`; a pipeline that fails on
    /// the way is closed uncommitted, its packets no longer in flight.
    fn resend(
        &mut self,
        block: ExtendedBlock,
        targets: Vec<DatanodeInfo>,
        ctx: Option<TraceCtx>,
        packets: impl Iterator<Item = Packet>,
    ) -> DfsResult<Pipeline> {
        let mut pipeline = self.open_pipeline(block, targets, ctx)?;
        for pkt in packets {
            if let Err(e) = pipeline.send_packet(pkt) {
                pipeline.take_retained_packets();
                self.close_pipeline(pipeline, false);
                return Err(e);
            }
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
        self.session.stats.recoveries += 1;
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
