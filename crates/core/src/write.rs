//! A client's output stream as one sans-IO machine, driven by the
//! emulator's `DfsOutputStream` and by the DES's client events. No I/O,
//! no thread, no clock: time comes with the input.
//!
//! Decided here only: when a block is asked for (HDFS: once the current
//! one is fully acked; SMARTH, §III-A: at its FNFA; never past
//! `max_pipelines_override`), the keep rule, what `addBlock` carries
//! (the oldest unsent commit, landed on any placement outcome; busy ∪
//! dead excluded, §IV-C), Algorithm 2, packet seq and offset, when a
//! block is finished, the commits (HDFS: `commitBlock` at each full ack;
//! SMARTH: they ride the next `addBlock`, those left at close go out
//! oldest first and the newest rides `complete`), the §III-B speed
//! record, the stream's events and counters, and which pipeline a fault
//! hands to recovery and where the rebuilt one goes (Algorithm 4 step 7).

use crate::config::{DfsConfig, WriteMode};
use crate::error::{DfsError, DfsResult};
use crate::ids::{BlockId, ClientId, DatanodeId, ExtendedBlock, PipelineId};
use crate::localopt::{local_optimize, LocalOptOutcome};
use crate::obs::{Metrics, ObsEvent, TraceCtx};
use crate::proto::{DatanodeInfo, LocatedBlock};
use crate::recovery::{self, Allocation};
use crate::speed::ClientSpeedTracker;
use crate::units::{ByteSize, SimDuration, SimInstant};
use rand::RngCore;
use std::collections::VecDeque;
use std::sync::Arc;

/// Counters of one stream.
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

/// What the driver lends a placement: the time, and Algorithm 2's
/// speed records and RNG.
pub struct Lent<'a> {
    pub now: SimInstant,
    pub tracker: &'a ClientSpeedTracker,
    pub rng: &'a mut dyn RngCore,
}

/// A pipeline that is up: opened for a block, or rebuilt by a recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct Opened {
    pub id: PipelineId,
    pub block: ExtendedBlock,
    pub targets: Vec<DatanodeId>,
    pub ctx: Option<TraceCtx>,
    pub at: SimInstant,
}

/// What the driver learned.
pub enum Input<'a> {
    /// Bytes wait and no block is current.
    NeedBlock(Lent<'a>),
    /// The answer to [`Action::AddBlock`].
    Allocated(DfsResult<LocatedBlock>, Lent<'a>),
    /// The answer to [`Action::Open`].
    Opened(Opened),
    /// A packet of `len` bytes for the current block; `last` seals it.
    Packet { len: u64, last: bool },
    Fnfa { id: PipelineId, now: SimInstant },
    FullyAcked(PipelineId),
    /// A hop error or a send failure.
    Failed(PipelineId, recovery::Input),
    /// No pipeline event within the event timeout.
    Stalled,
    Dead(DatanodeId),
    /// The answer to [`Action::Recover`]: none when it failed.
    Rebuilt { old: PipelineId, new: Option<Opened> },
    Close,
}

/// What the driver does.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    Log(Option<TraceCtx>, ObsEvent),
    AddBlock { previous: Option<ExtendedBlock>, excluded: Vec<DatanodeId> },
    GiveBack(BlockId),
    /// Handle one pipeline event, then ask again.
    AwaitEvent,
    /// The namenode refused a block: an incident of opening it.
    Failed(DfsError),
    Open { block: ExtendedBlock, targets: Vec<DatanodeInfo>, ctx: Option<TraceCtx> },
    Send { id: PipelineId, seq: u64, offset: u64, last: bool },
    /// §III-B: the client's speed record of a first datanode.
    SpeedRecord { first: DatanodeId, bytes: ByteSize, took: SimDuration },
    /// The current block is finished: the next one may be asked for.
    NextBlock,
    Commit(ExtendedBlock),
    Close { id: PipelineId, committed: bool },
    /// Run Algorithm 3 on the pipeline.
    Recover(PipelineId, recovery::Input),
    Complete(Option<ExtendedBlock>),
}

/// What one input calls for, in order: at most four actions.
#[derive(Debug, Default)]
pub struct Actions([Option<Action>; 4]);

impl Actions {
    fn push(&mut self, action: Action) {
        *self.0.iter_mut().find(|a| a.is_none()).expect("at most four") = Some(action);
    }
}

impl IntoIterator for Actions {
    type Item = Action;
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<Action>, 4>>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter().flatten()
    }
}

/// One open pipeline; `up.block.len` counts the bytes handed to it.
#[derive(Debug)]
struct Pipe {
    up: Opened,
    next_seq: u64,
    sealed: bool,
    fnfa: bool,
    fully_acked: bool,
}

/// One output stream.
#[derive(Debug)]
pub struct Session {
    client: ClientId,
    mode: WriteMode,
    replication: usize,
    block_size: u64,
    cap: Option<usize>,
    /// Algorithm 2's threshold, when it runs.
    local_opt: Option<f64>,
    metrics: Arc<Metrics>,
    /// The allocation `create` brought, until it is used or given back.
    first: Option<LocatedBlock>,
    current: Option<Pipe>,
    draining: Vec<Pipe>,
    /// Taken out by a recovery in flight; `true`: it was current.
    recovering: Vec<(Pipe, bool)>,
    /// Fully acked blocks whose commit was not sent yet.
    deferred: VecDeque<ExtendedBlock>,
    dead: Vec<DatanodeId>,
    last_fnfa: Option<SimInstant>,
    pub stats: StreamStats,
}

impl Session {
    pub fn new(
        client: ClientId,
        mode: WriteMode,
        config: &DfsConfig,
        first: Option<LocatedBlock>,
        metrics: Arc<Metrics>,
    ) -> Self {
        Session {
            client,
            mode,
            replication: config.replication,
            block_size: config.block_size.as_u64(),
            cap: config.max_pipelines_override.map(|cap| cap.max(1)),
            local_opt: config.runs_local_opt(mode).then_some(config.local_opt_threshold),
            metrics,
            first,
            current: None,
            draining: Vec::new(),
            recovering: Vec::new(),
            deferred: VecDeque::new(),
            dead: Vec::new(),
            last_fnfa: None,
            stats: StreamStats::default(),
        }
    }

    pub fn current(&self) -> Option<PipelineId> {
        self.current.as_ref().map(|c| c.up.id)
    }

    /// Pipelines current or draining.
    pub fn active(&self) -> usize {
        self.draining.len() + usize::from(self.current.is_some())
    }

    pub fn draining(&self) -> bool {
        !self.draining.is_empty()
    }

    /// Bytes the current block still takes.
    pub fn room(&self) -> u64 {
        self.current.as_ref().map_or(0, |c| self.block_size - c.up.block.len)
    }

    /// Busy ∪ dead, sorted, no repeats: what this stream's placements
    /// exclude.
    pub fn excluded(&self) -> Vec<DatanodeId> {
        let busy = self.current.iter().chain(&self.draining).flat_map(|p| &p.up.targets);
        let mut v: Vec<DatanodeId> = self.dead.iter().chain(busy).copied().collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    pub fn on(&mut self, input: Input<'_>) -> Actions {
        let mut out = Actions::default();
        match input {
            Input::NeedBlock(_) if self.current.is_some() => {}
            Input::NeedBlock(_) if self.cap.is_some_and(|cap| self.draining.len() >= cap) => {
                out.push(Action::AwaitEvent)
            }
            Input::NeedBlock(lent) => match self.first.take() {
                Some(first) => self.allocated(Ok(first), lent, &mut out),
                None => {
                    let previous = self.deferred.front().copied();
                    out.push(Action::AddBlock { previous, excluded: self.excluded() })
                }
            },
            Input::Allocated(reply, lent) => self.allocated(reply, lent, &mut out),
            Input::Opened(mut up) => {
                up.block.len = 0;
                self.current = Some(Pipe { up, next_seq: 0, sealed: false, fnfa: false, fully_acked: false });
                let active = self.active().max(self.stats.max_concurrent_pipelines);
                self.stats.max_concurrent_pipelines = active;
            }
            Input::Packet { len, last } => {
                let c = self.current.as_mut().expect("a current block");
                out.push(Action::Send { id: c.up.id, seq: c.next_seq, offset: c.up.block.len, last });
                (c.next_seq, c.up.block.len, c.sealed) = (c.next_seq + 1, c.up.block.len + len, last);
                self.stats.bytes_written += len;
                self.metrics.bytes_written.add(len);
                self.finish(&mut out);
            }
            Input::Fnfa { id, now } => {
                let Some(c) = self.current.as_mut().filter(|c| c.up.id == id) else { return out };
                c.fnfa = true;
                let (first, bytes) = (c.up.targets[0], ByteSize::bytes(c.up.block.len));
                out.push(Action::SpeedRecord { first, bytes, took: now.elapsed_since(c.up.at) });
                self.last_fnfa = Some(now);
                self.metrics.fnfa_received.inc();
                let event = ObsEvent::FnfaReceived { block: c.up.block.id, first_node: first };
                out.push(Action::Log(c.up.ctx, event));
                self.finish(&mut out);
            }
            Input::FullyAcked(id) => {
                if let Some(c) = self.current.as_mut().filter(|c| c.up.id == id) {
                    // The full ack can beat the FNFA frame, whose write
                    // races the final ack; it implies the first node is done.
                    (c.fully_acked, c.fnfa) = (true, true);
                    self.finish(&mut out);
                } else if let Some(i) = self.draining.iter().position(|p| p.up.id == id) {
                    self.deferred.push_back(self.draining.swap_remove(i).up.block);
                    out.push(Action::Close { id, committed: true });
                }
            }
            Input::Failed(id, cause) => self.suspend(id, cause, &mut out),
            Input::Stalled => {
                if let Some(id) = self.current().or(self.draining.first().map(|p| p.up.id)) {
                    self.suspend(id, recovery::Input::AckTimeout, &mut out);
                }
            }
            Input::Dead(dn) if !self.dead.contains(&dn) => self.dead.push(dn),
            Input::Dead(_) => {}
            Input::Rebuilt { old, new } => {
                let i = self.recovering.iter().position(|(p, _)| p.up.id == old);
                let (mut pipe, current) = self.recovering.swap_remove(i.expect("a recovery in flight"));
                let Some(new) = new else { return out };
                pipe.up = Opened { block: ExtendedBlock { len: pipe.up.block.len, ..new.block }, ..new };
                if current {
                    (pipe.fnfa, pipe.fully_acked) = (false, false);
                    self.current = Some(pipe);
                } else {
                    self.draining.push(pipe);
                }
            }
            Input::Close => {
                if let Some(first) = self.first.take() {
                    out.push(Action::GiveBack(first.block.id));
                }
                out.push(match self.deferred.len() {
                    _ if self.active() > 0 => Action::AwaitEvent,
                    0 | 1 => Action::Complete(self.commit()),
                    _ => Action::Commit(self.commit().expect("two deferred")),
                });
            }
        }
        out
    }

    fn allocated(&mut self, reply: DfsResult<LocatedBlock>, lent: Lent<'_>, out: &mut Actions) {
        let outcome = recovery::allocation(reply, self.replication, self.draining());
        // `addBlock` applies `previous` before it places.
        if !matches!(outcome, Allocation::Failed(_)) {
            self.commit();
        }
        let located = match outcome {
            Allocation::Use(located) => located,
            Allocation::GiveBack(block) => {
                out.push(Action::GiveBack(block));
                return out.push(Action::AwaitEvent);
            }
            Allocation::Wait => return out.push(Action::AwaitEvent),
            Allocation::Failed(e) => return out.push(Action::Failed(e)),
        };
        // §III-A overlap: how long after the last FNFA this block landed.
        if let Some(fnfa) = self.last_fnfa.take() {
            let us = (lent.now.0 / 1_000).saturating_sub(fnfa.0 / 1_000);
            self.metrics.fnfa_to_allocation_us.observe(us);
        }
        let (ctx, block) = (located.trace_ctx(), located.block);
        let placed = located.targets.iter().map(|t| t.id).collect();
        let event = ObsEvent::BlockAllocated { client: self.client, block: block.id, targets: placed };
        out.push(Action::Log(ctx, event));
        let mut targets = located.targets;
        if let Some(threshold) = self.local_opt {
            let mut rng = lent.rng;
            let outcome = local_optimize(&mut targets, lent.tracker, threshold, &mut rng);
            if let LocalOptOutcome::Explored { swapped_index } = outcome {
                self.stats.explored_swaps += 1;
                self.metrics.exploration_swaps.inc();
                let (promoted, displaced) = (targets[0].id, targets[swapped_index].id);
                let event = ObsEvent::ExplorationSwap { block: block.id, promoted, displaced };
                out.push(Action::Log(ctx, event));
            }
        }
        out.push(Action::Open { block, targets, ctx });
    }

    /// Finishes the current block once its last packet is out and it is
    /// fully acked (HDFS), or past its FNFA (SMARTH).
    fn finish(&mut self, out: &mut Actions) {
        let hdfs = self.mode == WriteMode::Hdfs;
        let Some(c) = self.current.take_if(|c| c.sealed && if hdfs { c.fully_acked } else { c.fnfa })
        else {
            return;
        };
        if c.fully_acked {
            self.deferred.push_back(c.up.block);
            if hdfs {
                out.push(Action::Commit(self.commit().expect("just deferred")));
            }
            out.push(Action::Close { id: c.up.id, committed: true });
        } else {
            self.draining.push(c);
        }
        out.push(Action::NextBlock);
    }

    fn suspend(&mut self, id: PipelineId, cause: recovery::Input, out: &mut Actions) {
        let pipe = if let Some(c) = self.current.take_if(|c| c.up.id == id) {
            (c, true)
        } else if let Some(i) = self.draining.iter().position(|p| p.up.id == id) {
            (self.draining.remove(i), false)
        } else {
            return; // a stale event for a replaced pipeline
        };
        self.recovering.push(pipe);
        out.push(Action::Recover(id, cause));
    }

    /// Counts the oldest deferred commit as sent.
    fn commit(&mut self) -> Option<ExtendedBlock> {
        let block = self.deferred.pop_front()?;
        self.stats.blocks_committed += 1;
        self.metrics.blocks_committed.inc();
        Some(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DfsError;
    use crate::ids::GenStamp;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// One input, with ids for blocks (`b`) and pipelines (`p`).
    enum Step {
        Need,
        Alloc(DfsResult<LocatedBlock>),
        Opened(u64),
        Packet(u64, bool),
        Fnfa(u64),
        Acked(u64),
        Fail(u64),
        Stalled,
        Rebuilt(u64, Option<u64>),
        Close,
    }
    use Step::*;

    fn dn(i: u32) -> DatanodeInfo {
        DatanodeInfo { id: DatanodeId(i), host_name: format!("dn{i}"), rack: "r".into(), addr: format!("dn{i}:1") }
    }

    /// Block `b` placed on `n` datanodes from `3(b - 1)` on.
    fn placed(b: u64, n: u32) -> LocatedBlock {
        let first = 3 * (b as u32 - 1);
        let targets = (first..first + n).map(dn).collect();
        LocatedBlock::untraced(ExtendedBlock::new(BlockId(b), GenStamp::INITIAL, 0), targets)
    }

    fn busy() -> DfsResult<LocatedBlock> {
        Err(DfsError::PlacementFailed { wanted: 3, available: 0 })
    }

    fn show(action: &Action) -> String {
        let block = |b: &Option<ExtendedBlock>| b.map_or("-".into(), |b| format!("b{}", b.id.raw()));
        match action {
            Action::Log(_, ObsEvent::BlockAllocated { block, .. }) => format!("Allocated(b{})", block.raw()),
            Action::Log(_, ObsEvent::FnfaReceived { block, .. }) => format!("FnfaLog(b{})", block.raw()),
            Action::Log(_, event) => format!("Log({event:?})"),
            Action::AddBlock { previous, excluded } => {
                let ex: Vec<u32> = excluded.iter().map(|d| d.raw()).collect();
                format!("AddBlock({} {ex:?})", block(previous))
            }
            Action::GiveBack(b) => format!("GiveBack(b{})", b.raw()),
            Action::AwaitEvent => "Await".into(),
            Action::Failed(_) => "Failed".into(),
            Action::Open { block, .. } => format!("Open(b{})", block.id.raw()),
            Action::Send { id, seq, offset, last } => {
                format!("Send(p{} {seq}@{offset}{})", id.raw(), if *last { " last" } else { "" })
            }
            Action::SpeedRecord { first, bytes, took } => {
                format!("Speed(dn{} {}B {}ns)", first.raw(), bytes.as_u64(), took.0)
            }
            Action::NextBlock => "Next".into(),
            Action::Commit(b) => format!("Commit(b{}:{})", b.id.raw(), b.len),
            Action::Close { id, .. } => format!("Close(p{})", id.raw()),
            Action::Recover(id, _) => format!("Recover(p{})", id.raw()),
            Action::Complete(last) => format!("Complete({})", block(&last.map(|b| b))),
        }
    }

    fn session(mode: WriteMode, cap: Option<usize>) -> Session {
        let config = DfsConfig { max_pipelines_override: cap, local_opt_enabled: false, ..DfsConfig::default() };
        Session::new(ClientId(1), mode, &config, Some(placed(1, 3)), Metrics::new())
    }

    /// Feeds each step at 1 ms intervals and checks the actions it called
    /// for, rendered by [`show`] and joined by spaces.
    fn run(s: &mut Session, script: Vec<(Step, &str)>) {
        let (tracker, mut rng) = (ClientSpeedTracker::new(0.5), ChaCha8Rng::seed_from_u64(7));
        // What the last `Open` asked for, as a driver keeps it.
        let mut opening = None;
        for (i, (step, want)) in script.into_iter().enumerate() {
            let now = SimInstant(1_000_000 * (i as u64 + 1));
            let lent = Lent { now, tracker: &tracker, rng: &mut rng };
            let p = |id: u64| PipelineId(id);
            let input = match step {
                Need => Input::NeedBlock(lent),
                Alloc(reply) => Input::Allocated(reply, lent),
                Opened(id) => {
                    let (block, targets, ctx) = opening.take().expect("an open was asked for");
                    Input::Opened(super::Opened { id: p(id), block, targets, ctx, at: now })
                }
                Packet(len, last) => Input::Packet { len, last },
                Fnfa(id) => Input::Fnfa { id: p(id), now },
                Acked(id) => Input::FullyAcked(p(id)),
                Fail(id) => Input::Failed(p(id), recovery::Input::HopError(None)),
                Stalled => Input::Stalled,
                Rebuilt(old, new) => {
                    let new = new.map(|id| super::Opened {
                        id: p(id),
                        block: ExtendedBlock::new(BlockId(9), GenStamp(2), 0),
                        targets: vec![DatanodeId(30)],
                        ctx: None,
                        at: now,
                    });
                    Input::Rebuilt { old: p(old), new }
                }
                Close => Input::Close,
            };
            let actions: Vec<Action> = s.on(input).into_iter().collect();
            for a in &actions {
                if let Action::Open { block, targets, ctx } = a {
                    opening = Some((*block, targets.iter().map(|t| t.id).collect(), *ctx));
                }
            }
            let got: Vec<String> = actions.iter().map(show).collect();
            assert_eq!(got.join(" "), want, "step {i}");
        }
    }

    /// Opens the first block (b1 on dn 0–2) as pipeline 1 and sends it
    /// whole: 100 bytes.
    fn first_block_sent() -> Vec<(Step, &'static str)> {
        vec![
            (Need, "Allocated(b1) Open(b1)"),
            (Opened(1), ""),
            (Packet(100, true), "Send(p1 0@0 last)"),
        ]
    }

    #[test]
    fn hdfs_asks_only_after_the_full_ack_and_commits_each_block() {
        let mut s = session(WriteMode::Hdfs, None);
        let mut script = first_block_sent();
        script.extend([
            (Need, ""),
            (Fnfa(1), "Speed(dn0 100B 3000000ns) FnfaLog(b1)"),
            (Need, ""),
            (Acked(1), "Commit(b1:100) Close(p1) Next"),
            (Need, "AddBlock(- [])"),
            (Alloc(Ok(placed(2, 3))), "Allocated(b2) Open(b2)"),
            (Opened(2), ""),
            (Packet(40, true), "Send(p2 0@0 last)"),
            (Acked(2), "Commit(b2:40) Close(p2) Next"),
            (Close, "Complete(-)"),
        ]);
        run(&mut s, script);
        assert_eq!((s.stats.blocks_committed, s.stats.bytes_written), (2, 140));
    }

    #[test]
    fn smarth_allocates_at_the_fnfa_and_commits_ride_add_block_then_close() {
        let mut s = session(WriteMode::Smarth, None);
        let mut script = first_block_sent();
        script.extend([
            (Need, ""),
            (Fnfa(1), "Speed(dn0 100B 3000000ns) FnfaLog(b1) Next"),
            (Need, "AddBlock(- [0, 1, 2])"),
            (Alloc(Ok(placed(2, 3))), "Allocated(b2) Open(b2)"),
            (Opened(2), ""),
            (Acked(1), "Close(p1)"),
            (Packet(10, true), "Send(p2 0@0 last)"),
            (Fnfa(2), "Speed(dn3 10B 3000000ns) FnfaLog(b2) Next"),
            (Need, "AddBlock(b1 [3, 4, 5])"),
            (Alloc(Ok(placed(3, 3))), "Allocated(b3) Open(b3)"),
            (Opened(3), ""),
            (Packet(10, true), "Send(p3 0@0 last)"),
            (Fnfa(3), "Speed(dn6 10B 2000000ns) FnfaLog(b3) Next"),
            (Close, "Await"),
            (Acked(3), "Close(p3)"),
            (Close, "Await"),
            (Acked(2), "Close(p2)"),
            // Explicit commits oldest first, the newest on `complete`.
            (Close, "Commit(b3:10)"),
            (Close, "Complete(b2)"),
        ]);
        run(&mut s, script);
        assert_eq!(s.stats.blocks_committed, 3);
        assert_eq!(s.stats.max_concurrent_pipelines, 2);
    }

    #[test]
    fn a_full_ack_that_beats_the_fnfa_finishes_the_current_block() {
        for mode in [WriteMode::Smarth, WriteMode::Hdfs] {
            let mut s = session(mode, None);
            let mut script = first_block_sent();
            let (acked, previous) = match mode {
                WriteMode::Smarth => ("Close(p1) Next", "AddBlock(b1 [])"),
                WriteMode::Hdfs => ("Commit(b1:100) Close(p1) Next", "AddBlock(- [])"),
            };
            script.extend([(Acked(1), acked), (Fnfa(1), ""), (Need, previous)]);
            run(&mut s, script);
            assert_eq!(s.active(), 0, "{mode:?}");
        }
    }

    /// b1 fully acked and waiting for its commit, b2 draining, and the
    /// next `addBlock` carrying b1.
    fn b1_deferred_b2_draining() -> Vec<(Step, &'static str)> {
        let mut script = first_block_sent();
        script.extend([
            (Fnfa(1), "Speed(dn0 100B 2000000ns) FnfaLog(b1) Next"),
            (Need, "AddBlock(- [0, 1, 2])"),
            (Alloc(Ok(placed(2, 3))), "Allocated(b2) Open(b2)"),
            (Opened(2), ""),
            (Acked(1), "Close(p1)"),
            (Packet(10, true), "Send(p2 0@0 last)"),
            (Fnfa(2), "Speed(dn3 10B 3000000ns) FnfaLog(b2) Next"),
            (Need, "AddBlock(b1 [3, 4, 5])"),
        ]);
        script
    }

    #[test]
    fn previous_lands_on_every_placement_outcome_but_failed() {
        let internal = || Err(DfsError::internal("namenode down"));
        let cases: Vec<(&str, DfsResult<LocatedBlock>, &str, u64, &str)> = vec![
            ("use", Ok(placed(3, 3)), "Allocated(b3) Open(b3)", 1, "AddBlock(- [3, 4, 5])"),
            ("give back", Ok(placed(3, 2)), "GiveBack(b3) Await", 1, "AddBlock(- [3, 4, 5])"),
            ("wait", busy(), "Await", 1, "AddBlock(- [3, 4, 5])"),
            ("failed", internal(), "Failed", 0, "AddBlock(b1 [3, 4, 5])"),
        ];
        for (case, reply, answer, committed, next) in cases {
            let mut s = session(WriteMode::Smarth, None);
            let mut script = b1_deferred_b2_draining();
            script.push((Alloc(reply), answer));
            run(&mut s, script);
            assert_eq!(s.stats.blocks_committed, committed, "{case}");
            if case != "use" {
                run(&mut s, vec![(Need, next)]);
            }
        }
    }

    #[test]
    fn the_cap_override_waits_for_a_drain() {
        let mut s = session(WriteMode::Smarth, Some(1));
        let mut script = first_block_sent();
        script.extend([
            (Fnfa(1), "Speed(dn0 100B 2000000ns) FnfaLog(b1) Next"),
            (Need, "Await"),
            (Acked(1), "Close(p1)"),
            (Need, "AddBlock(b1 [])"),
        ]);
        run(&mut s, script);
    }

    #[test]
    fn every_fnfa_frame_on_the_current_pipeline_is_logged() {
        let mut s = session(WriteMode::Smarth, None);
        run(&mut s, vec![
            (Need, "Allocated(b1) Open(b1)"),
            (Opened(1), ""),
            (Packet(100, false), "Send(p1 0@0)"),
            (Fnfa(1), "Speed(dn0 100B 2000000ns) FnfaLog(b1)"),
            (Fnfa(1), "Speed(dn0 100B 3000000ns) FnfaLog(b1)"),
            (Packet(0, true), "Send(p1 1@100 last) Next"),
            (Fnfa(1), ""),
        ]);
        assert_eq!(s.metrics.fnfa_received.get(), 2);
    }

    #[test]
    fn a_recovered_pipeline_resumes_as_current_and_stale_events_are_ignored() {
        let mut s = session(WriteMode::Smarth, None);
        run(&mut s, vec![
            (Need, "Allocated(b1) Open(b1)"),
            (Opened(1), ""),
            (Packet(100, false), "Send(p1 0@0)"),
            (Fail(1), "Recover(p1)"),
            (Rebuilt(1, Some(5)), ""),
            (Fail(1), ""),
            (Acked(1), ""),
            (Fnfa(1), ""),
            (Packet(10, true), "Send(p5 1@100 last)"),
            (Fnfa(5), "Speed(dn30 110B 5000000ns) FnfaLog(b9) Next"),
            (Acked(5), "Close(p5)"),
            (Close, "Complete(b9)"),
        ]);
    }

    #[test]
    fn a_recovered_draining_pipeline_drains_again_and_a_failed_one_is_gone() {
        let mut s = session(WriteMode::Smarth, None);
        let mut script = first_block_sent();
        script.extend([
            (Fnfa(1), "Speed(dn0 100B 2000000ns) FnfaLog(b1) Next"),
            (Stalled, "Recover(p1)"),
            (Rebuilt(1, Some(6)), ""),
            (Need, "AddBlock(- [30])"),
            (Alloc(Ok(placed(2, 3))), "Allocated(b2) Open(b2)"),
            (Opened(2), ""),
            (Fail(2), "Recover(p2)"),
            (Rebuilt(2, None), ""),
            (Acked(6), "Close(p6)"),
            (Close, "Complete(b9)"),
        ]);
        run(&mut s, script);
        assert_eq!(s.active(), 0);
    }

    #[test]
    fn an_empty_stream_gives_its_first_block_back() {
        let mut s = session(WriteMode::Smarth, None);
        run(&mut s, vec![(Close, "GiveBack(b1) Complete(-)")]);
        assert_eq!(s.stats, StreamStats::default());
    }
}
