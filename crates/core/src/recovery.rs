//! Algorithms 3 and 4 (§IV) as one sans-IO planner.
//!
//! A [`Recovery`] holds one incident: a pipeline that broke, or a block
//! that could not be opened. [`Recovery::on`] takes what the executor
//! learned and returns what to do: first the actions that need no answer,
//! then at most one request, whose answer is the next [`Input`]. A list
//! with no request ends the incident, or hands a block open back to its
//! allocation loop. No I/O, no clock, no payload bytes.
//!
//! Decided here only: the one retry budget (`within_budget`); one death
//! charged to the triggering cause (the failed-index hint, else the first
//! unreachable probe), every further loss to
//! [`RecoveryCause::NestedFailure`]; resend from the survivors' common
//! prefix, fresh nodes only at prefix 0; a scratch rebuild only with
//! nothing acked and the retained packets from offset 0; and the
//! [`allocation`] outcome both `addBlock` paths share.

use crate::error::{DfsError, DfsResult};
use crate::ids::{BlockId, DatanodeId, GenStamp, PipelineId};
use crate::obs::RecoveryCause;
use crate::proto::{DatanodeInfo, LocatedBlock, Packet};

/// The one retry budget: try `n` (counted from 1) of any step may run.
fn within_budget(n: u32) -> bool {
    n <= crate::config::MAX_RECOVERY_ATTEMPTS
}

/// Ack timeouts one wait loop met. Each within the budget starts an
/// [`RecoveryCause::AckTimeout`] recovery; the next surfaces the timeout,
/// so a silent cluster cannot stall a stream forever.
#[derive(Debug, Default)]
pub struct AckTimeouts(u32);

impl AckTimeouts {
    pub fn recover(&mut self) -> bool {
        self.0 += 1;
        within_budget(self.0)
    }
}

/// What to do with an `addBlock` reply. A short pipeline, or none, only
/// because this stream's draining pipelines hold the other nodes (§IV-C)
/// is given back and waited out rather than written under-replicated.
#[derive(Debug, Clone, PartialEq)]
pub enum Allocation {
    Use(LocatedBlock),
    GiveBack(BlockId),
    Wait,
    Failed(DfsError),
}

pub fn allocation(reply: DfsResult<LocatedBlock>, replication: usize, draining: bool) -> Allocation {
    match reply {
        Ok(lb) if lb.targets.len() < replication && draining => Allocation::GiveBack(lb.block.id),
        Ok(lb) => Allocation::Use(lb),
        Err(DfsError::PlacementFailed { .. }) if draining => Allocation::Wait,
        Err(e) => Allocation::Failed(e),
    }
}

/// The retained packets as a recovery needs them: without their bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Retained {
    pub packets: usize,
    /// Offset of the first one (0 when none).
    pub first_offset: u64,
    /// Seq and offset of the last one, the block's `last` packet once
    /// `finished_sending`.
    pub last: Option<(u64, u64)>,
    pub finished_sending: bool,
}

impl Retained {
    pub fn of(packets: &[Packet], finished_sending: bool) -> Self {
        let first_offset = packets.first().map_or(0, |p| p.offset_in_block);
        let last = packets.last().map(|p| (p.seq, p.offset_in_block));
        Retained { packets: packets.len(), first_offset, last, finished_sending }
    }
}

/// A probe of a former member. Only `Unreachable` condemns a node: one
/// that answers with no replica (never fed a byte, or a stale stamp) is
/// healthy, or one mid-pipeline death would poison the whole pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    Unreachable,
    NoReplica,
    Has(u64),
}

/// What the executor learned. The first three start a pipeline incident,
/// the last two are the faults of opening a block.
#[derive(Debug, Clone, PartialEq)]
pub enum Input {
    /// An error ack named the failed position, or the transport broke.
    HopError(Option<usize>),
    SendFailed,
    AckTimeout,
    /// One per target of the last [`Action::Probe`], in order.
    Probed(Vec<Probe>),
    Stamp(DfsResult<GenStamp>),
    /// Per target of the last [`Action::Recover`]: did it succeed?
    Recovered(Vec<bool>),
    Extra(DfsResult<Vec<DatanodeInfo>>),
    /// The pipeline opened and took every packet.
    Opened(DfsResult<()>),
    Abandoned(DfsResult<()>),
    Allocated { reply: DfsResult<LocatedBlock>, draining: bool },
    /// A pipeline event was handled while waiting for a drain.
    Drained(DfsResult<()>),
    AllocationFailed(DfsError),
    Refused { first: DatanodeId, error: DfsError },
}

/// What the executor does. `Probe` through `OpenFresh` are requests.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Count the incident, open its trace span and close the broken
    /// pipeline (Algorithm 3 lines 1–3).
    Begin(RecoveryCause),
    Step(String),
    /// Count and trace an incident that is over once known, as a
    /// balanced zero-length span.
    Incident { cause: RecoveryCause, nested: bool, attempt: u32, step: String },
    /// Exclude the node from the stream's later placements.
    MarkDead(DatanodeId),
    /// Pause after a namenode outage.
    Backoff(u32),
    Probe(Vec<DatanodeInfo>),
    NewStamp,
    /// `recoverBlock` on each target: adopt `gen`, truncate to `len`.
    Recover { targets: Vec<DatanodeInfo>, gen: GenStamp, len: u64 },
    /// `wanted` more datanodes: none of `existing`, none busy or dead.
    AddDatanodes { existing: Vec<DatanodeId>, wanted: u32 },
    /// Open the block at `gen` on `targets`, resend the retained packets
    /// from offset `from` on, then `seal`.
    Reopen { targets: Vec<DatanodeInfo>, gen: GenStamp, from: u64, seal: Option<Packet> },
    /// Give the broken block back and `addBlock` (no previous block,
    /// no busy or dead node) until one is placed: a scratch rebuild.
    Abandon,
    Allocate,
    /// Handle one pipeline event, so a draining pipeline can finish.
    WaitDrain,
    /// Open the new allocation and resend every retained packet.
    OpenFresh(LocatedBlock),
    /// Give back an allocation no pipeline was opened on.
    GiveBack(BlockId),
    /// Give the refused allocation back; the write path allocates again.
    Reallocate,
    Done,
    Fail(DfsError),
}

/// One incident's state.
#[derive(Debug)]
pub struct Recovery {
    pipeline: PipelineId,
    replication: usize,
    acked: bool,
    retained: Retained,
    targets: Vec<DatanodeInfo>,
    hint: Option<usize>,
    /// Rebuild attempts (opening a block: first targets refused).
    attempt: u32,
    /// Drains waited for in a scratch rebuild (opening: failed `addBlock`s).
    tries: u32,
    dead: Vec<DatanodeId>,
    /// The one death the triggering cause accounts for is charged.
    charged: bool,
    /// This attempt's further losses.
    nested: Vec<DatanodeId>,
    survivors: Vec<(DatanodeInfo, u64)>,
    len: u64,
    gen: GenStamp,
    /// Members of the pipeline this attempt opens.
    rebuilt: Vec<DatanodeInfo>,
    out: Vec<Action>,
}

impl Recovery {
    /// A broken pipeline; `acked`: any packet was acked on it.
    pub fn new(
        pipeline: PipelineId,
        targets: Vec<DatanodeInfo>,
        acked: bool,
        retained: Retained,
        replication: usize,
    ) -> Self {
        Recovery {
            pipeline,
            replication,
            acked,
            retained,
            targets,
            hint: None,
            attempt: 0,
            tries: 0,
            dead: Vec::new(),
            charged: false,
            nested: Vec::new(),
            survivors: Vec::new(),
            len: 0,
            gen: GenStamp::INITIAL,
            rebuilt: Vec::new(),
            out: Vec::new(),
        }
    }

    /// The faults of opening one block, before it has a pipeline.
    pub fn opening() -> Self {
        Self::new(PipelineId(0), Vec::new(), false, Retained::default(), 0)
    }

    /// Takes one input; returns what it calls for, any request last.
    pub fn on(&mut self, input: Input) -> Vec<Action> {
        match input {
            Input::HopError(Some(i)) => self.begin(RecoveryCause::DatanodeError, Some(i)),
            Input::HopError(None) | Input::SendFailed => self.begin(RecoveryCause::ConnectionLost, None),
            Input::AckTimeout => self.begin(RecoveryCause::AckTimeout, None),
            Input::Probed(probes) => self.probed(probes),
            Input::Stamp(Ok(gen)) => {
                self.gen = gen;
                let targets = self.survivors.iter().map(|s| s.0.clone()).collect();
                self.out.push(Action::Recover { targets, gen, len: self.len });
            }
            Input::Stamp(Err(e)) => {
                let survivors = self.survivors.drain(..).map(|s| s.0).collect();
                self.failed(e, survivors);
            }
            Input::Recovered(oks) => self.recovered(oks),
            Input::Extra(reply) => {
                self.rebuilt.extend(reply.unwrap_or_default());
                self.reopen();
            }
            Input::Opened(Ok(())) => {
                self.charge_nested();
                self.out.push(Action::Done);
            }
            Input::Opened(Err(e)) => {
                let rebuilt = std::mem::take(&mut self.rebuilt);
                self.failed(e, rebuilt);
            }
            // An earlier attempt of this incident may have given it back.
            Input::Abandoned(Ok(()) | Err(DfsError::UnknownBlock(_))) => {
                self.tries = 0;
                self.out.push(Action::Allocate);
            }
            Input::Allocated { reply, draining } => match allocation(reply, self.replication, draining) {
                Allocation::Use(lb) => self.out.push(Action::OpenFresh(lb)),
                Allocation::GiveBack(block) => self.out.extend([Action::GiveBack(block), Action::WaitDrain]),
                Allocation::Wait => self.out.push(Action::WaitDrain),
                Allocation::Failed(e) => self.failed(e, Vec::new()),
            },
            Input::Drained(Ok(())) => {
                self.tries += 1;
                if within_budget(self.tries + 1) {
                    self.out.push(Action::Allocate);
                } else {
                    self.failed(DfsError::PlacementFailed { wanted: self.replication, available: 0 }, Vec::new());
                }
            }
            Input::Abandoned(Err(e)) | Input::Drained(Err(e)) => self.failed(e, Vec::new()),
            Input::AllocationFailed(e) => {
                self.tries += 1;
                match e {
                    // The RPC layer's own retries are spent.
                    DfsError::NamenodeUnavailable(msg) if within_budget(self.tries + 1) => {
                        self.outage(false, self.tries, &msg)
                    }
                    e if !within_budget(self.tries + 1) || !e.is_recoverable() => {
                        self.out.push(Action::Fail(e))
                    }
                    _ => {}
                }
            }
            Input::Refused { first, error } => {
                // Placed, then dead before the namenode expired it. Nothing
                // was sent: give the block back, allocate without it.
                self.attempt += 1;
                self.tries = 0;
                if !error.is_recoverable() || !within_budget(self.attempt + 1) {
                    self.out.push(Action::Fail(error));
                } else {
                    let step = format!(
                        "first target {} refused the pipeline: abandoning block, reallocating",
                        first.raw()
                    );
                    self.incident(RecoveryCause::ConnectionLost, false, step);
                    self.out.extend([Action::MarkDead(first), Action::Reallocate]);
                }
            }
        }
        std::mem::take(&mut self.out)
    }

    fn begin(&mut self, cause: RecoveryCause, hint: Option<usize>) {
        self.hint = hint;
        self.charged = hint.is_some();
        self.out.push(Action::Begin(cause));
        self.next_attempt();
    }

    fn next_attempt(&mut self) {
        self.attempt += 1;
        if !within_budget(self.attempt) {
            return self.unrecoverable(format!("gave up after {} attempts", self.attempt - 1));
        }
        let (targets, packets) = (self.targets.len(), self.retained.packets);
        let step = format!("attempt {}: probing {targets} targets, {packets} retained packets", self.attempt);
        self.out.push(Action::Step(step));
        self.survivors.clear();
        self.rebuilt.clear();
        if let Some(dn) = self.hint.and_then(|i| self.targets.get(i)).map(|t| t.id) {
            self.condemn(dn, false);
        }
        self.out.push(Action::Probe(self.to_probe()));
    }

    /// Every target but the hinted failure.
    fn to_probe(&self) -> Vec<DatanodeInfo> {
        let others = self.targets.iter().enumerate().filter(|(i, _)| Some(*i) != self.hint);
        others.map(|(_, t)| t.clone()).collect()
    }

    fn probed(&mut self, probes: Vec<Probe>) {
        for (t, probe) in self.to_probe().into_iter().zip(probes) {
            match probe {
                Probe::Has(len) => self.survivors.push((t, len)),
                Probe::NoReplica => {}
                Probe::Unreachable => {
                    self.condemn(t.id, self.charged);
                    self.charged = true;
                }
            }
        }
        if let Some(len) = self.survivors.iter().map(|s| s.1).min() {
            self.len = len;
            self.out.push(Action::NewStamp);
        } else if !self.acked && self.retained.first_offset == 0 {
            // Nothing durable was lost and the retained packets cover the
            // block (after a partial-prefix recovery they may be a suffix,
            // which would corrupt a new block): write it again elsewhere.
            self.out.push(Action::Step("scratch rebuild: abandoning block, reallocating".into()));
            self.out.push(Action::Abandon);
        } else {
            self.failed(DfsError::connection_lost("all replicas unreachable"), Vec::new());
        }
    }

    fn recovered(&mut self, oks: Vec<bool>) {
        for ((t, _), ok) in std::mem::take(&mut self.survivors).into_iter().zip(oks) {
            if ok {
                self.rebuilt.push(t);
            } else {
                // The probe just found it alive: losing it now is nested
                // in this recovery, never the original incident.
                self.condemn(t.id, true);
            }
        }
        if self.rebuilt.is_empty() {
            self.failed(DfsError::connection_lost("all survivors failed recoverBlock"), Vec::new());
        } else if self.len == 0 && self.rebuilt.len() < self.replication {
            // A block restarting from zero can take fresh nodes; otherwise
            // it goes on at reduced width and the namenode re-replicates
            // it after completion.
            let existing = self.rebuilt.iter().map(|t| t.id).chain(self.dead.iter().copied()).collect();
            let wanted = (self.replication - self.rebuilt.len()) as u32;
            self.out.push(Action::AddDatanodes { existing, wanted });
        } else {
            self.reopen();
        }
    }

    fn reopen(&mut self) {
        // Every survivor holds the whole block: nothing is resent, and an
        // empty `last` packet re-finalizes them under the new stamp so the
        // acks and the FNFA flow as usual.
        let (from, r) = (self.len, self.retained);
        let seal = (r.finished_sending && r.last.is_none_or(|(_, at)| at < from)).then(|| Packet {
            seq: r.last.map_or(0, |(seq, _)| seq + 1),
            offset_in_block: from,
            last_in_block: true,
            checksums: Vec::new(),
            payload: bytes::Bytes::new(),
        });
        self.out.push(Action::Reopen { targets: self.rebuilt.clone(), gen: self.gen, from, seal });
    }

    /// Ends an attempt that rebuilt nothing; the next one starts from
    /// `surviving`.
    fn failed(&mut self, e: DfsError, surviving: Vec<DatanodeInfo>) {
        self.charge_nested();
        if let DfsError::NamenodeUnavailable(msg) = &e {
            // The namenode, not a member, went away mid-rebuild.
            self.outage(true, self.attempt, msg);
        } else if !e.is_recoverable() && !matches!(e, DfsError::PlacementFailed { .. }) {
            return self.out.push(Action::Fail(e));
        }
        self.targets = surviving;
        self.hint = None;
        if self.targets.is_empty() && self.acked {
            return self.unrecoverable("no surviving replica holds acked data".into());
        }
        self.next_attempt();
    }

    fn unrecoverable(&mut self, reason: String) {
        self.out.push(Action::Fail(DfsError::PipelineUnrecoverable { pipeline: self.pipeline, reason }));
    }

    fn condemn(&mut self, dn: DatanodeId, nested: bool) {
        self.out.push(Action::MarkDead(dn));
        self.dead.push(dn);
        if nested {
            self.nested.push(dn);
        }
    }

    fn charge_nested(&mut self) {
        for dn in std::mem::take(&mut self.nested) {
            let step = format!("datanode {} lost mid-recovery", dn.raw());
            self.incident(RecoveryCause::NestedFailure, true, step);
        }
    }

    /// One namenode-outage incident, then a longer pause than the RPC
    /// layer's, so a stalled namenode has time to come back.
    fn outage(&mut self, nested: bool, attempt: u32, msg: &str) {
        let step = format!("namenode outage: {msg}");
        self.out.push(Action::Incident { cause: RecoveryCause::NamenodeError, nested, attempt, step });
        self.out.push(Action::Backoff(attempt));
    }

    fn incident(&mut self, cause: RecoveryCause, nested: bool, step: String) {
        self.out.push(Action::Incident { cause, nested, attempt: self.attempt, step });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ExtendedBlock;

    fn dn(i: u32) -> DatanodeInfo {
        DatanodeInfo {
            id: DatanodeId(i),
            host_name: format!("dn{i}"),
            rack: "rack-a".into(),
            addr: format!("dn{i}:1"),
        }
    }

    fn dns(ids: &[u32]) -> Vec<DatanodeInfo> {
        ids.iter().map(|&i| dn(i)).collect()
    }

    /// Four 100-byte packets from offset 0, the last one not yet sent.
    const FOUR: Retained = Retained {
        packets: 4,
        first_offset: 0,
        last: Some((3, 300)),
        finished_sending: false,
    };

    /// When a scripted death strikes.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum When {
        /// Before the incident: probes find the node unreachable.
        Start,
        /// As `recoverBlock` reaches it.
        Recover,
        /// As the rebuilt pipeline opens through it.
        Reopen,
    }

    /// The cluster a plan runs against. Datanodes `0..held.len()` are
    /// the broken pipeline's members; `spare` are free for placement.
    struct World {
        held: Vec<Option<u64>>,
        down: Vec<u32>,
        deaths: Vec<(When, u32)>,
        spare: Vec<u32>,
        /// `NewStamp` calls that meet a namenode outage first.
        outages: u32,
        /// Every rebuilt pipeline refuses to open.
        refuse_reopen: bool,
        /// Allocations that come back `PlacementFailed` while draining.
        busy: u32,
        stamps: u64,
    }

    impl World {
        fn new(held: &[Option<u64>]) -> Self {
            World {
                held: held.to_vec(),
                down: Vec::new(),
                deaths: Vec::new(),
                spare: vec![10, 11, 12],
                outages: 0,
                refuse_reopen: false,
                busy: 0,
                stamps: 1,
            }
        }

        fn kill(mut self, when: When, dn: u32) -> Self {
            if when == When::Start {
                self.down.push(dn);
            } else {
                self.deaths.push((when, dn));
            }
            self
        }

        fn strike(&mut self, when: When) {
            let (now, later) = self.deaths.iter().partition(|(w, _)| *w == when);
            self.deaths = later;
            self.down.extend(now.into_iter().map(|(_, dn)| dn));
        }

        fn answer(&mut self, action: &Action) -> Option<Input> {
            Some(match action {
                Action::Probe(targets) => Input::Probed(
                    targets
                        .iter()
                        .map(|t| match self.held.get(t.id.raw() as usize).copied().flatten() {
                            _ if self.down.contains(&t.id.raw()) => Probe::Unreachable,
                            Some(len) => Probe::Has(len),
                            None => Probe::NoReplica,
                        })
                        .collect(),
                ),
                Action::NewStamp if self.outages > 0 => {
                    self.outages -= 1;
                    Input::Stamp(Err(DfsError::namenode_unavailable("stalled")))
                }
                Action::NewStamp => {
                    self.stamps += 1;
                    Input::Stamp(Ok(GenStamp(self.stamps)))
                }
                Action::Recover { targets, len, .. } => {
                    self.strike(When::Recover);
                    let alive = |t: &DatanodeInfo| !self.down.contains(&t.id.raw());
                    let oks: Vec<bool> = targets.iter().map(alive).collect();
                    for t in targets.iter().filter(|t| alive(t)) {
                        self.held[t.id.raw() as usize] = Some(*len);
                    }
                    Input::Recovered(oks)
                }
                Action::AddDatanodes { existing, wanted } => {
                    let free = self.spare.iter().filter(|s| !existing.contains(&DatanodeId(**s)));
                    Input::Extra(Ok(free.take(*wanted as usize).map(|&s| dn(s)).collect()))
                }
                Action::Reopen { targets, .. } => {
                    self.strike(When::Reopen);
                    let refused = self.refuse_reopen || targets.iter().any(|t| self.down.contains(&t.id.raw()));
                    Input::Opened(if refused { Err(DfsError::connection_lost("refused")) } else { Ok(()) })
                }
                Action::Abandon => Input::Abandoned(Ok(())),
                Action::Allocate if self.busy > 0 => {
                    self.busy -= 1;
                    let reply = Err(DfsError::PlacementFailed { wanted: 3, available: 0 });
                    Input::Allocated { reply, draining: true }
                }
                Action::Allocate => {
                    let block = ExtendedBlock::new(BlockId(99), GenStamp::INITIAL, 0);
                    let reply = Ok(LocatedBlock::untraced(block, dns(&self.spare)));
                    Input::Allocated { reply, draining: false }
                }
                Action::WaitDrain => Input::Drained(Ok(())),
                Action::OpenFresh(_) => Input::Opened(Ok(())),
                _ => return None,
            })
        }
    }

    /// A broken three-node pipeline (replication 3).
    fn pipeline(acked: bool, retained: Retained) -> Recovery {
        Recovery::new(PipelineId(7), dns(&[0, 1, 2]), acked, retained, 3)
    }

    /// Drives `plan` from `trigger` until a list asks for nothing; every
    /// list holds at most one request.
    fn run(plan: &mut Recovery, trigger: Input, world: &mut World) -> Vec<Action> {
        let mut log = Vec::new();
        let mut next = Some(trigger);
        while let Some(input) = next.take() {
            for action in plan.on(input) {
                if let Some(answer) = world.answer(&action) {
                    assert!(next.is_none(), "two requests in one list: {log:?}");
                    next = Some(answer);
                }
                log.push(action);
            }
            assert!(log.len() < 500, "runaway plan: {log:?}");
        }
        log
    }

    /// Every cause the log charges, in order.
    fn charged(log: &[Action]) -> Vec<RecoveryCause> {
        log.iter()
            .filter_map(|a| match a {
                Action::Begin(cause) | Action::Incident { cause, .. } => Some(*cause),
                _ => None,
            })
            .collect()
    }

    fn marked_dead(log: &[Action]) -> Vec<u32> {
        let mut dead: Vec<u32> = log
            .iter()
            .filter_map(|a| match a {
                Action::MarkDead(d) => Some(d.raw()),
                _ => None,
            })
            .collect();
        dead.sort_unstable();
        dead.dedup();
        dead
    }

    /// Targets and resume offset of the last `Reopen`.
    fn last_reopen(log: &[Action]) -> (Vec<u32>, u64) {
        log.iter()
            .rev()
            .find_map(|a| match a {
                Action::Reopen { targets, from, .. } => Some((targets.iter().map(|t| t.id.raw()).collect(), *from)),
                _ => None,
            })
            .expect("a reopen")
    }

    fn steps(log: &[Action]) -> Vec<&str> {
        log.iter()
            .filter_map(|a| match a {
                Action::Step(s) => Some(s.as_str()),
                _ => None,
            })
            .collect()
    }

    fn full() -> World {
        World::new(&[Some(300), Some(300), Some(300)])
    }

    #[test]
    fn triggers_map_to_their_causes() {
        for (trigger, cause) in [
            (Input::HopError(Some(1)), RecoveryCause::DatanodeError),
            (Input::HopError(None), RecoveryCause::ConnectionLost),
            (Input::SendFailed, RecoveryCause::ConnectionLost),
            (Input::AckTimeout, RecoveryCause::AckTimeout),
        ] {
            let log = run(&mut pipeline(true, FOUR), trigger, &mut full());
            assert_eq!(log[0], Action::Begin(cause));
            assert_eq!(log.last(), Some(&Action::Done));
        }
    }

    #[test]
    fn hint_condemns_without_a_probe_and_a_probe_finds_the_same_death() {
        let mut world = full().kill(When::Start, 1);
        let log = run(&mut pipeline(true, FOUR), Input::HopError(Some(1)), &mut world);
        assert!(log.contains(&Action::Probe(dns(&[0, 2]))), "the hinted node is not probed: {log:?}");
        assert_eq!(charged(&log), [RecoveryCause::DatanodeError]);
        assert_eq!((marked_dead(&log), last_reopen(&log)), (vec![1], (vec![0, 2], 300)));

        let mut world = full().kill(When::Start, 1);
        let log = run(&mut pipeline(true, FOUR), Input::HopError(None), &mut world);
        assert!(log.contains(&Action::Probe(dns(&[0, 1, 2]))));
        assert_eq!(charged(&log), [RecoveryCause::ConnectionLost]);
        assert_eq!((marked_dead(&log), last_reopen(&log)), (vec![1], (vec![0, 2], 300)));
    }

    #[test]
    fn every_double_kill_charges_one_death_to_the_cause_and_one_as_nested() {
        for first in 0..3u32 {
            for second in (0..3u32).filter(|&s| s != first) {
                for when in [When::Start, When::Recover, When::Reopen] {
                    for hinted in [true, false] {
                        let trigger = Input::HopError(hinted.then_some(first as usize));
                        let mut world = full().kill(When::Start, first).kill(when, second);
                        let log = run(&mut pipeline(true, FOUR), trigger, &mut world);
                        let case = format!("first {first}, second {second} at {when:?}, hinted {hinted}: {log:?}");
                        let cause = if hinted { RecoveryCause::DatanodeError } else { RecoveryCause::ConnectionLost };
                        // Two deaths one probe finds: the later target is the nested one.
                        let nested = if !hinted && when == When::Start { first.max(second) } else { second };
                        assert_eq!(charged(&log), [cause, RecoveryCause::NestedFailure], "{case}");
                        assert!(
                            log.contains(&Action::Incident {
                                cause: RecoveryCause::NestedFailure,
                                nested: true,
                                attempt: if when == When::Reopen { 2 } else { 1 },
                                step: format!("datanode {nested} lost mid-recovery"),
                            }),
                            "{case}"
                        );
                        let mut dead = vec![first, second];
                        dead.sort_unstable();
                        let last = 3 - first - second;
                        assert_eq!((marked_dead(&log), last_reopen(&log)), (dead, (vec![last], 300)), "{case}");
                        assert_eq!(log.last(), Some(&Action::Done), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn the_double_kill_incident_sequence_is_pinned() {
        // Two pipeline members killed at once: the broken transport
        // starts the recovery, its probe finds both.
        let mut world = full().kill(When::Start, 0).kill(When::Start, 1);
        let log = run(&mut pipeline(true, FOUR), Input::HopError(None), &mut world);
        assert_eq!(
            log,
            [
                Action::Begin(RecoveryCause::ConnectionLost),
                Action::Step("attempt 1: probing 3 targets, 4 retained packets".into()),
                Action::Probe(dns(&[0, 1, 2])),
                Action::MarkDead(DatanodeId(0)),
                Action::MarkDead(DatanodeId(1)),
                Action::NewStamp,
                Action::Recover { targets: dns(&[2]), gen: GenStamp(2), len: 300 },
                Action::Reopen { targets: dns(&[2]), gen: GenStamp(2), from: 300, seal: None },
                Action::Incident {
                    cause: RecoveryCause::NestedFailure,
                    nested: true,
                    attempt: 1,
                    step: "datanode 1 lost mid-recovery".into(),
                },
                Action::Done,
            ]
        );
    }

    #[test]
    fn survivors_truncate_to_the_shortest_and_resend_from_there() {
        let mut world = World::new(&[Some(300), Some(300), Some(200)]).kill(When::Start, 0);
        let log = run(&mut pipeline(true, FOUR), Input::HopError(None), &mut world);
        assert!(log.contains(&Action::Recover { targets: dns(&[1, 2]), gen: GenStamp(2), len: 200 }));
        assert_eq!(last_reopen(&log), (vec![1, 2], 200));

        // Every survivor holds the whole block: nothing to resend, so an
        // empty `last` packet re-finalizes them under the new stamp.
        let done = Retained { finished_sending: true, ..FOUR };
        let mut world = World::new(&[Some(400), Some(400), Some(400)]).kill(When::Start, 0);
        let log = run(&mut pipeline(true, done), Input::HopError(None), &mut world);
        let seal = Packet {
            seq: 4,
            offset_in_block: 400,
            last_in_block: true,
            checksums: Vec::new(),
            payload: bytes::Bytes::new(),
        };
        assert!(log.contains(&Action::Reopen { targets: dns(&[1, 2]), gen: GenStamp(2), from: 400, seal: Some(seal) }));
        // The `last` packet is among those resent: no seal.
        let mut world = World::new(&[Some(400), Some(200), Some(400)]).kill(When::Start, 0);
        let log = run(&mut pipeline(true, done), Input::HopError(None), &mut world);
        assert!(log.contains(&Action::Reopen { targets: dns(&[1, 2]), gen: GenStamp(2), from: 200, seal: None }));
    }

    #[test]
    fn a_scratch_rebuild_needs_no_ack_and_packets_from_offset_zero() {
        let suffix = Retained { first_offset: 200, ..FOUR };
        for (acked, retained, scratch) in [(false, FOUR, true), (true, FOUR, false), (false, suffix, false)] {
            let mut world = World::new(&[Some(0), None, None]).kill(When::Start, 0);
            let log = run(&mut pipeline(acked, retained), Input::HopError(None), &mut world);
            let case = format!("acked {acked}, {retained:?}: {log:?}");
            assert_eq!(log.contains(&Action::Abandon), scratch, "{case}");
            if scratch {
                assert!(log.contains(&Action::Step("scratch rebuild: abandoning block, reallocating".into())));
                assert!(matches!(log[log.len() - 2], Action::OpenFresh(_)), "{case}");
                assert_eq!(log.last(), Some(&Action::Done), "{case}");
            }
        }
    }

    #[test]
    fn no_survivor_with_acked_data_is_unrecoverable() {
        let mut world = full().kill(When::Start, 0).kill(When::Start, 1).kill(When::Start, 2);
        let log = run(&mut pipeline(true, FOUR), Input::HopError(None), &mut world);
        let reason = "no surviving replica holds acked data".to_string();
        assert_eq!(log.last(), Some(&Action::Fail(DfsError::PipelineUnrecoverable { pipeline: PipelineId(7), reason })));
        assert_eq!(steps(&log).len(), 1);
        // A suffix of the block with nothing acked: no scratch rebuild
        // either, so every attempt finds nobody until the budget ends.
        let suffix = Retained { first_offset: 200, ..FOUR };
        let mut world = full().kill(When::Start, 0).kill(When::Start, 1).kill(When::Start, 2);
        let log = run(&mut pipeline(false, suffix), Input::HopError(None), &mut world);
        let reason = "gave up after 5 attempts".to_string();
        assert_eq!(log.last(), Some(&Action::Fail(DfsError::PipelineUnrecoverable { pipeline: PipelineId(7), reason })));
    }

    #[test]
    fn fresh_nodes_are_spliced_in_only_at_prefix_zero() {
        let mut world = World::new(&[Some(0), Some(0), Some(0)]).kill(When::Start, 0);
        let log = run(&mut pipeline(false, FOUR), Input::HopError(None), &mut world);
        assert!(log.contains(&Action::AddDatanodes { existing: vec![DatanodeId(1), DatanodeId(2), DatanodeId(0)], wanted: 1 }));
        assert_eq!(last_reopen(&log), (vec![1, 2, 10], 0));

        let mut world = World::new(&[Some(100), Some(100), Some(100)]).kill(When::Start, 0);
        let log = run(&mut pipeline(true, FOUR), Input::HopError(None), &mut world);
        assert!(!log.iter().any(|a| matches!(a, Action::AddDatanodes { .. })), "{log:?}");
        assert_eq!(last_reopen(&log), (vec![1, 2], 100));
    }

    #[test]
    fn a_namenode_outage_mid_rebuild_is_its_own_nested_incident() {
        let mut world = full().kill(When::Start, 0);
        world.outages = 1;
        let log = run(&mut pipeline(true, FOUR), Input::HopError(None), &mut world);
        assert_eq!(charged(&log), [RecoveryCause::ConnectionLost, RecoveryCause::NamenodeError]);
        let outage = Action::Incident {
            cause: RecoveryCause::NamenodeError,
            nested: true,
            attempt: 1,
            step: "namenode outage: stalled".into(),
        };
        let at = log.iter().position(|a| *a == outage).unwrap_or_else(|| panic!("{log:?}"));
        assert_eq!(log[at + 1], Action::Backoff(1));
        // The next attempt starts from the survivors the probe found.
        assert_eq!(log[at + 2], Action::Step("attempt 2: probing 2 targets, 4 retained packets".into()));
        assert_eq!((last_reopen(&log), log.last()), ((vec![1, 2], 300), Some(&Action::Done)));
    }

    #[test]
    fn a_silent_cluster_surfaces_the_timeout_after_the_budgeted_recoveries() {
        let mut timeouts = AckTimeouts::default();
        let mut recoveries = 0;
        while timeouts.recover() {
            let log = run(&mut pipeline(true, FOUR), Input::AckTimeout, &mut full());
            assert_eq!(charged(&log), [RecoveryCause::AckTimeout]);
            recoveries += 1;
        }
        assert_eq!(recoveries, 5);
    }

    #[test]
    fn a_rebuild_gives_up_after_the_budgeted_attempts() {
        let mut world = full().kill(When::Start, 0);
        world.refuse_reopen = true;
        let log = run(&mut pipeline(true, FOUR), Input::HopError(None), &mut world);
        assert_eq!(
            steps(&log),
            [
                "attempt 1: probing 3 targets, 4 retained packets",
                "attempt 2: probing 2 targets, 4 retained packets",
                "attempt 3: probing 2 targets, 4 retained packets",
                "attempt 4: probing 2 targets, 4 retained packets",
                "attempt 5: probing 2 targets, 4 retained packets",
            ]
        );
        let reason = "gave up after 5 attempts".to_string();
        assert_eq!(log.last(), Some(&Action::Fail(DfsError::PipelineUnrecoverable { pipeline: PipelineId(7), reason })));
    }

    #[test]
    fn a_scratch_rebuild_waits_for_drains_within_the_budget() {
        let mut world = World::new(&[Some(0), None, None]).kill(When::Start, 0);
        world.busy = 4;
        let log = run(&mut pipeline(false, FOUR), Input::HopError(None), &mut world);
        assert_eq!(log.iter().filter(|a| **a == Action::WaitDrain).count(), 4);
        assert_eq!((steps(&log).len(), log.last()), (2, Some(&Action::Done)), "{log:?}");

        // A fifth busy answer spends the attempt.
        let mut world = World::new(&[Some(0), None, None]).kill(When::Start, 0);
        world.busy = 5;
        let log = run(&mut pipeline(false, FOUR), Input::HopError(None), &mut world);
        let first: Vec<_> = log.iter().take_while(|a| !matches!(a, Action::Step(s) if s.starts_with("attempt 2"))).collect();
        assert_eq!(first.iter().filter(|a| ***a == Action::Allocate).count(), 5);
        assert_eq!(first.iter().filter(|a| ***a == Action::WaitDrain).count(), 5);
        assert_eq!(log.last(), Some(&Action::Done));
    }

    #[test]
    fn opening_a_block_spends_the_same_budget() {
        let outage = || Input::AllocationFailed(DfsError::namenode_unavailable("down"));
        let mut plan = Recovery::opening();
        for attempt in 1..=4 {
            let step = "namenode outage: down".to_string();
            let incident = Action::Incident { cause: RecoveryCause::NamenodeError, nested: false, attempt, step };
            assert_eq!(plan.on(outage()), [incident, Action::Backoff(attempt)]);
        }
        assert_eq!(plan.on(outage()), [Action::Fail(DfsError::namenode_unavailable("down"))]);

        let refused = |first| Input::Refused { first: DatanodeId(first), error: DfsError::connection_lost("refused") };
        let mut plan = Recovery::opening();
        for attempt in 1..=4u32 {
            let actions = plan.on(refused(attempt));
            let step = format!("first target {attempt} refused the pipeline: abandoning block, reallocating");
            let incident = Action::Incident { cause: RecoveryCause::ConnectionLost, nested: false, attempt, step };
            assert_eq!(actions, [incident, Action::MarkDead(DatanodeId(attempt)), Action::Reallocate]);
            // A refusal starts a new allocation: its outage count restarts.
            assert_eq!(plan.on(outage()).len(), 2);
        }
        assert_eq!(plan.on(refused(5)), [Action::Fail(DfsError::connection_lost("refused"))]);

        // Errors the stream cannot retry end the open at once.
        let mut plan = Recovery::opening();
        assert_eq!(plan.on(Input::AllocationFailed(DfsError::SafeMode)), [Action::Fail(DfsError::SafeMode)]);
        assert_eq!(plan.on(Input::AllocationFailed(DfsError::connection_lost("x"))), []);
        let error = DfsError::internal("bad");
        assert_eq!(plan.on(Input::Refused { first: DatanodeId(1), error: error.clone() }), [Action::Fail(error)]);
    }

    #[test]
    fn the_allocation_outcome_rule() {
        let located = |n: u32| LocatedBlock::untraced(ExtendedBlock::new(BlockId(5), GenStamp::INITIAL, 0), dns(&(0..n).collect::<Vec<_>>()));
        let busy = || Err(DfsError::PlacementFailed { wanted: 3, available: 0 });
        assert_eq!(allocation(Ok(located(2)), 3, true), Allocation::GiveBack(BlockId(5)));
        assert_eq!(allocation(Ok(located(2)), 3, false), Allocation::Use(located(2)));
        assert_eq!(allocation(Ok(located(3)), 3, true), Allocation::Use(located(3)));
        assert_eq!(allocation(busy(), 3, true), Allocation::Wait);
        assert_eq!(allocation(busy(), 3, false), Allocation::Failed(busy().unwrap_err()));
        assert_eq!(allocation(Err(DfsError::SafeMode), 3, true), Allocation::Failed(DfsError::SafeMode));
    }
}
