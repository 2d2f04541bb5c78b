//! Causal trace assembly: reconstructs per-block lifecycle timelines
//! from any [`EventSink`](crate::obs::EventSink)'s event stream.
//!
//! SMARTH's headline claim is temporal — the client starts streaming
//! block *k+1* the moment pipeline *k*'s first datanode sends
//! `FIRST_NODE_FINISH` — so the proof lives in *when* events happen
//! relative to each other across three processes. The write path stamps
//! every event with a [`TraceCtx`](crate::obs::TraceCtx) minted at
//! `addBlock` time; this module joins those events back into
//! [`BlockTimeline`]s (allocation → pipeline → per-hop replica spans →
//! FNFA → close, with recovery sub-spans), derives the aggregate
//! quantities the paper's figures rest on (FNFA→next-allocation
//! latency, pipeline overlap), and renders the whole thing as a Chrome
//! `trace_event` JSON file loadable in Perfetto or `chrome://tracing`.
//!
//! The assembler is engine-agnostic: emulator streams carry real
//! microseconds, simulator streams carry virtual microseconds, and both
//! produce the same report shape — that is exactly what lets the DES
//! and the threaded cluster be cross-checked block by block.

use crate::ids::{BlockId, ClientId, DatanodeId, TraceId};
use crate::json::{ObjectBuilder, Value};
use crate::obs::{EventRecord, Histogram, ObsEvent, RecoveryCause};
use std::collections::BTreeMap;

/// One recovery attempt reconstructed from
/// `RecoveryStarted`/`RecoveryStep`/`RecoveryFinished`.
#[derive(Debug, Clone)]
pub struct RecoverySpan {
    pub attempt: u32,
    pub cause: RecoveryCause,
    /// Incident discovered while another recovery of the same block was
    /// already in progress (second fault mid-recovery).
    pub nested: bool,
    pub start_us: u64,
    /// `None` while the recovery never reported a conclusion.
    pub end_us: Option<u64>,
    pub success: Option<bool>,
    pub steps: Vec<(u64, String)>,
}

/// One hop's replica write: the block's data became durable on
/// `datanode` at `finished_us` (from `BlockReceived`). Together with
/// the pipeline open time this bounds the packet residency of the hop.
#[derive(Debug, Clone)]
pub struct HopSpan {
    pub datanode: DatanodeId,
    pub finished_us: u64,
    pub bytes: u64,
}

/// One client read of a block, reconstructed from
/// `ReadStarted`/`StripeFetched`/`SourceSwitched`.
#[derive(Debug, Clone)]
pub struct ReadSpan {
    pub client: ClientId,
    pub start_us: u64,
    /// Speed-ranked sources the read was planned over, best first.
    pub sources: Vec<DatanodeId>,
    /// Parallel stripes the read was split into.
    pub stripes: u64,
    pub stripes_fetched: u64,
    pub bytes: u64,
    /// Completion time of the last stripe observed so far.
    pub last_stripe_us: Option<u64>,
    /// Failovers to another replica (stall, corruption, bad length).
    pub source_switches: u64,
}

/// The assembled lifecycle of one block.
#[derive(Debug, Clone)]
pub struct BlockTimeline {
    pub block: BlockId,
    pub trace: Option<TraceId>,
    pub client: Option<ClientId>,
    pub targets: Vec<DatanodeId>,
    /// Namenode allocation reached the client.
    pub allocated_us: Option<u64>,
    /// First pipeline establishment (re-opens during recovery do not
    /// move this; `closed_us` tracks the final close).
    pub opened_us: Option<u64>,
    pub closed_us: Option<u64>,
    pub committed: bool,
    /// FIRST_NODE_FINISH receipt at the client (§III-A).
    pub fnfa_us: Option<u64>,
    pub fnfa_first_node: Option<DatanodeId>,
    /// The first datanode's own record of emitting the FNFA.
    pub fnfa_sent_us: Option<u64>,
    pub hops: Vec<HopSpan>,
    pub recoveries: Vec<RecoverySpan>,
    pub ack_batches: u64,
    pub packets_acked: u64,
    /// Read-back spans of this block (empty for write-only streams).
    pub reads: Vec<ReadSpan>,
}

impl BlockTimeline {
    fn new(block: BlockId) -> Self {
        BlockTimeline {
            block,
            trace: None,
            client: None,
            targets: Vec::new(),
            allocated_us: None,
            opened_us: None,
            closed_us: None,
            committed: false,
            fnfa_us: None,
            fnfa_first_node: None,
            fnfa_sent_us: None,
            hops: Vec::new(),
            recoveries: Vec::new(),
            ack_batches: 0,
            packets_acked: 0,
            reads: Vec::new(),
        }
    }

    /// The interval the block's pipeline was live, when both ends were
    /// observed.
    pub fn pipeline_span(&self) -> Option<(u64, u64)> {
        match (self.opened_us, self.closed_us) {
            (Some(o), Some(c)) if c >= o => Some((o, c)),
            _ => None,
        }
    }

    /// Per-hop residency: time from pipeline open until the hop
    /// finalized its replica.
    pub fn hop_residency_us(&self) -> Vec<(DatanodeId, u64)> {
        let open = match self.opened_us {
            Some(o) => o,
            None => return Vec::new(),
        };
        self.hops
            .iter()
            .map(|h| (h.datanode, h.finished_us.saturating_sub(open)))
            .collect()
    }
}

/// Per-client aggregates over the assembled timelines.
#[derive(Debug)]
pub struct ClientSummary {
    pub client: ClientId,
    pub blocks: u64,
    pub committed: u64,
    pub fnfa_count: u64,
    /// Pairs of this client's pipeline spans with strictly positive
    /// temporal intersection — SMARTH's multi-pipeline signature.
    pub overlap_pairs: u64,
    /// Peak number of simultaneously live pipelines.
    pub max_concurrent: usize,
    /// FNFA receipt → next block allocation, mirroring the
    /// `fnfa_to_allocation_us` metric but recomputed from the stream.
    pub fnfa_to_allocation_us: Histogram,
}

/// Everything the assembler reconstructs from one event stream.
#[derive(Debug)]
pub struct TraceReport {
    /// Per-block timelines, ordered by first appearance in the stream.
    pub blocks: Vec<BlockTimeline>,
    pub clients: Vec<ClientSummary>,
    /// Global FNFA→next-allocation latency histogram (all clients).
    pub fnfa_to_allocation_us: Histogram,
    /// True when the stream carried simulator virtual time.
    pub virtual_time: bool,
    pub events: usize,
}

impl TraceReport {
    pub fn committed_blocks(&self) -> u64 {
        self.blocks.iter().filter(|b| b.committed).count() as u64
    }

    /// Total strictly-overlapping pipeline-span pairs across clients.
    pub fn overlap_pairs(&self) -> u64 {
        self.clients.iter().map(|c| c.overlap_pairs).sum()
    }

    pub fn client(&self, id: ClientId) -> Option<&ClientSummary> {
        self.clients.iter().find(|c| c.client == id)
    }

    /// JSON summary (the shell's `report` and the bench harness use
    /// this shape).
    pub fn summary_json(&self) -> Value {
        let clients = self
            .clients
            .iter()
            .map(|c| {
                ObjectBuilder::new()
                    .field("client", c.client.raw())
                    .field("blocks", c.blocks)
                    .field("committed", c.committed)
                    .field("fnfa_count", c.fnfa_count)
                    .field("overlap_pairs", c.overlap_pairs)
                    .field("max_concurrent_pipelines", c.max_concurrent as u64)
                    .field("fnfa_to_allocation_mean_us", c.fnfa_to_allocation_us.mean())
                    .field("fnfa_to_allocation_max_us", c.fnfa_to_allocation_us.max())
                    .build()
            })
            .collect();
        ObjectBuilder::new()
            .field("events", self.events as u64)
            .field("blocks", self.blocks.len() as u64)
            .field("committed_blocks", self.committed_blocks())
            .field("virtual_time", self.virtual_time)
            .field("overlap_pairs", self.overlap_pairs())
            .field("fnfa_to_allocation_count", self.fnfa_to_allocation_us.count())
            .field("fnfa_to_allocation_mean_us", self.fnfa_to_allocation_us.mean())
            .field("clients", Value::Array(clients))
            .build()
    }
}

/// Reconstructs [`TraceReport`]s from event streams.
pub struct TraceAssembler;

impl TraceAssembler {
    /// Assembles the stream into per-block timelines plus per-client
    /// aggregates. Records are processed in `(at_us, seq)` order, so
    /// sinks that interleave threads still assemble deterministically.
    pub fn assemble(records: &[EventRecord]) -> TraceReport {
        let mut ordered: Vec<&EventRecord> = records.iter().collect();
        ordered.sort_by_key(|r| (r.at_us, r.seq));

        let mut index: BTreeMap<BlockId, usize> = BTreeMap::new();
        let mut blocks: Vec<BlockTimeline> = Vec::new();
        // Per-client pending FNFA (source block, receipt time), consumed
        // by that client's next allocation — the stream-level
        // recomputation of the `fnfa_to_allocation_us` metric. SMARTH
        // allocates block k+1 the moment FNFA k arrives, long before
        // block k finishes replicating, so an FNFA still pending when
        // its own block closes belongs to a stream's *last* block and is
        // dropped — it must not pair with an unrelated later upload.
        let mut pending_fnfa: BTreeMap<ClientId, (BlockId, u64)> = BTreeMap::new();
        let global_hist = Histogram::default();
        let mut per_client_hist: BTreeMap<ClientId, Histogram> = BTreeMap::new();
        let mut virtual_time = false;

        for rec in &ordered {
            virtual_time |= rec.virtual_time;
            let block_id = match rec.event.block() {
                Some(b) => b,
                None => continue,
            };
            let idx = *index.entry(block_id).or_insert_with(|| {
                blocks.push(BlockTimeline::new(block_id));
                blocks.len() - 1
            });
            let tl = &mut blocks[idx];
            if let Some(ctx) = rec.ctx {
                tl.trace.get_or_insert(ctx.trace);
            }
            let t = rec.at_us;
            match &rec.event {
                ObsEvent::BlockAllocated {
                    client, targets, ..
                } => {
                    tl.client = Some(*client);
                    tl.targets = targets.clone();
                    tl.allocated_us.get_or_insert(t);
                    if let Some((_, fnfa_at)) = pending_fnfa.remove(client) {
                        let lat = t.saturating_sub(fnfa_at);
                        global_hist.observe(lat);
                        per_client_hist.entry(*client).or_default().observe(lat);
                    }
                }
                ObsEvent::PlacementDecision { client, chosen, .. } => {
                    // Namenode-side view; fills attribution when the
                    // client-side receipt is missing from the stream.
                    tl.client.get_or_insert(*client);
                    if tl.targets.is_empty() {
                        tl.targets = chosen.clone();
                    }
                }
                ObsEvent::PipelineOpened { .. } => {
                    tl.opened_us.get_or_insert(t);
                }
                ObsEvent::PipelineClosed { committed, .. } => {
                    tl.closed_us = Some(t);
                    tl.committed |= *committed;
                    if let Some(client) = tl.client {
                        if pending_fnfa.get(&client).is_some_and(|(b, _)| *b == block_id) {
                            pending_fnfa.remove(&client);
                        }
                    }
                }
                ObsEvent::FnfaReceived { first_node, .. } => {
                    tl.fnfa_us.get_or_insert(t);
                    tl.fnfa_first_node.get_or_insert(*first_node);
                    if let Some(client) = tl.client {
                        pending_fnfa.insert(client, (block_id, t));
                    }
                }
                ObsEvent::FnfaSent { datanode, .. } => {
                    tl.fnfa_sent_us.get_or_insert(t);
                    tl.fnfa_first_node.get_or_insert(*datanode);
                }
                ObsEvent::BlockReceived {
                    datanode, bytes, ..
                } => tl.hops.push(HopSpan {
                    datanode: *datanode,
                    finished_us: t,
                    bytes: *bytes,
                }),
                ObsEvent::PacketBatchAcked { packets, .. } => {
                    tl.ack_batches += 1;
                    tl.packets_acked += packets;
                }
                ObsEvent::RecoveryStarted {
                    attempt,
                    cause,
                    nested,
                    ..
                } => {
                    tl.recoveries.push(RecoverySpan {
                        attempt: *attempt,
                        cause: *cause,
                        nested: *nested,
                        start_us: t,
                        end_us: None,
                        success: None,
                        steps: Vec::new(),
                    });
                }
                ObsEvent::RecoveryStep { step, .. } => {
                    if let Some(r) = tl.recoveries.iter_mut().rev().find(|r| r.end_us.is_none()) {
                        r.steps.push((t, step.clone()));
                    }
                }
                ObsEvent::RecoveryFinished { success, .. } => {
                    if let Some(r) = tl.recoveries.iter_mut().rev().find(|r| r.end_us.is_none()) {
                        r.end_us = Some(t);
                        r.success = Some(*success);
                    }
                }
                ObsEvent::ReadStarted {
                    client,
                    sources,
                    stripes,
                    ..
                } => {
                    tl.reads.push(ReadSpan {
                        client: *client,
                        start_us: t,
                        sources: sources.clone(),
                        stripes: *stripes,
                        stripes_fetched: 0,
                        bytes: 0,
                        last_stripe_us: None,
                        source_switches: 0,
                    });
                }
                ObsEvent::StripeFetched { bytes, .. } => {
                    if let Some(r) = tl.reads.last_mut() {
                        r.stripes_fetched += 1;
                        r.bytes += bytes;
                        r.last_stripe_us = Some(r.last_stripe_us.map_or(t, |p| p.max(t)));
                    }
                }
                ObsEvent::SourceSwitched { .. } => {
                    if let Some(r) = tl.reads.last_mut() {
                        r.source_switches += 1;
                    }
                }
                ObsEvent::ExplorationSwap { .. } | ObsEvent::SpeedReportIngested { .. } => {}
            }
        }

        let clients = Self::summarize_clients(&blocks, per_client_hist);
        TraceReport {
            blocks,
            clients,
            fnfa_to_allocation_us: global_hist,
            virtual_time,
            events: records.len(),
        }
    }

    fn summarize_clients(
        blocks: &[BlockTimeline],
        mut hists: BTreeMap<ClientId, Histogram>,
    ) -> Vec<ClientSummary> {
        let mut grouped: BTreeMap<ClientId, Vec<&BlockTimeline>> = BTreeMap::new();
        for tl in blocks {
            if let Some(client) = tl.client {
                grouped.entry(client).or_default().push(tl);
            }
        }
        grouped
            .into_iter()
            .map(|(client, tls)| {
                let spans: Vec<(u64, u64)> =
                    tls.iter().filter_map(|t| t.pipeline_span()).collect();
                let mut overlap_pairs = 0u64;
                for (i, a) in spans.iter().enumerate() {
                    for b in &spans[i + 1..] {
                        if a.0.max(b.0) < a.1.min(b.1) {
                            overlap_pairs += 1;
                        }
                    }
                }
                // Sweep for the concurrency high-water: closes before
                // opens at equal timestamps, so touching spans do not
                // count as concurrent.
                let mut edges: Vec<(u64, i32)> = spans
                    .iter()
                    .flat_map(|(o, c)| [(*o, 1), (*c, -1)])
                    .collect();
                edges.sort_by_key(|(t, delta)| (*t, *delta));
                let (mut live, mut max_concurrent) = (0i32, 0i32);
                for (_, delta) in edges {
                    live += delta;
                    max_concurrent = max_concurrent.max(live);
                }
                ClientSummary {
                    client,
                    blocks: tls.len() as u64,
                    committed: tls.iter().filter(|t| t.committed).count() as u64,
                    fnfa_count: tls.iter().filter(|t| t.fnfa_us.is_some()).count() as u64,
                    overlap_pairs,
                    max_concurrent: max_concurrent.max(0) as usize,
                    fnfa_to_allocation_us: hists.remove(&client).unwrap_or_default(),
                }
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Chrome trace_event rendering
// ---------------------------------------------------------------------------

fn complete_event(
    name: String,
    cat: &str,
    ts: u64,
    dur: u64,
    pid: u64,
    tid: u64,
    args: Value,
) -> Value {
    ObjectBuilder::new()
        .field("name", name.as_str())
        .field("cat", cat)
        .field("ph", "X")
        .field("ts", ts)
        .field("dur", dur.max(1))
        .field("pid", pid)
        .field("tid", tid)
        .field("args", args)
        .build()
}

fn instant_event(name: String, cat: &str, ts: u64, pid: u64, tid: u64, args: Value) -> Value {
    ObjectBuilder::new()
        .field("name", name.as_str())
        .field("cat", cat)
        .field("ph", "i")
        .field("ts", ts)
        .field("s", "t")
        .field("pid", pid)
        .field("tid", tid)
        .field("args", args)
        .build()
}

/// Renders the report as Chrome `trace_event` JSON (the object form,
/// `{"traceEvents": [...]}`), loadable in Perfetto or
/// `chrome://tracing`. Rows: pid = client id (0 when unattributed),
/// tid = block id; timestamps are the stream's microseconds (virtual
/// for simulator streams).
pub fn to_chrome_trace(report: &TraceReport) -> Value {
    let mut events = Vec::new();
    for tl in &report.blocks {
        let pid = tl.client.map_or(0, ClientId::raw);
        let tid = tl.block.raw();
        let trace_args = || {
            let mut obj = ObjectBuilder::new().field("block", tl.block.to_string().as_str());
            if let Some(t) = tl.trace {
                obj = obj.field("trace", t.raw());
            }
            obj
        };
        if let (Some(alloc), Some(open)) = (tl.allocated_us, tl.opened_us) {
            events.push(complete_event(
                format!("allocate {}", tl.block),
                "allocation",
                alloc,
                open.saturating_sub(alloc),
                pid,
                tid,
                trace_args().build(),
            ));
        }
        if let Some((open, close)) = tl.pipeline_span() {
            let args = trace_args()
                .field("committed", tl.committed)
                .field(
                    "targets",
                    Value::Array(
                        tl.targets
                            .iter()
                            .map(|d| Value::from(d.raw() as u64))
                            .collect(),
                    ),
                )
                .field("packets_acked", tl.packets_acked)
                .field("ack_batches", tl.ack_batches)
                .build();
            events.push(complete_event(
                format!("pipeline {}", tl.block),
                "pipeline",
                open,
                close - open,
                pid,
                tid,
                args,
            ));
            for hop in &tl.hops {
                events.push(complete_event(
                    format!("replica {} on {}", tl.block, hop.datanode),
                    "hop",
                    open,
                    hop.finished_us.saturating_sub(open),
                    pid,
                    tid,
                    ObjectBuilder::new()
                        .field("datanode", hop.datanode.raw() as u64)
                        .field("bytes", hop.bytes)
                        .build(),
                ));
            }
        }
        if let Some(fnfa) = tl.fnfa_us {
            events.push(instant_event(
                format!("FNFA {}", tl.block),
                "fnfa",
                fnfa,
                pid,
                tid,
                trace_args().build(),
            ));
        }
        for r in &tl.recoveries {
            let end = r.end_us.unwrap_or(r.start_us);
            events.push(complete_event(
                format!("recovery {} attempt {} ({})", tl.block, r.attempt, r.cause),
                "recovery",
                r.start_us,
                end.saturating_sub(r.start_us),
                pid,
                tid,
                ObjectBuilder::new()
                    .field("cause", r.cause.name())
                    .field("nested", r.nested)
                    .field("success", r.success.unwrap_or(false))
                    .field("steps", r.steps.len() as u64)
                    .build(),
            ));
        }
        for r in &tl.reads {
            // Read rows live under the *reader's* pid so read spans of a
            // re-read file do not collide with the writer's pipeline row.
            let end = r.last_stripe_us.unwrap_or(r.start_us);
            events.push(complete_event(
                format!("read {}", tl.block),
                "read",
                r.start_us,
                end.saturating_sub(r.start_us),
                r.client.raw(),
                tid,
                ObjectBuilder::new()
                    .field("stripes", r.stripes)
                    .field("stripes_fetched", r.stripes_fetched)
                    .field("bytes", r.bytes)
                    .field("source_switches", r.source_switches)
                    .build(),
            ));
        }
    }
    events.sort_by_key(|e| e.get("ts").as_u64().unwrap_or(0));
    ObjectBuilder::new()
        .field("traceEvents", Value::Array(events))
        .field("displayTimeUnit", "ms")
        .field("otherData", report.summary_json())
        .build()
}

/// Writes the Chrome trace JSON for `report` to `path`.
pub fn write_chrome_trace(report: &TraceReport, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, to_chrome_trace(report).to_string_compact() + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SpanId;
    use crate::obs::TraceCtx;

    fn rec(seq: u64, at_us: u64, trace: u64, event: ObsEvent) -> EventRecord {
        EventRecord {
            seq,
            at_us,
            virtual_time: false,
            ctx: Some(TraceCtx::new(TraceId(trace), SpanId(trace * 10))),
            event,
        }
    }

    /// Two overlapping SMARTH-style block lifecycles for one client.
    fn sample_stream() -> Vec<EventRecord> {
        let c = ClientId(1);
        let (b1, b2) = (BlockId(100), BlockId(101));
        let dns = vec![DatanodeId(1), DatanodeId(2), DatanodeId(3)];
        vec![
            rec(0, 10, 1, ObsEvent::BlockAllocated { client: c, block: b1, targets: dns.clone() }),
            rec(1, 20, 1, ObsEvent::PipelineOpened { block: b1, targets: dns.clone() }),
            rec(2, 50, 1, ObsEvent::PacketBatchAcked { block: b1, acked_seq: 3, packets: 4 }),
            rec(3, 60, 1, ObsEvent::FnfaSent { datanode: DatanodeId(1), block: b1 }),
            rec(4, 65, 1, ObsEvent::FnfaReceived { block: b1, first_node: DatanodeId(1) }),
            // FNFA → next allocation: 75 - 65 = 10 µs.
            rec(5, 75, 2, ObsEvent::BlockAllocated { client: c, block: b2, targets: dns.clone() }),
            rec(6, 80, 2, ObsEvent::PipelineOpened { block: b2, targets: dns.clone() }),
            rec(7, 90, 1, ObsEvent::BlockReceived { datanode: DatanodeId(1), block: b1, bytes: 640 }),
            rec(8, 110, 1, ObsEvent::BlockReceived { datanode: DatanodeId(2), block: b1, bytes: 640 }),
            // Pipelines overlap in [80, 120).
            rec(9, 120, 1, ObsEvent::PipelineClosed { block: b1, committed: true }),
            rec(10, 130, 2, ObsEvent::RecoveryStarted { block: b2, attempt: 1, cause: RecoveryCause::AckTimeout, nested: false }),
            rec(11, 135, 2, ObsEvent::RecoveryStep { block: b2, step: "probe".into() }),
            rec(12, 150, 2, ObsEvent::RecoveryFinished { block: b2, success: true }),
            rec(13, 200, 2, ObsEvent::PipelineClosed { block: b2, committed: true }),
        ]
    }

    #[test]
    fn assembles_timelines_latency_and_overlap() {
        let report = TraceAssembler::assemble(&sample_stream());
        assert_eq!(report.blocks.len(), 2);
        assert_eq!(report.committed_blocks(), 2);
        assert!(!report.virtual_time);

        let b1 = &report.blocks[0];
        assert_eq!(b1.block, BlockId(100));
        assert_eq!(b1.trace, Some(TraceId(1)));
        assert_eq!(b1.client, Some(ClientId(1)));
        assert_eq!(b1.pipeline_span(), Some((20, 120)));
        assert_eq!(b1.fnfa_us, Some(65));
        assert_eq!(b1.fnfa_sent_us, Some(60));
        assert_eq!(b1.packets_acked, 4);
        assert_eq!(b1.hop_residency_us(), vec![(DatanodeId(1), 70), (DatanodeId(2), 90)]);

        let b2 = &report.blocks[1];
        assert_eq!(b2.recoveries.len(), 1);
        let r = &b2.recoveries[0];
        assert_eq!((r.start_us, r.end_us, r.success), (130, Some(150), Some(true)));
        assert_eq!(r.cause, RecoveryCause::AckTimeout);
        assert_eq!(r.steps, vec![(135, "probe".to_string())]);
        // Recovery sub-span nests inside its pipeline span.
        let (o, c) = b2.pipeline_span().unwrap();
        assert!(r.start_us >= o && r.end_us.unwrap() <= c);

        assert_eq!(report.fnfa_to_allocation_us.count(), 1);
        assert_eq!(report.fnfa_to_allocation_us.sum(), 10);
        let cs = report.client(ClientId(1)).unwrap();
        assert_eq!(cs.blocks, 2);
        assert_eq!(cs.fnfa_count, 1);
        assert_eq!(cs.overlap_pairs, 1, "spans [20,120] and [80,200] overlap");
        assert_eq!(cs.max_concurrent, 2);
        assert_eq!(cs.fnfa_to_allocation_us.count(), 1);
    }

    #[test]
    fn read_events_assemble_into_read_spans() {
        let block = BlockId(100);
        let mut stream = sample_stream();
        let base = stream.len() as u64;
        stream.extend([
            rec(base, 300, 1, ObsEvent::ReadStarted {
                client: ClientId(9),
                block,
                sources: vec![DatanodeId(2), DatanodeId(1)],
                stripes: 2,
            }),
            rec(base + 1, 320, 1, ObsEvent::SourceSwitched {
                block,
                from: DatanodeId(2),
                to: DatanodeId(1),
                reason: "timeout".into(),
            }),
            rec(base + 2, 340, 1, ObsEvent::StripeFetched {
                block,
                source: DatanodeId(1),
                offset: 0,
                bytes: 320,
            }),
            rec(base + 3, 360, 1, ObsEvent::StripeFetched {
                block,
                source: DatanodeId(1),
                offset: 320,
                bytes: 320,
            }),
        ]);
        let report = TraceAssembler::assemble(&stream);
        let tl = report.blocks.iter().find(|b| b.block == block).unwrap();
        assert_eq!(tl.reads.len(), 1);
        let r = &tl.reads[0];
        assert_eq!(r.client, ClientId(9));
        assert_eq!((r.start_us, r.last_stripe_us), (300, Some(360)));
        assert_eq!((r.stripes, r.stripes_fetched), (2, 2));
        assert_eq!(r.bytes, 640);
        assert_eq!(r.source_switches, 1);
        // The writer's summary is untouched by the read-back.
        let cs = report.client(ClientId(1)).unwrap();
        assert_eq!(cs.blocks, 2);
        // Chrome export grows a "read" category under the reader's pid.
        let json = to_chrome_trace(&report);
        let reads: Vec<_> = json
            .get("traceEvents")
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e.get("cat").as_str() == Some("read"))
            .collect();
        assert_eq!(reads.len(), 1);
        assert_eq!(reads[0].get("pid").as_u64(), Some(9));
        assert_eq!(reads[0].get("args").get("bytes").as_u64(), Some(640));
        assert_eq!(reads[0].get("dur").as_u64(), Some(60));
    }

    #[test]
    fn out_of_order_delivery_assembles_identically() {
        let mut shuffled = sample_stream();
        shuffled.reverse();
        let a = TraceAssembler::assemble(&sample_stream());
        let b = TraceAssembler::assemble(&shuffled);
        assert_eq!(a.blocks.len(), b.blocks.len());
        assert_eq!(a.overlap_pairs(), b.overlap_pairs());
        assert_eq!(a.fnfa_to_allocation_us.sum(), b.fnfa_to_allocation_us.sum());
    }

    #[test]
    fn chrome_trace_round_trips_through_json() {
        let report = TraceAssembler::assemble(&sample_stream());
        let json = to_chrome_trace(&report);
        let parsed = crate::json::parse(&json.to_string_compact()).unwrap();

        let events = parsed.get("traceEvents").as_array().expect("traceEvents array");
        assert!(!events.is_empty());
        for e in events {
            assert!(e.get("name").as_str().is_some());
            let ph = e.get("ph").as_str().unwrap();
            assert!(ph == "X" || ph == "i", "unexpected phase {ph}");
            assert!(e.get("ts").as_u64().is_some());
            assert!(e.get("pid").as_u64().is_some());
            assert!(e.get("tid").as_u64().is_some());
            if ph == "X" {
                assert!(e.get("dur").as_u64().unwrap() >= 1);
            }
        }
        // Timestamps are sorted, as chrome://tracing prefers.
        let ts: Vec<u64> = events.iter().map(|e| e.get("ts").as_u64().unwrap()).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));

        let count = |cat: &str| {
            events
                .iter()
                .filter(|e| e.get("cat").as_str() == Some(cat))
                .count()
        };
        assert_eq!(count("pipeline"), 2);
        assert_eq!(count("allocation"), 2);
        assert_eq!(count("fnfa"), 1);
        assert_eq!(count("recovery"), 1);
        assert_eq!(count("hop"), 2);

        let summary = parsed.get("otherData");
        assert_eq!(summary.get("committed_blocks").as_u64(), Some(2));
        assert_eq!(summary.get("overlap_pairs").as_u64(), Some(1));
        assert_eq!(
            summary.get("clients").idx(0).get("fnfa_to_allocation_mean_us").as_f64(),
            Some(10.0)
        );
    }

    #[test]
    fn write_chrome_trace_produces_a_loadable_file() {
        let report = TraceAssembler::assemble(&sample_stream());
        let path = std::env::temp_dir().join(format!("smarth-trace-{}.json", std::process::id()));
        write_chrome_trace(&report, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = crate::json::parse(&text).unwrap();
        assert!(parsed.get("traceEvents").as_array().is_some());
        std::fs::remove_file(&path).unwrap();
    }
}
