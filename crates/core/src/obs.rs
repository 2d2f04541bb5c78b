//! Structured observability: typed protocol events plus an atomic
//! metrics registry, shared by the threaded emulator and the
//! discrete-event simulator.
//!
//! SMARTH is a measurement-driven protocol — Algorithm 1 places blocks
//! from observed per-datanode speeds, Algorithm 2 reorders pipelines
//! from the client's own transfer records — so the system exposes its
//! own measurements through this module instead of ad-hoc `eprintln!`
//! tracing. Two complementary surfaces:
//!
//! * **Events** ([`ObsEvent`]): the write path emits one typed record
//!   per protocol action (block allocation, pipeline open/close, FNFA,
//!   recovery steps, placement decisions…) through a pluggable
//!   [`EventSink`]. The default sink is a no-op; a bounded in-memory
//!   ring ([`RingBufferSink`]) and a JSON-lines writer
//!   ([`JsonLinesSink`]) are provided, and [`FanoutSink`] composes
//!   sinks. The emulator stamps records with real (monotonic) time, the
//!   simulator with virtual time — same event types, comparable traces.
//! * **Metrics** ([`Metrics`]): always-on atomic counters, gauges with
//!   high-water marks, and fixed-bucket histograms for the quantities
//!   the paper's claims rest on (bytes written, packets in flight,
//!   concurrent pipelines, FNFA→next-allocation latency, recoveries by
//!   cause).
//!
//! Everything is cheap when disabled: a [`NullSink`] emit is one
//! dynamic call on an `Arc`, and metric updates are single relaxed
//! atomic ops.

pub mod telemetry;

use crate::ids::{BlockId, ClientId, DatanodeId, SpanId, TraceId};
use crate::json::{ObjectBuilder, ToJson, Value};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// Why a pipeline recovery was started.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryCause {
    /// No pipeline event arrived within the configured event timeout.
    AckTimeout,
    /// A datanode reported a failure for a specific pipeline position.
    DatanodeError,
    /// The transport to the pipeline broke (host killed, link cut).
    ConnectionLost,
    /// The namenode rejected an operation mid-write.
    NamenodeError,
    /// An additional replica holder was lost *while a recovery for the
    /// same block was already in progress* (probe found it unreachable,
    /// or its replica copy failed mid-rebuild). Kept distinct from the
    /// original cause so fault-injection accounting balances: one
    /// incident per failed node, not one per recovery invocation.
    NestedFailure,
}

impl RecoveryCause {
    pub const ALL: [RecoveryCause; 5] = [
        RecoveryCause::AckTimeout,
        RecoveryCause::DatanodeError,
        RecoveryCause::ConnectionLost,
        RecoveryCause::NamenodeError,
        RecoveryCause::NestedFailure,
    ];

    /// This cause's position in [`RecoveryCause::ALL`].
    pub fn index(self) -> usize {
        match self {
            RecoveryCause::AckTimeout => 0,
            RecoveryCause::DatanodeError => 1,
            RecoveryCause::ConnectionLost => 2,
            RecoveryCause::NamenodeError => 3,
            RecoveryCause::NestedFailure => 4,
        }
    }
}

crate::json_enum!(impl ToJson for RecoveryCause, fn name {
    "ack_timeout" => AckTimeout,
    "datanode_error" => DatanodeError,
    "connection_lost" => ConnectionLost,
    "namenode_error" => NamenodeError,
    "nested_failure" => NestedFailure,
});

impl fmt::Display for RecoveryCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Causal context attached to an event: which block-lifecycle trace it
/// belongs to and which span within that trace emitted it. Minted by
/// the namenode at `addBlock` time and threaded across every RPC
/// boundary (client → namenode → datanode chain → simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    pub trace: TraceId,
    pub span: SpanId,
}

impl TraceCtx {
    pub fn new(trace: TraceId, span: SpanId) -> Self {
        TraceCtx { trace, span }
    }

    /// Rebuilds a context from raw wire values; returns `None` when
    /// either side is the untraced sentinel.
    pub fn from_raw(trace: u64, span: u64) -> Option<Self> {
        let (trace, span) = (TraceId(trace), SpanId(span));
        (trace.is_valid() && span.is_valid()).then_some(TraceCtx { trace, span })
    }

    /// The same trace, entered through a derived child span.
    #[must_use]
    pub fn child(self, salt: u64) -> Self {
        TraceCtx {
            trace: self.trace,
            span: self.span.child(salt),
        }
    }
}

/// One observed per-datanode speed record consulted by a placement
/// decision (Algorithm 1's inputs).
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedObservation {
    pub datanode: DatanodeId,
    pub bytes_per_sec: f64,
}

crate::json_struct!(impl ToJson for SpeedObservation {
    "datanode" => datanode: DatanodeId,
    "bytes_per_sec" => bytes_per_sec: f64,
});

/// A typed protocol event on the write path. Variants cover the
/// client, datanode, namenode and simulator; each carries the ids
/// needed to join it back to a block or pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEvent {
    /// The namenode allocated a block (client-side receipt).
    BlockAllocated {
        client: ClientId,
        block: BlockId,
        targets: Vec<DatanodeId>,
    },
    /// A write pipeline was established through all its datanodes.
    PipelineOpened {
        block: BlockId,
        targets: Vec<DatanodeId>,
    },
    /// A pipeline finished (committed or abandoned).
    PipelineClosed { block: BlockId, committed: bool },
    /// The client observed acks up to `acked_seq` (one event per ack
    /// batch, not per packet).
    PacketBatchAcked {
        block: BlockId,
        acked_seq: u64,
        packets: u64,
    },
    /// FIRST_NODE_FINISH ack reached the client (§III-A) — the trigger
    /// for allocating the next block while this pipeline drains.
    FnfaReceived { block: BlockId, first_node: DatanodeId },
    /// A first datanode finalized its replica and emitted FNFA
    /// downstream-independently (datanode side).
    FnfaSent { datanode: DatanodeId, block: BlockId },
    /// A datanode finalized a received replica.
    BlockReceived {
        datanode: DatanodeId,
        block: BlockId,
        bytes: u64,
    },
    /// Pipeline recovery began (Algorithms 3/4). `nested` marks an
    /// incident discovered while another recovery of the same block was
    /// already running (second fault mid-recovery).
    RecoveryStarted {
        block: BlockId,
        attempt: u32,
        cause: RecoveryCause,
        nested: bool,
    },
    /// One step of an ongoing recovery (probe, replica copy, rebuild…).
    RecoveryStep { block: BlockId, step: String },
    /// Recovery concluded.
    RecoveryFinished { block: BlockId, success: bool },
    /// Algorithm 2 explored: a slower-ranked datanode was promoted to
    /// pipeline head to refresh its speed record.
    ExplorationSwap {
        block: BlockId,
        promoted: DatanodeId,
        displaced: DatanodeId,
    },
    /// The namenode chose targets for a block, with the speed records
    /// it consulted (empty for the default rack-aware policy).
    PlacementDecision {
        client: ClientId,
        block: BlockId,
        policy: &'static str,
        chosen: Vec<DatanodeId>,
        speeds_consulted: Vec<SpeedObservation>,
    },
    /// The namenode ingested a client speed report (heartbeat piggyback).
    SpeedReportIngested { client: ClientId, records: u64 },
    /// A client began reading one block, split across `stripes` parallel
    /// range stripes over the listed sources (speed-ranked, best first).
    ReadStarted {
        client: ClientId,
        block: BlockId,
        sources: Vec<DatanodeId>,
        stripes: u64,
    },
    /// One range stripe of a block read completed from a source.
    StripeFetched {
        block: BlockId,
        source: DatanodeId,
        offset: u64,
        bytes: u64,
    },
    /// A read stripe abandoned its source (stall, corruption, short or
    /// over-long payload) and failed over to another replica.
    SourceSwitched {
        block: BlockId,
        from: DatanodeId,
        to: DatanodeId,
        reason: String,
    },
}

crate::json_enum!(impl ToJson for ObsEvent, tag "kind" {
    "block_allocated" => BlockAllocated {
        "client" => client: ClientId,
        "block" => block: BlockId,
        "targets" => targets: Vec<DatanodeId>,
    },
    "pipeline_opened" => PipelineOpened {
        "block" => block: BlockId,
        "targets" => targets: Vec<DatanodeId>,
    },
    "pipeline_closed" => PipelineClosed {
        "block" => block: BlockId,
        "committed" => committed: bool,
    },
    "packet_batch_acked" => PacketBatchAcked {
        "block" => block: BlockId,
        "acked_seq" => acked_seq: u64,
        "packets" => packets: u64,
    },
    "fnfa_received" => FnfaReceived {
        "block" => block: BlockId,
        "first_node" => first_node: DatanodeId,
    },
    "fnfa_sent" => FnfaSent { "datanode" => datanode: DatanodeId, "block" => block: BlockId },
    "block_received" => BlockReceived {
        "datanode" => datanode: DatanodeId,
        "block" => block: BlockId,
        "bytes" => bytes: u64,
    },
    "recovery_started" => RecoveryStarted {
        "block" => block: BlockId,
        "attempt" => attempt: u32,
        "cause" => cause: RecoveryCause,
        "nested" => nested: bool,
    },
    "recovery_step" => RecoveryStep { "block" => block: BlockId, "step" => step: String },
    "recovery_finished" => RecoveryFinished {
        "block" => block: BlockId,
        "success" => success: bool,
    },
    "exploration_swap" => ExplorationSwap {
        "block" => block: BlockId,
        "promoted" => promoted: DatanodeId,
        "displaced" => displaced: DatanodeId,
    },
    "placement_decision" => PlacementDecision {
        "client" => client: ClientId,
        "block" => block: BlockId,
        "policy" => policy: &'static str,
        "chosen" => chosen: Vec<DatanodeId>,
        "speeds_consulted" => speeds_consulted: Vec<SpeedObservation>,
    },
    "speed_report_ingested" => SpeedReportIngested {
        "client" => client: ClientId,
        "records" => records: u64,
    },
    "read_started" => ReadStarted {
        "client" => client: ClientId,
        "block" => block: BlockId,
        "sources" => sources: Vec<DatanodeId>,
        "stripes" => stripes: u64,
    },
    "stripe_fetched" => StripeFetched {
        "block" => block: BlockId,
        "source" => source: DatanodeId,
        "offset" => offset: u64,
        "bytes" => bytes: u64,
    },
    "source_switched" => SourceSwitched {
        "block" => block: BlockId,
        "from" => from: DatanodeId,
        "to" => to: DatanodeId,
        "reason" => reason: String,
    },
});

impl ObsEvent {
    /// The block this event is about, when it is about one.
    pub fn block(&self) -> Option<BlockId> {
        match self {
            ObsEvent::BlockAllocated { block, .. }
            | ObsEvent::PipelineOpened { block, .. }
            | ObsEvent::PipelineClosed { block, .. }
            | ObsEvent::PacketBatchAcked { block, .. }
            | ObsEvent::FnfaReceived { block, .. }
            | ObsEvent::FnfaSent { block, .. }
            | ObsEvent::BlockReceived { block, .. }
            | ObsEvent::RecoveryStarted { block, .. }
            | ObsEvent::RecoveryStep { block, .. }
            | ObsEvent::RecoveryFinished { block, .. }
            | ObsEvent::ExplorationSwap { block, .. }
            | ObsEvent::PlacementDecision { block, .. }
            | ObsEvent::ReadStarted { block, .. }
            | ObsEvent::StripeFetched { block, .. }
            | ObsEvent::SourceSwitched { block, .. } => Some(*block),
            ObsEvent::SpeedReportIngested { .. } => None,
        }
    }
}

/// A timestamped, sequenced event record as delivered to sinks.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Monotone per-`Obs` sequence number (emission order).
    pub seq: u64,
    /// Microseconds — wall-clock-anchored monotonic time for the
    /// emulator, virtual time for the simulator.
    pub at_us: u64,
    /// True when `at_us` is simulator virtual time.
    pub virtual_time: bool,
    /// Causal parent: the block-lifecycle trace and span this event was
    /// emitted under, when the emitting path was traced.
    pub ctx: Option<TraceCtx>,
    pub event: ObsEvent,
}

/// The time is `vt_us` in virtual time and `t_us` otherwise, and an
/// untraced record has no `trace`/`span`; then the event's own object.
impl ToJson for EventRecord {
    fn to_json(&self) -> Value {
        let time = if self.virtual_time { "vt_us" } else { "t_us" };
        let mut fields = vec![
            ("seq".to_string(), self.seq.to_json()),
            (time.to_string(), self.at_us.to_json()),
        ];
        if let Some(ctx) = self.ctx {
            fields.push(("trace".to_string(), ctx.trace.to_json()));
            fields.push(("span".to_string(), ctx.span.to_json()));
        }
        if let Value::Object(event) = self.event.to_json() {
            fields.extend(event);
        }
        Value::Object(fields)
    }
}

/// Receiver of event records. Implementations must be cheap and
/// non-blocking — they run inline on protocol threads.
pub trait EventSink: Send + Sync {
    fn emit(&self, record: &EventRecord);
}

/// Discards everything (the default).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&self, _record: &EventRecord) {}
}

/// Keeps the most recent `capacity` records in memory.
pub struct RingBufferSink {
    capacity: usize,
    buf: Mutex<VecDeque<EventRecord>>,
    /// Records ever pushed; moves only under `buf`'s lock.
    pushed: AtomicU64,
    dropped: AtomicU64,
}

impl RingBufferSink {
    pub fn new(capacity: usize) -> Arc<Self> {
        assert!(capacity > 0, "ring buffer capacity must be positive");
        Arc::new(RingBufferSink {
            capacity,
            buf: Mutex::new(VecDeque::with_capacity(capacity)),
            pushed: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        })
    }

    /// Copies out the retained records, oldest first.
    pub fn snapshot(&self) -> Vec<EventRecord> {
        self.buf.lock().iter().cloned().collect()
    }

    /// The retained records pushed since `cursor` (a count of pushes; 0
    /// reads all), oldest first, and the next cursor: each comes back
    /// once, whatever order emitters took their seqs in. Evicted ones are
    /// gone — compare [`RingBufferSink::dropped`] across calls.
    pub fn snapshot_from(&self, cursor: u64) -> (Vec<EventRecord>, u64) {
        let buf = self.buf.lock();
        let pushed = self.pushed.load(Ordering::Relaxed);
        let skip = cursor.saturating_sub(pushed - buf.len() as u64) as usize;
        (buf.iter().skip(skip).cloned().collect(), pushed)
    }

    /// Number of records evicted due to capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    pub fn clear(&self) {
        self.buf.lock().clear();
    }
}

impl EventSink for RingBufferSink {
    fn emit(&self, record: &EventRecord) {
        let mut buf = self.buf.lock();
        if buf.len() == self.capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(record.clone());
        self.pushed.fetch_add(1, Ordering::Relaxed);
    }
}

/// Streams each record as one compact JSON object per line.
pub struct JsonLinesSink<W: Write + Send> {
    out: Mutex<W>,
}

impl<W: Write + Send> JsonLinesSink<W> {
    pub fn new(out: W) -> Arc<Self> {
        Arc::new(JsonLinesSink {
            out: Mutex::new(out),
        })
    }
}

impl JsonLinesSink<SyncFile> {
    pub fn create(path: &std::path::Path) -> std::io::Result<Arc<Self>> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(SyncFile(std::io::BufWriter::new(file))))
    }
}

/// Buffered file writer that flushes *and* fsyncs when dropped, so a
/// capture file is durable once its sink goes away — a crash right
/// after a run must not lose the tail of the trace to the page cache.
pub struct SyncFile(std::io::BufWriter<std::fs::File>);

impl Write for SyncFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

impl Drop for SyncFile {
    fn drop(&mut self) {
        let _ = self.0.flush();
        let _ = self.0.get_ref().sync_all();
    }
}

impl<W: Write + Send> EventSink for JsonLinesSink<W> {
    fn emit(&self, record: &EventRecord) {
        let line = record.to_json().to_string_compact();
        let mut out = self.out.lock();
        // Tracing must never take down the write path; I/O errors are
        // swallowed by design.
        let _ = writeln!(out, "{line}");
    }
}

impl<W: Write + Send> Drop for JsonLinesSink<W> {
    fn drop(&mut self) {
        let _ = self.out.lock().flush();
    }
}

/// Delivers every record to each of several sinks.
pub struct FanoutSink {
    sinks: Vec<Arc<dyn EventSink>>,
}

impl FanoutSink {
    pub fn new(sinks: Vec<Arc<dyn EventSink>>) -> Arc<Self> {
        Arc::new(FanoutSink { sinks })
    }
}

impl EventSink for FanoutSink {
    fn emit(&self, record: &EventRecord) {
        for sink in &self.sinks {
            sink.emit(record);
        }
    }
}

/// Head/tail sampling of interior packet traffic, per block lifecycle.
///
/// At soak scale the per-packet-batch ack events dominate the stream by
/// orders of magnitude and blow any bounded capture (a [`RingBufferSink`]
/// ends up holding nothing but the most recent acks, evicting the
/// lifecycle events the trace assembler actually needs). This wrapper
/// passes every lifecycle event through untouched — allocation, open,
/// FNFA, close, recovery spans, placement — and for each block keeps
/// only the first `head` and last `tail` [`ObsEvent::PacketBatchAcked`]
/// records, releasing the buffered tail when the block's pipeline
/// closes. Whole-block timelines survive; interior hops are sampled.
///
/// [`ObsEvent::ExplorationSwap`] records get the same treatment at run
/// granularity (each block swaps at most once, but ε-greedy swaps
/// accumulate across blocks and dominate long SMARTH runs at paper
/// scale): the first `head` swaps of the run pass through, the last
/// `tail` are buffered and released by [`flush`](Self::flush), and
/// interior swaps count into [`sampled_out`](Self::sampled_out).
pub struct SamplingSink {
    inner: Arc<dyn EventSink>,
    head: usize,
    tail: usize,
    blocks: Mutex<std::collections::HashMap<BlockId, BlockSampler>>,
    /// Run-level head/tail state for exploration-swap records.
    swaps: Mutex<BlockSampler>,
    sampled_out: AtomicU64,
}

#[derive(Default)]
struct BlockSampler {
    head_seen: usize,
    tail: VecDeque<EventRecord>,
}

impl SamplingSink {
    pub fn new(inner: Arc<dyn EventSink>, head: usize, tail: usize) -> Arc<Self> {
        Arc::new(SamplingSink {
            inner,
            head,
            tail,
            blocks: Mutex::new(std::collections::HashMap::new()),
            swaps: Mutex::new(BlockSampler::default()),
            sampled_out: AtomicU64::new(0),
        })
    }

    /// Interior packet records dropped by sampling so far.
    pub fn sampled_out(&self) -> u64 {
        self.sampled_out.load(Ordering::Relaxed)
    }

    /// Releases buffered tails for blocks whose pipeline never closed
    /// (stream abandoned mid-write) plus the run-level exploration-swap
    /// tail. Call once at end of capture.
    pub fn flush(&self) {
        let drained: Vec<BlockSampler> = {
            let mut blocks = self.blocks.lock();
            blocks.drain().map(|(_, s)| s).collect()
        };
        for sampler in drained {
            for rec in sampler.tail {
                self.inner.emit(&rec);
            }
        }
        let swap_tail = std::mem::take(&mut self.swaps.lock().tail);
        for rec in swap_tail {
            self.inner.emit(&rec);
        }
    }
}

impl EventSink for SamplingSink {
    fn emit(&self, record: &EventRecord) {
        match &record.event {
            ObsEvent::PacketBatchAcked { block, .. } => {
                let mut blocks = self.blocks.lock();
                let sampler = blocks.entry(*block).or_default();
                if sampler.head_seen < self.head {
                    sampler.head_seen += 1;
                    drop(blocks);
                    self.inner.emit(record);
                } else {
                    sampler.tail.push_back(record.clone());
                    if sampler.tail.len() > self.tail {
                        sampler.tail.pop_front();
                        self.sampled_out.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            ObsEvent::ExplorationSwap { .. } => {
                let mut swaps = self.swaps.lock();
                if swaps.head_seen < self.head {
                    swaps.head_seen += 1;
                    drop(swaps);
                    self.inner.emit(record);
                } else {
                    swaps.tail.push_back(record.clone());
                    if swaps.tail.len() > self.tail {
                        swaps.tail.pop_front();
                        self.sampled_out.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            ObsEvent::PipelineClosed { block, .. } => {
                let sampler = self.blocks.lock().remove(block);
                if let Some(sampler) = sampler {
                    for rec in sampler.tail {
                        self.inner.emit(&rec);
                    }
                }
                self.inner.emit(record);
            }
            _ => self.inner.emit(record),
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Monotone counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Up/down gauge that also tracks its high-water mark.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
    high_water: AtomicU64,
}

impl Gauge {
    /// Increments and returns the post-increment value.
    pub fn inc(&self) -> u64 {
        self.add(1)
    }

    /// Adds `n` and returns the post-add value.
    pub fn add(&self, n: u64) -> u64 {
        let now = self.value.fetch_add(n, Ordering::Relaxed) + n;
        self.high_water.fetch_max(now, Ordering::Relaxed);
        now
    }

    pub fn dec(&self) {
        self.sub(1);
    }

    pub fn sub(&self, n: u64) {
        // Saturating: a spurious extra dec must not wrap to u64::MAX.
        let _ = self.value.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(n))
        });
    }

    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
        self.high_water.fetch_max(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }
}

/// Inclusive upper bounds (µs) of the latency histogram's buckets: fine
/// steps through the sub-millisecond range the emulator produces, then
/// about three per decade up to the seconds a paper-scale simulation
/// reaches. One overflow bucket lies past the last bound.
const LATENCY_BOUNDS_US: [u64; 20] = [
    50, 100, 200, 350, 500, 750, 1_000, 1_500, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
    250_000, 500_000, 1_000_000, 2_500_000, 5_000_000, 10_000_000,
];

/// Lock-free histogram over microsecond latencies: bucket `i` counts
/// values `<= LATENCY_BOUNDS_US[i]` above the bound before it.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; LATENCY_BOUNDS_US.len() + 1],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    fn bucket_for(value: u64) -> usize {
        LATENCY_BOUNDS_US.partition_point(|&ub| ub < value)
    }

    fn bucket_upper_bound(bucket: usize) -> u64 {
        LATENCY_BOUNDS_US.get(bucket).copied().unwrap_or(u64::MAX)
    }

    pub fn observe(&self, value: u64) {
        self.buckets[Self::bucket_for(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Approximate quantile, linearly interpolated within the bucket
    /// containing the q-th sample (q in `[0, 1]`): the rank's position
    /// among the bucket's samples picks a point between the bucket's
    /// bounds instead of always reporting the upper bound, so sparse
    /// buckets stop rounding every quantile up. Capped at the observed
    /// max (the overflow bucket's nominal bound is `u64::MAX`).
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let in_bucket = bucket.load(Ordering::Relaxed);
            if in_bucket > 0 && seen + in_bucket >= rank {
                let lower = if i == 0 { 0 } else { Self::bucket_upper_bound(i - 1) };
                let upper = Self::bucket_upper_bound(i).min(self.max()).max(lower);
                let frac = (rank - seen) as f64 / in_bucket as f64;
                let v = lower as f64 + (upper - lower) as f64 * frac;
                return (v.round() as u64).min(self.max());
            }
            seen += in_bucket;
        }
        self.max()
    }

    fn to_json(&self) -> Value {
        ObjectBuilder::new()
            .field("count", self.count())
            .field("sum", self.sum())
            .field("mean", self.mean())
            .field("p50", self.quantile(0.5))
            .field("p95", self.quantile(0.95))
            .field("p99", self.quantile(0.99))
            .field("max", self.max())
            .build()
    }
}

/// The write path's well-known metrics. One instance is shared by every
/// component wired to the same [`Obs`].
#[derive(Debug, Default)]
pub struct Metrics {
    /// Payload bytes acknowledged end-to-end.
    pub bytes_written: Counter,
    /// Packets handed to pipelines.
    pub packets_sent: Counter,
    /// Packets sent but not yet fully acked, across all pipelines.
    pub packets_in_flight: Gauge,
    /// Currently open write pipelines; `high_water()` is the paper's
    /// concurrency claim (§IV-C cap).
    pub concurrent_pipelines: Gauge,
    /// Blocks committed by the namenode.
    pub blocks_committed: Counter,
    /// FNFA receipt → next block allocation latency, µs (SMARTH's
    /// pipelining benefit is precisely this gap staying small).
    pub fnfa_to_allocation_us: Histogram,
    /// FNFA events received by clients.
    pub fnfa_received: Counter,
    /// Recoveries by cause, indexed per `RecoveryCause::index`.
    recoveries: [Counter; 5],
    /// Exploration swaps performed by Algorithm 2.
    pub exploration_swaps: Counter,
    /// Placement decisions taken with speed records available.
    pub speed_aware_placements: Counter,
    /// Speed records ingested by the namenode.
    pub speed_records_ingested: Counter,
    /// Bytes staged between a datanode's receive and flush stages — the
    /// §IV-C buffer that absorbs disk/network mismatch. Bounded per block
    /// write by `DfsConfig::datanode_client_buffer`.
    pub datanode_buffered_bytes: Gauge,
    /// Bytes queued between a datanode's receive stage and its mirror
    /// forwarder (downstream replication backlog).
    pub datanode_forward_bytes: Gauge,
    /// Packets currently in datanode staging queues (flush-stage depth).
    pub datanode_staging_packets: Gauge,
    /// Payload bytes read back and verified by clients.
    pub bytes_read: Counter,
    /// Read stripes currently being fetched, across all client reads;
    /// `high_water()` is the effective read parallelism achieved.
    pub client_read_inflight_stripes: Gauge,
    /// Corrupt/truncated replicas reported to the namenode by readers.
    pub bad_replicas_reported: Counter,
    /// Re-replications the namenode scheduled after bad-replica reports.
    pub re_replications_scheduled: Counter,
    /// RPC handler panics caught and converted into typed error
    /// responses (namenode conn threads + datanode xceivers). Any
    /// non-zero value indicates a server-side bug; CI soaks assert 0.
    pub handler_panics: Counter,
    /// Namenode connections dropped unserved because no thread could be
    /// started for them.
    pub connections_dropped: Counter,
    /// Datanode→namenode heartbeats that failed to deliver (namenode
    /// unreachable or erroring). Lets `top` show a node that is alive
    /// but cut off from the namenode.
    pub heartbeat_failures: Counter,
    /// Datanode `blockReceived` reports the namenode did not accept (no
    /// answer, or an error). Replicas past the pipeline head report after
    /// their ack, so nothing else would show a lost one.
    pub block_report_failures: Counter,
    /// Allocations a stream gave back (`abandonBlock`) without opening a
    /// pipeline on them: a short pipeline, or a first target that died
    /// after placement.
    pub allocations_abandoned: Counter,
    /// Client requests the namenode handled: an `Idempotent` envelope is
    /// one request, and so is its replay.
    pub namenode_client_rpcs: Counter,
}

impl Metrics {
    pub fn new() -> Arc<Self> {
        Arc::new(Metrics::default())
    }

    pub fn record_recovery(&self, cause: RecoveryCause) {
        self.recoveries[cause.index()].inc();
    }

    pub fn recoveries(&self, cause: RecoveryCause) -> u64 {
        self.recoveries[cause.index()].get()
    }

    pub fn recoveries_total(&self) -> u64 {
        self.recoveries.iter().map(Counter::get).sum()
    }

    /// Point-in-time JSON snapshot of every metric.
    pub fn snapshot(&self) -> Value {
        let recoveries = RecoveryCause::ALL
            .iter()
            .fold(ObjectBuilder::new(), |obj, c| {
                obj.field(c.name(), self.recoveries(*c))
            })
            .field("total", self.recoveries_total())
            .build();
        ObjectBuilder::new()
            .field("bytes_written", self.bytes_written.get())
            .field("packets_sent", self.packets_sent.get())
            .field("packets_in_flight", self.packets_in_flight.get())
            .field("packets_in_flight_high_water", self.packets_in_flight.high_water())
            .field("concurrent_pipelines", self.concurrent_pipelines.get())
            .field(
                "concurrent_pipelines_high_water",
                self.concurrent_pipelines.high_water(),
            )
            .field("blocks_committed", self.blocks_committed.get())
            .field("fnfa_received", self.fnfa_received.get())
            .field("fnfa_to_allocation_us", self.fnfa_to_allocation_us.to_json())
            .field("allocations_abandoned", self.allocations_abandoned.get())
            .field("recoveries", recoveries)
            .field("exploration_swaps", self.exploration_swaps.get())
            .field("speed_aware_placements", self.speed_aware_placements.get())
            .field("speed_records_ingested", self.speed_records_ingested.get())
            .field("datanode_buffered_bytes", self.datanode_buffered_bytes.get())
            .field(
                "datanode_buffered_bytes_high_water",
                self.datanode_buffered_bytes.high_water(),
            )
            .field("datanode_forward_bytes", self.datanode_forward_bytes.get())
            .field(
                "datanode_forward_bytes_high_water",
                self.datanode_forward_bytes.high_water(),
            )
            .field("datanode_staging_packets", self.datanode_staging_packets.get())
            .field(
                "datanode_staging_packets_high_water",
                self.datanode_staging_packets.high_water(),
            )
            .field("bytes_read", self.bytes_read.get())
            .field(
                "client_read_inflight_stripes",
                self.client_read_inflight_stripes.get(),
            )
            .field(
                "client_read_inflight_stripes_high_water",
                self.client_read_inflight_stripes.high_water(),
            )
            .field("bad_replicas_reported", self.bad_replicas_reported.get())
            .field(
                "re_replications_scheduled",
                self.re_replications_scheduled.get(),
            )
            .field("handler_panics", self.handler_panics.get())
            .field("connections_dropped", self.connections_dropped.get())
            .field("heartbeat_failures", self.heartbeat_failures.get())
            .field("block_report_failures", self.block_report_failures.get())
            .field("namenode_client_rpcs", self.namenode_client_rpcs.get())
            .build()
    }
}

// ---------------------------------------------------------------------------
// Observability handle
// ---------------------------------------------------------------------------

/// Shared anchor so real-time stamps from different components are
/// mutually comparable within one process.
fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// The handle components hold: an event sink plus the metrics registry.
/// Cloning is cheap (two `Arc`s and an `Arc`'d sequence counter).
#[derive(Clone)]
pub struct Obs {
    sink: Arc<dyn EventSink>,
    metrics: Arc<Metrics>,
    seq: Arc<AtomicU64>,
}

impl Obs {
    pub fn new(sink: Arc<dyn EventSink>) -> Self {
        Obs {
            sink,
            metrics: Metrics::new(),
            seq: Arc::new(AtomicU64::new(0)),
        }
    }

    /// No-op event sink; metrics still collected.
    pub fn disabled() -> Self {
        Obs::new(Arc::new(NullSink))
    }

    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    pub fn sink(&self) -> &Arc<dyn EventSink> {
        &self.sink
    }

    /// Microseconds since the process-wide epoch (monotonic).
    pub fn now_us() -> u64 {
        process_epoch().elapsed().as_micros() as u64
    }

    /// Emits an event stamped with real time.
    pub fn emit(&self, event: ObsEvent) {
        self.emit_record(Self::now_us(), false, None, event);
    }

    /// Emits an event stamped with real time under a causal context.
    pub fn emit_traced(&self, ctx: impl Into<Option<TraceCtx>>, event: ObsEvent) {
        self.emit_record(Self::now_us(), false, ctx.into(), event);
    }

    /// Emits an event stamped with simulator virtual time.
    pub fn emit_virtual(&self, at_us: u64, event: ObsEvent) {
        self.emit_record(at_us, true, None, event);
    }

    /// Emits a virtual-time event under a causal context.
    pub fn emit_virtual_traced(
        &self,
        at_us: u64,
        ctx: impl Into<Option<TraceCtx>>,
        event: ObsEvent,
    ) {
        self.emit_record(at_us, true, ctx.into(), event);
    }

    fn emit_record(&self, at_us: u64, virtual_time: bool, ctx: Option<TraceCtx>, event: ObsEvent) {
        let record = EventRecord {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            at_us,
            virtual_time,
            ctx,
            event,
        };
        self.sink.emit(&record);
    }
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_event(i: u64) -> ObsEvent {
        ObsEvent::PacketBatchAcked {
            block: BlockId(i),
            acked_seq: i * 10,
            packets: 10,
        }
    }

    #[test]
    fn ring_buffer_truncates_oldest_first() {
        let ring = RingBufferSink::new(3);
        let obs = Obs::new(ring.clone());
        for i in 0..5 {
            obs.emit(sample_event(i));
        }
        let records = ring.snapshot();
        assert_eq!(records.len(), 3);
        assert_eq!(ring.dropped(), 2);
        // Oldest two evicted; seq 2..5 retained in order.
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn fanout_delivers_to_every_sink() {
        let a = RingBufferSink::new(8);
        let b = RingBufferSink::new(8);
        let obs = Obs::new(FanoutSink::new(vec![a.clone(), b.clone()]));
        obs.emit(sample_event(1));
        obs.emit(sample_event(2));
        assert_eq!(a.snapshot().len(), 2);
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn json_lines_sink_writes_parseable_lines() {
        let buf: Vec<u8> = Vec::new();
        let sink = JsonLinesSink::new(buf);
        let obs = Obs::new(sink.clone());
        obs.emit(ObsEvent::FnfaReceived {
            block: BlockId(7),
            first_node: DatanodeId(3),
        });
        obs.emit_virtual(
            123,
            ObsEvent::PlacementDecision {
                client: ClientId(4),
                block: BlockId(8),
                policy: "smarth",
                chosen: vec![DatanodeId(1), DatanodeId(2)],
                speeds_consulted: vec![SpeedObservation {
                    datanode: DatanodeId(1),
                    bytes_per_sec: 1e6,
                }],
            },
        );
        let text = String::from_utf8(sink.out.lock().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = crate::json::parse(lines[0]).unwrap();
        assert_eq!(first.get("kind").as_str(), Some("fnfa_received"));
        assert_eq!(first.get("block").as_u64(), Some(7));
        assert!(first.get("vt_us").is_null(), "real time stamped as t_us");
        let second = crate::json::parse(lines[1]).unwrap();
        assert_eq!(second.get("vt_us").as_u64(), Some(123));
        assert_eq!(second.get("chosen").idx(1).as_u64(), Some(2));
        assert_eq!(
            second.get("speeds_consulted").idx(0).get("bytes_per_sec").as_f64(),
            Some(1e6)
        );
    }

    #[test]
    fn histogram_math() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0);
        for v in [80u64, 90, 200, 210, 220, 400, 20_000_000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 20_001_200);
        assert!((h.mean() - 20_001_200.0 / 7.0).abs() < 1e-6);
        assert_eq!(h.max(), 20_000_000);
        // The median sample (210) is the first of two in the (200, 350]
        // bucket: 200 + 150 * 1/2 = 275.
        assert_eq!(h.quantile(0.5), 275);
        // Overflow past the last bound is capped at the observed max.
        assert_eq!(h.quantile(0.95), 20_000_000);
        assert_eq!(h.quantile(1.0), 20_000_000);
        // A value equal to a bound lands in that bound's bucket.
        assert_eq!(Histogram::bucket_for(0), 0);
        assert_eq!(Histogram::bucket_for(50), 0);
        assert_eq!(Histogram::bucket_for(51), 1);
        assert_eq!(Histogram::bucket_for(u64::MAX), LATENCY_BOUNDS_US.len());
    }

    #[test]
    fn sampling_sink_keeps_lifecycle_and_bounds_packets() {
        let ring = RingBufferSink::new(4096);
        let sampling = SamplingSink::new(ring.clone(), 2, 3);
        let obs = Obs::new(sampling.clone());
        let block = BlockId(9);
        obs.emit(ObsEvent::PipelineOpened {
            block,
            targets: vec![DatanodeId(1)],
        });
        for i in 0..20 {
            obs.emit(ObsEvent::PacketBatchAcked {
                block,
                acked_seq: i,
                packets: 1,
            });
        }
        // A different block's recovery events pass through untouched.
        obs.emit(ObsEvent::RecoveryStarted {
            block: BlockId(10),
            attempt: 1,
            cause: RecoveryCause::ConnectionLost,
            nested: false,
        });
        obs.emit(ObsEvent::PipelineClosed {
            block,
            committed: true,
        });
        let records = ring.snapshot();
        let acks: Vec<u64> = records
            .iter()
            .filter_map(|r| match &r.event {
                ObsEvent::PacketBatchAcked { acked_seq, .. } => Some(*acked_seq),
                _ => None,
            })
            .collect();
        // Head 2 + tail 3 of the 20 interior acks survive, in order.
        assert_eq!(acks, vec![0, 1, 17, 18, 19]);
        assert_eq!(sampling.sampled_out(), 15);
        // Lifecycle events all present, close emitted after the tail.
        assert!(matches!(
            records.last().unwrap().event,
            ObsEvent::PipelineClosed { .. }
        ));
        assert!(records
            .iter()
            .any(|r| matches!(r.event, ObsEvent::RecoveryStarted { .. })));
        assert!(records
            .iter()
            .any(|r| matches!(r.event, ObsEvent::PipelineOpened { .. })));
    }

    #[test]
    fn sampling_sink_flush_releases_unclosed_tails() {
        let ring = RingBufferSink::new(64);
        let sampling = SamplingSink::new(ring.clone(), 1, 2);
        let obs = Obs::new(sampling.clone());
        for i in 0..5 {
            obs.emit(ObsEvent::PacketBatchAcked {
                block: BlockId(7),
                acked_seq: i,
                packets: 1,
            });
        }
        // Head of 1 passed through; the stream never closed, so the
        // 2-deep tail is still buffered until flush.
        assert_eq!(ring.snapshot().len(), 1);
        sampling.flush();
        let acks: Vec<u64> = ring
            .snapshot()
            .iter()
            .filter_map(|r| match &r.event {
                ObsEvent::PacketBatchAcked { acked_seq, .. } => Some(*acked_seq),
                _ => None,
            })
            .collect();
        assert_eq!(acks, vec![0, 3, 4]);
        assert_eq!(sampling.sampled_out(), 2);
    }

    #[test]
    fn sampling_sink_bounds_exploration_swaps() {
        let ring = RingBufferSink::new(4096);
        let sampling = SamplingSink::new(ring.clone(), 2, 3);
        let obs = Obs::new(sampling.clone());
        for i in 0..20u64 {
            obs.emit(ObsEvent::ExplorationSwap {
                block: BlockId(i),
                promoted: DatanodeId(1),
                displaced: DatanodeId(2),
            });
        }
        // Head 2 passed through; tail of 3 is buffered until flush; the
        // 15 interior swaps were dropped and counted.
        let swaps_in = |records: &[EventRecord]| -> Vec<u64> {
            records
                .iter()
                .filter_map(|r| match &r.event {
                    ObsEvent::ExplorationSwap { block, .. } => Some(block.0),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(swaps_in(&ring.snapshot()), vec![0, 1]);
        assert_eq!(sampling.sampled_out(), 15);
        sampling.flush();
        assert_eq!(swaps_in(&ring.snapshot()), vec![0, 1, 17, 18, 19]);
        // Lifecycle close of an unrelated block does not release swaps.
        assert_eq!(sampling.sampled_out(), 15);
    }

    /// Emitters take their seq before the ring's lock, so records can
    /// land out of seq order; the cursor still hands each out once.
    #[test]
    fn ring_buffer_snapshot_from_is_a_cursor() {
        let ring = RingBufferSink::new(16);
        let (mut cursor, mut read) = (0, Vec::new());
        for seq in [1, 3, 2, 4] {
            let event = sample_event(seq);
            ring.emit(&EventRecord { seq, at_us: 0, virtual_time: false, ctx: None, event });
            let fresh;
            (fresh, cursor) = ring.snapshot_from(cursor);
            read.extend(fresh.iter().map(|r| r.seq));
        }
        assert_eq!((read, cursor), (vec![1, 3, 2, 4], 4));
    }

    #[test]
    fn gauge_high_water_and_saturation() {
        let g = Gauge::default();
        g.inc();
        g.inc();
        g.dec();
        g.inc();
        assert_eq!(g.get(), 2);
        assert_eq!(g.high_water(), 2);
        g.dec();
        g.dec();
        g.dec(); // extra dec must saturate at zero, not wrap
        assert_eq!(g.get(), 0);
        assert_eq!(g.high_water(), 2);
    }

    #[test]
    fn metrics_snapshot_is_valid_json() {
        let m = Metrics::default();
        m.bytes_written.add(4096);
        m.record_recovery(RecoveryCause::AckTimeout);
        m.record_recovery(RecoveryCause::AckTimeout);
        m.concurrent_pipelines.inc();
        m.fnfa_to_allocation_us.observe(1500);
        let snap = m.snapshot();
        let parsed = crate::json::parse(&snap.to_string_pretty()).unwrap();
        assert_eq!(parsed.get("bytes_written").as_u64(), Some(4096));
        assert_eq!(parsed.get("recoveries").get("ack_timeout").as_u64(), Some(2));
        assert_eq!(parsed.get("recoveries").get("total").as_u64(), Some(2));
        assert_eq!(parsed.get("concurrent_pipelines_high_water").as_u64(), Some(1));
        assert_eq!(parsed.get("fnfa_to_allocation_us").get("count").as_u64(), Some(1));
    }

    #[test]
    fn traced_emission_carries_context_into_json() {
        let ring = RingBufferSink::new(8);
        let obs = Obs::new(ring.clone());
        let ctx = TraceCtx::new(TraceId(77), SpanId(5));
        obs.emit_traced(ctx, sample_event(1));
        obs.emit(sample_event(2));
        let records = ring.snapshot();
        assert_eq!(records[0].ctx, Some(ctx));
        assert_eq!(records[1].ctx, None);
        let json = crate::json::parse(&records[0].to_json().to_string_compact()).unwrap();
        assert_eq!(json.get("trace").as_u64(), Some(77));
        assert_eq!(json.get("span").as_u64(), Some(5));
        let bare = crate::json::parse(&records[1].to_json().to_string_compact()).unwrap();
        assert!(bare.get("trace").is_null());
        // Wire sentinels round-trip to "untraced".
        assert_eq!(TraceCtx::from_raw(u64::MAX, 5), None);
        assert_eq!(TraceCtx::from_raw(77, 5), Some(ctx));
    }

    #[test]
    fn hop_span_ids_survive_json_lines_exactly() {
        // Every datanode event carries a hop span from `SpanId::child`,
        // which uses all 64 bits; an f64 keeps only 53 of them.
        let sink = JsonLinesSink::new(Vec::new());
        let obs = Obs::new(sink.clone());
        let ctx = TraceCtx::new(TraceId(1), SpanId(1).child(1));
        assert!(ctx.span.raw() > 1 << 53);
        obs.emit_traced(ctx, ObsEvent::FnfaSent { datanode: DatanodeId(1), block: BlockId(7) });
        let text = String::from_utf8(sink.out.lock().clone()).unwrap();
        let v = crate::json::parse(text.trim_end()).unwrap();
        assert_eq!(v.get("span").as_u64(), Some(ctx.span.raw()), "{text}");
    }

    #[test]
    fn json_lines_sink_is_durable_after_drop() {
        let dir = std::env::temp_dir().join(format!("smarth-obs-sync-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plain.jsonl");
        {
            let obs = Obs::new(JsonLinesSink::create(&path).unwrap());
            obs.emit(sample_event(42));
            // Sink dropped here without an explicit flush.
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let v = crate::json::parse(text.trim_end()).unwrap();
        assert_eq!(v.get("block").as_u64(), Some(42), "the file lost its record");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_from_resyncs_past_evicted_cursor() {
        let ring = RingBufferSink::new(4);
        let obs = Obs::new(ring.clone());
        for i in 0..3 {
            obs.emit(sample_event(i));
        }
        let (_, cursor) = ring.snapshot_from(0);
        assert_eq!(cursor, 3);
        // Overflow the ring: the cursor's records and several more go.
        for i in 3..11 {
            obs.emit(sample_event(i));
        }
        let (fresh, cursor) = ring.snapshot_from(cursor);
        // A cursor in the evicted past gets the whole live tail, in order.
        let seqs: Vec<u64> = fresh.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10]);
        // The gap is detectable: dropped() counts records 0..=6.
        assert_eq!(ring.dropped(), 7);
        // A fresh cursor at the live tail sees exactly nothing.
        assert!(ring.snapshot_from(cursor).0.is_empty());
    }

    #[test]
    fn null_sink_still_counts_sequence() {
        let obs = Obs::disabled();
        obs.emit(sample_event(1));
        obs.emit(sample_event(2));
        // Metrics registry reachable and zeroed.
        assert_eq!(obs.metrics().bytes_written.get(), 0);
    }
}
