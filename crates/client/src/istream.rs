//! `DfsInputStream` — the SMARTH read path.
//!
//! Writes got the paper's full treatment (multi-pipeline transfer,
//! speed-aware placement, local re-sort); this module gives reads the
//! same first-class citizenship:
//!
//! * **Striped reads** — each block read is split into
//!   [`DfsConfig::stripes_for`](smarth_core::config::DfsConfig::stripes_for)
//!   byte ranges (as many as there are packets to move, up to three
//!   and the replica count) fetched in parallel from
//!   different replicas, sized by the client's observed per-datanode
//!   speeds (§III-B turned around to drive source selection instead of
//!   placement). A single job — one window, or one stripe — runs on the
//!   thread that asked for it.
//! * **Source ordering** — the namenode pre-orders each block's replica
//!   set by the requesting client's speed registry; the client refines
//!   that with its own fresher [`ClientSpeedTracker`] observations via
//!   the same [`sort_infos_by`] re-sort Algorithm 2 uses on writes.
//! * **Bounded readahead** — the next `READAHEAD_BLOCKS` blocks are
//!   fetched while the current one is being consumed.
//! * **Deadline + failover** — every fetch attempt carries a read
//!   deadline ([`DfsConfig::read_timeout`](smarth_core::config::DfsConfig));
//!   a stalled, corrupt, truncated or dead replica converts into a
//!   source switch, not a hang. Corrupt replicas are reported to the
//!   namenode so future readers stop seeing them.
//! * **Salvage** — [`DfsInputStream::salvage`] recovers every intact
//!   block of a damaged file and maps the holes instead of erroring on
//!   the first dead replica set.
//!
//! The bytes of a read are copied once on the client: the result is
//! allocated once, every block window and under it every stripe gets its
//! own disjoint `&mut [u8]` of it, and each verified packet payload is
//! copied straight to its place. A failover fills the stripe's slice
//! again from its start, so a source that died midway leaves no trace.

use crate::client::ClientCtx;
use smarth_core::checksum::ChunkedChecksum;
use smarth_core::error::{DfsError, DfsResult};
use smarth_core::ids::{BlockId, DatanodeId};
use smarth_core::localopt::sort_infos_by;
use smarth_core::obs::{ObsEvent, RecoveryCause};
use smarth_core::proto::{DataOp, DataReply, DatanodeInfo, FileStatus, LocatedBlock, Packet};
use smarth_core::units::{ByteSize, SimDuration};
use smarth_core::wire::{recv_message, send_message};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Blocks a multi-block read fetches ahead of the one being consumed.
const READAHEAD_BLOCKS: usize = 1;

/// A byte range of the file that could not be recovered because every
/// replica of its block is gone or corrupt.
#[derive(Debug, Clone)]
pub struct BlockGap {
    pub block: BlockId,
    /// Offset of the lost range within the file.
    pub offset: u64,
    pub len: u64,
    /// The last per-replica error observed for the block.
    pub error: String,
}

/// Outcome of a degraded read: everything that survived, plus a map of
/// what didn't (the cs544 "recover as much data as possible" scenario).
#[derive(Debug, Clone)]
pub struct SalvageReport {
    pub path: String,
    pub file_len: u64,
    /// Intact block contents as `(file_offset, data)`, in file order.
    pub recovered: Vec<(u64, Vec<u8>)>,
    /// Unrecoverable ranges, in file order.
    pub gaps: Vec<BlockGap>,
}

impl SalvageReport {
    pub fn recovered_bytes(&self) -> u64 {
        self.recovered.iter().map(|(_, d)| d.len() as u64).sum()
    }

    pub fn lost_bytes(&self) -> u64 {
        self.gaps.iter().map(|g| g.len).sum()
    }

    /// True when nothing was lost — the salvage is a normal full read.
    pub fn is_complete(&self) -> bool {
        self.gaps.is_empty()
    }
}

/// A readable handle on one file: block layout resolved once at open,
/// then striped/readahead reads over it.
pub struct DfsInputStream {
    ctx: Arc<ClientCtx>,
    path: String,
    info: FileStatus,
    blocks: Vec<LocatedBlock>,
}

impl DfsInputStream {
    pub(crate) fn open(ctx: Arc<ClientCtx>, path: &str) -> DfsResult<Self> {
        // One trip: the length and the blocks are one view of the file, so
        // an overwrite landing during the open cannot make them disagree.
        let (info, blocks) = ctx.rpc.block_locations(ctx.id, path)?;
        Ok(Self {
            ctx,
            path: path.to_string(),
            info,
            blocks,
        })
    }

    pub fn len(&self) -> u64 {
        self.info.len
    }

    pub fn is_empty(&self) -> bool {
        self.info.len == 0
    }

    /// The block layout resolved at open time, replica sets in namenode
    /// speed order (diagnostics and fault-targeting in tests).
    pub fn block_layout(&self) -> &[LocatedBlock] {
        &self.blocks
    }

    /// Reads the whole file, striping each block across its replicas and
    /// prefetching ahead of consumption.
    pub fn read_all(&self) -> DfsResult<Vec<u8>> {
        let windows: Vec<(usize, u64, u64)> = self
            .blocks
            .iter()
            .enumerate()
            .map(|(i, lb)| (i, 0, lb.block.len))
            .collect();
        self.read_windows(&windows, self.info.len)
    }

    /// Positional read (`pread`) of `len` bytes at `offset`, touching
    /// only the overlapping blocks.
    pub fn read_range(&self, offset: u64, len: u64) -> DfsResult<Vec<u8>> {
        if offset.checked_add(len).is_none_or(|end| end > self.info.len) {
            return Err(DfsError::OutOfRange {
                path: self.path.clone(),
                offset,
                len,
                file_len: self.info.len,
            });
        }
        let mut windows = Vec::new();
        let mut block_start = 0u64;
        for (i, lb) in self.blocks.iter().enumerate() {
            let block_end = block_start + lb.block.len;
            let want_start = offset.max(block_start);
            let want_end = (offset + len).min(block_end);
            if want_start < want_end {
                windows.push((i, want_start - block_start, want_end - want_start));
            }
            block_start = block_end;
            if block_start >= offset + len {
                break;
            }
        }
        self.read_windows(&windows, len)
    }

    /// Degraded read: recovers every block that still has an intact
    /// replica and records a [`BlockGap`] for each one that doesn't,
    /// instead of failing the whole read.
    pub fn salvage(&self) -> DfsResult<SalvageReport> {
        let mut recovered = Vec::new();
        let mut gaps = Vec::new();
        let mut block_start = 0u64;
        let cancel = AtomicBool::new(false);
        for lb in &self.blocks {
            let mut data = vec![0u8; lb.block.len as usize];
            match self.read_block_striped(lb, 0, &mut data, &cancel) {
                Ok(()) => recovered.push((block_start, data)),
                Err(e) => gaps.push(BlockGap {
                    block: lb.block.id,
                    offset: block_start,
                    len: lb.block.len,
                    error: e.to_string(),
                }),
            }
            block_start += lb.block.len;
        }
        Ok(SalvageReport {
            path: self.path.clone(),
            file_len: self.info.len,
            recovered,
            gaps,
        })
    }

    /// Runs the given `(block_index, offset, len)` windows — `total`
    /// bytes, back to back — through the striped fetcher, keeping up to
    /// [`READAHEAD_BLOCKS`] windows in flight beyond the one being joined.
    /// The result is allocated once, here: every window, and below it
    /// every stripe, fills its own disjoint part of it in place. The
    /// first failure aborts the read.
    fn read_windows(&self, windows: &[(usize, u64, u64)], total: u64) -> DfsResult<Vec<u8>> {
        let covered: u64 = windows.iter().map(|w| w.2).sum();
        if covered != total {
            return Err(DfsError::internal(format!(
                "blocks cover {covered} bytes, expected {total}"
            )));
        }
        let mut out = vec![0u8; total as usize];
        // In-flight readahead workers poll this between failover hops:
        // the first fatal error cancels the speculative windows so the
        // scope (which joins every worker) unwinds promptly instead of
        // waiting out each remaining window's full failover loop.
        let cancel = AtomicBool::new(false);
        if let [(bi, off, _)] = *windows {
            self.read_block_striped(&self.blocks[bi], off, &mut out, &cancel)?;
            return Ok(out);
        }
        std::thread::scope(|s| -> DfsResult<()> {
            let cancel = &cancel;
            let mut rest = &mut out[..];
            let mut pending = VecDeque::new();
            let mut next = 0usize;
            let mut fatal: Option<DfsError> = None;
            for i in 0..windows.len() {
                if fatal.is_some() {
                    break;
                }
                while next < windows.len() && next <= i + READAHEAD_BLOCKS {
                    let (bi, off, wlen) = windows[next];
                    let lb = &self.blocks[bi];
                    let (dst, tail) = std::mem::take(&mut rest).split_at_mut(wlen as usize);
                    rest = tail;
                    pending
                        .push_back(s.spawn(move || self.read_block_striped(lb, off, dst, cancel)));
                    next += 1;
                }
                let handle = pending.pop_front().expect("window spawned before join");
                let joined = handle
                    .join()
                    .map_err(|_| DfsError::internal("read worker panicked"))
                    .and_then(|r| r);
                if let Err(e) = joined {
                    cancel.store(true, Ordering::SeqCst);
                    fatal = Some(e);
                }
            }
            // Drain: join what's still pending (cancelled workers exit at
            // their next failover hop) so no thread outlives the error.
            for handle in pending {
                let _ = handle.join();
            }
            match fatal {
                Some(e) => Err(e),
                None => Ok(()),
            }
        })?;
        Ok(out)
    }

    /// Fills `out` with the block's bytes from `offset` on, split into
    /// parallel range stripes across its replica set with per-stripe
    /// failover. Readahead sets `cancel` on a sibling's fatal error and
    /// every stripe checks it before each failover hop.
    fn read_block_striped(
        &self,
        lb: &LocatedBlock,
        offset: u64,
        out: &mut [u8],
        cancel: &AtomicBool,
    ) -> DfsResult<()> {
        let len = out.len() as u64;
        if len == 0 {
            return Ok(());
        }
        if lb.targets.is_empty() {
            return Err(DfsError::internal(format!(
                "block {} has no live replicas",
                lb.block.id
            )));
        }
        // Namenode registry order, refined by the client's own fresher
        // observations — the read-side analogue of Algorithm 2's local
        // re-sort.
        let mut targets = lb.targets.clone();
        let mut order: Vec<DatanodeId> = targets.iter().map(|t| t.id).collect();
        self.ctx.tracker.lock().sort_descending(&mut order);
        sort_infos_by(&mut targets, &order);

        let stripes = self.ctx.config.stripes_for(targets.len(), len);
        self.ctx.obs.emit(ObsEvent::ReadStarted {
            client: self.ctx.id,
            block: lb.block.id,
            sources: targets.iter().map(|t| t.id).collect(),
            stripes: stripes as u64,
        });
        if stripes == 1 {
            return self.fetch_stripe(lb, &targets, 0, offset, out, cancel);
        }

        let cuts = self.stripe_cuts(&targets, stripes, len);
        std::thread::scope(|s| {
            let targets = &targets;
            let mut rest = out;
            let handles: Vec<_> = (0..stripes)
                .map(|i| {
                    let start = offset + cuts[i];
                    let stripe_len = (cuts[i + 1] - cuts[i]) as usize;
                    let (dst, tail) = std::mem::take(&mut rest).split_at_mut(stripe_len);
                    rest = tail;
                    s.spawn(move || self.fetch_stripe(lb, targets, i, start, dst, cancel))
                })
                .collect();
            // Every stripe is joined before the first error is returned.
            let results: Vec<DfsResult<()>> = handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err(DfsError::internal("stripe worker panicked")))
                })
                .collect();
            results.into_iter().collect()
        })
    }

    /// Splits `len` bytes into `stripes` contiguous cuts weighted by the
    /// locally observed speed of each stripe's primary source (unknown
    /// sources weigh as the mean of the known ones).
    fn stripe_cuts(&self, targets: &[DatanodeInfo], stripes: usize, len: u64) -> Vec<u64> {
        let speeds: Vec<Option<f64>> = {
            let tracker = self.ctx.tracker.lock();
            targets[..stripes]
                .iter()
                .map(|t| tracker.speed_of(t.id).map(|b| b.as_bytes_per_sec()))
                .collect()
        };
        let known: Vec<f64> = speeds.iter().flatten().copied().filter(|s| *s > 0.0).collect();
        let mean = if known.is_empty() {
            1.0
        } else {
            known.iter().sum::<f64>() / known.len() as f64
        };
        let weights: Vec<f64> = speeds
            .iter()
            .map(|s| match s {
                Some(v) if *v > 0.0 => *v,
                _ => mean,
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let mut cuts = Vec::with_capacity(stripes + 1);
        cuts.push(0u64);
        let mut acc = 0.0;
        for w in &weights[..stripes - 1] {
            acc += w;
            let cut = ((acc / total) * len as f64).round() as u64;
            // Cuts must stay monotone even under degenerate weights.
            cuts.push(cut.clamp(*cuts.last().expect("non-empty"), len));
        }
        cuts.push(len);
        cuts
    }

    /// Fetches one stripe into `out`, failing over across the replica set
    /// starting from the stripe's assigned source; each attempt fills
    /// `out` from its start again.
    fn fetch_stripe(
        &self,
        lb: &LocatedBlock,
        targets: &[DatanodeInfo],
        stripe: usize,
        offset: u64,
        out: &mut [u8],
        cancel: &AtomicBool,
    ) -> DfsResult<()> {
        if out.is_empty() {
            return Ok(());
        }
        let metrics = self.ctx.obs.metrics();
        metrics.client_read_inflight_stripes.inc();
        let result = self.fetch_stripe_with_failover(lb, targets, stripe, offset, out, cancel);
        metrics.client_read_inflight_stripes.dec();
        result
    }

    fn fetch_stripe_with_failover(
        &self,
        lb: &LocatedBlock,
        targets: &[DatanodeInfo],
        stripe: usize,
        offset: u64,
        out: &mut [u8],
        cancel: &AtomicBool,
    ) -> DfsResult<()> {
        let n = targets.len();
        let len = out.len() as u64;
        let mut last_err = DfsError::internal(format!("block {} has no replicas", lb.block.id));
        let mut prev: Option<DatanodeId> = None;
        for k in 0..n {
            if cancel.load(Ordering::Relaxed) {
                return Err(DfsError::internal(format!(
                    "stripe fetch of block {} cancelled: a sibling read failed",
                    lb.block.id
                )));
            }
            let target = &targets[(stripe + k) % n];
            if let Some(from) = prev {
                self.ctx.obs.emit(ObsEvent::SourceSwitched {
                    block: lb.block.id,
                    from,
                    to: target.id,
                    reason: switch_reason(&last_err).to_string(),
                });
            }
            let started = Instant::now();
            match self.fetch_once(lb, target, offset, out) {
                Ok(()) => {
                    // Reads feed the same §III-B tracker as writes, so
                    // read experience shapes future source ordering and
                    // the next heartbeat's speed report.
                    self.ctx.tracker.lock().observe(
                        target.id,
                        ByteSize(len),
                        SimDuration::from_secs_f64(started.elapsed().as_secs_f64()),
                    );
                    self.ctx.obs.emit(ObsEvent::StripeFetched {
                        block: lb.block.id,
                        source: target.id,
                        offset,
                        bytes: len,
                    });
                    self.ctx.obs.metrics().bytes_read.add(len);
                    return Ok(());
                }
                Err(e) => {
                    if is_corrupt_replica(&e) {
                        self.report_bad_replica(lb, target.id);
                    }
                    prev = Some(target.id);
                    last_err = e;
                }
            }
        }
        Err(last_err)
    }

    /// One connection-level attempt against one replica: each verified
    /// payload is copied to its place in `out`. Any length disagreement —
    /// announced vs requested, or delivered vs announced — is treated as
    /// a corrupt replica, not trusted (the old read path only
    /// `debug_assert`ed the announced length, so release builds accepted
    /// truncated or over-long streams).
    fn fetch_once(
        &self,
        lb: &LocatedBlock,
        target: &DatanodeInfo,
        offset: u64,
        out: &mut [u8],
    ) -> DfsResult<()> {
        let len = out.len();
        let csum = ChunkedChecksum::new(self.ctx.config.bytes_per_checksum);
        let mut stream = self.ctx.fabric.connect(&self.ctx.host, &target.addr)?;
        // Reads must never hang on a stalled datanode: every frame of
        // this attempt shares one deadline, and blowing it converts into
        // source failover at the caller.
        let deadline = Instant::now()
            + Duration::from_secs_f64(self.ctx.config.read_timeout.as_secs_f64());
        stream.set_read_deadline(Some(deadline));
        send_message(
            &mut stream,
            &DataOp::ReadBlock {
                block: lb.block,
                offset,
                len: len as u64,
            },
        )?;
        let announced = match recv_message::<DataReply>(&mut stream)? {
            DataReply::ReadOk { len: n } => n,
            DataReply::Error(e) => return Err(DfsError::internal(e)),
            other => return Err(DfsError::internal(format!("unexpected {other:?}"))),
        };
        if announced != len as u64 {
            return Err(DfsError::internal(format!(
                "corrupt replica: announced {announced} bytes for a {len}-byte read of block {}",
                lb.block.id
            )));
        }
        let mut filled = 0usize;
        let delivered = |n: usize| {
            DfsError::internal(format!(
                "corrupt replica: {n} bytes delivered of {len} announced for block {}",
                lb.block.id
            ))
        };
        loop {
            let pkt: Packet = recv_message(&mut stream)?;
            if !csum.verify(&pkt.payload, &pkt.checksums) {
                return Err(DfsError::ChecksumMismatch {
                    block: lb.block.id,
                    seq: pkt.seq,
                });
            }
            let end = filled + pkt.payload.len();
            if end > len {
                return Err(delivered(end));
            }
            out[filled..end].copy_from_slice(&pkt.payload);
            filled = end;
            if pkt.last_in_block {
                break;
            }
        }
        if filled != len {
            return Err(delivered(filled));
        }
        Ok(())
    }

    /// Tells the namenode a replica is corrupt (it drops it from
    /// location responses and schedules re-replication accounting) and
    /// sinks it in the local tracker so sibling stripes stop preferring
    /// it immediately.
    fn report_bad_replica(&self, lb: &LocatedBlock, dn: DatanodeId) {
        self.ctx.tracker.lock().observe_rate(dn, 1.0);
        if self
            .ctx
            .rpc
            .report_bad_replica(self.ctx.id, lb.block, dn)
            .is_err()
        {
            // The read itself fails over fine, but the re-replication
            // accounting the report should have triggered did not happen
            // — the one failure only the namenode can cause.
            self.ctx
                .obs
                .metrics()
                .record_recovery(RecoveryCause::NamenodeError);
            self.ctx.obs.emit(ObsEvent::RecoveryStarted {
                block: lb.block.id,
                attempt: 1,
                cause: RecoveryCause::NamenodeError,
                nested: false,
            });
        }
    }
}

/// Corrupt-replica classification: checksum failures and length
/// disagreements both mean the copy itself is bad (report it), as
/// opposed to transport errors that only mean the path is bad.
fn is_corrupt_replica(e: &DfsError) -> bool {
    matches!(e, DfsError::ChecksumMismatch { .. })
        || matches!(e, DfsError::Internal(m) if m.starts_with("corrupt replica"))
}

fn switch_reason(e: &DfsError) -> &'static str {
    match e {
        DfsError::Timeout(_) => "timeout",
        DfsError::ChecksumMismatch { .. } => "checksum",
        DfsError::ConnectionLost(_) => "connection",
        DfsError::Internal(m) if m.starts_with("corrupt replica") => "length",
        _ => "error",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupt_replica_classification() {
        assert!(is_corrupt_replica(&DfsError::ChecksumMismatch {
            block: BlockId(1),
            seq: 0,
        }));
        assert!(is_corrupt_replica(&DfsError::internal(
            "corrupt replica: announced 5 bytes for a 6-byte read of block blk_1"
        )));
        assert!(!is_corrupt_replica(&DfsError::Timeout("read".into())));
        assert!(!is_corrupt_replica(&DfsError::internal(
            "block blk_1 has no replicas"
        )));
    }

    #[test]
    fn switch_reasons_are_stable_labels() {
        assert_eq!(switch_reason(&DfsError::Timeout("x".into())), "timeout");
        assert_eq!(
            switch_reason(&DfsError::ChecksumMismatch {
                block: BlockId(1),
                seq: 2
            }),
            "checksum"
        );
        assert_eq!(
            switch_reason(&DfsError::internal("corrupt replica: short")),
            "length"
        );
        assert_eq!(switch_reason(&DfsError::SafeMode), "error");
    }
}
