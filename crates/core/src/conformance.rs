//! Cross-engine conformance: bounds the divergence between the two
//! engines' views of the same workload.
//!
//! The repo runs SMARTH twice — on the thread-per-node emulator (real
//! microseconds, real sockets-over-fabric) and on the discrete-event
//! simulator (virtual microseconds, modeled NICs). Both emit the same
//! [`ObsEvent`](crate::obs::ObsEvent) vocabulary and assemble into the
//! same [`TraceReport`] shape, which makes the simulator usable as a
//! differential oracle for the emulator — *if* their reports actually
//! agree. This module does the checking:
//!
//! * [`TraceDigest`] boils a report down to engine-comparable,
//!   *dimensionless* quantities. Absolute times are incomparable across
//!   engines (a virtual FNFA→allocation gap is ~0 µs; the emulator pays
//!   real scheduling and RPC latency), so the digest normalizes every
//!   latency by the report's own mean pipeline span and keeps ratios.
//! * [`diff_digests`]/[`diff_reports`] join two digests block-by-block
//!   — matched by upload index and payload size, because block ids are
//!   minted independently per engine — and score each metric against
//!   its fixed band, producing a machine-readable [`DiffVerdict`]
//!   (`results/<id>.diff.json`).
//!
//! The digest also rides inside every Chrome trace's `otherData`
//! (see [`to_chrome_trace`](crate::trace::to_chrome_trace)), so any two
//! previously saved `<id>.trace.json` files can be diffed after the
//! fact without re-running either engine.

use crate::json::ToJson;
use crate::trace::TraceReport;

// Tolerance bands. Count metrics pass when `|a-b| <= abs + frac *
// max(a,b)`; ratio metrics compare against a plain absolute band; the
// committed-block count, payload sizes and read admission must match
// exactly. Calibrated on the paired emulator/DES runs of
// `tests/conformance.rs` (single client, small files, test-scale
// config): observed divergences there are gap-ratio mean ≤ 0.10 and hop
// residency ≤ 0.23, and the bands sit ~2x above that to absorb scheduler
// noise on loaded hosts without admitting structural drift.
/// Allowed |Δ| in total FNFA count.
const FNFA_COUNT_ABS: u64 = 1;
/// Band on the mean FNFA→allocation gap ratio difference.
const FNFA_GAP_RATIO: f64 = 0.45;
/// Band on the mean |Δ| of paired per-hop residency fractions.
const HOP_RESIDENCY: f64 = 0.45;
/// Overlap-pair count band: `abs + frac * max(a,b)`.
const OVERLAP_ABS: u64 = 2;
const OVERLAP_FRAC: f64 = 0.40;
/// Allowed |Δ| in peak concurrent pipelines.
const MAX_CONCURRENT_ABS: u64 = 1;

/// One block's engine-comparable signature.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockDigest {
    /// Position in upload order (allocation order across the stream).
    pub index: usize,
    /// Payload bytes (from the hop replica records; the join key
    /// together with `index`, since block ids differ across engines).
    pub bytes: u64,
    pub committed: bool,
    /// Pipeline width (number of replica targets).
    pub targets: usize,
    pub recoveries: usize,
    /// Per-hop replica residency as a fraction of the block's own
    /// pipeline span — `(finished - open) / (close - open)` per hop,
    /// sorted ascending so target-order differences don't register.
    pub hop_residency: Vec<f64>,
    /// Striped-read admission over this block: read spans observed,
    /// stripes announced across them, and bytes fetched. Dimensionless
    /// (counts, not times), so directly engine-comparable.
    pub reads: usize,
    pub read_stripes: u64,
    pub read_bytes: u64,
}

crate::json_struct!(impl Json for BlockDigest {
    "index" => index: usize,
    "bytes" => bytes: u64,
    "committed" => committed: bool,
    "targets" => targets: usize,
    "recoveries" => recoveries: usize,
    "hop_residency" => hop_residency: Vec<f64>,
    "reads" => reads: usize,
    "read_stripes" => read_stripes: u64,
    "read_bytes" => read_bytes: u64,
});

/// Which engine produced a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The discrete-event simulator (virtual time).
    Sim,
    /// The threaded emulator (wall-clock time).
    Emulator,
}

crate::json_enum!(impl Json for Engine, fn name { "sim" => Sim, "emulator" => Emulator });

/// Engine-comparable summary of one [`TraceReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDigest {
    pub engine: Engine,
    pub blocks: Vec<BlockDigest>,
    pub fnfa_count: u64,
    pub overlap_pairs: u64,
    /// Peak concurrent pipelines of the busiest client.
    pub max_concurrent: u64,
    /// Mean committed-pipeline span, µs (engine-local time base; kept
    /// for context, never compared across engines directly).
    pub mean_pipeline_span_us: f64,
    /// FNFA→next-allocation gaps, each normalized by
    /// `mean_pipeline_span_us`, in upload order.
    pub fnfa_gap_ratios: Vec<f64>,
}

impl TraceDigest {
    /// Digests an assembled report.
    pub fn from_report(report: &TraceReport) -> Self {
        // Upload order: allocation time, falling back to open time
        // (streams assembled from partial captures may miss one end).
        let mut ordered: Vec<&crate::trace::BlockTimeline> = report.blocks.iter().collect();
        ordered.sort_by_key(|b| (b.allocated_us.or(b.opened_us).unwrap_or(u64::MAX), b.block.0));

        let spans: Vec<u64> = ordered
            .iter()
            .filter(|b| b.committed)
            .filter_map(|b| b.pipeline_span().map(|(o, c)| c - o))
            .collect();
        let mean_span = if spans.is_empty() {
            0.0
        } else {
            spans.iter().sum::<u64>() as f64 / spans.len() as f64
        };

        let blocks = ordered
            .iter()
            .enumerate()
            .map(|(index, b)| {
                let mut hop_residency: Vec<f64> = match b.pipeline_span() {
                    Some((open, close)) if close > open => b
                        .hops
                        .iter()
                        .map(|h| h.finished_us.saturating_sub(open) as f64 / (close - open) as f64)
                        .collect(),
                    _ => Vec::new(),
                };
                hop_residency.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                BlockDigest {
                    index,
                    bytes: b.hops.iter().map(|h| h.bytes).max().unwrap_or(0),
                    committed: b.committed,
                    targets: b.targets.len(),
                    recoveries: b.recoveries.len(),
                    hop_residency,
                    reads: b.reads.len(),
                    read_stripes: b.reads.iter().map(|r| r.stripes).sum(),
                    read_bytes: b.reads.iter().map(|r| r.bytes).sum(),
                }
            })
            .collect();

        // Per-client FNFA→next-allocation gaps recomputed from the
        // timelines (block k's FNFA consumed by block k+1's allocation),
        // normalized by the engine's own mean pipeline span.
        let mut fnfa_gap_ratios = Vec::new();
        if mean_span > 0.0 {
            let mut per_client: std::collections::BTreeMap<u64, Vec<&crate::trace::BlockTimeline>> =
                std::collections::BTreeMap::new();
            for b in &ordered {
                if let Some(c) = b.client {
                    per_client.entry(c.raw()).or_default().push(b);
                }
            }
            for tls in per_client.values() {
                for pair in tls.windows(2) {
                    if let (Some(fnfa), Some(alloc)) = (pair[0].fnfa_us, pair[1].allocated_us) {
                        if alloc >= fnfa {
                            fnfa_gap_ratios.push((alloc - fnfa) as f64 / mean_span);
                        }
                    }
                }
            }
        }

        TraceDigest {
            engine: if report.virtual_time { Engine::Sim } else { Engine::Emulator },
            blocks,
            fnfa_count: report.clients.iter().map(|c| c.fnfa_count).sum(),
            overlap_pairs: report.overlap_pairs(),
            max_concurrent: report
                .clients
                .iter()
                .map(|c| c.max_concurrent as u64)
                .max()
                .unwrap_or(0),
            mean_pipeline_span_us: mean_span,
            fnfa_gap_ratios,
        }
    }

    pub fn committed_blocks(&self) -> u64 {
        self.blocks.iter().filter(|b| b.committed).count() as u64
    }

    fn mean_gap_ratio(&self) -> f64 {
        if self.fnfa_gap_ratios.is_empty() {
            0.0
        } else {
            self.fnfa_gap_ratios.iter().sum::<f64>() / self.fnfa_gap_ratios.len() as f64
        }
    }
}

crate::json_struct!(impl Json for TraceDigest {
    "engine" => engine: Engine,
    "fnfa_count" => fnfa_count: u64,
    "overlap_pairs" => overlap_pairs: u64,
    "max_concurrent" => max_concurrent: u64,
    "mean_pipeline_span_us" => mean_pipeline_span_us: f64,
    "fnfa_gap_ratios" => fnfa_gap_ratios: Vec<f64>,
    "blocks" => blocks: Vec<BlockDigest>,
});

/// One compared quantity inside a [`DiffVerdict`].
#[derive(Debug, Clone)]
pub struct MetricDiff {
    pub name: &'static str,
    pub a: f64,
    pub b: f64,
    pub divergence: f64,
    pub tolerance: f64,
    pub pass: bool,
}

impl MetricDiff {
    fn counts(name: &'static str, a: u64, b: u64, abs: u64, frac: f64) -> Self {
        let tolerance = abs as f64 + frac * a.max(b) as f64;
        let divergence = a.abs_diff(b) as f64;
        MetricDiff {
            name,
            a: a as f64,
            b: b as f64,
            divergence,
            tolerance,
            pass: divergence <= tolerance,
        }
    }

    fn ratios(name: &'static str, a: f64, b: f64, tolerance: f64) -> Self {
        let divergence = (a - b).abs();
        MetricDiff {
            name,
            a,
            b,
            divergence,
            pass: divergence <= tolerance,
            tolerance,
        }
    }
}

crate::json_struct!(impl ToJson for MetricDiff {
    "name" => name: &'static str,
    "a" => a: f64,
    "b" => b: f64,
    "divergence" => divergence: f64,
    "tolerance" => tolerance: f64,
    "pass" => pass: bool,
});

/// The machine-readable outcome of one cross-engine diff.
#[derive(Debug, Clone)]
pub struct DiffVerdict {
    pub id: String,
    pub engine_a: Engine,
    pub engine_b: Engine,
    pub metrics: Vec<MetricDiff>,
    pub pass: bool,
}

impl DiffVerdict {
    pub fn failures(&self) -> Vec<&MetricDiff> {
        self.metrics.iter().filter(|m| !m.pass).collect()
    }

    /// Human-readable table, one metric per line.
    pub fn render(&self) -> String {
        let mut out = format!(
            "conformance {} ({} vs {}): {}\n",
            self.id,
            self.engine_a.name(),
            self.engine_b.name(),
            if self.pass { "PASS" } else { "FAIL" }
        );
        out.push_str(&format!(
            "  {:<22} {:>12} {:>12} {:>12} {:>12}  {}\n",
            "metric", "a", "b", "divergence", "tolerance", "verdict"
        ));
        for m in &self.metrics {
            out.push_str(&format!(
                "  {:<22} {:>12.4} {:>12.4} {:>12.4} {:>12.4}  {}\n",
                m.name,
                m.a,
                m.b,
                m.divergence,
                m.tolerance,
                if m.pass { "ok" } else { "FAIL" }
            ));
        }
        out
    }

    /// Writes `<dir>/<id>.diff.json`, creating `dir` if needed.
    pub fn save(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.diff.json", self.id));
        std::fs::write(&path, self.to_json().to_string_pretty() + "\n")?;
        Ok(path)
    }
}

crate::json_struct!(impl ToJson for DiffVerdict {
    "id" => id: String,
    "pass" => pass: bool,
    "engine_a" => engine_a: Engine,
    "engine_b" => engine_b: Engine,
    "metrics" => metrics: Vec<MetricDiff>,
});

/// Joins two digests block-by-block and scores every metric against its
/// band. Block pairing is positional (upload index); a payload-size
/// mismatch at any position is a structural failure, because it means
/// the engines did not run the same workload.
pub fn diff_digests(id: &str, a: &TraceDigest, b: &TraceDigest) -> DiffVerdict {
    let mut metrics = Vec::new();

    metrics.push(MetricDiff::counts(
        "committed_blocks",
        a.committed_blocks(),
        b.committed_blocks(),
        0,
        0.0,
    ));

    // Structural join: paired blocks must carry identical payloads.
    let paired: Vec<(&BlockDigest, &BlockDigest)> = a
        .blocks
        .iter()
        .filter(|x| x.committed)
        .zip(b.blocks.iter().filter(|x| x.committed))
        .collect();
    let size_mismatches = paired.iter().filter(|(x, y)| x.bytes != y.bytes).count() as u64;
    metrics.push(MetricDiff::counts(
        "block_size_mismatches",
        size_mismatches,
        0,
        0,
        0.0,
    ));

    // Read admission is structural too: both engines must stripe every
    // block the same way (same span count, same announced stripes, same
    // bytes delivered) for the workloads to count as the same.
    let read_mismatches = paired
        .iter()
        .filter(|(x, y)| {
            (x.reads, x.read_stripes, x.read_bytes) != (y.reads, y.read_stripes, y.read_bytes)
        })
        .count() as u64;
    metrics.push(MetricDiff::counts(
        "read_admission_mismatches",
        read_mismatches,
        0,
        0,
        0.0,
    ));

    metrics.push(MetricDiff::counts(
        "fnfa_count",
        a.fnfa_count,
        b.fnfa_count,
        FNFA_COUNT_ABS,
        0.0,
    ));
    metrics.push(MetricDiff::ratios(
        "fnfa_gap_ratio_mean",
        a.mean_gap_ratio(),
        b.mean_gap_ratio(),
        FNFA_GAP_RATIO,
    ));

    // Mean |Δ| of per-hop residency fractions over paired blocks,
    // hop-position-wise (each block's hops are sorted ascending).
    let (mut hop_diff_sum, mut hop_diff_n) = (0.0f64, 0usize);
    for (x, y) in &paired {
        for (rx, ry) in x.hop_residency.iter().zip(y.hop_residency.iter()) {
            hop_diff_sum += (rx - ry).abs();
            hop_diff_n += 1;
        }
    }
    let hop_divergence = if hop_diff_n > 0 {
        hop_diff_sum / hop_diff_n as f64
    } else {
        0.0
    };
    metrics.push(MetricDiff::ratios(
        "hop_residency",
        0.0,
        hop_divergence,
        HOP_RESIDENCY,
    ));

    metrics.push(MetricDiff::counts(
        "overlap_pairs",
        a.overlap_pairs,
        b.overlap_pairs,
        OVERLAP_ABS,
        OVERLAP_FRAC,
    ));
    metrics.push(MetricDiff::counts(
        "max_concurrent",
        a.max_concurrent,
        b.max_concurrent,
        MAX_CONCURRENT_ABS,
        0.0,
    ));

    let pass = metrics.iter().all(|m| m.pass);
    DiffVerdict {
        id: id.to_string(),
        engine_a: a.engine,
        engine_b: b.engine,
        metrics,
        pass,
    }
}

/// [`diff_digests`] over two assembled reports.
pub fn diff_reports(id: &str, a: &TraceReport, b: &TraceReport) -> DiffVerdict {
    diff_digests(
        id,
        &TraceDigest::from_report(a),
        &TraceDigest::from_report(b),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{BlockId, ClientId, DatanodeId};
    use crate::json::Json;
    use crate::obs::{EventRecord, ObsEvent};
    use crate::trace::TraceAssembler;

    fn rec(seq: u64, at_us: u64, virtual_time: bool, event: ObsEvent) -> EventRecord {
        EventRecord {
            seq,
            at_us,
            virtual_time,
            ctx: None,
            event,
        }
    }

    /// Two-block single-client stream with a scalable time base, so the
    /// "same protocol, different clock" situation is easy to fabricate.
    fn stream(scale: u64, virt: bool, gap_us: u64) -> Vec<EventRecord> {
        let c = ClientId(1);
        let (b1, b2) = (BlockId(100 + scale), BlockId(200 + scale));
        let dns = vec![DatanodeId(1), DatanodeId(2), DatanodeId(3)];
        let mut seq = 0;
        let mut r = |at: u64, ev: ObsEvent| {
            seq += 1;
            rec(seq, at, virt, ev)
        };
        vec![
            r(10 * scale, ObsEvent::BlockAllocated { client: c, block: b1, targets: dns.clone() }),
            r(20 * scale, ObsEvent::PipelineOpened { block: b1, targets: dns.clone() }),
            r(60 * scale, ObsEvent::BlockReceived { datanode: DatanodeId(1), block: b1, bytes: 4096 }),
            r(60 * scale, ObsEvent::FnfaReceived { block: b1, first_node: DatanodeId(1) }),
            r(60 * scale + gap_us, ObsEvent::BlockAllocated { client: c, block: b2, targets: dns.clone() }),
            r(62 * scale + gap_us, ObsEvent::PipelineOpened { block: b2, targets: dns.clone() }),
            r(90 * scale, ObsEvent::BlockReceived { datanode: DatanodeId(2), block: b1, bytes: 4096 }),
            r(100 * scale, ObsEvent::BlockReceived { datanode: DatanodeId(3), block: b1, bytes: 4096 }),
            r(120 * scale, ObsEvent::PipelineClosed { block: b1, committed: true }),
            r(130 * scale, ObsEvent::BlockReceived { datanode: DatanodeId(2), block: b2, bytes: 4096 }),
            r(150 * scale, ObsEvent::PipelineClosed { block: b2, committed: true }),
        ]
    }

    #[test]
    fn digest_is_dimensionless() {
        // Identical protocol behaviour on clocks 100x apart digests to
        // (nearly) the same numbers.
        let fast = TraceDigest::from_report(&TraceAssembler::assemble(&stream(1, true, 0)));
        let slow = TraceDigest::from_report(&TraceAssembler::assemble(&stream(100, false, 0)));
        assert_eq!(fast.engine, Engine::Sim);
        assert_eq!(slow.engine, Engine::Emulator);
        assert_eq!(fast.committed_blocks(), slow.committed_blocks());
        assert_eq!(fast.overlap_pairs, slow.overlap_pairs);
        assert!(fast.mean_pipeline_span_us < slow.mean_pipeline_span_us);
        for (x, y) in fast.blocks.iter().zip(slow.blocks.iter()) {
            assert_eq!(x.bytes, y.bytes);
            for (rx, ry) in x.hop_residency.iter().zip(y.hop_residency.iter()) {
                assert!((rx - ry).abs() < 0.01, "residency {rx} vs {ry}");
            }
        }
        let verdict = diff_digests("scale", &fast, &slow);
        assert!(verdict.pass, "{}", verdict.render());
    }

    #[test]
    fn diff_fails_on_structural_divergence() {
        let a = TraceDigest::from_report(&TraceAssembler::assemble(&stream(1, true, 0)));
        // Same stream minus the second block's close: one fewer
        // committed block — a structural failure no band absorbs.
        let mut events = stream(1, false, 0);
        events.retain(
            |r| !matches!(&r.event, ObsEvent::PipelineClosed { block, .. } if block.0 == 201),
        );
        let b = TraceDigest::from_report(&TraceAssembler::assemble(&events));
        let verdict = diff_digests("structural", &a, &b);
        assert!(!verdict.pass);
        assert!(verdict.failures().iter().any(|m| m.name == "committed_blocks"));
    }

    #[test]
    fn diff_fails_on_payload_mismatch() {
        let a = TraceDigest::from_report(&TraceAssembler::assemble(&stream(1, true, 0)));
        let mut events = stream(1, false, 0);
        for r in &mut events {
            if let ObsEvent::BlockReceived { bytes, .. } = &mut r.event {
                *bytes *= 2;
            }
        }
        let b = TraceDigest::from_report(&TraceAssembler::assemble(&events));
        let verdict = diff_digests("payload", &a, &b);
        assert!(!verdict.pass);
        assert!(verdict
            .failures()
            .iter()
            .any(|m| m.name == "block_size_mismatches"));
    }

    /// Appends a clean 2-stripe read-back of `block` to an event stream.
    fn append_read(events: &mut Vec<EventRecord>, block: BlockId, virt: bool) {
        let seq0 = events.iter().map(|r| r.seq).max().unwrap_or(0);
        let at0 = events.iter().map(|r| r.at_us).max().unwrap_or(0);
        let (d1, d2) = (DatanodeId(1), DatanodeId(2));
        events.push(rec(
            seq0 + 1,
            at0 + 10,
            virt,
            ObsEvent::ReadStarted {
                client: ClientId(1),
                block,
                sources: vec![d1, d2],
                stripes: 2,
            },
        ));
        events.push(rec(
            seq0 + 2,
            at0 + 20,
            virt,
            ObsEvent::StripeFetched { block, source: d1, offset: 0, bytes: 2048 },
        ));
        events.push(rec(
            seq0 + 3,
            at0 + 25,
            virt,
            ObsEvent::StripeFetched { block, source: d2, offset: 2048, bytes: 2048 },
        ));
    }

    #[test]
    fn read_admission_divergence_is_structural() {
        // Both engines write the same two blocks; only engine A reads
        // the first one back. That is a structural failure no band can
        // absorb — and once B reads it identically, the diff passes
        // with the read columns matched exactly.
        let mut a_events = stream(1, true, 0);
        append_read(&mut a_events, BlockId(101), true);
        let a = TraceDigest::from_report(&TraceAssembler::assemble(&a_events));
        assert_eq!(a.blocks[0].reads, 1);
        assert_eq!(a.blocks[0].read_stripes, 2);
        assert_eq!(a.blocks[0].read_bytes, 4096);

        let b_events = stream(1, false, 0);
        let b = TraceDigest::from_report(&TraceAssembler::assemble(&b_events));
        let verdict = diff_digests("read-miss", &a, &b);
        assert!(!verdict.pass);
        assert!(verdict
            .failures()
            .iter()
            .any(|m| m.name == "read_admission_mismatches"));

        let mut b_events = stream(1, false, 0);
        append_read(&mut b_events, BlockId(101), false);
        let b = TraceDigest::from_report(&TraceAssembler::assemble(&b_events));
        let verdict = diff_digests("read-match", &a, &b);
        assert!(verdict.pass, "{}", verdict.render());
    }

    #[test]
    fn digest_round_trips_through_json() {
        let d = TraceDigest::from_report(&TraceAssembler::assemble(&stream(3, true, 5)));
        let back = TraceDigest::from_json(&crate::json::parse(&d.to_json().to_string_pretty()).unwrap())
            .unwrap();
        assert_eq!(d, back);
        // A digest diffed against its own round trip is exact.
        let verdict = diff_digests("roundtrip", &d, &back);
        assert!(verdict.pass);
        assert!(verdict.metrics.iter().all(|m| m.divergence == 0.0));
    }

    #[test]
    fn verdict_json_is_machine_readable() {
        let a = TraceDigest::from_report(&TraceAssembler::assemble(&stream(1, true, 0)));
        let b = TraceDigest::from_report(&TraceAssembler::assemble(&stream(7, false, 12)));
        let verdict = diff_digests("json", &a, &b);
        let v = crate::json::parse(&verdict.to_json().to_string_pretty()).unwrap();
        assert_eq!(v.get("id").as_str(), Some("json"));
        assert_eq!(v.get("pass").as_bool(), Some(verdict.pass));
        let metrics = v.get("metrics").as_array().unwrap();
        assert_eq!(metrics.len(), verdict.metrics.len());
        for m in metrics {
            assert!(m.get("name").as_str().is_some());
            assert!(m.get("divergence").as_f64().is_some());
            assert!(m.get("pass").as_bool().is_some());
        }
        assert!(metrics.iter().all(|m| m.get("tolerance").as_f64().is_some()));
    }
}
