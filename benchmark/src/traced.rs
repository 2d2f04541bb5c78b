//! The traced pass's numbers: block lifecycles rebuilt by the program's
//! own `TraceAssembler` from the event stream a `RingBufferSink` kept,
//! joined with the harness spans recorded around every call.

use crate::metrics::Values;
use crate::spans::{durations_us, Span};
use crate::stats::{median, percentile};
use smarth_core::ids::ClientId;
use smarth_core::obs::Metrics;
use smarth_core::trace::{BlockTimeline, TraceReport};

/// The harness span of a put whose blocks the gap accounting follows:
/// a SMARTH put of the put phase, nothing running beside it.
const PUT_SPAN: &str = "client.put";

fn ms(us: &[f64], p: Option<f64>) -> f64 {
    p.map_or_else(|| median(us), |p| percentile(us, p)) / 1e3
}

/// When the first datanode of the pipeline held the whole block: the
/// earliest `BlockReceived`. From then on the client has nothing left
/// to stream into this block.
fn first_hop_done(b: &BlockTimeline) -> Option<u64> {
    b.hops.iter().map(|h| h.finished_us).min()
}

/// Consecutive blocks `(a, b)` of one put: same client, allocated one
/// after the other inside one put span of that client's load thread.
/// `writers[lane]` is the client that lane writes with; a stream in
/// virtual time shares no clock with the spans, so there every
/// consecutive pair of a client counts (one simulated upload is one
/// put).
fn put_pairs<'a>(
    report: &'a TraceReport,
    spans: &[Span],
    writers: &[ClientId],
) -> Vec<(&'a BlockTimeline, &'a BlockTimeline)> {
    let mut by_client: Vec<&BlockTimeline> = report
        .blocks
        .iter()
        .filter(|b| b.client.is_some() && b.allocated_us.is_some() && b.opened_us.is_some())
        .collect();
    by_client.sort_by_key(|b| (b.client, b.allocated_us));
    let same_put = |a: &BlockTimeline, b: &BlockTimeline| {
        if report.virtual_time {
            return true;
        }
        let (t0, t1) = (a.allocated_us.unwrap_or(0), b.allocated_us.unwrap_or(0));
        spans.iter().any(|s| {
            s.name == PUT_SPAN
                && writers.get(s.lane as usize).copied() == a.client
                && s.start_us <= t0
                && t1 <= s.end_us
        })
    };
    by_client
        .windows(2)
        .filter(|w| w[0].client == w[1].client && same_put(w[0], w[1]))
        .map(|w| (w[0], w[1]))
        .collect()
}

pub fn derive(
    report: &TraceReport,
    spans: &[Span],
    writers: &[ClientId],
    registry: &Metrics,
    v: &mut Values,
) {
    let written: Vec<&BlockTimeline> = report
        .blocks
        .iter()
        .filter(|b| b.opened_us.is_some())
        .collect();
    let diffs = |pick: &dyn Fn(&BlockTimeline) -> Option<(u64, u64)>| -> Vec<f64> {
        written
            .iter()
            .filter_map(|b| pick(b))
            .map(|(from, to)| to.saturating_sub(from) as f64)
            .collect()
    };
    let to_fnfa = diffs(&|b| Some((b.opened_us?, b.fnfa_us?)));
    let to_full_ack = diffs(&|b| Some((b.opened_us?, b.closed_us?)));
    let alloc_to_open = diffs(&|b| Some((b.allocated_us?, b.opened_us?)));
    v.set("client.ostream.time_to_fnfa_p50_ms", ms(&to_fnfa, None));
    v.set(
        "client.ostream.time_to_full_ack_p50_ms",
        ms(&to_full_ack, None),
    );
    v.set(
        "client.ostream.alloc_to_open_p50_us",
        median(&alloc_to_open),
    );

    let pairs = put_pairs(report, spans, writers);
    let fnfa_to_alloc: Vec<f64> = pairs
        .iter()
        .filter_map(|(a, b)| Some((a.fnfa_us?, b.allocated_us?)))
        .filter(|(fnfa, alloc)| fnfa <= alloc)
        .map(|(fnfa, alloc)| (alloc - fnfa) as f64)
        .collect();
    v.set(
        "client.ostream.fnfa_to_alloc_p50_us",
        median(&fnfa_to_alloc),
    );
    v.set(
        "client.ostream.fnfa_to_alloc_p99_us",
        percentile(&fnfa_to_alloc, 0.99),
    );
    // The inter-block gap: from the first datanode holding all of block
    // k to the pipeline of block k+1 standing. The client streams
    // nothing in between, whatever the other replicas still do.
    let gaps: Vec<f64> = pairs
        .iter()
        .filter_map(|(a, b)| Some((first_hop_done(a)?, b.opened_us?)))
        .map(|(done, open)| open.saturating_sub(done) as f64)
        .collect();
    v.set("client.ostream.interblock_gap_p50_us", median(&gaps));
    let put_wall_us: f64 = if report.virtual_time {
        // One simulated upload: first allocation to last close.
        let start = written.iter().filter_map(|b| b.allocated_us).min();
        let end = written.iter().filter_map(|b| b.closed_us).max();
        start
            .zip(end)
            .map_or(0.0, |(s, e)| e.saturating_sub(s) as f64)
    } else {
        spans
            .iter()
            .filter(|s| s.name == PUT_SPAN)
            .map(|s| s.duration_us() as f64)
            .sum()
    };
    if put_wall_us > 0.0 {
        v.set(
            "client.ostream.gap_share_pct",
            gaps.iter().sum::<f64>() / put_wall_us * 100.0,
        );
    }
    v.set(
        "client.ostream.max_concurrent_pipelines",
        report
            .clients
            .iter()
            .map(|c| c.max_concurrent)
            .max()
            .unwrap_or(0) as f64,
    );
    v.set(
        "client.ostream.overlap_pairs",
        report.overlap_pairs() as f64,
    );
    v.set(
        "client.ostream.recoveries",
        written.iter().map(|b| b.recoveries.len()).sum::<usize>() as f64,
    );
    if !written.is_empty() {
        v.set(
            "client.pipeline.ack_batches_per_block",
            written.iter().map(|b| b.ack_batches).sum::<u64>() as f64 / written.len() as f64,
        );
    }

    let reads: Vec<f64> = report
        .blocks
        .iter()
        .flat_map(|b| &b.reads)
        .filter_map(|r| Some(r.last_stripe_us?.saturating_sub(r.start_us) as f64))
        .collect();
    v.set("client.istream.block_read_p50_ms", ms(&reads, None));
    v.set(
        "client.istream.inflight_stripes_high_water",
        registry.client_read_inflight_stripes.high_water() as f64,
    );
    v.set(
        "client.istream.source_switches",
        report
            .blocks
            .iter()
            .flat_map(|b| &b.reads)
            .map(|r| r.source_switches)
            .sum::<u64>() as f64,
    );

    // Hop k is the k-th datanode to hold the whole block.
    let mut residency: [Vec<f64>; 3] = Default::default();
    for b in &written {
        let mut hops: Vec<u64> = b.hop_residency_us().into_iter().map(|(_, us)| us).collect();
        hops.sort_unstable();
        for (slot, us) in residency.iter_mut().zip(hops) {
            slot.push(us as f64);
        }
    }
    for (k, samples) in residency.iter().enumerate() {
        v.set(
            &format!("datanode.server.hop{k}_residency_p50_ms"),
            ms(samples, None),
        );
    }
    v.set(
        "datanode.server.staging_high_water_packets",
        registry.datanode_staging_packets.high_water() as f64,
    );
    v.set(
        "datanode.server.buffered_high_water_bytes",
        registry.datanode_buffered_bytes.high_water() as f64,
    );
    v.set(
        "datanode.server.forward_high_water_bytes",
        registry.datanode_forward_bytes.high_water() as f64,
    );

    let stat = durations_us(spans, "client.file_info");
    v.set("client.rpc.stat_p50_us", median(&stat));
    v.set("client.rpc.stat_p99_us", percentile(&stat, 0.99));
    let put = durations_us(spans, "client.put");
    v.set("client.client.put_p50_ms", ms(&put, None));
    v.set("client.client.put_p99_ms", ms(&put, Some(0.99)));
    v.set("client.client.put_p999_ms", ms(&put, Some(0.999)));
    v.set(
        "client.client.hdfs_put_p50_ms",
        ms(&durations_us(spans, "client.put_hdfs"), None),
    );
    let get = durations_us(spans, "client.get");
    v.set("client.client.get_p50_ms", ms(&get, None));
    v.set("client.client.get_p99_ms", ms(&get, Some(0.99)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarth_core::ids::{BlockId, DatanodeId};
    use smarth_core::obs::{EventRecord, ObsEvent};
    use smarth_core::trace::TraceAssembler;

    fn record(seq: u64, at_us: u64, event: ObsEvent) -> EventRecord {
        EventRecord {
            seq,
            at_us,
            virtual_time: false,
            ctx: None,
            event,
        }
    }

    /// Two blocks of one put by client 1 on lane 0, one block of another
    /// put; the gap and FNFA-to-allocation numbers must come from the
    /// first pair only.
    #[test]
    fn gaps_are_taken_between_consecutive_blocks_of_one_put() {
        let dn = |i| DatanodeId(i);
        let block = |id: u64, t0: u64| {
            let b = BlockId(id);
            vec![
                (
                    t0,
                    ObsEvent::BlockAllocated {
                        client: ClientId(1),
                        block: b,
                        targets: vec![dn(0), dn(1)],
                    },
                ),
                (
                    t0 + 100,
                    ObsEvent::PipelineOpened {
                        block: b,
                        targets: vec![dn(0), dn(1)],
                    },
                ),
                (
                    t0 + 1_000,
                    ObsEvent::BlockReceived {
                        datanode: dn(0),
                        block: b,
                        bytes: 10,
                    },
                ),
                (
                    t0 + 1_100,
                    ObsEvent::FnfaReceived {
                        block: b,
                        first_node: dn(0),
                    },
                ),
                (
                    t0 + 1_500,
                    ObsEvent::BlockReceived {
                        datanode: dn(1),
                        block: b,
                        bytes: 10,
                    },
                ),
                (
                    t0 + 1_600,
                    ObsEvent::PipelineClosed {
                        block: b,
                        committed: true,
                    },
                ),
            ]
        };
        let events: Vec<EventRecord> = [block(1, 1_000), block(2, 2_300), block(3, 10_000)]
            .concat()
            .into_iter()
            .enumerate()
            .map(|(i, (t, e))| record(i as u64, t, e))
            .collect();
        let report = TraceAssembler::assemble(&events);
        let span = |id, name, start_us, end_us| Span {
            id,
            parent: 0,
            op: u64::from(id),
            name,
            start_us,
            end_us,
            lane: 0,
        };
        let spans = vec![
            span(1, "client.put", 900, 4_000),
            span(2, "client.put", 9_900, 11_700),
        ];
        let mut v = Values::default();
        derive(&report, &spans, &[ClientId(1)], &Metrics::default(), &mut v);
        // Block 1's first hop is done at 2_000, block 2 opens at 2_400.
        assert_eq!(v.get("client.ostream.interblock_gap_p50_us"), Some(400.0));
        // FNFA of block 1 at 2_100, allocation of block 2 at 2_300.
        assert_eq!(v.get("client.ostream.fnfa_to_alloc_p50_us"), Some(200.0));
        assert_eq!(
            v.get("client.ostream.gap_share_pct"),
            Some(400.0 / 4_900.0 * 100.0)
        );
        assert_eq!(v.get("client.ostream.alloc_to_open_p50_us"), Some(100.0));
        assert_eq!(v.get("client.ostream.time_to_full_ack_p50_ms"), Some(1.5));
        assert_eq!(v.get("datanode.server.hop0_residency_p50_ms"), Some(0.9));
        assert_eq!(v.get("datanode.server.hop1_residency_p50_ms"), Some(1.4));
        assert_eq!(v.get("client.client.put_p50_ms"), Some(2.45));
        // A lane that writes with another client owns none of these blocks.
        let mut other = Values::default();
        derive(
            &report,
            &spans,
            &[ClientId(9)],
            &Metrics::default(),
            &mut other,
        );
        assert_eq!(other.get("client.ostream.interblock_gap_p50_us"), Some(0.0));
    }
}
