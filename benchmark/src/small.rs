//! `small_files`: per-file fixed cost. One 4 KiB put is three namenode
//! RPCs, a shard lock, a pipeline set-up and a single packet; the data
//! plane does almost nothing. Two client threads on distinct volumes
//! use the namenode and RPC layers concurrently, where the bulk
//! workloads use them serially.
//!
//! One round, phases separated by a barrier: each thread puts
//! `PUTS_SMARTH` files, puts `PUTS_HDFS` files, reads its SMARTH files
//! back, then thread 0 writes `MIXED` files while thread 1 reads
//! `MIXED` prefilled ones, then each thread stats, lists and deletes
//! what it wrote.

use crate::cluster::{Cluster, Shape};
use crate::gen::Gen;
use crate::spans::{Ctx, Tracer};
use crate::stats::{median, percentile};
use crate::workload::{eventually, timed, OperatingPoint, RoundOut, Tally, Workload, GIB, MIB};
use smarth_client::DfsClient;
use smarth_core::config::WriteMode;
use smarth_core::error::DfsResult;
use smarth_core::ids::{BlockId, ClientId};
use smarth_core::obs::Obs;
use std::collections::HashSet;
use std::sync::Barrier;
use std::time::Instant;

const THREADS: usize = 2;
const FILE_BYTES: usize = 4 * 1024;
const PREFILL_PER_VOLUME: usize = 150;
const PUTS_SMARTH: usize = 120;
const PUTS_HDFS: usize = 40;
const MIXED: usize = 40;
/// Distinct file contents; a file's content is picked by the seed.
const CONTENTS: usize = 32;

struct Lane {
    client: DfsClient,
    volume: String,
    /// `(path, content index)` of the files set-up left in the volume.
    prefill: Vec<(String, usize)>,
    names: Gen,
    order: Gen,
}

pub struct SmallFiles {
    cluster: Cluster,
    lanes: Vec<Lane>,
    contents: Vec<Vec<u8>>,
    keep: HashSet<BlockId>,
    cluster_start_s: f64,
}

/// What one thread measured in one round.
#[derive(Default)]
struct LaneOut {
    tally: Tally,
    /// Seconds per phase, each from the barrier that opened it.
    phase_s: [f64; 5],
    smarth_put_ms: Vec<f64>,
    meta_ops: u64,
}

const PUT_SMARTH: usize = 0;
const PUT_HDFS: usize = 1;
const GET: usize = 2;
const MIXED_PHASE: usize = 3;
const META: usize = 4;

impl SmallFiles {
    pub fn set_up(seed: u64, obs: Obs) -> DfsResult<Self> {
        let (cluster, cluster_start_s) = timed(|| Cluster::start(Shape::Shaped, seed, obs));
        let cluster = cluster?;
        let mut content_gen = Gen::new(seed, 1);
        let contents: Vec<Vec<u8>> = (0..CONTENTS)
            .map(|_| content_gen.bytes(FILE_BYTES))
            .collect();
        let mut lanes = Vec::new();
        for t in 0..THREADS {
            lanes.push(Lane {
                client: cluster.client()?,
                volume: format!("/v{t}"),
                prefill: Vec::new(),
                names: Gen::new(seed, 10 + t as u64),
                order: Gen::new(seed, 20 + t as u64),
            });
        }
        let contents_ref = &contents;
        std::thread::scope(|s| {
            let workers: Vec<_> = lanes
                .iter_mut()
                .map(|lane| {
                    s.spawn(move || -> DfsResult<()> {
                        for _ in 0..PREFILL_PER_VOLUME {
                            let path = lane.names.name(&format!("{}/p", lane.volume));
                            let c = lane.order.pick(CONTENTS);
                            lane.client
                                .put(&path, &contents_ref[c], WriteMode::Smarth)?;
                            lane.prefill.push((path, c));
                        }
                        lane.client.flush_speed_report()
                    })
                })
                .collect();
            workers
                .into_iter()
                .try_for_each(|w| w.join().expect("prefill thread panicked"))
        })?;
        let mut keep = HashSet::new();
        for lane in &lanes {
            for (path, _) in &lane.prefill {
                keep.extend(
                    lane.client
                        .open(path)?
                        .block_layout()
                        .iter()
                        .map(|b| b.block.id),
                );
            }
        }
        Ok(SmallFiles {
            cluster,
            lanes,
            contents,
            keep,
            cluster_start_s,
        })
    }
}

/// Everything one thread does in one round.
fn lane_round(
    t: usize,
    lane: &mut Lane,
    contents: &[Vec<u8>],
    cluster: &Cluster,
    barrier: &Barrier,
    tracer: &Tracer,
    round: Ctx,
) -> LaneOut {
    let Lane {
        client,
        volume,
        prefill,
        names,
        order,
    } = lane;
    let client = &*client;
    let ctx = round.on_lane(t as u32);
    let mut out = LaneOut::default();
    let mut written: Vec<(String, usize)> = Vec::new();
    let mut new_files = |n: usize, tag: &str| -> Vec<(String, usize)> {
        (0..n)
            .map(|_| (names.name(&format!("{volume}/{tag}")), order.pick(CONTENTS)))
            .collect()
    };
    let smarth_files = new_files(PUTS_SMARTH, "s");
    let hdfs_files = new_files(PUTS_HDFS, "h");
    let mixed_files = new_files(MIXED, "m");
    let mixed_reads: Vec<usize> = order.order(prefill.len())[..MIXED].to_vec();
    let read_back = order.order(PUTS_SMARTH);

    let put_all = |files: &[(String, usize)],
                   mode: WriteMode,
                   op: &'static str,
                   phase: Ctx,
                   out: &mut LaneOut| {
        for (path, c) in files {
            let started = Instant::now();
            let report = tracer.op(op, phase, || client.put(path, &contents[*c], mode));
            if op == "client.put" {
                out.smarth_put_ms
                    .push(started.elapsed().as_secs_f64() * 1e3);
            }
            out.tally
                .check(report.is_ok_and(|r| r.bytes == FILE_BYTES as u64));
        }
    };
    let get_all =
        |files: &mut dyn Iterator<Item = &(String, usize)>, phase: Ctx, out: &mut LaneOut| {
            for (path, c) in files {
                let data = tracer.op("client.get", phase, || client.get(path));
                out.tally.check(data.is_ok_and(|d| d == contents[*c]));
            }
        };

    barrier.wait();
    ((), out.phase_s[PUT_SMARTH]) = timed(|| {
        tracer.span("phase.put_smarth", ctx, |p| {
            put_all(&smarth_files, WriteMode::Smarth, "client.put", p, &mut out)
        })
    });
    barrier.wait();
    ((), out.phase_s[PUT_HDFS]) = timed(|| {
        tracer.span("phase.put_hdfs", ctx, |p| {
            put_all(&hdfs_files, WriteMode::Hdfs, "client.put_hdfs", p, &mut out)
        })
    });
    barrier.wait();
    ((), out.phase_s[GET]) = timed(|| {
        tracer.span("phase.get", ctx, |p| {
            get_all(
                &mut read_back.iter().map(|&i| &smarth_files[i]),
                p,
                &mut out,
            )
        })
    });
    written.extend(smarth_files);
    written.extend(hdfs_files);

    // Untimed: after full ack the one block of a sampled file is on
    // `replication` datanodes.
    let sample = &written[order.pick(written.len())].0;
    let replication = cluster.config().replication;
    let replicated = client.open(sample).is_ok_and(|f| {
        f.block_layout().first().is_some_and(|b| {
            eventually(|| cluster.namenode_state().replica_count(b.block.id) == replication)
        })
    });
    out.tally.check(replicated);

    barrier.wait();
    ((), out.phase_s[MIXED_PHASE]) = timed(|| {
        tracer.span("phase.mixed", ctx, |p| {
            if t == 0 {
                // Not `client.put`: the traced pass reads per-file put
                // latency from the uncontended put phase only.
                put_all(
                    &mixed_files,
                    WriteMode::Smarth,
                    "client.put_mixed",
                    p,
                    &mut out,
                );
            } else {
                get_all(&mut mixed_reads.iter().map(|&i| &prefill[i]), p, &mut out);
            }
        })
    });
    if t == 0 {
        written.extend(mixed_files);
    }

    barrier.wait();
    ((), out.phase_s[META]) = timed(|| {
        tracer.span("phase.meta", ctx, |p| {
            for (path, _) in &written {
                let st = tracer.op("client.file_info", p, || client.file_info(path));
                out.tally
                    .check(matches!(st, Ok(Some(s)) if s.len == FILE_BYTES as u64 && s.complete));
            }
            let listing = tracer.op("client.list", p, || client.list(volume));
            out.tally
                .check(listing.is_ok_and(|l| l.len() == prefill.len() + written.len()));
            for (path, _) in &written {
                let gone = tracer.op("client.delete", p, || client.delete(path));
                out.tally.check(matches!(gone, Ok(true)));
            }
        })
    });
    out.meta_ops = 2 * written.len() as u64 + 1;
    out
}

impl Workload for SmallFiles {
    fn round(&mut self, _index: usize, tracer: &Tracer) -> RoundOut {
        let SmallFiles {
            cluster,
            lanes,
            contents,
            keep,
            ..
        } = self;
        let (cluster, contents) = (&*cluster, &*contents);
        let barrier = Barrier::new(THREADS);
        let outs: Vec<LaneOut> = tracer.span("round", Ctx::default(), |round| {
            std::thread::scope(|s| {
                let workers: Vec<_> = lanes
                    .iter_mut()
                    .enumerate()
                    .map(|(t, lane)| {
                        let barrier = &barrier;
                        s.spawn(move || {
                            lane_round(t, lane, contents, cluster, barrier, tracer, round)
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("load thread panicked"))
                    .collect()
            })
        });
        cluster.purge_replicas(keep);

        // Both threads leave a barrier together, so a phase lasts as
        // long as its slower thread.
        let wall = |phase: usize| outs.iter().map(|o| o.phase_s[phase]).fold(0.0, f64::max);
        let mut tally = Tally::default();
        outs.iter().for_each(|o| tally.add(o.tally));
        let put_ms: Vec<f64> = outs
            .iter()
            .flat_map(|o| o.smarth_put_ms.iter().copied())
            .collect();
        let file_mib = FILE_BYTES as f64 / MIB;
        let threads = THREADS as f64;
        let put_smarth = threads * PUTS_SMARTH as f64 / wall(PUT_SMARTH);
        let put_hdfs = threads * PUTS_HDFS as f64 / wall(PUT_HDFS);
        let gets = threads * PUTS_SMARTH as f64 / wall(GET);
        let meta_ops: u64 = outs.iter().map(|o| o.meta_ops).sum();
        let files_moved = THREADS * (2 * PUTS_SMARTH + PUTS_HDFS) + 2 * MIXED;
        let payload_bytes = (files_moved * FILE_BYTES) as u64;
        let timed_s: f64 = (0..5).map(wall).sum();
        RoundOut {
            values: vec![
                ("put_smarth_mibps", put_smarth * file_mib),
                ("put_hdfs_mibps", put_hdfs * file_mib),
                ("smarth_over_hdfs", put_smarth / put_hdfs),
                ("get_mibps", gets * file_mib),
                (
                    "mixed_mibps",
                    2.0 * MIXED as f64 * file_mib / wall(MIXED_PHASE),
                ),
                ("put_files_per_s", put_smarth),
                ("get_files_per_s", gets),
                ("meta_ops_per_s", meta_ops as f64 / wall(META)),
                ("put_p50_ms", median(&put_ms)),
                ("put_p99_ms", percentile(&put_ms, 0.99)),
                ("sim_gib_per_wall_s", payload_bytes as f64 / GIB / timed_s),
            ],
            tally,
            payload_bytes,
            layer_values: Vec::new(),
            model_measured: None,
            traced_written_bytes: ((THREADS * (PUTS_SMARTH + PUTS_HDFS) + MIXED) * FILE_BYTES)
                as u64,
            smarth_put_s: wall(PUT_SMARTH),
        }
    }

    fn operating_point(&self) -> OperatingPoint {
        OperatingPoint {
            config: self.cluster.config().clone(),
            datanodes: Shape::Shaped.datanodes(),
            link_latency: Shape::Shaped.link_latency(),
        }
    }

    fn cluster_start_s(&self) -> f64 {
        self.cluster_start_s
    }

    fn writer_clients(&self) -> Vec<ClientId> {
        self.lanes.iter().map(|l| l.client.id()).collect()
    }

    fn predicted_mibps(&self) -> Option<(f64, f64)> {
        // A one-packet file is all fixed cost; Formulas 1–3 model the
        // streaming of many packets and say nothing useful about it.
        None
    }

    fn shutdown(self: Box<Self>) -> f64 {
        let SmallFiles { cluster, lanes, .. } = *self;
        drop(lanes);
        cluster.purge_replicas(&HashSet::new());
        timed(|| cluster.shutdown()).1
    }
}
