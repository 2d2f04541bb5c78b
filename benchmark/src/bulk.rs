//! `shaped_bulk` and `unshaped_bulk`: the same calls on opposite
//! bottlenecks. On the shaped cluster token buckets bound the bytes, so
//! what separates a put from line rate is per-block protocol cost; on
//! the unshaped cluster no bucket ever waits, so throughput is per-byte
//! software cost.
//!
//! One round: `files` puts in each protocol (order alternating by
//! round), `files` striped gets of the corpus file, one writer beside
//! one reader, then verification and clean-up through `file_info`,
//! `list` and `delete`.

use crate::cluster::{Cluster, Shape};
use crate::gen::Gen;
use crate::spans::{Ctx, Tracer};
use crate::stats::{median, percentile};
use crate::workload::{eventually, timed, OperatingPoint, RoundOut, Tally, Workload, GIB, MIB};
use smarth_client::DfsClient;
use smarth_core::config::WriteMode;
use smarth_core::costmodel::{hdfs_upload_time, smarth_upload_time, CostInputs};
use smarth_core::error::DfsResult;
use smarth_core::ids::{BlockId, ClientId};
use smarth_core::obs::Obs;
use smarth_core::units::{Bandwidth, ByteSize};
use std::collections::HashSet;
use std::sync::Barrier;
use std::time::Instant;

const CORPUS_PATH: &str = "/corpus/file";
const DIR: &str = "/bulk";
/// `file_info` calls per written file in the clean-up: a bulk round
/// writes only 5 or 7 files, and the traced pass wants more than that
/// many stat latencies.
const STATS_PER_FILE: usize = 16;

impl Shape {
    /// `(files per put phase, bytes per file)`.
    fn bulk_sizes(self) -> (usize, usize) {
        match self {
            Shape::Shaped => (3, 8 << 20),
            Shape::Unshaped => (2, 32 << 20),
        }
    }
}

pub struct Bulk {
    shape: Shape,
    cluster: Cluster,
    writer: DfsClient,
    reader: DfsClient,
    corpus: Vec<u8>,
    /// Blocks of the corpus file: the replicas a purge must keep.
    keep: HashSet<BlockId>,
    files: Vec<Vec<u8>>,
    names: Gen,
    order: Gen,
    cluster_start_s: f64,
}

impl Bulk {
    pub fn set_up(shape: Shape, seed: u64, obs: Obs) -> DfsResult<Self> {
        let (cluster, cluster_start_s) = timed(|| Cluster::start(shape, seed, obs));
        let cluster = cluster?;
        let writer = cluster.client()?;
        let reader = cluster.client()?;
        let (count, size) = shape.bulk_sizes();
        let mut contents = Gen::new(seed, 1);
        let files = (0..count).map(|_| contents.bytes(size)).collect();
        let corpus = contents.bytes(size);
        writer.put(CORPUS_PATH, &corpus, WriteMode::Smarth)?;
        // Speed records reach the namenode now, not at some heartbeat
        // inside a measured round.
        writer.flush_speed_report()?;
        let keep = writer
            .open(CORPUS_PATH)?
            .block_layout()
            .iter()
            .map(|b| b.block.id)
            .collect();
        Ok(Bulk {
            shape,
            cluster,
            writer,
            reader,
            corpus,
            keep,
            files,
            names: Gen::new(seed, 2),
            order: Gen::new(seed, 3),
            cluster_start_s,
        })
    }
}

impl Workload for Bulk {
    fn round(&mut self, index: usize, tracer: &Tracer) -> RoundOut {
        let Bulk {
            cluster,
            writer,
            reader,
            corpus,
            keep,
            files,
            names,
            order,
            ..
        } = self;
        let (writer, reader, corpus) = (&*writer, &*reader, &*corpus);
        let replication = cluster.config().replication;
        let count = files.len();
        let size = files[0].len();
        let mut tally = Tally::default();
        let mut written: Vec<String> = Vec::new();
        let mut put_wall = [0.0f64; 2];
        let mut smarth_put_ms: Vec<f64> = Vec::new();
        let (mut get_wall, mut mixed_wall, mut meta_wall) = (0.0, 0.0, 0.0);

        tracer.span("round", Ctx::default(), |round| {
            let modes = if index.is_multiple_of(2) {
                [WriteMode::Smarth, WriteMode::Hdfs]
            } else {
                [WriteMode::Hdfs, WriteMode::Smarth]
            };
            for mode in modes {
                let smarth = mode == WriteMode::Smarth;
                let (phase_name, op_name) = if smarth {
                    ("phase.put_smarth", "client.put")
                } else {
                    ("phase.put_hdfs", "client.put_hdfs")
                };
                let picks = order.order(count);
                let paths: Vec<String> = picks
                    .iter()
                    .map(|_| names.name(&format!("{DIR}/f")))
                    .collect();
                let ((), wall) = timed(|| {
                    tracer.span(phase_name, round, |phase| {
                        for (path, &i) in paths.iter().zip(&picks) {
                            let t = Instant::now();
                            let report =
                                tracer.op(op_name, phase, || writer.put(path, &files[i], mode));
                            if smarth {
                                smarth_put_ms.push(t.elapsed().as_secs_f64() * 1e3);
                            }
                            tally.check(report.is_ok_and(|r| r.bytes == size as u64));
                        }
                    })
                });
                put_wall[usize::from(!smarth)] = wall;
                written.extend(paths);
            }

            ((), get_wall) = timed(|| {
                tracer.span("phase.get", round, |phase| {
                    for _ in 0..count {
                        let data = tracer.op("client.get", phase, || writer.get(CORPUS_PATH));
                        tally.check(data.is_ok_and(|d| d == *corpus));
                    }
                })
            });

            let mixed_path = names.name(&format!("{DIR}/m"));
            let mixed_file = &files[order.pick(count)];
            tracer.span("phase.mixed", round, |phase| {
                let barrier = Barrier::new(2);
                let (put_ok, put_s, get_ok, get_s) = std::thread::scope(|s| {
                    let reading = s.spawn(|| {
                        barrier.wait();
                        let (data, secs) = timed(|| {
                            tracer.op("client.get", phase.on_lane(1), || reader.get(CORPUS_PATH))
                        });
                        (data.is_ok_and(|d| d == *corpus), secs)
                    });
                    barrier.wait();
                    let (report, put_s) = timed(|| {
                        // Not `client.put`: the traced pass reads put
                        // latency and block gaps from the put phase only.
                        tracer.op("client.put_mixed", phase, || {
                            writer.put(&mixed_path, mixed_file, WriteMode::Smarth)
                        })
                    });
                    let (get_ok, get_s) = reading.join().expect("reader thread panicked");
                    (
                        report.is_ok_and(|r| r.bytes == size as u64),
                        put_s,
                        get_ok,
                        get_s,
                    )
                });
                tally.check(put_ok);
                tally.check(get_ok);
                mixed_wall = put_s.max(get_s);
            });
            written.push(mixed_path);

            tracer.span("phase.meta", round, |phase| {
                let ((), stat_wall) = timed(|| {
                    for path in &written {
                        for _ in 0..STATS_PER_FILE {
                            let st =
                                tracer.op("client.file_info", phase, || writer.file_info(path));
                            tally.check(
                                matches!(st, Ok(Some(s)) if s.len == size as u64 && s.complete),
                            );
                        }
                    }
                    let listing = tracer.op("client.list", phase, || writer.list(DIR));
                    tally.check(listing.is_ok_and(|l| l.len() == written.len()));
                });
                // Untimed: after full ack a sampled block of a sampled
                // file is on `replication` datanodes.
                let sample = &written[order.pick(written.len())];
                let replicated = writer.open(sample).is_ok_and(|f| {
                    let blocks = f.block_layout();
                    let id = blocks[order.pick(blocks.len())].block.id;
                    eventually(|| cluster.namenode_state().replica_count(id) == replication)
                });
                tally.check(replicated);
                let ((), delete_wall) = timed(|| {
                    for path in &written {
                        let gone = tracer.op("client.delete", phase, || writer.delete(path));
                        tally.check(matches!(gone, Ok(true)));
                    }
                });
                meta_wall = stat_wall + delete_wall;
            });
        });
        cluster.purge_replicas(keep);

        let file_mib = size as f64 / MIB;
        let put_smarth = count as f64 * file_mib / put_wall[0];
        let put_hdfs = count as f64 * file_mib / put_wall[1];
        let payload_bytes = ((2 * count + count + 2) * size) as u64;
        let timed_s = put_wall[0] + put_wall[1] + get_wall + mixed_wall + meta_wall;
        // Namenode operations the round cannot do without: create, one
        // addBlock per block and complete for a put, the block locations
        // for a get, and the clean-up's calls. Held against the whole
        // round: the clean-up alone is a burst of a few milliseconds
        // whose rate, with no link latency to dominate it, is set by
        // which cores the scheduler put the two ends of an RPC on.
        let blocks = size.div_ceil(cluster.config().block_size.as_u64() as usize);
        let (puts, gets) = (2 * count + 1, count + 1);
        let meta_ops = puts * (2 + blocks) + gets + (STATS_PER_FILE + 1) * puts + 1;
        RoundOut {
            values: vec![
                ("put_smarth_mibps", put_smarth),
                ("put_hdfs_mibps", put_hdfs),
                ("smarth_over_hdfs", put_smarth / put_hdfs),
                ("get_mibps", count as f64 * file_mib / get_wall),
                ("mixed_mibps", 2.0 * file_mib / mixed_wall),
                (
                    "put_files_per_s",
                    2.0 * count as f64 / (put_wall[0] + put_wall[1]),
                ),
                ("get_files_per_s", count as f64 / get_wall),
                ("meta_ops_per_s", meta_ops as f64 / timed_s),
                ("put_p50_ms", median(&smarth_put_ms)),
                ("put_p99_ms", percentile(&smarth_put_ms, 0.99)),
                ("sim_gib_per_wall_s", payload_bytes as f64 / GIB / timed_s),
            ],
            tally,
            payload_bytes,
            layer_values: Vec::new(),
            model_measured: Some((put_smarth, put_hdfs)),
            traced_written_bytes: ((2 * count + 1) * size) as u64,
            smarth_put_s: put_wall[0],
        }
    }

    fn operating_point(&self) -> OperatingPoint {
        OperatingPoint {
            config: self.cluster.config().clone(),
            datanodes: self.shape.datanodes(),
            link_latency: self.shape.link_latency(),
        }
    }

    fn cluster_start_s(&self) -> f64 {
        self.cluster_start_s
    }

    fn writer_clients(&self) -> Vec<ClientId> {
        vec![self.writer.id()]
    }

    fn predicted_mibps(&self) -> Option<(f64, f64)> {
        // Formulas 2 and 3 speak of link bandwidth; with no bucket in
        // the path there is none to feed them.
        let line = Bandwidth::mib_per_sec(self.shape.line_rate_mibps()?);
        let c = self.cluster.config();
        let file = ByteSize::bytes(self.shape.bulk_sizes().1 as u64);
        let inputs = CostInputs {
            file_size: file,
            block_size: c.block_size,
            packet_size: c.packet_size,
            t_namenode: c.namenode_rpc_cost,
            t_produce: c.packet_production_cost,
            t_write: c.packet_write_cost,
        };
        // Homogeneous NICs and a disk shaped to the NIC rate: the
        // slowest hop (B_min) and the first hop (B_max) are both the
        // line rate.
        let mibps = |secs: f64| file.as_f64() / MIB / secs;
        Some((
            mibps(smarth_upload_time(&inputs, line).total.as_secs_f64()),
            mibps(hdfs_upload_time(&inputs, line).total.as_secs_f64()),
        ))
    }

    fn shutdown(self: Box<Self>) -> f64 {
        let Bulk {
            cluster,
            writer,
            reader,
            files,
            corpus,
            ..
        } = *self;
        // Memory first: joining the node threads takes seconds, and a
        // retired workload shuts down beside the next one's set-up.
        drop((writer, reader, files, corpus));
        cluster.purge_replicas(&HashSet::new());
        timed(|| cluster.shutdown()).1
    }
}
