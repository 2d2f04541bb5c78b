//! `sim_paper_scale`: the second engine. Every figure lives on the
//! discrete-event simulator's wall time, and its virtual-time results
//! are deterministic, so behavioural drift shows as an exact-number
//! change. The three scenarios are the paper's throttled, contended and
//! heterogeneous regimes, which exercise the shared policy code
//! (`placement`, `localopt`, `speed`) that the homogeneous emulator
//! workloads bypass.
//!
//! One round: six simulated 8 GiB uploads at `DfsConfig::paper_scale()`
//! (three scenarios in both protocols), single thread, no cluster. The
//! `two_rack` pair also reads the file back.

use crate::gen::Gen;
use crate::spans::{Ctx, Tracer};
use crate::stats::{median, percentile};
use crate::workload::{timed, OperatingPoint, RoundOut, Tally, Workload, GIB, MIB};
use smarth_core::config::{DfsConfig, InstanceType, WriteMode};
use smarth_core::costmodel::{hdfs_upload_time, smarth_upload_time, CostInputs};
use smarth_core::ids::ClientId;
use smarth_core::obs::Obs;
use smarth_core::units::{Bandwidth, ByteSize};
use smarth_sim::scenario::{contention, heterogeneous, two_rack};
use smarth_sim::{simulate_upload_with_obs, SimScenario};
use std::time::Duration;

const FILE: ByteSize = ByteSize::gib(8);
const CROSS_RACK_MBPS: f64 = 100.0;
const TRACED_CASE: &str = "two_rack-smarth";

struct Case {
    /// `<scenario>-<mode>`, as in the `sim.model.*` metric names.
    label: &'static str,
    smarth: bool,
    scenario: SimScenario,
    /// `(upload_secs, read_secs)` of this case's first simulation (the
    /// warm-up round's); every later one must reproduce it bit for bit.
    reference: Option<(f64, Option<f64>)>,
}

pub struct SimWorkload {
    cases: Vec<Case>,
    obs: Obs,
}

impl SimWorkload {
    pub fn set_up(seed: u64, obs: Obs) -> Self {
        // One seed per scenario, shared by its two protocols so the pair
        // sees the same cluster randomness.
        let mut seeds = Gen::new(seed, 1);
        let scenario_seeds = [seeds.u64(), seeds.u64(), seeds.u64()];
        let mut cases = Vec::new();
        for (mode, smarth) in [(WriteMode::Hdfs, false), (WriteMode::Smarth, true)] {
            let mut rack = two_rack(
                InstanceType::Small,
                FILE,
                Some(Bandwidth::mbps(CROSS_RACK_MBPS)),
                mode,
            );
            rack.read_back = true;
            let built = [
                (
                    if smarth {
                        "two_rack-smarth"
                    } else {
                        "two_rack-hdfs"
                    },
                    rack,
                ),
                (
                    if smarth {
                        "contention-smarth"
                    } else {
                        "contention-hdfs"
                    },
                    contention(InstanceType::Medium, FILE, 3, Bandwidth::mbps(50.0), mode),
                ),
                (
                    if smarth {
                        "heterogeneous-smarth"
                    } else {
                        "heterogeneous-hdfs"
                    },
                    heterogeneous(FILE, mode),
                ),
            ];
            for ((label, mut scenario), scenario_seed) in built.into_iter().zip(scenario_seeds) {
                scenario.seed = scenario_seed;
                cases.push(Case {
                    label,
                    smarth,
                    scenario,
                    reference: None,
                });
            }
        }
        SimWorkload { cases, obs }
    }

    /// `(upload_secs, read_secs)` of a case that has run.
    fn outcome(&self, label: &str) -> (f64, Option<f64>) {
        self.cases
            .iter()
            .find(|c| c.label == label)
            .and_then(|c| c.reference)
            .expect("case exists and has run")
    }
}

impl Workload for SimWorkload {
    fn round(&mut self, index: usize, tracer: &Tracer) -> RoundOut {
        let mut tally = Tally::default();
        let mut wall_s = vec![0.0f64; self.cases.len()];
        let mut blocks = 0u64;
        // HDFS cases first on even rounds, SMARTH cases first on odd.
        let mut run_order: Vec<usize> = (0..self.cases.len()).collect();
        if !index.is_multiple_of(2) {
            run_order.rotate_left(self.cases.len() / 2);
        }
        let traced_obs = self.obs.clone();
        let mut twin_s = 0.0;
        tracer.span("round", Ctx::default(), |round| {
            for i in run_order {
                let case = &mut self.cases[i];
                // Every simulation numbers its blocks from 1, so one
                // event stream can hold only one of them: a traced round
                // records the headline case and no other.
                let obs = if tracer.is_on() && case.label == TRACED_CASE {
                    traced_obs.clone()
                } else {
                    Obs::disabled()
                };
                let (result, secs) = timed(|| {
                    tracer.op("sim.simulate_upload", round, || {
                        simulate_upload_with_obs(&case.scenario, obs)
                    })
                });
                wall_s[i] = secs;
                blocks += result.blocks;
                let outcome = (result.upload_secs, result.read_secs);
                tally.check(
                    *case.reference.get_or_insert(outcome) == outcome
                        && result.file_bytes == FILE.as_u64(),
                );
            }
            // What reading back costs the engine: the cheapest read-back
            // case once more without its read-back. Its upload is the
            // same simulation, so it must take the same virtual time.
            let rack = &self.cases[0];
            let mut twin = rack.scenario.clone();
            twin.read_back = false;
            let (result, secs) = timed(|| {
                tracer.op("sim.simulate_upload", round, || {
                    simulate_upload_with_obs(&twin, Obs::disabled())
                })
            });
            twin_s = secs;
            tally.check(rack.reference.is_some_and(|r| r.0 == result.upload_secs));
        });

        let file_mib = FILE.as_f64() / MIB;
        let of = |pick: &dyn Fn(&Case) -> bool| -> f64 {
            self.cases
                .iter()
                .zip(&wall_s)
                .filter(|(c, _)| pick(c))
                .map(|(_, s)| *s)
                .sum()
        };
        let total = of(&|_| true);
        let rack_wall = of(&|c| c.scenario.read_back);
        let (rack_h, rack_s) = (
            self.outcome("two_rack-hdfs"),
            self.outcome("two_rack-smarth"),
        );
        let read_secs = rack_h.1.unwrap_or(0.0) + rack_s.1.unwrap_or(0.0);
        let wall_ms: Vec<f64> = wall_s.iter().map(|s| s * 1e3).collect();
        let n = self.cases.len() as f64;
        let mut layer_values: Vec<(String, f64)> = Vec::new();
        for (case, secs) in self.cases.iter().zip(&wall_s) {
            layer_values.push((
                format!("sim.model.upload_wall_ms.{}", case.label),
                secs * 1e3,
            ));
            layer_values.push((
                format!("sim.model.virtual_secs.{}", case.label),
                case.reference.map_or(0.0, |r| r.0),
            ));
        }
        layer_values.push((
            "sim.model.readback_wall_ms".into(),
            (wall_s[0] - twin_s) * 1e3,
        ));
        let payload_bytes = self.cases.len() as u64 * FILE.as_u64();
        RoundOut {
            values: vec![
                ("put_smarth_mibps", n / 2.0 * file_mib / of(&|c| c.smarth)),
                ("put_hdfs_mibps", n / 2.0 * file_mib / of(&|c| !c.smarth)),
                ("smarth_over_hdfs", rack_h.0 / rack_s.0),
                ("get_mibps", 2.0 * file_mib / read_secs),
                ("mixed_mibps", 4.0 * file_mib / rack_wall),
                ("put_files_per_s", n / total),
                ("get_files_per_s", 2.0 / rack_wall),
                ("meta_ops_per_s", blocks as f64 / total),
                ("put_p50_ms", median(&wall_ms)),
                ("put_p99_ms", percentile(&wall_ms, 0.99)),
                ("sim_gib_per_wall_s", payload_bytes as f64 / GIB / total),
            ],
            tally,
            payload_bytes,
            layer_values,
            model_measured: Some((file_mib / rack_s.0, file_mib / rack_h.0)),
            traced_written_bytes: FILE.as_u64(),
            smarth_put_s: of(&|c| c.label == TRACED_CASE),
        }
    }

    fn operating_point(&self) -> OperatingPoint {
        OperatingPoint {
            config: DfsConfig::paper_scale(),
            datanodes: 9,
            link_latency: Duration::from_micros(300),
        }
    }

    fn cluster_start_s(&self) -> f64 {
        0.0
    }

    fn writer_clients(&self) -> Vec<ClientId> {
        Vec::new()
    }

    fn predicted_mibps(&self) -> Option<(f64, f64)> {
        // The `two_rack` scenario: HDFS is bound by the throttled
        // cross-rack hop (B_min), SMARTH by the client's link to its
        // first datanode (B_max, a Small instance's NIC).
        let c = DfsConfig::paper_scale();
        let inputs = CostInputs {
            file_size: FILE,
            block_size: c.block_size,
            packet_size: c.packet_size,
            t_namenode: c.namenode_rpc_cost,
            t_produce: c.packet_production_cost,
            t_write: c.packet_write_cost,
        };
        let mibps = |secs: f64| FILE.as_f64() / MIB / secs;
        let b_max = InstanceType::Small.network_bandwidth();
        let b_min = Bandwidth::mbps(CROSS_RACK_MBPS);
        Some((
            mibps(smarth_upload_time(&inputs, b_max).total.as_secs_f64()),
            mibps(hdfs_upload_time(&inputs, b_min).total.as_secs_f64()),
        ))
    }

    fn rounds_repeat_exactly(&self) -> bool {
        true
    }

    fn shutdown(self: Box<Self>) -> f64 {
        0.0
    }
}
