//! The metric dictionary: every name the benchmark may print, with its
//! unit and direction. `BENCHMARK.json` declares the same lists (a test
//! holds the two together); `README.md` defines each entry.

use smarth_core::json::{ObjectBuilder, Value};
use std::collections::BTreeMap;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// `run_seconds` of `BENCHMARK.json`: how long the driver's runs measure.
pub const RUN_SECONDS: f64 = 28.0;

pub const WORKLOADS: [&str; 4] = [
    "shaped_bulk",
    "unshaped_bulk",
    "small_files",
    "sim_paper_scale",
];

pub const END_TO_END: [EndToEnd; 13] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("put_smarth_mibps", "MiB/s", "higher", 0.25),
    e2e("put_hdfs_mibps", "MiB/s", "higher", 0.25),
    e2e("smarth_over_hdfs", "ratio", "higher", 0.15),
    e2e("get_mibps", "MiB/s", "higher", 0.25),
    e2e("mixed_mibps", "MiB/s", "higher", 0.25),
    e2e("put_files_per_s", "1/s", "higher", 0.25),
    e2e("get_files_per_s", "1/s", "higher", 0.25),
    e2e("meta_ops_per_s", "1/s", "higher", 0.25),
    e2e("put_p50_ms", "ms", "lower", 0.25),
    e2e("put_p99_ms", "ms", "lower", 0.25),
    e2e("sim_gib_per_wall_s", "GiB/s", "higher", 0.25),
    e2e("peak_rss_mib", "MiB", "lower", 0.25),
];

/// `(name, unit, better)`. Names are `<crate>.<module>.<metric>`.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // core
    ("core.checksum.compute_mibps", "MiB/s", "higher"),
    ("core.checksum.verify_mibps", "MiB/s", "higher"),
    ("core.wire.packet_encode_mibps", "MiB/s", "higher"),
    ("core.wire.packet_decode_mibps", "MiB/s", "higher"),
    ("core.wire.rpc_codec_ns", "ns", "lower"),
    ("core.placement.smarth_ns", "ns", "lower"),
    ("core.placement.default_ns", "ns", "lower"),
    ("core.localopt.sort_ns", "ns", "lower"),
    ("core.speed.observe_ns", "ns", "lower"),
    ("core.obs.emit_null_ns", "ns", "lower"),
    ("core.obs.emit_ring_ns", "ns", "lower"),
    ("core.obs.trace_overhead_pct", "%", "lower"),
    ("core.trace.assemble_ms", "ms", "lower"),
    ("core.costmodel.predicted_smarth_mibps", "MiB/s", "higher"),
    ("core.costmodel.predicted_hdfs_mibps", "MiB/s", "higher"),
    ("core.costmodel.smarth_gap_pct", "%", "lower"),
    ("core.costmodel.hdfs_gap_pct", "%", "lower"),
    // fabric
    ("fabric.bucket.acquire_unlimited_ns", "ns", "lower"),
    ("fabric.bucket.acquire_finite_ns", "ns", "lower"),
    ("fabric.bucket.rate_error_pct", "%", "lower"),
    ("fabric.bucket.shared_2t_mibps", "MiB/s", "higher"),
    ("fabric.channel.hop_mibps", "MiB/s", "higher"),
    ("fabric.stream.hop_mibps", "MiB/s", "higher"),
    ("fabric.stream.rtt_p50_us", "us", "lower"),
    ("fabric.stream.rtt_p99_us", "us", "lower"),
    ("fabric.stream.connect_us", "us", "lower"),
    // datanode
    ("datanode.store.write_mibps", "MiB/s", "higher"),
    ("datanode.store.read_mibps", "MiB/s", "higher"),
    ("datanode.store.finalize_us", "us", "lower"),
    ("datanode.store.used_bytes_us", "us", "lower"),
    ("datanode.server.r1_write_mibps", "MiB/s", "higher"),
    ("datanode.server.r3_over_r1", "ratio", "higher"),
    ("datanode.server.r1_read_mibps", "MiB/s", "higher"),
    ("datanode.server.hop0_residency_p50_ms", "ms", "lower"),
    ("datanode.server.hop1_residency_p50_ms", "ms", "lower"),
    ("datanode.server.hop2_residency_p50_ms", "ms", "lower"),
    (
        "datanode.server.staging_high_water_packets",
        "count",
        "lower",
    ),
    (
        "datanode.server.buffered_high_water_bytes",
        "bytes",
        "lower",
    ),
    ("datanode.server.forward_high_water_bytes", "bytes", "lower"),
    // namenode
    ("namenode.server.file_cycle_ops_per_s", "1/s", "higher"),
    ("namenode.server.file_cycle_2t_ops_per_s", "1/s", "higher"),
    ("namenode.server.same_shard_2t_ops_per_s", "1/s", "higher"),
    ("namenode.server.shards1_2t_ops_per_s", "1/s", "higher"),
    ("namenode.server.add_block_p50_us", "us", "lower"),
    ("namenode.server.add_block_p99_us", "us", "lower"),
    ("namenode.server.get_file_info_ns", "ns", "lower"),
    ("namenode.server.list_1k_us", "us", "lower"),
    ("namenode.server.heartbeat_ns", "ns", "lower"),
    // client
    ("client.ostream.time_to_fnfa_p50_ms", "ms", "lower"),
    ("client.ostream.time_to_full_ack_p50_ms", "ms", "lower"),
    ("client.ostream.alloc_to_open_p50_us", "us", "lower"),
    ("client.ostream.fnfa_to_alloc_p50_us", "us", "lower"),
    ("client.ostream.fnfa_to_alloc_p99_us", "us", "lower"),
    ("client.ostream.interblock_gap_p50_us", "us", "lower"),
    ("client.ostream.gap_share_pct", "%", "lower"),
    ("client.ostream.max_concurrent_pipelines", "count", "higher"),
    ("client.ostream.overlap_pairs", "count", "higher"),
    ("client.ostream.recoveries", "count", "lower"),
    ("client.pipeline.ack_batches_per_block", "count", "lower"),
    ("client.istream.block_read_p50_ms", "ms", "lower"),
    (
        "client.istream.inflight_stripes_high_water",
        "count",
        "higher",
    ),
    ("client.istream.source_switches", "count", "lower"),
    ("client.rpc.stat_p50_us", "us", "lower"),
    ("client.rpc.stat_p99_us", "us", "lower"),
    ("client.client.put_p50_ms", "ms", "lower"),
    ("client.client.put_p99_ms", "ms", "lower"),
    ("client.client.put_p999_ms", "ms", "lower"),
    ("client.client.hdfs_put_p50_ms", "ms", "lower"),
    ("client.client.get_p50_ms", "ms", "lower"),
    ("client.client.get_p99_ms", "ms", "lower"),
    // cluster
    ("cluster.mini.start_s", "s", "lower"),
    ("cluster.mini.shutdown_s", "s", "lower"),
    // sim
    ("sim.model.upload_wall_ms.two_rack-hdfs", "ms", "lower"),
    ("sim.model.upload_wall_ms.two_rack-smarth", "ms", "lower"),
    ("sim.model.upload_wall_ms.contention-hdfs", "ms", "lower"),
    ("sim.model.upload_wall_ms.contention-smarth", "ms", "lower"),
    ("sim.model.upload_wall_ms.heterogeneous-hdfs", "ms", "lower"),
    (
        "sim.model.upload_wall_ms.heterogeneous-smarth",
        "ms",
        "lower",
    ),
    ("sim.model.virtual_secs.two_rack-hdfs", "s", "lower"),
    ("sim.model.virtual_secs.two_rack-smarth", "s", "lower"),
    ("sim.model.virtual_secs.contention-hdfs", "s", "lower"),
    ("sim.model.virtual_secs.contention-smarth", "s", "lower"),
    ("sim.model.virtual_secs.heterogeneous-hdfs", "s", "lower"),
    ("sim.model.virtual_secs.heterogeneous-smarth", "s", "lower"),
    ("sim.model.readback_wall_ms", "ms", "lower"),
    ("sim.server.reserve_ns", "ns", "lower"),
    // process, exact-repeat counts, harness
    ("process.cpu_s_per_gib", "s/GiB", "lower"),
    ("process.threads_high_water", "count", "lower"),
    ("process.ctx_switches_per_mib", "1/MiB", "lower"),
    ("counts.bytes_written", "bytes", "higher"),
    ("counts.blocks_committed", "count", "higher"),
    ("counts.packets_sent", "count", "lower"),
    ("counts.fnfa_received", "count", "higher"),
    ("counts.bytes_read", "bytes", "higher"),
    ("harness.rounds", "count", "higher"),
    ("harness.round_spread_pct", "%", "lower"),
    ("harness.failed_ops_share", "ratio", "lower"),
    ("harness.traced_pass_s", "s", "lower"),
    ("harness.events_evicted", "count", "lower"),
];

/// Values measured in one run, by metric name.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn extend(&mut self, other: Values) {
        self.0.extend(other.0);
    }

    /// Names set that the dictionary does not declare under `declared`.
    pub fn undeclared<'a>(&'a self, declared: &[&str]) -> Vec<&'a str> {
        self.0
            .keys()
            .map(String::as_str)
            .filter(|k| !declared.contains(k))
            .collect()
    }
}

#[cfg(test)]
pub fn end_to_end_names() -> Vec<&'static str> {
    END_TO_END.iter().map(|m| m.name).collect()
}

pub fn per_layer_names() -> Vec<&'static str> {
    PER_LAYER.iter().map(|m| m.0).collect()
}

/// One printed metric: name, value, unit.
pub type Row = (&'static str, f64, &'static str);

/// Every declared end-to-end metric. One that the workload failed to
/// measure is a harness bug.
pub fn end_to_end_rows(values: &Values) -> Vec<Row> {
    END_TO_END
        .iter()
        .map(|m| {
            let v = values
                .get(m.name)
                .unwrap_or_else(|| panic!("end-to-end metric {} was not measured", m.name));
            (m.name, v, m.unit)
        })
        .collect()
}

/// Every declared per-layer metric; a layer the workload does not run
/// (the DES on a cluster workload, the datanodes on the DES workload)
/// reads 0.
pub fn per_layer_rows(values: &Values) -> Vec<Row> {
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| (name, values.get(name).unwrap_or(0.0), unit))
        .collect()
}

/// One `name  value unit` line per metric, for people.
pub fn print_table(title: &str, rows: &[Row]) {
    println!("== {title}");
    for (name, value, unit) in rows {
        println!("  {name:<52} {value:>16.4} {unit}");
    }
}

/// The `metrics` object of the result line.
pub fn rows_json(rows: &[Row]) -> Value {
    rows.iter()
        .fold(ObjectBuilder::new(), |obj, &(name, value, unit)| {
            obj.field(
                name,
                ObjectBuilder::new()
                    .field("value", value)
                    .field("unit", unit)
                    .build(),
            )
        })
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        smarth_core::json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names_of(list: &Value) -> Vec<String> {
        list.as_array()
            .expect("a list")
            .iter()
            .map(|m| m.get("name").as_str().expect("name").to_string())
            .collect()
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn emitted_names_equal_the_names_benchmark_json_declares() {
        let m = manifest();
        assert_eq!(names_of(m.get("end_to_end")), end_to_end_names());
        assert_eq!(names_of(m.get("per_layer")), per_layer_names());
        assert_eq!(names_of(m.get("workloads")), WORKLOADS);
        assert_eq!(m.get("run_seconds").as_f64(), Some(RUN_SECONDS));
        for (declared, ours) in m
            .get("end_to_end")
            .as_array()
            .unwrap()
            .iter()
            .zip(&END_TO_END)
        {
            assert_eq!(
                declared.get("unit").as_str(),
                Some(ours.unit),
                "{}",
                ours.name
            );
            assert_eq!(
                declared.get("better").as_str(),
                Some(ours.better),
                "{}",
                ours.name
            );
            assert_eq!(
                declared.get("bound").as_f64(),
                Some(ours.bound),
                "{}",
                ours.name
            );
        }
        for (declared, ours) in m.get("per_layer").as_array().unwrap().iter().zip(PER_LAYER) {
            assert_eq!(declared.get("unit").as_str(), Some(ours.1), "{}", ours.0);
            assert_eq!(declared.get("better").as_str(), Some(ours.2), "{}", ours.0);
        }
    }

    #[test]
    fn names_are_well_formed_unique_and_within_the_limits() {
        let e2e = end_to_end_names();
        let layers = per_layer_names();
        assert!(e2e.len() <= 16 && layers.len() <= 128);
        let mut all: Vec<&str> = e2e.iter().chain(&layers).copied().collect();
        assert!(all.iter().all(|n| well_formed(n)), "{all:?}");
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), e2e.len() + layers.len(), "a name is used twice");
        assert!(e2e.contains(&"setup_s"));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn output_carries_exactly_the_declared_names() {
        let mut v = Values::default();
        for m in &END_TO_END {
            v.set(m.name, 1.5);
        }
        v.set("core.wire.rpc_codec_ns", 80.0);
        let e2e = end_to_end_rows(&v);
        let layers = per_layer_rows(&v);
        let names = |rows: &[Row]| rows.iter().map(|r| r.0).collect::<Vec<_>>();
        assert_eq!(names(&e2e), end_to_end_names());
        assert_eq!(names(&layers), per_layer_names());
        let json = rows_json(&layers);
        assert_eq!(
            json.get("core.wire.rpc_codec_ns").get("value").as_f64(),
            Some(80.0)
        );
        assert_eq!(
            json.get("core.wire.rpc_codec_ns").get("unit").as_str(),
            Some("ns")
        );
        assert_eq!(
            json.get("sim.server.reserve_ns").get("value").as_f64(),
            Some(0.0)
        );
        assert_eq!(v.undeclared(&per_layer_names()).len(), END_TO_END.len());
    }
}
