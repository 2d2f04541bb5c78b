//! The repo benchmark. One run of one workload is a **measured pass**
//! with tracing off (the end-to-end metrics), a **layer pass** that
//! times each layer's public functions in isolation, and a **traced
//! pass** with a `RingBufferSink` attached and a harness span around
//! every call. `--trace 0` runs the first and prints the end-to-end
//! metrics, `--trace 1` runs the other two and prints the per-layer
//! metrics, no `--trace` runs all three. See `README.md`.

mod bulk;
mod cluster;
mod gen;
mod layers;
mod metrics;
mod procfs;
mod repeat;
mod simw;
mod small;
mod spans;
mod stats;
mod traced;
mod workload;

use metrics::Values;
use smarth_core::json::{ObjectBuilder, Value};
use smarth_core::obs::{EventRecord, EventSink, Metrics, Obs, RingBufferSink};
use smarth_core::trace::{to_chrome_trace, TraceAssembler};
use spans::Tracer;
use stats::{iqr_share, median};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{set_up, timed, RoundOut, Tally, Workload, GIB, MIB};

/// Set-ups per run; `setup_s` is their median (plus the warm-up
/// round), so a single disturbed set-up does not move it.
const SETUP_REPS: usize = 3;
/// A pass never reports on fewer rounds than this, however short
/// `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Events the traced pass may hold; an eviction fails the run.
const RING_CAPACITY: usize = 1 << 19;

pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: Option<bool>,
    pub quick: bool,
    pub out_dir: PathBuf,
}

/// An event sink the harness can switch: untraced reference rounds and
/// traced rounds alternate on one cluster, whose `Obs` is fixed when it
/// starts. Off, it costs what `NullSink` costs: one virtual call.
struct SwitchSink {
    on: AtomicBool,
    ring: Arc<RingBufferSink>,
}

impl EventSink for SwitchSink {
    fn emit(&self, record: &EventRecord) {
        if self.on.load(Ordering::Relaxed) {
            self.ring.emit(record);
        }
    }
}

fn median_of(rounds: &[RoundOut], pick: impl Fn(&RoundOut) -> f64) -> f64 {
    median(&rounds.iter().map(pick).collect::<Vec<_>>())
}

/// One end-to-end value from its per-round values: the median, or the
/// best round where rounds repeat exactly (see
/// `Workload::rounds_repeat_exactly`).
fn over_rounds(metric: &str, per_round: &[f64], rounds_repeat_exactly: bool) -> f64 {
    if !rounds_repeat_exactly {
        return median(per_round);
    }
    let higher_is_better = metrics::END_TO_END
        .iter()
        .any(|m| m.name == metric && m.better == "higher");
    let best = if higher_is_better { f64::max } else { f64::min };
    per_round.iter().copied().reduce(best).unwrap_or(0.0)
}

fn tally_of(rounds: &[RoundOut]) -> Tally {
    let mut t = Tally::default();
    rounds.iter().for_each(|r| t.add(r.tally));
    t
}

/// The per-layer rows a pass of untraced rounds yields about itself.
fn pass_values(rounds: &[RoundOut], spent: procfs::Usage) -> Values {
    let mut v = Values::default();
    let tally = tally_of(rounds);
    let payload: u64 = rounds.iter().map(|r| r.payload_bytes).sum();
    v.set("harness.rounds", rounds.len() as f64);
    if rounds.len() >= 2 {
        let first_rate: Vec<f64> = rounds.iter().map(|r| r.value("put_smarth_mibps")).collect();
        v.set("harness.round_spread_pct", iqr_share(&first_rate) * 100.0);
    }
    v.set(
        "harness.failed_ops_share",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    v.set(
        "process.cpu_s_per_gib",
        spent.cpu_s / (payload as f64 / GIB),
    );
    v.set(
        "process.ctx_switches_per_mib",
        spent.ctx_switches as f64 / (payload as f64 / MIB),
    );
    // Rows only this workload's own rounds can measure (the DES ones).
    if let Some(first) = rounds.first() {
        for (i, (name, _)) in first.layer_values.iter().enumerate() {
            v.set(name, median_of(rounds, |r| r.layer_values[i].1));
        }
    }
    v
}

struct EndToEnd {
    values: Values,
    pass: Values,
    tally: Tally,
    /// Still running.
    workload: Box<dyn Workload>,
}

/// Set-up, warm-up round, then identical fixed-size rounds for as long
/// as `seconds` allows, tracing off.
fn measured_pass(name: &str, seed: u64, seconds: f64) -> EndToEnd {
    let mut setups = Vec::new();
    let mut retiring = Vec::new();
    let mut current: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = current.take() {
            // An orderly shutdown mostly sleeps (heartbeat threads
            // backing off); it runs beside the next set-up.
            retiring.push(std::thread::spawn(move || old.shutdown()));
        }
        let (fresh, secs) = timed(|| set_up(name, seed, Obs::disabled()));
        setups.push(secs);
        current = Some(fresh.unwrap_or_else(|e| panic!("set-up of {name} failed: {e}")));
    }
    let mut w = current.expect("at least one set-up");
    let tracer = Tracer::off();
    let (warm, mut warm_s) = timed(|| w.round(0, &tracer));
    let mut warm_tally = warm.tally;
    if w.rounds_repeat_exactly() {
        // Set-up is then all but the warm-up round, and one round taken
        // once swings with the box. As for the measured rounds, the
        // fastest of a few is the measurement.
        for _ in 1..SETUP_REPS {
            let (again, secs) = timed(|| w.round(0, &tracer));
            warm_s = warm_s.min(secs);
            warm_tally.add(again.tally);
        }
    }
    for r in retiring {
        r.join().expect("shutdown thread panicked");
    }
    let setup_s = median(&setups) + warm_s;

    let before = procfs::usage();
    let pass = Instant::now();
    let mut rounds: Vec<RoundOut> = Vec::new();
    let mut longest = 0.0f64;
    loop {
        let (out, secs) = timed(|| w.round(rounds.len(), &tracer));
        longest = longest.max(secs);
        rounds.push(out);
        // Stop while the next round still fits.
        if rounds.len() >= MIN_ROUNDS && pass.elapsed().as_secs_f64() + longest > seconds {
            break;
        }
    }
    let spent = procfs::usage().since(before);

    let mut values = Values::default();
    values.set("setup_s", setup_s);
    for (metric, _) in &rounds[0].values {
        let per_round: Vec<f64> = rounds.iter().map(|r| r.value(metric)).collect();
        values.set(
            metric,
            over_rounds(metric, &per_round, w.rounds_repeat_exactly()),
        );
    }
    values.set("peak_rss_mib", procfs::peak_rss_mib());
    let mut tally = warm_tally;
    tally.add(tally_of(&rounds));
    EndToEnd {
        values,
        pass: pass_values(&rounds, spent),
        tally,
        workload: w,
    }
}

fn counters(m: &Metrics) -> [u64; 5] {
    [
        m.bytes_written.get(),
        m.blocks_committed.get(),
        m.packets_sent.get(),
        m.fnfa_received.get(),
        m.bytes_read.get(),
    ]
}

const COUNT_NAMES: [&str; 5] = [
    "counts.bytes_written",
    "counts.blocks_committed",
    "counts.packets_sent",
    "counts.fnfa_received",
    "counts.bytes_read",
];

struct Layers {
    values: Values,
    /// Rows about the untraced reference rounds; the measured pass's own
    /// take their place when it ran in the same process.
    pass: Values,
    tally: Tally,
}

/// Untraced reference rounds alternating with traced rounds on one
/// cluster, then the layer pass.
fn layer_and_traced_pass(opt: &Options, name: &str) -> Layers {
    let ring = RingBufferSink::new(RING_CAPACITY);
    let switch = Arc::new(SwitchSink {
        on: AtomicBool::new(false),
        ring: Arc::clone(&ring),
    });
    let obs = Obs::new(Arc::clone(&switch) as Arc<dyn EventSink>);
    let mut w = set_up(name, opt.seed, obs.clone())
        .unwrap_or_else(|e| panic!("set-up of {name} failed: {e}"));
    let untraced = Tracer::off();
    let tracer = Tracer::on();
    let (warm, warm_s) = timed(|| w.round(0, &untraced));
    // About half of the budget goes to the round pairs, the rest to the
    // layer pass and the shutdown.
    let pairs = ((opt.seconds * 0.5 / (2.0 * warm_s)) as usize).clamp(2, 6);

    let stop_sampling = Arc::new(AtomicBool::new(false));
    let threads_high_water = Arc::new(AtomicU64::new(0));
    let sampler = {
        let (stop, high) = (Arc::clone(&stop_sampling), Arc::clone(&threads_high_water));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                high.fetch_max(procfs::threads(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(20));
            }
        })
    };

    let mut reference: Vec<RoundOut> = Vec::new();
    let mut traced: Vec<RoundOut> = Vec::new();
    let mut records: Vec<Vec<EventRecord>> = Vec::new();
    let mut counts = [0u64; 5];
    let mut reference_usage = procfs::Usage::default();
    let mut traced_pass_s = 0.0;
    for i in 0..pairs {
        let before = procfs::usage();
        reference.push(w.round(i, &untraced));
        let spent = procfs::usage().since(before);
        reference_usage.cpu_s += spent.cpu_s;
        reference_usage.ctx_switches += spent.ctx_switches;

        let counted = counters(obs.metrics());
        switch.on.store(true, Ordering::Relaxed);
        let (out, secs) = timed(|| w.round(i, &tracer));
        switch.on.store(false, Ordering::Relaxed);
        traced_pass_s += secs;
        traced.push(out);
        for (sum, (after, before)) in counts
            .iter_mut()
            .zip(counters(obs.metrics()).iter().zip(counted))
        {
            *sum += after - before;
        }
        records.push(ring.snapshot());
        ring.clear();
    }
    stop_sampling.store(true, Ordering::Relaxed);
    sampler.join().expect("sampler thread panicked");

    let op = w.operating_point();
    let predicted = w.predicted_mibps();
    let writers = w.writer_clients();
    let start_s = w.cluster_start_s();
    let shutdown_s = w.shutdown();

    let mut v = layers::run(&op);
    v.set("cluster.mini.start_s", start_s);
    v.set("cluster.mini.shutdown_s", shutdown_s);
    v.set(
        "process.threads_high_water",
        threads_high_water.load(Ordering::Relaxed) as f64,
    );
    v.set("harness.traced_pass_s", traced_pass_s);
    v.set("harness.events_evicted", ring.dropped() as f64);
    for (name, n) in COUNT_NAMES.iter().zip(counts) {
        v.set(name, n as f64);
    }
    v.set(
        "core.obs.trace_overhead_pct",
        (median_of(&traced, |r| r.smarth_put_s) / median_of(&reference, |r| r.smarth_put_s) - 1.0)
            * 100.0,
    );
    if let (Some((model_smarth, model_hdfs)), Some(_)) = (predicted, reference[0].model_measured) {
        let measured = |pick: fn((f64, f64)) -> f64| {
            median_of(&reference, |r| r.model_measured.map_or(0.0, pick))
        };
        v.set("core.costmodel.predicted_smarth_mibps", model_smarth);
        v.set("core.costmodel.predicted_hdfs_mibps", model_hdfs);
        v.set(
            "core.costmodel.smarth_gap_pct",
            (1.0 - measured(|m| m.0) / model_smarth) * 100.0,
        );
        v.set(
            "core.costmodel.hdfs_gap_pct",
            (1.0 - measured(|m| m.1) / model_hdfs) * 100.0,
        );
    }

    // One simulation's virtual-time stream repeats identically every
    // round, block ids included; wall-clock streams never reuse an id.
    let virtual_time = records
        .iter()
        .flatten()
        .next()
        .is_some_and(|r| r.virtual_time);
    let stream: Vec<EventRecord> = if virtual_time {
        records.pop().unwrap_or_default()
    } else {
        records.into_iter().flatten().collect()
    };
    let (report, assemble_s) = timed(|| TraceAssembler::assemble(&stream));
    v.set("core.trace.assemble_ms", assemble_s * 1e3);
    let spans = tracer.take();
    traced::derive(&report, &spans, &writers, obs.metrics(), &mut v);

    let mut tally = warm.tally;
    tally.add(tally_of(&reference));
    tally.add(tally_of(&traced));
    // The registry must have counted exactly the bytes the traced
    // rounds put, and the ring must have kept every event.
    tally.check(counts[0] == traced.iter().map(|r| r.traced_written_bytes).sum::<u64>());
    tally.check(ring.dropped() == 0);

    let program_events = to_chrome_trace(&report)
        .get("traceEvents")
        .as_array()
        .map(<[Value]>::to_vec)
        .unwrap_or_default();
    let meta = ObjectBuilder::new()
        .field("workload", name)
        .field("seed", opt.seed)
        .field("traced_rounds", traced.len())
        .field("events", stream.len())
        .field("summary", report.summary_json())
        .build();
    let doc = spans::chrome_trace(&spans, program_events, meta);
    let path = opt
        .out_dir
        .join(format!("{name}-seed{}.trace.json", opt.seed));
    let saved = std::fs::create_dir_all(&opt.out_dir)
        .and_then(|()| std::fs::write(&path, doc.to_string_compact()));
    match saved {
        Ok(()) => println!("trace: {}", path.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            tally.check(false);
        }
    }
    Layers {
        values: v,
        pass: pass_values(&reference, reference_usage),
        tally,
    }
}

/// Runs the passes `--trace` asks for; returns the result line and
/// whether every operation and check passed.
fn run_workload(opt: &Options, name: &str) -> (Value, bool) {
    println!(
        "workload {name}  seed {}  seconds {}  load threads <= 2  cores {}",
        opt.seed,
        opt.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    if opt.quick {
        println!("--quick: a smoke run; its numbers are NOT comparable with any other run");
    }
    let mut tally = Tally::default();
    let mut rows = Vec::new();
    let mut measured_pass_rows = None;
    if opt.trace != Some(true) {
        let e2e = measured_pass(name, opt.seed, opt.seconds);
        tally.add(e2e.tally);
        let table = metrics::end_to_end_rows(&e2e.values);
        metrics::print_table(&format!("{name}: end to end"), &table);
        rows.extend(table);
        measured_pass_rows = Some(e2e.pass);
        if opt.trace.is_none() {
            // The other passes follow: the measured cluster must not
            // idle beside them.
            e2e.workload.shutdown();
        } else {
            // Tearing the cluster down in order takes seconds and the
            // process is about to end: leave it to end with it.
            std::mem::forget(e2e.workload);
        }
    }
    if opt.trace != Some(false) {
        let mut layers = layer_and_traced_pass(opt, name);
        tally.add(layers.tally);
        layers
            .values
            .extend(measured_pass_rows.unwrap_or(layers.pass));
        let undeclared = layers.values.undeclared(&metrics::per_layer_names());
        assert!(
            undeclared.is_empty(),
            "measured but not declared: {undeclared:?}"
        );
        let table = metrics::per_layer_rows(&layers.values);
        metrics::print_table(&format!("{name}: per layer"), &table);
        rows.extend(table);
    }
    let correct = tally.failed == 0;
    println!(
        "attempted {}  failed {}  correct {correct}",
        tally.attempted, tally.failed
    );
    let line = ObjectBuilder::new()
        .field("correct", correct)
        .field("attempted", tally.attempted)
        .field("failed", tally.failed)
        .field("metrics", metrics::rows_json(&rows))
        .build();
    (line, correct)
}

fn usage() -> ! {
    eprintln!(
        "usage: smarth-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out-dir DIR]\n\
         \x20      smarth-benchmark --repeat [--sets N] [--runs N] [--seed N] [--seconds S] [--workload NAME] [--out-dir DIR]\n\
         workloads: {}",
        metrics::WORKLOADS.join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let mut opt = Options {
        workload: None,
        seed: 1,
        seconds: 30.0,
        trace: None,
        quick: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut repeat: Option<repeat::Plan> = None;
    let mut seconds_given = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        fn number<T: std::str::FromStr>(s: String) -> T {
            s.parse().unwrap_or_else(|_| usage())
        }
        match flag.as_str() {
            "--workload" => opt.workload = Some(value()),
            "--seed" => opt.seed = number(value()),
            "--seconds" => {
                opt.seconds = number(value());
                seconds_given = true;
            }
            "--trace" => {
                opt.trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--quick" => opt.quick = true,
            "--out-dir" => opt.out_dir = PathBuf::from(value()),
            "--repeat" => repeat = Some(repeat.take().unwrap_or_default()),
            "--sets" => repeat.get_or_insert_with(Default::default).sets = number(value()),
            "--runs" => repeat.get_or_insert_with(Default::default).runs = number(value()),
            _ => usage(),
        }
    }
    if opt.quick {
        opt.seconds = 5.0;
    }
    if !(opt.seconds.is_finite() && opt.seconds > 0.0) {
        usage();
    }
    if let Some(w) = &opt.workload {
        if !metrics::WORKLOADS.contains(&w.as_str()) {
            usage();
        }
    }
    if let Some(plan) = repeat {
        if !seconds_given {
            // Judge runs as long as the driver's.
            opt.seconds = metrics::RUN_SECONDS;
        }
        std::process::exit(if repeat::run(&plan, &opt) { 0 } else { 1 });
    }

    // One workload per process: set-up time and the resident-set
    // high-water mark are the process's. `run.sh` loops over the four.
    let Some(name) = opt.workload.clone() else {
        usage()
    };
    let (line, correct) = run_workload(&opt, &name);
    // The result line is the last line of standard output.
    println!("{}", line.to_string_compact());
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::over_rounds;

    #[test]
    fn emulator_rounds_report_their_median_simulator_rounds_their_best() {
        let rates = [10.0, 30.0, 20.0];
        assert_eq!(over_rounds("get_mibps", &rates, false), 20.0);
        assert_eq!(over_rounds("get_mibps", &rates, true), 30.0);
        // Lower is better for a latency: the best round is the smallest.
        assert_eq!(over_rounds("put_p99_ms", &rates, false), 20.0);
        assert_eq!(over_rounds("put_p99_ms", &rates, true), 10.0);
    }
}
