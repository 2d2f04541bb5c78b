//! Time-series telemetry over the [`Metrics`] registry.
//!
//! The cumulative counters in [`Metrics`] answer "how much, so far";
//! every control question the ROADMAP's self-tuning items ask —
//! is throughput *sustained*, is the FNFA gap *degrading*, are
//! recoveries *burning* faster than the budget — needs "how fast,
//! when". This module adds that axis:
//!
//! * [`Sampler`] — periodically snapshots every well-known metric into
//!   a bounded ring of [`TelemetryFrame`]s. The emulator ticks it from
//!   wall-clock loops (datanode heartbeat, namenode expiry sweep, the
//!   soak monitor); the DES ticks it on virtual-time boundaries, so
//!   both engines produce structurally identical series.
//! * [`TelemetrySeries`] — the derived per-metric series: raw points
//!   for gauges and quantiles, plus per-interval rates for counters.
//!   Round-trips through JSON so it can be scraped over the fabric.
//! * [`SloTracker`] / [`SloVerdict`] — declarative objectives
//!   (sustained-throughput floor, FNFA-gap p99 ceiling, recovery burn
//!   budget) evaluated against a series, yielding a machine-readable
//!   verdict that names each violating window.
//! * [`prometheus_exposition`] — point-in-time text scrape of the
//!   registry in the Prometheus exposition format, served by the
//!   `GetTelemetry` RPCs.

use super::{Metrics, RecoveryCause};
use crate::error::DfsResult;
use crate::json::{Json, ToJson, Value};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Metric descriptors
// ---------------------------------------------------------------------------

/// How a sampled column should be interpreted when deriving series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone; series derivation adds per-interval rates.
    Counter,
    /// Instantaneous level; raw points are the series.
    Gauge,
    /// A histogram quantile sampled as a level (µs for latencies).
    Quantile,
}

crate::json_enum!(impl Json for MetricKind {
    "counter" => Counter,
    "gauge" => Gauge,
    "quantile" => Quantile,
});

/// One sampled column: a stable name, its kind, and how to read it.
pub struct MetricDesc {
    pub name: &'static str,
    pub kind: MetricKind,
    read: fn(&Metrics) -> f64,
}

/// Every column a [`Sampler`] captures, in frame order. The set is the
/// schema contract between engines: emulator and DES frames are
/// comparable column-for-column.
pub const DESCRIPTORS: &[MetricDesc] = &[
    MetricDesc {
        name: "bytes_written",
        kind: MetricKind::Counter,
        read: |m| m.bytes_written.get() as f64,
    },
    MetricDesc {
        name: "bytes_read",
        kind: MetricKind::Counter,
        read: |m| m.bytes_read.get() as f64,
    },
    MetricDesc {
        name: "packets_sent",
        kind: MetricKind::Counter,
        read: |m| m.packets_sent.get() as f64,
    },
    MetricDesc {
        name: "blocks_committed",
        kind: MetricKind::Counter,
        read: |m| m.blocks_committed.get() as f64,
    },
    MetricDesc {
        name: "fnfa_received",
        kind: MetricKind::Counter,
        read: |m| m.fnfa_received.get() as f64,
    },
    MetricDesc {
        name: "allocations_abandoned",
        kind: MetricKind::Counter,
        read: |m| m.allocations_abandoned.get() as f64,
    },
    MetricDesc {
        name: "recoveries_total",
        kind: MetricKind::Counter,
        read: |m| m.recoveries_total() as f64,
    },
    MetricDesc {
        name: "exploration_swaps",
        kind: MetricKind::Counter,
        read: |m| m.exploration_swaps.get() as f64,
    },
    MetricDesc {
        name: "speed_records_ingested",
        kind: MetricKind::Counter,
        read: |m| m.speed_records_ingested.get() as f64,
    },
    MetricDesc {
        name: "handler_panics",
        kind: MetricKind::Counter,
        read: |m| m.handler_panics.get() as f64,
    },
    MetricDesc {
        name: "heartbeat_failures",
        kind: MetricKind::Counter,
        read: |m| m.heartbeat_failures.get() as f64,
    },
    MetricDesc {
        name: "block_report_failures",
        kind: MetricKind::Counter,
        read: |m| m.block_report_failures.get() as f64,
    },
    MetricDesc {
        name: "namenode_client_rpcs",
        kind: MetricKind::Counter,
        read: |m| m.namenode_client_rpcs.get() as f64,
    },
    MetricDesc {
        name: "packets_in_flight",
        kind: MetricKind::Gauge,
        read: |m| m.packets_in_flight.get() as f64,
    },
    MetricDesc {
        name: "concurrent_pipelines",
        kind: MetricKind::Gauge,
        read: |m| m.concurrent_pipelines.get() as f64,
    },
    MetricDesc {
        name: "datanode_buffered_bytes",
        kind: MetricKind::Gauge,
        read: |m| m.datanode_buffered_bytes.get() as f64,
    },
    MetricDesc {
        name: "datanode_forward_bytes",
        kind: MetricKind::Gauge,
        read: |m| m.datanode_forward_bytes.get() as f64,
    },
    MetricDesc {
        name: "datanode_staging_packets",
        kind: MetricKind::Gauge,
        read: |m| m.datanode_staging_packets.get() as f64,
    },
    MetricDesc {
        name: "client_read_inflight_stripes",
        kind: MetricKind::Gauge,
        read: |m| m.client_read_inflight_stripes.get() as f64,
    },
    MetricDesc {
        name: "fnfa_to_allocation_us_p50",
        kind: MetricKind::Quantile,
        read: |m| m.fnfa_to_allocation_us.quantile(0.50) as f64,
    },
    MetricDesc {
        name: "fnfa_to_allocation_us_p95",
        kind: MetricKind::Quantile,
        read: |m| m.fnfa_to_allocation_us.quantile(0.95) as f64,
    },
    MetricDesc {
        name: "fnfa_to_allocation_us_p99",
        kind: MetricKind::Quantile,
        read: |m| m.fnfa_to_allocation_us.quantile(0.99) as f64,
    },
];

// ---------------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------------

/// One snapshot of every descriptor column at a point in time.
/// `values[i]` corresponds to `DESCRIPTORS[i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryFrame {
    /// Microseconds — `Obs::now_us()` on the emulator, virtual time in
    /// the DES. Comparable within one capture, not across engines.
    pub t_us: u64,
    pub values: Vec<f64>,
}

/// Bounded ring of metric snapshots. Cheap to tick (`sample_at` is one
/// pass of relaxed atomic loads plus a short lock), cheap to hold (the
/// ring evicts oldest frames past `capacity`).
pub struct Sampler {
    metrics: Arc<Metrics>,
    capacity: usize,
    frames: Mutex<VecDeque<TelemetryFrame>>,
}

impl Sampler {
    pub fn new(metrics: Arc<Metrics>, capacity: usize) -> Arc<Self> {
        assert!(capacity > 0, "sampler capacity must be positive");
        Arc::new(Sampler {
            metrics,
            capacity,
            frames: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
        })
    }

    /// Captures one frame stamped `t_us`. Out-of-order stamps are
    /// dropped rather than corrupting rate derivation (two loops may
    /// race to tick a shared sampler).
    pub fn sample_at(&self, t_us: u64) {
        let values: Vec<f64> = DESCRIPTORS.iter().map(|d| (d.read)(&self.metrics)).collect();
        let mut frames = self.frames.lock();
        if frames.back().is_some_and(|last| t_us <= last.t_us) {
            return;
        }
        if frames.len() == self.capacity {
            frames.pop_front();
        }
        frames.push_back(TelemetryFrame { t_us, values });
    }

    pub fn len(&self) -> usize {
        self.frames.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.frames.lock().is_empty()
    }

    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Copies out the retained frames, oldest first.
    pub fn frames(&self) -> Vec<TelemetryFrame> {
        self.frames.lock().iter().cloned().collect()
    }

    /// Derives the per-metric series from the retained frames.
    pub fn series(&self) -> TelemetrySeries {
        TelemetrySeries::from_frames(&self.frames())
    }
}

// ---------------------------------------------------------------------------
// Series
// ---------------------------------------------------------------------------

/// One `(t, value)` observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricPoint {
    pub t_us: u64,
    pub value: f64,
}

/// A point is the pair `[t_us, value]`.
impl ToJson for MetricPoint {
    fn to_json(&self) -> Value {
        (self.t_us, self.value).to_json()
    }
}

impl Json for MetricPoint {
    fn from_json(v: &Value) -> DfsResult<Self> {
        let (t_us, value) = Json::from_json(v)?;
        Ok(MetricPoint { t_us, value })
    }
}

/// All observations of one metric, plus derived rates for counters.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSeries {
    pub name: String,
    pub kind: MetricKind,
    /// Raw sampled values, oldest first.
    pub points: Vec<MetricPoint>,
    /// Counters only: per-interval rate in units/second. `rates[i]`
    /// covers `(points[i].t_us, points[i+1].t_us]` and is stamped at
    /// the interval's end. Empty for gauges and quantiles.
    pub rates: Vec<MetricPoint>,
}

impl MetricSeries {
    /// Indices into `rates` bounding the *active region* — the span from
    /// the first to the last non-zero-rate interval, which excludes the
    /// idle head and tail of a capture. `None` when nothing moved.
    pub fn active_span(&self) -> Option<(usize, usize)> {
        let lo = self.rates.iter().position(|p| p.value > 0.0)?;
        let hi = self.rates.iter().rposition(|p| p.value > 0.0)?;
        Some((lo, hi))
    }
}

/// The full derived series of a capture.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySeries {
    pub series: Vec<MetricSeries>,
}

impl TelemetrySeries {
    pub fn from_frames(frames: &[TelemetryFrame]) -> Self {
        let series = DESCRIPTORS
            .iter()
            .enumerate()
            .map(|(col, desc)| {
                let points: Vec<MetricPoint> = frames
                    .iter()
                    .map(|f| MetricPoint {
                        t_us: f.t_us,
                        value: f.values.get(col).copied().unwrap_or(0.0),
                    })
                    .collect();
                let rates = match desc.kind {
                    MetricKind::Counter => points
                        .windows(2)
                        .map(|w| {
                            let dt_s = (w[1].t_us.saturating_sub(w[0].t_us)) as f64 / 1e6;
                            let dv = (w[1].value - w[0].value).max(0.0);
                            MetricPoint {
                                t_us: w[1].t_us,
                                value: if dt_s > 0.0 { dv / dt_s } else { 0.0 },
                            }
                        })
                        .collect(),
                    _ => Vec::new(),
                };
                MetricSeries {
                    name: desc.name.to_string(),
                    kind: desc.kind,
                    points,
                    rates,
                }
            })
            .collect();
        TelemetrySeries { series }
    }

    pub fn get(&self, name: &str) -> Option<&MetricSeries> {
        self.series.iter().find(|s| s.name == name)
    }

    /// True when no frames were ever captured.
    pub fn is_empty(&self) -> bool {
        self.series.iter().all(|s| s.points.is_empty())
    }

    /// Number of frames the series was derived from.
    pub fn frames_len(&self) -> usize {
        self.series.first().map_or(0, |s| s.points.len())
    }
}

crate::json_struct!(impl Json for MetricSeries {
    "name" => name: String,
    "kind" => kind: MetricKind,
    "points" => points: Vec<MetricPoint>,
    "rates" => rates: Vec<MetricPoint>,
});

/// A series is the bare array of its metrics.
impl ToJson for TelemetrySeries {
    fn to_json(&self) -> Value {
        self.series.to_json()
    }
}

impl Json for TelemetrySeries {
    fn from_json(v: &Value) -> DfsResult<Self> {
        Ok(TelemetrySeries { series: Json::from_json(v)? })
    }
}

// ---------------------------------------------------------------------------
// SLOs
// ---------------------------------------------------------------------------

/// What an objective constrains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SloKind {
    /// The metric's rate, as megabits/second, must stay at or above the
    /// target in every interval of the active region (idle head and
    /// tail excluded). For byte counters.
    #[default]
    ThroughputFloorMbps,
    /// Every non-zero sampled value must stay at or below the target.
    /// For quantile columns (µs).
    QuantileCeilingUs,
    /// The metric's average rate over the whole capture must stay at or
    /// below the target (events/second). For incident counters.
    BurnBudgetPerSec,
}

crate::json_enum!(impl Json for SloKind, fn name {
    "throughput_floor_mbps" => ThroughputFloorMbps,
    "quantile_ceiling_us" => QuantileCeilingUs,
    "burn_budget_per_sec" => BurnBudgetPerSec,
});

/// One declarative objective over one metric.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SloObjective {
    pub name: String,
    pub metric: String,
    pub kind: SloKind,
    pub target: f64,
}

/// One interval that broke its objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloWindow {
    /// Index into the metric's rate (floor/burn) or point (ceiling) vec.
    pub index: usize,
    pub from_us: u64,
    pub to_us: u64,
    pub observed: f64,
}

crate::json_struct!(impl Json for SloWindow {
    "index" => index: usize,
    "from_us" => from_us: u64,
    "to_us" => to_us: u64,
    "observed" => observed: f64,
});

/// Outcome of one objective.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SloObjectiveVerdict {
    pub objective: SloObjective,
    pub pass: bool,
    /// Worst observed value: min rate for floors, max for ceilings,
    /// the average burn for budgets.
    pub observed: f64,
    pub violations: Vec<SloWindow>,
}

crate::json_struct!(impl Json for SloObjectiveVerdict from SloObjectiveVerdict::default(), {
    "name" => objective.name: String,
    "metric" => objective.metric: String,
    "kind" => objective.kind: SloKind,
    "target" => objective.target: f64,
    "pass" => pass: bool,
    "observed" => observed: f64,
    "violations" => violations: Vec<SloWindow>,
});

/// Machine-readable outcome of a full evaluation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SloVerdict {
    pub pass: bool,
    pub objectives: Vec<SloObjectiveVerdict>,
}

crate::json_struct!(impl Json for SloVerdict {
    "pass" => pass: bool,
    "objectives" => objectives: Vec<SloObjectiveVerdict>,
});

impl SloVerdict {
    /// Human-readable table for the shell / soak render.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "slo: {}\n",
            if self.pass { "PASS" } else { "FAIL" }
        ));
        for o in &self.objectives {
            out.push_str(&format!(
                "  {:<26} {:<28} target {:>12.2}  observed {:>12.2}  {}\n",
                o.objective.name,
                format!("{} {}", o.objective.kind.name(), o.objective.metric),
                o.objective.target,
                o.observed,
                if o.pass { "ok" } else { "VIOLATED" },
            ));
            for w in &o.violations {
                out.push_str(&format!(
                    "    window {} [{:.3}s..{:.3}s] observed {:.2}\n",
                    w.index,
                    w.from_us as f64 / 1e6,
                    w.to_us as f64 / 1e6,
                    w.observed,
                ));
            }
        }
        out
    }
}

/// Evaluates a set of objectives against a series.
#[derive(Debug, Clone, PartialEq)]
pub struct SloTracker {
    objectives: Vec<SloObjective>,
}

impl SloTracker {
    pub fn new(objectives: Vec<SloObjective>) -> Self {
        SloTracker { objectives }
    }

    /// The default objectives soak runs and the shell `slo` command
    /// evaluate: a lenient sustained-write floor, an FNFA-gap p99
    /// ceiling, and a recovery burn budget. Deliberately loose — these
    /// flag pathology (a stalled cluster, a runaway recovery storm),
    /// not benchmark regressions (that's `benchmark/`'s job).
    pub fn standard() -> Self {
        SloTracker::new(vec![
            SloObjective {
                name: "sustained_write_throughput".into(),
                metric: "bytes_written".into(),
                kind: SloKind::ThroughputFloorMbps,
                target: 0.5,
            },
            SloObjective {
                name: "fnfa_gap_p99".into(),
                metric: "fnfa_to_allocation_us_p99".into(),
                kind: SloKind::QuantileCeilingUs,
                target: 30_000_000.0,
            },
            SloObjective {
                name: "recovery_burn".into(),
                metric: "recoveries_total".into(),
                kind: SloKind::BurnBudgetPerSec,
                target: 5.0,
            },
        ])
    }

    pub fn objectives(&self) -> &[SloObjective] {
        &self.objectives
    }

    pub fn evaluate(&self, series: &TelemetrySeries) -> SloVerdict {
        let objectives: Vec<SloObjectiveVerdict> = self
            .objectives
            .iter()
            .map(|obj| evaluate_objective(obj, series))
            .collect();
        SloVerdict {
            pass: objectives.iter().all(|o| o.pass),
            objectives,
        }
    }
}

fn evaluate_objective(obj: &SloObjective, series: &TelemetrySeries) -> SloObjectiveVerdict {
    let vacuous = |observed: f64| SloObjectiveVerdict {
        objective: obj.clone(),
        pass: true,
        observed,
        violations: Vec::new(),
    };
    let Some(ms) = series.get(&obj.metric) else {
        return vacuous(0.0);
    };
    match obj.kind {
        SloKind::ThroughputFloorMbps => {
            let Some((lo, hi)) = ms.active_span() else {
                // Nothing ever moved: nothing to sustain.
                return vacuous(0.0);
            };
            let mut observed = f64::INFINITY;
            let mut violations = Vec::new();
            for i in lo..=hi {
                let mbps = ms.rates[i].value * 8.0 / 1e6;
                observed = observed.min(mbps);
                if mbps < obj.target {
                    violations.push(SloWindow {
                        index: i,
                        from_us: ms.points[i].t_us,
                        to_us: ms.rates[i].t_us,
                        observed: mbps,
                    });
                }
            }
            SloObjectiveVerdict {
                objective: obj.clone(),
                pass: violations.is_empty(),
                observed,
                violations,
            }
        }
        SloKind::QuantileCeilingUs => {
            let mut observed = 0.0f64;
            let mut violations = Vec::new();
            for (i, p) in ms.points.iter().enumerate() {
                observed = observed.max(p.value);
                if p.value > obj.target {
                    let from_us = if i > 0 { ms.points[i - 1].t_us } else { p.t_us };
                    violations.push(SloWindow {
                        index: i,
                        from_us,
                        to_us: p.t_us,
                        observed: p.value,
                    });
                }
            }
            SloObjectiveVerdict {
                objective: obj.clone(),
                pass: violations.is_empty(),
                observed,
                violations,
            }
        }
        SloKind::BurnBudgetPerSec => {
            let (Some(first), Some(last)) = (ms.points.first(), ms.points.last()) else {
                return vacuous(0.0);
            };
            let dur_s = last.t_us.saturating_sub(first.t_us) as f64 / 1e6;
            if dur_s <= 0.0 {
                return vacuous(0.0);
            }
            let observed = (last.value - first.value).max(0.0) / dur_s;
            // Name the windows that spent the budget fastest so a
            // failing verdict points at *when* the burn happened.
            let violations: Vec<SloWindow> = ms
                .rates
                .iter()
                .enumerate()
                .filter(|(_, p)| p.value > obj.target)
                .map(|(i, p)| SloWindow {
                    index: i,
                    from_us: ms.points[i].t_us,
                    to_us: p.t_us,
                    observed: p.value,
                })
                .collect();
            SloObjectiveVerdict {
                objective: obj.clone(),
                pass: observed <= obj.target,
                observed,
                violations,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------------------

/// Point-in-time scrape of the registry in the Prometheus text format.
/// Counters and gauges come from [`DESCRIPTORS`]; gauges additionally
/// expose their high-water marks; the FNFA-gap histogram renders as a
/// summary with quantile labels; recoveries render per-cause.
pub fn prometheus_exposition(metrics: &Metrics) -> String {
    let mut out = String::new();
    for d in DESCRIPTORS {
        match d.kind {
            MetricKind::Counter => {
                out.push_str(&format!("# TYPE smarth_{} counter\n", d.name));
                out.push_str(&format!("smarth_{} {}\n", d.name, (d.read)(metrics)));
            }
            MetricKind::Gauge => {
                out.push_str(&format!("# TYPE smarth_{} gauge\n", d.name));
                out.push_str(&format!("smarth_{} {}\n", d.name, (d.read)(metrics)));
            }
            // Quantile columns fold into the summary block below.
            MetricKind::Quantile => {}
        }
    }
    for (name, gauge) in [
        ("packets_in_flight", &metrics.packets_in_flight),
        ("concurrent_pipelines", &metrics.concurrent_pipelines),
        ("datanode_buffered_bytes", &metrics.datanode_buffered_bytes),
        ("datanode_forward_bytes", &metrics.datanode_forward_bytes),
        ("datanode_staging_packets", &metrics.datanode_staging_packets),
        (
            "client_read_inflight_stripes",
            &metrics.client_read_inflight_stripes,
        ),
    ] {
        out.push_str(&format!("# TYPE smarth_{name}_high_water gauge\n"));
        out.push_str(&format!(
            "smarth_{name}_high_water {}\n",
            gauge.high_water()
        ));
    }
    out.push_str("# TYPE smarth_recoveries counter\n");
    for cause in RecoveryCause::ALL {
        out.push_str(&format!(
            "smarth_recoveries{{cause=\"{}\"}} {}\n",
            cause.name(),
            metrics.recoveries(cause)
        ));
    }
    let h = &metrics.fnfa_to_allocation_us;
    out.push_str("# TYPE smarth_fnfa_to_allocation_us summary\n");
    for (label, q) in [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)] {
        out.push_str(&format!(
            "smarth_fnfa_to_allocation_us{{quantile=\"{label}\"}} {}\n",
            h.quantile(q)
        ));
    }
    out.push_str(&format!("smarth_fnfa_to_allocation_us_sum {}\n", h.sum()));
    out.push_str(&format!(
        "smarth_fnfa_to_allocation_us_count {}\n",
        h.count()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampler_with_metrics() -> (Arc<Sampler>, Arc<Metrics>) {
        let metrics = Metrics::new();
        let sampler = Sampler::new(metrics.clone(), 64);
        (sampler, metrics)
    }

    #[test]
    fn sampler_captures_bounded_ordered_frames() {
        let metrics = Metrics::new();
        let sampler = Sampler::new(metrics.clone(), 3);
        for t in [10u64, 20, 30, 40] {
            metrics.bytes_written.add(100);
            sampler.sample_at(t);
        }
        // Out-of-order and duplicate stamps are dropped.
        sampler.sample_at(40);
        sampler.sample_at(5);
        let frames = sampler.frames();
        assert_eq!(frames.len(), 3, "capacity 3 evicts the oldest frame");
        assert_eq!(frames[0].t_us, 20);
        assert_eq!(frames[2].t_us, 40);
        assert_eq!(frames[0].values.len(), DESCRIPTORS.len());
    }

    #[test]
    fn counter_rates_reconstruct_deltas() {
        let (sampler, metrics) = sampler_with_metrics();
        sampler.sample_at(0);
        metrics.bytes_written.add(1_000_000);
        sampler.sample_at(1_000_000); // 1 MB over 1 s
        metrics.bytes_written.add(500_000);
        sampler.sample_at(1_500_000); // 0.5 MB over 0.5 s
        let series = sampler.series();
        let bw = series.get("bytes_written").unwrap();
        assert_eq!(bw.kind, MetricKind::Counter);
        assert_eq!(bw.points.len(), 3);
        assert_eq!(bw.rates.len(), 2);
        assert!((bw.rates[0].value - 1e6).abs() < 1.0);
        assert!((bw.rates[1].value - 1e6).abs() < 1.0);
        assert_eq!(bw.rates[1].t_us, 1_500_000);
        // Integrating the rates recovers the counter delta exactly.
        let mut total = 0.0;
        for (i, r) in bw.rates.iter().enumerate() {
            let dt_s = (r.t_us - bw.points[i].t_us) as f64 / 1e6;
            total += r.value * dt_s;
        }
        assert!((total - 1_500_000.0).abs() < 1.0);
        // Gauges keep raw points and no rates.
        let g = series.get("datanode_staging_packets").unwrap();
        assert_eq!(g.kind, MetricKind::Gauge);
        assert!(g.rates.is_empty());
    }

    #[test]
    fn series_round_trips_through_json() {
        let (sampler, metrics) = sampler_with_metrics();
        sampler.sample_at(100);
        metrics.bytes_written.add(4096);
        metrics.fnfa_to_allocation_us.observe(250);
        metrics.datanode_staging_packets.set(7);
        sampler.sample_at(1_100);
        let series = sampler.series();
        let json = series.to_json().to_string_compact();
        let parsed = TelemetrySeries::from_json(&crate::json::parse(&json).unwrap()).unwrap();
        assert_eq!(parsed, series);
        assert!(!parsed.is_empty());
        assert_eq!(parsed.frames_len(), 2);
    }

    #[test]
    fn throughput_floor_flags_the_slow_window() {
        let (sampler, metrics) = sampler_with_metrics();
        // Idle head, two fast seconds, one slow second, idle tail.
        sampler.sample_at(0);
        sampler.sample_at(1_000_000);
        metrics.bytes_written.add(2_000_000);
        sampler.sample_at(2_000_000);
        metrics.bytes_written.add(2_000_000);
        sampler.sample_at(3_000_000);
        metrics.bytes_written.add(10_000);
        sampler.sample_at(4_000_000);
        sampler.sample_at(5_000_000);
        let series = sampler.series();

        let floor = |mbps: f64| {
            SloTracker::new(vec![SloObjective {
                name: "floor".into(),
                metric: "bytes_written".into(),
                kind: SloKind::ThroughputFloorMbps,
                target: mbps,
            }])
        };
        // 2 MB/s = 16 Mbps sustained; the slow window ran at 0.08 Mbps.
        let verdict = floor(1.0).evaluate(&series);
        assert!(!verdict.pass);
        let obj = &verdict.objectives[0];
        assert_eq!(obj.violations.len(), 1, "only the slow window violates");
        let w = obj.violations[0];
        assert_eq!((w.from_us, w.to_us), (3_000_000, 4_000_000));
        assert!(w.observed < 1.0);
        // The idle head (0..1s) and tail (4..5s) are outside the active
        // region, so a floor below the slow window passes.
        assert!(floor(0.05).evaluate(&series).pass);
        // The verdict JSON round-trips.
        let json = verdict.to_json().to_string_compact();
        let parsed = SloVerdict::from_json(&crate::json::parse(&json).unwrap()).unwrap();
        assert_eq!(parsed, verdict);
    }

    #[test]
    fn quantile_ceiling_and_burn_budget() {
        let (sampler, metrics) = sampler_with_metrics();
        sampler.sample_at(0);
        metrics.fnfa_to_allocation_us.observe(100);
        metrics.record_recovery(RecoveryCause::AckTimeout);
        sampler.sample_at(1_000_000);
        metrics.fnfa_to_allocation_us.observe(90_000);
        for _ in 0..20 {
            metrics.record_recovery(RecoveryCause::ConnectionLost);
        }
        sampler.sample_at(2_000_000);
        let series = sampler.series();

        let ceiling = SloTracker::new(vec![SloObjective {
            name: "gap".into(),
            metric: "fnfa_to_allocation_us_p99".into(),
            kind: SloKind::QuantileCeilingUs,
            target: 10_000.0,
        }]);
        let verdict = ceiling.evaluate(&series);
        assert!(!verdict.pass);
        assert!(verdict.objectives[0].observed >= 90_000.0 * 0.9);
        assert!(!verdict.objectives[0].violations.is_empty());

        // 21 recoveries over 2 s = 10.5/s: busts a 5/s budget, fits 20/s.
        let burn = |budget: f64| {
            SloTracker::new(vec![SloObjective {
                name: "burn".into(),
                metric: "recoveries_total".into(),
                kind: SloKind::BurnBudgetPerSec,
                target: budget,
            }])
        };
        let busted = burn(5.0).evaluate(&series);
        assert!(!busted.pass);
        assert!((busted.objectives[0].observed - 10.5).abs() < 0.1);
        assert!(
            !busted.objectives[0].violations.is_empty(),
            "the burst window is identified"
        );
        assert!(burn(20.0).evaluate(&series).pass);
    }

    #[test]
    fn standard_tracker_passes_a_healthy_run() {
        let (sampler, metrics) = sampler_with_metrics();
        sampler.sample_at(0);
        for t in 1..=5u64 {
            metrics.bytes_written.add(5_000_000);
            metrics.fnfa_to_allocation_us.observe(1_500);
            sampler.sample_at(t * 1_000_000);
        }
        let verdict = SloTracker::standard().evaluate(&sampler.series());
        assert!(verdict.pass, "healthy run fails standard SLOs:\n{}", verdict.render());
        assert_eq!(verdict.objectives.len(), 3);
    }

    #[test]
    fn prometheus_exposition_has_types_and_values() {
        let metrics = Metrics::new();
        metrics.bytes_written.add(12345);
        metrics.datanode_staging_packets.set(4);
        metrics.record_recovery(RecoveryCause::AckTimeout);
        metrics.fnfa_to_allocation_us.observe(1000);
        let text = prometheus_exposition(&metrics);
        assert!(text.contains("# TYPE smarth_bytes_written counter\nsmarth_bytes_written 12345\n"));
        assert!(text.contains("# TYPE smarth_datanode_staging_packets gauge\nsmarth_datanode_staging_packets 4\n"));
        assert!(text.contains("smarth_datanode_staging_packets_high_water 4\n"));
        assert!(text.contains("smarth_recoveries{cause=\"ack_timeout\"} 1\n"));
        assert!(text.contains("smarth_fnfa_to_allocation_us{quantile=\"0.99\"}"));
        assert!(text.contains("smarth_fnfa_to_allocation_us_count 1\n"));
        // Every line is either a comment or `name value` / `name{labels} value`.
        for line in text.lines() {
            assert!(
                line.starts_with("# ") || line.splitn(2, ' ').count() == 2,
                "malformed exposition line: {line}"
            );
        }
    }
}
