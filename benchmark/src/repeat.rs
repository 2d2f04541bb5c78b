//! The repeatability tool behind `repeat.sh`: runs sets of measured
//! passes back to back and judges every end-to-end metric on every
//! workload the way the PR driver does — the distance between the first
//! and third quartile of a set as a share of its median against the
//! metric's bound in `BENCHMARK.json`, and the second set's median
//! against the first's.

use crate::metrics::{END_TO_END, WORKLOADS};
use crate::stats::{iqr_share, median, quartiles};
use crate::Options;
use smarth_core::json::{self, ObjectBuilder, Value};
use std::collections::BTreeMap;
use std::process::Command;

pub struct Plan {
    pub sets: usize,
    pub runs: usize,
}

impl Default for Plan {
    fn default() -> Self {
        Plan { sets: 2, runs: 5 }
    }
}

/// One measured pass in a child process; the metric values of its
/// result line, or `None` when the run failed.
fn one_run(opt: &Options, workload: &str, seed: u64) -> Option<BTreeMap<String, f64>> {
    let exe = std::env::current_exe().expect("own path");
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &opt.seconds.to_string(), "--trace", "0"])
        .arg("--out-dir")
        .arg(&opt.out_dir)
        .output()
        .expect("spawn a run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = json::parse(stdout.lines().last()?).ok()?;
    if !out.status.success() || line.get("correct").as_bool() != Some(true) {
        return None;
    }
    let Value::Object(fields) = line.get("metrics") else {
        return None;
    };
    Some(
        fields
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value").as_f64()?)))
            .collect(),
    )
}

/// Runs the plan; true when every metric on every workload passed. The
/// bounds are `BENCHMARK.json`'s: a self-test holds the dictionary in
/// `metrics.rs` equal to it.
pub fn run(plan: &Plan, opt: &Options) -> bool {
    assert!(
        plan.sets >= 1 && plan.runs >= 2,
        "need at least one set of two runs"
    );
    let workloads: Vec<&str> = match &opt.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    // samples[workload][metric][set] = one value per run.
    let mut samples: BTreeMap<&str, BTreeMap<String, Vec<Vec<f64>>>> = BTreeMap::new();
    let mut failed_runs = 0usize;
    for set in 0..plan.sets {
        for run in 0..plan.runs {
            // Each run of a set has its own seed; both sets use the same
            // seeds, so their medians are of the same inputs.
            let seed = opt.seed + run as u64;
            for &w in &workloads {
                eprintln!("set {} run {} seed {seed} {w}", set + 1, run + 1);
                match one_run(opt, w, seed) {
                    Some(values) => {
                        for (metric, value) in values {
                            let sets = samples.entry(w).or_default().entry(metric).or_default();
                            sets.resize(plan.sets, Vec::new());
                            sets[set].push(value);
                        }
                    }
                    None => {
                        eprintln!("  run failed");
                        failed_runs += 1;
                    }
                }
            }
        }
    }

    let mut all_pass = failed_runs == 0;
    let mut rows = Vec::new();
    println!(
        "{:<16} {:<20} {:>3} {:>12} {:>12} {:>12} {:>9} {:>9} {:>6}  verdict",
        "workload", "metric", "set", "q1", "median", "q3", "iqr/med", "range/med", "bound"
    );
    for &w in &workloads {
        for m in &END_TO_END {
            let Some(sets) = samples.get(w).and_then(|s| s.get(m.name)) else {
                continue;
            };
            let (bound, higher_better) = (m.bound, m.better == "higher");
            let medians: Vec<f64> = sets.iter().map(|s| median(s)).collect();
            let mut pass = sets.iter().all(|s| s.len() == plan.runs);
            let mut set_rows = Vec::new();
            for (i, s) in sets.iter().enumerate().filter(|(_, s)| s.len() >= 2) {
                let [q1, q2, q3] = quartiles(s);
                let spread = iqr_share(s);
                let range = s.iter().copied().fold(f64::MIN, f64::max)
                    - s.iter().copied().fold(f64::MAX, f64::min);
                // The driver does not hold set-up time to its spread,
                // only to its drift.
                let spread_ok = m.name == "setup_s" || spread <= bound;
                // Between sets: the later median no worse than the
                // first by more than the bound.
                let drift = if higher_better {
                    (medians[0] - medians[i]) / medians[0]
                } else {
                    (medians[i] - medians[0]) / medians[0]
                };
                let ok = spread_ok && drift <= bound;
                pass &= ok;
                println!(
                    "{w:<16} {:<20} {:>3} {q1:>12.4} {q2:>12.4} {q3:>12.4} {:>8.2}% {:>8.2}% {:>5.0}%  {}",
                    m.name,
                    i + 1,
                    spread * 100.0,
                    range / q2 * 100.0,
                    bound * 100.0,
                    if ok { "PASS" } else { "FAIL" }
                );
                set_rows.push(
                    ObjectBuilder::new()
                        .field("values", s.clone())
                        .field("q1", q1)
                        .field("median", q2)
                        .field("q3", q3)
                        .field("iqr_over_median", spread)
                        .field("range_over_median", range / q2)
                        .field("drift_from_first_set", drift)
                        .build(),
                );
            }
            all_pass &= pass;
            rows.push(
                ObjectBuilder::new()
                    .field("workload", w)
                    .field("metric", m.name)
                    .field("unit", m.unit)
                    .field("bound", bound)
                    .field("pass", pass)
                    .field("sets", Value::Array(set_rows))
                    .build(),
            );
        }
    }
    let doc = ObjectBuilder::new()
        .field("seed", opt.seed)
        .field("sets", plan.sets)
        .field("runs", plan.runs)
        .field("seconds", opt.seconds)
        .field("failed_runs", failed_runs)
        .field("pass", all_pass)
        .field("rows", Value::Array(rows))
        .build();
    let path = opt.out_dir.join(format!("spread-seed{}.json", opt.seed));
    match std::fs::create_dir_all(&opt.out_dir)
        .and_then(|()| std::fs::write(&path, doc.to_string_pretty() + "\n"))
    {
        Ok(()) => println!("saved {}", path.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            all_pass = false;
        }
    }
    println!("{}", if all_pass { "PASS" } else { "FAIL" });
    all_pass
}
