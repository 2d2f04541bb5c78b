//! Deterministic fault-plan replay: load a saved soak report, re-run
//! its echoed profile verbatim against a fresh [`crate::MiniCluster`],
//! and check that the per-window recovery-cause counts come out
//! identical.
//!
//! Soak reports echo their full [`SoakConfig`] (including the
//! [`crate::FaultPlan`]), so the `<id>.soak.json` file alone is enough
//! to reproduce the run — no shell history, no source-code spelunking.
//! For op-budgeted profiles with byte-offset fault triggers (the
//! [`SoakConfig::deterministic`] family) the recovery schedule is exact:
//! every fault lands at the same byte of the same block, so each window
//! must report the same recovery causes, count for count. Wall-clock
//! profiles are still replayable, but only their plan is exact, not
//! their timing — the comparison is skipped unless the saved budget is
//! op-counted.

use crate::soak::{self, CauseCounts, SoakConfig, SoakReport, WindowStats};
use smarth_core::error::{DfsError, DfsResult};
use smarth_core::json::{self, Value};
use smarth_core::obs::RecoveryCause;
use std::path::Path;

/// The result of replaying one saved soak report.
#[derive(Debug)]
pub struct ReplayOutcome {
    pub id: String,
    pub seed: u64,
    /// Recovery-cause counts per window as recorded in the saved file.
    pub saved: Vec<CauseCounts>,
    /// The same counts from the fresh run.
    pub replayed: Vec<CauseCounts>,
    /// Whether the saved profile is exact enough to compare window
    /// counts (op-budgeted). Wall-clock profiles replay the plan but
    /// skip the assertion.
    pub comparable: bool,
    pub mismatches: Vec<String>,
    /// The fresh run's full report.
    pub report: SoakReport,
}

impl ReplayOutcome {
    /// True when the replay reproduced the saved recovery schedule
    /// (vacuously true for non-comparable profiles).
    pub fn matches(&self) -> bool {
        self.mismatches.is_empty()
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "replay {} — seed {} — {} saved windows vs {} replayed\n",
            self.id,
            self.seed,
            self.saved.len(),
            self.replayed.len()
        ));
        if !self.comparable {
            out.push_str(
                "  wall-clock profile: plan replayed, window counts not compared\n",
            );
        } else if self.mismatches.is_empty() {
            out.push_str("  recovery schedule reproduced exactly\n");
        } else {
            for m in &self.mismatches {
                out.push_str(&format!("  MISMATCH: {m}\n"));
            }
        }
        for (i, (a, b)) in self.saved.iter().zip(&self.replayed).enumerate() {
            let fmt = |counts: &CauseCounts| {
                RecoveryCause::ALL
                    .iter()
                    .zip(counts.0)
                    .filter(|(_, n)| *n > 0)
                    .map(|(c, n)| format!("{}={n}", c.name()))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            out.push_str(&format!(
                "  window {i}: saved [{}] replayed [{}]\n",
                fmt(a),
                fmt(b)
            ));
        }
        out
    }
}

/// Replays a parsed soak report. The fresh run uses the echoed config
/// verbatim — same seed, same plan, same budget.
pub fn replay_json(saved: &Value) -> DfsResult<ReplayOutcome> {
    let id: String = json::read(saved, "id")?;
    let cfg: SoakConfig = json::read(saved, "config")?;
    let windows: Vec<WindowStats> = json::read(saved, "windows")?;
    let saved_windows: Vec<CauseCounts> = windows.iter().map(|w| w.recoveries).collect();
    let report = soak::run(&cfg)?;
    let replayed_windows: Vec<CauseCounts> = report.windows.iter().map(|w| w.recoveries).collect();

    let comparable = matches!(cfg.budget, soak::Budget::OpsPerClient(_));
    let mut mismatches = Vec::new();
    if comparable {
        if saved_windows.len() != replayed_windows.len() {
            mismatches.push(format!(
                "window count diverged: saved {} vs replayed {}",
                saved_windows.len(),
                replayed_windows.len()
            ));
        }
        for (i, (a, b)) in saved_windows.iter().zip(&replayed_windows).enumerate() {
            if a != b {
                let diffs: Vec<String> = RecoveryCause::ALL
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| a.0[*j] != b.0[*j])
                    .map(|(j, c)| format!("{} {} → {}", c.name(), a.0[j], b.0[j]))
                    .collect();
                mismatches.push(format!("window {i}: {}", diffs.join(", ")));
            }
        }
    }

    Ok(ReplayOutcome {
        id,
        seed: report.seed,
        saved: saved_windows,
        replayed: replayed_windows,
        comparable,
        mismatches,
        report,
    })
}

/// Loads `<id>.soak.json` from disk and replays it.
pub fn replay_file(path: &Path) -> DfsResult<ReplayOutcome> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| DfsError::internal(format!("read {}: {e}", path.display())))?;
    let saved = json::parse(&text)
        .map_err(|e| DfsError::codec(format!("parse {}: {e}", path.display())))?;
    replay_json(&saved)
}
