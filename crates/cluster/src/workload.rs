//! Workload generation and measurement helpers shared by tests,
//! examples and benchmarks.

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use smarth_client::{DfsClient, UploadReport};
use smarth_core::config::WriteMode;
use smarth_core::error::DfsResult;
use std::time::{Duration, Instant};

use crate::MiniCluster;

/// Deterministic pseudo-random payload (content-checkable workloads).
pub fn random_data(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut data = vec![0u8; len];
    rng.fill_bytes(&mut data);
    data
}

/// Waits, for at most `timeout`, until the namenode lists `replicas`
/// locations for every block of `path`, and says whether it did. A
/// replica behind its pipeline's head reports after its ack, so a put can
/// return before the namenode lists it; the head is listed by then.
pub fn await_replicas(
    client: &DfsClient,
    path: &str,
    replicas: usize,
    timeout: Duration,
) -> DfsResult<bool> {
    let deadline = Instant::now() + timeout;
    loop {
        let stream = client.open(path)?;
        let listed = stream.block_layout().iter().all(|lb| lb.targets.len() >= replicas);
        if listed || Instant::now() >= deadline {
            return Ok(listed);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A repeatable upload workload: `files` files of `file_size` bytes.
#[derive(Debug, Clone)]
pub struct UploadWorkload {
    pub files: usize,
    pub file_size: usize,
    pub seed: u64,
    /// Warm-up uploads before measurement so SMARTH's speed records
    /// exist (the paper's clusters are long-running; a cold client falls
    /// back to the default placement on its first blocks).
    pub warmup_files: usize,
}

impl UploadWorkload {
    pub fn new(files: usize, file_size: usize) -> Self {
        Self {
            files,
            file_size,
            seed: 42,
            warmup_files: 1,
        }
    }

    /// Runs the workload on a fresh client, returning per-file reports
    /// (warm-ups excluded).
    pub fn run(&self, cluster: &MiniCluster, mode: WriteMode) -> DfsResult<Vec<UploadReport>> {
        let client = cluster.client()?;
        for i in 0..self.warmup_files {
            let data = random_data(self.seed ^ 0xDEAD ^ i as u64, self.file_size.min(1 << 20));
            client.put(&format!("/warmup/{}/{i}", mode.name()), &data, mode)?;
            client.flush_speed_report()?;
        }
        let mut reports = Vec::with_capacity(self.files);
        for i in 0..self.files {
            let data = random_data(self.seed + i as u64, self.file_size);
            let report = client.put(&format!("/data/{}/{i}", mode.name()), &data, mode)?;
            client.flush_speed_report()?;
            reports.push(report);
        }
        Ok(reports)
    }
}

/// Aggregate view over a set of upload reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UploadSummary {
    pub total_bytes: u64,
    pub total_secs: f64,
    pub mean_throughput_mbps: f64,
    pub recoveries: u64,
}

pub fn summarize(reports: &[UploadReport]) -> UploadSummary {
    let total_bytes: u64 = reports.iter().map(|r| r.bytes).sum();
    let total_secs: f64 = reports.iter().map(|r| r.elapsed.as_secs_f64()).sum();
    let recoveries: u64 = reports.iter().map(|r| r.stats.recoveries).sum();
    UploadSummary {
        total_bytes,
        total_secs,
        mean_throughput_mbps: if total_secs > 0.0 {
            total_bytes as f64 * 8.0 / 1e6 / total_secs
        } else {
            f64::INFINITY
        },
        recoveries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_data_is_deterministic_and_varied() {
        let a = random_data(1, 4096);
        let b = random_data(1, 4096);
        let c = random_data(2, 4096);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Not constant.
        assert!(a.iter().any(|&x| x != a[0]));
    }

    #[test]
    fn summarize_reduces_reports() {
        use smarth_client::StreamStats;
        use std::time::Duration;
        let reports = vec![
            UploadReport {
                path: "/a".into(),
                bytes: 1_000_000,
                elapsed: Duration::from_secs(1),
                stats: StreamStats {
                    recoveries: 1,
                    ..Default::default()
                },
            },
            UploadReport {
                path: "/b".into(),
                bytes: 3_000_000,
                elapsed: Duration::from_secs(3),
                stats: StreamStats::default(),
            },
        ];
        let s = summarize(&reports);
        assert_eq!(s.total_bytes, 4_000_000);
        assert!((s.total_secs - 4.0).abs() < 1e-9);
        assert!((s.mean_throughput_mbps - 8.0).abs() < 1e-9);
        assert_eq!(s.recoveries, 1);
    }
}
