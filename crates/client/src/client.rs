//! `DfsClient` — the user-facing handle: session registration, the
//! 3-second speed-report heartbeat (§III-B), stream creation and the
//! `put`/`get` convenience paths used by every example and benchmark.

use crate::istream::{DfsInputStream, SalvageReport};
use crate::ostream::{DfsOutputStream, StreamStats};
use crate::rpc::NamenodeClient;
use parking_lot::Mutex;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use smarth_core::config::{DfsConfig, WriteMode};
use smarth_core::error::{DfsError, DfsResult};
use smarth_core::ids::ClientId;
use smarth_core::obs::Obs;
use smarth_core::proto::FileStatus;
use smarth_core::speed::ClientSpeedTracker;
use smarth_fabric::{Fabric, StopSignal};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shared context between the client handle, its streams and the
/// heartbeat thread.
pub(crate) struct ClientCtx {
    pub fabric: Fabric,
    pub host: String,
    #[allow(dead_code)] // recorded for future rack-aware client features
    pub rack: String,
    pub config: DfsConfig,
    pub rpc: NamenodeClient,
    pub id: ClientId,
    /// §III-B: per-first-datanode transfer speeds, drained every
    /// heartbeat.
    pub tracker: Mutex<ClientSpeedTracker>,
    /// Held from a report's drain to its answer, so a report that finds
    /// the tracker empty still returns after the one in flight.
    reporting: Mutex<()>,
    pub rng: Mutex<ChaCha8Rng>,
    /// Observability handle shared by every stream and pipeline of this
    /// client (disabled unless the caller opted in).
    pub obs: Obs,
}

/// Outcome of a `put` — what the paper's experiments measure.
#[derive(Debug, Clone)]
pub struct UploadReport {
    pub path: String,
    pub bytes: u64,
    pub elapsed: Duration,
    pub stats: StreamStats,
}

impl UploadReport {
    /// Mean goodput of the upload.
    pub fn throughput_mbps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return f64::INFINITY;
        }
        self.bytes as f64 * 8.0 / 1e6 / self.elapsed.as_secs_f64()
    }
}

/// A DFS client session bound to one fabric host.
pub struct DfsClient {
    ctx: Arc<ClientCtx>,
    stop: Arc<StopSignal>,
    heartbeat: Option<JoinHandle<()>>,
}

impl DfsClient {
    /// Registers with the namenode and starts the heartbeat thread.
    pub fn connect(
        fabric: &Fabric,
        host: &str,
        rack: &str,
        nn_client_addr: &str,
        config: DfsConfig,
        seed: u64,
    ) -> DfsResult<Self> {
        Self::connect_with_obs(
            fabric,
            host,
            rack,
            nn_client_addr,
            config,
            seed,
            Obs::disabled(),
        )
    }

    /// [`Self::connect`] with an observability handle: every stream and
    /// pipeline of this client emits events and metrics through it.
    pub fn connect_with_obs(
        fabric: &Fabric,
        host: &str,
        rack: &str,
        nn_client_addr: &str,
        config: DfsConfig,
        seed: u64,
        obs: Obs,
    ) -> DfsResult<Self> {
        config.validate().map_err(DfsError::Internal)?;
        let rpc = NamenodeClient::connect(fabric, host, nn_client_addr, config.rpc_retry.clone())?;
        let id = rpc.register(host, rack)?;
        let ctx = Arc::new(ClientCtx {
            fabric: fabric.clone(),
            host: host.to_string(),
            rack: rack.to_string(),
            tracker: Mutex::new(ClientSpeedTracker::new(config.speed_ewma_alpha)),
            reporting: Mutex::new(()),
            rng: Mutex::new(ChaCha8Rng::seed_from_u64(seed)),
            config,
            rpc,
            id,
            obs,
        });

        let stop = Arc::new(StopSignal::new());
        let heartbeat = {
            let ctx = Arc::clone(&ctx);
            let stop = Arc::clone(&stop);
            let interval = Duration::from_secs_f64(
                ctx.config.heartbeat_interval.as_secs_f64(),
            )
            .max(Duration::from_millis(5));
            std::thread::Builder::new()
                .name(format!("client-{host}-heartbeat"))
                .spawn(move || {
                    while !stop.wait_timeout(interval) {
                        // A transient namenode outage must not kill the
                        // speed-report loop for the life of the client;
                        // drop this batch and try again next interval.
                        let _ = report_speeds(&ctx);
                    }
                })
                .map_err(|e| DfsError::internal(format!("spawn heartbeat: {e}")))?
        };

        Ok(Self {
            ctx,
            stop,
            heartbeat: Some(heartbeat),
        })
    }

    pub fn id(&self) -> ClientId {
        self.ctx.id
    }

    pub fn config(&self) -> &DfsConfig {
        &self.ctx.config
    }

    /// Creates a file and returns a writable stream using the given
    /// protocol.
    pub fn create(&self, path: &str, mode: WriteMode) -> DfsResult<DfsOutputStream> {
        self.create_with(path, mode, self.ctx.config.replication as u32, false)
    }

    pub fn create_with(
        &self,
        path: &str,
        mode: WriteMode,
        replication: u32,
        overwrite: bool,
    ) -> DfsResult<DfsOutputStream> {
        let (file_id, first_block) = self.ctx.rpc.create_with_block(
            self.ctx.id,
            path,
            replication,
            self.ctx.config.block_size.as_u64(),
            overwrite,
            mode,
        )?;
        Ok(DfsOutputStream::new(
            Arc::clone(&self.ctx),
            file_id,
            mode,
            replication as usize,
            first_block,
        ))
    }

    /// Uploads a byte buffer — the equivalent of `hdfs dfs -put` that
    /// every experiment in §V times.
    pub fn put(&self, path: &str, data: &[u8], mode: WriteMode) -> DfsResult<UploadReport> {
        let start = Instant::now();
        let mut stream = self.create(path, mode)?;
        // Feed in app-sized chunks so production interleaves with
        // transmission like a real `put` reading a local file.
        for chunk in data.chunks(256 * 1024) {
            stream.write(chunk)?;
        }
        let stats = stream.close()?;
        Ok(UploadReport {
            path: path.to_string(),
            bytes: data.len() as u64,
            elapsed: start.elapsed(),
            stats,
        })
    }

    /// Opens a file for reading: block layout and speed-ordered replica
    /// sets resolved once, striped/readahead reads over them.
    pub fn open(&self, path: &str) -> DfsResult<DfsInputStream> {
        DfsInputStream::open(Arc::clone(&self.ctx), path)
    }

    /// Reads a whole file back, verifying checksums, striping each block
    /// across its replica set and failing over on dead, stalled or
    /// corrupt replicas.
    pub fn get(&self, path: &str) -> DfsResult<Vec<u8>> {
        self.open(path)?.read_all()
    }

    /// Reads `len` bytes starting at `offset` — a positional read
    /// (`pread`) touching only the blocks that overlap the range.
    pub fn get_range(&self, path: &str, offset: u64, len: u64) -> DfsResult<Vec<u8>> {
        self.open(path)?.read_range(offset, len)
    }

    /// Degraded read: recovers every intact block of a damaged file and
    /// maps the unrecoverable ranges instead of erroring on the first
    /// dead replica set.
    pub fn get_salvage(&self, path: &str) -> DfsResult<SalvageReport> {
        self.open(path)?.salvage()
    }

    pub fn file_info(&self, path: &str) -> DfsResult<Option<FileStatus>> {
        self.ctx.rpc.file_info(path)
    }

    pub fn exists(&self, path: &str) -> DfsResult<bool> {
        Ok(self.ctx.rpc.file_info(path)?.is_some())
    }

    pub fn list(&self, path: &str) -> DfsResult<Vec<FileStatus>> {
        self.ctx.rpc.list(path)
    }

    pub fn delete(&self, path: &str) -> DfsResult<bool> {
        self.ctx.rpc.delete(path)
    }

    /// Scrapes the namenode's telemetry plane: per-node cluster rows,
    /// the Prometheus-style text exposition, and the JSON series.
    pub fn get_telemetry(
        &self,
    ) -> DfsResult<(Vec<smarth_core::proto::NodeTelemetryRow>, String, String)> {
        self.ctx.rpc.get_telemetry()
    }

    /// Current locally tracked speed records (diagnostics).
    pub fn known_speeds(&self) -> usize {
        self.ctx.tracker.lock().len()
    }

    /// Forces an immediate speed report instead of waiting for the next
    /// heartbeat tick (tests and benches use this to avoid sleeping).
    pub fn flush_speed_report(&self) -> DfsResult<()> {
        report_speeds(&self.ctx)
    }
}

/// Sends the speed records observed since the last report (§III-B).
/// When this returns, every record observed before the call has reached
/// the namenode or failed to, including those a concurrent report took.
fn report_speeds(ctx: &ClientCtx) -> DfsResult<()> {
    let _reporting = ctx.reporting.lock();
    let records = ctx.tracker.lock().drain_report();
    if records.is_empty() {
        return Ok(());
    }
    ctx.rpc.report_speeds(ctx.id, records)
}

impl Drop for DfsClient {
    fn drop(&mut self) {
        self.stop.stop();
        if let Some(h) = self.heartbeat.take() {
            let _ = h.join();
        }
    }
}
