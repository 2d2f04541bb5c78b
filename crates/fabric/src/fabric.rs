//! The fabric itself: named hosts with shaped NICs, listeners, duplex
//! streams, rack-pair throttles and fault injection.
//!
//! The fabric replaces both the EC2 network and the `tc` tooling of the
//! paper's evaluation:
//!
//! * each host gets an ingress and an egress [`TokenBucket`] sized to its
//!   instance NIC (Table I) — concurrent flows through one host share it;
//! * an optional cross-rack throttle adds a per-host-pair bucket in each
//!   direction for pairs on different racks (§V-B.1's two-rack setup);
//! * per-host throttles (§V-B.2's contention scenario) simply lower that
//!   host's NIC buckets;
//! * [`Fabric::kill_host`] and [`Fabric::cut_link`] break live streams
//!   the way a crashed VM or unplugged link would, which is what the
//!   fault-tolerance tests (Algorithms 3/4) exercise.

use crate::bucket::TokenBucket;
use crate::channel::ByteChannel;
use bytes::Bytes;
use crossbeam_channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use smarth_core::error::{DfsError, DfsResult};
use smarth_core::units::Bandwidth;
use smarth_core::wire::FrameIo;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Tuning knobs of a fabric instance.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// One-way propagation latency applied to every stream chunk.
    pub latency: Duration,
    /// Socket buffer per stream direction (bounds sender run-ahead).
    pub socket_buffer: usize,
    /// Shaping granularity: streams draw tokens in chunks of this size.
    pub chunk_size: usize,
}

#[derive(Debug)]
struct Host {
    name: String,
    rack: String,
    /// Unthrottled NIC rate (instance capability).
    nic: Bandwidth,
    egress: Arc<TokenBucket>,
    ingress: Arc<TokenBucket>,
    alive: AtomicBool,
}

struct Inner {
    config: FabricConfig,
    hosts: Mutex<HashMap<String, Arc<Host>>>,
    listeners: Mutex<HashMap<String, Sender<FabricStream>>>,
    cross_rack: Mutex<Option<Bandwidth>>,
    /// Directional pair throttles, created lazily per (src,dst).
    pair_buckets: Mutex<HashMap<(String, String), Arc<TokenBucket>>>,
    /// Every channel ever created, tagged with its two endpoints, for
    /// fault injection. Weak so finished streams free their memory.
    channels: Mutex<Vec<(String, String, Weak<ByteChannel>)>>,
    /// Host pairs currently partitioned: existing streams between them
    /// are broken and new connects are refused until healed. Stored as
    /// unordered pairs (both orientations blocked).
    partitions: Mutex<std::collections::HashSet<(String, String)>>,
    closed: AtomicBool,
}

fn pair_key(a: &str, b: &str) -> (String, String) {
    if a <= b {
        (a.to_string(), b.to_string())
    } else {
        (b.to_string(), a.to_string())
    }
}

/// Handle to an emulated network. Cheap to clone.
#[derive(Clone)]
pub struct Fabric {
    inner: Arc<Inner>,
}

impl Fabric {
    pub fn new(config: FabricConfig) -> Self {
        Self {
            inner: Arc::new(Inner {
                config,
                hosts: Mutex::new(HashMap::new()),
                listeners: Mutex::new(HashMap::new()),
                cross_rack: Mutex::new(None),
                pair_buckets: Mutex::new(HashMap::new()),
                channels: Mutex::new(Vec::new()),
                partitions: Mutex::new(std::collections::HashSet::new()),
                closed: AtomicBool::new(false),
            }),
        }
    }

    /// Registers a host with a NIC of the given bandwidth (both
    /// directions). Panics on duplicate names — scenario bugs, not
    /// runtime faults.
    pub fn add_host(&self, name: &str, rack: &str, nic: Bandwidth) {
        let host = Arc::new(Host {
            name: name.to_string(),
            rack: rack.to_string(),
            nic,
            egress: Arc::new(TokenBucket::new(nic)),
            ingress: Arc::new(TokenBucket::new(nic)),
            alive: AtomicBool::new(true),
        });
        let prev = self.inner.hosts.lock().insert(name.to_string(), host);
        assert!(prev.is_none(), "duplicate host {name}");
    }

    /// Applies (or lifts, with `None`) a `tc`-style throttle on a host's
    /// NIC, both directions. The effective rate is `min(nic, throttle)`.
    pub fn throttle_host(&self, name: &str, throttle: Option<Bandwidth>) -> DfsResult<()> {
        let hosts = self.inner.hosts.lock();
        let host = hosts
            .get(name)
            .ok_or_else(|| DfsError::internal(format!("unknown host {name}")))?;
        let rate = match throttle {
            Some(t) => host.nic.min(t),
            None => host.nic,
        };
        host.egress.set_rate(rate);
        host.ingress.set_rate(rate);
        Ok(())
    }

    /// Sets the cross-rack throttle applied to all traffic between hosts
    /// on different racks (the two-rack experiments). Affects only
    /// connections opened afterwards plus existing pair buckets.
    pub fn set_cross_rack_throttle(&self, bw: Option<Bandwidth>) {
        *self.inner.cross_rack.lock() = bw;
        let buckets = self.inner.pair_buckets.lock();
        for b in buckets.values() {
            b.set_rate(bw.unwrap_or_else(Bandwidth::unlimited));
        }
    }

    pub fn is_alive(&self, name: &str) -> bool {
        self.inner
            .hosts
            .lock()
            .get(name)
            .is_some_and(|h| h.alive.load(Ordering::SeqCst))
    }

    /// Starts listening on `addr` (format `host:port`). The host part
    /// must be a registered host.
    pub fn listen(&self, addr: &str) -> DfsResult<Listener> {
        let host = host_of(addr)?;
        if !self.inner.hosts.lock().contains_key(host) {
            return Err(DfsError::internal(format!(
                "listen on unknown host {host}"
            )));
        }
        let (tx, rx) = unbounded();
        let prev = self
            .inner
            .listeners
            .lock()
            .insert(addr.to_string(), tx);
        assert!(prev.is_none(), "duplicate listener on {addr}");
        Ok(Listener {
            addr: addr.to_string(),
            rx,
        })
    }

    /// Stops listening on `addr`: connections are refused from now on,
    /// and an `accept` blocked on the listener returns an error once it
    /// has drained what was already queued — how a server wakes its
    /// accept loop to stop it.
    pub fn close_listener(&self, addr: &str) {
        self.inner.listeners.lock().remove(addr);
    }

    /// Opens a duplex stream from `from_host` to the listener at
    /// `to_addr`, shaped by both hosts' NICs and any pair throttle.
    pub fn connect(&self, from_host: &str, to_addr: &str) -> DfsResult<FabricStream> {
        if self.inner.closed.load(Ordering::SeqCst) {
            return Err(DfsError::connection_lost("fabric shut down"));
        }
        let to_host = host_of(to_addr)?.to_string();
        let (src, dst) = {
            let hosts = self.inner.hosts.lock();
            let src = hosts
                .get(from_host)
                .ok_or_else(|| DfsError::internal(format!("unknown host {from_host}")))?
                .clone();
            let dst = hosts
                .get(&to_host)
                .ok_or_else(|| DfsError::internal(format!("unknown host {to_host}")))?
                .clone();
            (src, dst)
        };
        if !src.alive.load(Ordering::SeqCst) {
            return Err(DfsError::connection_lost(format!("{from_host} is down")));
        }
        if !dst.alive.load(Ordering::SeqCst) {
            return Err(DfsError::connection_lost(format!("{to_host} is down")));
        }
        if self
            .inner
            .partitions
            .lock()
            .contains(&pair_key(from_host, &to_host))
        {
            return Err(DfsError::connection_lost(format!(
                "link {from_host}<->{to_host} partitioned"
            )));
        }

        let cfg = &self.inner.config;
        let fwd = Arc::new(ByteChannel::new(cfg.socket_buffer, cfg.latency));
        let rev = Arc::new(ByteChannel::new(cfg.socket_buffer, cfg.latency));
        {
            let mut chans = self.inner.channels.lock();
            chans.push((src.name.clone(), dst.name.clone(), Arc::downgrade(&fwd)));
            chans.push((dst.name.clone(), src.name.clone(), Arc::downgrade(&rev)));
            // Opportunistic GC of finished channels.
            if chans.len() > 4096 {
                chans.retain(|(_, _, w)| w.strong_count() > 0);
            }
        }

        let fwd_buckets = self.path_buckets(&src, &dst);
        let rev_buckets = self.path_buckets(&dst, &src);

        let client_end = FabricStream {
            local: src.name.clone(),
            peer: dst.name.clone(),
            out: Arc::clone(&fwd),
            inn: Arc::clone(&rev),
            out_buckets: fwd_buckets,
            chunk: cfg.chunk_size,
            read_deadline: None,
        };
        let server_end = FabricStream {
            local: dst.name.clone(),
            peer: src.name.clone(),
            out: rev,
            inn: fwd,
            out_buckets: rev_buckets,
            chunk: cfg.chunk_size,
            read_deadline: None,
        };

        let listeners = self.inner.listeners.lock();
        let tx = listeners
            .get(to_addr)
            .ok_or_else(|| DfsError::connection_lost(format!("nothing listening on {to_addr}")))?;
        tx.send(server_end)
            .map_err(|_| DfsError::connection_lost(format!("listener on {to_addr} closed")))?;
        Ok(client_end)
    }

    fn path_buckets(&self, src: &Arc<Host>, dst: &Arc<Host>) -> Vec<Arc<TokenBucket>> {
        let mut buckets = vec![Arc::clone(&src.egress), Arc::clone(&dst.ingress)];
        if src.rack != dst.rack {
            if let Some(bw) = *self.inner.cross_rack.lock() {
                let key = (src.name.clone(), dst.name.clone());
                let mut pairs = self.inner.pair_buckets.lock();
                let bucket = pairs
                    .entry(key)
                    .or_insert_with(|| Arc::new(TokenBucket::new(bw)));
                buckets.push(Arc::clone(bucket));
            }
        }
        buckets
    }

    /// Simulates a host crash: all current streams touching it break and
    /// future connects involving it are refused.
    pub fn kill_host(&self, name: &str) {
        if let Some(h) = self.inner.hosts.lock().get(name) {
            h.alive.store(false, Ordering::SeqCst);
        }
        let reason = format!("host {name} killed");
        for (a, b, chan) in self.inner.channels.lock().iter() {
            if a == name || b == name {
                if let Some(c) = chan.upgrade() {
                    c.break_with(&reason);
                }
            }
        }
        self.inner.listeners.lock().retain(|addr, _| {
            host_of(addr).map(|h| h != name).unwrap_or(true)
        });
    }

    /// Revives a previously killed host (used by churn tests). Existing
    /// broken streams stay broken; new connections work again.
    pub fn revive_host(&self, name: &str) {
        if let Some(h) = self.inner.hosts.lock().get(name) {
            h.alive.store(true, Ordering::SeqCst);
        }
    }

    /// Breaks every live stream between two hosts without killing either
    /// (a cable pull).
    pub fn cut_link(&self, a: &str, b: &str) {
        let reason = format!("link {a}<->{b} cut");
        for (x, y, chan) in self.inner.channels.lock().iter() {
            if (x == a && y == b) || (x == b && y == a) {
                if let Some(c) = chan.upgrade() {
                    c.break_with(&reason);
                }
            }
        }
    }

    /// Partitions two hosts: every live stream between them breaks
    /// *and* new connects in either direction are refused until
    /// [`Self::heal_link`]. Unlike [`Self::cut_link`], this holds
    /// against a reconnecting peer — the retry layer cannot sneak a
    /// fresh stream through.
    pub fn partition_link(&self, a: &str, b: &str) {
        self.inner.partitions.lock().insert(pair_key(a, b));
        self.cut_link(a, b);
    }

    /// Lifts a partition installed by [`Self::partition_link`]. Streams
    /// broken while partitioned stay broken; new connects succeed.
    pub fn heal_link(&self, a: &str, b: &str) {
        self.inner.partitions.lock().remove(&pair_key(a, b));
    }

    /// Tears down the whole fabric: breaks every stream and removes every
    /// listener so blocked threads exit.
    pub fn shutdown(&self) {
        self.inner.closed.store(true, Ordering::SeqCst);
        for (_, _, chan) in self.inner.channels.lock().iter() {
            if let Some(c) = chan.upgrade() {
                c.break_with("fabric shut down");
            }
        }
        self.inner.listeners.lock().clear();
        for h in self.inner.hosts.lock().values() {
            h.egress.close();
            h.ingress.close();
        }
    }
}

fn host_of(addr: &str) -> DfsResult<&str> {
    addr.split(':')
        .next()
        .filter(|h| !h.is_empty())
        .ok_or_else(|| DfsError::internal(format!("malformed address {addr}")))
}

/// Accept side of a listening address.
pub struct Listener {
    addr: String,
    rx: Receiver<FabricStream>,
}

impl Listener {
    /// Blocks for the next inbound stream; errors once the fabric (or
    /// this listener's host) is shut down.
    pub fn accept(&self) -> DfsResult<FabricStream> {
        self.rx
            .recv()
            .map_err(|_| DfsError::connection_lost(format!("listener {} closed", self.addr)))
    }

    /// Non-blocking accept with timeout, for orderly server shutdown.
    pub fn accept_timeout(&self, timeout: Duration) -> DfsResult<Option<FabricStream>> {
        match self.rx.recv_timeout(timeout) {
            Ok(s) => Ok(Some(s)),
            Err(crossbeam_channel::RecvTimeoutError::Timeout) => Ok(None),
            Err(crossbeam_channel::RecvTimeoutError::Disconnected) => Err(
                DfsError::connection_lost(format!("listener {} closed", self.addr)),
            ),
        }
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }
}

/// One end of an emulated duplex connection. Writing pays bandwidth
/// tokens along the path (source egress, destination ingress, optional
/// pair throttle); reading observes latency and backpressure.
pub struct FabricStream {
    local: String,
    peer: String,
    out: Arc<ByteChannel>,
    inn: Arc<ByteChannel>,
    out_buckets: Vec<Arc<TokenBucket>>,
    chunk: usize,
    /// Absolute deadline applied to every inbound read; `None` blocks
    /// indefinitely (the default, and the write path's behaviour).
    read_deadline: Option<std::time::Instant>,
}

impl FabricStream {
    pub fn local_host(&self) -> &str {
        &self.local
    }

    pub fn peer_host(&self) -> &str {
        &self.peer
    }

    /// Sets (or clears) the absolute deadline for subsequent reads on
    /// this stream. A read that cannot complete by the deadline fails
    /// with [`DfsError::Timeout`] instead of blocking forever — the
    /// reader's escape hatch from a stalled-but-alive peer.
    pub fn set_read_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.read_deadline = deadline;
    }

    /// Gracefully closes the outbound direction (like `shutdown(WR)`).
    pub fn close_write(&self) {
        self.out.close_write();
    }

    pub fn is_broken(&self) -> bool {
        self.out.is_broken() || self.inn.is_broken()
    }
}

impl FabricStream {
    /// Splits the duplex stream into independently usable read and write
    /// halves, so one thread can read inbound frames while another
    /// writes outbound frames (the pipeline pattern: a datanode's
    /// receiver reads packets while its responder writes acks on the
    /// same connection).
    pub fn split(self) -> (ReadHalf, WriteHalf) {
        // Suppress Drop's close: the halves own closing now.
        let this = std::mem::ManuallyDrop::new(self);
        let read = ReadHalf {
            peer: this.peer.clone(),
            inn: Arc::clone(&this.inn),
        };
        let write = WriteHalf {
            peer: this.peer.clone(),
            out: Arc::clone(&this.out),
            out_buckets: this.out_buckets.clone(),
            chunk: this.chunk,
        };
        (read, write)
    }
}

/// Read half of a split [`FabricStream`].
pub struct ReadHalf {
    peer: String,
    inn: Arc<ByteChannel>,
}

impl ReadHalf {
    pub fn peer_host(&self) -> &str {
        &self.peer
    }
}

impl FrameIo for ReadHalf {
    fn write_all(&mut self, _buf: &[u8]) -> DfsResult<()> {
        Err(DfsError::internal("write on read half"))
    }
    fn read_exact(&mut self, buf: &mut [u8]) -> DfsResult<()> {
        self.inn.read_exact(buf)
    }
    fn read_append(&mut self, buf: &mut Vec<u8>, len: usize) -> DfsResult<()> {
        self.inn.read_append(buf, len, None)
    }
}

impl Drop for ReadHalf {
    fn drop(&mut self) {
        self.inn.close_read();
    }
}

/// Write half of a split [`FabricStream`].
pub struct WriteHalf {
    peer: String,
    out: Arc<ByteChannel>,
    out_buckets: Vec<Arc<TokenBucket>>,
    chunk: usize,
}

impl WriteHalf {
    pub fn peer_host(&self) -> &str {
        &self.peer
    }

    pub fn close_write(&self) {
        self.out.close_write();
    }
}

/// Pays the path's buckets and queues `head` then `body` towards the
/// peer, `chunk_size` bytes at a time. The reader is woken once per
/// queued chunk, so a pair that fits one chunk goes as one (a small
/// packet, an ack, an RPC); a larger body goes as slices of itself.
fn shaped_write(
    out: &ByteChannel,
    buckets: &[Arc<TokenBucket>],
    chunk_size: usize,
    head: &[u8],
    body: &Bytes,
) -> DfsResult<()> {
    let queue = |buf: &Bytes| -> DfsResult<()> {
        for at in (0..buf.len()).step_by(chunk_size) {
            let chunk = buf.slice(at..buf.len().min(at + chunk_size));
            for bucket in buckets {
                bucket
                    .acquire(chunk.len())
                    .map_err(|_| DfsError::connection_lost("path bucket closed"))?;
            }
            out.push(chunk)?;
        }
        Ok(())
    };
    if head.len() + body.len() <= chunk_size {
        queue(&Bytes::from([head, body].concat()))
    } else {
        queue(&Bytes::copy_from_slice(head))?;
        queue(body)
    }
}

impl FrameIo for WriteHalf {
    fn write_all(&mut self, buf: &[u8]) -> DfsResult<()> {
        self.write_vectored(buf, &Bytes::new())
    }
    fn write_vectored(&mut self, head: &[u8], body: &Bytes) -> DfsResult<()> {
        shaped_write(&self.out, &self.out_buckets, self.chunk, head, body)
    }
    fn read_exact(&mut self, _buf: &mut [u8]) -> DfsResult<()> {
        Err(DfsError::internal("read on write half"))
    }
}

impl Drop for WriteHalf {
    fn drop(&mut self) {
        self.out.close_write();
    }
}

impl FrameIo for FabricStream {
    fn write_all(&mut self, buf: &[u8]) -> DfsResult<()> {
        self.write_vectored(buf, &Bytes::new())
    }
    fn write_vectored(&mut self, head: &[u8], body: &Bytes) -> DfsResult<()> {
        shaped_write(&self.out, &self.out_buckets, self.chunk, head, body)
    }
    fn read_exact(&mut self, buf: &mut [u8]) -> DfsResult<()> {
        self.inn.read_deadline(buf, self.read_deadline)
    }
    fn read_append(&mut self, buf: &mut Vec<u8>, len: usize) -> DfsResult<()> {
        self.inn.read_append(buf, len, self.read_deadline)
    }
}

impl Drop for FabricStream {
    fn drop(&mut self) {
        self.out.close_write();
        self.inn.close_read();
    }
}

impl std::fmt::Debug for FabricStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FabricStream({} -> {})", self.local, self.peer)
    }
}
