//! Bounded, latency-aware byte channel — one direction of an emulated
//! connection.
//!
//! The channel holds at most `capacity` buffered bytes (the socket
//! buffer). Writers block when it is full, which is how backpressure
//! propagates hop-by-hop through a pipeline exactly like TCP flow
//! control: a slow cross-rack hop eventually stalls the client's writes
//! into the first datanode once every buffer in between has filled.
//!
//! Each chunk carries a `ready_at` timestamp (`enqueue time + latency`);
//! readers do not see bytes before that instant, modelling one-way
//! propagation delay.
//!
//! Reading is one loop ([`ByteChannel::read_pieces`]) with an optional
//! deadline; it fills a slice or appends to a `Vec` the caller sized, so
//! reassembling a frame out of chunks — the "NIC to memory" copy, the
//! one copy a hop makes of a byte — writes each byte once, into memory
//! nobody zeroed first.

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use smarth_core::error::{DfsError, DfsResult};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct ChannelState {
    queue: VecDeque<(Instant, Bytes)>,
    /// Total bytes across `queue` plus the partially consumed `front`.
    buffered: usize,
    /// Partially consumed head chunk.
    front: Option<Bytes>,
    write_closed: bool,
    read_closed: bool,
    /// Set by host kill / link cut: all operations fail with this.
    broken: Option<String>,
}

/// One direction of a fabric connection.
#[derive(Debug)]
pub struct ByteChannel {
    state: Mutex<ChannelState>,
    readable: Condvar,
    writable: Condvar,
    capacity: usize,
    latency: Duration,
}

impl ByteChannel {
    pub fn new(capacity: usize, latency: Duration) -> Self {
        assert!(capacity > 0, "channel capacity must be positive");
        Self {
            state: Mutex::new(ChannelState {
                queue: VecDeque::new(),
                buffered: 0,
                front: None,
                write_closed: false,
                read_closed: false,
                broken: None,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
            capacity,
            latency,
        }
    }

    /// Enqueues a chunk, blocking while the buffer is full. The caller
    /// has already paid the bandwidth cost via the token buckets.
    pub fn push(&self, chunk: Bytes) -> DfsResult<()> {
        if chunk.is_empty() {
            return Ok(());
        }
        let mut st = self.state.lock();
        loop {
            if let Some(reason) = &st.broken {
                return Err(DfsError::connection_lost(reason.clone()));
            }
            if st.read_closed {
                return Err(DfsError::connection_lost("peer closed read side"));
            }
            if st.write_closed {
                return Err(DfsError::connection_lost("write side already closed"));
            }
            // Always admit at least one chunk so a chunk larger than the
            // buffer cannot deadlock; otherwise respect the capacity.
            if st.buffered == 0 || st.buffered + chunk.len() <= self.capacity {
                let ready = Instant::now() + self.latency;
                st.buffered += chunk.len();
                st.queue.push_back((ready, chunk));
                self.readable.notify_all();
                return Ok(());
            }
            self.writable.wait(&mut st);
        }
    }

    /// Fills `buf` completely, blocking for data and latency. Errors on
    /// EOF-before-filled or a broken channel.
    pub fn read_exact(&self, buf: &mut [u8]) -> DfsResult<()> {
        self.read_deadline(buf, None)
    }

    /// [`read_exact`](Self::read_exact) that gives up with
    /// [`DfsError::Timeout`] once `deadline` passes without the buffer
    /// filling. This is what lets a reader abandon a stalled datanode
    /// (throttled to a trickle, not dead — the channel never breaks) and
    /// fail over to another replica.
    pub fn read_deadline(&self, buf: &mut [u8], deadline: Option<Instant>) -> DfsResult<()> {
        let mut filled = 0;
        self.read_pieces(buf.len(), deadline, |piece| {
            buf[filled..filled + piece.len()].copy_from_slice(piece);
            filled += piece.len();
        })
    }

    /// Appends the next `len` bytes to `buf` — into capacity the caller
    /// reserved, so nothing is zeroed first and what `buf` held stays.
    pub fn read_append(
        &self,
        buf: &mut Vec<u8>,
        len: usize,
        deadline: Option<Instant>,
    ) -> DfsResult<()> {
        self.read_pieces(len, deadline, |piece| buf.extend_from_slice(piece))
    }

    /// The one read loop: hands the next `len` bytes to `sink` piece by
    /// piece as chunks become ready, blocking for data and latency.
    fn read_pieces(
        &self,
        len: usize,
        deadline: Option<Instant>,
        mut sink: impl FnMut(&[u8]),
    ) -> DfsResult<()> {
        let mut taken = 0;
        let mut st = self.state.lock();
        while taken < len {
            if let Some(reason) = &st.broken {
                return Err(DfsError::connection_lost(reason.clone()));
            }
            // Take from the partially consumed front chunk first.
            if let Some(front) = st.front.take() {
                let n = front.len().min(len - taken);
                sink(&front[..n]);
                taken += n;
                st.buffered -= n;
                if n < front.len() {
                    st.front = Some(front.slice(n..));
                }
                self.writable.notify_all();
                continue;
            }
            let now = Instant::now();
            if deadline.is_some_and(|d| now >= d) {
                return Err(DfsError::Timeout(format!(
                    "read deadline after {taken} of {len} bytes"
                )));
            }
            // Sleep until the head chunk's latency has passed, or for new
            // data, but never past the deadline.
            let wait = match st.queue.front() {
                Some((ready, _)) if *ready <= now => {
                    st.front = st.queue.pop_front().map(|(_, chunk)| chunk);
                    continue;
                }
                Some((ready, _)) => Some(*ready - now),
                None if st.write_closed => {
                    return Err(DfsError::connection_lost(format!(
                        "eof after {taken} of {len} bytes"
                    )));
                }
                None => None,
            };
            match wait.into_iter().chain(deadline.map(|d| d - now)).min() {
                Some(wait) => {
                    self.readable.wait_for(&mut st, wait);
                }
                None => self.readable.wait(&mut st),
            }
        }
        Ok(())
    }

    pub fn buffered_bytes(&self) -> usize {
        self.state.lock().buffered
    }

    /// Graceful close of the writing side; readers drain what is queued
    /// and then see EOF.
    pub fn close_write(&self) {
        let mut st = self.state.lock();
        st.write_closed = true;
        self.readable.notify_all();
        self.writable.notify_all();
    }

    /// Close of the reading side; subsequent writes fail.
    pub fn close_read(&self) {
        let mut st = self.state.lock();
        st.read_closed = true;
        self.readable.notify_all();
        self.writable.notify_all();
    }

    /// Hard break (host killed, link cut): every pending and future
    /// operation on either side fails immediately.
    pub fn break_with(&self, reason: &str) {
        let mut st = self.state.lock();
        st.broken = Some(reason.to_string());
        st.queue.clear();
        st.front = None;
        st.buffered = 0;
        self.readable.notify_all();
        self.writable.notify_all();
    }

    pub fn is_broken(&self) -> bool {
        self.state.lock().broken.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn chan(cap: usize) -> Arc<ByteChannel> {
        Arc::new(ByteChannel::new(cap, Duration::ZERO))
    }

    #[test]
    fn roundtrip_bytes() {
        let c = chan(1024);
        c.push(Bytes::from_static(b"hello ")).unwrap();
        c.push(Bytes::from_static(b"world")).unwrap();
        let mut buf = [0u8; 11];
        c.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello world");
    }

    #[test]
    fn partial_chunk_consumption() {
        let c = chan(1024);
        c.push(Bytes::from_static(b"abcdef")).unwrap();
        let mut one = [0u8; 2];
        c.read_exact(&mut one).unwrap();
        assert_eq!(&one, b"ab");
        let mut rest = [0u8; 4];
        c.read_exact(&mut rest).unwrap();
        assert_eq!(&rest, b"cdef");
        assert_eq!(c.buffered_bytes(), 0);
    }

    #[test]
    fn backpressure_blocks_writer_until_reader_drains() {
        let c = chan(100);
        c.push(Bytes::from(vec![0u8; 80])).unwrap();
        // Next push would exceed capacity → writer must block.
        let c2 = Arc::clone(&c);
        let writer = std::thread::spawn(move || {
            let start = Instant::now();
            c2.push(Bytes::from(vec![1u8; 80])).unwrap();
            start.elapsed()
        });
        std::thread::sleep(Duration::from_millis(50));
        let mut buf = vec![0u8; 80];
        c.read_exact(&mut buf).unwrap();
        let blocked_for = writer.join().unwrap();
        assert!(
            blocked_for >= Duration::from_millis(40),
            "writer should have blocked, blocked {blocked_for:?}"
        );
    }

    #[test]
    fn oversized_single_chunk_is_admitted_when_empty() {
        let c = chan(16);
        // A chunk larger than capacity must not deadlock.
        c.push(Bytes::from(vec![7u8; 64])).unwrap();
        let mut buf = vec![0u8; 64];
        c.read_exact(&mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 7));
    }

    #[test]
    fn latency_delays_delivery() {
        let c = Arc::new(ByteChannel::new(1024, Duration::from_millis(60)));
        let start = Instant::now();
        c.push(Bytes::from_static(b"x")).unwrap();
        let mut buf = [0u8; 1];
        c.read_exact(&mut buf).unwrap();
        assert!(
            start.elapsed() >= Duration::from_millis(50),
            "read returned before latency elapsed: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn deadline_read_times_out_on_an_idle_channel() {
        let c = chan(1024);
        c.push(Bytes::from_static(b"ab")).unwrap();
        let mut buf = [0u8; 8];
        let start = Instant::now();
        let err = c
            .read_deadline(&mut buf, Some(start + Duration::from_millis(60)))
            .unwrap_err();
        assert!(matches!(err, DfsError::Timeout(_)), "got {err:?}");
        assert!(start.elapsed() >= Duration::from_millis(50));
        // The two consumed bytes are gone, but fresh data still reads.
        c.push(Bytes::from_static(b"cdefgh")).unwrap();
        let mut rest = [0u8; 6];
        c.read_exact(&mut rest).unwrap();
        assert_eq!(&rest, b"cdefgh");
    }

    #[test]
    fn deadline_read_succeeds_when_data_arrives_in_time() {
        let c = chan(1024);
        let c2 = Arc::clone(&c);
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            c2.push(Bytes::from_static(b"late")).unwrap();
        });
        let mut buf = [0u8; 4];
        c.read_deadline(&mut buf, Some(Instant::now() + Duration::from_secs(2)))
            .unwrap();
        assert_eq!(&buf, b"late");
        writer.join().unwrap();
    }

    #[test]
    fn append_leaves_earlier_bytes_of_the_vec_untouched() {
        let c = chan(1024);
        c.push(Bytes::from_static(b"abc")).unwrap();
        c.push(Bytes::from_static(b"defgh")).unwrap();
        let mut got = b"kept:".to_vec();
        got.reserve(6);
        c.read_append(&mut got, 6, None).unwrap();
        assert_eq!(got, b"kept:abcdef");
        // A deadline that passes mid-append keeps what did arrive.
        let err = c
            .read_append(&mut got, 4, Some(Instant::now() + Duration::from_millis(30)))
            .unwrap_err();
        assert!(matches!(err, DfsError::Timeout(_)), "got {err:?}");
        assert_eq!(got, b"kept:abcdefgh");
    }

    #[test]
    fn eof_mid_read_is_an_error() {
        let c = chan(1024);
        c.push(Bytes::from_static(b"ab")).unwrap();
        c.close_write();
        let mut buf = [0u8; 4];
        let err = c.read_exact(&mut buf).unwrap_err();
        assert!(matches!(err, DfsError::ConnectionLost(_)));
    }

    #[test]
    fn graceful_close_lets_reader_drain() {
        let c = chan(1024);
        c.push(Bytes::from_static(b"tail")).unwrap();
        c.close_write();
        let mut buf = [0u8; 4];
        c.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"tail");
    }

    #[test]
    fn write_after_reader_close_fails() {
        let c = chan(1024);
        c.close_read();
        assert!(c.push(Bytes::from_static(b"x")).is_err());
    }

    #[test]
    fn break_fails_blocked_writer() {
        // Full channel, no reader: the second push must block, then fail
        // once the channel breaks.
        let c = chan(16);
        c.push(Bytes::from(vec![0u8; 16])).unwrap();
        let c2 = Arc::clone(&c);
        let blocked_writer = std::thread::spawn(move || c2.push(Bytes::from(vec![0u8; 16])));
        std::thread::sleep(Duration::from_millis(30));
        c.break_with("host dn3 killed");
        assert!(blocked_writer.join().unwrap().is_err());
        assert!(c.is_broken());
        // Future operations fail too.
        assert!(c.push(Bytes::from_static(b"y")).is_err());
    }

    #[test]
    fn break_fails_blocked_reader() {
        // Empty channel: the read must block, then fail on break.
        let c = chan(16);
        let c2 = Arc::clone(&c);
        let blocked_reader = std::thread::spawn(move || {
            let mut buf = [0u8; 64];
            c2.read_exact(&mut buf)
        });
        std::thread::sleep(Duration::from_millis(30));
        c.break_with("host dn3 killed");
        assert!(blocked_reader.join().unwrap().is_err());
    }

    #[test]
    fn concurrent_producer_consumer_transfers_everything() {
        let c = chan(4096);
        let total = 1 << 20;
        let producer = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                let mut sent = 0u64;
                let mut i = 0u8;
                while sent < total {
                    let n = 1500.min((total - sent) as usize);
                    c.push(Bytes::from(vec![i; n])).unwrap();
                    sent += n as u64;
                    i = i.wrapping_add(1);
                }
                c.close_write();
            })
        };
        let mut received = 0u64;
        let mut buf = vec![0u8; 977]; // deliberately unaligned
        while received < total {
            let n = buf.len().min((total - received) as usize);
            c.read_exact(&mut buf[..n]).unwrap();
            received += n as u64;
        }
        producer.join().unwrap();
        assert_eq!(received, total);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any sequence of chunk writes is read back as the identical
        /// byte stream, regardless of how reads are sized.
        #[test]
        fn stream_preserves_bytes(
            chunks in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..257), 1..32),
            read_size in 1usize..512,
        ) {
            let chan = Arc::new(ByteChannel::new(512, Duration::ZERO));
            let expected: Vec<u8> = chunks.iter().flatten().copied().collect();
            let writer = {
                let chan = Arc::clone(&chan);
                std::thread::spawn(move || {
                    for c in chunks {
                        chan.push(Bytes::from(c)).unwrap();
                    }
                    chan.close_write();
                })
            };
            let mut got = Vec::with_capacity(expected.len());
            let mut buf = vec![0u8; read_size];
            while got.len() < expected.len() {
                let n = read_size.min(expected.len() - got.len());
                chan.read_exact(&mut buf[..n]).unwrap();
                got.extend_from_slice(&buf[..n]);
            }
            writer.join().unwrap();
            prop_assert_eq!(got, expected);
        }

        /// Buffered byte accounting never exceeds capacity by more than
        /// one admitted oversized chunk.
        #[test]
        fn buffer_accounting_consistent(
            sizes in proptest::collection::vec(1usize..64, 1..20),
        ) {
            let chan = ByteChannel::new(4096, Duration::ZERO);
            let mut total = 0usize;
            for s in &sizes {
                chan.push(Bytes::from(vec![0u8; *s])).unwrap();
                total += s;
            }
            prop_assert_eq!(chan.buffered_bytes(), total);
            let mut buf = vec![0u8; total];
            chan.read_exact(&mut buf).unwrap();
            prop_assert_eq!(chan.buffered_bytes(), 0);
        }
    }
}
