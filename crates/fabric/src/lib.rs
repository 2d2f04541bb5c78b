//! # smarth-fabric
//!
//! In-memory network fabric for running the real DFS node implementations
//! under emulated EC2-like conditions: token-bucket NIC shaping per host,
//! cross-rack and per-host throttles (the paper's `tc` setup), per-chunk
//! propagation latency, bounded socket buffers with true backpressure,
//! and fault injection (host kill, link cut).
//!
//! The fabric is the real-time execution engine; the deterministic
//! counterpart at full paper scale lives in `smarth-sim`.

#![forbid(unsafe_code)]

mod bucket;
mod channel;
mod fabric;
mod stop;

pub use bucket::{BucketClosed, TokenBucket};
pub use channel::ByteChannel;
pub use fabric::{Fabric, FabricConfig, FabricStream, Listener, ReadHalf, WriteHalf};
pub use stop::StopSignal;

#[cfg(test)]
mod tests {
    use super::*;
    use smarth_core::units::Bandwidth;
    use smarth_core::wire::{read_frame, write_frame, FrameIo};
    use std::time::{Duration, Instant};

    fn small_fabric() -> Fabric {
        let f = Fabric::new(FabricConfig {
            latency: Duration::ZERO,
            socket_buffer: 64 * 1024,
            chunk_size: 4096,
        });
        f.add_host("a", "rack-a", Bandwidth::unlimited());
        f.add_host("b", "rack-b", Bandwidth::unlimited());
        f.add_host("c", "rack-a", Bandwidth::unlimited());
        f
    }

    #[test]
    fn connect_and_exchange_frames() {
        let f = small_fabric();
        let listener = f.listen("b:50010").unwrap();
        let server = std::thread::spawn(move || {
            let mut s = listener.accept().unwrap();
            let req = read_frame(&mut s).unwrap();
            assert_eq!(&req[..], b"ping");
            write_frame(&mut s, &bytes::Bytes::from_static(b"pong")).unwrap();
        });
        let mut c = f.connect("a", "b:50010").unwrap();
        assert_eq!(c.local_host(), "a");
        assert_eq!(c.peer_host(), "b");
        write_frame(&mut c, &bytes::Bytes::from_static(b"ping")).unwrap();
        let reply = read_frame(&mut c).unwrap();
        assert_eq!(&reply[..], b"pong");
        server.join().unwrap();
    }

    #[test]
    fn connect_to_missing_listener_fails() {
        let f = small_fabric();
        assert!(f.connect("a", "b:9999").is_err());
        assert!(f.connect("a", "nowhere:1").is_err());
    }

    #[test]
    fn nic_throttle_limits_throughput() {
        let f = Fabric::new(FabricConfig {
            latency: Duration::ZERO,
            socket_buffer: 256 * 1024,
            chunk_size: 8192,
        });
        // 8 MiB/s NICs: 1 MiB should take ≈ 0.125 s.
        f.add_host("src", "r", Bandwidth::mib_per_sec(8.0));
        f.add_host("dst", "r", Bandwidth::mib_per_sec(8.0));
        let listener = f.listen("dst:1").unwrap();
        let reader = std::thread::spawn(move || {
            let mut s = listener.accept().unwrap();
            let mut buf = vec![0u8; 1 << 20];
            s.read_exact(&mut buf).unwrap();
        });
        let mut c = f.connect("src", "dst:1").unwrap();
        let start = Instant::now();
        c.write_all(&vec![0u8; 1 << 20]).unwrap();
        reader.join().unwrap();
        let secs = start.elapsed().as_secs_f64();
        assert!(secs > 0.07, "throttle ignored: {secs}s");
        assert!(secs < 0.6, "throttle far too strict: {secs}s");
    }

    /// A frame body is queued as slices of one buffer: it must still
    /// cross a socket buffer smaller than itself intact, chunk by chunk,
    /// at the rate the buckets allow.
    #[test]
    fn frame_larger_than_socket_buffer_arrives_intact_at_bucket_rate() {
        let f = Fabric::new(FabricConfig {
            latency: Duration::ZERO,
            socket_buffer: 64 * 1024,
            chunk_size: 8192,
        });
        // 8 MiB/s NICs: 1 MiB (and 5 odd bytes) should take ≈ 0.125 s.
        f.add_host("src", "r", Bandwidth::mib_per_sec(8.0));
        f.add_host("dst", "r", Bandwidth::mib_per_sec(8.0));
        let body: bytes::Bytes = (0..(1u32 << 20) + 5)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect::<Vec<u8>>()
            .into();
        let listener = f.listen("dst:1").unwrap();
        let reader = std::thread::spawn(move || read_frame(&mut listener.accept().unwrap()));
        let mut c = f.connect("src", "dst:1").unwrap();
        let start = Instant::now();
        write_frame(&mut c, &body).unwrap();
        let got = reader.join().unwrap().unwrap();
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(got, body);
        assert!(secs > 0.07, "throttle ignored: {secs}s");
        assert!(secs < 0.6, "throttle far too strict: {secs}s");
    }

    /// A head and a body arrive as their concatenation whether the pair
    /// fits one chunk (queued as one), just does not, or spans many.
    #[test]
    fn vectored_writes_arrive_as_head_then_body_at_any_size() {
        let f = small_fabric();
        let listener = f.listen("b:7").unwrap();
        let mut tx = f.connect("a", "b:7").unwrap();
        let mut rx = listener.accept().unwrap();
        let head = [0xEEu8; 9];
        for body_len in [0, 1, 4096 - 9, 4096 - 8, 3 * 4096 + 5] {
            let body: bytes::Bytes = (0..body_len).map(|i| i as u8).collect::<Vec<u8>>().into();
            tx.write_vectored(&head, &body).unwrap();
            let mut got = Vec::with_capacity(head.len() + body_len);
            rx.read_append(&mut got, head.len() + body_len).unwrap();
            assert_eq!(got, [&head[..], &body[..]].concat(), "body of {body_len}");
        }
    }

    #[test]
    fn cross_rack_throttle_only_hits_cross_rack_flows() {
        let f = Fabric::new(FabricConfig {
            latency: Duration::ZERO,
            socket_buffer: 256 * 1024,
            chunk_size: 8192,
        });
        f.add_host("a1", "rack-a", Bandwidth::unlimited());
        f.add_host("a2", "rack-a", Bandwidth::unlimited());
        f.add_host("b1", "rack-b", Bandwidth::unlimited());
        f.set_cross_rack_throttle(Some(Bandwidth::mib_per_sec(8.0)));

        let run = |from: &str, addr: &str| -> f64 {
            let listener = f.listen(addr).unwrap();
            let reader = std::thread::spawn(move || {
                let mut s = listener.accept().unwrap();
                let mut buf = vec![0u8; 512 * 1024];
                s.read_exact(&mut buf).unwrap();
            });
            let mut c = f.connect(from, addr).unwrap();
            let start = Instant::now();
            c.write_all(&vec![0u8; 512 * 1024]).unwrap();
            reader.join().unwrap();
            start.elapsed().as_secs_f64()
        };

        let same_rack = run("a1", "a2:1");
        let cross_rack = run("a1", "b1:1");
        assert!(
            same_rack < 0.05,
            "same-rack flow should be instant: {same_rack}s"
        );
        // 512 KiB at 8 MiB/s ≈ 62 ms (minus burst).
        assert!(
            cross_rack > 0.025,
            "cross-rack throttle not applied: {cross_rack}s"
        );
    }

    #[test]
    fn throttle_host_tightens_and_lifts() {
        let f = Fabric::new(FabricConfig {
            latency: Duration::ZERO,
            socket_buffer: 256 * 1024,
            chunk_size: 8192,
        });
        f.add_host("x", "r", Bandwidth::mib_per_sec(1000.0));
        f.add_host("y", "r", Bandwidth::mib_per_sec(1000.0));
        f.throttle_host("x", Some(Bandwidth::mib_per_sec(8.0))).unwrap();

        let listener = f.listen("y:1").unwrap();
        let reader = std::thread::spawn(move || {
            let mut s = listener.accept().unwrap();
            let mut buf = vec![0u8; 512 * 1024];
            s.read_exact(&mut buf).unwrap();
            let mut buf2 = vec![0u8; 512 * 1024];
            s.read_exact(&mut buf2).unwrap();
        });
        let mut c = f.connect("x", "y:1").unwrap();
        let start = Instant::now();
        c.write_all(&vec![0u8; 512 * 1024]).unwrap();
        let throttled = start.elapsed().as_secs_f64();
        assert!(throttled > 0.025, "host throttle not applied: {throttled}");

        f.throttle_host("x", None).unwrap();
        let start = Instant::now();
        c.write_all(&vec![0u8; 512 * 1024]).unwrap();
        let unthrottled = start.elapsed().as_secs_f64();
        assert!(
            unthrottled < throttled,
            "lifting throttle should speed up: {unthrottled} vs {throttled}"
        );
        reader.join().unwrap();
        assert!(f.throttle_host("ghost", None).is_err());
    }

    #[test]
    fn kill_host_breaks_streams_and_blocks_new_connects() {
        let f = small_fabric();
        let listener = f.listen("b:2").unwrap();
        let reader = std::thread::spawn(move || {
            let mut s = listener.accept().unwrap();
            let mut buf = [0u8; 16];
            s.read_exact(&mut buf)
        });
        let mut c = f.connect("a", "b:2").unwrap();
        std::thread::sleep(Duration::from_millis(20));
        f.kill_host("b");
        assert!(reader.join().unwrap().is_err(), "reader on killed host");
        assert!(c.write_all(b"0123456789abcdef").is_err() || c.is_broken());
        assert!(f.connect("a", "b:2").is_err(), "connect to dead host");
        assert!(!f.is_alive("b"));
        f.revive_host("b");
        assert!(f.is_alive("b"));
    }

    #[test]
    fn cut_link_breaks_only_that_pair() {
        let f = small_fabric();
        let lb = f.listen("b:3").unwrap();
        let lc = f.listen("c:3").unwrap();
        let read_task = |l: Listener| {
            std::thread::spawn(move || {
                let mut s = l.accept().unwrap();
                let mut buf = [0u8; 4];
                s.read_exact(&mut buf)
            })
        };
        let rb = read_task(lb);
        let rc = read_task(lc);
        let to_b = f.connect("a", "b:3").unwrap();
        let mut to_c = f.connect("a", "c:3").unwrap();
        std::thread::sleep(Duration::from_millis(20));
        f.cut_link("a", "b");
        assert!(rb.join().unwrap().is_err(), "a<->b must be broken");
        to_c.write_all(b"fine").unwrap();
        assert!(rc.join().unwrap().is_ok(), "a<->c must survive");
        assert!(to_b.is_broken());
        assert!(!to_c.is_broken());
    }

    #[test]
    fn shutdown_unblocks_accept() {
        let f = small_fabric();
        let listener = f.listen("a:9").unwrap();
        let acceptor = std::thread::spawn(move || listener.accept());
        std::thread::sleep(Duration::from_millis(20));
        f.shutdown();
        assert!(acceptor.join().unwrap().is_err());
        assert!(f.connect("a", "b:1").is_err());
    }

    #[test]
    fn accept_timeout_returns_none_when_idle() {
        let f = small_fabric();
        let listener = f.listen("a:8").unwrap();
        let got = listener.accept_timeout(Duration::from_millis(30)).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn concurrent_flows_share_host_nic() {
        // Two flows out of one 16 MiB/s host: combined 1 MiB ≈ 62 ms+.
        let f = Fabric::new(FabricConfig {
            latency: Duration::ZERO,
            socket_buffer: 256 * 1024,
            chunk_size: 8192,
        });
        f.add_host("hub", "r", Bandwidth::mib_per_sec(16.0));
        f.add_host("p", "r", Bandwidth::unlimited());
        f.add_host("q", "r", Bandwidth::unlimited());
        let lp = f.listen("p:1").unwrap();
        let lq = f.listen("q:1").unwrap();
        let drain = |l: Listener| {
            std::thread::spawn(move || {
                let mut s = l.accept().unwrap();
                let mut buf = vec![0u8; 512 * 1024];
                s.read_exact(&mut buf).unwrap();
            })
        };
        let dp = drain(lp);
        let dq = drain(lq);
        let start = Instant::now();
        let writers: Vec<_> = ["p:1", "q:1"]
            .into_iter()
            .map(|addr| {
                let mut c = f.connect("hub", addr).unwrap();
                std::thread::spawn(move || c.write_all(&vec![0u8; 512 * 1024]).unwrap())
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        dp.join().unwrap();
        dq.join().unwrap();
        let secs = start.elapsed().as_secs_f64();
        assert!(secs > 0.035, "NIC sharing not enforced: {secs}s");
    }
}
