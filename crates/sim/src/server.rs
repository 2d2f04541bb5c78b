//! Rate servers — the simulator's model of serialized, bandwidth-limited
//! resources (NIC directions, `tc` pair shapers, disks).
//!
//! A [`RateServer`] is a FIFO single server: a reservation of `size`
//! bytes starting no earlier than `earliest` begins when the server
//! frees up and occupies it for `size / rate`. Chaining reservations
//! through consecutive servers models store-and-forward per device with
//! cut-through across devices, which is how shaped links compose.

use smarth_core::units::{Bandwidth, ByteSize, SimDuration, SimInstant};

/// A FIFO rate-limited server in virtual time, at a rate fixed when it
/// is made.
#[derive(Debug, Clone)]
pub struct RateServer {
    rate: Bandwidth,
    busy_until: SimInstant,
    /// The size of the last reservation and its transfer time: nearly
    /// every reservation is a full packet.
    memo: Option<(ByteSize, SimDuration)>,
}

impl RateServer {
    pub fn new(rate: Bandwidth) -> Self {
        Self {
            rate,
            busy_until: SimInstant::ZERO,
            memo: None,
        }
    }

    /// Reserves the server for `size` bytes, starting no earlier than
    /// `earliest`, and returns the completion instant.
    pub fn reserve(&mut self, earliest: SimInstant, size: ByteSize) -> SimInstant {
        let time = match self.memo {
            Some((memo, time)) if memo == size => time,
            _ => {
                let time = self.rate.transfer_time(size);
                self.memo = Some((size, time));
                time
            }
        };
        let finish = self.busy_until.max(earliest) + time;
        self.busy_until = finish;
        finish
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimInstant {
        SimInstant((s * 1e9) as u64)
    }

    #[test]
    fn reservations_serialize_in_fifo_order() {
        // 1 MiB/s server, two 1 MiB packets back to back.
        let mut s = RateServer::new(Bandwidth::mib_per_sec(1.0));
        let f1 = s.reserve(SimInstant::ZERO, ByteSize::mib(1));
        assert!((f1.as_secs_f64() - 1.0).abs() < 1e-9);
        let f2 = s.reserve(SimInstant::ZERO, ByteSize::mib(1));
        assert!((f2.as_secs_f64() - 2.0).abs() < 1e-9, "second waits for first");
    }

    #[test]
    fn idle_gaps_are_not_accumulated() {
        let mut s = RateServer::new(Bandwidth::mib_per_sec(1.0));
        s.reserve(SimInstant::ZERO, ByteSize::mib(1)); // busy until 1s
        // Arrival at t=5s: starts immediately, no banked idle time.
        let f = s.reserve(secs(5.0), ByteSize::mib(1));
        assert!((f.as_secs_f64() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn unlimited_server_is_instant() {
        let mut s = RateServer::new(Bandwidth::unlimited());
        let f = s.reserve(secs(2.0), ByteSize::gib(10));
        assert_eq!(f, secs(2.0));
    }

    #[test]
    fn sustained_rate_matches_configuration() {
        // Push 100 × 64 KiB through a 50 Mbps server: total must be
        // 100·64KiB·8 / 50e6 s ≈ 1.048576 s.
        let mut s = RateServer::new(Bandwidth::mbps(50.0));
        let mut last = SimInstant::ZERO;
        for _ in 0..100 {
            last = s.reserve(SimInstant::ZERO, ByteSize::kib(64));
        }
        assert!((last.as_secs_f64() - 1.048_576).abs() < 1e-6);
    }

    #[test]
    fn chained_servers_bottleneck_on_the_slowest() {
        // Client egress 100 Mbps → pair shaper 50 Mbps → ingress 100 Mbps.
        // Long-run throughput must equal 50 Mbps.
        let mut egress = RateServer::new(Bandwidth::mbps(100.0));
        let mut pair = RateServer::new(Bandwidth::mbps(50.0));
        let mut ingress = RateServer::new(Bandwidth::mbps(100.0));
        let pkt = ByteSize::kib(64);
        let n = 200;
        let mut finish = SimInstant::ZERO;
        for _ in 0..n {
            let t1 = egress.reserve(SimInstant::ZERO, pkt);
            let t2 = pair.reserve(t1, pkt);
            finish = ingress.reserve(t2, pkt);
        }
        let total_bits = (n as f64) * 64.0 * 1024.0 * 8.0;
        let rate = total_bits / finish.as_secs_f64() / 1e6;
        assert!(
            (rate - 50.0).abs() < 2.0,
            "chained throughput {rate} Mbps should be ≈ 50"
        );
    }

    /// The memo returns the very instants `start + transfer_time(size)`
    /// gives, for full packets alternating with odd last-packet sizes.
    #[test]
    fn memoised_reservations_match_transfer_time_bit_for_bit() {
        let sizes = [65_536, 65_536, 1_000, 65_536, 1, 65_536, 33_333, 0, 65_536];
        for rate in [
            Bandwidth::mbps(50.0),
            Bandwidth::mbps(100.0),
            Bandwidth::mbps(376.0),
            Bandwidth::mib_per_sec(97.3),
            Bandwidth::unlimited(),
        ] {
            let mut s = RateServer::new(rate);
            let mut busy = SimInstant::ZERO;
            for (i, &size) in sizes.iter().cycle().take(200).enumerate() {
                // Arrivals sometimes after the server frees up, sometimes before.
                let earliest = SimInstant(i as u64 * 7_000_000);
                let size = ByteSize::bytes(size);
                let want = busy.max(earliest) + rate.transfer_time(size);
                assert_eq!(s.reserve(earliest, size), want, "{rate}, reservation {i}");
                busy = want;
            }
        }
    }
}
