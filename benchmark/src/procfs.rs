//! Process-level counters: CPU time and context switches of the whole
//! process (threads that already exited included, which matters because
//! the datanodes run one short-lived thread per connection), the
//! resident-set high-water mark and the live thread count.

/// Cumulative CPU seconds and context switches since process start.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub cpu_s: f64,
    pub ctx_switches: u64,
}

impl Usage {
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            cpu_s: self.cpu_s - earlier.cpu_s,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn usage() -> Usage {
    #[repr(C)]
    #[derive(Default)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    /// `struct rusage` of 64-bit Linux: two timevals, fourteen longs.
    #[repr(C)]
    #[derive(Default)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        /// maxrss, ixrss, idrss, isrss, minflt, majflt, nswap, inblock,
        /// oublock, msgsnd, msgrcv, nsignals, nvcsw, nivcsw.
        longs: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable value whose layout is the C
    // `struct rusage` of 64-bit Linux (the cfg above), and getrusage
    // writes nothing beyond that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    if rc != 0 {
        return Usage::default();
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        ctx_switches: (ru.longs[12] + ru.longs[13]) as u64,
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn usage() -> Usage {
    Usage::default()
}

fn status_field(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// `VmHWM` in MiB: the most memory the process ever held resident.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Threads alive right now.
pub fn threads() -> u64 {
    status_field("Threads:").unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_read_and_grow() {
        let before = usage();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let spent = usage().since(before);
        assert!(spent.cpu_s > 0.0, "cpu time must advance: {spent:?}");
        assert!(peak_rss_mib() > 0.0);
        assert!(threads() >= 1);
    }
}
