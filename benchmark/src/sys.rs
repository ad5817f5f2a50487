//! What the harness reads from the host: CPU time, peak memory, UDP drop
//! counters, and the stamps that say where a result was measured.

use std::fs;

/// On-CPU nanoseconds of the calling thread — the whole process for a
/// single-threaded workload — from `/proc/thread-self/schedstat`; falls back
/// to the 10 ms ticks of `stat` on kernels built without scheduler statistics.
pub fn cpu_ns() -> u64 {
    if let Some(ns) = fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
    {
        return ns;
    }
    fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and stime
            // are the 14th and 15th of the whole line.
            let rest = s.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            let ticks = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
            Some(ticks * 10_000_000)
        })
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) of this process in KiB, 0 if unreadable.
pub fn vm_hwm_kb() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))?
                .split_whitespace()
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

/// Sum of the kernel's per-socket `drops` column in `/proc/net/udp` for the
/// sockets bound to `ports`: datagrams the receive buffers overflowed.
pub fn udp_drops(ports: &[u16]) -> u64 {
    let Ok(table) = fs::read_to_string("/proc/net/udp") else {
        return 0;
    };
    table
        .lines()
        .skip(1)
        .filter_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            let port = u16::from_str_radix(f.get(1)?.rsplit_once(':')?.1, 16).ok()?;
            ports
                .contains(&port)
                .then(|| f.last()?.parse::<u64>().ok())?
        })
        .sum()
}

fn read_trimmed(path: &str) -> String {
    fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// Where a result was measured: cores, kernel, socket buffer default, and the
/// commit `run.sh` passes in `QTPPERF_COMMIT`.
pub fn host_stamps() -> Vec<(&'static str, String)> {
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map(|n| n.get().to_string())
                .unwrap_or_else(|_| "unknown".into()),
        ),
        ("kernel", read_trimmed("/proc/sys/kernel/osrelease")),
        (
            "rmem_default",
            read_trimmed("/proc/sys/net/core/rmem_default"),
        ),
        (
            "commit",
            std::env::var("QTPPERF_COMMIT").unwrap_or_else(|_| "unknown".into()),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let a = cpu_ns();
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(3).wrapping_add(1));
        }
        assert!(cpu_ns() > a, "30 ms of spinning must show as CPU time");
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(vm_hwm_kb() > 0);
    }

    #[test]
    fn drops_of_a_fresh_socket_are_zero() {
        let s = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        let port = s.local_addr().unwrap().port();
        assert_eq!(udp_drops(&[port]), 0);
    }
}
