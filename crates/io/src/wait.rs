//! Readiness wait: the one place the mux loop blocks.
//!
//! A minimal in-tree `ppoll(2)` binding (nanosecond timeout; `poll(2)` only
//! has milliseconds, coarser than a 200 Mbit/s pace interval). It holds the
//! only `unsafe` block in `qtp-io`. Targets other than 64-bit Linux keep the
//! old behaviour — sleep for the timeout — behind the same function, so no
//! caller ever sleeps on its own.

use std::io;
use std::net::UdpSocket;
use std::time::Duration;

/// Block until one of `socks` is readable (or writable, for an entry whose
/// flag is set), or `timeout` elapses. Returns whether a socket woke us.
///
/// Error conditions on a socket (`POLLERR`/`POLLHUP`/`POLLNVAL`) count as a
/// wake-up: the caller's next `recv_from` on that socket reports the error,
/// so it is attributed to the right side. A zero timeout returns `false`
/// without a syscall; `EINTR` retries with the time that remains.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub(crate) fn wait<const N: usize>(
    socks: [(&UdpSocket, bool); N],
    timeout: Duration,
) -> io::Result<bool> {
    use std::ffi::{c_int, c_short, c_ulong, c_void};
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    /// `struct pollfd`.
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }
    /// `struct timespec` on LP64 Linux (`time_t` and `long` both 64-bit).
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    const _: () = assert!(std::mem::size_of::<PollFd>() == 8);
    const _: () = assert!(std::mem::size_of::<Timespec>() == 16);
    const _: () = assert!(std::mem::size_of::<c_ulong>() == 8);
    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            tmo: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    let mut fds = socks.map(|(sock, writable)| PollFd {
        fd: sock.as_raw_fd(),
        events: if writable { POLLIN | POLLOUT } else { POLLIN },
        revents: 0,
    });
    let start = Instant::now();
    loop {
        let left = timeout.saturating_sub(start.elapsed());
        if left.is_zero() {
            return Ok(false);
        }
        let tmo = Timespec {
            tv_sec: i64::try_from(left.as_secs()).unwrap_or(i64::MAX),
            tv_nsec: i64::from(left.subsec_nanos()),
        };
        // SAFETY: `fds` is a live, exclusively borrowed array of exactly `N`
        // `pollfd`-layout structs (sizes asserted above) whose descriptors
        // stay open for the call because `socks` borrows their sockets;
        // `tmo` points at a live `timespec`-layout struct; a null `sigmask`
        // is documented to leave the signal mask alone. The kernel writes
        // only the `revents` fields, and `ppoll` retains no pointer.
        let n = unsafe { ppoll(fds.as_mut_ptr(), N as c_ulong, &tmo, std::ptr::null()) };
        if n >= 0 {
            return Ok(n > 0);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Fallback without a readiness primitive: sleep out the timeout.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub(crate) fn wait<const N: usize>(
    _socks: [(&UdpSocket, bool); N],
    timeout: Duration,
) -> io::Result<bool> {
    std::thread::sleep(timeout);
    Ok(false)
}

#[cfg(all(test, target_os = "linux", target_pointer_width = "64"))]
mod tests {
    use super::*;
    use std::time::Instant;

    fn pair() -> (UdpSocket, UdpSocket) {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        (a, b)
    }

    #[test]
    fn returns_at_once_when_a_datagram_is_already_queued() {
        let (a, b) = pair();
        a.send_to(b"x", b.local_addr().unwrap()).unwrap();
        let t0 = Instant::now();
        // Either position in the set wakes the wait.
        assert!(wait([(&a, false), (&b, false)], Duration::from_secs(5)).unwrap());
        assert!(wait([(&b, false), (&a, false)], Duration::from_secs(5)).unwrap());
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn returns_early_when_a_datagram_arrives_on_either_socket() {
        for to_first in [true, false] {
            let (a, b) = pair();
            let dst = if to_first { &a } else { &b }.local_addr().unwrap();
            let t0 = Instant::now();
            let woke = std::thread::scope(|s| {
                s.spawn(move || {
                    // No barrier can order "the waiter is inside ppoll"
                    // before this send; if the send wins the race the wait
                    // still returns early, through the queued-datagram path.
                    std::thread::sleep(Duration::from_millis(20));
                    let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
                    tx.send_to(b"x", dst).unwrap();
                });
                wait([(&a, false), (&b, false)], Duration::from_secs(5)).unwrap()
            });
            assert!(
                woke,
                "arrival on socket {} wakes",
                if to_first { 0 } else { 1 }
            );
            assert!(t0.elapsed() < Duration::from_secs(2));
        }
    }

    #[test]
    fn returns_after_about_the_timeout_when_quiet() {
        let (a, b) = pair();
        let t0 = Instant::now();
        assert!(!wait([(&a, false), (&b, false)], Duration::from_millis(20)).unwrap());
        let took = t0.elapsed();
        assert!(took >= Duration::from_millis(20), "woke early: {took:?}");
        assert!(took < Duration::from_millis(500), "overslept: {took:?}");
    }

    #[test]
    fn zero_timeout_never_blocks() {
        let (a, _b) = pair();
        assert!(!wait([(&a, false)], Duration::ZERO).unwrap());
    }

    #[test]
    fn returns_at_once_on_pollout_when_asked() {
        let (a, _b) = pair();
        let t0 = Instant::now();
        // An idle UDP socket always has send-buffer space.
        assert!(wait([(&a, true)], Duration::from_secs(5)).unwrap());
        assert!(t0.elapsed() < Duration::from_secs(1));
    }
}
