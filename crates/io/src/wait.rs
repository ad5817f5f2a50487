//! The crate's foreign calls, and the only `unsafe` code in `qtp-io`: two
//! minimal in-tree bindings on 64-bit Linux, each with a portable fallback
//! behind the same function, so no caller ever has a second path.
//!
//! * [`wait`] — `ppoll(2)`, the one place the mux loop blocks (nanosecond
//!   timeout; `poll(2)` only has milliseconds, coarser than a 200 Mbit/s
//!   pace interval). Elsewhere it sleeps for the timeout.
//! * [`send_run`] — `sendmsg(2)` with a `UDP_SEGMENT` control message: a
//!   run of equal-length frames to one peer leaves as one kernel send (UDP
//!   GSO) and arrives as separate datagrams. Elsewhere, or when the kernel
//!   refuses segmentation, it loops `send_to` over the frames.
//!
//! Argument layouts are `#[repr(C)]` structs pinned by `const` size
//! assertions; no dependency beyond `std`.

use std::io;
use std::net::{SocketAddr, UdpSocket};
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

/// Send one run of frames to `peer`: `buf` holds them back to back, each
/// `seg` bytes long except that the last may be shorter. Returns how many
/// frames the kernel took: all of them, or, when they go one by one, those
/// before the first refusal. The error comes back only if it took none.
/// Every socket call made, a refused one included, adds one to `calls`.
///
/// A run of more than one frame is first offered as one segmented send.
/// If the kernel cannot segment it (`EINVAL`, e.g. a frame larger than a
/// real NIC's MTU; `EIO` without checksum offload; `ENOPROTOOPT` before
/// Linux 4.18), the run is resent frame by frame, as on other targets.
pub(crate) fn send_run(
    sock: &UdpSocket,
    peer: SocketAddr,
    buf: &[u8],
    seg: usize,
    calls: &mut u64,
) -> io::Result<usize> {
    if seg == 0 {
        return Err(io::ErrorKind::InvalidInput.into());
    }
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    if buf.len() > seg {
        match send_segmented(sock, peer, buf, seg, calls) {
            Ok(()) => return Ok(buf.len().div_ceil(seg)),
            Err(e) if !matches!(e.raw_os_error(), Some(EINVAL | EIO | ENOPROTOOPT)) => {
                return Err(e)
            }
            Err(_) => {}
        }
    }
    let mut sent = 0;
    for frame in buf.chunks(seg) {
        *calls += 1;
        if let Err(e) = sock.send_to(frame, peer) {
            return if sent == 0 { Err(e) } else { Ok(sent) };
        }
        sent += 1;
    }
    Ok(sent)
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
const EIO: i32 = 5;
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
const EINVAL: i32 = 22;
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
const ENOPROTOOPT: i32 = 92;

/// One `sendmsg(2)` of all of `buf` to `peer`, cut by the kernel into
/// datagrams of `seg` bytes (`UDP_SEGMENT`, Linux 4.18+).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn send_segmented(
    sock: &UdpSocket,
    peer: SocketAddr,
    buf: &[u8],
    seg: usize,
    calls: &mut u64,
) -> io::Result<()> {
    use std::ffi::{c_int, c_uint, c_void};
    use std::mem::size_of;
    use std::os::fd::AsRawFd;

    /// `struct iovec`.
    #[repr(C)]
    struct IoVec {
        base: *const c_void,
        len: usize,
    }
    /// `struct msghdr` on LP64 Linux (`socklen_t` is 32-bit, `size_t` 64).
    #[repr(C)]
    struct MsgHdr {
        name: *const c_void,
        namelen: c_uint,
        iov: *const IoVec,
        iovlen: usize,
        control: *const c_void,
        controllen: usize,
        flags: c_int,
    }
    /// A `cmsghdr` carrying one `u16`, padded to `CMSG_SPACE(2)`.
    #[repr(C)]
    struct SegmentCmsg {
        len: usize,
        level: c_int,
        kind: c_int,
        gso_size: u16,
        pad: [u8; 6],
    }
    /// `struct sockaddr_in`; port and address in network byte order.
    #[repr(C)]
    struct SockAddrIn {
        family: u16,
        port: [u8; 2],
        addr: [u8; 4],
        zero: [u8; 8],
    }
    /// `struct sockaddr_in6`; all but the scope id in network byte order.
    #[repr(C)]
    struct SockAddrIn6 {
        family: u16,
        port: [u8; 2],
        flowinfo: [u8; 4],
        addr: [u8; 16],
        scope_id: u32,
    }
    const _: () = assert!(size_of::<IoVec>() == 16);
    const _: () = assert!(size_of::<MsgHdr>() == 56);
    const _: () = assert!(size_of::<SegmentCmsg>() == 24);
    const _: () = assert!(size_of::<SockAddrIn>() == 16);
    const _: () = assert!(size_of::<SockAddrIn6>() == 28);
    /// `CMSG_LEN(sizeof(u16))`: the header, then the data unpadded.
    const CMSG_LEN: usize = size_of::<usize>() + 2 * size_of::<c_int>() + size_of::<u16>();
    const SOL_UDP: c_int = 17;
    const UDP_SEGMENT: c_int = 103;
    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;

    extern "C" {
        fn sendmsg(fd: c_int, msg: *const MsgHdr, flags: c_int) -> isize;
    }

    let Ok(gso_size) = u16::try_from(seg) else {
        // The kernel's own answer to a segment it cannot describe.
        return Err(io::Error::from_raw_os_error(EINVAL));
    };
    let v4;
    let v6;
    let (name, namelen) = match peer {
        SocketAddr::V4(a) => {
            v4 = SockAddrIn {
                family: AF_INET,
                port: a.port().to_be_bytes(),
                addr: a.ip().octets(),
                zero: [0; 8],
            };
            let name: *const SockAddrIn = &v4;
            (name.cast::<c_void>(), size_of::<SockAddrIn>())
        }
        SocketAddr::V6(a) => {
            v6 = SockAddrIn6 {
                family: AF_INET6,
                port: a.port().to_be_bytes(),
                flowinfo: a.flowinfo().to_be_bytes(),
                addr: a.ip().octets(),
                scope_id: a.scope_id(),
            };
            let name: *const SockAddrIn6 = &v6;
            (name.cast::<c_void>(), size_of::<SockAddrIn6>())
        }
    };
    let iov = IoVec {
        base: buf.as_ptr().cast(),
        len: buf.len(),
    };
    let cmsg = SegmentCmsg {
        len: CMSG_LEN,
        level: SOL_UDP,
        kind: UDP_SEGMENT,
        gso_size,
        pad: [0; 6],
    };
    let control: *const SegmentCmsg = &cmsg;
    let msg = MsgHdr {
        name,
        namelen: namelen as c_uint,
        iov: &iov,
        iovlen: 1,
        control: control.cast(),
        controllen: size_of::<SegmentCmsg>(),
        flags: 0,
    };
    *calls += 1;
    // SAFETY: every pointer in `msg` points at a live local or at `buf`,
    // all outliving the call: `name` at a `sockaddr_in`/`sockaddr_in6`-layout
    // struct of `namelen` bytes, `iov` at one `iovec` spanning exactly
    // `buf`, `control` at one aligned `cmsghdr` of `controllen` bytes (sizes
    // asserted above). The descriptor stays open because `sock` is
    // borrowed. `sendmsg` only reads through these pointers and retains
    // none of them.
    let n = unsafe { sendmsg(sock.as_raw_fd(), &msg, 0) };
    if n < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
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

    /// Three 100 B frames and a 40 B tail, sent as one run from a socket
    /// bound like `bind`, reach a plain socket as four datagrams with exact
    /// bytes and boundaries.
    fn run_arrives_as_separate_datagrams(bind: &str) {
        let tx = UdpSocket::bind(bind).unwrap();
        let rx = UdpSocket::bind(bind).unwrap();
        rx.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let buf: Vec<u8> = (0..340u32).map(|i| (i * 7 % 251) as u8).collect();
        let mut calls = 0;
        let sent = send_run(&tx, rx.local_addr().unwrap(), &buf, 100, &mut calls).unwrap();
        assert_eq!((sent, calls), (4, 1), "one segmented send");
        let mut got = Vec::new();
        let mut d = [0u8; 512];
        for _ in 0..4 {
            let (n, from) = rx.recv_from(&mut d).unwrap();
            assert_eq!(from, tx.local_addr().unwrap());
            got.push(d[..n].to_vec());
        }
        let want: Vec<Vec<u8>> = buf.chunks(100).map(<[u8]>::to_vec).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn segmented_run_arrives_as_separate_datagrams_v4() {
        run_arrives_as_separate_datagrams("127.0.0.1:0");
    }

    #[test]
    fn segmented_run_arrives_as_separate_datagrams_v6() {
        run_arrives_as_separate_datagrams("[::1]:0");
    }

    #[test]
    fn single_frame_run_is_one_plain_send() {
        let (a, b) = pair();
        b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut calls = 0;
        let sent = send_run(&a, b.local_addr().unwrap(), b"only", 4, &mut calls).unwrap();
        assert_eq!((sent, calls), (1, 1));
        let mut d = [0u8; 16];
        let (n, _) = b.recv_from(&mut d).unwrap();
        assert_eq!(&d[..n], b"only");
    }
}
