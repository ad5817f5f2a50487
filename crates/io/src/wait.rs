//! The crate's foreign calls, and the only `unsafe` code in `qtp-io`: four
//! minimal in-tree bindings on 64-bit Linux, each with a portable fallback
//! behind the same function, so no caller ever has a second path.
//!
//! * [`wait`] — `ppoll(2)`, the one place the mux loop blocks (nanosecond
//!   timeout; `poll(2)` only has milliseconds, coarser than a 200 Mbit/s
//!   pace interval). Elsewhere it sleeps for the timeout.
//! * [`send_run`] — `sendmsg(2)` with a `UDP_SEGMENT` control message: a
//!   run of equal-length frames to one peer leaves as one kernel send (UDP
//!   GSO). Elsewhere, or when the kernel refuses segmentation, it loops
//!   `send_to` over the frames.
//! * [`recv_segments`] — `recvmsg(2)`, reading the `UDP_GRO` control
//!   message: one receive returns one datagram, or a peer's whole GSO run
//!   with the size to split it by. Elsewhere it is `recv_from`.
//! * [`enable_gro`] — `setsockopt(2)` of `UDP_GRO`, which makes the kernel
//!   keep each arriving GSO run whole instead of cutting it back into
//!   datagrams. Elsewhere GRO stays off.
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
/// If the kernel cannot segment it (`EINVAL`, e.g. more segments than it
/// allows or a frame larger than a real NIC's MTU; `EIO` without checksum
/// offload; `ENOPROTOOPT` before Linux 4.18), the run is resent frame by
/// frame, as on other targets.
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
        use sys::{EINVAL, EIO, ENOPROTOOPT};
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
    use std::mem::size_of;
    use std::os::fd::AsRawFd;
    use sys::*;

    let Ok(gso_size) = u16::try_from(seg) else {
        // The kernel's own answer to a segment it cannot describe.
        return Err(io::Error::from_raw_os_error(EINVAL));
    };
    let (mut name, namelen) = SockAddr::new(peer);
    let mut iov = IoVec {
        // The kernel only reads through this pointer.
        base: buf.as_ptr().cast_mut().cast(),
        len: buf.len(),
    };
    let mut cmsg = SegmentCmsg {
        len: cmsg_len(size_of::<u16>()),
        level: SOL_UDP,
        kind: UDP_SEGMENT,
        gso_size,
        pad: [0; 6],
    };
    let msg = MsgHdr {
        name: (&mut name as *mut SockAddr).cast(),
        namelen,
        iov: &mut iov,
        iovlen: 1,
        control: (&mut cmsg as *mut SegmentCmsg).cast(),
        controllen: size_of::<SegmentCmsg>(),
        flags: 0,
    };
    *calls += 1;
    // SAFETY: every pointer in `msg` points at a live local or at `buf`,
    // all outliving the call: `name` at a `sockaddr_in`/`sockaddr_in6`-layout
    // struct of `namelen` bytes, `iov` at one `iovec` spanning exactly
    // `buf`, `control` at one aligned `cmsghdr` of `controllen` bytes (sizes
    // asserted in `sys`). The descriptor stays open because `sock` is
    // borrowed. `sendmsg` only reads through these pointers and retains
    // none of them.
    let n = unsafe { sendmsg(sock.as_raw_fd(), &msg, 0) };
    if n < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Receive one datagram into `buf`, or, once [`enable_gro`] took effect,
/// one peer's whole GSO run. Returns its length, its sender, and the
/// segment size it was sent with: its frames are `buf[..len]` cut every
/// `seg` bytes, the last piece possibly shorter, and `seg == len` when it
/// is a lone datagram. One socket call, added to `calls`.
///
/// A datagram or run longer than `buf`, which the kernel cut short
/// (`MSG_TRUNC`), comes back as an [`io::ErrorKind::InvalidData`] error, so
/// no caller ever parses a clipped frame. Other targets `recv_from`, with
/// `seg == len`.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub(crate) fn recv_segments(
    sock: &UdpSocket,
    buf: &mut [u8],
    calls: &mut u64,
) -> io::Result<(usize, SocketAddr, usize)> {
    use std::ffi::{c_int, c_uint};
    use std::mem::size_of;
    use std::os::fd::AsRawFd;
    use sys::*;

    let mut name = SockAddr::empty();
    let mut iov = IoVec {
        base: buf.as_mut_ptr().cast(),
        len: buf.len(),
    };
    let mut cmsg = GroCmsg {
        len: 0,
        level: 0,
        kind: 0,
        gso_size: 0,
        pad: [0; 4],
    };
    let mut msg = MsgHdr {
        name: (&mut name as *mut SockAddr).cast(),
        namelen: size_of::<SockAddr>() as c_uint,
        iov: &mut iov,
        iovlen: 1,
        control: (&mut cmsg as *mut GroCmsg).cast(),
        controllen: size_of::<GroCmsg>(),
        flags: 0,
    };
    *calls += 1;
    // SAFETY: every pointer in `msg` points at a live, exclusively borrowed
    // local or at `buf`, all outliving the call: `name` at a
    // `sockaddr_in6`-sized union of `namelen` bytes, `iov` at one `iovec`
    // spanning exactly `buf`, `control` at one aligned `cmsghdr` of
    // `controllen` bytes (sizes asserted in `sys`). The kernel writes at
    // most those lengths through them, plus `msg`'s own length and flag
    // fields, and retains no pointer. The descriptor stays open because
    // `sock` is borrowed.
    let n = unsafe { recvmsg(sock.as_raw_fd(), &mut msg, 0) };
    if n < 0 {
        return Err(io::Error::last_os_error());
    }
    if msg.flags & MSG_TRUNC != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "datagram longer than the receive buffer",
        ));
    }
    let len = n as usize;
    // The socket asks for no other ancillary data, so a control message,
    // if any, is the run's segment size.
    let gro = msg.controllen >= cmsg_len(size_of::<c_int>())
        && (cmsg.level, cmsg.kind) == (SOL_UDP, UDP_GRO);
    let seg = match usize::try_from(cmsg.gso_size) {
        Ok(seg) if gro && seg > 0 => seg,
        _ => len,
    };
    Ok((len, name.peer()?, seg))
}

/// Fallback without `recvmsg`: every receive is one datagram.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub(crate) fn recv_segments(
    sock: &UdpSocket,
    buf: &mut [u8],
    calls: &mut u64,
) -> io::Result<(usize, SocketAddr, usize)> {
    *calls += 1;
    let (len, peer) = sock.recv_from(buf)?;
    Ok((len, peer, len))
}

/// Turn UDP GRO on for `sock` (`setsockopt(SOL_UDP, UDP_GRO, 1)`, Linux
/// 5.0+): from then on the kernel hands [`recv_segments`] each peer's GSO
/// run whole. Returns whether GRO is on. A kernel without it
/// (`ENOPROTOOPT`) leaves it off, which is not an error; other targets
/// never turn it on.
///
/// The first socket to turn GRO on flips a kernel-wide switch, 60–90 µs
/// when no other GRO socket is open (on a 2-core VM); the last one to
/// close flips it back.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub(crate) fn enable_gro(sock: &UdpSocket) -> io::Result<bool> {
    use std::ffi::{c_int, c_uint};
    use std::mem::size_of;
    use std::os::fd::AsRawFd;
    use sys::*;

    let on: c_int = 1;
    // SAFETY: `on` is a live `int`, and the length passed is exactly its
    // size; `setsockopt` only reads it and retains no pointer. The
    // descriptor stays open because `sock` is borrowed.
    let r = unsafe {
        setsockopt(
            sock.as_raw_fd(),
            SOL_UDP,
            UDP_GRO,
            (&on as *const c_int).cast(),
            size_of::<c_int>() as c_uint,
        )
    };
    if r == 0 {
        return Ok(true);
    }
    let e = io::Error::last_os_error();
    if e.raw_os_error() == Some(ENOPROTOOPT) {
        Ok(false)
    } else {
        Err(e)
    }
}

/// Fallback without UDP GRO: it stays off.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub(crate) fn enable_gro(_sock: &UdpSocket) -> io::Result<bool> {
    Ok(false)
}

/// The C layouts, constants and functions the calls above pass through, on
/// LP64 Linux (`socklen_t` 32-bit, `size_t` 64-bit).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    use std::ffi::{c_int, c_uint, c_void};
    use std::io;
    use std::mem::size_of;
    use std::net::{SocketAddr, SocketAddrV6};

    /// `struct iovec`.
    #[repr(C)]
    pub(super) struct IoVec {
        pub(super) base: *mut c_void,
        pub(super) len: usize,
    }
    /// `struct msghdr`.
    #[repr(C)]
    pub(super) struct MsgHdr {
        pub(super) name: *mut c_void,
        pub(super) namelen: c_uint,
        pub(super) iov: *mut IoVec,
        pub(super) iovlen: usize,
        pub(super) control: *mut c_void,
        pub(super) controllen: usize,
        pub(super) flags: c_int,
    }
    /// A `cmsghdr` carrying one `u16` (`UDP_SEGMENT`), padded to
    /// `CMSG_SPACE(2)`.
    #[repr(C)]
    pub(super) struct SegmentCmsg {
        pub(super) len: usize,
        pub(super) level: c_int,
        pub(super) kind: c_int,
        pub(super) gso_size: u16,
        pub(super) pad: [u8; 6],
    }
    /// A `cmsghdr` carrying one `int` (`UDP_GRO`), padded to
    /// `CMSG_SPACE(4)`.
    #[repr(C)]
    pub(super) struct GroCmsg {
        pub(super) len: usize,
        pub(super) level: c_int,
        pub(super) kind: c_int,
        pub(super) gso_size: c_int,
        pub(super) pad: [u8; 4],
    }
    /// `struct sockaddr_in`; port and address in network byte order.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub(super) struct SockAddrIn {
        family: u16,
        port: [u8; 2],
        addr: [u8; 4],
        zero: [u8; 8],
    }
    /// `struct sockaddr_in6`; all but the scope id in network byte order.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub(super) struct SockAddrIn6 {
        family: u16,
        port: [u8; 2],
        flowinfo: [u8; 4],
        addr: [u8; 16],
        scope_id: u32,
    }
    /// Either address family, as `msg_name` holds it.
    #[repr(C)]
    pub(super) union SockAddr {
        v4: SockAddrIn,
        v6: SockAddrIn6,
    }
    const _: () = assert!(size_of::<IoVec>() == 16);
    const _: () = assert!(size_of::<MsgHdr>() == 56);
    const _: () = assert!(size_of::<SegmentCmsg>() == 24);
    const _: () = assert!(size_of::<GroCmsg>() == 24);
    const _: () = assert!(size_of::<SockAddrIn>() == 16);
    const _: () = assert!(size_of::<SockAddrIn6>() == 28);
    const _: () = assert!(size_of::<SockAddr>() == 28);

    pub(super) const SOL_UDP: c_int = 17;
    pub(super) const UDP_SEGMENT: c_int = 103;
    pub(super) const UDP_GRO: c_int = 104;
    pub(super) const MSG_TRUNC: c_int = 0x20;
    pub(super) const EIO: i32 = 5;
    pub(super) const EINVAL: i32 = 22;
    pub(super) const ENOPROTOOPT: i32 = 92;
    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;

    /// `CMSG_LEN(n)`: the header, then `n` data bytes unpadded.
    pub(super) const fn cmsg_len(n: usize) -> usize {
        size_of::<usize>() + 2 * size_of::<c_int>() + n
    }

    impl SockAddr {
        /// `peer` in the kernel's layout, and the length of that layout.
        pub(super) fn new(peer: SocketAddr) -> (Self, c_uint) {
            match peer {
                SocketAddr::V4(a) => (
                    SockAddr {
                        v4: SockAddrIn {
                            family: AF_INET,
                            port: a.port().to_be_bytes(),
                            addr: a.ip().octets(),
                            zero: [0; 8],
                        },
                    },
                    size_of::<SockAddrIn>() as c_uint,
                ),
                SocketAddr::V6(a) => (
                    SockAddr {
                        v6: SockAddrIn6 {
                            family: AF_INET6,
                            port: a.port().to_be_bytes(),
                            flowinfo: a.flowinfo().to_be_bytes(),
                            addr: a.ip().octets(),
                            scope_id: a.scope_id(),
                        },
                    },
                    size_of::<SockAddrIn6>() as c_uint,
                ),
            }
        }

        /// All zeros, every byte initialised, for the kernel to fill.
        pub(super) fn empty() -> Self {
            SockAddr {
                v6: SockAddrIn6 {
                    family: 0,
                    port: [0; 2],
                    flowinfo: [0; 4],
                    addr: [0; 16],
                    scope_id: 0,
                },
            }
        }

        /// The address held, as the kernel wrote it into an
        /// [`SockAddr::empty`].
        pub(super) fn peer(&self) -> io::Result<SocketAddr> {
            // SAFETY: both constructors initialise at least the 16 bytes of
            // `v4`, whose fields are integers and byte arrays, valid for
            // any bits; `family` sits at offset 0 in both variants.
            let v4 = unsafe { self.v4 };
            match v4.family {
                AF_INET => Ok(SocketAddr::from((v4.addr, u16::from_be_bytes(v4.port)))),
                AF_INET6 => {
                    // SAFETY: the family is `AF_INET6` only in a union
                    // built from a `sockaddr_in6` or by `empty`, both of
                    // which initialise all 28 bytes of `v6`.
                    let v6 = unsafe { self.v6 };
                    Ok(SocketAddr::V6(SocketAddrV6::new(
                        v6.addr.into(),
                        u16::from_be_bytes(v6.port),
                        u32::from_be_bytes(v6.flowinfo),
                        v6.scope_id,
                    )))
                }
                family => Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("sender of address family {family}"),
                )),
            }
        }
    }

    extern "C" {
        pub(super) fn sendmsg(fd: c_int, msg: *const MsgHdr, flags: c_int) -> isize;
        pub(super) fn recvmsg(fd: c_int, msg: *mut MsgHdr, flags: c_int) -> isize;
        pub(super) fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: c_uint,
        ) -> c_int;
    }
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

    #[test]
    fn a_run_past_the_segment_cap_goes_frame_by_frame() {
        let (tx, rx) = pair();
        rx.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let buf: Vec<u8> = (0..2000u32).map(|i| (i % 251) as u8).collect();
        let mut calls = 0;
        let sent = send_run(&tx, rx.local_addr().unwrap(), &buf, 10, &mut calls).unwrap();
        // 200 segments are more than any kernel segments in one send: the
        // refused send counts, then each frame goes alone.
        assert_eq!((sent, calls), (200, 201));
        let mut d = [0u8; 64];
        for want in buf.chunks(10) {
            let (n, _) = rx.recv_from(&mut d).unwrap();
            assert_eq!(&d[..n], want);
        }
    }

    /// On a socket bound like `bind` with GRO on, a run of three 100 B
    /// frames and a 40 B tail comes back from one receive, whole, with its
    /// sender and segment size; a lone datagram comes back as itself.
    fn gro_run_arrives_in_one_receive(bind: &str) {
        let tx = UdpSocket::bind(bind).unwrap();
        let rx = UdpSocket::bind(bind).unwrap();
        rx.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert!(enable_gro(&rx).unwrap(), "the kernel has UDP GRO");
        let buf: Vec<u8> = (0..340u32).map(|i| (i * 7 % 251) as u8).collect();
        let to = rx.local_addr().unwrap();
        let from = tx.local_addr().unwrap();
        assert_eq!(send_run(&tx, to, &buf, 100, &mut 0).unwrap(), 4);
        tx.send_to(&buf[..50], to).unwrap();
        let mut d = [0u8; 1024];
        let mut calls = 0;
        let (len, peer, seg) = recv_segments(&rx, &mut d, &mut calls).unwrap();
        assert_eq!((len, peer, seg, calls), (340, from, 100, 1));
        assert_eq!(&d[..len], &buf[..]);
        let (len, peer, seg) = recv_segments(&rx, &mut d, &mut calls).unwrap();
        assert_eq!((len, peer, seg, calls), (50, from, 50, 2));
        assert_eq!(&d[..len], &buf[..50]);
    }

    #[test]
    fn gro_run_arrives_in_one_receive_v4() {
        gro_run_arrives_in_one_receive("127.0.0.1:0");
    }

    #[test]
    fn gro_run_arrives_in_one_receive_v6() {
        gro_run_arrives_in_one_receive("[::1]:0");
    }

    #[test]
    fn a_receive_longer_than_the_buffer_is_reported_truncated() {
        let (tx, rx) = pair();
        rx.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let to = rx.local_addr().unwrap();
        let mut d = [0u8; 200];
        let mut calls = 0;
        // A lone datagram, then (GRO on) a run, each longer than `d`.
        tx.send_to(&[1; 300], to).unwrap();
        let err = recv_segments(&rx, &mut d, &mut calls).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(enable_gro(&rx).unwrap(), "the kernel has UDP GRO");
        assert_eq!(send_run(&tx, to, &[2; 340], 100, &mut 0).unwrap(), 4);
        let err = recv_segments(&rx, &mut d, &mut calls).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Each clipped receive took its whole datagram or run with it.
        tx.send_to(b"next", to).unwrap();
        let (len, _, _) = recv_segments(&rx, &mut d, &mut calls).unwrap();
        assert_eq!((&d[..len], calls), (&b"next"[..], 3));
    }
}
