//! A blocking, single-thread UDP event loop for sans-io endpoints.
//!
//! [`UdpDriver`] owns one `std::net::UdpSocket`, one
//! [`Endpoint`](qtp_core::Endpoint) and one [`WallClock`], and drives the
//! endpoint exactly like the simulator does — datagram in, timers fired,
//! commands drained — except that "datagram" now means a real UDP payload
//! ([`Frame`]-encoded) and "time" is the monotonic wall clock:
//!
//! ```text
//! loop {
//!     fire due timers            // endpoint.on_timer(now, token)
//!     wait = min(next deadline, slice)
//!     recv with timeout(wait)    // endpoint.handle_datagram(now, frame)
//!     drain outbox               // Transmit -> socket, SetTimer -> heap,
//! }                              // Deliver  -> byte counter
//! ```
//!
//! Timers keep the simulator's fire-and-forget contract: the heap never
//! cancels an entry, endpoints discard stale generations themselves (see
//! [`TimerGens`](qtp_core::TimerGens)). The driver is strictly
//! single-threaded and blocking; running the two ends of a connection in
//! one thread (tests, the `udp_loopback` example) just alternates
//! [`UdpDriver::drive_once`] calls with a short slice — see
//! [`drive_pair`].

use qtp_core::driver::{Command, Endpoint, Outbox, Transmit};
use qtp_simnet::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::Duration;

use crate::clock::WallClock;
use crate::frame::{FrameRef, MAX_FRAME_LEN};

/// Smallest read timeout handed to the OS (zero means "block forever" to
/// `set_read_timeout`, which is exactly what we never want).
const MIN_WAIT: Duration = Duration::from_micros(100);

/// Counters describing what a driver has done so far.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DriverStats {
    /// Frames sent on the socket.
    pub datagrams_sent: u64,
    /// Frames received and handed to the endpoint.
    pub datagrams_received: u64,
    /// Datagrams dropped: not frame-decodable or from an unexpected peer.
    pub datagrams_rejected: u64,
    /// Timer events delivered to the endpoint (stale ones included).
    pub timers_fired: u64,
    /// Soft per-datagram socket errors absorbed by the loop (ICMP
    /// port-unreachable reflections and the like). A run that "times out"
    /// with a large count here was most likely talking to a dead peer.
    pub soft_errors: u64,
}

impl DriverStats {
    /// The socket-level counters in the cross-backend
    /// [`CounterSet`](qtp_metrics::trace::CounterSet) currency. Fields the
    /// driver cannot observe (retransmits, TTL drops, …) stay zero — those
    /// live on the endpoints' own tracers.
    pub fn counter_set(&self) -> qtp_metrics::trace::CounterSet {
        qtp_metrics::trace::CounterSet {
            pkts_tx: self.datagrams_sent,
            pkts_rx: self.datagrams_received,
            timer_fires: self.timers_fired,
            soft_errors: self.soft_errors,
            ..Default::default()
        }
    }
}

/// Drives one [`Endpoint`] over one UDP socket.
pub struct UdpDriver<E: Endpoint> {
    ep: E,
    out: Outbox,
    socket: UdpSocket,
    peer: Option<SocketAddr>,
    clock: WallClock,
    /// Armed wakeups, earliest first; equal deadlines tie-break by arming
    /// order (middle element), matching the simulator's insertion-order
    /// event tie-break. Entries are never removed before they fire;
    /// endpoints filter stale generations.
    timers: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    /// Monotonic arming counter feeding the heap's tie-break.
    next_timer_seq: u64,
    /// Transmissions emitted before the peer address is known (a server
    /// learns its peer from the first datagram).
    pending_tx: VecDeque<Transmit>,
    /// Per-driver datagram counter, stamped into frames as `seq`.
    next_seq: u64,
    /// Application bytes delivered by the endpoint (`Command::Deliver`).
    delivered_bytes: u64,
    started: bool,
    stats: DriverStats,
    recv_buf: Vec<u8>,
    /// The datagram being framed for `send_to`.
    tx_scratch: Vec<u8>,
}

impl<E: Endpoint> UdpDriver<E> {
    /// Wrap `ep` over an already-bound socket. The peer is learned from the
    /// first arriving datagram (server role) unless [`Self::set_peer`] is
    /// called first (client role).
    pub fn new(ep: E, socket: UdpSocket) -> io::Result<Self> {
        socket.set_nonblocking(false)?;
        Ok(UdpDriver {
            ep,
            out: Outbox::new(),
            socket,
            peer: None,
            clock: WallClock::new(),
            timers: BinaryHeap::new(),
            next_timer_seq: 0,
            pending_tx: VecDeque::new(),
            next_seq: 0,
            delivered_bytes: 0,
            started: false,
            stats: DriverStats::default(),
            // One byte beyond the frame bound, so an over-long datagram
            // reads as > MAX_FRAME_LEN and is rejected instead of being
            // silently truncated into something decodable.
            recv_buf: vec![0; MAX_FRAME_LEN + 1],
            tx_scratch: Vec::new(),
        })
    }

    /// Bind a socket on `bind_addr` and connect it (logically) to `peer` —
    /// the initiating side of a connection.
    pub fn client(ep: E, bind_addr: impl ToSocketAddrs, peer: SocketAddr) -> io::Result<Self> {
        let mut d = Self::new(ep, UdpSocket::bind(bind_addr)?)?;
        d.set_peer(peer);
        Ok(d)
    }

    /// Bind a socket on `bind_addr` and wait for a peer to show up — the
    /// listening side of a connection.
    pub fn server(ep: E, bind_addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::new(ep, UdpSocket::bind(bind_addr)?)
    }

    /// Fix the remote address datagrams are sent to. Queued transmissions
    /// are flushed on the next [`Self::drive_once`].
    pub fn set_peer(&mut self, peer: SocketAddr) {
        self.peer = Some(peer);
    }

    /// The socket's local address (useful after binding to port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// The wrapped endpoint.
    pub fn endpoint(&self) -> &E {
        &self.ep
    }

    /// Application bytes the endpoint has delivered so far.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes
    }

    /// Driver activity counters.
    pub fn stats(&self) -> DriverStats {
        self.stats
    }

    /// Deadline of the earliest armed timer, if any (the computed recv
    /// timeout in the loop sketch above).
    pub fn poll_timeout(&self) -> Option<SimTime> {
        self.timers.peek().map(|Reverse((at, _, _))| *at)
    }

    /// Run `Endpoint::on_start` (once) and flush its commands.
    pub fn start(&mut self) -> io::Result<()> {
        if self.started {
            return Ok(());
        }
        self.started = true;
        self.out.now = self.clock.now();
        self.ep.on_start(&mut self.out);
        self.flush()
    }

    /// One iteration of the event loop: fire due timers, then block on the
    /// socket for at most `slice` (shortened to the next timer deadline),
    /// then dispatch whatever arrived. Returns `true` if a datagram was
    /// processed.
    pub fn drive_once(&mut self, slice: Duration) -> io::Result<bool> {
        self.start()?;
        self.fire_due_timers()?;

        // How long may we sleep in recv without missing a deadline?
        let now = self.clock.now();
        let wait = match self.poll_timeout() {
            Some(at) => at.saturating_since(now).min(slice),
            None => slice,
        };
        self.socket.set_read_timeout(Some(wait.max(MIN_WAIT)))?;

        match self.socket.recv_from(&mut self.recv_buf) {
            Ok((n, from)) => {
                if self.peer.is_some() && self.peer != Some(from) {
                    self.stats.datagrams_rejected += 1;
                    return Ok(false);
                }
                match FrameRef::parse(&self.recv_buf[..n]) {
                    Ok(frame) => {
                        // Latch the peer only off a valid frame, so stray
                        // traffic can never lock out the real client.
                        if self.peer.is_none() {
                            self.peer = Some(from);
                        }
                        self.stats.datagrams_received += 1;
                        self.out.now = self.clock.now();
                        self.ep
                            .handle_datagram(&mut self.out, frame.wire_size, frame.header);
                        self.flush()?;
                        Ok(true)
                    }
                    Err(_) => {
                        self.stats.datagrams_rejected += 1;
                        Ok(false)
                    }
                }
            }
            // Timeouts are the loop's idle path; connection-reset style
            // errors are per-datagram soft failures on UDP (e.g. a prior
            // send hit ICMP port-unreachable — the SYN retransmit timer
            // handles recovery), never reasons to kill the event loop.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(false)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionReset | io::ErrorKind::ConnectionRefused
                ) =>
            {
                self.stats.soft_errors += 1;
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// Deliver every timer whose deadline has passed. Stale generations are
    /// delivered too — filtering them is the endpoint's job, matching the
    /// simulator's fire-and-forget contract. Like the mux's wheel, only
    /// timers armed before this call fire in it: one armed already-due by a
    /// callback (a sender's catch-up pace tick) waits for the next
    /// iteration, after the peer had its turn to receive.
    fn fire_due_timers(&mut self) -> io::Result<()> {
        let now = self.clock.now();
        let mut due = Vec::new();
        while let Some(Reverse((at, _, token))) = self.timers.peek() {
            if *at > now {
                break;
            }
            due.push(*token);
            self.timers.pop();
        }
        for token in due {
            self.stats.timers_fired += 1;
            self.out.now = self.clock.now();
            self.ep.on_timer(&mut self.out, token);
            self.flush()?;
        }
        Ok(())
    }

    /// Apply the endpoint's buffered commands, in order.
    fn flush(&mut self) -> io::Result<()> {
        while let Some(cmd) = self.out.poll_cmd() {
            match cmd {
                Command::Transmit(t) => {
                    if self.peer.is_some() {
                        self.send_frame(t)?;
                    } else {
                        self.pending_tx.push_back(t);
                    }
                }
                Command::SetTimer { at, token } => {
                    self.next_timer_seq += 1;
                    self.timers.push(Reverse((at, self.next_timer_seq, token)));
                }
                Command::Deliver { bytes, .. } => self.delivered_bytes += bytes,
            }
        }
        // A freshly learned peer releases anything queued before it.
        while self.peer.is_some() {
            match self.pending_tx.pop_front() {
                Some(t) => self.send_frame(t)?,
                None => break,
            }
        }
        Ok(())
    }

    fn send_frame(&mut self, t: Transmit) -> io::Result<()> {
        let peer = self.peer.expect("send_frame requires a peer");
        self.next_seq += 1;
        self.tx_scratch.clear();
        FrameRef {
            flow: t.flow,
            seq: self.next_seq,
            wire_size: t.wire_size,
            header: &t.header,
        }
        .encode_into(&mut self.tx_scratch)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        self.socket.send_to(&self.tx_scratch, peer)?;
        self.stats.datagrams_sent += 1;
        Ok(())
    }
}

/// Annotate a socket error with which driver of a pair raised it, keeping
/// the original [`io::ErrorKind`] so callers can still match on it.
pub(crate) fn annotate_side(side: &str, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{side}: {e}"))
}

/// Drive two endpoints of one connection in a single thread, alternating
/// short [`UdpDriver::drive_once`] slices, until `done` reports completion
/// or `deadline` (wall time) expires. Returns whether `done` was reached.
///
/// Socket errors are never swallowed: a hard failure on either side aborts
/// the loop immediately, with the error annotated by side (`"a side"` /
/// `"b side"`, in argument order) and its [`io::ErrorKind`] preserved.
pub fn drive_pair<A: Endpoint, B: Endpoint>(
    a: &mut UdpDriver<A>,
    b: &mut UdpDriver<B>,
    deadline: Duration,
    mut done: impl FnMut(&UdpDriver<A>, &UdpDriver<B>) -> bool,
) -> io::Result<bool> {
    const SLICE: Duration = Duration::from_micros(300);
    let start = std::time::Instant::now();
    loop {
        a.drive_once(SLICE)
            .map_err(|e| annotate_side("a side", e))?;
        b.drive_once(SLICE)
            .map_err(|e| annotate_side("b side", e))?;
        if done(a, b) {
            return Ok(true);
        }
        if start.elapsed() > deadline {
            return Ok(false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echoes every datagram back with its header reversed, and counts.
    struct Echo {
        flow: u32,
        got: u64,
    }

    impl Endpoint for Echo {
        fn handle_datagram(&mut self, out: &mut Outbox, wire_size: u32, header: &[u8]) {
            self.got += 1;
            let mut back = header.to_vec();
            back.reverse();
            out.send_new(self.flow, 0, wire_size, back);
        }
    }

    /// Sends one datagram on start, records the reply.
    struct Pinger {
        flow: u32,
        reply: Option<Vec<u8>>,
    }

    impl Endpoint for Pinger {
        fn on_start(&mut self, out: &mut Outbox) {
            out.send_new(self.flow, 0, 64, vec![1, 2, 3]);
        }
        fn handle_datagram(&mut self, _out: &mut Outbox, _wire_size: u32, header: &[u8]) {
            self.reply = Some(header.to_vec());
        }
    }

    #[test]
    fn ping_pong_over_loopback() {
        let mut server = UdpDriver::server(Echo { flow: 9, got: 0 }, "127.0.0.1:0").unwrap();
        let server_addr = server.local_addr().unwrap();
        let mut client = UdpDriver::client(
            Pinger {
                flow: 9,
                reply: None,
            },
            "127.0.0.1:0",
            server_addr,
        )
        .unwrap();
        let ok = drive_pair(&mut client, &mut server, Duration::from_secs(5), |c, _| {
            c.endpoint().reply.is_some()
        })
        .unwrap();
        assert!(ok, "echo round-trip timed out");
        assert_eq!(client.endpoint().reply.as_deref(), Some(&[3, 2, 1][..]));
        assert_eq!(server.endpoint().got, 1);
        assert_eq!(client.stats().datagrams_sent, 1);
        assert_eq!(client.stats().datagrams_received, 1);
    }

    #[test]
    fn timers_fire_in_deadline_order() {
        struct TimerBox {
            fired: Vec<u64>,
        }
        impl Endpoint for TimerBox {
            fn on_start(&mut self, out: &mut Outbox) {
                // Armed out of order on purpose.
                out.set_timer_at(out.now + Duration::from_millis(30), 3);
                out.set_timer_at(out.now + Duration::from_millis(10), 1);
                out.set_timer_at(out.now + Duration::from_millis(20), 2);
            }
            fn on_timer(&mut self, _out: &mut Outbox, token: u64) {
                self.fired.push(token);
            }
        }
        let mut d = UdpDriver::server(TimerBox { fired: Vec::new() }, "127.0.0.1:0").unwrap();
        let t0 = std::time::Instant::now();
        while d.endpoint().fired.len() < 3 && t0.elapsed() < Duration::from_secs(5) {
            d.drive_once(Duration::from_millis(5)).unwrap();
        }
        assert_eq!(d.endpoint().fired, vec![1, 2, 3]);
        assert_eq!(d.stats().timers_fired, 3);
    }

    #[test]
    fn drive_pair_surfaces_socket_errors_with_side_attribution() {
        // An endpoint whose very first transmit cannot be framed: the send
        // path fails with InvalidData, and drive_pair must abort with that
        // error (annotated by side) instead of spinning to the deadline.
        struct Unframable;
        impl Endpoint for Unframable {
            fn on_start(&mut self, out: &mut Outbox) {
                out.send_new(0, 0, 64, vec![0; crate::frame::MAX_FRAME_LEN]);
            }
        }
        let mut server = UdpDriver::server(Echo { flow: 0, got: 0 }, "127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let mut client = UdpDriver::client(Unframable, "127.0.0.1:0", addr).unwrap();
        let err = drive_pair(&mut client, &mut server, Duration::from_secs(5), |_, _| {
            false
        })
        .expect_err("unframable transmit must surface as an error");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("a side"),
            "error names the failing side: {err}"
        );
    }

    #[test]
    fn garbage_datagrams_are_rejected_and_do_not_poison_the_peer() {
        let mut server = UdpDriver::server(Echo { flow: 1, got: 0 }, "127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
        raw.send_to(b"definitely not a frame", addr).unwrap();
        let t0 = std::time::Instant::now();
        while server.stats().datagrams_rejected == 0 && t0.elapsed() < Duration::from_secs(5) {
            server.drive_once(Duration::from_millis(5)).unwrap();
        }
        assert_eq!(server.stats().datagrams_rejected, 1);
        assert_eq!(server.endpoint().got, 0);

        // The stray traffic must not have latched the peer: a legitimate
        // client arriving afterwards still gets through.
        let mut client = UdpDriver::client(
            Pinger {
                flow: 1,
                reply: None,
            },
            "127.0.0.1:0",
            addr,
        )
        .unwrap();
        let ok = drive_pair(&mut client, &mut server, Duration::from_secs(5), |c, _| {
            c.endpoint().reply.is_some()
        })
        .unwrap();
        assert!(ok, "real client locked out after garbage datagram");
        assert_eq!(server.endpoint().got, 1);
    }
}
