//! # qtp-io — run QTP over real UDP sockets
//!
//! The deployment path the paper argues for: the versatile transport as a
//! userspace protocol over UDP, in the tradition of QUIC implementations
//! that keep the protocol state machine sans-io and push all I/O into a
//! thin driver.
//!
//! The QTP endpoints in `qtp-core` implement the
//! [`Endpoint`](qtp_core::Endpoint) driver seam — datagrams and timers in,
//! buffered commands out. This crate supplies the real-I/O driver half:
//!
//! * [`frame`] — explicit on-the-wire framing of the metadata the
//!   simulator carried implicitly (flow id, datagram seq, accounted wire
//!   size) plus the encoded transport header;
//! * [`clock`] — a monotonic wall clock mapped onto the protocol's
//!   `SimTime` axis, so every timestamp-based computation (RTT, feedback
//!   rounds, TTL reliability) is backend-independent;
//! * [`driver`] — [`UdpDriver`], a blocking single-thread event loop over
//!   one `std::net::UdpSocket`: fire due timers → `recv` with the computed
//!   timeout → dispatch → drain commands to the socket;
//! * [`mux`] — [`MuxDriver`], the connection multiplexer: one non-blocking
//!   socket carrying many concurrent endpoints, routed by
//!   `(peer, flow id)`, with a per-connection [`TimerWheel`],
//!   accept-on-first-frame, teardown and stale-flow reaping. Its loop
//!   waits for readiness, not for time: an idle iteration blocks until the
//!   socket is ready or the next timer is due ([`step_mux_pair`] does so
//!   for both muxes of a one-thread rig at once).
//!
//! Zero runtime dependencies beyond `std`, by workspace policy. The
//! readiness wait is therefore an in-tree `ppoll(2)` binding (private
//! `wait` module) rather than a `libc`/`mio` dependency; it contains the
//! first and only `unsafe` block in this crate — one foreign call whose
//! argument layouts are pinned by compile-time size assertions. Targets
//! other than 64-bit Linux sleep inside the same function instead.
//!
//! ## Example
//!
//! Complete a capability handshake and a reliable 20-packet transfer
//! between two sockets on loopback, both driven from one thread:
//!
//! ```
//! use qtp_core::{qtp_af_sender, AppModel, Probe, QtpReceiver, QtpReceiverConfig, QtpSender};
//! use qtp_io::{drive_pair, UdpDriver};
//! use qtp_simnet::time::Rate;
//! use std::time::Duration;
//!
//! let mut cfg = qtp_af_sender(Rate::from_kbps(500));
//! cfg.app = AppModel::Finite { packets: 20 };
//!
//! let receiver = QtpReceiver::new(0, 1, 0, QtpReceiverConfig::default(), Probe::new());
//! let mut rx = UdpDriver::server(receiver, "127.0.0.1:0").unwrap();
//! let peer = rx.local_addr().unwrap();
//!
//! let sender = QtpSender::new(0, 1, cfg, Probe::new());
//! let mut tx = UdpDriver::client(sender, "127.0.0.1:0", peer).unwrap();
//!
//! let done = drive_pair(&mut tx, &mut rx, Duration::from_secs(20), |tx, rx| {
//!     rx.endpoint().delivered_packets() == 20 && tx.endpoint().all_acked()
//! })
//! .unwrap();
//! assert!(done, "transfer did not complete");
//! assert_eq!(rx.delivered_bytes(), 20 * 1000);
//! ```

pub mod accept;
pub mod backend;
pub mod clock;
pub mod driver;
pub mod frame;
pub mod mux;
mod wait;

pub use accept::{accept_sessions, AcceptEvent, AcceptQueue};
pub use backend::{MuxBackend, UdpBackend};
pub use clock::WallClock;
pub use driver::{drive_pair, DriverStats, UdpDriver};
pub use frame::{Frame, FrameError};
pub use mux::{
    drive_mux_pair, step_mux_pair, Accepted, ConnId, ConnStats, MuxConfig, MuxDriver, MuxStats,
    TimerWheel,
};
