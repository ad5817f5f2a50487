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
//! * [`mux`] — [`MuxDriver`], the one real-socket event loop: one
//!   non-blocking socket carrying any number of concurrent endpoints (a
//!   single connection is N = 1), routed by `(peer, flow id)`, with a
//!   per-connection [`TimerWheel`], accept-on-first-frame, teardown and
//!   stale-flow reaping. Its loop waits for readiness, not for time: an
//!   idle iteration blocks until the socket is ready or the next timer is
//!   due ([`step_mux_pair`] does so for both muxes of a one-thread rig at
//!   once);
//! * [`accept`] — [`accept_sessions`], plan-driven server-side accept;
//! * [`backend`] — [`MuxBackend`], the `qtp_core::session::Backend`
//!   binding that runs `ConnectionPlan`s over one loopback socket pair.
//!
//! Zero runtime dependencies beyond `std`, by workspace policy. The
//! crate's four foreign calls therefore live in one private in-tree module
//! (`wait`) rather than behind a `libc`/`mio` dependency: `ppoll(2)` for the
//! readiness wait, `sendmsg(2)` with `UDP_SEGMENT` for the mux's batched
//! sends, and `recvmsg(2)` plus `setsockopt(2)` of `UDP_GRO` for its
//! batched receives, one receive per peer's run once its first bulk burst
//! has turned GRO on. Their argument layouts are pinned by compile-time
//! size assertions. Targets other than 64-bit Linux sleep, send frame by
//! frame and receive datagram by datagram, inside the same functions
//! instead.
//!
//! ## Example
//!
//! Complete a capability handshake and a reliable 20-packet transfer
//! between two sockets on loopback, both driven from one thread. The
//! server accepts the connection on its first frame; the client owns data
//! flow 0 and feedback flow 1:
//!
//! ```
//! use qtp_core::session::{ConnectionPlan, Profile, Session};
//! use qtp_io::{accept_sessions, drive_mux_pair, MuxDriver};
//! use qtp_simnet::time::Rate;
//! use std::time::Duration;
//!
//! let plan = ConnectionPlan::new(Profile::qtp_af(Rate::from_kbps(500))).finite(20);
//!
//! let mut server: MuxDriver<Session> = MuxDriver::bind("127.0.0.1:0").unwrap();
//! let accepts = accept_sessions(&mut server, plan.clone());
//! let server_addr = server.local_addr().unwrap();
//!
//! let mut client: MuxDriver<Session> = MuxDriver::bind("127.0.0.1:0").unwrap();
//! let conn = client
//!     .add_connection(server_addr, vec![0, 1], Session::sender(0, 0, &plan))
//!     .unwrap();
//!
//! let done = drive_mux_pair(&mut client, &mut server, Duration::from_secs(20), |c, _| {
//!     let tx = c.endpoint(conn).unwrap();
//!     tx.sent_new() == 20 && tx.all_acked()
//! })
//! .unwrap();
//! assert!(done, "transfer did not complete");
//!
//! let ev = accepts.pop().expect("the server accepted one connection");
//! let rx = server.route(ev.peer, ev.data_flow).unwrap();
//! assert_eq!(server.conn_stats(rx).unwrap().delivered_bytes, 20 * 1000);
//! ```

pub mod accept;
pub mod backend;
pub mod clock;
pub mod frame;
pub mod mux;
mod wait;

pub use accept::{accept_sessions, AcceptEvent, AcceptQueue};
pub use backend::MuxBackend;
pub use clock::WallClock;
pub use frame::{Frame, FrameError};
pub use mux::{
    drive_mux_pair, step_mux_pair, Accepted, ConnId, ConnStats, MuxConfig, MuxDriver, MuxStats,
    TimerWheel,
};
