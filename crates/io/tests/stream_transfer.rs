//! Stream data plane over real sockets: a 1 MiB file goes through
//! `SendStream::send` on one side of a loopback socket pair and comes out
//! byte-exact through `RecvStream::recv` on the other, and the wire-level
//! FIN / FIN-ACK close completes — on [`MuxDriver`] with plan-driven accept
//! ([`accept_sessions`]).
//!
//! The same test pins the timer no-leak property: a session that
//! completed its wire close and is then dropped from the mux leaves no
//! entry behind in the [`TimerWheel`], and nothing resurrects one.
//!
//! A second test holds the mux loop to the rate the profile guarantees: one
//! 200 Mbit/s QTPAF stream must move 8 MiB in well under the 3.7 s the
//! sleep-polling loop took.

use qtp_core::session::{ConnectionPlan, Profile, Session};
use qtp_core::stream::{RecvStream, SendStream, StreamConfig, StreamError};
use qtp_io::{accept_sessions, drive_mux_pair, step_mux_pair, MuxDriver};
use qtp_simnet::time::Rate;
use std::time::{Duration, Instant};

const FILE_LEN: usize = 1024 * 1024;
const SLICE: Duration = Duration::from_micros(300);
const DEADLINE: Duration = Duration::from_secs(60);

/// Deterministic pseudo-random payload, position-dependent so any
/// reordering or loss of a chunk breaks the byte-exact comparison.
fn test_file(len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| (i.wrapping_mul(2654435761) >> 7) as u8)
        .collect()
}

fn stream_plan() -> ConnectionPlan {
    ConnectionPlan::new(Profile::qtp_af(Rate::from_mbps(200)))
        .stream(StreamConfig::with_send_buf(256 * 1024))
}

/// Push as much of `file` into the stream as the send buffer accepts,
/// then finish it once everything has been submitted.
fn feed(send: &SendStream, file: &[u8], offset: &mut usize) {
    while *offset < file.len() {
        let end = (*offset + 8 * 1024).min(file.len());
        match send.send(&file[*offset..end]) {
            Ok(()) => *offset = end,
            Err(StreamError::Full) => break,
            Err(e) => panic!("send failed: {e}"),
        }
    }
    if *offset == file.len() && !send.is_finished() {
        send.finish();
    }
}

fn drain(recv: &RecvStream, into: &mut Vec<u8>) {
    let mut msg = Vec::new();
    while recv.recv_into(&mut msg).is_some() {
        into.extend_from_slice(&msg);
    }
}

#[test]
fn mux_stream_transfer_with_plan_accept_and_timer_drain() {
    let file = test_file(FILE_LEN);
    let plan = stream_plan();

    // Server side: no pre-registered connections at all — sessions come
    // from the plan template when the client's offer arrives.
    let mut server: MuxDriver<Session> = MuxDriver::bind("127.0.0.1:0").unwrap();
    let accepts = accept_sessions(&mut server, plan.clone());
    let server_addr = server.local_addr().unwrap();

    let mut client: MuxDriver<Session> = MuxDriver::bind("127.0.0.1:0").unwrap();
    let tx_sess = Session::sender(0, 0, &plan);
    let send = tx_sess.send_stream().expect("sender stream");
    let tx_id = client
        .add_connection(server_addr, vec![0, 1], tx_sess)
        .unwrap();

    let mut offset = 0usize;
    let mut received = Vec::with_capacity(file.len());
    let mut recv: Option<RecvStream> = None;
    let mut rx_id = None;
    let ok = drive_mux_pair(&mut client, &mut server, DEADLINE, |c, s| {
        feed(&send, &file, &mut offset);
        if recv.is_none() {
            if let Some(ev) = accepts.pop() {
                let id = s
                    .route(ev.peer, ev.data_flow)
                    .expect("accepted conn routed");
                recv = s.endpoint(id).and_then(|sess| sess.recv_stream());
                rx_id = Some(id);
            }
        }
        let Some(r) = &recv else { return false };
        drain(r, &mut received);
        r.is_finished() && c.endpoint(tx_id).is_some_and(|sess| sess.is_closed())
    })
    .unwrap();
    assert!(ok, "mux transfer timed out");

    assert_eq!(received.len(), file.len(), "all bytes arrived");
    assert_eq!(received, file, "byte-exact over the mux");
    let recv = recv.expect("plan acceptor produced a session");
    assert!(recv.is_finished());
    assert!(accepts.is_empty(), "exactly one connection was accepted");
    assert_eq!(server.stats().conns_accepted, 1);

    // Satellite property: dropping the closed sessions leaves no timer
    // wheel entries behind — `cancel_conn` purges in-flight entries and a
    // closed endpoint never re-arms.
    let rx_id = rx_id.unwrap();
    let tx_sess = client.close(tx_id).expect("client conn was live");
    assert!(tx_sess.is_closed());
    server.close(rx_id).expect("server conn was live");
    assert_eq!(client.timer_count(), 0, "client wheel purged");
    assert_eq!(server.timer_count(), 0, "server wheel purged");
    assert_eq!(client.poll_timeout(), None);
    assert_eq!(server.poll_timeout(), None);

    // Nothing resurrects an entry: late datagrams for the dropped
    // connections are unroutable, and driving both muxes arms nothing.
    for _ in 0..20 {
        step_mux_pair(&mut client, &mut server, SLICE).unwrap();
    }
    assert_eq!(client.timer_count(), 0, "no timer leaked after drop");
    assert_eq!(server.timer_count(), 0, "no timer leaked after drop");
    assert_eq!(client.conn_count(), 0);
    assert_eq!(server.conn_count(), 0);
}

#[test]
fn mux_stream_holds_the_guaranteed_rate() {
    // 8 MiB at the 200 Mbit/s floor is 0.34 s. A loop that sleeps through
    // pace deadlines, or a pace timer that forgets its lateness, took 3.7 s.
    const LEN: usize = 8 * 1024 * 1024;
    const LIMIT: Duration = Duration::from_millis(1500);
    let file = test_file(LEN);
    let plan = stream_plan();

    let mut server: MuxDriver<Session> = MuxDriver::bind("127.0.0.1:0").unwrap();
    let accepts = accept_sessions(&mut server, plan.clone());
    let server_addr = server.local_addr().unwrap();
    let mut client: MuxDriver<Session> = MuxDriver::bind("127.0.0.1:0").unwrap();
    let tx_sess = Session::sender(0, 0, &plan);
    let send = tx_sess.send_stream().expect("sender stream");
    client
        .add_connection(server_addr, vec![0, 1], tx_sess)
        .unwrap();

    let start = Instant::now();
    let mut offset = 0usize;
    let mut received = Vec::with_capacity(LEN);
    let mut recv: Option<RecvStream> = None;
    let ok = drive_mux_pair(&mut client, &mut server, DEADLINE, |_, s| {
        feed(&send, &file, &mut offset);
        if recv.is_none() {
            if let Some(ev) = accepts.pop() {
                let id = s.route(ev.peer, ev.data_flow).expect("accepted conn");
                recv = s.endpoint(id).and_then(|sess| sess.recv_stream());
            }
        }
        let Some(r) = &recv else { return false };
        drain(r, &mut received);
        received.len() == LEN
    })
    .unwrap();
    let took = start.elapsed();

    assert!(ok, "mux transfer timed out");
    assert!(received == file, "byte-exact over the mux");
    let (c, s) = (client.stats(), server.stats());
    assert!(
        took < LIMIT,
        "8 MiB took {took:?} (limit {LIMIT:?}); max timer lag client {} us / server {} us, \
         client waits {} ({} readable / {} deadline / {} slice)",
        c.timer_lag_max_ns / 1000,
        s.timer_lag_max_ns / 1000,
        c.waits,
        c.wakes_readable,
        c.wakes_deadline,
        c.wakes_slice,
    );
}
