//! Allocation budget of the mounted path, held in tier-1: four reliable
//! streams through two `MuxDriver<Session>`s on a loopback socket pair, and
//! a chat-shaped exchange in which every message finds its sender asleep.
//!
//! On the mux, every transmit buffer goes back to the outbox once framed and
//! carries the next header, the send store reuses every segment it
//! releases, and the readers take messages with `RecvStream::recv_into`
//! into one reused buffer, so every buffer the data plane lends comes back.
//! What the public surface forces per datagram is nothing; what is left
//! after warm-up is growth to working size and what the std socket calls
//! allocate.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use std::time::{Duration, Instant};

use counting_alloc::{sample, top_sites, Counts};
use qtp_core::session::{ConnectionPlan, Profile, Session};
use qtp_core::stream::{RecvStream, SendStream, StreamConfig, StreamError};
use qtp_io::{accept_sessions, drive_mux_pair, MuxDriver};
use qtp_simnet::time::Rate;

const CONNS: usize = 4;
const TOTAL: usize = 1024 * 1024;
const WARM_UP: usize = TOTAL / 4;
const WRITE_LEN: usize = 8 * 1024;

/// One connection's application side.
struct App {
    send: SendStream,
    recv: Option<RecvStream>,
    written: usize,
    read: usize,
    /// The buffer every message is read into.
    buf: Vec<u8>,
}

impl App {
    /// Write until the send buffer is full or everything is written.
    fn feed(&mut self, file: &[u8]) {
        while self.written < TOTAL {
            let end = self.written + WRITE_LEN;
            match self.send.send(&file[self.written..end]) {
                Ok(()) => self.written = end,
                Err(StreamError::Full) => break,
                Err(e) => panic!("send failed: {e}"),
            }
        }
    }

    /// Read every message that arrived, checking it in place.
    fn drain(&mut self, file: &[u8]) {
        let Some(recv) = &self.recv else { return };
        while let Some(n) = recv.recv_into(&mut self.buf) {
            let end = self.read + n;
            assert!(
                self.buf[..] == file[self.read..end],
                "bytes at {}",
                self.read
            );
            self.read = end;
        }
    }
}

/// Four 1 MiB transfers over a fresh mux pair. Returns what was counted
/// once every connection was warm, and the datagrams sent meanwhile; with
/// `diagnose`, every allocation of that window is sampled for
/// [`top_sites`].
fn transfer(diagnose: bool) -> (Counts, u64) {
    let file: Vec<u8> = (0..TOTAL as u64)
        .map(|i| (i.wrapping_mul(2654435761) >> 7) as u8)
        .collect();
    let plan = ConnectionPlan::new(Profile::qtp_af(Rate::from_mbps(200)))
        .stream(StreamConfig::with_send_buf(256 * 1024));

    let mut server: MuxDriver<Session> = MuxDriver::bind("127.0.0.1:0").unwrap();
    let accepts = accept_sessions(&mut server, plan.clone());
    let server_addr = server.local_addr().unwrap();
    let mut client: MuxDriver<Session> = MuxDriver::bind("127.0.0.1:0").unwrap();
    let mut apps: Vec<App> = (0..CONNS as u32)
        .map(|i| {
            let sess = Session::sender(2 * i, 0, &plan);
            let send = sess.send_stream().expect("stream plan");
            client
                .add_connection(server_addr, vec![2 * i, 2 * i + 1], sess)
                .unwrap();
            App {
                send,
                recv: None,
                written: 0,
                read: 0,
                buf: Vec::new(),
            }
        })
        .collect();

    let sent = |c: &MuxDriver<Session>, s: &MuxDriver<Session>| {
        c.stats().datagrams_sent + s.stats().datagrams_sent
    };
    // `(counts, datagrams sent)` once every connection is warm.
    let mut mark: Option<(Counts, u64)> = None;
    let ok = drive_mux_pair(&mut client, &mut server, Duration::from_secs(30), |c, s| {
        while let Some(ev) = accepts.pop() {
            let id = s.route(ev.peer, ev.data_flow).expect("accepted conn");
            let recv = s.endpoint(id).and_then(|sess| sess.recv_stream());
            apps[ev.data_flow as usize / 2].recv = recv;
        }
        for app in &mut apps {
            app.feed(&file);
            app.drain(&file);
        }
        if mark.is_none() && apps.iter().all(|a| a.read >= WARM_UP) {
            if diagnose {
                sample(1);
            }
            mark = Some((Counts::now(), sent(c, s)));
        }
        apps.iter().all(|a| a.read == TOTAL)
    })
    .unwrap();
    assert!(ok, "transfer timed out");

    let (start, dgrams0) = mark.expect("warm-up ends before the transfer");
    (Counts::now().since(start), sent(&client, &server) - dgrams0)
}

#[test]
fn the_mux_path_allocates_nothing_per_datagram_it_sends() {
    let (counts, dgrams) = transfer(false);
    assert!(dgrams > 1000, "too short to measure: {dgrams} datagrams");
    let per_dgram = counts.allocs as f64 / dgrams as f64;
    if per_dgram > 0.05 {
        transfer(true);
        panic!(
            "{per_dgram:.3} allocations per datagram (budget 0.05): {counts} over {dgrams} \
             datagrams\n{}",
            top_sites()
        );
    }
}

/// Chat-shaped messages exchanged once warm.
const EXCHANGES: usize = 1000;
/// Chat before the count starts: one revolution of the muxes' timer wheels
/// (256 ms) and then some, so every wheel slot has grown to working size.
const CHAT_WARM_UP: Duration = Duration::from_millis(300);
const MSG_LEN: usize = 64;
/// Most timers both muxes hold at once during the chat: a sending session
/// keeps one recovery timer and at most one pace tick, and re-arms the
/// recovery timer only when its deadline moves earlier, so the count does
/// not grow with the exchanges (6 measured).
const CHAT_TIMERS: usize = 10;

/// One 64 B message at a time over one connection: the next is written
/// only once the last has been read, so the sender has slept in between
/// and each write wakes it. Returns what was counted once warm, the
/// datagrams sent meanwhile, and the most timers the two muxes held at
/// once after the warm-up.
fn chat(diagnose: bool) -> (Counts, u64, usize) {
    let plan = ConnectionPlan::new(Profile::qtp_af(Rate::from_mbps(200)))
        .stream(StreamConfig::with_send_buf(64 * 1024));
    let mut server: MuxDriver<Session> = MuxDriver::bind("127.0.0.1:0").unwrap();
    let accepts = accept_sessions(&mut server, plan.clone());
    let server_addr = server.local_addr().unwrap();
    let mut client: MuxDriver<Session> = MuxDriver::bind("127.0.0.1:0").unwrap();
    let sess = Session::sender(0, 0, &plan);
    let send = sess.send_stream().expect("stream plan");
    client
        .add_connection(server_addr, vec![0, 1], sess)
        .unwrap();

    let sent = |c: &MuxDriver<Session>, s: &MuxDriver<Session>| {
        c.stats().datagrams_sent + s.stats().datagrams_sent
    };
    let (mut recv, mut buf) = (None::<RecvStream>, Vec::new());
    let (mut written, mut read, mut most_timers) = (0usize, 0usize, 0usize);
    // `(counts, datagrams sent, messages read)` once warm.
    let mut mark: Option<(Counts, u64, usize)> = None;
    let start = Instant::now();
    let ok = drive_mux_pair(&mut client, &mut server, Duration::from_secs(30), |c, s| {
        while let Some(ev) = accepts.pop() {
            let id = s.route(ev.peer, ev.data_flow).expect("accepted conn");
            recv = s.endpoint(id).and_then(|sess| sess.recv_stream());
        }
        if let Some(recv) = &recv {
            while let Some(n) = recv.recv_into(&mut buf) {
                assert_eq!((n, buf[0]), (MSG_LEN, read as u8), "message {read}");
                read += 1;
            }
        }
        if mark.is_none() && written == read && start.elapsed() >= CHAT_WARM_UP {
            if diagnose {
                sample(1);
            }
            mark = Some((Counts::now(), sent(c, s), read));
        }
        let Some((_, _, read0)) = mark else {
            if written == read {
                send.send(&[written as u8; MSG_LEN])
                    .expect("one message fits");
                written += 1;
            }
            return false;
        };
        most_timers = most_timers.max(c.timer_count() + s.timer_count());
        if written == read && written < read0 + EXCHANGES {
            send.send(&[written as u8; MSG_LEN])
                .expect("one message fits");
            written += 1;
        }
        read == read0 + EXCHANGES
    })
    .unwrap();
    assert!(ok, "chat timed out");
    let (counts, dgrams0, _) = mark.expect("warm-up ends before the chat");
    (
        Counts::now().since(counts),
        sent(&client, &server) - dgrams0,
        most_timers,
    )
}

#[test]
fn a_chat_wakes_its_sender_per_message_without_allocating_or_piling_timers() {
    let (counts, dgrams, most_timers) = chat(false);
    assert!(dgrams >= EXCHANGES as u64, "{dgrams} datagrams");
    let per_dgram = counts.allocs as f64 / dgrams as f64;
    if per_dgram > 0.05 {
        chat(true);
        panic!(
            "{per_dgram:.3} allocations per datagram (budget 0.05): {counts} over {dgrams} \
             datagrams\n{}",
            top_sites()
        );
    }
    println!("chat: {per_dgram:.4} allocations per datagram, at most {most_timers} timers");
    assert!(
        most_timers <= CHAT_TIMERS,
        "{most_timers} timers armed at once (budget {CHAT_TIMERS})"
    );
}
