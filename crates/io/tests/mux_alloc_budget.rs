//! Allocation budget of the mounted path, held in tier-1: four reliable
//! streams through two `MuxDriver<Session>`s on a loopback socket pair.
//!
//! An integration test is its own binary, so it can install a counting
//! `#[global_allocator]` without touching the crates under test. Counters are
//! thread-local: the harness runs each test on its own thread, and the mux
//! pair is driven on that thread, so the test reads exactly its own
//! allocations.
//!
//! On the mux, every transmit buffer goes back to the outbox once framed and
//! carries the next header, so sending allocates nothing per datagram. What
//! remains is what the public surface forces: the `Vec<u8>` every
//! `RecvStream::recv` returns, one per 8 KiB message (about 0.12 per
//! datagram), and the send store's segments (about 0.06).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use qtp_core::session::{ConnectionPlan, Profile, Session};
use qtp_core::stream::{RecvStream, SendStream, StreamConfig, StreamError};
use qtp_io::{accept_sessions, drive_mux_pair, MuxDriver};
use qtp_simnet::time::Rate;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's own layout and
// pointer; the counter is a plain thread-local integer and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the allocator also runs while a thread's locals are
        // torn down; those calls go uncounted.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above,
        // with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    /// A growth is one allocation, as `qtpperf` counts it.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

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
        while let Some(msg) = recv.recv() {
            let end = self.read + msg.len();
            assert!(msg[..] == file[self.read..end], "bytes at {}", self.read);
            self.read = end;
        }
    }
}

#[test]
fn the_mux_path_allocates_nothing_per_datagram_it_sends() {
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
            }
        })
        .collect();

    let sent = |c: &MuxDriver<Session>, s: &MuxDriver<Session>| {
        c.stats().datagrams_sent + s.stats().datagrams_sent
    };
    // `(allocations, datagrams sent)` once every connection is warm.
    let mut mark: Option<(u64, u64)> = None;
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
            mark = Some((ALLOCS.get(), sent(c, s)));
        }
        apps.iter().all(|a| a.read == TOTAL)
    })
    .unwrap();
    assert!(ok, "transfer timed out");

    let (allocs0, dgrams0) = mark.expect("warm-up ends before the transfer");
    let allocs = ALLOCS.get() - allocs0;
    let dgrams = sent(&client, &server) - dgrams0;
    assert!(dgrams > 1000, "too short to measure: {dgrams} datagrams");
    let per_dgram = allocs as f64 / dgrams as f64;
    assert!(
        per_dgram <= 0.3,
        "{per_dgram:.3} allocations per datagram ({allocs} over {dgrams})"
    );
}
