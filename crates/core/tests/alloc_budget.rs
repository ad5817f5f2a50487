//! Allocation and release budget of the stream data plane, held in tier-1.
//!
//! An integration test is its own binary, so it can install a counting
//! `#[global_allocator]` without touching the crates under test. Counters are
//! thread-local: the harness runs each test on its own thread, and each test
//! is single-threaded, so a test reads exactly its own allocations.
//!
//! What the steady-state fast path is allowed to allocate is the `Vec<u8>`
//! every `RecvStream::recv` returns and the send store's segments. `Pipe`
//! gives every transmitted header back with `Session::reuse`, so headers
//! are encoded into lent buffers, as on the mux (`qtp-io`'s
//! `mux_alloc_budget`). Everything else — queueing, packetising,
//! retransmission state, reassembly, feedback — must come out of storage
//! that is reused.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use qtp_core::pipe::{Dir, Fate, Pipe};
use qtp_core::session::{ConnectionPlan, Profile, Reliability, Session};
use qtp_core::stream::StreamConfig;
use qtp_core::{CcKind, QtpPacket};
use qtp_simnet::time::{Rate, SimTime};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated and not yet freed (wraps below zero harmlessly: only
    /// differences are read).
    static LIVE: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>, by: u64) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down; those calls go uncounted.
    let _ = counter.try_with(|c| c.set(c.get().wrapping_add(by)));
}

// SAFETY: every method forwards to `System` with the caller's own layout and
// pointer; the counters are plain thread-local integers and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS, 1);
        bump(&BYTES, layout.size() as u64);
        bump(&LIVE, layout.size() as u64);
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES, 1);
        bump(&LIVE, (layout.size() as u64).wrapping_neg());
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above,
        // with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    /// A growth is one allocation of the new size, as `qtpperf` counts it.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCS, 1);
        bump(&BYTES, new_size as u64);
        bump(&LIVE, (new_size as u64).wrapping_sub(layout.size() as u64));
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes requested, frees)` on this thread so far.
fn counts() -> (u64, u64, u64) {
    (ALLOCS.get(), BYTES.get(), FREES.get())
}

/// Datagrams the pipe carried in both directions, dropped ones included.
fn dgrams(pipe: &Pipe) -> u64 {
    pipe.sent(Dir::Forward) + pipe.sent(Dir::Reverse)
}

/// Run the pipe — the shape of qtpperf's `pipe_*` workloads, without its
/// instrumentation — with `app` after every step, draining both sides'
/// events.
fn run(pipe: &mut Pipe, mut app: impl FnMut(&mut Pipe) -> bool) {
    pipe.run_until(SimTime::from_secs(600), |p| {
        while p.tx.poll_event().is_some() || p.rx.poll_event().is_some() {}
        app(p)
    })
    .unwrap_or_else(|stall| panic!("{stall}"));
}

/// Stream `total` bytes in `write_len` writes; returns allocations and
/// allocated bytes per datagram over everything after the first `warm_up`
/// bytes were delivered (queues, pools and timer heaps have grown by then).
fn transfer(
    plan: &ConnectionPlan,
    one_way: Duration,
    write_len: usize,
    total: usize,
) -> (f64, f64) {
    let warm_up = total / 4;
    let mut pipe = Pipe::new(plan, one_way);
    let send = pipe.tx.send_stream().expect("stream plan");
    let recv = pipe.rx.recv_stream().expect("stream plan");
    let msg = vec![0xA5u8; write_len];
    let (mut written, mut read) = (0usize, 0usize);
    let mut mark: Option<((u64, u64, u64), u64)> = None;
    run(&mut pipe, |p| {
        while written < total && send.send(&msg).is_ok() {
            written += write_len;
        }
        while let Some(m) = recv.recv() {
            read += m.len();
        }
        if mark.is_none() && read >= warm_up {
            mark = Some((counts(), dgrams(p)));
        }
        read >= total
    });
    let ((allocs0, bytes0, _), dgrams0) = mark.expect("warm-up ends before the transfer");
    let (allocs, bytes, _) = counts();
    let dgrams = (dgrams(&pipe) - dgrams0) as f64;
    assert!(dgrams > 1000.0, "too short to measure: {dgrams} datagrams");
    (
        (allocs - allocs0) as f64 / dgrams,
        (bytes - bytes0) as f64 / dgrams,
    )
}

fn bulk_plan() -> ConnectionPlan {
    ConnectionPlan::new(Profile::qtp_af(Rate::from_mbps(200)))
        .stream(StreamConfig::with_send_buf(256 * 1024))
}

/// `pipe_bulk`'s shape: a fully reliable stream, 8 KiB writes. The floor is
/// one delivered `Vec` per 8 KiB message, 1000/8192 = 0.12 allocations per
/// datagram; the budget leaves room for the send store growing with the
/// rate, not for a per-packet allocation anywhere (one would read ~1.3).
#[test]
fn reliable_bulk_stays_within_its_allocation_budget() {
    let (allocs, bytes) = transfer(&bulk_plan(), Duration::from_millis(5), 8 * 1024, 4 << 20);
    assert!(allocs <= 0.35, "{allocs:.3} allocations per datagram");
    assert!(bytes <= 2200.0, "{bytes:.0} bytes allocated per datagram");
}

/// Allocations per datagram of `pipe_lossy_vlbi`'s shape without the loss,
/// under `reliability`: gTFRC, one 1200-byte message per packet.
fn message_transfer(reliability: Reliability) -> f64 {
    let profile = Profile::new()
        .reliability(reliability)
        .cc(CcKind::Gtfrc {
            target: Rate::from_mbps(20),
        })
        .build()
        .expect("valid reliability");
    let plan = ConnectionPlan::new(profile)
        .payload(1200)
        .stream(StreamConfig::with_send_buf(256 * 1024));
    transfer(&plan, Duration::from_millis(50), 1200, 2400 * 1200).0
}

/// TTL-partial reliability in message mode. Each datagram is one delivered
/// `Vec`.
#[test]
fn message_mode_stays_within_its_allocation_budget() {
    let allocs = message_transfer(Reliability::Ttl(Duration::from_millis(300)));
    assert!(allocs <= 1.5, "{allocs:.3} allocations per datagram");
}

/// The reliability mode is judged at loss time from the scoreboard's
/// per-sequence record, so choosing TTL over a retransmission budget costs
/// no allocation per datagram (a per-ADU map would add ~0.16).
#[test]
fn the_reliability_mode_does_not_change_allocation_cost() {
    let ttl = message_transfer(Reliability::Ttl(Duration::from_millis(300)));
    let budget = message_transfer(Reliability::Budget(1));
    assert!(
        ttl <= budget + 0.02,
        "TTL {ttl:.3} vs Budget(1) {budget:.3} allocations per datagram"
    );
}

/// A stream that never retransmits (plain TFRC: no SACK, no FORWARD) must
/// not wait for acknowledgements to release what it sent: after one lost
/// datagram the receiver's cumulative ack stands at the hole for good.
#[test]
fn an_unreliable_stream_holds_no_sent_bytes_behind_a_hole() {
    let plan = ConnectionPlan::new(Profile::tfrc())
        .payload(1200)
        .stream(StreamConfig::with_send_buf(64 * 1024));
    let mut pipe = Pipe::new(&plan, Duration::from_millis(5));
    let lost = 20;
    pipe.set_fate(move |dir, n, _| {
        if (dir, n) == (Dir::Forward, lost) {
            Fate::Drop
        } else {
            Fate::Deliver
        }
    });
    let send = pipe.tx.send_stream().expect("stream plan");
    let recv = pipe.rx.recv_stream().expect("stream plan");
    let msg = vec![0xC3u8; 1200];
    let total = 3000u64;
    let (mut written, mut live_at_500) = (0u64, None);
    run(&mut pipe, |_| {
        while written < total && send.send(&msg).is_ok() {
            written += 1;
        }
        while recv.recv().is_some() {}
        if live_at_500.is_none() && recv.messages_received() >= 500 {
            live_at_500 = Some(LIVE.get());
        }
        recv.messages_received() >= total - 1
    });
    assert!(pipe.sent(Dir::Forward) > lost, "one datagram was dropped");
    let grown = LIVE
        .get()
        .wrapping_sub(live_at_500.expect("500 of 3000 arrive")) as i64;
    // 2500 more messages are 3 MB sent; per-packet scoreboard state aside,
    // none of it stays on the heap.
    assert!(grown < 256 * 1024, "live heap grew by {grown} bytes");
}

/// A connected sender with `packets` stream packets of `payload` bytes on
/// the wire, unacknowledged; returns the frees inside the `handle_input` of
/// the one feedback that acknowledges them all.
fn frees_acknowledging(packets: u64, payload: u32) -> u64 {
    let plan = bulk_plan().payload(payload);
    let mut tx = Session::sender(0, 0, &plan);
    let mut now = SimTime::ZERO;
    tx.start(now);
    while tx.poll_transmit().is_some() {}
    now += Duration::from_millis(1);
    let synack = QtpPacket::SynAck {
        ts_echo_nanos: 0,
        chosen: plan.profile.caps(),
    };
    tx.handle_input(now, 64, &synack.encode());

    let send = tx.send_stream().expect("stream plan");
    let msg = vec![0x5Au8; 4096];
    let mut sent = 0;
    while sent < packets {
        while send.send(&msg).is_ok() {}
        now = tx.poll_timeout().expect("pace timer armed");
        tx.on_timeout(now);
        while let Some(t) = tx.poll_transmit() {
            if matches!(
                QtpPacket::decode(&t.header),
                Ok(QtpPacket::StreamData { .. })
            ) && sent < packets
            {
                sent += 1;
            }
        }
    }
    let feedback = QtpPacket::Feedback {
        ts_echo_nanos: now.as_nanos(),
        t_delay_micros: 0,
        x_recv: 25_000_000,
        p_ppb: Some(0),
        cum_ack: packets,
        blocks: Vec::new(),
    }
    .encode();
    now += Duration::from_millis(1);
    let (_, _, before) = counts();
    tx.handle_input(now, 64, &feedback);
    let (_, _, after) = counts();
    assert_eq!(tx.cum_ack(), 0, "a sender has no receive side");
    after - before
}

/// Acknowledging data releases it without a free per packet: what the
/// sender keeps per packet is plain offsets in reused queues, and the bytes
/// sit in 16 KiB segments, of which a store parks up to four for its own
/// reuse. Ten times the packets, the same number of frees.
#[test]
fn release_costs_no_frees_per_packet() {
    let few = frees_acknowledging(100, 50);
    let many = frees_acknowledging(1000, 50);
    assert_eq!(many, few, "frees for 1000 packets vs for 100");
    // A release larger than the spare list's room frees whole segments, one
    // per 16 KiB — still not one per packet. 1000 packets of 1000 bytes are
    // 61 segments.
    let bulk = frees_acknowledging(1000, 1000);
    assert!(bulk > few, "61 segments cannot all be parked");
    assert!(bulk <= few + 61, "{bulk} frees releasing 61 segments");
}
