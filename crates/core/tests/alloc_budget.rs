//! Allocation and release budget of the stream data plane, held in tier-1.
//!
//! The workload runs on `Pipe`, which gives every transmitted header back
//! with `Session::reuse`, and reads with `RecvStream::recv_into` into one
//! reused buffer, so every buffer the data plane lends comes back: headers
//! to the outbox, segments to the send store, message and stash buffers to
//! the receive side. What the public surface forces per datagram in steady
//! state is nothing. The steady-state table holds that as a property —
//! doubling a transfer adds no allocation — and the ceilings hold the
//! averages over a run's second three quarters, which the last of the
//! growth to working size still falls in.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use std::time::Duration;

use counting_alloc::{sample, top_sites, Counts};

use qtp_core::pipe::{Dir, Fate, Pipe};
use qtp_core::session::{ConnectionPlan, Profile, Reliability, Session};
use qtp_core::stream::StreamConfig;
use qtp_core::{CcKind, QtpPacket};
use qtp_simnet::time::{Rate, SimTime};

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

/// One transfer over `pipe`: `total` bytes written in `write_len` writes
/// and read back with `recv_into` into one buffer. Returns what was counted
/// after the first `warm_up` bytes were delivered, and the datagrams that
/// crossed meanwhile. With `diagnose`, every allocation of that window is
/// sampled for [`top_sites`].
fn transfer(
    mut pipe: Pipe,
    write_len: usize,
    warm_up: usize,
    total: usize,
    diagnose: bool,
) -> (Counts, u64) {
    let send = pipe.tx.send_stream().expect("stream plan");
    let recv = pipe.rx.recv_stream().expect("stream plan");
    let msg = vec![0xA5u8; write_len];
    let mut buf = Vec::new();
    let (mut written, mut read) = (0usize, 0usize);
    let mut mark: Option<(Counts, u64)> = None;
    run(&mut pipe, |p| {
        while written < total && send.send(&msg).is_ok() {
            written += write_len;
        }
        while let Some(n) = recv.recv_into(&mut buf) {
            read += n;
        }
        if mark.is_none() && read >= warm_up {
            if diagnose {
                sample(1);
            }
            mark = Some((Counts::now(), dgrams(p)));
        }
        read >= total
    });
    let (start, dgrams0) = mark.expect("warm-up ends before the transfer");
    (Counts::now().since(start), dgrams(&pipe) - dgrams0)
}

/// Allocations and allocated bytes per datagram over a transfer's last
/// three quarters; fails naming the sites when either exceeds its ceiling.
fn within_ceiling(pipe: impl Fn() -> Pipe, write_len: usize, total: usize, ceiling: (f64, f64)) {
    let (counts, dgrams) = transfer(pipe(), write_len, total / 4, total, false);
    assert!(dgrams > 1000, "too short to measure: {dgrams} datagrams");
    let allocs = counts.allocs as f64 / dgrams as f64;
    let bytes = counts.bytes as f64 / dgrams as f64;
    if allocs > ceiling.0 || bytes > ceiling.1 {
        transfer(pipe(), write_len, total / 4, total, true);
        panic!(
            "{allocs:.3} allocations and {bytes:.0} B per datagram (ceilings {} and {} B): \
             {counts} over {dgrams} datagrams\n{}",
            ceiling.0,
            ceiling.1,
            top_sites()
        );
    }
}

fn bulk_plan() -> ConnectionPlan {
    ConnectionPlan::new(Profile::qtp_af(Rate::from_mbps(200)))
        .stream(StreamConfig::with_send_buf(256 * 1024))
}

/// `pipe_bulk`'s shape: a fully reliable stream, 8 KiB writes, its rate
/// still climbing. What is left is header buffers and send-store segments
/// growing with the data in flight: 0.147 allocations and 503 B per
/// datagram. Send-store segments freed each round read 0.175 and 973 B,
/// one allocation per packet anywhere ~1.3.
#[test]
fn reliable_bulk_stays_within_its_allocation_budget() {
    let pipe = || Pipe::new(&bulk_plan(), Duration::from_millis(5));
    within_ceiling(pipe, 8 * 1024, 4 << 20, (0.2, 700.0));
}

/// A stream of 1200-byte packets under `reliability` and `cc`.
fn stream_pipe(reliability: Reliability, cc: CcKind, one_way_ms: u64) -> Pipe {
    let profile = Profile::new().reliability(reliability).cc(cc).build();
    let plan = ConnectionPlan::new(profile.expect("valid profile"))
        .payload(1200)
        .stream(StreamConfig::with_send_buf(256 * 1024));
    Pipe::new(&plan, Duration::from_millis(one_way_ms))
}

/// `pipe_lossy_vlbi`'s shape without the loss, under `reliability`: gTFRC,
/// one 1200-byte message per packet.
fn message_pipe(reliability: Reliability) -> Pipe {
    let target = Rate::from_mbps(20);
    stream_pipe(reliability, CcKind::Gtfrc { target }, 50)
}

/// TTL-partial reliability in message mode: each message is assembled in a
/// buffer `recv_into` gave back, 0.076 allocations and 280 B per datagram
/// (one per message would read ~1.0).
#[test]
fn message_mode_stays_within_its_allocation_budget() {
    let pipe = || message_pipe(Reliability::Ttl(Duration::from_millis(300)));
    within_ceiling(pipe, 1200, 2400 * 1200, (0.1, 400.0));
}

/// The reliability mode is judged at loss time from the scoreboard's
/// per-sequence record, so choosing TTL over a retransmission budget costs
/// no allocation per datagram (a per-ADU map would add ~0.16).
#[test]
fn the_reliability_mode_does_not_change_allocation_cost() {
    let per_dgram = |reliability| {
        let (counts, dgrams) = transfer(
            message_pipe(reliability),
            1200,
            600 * 1200,
            2400 * 1200,
            false,
        );
        counts.allocs as f64 / dgrams as f64
    };
    let ttl = per_dgram(Reliability::Ttl(Duration::from_millis(300)));
    let budget = per_dgram(Reliability::Budget(1));
    assert!(
        ttl <= budget + 0.02,
        "TTL {ttl:.3} vs Budget(1) {budget:.3} allocations per datagram"
    );
}

/// Once warm, a datagram allocates nothing: a transfer of 2T after the
/// same warm-up allocates what one of T does — exactly, or within a bound
/// per extra datagram where loss keeps reshaping the stash. The rate is
/// fixed, so the working set stops growing.
#[test]
fn steady_state_allocates_nothing_per_datagram() {
    const WARM_UP: usize = 8 << 20;
    const T: usize = 3 << 20;
    let full = Reliability::Full;
    let ttl = Reliability::Ttl(Duration::from_millis(300));
    let rows = [
        ("reliable bulk, 8 KiB writes", full, 8 * 1024, 0, 0.0),
        ("TTL messages of 1200 B", ttl, 1200, 0, 0.0),
        (
            "reliable bulk, every 100th forward datagram lost",
            full,
            8 * 1024,
            100,
            0.01,
        ),
    ];
    for (name, reliability, write_len, drop_every, bound) in rows {
        let run = |total, diagnose| {
            let rate = Rate::from_mbps(100);
            let mut pipe = stream_pipe(reliability, CcKind::Fixed { rate }, 5);
            pipe.set_fate(move |dir, n, _| match dir {
                Dir::Forward if drop_every > 0 && n % drop_every == drop_every - 1 => Fate::Drop,
                _ => Fate::Deliver,
            });
            transfer(pipe, write_len, WARM_UP, WARM_UP + total, diagnose)
        };
        let (once, dgrams1) = run(T, false);
        let (twice, dgrams2) = run(2 * T, false);
        let extra = twice.allocs as i64 - once.allocs as i64;
        if extra as f64 / (dgrams2 - dgrams1) as f64 > bound {
            run(2 * T, true);
            panic!(
                "{name}: {extra} extra allocations over {} extra datagrams (T: {once}; 2T: \
                 {twice})\n{}",
                dgrams2 - dgrams1,
                top_sites()
            );
        }
    }
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
    let (mut written, mut buf, mut at_500) = (0u64, Vec::new(), None);
    run(&mut pipe, |_| {
        while written < total && send.send(&msg).is_ok() {
            written += 1;
        }
        while recv.recv_into(&mut buf).is_some() {}
        if at_500.is_none() && recv.messages_received() >= 500 {
            at_500 = Some(Counts::now());
        }
        recv.messages_received() >= total - 1
    });
    assert!(pipe.sent(Dir::Forward) > lost, "one datagram was dropped");
    let grown = Counts::now()
        .since(at_500.expect("500 of 3000 arrive"))
        .live as i64;
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
    let before = Counts::now();
    tx.handle_input(now, 64, &feedback);
    let released = Counts::now().since(before);
    assert_eq!(tx.cum_ack(), 0, "a sender has no receive side");
    released.frees
}

/// Acknowledging data releases it without a free per packet: what the
/// sender keeps per packet is plain offsets in reused queues, and the bytes
/// sit in 16 KiB segments, every one of which the store parks for its own
/// next growth. Ten times the packets, the same number of frees — and the
/// same again for 1000 packets of 1000 bytes, which release 61 segments.
#[test]
fn release_costs_no_frees_per_packet() {
    let few = frees_acknowledging(100, 50);
    let many = frees_acknowledging(1000, 50);
    assert_eq!(many, few, "frees for 1000 packets vs for 100");
    let bulk = frees_acknowledging(1000, 1000);
    assert_eq!(bulk, few, "frees releasing 61 segments vs none");
}
