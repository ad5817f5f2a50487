//! Connection lifecycle under a few targeted drops, on the virtual-clock
//! [`Pipe`]: does every negotiable reliability mode still close?
//!
//! This is a characterization, not a contract. Partial reliability (`Ttl`,
//! `Budget`) never closes once a message's original and its retransmission
//! are both lost: the receiver skips the hole (`cum_ack` reaches 16) but
//! answers the sender's `FORWARD` with no feedback, so the sender never
//! sees everything acknowledged and never sends its FIN. ROADMAP item 2a
//! makes the receiver answer; its PR flips those cells to `Ok`.

use std::time::Duration;

use qtp_core::pipe::{Dir, Fate, Pipe, Reason};
use qtp_core::session::{ConnectionPlan, Profile, Reliability};
use qtp_core::stream::StreamConfig;
use qtp_core::wire::PacketRef;
use qtp_core::{CcKind, FeedbackMode};
use qtp_simnet::time::{Rate, SimTime};

const MESSAGES: u64 = 16;

/// Run 16 × 1200 B stream messages and a close over a 10 ms pipe that drops
/// the first `times` copies of data sequence `seq` (no drop when `times` is 0).
fn run(reliability: Reliability, feedback: FeedbackMode, seq: u64, times: u32) -> Outcome {
    let profile = Profile::new()
        .reliability(reliability)
        .feedback(feedback)
        .cc(CcKind::Gtfrc {
            target: Rate::from_mbps(2),
        })
        .build()
        .expect("valid profile");
    let plan = ConnectionPlan::new(profile)
        .payload(1200)
        .stream(StreamConfig::with_send_buf(64 * 1024));
    let mut pipe = Pipe::new(&plan, Duration::from_millis(10));
    let mut copies = 0;
    pipe.set_fate(move |dir, _, d| match PacketRef::parse(&d.header) {
        Ok(PacketRef::StreamData { header, .. }) if dir == Dir::Forward && header.seq == seq => {
            copies += 1;
            if copies <= times {
                Fate::Drop
            } else {
                Fate::Deliver
            }
        }
        _ => Fate::Deliver,
    });
    let send = pipe.tx.send_stream().expect("stream plan");
    let recv = pipe.rx.recv_stream().expect("stream plan");
    for _ in 0..MESSAGES {
        send.send(&[0x5A; 1200]).expect("room for every message");
    }
    send.finish();
    let mut msg = Vec::new();
    let result = pipe.run_until(SimTime::from_secs(120), |p| {
        while recv.recv_into(&mut msg).is_some() {}
        p.tx.is_closed() && recv.is_finished()
    });
    match result {
        Ok(()) => Outcome::Closed,
        Err(stall) => {
            assert_eq!(stall.reason, Reason::Horizon, "{stall}");
            Outcome::Stalled {
                rx_cum_ack: stall.rx.cum_ack,
                tx_all_acked: stall.tx.all_acked,
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// `run_until` returned `Ok`: sender closed, `RecvStream` finished.
    Closed,
    /// `run_until` returned a horizon `Stall`.
    Stalled { rx_cum_ack: u64, tx_all_acked: bool },
}

/// The characterization ROADMAP item 2a flips: once its fix lands, `stuck`
/// goes and every cell is `Closed`.
#[test]
fn partial_reliability_stalls_after_a_twice_lost_message() {
    let ttl = Reliability::Ttl(Duration::from_millis(100));
    let stuck = Outcome::Stalled {
        rx_cum_ack: MESSAGES,
        tx_all_acked: false,
    };
    let mut wrong = Vec::new();
    for reliability in [
        Reliability::Full,
        Reliability::None,
        ttl,
        Reliability::Budget(1),
    ] {
        let partial = matches!(reliability, Reliability::Ttl(_) | Reliability::Budget(_));
        for feedback in [FeedbackMode::ReceiverLoss, FeedbackMode::SenderLoss] {
            for (seq, times) in [(0, 0), (5, 1), (5, 2), (15, 2)] {
                let expected = if partial && times == 2 {
                    stuck
                } else {
                    Outcome::Closed
                };
                let got = run(reliability, feedback, seq, times);
                if got != expected {
                    wrong.push(format!(
                        "{reliability:?} {feedback:?} seq {seq} x{times}: {got:?}"
                    ));
                }
            }
        }
    }
    assert!(wrong.is_empty(), "cells that moved: {wrong:#?}");
}
