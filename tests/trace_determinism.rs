//! The strongest reproducibility check: two runs with the same seed emit
//! **identical endpoint event streams** (not just identical aggregate
//! counters), including under stochastic loss and AQM. This is what makes
//! every number in `EXPERIMENTS.md` exactly regenerable.
//!
//! The stream is the `qtp-metrics` qlog: a QTPlight connection's tracers,
//! registered with a [`TraceRegistry`] whose sink is a [`QlogWriter`],
//! over a RIO dumbbell with Gilbert–Elliott loss on the bottleneck. A
//! token-bucket marker puts the connection's excess and an unmarked CBR
//! background flow out of profile, so RIO's early-drop draws, the loss
//! model's draws and the endpoints all shape the trace.

use qtp::metrics::trace::{QlogWriter, TraceRegistry};
use qtp::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

fn traced_run(seed: u64) -> String {
    let cfg = DumbbellConfig {
        pairs: 2,
        bottleneck_rate: Rate::from_mbps(3),
        bottleneck_delay: Duration::from_millis(8),
        bottleneck_queue: QueueConfig::Rio(RioParams::default()),
        ..DumbbellConfig::default()
    };
    let (mut sim, net) = Dumbbell::build(&cfg, seed);
    sim.set_link_loss(
        net.bottleneck,
        LossModel::gilbert_elliott(0.01, 0.3, 0.0, 0.5),
    );

    let qlog = Rc::new(RefCell::new(QlogWriter::new()));
    let registry = TraceRegistry::new();
    registry.set_sink(qlog.clone());
    let h = attach_pair(
        &mut sim,
        net.senders[0],
        net.receivers[0],
        &ConnectionPlan::new(Profile::qtp_light()),
    );
    registry.register("qtp:tx", &h.tx_tracer);
    registry.register("qtp:rx", &h.rx_tracer);
    sim.set_marker(
        net.sender_access[0],
        h.data_flow,
        TokenBucketMarker::new(Rate::from_mbps(1), 20_000),
    );

    let bg = sim.register_flow();
    sim.attach_agent(
        net.senders[1],
        Box::new(CbrSource::new(
            bg,
            net.receivers[1],
            800,
            Rate::from_mbps(1),
        )),
    );
    sim.attach_agent(net.receivers[1], Box::new(Sink));
    sim.set_marker(
        net.sender_access[1],
        bg,
        TokenBucketMarker::new(Rate::ZERO, 0),
    );
    sim.run_until(SimTime::from_secs(5));

    let out = qlog.borrow().output().to_string();
    out
}

#[test]
fn same_seed_identical_event_trace() {
    let a = traced_run(2024);
    let b = traced_run(2024);
    assert!(
        a.lines().count() > 1000,
        "trace must capture a dense event stream"
    );
    for (i, (x, y)) in a.lines().zip(b.lines()).enumerate() {
        assert_eq!(x, y, "first divergence at event {i}");
    }
    assert_eq!(a, b, "event counts differ");
}

#[test]
fn different_seed_different_trace() {
    // Gilbert–Elliott and RIO draws differ, so the traces must diverge.
    assert_ne!(traced_run(1), traced_run(2));
}

#[test]
fn trace_events_are_time_ordered() {
    let trace = traced_run(7);
    let times: Vec<u64> = trace
        .lines()
        .map(|l| {
            let t = l
                .strip_prefix("{\"time\":\"")
                .and_then(|r| r.split('"').next())
                .expect("every qlog line starts with its time");
            let (s, ns) = t.split_once('.').expect("fixed-point seconds");
            s.parse::<u64>().unwrap() * 1_000_000_000 + ns.parse::<u64>().unwrap()
        })
        .collect();
    assert!(!times.is_empty());
    for w in times.windows(2) {
        assert!(w[0] <= w[1], "trace went backwards in time");
    }
}
