//! Micro-benchmarks of the simulator substrate: event-loop throughput,
//! AQM decisions, markers and loss models.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use qtp_simnet::marker::TokenBucketMarker;
use qtp_simnet::prelude::*;

fn bench_sim_loop(c: &mut Criterion) {
    // One simulated second of a CBR flow through a dumbbell: measures raw
    // event-loop + link + queue machinery throughput.
    c.bench_function("simnet/dumbbell_cbr_1s", |b| {
        b.iter(|| {
            let (mut sim, net) = Dumbbell::build(&DumbbellConfig::default(), 1);
            let f = sim.register_flow();
            sim.attach_agent(
                net.senders[0],
                Box::new(CbrSource::new(
                    f,
                    net.receivers[0],
                    1000,
                    Rate::from_mbps(8),
                )),
            );
            sim.attach_agent(net.receivers[0], Box::new(Sink));
            sim.run_until(SimTime::from_secs(1));
            sim.stats().flow(f).pkts_arrived
        })
    });
}

/// One green and one red 1000-byte packet, live in `arena` for the whole
/// bench: a queue links through the slots of the packets it holds, and each
/// iteration enqueues one and dequeues it again.
fn green_and_red(arena: &mut PacketArena) -> [PacketId; 2] {
    Color::ALL.map(|color| {
        let mut p = Packet::new(0, 0, 0, 1, 1000, SimTime::ZERO, Vec::new());
        p.color = color;
        arena.alloc(p)
    })
}

fn bench_queues(c: &mut Criterion) {
    c.bench_function("simnet/rio_enqueue_dequeue", |b| {
        let mut q = QueueConfig::Rio(RioParams::default()).build();
        let mut rng = DetRng::new(7);
        let mut arena = PacketArena::new();
        let pkts = green_and_red(&mut arena);
        let mut uid = 0u64;
        b.iter(|| {
            uid += 1;
            let id = pkts[(uid % 2 == 1) as usize];
            let _ = q.enqueue(SimTime::from_micros(uid), id, &mut arena, &mut rng);
            q.dequeue(SimTime::from_micros(uid), &mut arena)
        })
    });
    c.bench_function("simnet/droptail_enqueue_dequeue", |b| {
        let mut q = QueueConfig::DropTailPkts(100).build();
        let mut rng = DetRng::new(7);
        let mut arena = PacketArena::new();
        let [green, _] = green_and_red(&mut arena);
        let mut uid = 0u64;
        b.iter(|| {
            uid += 1;
            let _ = q.enqueue(SimTime::from_micros(uid), green, &mut arena, &mut rng);
            q.dequeue(SimTime::from_micros(uid), &mut arena)
        })
    });
}

fn bench_marker_and_loss(c: &mut Criterion) {
    c.bench_function("simnet/token_bucket_mark", |b| {
        let mut m = TokenBucketMarker::new(Rate::from_mbps(5), 20_000);
        let mut t = 0u64;
        b.iter(|| {
            t += 800;
            let mut p = Packet::new(t, 0, 0, 1, 1000, SimTime::ZERO, Vec::new());
            m.mark(SimTime::from_micros(t), &mut p);
            p.color
        })
    });
    c.bench_function("simnet/gilbert_elliott_draw", |b| {
        let mut model = LossModel::gilbert_elliott(0.01, 0.3, 0.0, 0.5);
        let mut rng = DetRng::new(3);
        b.iter(|| model.is_lost(black_box(&mut rng)))
    });
}

criterion_group!(benches, bench_sim_loop, bench_queues, bench_marker_and_loss);
criterion_main!(benches);
