//! Criterion microbenchmarks of the simulation engine itself: event-queue
//! throughput (shallow, 50K deep, and a garnet-shaped steady state),
//! analytical-network message processing, and a full ring-all-reduce
//! system simulation. These track the simulator's own
//! performance (events/second), not any paper figure.

use astra_des::{EventQueue, Time};
use astra_network::{AnalyticalNet, Backend, Message, NetworkConfig};
use astra_system::{BackendKind, CollectiveRequest, SystemConfig, SystemSim};
use astra_topology::{Dim, LogicalTopology, NodeId};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    const N: u64 = 10_000;
    g.throughput(Throughput::Elements(N));
    g.bench_function("schedule_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..N {
                q.schedule_at(Time::from_cycles((i * 7919) % 100_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
            black_box(acc)
        })
    });
    // A deep queue, as in a training run: 50K pending events, 100 on each
    // of 500 interleaved producers whose own times increase.
    const PRODUCERS: u64 = 500;
    const DEEP: u64 = 50_000;
    g.throughput(Throughput::Elements(DEEP));
    g.bench_function("deep_50k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..DEEP {
                let p = i % PRODUCERS;
                let at = Time::from_cycles((i / PRODUCERS) * 64 + (p * 7919) % 64);
                q.schedule_at(at, i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
            black_box(acc)
        })
    });
    // A garnet-shaped steady state: 300 pending events, each popped one
    // rescheduled at `now` plus one of four constant delays (a credit's
    // cycle, a flit's serialization, a router pipeline, a link latency).
    const PENDING: u64 = 300;
    const STEPS: u64 = 100_000;
    const DELAYS: [u64; 4] = [1, 4, 6, 500];
    g.throughput(Throughput::Elements(STEPS));
    g.bench_function("garnet_shaped_300", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..PENDING {
                q.schedule_at(Time::from_cycles(i % 7), i);
            }
            let mut acc = 0u64;
            for _ in 0..STEPS {
                let (t, e) = q.pop().expect("every pop is rescheduled");
                acc = acc.wrapping_add(t.cycles() ^ e);
                let delay = DELAYS[(e % 4) as usize];
                q.schedule_in(Time::from_cycles(delay), e + 1);
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_analytical_net(c: &mut Criterion) {
    let mut g = c.benchmark_group("analytical_net");
    const MSGS: u64 = 1_000;
    g.throughput(Throughput::Elements(MSGS));
    g.bench_function("ring_messages_1k", |b| {
        let topo = LogicalTopology::torus(1, 8, 1, 1, 2, 1).unwrap();
        b.iter(|| {
            let mut net = AnalyticalNet::new(&topo, &NetworkConfig::default());
            let mut q = EventQueue::new();
            for i in 0..MSGS {
                let src = NodeId((i % 8) as usize);
                let route = topo.ring_route(Dim::Horizontal, 0, src, 1).unwrap();
                let dst = route.dst();
                net.send(&mut q, Message::new(i, src, dst, 4096, 0), route)
                    .unwrap();
            }
            let mut arrivals = Vec::new();
            while let Some((_, ev)) = q.pop() {
                net.handle(&mut q, ev, &mut arrivals);
            }
            black_box(arrivals.len())
        })
    });
    g.finish();
}

fn bench_system_all_reduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("system_sim");
    g.bench_function("all_reduce_4x4x4_1MB", |b| {
        b.iter(|| {
            let topo = LogicalTopology::torus(4, 4, 4, 2, 2, 2).unwrap();
            let mut sim = SystemSim::new(
                topo,
                SystemConfig::default(),
                &NetworkConfig::default(),
                BackendKind::Analytical,
            );
            sim.issue_collective(CollectiveRequest::all_reduce(1 << 20))
                .unwrap();
            sim.run_until_idle().unwrap();
            black_box(sim.events_processed())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_analytical_net,
    bench_system_all_reduce
);
criterion_main!(benches);
