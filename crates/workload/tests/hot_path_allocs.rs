//! The per-message path (`send` → hop arrival → endpoint → next `send`)
//! makes no heap allocation: collectives sit in dense slots, routes are
//! memoized shared slices, phase machines append to a reused send buffer,
//! and both backends keep short link paths inline. Garnet's per-flit path
//! allocates nothing either: packet and message states sit in reused slots.
//!
//! A counting global allocator (this test binary only) checks that the
//! allocations made while a simulation runs stay below 1% of the messages
//! it delivers (of the flit hops, on garnet). What remains is per
//! collective (its state and plan) and first-use growth of reused buffers
//! and maps.

use astra_des::Time;
use astra_network::{
    AnalyticalNet, Arrival, Backend, FaultPlan, Message, NetEvent, NetScheduler, NetStats,
    NetworkConfig, NetworkError,
};
use astra_system::{BackendKind, CollectiveRequest, SystemConfig, SystemSim};
use astra_topology::{LogicalTopology, Route};
use astra_workload::{zoo, TrainingRunner};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

/// The system allocator plus a per-thread allocation counter (tests run
/// on their own threads, so counts do not mix).
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // The allocator must not panic: `try_with` only fails during thread
    // teardown, when the count no longer matters.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a const-initialised thread-local, which
// neither allocates nor has a destructor.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A delegating backend that reports its delivered-message count when the
/// simulator owning it is dropped (the training runner consumes its
/// simulator, so the count cannot be read afterwards).
struct CountDeliveries {
    inner: AnalyticalNet,
    delivered: Rc<Cell<u64>>,
}

impl Backend for CountDeliveries {
    fn send(
        &mut self,
        queue: &mut dyn NetScheduler,
        msg: Message,
        route: Route,
    ) -> Result<(), NetworkError> {
        self.inner.send(queue, msg, route)
    }

    fn handle(&mut self, queue: &mut dyn NetScheduler, event: NetEvent, out: &mut Vec<Arrival>) {
        self.inner.handle(queue, event, out);
    }

    fn stats(&self) -> &NetStats {
        self.inner.stats()
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn install_link_faults(&mut self, plan: &FaultPlan) {
        self.inner.install_link_faults(plan);
    }

    fn audit_quiescent(&self) -> Result<(), String> {
        self.inner.audit_quiescent()
    }
}

impl Drop for CountDeliveries {
    fn drop(&mut self) {
        self.delivered.set(self.inner.stats().delivered);
    }
}

fn torus(m: usize, n: usize, k: usize) -> LogicalTopology {
    LogicalTopology::torus(m, n, k, 2, 2, 2).unwrap()
}

/// Allocations made while training `tiny_mlp` for two passes on a 2x2x2
/// torus with sets split into `set_splits` chunks, and the messages the
/// run delivered.
fn train_tiny_mlp(set_splits: u32) -> (u64, u64) {
    let topo = torus(2, 2, 2);
    let net_cfg = NetworkConfig::default();
    let delivered = Rc::new(Cell::new(0));
    let backend = CountDeliveries {
        inner: AnalyticalNet::new(&topo, &net_cfg),
        delivered: Rc::clone(&delivered),
    };
    let cfg = SystemConfig {
        set_splits,
        ..SystemConfig::default()
    };
    let sim = SystemSim::with_backend(topo, cfg, &net_cfg, Box::new(backend));
    let runner = TrainingRunner::new(sim, zoo::tiny_mlp(), 2).unwrap();
    let before = allocations();
    let report = runner.run().unwrap();
    let allocs = allocations() - before;
    assert!(report.total_time > Time::ZERO);
    (allocs, delivered.get())
}

#[test]
fn training_allocates_per_collective_not_per_message() {
    // A whole run also allocates per collective (its state and plan) and
    // on first use (memoized routes, map growth). Doubling the chunks per
    // set doubles the messages but none of that, so the difference
    // between the two runs is what the messages themselves cost.
    let (allocs, messages) = train_tiny_mlp(16);
    let (more_allocs, more_messages) = train_tiny_mlp(32);
    assert_eq!(more_messages, 2 * messages);
    let extra = more_allocs.saturating_sub(allocs);
    assert!(messages > 1_000, "only {messages} messages");
    assert!(
        extra * 100 < messages,
        "{messages} more messages cost {extra} more allocations"
    );
}

#[test]
fn all_reduce_event_loop_does_not_allocate_per_message() {
    let mut sim = SystemSim::new(
        torus(4, 4, 4),
        SystemConfig::default(),
        &NetworkConfig::default(),
        BackendKind::Analytical,
    );
    // The first all-reduce resolves and memoizes every route it uses and
    // grows the reused buffers; the second runs on the warm simulator.
    for warm in [false, true] {
        let delivered = sim.net_stats().delivered;
        sim.issue_collective(CollectiveRequest::all_reduce(512 << 10))
            .unwrap();
        let before = allocations();
        sim.run_until_idle().unwrap();
        let allocs = allocations() - before;
        sim.audit_quiescent().unwrap();
        let messages = sim.net_stats().delivered - delivered;
        assert!(messages > 1_000, "only {messages} messages");
        if warm {
            assert!(
                allocs * 100 < messages,
                "{allocs} allocations while delivering {messages} messages"
            );
        }
    }
}

/// Flits serialized onto links so far, summed over every hop.
fn flit_hops(sim: &SystemSim) -> u64 {
    sim.net_stats().links.iter().map(|l| l.traversals).sum()
}

#[test]
fn garnet_all_reduce_does_not_allocate_per_flit() {
    let mut sim = SystemSim::new(
        torus(2, 2, 2),
        SystemConfig::default(),
        &NetworkConfig::default(),
        BackendKind::Garnet,
    );
    // The second all-reduce runs on warm slots, queues and buffers.
    for warm in [false, true] {
        let hops = flit_hops(&sim);
        sim.issue_collective(CollectiveRequest::all_reduce(512 << 10))
            .unwrap();
        let before = allocations();
        sim.run_until_idle().unwrap();
        let allocs = allocations() - before;
        sim.audit_quiescent().unwrap();
        let hops = flit_hops(&sim) - hops;
        assert!(hops > 10_000, "only {hops} flit hops");
        if warm {
            assert!(
                allocs * 100 < hops,
                "{allocs} allocations while serializing {hops} flit hops"
            );
        }
    }
}

/// Allocations made by issuing an all-reduce on a warm `m`x`n`x`k`
/// simulator: one all-reduce has already run, so routes are memoized and
/// the ready queues, slots and scratch buffers have grown.
fn issue_allocations(m: usize, n: usize, k: usize) -> u64 {
    let mut sim = SystemSim::new(
        torus(m, n, k),
        SystemConfig::default(),
        &NetworkConfig::default(),
        BackendKind::Analytical,
    );
    let req = CollectiveRequest::all_reduce(512 << 10);
    sim.complete_collective(req.clone()).unwrap();
    let before = allocations();
    sim.issue_collective(req).unwrap();
    let allocs = allocations() - before;
    sim.drain_and_audit().unwrap();
    allocs
}

#[test]
fn issuing_a_collective_allocates_the_same_on_8_and_64_npus() {
    // The chunk table is one flat vector per collective, not one vector
    // per NPU, so issuing costs the same number of allocations at any size.
    assert_eq!(issue_allocations(2, 2, 2), issue_allocations(4, 4, 4));
}
