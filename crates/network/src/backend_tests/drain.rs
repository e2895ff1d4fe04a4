//! The drain loop the backend tests share: the crate's unit tests and
//! `tests/proptests.rs` both include this file.

use super::{Arrival, Backend, EventQueue, NetEvent};

/// Feeds every queued event to `net` until the queue is empty and returns
/// the deliveries in order.
///
/// # Panics
///
/// Panics after 50 million events: a backend that never drains.
pub fn drain(net: &mut dyn Backend, q: &mut EventQueue<NetEvent>) -> Vec<Arrival> {
    let mut out = Vec::new();
    let mut guard = 0u64;
    while let Some((_, ev)) = q.pop() {
        net.handle(q, ev, &mut out);
        guard += 1;
        assert!(guard < 50_000_000, "network drain diverged");
    }
    out
}
