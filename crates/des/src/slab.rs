//! A deterministic, `u32`-keyed slab arena for in-flight event payloads.
//!
//! The hot path of an event-driven simulation schedules thousands of
//! deferred actions (paced injections, retransmit timers). Boxing each
//! payload into the event enum allocates once per event; storing the
//! payload here once and letting events carry a 4-byte [`SlabKey`] keeps
//! the event enum small and the steady-state loop allocation-free — freed
//! slots are recycled through an intrusive free list, so capacity is only
//! ever grown, never churned.
//!
//! Keys are handed out deterministically (most-recently-freed slot first),
//! which keeps simulations that embed keys in event ordering reproducible.

/// A key into a [`Slab`]. Plain `u32` newtype: 4 bytes, `Copy`, and small
/// enough to embed in any event enum without boxing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlabKey(u32);

impl SlabKey {
    /// The raw index value (stable for the lifetime of the entry).
    pub fn index(self) -> u32 {
        self.0
    }
}

#[derive(Debug)]
enum Slot<T> {
    /// Live entry.
    Occupied(T),
    /// Free slot; payload is the next free slot's index (or `u32::MAX` for
    /// the end of the free list).
    Vacant(u32),
}

const FREE_END: u32 = u32::MAX;

/// A grow-only arena of `T` with recycled `u32` keys.
///
/// Insertion and removal are O(1); removal returns the payload by value.
/// The slab never shrinks — in a simulation the live set is bounded by the
/// in-flight window, so after warm-up the hot loop stops allocating.
///
/// ```
/// use astra_des::{Slab, SlabKey};
///
/// let mut slab: Slab<&'static str> = Slab::new();
/// let a = slab.insert("paced-injection");
/// let b = slab.insert("retransmit-timer");
/// assert_eq!(slab.get(a), Some(&"paced-injection"));
/// assert_eq!(slab.remove(a), Some("paced-injection"));
/// // The freed slot is recycled for the next insert (deterministically).
/// let c = slab.insert("next");
/// assert_eq!(c.index(), a.index());
/// assert_eq!(slab.len(), 2);
/// assert_eq!(slab.remove(b), Some("retransmit-timer"));
/// let _ = c;
/// ```
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    /// Head of the free list (`FREE_END` when empty).
    free_head: u32,
    /// Number of occupied slots.
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free_head: FREE_END,
            len: 0,
        }
    }

    /// An empty slab with room for `cap` entries before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(cap),
            free_head: FREE_END,
            len: 0,
        }
    }

    /// Stores `value` and returns its key. Reuses the most recently freed
    /// slot when one exists; grows the arena otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the slab would exceed `u32::MAX - 1` slots (far beyond any
    /// realistic in-flight window).
    pub fn insert(&mut self, value: T) -> SlabKey {
        self.len += 1;
        if self.free_head != FREE_END {
            let idx = self.free_head;
            match self.slots[idx as usize] {
                Slot::Vacant(next) => {
                    self.free_head = next;
                    self.slots[idx as usize] = Slot::Occupied(value);
                    SlabKey(idx)
                }
                // infallible: the free list only ever links vacant slots.
                Slot::Occupied(_) => unreachable!("free list points at occupied slot"),
            }
        } else {
            let idx = u32::try_from(self.slots.len())
                .ok()
                .filter(|&i| i < FREE_END)
                .expect("slab exceeded u32 key space");
            self.slots.push(Slot::Occupied(value));
            SlabKey(idx)
        }
    }

    /// Removes and returns the entry under `key`, or `None` if it is dead
    /// (out of range or already removed). The slot goes to the head of the
    /// free list.
    pub fn remove(&mut self, key: SlabKey) -> Option<T> {
        let slot = self.slots.get_mut(key.0 as usize)?;
        if let Slot::Vacant(_) = slot {
            return None;
        }
        let Slot::Occupied(value) = std::mem::replace(slot, Slot::Vacant(self.free_head)) else {
            unreachable!("checked occupied above")
        };
        self.free_head = key.0;
        self.len -= 1;
        Some(value)
    }

    /// A shared reference to the entry under `key`, if live.
    pub fn get(&self, key: SlabKey) -> Option<&T> {
        match self.slots.get(key.0 as usize) {
            Some(Slot::Occupied(value)) => Some(value),
            _ => None,
        }
    }

    /// A mutable reference to the entry under `key`, if live.
    pub fn get_mut(&mut self, key: SlabKey) -> Option<&mut T> {
        match self.slots.get_mut(key.0 as usize) {
            Some(Slot::Occupied(value)) => Some(value),
            _ => None,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slab holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The live entries, in slot order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(|s| match s {
            Slot::Occupied(value) => Some(value),
            Slot::Vacant(_) => None,
        })
    }

    /// Total slots ever allocated (live + recyclable) — the arena's
    /// high-water mark.
    pub fn capacity_used(&self) -> usize {
        self.slots.len()
    }

    /// Checks the live count against the occupied slots (an O(slots)
    /// pass, for end-of-run audits).
    ///
    /// # Errors
    ///
    /// Both counts, when they differ.
    pub fn audit(&self) -> Result<(), String> {
        let occupied = self
            .slots
            .iter()
            .filter(|s| matches!(s, Slot::Occupied(_)))
            .count();
        if occupied != self.len {
            return Err(format!(
                "slab live count {} but {occupied} occupied slots",
                self.len
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut slab = Slab::new();
        let k = slab.insert(42u64);
        assert_eq!(slab.get(k), Some(&42));
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.remove(k), Some(42));
        assert_eq!(slab.get(k), None);
        assert!(slab.is_empty());
    }

    #[test]
    fn double_remove_is_none() {
        let mut slab = Slab::new();
        let k = slab.insert("x");
        assert_eq!(slab.remove(k), Some("x"));
        assert_eq!(slab.remove(k), None);
    }

    #[test]
    fn free_slots_recycle_lifo_and_capacity_stops_growing() {
        let mut slab = Slab::new();
        let keys: Vec<_> = (0..8).map(|i| slab.insert(i)).collect();
        assert_eq!(slab.capacity_used(), 8);
        // Free three, in order: their slots come back most-recent-first.
        slab.remove(keys[1]);
        slab.remove(keys[4]);
        slab.remove(keys[6]);
        let live: Vec<i32> = slab.values().copied().collect();
        assert_eq!(live, [0, 2, 3, 5, 7], "values skip vacant slots");
        assert_eq!(slab.insert(100).index(), 6);
        assert_eq!(slab.insert(101).index(), 4);
        assert_eq!(slab.insert(102).index(), 1);
        // Steady-state churn reuses slots; the arena never grows.
        for i in 0..1000 {
            let k = slab.insert(i);
            slab.remove(k);
        }
        assert_eq!(slab.capacity_used(), 9);
        assert_eq!(slab.len(), 8);
    }

    #[test]
    fn audit_catches_a_wrong_live_count() {
        let mut slab = Slab::new();
        let k = slab.insert(1);
        slab.insert(2);
        slab.remove(k);
        slab.audit().unwrap();
        slab.len += 1;
        let err = slab.audit().unwrap_err();
        assert!(err.contains("live count 2 but 1 occupied"), "{err}");
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut slab = Slab::new();
        let k = slab.insert(vec![1, 2]);
        slab.get_mut(k).unwrap().push(3);
        assert_eq!(slab.get(k), Some(&vec![1, 2, 3]));
    }

    #[test]
    fn keys_are_deterministic_across_identical_runs() {
        let run = || {
            let mut slab = Slab::new();
            let mut trace = Vec::new();
            let mut live = Vec::new();
            for i in 0..64u32 {
                let k = slab.insert(i);
                trace.push(k.index());
                live.push(k);
                if i % 3 == 0 {
                    let victim = live.remove((i as usize / 3) % live.len());
                    slab.remove(victim);
                    trace.push(u32::MAX - victim.index());
                }
            }
            trace
        };
        assert_eq!(run(), run());
    }
}
