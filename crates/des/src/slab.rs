//! A deterministic, `u32`-keyed slab arena for in-flight event payloads.
//!
//! The hot path of an event-driven simulation schedules thousands of
//! deferred actions (paced injections, retransmit timers). Boxing each
//! payload into the event enum allocates once per event; storing the
//! payload here once and letting events carry a 4-byte [`SlabKey`] keeps
//! the event enum small and the steady-state loop allocation-free — freed
//! slots are recycled through a free list, so capacity is only ever grown,
//! never churned.
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
    /// `None` marks a vacant slot.
    slots: Vec<Option<T>>,
    /// The vacant slots, reused last-freed first.
    free: Vec<u32>,
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
            free: Vec::new(),
        }
    }

    /// Stores `value` and returns its key. Reuses the most recently freed
    /// slot when one exists; grows the arena otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the slab would exceed `u32::MAX` slots (far beyond any
    /// realistic in-flight window).
    #[inline]
    pub fn insert(&mut self, value: T) -> SlabKey {
        if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = Some(value);
            return SlabKey(idx);
        }
        let idx = u32::try_from(self.slots.len()).expect("slab exceeded u32 key space");
        self.slots.push(Some(value));
        SlabKey(idx)
    }

    /// Removes and returns the entry under `key`, or `None` if it is dead
    /// (out of range or already removed). The slot is the next one reused.
    #[inline]
    pub fn remove(&mut self, key: SlabKey) -> Option<T> {
        let value = self.slots.get_mut(key.0 as usize)?.take()?;
        self.free.push(key.0);
        Some(value)
    }

    /// A shared reference to the entry under `key`, if live.
    #[inline]
    pub fn get(&self, key: SlabKey) -> Option<&T> {
        self.slots.get(key.0 as usize)?.as_ref()
    }

    /// A mutable reference to the entry under `key`, if live.
    #[inline]
    pub fn get_mut(&mut self, key: SlabKey) -> Option<&mut T> {
        self.slots.get_mut(key.0 as usize)?.as_mut()
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether the slab holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The live entries, in slot order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }

    /// Total slots ever allocated (live + recyclable) — the arena's
    /// high-water mark.
    pub fn capacity_used(&self) -> usize {
        self.slots.len()
    }

    /// Checks the free list against the vacant slots (an O(slots) pass,
    /// for end-of-run audits): it must name each vacant slot exactly once,
    /// so that the live count is the number of occupied slots and no insert
    /// can overwrite a live entry.
    ///
    /// # Errors
    ///
    /// The first disagreement found.
    pub fn audit(&self) -> Result<(), String> {
        let occupied = self.values().count();
        if occupied != self.len() {
            return Err(format!(
                "slab live count {} but {occupied} occupied slots",
                self.len()
            ));
        }
        let mut listed = vec![false; self.slots.len()];
        for &idx in &self.free {
            let i = idx as usize;
            if self.slots.get(i).is_none_or(Option::is_some) || listed[i] {
                return Err(format!(
                    "slab free list names slot {idx}, which is not a distinct vacant slot"
                ));
            }
            listed[i] = true;
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
        // A vacant slot missing from the free list counts as live.
        slab.free.pop();
        let err = slab.audit().unwrap_err();
        assert!(err.contains("live count 2 but 1 occupied"), "{err}");
    }

    #[test]
    fn audit_catches_a_free_list_that_disagrees_with_the_vacant_slots() {
        let mut slab = Slab::new();
        let k = slab.insert(1);
        let live = slab.insert(2);
        slab.remove(k);
        slab.audit().unwrap();
        // The live count still adds up, but the next insert would
        // overwrite a live entry.
        slab.free[0] = live.index();
        let err = slab.audit().unwrap_err();
        assert!(err.contains("names slot 1"), "{err}");
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
