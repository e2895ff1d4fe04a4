//! Message correlation tags.

const COLL_BITS: u32 = 28;
const CHUNK_BITS: u32 = 12;
const PHASE_BITS: u32 = 5;
const STEP_BITS: u32 = 16;

/// Most chunks one collective can be split into: the tag's chunk budget.
pub(crate) const MAX_CHUNKS: u32 = 1 << CHUNK_BITS;

/// Identifies which (collective, chunk, phase, step) a network message
/// belongs to. Packed into the network layer's opaque `u64` tag; the
/// network never interprets it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tag {
    /// Collective id (28 bits).
    pub coll: u64,
    /// Chunk index within the set (12 bits).
    pub chunk: u32,
    /// Phase index within the plan (5 bits).
    pub phase: u8,
    /// Algorithm step within the phase (16 bits).
    pub step: u32,
}

impl Tag {
    /// Packs into a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if any field exceeds its bit budget (a simulation would need
    /// >268M concurrent collectives or >4096 set splits to get here).
    pub fn pack(self) -> u64 {
        assert!(self.coll < 1 << COLL_BITS, "collective id overflow");
        assert!(self.chunk < 1 << CHUNK_BITS, "chunk index overflow");
        assert!(
            (self.phase as u32) < 1 << PHASE_BITS,
            "phase index overflow"
        );
        assert!(self.step < 1 << STEP_BITS, "step overflow");
        self.coll
            | (self.chunk as u64) << COLL_BITS
            | (self.phase as u64) << (COLL_BITS + CHUNK_BITS)
            | (self.step as u64) << (COLL_BITS + CHUNK_BITS + PHASE_BITS)
    }

    /// Unpacks from a `u64`.
    pub fn unpack(raw: u64) -> Tag {
        Tag {
            coll: raw & ((1 << COLL_BITS) - 1),
            chunk: ((raw >> COLL_BITS) & ((1 << CHUNK_BITS) - 1)) as u32,
            phase: ((raw >> (COLL_BITS + CHUNK_BITS)) & ((1 << PHASE_BITS) - 1)) as u8,
            step: ((raw >> (COLL_BITS + CHUNK_BITS + PHASE_BITS)) & ((1 << STEP_BITS) - 1)) as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let t = Tag {
            coll: 123_456,
            chunk: 15,
            phase: 3,
            step: 999,
        };
        assert_eq!(Tag::unpack(t.pack()), t);
    }

    #[test]
    fn roundtrip_extremes() {
        let t = Tag {
            coll: (1 << COLL_BITS) - 1,
            chunk: (1 << CHUNK_BITS) - 1,
            phase: (1 << PHASE_BITS) - 1,
            step: (1 << STEP_BITS) - 1,
        };
        assert_eq!(Tag::unpack(t.pack()), t);
        let zero = Tag {
            coll: 0,
            chunk: 0,
            phase: 0,
            step: 0,
        };
        assert_eq!(zero.pack(), 0);
        assert_eq!(Tag::unpack(0), zero);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_rejected() {
        Tag {
            coll: 1 << COLL_BITS,
            chunk: 0,
            phase: 0,
            step: 0,
        }
        .pack();
    }
}
