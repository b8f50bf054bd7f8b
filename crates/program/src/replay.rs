//! Memory-access trace replay: a cache simulator that checks the
//! analytical DRAM-traffic model against the functional implementation.
//!
//! The functional crates record (`fhe_math::telemetry::trace_start`)
//! every limb-buffer touch as a [`TraceRecord`] tagged with an
//! [`OperandClass`] (ciphertext limb, switching-key digit, plaintext
//! constant, scratch) and a stable operand id. [`replay`] reads those
//! records as they were written, runs them through an on-chip cache
//! model and reports the DRAM bytes that actually cross the chip
//! boundary, split by operand class the same way [`simfhe::Cost`] splits
//! its categories. A trace holds bytes only — touches and retags, no
//! spans or timestamps. The [`ledger`](crate::ledger) records one trace
//! per row, replays it here, and gates the bytes beside that row's op
//! counts ([`crate::report`]).
//!
//! # Cache model
//!
//! The simulated cache is fully associative and write-back, addressed at a
//! configurable block size over the space `(operand id, block index)`. A
//! write miss allocates without fetching (recorded touches cover whole
//! limb ranges, so a missed write never needs the old block contents).
//! Replacement is LRU that evicts switching-key blocks only when nothing
//! else is resident — the MAD strategy of keeping key digits on-chip
//! across an operation (paper §3.1).
//!
//! When a replay ends, dirty blocks still resident are flushed: live data
//! (ciphertext, key, plaintext classes) must eventually reach DRAM, while
//! dead scratch intermediates are dropped on-chip and never written back —
//! matching the model's assumption that the intermediates of a fused pass
//! do not round-trip.
//!
//! Operand classes resolve *last-wins* over the whole trace: kernels
//! allocate outputs as scratch and the `ckks` wrappers re-tag them (a
//! fresh ciphertext's limbs become `ct`, a switching-key digit's `key`),
//! so the final class of an operand attributes all of its traffic.

use fhe_math::telemetry::{OperandClass, TraceRecord};
use std::collections::{BTreeMap, HashMap};

/// Configuration of one replay.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// On-chip capacity in bytes (at least one block is simulated).
    pub capacity_bytes: u64,
    /// Cache block (line) size in bytes.
    pub block_bytes: u64,
}

impl CacheConfig {
    /// A key-pinning cache of `capacity_bytes`, in `block_bytes` blocks.
    pub fn pin_keys(capacity_bytes: u64, block_bytes: u64) -> Self {
        Self {
            capacity_bytes,
            block_bytes,
        }
    }
}

/// DRAM traffic attributed to one operand class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassTraffic {
    /// Bytes fetched from DRAM (read misses).
    pub read_bytes: u64,
    /// Bytes written to DRAM (dirty evictions and the final flush).
    pub write_bytes: u64,
}

/// Result of replaying one trace through the cache simulator.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayStats {
    /// Indexed by `OperandClass as usize`.
    per_class: [ClassTraffic; 4],
}

impl ReplayStats {
    /// Traffic of one class.
    pub fn class(&self, c: OperandClass) -> ClassTraffic {
        self.per_class[c as usize]
    }

    /// Measured counterpart of the model's `ct_read`: ciphertext *and*
    /// scratch fetches, since [`Cost::ct_read`](simfhe::Cost::ct_read)
    /// covers all ciphertext-sized ring data including intermediates.
    pub fn ct_read_bytes(&self) -> u64 {
        self.class(OperandClass::Ciphertext).read_bytes
            + self.class(OperandClass::Scratch).read_bytes
    }

    /// Measured counterpart of the model's `ct_write` (ciphertext plus
    /// scratch write-backs).
    pub fn ct_write_bytes(&self) -> u64 {
        self.class(OperandClass::Ciphertext).write_bytes
            + self.class(OperandClass::Scratch).write_bytes
    }

    /// Measured counterpart of the model's `key_read`.
    pub fn key_read_bytes(&self) -> u64 {
        self.class(OperandClass::Key).read_bytes
    }

    /// Measured counterpart of the model's `pt_read`.
    pub fn pt_read_bytes(&self) -> u64 {
        self.class(OperandClass::Plaintext).read_bytes
    }

    /// Total DRAM bytes fetched.
    pub fn dram_read(&self) -> u64 {
        self.per_class.iter().map(|c| c.read_bytes).sum()
    }

    /// Total DRAM bytes written back.
    pub fn dram_write(&self) -> u64 {
        self.per_class.iter().map(|c| c.write_bytes).sum()
    }

    /// Total DRAM bytes moved.
    pub fn dram_total(&self) -> u64 {
        self.dram_read() + self.dram_write()
    }
}

/// Block address: (operand id, block index within the operand).
type Addr = (u64, u64);

struct Resident {
    stamp: u64,
    dirty: bool,
    class: OperandClass,
}

/// The fully-associative simulator. Separate recency queues for pinned
/// (key) and unpinned blocks make an eviction O(log n): pop the unpinned
/// queue first, fall back to the pinned one.
struct CacheSim {
    block_bytes: u64,
    capacity_blocks: u64,
    blocks: HashMap<Addr, Resident>,
    lru_unpinned: BTreeMap<u64, Addr>,
    lru_pinned: BTreeMap<u64, Addr>,
    clock: u64,
    stats: ReplayStats,
}

impl CacheSim {
    fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.block_bytes > 0, "block size must be positive");
        Self {
            block_bytes: cfg.block_bytes,
            capacity_blocks: (cfg.capacity_bytes / cfg.block_bytes).max(1),
            blocks: HashMap::new(),
            lru_unpinned: BTreeMap::new(),
            lru_pinned: BTreeMap::new(),
            clock: 0,
            stats: ReplayStats::default(),
        }
    }

    fn queue(&mut self, class: OperandClass) -> &mut BTreeMap<u64, Addr> {
        if class == OperandClass::Key {
            &mut self.lru_pinned
        } else {
            &mut self.lru_unpinned
        }
    }

    fn access(&mut self, addr: Addr, class: OperandClass, write: bool) {
        self.clock += 1;
        let stamp = self.clock;
        if let Some(entry) = self.blocks.get_mut(&addr) {
            entry.dirty |= write;
            let old = std::mem::replace(&mut entry.stamp, stamp);
            self.queue(class).remove(&old);
            self.queue(class).insert(stamp, addr);
            return;
        }
        if !write {
            // Read miss: fetch the block. Write misses allocate without
            // fetching — the recorded touches cover whole limb ranges.
            self.stats.per_class[class as usize].read_bytes += self.block_bytes;
        }
        self.blocks.insert(
            addr,
            Resident {
                stamp,
                dirty: write,
                class,
            },
        );
        self.queue(class).insert(stamp, addr);
        while self.blocks.len() as u64 > self.capacity_blocks {
            self.evict();
        }
    }

    fn evict(&mut self) {
        let victim = self
            .lru_unpinned
            .pop_first()
            .or_else(|| self.lru_pinned.pop_first())
            .map(|(_, addr)| addr)
            .expect("eviction from a non-empty cache");
        let entry = self.blocks.remove(&victim).expect("victim is resident");
        if entry.dirty {
            self.stats.per_class[entry.class as usize].write_bytes += self.block_bytes;
        }
    }

    fn finish(mut self) -> ReplayStats {
        // Flush: live classes must reach DRAM; dead scratch never does.
        for entry in self.blocks.values() {
            if entry.dirty && entry.class != OperandClass::Scratch {
                self.stats.per_class[entry.class as usize].write_bytes += self.block_bytes;
            }
        }
        self.stats
    }
}

/// Resolves each operand's final class, last-wins over touch tags and
/// explicit retags in trace order.
fn final_classes(records: &[TraceRecord]) -> HashMap<u64, OperandClass> {
    let mut map = HashMap::new();
    for r in records {
        let (id, class) = match *r {
            TraceRecord::Touch { tag, .. } => (tag.id, tag.class),
            TraceRecord::Retag { id, class } => (id, class),
        };
        map.insert(id, class);
    }
    map
}

/// Replays a trace through the cache simulator and returns the measured
/// DRAM traffic split by operand class.
pub fn replay(records: &[TraceRecord], cfg: &CacheConfig) -> ReplayStats {
    let classes = final_classes(records);
    let mut sim = CacheSim::new(*cfg);
    for r in records {
        if let TraceRecord::Touch {
            tag,
            write,
            offset,
            bytes,
        } = *r
        {
            if bytes == 0 {
                continue;
            }
            let class = classes[&tag.id];
            let first = offset / cfg.block_bytes;
            let last = (offset + bytes - 1) / cfg.block_bytes;
            for b in first..=last {
                sim.access((tag.id, b), class, write);
            }
        }
    }
    sim.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhe_math::telemetry::OperandTag;
    use proptest::prelude::*;
    use std::collections::HashSet;

    const B: u64 = 64;

    /// A cache no test trace fills: nothing is ever evicted, so every
    /// miss is a first touch.
    fn roomy() -> CacheConfig {
        CacheConfig::pin_keys(1 << 40, B)
    }

    fn touch(id: u64, class: OperandClass, write: bool, offset: u64, bytes: u64) -> TraceRecord {
        TraceRecord::Touch {
            tag: OperandTag { class, id },
            write,
            offset,
            bytes,
        }
    }

    /// `passes` sequential read scans over `blocks` blocks of operand 0.
    fn scan_trace(passes: usize, blocks: u64, class: OperandClass) -> Vec<TraceRecord> {
        let mut t = Vec::new();
        for _ in 0..passes {
            for b in 0..blocks {
                t.push(touch(0, class, false, b * B, B));
            }
        }
        t
    }

    /// The distinct `(operand, block)` pairs a trace touches, counted
    /// without the simulator.
    fn distinct_blocks(records: &[TraceRecord]) -> u64 {
        let mut distinct = HashSet::new();
        for r in records {
            if let TraceRecord::Touch {
                tag, offset, bytes, ..
            } = *r
            {
                for b in (offset / B)..=((offset + bytes - 1) / B) {
                    distinct.insert((tag.id, b));
                }
            }
        }
        distinct.len() as u64
    }

    /// The distinct `(operand, block)` pairs whose first touch is a write
    /// (which allocates without a fetch), counted without the simulator.
    fn written_first(records: &[TraceRecord]) -> u64 {
        let mut first = HashMap::new();
        for r in records {
            if let TraceRecord::Touch {
                tag,
                offset,
                bytes,
                write,
            } = *r
            {
                for b in (offset / B)..=((offset + bytes - 1) / B) {
                    first.entry((tag.id, b)).or_insert(write);
                }
            }
        }
        first.values().filter(|&&w| w).count() as u64
    }

    #[test]
    fn sequential_scan_fitting_in_cache_misses_once() {
        // Working set (8 blocks) < capacity (16): one miss per distinct
        // block.
        let t = scan_trace(4, 8, OperandClass::Ciphertext);
        let s = replay(&t, &CacheConfig::pin_keys(16 * B, B));
        assert_eq!(distinct_blocks(&t), 8);
        assert_eq!(s.ct_read_bytes(), distinct_blocks(&t) * B);
        assert_eq!(s.dram_write(), 0, "clean blocks are never written back");
    }

    #[test]
    fn sequential_scan_exceeding_cache_thrashes() {
        // Working set (8 blocks) > capacity (4), no keys to pin: every
        // access of every pass misses — the classic sequential-thrash
        // closed form.
        let t = scan_trace(3, 8, OperandClass::Ciphertext);
        let s = replay(&t, &CacheConfig::pin_keys(4 * B, B));
        assert_eq!(s.ct_read_bytes(), 3 * distinct_blocks(&t) * B);
    }

    #[test]
    fn key_pinning_keeps_keys_resident_under_streaming() {
        // 4 key blocks re-read between streaming scans of 8 ct blocks, in
        // a 6-block cache: every key re-read is served on-chip.
        let mut t = Vec::new();
        for round in 0..3 {
            for b in 0..4 {
                t.push(touch(1, OperandClass::Key, false, b * B, B));
            }
            for b in 0..8 {
                t.push(touch(2 + round, OperandClass::Ciphertext, false, b * B, B));
            }
        }
        let pinned = replay(&t, &CacheConfig::pin_keys(6 * B, B));
        assert_eq!(
            pinned.key_read_bytes(),
            4 * B,
            "pinned keys are fetched once"
        );
    }

    #[test]
    fn writeback_attributes_dirty_evictions_and_flush_by_class() {
        // Write 2 ct blocks, then stream 4 pt reads through a 2-block
        // cache: the ct blocks are evicted dirty (2 write-backs), the pt
        // blocks leave clean.
        let mut t = vec![touch(0, OperandClass::Ciphertext, true, 0, 2 * B)];
        for b in 0..4 {
            t.push(touch(1, OperandClass::Plaintext, false, b * B, B));
        }
        let s = replay(&t, &CacheConfig::pin_keys(2 * B, B));
        assert_eq!(s.ct_write_bytes(), 2 * B);
        assert_eq!(s.pt_read_bytes(), 4 * B);
        assert_eq!(s.class(OperandClass::Plaintext).write_bytes, 0);

        // Nothing evicted: the dirty ct blocks survive to the final flush.
        let s = replay(&t, &roomy());
        assert_eq!(s.ct_write_bytes(), 2 * B);
        assert_eq!(s.ct_read_bytes(), 0, "written-first blocks never fetch");
    }

    #[test]
    fn dead_scratch_is_dropped_not_flushed() {
        // A scratch intermediate written and read back entirely on-chip
        // costs no DRAM traffic at all.
        let t = vec![
            touch(0, OperandClass::Scratch, true, 0, 4 * B),
            touch(0, OperandClass::Scratch, false, 0, 4 * B),
        ];
        let s = replay(&t, &roomy());
        assert_eq!(s.dram_total(), 0);
        // …but under capacity pressure its evictions still cost writes.
        let mut t = t;
        for b in 0..8 {
            t.push(touch(1, OperandClass::Ciphertext, false, b * B, B));
        }
        let s = replay(&t, &CacheConfig::pin_keys(2 * B, B));
        assert_eq!(s.ct_write_bytes(), 4 * B, "evicted dirty scratch pays");
    }

    #[test]
    fn retag_last_wins_attributes_all_traffic() {
        // An operand touched as scratch, then retagged ct: its reads and
        // its flush write all land in the ct category.
        let t = vec![
            touch(7, OperandClass::Scratch, true, 0, 2 * B),
            TraceRecord::Retag {
                id: 7,
                class: OperandClass::Ciphertext,
            },
        ];
        let s = replay(&t, &roomy());
        assert_eq!(s.class(OperandClass::Ciphertext).write_bytes, 2 * B);
        assert_eq!(s.class(OperandClass::Scratch).write_bytes, 0);
    }

    #[test]
    fn partial_touches_expand_to_covering_blocks() {
        // 100 bytes starting at offset 60 with 64-byte blocks spans
        // blocks 0..=2.
        let t = vec![touch(0, OperandClass::Ciphertext, false, 60, 100)];
        let s = replay(&t, &roomy());
        assert_eq!(distinct_blocks(&t), 3);
        assert_eq!(s.ct_read_bytes(), 3 * B);
    }

    fn touch_strategy() -> impl Strategy<Value = TraceRecord> {
        (
            0u64..6,
            prop_oneof![
                Just(OperandClass::Ciphertext),
                Just(OperandClass::Key),
                Just(OperandClass::Plaintext),
                Just(OperandClass::Scratch),
            ],
            any::<bool>(),
            0u64..1024,
            1u64..512,
        )
            .prop_map(|(id, class, write, offset, bytes)| touch(id, class, write, offset, bytes))
    }

    proptest! {
        #[test]
        fn unbounded_replay_misses_exactly_the_footprint(
            records in prop::collection::vec(touch_strategy(), 1..200),
        ) {
            // With nothing evicted every miss is a first touch, and only a
            // read miss fetches: the bytes read are the distinct
            // (operand, block) pairs first touched by a read, counted
            // independently, and no block is fetched twice.
            let s = replay(&records, &roomy());
            let (footprint, written_first) = (distinct_blocks(&records), written_first(&records));
            prop_assert_eq!(s.dram_read(), (footprint - written_first) * B);
        }

        #[test]
        fn bounded_replay_never_beats_unbounded(
            records in prop::collection::vec(touch_strategy(), 1..150),
            cap_blocks in 1u64..32,
        ) {
            let unbounded = replay(&records, &roomy());
            let s = replay(&records, &CacheConfig::pin_keys(cap_blocks * B, B));
            prop_assert!(s.dram_read() >= unbounded.dram_read());
        }
    }
}
