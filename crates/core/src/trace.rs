//! Memory-access trace replay: a cache simulator that validates the
//! analytical DRAM-traffic model against the functional implementation.
//!
//! The functional crates can record (`fhe_math::telemetry::trace_start`)
//! every limb-buffer touch as a trace event tagged with an operand class
//! (ciphertext limb, switching-key digit, plaintext constant, scratch) and
//! a stable operand id. This module — dependency-free and always compiled —
//! replays such a trace through a pluggable on-chip cache model and reports
//! the DRAM bytes that actually cross the chip boundary, split by operand
//! class the same way [`crate::cost::Cost`] splits its categories. A trace
//! holds bytes only — touches and retags, no spans or timestamps. The
//! capture side lives with the functional crates: `fhe-program`'s
//! `validate` binary records one trace per row of its schedule, replays it
//! here, and gates the bytes beside that row's op counts
//! ([`crate::validate`]).
//!
//! # Cache model
//!
//! The simulated cache is fully associative and write-back, addressed at a
//! configurable block size over the space `(operand id, block index)`. A
//! write miss allocates without fetching (recorded touches cover whole
//! limb ranges, so a missed write never needs the old block contents).
//! Replacement is pluggable via [`CachePolicy`]:
//!
//! - [`CachePolicy::Lru`]: plain least-recently-used.
//! - [`CachePolicy::PinKeys`]: LRU that evicts switching-key blocks only
//!   when nothing else is resident — the MAD strategy of keeping key
//!   digits on-chip across an operation (paper §3.1).
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

use crate::report::Table;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Operand class of a traced buffer — the replay-side mirror of the
/// functional crates' `fhe_math::telemetry::OperandClass`, kept separate
/// so this module stays dependency-free.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum TraceClass {
    /// Ciphertext limbs (and the plaintext-sized intermediates the model's
    /// `ct` category also covers).
    Ciphertext,
    /// Switching-key digits.
    Key,
    /// Encoded plaintext constants and matrix diagonals.
    Plaintext,
    /// Kernel scratch: intermediates never re-tagged by a wrapper.
    Scratch,
}

impl TraceClass {
    /// All classes, in display order.
    pub const ALL: [TraceClass; 4] = [
        TraceClass::Ciphertext,
        TraceClass::Key,
        TraceClass::Plaintext,
        TraceClass::Scratch,
    ];

    /// Short stable name (`ct`, `key`, `pt`, `scratch`) — matches the
    /// telemetry layer's naming.
    pub fn name(&self) -> &'static str {
        match self {
            TraceClass::Ciphertext => "ct",
            TraceClass::Key => "key",
            TraceClass::Plaintext => "pt",
            TraceClass::Scratch => "scratch",
        }
    }

    fn index(self) -> usize {
        match self {
            TraceClass::Ciphertext => 0,
            TraceClass::Key => 1,
            TraceClass::Plaintext => 2,
            TraceClass::Scratch => 3,
        }
    }
}

/// One recorded memory-trace event, in program order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A kernel touched `bytes` bytes of operand `id` starting at byte
    /// `offset` within the operand's buffer.
    Touch {
        /// Stable operand id (fresh per allocated buffer).
        id: u64,
        /// The operand's class *at touch time*.
        class: TraceClass,
        /// True for a write (or read-modify-write) pass.
        write: bool,
        /// Byte offset of the touched range within the operand.
        offset: u64,
        /// Length of the touched range in bytes.
        bytes: u64,
    },
    /// A wrapper re-classified operand `id` (e.g. kernel output → `ct`).
    Retag {
        /// The re-classified operand.
        id: u64,
        /// Its new class.
        class: TraceClass,
    },
}

/// Replacement policy of the simulated cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CachePolicy {
    /// Least-recently-used over all resident blocks.
    Lru,
    /// LRU, but switching-key blocks are protected: a key block is evicted
    /// only when no non-key block is resident (MAD's pinned key digits).
    PinKeys,
}

/// Configuration of one replay.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// On-chip capacity in bytes; `None` simulates an unbounded cache
    /// (every miss is compulsory).
    pub capacity_bytes: Option<u64>,
    /// Cache block (line) size in bytes.
    pub block_bytes: u64,
    /// Replacement policy.
    pub policy: CachePolicy,
}

impl CacheConfig {
    /// An unbounded cache: replay yields exactly the compulsory-miss
    /// footprint (each distinct block fetched at most once).
    pub fn unbounded(block_bytes: u64) -> Self {
        Self {
            capacity_bytes: None,
            block_bytes,
            policy: CachePolicy::Lru,
        }
    }

    /// A bounded LRU cache.
    pub fn lru(capacity_bytes: u64, block_bytes: u64) -> Self {
        Self {
            capacity_bytes: Some(capacity_bytes),
            block_bytes,
            policy: CachePolicy::Lru,
        }
    }

    /// A bounded key-pinning cache.
    pub fn pin_keys(capacity_bytes: u64, block_bytes: u64) -> Self {
        Self {
            capacity_bytes: Some(capacity_bytes),
            block_bytes,
            policy: CachePolicy::PinKeys,
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
    per_class: [ClassTraffic; 4],
    /// Block accesses served on-chip.
    pub hits: u64,
    /// Block accesses that missed.
    pub misses: u64,
    /// Misses on never-before-seen blocks.
    pub compulsory: u64,
    /// Distinct bytes touched (`distinct blocks × block size`) — the
    /// compulsory footprint.
    pub footprint_bytes: u64,
}

impl ReplayStats {
    /// Traffic of one class.
    pub fn class(&self, c: TraceClass) -> ClassTraffic {
        self.per_class[c.index()]
    }

    /// Measured counterpart of the model's `ct_read`: ciphertext *and*
    /// scratch fetches, since [`Cost::ct_read`](crate::cost::Cost::ct_read)
    /// covers all ciphertext-sized ring data including intermediates.
    pub fn ct_read_bytes(&self) -> u64 {
        self.class(TraceClass::Ciphertext).read_bytes + self.class(TraceClass::Scratch).read_bytes
    }

    /// Measured counterpart of the model's `ct_write` (ciphertext plus
    /// scratch write-backs).
    pub fn ct_write_bytes(&self) -> u64 {
        self.class(TraceClass::Ciphertext).write_bytes + self.class(TraceClass::Scratch).write_bytes
    }

    /// Measured counterpart of the model's `key_read`.
    pub fn key_read_bytes(&self) -> u64 {
        self.class(TraceClass::Key).read_bytes
    }

    /// Measured counterpart of the model's `pt_read`.
    pub fn pt_read_bytes(&self) -> u64 {
        self.class(TraceClass::Plaintext).read_bytes
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
    class: TraceClass,
    pinned: bool,
}

/// The fully-associative simulator. Separate recency queues for pinned
/// (key) and unpinned blocks make [`CachePolicy::PinKeys`] an O(log n)
/// eviction: pop the unpinned queue first, fall back to pinned.
struct CacheSim {
    cfg: CacheConfig,
    capacity_blocks: Option<u64>,
    blocks: HashMap<Addr, Resident>,
    lru_unpinned: BTreeMap<u64, Addr>,
    lru_pinned: BTreeMap<u64, Addr>,
    seen: HashSet<Addr>,
    clock: u64,
    stats: ReplayStats,
}

impl CacheSim {
    fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.block_bytes > 0, "block size must be positive");
        let capacity_blocks = cfg.capacity_bytes.map(|cap| (cap / cfg.block_bytes).max(1));
        Self {
            cfg,
            capacity_blocks,
            blocks: HashMap::new(),
            lru_unpinned: BTreeMap::new(),
            lru_pinned: BTreeMap::new(),
            seen: HashSet::new(),
            clock: 0,
            stats: ReplayStats::default(),
        }
    }

    fn pins(&self, class: TraceClass) -> bool {
        self.cfg.policy == CachePolicy::PinKeys && class == TraceClass::Key
    }

    fn queue(&mut self, pinned: bool) -> &mut BTreeMap<u64, Addr> {
        if pinned {
            &mut self.lru_pinned
        } else {
            &mut self.lru_unpinned
        }
    }

    fn access(&mut self, addr: Addr, class: TraceClass, write: bool) {
        self.clock += 1;
        let stamp = self.clock;
        if let Some(entry) = self.blocks.get_mut(&addr) {
            self.stats.hits += 1;
            entry.dirty |= write;
            let (old, pinned) = (entry.stamp, entry.pinned);
            entry.stamp = stamp;
            self.queue(pinned).remove(&old);
            self.queue(pinned).insert(stamp, addr);
            return;
        }
        self.stats.misses += 1;
        if self.seen.insert(addr) {
            self.stats.compulsory += 1;
        }
        if !write {
            // Read miss: fetch the block. Write misses allocate without
            // fetching — the recorded touches cover whole limb ranges.
            self.stats.per_class[class.index()].read_bytes += self.cfg.block_bytes;
        }
        let pinned = self.pins(class);
        self.blocks.insert(
            addr,
            Resident {
                stamp,
                dirty: write,
                class,
                pinned,
            },
        );
        self.queue(pinned).insert(stamp, addr);
        if let Some(cap) = self.capacity_blocks {
            while self.blocks.len() as u64 > cap {
                self.evict();
            }
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
            self.stats.per_class[entry.class.index()].write_bytes += self.cfg.block_bytes;
        }
    }

    fn finish(mut self) -> ReplayStats {
        // Flush: live classes must reach DRAM; dead scratch never does.
        for entry in self.blocks.values() {
            if entry.dirty && entry.class != TraceClass::Scratch {
                self.stats.per_class[entry.class.index()].write_bytes += self.cfg.block_bytes;
            }
        }
        self.stats.footprint_bytes = self.seen.len() as u64 * self.cfg.block_bytes;
        self.stats
    }
}

/// Resolves each operand's final class, last-wins over touch tags and
/// explicit retags in trace order.
fn final_classes(events: &[TraceEvent]) -> HashMap<u64, TraceClass> {
    let mut map = HashMap::new();
    for e in events {
        let (TraceEvent::Touch { id, class, .. } | TraceEvent::Retag { id, class }) = *e;
        map.insert(id, class);
    }
    map
}

/// Replays a trace through the cache simulator and returns the measured
/// DRAM traffic split by operand class.
pub fn replay(events: &[TraceEvent], cfg: &CacheConfig) -> ReplayStats {
    let classes = final_classes(events);
    let mut sim = CacheSim::new(*cfg);
    for e in events {
        if let TraceEvent::Touch {
            id,
            write,
            offset,
            bytes,
            ..
        } = e
        {
            if *bytes == 0 {
                continue;
            }
            let class = classes[id];
            let first = offset / cfg.block_bytes;
            let last = (offset + bytes - 1) / cfg.block_bytes;
            for b in first..=last {
                sim.access((*id, b), class, *write);
            }
        }
    }
    sim.finish()
}

/// One point of the measured-vs-modeled cache sweep (Figure-6 style): a
/// primitive replayed at one on-chip size against the model at the
/// caching level that size affords.
#[derive(Clone, Debug)]
pub struct SweepRow {
    /// Primitive name.
    pub primitive: String,
    /// On-chip capacity in MB (fractional at reduced parameters).
    pub cache_mb: f64,
    /// The model's caching level for this capacity (display string).
    pub caching: String,
    /// The analytical model's DRAM bytes.
    pub modeled_bytes: u64,
    /// The cache simulator's DRAM bytes.
    pub measured_bytes: u64,
}

/// Renders sweep rows as a [`Table`] (columns: primitive, cache_KiB,
/// caching, modeled_B, measured_B, meas/model) for text or CSV output.
pub fn sweep_table(rows: &[SweepRow]) -> Table {
    let mut t = Table::new(
        "cache sweep: modeled vs cache-replayed DRAM bytes",
        &[
            "primitive",
            "cache_KiB",
            "caching",
            "modeled_B",
            "measured_B",
            "meas/model",
        ],
    );
    for r in rows {
        let ratio = if r.modeled_bytes == 0 {
            "n/a".to_string()
        } else {
            format!("{:.3}", r.measured_bytes as f64 / r.modeled_bytes as f64)
        };
        t.row(&[
            r.primitive.clone(),
            format!("{:.1}", r.cache_mb * 1024.0),
            r.caching.clone(),
            r.modeled_bytes.to_string(),
            r.measured_bytes.to_string(),
            ratio,
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const B: u64 = 64;

    fn touch(id: u64, class: TraceClass, write: bool, offset: u64, bytes: u64) -> TraceEvent {
        TraceEvent::Touch {
            id,
            class,
            write,
            offset,
            bytes,
        }
    }

    /// `passes` sequential read scans over `blocks` blocks of operand 0.
    fn scan_trace(passes: usize, blocks: u64, class: TraceClass) -> Vec<TraceEvent> {
        let mut t = Vec::new();
        for _ in 0..passes {
            for b in 0..blocks {
                t.push(touch(0, class, false, b * B, B));
            }
        }
        t
    }

    #[test]
    fn sequential_scan_fitting_in_cache_misses_once() {
        // Working set (8 blocks) < capacity (16): compulsory misses only.
        let t = scan_trace(4, 8, TraceClass::Ciphertext);
        let s = replay(&t, &CacheConfig::lru(16 * B, B));
        assert_eq!(s.misses, 8);
        assert_eq!(s.compulsory, 8);
        assert_eq!(s.hits, 3 * 8);
        assert_eq!(s.ct_read_bytes(), 8 * B);
        assert_eq!(s.dram_write(), 0, "clean blocks are never written back");
        assert_eq!(s.footprint_bytes, 8 * B);
    }

    #[test]
    fn sequential_scan_exceeding_cache_thrashes() {
        // Working set (8 blocks) > capacity (4) under LRU: every access of
        // every pass misses — the classic sequential-thrash closed form.
        let t = scan_trace(3, 8, TraceClass::Ciphertext);
        let s = replay(&t, &CacheConfig::lru(4 * B, B));
        assert_eq!(s.misses, 3 * 8);
        assert_eq!(s.compulsory, 8);
        assert_eq!(s.hits, 0);
        assert_eq!(s.ct_read_bytes(), 3 * 8 * B);
    }

    #[test]
    fn key_pinning_keeps_keys_resident_under_streaming() {
        // 4 key blocks re-read between streaming scans of 8 ct blocks, in
        // a 6-block cache. Plain LRU streams the keys out every time;
        // PinKeys serves every key re-read on-chip.
        let mut t = Vec::new();
        for round in 0..3 {
            for b in 0..4 {
                t.push(touch(1, TraceClass::Key, false, b * B, B));
            }
            for b in 0..8 {
                t.push(touch(2 + round, TraceClass::Ciphertext, false, b * B, B));
            }
        }
        let lru = replay(&t, &CacheConfig::lru(6 * B, B));
        let pinned = replay(&t, &CacheConfig::pin_keys(6 * B, B));
        assert_eq!(lru.key_read_bytes(), 3 * 4 * B, "LRU refetches keys");
        assert_eq!(
            pinned.key_read_bytes(),
            4 * B,
            "pinned keys are fetched once"
        );
        assert!(pinned.dram_read() < lru.dram_read());
    }

    #[test]
    fn writeback_attributes_dirty_evictions_and_flush_by_class() {
        // Write 2 ct blocks, then stream 4 pt reads through a 2-block
        // cache: the ct blocks are evicted dirty (2 write-backs), the pt
        // blocks leave clean.
        let mut t = vec![touch(0, TraceClass::Ciphertext, true, 0, 2 * B)];
        for b in 0..4 {
            t.push(touch(1, TraceClass::Plaintext, false, b * B, B));
        }
        let s = replay(&t, &CacheConfig::lru(2 * B, B));
        assert_eq!(s.ct_write_bytes(), 2 * B);
        assert_eq!(s.pt_read_bytes(), 4 * B);
        assert_eq!(s.class(TraceClass::Plaintext).write_bytes, 0);

        // Unbounded: the dirty ct blocks survive to the final flush.
        let s = replay(&t, &CacheConfig::unbounded(B));
        assert_eq!(s.ct_write_bytes(), 2 * B);
        assert_eq!(s.ct_read_bytes(), 0, "written-first blocks never fetch");
    }

    #[test]
    fn dead_scratch_is_dropped_not_flushed() {
        // A scratch intermediate written and read back entirely on-chip
        // costs no DRAM traffic at all.
        let t = vec![
            touch(0, TraceClass::Scratch, true, 0, 4 * B),
            touch(0, TraceClass::Scratch, false, 0, 4 * B),
        ];
        let s = replay(&t, &CacheConfig::unbounded(B));
        assert_eq!(s.dram_total(), 0);
        // …but under capacity pressure its evictions still cost writes.
        let mut t = t;
        for b in 0..8 {
            t.push(touch(1, TraceClass::Ciphertext, false, b * B, B));
        }
        let s = replay(&t, &CacheConfig::lru(2 * B, B));
        assert_eq!(s.ct_write_bytes(), 4 * B, "evicted dirty scratch pays");
    }

    #[test]
    fn retag_last_wins_attributes_all_traffic() {
        // An operand touched as scratch, then retagged ct: its reads and
        // its flush write all land in the ct category.
        let t = vec![
            touch(7, TraceClass::Scratch, true, 0, 2 * B),
            TraceEvent::Retag {
                id: 7,
                class: TraceClass::Ciphertext,
            },
        ];
        let s = replay(&t, &CacheConfig::unbounded(B));
        assert_eq!(s.class(TraceClass::Ciphertext).write_bytes, 2 * B);
        assert_eq!(s.class(TraceClass::Scratch).write_bytes, 0);
    }

    #[test]
    fn partial_touches_expand_to_covering_blocks() {
        // 100 bytes starting at offset 60 with 64-byte blocks spans
        // blocks 0..=2.
        let t = vec![touch(0, TraceClass::Ciphertext, false, 60, 100)];
        let s = replay(&t, &CacheConfig::unbounded(B));
        assert_eq!(s.misses, 3);
        assert_eq!(s.ct_read_bytes(), 3 * B);
    }

    #[test]
    fn sweep_table_has_expected_columns() {
        let rows = vec![SweepRow {
            primitive: "Mult".into(),
            cache_mb: 0.0009765625, // 1 KiB
            caching: "O(1)-limb".into(),
            modeled_bytes: 1000,
            measured_bytes: 1100,
        }];
        let t = sweep_table(&rows);
        let csv = t.to_csv();
        assert!(csv.starts_with("primitive,cache_KiB,caching,modeled_B,measured_B,meas/model"));
        assert!(csv.contains("Mult,1.0,O(1)-limb,1000,1100,1.100"));
    }

    fn event_strategy() -> impl Strategy<Value = TraceEvent> {
        (
            0u64..6,
            prop_oneof![
                Just(TraceClass::Ciphertext),
                Just(TraceClass::Key),
                Just(TraceClass::Plaintext),
                Just(TraceClass::Scratch),
            ],
            any::<bool>(),
            0u64..1024,
            1u64..512,
        )
            .prop_map(|(id, class, write, offset, bytes)| TraceEvent::Touch {
                id,
                class,
                write,
                offset,
                bytes,
            })
    }

    proptest! {
        #[test]
        fn unbounded_replay_misses_exactly_the_footprint(
            events in prop::collection::vec(event_strategy(), 1..200),
        ) {
            let cfg = CacheConfig::unbounded(B);
            let s = replay(&events, &cfg);
            // Every miss is compulsory, and the footprint is the set of
            // distinct (operand, block) pairs — computed independently.
            let mut distinct = HashSet::new();
            for e in &events {
                if let TraceEvent::Touch { id, offset, bytes, .. } = e {
                    for b in (offset / B)..=((offset + bytes - 1) / B) {
                        distinct.insert((*id, b));
                    }
                }
            }
            prop_assert_eq!(s.misses, s.compulsory);
            prop_assert_eq!(s.misses, distinct.len() as u64);
            prop_assert_eq!(s.footprint_bytes, distinct.len() as u64 * B);
            // Reads never exceed the footprint (each block fetched ≤ once).
            prop_assert!(s.dram_read() <= s.footprint_bytes);
        }

        #[test]
        fn bounded_replay_never_beats_unbounded(
            events in prop::collection::vec(event_strategy(), 1..150),
            cap_blocks in 1u64..32,
        ) {
            let unbounded = replay(&events, &CacheConfig::unbounded(B));
            for policy in [CachePolicy::Lru, CachePolicy::PinKeys] {
                let cfg = CacheConfig { capacity_bytes: Some(cap_blocks * B), block_bytes: B, policy };
                let s = replay(&events, &cfg);
                prop_assert!(s.dram_read() >= unbounded.dram_read());
                prop_assert!(s.misses >= unbounded.misses);
                prop_assert_eq!(s.compulsory, unbounded.compulsory);
            }
        }
    }
}
