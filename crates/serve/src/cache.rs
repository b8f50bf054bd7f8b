//! The byte-budgeted switching-key cache — the paper's compute-for-memory
//! trade made operational.
//!
//! Sessions store keys only in their wire form, seed and `b_j` (half
//! size, §3.2), checked whole at upload. An evaluation op asks the cache
//! for the *expanded* key at the limb count `ℓ` its key switches run at;
//! on a miss the cache regenerates only what a key switch at `ℓ` reads —
//! the first `β(ℓ)` digits over `Q_ℓ ∪ P`, `b_j` decoded and `a_j` drawn
//! from the seed at those limbs (`deserialize_switching_key_at`), the whole
//! key at `ℓ = L` — and evicts other entries until it fits. A later
//! request at a higher level widens the entry in place: a hit, and one
//! more expansion, counted by [`CacheStats::widenings`]. A request for an
//! evicted key pays the expansion again — the regenerate-from-seed cost the
//! benchmark harness reports as `fhe_serve.cache.miss_us` against
//! `fhe_serve.cache.hit_us` on its `serve_thrash` workload.
//!
//! The budget charges every entry its whole key's size, however little of
//! it is expanded ([`CacheStats::resident_bytes`] is that reservation;
//! [`CacheStats::materialized_bytes`] is what the entries hold). So which
//! lookup hits, misses, evicts or is pinned does not depend on the levels
//! the keys are read at: it is what a cache of whole keys would do.

use crate::protocol::ErrorCode;
use ckks::serialize::deserialize_switching_key_at;
use ckks::{CkksContext, SwitchingKey};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Which key a cache entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyKind {
    /// The session's relinearization key (`s² → s`).
    Relin,
    /// The Galois key for this element.
    Galois(u64),
}

/// Eviction policy for [`KeyCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Evict the least-recently-used expansion.
    Lru,
}

struct Entry {
    key: Arc<SwitchingKey>,
    /// The limb count `key` was expanded at.
    ell: usize,
    /// The whole key's size, which the budget charges.
    bytes: u64,
    last_used: u64,
    /// Active request pins. A pinned entry is never evicted — not by
    /// budget pressure, not by an eviction storm — so a request executing
    /// against it cannot lose the expansion mid-flight. Pinned bytes may
    /// push the cache transiently over budget; [`KeyCache::unpin`]
    /// re-evicts.
    pins: u32,
}

struct Inner {
    entries: HashMap<(u64, KeyKind), Entry>,
    bytes: u64,
    clock: u64,
    hits: u64,
    misses: u64,
    expanded_bytes: u64,
    accesses: u64,
    evictions: u64,
    widenings: u64,
}

/// Counters exported by [`KeyCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from an existing expansion.
    pub hits: u64,
    /// Lookups that had to expand from the compressed form — one
    /// switching-key expansion each.
    pub misses: u64,
    /// Expanded key bytes those misses and widenings produced,
    /// cumulative: the compute-for-memory price paid, not what is
    /// resident.
    pub expanded_bytes: u64,
    /// Total lookups. Always `hits + misses`; kept as its own counter so
    /// the per-shard invariant check can assert the partition instead of
    /// assuming it.
    pub accesses: u64,
    /// Expansions evicted to fit the budget.
    pub evictions: u64,
    /// Hits on an entry expanded below the requested limb count, which
    /// re-expand it at that count in place: one expansion each.
    pub widenings: u64,
    /// Bytes the budget charges the resident entries: each its whole
    /// key's size (the reservation), however much of it is expanded.
    pub resident_bytes: u64,
    /// Bytes of key material the resident entries actually hold, each
    /// expanded at the highest limb count it was asked for.
    pub materialized_bytes: u64,
    /// Number of resident expansions.
    pub resident_keys: u64,
    /// Resident expansions currently pinned by an executing request.
    pub pinned_keys: u64,
}

impl CacheStats {
    /// Folds another shard's counters into this one. Monotone counters
    /// (`hits`/`misses`/`expanded_bytes`/`accesses`/`evictions`/
    /// `widenings`) and residency gauges (`resident_bytes`/
    /// `materialized_bytes`/`resident_keys`/`pinned_keys`) all sum: the
    /// aggregate reads as one fleet-wide cache.
    pub fn accumulate(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.expanded_bytes += other.expanded_bytes;
        self.accesses += other.accesses;
        self.evictions += other.evictions;
        self.widenings += other.widenings;
        self.resident_bytes += other.resident_bytes;
        self.materialized_bytes += other.materialized_bytes;
        self.resident_keys += other.resident_keys;
        self.pinned_keys += other.pinned_keys;
    }
}

/// A byte-budgeted cache of expanded switching keys, shared by every
/// worker.
///
/// One mutex guards the whole cache — entries, byte ledger and counters
/// — held across expansion on a miss.
/// That serializes concurrent misses — a deliberate simplification at
/// this scale (it also prevents two workers from expanding the same key
/// twice); a production server would expand outside the lock with a
/// per-entry in-flight marker.
pub struct KeyCache {
    budget_bytes: u64,
    inner: Mutex<Inner>,
}

impl KeyCache {
    /// A cache that keeps at most `budget_bytes` of expanded key material.
    pub fn new(budget_bytes: u64, _policy: EvictionPolicy) -> Self {
        Self {
            budget_bytes,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                bytes: 0,
                clock: 0,
                hits: 0,
                misses: 0,
                expanded_bytes: 0,
                accesses: 0,
                evictions: 0,
                widenings: 0,
            }),
        }
    }

    /// The configured budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// Returns the whole expanded key for `(session, kind)`, expanding
    /// `compressed` (a serialized switching-key message: seed and `b_j`)
    /// on a miss and evicting per policy to stay within budget: the
    /// `ℓ = L` lookup, which serves a key switch at any level.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::Malformed`] if the stored compressed bytes fail to
    /// deserialize against `ctx`.
    pub fn get_or_expand(
        &self,
        ctx: &CkksContext,
        session: u64,
        kind: KeyKind,
        compressed: &[u8],
    ) -> Result<Arc<SwitchingKey>, ErrorCode> {
        self.lookup(ctx, session, kind, compressed, ctx.params().levels(), false)
    }

    /// Returns the key for `(session, kind)` expanded at least at limb
    /// count `ell` — a miss expands only that share, an entry expanded
    /// below it widens — and takes a pin on the entry before releasing
    /// the cache lock. A pinned entry survives budget eviction, eviction
    /// storms, and policy pressure until every pin is released via
    /// [`KeyCache::unpin`]. A worker pins a request's whole key plan up
    /// front so the request can never re-expand a key mid-flight.
    ///
    /// # Errors
    ///
    /// As [`KeyCache::get_or_expand`].
    ///
    /// # Panics
    ///
    /// Panics if `ell` is zero or exceeds `L`.
    pub fn get_or_expand_pinned(
        &self,
        ctx: &CkksContext,
        session: u64,
        kind: KeyKind,
        compressed: &[u8],
        ell: usize,
    ) -> Result<Arc<SwitchingKey>, ErrorCode> {
        self.lookup(ctx, session, kind, compressed, ell, true)
    }

    fn lookup(
        &self,
        ctx: &CkksContext,
        session: u64,
        kind: KeyKind,
        compressed: &[u8],
        ell: usize,
        pin: bool,
    ) -> Result<Arc<SwitchingKey>, ErrorCode> {
        let expand =
            || deserialize_switching_key_at(ctx, compressed, ell).map_err(|_| ErrorCode::Malformed);
        let mut inner = self.inner.lock().expect("cache poisoned");
        let inner = &mut *inner;
        inner.clock += 1;
        if let Some(e) = inner.entries.get_mut(&(session, kind)) {
            e.last_used = inner.clock;
            inner.hits += 1;
            inner.accesses += 1;
            if e.ell < ell {
                // Widen in place: requests still holding the narrower key
                // keep it, and the reservation already covers the whole
                // key.
                let key = expand()?;
                inner.widenings += 1;
                inner.expanded_bytes += key.size_bytes();
                (e.key, e.ell) = (Arc::new(key), ell);
            }
            e.pins += u32::from(pin);
            return Ok(e.key.clone());
        }
        // Miss: regenerate the share of the key this level reads, count
        // the compute-for-memory price paid, and reserve the whole key.
        let key = expand()?;
        inner.misses += 1;
        inner.expanded_bytes += key.size_bytes();
        inner.accesses += 1;
        let key = Arc::new(key);
        let bytes = ctx.switching_key_bytes();
        inner.entries.insert(
            (session, kind),
            Entry {
                key: key.clone(),
                ell,
                bytes,
                last_used: inner.clock,
                pins: u32::from(pin),
            },
        );
        inner.bytes += bytes;
        self.evict_to_budget(inner, Some((session, kind)));
        Ok(key)
    }

    /// Releases one pin on `(session, kind)`. Dropping the last pin makes
    /// the entry evictable again and immediately re-evicts to budget, so
    /// any transient pinned overage ends with the request that caused it.
    /// Like a lookup, the re-eviction never drops the entry just served:
    /// every keyed request pins its keys, so a budget slice smaller than
    /// one key would otherwise keep nothing resident between requests.
    /// Unpinning an entry that was purged or never pinned is a no-op.
    pub fn unpin(&self, session: u64, kind: KeyKind) {
        let mut inner = self.inner.lock().expect("cache poisoned");
        if let Some(e) = inner.entries.get_mut(&(session, kind)) {
            e.pins = e.pins.saturating_sub(1);
        }
        self.evict_to_budget(&mut inner, Some((session, kind)));
    }

    /// Evicts unpinned entries (never `keep`) until within budget, counting
    /// each. If the surviving set — `keep` plus anything
    /// pinned — alone exceeds the budget it stays resident (the in-flight
    /// requests need those keys regardless) and everything else goes.
    fn evict_to_budget(&self, inner: &mut Inner, keep: Option<(u64, KeyKind)>) {
        while inner.bytes > self.budget_bytes {
            let victim = inner
                .entries
                .iter()
                .filter(|(k, e)| Some(**k) != keep && e.pins == 0)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    let e = inner.entries.remove(&k).expect("victim exists");
                    inner.bytes -= e.bytes;
                    inner.evictions += 1;
                }
                None => break,
            }
        }
    }

    /// Forcibly evicts every resident *unpinned* expansion (a chaos
    /// "eviction storm", or an operator flushing the cache). Entries
    /// pinned by an in-flight request survive — the request holds `Arc`s to
    /// them anyway, so evicting would only lie about residency. Later
    /// lookups re-expand from the compressed forms bit-exactly; only the
    /// compute price is paid again. Returns how many expansions were
    /// dropped.
    pub fn evict_all(&self) -> u64 {
        let mut inner = self.inner.lock().expect("cache poisoned");
        let before = inner.entries.len() as u64;
        inner.entries.retain(|_, e| e.pins > 0);
        inner.bytes = inner.entries.values().map(|e| e.bytes).sum();
        let dropped = before - inner.entries.len() as u64;
        inner.evictions += dropped;
        dropped
    }

    /// Asserts the cache's internal invariants and returns a consistent
    /// stats snapshot, taken under the one lock, so the view cannot tear
    /// against a concurrent insert, storm, or purge:
    ///
    /// - the byte ledger equals the sum of resident entry sizes, and no
    ///   entry holds more than its reservation,
    /// - every lookup counted as exactly one hit or miss,
    /// - the *unpinned* bytes fit the budget, except when a single
    ///   unpinned entry alone exceeds it (the in-flight request needs
    ///   that key regardless). Pinned bytes are exempt: a request may pin
    ///   a key-set larger than the budget for its duration, and
    ///   [`KeyCache::unpin`] re-evicts the moment the request ends.
    ///
    /// Used by the concurrency stress and chaos suites; cheap enough to
    /// call mid-storm.
    pub fn check_invariants(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache poisoned");
        let sum: u64 = inner.entries.values().map(|e| e.bytes).sum();
        assert_eq!(
            sum, inner.bytes,
            "byte ledger diverged from resident entries"
        );
        assert!(
            inner
                .entries
                .values()
                .all(|e| e.key.size_bytes() <= e.bytes),
            "an entry holds more than its reservation"
        );
        assert_eq!(
            inner.hits + inner.misses,
            inner.accesses,
            "lookups must partition into hits and misses"
        );
        let unpinned: Vec<&Entry> = inner.entries.values().filter(|e| e.pins == 0).collect();
        let unpinned_bytes: u64 = unpinned.iter().map(|e| e.bytes).sum();
        assert!(
            unpinned_bytes <= self.budget_bytes || unpinned.len() == 1,
            "budget exceeded by {} unpinned keys: {} > {}",
            unpinned.len(),
            unpinned_bytes,
            self.budget_bytes
        );
        Self::stats_of(&inner)
    }

    /// Drops every expansion belonging to `session` (session close),
    /// pinned or not — the session is gone, and any request still executing
    /// against it keeps its `Arc`s alive independently of residency.
    pub fn purge_session(&self, session: u64) {
        let mut inner = self.inner.lock().expect("cache poisoned");
        let gone: Vec<(u64, KeyKind)> = inner
            .entries
            .keys()
            .filter(|(s, _)| *s == session)
            .copied()
            .collect();
        for k in gone {
            let e = inner.entries.remove(&k).expect("key exists");
            inner.bytes -= e.bytes;
        }
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        Self::stats_of(&self.inner.lock().expect("cache poisoned"))
    }

    /// The counters, and the residency gauges derived from the entries.
    fn stats_of(inner: &Inner) -> CacheStats {
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            expanded_bytes: inner.expanded_bytes,
            accesses: inner.accesses,
            evictions: inner.evictions,
            widenings: inner.widenings,
            resident_bytes: inner.bytes,
            materialized_bytes: inner.entries.values().map(|e| e.key.size_bytes()).sum(),
            resident_keys: inner.entries.len() as u64,
            pinned_keys: inner.entries.values().filter(|e| e.pins > 0).count() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckks::serialize::{deserialize_switching_key, serialize_switching_key};
    use ckks::{CkksParams, KeyGenerator};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The test ring's top level.
    const L: usize = 3;

    fn setup() -> (Arc<CkksContext>, Vec<Vec<u8>>) {
        let ctx = CkksContext::new(
            CkksParams::builder()
                .log_degree(5)
                .levels(L)
                .scale_bits(30)
                .first_modulus_bits(36)
                .dnum(2)
                .build()
                .unwrap(),
        );
        let mut rng = StdRng::seed_from_u64(42);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let gk = kg.galois_keys(&mut rng, &sk, &[1, 2, 4], false);
        let blobs = gk.iter().map(|(_, k)| serialize_switching_key(k)).collect();
        (ctx, blobs)
    }

    #[test]
    fn hit_after_miss_and_eviction_under_budget() {
        let (ctx, blobs) = setup();
        let one_key = deserialize_switching_key(&ctx, &blobs[0])
            .unwrap()
            .size_bytes();
        // Budget fits exactly two expanded keys.
        let cache = KeyCache::new(2 * one_key, EvictionPolicy::Lru);
        for (i, b) in blobs.iter().enumerate() {
            cache
                .get_or_expand(&ctx, 1, KeyKind::Galois(i as u64), b)
                .unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.misses, 3);
        assert_eq!(s.evictions, 1, "third insert evicts the LRU entry");
        assert!(s.resident_bytes <= 2 * one_key);
        // Key 0 was evicted; key 2 is resident.
        cache
            .get_or_expand(&ctx, 1, KeyKind::Galois(2), &blobs[2])
            .unwrap();
        assert_eq!(cache.stats().hits, 1);
        cache
            .get_or_expand(&ctx, 1, KeyKind::Galois(0), &blobs[0])
            .unwrap();
        let s = cache.stats();
        assert_eq!(s.misses, 4, "evicted key must be re-expanded");
        assert_eq!(s.expanded_bytes, 4 * one_key, "every miss pays one key");
        assert_eq!(
            s.hits + s.misses,
            5,
            "accesses partition into hits and misses"
        );
    }

    #[test]
    fn a_miss_expands_its_level_and_a_higher_level_widens_it() {
        let (ctx, blobs) = setup(); // L = 3, α = 2, dnum = 2
        let whole = deserialize_switching_key(&ctx, &blobs[0]).unwrap();
        assert_eq!(ctx.switching_key_bytes(), whole.size_bytes());
        let cache = KeyCache::new(u64::MAX, EvictionPolicy::Lru);
        let kind = KeyKind::Galois(0);
        let low = cache
            .get_or_expand_pinned(&ctx, 1, kind, &blobs[0], 1)
            .unwrap();
        let s = cache.check_invariants();
        assert_eq!((s.misses, s.widenings), (1, 0));
        assert_eq!(
            s.resident_bytes,
            whole.size_bytes(),
            "the whole key reserved"
        );
        // One digit over Q_1 ∪ P: 3 of the whole key's 2·5 limb-polys.
        assert_eq!(low.size_bytes(), whole.size_bytes() * 3 / 10);
        assert_eq!(s.materialized_bytes, low.size_bytes());
        assert_eq!(s.expanded_bytes, low.size_bytes());
        // A higher level widens the entry in place: a hit, one expansion;
        // the request holding the narrow key keeps it.
        let top = cache
            .get_or_expand_pinned(&ctx, 1, kind, &blobs[0], L)
            .unwrap();
        let s = cache.check_invariants();
        assert_eq!((s.hits, s.misses, s.widenings), (1, 1, 1));
        assert_eq!(s.materialized_bytes, whole.size_bytes());
        assert_eq!(s.expanded_bytes, low.size_bytes() + whole.size_bytes());
        assert_eq!(serialize_switching_key(&top), blobs[0]);
        assert_eq!(low.digit_count(), 1);
        // A lower level reads the wider entry as it is.
        let again = cache.get_or_expand(&ctx, 1, kind, &blobs[0]).unwrap();
        assert!(Arc::ptr_eq(&again, &top));
        let again = cache
            .get_or_expand_pinned(&ctx, 1, kind, &blobs[0], 2)
            .unwrap();
        assert!(Arc::ptr_eq(&again, &top));
        assert_eq!(cache.check_invariants().widenings, 1);
    }

    #[test]
    fn mixed_levels_hit_miss_and_evict_like_a_whole_key_cache() {
        let (ctx, blobs) = setup();
        let budget = 2 * ctx.switching_key_bytes();
        let leveled = KeyCache::new(budget, EvictionPolicy::Lru);
        let whole = KeyCache::new(budget, EvictionPolicy::Lru);
        let mut rng = StdRng::seed_from_u64(0x1e7e1);
        let mut pinned: Vec<(u64, KeyKind)> = Vec::new();
        let mut widenings = 0;
        for step in 0..400 {
            match rng.gen_range(0..20) {
                0 => assert_eq!(leveled.evict_all(), whole.evict_all(), "step {step}"),
                1 => {
                    let session = rng.gen_range(1..=3);
                    pinned.retain(|&(s, _)| s != session);
                    leveled.purge_session(session);
                    whole.purge_session(session);
                }
                2..=5 if !pinned.is_empty() => {
                    let (session, kind) = pinned.swap_remove(rng.gen_range(0..pinned.len()));
                    leveled.unpin(session, kind);
                    whole.unpin(session, kind);
                }
                _ => {
                    let (session, key) = (rng.gen_range(1..=3), rng.gen_range(0..blobs.len()));
                    let kind = KeyKind::Galois(key as u64);
                    let ell = rng.gen_range(1..=L);
                    let inner = leveled.inner.lock().unwrap();
                    let at = inner.entries.get(&(session, kind)).map(|e| e.ell);
                    drop(inner);
                    widenings += u64::from(at.is_some_and(|at| at < ell));
                    let blob = &blobs[key];
                    let got = leveled.get_or_expand_pinned(&ctx, session, kind, blob, ell);
                    let want = whole.get_or_expand_pinned(&ctx, session, kind, blob, L);
                    assert!(got.unwrap().digit_count() <= want.unwrap().digit_count());
                    pinned.push((session, kind));
                }
            }
            let (a, b) = (leveled.check_invariants(), whole.check_invariants());
            let policy = |s: CacheStats| {
                let CacheStats {
                    hits,
                    misses,
                    accesses,
                    evictions,
                    ..
                } = s;
                let resident = (s.resident_bytes, s.resident_keys, s.pinned_keys);
                (hits, misses, accesses, evictions, resident)
            };
            assert_eq!(policy(a), policy(b), "step {step}");
            assert_eq!(a.widenings, widenings, "step {step}");
            assert_eq!(b.widenings, 0);
            assert!(a.materialized_bytes <= b.materialized_bytes);
        }
        assert!(widenings > 0 && whole.stats().evictions > 0);
    }

    #[test]
    fn purge_drops_only_that_session() {
        let (ctx, blobs) = setup();
        let cache = KeyCache::new(u64::MAX, EvictionPolicy::Lru);
        cache
            .get_or_expand(&ctx, 1, KeyKind::Galois(0), &blobs[0])
            .unwrap();
        cache
            .get_or_expand(&ctx, 2, KeyKind::Galois(0), &blobs[0])
            .unwrap();
        assert_eq!(cache.stats().resident_keys, 2);
        cache.purge_session(1);
        assert_eq!(cache.stats().resident_keys, 1);
        cache
            .get_or_expand(&ctx, 2, KeyKind::Galois(0), &blobs[0])
            .unwrap();
        assert_eq!(cache.stats().hits, 1, "session 2's expansion survived");
    }

    #[test]
    fn evict_all_zeroes_residency_and_counts_evictions() {
        let (ctx, blobs) = setup();
        let cache = KeyCache::new(u64::MAX, EvictionPolicy::Lru);
        for (i, b) in blobs.iter().enumerate() {
            cache
                .get_or_expand(&ctx, 1, KeyKind::Galois(i as u64), b)
                .unwrap();
        }
        assert_eq!(cache.check_invariants().resident_keys, 3);
        assert_eq!(cache.evict_all(), 3);
        let s = cache.check_invariants();
        assert_eq!(s.resident_keys, 0);
        assert_eq!(s.resident_bytes, 0);
        assert_eq!(s.evictions, 3);
        // The storm is not destructive: the next lookup re-expands.
        cache
            .get_or_expand(&ctx, 1, KeyKind::Galois(0), &blobs[0])
            .unwrap();
        assert_eq!(cache.check_invariants().misses, 4);
    }

    #[test]
    fn pinned_keys_survive_storms_and_budget_pressure_until_unpinned() {
        let (ctx, blobs) = setup();
        let one_key = deserialize_switching_key(&ctx, &blobs[0])
            .unwrap()
            .size_bytes();
        // Budget fits a single key; pinning two must hold both resident.
        let cache = KeyCache::new(one_key, EvictionPolicy::Lru);
        cache
            .get_or_expand_pinned(&ctx, 1, KeyKind::Galois(0), &blobs[0], L)
            .unwrap();
        cache
            .get_or_expand_pinned(&ctx, 1, KeyKind::Galois(1), &blobs[1], L)
            .unwrap();
        let s = cache.check_invariants();
        assert_eq!(s.resident_keys, 2, "both pinned keys resident over budget");
        assert_eq!(s.pinned_keys, 2);
        // A storm mid-request drops nothing pinned.
        assert_eq!(cache.evict_all(), 0);
        assert_eq!(cache.check_invariants().resident_keys, 2);
        // A pinned hit takes a second pin; one unpin leaves it pinned.
        cache
            .get_or_expand_pinned(&ctx, 1, KeyKind::Galois(0), &blobs[0], L)
            .unwrap();
        assert_eq!(cache.stats().hits, 1);
        cache.unpin(1, KeyKind::Galois(0));
        assert_eq!(cache.evict_all(), 0, "second pin still held");
        // Releasing the last pins re-applies the budget.
        cache.unpin(1, KeyKind::Galois(0));
        cache.unpin(1, KeyKind::Galois(1));
        let s = cache.check_invariants();
        assert!(s.resident_bytes <= one_key, "unpin re-evicted to budget");
        assert_eq!(s.pinned_keys, 0);
        // Unpinning a purged entry is a harmless no-op.
        cache.unpin(1, KeyKind::Galois(2));
        cache.check_invariants();
        // A slice smaller than one key still holds the key last served.
        let tiny = KeyCache::new(one_key / 4, EvictionPolicy::Lru);
        for _ in 0..2 {
            tiny.get_or_expand_pinned(&ctx, 1, KeyKind::Galois(0), &blobs[0], L)
                .unwrap();
            tiny.unpin(1, KeyKind::Galois(0));
        }
        assert_eq!(tiny.check_invariants().misses, 1, "the second lookup hits");
    }

    #[test]
    fn check_invariants_fails_on_a_deliberately_overfull_shard() {
        let (ctx, blobs) = setup();
        let one_key = deserialize_switching_key(&ctx, &blobs[0])
            .unwrap()
            .size_bytes();
        // A shard whose budget slice fits one key, force-fed three
        // expansions behind the eviction logic's back — the state an
        // eviction bug would leave behind. The per-shard invariant
        // check must refuse it (two or more unpinned entries over
        // budget is never legal; only a single oversized in-flight
        // key is excused).
        let cache = KeyCache::new(one_key, EvictionPolicy::Lru);
        {
            let mut inner = cache.inner.lock().unwrap();
            for (i, b) in blobs.iter().enumerate() {
                let key = Arc::new(deserialize_switching_key(&ctx, b).unwrap());
                let bytes = key.size_bytes();
                inner.entries.insert(
                    (1, KeyKind::Galois(i as u64)),
                    Entry {
                        key,
                        ell: L,
                        bytes,
                        last_used: i as u64,
                        pins: 0,
                    },
                );
                inner.bytes += bytes;
            }
        }
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.check_invariants();
        }))
        .expect_err("overfull shard must fail the invariant check");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("budget exceeded"),
            "panic names the violated invariant: {msg}"
        );
    }

    #[test]
    fn check_invariants_fails_when_accesses_diverge_from_hits_plus_misses() {
        let (ctx, blobs) = setup();
        let cache = KeyCache::new(u64::MAX, EvictionPolicy::Lru);
        cache
            .get_or_expand(&ctx, 1, KeyKind::Galois(0), &blobs[0])
            .unwrap();
        cache.inner.lock().unwrap().accesses += 1;
        assert!(
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cache.check_invariants();
            }))
            .is_err(),
            "a torn access counter must fail the partition invariant"
        );
    }

    #[test]
    fn stats_accumulate_sums_every_counter() {
        let a = CacheStats {
            hits: 1,
            misses: 2,
            expanded_bytes: 50,
            accesses: 3,
            evictions: 4,
            widenings: 6,
            resident_bytes: 100,
            materialized_bytes: 40,
            resident_keys: 5,
            pinned_keys: 1,
        };
        let mut total = CacheStats::default();
        total.accumulate(&a);
        total.accumulate(&a);
        assert_eq!(
            total,
            CacheStats {
                hits: 2,
                misses: 4,
                expanded_bytes: 100,
                accesses: 6,
                evictions: 8,
                widenings: 12,
                resident_bytes: 200,
                materialized_bytes: 80,
                resident_keys: 10,
                pinned_keys: 2,
            }
        );
    }

    #[test]
    fn garbage_compressed_bytes_are_malformed_not_panic() {
        let (ctx, _) = setup();
        let cache = KeyCache::new(u64::MAX, EvictionPolicy::Lru);
        assert!(matches!(
            cache.get_or_expand(&ctx, 1, KeyKind::Relin, b"not a key"),
            Err(ErrorCode::Malformed)
        ));
    }
}
