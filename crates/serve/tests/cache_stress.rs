//! KeyCache concurrency stress: worker threads hammer `get_or_expand`
//! across many sessions and key kinds while a chaos thread repeatedly
//! force-evicts everything, and the byte-accounting invariants are
//! checked live from every thread. Runs under default features — the
//! cache's thread-safety contract is a production property, not a chaos
//! one.

use ckks::serialize::{deserialize_switching_key, serialize_switching_key};
use ckks::{CkksContext, CkksParams, KeyGenerator};
use fhe_serve::{EvictionPolicy, KeyCache, KeyKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

const WORKERS: u64 = 4;
const SESSIONS: u64 = 3;
const ITERS: u64 = 200;

#[test]
fn concurrent_expansion_under_eviction_storms_keeps_invariants() {
    let ctx = CkksContext::new(
        CkksParams::builder()
            .log_degree(5)
            .levels(3)
            .scale_bits(30)
            .first_modulus_bits(36)
            .dnum(2)
            .build()
            .unwrap(),
    );
    // One compressed key per (session, kind): every session uploads a
    // relin key and Galois keys for two rotation offsets, like a real
    // tenant. Seeded keys expand deterministically, so repeated
    // expansions are bit-identical and safe to race.
    let mut rng = StdRng::seed_from_u64(42);
    let kg = KeyGenerator::new(ctx.clone());
    let mut kinds = vec![KeyKind::Relin];
    let mut compressed: Vec<Vec<Vec<u8>>> = Vec::new();
    let mut key_bytes = 0u64;
    for session in 0..SESSIONS {
        let sk = kg.secret_key(&mut rng);
        let rlk = kg.relin_key_compressed(&mut rng, &sk);
        let gk = kg.galois_keys_compressed(&mut rng, &sk, &[3, 9], false);
        let mut elements: Vec<u64> = gk.iter().map(|(e, _)| e).collect();
        elements.sort_unstable();
        if session == 0 {
            kinds.extend(elements.iter().map(|&e| KeyKind::Galois(e)));
        }
        let mut per_kind = vec![serialize_switching_key(rlk.switching_key())];
        per_kind.extend(
            elements
                .iter()
                .map(|&e| serialize_switching_key(gk.get(e).unwrap())),
        );
        // Budget in *expanded* key units: deserializing regenerates the
        // full key from the seed.
        key_bytes = deserialize_switching_key(&ctx, &per_kind[0])
            .unwrap()
            .size_bytes();
        compressed.push(per_kind);
    }
    let kinds = Arc::new(kinds);
    let compressed = Arc::new(compressed);

    // Budget three expanded keys against a working set of nine: the
    // workers force steady policy eviction even without the storms.
    let budget = 3 * key_bytes;
    let cache = Arc::new(KeyCache::new(budget, EvictionPolicy::Lru));
    let accesses = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    // The workers are held here until the first storm has fired, so the
    // storms overlap the lookups however the host schedules the threads.
    let first_storm = Arc::new(Barrier::new(WORKERS as usize + 1));

    // Chaos thread: evict everything, as fast as possible, and verify
    // the counters stay consistent at every step.
    let chaos = {
        let cache = cache.clone();
        let stop = stop.clone();
        let first_storm = first_storm.clone();
        std::thread::spawn(move || {
            let mut storms = 0u64;
            while !stop.load(Ordering::Relaxed) {
                cache.evict_all();
                cache.check_invariants();
                storms += 1;
                if storms == 1 {
                    first_storm.wait();
                }
            }
            storms
        })
    };

    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let ctx = ctx.clone();
            let cache = cache.clone();
            let compressed = compressed.clone();
            let kinds = kinds.clone();
            let accesses = accesses.clone();
            let first_storm = first_storm.clone();
            std::thread::spawn(move || {
                first_storm.wait();
                for i in 0..ITERS {
                    let session = (w + i) % SESSIONS;
                    let kind_idx = ((w * 7 + i * 3) % kinds.len() as u64) as usize;
                    let kind = kinds[kind_idx];
                    let key = cache
                        .get_or_expand(&ctx, session, kind, &compressed[session as usize][kind_idx])
                        .expect("stored bytes always deserialize");
                    assert!(key.size_bytes() > 0);
                    accesses.fetch_add(1, Ordering::Relaxed);
                    // Periodically drop a whole session mid-flight, like a
                    // tenant disconnecting, and check the books.
                    if i % 50 == 49 {
                        cache.purge_session(session);
                        cache.check_invariants();
                    }
                }
            })
        })
        .collect();
    for h in workers {
        h.join().expect("worker panicked");
    }
    stop.store(true, Ordering::Relaxed);
    let storms = chaos.join().expect("chaos thread panicked");

    let stats = cache.check_invariants();
    let total = accesses.load(Ordering::Relaxed);
    assert_eq!(total, WORKERS * ITERS);
    // Every access was either a hit or a miss, none lost to races.
    assert_eq!(
        stats.hits + stats.misses,
        total,
        "hit/miss accounting diverged: {stats:?}"
    );
    assert!(stats.resident_bytes <= budget, "budget overrun: {stats:?}");
    assert!(
        stats.evictions > 0,
        "working set exceeds budget, evictions required: {stats:?}"
    );
    assert!(storms > 0, "chaos thread never ran");

    // The cache must still work after the abuse.
    let key = cache
        .get_or_expand(&ctx, 0, KeyKind::Relin, &compressed[0][0])
        .unwrap();
    assert!(key.size_bytes() > 0);
}
