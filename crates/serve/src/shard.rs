//! Session-to-shard placement.
//!
//! The serving runtime runs N independent shards; a session — and
//! with it the tenant's compressed keys, expanded-key cache entries and
//! program table — lives entirely on the shard chosen by [`shard_of`].
//! Placement uses the jump consistent hash of Lamping & Veach ("A Fast,
//! Minimal Memory, Consistent Hash Algorithm"): stateless, O(ln n), and
//! *monotone* — growing the shard count only ever moves a session id onto
//! one of the new shards, never between surviving ones, so a resize
//! invalidates the minimum number of cache slices.

/// The shard owning `session_id` in a server running `shards` shards.
/// Deterministic and stable: the same `(session_id, shards)`
/// pair always maps to the same shard, in `0..shards`.
///
/// # Panics
///
/// Panics if `shards` is zero — a server always runs at least one shard.
#[must_use]
pub fn shard_of(session_id: u64, shards: usize) -> usize {
    assert!(shards > 0, "a server runs at least one shard");
    let mut key = session_id;
    let mut b: i64 = -1;
    let mut j: i64 = 0;
    while j < shards as i64 {
        b = j;
        key = key.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(1);
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        {
            j = (((b + 1) as f64) * (f64::from(1u32 << 31) / (((key >> 33) + 1) as f64))) as i64;
        }
    }
    b as usize
}

/// Upper bound on `MAD_SERVE_SHARDS`: enough for any test matrix while
/// keeping a misconfigured env from spawning thousands of threads.
pub const MAX_SHARDS: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shard_owns_everything() {
        for sid in [0u64, 1, 7, 1 << 20, u64::MAX] {
            assert_eq!(shard_of(sid, 1), 0);
        }
    }

    #[test]
    fn placement_is_in_range_and_deterministic() {
        for shards in [1usize, 2, 3, 4, 8, 64] {
            for sid in 0..2000u64 {
                let s = shard_of(sid, shards);
                assert!(s < shards, "sid {sid} -> shard {s} of {shards}");
                assert_eq!(s, shard_of(sid, shards), "re-hash must be stable");
            }
        }
    }

    #[test]
    fn growing_the_ring_is_monotone() {
        // Jump hash's defining property: adding shards only moves keys
        // onto the *new* shards. A key that stays below the old count
        // stayed exactly where it was.
        for sid in 0..4000u64 {
            for shards in 1usize..16 {
                let before = shard_of(sid, shards);
                let after = shard_of(sid, shards + 1);
                assert!(
                    after == before || after == shards,
                    "sid {sid}: {shards}->{} moved {before}->{after}",
                    shards + 1
                );
            }
        }
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        for shards in [2usize, 4, 8] {
            let mut counts = vec![0usize; shards];
            let n = 10_000u64;
            for sid in 0..n {
                counts[shard_of(sid, shards)] += 1;
            }
            let ideal = n as usize / shards;
            for (s, &c) in counts.iter().enumerate() {
                assert!(
                    c * 2 >= ideal && c <= ideal * 2,
                    "shard {s}/{shards} holds {c} of {n} (ideal {ideal})"
                );
            }
        }
    }
}
