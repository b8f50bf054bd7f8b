//! The key plan: which switching keys a request needs, and the one place
//! a handler reads them from.
//!
//! FHE serving time is dominated by moving switching keys, so the lever
//! is *inter-operation key reuse*: run requests that need the same keys
//! back-to-back so each expansion is paid for once (ARK's insight,
//! applied cross-request). That decision is made exactly once, here:
//!
//! 1. [`KeyPlan::of`] maps `(op, body, session)` to the request's plan at
//!    frame parse — relin yes/no plus the Galois elements. It is the only
//!    code in the crate that turns a rotation step into a Galois element.
//! 2. The scheduler groups jobs by `(session, `[`KeyClass`]` of the plan)`.
//! 3. The worker pins the union of a group's plans ([`PinnedKeys::pin`]),
//!    runs the jobs, and unpins. Handlers read keys from the pinned set
//!    and nowhere else.

use crate::cache::KeyKind;
use crate::protocol::{BodyReader, ErrorCode, Opcode};
use crate::server::ServerState;
use crate::session::SessionManager;
use ckks::{CkksContext, GaloisKeys, SwitchingKey};
use fhe_program::program::{bsgs_galois_steps, valid_baby_dim};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Which shared key material a plan names — the second half of the
/// scheduler's grouping key `(session, KeyClass)`. Requests in the same
/// class on the same session reuse each other's pinned expansions;
/// requests with an empty plan have no class and are never held back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyClass {
    /// The relinearization key only (`Mult`, relin-only programs).
    Relin,
    /// Galois keys only (`Rotate`, `Bsgs`, Galois-only programs).
    Galois,
    /// Both (programs whose manifest names relin and Galois keys).
    RelinGalois,
}

/// The keys one request needs, derived once at frame parse.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct KeyPlan {
    /// The session the keys belong to (meaningful when the plan is
    /// non-empty).
    pub(crate) sid: u64,
    pub(crate) relin: bool,
    /// `(rotation step, Galois element)`, steps that rotate only, one
    /// entry per distinct element.
    pub(crate) galois: Vec<(i64, u64)>,
}

/// The ciphertext bytes of a `Rotate` body (`sid:u64, steps:i64, ct`) —
/// the grouping key for hoist-sharing: rotations of bit-identical
/// ciphertexts share one ModUp decomposition.
pub(crate) fn rotate_ct(body: &[u8]) -> Option<&[u8]> {
    body.get(16..)
}

/// A `Bsgs` body past its session id (`n1, count: u32`, then per diagonal
/// `offset: u32` and `slots` complex values, read by `diagonal`), for the
/// plan and the handler alike: `None` on truncation, an `n1` the validator
/// refuses ([`valid_baby_dim`]), a count outside `1..=slots`, or offsets
/// out of range or not strictly increasing (a repeat replaces a diagonal).
pub(crate) fn read_bsgs<T>(
    r: &mut BodyReader<'_>,
    slots: usize,
    mut diagonal: impl FnMut(&mut BodyReader<'_>) -> Option<T>,
) -> Option<(usize, Vec<usize>, Vec<T>)> {
    let (n1, count) = (r.u32()? as usize, r.u32()? as usize);
    if !valid_baby_dim(n1, slots) || count == 0 || count > slots {
        return None;
    }
    let (mut offsets, mut diagonals) = (Vec::with_capacity(count), Vec::with_capacity(count));
    for _ in 0..count {
        let offset = r.u32()? as usize;
        if offset >= slots || offsets.last().is_some_and(|&last| last >= offset) {
            return None;
        }
        offsets.push(offset);
        diagonals.push(diagonal(r)?);
    }
    Some((n1, offsets, diagonals))
}

impl KeyPlan {
    /// The plan of one parsed frame. Keyless ops, truncated bodies and
    /// programs that were never uploaded plan nothing; the handler
    /// produces their structured errors.
    pub(crate) fn of(
        ctx: &CkksContext,
        sessions: &SessionManager,
        op: Opcode,
        body: &[u8],
    ) -> Self {
        let mut plan = KeyPlan::default();
        let mut r = BodyReader::new(body);
        let Some(sid) = r.u64() else {
            return plan;
        };
        plan.sid = sid;
        let steps = match op {
            Opcode::Mult => {
                plan.relin = true;
                Vec::new()
            }
            Opcode::Rotate => r.i64().into_iter().collect(),
            // The validator's own BSGS walk; the diagonals are skipped.
            Opcode::Bsgs => {
                let slots = ctx.params().slots();
                let body = read_bsgs(&mut r, slots, |r| r.take(slots * 16).map(drop));
                body.map_or(Vec::new(), |(n1, offsets, _)| {
                    bsgs_galois_steps(&offsets, n1)
                })
            }
            // The stored program's manifest names its exact keys.
            Opcode::RunProgram => {
                let stored = r
                    .u64()
                    .and_then(|pid| sessions.get(sid).ok()?.program(pid).ok());
                stored.map_or(Vec::new(), |sp| {
                    plan.relin = sp.info.manifest.relin;
                    sp.info.manifest.galois_steps.clone()
                })
            }
            _ => Vec::new(),
        };
        for s in steps {
            // A multiple of the slot count (0 among them) is a copy.
            let element = ctx.rotation_element(s);
            if element != 1 && !plan.galois.iter().any(|&(_, e)| e == element) {
                plan.galois.push((s, element));
            }
        }
        plan
    }

    /// The grouping class, or `None` for a request that needs no keys.
    pub(crate) fn class(&self) -> Option<KeyClass> {
        match (self.relin, !self.galois.is_empty()) {
            (true, true) => Some(KeyClass::RelinGalois),
            (true, false) => Some(KeyClass::Relin),
            (false, true) => Some(KeyClass::Galois),
            (false, false) => None,
        }
    }

    fn kinds(&self) -> impl Iterator<Item = KeyKind> + '_ {
        let galois = self.galois.iter().map(|&(_, e)| KeyKind::Galois(e));
        self.relin
            .then_some(KeyKind::Relin)
            .into_iter()
            .chain(galois)
    }
}

/// The expanded keys a group pinned in the shard's cache before running —
/// the only place a handler reads a key from. Empty for a keyless group.
#[derive(Default)]
pub(crate) struct PinnedKeys {
    sid: u64,
    keys: Vec<(KeyKind, Result<Arc<SwitchingKey>, ErrorCode>)>,
}

impl PinnedKeys {
    /// Pins the union of `plans`, all of session `sid`. A key that is
    /// missing or fails to expand is recorded with its error code and
    /// surfaces when a job asks for it; a dead session (closed, or
    /// chaos-reset while queued) pins nothing and its jobs fail in the
    /// handler's own session lookup. Each plan that names a key an earlier
    /// plan of the group already pinned counts one avoided expansion: a
    /// group of `k` sharing a key saves `k − 1` cache lookups.
    pub(crate) fn pin<'a>(
        state: &ServerState,
        sid: u64,
        plans: impl Iterator<Item = &'a KeyPlan>,
    ) -> Self {
        let mut keys: Vec<(KeyKind, Result<Arc<SwitchingKey>, ErrorCode>)> = Vec::new();
        if let Ok(session) = state.sessions.get(sid) {
            for kind in plans.flat_map(KeyPlan::kinds) {
                if keys.iter().any(|(k, _)| *k == kind) {
                    state
                        .metrics
                        .batch_expansions_avoided
                        .fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                let key = session.key_bytes(kind).and_then(|bytes| {
                    state
                        .cache
                        .get_or_expand_pinned(&state.ctx, sid, kind, &bytes)
                });
                if key.is_ok() {
                    state
                        .metrics
                        .batch_keys_pinned
                        .fetch_add(1, Ordering::Relaxed);
                }
                keys.push((kind, key));
            }
        }
        PinnedKeys { sid, keys }
    }

    /// Releases every pin; the cache re-evicts to its budget.
    pub(crate) fn unpin(self, state: &ServerState) {
        for (kind, key) in self.keys {
            if key.is_ok() {
                state.cache.unpin(self.sid, kind);
            }
        }
    }

    /// Whether `kind` is pinned and usable.
    pub(crate) fn has(&self, kind: KeyKind) -> bool {
        self.keys.iter().any(|(k, r)| *k == kind && r.is_ok())
    }

    fn get(&self, kind: KeyKind) -> Result<Arc<SwitchingKey>, ErrorCode> {
        let (_, key) = self
            .keys
            .iter()
            .find(|(k, _)| *k == kind)
            .ok_or(ErrorCode::MissingKey)?;
        key.clone()
    }

    /// The pinned relinearization key.
    pub(crate) fn relin(&self) -> Result<Arc<SwitchingKey>, (ErrorCode, String)> {
        self.get(KeyKind::Relin)
            .map_err(|c| (c, format!("relin key of session {}", self.sid)))
    }

    /// A Galois key set holding the `(step, element)` keys `wanted`,
    /// failing with the recorded code *before* any evaluator call can
    /// panic on an absent key.
    pub(crate) fn galois(&self, wanted: &[(i64, u64)]) -> Result<GaloisKeys, (ErrorCode, String)> {
        let mut gk = GaloisKeys::new();
        for &(s, element) in wanted {
            if gk.get_shared(element).is_some() {
                continue;
            }
            let key = self
                .get(KeyKind::Galois(element))
                .map_err(|c| (c, format!("rotation step {s} (element {element})")))?;
            gk.insert_shared(element, key);
        }
        Ok(gk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::BodyWriter;
    use ckks::CkksParams;

    fn ctx() -> Arc<CkksContext> {
        CkksContext::new(
            CkksParams::builder()
                .log_degree(5)
                .levels(3)
                .scale_bits(30)
                .first_modulus_bits(36)
                .dnum(2)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn plans_follow_the_wire_layout_and_class_follows_the_plan() {
        let ctx = ctx();
        let sessions = SessionManager::new();
        let of = |op, body: &[u8]| KeyPlan::of(&ctx, &sessions, op, body);

        let mut w = BodyWriter::new();
        w.u64(7).i64(-3).raw(b"ciphertext");
        let rotate = of(Opcode::Rotate, &w.0);
        assert_eq!(rotate.sid, 7);
        assert_eq!(rotate.galois, vec![(-3, ctx.rotation_element(-3))]);
        assert_eq!(rotate.class(), Some(KeyClass::Galois));
        assert_eq!(rotate_ct(&w.0), Some(&b"ciphertext"[..]));

        let mult = of(Opcode::Mult, &w.0);
        assert!(mult.relin && mult.galois.is_empty());
        assert_eq!(mult.class(), Some(KeyClass::Relin));

        // Keyless ops, rotate-by-zero, truncated bodies and programs
        // nobody uploaded plan nothing and are never held for grouping.
        let mut zero = BodyWriter::new();
        zero.u64(7).i64(0);
        let mut turn = BodyWriter::new();
        turn.u64(7).i64(-3 * ctx.params().slots() as i64);
        for (op, body) in [
            (Opcode::Add, &w.0[..]),
            (Opcode::Hello, &[][..]),
            (Opcode::Rotate, &zero.0[..]),
            (Opcode::Rotate, &turn.0[..]),
            (Opcode::Rotate, &w.0[..12]),
            (Opcode::Mult, &[1, 2, 3][..]),
            (Opcode::RunProgram, &w.0[..]),
        ] {
            assert_eq!(of(op, body).class(), None, "{op:?}");
        }
    }

    #[test]
    fn bsgs_plan_skips_diagonals_and_collects_baby_and_giant_steps() {
        let ctx = ctx();
        let slots = ctx.params().slots();
        let sessions = SessionManager::new();
        let body = |n1: u32, offsets: &[u32]| {
            let mut w = BodyWriter::new();
            w.u64(9).u32(n1).u32(offsets.len() as u32);
            for &offset in offsets {
                w.u32(offset);
                for _ in 0..slots * 2 {
                    w.f64(0.5);
                }
            }
            w.raw(b"ct");
            w.0
        };
        let planned = |n1: u32, offsets: &[u32]| -> Vec<i64> {
            let plan = KeyPlan::of(&ctx, &sessions, Opcode::Bsgs, &body(n1, offsets));
            plan.galois.iter().map(|&(s, _)| s).collect()
        };
        // Baby step 1 (offset 3), giants {2} (offsets 2 and 3 both map to 2).
        let full = body(2, &[0, 2, 3]);
        assert_eq!(planned(2, &[0, 2, 3]), [1, 2]);
        // The plan, the library and the program validator walk the same
        // schedule: only baby steps some diagonal lands on, so {0, 5} at
        // n1 = 4 needs steps 1 and 4 and no key for 2 or 3.
        assert_eq!(planned(4, &[0, 5]), [1, 4]);
        let sets: [&[u32]; 5] = [
            &[0, 5],
            &[0],
            &[3, 4, 9, 14],
            &[1, 2, 3],
            &[0, 1, 2, 3, 4, 5],
        ];
        for offsets in sets {
            for n1 in [1u32, 2, 4, 8] {
                let wide: Vec<usize> = offsets.iter().map(|&d| d as usize).collect();
                let diagonals = wide.iter().map(|&d| (d, vec![Default::default(); slots]));
                let lt =
                    ckks::hoisting::LinearTransform::from_diagonals(diagonals.collect(), slots);
                let library = ckks::hoisting::bsgs_required_steps(&lt, n1 as usize);
                let validator = fhe_program::program::bsgs_galois_steps(&wide, n1 as usize);
                assert_eq!(library, validator, "{offsets:?} at n1 = {n1}");
                let mut plan = planned(n1, offsets);
                plan.sort_unstable();
                assert_eq!(plan, validator, "{offsets:?} at n1 = {n1}");
            }
        }
        // Truncated diagonals or an out-of-range offset: no plan.
        let cut = &full[..full.len() - slots * 16];
        assert_eq!(
            KeyPlan::of(&ctx, &sessions, Opcode::Bsgs, cut).class(),
            None
        );
        let bad = body(2, &[slots as u32]);
        assert_eq!(
            KeyPlan::of(&ctx, &sessions, Opcode::Bsgs, &bad).class(),
            None
        );
        // Nor for offsets that repeat or descend, or a baby dimension the
        // validator refuses.
        for bad in [
            body(2, &[1, 1]),
            body(2, &[2, 1]),
            body(0, &[1]),
            body(slots as u32 + 1, &[1]),
        ] {
            assert_eq!(
                KeyPlan::of(&ctx, &sessions, Opcode::Bsgs, &bad).class(),
                None
            );
        }
    }
}
