//! The key plan: which switching keys a request needs, at what level, and
//! the one place a handler reads them from.
//!
//! 1. A request's keys are planned from the request as decoded —
//!    [`KeyPlan::for_request`] from an evaluation op's fields,
//!    [`KeyPlan::for_program`] from a stored program's key manifest, which
//!    the validator levels: relin yes/no plus the Galois elements, each
//!    with the limb count its key switches run at. This is the only code
//!    in the crate that turns a rotation step into a Galois element.
//! 2. It pins the plan ([`PinnedKeys::pin`]), which expands a missing key
//!    at that limb count only, runs the request, and unpins. Handlers read
//!    keys from the pinned set and nowhere else.

use crate::cache::KeyKind;
use crate::protocol::{ErrorCode, Request};
use crate::server::ServerState;
use crate::session::Session;
use ckks::serialize::ciphertext_limb_count;
use ckks::{CkksContext, GaloisKeys, SwitchingKey};
use fhe_program::program::{bsgs_galois_steps, ProgramInfo};
use std::sync::Arc;

/// The keys one request needs, each with the largest limb count a key
/// switch of the request runs at — what a missing key is expanded at.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct KeyPlan {
    /// The relin key's limb count, if the request multiplies.
    pub(crate) relin: Option<usize>,
    /// `(rotation step, Galois element, limb count)`, steps that rotate
    /// only, one entry per distinct element.
    pub(crate) galois: Vec<(i64, u64, usize)>,
}

impl KeyPlan {
    fn new(
        ctx: &CkksContext,
        relin: Option<usize>,
        steps: impl IntoIterator<Item = (i64, usize)>,
    ) -> Self {
        let mut plan = KeyPlan {
            relin,
            galois: Vec::new(),
        };
        for (s, ell) in steps {
            // A multiple of the slot count (0 among them) is a copy.
            let element = ctx.rotation_element(s);
            if element == 1 {
                continue;
            }
            match plan.galois.iter_mut().find(|(_, e, _)| *e == element) {
                Some((_, _, at)) => *at = (*at).max(ell),
                None => plan.galois.push((s, element, ell)),
            }
        }
        plan
    }

    /// The keys a decoded evaluation request names — the relin key for a
    /// `Mult`, a `Rotate`'s step, a `Bsgs`'s baby and giant steps by the
    /// validator's own walk — at the limb count its ciphertext operand's
    /// header names (the larger of a `Mult`'s two; `L` for a header that
    /// does not parse, which fails the request when it is decoded). A
    /// `RunProgram` names none itself; its stored program does
    /// ([`KeyPlan::for_program`]).
    pub(crate) fn for_request(ctx: &CkksContext, req: &Request<'_>) -> Self {
        let level = |ct: &[u8]| ciphertext_limb_count(ctx, ct).unwrap_or(ctx.params().levels());
        match req {
            Request::Mult(a, b) => KeyPlan::new(ctx, Some(level(a).max(level(b))), []),
            Request::Rotate(steps, ct) => KeyPlan::new(ctx, None, [(*steps, level(ct))]),
            Request::Bsgs(n1, diagonals, ct) => {
                let offsets: Vec<usize> = diagonals.iter().map(|&(d, _)| d).collect();
                let ell = level(ct);
                let steps = bsgs_galois_steps(&offsets, *n1).into_iter();
                KeyPlan::new(ctx, None, steps.map(|s| (s, ell)))
            }
            _ => KeyPlan::default(),
        }
    }

    /// The exact keys a stored program's manifest names, each at the level
    /// the validator recorded for it (`KeyManifest::{relin_level,
    /// galois_levels}`): the largest working limb count among the
    /// instructions that read it. `info` is the program's validation.
    pub(crate) fn for_program(ctx: &CkksContext, info: &ProgramInfo) -> Self {
        let manifest = &info.manifest;
        let levels = manifest.galois_levels.iter().copied();
        KeyPlan::new(
            ctx,
            manifest.relin.then_some(manifest.relin_level),
            manifest.galois_steps.iter().copied().zip(levels),
        )
    }

    /// Whether the request needs no key at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.relin.is_none() && self.galois.is_empty()
    }
}

/// The expanded keys a request pinned in the shard's cache before running
/// — the only place a handler reads a key from. Empty for a keyless
/// request. A key that is missing or failed to expand keeps its error
/// code, which surfaces when the handler asks for it.
#[derive(Default)]
pub(crate) struct PinnedKeys {
    sid: u64,
    relin: Option<Result<Arc<SwitchingKey>, ErrorCode>>,
    /// `(rotation step, Galois element, key)` per planned Galois key.
    galois: Vec<(i64, u64, Result<Arc<SwitchingKey>, ErrorCode>)>,
}

impl PinnedKeys {
    /// Pins every key of `plan` for session `sid`, which was looked up
    /// when the request was decoded, each expanded at least at its
    /// planned limb count.
    pub(crate) fn pin(state: &ServerState, sid: u64, session: &Session, plan: KeyPlan) -> Self {
        let pin = |kind, ell| {
            let bytes = session.key_bytes(kind)?;
            state
                .cache
                .get_or_expand_pinned(&state.ctx, sid, kind, &bytes, ell)
        };
        let galois = plan.galois.iter();
        PinnedKeys {
            sid,
            relin: plan.relin.map(|ell| pin(KeyKind::Relin, ell)),
            galois: galois
                .map(|&(s, e, ell)| (s, e, pin(KeyKind::Galois(e), ell)))
                .collect(),
        }
    }

    /// Releases every pin; the cache re-evicts to its budget.
    pub(crate) fn unpin(self, state: &ServerState) {
        let relin = self.relin.map(|key| (KeyKind::Relin, key));
        let galois = self
            .galois
            .into_iter()
            .map(|(_, e, key)| (KeyKind::Galois(e), key));
        for (kind, key) in relin.into_iter().chain(galois) {
            if key.is_ok() {
                state.cache.unpin(self.sid, kind);
            }
        }
    }

    /// The pinned relinearization key.
    pub(crate) fn relin(&self) -> Result<Arc<SwitchingKey>, (ErrorCode, String)> {
        let key = self.relin.clone().unwrap_or(Err(ErrorCode::MissingKey));
        key.map_err(|c| (c, format!("relin key of session {}", self.sid)))
    }

    /// A Galois key set holding every planned Galois key, failing with the
    /// recorded code *before* any evaluator call can panic on an absent
    /// key.
    pub(crate) fn galois(&self) -> Result<GaloisKeys, (ErrorCode, String)> {
        let mut gk = GaloisKeys::new();
        for (s, element, key) in &self.galois {
            let failed = |c| (c, format!("rotation step {s} (element {element})"));
            gk.insert_shared(*element, key.clone().map_err(failed)?);
        }
        Ok(gk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{split_session, BodyWriter, Opcode};
    use ckks::CkksParams;
    use fhe_program::program::{CtDecl, Instr, Program, ProgramEnv};

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

    /// What is planned for one frame body: `None` when the body
    /// does not decode (it is answered `Malformed` before any pin).
    fn plan_of(ctx: &CkksContext, op: Opcode, body: &[u8]) -> Option<KeyPlan> {
        let (_sid, fields) = split_session(body)?;
        let req = Request::decode(op, fields, ctx.params().slots())?;
        Some(KeyPlan::for_request(ctx, &req))
    }

    #[test]
    fn plans_follow_the_decoded_request() {
        let ctx = ctx();
        let of = |op, body: &[u8]| plan_of(&ctx, op, body);

        // An operand whose header does not parse plans the whole key.
        let mut w = BodyWriter::new();
        w.u64(7).i64(-3).raw(b"ciphertext");
        assert_eq!(split_session(&w.0).map(|(sid, _)| sid), Some(7));
        let rotate = of(Opcode::Rotate, &w.0).unwrap();
        assert_eq!(rotate.galois, vec![(-3, ctx.rotation_element(-3), 3)]);
        assert!(!rotate.is_empty());

        let mut two = BodyWriter::new();
        two.u64(7).blob(b"a").blob(b"b");
        let mult = of(Opcode::Mult, &two.0).unwrap();
        assert!(mult.relin == Some(3) && mult.galois.is_empty());

        // Otherwise the key is planned at the limb count the header names:
        // the operand's, the larger of a `Mult`'s two.
        let header = |limbs: u32| {
            let mut h = b"MADf\x04".to_vec();
            h.extend_from_slice(&32u32.to_le_bytes());
            h.extend_from_slice(&limbs.to_le_bytes());
            h
        };
        let mut low = BodyWriter::new();
        low.u64(7).i64(-3).raw(&header(1));
        assert_eq!(of(Opcode::Rotate, &low.0).unwrap().galois[0].2, 1);
        let mut mixed = BodyWriter::new();
        mixed.u64(7).blob(&header(2)).blob(&header(1));
        assert_eq!(of(Opcode::Mult, &mixed.0).unwrap().relin, Some(2));

        // Keyless ops, rotate-by-zero and by a whole turn plan nothing; a
        // run program's request names no key itself (its manifest does);
        // truncated bodies and session-less ops never reach a plan.
        let mut zero = BodyWriter::new();
        zero.u64(7).i64(0);
        let mut turn = BodyWriter::new();
        turn.u64(7).i64(-3 * ctx.params().slots() as i64);
        let mut run = BodyWriter::new();
        run.u64(7).u64(1);
        for (op, body) in [
            (Opcode::Add, &two.0[..]),
            (Opcode::Rotate, &zero.0[..]),
            (Opcode::Rotate, &turn.0[..]),
            (Opcode::RunProgram, &run.0[..]),
        ] {
            assert!(of(op, body).unwrap().is_empty(), "{op:?}");
        }
        for (op, body) in [
            (Opcode::Hello, &[][..]),
            (Opcode::Rotate, &w.0[..12]),
            (Opcode::Mult, &[1, 2, 3][..]),
            (Opcode::Mult, &w.0[..]),
        ] {
            assert_eq!(of(op, body), None, "{op:?}");
        }
    }

    #[test]
    fn a_program_plans_each_key_at_the_highest_level_that_reads_it() {
        let ctx = ctx(); // L = 3
        let slots = ctx.params().slots() as i64;
        let rot = |dst: &str, a: &str, steps| Instr::Rotate {
            dst: dst.into(),
            a: a.into(),
            steps,
        };
        let add = |dst: &str, a: &str, b: &str| Instr::Add {
            dst: dst.into(),
            a: a.into(),
            b: b.into(),
        };
        let program = Program {
            name: "levels".into(),
            ct_inputs: vec![CtDecl {
                name: "x".into(),
                level: 3,
            }],
            instrs: vec![
                Instr::Mult {
                    dst: "m".into(),
                    a: "x".into(),
                    b: "x".into(),
                },
                rot("a", "x", 1),
                rot("b", "m", 1),
                rot("c", "m", 2),
                rot("d", "m", slots),
                // A ladder on `m` (level 2): rungs 4 and 8 fold into the
                // one stage {4, 8, 12}, 12 a combined step.
                rot("t", "m", 4),
                add("m", "m", "t"),
                rot("t", "m", 8),
                add("m", "m", "t"),
            ],
            outputs: ["m", "a", "b", "c", "d"].map(String::from).to_vec(),
            ..Program::default()
        };
        let env = ProgramEnv {
            levels: 3,
            slots: slots as usize,
        };
        let info = program.validate(&env).expect("a valid program");
        assert_eq!(info.ladders.len(), 1, "the ladder folds");
        let plan = KeyPlan::for_program(&ctx, &info);
        assert_eq!(plan.relin, Some(3));
        let mut steps: Vec<(i64, usize)> = plan.galois.iter().map(|&(s, _, l)| (s, l)).collect();
        steps.sort_unstable();
        // Step 1 is read at level 3 (of `x`) and at 2: it plans 3.
        assert_eq!(steps, [(1, 3), (2, 2), (4, 2), (8, 2), (12, 2)]);
        let manifest: Vec<i64> = info.manifest.galois_steps.clone();
        assert_eq!(manifest, [1, 2, 4, 8, 12]);
    }

    #[test]
    fn bsgs_plan_collects_baby_and_giant_steps() {
        let ctx = ctx();
        let slots = ctx.params().slots();
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
        let plan = |body: &[u8]| plan_of(&ctx, Opcode::Bsgs, body);
        let planned = |n1: u32, offsets: &[u32]| -> Vec<i64> {
            let plan = plan(&body(n1, offsets)).expect("a valid body");
            plan.galois.iter().map(|&(s, _, _)| s).collect()
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
        // Truncated diagonals or an out-of-range offset do not decode, nor
        // do offsets that repeat or descend, or a baby dimension the
        // validator refuses.
        let cut = &full[..full.len() - slots * 16];
        for bad in [
            cut.to_vec(),
            body(2, &[slots as u32]),
            body(2, &[1, 1]),
            body(2, &[2, 1]),
            body(0, &[1]),
            body(slots as u32 + 1, &[1]),
        ] {
            assert_eq!(plan(&bad), None);
        }
    }
}
