//! The accounting contract of the ten element-wise `RnsPoly` ops: a traced
//! call records each input's prefix read in argument order (an in-place
//! op's own operand first), then its output's write, and counts its
//! modular ops per element written. The values are checked against
//! `Modulus` arithmetic slot by slot.
//!
//! The counters and the trace buffer are process-global, so every case
//! runs in one `#[test]` in this binary of its own.

use fhe_math::modular::Modulus;
use fhe_math::poly::{Representation, RnsPoly};
use fhe_math::prime::generate_ntt_primes;
use fhe_math::rns::RnsBasis;
use fhe_math::telemetry::{self, OperandClass, TraceRecord};
use std::sync::Arc;

const N: usize = 16;
/// Bytes of one limb.
const LIMB: u64 = 8 * N as u64;
/// Limbs of the short basis every output lives on.
const L: u64 = 3;
/// Elements one pass over the short basis writes.
const W: u64 = L * N as u64;

/// One traced touch: `(operand id, write, limbs from limb 0)`.
type Touch = (u64, bool, u64);

/// An evaluation-form polynomial over `basis` with residues drawn from
/// `seed`.
fn poly(basis: &Arc<RnsBasis>, seed: u64) -> RnsPoly {
    let data = (0..basis.len() * N)
        .map(|k| {
            let x = (seed ^ (k as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
                .wrapping_mul(0x9e37_79b9_7f4a_7c15);
            x % basis.modulus(k / N).value()
        })
        .collect();
    RnsPoly::from_flat(basis.clone(), data, Representation::Evaluation)
}

/// `p`'s trace id, read off the record one reclassification leaves.
fn id_of(p: &mut RnsPoly) -> u64 {
    telemetry::trace_start();
    p.set_operand_class(OperandClass::Scratch);
    match telemetry::trace_stop()[..] {
        [TraceRecord::Retag { id, .. }] => id,
        ref other => panic!("one retag expected, got {other:?}"),
    }
}

/// Runs `op` on zeroed counters under a trace of its own and returns its
/// touches and its `(mults, adds)`.
fn account(op: impl FnOnce()) -> (Vec<Touch>, (u64, u64)) {
    telemetry::reset();
    telemetry::trace_start();
    op();
    let records = telemetry::trace_stop();
    let snap = telemetry::snapshot();
    assert_eq!((snap.ntt_fwd, snap.ntt_inv, snap.ext_terms), (0, 0, 0));
    let touches = records
        .iter()
        .map(|r| match *r {
            TraceRecord::Touch {
                tag,
                write,
                offset,
                bytes,
            } => {
                assert_eq!((offset, bytes % LIMB), (0, 0), "whole limbs from 0");
                (tag.id, write, bytes / LIMB)
            }
            TraceRecord::Retag { .. } => panic!("a pass retags nothing"),
        })
        .collect();
    (touches, (snap.mults, snap.adds))
}

/// Checks every residue of `got` against `want(q_i, limb, slot)`.
fn check(got: &RnsPoly, want: impl Fn(&Modulus, usize, usize) -> u64) {
    assert_eq!(got.limb_count() as u64, L);
    assert_eq!(got.representation(), Representation::Evaluation);
    for i in 0..got.limb_count() {
        let m = got.basis().modulus(i);
        for k in 0..N {
            assert_eq!(got.limb(i)[k], want(m, i, k), "limb {i} slot {k}");
        }
    }
}

#[test]
fn each_elementwise_op_reads_its_inputs_then_writes_its_output() {
    let long = Arc::new(RnsBasis::new(&generate_ntt_primes(5, 30, N), N).unwrap());
    let short = Arc::new(long.prefix(L as usize));
    let (mut a, mut b, mut y) = (poly(&long, 1), poly(&long, 2), poly(&short, 3));
    let (a_id, b_id, y_id) = (id_of(&mut a), id_of(&mut b), id_of(&mut y));

    // In place over the short basis: the operand's own read comes first.
    type Want<'a> = &'a dyn Fn(&Modulus, usize, usize, u64) -> u64;
    let in_place = |op: &dyn Fn(&mut RnsPoly), reads: &[u64], ops: (u64, u64), want: Want| {
        let mut x = poly(&short, 4);
        let before = x.clone();
        let x_id = id_of(&mut x);
        let (touches, counted) = account(|| op(&mut x));
        let mut expect = vec![(x_id, false, L)];
        expect.extend(reads.iter().map(|&id| (id, false, L)));
        expect.push((x_id, true, L));
        assert_eq!(touches, expect);
        assert_eq!(counted, ops);
        check(&x, |m, i, k| want(m, i, k, before.limb(i)[k]));
    };
    let at = |p: &RnsPoly, i: usize, k: usize| p.limb(i)[k];
    in_place(&|x| x.add_assign(&y), &[y_id], (0, W), &|m, i, k, x| {
        m.add(x, at(&y, i, k))
    });
    in_place(&|x| x.sub_assign(&y), &[y_id], (0, W), &|m, i, k, x| {
        m.sub(x, at(&y, i, k))
    });
    in_place(&|x| x.negate(), &[], (0, W), &|m, _, _, x| m.neg(x));
    in_place(
        &|x| x.mul_assign_pointwise(&y),
        &[y_id],
        (W, 0),
        &|m, i, k, x| m.mul(x, at(&y, i, k)),
    );
    // Inputs over the longer basis are read through their prefix.
    in_place(
        &|x| x.mul_add_assign_pointwise(&a, &b),
        &[a_id, b_id],
        (W, W),
        &|m, i, k, x| m.add(x, m.mul(at(&a, i, k), at(&b, i, k))),
    );
    let s = u64::MAX - 12_345;
    in_place(&|x| x.mul_scalar_assign(s), &[], (W, 0), &|m, _, _, x| {
        m.mul(x, m.reduce(s))
    });
    let per_limb = [7, u64::MAX, 1 << 40];
    in_place(
        &|x| x.mul_scalar_per_limb_assign(&per_limb),
        &[],
        (W, 0),
        &|m, i, _, x| m.mul(x, m.reduce(per_limb[i])),
    );

    // Into a short output: the inputs' reads in argument order, then the
    // write. The output starts in coefficient form; the op sets it.
    type Into<'a> = &'a dyn Fn(&Modulus, usize, usize) -> u64;
    let into = |op: &dyn Fn(&mut RnsPoly), reads: &[u64], ops: (u64, u64), want: Into| {
        let mut out = RnsPoly::zero(short.clone(), Representation::Coefficient);
        let out_id = id_of(&mut out);
        let (touches, counted) = account(|| op(&mut out));
        let mut expect: Vec<_> = reads.iter().map(|&id| (id, false, L)).collect();
        expect.push((out_id, true, L));
        assert_eq!(touches, expect);
        assert_eq!(counted, ops);
        check(&out, want);
    };
    into(
        &|out| a.add_into(&b, out),
        &[a_id, b_id],
        (0, W),
        &|m, i, k| m.add(at(&a, i, k), at(&b, i, k)),
    );
    // Operands at two levels: the deeper one is read through its prefix.
    into(
        &|out| a.sub_into(&y, out),
        &[a_id, y_id],
        (0, W),
        &|m, i, k| m.sub(at(&a, i, k), at(&y, i, k)),
    );
    into(
        &|out| y.mul_pointwise_into(&a, out),
        &[y_id, a_id],
        (W, 0),
        &|m, i, k| m.mul(at(&y, i, k), at(&a, i, k)),
    );
}
