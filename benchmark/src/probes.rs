//! Per-layer probes: direct calls into each layer's public functions on the
//! workload's own ring and ciphertext level, each reported as the median of
//! [`CALLS`] calls at the reference host's speed (the calls of one probe are
//! one block between two passes of the host probe). They give a layer's cost
//! in isolation, so a change can be located before the end-to-end figures
//! are compared.

use crate::hostprobe::Meter;
use crate::metrics::Values;
use crate::workloads::{BSGS_N1, DIAGONALS};
use ckks::hoisting::{apply_bsgs, bsgs_required_steps, rotate_hoisted, LinearTransform};
use ckks::keyswitch::{complete, decompose_and_raise, inner_product, keyswitch};
use ckks::serialize::{
    deserialize_ciphertext, deserialize_switching_key, serialize_ciphertext,
    serialize_switching_key,
};
use ckks::{CkksContext, Encoder, Encryptor, Evaluator, KeyGenerator};
use fhe_math::cfft::Complex;
use fhe_program::program::{bsgs_baby_dim, Instr, Program, ProgramInfo};
use fhe_serve::protocol::{frame_bytes, peek_frame, take_frame, FrameStatus};
use fhe_serve::{EvictionPolicy, KeyCache, KeyKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simfhe::search::{search, SearchSpace};
use simfhe::{AlgoOpts, CachingLevel, CostModel, HardwareConfig, MadConfig, SchemeParams};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Timed calls per probe, after [`WARM_CALLS`] untimed ones.
pub const CALLS: usize = 30;
const WARM_CALLS: usize = 2;

/// Median latency of `f` in µs at the reference host's speed.
pub fn median_us<T>(meter: &mut Meter, mut f: impl FnMut() -> T) -> f64 {
    for _ in 0..WARM_CALLS {
        black_box(f());
    }
    meter.open();
    let samples: Vec<f64> = (0..CALLS)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    crate::stats::median(&samples) / meter.close()
}

/// Runs every `ckks` and `fhe_math` probe at `level` limbs on `ctx`, with keys generated for the purpose.
pub fn layers(ctx: &Arc<CkksContext>, level: usize, out: &mut Values, meter: &mut Meter) {
    let params = ctx.params();
    let (slots, n) = (params.slots(), params.degree());
    let pool = ctx.scratch();
    let mut rng = StdRng::seed_from_u64(0x70_72_6f_62_65);
    let kg = KeyGenerator::new(ctx.clone());
    let sk = kg.secret_key(&mut rng);
    let ev = Evaluator::new(ctx.clone());
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());

    let values: Vec<Complex> = (0..slots)
        .map(|_| Complex::new(rng.gen_range(-0.5..0.5), 0.0))
        .collect();
    let pt = encoder
        .encode(&values, level, params.scale())
        .expect("probe plaintext encodes");
    let a = encryptor.encrypt_symmetric(&mut rng, &pt, &sk);
    let b = encryptor.encrypt_symmetric(&mut rng, &pt, &sk);
    let lt = LinearTransform::from_diagonals(
        (0..DIAGONALS).map(|d| (d, values.clone())).collect(),
        slots,
    );
    let mut steps = bsgs_required_steps(&lt, BSGS_N1);
    steps.push(1);
    let seeded = kg.galois_key_compressed(&mut rng, &sk, ctx.rotation_element(1));
    let relin = kg.relin_key(&mut rng, &sk);
    let galois = kg.galois_keys(&mut rng, &sk, &steps, false);
    let ksk = galois
        .get(ctx.rotation_element(1))
        .expect("step-1 key generated");

    // fhe_math: one limb NTT each way, one digit → complement extension.
    let table = ctx.q_basis().ntt_table(0);
    let mut limb = a.c0().limb(0).to_vec();
    out.set(
        "fhe_math.ntt.forward_us",
        median_us(meter, || table.forward(&mut limb)),
    );
    out.set(
        "fhe_math.ntt.inverse_us",
        median_us(meter, || table.inverse(&mut limb)),
    );
    let ext = ctx.digit_extender(level, 0);
    let digit = ctx.digit_range(level, 0);
    let src: Vec<u64> = digit
        .flat_map(|i| {
            let q = ctx.q_basis().modulus(i).value();
            (0..n).map(|_| rng.gen_range(0..q)).collect::<Vec<_>>()
        })
        .collect();
    let mut dst = vec![0u64; ext.target_len() * n];
    out.set(
        "fhe_math.rns.basis_ext_us",
        median_us(meter, || ext.extend_flat(&src, &mut dst, n)),
    );

    // ckks: evaluator ops. Results go back to the scratch pool, as the
    // steady state of a server or executor has them.
    out.set(
        "ckks.ops.add_us",
        median_us(meter, || ev.add(&a, &b).recycle(pool)),
    );
    if level >= 2 {
        out.set(
            "ckks.ops.mul_plain_us",
            median_us(meter, || ev.mul_plain(&a, &pt).recycle(pool)),
        );
        out.set(
            "ckks.ops.rescale_us",
            median_us(meter, || ev.rescale(&a).recycle(pool)),
        );
        out.set(
            "ckks.ops.mul_us",
            median_us(meter, || {
                ev.mul_with_key(&a, &b, relin.switching_key()).recycle(pool)
            }),
        );
        out.set(
            "ckks.hoisting.bsgs_us",
            median_us(meter, || {
                apply_bsgs(&ev, &encoder, &a, &lt, &galois, BSGS_N1).recycle(pool)
            }),
        );
    }
    out.set(
        "ckks.ops.rotate_us",
        median_us(meter, || ev.rotate(&a, 1, &galois).recycle(pool)),
    );
    out.set(
        "ckks.hoisting.rotate_hoisted_us",
        median_us(meter, || {
            for ct in rotate_hoisted(&ev, &a, &[1], &galois) {
                ct.recycle(pool);
            }
        }),
    );
    out.set(
        "ckks.encoding.encode_us",
        median_us(meter, || encoder.encode(&values, level, params.scale())),
    );

    // ckks: the key switch and its three phases.
    out.set(
        "ckks.keyswitch.modup_us",
        median_us(meter, || {
            for d in decompose_and_raise(ctx, a.c1()) {
                d.recycle(pool);
            }
        }),
    );
    let digits = decompose_and_raise(ctx, a.c1());
    out.set(
        "ckks.keyswitch.inner_product_us",
        median_us(meter, || inner_product(ctx, &digits, ksk).recycle(pool)),
    );
    let raised = inner_product(ctx, &digits, ksk);
    out.set(
        "ckks.keyswitch.moddown_us",
        median_us(meter, || {
            let (v, u) = complete(ctx, &raised);
            v.recycle(pool);
            u.recycle(pool);
        }),
    );
    out.set(
        "ckks.keyswitch.total_us",
        median_us(meter, || {
            let (v, u) = keyswitch(ctx, a.c1(), ksk);
            v.recycle(pool);
            u.recycle(pool);
        }),
    );

    // ckks: wire forms.
    let ct_wire = serialize_ciphertext(&a);
    out.set("ckks.serialize.ct_bytes", ct_wire.len() as f64);
    out.set(
        "ckks.serialize.ct_encode_us",
        median_us(meter, || serialize_ciphertext(&a)),
    );
    out.set(
        "ckks.serialize.ct_decode_us",
        median_us(meter, || {
            deserialize_ciphertext(ctx, &ct_wire).expect("round trip")
        }),
    );
    let key_wire = serialize_switching_key(&seeded);
    out.set("ckks.serialize.key_compressed_bytes", key_wire.len() as f64);
    out.set("ckks.keys.expanded_bytes", seeded.size_bytes() as f64);
    out.set(
        "ckks.serialize.key_expand_us",
        median_us(meter, || {
            deserialize_switching_key(ctx, &key_wire).expect("round trip")
        }),
    );
}

/// `fhe_serve` called directly, for the serving workloads: framing of a
/// ciphertext-sized body, and the key cache on a resident and on an absent
/// key (a one-key budget, so every miss also evicts, as it does under
/// `serve_thrash`).
pub fn serve_direct(ctx: &Arc<CkksContext>, level: usize, out: &mut Values, meter: &mut Meter) {
    let mut rng = StdRng::seed_from_u64(0x73_65_72_76_65);
    let kg = KeyGenerator::new(ctx.clone());
    let sk = kg.secret_key(&mut rng);
    let pt = Encoder::new(ctx.clone())
        .encode(&[Complex::new(0.25, 0.0)], level, ctx.params().scale())
        .expect("probe plaintext encodes");
    let ct = Encryptor::new(ctx.clone()).encrypt_symmetric(&mut rng, &pt, &sk);
    let ct_wire = serialize_ciphertext(&ct);
    out.set(
        "fhe_serve.protocol.frame_roundtrip_us",
        median_us(meter, || {
            let mut buf = frame_bytes(0x10, &ct_wire);
            assert!(matches!(
                peek_frame(&buf, u32::MAX),
                FrameStatus::Ready { .. }
            ));
            take_frame(&mut buf)
        }),
    );
    let seeded = kg.galois_key_compressed(&mut rng, &sk, ctx.rotation_element(1));
    let key_wire = serialize_switching_key(&seeded);
    let cache = KeyCache::new(seeded.size_bytes(), EvictionPolicy::Lru);
    let kind = KeyKind::Galois(ctx.rotation_element(1));
    let mut session = 0u64;
    out.set(
        "fhe_serve.cache.miss_us",
        median_us(meter, || {
            session += 1;
            cache
                .get_or_expand(ctx, session, kind, &key_wire)
                .expect("expands")
        }),
    );
    out.set(
        "fhe_serve.cache.hit_us",
        median_us(meter, || {
            cache
                .get_or_expand(ctx, session, kind, &key_wire)
                .expect("resident")
        }),
    );
}

/// The analytical model of the workload's ring, as the `validate` binary
/// configures it for the functional library (standard key switch with
/// ModUp hoisting).
fn cost_model(ctx: &CkksContext) -> CostModel {
    let p = ctx.params();
    CostModel::new(
        SchemeParams {
            log_n: p.log_degree(),
            log_q: p.scale_bits(),
            limbs: p.levels(),
            dnum: p.dnum(),
            fft_iter: 1,
        },
        MadConfig {
            caching: CachingLevel::OneLimb,
            algo: AlgoOpts {
                modup_hoist: true,
                ..AlgoOpts::none()
            },
        },
    )
}

/// Validates and prices `programs` on the model; returns the modelled limb
/// NTTs of one pass over all of them.
pub fn simulator(
    ctx: &CkksContext,
    programs: &[(&Program, &ProgramInfo)],
    out: &mut Values,
    meter: &mut Meter,
) -> u64 {
    let model = cost_model(ctx);
    let env = fhe_program::program::ProgramEnv {
        levels: ctx.params().levels(),
        slots: ctx.params().slots(),
    };
    out.set(
        "simfhe.validate_us",
        median_us(meter, || {
            for (prog, _) in programs {
                black_box(prog.validate(&env).expect("validates"));
            }
        }),
    );
    out.set(
        "simfhe.program_cost_us",
        median_us(meter, || {
            for (prog, info) in programs {
                black_box(model.program_cost(prog, info));
            }
        }),
    );
    let (mut ops, mut dram, mut ntts) = (0u64, 0u64, 0u64);
    for (prog, info) in programs {
        let pc = model.program_cost(prog, info);
        ops += pc.cost.ops();
        dram += pc.cost.dram_total();
        ntts += pc.ntt_fwd + pc.ntt_inv;
    }
    out.set("simfhe.model_ops", ops as f64);
    // Computed from the model's traffic formulas, not measured.
    out.set("simfhe.model_dram_bytes", dram as f64);
    ntts
}

/// Host speed of the parameter search over a small fixed space.
pub fn search_speed(out: &mut Values, meter: &mut Meter) {
    let space = SearchSpace {
        log_q: vec![50, 54],
        limbs: vec![30, 35, 40],
        dnum: vec![2, 3],
        fft_iter: vec![3, 6],
        ..SearchSpace::default()
    };
    let hw = HardwareConfig::gpu().with_cache_mb(32.0);
    let candidates = search(&space, &hw).len();
    let us = median_us(meter, || search(&space, &hw));
    out.set(
        "simfhe.search_candidates_per_s",
        candidates as f64 / (us / 1e6),
    );
}

/// What `program` would cost in µs if every instruction ran as its own
/// top-level primitive at the probed speed — no hoisting across
/// instructions, BSGS as separate rotations and plaintext products. Probe
/// times scale linearly with the instruction's limb count.
pub fn primitive_estimate_us(
    program: &Program,
    info: &ProgramInfo,
    top_level: usize,
    probes: &Values,
) -> f64 {
    let probe = |name: &str| probes.get(name).unwrap_or(0.0);
    program
        .instrs
        .iter()
        .zip(&info.instrs)
        .map(|(instr, meta)| {
            let at_top = match instr {
                Instr::Add { .. }
                | Instr::Sub { .. }
                | Instr::MulConst { .. }
                | Instr::AddConst { .. } => probe("ckks.ops.add_us"),
                Instr::PtMult { .. } => {
                    probe("ckks.ops.mul_plain_us") + probe("ckks.encoding.encode_us")
                }
                Instr::Mult { .. } => probe("ckks.ops.mul_us"),
                Instr::Rotate { .. } => probe("ckks.ops.rotate_us"),
                Instr::Rescale { .. } => probe("ckks.ops.rescale_us"),
                Instr::BsgsMatVec { mat, .. } => {
                    let diagonals = program
                        .matrices
                        .iter()
                        .find(|m| &m.name == mat)
                        .map_or(0, |m| m.offsets.len());
                    let n1 = bsgs_baby_dim(diagonals);
                    let rotations = (n1 - 1) + diagonals.div_ceil(n1).saturating_sub(1);
                    rotations as f64 * probe("ckks.ops.rotate_us")
                        + diagonals as f64
                            * (probe("ckks.ops.mul_plain_us") + probe("ckks.encoding.encode_us"))
                }
                Instr::Bootstrap { .. } => 0.0,
            };
            at_top * meta.ell as f64 / top_level as f64
        })
        .sum()
}
