//! The double-hoisted rotate-and-add ladder (`hoisting::rotate_fold`)
//! against the rung-by-rung ladder it replaced — kept here, and only here,
//! as the reference — and against the plaintext sum; its exact transform
//! count at the `lib_programs` ring's digit geometry; and its pool
//! behaviour once warm.
//!
//! This binary runs in its own process, so the process-global transform
//! counters see only this file's work; the tests themselves run serially
//! via a mutex.

use ckks::hoisting::{fold_stages, rotate_fold};
use ckks::{
    Ciphertext, CkksContext, CkksParams, Decryptor, Encoder, Encryptor, Evaluator, GaloisKeys,
    KeyGenerator, SecretKey,
};
use fhe_math::cfft::Complex;
use fhe_math::ntt::counters;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex, OnceLock};

fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .expect("serial lock")
}

/// `L = 8`, `dnum = 3` — the `lib_programs` ring's digit geometry
/// (`α = k = 3`; `β = 3` at `ℓ = 7`, `β = 1` at `ℓ = 3`) on a 32-slot ring.
const LEVELS: usize = 8;
const SLOTS: usize = 32;

struct Harness {
    ctx: Arc<CkksContext>,
    encoder: Encoder,
    evaluator: Evaluator,
    sk: SecretKey,
    /// A key for every rotation of the ring, the whole turn included.
    gk: GaloisKeys,
    rng: StdRng,
}

impl Harness {
    fn new() -> Self {
        let ctx = CkksContext::new(
            CkksParams::builder()
                .log_degree(6)
                .levels(LEVELS)
                .scale_bits(30)
                .first_modulus_bits(36)
                .special_modulus_bits(36)
                .dnum(3)
                .build()
                .unwrap(),
        );
        let mut rng = StdRng::seed_from_u64(0xf01d);
        let keygen = KeyGenerator::new(ctx.clone());
        let sk = keygen.secret_key(&mut rng);
        let steps: Vec<i64> = (1..=SLOTS as i64).collect();
        let gk = keygen.galois_keys(&mut rng, &sk, &steps, false);
        Self {
            encoder: Encoder::new(ctx.clone()),
            evaluator: Evaluator::new(ctx.clone()),
            ctx,
            sk,
            gk,
            rng,
        }
    }

    fn values(&self) -> Vec<Complex> {
        (0..SLOTS)
            .map(|i| Complex::new(0.04 * (i as f64 * 0.7).sin(), 0.002 * i as f64 - 0.03))
            .collect()
    }

    fn encrypt(&mut self, values: &[Complex], ell: usize) -> Ciphertext {
        let scale = self.ctx.params().scale();
        let pt = self.encoder.encode(values, ell, scale).unwrap();
        Encryptor::new(self.ctx.clone()).encrypt_symmetric(&mut self.rng, &pt, &self.sk)
    }

    fn decrypt(&self, ct: &Ciphertext) -> Vec<Complex> {
        let decryptor = Decryptor::new(self.ctx.clone());
        self.encoder.decode(&decryptor.decrypt(ct, &self.sk))
    }

    /// The ladder as it ran before the fold: every rung a lone `Rotate`
    /// with its own ModUp and ModDown pair, then an `Add`.
    fn rung_by_rung(&self, ct: &Ciphertext, rungs: &[i64]) -> Ciphertext {
        let mut acc = ct.clone();
        for &step in rungs {
            let rotated = self.evaluator.rotate(&acc, step, &self.gk);
            acc = self.evaluator.add(&acc, &rotated);
        }
        acc
    }
}

/// `acc ← acc + Σ_{s ∈ stage} rot(acc, s)` for each stage, in the clear.
fn plain_fold(values: &[Complex], stages: &[Vec<i64>]) -> Vec<Complex> {
    let n = values.len() as i64;
    let mut acc = values.to_vec();
    for stage in stages {
        let before = acc.clone();
        for &s in stage {
            for (j, slot) in acc.iter_mut().enumerate() {
                *slot = *slot + before[(j as i64 + s).rem_euclid(n) as usize];
            }
        }
    }
    acc
}

fn assert_close(got: &[Complex], want: &[Complex], tol: f64, what: &str) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let diff = (*g - *w).abs();
        assert!(diff < tol, "{what}: slot {i}: {g:?} vs {w:?} (diff {diff})");
    }
}

#[test]
fn fold_agrees_with_the_rung_by_rung_ladder_and_the_plaintext_sum_at_every_level() {
    let _guard = serial();
    let mut h = Harness::new();
    let values = h.values();
    // Ladders the pairing rule folds: two rungs (one stage of three steps),
    // three (an odd last rung: a stage of one), the full slot fold, and
    // steps that are negative, repeat, or cancel (`a + b ≡ 0`: the combined
    // step adds the running sum itself and needs no key).
    let ladders: [&[i64]; 6] = [
        &[1, 2],
        &[1, 2, 4],
        &[1, 2, 4, 8, 16],
        &[-1, -2, 5],
        &[3, 3],
        &[7, -7, 32],
    ];
    for ell in 1..=LEVELS {
        let ct = h.encrypt(&values, ell);
        for rungs in ladders {
            let stages = fold_stages(rungs);
            let want = plain_fold(&values, &stages);
            let folded = rotate_fold(&h.evaluator, &ct, &stages, &h.gk);
            assert_eq!(folded.limb_count(), ell);
            assert_eq!(folded.scale(), ct.scale());
            let got = h.decrypt(&folded);
            let what = format!("ℓ = {ell}, rungs {rungs:?}");
            assert_close(&got, &want, 1e-4, &what);
            let reference = h.decrypt(&h.rung_by_rung(&ct, rungs));
            assert_close(&got, &reference, 1e-4, &what);
        }
        // Stages of one, two and three steps that no ladder pairs into.
        let stages = vec![vec![5], vec![1, 9], vec![2, 3, 30]];
        let folded = rotate_fold(&h.evaluator, &ct, &stages, &h.gk);
        let want = plain_fold(&values, &stages);
        assert_close(&h.decrypt(&folded), &want, 1e-4, &format!("ℓ = {ell}"));
    }
    // No stage: the ciphertext itself.
    let ct = h.encrypt(&values, 2);
    let same = rotate_fold(&h.evaluator, &ct, &[], &h.gk);
    assert_eq!(same.c0().flat(), ct.c0().flat());
    assert_eq!(same.c1().flat(), ct.c1().flat());
}

#[test]
fn pairing_rule_takes_rungs_two_at_a_time_from_the_first() {
    assert_eq!(fold_stages(&[]), Vec::<Vec<i64>>::new());
    assert_eq!(fold_stages(&[4]), vec![vec![4]]);
    assert_eq!(fold_stages(&[1, 2]), vec![vec![1, 2, 3]]);
    assert_eq!(
        fold_stages(&[1, 2, 4, 8, 16]),
        vec![vec![1, 2, 3], vec![4, 8, 12], vec![16]]
    );
    // The 13 rungs of the 8192-slot fold: six combined steps, no more.
    let rungs: Vec<i64> = (0..13).map(|i| 1i64 << i).collect();
    let stages = fold_stages(&rungs);
    assert_eq!(stages.len(), 7);
    let combined: Vec<i64> = stages.iter().filter_map(|s| s.get(2).copied()).collect();
    assert_eq!(combined, vec![3, 12, 48, 192, 768, 3072]);
}

/// A 13-rung ladder of rotating steps on the 32-slot ring.
fn thirteen_rungs() -> Vec<i64> {
    (0..13).map(|i| 1i64 << (i % 5)).collect()
}

#[test]
fn thirteen_rungs_cost_seven_modups_and_eight_moddowns() {
    let _guard = serial();
    let mut h = Harness::new();
    let values = h.values();
    let stages = fold_stages(&thirteen_rungs());
    assert_eq!(stages.len(), 7);
    // (ℓ, forward, inverse): per stage a ModUp (each digit raised into the
    // limbs it lacks) and one ModDown (ℓ forward, k = 3 inverse), and one
    // more ModDown when the ladder ends — 7·(30 + 10) + 10 at ℓ = 7 and
    // 7·(6 + 6) + 6 at ℓ = 3, where thirteen lone `Rotate`s make 13·50 and
    // 13·18.
    for (ell, fwd, inv) in [
        (7, 7 * (23 + 7) + 7, 7 * (7 + 3) + 3),
        (3, 7 * 6 + 3, 7 * 6 + 3),
    ] {
        let ct = h.encrypt(&values, ell);
        counters::reset();
        let folded = rotate_fold(&h.evaluator, &ct, &stages, &h.gk);
        let counted = (counters::forward_count(), counters::inverse_count());
        assert_eq!(counted, (fwd, inv), "ℓ = {ell}");
        assert_close(
            &h.decrypt(&folded),
            &plain_fold(&values, &stages),
            1e-3,
            "13 rungs",
        );
        counters::reset();
        h.rung_by_rung(&ct, &thirteen_rungs());
        let ladder = counters::forward_count() + counters::inverse_count();
        assert_eq!(
            (fwd + inv, ladder),
            if ell == 7 { (290, 650) } else { (90, 234) }
        );
    }
}

#[test]
fn warm_fold_allocates_nothing_from_the_pool() {
    let _guard = serial();
    let mut h = Harness::new();
    let ell = 7;
    let ct = h.encrypt(&h.values(), ell);
    let pool = h.ctx.scratch();
    let beta = h.ctx.params().beta_at(ell) as u64;
    let rungs = thirteen_rungs();

    // Warm-up on the shortest ladder of two paired stages (the second runs
    // while the first's `c1` is still read): the pool then holds everything
    // a stage needs at once, and a longer ladder needs nothing more.
    rotate_fold(&h.evaluator, &ct, &fold_stages(&rungs[..4]), &h.gk).recycle(pool);
    let warm = pool.stats();
    for count in [2, 3, 6, 13] {
        let stages = fold_stages(&rungs[..count]);
        let before = pool.stats();
        rotate_fold(&h.evaluator, &ct, &stages, &h.gk).recycle(pool);
        // The raised `c0` and the two buffers of the last ModDown; per
        // stage the ModUp's digit and staging copy per digit and the two
        // buffers of its ModDown; per step the permuted `c0`, the permuted
        // digits, the inner product's two sums and the tile it draws the
        // key's `a_j` into a limb at a time.
        let per_stage = |steps: u64| 2 * beta + 2 + steps * (1 + beta + 2 + 1);
        let want: u64 = 3 + stages
            .iter()
            .map(|s| per_stage(s.len() as u64))
            .sum::<u64>();
        assert_eq!(pool.stats().leases - before.leases, want, "{count} rungs");
    }
    assert_eq!(
        pool.stats().misses,
        warm.misses,
        "a warm fold must not allocate new pool buffers, however long the ladder"
    );
}
