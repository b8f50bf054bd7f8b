//! Serial-vs-parallel bit-identity of the limb-parallel kernels.
//!
//! The parallel helpers partition work identically to the serial loop, so
//! forcing either path must produce byte-for-byte equal buffers. These
//! tests run each kernel twice inside one binary via
//! [`fhe_math::parallel::set_forced`] — the same mechanism the
//! serial-vs-parallel benches use. The force flag is process-global, so a
//! mutex serializes the tests.

use fhe_math::parallel::set_forced;
use fhe_math::poly::{mod_down, mod_up, pmod_up, ModDownContext, Representation, RnsPoly};
use fhe_math::prime::{generate_ntt_primes, generate_ntt_primes_excluding};
use fhe_math::rns::{BasisExtender, RnsBasis};
use std::sync::{Arc, Mutex, OnceLock};

fn force_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Runs `f` with the parallel path forced off, then forced on, and returns
/// both results for comparison.
fn both_modes<T>(f: impl Fn() -> T) -> (T, T) {
    let _guard = force_lock().lock().unwrap();
    set_forced(Some(false));
    let serial = f();
    set_forced(Some(true));
    let parallel = f();
    set_forced(None);
    (serial, parallel)
}

fn random_flat(seed: u64, moduli: &[u64], n: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(moduli.len() * n);
    for (i, &q) in moduli.iter().enumerate() {
        for k in 0..n as u64 {
            let x = seed
                .wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add((i as u64) << 32)
                .wrapping_add(k)
                .wrapping_mul(0xd1342543de82ef95);
            out.push(x % q);
        }
    }
    out
}

#[test]
fn full_poly_ntt_is_bit_identical() {
    let n = 256usize;
    let primes = generate_ntt_primes(6, 30, n);
    let basis = Arc::new(RnsBasis::new(&primes, n).unwrap());
    let flat = random_flat(7, &primes, n);
    let (serial, parallel) = both_modes(|| {
        let mut p = RnsPoly::from_flat(basis.clone(), flat.clone(), Representation::Coefficient);
        p.to_eval();
        let eval = p.flat().to_vec();
        p.to_coeff();
        (eval, p.into_flat())
    });
    assert_eq!(serial, parallel);
}

#[test]
fn mod_up_and_mod_down_are_bit_identical() {
    let n = 128usize;
    let q_primes = generate_ntt_primes(4, 28, n);
    let p_primes = generate_ntt_primes_excluding(2, 29, n, &q_primes);
    let q = Arc::new(RnsBasis::new(&q_primes, n).unwrap());
    let p = RnsBasis::new(&p_primes, n).unwrap();
    let ext = BasisExtender::new(&q, &p);
    let ctx = ModDownContext::new(q.clone(), &p);
    let flat = random_flat(11, &q_primes, n);
    let (serial, parallel) = both_modes(|| {
        let x = RnsPoly::from_flat(q.clone(), flat.clone(), Representation::Evaluation);
        let raised = mod_up(&x, &p, &ext);
        let lowered = mod_down(&raised, &ctx);
        (raised.into_flat(), lowered.into_flat())
    });
    assert_eq!(serial, parallel);
}

#[test]
fn pmod_up_is_bit_identical() {
    let n = 128usize;
    let q_primes = generate_ntt_primes(3, 28, n);
    let p_primes = generate_ntt_primes_excluding(2, 29, n, &q_primes);
    let q = Arc::new(RnsBasis::new(&q_primes, n).unwrap());
    let p = RnsBasis::new(&p_primes, n).unwrap();
    let flat = random_flat(13, &q_primes, n);
    let (serial, parallel) = both_modes(|| {
        let x = RnsPoly::from_flat(q.clone(), flat.clone(), Representation::Evaluation);
        pmod_up(&x, &p).into_flat()
    });
    assert_eq!(serial, parallel);
}
