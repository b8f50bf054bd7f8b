//! Key material: secret, public, relinearization, Galois and generic
//! switching keys. Every switching key is generated and held in the
//! paper's **key compression** form (Section 3.2): a 32-byte PRNG seed
//! stands for the uniformly random first polynomial `a_j` of every digit,
//! so a key is stored, sent and read as its seed plus the `b_j`, half the
//! residues of the key with its `a_j`; the key switch draws each limb of
//! the `a_j` as it multiplies it.

use crate::context::CkksContext;
use fhe_math::backend::{ShoupPair, UnrolledBackend};
use fhe_math::poly::{Representation, RnsPoly};
use fhe_math::sampling::{fresh_seed, sample_gaussian, sample_ternary, SeededUniform};
use fhe_math::telemetry::OperandClass;
use rand::Rng;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The secret key `s` (ternary), stored both as signed coefficients (for
/// derived-key generation) and embedded over the full `Q ∪ P` basis in
/// evaluation representation (for fast decryption and key generation).
pub struct SecretKey {
    pub(crate) signed: Vec<i64>,
    pub(crate) full: RnsPoly,
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SecretKey(degree {})", self.signed.len())
    }
}

impl SecretKey {
    /// The secret restricted to the `ℓ`-limb ciphertext basis, in
    /// evaluation representation.
    pub(crate) fn at_level(&self, ell: usize) -> RnsPoly {
        self.full.drop_to(ell)
    }
}

/// The public encryption key `(pk_0, pk_1) = (−a·s + e, a)` over the full
/// ciphertext basis `Q`.
#[derive(Clone)]
pub struct PublicKey {
    pub(crate) pk0: RnsPoly,
    pub(crate) pk1: RnsPoly,
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey({} limbs)", self.pk0.limb_count())
    }
}

/// A switching key `ksk_{s_src → s_dst}` in the Han–Ki hybrid structure: a
/// `2 × dnum` matrix of polynomials over `R_{PQ}` (Eq. 2 of the paper),
/// held in the paper's key-compression form — the `b_j` row, and the
/// 32-byte seed the uniform `a_j` row is drawn from, a limb at a time,
/// by every key switch that reads it ([`crate::keyswitch::inner_product`]).
/// No `a_j` is stored.
#[derive(Clone)]
pub struct SwitchingKey {
    /// The `b_j`, digit by digit, over `Q_ℓ' ∪ P` for the limb count `ℓ'`
    /// the key holds (`L` for a whole key).
    pub(crate) b: Vec<RnsPoly>,
    /// The seed every `a_j` is drawn from.
    pub(crate) seed: [u8; 32],
}

impl fmt::Debug for SwitchingKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SwitchingKey")
            .field("digits", &self.b.len())
            .finish()
    }
}

impl SwitchingKey {
    /// Number of digit keys (`dnum`).
    pub fn digit_count(&self) -> usize {
        self.b.len()
    }

    /// Bytes the key holds: its `b_j` as 8-byte words, plus the 32-byte
    /// seed — half the residues of the key with its `a_j`, the paper's 2×
    /// key-read reduction. A whole key's is
    /// [`CkksContext::switching_key_bytes`]. The wire form
    /// ([`crate::serialize::serialize_switching_key`]) packs each residue
    /// at its modulus's width and is smaller still.
    pub fn size_bytes(&self) -> u64 {
        let words: usize = self.b.iter().map(|b| b.flat().len()).sum();
        32 + 8 * words as u64
    }
}

/// A set of Galois (rotation/conjugation) keys indexed by Galois element.
///
/// Keys are reference-counted so a serving runtime can assemble a
/// per-request key set from a shared cache without copying polynomial
/// material (see [`GaloisKeys::insert_shared`]).
#[derive(Default)]
pub struct GaloisKeys {
    pub(crate) keys: HashMap<u64, Arc<SwitchingKey>>,
}

impl fmt::Debug for GaloisKeys {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GaloisKeys({} elements)", self.keys.len())
    }
}

impl GaloisKeys {
    /// An empty key set; populate with [`GaloisKeys::insert`]. Used by
    /// deserialization and by servers assembling a set from individually
    /// cached keys.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) the key for Galois element `element`.
    pub fn insert(&mut self, element: u64, key: SwitchingKey) {
        self.keys.insert(element, Arc::new(key));
    }

    /// Inserts an already-shared key without copying its polynomials —
    /// how a key cache lends a cached expansion to one request.
    pub fn insert_shared(&mut self, element: u64, key: Arc<SwitchingKey>) {
        self.keys.insert(element, key);
    }

    /// The shared handle for Galois element `k`, if present.
    pub fn get_shared(&self, k: u64) -> Option<&Arc<SwitchingKey>> {
        self.keys.get(&k)
    }

    /// Iterates over `(galois_element, key)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &SwitchingKey)> {
        self.keys.iter().map(|(&k, v)| (k, v.as_ref()))
    }

    /// The key for Galois element `k`, if generated.
    pub fn get(&self, k: u64) -> Option<&SwitchingKey> {
        self.keys.get(&k).map(|a| a.as_ref())
    }

    /// Number of keys held.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if no keys are held.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// The relinearization key (`s² → s`).
pub struct RelinKey(pub(crate) SwitchingKey);

impl fmt::Debug for RelinKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RelinKey({} digits)", self.0.digit_count())
    }
}

impl RelinKey {
    /// The underlying switching key.
    pub fn switching_key(&self) -> &SwitchingKey {
        &self.0
    }
}

/// Generates all key material for a context.
pub struct KeyGenerator {
    ctx: Arc<CkksContext>,
}

impl fmt::Debug for KeyGenerator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KeyGenerator({:?})", self.ctx)
    }
}

impl KeyGenerator {
    /// Creates a generator bound to a context.
    pub fn new(ctx: Arc<CkksContext>) -> Self {
        Self { ctx }
    }

    /// Samples a fresh ternary secret key.
    pub fn secret_key<R: Rng + ?Sized>(&self, rng: &mut R) -> SecretKey {
        let n = self.ctx.params().degree();
        let signed = sample_ternary(rng, n);
        let mut full = RnsPoly::from_signed_coeffs(self.ctx.full_basis().clone(), &signed);
        full.to_eval();
        full.set_operand_class(OperandClass::Key);
        SecretKey { signed, full }
    }

    /// Samples a sparse ternary secret with exactly `hamming_weight`
    /// nonzero coefficients — required by bootstrapping, whose ModRaise
    /// residue bound `K` grows with the secret's 1-norm.
    pub fn secret_key_sparse<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        hamming_weight: usize,
    ) -> SecretKey {
        let n = self.ctx.params().degree();
        let signed = fhe_math::sampling::sample_sparse_ternary(rng, n, hamming_weight);
        let mut full = RnsPoly::from_signed_coeffs(self.ctx.full_basis().clone(), &signed);
        full.to_eval();
        full.set_operand_class(OperandClass::Key);
        SecretKey { signed, full }
    }

    /// Derives the public key `(−a·s + e, a)` over the full `Q` basis, `a`
    /// expanded from a [`fresh_seed`] drawn from `rng` (then `e`).
    pub fn public_key<R: Rng + ?Sized>(&self, rng: &mut R, sk: &SecretKey) -> PublicKey {
        let basis = self.ctx.q_basis().clone();
        let n = self.ctx.params().degree();
        let moduli: Vec<u64> = basis.moduli().iter().map(|m| m.value()).collect();
        let a_flat = SeededUniform::new(&moduli, n, 1)
            .expand(fresh_seed(rng))
            .remove(0);
        let a = RnsPoly::from_flat(basis.clone(), a_flat, Representation::Evaluation);
        let e_signed = sample_gaussian(rng, n);
        let mut e = RnsPoly::from_signed_coeffs(basis.clone(), &e_signed);
        e.to_eval();
        let s = sk.full.drop_to(basis.len());
        let mut pk0 = a.clone();
        pk0.mul_assign_pointwise(&s);
        pk0.negate();
        pk0.add_assign(&e);
        let mut a = a;
        pk0.set_operand_class(OperandClass::Key);
        a.set_operand_class(OperandClass::Key);
        PublicKey { pk0, pk1: a }
    }

    /// Generates a switching key from `src` (a polynomial over the full
    /// `Q ∪ P` basis, evaluation representation — e.g. `s²` or `σ_k(s)`)
    /// to the secret `s`.
    ///
    /// The `a_j` components are drawn from `seed` (key compression);
    /// `rng` draws only the errors `e_j`, one per digit in digit order.
    /// The key records the seed, which with the `b_j` is what it holds.
    ///
    /// `b_j = e_j − a_j·s + [P]_{q_i}·src` on digit `j`'s limbs, `e_j −
    /// a_j·s` elsewhere, is finished one limb at a time: limb `i` of every
    /// `a_j` is drawn into one tile, then each `b_j`'s limb `i` is
    /// negated, accumulates `a_j·s`, is negated back and, on digit `j`'s
    /// limbs, gains `[P]_{q_i}·src` — no `a_j`, `a_j·s` or copy of `src`
    /// is ever held whole.
    pub fn switching_key<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        src: &RnsPoly,
        sk: &SecretKey,
        seed: [u8; 32],
    ) -> SwitchingKey {
        assert_eq!(
            src.limb_count(),
            self.ctx.full_basis().len(),
            "switching-key source must live over Q ∪ P"
        );
        assert_eq!(src.representation(), Representation::Evaluation);
        let full = self.ctx.full_basis().clone();
        let n = self.ctx.params().degree();
        let l = self.ctx.params().levels();
        let dnum = self.ctx.params().dnum();
        let mut b: Vec<RnsPoly> = (0..dnum)
            .map(|_| {
                let mut e = RnsPoly::from_signed_coeffs(full.clone(), &sample_gaussian(rng, n));
                e.to_eval();
                e.set_operand_class(OperandClass::Key);
                e
            })
            .collect();
        let pool = self.ctx.scratch();
        let mut a = pool.take_vec(dnum * n);
        for i in 0..full.len() {
            let m = full.modulus(i);
            a.clear();
            self.ctx.draw_key_a(seed, i, dnum, &mut a);
            for (j, (b, a)) in b.iter_mut().zip(a.chunks_exact_mut(n)).enumerate() {
                let limb = b.limb_mut(i);
                UnrolledBackend.pointwise_neg(m, limb);
                UnrolledBackend.pointwise_mul_add(m, limb, a, sk.full.limb(i));
                UnrolledBackend.pointwise_neg(m, limb);
                if self.ctx.digit_range(l, j).contains(&i) {
                    // [P]_{q_i}·src_i, in the tile limb `a_j` no longer needs.
                    let p = (self.ctx.p_basis().moduli().iter())
                        .fold(1, |p, pj| m.mul(p, m.reduce(pj.value())));
                    a.copy_from_slice(src.limb(i));
                    UnrolledBackend.scale_shoup(m, a, ShoupPair::new(m, p));
                    UnrolledBackend.pointwise_add(m, limb, a);
                }
            }
        }
        pool.recycle_vec(a);
        SwitchingKey { b, seed }
    }

    /// Generates the relinearization key (`s² → s`), its seed a
    /// [`fresh_seed`], the first draw from `rng`.
    pub fn relin_key<R: Rng + ?Sized>(&self, rng: &mut R, sk: &SecretKey) -> RelinKey {
        let seed = fresh_seed(rng);
        let mut s2 = sk.full.clone();
        s2.mul_assign_pointwise(&sk.full);
        RelinKey(self.switching_key(rng, &s2, sk, seed))
    }

    /// [`KeyGenerator::relin_key`] under its old name, kept only for the
    /// benchmark harness; ROADMAP item 1(d) deletes it.
    #[doc(hidden)]
    pub fn relin_key_compressed<R: Rng + ?Sized>(&self, rng: &mut R, sk: &SecretKey) -> RelinKey {
        self.relin_key(rng, sk)
    }

    /// `σ_k(s)` over `Q ∪ P` in evaluation representation: the signed
    /// secret permuted `x^i ↦ ±x^{ik mod 2N}`, then re-embedded.
    fn automorphed_secret(&self, sk: &SecretKey, k: u64) -> RnsPoly {
        let n = self.ctx.params().degree();
        let mut permuted = vec![0i64; n];
        let two_n = 2 * n as u64;
        for (i, &c) in sk.signed.iter().enumerate() {
            let e = (i as u64 * k) % two_n;
            if e < n as u64 {
                permuted[e as usize] = c;
            } else {
                permuted[(e - n as u64) as usize] = -c;
            }
        }
        let mut src = RnsPoly::from_signed_coeffs(self.ctx.full_basis().clone(), &permuted);
        src.to_eval();
        src
    }

    /// Generates the Galois key for element `k` (`σ_k(s) → s`), its seed
    /// a [`fresh_seed`], the first draw from `rng`.
    pub fn galois_key<R: Rng + ?Sized>(&self, rng: &mut R, sk: &SecretKey, k: u64) -> SwitchingKey {
        let seed = fresh_seed(rng);
        self.switching_key(rng, &self.automorphed_secret(sk, k), sk, seed)
    }

    /// [`KeyGenerator::galois_key`] under its old name, kept only for the
    /// benchmark harness; ROADMAP item 1(d) deletes it.
    #[doc(hidden)]
    pub fn galois_key_compressed<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        sk: &SecretKey,
        k: u64,
    ) -> SwitchingKey {
        self.galois_key(rng, sk, k)
    }

    /// Generates Galois keys for the given rotation steps (plus optional
    /// conjugation): one [`KeyGenerator::galois_key`] per distinct element,
    /// in that order.
    pub fn galois_keys<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        sk: &SecretKey,
        steps: &[i64],
        with_conjugation: bool,
    ) -> GaloisKeys {
        let conjugation = with_conjugation.then(|| self.ctx.conjugation_element());
        let elements = steps.iter().map(|&s| self.ctx.rotation_element(s));
        let mut keys = HashMap::new();
        for k in elements.chain(conjugation) {
            keys.entry(k)
                .or_insert_with(|| Arc::new(self.galois_key(rng, sk, k)));
        }
        GaloisKeys { keys }
    }

    /// [`KeyGenerator::galois_keys`] under its old name, kept only for the
    /// benchmark harness; ROADMAP item 1(d) deletes it.
    #[doc(hidden)]
    pub fn galois_keys_compressed<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        sk: &SecretKey,
        steps: &[i64],
        with_conjugation: bool,
    ) -> GaloisKeys {
        self.galois_keys(rng, sk, steps, with_conjugation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx() -> Arc<CkksContext> {
        CkksContext::new(
            CkksParams::builder()
                .log_degree(5)
                .levels(4)
                .scale_bits(30)
                .first_modulus_bits(36)
                .dnum(2)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn secret_key_shapes() {
        let ctx = ctx();
        let kg = KeyGenerator::new(ctx.clone());
        let mut rng = StdRng::seed_from_u64(1);
        let sk = kg.secret_key(&mut rng);
        assert_eq!(sk.signed.len(), 32);
        assert_eq!(sk.full.limb_count(), 6);
        assert_eq!(sk.at_level(2).limb_count(), 2);
    }

    #[test]
    fn public_key_is_rlwe_sample() {
        // pk0 + pk1·s should be the small error e.
        let ctx = ctx();
        let kg = KeyGenerator::new(ctx.clone());
        let mut rng = StdRng::seed_from_u64(2);
        let sk = kg.secret_key(&mut rng);
        let pk = kg.public_key(&mut rng, &sk);
        let mut check = pk.pk1.clone();
        check.mul_assign_pointwise(&sk.full.drop_to(4));
        check.add_assign(&pk.pk0);
        check.to_coeff();
        assert!(check.inf_norm() < 30.0, "norm {}", check.inf_norm());
    }

    #[test]
    fn switching_key_digit_count_and_sizes() {
        let ctx = ctx();
        let kg = KeyGenerator::new(ctx.clone());
        let mut rng = StdRng::seed_from_u64(3);
        let sk = kg.secret_key(&mut rng);
        let rlk = kg.relin_key(&mut rng, &sk);
        assert_eq!(rlk.switching_key().digit_count(), 2);
        // The seed plus the `b_j` alone: two digits of six 32-word limbs.
        assert_eq!(rlk.switching_key().size_bytes(), 32 + 2 * 6 * 32 * 8);
        assert_eq!(rlk.switching_key().size_bytes(), ctx.switching_key_bytes());
    }

    #[test]
    fn a_published_seed_is_not_the_callers_stream() {
        let ctx = ctx();
        let kg = KeyGenerator::new(ctx.clone());
        let mut rng = StdRng::seed_from_u64(5);
        let sk = kg.secret_key(&mut rng);
        let raw = |rng: &StdRng| rng.clone().gen::<[u8; 32]>();
        let next = raw(&rng);
        assert_ne!(kg.relin_key(&mut rng, &sk).switching_key().seed, next);
        let next = raw(&rng);
        assert_ne!(kg.galois_key(&mut rng, &sk, 3).seed, next);
        let next = raw(&rng);
        let pt = crate::Encoder::new(ctx.clone())
            .encode(
                &[fhe_math::cfft::Complex::new(0.5, 0.0)],
                2,
                ctx.params().scale(),
            )
            .unwrap();
        let ct = crate::Encryptor::new(ctx.clone()).encrypt_symmetric(&mut rng, &pt, &sk);
        assert_ne!(ct.seed().expect("a fresh ciphertext is seeded").0, next);
    }

    /// The `a_j` of `key`'s first `digits` digits over `Q ∪ P`, as the key
    /// switch draws them: limb by limb from the key's seed.
    fn drawn_a(ctx: &CkksContext, key: &SwitchingKey, digits: usize) -> Vec<RnsPoly> {
        let (full, n) = (ctx.full_basis(), ctx.params().degree());
        let mut a = vec![Vec::new(); digits];
        let mut limb = Vec::new();
        for i in 0..full.len() {
            limb.clear();
            ctx.draw_key_a(key.seed, i, digits, &mut limb);
            for (a, drawn) in a.iter_mut().zip(limb.chunks_exact(n)) {
                a.extend_from_slice(drawn);
            }
        }
        (a.into_iter())
            .map(|a| RnsPoly::from_flat(full.clone(), a, Representation::Evaluation))
            .collect()
    }

    #[test]
    fn seeded_keys_are_reproducible_in_a_component() {
        let ctx = ctx();
        let kg = KeyGenerator::new(ctx.clone());
        let mut rng = StdRng::seed_from_u64(4);
        let sk = kg.secret_key(&mut rng);
        let seed = [7u8; 32];
        let k1 = kg.switching_key(&mut rng, &sk.full.clone(), &sk, seed);
        let k2 = kg.switching_key(&mut rng, &sk.full.clone(), &sk, seed);
        let (a1, a2) = (drawn_a(&ctx, &k1, 2), drawn_a(&ctx, &k2, 2));
        for (d1, d2) in a1.iter().zip(&a2) {
            for i in 0..d1.limb_count() {
                assert_eq!(d1.limb(i), d2.limb(i), "a must be seed-determined");
            }
        }
        // b differs (fresh error), as required for security.
        assert_ne!(k1.b[0].limb(0), k2.b[0].limb(0));
        // With the drawn a_j each digit is an RLWE sample of its lifted
        // source: b_j + a_j·s − [P]·g_j·src is the small error e_j.
        for (j, (b, a)) in k1.b.iter().zip(&a1).enumerate() {
            let mut e = a.clone();
            e.mul_assign_pointwise(&sk.full);
            e.add_assign(b);
            let p_basis = ctx.p_basis();
            let mut lifted = sk.full.clone();
            let factors: Vec<u64> = (0..ctx.full_basis().len())
                .map(|i| {
                    let m = ctx.full_basis().modulus(i);
                    let p =
                        (p_basis.moduli().iter()).fold(1, |p, pj| m.mul(p, m.reduce(pj.value())));
                    if ctx.digit_range(4, j).contains(&i) {
                        p
                    } else {
                        0
                    }
                })
                .collect();
            lifted.mul_scalar_per_limb_assign(&factors);
            e.sub_assign(&lifted);
            e.to_coeff();
            assert!(e.inf_norm() < 30.0, "digit {j}: norm {}", e.inf_norm());
        }
    }

    /// Asserts two keys equal digit for digit, limb for limb, and in seed
    /// (which fixes every drawn `a_j`).
    fn assert_same_key(x: &SwitchingKey, y: &SwitchingKey) {
        assert_eq!(x.seed, y.seed);
        assert_eq!(x.digit_count(), y.digit_count());
        for (bx, by) in x.b.iter().zip(&y.b) {
            assert_eq!(bx.flat(), by.flat());
        }
    }

    #[test]
    fn each_name_and_its_old_twin_make_the_same_key() {
        let ctx = ctx();
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut StdRng::seed_from_u64(6));
        let (mut x, mut y) = (StdRng::seed_from_u64(7), StdRng::seed_from_u64(7));
        let element = ctx.rotation_element(3);
        assert_same_key(
            kg.relin_key(&mut x, &sk).switching_key(),
            kg.relin_key_compressed(&mut y, &sk).switching_key(),
        );
        assert_same_key(
            &kg.galois_key(&mut x, &sk, element),
            &kg.galois_key_compressed(&mut y, &sk, element),
        );
        let steps = [1, 2, -1];
        let (gx, gy) = (
            kg.galois_keys(&mut x, &sk, &steps, true),
            kg.galois_keys_compressed(&mut y, &sk, &steps, true),
        );
        assert_eq!(gx.len(), gy.len());
        for (k, key) in gx.iter() {
            assert_same_key(key, gy.get(k).expect("same elements"));
        }
        // Both generators are left in the same state.
        assert_eq!(x.gen::<u64>(), y.gen::<u64>());
    }

    #[test]
    fn galois_keys_cover_requested_steps() {
        let ctx = ctx();
        let kg = KeyGenerator::new(ctx.clone());
        let mut rng = StdRng::seed_from_u64(5);
        let sk = kg.secret_key(&mut rng);
        let gk = kg.galois_keys(&mut rng, &sk, &[1, 2, -1], true);
        assert_eq!(gk.len(), 4);
        assert!(gk.get(ctx.rotation_element(1)).is_some());
        assert!(gk.get(ctx.conjugation_element()).is_some());
        assert!(gk.get(999).is_none());
    }
}
