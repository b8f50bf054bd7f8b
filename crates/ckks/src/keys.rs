//! Key material: secret, public, relinearization, Galois and generic
//! switching keys, including the paper's **key compression** optimization
//! (a PRNG seed replaces the uniformly random first polynomial of every
//! switching key, halving its DRAM footprint — Section 3.2).

use crate::context::CkksContext;
use fhe_math::poly::{Representation, RnsPoly};
use fhe_math::sampling::{sample_gaussian, sample_ternary, sample_uniform_flat};
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

/// One digit of a switching key: a pair `(a_j, b_j)` over `Q ∪ P`.
#[derive(Clone)]
pub struct DigitKey {
    pub(crate) a: RnsPoly,
    pub(crate) b: RnsPoly,
}

/// A switching key `ksk_{s_src → s_dst}` in the Han–Ki hybrid structure: a
/// `2 × dnum` matrix of polynomials over `R_{PQ}` (Eq. 2 of the paper).
#[derive(Clone)]
pub struct SwitchingKey {
    pub(crate) digits: Vec<DigitKey>,
    /// When produced by seeded generation, the seed that regenerates every
    /// `a_j` — the transferable form of the key-compression optimization.
    pub(crate) seed: Option<[u8; 32]>,
}

impl fmt::Debug for SwitchingKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SwitchingKey")
            .field("digits", &self.digits.len())
            .field("compressed", &self.seed.is_some())
            .finish()
    }
}

impl SwitchingKey {
    /// Number of digit keys (`dnum`).
    pub fn digit_count(&self) -> usize {
        self.digits.len()
    }

    /// True if the key carries a seed from which the `a_j` components can
    /// be regenerated (key compression).
    pub fn is_compressed(&self) -> bool {
        self.seed.is_some()
    }

    /// Size in bytes when both polynomials of every digit are stored.
    pub fn size_bytes(&self) -> u64 {
        let per_poly = |p: &RnsPoly| 8 * p.degree() as u64 * p.limb_count() as u64;
        self.digits
            .iter()
            .map(|d| per_poly(&d.a) + per_poly(&d.b))
            .sum()
    }

    /// Size in bytes when the `a_j` are replaced by the 32-byte seed —
    /// exactly half plus the seed, the paper's 2× key-read reduction.
    pub fn compressed_size_bytes(&self) -> u64 {
        let per_poly = |p: &RnsPoly| 8 * p.degree() as u64 * p.limb_count() as u64;
        32 + self.digits.iter().map(|d| per_poly(&d.b)).sum::<u64>()
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

    /// Total serialized size of the set in bytes, honouring each key's
    /// compression state.
    pub fn total_bytes(&self) -> u64 {
        self.keys
            .values()
            .map(|k| {
                if k.is_compressed() {
                    k.compressed_size_bytes()
                } else {
                    k.size_bytes()
                }
            })
            .sum()
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

    /// Derives the public key `(−a·s + e, a)` over the full `Q` basis.
    pub fn public_key<R: Rng + ?Sized>(&self, rng: &mut R, sk: &SecretKey) -> PublicKey {
        let basis = self.ctx.q_basis().clone();
        let n = self.ctx.params().degree();
        let moduli: Vec<u64> = basis.moduli().iter().map(|m| m.value()).collect();
        let a_flat = sample_uniform_flat(rng, &moduli, n);
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
    /// When `seed` is `Some`, the `a_j` components are derived from the
    /// seed (key compression); the returned key records the seed so callers
    /// can measure or transmit the compressed form.
    pub fn switching_key<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        src: &RnsPoly,
        sk: &SecretKey,
        seed: Option<[u8; 32]>,
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
        let moduli: Vec<u64> = full.moduli().iter().map(|m| m.value()).collect();

        // [P]_{q_i} for the g_j factors.
        let p_mod_q: Vec<u64> = (0..l)
            .map(|i| {
                let qi = full.modulus(i);
                let mut p = 1u64;
                for pj in self.ctx.p_basis().moduli() {
                    p = qi.mul(p, qi.reduce(pj.value()));
                }
                p
            })
            .collect();

        let mut seeded_a = seed.map(|seed| self.ctx.seeded_key_a(seed, l).into_iter());
        let mut digits = Vec::with_capacity(dnum);
        for j in 0..dnum {
            let a = match seeded_a.as_mut() {
                Some(a) => a.next().expect("one a_j per digit"),
                None => RnsPoly::from_flat(
                    full.clone(),
                    sample_uniform_flat(rng, &moduli, n),
                    Representation::Evaluation,
                ),
            };
            let e_signed = sample_gaussian(rng, n);
            let mut b = RnsPoly::from_signed_coeffs(full.clone(), &e_signed);
            b.to_eval();
            // b_j = e_j − a_j·s + P·g_j·src
            let mut as_term = a.clone();
            as_term.mul_assign_pointwise(&sk.full);
            b.sub_assign(&as_term);
            // P·g_j·src: per-limb constant — [P]_{q_i} on digit-j limbs,
            // zero elsewhere (including all special limbs).
            let digit_range = self.ctx.digit_range(l, j);
            let mut factors = vec![0u64; full.len()];
            for i in digit_range {
                factors[i] = p_mod_q[i];
            }
            let mut lifted = src.clone();
            lifted.mul_scalar_per_limb_assign(&factors);
            b.add_assign(&lifted);
            let mut a = a;
            a.set_operand_class(OperandClass::Key);
            b.set_operand_class(OperandClass::Key);
            digits.push(DigitKey { a, b });
        }
        SwitchingKey { digits, seed }
    }

    /// Generates the relinearization key (`s² → s`).
    pub fn relin_key<R: Rng + ?Sized>(&self, rng: &mut R, sk: &SecretKey) -> RelinKey {
        let mut s2 = sk.full.clone();
        s2.mul_assign_pointwise(&sk.full);
        RelinKey(self.switching_key(rng, &s2, sk, None))
    }

    /// Generates the relinearization key in compressed (seeded) form.
    pub fn relin_key_compressed<R: Rng + ?Sized>(&self, rng: &mut R, sk: &SecretKey) -> RelinKey {
        let seed = rng.gen::<[u8; 32]>();
        let mut s2 = sk.full.clone();
        s2.mul_assign_pointwise(&sk.full);
        RelinKey(self.switching_key(rng, &s2, sk, Some(seed)))
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

    /// Generates the Galois key for element `k` (`σ_k(s) → s`).
    pub fn galois_key<R: Rng + ?Sized>(&self, rng: &mut R, sk: &SecretKey, k: u64) -> SwitchingKey {
        self.switching_key(rng, &self.automorphed_secret(sk, k), sk, None)
    }

    /// Generates the Galois key for element `k` in compressed (seeded)
    /// form — the key-compression optimization applied where it matters
    /// most, since bootstrapping carries tens of rotation keys.
    pub fn galois_key_compressed<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        sk: &SecretKey,
        k: u64,
    ) -> SwitchingKey {
        let seed = rng.gen::<[u8; 32]>();
        self.switching_key(rng, &self.automorphed_secret(sk, k), sk, Some(seed))
    }

    /// One key per distinct Galois element of `steps` (then conjugation,
    /// if asked), each made by `key` in that order.
    fn galois_key_set(
        &self,
        steps: &[i64],
        with_conjugation: bool,
        mut key: impl FnMut(u64) -> SwitchingKey,
    ) -> GaloisKeys {
        let conjugation = with_conjugation.then(|| self.ctx.conjugation_element());
        let elements = steps.iter().map(|&s| self.ctx.rotation_element(s));
        let mut keys = HashMap::new();
        for k in elements.chain(conjugation) {
            keys.entry(k).or_insert_with(|| Arc::new(key(k)));
        }
        GaloisKeys { keys }
    }

    /// Generates a fully seeded Galois key set: every key can be
    /// serialized at half size and regenerated from its seed.
    pub fn galois_keys_compressed<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        sk: &SecretKey,
        steps: &[i64],
        with_conjugation: bool,
    ) -> GaloisKeys {
        self.galois_key_set(steps, with_conjugation, |k| {
            self.galois_key_compressed(rng, sk, k)
        })
    }

    /// Generates Galois keys for the given rotation steps (plus optional
    /// conjugation).
    pub fn galois_keys<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        sk: &SecretKey,
        steps: &[i64],
        with_conjugation: bool,
    ) -> GaloisKeys {
        self.galois_key_set(steps, with_conjugation, |k| self.galois_key(rng, sk, k))
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
        assert!(!rlk.switching_key().is_compressed());
        let full = rlk.switching_key().size_bytes();
        let compressed = rlk.switching_key().compressed_size_bytes();
        // Compression halves the key (plus the 32-byte seed).
        assert_eq!(full / 2 + 32, compressed);
    }

    #[test]
    fn seeded_keys_are_reproducible_in_a_component() {
        let ctx = ctx();
        let kg = KeyGenerator::new(ctx.clone());
        let mut rng = StdRng::seed_from_u64(4);
        let sk = kg.secret_key(&mut rng);
        let seed = [7u8; 32];
        let k1 = kg.switching_key(&mut rng, &sk.full.clone(), &sk, Some(seed));
        let k2 = kg.switching_key(&mut rng, &sk.full.clone(), &sk, Some(seed));
        assert!(k1.is_compressed());
        for (d1, d2) in k1.digits.iter().zip(&k2.digits) {
            for i in 0..d1.a.limb_count() {
                assert_eq!(d1.a.limb(i), d2.a.limb(i), "a must be seed-determined");
            }
        }
        // b differs (fresh error), as required for security.
        assert_ne!(k1.digits[0].b.limb(0), k2.digits[0].b.limb(0));
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
