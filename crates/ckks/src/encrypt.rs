//! Encryption and decryption.

use crate::context::CkksContext;
use crate::keys::{PublicKey, SecretKey};
use crate::plaintext::{Ciphertext, CiphertextSeed, Plaintext};
use fhe_math::poly::RnsPoly;
use fhe_math::sampling::{fresh_seed, sample_gaussian, sample_ternary};
use rand::Rng;
use std::fmt;
use std::sync::Arc;

/// Encrypts plaintexts under either the secret key (fresh symmetric
/// ciphertexts, minimal noise) or the public key.
pub struct Encryptor {
    ctx: Arc<CkksContext>,
}

impl fmt::Debug for Encryptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Encryptor({:?})", self.ctx)
    }
}

impl Encryptor {
    /// Creates an encryptor for the context.
    pub fn new(ctx: Arc<CkksContext>) -> Self {
        Self { ctx }
    }

    /// Symmetric encryption: `(c_0, c_1) = (−a·s + m + e, a)`, with `a`
    /// expanded from a [`fresh_seed`] drawn from `rng` (then `e`). The
    /// ciphertext keeps the seed, so it travels as `c_0` plus the seed —
    /// the key-compression trade (§3.2) applied to a fresh operand.
    pub fn encrypt_symmetric<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        pt: &Plaintext,
        sk: &SecretKey,
    ) -> Ciphertext {
        let ell = pt.limb_count();
        let basis = self.ctx.level_basis(ell).clone();
        let n = self.ctx.params().degree();
        let seed = CiphertextSeed(fresh_seed(rng));
        let a = self.ctx.seeded_c1(&seed, ell, Vec::with_capacity(ell * n));
        let mut c0 = RnsPoly::from_signed_coeffs(basis, &sample_gaussian(rng, n));
        c0.to_eval();
        let mut as_term = a.clone();
        as_term.mul_assign_pointwise(&sk.at_level(ell));
        c0.sub_assign(&as_term);
        c0.add_assign(&pt.poly);
        Ciphertext::seeded(c0, a, pt.scale, seed)
    }

    /// Public-key encryption: `(v·pk_0 + m + e_0, v·pk_1 + e_1)` with
    /// ternary `v`.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        pt: &Plaintext,
        pk: &PublicKey,
    ) -> Ciphertext {
        let ell = pt.limb_count();
        let n = self.ctx.params().degree();
        let basis = self.ctx.level_basis(ell).clone();
        let mut v = RnsPoly::from_signed_coeffs(basis.clone(), &sample_ternary(rng, n));
        v.to_eval();
        let mut c0 = pk.pk0.drop_to(ell);
        c0.mul_assign_pointwise(&v);
        let mut e0 = RnsPoly::from_signed_coeffs(basis.clone(), &sample_gaussian(rng, n));
        e0.to_eval();
        c0.add_assign(&e0);
        c0.add_assign(&pt.poly);
        let mut c1 = pk.pk1.drop_to(ell);
        c1.mul_assign_pointwise(&v);
        let mut e1 = RnsPoly::from_signed_coeffs(basis, &sample_gaussian(rng, n));
        e1.to_eval();
        c1.add_assign(&e1);
        Ciphertext::new(c0, c1, pt.scale)
    }
}

/// Decrypts ciphertexts with the secret key.
pub struct Decryptor {
    ctx: Arc<CkksContext>,
}

impl fmt::Debug for Decryptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Decryptor({:?})", self.ctx)
    }
}

impl Decryptor {
    /// Creates a decryptor for the context.
    pub fn new(ctx: Arc<CkksContext>) -> Self {
        Self { ctx }
    }

    /// Decrypts to a plaintext: `m = c_0 + c_1·s`.
    pub fn decrypt(&self, ct: &Ciphertext, sk: &SecretKey) -> Plaintext {
        let ell = ct.limb_count();
        let mut m = ct.c1().clone();
        m.mul_assign_pointwise(&sk.at_level(ell));
        m.add_assign(&ct.c0);
        let _ = &self.ctx; // decryption needs no context state beyond the key
        m.set_operand_class(fhe_math::telemetry::OperandClass::Plaintext);
        Plaintext {
            poly: m,
            scale: ct.scale,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Encoder;
    use crate::keys::KeyGenerator;
    use crate::params::CkksParams;
    use fhe_math::cfft::Complex;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Arc<CkksContext>, Encoder, KeyGenerator) {
        let ctx = CkksContext::new(
            CkksParams::builder()
                .log_degree(6)
                .levels(3)
                .scale_bits(32)
                .first_modulus_bits(40)
                .dnum(3)
                .build()
                .unwrap(),
        );
        (
            ctx.clone(),
            Encoder::new(ctx.clone()),
            KeyGenerator::new(ctx),
        )
    }

    #[test]
    fn symmetric_roundtrip() {
        let (ctx, enc, kg) = setup();
        let mut rng = StdRng::seed_from_u64(10);
        let sk = kg.secret_key(&mut rng);
        let encryptor = Encryptor::new(ctx.clone());
        let decryptor = Decryptor::new(ctx.clone());
        let values: Vec<Complex> = (0..enc.slots())
            .map(|i| Complex::new((i as f64 / 7.0).sin(), (i as f64 / 5.0).cos()))
            .collect();
        let pt = enc.encode(&values, 3, ctx.params().scale()).unwrap();
        let ct = encryptor.encrypt_symmetric(&mut rng, &pt, &sk);
        assert_eq!(ct.limb_count(), 3);
        let back = enc.decode(&decryptor.decrypt(&ct, &sk));
        for (a, b) in back.iter().zip(&values) {
            assert!((*a - *b).abs() < 1e-6, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn public_key_roundtrip() {
        let (ctx, enc, kg) = setup();
        let mut rng = StdRng::seed_from_u64(11);
        let sk = kg.secret_key(&mut rng);
        let pk = kg.public_key(&mut rng, &sk);
        let encryptor = Encryptor::new(ctx.clone());
        let decryptor = Decryptor::new(ctx.clone());
        let values = vec![Complex::new(3.25, -0.5); 8];
        let pt = enc.encode(&values, 2, ctx.params().scale()).unwrap();
        let ct = encryptor.encrypt(&mut rng, &pt, &pk);
        assert_eq!(ct.limb_count(), 2);
        let back = enc.decode(&decryptor.decrypt(&ct, &sk));
        for (a, b) in back.iter().zip(&values) {
            assert!((*a - *b).abs() < 1e-4, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn ciphertexts_are_randomized() {
        let (ctx, enc, kg) = setup();
        let mut rng = StdRng::seed_from_u64(12);
        let sk = kg.secret_key(&mut rng);
        let encryptor = Encryptor::new(ctx.clone());
        let pt = enc
            .encode(&[Complex::new(1.0, 0.0)], 1, ctx.params().scale())
            .unwrap();
        let ct1 = encryptor.encrypt_symmetric(&mut rng, &pt, &sk);
        let ct2 = encryptor.encrypt_symmetric(&mut rng, &pt, &sk);
        assert_ne!(ct1.c0().limb(0), ct2.c0().limb(0));
    }

    #[test]
    fn ciphertext_size_matches_paper_formula() {
        let (ctx, enc, kg) = setup();
        let mut rng = StdRng::seed_from_u64(13);
        let sk = kg.secret_key(&mut rng);
        let encryptor = Encryptor::new(ctx.clone());
        let pt = enc
            .encode(&[Complex::new(1.0, 0.0)], 3, ctx.params().scale())
            .unwrap();
        let ct = encryptor.encrypt_symmetric(&mut rng, &pt, &sk);
        assert_eq!(ct.size_words(), 2 * 64 * 3);
    }
}
