//! Plaintext and ciphertext containers.

use fhe_math::poly::RnsPoly;
use fhe_math::telemetry::OperandClass;
use std::fmt;

/// An encoded (unencrypted) CKKS message: a ring element tagged with its
/// scaling factor.
#[derive(Clone)]
pub struct Plaintext {
    /// The encoded polynomial (evaluation representation).
    pub(crate) poly: RnsPoly,
    /// The scaling factor `Δ` applied during encoding.
    pub(crate) scale: f64,
}

impl fmt::Debug for Plaintext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Plaintext")
            .field("limbs", &self.poly.limb_count())
            .field("log2_scale", &self.scale.log2())
            .finish()
    }
}

impl Plaintext {
    /// The underlying ring element.
    pub fn poly(&self) -> &RnsPoly {
        &self.poly
    }

    /// The scaling factor.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Current limb count.
    pub fn limb_count(&self) -> usize {
        self.poly.limb_count()
    }

    /// Returns the polynomial's storage to `pool` — where a plaintext
    /// decoded by [`crate::serialize::lease_plaintext`] got it.
    pub fn recycle(self, pool: &fhe_math::ScratchPool) {
        self.poly.recycle(pool);
    }
}

/// The 32-byte seed a fresh symmetric encryption's `c_1` expands from
/// (`CkksContext::seeded_c1`): a type of its own, never a switching key's
/// seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct CiphertextSeed(pub(crate) [u8; 32]);

/// A CKKS ciphertext `(c_0, c_1)` with `Dec(ct) = c_0 + c_1·s`.
///
/// Both components are kept in evaluation representation over the same
/// level basis; `scale` tracks the plaintext scaling factor through
/// multiplications and rescalings.
///
/// A fresh symmetric encryption also keeps the seed its uniform `c_1` was
/// expanded from, and travels as `c_0` plus that seed. The seed lives only
/// while `c_1` is exactly its expansion: [`Ciphertext::new`] never has one,
/// and every write to `c_1` goes through `c1_mut`, which drops it. A clone
/// keeps it, so an op that changes only `c_0` of a clone stays seeded.
#[derive(Clone)]
pub struct Ciphertext {
    pub(crate) c0: RnsPoly,
    c1: RnsPoly,
    pub(crate) scale: f64,
    seed: Option<CiphertextSeed>,
}

impl fmt::Debug for Ciphertext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ciphertext")
            .field("limbs", &self.c0.limb_count())
            .field("log2_scale", &self.scale.log2())
            .field("seeded", &self.seed.is_some())
            .finish()
    }
}

impl Ciphertext {
    /// Assembles a ciphertext from parts; it carries no seed.
    ///
    /// # Panics
    ///
    /// Panics if the components disagree on limb count.
    pub fn new(c0: RnsPoly, c1: RnsPoly, scale: f64) -> Self {
        Self::assemble(c0, c1, scale, None)
    }

    /// A fresh ciphertext whose `c1` is exactly `seed`'s expansion at its
    /// level: what symmetric encryption and the wire decoder build.
    pub(crate) fn seeded(c0: RnsPoly, c1: RnsPoly, scale: f64, seed: CiphertextSeed) -> Self {
        Self::assemble(c0, c1, scale, Some(seed))
    }

    fn assemble(
        mut c0: RnsPoly,
        mut c1: RnsPoly,
        scale: f64,
        seed: Option<CiphertextSeed>,
    ) -> Self {
        assert_eq!(c0.limb_count(), c1.limb_count(), "component limb mismatch");
        // Memory-trace attribution: whatever kernels produced these parts,
        // from here on they are ciphertext limbs.
        c0.set_operand_class(OperandClass::Ciphertext);
        c1.set_operand_class(OperandClass::Ciphertext);
        Self {
            c0,
            c1,
            scale,
            seed,
        }
    }

    /// The seed `c_1` expands from, while it still does.
    pub(crate) fn seed(&self) -> Option<&CiphertextSeed> {
        self.seed.as_ref()
    }

    /// Whether this ciphertext keeps the seed its `c_1` expands from — a
    /// fresh symmetric encryption, or a copy of one whose `c_1` nothing
    /// has written since — and so serializes as `c_0` plus the seed.
    pub fn is_seeded(&self) -> bool {
        self.seed.is_some()
    }

    /// `c_1` to write: the only way to change it, so the seed goes.
    pub(crate) fn c1_mut(&mut self) -> &mut RnsPoly {
        self.seed = None;
        &mut self.c1
    }

    /// The `c_0` component.
    pub fn c0(&self) -> &RnsPoly {
        &self.c0
    }

    /// The `c_1` component.
    pub fn c1(&self) -> &RnsPoly {
        &self.c1
    }

    /// Current limb count `ℓ` (the paper's "level"; each rescale consumes
    /// one limb).
    pub fn limb_count(&self) -> usize {
        self.c0.limb_count()
    }

    /// The scaling factor.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Size of the ciphertext in machine words (`2·N·ℓ`), matching the
    /// paper's Section 2.1 accounting.
    pub fn size_words(&self) -> u64 {
        2 * self.c0.degree() as u64 * self.limb_count() as u64
    }

    /// Returns both components' storage to `pool`. Evaluator hot paths
    /// recycle short-lived ciphertexts so steady-state evaluation stays
    /// allocation-free.
    pub fn recycle(self, pool: &fhe_math::ScratchPool) {
        self.c0.recycle(pool);
        self.c1.recycle(pool);
    }

    /// Releases both components' storage beyond their length
    /// ([`RnsPoly::shrink_to_fit`]): for a pool-leased result its caller
    /// keeps.
    pub fn shrink_to_fit(&mut self) {
        self.c0.shrink_to_fit();
        self.c1.shrink_to_fit();
    }
}
