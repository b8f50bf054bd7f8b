//! The CKKS context: modulus chains, NTT tables, basis-conversion caches,
//! and automorphism tables shared by every operation.

use crate::params::CkksParams;
use fhe_math::automorph::{conjugation_galois_element, rotation_galois_element, Automorphism};
use fhe_math::backend::UnrolledBackend;
use fhe_math::poly::{ModDownContext, Representation, RnsPoly};
use fhe_math::prime::{generate_ntt_primes, generate_ntt_primes_excluding};
use fhe_math::rns::{BasisExtender, RnsBasis};
use fhe_math::sampling::SeededUniform;
use fhe_math::ScratchPool;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Shared state for a CKKS instantiation.
///
/// Construction generates the modulus chains (`q_0` of
/// `first_modulus_bits`, then `L−1` rescaling primes near `Δ`, then `α`
/// special primes) and their NTT tables. Basis extenders, `ModDown`
/// contexts and automorphism tables are built lazily and memoized — they
/// depend on the current level, and a typical application only visits a
/// handful of `(level, digit)` combinations.
pub struct CkksContext {
    params: CkksParams,
    /// The full ciphertext basis `Q` (limb 0 = `q_0`).
    q_basis: Arc<RnsBasis>,
    /// The special basis `P` used for key switching.
    p_basis: Arc<RnsBasis>,
    /// `Q ∪ P` in standard order.
    full_basis: Arc<RnsBasis>,
    /// Per-level prefixes `Q_ℓ` (index `ℓ-1` holds the ℓ-limb basis).
    level_bases: Vec<Arc<RnsBasis>>,
    /// Per-level `Q_ℓ ∪ P` bases.
    raised_bases: Vec<Arc<RnsBasis>>,
    moddown_cache: Mutex<HashMap<(usize, bool), Arc<ModDownContext>>>,
    extender_cache: Mutex<HashMap<(usize, usize), Arc<BasisExtender>>>,
    automorphism_cache: Mutex<HashMap<u64, Arc<Automorphism>>>,
    /// The expansion of a switching key's seed into its `dnum` `a_j` over
    /// `Q ∪ P`, its lane jump built once here.
    key_a: SeededUniform,
    /// Reusable word buffers for the hot ring operations: after warm-up,
    /// key switching and rescaling allocate nothing per call.
    scratch: ScratchPool,
}

impl fmt::Debug for CkksContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CkksContext")
            .field("degree", &self.params.degree())
            .field("levels", &self.params.levels())
            .field("special_limbs", &self.params.special_limbs())
            .finish()
    }
}

impl CkksContext {
    /// Builds a context for the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if the prime generator cannot find enough NTT-friendly primes
    /// for the requested sizes (a parameter-selection bug).
    pub fn new(params: CkksParams) -> Arc<Self> {
        let n = params.degree();
        let levels = params.levels();
        let first = generate_ntt_primes(1, params.first_modulus_bits(), n);
        let mut q_primes = first.clone();
        if levels > 1 {
            q_primes.extend(generate_ntt_primes_excluding(
                levels - 1,
                params.scale_bits(),
                n,
                &first,
            ));
        }
        let p_primes = generate_ntt_primes_excluding(
            params.special_limbs(),
            params.special_modulus_bits(),
            n,
            &q_primes,
        );
        let q_basis = Arc::new(RnsBasis::new(&q_primes, n).expect("valid Q chain"));
        let p_basis = Arc::new(RnsBasis::new(&p_primes, n).expect("valid P chain"));
        let full_basis = Arc::new(q_basis.concat(&p_basis));
        let level_bases: Vec<Arc<RnsBasis>> = (1..=levels)
            .map(|ell| Arc::new(q_basis.prefix(ell)))
            .collect();
        let raised_bases: Vec<Arc<RnsBasis>> = (1..=levels)
            .map(|ell| Arc::new(q_basis.prefix(ell).concat(&p_basis)))
            .collect();
        let key_a =
            SeededUniform::new(&[q_primes.as_slice(), &p_primes].concat(), n, params.dnum());
        Arc::new(Self {
            params,
            q_basis,
            p_basis,
            full_basis,
            level_bases,
            raised_bases,
            moddown_cache: Mutex::new(HashMap::new()),
            extender_cache: Mutex::new(HashMap::new()),
            automorphism_cache: Mutex::new(HashMap::new()),
            key_a,
            scratch: ScratchPool::new(),
        })
    }

    /// The kernels every polynomial op over this context's bases runs
    /// (there is one production set; its `name()` is what a server
    /// reports).
    pub fn kernel_backend(&self) -> UnrolledBackend {
        UnrolledBackend
    }

    /// The parameter set.
    pub fn params(&self) -> &CkksParams {
        &self.params
    }

    /// The shared scratch-buffer pool for allocation-free hot paths.
    pub fn scratch(&self) -> &ScratchPool {
        &self.scratch
    }

    /// The full ciphertext basis `Q`.
    pub fn q_basis(&self) -> &Arc<RnsBasis> {
        &self.q_basis
    }

    /// The special basis `P`.
    pub fn p_basis(&self) -> &Arc<RnsBasis> {
        &self.p_basis
    }

    /// `Q ∪ P`.
    pub fn full_basis(&self) -> &Arc<RnsBasis> {
        &self.full_basis
    }

    /// The `ℓ`-limb ciphertext basis `Q_ℓ`.
    ///
    /// # Panics
    ///
    /// Panics if `ell` is zero or exceeds `L`.
    pub fn level_basis(&self, ell: usize) -> &Arc<RnsBasis> {
        &self.level_bases[ell - 1]
    }

    /// The raised basis `Q_ℓ ∪ P`.
    ///
    /// # Panics
    ///
    /// Panics if `ell` is zero or exceeds `L`.
    pub fn raised_basis(&self, ell: usize) -> &Arc<RnsBasis> {
        &self.raised_bases[ell - 1]
    }

    /// The limb index ranges (into `Q_ℓ`) covered by key-switching digit
    /// `j` at limb count `ell`.
    pub fn digit_range(&self, ell: usize, j: usize) -> std::ops::Range<usize> {
        let alpha = self.params.alpha();
        let start = j * alpha;
        let end = ((j + 1) * alpha).min(ell);
        start..end
    }

    /// The memoized `ModDown` context at limb count `ell`.
    ///
    /// With `merged = false` this drops exactly the special basis `P`
    /// (standard key-switch completion). With `merged = true` it drops
    /// `{q_{ℓ-1}} ∪ P` in one pass — the paper's **ModDown merge**
    /// optimization (Figure 4c), which fuses the key-switch `ModDown` with
    /// the subsequent `Rescale`.
    pub fn moddown_context(&self, ell: usize, merged: bool) -> Arc<ModDownContext> {
        let mut cache = self.moddown_cache.lock().expect("poisoned");
        cache
            .entry((ell, merged))
            .or_insert_with(|| {
                if merged {
                    assert!(ell >= 2, "merged ModDown needs a limb to drop");
                    let keep = self.level_bases[ell - 2].clone();
                    let drop = self.q_basis.select(&[ell - 1]).concat(&self.p_basis);
                    Arc::new(ModDownContext::new(keep, &drop))
                } else {
                    let keep = self.level_bases[ell - 1].clone();
                    Arc::new(ModDownContext::new(keep, &self.p_basis))
                }
            })
            .clone()
    }

    /// The memoized basis extender for key-switching digit `j` at limb
    /// count `ell`: from the digit limbs to their complement
    /// `(Q_ℓ \ digit) ∪ P`.
    pub fn digit_extender(&self, ell: usize, j: usize) -> Arc<BasisExtender> {
        let mut cache = self.extender_cache.lock().expect("poisoned");
        cache
            .entry((ell, j))
            .or_insert_with(|| {
                let range = self.digit_range(ell, j);
                let digit_idx: Vec<usize> = range.clone().collect();
                let complement_idx: Vec<usize> = (0..ell).filter(|i| !range.contains(i)).collect();
                let digit = self.q_basis.select(&digit_idx);
                let target = if complement_idx.is_empty() {
                    (**self.p_basis()).clone()
                } else {
                    self.q_basis.select(&complement_idx).concat(&self.p_basis)
                };
                Arc::new(BasisExtender::new(&digit, &target))
            })
            .clone()
    }

    /// The memoized automorphism table for Galois element `k`.
    pub fn automorphism(&self, k: u64) -> Arc<Automorphism> {
        let mut cache = self.automorphism_cache.lock().expect("poisoned");
        cache
            .entry(k)
            .or_insert_with(|| Arc::new(Automorphism::new(k, self.q_basis.ntt_table(0))))
            .clone()
    }

    /// The `a_j` of every digit of the switching key `seed` regenerates
    /// (key compression): `StdRng::from_seed(seed)`'s uniform draws over
    /// `Q ∪ P`, digit after digit, each polynomial in its own buffer.
    pub(crate) fn seeded_key_a(&self, seed: [u8; 32]) -> impl Iterator<Item = RnsPoly> + '_ {
        (self.key_a.expand(seed).into_iter())
            .map(|a| RnsPoly::from_flat(self.full_basis.clone(), a, Representation::Evaluation))
    }

    /// The Galois element for a slot rotation by `steps`.
    pub fn rotation_element(&self, steps: i64) -> u64 {
        rotation_galois_element(steps, self.params.degree())
    }

    /// The Galois element for complex conjugation.
    pub fn conjugation_element(&self) -> u64 {
        conjugation_galois_element(self.params.degree())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_ctx() -> Arc<CkksContext> {
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
    fn chains_have_expected_shapes() {
        let ctx = small_ctx();
        assert_eq!(ctx.q_basis().len(), 4);
        assert_eq!(ctx.p_basis().len(), 2); // α = ⌈4/2⌉
        assert_eq!(ctx.full_basis().len(), 6);
        assert_eq!(ctx.level_basis(2).len(), 2);
        assert_eq!(ctx.raised_basis(3).len(), 5);
        // q_0 is the large modulus.
        assert!(ctx.q_basis().modulus(0).bits() >= 35);
        assert!(ctx.q_basis().modulus(1).bits() <= 31);
    }

    #[test]
    fn all_primes_distinct() {
        let ctx = small_ctx();
        let mut all: Vec<u64> = ctx
            .full_basis()
            .moduli()
            .iter()
            .map(|m| m.value())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), ctx.full_basis().len());
    }

    #[test]
    fn digit_ranges_tile_the_level() {
        let ctx = small_ctx(); // α = 2
        assert_eq!(ctx.digit_range(4, 0), 0..2);
        assert_eq!(ctx.digit_range(4, 1), 2..4);
        assert_eq!(ctx.digit_range(3, 1), 2..3); // partial last digit
        assert_eq!(ctx.digit_range(1, 0), 0..1);
    }

    #[test]
    fn caches_return_shared_instances() {
        let ctx = small_ctx();
        let a = ctx.moddown_context(3, false);
        let b = ctx.moddown_context(3, false);
        assert!(Arc::ptr_eq(&a, &b));
        let e1 = ctx.digit_extender(4, 1);
        let e2 = ctx.digit_extender(4, 1);
        assert!(Arc::ptr_eq(&e1, &e2));
        let auto1 = ctx.automorphism(5);
        let auto2 = ctx.automorphism(5);
        assert!(Arc::ptr_eq(&auto1, &auto2));
    }

    #[test]
    fn digit_extender_targets_complement_plus_special() {
        let ctx = small_ctx();
        let e = ctx.digit_extender(4, 0);
        assert_eq!(e.source_len(), 2);
        assert_eq!(e.target_len(), 4); // 2 complement q-limbs + 2 special
        let e_last = ctx.digit_extender(3, 1);
        assert_eq!(e_last.source_len(), 1);
        assert_eq!(e_last.target_len(), 4); // 2 q + 2 p
    }

    #[test]
    fn kernel_backend_is_the_unrolled_set() {
        assert_eq!(small_ctx().kernel_backend().name(), "unrolled");
    }

    #[test]
    fn galois_elements() {
        let ctx = small_ctx();
        assert_eq!(ctx.rotation_element(0), 1);
        assert_eq!(ctx.rotation_element(1), 5);
        assert_eq!(ctx.conjugation_element(), 63);
    }
}
