//! The CKKS context: modulus chains, NTT tables, basis-conversion caches,
//! and automorphism tables shared by every operation.

use crate::params::CkksParams;
use crate::plaintext::CiphertextSeed;
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
    /// `Q ∪ P`, drawn a limb at a time; a fresh ciphertext's `c_1` is limbs
    /// `0..ℓ` of its first polynomial.
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
        // `Q_L ∪ P` is `Q ∪ P` itself: a whole key's basis.
        let raised_bases: Vec<Arc<RnsBasis>> = (1..levels)
            .map(|ell| Arc::new(q_basis.prefix(ell).concat(&p_basis)))
            .chain([full_basis.clone()])
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
    ///
    /// # Panics
    ///
    /// Panics if `ell` is not a level, or is 1 with `merged` — before the
    /// cache is locked, so a bad call leaves it usable.
    pub fn moddown_context(&self, ell: usize, merged: bool) -> Arc<ModDownContext> {
        assert!((1..=self.params.levels()).contains(&ell), "no level {ell}");
        assert!(ell >= 2 || !merged, "merged ModDown needs a limb to drop");
        let mut cache = self.moddown_cache.lock().expect("poisoned");
        cache
            .entry((ell, merged))
            .or_insert_with(|| {
                if merged {
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
    ///
    /// # Panics
    ///
    /// Panics if `ell` is not a level or digit `j` holds no limb at it —
    /// before the cache is locked, so a bad call leaves it usable.
    pub fn digit_extender(&self, ell: usize, j: usize) -> Arc<BasisExtender> {
        assert!((1..=self.params.levels()).contains(&ell), "no level {ell}");
        assert!(j * self.params.alpha() < ell, "no digit {j} at {ell} limbs");
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
    ///
    /// # Panics
    ///
    /// Panics if `k` is even or `k ≥ 2N` — before the cache is locked, so
    /// a bad call leaves it usable.
    pub fn automorphism(&self, k: u64) -> Arc<Automorphism> {
        let two_n = 2 * self.params.degree() as u64;
        assert!(
            k % 2 == 1 && k < two_n,
            "Galois element must be odd and < 2N"
        );
        let mut cache = self.automorphism_cache.lock().expect("poisoned");
        cache
            .entry(k)
            .or_insert_with(|| Arc::new(Automorphism::new(k, self.q_basis.ntt_table(0))))
            .clone()
    }

    /// The digits of a switching key expanded at limb count `ell`: the
    /// `β(ℓ)` a key switch there reads, and all `dnum` at `ℓ = L`, where
    /// the key is whole.
    ///
    /// # Panics
    ///
    /// Panics if `ell` is zero or exceeds `L`.
    pub fn key_digits_at(&self, ell: usize) -> usize {
        assert!((1..=self.params.levels()).contains(&ell), "no level {ell}");
        if ell == self.params.levels() {
            self.params.dnum()
        } else {
            self.params.beta_at(ell)
        }
    }

    /// Bytes of a whole switching key as it is held: the `b_j` of each of
    /// the `dnum` digits over `Q ∪ P` in 8-byte words, plus the 32-byte
    /// seed its `a_j` are drawn from — [`crate::SwitchingKey::size_bytes`]
    /// of any whole key, half the residues of the key with its `a_j`.
    pub fn switching_key_bytes(&self) -> u64 {
        let words = self.full_basis.len() * self.full_basis.degree();
        (32 + self.params.dnum() * words * 8) as u64
    }

    /// The limbs of `Q ∪ P` a switching key expanded at limb count `ell`
    /// holds, in order: `Q_ℓ`, then `P`.
    pub(crate) fn key_limbs_at(&self, ell: usize) -> Vec<usize> {
        (0..ell)
            .chain(self.params.levels()..self.full_basis.len())
            .collect()
    }

    /// Limb `limb` of `Q ∪ P` of the first `digits` of the `a_j` the
    /// switching-key seed `seed` stands for, appended to `out` digit after
    /// digit: limb `j·|Q ∪ P| + limb` of the seed's expansion for digit
    /// `j`, each limb a stream of its own drawn from `(seed, limb)`
    /// (`SeededUniform`), and nothing else drawn. A key switch and key generation draw each
    /// limb so just before they multiply it; no `a_j` is ever held whole.
    pub(crate) fn draw_key_a(
        &self,
        seed: [u8; 32],
        limb: usize,
        digits: usize,
        out: &mut Vec<u64>,
    ) {
        self.key_a.expand_limb(seed, limb, digits, out);
    }

    /// The `c_1` a fresh symmetric encryption at limb count `ell` takes
    /// from `seed`: limbs `0..ℓ` of the first polynomial a switching key's
    /// seed expands into — limb `i` drawn from `(seed, i)` alone, so a
    /// lower level's `c_1` is a limb prefix of a higher one's —
    /// drawn into `buf` (emptied first): a fresh buffer for a ciphertext
    /// its caller keeps, a pool lease for a request-scoped operand.
    pub(crate) fn seeded_c1(
        &self,
        seed: &CiphertextSeed,
        ell: usize,
        mut buf: Vec<u64>,
    ) -> RnsPoly {
        let limbs: Vec<usize> = (0..ell).collect();
        buf.clear();
        self.key_a
            .expand_limbs(seed.0, &limbs, std::slice::from_mut(&mut buf));
        RnsPoly::from_flat(
            self.level_basis(ell).clone(),
            buf,
            Representation::Evaluation,
        )
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
        assert!(Arc::ptr_eq(ctx.raised_basis(4), ctx.full_basis()));
        // A key at the top level is whole; below, it holds β(ℓ) digits.
        assert_eq!(ctx.key_digits_at(4), 2);
        assert_eq!(ctx.key_digits_at(2), 1);
        assert_eq!(ctx.key_limbs_at(2), [0, 1, 4, 5]);
        assert_eq!(ctx.switching_key_bytes(), 32 + 2 * 6 * 32 * 8);
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

    /// A cache's preconditions are checked before it is locked: a merged
    /// `ModDown` at one limb panics and leaves the cache unpoisoned, so
    /// every later key switch still finds it.
    #[test]
    fn a_refused_moddown_context_leaves_its_cache_usable() {
        let ctx = small_ctx();
        let refused = std::panic::catch_unwind(|| ctx.moddown_context(1, true));
        assert!(refused.is_err(), "one limb has none to drop");
        let merged = ctx.moddown_context(2, true);
        assert!(Arc::ptr_eq(&merged, &ctx.moddown_context(2, true)));
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
