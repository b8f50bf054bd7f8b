//! Residue-number-system bases and the fast basis extension of Eq. (1).
//!
//! An [`RnsBasis`] is the set `B = {q_1, …, q_ℓ}` of word-sized prime limbs
//! whose product is the wide modulus `Q`. The [`BasisExtender`] implements
//! `NewLimb` (Eq. 1 of the MAD paper): given the residues of `x` in `B`, it
//! produces `x mod p` for new primes `p` — the *slot-wise* kernel that
//! interacts across limbs of a fixed slot (Table 3).
//!
//! The extension is the standard "fast base conversion" of the full-RNS CKKS
//! literature: it computes `Σ_i [x·Q̃_i]_{q_i} · Q_i^* mod p`, which equals
//! `x + e·Q mod p` for a small integer excess `e ∈ [0, ℓ)`. CKKS absorbs
//! this excess into the noise; the exact-CRT tests in this module quantify
//! it.

use crate::backend::{BasisExtView, ScalarBackend, ShoupPair, UnrolledBackend};
use crate::bigint::UBig;
use crate::modular::{lazy_products, Modulus};
use crate::ntt::NttTable;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// An ordered RNS basis `{q_1, …, q_ℓ}` of distinct primes with NTT tables.
#[derive(Clone)]
pub struct RnsBasis {
    moduli: Vec<Modulus>,
    ntt_tables: Vec<Arc<NttTable>>,
    degree: usize,
    /// Row `k`: `q_k⁻¹ mod q_i` for `i < k`, the `Rescale` multipliers when
    /// limb `k` is dropped. Filled on first use and shared with every
    /// [`RnsBasis::prefix`] (whose limbs, and so whose rows, are the same),
    /// so a chain of rescales computes each row once.
    drop_inv: Arc<[OnceLock<Vec<ShoupPair>>]>,
    /// Row `l`: `∏_{j ≥ l} q_j mod q_i` for `i < l`, the `PModUp` lift
    /// `[P]_{q_i}` when this basis is `B ∪ B'` split at `l`.
    tail_products: OnceLock<Vec<Vec<ShoupPair>>>,
}

/// Empty per-limb constant rows for a basis of `len` limbs.
fn empty_rows(len: usize) -> Arc<[OnceLock<Vec<ShoupPair>>]> {
    (0..len).map(|_| OnceLock::new()).collect()
}

impl fmt::Debug for RnsBasis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RnsBasis")
            .field("limbs", &self.moduli.len())
            .field("degree", &self.degree)
            .finish()
    }
}

/// Error constructing an [`RnsBasis`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RnsError {
    /// A limb prime was rejected by the NTT table constructor.
    BadLimb(u64),
    /// The same prime appears twice.
    DuplicateLimb(u64),
    /// The basis would be empty.
    Empty,
}

impl fmt::Display for RnsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RnsError::BadLimb(q) => write!(f, "limb {q} is not an NTT-friendly prime"),
            RnsError::DuplicateLimb(q) => write!(f, "limb {q} appears more than once"),
            RnsError::Empty => write!(f, "RNS basis must contain at least one limb"),
        }
    }
}

impl std::error::Error for RnsError {}

impl RnsBasis {
    /// Builds a basis over `Z[x]/(x^degree + 1)` from distinct NTT-friendly
    /// primes.
    ///
    /// # Errors
    ///
    /// Returns [`RnsError`] if `primes` is empty, contains duplicates, or
    /// contains a value that is not an NTT-friendly prime for `degree`.
    pub fn new(primes: &[u64], degree: usize) -> Result<Self, RnsError> {
        if primes.is_empty() {
            return Err(RnsError::Empty);
        }
        let mut moduli = Vec::with_capacity(primes.len());
        let mut ntt_tables = Vec::with_capacity(primes.len());
        for (i, &q) in primes.iter().enumerate() {
            if primes[..i].contains(&q) {
                return Err(RnsError::DuplicateLimb(q));
            }
            let table = NttTable::new(q, degree).map_err(|_| RnsError::BadLimb(q))?;
            moduli.push(*table.modulus());
            ntt_tables.push(Arc::new(table));
        }
        Ok(Self {
            drop_inv: empty_rows(moduli.len()),
            tail_products: OnceLock::new(),
            moduli,
            ntt_tables,
            degree,
        })
    }

    /// Number of limbs `ℓ`.
    #[inline]
    pub fn len(&self) -> usize {
        self.moduli.len()
    }

    /// True if the basis has no limbs (never true for a constructed basis).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.moduli.is_empty()
    }

    /// Ring degree `N`.
    #[inline]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The limb moduli in order.
    #[inline]
    pub fn moduli(&self) -> &[Modulus] {
        &self.moduli
    }

    /// The `i`-th limb modulus.
    #[inline]
    pub fn modulus(&self, i: usize) -> &Modulus {
        &self.moduli[i]
    }

    /// The NTT table of the `i`-th limb.
    #[inline]
    pub fn ntt_table(&self, i: usize) -> &Arc<NttTable> {
        &self.ntt_tables[i]
    }

    /// The product `Q = ∏ q_i` as a big integer.
    pub fn product(&self) -> UBig {
        UBig::product(&self.moduli.iter().map(|m| m.value()).collect::<Vec<_>>())
    }

    /// Total bit size `log2 Q` (sum of limb bit sizes, approximate).
    pub fn log2_product(&self) -> f64 {
        self.moduli.iter().map(|m| (m.value() as f64).log2()).sum()
    }

    /// A sub-basis of the first `count` limbs (sharing NTT tables).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or exceeds the basis length.
    pub fn prefix(&self, count: usize) -> RnsBasis {
        assert!(count >= 1 && count <= self.len(), "invalid prefix length");
        RnsBasis {
            moduli: self.moduli[..count].to_vec(),
            ntt_tables: self.ntt_tables[..count].to_vec(),
            degree: self.degree,
            drop_inv: self.drop_inv.clone(),
            tail_products: OnceLock::new(),
        }
    }

    /// A sub-basis formed by the given limb indices (sharing NTT tables).
    ///
    /// Used by hybrid key switching to carve digit bases and their
    /// complements out of the ciphertext basis.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty, contains duplicates, or indexes out of
    /// range.
    pub fn select(&self, indices: &[usize]) -> RnsBasis {
        assert!(!indices.is_empty(), "selection must be non-empty");
        for (i, &idx) in indices.iter().enumerate() {
            assert!(idx < self.len(), "index {idx} out of range");
            assert!(!indices[..i].contains(&idx), "duplicate index {idx}");
        }
        RnsBasis {
            moduli: indices.iter().map(|&i| self.moduli[i]).collect(),
            ntt_tables: indices
                .iter()
                .map(|&i| self.ntt_tables[i].clone())
                .collect(),
            degree: self.degree,
            drop_inv: empty_rows(indices.len()),
            tail_products: OnceLock::new(),
        }
    }

    /// Concatenation of two bases over the same degree.
    ///
    /// # Panics
    ///
    /// Panics if the degrees differ or a limb appears in both.
    pub fn concat(&self, other: &RnsBasis) -> RnsBasis {
        assert_eq!(self.degree, other.degree, "degree mismatch");
        for m in other.moduli() {
            assert!(
                !self.moduli.iter().any(|x| x.value() == m.value()),
                "limb {} duplicated in concat",
                m.value()
            );
        }
        RnsBasis {
            moduli: [self.moduli.clone(), other.moduli.clone()].concat(),
            ntt_tables: [self.ntt_tables.clone(), other.ntt_tables.clone()].concat(),
            degree: self.degree,
            drop_inv: empty_rows(self.len() + other.len()),
            tail_products: OnceLock::new(),
        }
    }

    /// `q_last⁻¹ mod q_i` for every limb `i` before the last, with Shoup
    /// companions: what `Rescale` multiplies by after dropping the last
    /// limb.
    pub(crate) fn drop_last_inverses(&self) -> &[ShoupPair] {
        let last = self.len() - 1;
        self.drop_inv[last].get_or_init(|| {
            let q_last = self.moduli[last].value();
            self.moduli[..last]
                .iter()
                .map(|qi| {
                    let inv = qi.inv(qi.reduce(q_last)).expect("limb moduli are coprime");
                    ShoupPair::new(qi, inv)
                })
                .collect()
        })
    }

    /// `∏_{j ≥ split} q_j mod q_i` for every limb `i < split`, with Shoup
    /// companions: `[P]_{q_i}` when this basis is `B ∪ B'` and `B` has
    /// `split` limbs.
    pub(crate) fn tail_products(&self, split: usize) -> &[ShoupPair] {
        &self.tail_products.get_or_init(|| {
            (0..self.len())
                .map(|split| {
                    self.moduli[..split]
                        .iter()
                        .map(|qi| {
                            let p = self.moduli[split..]
                                .iter()
                                .fold(1u64, |acc, pj| qi.mul(acc, qi.reduce(pj.value())));
                            ShoupPair::new(qi, p)
                        })
                        .collect()
                })
                .collect()
        })[split]
    }

    /// CRT-reconstructs the integer in `[0, Q)` with residues `residues`
    /// (one per limb). Exact; used by decoding and tests.
    ///
    /// # Panics
    ///
    /// Panics if `residues.len() != self.len()`.
    pub fn crt_reconstruct(&self, residues: &[u64]) -> UBig {
        assert_eq!(residues.len(), self.len(), "residue count mismatch");
        // Garner-style mixed-radix reconstruction.
        // x = v_1 + v_2 q_1 + v_3 q_1 q_2 + …
        let l = self.len();
        let mut v = vec![0u64; l];
        for i in 0..l {
            let qi = &self.moduli[i];
            let mut t = qi.reduce(residues[i]);
            // subtract contribution of earlier digits, divide by earlier moduli
            for j in 0..i {
                let qj_mod_qi = qi.reduce(self.moduli[j].value());
                t = qi.sub(t, qi.reduce(v[j]));
                let inv = qi.inv(qj_mod_qi).expect("distinct primes are coprime");
                t = qi.mul(t, inv);
            }
            v[i] = t;
        }
        let mut acc = UBig::zero();
        let mut radix = UBig::one();
        for i in 0..l {
            let mut term = radix.clone();
            term.mul_small(v[i]);
            acc.add_assign(&term);
            radix.mul_small(self.moduli[i].value());
        }
        acc
    }
}

/// The widest source basis a [`BasisExtender`] converts from: a slot's
/// per-limb terms live in fixed-size stack arrays of this length. In CKKS
/// the source is one key-switch digit (or the special basis, as wide), so
/// this bounds a parameter set's `α`.
pub const MAX_SOURCE_LIMBS: usize = 64;

/// Precomputed fast basis extension from a source basis `B` to a target
/// basis `B'` (Eq. 1 of the paper, `NewLimb`).
///
/// The raw sum `Σ_i [x·Q̃_i]_{q_i} · Q_i^*` equals `x + e·Q` for an excess
/// `e ∈ [0, ℓ)`. We remove `e` with the standard floating-point estimate
/// `e = ⌊Σ_i y_i / q_i⌉` (exact for word-sized primes and
/// `ℓ ≤` [`MAX_SOURCE_LIMBS`]), so
/// [`BasisExtender::extend_coeff`] returns the *exact* representative
/// `[x]_p` of the source value `x ∈ [0, Q)`.
///
/// Each output costs `ℓ` multiply-accumulates into a 128-bit sum, **one**
/// Barrett reduction of that sum (or one per `lazy_terms` products when
/// the primes are wide enough that `ℓ` of them would overflow it), and a
/// table lookup for `e·Q mod p_j`.
#[derive(Clone)]
pub struct BasisExtender {
    /// `Q̃_i = (Q/q_i)^{-1} mod q_i` with Shoup companions, one per source
    /// limb.
    q_tilde: Vec<ShoupPair>,
    /// `1 / q_i` as `f64`, for the excess estimate.
    q_inv_f64: Vec<f64>,
    /// `Q_i^* = Q/q_i mod p_j`, indexed `[target][source]`.
    q_star: Vec<Vec<u64>>,
    /// `e·Q mod p_j` for every excess the estimate can return,
    /// `e ∈ 0..=source_len`, indexed `[target][e]` — subtracting the excess
    /// is a lookup, not a multiply.
    excess: Vec<Vec<u64>>,
    /// Products `y_i·Q_i^*` that fit one 128-bit sum (plus a carried
    /// residue) between reductions — from the widest source and target
    /// limb, see [`lazy_products`].
    lazy_terms: usize,
    source_moduli: Vec<Modulus>,
    target_moduli: Vec<Modulus>,
}

impl fmt::Debug for BasisExtender {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BasisExtender")
            .field("source_limbs", &self.source_moduli.len())
            .field("target_limbs", &self.target_moduli.len())
            .finish()
    }
}

impl BasisExtender {
    /// Precomputes conversion constants from `source` to `target`.
    ///
    /// # Panics
    ///
    /// Panics if the bases share a limb (extension to an overlapping basis
    /// is a logic error in the caller).
    pub fn new(source: &RnsBasis, target: &RnsBasis) -> Self {
        for m in target.moduli() {
            assert!(
                !source.moduli().iter().any(|x| x.value() == m.value()),
                "target limb {} overlaps source basis",
                m.value()
            );
        }
        let l = source.len();
        let mut q_tilde = Vec::with_capacity(l);
        for i in 0..l {
            let qi = source.modulus(i);
            // Q_i^* mod q_i = ∏_{j≠i} q_j mod q_i
            let mut prod = 1u64;
            for j in 0..l {
                if j != i {
                    prod = qi.mul(prod, qi.reduce(source.modulus(j).value()));
                }
            }
            let inv = qi.inv(prod).expect("limb primes are coprime");
            q_tilde.push(ShoupPair::new(qi, inv));
        }
        let mut q_star = Vec::with_capacity(target.len());
        let mut q_mod_target = Vec::with_capacity(target.len());
        for pj in target.moduli() {
            let mut row = vec![0u64; l];
            for i in 0..l {
                let mut prod = 1u64;
                for j in 0..l {
                    if j != i {
                        prod = pj.mul(prod, pj.reduce(source.modulus(j).value()));
                    }
                }
                row[i] = prod;
            }
            let mut qm = 1u64;
            for j in 0..l {
                qm = pj.mul(qm, pj.reduce(source.modulus(j).value()));
            }
            q_star.push(row);
            q_mod_target.push(qm);
        }
        // The float estimate of Σ y_i/q_i can round up to ℓ itself, never
        // past it, so ℓ + 1 entries cover every excess.
        let excess = target
            .moduli()
            .iter()
            .zip(&q_mod_target)
            .map(|(pj, &qm)| (0..=l as u64).map(|e| pj.mul(pj.reduce(e), qm)).collect())
            .collect();
        let widest = |moduli: &[Modulus]| moduli.iter().map(Modulus::bits).max().unwrap_or(0);
        let lazy_terms = lazy_products(widest(source.moduli()), widest(target.moduli()));
        let q_inv_f64 = source
            .moduli()
            .iter()
            .map(|m| 1.0 / m.value() as f64)
            .collect();
        Self {
            q_tilde,
            q_inv_f64,
            q_star,
            excess,
            lazy_terms,
            source_moduli: source.moduli().to_vec(),
            target_moduli: target.moduli().to_vec(),
        }
    }

    /// Borrowed view of the precomputed constants, in the shape
    /// [`UnrolledBackend::basis_ext_block`] consumes.
    #[inline]
    pub fn view(&self) -> BasisExtView<'_> {
        BasisExtView {
            q_tilde: &self.q_tilde,
            q_inv_f64: &self.q_inv_f64,
            q_star: &self.q_star,
            excess: &self.excess,
            lazy_terms: self.lazy_terms,
            source_moduli: &self.source_moduli,
            target_moduli: &self.target_moduli,
        }
    }

    /// Number of source limbs.
    #[inline]
    pub fn source_len(&self) -> usize {
        self.source_moduli.len()
    }

    /// Number of target limbs.
    #[inline]
    pub fn target_len(&self) -> usize {
        self.target_moduli.len()
    }

    /// Applies `NewLimb` to one coefficient: given `residues[i] = [x]_{q_i}`
    /// for the representative `x ∈ [0, Q)`, writes `[x]_{p_j}` for each
    /// target limb `j` (exact; see the type-level docs). This is the
    /// reference kernel ([`ScalarBackend`]) on a one-slot buffer.
    ///
    /// # Panics
    ///
    /// Panics if `residues.len() != self.source_len()`.
    pub fn extend_coeff(&self, residues: &[u64], out: &mut [u64]) {
        assert_eq!(residues.len(), self.source_len());
        assert_eq!(out.len(), self.target_len());
        assert!(
            residues.len() <= MAX_SOURCE_LIMBS,
            "source basis of {} limbs exceeds MAX_SOURCE_LIMBS",
            residues.len()
        );
        let mut cols: Vec<&mut [u64]> = out.chunks_exact_mut(1).collect();
        ScalarBackend.basis_ext_block(&self.view(), residues, 1, 0..1, &mut cols);
    }

    /// Applies `NewLimb` across entire flat limb-major buffers: `src` holds
    /// the `source_len()` limbs of length `n` back to back, and the
    /// `target_len()` result limbs are written to `dst` in the same layout.
    ///
    /// # Panics
    ///
    /// Panics on any length mismatch.
    pub fn extend_flat(&self, src: &[u64], dst: &mut [u64], n: usize) {
        assert_eq!(
            dst.len(),
            self.target_len() * n,
            "target buffer length mismatch"
        );
        let mut cols: Vec<&mut [u64]> = dst.chunks_exact_mut(n).collect();
        self.extend_columns(src, &mut cols);
    }

    /// [`BasisExtender::extend_flat`] with each target limb written where
    /// the caller wants it: `cols[j]` receives target limb `j`, so a
    /// conversion can land directly in the (non-contiguous) limbs of a
    /// larger polynomial instead of in a temporary that is then copied.
    ///
    /// This is the slot-wise access pattern of the paper: the inner loop
    /// walks all source limbs of one slot, and all per-slot state lives on
    /// the stack.
    ///
    /// # Panics
    ///
    /// Panics on any length mismatch.
    pub fn extend_columns(&self, src: &[u64], cols: &mut [&mut [u64]]) {
        let l = self.source_len();
        let t = self.target_len();
        assert_eq!(cols.len(), t, "target column count mismatch");
        let n = cols.first().map_or(0, |c| c.len());
        assert!(
            cols.iter().all(|c| c.len() == n),
            "target columns differ in length"
        );
        assert_eq!(src.len(), l * n, "source buffer length mismatch");
        assert!(
            l <= MAX_SOURCE_LIMBS,
            "source basis of {l} limbs exceeds MAX_SOURCE_LIMBS"
        );
        // Telemetry is recorded here, in logical units: the kernel records
        // nothing.
        crate::telemetry::record_basis_ext(l as u64, t as u64, n as u64);
        let ext = self.view();
        UnrolledBackend.basis_ext_block(&ext, src, n, cols);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::{generate_ntt_primes, generate_ntt_primes_excluding};

    fn bases(src_limbs: usize, dst_limbs: usize, bits: u32, n: usize) -> (RnsBasis, RnsBasis) {
        let src_primes = generate_ntt_primes(src_limbs, bits, n);
        let dst_primes = generate_ntt_primes_excluding(dst_limbs, bits + 1, n, &src_primes);
        (
            RnsBasis::new(&src_primes, n).unwrap(),
            RnsBasis::new(&dst_primes, n).unwrap(),
        )
    }

    #[test]
    fn constructor_validates() {
        assert!(matches!(RnsBasis::new(&[], 8), Err(RnsError::Empty)));
        let q = generate_ntt_primes(1, 20, 8)[0];
        assert!(matches!(
            RnsBasis::new(&[q, q], 8),
            Err(RnsError::DuplicateLimb(_))
        ));
        assert!(matches!(
            RnsBasis::new(&[91], 8),
            Err(RnsError::BadLimb(91))
        ));
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_SOURCE_LIMBS")]
    fn extend_coeff_rejects_a_source_past_max_source_limbs() {
        let (src, dst) = bases(MAX_SOURCE_LIMBS + 1, 1, 30, 8);
        let ext = BasisExtender::new(&src, &dst);
        ext.extend_coeff(&[0; MAX_SOURCE_LIMBS + 1], &mut [0]);
    }

    #[test]
    fn crt_reconstruct_roundtrips_small_values() {
        let primes = generate_ntt_primes(3, 20, 16);
        let basis = RnsBasis::new(&primes, 16).unwrap();
        for value in [0u64, 1, 42, 123456789, u32::MAX as u64] {
            let residues: Vec<u64> = primes.iter().map(|&q| value % q).collect();
            assert_eq!(basis.crt_reconstruct(&residues), UBig::from(value));
        }
    }

    #[test]
    fn crt_reconstruct_large_value() {
        let primes = generate_ntt_primes(4, 30, 16);
        let basis = RnsBasis::new(&primes, 16).unwrap();
        // x = Q - 1 has residues q_i - 1.
        let residues: Vec<u64> = primes.iter().map(|&q| q - 1).collect();
        let mut expect = basis.product();
        expect.sub_assign(&UBig::one());
        assert_eq!(basis.crt_reconstruct(&residues), expect);
    }

    #[test]
    fn extension_exact_for_small_values() {
        let (src, dst) = bases(3, 2, 25, 16);
        let ext = BasisExtender::new(&src, &dst);
        for value in [0u64, 1, 7, 1 << 20, (1 << 24) - 3] {
            let residues: Vec<u64> = src.moduli().iter().map(|m| value % m.value()).collect();
            let mut out = vec![0u64; 2];
            ext.extend_coeff(&residues, &mut out);
            for (j, m) in dst.moduli().iter().enumerate() {
                assert_eq!(out[j], value % m.value(), "value={value} target={j}");
            }
        }
    }

    #[test]
    fn extension_exact_for_arbitrary_residues() {
        let (src, dst) = bases(4, 2, 22, 16);
        let ext = BasisExtender::new(&src, &dst);
        // Pseudo-random residue vectors spanning the full range of [0, Q):
        // reconstruct x exactly and check the converted value equals
        // x mod p with no excess (the float correction removes e·Q).
        for seed in 0..200u64 {
            let residues: Vec<u64> = src
                .moduli()
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    (seed.wrapping_mul(0x9e3779b97f4a7c15) ^ (i as u64 * 0x85ebca6b)) % m.value()
                })
                .collect();
            let x = src.crt_reconstruct(&residues);
            let mut out = vec![0u64; dst.len()];
            ext.extend_coeff(&residues, &mut out);
            for (j, m) in dst.moduli().iter().enumerate() {
                assert_eq!(out[j], x.rem_u64(m.value()), "seed={seed} target={j}");
            }
        }
    }

    #[test]
    fn extend_flat_matches_per_coeff() {
        let (src, dst) = bases(3, 3, 24, 32);
        let ext = BasisExtender::new(&src, &dst);
        let n = 32;
        let mut flat = vec![0u64; src.len() * n];
        for i in 0..src.len() {
            let m = src.modulus(i);
            for k in 0..n as u64 {
                flat[i * n + k as usize] = (k * 31 + i as u64 * 7 + 1) % m.value();
            }
        }
        let mut dst_flat = vec![0u64; dst.len() * n];
        ext.extend_flat(&flat, &mut dst_flat, n);
        for k in 0..n {
            let residues: Vec<u64> = (0..src.len()).map(|i| flat[i * n + k]).collect();
            let mut out = vec![0u64; dst.len()];
            ext.extend_coeff(&residues, &mut out);
            for j in 0..dst.len() {
                assert_eq!(dst_flat[j * n + k], out[j]);
            }
        }
    }

    #[test]
    fn prefix_and_concat() {
        let (src, dst) = bases(3, 2, 24, 16);
        let p = src.prefix(2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.modulus(0).value(), src.modulus(0).value());
        let joined = src.concat(&dst);
        assert_eq!(joined.len(), 5);
        assert_eq!(joined.modulus(4).value(), dst.modulus(1).value());
    }

    #[test]
    #[should_panic(expected = "duplicated in concat")]
    fn concat_rejects_overlap() {
        let (src, _) = bases(3, 2, 24, 16);
        let _ = src.concat(&src.prefix(1));
    }
}
