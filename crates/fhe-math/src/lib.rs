#![warn(missing_docs)]
// The one exception is `ifma`, the AVX-512 lane bodies of the kernels and
// of the limb codec.
#![deny(unsafe_code)]
// Hot kernels index several slices in lockstep (limbs, roots, outputs);
// the explicit-index form mirrors the paper's pseudocode and stays clear.
#![allow(clippy::needless_range_loop)]

//! Number-theoretic substrate for RNS-CKKS fully homomorphic encryption.
//!
//! This crate provides the low-level building blocks that the `ckks` scheme
//! and the `simfhe` cost model are calibrated against:
//!
//! - [`modular`]: arithmetic in 64-bit prime fields (Barrett reduction,
//!   Shoup multiplication, modular inverses and exponentiation).
//! - [`backend`]: every hot kernel (NTT butterflies, pointwise modmul,
//!   fused basis extension, the key-switch inner product, the single-word
//!   streaming passes) — the production [`backend::UnrolledBackend`],
//!   whose transforms are radix-4 lazy-reduction sweeps with the short
//!   stages held in registers, every kernel on AVX-512 IFMA lanes for
//!   moduli below `2^50` where the CPU has them, and
//!   the fully-reduced [`backend::ScalarBackend`] reference it is tested
//!   against.
//! - [`prime`]: deterministic Miller–Rabin primality testing and generation
//!   of NTT-friendly primes (`q ≡ 1 mod 2N`).
//! - [`ntt`]: negacyclic number-theoretic transforms over
//!   `Z_q[x]/(x^N + 1)`, the *limb-wise* data-access-pattern kernels of the
//!   MAD paper (Table 3).
//! - [`rns`]: residue-number-system bases and the fast basis-extension
//!   (`NewLimb`, Eq. 1 of the paper), the *slot-wise* kernels.
//! - [`poly`]: RNS polynomials with explicit coefficient/evaluation
//!   representation tracking, plus the `ModUp`/`ModDown`/`Rescale`/`PModUp`
//!   ring operations (Algorithms 1, 2 and 5 of the paper).
//! - [`automorph`]: Galois automorphisms `x ↦ x^k` in both representations,
//!   used by `Rotate` and `Conjugate`.
//! - [`cfft`]: the complex "special" FFT over the canonical embedding used
//!   by the CKKS encoder.
//! - [`codec`]: the limb codec every wire format packs residues with, each
//!   word at its modulus's byte width, on AVX-512 VBMI lanes where the CPU
//!   has them.
//! - [`bigint`]: a minimal arbitrary-precision unsigned integer used for CRT
//!   reconstruction in decoding and in tests.
//! - [`sampling`]: secret/noise distributions (ternary, centered binomial,
//!   rounded Gaussian), uniform limbs, and the seeded expansion
//!   ([`sampling::SeededUniform`]) that regenerates a compressed key's
//!   `a_j` — every limb, or only those a level reads — and a fresh
//!   ciphertext's `c_1`, into caller buffers, each limb its own eight
//!   generators, on IFMA lanes where it can.
//! - [`scratch`]: the reusable buffer pool behind the allocation-free hot
//!   paths.
//! - [`parallel`]: only `compiled()`, always `false` — every kernel call
//!   runs on its caller's thread; kept for the benchmark header that
//!   prints it.
//! - [`telemetry`]: op-count/traffic counters, measurement spans and the
//!   ordered memory-access trace, in every build, used to cross-validate
//!   the `simfhe` cost model and to time a served request's kernel spans.
//!
//! # Example
//!
//! Multiply two polynomials in `Z_q[x]/(x^8 + 1)` via the NTT:
//!
//! ```
//! use fhe_math::{ntt::NttTable, prime::generate_ntt_primes};
//!
//! let q = generate_ntt_primes(1, 40, 8)[0];
//! let table = NttTable::new(q, 8).expect("NTT-friendly prime");
//! let mut a = vec![1u64, 2, 3, 4, 5, 6, 7, 8];
//! let mut b = vec![2u64, 0, 0, 0, 0, 0, 0, 0];
//! table.forward(&mut a);
//! table.forward(&mut b);
//! let mut c: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| table.modulus().mul(x, y)).collect();
//! table.inverse(&mut c);
//! assert_eq!(c, vec![2, 4, 6, 8, 10, 12, 14, 16]);
//! ```

pub mod automorph;
pub mod backend;
pub mod bigint;
pub mod cfft;
pub mod codec;
#[allow(unsafe_code)]
mod ifma;
pub mod modular;
pub mod ntt;
pub mod parallel;
pub mod poly;
pub mod prime;
pub mod rns;
pub mod sampling;
pub mod scratch;
pub mod telemetry;

pub use backend::ShoupPair;
pub use modular::Modulus;
pub use ntt::NttTable;
pub use poly::{Representation, RnsPoly};
pub use rns::RnsBasis;
pub use scratch::{ScratchPool, ScratchStats};
