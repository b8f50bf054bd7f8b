#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Hot kernels index several slices in lockstep (limbs, roots, outputs);
// the explicit-index form mirrors the paper's pseudocode and stays clear.
#![allow(clippy::needless_range_loop)]

//! A functional RNS-CKKS homomorphic encryption library.
//!
//! This crate implements the CKKS scheme exactly as analyzed by the MAD
//! paper (MICRO '23): full-RNS arithmetic, hybrid (Han–Ki) key switching
//! with `dnum` digits, slot rotations via Galois automorphisms, hoisted
//! rotations, BSGS plaintext matrix–vector products, Chebyshev polynomial
//! evaluation, and CKKS bootstrapping. It serves two roles:
//!
//! 1. A usable approximate-arithmetic FHE library at test/demo scale.
//! 2. The semantic ground truth for the `simfhe` cost model: each MAD
//!    algorithmic optimization (`ModDown` merge, `ModDown` hoisting, key
//!    compression) exists here as an alternative execution path whose
//!    output is asserted equal (within noise) to the unoptimized path.
//!
//! # Quickstart
//!
//! ```
//! use ckks::{CkksContext, CkksParams, Decryptor, Encoder, Encryptor, Evaluator, KeyGenerator};
//! use fhe_math::cfft::Complex;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let ctx = CkksContext::new(
//!     CkksParams::builder()
//!         .log_degree(6)
//!         .levels(3)
//!         .scale_bits(32)
//!         .first_modulus_bits(40)
//!         .build()
//!         .unwrap(),
//! );
//! let mut rng = StdRng::seed_from_u64(1);
//! let keygen = KeyGenerator::new(ctx.clone());
//! let sk = keygen.secret_key(&mut rng);
//! let encoder = Encoder::new(ctx.clone());
//! let encryptor = Encryptor::new(ctx.clone());
//! let decryptor = Decryptor::new(ctx.clone());
//! let evaluator = Evaluator::new(ctx.clone());
//!
//! let values = vec![Complex::new(1.5, 0.0), Complex::new(-2.0, 0.5)];
//! let pt = encoder.encode(&values, 3, ctx.params().scale()).unwrap();
//! let ct = encryptor.encrypt_symmetric(&mut rng, &pt, &sk);
//! let doubled = evaluator.add(&ct, &ct);
//! let back = encoder.decode(&decryptor.decrypt(&doubled, &sk));
//! assert!((back[0].re - 3.0).abs() < 1e-5);
//! ```

pub mod bootstrap;
pub mod context;
pub mod encoding;
pub mod encrypt;
pub mod hoisting;
pub mod keys;
pub mod keyswitch;
pub mod noise;
pub mod ops;
pub mod params;
pub mod plaintext;
pub mod polyeval;
pub mod serialize;

pub use context::CkksContext;
pub use encoding::Encoder;
pub use encrypt::{Decryptor, Encryptor};
pub use keys::{GaloisKeys, KeyGenerator, PublicKey, RelinKey, SecretKey, SwitchingKey};
pub use ops::Evaluator;
pub use params::CkksParams;
pub use plaintext::{Ciphertext, Plaintext};
