//! Binary serialization for plaintexts, ciphertexts, switching keys, and
//! Galois (rotation) key bundles.
//!
//! The switching-key format makes the paper's **key compression**
//! (§3.2) concrete: a seeded key serializes as the 32-byte seed plus only
//! the `b` polynomials — exactly half the bytes of an expanded key — and
//! deserialization regenerates every `a_j` from the seed. This is the
//! "transfer the short PRNG key in place of the first switching key
//! polynomial" folklore the paper measures. [`serialize_galois_keys`]
//! extends the same trade to a whole rotation-key set, so a client can
//! ship every hoisting key in one framed message and the server can keep
//! them compressed until an operation actually needs one.
//!
//! Format (little-endian throughout): a 4-byte magic, a format version,
//! the shape header (degree, limb count, limb moduli for validation), the
//! scale as IEEE-754 bits, then the raw limb words.

use crate::context::CkksContext;
use crate::keys::{DigitKey, GaloisKeys, SwitchingKey};
use crate::plaintext::{Ciphertext, Plaintext};
use fhe_math::poly::{Representation, RnsPoly};
use fhe_math::rns::RnsBasis;
use fhe_math::ScratchPool;
use std::fmt;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"MADf";
const VERSION: u8 = 1;

/// Error from deserialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerializeError {
    /// The buffer is shorter than its header claims.
    Truncated,
    /// Magic mismatch or a malformed structural field.
    BadHeader,
    /// The magic matched but the format version is not supported.
    VersionMismatch(u8),
    /// The limb moduli do not match the context's chain.
    ModulusMismatch,
    /// A residue was out of range for its modulus.
    UnreducedResidue,
    /// A switching key's digit count (carried) is not the context's `dnum`.
    DigitCount(usize),
}

impl fmt::Display for SerializeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SerializeError::Truncated => write!(f, "buffer shorter than its header claims"),
            SerializeError::BadHeader => write!(f, "bad magic or malformed header"),
            SerializeError::VersionMismatch(v) => {
                write!(f, "unsupported format version {v} (expected {VERSION})")
            }
            SerializeError::ModulusMismatch => {
                write!(f, "limb moduli do not match the context")
            }
            SerializeError::UnreducedResidue => write!(f, "residue out of range"),
            SerializeError::DigitCount(d) => write!(f, "{d} key digits, not the context's dnum"),
        }
    }
}

impl std::error::Error for SerializeError {}

/// Appends `MADf` fields to a caller-owned buffer — a request frame or a
/// reply under construction, so a payload is written where it is sent from.
struct Writer<'a>(&'a mut Vec<u8>);

impl<'a> Writer<'a> {
    fn new(out: &'a mut Vec<u8>) -> Self {
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        Writer(out)
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// All limbs of `p`: one reserve, then the words converted a block at a
    /// time on the stack and appended — the destination is written once
    /// and never zero-filled first.
    fn poly_limbs(&mut self, p: &RnsPoly) {
        const BLOCK_WORDS: usize = 512;
        self.0.reserve(8 * p.flat().len());
        let mut block = [0u8; 8 * BLOCK_WORDS];
        for words in p.flat().chunks(BLOCK_WORDS) {
            let bytes = &mut block[..8 * words.len()];
            for (dst, &x) in bytes.chunks_exact_mut(8).zip(words) {
                dst.copy_from_slice(&x.to_le_bytes());
            }
            self.0.extend_from_slice(bytes);
        }
    }
}

/// True when every word of `limb` is a residue below `q`, in one
/// branch-free pass. Supported moduli are below `2^62`, so `x < q` exactly
/// when `x − q` wraps negative while `x` itself has a clear top bit: the
/// AND of `(x − q) & !x` over the limb keeps its sign bit iff no word is
/// out of range. (A `max` fold decides the same thing but serializes on
/// its compare — it measured slower than a branch per coefficient.)
fn all_below(limb: impl IntoIterator<Item = u64>, q: u64) -> bool {
    debug_assert!(q < 1 << 62);
    let ok = limb
        .into_iter()
        .fold(u64::MAX, |ok, x| ok & x.wrapping_sub(q) & !x);
    ok >> 63 == 1
}

/// The words of a limb as written.
fn words(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes
        .chunks_exact(8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
}

/// Appends one limb's words, `bytes` as written, to `flat`: bulk word
/// copy, then the range check over the limb while it is still in cache.
fn read_limb(bytes: &[u8], q: u64, flat: &mut Vec<u64>) -> Result<(), SerializeError> {
    let at = flat.len();
    flat.extend(words(bytes));
    if all_below(flat[at..].iter().copied(), q) {
        Ok(())
    } else {
        Err(SerializeError::UnreducedResidue)
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Result<Self, SerializeError> {
        if buf.len() < 5 {
            return Err(SerializeError::Truncated);
        }
        if &buf[..4] != MAGIC {
            return Err(SerializeError::BadHeader);
        }
        if buf[4] != VERSION {
            return Err(SerializeError::VersionMismatch(buf[4]));
        }
        Ok(Reader { buf, pos: 5 })
    }
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], SerializeError> {
        let rest = &self.buf[self.pos..];
        if n > rest.len() {
            return Err(SerializeError::Truncated);
        }
        self.pos += n;
        Ok(&rest[..n])
    }
    fn u32(&mut self) -> Result<u32, SerializeError> {
        Ok(u32::from_le_bytes(
            self.bytes(4)?.try_into().expect("4 bytes"),
        ))
    }
    fn u64(&mut self) -> Result<u64, SerializeError> {
        Ok(u64::from_le_bytes(
            self.bytes(8)?.try_into().expect("8 bytes"),
        ))
    }
    /// Appends the limbs of one polynomial over `basis` to `flat`, a limb
    /// at a time ([`read_limb`]).
    fn limbs(&mut self, basis: &RnsBasis, flat: &mut Vec<u64>) -> Result<(), SerializeError> {
        let n = basis.degree();
        for m in basis.moduli() {
            read_limb(self.bytes(8 * n)?, m.value(), flat)?;
        }
        Ok(())
    }
    /// One polynomial over `basis`. With a `pool`, its storage is leased
    /// there — for a request-scoped operand, whose holder recycles it so
    /// the next decode or kernel output leases the same buffer. Without,
    /// it is the caller's own heap buffer: a result a client keeps, or a
    /// switching key, which the key cache owns until eviction frees it
    /// (leasing those would drain the pool of the buffers kernels need
    /// back).
    fn poly(
        &mut self,
        basis: &Arc<RnsBasis>,
        pool: Option<&ScratchPool>,
    ) -> Result<RnsPoly, SerializeError> {
        let len = basis.len() * basis.degree();
        let mut flat = match pool {
            Some(pool) => pool.take_vec(len),
            None => Vec::with_capacity(len),
        };
        flat.clear();
        match self.limbs(basis, &mut flat) {
            Ok(()) => Ok(RnsPoly::from_flat(
                basis.clone(),
                flat,
                Representation::Evaluation,
            )),
            Err(e) => {
                if let Some(pool) = pool {
                    pool.recycle_vec(flat);
                }
                Err(e)
            }
        }
    }
    /// A ciphertext's two components behind its header and scale.
    fn ciphertext(
        mut self,
        ctx: &CkksContext,
        pool: Option<&ScratchPool>,
    ) -> Result<Ciphertext, SerializeError> {
        let basis = self.level_basis(ctx)?;
        let scale = f64::from_bits(self.u64()?);
        let c0 = self.poly(basis, pool)?;
        match self.poly(basis, pool) {
            Ok(c1) => Ok(Ciphertext::new(c0, c1, scale)),
            Err(e) => {
                if let Some(pool) = pool {
                    c0.recycle(pool);
                }
                Err(e)
            }
        }
    }
    /// A plaintext's polynomial behind its header and scale.
    fn plaintext(
        mut self,
        ctx: &CkksContext,
        pool: Option<&ScratchPool>,
    ) -> Result<Plaintext, SerializeError> {
        let basis = self.level_basis(ctx)?;
        let scale = f64::from_bits(self.u64()?);
        let poly = self.poly(basis, pool)?;
        Ok(Plaintext { poly, scale })
    }
    /// The level basis a ciphertext or plaintext header names by its limb
    /// count, with the header checked against it.
    fn level_basis<'c>(
        &mut self,
        ctx: &'c CkksContext,
    ) -> Result<&'c Arc<RnsBasis>, SerializeError> {
        let basis = ctx.level_basis(header_limbs(ctx, self.buf)?);
        check_basis_header(self, basis)?;
        Ok(basis)
    }
}

/// The limb count a ciphertext or plaintext header names, peeked without
/// reading further: one of the context's levels, or an error.
fn header_limbs(ctx: &CkksContext, buf: &[u8]) -> Result<usize, SerializeError> {
    let ell = match buf.get(9..13) {
        Some(b) => u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize,
        None => return Err(SerializeError::Truncated),
    };
    if ell == 0 || ell > ctx.params().levels() {
        return Err(SerializeError::ModulusMismatch);
    }
    Ok(ell)
}

fn write_basis_header(w: &mut Writer<'_>, basis: &RnsBasis) {
    w.u32(basis.degree() as u32);
    w.u32(basis.len() as u32);
    for m in basis.moduli() {
        w.u64(m.value());
    }
}

fn check_basis_header(r: &mut Reader<'_>, basis: &RnsBasis) -> Result<(), SerializeError> {
    if r.u32()? as usize != basis.degree() || r.u32()? as usize != basis.len() {
        return Err(SerializeError::ModulusMismatch);
    }
    for m in basis.moduli() {
        if r.u64()? != m.value() {
            return Err(SerializeError::ModulusMismatch);
        }
    }
    Ok(())
}

/// Appends a ciphertext's wire form to `out`.
pub fn write_ciphertext(ct: &Ciphertext, out: &mut Vec<u8>) {
    let mut w = Writer::new(out);
    write_basis_header(&mut w, ct.c0().basis());
    w.u64(ct.scale().to_bits());
    w.poly_limbs(ct.c0());
    w.poly_limbs(ct.c1());
}

/// Serializes a ciphertext.
pub fn serialize_ciphertext(ct: &Ciphertext) -> Vec<u8> {
    let mut out = Vec::new();
    write_ciphertext(ct, &mut out);
    out
}

/// The limb count a serialized ciphertext's header names, read from the
/// header alone — what a server plans a request's keys at before it
/// decodes the operand. [`deserialize_ciphertext`] reads the same field,
/// so an operand that decodes has exactly this many limbs.
///
/// # Errors
///
/// [`SerializeError`] for a bad magic or version, a buffer too short for
/// the field, or a count outside the context's levels.
pub fn ciphertext_limb_count(ctx: &CkksContext, bytes: &[u8]) -> Result<usize, SerializeError> {
    Reader::new(bytes)?;
    header_limbs(ctx, bytes)
}

/// Deserializes a ciphertext against a context (the limb count selects the
/// level basis).
///
/// # Errors
///
/// Returns [`SerializeError`] on malformed input or a modulus-chain
/// mismatch.
pub fn deserialize_ciphertext(
    ctx: &CkksContext,
    bytes: &[u8],
) -> Result<Ciphertext, SerializeError> {
    Reader::new(bytes)?.ciphertext(ctx, None)
}

/// [`deserialize_ciphertext`] into storage leased from the context's
/// scratch pool: for an operand that lives as long as one request, whose
/// holder hands it back with [`Ciphertext::recycle`] — a server decoding
/// request after request then allocates for none of them.
///
/// # Errors
///
/// As [`deserialize_ciphertext`].
pub fn lease_ciphertext(ctx: &CkksContext, bytes: &[u8]) -> Result<Ciphertext, SerializeError> {
    Reader::new(bytes)?.ciphertext(ctx, Some(ctx.scratch()))
}

/// Appends a plaintext's wire form (one encoded polynomial plus its
/// scale) to `out`.
pub fn write_plaintext(pt: &Plaintext, out: &mut Vec<u8>) {
    let mut w = Writer::new(out);
    write_basis_header(&mut w, pt.poly().basis());
    w.u64(pt.scale().to_bits());
    w.poly_limbs(pt.poly());
}

/// Serializes a plaintext (one encoded polynomial plus its scale).
pub fn serialize_plaintext(pt: &Plaintext) -> Vec<u8> {
    let mut out = Vec::new();
    write_plaintext(pt, &mut out);
    out
}

/// Deserializes a plaintext against a context (the limb count selects the
/// level basis).
///
/// # Errors
///
/// Returns [`SerializeError`] on malformed input or a modulus-chain
/// mismatch.
pub fn deserialize_plaintext(ctx: &CkksContext, bytes: &[u8]) -> Result<Plaintext, SerializeError> {
    Reader::new(bytes)?.plaintext(ctx, None)
}

/// [`deserialize_plaintext`] into storage leased from the context's
/// scratch pool (see [`lease_ciphertext`]); hand it back with
/// [`Plaintext::recycle`].
///
/// # Errors
///
/// As [`deserialize_plaintext`].
pub fn lease_plaintext(ctx: &CkksContext, bytes: &[u8]) -> Result<Plaintext, SerializeError> {
    Reader::new(bytes)?.plaintext(ctx, Some(ctx.scratch()))
}

/// Appends a switching key's wire form to `out`. A seeded key is written
/// in compressed form: the seed plus only the `b` polynomials (half the
/// bytes); an unseeded key writes both polynomials per digit.
pub fn write_switching_key(key: &SwitchingKey, out: &mut Vec<u8>) {
    let mut w = Writer::new(out);
    let basis = key.digits[0].a.basis();
    write_basis_header(&mut w, basis);
    w.u32(key.digits.len() as u32);
    match key.seed {
        Some(seed) => {
            w.0.push(1);
            w.0.extend_from_slice(&seed);
            for d in &key.digits {
                w.poly_limbs(&d.b);
            }
        }
        None => {
            w.0.push(0);
            for d in &key.digits {
                w.poly_limbs(&d.a);
                w.poly_limbs(&d.b);
            }
        }
    }
}

/// Serializes a switching key (see [`write_switching_key`]).
pub fn serialize_switching_key(key: &SwitchingKey) -> Vec<u8> {
    let mut out = Vec::new();
    write_switching_key(key, &mut out);
    out
}

/// A switching key's wire form, parsed once: the header checked against
/// the context, the polynomials still bytes.
struct KeyWire<'a> {
    seed: Option<[u8; 32]>,
    /// The `a_j, b_j` of every digit, or only the `b_j` behind a seed, each
    /// `|Q ∪ P|` limbs of `N` words.
    polys: &'a [u8],
}

impl<'a> KeyWire<'a> {
    fn parse(ctx: &CkksContext, bytes: &'a [u8]) -> Result<Self, SerializeError> {
        let mut r = Reader::new(bytes)?;
        let full = ctx.full_basis();
        check_basis_header(&mut r, full)?;
        let digit_count = r.u32()? as usize;
        let dnum = ctx.params().dnum();
        if digit_count != dnum {
            return Err(SerializeError::DigitCount(digit_count));
        }
        let seed = match r.bytes(1)?[0] {
            0 => None,
            1 => Some(r.bytes(32)?.try_into().expect("32 bytes")),
            _ => return Err(SerializeError::BadHeader),
        };
        let per_digit = if seed.is_some() { 1 } else { 2 };
        let polys = r.bytes(per_digit * dnum * full.len() * 8 * full.degree())?;
        Ok(KeyWire { seed, polys })
    }

    /// Limb `i` of `Q ∪ P` of wire polynomial `p`, as bytes.
    fn limb(&self, ctx: &CkksContext, p: usize, i: usize) -> &'a [u8] {
        let full = ctx.full_basis();
        let limb_bytes = 8 * full.degree();
        let at = (p * full.len() + i) * limb_bytes;
        &self.polys[at..at + limb_bytes]
    }

    /// Whether every stored residue is below its modulus, nothing decoded.
    fn check(&self, ctx: &CkksContext) -> Result<(), SerializeError> {
        let full = ctx.full_basis();
        let polys = self.polys.len() / (8 * full.degree() * full.len());
        for p in 0..polys {
            for (i, m) in full.moduli().iter().enumerate() {
                if !all_below(words(self.limb(ctx, p, i)), m.value()) {
                    return Err(SerializeError::UnreducedResidue);
                }
            }
        }
        Ok(())
    }

    /// The key expanded at limb count `ell`: the `b_j` (and written `a_j`)
    /// of its digits decoded and checked at its limbs only, then a seed's
    /// `a_j` drawn at those limbs.
    fn expand(&self, ctx: &CkksContext, ell: usize) -> Result<SwitchingKey, SerializeError> {
        let (digits, limbs) = (ctx.key_digits_at(ell), ctx.key_limbs_at(ell));
        let basis = ctx.raised_basis(ell);
        let full = ctx.full_basis();
        let poly = |p: usize| -> Result<RnsPoly, SerializeError> {
            let mut flat = Vec::with_capacity(limbs.len() * full.degree());
            for &i in &limbs {
                read_limb(self.limb(ctx, p, i), full.modulus(i).value(), &mut flat)?;
            }
            Ok(RnsPoly::from_flat(
                basis.clone(),
                flat,
                Representation::Evaluation,
            ))
        };
        // The wire's polynomials are all read and checked before a seed is
        // expanded.
        let (a, b): (Vec<RnsPoly>, Vec<RnsPoly>) = match self.seed {
            Some(seed) => {
                let b = (0..digits).map(poly).collect::<Result<_, _>>()?;
                (ctx.seeded_key_a(seed, ell), b)
            }
            None => {
                let a = (0..digits).map(|j| poly(2 * j)).collect::<Result<_, _>>()?;
                let b = (0..digits).map(|j| poly(2 * j + 1));
                (a, b.collect::<Result<_, _>>()?)
            }
        };
        let digits = a.into_iter().zip(b).map(|(a, b)| DigitKey { a, b });
        Ok(SwitchingKey {
            digits: digits.collect(),
            seed: self.seed,
        })
    }
}

/// Deserializes a switching key, regenerating the `a` components from the
/// seed when the key was written in compressed form: the whole key, the
/// top-level case of [`deserialize_switching_key_at`].
///
/// # Errors
///
/// Returns [`SerializeError`] on malformed input, a modulus-chain mismatch,
/// or a digit count other than the context's `dnum`.
pub fn deserialize_switching_key(
    ctx: &CkksContext,
    bytes: &[u8],
) -> Result<SwitchingKey, SerializeError> {
    deserialize_switching_key_at(ctx, bytes, ctx.params().levels())
}

/// Deserializes a switching key expanded at limb count `ell`: the
/// [`CkksContext::key_digits_at`] digits a key switch at up to `ell` limbs
/// reads, over `Q_ℓ ∪ P`. Only those limbs are decoded and range-checked,
/// and only those of a seeded key's `a_j` regenerated; the rest of the
/// wire form is checked only for its length (see [`check_switching_key`]).
/// Such a key gives every key switch at `ell` limbs or fewer the bits the
/// whole key gives, and is not itself a wire form: serialize the whole key.
///
/// # Errors
///
/// As [`deserialize_switching_key`].
///
/// # Panics
///
/// Panics if `ell` is zero or exceeds `L`.
pub fn deserialize_switching_key_at(
    ctx: &CkksContext,
    bytes: &[u8],
    ell: usize,
) -> Result<SwitchingKey, SerializeError> {
    KeyWire::parse(ctx, bytes)?.expand(ctx, ell)
}

/// Checks a switching key's wire form without expanding it: the header
/// against the context, a digit count of `dnum`, the length, and every
/// stored residue below its modulus — what a key must pass before a server
/// files it away and expands only the share of it a level reads.
///
/// # Errors
///
/// As [`deserialize_switching_key`], which accepts exactly the keys this
/// does.
pub fn check_switching_key(ctx: &CkksContext, bytes: &[u8]) -> Result<(), SerializeError> {
    KeyWire::parse(ctx, bytes)?.check(ctx)
}

/// Serializes a whole Galois (rotation) key set as one framed message:
/// a count followed by `(galois_element, length, switching-key bytes)`
/// entries. Each entry is a complete [`serialize_switching_key`] message,
/// so seeded keys stay at half size inside the bundle — the transferable
/// form of uploading every hoisting key at once.
pub fn serialize_galois_keys(keys: &GaloisKeys) -> Vec<u8> {
    let mut out = Vec::new();
    let mut w = Writer::new(&mut out);
    let mut entries: Vec<(u64, &SwitchingKey)> = keys.iter().collect();
    // Canonical element order so equal sets serialize identically.
    entries.sort_by_key(|&(k, _)| k);
    w.u32(entries.len() as u32);
    for (element, key) in entries {
        w.u64(element);
        // The entry's length is known only once the key is written:
        // reserve the field, write the key in place, fill it in.
        let len_at = w.0.len();
        w.u32(0);
        write_switching_key(key, w.0);
        let len = (w.0.len() - len_at - 4) as u32;
        w.0[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
    }
    out
}

/// Splits a serialized Galois key set into `(galois_element, key bytes)`
/// entries *without* expanding any key — each returned slice is a complete
/// switching-key message. This is what lets a server file keys away in
/// compressed form and regenerate them lazily.
///
/// # Errors
///
/// Returns [`SerializeError`] on malformed input.
pub fn galois_key_set_entries(bytes: &[u8]) -> Result<Vec<(u64, &[u8])>, SerializeError> {
    let mut r = Reader::new(bytes)?;
    let count = r.u32()? as usize;
    // A key entry is ≥ 16 bytes; cap the count by what could even fit.
    if count > bytes.len() / 16 {
        return Err(SerializeError::BadHeader);
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let element = r.u64()?;
        let len = r.u32()? as usize;
        entries.push((element, r.bytes(len)?));
    }
    Ok(entries)
}

/// Deserializes a Galois key set, regenerating seeded keys' `a` components
/// from their seeds.
///
/// # Errors
///
/// Returns [`SerializeError`] on malformed input or a modulus-chain
/// mismatch.
pub fn deserialize_galois_keys(
    ctx: &CkksContext,
    bytes: &[u8],
) -> Result<GaloisKeys, SerializeError> {
    let mut keys = GaloisKeys::default();
    for (element, key_bytes) in galois_key_set_entries(bytes)? {
        keys.insert(element, deserialize_switching_key(ctx, key_bytes)?);
    }
    Ok(keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Encoder;
    use crate::encrypt::{Decryptor, Encryptor};
    use crate::keys::KeyGenerator;
    use crate::ops::Evaluator;
    use crate::params::CkksParams;
    use fhe_math::cfft::Complex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ctx() -> Arc<CkksContext> {
        CkksContext::new(
            CkksParams::builder()
                .log_degree(5)
                .levels(3)
                .scale_bits(30)
                .first_modulus_bits(36)
                .dnum(2)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn ciphertext_roundtrip_bit_exact() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(10);
        let keygen = KeyGenerator::new(ctx.clone());
        let sk = keygen.secret_key(&mut rng);
        let encoder = Encoder::new(ctx.clone());
        let encryptor = Encryptor::new(ctx.clone());
        let pt = encoder
            .encode(&[Complex::new(0.5, -0.5)], 2, ctx.params().scale())
            .unwrap();
        let ct = encryptor.encrypt_symmetric(&mut rng, &pt, &sk);
        let bytes = serialize_ciphertext(&ct);
        let back = deserialize_ciphertext(&ctx, &bytes).unwrap();
        assert_eq!(back.limb_count(), ct.limb_count());
        assert_eq!(back.scale(), ct.scale());
        for i in 0..ct.limb_count() {
            assert_eq!(back.c0().limb(i), ct.c0().limb(i));
            assert_eq!(back.c1().limb(i), ct.c1().limb(i));
        }
    }

    #[test]
    fn compressed_key_is_half_the_bytes_and_still_works() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(11);
        let keygen = KeyGenerator::new(ctx.clone());
        let sk = keygen.secret_key(&mut rng);
        let plain_key = keygen.relin_key(&mut rng, &sk);
        let seeded_key = keygen.relin_key_compressed(&mut rng, &sk);

        let plain_bytes = serialize_switching_key(plain_key.switching_key());
        let compressed_bytes = serialize_switching_key(seeded_key.switching_key());
        // Header overhead aside, compressed ≈ half of expanded.
        assert!(
            (compressed_bytes.len() as f64) < 0.55 * plain_bytes.len() as f64,
            "{} vs {}",
            compressed_bytes.len(),
            plain_bytes.len()
        );

        // Deserialize and use for a real multiplication.
        let restored = deserialize_switching_key(&ctx, &compressed_bytes).unwrap();
        for (orig, got) in seeded_key
            .switching_key()
            .digits
            .iter()
            .zip(&restored.digits)
        {
            for i in 0..orig.a.limb_count() {
                assert_eq!(orig.a.limb(i), got.a.limb(i), "a must regenerate exactly");
                assert_eq!(orig.b.limb(i), got.b.limb(i));
            }
        }
        let encoder = Encoder::new(ctx.clone());
        let encryptor = Encryptor::new(ctx.clone());
        let decryptor = Decryptor::new(ctx.clone());
        let ev = Evaluator::new(ctx.clone());
        let pt = encoder
            .encode(&[Complex::new(0.7, 0.0)], 3, ctx.params().scale())
            .unwrap();
        let ct = encryptor.encrypt_symmetric(&mut rng, &pt, &sk);
        let rlk = crate::keys::RelinKey(restored);
        let sq = ev.mul(&ct, &ct, &rlk);
        let out = encoder.decode(&decryptor.decrypt(&sq, &sk));
        assert!((out[0].re - 0.49).abs() < 1e-3);
    }

    #[test]
    fn a_key_with_another_digit_count_is_rejected() {
        let ctx = ctx(); // dnum = 2
        let mut rng = StdRng::seed_from_u64(16);
        let keygen = KeyGenerator::new(ctx.clone());
        let sk = keygen.secret_key(&mut rng);
        let full = ctx.full_basis();
        let poly_bytes = 8 * full.len() * full.degree();
        let count_at = 5 + 8 + 8 * full.len();
        for (key, polys_per_digit) in [
            (keygen.relin_key_compressed(&mut rng, &sk), 1),
            (keygen.relin_key(&mut rng, &sk), 2),
        ] {
            let good = serialize_switching_key(key.switching_key());
            assert!(deserialize_switching_key(&ctx, &good).is_ok());
            // One digit fewer and one more, the bytes cut or padded to
            // match, as a tampered upload would be.
            for found in [1usize, 3] {
                let mut bytes = good.clone();
                bytes[count_at..count_at + 4].copy_from_slice(&(found as u32).to_le_bytes());
                let digit_bytes = polys_per_digit * poly_bytes;
                bytes.resize(good.len() - 2 * digit_bytes + found * digit_bytes, 0);
                assert_eq!(
                    deserialize_switching_key(&ctx, &bytes).err(),
                    Some(SerializeError::DigitCount(found))
                );
            }
        }
    }

    #[test]
    fn corrupted_inputs_are_rejected() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(12);
        let keygen = KeyGenerator::new(ctx.clone());
        let sk = keygen.secret_key(&mut rng);
        let encoder = Encoder::new(ctx.clone());
        let encryptor = Encryptor::new(ctx.clone());
        let pt = encoder
            .encode(&[Complex::new(1.0, 0.0)], 1, ctx.params().scale())
            .unwrap();
        let ct = encryptor.encrypt_symmetric(&mut rng, &pt, &sk);
        let good = serialize_ciphertext(&ct);

        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            deserialize_ciphertext(&ctx, &bad),
            Err(SerializeError::BadHeader)
        ));
        // Truncation.
        assert!(matches!(
            deserialize_ciphertext(&ctx, &good[..good.len() - 3]),
            Err(SerializeError::Truncated)
        ));
        // Unreduced residue: set a word to u64::MAX.
        let mut unred = good.clone();
        let last = unred.len() - 4;
        unred[last..].copy_from_slice(&[0xff; 4]);
        assert!(matches!(
            deserialize_ciphertext(&ctx, &unred),
            Err(SerializeError::UnreducedResidue) | Err(SerializeError::Truncated)
        ));
        // Wrong context (different primes).
        let other = CkksContext::new(
            CkksParams::builder()
                .log_degree(5)
                .levels(3)
                .scale_bits(31)
                .first_modulus_bits(37)
                .dnum(2)
                .build()
                .unwrap(),
        );
        assert!(matches!(
            deserialize_ciphertext(&other, &good),
            Err(SerializeError::ModulusMismatch)
        ));
    }

    #[test]
    fn version_mismatch_is_its_own_error() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(14);
        let keygen = KeyGenerator::new(ctx.clone());
        let sk = keygen.secret_key(&mut rng);
        let encoder = Encoder::new(ctx.clone());
        let encryptor = Encryptor::new(ctx.clone());
        let pt = encoder
            .encode(&[Complex::new(0.25, 0.0)], 1, ctx.params().scale())
            .unwrap();
        let ct = encryptor.encrypt_symmetric(&mut rng, &pt, &sk);
        let mut bytes = serialize_ciphertext(&ct);
        bytes[4] = VERSION + 1;
        assert!(matches!(
            deserialize_ciphertext(&ctx, &bytes),
            Err(SerializeError::VersionMismatch(v)) if v == VERSION + 1
        ));
        // A short buffer is Truncated, not a header error.
        assert!(matches!(
            deserialize_ciphertext(&ctx, &bytes[..3]),
            Err(SerializeError::Truncated)
        ));
    }

    #[test]
    fn plaintext_roundtrip_bit_exact() {
        let ctx = ctx();
        let encoder = Encoder::new(ctx.clone());
        let values: Vec<Complex> = (0..encoder.slots())
            .map(|i| Complex::new(0.1 * i as f64 - 0.4, (i as f64 * 0.7).sin()))
            .collect();
        let pt = encoder.encode(&values, 2, ctx.params().scale()).unwrap();
        let bytes = serialize_plaintext(&pt);
        let back = deserialize_plaintext(&ctx, &bytes).unwrap();
        assert_eq!(back.scale(), pt.scale());
        assert_eq!(back.limb_count(), pt.limb_count());
        for i in 0..pt.limb_count() {
            assert_eq!(back.poly().limb(i), pt.poly().limb(i));
        }
    }

    #[test]
    fn a_key_is_checked_whole_and_expanded_by_level() {
        let ctx = ctx(); // L = 3, α = k = 2, dnum = 2
        let mut rng = StdRng::seed_from_u64(17);
        let keygen = KeyGenerator::new(ctx.clone());
        let sk = keygen.secret_key(&mut rng);
        let full = ctx.full_basis();
        let limb_bytes = 8 * full.degree();
        let polys_at = 5 + 8 + 8 * full.len() + 4 + 1;
        for (key, seed_bytes) in [
            (keygen.relin_key_compressed(&mut rng, &sk), 32),
            (keygen.relin_key(&mut rng, &sk), 0),
        ] {
            let good = serialize_switching_key(key.switching_key());
            assert_eq!(check_switching_key(&ctx, &good), Ok(()));
            // An unreduced word in Q-limb 2 of the first wire polynomial: a
            // level-2 expansion never decodes it, the check and the whole
            // key do.
            let mut bad = good.clone();
            let at = polys_at + seed_bytes + 2 * limb_bytes;
            bad[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            assert!(deserialize_switching_key_at(&ctx, &bad, 2).is_ok());
            for err in [
                check_switching_key(&ctx, &bad).err(),
                deserialize_switching_key(&ctx, &bad).err(),
            ] {
                assert_eq!(err, Some(SerializeError::UnreducedResidue));
            }
            // A short key is short at every level.
            let cut = &good[..good.len() - 1];
            assert_eq!(
                check_switching_key(&ctx, cut),
                Err(SerializeError::Truncated)
            );
            assert_eq!(
                deserialize_switching_key_at(&ctx, cut, 1).err(),
                Some(SerializeError::Truncated)
            );
        }
    }

    #[test]
    fn the_limb_count_is_peeked_from_the_header() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(18);
        let sk = KeyGenerator::new(ctx.clone()).secret_key(&mut rng);
        let encoder = Encoder::new(ctx.clone());
        let encryptor = Encryptor::new(ctx.clone());
        for ell in 1..=3 {
            let pt = encoder
                .encode(&[Complex::new(0.5, 0.0)], ell, ctx.params().scale())
                .unwrap();
            let bytes = serialize_ciphertext(&encryptor.encrypt_symmetric(&mut rng, &pt, &sk));
            assert_eq!(ciphertext_limb_count(&ctx, &bytes), Ok(ell));
            // The header alone is enough.
            assert_eq!(ciphertext_limb_count(&ctx, &bytes[..13]), Ok(ell));
        }
        let mut bytes = vec![0; 13];
        bytes[..4].copy_from_slice(MAGIC);
        bytes[4] = VERSION;
        for (count, want) in [
            (0u32, Err(SerializeError::ModulusMismatch)),
            (4, Err(SerializeError::ModulusMismatch)),
            (2, Ok(2)),
        ] {
            bytes[9..13].copy_from_slice(&count.to_le_bytes());
            assert_eq!(ciphertext_limb_count(&ctx, &bytes), want);
        }
        assert_eq!(
            ciphertext_limb_count(&ctx, &bytes[..12]),
            Err(SerializeError::Truncated)
        );
        assert_eq!(
            ciphertext_limb_count(&ctx, b"nope"),
            Err(SerializeError::Truncated)
        );
    }

    #[test]
    fn galois_key_set_roundtrips_and_splits_without_expansion() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(15);
        let keygen = KeyGenerator::new(ctx.clone());
        let sk = keygen.secret_key(&mut rng);
        let gk = keygen.galois_keys_compressed(&mut rng, &sk, &[1, 2, -1], true);
        let bytes = serialize_galois_keys(&gk);

        // Splitting yields one compressed entry per key, cheaply.
        let entries = galois_key_set_entries(&bytes).unwrap();
        assert_eq!(entries.len(), gk.len());
        for (element, key_bytes) in &entries {
            assert!(gk.get(*element).is_some());
            let key = deserialize_switching_key(&ctx, key_bytes).unwrap();
            assert!(key.is_compressed());
        }

        // Full deserialization reproduces every key bit-exactly.
        let back = deserialize_galois_keys(&ctx, &bytes).unwrap();
        assert_eq!(back.len(), gk.len());
        for (element, key) in gk.iter() {
            let restored = back.get(element).unwrap();
            for (orig, got) in key.digits.iter().zip(&restored.digits) {
                for i in 0..orig.a.limb_count() {
                    assert_eq!(orig.a.limb(i), got.a.limb(i));
                    assert_eq!(orig.b.limb(i), got.b.limb(i));
                }
            }
        }

        // Corrupt bundle headers are rejected, not panicked on.
        let mut bad = bytes.clone();
        bad[5] = 0xff; // absurd count
        assert!(galois_key_set_entries(&bad).is_err());
        assert!(matches!(
            galois_key_set_entries(&bytes[..bytes.len() - 9]),
            Err(SerializeError::Truncated)
        ));
    }

    /// The writer this module had before the bulk one — a word at a time,
    /// field by field — kept as the reference the bulk writer must match
    /// byte for byte.
    struct Reference(Vec<u8>);

    impl Reference {
        fn header(basis: &RnsBasis) -> Self {
            let mut out = MAGIC.to_vec();
            out.push(VERSION);
            out.extend_from_slice(&(basis.degree() as u32).to_le_bytes());
            out.extend_from_slice(&(basis.len() as u32).to_le_bytes());
            for m in basis.moduli() {
                out.extend_from_slice(&m.value().to_le_bytes());
            }
            Reference(out)
        }
        fn poly(&mut self, p: &RnsPoly) {
            for i in 0..p.limb_count() {
                for &x in p.limb(i) {
                    self.0.extend_from_slice(&x.to_le_bytes());
                }
            }
        }
        fn ciphertext(ct: &Ciphertext) -> Vec<u8> {
            let mut w = Self::header(ct.c0().basis());
            w.0.extend_from_slice(&ct.scale().to_bits().to_le_bytes());
            w.poly(ct.c0());
            w.poly(ct.c1());
            w.0
        }
        fn plaintext(pt: &Plaintext) -> Vec<u8> {
            let mut w = Self::header(pt.poly().basis());
            w.0.extend_from_slice(&pt.scale().to_bits().to_le_bytes());
            w.poly(pt.poly());
            w.0
        }
        fn switching_key(key: &SwitchingKey) -> Vec<u8> {
            let mut w = Self::header(key.digits[0].a.basis());
            w.0.extend_from_slice(&(key.digits.len() as u32).to_le_bytes());
            w.0.push(u8::from(key.seed.is_some()));
            if let Some(seed) = key.seed {
                w.0.extend_from_slice(&seed);
            }
            for d in &key.digits {
                if key.seed.is_none() {
                    w.poly(&d.a);
                }
                w.poly(&d.b);
            }
            w.0
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        #[test]
        fn bulk_writer_equals_the_per_element_reference(
            seed in proptest::prelude::any::<u64>(),
            level in 1usize..=3,
            re in -1.0f64..1.0,
        ) {
            let ctx = ctx();
            let mut rng = StdRng::seed_from_u64(seed);
            let keygen = KeyGenerator::new(ctx.clone());
            let sk = keygen.secret_key(&mut rng);
            let encoder = Encoder::new(ctx.clone());
            let pt = encoder
                .encode(&[Complex::new(re, -re)], level, ctx.params().scale())
                .unwrap();
            let ct = Encryptor::new(ctx.clone()).encrypt_symmetric(&mut rng, &pt, &sk);
            proptest::prop_assert_eq!(serialize_ciphertext(&ct), Reference::ciphertext(&ct));
            proptest::prop_assert_eq!(serialize_plaintext(&pt), Reference::plaintext(&pt));
            for key in [
                keygen.relin_key(&mut rng, &sk),
                keygen.relin_key_compressed(&mut rng, &sk),
            ] {
                let key = key.switching_key();
                proptest::prop_assert_eq!(
                    serialize_switching_key(key),
                    Reference::switching_key(key)
                );
            }
            // The append-into form lands the same bytes behind whatever
            // the buffer already holds.
            let mut framed = b"header".to_vec();
            write_ciphertext(&ct, &mut framed);
            proptest::prop_assert_eq!(&framed[6..], &Reference::ciphertext(&ct)[..]);
        }
    }

    #[test]
    fn random_garbage_never_panics() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(13);
        for len in [0usize, 4, 5, 64, 1000] {
            let garbage: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let _ = deserialize_ciphertext(&ctx, &garbage);
            let _ = deserialize_switching_key(&ctx, &garbage);
            let _ = deserialize_plaintext(&ctx, &garbage);
            let _ = galois_key_set_entries(&garbage);
            let _ = deserialize_galois_keys(&ctx, &garbage);
        }
    }
}
