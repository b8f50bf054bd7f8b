//! xoshiro256++, the generator behind the vendored `rand::rngs::StdRng`,
//! restated so that seeded expansion can start several copies of one
//! stream at different offsets.
//!
//! The state transition `T` of xoshiro256 is linear over GF(2), so `T^d`
//! is `J(T)` for `J(x) = x^d mod p(x)`, where `p` is the characteristic
//! polynomial of `T` (degree 256, [`CHARACTERISTIC`]). A [`Jump`] holds
//! `J`; applying it walks 256 steps and sums the states whose coefficient
//! is set, whatever `d` is, and two jumps compose by one product mod `p`. The `++` scrambler only reads the state, so a
//! jumped state draws exactly the words the stream draws from that offset
//! on. The tests pin `p` against Berlekamp–Massey and every jump against
//! serial steps; the identity tests in `sampling` pin the words against
//! `StdRng`.

/// The characteristic polynomial `p(x)` of xoshiro256's state transition
/// without its leading `x^256`: bit `i` of word `w` is the coefficient of
/// `x^{64w + i}`.
pub(crate) const CHARACTERISTIC: [u64; 4] = [
    0x9d11_6f2b_b0f0_f001,
    0x0280_002b_cefd_1a5e,
    0x04b4_edcf_2625_9f85,
    0x0003_c03c_3f3e_cb19,
];

/// A polynomial over GF(2) of degree below 256, as [`CHARACTERISTIC`].
type Poly = [u64; 4];

/// `a·x mod p`.
fn times_x(a: Poly) -> Poly {
    let carry = a[3] >> 63;
    let mut r = [
        a[0] << 1,
        a[1] << 1 | a[0] >> 63,
        a[2] << 1 | a[1] >> 63,
        a[3] << 1 | a[2] >> 63,
    ];
    if carry == 1 {
        for (r, p) in r.iter_mut().zip(CHARACTERISTIC) {
            *r ^= p;
        }
    }
    r
}

/// `v(x)·base mod p` for every `v` of degree below 4, indexed by its bits.
fn nibble_multiples(base: Poly) -> [Poly; 16] {
    let mut table = [[0; 4]; 16];
    let mut power = base;
    for bit in 0..4 {
        for (v, t) in table.iter_mut().enumerate() {
            if v >> bit & 1 == 1 {
                for (t, w) in t.iter_mut().zip(power) {
                    *t ^= w;
                }
            }
        }
        power = times_x(power);
    }
    table
}

/// `a·b mod p`, by Horner's rule over the nibbles of `a`, branch-free:
/// each step multiplies the product by `x^4`, folding the nibble that
/// leaves the top back in as its multiple of `x^256 ≡ CHARACTERISTIC`, and
/// adds the next nibble's multiple of `b`.
fn mul(a: Poly, b: Poly) -> Poly {
    let (of_b, of_top) = (nibble_multiples(b), nibble_multiples(CHARACTERISTIC));
    let mut r = [0u64; 4];
    for k in (0..64).rev() {
        let top = (r[3] >> 60) as usize;
        r = [
            r[0] << 4,
            r[1] << 4 | r[0] >> 60,
            r[2] << 4 | r[1] >> 60,
            r[3] << 4 | r[2] >> 60,
        ];
        let nibble = (a[k / 16] >> (4 * (k % 16)) & 0xf) as usize;
        for ((r, t), b) in r.iter_mut().zip(of_top[top]).zip(of_b[nibble]) {
            *r ^= t ^ b;
        }
    }
    r
}

/// The jump by `d` steps: `x^d mod p(x)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Jump(Poly);

impl Jump {
    /// The jump by `d` steps, by square-and-multiply from the top bit of
    /// `d`: one modular square per bit, and a shift where the bit is set.
    pub(crate) fn new(d: u64) -> Self {
        let mut r = [1, 0, 0, 0];
        for bit in (0..u64::BITS - d.leading_zeros()).rev() {
            r = mul(r, r);
            if d >> bit & 1 == 1 {
                r = times_x(r);
            }
        }
        Jump(r)
    }

    /// The jump by this jump's `d` plus `other`'s: `x^{d + d'} mod p(x)`.
    pub(crate) fn then(&self, other: &Jump) -> Self {
        Jump(mul(self.0, other.0))
    }

    /// The coefficients of `x^d mod p(x)`, as [`CHARACTERISTIC`]: bit `i`
    /// set where [`State::jumped`] sums the state `i` steps on.
    pub(crate) fn words(&self) -> [u64; 4] {
        self.0
    }
}

/// A xoshiro256++ state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct State(pub(crate) [u64; 4]);

impl State {
    /// The state `StdRng::from_seed(seed)` starts from: the seed's words,
    /// except that the all-zero seed (a state xoshiro never leaves) is
    /// remixed through splitmix64, as the vendored `from_seed` does.
    pub(crate) fn from_seed(seed: [u8; 32]) -> Self {
        let mut s = [0u64; 4];
        for (word, chunk) in s.iter_mut().zip(seed.chunks_exact(8)) {
            *word = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        }
        if s == [0; 4] {
            let mut mix = 0x853c_49e6_748f_ea9b_u64;
            for word in &mut s {
                mix = mix.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = mix;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                *word = z ^ (z >> 31);
            }
        }
        State(s)
    }

    /// One draw: the output word, then the step.
    pub(crate) fn next(&mut self) -> u64 {
        let s = &mut self.0;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// The state `d` steps on, for the `d` that `jump` was built for:
    /// `Σ J_i·T^i(s)` over 256 steps.
    pub(crate) fn jumped(self, jump: &Jump) -> Self {
        let (mut s, mut sum) = (self, [0u64; 4]);
        for i in 0..256 {
            if jump.0[i / 64] >> (i % 64) & 1 == 1 {
                for (sum, w) in sum.iter_mut().zip(s.0) {
                    *sum ^= w;
                }
            }
            s.next();
        }
        State(sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shortest linear recurrence of `bits` over GF(2), by
    /// Berlekamp–Massey: the connection polynomial `1 + c_1·x + … + c_L·x^L`
    /// with `s_k = Σ c_i·s_{k−i}`, as its coefficients `c_0..=c_L`.
    fn berlekamp_massey(bits: &[u8]) -> Vec<u8> {
        let (mut c, mut b) = (vec![1u8], vec![1u8]);
        let (mut l, mut m) = (0usize, 1usize);
        for k in 0..bits.len() {
            let d = (1..=l).fold(bits[k], |d, i| d ^ (c[i] & bits[k - i]));
            if d == 0 {
                m += 1;
                continue;
            }
            let prev = c.clone();
            c.resize(c.len().max(b.len() + m), 0);
            for (i, &bi) in b.iter().enumerate() {
                c[i + m] ^= bi;
            }
            if 2 * l <= k {
                l = k + 1 - l;
                b = prev;
                m = 1;
            } else {
                m += 1;
            }
        }
        c.truncate(l + 1);
        c
    }

    #[test]
    fn berlekamp_massey_reproduces_the_characteristic_polynomial() {
        // Bit 0 of the first state word over 512 steps: a linear image of
        // the state, so its recurrence is `p`'s (which is primitive).
        let mut s = State([1, 2, 3, 4]);
        let bits: Vec<u8> = (0..512)
            .map(|_| {
                let bit = (s.0[0] & 1) as u8;
                s.next();
                bit
            })
            .collect();
        let c = berlekamp_massey(&bits);
        assert_eq!(c.len(), 257, "degree 256");
        // p(x) = x^256·C(1/x): the coefficient of x^i is c_{256−i}.
        let mut p = [0u64; 4];
        for i in 0..256 {
            p[i / 64] |= u64::from(c[256 - i]) << (i % 64);
        }
        assert_eq!(p, CHARACTERISTIC, "{p:#018x?}");
    }

    #[test]
    fn a_jump_by_d_is_d_serial_steps() {
        let start = State([0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210, 7, 1 << 63]);
        // Then the lane offsets `⌈dnum·(L + α)/8⌉·n` of the benchmark's
        // rings: N = 2^13 (L = 6, dnum 3), 2^12 (L = 12, dnum 4) and 2^14
        // (L = 8, dnum 3).
        for d in [0u64, 1, 63, 64, 65, 4096, 3 << 13, 8 << 12, 5 << 14] {
            let mut serial = start;
            for _ in 0..d {
                serial.next();
            }
            assert_eq!(start.jumped(&Jump::new(d)), serial, "d = {d}");
        }
    }

    #[test]
    fn jumps_compose_by_adding_their_distances() {
        let start = State([9, 8, 7, 6]);
        let (a, b) = (Jump::new(4096), Jump::new(3 << 12));
        assert_eq!(a.then(&b), Jump::new(4096 + (3 << 12)));
        assert_eq!(start.jumped(&a.then(&b)), start.jumped(&a).jumped(&b));
    }

    #[test]
    fn every_seed_starts_where_std_rng_does() {
        use rand::rngs::StdRng;
        use rand::{RngCore, SeedableRng};
        let mut words = [0u8; 32];
        words[3] = 0x5a;
        for seed in [[0u8; 32], [0xff; 32], words] {
            let (mut ours, mut std) = (State::from_seed(seed), StdRng::from_seed(seed));
            for _ in 0..16 {
                assert_eq!(ours.next(), std.next_u64(), "seed {seed:?}");
            }
        }
    }

    #[test]
    fn the_reference_jump_is_two_to_the_128_steps() {
        // xoshiro256's published `jump()` constant.
        let reference = [
            0x180e_c6d3_3cfd_0aba,
            0xd5a6_1266_f0c9_392c,
            0xa958_2618_e03f_c9aa,
            0x39ab_dc45_29b1_661c,
        ];
        let mut two_128 = Jump::new(1);
        for _ in 0..128 {
            two_128 = Jump(mul(two_128.0, two_128.0));
        }
        assert_eq!(two_128, Jump(reference));
    }
}
