//! Modular arithmetic: Montgomery contexts, modular exponentiation and
//! extended-Euclid inverses.

use crate::uint::BigUint;
use crate::BigIntError;

/// A reusable Montgomery reduction context for a fixed odd modulus.
///
/// Exponentiations against the same modulus (the common case in the INDaaS
/// P-SOP ring protocol, where every element is encrypted under the same
/// group) share the precomputed `R^2 mod n` and `-n^{-1} mod 2^64` values.
///
/// [`Montgomery::modpow`] is a fixed-window exponentiation over `k`-limb
/// slices. Each Montgomery multiply writes the full `2k`-limb product (or,
/// for a square, each cross product once, doubled, plus the diagonal) into
/// a scratch buffer and then reduces it in place with word-by-word REDC.
/// The window width grows with the exponent: 1 bit up to 23 bits (so
/// `e = 65537` is plain square-and-multiply), then 3, 4, 5 and 6 bits above
/// 23, 79, 239 and 671 bits. One buffer holds the product scratch, the
/// accumulator and the `2^w`-entry table of base powers, so a modpow makes
/// a fixed handful of heap allocations (reducing the base, that buffer and
/// the result) whatever the exponent length, and none in its loop.
///
/// Timing is not constant: the operation sequence depends on the exponent
/// (a zero window skips its multiply, as a zero bit did before windowing)
/// and the final conditional subtraction of each REDC on the operands.
#[derive(Clone, Debug)]
pub struct Montgomery {
    n: BigUint,
    /// `-n[0]^{-1} mod 2^64`.
    n0inv: u64,
    /// `R^2 mod n` where `R = 2^(64k)`, zero-padded to `k` limbs.
    rr: Vec<u64>,
}

impl Montgomery {
    /// Creates a context for odd modulus `n`.
    ///
    /// Returns `None` if `n` is zero or even.
    pub fn new(n: &BigUint) -> Option<Self> {
        if n.is_zero() || n.is_even() {
            return None;
        }
        let k = n.limbs().len();
        let n0inv = inv64(n.limbs()[0]).wrapping_neg();
        // R^2 mod n computed by shifting; runs once per modulus.
        let mut rr = (&BigUint::one() << (128 * k)).rem(n).limbs;
        rr.resize(k, 0);
        Some(Montgomery {
            n: n.clone(),
            n0inv,
            rr,
        })
    }

    /// The modulus this context reduces against.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// Computes `base^exp mod n` with a fixed-window exponentiation over
    /// Montgomery representatives.
    pub fn modpow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if self.n.is_one() {
            return BigUint::zero();
        }
        if exp.is_zero() {
            return BigUint::one();
        }
        let k = self.n.limbs.len();
        let bits = exp.bits();
        let w = window_bits(bits);
        // Layout: product scratch (2k) | accumulator (k) | table (2^w * k).
        let mut buf = vec![0u64; 3 * k + (k << w)];
        let (t, rest) = buf.split_at_mut(2 * k);
        let (acc, table) = rest.split_at_mut(k);

        // table[1] = base * R mod n; table[i] = table[i-1] * table[1].
        let base = base.rem(&self.n);
        table[k..k + base.limbs.len()].copy_from_slice(&base.limbs);
        self.mont_mul(&mut table[k..2 * k], &self.rr, t);
        for i in 2..1usize << w {
            let (done, todo) = table.split_at_mut(i * k);
            let entry = &mut todo[..k];
            entry.copy_from_slice(&done[(i - 1) * k..]);
            self.mont_mul(entry, &done[k..2 * k], t);
        }

        // Windows run from the most significant bit down; the top one
        // holds the remainder `bits % w` and is never zero.
        let mut pos = bits - (bits - 1) % w - 1;
        let top = window_at(exp, pos, bits - pos);
        acc.copy_from_slice(&table[top * k..(top + 1) * k]);
        while pos > 0 {
            pos -= w;
            for _ in 0..w {
                self.mont_sqr(acc, t);
            }
            let win = window_at(exp, pos, w);
            if win != 0 {
                self.mont_mul(acc, &table[win * k..(win + 1) * k], t);
            }
        }

        // Leave Montgomery form: REDC of `acc` as a 2k-limb value.
        t[..k].copy_from_slice(acc);
        t[k..].fill(0);
        self.redc(t, acc);
        BigUint::from_limbs(acc.to_vec())
    }

    /// `acc = acc * b * R^{-1} mod n`; `t` is `2k` limbs of scratch.
    fn mont_mul(&self, acc: &mut [u64], b: &[u64], t: &mut [u64]) {
        mul_into(t, acc, b);
        self.redc(t, acc);
    }

    /// `acc = acc^2 * R^{-1} mod n`; `t` is `2k` limbs of scratch.
    fn mont_sqr(&self, acc: &mut [u64], t: &mut [u64]) {
        sqr_into(t, acc);
        self.redc(t, acc);
    }

    /// Montgomery reduction of the `2k`-limb value `t < n * R`, consuming
    /// `t`: writes `t * R^{-1} mod n` to the `k` limbs of `out`.
    fn redc(&self, t: &mut [u64], out: &mut [u64]) {
        let n = &self.n.limbs[..];
        let k = n.len();
        // Carry into limb `i + k + 1`, folded in by the next row.
        let mut top = 0u64;
        for i in 0..k {
            let m = t[i].wrapping_mul(self.n0inv);
            let row = &mut t[i..=i + k];
            let mut carry = 0u64;
            for (tj, &nj) in row[..k].iter_mut().zip(n) {
                let x = *tj as u128 + m as u128 * nj as u128 + carry as u128;
                *tj = x as u64;
                carry = (x >> 64) as u64;
            }
            let x = row[k] as u128 + carry as u128 + top as u128;
            row[k] = x as u64;
            top = (x >> 64) as u64;
        }
        // The reduced value `top * R + t[k..]` is below 2n.
        let hi = &t[k..];
        if top != 0 || !less_than(hi, n) {
            let mut borrow = false;
            for ((o, &h), &nj) in out.iter_mut().zip(hi).zip(n) {
                let (d1, b1) = h.overflowing_sub(nj);
                let (d2, b2) = d1.overflowing_sub(borrow as u64);
                *o = d2;
                borrow = b1 | b2;
            }
        } else {
            out.copy_from_slice(hi);
        }
    }
}

/// Window width for an exponent of `bits` bits: the cost of building a
/// `2^w`-entry table is weighed against one multiply per `w` bits.
fn window_bits(bits: usize) -> usize {
    match bits {
        0..=23 => 1,
        24..=79 => 3,
        80..=239 => 4,
        240..=671 => 5,
        _ => 6,
    }
}

/// The `len`-bit window of `exp` starting at bit `pos` (`len <= 6`).
fn window_at(exp: &BigUint, pos: usize, len: usize) -> usize {
    (0..len).fold(0, |acc, i| acc | (exp.bit(pos + i) as usize) << i)
}

/// `t = a * b` for equal-length `a`, `b`; `t` holds `2 * a.len()` limbs.
fn mul_into(t: &mut [u64], a: &[u64], b: &[u64]) {
    let k = a.len();
    t[..k].fill(0);
    for (i, &ai) in a.iter().enumerate() {
        let row = &mut t[i..=i + k];
        let mut carry = 0u64;
        for (tj, &bj) in row[..k].iter_mut().zip(b) {
            let x = *tj as u128 + ai as u128 * bj as u128 + carry as u128;
            *tj = x as u64;
            carry = (x >> 64) as u64;
        }
        row[k] = carry;
    }
}

/// `t = a^2`; `t` holds `2 * a.len()` limbs. Each cross product `a_i a_j`
/// (`i < j`) is computed once and doubled by a shift, then the squares
/// `a_i^2` are added on the diagonal.
fn sqr_into(t: &mut [u64], a: &[u64]) {
    let k = a.len();
    // Row i adds `a_i a_j` (j > i) into limbs `2i + 1 .. i + k` and sets
    // limb `i + k`, which no earlier row reached; row 0 adds into zeros.
    t[..k].fill(0);
    for (i, &ai) in a.iter().enumerate() {
        let row = &mut t[2 * i + 1..=i + k];
        let mut carry = 0u64;
        for (tj, &aj) in row.iter_mut().zip(&a[i + 1..]) {
            let x = *tj as u128 + ai as u128 * aj as u128 + carry as u128;
            *tj = x as u64;
            carry = (x >> 64) as u64;
        }
        row[k - i - 1] = carry;
    }
    let mut shifted_out = 0u64;
    for limb in t.iter_mut() {
        let next = *limb >> 63;
        *limb = (*limb << 1) | shifted_out;
        shifted_out = next;
    }
    let mut carry = 0u64;
    for (pair, &ai) in t.chunks_exact_mut(2).zip(a) {
        let sq = ai as u128 * ai as u128;
        let lo = pair[0] as u128 + (sq as u64) as u128 + carry as u128;
        pair[0] = lo as u64;
        let hi = pair[1] as u128 + (sq >> 64) + (lo >> 64);
        pair[1] = hi as u64;
        carry = (hi >> 64) as u64;
    }
}

/// `a < b` for equal-length little-endian limb slices.
fn less_than(a: &[u64], b: &[u64]) -> bool {
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        if x != y {
            return x < y;
        }
    }
    false
}

/// Inverse of odd `x` modulo `2^64`, via Newton–Hensel lifting.
fn inv64(x: u64) -> u64 {
    debug_assert!(x & 1 == 1);
    let mut inv = x; // Correct to 3 bits.
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    }
    debug_assert_eq!(x.wrapping_mul(inv), 1);
    inv
}

impl BigUint {
    /// Computes `self^exp mod m`.
    ///
    /// Uses Montgomery exponentiation for odd moduli and a plain
    /// square-and-multiply with trial division otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn modpow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modpow with zero modulus");
        if m.is_one() {
            return BigUint::zero();
        }
        if let Some(ctx) = Montgomery::new(m) {
            return ctx.modpow(self, exp);
        }
        // Even modulus: generic square-and-multiply.
        let mut acc = BigUint::one();
        let base = self.rem(m);
        for i in (0..exp.bits()).rev() {
            acc = (&acc * &acc).rem(m);
            if exp.bit(i) {
                acc = (&acc * &base).rem(m);
            }
        }
        acc
    }

    /// Greatest common divisor (binary-free Euclid; division is fast here).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular inverse: `self^{-1} mod m`, if it exists.
    ///
    /// # Errors
    ///
    /// Returns [`BigIntError::NotInvertible`] when `gcd(self, m) != 1` and
    /// [`BigIntError::DivisionByZero`] when `m` is zero.
    pub fn modinv(&self, m: &BigUint) -> Result<BigUint, BigIntError> {
        if m.is_zero() {
            return Err(BigIntError::DivisionByZero);
        }
        if m.is_one() {
            return Ok(BigUint::zero());
        }
        // Extended Euclid with explicit sign tracking for the Bezout
        // coefficient of `self`.
        let mut r0 = m.clone();
        let mut r1 = self.rem(m);
        let mut t0 = (BigUint::zero(), false); // (magnitude, negative?)
        let mut t1 = (BigUint::one(), false);
        while !r1.is_zero() {
            let (q, r2) = r0.divrem(&r1);
            // t2 = t0 - q * t1
            let qt1 = &q * &t1.0;
            let t2 = signed_sub(&t0, &(qt1, t1.1));
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if !r0.is_one() {
            return Err(BigIntError::NotInvertible);
        }
        let (mag, neg) = t0;
        let inv = if neg {
            m.checked_sub(&mag.rem(m))
                .expect("reduced magnitude below modulus")
                .rem(m)
        } else {
            mag.rem(m)
        };
        Ok(inv)
    }
}

/// Computes `a - b` over signed magnitudes `(magnitude, negative?)`.
fn signed_sub(a: &(BigUint, bool), b: &(BigUint, bool)) -> (BigUint, bool) {
    match (a.1, b.1) {
        // a - (-b) = a + b ; (-a) - b = -(a + b)
        (false, true) => (&a.0 + &b.0, false),
        (true, false) => (&a.0 + &b.0, true),
        // Same sign: subtract magnitudes.
        (sa, _) => {
            if a.0 >= b.0 {
                (&a.0 - &b.0, sa)
            } else {
                (&b.0 - &a.0, !sa)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inv64_on_random_odds() {
        for x in [1u64, 3, 5, 0xdeadbeef, u64::MAX, 0x1234567890abcdf1] {
            let odd = x | 1;
            assert_eq!(odd.wrapping_mul(inv64(odd)), 1);
        }
    }

    #[test]
    fn modpow_small_cases() {
        let m = BigUint::from_u64(97);
        let b = BigUint::from_u64(5);
        // Fermat: 5^96 = 1 mod 97.
        assert_eq!(b.modpow(&BigUint::from_u64(96), &m), BigUint::one());
        assert_eq!(b.modpow(&BigUint::zero(), &m), BigUint::one());
        assert_eq!(b.modpow(&BigUint::one(), &m), b);
    }

    #[test]
    fn modpow_even_modulus() {
        let m = BigUint::from_u64(100);
        let b = BigUint::from_u64(7);
        // 7^4 = 2401 = 1 mod 100.
        assert_eq!(b.modpow(&BigUint::from_u64(4), &m), BigUint::one());
    }

    #[test]
    fn modpow_matches_u128_reference() {
        let m = BigUint::from_u64(0xffff_fffb); // Prime below 2^32.
        for (b, e) in [(3u64, 1000u64), (0xdead, 12345), (2, 64), (12345, 0)] {
            let expect = {
                let mut acc: u128 = 1;
                let mut base = b as u128 % 0xffff_fffb;
                let mut exp = e;
                while exp > 0 {
                    if exp & 1 == 1 {
                        acc = acc * base % 0xffff_fffb;
                    }
                    base = base * base % 0xffff_fffb;
                    exp >>= 1;
                }
                acc as u64
            };
            assert_eq!(
                BigUint::from_u64(b).modpow(&BigUint::from_u64(e), &m),
                BigUint::from_u64(expect)
            );
        }
    }

    #[test]
    fn modpow_large_modulus_roundtrip() {
        // RSA-style sanity check: (m^e)^d = m mod p for prime p,
        // e*d = 1 mod p-1.
        let p = BigUint::from_hex(
            "ffffffffffffffffc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74\
             020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f1437\
             4fe1356d6d51c245e485b576625e7ec6f44c42e9a637ed6b0bff5cb6f406b7ed\
             ee386bfb5a899fa5ae9f24117c4b1fe649286651ece65381ffffffffffffffff",
        )
        .unwrap();
        let pm1 = &p - &BigUint::one();
        let e = BigUint::from_u64(65537);
        let d = e.modinv(&pm1).unwrap();
        let msg = BigUint::from_hex("123456789abcdef0fedcba9876543210").unwrap();
        let c = msg.modpow(&e, &p);
        assert_eq!(c.modpow(&d, &p), msg);
    }

    #[test]
    fn montgomery_rejects_even_or_zero() {
        assert!(Montgomery::new(&BigUint::zero()).is_none());
        assert!(Montgomery::new(&BigUint::from_u64(10)).is_none());
        assert!(Montgomery::new(&BigUint::from_u64(9)).is_some());
    }

    #[test]
    fn gcd_basic() {
        let a = BigUint::from_u64(48);
        let b = BigUint::from_u64(36);
        assert_eq!(a.gcd(&b), BigUint::from_u64(12));
        assert_eq!(a.gcd(&BigUint::zero()), a);
        assert_eq!(BigUint::zero().gcd(&b), b);
    }

    #[test]
    fn modinv_small() {
        let m = BigUint::from_u64(97);
        for x in 1u64..97 {
            let inv = BigUint::from_u64(x).modinv(&m).unwrap();
            let prod = (&BigUint::from_u64(x) * &inv).rem(&m);
            assert_eq!(prod, BigUint::one(), "inverse failed for {x}");
        }
    }

    #[test]
    fn modinv_not_coprime_errors() {
        let m = BigUint::from_u64(100);
        assert_eq!(
            BigUint::from_u64(10).modinv(&m),
            Err(BigIntError::NotInvertible)
        );
    }

    #[test]
    fn modinv_zero_modulus_errors() {
        assert_eq!(
            BigUint::from_u64(10).modinv(&BigUint::zero()),
            Err(BigIntError::DivisionByZero)
        );
    }
}
