//! Property-based tests for the big-integer substrate.

use indaas_bigint::BigUint;
use proptest::prelude::*;

/// Strategy: a BigUint built from 0..=6 random limbs.
fn biguint() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u64>(), 0..6).prop_map(BigUint::from_limbs)
}

/// Strategy: a non-zero BigUint.
fn biguint_nonzero() -> impl Strategy<Value = BigUint> {
    biguint().prop_filter("nonzero", |v| !v.is_zero())
}

proptest! {
    #[test]
    fn add_commutes(a in biguint(), b in biguint()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associates(a in biguint(), b in biguint(), c in biguint()) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn add_then_sub_roundtrips(a in biguint(), b in biguint()) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn mul_commutes(a in biguint(), b in biguint()) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn mul_distributes_over_add(a in biguint(), b in biguint(), c in biguint()) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn division_identity(a in biguint(), b in biguint_nonzero()) {
        let (q, r) = a.divrem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn shift_is_mul_by_power_of_two(a in biguint(), s in 0usize..200) {
        let shifted = &a << s;
        // 2^s as a BigUint.
        let pow = &BigUint::one() << s;
        prop_assert_eq!(shifted, &a * &pow);
    }

    #[test]
    fn bytes_roundtrip(a in biguint()) {
        prop_assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be()), a);
    }

    #[test]
    fn hex_roundtrip(a in biguint()) {
        prop_assert_eq!(BigUint::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn decimal_roundtrip(a in biguint()) {
        prop_assert_eq!(a.to_string().parse::<BigUint>().unwrap(), a);
    }

    #[test]
    fn modpow_matches_naive(b in 0u64..1000, e in 0u64..40, m in 2u64..5000) {
        let big = BigUint::from_u64(b).modpow(&BigUint::from_u64(e), &BigUint::from_u64(m));
        let mut acc: u128 = 1;
        for _ in 0..e {
            acc = acc * b as u128 % m as u128;
        }
        prop_assert_eq!(big, BigUint::from_u64(acc as u64));
    }

    #[test]
    fn modinv_is_inverse(a in 1u64..10_000, m in 2u64..10_000) {
        let ab = BigUint::from_u64(a);
        let mb = BigUint::from_u64(m);
        if let Ok(inv) = ab.modinv(&mb) {
            prop_assert_eq!((&ab * &inv).rem(&mb), BigUint::one());
        } else {
            // No inverse must mean gcd > 1.
            prop_assert!(ab.gcd(&mb) != BigUint::one());
        }
    }

    #[test]
    fn gcd_divides_both(a in biguint_nonzero(), b in biguint_nonzero()) {
        let g = a.gcd(&b);
        prop_assert!(a.rem(&g).is_zero());
        prop_assert!(b.rem(&g).is_zero());
    }

    #[test]
    fn cmp_agrees_with_sub(a in biguint(), b in biguint()) {
        match a.cmp(&b) {
            std::cmp::Ordering::Less => prop_assert!(a.checked_sub(&b).is_none()),
            _ => prop_assert!(a.checked_sub(&b).is_some()),
        }
    }
}

/// Differential tests of the Montgomery kernel against plain
/// square-and-multiply with a full division after every product.
mod montgomery {
    use indaas_bigint::{BigUint, Montgomery};
    use proptest::prelude::*;

    /// The reference: left-to-right binary exponentiation, `(a * b) mod n`.
    fn reference_modpow(base: &BigUint, exp: &BigUint, n: &BigUint) -> BigUint {
        if n.is_one() {
            return BigUint::zero();
        }
        let base = base.rem(n);
        let mut acc = BigUint::one();
        for i in (0..exp.bits()).rev() {
            acc = (&acc * &acc).rem(n);
            if exp.bit(i) {
                acc = (&acc * &base).rem(n);
            }
        }
        acc
    }

    fn check(base: &BigUint, exp: &BigUint, n: &BigUint) {
        let ctx = Montgomery::new(n).expect("odd modulus");
        assert_eq!(
            ctx.modpow(base, exp),
            reference_modpow(base, exp, n),
            "base {base:?} exp {exp:?} n {n:?}"
        );
    }

    /// A value of exactly `bits` bits whose lower bits come from `raw`.
    fn with_bits(raw: &[u64], bits: usize) -> BigUint {
        if bits == 0 {
            return BigUint::zero();
        }
        let mut limbs = raw[..bits.div_ceil(64)].to_vec();
        let top = limbs.last_mut().expect("at least one limb");
        let top_bits = bits - (bits - 1) / 64 * 64;
        if top_bits < 64 {
            *top &= (1u64 << top_bits) - 1;
        }
        *top |= 1u64 << (top_bits - 1);
        BigUint::from_limbs(limbs)
    }

    /// An odd modulus of exactly `len` limbs built from `raw`.
    fn odd_modulus(raw: &[u64], len: usize) -> BigUint {
        let mut limbs = raw[..len].to_vec();
        limbs[0] |= 1;
        if limbs[len - 1] == 0 {
            limbs[len - 1] = 1;
        }
        BigUint::from_limbs(limbs)
    }

    /// Exponent bit lengths around every window threshold (23/79/239/671
    /// bits), each run covering at least `w` consecutive lengths so that
    /// every remainder `bits % w` occurs, plus short and full widths.
    fn window_edge_bits() -> Vec<usize> {
        let mut bits: Vec<usize> = (1..=30).collect();
        bits.extend(76..=84);
        bits.extend(236..=245);
        bits.extend(666..=678);
        bits.extend([1023, 1024, 2048]);
        bits
    }

    proptest! {
        /// Random odd moduli of 1..=33 limbs (1-limb, the 16-limb P-SOP
        /// group, the 32-limb Paillier n²), bases up to twice the modulus
        /// width, exponents up to 700 bits.
        #[test]
        fn modpow_matches_reference(
            raw_n in proptest::collection::vec(any::<u64>(), 33..34),
            len in 1usize..34,
            raw_base in proptest::collection::vec(any::<u64>(), 66..67),
            base_len_pick in any::<usize>(),
            raw_exp in proptest::collection::vec(any::<u64>(), 11..12),
            exp_bits in 0usize..701,
        ) {
            let n = odd_modulus(&raw_n, len);
            let base = BigUint::from_limbs(raw_base[..base_len_pick % (2 * len + 1)].to_vec());
            let exp = with_bits(&raw_exp, exp_bits);
            let ctx = Montgomery::new(&n).expect("odd modulus");
            prop_assert_eq!(ctx.modpow(&base, &exp), reference_modpow(&base, &exp, &n));
        }
    }

    #[test]
    fn every_window_threshold_and_remainder() {
        let raw: Vec<u64> = (1..=128u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        for len in [1, 3, 16] {
            let n = odd_modulus(&raw[5..], len);
            let base = BigUint::from_limbs(raw[40..40 + 2 * len].to_vec());
            for bits in window_edge_bits() {
                check(&base, &with_bits(&raw[30..], bits), &n);
            }
        }
        let n = odd_modulus(&raw, 33);
        check(
            &BigUint::from_limbs(raw[..66].to_vec()),
            &with_bits(&raw[20..], 2048),
            &n,
        );
    }

    #[test]
    fn edge_operands() {
        let n = BigUint::from_hex("c0ffee1234567890abcdef1357924680fedcba9876543211").unwrap();
        let one = BigUint::one();
        let n_minus_1 = &n - &one;
        let exp = BigUint::from_u64(0xdead_beef);
        let ctx = Montgomery::new(&n).unwrap();
        // n = 1: everything is 0, even x^0.
        let unit = Montgomery::new(&one).unwrap();
        assert_eq!(unit.modpow(&exp, &exp), BigUint::zero());
        assert_eq!(unit.modpow(&exp, &BigUint::zero()), BigUint::zero());
        // exp = 0 gives 1, whatever the base.
        for base in [BigUint::zero(), one.clone(), n.clone(), &n * &n] {
            check(&base, &BigUint::zero(), &n);
            assert_eq!(ctx.modpow(&base, &BigUint::zero()), one);
        }
        // base = 0 and base = n (reduces to 0) give 0.
        assert_eq!(ctx.modpow(&BigUint::zero(), &exp), BigUint::zero());
        check(&n, &exp, &n);
        // base = n - 1 is -1: +1 for even exponents, n - 1 for odd ones.
        assert_eq!(ctx.modpow(&n_minus_1, &BigUint::from_u64(1 << 40)), one);
        assert_eq!(ctx.modpow(&n_minus_1, &exp), n_minus_1);
        // All-ones exponents across the window widths.
        for bits in [1, 23, 24, 64, 79, 80, 239, 240, 671, 672, 1024] {
            let all_ones = &(&one << bits) - &one;
            check(&BigUint::from_u64(3), &all_ones, &n);
            check(&n_minus_1, &all_ones, &n);
        }
        // One-limb moduli.
        for m in [97u64, 1019, (1 << 32) - 5] {
            let m = BigUint::from_u64(m);
            for bits in [1, 7, 23, 24, 63, 64, 200] {
                let all_ones = &(&one << bits) - &one;
                check(&BigUint::from_u64(0x1234_5678_9abc_def1), &all_ones, &m);
            }
        }
    }

    /// Moduli whose top limb is `u64::MAX` drive the carry out of the
    /// reduction and the final conditional subtraction.
    #[test]
    fn top_limb_all_ones_moduli() {
        let rfc3526 = BigUint::from_hex(
            "ffffffffffffffffc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74\
             020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f1437\
             4fe1356d6d51c245e485b576625e7ec6f44c42e9a637ed6b0bff5cb6f406b7ed\
             ee386bfb5a899fa5ae9f24117c4b1fe649286651ece65381ffffffffffffffff",
        )
        .unwrap();
        let one = BigUint::one();
        let mut moduli = vec![rfc3526];
        moduli.extend((1..=33).map(|k| &(&one << (64 * k)) - &one));
        for n in &moduli {
            let n_minus_1 = n - &one;
            let n_minus_2 = &n_minus_1 - &one;
            // Bases next to the modulus, above it, and the largest
            // exponents of this width.
            for base in [n_minus_1.clone(), n_minus_2.clone(), n + &n_minus_2] {
                check(&base, &n_minus_2, n);
            }
            check(&BigUint::from_u64(2), &(&(&one << 677) - &one), n);
        }
    }
}
