//! Arithmetic in the BN254 scalar field `F_r`.
//!
//! The paper's threshold signatures are BLS over the BN-P254 pairing curve
//! (§III, §VIII). This reproduction keeps the *scalar field* of that curve —
//! `r = 0x30644e72e131a029b85045b68181585d2833e84879b9709143e1f593f0000001`
//! — and performs all Shamir sharing, signing and interpolation in it (see
//! the README's "Substitutions"). Elements are stored in
//! Montgomery form; multiplication uses the CIOS algorithm on 4×u64 limbs.

use std::fmt;

use sbft_types::{Digest, U256};

/// Little-endian limbs of the BN254 scalar field modulus `r`.
pub const MODULUS_LIMBS: [u64; 4] = [
    0x43e1f593f0000001,
    0x2833e84879b97091,
    0xb85045b68181585d,
    0x30644e72e131a029,
];

/// `-r^{-1} mod 2^64`, the Montgomery reduction constant.
const INV: u64 = 0xc2e1f593efffffff;

/// `R = 2^256 mod r` (the Montgomery radix), i.e. `1` in Montgomery form.
const R: [u64; 4] = [
    0xac96341c4ffffffb,
    0x36fc76959f60cd29,
    0x666ea36f7879462e,
    0x0e0a77c19a07df2f,
];

/// `R^2 = 2^512 mod r`, used to convert into Montgomery form.
const R2: [u64; 4] = [
    0x1bb8e645ae216da7,
    0x53fe3ab1e35c59e3,
    0x8c49833d53bb8085,
    0x0216d0b17f4e44a5,
];

/// The field modulus as a [`U256`].
pub fn modulus() -> U256 {
    U256::from_limbs(MODULUS_LIMBS)
}

/// An element of the BN254 scalar field, in Montgomery form.
///
/// # Examples
///
/// ```
/// use sbft_crypto::Scalar;
///
/// let a = Scalar::from_u64(3);
/// let b = Scalar::from_u64(4);
/// assert_eq!(a.mul(&b), Scalar::from_u64(12));
/// assert_eq!(a.mul(&a.invert().unwrap()), Scalar::ONE);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scalar {
    // Montgomery representation: stores a·R mod r.
    mont: [u64; 4],
}

#[inline]
fn mac(a: u64, b: u64, c: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + (b as u128) * (c as u128) + carry as u128;
    (t as u64, (t >> 64) as u64)
}

#[inline]
fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

#[inline]
fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let t = (a as u128).wrapping_sub(b as u128 + (borrow >> 63) as u128);
    (t as u64, (t >> 64) as u64)
}

/// CIOS Montgomery multiplication: returns `a·b·R^{-1} mod r`.
fn mont_mul(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let mut t = [0u64; 6];
    for i in 0..4 {
        let mut carry = 0u64;
        for j in 0..4 {
            let (lo, c) = mac(t[j], a[i], b[j], carry);
            t[j] = lo;
            carry = c;
        }
        let (s, c) = adc(t[4], carry, 0);
        t[4] = s;
        t[5] = c;

        let m = t[0].wrapping_mul(INV);
        let (_, mut carry) = mac(t[0], m, MODULUS_LIMBS[0], 0);
        for j in 1..4 {
            let (lo, c) = mac(t[j], m, MODULUS_LIMBS[j], carry);
            t[j - 1] = lo;
            carry = c;
        }
        let (s, c) = adc(t[4], carry, 0);
        t[3] = s;
        t[4] = t[5] + c;
        t[5] = 0;
    }
    // One conditional subtraction suffices because r < 2^254 < R/4.
    reduce_once([t[0], t[1], t[2], t[3]], t[4])
}

/// Subtracts the modulus once if `hi` is set or the value is >= modulus.
fn reduce_once(limbs: [u64; 4], hi: u64) -> [u64; 4] {
    let mut borrow = 0u64;
    let mut out = [0u64; 4];
    for i in 0..4 {
        let (d, b) = sbb(limbs[i], MODULUS_LIMBS[i], borrow);
        out[i] = d;
        borrow = b;
    }
    // borrow is u64::MAX if a real borrow happened.
    let underflow = borrow != 0 && hi == 0;
    if underflow {
        limbs
    } else {
        out
    }
}

fn geq_modulus(limbs: &[u64; 4]) -> bool {
    for i in (0..4).rev() {
        if limbs[i] > MODULUS_LIMBS[i] {
            return true;
        }
        if limbs[i] < MODULUS_LIMBS[i] {
            return false;
        }
    }
    true
}

impl Scalar {
    /// The additive identity.
    pub const ZERO: Scalar = Scalar { mont: [0; 4] };
    /// The multiplicative identity.
    pub const ONE: Scalar = Scalar { mont: R };

    /// Creates a scalar from a small integer.
    pub fn from_u64(v: u64) -> Self {
        Scalar {
            mont: mont_mul(&[v, 0, 0, 0], &R2),
        }
    }

    /// Creates a scalar from a [`U256`], reducing modulo `r`.
    pub fn from_u256_reduce(v: &U256) -> Self {
        let canonical = if *v >= modulus() {
            v.div_rem(&modulus()).1
        } else {
            *v
        };
        Scalar {
            mont: mont_mul(&canonical.limbs(), &R2),
        }
    }

    /// Hashes arbitrary bytes to a scalar (uniform up to negligible bias).
    pub fn from_digest(d: &Digest) -> Self {
        Self::from_u256_reduce(&U256::from_be_bytes(*d.as_bytes()))
    }

    /// Returns the canonical (non-Montgomery) value.
    pub fn to_u256(&self) -> U256 {
        U256::from_limbs(mont_mul(&self.mont, &[1, 0, 0, 0]))
    }

    /// Serializes to 32 big-endian bytes of the canonical value.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.to_u256().to_be_bytes()
    }

    /// Deserializes from 32 big-endian bytes, reducing modulo `r`.
    pub fn from_bytes(bytes: &[u8; 32]) -> Self {
        Self::from_u256_reduce(&U256::from_be_bytes(*bytes))
    }

    /// Returns `true` if this is the additive identity.
    pub fn is_zero(&self) -> bool {
        self.mont == [0u64; 4]
    }

    /// Field addition.
    #[must_use]
    pub fn add(&self, rhs: &Scalar) -> Scalar {
        let mut carry = 0u64;
        let mut out = [0u64; 4];
        for i in 0..4 {
            let (s, c) = adc(self.mont[i], rhs.mont[i], carry);
            out[i] = s;
            carry = c;
        }
        if carry != 0 || geq_modulus(&out) {
            out = reduce_once(out, carry);
        }
        Scalar { mont: out }
    }

    /// Field subtraction.
    #[must_use]
    pub fn sub(&self, rhs: &Scalar) -> Scalar {
        let mut borrow = 0u64;
        let mut out = [0u64; 4];
        for i in 0..4 {
            let (d, b) = sbb(self.mont[i], rhs.mont[i], borrow);
            out[i] = d;
            borrow = b;
        }
        if borrow != 0 {
            let mut carry = 0u64;
            for i in 0..4 {
                let (s, c) = adc(out[i], MODULUS_LIMBS[i], carry);
                out[i] = s;
                carry = c;
            }
        }
        Scalar { mont: out }
    }

    /// Additive inverse.
    #[must_use]
    pub fn neg(&self) -> Scalar {
        Scalar::ZERO.sub(self)
    }

    /// Field multiplication.
    #[must_use]
    pub fn mul(&self, rhs: &Scalar) -> Scalar {
        Scalar {
            mont: mont_mul(&self.mont, &rhs.mont),
        }
    }

    /// Squaring.
    #[must_use]
    pub fn square(&self) -> Scalar {
        self.mul(self)
    }

    /// Exponentiation by a canonical [`U256`] exponent.
    #[must_use]
    pub fn pow(&self, exp: &U256) -> Scalar {
        let mut result = Scalar::ONE;
        let mut base = *self;
        for i in 0..exp.bits() as usize {
            if exp.bit(i) {
                result = result.mul(&base);
            }
            base = base.square();
        }
        result
    }

    /// Multiplicative inverse via Fermat's little theorem.
    ///
    /// Returns `None` for zero.
    #[must_use]
    pub fn invert(&self) -> Option<Scalar> {
        if self.is_zero() {
            return None;
        }
        let exp = modulus().wrapping_sub(&U256::from(2u64));
        Some(self.pow(&exp))
    }
}

/// Batch inversion using Montgomery's trick: inverts all non-zero elements
/// with a single field inversion plus `3(n-1)` multiplications.
///
/// # Panics
///
/// Panics if any element is zero.
pub fn batch_invert(elements: &mut [Scalar]) {
    if elements.is_empty() {
        return;
    }
    let mut prefix = Vec::with_capacity(elements.len());
    let mut acc = Scalar::ONE;
    for e in elements.iter() {
        assert!(!e.is_zero(), "batch_invert: zero element");
        prefix.push(acc);
        acc = acc.mul(e);
    }
    let mut inv = acc.invert().expect("product of non-zero elements");
    for i in (0..elements.len()).rev() {
        let orig = elements[i];
        elements[i] = inv.mul(&prefix[i]);
        inv = inv.mul(&orig);
    }
}

impl fmt::Debug for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Scalar(0x{:x})", self.to_u256())
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_u256())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    fn limbs(rng: &mut SplitMix64) -> [u64; 4] {
        [
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
        ]
    }

    /// Slow reference modular multiplication via double-and-add on U256.
    fn slow_mulmod(a: &U256, b: &U256, m: &U256) -> U256 {
        let mut result = U256::ZERO;
        let mut addend = a.div_rem(m).1;
        for i in 0..b.bits() as usize {
            if b.bit(i) {
                result = addmod(&result, &addend, m);
            }
            addend = addmod(&addend, &addend, m);
        }
        result
    }

    fn addmod(a: &U256, b: &U256, m: &U256) -> U256 {
        // a, b < m < 2^255 so a + b cannot overflow 2^256.
        let (sum, carry) = a.overflowing_add(b);
        assert!(!carry);
        if sum >= *m {
            sum.wrapping_sub(m)
        } else {
            sum
        }
    }

    #[test]
    fn montgomery_constants_are_derived_from_modulus() {
        // INV = -r^{-1} mod 2^64 via Newton iteration.
        let r0 = MODULUS_LIMBS[0];
        let mut x: u64 = 1;
        for _ in 0..6 {
            x = x.wrapping_mul(2u64.wrapping_sub(r0.wrapping_mul(x)));
        }
        assert_eq!(x.wrapping_mul(r0), 1);
        assert_eq!(INV, x.wrapping_neg());

        // R = 2^256 mod r.
        let m = modulus();
        let r_mod = U256::MAX.div_rem(&m).1.wrapping_add(&U256::ONE);
        let r_mod = if r_mod >= m {
            r_mod.wrapping_sub(&m)
        } else {
            r_mod
        };
        assert_eq!(U256::from_limbs(R), r_mod);

        // R2 = R * R mod r.
        assert_eq!(U256::from_limbs(R2), slow_mulmod(&r_mod, &r_mod, &m));
    }

    #[test]
    fn identities() {
        assert_eq!(Scalar::from_u64(0), Scalar::ZERO);
        assert_eq!(Scalar::from_u64(1), Scalar::ONE);
        assert!(Scalar::ZERO.is_zero());
        let a = Scalar::from_u64(123456789);
        assert_eq!(a.add(&Scalar::ZERO), a);
        assert_eq!(a.mul(&Scalar::ONE), a);
        assert_eq!(a.mul(&Scalar::ZERO), Scalar::ZERO);
    }

    #[test]
    fn small_arithmetic() {
        let a = Scalar::from_u64(7);
        let b = Scalar::from_u64(11);
        assert_eq!(a.mul(&b), Scalar::from_u64(77));
        assert_eq!(a.add(&b), Scalar::from_u64(18));
        assert_eq!(b.sub(&a), Scalar::from_u64(4));
        assert_eq!(a.sub(&b), Scalar::from_u64(4).neg());
        assert_eq!(a.square(), Scalar::from_u64(49));
    }

    #[test]
    fn round_trip_u256() {
        let v = U256::from_hex("0x123456789abcdef0fedcba9876543210").unwrap();
        let s = Scalar::from_u256_reduce(&v);
        assert_eq!(s.to_u256(), v);
    }

    #[test]
    fn reduction_of_large_values() {
        // MAX reduces to MAX mod r.
        let s = Scalar::from_u256_reduce(&U256::MAX);
        assert_eq!(s.to_u256(), U256::MAX.div_rem(&modulus()).1);
        // The modulus itself reduces to zero.
        assert!(Scalar::from_u256_reduce(&modulus()).is_zero());
    }

    #[test]
    fn negation_wraps_to_modulus_minus_value() {
        let a = Scalar::from_u64(5);
        assert_eq!(a.neg().to_u256(), modulus().wrapping_sub(&U256::from(5u64)));
        assert_eq!(a.add(&a.neg()), Scalar::ZERO);
        assert_eq!(Scalar::ZERO.neg(), Scalar::ZERO);
    }

    #[test]
    fn inversion() {
        let a = Scalar::from_u64(987654321);
        let inv = a.invert().unwrap();
        assert_eq!(a.mul(&inv), Scalar::ONE);
        assert!(Scalar::ZERO.invert().is_none());
        assert_eq!(Scalar::ONE.invert().unwrap(), Scalar::ONE);
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let a = Scalar::from_u64(3);
        let mut acc = Scalar::ONE;
        for e in 0u64..20 {
            assert_eq!(a.pow(&U256::from(e)), acc);
            acc = acc.mul(&a);
        }
    }

    #[test]
    fn fermat_exponent_is_identity() {
        // a^(r-1) = 1 for a != 0.
        let a = Scalar::from_u64(42);
        let exp = modulus().wrapping_sub(&U256::ONE);
        assert_eq!(a.pow(&exp), Scalar::ONE);
    }

    #[test]
    fn batch_invert_matches_individual() {
        let mut v: Vec<Scalar> = (1u64..20).map(Scalar::from_u64).collect();
        let expected: Vec<Scalar> = v.iter().map(|s| s.invert().unwrap()).collect();
        batch_invert(&mut v);
        assert_eq!(v, expected);
    }

    #[test]
    fn bytes_round_trip() {
        let a = Scalar::from_u64(0xdeadbeef);
        assert_eq!(Scalar::from_bytes(&a.to_bytes()), a);
    }

    #[test]
    fn prop_mul_matches_reference() {
        let mut rng = SplitMix64::new(0x11);
        for _ in 0..64 {
            let av = U256::from_limbs(limbs(&mut rng)).div_rem(&modulus()).1;
            let bv = U256::from_limbs(limbs(&mut rng)).div_rem(&modulus()).1;
            let product = Scalar::from_u256_reduce(&av).mul(&Scalar::from_u256_reduce(&bv));
            assert_eq!(product.to_u256(), slow_mulmod(&av, &bv, &modulus()));
        }
    }

    #[test]
    fn prop_add_commutes_and_associates() {
        let mut rng = SplitMix64::new(0x12);
        for _ in 0..64 {
            let a = Scalar::from_u256_reduce(&U256::from_limbs(limbs(&mut rng)));
            let b = Scalar::from_u256_reduce(&U256::from_limbs(limbs(&mut rng)));
            let c = Scalar::from_u256_reduce(&U256::from_limbs(limbs(&mut rng)));
            assert_eq!(a.add(&b), b.add(&a));
            assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
        }
    }

    #[test]
    fn prop_distributive() {
        let mut rng = SplitMix64::new(0x13);
        for _ in 0..64 {
            let a = Scalar::from_u64(rng.next_u64());
            let b = Scalar::from_u64(rng.next_u64());
            let c = Scalar::from_u64(rng.next_u64());
            assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        }
    }

    #[test]
    fn prop_sub_is_add_neg() {
        let mut rng = SplitMix64::new(0x14);
        for _ in 0..64 {
            let a = Scalar::from_u256_reduce(&U256::from_limbs(limbs(&mut rng)));
            let b = Scalar::from_u256_reduce(&U256::from_limbs(limbs(&mut rng)));
            assert_eq!(a.sub(&b), a.add(&b.neg()));
        }
    }

    #[test]
    fn prop_invert_round_trip() {
        let mut rng = SplitMix64::new(0x15);
        for _ in 0..64 {
            let a = Scalar::from_u64(rng.next_u64().max(1));
            assert_eq!(a.invert().unwrap().mul(&a), Scalar::ONE);
        }
    }
}
