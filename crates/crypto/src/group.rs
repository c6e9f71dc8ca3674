//! A simulated pairing-friendly group.
//!
//! The real SBFT uses BLS signatures over BN-P254 (§III): group elements in
//! `G1`, a pairing `e : G1 × G2 → GT`, and signature verification via
//! `e(σ, g₂) = e(H(m), pk)`. This reproduction keeps the *entire algebraic
//! structure* — scalar multiplication, addition, hashing to the group, the
//! bilinear check — but instantiates the group as the scalar field itself
//! with a known-discrete-log generator. Every equation of BLS holds; only
//! cryptographic hardness is absent (see the README's "Substitutions").
//!
//! An element "`a·G`" is represented by its discrete log `a`, so the pairing
//! is computable: `e(a·G, b·G) = ab ∈ GT`.

use std::fmt;

use sbft_types::Digest;

use crate::field::Scalar;
use crate::sha256::sha256_concat;

/// Number of bytes a compressed BLS BN-P254 G1 element occupies on the wire
/// (§III: "BLS requires 33 bytes compared to 256 bytes for 2048-bit RSA").
/// Used by the size model in `sbft-wire`.
pub const GROUP_ELEMENT_WIRE_BYTES: usize = 33;

/// An element of the simulated source group `G1`.
///
/// # Examples
///
/// ```
/// use sbft_crypto::{GroupElement, Scalar};
///
/// let g = GroupElement::generator();
/// let two_g = g.mul(&Scalar::from_u64(2));
/// assert_eq!(g.add(&g), two_g);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupElement {
    // Discrete log with respect to the generator.
    dlog: Scalar,
}

impl GroupElement {
    /// The group identity (the point at infinity in real BLS).
    pub const IDENTITY: GroupElement = GroupElement { dlog: Scalar::ZERO };

    /// The fixed generator `G`.
    pub fn generator() -> GroupElement {
        GroupElement { dlog: Scalar::ONE }
    }

    /// Scalar multiplication `s · P`.
    #[must_use]
    pub fn mul(&self, s: &Scalar) -> GroupElement {
        GroupElement {
            dlog: self.dlog.mul(s),
        }
    }

    /// Group addition `P + Q`.
    #[must_use]
    pub fn add(&self, other: &GroupElement) -> GroupElement {
        GroupElement {
            dlog: self.dlog.add(&other.dlog),
        }
    }

    /// Group negation `-P`.
    #[must_use]
    pub fn neg(&self) -> GroupElement {
        GroupElement {
            dlog: self.dlog.neg(),
        }
    }

    /// Returns `true` for the identity element.
    pub fn is_identity(&self) -> bool {
        self.dlog.is_zero()
    }

    /// Serializes to the 33-byte compressed-point wire format: a marker byte
    /// followed by the 32-byte representation.
    pub fn to_bytes(&self) -> [u8; GROUP_ELEMENT_WIRE_BYTES] {
        let mut out = [0u8; GROUP_ELEMENT_WIRE_BYTES];
        out[0] = 0x02; // compressed-point marker, as in real BLS encodings
        out[1..].copy_from_slice(&self.dlog.to_bytes());
        out
    }

    /// Deserializes from the 33-byte wire format.
    ///
    /// Returns `None` if the marker byte is invalid.
    pub fn from_bytes(bytes: &[u8; GROUP_ELEMENT_WIRE_BYTES]) -> Option<GroupElement> {
        if bytes[0] != 0x02 {
            return None;
        }
        let mut repr = [0u8; 32];
        repr.copy_from_slice(&bytes[1..]);
        Some(GroupElement {
            dlog: Scalar::from_bytes(&repr),
        })
    }
}

impl fmt::Debug for GroupElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GroupElement(0x{:x})", self.dlog.to_u256())
    }
}

/// The bilinear pairing check `e(a1, a2) == e(b1, b2)`.
///
/// In the simulated group `e(x·G, y·G) = xy`, so the check compares scalar
/// products — exactly the equation BLS verification relies on.
pub fn pairing_check(
    a1: &GroupElement,
    a2: &GroupElement,
    b1: &GroupElement,
    b2: &GroupElement,
) -> bool {
    a1.dlog.mul(&a2.dlog) == b1.dlog.mul(&b2.dlog)
}

/// The BLS verification equation `e(sig, G) == e(hm, pk)` with the
/// generator side short-circuited: `e(x, G) = x` in the simulated group
/// (`G`'s discrete log is 1), so the generator-side pairing needs no
/// multiplication at all. Real BLS achieves the analogous saving with
/// precomputed Miller-loop lines for the fixed `G2` generator; this is
/// the hot check of every share and signature verification.
pub fn pairing_check_with_generator(
    sig: &GroupElement,
    hm: &GroupElement,
    pk: &GroupElement,
) -> bool {
    sig.dlog == hm.dlog.mul(&pk.dlog)
}

/// An accumulated product of pairings `Π e(aᵢ, bᵢ)` — the multi-pairing
/// real batch BLS verification computes with one Miller loop per pair and
/// a single shared final exponentiation. A `GT` element in the simulated
/// group is the product of the two discrete logs, and the `GT` group
/// operation adds exponents, so the accumulator is `Σ aᵢ·bᵢ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairingAccumulator {
    acc: Scalar,
}

impl Default for PairingAccumulator {
    fn default() -> Self {
        PairingAccumulator::new()
    }
}

impl PairingAccumulator {
    /// An empty product (the `GT` identity).
    pub fn new() -> Self {
        PairingAccumulator { acc: Scalar::ZERO }
    }

    /// Multiplies `e(p, q)` into the accumulated product.
    pub fn accumulate(&mut self, p: &GroupElement, q: &GroupElement) {
        self.acc = self.acc.add(&p.dlog.mul(&q.dlog));
    }

    /// Compares two accumulated products (the batched verification
    /// equation `Π e(σᵢ·γᵢ, G) == Π e(H(mᵢ)·γᵢ, pkᵢ)`).
    pub fn equals(&self, other: &PairingAccumulator) -> bool {
        self.acc == other.acc
    }
}

/// Hashes a digest into the group with a domain-separation tag
/// (the `H(m)` of BLS signing).
pub fn hash_to_group(domain: &[u8], digest: &Digest) -> GroupElement {
    let h = sha256_concat(&[b"sbft-htg|", domain, b"|", digest.as_bytes()]);
    GroupElement {
        dlog: Scalar::from_digest(&h),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::sha256;

    #[test]
    fn generator_algebra() {
        let g = GroupElement::generator();
        let a = Scalar::from_u64(6);
        let b = Scalar::from_u64(7);
        assert_eq!(g.mul(&a).add(&g.mul(&b)), g.mul(&a.add(&b)));
        assert_eq!(g.mul(&a).mul(&b), g.mul(&a.mul(&b)));
        assert_eq!(g.add(&g.neg()), GroupElement::IDENTITY);
        assert!(GroupElement::IDENTITY.is_identity());
    }

    #[test]
    fn pairing_is_bilinear() {
        let g = GroupElement::generator();
        let a = Scalar::from_u64(3);
        let b = Scalar::from_u64(5);
        // e(aG, bG) == e(abG, G)
        assert!(pairing_check(
            &g.mul(&a),
            &g.mul(&b),
            &g.mul(&a.mul(&b)),
            &g
        ));
        // And the inequality case.
        assert!(!pairing_check(&g.mul(&a), &g.mul(&b), &g.mul(&a), &g));
    }

    #[test]
    fn bls_verification_equation_holds() {
        // sk, pk = sk·G; σ = sk·H(m); check e(σ, G) == e(H(m), pk).
        let g = GroupElement::generator();
        let sk = Scalar::from_u64(0x5eed);
        let pk = g.mul(&sk);
        let hm = hash_to_group(b"test", &sha256(b"message"));
        let sigma = hm.mul(&sk);
        assert!(pairing_check(&sigma, &g, &hm, &pk));
        // Forged signature fails.
        let forged = hm.mul(&Scalar::from_u64(999));
        assert!(!pairing_check(&forged, &g, &hm, &pk));
    }

    #[test]
    fn bytes_round_trip() {
        let g = GroupElement::generator().mul(&Scalar::from_u64(424242));
        let bytes = g.to_bytes();
        assert_eq!(bytes.len(), GROUP_ELEMENT_WIRE_BYTES);
        assert_eq!(GroupElement::from_bytes(&bytes), Some(g));
        let mut bad = bytes;
        bad[0] = 0x09;
        assert_eq!(GroupElement::from_bytes(&bad), None);
    }

    #[test]
    fn pairing_accumulator_matches_pairwise_products() {
        // Π e(aᵢG, bᵢG) == e(Σ aᵢbᵢ · G, G).
        let g = GroupElement::generator();
        let pairs = [(3u64, 5u64), (7, 11), (13, 17)];
        let mut acc = PairingAccumulator::new();
        let mut sum = Scalar::ZERO;
        for (a, b) in pairs {
            acc.accumulate(&g.mul(&Scalar::from_u64(a)), &g.mul(&Scalar::from_u64(b)));
            sum = sum.add(&Scalar::from_u64(a).mul(&Scalar::from_u64(b)));
        }
        let mut expect = PairingAccumulator::new();
        expect.accumulate(&g.mul(&sum), &g);
        assert!(acc.equals(&expect));
        let mut wrong = PairingAccumulator::new();
        wrong.accumulate(&g, &g);
        assert!(!acc.equals(&wrong));
    }

    #[test]
    fn hash_to_group_is_domain_separated() {
        let d = sha256(b"x");
        assert_ne!(hash_to_group(b"sigma", &d), hash_to_group(b"tau", &d));
        assert_eq!(hash_to_group(b"sigma", &d), hash_to_group(b"sigma", &d));
    }
}
