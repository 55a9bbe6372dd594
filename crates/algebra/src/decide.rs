//! Tiered word-problem decision for edge-path groups.
//!
//! Loop contractibility in 2-complexes is undecidable in general
//! (Gafni–Koutsoupias; paper §7), so the pipeline uses a tier of sound,
//! partial deciders and reports `Unknown` honestly when all tiers pass:
//!
//! 1. free reduction (syntactic identity);
//! 2. group triviality via Tietze simplification (decides *all* words);
//! 3. free groups: reduced word empty or not (exact);
//! 4. abelianization: exponent vector in the relator lattice — a sound
//!    `Nontrivial` certificate, and exact when the group is evidently
//!    abelian (annulus ℤ, torus ℤ², projective plane ℤ/2);
//! 5. bounded Todd–Coxeter: exact whenever the group is small enough to
//!    enumerate.

use crate::linear::{feasible, Overflow};
use crate::presentation::Presentation;
use crate::todd_coxeter::{coset_enumeration, Enumeration};
use crate::word::{exponent_vector, free_reduce};

/// Three-valued answer to "does this word represent the identity?".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Triviality {
    /// The word is certainly the identity (the loop is contractible).
    Trivial,
    /// The word is certainly not the identity.
    Nontrivial,
    /// None of the decidable tiers applied.
    Unknown,
}

/// Default coset budget for the Todd–Coxeter tier.
pub const DEFAULT_COSET_BUDGET: usize = 4096;

/// Decides whether `w` represents the identity in the group presented by
/// `p`, using the tiered strategy described in the module docs.
///
/// # Examples
///
/// ```
/// use chromata_algebra::{word_triviality, Presentation, Triviality};
///
/// // Z/2 = ⟨ a | a² ⟩.
/// let p = Presentation::new(1, vec![vec![1, 1]]);
/// assert_eq!(word_triviality(&p, &[1, 1]), Triviality::Trivial);
/// assert_eq!(word_triviality(&p, &[1]), Triviality::Nontrivial);
/// ```
#[must_use]
pub fn word_triviality(p: &Presentation, w: &[i32]) -> Triviality {
    word_triviality_with_budget(p, w, DEFAULT_COSET_BUDGET)
}

/// [`word_triviality`] with an explicit Todd–Coxeter coset budget.
#[must_use]
pub fn word_triviality_with_budget(p: &Presentation, w: &[i32], coset_budget: usize) -> Triviality {
    // Tier 1 first: an identity word needs no simplification at all.
    if free_reduce(w).is_empty() {
        return Triviality::Trivial;
    }
    // One simplified copy serves both group-level facts.
    let simplified = p.simplified();
    decide_tiers(
        p,
        simplified.is_trivial_group(),
        simplified.has_all_commutators(),
        w,
        coset_budget,
    )
}

/// The tiers of [`word_triviality_with_budget`] given the group-level
/// facts about `p` its caller already holds: whether the simplified
/// presentation is trivial, and whether it is evidently abelian.
pub(crate) fn decide_tiers(
    p: &Presentation,
    trivial_group: bool,
    evidently_abelian: bool,
    w: &[i32],
    coset_budget: usize,
) -> Triviality {
    // Tier 1: syntactic identity.
    let w = free_reduce(w);
    if w.is_empty() {
        return Triviality::Trivial;
    }

    // Tier 2: the whole group is trivial (isomorphism-invariant, so the
    // simplified copy certifies the original).
    if trivial_group {
        return Triviality::Trivial;
    }

    // Tier 3: free group — reduced non-empty word is non-trivial. This is
    // only sound on the *original* presentation (same generators as `w`).
    if p.is_free() {
        return Triviality::Nontrivial;
    }

    // Tier 4: abelianization. If the exponent vector is outside the
    // relator lattice, the word is non-trivial in G^ab, hence in G; inside
    // it, that is exact when the group is certifiably abelian. An
    // overflowing lattice system decides nothing, so it falls through to
    // coset enumeration, which does not depend on it.
    let e = exponent_vector(&w, p.generator_count());
    match feasible(&p.relator_lattice(), &e) {
        Ok(false) => return Triviality::Nontrivial,
        Ok(true) if evidently_abelian => return Triviality::Trivial,
        Ok(true) | Err(Overflow) => {}
    }

    // Tier 5: bounded coset enumeration (exact for small finite groups).
    if let Enumeration::Finite(t) = coset_enumeration(p, coset_budget) {
        return if t.is_identity(&w) {
            Triviality::Trivial
        } else {
            Triviality::Nontrivial
        };
    }

    Triviality::Unknown
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_reduction_tier() {
        let p = Presentation::new(2, vec![vec![1, 2, -1, -2]]);
        assert_eq!(word_triviality(&p, &[1, -1]), Triviality::Trivial);
    }

    #[test]
    fn trivial_group_tier() {
        // ⟨ a, b | a, ab ⟩ = 1: every word trivial.
        let p = Presentation::new(2, vec![vec![1], vec![1, 2]]);
        assert_eq!(word_triviality(&p, &[2, 1, 2]), Triviality::Trivial);
    }

    #[test]
    fn free_group_tier() {
        let p = Presentation::new(2, vec![]);
        assert_eq!(word_triviality(&p, &[1, 2]), Triviality::Nontrivial);
        assert_eq!(word_triviality(&p, &[1, 2, -2, -1]), Triviality::Trivial);
    }

    #[test]
    fn abelian_tier_torus() {
        // Z² = ⟨ a, b | [a,b] ⟩.
        let p = Presentation::new(2, vec![vec![1, 2, -1, -2]]);
        assert_eq!(word_triviality(&p, &[1]), Triviality::Nontrivial);
        assert_eq!(word_triviality(&p, &[2, 1, -2, -1]), Triviality::Trivial);
        assert_eq!(
            word_triviality(&p, &[1, 1, 2, -1, -1]),
            Triviality::Nontrivial
        );
    }

    #[test]
    fn torsion_tier_projective_plane() {
        // Z/2 = ⟨ a | a² ⟩: a is in the abelianized lattice only with even
        // exponent.
        let p = Presentation::new(1, vec![vec![1, 1]]);
        assert_eq!(word_triviality(&p, &[1]), Triviality::Nontrivial);
        assert_eq!(word_triviality(&p, &[1, 1]), Triviality::Trivial);
        assert_eq!(word_triviality(&p, &[1, 1, 1]), Triviality::Nontrivial);
    }

    #[test]
    fn coset_tier_nonabelian_finite() {
        // S3: commutator [a, b] is non-trivial but dies in H1 — only the
        // Todd–Coxeter tier can certify Nontrivial.
        let p = Presentation::new(2, vec![vec![1, 1], vec![2, 2], vec![1, 2, 1, 2, 1, 2]]);
        assert_eq!(word_triviality(&p, &[1, 2, -1, -2]), Triviality::Nontrivial);
        assert_eq!(
            word_triviality(&p, &[1, 2, 1, 2, 1, 2]),
            Triviality::Trivial
        );
    }

    /// `n + 1` generators `g₀ … gₙ₋₁, r` and relators `g₀ r²`,
    /// `gₖ gₖ₋₁⁻³` (0 < k < n), `gₙ₋₁³` plus `extra`. Unit-pivot
    /// elimination of the relator lattice walks down the chain and
    /// multiplies `r`'s row by 3 per step, past `i64` for n = 40.
    fn tripling_chain(n: i32, extra: Vec<Vec<i32>>) -> Presentation {
        let r = n + 1;
        let mut relators = vec![vec![1, r, r]];
        relators.extend((1..n).map(|k| vec![k + 1, -k, -k, -k]));
        relators.push(vec![n, n, n]);
        relators.extend(extra);
        Presentation::new(r as usize, relators)
    }

    #[test]
    fn lattice_overflow_falls_through_to_coset_enumeration() {
        // With r² = 1 the chain collapses to ⟨ r | r² ⟩ = ℤ/2: the lattice
        // system overflows, Todd–Coxeter still decides. Passing
        // `evidently_abelian` shows the overflow is not read as membership.
        let p = tripling_chain(40, vec![vec![41, 41]]);
        let e = exponent_vector(&[41], p.generator_count());
        assert_eq!(feasible(&p.relator_lattice(), &e), Err(Overflow));
        assert_eq!(
            decide_tiers(&p, false, true, &[41], DEFAULT_COSET_BUDGET),
            Triviality::Nontrivial
        );
        assert_eq!(
            decide_tiers(&p, false, true, &[41, 41], DEFAULT_COSET_BUDGET),
            Triviality::Trivial
        );
    }

    #[test]
    fn lattice_overflow_without_enumeration_is_unknown() {
        // ℤ/(2·3⁴⁰): too large to enumerate, and the lattice system
        // overflows, so no tier decides and nothing panics.
        let p = tripling_chain(40, vec![]);
        let e = exponent_vector(&[41], p.generator_count());
        assert_eq!(feasible(&p.relator_lattice(), &e), Err(Overflow));
        assert_eq!(
            decide_tiers(&p, false, true, &[41], 64),
            Triviality::Unknown
        );
    }

    #[test]
    fn unknown_for_hard_cases() {
        // Genus-2 surface group: infinite, non-abelian; the commutator
        // product relator puts the test word in the H1 lattice, TC cannot
        // close, so we must answer Unknown (with a tiny budget to keep the
        // test fast).
        let p = Presentation::new(4, vec![vec![1, 2, -1, -2, 3, 4, -3, -4]]);
        assert_eq!(
            word_triviality_with_budget(&p, &[1, 2, -1, -2], 64),
            Triviality::Unknown
        );
    }
}
