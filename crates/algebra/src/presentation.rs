//! Finite group presentations and Tietze simplification.
//!
//! The edge-path fundamental groups of the output complexes (paper, §5) are
//! handed to this module as presentations `⟨ g₁ … gₙ | r₁ … rₘ ⟩`. Tietze
//! moves shrink them enough to *recognize* the decidable regimes: trivial
//! groups, free groups, and evidently-abelian groups.
//!
//! chromata-lint: allow(P3): generator/relator indices are bounded by the presentation tables built in the same pass; every site is advisory-flagged by P2 for per-site review

use crate::matrix::SparseMatrix;
use crate::word::{
    cyclic_reduce, delete_generator, exponent_vector, free_reduce, invert, substitute, Word,
};

/// A finite presentation of a group.
///
/// # Examples
///
/// ```
/// use chromata_algebra::Presentation;
///
/// // ⟨ a | a² ⟩ = Z/2.
/// let p = Presentation::new(1, vec![vec![1, 1]]);
/// assert!(!p.simplified().is_trivial_group());
/// // ⟨ a | a ⟩ = 1.
/// let q = Presentation::new(1, vec![vec![1]]);
/// assert!(q.simplified().is_trivial_group());
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Presentation {
    generators: usize,
    relators: Vec<Word>,
}

impl Presentation {
    /// Creates a presentation with `generators` generators and the given
    /// relators (freely and cyclically reduced on construction).
    #[must_use]
    pub fn new(generators: usize, relators: Vec<Word>) -> Self {
        let mut p = Presentation {
            generators,
            relators,
        };
        p.cleanup();
        p
    }

    /// Number of generators.
    #[must_use]
    pub fn generator_count(&self) -> usize {
        self.generators
    }

    /// The relators (freely and cyclically reduced, deduplicated).
    #[must_use]
    pub fn relators(&self) -> &[Word] {
        &self.relators
    }

    /// Whether the presentation has no generators (the trivial group,
    /// syntactically).
    #[must_use]
    pub fn is_trivial_group(&self) -> bool {
        self.generators == 0
    }

    /// Whether the presentation has no relators (a free group of rank
    /// [`Presentation::generator_count`]).
    #[must_use]
    pub fn is_free(&self) -> bool {
        self.relators.is_empty()
    }

    /// The relator lattice of H₁ = Gᵃᵇ, sparse: one column per relator (its
    /// exponent vector), one row per generator. H₁ is ℤ^generators modulo
    /// the span of the columns.
    #[must_use]
    pub fn relator_lattice(&self) -> SparseMatrix {
        let mut m = SparseMatrix::new(self.generators);
        for r in &self.relators {
            m.push_column(exponent_vector(r, self.generators).into_iter().enumerate());
        }
        m
    }

    /// Normalizes relators: free+cyclic reduction, drop empties, dedup
    /// (up to inversion).
    fn cleanup(&mut self) {
        self.relators = normalized(std::mem::take(&mut self.relators));
    }

    /// Applies Tietze simplification until a fixed point (or a size guard):
    /// eliminates generators that occur exactly once in a single relator,
    /// substitutes length-1 and length-2 relators, and re-normalizes.
    /// The result presents an isomorphic group.
    ///
    /// Each elimination `g := rep` substitutes into and re-canonicalizes
    /// only the relators that mention `g`. The others are renumbered,
    /// an order-preserving relabel of the letters, so they keep their
    /// canonical form and their relative order and are merged back in.
    #[must_use]
    pub fn simplified(&self) -> Presentation {
        const MAX_TOTAL_LENGTH: usize = 100_000;
        let mut p = self.clone();
        p.cleanup();
        let mut counts = vec![0u32; p.generators + 1];
        loop {
            let Some((gen, rep, ridx)) = p.find_elimination(&mut counts) else {
                return p;
            };
            // Substitute gen := rep in all other relators, drop relator
            // ridx and renumber generators.
            let mut renumbered = Vec::with_capacity(p.relators.len());
            let mut substituted = Vec::new();
            let mut total = 0usize;
            for (i, r) in p.relators.iter().enumerate() {
                if i == ridx {
                    continue;
                }
                if r.iter().any(|x| x.abs() == gen) {
                    let s = delete_generator(&substitute(r, gen, &rep), gen);
                    total += s.len();
                    substituted.push(s);
                } else {
                    total += r.len();
                    renumbered.push(delete_generator(r, gen));
                }
            }
            if total > MAX_TOTAL_LENGTH {
                return p; // size guard: give up on further elimination
            }
            p = Presentation {
                generators: p.generators - 1,
                relators: merge_sorted(renumbered, normalized(substituted)),
            };
        }
    }

    /// Finds a generator eliminable by a Tietze move: the first relator in
    /// which some generator occurs exactly once (so the relator can be
    /// solved for it), and the smallest such generator. Returns
    /// `(generator, replacement word, relator index)`.
    ///
    /// One counting pass per relator; `counts` is scratch space indexed by
    /// generator (at least `generators + 1` long), all zero on entry and on
    /// return. Letters beyond the generator count are never eliminated.
    fn find_elimination(&self, counts: &mut [u32]) -> Option<(i32, Word, usize)> {
        let n = self.generators;
        let slot = |x: i32| x.unsigned_abs() as usize;
        for (ridx, r) in self.relators.iter().enumerate() {
            for &x in r.iter().filter(|&&x| slot(x) <= n) {
                counts[slot(x)] += 1;
            }
            let unique = r
                .iter()
                .filter(|&&x| slot(x) <= n && counts[slot(x)] == 1)
                .map(|x| x.abs())
                .min();
            for &x in r.iter().filter(|&&x| slot(x) <= n) {
                counts[slot(x)] = 0;
            }
            let Some(g) = unique else {
                continue;
            };
            // Rotate r so the unique occurrence of ±g is first:
            // r = g^ε · w  ⇒  g^ε = w⁻¹  ⇒  g = w⁻¹ (ε=1) or w (ε=-1).
            let pos = r.iter().position(|&x| x.abs() == g)?;
            let mut rot = r[pos..].to_vec();
            rot.extend_from_slice(&r[..pos]);
            let eps = rot[0].signum();
            let w = &rot[1..];
            let rep = if eps > 0 { invert(w) } else { free_reduce(w) };
            return Some((g, rep, ridx));
        }
        None
    }

    /// Whether the presented *group* is certifiably abelian: after Tietze
    /// simplification the presentation has at most one generator, or every
    /// pair of generators has its commutator among the relators. Sufficient
    /// but not necessary ("evidently abelian").
    #[must_use]
    pub fn is_evidently_abelian(&self) -> bool {
        self.simplified().has_all_commutators()
    }

    /// [`Presentation::is_evidently_abelian`] for a presentation that is
    /// already the output of [`Presentation::simplified`] (simplification
    /// is idempotent, so this skips a second pass).
    pub(crate) fn has_all_commutators(&self) -> bool {
        if self.generators <= 1 {
            return true;
        }
        // All pairwise commutators present? Relators are sorted.
        (1..=self.generators as i32).all(|a| {
            (a + 1..=self.generators as i32).all(|b| {
                let comm = canonical_cyclic(&[a, b, -a, -b]);
                self.relators.binary_search(&comm).is_ok()
            })
        })
    }
}

/// Relators in normal form: freely and cyclically reduced, empties
/// dropped, each replaced by its [`canonical_cyclic`] representative,
/// sorted and deduplicated.
fn normalized(relators: Vec<Word>) -> Vec<Word> {
    let mut rs: Vec<Word> = relators
        .iter()
        .map(|r| cyclic_reduce(&free_reduce(r)))
        .filter(|r| !r.is_empty())
        .map(|r| canonical_cyclic(&r))
        .collect();
    rs.sort();
    rs.dedup();
    rs
}

/// Merges two sorted, deduplicated relator lists into one.
fn merge_sorted(a: Vec<Word>, b: Vec<Word>) -> Vec<Word> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut b = b.into_iter().peekable();
    for x in a {
        while let Some(y) = b.next_if(|y| *y < x) {
            out.push(y);
        }
        if b.peek() == Some(&x) {
            b.next();
        }
        out.push(x);
    }
    out.extend(b);
    out
}

/// Canonical representative of a cyclic word up to rotation and inversion:
/// the lexicographically least rotation of the word or of its inverse.
fn canonical_cyclic(w: &[i32]) -> Word {
    let w = cyclic_reduce(w);
    let inv = invert(&w);
    let a = least_rotation(&w);
    let b = least_rotation(&inv);
    a.min(b)
}

/// The lexicographically least rotation of `w`, found in linear time by
/// the two-candidate minimum-rotation scan.
fn least_rotation(w: &[i32]) -> Word {
    let n = w.len();
    let at = |k: usize| w[k % n];
    let (mut i, mut j, mut k) = (0usize, 1usize, 0usize);
    while i < n && j < n && k < n {
        let (x, y) = (at(i + k), at(j + k));
        if x == y {
            k += 1;
            continue;
        }
        if x > y {
            i += k + 1;
        } else {
            j += k + 1;
        }
        if i == j {
            j += 1;
        }
        k = 0;
    }
    let mut rot = w.to_vec();
    rot.rotate_left(i.min(j).min(n));
    rot
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cleanup_dedups_rotations_and_inverses() {
        let p = Presentation::new(2, vec![vec![1, 2], vec![2, 1], vec![-2, -1], vec![1, -1]]);
        assert_eq!(p.relators().len(), 1);
    }

    #[test]
    fn trivial_group_recognized() {
        // ⟨ a, b | a, b ⟩ = 1.
        let p = Presentation::new(2, vec![vec![1], vec![2]]);
        assert!(p.simplified().is_trivial_group());
        // ⟨ a, b | ab, b ⟩ = 1.
        let q = Presentation::new(2, vec![vec![1, 2], vec![2]]);
        assert!(q.simplified().is_trivial_group());
    }

    #[test]
    fn free_group_stays_free() {
        let p = Presentation::new(3, vec![]);
        let s = p.simplified();
        assert!(s.is_free());
        assert_eq!(s.generator_count(), 3);
    }

    #[test]
    fn z2_is_not_trivial_but_is_abelian() {
        let p = Presentation::new(1, vec![vec![1, 1]]);
        let s = p.simplified();
        assert!(!s.is_trivial_group());
        assert_eq!(s.generator_count(), 1);
        assert!(p.is_evidently_abelian());
    }

    #[test]
    fn torus_presentation_is_abelian() {
        // ⟨ a, b | [a,b] ⟩ = Z².
        let p = Presentation::new(2, vec![vec![1, 2, -1, -2]]);
        assert!(p.is_evidently_abelian());
        assert!(!p.simplified().is_trivial_group());
    }

    #[test]
    fn surface_genus2_not_evidently_abelian() {
        // ⟨ a,b,c,d | [a,b][c,d] ⟩: not abelian; our sufficient check must
        // not claim otherwise.
        let p = Presentation::new(4, vec![vec![1, 2, -1, -2, 3, 4, -3, -4]]);
        assert!(!p.is_evidently_abelian());
    }

    #[test]
    fn elimination_collapses_chain() {
        // ⟨ a, b, c | a b⁻¹, b c⁻¹ ⟩ ≅ Z (one generator, free).
        let p = Presentation::new(3, vec![vec![1, -2], vec![2, -3]]);
        let s = p.simplified();
        assert_eq!(s.generator_count(), 1);
        assert!(s.is_free());
    }

    #[test]
    fn relator_matrix_abelianization() {
        // ⟨ a, b | a²b ⟩ abelianized: ±[2, 1] (canonicalization may invert
        // the relator, which spans the same lattice).
        let p = Presentation::new(2, vec![vec![1, 1, 2]]);
        let m = p.relator_lattice().to_dense();
        let row = (m.get(0, 0), m.get(1, 0));
        assert!(row == (2, 1) || row == (-2, -1), "got {row:?}");
    }
}
