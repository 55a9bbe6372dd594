//! Programmatic surface triangulations: grid quotients.
//!
//! Builds triangulated tori and Klein bottles as quotients of an `m × n`
//! grid, for loop agreement tasks whose fundamental groups exercise every
//! tier of the contractibility machinery — including the honest `Unknown`
//! verdict on the Klein bottle, where the doubled orientation-reversing
//! loop is trivial in H₁ yet non-trivial in the (non-abelian, infinite)
//! fundamental group: exactly the undecidable residue of §7.
//!
//! chromata-lint: allow(P3): surface triangulation tables are generated with fixed arity before any index is taken; every site is advisory-flagged by P2 for per-site review

use chromata_topology::{Color, Complex, Simplex, Value, Vertex};

use crate::library::loop_agreement::LoopSpec;

fn grid_vertex(m: i64, n: i64, x: i64, y: i64, flip: bool) -> Vertex {
    // Normalize through the identifications: (x mod m with optional flip
    // of y), y mod n.
    let mut x = x;
    let mut y = y.rem_euclid(n);
    while x >= m {
        x -= m;
        if flip {
            y = (n - y).rem_euclid(n);
        }
    }
    while x < 0 {
        x += m;
        if flip {
            y = (n - y).rem_euclid(n);
        }
    }
    Vertex::new(Color::new(0), Value::Int(x * 1000 + y))
}

/// A triangulated grid quotient: the torus (`flip = false`) or the Klein
/// bottle (`flip = true`), with `m × n` squares split into two triangles
/// each.
///
/// # Panics
///
/// Panics if the grid is too small to give a simplicial quotient
/// (`m < 3 || n < 3`).
#[must_use]
pub fn grid_surface(m: i64, n: i64, flip: bool) -> Complex {
    assert!(
        m >= 3 && n >= 3,
        "grids below 3×3 do not quotient simplicially"
    );
    let v = |x: i64, y: i64| grid_vertex(m, n, x, y, flip);
    let mut k = Complex::new();
    for x in 0..m {
        for y in 0..n {
            k.add_simplex(Simplex::from_iter([v(x, y), v(x + 1, y), v(x + 1, y + 1)]));
            k.add_simplex(Simplex::from_iter([v(x, y), v(x, y + 1), v(x + 1, y + 1)]));
        }
    }
    k
}

/// Loop agreement on a `4 × 4` Klein bottle with the *doubled*
/// orientation-reversing loop: the loop is null-homologous
/// (`2a = 0` in `H₁ = ℤ ⊕ ℤ/2`) but not null-homotopic
/// (`a² ≠ 1` in `π₁ = ⟨a, b | abab⁻¹⟩`).
///
/// The task is genuinely unsolvable, but no tier of the pipeline can
/// certify it: the H₁ system is feasible, the group is neither trivial,
/// free, evidently abelian, nor finite — the pipeline answers `Unknown`,
/// the honest outcome for the undecidable residue (§7).
#[must_use]
pub fn klein_bottle_doubled_loop() -> LoopSpec {
    let (m, n) = (4i64, 4);
    let complex = grid_surface(m, n, true);
    let val = |x: i64, y: i64| grid_vertex(m, n, x, y, true).into_value();
    // The vertical loop a at x = 0 is the H₁ torsion generator (the
    // horizontal loop, which crosses the flipped identification, is the
    // free generator); a² walks it twice. Distinguished vertices split
    // the doubled walk into three segments.
    let a_twice: Vec<Value> = (0..=2 * n).map(|y| val(0, y)).collect();
    let d0 = 0usize;
    let d1 = 3usize;
    let d2 = 6usize;
    LoopSpec {
        complex,
        paths: [a_twice[d0..=d1].to_vec(), a_twice[d1..=d2].to_vec(), {
            let mut rest = a_twice[d2..].to_vec();
            rest.push(val(0, 0));
            rest.dedup();
            rest
        }],
    }
}

/// Loop agreement on the same Klein bottle with the loop traversed
/// *once*: the class is the H₁ torsion generator, so the torsion tier
/// certifies unsolvability exactly.
#[must_use]
pub fn klein_bottle_single_loop() -> LoopSpec {
    let (m, n) = (4i64, 4);
    let complex = grid_surface(m, n, true);
    let val = |x: i64, y: i64| grid_vertex(m, n, x, y, true).into_value();
    let a_once: Vec<Value> = (0..=n).map(|y| val(0, y)).collect();
    LoopSpec {
        complex,
        paths: [a_once[0..=1].to_vec(), a_once[1..=2].to_vec(), {
            let mut rest = a_once[2..].to_vec();
            rest.dedup();
            rest
        }],
    }
}

/// A larger torus than the 7-vertex minimal one, built as a `4 × 4` grid
/// quotient — for scaling benchmarks and as a cross-check that grid and
/// minimal triangulations agree on homology.
#[must_use]
pub fn grid_torus() -> Complex {
    grid_surface(4, 4, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chromata_algebra::{homology, loop_contractible, Triviality};

    #[test]
    fn grid_torus_homology() {
        let t = grid_torus();
        assert_eq!(t.vertex_count(), 16);
        assert_eq!(t.simplices_of_dim(2).count(), 32);
        let h = homology(&t);
        assert_eq!((h.betti0, h.betti1, h.betti2), (1, 2, 1));
        assert!(h.torsion1.is_empty());
    }

    #[test]
    fn klein_bottle_homology() {
        let k = grid_surface(4, 4, true);
        assert_eq!(k.vertex_count(), 16);
        let h = homology(&k);
        assert_eq!((h.betti0, h.betti1), (1, 1), "H1 = Z ⊕ Z/2");
        assert_eq!(h.torsion1, vec![2]);
        assert_eq!(h.betti2, 0, "non-orientable: no fundamental class");
    }

    #[test]
    fn doubled_loop_is_null_homologous_but_not_contractible() {
        let spec = klein_bottle_doubled_loop();
        spec.validate();
        let cc = chromata_algebra::ChainComplex::new(&spec.complex);
        let walk: Vec<Vertex> = spec
            .loop_walk()
            .iter()
            .map(|v| Vertex::new(Color::new(0), v.clone()))
            .collect();
        let z = cc.walk_to_chain(&walk).expect("edge walk");
        assert!(cc.is_cycle(&z));
        assert_eq!(cc.is_boundary(&z), Ok(true), "2a = 0 in H1");
        // The word problem cannot certify either way here (a² ≠ 1 in the
        // infinite non-abelian π1, but no tier proves it).
        assert_eq!(
            loop_contractible(&spec.complex, &walk),
            Some(Triviality::Unknown)
        );
    }

    #[test]
    fn single_loop_is_torsion() {
        let spec = klein_bottle_single_loop();
        spec.validate();
        let cc = chromata_algebra::ChainComplex::new(&spec.complex);
        let walk: Vec<Vertex> = spec
            .loop_walk()
            .iter()
            .map(|v| Vertex::new(Color::new(0), v.clone()))
            .collect();
        let z = cc.walk_to_chain(&walk).expect("edge walk");
        assert!(cc.is_cycle(&z));
        assert_eq!(
            cc.is_boundary(&z),
            Ok(false),
            "the torsion generator is not a boundary"
        );
        assert_eq!(
            loop_contractible(&spec.complex, &walk),
            Some(Triviality::Nontrivial)
        );
    }

    #[test]
    fn triangles_are_simplicial() {
        for flip in [false, true] {
            let k = grid_surface(4, 4, flip);
            for t in k.simplices_of_dim(2) {
                assert_eq!(t.len(), 3, "degenerate triangle {t}");
            }
            assert_eq!(k.simplices_of_dim(2).count(), 32);
            // Closed surface: every edge in exactly two triangles.
            for e in k.simplices_of_dim(1) {
                let cofaces = k.simplices_of_dim(2).filter(|t| e.is_face_of(t)).count();
                assert_eq!(cofaces, 2, "edge {e} has {cofaces} cofaces");
            }
        }
    }

    #[test]
    #[should_panic(expected = "3×3")]
    fn tiny_grids_rejected() {
        let _ = grid_surface(2, 3, false);
    }
}
