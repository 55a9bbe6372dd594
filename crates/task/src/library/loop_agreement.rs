//! Loop agreement tasks (paper, §1.3).
//!
//! A loop agreement task is specified by a 2-dimensional (colorless)
//! complex `K` and a loop through three distinguished vertices. Solo
//! processes decide their distinguished vertex; two participants decide on
//! a common edge (or vertex) along the loop segment joining their
//! distinguished vertices; three participants may decide any simplex of
//! `K`. Loop agreement is solvable iff the loop is contractible in `|K|` —
//! the undecidable residue of the paper's characterization (§7).
//!
//! chromata-lint: allow(P3): indices address generator-built vertex/edge tables whose lengths are fixed by the construction arity; every site is advisory-flagged by P2 for per-site review

use chromata_topology::{Color, Complex, Simplex, Value, Vertex};

use crate::task::Task;

/// A loop in a colorless complex: three path segments
/// `p01 : d0 → d1`, `p12 : d1 → d2`, `p20 : d2 → d0`, each a walk along
/// edges of the complex.
#[derive(Clone, Debug)]
pub struct LoopSpec {
    /// The ambient colorless complex (vertex colors are ignored; stock
    /// complexes use color 0 everywhere).
    pub complex: Complex,
    /// The three path segments; `paths[i]` runs from distinguished vertex
    /// `d_i` to `d_{(i+1) mod 3}`.
    pub paths: [Vec<Value>; 3],
}

impl LoopSpec {
    /// The distinguished vertex values `d0, d1, d2`.
    ///
    /// # Panics
    ///
    /// Panics if a path is empty.
    #[must_use]
    pub fn distinguished(&self) -> [Value; 3] {
        [
            self.paths[0].first().expect("non-empty path").clone(), // chromata-lint: allow(P1): documented # Panics contract: paths must be non-empty
            self.paths[1].first().expect("non-empty path").clone(), // chromata-lint: allow(P1): documented # Panics contract: paths must be non-empty
            self.paths[2].first().expect("non-empty path").clone(), // chromata-lint: allow(P1): documented # Panics contract: paths must be non-empty
        ]
    }

    /// The full loop walk `d0 … d1 … d2 … d0` as a vertex-value sequence.
    #[must_use]
    pub fn loop_walk(&self) -> Vec<Value> {
        let mut walk = self.paths[0].clone();
        walk.extend(self.paths[1].iter().skip(1).cloned());
        walk.extend(self.paths[2].iter().skip(1).cloned());
        walk
    }

    /// Validates that consecutive path values are edges (or equal), that
    /// the segments chain up (`end(p_i) = start(p_{i+1})`), and that the
    /// loop closes.
    ///
    /// # Panics
    ///
    /// Panics on an invalid specification (these are programmer errors in
    /// stock task definitions).
    pub fn validate(&self) {
        for i in 0..3 {
            let p = &self.paths[i];
            assert!(!p.is_empty(), "path {i} is empty");
            for w in p.windows(2) {
                if w[0] == w[1] {
                    continue;
                }
                let e = Simplex::from_iter([raw(&w[0]), raw(&w[1])]);
                assert!(self.complex.contains(&e), "path {i} uses a non-edge {e}");
            }
            let next = &self.paths[(i + 1) % 3];
            assert_eq!(
                p.last(),
                next.first(),
                "segment {i} does not chain into the next"
            );
        }
    }
}

fn raw(v: &Value) -> Vertex {
    Vertex::new(Color::new(0), v.clone())
}

fn colored(c: u8, v: &Value) -> Vertex {
    Vertex::new(Color::new(c), v.clone())
}

/// Builds the three-process loop agreement task for `spec`.
///
/// # Panics
///
/// Panics if the loop specification is invalid.
///
/// # Examples
///
/// ```
/// use chromata_task::library::{loop_agreement, sphere_complex};
///
/// let t = loop_agreement("sphere-loop", sphere_complex());
/// assert_eq!(t.input().facet_count(), 1);
/// ```
#[must_use]
pub fn loop_agreement(name: &str, spec: LoopSpec) -> Task {
    spec.validate();
    let d = spec.distinguished();
    let input = Complex::from_facets([Simplex::from_iter(
        (0..3u8).map(|i| Vertex::of(i, i64::from(i))),
    )]);
    let k = spec.complex.clone();
    let paths = spec.paths.clone();
    Task::from_delta_fn(name, input, move |tau| {
        let colors: Vec<u8> = tau.iter().map(|u| u.color().index()).collect();
        match colors.as_slice() {
            [i] => vec![Simplex::vertex(colored(*i, &d[*i as usize]))],
            [i, j] => {
                // Path segment joining d_i to d_j: segment i when j = i+1
                // (mod 3), traversed forward; the pair (0, 2) uses segment
                // 2 (d2 → d0).
                let seg = match (i, j) {
                    (0, 1) => &paths[0],
                    (1, 2) => &paths[1],
                    (0, 2) => &paths[2],
                    other => unreachable!("unexpected color pair {other:?}"), // chromata-lint: allow(P1): delta is evaluated only on simplices of the 3-process input complex built above
                };
                let mut out = Vec::new();
                for w in seg.windows(2) {
                    if w[0] == w[1] {
                        continue;
                    }
                    // Both orientations: either process may take either
                    // endpoint of the edge.
                    out.push(Simplex::from_iter([colored(*i, &w[0]), colored(*j, &w[1])]));
                    out.push(Simplex::from_iter([colored(*i, &w[1]), colored(*j, &w[0])]));
                }
                // Same-vertex decisions along the segment.
                for v in seg {
                    out.push(Simplex::from_iter([colored(*i, v), colored(*j, v)]));
                }
                out
            }
            [0, 1, 2] => {
                // Any simplex of K: all chromatic triangles whose value
                // set is a simplex of K.
                let mut out = Vec::new();
                let verts: Vec<Value> = k.vertices().map(|u| u.value().clone()).collect();
                for a in &verts {
                    for b in &verts {
                        for c in &verts {
                            let set = Simplex::from_iter([raw(a), raw(b), raw(c)]);
                            if k.contains(&set) {
                                out.push(Simplex::from_iter([
                                    colored(0, a),
                                    colored(1, b),
                                    colored(2, c),
                                ]));
                            }
                        }
                    }
                }
                out
            }
            other => unreachable!("unexpected color set {other:?}"), // chromata-lint: allow(P1): delta is evaluated only on simplices of the 3-process input complex built above
        }
    })
    .expect("loop agreement is a valid task") // chromata-lint: allow(P1): loop-agreement construction yields a valid task for every validated LoopSpec
}

/// The boundary of a tetrahedron (a 2-sphere), vertices `1..=4`, with the
/// loop `1 → 2 → 3 → 1` (contractible: loop agreement is solvable).
#[must_use]
pub fn sphere_complex() -> LoopSpec {
    let mut k = Complex::new();
    for skip in 1..=4i64 {
        k.add_simplex(Simplex::from_iter(
            (1..=4i64)
                .filter(|&x| x != skip)
                .map(|x| raw(&Value::Int(x))),
        ));
    }
    LoopSpec {
        complex: k,
        paths: [
            vec![Value::Int(1), Value::Int(2)],
            vec![Value::Int(2), Value::Int(3)],
            vec![Value::Int(3), Value::Int(1)],
        ],
    }
}

/// A single filled triangle (a disk), vertices `1..=3`, boundary loop.
/// Trivially contractible.
#[must_use]
pub fn disk_complex() -> LoopSpec {
    let k = Complex::from_facets([Simplex::from_iter((1..=3i64).map(|x| raw(&Value::Int(x))))]);
    LoopSpec {
        complex: k,
        paths: [
            vec![Value::Int(1), Value::Int(2)],
            vec![Value::Int(2), Value::Int(3)],
            vec![Value::Int(3), Value::Int(1)],
        ],
    }
}

/// The 7-vertex (Möbius–Kantor/Császár) triangulation of the torus:
/// vertices `0..=6`, faces `{i, i+1, i+3}` and `{i, i+2, i+3}` (mod 7).
/// The default loop `0 → 1 → 2 → 0` is *essential* (class `(1, ·)` in
/// `H₁ = ℤ²`), so the loop agreement task is unsolvable.
#[must_use]
pub fn torus_complex() -> LoopSpec {
    let mut k = Complex::new();
    for i in 0..7i64 {
        for (a, b) in [(1, 3), (2, 3)] {
            k.add_simplex(Simplex::from_iter([
                raw(&Value::Int(i)),
                raw(&Value::Int((i + a) % 7)),
                raw(&Value::Int((i + b) % 7)),
            ]));
        }
    }
    LoopSpec {
        complex: k,
        paths: [
            vec![Value::Int(0), Value::Int(1)],
            vec![Value::Int(1), Value::Int(2)],
            vec![Value::Int(2), Value::Int(0)],
        ],
    }
}

/// Kühnel's 6-vertex triangulation of the projective plane (vertices
/// `1..=6`). The default loop `1 → 2 → 5 → 1` is not the boundary of a
/// face and is essential (`H₁ = ℤ/2`): loop agreement on it is
/// unsolvable, detected through the torsion obstruction.
#[must_use]
pub fn projective_plane_complex() -> LoopSpec {
    let faces = [
        [1, 2, 3],
        [1, 2, 4],
        [1, 3, 5],
        [1, 4, 6],
        [1, 5, 6],
        [2, 3, 6],
        [2, 4, 5],
        [2, 5, 6],
        [3, 4, 5],
        [3, 4, 6],
    ];
    let mut k = Complex::new();
    for f in faces {
        k.add_simplex(Simplex::from_iter(f.iter().map(|&x| raw(&Value::Int(x)))));
    }
    LoopSpec {
        complex: k,
        paths: [
            vec![Value::Int(1), Value::Int(2)],
            vec![Value::Int(2), Value::Int(5)],
            vec![Value::Int(5), Value::Int(1)],
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chromata_algebra::{homology, ChainComplex};

    #[test]
    fn stock_complex_homology() {
        let s = homology(&sphere_complex().complex);
        assert_eq!((s.betti0, s.betti1, s.betti2), (1, 0, 1));
        let t = homology(&torus_complex().complex);
        assert_eq!((t.betti0, t.betti1, t.betti2), (1, 2, 1));
        let p = homology(&projective_plane_complex().complex);
        assert_eq!((p.betti0, p.betti1), (1, 0));
        assert_eq!(p.torsion1, vec![2]);
    }

    #[test]
    fn default_loops_have_expected_homology_classes() {
        for (spec, essential) in [
            (sphere_complex(), false),
            (disk_complex(), false),
            (torus_complex(), true),
        ] {
            let cc = ChainComplex::new(&spec.complex);
            let walk: Vec<Vertex> = spec.loop_walk().iter().map(raw).collect();
            let z = cc.walk_to_chain(&walk).expect("loop along edges");
            assert!(cc.is_cycle(&z));
            assert_eq!(cc.is_boundary(&z), Ok(!essential), "spec mismatch");
        }
        // RP²: the essential loop is 2-torsion — its double is a boundary
        // but the loop itself is not.
        let spec = projective_plane_complex();
        let cc = ChainComplex::new(&spec.complex);
        let walk: Vec<Vertex> = spec.loop_walk().iter().map(raw).collect();
        let z = cc.walk_to_chain(&walk).unwrap();
        assert_eq!(cc.is_boundary(&z), Ok(false));
        let double: Vec<i64> = z.iter().map(|x| 2 * x).collect();
        assert_eq!(cc.is_boundary(&double), Ok(true));
    }

    #[test]
    fn task_construction_valid() {
        for (name, spec) in [
            ("sphere", sphere_complex()),
            ("disk", disk_complex()),
            ("torus", torus_complex()),
            ("rp2", projective_plane_complex()),
        ] {
            let t = loop_agreement(name, spec);
            assert_eq!(t.process_count(), 3);
            assert_eq!(t.input().facet_count(), 1);
        }
    }

    #[test]
    fn solo_decides_distinguished_vertex() {
        let t = loop_agreement("sphere", sphere_complex());
        let img = t.delta().image_of(&Simplex::vertex(Vertex::of(0, 0)));
        assert!(img.contains_vertex(&colored(0, &Value::Int(1))));
        assert_eq!(img.facet_count(), 1);
    }

    #[test]
    fn pair_decisions_live_on_the_segment() {
        let t = loop_agreement("torus", torus_complex());
        let e = Simplex::from_iter([Vertex::of(0, 0), Vertex::of(1, 1)]);
        let img = t.delta().image_of(&e);
        // Segment 0 → 1 (one edge): both orientations + two same-vertex
        // decisions = 4 facets.
        assert_eq!(img.facet_count(), 4);
    }

    #[test]
    fn triple_decisions_cover_all_complex_simplices() {
        let t = loop_agreement("disk", disk_complex());
        let sigma = t.input().facets().next().unwrap().clone();
        // 27 assignments; K = full triangle so all sets are simplices.
        assert_eq!(t.delta().image_of(&sigma).facet_count(), 27);
    }

    #[test]
    #[should_panic(expected = "non-edge")]
    fn invalid_path_rejected() {
        let mut spec = disk_complex();
        spec.paths[0] = vec![Value::Int(1), Value::Int(99)];
        spec.validate();
    }
}
