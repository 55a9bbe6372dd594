//! Property-based tests for the integer-algebra substrate.

use proptest::prelude::*;

use chromata_algebra::{
    concat, coset_enumeration, cyclic_reduce, delete_generator, exponent_vector, feasible,
    free_reduce, invert, smith_normal_form, solve_integer, substitute, ChainComplex, Enumeration,
    IntMatrix, Presentation, SparseMatrix, Word,
};
use chromata_topology::{Complex, Simplex, Vertex};

fn small_matrix() -> impl Strategy<Value = IntMatrix> {
    (1usize..5, 1usize..5).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-6i64..7, r * c)
            .prop_map(move |data| IntMatrix::from_rows(r, c, data))
    })
}

/// The column-major sparse copy of a dense matrix.
fn sparse_of(a: &IntMatrix) -> SparseMatrix {
    let mut s = SparseMatrix::new(a.rows());
    for c in 0..a.cols() {
        s.push_column((0..a.rows()).map(|r| (r, a.get(r, c))));
    }
    s
}

fn word() -> impl Strategy<Value = Vec<i32>> {
    proptest::collection::vec(prop_oneof![1i32..4, (-3i32..0)], 0..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn smith_decomposition_holds(a in small_matrix()) {
        let s = smith_normal_form(&a);
        prop_assert_eq!(s.u.mul(&a).mul(&s.v), s.d.clone());
        // Diagonal with a divisibility chain.
        for r in 0..s.d.rows() {
            for c in 0..s.d.cols() {
                if r != c {
                    prop_assert_eq!(s.d.get(r, c), 0);
                }
            }
        }
        let f = s.invariant_factors();
        for w in f.windows(2) {
            prop_assert_eq!(w[1] % w[0], 0);
        }
    }

    #[test]
    fn solver_solutions_check_out(a in small_matrix(), x in proptest::collection::vec(-4i64..5, 4)) {
        // Build a guaranteed-feasible system: b := A·x0.
        let x0 = &x[..a.cols().min(x.len())];
        if x0.len() < a.cols() { return Ok(()); }
        let b = a.mul_vec(x0);
        let sol = solve_integer(&a, &b);
        prop_assert!(sol.is_some(), "constructed system must be feasible");
        prop_assert_eq!(a.mul_vec(&sol.unwrap()), b);
    }

    #[test]
    fn infeasibility_is_certified_by_scaling(a in small_matrix()) {
        // 2A·x = b with odd entries in b outside the even lattice of the
        // doubled matrix whenever b itself is not reachable — we test the
        // contrapositive: everything solve_integer returns must verify.
        let doubled = {
            let mut m = IntMatrix::zeros(a.rows(), a.cols());
            for r in 0..a.rows() {
                for c in 0..a.cols() {
                    m.set(r, c, 2 * a.get(r, c));
                }
            }
            m
        };
        let b = vec![1i64; a.rows()];
        if let Some(x) = solve_integer(&doubled, &b) {
            prop_assert_eq!(doubled.mul_vec(&x), b);
        } else {
            prop_assert_eq!(feasible(&sparse_of(&doubled), &b), Ok(false));
        }
    }

    #[test]
    fn free_reduction_is_idempotent_and_shortening(w in word()) {
        let r = free_reduce(&w);
        prop_assert!(r.len() <= w.len());
        prop_assert_eq!(free_reduce(&r), r.clone());
        // No adjacent inverse pair survives.
        for pair in r.windows(2) {
            prop_assert_ne!(pair[0], -pair[1]);
        }
    }

    #[test]
    fn inverse_concat_cancels(w in word()) {
        prop_assert!(concat(&w, &invert(&w)).is_empty());
        prop_assert!(concat(&invert(&w), &w).is_empty());
    }

    #[test]
    fn cyclic_reduction_within_conjugacy(w in word()) {
        let c = cyclic_reduce(&w);
        prop_assert!(c.len() <= free_reduce(&w).len());
        if !c.is_empty() {
            prop_assert_ne!(c[0], -c[c.len() - 1]);
        }
        // Exponent vectors are conjugacy invariants.
        prop_assert_eq!(exponent_vector(&c, 3), exponent_vector(&free_reduce(&w), 3));
    }

    #[test]
    fn tietze_preserves_abelianization_rank(
        relators in proptest::collection::vec(word(), 0..4)
    ) {
        let p = Presentation::new(3, relators);
        let q = p.simplified();
        // The abelianization G^ab = Z^gens / relator lattice is an
        // isomorphism invariant; compare via Smith invariant factors of
        // the relator lattices (padded ranks).
        let inv = |pres: &Presentation| {
            let m = pres.relator_lattice().to_dense();
            let s = smith_normal_form(&m);
            let rank_free = pres.generator_count() - s.rank();
            (rank_free, s.torsion())
        };
        prop_assert_eq!(inv(&p), inv(&q));
    }
}

/// The Tietze simplification as it was before relators were processed
/// incrementally: every step re-canonicalizes every relator with the
/// quadratic rotation scan. Kept verbatim as the oracle for
/// [`Presentation::simplified`]; it works on raw `(generators, relators)`
/// so no part of the library's normal form leaks into the reference.
mod reference {
    use super::*;

    fn canonical_cyclic(w: &[i32]) -> Word {
        let w = cyclic_reduce(w);
        let mut best: Option<Word> = None;
        for cand in [w.clone(), invert(&w)] {
            for k in 0..cand.len() {
                let mut rot = cand[k..].to_vec();
                rot.extend_from_slice(&cand[..k]);
                if best.as_ref().is_none_or(|b| rot < *b) {
                    best = Some(rot);
                }
            }
        }
        best.unwrap_or_default()
    }

    fn cleanup(relators: &[Word]) -> Vec<Word> {
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

    fn find_elimination(generators: usize, relators: &[Word]) -> Option<(i32, Word, usize)> {
        for (ridx, r) in relators.iter().enumerate() {
            for g in 1..=generators as i32 {
                if r.iter().filter(|&&x| x.abs() == g).count() != 1 {
                    continue;
                }
                let pos = r.iter().position(|&x| x.abs() == g)?;
                let mut rot = r[pos..].to_vec();
                rot.extend_from_slice(&r[..pos]);
                let w = &rot[1..];
                let rep = if rot[0] > 0 {
                    invert(w)
                } else {
                    free_reduce(w)
                };
                return Some((g, rep, ridx));
            }
        }
        None
    }

    pub fn simplified(generators: usize, relators: &[Word]) -> (usize, Vec<Word>) {
        const MAX_TOTAL_LENGTH: usize = 100_000;
        let (mut n, mut rs) = (generators, cleanup(relators));
        loop {
            rs = cleanup(&rs);
            let Some((gen, rep, ridx)) = find_elimination(n, &rs) else {
                return (n, rs);
            };
            let next: Vec<Word> = rs
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != ridx)
                .map(|(_, r)| delete_generator(&substitute(r, gen, &rep), gen))
                .collect();
            if next.iter().map(Vec::len).sum::<usize>() > MAX_TOTAL_LENGTH {
                return (n, rs);
            }
            (n, rs) = (n - 1, cleanup(&next));
        }
    }
}

/// The coset enumerator as it was before the flat table: nested `Vec`
/// rows of `Option<usize>`, relators cloned per coset and live cosets
/// recounted per scan. Kept verbatim (only `into_table` returns bare rows)
/// as the oracle for [`coset_enumeration`].
mod reference_tc {
    use chromata_algebra::{Presentation, Word};

    /// The rows of the complete table, or `None` when the budget ran out.
    pub fn enumerate(p: &Presentation, max_cosets: usize) -> Option<Vec<Vec<usize>>> {
        let g = p.generator_count();
        if g == 0 {
            return Some(vec![vec![]]);
        }
        let mut e = Enumerator::new(g, p.relators().to_vec(), max_cosets);
        match e.run() {
            Ok(()) => Some(e.into_table()),
            Err(Overflow) => None,
        }
    }

    struct Overflow;

    struct Enumerator {
        generators: usize,
        relators: Vec<Word>,
        /// table[c][l]: Option<coset>; entries may reference dead cosets and
        /// must be read through `rep`.
        table: Vec<Vec<Option<usize>>>,
        parent: Vec<usize>,
        max_cosets: usize,
        pending: Vec<(usize, usize)>,
    }

    impl Enumerator {
        fn new(generators: usize, relators: Vec<Word>, max_cosets: usize) -> Self {
            Enumerator {
                generators,
                relators,
                table: vec![vec![None; 2 * generators]],
                parent: vec![0],
                max_cosets,
                pending: Vec::new(),
            }
        }

        fn letter(x: i32) -> usize {
            let g = (x.unsigned_abs() as usize) - 1;
            2 * g + usize::from(x < 0)
        }

        fn inv(l: usize) -> usize {
            l ^ 1
        }

        fn rep(&mut self, mut c: usize) -> usize {
            while self.parent[c] != c {
                self.parent[c] = self.parent[self.parent[c]];
                c = self.parent[c];
            }
            c
        }

        fn get(&mut self, c: usize, l: usize) -> Option<usize> {
            let c = self.rep(c);
            let t = self.table[c][l]?;
            Some(self.rep(t))
        }

        fn set(&mut self, c: usize, l: usize, t: usize) {
            let c = self.rep(c);
            let t = self.rep(t);
            match self.get(c, l) {
                None => {
                    self.table[c][l] = Some(t);
                    // Backward entry.
                    match self.get(t, Self::inv(l)) {
                        None => self.table[t][Self::inv(l)] = Some(c),
                        Some(u) if u != c => self.pending.push((u, c)),
                        Some(_) => {}
                    }
                }
                Some(u) if u != t => self.pending.push((u, t)),
                Some(_) => {}
            }
        }

        fn define(&mut self, c: usize, l: usize) -> Result<usize, Overflow> {
            if self.table.len() >= self.max_cosets {
                return Err(Overflow);
            }
            let n = self.table.len();
            self.table.push(vec![None; 2 * self.generators]);
            self.parent.push(n);
            self.set(c, l, n);
            Ok(n)
        }

        fn process_coincidences(&mut self) {
            while let Some((a, b)) = self.pending.pop() {
                let a = self.rep(a);
                let b = self.rep(b);
                if a == b {
                    continue;
                }
                let (keep, drop) = if a < b { (a, b) } else { (b, a) };
                self.parent[drop] = keep;
                for l in 0..2 * self.generators {
                    if let Some(t) = self.table[drop][l] {
                        match self.get(keep, l) {
                            None => {
                                let t = self.rep(t);
                                self.table[keep][l] = Some(t);
                            }
                            Some(u) => {
                                let t = self.rep(t);
                                if t != u {
                                    self.pending.push((t, u));
                                }
                            }
                        }
                    }
                }
            }
        }

        /// Scans relator `r` at coset `c`, filling gaps with new cosets.
        fn scan_and_fill(&mut self, c: usize, r: &Word) -> Result<(), Overflow> {
            loop {
                let c = self.rep(c);
                // Forward scan.
                let mut f = c;
                let mut i = 0usize;
                while i < r.len() {
                    match self.get(f, Self::letter(r[i])) {
                        Some(t) => {
                            f = t;
                            i += 1;
                        }
                        None => break,
                    }
                }
                if i == r.len() {
                    if f != c {
                        self.pending.push((f, c));
                        self.process_coincidences();
                    }
                    return Ok(());
                }
                // Backward scan.
                let mut b = c;
                let mut j = r.len();
                while j > i {
                    match self.get(b, Self::inv(Self::letter(r[j - 1]))) {
                        Some(t) => {
                            b = t;
                            j -= 1;
                        }
                        None => break,
                    }
                }
                if j == i {
                    if f != b {
                        self.pending.push((f, b));
                        self.process_coincidences();
                    }
                    return Ok(());
                }
                if j == i + 1 {
                    // Deduction closes the scan.
                    self.set(f, Self::letter(r[i]), b);
                    self.process_coincidences();
                    return Ok(());
                }
                // Fill one gap and rescan.
                self.define(f, Self::letter(r[i]))?;
                self.process_coincidences();
            }
        }

        fn run(&mut self) -> Result<(), Overflow> {
            // Repeat passes until stable: scan every live coset against every
            // relator and fill every undefined entry. Coincidence processing
            // can invalidate earlier scans, hence the outer fixpoint loop.
            loop {
                let mut changed = false;
                let mut c = 0usize;
                while c < self.table.len() {
                    if self.rep(c) != c {
                        c += 1;
                        continue;
                    }
                    for r in self.relators.clone() {
                        let before = self.live_count();
                        self.scan_and_fill(c, &r)?;
                        if self.live_count() != before {
                            changed = true;
                        }
                        if self.rep(c) != c {
                            break; // this coset died; move on
                        }
                    }
                    if self.rep(c) == c {
                        for l in 0..2 * self.generators {
                            if self.get(c, l).is_none() {
                                self.define(c, l)?;
                                self.process_coincidences();
                                changed = true;
                            }
                        }
                    }
                    c += 1;
                }
                if !changed && self.is_complete() {
                    return Ok(());
                }
                if !changed {
                    // No structural change but incomplete: impossible, since
                    // undefined entries are always filled above. Guard anyway.
                    return Ok(());
                }
            }
        }

        fn live_count(&mut self) -> usize {
            (0..self.table.len())
                .filter(|&c| self.parent[c] == c)
                .count()
        }

        fn is_complete(&mut self) -> bool {
            for c in 0..self.table.len() {
                if self.rep(c) != c {
                    continue;
                }
                for l in 0..2 * self.generators {
                    if self.get(c, l).is_none() {
                        return false;
                    }
                }
            }
            true
        }

        fn into_table(mut self) -> Vec<Vec<usize>> {
            // Compact live cosets.
            let live: Vec<usize> = (0..self.table.len())
                .filter(|&c| self.rep(c) == c)
                .collect();
            let index: std::collections::BTreeMap<usize, usize> =
                live.iter().enumerate().map(|(i, &c)| (c, i)).collect();
            let mut rows = Vec::with_capacity(live.len());
            for &c in &live {
                let mut row = Vec::with_capacity(2 * self.generators);
                for l in 0..2 * self.generators {
                    let t = self.get(c, l).expect("table complete");
                    row.push(index[&t]);
                }
                rows.push(row);
            }
            rows
        }
    }
}

/// A random presentation: 1–6 generators, up to 7 relators of length up
/// to 9 over those generators.
fn presentation() -> impl Strategy<Value = (usize, Vec<Word>)> {
    (1usize..7).prop_flat_map(|n| {
        let letter = (1i32..=n as i32, 0u8..2).prop_map(|(g, neg)| if neg == 1 { -g } else { g });
        let relators = proptest::collection::vec(proptest::collection::vec(letter, 0..10), 0..8);
        relators.prop_map(move |rs| (n, rs))
    })
}

/// A random presentation leaning towards finite groups: 1–3 generators,
/// each usually bounded by a power relator, plus up to 4 random relators;
/// paired with a coset budget of 1–200, so that both enumeration outcomes
/// occur.
fn budgeted_presentation() -> impl Strategy<Value = (Presentation, usize)> {
    (1usize..4).prop_flat_map(|n| {
        let letter = (1i32..=n as i32, 0u8..2).prop_map(|(g, neg)| if neg == 1 { -g } else { g });
        let powers = proptest::collection::vec(0usize..6, n);
        let extra = proptest::collection::vec(proptest::collection::vec(letter, 0..9), 0..5);
        (powers, extra, 1usize..200).prop_map(move |(powers, extra, budget)| {
            let mut relators: Vec<Word> = powers
                .iter()
                .enumerate()
                .filter(|&(_, &k)| k > 0)
                .map(|(g, &k)| vec![g as i32 + 1; k])
                .collect();
            relators.extend(extra);
            (Presentation::new(n, relators), budget)
        })
    })
}

/// The rows of a finished enumeration, `None` when it ran out of budget.
fn enumeration_rows(e: Enumeration) -> Option<Vec<Vec<usize>>> {
    match e {
        Enumeration::Finite(t) => Some(t.rows().to_vec()),
        Enumeration::OutOfBounds => None,
    }
}

#[test]
fn coset_enumeration_matches_reference_on_known_groups() {
    let groups = [
        Presentation::new(1, vec![vec![1; 5]]),
        // S3, Q8, Z/2 × Z/2 and A5 = ⟨a, b | a², b³, (ab)⁵⟩.
        Presentation::new(2, vec![vec![1, 1], vec![2, 2], vec![1, 2, 1, 2, 1, 2]]),
        Presentation::new(
            2,
            vec![vec![1, 1, 1, 1], vec![1, 1, -2, -2], vec![-2, 1, 2, 1]],
        ),
        Presentation::new(2, vec![vec![1, 1], vec![2, 2], vec![1, 2, 1, 2]]),
        Presentation::new(2, vec![vec![1, 1], vec![2, 2, 2], [1, 2].repeat(5)]),
        // The infinite (3, 3, 3) triangle group never closes.
        Presentation::new(2, vec![vec![1, 1, 1], vec![2, 2, 2], [1, 2].repeat(3)]),
    ];
    let (mut finite, mut out_of_bounds) = (0, 0);
    for p in &groups {
        for budget in 1..=130 {
            let rows = enumeration_rows(coset_enumeration(p, budget));
            assert_eq!(
                rows,
                reference_tc::enumerate(p, budget),
                "{p:?} at {budget}"
            );
            if rows.is_some() {
                finite += 1;
            } else {
                out_of_bounds += 1;
            }
        }
    }
    assert!(
        finite > 0 && out_of_bounds > 0,
        "{finite} finite, {out_of_bounds} out of bounds"
    );
}

/// A random 2-complex on up to 7 vertices: a random subset of the
/// triangles of the full simplex, plus a few loose edges.
fn two_complex() -> impl Strategy<Value = Complex> {
    let triples: Vec<[i64; 3]> = (0..7)
        .flat_map(|a| (a + 1..7).flat_map(move |b| (b + 1..7).map(move |c| [a, b, c])))
        .collect();
    let pairs: Vec<[i64; 2]> = (0..7)
        .flat_map(|a| (a + 1..7).map(move |b| [a, b]))
        .collect();
    let (nt, np) = (triples.len(), pairs.len());
    (
        proptest::collection::vec(0u8..4, nt),
        proptest::collection::vec(0u8..8, np),
    )
        .prop_map(move |(tmask, pmask)| {
            let mut k = Complex::new();
            for (t, &m) in triples.iter().zip(&tmask) {
                if m == 0 {
                    k.add_simplex(Simplex::from_iter(t.iter().map(|&x| Vertex::of(0, x))));
                }
            }
            for (e, &m) in pairs.iter().zip(&pmask) {
                if m == 0 {
                    k.add_simplex(Simplex::from_iter(e.iter().map(|&x| Vertex::of(0, x))));
                }
            }
            k
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn simplified_matches_reference(pres in presentation()) {
        let (n, relators) = pres;
        let q = Presentation::new(n, relators.clone()).simplified();
        let (rn, rrel) = reference::simplified(n, &relators);
        prop_assert_eq!(q.generator_count(), rn);
        prop_assert_eq!(q.relators().to_vec(), rrel);
        // Simplification is idempotent, which the summary relies on.
        prop_assert_eq!(q.simplified(), q.clone());
    }

    #[test]
    fn coset_enumeration_matches_reference(input in budgeted_presentation()) {
        let (p, budget) = input;
        prop_assert_eq!(
            enumeration_rows(coset_enumeration(&p, budget)),
            reference_tc::enumerate(&p, budget)
        );
    }

    #[test]
    fn feasibility_matches_smith_solver(
        a in small_matrix(),
        b in proptest::collection::vec(-6i64..7, 4),
        x in proptest::collection::vec(-3i64..4, 4),
    ) {
        let b = &b[..a.rows()];
        let s = sparse_of(&a);
        prop_assert_eq!(s.to_dense(), a.clone());
        prop_assert_eq!(feasible(&s, b), Ok(solve_integer(&a, b).is_some()));
        // A right-hand side in the column lattice is always feasible.
        let reachable = a.mul_vec(&x[..a.cols()]);
        prop_assert_eq!(feasible(&s, &reachable), Ok(true));
    }

    #[test]
    fn feasibility_on_boundary_matrices(
        k in two_complex(),
        coeffs in proptest::collection::vec(-2i64..3, 21),
        seed in proptest::collection::vec(-1i64..2, 35),
    ) {
        let cc = ChainComplex::new(&k);
        let d2 = cc.boundary2.to_dense();
        // Arbitrary 1-chains: feasible exactly when the Smith solver agrees.
        let z: Vec<i64> = coeffs.iter().copied().cycle().take(cc.edges().len()).collect();
        prop_assert_eq!(feasible(&cc.boundary2, &z), Ok(solve_integer(&d2, &z).is_some()));
        prop_assert_eq!(cc.is_boundary(&z), Ok(solve_integer(&d2, &z).is_some()));
        // Boundaries of 2-chains are always feasible.
        let c2: Vec<i64> = seed.iter().copied().cycle().take(cc.triangles().len()).collect();
        let bz = d2.mul_vec(&c2);
        prop_assert_eq!(feasible(&cc.boundary2, &bz), Ok(true));
        // ∂₁ is checked the same way (rows = vertices).
        let d1 = cc.boundary1.to_dense();
        let w: Vec<i64> = seed.iter().copied().cycle().take(cc.vertices().len()).collect();
        prop_assert_eq!(feasible(&cc.boundary1, &w), Ok(solve_integer(&d1, &w).is_some()));
    }
}
