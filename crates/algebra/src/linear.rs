//! Integer linear systems.
//!
//! The H1-level contractibility obstruction of the solvability pipeline
//! reduces to feasibility of `A·x = b` over the integers: "can the boundary
//! of some 2-chain, plus integer combinations of cycle-basis shifts, equal
//! the given loop?" (paper, §5 and §6.2).
//!
//! Feasibility needs neither transformation matrix of a Smith normal form.
//! [`feasible`] eliminates on ±1 pivots over sparse rows, carrying `b`,
//! and picks each pivot Markowitz-style (least fill-in). Simplicial
//! boundary matrices are ±1 and almost entirely unit-reducible, so only a
//! small residual block with no unit entry is left; that block is
//! diagonalized densely in checked `i128`, updating `D` and `b` only.
//! Overflow anywhere is returned as [`Overflow`], never a panic.
//! [`solve_integer`] keeps the dense Smith path for callers that want a
//! solution vector; the property tests use it as `feasible`'s oracle.
//!
//! chromata-lint: allow(P3): row/column indices are bounded by the matrix shape checked at entry; every site is advisory-flagged by P2 for per-site review

use std::fmt;

use crate::matrix::{IntMatrix, SparseMatrix};
use crate::smith::smith_normal_form;

/// Integer overflow during elimination: the system's coefficients grew
/// past checked arithmetic, so its feasibility is undetermined.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Overflow;

impl fmt::Display for Overflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("integer overflow during elimination")
    }
}

impl std::error::Error for Overflow {}

/// Solves `a · x = b` over the integers.
///
/// Returns a solution vector if one exists, `None` otherwise.
///
/// # Panics
///
/// Panics if `b.len() != a.rows()`.
///
/// # Examples
///
/// ```
/// use chromata_algebra::{solve_integer, IntMatrix};
///
/// let a = IntMatrix::from_rows(2, 2, vec![2, 0, 0, 3]);
/// assert_eq!(solve_integer(&a, &[4, 9]), Some(vec![2, 3]));
/// assert_eq!(solve_integer(&a, &[1, 0]), None); // 2 ∤ 1
/// ```
#[must_use]
pub fn solve_integer(a: &IntMatrix, b: &[i64]) -> Option<Vec<i64>> {
    assert_eq!(b.len(), a.rows(), "right-hand side length mismatch");
    let s = smith_normal_form(a);
    // a x = b  ⟺  d y = u b with x = v y.
    let c = s.u.mul_vec(b);
    let n = a.cols();
    let mut y = vec![0i64; n];
    let diag = a.rows().min(n);
    for i in 0..diag {
        let d = s.d.get(i, i);
        if d == 0 {
            if c[i] != 0 {
                return None;
            }
        } else {
            if c[i] % d != 0 {
                return None;
            }
            y[i] = c[i] / d;
        }
    }
    if c.iter().skip(diag).any(|&ci| ci != 0) {
        return None;
    }
    Some(s.v.mul_vec(&y))
}

/// Whether `a · x = b` has an integer solution.
///
/// # Errors
///
/// Returns [`Overflow`] if a coefficient leaves `i64` during unit-pivot
/// elimination or `i128` in the residual block.
///
/// # Panics
///
/// Panics if `b.len() != a.rows()`.
///
/// # Examples
///
/// ```
/// use chromata_algebra::{feasible, SparseMatrix};
///
/// // Columns (2, 0) and (1, 1): the lattice of vectors with even sum.
/// let mut a = SparseMatrix::new(2);
/// a.push_column([(0, 2)]);
/// a.push_column([(0, 1), (1, 1)]);
/// assert_eq!(feasible(&a, &[3, 1]), Ok(true));
/// assert_eq!(feasible(&a, &[3, 0]), Ok(false));
/// ```
pub fn feasible(a: &SparseMatrix, b: &[i64]) -> Result<bool, Overflow> {
    assert_eq!(b.len(), a.rows(), "right-hand side length mismatch");
    let mut sys = UnitElimination::new(a, b);
    while let Some((r, c, p)) = sys.best_unit_pivot() {
        sys.pivot(r, c, p)?;
    }
    sys.residual_feasible()
}

/// Sparse row-major working copy of `[A | b]` for unit-pivot elimination.
///
/// Eliminating on a ±1 entry `(r, c)` clears column `c` from every other
/// row with integer row operations; row `r` then fixes `x_c` for any
/// choice of the other unknowns, so row `r` and column `c` drop out.
/// Dropped rows are left empty with a zero right-hand side.
struct UnitElimination {
    /// Row entries `(column, value)`, by increasing column, non-zero.
    rows: Vec<Vec<(usize, i64)>>,
    rhs: Vec<i64>,
    /// Number of rows holding an entry in each column.
    col_len: Vec<usize>,
}

impl UnitElimination {
    fn new(a: &SparseMatrix, b: &[i64]) -> Self {
        let mut rows = vec![Vec::new(); a.rows()];
        for (c, col) in a.columns().enumerate() {
            for &(r, v) in col {
                rows[r].push((c, v));
            }
        }
        UnitElimination {
            rows,
            rhs: b.to_vec(),
            col_len: a.columns().map(<[_]>::len).collect(),
        }
    }

    /// The ±1 entry `(row, column, value)` with the least Markowitz cost
    /// `(row nnz − 1)·(column nnz − 1)`, first in row-major order among
    /// ties.
    fn best_unit_pivot(&self) -> Option<(usize, usize, i64)> {
        let mut best: Option<(usize, (usize, usize, i64))> = None;
        for (r, row) in self.rows.iter().enumerate() {
            let row_fill = row.len().saturating_sub(1);
            for &(c, v) in row {
                if v.unsigned_abs() != 1 {
                    continue;
                }
                let cost = row_fill.saturating_mul(self.col_len[c].saturating_sub(1));
                if best.is_none_or(|(b, _)| cost < b) {
                    if cost == 0 {
                        return Some((r, c, v));
                    }
                    best = Some((cost, (r, c, v)));
                }
            }
        }
        best.map(|(_, pivot)| pivot)
    }

    /// Eliminates column `c` with the unit entry `p` of row `r`, then
    /// drops row `r`.
    fn pivot(&mut self, r: usize, c: usize, p: i64) -> Result<(), Overflow> {
        let prow = std::mem::take(&mut self.rows[r]);
        let pb = std::mem::replace(&mut self.rhs[r], 0);
        for &(pc, _) in &prow {
            self.col_len[pc] -= 1;
        }
        for r2 in 0..self.rows.len() {
            let Ok(k2) = self.rows[r2].binary_search_by_key(&c, |e| e.0) else {
                continue;
            };
            // p = ±1, so p⁻¹ = p and f·p cancels the entry exactly.
            let f = self.rows[r2][k2].1.checked_mul(p).ok_or(Overflow)?;
            let merged = self.sub_scaled(r2, f, &prow)?;
            self.rows[r2] = merged;
            let fb = f.checked_mul(pb).ok_or(Overflow)?;
            self.rhs[r2] = self.rhs[r2].checked_sub(fb).ok_or(Overflow)?;
        }
        Ok(())
    }

    /// `rows[r] − f · prow`, keeping the column counts in step with the
    /// entries that appear or cancel.
    fn sub_scaled(
        &mut self,
        r: usize,
        f: i64,
        prow: &[(usize, i64)],
    ) -> Result<Vec<(usize, i64)>, Overflow> {
        let row = &self.rows[r];
        let mut out = Vec::with_capacity(row.len() + prow.len());
        let (mut i, mut j) = (0, 0);
        while i < row.len() || j < prow.len() {
            let take_row = j == prow.len() || (i < row.len() && row[i].0 < prow[j].0);
            if take_row {
                out.push(row[i]);
                i += 1;
                continue;
            }
            let (c, pv) = prow[j];
            let delta = f.checked_mul(pv).ok_or(Overflow)?;
            if i < row.len() && row[i].0 == c {
                let v = row[i].1.checked_sub(delta).ok_or(Overflow)?;
                if v == 0 {
                    self.col_len[c] -= 1;
                } else {
                    out.push((c, v));
                }
                i += 1;
            } else {
                let v = delta.checked_neg().ok_or(Overflow)?;
                self.col_len[c] += 1;
                out.push((c, v));
            }
            j += 1;
        }
        Ok(out)
    }

    /// Feasibility of what the unit pivots left: empty rows need a zero
    /// right-hand side, and the block with no unit entry is diagonalized.
    fn residual_feasible(self) -> Result<bool, Overflow> {
        let mut col_of: Vec<Option<usize>> = vec![None; self.col_len.len()];
        let mut ncols = 0usize;
        let mut block = Vec::new();
        for (row, &b) in self.rows.iter().zip(&self.rhs) {
            if row.is_empty() {
                if b != 0 {
                    return Ok(false);
                }
                continue;
            }
            for &(c, _) in row {
                if col_of[c].is_none() {
                    col_of[c] = Some(ncols);
                    ncols += 1;
                }
            }
            block.push((row, b));
        }
        let mut d = Vec::with_capacity(block.len());
        let mut rhs = Vec::with_capacity(block.len());
        for (row, b) in block {
            let mut dense = vec![0i128; ncols];
            for &(c, v) in row {
                if let Some(k) = col_of[c] {
                    dense[k] = i128::from(v);
                }
            }
            d.push(dense);
            rhs.push(i128::from(b));
        }
        diagonal_feasible(d, rhs, ncols)
    }
}

/// Feasibility of the dense system `d · x = rhs` (`ncols` unknowns) by
/// diagonalizing `d` with row and column operations in checked `i128`.
/// Row operations are applied to `rhs` as well; column operations only
/// re-parametrize `x`, so they touch `d` alone.
fn diagonal_feasible(
    mut d: Vec<Vec<i128>>,
    mut rhs: Vec<i128>,
    ncols: usize,
) -> Result<bool, Overflow> {
    let nrows = d.len();
    let mut rank = 0;
    while rank < nrows.min(ncols) {
        // Pivot: an entry of least non-zero absolute value.
        let mut best: Option<(u128, usize, usize)> = None;
        for (r, row) in d.iter().enumerate().skip(rank) {
            for (c, &x) in row.iter().enumerate().skip(rank) {
                if x != 0 && best.is_none_or(|(b, _, _)| x.unsigned_abs() < b) {
                    best = Some((x.unsigned_abs(), r, c));
                }
            }
        }
        let Some((_, pr, pc)) = best else {
            break;
        };
        d.swap(rank, pr);
        rhs.swap(rank, pr);
        for row in &mut d {
            row.swap(rank, pc);
        }
        // Clear the pivot column and row; a non-zero remainder is smaller
        // than the pivot, so it becomes the new pivot and the pass repeats.
        loop {
            let mut clean = true;
            for r in rank + 1..nrows {
                let (above, below) = d.split_at_mut(r);
                let (prow, row) = (&above[rank], &mut below[0]);
                let q = row[rank].checked_div(prow[rank]).ok_or(Overflow)?;
                if q != 0 {
                    for (x, &p) in row.iter_mut().zip(prow).skip(rank) {
                        *x = x
                            .checked_sub(q.checked_mul(p).ok_or(Overflow)?)
                            .ok_or(Overflow)?;
                    }
                    let delta = q.checked_mul(rhs[rank]).ok_or(Overflow)?;
                    rhs[r] = rhs[r].checked_sub(delta).ok_or(Overflow)?;
                }
                if row[rank] != 0 {
                    d.swap(rank, r);
                    rhs.swap(rank, r);
                    clean = false;
                }
            }
            for c in rank + 1..ncols {
                let q = d[rank][c].checked_div(d[rank][rank]).ok_or(Overflow)?;
                if q != 0 {
                    for row in &mut d[rank..] {
                        let delta = q.checked_mul(row[rank]).ok_or(Overflow)?;
                        row[c] = row[c].checked_sub(delta).ok_or(Overflow)?;
                    }
                }
                if d[rank][c] != 0 {
                    for row in &mut d[rank..] {
                        row.swap(rank, c);
                    }
                    clean = false;
                }
            }
            if clean {
                break;
            }
        }
        rank += 1;
    }
    for (i, &c) in rhs.iter().enumerate() {
        let solvable = if i < rank {
            c.checked_rem(d[i][i]).ok_or(Overflow)? == 0
        } else {
            c == 0
        };
        if !solvable {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse(a: &IntMatrix) -> SparseMatrix {
        let mut s = SparseMatrix::new(a.rows());
        for c in 0..a.cols() {
            s.push_column((0..a.rows()).map(|r| (r, a.get(r, c))));
        }
        s
    }

    #[test]
    fn exact_solution_verified() {
        let a = IntMatrix::from_rows(3, 2, vec![1, 2, 3, 4, 5, 6]);
        let b = vec![5, 11, 17];
        let x = solve_integer(&a, &b).expect("feasible");
        assert_eq!(a.mul_vec(&x), b);
    }

    #[test]
    fn infeasible_parity() {
        // x + y even can't hit odd targets with the doubled matrix.
        let a = IntMatrix::from_rows(1, 2, vec![2, 2]);
        assert_eq!(feasible(&sparse(&a), &[3]), Ok(false));
        assert_eq!(feasible(&sparse(&a), &[4]), Ok(true));
    }

    #[test]
    fn underdetermined_system() {
        let a = IntMatrix::from_rows(1, 3, vec![3, 5, 7]);
        let x = solve_integer(&a, &[1]).expect("gcd(3,5,7)=1 so all targets reachable");
        assert_eq!(a.mul_vec(&x), vec![1]);
    }

    #[test]
    fn overdetermined_inconsistent() {
        let a = IntMatrix::from_rows(2, 1, vec![1, 1]);
        assert_eq!(feasible(&sparse(&a), &[1, 2]), Ok(false));
        assert_eq!(feasible(&sparse(&a), &[2, 2]), Ok(true));
    }

    #[test]
    fn zero_matrix_cases() {
        let a = IntMatrix::zeros(2, 2);
        assert_eq!(solve_integer(&a, &[0, 0]), Some(vec![0, 0]));
        assert_eq!(feasible(&sparse(&a), &[0, 1]), Ok(false));
    }

    #[test]
    fn unit_pivots_leave_only_the_torsion_block() {
        // x0 = b0, x1 − x0 = b1, 2·x1 = b2: the ±1 entries eliminate and
        // the residual [2] decides parity.
        let mut a = SparseMatrix::new(3);
        a.push_column([(0, 1), (1, -1)]);
        a.push_column([(1, 1), (2, 2)]);
        assert_eq!(feasible(&a, &[1, 0, 2]), Ok(true));
        assert_eq!(feasible(&a, &[1, 0, 1]), Ok(false));
        // A zero row with a non-zero target is infeasible outright.
        assert_eq!(feasible(&SparseMatrix::new(1), &[3]), Ok(false));
        assert_eq!(feasible(&SparseMatrix::new(1), &[0]), Ok(true));
    }

    #[test]
    fn overflow_is_returned_not_raised() {
        let m = i64::MAX;
        // Unit pivots: eliminating x0 from x0 + M·x1 = 0, M·x0 + x1 = 1
        // needs 1 − M² in i64.
        let mut a = SparseMatrix::new(2);
        a.push_column([(0, 1), (1, m)]);
        a.push_column([(0, m), (1, 1)]);
        assert_eq!(feasible(&a, &[0, 1]), Err(Overflow));
        // Residual block (no unit entry): 2x = M, Mx = M, Mx = M. The
        // first reduction leaves a right-hand side near 2¹²⁵, and the
        // next multiplies it by M, past i128.
        let mut a = SparseMatrix::new(3);
        a.push_column([(0, 2), (1, m), (2, m)]);
        assert_eq!(feasible(&a, &[m, m, m]), Err(Overflow));
    }

    #[test]
    fn lattice_membership() {
        // Columns (2,0) and (0,2) span the even lattice.
        let a = IntMatrix::from_rows(2, 2, vec![2, 0, 0, 2]);
        assert_eq!(feasible(&sparse(&a), &[4, -6]), Ok(true));
        assert_eq!(feasible(&sparse(&a), &[1, 0]), Ok(false));
    }
}
