//! Euclidean projections onto the convex sets appearing in the mining game.
//!
//! Every constrained solver in the workspace (projected gradient,
//! extragradient VI, GNEP best responses) needs a projection oracle. The sets
//! that actually arise are:
//!
//! * axis-aligned boxes (price intervals, capped requests) — [`BoxSet`];
//! * budget sets `{x ≥ 0, p·x ≤ B}` (a miner's affordable requests) —
//!   [`BudgetSet`];
//! * half-spaces `{a·x ≤ b}` (the shared edge-capacity constraint
//!   `Σ eᵢ ≤ E_max`) — [`Halfspace`];
//! * intersections of the above — [`dykstra`].

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::cell::Cell;

use serde::{Deserialize, Serialize};

use crate::error::NumericsError;

/// A closed convex set with a Euclidean projection oracle.
///
/// Implementors must guarantee that [`ConvexSet::project`] maps any finite
/// point to the nearest point of the set and is the identity on the set
/// itself (both properties are exercised by this crate's property tests).
pub trait ConvexSet {
    /// Dimension of the ambient space.
    fn dim(&self) -> usize;

    /// Projects `x` onto the set in place.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `x.len() != self.dim()`.
    fn project(&self, x: &mut [f64]);

    /// Whether `x` lies in the set, up to the constraint tolerance `tol`.
    fn contains(&self, x: &[f64], tol: f64) -> bool;
}

/// Axis-aligned box `{ lo ≤ x ≤ hi }` (componentwise).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoxSet {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl BoxSet {
    /// Creates a box from per-coordinate bounds.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidInput`] if the vectors' lengths differ,
    /// any bound is NaN, or some `lo[i] > hi[i]`. Infinite bounds are allowed
    /// (half-open boxes).
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Result<Self, NumericsError> {
        if lo.len() != hi.len() {
            return Err(NumericsError::invalid("BoxSet: bound length mismatch"));
        }
        for (i, (&l, &h)) in lo.iter().zip(&hi).enumerate() {
            if l.is_nan() || h.is_nan() {
                return Err(NumericsError::invalid(format!("BoxSet: NaN bound at index {i}")));
            }
            if l > h {
                return Err(NumericsError::invalid(format!(
                    "BoxSet: lo[{i}] = {l} exceeds hi[{i}] = {h}"
                )));
            }
        }
        Ok(BoxSet { lo, hi })
    }

    /// The non-negative orthant in `n` dimensions.
    #[must_use]
    pub fn nonnegative(n: usize) -> Self {
        BoxSet { lo: vec![0.0; n], hi: vec![f64::INFINITY; n] }
    }

    /// Lower bounds.
    #[must_use]
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper bounds.
    #[must_use]
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }
}

impl ConvexSet for BoxSet {
    fn dim(&self) -> usize {
        self.lo.len()
    }

    fn project(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.dim(), "BoxSet::project: dimension mismatch");
        for ((xi, &l), &h) in x.iter_mut().zip(&self.lo).zip(&self.hi) {
            *xi = xi.clamp(l, h);
        }
    }

    fn contains(&self, x: &[f64], tol: f64) -> bool {
        x.len() == self.dim()
            && x.iter()
                .zip(&self.lo)
                .zip(&self.hi)
                .all(|((&xi, &l), &h)| xi >= l - tol && xi <= h + tol)
    }
}

/// Budget set `{ x ≥ 0, p · x ≤ B }` with strictly positive prices `p`.
///
/// This is exactly constraint (1b) of the paper: a miner can afford any
/// non-negative request whose cost does not exceed its budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BudgetSet {
    prices: Vec<f64>,
    budget: f64,
}

impl BudgetSet {
    /// Creates a budget set.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidInput`] if any price is not strictly
    /// positive and finite, or the budget is negative or non-finite.
    pub fn new(prices: Vec<f64>, budget: f64) -> Result<Self, NumericsError> {
        if prices.is_empty() {
            return Err(NumericsError::invalid("BudgetSet: need at least one price"));
        }
        for (i, &p) in prices.iter().enumerate() {
            if !(p.is_finite() && p > 0.0) {
                return Err(NumericsError::invalid(format!(
                    "BudgetSet: price[{i}] = {p} must be finite and > 0"
                )));
            }
        }
        if !(budget.is_finite() && budget >= 0.0) {
            return Err(NumericsError::invalid(format!(
                "BudgetSet: budget = {budget} must be finite and >= 0"
            )));
        }
        Ok(BudgetSet { prices, budget })
    }

    /// Unit prices.
    #[must_use]
    pub fn prices(&self) -> &[f64] {
        &self.prices
    }

    /// Budget cap.
    #[must_use]
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// Cost `p · x` of a request vector.
    #[must_use]
    pub fn cost(&self, x: &[f64]) -> f64 {
        crate::dot(&self.prices, x)
    }
}

impl ConvexSet for BudgetSet {
    fn dim(&self) -> usize {
        self.prices.len()
    }

    /// Exact projection via the breakpoint method.
    ///
    /// Negative coordinates are clipped to zero first. If the clipped point
    /// is affordable that is the projection, and nothing else runs. Only
    /// otherwise does the breakpoint search run: it solves
    /// `Σᵢ pᵢ · max(0, xᵢ − μ pᵢ) = B` for the multiplier `μ ≥ 0`, a
    /// piecewise-linear decreasing equation, by walking the breakpoints
    /// `xᵢ / pᵢ` in ascending order. The walk uses no heap buffer.
    fn project(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.dim(), "BudgetSet::project: dimension mismatch");
        for xi in x.iter_mut() {
            if *xi < 0.0 {
                *xi = 0.0;
            }
        }
        if self.cost(x) <= self.budget {
            return;
        }
        // cost(mu) = sum_i p_i * max(0, x_i - mu p_i): piecewise linear,
        // decreasing. Walk segments until it crosses the budget.
        let mut mu = 0.0;
        let mut cost = self.cost(x);
        let mut slope: f64 =
            x.iter().zip(&self.prices).filter(|(&xi, _)| xi > 0.0).map(|(_, &pi)| pi * pi).sum();
        let mut next = next_breakpoint(x, &self.prices, f64::NEG_INFINITY, 0);
        while let Some((bp, seen)) = next {
            let reach = cost - slope * (bp - mu);
            if reach <= self.budget {
                break;
            }
            // Coordinate(s) with this breakpoint drop out of the active set.
            let dropped: f64 = x
                .iter()
                .zip(&self.prices)
                .filter(|(&xi, &pi)| {
                    xi > 0.0 && (xi / pi - bp).abs() <= f64::EPSILON * bp.abs().max(1.0)
                })
                .map(|(_, &pi)| pi * pi)
                .sum();
            cost = reach;
            mu = bp;
            slope -= dropped;
            if slope <= 0.0 {
                break;
            }
            next = next_breakpoint(x, &self.prices, bp, seen);
        }
        if slope > 0.0 {
            mu += (cost - self.budget) / slope;
        }
        for (xi, &pi) in x.iter_mut().zip(&self.prices) {
            *xi = (*xi - mu * pi).max(0.0);
        }
    }

    fn contains(&self, x: &[f64], tol: f64) -> bool {
        x.len() == self.dim()
            && x.iter().all(|&xi| xi >= -tol)
            && self.cost(x) <= self.budget + tol * (1.0 + self.budget.abs())
    }
}

/// The breakpoint that follows `last` in the ascending sequence of the
/// breakpoints `xᵢ / pᵢ` of the positive coordinates, repeats included: the
/// sequence sorting them into a list would give, found by a linear scan
/// instead. `last` is the breakpoint visited last (`-∞` before the first)
/// and `seen` how many times its value has been visited; the result
/// carries the same pair for the next call.
fn next_breakpoint(x: &[f64], prices: &[f64], last: f64, seen: usize) -> Option<(f64, usize)> {
    let mut repeats = 0;
    let mut above: Option<f64> = None;
    for (&xi, &pi) in x.iter().zip(prices).filter(|(&xi, _)| xi > 0.0) {
        let bp = xi / pi;
        if bp == last {
            repeats += 1;
        } else if bp > last && above.is_none_or(|m| bp < m) {
            above = Some(bp);
        }
    }
    if repeats > seen {
        Some((last, seen + 1))
    } else {
        above.map(|bp| (bp, 1))
    }
}

/// Half-space `{ a · x ≤ b }`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Halfspace {
    normal: Vec<f64>,
    offset: f64,
    norm_sq: f64,
}

impl Halfspace {
    /// Creates the half-space `a · x ≤ b`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidInput`] if `a` is the zero vector or
    /// contains non-finite entries, or `b` is non-finite.
    pub fn new(normal: Vec<f64>, offset: f64) -> Result<Self, NumericsError> {
        if normal.iter().any(|v| !v.is_finite()) || !offset.is_finite() {
            return Err(NumericsError::invalid("Halfspace: non-finite coefficient"));
        }
        let norm_sq = crate::dot(&normal, &normal);
        if norm_sq == 0.0 {
            return Err(NumericsError::invalid("Halfspace: zero normal vector"));
        }
        Ok(Halfspace { normal, offset, norm_sq })
    }

    /// Normal vector `a`.
    #[must_use]
    pub fn normal(&self) -> &[f64] {
        &self.normal
    }

    /// Offset `b`.
    #[must_use]
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Signed violation `a · x − b` (positive outside the set).
    #[must_use]
    pub fn violation(&self, x: &[f64]) -> f64 {
        crate::dot(&self.normal, x) - self.offset
    }
}

impl ConvexSet for Halfspace {
    fn dim(&self) -> usize {
        self.normal.len()
    }

    fn project(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.dim(), "Halfspace::project: dimension mismatch");
        let v = self.violation(x);
        if v > 0.0 {
            let scale = v / self.norm_sq;
            for (xi, &ai) in x.iter_mut().zip(&self.normal) {
                *xi -= scale * ai;
            }
        }
    }

    fn contains(&self, x: &[f64], tol: f64) -> bool {
        x.len() == self.dim() && self.violation(x) <= tol * (1.0 + self.offset.abs())
    }
}

thread_local! {
    /// Scratch of [`dykstra`]: the increments `p` and `q`, the previous
    /// iterate and the two projected points, `5n` values in one buffer. A
    /// call takes it and puts it back when done, so a projection that nests
    /// another `dykstra` call finds it empty and uses a buffer of its own.
    static DYKSTRA_SCRATCH: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

/// Projects onto the intersection of two convex sets by Dykstra's algorithm.
///
/// Unlike alternating projections, Dykstra's algorithm converges to the true
/// Euclidean projection onto the intersection, which is what KKT-based
/// equilibrium arguments require. Used for the standalone-mode feasible set
/// `{budget set} ∩ {Σ eᵢ ≤ E_max}`.
///
/// The working vectors live in a per-thread scratch buffer: once a thread
/// has projected a point of this dimension or a larger one, a call
/// allocates nothing.
///
/// # Errors
///
/// * [`NumericsError::InvalidInput`] if set dimensions disagree with `x`.
/// * [`NumericsError::DidNotConverge`] if the iterates do not stabilize
///   within `max_iter` sweeps (e.g. empty intersection); its residual is
///   the last sweep's largest coordinate change.
pub fn dykstra<A: ConvexSet, B: ConvexSet>(
    a: &A,
    b: &B,
    x: &mut [f64],
    tol: f64,
    max_iter: usize,
) -> Result<(), NumericsError> {
    if a.dim() != x.len() || b.dim() != x.len() {
        return Err(NumericsError::invalid("dykstra: dimension mismatch"));
    }
    let n = x.len();
    let mut scratch = DYKSTRA_SCRATCH.take();
    scratch.clear();
    scratch.resize(5 * n, 0.0);
    let (p, rest) = scratch.split_at_mut(n);
    let (q, rest) = rest.split_at_mut(n);
    let (prev, rest) = rest.split_at_mut(n);
    let (y, z) = rest.split_at_mut(n);
    prev.copy_from_slice(x);
    let mut step = 0.0;
    let mut converged = false;
    for _ in 0..max_iter {
        // y = P_A(x + p); p = x + p - y
        for i in 0..n {
            y[i] = x[i] + p[i];
        }
        a.project(y);
        for i in 0..n {
            p[i] = x[i] + p[i] - y[i];
        }
        // x = P_B(y + q); q = y + q - x
        for i in 0..n {
            z[i] = y[i] + q[i];
        }
        b.project(z);
        for i in 0..n {
            q[i] = y[i] + q[i] - z[i];
            x[i] = z[i];
        }
        step = crate::max_abs_diff(x, prev);
        if step < tol && a.contains(x, tol.sqrt()) && b.contains(x, tol.sqrt()) {
            converged = true;
            break;
        }
        prev.copy_from_slice(x);
    }
    DYKSTRA_SCRATCH.set(scratch);
    if converged {
        Ok(())
    } else {
        Err(NumericsError::DidNotConverge { iterations: max_iter, residual: step })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_vec_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn box_projection_clamps() {
        let set = BoxSet::new(vec![0.0, -1.0], vec![1.0, 1.0]).unwrap();
        let mut x = vec![2.0, -3.0];
        set.project(&mut x);
        assert_eq!(x, vec![1.0, -1.0]);
        assert!(set.contains(&x, 1e-12));
    }

    #[test]
    fn box_rejects_inverted_bounds() {
        assert!(BoxSet::new(vec![1.0], vec![0.0]).is_err());
        assert!(BoxSet::new(vec![f64::NAN], vec![0.0]).is_err());
        assert!(BoxSet::new(vec![0.0, 1.0], vec![1.0]).is_err());
    }

    #[test]
    fn nonnegative_orthant() {
        let set = BoxSet::nonnegative(3);
        let mut x = vec![-1.0, 0.5, 2.0];
        set.project(&mut x);
        assert_eq!(x, vec![0.0, 0.5, 2.0]);
    }

    #[test]
    fn budget_projection_identity_inside() {
        let set = BudgetSet::new(vec![2.0, 3.0], 12.0).unwrap();
        let mut x = vec![1.0, 2.0]; // cost 8 <= 12
        let orig = x.clone();
        set.project(&mut x);
        assert_vec_close(&x, &orig, 1e-14);
    }

    #[test]
    fn budget_projection_clips_negatives_only() {
        let set = BudgetSet::new(vec![1.0, 1.0], 10.0).unwrap();
        let mut x = vec![-5.0, 3.0];
        set.project(&mut x);
        assert_vec_close(&x, &[0.0, 3.0], 1e-14);
    }

    #[test]
    fn budget_projection_hits_budget_plane() {
        let set = BudgetSet::new(vec![1.0, 1.0], 2.0).unwrap();
        let mut x = vec![3.0, 3.0];
        set.project(&mut x);
        // Symmetric: projection is (1, 1).
        assert_vec_close(&x, &[1.0, 1.0], 1e-12);
        assert!((set.cost(&x) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn budget_projection_with_breakpoint_dropout() {
        // One coordinate hits zero before the plane is reached.
        let set = BudgetSet::new(vec![1.0, 1.0], 1.0).unwrap();
        let mut x = vec![0.1, 5.0];
        set.project(&mut x);
        assert!(x[0] >= 0.0 && x[1] >= 0.0);
        assert!((set.cost(&x) - 1.0).abs() < 1e-10, "cost {}", set.cost(&x));
        // With mu > 0.1, first coordinate is zero.
        assert!(x[0].abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn budget_projection_matches_kkt_for_asymmetric_prices() {
        let set = BudgetSet::new(vec![2.0, 1.0], 4.0).unwrap();
        let mut x = vec![3.0, 3.0]; // cost 9 > 4
        set.project(&mut x);
        // KKT: y = (3 - 2mu, 3 - mu), cost = 2(3-2mu) + (3-mu) = 9 - 5mu = 4
        // => mu = 1, y = (1, 2).
        assert_vec_close(&x, &[1.0, 2.0], 1e-10);
    }

    #[test]
    fn budget_zero_budget_projects_to_origin() {
        let set = BudgetSet::new(vec![1.0, 2.0], 0.0).unwrap();
        let mut x = vec![5.0, 7.0];
        set.project(&mut x);
        assert_vec_close(&x, &[0.0, 0.0], 1e-12);
    }

    #[test]
    fn budget_validation() {
        assert!(BudgetSet::new(vec![], 1.0).is_err());
        assert!(BudgetSet::new(vec![0.0], 1.0).is_err());
        assert!(BudgetSet::new(vec![-1.0], 1.0).is_err());
        assert!(BudgetSet::new(vec![1.0], -1.0).is_err());
        assert!(BudgetSet::new(vec![1.0], f64::NAN).is_err());
    }

    #[test]
    fn halfspace_projection() {
        let hs = Halfspace::new(vec![1.0, 1.0], 1.0).unwrap();
        let mut x = vec![1.0, 1.0];
        hs.project(&mut x);
        assert_vec_close(&x, &[0.5, 0.5], 1e-12);
        // Inside: untouched.
        let mut y = vec![0.2, 0.3];
        hs.project(&mut y);
        assert_vec_close(&y, &[0.2, 0.3], 1e-14);
    }

    #[test]
    fn halfspace_validation() {
        assert!(Halfspace::new(vec![0.0, 0.0], 1.0).is_err());
        assert!(Halfspace::new(vec![1.0, f64::NAN], 1.0).is_err());
        assert!(Halfspace::new(vec![1.0], f64::INFINITY).is_err());
    }

    #[test]
    fn dykstra_box_halfspace_intersection() {
        // Project (2, 2) onto {x >= 0} ∩ {x1 + x2 <= 1}: answer (0.5, 0.5).
        let orthant = BoxSet::nonnegative(2);
        let hs = Halfspace::new(vec![1.0, 1.0], 1.0).unwrap();
        let mut x = vec![2.0, 2.0];
        dykstra(&orthant, &hs, &mut x, 1e-12, 1000).unwrap();
        assert_vec_close(&x, &[0.5, 0.5], 1e-8);
    }

    #[test]
    fn dykstra_asymmetric_case() {
        // Project (2, -1) onto {x >= 0} ∩ {x1 + x2 <= 1}: answer (1, 0).
        let orthant = BoxSet::nonnegative(2);
        let hs = Halfspace::new(vec![1.0, 1.0], 1.0).unwrap();
        let mut x = vec![2.0, -1.0];
        dykstra(&orthant, &hs, &mut x, 1e-12, 2000).unwrap();
        assert_vec_close(&x, &[1.0, 0.0], 1e-7);
    }

    /// `{x ≥ 0, x₁ + x₂ ≤ 1}` projected by an inner `dykstra` call.
    struct Simplex;

    impl ConvexSet for Simplex {
        fn dim(&self) -> usize {
            2
        }

        fn project(&self, x: &mut [f64]) {
            let hs = Halfspace::new(vec![1.0, 1.0], 1.0).unwrap();
            dykstra(&BoxSet::nonnegative(2), &hs, x, 1e-14, 10_000).unwrap();
        }

        fn contains(&self, x: &[f64], tol: f64) -> bool {
            x.iter().all(|&v| v >= -tol) && x[0] + x[1] <= 1.0 + tol
        }
    }

    #[test]
    fn dykstra_nests_inside_a_projection() {
        // Project (2, 2) onto the simplex ∩ {x₁ ≤ 0.25}: answer (0.25, 0.75).
        let cap = Halfspace::new(vec![1.0, 0.0], 0.25).unwrap();
        let mut x = vec![2.0, 2.0];
        dykstra(&Simplex, &cap, &mut x, 1e-12, 10_000).unwrap();
        assert_vec_close(&x, &[0.25, 0.75], 1e-6);
    }

    #[test]
    fn dykstra_cap_reports_the_last_step() {
        let orthant = BoxSet::nonnegative(2);
        let hs = Halfspace::new(vec![1.0, 1.0], 1.0).unwrap();
        let mut x = vec![2.0, -1.0];
        match dykstra(&orthant, &hs, &mut x, 1e-12, 1) {
            Err(NumericsError::DidNotConverge { iterations: 1, residual }) => {
                // One sweep moves (2, -1) to (1.5, -0.5).
                assert_eq!(residual, 0.5);
            }
            other => panic!("expected the iteration cap, got {other:?}"),
        }
    }

    #[test]
    fn dykstra_dimension_mismatch() {
        let orthant = BoxSet::nonnegative(2);
        let hs = Halfspace::new(vec![1.0], 1.0).unwrap();
        let mut x = vec![1.0, 1.0];
        assert!(dykstra(&orthant, &hs, &mut x, 1e-10, 100).is_err());
    }
}
