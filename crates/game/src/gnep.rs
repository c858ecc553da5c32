//! Generalized Nash equilibrium problems with jointly convex shared
//! constraints.
//!
//! In the standalone-mode miner subgame (paper Problem 1c), every miner's
//! feasible set depends on the others through the shared capacity constraint
//! `Σᵢ eᵢ ≤ E_max` — a *jointly convex* GNEP. Such games generally have a
//! continuum of equilibria; the distinguished **variational equilibrium**
//! (equal shadow price on the shared constraint across players) is the
//! solution of the VI posed on the shared feasible set with the game's
//! pseudo-gradient, and is what the paper's Algorithm 2 computes. This
//! module builds that VI and solves it with the extragradient method.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use mbm_numerics::projection::ConvexSet;
use mbm_numerics::vi::{extragradient_in, natural_residual_in, ViParams, ViRun, ViWorkspace};

use crate::error::GameError;
use crate::game::Game;
use crate::profile::Profile;

/// Cartesian product of per-player convex sets, presented as one set over
/// the stacked profile space.
pub struct ProductSet {
    sets: Vec<Box<dyn ConvexSet + Send + Sync>>,
    offsets: Vec<usize>,
    total_dim: usize,
}

impl ProductSet {
    /// Builds the product of the given per-player sets.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidGame`] if `sets` is empty.
    pub fn new(sets: Vec<Box<dyn ConvexSet + Send + Sync>>) -> Result<Self, GameError> {
        if sets.is_empty() {
            return Err(GameError::invalid("ProductSet: need at least one factor"));
        }
        let mut offsets = Vec::with_capacity(sets.len() + 1);
        let mut total_dim = 0;
        offsets.push(0);
        for s in &sets {
            total_dim += s.dim();
            offsets.push(total_dim);
        }
        Ok(ProductSet { sets, offsets, total_dim })
    }
}

impl ConvexSet for ProductSet {
    fn dim(&self) -> usize {
        self.total_dim
    }

    fn project(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.dim(), "ProductSet::project: dimension mismatch");
        for (i, s) in self.sets.iter().enumerate() {
            s.project(&mut x[self.offsets[i]..self.offsets[i + 1]]);
        }
    }

    fn contains(&self, x: &[f64], tol: f64) -> bool {
        x.len() == self.dim()
            && self
                .sets
                .iter()
                .enumerate()
                .all(|(i, s)| s.contains(&x[self.offsets[i]..self.offsets[i + 1]], tol))
    }
}

/// Intersection of two convex sets over the same space, with projection via
/// Dykstra's algorithm. Used to intersect the product of individual budget
/// sets with the shared capacity half-space.
pub struct IntersectionSet<A: ConvexSet, B: ConvexSet> {
    a: A,
    b: B,
    tol: f64,
    max_iter: usize,
}

impl<A: ConvexSet, B: ConvexSet> IntersectionSet<A, B> {
    /// Builds the intersection `a ∩ b`.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidGame`] on dimension mismatch.
    pub fn new(a: A, b: B) -> Result<Self, GameError> {
        if a.dim() != b.dim() {
            return Err(GameError::invalid("IntersectionSet: dimension mismatch"));
        }
        Ok(IntersectionSet { a, b, tol: 1e-12, max_iter: 10_000 })
    }
}

impl<A: ConvexSet, B: ConvexSet> ConvexSet for IntersectionSet<A, B> {
    fn dim(&self) -> usize {
        self.a.dim()
    }

    fn project(&self, x: &mut [f64]) {
        // Dykstra converges for any pair of closed convex sets with
        // non-empty intersection; if the iteration cap is hit we fall back
        // to the last (feasible up to tolerance) iterate produced by
        // alternating projections, and count that in
        // `numerics.dykstra.fallback`.
        if mbm_numerics::projection::dykstra(&self.a, &self.b, x, self.tol, self.max_iter).is_err()
        {
            mbm_obs::global().incr("numerics.dykstra.fallback");
            for _ in 0..64 {
                self.a.project(x);
                self.b.project(x);
                if self.a.contains(x, 1e-9) && self.b.contains(x, 1e-9) {
                    break;
                }
            }
        }
    }

    fn contains(&self, x: &[f64], tol: f64) -> bool {
        self.a.contains(x, tol) && self.b.contains(x, tol)
    }
}

/// Outcome of a variational-equilibrium computation.
#[derive(Debug, Clone, PartialEq)]
pub struct GnepOutcome {
    /// The variational equilibrium profile.
    pub profile: Profile,
    /// Natural residual of the underlying VI (certificate; ~0 at solutions).
    pub residual: f64,
    /// Extragradient iterations used.
    pub iterations: usize,
}

/// Reusable scratch buffers for [`variational_equilibrium_in`] and
/// [`gnep_residual_in`]: the extragradient workspace plus a profile used to
/// evaluate the pseudo-gradient at arbitrary stacked vectors.
#[derive(Debug, Default, Clone)]
pub struct GnepWorkspace {
    vi: ViWorkspace,
    work: Option<Profile>,
}

impl GnepWorkspace {
    /// An empty workspace (buffers grow on first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The equilibrium stacked vector left behind by a successful
    /// [`variational_equilibrium_in`] run.
    #[must_use]
    pub fn solution(&self) -> &[f64] {
        &self.vi.x
    }

    /// Heap bytes currently reserved by the scratch buffers (capacity, not
    /// length) — the bench harness asserts this stops growing after warmup.
    #[must_use]
    pub fn footprint(&self) -> usize {
        self.vi.footprint() + self.work.as_ref().map_or(0, Profile::heap_bytes)
    }
}

fn negated_pseudo_gradient<'a, G: Game>(
    game: &'a G,
    work: &'a mut Profile,
) -> impl FnMut(&[f64], &mut [f64]) + 'a {
    move |x: &[f64], out: &mut [f64]| {
        work.copy_from(x);
        game.pseudo_gradient(work, out);
        for v in out.iter_mut() {
            *v = -*v;
        }
    }
}

/// Computes the variational equilibrium of the jointly convex GNEP formed by
/// `game`'s utilities over the shared feasible set `shared` (a convex set in
/// the stacked profile space).
///
/// The VI operator is the negated pseudo-gradient `F(x) = (−∇ᵢUᵢ(x))ᵢ`,
/// assembled from [`Game::pseudo_gradient`].
///
/// # Errors
///
/// * [`GameError::InvalidGame`] on shape mismatch.
/// * [`GameError::Numerics`] if the extragradient solver fails.
pub fn variational_equilibrium<G: Game, S: ConvexSet>(
    game: &G,
    shared: &S,
    init: &Profile,
    params: &ViParams,
) -> Result<GnepOutcome, GameError> {
    let mut ws = GnepWorkspace::new();
    let run = variational_equilibrium_in(game, shared, init, params, &mut ws)?;
    let mut profile = init.clone();
    profile.copy_from(ws.solution());
    Ok(GnepOutcome { profile, residual: run.residual, iterations: run.iterations })
}

/// [`variational_equilibrium`] over caller-owned scratch buffers: the
/// equilibrium stacked vector stays in `ws` (read it via
/// [`GnepWorkspace::solution`]) and a warmed-up workspace performs no heap
/// allocation.
///
/// # Errors
///
/// Same contract as [`variational_equilibrium`].
pub fn variational_equilibrium_in<G: Game, S: ConvexSet>(
    game: &G,
    shared: &S,
    init: &Profile,
    params: &ViParams,
    ws: &mut GnepWorkspace,
) -> Result<ViRun, GameError> {
    let total: usize = (0..game.num_players()).map(|i| game.dim(i)).sum();
    if shared.dim() != total || init.total_dim() != total {
        return Err(GameError::invalid("variational_equilibrium: dimension mismatch"));
    }
    match &mut ws.work {
        Some(p) => p.clone_from(init),
        None => ws.work = Some(init.clone()),
    }
    let GnepWorkspace { vi, work } = ws;
    let work = work.as_mut().expect("GnepWorkspace: work profile just synced");
    let operator = negated_pseudo_gradient(game, work);
    Ok(extragradient_in(shared, operator, init.as_slice(), params, vi)?)
}

/// Natural-residual certificate for a candidate GNEP variational solution.
pub fn gnep_residual<G: Game, S: ConvexSet>(game: &G, shared: &S, profile: &Profile) -> f64 {
    gnep_residual_in(game, shared, profile, &mut GnepWorkspace::new())
}

/// [`gnep_residual`] over caller-owned scratch buffers.
pub fn gnep_residual_in<G: Game, S: ConvexSet>(
    game: &G,
    shared: &S,
    profile: &Profile,
    ws: &mut GnepWorkspace,
) -> f64 {
    match &mut ws.work {
        Some(p) => p.clone_from(profile),
        None => ws.work = Some(profile.clone()),
    }
    let GnepWorkspace { vi, work } = ws;
    let work = work.as_mut().expect("GnepWorkspace: work profile just synced");
    let operator = negated_pseudo_gradient(game, work);
    natural_residual_in(shared, operator, profile.as_slice(), vi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::ClosureGame;
    use mbm_numerics::projection::{BoxSet, Halfspace};

    type SharedSet = IntersectionSet<ProductSet, Halfspace>;

    /// Two players, player i maximizes −(xᵢ − tᵢ)², shared x₁ + x₂ ≤ 1,
    /// xᵢ ≥ 0.
    fn shared_quadratic_game(
        t: [f64; 2],
    ) -> (ClosureGame<impl Fn(usize, &Profile) -> f64>, SharedSet) {
        let boxes = vec![BoxSet::nonnegative(1), BoxSet::nonnegative(1)];
        let game = ClosureGame::new(boxes, move |i, p: &Profile| {
            let x = p.block(i)[0];
            -(x - t[i]) * (x - t[i])
        })
        .unwrap();
        let product = ProductSet::new(vec![
            Box::new(BoxSet::nonnegative(1)),
            Box::new(BoxSet::nonnegative(1)),
        ])
        .unwrap();
        let hs = Halfspace::new(vec![1.0, 1.0], 1.0).unwrap();
        let shared = IntersectionSet::new(product, hs).unwrap();
        (game, shared)
    }

    #[test]
    fn symmetric_variational_equilibrium() {
        let (game, shared) = shared_quadratic_game([1.0, 1.0]);
        let init = Profile::uniform(&[1, 1], 0.0).unwrap();
        let out = variational_equilibrium(&game, &shared, &init, &ViParams::default()).unwrap();
        // Equal multiplier => symmetric split (0.5, 0.5).
        assert!((out.profile.block(0)[0] - 0.5).abs() < 1e-5, "{:?}", out.profile);
        assert!((out.profile.block(1)[0] - 0.5).abs() < 1e-5, "{:?}", out.profile);
        assert!(gnep_residual(&game, &shared, &out.profile) < 1e-4);
    }

    #[test]
    fn asymmetric_variational_equilibrium_with_corner() {
        // Targets (2, 0.1): KKT with equal multiplier gives x = (1, 0).
        let (game, shared) = shared_quadratic_game([2.0, 0.1]);
        let init = Profile::uniform(&[1, 1], 0.3).unwrap();
        let out = variational_equilibrium(&game, &shared, &init, &ViParams::default()).unwrap();
        assert!((out.profile.block(0)[0] - 1.0).abs() < 1e-4, "{:?}", out.profile);
        assert!(out.profile.block(1)[0].abs() < 1e-4, "{:?}", out.profile);
    }

    #[test]
    fn inactive_shared_constraint_reduces_to_nep() {
        // Targets (0.2, 0.3): unconstrained optimum already satisfies the
        // shared constraint, so the VE is just the per-player optimum.
        let (game, shared) = shared_quadratic_game([0.2, 0.3]);
        let init = Profile::uniform(&[1, 1], 0.0).unwrap();
        let out = variational_equilibrium(&game, &shared, &init, &ViParams::default()).unwrap();
        assert!((out.profile.block(0)[0] - 0.2).abs() < 1e-5);
        assert!((out.profile.block(1)[0] - 0.3).abs() < 1e-5);
    }

    #[test]
    fn product_set_projects_blockwise() {
        let p = ProductSet::new(vec![
            Box::new(BoxSet::new(vec![0.0], vec![1.0]).unwrap()),
            Box::new(BoxSet::new(vec![-1.0], vec![0.0]).unwrap()),
        ])
        .unwrap();
        let mut x = vec![2.0, 2.0];
        p.project(&mut x);
        assert_eq!(x, vec![1.0, 0.0]);
        assert!(p.contains(&x, 1e-12));
        assert_eq!(p.dim(), 2);
    }

    #[test]
    fn product_set_rejects_empty() {
        assert!(ProductSet::new(vec![]).is_err());
    }

    #[test]
    fn intersection_rejects_dimension_mismatch() {
        let a = BoxSet::nonnegative(2);
        let b = Halfspace::new(vec![1.0], 1.0).unwrap();
        assert!(IntersectionSet::new(a, b).is_err());
    }

    #[test]
    fn dykstra_fallback_is_counted() {
        let product = ProductSet::new(vec![Box::new(BoxSet::nonnegative(2))]).unwrap();
        let hs = Halfspace::new(vec![1.0, 1.0], 1.0).unwrap();
        let capped = IntersectionSet { max_iter: 1, ..IntersectionSet::new(product, hs).unwrap() };
        let rec = mbm_obs::global();
        let fallbacks = || rec.snapshot().counters.get("numerics.dykstra.fallback").copied();
        rec.set_enabled(true);
        let before = fallbacks().unwrap_or(0);
        let mut x = vec![2.0, -1.0];
        capped.project(&mut x);
        let after = fallbacks().unwrap_or(0);
        rec.set_enabled(false);
        assert_eq!(after, before + 1, "one capped projection, one fallback");
        assert!(capped.contains(&x, 1e-9), "fallback still lands in the set: {x:?}");
    }

    #[test]
    fn dimension_mismatch_in_ve_is_rejected() {
        let (game, _) = shared_quadratic_game([1.0, 1.0]);
        let wrong = Halfspace::new(vec![1.0, 1.0, 1.0], 1.0).unwrap();
        let init = Profile::uniform(&[1, 1], 0.0).unwrap();
        assert!(variational_equilibrium(&game, &wrong, &init, &ViParams::default()).is_err());
    }
}
