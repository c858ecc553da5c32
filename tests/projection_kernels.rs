//! Gates on the projection kernels behind the standalone-mode GNEP solve
//! (paper Problem 1c): the miners' shared feasible set
//! `{budgets} ∩ {Σ eᵢ ≤ E_max}` is projected by Dykstra's algorithm over
//! per-miner `BudgetSet`s, millions of times per leader search.
//!
//! * **Bitwise golden.** The raw bits of heterogeneous standalone follower
//!   solves (aggregates, per-miner requests, iterations, residual and
//!   certificate) and of seeded raw `dykstra` / `BudgetSet::project` calls
//!   must match `tests/golden/projection_kernels.txt` exactly. A kernel
//!   rewrite may change how the arithmetic is scheduled in memory, never
//!   which floating-point operations run. `MBM_UPDATE_GOLDEN=1` rewrites
//!   the file from the current run (commit the diff deliberately).
//! * **Allocation gate.** A counting global allocator with a per-thread
//!   counter (parallel tests do not disturb each other) checks that a
//!   warmed solve allocates a bounded number of times independent of its
//!   extragradient iteration count, and that a warmed `dykstra` call does
//!   not allocate at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;
use std::path::PathBuf;

use mbm_core::params::{MarketParams, Prices};
use mbm_core::solver::{FollowerSolver, SolveWorkspace, Solved, TieredSolver};
use mbm_core::subgame::SubgameConfig;
use mbm_game::gnep::ProductSet;
use mbm_numerics::projection::{dykstra, BoxSet, BudgetSet, ConvexSet, Halfspace};
use mbm_numerics::NumericsError;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator can run while this thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised, destructor-free thread local, so touching it never
// allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations made on this thread while running `f`.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// SplitMix64: a self-contained seeded stream, so the golden inputs never
/// move with a random-number crate.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

fn market(e_max: f64) -> MarketParams {
    MarketParams::builder()
        .reward(100.0)
        .fork_rate(0.2)
        .edge_availability(0.8)
        .e_max(e_max)
        .build()
        .expect("valid market")
}

/// One heterogeneous standalone follower solve of the golden / gate set.
struct SolveCase {
    name: &'static str,
    e_max: f64,
    prices: (f64, f64),
    budgets: Vec<f64>,
}

fn solve_cases() -> Vec<SolveCase> {
    let spread = |n: usize, lo: f64, step: f64| (0..n).map(|i| lo + step * i as f64).collect();
    vec![
        SolveCase {
            name: "n3_binding",
            e_max: 5.0,
            prices: (4.0, 2.0),
            budgets: vec![120.0, 150.0, 180.0],
        },
        SolveCase {
            name: "n3_slack",
            e_max: 1.0e4,
            prices: (4.0, 2.0),
            budgets: vec![120.0, 150.0, 180.0],
        },
        SolveCase {
            name: "n5_binding",
            e_max: 8.0,
            prices: (5.0, 1.5),
            budgets: spread(5, 100.0, 25.0),
        },
        // Equal unit prices: the feasible start splits each budget evenly,
        // so every miner's breakpoints `eᵢ/pₑ` and `cᵢ/p꜀` tie exactly.
        SolveCase {
            name: "n5_equal_price_ties",
            e_max: 5.0,
            prices: (3.0, 3.0),
            budgets: vec![150.0; 5],
        },
        SolveCase {
            name: "n20_binding",
            e_max: 6.0,
            prices: (4.0, 2.0),
            budgets: spread(20, 100.0, 5.0),
        },
        SolveCase {
            name: "n20_slack",
            e_max: 1.0e4,
            prices: (4.0, 2.0),
            budgets: spread(20, 100.0, 5.0),
        },
    ]
}

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn hex_all(xs: &[f64]) -> String {
    xs.iter().map(|&v| hex(v)).collect::<Vec<_>>().join(",")
}

fn solve(case: &SolveCase, ws: &mut SolveWorkspace) -> Solved {
    let params = market(case.e_max);
    let prices = Prices::new(case.prices.0, case.prices.1).expect("valid prices");
    TieredSolver::standalone(&params, &prices, &case.budgets, &SubgameConfig::default())
        .solve(ws)
        .unwrap_or_else(|e| panic!("{}: standalone solve failed: {e}", case.name))
}

/// Solves `case` on `ws` and renders every bit of the outcome.
fn render_solve(case: &SolveCase, ws: &mut SolveWorkspace) -> String {
    let solved = solve(case, ws);
    let report = &solved.report;
    let requests: Vec<f64> = ws.requests.iter().flat_map(|r| [r.edge, r.cloud]).collect();
    format!(
        "solve {} method={:?} status={:?} hops={} iterations={} residual={} certificate={} \
         E={} C={} requests={}",
        case.name,
        report.method,
        report.status,
        report.hops(),
        solved.iterations,
        hex(solved.residual),
        report.certificate.map_or_else(|| "none".to_owned(), hex),
        hex(solved.aggregates.edge),
        hex(solved.aggregates.cloud),
        hex_all(&requests),
    )
}

/// A `dykstra` outcome: `ok`, or the iteration cap it gave up at.
fn status(out: Result<(), NumericsError>) -> String {
    match out {
        Ok(()) => "ok".to_owned(),
        Err(NumericsError::DidNotConverge { iterations, .. }) => format!("capped@{iterations}"),
        Err(e) => panic!("dykstra rejected a golden input: {e}"),
    }
}

/// Seeded inputs for the raw kernels: requests with negative entries,
/// `-0.0`, exact breakpoint ties `xⱼ/pⱼ = xₖ/pₖ`, and budgets from zero to
/// slack.
fn raw_point(rng: &mut SplitMix, n: usize) -> (Vec<f64>, Vec<f64>) {
    let mut prices: Vec<f64> = (0..n).map(|_| rng.range(0.5, 5.0)).collect();
    let mut x: Vec<f64> = (0..n).map(|_| rng.range(-5.0, 15.0)).collect();
    for j in 1..n {
        match rng.below(8) {
            0 => x[j] = -0.0,
            1 => {
                let k = rng.below(j as u64) as usize;
                prices[j] = prices[k];
                x[j] = x[k];
            }
            _ => {}
        }
    }
    (prices, x)
}

fn render_raw_kernels() -> String {
    let mut out = String::new();
    // Hand-picked budget-set corners: a three-way tie, a tie ahead of a
    // larger breakpoint, all-`-0.0`, zero budget, and a single coordinate.
    let corners: [(&[f64], f64, &[f64]); 6] = [
        (&[1.0, 1.0, 1.0], 2.0, &[3.0, 3.0, 3.0]),
        (&[1.0, 1.0, 1.0], 5.0, &[3.0, 3.0, 10.0]),
        (&[2.0, 1.0, 2.0], 1.0, &[4.0, 2.0, -1.0]),
        (&[1.0, 2.0], 1.0, &[-0.0, -0.0]),
        (&[1.5, 0.5], 0.0, &[2.0, 7.0]),
        (&[3.0], 2.0, &[5.0]),
    ];
    for (i, (prices, budget, x0)) in corners.iter().enumerate() {
        let set = BudgetSet::new(prices.to_vec(), *budget).expect("valid budget set");
        let mut x = x0.to_vec();
        set.project(&mut x);
        writeln!(out, "budget corner{i} x={}", hex_all(&x)).expect("write to String");
    }

    let mut rng = SplitMix(0x005e_ed0f_d1c5);
    for i in 0..200 {
        let n = 1 + rng.below(6) as usize;
        let (prices, mut x) = raw_point(&mut rng, n);
        let budget = if rng.below(10) == 0 { 0.0 } else { rng.range(0.0, 40.0) };
        let set = BudgetSet::new(prices, budget).expect("valid budget set");
        set.project(&mut x);
        writeln!(out, "budget {i} n={n} x={}", hex_all(&x)).expect("write to String");
    }

    for i in 0..120 {
        let n = 2 + rng.below(5) as usize;
        let (prices, mut x) = raw_point(&mut rng, n);
        let budget = rng.range(0.0, 40.0);
        let normal: Vec<f64> = (0..n).map(|_| rng.range(0.1, 2.0)).collect();
        let offset = rng.range(0.0, 10.0);
        let a = BudgetSet::new(prices, budget).expect("valid budget set");
        let b = Halfspace::new(normal, offset).expect("valid half-space");
        let max_iter = if i % 10 == 9 { 3 } else { 10_000 };
        let status = status(dykstra(&a, &b, &mut x, 1e-12, max_iter));
        writeln!(out, "dykstra budget {i} n={n} {status} x={}", hex_all(&x))
            .expect("write to String");
    }

    // The standalone structure itself: a product of per-miner (e, c) budget
    // sets against the shared edge capacity.
    for i in 0..60 {
        let miners = 2 + rng.below(6) as usize;
        let pe = rng.range(0.5, 6.0);
        let pc = if rng.below(4) == 0 { pe } else { rng.range(0.5, 6.0) };
        let sets: Vec<Box<dyn ConvexSet + Send + Sync>> = (0..miners)
            .map(|_| {
                Box::new(BudgetSet::new(vec![pe, pc], rng.range(50.0, 250.0)).expect("valid"))
                    as Box<dyn ConvexSet + Send + Sync>
            })
            .collect();
        let product = ProductSet::new(sets).expect("non-empty product");
        let normal: Vec<f64> =
            (0..2 * miners).map(|k| if k % 2 == 0 { 1.0 } else { 0.0 }).collect();
        let capacity = Halfspace::new(normal, rng.range(1.0, 40.0)).expect("valid half-space");
        let mut x: Vec<f64> = (0..2 * miners)
            .map(|k| if k > 0 && rng.below(6) == 0 { -0.0 } else { rng.range(-2.0, 60.0) })
            .collect();
        let status = status(dykstra(&product, &capacity, &mut x, 1e-12, 10_000));
        writeln!(out, "dykstra standalone {i} miners={miners} {status} x={}", hex_all(&x))
            .expect("write to String");
    }

    let orthant = BoxSet::nonnegative(3);
    let plane = Halfspace::new(vec![1.0, 1.0, 1.0], 1.0).expect("valid half-space");
    let mut x = vec![2.0, -0.0, -1.0];
    let status = status(dykstra(&orthant, &plane, &mut x, 1e-12, 10_000));
    writeln!(out, "dykstra box {status} x={}", hex_all(&x)).expect("write to String");
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/projection_kernels.txt")
}

#[test]
fn standalone_solves_and_raw_kernels_match_the_bitwise_golden() {
    let mut actual = String::new();
    let mut ws = SolveWorkspace::new();
    for case in solve_cases() {
        actual.push_str(&render_solve(&case, &mut ws));
        actual.push('\n');
    }
    actual.push_str(&render_raw_kernels());

    let path = golden_path();
    if std::env::var_os("MBM_UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::write(&path, &actual).expect("write projection golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("read projection golden");
    for (i, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(want, got, "line {} of {} moved", i + 1, path.display());
    }
    assert_eq!(expected.lines().count(), actual.lines().count(), "golden line count changed");
}

/// A warmed workspace solves each gate case with a number of allocations
/// that grows with the miner count (the per-solve game and feasible-set
/// construction) but not with the extragradient iteration count: the
/// ~2 100 – 4 600 iterations of these solves each run two projections
/// whose Dykstra and breakpoint scratch must come from reused memory.
#[test]
fn warmed_standalone_solves_allocate_independently_of_iterations() {
    let mut ws = SolveWorkspace::new();
    for case in solve_cases() {
        if !matches!(case.name, "n3_binding" | "n3_slack" | "n20_binding" | "n20_slack") {
            continue;
        }
        let warm = solve(&case, &mut ws);
        let (solved, allocations) = allocations_in(|| solve(&case, &mut ws));
        assert_eq!(solved.iterations, warm.iterations, "{}: same solve twice", case.name);
        let n = case.budgets.len() as u64;
        let bound = 4 * n + 32;
        println!("{}: {allocations} allocations, {} iterations", case.name, solved.iterations);
        assert!(
            allocations <= bound,
            "{}: {allocations} allocations in one warmed solve (bound {bound})",
            case.name
        );
        assert!(
            solved.iterations as u64 > 10 * bound,
            "{}: too few iterations ({}) for the bound to catch a per-iteration allocation",
            case.name,
            solved.iterations
        );
    }
}

#[test]
fn warmed_dykstra_does_not_allocate() {
    let budgets = BudgetSet::new(vec![4.0, 2.0, 3.0], 10.0).expect("valid budget set");
    let capacity = Halfspace::new(vec![1.0, 0.0, 1.0], 1.5).expect("valid half-space");
    let project = || {
        let mut x = [5.0, 4.0, 3.0];
        dykstra(&budgets, &capacity, &mut x, 1e-12, 10_000).expect("projection converges");
        x
    };
    let warm = project();
    let (x, allocations) = allocations_in(project);
    assert_eq!(x.map(f64::to_bits), warm.map(f64::to_bits));
    assert_eq!(allocations, 0, "a warmed dykstra call allocated");
}
