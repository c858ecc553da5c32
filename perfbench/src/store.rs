//! `store_mixed`: a seeded stream of heterogeneous connected follower
//! solves over a price lattice, through the disk-backed equilibrium memo.
//!
//! Set-up solves every lattice point cold (the reference answers), then
//! pre-populates a store file with part of the lattice and closes it. Each
//! timed pass reopens a fresh copy of that file and streams requests: about
//! four in five repeat a stored point (a re-certified hit, a read), the rest
//! are new points (a solve plus an fsync'd append, a write). Reads and
//! writes run side by side, so a change that speeds one path at the cost of
//! the other shows.

use std::path::{Path, PathBuf};
use std::time::Instant;

use mbm_core::params::{MarketParams, Prices};
use mbm_core::solver::memo::{self, MemoConfig, MemoGuard};
use mbm_core::solver::{FollowerSolver, SolveWorkspace, Solved, TieredSolver};
use mbm_core::subgame::SubgameConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{layers, setup_metric, stats, trace, Args, Outcome, Reference};

/// Miners per solve.
const N: usize = 24;
/// Lattice points written to the store during set-up.
const STORED: usize = 112;
/// Requests per pass.
const STREAM: usize = 1500;
/// Requests per pass for points not yet stored (a fifth); each is solved
/// and appended. The rest repeat a stored point.
const NEW_PER_PASS: usize = STREAM / 5;

/// A cold answer: the solve summary plus the per-miner vectors it left in
/// the workspace.
struct ColdAnswer {
    solved: Solved,
    requests_bits: Vec<(u64, u64)>,
}

fn bits(ws: &SolveWorkspace) -> Vec<(u64, u64)> {
    ws.requests.iter().map(|r| (r.edge.to_bits(), r.cloud.to_bits())).collect()
}

struct Inputs {
    params: MarketParams,
    cfg: SubgameConfig,
    budgets: Vec<f64>,
    points: Vec<Prices>,
    /// Indices into `points`; `< STORED` are pre-populated.
    stream: Vec<usize>,
    cold: Vec<ColdAnswer>,
}

fn solve(inputs: &Inputs, point: usize, ws: &mut SolveWorkspace) -> Result<Solved, String> {
    TieredSolver::connected(&inputs.params, &inputs.points[point], &inputs.budgets, &inputs.cfg)
        .solve(ws)
        .map_err(|e| e.to_string())
}

fn make_inputs(seed: u64) -> Result<Inputs, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let budgets: Vec<f64> = (0..N).map(|_| rng.gen_range(80.0..150.0)).collect();
    let (e0, c0) = (rng.gen_range(4.3..4.7), rng.gen_range(1.35..1.55));
    let mut points: Vec<Prices> = (0..(STORED + NEW_PER_PASS))
        .map(|k| {
            Prices::new(e0 + 0.02 * (k / 32) as f64, c0 + 0.02 * (k % 32) as f64)
                .expect("valid prices")
        })
        .collect();
    // Seeded shuffle so the stored part is spread over the lattice.
    for i in (1..points.len()).rev() {
        points.swap(i, rng.gen_range(0..=i));
    }
    // Exactly `NEW_PER_PASS` new points per pass, at seeded positions, so
    // every seed does the same number of writes.
    let mut is_new: Vec<bool> = (0..STREAM).map(|i| i < NEW_PER_PASS).collect();
    for i in (1..STREAM).rev() {
        is_new.swap(i, rng.gen_range(0..=i));
    }
    let mut next_new = STORED;
    let stream = is_new
        .iter()
        .map(|&new| {
            if new {
                next_new += 1;
                next_new - 1
            } else {
                rng.gen_range(0..STORED)
            }
        })
        .collect();
    let mut inputs = Inputs {
        params: mbm_exp::market::leader_ne_market(),
        cfg: SubgameConfig { tol: 1e-6, ..SubgameConfig::default() },
        budgets,
        points,
        stream,
        cold: Vec::new(),
    };
    let mut ws = SolveWorkspace::new();
    for p in 0..inputs.points.len() {
        let solved = solve(&inputs, p, &mut ws)?;
        inputs.cold.push(ColdAnswer { solved, requests_bits: bits(&ws) });
    }
    Ok(inputs)
}

/// Appends are synced once, when a pass flushes the store, not one by one:
/// with an fsync per append the pass time and the miss tail measured the
/// host's disk, which varied threefold between runs, rather than the store.
fn open(path: &Path) -> Result<MemoGuard, String> {
    let opts = mbm_store::StoreOptions { sync_every: u32::MAX, ..Default::default() };
    memo::open_and_install(path, MemoConfig::default(), opts)
        .map(|(guard, _)| guard)
        .map_err(|e| format!("open {}: {e}", path.display()))
}

struct Paths {
    pristine: PathBuf,
    work: PathBuf,
}

impl Drop for Paths {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.pristine);
        let _ = std::fs::remove_file(&self.work);
    }
}

/// Set-up: inputs with cold reference answers, and the pre-populated store.
fn set_up(seed: u64, paths: &Paths) -> Result<Inputs, String> {
    let inputs = make_inputs(seed)?;
    let _ = std::fs::remove_file(&paths.pristine);
    let guard = open(&paths.pristine)?;
    let mut ws = SolveWorkspace::new();
    for p in 0..STORED {
        solve(&inputs, p, &mut ws)?;
    }
    memo::flush().map_err(|e| e.to_string())?;
    drop(guard);
    Ok(inputs)
}

pub fn run(args: &Args, _reference: &Reference) -> Outcome {
    let mut out = Outcome::default();
    let dir = crate::out_dir();
    let tag = format!("{}-{}", args.seed, std::process::id());
    let paths = Paths {
        pristine: dir.join(format!("store-{tag}-pristine.mbms")),
        work: dir.join(format!("store-{tag}-work.mbms")),
    };

    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..crate::setup_reps("store_mixed") {
        let t = Instant::now();
        match set_up(args.seed, &paths) {
            Ok(i) => inputs = Some(i),
            Err(e) => {
                out.check(false, || format!("set-up: {e}"));
                return out;
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");
    let repeats = inputs.stream.iter().filter(|&&p| p < STORED).count() as u64;
    let fresh = inputs.stream.len() as u64 - repeats;

    let rec = mbm_obs::global();
    // Per-pass summaries only, so the benchmark's own memory does not grow
    // with the number of passes and show in `peak_rss_mb`.
    let (mut lat_ms, mut hit_us, mut miss_ms, mut open_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut totals = memo::MemoStats::default();
    let mut bytes = 0u64;
    crate::repeat_for(args.seconds, if args.traced { 2 } else { 1 }, |pass| {
        let traced_pass = args.traced && pass % 2 == 1;
        if let Err(e) = std::fs::copy(&paths.pristine, &paths.work) {
            out.check(false, || format!("copy store: {e}"));
            return false;
        }
        rec.set_enabled(traced_pass);
        trace::set_enabled(traced_pass);
        let mut ws = SolveWorkspace::new();
        let t_pass = Instant::now();
        let guard = {
            let _s = trace::span("store.open", pass as u64);
            open(&paths.work)
        };
        open_ms.push(t_pass.elapsed().as_secs_f64() * 1e3);
        let guard = match guard {
            Ok(g) => g,
            Err(e) => {
                out.check(false, || e);
                return false;
            }
        };
        memo::reset_stats();
        let mut pass_ms = Vec::with_capacity(STREAM);
        let (mut pass_hit_us, mut pass_miss_ms) = (Vec::new(), Vec::new());
        for (k, &p) in inputs.stream.iter().enumerate() {
            out.attempted += 1;
            let before = memo::stats();
            let t = Instant::now();
            let got = {
                let _s = trace::span("store.request", (pass * STREAM + k) as u64);
                solve(&inputs, p, &mut ws)
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let hit = memo::stats().hits > before.hits;
            let cold = &inputs.cold[p];
            match got {
                Ok(s) if s == cold.solved && bits(&ws) == cold.requests_bits => {}
                Ok(_) => {
                    out.failed += 1;
                    out.check(false, || {
                        format!("request {k}: answer differs from the cold solve of point {p}")
                    });
                }
                Err(e) => {
                    out.failed += 1;
                    out.check(false, || format!("request {k}: {e}"));
                }
            }
            pass_ms.push(ms);
            if hit {
                pass_hit_us.push(ms * 1e3);
            } else {
                pass_miss_ms.push(ms);
            }
        }
        if let (false, Some(s)) = (traced_pass, stats::Summary::of(&pass_ms)) {
            lat_ms.push(s);
        }
        hit_us.push(stats::median(&pass_hit_us));
        miss_ms.push(stats::median(&pass_miss_ms));
        let flushed = memo::flush();
        drop(guard);
        let wall = t_pass.elapsed().as_secs_f64();
        rec.set_enabled(false);
        trace::set_enabled(false);
        if traced_pass { &mut traced_walls } else { &mut untraced_walls }.push(wall);
        out.check(flushed.is_ok(), || format!("flush: {flushed:?}"));
        let s = memo::stats();
        out.failed += s.rejected + s.append_errors;
        out.check(s.rejected == 0 && s.append_errors == 0 && s.collisions == 0, || {
            format!("pass {pass}: store trouble: {s:?}")
        });
        out.check(s.hits == repeats, || {
            format!("pass {pass}: {} hits for {repeats} repeated requests", s.hits)
        });
        out.check(s.misses == fresh && s.appends == fresh, || {
            format!("pass {pass}: {s:?} for {fresh} new points")
        });
        totals = memo::MemoStats {
            hits: totals.hits + s.hits,
            misses: totals.misses + s.misses,
            rejected: totals.rejected + s.rejected,
            appends: totals.appends + s.appends,
            append_errors: totals.append_errors + s.append_errors,
            ..totals
        };
        bytes = std::fs::metadata(&paths.work).map_or(0, |m| m.len());
        true
    });
    let passes = untraced_walls.len() + traced_walls.len();
    out.info(
        "store.repeats_per_pass",
        repeats as f64,
        "count",
        format!("of {} requests", inputs.stream.len()),
    );
    out.info(
        "store.open_ms",
        stats::median(&open_ms),
        "ms",
        format!("median, n={}", open_ms.len()),
    );
    let per_pass = format!("median of {passes} per-pass medians");
    out.info("memo.hit_us_p50", stats::median(&hit_us), "us", per_pass.clone());
    out.info("memo.miss_ms_p50", stats::median(&miss_ms), "ms", per_pass.clone());

    if args.traced {
        let snap = rec.snapshot();
        layers::push_counters(&mut out, &snap.counters, traced_walls.len());
        out.layer(
            "store.open_ms",
            stats::median(&open_ms),
            format!("median of {} opens", open_ms.len()),
        );
        out.layer("store.bytes", bytes as f64, "store file after a pass");
        let per = passes.max(1) as f64;
        let what = format!("per pass, {passes} passes");
        out.layer("memo.hits", totals.hits as f64 / per, what.clone());
        out.layer("memo.misses", totals.misses as f64 / per, what.clone());
        out.layer("memo.rejected", totals.rejected as f64 / per, what.clone());
        out.layer("memo.appends", totals.appends as f64 / per, what.clone());
        out.layer("memo.append_errors", totals.append_errors as f64 / per, what);
        out.layer("memo.hit_us_p50", stats::median(&hit_us), per_pass.clone());
        out.layer("memo.miss_ms_p50", stats::median(&miss_ms), per_pass);
        out.layer(
            "obs.overhead_ratio.store_mixed",
            stats::median(&traced_walls) / stats::median(&untraced_walls),
            format!(
                "traced / untraced pass wall, {} vs {} passes",
                traced_walls.len(),
                untraced_walls.len()
            ),
        );
    } else {
        setup_metric(
            &mut out,
            &setup_s,
            "cold reference solves of the lattice, store pre-population",
        );
        out.e2e(
            "wall_s",
            stats::median(&untraced_walls),
            format!("median of {} passes of {STREAM} requests", untraced_walls.len()),
        );
        out.latency_of_passes(&lat_ms, "request");
        out.e2e("peak_rss_mb", crate::peak_rss_mb(None), "VmHWM of this process");
    }
    out
}
