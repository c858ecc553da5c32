//! `market_solve`: a seeded batch of cold single-market solves, each a
//! fresh call with no store installed — heterogeneous Stackelberg solves in
//! both modes, a K = 3 oligopoly, and aggregate-form follower solves at
//! large N. One pass solves the whole batch; each call is one operation.

use std::time::Instant;

use mbm_core::market::{PriceVector, ProviderSet};
use mbm_core::params::{MarketParams, Prices, Provider};
use mbm_core::solver::{FollowerSolver, SolveStatus, SolveWorkspace, Solved, TieredSolver};
use mbm_core::sp::oligopoly::solve_oligopoly;
use mbm_core::sp::stage::Mode;
use mbm_core::stackelberg::{solve_connected, solve_standalone, ExecConfig, StackelbergConfig};
use mbm_core::subgame::SubgameConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{
    check_digest, layers, nproc, setup_metric, stats, trace, Args, Fnv, Outcome, Reference,
};

/// One call of the batch.
#[derive(Debug, Clone)]
enum Call {
    Connected(Vec<f64>),
    Standalone(Vec<f64>),
    Oligopoly { budgets: Vec<f64>, cloud2: Provider },
    AggConnected { budgets: Vec<f64>, prices: Prices },
    AggStandalone { budgets: Vec<f64>, prices: Prices },
}

impl Call {
    /// Span and metric key; the per-layer name for leader-search calls.
    fn key(&self) -> &'static str {
        match self {
            Call::Connected(b) => match b.len() {
                10 => "sp.solve.connected_n10",
                20 => "sp.solve.connected_n20",
                _ => "sp.solve.connected_n40",
            },
            Call::Standalone(_) => "sp.solve.standalone_n3",
            Call::Oligopoly { budgets, .. } => {
                if budgets.len() == 10 {
                    "sp.solve.oligopoly3_n10"
                } else {
                    "sp.solve.oligopoly3_n20"
                }
            }
            Call::AggConnected { budgets, .. } => {
                if budgets.len() == 100_000 {
                    "solver.aggregate.connected.100000"
                } else {
                    "solver.aggregate.connected.1000000"
                }
            }
            Call::AggStandalone { .. } => "solver.aggregate.standalone.10000",
        }
    }
}

/// `(kind, count)` of the batch; sizes are tuned so that no single call
/// dominates a pass.
const BATCH: &[(&str, usize)] = &[
    ("connected_n10", 3),
    ("connected_n20", 4),
    ("connected_n40", 1),
    ("standalone_n3", 6),
    ("oligopoly3_n10", 1),
    ("oligopoly3_n20", 1),
    ("agg_connected_100000", 2),
    ("agg_connected_1000000", 1),
    ("agg_standalone_10000", 3),
];

/// `n` heterogeneous budgets spread over [100, 200]: one seeded draw from
/// the middle half of each of `n` equal strata, in seeded order. Every seed
/// gets a population of the same shape, so the cost of a call depends little
/// on the seed.
fn budgets(rng: &mut StdRng, n: usize) -> Vec<f64> {
    let mut b: Vec<f64> =
        (0..n).map(|i| 100.0 + 100.0 * (i as f64 + rng.gen_range(0.25..0.75)) / n as f64).collect();
    for i in (1..n).rev() {
        b.swap(i, rng.gen_range(0..=i));
    }
    b
}

/// Well-conditioned aggregate prices: edge comfortably above cloud.
fn agg_prices(rng: &mut StdRng) -> Prices {
    Prices::new(rng.gen_range(4.5..5.5), rng.gen_range(1.5..2.0)).expect("valid prices")
}

fn make_batch(seed: u64) -> Vec<Call> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut calls = Vec::new();
    for &(kind, count) in BATCH {
        for _ in 0..count {
            calls.push(match kind {
                "connected_n10" => Call::Connected(budgets(&mut rng, 10)),
                "connected_n20" => Call::Connected(budgets(&mut rng, 20)),
                "connected_n40" => Call::Connected(budgets(&mut rng, 40)),
                "standalone_n3" => Call::Standalone(budgets(&mut rng, 3)),
                "oligopoly3_n10" | "oligopoly3_n20" => {
                    let n = if kind.ends_with("10") { 10 } else { 20 };
                    let cloud2 =
                        Provider::new(rng.gen_range(1.2..1.6), 8.0).expect("valid provider");
                    Call::Oligopoly { budgets: budgets(&mut rng, n), cloud2 }
                }
                "agg_connected_100000" | "agg_connected_1000000" => {
                    let n = if kind.ends_with("1000000") { 1_000_000 } else { 100_000 };
                    Call::AggConnected {
                        prices: agg_prices(&mut rng),
                        budgets: budgets(&mut rng, n),
                    }
                }
                _ => Call::AggStandalone {
                    prices: agg_prices(&mut rng),
                    budgets: budgets(&mut rng, 10_000),
                },
            });
        }
    }
    calls
}

/// What one call returned, kept for the output checks.
#[derive(Debug, Clone)]
enum Answer {
    Leader { prices: Vec<f64>, residual: f64, rounds: usize, aggregates: (f64, f64) },
    Follower(Solved),
}

impl Answer {
    fn fold(&self, h: &mut Fnv) {
        match self {
            Answer::Leader { prices, aggregates, .. } => {
                prices.iter().for_each(|&p| h.f64(p));
                h.f64(aggregates.0);
                h.f64(aggregates.1);
            }
            Answer::Follower(s) => {
                h.f64(s.aggregates.edge);
                h.f64(s.aggregates.cloud);
            }
        }
    }
}

fn config(traced: bool) -> StackelbergConfig {
    StackelbergConfig {
        exec: ExecConfig {
            threads: nproc(),
            cache_capacity: 1 << 16,
            telemetry: traced,
            warm_start: false,
        },
        ..StackelbergConfig::default()
    }
}

fn solve(call: &Call, params: &MarketParams, cfg: &StackelbergConfig) -> Result<Answer, String> {
    let leader = |prices: Vec<f64>, residual, rounds, agg: mbm_core::request::Aggregates| {
        Answer::Leader { prices, residual, rounds, aggregates: (agg.edge, agg.cloud) }
    };
    match call {
        Call::Connected(b) => solve_connected(params, b, cfg)
            .map(|s| {
                leader(
                    vec![s.prices.edge, s.prices.cloud],
                    s.leader_residual,
                    s.leader_rounds,
                    s.equilibrium.aggregates,
                )
            })
            .map_err(|e| e.to_string()),
        Call::Standalone(b) => solve_standalone(params, b, cfg)
            .map(|s| {
                leader(
                    vec![s.prices.edge, s.prices.cloud],
                    s.leader_residual,
                    s.leader_rounds,
                    s.equilibrium.aggregates,
                )
            })
            .map_err(|e| e.to_string()),
        Call::Oligopoly { budgets, cloud2 } => {
            let set = ProviderSet::new(vec![params.esp(), params.csp(), *cloud2])
                .map_err(|e| e.to_string())?;
            solve_oligopoly(params, &set, budgets, Mode::Connected, cfg)
                .map(|s| {
                    leader(s.prices, s.leader_residual, s.leader_rounds, s.equilibrium.aggregates)
                })
                .map_err(|e| e.to_string())
        }
        Call::AggConnected { budgets, prices } => TieredSolver::aggregate_connected(
            &mbm_exp::market::baseline_market(),
            prices,
            budgets,
            &cfg.subgame,
        )
        .solve(&mut SolveWorkspace::new())
        .map(Answer::Follower)
        .map_err(|e| e.to_string()),
        Call::AggStandalone { budgets, prices } => TieredSolver::aggregate_standalone(
            &mbm_exp::market::baseline_market(),
            prices,
            budgets,
            &cfg.subgame,
        )
        .solve(&mut SolveWorkspace::new())
        .map(Answer::Follower)
        .map_err(|e| e.to_string()),
    }
}

/// Output checks of one answer: the leader residual is within tolerance,
/// and the follower report at the answer's prices is `Converged`.
fn verify(
    call: &Call,
    answer: &Answer,
    params: &MarketParams,
    cfg: &StackelbergConfig,
) -> Result<(), String> {
    let sub: &SubgameConfig = &cfg.subgame;
    let follower = |prices: &Prices, budgets: &[f64], standalone: bool| -> Result<Solved, String> {
        let solver = if standalone {
            TieredSolver::standalone(params, prices, budgets, sub)
        } else {
            TieredSolver::connected(params, prices, budgets, sub)
        };
        solver.solve(&mut SolveWorkspace::new()).map_err(|e| e.to_string())
    };
    let report = match (call, answer) {
        (
            Call::Connected(b) | Call::Standalone(b) | Call::Oligopoly { budgets: b, .. },
            Answer::Leader { prices, residual, .. },
        ) => {
            if residual.is_nan() || *residual > cfg.leader.tol {
                return Err(format!("leader residual {residual} > tolerance {}", cfg.leader.tol));
            }
            let effective = PriceVector::new(prices).map_err(|e| e.to_string())?.effective();
            follower(&effective, b, matches!(call, Call::Standalone(_)))?.report
        }
        (_, Answer::Follower(s)) => s.report.clone(),
        _ => return Err("answer does not match its call".into()),
    };
    if report.status == SolveStatus::Converged {
        Ok(())
    } else {
        Err(format!("follower report is {:?}", report.status))
    }
}

pub fn run(args: &Args, reference: &Reference) -> Outcome {
    let mut out = Outcome::default();
    let params = mbm_exp::market::leader_ne_market();

    let mut setup_s = Vec::new();
    let mut batch = Vec::new();
    for _ in 0..crate::setup_reps("market_solve") {
        let t = Instant::now();
        batch = make_batch(args.seed);
        // Warm-up: the first call of the batch, which also starts the
        // global pool the aggregate sweeps fan out on.
        if let Err(e) = solve(&batch[0], &params, &config(false)) {
            out.check(false, || format!("warm-up: {e}"));
            return out;
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let rec = mbm_obs::global();
    let mut call_ms: Vec<Vec<f64>> = Vec::new();
    let mut by_key: std::collections::BTreeMap<(bool, &'static str), Vec<f64>> = Default::default();
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut digests = Vec::new();
    let mut first_answers: Option<Vec<Answer>> = None;
    let mut leader_rounds = Vec::new();
    crate::repeat_for(args.seconds, if args.traced { 2 } else { 1 }, |pass| {
        let traced_pass = args.traced && pass % 2 == 1;
        rec.set_enabled(traced_pass);
        trace::set_enabled(traced_pass);
        let cfg = config(traced_pass);
        let t_pass = Instant::now();
        let mut answers = Vec::with_capacity(batch.len());
        let mut h = Fnv::default();
        let mut rounds = 0usize;
        let mut pass_ms = Vec::with_capacity(batch.len());
        for (i, call) in batch.iter().enumerate() {
            out.attempted += 1;
            let t = Instant::now();
            let answer = {
                let _s = trace::span(call.key(), (pass * batch.len() + i) as u64);
                solve(call, &params, &cfg)
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match answer {
                Ok(a) => {
                    a.fold(&mut h);
                    if let Answer::Leader { rounds: r, .. } = &a {
                        rounds += r;
                    }
                    answers.push(a);
                }
                Err(e) => {
                    out.failed += 1;
                    out.check(false, || format!("{}: {e}", call.key()));
                    return false;
                }
            }
            by_key.entry((traced_pass, call.key())).or_default().push(ms);
            pass_ms.push(ms);
        }
        if !traced_pass {
            call_ms.push(pass_ms);
        }
        let wall = t_pass.elapsed().as_secs_f64();
        if traced_pass { &mut traced_walls } else { &mut untraced_walls }.push(wall);
        digests.push(h.hex());
        if traced_pass {
            leader_rounds.push(rounds as f64);
        }
        if first_answers.is_none() {
            first_answers = Some(answers);
        }
        true
    });
    rec.set_enabled(false);
    trace::set_enabled(false);

    // Output checks, on the first pass's answers (later passes must match
    // it bit for bit).
    if let Some(answers) = &first_answers {
        let cfg = config(false);
        for (call, answer) in batch.iter().zip(answers) {
            if let Err(e) = verify(call, answer, &params, &cfg) {
                out.failed += 1;
                out.check(false, || format!("{}: {e}", call.key()));
            }
        }
    }
    if let Some(first) = digests.first() {
        out.check(digests.iter().all(|d| d == first), || {
            format!("result digests differ across passes: {digests:?}")
        });
        if args.seed == reference.need("default_seed") as u64 {
            check_digest(&mut out, reference, "market_solve.default_seed_digest", first);
        }
        println!("# result digest {first}");
    }

    if args.traced {
        let snap = rec.snapshot();
        layers::push_counters(&mut out, &snap.counters, traced_walls.len());
        for ((_, key), samples) in by_key.iter().filter(|((traced, _), _)| *traced) {
            let s = stats::Summary::of(samples);
            if let Some(name) = key.strip_prefix("sp.solve.") {
                out.layer(
                    &format!("sp.solve_ms.{name}"),
                    stats::median(samples),
                    format!("median, n={}", s.map_or(0, |s| s.n)),
                );
            } else if let Some(rest) = key.strip_prefix("solver.aggregate.") {
                let n: f64 =
                    rest.rsplit('.').next().and_then(|n| n.parse().ok()).unwrap_or(f64::NAN);
                out.layer(
                    &format!("solver.aggregate.miners_per_s.{rest}"),
                    n / (stats::median(samples) / 1e3),
                    format!("N / median call time, n={}", samples.len()),
                );
            }
        }
        out.layer(
            "sp.leader_rounds",
            stats::median(&leader_rounds),
            "per pass, summed over leader-search calls",
        );
        out.layer(
            "obs.overhead_ratio.market_solve",
            stats::median(&traced_walls) / stats::median(&untraced_walls),
            format!(
                "traced / untraced pass wall, {} vs {} passes",
                traced_walls.len(),
                untraced_walls.len()
            ),
        );
    } else {
        for ((_, key), samples) in &by_key {
            out.info(
                &format!("{key}_ms"),
                stats::median(samples),
                "ms",
                format!("median call, n={}", samples.len()),
            );
        }
        setup_metric(&mut out, &setup_s, "seeded budgets and prices for every call, warm-up call");
        out.e2e(
            "wall_s",
            stats::median(&untraced_walls),
            format!("median of {} passes of {} calls", untraced_walls.len(), batch.len()),
        );
        out.latency(&call_ms, "call");
        out.e2e("peak_rss_mb", crate::peak_rss_mb(None), "VmHWM of this process");
    }
    out
}
