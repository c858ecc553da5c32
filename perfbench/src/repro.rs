//! `repro`: the paper reproduction, as `MBM_PAR_THREADS=1 experiments --all`
//! runs it — every registry spec at full resolution planned into one
//! deduplicated batch, executed under the strict policy on a one-thread
//! pool with no store and no warm start, then rendered.
//!
//! The inputs are the paper's and do not depend on the seed. One pass is
//! one whole reproduction; its wall time is the operation latency.

use std::time::Instant;

use mbm_core::solver::SolvePolicy;
use mbm_exp::executor::{execute_supervised, TaskResults};
use mbm_exp::planner::{plan, Plan, PlannedTask};
use mbm_exp::spec::{registry, ExperimentSpec, SpecCtx};
use mbm_exp::table::ExperimentResult;
use mbm_par::Pool;

use crate::{check_digest, layers, setup_metric, stats, trace, Args, Fnv, Outcome, Reference};

fn planned(specs: &[ExperimentSpec], ctx: &SpecCtx) -> Vec<Vec<PlannedTask>> {
    specs.iter().map(|s| (s.tasks)(ctx)).collect()
}

/// One reproduction: plan, execute, render. Returns the rendered results,
/// the executed batch and the plan.
fn pass(
    specs: &[ExperimentSpec],
    ctx: &SpecCtx,
    pool: &Pool,
    req: u64,
) -> (Result<Vec<ExperimentResult>, String>, TaskResults, Plan) {
    let _span = trace::span("exp.repro_pass", req);
    let compiled = {
        let _s = trace::span("exp.plan", req);
        plan(&planned(specs, ctx))
    };
    let results = {
        let _s = trace::span("exp.execute", req);
        execute_supervised(&compiled, pool, SolvePolicy::strict())
    };
    let _s = trace::span("exp.render", req);
    let rendered = specs
        .iter()
        .map(|spec| {
            (spec.render)(ctx, &results)
                .map(|tables| ExperimentResult { name: spec.name.to_string(), tables })
                .map_err(|e| format!("{}: {e}", spec.name))
        })
        .collect();
    (rendered, results, compiled)
}

/// Digest of the rendered tables, exactly as `experiments --all` prints them.
fn digest(rendered: &[ExperimentResult]) -> String {
    let mut h = Fnv::default();
    for r in rendered {
        h.bytes(r.render().as_bytes());
    }
    h.hex()
}

pub fn run(args: &Args, reference: &Reference) -> Outcome {
    let mut out = Outcome::default();
    let ctx = SpecCtx::full();

    // Set-up: the registry, every spec's task list compiled into a plan,
    // and the pool. A pass plans again, as `experiments --all` does.
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..crate::setup_reps("repro") {
        let t = Instant::now();
        let specs = registry();
        let compiled = plan(&planned(&specs, &ctx));
        let pool = Pool::new(1);
        setup_s.push(t.elapsed().as_secs_f64());
        prepared = Some((specs, compiled.stats.specs, pool));
    }
    let (specs, n_specs, pool) = prepared.expect("at least one set-up");

    let rec = mbm_obs::global();
    let mut digests = Vec::new();
    let mut traced_walls = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut stats_seen = None;
    let mut stage_ms: [Vec<f64>; 3] = Default::default();
    crate::repeat_for(args.seconds, if args.traced { 2 } else { 1 }, |i| {
        // A traced run alternates untraced and traced passes, so the
        // overhead ratio compares passes of the same run.
        let traced_pass = args.traced && i % 2 == 1;
        rec.set_enabled(traced_pass);
        trace::set_enabled(traced_pass);
        let t = Instant::now();
        let (rendered, results, compiled) = pass(&specs, &ctx, &pool, i as u64);
        let wall = t.elapsed().as_secs_f64();
        if traced_pass { &mut traced_walls } else { &mut untraced_walls }.push(wall);
        out.attempted += compiled.stats.unique as u64;
        out.failed += (results.failures.len() + results.degraded_count()) as u64;
        out.check(results.failures.is_empty(), || {
            format!("pass {i}: required task failures: {:?}", results.failures)
        });
        out.check(results.degraded_count() == 0, || {
            format!("pass {i}: {} degraded solves", results.degraded_count())
        });
        match rendered {
            Ok(rendered) => {
                for r in &rendered {
                    for t in &r.tables {
                        out.check(t.has_finite_cell(), || {
                            format!("{}: table {:?} has no finite cell", r.name, t.title)
                        });
                    }
                }
                digests.push(digest(&rendered));
            }
            Err(e) => out.check(false, || format!("pass {i}: render failed: {e}")),
        }
        stats_seen = Some(compiled.stats);
        out.check(compiled.stats.specs == n_specs, || "plan lost a spec".into());
        true
    });
    rec.set_enabled(false);
    trace::set_enabled(false);

    if let Some(first) = digests.first() {
        out.check(digests.iter().all(|d| d == first), || {
            format!("table digests differ across passes: {digests:?}")
        });
        check_digest(&mut out, reference, "repro.table_digest", first);
    }
    let stats = stats_seen.unwrap_or_default();
    out.info("repro.specs", stats.specs as f64, "count", "registry specs");
    out.info(
        "repro.tasks_unique",
        stats.unique as f64,
        "count",
        format!("of {} requested", stats.requested),
    );

    if args.traced {
        let snap = rec.snapshot();
        let passes = traced_walls.len();
        layers::push_counters(&mut out, &snap.counters, passes);
        for s in trace::spans() {
            let ms = (s.end_ns - s.start_ns) as f64 / 1e6;
            match s.name {
                "exp.plan" => stage_ms[0].push(ms),
                "exp.execute" => stage_ms[1].push(ms),
                "exp.render" => stage_ms[2].push(ms),
                _ => {}
            }
        }
        let n = format!("median of {passes} traced passes");
        out.layer("exp.plan_ms", stats::median(&stage_ms[0]), n.clone());
        out.layer("exp.execute_s", stats::median(&stage_ms[1]) / 1e3, n.clone());
        out.layer("exp.render_ms", stats::median(&stage_ms[2]), n);
        out.layer(
            "exp.dedup_hit_ratio",
            stats.hit_rate(),
            format!("base: {} tasks requested", stats.requested),
        );
        for kind in ["sym_dynamic", "sym_continuous", "leader", "rl_train", "split_rate"] {
            let total = snap.timings.get(&format!("exp.task.{kind}")).map_or(0, |t| t.total_ns);
            out.layer(
                &format!("exp.task_s.{kind}"),
                total as f64 / 1e9 / passes.max(1) as f64,
                "per pass, exp.task.* timings",
            );
        }
        out.layer(
            "obs.overhead_ratio.repro",
            stats::median(&traced_walls) / stats::median(&untraced_walls),
            format!("traced / untraced pass wall, {passes} vs {} passes", untraced_walls.len()),
        );
    } else {
        setup_metric(&mut out, &setup_s, "registry, task lists and their plan, pool");
        let n = untraced_walls.len();
        out.e2e("wall_s", stats::median(&untraced_walls), format!("median of {n} reproductions"));
        let ms: Vec<Vec<f64>> = untraced_walls.iter().map(|w| vec![w * 1e3]).collect();
        out.latency(&ms, "reproduction");
        out.e2e("peak_rss_mb", crate::peak_rss_mb(None), "VmHWM of this process");
    }
    out
}
