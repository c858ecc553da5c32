//! The per-layer metrics of the traced run, and the counters they are read
//! from.
//!
//! Every traced run prints every metric below; a layer that the workload
//! does not exercise reads 0 there (for example `memo.hits` outside
//! `store_mixed`). Counter-derived numbers are per pass of the workload's
//! fixed work, so they do not depend on how many passes fit in a run.
//! Which end-to-end metric each one should move, on which workload, is
//! tabulated in `perfbench/README.md`.

use std::collections::BTreeMap;

use crate::Metric;

/// Solver modes as they appear in the `core.solver.<mode>.*` counters.
pub const SOLVER_MODES: [&str; 9] = [
    "connected",
    "standalone",
    "connected_sym",
    "standalone_sym",
    "homogeneous",
    "dynamic",
    "dynamic_continuous",
    "connected_aggregate",
    "standalone_aggregate",
];

/// `(name, unit, better)` of every per-layer metric, in `BENCHMARK.json`
/// order.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // exp: spans around the engine calls, the planner's accounting and the
    // executor's own per-task timings.
    ("exp.plan_ms", "ms", "lower"),
    ("exp.execute_s", "s", "lower"),
    ("exp.render_ms", "ms", "lower"),
    ("exp.dedup_hit_ratio", "ratio", "higher"),
    ("exp.task_s.sym_dynamic", "s", "lower"),
    ("exp.task_s.sym_continuous", "s", "lower"),
    ("exp.task_s.leader", "s", "lower"),
    ("exp.task_s.rl_train", "s", "lower"),
    ("exp.task_s.split_rate", "s", "lower"),
    // core.solver: the tier chain's call and iteration counters.
    ("solver.calls.connected", "count", "lower"),
    ("solver.calls.standalone", "count", "lower"),
    ("solver.calls.connected_sym", "count", "lower"),
    ("solver.calls.standalone_sym", "count", "lower"),
    ("solver.calls.homogeneous", "count", "lower"),
    ("solver.calls.dynamic", "count", "lower"),
    ("solver.calls.dynamic_continuous", "count", "lower"),
    ("solver.calls.connected_aggregate", "count", "lower"),
    ("solver.calls.standalone_aggregate", "count", "lower"),
    ("solver.iters_per_call.connected", "count", "lower"),
    ("solver.iters_per_call.standalone", "count", "lower"),
    ("solver.iters_per_call.connected_sym", "count", "lower"),
    ("solver.iters_per_call.standalone_sym", "count", "lower"),
    ("solver.iters_per_call.homogeneous", "count", "lower"),
    ("solver.iters_per_call.dynamic", "count", "lower"),
    ("solver.iters_per_call.dynamic_continuous", "count", "lower"),
    ("solver.iters_per_call.connected_aggregate", "count", "lower"),
    ("solver.iters_per_call.standalone_aggregate", "count", "lower"),
    ("solver.aggregate.miners_per_s.connected.100000", "1/s", "higher"),
    ("solver.aggregate.miners_per_s.connected.1000000", "1/s", "higher"),
    ("solver.aggregate.miners_per_s.standalone.10000", "1/s", "higher"),
    ("solver.fallback_hops", "count", "lower"),
    // core.sp: one span per public leader-search call of market_solve.
    ("sp.solve_ms.connected_n10", "ms", "lower"),
    ("sp.solve_ms.connected_n20", "ms", "lower"),
    ("sp.solve_ms.connected_n40", "ms", "lower"),
    ("sp.solve_ms.standalone_n3", "ms", "lower"),
    ("sp.solve_ms.oligopoly3_n10", "ms", "lower"),
    ("sp.solve_ms.oligopoly3_n20", "ms", "lower"),
    ("sp.leader_rounds", "count", "lower"),
    ("sp.payoff_evals", "count", "lower"),
    ("sp.cache_hit_ratio", "ratio", "higher"),
    // numerics and game kernels.
    ("numerics.iters.brent", "count", "lower"),
    ("numerics.iters.golden", "count", "lower"),
    ("numerics.iters.extragradient", "count", "lower"),
    ("numerics.iters.grid", "count", "lower"),
    ("game.leader.iterations", "count", "lower"),
    // par: fan-out calls and tasks.
    ("par.calls", "count", "lower"),
    ("par.tasks", "count", "lower"),
    // serve: latency by frame class and phase, parse cost, daemon CPU,
    // shedding, and whether the generator really kept its schedule.
    ("serve.lat_p50_ms.light", "ms", "lower"),
    ("serve.lat_p99_ms.light", "ms", "lower"),
    ("serve.saturation_rps", "1/s", "higher"),
    ("serve.lat_p99_ms.small.light", "ms", "lower"),
    ("serve.lat_p99_ms.small.heavy", "ms", "lower"),
    ("serve.lat_p99_ms.small.closed", "ms", "lower"),
    ("serve.lat_p99_ms.aggregate.light", "ms", "lower"),
    ("serve.lat_p99_ms.aggregate.heavy", "ms", "lower"),
    ("serve.lat_p99_ms.aggregate.closed", "ms", "lower"),
    ("serve.lat_p99_ms.poison.light", "ms", "lower"),
    ("serve.lat_p99_ms.poison.heavy", "ms", "lower"),
    ("serve.lat_p99_ms.poison.closed", "ms", "lower"),
    ("serve.parse_us_p50", "us", "lower"),
    ("serve.cpu_ms_per_kreq", "ms", "lower"),
    ("serve.shed_overload", "count", "lower"),
    ("serve.shed_deadline", "count", "lower"),
    ("serve.completed", "count", "higher"),
    ("loadgen.late_ms_p99", "ms", "lower"),
    ("loadgen.in_flight_max", "count", "lower"),
    // store: the disk memo's open cost, size and counters.
    ("store.open_ms", "ms", "lower"),
    ("store.bytes", "B", "lower"),
    ("memo.hits", "count", "higher"),
    ("memo.misses", "count", "lower"),
    ("memo.rejected", "count", "lower"),
    ("memo.appends", "count", "lower"),
    ("memo.append_errors", "count", "lower"),
    ("memo.hit_us_p50", "us", "lower"),
    ("memo.miss_ms_p50", "ms", "lower"),
    // obs: what tracing costs, per workload (base: the untraced passes).
    ("obs.overhead_ratio.repro", "ratio", "lower"),
    ("obs.overhead_ratio.market_solve", "ratio", "lower"),
    ("obs.overhead_ratio.serve_open", "ratio", "lower"),
    ("obs.overhead_ratio.store_mixed", "ratio", "lower"),
];

/// Fills every per-layer metric the workload did not measure with 0.
pub fn complete(layer: &mut Vec<Metric>) {
    for (name, unit, _) in PER_LAYER {
        if !layer.iter().any(|m| m.name == *name) {
            layer.push(Metric {
                name: (*name).to_string(),
                value: 0.0,
                unit,
                detail: "not exercised by this workload".into(),
            });
        }
    }
    layer.sort_by_key(|m| PER_LAYER.iter().position(|(n, _, _)| *n == m.name));
}

/// The counter-derived per-layer metrics, per pass (`passes` traced passes
/// recorded into `counters`).
#[must_use]
pub fn from_counters(
    counters: &BTreeMap<String, u64>,
    passes: usize,
) -> Vec<(String, f64, String)> {
    let c = |k: &str| counters.get(k).copied().unwrap_or(0) as f64;
    let per = passes.max(1) as f64;
    let base = format!("per pass, {passes} traced pass(es)");
    let mut out = Vec::new();
    for mode in SOLVER_MODES {
        let calls = c(&format!("core.solver.{mode}.calls"));
        let iters = c(&format!("core.solver.{mode}.iterations"));
        out.push((format!("solver.calls.{mode}"), calls / per, base.clone()));
        let ipc = if calls > 0.0 { iters / calls } else { 0.0 };
        out.push((
            format!("solver.iters_per_call.{mode}"),
            ipc,
            format!("{iters} iterations / {calls} calls"),
        ));
    }
    out.push(("solver.fallback_hops".into(), c("core.solver.fallback_hops") / per, base.clone()));
    let (hits, misses) = (c("core.cache.hits"), c("core.cache.misses"));
    out.push((
        "sp.payoff_evals".into(),
        misses / per,
        format!("{base}; cache misses = payoffs computed"),
    ));
    let lookups = hits + misses;
    let ratio = if lookups > 0.0 { hits / lookups } else { 0.0 };
    out.push(("sp.cache_hit_ratio".into(), ratio, format!("base: {lookups} lookups")));
    for k in ["brent", "golden", "extragradient", "grid"] {
        out.push((
            format!("numerics.iters.{k}"),
            c(&format!("numerics.{k}.iterations")) / per,
            base.clone(),
        ));
    }
    out.push(("game.leader.iterations".into(), c("game.leader.iterations") / per, base.clone()));
    out.push(("par.calls".into(), c("par.calls") / per, base.clone()));
    out.push(("par.tasks".into(), c("par.tasks") / per, base));
    out
}

/// Copies [`from_counters`] into the outcome.
pub fn push_counters(out: &mut crate::Outcome, counters: &BTreeMap<String, u64>, passes: usize) {
    for (name, value, detail) in from_counters(counters, passes) {
        out.layer(&name, value, detail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
            assert!(
                name.len() <= 64
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(unit.len() <= 16 && !unit.is_empty());
            assert!(matches!(*better, "higher" | "lower"));
            assert!(!PER_LAYER[..i].iter().any(|(n, _, _)| n == name), "{name} repeated");
        }
    }

    #[test]
    fn counters_are_reported_per_pass() {
        let mut counters = BTreeMap::new();
        counters.insert("core.solver.connected.calls".to_string(), 10);
        counters.insert("core.solver.connected.iterations".to_string(), 250);
        counters.insert("core.cache.hits".to_string(), 3);
        counters.insert("core.cache.misses".to_string(), 1);
        let m: BTreeMap<String, f64> =
            from_counters(&counters, 2).into_iter().map(|(n, v, _)| (n, v)).collect();
        assert_eq!(m["solver.calls.connected"], 5.0);
        assert_eq!(m["solver.iters_per_call.connected"], 25.0);
        assert_eq!(m["solver.calls.standalone"], 0.0);
        assert_eq!(m["sp.cache_hit_ratio"], 0.75);
        assert_eq!(m["sp.payoff_evals"], 0.5);
        assert!(m.keys().all(|k| PER_LAYER.iter().any(|(n, _, _)| n == k)));
    }
}
