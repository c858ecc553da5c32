//! `perfbench` — one benchmark for the whole system.
//!
//! ```text
//! perfbench --workload repro|market_solve|serve_open|store_mixed \
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload sets itself up (timed as `setup_s`, repeated and reported
//! as a median), then repeats its fixed work until `--seconds` have passed,
//! checks every output, and prints its metrics by name and unit. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics of `BENCHMARK.json` when untraced,
//! its per-layer metrics when traced. A failed output check prints
//! `"correct": false` and exits 1. See `perfbench/README.md`.

mod layers;
mod market;
mod repro;
mod serve;
mod stats;
mod store;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::Value;

/// Times a workload's set-up is repeated; `setup_s` is their median. The
/// sub-millisecond set-ups repeat more often so their median is steady.
pub fn setup_reps(workload: &str) -> usize {
    match workload {
        "repro" => 51,
        "market_solve" => 15,
        _ => 3,
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub traced: bool,
}

const USAGE: &str = "usage: perfbench --workload repro|market_solve|serve_open|store_mixed \
--seed N --seconds S --trace 0|1";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other}")),
                });
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    let workload = workload.ok_or(USAGE)?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`\n{USAGE}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or(USAGE)?,
        seconds: seconds.ok_or(USAGE)?,
        traced: traced.unwrap_or(false),
    })
}

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["repro", "market_solve", "serve_open", "store_mixed"];

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("lat_p50_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Human detail: sample count, percentile, base of a ratio.
    pub detail: String,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (errors, non-converged or degraded answers,
    /// unanswered or untyped frames, store rejections).
    pub failed: u64,
    /// Output checks that did not hold.
    pub check_failures: Vec<String>,
    /// Untraced end-to-end metrics (names of [`END_TO_END`]).
    pub e2e: Vec<Metric>,
    /// Further untraced numbers printed for reading, not gated.
    pub info: Vec<Metric>,
    /// Traced per-layer metrics (names of [`layers::PER_LAYER`]).
    pub layer: Vec<Metric>,
}

impl Outcome {
    /// Records an output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, detail: impl Into<String>) {
        let unit = END_TO_END.iter().find(|(n, _)| *n == name).map_or("?", |(_, u)| *u);
        self.e2e.push(Metric { name: name.into(), value, unit, detail: detail.into() });
    }

    /// Adds an informational metric.
    pub fn info(&mut self, name: &str, value: f64, unit: &'static str, detail: impl Into<String>) {
        self.info.push(Metric { name: name.into(), value, unit, detail: detail.into() });
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, detail: impl Into<String>) {
        let unit =
            layers::PER_LAYER.iter().find(|(n, _, _)| *n == name).map_or("?", |(_, u, _)| *u);
        self.layer.push(Metric { name: name.into(), value, unit, detail: detail.into() });
    }

    /// Adds `lat_p50_ms` and `lat_p99_ms` from latency samples in ms,
    /// grouped by pass (see [`stats::by_pass`]).
    pub fn latency(&mut self, passes_ms: &[Vec<f64>], what: &str) {
        match stats::by_pass(passes_ms) {
            Some((s, per_pass)) => {
                self.e2e("lat_p50_ms", s.p50, format!("median {what}, n={}", s.n));
                let how = if per_pass {
                    format!("median of {} per-pass p99s", passes_ms.len())
                } else {
                    s.tail_label()
                };
                self.e2e("lat_p99_ms", s.tail, format!("{how} {what}, n={}", s.n));
            }
            None => self.check(false, || format!("no finite latency samples for {what}")),
        }
    }

    /// Adds `lat_p50_ms` and `lat_p99_ms` from per-pass summaries in ms
    /// (see [`stats::of_passes`]).
    pub fn latency_of_passes(&mut self, per: &[stats::Summary], what: &str) {
        match stats::of_passes(per) {
            Some(s) => {
                let n = per.len();
                self.e2e(
                    "lat_p50_ms",
                    s.p50,
                    format!("median of {n} per-pass medians {what}, n={}", s.n),
                );
                let tail = if s.tail_pct == 99 { "p99".to_string() } else { s.tail_label() };
                self.e2e(
                    "lat_p99_ms",
                    s.tail,
                    format!("median of {n} per-pass {tail}s {what}, n={}", s.n),
                );
            }
            None => self.check(false, || format!("no finite latency samples for {what}")),
        }
    }
}

/// Median of the set-up repetitions, as `setup_s`.
pub fn setup_metric(out: &mut Outcome, setup_s: &[f64], what: &str) {
    out.e2e(
        "setup_s",
        stats::median(setup_s),
        format!("median of {} set-ups: {what}", setup_s.len()),
    );
}

/// Runs `pass(i)` for i = 0, 1, … until at least `min_passes` passes ran
/// and the next pass would be expected to end past `seconds` by more than
/// half a pass, or until a pass returns `false`. Runs so end within about
/// half a pass of `seconds`, which keeps a run's length, and the span of
/// host time its median covers, the same for every workload.
pub fn repeat_for(seconds: f64, min_passes: usize, mut pass: impl FnMut(usize) -> bool) {
    let start = Instant::now();
    let mut i = 0;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let mean_pass = if i == 0 { 0.0 } else { elapsed / i as f64 };
        if i >= min_passes && elapsed + mean_pass / 2.0 >= seconds {
            break;
        }
        if !pass(i) {
            break;
        }
        i += 1;
    }
}

/// Peak resident set (`VmHWM`) of a process in MB.
#[must_use]
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = pid.map_or_else(|| "/proc/self/status".to_string(), |p| format!("/proc/{p}/status"));
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a over a byte stream.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds bytes in.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a float in by its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    /// Hex rendering.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The package directory (holds `reference.json`; `out/` is scratch).
#[must_use]
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Scratch directory for traces and store files, inside the checkout.
#[must_use]
pub fn out_dir() -> PathBuf {
    let dir = package_dir().join("out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// `perfbench/reference.json`: seeds, fixed rates, reference digests and
/// the recorded baseline.
pub struct Reference(Value);

impl Reference {
    fn load() -> Result<Reference, String> {
        let path = package_dir().join("reference.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde_json::from_str::<Value>(&text)
            .map(Reference)
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    fn at(&self, path: &str) -> Option<&Value> {
        path.split('.').try_fold(&self.0, |v, k| v.get(k))
    }

    /// A string entry.
    #[must_use]
    pub fn str(&self, path: &str) -> Option<&str> {
        match self.at(path)? {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A numeric entry.
    #[must_use]
    pub fn num(&self, path: &str) -> Option<f64> {
        match self.at(path)? {
            Value::F64(v) => Some(*v),
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// A numeric entry that must exist.
    pub fn need(&self, path: &str) -> f64 {
        self.num(path).unwrap_or_else(|| panic!("reference.json lacks `{path}`"))
    }
}

/// Checks `got` against the recorded digest at `path`; an absent entry is
/// reported, so a missing reference never passes silently.
pub fn check_digest(out: &mut Outcome, reference: &Reference, path: &str, got: &str) {
    match reference.str(path) {
        Some(want) => out.check(want == got, || format!("{path}: digest {got} != recorded {want}")),
        None => out.check(false, || format!("{path}: no recorded digest (this run gave {got})")),
    }
}

/// Commit of the checkout, read from `.git` without running git; the
/// benchmark also runs from plain source trees, where it is `unknown`.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else { return "unknown".into() };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Ok(id) = std::fs::read_to_string(git.join(r)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines().find(|l| l.ends_with(r)).and_then(|l| l.split(' ').next().map(String::from))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1).map(|m| m.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Logical CPUs available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The run stamp: what produced these numbers, on what.
fn stamp_json(args: &Args) -> String {
    let (threads, workers) = match args.workload.as_str() {
        "repro" | "store_mixed" => (1, 0),
        "market_solve" => (nproc(), 0),
        _ => (1, nproc()),
    };
    format!(
        "{{\"commit\": {}, \"nproc\": {}, \"cpu\": {}, \"threads\": {threads}, \"workers\": {workers}, \
\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}}}",
        json_str(&commit(&package_dir().join(".."))),
        nproc(),
        json_str(&cpu_model()),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.traced
    )
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let reference = match Reference::load() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let stamp = stamp_json(&args);
    println!("# stamp {stamp}");
    trace::set_enabled(args.traced);

    let mut out = match args.workload.as_str() {
        "repro" => repro::run(&args, &reference),
        "market_solve" => market::run(&args, &reference),
        "serve_open" => serve::run(&args, &reference),
        _ => store::run(&args, &reference),
    };

    let metrics = if args.traced {
        let path = out_dir().join(format!("trace-{}-{}.json", args.workload, args.seed));
        match std::fs::write(&path, trace::document(&stamp)) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => out.check(false, || format!("write {}: {e}", path.display())),
        }
        layers::complete(&mut out.layer);
        std::mem::take(&mut out.layer)
    } else {
        std::mem::take(&mut out.e2e)
    };
    for m in metrics.iter().chain(if args.traced { [].iter() } else { out.info.iter() }) {
        println!("{:<40} {:>16} {:<6} {}", m.name, format!("{:.6}", m.value), m.unit, m.detail);
    }
    let wanted: Vec<&str> = if args.traced {
        layers::PER_LAYER.iter().map(|(n, _, _)| *n).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| *n).collect()
    };
    for name in wanted {
        match metrics.iter().find(|m| m.name == name) {
            Some(m) if m.value.is_finite() && (args.traced || m.value > 0.0) => {}
            Some(m) => out.check(false, || format!("metric {name} is {}", m.value)),
            None => out.check(false, || format!("metric {name} was not measured")),
        }
    }
    println!("# attempted={} failed={} fail_ratio={}", out.attempted, out.failed, {
        if out.attempted == 0 {
            f64::NAN
        } else {
            out.failed as f64 / out.attempted as f64
        }
    });
    out.check(out.attempted > 0, || "no operation was attempted".into());
    let (failed, attempted) = (out.failed, out.attempted);
    out.check(failed == 0, || format!("{failed} of {attempted} operations failed"));
    for f in &out.check_failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let correct = out.check_failures.is_empty();
    let finite: Vec<Metric> = metrics.into_iter().filter(|m| m.value.is_finite()).collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        metrics_json(&finite)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_command_line() {
        let argv: Vec<String> =
            ["--workload", "repro", "--seed", "7", "--seconds", "10", "--trace", "1"]
                .map(String::from)
                .to_vec();
        let a = parse_args(&argv).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.traced), ("repro", 7, 10.0, true));
        let bad =
            |v: &[&str]| parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>()).is_err();
        assert!(bad(&["--workload", "nope", "--seed", "1", "--seconds", "1"]));
        assert!(bad(&["--workload", "repro", "--seed", "x", "--seconds", "1"]));
        assert!(bad(&["--workload", "repro", "--seed", "1", "--seconds", "0"]));
        assert!(bad(&["--workload", "repro", "--seed", "1", "--seconds", "1", "--trace", "2"]));
        assert!(bad(&["--workload", "repro", "--seconds", "1"]));
    }

    /// `BENCHMARK.json` must name exactly the workloads and metrics this
    /// binary prints.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let text = std::fs::read_to_string(package_dir().join("../BENCHMARK.json")).unwrap();
        let doc: Value = serde_json::from_str(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_seq)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| match m.get(k) {
                        Some(Value::Str(s)) => s.clone(),
                        _ => String::new(),
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS.map(String::from).to_vec());
        let e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(names("end_to_end"), e2e);
        let layer: Vec<(String, String)> =
            layers::PER_LAYER.iter().map(|(n, u, _)| (n.to_string(), u.to_string())).collect();
        assert_eq!(names("per_layer"), layer);
    }
}
