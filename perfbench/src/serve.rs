//! `serve_open`: the `mbm-serve` daemon in a child process, fed over one
//! TCP connection by one sender thread and one reader thread.
//!
//! Frames come from `mbm_serve::loadgen::frames` — small heterogeneous,
//! symmetric and K = 3 jobs, aggregate jobs at N = 1000 / 5000, and ~15 %
//! poison frames. The frame *contents* of each phase come from a fixed mix
//! seed, so the sorted response multiset of a phase is a constant that
//! `reference.json` records; the workload seed shuffles the frame order and
//! draws the Poisson arrival schedule.
//!
//! A pass has three kinds of phase: open-loop arrivals at the fixed `light`
//! rate, open-loop arrivals at the fixed `heavy` rate (near a third and two
//! thirds of saturation), and a closed-loop saturation phase with one frame
//! in flight per worker, which runs after each open-loop phase.
//! Daemon clients are independent users, so the open-loop phases send on
//! schedule regardless of replies and time each frame from its due time.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mbm_serve::loadgen;
use mbm_serve::protocol::{parse_request, Mode, Verb};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;

use crate::{
    check_digest, layers, nproc, setup_metric, stats, trace, Args, Fnv, Outcome, Reference,
};

/// Deadline stamped on every solve frame; the daemon's clamp is raised to
/// match, so no frame is shed by its deadline.
const DEADLINE_MS: u64 = 60_000;
/// Seconds of arrivals in the open-loop phases; the light phase feeds the
/// gated latency metrics, so it runs longest.
const OPEN_PHASE_SECONDS: [f64; 2] = [3.0, 1.5];
/// Frames of the closed-loop phase.
const CLOSED_FRAMES: usize = 2000;
/// In-flight window of the closed-loop phase: one frame per daemon worker.
/// A wider window only queues frames inside the daemon, so each latency
/// would carry a queue wait that follows the host's scheduler more than the
/// daemon's speed.
fn window() -> usize {
    nproc()
}
/// Frames sent closed-loop during set-up so every worker has run.
const WARMUP_FRAMES: usize = 200;
/// A phase fails, instead of hanging, when no response arrives for this
/// long while frames are outstanding.
const STALL: Duration = Duration::from_secs(20);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Class {
    Small,
    Aggregate,
    Poison,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Small => "small",
            Class::Aggregate => "aggregate",
            Class::Poison => "poison",
        }
    }
}

/// One phase's frames in send order, with what each must be answered with.
struct Frames {
    lines: Vec<String>,
    ids: Vec<Option<u64>>,
    class: Vec<Class>,
    /// `None`: a converged solve; `Some(kind)`: that typed error.
    expect: Vec<Option<&'static str>>,
}

fn frames(mix_seed: u64, count: usize, order_seed: u64) -> Frames {
    let mut lines = loadgen::frames(mix_seed, count, DEADLINE_MS);
    let mut rng = StdRng::seed_from_u64(order_seed);
    for i in (1..lines.len()).rev() {
        lines.swap(i, rng.gen_range(0..=i));
    }
    let mut f =
        Frames { lines: Vec::new(), ids: Vec::new(), class: Vec::new(), expect: Vec::new() };
    for line in lines {
        let (id, class, expect) = match parse_request(&line) {
            Ok(req) => {
                let class = match &req.verb {
                    Verb::Solve(job)
                        if matches!(
                            job.mode,
                            Mode::AggregateConnected | Mode::AggregateStandalone
                        ) =>
                    {
                        Class::Aggregate
                    }
                    _ => Class::Small,
                };
                (req.id, class, None)
            }
            Err(e) => (e.id, Class::Poison, Some(e.kind.as_str())),
        };
        f.lines.push(line);
        f.ids.push(id);
        f.class.push(class);
        f.expect.push(expect);
    }
    f
}

/// What came back for one phase.
struct PhaseResult {
    /// Latency of each frame in ms (from its due time, open loop; from its
    /// send time, closed loop), in send order.
    lat_ms: Vec<f64>,
    /// Elapsed seconds from the first send to the last response.
    elapsed_s: f64,
    /// Send lateness against the schedule in ms (open loop only).
    late_ms: Vec<f64>,
    in_flight_max: usize,
    /// Frames answered as expected.
    ok: usize,
    /// Problems found while matching responses to frames.
    problems: Vec<String>,
    digest: String,
    /// `(start, response)` instants of each frame, for spans.
    times: Vec<(Instant, Instant)>,
}

/// The daemon child process.
struct Daemon {
    child: Child,
    addr: String,
    drain: Option<std::thread::JoinHandle<()>>,
}

extern "C" {
    /// libc `kill(2)`, always linked by std.
    fn kill(pid: i32, sig: i32) -> i32;
    /// libc `sysconf(3)`.
    fn sysconf(name: i32) -> i64;
}
const SIGTERM: i32 = 15;
const SC_CLK_TCK: i32 = 2;

fn daemon_exe() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Ok(exe.with_file_name("mbm-serve"))
}

impl Daemon {
    fn spawn(obs: bool) -> Result<Daemon, String> {
        let exe = daemon_exe()?;
        let mut cmd = Command::new(&exe);
        // A queue deep enough that open-loop bursts wait instead of being
        // shed: the backlog shows up as latency, which is what is measured.
        cmd.args(["--addr", "127.0.0.1:0", "--workers", &nproc().to_string(), "--queue", "4096"]);
        cmd.args(["--max-deadline-ms", "600000"]);
        if obs {
            cmd.arg("--obs");
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut lines = BufReader::new(stderr).lines();
        let mut addr = None;
        for line in lines.by_ref() {
            let Ok(line) = line else { break };
            if let Some(rest) = line.strip_prefix("mbm-serve: listening on ") {
                addr = rest.split_whitespace().next().map(String::from);
                break;
            }
        }
        // Keep draining so the daemon never blocks on a full stderr pipe.
        let drain = std::thread::spawn(move || for _ in lines {});
        let mut d = Daemon { child, addr: String::new(), drain: Some(drain) };
        match addr {
            Some(a) => {
                d.addr = a;
                Ok(d)
            }
            None => Err("mbm-serve exited before listening".into()),
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `utime + stime` of the daemon in ms.
    fn cpu_ms(&self) -> f64 {
        // SAFETY: sysconf has no preconditions.
        let tck = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
        std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .ok()
            .and_then(|s| {
                // Fields after the parenthesised command name; utime and
                // stime are fields 14 and 15 of the whole line.
                let rest = s.rsplit_once(')')?.1;
                let f: Vec<&str> = rest.split_whitespace().collect();
                Some(f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?)
            })
            .map_or(f64::NAN, |ticks| ticks * 1e3 / tck)
    }

    /// SIGTERM (graceful drain), then wait; SIGKILL if it does not exit.
    fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Ok(pid) = i32::try_from(self.child.id()) else { return Err("pid out of range".into()) };
        // SAFETY: signalling our own child, which has not been waited on.
        unsafe { kill(pid, SIGTERM) };
        let start = Instant::now();
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if start.elapsed() < Duration::from_secs(10) => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break None;
                }
            }
        };
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
        match status {
            Some(s) if s.success() => Ok(()),
            Some(s) => Err(format!("mbm-serve exited with {s}")),
            None => Err("mbm-serve did not drain within 10 s and was killed".into()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.drain.is_some() {
            let _ = self.shutdown();
        }
    }
}

/// One keep-alive connection to the daemon.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(STALL)).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { stream, reader })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.stream.write_all(&buf).map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("no response within {STALL:?} (stall): {e}")),
        }
    }

    /// The daemon's `health` document.
    fn health(&mut self) -> Result<Value, String> {
        self.send(r#"{"id":999999999,"verb":"health"}"#)?;
        let line = self.recv()?;
        serde_json::from_str::<Value>(&line)
            .ok()
            .and_then(|v| v.get("health").cloned())
            .ok_or_else(|| format!("health: unexpected response {line}"))
    }
}

/// `(id, status, error kind)` of a response line; `None` when untyped.
fn classify(line: &str) -> Option<(Option<u64>, String, Option<String>)> {
    let v: Value = serde_json::from_str(line).ok()?;
    let id = match v.get("id")? {
        Value::U64(id) => Some(*id),
        Value::Null => None,
        _ => return None,
    };
    let status = match v.get("status")? {
        Value::Str(s) => s.clone(),
        _ => return None,
    };
    let kind = match v.get("error").and_then(|e| e.get("kind")) {
        Some(Value::Str(k)) => Some(k.clone()),
        _ => None,
    };
    Some((id, status, kind))
}

/// Matches responses to frames: every frame answered exactly once, with a
/// converged solve or its expected typed error. Frames whose id the daemon
/// cannot recover are answered with a null id, in arrival order.
fn settle(
    f: &Frames,
    responses: &[(Instant, String)],
    start: &[Instant],
    elapsed_s: f64,
    late_ms: Vec<f64>,
    in_flight_max: usize,
) -> PhaseResult {
    let by_id: HashMap<u64, usize> =
        f.ids.iter().enumerate().filter_map(|(i, id)| id.map(|id| (id, i))).collect();
    let mut anonymous = f.ids.iter().enumerate().filter(|(_, id)| id.is_none()).map(|(i, _)| i);
    let mut answered = vec![false; f.lines.len()];
    let mut lat = vec![f64::NAN; f.lines.len()];
    let mut times = vec![(start[0], start[0]); f.lines.len()];
    let (mut ok, mut problems) = (0, Vec::new());
    for (at, line) in responses {
        let Some((id, status, kind)) = classify(line) else {
            problems.push(format!("untyped response: {line}"));
            continue;
        };
        let idx = match id {
            Some(id) => by_id.get(&id).copied(),
            None => anonymous.next(),
        };
        let Some(i) = idx else {
            problems.push(format!("response to no frame: {line}"));
            continue;
        };
        if std::mem::replace(&mut answered[i], true) {
            problems.push(format!("frame {i} answered twice"));
            continue;
        }
        lat[i] = at.saturating_duration_since(start[i]).as_secs_f64() * 1e3;
        times[i] = (start[i], *at);
        let good = match f.expect[i] {
            None => status == "Converged",
            Some(want) => status == "Error" && kind.as_deref() == Some(want),
        };
        if good {
            ok += 1;
        } else if problems.len() < 8 {
            problems.push(format!(
                "frame {i} expected {:?}, got {line}",
                f.expect[i].unwrap_or("Converged")
            ));
        }
    }
    let missing = answered.iter().filter(|a| !**a).count();
    if missing > 0 {
        problems.push(format!("{missing} frame(s) unanswered"));
    }
    let mut sorted: Vec<&str> = responses.iter().map(|(_, l)| l.as_str()).collect();
    sorted.sort_unstable();
    let mut h = Fnv::default();
    for l in sorted {
        h.bytes(l.as_bytes());
        h.bytes(b"\n");
    }
    PhaseResult {
        lat_ms: lat,
        elapsed_s,
        late_ms,
        in_flight_max,
        ok,
        problems,
        digest: h.hex(),
        times,
    }
}

/// Every response line of a phase with its arrival instant, or why the
/// phase stopped.
type Responses = Result<Vec<(Instant, String)>, String>;

/// Open-loop phase: Poisson arrivals at `rate`, sent on schedule whatever
/// the replies; each frame is timed from its due time.
fn open_loop(conn: &mut Conn, f: &Frames, rate: f64, seed: u64) -> Result<PhaseResult, String> {
    let n = f.lines.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut offsets = Vec::with_capacity(n);
    let mut t = 0.0f64;
    for _ in 0..n {
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        offsets.push(Duration::from_secs_f64(t));
    }
    let received = Arc::new(AtomicUsize::new(0));
    let sent = Arc::new(AtomicUsize::new(0));
    let failed = Arc::new(AtomicBool::new(false));
    let mut reader = std::mem::replace(
        &mut conn.reader,
        BufReader::new(conn.stream.try_clone().map_err(|e| e.to_string())?),
    );
    let (rx_received, rx_failed) = (Arc::clone(&received), Arc::clone(&failed));
    let handle = std::thread::spawn(move || -> (BufReader<TcpStream>, Responses) {
        let mut out = Vec::with_capacity(n);
        let mut line = String::new();
        while out.len() < n {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => return (reader, Err("daemon closed the connection".into())),
                Ok(_) => {
                    out.push((Instant::now(), line.trim_end().to_string()));
                    rx_received.store(out.len(), Ordering::Release);
                }
                Err(e) => {
                    rx_failed.store(true, Ordering::Release);
                    return (reader, Err(format!("stalled with {}/{n} responses: {e}", out.len())));
                }
            }
        }
        (reader, Ok(out))
    });
    let t0 = Instant::now() + Duration::from_millis(2);
    let mut due = Vec::with_capacity(n);
    let mut late_ms = Vec::with_capacity(n);
    let mut in_flight_max = 0;
    let mut send_err = None;
    for (i, off) in offsets.iter().enumerate() {
        let at = t0 + *off;
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        if failed.load(Ordering::Acquire) {
            break;
        }
        let sent_at = Instant::now();
        if let Err(e) = conn.send(&f.lines[i]) {
            send_err = Some(e);
            break;
        }
        due.push(at);
        late_ms.push(sent_at.saturating_duration_since(at).as_secs_f64() * 1e3);
        let s = sent.fetch_add(1, Ordering::AcqRel) + 1;
        in_flight_max = in_flight_max.max(s - received.load(Ordering::Acquire));
    }
    if send_err.is_some() || due.len() < n {
        // Unblock the reader: nothing more is coming.
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
    }
    let (reader, responses) = handle.join().map_err(|_| "reader thread panicked".to_string())?;
    conn.reader = reader;
    if let Some(e) = send_err {
        return Err(e);
    }
    let responses = responses?;
    let elapsed_s =
        responses.last().map_or(0.0, |(at, _)| at.saturating_duration_since(t0).as_secs_f64());
    Ok(settle(f, &responses, &due, elapsed_s, late_ms, in_flight_max))
}

/// Closed-loop phase: at most [`window`] frames in flight; each frame is
/// timed from its send.
fn closed_loop(conn: &mut Conn, f: &Frames) -> Result<PhaseResult, String> {
    let n = f.lines.len();
    let mut start = Vec::with_capacity(n);
    let mut responses = Vec::with_capacity(n);
    let window = window();
    let t0 = Instant::now();
    let mut next = 0;
    while responses.len() < n {
        while next < n && next - responses.len() < window {
            start.push(Instant::now());
            conn.send(&f.lines[next])?;
            next += 1;
        }
        let line = conn.recv()?;
        responses.push((Instant::now(), line));
    }
    let elapsed_s = t0.elapsed().as_secs_f64();
    Ok(settle(f, &responses, &start, elapsed_s, Vec::new(), window))
}

fn counter(health: &Value, section: &[&str], name: &str) -> u64 {
    let mut v = health;
    for s in section {
        match v.get(s) {
            Some(x) => v = x,
            None => return 0,
        }
    }
    match v.get(name) {
        Some(Value::U64(n)) => *n,
        _ => 0,
    }
}

/// The set-up of one daemon: spawn, connect, warm up.
fn start(obs: bool, mix_seed: u64) -> Result<(Daemon, Conn), String> {
    let daemon = Daemon::spawn(obs)?;
    let mut conn = Conn::open(&daemon.addr)?;
    let warm = frames(mix_seed.wrapping_add(99), WARMUP_FRAMES, 0);
    let r = closed_loop(&mut conn, &warm)?;
    if !r.problems.is_empty() {
        return Err(format!("warm-up: {}", r.problems.join("; ")));
    }
    Ok((daemon, conn))
}

const PHASES: [&str; 3] = ["light", "heavy", "closed"];
/// Phases of one pass, as indices into [`PHASES`]: the gated closed-loop
/// phase runs after each open-loop phase, so its samples are spread over
/// the whole run.
const PASS: [usize; 4] = [0, 2, 1, 2];

pub fn run(args: &Args, reference: &Reference) -> Outcome {
    let mut out = Outcome::default();
    let mix_seed = reference.need("serve_open.mix_seed") as u64;
    let rates = [reference.need("serve_open.light_rps"), reference.need("serve_open.heavy_rps")];

    // Set-up, repeated: frames for every phase, then a daemon spawned,
    // connected and warmed up. Only the last daemon is kept.
    let mut setup_s = Vec::new();
    let mut kept = None;
    for rep in 0..crate::setup_reps("serve_open") {
        let t = Instant::now();
        let phase_frames: Vec<Frames> = (0..3)
            .map(|p| {
                let count = if p < 2 {
                    (rates[p] * OPEN_PHASE_SECONDS[p]).round() as usize
                } else {
                    CLOSED_FRAMES
                };
                frames(
                    mix_seed + p as u64,
                    count,
                    args.seed.wrapping_mul(31).wrapping_add(p as u64),
                )
            })
            .collect();
        let started = start(args.traced, mix_seed);
        setup_s.push(t.elapsed().as_secs_f64());
        match started {
            Ok((daemon, conn)) => {
                if let Some((old, _, _)) = kept.replace((daemon, conn, phase_frames)) {
                    let old: Daemon = old;
                    if let Err(e) = old.stop() {
                        out.check(false, || format!("set-up {rep}: {e}"));
                    }
                }
            }
            Err(e) => {
                out.check(false, || format!("set-up: {e}"));
                return out;
            }
        }
    }
    let (daemon, mut conn, phase_frames) = kept.expect("at least one set-up");

    // Traced runs first measure saturation on an untraced daemon, the base
    // of the overhead ratio.
    let mut untraced_rps = Vec::new();
    if args.traced {
        match start(false, mix_seed) {
            Ok((plain, mut c)) => {
                let t = Instant::now();
                while untraced_rps.len() < 2 || t.elapsed().as_secs_f64() < args.seconds / 3.0 {
                    match closed_loop(&mut c, &phase_frames[2]) {
                        Ok(r) => {
                            untraced_rps.push(phase_frames[2].lines.len() as f64 / r.elapsed_s)
                        }
                        Err(e) => {
                            out.check(false, || format!("untraced saturation: {e}"));
                            break;
                        }
                    }
                }
                drop(c);
                if let Err(e) = plain.stop() {
                    out.check(false, || e);
                }
            }
            Err(e) => out.check(false, || format!("untraced daemon: {e}")),
        }
    }

    let mut lat: [Vec<f64>; 3] = Default::default();
    let mut closed_by_phase: Vec<Vec<f64>> = Vec::new();
    let mut by_class: HashMap<(usize, Class), Vec<f64>> = HashMap::new();
    let (mut late_ms, mut in_flight_max) = (Vec::new(), 0usize);
    let mut closed_s = Vec::new();
    let mut digests: [Vec<String>; 3] = Default::default();
    let mut sheds = (0u64, 0u64);
    let mut completed = 0u64;
    let mut health = Value::Null;
    let budget = if args.traced { args.seconds * 2.0 / 3.0 } else { args.seconds };
    let cpu0 = daemon.cpu_ms();
    let completed0 = conn.health().map_or(0, |h| counter(&h, &["counters"], "completed"));
    let mut frames_sent = 0usize;
    let mut passes = 0usize;
    crate::repeat_for(budget, 1, |pass| {
        passes += 1;
        for p in PASS {
            let name = PHASES[p];
            let f = &phase_frames[p];
            let phase_span = trace::span(
                match p {
                    0 => "serve.phase.light",
                    1 => "serve.phase.heavy",
                    _ => "serve.phase.closed",
                },
                pass as u64,
            );
            let r = if p < 2 {
                open_loop(
                    &mut conn,
                    f,
                    rates[p],
                    args.seed ^ ((pass * 3 + p) as u64).wrapping_mul(0x9E37_79B9),
                )
            } else {
                closed_loop(&mut conn, f)
            };
            let parent = phase_span.as_ref().map(trace::Guard::id);
            drop(phase_span);
            out.attempted += f.lines.len() as u64;
            frames_sent += f.lines.len();
            let r = match r {
                Ok(r) => r,
                Err(e) => {
                    out.failed += f.lines.len() as u64;
                    out.check(false, || format!("pass {pass} {name}: {e}"));
                    return false;
                }
            };
            out.failed += (f.lines.len() - r.ok) as u64;
            for problem in &r.problems {
                out.check(false, || format!("pass {pass} {name}: {problem}"));
            }
            for (i, (due, at)) in r.times.iter().enumerate() {
                trace::record("serve.request", parent, f.ids[i].unwrap_or(0), *due, *at);
            }
            for (i, &ms) in r.lat_ms.iter().enumerate() {
                by_class.entry((p, f.class[i])).or_default().push(ms);
            }
            lat[p].extend_from_slice(&r.lat_ms);
            if p == 2 {
                closed_by_phase.push(r.lat_ms.clone());
            }
            late_ms.extend_from_slice(&r.late_ms);
            if p < 2 {
                in_flight_max = in_flight_max.max(r.in_flight_max);
            } else {
                closed_s.push(r.elapsed_s);
            }
            digests[p].push(r.digest);
            match conn.health() {
                Ok(h) => {
                    let shed = (
                        counter(&h, &["counters"], "shed_overload"),
                        counter(&h, &["counters"], "shed_deadline"),
                    );
                    out.check(shed == sheds, || {
                        format!("pass {pass} {name}: daemon shed frames: {shed:?}")
                    });
                    sheds = shed;
                    completed = counter(&h, &["counters"], "completed");
                    health = h;
                }
                Err(e) => {
                    out.check(false, || format!("pass {pass} {name}: {e}"));
                    return false;
                }
            }
        }
        true
    });
    let cpu_ms = daemon.cpu_ms() - cpu0;
    let rss = crate::peak_rss_mb(Some(daemon.pid()));
    drop(conn);
    if let Err(e) = daemon.stop() {
        out.check(false, || e);
    }

    for (p, name) in PHASES.iter().enumerate() {
        if let Some(first) = digests[p].first() {
            out.check(digests[p].iter().all(|d| d == first), || {
                format!("{name}: response multisets differ across passes")
            });
            check_digest(&mut out, reference, &format!("serve_open.digests.{name}"), first);
        }
    }
    let rps: Vec<f64> = closed_s.iter().map(|s| CLOSED_FRAMES as f64 / s).collect();
    let lat_summary = |v: &[f64]| stats::Summary::of(v);
    if let (Some(light), Some(heavy)) = (lat_summary(&lat[0]), lat_summary(&lat[1])) {
        out.info("lat_p50_ms.light", light.p50, "ms", format!("n={}", light.n));
        out.info(
            "lat_p99_ms.light",
            light.tail,
            "ms",
            format!("{}, n={}", light.tail_label(), light.n),
        );
        out.info("lat_p50_ms.heavy", heavy.p50, "ms", format!("n={}", heavy.n));
        out.info(
            "lat_p99_ms.heavy",
            heavy.tail,
            "ms",
            format!("{}, n={}", heavy.tail_label(), heavy.n),
        );
    }
    out.info(
        "saturation_rps",
        stats::median(&rps),
        "1/s",
        format!("median of {} closed-loop phases, window {}", rps.len(), window()),
    );
    out.info("light_rps", rates[0], "1/s", "fixed open-loop rate");
    out.info("heavy_rps", rates[1], "1/s", "fixed open-loop rate");
    if let Some(l) = stats::Summary::of(&late_ms) {
        out.info("loadgen.late_ms_p99", l.tail, "ms", format!("{}, n={}", l.tail_label(), l.n));
    }
    out.info("loadgen.in_flight_max", in_flight_max as f64, "count", "open-loop phases");

    if args.traced {
        let obs_counters: std::collections::BTreeMap<String, u64> = health
            .get("obs")
            .and_then(|o| o.get("counters"))
            .and_then(Value::as_map)
            .map(|m| {
                m.iter()
                    .filter_map(
                        |(k, v)| if let Value::U64(n) = v { Some((k.clone(), *n)) } else { None },
                    )
                    .collect()
            })
            .unwrap_or_default();
        let passes = passes.max(1);
        layers::push_counters(&mut out, &obs_counters, passes);
        if let Some(l) = lat_summary(&lat[0]) {
            out.layer("serve.lat_p50_ms.light", l.p50, format!("n={}", l.n));
            out.layer("serve.lat_p99_ms.light", l.tail, format!("{}, n={}", l.tail_label(), l.n));
        }
        out.layer(
            "serve.saturation_rps",
            stats::median(&rps),
            format!("median of {} closed-loop phases", rps.len()),
        );
        for (p, name) in PHASES.iter().enumerate() {
            for class in [Class::Small, Class::Aggregate, Class::Poison] {
                if let Some(s) = by_class.get(&(p, class)).and_then(|v| stats::Summary::of(v)) {
                    out.layer(
                        &format!("serve.lat_p99_ms.{}.{name}", class.name()),
                        s.tail,
                        format!("{}, n={}", s.tail_label(), s.n),
                    );
                }
            }
        }
        let mut parse_us = Vec::new();
        for f in &phase_frames {
            for line in &f.lines {
                let t = Instant::now();
                let r = parse_request(std::hint::black_box(line));
                parse_us.push(t.elapsed().as_secs_f64() * 1e6);
                std::hint::black_box(r.is_ok());
            }
        }
        out.layer(
            "serve.parse_us_p50",
            stats::median(&parse_us),
            format!("protocol::parse_request, n={}", parse_us.len()),
        );
        out.layer(
            "serve.cpu_ms_per_kreq",
            cpu_ms / frames_sent as f64 * 1e3,
            format!("daemon utime+stime over {frames_sent} frames"),
        );
        out.layer("serve.shed_overload", sheds.0 as f64, "health counters");
        out.layer("serve.shed_deadline", sheds.1 as f64, "health counters");
        let per_pass = (completed - completed0) as f64 / passes as f64;
        out.layer("serve.completed", per_pass, "solve jobs per pass, health counters");
        if let Some(l) = stats::Summary::of(&late_ms) {
            out.layer("loadgen.late_ms_p99", l.tail, format!("{}, n={}", l.tail_label(), l.n));
        }
        out.layer("loadgen.in_flight_max", in_flight_max as f64, "open-loop phases");
        out.layer(
            "obs.overhead_ratio.serve_open",
            stats::median(&untraced_rps) / stats::median(&rps),
            format!(
                "untraced / traced saturation_rps, {} vs {} phases",
                untraced_rps.len(),
                rps.len()
            ),
        );
    } else {
        setup_metric(&mut out, &setup_s, "frames, daemon spawn and connect, warm-up");
        out.e2e(
            "wall_s",
            stats::median(&closed_s),
            format!("median closed-loop phase of {CLOSED_FRAMES} frames, n={}", closed_s.len()),
        );
        // Gated latency comes from the closed-loop phase: it tracks the
        // daemon's speed one for one, while open-loop latency also carries
        // queueing and the sender's lateness, which amplified host slowdowns
        // into run-to-run spreads above any allowed bound. The open-loop
        // numbers are printed above and in the traced run.
        out.latency(&closed_by_phase, "closed-loop frame");
        out.e2e("peak_rss_mb", rss, "VmHWM of the daemon child");
    }
    out
}
