//! Socket-to-socket benchmark of `hetsel-serve`.
//!
//! ```text
//! hetsel-perfbench --server PATH --workload launch|stream|sweep \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` starts the real binary, drives it over loopback TCP with
//! newline-JSON, checks every reply off the clock and prints the
//! end-to-end metrics. `--trace 1` is the separate traced run: it starts
//! the server in process, records spans around the calls into each layer
//! and prints the per-layer metrics and a stage table. The last line of
//! standard output is the result object; everything before it is the
//! human-readable report. See `perfbench/README.md`.

mod check;
mod client;
mod gen;
mod server;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hetsel_core::{Platform, Selector};
use hetsel_serve::ServeConfig;

use check::{Census, Outcome};
use client::{Ladder, Log, StepLog};
use gen::{Req, Suite, Workload};
use server::ServerProc;
use stats::Summary;

/// The selector the `hetsel-serve` binary builds.
pub fn selector() -> Selector {
    Selector::new(Platform::power9_v100())
}

/// Servers started per run to time set-up; the median is reported.
const SETUP_REPEATS: usize = 15;
/// p99 limit from due time for a `stream` step to meet the latency target.
const LATENCY_LIMIT: Duration = Duration::from_millis(1);
/// The `stream` rate ladder, requests per second.
const LADDER: [f64; 6] = [1000.0, 2000.0, 4000.0, 8000.0, 16000.0, 32000.0];
/// Threads the off-clock checks use (the host is assumed to have two cores).
const CHECK_THREADS: usize = 2;
/// Where runs write their snapshot file, spans and full reports.
const OUT_DIR: &str = ".bench_out";

pub struct Args {
    pub server: PathBuf,
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value)),
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One metric of the result object.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Host and build facts every result carries.
pub fn provenance(args: &Args) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let config = ServeConfig::default();
    let ladder: Vec<String> = LADDER.iter().map(|r| format!("{r}")).collect();
    format!(
        "{{\"cores\":{cores},\"profile\":\"{profile}\",\"rustc\":{:?},\"git_rev\":{:?},\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"serve_config\":{{\"queue_capacity\":{},\"max_batch\":{},\"window_us\":{}}},\"ladder_rps\":[{}],\"latency_limit_us\":{}}}",
        env("PERFBENCH_RUSTC"),
        env("PERFBENCH_GIT_REV"),
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        config.queue_capacity,
        config.max_batch,
        config.window.as_micros(),
        ladder.join(","),
        LATENCY_LIMIT.as_micros()
    )
}

fn out_dir() -> PathBuf {
    let dir = PathBuf::from(OUT_DIR);
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// The request the set-up probe sends: the most popular hot input.
fn setup_probe(suite: &Suite) -> Req {
    let (region, binding) = suite.hot(0);
    Req {
        id: 1 << 60,
        region,
        binding: binding.clone(),
    }
}

/// Server arguments for `workload`, and the snapshot file to remove
/// afterwards. `launch` warm-starts from a snapshot that an untimed first
/// server writes.
fn server_args(args: &Args, suite: &Suite) -> Result<(Vec<String>, Option<PathBuf>), String> {
    if args.workload != Workload::Launch {
        return Ok((Vec::new(), None));
    }
    let path = out_dir().join(format!("launch-{}.hsnp", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let extra = vec!["--snapshot".to_string(), path.display().to_string()];
    let (mut primer, _) = ServerProc::spawn_timed(&args.server, &extra, suite, &setup_probe(suite))
        .map_err(|e| format!("priming the snapshot: {e}"))?;
    primer.stop();
    if !path.exists() {
        return Err("the priming server wrote no snapshot".into());
    }
    Ok((extra, Some(path)))
}

/// Starts [`SETUP_REPEATS`] servers one after another, timing each set-up,
/// and keeps the last one running.
fn start_servers(
    args: &Args,
    suite: &Suite,
    extra: &[String],
) -> Result<(ServerProc, Vec<f64>), String> {
    let mut setups = Vec::new();
    let probe = setup_probe(suite);
    loop {
        let (server, setup) = ServerProc::spawn_timed(&args.server, extra, suite, &probe)
            .map_err(|e| format!("starting {}: {e}", args.server.display()))?;
        setups.push(setup.as_secs_f64());
        if setups.len() == SETUP_REPEATS {
            return Ok((server, setups));
        }
    }
}

/// Asks each hot input once, pipelined on a fresh connection, so every
/// workload can score the server's decisions on the hot mix.
fn probe_hot(addr: std::net::SocketAddr, suite: &Suite) -> std::io::Result<Log> {
    let mut conn = client::Conn::connect(addr)?;
    let mut log = Log::default();
    let mut batch = String::new();
    for i in 0..suite.hot_count() {
        let (region, binding) = suite.hot(i);
        let req = Req {
            id: (1 << 61) + i as u64,
            region,
            binding: binding.clone(),
        };
        batch.push_str(&gen::render(suite, &req));
        batch.push('\n');
        log.reqs.push(req);
    }
    let replies = conn.pipeline(&batch, suite.hot_count())?;
    for reply in replies {
        log.text.push_str(&reply);
        log.ends.push(log.text.len());
    }
    Ok(log)
}

/// Per-step accounting of the open loop.
struct StepResult {
    log: StepLog,
    census: Census,
    latency: Summary,
    lag: Summary,
    achieved_rps: f64,
    /// Kept up: no failure, generator on time, no backlog growth.
    sustained: bool,
    /// Sustained, and p99 from due time within [`LATENCY_LIMIT`].
    within_limit: bool,
}

/// The latency sample of request `i`: from sending (closed loop) or from
/// its due time (open loop) to its reply. A request without an `ok`
/// reply waited, as far as the client knows, until the end of the run.
fn latency_us(log: &Log, i: usize, outcome: &Outcome, open: bool, end: Instant) -> f64 {
    let from = if open { log.due[i] } else { log.sent[i] };
    let to = match outcome {
        Outcome::Ok { .. } => log.recv[i],
        _ => end.max(from),
    };
    (to - from).as_secs_f64() * 1e6
}

fn run_timed(args: &Args) -> Result<(bool, Census, Vec<Metric>), String> {
    let suite = Suite::polybench();
    let (extra, snapshot) = server_args(args, &suite)?;
    let started = start_servers(args, &suite, &extra);
    if let Some(path) = snapshot {
        // Every server of the run has loaded it by now.
        let _ = std::fs::remove_file(path);
    }
    let (mut server, setups) = started?;
    let ladder = ladder(args.seconds);
    let (logs, steps) = client::drive(
        server.addr,
        &suite,
        args.workload,
        args.seed,
        args.seconds,
        &ladder,
    )
    .map_err(|e| format!("connecting to the server: {e}"))?;
    let end = Instant::now();
    let probe = probe_hot(server.addr, &suite).map_err(|e| format!("hot-mix probe: {e}"))?;
    let rss = server.peak_rss_mib().ok_or("no VmHWM for the server")?;
    server.stop();

    let refs: Vec<&Log> = logs.iter().collect();
    let outcomes = check::check_all(&suite, &refs, CHECK_THREADS);
    let probe_outcomes = check::check_all(&suite, &[&probe], 1).remove(0);
    let mut census = Census::default();
    for o in outcomes.iter().flatten() {
        census.add(o);
    }
    let mut probe_census = Census::default();
    let mut chosen = vec![None; suite.hot_count()];
    for (i, o) in probe_outcomes.iter().enumerate() {
        probe_census.add(o);
        if let Outcome::Ok { device } = o {
            chosen[i] = Some(device.clone());
        }
    }
    let regret = check::hot_regret_pct(&suite, &chosen, CHECK_THREADS);
    let correct =
        census.mismatched == 0 && probe_census.mismatched == 0 && probe_census.failed() == 0;

    let open = args.workload == Workload::Stream;
    let sample =
        |log: &Log, os: &[Outcome], range: std::ops::Range<usize>| -> (Vec<f64>, Vec<f64>) {
            range
                .map(|i| {
                    (
                        latency_us(log, i, &os[i], open, end),
                        (log.sent[i] - log.due[i]).as_secs_f64() * 1e6,
                    )
                })
                .unzip()
        };
    let mut report = Vec::new();
    let (latency, lag, throughput, max_rate) = if open {
        let (log, os) = (&logs[0], &outcomes[0]);
        let results: Vec<StepResult> = steps
            .iter()
            .map(|s| step_result(s, log, os, &ladder, sample(log, os, s.first..s.end)))
            .collect();
        for r in &results {
            report.push(format!(
                "step {:>6} req/s: achieved {:>9.1} ok/s, p50 {:>9.1} us, p{} {:>9.1} us (n={}), gen lag p50/p{} {:.1}/{:.1} us, backlog {:.1} -> {:.1}, {}{} | {}",
                r.log.rate,
                r.achieved_rps,
                r.latency.p50,
                r.latency.tail_p,
                r.latency.tail,
                r.latency.n,
                r.lag.tail_p,
                r.lag.p50,
                r.lag.tail,
                r.log.backlog_first,
                r.log.backlog_last,
                if r.sustained { "sustained" } else { "NOT sustained" },
                if r.within_limit { ", within limit" } else { "" },
                r.census.to_json()
            ));
        }
        let lowest = results.first().ok_or("the ladder ran no step")?;
        let best = |keep: fn(&StepResult) -> bool| {
            results
                .iter()
                .filter(|r| keep(r))
                .map(|r| r.achieved_rps)
                .fold(0.0, f64::max)
        };
        let max_rate = best(|r| r.sustained);
        report.push(format!(
            "max_rate_rps {max_rate:.1} (highest sustained step); highest step also within the {} us p99 limit: {:.1} req/s",
            LATENCY_LIMIT.as_micros(),
            best(|r| r.within_limit)
        ));
        let span = span_secs(log);
        (
            lowest.latency,
            lowest.lag,
            census.ok as f64 / span,
            Some(max_rate),
        )
    } else {
        let (mut lat, mut lag) = (Vec::new(), Vec::new());
        // One-second windows from the first request: each request's latency
        // falls in the window it was sent in, each `ok` reply in the window
        // it was read in. Only windows the run covered whole count.
        let start = logs
            .iter()
            .filter_map(|l| l.sent.first())
            .min()
            .copied()
            .ok_or("no request was sent")?;
        let span = logs.iter().map(span_secs).fold(0.0, f64::max);
        let mut windows = vec![Vec::new(); span as usize];
        let mut replies = vec![0u64; span as usize];
        let window = |t: Instant| t.saturating_duration_since(start).as_secs() as usize;
        for (log, os) in logs.iter().zip(&outcomes) {
            let (l, g) = sample(log, os, 0..log.reqs.len());
            for (i, x) in l.iter().enumerate() {
                if let Some(w) = windows.get_mut(window(log.sent[i])) {
                    w.push(*x);
                }
                if matches!(os[i], Outcome::Ok { .. }) {
                    if let Some(n) = replies.get_mut(window(log.recv[i])) {
                        *n += 1;
                    }
                }
            }
            lat.extend(l);
            lag.extend(g);
        }
        let mut latency = stats::summarize(&mut lat);
        if let Some((tail, level)) = stats::windowed_tail(&mut windows) {
            latency.tail = tail;
            latency.tail_p = level;
        }
        // Per-window counts only when each is large enough to vary.
        let throughput = if replies.len() >= stats::MIN_WINDOWS
            && replies.iter().all(|&n| n as usize >= stats::WINDOW_MIN)
        {
            stats::median(&replies.iter().map(|&n| n as f64).collect::<Vec<_>>())
        } else {
            census.ok as f64 / span
        };
        (latency, stats::summarize(&mut lag), throughput, None)
    };
    for (c, log) in logs.iter().enumerate() {
        if let Some(e) = &log.io_error {
            report.push(format!("connection {c}: transport error: {e}"));
        }
    }
    for o in outcomes.iter().flatten().chain(&probe_outcomes) {
        if let Outcome::Mismatch(m) = o {
            report.push(format!("MISMATCH {m}"));
            break;
        }
    }
    let setup = stats::median(&setups);
    report.push(format!(
        "setup_s runs: {:?}; latency n={} p50 {:.1} us p{} {:.1} us; client gen lag p50 {:.1} us p{} {:.1} us",
        setups, latency.n, latency.p50, latency.tail_p, latency.tail, lag.p50, lag.tail_p, lag.tail
    ));
    report.push(format!(
        "requests: {}; hot-mix probe: {}; error_pct {:.4} %",
        census.to_json(),
        probe_census.to_json(),
        census.error_pct()
    ));
    for line in &report {
        println!("# {line}");
    }
    let mut metrics = vec![
        metric("setup_s", setup, "s"),
        metric("p50_us", latency.p50, "us"),
        metric("p99_us", latency.tail, "us"),
        metric("throughput_rps", throughput, "req/s"),
        metric("ok_pct", 100.0 - census.error_pct(), "%"),
        metric("regret_pct", regret, "%"),
        metric("peak_rss_mb", rss, "MiB"),
    ];
    // Only the open loop can build a backlog, so only it has a maximum
    // sustained rate.
    if let Some(max_rate) = max_rate {
        metrics.push(metric("max_rate_rps", max_rate, "req/s"));
    }
    let _ = std::fs::write(
        out_dir().join(format!("{}-{}-trace0.txt", args.workload.name(), args.seed)),
        report.join("\n"),
    );
    Ok((correct, census, metrics))
}

/// Seconds from the first request written to the last reply read.
fn span_secs(log: &Log) -> f64 {
    match (log.sent.first(), log.recv.last()) {
        (Some(a), Some(b)) if b > a => (*b - *a).as_secs_f64(),
        _ => f64::MIN_POSITIVE,
    }
}

fn step_result(
    s: &StepLog,
    log: &Log,
    os: &[Outcome],
    ladder: &Ladder,
    (mut lat, mut lag): (Vec<f64>, Vec<f64>),
) -> StepResult {
    let mut census = Census::default();
    for o in &os[s.first..s.end] {
        census.add(o);
    }
    let latency = stats::summarize(&mut lat);
    let lag = stats::summarize(&mut lag);
    // Replies to the step's requests per second, from the step's first due
    // time to the last of those replies.
    let achieved_rps = match (
        log.due.get(s.first),
        log.recv.get(s.first..s.end.min(log.recv.len())),
    ) {
        (Some(start), Some(recv)) if !recv.is_empty() => {
            let last = recv.iter().max().expect("non-empty");
            census.ok as f64
                / last
                    .saturating_duration_since(*start)
                    .as_secs_f64()
                    .max(1e-9)
        }
        _ => 0.0,
    };
    let behind = lag.p50 > ladder.max_gen_lag.as_secs_f64() * 1e6;
    let sustained = census.failed() == 0 && !behind && !s.backlog_grew() && latency.n > 0;
    StepResult {
        log: s.clone(),
        census,
        latency,
        lag,
        achieved_rps,
        sustained,
        within_limit: sustained && latency.tail <= LATENCY_LIMIT.as_secs_f64() * 1e6,
    }
}

/// The ladder for a run of `seconds`: every rate gets an equal share.
pub fn ladder(seconds: f64) -> Ladder {
    let step = Duration::from_secs_f64(seconds / LADDER.len() as f64);
    Ladder {
        steps: LADDER.iter().map(|&rate| (rate, step)).collect(),
        max_gen_lag: LATENCY_LIMIT,
    }
}

/// Renders the result object: the last line of standard output.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hetsel-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !Path::new(&args.server).is_file() {
        eprintln!(
            "hetsel-perfbench: no server binary at {}",
            args.server.display()
        );
        return ExitCode::from(2);
    }
    println!("# provenance: {}", provenance(&args));
    let result = if args.trace {
        trace::run_traced(&args)
    } else {
        run_timed(&args)
    };
    match result {
        Ok((correct, census, metrics)) => {
            if metrics.iter().any(|m| !m.value.is_finite()) {
                eprintln!("hetsel-perfbench: a metric is not finite");
                return ExitCode::FAILURE;
            }
            println!(
                "{}",
                result_line(correct, census.attempted, census.failed(), &metrics)
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("hetsel-perfbench: a reply did not match its reference decision");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("hetsel-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
