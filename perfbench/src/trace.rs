//! The traced run: per-layer timings from outside the program.
//!
//! The server runs in this process, built the way the binary's `main`
//! builds it (`warm_engine` → `Dispatcher` → `DecisionServer::start`), so
//! the benchmark can read the program's own counters and call each layer's
//! public functions on the workload's inputs. Spans are recorded only by
//! this file, around those calls, kept in memory and written out at the
//! end. Passes, each on a fresh server or engine:
//!
//! 1. set-up layers, timed over the 24 kernels with the IPDA memo cleared;
//! 2. an untraced TCP pass through `serve_tcp`, for the tracing overhead;
//! 3. the traced TCP pass: the same accept loop, but each connection runs
//!    `serve_lines` over a reader and writer that stamp when a request
//!    line is consumed and when its reply is written, splitting each
//!    request into transport-in, server processing and transport-out;
//! 4. the traced pass's request lines again in process: parse, call and
//!    encode per request, without sockets;
//! 5. the same requests through `DecisionEngine::decide_batch` in windows
//!    of the observed mean batch, and through each region's compiled
//!    models.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Instant;

use hetsel_core::{
    AttributeDatabase, DecisionEngine, DecisionRequest, Dispatcher, DispatcherConfig,
    DEFAULT_DECISION_CACHE,
};
use hetsel_ir::Kernel;
use hetsel_models::{CompiledModel, CostModel};
use hetsel_serve::{
    parse_request_line, serve_lines, serve_tcp, warm_engine, DecisionServer, ServeConfig,
};

use crate::check::{self, Census, Outcome};
use crate::client::{self, Log, StepLog};
use crate::gen::{render, Suite, Workload};
use crate::stats::{self, Summary};
use crate::{metric, Args, Metric};

/// Repetitions of each set-up layer timing; the median is reported.
const SETUP_REPS: usize = 7;
/// Requests per connection the in-process, engine and model passes replay.
const REPLAY_CAP: usize = 20_000;
/// Requests per connection of the traced pass whose spans are kept.
const SPAN_CAP: usize = 20_000;

/// One span: a named interval, its parent span and the request it served.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    request: u64,
}

/// Spans of the whole run, in memory until the end.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Self time of every span, ns: its duration minus the part of it its
    /// children cover (children of one span never overlap here).
    fn self_ns(&self) -> Vec<f64> {
        let mut covered = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += dur_ns(s.start, s.end);
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| (dur_ns(s.start, s.end) - c).max(0.0))
            .collect()
    }

    /// Count and self-time summary (ns) per span name, in first-seen order.
    fn layers(&self) -> Vec<(&'static str, Summary)> {
        let selfs = self.self_ns();
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names
            .into_iter()
            .map(|name| {
                let mut v: Vec<f64> = self
                    .spans
                    .iter()
                    .zip(&selfs)
                    .filter(|(s, _)| s.name == name)
                    .map(|(_, ns)| *ns)
                    .collect();
                (name, stats::summarize(&mut v))
            })
            .collect()
    }

    fn write_jsonl(&self, path: &PathBuf) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name,
                ns(s.start),
                ns(s.end),
                s.request
            )?;
        }
        out.flush()
    }
}

fn dur_ns(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_nanos() as f64
}

/// A connection's reader as `serve_lines` sees it, stamping the moment
/// each request line is consumed.
struct StampedReader {
    inner: BufReader<TcpStream>,
    line_read: Vec<Instant>,
}

impl Read for StampedReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        let now = Instant::now();
        let lines = buf[..n].iter().filter(|&&b| b == b'\n').count();
        self.line_read.extend(std::iter::repeat_n(now, lines));
        Ok(n)
    }
}

impl BufRead for StampedReader {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        self.inner.fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        let lines = self.inner.buffer()[..amt]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        let now = Instant::now();
        self.line_read.extend(std::iter::repeat_n(now, lines));
        self.inner.consume(amt);
    }
}

/// A connection's writer as `serve_lines` sees it, stamping the first
/// write of each reply line.
struct StampedWriter {
    inner: TcpStream,
    at_line_start: bool,
    reply_write: Vec<Instant>,
}

impl Write for StampedWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.at_line_start {
            self.reply_write.push(Instant::now());
            self.at_line_start = false;
        }
        let n = self.inner.write(buf)?;
        if buf[..n].ends_with(b"\n") {
            self.at_line_start = true;
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Server-side stamps of one traced connection.
#[derive(Default)]
struct ServerStamps {
    line_read: Vec<Instant>,
    reply_write: Vec<Instant>,
}

/// The serve stack of the binary's `main`, in process.
fn start_server(suite: &Suite, snapshot: Option<&PathBuf>) -> DecisionServer {
    let kernels: Vec<Kernel> = suite.regions.iter().map(|r| r.kernel.clone()).collect();
    let (engine, _) = warm_engine(crate::selector(), &kernels, snapshot.map(PathBuf::as_path));
    DecisionServer::start(
        Dispatcher::new(engine, DispatcherConfig::default()),
        ServeConfig::default(),
    )
}

fn fresh_engine(suite: &Suite, snapshot: Option<&PathBuf>) -> DecisionEngine {
    let kernels: Vec<Kernel> = suite.regions.iter().map(|r| r.kernel.clone()).collect();
    warm_engine(crate::selector(), &kernels, snapshot.map(PathBuf::as_path)).0
}

/// Median over [`SETUP_REPS`] runs of `f`, in µs, with the IPDA memo
/// cleared before each; every run is recorded as a span named `name`.
fn time_setup(tracer: &mut Tracer, name: &'static str, mut f: impl FnMut()) -> f64 {
    let mut us = Vec::new();
    for rep in 0..SETUP_REPS {
        hetsel_ipda::clear_analysis_memo();
        let start = Instant::now();
        f();
        let end = Instant::now();
        tracer.record(name, start, end, None, rep as u64);
        us.push(dur_ns(start, end) / 1e3);
    }
    stats::median(&us)
}

fn setup_layers(tracer: &mut Tracer, suite: &Suite) -> Vec<Metric> {
    let selector = crate::selector();
    let kernels: Vec<Kernel> = suite.regions.iter().map(|r| r.kernel.clone()).collect();
    let (cpu, gpu) = selector.cost_models();
    let compile = time_setup(tracer, "core.attributes.compile", || {
        std::hint::black_box(AttributeDatabase::compile(&kernels, &selector));
    });
    let ipda = time_setup(tracer, "ipda.analyze", || {
        for k in &kernels {
            std::hint::black_box(hetsel_ipda::analyze_cached(k));
        }
    });
    let mca = time_setup(tracer, "mca.compile_loadout", || {
        for k in &kernels {
            std::hint::black_box(hetsel_mca::compile_loadout(k));
        }
    });
    let cpu_us = time_setup(tracer, "models.cpu.compile", || {
        for k in &kernels {
            std::hint::black_box(cpu.compile(k));
        }
    });
    let gpu_us = time_setup(tracer, "models.gpu.compile", || {
        for k in &kernels {
            std::hint::black_box(gpu.compile(k));
        }
    });
    let mut bytes = Vec::new();
    AttributeDatabase::compile(&kernels, &selector)
        .dump(&selector, &mut bytes)
        .expect("an in-memory snapshot always writes");
    let (region, binding) = suite.hot(0);
    let name = suite.regions[region].kernel.name.clone();
    let load = time_setup(tracer, "core.snapshot.load", || {
        let db = AttributeDatabase::from_snapshot_bytes(&selector, &bytes)
            .expect("a fresh snapshot loads");
        let engine = DecisionEngine::from_database(selector.clone(), db, DEFAULT_DECISION_CACHE);
        std::hint::black_box(engine.decide(&name, binding));
    });
    vec![
        metric("core.attributes.compile_ms", compile / 1e3, "ms"),
        metric("ipda.analyze_us", ipda, "us"),
        metric("mca.compile_loadout_us", mca, "us"),
        metric("models.cpu.compile_us", cpu_us, "us"),
        metric("models.gpu.compile_us", gpu_us, "us"),
        metric("core.snapshot.load_us", load, "us"),
    ]
}

/// The untraced pass: the program's own `serve_tcp` accept loop. Its
/// thread blocks in `accept` until the process exits.
fn untraced_pass(
    args: &Args,
    suite: &Suite,
    snapshot: Option<&PathBuf>,
    seconds: f64,
) -> Result<Summary, String> {
    let server = start_server(suite, snapshot);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let handle = server.handle();
    std::thread::spawn(move || serve_tcp(listener, handle));
    let (logs, steps) = client::drive(
        addr,
        suite,
        args.workload,
        args.seed,
        seconds,
        &crate::ladder(seconds),
    )
    .map_err(|e| e.to_string())?;
    server.shutdown();
    let mut lat = Vec::new();
    for log in &logs {
        for i in 0..log.recv.len().min(measured_end(log, &steps)) {
            let from = if steps.is_empty() {
                log.sent[i]
            } else {
                log.due[i]
            };
            lat.push(dur_ns(from, log.recv[i]) / 1e3);
        }
    }
    Ok(stats::summarize(&mut lat))
}

/// End of the requests latency is reported over: all of a closed loop's,
/// and those of the ladder's lowest rate in the open loop.
fn measured_end(log: &Log, steps: &[StepLog]) -> usize {
    steps.first().map_or(log.reqs.len(), |s| s.end)
}

/// What the traced TCP pass recorded; `stamps` are in connection order.
struct TracedPass {
    logs: Vec<Log>,
    steps: Vec<StepLog>,
    stamps: Vec<ServerStamps>,
}

fn traced_pass(args: &Args, suite: &Suite, server: &DecisionServer) -> Result<TracedPass, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr: SocketAddr = listener.local_addr().map_err(|e| e.to_string())?;
    let conns = if args.workload == Workload::Stream {
        1
    } else {
        2
    };
    let handle = server.handle();
    std::thread::scope(|scope| {
        let acceptor = scope.spawn(move || -> io::Result<Vec<ServerStamps>> {
            let mut workers = Vec::new();
            for _ in 0..conns {
                let (stream, _) = listener.accept()?;
                let handle = handle.clone();
                workers.push(std::thread::spawn(move || -> io::Result<ServerStamps> {
                    let mut reader = StampedReader {
                        inner: BufReader::new(stream.try_clone()?),
                        line_read: Vec::new(),
                    };
                    let mut writer = StampedWriter {
                        inner: stream,
                        at_line_start: true,
                        reply_write: Vec::new(),
                    };
                    serve_lines(&handle, &mut reader, &mut writer)?;
                    Ok(ServerStamps {
                        line_read: reader.line_read,
                        reply_write: writer.reply_write,
                    })
                }));
            }
            workers
                .into_iter()
                .map(|w| w.join().expect("connection thread panicked"))
                .collect()
        });
        let logs = client::drive(
            addr,
            suite,
            args.workload,
            args.seed,
            args.seconds,
            &crate::ladder(args.seconds),
        );
        let stamps = acceptor.join().expect("acceptor panicked");
        match (logs, stamps) {
            (Ok((logs, steps)), Ok(stamps)) => Ok(TracedPass {
                logs,
                steps,
                stamps,
            }),
            (Err(e), _) | (_, Err(e)) => Err(e.to_string()),
        }
    })
}

/// Records the traced pass as spans; returns per-request (in, process,
/// out, e2e, lag) samples in ns.
fn record_tcp_spans(
    tracer: &mut Tracer,
    logs: &[Log],
    steps: &[StepLog],
    stamps: &[ServerStamps],
    outcomes: &[Vec<Outcome>],
) -> [Vec<f64>; 5] {
    let open = !steps.is_empty();
    let mut out: [Vec<f64>; 5] = Default::default();
    for ((log, st), os) in logs.iter().zip(stamps).zip(outcomes) {
        let n = log
            .recv
            .len()
            .min(st.line_read.len())
            .min(st.reply_write.len())
            .min(measured_end(log, steps));
        for (i, outcome) in os.iter().enumerate().take(n) {
            if !matches!(outcome, Outcome::Ok { .. }) {
                continue;
            }
            let (due, sent, recv) = (log.due[i], log.sent[i], log.recv[i]);
            // The server may consume a line before the client thread has
            // stamped its write; clamp so the stages stay ordered.
            let read = st.line_read[i].max(sent);
            let wrote = st.reply_write[i].clamp(read, recv);
            let start = if open { due } else { sent };
            out[0].push(dur_ns(sent, read));
            out[1].push(dur_ns(read, wrote));
            out[2].push(dur_ns(wrote, recv));
            out[3].push(dur_ns(start, recv));
            out[4].push(dur_ns(due, sent));
            if i < SPAN_CAP {
                let id = log.reqs[i].id;
                let root = tracer.record("e2e", start, recv, None, id);
                if open {
                    tracer.record("client.gen_lag", due, sent, Some(root), id);
                }
                tracer.record("serve.transport.in", sent, read, Some(root), id);
                tracer.record("serve.server.process", read, wrote, Some(root), id);
                tracer.record("serve.transport.out", wrote, recv, Some(root), id);
            }
        }
    }
    out
}

/// A replayed request's id and its stamps before parse, after parse, after
/// the call and after encoding.
type ReplayStamps = (u64, Instant, Instant, Instant, Instant);

/// Replays the traced pass's request lines in process, one thread per
/// connection: parse, call and encode each, without sockets.
fn inprocess_pass(
    tracer: &mut Tracer,
    suite: &Suite,
    logs: &[Log],
    snapshot: Option<&PathBuf>,
) -> [Vec<f64>; 3] {
    let server = start_server(suite, snapshot);
    let handle = server.handle();
    let per_conn: Vec<Vec<ReplayStamps>> = std::thread::scope(|scope| {
        let workers: Vec<_> = logs
            .iter()
            .map(|log| {
                let handle = handle.clone();
                scope.spawn(move || {
                    log.reqs
                        .iter()
                        .take(REPLAY_CAP)
                        .map(|req| {
                            let line = render(suite, req);
                            let t0 = Instant::now();
                            let parsed = parse_request_line(&line).expect("generated lines parse");
                            let t1 = Instant::now();
                            let reply = handle.call(parsed);
                            let t2 = Instant::now();
                            let text = serde_json::to_string(&reply).expect("replies serialize");
                            let t3 = Instant::now();
                            std::hint::black_box(text);
                            (req.id, t0, t1, t2, t3)
                        })
                        .collect()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("replay thread panicked"))
            .collect()
    });
    server.shutdown();
    let mut out: [Vec<f64>; 3] = Default::default();
    for (id, t0, t1, t2, t3) in per_conn.into_iter().flatten() {
        let root = tracer.record("serve.inproc", t0, t3, None, id);
        tracer.record("serve.proto.parse", t0, t1, Some(root), id);
        tracer.record("serve.server.call", t1, t2, Some(root), id);
        tracer.record("serve.proto.encode", t2, t3, Some(root), id);
        out[0].push(dur_ns(t0, t1));
        out[1].push(dur_ns(t1, t2));
        out[2].push(dur_ns(t2, t3));
    }
    out
}

/// The replayed requests, interleaved across connections in order.
fn replay_requests(suite: &Suite, logs: &[Log]) -> Vec<(u64, usize, DecisionRequest)> {
    let longest = logs
        .iter()
        .map(|l| l.reqs.len())
        .max()
        .unwrap_or(0)
        .min(REPLAY_CAP);
    let mut out = Vec::new();
    for i in 0..longest {
        for log in logs {
            if let Some(req) = log.reqs.get(i) {
                let name = suite.regions[req.region].kernel.name.clone();
                out.push((
                    req.id,
                    req.region,
                    DecisionRequest::new(name, req.binding.clone()),
                ));
            }
        }
    }
    out
}

/// `decide_batch` on a fresh engine in windows of `window` requests;
/// returns each request's share of its window, ns.
fn engine_pass(
    tracer: &mut Tracer,
    requests: &[(u64, usize, DecisionRequest)],
    engine: &DecisionEngine,
    window: usize,
) -> Vec<f64> {
    let mut share = Vec::new();
    for chunk in requests.chunks(window.max(1)) {
        let batch: Vec<DecisionRequest> = chunk.iter().map(|(_, _, r)| r.clone()).collect();
        let start = Instant::now();
        std::hint::black_box(engine.decide_batch(&batch));
        let end = Instant::now();
        tracer.record("core.engine.decide_batch", start, end, None, chunk[0].0);
        let per = dur_ns(start, end) / chunk.len() as f64;
        share.extend(std::iter::repeat_n(per, chunk.len()));
    }
    share
}

/// Each request's binding through its region's compiled host and
/// accelerator models; returns (cpu, gpu) evaluation times, ns.
fn model_pass(
    tracer: &mut Tracer,
    suite: &Suite,
    requests: &[(u64, usize, DecisionRequest)],
    engine: &DecisionEngine,
) -> [Vec<f64>; 2] {
    let mut out: [Vec<f64>; 2] = Default::default();
    for (id, region, req) in requests {
        let attrs = engine
            .database()
            .region(&suite.regions[*region].kernel.name)
            .expect("every suite region is in the database");
        let t0 = Instant::now();
        let _ = std::hint::black_box(CompiledModel::evaluate(&attrs.cpu_model, req.binding()));
        let t1 = Instant::now();
        let _ = std::hint::black_box(CompiledModel::evaluate(&attrs.gpu_model, req.binding()));
        let t2 = Instant::now();
        tracer.record("models.cpu.evaluate", t0, t1, None, *id);
        tracer.record("models.gpu.evaluate", t1, t2, None, *id);
        out[0].push(dur_ns(t0, t1));
        out[1].push(dur_ns(t1, t2));
    }
    out
}

/// Counter and histogram readings of the program's registry.
struct Registry {
    batch_count: u64,
    batch_sum: u64,
    queue_full: u64,
    deadline_expired: u64,
    late_result: u64,
}

impl Registry {
    fn read() -> Registry {
        let r = hetsel_obs::registry();
        let batch = r.histogram("hetsel.serve.window.batch");
        Registry {
            batch_count: batch.count(),
            batch_sum: batch.sum(),
            queue_full: r.counter("hetsel.serve.shed.queue_full").get(),
            deadline_expired: r.counter("hetsel.serve.shed.deadline_expired").get(),
            late_result: r.counter("hetsel.serve.late_result").get(),
        }
    }
}

/// One row of the stage table.
struct Stage {
    name: &'static str,
    source: &'static str,
    p50_us: f64,
    tail_us: f64,
}

pub fn run_traced(args: &Args) -> Result<(bool, Census, Vec<Metric>), String> {
    let suite = Suite::polybench();
    let mut tracer = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut metrics = setup_layers(&mut tracer, &suite);

    let snapshot = if args.workload == Workload::Launch {
        let path = crate::out_dir().join(format!("launch-trace-{}.hsnp", std::process::id()));
        let _ = std::fs::remove_file(&path);
        // The first warm-up compiles and writes the snapshot every later
        // server of this run starts from.
        drop(fresh_engine(&suite, Some(&path)));
        Some(path)
    } else {
        None
    };
    let result = traced_passes(args, &suite, &mut tracer, snapshot.as_ref());
    if let Some(path) = &snapshot {
        let _ = std::fs::remove_file(path);
    }
    let (correct, census, layer_metrics) = result?;
    metrics.extend(layer_metrics);
    Ok((correct, census, metrics))
}

/// Passes 2 to 5 and the report; returns the per-layer metrics.
fn traced_passes(
    args: &Args,
    suite: &Suite,
    tracer: &mut Tracer,
    snapshot: Option<&PathBuf>,
) -> Result<(bool, Census, Vec<Metric>), String> {
    let mut metrics = Vec::new();

    let untraced = untraced_pass(args, suite, snapshot, args.seconds / 4.0)?;

    let server = start_server(suite, snapshot);
    let before = Registry::read();
    let TracedPass {
        logs,
        steps,
        stamps,
    } = traced_pass(args, suite, &server)?;
    let after = Registry::read();
    let cache = server.dispatcher().engine().stats();
    server.shutdown();

    let refs: Vec<&Log> = logs.iter().collect();
    let outcomes = check::check_all(suite, &refs, crate::CHECK_THREADS);
    let mut census = Census::default();
    for o in outcomes.iter().flatten() {
        census.add(o);
    }
    let [mut t_in, mut t_proc, mut t_out, mut e2e, mut lag] =
        record_tcp_spans(tracer, &logs, &steps, &stamps, &outcomes);
    let mut transport: Vec<f64> = t_in.iter().zip(&t_out).map(|(a, b)| a + b).collect();

    let [mut parse, mut call, mut encode] = inprocess_pass(tracer, suite, &logs, snapshot);
    let batches = after.batch_count.saturating_sub(before.batch_count);
    let batch_mean =
        after.batch_sum.saturating_sub(before.batch_sum) as f64 / batches.max(1) as f64;
    let requests = replay_requests(suite, &logs);
    let mut engine_share = engine_pass(
        tracer,
        &requests,
        &fresh_engine(suite, snapshot),
        batch_mean.round().max(1.0) as usize,
    );
    let [mut cpu_eval, mut gpu_eval] =
        model_pass(tracer, suite, &requests, &fresh_engine(suite, snapshot));

    let s = |v: &mut Vec<f64>| stats::summarize(v);
    let (t_in, t_proc, t_out, e2e, lag) = (
        s(&mut t_in),
        s(&mut t_proc),
        s(&mut t_out),
        s(&mut e2e),
        s(&mut lag),
    );
    let transport = s(&mut transport);
    let (parse, call, encode) = (s(&mut parse), s(&mut call), s(&mut encode));
    let engine = s(&mut engine_share);
    let (cpu_eval, gpu_eval) = (s(&mut cpu_eval), s(&mut gpu_eval));
    let tail = e2e.tail_p;

    // The stage table: each stage at the traced e2e's median and tail
    // level, and the stated remainder that makes the rows add up.
    let row = |name, source, p50: f64, tail: f64| Stage {
        name,
        source,
        p50_us: p50 / 1e3,
        tail_us: tail / 1e3,
    };
    let mut stages = Vec::new();
    if !steps.is_empty() {
        stages.push(row(
            "client.gen_lag",
            "traced TCP pass, due to write",
            lag.p50,
            lag.tail,
        ));
    }
    stages.extend([
        row(
            "serve.transport.in",
            "traced TCP pass, write to line consumed",
            t_in.p50,
            t_in.tail,
        ),
        row(
            "serve.proto.parse",
            "in-process replay",
            parse.p50,
            parse.tail,
        ),
        row(
            "serve.queue",
            "in-process call minus engine share",
            call.p50 - engine.p50,
            call.tail - engine.tail,
        ),
        row(
            "core.engine",
            "decide_batch share, fresh engine",
            engine.p50,
            engine.tail,
        ),
        row(
            "serve.proto.encode",
            "in-process replay",
            encode.p50,
            encode.tail,
        ),
        row(
            "serve.transport.out",
            "traced TCP pass, reply write to reply read",
            t_out.p50,
            t_out.tail,
        ),
    ]);
    let sum_p50: f64 = stages.iter().map(|st| st.p50_us).sum();
    let sum_tail: f64 = stages.iter().map(|st| st.tail_us).sum();
    println!(
        "# stage table, {} (traced e2e n={}; tail level p{})",
        args.workload.name(),
        e2e.n,
        tail
    );
    println!(
        "# {:<24} {:>12} {:>12}  source",
        "stage",
        "p50_us",
        format!("p{tail}_us")
    );
    for st in &stages {
        println!(
            "# {:<24} {:>12.1} {:>12.1}  {}",
            st.name, st.p50_us, st.tail_us, st.source
        );
    }
    println!(
        "# {:<24} {:>12.1} {:>12.1}  e2e minus the stages above (server processing seen over TCP {:.1}/{:.1} us vs parse+call+encode replayed in process; percentiles do not add)",
        "unattributed remainder",
        e2e.p50 / 1e3 - sum_p50,
        e2e.tail / 1e3 - sum_tail,
        t_proc.p50 / 1e3,
        t_proc.tail / 1e3
    );
    println!(
        "# {:<24} {:>12.1} {:>12.1}  traced e2e",
        "total",
        e2e.p50 / 1e3,
        e2e.tail / 1e3
    );
    println!(
        "# tracing overhead: traced p50 {:.1} us - untraced p50 {:.1} us (serve_tcp, n={}) = {:.1} us",
        e2e.p50 / 1e3,
        untraced.p50,
        untraced.n,
        e2e.p50 / 1e3 - untraced.p50
    );
    println!("# requests: {}", census.to_json());
    println!(
        "# {:<28} {:>9} {:>14} {:>14}",
        "span", "count", "self p50 ns", "self tail ns"
    );
    for (name, sum) in tracer.layers() {
        println!(
            "# {:<28} {:>9} {:>14.0} {:>14.0}",
            name, sum.n, sum.p50, sum.tail
        );
    }
    // One file per workload, overwritten by the next traced run of it.
    let spans = crate::out_dir().join(format!("spans-{}.jsonl", args.workload.name()));
    if let Err(e) = tracer.write_jsonl(&spans) {
        println!("# could not write {}: {e}", spans.display());
    }

    let lookups = cache.hits + cache.misses;
    metrics.extend([
        metric("serve.transport.self_us", transport.p50 / 1e3, "us"),
        metric("serve.transport.in_us", t_in.p50 / 1e3, "us"),
        metric("serve.transport.out_us", t_out.p50 / 1e3, "us"),
        metric("serve.server.process_us", t_proc.p50 / 1e3, "us"),
        metric("serve.proto.parse_ns", parse.p50, "ns"),
        metric("serve.proto.encode_ns", encode.p50, "ns"),
        metric("serve.server.call_us", call.p50 / 1e3, "us"),
        metric("serve.queue.self_us", (call.p50 - engine.p50) / 1e3, "us"),
        metric("serve.queue.batch_mean", batch_mean, "count"),
        metric(
            "serve.shed.queue_full",
            after.queue_full.saturating_sub(before.queue_full) as f64,
            "count",
        ),
        metric(
            "serve.shed.deadline_expired",
            after
                .deadline_expired
                .saturating_sub(before.deadline_expired) as f64,
            "count",
        ),
        metric(
            "serve.late_result",
            after.late_result.saturating_sub(before.late_result) as f64,
            "count",
        ),
        metric("core.engine.decide_batch_ns", engine.p50, "ns"),
        metric(
            "core.engine.hit_ratio",
            cache.hits as f64 / lookups.max(1) as f64,
            "ratio",
        ),
        metric("core.engine.lookups", lookups as f64, "count"),
        metric("core.engine.evictions", cache.evictions as f64, "count"),
        metric("models.cpu.evaluate_ns", cpu_eval.p50, "ns"),
        metric("models.gpu.evaluate_ns", gpu_eval.p50, "ns"),
        metric("client.gen_lag_p50_us", lag.p50 / 1e3, "us"),
        metric("client.gen_lag_p99_us", lag.tail / 1e3, "us"),
        metric("trace.e2e_p50_us", e2e.p50 / 1e3, "us"),
        metric("trace.e2e_p99_us", e2e.tail / 1e3, "us"),
        metric("trace.untraced_p50_us", untraced.p50, "us"),
    ]);
    Ok((census.mismatched == 0, census, metrics))
}
