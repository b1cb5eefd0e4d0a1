//! The load-generating client: newline-JSON over loopback TCP.

use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::gen::{render, Generator, Req, Suite, Workload};

/// A closed-loop read waits this long for a reply before the request and
/// every later one on the connection count as missing.
const CLOSED_READ_TIMEOUT: Duration = Duration::from_secs(10);
/// The open-loop reader polls its stop flags at this interval.
const OPEN_POLL: Duration = Duration::from_millis(20);
/// After the open-loop writer stops, outstanding replies get this long.
const OPEN_DRAIN: Duration = Duration::from_secs(10);

fn timed_out(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// One client connection. The client disables Nagle's algorithm on its
/// own side and writes each request line in one call, so every delay
/// measured is the server's.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(CLOSED_READ_TIMEOUT))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Writes `line` (no newline) and returns its reply line.
    pub fn round_trip(&mut self, line: &str) -> io::Result<String> {
        self.send(&format!("{line}\n"))?;
        let mut reply = String::new();
        if self.read_reply(&mut reply)? {
            Ok(reply)
        } else {
            Err(io::Error::new(ErrorKind::UnexpectedEof, "server closed"))
        }
    }

    /// Writes `batch` (whole lines) in one go, then reads `n` replies.
    pub fn pipeline(&mut self, batch: &str, n: usize) -> io::Result<Vec<String>> {
        self.send(batch)?;
        (0..n)
            .map(|_| {
                let mut reply = String::new();
                if self.read_reply(&mut reply)? {
                    Ok(reply.trim_end().to_string())
                } else {
                    Err(io::Error::new(ErrorKind::UnexpectedEof, "server closed"))
                }
            })
            .collect()
    }

    fn send(&mut self, line_nl: &str) -> io::Result<()> {
        self.writer.write_all(line_nl.as_bytes())
    }

    /// Appends one whole reply line to `text`. `Ok(false)` is end of
    /// stream; a timeout is an error that leaves any partial line in
    /// `text`, so the next call completes it.
    fn read_reply(&mut self, text: &mut String) -> io::Result<bool> {
        match self.reader.read_line(text)? {
            0 => Ok(false),
            _ => Ok(text.ends_with('\n')),
        }
    }
}

/// Everything one connection recorded in a measured phase. Replies arrive
/// in request order, so `recv[i]` belongs to `reqs[i]`; requests past the
/// end of `recv` got no reply.
#[derive(Debug, Default)]
pub struct Log {
    pub reqs: Vec<Req>,
    /// When the request became due: its scheduled time in the open loop,
    /// the moment the client began building it in a closed loop.
    pub due: Vec<Instant>,
    /// When its line had been written to the socket.
    pub sent: Vec<Instant>,
    /// When its reply line had been read whole.
    pub recv: Vec<Instant>,
    /// All reply lines, back to back; `ends[i]` is where reply `i` ends.
    pub text: String,
    pub ends: Vec<usize>,
    /// The transport failure that ended the phase early, if any.
    pub io_error: Option<String>,
}

impl Log {
    pub fn reply(&self, i: usize) -> Option<&str> {
        let end = *self.ends.get(i)?;
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        Some(self.text[start..end].trim_end())
    }

    fn push_sent(&mut self, req: Req, due: Instant) {
        self.reqs.push(req);
        self.due.push(due);
        self.sent.push(Instant::now());
    }

    fn push_recv(&mut self) {
        self.recv.push(Instant::now());
        self.ends.push(self.text.len());
    }
}

/// A closed loop on one connection until `deadline`: write `burst`
/// requests, then read their `burst` replies, and repeat.
pub fn closed_loop(
    mut conn: Conn,
    suite: &Suite,
    mut generator: Generator<'_>,
    burst: usize,
    deadline: Instant,
) -> Log {
    let mut log = Log::default();
    let mut line = String::new();
    let result = (|| -> io::Result<()> {
        while Instant::now() < deadline {
            for _ in 0..burst {
                let due = Instant::now();
                let req = generator.next_req();
                line.clear();
                line.push_str(&render(suite, &req));
                line.push('\n');
                conn.send(&line)?;
                log.push_sent(req, due);
            }
            for _ in 0..burst {
                if !conn.read_reply(&mut log.text)? {
                    return Err(io::Error::new(ErrorKind::UnexpectedEof, "server closed"));
                }
                log.push_recv();
            }
        }
        Ok(())
    })();
    if let Err(e) = result {
        log.io_error = Some(e.to_string());
    }
    log
}

/// The parameters of the open loop's rate ladder.
#[derive(Debug, Clone)]
pub struct Ladder {
    /// Each step's rate (requests per second) and duration, in order.
    pub steps: Vec<(f64, Duration)>,
    /// A step whose median generator lag exceeds this fell behind.
    pub max_gen_lag: Duration,
}

/// What the writer saw during one ladder step.
#[derive(Debug, Clone)]
pub struct StepLog {
    pub rate: f64,
    /// Request index range `[first, end)` due in this step.
    pub first: usize,
    pub end: usize,
    /// Mean outstanding requests over the first and last quarter of the step.
    pub backlog_first: f64,
    pub backlog_last: f64,
}

impl StepLog {
    /// Outstanding requests grew over the step: the server fell behind.
    pub fn backlog_grew(&self) -> bool {
        self.backlog_last > 2.0 * self.backlog_first + 8.0
    }
}

/// The open loop: Poisson arrivals at each ladder rate in turn, written on
/// schedule by this thread while a second thread reads the replies. The
/// ladder stops after the first step whose backlog grew or whose
/// generator fell behind.
pub fn open_loop(
    conn: Conn,
    suite: &Suite,
    mut generator: Generator<'_>,
    seed: u64,
    ladder: &Ladder,
) -> (Log, Vec<StepLog>) {
    let Conn {
        mut writer,
        mut reader,
    } = conn;
    let received = AtomicUsize::new(0);
    let sent_total = AtomicUsize::new(0);
    let writer_done = AtomicBool::new(false);
    let mut arrivals = crate::gen::Rng::new(seed, 0x5EED);
    let mut log = Log::default();
    let mut steps = Vec::new();
    let (text, ends, recv, read_error) = std::thread::scope(|scope| {
        let reader_thread = scope.spawn(|| {
            let mut text = String::new();
            let mut ends = Vec::new();
            let mut recv = Vec::new();
            let mut error = None;
            let _ = reader.get_ref().set_read_timeout(Some(OPEN_POLL));
            let mut drain_deadline = None;
            loop {
                if writer_done.load(Ordering::SeqCst) {
                    if recv.len() >= sent_total.load(Ordering::SeqCst) {
                        break;
                    }
                    let deadline =
                        *drain_deadline.get_or_insert_with(|| Instant::now() + OPEN_DRAIN);
                    if Instant::now() > deadline {
                        break;
                    }
                }
                match reader.read_line(&mut text) {
                    Ok(0) => break,
                    Ok(_) if text.ends_with('\n') => {
                        recv.push(Instant::now());
                        ends.push(text.len());
                        received.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(_) => break,
                    Err(e) if timed_out(&e) => {}
                    Err(e) => {
                        error = Some(e.to_string());
                        break;
                    }
                }
            }
            (text, ends, recv, error)
        });

        let mut line = String::new();
        let mut outstanding: Vec<(f64, f64)> = Vec::new();
        let mut step_start = Instant::now() + Duration::from_millis(5);
        'ladder: for &(rate, length) in &ladder.steps {
            let step_end = step_start + length;
            let first = log.reqs.len();
            outstanding.clear();
            let mut t = step_start;
            loop {
                t += Duration::from_secs_f64(arrivals.exp_gap(rate));
                if t >= step_end {
                    break;
                }
                let now = Instant::now();
                if t > now {
                    std::thread::sleep(t - now);
                }
                let req = generator.next_req();
                line.clear();
                line.push_str(&render(suite, &req));
                line.push('\n');
                if let Err(e) = writer.write_all(line.as_bytes()) {
                    log.io_error = Some(e.to_string());
                    break 'ladder;
                }
                log.push_sent(req, t);
                sent_total.store(log.reqs.len(), Ordering::SeqCst);
                let in_flight = log
                    .reqs
                    .len()
                    .saturating_sub(received.load(Ordering::Relaxed));
                outstanding.push(((t - step_start).as_secs_f64(), in_flight as f64));
            }
            let quarter = length.as_secs_f64() / 4.0;
            let mean_in = |lo: f64, hi: f64| {
                let v: Vec<f64> = outstanding
                    .iter()
                    .filter(|(at, _)| *at >= lo && *at < hi)
                    .map(|(_, n)| *n)
                    .collect();
                v.iter().sum::<f64>() / v.len().max(1) as f64
            };
            let step = StepLog {
                rate,
                first,
                end: log.reqs.len(),
                backlog_first: mean_in(0.0, quarter),
                backlog_last: mean_in(3.0 * quarter, 4.0 * quarter),
            };
            let mut lags: Vec<f64> = (first..log.reqs.len())
                .map(|i| (log.sent[i] - log.due[i]).as_secs_f64())
                .collect();
            let lag = crate::stats::summarize(&mut lags);
            let behind = lag.p50 > ladder.max_gen_lag.as_secs_f64();
            let stop = step.backlog_grew() || behind;
            steps.push(step);
            if stop {
                break;
            }
            step_start = step_end;
        }
        writer_done.store(true, Ordering::SeqCst);
        reader_thread.join().expect("reader thread panicked")
    });
    let _ = writer.shutdown(std::net::Shutdown::Write);
    log.text = text;
    log.ends = ends;
    log.recv = recv;
    if log.io_error.is_none() {
        log.io_error = read_error;
    }
    (log, steps)
}

/// Runs `workload` against `addr` until `deadline` (closed loops) or the
/// end of the ladder (open loop). Connections are opened in order before
/// any traffic, so a server accepts them in that order.
pub fn drive(
    addr: SocketAddr,
    suite: &Suite,
    workload: Workload,
    seed: u64,
    seconds: f64,
    ladder: &Ladder,
) -> io::Result<(Vec<Log>, Vec<StepLog>)> {
    match workload {
        Workload::Stream => {
            let conn = Conn::connect(addr)?;
            let generator = Generator::new(suite, workload, seed, 0);
            let (log, steps) = open_loop(conn, suite, generator, seed, ladder);
            Ok((vec![log], steps))
        }
        Workload::Launch | Workload::Sweep => {
            let burst = if workload == Workload::Sweep {
                crate::gen::BURST
            } else {
                1
            };
            let conns = (0..2)
                .map(|_| Conn::connect(addr))
                .collect::<io::Result<Vec<_>>>()?;
            let deadline = Instant::now() + Duration::from_secs_f64(seconds);
            let logs = std::thread::scope(|scope| {
                let handles: Vec<_> = conns
                    .into_iter()
                    .enumerate()
                    .map(|(c, conn)| {
                        let generator = Generator::new(suite, workload, seed, c as u64);
                        scope.spawn(move || closed_loop(conn, suite, generator, burst, deadline))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect()
            });
            Ok((logs, Vec::new()))
        }
    }
}
