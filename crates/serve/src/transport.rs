//! Line transports: newline-delimited JSON over any `BufRead`/`Write`
//! pair, plus a thread-per-connection TCP front-end.
//!
//! The transport contract is strict: **one reply line per request line,
//! in order, whatever happens**. A malformed line produces a typed
//! `"status":"error"` reply — it never panics the serving thread and
//! never drops the connection, because a client that interleaves a
//! corrupt line between good ones must still be able to correlate the
//! replies to its remaining requests.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use crate::proto::parse_request_line;
use crate::server::ServerHandle;

/// What one transport session processed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Non-blank request lines read.
    pub lines: u64,
    /// Reply lines written (equals `lines` unless the writer failed).
    pub replies: u64,
    /// Replies that were typed errors (malformed lines, unknown regions).
    pub errors: u64,
}

/// Serves one line session: reads request lines from `reader` until EOF,
/// writes exactly one reply line each to `writer`. Returns the session's
/// counts; an `Err` is an I/O failure on the transport itself (the
/// protocol never errors the stream).
pub fn serve_lines(
    handle: &ServerHandle,
    reader: impl BufRead,
    mut writer: impl Write,
) -> io::Result<TransportStats> {
    let mut stats = TransportStats::default();
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        stats.lines += 1;
        let reply = match parse_request_line(&line) {
            Ok(request) => handle.call(request),
            Err(error_reply) => {
                hetsel_obs::static_counter!("hetsel.serve.bad_request").inc();
                *error_reply
            }
        };
        if reply.status() == "error" {
            stats.errors += 1;
        }
        let rendered = serde_json::to_string(&reply).expect("replies always serialize");
        writer.write_all(rendered.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        stats.replies += 1;
    }
    Ok(stats)
}

/// How long the accept loop backs off after a failed `accept` (e.g.
/// `EMFILE` under a connection burst) before accepting again.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Accept loop: serves every connection on `listener` in its own thread
/// (each connection runs [`serve_lines`] over the socket). Never returns
/// under normal operation.
///
/// One bad connection never ends the service: a failed `accept` is
/// counted under `hetsel.serve.accept_error` and retried after a short
/// backoff, and a connection whose thread cannot be spawned is counted
/// under `hetsel.serve.spawn_error` and closed.
pub fn serve_tcp(listener: TcpListener, handle: ServerHandle) -> io::Result<()> {
    accept_loop(listener.incoming(), &handle);
    Ok(())
}

/// The body of [`serve_tcp`] over any stream of accept results, so a test
/// can inject accept failures between good connections.
fn accept_loop(incoming: impl IntoIterator<Item = io::Result<TcpStream>>, handle: &ServerHandle) {
    for stream in incoming {
        let stream = match stream {
            Ok(stream) => stream,
            Err(_) => {
                hetsel_obs::static_counter!("hetsel.serve.accept_error").inc();
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                continue;
            }
        };
        let handle = handle.clone();
        let spawned = std::thread::Builder::new()
            .name("hetsel-serve-conn".to_string())
            .spawn(move || {
                let _ = serve_connection(&handle, stream);
            });
        // A failed spawn drops the closure, and with it the stream: only
        // that one connection is closed.
        if spawned.is_err() {
            hetsel_obs::static_counter!("hetsel.serve.spawn_error").inc();
        }
    }
}

fn serve_connection(handle: &ServerHandle, stream: TcpStream) -> io::Result<TransportStats> {
    let reader = BufReader::new(stream.try_clone()?);
    serve_lines(handle, reader, stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{ServeReply, ServeRequest};
    use crate::server::{DecisionServer, ServeConfig};
    use hetsel_core::{
        DecisionEngine, DecisionRequest, Dispatcher, DispatcherConfig, Platform, Selector,
    };
    use hetsel_polybench::{find_kernel, Dataset};
    use std::io::Cursor;

    fn server() -> DecisionServer {
        let (kernel, _) = find_kernel("gemm").unwrap();
        let engine = DecisionEngine::new(
            Selector::new(Platform::power9_v100()),
            std::slice::from_ref(&kernel),
        );
        DecisionServer::start(
            Dispatcher::new(engine, DispatcherConfig::default()),
            ServeConfig::default(),
        )
    }

    fn request_line(id: u64) -> String {
        let (_, binding) = find_kernel("gemm").unwrap();
        let req = ServeRequest::new(DecisionRequest::new("gemm", binding(Dataset::Benchmark)))
            .with_id(id);
        serde_json::to_string(&req).unwrap()
    }

    fn replies(output: &[u8]) -> Vec<ServeReply> {
        std::str::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str::<ServeReply>(l).expect("well-formed reply line"))
            .collect()
    }

    #[test]
    fn one_reply_per_line_in_order() {
        let server = server();
        let input = format!(
            "{}\n{}\n\n{}\n",
            request_line(1),
            request_line(2),
            request_line(3)
        );
        let mut out = Vec::new();
        let stats = serve_lines(&server.handle(), Cursor::new(input), &mut out).unwrap();
        assert_eq!((stats.lines, stats.replies, stats.errors), (3, 3, 0));
        let replies = replies(&out);
        assert_eq!(replies.len(), 3);
        for (i, reply) in replies.iter().enumerate() {
            assert_eq!(reply.status(), "ok");
            assert_eq!(reply.id(), Some(i as u64 + 1));
        }
        server.shutdown();
    }

    #[test]
    fn malformed_line_gets_error_reply_and_session_continues() {
        let server = server();
        let input = format!(
            "{}\nthis is not json\n{{\"id\":9}}\n{}\n",
            request_line(1),
            request_line(2)
        );
        let mut out = Vec::new();
        let stats = serve_lines(&server.handle(), Cursor::new(input), &mut out).unwrap();
        assert_eq!((stats.lines, stats.replies, stats.errors), (4, 4, 2));
        let replies = replies(&out);
        assert_eq!(replies[0].status(), "ok");
        assert_eq!(replies[1].status(), "error");
        // The parsable id survives into the error reply.
        assert_eq!(replies[2].status(), "error");
        assert_eq!(replies[2].id(), Some(9));
        // The session kept serving after the garbage.
        assert_eq!(replies[3].status(), "ok");
        assert_eq!(replies[3].id(), Some(2));
        server.shutdown();
    }

    #[test]
    fn tcp_round_trip() {
        let server = server();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = server.handle();
        std::thread::spawn(move || {
            let _ = serve_tcp(listener, handle);
        });
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        for id in [5u64, 6] {
            writer
                .write_all(format!("{}\n", request_line(id)).as_bytes())
                .unwrap();
            writer.flush().unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let reply: ServeReply = serde_json::from_str(&line).unwrap();
            assert_eq!(reply.status(), "ok");
            assert_eq!(reply.id(), Some(id));
        }
        drop(writer);
        server.shutdown();
    }

    #[test]
    fn a_failed_accept_does_not_end_the_accept_loop() {
        let server = server();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let errors = hetsel_obs::registry().counter("hetsel.serve.accept_error");
        let before = errors.get();
        // An accept failure (what `EMFILE` looks like) ahead of a good
        // connection: the loop must count it, back off, and still serve
        // the connection behind it.
        let incoming = vec![Err(io::Error::other("too many open files")), Ok(accepted)];
        accept_loop(incoming, &server.handle());
        assert!(errors.get() > before, "accept error counted");
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut writer = client;
        writer
            .write_all(format!("{}\n", request_line(7)).as_bytes())
            .unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let reply: ServeReply = serde_json::from_str(&line).unwrap();
        assert_eq!(reply.status(), "ok");
        assert_eq!(reply.id(), Some(7));
        drop(writer);
        server.shutdown();
    }
}
