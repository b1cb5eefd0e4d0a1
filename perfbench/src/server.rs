//! Starting and stopping the real `hetsel-serve` binary.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::client::Conn;
use crate::gen::{render, Req, Suite};

/// A running `hetsel-serve --tcp 127.0.0.1:0` process.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
    /// Drains the server's stderr so its log can never block it.
    log: Option<JoinHandle<Vec<String>>>,
}

/// How long a server may take to start listening before the run fails.
const START_TIMEOUT: Duration = Duration::from_secs(60);

impl ServerProc {
    /// Spawns the binary with `extra` arguments and waits for its
    /// "listening on" log line.
    pub fn spawn(bin: &Path, extra: &[String]) -> io::Result<ServerProc> {
        let mut child = Command::new(bin)
            .arg("--tcp")
            .arg("127.0.0.1:0")
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = std::sync::mpsc::channel();
        let log = std::thread::spawn(move || {
            let mut lines = Vec::new();
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.split("listening on ").nth(1) {
                    if let Some(tx) = tx.take() {
                        let addr = addr.split_whitespace().next().unwrap_or("").to_string();
                        let _ = tx.send(addr);
                    }
                }
                lines.push(line);
            }
            lines
        });
        let mut server = ServerProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            log: Some(log),
        };
        match rx.recv_timeout(START_TIMEOUT) {
            Ok(addr) => match addr.parse() {
                Ok(addr) => {
                    server.addr = addr;
                    Ok(server)
                }
                Err(_) => {
                    server.stop();
                    Err(io::Error::other(format!("unparsable address {addr:?}")))
                }
            },
            Err(_) => {
                let log = server.stop();
                Err(io::Error::other(format!(
                    "server did not start listening: {}",
                    log.join(" | ")
                )))
            }
        }
    }

    /// Spawns a server and times set-up: from spawning the process to the
    /// first `ok` reply on a fresh connection, for `probe`.
    pub fn spawn_timed(
        bin: &Path,
        extra: &[String],
        suite: &Suite,
        probe: &Req,
    ) -> io::Result<(ServerProc, Duration)> {
        let start = Instant::now();
        let server = ServerProc::spawn(bin, extra)?;
        let mut conn = Conn::connect(server.addr)?;
        let reply = conn.round_trip(&render(suite, probe))?;
        let elapsed = start.elapsed();
        if !reply.contains("\"status\":\"ok\"") {
            return Err(io::Error::other(format!("set-up probe failed: {reply}")));
        }
        Ok((server, elapsed))
    }

    /// Peak resident set (`VmHWM`) of the process, in MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kib / 1024.0)
    }

    /// Kills the process, waits for it, and returns its log.
    pub fn stop(&mut self) -> Vec<String> {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.log
            .take()
            .and_then(|log| log.join().ok())
            .unwrap_or_default()
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.stop();
    }
}
