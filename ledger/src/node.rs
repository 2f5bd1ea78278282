//! The serving side, in a process of its own.
//!
//! The benchmark re-runs its own executable as `fmml-ledger node …`. The
//! child reads the trained model (one line of checkpoint JSON) from
//! stdin, spawns a server (or a router with backends) on loopback, and
//! prints `ready <addr>`. When stdin closes it shuts everything down and
//! prints one `stats …` line per server from the final `StatsReply`.
//!
//! The parent side ([`Node`]) owns the child: dropping it closes stdin
//! and waits for the child to end.

use crate::workload::Workload;
use fmml_cluster::RouterConfig;
use fmml_core::transformer_imputer::TransformerImputer;
use fmml_serve::protocol::Frame;
use fmml_serve::{ServerConfig, TcpConnector};
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;

/// Final counters of one server, from its `StatsReply`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    pub accepted: u64,
    pub rejected: u64,
    pub malformed: u64,
    pub replies: u64,
    pub deadline_misses: u64,
    pub violations: u64,
}

/// Child-process entry point; returns the exit code.
pub fn main(args: &[String]) -> i32 {
    let mut workload = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => workload = it.next().and_then(|n| Workload::by_name(n)),
            "--trace" => trace = it.next().map(String::as_str) == Some("1"),
            _ => {}
        }
    }
    let Some(wl) = workload else {
        eprintln!("node: missing or unknown --workload");
        return 2;
    };
    if trace {
        fmml_obs::trace::set_enabled(true);
    }
    let stdin = std::io::stdin();
    let mut input = stdin.lock();
    let mut line = String::new();
    if input.read_line(&mut line).is_err() {
        eprintln!("node: no model on stdin");
        return 2;
    }
    let model = match TransformerImputer::load_json(line.trim_end()) {
        Ok(m) => Arc::new(m),
        Err(e) => {
            eprintln!("node: bad model checkpoint: {e}");
            return 2;
        }
    };
    let cfg = ServerConfig {
        engine: wl.engine(),
        wire: wl.codec,
        ..ServerConfig::default()
    };
    let servers: Vec<_> = (0..wl.backends.max(1))
        .map(|_| fmml_serve::spawn(Arc::clone(&model), cfg.clone()).expect("spawn server"))
        .collect();
    let router = wl.routed().then(|| {
        let router = fmml_cluster::spawn(RouterConfig {
            wire: wl.codec,
            ..RouterConfig::default()
        })
        .expect("spawn router");
        for (k, s) in servers.iter().enumerate() {
            router.add_backend(
                &format!("backend-{k}"),
                TcpConnector {
                    addr: s.addr().to_string(),
                },
            );
        }
        router
    });
    let addr = router
        .as_ref()
        .map_or_else(|| servers[0].addr(), |r| r.addr());
    println!("ready {addr}");
    let _ = std::io::stdout().flush();

    // Serve until the parent closes stdin.
    let mut rest = Vec::new();
    let _ = input.read_to_end(&mut rest);
    if let Some(r) = router {
        r.shutdown();
    }
    for s in servers {
        if let Frame::StatsReply {
            accepted,
            rejected,
            malformed,
            replies,
            deadline_misses,
            violations,
            ..
        } = s.shutdown()
        {
            println!(
                "stats {accepted} {rejected} {malformed} {replies} {deadline_misses} {violations}"
            );
        }
    }
    let _ = std::io::stdout().flush();
    0
}

/// A running serving child, seen from the benchmark process.
pub struct Node {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Node {
    /// Spawn the child, hand it the model, and wait for its address.
    pub fn spawn(wl: &Workload, model_json: &str, trace: bool) -> Result<Node, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(["node", "--workload", wl.name, "--trace"])
            .arg(if trace { "1" } else { "0" })
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn node: {e}"))?;
        let mut stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut node = Node {
            child,
            stdin: None,
            stdout,
            addr: String::new(),
        };
        stdin
            .write_all(model_json.as_bytes())
            .and_then(|_| stdin.write_all(b"\n"))
            .and_then(|_| stdin.flush())
            .map_err(|e| format!("send model: {e}"))?;
        node.stdin = Some(stdin);
        let mut line = String::new();
        node.stdout
            .read_line(&mut line)
            .map_err(|e| format!("read node address: {e}"))?;
        node.addr = line
            .trim()
            .strip_prefix("ready ")
            .ok_or_else(|| format!("node did not start: {line:?}"))?
            .to_string();
        Ok(node)
    }

    /// Close stdin, collect each server's final counters, and wait for
    /// the child to exit.
    pub fn shutdown(mut self) -> Result<Vec<ServerStats>, String> {
        self.stdin = None;
        let mut stats = Vec::new();
        let mut line = String::new();
        while self
            .stdout
            .read_line(&mut line)
            .map_err(|e| e.to_string())?
            > 0
        {
            let f: Vec<u64> = line
                .split_whitespace()
                .skip(1)
                .filter_map(|w| w.parse().ok())
                .collect();
            if line.starts_with("stats ") && f.len() == 6 {
                stats.push(ServerStats {
                    accepted: f[0],
                    rejected: f[1],
                    malformed: f[2],
                    replies: f[3],
                    deadline_misses: f[4],
                    violations: f[5],
                });
            }
            line.clear();
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("node exited with {status}"));
        }
        Ok(stats)
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        // Only reached without `shutdown` on an error path: stop the
        // child rather than leave it serving.
        if self.stdin.take().is_some() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
