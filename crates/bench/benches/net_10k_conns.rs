//! Serving-tier scale scenario: hold 10 000 open connections on one
//! reactor-based server, sweep a ping over every one of them, and print
//! the server-side frame latency p50/p99. The run **fails** (exit 1)
//! unless the server holds exactly the target number of connections and
//! every ping of every sweep is answered — the one serving-tier fact no
//! `e2e` workload covers (they hold 8 connections, not 10 000).
//!
//! The process fd limit (20 000 on the CI box) cannot hold both the
//! server's 10k sockets and 10k client sockets, so the client side is
//! sharded across child processes: the bench re-execs itself with
//! `--swarm-child <addr> <db> <n>`, each child opens `n` connections,
//! handshakes them, and then drives ping sweeps on command over a
//! line-oriented stdin/stdout protocol (`ready <held>` / `ping` →
//! `pong <answered>` / `exit`). Latency is taken from the server's own
//! `tenantdb_net_frame_latency_us` histogram, so it covers decode →
//! execute → flush, not child-side scheduling.
//!
//! `TENANTDB_BENCH_FAST=1` drops to 1 000 connections and one sweep so
//! the smoke run stays in seconds.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tenantdb_bench::fast_mode;
use tenantdb_net::wire::{self, Frame, ReadPref, WireResult, WritePref, PROTOCOL_VERSION};
use tenantdb_net::{Server, ServerConfig};
use tenantdb_platform::{CreateOptions, PlatformConfig, SystemController};

const DB: &str = "shop";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--swarm-child") {
        let addr = args.get(2).expect("child addr");
        let db = args.get(3).expect("child db");
        let n: usize = args.get(4).expect("child conn count").parse().expect("n");
        swarm_child(addr, db, n);
        return;
    }
    parent();
}

// ---------------------------------------------------------------------------
// Child: open `n` connections, handshake, ping them all on command. A
// connection the server never admits or a ping it never answers is
// reported as a short count, not a panic: the parent owns the verdict.
// ---------------------------------------------------------------------------

fn swarm_child(addr: &str, db: &str, n: usize) {
    let mut conns = Vec::with_capacity(n);
    for _ in 0..n {
        match open_conn(addr, db) {
            Ok(stream) => conns.push(stream),
            Err(e) => {
                eprintln!("swarm child: connection {} not admitted: {e}", conns.len());
                break;
            }
        }
    }

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    writeln!(out, "ready {}", conns.len()).expect("stdout");
    out.flush().expect("stdout flush");

    let stdin = std::io::stdin();
    let mut token = 0u64;
    for line in stdin.lock().lines() {
        match line.expect("stdin").trim() {
            "ping" => {
                let mut answered = 0usize;
                for stream in &mut conns {
                    token += 1;
                    let pong = wire::write_frame(stream, &Frame::Ping { token })
                        .and_then(|_| wire::read_frame(stream));
                    match pong {
                        Ok(Some(Frame::Pong { token: t })) if t == token => answered += 1,
                        other => eprintln!("swarm child: ping {token} unanswered: {other:?}"),
                    }
                }
                writeln!(out, "pong {answered}").expect("stdout");
                out.flush().expect("stdout flush");
            }
            "exit" => break,
            other => panic!("unknown swarm command {other:?}"),
        }
    }
}

fn open_conn(addr: &str, db: &str) -> WireResult<TcpStream> {
    // The accept queue can overflow while ten children connect at once; a
    // short retry rides out transient refusals.
    let mut stream = connect_retry(addr)?;
    // Over-limit clients stall in the listen backlog rather than being
    // refused, so "not admitted" shows up as a handshake that never
    // completes: bound the wait.
    stream.set_read_timeout(Some(Duration::from_secs(20)))?;
    stream.set_write_timeout(Some(Duration::from_secs(20)))?;
    let _ = stream.set_nodelay(true);
    wire::write_frame(
        &mut stream,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            db: db.to_string(),
            read_pref: ReadPref::Default,
            write_pref: WritePref::Default,
        },
    )?;
    match wire::read_frame(&mut stream)? {
        Some(Frame::HelloOk { .. }) => Ok(stream),
        other => Err(std::io::Error::other(format!("handshake rejected: {other:?}")).into()),
    }
}

fn connect_retry(addr: &str) -> std::io::Result<TcpStream> {
    let mut last = None;
    for _ in 0..50 {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    Err(last.expect("at least one attempt"))
}

// ---------------------------------------------------------------------------
// Parent: the server, the swarm, the verdict.
// ---------------------------------------------------------------------------

fn parent() {
    println!("# net_10k_conns — serving-tier scale scenario (held == target, every ping answered)");
    // 10 children x 1000 conns; the fd limit (20k soft AND hard here)
    // cannot hold server + client sockets in one process.
    let (children_n, per_child, rounds) = if fast_mode() {
        (4usize, 250usize, 1usize)
    } else {
        (10usize, 1_000usize, 3usize)
    };
    let target = children_n * per_child;

    let system = SystemController::new(
        PlatformConfig {
            clusters_per_colo: 1,
            machines_per_cluster: 2,
            ..PlatformConfig::for_tests()
        },
        &[("local", (0.0, 0.0))],
    );
    system
        .create_database(
            DB,
            (0.0, 0.0),
            CreateOptions {
                replicas: 2,
                cross_colo: false,
                ..CreateOptions::default()
            },
        )
        .expect("create database");
    let server = Server::start(
        "127.0.0.1:0",
        Arc::clone(&system),
        ServerConfig {
            max_connections: target + 500,
            // The swarm idles between sweeps; keep the reaper away.
            idle_timeout: Duration::from_secs(600),
            ..ServerConfig::default()
        },
    )
    .expect("bind server");
    let addr = server.local_addr().to_string();

    println!("connecting {target} conns ({children_n} children x {per_child})...");
    let t0 = Instant::now();
    let mut children: Vec<(Child, BufReader<ChildStdout>)> = Vec::new();
    for _ in 0..children_n {
        let exe = std::env::current_exe().expect("current exe");
        let mut child = Command::new(exe)
            .args(["--swarm-child", &addr, DB, &per_child.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn swarm child");
        let out = BufReader::new(child.stdout.take().expect("child stdout"));
        children.push((child, out));
    }
    let mut failures: Vec<String> = Vec::new();
    let mut opened = 0usize;
    for (_, out) in &mut children {
        opened += expect_line(out, "ready");
    }
    println!("{opened} conns up in {:.1} s", t0.elapsed().as_secs_f64());
    if opened != target {
        failures.push(format!("children opened {opened} of {target} connections"));
    }

    // The histogram is cumulative; the handshake frames in it are
    // negligible next to the sweeps.
    let metrics = server.metrics();
    let hist = metrics.histogram("tenantdb_net_frame_latency_us", &[]);

    for round in 1..=rounds {
        let t = Instant::now();
        // Broadcast first so the children sweep concurrently.
        for (child, _) in &mut children {
            let stdin = child.stdin.as_mut().expect("child stdin");
            writeln!(stdin, "ping").expect("child ping");
            stdin.flush().expect("child flush");
        }
        let mut answered = 0usize;
        for (_, out) in &mut children {
            answered += expect_line(out, "pong");
        }
        println!(
            "sweep {round}: {answered} pings in {:.2} s",
            t.elapsed().as_secs_f64()
        );
        if answered != target {
            failures.push(format!(
                "sweep {round}: {answered} of {target} pings answered"
            ));
        }
    }

    let held = metrics.gauge("tenantdb_net_connections", &[]).get();
    println!(
        "held {held} / {target} conns; frame latency p50 {:.0} us, p99 {:.0} us",
        hist.p50(),
        hist.p99()
    );
    if held != target as i64 {
        failures.push(format!("server holds {held} connections, target {target}"));
    }

    for (child, _) in &mut children {
        let stdin = child.stdin.as_mut().expect("child stdin");
        let _ = writeln!(stdin, "exit");
        let _ = stdin.flush();
    }
    for (mut child, _) in children {
        let _ = child.wait();
    }
    server.shutdown();

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}

/// Read one `"<word> <n>"` line from a child and return `n`.
fn expect_line(out: &mut BufReader<ChildStdout>, word: &str) -> usize {
    let mut line = String::new();
    out.read_line(&mut line).expect("child line");
    let mut parts = line.split_whitespace();
    assert_eq!(parts.next(), Some(word), "child said {line:?}");
    parts.next().expect("count").parse().expect("count")
}
