//! Closed-loop TCP load driver for an in-process `mgrts serve` server.
//!
//! Each connection sends its next request only after the previous answer
//! arrived. Every request line goes out in a single write with
//! `TCP_NODELAY`, so neither Nagle's algorithm nor delayed ACKs sit in the
//! measured round trip.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use serde_json::Value;

use mgrts_bench::serve::{ServeConfig, Server};

use crate::check::{Class, Op};
use crate::trace::Tracer;
use crate::workloads::Stop;

/// Closed-loop connections (one per core of the reference machine).
pub const CONNECTIONS: usize = 2;

/// A started server with its client connections open.
pub struct Rig {
    server: Server,
    dir: PathBuf,
    conns: Vec<TcpStream>,
}

impl Rig {
    /// Start a server with the default `ServeConfig` on an ephemeral port
    /// and a cold data dir `dir`, and open the client connections.
    pub fn start(dir: &Path) -> std::io::Result<Rig> {
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: dir.to_path_buf(),
            ..ServeConfig::default()
        })?;
        let conns = (0..CONNECTIONS)
            .map(|_| {
                let c = TcpStream::connect(server.addr())?;
                c.set_nodelay(true)?;
                Ok(c)
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Rig {
            server,
            dir: dir.to_path_buf(),
            conns,
        })
    }

    /// Close the connections, stop the server with `Server::shutdown`, and
    /// return its data dir.
    pub fn stop(self) -> PathBuf {
        drop(self.conns);
        self.server.shutdown();
        self.dir
    }

    /// Ask the server for its `stats` verb.
    pub fn stats(&mut self) -> std::io::Result<Value> {
        let conn = &mut self.conns[0];
        let mut reader = BufReader::new(conn.try_clone()?);
        round_trip(conn, &mut reader, "{\"type\":\"stats\"}\n")
    }
}

fn round_trip(
    conn: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &str,
) -> std::io::Result<Value> {
    conn.write_all(line.as_bytes())?;
    let mut answer = String::new();
    if reader.read_line(&mut answer)? == 0 {
        return Err(std::io::Error::other("server closed the connection"));
    }
    serde_json::from_str(answer.trim_end()).map_err(|e| std::io::Error::other(e.to_string()))
}

/// How a response was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Answered from the response cache.
    Hit,
    /// Solved for this request.
    Miss,
    /// Coalesced onto another request's in-flight solve.
    Inflight,
    /// Refused or malformed (`overloaded` / `error`).
    Refused,
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Position in the request sequence.
    pub seq: usize,
    /// The measured operation.
    pub op: Op,
    /// Cache path of the answer.
    pub path: Served,
}

fn classify_response(v: &Value) -> (Class, Served) {
    match v["type"].as_str() {
        Some("result") => {
            let path = match v["cache"].as_str() {
                Some("hit") => Served::Hit,
                Some("inflight") => Served::Inflight,
                _ => Served::Miss,
            };
            // The server re-verifies every schedule against C1–C4 before
            // its race accepts it; responses carry the verdict only.
            let class = match v["outcome"].as_str() {
                Some("Solved") => Class::Feasible,
                Some("ProvedInfeasible") => Class::Infeasible,
                Some("Failed") => Class::Error("serve: solve failed".to_string()),
                Some(_) => Class::Unknown,
                None => Class::Error(format!("serve: result without outcome: {v:?}")),
            };
            (class, path)
        }
        other => (
            Class::Error(format!("serve: {} response", other.unwrap_or("untyped"))),
            Served::Refused,
        ),
    }
}

/// Drive the rig's connections through `lines` (request `seq` decides
/// instance `instance_of[seq]`) until `stop`; traced when `origin` is
/// given, one tracer per connection.
pub fn drive(
    rig: &mut Rig,
    lines: &[String],
    instance_of: &[usize],
    stop: Stop,
    origin: Option<Instant>,
) -> (Vec<Answer>, Option<Tracer>) {
    let cursor = AtomicUsize::new(0);
    let results: Vec<(Vec<Answer>, Option<Tracer>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = rig
            .conns
            .iter_mut()
            .map(|conn| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut tracer = origin.map(Tracer::new);
                    let mut out = Vec::new();
                    let mut reader = BufReader::new(conn.try_clone().expect("clone stream"));
                    loop {
                        // Check the clock before taking a request, so the
                        // answered requests are always a prefix of `lines`.
                        if matches!(stop, Stop::At(t) if Instant::now() >= t) {
                            break;
                        }
                        let seq = cursor.fetch_add(1, Ordering::SeqCst);
                        if matches!(stop, Stop::After(n) if seq >= n) || seq >= lines.len() {
                            break;
                        }
                        let open = tracer.as_mut().map(|tr| {
                            tr.set_op(seq as u64);
                            (tr.enter("op"), tr.enter("serve.request"))
                        });
                        let t0 = Instant::now();
                        let reply = round_trip(conn, &mut reader, &lines[seq]);
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        let (class, path) = match reply {
                            Ok(v) => classify_response(&v),
                            Err(e) => (Class::Error(format!("serve i/o: {e}")), Served::Refused),
                        };
                        if let (Some(tr), Some((op, req))) = (tracer.as_mut(), open) {
                            tr.exit_as(
                                req,
                                match path {
                                    Served::Hit => "serve.hit",
                                    Served::Miss => "serve.miss",
                                    Served::Inflight => "serve.inflight",
                                    Served::Refused => "serve.refused",
                                },
                            );
                            tr.exit(op);
                        }
                        out.push(Answer {
                            seq,
                            op: Op {
                                instance: instance_of[seq],
                                route: "serve",
                                class,
                                ms,
                            },
                            path,
                        });
                    }
                    (out, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let mut answers = Vec::new();
    let mut merged: Option<Tracer> = None;
    for (a, t) in results {
        answers.extend(a);
        if let Some(t) = t {
            match merged.as_mut() {
                Some(m) => m.absorb(t),
                None => merged = Some(t),
            }
        }
    }
    answers.sort_by_key(|a| a.seq);
    (answers, merged)
}

/// Compare the client's hit/miss/inflight/refused counts with the
/// server's `stats` verb. Returns one line per mismatch.
#[must_use]
pub fn reconcile(answers: &[Answer], stats: &Value) -> Vec<String> {
    let count = |p: Served| answers.iter().filter(|a| a.path == p).count() as u64;
    let refused = count(Served::Refused);
    let checks = [
        ("cache_hits", count(Served::Hit)),
        ("cache_misses", count(Served::Miss)),
        ("inflight_hits", count(Served::Inflight)),
        ("solves", count(Served::Miss)),
    ];
    let mut problems: Vec<String> = checks
        .iter()
        .filter_map(|(field, client)| {
            let server = stats[*field].as_u64().unwrap_or(u64::MAX);
            (server != *client)
                .then(|| format!("serve stats {field}={server}, client saw {client}"))
        })
        .collect();
    let server_refused =
        stats["rejected"].as_u64().unwrap_or(0) + stats["errors"].as_u64().unwrap_or(0);
    if server_refused != refused {
        problems.push(format!(
            "serve stats rejected+errors={server_refused}, client saw {refused}"
        ));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(seq: usize, path: Served) -> Answer {
        Answer {
            seq,
            op: Op {
                instance: seq,
                route: "serve",
                class: Class::Feasible,
                ms: 0.1,
            },
            path,
        }
    }

    #[test]
    fn reconcile_flags_counts_the_server_does_not_share() {
        let answers = [
            answer(0, Served::Miss),
            answer(1, Served::Hit),
            answer(2, Served::Inflight),
        ];
        let stats = |hits: u64| {
            serde_json::from_str::<Value>(&format!(
                "{{\"cache_hits\":{hits},\"cache_misses\":1,\"inflight_hits\":1,\
                 \"solves\":1,\"rejected\":0,\"errors\":0}}"
            ))
            .unwrap()
        };
        assert!(reconcile(&answers, &stats(1)).is_empty());
        let problems = reconcile(&answers, &stats(2));
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("cache_hits=2"));
    }

    #[test]
    fn responses_are_classified_by_cache_tag_and_outcome() {
        let v = |text: &str| serde_json::from_str::<Value>(text).unwrap();
        assert_eq!(
            classify_response(&v(r#"{"type":"result","cache":"hit","outcome":"Solved"}"#)),
            (Class::Feasible, Served::Hit)
        );
        assert_eq!(
            classify_response(&v(
                r#"{"type":"result","cache":"miss","outcome":"Overrun"}"#
            )),
            (Class::Unknown, Served::Miss)
        );
        let (class, path) = classify_response(&v(r#"{"type":"overloaded"}"#));
        assert!(class.failed());
        assert_eq!(path, Served::Refused);
    }
}
