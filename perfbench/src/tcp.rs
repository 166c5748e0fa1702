//! Closed-loop clients of a `skyserve` server over loopback TCP.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, PoisonError, RwLock};
use std::time::{Duration, Instant};

use skycache_geom::Constraints;

use crate::calib::{self, Calibration};
use crate::check::{constraint_key, query_line, reply_body};
use crate::engine::Stop;

/// A blocking line-protocol client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

/// Gives up on a reply after this long instead of hanging the run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

impl Client {
    /// Connects to the server at `addr`.
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let io = |e: std::io::Error| format!("connect {addr}: {e}");
        let stream = TcpStream::connect(addr).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(io)?;
        let reader = BufReader::new(stream.try_clone().map_err(io)?);
        Ok(Client { reader, writer: stream, line: String::new() })
    }

    /// Sends one request line (which must end in `\n`) and returns the
    /// reply line without its newline.
    pub fn roundtrip(&mut self, request: &str) -> Result<&str, String> {
        self.writer.write_all(request.as_bytes()).map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// Sends `queries` over one connection, untimed (cache warm-up).
pub fn warm(addr: SocketAddr, queries: &[Constraints]) -> Result<(), String> {
    let mut client = Client::connect(addr)?;
    for c in queries {
        let reply = client.roundtrip(&format!("{}\n", query_line(c)))?;
        if !reply.starts_with("OK ") {
            return Err(format!("warm-up query failed: {reply}"));
        }
    }
    Ok(())
}

/// The `coalesced=` counter of a `STATS` reply.
pub fn coalesced(addr: SocketAddr) -> Result<u64, String> {
    let mut client = Client::connect(addr)?;
    let reply = client.roundtrip("STATS\n")?.to_owned();
    reply
        .split(' ')
        .find_map(|t| t.strip_prefix("coalesced="))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no coalesced counter in {reply:?}"))
}

/// What the TCP clients measured.
#[derive(Default)]
pub struct TcpOut {
    /// Per-query round-trip latency, nanoseconds.
    pub query_ns: Vec<u64>,
    /// From the first client's start to the last client's end.
    pub wall: Duration,
    /// Queries sent.
    pub attempted: u64,
    /// `ERR` replies plus replies that differ from an earlier reply to the
    /// same constraints.
    pub failed: u64,
    /// The reply body (cache token removed) per distinct query.
    pub bodies: BTreeMap<Vec<u64>, (Constraints, String)>,
    /// Host speed relative to the reference host during the loop.
    pub host_speed: f64,
}

/// Counts a client out when it ends, however it ends.
struct Leaving<'a>(&'a AtomicUsize);

impl Drop for Leaving<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

/// Runs `clients` closed-loop connections over `queries` (client `k` sends
/// queries `k`, `k + clients`, ..., wrapping around) until `stop`.
///
/// Every reply to the same constraints must be byte-identical apart from
/// the `hit`/`miss` token; a differing reply counts as failed.
///
/// Every [`calib::EVERY`] the calling thread closes a gate that the
/// clients pass before each request, waits for the requests in flight and
/// takes a calibration sample alone; that time is not measured.
pub fn closed_loop(
    addr: SocketAddr,
    queries: &[Constraints],
    clients: usize,
    stop: Stop,
) -> Result<TcpOut, String> {
    let barrier = Barrier::new(clients);
    let gate = RwLock::new(());
    let (started, running) = (AtomicUsize::new(0), AtomicUsize::new(clients));
    let paused_ns = AtomicU64::new(0);
    let paused = || Duration::from_nanos(paused_ns.load(Ordering::Acquire));
    let mut cal = Calibration::default();
    let per_client = stop.min_queries.div_ceil(clients);
    let results: Vec<Result<(TcpOut, Instant, Instant), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|k| {
                let (barrier, gate, started, running) = (&barrier, &gate, &started, &running);
                s.spawn(move || {
                    let _leaving = Leaving(running);
                    let mut client = Client::connect(addr)?;
                    let mut out = TcpOut::default();
                    barrier.wait();
                    started.fetch_add(1, Ordering::Release);
                    let budget = Duration::from_secs_f64(stop.seconds);
                    let start = Instant::now();
                    let mut j = k;
                    while (out.query_ns.len() < per_client && out.failed == 0)
                        || start.elapsed().saturating_sub(paused()) < budget
                    {
                        let c = &queries[j % queries.len()];
                        j += clients;
                        let request = format!("{}\n", query_line(c));
                        out.attempted += 1;
                        let open = gate.read().unwrap_or_else(PoisonError::into_inner);
                        let t = Instant::now();
                        let reply = client.roundtrip(&request)?;
                        let ns = t.elapsed().as_nanos() as u64;
                        drop(open);
                        let Some(body) = reply_body(reply) else {
                            out.failed += 1;
                            continue;
                        };
                        out.query_ns.push(ns);
                        let key = constraint_key(c);
                        match out.bodies.get(&key) {
                            Some((_, seen)) if *seen != body => out.failed += 1,
                            Some(_) => {}
                            None => drop(out.bodies.insert(key, (c.clone(), body))),
                        }
                    }
                    Ok((out, start, Instant::now()))
                })
            })
            .collect();
        while started.load(Ordering::Acquire) < clients && running.load(Ordering::Acquire) > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        while running.load(Ordering::Acquire) > 0 {
            std::thread::sleep(calib::EVERY);
            if running.load(Ordering::Acquire) == 0 {
                break;
            }
            let t = Instant::now();
            let closed = gate.write().unwrap_or_else(PoisonError::into_inner);
            cal.sample();
            paused_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Release);
            drop(closed);
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let mut merged = TcpOut::default();
    let (mut first, mut last) = (None::<Instant>, None::<Instant>);
    for result in results {
        let (out, start, end) = result?;
        first = Some(first.map_or(start, |f| f.min(start)));
        last = Some(last.map_or(end, |l| l.max(end)));
        merged.query_ns.extend(out.query_ns);
        merged.attempted += out.attempted;
        merged.failed += out.failed;
        for (key, (c, body)) in out.bodies {
            match merged.bodies.get(&key) {
                Some((_, seen)) if *seen != body => merged.failed += 1,
                Some(_) => {}
                None => drop(merged.bodies.insert(key, (c, body))),
            }
        }
    }
    if let (Some(first), Some(last)) = (first, last) {
        merged.wall = (last - first).saturating_sub(paused());
    }
    merged.host_speed = cal.speed();
    Ok(merged)
}
