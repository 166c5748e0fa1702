//! The in-process entry points and the closed loop that runs queries on them.
//!
//! Read-only workloads go through `Service::session()` /
//! `Session::execute`; the `updates` workload goes through
//! `DynamicCbcsExecutor`, the only entry point that accepts writes.

use std::time::{Duration, Instant};

use skycache_core::{
    Cache, CbcsConfig, DynamicCbcsExecutor, Executor, QueryOutcome, QueryRequest, Service,
    ServiceConfig, Session,
};
use skycache_storage::Table;

use crate::calib::{self, Calibration};
use crate::check;
use crate::layers::Trace;
use crate::workload::{Op, OpMix, CAPACITY};

/// The CBCS configuration of every workload: defaults plus the explicit
/// cache capacity.
pub fn cbcs_config() -> CbcsConfig {
    CbcsConfig { capacity: Some(CAPACITY), ..CbcsConfig::default() }
}

/// The service configuration of every service workload.
pub fn service_config() -> ServiceConfig {
    ServiceConfig::with_cbcs(cbcs_config())
}

/// One in-process entry point.
pub enum Engine<'t> {
    /// A session over a shared service (read-only traffic).
    Service {
        /// The service; owns the shared cache.
        service: Service<'t>,
        /// The single client session.
        session: Session<'t>,
    },
    /// The dynamic executor, which owns its table and accepts writes.
    Dynamic(DynamicCbcsExecutor),
}

impl<'t> Engine<'t> {
    /// A one-session service over `table`.
    pub fn service(table: &'t Table) -> Engine<'t> {
        let service = Service::open(table, service_config());
        let session = service.session();
        Engine::Service { service, session }
    }

    /// A dynamic executor owning `table`.
    pub fn dynamic(table: Table) -> Engine<'t> {
        Engine::Dynamic(DynamicCbcsExecutor::new(table, cbcs_config()))
    }

    /// The table queries currently run against.
    pub fn table(&self) -> &Table {
        match self {
            Engine::Service { service, .. } => service.table(),
            Engine::Dynamic(ex) => ex.table(),
        }
    }

    /// Answers one query.
    pub fn query(&mut self, req: &QueryRequest) -> Result<QueryOutcome, String> {
        let out = match self {
            Engine::Service { session, .. } => session.execute(req),
            Engine::Dynamic(ex) => ex.execute(req),
        };
        out.map_err(|e| e.to_string())
    }

    /// Applies one write.
    pub fn write(&mut self, op: Op) -> Result<(), String> {
        let Engine::Dynamic(ex) = self else {
            return Err("service workloads are read-only".into());
        };
        match op {
            Op::Insert(p) => ex.insert(p).map(drop).map_err(|e| e.to_string()),
            Op::Delete(row) => match ex.delete(row) {
                Some(_) => Ok(()),
                None => Err(format!("row {row} was not live")),
            },
            Op::Query(_) => Err("not a write".into()),
        }
    }

    /// Snapshots published so far (the service cache epoch; the dynamic
    /// executor never publishes).
    pub fn epoch(&self) -> u64 {
        match self {
            Engine::Service { service, .. } => service.cache().epoch(),
            Engine::Dynamic(_) => 0,
        }
    }

    /// Queries that joined another session's in-flight computation so far.
    pub fn coalesced(&self) -> u64 {
        match self {
            Engine::Service { service, .. } => service.metrics().coalesced,
            Engine::Dynamic(_) => 0,
        }
    }

    /// The cache readers currently see (for the service, the published
    /// snapshot).
    pub fn with_cache<R>(&self, f: impl FnOnce(&Cache) -> R) -> R {
        match self {
            Engine::Service { service, .. } => f(&service.cache().snapshot()),
            Engine::Dynamic(ex) => f(ex.cache()),
        }
    }
}

/// When a closed loop stops: after `seconds` of measured time and at
/// least `min_queries` completed queries, whichever is later. A loop that
/// has seen a failure stops at `seconds`: its run is already wrong.
#[derive(Clone, Copy, Debug)]
pub struct Stop {
    /// Measured seconds.
    pub seconds: f64,
    /// Queries that must complete regardless of time.
    pub min_queries: usize,
}

/// The paper's deterministic per-query counters, summed over the first
/// queries of a loop (a fixed count, so one seed repeats them exactly).
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    /// Queries summed.
    pub queries: u64,
    /// Points read from the heap (Fig. 8).
    pub points_read: u64,
    /// Range queries issued to storage (Fig. 9).
    pub range_queries: u64,
    /// The cost model's simulated fetch time.
    pub fetch_sim_ns: u64,
}

impl Counts {
    fn add(&mut self, out: &QueryOutcome) {
        self.queries += 1;
        self.points_read += out.stats.points_read;
        self.range_queries += out.stats.range_queries_issued;
        self.fetch_sim_ns += out.stats.fetch_sim_ns;
    }
}

/// What a closed loop measured.
#[derive(Default)]
pub struct LoopOut {
    /// Per-query latency, nanoseconds, in completion order.
    pub query_ns: Vec<u64>,
    /// Per-write latency, nanoseconds.
    pub write_ns: Vec<u64>,
    /// Measured wall time (correctness checks excluded).
    pub wall: Duration,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// Answers compared with the baseline.
    pub checked: u64,
    /// Counters of the first `count_window` queries.
    pub counts: Counts,
    /// Per-layer accumulation (traced loops only).
    pub trace: Option<Trace>,
    /// Host speed relative to the reference host during the loop.
    pub host_speed: f64,
}

/// Runs `n` operations of `mix` untimed (cache warm-up).
pub fn warm(engine: &mut Engine<'_>, mix: &mut OpMix<'_>, n: usize) -> Result<(), String> {
    for _ in 0..n {
        match mix.next_op() {
            Op::Query(c) => drop(engine.query(&QueryRequest::new(c))?),
            write => engine.write(write)?,
        }
    }
    Ok(())
}

/// Operations per traced/untraced block of a traced loop.
const TRACE_BLOCK: u64 = 32;

/// Drives `engine` in a closed loop (one client) until `stop`.
///
/// Every operation is timed on its own. A seeded sample of answers is
/// compared with the baseline on the table state the answer was computed
/// on, with the clock paused. With `trace`, alternate blocks of queries
/// are recorded (`QueryRequest::recorded`) and fed to a [`Trace`]; the
/// unrecorded blocks give the tracing overhead. Every [`calib::EVERY`]
/// of measured time the clock is paused for a calibration sample.
pub fn closed_loop(
    engine: &mut Engine<'_>,
    mix: &mut OpMix<'_>,
    stop: Stop,
    count_window: u64,
    seed: u64,
    trace: bool,
) -> LoopOut {
    let mut out = LoopOut { trace: trace.then(Trace::default), ..LoopOut::default() };
    let budget = Duration::from_secs_f64(stop.seconds);
    let mut paused = Duration::ZERO;
    let mut cal = Calibration::default();
    let mut next_sample = Duration::ZERO;
    let start = Instant::now();
    while (out.query_ns.len() < stop.min_queries && out.failed == 0)
        || start.elapsed() - paused < budget
    {
        if start.elapsed() - paused >= next_sample {
            paused += cal.sample();
            next_sample += calib::EVERY;
        }
        let i = out.attempted;
        out.attempted += 1;
        let c = match mix.next_op() {
            Op::Query(c) => c,
            write => {
                let t = Instant::now();
                match engine.write(write) {
                    Ok(()) => out.write_ns.push(t.elapsed().as_nanos() as u64),
                    Err(_) => out.failed += 1,
                }
                continue;
            }
        };
        let traced = trace && (i / TRACE_BLOCK) % 2 == 1;
        let req = if traced { QueryRequest::new(c).recorded() } else { QueryRequest::new(c) };
        let epoch = engine.epoch();
        let t = Instant::now();
        let result = engine.query(&req);
        let ns = t.elapsed().as_nanos() as u64;
        let Ok(answer) = result else {
            out.failed += 1;
            continue;
        };
        out.query_ns.push(ns);
        if out.counts.queries < count_window {
            out.counts.add(&answer);
        }
        if let Some(acc) = out.trace.as_mut() {
            if traced {
                acc.add_traced(&answer, ns, engine.epoch() - epoch);
            } else {
                acc.add_untraced(ns);
            }
        }
        if check::sampled(seed, i, out.checked) {
            let t = Instant::now();
            out.checked += 1;
            let ok = check::matches_baseline(engine.table(), &req.constraints, &answer.skyline);
            if ok != Ok(true) {
                out.failed += 1;
            }
            paused += t.elapsed();
        }
    }
    out.wall = start.elapsed() - paused;
    out.host_speed = cal.speed();
    out
}
