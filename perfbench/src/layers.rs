//! Per-layer metrics of a traced run.
//!
//! Engine phases and counters come from the `QueryStats` and
//! `QueryReport` that recorded queries return. Everything else is timed
//! here, around the public call into the layer: protocol parsing and
//! reply formatting, the emptiness probe, the snapshot clone a publish
//! performs, table writes replayed on a copy, and the PING round trip.

use std::hint::black_box;
use std::net::SocketAddr;
use std::time::Instant;

use skycache_core::{Cache, Overlap, QueryOutcome};
use skycache_geom::{Constraints, HyperRect};
use skycache_obs::{names, Phase};
use skycache_serve::proto;
use skycache_storage::Table;

use crate::check::query_line;
use crate::stats::ratio;
use crate::tcp::Client;
use crate::workload::{Op, OpMix};
use crate::Metric;

/// Per-layer accumulation over the queries of a traced loop.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    traced: u64,
    traced_ns: u64,
    untraced: u64,
    untraced_ns: u64,
    phase_ns: [u64; Phase::COUNT],
    fetch_sim_ns: u64,
    reply_ns: u64,
    hits: u64,
    exact: u64,
    candidates: u64,
    evictions: u64,
    empty: u64,
    publishes: u64,
    mpr_regions: u64,
    index_entries: u64,
    heap_fetches: u64,
    regions_coalesced: u64,
    dominance_tests: u64,
}

impl Trace {
    /// Folds in one recorded query that took `ns` and published
    /// `publishes` cache snapshots, and times formatting its reply.
    pub fn add_traced(&mut self, out: &QueryOutcome, ns: u64, publishes: u64) {
        self.traced += 1;
        self.traced_ns += ns;
        self.publishes += publishes;
        let s = &out.stats;
        self.hits += u64::from(s.cache_hit);
        self.exact += u64::from(s.case == Some(Overlap::Exact));
        self.candidates += s.candidates as u64;
        self.heap_fetches += s.heap_fetches;
        self.regions_coalesced += s.regions_coalesced;
        self.dominance_tests += s.dominance_tests;
        self.fetch_sim_ns += s.fetch_sim_ns;
        if let Some(report) = &out.report {
            for phase in Phase::ALL {
                self.phase_ns[phase.index()] += report.phase_ns(phase);
            }
            self.evictions += report.counter(names::CACHE_EVICTIONS);
            self.empty += report.counter(names::SERVE_NEGATIVE_HITS)
                + report.counter(names::SERVE_NEGATIVE_INSERTS);
            self.mpr_regions += report.counter(names::MPR_REGIONS);
            self.index_entries += report.counter(names::FETCH_INDEX_ENTRIES);
        }
        let t = Instant::now();
        black_box(proto::query_reply(out));
        self.reply_ns += t.elapsed().as_nanos() as u64;
    }

    /// Folds in one unrecorded query that took `ns`.
    pub fn add_untraced(&mut self, ns: u64) {
        self.untraced += 1;
        self.untraced_ns += ns;
    }

    /// Mean wall time of one phase per traced query, µs.
    fn phase_us(&self, phase: Phase) -> f64 {
        self.per_query(self.phase_ns[phase.index()]) / 1e3
    }

    /// Mean fetch-phase wall time per traced query, µs: the engine's fetch
    /// span minus the cost model's simulated time it also carries.
    pub fn fetch_wall_us(&self) -> f64 {
        let fetch = self.phase_ns[Phase::Fetch.index()];
        self.per_query(fetch.saturating_sub(self.fetch_sim_ns)) / 1e3
    }

    /// Mean wall time per traced query attributed to engine phases, µs.
    fn engine_us(&self) -> f64 {
        let total: u64 = self.phase_ns.iter().sum();
        self.per_query(total.saturating_sub(self.fetch_sim_ns)) / 1e3
    }

    fn per_query(&self, x: u64) -> f64 {
        ratio(x as f64, self.traced as f64)
    }
}

/// Layer timings measured outside the query loop.
#[derive(Clone, Debug, Default)]
pub struct Probes {
    /// Mean PING round trip over loopback TCP, µs.
    pub ping_rtt_us: f64,
    /// Mean `proto::parse_request` time per query line, µs.
    pub parse_us: f64,
    /// Mean `Table::probe_region_empty` time, µs.
    pub probe_empty_us: f64,
    /// Mean time to clone the cache readers see, µs.
    pub publish_clone_us: f64,
    /// Mean `Table::insert` time on a copy of the table, µs.
    pub insert_us: f64,
    /// Mean `Table::delete` time on a copy of the table, µs.
    pub delete_us: f64,
    /// Cache items examined per replayed write.
    pub maintenance_scans_per_write: f64,
    /// Share of queries that joined another session's flight.
    pub coalesced_frac: f64,
    /// Mean query latency over TCP, µs (served workloads only).
    pub tcp_query_us: Option<f64>,
}

/// Query lines parsed and regions probed per layer probe.
const PROBE_QUERIES: usize = 4096;
/// Snapshot clones timed per run.
const CLONES: usize = 20;
/// Insert/delete pairs replayed on a table copy.
const WRITE_PAIRS: usize = 256;
/// PING round trips timed per run.
const PINGS: usize = 1000;

/// Mean `proto::parse_request` time over the first query lines, µs.
pub fn parse_us(queries: &[Constraints]) -> f64 {
    let lines: Vec<String> = queries.iter().take(PROBE_QUERIES).map(query_line).collect();
    let t = Instant::now();
    for line in &lines {
        black_box(proto::parse_request(black_box(line)).ok());
    }
    ratio(t.elapsed().as_secs_f64() * 1e6, lines.len() as f64)
}

/// Mean `Table::probe_region_empty` time over the first queries, µs.
pub fn probe_empty_us(table: &Table, queries: &[Constraints]) -> f64 {
    let regions: Vec<HyperRect> = queries.iter().take(PROBE_QUERIES).map(|c| c.region()).collect();
    let t = Instant::now();
    for region in &regions {
        black_box(table.probe_region_empty(black_box(region)));
    }
    ratio(t.elapsed().as_secs_f64() * 1e6, regions.len() as f64)
}

/// Mean time to clone `cache`, the copy a service publish makes, µs.
pub fn clone_us(cache: &Cache) -> f64 {
    let t = Instant::now();
    for _ in 0..CLONES {
        black_box(cache.clone());
    }
    t.elapsed().as_secs_f64() * 1e6 / CLONES as f64
}

/// Replays the `updates` write generator on copies of `table` and
/// `cache`: `(insert_us, delete_us, maintenance scans per write)`.
pub fn write_replay(table: &Table, mut cache: Cache, seed: u64) -> Result<(f64, f64, f64), String> {
    let mut copy = table.clone();
    let mut mix = OpMix::writes(&copy, seed);
    let (mut insert_ns, mut delete_ns) = (0u128, 0u128);
    let scans_before = cache.maintenance_scans();
    for _ in 0..WRITE_PAIRS {
        let Op::Insert(p) = mix.next_write() else { return Err("expected an insert".into()) };
        let t = Instant::now();
        copy.insert(p.clone()).map_err(|e| e.to_string())?;
        insert_ns += t.elapsed().as_nanos();
        cache.on_insert(&p);
        let Op::Delete(row) = mix.next_write() else { return Err("expected a delete".into()) };
        let t = Instant::now();
        let p = copy.delete(row).ok_or_else(|| format!("row {row} was not live"))?;
        delete_ns += t.elapsed().as_nanos();
        cache.on_delete(&p);
    }
    let pairs = WRITE_PAIRS as f64;
    let scans = (cache.maintenance_scans() - scans_before) as f64;
    Ok((insert_ns as f64 / pairs / 1e3, delete_ns as f64 / pairs / 1e3, scans / (2.0 * pairs)))
}

/// Mean PING round trip to the server at `addr`, µs.
pub fn ping_rtt_us(addr: SocketAddr) -> Result<f64, String> {
    let mut client = Client::connect(addr)?;
    let t = Instant::now();
    for _ in 0..PINGS {
        let reply = client.roundtrip("PING\n")?;
        if reply != proto::PONG {
            return Err(format!("unexpected PING reply {reply:?}"));
        }
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / PINGS as f64;
    client.roundtrip("QUIT\n")?;
    Ok(us)
}

/// The per-layer metrics, named as in `BENCHMARK.json`.
pub fn metrics(trace: &Trace, probes: &Probes) -> Vec<Metric> {
    let q = |x: u64| trace.per_query(x);
    let reply_us = q(trace.reply_ns) / 1e3;
    let execute_us = q(trace.traced_ns) / 1e3;
    let coverage = match probes.tcp_query_us {
        // Served: engine phases plus protocol and transport, against the
        // latency the client saw.
        Some(tcp_us) => {
            ratio(trace.engine_us() + probes.parse_us + reply_us + probes.ping_rtt_us, tcp_us)
        }
        None => ratio(trace.engine_us(), execute_us),
    };
    let untraced_us = ratio(trace.untraced_ns as f64, trace.untraced as f64) / 1e3;
    vec![
        Metric::new("serve.ping_rtt_us", probes.ping_rtt_us, "us"),
        Metric::new("serve.parse_us", probes.parse_us, "us"),
        Metric::new("serve.reply_us", reply_us, "us"),
        Metric::new("serve.coalesced_frac", probes.coalesced_frac, "frac"),
        Metric::new("service.empty_frac", q(trace.empty), "frac"),
        Metric::new("service.publishes_per_query", q(trace.publishes), "count"),
        Metric::new("service.publish_clone_us", probes.publish_clone_us, "us"),
        Metric::new("service.execute_us", execute_us, "us"),
        Metric::new("cache.hit_rate", q(trace.hits), "frac"),
        Metric::new("cache.exact_frac", q(trace.exact), "frac"),
        Metric::new("cache.candidates_per_query", q(trace.candidates), "count"),
        Metric::new("cache.evictions_per_query", q(trace.evictions), "count"),
        Metric::new("cache.lookup_us", trace.phase_us(Phase::CacheLookup), "us"),
        Metric::new(
            "cache.maintenance_scans_per_write",
            probes.maintenance_scans_per_write,
            "count",
        ),
        Metric::new("plan.case_us", trace.phase_us(Phase::CaseAnalysis), "us"),
        Metric::new("plan.mpr_us", trace.phase_us(Phase::MprCompute), "us"),
        Metric::new("plan.mpr_regions_per_query", q(trace.mpr_regions), "count"),
        Metric::new("storage.fetch_wall_us", trace.fetch_wall_us(), "us"),
        Metric::new("storage.index_entries_per_query", q(trace.index_entries), "count"),
        Metric::new("storage.heap_fetches_per_query", q(trace.heap_fetches), "count"),
        Metric::new("storage.regions_coalesced_per_query", q(trace.regions_coalesced), "count"),
        Metric::new("storage.probe_empty_us", probes.probe_empty_us, "us"),
        Metric::new("storage.insert_us", probes.insert_us, "us"),
        Metric::new("storage.delete_us", probes.delete_us, "us"),
        Metric::new("skyline.merge_us", trace.phase_us(Phase::Merge), "us"),
        Metric::new("skyline.sky_us", trace.phase_us(Phase::Skyline), "us"),
        Metric::new("skyline.dominance_tests_per_query", q(trace.dominance_tests), "count"),
        Metric::new("trace.coverage", coverage, "frac"),
        Metric::new("trace.overhead_frac", ratio(execute_us, untraced_us) - 1.0, "frac"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{closed_loop, Engine, Stop};
    use crate::workload::{query_stream, OpMix, Workload};
    use skycache_datagen::{DimStats, Distribution, SyntheticGen};
    use skycache_storage::TableConfig;

    #[test]
    fn fetch_wall_never_includes_simulated_time() {
        let points = SyntheticGen::new(Distribution::Independent, 4, 3).generate(5_000);
        let stats = DimStats::compute(&points);
        // The default cost model charges milliseconds per range query,
        // far more than the real fetch takes.
        let table = Table::build(points, TableConfig::default()).unwrap();
        let queries = query_stream(Workload::Independent, stats, 200, 9);
        let mut engine = Engine::service(&table);
        let mut mix = OpMix::reads(&queries, 0);
        let stop = Stop { seconds: 0.0, min_queries: 200 };
        let out = closed_loop(&mut engine, &mut mix, stop, 200, 1, true);
        let trace = out.trace.expect("traced loop");
        assert!(trace.traced > 0 && trace.fetch_sim_ns > 0, "queries reached storage");
        let sim_us = trace.per_query(trace.fetch_sim_ns) / 1e3;
        let fetch_us = trace.fetch_wall_us();
        let execute_us = trace.per_query(trace.traced_ns) / 1e3;
        assert!(fetch_us > 0.0);
        assert!(fetch_us <= execute_us, "fetch wall {fetch_us} µs within execute {execute_us} µs");
        assert!(sim_us > execute_us, "simulated {sim_us} µs exceeds all measured time");
        assert!(trace.engine_us() <= execute_us, "engine phases fit inside the measured call");
    }
}
