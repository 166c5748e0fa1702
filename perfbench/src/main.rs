//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <independent|zipf-serve|updates>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run builds the seeded inputs, starts the entry point the workload
//! uses, warms the cache, then measures for `--seconds` in a closed loop
//! and checks a seeded sample of answers against a from-scratch baseline.
//! Standard output starts with a `{"perfbench_run": ..}` line naming the
//! workload, seed, trace flag and start time (so a comparison can pair
//! runs and count a run that died before its result), and ends with one
//! JSON line
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The line before it describes the run and its host. The
//! exit code is 0 for a correct run, 1 when an answer was wrong and 2
//! when the run could not complete. See README.md.

mod calib;
mod check;
mod engine;
mod host;
mod layers;
mod stats;
mod tcp;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use skycache_serve::serve;

use engine::{closed_loop, service_config, warm, Counts, Engine, Stop};
use layers::Probes;
use stats::{median, min_samples_for, percentile, ratio};
use workload::{Inputs, OpMix, Workload, DIMS, POINTS, WARM_QUERIES};

const USAGE: &str = "usage: perfbench --workload <independent|zipf-serve|updates> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Concurrent connections of the served workload.
const SERVE_CLIENTS: usize = 2;

/// One named metric value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric value.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Table rows: [`POINTS`] from the command line; smaller in tests.
    points: usize,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        points: POINTS,
    })
}

/// What one run measured.
struct Run {
    setup_s: Vec<f64>,
    query_ns: Vec<u64>,
    write_ns: Vec<u64>,
    wall: Duration,
    attempted: u64,
    failed: u64,
    checked: u64,
    counts: Counts,
    /// Client plus server threads running queries.
    threads: usize,
    layers: Option<Vec<Metric>>,
    /// Share of CPU time the hypervisor stole during the measured loop.
    steal_frac: f64,
    /// Host speed relative to the reference host during the measured loop.
    host_speed: f64,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let started = SystemTime::now().duration_since(UNIX_EPOCH).unwrap_or_default();
    println!(
        "{{\"perfbench_run\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \
         \"started_unix\": {:.3}}}}}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        started.as_secs_f64(),
    );
    let run = match args.workload {
        Workload::ZipfServe => run_served(&args),
        _ => run_in_process(&args),
    };
    match run.and_then(|run| report(&args, &run).map(|lines| (run, lines))) {
        Ok((run, (describe, result))) => {
            println!("{describe}");
            println!("{result}");
            if run.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: {} of {} operations failed", run.failed, run.attempted);
                ExitCode::from(1)
            }
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::from(2)
        }
    }
}

/// The stop rule of a measured loop: the run's seconds, and enough
/// queries for the count window and for a p99 with ten samples beyond.
fn measured(seconds: f64, count_window: u64) -> Stop {
    Stop { seconds, min_queries: (count_window as usize).max(min_samples_for(99)) }
}

/// `independent` and `updates`: one in-process client.
fn run_in_process(args: &Args) -> Result<Run, String> {
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    for rep in 0..reps {
        let t0 = Instant::now();
        let Inputs { table, queries } = Inputs::generate(args.workload, args.seed, args.points);
        let (mut engine, mut mix) = if args.workload == Workload::Updates {
            let mix = OpMix::with_writes(&queries, 0, &table, args.seed);
            (Engine::dynamic(table), mix)
        } else {
            (Engine::service(&table), OpMix::reads(&queries, 0))
        };
        warm(&mut engine, &mut mix, WARM_QUERIES)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 < reps {
            continue;
        }

        let coalesced_before = engine.coalesced();
        let cpu = host::CpuTimes::now();
        let out = closed_loop(
            &mut engine,
            &mut mix,
            measured(args.seconds, args.workload.count_window()),
            args.workload.count_window(),
            args.seed,
            args.trace,
        );
        let steal_frac = cpu.map_or(0.0, host::CpuTimes::steal_share_since);
        let layers = match &out.trace {
            Some(trace) => {
                let mut probes = common_probes(&engine, &queries, args.seed)?;
                let coalesced = engine.coalesced() - coalesced_before;
                probes.coalesced_frac = ratio(coalesced as f64, out.query_ns.len() as f64);
                let server = serve(engine.table().clone(), service_config(), "127.0.0.1:0")
                    .map_err(|e| format!("start server: {e}"))?;
                probes.ping_rtt_us = layers::ping_rtt_us(server.addr())?;
                server.shutdown().map_err(|e| format!("stop server: {e}"))?;
                Some(layers::metrics(trace, &probes))
            }
            None => None,
        };
        return Ok(Run {
            setup_s,
            query_ns: out.query_ns,
            write_ns: out.write_ns,
            wall: out.wall,
            attempted: out.attempted,
            failed: out.failed,
            checked: out.checked,
            counts: out.counts,
            threads: 1,
            layers,
            steal_frac,
            host_speed: out.host_speed,
        });
    }
    unreachable!("at least one set-up")
}

/// Layer probes that only need the engine and the query stream.
fn common_probes(
    engine: &Engine<'_>,
    queries: &[skycache_geom::Constraints],
    seed: u64,
) -> Result<Probes, String> {
    let (insert_us, delete_us, scans) =
        engine.with_cache(|cache| layers::write_replay(engine.table(), cache.clone(), seed))?;
    Ok(Probes {
        parse_us: layers::parse_us(queries),
        probe_empty_us: layers::probe_empty_us(engine.table(), queries),
        publish_clone_us: engine.with_cache(layers::clone_us),
        insert_us,
        delete_us,
        maintenance_scans_per_write: scans,
        ..Probes::default()
    })
}

/// `zipf-serve`: closed-loop clients over loopback TCP, plus an
/// in-process replay of the same stream for the engine counters (the
/// protocol's replies carry no statistics).
fn run_served(args: &Args) -> Result<Run, String> {
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    for rep in 0..reps {
        let t0 = Instant::now();
        let Inputs { table, queries } = Inputs::generate(args.workload, args.seed, args.points);
        let server = serve(table.clone(), service_config(), "127.0.0.1:0")
            .map_err(|e| format!("start server: {e}"))?;
        let addr = server.addr();
        tcp::warm(addr, &queries[..WARM_QUERIES])?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 < reps {
            server.shutdown().map_err(|e| format!("stop server: {e}"))?;
            continue;
        }

        // With tracing, the run's time is split between the served loop
        // and the traced in-process replay.
        let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
        let coalesced_before = tcp::coalesced(addr)?;
        let cpu = host::CpuTimes::now();
        let served =
            tcp::closed_loop(addr, &queries[WARM_QUERIES..], SERVE_CLIENTS, measured(seconds, 0));
        let steal_frac = cpu.map_or(0.0, host::CpuTimes::steal_share_since);
        let coalesced = tcp::coalesced(addr);
        let ping = if args.trace { layers::ping_rtt_us(addr).map(Some) } else { Ok(None) };
        server.shutdown().map_err(|e| format!("stop server: {e}"))?;
        let (served, coalesced, ping) = (served?, coalesced? - coalesced_before, ping?);

        let mut failed = served.failed;
        let mut checked = 0;
        for (i, (c, body)) in served.bodies.values().enumerate() {
            if check::sampled(args.seed, i as u64, checked) {
                checked += 1;
                if check::baseline_reply_body(&table, c)? != *body {
                    failed += 1;
                }
            }
        }

        let mut engine = Engine::service(&table);
        let mut mix = OpMix::reads(&queries, 0);
        warm(&mut engine, &mut mix, WARM_QUERIES)?;
        let replay_stop = Stop {
            seconds: if args.trace { seconds } else { 0.0 },
            min_queries: args.workload.count_window() as usize,
        };
        let replay = closed_loop(
            &mut engine,
            &mut mix,
            replay_stop,
            args.workload.count_window(),
            args.seed,
            args.trace,
        );
        failed += replay.failed;
        checked += replay.checked;

        let layers = match &replay.trace {
            Some(trace) => {
                let mut probes = common_probes(&engine, &queries, args.seed)?;
                probes.ping_rtt_us = ping.unwrap_or_default();
                probes.coalesced_frac = ratio(coalesced as f64, served.query_ns.len() as f64);
                let tcp_mean_ns = served.query_ns.iter().sum::<u64>() as f64;
                probes.tcp_query_us = Some(ratio(tcp_mean_ns, served.query_ns.len() as f64) / 1e3);
                Some(layers::metrics(trace, &probes))
            }
            None => None,
        };
        return Ok(Run {
            setup_s,
            query_ns: served.query_ns,
            write_ns: Vec::new(),
            wall: served.wall,
            attempted: served.attempted + replay.attempted,
            failed,
            checked,
            counts: replay.counts,
            threads: 2 * SERVE_CLIENTS,
            layers,
            steal_frac,
            host_speed: served.host_speed,
        });
    }
    unreachable!("at least one set-up")
}

/// Latency percentile in µs under the ten-beyond rule.
fn percentile_us(ns: &[u64], pct: usize, what: &str) -> Result<f64, String> {
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, pct)
        .map(|v| v as f64 / 1e3)
        .ok_or_else(|| format!("{} {what} samples are too few for p{pct}", sorted.len()))
}

/// The timing metrics as measured on this host: `qps`, `p50_us`,
/// `p99_us` and `setup_s`.
fn raw_timings(run: &Run) -> Result<[f64; 4], String> {
    let ops = run.query_ns.len() + run.write_ns.len();
    Ok([
        ratio(ops as f64, run.wall.as_secs_f64()),
        percentile_us(&run.query_ns, 50, "query")?,
        percentile_us(&run.query_ns, 99, "query")?,
        median(&run.setup_s),
    ])
}

/// The end-to-end metrics of an untraced run. Timings are reported at the
/// reference host's speed (see [`calib`]); the description line carries
/// them as measured.
fn end_to_end(run: &Run) -> Result<Vec<Metric>, String> {
    let c = &run.counts;
    let per_query = |x: u64| ratio(x as f64, c.queries as f64);
    let [qps, p50_us, p99_us, setup_s] = raw_timings(run)?;
    let speed = run.host_speed;
    Ok(vec![
        Metric::new("qps", qps / speed, "1/s"),
        Metric::new("p50_us", p50_us * speed, "us"),
        Metric::new("p99_us", p99_us * speed, "us"),
        Metric::new("sim_io_ms_per_query", per_query(c.fetch_sim_ns) / 1e6, "ms"),
        Metric::new("points_read_per_query", per_query(c.points_read), "count"),
        Metric::new("range_queries_per_query", per_query(c.range_queries), "count"),
        Metric::new("setup_s", setup_s * speed, "s"),
        Metric::new("peak_rss_mb", host::peak_rss_mb()?, "MB"),
    ])
}

fn json_metrics(metrics: &[Metric]) -> Result<String, String> {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("{} is not finite: {}", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push('}');
    Ok(out)
}

/// The run-description line and the result line.
fn report(args: &Args, run: &Run) -> Result<(String, String), String> {
    let metrics = match &run.layers {
        Some(layers) => layers.clone(),
        None => end_to_end(run)?,
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut info = vec![
        Metric::new("failed_frac", ratio(run.failed as f64, run.attempted as f64), "frac"),
        Metric::new("query_samples", run.query_ns.len() as f64, "count"),
        Metric::new("write_samples", run.write_ns.len() as f64, "count"),
        Metric::new("checked_answers", run.checked as f64, "count"),
        Metric::new("count_window", run.counts.queries as f64, "count"),
        Metric::new("host_steal_frac", run.steal_frac, "frac"),
        Metric::new("host_speed", run.host_speed, "ratio"),
    ];
    if run.layers.is_none() {
        let [qps, p50_us, p99_us, setup_s] = raw_timings(run)?;
        info.push(Metric::new("measured_qps", qps, "1/s"));
        info.push(Metric::new("measured_p50_us", p50_us, "us"));
        info.push(Metric::new("measured_p99_us", p99_us, "us"));
        info.push(Metric::new("measured_setup_s", setup_s, "s"));
    }
    if !run.write_ns.is_empty() {
        info.push(Metric::new("write_p50_us", percentile_us(&run.write_ns, 50, "write")?, "us"));
        info.push(Metric::new("write_p99_us", percentile_us(&run.write_ns, 99, "write")?, "us"));
    }
    let describe = format!(
        "{{\"perfbench\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host\": {{\"nproc\": {nproc}, \"threads\": {}, \"clients_share_cores\": {}, \
         \"profile\": \"{}\"}}, \"data\": {{\"points\": {}, \"dims\": {DIMS}, \
         \"distribution\": \"independent\"}}, \"cache_capacity\": {}, \"setup_runs_s\": {:?}, \
         \"info\": {}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        run.threads,
        run.threads > nproc,
        if cfg!(debug_assertions) { "debug" } else { "release" },
        args.points,
        workload::CAPACITY,
        run.setup_s,
        json_metrics(&info)?,
    );
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.failed == 0,
        run.attempted,
        run.failed,
        json_metrics(&metrics)?,
    );
    Ok((describe, result))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every entry of one `BENCHMARK.json` section.
    fn benchmark_json(section: &str) -> Vec<(String, Option<String>)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text.find(&format!("\"{section}\"")).expect("section present");
        let end = text[start..].find(']').expect("section closes") + start;
        let field = |entry: &str, key: &str| {
            entry
                .split(&format!("\"{key}\""))
                .nth(1)
                .map(|rest| rest.split('"').nth(1).unwrap().to_owned())
        };
        text[start..end]
            .split('{')
            .skip(1)
            .map(|entry| (field(entry, "name").expect("named entry"), field(entry, "unit")))
            .collect()
    }

    /// The `(name, unit)` pairs of a run's result line.
    fn emitted(result: &str) -> Vec<(String, Option<String>)> {
        let metrics = &result[result.find("\"metrics\"").expect("metrics key")..];
        metrics
            .split("}, \"")
            .map(|entry| {
                let entry = entry.trim_start_matches("\"metrics\": {\"");
                let name = entry.split('"').next().unwrap().to_owned();
                let unit = entry.split("\"unit\": \"").nth(1).unwrap().split('"').next().unwrap();
                (name, Some(unit.to_owned()))
            })
            .collect()
    }

    #[test]
    fn every_metric_is_emitted_for_every_workload() {
        let end_to_end = benchmark_json("end_to_end");
        let per_layer = benchmark_json("per_layer");
        for workload in Workload::ALL {
            for trace in [false, true] {
                let args = Args { workload, seed: 7, seconds: 0.01, trace, points: 3_000 };
                let run = match workload {
                    Workload::ZipfServe => run_served(&args),
                    _ => run_in_process(&args),
                }
                .unwrap();
                assert_eq!(run.failed, 0, "{}: every answer correct", workload.name());
                let (describe, result) = report(&args, &run).unwrap();
                assert!(describe.contains(&format!("\"workload\": \"{}\"", workload.name())));
                assert!(result.starts_with("{\"correct\": true, \"attempted\": "));
                let expected = if trace { &per_layer } else { &end_to_end };
                assert_eq!(&emitted(&result), expected, "{} trace={trace}", workload.name());
                if workload == Workload::Updates && !trace {
                    assert!(describe.contains("\"write_p99_us\""), "write latency reported");
                }
            }
        }
    }

    #[test]
    fn every_workload_is_named_in_benchmark_json() {
        let named: Vec<String> = benchmark_json("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(named, ours);
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        assert!(parse("--workload updates --seed 3 --seconds 2 --trace 1").is_ok());
        assert!(parse("--workload nope --seed 3 --seconds 2 --trace 1").is_err());
        assert!(parse("--workload updates --seed 3 --seconds 0 --trace 1").is_err());
        assert!(parse("--workload updates --seed 3 --seconds 2 --trace 2").is_err());
        assert!(parse("--workload updates --seconds 2 --trace 0").is_err());
    }
}
