//! The correctness gate: answers are compared with a from-scratch
//! `BaselineExecutor` (one range query plus SFS) on the same table state.

use skycache_core::{BaselineExecutor, Executor, QueryOutcome, QueryRequest, QueryStats};
use skycache_geom::{Constraints, Point};
use skycache_serve::proto;
use skycache_storage::Table;

use crate::workload::sub_seed;

/// One operation in this many (seeded choice) is checked at first.
const CHECK_EVERY: u64 = 48;
/// The sampling interval doubles after every this many checks, so the
/// sample reaches from the start of a run to its end, however long it
/// is, while the number of checks grows only with the run's logarithm.
const CHECKS_PER_STAGE: u64 = 50;

/// Whether operation `i` of a run with `seed` is in the checked sample,
/// when `checked` operations before it were.
pub fn sampled(seed: u64, i: u64, checked: u64) -> bool {
    let every = CHECK_EVERY << (checked / CHECKS_PER_STAGE).min(32);
    sub_seed(seed ^ crate::workload::CHECKS, i).is_multiple_of(every)
}

/// A skyline in canonical order: rows as coordinate bit patterns, sorted.
pub fn canonical(skyline: &[Point]) -> Vec<Vec<u64>> {
    let mut rows: Vec<Vec<u64>> =
        skyline.iter().map(|p| p.coords().iter().map(|x| x.to_bits()).collect()).collect();
    rows.sort_unstable();
    rows
}

/// The baseline answer for `c` on `table`.
pub fn baseline(table: &Table, c: &Constraints) -> Result<Vec<Point>, String> {
    BaselineExecutor::new(table)
        .execute(&QueryRequest::new(c.clone()))
        .map(|out| out.skyline)
        .map_err(|e| format!("baseline failed: {e}"))
}

/// Whether `skyline` is the baseline answer for `c` on `table`.
pub fn matches_baseline(table: &Table, c: &Constraints, skyline: &[Point]) -> Result<bool, String> {
    Ok(canonical(skyline) == canonical(&baseline(table, c)?))
}

/// The part of a `Q` reply that must not depend on cache state: the reply
/// without its `hit`/`miss` token (`OK <n> <points...>`).
pub fn reply_body(reply: &str) -> Option<String> {
    let mut parts = reply.splitn(4, ' ');
    let (ok, n, token) = (parts.next()?, parts.next()?, parts.next()?);
    if ok != "OK" || !matches!(token, "hit" | "miss") {
        return None;
    }
    Some(match parts.next() {
        Some(points) => format!("OK {n} {points}"),
        None => format!("OK {n}"),
    })
}

/// The reply body the server must send for `c`, computed by the baseline.
pub fn baseline_reply_body(table: &Table, c: &Constraints) -> Result<String, String> {
    let outcome =
        QueryOutcome { skyline: baseline(table, c)?, stats: QueryStats::default(), report: None };
    reply_body(&proto::query_reply(&outcome)).ok_or_else(|| "unparsable baseline reply".into())
}

/// The `Q` request line for `c` (`Q lo hi lo hi ...`; `f64` display
/// round-trips, so the server parses the exact bounds).
pub fn query_line(c: &Constraints) -> String {
    let mut line = String::from("Q");
    for dim in 0..c.dims() {
        line.push_str(&format!(" {} {}", c.lo()[dim], c.hi()[dim]));
    }
    line
}

/// Canonical key of a constraint box (bit patterns of its bounds).
pub fn constraint_key(c: &Constraints) -> Vec<u64> {
    c.lo().iter().chain(c.hi()).map(|x| x.to_bits()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sample_reaches_the_end_of_long_runs() {
        let mut checked = 0;
        let mut last = 0;
        for i in 0..1_000_000 {
            if sampled(3, i, checked) {
                checked += 1;
                last = i;
            }
        }
        assert!(last > 500_000, "last check at operation {last}");
        assert!((200..=500).contains(&checked), "{checked} checks");
    }

    #[test]
    fn reply_body_drops_only_the_cache_token() {
        assert_eq!(reply_body("OK 2 hit 1,2 2,1").as_deref(), Some("OK 2 1,2 2,1"));
        assert_eq!(reply_body("OK 2 miss 1,2 2,1").as_deref(), Some("OK 2 1,2 2,1"));
        assert_eq!(reply_body("OK 0 miss").as_deref(), Some("OK 0"));
        assert_eq!(reply_body("ERR bad bound"), None);
    }

    #[test]
    fn query_lines_parse_back_exactly() {
        let c = Constraints::from_pairs(&[(0.1, 0.7000000000000001), (1.0 / 3.0, 0.9)]).unwrap();
        match proto::parse_request(&query_line(&c)).unwrap() {
            proto::Request::Query { constraints, record } => {
                assert_eq!(constraints, c);
                assert!(!record);
            }
            other => panic!("expected a query, got {other:?}"),
        }
    }
}
