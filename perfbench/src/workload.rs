//! Seeded inputs: the data table, the query streams and the write mix.
//!
//! Everything a run feeds the system is derived from the `--seed`
//! argument through [`sub_seed`], so one seed always yields the same
//! table, the same queries and the same writes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skycache_datagen::{
    DimStats, Distribution, IndependentWorkload, InteractiveWorkload, SyntheticGen, ZipfWorkload,
};
use skycache_geom::{Constraints, Point};
use skycache_storage::{RowId, Table, TableConfig};

/// Rows in the data table of a benchmark run.
pub const POINTS: usize = 100_000;
/// Dimensions per row.
pub const DIMS: usize = 4;
/// Explicit cache capacity of every workload: with an unbounded cache each
/// publish clones an ever larger snapshot and latency drifts upward
/// within a run.
pub const CAPACITY: usize = 256;
/// Distinct base queries of the Zipf stream (twice the cache capacity, so
/// the hot set fits and the tail does not).
pub const ZIPF_POOL: usize = 512;
/// User groups of the Zipf stream, each drawing from its own share of the
/// pool. One group would put a third of the traffic on its top three
/// queries, and a run would measure little more than those.
pub const ZIPF_GROUPS: usize = 32;
/// Draws after which a group's pool is replaced by a fresh one (trending
/// traffic). The live pool stays at [`ZIPF_POOL`] queries, and a run sees
/// thousands of distinct hot queries instead of one seed's few.
pub const ZIPF_GROUP_LIFETIME: usize = 160;
/// Zipf exponent of each group's stream.
pub const ZIPF_EXPONENT: f64 = 1.1;
/// One operation in this many of the `updates` mix is a write (one write
/// per four queries).
pub const WRITE_EVERY: u64 = 5;
/// Operations run before timing starts, so the cache is warm: four times
/// its capacity, enough to fill it, for the served stream to reach its
/// steady hit rate, and for the set-up time of one seed not to hinge on a
/// few heavy queries.
pub const WARM_QUERIES: usize = 4 * CAPACITY;
/// Queries generated per stream; a run that outlasts it starts over.
pub const STREAM_LEN: usize = 50_000;

/// The named traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// A fresh random box per query through one in-process session.
    Independent,
    /// Zipf-skewed repeats over loopback TCP connections.
    ZipfServe,
    /// Refinement chains with one write per four queries.
    Updates,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Independent, Workload::ZipfServe, Workload::Updates];

    /// The command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Independent => "independent",
            Workload::ZipfServe => "zipf-serve",
            Workload::Updates => "updates",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Queries whose counters form the per-query count metrics: a fixed
    /// number, so a seed repeats them exactly, and as many as a run
    /// completes on a slow host, because per-query work is heavy-tailed.
    pub fn count_window(self) -> u64 {
        match self {
            Workload::Updates => 10_000,
            Workload::Independent => 4_000,
            Workload::ZipfServe => 8_000,
        }
    }
}

/// Derives an independent stream seed from the run seed (SplitMix64).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sub-seed streams.
const DATA: u64 = 1;
const QUERIES: u64 = 2;
const WRITES: u64 = 3;
/// Stream of the correctness-sample selection.
pub const CHECKS: u64 = 4;

/// The seeded inputs of one run.
pub struct Inputs {
    /// The data table.
    pub table: Table,
    /// The query stream (warm-up queries first).
    pub queries: Vec<Constraints>,
}

impl Inputs {
    /// Builds a table of `points` rows and the workload's query stream.
    pub fn generate(workload: Workload, seed: u64, points: usize) -> Inputs {
        let points = SyntheticGen::new(Distribution::Independent, DIMS, sub_seed(seed, DATA))
            .generate(points);
        let stats = DimStats::compute(&points);
        let table = Table::build(points, TableConfig::default()).expect("generated data is valid");
        let queries = query_stream(workload, stats, STREAM_LEN, sub_seed(seed, QUERIES));
        Inputs { table, queries }
    }
}

/// The workload's query constraints, in issue order.
pub fn query_stream(
    workload: Workload,
    stats: Vec<DimStats>,
    len: usize,
    seed: u64,
) -> Vec<Constraints> {
    let specs = match workload {
        Workload::Updates => InteractiveWorkload::new(stats).generate(len, seed),
        Workload::Independent => IndependentWorkload::new(stats).generate(len, seed),
        Workload::ZipfServe => return zipf_groups(stats, len, seed),
    };
    specs.queries().iter().map(|q| q.constraints.clone()).collect()
}

/// [`ZIPF_GROUPS`] Zipf streams over disjoint pools, merged by drawing the
/// group of each position at random; each group's pool is replaced after
/// [`ZIPF_GROUP_LIFETIME`] draws, staggered so replacements are spread
/// evenly over the stream.
fn zipf_groups(stats: Vec<DimStats>, len: usize, seed: u64) -> Vec<Constraints> {
    let generation = |group: usize, n: usize| -> Vec<Constraints> {
        ZipfWorkload::new(stats.clone())
            .pool(ZIPF_POOL / ZIPF_GROUPS)
            .exponent(ZIPF_EXPONENT)
            .generate(ZIPF_GROUP_LIFETIME, sub_seed(seed, ((group as u64) << 32) | n as u64))
            .queries()
            .iter()
            .map(|q| q.constraints.clone())
            .collect()
    };
    let mut generations = vec![0usize; ZIPF_GROUPS];
    let mut draws: Vec<usize> =
        (0..ZIPF_GROUPS).map(|g| g * ZIPF_GROUP_LIFETIME / ZIPF_GROUPS).collect();
    let mut streams: Vec<Vec<Constraints>> = (0..ZIPF_GROUPS).map(|g| generation(g, 0)).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let g = rng.gen_range(0..ZIPF_GROUPS);
            if draws[g] == ZIPF_GROUP_LIFETIME {
                draws[g] = 0;
                generations[g] += 1;
                streams[g] = generation(g, generations[g]);
            }
            draws[g] += 1;
            streams[g][draws[g] - 1].clone()
        })
        .collect()
}

/// One operation of a run.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// A constrained skyline query.
    Query(Constraints),
    /// Insert a fresh point.
    Insert(Point),
    /// Delete a live row.
    Delete(RowId),
}

/// The operation sequence of a run: the query stream (cycled), with every
/// [`WRITE_EVERY`]-th operation replaced by a write when writes are on.
///
/// Writes alternate between inserting a fresh uniformly distributed point
/// and deleting a seeded-random live row, starting with an insert, so the
/// live row count returns to its initial value after every delete. The
/// mix tracks row ids itself: a table assigns the next slot index to an
/// inserted row, so the ids predicted here are the ids the table returns.
pub struct OpMix<'q> {
    queries: &'q [Constraints],
    next_query: usize,
    ops: u64,
    writes: Option<WriteState>,
}

struct WriteState {
    rng: StdRng,
    live: Vec<RowId>,
    next_row: RowId,
    dims: usize,
    insert_next: bool,
}

impl<'q> OpMix<'q> {
    /// Queries only, starting at stream position `start`.
    pub fn reads(queries: &'q [Constraints], start: usize) -> OpMix<'q> {
        OpMix { queries, next_query: start, ops: 0, writes: None }
    }

    /// Queries from `start` plus writes against `table`'s current rows.
    pub fn with_writes(
        queries: &'q [Constraints],
        start: usize,
        table: &Table,
        seed: u64,
    ) -> OpMix<'q> {
        let live = table.live_points().map(|(row, _)| row).collect();
        let next_row = RowId::try_from(table.slot_count()).expect("table fits row ids");
        let writes = WriteState {
            rng: StdRng::seed_from_u64(sub_seed(seed, WRITES)),
            live,
            next_row,
            dims: table.dims(),
            insert_next: true,
        };
        OpMix { queries, next_query: start, ops: 0, writes: Some(writes) }
    }

    /// The next operation.
    pub fn next_op(&mut self) -> Op {
        self.ops += 1;
        if let Some(w) = self.writes.as_mut() {
            if self.ops.is_multiple_of(WRITE_EVERY) {
                return w.next_write();
            }
        }
        let c = self.queries[self.next_query % self.queries.len()].clone();
        self.next_query += 1;
        Op::Query(c)
    }
}

impl WriteState {
    fn next_write(&mut self) -> Op {
        let insert = self.insert_next || self.live.is_empty();
        self.insert_next = !insert;
        if insert {
            let coords: Vec<f64> = (0..self.dims).map(|_| self.rng.gen_range(0.0..1.0)).collect();
            self.live.push(self.next_row);
            self.next_row += 1;
            Op::Insert(Point::new_unchecked(coords))
        } else {
            let idx = self.rng.gen_range(0..self.live.len());
            Op::Delete(self.live.swap_remove(idx))
        }
    }
}

impl OpMix<'static> {
    /// Writes only, against `table`'s current rows: the `updates` write
    /// generator, for replays on copies the benchmark owns.
    pub fn writes(table: &Table, seed: u64) -> OpMix<'static> {
        OpMix::with_writes(&[], 0, table, seed)
    }
}

impl OpMix<'_> {
    /// The next write of a mix built with writes (queries are skipped).
    pub fn next_write(&mut self) -> Op {
        self.writes.as_mut().expect("mix was built with writes").next_write()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_table(seed: u64) -> Table {
        let points = SyntheticGen::new(Distribution::Independent, DIMS, seed).generate(2_000);
        Table::build(points, TableConfig::default()).unwrap()
    }

    #[test]
    fn seeded_generation_is_reproducible() {
        for workload in Workload::ALL {
            let stats = DimStats::compute(small_table(5).all_points());
            let a = query_stream(workload, stats.clone(), 300, 17);
            let b = query_stream(workload, stats.clone(), 300, 17);
            assert_eq!(a, b, "{}: same seed, same queries", workload.name());
            let c = query_stream(workload, stats, 300, 18);
            assert_ne!(a, c, "{}: another seed, other queries", workload.name());
        }
        assert_eq!(
            small_table(9).all_points(),
            small_table(9).all_points(),
            "same seed, same data"
        );
        let t = small_table(3);
        let stream = query_stream(Workload::Updates, DimStats::compute(t.all_points()), 50, 1);
        let ops = |t: &Table| {
            let mut mix = OpMix::with_writes(&stream, 0, t, 11);
            (0..200).map(|_| mix.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(ops(&t), ops(&t), "same seed, same op sequence");
    }

    #[test]
    fn updates_mix_keeps_the_live_row_count_constant() {
        let mut table = small_table(4);
        let initial = table.len();
        let stream = query_stream(Workload::Updates, DimStats::compute(table.all_points()), 100, 2);
        let mut mix = OpMix::with_writes(&stream, 0, &table.clone(), 8);
        let (mut queries, mut inserts, mut deletes) = (0, 0, 0);
        for _ in 0..5_000 {
            match mix.next_op() {
                Op::Query(_) => queries += 1,
                Op::Insert(p) => {
                    let predicted = mix.writes.as_ref().unwrap().next_row - 1;
                    assert_eq!(table.insert(p).unwrap(), predicted, "predicted row id");
                    inserts += 1;
                    assert_eq!(table.len(), initial + 1);
                }
                Op::Delete(row) => {
                    assert!(table.delete(row).is_some(), "deleted row {row} was live");
                    deletes += 1;
                    assert_eq!(table.len(), initial, "back to the initial size after a delete");
                }
            }
        }
        assert_eq!(queries, 4_000, "four queries per write");
        assert_eq!((inserts, deletes), (500, 500));
        assert_eq!(table.len(), initial);
    }
}
