//! Pipeline equivalence: the three CBCS front ends — the borrowing
//! `CbcsExecutor`, the table-owning `DynamicCbcsExecutor` and a `Service`
//! session over the shared cache — must answer every query of a mixed
//! workload with the bitwise-same skyline, in the same order, and with
//! every `QueryStats` counter equal.
//!
//! The session runs with coalescing and negative caching off, so each of
//! its queries reaches the CBCS pipeline itself. Stage times are wall
//! clock and therefore excluded; everything else is compared.

use skycache::core::{
    CbcsConfig, CbcsExecutor, DynamicCbcsExecutor, Executor, MprMode, QueryOutcome, QueryRequest,
    QueryStats, ReplacementPolicy, Service, ServiceConfig,
};
use skycache::datagen::{
    DimStats, Distribution, IndependentWorkload, InteractiveWorkload, SyntheticGen,
};
use skycache::geom::Constraints;
use skycache::storage::{Table, TableConfig};

/// Every deterministic field of [`QueryStats`], in declaration order
/// (stage times excluded; `cover_fraction` compared by bit pattern).
fn counters(s: &QueryStats) -> impl PartialEq + std::fmt::Debug {
    (
        (
            s.points_read,
            s.heap_fetches,
            s.range_queries_issued,
            s.range_queries_executed,
            s.range_queries_empty,
            s.regions_coalesced,
            s.dominance_tests,
        ),
        (s.cache_hit, s.case, s.candidates, s.retained_points, s.removed_points, s.result_size),
        (s.fetch_sim_ns, s.composed_items, s.cover_fraction.to_bits(), s.admission_rejects, s.bbs),
    )
}

fn skyline_bits(o: &QueryOutcome) -> Vec<Vec<u64>> {
    o.skyline.iter().map(|p| p.coords().iter().map(|c| c.to_bits()).collect()).collect()
}

fn workload(table: &Table) -> Vec<Constraints> {
    let stats = DimStats::compute(table.all_points());
    let interactive = InteractiveWorkload::new(stats.clone()).generate(150, 21);
    let independent = IndependentWorkload::new(stats).generate(150, 22);
    interactive
        .queries()
        .iter()
        .chain(independent.queries())
        .map(|q| q.constraints.clone())
        .collect()
}

fn configs() -> Vec<(&'static str, CbcsConfig)> {
    let bounded = |policy| CbcsConfig { capacity: Some(8), policy, ..CbcsConfig::default() };
    vec![
        ("default", CbcsConfig::default()),
        ("exact-mpr", CbcsConfig { mpr: MprMode::Exact, ..CbcsConfig::default() }),
        ("compose", CbcsConfig { compose: true, ..CbcsConfig::default() }),
        ("extra-items", CbcsConfig { extra_items: 2, ..CbcsConfig::default() }),
        ("cap8-lru", bounded(ReplacementPolicy::Lru)),
        ("cap8-lcu", bounded(ReplacementPolicy::Lcu)),
        ("cap8-cost-aware", bounded(ReplacementPolicy::CostAware)),
        (
            "cap8-tinylfu-compose",
            CbcsConfig { compose: true, ..bounded(ReplacementPolicy::TinyLfu) },
        ),
    ]
}

#[test]
fn cbcs_front_ends_agree_query_for_query() {
    let points = SyntheticGen::new(Distribution::Independent, 3, 7).generate(3_000);
    let table = Table::build(points, TableConfig::default()).unwrap();
    let queries = workload(&table);
    assert_eq!(queries.len(), 300);

    for (label, config) in configs() {
        let mut borrowed = CbcsExecutor::new(&table, config.clone());
        let mut owned = DynamicCbcsExecutor::new(table.clone(), config.clone());
        let service = Service::open(
            &table,
            ServiceConfig {
                coalesce: false,
                negative_cache: false,
                ..ServiceConfig::with_cbcs(config.clone())
            },
        );
        let mut session = service.session();

        let (mut hits, mut composed) = (0, 0);
        for (i, c) in queries.iter().enumerate() {
            let req = QueryRequest::new(c.clone());
            let want = borrowed.execute(&req).unwrap();
            hits += usize::from(want.stats.cache_hit);
            composed += usize::from(want.stats.composed_items >= 2);
            for (name, got) in [
                ("dynamic", owned.execute(&req).unwrap()),
                ("session", session.execute(&req).unwrap()),
            ] {
                assert_eq!(
                    skyline_bits(&got),
                    skyline_bits(&want),
                    "{label}/{name}: query {i} skyline differs"
                );
                assert_eq!(
                    counters(&got.stats),
                    counters(&want.stats),
                    "{label}/{name}: query {i} counters differ"
                );
            }
        }
        // The workload must reach the paths under comparison.
        assert!(hits > queries.len() / 4, "{label}: only {hits} hits");
        if config.compose {
            assert!(composed > 0, "{label}: no compositional hit");
        }
    }
}
