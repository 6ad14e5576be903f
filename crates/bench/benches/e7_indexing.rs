//! E7 (§V): index-profile ablation — build cost and query latency with
//! full metadata vs filtered attribute sets.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use up2p_bench::{pattern_objects, pattern_repository};
use up2p_store::{Query, Repository};

fn bench_indexing(c: &mut Criterion) {
    let mut g = c.benchmark_group("e7_indexing");
    let (community, objects) = pattern_objects();

    let profiles: Vec<(&str, Vec<String>)> = vec![
        (
            "full",
            up2p_schema::leaf_fields(community.schema())
                .into_iter()
                .map(|f| f.path)
                .collect(),
        ),
        ("searchable", community.indexed_paths()),
        ("name_only", vec!["pattern/name".to_string()]),
    ];

    for (name, paths) in &profiles {
        g.bench_with_input(BenchmarkId::new("index_build", name), paths, |b, paths| {
            b.iter(|| {
                let mut repo = Repository::new();
                for o in &objects {
                    repo.insert_doc(&community.id, o.doc.clone(), paths);
                }
                repo.index_stats().token_postings
            })
        });

        let repo = pattern_repository(paths);
        let query = Query::any_keyword("interface");
        g.bench_with_input(BenchmarkId::new("query", name), &query, |b, query| {
            b.iter(|| repo.search(None, black_box(query)).len())
        });
    }

    // the indexer-stylesheet path vs native extraction (equivalent
    // output, different cost — the Fig. 1 "Indexed Attribute XSL")
    let xsl = up2p_core::stylesheets::default_index_xsl(&community);
    let doc = &objects[18].doc;
    g.bench_function("extract_via_xslt_filter", |b| {
        b.iter(|| up2p_core::stylesheets::apply_index_style(&xsl, black_box(doc)).unwrap().len())
    });
    let paths = community.indexed_paths();
    g.bench_function("extract_native", |b| {
        b.iter(|| Repository::extract_fields(black_box(doc), &paths).len())
    });

    g.finish();
}

criterion_group!(benches, bench_indexing);
criterion_main!(benches);
