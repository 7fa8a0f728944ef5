//! ElasticMap build and query cost across separation policies, and the
//! memory trade-off that motivates it: an all-hash-map layout is the
//! baseline; the α-split buys memory at a small query-time cost.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use datanet::{ElasticMap, Separation};
use datanet_dfs::{Block, BlockId, Record, SubDatasetId};

/// A block with `distinct` sub-datasets of Zipf-ish sizes.
fn synth_block(records: usize, distinct: u64) -> Block {
    let recs = (0..records as u64)
        .map(|i| {
            // Quadratic map concentrates records on low ids.
            let r = (i * i * 2_654_435_761) % (distinct * distinct);
            let s = ((r as f64).sqrt() as u64).min(distinct - 1);
            Record::new(SubDatasetId(s), i, 200 + (i % 800) as u32, i)
        })
        .collect();
    Block::new(BlockId(0), recs)
}

/// Times the build from the block's write-time size table: the one pass
/// over the 20 000 records happened in `Block::new`, outside the timed
/// closure, so what the policies differ by here is the split, the Bloom
/// inserts and the exact side's allocation.
fn bench_build(c: &mut Criterion) {
    let block = synth_block(20_000, 2_000);
    let mut g = c.benchmark_group("elasticmap_build");
    for (name, sep) in [
        ("all_hashmap", Separation::All),
        ("alpha_0.3", Separation::Alpha(0.3)),
        ("bloom_only", Separation::BloomOnly),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &sep, |b, sep| {
            b.iter(|| ElasticMap::build(black_box(&block), sep));
        });
    }
    g.finish();
}

fn bench_query(c: &mut Criterion) {
    let block = synth_block(20_000, 2_000);
    let map = ElasticMap::build(&block, &Separation::Alpha(0.3));
    c.bench_function("elasticmap_query", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7) % 4_000; // mix of present and absent ids
            black_box(map.query(SubDatasetId(i)))
        });
    });
}

fn bench_memory_report(c: &mut Criterion) {
    // Not a hot path, but keeps the memory accounting itself cheap.
    let block = synth_block(20_000, 2_000);
    let map = ElasticMap::build(&block, &Separation::Alpha(0.3));
    c.bench_function("elasticmap_memory_bytes", |b| {
        b.iter(|| black_box(map.memory_bytes()));
    });
}

criterion_group!(benches, bench_build, bench_query, bench_memory_report);
criterion_main!(benches);
