//! Microbench for the Merkle subtree hasher: fingerprinting a one-node
//! edit through [`SpecHasher::fingerprint_replaced`] (an O(path + payload)
//! incremental rehash) vs a full [`spec_fingerprint`] walk of the edited
//! candidate, plus the one-time `SpecHasher` construction cost that buys
//! the incremental path.
//!
//! Prints the measured incremental-vs-full speedup before the criterion
//! groups run, and exits nonzero when the incremental rehash is less than
//! 5x faster on a 1-predicate edit.

use criterion::{criterion_group, criterion_main, Criterion};
use mualloy_syntax::walk::{collect_sites, node_at, replace_node, subtree_size_formula, NodeRepl};
use mualloy_syntax::{spec_fingerprint, Spec, SpecHasher};
use std::time::Instant;

/// The fixture: the largest spec in the study corpus, a deep formula
/// target inside it, and a small replacement payload drawn from another
/// formula site (a realistic 1-predicate edit, exactly what the mutation
/// operators produce).
fn fixture() -> (Spec, mualloy_syntax::NodeId, NodeRepl) {
    let spec = specrepair_benchmarks::full_study(1.0)
        .into_iter()
        .map(|p| p.faulty)
        .max_by_key(|s| SpecHasher::new(s).node_count())
        .expect("the study corpus is never empty");
    let sites = collect_sites(&spec);
    let target = sites
        .iter()
        .filter(|s| s.is_formula)
        .max_by_key(|s| s.depth)
        .expect("every spec has a formula node")
        .id;
    // The payload: the smallest other formula subtree whose hash differs,
    // so the edit changes the fingerprint and the incremental cost is
    // dominated by the target-to-root path, as a 1-predicate edit is.
    let hasher = SpecHasher::new(&spec);
    let donor = sites
        .iter()
        .filter(|s| s.is_formula && s.id != target)
        .filter(|s| hasher.subtree_hash(s.id) != hasher.subtree_hash(target))
        .min_by_key(|s| match node_at(&spec, s.id) {
            Some(NodeRepl::Formula(f)) => subtree_size_formula(&f),
            _ => u32::MAX,
        })
        .expect("a second distinct formula subtree exists")
        .id;
    let payload = node_at(&spec, donor).expect("donor site resolves");
    (spec, target, payload)
}

fn bench_subtree_hash(c: &mut Criterion) {
    let (spec, target, payload) = fixture();
    let hasher = SpecHasher::new(&spec);
    let edited = replace_node(&spec, target, payload.clone()).expect("edit applies");

    // Correctness first: the incremental rehash must agree with the full
    // walk over the edited spec, and must actually differ from the base.
    let incremental = hasher
        .fingerprint_replaced(target, &payload)
        .expect("incremental path available");
    assert_eq!(incremental, spec_fingerprint(&edited));
    assert_ne!(incremental, hasher.fingerprint());

    // The acceptance measurement: time both paths outside criterion so the
    // ratio lands on one line.
    const ITERS: u32 = 2_000;
    let t0 = Instant::now();
    for _ in 0..ITERS {
        std::hint::black_box(hasher.fingerprint_replaced(target, &payload));
    }
    let inc_ns = t0.elapsed().as_nanos() / ITERS as u128;
    let t0 = Instant::now();
    for _ in 0..ITERS {
        std::hint::black_box(spec_fingerprint(&edited));
    }
    let full_ns = t0.elapsed().as_nanos() / ITERS as u128;
    let speedup = full_ns as f64 / inc_ns.max(1) as f64;
    println!(
        "subtree_hash speedup: incremental {} ns vs full {} ns = {:.1}x ({} nodes)",
        inc_ns,
        full_ns,
        speedup,
        hasher.node_count(),
    );
    if speedup < 5.0 {
        eprintln!("error: incremental rehash only {speedup:.1}x faster than full fingerprint");
        std::process::exit(1);
    }

    let mut group = c.benchmark_group("subtree_hash");
    group.bench_function("incremental_rehash_1_edit", |b| {
        b.iter(|| hasher.fingerprint_replaced(target, &payload).unwrap())
    });
    group.bench_function("full_fingerprint_1_edit", |b| {
        b.iter(|| spec_fingerprint(&edited))
    });
    group.bench_function("hasher_construction", |b| {
        b.iter(|| SpecHasher::new(&spec).fingerprint())
    });
    group.finish();
}

criterion_group!(benches, bench_subtree_hash);
criterion_main!(benches);
