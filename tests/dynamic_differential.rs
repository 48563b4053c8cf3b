//! Differential harness for fully dynamic streaming: replaying an
//! insert+delete op schedule through `IncrementalComponents` must yield
//! labels component-equivalent to a *from-scratch* pipeline run on the
//! surviving edge multiset — for every tested graph family, seed and thread
//! count.
//!
//! This is the turnstile extension of `streaming_differential.rs`: no matter
//! how the engine interleaves union-find fast paths, sketch-Borůvka repairs
//! of deletion-touched components, and full pipeline recomputes, the end
//! state is indistinguishable from having ingested only the surviving edges
//! at once. The sequential BFS ground truth is cross-checked as a third
//! opinion, and the sketch split path is pinned by the `splits` counter so
//! the suite cannot silently degrade into recompute-everything.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wcc_core::stream::{BatchPath, IncrementalComponents, RecomputeReason, StreamParams};
use wcc_core::{well_connected_components, Params};
use wcc_graph::generators::GraphFamily;
use wcc_graph::io::{EdgeOp, CHUNK_FORMAT_VERSION};
use wcc_graph::{connected_components, Graph};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const SEEDS: [u64; 3] = [5, 13, 41];

fn families() -> Vec<(GraphFamily, f64)> {
    vec![
        (GraphFamily::Expander { degree: 8 }, 0.3),
        (
            GraphFamily::PlantedExpanders {
                num_components: 3,
                degree: 8,
            },
            0.3,
        ),
        (GraphFamily::RingOfCliques { clique_size: 10 }, 0.15),
    ]
}

fn instance(family: &GraphFamily, index: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(7000 + index);
    family.generate(120, &mut rng)
}

/// A dynamic op schedule over `g`: every edge is inserted (shuffled, fixed
/// batch size), then roughly a third of the edges are deleted, with a
/// delete-reinsert-delete cycle thrown in so multiset bookkeeping is
/// exercised. Returns the schedule and the surviving edge multiset.
fn dynamic_schedule(g: &Graph, seed: u64, batch_ops: usize) -> (Vec<Vec<EdgeOp>>, Vec<(u64, u64)>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD15C0);
    let mut edges: Vec<(u64, u64)> = g.edge_iter().map(|(u, v)| (u as u64, v as u64)).collect();
    edges.shuffle(&mut rng);

    let mut ops: Vec<EdgeOp> = edges.iter().map(|&(u, v)| EdgeOp::insert(u, v)).collect();
    // Delete every third inserted edge...
    let doomed: Vec<(u64, u64)> = edges.iter().copied().step_by(3).collect();
    ops.extend(doomed.iter().map(|&(u, v)| EdgeOp::delete(u, v)));
    // ...and put one of them through a delete-reinsert-delete cycle so the
    // same pair transitions live -> dead -> live -> dead.
    if let Some(&(u, v)) = doomed.first() {
        ops.push(EdgeOp::insert(u, v));
        ops.push(EdgeOp::delete(u, v));
    }

    let survivors: Vec<(u64, u64)> = edges
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 3 != 0)
        .map(|(_, &e)| e)
        .collect();
    let schedule = ops
        .chunks(batch_ops.max(1))
        .map(<[EdgeOp]>::to_vec)
        .collect();
    (schedule, survivors)
}

/// The surviving multiset as a `Graph` on the same vertex universe.
fn surviving_graph(g: &Graph, survivors: &[(u64, u64)]) -> Graph {
    Graph::from_edges(
        g.num_vertices(),
        survivors.iter().map(|&(u, v)| (u as usize, v as usize)),
    )
    .unwrap()
}

#[test]
fn dynamic_replay_is_component_equivalent_to_from_scratch_on_survivors() {
    for (fi, (family, lambda)) in families().into_iter().enumerate() {
        let g = instance(&family, fi as u64);
        for seed in SEEDS {
            let (schedule, survivors) = dynamic_schedule(&g, seed, 83);
            let surviving = surviving_graph(&g, &survivors);
            // From-scratch references on the surviving graph: the pipeline
            // run the dynamic engine must be indistinguishable from, plus
            // the sequential BFS ground truth as a third opinion.
            let scratch =
                well_connected_components(&surviving, lambda, &Params::test_scale(), seed).unwrap();
            let truth = connected_components(&surviving);
            assert!(
                scratch.components.same_partition(&truth),
                "from-scratch pipeline disagrees with BFS: family {fi}, seed {seed}"
            );

            for threads in THREAD_COUNTS {
                let params = StreamParams::test_scale()
                    .with_lambda(lambda)
                    .with_threads(threads);
                let mut engine = IncrementalComponents::new(params, seed);
                engine.apply_ops_schedule(&schedule).unwrap();
                assert_eq!(
                    engine.num_edges(),
                    survivors.len(),
                    "replay lost or kept the wrong edges: \
                     family {fi}, seed {seed}, threads {threads}"
                );
                let incremental = engine.labels_for_universe(g.num_vertices());
                assert!(
                    incremental.same_partition(&scratch.components),
                    "dynamic labels diverged from the from-scratch pipeline: \
                     family {fi}, seed {seed}, threads {threads}"
                );
            }
        }
    }
}

/// The engine must be insensitive to how the same op stream is batched:
/// one huge batch, medium batches, or tiny ones — same final partition and
/// same surviving edge count.
#[test]
fn op_batch_granularity_does_not_change_the_final_partition() {
    let (family, lambda) = (
        GraphFamily::PlantedExpanders {
            num_components: 2,
            degree: 8,
        },
        0.3,
    );
    let g = instance(&family, 77);
    let (_, survivors) = dynamic_schedule(&g, 99, usize::MAX);
    let truth = connected_components(&surviving_graph(&g, &survivors));
    for batch_ops in [usize::MAX, 97, 11] {
        let (schedule, s) = dynamic_schedule(&g, 99, batch_ops);
        assert_eq!(s, survivors, "schedule generation must be deterministic");
        let mut engine =
            IncrementalComponents::new(StreamParams::test_scale().with_lambda(lambda), 3);
        engine.apply_ops_schedule(&schedule).unwrap();
        assert_eq!(engine.num_edges(), survivors.len());
        assert!(
            engine
                .labels_for_universe(g.num_vertices())
                .same_partition(&truth),
            "batch size {batch_ops} diverged"
        );
    }
}

/// Fast-path-disabled replay (per-batch full recompute) is the executable
/// specification of the dynamic end state: the sketch-repair path must land
/// on the identical partition while actually splitting components instead
/// of recomputing.
#[test]
fn sketch_split_path_matches_per_batch_recompute_reference() {
    // A ring of cliques whose ring edges are then deleted: every ring-edge
    // deletion is structural, and cutting the full ring shatters the graph
    // into its cliques — all on the sketch path.
    let (family, lambda) = (GraphFamily::RingOfCliques { clique_size: 10 }, 0.15);
    let g = instance(&family, 55);
    let (schedule, survivors) = dynamic_schedule(&g, 21, 150);

    let mut sketchy =
        IncrementalComponents::new(StreamParams::test_scale().with_lambda(lambda), 17);
    sketchy.apply_ops_schedule(&schedule).unwrap();

    let mut reference = IncrementalComponents::new(
        StreamParams::test_scale()
            .with_lambda(lambda)
            .with_fast_path(false),
        17,
    );
    reference.apply_ops_schedule(&schedule).unwrap();

    assert_eq!(sketchy.num_vertices(), reference.num_vertices());
    assert_eq!(sketchy.num_edges(), reference.num_edges());
    assert_eq!(sketchy.num_edges(), survivors.len());
    assert!(sketchy.labels().same_partition(&reference.labels()));
    // The reference recomputed every batch; the sketch engine must have
    // handled at least part of the deletion load without the pipeline.
    assert!(sketchy.recomputes() < reference.recomputes());
    assert!(
        sketchy.splits() + sketchy.sketch_recertifies() > 0,
        "a structural-deletion schedule must exercise the sketch path"
    );
}

/// Dedicated split scenario: two expanders joined by one bridge, bridge
/// deleted. The engine must take the sketch-repair path and report exactly
/// one split, and the result must match BFS on the surviving graph.
#[test]
fn bridge_deletion_splits_via_the_sketch_not_the_pipeline() {
    let mut rng = ChaCha8Rng::seed_from_u64(4242);
    let g = wcc_graph::generators::planted_expander_components(&[60, 60], 8, &mut rng);
    let mut ops: Vec<EdgeOp> = g
        .edge_iter()
        .map(|(u, v)| EdgeOp::insert(u as u64, v as u64))
        .collect();
    ops.push(EdgeOp::insert(0, 60));
    for threads in THREAD_COUNTS {
        let params = StreamParams::test_scale()
            .with_lambda(0.3)
            .with_threads(threads);
        let mut engine = IncrementalComponents::new(params, 9);
        engine.apply_ops_batch(&ops).unwrap();
        assert_eq!(engine.num_components(), 1);
        let recomputes_before = engine.recomputes();
        let r = engine.apply_ops_batch(&[EdgeOp::delete(0, 60)]).unwrap();
        assert_eq!(r.path, BatchPath::SketchRepair, "threads {threads}");
        assert_eq!(r.splits, 1, "threads {threads}");
        assert_eq!(engine.recomputes(), recomputes_before);
        assert_eq!(engine.num_components(), 2);
        let truth = connected_components(&engine.current_graph());
        assert!(engine.labels().same_partition(&truth));
    }
}

/// Full-component teardown: insert a clique, delete every edge again. The
/// engine must end with only singletons, entirely on the sketch path after
/// bootstrap.
#[test]
fn full_component_teardown_reaches_singletons_without_recompute() {
    let mut ops = Vec::new();
    for i in 0u64..7 {
        for j in (i + 1)..7 {
            ops.push(EdgeOp::insert(i, j));
        }
    }
    let mut engine = IncrementalComponents::new(StreamParams::test_scale(), 11);
    engine.apply_ops_batch(&ops).unwrap();
    let recomputes_before = engine.recomputes();
    for op in &ops {
        engine
            .apply_ops_batch(&[EdgeOp::delete(op.u, op.v)])
            .unwrap();
    }
    assert_eq!(engine.recomputes(), recomputes_before);
    assert_eq!(engine.num_edges(), 0);
    assert_eq!(engine.num_components(), 7);
    assert_eq!(engine.splits(), 6, "7 singletons minted out of 1 component");
}

/// Repeated standing merges of small components beside a large churned
/// one: each merge batch also deletes a few simple edges of the large
/// expander and reinserts the previous batch's. Every merge batch must
/// settle the large component on the sketch rung and rerun Theorem 4 on the
/// merged small components only, and the replay must match from-scratch on
/// the survivors at every thread count.
#[test]
fn scoped_recomputes_beside_a_churned_component_match_from_scratch() {
    const LARGE: usize = 120;
    const SMALL: usize = 12;
    const NUM_SMALL: usize = 6;
    let lambda = 0.3;
    for seed in SEEDS {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5C0B);
        let mut components = Vec::new();
        let mut shift = 0u64;
        for size in std::iter::once(LARGE).chain([SMALL; NUM_SMALL]) {
            let g = wcc_graph::generators::random_regular_permutation_graph(size, 8, &mut rng);
            components.push(
                g.edge_iter()
                    .map(|(u, v)| (u as u64 + shift, v as u64 + shift))
                    .collect::<Vec<_>>(),
            );
            shift += size as u64;
        }
        let n = shift as usize;
        let small_base = |i: usize| (LARGE + i * SMALL) as u64;

        // Simple (single-copy, non-loop) edges of the large expander: their
        // deletions are structural.
        let mut copies = std::collections::HashMap::new();
        for &(u, v) in &components[0] {
            *copies.entry((u.min(v), u.max(v))).or_insert(0u32) += 1;
        }
        let mut simple: Vec<(u64, u64)> = components[0]
            .iter()
            .copied()
            .filter(|&(u, v)| u != v && copies[&(u.min(v), u.max(v))] == 1)
            .collect();
        simple.shuffle(&mut rng);

        let mut schedule: Vec<Vec<EdgeOp>> = vec![components
            .iter()
            .flatten()
            .map(|&(u, v)| EdgeOp::insert(u, v))
            .collect()];
        let mut doomed = simple.chunks(4);
        let mut previous: &[(u64, u64)] = &[];
        for i in 0..NUM_SMALL - 1 {
            let mut batch = vec![EdgeOp::insert(small_base(i), small_base(i + 1))];
            let now = doomed.next().expect("enough simple edges");
            batch.extend(now.iter().map(|&(u, v)| EdgeOp::delete(u, v)));
            batch.extend(previous.iter().map(|&(u, v)| EdgeOp::insert(u, v)));
            previous = now;
            schedule.push(batch);
        }

        // The surviving multiset, tracked independently of the engine.
        let mut live: std::collections::BTreeMap<(u64, u64), usize> = Default::default();
        for op in schedule.iter().flatten() {
            let count = live.entry((op.u.min(op.v), op.u.max(op.v))).or_default();
            match op.kind {
                wcc_graph::io::OpKind::Insert => *count += 1,
                wcc_graph::io::OpKind::Delete => *count -= 1,
            }
        }
        let survivors: Vec<(u64, u64)> = live
            .iter()
            .flat_map(|(&e, &c)| std::iter::repeat_n(e, c))
            .collect();
        let surviving =
            Graph::from_edges(n, survivors.iter().map(|&(u, v)| (u as usize, v as usize))).unwrap();
        let scratch =
            well_connected_components(&surviving, lambda, &Params::test_scale(), seed).unwrap();
        let truth = connected_components(&surviving);
        assert!(scratch.components.same_partition(&truth), "seed {seed}");

        for threads in THREAD_COUNTS {
            let params = StreamParams::test_scale()
                .with_lambda(lambda)
                .with_threads(threads);
            let mut engine = IncrementalComponents::new(params, seed);
            for (b, batch) in schedule.iter().enumerate() {
                let r = engine.apply_ops_batch(batch).unwrap();
                let at = format!("seed {seed}, threads {threads}, batch {b}");
                let current = connected_components(&engine.current_graph());
                assert!(engine.labels().same_partition(&current), "{at}");
                if b == 0 {
                    continue;
                }
                assert_eq!(
                    r.path,
                    BatchPath::Recompute(RecomputeReason::StandingMerge),
                    "{at}"
                );
                assert_eq!(r.recomputed_vertices, (b + 1) * SMALL, "{at}");
                assert_eq!(r.sketch_recertifies + r.splits, 1, "{at}");
            }
            assert_eq!(engine.num_edges(), survivors.len());
            let incremental = engine.labels_for_universe(n);
            assert!(
                incremental.same_partition(&scratch.components),
                "scoped replay diverged from the from-scratch pipeline: \
                 seed {seed}, threads {threads}"
            );
        }
    }
}

fn sample_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("data")
        .join(name)
}

/// The text oracle for the checked-in samples: `[+|-] u v` lines (a bare
/// `u v` is an insertion), `#` comments skipped, cut into batches of
/// `batch` ops — parsed here independently of `wcc_graph::io`.
fn parse_text_schedule(name: &str, batch: usize) -> Vec<Vec<EdgeOp>> {
    let text = std::fs::read_to_string(sample_path(name)).unwrap();
    let ops: Vec<EdgeOp> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let tokens: Vec<&str> = l.split_whitespace().collect();
            let (delete, ids) = match tokens[0] {
                "-" => (true, &tokens[1..]),
                "+" => (false, &tokens[1..]),
                _ => (false, &tokens[..]),
            };
            let (u, v) = (ids[0].parse().unwrap(), ids[1].parse().unwrap());
            if delete {
                EdgeOp::delete(u, v)
            } else {
                EdgeOp::insert(u, v)
            }
        })
        .collect();
    ops.chunks(batch).map(<[EdgeOp]>::to_vec).collect()
}

/// Each checked-in binary sample is exactly its text source packed at its
/// documented batch size: packing the text through the library reproduces
/// the file byte for byte, and decoding the file gives the text's batches.
#[test]
fn checked_in_samples_match_their_text_sources() {
    use wcc_graph::io::{pack_op_list, read_op_chunks_file, CHUNK_FORMAT_VERSION_V2};
    for (text, binary, batch, version) in [
        (
            "sample_graph.txt",
            "sample_batches.wccs",
            6,
            CHUNK_FORMAT_VERSION,
        ),
        (
            "sample_ops.txt",
            "sample_batches_v2.wccs",
            7,
            CHUNK_FORMAT_VERSION_V2,
        ),
    ] {
        let source = std::io::BufReader::new(std::fs::File::open(sample_path(text)).unwrap());
        let mut packed = Vec::new();
        let summary = pack_op_list(source, &mut packed, batch, version).unwrap();
        assert_eq!(
            packed,
            std::fs::read(sample_path(binary)).unwrap(),
            "{binary}"
        );

        let oracle = parse_text_schedule(text, batch);
        assert_eq!(summary.chunks, oracle.len());
        assert_eq!(
            summary.records as usize,
            oracle.iter().map(Vec::len).sum::<usize>()
        );
        assert_eq!(
            read_op_chunks_file(&sample_path(binary)).unwrap(),
            oracle,
            "{binary}"
        );
    }
}

/// Version-1 streams replay through the op reader exactly like the edges
/// they encode: the engine fed `data/sample_batches.wccs` through the op
/// reader takes the same path, rounds and words per batch, and ends in the
/// same partition, as the engine fed the text source's edge batches — and
/// the insert-only replay never builds the deletion sketch.
#[test]
fn v1_chunk_streams_replay_identically_through_the_op_reader() {
    let path = sample_path("sample_batches.wccs");
    let (version, _) = wcc_graph::io::read_op_chunk_frames(std::io::BufReader::new(
        std::fs::File::open(&path).unwrap(),
    ))
    .unwrap();
    assert_eq!(version, CHUNK_FORMAT_VERSION);
    let op_batches = wcc_graph::io::read_op_chunks_file(&path).unwrap();
    let edge_batches: Vec<Vec<(u64, u64)>> = parse_text_schedule("sample_graph.txt", 6)
        .iter()
        .map(|b| b.iter().map(|op| (op.u, op.v)).collect())
        .collect();

    let mut oracle = IncrementalComponents::new(StreamParams::test_scale(), 7);
    let oracle_reports = oracle.apply_schedule(&edge_batches).unwrap();
    let mut decoded = IncrementalComponents::new(StreamParams::test_scale(), 7);
    let decoded_reports = decoded.apply_ops_schedule(&op_batches).unwrap();

    assert_eq!(oracle_reports.len(), decoded_reports.len());
    for (o, d) in oracle_reports.iter().zip(&decoded_reports) {
        assert_eq!(o.path, d.path);
        assert_eq!(o.rounds, d.rounds);
        assert_eq!(o.communication_words, d.communication_words);
        assert_eq!((o.insertions, o.deletions), (d.insertions, d.deletions));
    }
    assert_eq!(oracle.num_edges(), decoded.num_edges());
    assert!(oracle.labels().same_partition(&decoded.labels()));
    assert!(!decoded.sketch_active(), "an insert-only replay stays lazy");
}
