//! `stream_churn`: a turnstile op stream replayed through the same calls
//! `wcc stream` makes (`read_op_chunks_file_parallel`, then
//! `IncrementalComponents::apply_ops_batch` per chunk).
//!
//! Chunk 0 bootstraps the base graph (one large planted expander plus many
//! small ones) and belongs to set-up. The churn batches then exercise every
//! rung of the engine's ladder with a mix that does not depend on the seed:
//! inserts that attach new vertices to the large component or densify the
//! small ones (union-find fast path), a deletion of earlier churn edges in
//! every fourth batch (sketch repair), and two bridges between small
//! standing components (whole-graph recompute). No sockets are involved.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wcc_core::stream::{BatchReport, IncrementalComponents, StreamParams};
use wcc_graph::io::{write_op_chunks_file, EdgeOp, OpKind};
use wcc_graph::{generators, ComponentLabels, UnionFind};
use wcc_mpc::Executor;

use crate::json::J;
use crate::load::Seen;
use crate::stats::{median, quantile};
use crate::sys::{nproc, peak_rss_mib};
use crate::trace::Tracer;
use crate::{Args, Outcome};

const LARGE: usize = 2_000;
const SMALL: usize = 100;
const SMALLS: usize = 20;
const DEGREE: usize = 8;
const BATCHES: usize = 120;
/// New vertices per batch, each attached to the large component by
/// `ATTACH` edges.
const NEW_PER_BATCH: usize = 60;
const ATTACH: usize = 5;
/// Extra edges per batch between existing members of the large component,
/// and inside the small components.
const LARGE_EXTRA: usize = 60;
const SMALL_EXTRA: usize = 40;
/// Every `DELETE_EVERY`-th batch also deletes `DELETES` earlier churn edges.
const DELETE_EVERY: usize = 4;
const DELETES: usize = 100;
/// Batches that also join two small standing components.
const BRIDGES: [usize; 2] = [40, 80];
/// Labels are checked against the oracle after every `CHECK_EVERY`-th
/// batch and after the last.
const CHECK_EVERY: usize = 10;
const SETUPS: usize = 3;

/// The op schedule: chunk 0 is the base graph, chunks `1..=BATCHES` churn.
pub fn generate(seed: u64) -> Vec<Vec<EdgeOp>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut sizes = vec![LARGE];
    sizes.extend([SMALL; SMALLS]);
    let base = generators::planted_expander_components(&sizes, DEGREE, &mut rng);
    let mut next_id = base.num_vertices() as u64;
    let mut degree: Vec<u32> = (0..base.num_vertices())
        .map(|v| base.degree(v) as u32)
        .collect();
    let mut schedule = vec![base
        .edge_iter()
        .map(|(u, v)| EdgeOp::insert(u as u64, v as u64))
        .collect::<Vec<_>>()];
    let mut large: Vec<u64> = (0..LARGE as u64).collect();
    let small_member =
        |rng: &mut ChaCha8Rng, c: usize| (LARGE + c * SMALL + rng.gen_range(0..SMALL)) as u64;
    // Deletable churn edges: extra large-component edges, whose endpoints
    // keep enough other edges that a deletion never breaks the degree
    // floor certified at bootstrap.
    let mut deletable: Vec<(u64, u64)> = Vec::new();

    for b in 1..=BATCHES {
        let mut ops = Vec::new();
        if let Some(i) = BRIDGES.iter().position(|&x| x == b) {
            ops.push(EdgeOp::insert(
                small_member(&mut rng, 2 * i),
                small_member(&mut rng, 2 * i + 1),
            ));
        }
        for _ in 0..NEW_PER_BATCH {
            let v = next_id;
            next_id += 1;
            degree.push(0);
            for _ in 0..ATTACH {
                let u = large[rng.gen_range(0..large.len())];
                ops.push(EdgeOp::insert(u, v));
                degree[u as usize] += 1;
                degree[v as usize] += 1;
            }
            large.push(v);
        }
        for _ in 0..LARGE_EXTRA {
            let (u, v) = loop {
                let (u, v) = (
                    large[rng.gen_range(0..large.len())],
                    large[rng.gen_range(0..large.len())],
                );
                if u != v {
                    break (u, v);
                }
            };
            ops.push(EdgeOp::insert(u, v));
            degree[u as usize] += 1;
            degree[v as usize] += 1;
            deletable.push((u, v));
        }
        for _ in 0..SMALL_EXTRA {
            let c = rng.gen_range(0..SMALLS);
            let (u, v) = loop {
                let (u, v) = (small_member(&mut rng, c), small_member(&mut rng, c));
                if u != v {
                    break (u, v);
                }
            };
            ops.push(EdgeOp::insert(u, v));
        }
        if b % DELETE_EVERY == 0 {
            let mut deleted = 0;
            while deleted < DELETES && !deletable.is_empty() {
                let (u, v) = deletable.swap_remove(rng.gen_range(0..deletable.len()));
                if degree[u as usize] > ATTACH as u32 && degree[v as usize] > ATTACH as u32 {
                    ops.push(EdgeOp::delete(u, v));
                    degree[u as usize] -= 1;
                    degree[v as usize] -= 1;
                    deleted += 1;
                }
            }
        }
        schedule.push(ops);
    }
    schedule
}

/// Union-find over the live multiset after each checked batch: the
/// canonical labels of the vertices seen so far, in first-seen order (the
/// order `IncrementalComponents::labels` uses).
pub fn oracle_labels(schedule: &[Vec<EdgeOp>]) -> Vec<(usize, ComponentLabels)> {
    let mut seen = Seen::default();
    let mut live: HashMap<(usize, usize), i64> = HashMap::new();
    let mut out = Vec::new();
    for (b, ops) in schedule.iter().enumerate() {
        for op in ops {
            let (u, v) = (seen.add(op.u), seen.add(op.v));
            let delta = if op.kind == OpKind::Insert { 1 } else { -1 };
            *live.entry((u.min(v), u.max(v))).or_insert(0) += delta;
        }
        if is_checked(b) {
            out.push((b, final_labels(seen.order.len(), &live)));
        }
    }
    out
}

fn final_labels(n: usize, live: &HashMap<(usize, usize), i64>) -> ComponentLabels {
    let mut uf = UnionFind::new(n);
    for (&(u, v), &count) in live {
        if count > 0 {
            uf.union(u, v);
        }
    }
    uf.into_labels()
}

fn is_checked(batch: usize) -> bool {
    batch.is_multiple_of(CHECK_EVERY) || batch == BATCHES
}

struct Prepared {
    schedule: Vec<Vec<EdgeOp>>,
    /// The engine right after the bootstrap chunk.
    boot: IncrementalComponents,
    file_bytes: u64,
    decode_s: f64,
    bootstrap_s: f64,
    decoded_ok: bool,
}

fn params() -> StreamParams {
    StreamParams::laptop_scale().with_threads(nproc())
}

/// Generate, write the WCCS file, decode it as `wcc stream` does, and
/// bootstrap the engine on chunk 0.
fn prepare(args: &Args, tr: &mut Tracer) -> Result<Prepared, String> {
    let schedule = generate(args.seed);
    let path = args.work.join(format!("churn-{}.wccs", args.seed));
    write_op_chunks_file(&schedule, &path).map_err(|e| format!("{}: {e}", path.display()))?;
    let exec = Executor::threaded(nproc());
    let t = Instant::now();
    let decoded = tr
        .span("io.decode", |_| {
            wcc_mpc::stream::read_op_chunks_file_parallel(Path::new(&path), &exec)
        })
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let decode_s = t.elapsed().as_secs_f64();
    let mut boot = IncrementalComponents::new(params(), args.seed);
    let t = Instant::now();
    tr.span("stream.bootstrap", |_| boot.apply_ops_batch(&decoded[0]))
        .map_err(|e| e.to_string())?;
    Ok(Prepared {
        decoded_ok: decoded == schedule,
        file_bytes: std::fs::metadata(&path).map_err(|e| e.to_string())?.len(),
        schedule,
        boot,
        decode_s,
        bootstrap_s: t.elapsed().as_secs_f64(),
    })
}

/// One replay of the churn batches on a copy of the bootstrapped engine.
struct Replay {
    engine: IncrementalComponents,
    reports: Vec<BatchReport>,
    times_ms: Vec<f64>,
    /// Checked batches whose labels differ from the oracle's.
    wrong: u64,
    checked: u64,
}

fn replay(
    p: &Prepared,
    oracle: &[(usize, ComponentLabels)],
    mut tr: Option<&mut Tracer>,
) -> Result<Replay, String> {
    let mut r = Replay {
        engine: p.boot.clone(),
        reports: Vec::new(),
        times_ms: Vec::new(),
        wrong: 0,
        checked: 0,
    };
    if let Some(t) = tr.as_deref_mut() {
        t.enter("replay");
    }
    for (b, ops) in p.schedule.iter().enumerate().skip(1) {
        if let Some(t) = tr.as_deref_mut() {
            t.enter("batch");
        }
        let start = Instant::now();
        let report = r.engine.apply_ops_batch(ops);
        r.times_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let report = report.map_err(|e| format!("batch {b}: {e}"))?;
        if let Some(t) = tr.as_deref_mut() {
            let idx = t.exit();
            t.rename(idx, report.path.label());
        }
        r.reports.push(report);
        if let Some((_, want)) = oracle.iter().find(|(i, _)| *i == b) {
            r.checked += 1;
            r.wrong += u64::from(r.engine.labels() != *want);
        }
    }
    if let Some(t) = tr {
        t.exit();
    }
    Ok(r)
}

/// Model quantities charged by the churn batches alone.
fn churn_model(p: &Prepared, r: &Replay) -> (u64, u64) {
    let (s0, s1) = (p.boot.stats(), r.engine.stats());
    (
        s1.total_rounds() - s0.total_rounds(),
        s1.total_communication_words() - s0.total_communication_words(),
    )
}

fn churn_ops(p: &Prepared) -> usize {
    p.schedule[1..].iter().map(Vec::len).sum()
}

pub fn measure(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        prepared = Some(prepare(args, &mut Tracer::default())?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let p = prepared.expect("at least one set-up");
    out.metric("setup_s", median(&setups), "s");
    out.samples.push(("setup_s", setups.len()));
    let oracle = oracle_labels(&p.schedule);
    let boot_ok = p.decoded_ok && p.boot.labels() == oracle[0].1;
    out.tally(1, u64::from(!boot_ok));

    let mut times_ms = Vec::new();
    let mut wall_s = 0.0;
    let mut replays = 0u64;
    let mut model = None;
    let mut last = None;
    let start = Instant::now();
    while replays == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let r = replay(&p, &oracle, None)?;
        replays += 1;
        // Each batch counts as one operation; a checked batch with wrong
        // labels, or a replay whose model quantities differ from the first
        // replay's, fails.
        let m = churn_model(&p, &r);
        let model_ok = *model.get_or_insert(m) == m;
        out.tally(r.reports.len() as u64, r.wrong + u64::from(!model_ok));
        wall_s += r.times_ms.iter().sum::<f64>() / 1e3;
        times_ms.extend_from_slice(&r.times_ms);
        // Keep the summary only: holding a finished engine while the next
        // replay builds its own would double the peak memory.
        last = Some(Summary::of(&r));
    }
    let last = last.expect("at least one replay");
    let (rounds, words) = model.expect("at least one replay");
    out.metric("batch_p50_ms", median(&times_ms), "ms");
    out.detail
        .push(("batch_p90_ms", J::Num(quantile(&times_ms, 0.9))));
    out.metric(
        "ingest_ops_per_s",
        (churn_ops(&p) as u64 * replays) as f64 / wall_s,
        "ops/s",
    );
    out.metric("mpc_rounds", rounds as f64, "count");
    out.metric("comm_words", words as f64, "count");
    for name in ["batch_p50_ms", "ingest_ops_per_s"] {
        out.samples.push((name, times_ms.len()));
    }
    out.detail
        .push(("churn", describe(&p, &last, replays, &times_ms)));

    out.metric("peak_rss_mb", peak_rss_mib(None)?, "MiB");
    out.metric(
        "ok_ratio",
        1.0 - out.failed as f64 / out.attempted as f64,
        "ratio",
    );
    Ok(out)
}

fn path_count(reports: &[BatchReport], label: &str) -> usize {
    reports
        .iter()
        .filter(|x| x.path.label().starts_with(label))
        .count()
}

/// What the record keeps of a replay.
struct Summary {
    paths: [usize; 3],
    final_vertices: usize,
    final_edges: usize,
}

impl Summary {
    fn of(r: &Replay) -> Summary {
        Summary {
            paths: ["fast-path", "sketch-repair", "recompute"].map(|l| path_count(&r.reports, l)),
            final_vertices: r.engine.num_vertices(),
            final_edges: r.engine.num_edges(),
        }
    }
}

fn describe(p: &Prepared, r: &Summary, replays: u64, times_ms: &[f64]) -> J {
    J::obj([
        ("base_vertices", J::Num((LARGE + SMALL * SMALLS) as f64)),
        ("batches", J::Num(BATCHES as f64)),
        ("churn_ops", J::Num(churn_ops(p) as f64)),
        ("replays", J::Num(replays as f64)),
        (
            "beyond_p90",
            J::Num(crate::stats::beyond(times_ms, 0.9) as f64),
        ),
        ("fast_path", J::Num(r.paths[0] as f64)),
        ("sketch_repair", J::Num(r.paths[1] as f64)),
        ("recompute", J::Num(r.paths[2] as f64)),
        ("final_vertices", J::Num(r.final_vertices as f64)),
        ("final_edges", J::Num(r.final_edges as f64)),
    ])
}

/// The traced run: decode and bootstrap under spans, one untraced replay,
/// then one replay with a span per batch named by the path it took.
pub fn traced(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tr = Tracer::default();
    let p = prepare(args, &mut tr)?;
    let oracle = oracle_labels(&p.schedule);
    let untraced = replay(&p, &oracle, None)?;
    let untraced_s: f64 = untraced.times_ms.iter().sum::<f64>() / 1e3;

    let walk0 = wcc_mpc::walk_telemetry_snapshot();
    let pool0 = Executor::process_pool_telemetry();
    let r = replay(&p, &oracle, Some(&mut tr))?;
    let walk1 = wcc_mpc::walk_telemetry_snapshot();
    let pool1 = Executor::process_pool_telemetry();
    let model_ok = churn_model(&p, &r) == churn_model(&p, &untraced);
    out.tally(
        2 + r.reports.len() as u64,
        r.wrong
            + u64::from(!model_ok)
            + u64::from(!p.decoded_ok)
            + u64::from(p.boot.labels() != oracle[0].1),
    );

    out.metric("io.decode_s", p.decode_s, "s");
    out.metric(
        "io.decode_mb_per_s",
        p.file_bytes as f64 / 1e6 / p.decode_s,
        "MB/s",
    );
    out.metric("io.chunks", p.schedule.len() as f64, "count");
    out.metric("stream.bootstrap_s", p.bootstrap_s, "s");
    out.metric("stream.batch_p90_ms", quantile(&r.times_ms, 0.9), "ms");
    let replay_s = tr.total("replay");
    let mut recompute_s = 0.0;
    for (label, batches, ms) in [
        (
            "fast-path",
            "stream.fast_path.batches",
            "stream.fast_path.ms_per_batch",
        ),
        (
            "sketch-repair",
            "stream.sketch_repair.batches",
            "stream.sketch_repair.ms_per_batch",
        ),
        (
            "recompute",
            "stream.recompute.batches",
            "stream.recompute.ms_per_batch",
        ),
    ] {
        let spans: Vec<f64> = tr
            .spans()
            .iter()
            .filter(|s| s.name.starts_with(label))
            .map(|s| s.secs())
            .collect();
        let total: f64 = spans.iter().sum();
        if label == "recompute" {
            recompute_s = total;
        }
        out.metric(batches, spans.len() as f64, "count");
        out.metric(
            ms,
            if spans.is_empty() {
                0.0
            } else {
                total * 1e3 / spans.len() as f64
            },
            "ms",
        );
    }
    out.metric("stream.recompute.share", recompute_s / replay_s, "ratio");
    out.metric(
        "stream.escalation_ratio",
        path_count(&r.reports, "recompute") as f64 / r.reports.len() as f64,
        "ratio",
    );
    out.metric(
        "stream.splits",
        (r.engine.splits() - p.boot.splits()) as f64,
        "count",
    );
    out.metric(
        "stream.recertifies",
        (r.engine.sketch_recertifies() - p.boot.sketch_recertifies()) as f64,
        "count",
    );
    // The recomputes run the Theorem-4 phases inside the engine, where the
    // benchmark cannot place spans: their self times come from the
    // program's own phase timers.
    let (s0, s1) = (p.boot.stats(), r.engine.stats());
    let phase_s =
        |name: &str| (s1.wall_time_in_phase_ms(name) - s0.wall_time_in_phase_ms(name)) / 1e3;
    out.metric("regularize.self_s", phase_s("regularize"), "s");
    out.metric("randomize.self_s", phase_s("randomize"), "s");
    out.metric("grow.self_s", phase_s("grow-components"), "s");
    out.metric("bfs.self_s", phase_s("low-diameter-bfs"), "s");
    let steps = (walk1.steps - walk0.steps) as f64;
    out.metric("walk.steps", steps, "count");
    if steps > 0.0 {
        out.metric("walk.ns_per_step", phase_s("randomize") * 1e9 / steps, "ns");
        out.metric(
            "walk.keystream_words_per_step",
            (walk1.keystream_words - walk0.keystream_words) as f64 / steps,
            "words/step",
        );
        out.metric(
            "walk.moves_ratio",
            (walk1.moves - walk0.moves) as f64 / steps,
            "ratio",
        );
    }
    out.metric(
        "mpc.shuffled_bytes",
        (s1.total_shuffled_bytes() - s0.total_shuffled_bytes()) as f64,
        "bytes",
    );
    out.metric(
        "executor.dispatches",
        (pool1.dispatches - pool0.dispatches) as f64,
        "count",
    );
    out.metric(
        "executor.stolen_chunks",
        (pool1.chunks_stolen - pool0.chunks_stolen) as f64,
        "count",
    );
    out.metric(
        "executor.parks",
        (pool1.parks - pool0.parks) as f64,
        "count",
    );
    out.metric("trace.overhead_ratio", replay_s / untraced_s, "ratio");
    out.metric(
        "trace.layer_sum_ratio",
        tr.layer_sum_ratio("replay"),
        "ratio",
    );
    let reported_s: f64 = r.reports.iter().map(|x| x.wall_time_ms).sum::<f64>() / 1e3;
    out.metric(
        "trace.phase_stats_ratio",
        (replay_s - tr.self_secs("replay")) / reported_s,
        "ratio",
    );

    let spans = args
        .work
        .join(format!("spans-stream_churn-{}.jsonl", args.seed));
    std::fs::write(&spans, tr.to_jsonl()).map_err(|e| format!("{}: {e}", spans.display()))?;
    out.detail
        .push(("churn", describe(&p, &Summary::of(&r), 1, &r.times_ms)));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_valid() {
        let a = generate(5);
        assert_eq!(a, generate(5));
        assert_ne!(a, generate(6));
        assert_eq!(a.len(), BATCHES + 1);
        // Every deletion removes a live copy.
        let mut live: HashMap<(u64, u64), i64> = HashMap::new();
        for op in a.iter().flatten() {
            let c = live.entry((op.u.min(op.v), op.u.max(op.v))).or_insert(0);
            *c += if op.kind == OpKind::Insert { 1 } else { -1 };
            assert!(*c >= 0);
        }
        assert!(a[DELETE_EVERY].iter().any(|op| op.kind == OpKind::Delete));
    }

    #[test]
    fn label_check_fires_on_a_corrupted_labelling() {
        let schedule = generate(5);
        let oracle = oracle_labels(&schedule[..1]);
        let mut engine = IncrementalComponents::new(StreamParams::test_scale(), 5);
        engine.apply_ops_batch(&schedule[0]).unwrap();
        assert_eq!(engine.labels(), oracle[0].1);
        // Merge two components in the labelling: the check must see it.
        let mut raw = engine.labels().labels().to_vec();
        let last = raw.len() - 1;
        raw[last] = raw[0];
        assert_ne!(ComponentLabels::from_raw_labels(&raw), oracle[0].1);
    }
}
