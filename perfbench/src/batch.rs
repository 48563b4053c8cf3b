//! `batch_expander`: the paper's flagship input through the batch pipeline.
//!
//! Two planted degree-8 expanders (the `pipeline_adaptive_e2e` shape at a
//! size that fits several solves in one run) solved by `adaptive_components`
//! at one worker per CPU. The walk kernel and contraction do all the work;
//! the stream, sketch and serve layers do none.

use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wcc_core::leader::{finish_with_bfs_over_refs, grow_components};
use wcc_core::pipeline::recommended_config;
use wcc_core::regularize::regularize;
use wcc_core::walks::{randomize, WalkMode};
use wcc_core::{adaptive_components, CoreError, Params};
use wcc_graph::spectral::mixing_time_bound;
use wcc_graph::{connected_components, generators, ComponentLabels, Graph};
use wcc_mpc::{Executor, MpcContext, RoundStats};

use crate::json::J;
use crate::stats::{median, quantile};
use crate::sys::{nproc, peak_rss_mib};
use crate::trace::Tracer;
use crate::{Args, Outcome};

const VERTICES: usize = 8_000;
const DEGREE: usize = 8;
/// Set-ups timed back to back before the first solve and again after each
/// solve; `setup_s` is the median of all of them. A set-up takes a few
/// milliseconds and its time drifts with the shared host over seconds, so
/// the samples are spread over the whole run, as the solves are.
const SETUPS: usize = 15;
/// Graphs per run, solved in turn. A solve's time depends on the graph the
/// seed draws by several percent, so each run times several graphs.
const GRAPHS: u64 = 3;

fn generate(seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    generators::planted_expander_components(&[VERTICES / 2, VERTICES / 2], DEGREE, &mut rng)
}

/// The run's graphs and their true labels, the inputs every solve uses and
/// is checked against: `GRAPHS` graphs, each from its own seed derived
/// from the run's.
fn inputs(seed: u64) -> (Vec<Graph>, Vec<ComponentLabels>) {
    let gs: Vec<Graph> = (0..GRAPHS)
        .map(|i| generate(seed.wrapping_mul(GRAPHS).wrapping_add(i)))
        .collect();
    let truths = gs.iter().map(connected_components).collect();
    (gs, truths)
}

/// Makes the run's inputs `SETUPS` times over and adds each time to
/// `times`.
fn setup(seed: u64, times: &mut Vec<f64>) -> (Vec<Graph>, Vec<ComponentLabels>) {
    let mut made = (Vec::new(), Vec::new());
    for _ in 0..SETUPS {
        let t = Instant::now();
        let next = inputs(seed);
        times.push(t.elapsed().as_secs_f64());
        made = next;
    }
    made
}

/// Whether a solve is right: exact components, and the model quantities
/// (rounds and words) of the graph's first solve, which the seed fixes.
fn solve_ok(
    labels: &ComponentLabels,
    stats: &RoundStats,
    truth: &ComponentLabels,
    model: (u64, u64),
) -> bool {
    labels == truth
        && stats.total_rounds() == model.0
        && stats.total_communication_words() == model.1
}

pub fn measure(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let (gs, truths) = setup(args.seed, &mut setup_s);
    let params = Params::laptop_scale().with_threads(nproc());

    // An untimed solve of the first graph warms caches and the worker pool.
    let first = adaptive_components(&gs[0], &params, args.seed).map_err(|e| e.to_string())?;
    let mut models: Vec<Option<(u64, u64)>> = vec![None; gs.len()];
    models[0] = Some((
        first.stats.total_rounds(),
        first.stats.total_communication_words(),
    ));
    let mut failed = u64::from(first.components != truths[0]);

    let mut times_ms = Vec::new();
    let mut edges = 0usize;
    let start = Instant::now();
    while times_ms.len() < gs.len() || start.elapsed().as_secs_f64() < args.seconds {
        // Graph 0 is warm already, so the rotation starts at graph 1.
        let k = (times_ms.len() + 1) % gs.len();
        let t = Instant::now();
        let result = adaptive_components(&gs[k], &params, args.seed);
        times_ms.push(t.elapsed().as_secs_f64() * 1e3);
        edges += gs[k].num_edges();
        let ok = result.is_ok_and(|r| {
            let model = *models[k]
                .get_or_insert((r.stats.total_rounds(), r.stats.total_communication_words()));
            solve_ok(&r.components, &r.stats, &truths[k], model)
        });
        failed += u64::from(!ok);
        setup(args.seed, &mut setup_s);
    }
    out.metric("setup_s", median(&setup_s), "s");
    out.samples.push(("setup_s", setup_s.len()));
    out.tally(1 + times_ms.len() as u64, failed);
    out.metric("batch_p50_ms", median(&times_ms), "ms");
    out.detail
        .push(("batch_p90_ms", J::Num(quantile(&times_ms, 0.9))));
    let total_s: f64 = times_ms.iter().sum::<f64>() / 1e3;
    out.metric("ingest_ops_per_s", edges as f64 / total_s, "ops/s");
    // One solve of each graph.
    let models: Vec<(u64, u64)> = models.into_iter().flatten().collect();
    out.metric(
        "mpc_rounds",
        models.iter().map(|m| m.0).sum::<u64>() as f64,
        "count",
    );
    out.metric(
        "comm_words",
        models.iter().map(|m| m.1).sum::<u64>() as f64,
        "count",
    );
    for name in ["batch_p50_ms", "ingest_ops_per_s"] {
        out.samples.push((name, times_ms.len()));
    }
    out.metric("peak_rss_mb", peak_rss_mib(None)?, "MiB");
    out.metric(
        "ok_ratio",
        1.0 - out.failed as f64 / out.attempted as f64,
        "ratio",
    );
    out.detail.push((
        "graphs",
        J::obj([
            ("count", J::Num(gs.len() as f64)),
            ("vertices", J::Num(gs[0].num_vertices() as f64)),
            ("edges", J::Num(gs[0].num_edges() as f64)),
            ("threads", J::Num(nproc() as f64)),
        ]),
    ));
    Ok(out)
}

/// Corollary 7.1's adaptive loop composed from the public phase calls, with
/// the same context sizing and RNG stream as `adaptive_components`, so its
/// labels and model `RoundStats` must equal the untraced call's. Spans wrap
/// each call.
fn traced_adaptive(
    g: &Graph,
    params: &Params,
    seed: u64,
    tr: &mut Tracer,
) -> Result<(ComponentLabels, RoundStats, usize), CoreError> {
    tr.enter("solve");
    params.validate().map_err(CoreError::BadParams)?;
    let n = g.num_vertices();
    let config = recommended_config(g, 1.0 / (n.max(2) as f64).powi(2), params);
    let mut ctx = MpcContext::new(config);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut final_label: Vec<Option<usize>> = vec![None; n];
    let mut next_label = 0usize;
    let mut active: Vec<usize> = (0..n).collect();
    let mut lambda = 0.5f64;
    let lambda_floor = 1.0 / (n.max(2) as f64 * n.max(2) as f64);
    let mut bfs_levels = 0usize;

    while !active.is_empty() && lambda >= lambda_floor {
        tr.enter("adaptive-level");
        ctx.begin_phase("adaptive-level");
        let (sub, mapping) = tr.span("induced-subgraph", |_| g.induced_subgraph(&active));
        let labels_sub = if sub.num_edges() == 0 {
            ComponentLabels::from_raw_labels(&(0..sub.num_vertices()).collect::<Vec<_>>())
        } else {
            let (labels, levels) = attempt(&sub, lambda, params, &mut ctx, &mut rng, tr)?;
            bfs_levels += levels;
            labels
        };
        tr.enter("growable-detection");
        ctx.charge_shuffle(2 * sub.num_edges());
        let mut growable = vec![false; labels_sub.num_components()];
        for (u, v) in sub.edge_iter() {
            if labels_sub.label(u) != labels_sub.label(v) {
                growable[labels_sub.label(u)] = true;
                growable[labels_sub.label(v)] = true;
            }
        }
        let mut label_map: Vec<Option<usize>> = vec![None; labels_sub.num_components()];
        let mut next_active = Vec::new();
        for (sub_v, &orig_v) in mapping.iter().enumerate() {
            let c = labels_sub.label(sub_v);
            if growable[c] {
                next_active.push(orig_v);
            } else {
                final_label[orig_v] = Some(*label_map[c].get_or_insert_with(|| {
                    next_label += 1;
                    next_label - 1
                }));
            }
        }
        tr.exit();
        ctx.end_phase();
        tr.exit();
        active = next_active;
        lambda = lambda.powf(1.1);
    }
    if !active.is_empty() {
        tr.enter("adaptive-final-exact");
        ctx.begin_phase("adaptive-final-exact");
        let (sub, mapping) = g.induced_subgraph(&active);
        let labels_sub = connected_components(&sub);
        ctx.charge_shuffle(2 * sub.num_edges());
        let mut label_map: Vec<Option<usize>> = vec![None; labels_sub.num_components()];
        for (sub_v, &orig_v) in mapping.iter().enumerate() {
            let c = labels_sub.label(sub_v);
            final_label[orig_v] = Some(*label_map[c].get_or_insert_with(|| {
                next_label += 1;
                next_label - 1
            }));
        }
        ctx.end_phase();
        tr.exit();
    }
    let raw: Vec<usize> = final_label
        .into_iter()
        .map(|l| l.expect("every vertex is labelled by the adaptive loop"))
        .collect();
    tr.exit();
    Ok((
        ComponentLabels::from_raw_labels(&raw),
        ctx.into_stats(),
        bfs_levels,
    ))
}

/// Theorem 4's three steps without the exactness endgame (the opportunistic
/// attempt each adaptive level runs). Returns the labels and BFS levels.
fn attempt(
    g: &Graph,
    lambda: f64,
    params: &Params,
    ctx: &mut MpcContext,
    rng: &mut ChaCha8Rng,
    tr: &mut Tracer,
) -> Result<(ComponentLabels, usize), CoreError> {
    let reg = tr.span("regularize", |_| regularize(g, params, ctx, rng))?;
    let n_reg = reg.graph.num_vertices();
    let gamma = params.gamma(n_reg);
    let walk_length = mixing_time_bound(lambda, n_reg, gamma, params.mixing_time_constant)
        .min(params.max_walk_length)
        .max(1);
    let mode = if params.faithful_walks {
        WalkMode::Faithful
    } else {
        WalkMode::Direct
    };
    let kernel = params.walk_kernel.resolve();
    let mut batches = Vec::new();
    for _ in 0..params.num_phases(n_reg) {
        batches.push(tr.span("randomize", |_| {
            randomize(
                &reg.graph,
                walk_length,
                params.batch_degree(n_reg),
                mode,
                kernel,
                params.layer_copies_multiplier,
                ctx,
                rng,
            )
        })?);
    }
    let grow = tr.span("grow-components", |_| {
        grow_components(&batches, params, ctx, rng)
    })?;
    let refs: Vec<&Graph> = batches.iter().collect();
    let (partition, levels) = tr.span("low-diameter-bfs", |_| {
        finish_with_bfs_over_refs(&refs, &grow.partition, ctx)
    });
    Ok((
        reg.pull_back_labels(&partition.to_component_labels()),
        levels,
    ))
}

const PHASES: [(&str, &str); 4] = [
    ("regularize", "regularize"),
    ("randomize", "randomize"),
    ("grow-components", "grow"),
    ("low-diameter-bfs", "bfs"),
];

fn phase_words(stats: &RoundStats, name: &str) -> u64 {
    stats
        .phases()
        .iter()
        .filter(|p| p.name == name)
        .map(|p| p.communication_words)
        .sum()
}

/// The traced run: one untimed reference call, one timed untraced call,
/// then the composed pipeline traced at `nproc` threads and at 1 thread.
pub fn traced(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let g = generate(args.seed.wrapping_mul(GRAPHS));
    let truth = connected_components(&g);
    let tn = nproc();
    let params = Params::laptop_scale().with_threads(tn);
    let reference = adaptive_components(&g, &params, args.seed).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let untraced = adaptive_components(&g, &params, args.seed).map_err(|e| e.to_string())?;
    let untraced_s = t.elapsed().as_secs_f64();

    let walk0 = wcc_mpc::walk_telemetry_snapshot();
    let pool0 = Executor::process_pool_telemetry();
    let mut tr = Tracer::default();
    let (labels, stats, bfs_levels) =
        traced_adaptive(&g, &params, args.seed, &mut tr).map_err(|e| e.to_string())?;
    let walk1 = wcc_mpc::walk_telemetry_snapshot();
    let pool1 = Executor::process_pool_telemetry();
    let mut tr1 = Tracer::default();
    let (labels1, stats1, _) = traced_adaptive(&g, &params.with_threads(1), args.seed, &mut tr1)
        .map_err(|e| e.to_string())?;

    // The composition must reproduce the program's own call exactly, at
    // every thread count.
    let checks = [
        reference.components == truth,
        untraced.components == truth && untraced.stats == reference.stats,
        labels == reference.components && stats == reference.stats,
        labels1 == reference.components && stats1 == reference.stats,
    ];
    out.tally(
        checks.len() as u64,
        checks.iter().filter(|&&ok| !ok).count() as u64,
    );

    for (span, short) in PHASES {
        let self_tn = tr.self_secs(span);
        let metric: &'static str = match short {
            "regularize" => "regularize.self_s",
            "randomize" => "randomize.self_s",
            "grow" => "grow.self_s",
            _ => "bfs.self_s",
        };
        out.metric(metric, self_tn, "s");
        let scaling: &'static str = match short {
            "regularize" => "regularize.scaling_t1_over_tn",
            "randomize" => "randomize.scaling_t1_over_tn",
            "grow" => "grow.scaling_t1_over_tn",
            _ => "bfs.scaling_t1_over_tn",
        };
        out.metric(scaling, tr1.self_secs(span) / self_tn, "ratio");
    }
    out.metric(
        "solve.scaling_t1_over_tn",
        tr1.total("solve") / tr.total("solve"),
        "ratio",
    );
    let steps = (walk1.steps - walk0.steps) as f64;
    out.metric("walk.steps", steps, "count");
    out.metric(
        "walk.ns_per_step",
        tr.self_secs("randomize") * 1e9 / steps,
        "ns",
    );
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
    out.metric(
        "grow.rounds",
        stats.rounds_in_phase("grow-components") as f64,
        "count",
    );
    out.metric(
        "grow.words",
        phase_words(&stats, "grow-components") as f64,
        "count",
    );
    out.metric("bfs.levels", bfs_levels as f64, "count");
    out.metric(
        "bfs.words",
        phase_words(&stats, "low-diameter-bfs") as f64,
        "count",
    );
    out.metric(
        "regularize.words",
        phase_words(&stats, "regularize") as f64,
        "count",
    );
    out.metric(
        "mpc.shuffled_bytes",
        stats.total_shuffled_bytes() as f64,
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
    out.metric(
        "trace.overhead_ratio",
        tr.total("solve") / untraced_s,
        "ratio",
    );
    out.metric(
        "trace.layer_sum_ratio",
        tr.layer_sum_ratio("adaptive-level"),
        "ratio",
    );
    let span_s: f64 = PHASES.iter().map(|(p, _)| tr.total(p)).sum();
    let phase_s: f64 = PHASES
        .iter()
        .map(|(p, _)| stats.wall_time_in_phase_ms(p) / 1e3)
        .sum();
    out.metric("trace.phase_stats_ratio", span_s / phase_s, "ratio");

    let spans = args
        .work
        .join(format!("spans-batch_expander-{}.jsonl", args.seed));
    std::fs::write(&spans, tr.to_jsonl() + &tr1.to_jsonl())
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    out.detail.push((
        "trace",
        J::obj([
            ("spans_file", J::Str(spans.display().to_string())),
            ("solve_tn_s", J::Num(tr.total("solve"))),
            ("solve_t1_s", J::Num(tr1.total("solve"))),
            ("untraced_tn_s", J::Num(untraced_s)),
            ("threads", J::Num(tn as f64)),
        ]),
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composed_pipeline_matches_adaptive_components_and_checks_fire() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = generators::planted_expander_components(&[120, 80], 8, &mut rng);
        let truth = connected_components(&g);
        let params = Params::test_scale();
        let reference = adaptive_components(&g, &params, 11).unwrap();
        let mut tr = Tracer::default();
        let (labels, stats, _) = traced_adaptive(&g, &params, 11, &mut tr).unwrap();
        assert_eq!(labels, reference.components);
        assert_eq!(stats, reference.stats);
        let model = (stats.total_rounds(), stats.total_communication_words());
        assert!(solve_ok(&labels, &stats, &truth, model));
        // A wrong label, or a changed round or word count, fails the solve.
        let mut raw = labels.labels().to_vec();
        raw[0] = raw[g.num_vertices() - 1];
        assert!(!solve_ok(
            &ComponentLabels::from_raw_labels(&raw),
            &stats,
            &truth,
            model
        ));
        assert!(!solve_ok(&labels, &stats, &truth, (model.0 + 1, model.1)));
        assert!(!solve_ok(&labels, &stats, &truth, (model.0, model.1 - 1)));
    }
}
