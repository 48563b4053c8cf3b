//! `perfbench` — the repository's seeded, self-checking benchmark.
//!
//! ```text
//! perfbench --workload <batch_expander|stream_churn|serve_live> --seed <n>
//!           --seconds <s> --trace <0|1> --wcc <path-to-wcc-binary> --work <dir>
//! ```
//!
//! Every input is generated from `--seed`; the program under test sees only
//! the generated graph, WCCS file or query traffic. Every output is checked
//! against an oracle (union-find or BFS over the same input). The last
//! stdout line is the result object; the line before it is the run's record
//! (seed, host, revision, sample counts, per-workload detail). With
//! `--trace 1` the run is the separate traced run that reports per-layer
//! metrics and writes its spans to `<work>/spans-<workload>-<seed>.jsonl`.
//! `perfbench/README.md` documents the workloads and metrics.

mod batch;
mod churn;
mod json;
mod load;
mod serve;
mod stats;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use json::J;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `wcc` binary `serve_live` runs as a separate process.
    pub wcc: PathBuf,
    /// Scratch directory for generated files, inside the checkout.
    pub work: PathBuf,
}

/// What one run reports: every metric of its mode, the tallies behind
/// `correct`, and the detail that goes into the record.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Sample count behind each timing metric.
    pub samples: Vec<(&'static str, usize)>,
    pub detail: Vec<(&'static str, J)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        wcc: PathBuf::new(),
        work: PathBuf::from(".bench_build/perfbench-work"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must lie in (0, 120]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--wcc" => args.wcc = PathBuf::from(value),
            "--work" => args.work = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// The end-to-end metrics, in the order `BENCHMARK.json` lists them. Every
/// workload reports all of them.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "peak_rss_mb",
    "ok_ratio",
    "batch_p50_ms",
    "ingest_ops_per_s",
    "mpc_rounds",
    "comm_words",
];

/// The per-layer metrics of the traced run, with units. Every traced run
/// reports all of them; a layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("randomize.self_s", "s"),
    ("walk.steps", "count"),
    ("walk.ns_per_step", "ns"),
    ("walk.keystream_words_per_step", "words/step"),
    ("walk.moves_ratio", "ratio"),
    ("randomize.scaling_t1_over_tn", "ratio"),
    ("grow.self_s", "s"),
    ("grow.rounds", "count"),
    ("grow.words", "count"),
    ("grow.scaling_t1_over_tn", "ratio"),
    ("bfs.self_s", "s"),
    ("bfs.levels", "count"),
    ("bfs.words", "count"),
    ("bfs.scaling_t1_over_tn", "ratio"),
    ("regularize.self_s", "s"),
    ("regularize.words", "count"),
    ("regularize.scaling_t1_over_tn", "ratio"),
    ("mpc.shuffled_bytes", "bytes"),
    ("executor.dispatches", "count"),
    ("executor.stolen_chunks", "count"),
    ("executor.parks", "count"),
    ("io.decode_s", "s"),
    ("io.decode_mb_per_s", "MB/s"),
    ("io.chunks", "count"),
    ("stream.bootstrap_s", "s"),
    ("stream.batch_p90_ms", "ms"),
    ("stream.fast_path.batches", "count"),
    ("stream.fast_path.ms_per_batch", "ms"),
    ("stream.sketch_repair.batches", "count"),
    ("stream.sketch_repair.ms_per_batch", "ms"),
    ("stream.recompute.batches", "count"),
    ("stream.recompute.ms_per_batch", "ms"),
    ("stream.recompute.share", "ratio"),
    ("stream.escalation_ratio", "ratio"),
    ("stream.splits", "count"),
    ("stream.recertifies", "count"),
    ("serve.publish_us", "us"),
    ("serve.snapshot_lookup_ns", "ns"),
    ("serve.protocol_roundtrip_ns", "ns"),
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.client_p50_us", "us"),
    ("serve.client_p99_us", "us"),
    ("serve.not_found_ratio", "ratio"),
    ("serve.max_qps_under_slo", "qps"),
    ("loadgen.lag_p99_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.layer_sum_ratio", "ratio"),
    ("trace.phase_stats_ratio", "ratio"),
    ("solve.scaling_t1_over_tn", "ratio"),
];

/// Fills in every per-layer metric the workload did not set, as 0.
fn complete_per_layer(out: &mut Outcome) {
    for (name, unit) in PER_LAYER {
        if !out.metrics.iter().any(|(n, _, _)| *n == name) {
            out.metrics.push((name, 0.0, unit));
        }
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.work).map_err(|e| format!("{}: {e}", args.work.display()))?;
    let mut out = match (args.workload.as_str(), args.trace) {
        ("batch_expander", false) => batch::measure(args)?,
        ("batch_expander", true) => batch::traced(args)?,
        ("stream_churn", false) => churn::measure(args)?,
        ("stream_churn", true) => churn::traced(args)?,
        ("serve_live", false) => serve::measure(args)?,
        ("serve_live", true) => serve::traced(args)?,
        (other, _) => return Err(format!("unknown workload {other:?}")),
    };
    if args.trace {
        complete_per_layer(&mut out);
        out.metrics
            .retain(|(n, _, _)| PER_LAYER.iter().any(|(p, _)| p == n));
    } else {
        for name in END_TO_END {
            if !out.metrics.iter().any(|(n, _, _)| *n == name) {
                return Err(format!("workload did not measure {name}"));
            }
        }
        out.metrics.retain(|(n, _, _)| END_TO_END.contains(n));
    }
    Ok(out)
}

/// Deletes the generated WCCS files: the seed reproduces them, and a
/// serve_live schedule is several MB per run.
fn remove_inputs(work: &std::path::Path) {
    for entry in std::fs::read_dir(work).into_iter().flatten().flatten() {
        if entry.path().extension().is_some_and(|x| x == "wccs") {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = run(&args);
    remove_inputs(&args.work);
    let out = match out {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let record = J::obj([
        ("workload", J::Str(args.workload.clone())),
        ("seed", J::Num(args.seed as f64)),
        ("seconds", J::Num(args.seconds)),
        ("trace", J::Bool(args.trace)),
        ("nproc", J::Num(sys::nproc() as f64)),
        ("cpu", J::Str(sys::cpu_model())),
        ("git_rev", J::Str(sys::git_rev())),
        (
            "samples",
            J::obj(out.samples.iter().map(|&(n, c)| (n, J::Num(c as f64)))),
        ),
        ("detail", J::obj(out.detail.clone())),
    ]);
    let record_line = J::obj([("perfbench_record", record)]).to_string();
    let record_path = args.work.join(format!(
        "record-{}-{}-{}.json",
        args.workload,
        args.seed,
        if args.trace { "trace" } else { "timed" }
    ));
    if let Err(e) = std::fs::write(&record_path, &record_line) {
        eprintln!("perfbench: {}: {e}", record_path.display());
        return ExitCode::FAILURE;
    }
    let result = J::obj([
        ("correct", J::Bool(out.failed == 0)),
        ("attempted", J::Num(out.attempted.max(1) as f64)),
        ("failed", J::Num(out.failed as f64)),
        (
            "metrics",
            J::obj(out.metrics.iter().map(|&(name, value, unit)| {
                (
                    name,
                    J::obj([("value", J::Num(value)), ("unit", J::Str(unit.to_string()))]),
                )
            })),
        ),
    ]);
    println!("{record_line}");
    println!("{result}");
    ExitCode::SUCCESS
}
