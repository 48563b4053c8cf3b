//! `serve_live`: the `wcc serve` process answering queries while it ingests.
//!
//! The schedule follows the shape of the service's earlier load tests: two
//! 2000-vertex degree-16 communities (32k bootstrap edges), then batches of
//! 2000 inserts that attach 250 new vertices to the communities, so every
//! batch changes the published snapshot and takes the union-find fast path.
//! The server ingests one batch every `INGEST_DELAY_MS`, and the schedule
//! is long enough that ingestion runs through the whole query window (one
//! pass; a second pass would re-insert the bootstrap chunk and change the
//! batch mix mid-run). Queries come from the benchmark's open-loop generator and
//! every answer is checked against the truth of the epoch stamped on it.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wcc_core::serve::{Request, Response, Server};
use wcc_core::stream::{IncrementalComponents, StreamParams};
use wcc_graph::io::{write_op_chunks_file, EdgeOp};
use wcc_graph::{generators, UnionFind};
use wcc_mpc::Executor;

use crate::json::{self, J};
use crate::load::{self, Oracle, Seen, Truth};
use crate::stats::{median, quantile};
use crate::sys::{nproc, peak_rss_mib};
use crate::trace::Tracer;
use crate::{Args, Outcome};

const COMMUNITY: usize = 2_000;
const BOOT_DEGREE: usize = 16;
const NEW_PER_BATCH: usize = 250;
const ATTACH: usize = 8;
const INGEST_DELAY_MS: f64 = 100.0;
/// Extra ingest time beyond the query window, so ingestion overlaps all of
/// it even when the server runs late.
const INGEST_SLACK_S: f64 = 2.0;
/// Query ids: the bootstrap vertices plus the first `EXTRA_IDS` that
/// arrive later, which answer NOT_FOUND until they do.
const EXTRA_IDS: u64 = 1_000;
const SETUPS: usize = 3;
/// Seconds per probe of the rate ladder in the traced run.
const LADDER_STEP_S: f64 = 0.5;
/// Query time the traced run's schedule allows for the ladder beyond the
/// fixed-rate phase: twice its probes' time, for the drains between them.
const LADDER_BUDGET_S: f64 = 2.0 * load::LADDER_PROBES as f64 * LADDER_STEP_S;

/// Batches after the bootstrap chunk, enough to outlast `seconds` of
/// queries.
fn batches(seconds: f64) -> usize {
    ((seconds + INGEST_SLACK_S) * 1e3 / INGEST_DELAY_MS).ceil() as usize
}

pub fn generate(seed: u64, batches: usize) -> Vec<Vec<EdgeOp>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let base =
        generators::planted_expander_components(&[COMMUNITY, COMMUNITY], BOOT_DEGREE, &mut rng);
    let mut members: [Vec<u64>; 2] = [
        (0..COMMUNITY as u64).collect(),
        (COMMUNITY as u64..2 * COMMUNITY as u64).collect(),
    ];
    let mut schedule = vec![base
        .edge_iter()
        .map(|(u, v)| EdgeOp::insert(u as u64, v as u64))
        .collect::<Vec<_>>()];
    let mut next_id = base.num_vertices() as u64;
    for _ in 0..batches {
        let mut ops = Vec::with_capacity(NEW_PER_BATCH * ATTACH);
        for i in 0..NEW_PER_BATCH {
            let side = &mut members[i % 2];
            for _ in 0..ATTACH {
                ops.push(EdgeOp::insert(side[rng.gen_range(0..side.len())], next_id));
            }
            side.push(next_id);
            next_id += 1;
        }
        schedule.push(ops);
    }
    schedule
}

/// Truth of every epoch: epoch `e` has ingested chunks `0..e`.
fn epoch_oracle(schedule: &[Vec<EdgeOp>]) -> Oracle {
    let mut seen = Seen::default();
    let mut uf = UnionFind::new(0);
    let mut epochs = vec![Some(Truth::default())];
    for ops in schedule {
        for op in ops {
            let (u, v) = (seen.add(op.u), seen.add(op.v));
            while uf.len() < seen.order.len() {
                uf.push();
            }
            uf.union(u, v);
        }
        let roots: Vec<usize> = (0..seen.order.len()).map(|i| uf.find(i)).collect();
        epochs.push(Some(Truth::new(&seen.order, |i| roots[i])));
    }
    Oracle { epochs }
}

fn query_ids() -> Vec<u64> {
    (0..2 * COMMUNITY as u64 + EXTRA_IDS).collect()
}

/// A `wcc serve` process; killed and reaped if dropped while running.
struct ServeProcess {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl ServeProcess {
    fn spawn(wcc: &Path, file: &Path, seed: u64) -> Result<ServeProcess, String> {
        let mut child = Command::new(wcc)
            .arg("serve")
            .arg(file)
            .args(["--addr", "127.0.0.1:0", "--repeat", "1"])
            .args(["--ingest-delay-ms", &INGEST_DELAY_MS.to_string()])
            .args([
                "--threads",
                &nproc().to_string(),
                "--seed",
                &seed.to_string(),
            ])
            // A safety net: a server the benchmark lost track of exits on
            // its own this long after its last batch.
            .args(["--exit-after", "60", "--json"])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", wcc.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("LISTENING ")
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(ServeProcess {
                child,
                stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "wcc serve did not report its address (got {line:?})"
                ))
            }
        }
    }

    /// Sends SHUTDOWN, waits for the process to exit and returns its JSON
    /// record (the last stdout line).
    fn shutdown(mut self) -> Result<J, String> {
        let _ = load::exchange(self.addr, Request::Shutdown);
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .map_err(|e| e.to_string())?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("wcc serve exited with {status}"));
        }
        let last = rest.lines().last().ok_or("wcc serve printed no record")?;
        json::parse(last)
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Generates and writes a schedule that outlasts `query_s` seconds of
/// queries.
fn write_schedule(args: &Args, query_s: f64) -> Result<(Vec<Vec<EdgeOp>>, PathBuf), String> {
    let schedule = generate(args.seed, batches(query_s));
    let path = args.work.join(format!("serve-{}.wccs", args.seed));
    write_op_chunks_file(&schedule, &path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((schedule, path))
}

/// Generate and write the schedule, start the server and wait for the
/// bootstrap epoch.
fn setup(args: &Args) -> Result<(Vec<Vec<EdgeOp>>, ServeProcess), String> {
    let (schedule, path) = write_schedule(args, args.seconds)?;
    let server = ServeProcess::spawn(&args.wcc, &path, args.seed)?;
    load::wait_epoch(server.addr, 1, Duration::from_secs(120))?;
    Ok((schedule, server))
}

pub fn measure(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut kept: Option<(Vec<Vec<EdgeOp>>, ServeProcess)> = None;
    for _ in 0..SETUPS {
        if let Some((_, earlier)) = kept.take() {
            earlier.shutdown()?;
        }
        let t = Instant::now();
        kept = Some(setup(args)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let (schedule, server) = kept.expect("at least one set-up");
    out.metric("setup_s", median(&setups), "s");
    out.samples.push(("setup_s", setups.len()));
    let oracle = epoch_oracle(&schedule);

    let queries = load::run_phase(
        server.addr,
        load::FIXED_QPS,
        args.seconds,
        load::connections(),
        &query_ids(),
        args.seed,
        &oracle,
    );
    let last_epoch = schedule.len() as u64;
    let reached = load::wait_epoch(server.addr, last_epoch, Duration::from_secs(120));
    let rss = peak_rss_mib(Some(server.child.id()));
    let stats = load::stats(server.addr);
    let record = server.shutdown()?;
    reached?;
    let stats = stats?;
    queries.report(&mut out);
    out.metric("peak_rss_mb", rss?, "MiB");

    // Per-batch apply times and model quantities from the server's own
    // record. Record entry `b` is the batch that published epoch `b + 1`,
    // so the batches ingested while the queries ran are those between the
    // lowest and highest epoch the answers carried; entry 0, the bootstrap,
    // is set-up.
    let batches = record
        .get("batches")
        .and_then(J::arr)
        .ok_or("wcc serve record has no batches array")?;
    let field = |b: &J, k: &str| b.get(k).and_then(J::num).unwrap_or(f64::NAN);
    let churn = &batches[1.min(batches.len())..];
    let (lo, hi) = queries.epochs.ok_or("no answer carried an epoch")?;
    let during =
        &batches[(lo as usize).max(1).min(batches.len())..(hi as usize).min(batches.len())];
    let times_ms: Vec<f64> = during.iter().map(|b| field(b, "wall_time_ms")).collect();
    let ops: f64 = during.iter().map(|b| field(b, "edges")).sum();
    let fast = churn
        .iter()
        .filter(|b| b.get("path").and_then(J::str) == Some("fast-path"))
        .count();
    let complete = churn.len() + 1 == schedule.len()
        && churn.iter().all(|b| field(b, "wall_time_ms").is_finite());
    out.tally(churn.len() as u64 + 1, u64::from(!complete));
    out.metric("batch_p50_ms", median(&times_ms), "ms");
    out.detail
        .push(("batch_p90_ms", J::Num(quantile(&times_ms, 0.9))));
    out.metric(
        "ingest_ops_per_s",
        ops / (times_ms.iter().sum::<f64>() / 1e3),
        "ops/s",
    );
    out.metric(
        "mpc_rounds",
        churn.iter().map(|b| field(b, "rounds")).sum(),
        "count",
    );
    out.metric(
        "comm_words",
        churn.iter().map(|b| field(b, "communication_words")).sum(),
        "count",
    );
    for name in ["batch_p50_ms", "ingest_ops_per_s"] {
        out.samples.push((name, times_ms.len()));
    }
    out.metric(
        "ok_ratio",
        1.0 - out.failed as f64 / out.attempted as f64,
        "ratio",
    );
    out.detail.push((
        "ingest",
        J::obj([
            ("batches", J::Num(churn.len() as f64)),
            ("batches_during_queries", J::Num(times_ms.len() as f64)),
            (
                "batch_ms_deciles",
                J::Arr(
                    (0..=10)
                        .map(|d| J::Num(quantile(&times_ms, d as f64 / 10.0)))
                        .collect(),
                ),
            ),
            ("fast_path", J::Num(fast as f64)),
            (
                "beyond_p90",
                J::Num(crate::stats::beyond(&times_ms, 0.9) as f64),
            ),
            ("ingest_delay_ms", J::Num(INGEST_DELAY_MS)),
            ("server_queries", J::Num(stats.queries as f64)),
            (
                "server_p50_us",
                J::Num(load::bucket_quantile_us(&stats.latency_buckets, 0.5)),
            ),
            (
                "server_p99_us",
                J::Num(load::bucket_quantile_us(&stats.latency_buckets, 0.99)),
            ),
        ]),
    ));
    Ok(out)
}

/// Whether churn batch `i` of a traced pass carries spans.
fn is_traced(i: usize) -> bool {
    i.is_multiple_of(2)
}

/// One in-process ingest pass: what the `wcc serve` loop does, with spans
/// around the ingest, snapshot and publish calls of every other batch,
/// while the generator offers the fixed rate and then climbs the rate
/// ladder. Ingestion stops when the load does.
struct Pass {
    bootstrap_s: f64,
    /// Busy time of each churn batch (apply + snapshot + publish), in s.
    busy_s: Vec<f64>,
    reports: Vec<wcc_core::stream::BatchReport>,
    /// The fixed-rate phase, and the server's latency histogram at its end.
    load: load::PhaseOut,
    server_buckets: Vec<u64>,
    ladder: load::LadderOut,
    /// Whether batches were still being ingested when the load ended.
    ingest_outlasted_load: bool,
    /// Queries the server answered over the whole pass.
    server_queries: u64,
    engine: IncrementalComponents,
}

fn pass(
    args: &Args,
    schedule: &[Vec<EdgeOp>],
    oracle: &Oracle,
    tr: &mut Tracer,
) -> Result<Pass, String> {
    let server = Server::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let mut engine = IncrementalComponents::new(
        StreamParams::laptop_scale().with_threads(nproc()),
        args.seed,
    );
    let t = Instant::now();
    engine
        .apply_ops_batch(&schedule[0])
        .map_err(|e| e.to_string())?;
    let bootstrap_s = t.elapsed().as_secs_f64();
    server.publish(engine.snapshot(1));
    let addr = server.local_addr();
    let ids = query_ids();
    let load_done = AtomicBool::new(false);
    let mut busy_s = Vec::new();
    let mut reports = Vec::new();
    let (load, stats, ladder) = std::thread::scope(|s| -> Result<_, String> {
        let load = s.spawn(|| {
            let fixed = load::run_phase(
                addr,
                load::FIXED_QPS,
                args.seconds,
                load::connections(),
                &ids,
                args.seed,
                oracle,
            );
            let stats = load::stats(addr);
            let ladder = load::ladder(
                addr,
                load::connections(),
                &ids,
                args.seed,
                oracle,
                LADDER_STEP_S,
            );
            load_done.store(true, Ordering::Release);
            (fixed, stats, ladder)
        });
        for (e, ops) in schedule.iter().enumerate().skip(1) {
            if load_done.load(Ordering::Acquire) {
                break;
            }
            let epoch = e as u64 + 1;
            // Spans on every other batch: the batches between them, under
            // the same load at the same time, are the untraced baseline.
            let traced = is_traced(e - 1);
            let started = Instant::now();
            if traced {
                tr.enter("batch");
                tr.enter("ingest");
            }
            let report = engine.apply_ops_batch(ops).map_err(|e| e.to_string())?;
            if traced {
                let idx = tr.exit();
                tr.rename(idx, &format!("ingest:{}", report.path.label()));
                tr.enter("snapshot");
            }
            let snap = engine.snapshot(epoch);
            if traced {
                tr.exit();
                tr.enter("publish");
            }
            server.publish(snap);
            if traced {
                tr.exit();
                tr.exit();
            }
            busy_s.push(started.elapsed().as_secs_f64());
            reports.push(report);
            std::thread::sleep(Duration::from_secs_f64(INGEST_DELAY_MS / 1e3));
        }
        Ok(load.join().expect("load thread panicked"))
    })?;
    let ingest_outlasted_load = reports.len() + 1 < schedule.len();
    let stats = stats?;
    let total = tr.span("stats", |_| load::stats(addr))?;
    server.shutdown().map_err(|e| e.to_string())?;
    Ok(Pass {
        bootstrap_s,
        busy_s,
        reports,
        load,
        server_buckets: stats.latency_buckets,
        ladder,
        ingest_outlasted_load,
        server_queries: total.queries,
        engine,
    })
}

/// The traced run: decode under a span, one in-process pass with every
/// other batch traced and the rate ladder climbed while it ingests, plus
/// in-process costs of a snapshot lookup and a protocol round trip.
pub fn traced(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tr = Tracer::default();
    let (schedule, path) = write_schedule(args, args.seconds + LADDER_BUDGET_S)?;
    let exec = Executor::threaded(nproc());
    let t = Instant::now();
    let decoded = tr
        .span("io.decode", |_| {
            wcc_mpc::stream::read_op_chunks_file_parallel(&path, &exec)
        })
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let decode_s = t.elapsed().as_secs_f64();
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    out.metric("io.decode_s", decode_s, "s");
    out.metric("io.decode_mb_per_s", bytes as f64 / 1e6 / decode_s, "MB/s");
    out.metric("io.chunks", decoded.len() as f64, "count");
    let oracle = epoch_oracle(&schedule);

    let walk0 = wcc_mpc::walk_telemetry_snapshot();
    let pool0 = Executor::process_pool_telemetry();
    let mut traced = pass(args, &decoded, &oracle, &mut tr)?;
    let pool1 = Executor::process_pool_telemetry();
    let walk1 = wcc_mpc::walk_telemetry_snapshot();
    out.tally(
        traced.load.planned + 1,
        traced.load.failed() + u64::from(decoded != schedule),
    );

    let by_path = |label: &str| -> Vec<f64> {
        tr.spans()
            .iter()
            .filter(|s| s.name == format!("ingest:{label}"))
            .map(|s| s.secs())
            .collect()
    };
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
    ] {
        let spans = by_path(label);
        let count = traced
            .reports
            .iter()
            .filter(|r| r.path.label() == label)
            .count();
        out.metric(batches, count as f64, "count");
        let mean_ms = if spans.is_empty() {
            0.0
        } else {
            spans.iter().sum::<f64>() * 1e3 / spans.len() as f64
        };
        out.metric(ms, mean_ms, "ms");
    }
    let recomputes = traced.reports.iter().filter(|r| !r.path.is_fast()).count();
    out.metric("stream.bootstrap_s", traced.bootstrap_s, "s");
    let batch_ms: Vec<f64> = traced.reports.iter().map(|r| r.wall_time_ms).collect();
    out.metric("stream.batch_p90_ms", quantile(&batch_ms, 0.9), "ms");
    out.metric("stream.recompute.batches", recomputes as f64, "count");
    out.metric(
        "stream.escalation_ratio",
        recomputes as f64 / traced.reports.len() as f64,
        "ratio",
    );
    out.metric("walk.steps", (walk1.steps - walk0.steps) as f64, "count");

    let publish_us: Vec<f64> = tr
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "batch")
        .map(|(i, _)| {
            tr.spans()
                .iter()
                .filter(|c| c.parent == Some(i) && (c.name == "snapshot" || c.name == "publish"))
                .map(|c| c.secs() * 1e6)
                .sum()
        })
        .collect();
    out.metric("serve.publish_us", median(&publish_us), "us");
    out.metric(
        "serve.server_p50_us",
        load::bucket_quantile_us(&traced.server_buckets, 0.5),
        "us",
    );
    out.metric(
        "serve.server_p99_us",
        load::bucket_quantile_us(&traced.server_buckets, 0.99),
        "us",
    );
    out.metric(
        "serve.not_found_ratio",
        traced.load.not_found as f64 / traced.load.answered.max(1) as f64,
        "ratio",
    );
    out.metric("loadgen.lag_p99_us", traced.load.lag_p99_us(), "us");
    out.metric(
        "serve.client_p50_us",
        median(&traced.load.latencies_us),
        "us",
    );
    out.metric("serve.client_p99_us", traced.load.p99_us(), "us");
    let snapshot = traced.engine.snapshot(traced.reports.len() as u64 + 1);
    out.metric(
        "serve.snapshot_lookup_ns",
        lookup_ns(&snapshot, &query_ids()),
        "ns",
    );
    let ladder = &traced.ladder;
    out.tally(ladder.load.planned, ladder.load.wrong);
    out.metric("serve.max_qps_under_slo", ladder.max_qps, "qps");
    out.metric("serve.protocol_roundtrip_ns", roundtrip_ns(), "ns");

    out.metric(
        "mpc.shuffled_bytes",
        traced.engine.stats().total_shuffled_bytes() as f64,
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
    let mean_busy = |spanned: bool| {
        let busy: Vec<f64> = (0..traced.busy_s.len())
            .filter(|&i| is_traced(i) == spanned)
            .map(|i| traced.busy_s[i])
            .collect();
        busy.iter().sum::<f64>() / busy.len() as f64
    };
    out.metric(
        "trace.overhead_ratio",
        mean_busy(true) / mean_busy(false),
        "ratio",
    );
    out.metric(
        "trace.layer_sum_ratio",
        tr.layer_sum_ratio("batch"),
        "ratio",
    );
    let ingest_s: f64 = tr
        .spans()
        .iter()
        .filter(|s| s.name.starts_with("ingest:"))
        .map(|s| s.secs())
        .sum();
    let reported_s: f64 = (0..traced.reports.len())
        .filter(|&i| is_traced(i))
        .map(|i| traced.reports[i].wall_time_ms)
        .sum::<f64>()
        / 1e3;
    out.metric("trace.phase_stats_ratio", ingest_s / reported_s, "ratio");

    let spans = args
        .work
        .join(format!("spans-serve_live-{}.jsonl", args.seed));
    std::fs::write(&spans, tr.to_jsonl()).map_err(|e| format!("{}: {e}", spans.display()))?;
    out.detail.push((
        "trace",
        J::obj([
            ("batches", J::Num(traced.reports.len() as f64)),
            ("queries", J::Num(traced.load.answered as f64)),
            ("publish_samples", J::Num(publish_us.len() as f64)),
            ("offered_qps", J::Num(load::FIXED_QPS)),
            ("server_queries", J::Num(traced.server_queries as f64)),
            (
                "ingest_outlasted_load",
                J::Bool(traced.ingest_outlasted_load),
            ),
            (
                "ladder",
                J::Arr(
                    ladder
                        .probes
                        .iter()
                        .map(|&(r, p99, lag, pass)| {
                            J::obj([
                                ("qps", J::Num(r)),
                                ("p99_us", J::Num(p99)),
                                ("lag_p99_us", J::Num(lag)),
                                ("pass", J::Bool(pass)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    ));
    Ok(out)
}

const MICRO_REPS: usize = 1_000_000;

/// Mean cost of one `same_component` lookup on a published snapshot.
fn lookup_ns(snapshot: &wcc_core::ComponentSnapshot, ids: &[u64]) -> f64 {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let pairs: Vec<(u64, u64)> = (0..4096)
        .map(|_| {
            (
                ids[rng.gen_range(0..ids.len())],
                ids[rng.gen_range(0..ids.len())],
            )
        })
        .collect();
    let t = Instant::now();
    let mut hits = 0usize;
    for i in 0..MICRO_REPS {
        let (u, v) = pairs[i % pairs.len()];
        hits += usize::from(std::hint::black_box(snapshot.same_component(u, v)) == Some(true));
    }
    std::hint::black_box(hits);
    t.elapsed().as_secs_f64() * 1e9 / MICRO_REPS as f64
}

/// Mean cost of encoding and decoding one request and one response frame.
fn roundtrip_ns() -> f64 {
    let req = Request::SameComponent {
        u: 12_345,
        v: 67_890,
    };
    let resp = Response::Same {
        epoch: 7,
        same: true,
    };
    let mut buf = Vec::with_capacity(64);
    let t = Instant::now();
    for _ in 0..MICRO_REPS {
        buf.clear();
        std::hint::black_box(req).encode(&mut buf);
        let decoded = Request::decode(&buf[4..]).expect("well-formed request");
        buf.clear();
        std::hint::black_box(&resp).encode(&mut buf);
        let answer = Response::decode(&buf[4..]).expect("well-formed response");
        std::hint::black_box((decoded, answer));
    }
    t.elapsed().as_secs_f64() * 1e9 / MICRO_REPS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_truth_tracks_the_prefix() {
        let schedule = generate(3, 2);
        let oracle = epoch_oracle(&schedule);
        assert_eq!(oracle.epochs.len(), schedule.len() + 1);
        let new = 2 * COMMUNITY as u64;
        let req = Request::ComponentOf { v: new };
        // The first new vertex is absent at epoch 1 and joins community 0
        // (oldest member: the first vertex of chunk 0's first edge) at 2.
        assert!(oracle.check(&req, &Response::NotFound { epoch: 1 }));
        assert!(!oracle.check(&req, &Response::NotFound { epoch: 2 }));
        let size = Request::ComponentSize { c: 0 };
        let grown = (COMMUNITY + NEW_PER_BATCH / 2) as u64;
        assert!(oracle.check(
            &size,
            &Response::Size {
                epoch: 2,
                size: grown
            }
        ));
        // The same size stamped with the bootstrap epoch is a torn read.
        assert!(!oracle.check(
            &size,
            &Response::Size {
                epoch: 1,
                size: grown
            }
        ));
    }
}
