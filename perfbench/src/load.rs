//! The benchmark's open-loop query generator and the checks on its answers.
//!
//! Each connection sends on a fixed schedule (request `i` is due at
//! `start + i / rate`) and never waits for replies before sending, so a
//! stalled server keeps receiving load and its queue grows. Latency is timed
//! from each request's *due* time, which charges a stall to every request it
//! delays, and the generator records how late it actually sent
//! (`loadgen.lag_p99_us`). Raw latencies are kept; percentiles come from
//! [`crate::stats`].

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wcc_core::serve::{Request, Response, StatsReply};

use crate::stats::{median, quantile};

/// The latency limit on the p99 of a ladder step.
pub const SLO_US: f64 = 5_000.0;
/// The offered rate of the fixed-rate phase, in queries per second: the
/// service's recorded load. `BENCH_serve.json` paces `wcc_loadgen` at
/// 120k qps against a live-ingesting server, and the service's target is
/// 10^5 qps; 100k qps is the lower of the two.
pub const FIXED_QPS: f64 = 100_000.0;
/// Ladder rates are `LADDER_BASE_QPS · LADDER_FACTOR^k` for `k ≤ LADDER_STEPS`.
const LADDER_BASE_QPS: f64 = 4_000.0;
const LADDER_FACTOR: f64 = 1.05;
const LADDER_STEPS: usize = 160;
/// How long a connection waits without any answer before counting the
/// rest lost.
const DRAIN: Duration = Duration::from_secs(5);

/// Ground truth of one published epoch, indexed by raw vertex id.
#[derive(Debug, Clone, Default)]
pub struct Truth {
    /// Canonical component label per raw id; `u32::MAX` = not yet seen.
    label: Vec<u32>,
    /// Raw id of each component's oldest (first-seen) member.
    oldest: Vec<u64>,
    size: Vec<u64>,
}

const ABSENT: u32 = u32::MAX;

impl Truth {
    /// `seen` lists raw ids in order of first appearance in the stream and
    /// `component(i)` names the component of `seen[i]` (a union-find root or
    /// a label), so the first member met of each component is its oldest.
    pub fn new(seen: &[u64], component: impl Fn(usize) -> usize) -> Truth {
        let max_id = seen.iter().copied().max().map_or(0, |m| m as usize + 1);
        let mut t = Truth {
            label: vec![ABSENT; max_id],
            ..Truth::default()
        };
        let mut canon: HashMap<usize, u32> = HashMap::new();
        for (i, &raw) in seen.iter().enumerate() {
            let next = t.oldest.len() as u32;
            let l = *canon.entry(component(i)).or_insert(next);
            if l == next {
                t.oldest.push(raw);
                t.size.push(0);
            }
            t.label[raw as usize] = l;
            t.size[l as usize] += 1;
        }
        t
    }

    fn label(&self, raw: u64) -> Option<usize> {
        match self.label.get(raw as usize) {
            Some(&l) if l != ABSENT => Some(l as usize),
            _ => None,
        }
    }

    /// Whether `resp` is the right answer to `req` under this truth.
    pub fn check(&self, req: &Request, resp: &Response) -> bool {
        match (*req, resp) {
            (Request::SameComponent { u, v }, Response::Same { same, .. }) => {
                matches!((self.label(u), self.label(v)), (Some(a), Some(b)) if (a == b) == *same)
            }
            (Request::SameComponent { u, v }, Response::NotFound { .. }) => {
                self.label(u).is_none() || self.label(v).is_none()
            }
            (Request::ComponentOf { v }, Response::Component { component, .. }) => {
                self.label(v).is_some_and(|l| self.oldest[l] == *component)
            }
            (Request::ComponentSize { c }, Response::Size { size, .. }) => {
                self.label(c).is_some_and(|l| self.size[l] == *size)
            }
            (
                Request::ComponentOf { v: x } | Request::ComponentSize { c: x },
                Response::NotFound { .. },
            ) => self.label(x).is_none(),
            _ => false,
        }
    }
}

/// Raw vertex ids in order of first appearance, the order in which the
/// engine interns them (an op's `u` before its `v`).
#[derive(Default)]
pub struct Seen {
    pub order: Vec<u64>,
    index: HashMap<u64, usize>,
}

impl Seen {
    /// The dense index of `raw`, interning it if new.
    pub fn add(&mut self, raw: u64) -> usize {
        let next = self.order.len();
        let i = *self.index.entry(raw).or_insert(next);
        if i == next {
            self.order.push(raw);
        }
        i
    }
}

/// Truth per epoch: `epochs[e]` is the truth of epoch `e`; `None` marks an
/// epoch no answer may carry.
pub struct Oracle {
    pub epochs: Vec<Option<Truth>>,
}

impl Oracle {
    pub fn check(&self, req: &Request, resp: &Response) -> bool {
        let Some(epoch) = epoch_of(resp) else {
            return false;
        };
        matches!(self.epochs.get(epoch as usize), Some(Some(t)) if t.check(req, resp))
    }
}

/// What one phase of load saw, summed over its connections.
#[derive(Debug, Default)]
pub struct PhaseOut {
    /// Due-time-to-answer latency of every answered query, in µs, and the
    /// query's due time in seconds from the start of the phase.
    pub latencies_us: Vec<f64>,
    pub due_s: Vec<f64>,
    /// How late each request was written, in µs.
    pub lags_us: Vec<f64>,
    /// Requests the schedule called for.
    pub planned: u64,
    pub answered: u64,
    pub wrong: u64,
    /// Requests never sent or never answered (connection errors, drain
    /// timeouts).
    pub lost: u64,
    pub not_found: u64,
    /// Lowest and highest epoch stamped on an answer.
    pub epochs: Option<(u64, u64)>,
}

impl PhaseOut {
    fn absorb(&mut self, other: PhaseOut) {
        self.latencies_us.extend(other.latencies_us);
        self.due_s.extend(other.due_s);
        self.lags_us.extend(other.lags_us);
        self.planned += other.planned;
        self.answered += other.answered;
        self.wrong += other.wrong;
        self.lost += other.lost;
        self.not_found += other.not_found;
        self.epochs = match (self.epochs, other.epochs) {
            (Some((a, b)), Some((c, d))) => Some((a.min(c), b.max(d))),
            (x, y) => x.or(y),
        };
    }

    /// Queries that count as failed: wrong answers and lost requests.
    pub fn failed(&self) -> u64 {
        self.wrong + self.lost
    }

    /// The p99 latency over every answer of the phase, so a stall is
    /// charged in full however few of the phase's windows it hits.
    pub fn p99_us(&self) -> f64 {
        quantile(&self.latencies_us, 0.99)
    }

    /// The p99 of the generator's own lateness over every request.
    pub fn lag_p99_us(&self) -> f64 {
        quantile(&self.lags_us, 0.99)
    }
}

/// Width of the windows the record's per-window p99s are taken over; they
/// show whether a phase's tail comes from a few stalls or from all of it.
const WINDOW_S: f64 = 0.1;
/// Windows with fewer samples have fewer than ten beyond their p99 and are
/// left out.
const MIN_WINDOW_SAMPLES: usize = 1000;

/// The p99 of each window of due times that holds enough samples.
fn window_p99s(values: &[f64], due_s: &[f64]) -> Vec<f64> {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for (&v, &d) in values.iter().zip(due_s) {
        let w = (d.max(0.0) / WINDOW_S) as usize;
        if windows.len() <= w {
            windows.resize_with(w + 1, Vec::new);
        }
        windows[w].push(v);
    }
    windows
        .iter()
        .filter(|w| w.len() >= MIN_WINDOW_SAMPLES)
        .map(|w| quantile(w, 0.99))
        .collect()
}

fn random_request(rng: &mut ChaCha8Rng, ids: &[u64]) -> Request {
    let kind = rng.gen_range(0..10u32);
    let mut pick = || ids[rng.gen_range(0..ids.len())];
    // The 8:1:1 same / component-of / size mix of the service's users.
    match kind {
        0 => Request::ComponentOf { v: pick() },
        1 => Request::ComponentSize { c: pick() },
        _ => Request::SameComponent {
            u: pick(),
            v: pick(),
        },
    }
}

/// Asks the kernel to wake this thread's sleeps on time instead of
/// batching them within the default 50 µs timer slack, so the sender's own
/// lateness stays small next to the latencies it measures.
#[cfg(target_os = "linux")]
fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
    }
    const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument, passed
    // here as a c_ulong, and only changes the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
    }
}

#[cfg(not(target_os = "linux"))]
fn tighten_timer_slack() {}

/// One connection's share of a phase: a sender thread that writes each
/// request when it falls due, and a receiver thread that blocks on the
/// socket, so an answer is timed the moment it arrives. (A socket read
/// timeout is rounded to the kernel tick, far too coarse to pace sends.)
#[allow(clippy::too_many_arguments)]
fn drive(
    addr: SocketAddr,
    rate: f64,
    count: u64,
    phase_start: Instant,
    offset: Duration,
    ids: &[u64],
    seed: u64,
    oracle: &Oracle,
) -> PhaseOut {
    let lost_all = PhaseOut {
        planned: count,
        lost: count,
        ..PhaseOut::default()
    };
    let Ok(mut tx) = TcpStream::connect(addr) else {
        return lost_all;
    };
    let _ = tx.set_nodelay(true);
    let Ok(rx) = tx.try_clone() else {
        return lost_all;
    };
    tighten_timer_slack();
    let start = phase_start + offset;
    let due = |i: u64| start + Duration::from_secs_f64(i as f64 / rate);
    let (queue_tx, queue_rx) = mpsc::channel::<(Instant, Request)>();
    std::thread::scope(|s| {
        let receiver = s.spawn(move || receive(rx, count, queue_rx, phase_start, oracle));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut lags_us = Vec::with_capacity(count as usize);
        let mut buf = Vec::with_capacity(4096);
        let mut sent = 0u64;
        while sent < count {
            let now = Instant::now();
            let next = due(sent);
            if next > now {
                std::thread::sleep(next - now);
                continue;
            }
            let first = sent;
            while sent < count && due(sent) <= now {
                let req = random_request(&mut rng, ids);
                req.encode(&mut buf);
                // Queued before the write, so the receiver always finds the
                // request its answer belongs to.
                let _ = queue_tx.send((due(sent), req));
                sent += 1;
            }
            if tx.write_all(&buf).is_err() {
                break;
            }
            buf.clear();
            let at = Instant::now();
            for i in first..sent {
                lags_us.push((at - due(i)).as_secs_f64() * 1e6);
            }
        }
        drop(queue_tx);
        let mut out = receiver.join().expect("load receiver thread panicked");
        out.planned = count;
        out.lost = count - out.answered;
        out.lags_us = lags_us;
        out
    })
}

/// Reads answers until `count` arrived, the connection closed, or no
/// answer came for `DRAIN`.
fn receive(
    mut rx: TcpStream,
    count: u64,
    queue: mpsc::Receiver<(Instant, Request)>,
    phase_start: Instant,
    oracle: &Oracle,
) -> PhaseOut {
    let mut out = PhaseOut::default();
    // Only bounds how long a stalled read waits; answers wake it at once.
    let _ = rx.set_read_timeout(Some(Duration::from_millis(50)));
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut progress = Instant::now();
    while out.answered < count {
        match rx.read(&mut chunk) {
            Ok(0) => break,
            Ok(k) => {
                let at = Instant::now();
                progress = at;
                buf.extend_from_slice(&chunk[..k]);
                let mut pos = 0;
                while buf.len() - pos >= 4 {
                    let len =
                        u32::from_le_bytes([buf[pos], buf[pos + 1], buf[pos + 2], buf[pos + 3]])
                            as usize;
                    if buf.len() - pos < 4 + len {
                        break;
                    }
                    let Ok((due_at, req)) = queue.recv() else {
                        // An answer to nothing that was sent.
                        out.wrong += 1;
                        return out;
                    };
                    out.answered += 1;
                    out.latencies_us.push((at - due_at).as_secs_f64() * 1e6);
                    out.due_s
                        .push(due_at.saturating_duration_since(phase_start).as_secs_f64());
                    match Response::decode(&buf[pos + 4..pos + 4 + len]) {
                        Ok(resp) => {
                            out.not_found += u64::from(matches!(resp, Response::NotFound { .. }));
                            out.wrong += u64::from(!oracle.check(&req, &resp));
                            if let Some(e) = epoch_of(&resp) {
                                let (lo, hi) = out.epochs.unwrap_or((e, e));
                                out.epochs = Some((lo.min(e), hi.max(e)));
                            }
                        }
                        Err(_) => out.wrong += 1,
                    }
                    pos += 4 + len;
                }
                buf.drain(..pos);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if progress.elapsed() > DRAIN {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    out
}

/// Offers `rate` queries per second for `secs` seconds over `conns`
/// connections, checking every answer against `oracle`.
pub fn run_phase(
    addr: SocketAddr,
    rate: f64,
    secs: f64,
    conns: usize,
    ids: &[u64],
    seed: u64,
    oracle: &Oracle,
) -> PhaseOut {
    let per_conn = rate / conns as f64;
    let count = (per_conn * secs).ceil() as u64;
    // Connections start together, a little after their threads spawn.
    let phase_start = Instant::now() + Duration::from_millis(2);
    let mut total = PhaseOut::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                // Stagger the connections so their schedules interleave.
                let offset = Duration::from_secs_f64(c as f64 / rate);
                let seed = seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                s.spawn(move || {
                    drive(
                        addr,
                        per_conn,
                        count,
                        phase_start,
                        offset,
                        ids,
                        seed,
                        oracle,
                    )
                })
            })
            .collect();
        for h in handles {
            total.absorb(h.join().expect("load connection thread panicked"));
        }
    });
    total
}

/// A ladder step passes when every request was answered, the p99 latency
/// is within the SLO and the generator itself kept to its schedule (so the
/// rate was really offered and no backlog built up).
fn step_passes(out: &PhaseOut) -> bool {
    out.lost == 0 && out.p99_us() <= SLO_US && out.lag_p99_us() <= SLO_US
}

pub struct LadderOut {
    pub max_qps: f64,
    /// Every probe: offered rate, p99 µs, generator lag p99 µs, passed.
    pub probes: Vec<(f64, f64, f64, bool)>,
    /// All queries of all probes, for the correctness tally.
    pub load: PhaseOut,
}

/// Probes the ladder makes at most: the lowest rung, then one per halving
/// of the `LADDER_STEPS + 1` rungs above it.
pub const LADDER_PROBES: usize = 9;

/// The highest ladder rate that passes, found by bisection over the
/// ladder's indices, one probe of `step_secs` per halving. The
/// rates are 5% apart, so the answer resolves a 10% change. The lowest
/// rung is probed first; if it fails, no rate meets the SLO and the
/// answer is 0.
pub fn ladder(
    addr: SocketAddr,
    conns: usize,
    ids: &[u64],
    seed: u64,
    oracle: &Oracle,
    step_secs: f64,
) -> LadderOut {
    let rate = |k: usize| LADDER_BASE_QPS * LADDER_FACTOR.powi(k as i32);
    let mut out = LadderOut {
        max_qps: 0.0,
        probes: Vec::new(),
        load: PhaseOut::default(),
    };
    let mut probe = |k: usize| {
        let step = run_phase(
            addr,
            rate(k),
            step_secs,
            conns,
            ids,
            seed ^ k as u64,
            oracle,
        );
        let pass = step_passes(&step);
        out.probes
            .push((rate(k), step.p99_us(), step.lag_p99_us(), pass));
        out.load.absorb(step);
        pass
    };
    if !probe(0) {
        return out;
    }
    let (mut lo, mut hi) = (0usize, LADDER_STEPS + 1);
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if probe(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    out.max_qps = rate(lo);
    out
}

/// Connections the generator opens: each has a sender and a receiver
/// thread, and the generator uses at most one thread per CPU.
pub fn connections() -> usize {
    (crate::sys::nproc() / 2).max(1)
}

impl PhaseOut {
    /// Tallies every query (a wrong answer or a lost request fails) and
    /// puts the latencies in the record: `p50_us` and `p99_us` over every
    /// answer, and the spread of the per-window p99s.
    pub fn report(&self, out: &mut crate::Outcome) {
        use crate::json::J;
        let lat = &self.latencies_us;
        let w = window_p99s(lat, &self.due_s);
        out.tally(self.planned, self.failed());
        out.detail.push((
            "query",
            J::obj([
                ("offered_qps", J::Num(FIXED_QPS)),
                ("connections", J::Num(connections() as f64)),
                ("answered", J::Num(self.answered as f64)),
                ("not_found", J::Num(self.not_found as f64)),
                ("p50_us", J::Num(median(lat))),
                ("p99_us", J::Num(self.p99_us())),
                ("p99_window_s", J::Num(WINDOW_S)),
                ("p99_windows", J::Num(w.len() as f64)),
                (
                    "window_p99_us_quartiles",
                    J::Arr(
                        [0.0, 0.25, 0.5, 0.75, 1.0]
                            .iter()
                            .map(|&q| J::Num(quantile(&w, q)))
                            .collect(),
                    ),
                ),
                ("beyond_p99", J::Num(crate::stats::beyond(lat, 0.99) as f64)),
                (
                    "over_slo",
                    J::Num(lat.iter().filter(|&&l| l > SLO_US).count() as f64),
                ),
                ("lag_p99_us", J::Num(self.lag_p99_us())),
            ]),
        ));
    }
}

fn epoch_of(resp: &Response) -> Option<u64> {
    match resp {
        Response::Same { epoch, .. }
        | Response::Component { epoch, .. }
        | Response::Size { epoch, .. }
        | Response::NotFound { epoch } => Some(*epoch),
        _ => None,
    }
}

/// One request/response exchange on a fresh connection (control traffic:
/// PING, STATS, SHUTDOWN).
pub fn exchange(addr: SocketAddr, req: Request) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    let mut buf = Vec::new();
    req.encode(&mut buf);
    stream.write_all(&buf)?;
    let mut frame = Vec::new();
    match wcc_core::serve::read_frame(&mut stream, &mut frame)? {
        Some(()) => Response::decode(&frame)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())),
        None => Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        )),
    }
}

/// Polls with PING until the server has published `epoch` (or `timeout`
/// passes). Returns the epoch reached.
pub fn wait_epoch(addr: SocketAddr, epoch: u64, timeout: Duration) -> Result<u64, String> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Ok(Response::Pong { epoch: e }) = exchange(addr, Request::Ping) {
            if e >= epoch {
                return Ok(e);
            }
        }
        if Instant::now() > deadline {
            return Err(format!("server at {addr} did not reach epoch {epoch}"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

pub fn stats(addr: SocketAddr) -> Result<StatsReply, String> {
    match exchange(addr, Request::Stats) {
        Ok(Response::Stats(s)) => Ok(s),
        other => Err(format!("STATS failed: {other:?}")),
    }
}

/// The `q`-quantile of the server's power-of-two latency histogram, as the
/// bucket's upper bound in µs.
pub fn bucket_quantile_us(buckets: &[u64], q: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    let target = (q * total as f64).ceil() as u64;
    let mut acc = 0;
    for (i, &b) in buckets.iter().enumerate() {
        acc += b;
        if acc >= target.max(1) {
            return (1u64 << (i + 1).min(63)) as f64 / 1e3;
        }
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two components {10, 11, 12} and {13, 14}; id 15 never seen.
    fn truth() -> Truth {
        let seen = [10, 11, 13, 12, 14];
        let root = [0, 0, 2, 0, 2];
        Truth::new(&seen, |i| root[i])
    }

    #[test]
    fn right_answers_pass() {
        let t = truth();
        assert!(t.check(
            &Request::SameComponent { u: 10, v: 12 },
            &Response::Same {
                epoch: 1,
                same: true
            }
        ));
        assert!(t.check(
            &Request::SameComponent { u: 10, v: 14 },
            &Response::Same {
                epoch: 1,
                same: false
            }
        ));
        assert!(t.check(
            &Request::ComponentOf { v: 14 },
            &Response::Component {
                epoch: 1,
                component: 13
            }
        ));
        assert!(t.check(
            &Request::ComponentSize { c: 12 },
            &Response::Size { epoch: 1, size: 3 }
        ));
        assert!(t.check(
            &Request::ComponentOf { v: 15 },
            &Response::NotFound { epoch: 1 }
        ));
    }

    #[test]
    fn each_check_fires_on_a_corrupted_answer() {
        let t = truth();
        assert!(!t.check(
            &Request::SameComponent { u: 10, v: 12 },
            &Response::Same {
                epoch: 1,
                same: false
            }
        ));
        assert!(!t.check(
            &Request::ComponentOf { v: 14 },
            &Response::Component {
                epoch: 1,
                component: 14
            }
        ));
        assert!(!t.check(
            &Request::ComponentSize { c: 12 },
            &Response::Size { epoch: 1, size: 2 }
        ));
        assert!(!t.check(
            &Request::ComponentOf { v: 12 },
            &Response::NotFound { epoch: 1 }
        ));
        assert!(!t.check(
            &Request::ComponentOf { v: 15 },
            &Response::Component {
                epoch: 1,
                component: 15
            }
        ));
        assert!(!t.check(
            &Request::ComponentOf { v: 10 },
            &Response::Pong { epoch: 1 }
        ));
        // The right answer stamped with an epoch that has no truth.
        let oracle = Oracle {
            epochs: vec![None, None, None, Some(truth())],
        };
        let req = Request::ComponentSize { c: 12 };
        assert!(oracle.check(&req, &Response::Size { epoch: 3, size: 3 }));
        assert!(!oracle.check(&req, &Response::Size { epoch: 2, size: 3 }));
        assert!(!oracle.check(&req, &Response::Size { epoch: 4, size: 3 }));
    }

    #[test]
    fn bucket_quantile_reads_upper_bounds() {
        let mut b = vec![0u64; 48];
        b[10] = 99; // [1024, 2048) ns
        b[20] = 1;
        assert_eq!(bucket_quantile_us(&b, 0.5), 2.048);
        assert_eq!(bucket_quantile_us(&b, 1.0), 2097.152);
    }
}
