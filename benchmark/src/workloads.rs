//! The five workloads: what each runs, how it is timed, how its outputs
//! are checked, and what the traced pass adds.
//!
//! Load model: **closed loop**, one in-flight request per connection.  The
//! wire protocol admits exactly one in-flight request per session, an
//! ingest pipeline waits for `ΔVio` before it sends its next batch, and two
//! connections cannot form a queue on the pool — an open-loop schedule
//! would measure the sleep timer, not the program.  Sizing is for a 2-core
//! machine: never more than two client threads, a two-worker daemon.

use crate::gen::{Dataset, Digest, StreamGen};
use crate::stats::{
    guarded_percentile, median, percentile, process_cpu_ms, process_rss_mib, sorted,
};
use crate::sut::{
    self, BatchUpdate, Client, CsrSnapshot, Daemon, DeltaViolations, DoneResponse, Replay,
    SearchStats, Side, Violation, ViolationSet,
};
use crate::trace::Tracer;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Offline batch audit by one caller; no daemon.
    Audit,
    /// Two clients; every `UPDATE` is followed by a `RESET`.
    Reset,
    /// One writer that never resets beside one `QUERY` reader.
    Stream,
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// `dbpedia_like(scale)`: 50 → 11,100 nodes / 29,700 edges,
    /// 500 → 111,000 / 297,000.
    pub scale: usize,
    /// Unit updates per `UPDATE` — an absolute count, not a share of
    /// `|E|`, so the same `ΔG` is comparable across graph sizes.
    pub batch_ops: usize,
    /// Requests generated per issuing client.  `Reset` clients cycle
    /// through theirs; the `Stream` writer stops when its stream ends.
    pub requests: usize,
    /// Requests per client discarded before the clock starts.
    pub warmup: usize,
    pub compact_after: Option<u64>,
    /// Listed in `BENCHMARK.json`, so the driver runs it and applies the
    /// bounds.  The driver's time limit pays for four workloads of 26 s,
    /// not five of 15 s — and 15 s runs were too short to find a quiet
    /// second on a shared machine — so `bulk_11k`, the workload no open
    /// ROADMAP item names, is run by `run` and by hand only.
    pub gated: bool,
}

pub const SPECS: &[Spec] = &[
    Spec {
        name: "audit_111k",
        why: "Batch Vio(Sigma,G) on 111k nodes by one caller: mmap load, rule parse, cold plans, parallel expansion; serve, overlay and session do nothing.",
        kind: Kind::Audit,
        scale: 500,
        batch_ops: 0,
        requests: 0,
        warmup: 3,
        compact_after: None,
        gated: true,
    },
    Spec {
        name: "small_11k",
        why: "16-op UPDATEs on 11k nodes with an empty overlay: frame, queue, validate, plan lookup and encode dominate; expansion and session history are bypassed.",
        kind: Kind::Reset,
        scale: 50,
        batch_ops: 16,
        requests: 2000,
        warmup: 50,
        compact_after: None,
        gated: true,
    },
    Spec {
        name: "small_111k",
        why: "The same 16-op UPDATEs on a 10x graph: the localizability rung, where any per-request work proportional to |G| shows as the gap to small_11k.",
        kind: Kind::Reset,
        scale: 500,
        batch_ops: 16,
        requests: 120,
        warmup: 20,
        compact_after: None,
        gated: true,
    },
    Spec {
        name: "bulk_11k",
        why: "512-op UPDATEs on 11k nodes: incremental expansion and VIO_CHUNK streaming dominate, the opposite mix of the same path small_11k uses.",
        kind: Kind::Reset,
        scale: 50,
        batch_ops: 512,
        requests: 500,
        warmup: 50,
        compact_after: None,
        gated: false,
    },
    Spec {
        name: "stream_11k",
        why: "One writer that never resets (compaction every 1024 ops) beside a QUERY reader: the only workload with a growing overlay, epoch swaps and reads next to writes.",
        kind: Kind::Stream,
        scale: 50,
        batch_ops: 16,
        requests: 12_000,
        warmup: 50,
        compact_after: Some(1024),
        gated: true,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Unit updates the seed applies to the dataset graph before an audit.
const AUDIT_CHURN_OPS: usize = 1024;
/// Requests of client 0 the traced pass replays after the warm-up.
const TRACED_REQUESTS: usize = 500;
/// Audit iterations of the traced pass, per reader.
const TRACED_AUDITS: usize = 5;
/// Full set-ups per burst of an untraced run: at least the first count,
/// then more while they fit in the time budget.  A run makes two bursts, one
/// before the warm-up and one after the output checks, and `setup_s` is the
/// fastest set-up of both, for the reason [`RATE_WINDOW`] gives: set-ups of
/// one run fell into two modes 1.4× apart (87–90 ms and 120–135 ms on
/// `bulk_11k`), the slow one being the machine's, and their median moved by
/// 23 % between two sets of ten runs where their minimum moved by 5 %.  With
/// one burst, a loud spell of the machine that sat on the first seconds of
/// most runs of a set moved `small_111k`'s median `setup_s` by 34 % while
/// `op_p50_ms`, which has the whole run to find a quiet second, moved by 4 %.
const SETUP_REPS: std::ops::RangeInclusive<usize> = 5..=25;
const SETUP_BUDGET_S: f64 = 2.0;
/// The timed phase is cut into windows of this length and `op_p50_ms`,
/// `ops_per_s` and `cpu_ms_per_op` are each taken from their best window.
/// On a shared machine interference from outside only ever slows the
/// program, in spells of a fraction of a second to minutes: one audit's
/// 1 s medians read 79 83 84 83 78 76 104 122 132 ms within a single run,
/// and whole-run medians of one seed moved by ±25 % between back-to-back
/// runs.  The best window is the one closest to the program's own speed, and
/// a short window finds a quiet moment where a long one finds none: over six
/// `small_11k` runs in a loud half-hour the best 1 s window ranged over 33 %
/// of its median, the best 250 ms window over 13 %, the plain median over
/// 26 %; over six `audit_111k` runs the best block of 16 iterations ranged
/// over 41 %, of 4 over 23 %.  (A low quantile of all samples is no
/// substitute: the 5th percentile ranged over 9 % on `small_11k` but 31 % on
/// `audit_111k`.)
const RATE_WINDOW: Duration = Duration::from_millis(250);
/// A window also holds at least this many ops, so that its median is one.
const WINDOW_MIN_OPS: u64 = 4;
/// A client gives up after this many failed requests.
const MAX_ERRORS: u64 = 50;

/// Everything one run of one workload measured.
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub digest: String,
    /// Lines for the human reader: sample counts, refused percentiles.
    pub notes: Vec<String>,
}

// ---- set-up -----------------------------------------------------------------

/// What set-up produces before a daemon exists.
struct Inputs {
    data: Dataset,
    csr: CsrSnapshot,
    path: PathBuf,
    file_bytes: u64,
    /// One request list per client that issues `UPDATE`s.
    streams: Vec<Vec<BatchUpdate>>,
    freeze_ms: f64,
    write_ms: f64,
}

impl Inputs {
    fn build(spec: &Spec, seed: u64, path: &Path) -> Result<Inputs, String> {
        let mut data = Dataset::generate(spec.scale)?;
        let streams: Vec<Vec<BatchUpdate>> = match spec.kind {
            Kind::Audit => {
                // No requests to draw: the seed churns the audited graph.
                let mut gen = StreamGen::new(data.graph, seed);
                gen.advance(AUDIT_CHURN_OPS);
                data.graph = gen.into_graph();
                Vec::new()
            }
            Kind::Reset => {
                let mut gen = StreamGen::new(data.graph.clone(), seed);
                (0..2)
                    .map(|_| {
                        (0..spec.requests)
                            .map(|_| gen.draw(spec.batch_ops))
                            .collect()
                    })
                    .collect()
            }
            Kind::Stream => {
                let mut gen = StreamGen::new(data.graph.clone(), seed);
                vec![(0..spec.requests)
                    .map(|_| gen.advance(spec.batch_ops))
                    .collect()]
            }
        };
        let started = Instant::now();
        let csr = sut::freeze(&data.graph);
        let freeze_ms = ms(started.elapsed());
        let started = Instant::now();
        let file_bytes = sut::write_snapshot(&csr, path)?;
        let write_ms = ms(started.elapsed());
        Ok(Inputs {
            data,
            csr,
            path: path.to_path_buf(),
            file_bytes,
            streams,
            freeze_ms,
            write_ms,
        })
    }

    /// The `workload_digest`: `Σ`, the graph's edges, every request frame.
    fn digest(&self) -> Result<String, String> {
        let mut digest = Digest::new();
        self.data.feed_digest(&mut digest);
        for batch in self.streams.iter().flatten() {
            digest.feed(&sut::encode_update(batch)?);
        }
        Ok(digest.hex())
    }

    /// The per-layer metrics set-up and the process itself yield.
    fn insert_into(&self, metrics: &mut BTreeMap<&'static str, f64>, rss_mb: f64) {
        metrics.insert("graph.persist.freeze_ms", self.freeze_ms);
        metrics.insert("graph.persist.write_ms", self.write_ms);
        metrics.insert(
            "graph.persist.file_bytes_per_edge",
            self.file_bytes as f64 / self.data.graph.edge_count() as f64,
        );
        metrics.insert("serve.server.rss_mb", rss_mb);
    }
}

/// Inputs plus a running daemon and its two connections.
struct Rig {
    inputs: Inputs,
    daemon: Daemon,
    clients: Vec<Client>,
}

impl Rig {
    fn build(spec: &Spec, seed: u64, path: &Path) -> Result<Rig, String> {
        let inputs = Inputs::build(spec, seed, path)?;
        let daemon = Daemon::start(&inputs.path, &inputs.data.sigma, spec.compact_after)?;
        let clients = (0..2)
            .map(|c| daemon.connect(&format!("{}-{c}", spec.name)))
            .collect::<Result<_, _>>()?;
        Ok(Rig {
            inputs,
            daemon,
            clients,
        })
    }

    fn stop(self) -> Inputs {
        drop(self.clients);
        self.daemon.stop();
        self.inputs
    }
}

/// One burst of set-ups: run `build` several times (see [`SETUP_REPS`];
/// once when tracing — `setup_s` is an end-to-end metric and those come
/// from untraced runs), tearing each product down with `teardown` before
/// the next, and return the last product with the shortest wall time in
/// seconds.
fn repeated_setup<T>(
    trace: bool,
    mut build: impl FnMut() -> Result<T, String>,
    teardown: impl Fn(T),
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    loop {
        let started = Instant::now();
        let built = build()?;
        times.push(started.elapsed().as_secs_f64());
        let enough = trace
            || times.len() >= *SETUP_REPS.end()
            || (times.len() >= *SETUP_REPS.start() && times.iter().sum::<f64>() >= SETUP_BUDGET_S);
        if enough {
            return Ok((built, times.into_iter().fold(f64::INFINITY, f64::min)));
        }
        teardown(built);
    }
}

/// The burst of set-ups after the timed phase (none when tracing): the
/// shortest wall time in seconds, every product torn down.
fn second_burst<T>(
    trace: bool,
    build: impl FnMut() -> Result<T, String>,
    teardown: impl Fn(T),
) -> Result<f64, String> {
    if trace {
        return Ok(f64::INFINITY);
    }
    let (last, fastest) = repeated_setup(false, build, &teardown)?;
    teardown(last);
    Ok(fastest)
}

/// Progress marks of a timed phase, taken by its primary loop once per
/// [`RATE_WINDOW`]: elapsed seconds, process CPU, operations completed.
struct Marks {
    started: Instant,
    marks: Vec<(f64, f64, u64)>,
}

impl Marks {
    fn start() -> Marks {
        Marks {
            started: Instant::now(),
            marks: vec![(0.0, process_cpu_ms(), 0)],
        }
    }

    /// Take a mark if a window has passed since the last one.
    fn tick(&mut self, ops: u64) {
        let now = self.started.elapsed().as_secs_f64();
        let &(last_s, _, last_ops) = self.marks.last().expect("initial mark");
        if now - last_s >= RATE_WINDOW.as_secs_f64() && ops - last_ops >= WINDOW_MIN_OPS {
            self.marks.push((now, process_cpu_ms(), ops));
        }
    }

    /// The three timed end-to-end metrics, each from its **best window**
    /// between marks: the lowest window median of `latencies` (pairs of
    /// completion time in seconds and latency in ms), the highest
    /// throughput, the lowest CPU per op.  A phase too short for one full
    /// window is one window up to now, with `ops` completed.
    fn best_windows(mut self, ops: u64, latencies: &[(f64, f64)]) -> Rates {
        if self.marks.len() < 2 {
            let now = self.started.elapsed().as_secs_f64();
            self.marks
                .push((now.max(f64::MIN_POSITIVE), process_cpu_ms(), ops));
        }
        let mut rates = Rates {
            op_p50_ms: f64::INFINITY,
            ops_per_s: 0.0,
            cpu_ms_per_op: f64::INFINITY,
            window_p50_ms: Vec::new(),
        };
        for w in self.marks.windows(2) {
            let ((t0, cpu0, ops0), (t1, cpu1, ops1)) = (w[0], w[1]);
            let inside: Vec<f64> = latencies
                .iter()
                .filter(|&&(end_s, _)| end_s > t0 && end_s <= t1)
                .map(|&(_, ms)| ms)
                .collect();
            let (Some(p50), true) = (median(&inside), ops1 > ops0) else {
                continue;
            };
            let done = (ops1 - ops0) as f64;
            rates.op_p50_ms = rates.op_p50_ms.min(p50);
            rates.ops_per_s = rates.ops_per_s.max(done / (t1 - t0));
            rates.cpu_ms_per_op = rates.cpu_ms_per_op.min((cpu1 - cpu0) / done);
            rates.window_p50_ms.push(p50);
        }
        rates
    }
}

struct Rates {
    op_p50_ms: f64,
    ops_per_s: f64,
    cpu_ms_per_op: f64,
    /// The median latency of every window that completed an op: how far
    /// they lie apart is the interference the run met.
    window_p50_ms: Vec<f64>,
}

impl Rates {
    fn insert_into(&self, metrics: &mut BTreeMap<&'static str, f64>, notes: &mut Vec<String>) {
        metrics.insert("op_p50_ms", self.op_p50_ms);
        metrics.insert("ops_per_s", self.ops_per_s);
        metrics.insert("cpu_ms_per_op", self.cpu_ms_per_op);
        let medians = sorted(self.window_p50_ms.clone());
        let at = |p: f64| percentile(&medians, p).unwrap_or(0.0);
        notes.push(format!(
            "op_p50_ms, ops_per_s, cpu_ms_per_op: best of {} windows of {RATE_WINDOW:?}; \
             window medians (ms): min {:.2}, quartiles {:.2} {:.2} {:.2}, max {:.2}",
            medians.len(),
            at(0.0),
            at(25.0),
            at(50.0),
            at(75.0),
            at(100.0)
        ));
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The median, or 0 for a metric the workload took no sample of.
fn median_or_zero(values: impl IntoIterator<Item = f64>) -> f64 {
    median(&values.into_iter().collect::<Vec<_>>()).unwrap_or(0.0)
}

// ---- entry point --------------------------------------------------------------

pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &Path,
) -> Result<Outcome, String> {
    let path = out.join(format!("{}-{}.ngds", spec.name, std::process::id()));
    let result = match spec.kind {
        Kind::Audit => run_audit(spec, seed, seconds, trace, &path, out),
        Kind::Reset | Kind::Stream => run_served(spec, seed, seconds, trace, &path, out),
    };
    let _ = std::fs::remove_file(&path);
    let mut registry = path.into_os_string();
    registry.push(".daemons");
    let _ = std::fs::remove_file(registry);
    result
}

// ---- audit ----------------------------------------------------------------------

fn run_audit(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    path: &Path,
    out: &Path,
) -> Result<Outcome, String> {
    let (inputs, setup_s) = repeated_setup(trace, || Inputs::build(spec, seed, path), drop)?;
    let text = &inputs.data.sigma_text;
    // One offline audit, as a CLI user runs it: map the file, parse the
    // rule file, detect with cold plans.
    let audit_once = || -> Result<sut::DetectionReport, String> {
        let mmap = sut::load_snapshot(path)?;
        let sigma = sut::parse_rules(text)?;
        Ok(sut::audit_mmap(&sigma, &mmap))
    };
    for _ in 0..spec.warmup {
        audit_once()?;
    }
    let mut iterations_ms: Vec<(f64, f64)> = Vec::new();
    let mut counts = Vec::new();
    let mut last = None;
    let mut marks = Marks::start();
    while marks.started.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let report = std::hint::black_box(audit_once()?);
        iterations_ms.push((marks.started.elapsed().as_secs_f64(), ms(t0.elapsed())));
        counts.push(report.violations.len());
        last = Some(report);
        marks.tick(iterations_ms.len() as u64);
    }
    let iterations = iterations_ms.len();
    let untraced_p50_ms = median_or_zero(iterations_ms.iter().map(|&(_, ms)| ms));
    let rates = marks.best_windows(iterations as u64, &iterations_ms);
    let rss_mb = process_rss_mib();
    let last = last.ok_or("the timed phase ran no audit")?;

    // Output check: the mmap reader and the in-memory reader agree, and
    // every iteration found the same number of violations.
    let reference = sut::audit_mem(&inputs.data.sigma, &inputs.csr);
    let mut failed = counts
        .iter()
        .filter(|&&c| c != last.violations.len())
        .count() as u64;
    if reference.violations != last.violations {
        failed += 1;
    }

    let mut metrics = BTreeMap::new();
    let mut notes = vec![format!(
        "audit iterations = {iterations}, |E| = {}, violations = {}",
        inputs.data.graph.edge_count(),
        last.violations.len()
    )];
    rates.insert_into(&mut metrics, &mut notes);
    let setup_again_s = second_burst(trace, || Inputs::build(spec, seed, path), drop)?;
    metrics.insert("setup_s", setup_s.min(setup_again_s));

    if trace {
        inputs.insert_into(&mut metrics, rss_mb);
        search_metrics(&mut metrics, &[last.stats]);

        let mut t = Tracer::new();
        let before = sut::metrics_snapshot();
        let mut traced_ms = Vec::new();
        for i in 0..TRACED_AUDITS {
            t.set_request(i as u64);
            let t0 = Instant::now();
            t.span("audit", |t| -> Result<(), String> {
                let mmap = t.span("graph.persist.load", |_| sut::load_snapshot(path))?;
                let sigma = t.span("lang.parse", |_| sut::parse_rules(text))?;
                t.span("detect.batch.run", |_| sut::audit_mmap(&sigma, &mmap));
                Ok(())
            })?;
            traced_ms.push(ms(t0.elapsed()));
        }
        let after = sut::metrics_snapshot();
        let mem_ms: Vec<f64> = (0..TRACED_AUDITS)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(sut::audit_mem(&inputs.data.sigma, &inputs.csr));
                ms(t0.elapsed())
            })
            .collect();
        let span_median = |name: &str| median_or_zero(t.durations_ms(name));
        let run_ms = span_median("detect.batch.run");
        metrics.insert("graph.persist.load_ms", span_median("graph.persist.load"));
        metrics.insert("lang.parse_ms", span_median("lang.parse"));
        metrics.insert("detect.batch.run_ms", run_ms);
        metrics.insert(
            "detect.batch.mem_vs_mmap_ratio",
            median_or_zero(mem_ms) / run_ms,
        );
        metrics.insert(
            "match.plan.compile_ms",
            histogram_delta(&before, &after, "matcher.plan.compile.ns").sum as f64
                / 1e6
                / TRACED_AUDITS as f64,
        );
        metrics.insert(
            "trace_overhead_pct",
            100.0 * (median_or_zero(traced_ms) - untraced_p50_ms) / untraced_p50_ms,
        );
        write_trace(&t, spec, out, &mut notes)?;
    }
    Ok(Outcome {
        metrics,
        attempted: iterations as u64 + 1,
        failed,
        digest: inputs.digest()?,
        notes,
    })
}

// ---- served workloads -----------------------------------------------------------

/// One timed `UPDATE` as its client saw it.
struct Sample {
    /// Index into the client's request list.
    request: usize,
    /// Seconds into the timed phase at which `UPDATE_DONE` arrived.
    end_s: f64,
    rtt_ns: u64,
    first_vio_ns: Option<u64>,
    done: DoneResponse,
    /// The streamed chunks, kept for every tenth request only.
    chunks: Option<Vec<(Side, Vec<Violation>)>>,
}

#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    query_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Taken by the primary client only.
    marks: Option<Marks>,
}

impl ClientLog {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 3 {
            self.errors.push(what);
        }
    }
}

/// One `UPDATE`, timed from the send to `UPDATE_DONE`.
fn timed_update(
    client: &mut Client,
    batch: &BatchUpdate,
    request: usize,
    keep_chunks: bool,
    phase_started: Instant,
) -> Result<Sample, String> {
    let mut first_vio_ns = None;
    let mut chunks = keep_chunks.then(Vec::new);
    let t0 = Instant::now();
    let done = client.update(batch, |side, violations| {
        if first_vio_ns.is_none() {
            first_vio_ns = Some(t0.elapsed().as_nanos() as u64);
        }
        if let Some(kept) = chunks.as_mut() {
            kept.push((side, violations));
        }
    })?;
    Ok(Sample {
        request,
        end_s: phase_started.elapsed().as_secs_f64(),
        rtt_ns: t0.elapsed().as_nanos() as u64,
        first_vio_ns,
        done,
        chunks,
    })
}

/// A client of a `Reset` or `Stream` workload issuing `UPDATE`s until the
/// deadline (or, without resets, until its stream ends).
fn drive_writer(
    client: &mut Client,
    stream: &[BatchUpdate],
    spec: &Spec,
    seconds: f64,
    barrier: &Barrier,
    // `UPDATE`s completed by every client, and whether this client is the
    // one that takes the progress marks.
    (completed, primary): (&AtomicU64, bool),
) -> ClientLog {
    let reset = spec.kind == Kind::Reset;
    let mut log = ClientLog::default();
    let warm = |client: &mut Client| -> Result<(), String> {
        for batch in &stream[..spec.warmup] {
            client.update(batch, |_, _| ())?;
            if reset {
                client.reset()?;
            }
        }
        Ok(())
    };
    if let Err(e) = warm(client) {
        log.fail(format!("warm-up: {e}"));
    }
    barrier.wait();
    let mut marks = Marks::start();
    let mut index = spec.warmup;
    while marks.started.elapsed().as_secs_f64() < seconds && log.failed < MAX_ERRORS {
        if index == stream.len() {
            if !reset {
                break;
            }
            index = 0;
        }
        log.attempted += 1;
        let keep = reset && log.attempted % 10 == 0;
        match timed_update(client, &stream[index], index, keep, marks.started) {
            Ok(sample) => {
                log.samples.push(sample);
                completed.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => log.fail(format!("UPDATE #{index}: {e}")),
        }
        if reset {
            if let Err(e) = client.reset() {
                log.fail(format!("RESET after #{index}: {e}"));
            }
        }
        index += 1;
        if primary {
            marks.tick(completed.load(Ordering::Relaxed));
        }
    }
    log.marks = primary.then_some(marks);
    log
}

/// The `Stream` reader: closed-loop `QUERY` until the writer is done.
fn drive_reader(client: &mut Client, writer_done: &AtomicBool, barrier: &Barrier) -> ClientLog {
    let mut log = ClientLog::default();
    if let Err(e) = client.query(|_, _| ()) {
        log.fail(format!("warm-up QUERY: {e}"));
    }
    barrier.wait();
    while !writer_done.load(Ordering::SeqCst) && log.failed < MAX_ERRORS {
        log.attempted += 1;
        let t0 = Instant::now();
        let mut streamed = 0u64;
        match client.query(|_, chunk| streamed += chunk.len() as u64) {
            Ok(done) if done.added_total == streamed && streamed > 0 => {
                log.query_ns.push(t0.elapsed().as_nanos() as u64)
            }
            Ok(done) => log.fail(format!(
                "QUERY streamed {streamed} of {} violations",
                done.added_total
            )),
            Err(e) => log.fail(format!("QUERY: {e}")),
        }
    }
    log
}

fn run_served(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    path: &Path,
    out: &Path,
) -> Result<Outcome, String> {
    let (mut rig, setup_s) = repeated_setup(
        trace,
        || Rig::build(spec, seed, path),
        |rig| {
            rig.stop();
        },
    )?;
    let streams = &rig.inputs.streams;

    // ---- untraced timed phase: the source of every end-to-end metric ----
    let barrier = Barrier::new(2);
    let writer_done = AtomicBool::new(false);
    let completed = AtomicU64::new(0);
    let [first, second] = rig.clients.as_mut_slice() else {
        unreachable!("a rig has two clients");
    };
    let (mut logs, marks) = std::thread::scope(|scope| {
        let secondary = scope.spawn(|| match spec.kind {
            Kind::Stream => drive_reader(second, &writer_done, &barrier),
            _ => drive_writer(
                second,
                &streams[1],
                spec,
                seconds,
                &barrier,
                (&completed, false),
            ),
        });
        let mut primary = drive_writer(
            first,
            &streams[0],
            spec,
            seconds,
            &barrier,
            (&completed, true),
        );
        writer_done.store(true, Ordering::SeqCst);
        let marks = primary
            .marks
            .take()
            .expect("the primary client takes marks");
        (
            vec![primary, secondary.join().expect("client 1 thread")],
            marks,
        )
    });
    let rss_mb = process_rss_mib();

    let mut attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    let mut failed: u64 = logs.iter().map(|l| l.failed).sum();
    let mut notes: Vec<String> = logs
        .iter()
        .flat_map(|l| l.errors.iter().map(|e| format!("error: {e}")))
        .collect();

    // ---- output checks ----------------------------------------------------
    let sigma = &rig.inputs.data.sigma;
    match spec.kind {
        Kind::Reset => {
            // Every tenth served ΔVio equals the sequential detector's on
            // the in-memory snapshot.
            for (log, stream) in logs.iter_mut().zip(streams) {
                let mut references: HashMap<usize, DeltaViolations> = HashMap::new();
                for sample in &mut log.samples {
                    let Some(chunks) = sample.chunks.take() else {
                        continue;
                    };
                    attempted += 1;
                    let served = collect_delta(chunks);
                    let reference = references.entry(sample.request).or_insert_with(|| {
                        sut::reference_delta(sigma, &rig.inputs.csr, &stream[sample.request])
                    });
                    if &served != reference {
                        failed += 1;
                        notes.push(format!("mismatch: ΔVio of request #{}", sample.request));
                    }
                }
            }
        }
        Kind::Stream => {
            // Across every epoch swap: the writer's final QUERY equals
            // batch detection over the graph its stream led to.
            attempted += 1;
            let absorbed = spec.warmup + logs[0].samples.len();
            let mut graph = rig.inputs.data.graph.clone();
            for batch in &streams[0][..absorbed] {
                batch.apply(&mut graph).map_err(|e| e.to_string())?;
            }
            let mut served = ViolationSet::new();
            let answer = rig.clients[0].query(|_, chunk| {
                for violation in chunk {
                    served.insert(violation);
                }
            });
            if answer.is_err() || served != sut::reference_full(sigma, &graph) || logs[0].failed > 0
            {
                failed += 1;
                notes.push("mismatch: final QUERY vs dect over the final graph".into());
            }
        }
        Kind::Audit => unreachable!("audit is not served"),
    }
    let inputs = rig.stop();
    let setup_again_s = second_burst(
        trace,
        || Rig::build(spec, seed, path),
        |rig| {
            rig.stop();
        },
    )?;

    // ---- metrics of the untraced phase --------------------------------------
    let samples: Vec<&Sample> = logs.iter().flat_map(|l| &l.samples).collect();
    if samples.is_empty() {
        return Err(format!("no UPDATE completed: {}", notes.join("; ")));
    }
    let updates = samples.len() as f64;
    let latencies: Vec<(f64, f64)> = samples
        .iter()
        .map(|s| (s.end_s, s.rtt_ns as f64 / 1e6))
        .collect();
    let mut metrics = BTreeMap::new();
    notes.push(format!("timed UPDATEs = {updates}"));
    marks
        .best_windows(samples.len() as u64, &latencies)
        .insert_into(&mut metrics, &mut notes);
    metrics.insert("setup_s", setup_s.min(setup_again_s));

    if trace {
        let rtt_ms = sorted(latencies.iter().map(|&(_, ms)| ms).collect());
        let p95 = guarded_percentile(&rtt_ms, 95.0);
        notes.push(format!(
            "update_p95_ms = {}",
            crate::stats::render_guarded(p95, rtt_ms.len())
        ));
        metrics.insert("update_p95_ms", p95.unwrap_or(0.0));
        let first_vio: Vec<f64> = samples
            .iter()
            .filter_map(|s| s.first_vio_ns)
            .map(|ns| ns as f64 / 1e6)
            .collect();
        notes.push(format!(
            "first_vio_p50_ms over {} of {updates} UPDATEs that produced a violation",
            first_vio.len()
        ));
        metrics.insert("first_vio_p50_ms", median_or_zero(first_vio));
        let query_ms: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.query_ns.iter().map(|&ns| ns as f64 / 1e6))
            .collect();
        if spec.kind == Kind::Stream {
            notes.push(format!("reader QUERYs = {}", query_ms.len()));
            // The writer's first request answered on each new epoch: the
            // one that waited for the synchronous compaction.
            let mut epoch = samples[0].done.epoch;
            let mut stalls = Vec::new();
            for s in &logs[0].samples {
                if s.done.epoch != epoch {
                    epoch = s.done.epoch;
                    stalls.push(s.rtt_ns as f64 / 1e6);
                }
            }
            notes.push(format!(
                "epoch switches seen by the writer = {}",
                stalls.len()
            ));
            metrics.insert("epoch_switch_p50_ms", median_or_zero(stalls));
        }
        metrics.insert("query_p50_ms", median_or_zero(query_ms));

        let run_ms = median_or_zero(samples.iter().map(|s| s.done.elapsed_nanos as f64 / 1e6));
        let overhead_ms = median_or_zero(
            samples
                .iter()
                .map(|s| s.rtt_ns.saturating_sub(s.done.elapsed_nanos) as f64 / 1e6),
        );
        let (hits, misses) = samples.iter().fold((0u64, 0u64), |(h, m), s| {
            (
                h + s.done.stats.plan_cache_hits,
                m + s.done.stats.plan_cache_misses,
            )
        });
        metrics.insert("detect.delta.run_ms", run_ms);
        metrics.insert("serve.server.overhead_ms", overhead_ms);
        metrics.insert(
            "match.plan.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        inputs.insert_into(&mut metrics, rss_mb);
        let untraced_p50_ms = percentile(&rtt_ms, 50.0).expect("samples");
        traced_pass(
            spec,
            &inputs,
            out,
            untraced_p50_ms,
            &mut metrics,
            &mut notes,
        )?;
    }
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        digest: inputs.digest()?,
        notes,
    })
}

fn collect_delta(chunks: Vec<(Side, Vec<Violation>)>) -> DeltaViolations {
    let mut delta = DeltaViolations::new();
    for (side, violations) in chunks {
        sut::absorb_chunk(&mut delta, side, violations);
    }
    delta
}

// ---- the traced pass of a served workload ---------------------------------------

/// (a) Replay client 0's first requests in-process, stage by stage, under
/// spans; (b) send the same requests over the wire from one client between
/// two registry snapshots.  Neither feeds an end-to-end metric.
fn traced_pass(
    spec: &Spec,
    inputs: &Inputs,
    out: &Path,
    // Median `UPDATE` round trip over the whole untraced phase — what the
    // whole-pass medians below are comparable with (`op_p50_ms` is a
    // best-window figure).
    untraced_p50_ms: f64,
    metrics: &mut BTreeMap<&'static str, f64>,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let sigma = &inputs.data.sigma;
    let stream = &inputs.streams[0];
    let total = (spec.warmup + TRACED_REQUESTS).min(stream.len());
    let reset = spec.kind == Kind::Reset;

    // (a) in-process replay
    let mut replay = Replay::open(&inputs.path)?;
    let mut warm = Tracer::new();
    let mut t = Tracer::new();
    let mut replayed = Vec::new();
    let mut compact_out_bytes = Vec::new();
    for (i, batch) in stream[..total].iter().enumerate() {
        let timed = i >= spec.warmup;
        let tracer = if timed { &mut t } else { &mut warm };
        tracer.set_request(i as u64);
        let answer = tracer.span("request", |t| replay.update(t, sigma, batch))?;
        if timed {
            replayed.push(answer);
        }
        if reset {
            replay.reset();
        } else if spec
            .compact_after
            .is_some_and(|limit| replay.pending_ops() as u64 >= limit)
        {
            let epoch_file = out.join(format!(
                "{}-{}-replay-{i}.ngds",
                spec.name,
                std::process::id()
            ));
            let bytes = replay.compact(tracer, &epoch_file)?;
            if timed {
                compact_out_bytes.push(bytes as f64);
            }
        }
    }
    drop(replay);

    let n = replayed.len() as f64;
    let stage = |name: &str| t.per_request_ms(name);
    let stage_median = |name: &str| median_or_zero(stage(name).into_values());
    let (validate, merge, build, detect, apply) = (
        stage("graph.overlay.validate"),
        stage("graph.overlay.merge"),
        stage("graph.overlay.build"),
        stage("detect.delta.run"),
        stage("detect.session.apply"),
    );
    let apply_ms = stage_median("detect.session.apply");
    metrics.insert(
        "graph.overlay.validate_ms",
        stage_median("graph.overlay.validate"),
    );
    metrics.insert(
        "graph.overlay.merge_ms",
        stage_median("graph.overlay.merge"),
    );
    metrics.insert(
        "graph.overlay.build_ms",
        stage_median("graph.overlay.build"),
    );
    metrics.insert("detect.session.apply_ms", apply_ms);
    metrics.insert(
        "detect.session.non_detect_ms",
        median_or_zero(
            replayed
                .iter()
                .zip(apply.values())
                .map(|(r, apply)| apply - r.twin_detect_ms),
        ),
    );
    let unattributed = median_or_zero(apply.iter().map(|(request, apply)| {
        let parts = validate[request] + merge[request] + build[request] + detect[request];
        100.0 * (apply - parts) / apply
    }));
    metrics.insert("detect.session.unattributed_pct", unattributed);
    if unattributed.abs() > 10.0 {
        notes.push(format!(
            "FLAG: detect.session.unattributed_pct = {unattributed:.1} % (> 10 %)"
        ));
    }
    metrics.insert(
        "graph.persist.compact_ms",
        median_or_zero(t.durations_ms("graph.persist.compact")),
    );
    metrics.insert(
        "detect.session.rebase_ms",
        median_or_zero(t.durations_ms("detect.session.rebase")),
    );
    metrics.insert(
        "graph.persist.compact_out_bytes",
        median_or_zero(compact_out_bytes),
    );
    metrics.insert(
        "graph.overlay.pending_ops_p50",
        median_or_zero(replayed.iter().map(|r| r.pending_ops as f64)),
    );
    let mut wire_us = 0.0;
    for (metric, span) in [
        ("serve.wire.update_encode_us", "serve.wire.update_encode"),
        ("serve.wire.update_decode_us", "serve.wire.update_decode"),
        ("serve.wire.vio_encode_us", "serve.wire.vio_encode"),
        ("serve.wire.vio_decode_us", "serve.wire.vio_decode"),
    ] {
        let us = stage_median(span) * 1e3;
        wire_us += us;
        metrics.insert(metric, us);
    }
    metrics.insert(
        "serve.server.residual_ms",
        untraced_p50_ms - apply_ms - wire_us / 1e3,
    );
    // Counts of a fixed, single-threaded request list: exact repeats.
    search_metrics(
        metrics,
        &replayed.iter().map(|r| r.done.stats).collect::<Vec<_>>(),
    );
    let nodes_p50 = median_or_zero(replayed.iter().map(|r| r.done.neighborhood_nodes as f64));
    metrics.insert("detect.delta.neighborhood_nodes_p50", nodes_p50);
    metrics.insert(
        "detect.delta.us_per_neighborhood_node",
        if nodes_p50 > 0.0 {
            metrics["detect.delta.run_ms"] * 1e3 / nodes_p50
        } else {
            0.0
        },
    );
    metrics.insert(
        "detect.delta.scanned_per_op",
        replayed
            .iter()
            .map(|r| r.done.cost.scanned as f64)
            .sum::<f64>()
            / n,
    );
    metrics.insert(
        "detect.delta.changes_per_op",
        replayed
            .iter()
            .map(|r| (r.done.added_total + r.done.removed_total) as f64)
            .sum::<f64>()
            / n,
    );
    write_trace(&t, spec, out, notes)?;

    // (b) the same requests over the wire, one client, between two
    // snapshots of the metrics registry.
    let daemon = Daemon::start(&inputs.path, sigma, spec.compact_after)?;
    let mut client = daemon.connect("traced")?;
    let mut rtt_ms = Vec::with_capacity(total);
    let mut before = sut::metrics_snapshot();
    for (i, batch) in stream[..total].iter().enumerate() {
        if i == spec.warmup {
            before = sut::metrics_snapshot();
        }
        let t0 = Instant::now();
        client.update(batch, |_, _| ())?;
        if i >= spec.warmup {
            rtt_ms.push(ms(t0.elapsed()));
        }
        if reset {
            client.reset()?;
        }
    }
    let after = sut::metrics_snapshot();
    drop(client);
    daemon.stop();

    let counter = |name: &str| {
        after
            .counter(name)
            .unwrap_or(0)
            .saturating_sub(before.counter(name).unwrap_or(0)) as f64
    };
    metrics.insert(
        "serve.wire.request_bytes_per_op",
        counter("serve.bytes.in") / n,
    );
    metrics.insert(
        "serve.wire.response_bytes_per_op",
        counter("serve.bytes.out") / n,
    );
    metrics.insert(
        "serve.server.loop_iterations_per_op",
        counter("serve.loop.iterations") / n,
    );
    metrics.insert(
        "serve.server.ready_events_per_op",
        counter("serve.loop.ready_events") / n,
    );
    metrics.insert(
        "serve.server.backpressure_stalls",
        counter("serve.backpressure.stalls"),
    );
    metrics.insert(
        "serve.server.epoch_switches",
        counter("serve.epoch.switches"),
    );
    metrics.insert(
        "serve.server.session_rebases",
        counter("serve.session.rebases"),
    );
    metrics.insert(
        "serve.server.frame_update_p50_ms",
        histogram_delta(&before, &after, "serve.frame.update.latency_ns").p50() as f64 / 1e6,
    );
    metrics.insert(
        "match.plan.compile_ms",
        histogram_delta(&before, &after, "matcher.plan.compile.ns").sum as f64 / 1e6 / n,
    );
    metrics.insert(
        "trace_overhead_pct",
        100.0 * (median_or_zero(rtt_ms) - untraced_p50_ms) / untraced_p50_ms,
    );
    Ok(())
}

/// Matcher work per operation and the share of it that was useful.
fn search_metrics(metrics: &mut BTreeMap<&'static str, f64>, stats: &[SearchStats]) {
    let n = stats.len().max(1) as f64;
    let sum = |f: fn(&SearchStats) -> usize| stats.iter().map(|s| f(s) as f64).sum::<f64>();
    let candidates = sum(|s| s.candidates_inspected);
    let matches = sum(|s| s.matches_found);
    metrics.insert("match.search.expanded_per_op", sum(|s| s.expanded) / n);
    metrics.insert("match.search.candidates_per_op", candidates / n);
    metrics.insert("match.search.matches_per_op", matches / n);
    metrics.insert(
        "match.search.gallops_per_op",
        sum(|s| s.gallop_intersections) / n,
    );
    metrics.insert(
        "match.search.useful_ratio",
        if candidates > 0.0 {
            matches / candidates
        } else {
            0.0
        },
    );
}

/// The samples histogram `name` took between two registry snapshots.
fn histogram_delta(
    before: &sut::MetricsSnapshot,
    after: &sut::MetricsSnapshot,
    name: &str,
) -> sut::HistogramSample {
    let mut delta = after
        .histogram(name)
        .cloned()
        .unwrap_or_else(|| sut::HistogramSample {
            name: name.to_string(),
            count: 0,
            sum: 0,
            buckets: Vec::new(),
        });
    if let Some(earlier) = before.histogram(name) {
        delta.count -= earlier.count;
        delta.sum -= earlier.sum;
        for (bucket, &n) in delta.buckets.iter_mut().zip(&earlier.buckets) {
            *bucket -= n;
        }
    }
    delta
}

fn write_trace(t: &Tracer, spec: &Spec, out: &Path, notes: &mut Vec<String>) -> Result<(), String> {
    let path = out.join(format!("trace-{}.json", spec.name));
    t.write_json(spec.name, &path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    notes.push(format!(
        "{} spans written to {}",
        t.span_count(),
        path.display()
    ));
    Ok(())
}
