//! Workload `serve_mixed`: client sessions talk to an in-process
//! `serve_unix` over the length-prefixed wire protocol. Most requests are
//! warm artifact-cache hits (a Phase-I-heavy scale-free clone, the
//! numeric-bound cop20kA clone, an A≠B product, and a `batch` of small
//! products that takes the micro-batch path); one request in five is the
//! write class: a `gen` with a fresh seed, then its cold multiply, which
//! inserts into the registry and misses the artifact cache.

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hetero_spmm::core::{hh_cpu_with_artifacts, HeteroContext, HhCpuConfig, SpmmArtifacts};
use hetero_spmm::scalefree::{scale_free_matrix, GeneratorConfig};
use hetero_spmm::serve::json::{self, Json};
use hetero_spmm::serve::{
    read_frame, serve_unix, wire, write_frame, MultiplyRequest, ServiceConfig, ServiceStats,
    SpmmService,
};

use crate::gate::{self, Case, ReplyPrint};
use crate::harness::{self, Alternating, RunArgs, MIN_OPS};
use crate::inputs::{self, Operand};
use crate::layers;
use crate::out_of_core;
use crate::report::{EndToEnd, Report};
use crate::stats;
use crate::trace::{SpanId, Tracer};
use crate::workload::{self, ServeFigures};

const SCALE: usize = 16;

/// Small products for the `batch` request: every `nnz(A) + nnz(B)` is
/// under the service's default micro-batch limit (40 000).
const BATCH: [(&str, usize); 4] = [
    ("scircuit", 128),
    ("internet", 32),
    ("email-Enron", 64),
    ("p2p-Gnutella31", 16),
];

/// Write-class operand: a `gen` of a square power-law matrix.
const WRITE_ROWS: usize = 50_000;
const WRITE_NNZ: usize = 250_000;
const WRITE_ALPHA: f64 = 2.1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Warm multiply of the Phase-I-heavy web-Google clone.
    ScaleFree,
    /// Warm multiply of the numeric-bound cop20kA clone.
    Cop,
    /// Warm A≠B multiply of two webbase-1M clones.
    Ab,
    /// Warm `batch` of the small products.
    Batch,
    /// `gen` of a fresh write-class matrix.
    Gen,
    /// Cold multiply of the matrix the preceding `gen` made.
    Write,
}

const CLASSES: [Class; 6] = [
    Class::ScaleFree,
    Class::Cop,
    Class::Ab,
    Class::Batch,
    Class::Gen,
    Class::Write,
];

impl Class {
    fn index(self) -> usize {
        CLASSES.iter().position(|&c| c == self).expect("listed")
    }

    fn name(self) -> &'static str {
        match self {
            Class::ScaleFree => "hit_scalefree",
            Class::Cop => "hit_cop20kA",
            Class::Ab => "hit_a_ne_b",
            Class::Batch => "hit_batch",
            Class::Gen => "write_gen",
            Class::Write => "write_multiply",
        }
    }
}

/// One client's request cycle; `Gen` is always followed by its `Write`.
/// Two of every ten requests are the write class. The weights put the
/// median inside the web-Google hit class and the tail inside the cold
/// write-class multiplies, away from any class boundary.
const MIX: [Class; 10] = [
    Class::ScaleFree,
    Class::Cop,
    Class::ScaleFree,
    Class::Batch,
    Class::Gen,
    Class::Write,
    Class::ScaleFree,
    Class::Ab,
    Class::ScaleFree,
    Class::Cop,
];

/// A warm single-multiply request and the reply it must produce.
struct Hit {
    a: String,
    b: String,
    case: Case,
    print: ReplyPrint,
}

/// The in-process server: a `serve_unix` thread over a socket inside the
/// run's temporary directory. Dropping it shuts the server down and joins it.
struct Server {
    service: Arc<SpmmService>,
    path: PathBuf,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Server {
    fn start(tmp: &Path) -> Self {
        let service = Arc::new(SpmmService::new(ServiceConfig::default()));
        // A short relative path: socket addresses are limited to ~100
        // bytes, and the checkout's absolute path may be long.
        let path = tmp.join("serve.sock");
        let thread = {
            let (service, path) = (service.clone(), path.clone());
            std::thread::spawn(move || serve_unix(service, &path))
        };
        Self {
            service,
            path,
            thread: Some(thread),
        }
    }

    /// Connect, retrying until the server thread has bound the socket.
    fn connect(&self) -> Result<UnixStream, String> {
        let start = Instant::now();
        loop {
            match UnixStream::connect(&self.path) {
                Ok(s) => return Ok(s),
                Err(e) if start.elapsed() > Duration::from_secs(10) => {
                    return Err(format!("cannot connect to the server: {e}"))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    fn stop(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let mut s = self.connect()?;
        let shutdown = Json::obj(vec![("op", "shutdown".into())]);
        roundtrip(&mut s, &shutdown)?;
        drop(s);
        thread
            .join()
            .map_err(|_| "the server thread panicked".to_string())?
            .map_err(|e| format!("the server failed: {e}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

fn roundtrip(s: &mut UnixStream, request: &Json) -> Result<Json, String> {
    write_frame(s, request).map_err(|e| format!("write_frame: {e}"))?;
    read_frame(s)
        .map_err(|e| format!("read_frame: {e}"))?
        .ok_or_else(|| "the server closed the session".to_string())
}

fn multiply_json(a: &str, b: &str) -> Json {
    Json::obj(vec![
        ("op", "multiply".into()),
        ("a", a.into()),
        ("b", b.into()),
    ])
}

fn print_of(reply: &Json) -> Option<ReplyPrint> {
    Some(ReplyPrint {
        c_hash: reply.str_field("c_hash")?.to_string(),
        profile_bits: reply.str_field("profile_bits")?.to_string(),
        threshold_a: reply.usize_field("threshold_a")?,
        threshold_b: reply.usize_field("threshold_b")?,
        tuples_merged: reply.usize_field("tuples_merged")?,
    })
}

fn is_ok(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool) == Some(true)
}

fn warm(reply: &Json) -> Option<bool> {
    reply.get("warm").and_then(Json::as_bool)
}

struct State {
    hits: Vec<Hit>,
    batch: Vec<Hit>,
    batch_json: Json,
    server: Server,
}

fn register(service: &SpmmService, op: &Operand, alias: &str) {
    service.insert_matrix((*op.matrix).clone(), Some(alias), op.scale);
}

fn setup(args: &RunArgs) -> Result<State, String> {
    let seed = args.seed;
    let sf = gate::expect_square(inputs::clone_of("web-Google", SCALE, seed, 0))?;
    let cop = gate::expect_square(inputs::clone_of("cop20kA", SCALE, seed, 0))?;
    let ab = gate::expect(
        inputs::clone_of("webbase-1M", SCALE, seed, 0),
        inputs::clone_of("webbase-1M", SCALE, seed, 1),
    )?;
    let batch_cases = BATCH
        .iter()
        .map(|&(name, scale)| gate::expect_square(inputs::clone_of(name, scale, seed, 0)))
        .collect::<Result<Vec<_>, _>>()?;

    let server = Server::start(&args.tmp);
    let service = &server.service;
    let mut hits = Vec::new();
    // in `Class::index` order: ScaleFree, Cop, Ab
    for (case, a, b) in [(sf, "sf", "sf"), (cop, "cop", "cop"), (ab, "ab_a", "ab_b")] {
        register(service, &case.a, a);
        if b != a {
            register(service, &case.b, b);
        }
        hits.push(Hit {
            a: a.into(),
            b: b.into(),
            print: ReplyPrint::of(&case.expected),
            case,
        });
    }
    let mut batch = Vec::new();
    for (i, case) in batch_cases.into_iter().enumerate() {
        let alias = format!("small{i}");
        register(service, &case.a, &alias);
        batch.push(Hit {
            a: alias.clone(),
            b: alias,
            print: ReplyPrint::of(&case.expected),
            case,
        });
    }
    let batch_json = Json::obj(vec![
        ("op", "batch".into()),
        (
            "items",
            Json::Arr(batch.iter().map(|h| multiply_json(&h.a, &h.b)).collect()),
        ),
    ]);

    // Warm the artifact cache: after this every hit-class request hits.
    let mut s = server.connect()?;
    for hit in &hits {
        let reply = roundtrip(&mut s, &multiply_json(&hit.a, &hit.b))?;
        if !is_ok(&reply) || print_of(&reply).as_ref() != Some(&hit.print) {
            return Err(format!(
                "warm-up multiply of {} failed: {}",
                hit.case.label(),
                reply.dump()
            ));
        }
    }
    let reply = roundtrip(&mut s, &batch_json)?;
    if !is_ok(&reply) {
        return Err(format!("warm-up batch failed: {}", reply.dump()));
    }
    Ok(State {
        hits,
        batch,
        batch_json,
        server,
    })
}

/// The generator configuration a write-class `gen` request names.
fn write_config(seed: u64) -> GeneratorConfig {
    GeneratorConfig::square_power_law(WRITE_ROWS, WRITE_NNZ, WRITE_ALPHA, seed)
}

/// Seed of the `k`-th write of client `client`: fresh per request, below
/// 2^52 so it crosses the wire as an exact JSON number.
fn write_seed(run_seed: u64, client: usize, k: u64) -> u64 {
    inputs::operand_seed(run_seed, "write", ((client as u64) << 32) | k) >> 12
}

/// One client's tallies: latencies per class, split traced / untraced.
#[derive(Debug, Default)]
struct ClientLog {
    traced: Vec<Vec<f64>>,
    plain: Vec<Vec<f64>>,
    failed: u64,
    /// Completion time of each request, s since the timed phase began.
    done_s: Vec<f64>,
    /// Write-class multiplies to verify after the loop: (seed, reply print).
    writes: Vec<(u64, Option<ReplyPrint>)>,
}

/// Where odd clients start in [`MIX`]: past the write pair, so the
/// sessions do not move in lockstep and every `Write` follows its `Gen`.
const ODD_OFFSET: usize = 6;

/// Client `client`'s closed loop over [`MIX`]. With a tracer, whole
/// cycles alternate between traced and untraced requests.
fn client_loop(
    state: &State,
    client: usize,
    run_seed: u64,
    start: Instant,
    deadline: Instant,
    min_ops: u64,
    tracer: Option<&Tracer>,
) -> Result<ClientLog, String> {
    let mut s = state.server.connect()?;
    let mut log = ClientLog {
        traced: vec![Vec::new(); CLASSES.len()],
        plain: vec![Vec::new(); CLASSES.len()],
        ..ClientLog::default()
    };
    let alias = format!("w{client}");
    let offset = (client % 2) * ODD_OFFSET;
    let mut writes = 0u64;
    let mut i = 0u64;
    while Instant::now() < deadline || i < min_ops {
        let pos = (i as usize + offset) % MIX.len();
        let class = MIX[pos];
        let traced = tracer.is_some() && (i / MIX.len() as u64).is_multiple_of(2);
        let write_seed = write_seed(run_seed, client, writes);
        let request = match class {
            Class::Batch => state.batch_json.clone(),
            Class::Gen => Json::obj(vec![
                ("op", "gen".into()),
                ("alias", alias.as_str().into()),
                ("nrows", WRITE_ROWS.into()),
                ("nnz", WRITE_NNZ.into()),
                ("alpha", Json::Num(WRITE_ALPHA)),
                ("seed", (write_seed as usize).into()),
                ("scale", SCALE.into()),
            ]),
            Class::Write => multiply_json(&alias, &alias),
            hit => {
                let h = &state.hits[hit.index()];
                multiply_json(&h.a, &h.b)
            }
        };
        let op_id = ((client as u64) << 40) | (i + 1);
        let t = Instant::now();
        let reply = match tracer.filter(|_| traced) {
            Some(tr) => {
                let op = tr.open("op", op_id, SpanId::NONE);
                let w = tr.span("wire.write_frame", op_id, op, || {
                    write_frame(&mut s, &request)
                });
                let r = tr.span("wire.read_frame", op_id, op, || read_frame(&mut s));
                tr.close(op);
                w.map_err(|e| e.to_string())?;
                r
            }
            None => {
                write_frame(&mut s, &request).map_err(|e| e.to_string())?;
                read_frame(&mut s)
            }
        }
        .map_err(|e| format!("read_frame: {e}"))?
        .ok_or("the server closed the session")?;
        let ms = t.elapsed().as_secs_f64() * 1e3;

        let ok = match class {
            Class::Batch => {
                let items = reply.get("items").and_then(Json::as_array).unwrap_or(&[]);
                if items.iter().any(|r| warm(r) != Some(true)) {
                    return Err("misconfigured: a batch item missed the artifact cache".into());
                }
                is_ok(&reply)
                    && items.len() == state.batch.len()
                    && items
                        .iter()
                        .zip(&state.batch)
                        .all(|(r, h)| is_ok(r) && print_of(r).as_ref() == Some(&h.print))
            }
            Class::Gen => is_ok(&reply),
            Class::Write => {
                if is_ok(&reply) && warm(&reply) != Some(false) {
                    return Err(
                        "misconfigured: a write-class multiply hit the artifact cache".into(),
                    );
                }
                log.writes
                    .push((write_seed, print_of(&reply).filter(|_| is_ok(&reply))));
                writes += 1;
                // verified after the loop, untimed
                true
            }
            hit => {
                if is_ok(&reply) && warm(&reply) != Some(true) {
                    return Err(format!(
                        "misconfigured: a {} request missed the artifact cache",
                        hit.name()
                    ));
                }
                is_ok(&reply) && print_of(&reply).as_ref() == Some(&state.hits[hit.index()].print)
            }
        };
        let per_class = if traced {
            &mut log.traced
        } else {
            &mut log.plain
        };
        per_class[class.index()].push(ms);
        log.done_s.push(start.elapsed().as_secs_f64());
        if !ok {
            log.failed += 1;
        }
        i += 1;
    }
    Ok(log)
}

/// Everything the timed phase measured, all clients merged.
struct Measured {
    alt: Alternating,
    latencies_ms: Vec<f64>,
    /// Completion times of all clients' requests, ascending.
    done_s: Vec<f64>,
    timed_wall_s: f64,
    failed_writes: u64,
    writes: usize,
    before: ServiceStats,
    after: ServiceStats,
    peak_rss_mb: Option<f64>,
}

impl Measured {
    fn count(&self, class: Class) -> usize {
        self.alt.traced[class.index()].len() + self.alt.plain[class.index()].len()
    }
}

fn measure(
    state: &State,
    args: &RunArgs,
    clients: usize,
    seconds: f64,
    min_ops: u64,
    tracer: Option<&Tracer>,
) -> Result<Measured, String> {
    let before = state.server.service.stats();
    let reset = tracer.is_none();
    if reset {
        stats::reset_peak_rss().map_err(|e| format!("cannot reset VmHWM: {e}"))?;
    }
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let logs: Vec<Result<ClientLog, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    client_loop(state, c, args.seed, start, deadline, min_ops, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a client thread panicked".into()))
            })
            .collect()
    });
    let timed_wall_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = if reset {
        Some(stats::peak_rss_mb().map_err(|e| e.to_string())?)
    } else {
        None
    };
    let after = state.server.service.stats();

    let mut alt = Alternating {
        traced: vec![Vec::new(); CLASSES.len()],
        plain: vec![Vec::new(); CLASSES.len()],
        ..Alternating::default()
    };
    let mut writes = Vec::new();
    let mut done_s = Vec::new();
    for log in logs {
        let log = log?;
        for k in 0..CLASSES.len() {
            alt.traced[k].extend(&log.traced[k]);
            alt.plain[k].extend(&log.plain[k]);
        }
        alt.failed += log.failed;
        writes.extend(log.writes);
        done_s.extend(log.done_s);
    }
    done_s.sort_by(f64::total_cmp);
    let latencies_ms: Vec<f64> = alt
        .traced
        .iter()
        .chain(&alt.plain)
        .flatten()
        .copied()
        .collect();
    alt.attempted = latencies_ms.len() as u64;

    // Write-class replies, verified untimed against a cold run of the same
    // generated matrix.
    let mut failed_writes = 0;
    for (seed, print) in &writes {
        let config = write_config(*seed);
        let op = Operand {
            label: format!("gen/{seed}"),
            scale: SCALE,
            seed: *seed,
            matrix: Arc::new(scale_free_matrix::<f64>(&config)),
            config,
        };
        let case = gate::expect_square(op)?;
        if print.as_ref() != Some(&ReplyPrint::of(&case.expected)) {
            failed_writes += 1;
        }
    }
    alt.failed += failed_writes;

    let m = Measured {
        alt,
        latencies_ms,
        done_s,
        timed_wall_s,
        failed_writes,
        writes: writes.len(),
        before,
        after,
        peak_rss_mb,
    };
    // Self-check: the artifact cache saw exactly the designed hits and
    // misses — one hit per single warm multiply, one per batch item, one
    // miss per write-class multiply.
    let hits = (m.count(Class::ScaleFree)
        + m.count(Class::Cop)
        + m.count(Class::Ab)
        + state.batch.len() * m.count(Class::Batch)) as u64;
    let misses = m.count(Class::Write) as u64;
    let got_hits = m.after.artifacts.hits - m.before.artifacts.hits;
    let got_misses = m.after.artifacts.misses - m.before.artifacts.misses;
    if (got_hits, got_misses) != (hits, misses) {
        return Err(format!(
            "misconfigured: artifact cache saw {got_hits} hits / {got_misses} misses, designed {hits} / {misses}"
        ));
    }
    Ok(m)
}

/// Median ms of `reps` calls.
fn median_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let ms: Vec<f64> = (0..reps)
        .map(|_| harness::time_ms(|| std::hint::black_box(f())).1)
        .collect();
    stats::median(&ms)
}

/// Median µs of calls of `f`, repeated for about 100 ms (at least 3 calls).
fn median_call_us<R>(mut f: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    let mut us = Vec::new();
    while us.len() < 3 || start.elapsed() < Duration::from_millis(100) {
        us.push(harness::time_ms(|| std::hint::black_box(f())).1 * 1e3);
    }
    stats::median(&us)
}

/// The serve figures of a measured phase plus an isolated single-client
/// replay: wire RTT vs a direct `SpmmService::multiply` vs the engine's
/// `hh_cpu_with_artifacts`, and the JSON parse / reply encode costs.
fn figures(state: &State, m: &Measured) -> Result<ServeFigures, String> {
    const REPS: usize = 5;
    let service = &state.server.service;
    let mut s = state.server.connect()?;
    let mut wire_over = Vec::new();
    let mut service_over = Vec::new();
    for hit in &state.hits {
        let request = multiply_json(&hit.a, &hit.b);
        let rtt = median_ms(REPS, || roundtrip(&mut s, &request));
        let direct_request = MultiplyRequest::new(hit.a.as_str(), hit.b.as_str());
        let direct = median_ms(REPS, || service.multiply(&direct_request));
        let (a, b) = (&*hit.case.a.matrix, &*hit.case.b.matrix);
        let mut ctx = HeteroContext::scaled(hit.case.scale());
        let artifacts = SpmmArtifacts::build(&ctx, a, b, HhCpuConfig::default().policy);
        let engine = median_ms(REPS, || {
            hh_cpu_with_artifacts(&mut ctx, a, b, &HhCpuConfig::default(), &artifacts)
        });
        wire_over.push(rtt - direct);
        service_over.push(direct - engine);
    }
    let reply = service
        .multiply(&MultiplyRequest::new(
            state.hits[0].a.as_str(),
            state.hits[0].b.as_str(),
        ))
        .map_err(|e| e.to_string())?;
    if ReplyPrint::of(&reply.output) != state.hits[0].print {
        return Err("the direct service replay disagrees with the expected output".into());
    }
    let text = wire::multiply_reply(&reply).dump();
    let parse_us = median_call_us(|| json::parse(std::hint::black_box(&text)).is_ok());
    // encoding includes the reply's content hash of C
    let encode_us = median_call_us(|| wire::multiply_reply(std::hint::black_box(&reply)).dump());

    let class_ms = |classes: &[Class]| {
        let v: Vec<f64> = classes
            .iter()
            .flat_map(|c| m.alt.plain[c.index()].iter().copied())
            .collect();
        stats::median(&v)
    };
    let (a, b) = (&m.after.artifacts, &m.before.artifacts);
    let (hits, misses) = (a.hits - b.hits, a.misses - b.misses);
    Ok(ServeFigures {
        hit_rtt_ms: class_ms(&[Class::ScaleFree, Class::Cop, Class::Ab]),
        miss_rtt_ms: class_ms(&[Class::Write]),
        batch_rtt_ms: class_ms(&[Class::Batch]),
        wire_overhead_ms: stats::mean(&wire_over),
        service_overhead_ms: stats::mean(&service_over),
        json_parse_us: parse_us,
        reply_encode_us: encode_us,
        artifact_hit_ratio: hits as f64 / (hits + misses) as f64,
        admission_rejected: (m.after.admission.rejected - m.before.admission.rejected) as f64,
        registry_evictions: (m.after.registry.evictions - m.before.registry.evictions) as f64,
    })
}

fn clients(args: &RunArgs) -> usize {
    args.nproc.clamp(1, 2)
}

/// The serve figures for a workload that does not serve: the serve
/// set-up, then two cycles of the mix from one client (one traced, one
/// not) and the isolated replay.
pub fn probe(args: &RunArgs, tracer: &Tracer) -> Result<ServeFigures, String> {
    let state = setup(args)?;
    let m = measure(&state, args, 1, 0.0, 2 * MIX.len() as u64, Some(tracer))?;
    figures(&state, &m)
}

pub fn run(args: &RunArgs) -> Result<Report, String> {
    let (state, setup_s) = harness::repeated_setup(|| setup(args))?;
    let clients = clients(args);
    let mut notes = vec![
        format!(
            "operands: [{}]",
            state
                .hits
                .iter()
                .chain(&state.batch)
                .map(|h| h.case.describe())
                .collect::<Vec<_>>()
                .join(",")
        ),
        format!(
            "clients: {clients}, mix per cycle: {:?}, write class: gen {WRITE_ROWS} rows / {WRITE_NNZ} nnz / alpha {WRITE_ALPHA}",
            MIX.iter().map(|c| c.name()).collect::<Vec<_>>()
        ),
    ];
    // every client must complete at least two cycles (one per mode when
    // traced) and the run must leave the tail its samples beyond
    let min_ops = (2 * MIX.len() as u64).max(MIN_OPS.div_ceil(clients as u64));
    let tracer = Tracer::new(args.trace);
    let m = measure(
        &state,
        args,
        clients,
        args.seconds,
        min_ops,
        args.trace.then_some(&tracer),
    )?;
    for class in CLASSES {
        let v: Vec<f64> = m.alt.traced[class.index()]
            .iter()
            .chain(&m.alt.plain[class.index()])
            .copied()
            .collect();
        if !v.is_empty() {
            notes.push(format!(
                "class {}: {} requests, median {:.2} ms",
                class.name(),
                v.len(),
                stats::median(&v)
            ));
        }
    }
    notes.push(format!(
        "write-class replies verified: {} ({} wrong)",
        m.writes, m.failed_writes
    ));

    if !args.trace {
        let e2e = EndToEnd {
            setup_s,
            attempted: m.alt.attempted,
            failed: m.alt.failed,
            latencies_ms: m.latencies_ms.clone(),
            done_s: m.done_s.clone(),
            // one block: every client through one whole cycle
            block: clients * MIX.len(),
            timed_wall_s: m.timed_wall_s,
            peak_rss_mb: m.peak_rss_mb.expect("untraced runs read VmHWM"),
        };
        notes.push(e2e.summary());
        let mut r = e2e.into_report();
        r.notes = notes;
        return Ok(r);
    }

    let serve = figures(&state, &m)?;
    let cases: Vec<&Case> = state.hits.iter().map(|h| &h.case).collect();
    let probes = cases
        .iter()
        .map(|c| layers::probe(c, &tracer, &args.tmp))
        .collect::<Result<Vec<_>, _>>()?;
    let shard = out_of_core::shard_probe(cases[0], &tracer, probes[0].warm_ms)?;
    workload::traced_report(
        args,
        &tracer,
        &m.alt,
        &probes,
        None,
        shard,
        Some(serve),
        notes,
    )
}
