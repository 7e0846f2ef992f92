//! `serve_mix`: closed-loop traffic from one client against an in-process
//! `sentinel_serve::Server` on loopback.
//!
//! The client sends a seeded sequence, in decks of 100 requests: 90 `plan`
//! queries over the five model families at scale 4, 9 streamed `run`s of
//! ResNet-32 with a full trace, and 1 malformed payload that must get a
//! typed error frame without losing the connection. Every caller waits for
//! its reply.

use crate::frames::{read_raw, write_raw};
use crate::outcome::{peak_rss_mib, Outcome, FIG7_NOTE};
use crate::stats::{mean, median, quantile};
use crate::train_steady::reference_step_ns;
use sentinel_core::{fast_sized_for, SentinelOutcome, SentinelRuntime};
use sentinel_dnn::SingleTier;
use sentinel_models::ModelZoo;
use sentinel_serve::{Client, Request, RunSpec, Server, MAX_FRAME_BYTES_DEFAULT};
use sentinel_util::{Json, Rng, ToJson};
use std::collections::{BTreeSet, HashMap};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Connection handlers of the daemon.
const HANDLERS: usize = 2;
/// Closed-loop client connections. One: with two, each client's latency
/// depends on how the other's requests share the host's two vCPUs, and
/// the run-to-run spread exceeded the benchmark's bounds.
const CLIENTS: usize = 1;
/// Servers set up per untraced run, each serving an equal slice of it.
const SETUP_SAMPLES: usize = 15;
/// Steps of a streamed run.
const RUN_STEPS: u64 = 8;
/// In-process repetitions behind `serve.run_sim_ms`.
const RUN_SIM_REPS: usize = 3;
/// In-process rounds over the plan specs behind `serve.plan_compute_ms`:
/// enough to spread each spec's samples over a few seconds, as its wire
/// samples are spread over the pass.
const PLAN_COMPUTE_REPS: usize = 25;

/// Plan-query models: family, ResNet depth, batch choices.
const PLAN_MODELS: [(&str, Option<u64>, &[u64]); 5] = [
    ("resnet", Some(32), &[16, 32, 64]),
    ("bert_base", None, &[4, 8]),
    ("lstm", None, &[16, 32]),
    ("mobilenet", None, &[16, 32]),
    ("dcgan", None, &[32, 64]),
];
const FAST_FRACTIONS: [f64; 2] = [0.2, 0.4];

/// Malformed payloads and the error code each must get back. Syntax
/// garbage is `invalid-json`; well-formed JSON that breaks the request
/// schema is `bad-request`. Neither may close the connection.
const MALFORMED: [(&str, &str); 8] = [
    ("{\"type\":\"plan\",\"model\":", "invalid-json"),
    ("not json at all", "invalid-json"),
    ("[1, 2,", "invalid-json"),
    ("{\"type\" \"ping\"}", "invalid-json"),
    ("{\"type\":\"warp\"}", "bad-request"),
    ("{\"type\":\"plan\"}", "bad-request"),
    (
        "{\"type\":\"plan\",\"model\":{\"family\":\"resnet\",\"batch\":8}}",
        "bad-request",
    ),
    (
        "{\"type\":\"run\",\"model\":{\"family\":\"lstm\",\"batch\":0}}",
        "bad-request",
    ),
];

fn model_json(family: &str, depth: Option<u64>, batch: u64) -> Json {
    let mut members = vec![
        ("family", Json::Str(family.into())),
        ("batch", Json::U64(batch)),
    ];
    if let Some(depth) = depth {
        members.push(("depth", Json::U64(depth)));
    }
    members.push(("scale", Json::U64(4)));
    Json::obj(members)
}

fn machine_json(fraction: f64) -> Json {
    Json::obj([
        ("preset", Json::Str("optane".into())),
        ("fast_fraction", Json::F64(fraction)),
    ])
}

/// The one streamed-run request of the mix.
fn run_request() -> Json {
    Json::obj([
        ("type", Json::Str("run".into())),
        ("model", model_json("resnet", Some(32), 64)),
        ("machine", machine_json(0.2)),
        ("steps", Json::U64(RUN_STEPS)),
        ("trace", Json::Str("full".into())),
    ])
}

#[derive(Clone, Copy)]
enum Kind {
    Plan,
    Run,
    Malformed(&'static str),
}

struct Req {
    kind: Kind,
    payload: Vec<u8>,
}

/// Requests per deck of a client's sequence: 1 malformed payload, 9 runs
/// and 90 plan queries in a seeded order, so that every seed sends the
/// same mix.
const DECK: usize = 100;
const DECK_MALFORMED: usize = 1;
const DECK_RUNS: usize = 9;

/// One client's seeded request sequence.
struct Sequence {
    rng: Rng,
    deck: Vec<usize>,
}

impl Sequence {
    /// Draw the next request.
    fn next(&mut self) -> Req {
        if self.deck.is_empty() {
            self.deck = (0..DECK).collect();
            self.rng.shuffle(&mut self.deck);
        }
        let slot = self.deck.pop().expect("a deck is never empty here");
        let rng = &mut self.rng;
        if slot < DECK_MALFORMED {
            let (text, code) = *rng.choose(&MALFORMED);
            return Req {
                kind: Kind::Malformed(code),
                payload: text.as_bytes().to_vec(),
            };
        }
        if slot < DECK_MALFORMED + DECK_RUNS {
            return Req {
                kind: Kind::Run,
                payload: run_request().to_string().into_bytes(),
            };
        }
        let (family, depth, batches) = *rng.choose(&PLAN_MODELS);
        let batch = *rng.choose(batches);
        let fraction = *rng.choose(&FAST_FRACTIONS);
        let request = Json::obj([
            ("type", Json::Str("plan".into())),
            ("model", model_json(family, depth, batch)),
            ("machine", machine_json(fraction)),
        ]);
        Req {
            kind: Kind::Plan,
            payload: request.to_string().into_bytes(),
        }
    }
}

/// The per-client request sequences for `seed`.
fn sequences(seed: u64) -> Vec<Sequence> {
    let mut root = Rng::seed_from_u64(seed);
    (0..CLIENTS)
        .map(|_| Sequence {
            rng: root.fork(),
            deck: Vec::new(),
        })
        .collect()
}

fn str_member<'a>(frame: &'a Json, key: &str) -> Option<&'a str> {
    match frame.get(key) {
        Some(Json::Str(s)) => Some(s),
        _ => None,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// When a client stops sending.
#[derive(Clone, Copy)]
enum Stop {
    At(Instant),
    After(usize),
}

/// One completed request.
struct Done {
    kind: Kind,
    payload: Vec<u8>,
    /// Round trip, send to the last reply frame.
    ms: f64,
    /// Reply payload bytes.
    bytes: u64,
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    checks: Outcome,
    requests: usize,
    done: Vec<Done>,
    first_frame_ms: Vec<f64>,
    bytes: u64,
    run_frames: Vec<u64>,
    error_replies: u64,
    parse: Duration,
    encode: Duration,
    /// Every frame of this client's first streamed run.
    stream: Option<Vec<Json>>,
}

impl ClientLog {
    /// Append what the same client saw on a later connection.
    fn absorb(&mut self, later: &mut ClientLog) {
        self.checks.absorb_checks(std::mem::take(&mut later.checks));
        self.requests += later.requests;
        self.done.append(&mut later.done);
        self.first_frame_ms.append(&mut later.first_frame_ms);
        self.bytes += later.bytes;
        self.run_frames.append(&mut later.run_frames);
        self.error_replies += later.error_replies;
        self.parse += later.parse;
        self.encode += later.encode;
        if self.stream.is_none() {
            self.stream = later.stream.take();
        }
    }
}

/// One closed-loop client connection.
struct Conn<'a> {
    addr: SocketAddr,
    stream: TcpStream,
    traced: bool,
    log: ClientLog,
    replies: &'a Mutex<HashMap<String, Vec<u8>>>,
}

impl Conn<'_> {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        write_raw(&mut self.stream, payload)
    }

    /// Read and parse one frame; the traced pass times the parse and a
    /// compact re-encode, which must reproduce the payload.
    fn recv(&mut self) -> io::Result<(Vec<u8>, Json)> {
        let payload = read_raw(&mut self.stream, MAX_FRAME_BYTES_DEFAULT)?
            .ok_or_else(|| io::Error::from(io::ErrorKind::UnexpectedEof))?;
        self.log.bytes += payload.len() as u64;
        let bad = |e| io::Error::new(io::ErrorKind::InvalidData, format!("bad frame: {e}"));
        let frame = if self.traced {
            let t = Instant::now();
            let frame = Json::parse_bytes(&payload).map_err(bad)?;
            self.log.parse += t.elapsed();
            let t = Instant::now();
            let encoded = frame.to_string();
            self.log.encode += t.elapsed();
            self.log
                .checks
                .check(encoded.as_bytes() == payload.as_slice(), || {
                    "a frame's compact re-encode differs from its payload".into()
                });
            frame
        } else {
            Json::parse_bytes(&payload).map_err(bad)?
        };
        if str_member(&frame, "type") == Some("error") {
            self.log.error_replies += 1;
        }
        Ok((payload, frame))
    }

    fn plan(&mut self, payload: &[u8]) -> io::Result<Result<(), String>> {
        self.send(payload)?;
        let (reply, frame) = self.recv()?;
        if str_member(&frame, "type") != Some("plan") {
            return Ok(Err(format!("plan got {frame}")));
        }
        let key = String::from_utf8_lossy(payload).into_owned();
        let mut replies = self.replies.lock().expect("reply map poisoned");
        let first = replies.entry(key).or_insert_with(|| reply.clone());
        Ok(if *first == reply {
            Ok(())
        } else {
            Err("a repeated plan got another reply".into())
        })
    }

    fn run(&mut self, payload: &[u8]) -> io::Result<Result<(), String>> {
        let start = Instant::now();
        self.send(payload)?;
        let keep = self.log.stream.is_none();
        let mut frames = Vec::new();
        let mut received = 0u64;
        let mut steps = 0u64;
        loop {
            let (_, frame) = self.recv()?;
            received += 1;
            let ty = str_member(&frame, "type").unwrap_or("").to_owned();
            let expected = match ty.as_str() {
                "run_started" => received == 1,
                "step" => received > 1,
                "run_complete" => received > 1,
                _ => false,
            };
            if !expected {
                return Ok(Err(format!("run got {frame} as frame {received}")));
            }
            if ty == "step" {
                if steps == 0 {
                    self.log.first_frame_ms.push(ms(start.elapsed()));
                }
                steps += 1;
            }
            if keep {
                frames.push(frame);
            }
            if ty == "run_complete" {
                break;
            }
        }
        self.log.run_frames.push(received);
        if keep {
            self.log.stream = Some(frames);
        }
        Ok(if steps == RUN_STEPS {
            Ok(())
        } else {
            Err(format!("run streamed {steps} steps"))
        })
    }

    fn malformed(&mut self, payload: &[u8], code: &str) -> io::Result<Result<(), String>> {
        self.send(payload)?;
        let (_, frame) = self.recv()?;
        let ok =
            str_member(&frame, "type") == Some("error") && str_member(&frame, "code") == Some(code);
        Ok(if ok {
            Ok(())
        } else {
            Err(format!("malformed payload wanted {code}, got {frame}"))
        })
    }
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Drive one client until `stop`.
fn drive(
    addr: SocketAddr,
    sequence: &mut Sequence,
    stop: Stop,
    traced: bool,
    replies: &Mutex<HashMap<String, Vec<u8>>>,
) -> ClientLog {
    let stream = match connect(addr) {
        Ok(stream) => stream,
        Err(e) => {
            let mut log = ClientLog::default();
            log.checks.fail(format!("connect: {e}"));
            return log;
        }
    };
    let mut conn = Conn {
        addr,
        stream,
        traced,
        log: ClientLog::default(),
        replies,
    };
    loop {
        let done = match stop {
            Stop::At(deadline) => Instant::now() >= deadline,
            Stop::After(n) => conn.log.requests >= n,
        };
        if done {
            break;
        }
        let req = sequence.next();
        let bytes_before = conn.log.bytes;
        let start = Instant::now();
        let result = match req.kind {
            Kind::Plan => conn.plan(&req.payload),
            Kind::Run => conn.run(&req.payload),
            Kind::Malformed(code) => conn.malformed(&req.payload, code),
        };
        conn.log.requests += 1;
        match result {
            Ok(verdict) => {
                conn.log.done.push(Done {
                    kind: req.kind,
                    payload: req.payload,
                    ms: ms(start.elapsed()),
                    bytes: conn.log.bytes - bytes_before,
                });
                conn.log
                    .checks
                    .check(verdict.is_ok(), || verdict.unwrap_err());
            }
            Err(e) => {
                // A dropped connection fails the request; reconnect to go on.
                conn.log.checks.fail(format!("connection lost: {e}"));
                match connect(conn.addr) {
                    Ok(stream) => conn.stream = stream,
                    Err(_) => break,
                }
            }
        }
    }
    conn.log
}

/// One pass of the mix: every client in its own thread.
struct Pass {
    logs: Vec<ClientLog>,
    wall: Duration,
}

fn pass(
    addr: SocketAddr,
    sequences: &mut [Sequence],
    stops: &[Stop],
    traced: bool,
    replies: &Mutex<HashMap<String, Vec<u8>>>,
) -> Pass {
    let start = Instant::now();
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = sequences
            .iter_mut()
            .zip(stops)
            .map(|(seq, &stop)| s.spawn(move || drive(addr, seq, stop, traced, replies)))
            .collect();
        // A panicking client must not unwind past the server it talks to:
        // the server's scope would wait for a shutdown that never comes.
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    let mut log = ClientLog::default();
                    log.checks.fail("client thread panicked".into());
                    log
                })
            })
            .collect()
    });
    Pass {
        logs,
        wall: start.elapsed(),
    }
}

/// Bind a server with `HANDLERS` workers, wait for its first `pong`, run
/// `body` against it, then shut it down. Returns the set-up time (bind to
/// first pong) and the body's result.
fn with_server<T>(body: impl FnOnce(SocketAddr) -> T) -> Result<(f64, T), String> {
    let start = Instant::now();
    let server = Server::bind("127.0.0.1:0", HANDLERS).map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    std::thread::scope(|s| {
        let handle = s.spawn(|| server.run());
        let ping = Client::connect(addr).and_then(|mut c| c.ping());
        let setup = start.elapsed().as_secs_f64();
        let out = ping
            .map(|()| body(addr))
            .map_err(|e| format!("first ping: {e}"));
        server.request_shutdown();
        let served = handle
            .join()
            .map_err(|_| "server thread panicked".to_owned())?;
        served.map_err(|e| format!("server: {e}"))?;
        out.map(|body| (setup, body))
    })
}

/// The in-process equivalent of the server's plan and run paths.
fn runtime_for(request: &Json) -> Result<(sentinel_dnn::Graph, SentinelRuntime, RunSpec), String> {
    let spec = match Request::parse(request) {
        Ok(Request::Plan(spec) | Request::Run(spec)) => spec,
        other => return Err(format!("not a plan or run request: {other:?}")),
    };
    let graph = ModelZoo::build(&spec.model).map_err(|e| e.to_string())?;
    let hm = match spec.fast_fraction {
        Some(fraction) => fast_sized_for(spec.machine.clone(), &graph, fraction),
        None => spec.machine.clone(),
    };
    let runtime = SentinelRuntime::new(spec.config.clone(), hm).with_trace(spec.trace);
    Ok((graph, runtime, spec))
}

/// Check a streamed run, frame by frame, against the same run in process:
/// step reports, the trace reassembled from the step frames plus the
/// `trace_tail`, and the final report and counters.
fn check_stream(frames: &[Json]) -> Result<(), String> {
    let (graph, runtime, spec) = runtime_for(&run_request())?;
    let expected: SentinelOutcome = runtime
        .train(&graph, spec.steps)
        .map_err(|e| e.to_string())?;
    let steps: Vec<&Json> = frames
        .iter()
        .filter(|f| str_member(f, "type") == Some("step"))
        .collect();
    let complete = frames.last().ok_or("empty stream")?;
    if steps.len() != expected.report.steps.len() {
        return Err(format!(
            "{} step frames, expected {}",
            steps.len(),
            expected.report.steps.len()
        ));
    }
    for (frame, report) in steps.iter().zip(&expected.report.steps) {
        let got = frame.get("report").map(Json::to_string);
        if got != Some(report.to_json().to_string()) {
            return Err(format!("step {} report differs", report.step));
        }
    }
    let events = |frame: &Json, key: &str| -> Vec<String> {
        match frame.get(key) {
            Some(Json::Arr(items)) => items.iter().map(Json::to_string).collect(),
            _ => Vec::new(),
        }
    };
    let mut trace: Vec<String> = steps.iter().flat_map(|f| events(f, "trace")).collect();
    trace.extend(events(complete, "trace_tail"));
    let want: Vec<String> = expected
        .trace
        .as_ref()
        .map(|t| t.events.iter().map(|e| e.to_json().to_string()).collect())
        .unwrap_or_default();
    if trace != want {
        return Err(format!(
            "reassembled trace ({} events) differs ({} expected)",
            trace.len(),
            want.len()
        ));
    }
    let same =
        |key: &str, want: Json| complete.get(key).map(Json::to_string) == Some(want.to_string());
    if !same("report", expected.report.to_json()) || !same("stats", expected.stats.to_json()) {
        return Err("run_complete differs from the in-process run".into());
    }
    Ok(())
}

/// Round trips and the delivered byte rate of one pass.
struct Wire {
    plan_p50: f64,
    plan_p95: f64,
    run_p50: f64,
    mb_s: f64,
}

fn wire(pass: &Pass) -> Wire {
    let done = || pass.logs.iter().flat_map(|l| &l.done);
    let of = |kind: fn(&Kind) -> bool| -> Vec<f64> {
        done().filter(|d| kind(&d.kind)).map(|d| d.ms).collect()
    };
    let plans = of(|k| matches!(k, Kind::Plan));
    let runs = of(|k| matches!(k, Kind::Run));
    let bytes: u64 = done().map(|d| d.bytes).sum();
    Wire {
        plan_p50: median(&plans),
        plan_p95: quantile(&plans, 0.95),
        run_p50: median(&runs),
        mb_s: bytes as f64 / 1e6 / pass.wall.as_secs_f64(),
    }
}

/// Fold the clients' checks into `out`, then check the first stream.
fn gate(out: &mut Outcome, logs: &mut [ClientLog]) {
    for log in logs.iter_mut() {
        out.absorb_checks(std::mem::take(&mut log.checks));
    }
    match logs.iter().find_map(|l| l.stream.as_ref()) {
        Some(frames) => {
            let verdict = check_stream(frames);
            out.check(verdict.is_ok(), || {
                format!("stream check: {}", verdict.unwrap_err())
            });
        }
        None => out.fail("no streamed run completed".into()),
    }
}

/// The plan specs behind `sim_gap_to_fast.*`: the benchmark's three
/// models at their `train_steady` batches, scale 4, 20% fast memory.
fn gap_requests() -> [(&'static str, Json); 3] {
    let plan = |family, depth, batch| {
        Json::obj([
            ("type", Json::Str("plan".into())),
            ("model", model_json(family, depth, batch)),
            ("machine", machine_json(0.2)),
        ])
    };
    [
        ("resnet32", plan("resnet", Some(32), 64)),
        ("bert_base", plan("bert_base", None, 8)),
        ("lstm", plan("lstm", None, 32)),
    ]
}

/// The daemon's predicted steady step for each gap spec ÷ the fast-only
/// sim step of the same graph in process − 1.
fn sim_gaps(addr: SocketAddr) -> Result<Vec<(&'static str, f64)>, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    gap_requests()
        .into_iter()
        .map(|(name, request)| {
            let reply = client
                .plan(&request)
                .map_err(|e| format!("{name} plan: {e}"))?;
            let Some(&Json::U64(predicted)) = reply.get("predicted_step_ns") else {
                return Err(format!("{name} plan reply has no predicted_step_ns"));
            };
            let (graph, _, spec) = runtime_for(&request)?;
            let fast = reference_step_ns(
                &graph,
                fast_sized_for(spec.machine, &graph, 1.5),
                SingleTier::fast(),
            );
            Ok((name, predicted as f64 / fast as f64 - 1.0))
        })
        .collect()
}

/// The untraced run: the mix for `budget`, on a fresh server for each of
/// `SETUP_SAMPLES` slices of it, so that the set-up samples spread over
/// the run. The sim gaps are asked for after the last slice.
pub fn measure(seed: u64, budget: Duration) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let replies = Mutex::new(HashMap::new());
    let mut setups = Vec::new();
    let mut logs: Vec<ClientLog> = (0..CLIENTS).map(|_| ClientLog::default()).collect();
    let mut wall = Duration::ZERO;
    let mut sequences = sequences(seed);
    let mut gaps = Err("not measured".to_owned());
    for slice in 0..SETUP_SAMPLES {
        let last = slice + 1 == SETUP_SAMPLES;
        let (setup, run) = with_server(|addr| {
            let deadline = Instant::now() + budget / SETUP_SAMPLES as u32;
            let run = pass(
                addr,
                &mut sequences,
                &[Stop::At(deadline); CLIENTS],
                false,
                &replies,
            );
            if last {
                gaps = sim_gaps(addr);
            }
            run
        })?;
        setups.push(setup);
        wall += run.wall;
        for (log, mut slice) in logs.iter_mut().zip(run.logs) {
            log.absorb(&mut slice);
        }
    }
    gate(&mut out, &mut logs);

    let latencies: Vec<f64> = logs.iter().flat_map(|l| &l.done).map(|d| d.ms).collect();
    let requests = latencies.len();
    out.metric("setup_s", median(&setups), "s", setups.len());
    out.metric(
        "ops_per_s",
        requests as f64 / wall.as_secs_f64(),
        "1/s",
        requests,
    );
    out.metric("op_p50_ms", median(&latencies), "ms", requests);
    out.metric("op_p95_ms", quantile(&latencies, 0.95), "ms", requests);
    match gaps {
        Ok(gaps) => {
            for (name, gap) in gaps {
                out.metric_noted(
                    format!("sim_gap_to_fast.{name}"),
                    gap,
                    "ratio",
                    1,
                    format!("{FIG7_NOTE}; the daemon's plan, scale-4 model"),
                );
            }
        }
        Err(e) => out.fail(format!("sim gaps: {e}")),
    }
    out.metric("peak_rss_mb", peak_rss_mib().unwrap_or(f64::NAN), "MiB", 1);
    Ok(out)
}

/// The traced run: the mix untraced for half of `budget`, the same request
/// sequence again with the codec timed, then the plan and run paths in
/// process.
pub fn trace(seed: u64, budget: Duration) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let replies = Mutex::new(HashMap::new());
    let (_, (mut plain, mut traced)) = with_server(|addr| {
        let deadline = Instant::now() + budget / 2;
        let stops = [Stop::At(deadline); CLIENTS];
        let plain = pass(addr, &mut sequences(seed), &stops, false, &replies);
        let counts: Vec<Stop> = plain.logs.iter().map(|l| Stop::After(l.requests)).collect();
        let traced = pass(addr, &mut sequences(seed), &counts, true, &replies);
        (plain, traced)
    })?;
    gate(&mut out, &mut plain.logs);
    gate(&mut out, &mut traced.logs);

    // The server's plan path without the wire, per distinct spec at the
    // median of a few calls, weighted by how often the mix asked for it.
    // The calls go round the specs so that each spec's samples spread over
    // the whole measurement, as the wire samples spread over the pass.
    let keys: Vec<&[u8]> = plain
        .logs
        .iter()
        .flat_map(|l| &l.done)
        .filter(|d| matches!(d.kind, Kind::Plan))
        .map(|d| d.payload.as_slice())
        .collect();
    let distinct: BTreeSet<&[u8]> = keys.iter().copied().collect();
    let requests = distinct
        .iter()
        .map(|&key| {
            Json::parse_bytes(key)
                .map(|r| (key, r))
                .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut compute_ms: HashMap<&[u8], Vec<f64>> = HashMap::new();
    for _ in 0..PLAN_COMPUTE_REPS {
        for (key, request) in &requests {
            let start = Instant::now();
            let outcome = runtime_for(request).and_then(|(graph, runtime, spec)| {
                runtime
                    .train(&graph, spec.steps.max(2))
                    .map_err(|e| e.to_string())
            });
            compute_ms.entry(key).or_default().push(ms(start.elapsed()));
            out.check(outcome.is_ok(), || {
                format!("in-process plan failed for {request}")
            });
        }
    }
    let per_query: Vec<f64> = keys.iter().map(|k| median(&compute_ms[k])).collect();
    let plan_compute = median(&per_query);
    let wire = wire(&plain);

    let (graph, runtime, spec) = runtime_for(&run_request())?;
    let sims: Vec<f64> = (0..RUN_SIM_REPS)
        .map(|_| {
            let start = Instant::now();
            let outcome = runtime.train_streamed(&graph, spec.steps, |_| true);
            let elapsed = ms(start.elapsed());
            out.check(matches!(outcome, Ok(Some(_))), || {
                "in-process run failed".into()
            });
            elapsed
        })
        .collect();

    let logs = &traced.logs;
    let parsed_mb = logs.iter().map(|l| l.bytes).sum::<u64>() as f64 / 1e6;
    let parse_ms: f64 = logs.iter().map(|l| ms(l.parse)).sum();
    let encode_ms: f64 = logs.iter().map(|l| ms(l.encode)).sum();
    let run_bytes: Vec<f64> = logs
        .iter()
        .flat_map(|l| &l.done)
        .filter(|d| matches!(d.kind, Kind::Run))
        .map(|d| d.bytes as f64)
        .collect();
    let run_frames: Vec<f64> = logs
        .iter()
        .flat_map(|l| &l.run_frames)
        .map(|&f| f as f64)
        .collect();
    let plain_requests = plain.logs.iter().map(|l| l.done.len()).sum();
    let first_frames: Vec<f64> = logs.iter().flat_map(|l| l.first_frame_ms.clone()).collect();
    let errors: u64 = logs.iter().map(|l| l.error_replies).sum();
    out.metric("serve.plan_compute_ms", plan_compute, "ms", per_query.len());
    out.metric("serve.plan_p50_ms", wire.plan_p50, "ms", keys.len());
    out.metric("serve.plan_p95_ms", wire.plan_p95, "ms", keys.len());
    out.metric(
        "serve.plan_wire_ms",
        wire.plan_p50 - plan_compute,
        "ms",
        per_query.len(),
    );
    out.metric(
        "serve.plan_repeat_share",
        1.0 - distinct.len() as f64 / keys.len() as f64,
        "ratio",
        keys.len(),
    );
    out.metric("serve.run_p50_ms", wire.run_p50, "ms", run_frames.len());
    out.metric("serve.stream_mb_s", wire.mb_s, "MB/s", plain_requests);
    out.metric("serve.run_sim_ms", median(&sims), "ms", sims.len());
    out.metric(
        "serve.first_frame_ms",
        median(&first_frames),
        "ms",
        first_frames.len(),
    );
    out.metric(
        "util.json_parse_ms_per_mb",
        parse_ms / parsed_mb,
        "ms/MB",
        logs.len(),
    );
    out.metric(
        "util.json_encode_ms_per_mb",
        encode_ms / parsed_mb,
        "ms/MB",
        logs.len(),
    );
    out.metric(
        "serve.bytes_per_run",
        mean(&run_bytes),
        "bytes",
        run_bytes.len(),
    );
    out.metric(
        "serve.frames_per_run",
        mean(&run_frames),
        "count",
        run_frames.len(),
    );
    out.metric("serve.error_replies", errors as f64, "count", 1);
    out.metric(
        "trace_overhead.serve_mix",
        traced.wall.as_secs_f64() / plain.wall.as_secs_f64(),
        "ratio",
        2,
    );
    Ok(out)
}
