//! The two serve workloads: closed-loop lockstep clients over TCP against
//! an in-process `fc_serve::Server` at its default worker count.
//!
//! Each client owns one request stream and sends its next line only after
//! the previous response arrived. Outputs are checked after the timed
//! phase against a sequential in-process `ServiceEngine::handle` replay of
//! the same lines; responses are deterministic functions of the request and
//! the document store, and every document name belongs to one client, so
//! the replay order within a client is the only order that matters.

use crate::trace::Tracer;
use crate::util::{quantile, sorted, Rng};
use fc_serve::json::{self, Value};
use fc_serve::loadgen;
use fc_serve::{EngineConfig, Server, ServerConfig, ServiceEngine, WorkerScratch};
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Lockstep clients: callers wait for each reply.
pub const CLIENTS: usize = 2;

/// Ops whose engine work is a few microseconds; their latency is mostly
/// the server's own hand-offs.
pub const CHEAP_OPS: [&str; 4] = ["game", "lint", "doc", "definable"];

const OPS: [&str; 11] = [
    "ping",
    "lint",
    "check",
    "solve",
    "window",
    "extract",
    "game",
    "classify",
    "definable",
    "put",
    "doc",
];

#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Line {
    pub text: String,
    pub op: &'static str,
}

impl Line {
    fn new(text: String) -> Line {
        let parsed = json::parse(&text).expect("generated lines are JSON");
        let op = parsed.get("op").and_then(Value::as_str).unwrap_or("");
        let op = OPS
            .iter()
            .find(|o| **o == op)
            .copied()
            .expect("generated lines use known ops");
        Line { text, op }
    }
}

/// A serve workload's generated inputs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ServeInputs {
    /// Lines sent once, before warm-up (document puts).
    pub setup: Vec<String>,
    /// One request stream per client; each client cycles through its own.
    pub streams: Vec<Vec<Line>>,
    /// Per-client warm-up lines sent during set-up. They come from a fixed
    /// seed, so set-up work does not depend on the run's seed, and they
    /// touch no document the timed streams read.
    pub warmup: Vec<Vec<Line>>,
}

/// Seed of the warm-up lines.
const WARMUP_SEED: u64 = 0x5eed;
const WARMUP_LINES: usize = 1000;

/// `serve-mix`: the standard mixed workload of `fc_serve::loadgen` over
/// its 16 stored documents, dealt round-robin to the clients.
pub fn mix_inputs(seed: u64) -> ServeInputs {
    const PER_CLIENT: usize = 30_000;
    const DOCS: usize = 16;
    let deal = |lines: Vec<String>| {
        let mut streams = vec![Vec::new(); CLIENTS];
        for (i, l) in lines.into_iter().enumerate() {
            streams[i % CLIENTS].push(Line::new(l));
        }
        streams
    };
    ServeInputs {
        setup: loadgen::setup_requests(DOCS),
        streams: deal(loadgen::mixed_workload(PER_CLIENT * CLIENTS, DOCS, seed)),
        warmup: deal(loadgen::mixed_workload(
            WARMUP_LINES * CLIENTS,
            DOCS,
            WARMUP_SEED,
        )),
    }
}

/// Rank-1 sentences: more distinct structural keys (406) than the engine's
/// 256-entry plan cache holds. Literals stay at three letters or fewer.
pub fn ingest_formula_pool() -> Vec<String> {
    let mut lits = Vec::new();
    for len in 1..=3 {
        for bits in 0..(1u32 << len) {
            lits.push(
                (0..len)
                    .map(|i| if bits >> i & 1 == 0 { 'a' } else { 'b' })
                    .collect::<String>(),
            );
        }
    }
    let mut pool: Vec<String> = lits.iter().map(|u| format!("E x: (x = \"{u}\")")).collect();
    for u in &lits {
        for v in &lits {
            pool.push(format!("(E x: (x = \"{u}\")) & (E y: (y = \"{v}\"))"));
            pool.push(format!("(E x: (x = \"{u}\")) | !(E y: (y = \"{v}\"))"));
        }
    }
    pool
}

/// Most distinct documents a client puts, so the store (append-only) and
/// the peak resident set stay bounded whatever the run length.
pub const INGEST_DOCS_PER_CLIENT: usize = 120;

/// Content of document `j` of stream `stream`. Of every five documents,
/// three are dense-backend ones of 8 to 32 letters, one is a short
/// succinct one of 65 to 200 letters and one a long succinct one of 200 to
/// 10⁴ letters. Lengths are stratified (one per log-spaced stratum for the
/// succinct ones, every dense length about equally often) in a seeded
/// order, so every seed stores the same mix of sizes.
pub fn ingest_doc(seed: u64, stream: u64, j: usize) -> String {
    let mut rng = Rng::derive(seed, 0x1000_0000 + (stream << 24) + j as u64);
    let offset = Rng::derive(seed, 0x1100_0000 + stream).below(1 << 16) as usize;
    let strata = INGEST_DOCS_PER_CLIENT / 5;
    let log_stratified = |rng: &mut Rng, lo: f64, hi: f64| {
        let stratum = (7 * (j / 5) + offset) % strata;
        let u = (stratum as f64 + rng.below(1 << 20) as f64 / (1 << 20) as f64) / strata as f64;
        (lo.ln() + (hi.ln() - lo.ln()) * u).exp() as usize
    };
    let len = match j % 5 {
        4 => log_stratified(&mut rng, 200.0, 10_000.0),
        3 => log_stratified(&mut rng, 65.0, 200.0),
        r => 8 + (7 * (j / 5 * 3 + r) + offset) % 25,
    };
    rng.word(len, b"ab")
}

/// One client's ingest stream: documents named `{prefix}d{j}` are put
/// (new ones, or the same content again under the same name), read back
/// with `doc`, and checked with rank-1 sentences from a pool larger than
/// the plan cache (all but the long documents). Every read names a
/// document put earlier in the stream.
fn ingest_stream(seed: u64, stream: u64, prefix: &str, len: usize) -> Vec<Line> {
    let pool = ingest_formula_pool();
    let mut rng = Rng::derive(seed, 0x2000 + stream);
    let name = |j: usize| format!("{prefix}d{j}");
    let put = |j: usize| {
        Value::object([
            ("op", Value::String("put".into())),
            ("name", Value::String(name(j))),
            ("text", Value::String(ingest_doc(seed, stream, j))),
        ])
        .to_string()
    };
    let mut lines = vec![Line::new(put(0))];
    let mut names = 1usize;
    while lines.len() < len {
        let text = match rng.below(100) {
            0..=24 => {
                let fresh = names < INGEST_DOCS_PER_CLIENT && rng.below(10) == 0;
                let j = if fresh {
                    names += 1;
                    names - 1
                } else {
                    rng.below(names as u64) as usize
                };
                put(j)
            }
            25..=44 => Value::object([
                ("op", Value::String("doc".into())),
                (
                    "name",
                    Value::String(name(rng.below(names as u64) as usize)),
                ),
            ])
            .to_string(),
            _ => {
                // Not the long documents: a rank-1 sweep over the ~|w|²/2
                // factors of a 10⁴-letter document takes seconds.
                let checkable = names - names / 5;
                let d = rng.below(checkable as u64) as usize;
                let j = d / 4 * 5 + d % 4;
                Value::object([
                    ("op", Value::String("check".into())),
                    (
                        "formula",
                        Value::String(pool[rng.below(pool.len() as u64) as usize].clone()),
                    ),
                    ("doc", Value::String(name(j))),
                ])
                .to_string()
            }
        };
        lines.push(Line::new(text));
    }
    lines
}

/// `serve-ingest`: writes beside reads, one stream per client, each over
/// its own documents.
pub fn ingest_inputs(seed: u64) -> ServeInputs {
    const PER_CLIENT: usize = 30_000;
    ServeInputs {
        setup: Vec::new(),
        streams: (0..CLIENTS)
            .map(|c| ingest_stream(seed, c as u64, &format!("c{c}"), PER_CLIENT))
            .collect(),
        warmup: (0..CLIENTS)
            .map(|c| ingest_stream(WARMUP_SEED, c as u64, &format!("w{c}"), WARMUP_LINES))
            .collect(),
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            writer: BufWriter::new(stream.try_clone()?),
            reader: BufReader::new(stream),
        })
    }

    fn round_trip(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut resp = String::new();
        if self.reader.read_line(&mut resp)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while resp.ends_with('\n') || resp.ends_with('\r') {
            resp.pop();
        }
        Ok(resp)
    }
}

/// A bound server with its connected clients.
pub struct Live {
    server: JoinHandle<io::Result<()>>,
    clients: Vec<Client>,
    /// Next stream position of each client.
    pos: Vec<usize>,
    workers: usize,
}

fn is_ok(resp: &str) -> bool {
    resp.contains("\"ok\":true")
}

/// Binds the server, connects the clients, sends the set-up lines and each
/// client's warm-up lines.
pub fn setup(inputs: &ServeInputs) -> io::Result<Live> {
    let server = Server::bind(ServerConfig::default())?;
    let addr = server.local_addr().to_string();
    let workers = server.worker_count();
    let handle = std::thread::spawn(move || server.run());
    let mut live = Live {
        server: handle,
        clients: Vec::new(),
        pos: vec![0; CLIENTS],
        workers,
    };
    for _ in 0..CLIENTS {
        live.clients.push(Client::connect(&addr)?);
    }
    for line in &inputs.setup {
        let resp = live.clients[0].round_trip(line)?;
        if !is_ok(&resp) {
            return Err(io::Error::other(format!("set-up request failed: {resp}")));
        }
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = live
            .clients
            .iter_mut()
            .zip(&inputs.warmup)
            .map(|(client, warmup)| {
                s.spawn(move || -> io::Result<()> {
                    for line in warmup {
                        client.round_trip(&line.text)?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("warm-up client panicked"))
    })?;
    Ok(live)
}

/// Asks for the engine's `stats` object.
pub fn server_stats(live: &mut Live) -> io::Result<Value> {
    let resp = live.clients[0].round_trip(r#"{"op":"stats"}"#)?;
    json::parse(&resp).map_err(io::Error::other)
}

/// Shuts the server down and waits for it to exit.
pub fn teardown(live: Live) -> io::Result<()> {
    let Live {
        server,
        mut clients,
        ..
    } = live;
    let resp = clients[0].round_trip(r#"{"op":"shutdown"}"#)?;
    drop(clients);
    server.join().expect("server thread panicked")?;
    if !is_ok(&resp) {
        return Err(io::Error::other(format!("shutdown refused: {resp}")));
    }
    Ok(())
}

/// One completed request of the timed phase. Only a hash of the response
/// is kept, so memory does not grow with throughput.
pub struct Record {
    pub client: usize,
    /// Index into the client's stream.
    pub line: usize,
    pub rtt_ns: u64,
    pub ok: bool,
    pub response_hash: u64,
}

fn hash_of(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// When the clients of a run stop.
#[derive(Clone, Copy)]
pub enum Stop {
    /// At a wall-clock deadline (the timed phases).
    At(Instant),
    /// After this many lines per client (the layer probe, whose figures
    /// must not depend on throughput).
    After(usize),
}

/// One record buffer per client for a timed phase of `len`.
pub fn record_buffers(len: Duration) -> Vec<Vec<Record>> {
    (0..CLIENTS)
        .map(|_| crate::util::record_buffer(len, 20_000.0))
        .collect()
}

/// Runs every client until `stop`, continuing each client's stream where
/// it stopped and recording into that client's buffer of `buffers`.
/// Returns each client's records and, when tracing, one tracer per client
/// (span `request` ⊃ `serve.round_trip`).
pub fn run(
    live: &mut Live,
    inputs: &ServeInputs,
    stop: Stop,
    buffers: Vec<Vec<Record>>,
    trace: bool,
    epoch: Instant,
) -> io::Result<(Vec<Vec<Record>>, Vec<Tracer>)> {
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = live
            .clients
            .iter_mut()
            .zip(live.pos.iter_mut())
            .zip(&inputs.streams)
            .zip(buffers)
            .enumerate()
            .map(|(c, (((client, pos), stream), mut records))| {
                s.spawn(move || -> io::Result<(Vec<Record>, Tracer)> {
                    let mut tracer = Tracer::new(trace, epoch);
                    let more = |done: usize| match stop {
                        Stop::At(deadline) => Instant::now() < deadline,
                        Stop::After(n) => done < n,
                    };
                    while more(records.len()) {
                        let line = *pos % stream.len();
                        let request = ((c as u64) << 40) | *pos as u64;
                        let t0 = Instant::now();
                        let response = tracer.span("request", request, |t| {
                            t.span("serve.round_trip", request, |_| {
                                client.round_trip(&stream[line].text)
                            })
                        })?;
                        let rtt_ns = t0.elapsed().as_nanos() as u64;
                        records.push(Record {
                            client: c,
                            line,
                            rtt_ns,
                            ok: is_ok(&response),
                            response_hash: hash_of(&response),
                        });
                        *pos += 1;
                    }
                    Ok((records, tracer))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let mut records = Vec::new();
    let mut tracers = Vec::new();
    for r in results {
        let (recs, tracer) = r?;
        records.push(recs);
        tracers.push(tracer);
    }
    Ok((records, tracers))
}

/// The hash of the expected response of every distinct line a client
/// reached, from a sequential replay on a fresh engine that first sees the
/// set-up and warm-up lines, in stream order.
pub fn replay<'a>(inputs: &'a ServeInputs, reached: &[usize]) -> HashMap<&'a str, u64> {
    let engine = ServiceEngine::new(EngineConfig::default());
    for line in &inputs.setup {
        engine.handle(line);
    }
    for line in inputs.warmup.iter().flatten() {
        engine.handle(&line.text);
    }
    let mut expected = HashMap::new();
    for (stream, &reached) in inputs.streams.iter().zip(reached) {
        for line in &stream[..reached.min(stream.len())] {
            if !expected.contains_key(line.text.as_str()) {
                expected.insert(line.text.as_str(), hash_of(&engine.handle(&line.text)));
            }
        }
    }
    expected
}

/// (failed, wrong): responses with `"ok":false`, and responses that differ
/// from the sequential replay.
pub fn verify(
    inputs: &ServeInputs,
    expected: &HashMap<&str, u64>,
    records: &[Record],
) -> (usize, usize) {
    let mut failed = 0;
    let mut wrong = 0;
    for r in records {
        if !r.ok {
            failed += 1;
        } else if expected.get(inputs.streams[r.client][r.line].text.as_str())
            != Some(&r.response_hash)
        {
            wrong += 1;
        }
    }
    (failed, wrong)
}

pub fn positions(live: &Live) -> Vec<usize> {
    live.pos.clone()
}

/// Per-op engine time of each record's line, from a sequential in-process
/// replay in the served order on a fresh engine that first saw the same
/// set-up and warm-up lines.
pub fn engine_times(inputs: &ServeInputs, records: &[Record]) -> Vec<u64> {
    let engine = ServiceEngine::new(EngineConfig::default());
    let mut scratch = WorkerScratch::default();
    for line in &inputs.setup {
        engine.handle_request(line, &mut scratch);
    }
    for line in inputs.warmup.iter().flatten() {
        engine.handle_request(&line.text, &mut scratch);
    }
    records
        .iter()
        .map(|r| {
            let line = &inputs.streams[r.client][r.line].text;
            let t0 = Instant::now();
            std::hint::black_box(engine.handle_request(line, &mut scratch));
            t0.elapsed().as_nanos() as u64
        })
        .collect()
}

/// End-to-end latency figures of a set of records, in ms.
pub struct Latencies {
    pub all: Vec<f64>,
    pub cheap: Vec<f64>,
}

pub fn latencies(inputs: &ServeInputs, records: &[Record]) -> Latencies {
    let mut all = Vec::with_capacity(records.len());
    let mut cheap = Vec::new();
    for r in records {
        let ms = r.rtt_ns as f64 / 1e6;
        all.push(ms);
        if CHEAP_OPS.contains(&inputs.streams[r.client][r.line].op) {
            cheap.push(ms);
        }
    }
    Latencies {
        all: sorted(all),
        cheap: sorted(cheap),
    }
}

/// Layer figures of the serve path over the first `lines` lines of each
/// client's stream: client round trip against in-process engine time of
/// the same lines, per-op engine medians, engine busy share and the
/// engine's own counters per `game` request of those lines.
pub fn layer_probe(
    inputs: &ServeInputs,
    lines: usize,
    epoch: Instant,
    tracer: &mut Tracer,
) -> io::Result<crate::util::Metrics> {
    let mut live = setup(inputs)?;
    let before = server_stats(&mut live)?;
    let t0 = Instant::now();
    let (records, client_tracers) = run(
        &mut live,
        inputs,
        Stop::After(lines),
        (0..CLIENTS).map(|_| Vec::with_capacity(lines)).collect(),
        tracer.enabled(),
        epoch,
    )?;
    let wall = t0.elapsed().as_secs_f64();
    let records: Vec<Record> = records.into_iter().flatten().collect();
    let workers = live.workers;
    let after = server_stats(&mut live)?;
    teardown(live)?;
    for t in client_tracers {
        tracer.absorb(t);
    }
    let engine_ns = tracer.span("probe.engine_replay", 0, |_| engine_times(inputs, &records));

    let mut m = crate::util::Metrics::default();
    let overhead: Vec<f64> = records
        .iter()
        .zip(&engine_ns)
        .map(|(r, &e)| (r.rtt_ns as f64 - e as f64) / 1e6)
        .collect();
    m.put(
        "server.overhead_p50_ms",
        quantile(&sorted(overhead), 0.5),
        "ms",
    );
    let lat = latencies(inputs, &records);
    m.put("server.cheap_p99_ms", quantile(&lat.cheap, 0.99), "ms");
    let mut by_op: HashMap<&str, Vec<f64>> = HashMap::new();
    for (r, &e) in records.iter().zip(&engine_ns) {
        by_op
            .entry(inputs.streams[r.client][r.line].op)
            .or_default()
            .push(e as f64 / 1e3);
    }
    for op in [
        "check",
        "solve",
        "extract",
        "window",
        "game",
        "classify",
        "lint",
        "definable",
        "doc",
    ] {
        let v = sorted(by_op.remove(op).unwrap_or_default());
        m.put(format!("engine.{op}_us"), quantile(&v, 0.5), "us");
        if op == "check" {
            m.put("engine.check_p99_us", quantile(&v, 0.99), "us");
        }
    }
    let busy: f64 = engine_ns.iter().map(|&e| e as f64 / 1e9).sum();
    m.put("engine.busy_share", busy / (wall * workers as f64), "share");
    let games = records
        .iter()
        .filter(|r| inputs.streams[r.client][r.line].op == "game")
        .count() as f64;
    let per_game = |path: [&str; 2]| {
        let count = |stats: &Value| {
            stats
                .get(path[0])
                .and_then(|v| v.get(path[1]))
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN)
        };
        (count(&after) - count(&before)) / games
    };
    m.put(
        "engine.arith_game_hits",
        per_game(["arith", "game_hits"]),
        "share",
    );
    m.put(
        "engine.canon_game_hits",
        per_game(["table", "canon_game_hits"]),
        "share",
    );
    Ok(m)
}
