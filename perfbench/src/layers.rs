//! Per-layer probes: timed calls into each layer's public functions and
//! reads of its exported counters, fed with the generated inputs of the
//! workload where the layer matters most (its home workload, see
//! `perfbench/targets.json`). Every probe runs in every traced run, so each
//! traced run reports every layer metric.

use crate::games;
use crate::serve::{self, ServeInputs};
use crate::trace::Tracer;
use crate::util::{quantile, sorted, Metrics, Rng};
use fc_games::{
    canon, ArithOracle, BatchConfig, BatchSolver, EfSolver, GamePair, ShardedArena, StructureArena,
    TransTable,
};
use fc_logic::analysis::{AnalysisConfig, Analyzer};
use fc_logic::eval::Assignment;
use fc_logic::parser::parse_formula;
use fc_logic::{BackendKind, EvalStats, FactorStructure, Plan, PlanCache};
use fc_reglang::definable::{fc_definable_regex, DefinabilityBudget};
use fc_reglang::Regex;
use fc_serve::json::{self, Value};
use fc_serve::{loadgen, EngineConfig, ServiceEngine, WorkerScratch};
use fc_words::{Alphabet, Word};
use std::hint::black_box;
use std::io;
use std::sync::Arc;
use std::time::Instant;

fn us_since(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64 / 1e3
}

fn med(v: Vec<f64>) -> f64 {
    quantile(&sorted(v), 0.5)
}

/// Lines of every client stream, interleaved, up to `per_client` each.
fn interleaved(inputs: &ServeInputs, per_client: usize) -> Vec<&serve::Line> {
    let mut out = Vec::new();
    for i in 0..per_client {
        for s in &inputs.streams {
            if let Some(l) = s.get(i) {
                out.push(l);
            }
        }
    }
    out
}

fn member<'a>(line: &'a Value, key: &str) -> &'a str {
    line.get(key).and_then(Value::as_str).unwrap_or("")
}

/// Runs every layer probe; `serve_lines` is the number of lines per client
/// of the serve round-trip probe.
pub fn probe_all(
    seed: u64,
    serve_lines: usize,
    epoch: Instant,
    tracer: &mut Tracer,
) -> io::Result<Metrics> {
    let mix = serve::mix_inputs(seed);
    let ingest = serve::ingest_inputs(seed);
    let mut m = tracer.span("probe.serve", 0, |t| {
        serve::layer_probe(&mix, serve_lines, epoch, t)
    })?;
    tracer.span("probe.json", 0, |_| json_probe(&mix, &mut m));
    tracer.span("probe.engine_put", 0, |_| put_probe(&ingest, &mut m));
    tracer.span("probe.plan", 0, |_| plan_probe(&mix, &ingest, &mut m));
    tracer.span("probe.structure", 0, |_| structure_probe(seed, &mut m));
    tracer.span("probe.analysis", 0, |_| analysis_probe(&mix, &mut m));
    tracer.span("probe.shards", 0, |_| shards_probe(&ingest, &mut m));
    tracer.span("probe.batch", 0, |_| batch_probe(seed, &mut m));
    tracer.span("probe.arith", 0, |_| arith_probe(seed, &mut m));
    tracer.span("probe.solver", 0, |_| solver_probe(seed, &mut m));
    Ok(m)
}

fn json_probe(mix: &ServeInputs, m: &mut Metrics) {
    let lines = interleaved(mix, 4000);
    let times = lines
        .iter()
        .map(|l| {
            let t0 = Instant::now();
            black_box(json::parse(black_box(&l.text)).ok());
            us_since(t0)
        })
        .collect();
    m.put("json.parse_us", med(times), "us");
}

/// `put` through the engine on the ingest stream's own put lines.
fn put_probe(ingest: &ServeInputs, m: &mut Metrics) {
    let engine = ServiceEngine::new(EngineConfig::default());
    let mut scratch = WorkerScratch::default();
    let times = interleaved(ingest, 6000)
        .into_iter()
        .filter(|l| l.op == "put")
        .map(|l| {
            let t0 = Instant::now();
            black_box(engine.handle_request(&l.text, &mut scratch));
            us_since(t0)
        })
        .collect();
    m.put("engine.put_us", med(times), "us");
}

/// Compile cost on the ingest pool, cache behaviour on the ingest check
/// sequence, evaluation on the serve-mix check lines.
fn plan_probe(mix: &ServeInputs, ingest: &ServeInputs, m: &mut Metrics) {
    let pool: Vec<_> = serve::ingest_formula_pool()
        .iter()
        .map(|s| parse_formula(s).expect("pool formulas parse"))
        .collect();
    let compile = pool
        .iter()
        .map(|f| {
            let t0 = Instant::now();
            black_box(Plan::compile(f));
            us_since(t0)
        })
        .collect();
    m.put("plan.compile_us", med(compile), "us");

    let cache = PlanCache::new(EngineConfig::default().plan_cache_capacity);
    for l in interleaved(ingest, 10_000)
        .into_iter()
        .filter(|l| l.op == "check")
    {
        let req = json::parse(&l.text).expect("generated line");
        let f = parse_formula(member(&req, "formula")).expect("pool formulas parse");
        black_box(cache.get_or_compile(&f));
    }
    let cs = cache.stats();
    m.put(
        "plan_cache.hit_rate",
        cs.hits as f64 / (cs.hits + cs.misses) as f64,
        "share",
    );
    m.put("plan_cache.evictions", cs.evictions as f64, "count");

    let mut eval_us = Vec::new();
    let mut stats = EvalStats::default();
    for l in interleaved(mix, 3000)
        .into_iter()
        .filter(|l| l.op == "check")
    {
        let req = json::parse(&l.text).expect("generated line");
        let plan = Plan::compile(&parse_formula(member(&req, "formula")).expect("mix formula"));
        let doc: usize = member(&req, "doc")
            .trim_start_matches("doc")
            .parse()
            .expect("loadgen doc name");
        let s = FactorStructure::of_word(loadgen::doc_text(doc).as_str());
        let t0 = Instant::now();
        black_box(plan.eval_with_stats(&s, &Assignment::new(), &mut stats));
        eval_us.push(us_since(t0));
    }
    let n = eval_us.len() as f64;
    m.put("plan.eval_us", med(eval_us), "us");
    m.put(
        "plan.frames_explored",
        stats.frames_explored as f64 / n,
        "count",
    );
    m.put("plan.guard_hits", stats.guard_hits as f64 / n, "count");
}

/// Structure builds on the ingest documents, probes on the longest one.
fn structure_probe(seed: u64, m: &mut Metrics) {
    let ab = Alphabet::ab();
    let mut dense = Vec::new();
    let mut succinct = Vec::new();
    let mut bytes = 0usize;
    let mut letters = 0usize;
    let mut longest: Option<FactorStructure> = None;
    for c in 0..serve::CLIENTS {
        for j in 0..serve::INGEST_DOCS_PER_CLIENT {
            let text = serve::ingest_doc(seed, c as u64, j);
            let kind = if text.len() <= fc_logic::structure::DENSE_MAX_WORD_LEN {
                BackendKind::Dense
            } else {
                BackendKind::Succinct
            };
            let t0 = Instant::now();
            let s = FactorStructure::with_backend(Word::from(text.as_str()), &ab, kind);
            let us = us_since(t0);
            if kind == BackendKind::Dense {
                dense.push(us);
            } else {
                succinct.push(us / (text.len() as f64 / 1e3));
                bytes += s.memory_bytes();
                letters += text.len();
                if longest.as_ref().is_none_or(|l| l.word().len() < text.len()) {
                    longest = Some(s);
                }
            }
        }
    }
    m.put("structure.build_dense_us", med(dense), "us");
    m.put(
        "structure.build_succinct_us_per_kletter",
        med(succinct),
        "us",
    );
    m.put(
        "structure.bytes_per_letter",
        bytes as f64 / letters as f64,
        "B",
    );
    let s = longest.expect("every seed yields succinct documents");
    let w = s.word().bytes().to_vec();
    let mut rng = Rng::derive(seed, 0x6000);
    let probes: Vec<&[u8]> = (0..20_000)
        .map(|_| {
            let len = rng.range(1, 24.min(w.len() as u64)) as usize;
            let at = rng.below((w.len() - len + 1) as u64) as usize;
            &w[at..at + len]
        })
        .collect();
    let t0 = Instant::now();
    for p in &probes {
        black_box(s.id_of(black_box(p)));
    }
    m.put(
        "structure.probe_ns",
        t0.elapsed().as_nanos() as f64 / probes.len() as f64,
        "ns",
    );
}

/// Lint and definability oracle on the serve-mix lines that call them.
fn analysis_probe(mix: &ServeInputs, m: &mut Metrics) {
    let lines = interleaved(mix, 3000);
    let analyzer = Analyzer::new(AnalysisConfig::default());
    let mut lint = Vec::new();
    let mut oracle = Vec::new();
    let budget = DefinabilityBudget::default();
    for l in lines {
        let req = json::parse(&l.text).expect("generated line");
        match l.op {
            "lint" => {
                let t0 = Instant::now();
                black_box(analyzer.analyze_source(member(&req, "formula")));
                lint.push(us_since(t0));
            }
            "definable" => {
                let re = Regex::parse(member(&req, "regex")).expect("mix regexes parse");
                let mut alpha = re.symbols();
                if alpha.is_empty() {
                    alpha = b"ab".to_vec();
                }
                let t0 = Instant::now();
                black_box(fc_definable_regex(&re, &alpha, &budget));
                oracle.push(us_since(t0));
            }
            _ => {}
        }
    }
    m.put("analysis.lint_us", med(lint), "us");
    m.put("definable.oracle_us", med(oracle), "us");
}

/// The sharded document store under the ingest put sequence.
fn shards_probe(ingest: &ServeInputs, m: &mut Metrics) {
    let arena = ShardedArena::new();
    let times = interleaved(ingest, 6000)
        .into_iter()
        .filter(|l| l.op == "put")
        .map(|l| {
            let req = json::parse(&l.text).expect("generated line");
            let word = Word::from(member(&req, "text"));
            let t0 = Instant::now();
            black_box(arena.intern(&word));
            us_since(t0)
        })
        .collect();
    m.put("shards.intern_us", med(times), "us");
    m.put(
        "shards.structures_built",
        arena.structures_built() as f64,
        "count",
    );
    m.put("shards.intern_hits", arena.intern_hits() as f64, "count");
    m.put("shards.memory_bytes", arena.memory_bytes() as f64, "B");
}

/// Arena and batch construction, and the tier that decided each pair
/// query, over bulk-classify jobs.
fn batch_probe(seed: u64, m: &mut Metrics) {
    games::arith_warmup();
    let jobs = games::classify_inputs(seed);
    let mut arena_us = Vec::new();
    let mut new_us = Vec::new();
    let mut total = fc_games::BatchStats::default();
    let n = 600;
    for job in &jobs[..n] {
        let t0 = Instant::now();
        let (arena, ids) = StructureArena::for_words(&job.words);
        arena_us.push(us_since(t0));
        let t0 = Instant::now();
        let mut batch = BatchSolver::with_config(arena, games::config(job.kind));
        new_us.push(us_since(t0));
        black_box(batch.classify(&ids, games::K));
        total.absorb(&batch.stats());
    }
    m.put("arena.for_words_us", med(arena_us), "us");
    m.put("batch.new_us", med(new_us), "us");
    let tiers = [
        ("arith", total.arith_confirmations + total.arith_refutations),
        ("fingerprint", total.fingerprint_refutations),
        ("rank2", total.rank2_refutations),
        ("memo", total.memo_hits),
        ("canon", total.canon_hits),
        ("solved", total.pairs_solved),
    ];
    let base: u64 = tiers.iter().map(|t| t.1).sum();
    for (tier, count) in tiers {
        m.put(
            format!("batch.{tier}_share"),
            count as f64 / base as f64,
            "share",
        );
    }
    m.put(
        "batch.structures_built",
        total.structures_built as f64 / n as f64,
        "count",
    );
}

fn arith_probe(seed: u64, m: &mut Metrics) {
    let oracle = ArithOracle::global();
    let mut rng = Rng::derive(seed, 0x7000);
    let queries: Vec<(u64, u64)> = (0..50_000)
        .map(|_| (rng.below(41), rng.below(41)))
        .collect();
    let t0 = Instant::now();
    for &(p, q) in &queries {
        black_box(oracle.unary_verdict(black_box(p), black_box(q), games::K));
    }
    m.put(
        "arith.verdict_ns",
        t0.elapsed().as_nanos() as f64 / queries.len() as f64,
        "ns",
    );
}

/// Game-search pairs the solver probe decides: the first two blocks, which
/// hold every `(p, t-family)` twice.
const SOLVER_PROBE_PAIRS: usize = 2 * games::BLOCK;

/// The exact solver and its shared table on a fixed prefix of the
/// game-search pairs, table construction, and pair canonicalisation.
fn solver_probe(seed: u64, m: &mut Metrics) {
    let pairs = games::search_inputs(seed);
    let table = Arc::new(TransTable::new(BatchConfig::default().table_capacity));
    let ab = Alphabet::ab();
    let mut verdict_ms = Vec::new();
    let mut stats = fc_games::SolverStats::default();
    let mut wall_ms = 0.0;
    for p in &pairs[..SOLVER_PROBE_PAIRS] {
        let t0 = Instant::now();
        let mut solver = EfSolver::new(GamePair::new(p.w.as_str(), p.v.as_str(), &ab))
            .with_table(Arc::clone(&table));
        black_box(solver.equivalent(games::K));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        verdict_ms.push(ms);
        wall_ms += ms;
        stats.absorb(&solver.stats());
    }
    let n = verdict_ms.len() as f64;
    m.put("solver.verdict_ms", med(verdict_ms), "ms");
    m.put(
        "solver.states_explored",
        stats.states_explored as f64 / n,
        "count",
    );
    m.put("solver.memo_hits", stats.memo_hits as f64 / n, "count");
    m.put(
        "solver.pruned_moves",
        stats.pruned_moves as f64 / n,
        "count",
    );
    m.put(
        "solver.states_per_ms",
        stats.states_explored as f64 / wall_ms,
        "1/ms",
    );
    let ts = table.stats();
    m.put("ttable.hit_rate", ts.hit_rate(), "share");
    m.put("ttable.inserts", ts.inserts as f64, "count");
    m.put("ttable.evictions", ts.evictions as f64, "count");

    let new_us = (0..40)
        .map(|_| {
            let t0 = Instant::now();
            black_box(TransTable::new(BatchConfig::default().table_capacity));
            us_since(t0)
        })
        .collect();
    m.put("ttable.new_us", med(new_us), "us");

    let t0 = Instant::now();
    for p in &pairs {
        black_box(canon::canonical_pair(
            black_box(p.w.as_bytes()),
            black_box(p.v.as_bytes()),
        ));
    }
    m.put(
        "canon.pair_ns",
        t0.elapsed().as_nanos() as f64 / pairs.len() as f64,
        "ns",
    );
}
