//! The repository benchmark: one seeded workload per run.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-mix --seed 1 --seconds 20 --trace 0
//! ```
//!
//! A run generates its inputs from the seed, sets up, measures for
//! `--seconds`, sets up again until it has `SETUPS` set-up times (their
//! median is `setup_s`), then checks every output it can outside the timed
//! phase. It prints every metric by name with its
//! unit, then, as the last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.
//!
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! tracing off. With `--trace 1` the run measures the same inputs for half
//! its time untraced and for half traced, each from a fresh set-up (the
//! difference is the tracing overhead), runs every layer probe, writes the
//! spans to `.bench_out/`, and reports the per-layer metrics.

mod games;
mod layers;
mod serve;
mod trace;
mod util;

use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;
use util::{beyond, median, peak_rss_mb, quantile, sorted, Metrics};

pub const WORKLOADS: [&str; 4] = ["serve-mix", "serve-ingest", "game-search", "bulk-classify"];

/// End-to-end metrics (every workload, `--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_ops_s", "ops/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("cheap_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (every workload, `--trace 1`), with units, in print
/// order.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("server.overhead_p50_ms", "ms"),
    ("server.cheap_p99_ms", "ms"),
    ("engine.check_us", "us"),
    ("engine.check_p99_us", "us"),
    ("engine.solve_us", "us"),
    ("engine.extract_us", "us"),
    ("engine.window_us", "us"),
    ("engine.game_us", "us"),
    ("engine.classify_us", "us"),
    ("engine.lint_us", "us"),
    ("engine.definable_us", "us"),
    ("engine.doc_us", "us"),
    ("engine.busy_share", "share"),
    ("engine.arith_game_hits", "share"),
    ("engine.canon_game_hits", "share"),
    ("json.parse_us", "us"),
    ("engine.put_us", "us"),
    ("plan.compile_us", "us"),
    ("plan_cache.hit_rate", "share"),
    ("plan_cache.evictions", "count"),
    ("plan.eval_us", "us"),
    ("plan.frames_explored", "count"),
    ("plan.guard_hits", "count"),
    ("structure.build_dense_us", "us"),
    ("structure.build_succinct_us_per_kletter", "us"),
    ("structure.bytes_per_letter", "B"),
    ("structure.probe_ns", "ns"),
    ("analysis.lint_us", "us"),
    ("definable.oracle_us", "us"),
    ("shards.intern_us", "us"),
    ("shards.structures_built", "count"),
    ("shards.intern_hits", "count"),
    ("shards.memory_bytes", "B"),
    ("arena.for_words_us", "us"),
    ("batch.new_us", "us"),
    ("batch.arith_share", "share"),
    ("batch.fingerprint_share", "share"),
    ("batch.rank2_share", "share"),
    ("batch.memo_share", "share"),
    ("batch.canon_share", "share"),
    ("batch.solved_share", "share"),
    ("batch.structures_built", "count"),
    ("arith.verdict_ns", "ns"),
    ("solver.verdict_ms", "ms"),
    ("solver.states_explored", "count"),
    ("solver.memo_hits", "count"),
    ("solver.pruned_moves", "count"),
    ("solver.states_per_ms", "1/ms"),
    ("ttable.hit_rate", "share"),
    ("ttable.inserts", "count"),
    ("ttable.evictions", "count"),
    ("ttable.new_us", "us"),
    ("canon.pair_ns", "ns"),
    ("trace.overhead_throughput_share", "share"),
    ("trace.overhead_p50_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.workload_self_ms", "ms"),
];

/// The percentile reported as `tail_ms`: the highest of p99, p95 and p90
/// that leaves at least ten samples beyond it in a half-length (traced)
/// phase at the workload's rate. It is fixed per workload, so a change in
/// throughput cannot switch it: game-search makes a few hundred verdicts
/// per phase, the other workloads tens of thousands of ops.
fn tail_percentile(workload: &str) -> (&'static str, f64) {
    match workload {
        "game-search" => ("p95", 0.95),
        _ => ("p99", 0.99),
    }
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Lines per client of the serve round-trip layer probe in a traced run.
const SERVE_PROBE_LINES: usize = 2000;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .copied()
                        .find(|w| *w == value)
                        .ok_or_else(|| {
                            format!("unknown workload {value:?}; one of {WORKLOADS:?}")
                        })?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One timed phase: latencies in ms (ascending), the cheap-op subset, and
/// the checked outcome counts.
struct Phase {
    traced: bool,
    wall_s: f64,
    lat: Vec<f64>,
    cheap: Vec<f64>,
    failed: usize,
    wrong: usize,
}

struct Run {
    setups: Vec<f64>,
    phases: Vec<Phase>,
    /// Peak resident set after the timed phases, from the baseline on (MB).
    rss_mb: f64,
    /// Resident set holding the inputs and record buffers, before the first
    /// set-up (MB).
    base_rss_mb: f64,
    notes: Vec<String>,
}

/// (traced, seconds) of each timed phase. A traced run measures the same
/// inputs twice from a fresh set-up, untraced then traced, so their
/// difference is the tracing overhead.
fn phase_plan(a: &Args) -> Vec<(bool, Duration)> {
    if a.trace {
        let half = Duration::from_secs_f64(a.seconds / 2.0);
        vec![(false, half), (true, half)]
    } else {
        vec![(false, Duration::from_secs_f64(a.seconds))]
    }
}

/// Runs each phase of `plan` on a fresh set-up and tears it down, then sets
/// up and tears down again until there are `SETUPS` set-up times. Returns
/// the phase results, the set-up times in seconds and the peak resident set
/// (MB) after the phases. The extra set-ups come last, so the phases and
/// that peak see no state an earlier set-up left behind (freed memory that
/// the fixed trim threshold keeps mapped).
fn run_phases<S, R>(
    plan: Vec<(bool, Duration)>,
    mut make: impl FnMut() -> io::Result<S>,
    mut tear_down: impl FnMut(S) -> io::Result<()>,
    mut phase: impl FnMut(usize, bool, Duration, &mut S) -> io::Result<R>,
) -> io::Result<(Vec<R>, Vec<f64>, f64)> {
    let mut results = Vec::new();
    let mut setups = Vec::new();
    for (i, (traced, len)) in plan.into_iter().enumerate() {
        let t0 = Instant::now();
        let mut state = make()?;
        setups.push(t0.elapsed().as_secs_f64());
        results.push(phase(i, traced, len, &mut state)?);
        tear_down(state)?;
    }
    let rss_mb = peak_rss_mb();
    while setups.len() < SETUPS {
        let t0 = Instant::now();
        let state = make()?;
        setups.push(t0.elapsed().as_secs_f64());
        tear_down(state)?;
    }
    Ok((results, setups, rss_mb))
}

fn phase(traced: bool, wall_s: f64, lat: Vec<f64>, cheap: Vec<f64>) -> Phase {
    Phase {
        traced,
        wall_s,
        lat: sorted(lat),
        cheap: sorted(cheap),
        failed: 0,
        wrong: 0,
    }
}

fn run_serve(
    inputs: &serve::ServeInputs,
    a: &Args,
    epoch: Instant,
    tracer: &mut Tracer,
) -> io::Result<Run> {
    let plan = phase_plan(a);
    let mut buffers = plan
        .iter()
        .map(|&(_, len)| serve::record_buffers(len))
        .collect::<Vec<_>>()
        .into_iter();
    let base_rss_mb = util::reset_peak_rss()?;
    let mut reached = vec![0; serve::CLIENTS];
    let (timed, setups, rss_mb) = run_phases(
        plan,
        || serve::setup(inputs),
        serve::teardown,
        |_, traced, len, live| {
            let buffers = buffers.next().expect("one buffer set per phase");
            let t0 = Instant::now();
            let stop = serve::Stop::At(t0 + len);
            let (records, tracers) = serve::run(live, inputs, stop, buffers, traced, epoch)?;
            let wall_s = t0.elapsed().as_secs_f64();
            for t in tracers {
                tracer.absorb(t);
            }
            for (r, p) in reached.iter_mut().zip(serve::positions(live)) {
                *r = p.max(*r);
            }
            Ok((traced, wall_s, records))
        },
    )?;
    let expected = serve::replay(inputs, &reached);
    let mut phases = Vec::new();
    for (traced, wall_s, records) in timed {
        let records: Vec<serve::Record> = records.into_iter().flatten().collect();
        let lat = serve::latencies(inputs, &records);
        let mut p = phase(traced, wall_s, lat.all, lat.cheap);
        (p.failed, p.wrong) = serve::verify(inputs, &expected, &records);
        phases.push(p);
    }
    Ok(Run {
        setups,
        phases,
        rss_mb,
        base_rss_mb,
        notes: vec![
            format!("clients {} (closed loop, lockstep)", serve::CLIENTS),
            format!(
                "distinct lines replayed for the output check: {}",
                expected.len()
            ),
        ],
    })
}

fn run_search(a: &Args, epoch: Instant, tracer: &mut Tracer) -> io::Result<Run> {
    let pairs = games::search_inputs(a.seed);
    let plan = phase_plan(a);
    let mut buffers = plan
        .iter()
        .map(|&(_, len)| util::record_buffer(len, 2_000.0))
        .collect::<Vec<_>>()
        .into_iter();
    let base_rss_mb = util::reset_peak_rss()?;
    let mut notes = Vec::new();
    let (timed, setups, rss_mb) = run_phases(
        plan,
        || Ok(games::search_setup()),
        |_| Ok(()),
        |i, traced, len, table| {
            let mut done = buffers.next().expect("one buffer per phase");
            let mut t = Tracer::new(traced, epoch);
            let mut pos = 0;
            let t0 = Instant::now();
            games::search_run(&pairs, table, &mut pos, t0 + len, &mut done, &mut t);
            let wall_s = t0.elapsed().as_secs_f64();
            tracer.absorb(t);
            let confirmed = done.iter().filter(|(_, v)| v.equivalent).count();
            let states: u64 = done.iter().map(|(_, v)| v.states).sum();
            notes.push(format!(
                "phase {i}: {} verdicts of {} distinct pairs, {confirmed} confirmations, {states} solver states; table {:?}",
                done.len(),
                pairs.len(),
                table.stats()
            ));
            Ok((traced, wall_s, done))
        },
    )?;
    let mut phases = Vec::new();
    for (i, (traced, wall_s, done)) in timed.into_iter().enumerate() {
        let lat = done.iter().map(|(_, v)| v.ns as f64 / 1e6).collect();
        let cheap = done
            .iter()
            .filter(|(_, v)| !v.equivalent)
            .map(|(_, v)| v.ns as f64 / 1e6)
            .collect();
        let mut p = phase(traced, wall_s, lat, cheap);
        p.wrong = games::search_verify(&pairs, &done, a.seed ^ i as u64);
        phases.push(p);
    }
    Ok(Run {
        setups,
        phases,
        rss_mb,
        base_rss_mb,
        notes,
    })
}

fn run_classify(a: &Args, epoch: Instant, tracer: &mut Tracer) -> io::Result<Run> {
    let jobs = games::classify_inputs(a.seed);
    let plan = phase_plan(a);
    let mut buffers = plan
        .iter()
        .map(|&(_, len)| util::record_buffer(len, 40_000.0))
        .collect::<Vec<_>>()
        .into_iter();
    let base_rss_mb = util::reset_peak_rss()?;
    let mut notes = Vec::new();
    let (timed, setups, rss_mb) = run_phases(
        plan,
        || {
            games::classify_setup();
            Ok(())
        },
        |()| Ok(()),
        |i, traced, len, ()| {
            let mut done = buffers.next().expect("one buffer per phase");
            let mut t = Tracer::new(traced, epoch);
            let mut pos = 0;
            let faults = util::minor_faults();
            let t0 = Instant::now();
            let total = games::classify_run(&jobs, &mut pos, t0 + len, &mut done, &mut t);
            let faults = util::minor_faults() - faults;
            let wall_s = t0.elapsed().as_secs_f64();
            tracer.absorb(t);
            notes.push(format!(
                "phase {i}: {} jobs, {:.1} page faults per job; {total}",
                done.len(),
                faults as f64 / done.len() as f64
            ));
            Ok((traced, wall_s, done))
        },
    )?;
    let mut phases = Vec::new();
    for (i, (traced, wall_s, done)) in timed.into_iter().enumerate() {
        let lat = done.iter().map(|r| r.ns as f64 / 1e6).collect();
        let cheap = done
            .iter()
            .filter(|r| jobs[r.job].kind == games::JobKind::Periodic)
            .map(|r| r.ns as f64 / 1e6)
            .collect();
        let mut p = phase(traced, wall_s, lat, cheap);
        p.wrong = games::classify_verify(&jobs, &done, a.seed ^ i as u64);
        phases.push(p);
    }
    Ok(Run {
        setups,
        phases,
        rss_mb,
        base_rss_mb,
        notes,
    })
}

/// End-to-end metrics of one phase; `tail_q` is the tail percentile.
fn end_to_end(phase: &Phase, run: &Run, tail_q: f64) -> Metrics {
    let mut m = Metrics::default();
    m.put(
        "throughput_ops_s",
        phase.lat.len() as f64 / phase.wall_s,
        "ops/s",
    );
    m.put("p50_ms", quantile(&phase.lat, 0.5), "ms");
    m.put("tail_ms", quantile(&phase.lat, tail_q), "ms");
    m.put("cheap_p50_ms", quantile(&phase.cheap, 0.5), "ms");
    m.put("setup_s", median(&run.setups), "s");
    m.put("peak_rss_mb", run.rss_mb - run.base_rss_mb, "MB");
    m
}

fn print_metrics(title: &str, m: &Metrics) {
    println!("# {title}");
    for (name, value, unit) in &m.0 {
        println!("{name:<42} {value:>14.6} {unit}");
    }
}

/// Fixes glibc's mmap and trim thresholds before anything is allocated.
/// By default glibc adapts both to the sizes freed so far, so whether a
/// bulk job's 2 MiB transposition table reuses heap memory or is faulted
/// in afresh depended on the heap's history: identical runs differed by
/// 115 vs 224 page faults per job and by 40% in throughput. With fixed
/// thresholds, blocks below 16 MiB come from the heap and freed memory
/// stays mapped, the steady state of a long-running process. Under the
/// defaults some runs stayed in the faulting mode for 30k jobs after the
/// warm-up, so a longer warm-up is no substitute.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_heap_thresholds() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: mallopt only sets allocator parameters; it is called first
    // thing in main, before any other thread exists.
    let ok = unsafe {
        mallopt(M_MMAP_THRESHOLD, 16 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1
    };
    assert!(ok, "mallopt rejected the heap thresholds");
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_heap_thresholds() {}

fn main() {
    fix_heap_thresholds();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = bench(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn bench(a: &Args) -> io::Result<()> {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(a.trace, epoch);
    let run = match a.workload {
        "serve-mix" => run_serve(&serve::mix_inputs(a.seed), a, epoch, &mut tracer)?,
        "serve-ingest" => run_serve(&serve::ingest_inputs(a.seed), a, epoch, &mut tracer)?,
        "game-search" => run_search(a, epoch, &mut tracer)?,
        "bulk-classify" => run_classify(a, epoch, &mut tracer)?,
        _ => unreachable!("workload names are checked by parse_args"),
    };
    println!(
        "# workload {} seed {} seconds {} trace {} ({} cpus)",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("# setups (s): {:?}", run.setups);
    println!(
        "# resident set (MB): {:.1} holding inputs and record buffers; peak {:.1} after the timed phases",
        run.base_rss_mb, run.rss_mb
    );
    for n in &run.notes {
        println!("# {n}");
    }
    let attempted: usize = run.phases.iter().map(|p| p.lat.len()).sum();
    let failed: usize = run.phases.iter().map(|p| p.failed).sum();
    let wrong: usize = run.phases.iter().map(|p| p.wrong).sum();
    let (tail_label, tail_q) = tail_percentile(a.workload);
    for p in &run.phases {
        println!(
            "# phase traced={}: {} ops in {:.3} s; tail_ms is {tail_label} ({} of {} samples beyond it); {} cheap ops; error_rate {} ({} failed + {} wrong)",
            p.traced,
            p.lat.len(),
            p.wall_s,
            beyond(p.lat.len(), tail_q),
            p.lat.len(),
            p.cheap.len(),
            (p.failed + p.wrong) as f64 / p.lat.len().max(1) as f64,
            p.failed,
            p.wrong
        );
    }

    let untraced = end_to_end(&run.phases[0], &run, tail_q);
    print_metrics("end-to-end (tracing off)", &untraced);
    let metrics = if a.trace {
        let traced = end_to_end(&run.phases[1], &run, tail_q);
        print_metrics("end-to-end (tracing on)", &traced);
        let workload_spans = tracer.spans().len();
        let workload_self = tracer.self_times();
        let mut layers = layers::probe_all(a.seed, SERVE_PROBE_LINES, epoch, &mut tracer)?;
        let (u, t) = (
            untraced.get("throughput_ops_s").unwrap_or(f64::NAN),
            traced.get("throughput_ops_s").unwrap_or(f64::NAN),
        );
        layers.put("trace.overhead_throughput_share", (u - t) / u, "share");
        layers.put(
            "trace.overhead_p50_ms",
            traced.get("p50_ms").unwrap_or(f64::NAN) - untraced.get("p50_ms").unwrap_or(f64::NAN),
            "ms",
        );
        layers.put("trace.spans", workload_spans as f64, "count");
        let self_ms: u64 = workload_self.values().map(|v| v.1).sum();
        layers.put("trace.workload_self_ms", self_ms as f64 / 1e6, "ms");

        println!("# self time per span (count, total ms, median us)");
        for (name, (count, total, med)) in tracer.self_times() {
            println!(
                "{name:<42} {count:>8} {:>12.3} {:>10.3}",
                total as f64 / 1e6,
                med as f64 / 1e3
            );
        }
        let out =
            PathBuf::from(".bench_out").join(format!("spans-{}-{}.jsonl", a.workload, a.seed));
        tracer.write_jsonl(&out)?;
        println!("# spans written to {}", out.display());
        print_metrics("per-layer", &layers);
        layers
    } else {
        untraced
    };

    let names: Vec<(&str, &str)> = metrics.0.iter().map(|m| (m.0.as_str(), m.2)).collect();
    let expected = if a.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    if names != expected {
        return Err(io::Error::other(format!(
            "metric names or units drifted from the declared list: {names:?}"
        )));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {}}}",
        failed + wrong == 0,
        failed + wrong,
        metrics.to_json()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_serve::json::{self, Value};

    #[test]
    fn generators_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(serve::mix_inputs(7), serve::mix_inputs(7));
        assert_ne!(serve::mix_inputs(7).streams, serve::mix_inputs(8).streams);
        assert_eq!(serve::ingest_inputs(7), serve::ingest_inputs(7));
        assert_ne!(
            serve::ingest_inputs(7).streams,
            serve::ingest_inputs(8).streams
        );
        assert_eq!(games::search_inputs(7), games::search_inputs(7));
        assert_ne!(games::search_inputs(7), games::search_inputs(8));
        assert_eq!(games::classify_inputs(7), games::classify_inputs(7));
        assert_ne!(games::classify_inputs(7), games::classify_inputs(8));
    }

    #[test]
    fn warm_up_inputs_do_not_depend_on_the_seed() {
        assert_eq!(serve::mix_inputs(7).warmup, serve::mix_inputs(8).warmup);
        assert_eq!(
            serve::ingest_inputs(7).warmup,
            serve::ingest_inputs(8).warmup
        );
    }

    #[test]
    fn game_pairs_do_not_repeat_and_miss_the_warm_up() {
        let pairs = games::search_inputs(3);
        let mut seen = std::collections::HashSet::new();
        for p in pairs.iter().chain(&games::search_warmup()) {
            assert!(
                seen.insert((p.w.clone(), p.v.clone())),
                "repeated pair {p:?}"
            );
        }
    }

    #[test]
    fn ingest_reads_name_documents_put_earlier() {
        for stream in serve::ingest_inputs(5).streams {
            let mut put = std::collections::HashSet::new();
            for line in &stream {
                let v = json::parse(&line.text).unwrap();
                let get = |k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);
                match line.op {
                    "put" => {
                        put.insert(get("name").unwrap());
                    }
                    "doc" => assert!(put.contains(&get("name").unwrap())),
                    "check" => assert!(put.contains(&get("doc").unwrap())),
                    op => panic!("unexpected op {op}"),
                }
            }
            assert!(put.len() <= serve::INGEST_DOCS_PER_CLIENT);
        }
    }

    fn declared(bench: &Value, key: &str) -> Vec<(String, String)> {
        bench
            .get(key)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bench = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&bench, "end_to_end"), own(&END_TO_END));
        assert_eq!(declared(&bench, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = bench
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn tail_percentiles_count_the_samples_beyond_them() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.99), 990.0);
        assert_eq!(beyond(xs.len(), 0.99), 10);
        assert_eq!(beyond(300, 0.95), 15);
    }
}
