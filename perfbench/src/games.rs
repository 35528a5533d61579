//! The two in-process workloads: `game-search` (one exact EF game per
//! op, one shared transposition table) and `bulk-classify` (small batch
//! classify jobs that the cheap verdict tiers mostly decide).

use crate::trace::Tracer;
use crate::util::Rng;
use fc_games::batch::periodic_table_builder;
use fc_games::{
    hintikka, pow2, ArithOracle, BatchConfig, BatchSolver, EfSolver, GamePair, StructureArena,
    TransTable,
};
use fc_words::{Alphabet, Word};
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// The rank every generated game and job is played at.
pub const K: u32 = 2;

/// One `w ≡₂ v` query of the E08/E09 Fooling-Lemma families:
/// `aᵖ·t` against `aᵖ⁺ᵈ·t` with `t = bᑫ` or `t = (ba)ᑫ`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Pair {
    pub w: String,
    pub v: String,
}

/// Smallest and largest `p`: below 12 every pair is a refutation, from 12
/// on confirmations appear, and cost grows steeply with `p`.
const P_RANGE: (usize, usize) = (4, 16);
/// `d` and `q` of the timed pairs; the warm-up uses a larger `d`, so no
/// timed pair finds its states already in the table.
const D_RANGE: (usize, usize) = (1, 8);
const Q_RANGE: (usize, usize) = (2, 7);

fn fooling_pair(p: usize, d: usize, q: usize, ba: bool) -> Pair {
    let t = if ba { "ba".repeat(q) } else { "b".repeat(q) };
    Pair {
        w: format!("{}{t}", "a".repeat(p)),
        v: format!("{}{t}", "a".repeat(p + d)),
    }
}

/// Pairs per block of `search_inputs`: every `(p, t-family)` once.
pub const BLOCK: usize = 2 * (P_RANGE.1 - P_RANGE.0 + 1);

/// Blocks that each hold every `(p, t-family)` once. In block `b`, head `h`
/// takes entry `(first + 7b + 11h) mod 48` of the `(d, q)` grid (`q`
/// varying fastest): every 6 consecutive blocks give each head every `q`
/// once, every block spreads `(d, q)` over the heads, and no pair repeats
/// within 48 blocks. So the mix of cheap and expensive
/// pairs in a run hardly depends on the seed, which picks `first` and the
/// order inside each block.
pub fn search_inputs(seed: u64) -> Vec<Pair> {
    let mut rng = Rng::derive(seed, 0x3000);
    let heads: Vec<(usize, bool)> = (P_RANGE.0..=P_RANGE.1)
        .flat_map(|p| [(p, false), (p, true)])
        .collect();
    let grid: Vec<(usize, usize)> = (D_RANGE.0..=D_RANGE.1)
        .flat_map(|d| (Q_RANGE.0..=Q_RANGE.1).map(move |q| (d, q)))
        .collect();
    let first = rng.below(grid.len() as u64) as usize;
    let mut out = Vec::new();
    for b in 0..grid.len() {
        let mut block: Vec<Pair> = heads
            .iter()
            .enumerate()
            .map(|(h, &(p, ba))| {
                let (d, q) = grid[(first + 7 * b + 11 * h) % grid.len()];
                fooling_pair(p, d, q, ba)
            })
            .collect();
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i as u64 + 1) as usize);
        }
        out.extend(block);
    }
    out
}

/// Warm-up pairs: one fixed block with `d` above the timed range, so set-up
/// time does not depend on the seed.
pub fn search_warmup() -> Vec<Pair> {
    (P_RANGE.0..=P_RANGE.1)
        .flat_map(|p| [false, true].map(|ba| fooling_pair(p, D_RANGE.1 + 1, Q_RANGE.0 + p % 2, ba)))
        .collect()
}

pub struct Verdict {
    pub ns: u64,
    pub equivalent: bool,
    pub states: u64,
}

/// Decides one pair with a fresh solver over the shared table.
pub fn decide(
    pair: &Pair,
    table: &Arc<TransTable>,
    tracer: &mut Tracer,
    request: u64,
) -> (bool, fc_games::SolverStats) {
    let ab = Alphabet::ab();
    let game = tracer.span("arena.game_pair", request, |_| {
        GamePair::new(pair.w.as_str(), pair.v.as_str(), &ab)
    });
    tracer.span("solver.equivalent", request, |_| {
        let mut solver = EfSolver::new(game).with_table(Arc::clone(table));
        let eq = solver.equivalent(K);
        (eq, solver.stats())
    })
}

/// The set-up of a game-search run: the shared table, warmed.
pub fn search_setup() -> Arc<TransTable> {
    let table = Arc::new(TransTable::new(BatchConfig::default().table_capacity));
    let mut off = Tracer::new(false, Instant::now());
    for p in search_warmup() {
        decide(&p, &table, &mut off, 0);
    }
    table
}

/// Runs the pair stream from `*pos` until `deadline`, recording into `out`.
pub fn search_run(
    pairs: &[Pair],
    table: &Arc<TransTable>,
    pos: &mut usize,
    deadline: Instant,
    out: &mut Vec<(usize, Verdict)>,
    tracer: &mut Tracer,
) {
    while Instant::now() < deadline {
        let i = *pos % pairs.len();
        let request = *pos as u64;
        let t0 = Instant::now();
        let (eq, stats) = tracer.span("verdict", request, |t| decide(&pairs[i], table, t, request));
        out.push((
            i,
            Verdict {
                ns: t0.elapsed().as_nanos() as u64,
                equivalent: eq,
                states: stats.states_explored,
            },
        ));
        *pos += 1;
    }
}

/// Positions of `len` records to re-check, drawn by `seed`.
pub fn sample(len: usize, n: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::derive(seed, 0x5000);
    (0..n.min(len))
        .map(|_| rng.below(len as u64) as usize)
        .collect()
}

/// Verdicts that disagree with a table-free solver, on a seeded sample.
pub fn search_verify(pairs: &[Pair], done: &[(usize, Verdict)], seed: u64) -> usize {
    let ab = Alphabet::ab();
    sample(done.len(), 24, seed)
        .into_iter()
        .filter(|&s| {
            let (i, v) = &done[s];
            let game = GamePair::new(pairs[*i].w.as_str(), pairs[*i].v.as_str(), &ab);
            EfSolver::new(game).equivalent(K) != v.equivalent
        })
        .count()
}

/// The three bulk-classify job shapes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JobKind {
    /// Powers of one primitive root: decided by the arithmetic tier.
    Periodic,
    /// Random short binary words: fingerprints and rank-2 profiles.
    Window,
    /// Words over {a,b,c} with letter-renamed copies: the canonical memo.
    Renamed,
}

#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Job {
    pub kind: JobKind,
    pub words: Vec<Word>,
}

/// Roots of the periodic jobs and their largest exponent; the tables for
/// the non-unary roots are built during set-up.
pub const ROOTS: [(&str, usize); 4] = [("a", 40), ("ab", 10), ("aab", 6), ("abb", 6)];

const PERMS: [[u8; 3]; 6] = [*b"abc", *b"acb", *b"bac", *b"bca", *b"cab", *b"cba"];

pub fn job(rng: &mut Rng) -> Job {
    match rng.below(3) {
        0 => {
            let (root, max) = ROOTS[rng.below(ROOTS.len() as u64) as usize];
            let n = rng.range(8, 14);
            let words = (0..n)
                .map(|_| Word::from(root.repeat(rng.range(0, max as u64) as usize)))
                .collect();
            Job {
                kind: JobKind::Periodic,
                words,
            }
        }
        1 => {
            let n = rng.range(8, 14);
            let words = (0..n)
                .map(|_| {
                    let len = rng.range(1, 6) as usize;
                    Word::from(rng.word(len, b"ab"))
                })
                .collect();
            Job {
                kind: JobKind::Window,
                words,
            }
        }
        _ => {
            let mut words = Vec::new();
            for _ in 0..3 {
                let len = rng.range(3, 5) as usize;
                let base = rng.word(len, b"abc");
                for _ in 0..4 {
                    let perm = PERMS[rng.below(6) as usize];
                    let renamed: String = base
                        .bytes()
                        .map(|b| perm[(b - b'a') as usize] as char)
                        .collect();
                    words.push(Word::from(renamed));
                }
            }
            Job {
                kind: JobKind::Renamed,
                words,
            }
        }
    }
}

pub fn classify_inputs(seed: u64) -> Vec<Job> {
    let mut rng = Rng::derive(seed, 0x4000);
    (0..20_000).map(|_| job(&mut rng)).collect()
}

pub fn classify_warmup() -> Vec<Job> {
    let mut rng = Rng::derive(0, 0x4001);
    (0..2000).map(|_| job(&mut rng)).collect()
}

pub fn config(kind: JobKind) -> BatchConfig {
    BatchConfig {
        use_rank2_profiles: kind == JobKind::Window,
        ..BatchConfig::default()
    }
}

/// Arena, batch solver and partition of one job.
pub fn run_job(
    job: &Job,
    tracer: &mut Tracer,
    request: u64,
) -> (Vec<Vec<usize>>, fc_games::BatchStats) {
    let (arena, ids) = tracer.span("arena.for_words", request, |_| {
        StructureArena::for_words(&job.words)
    });
    let mut batch = tracer.span("batch.with_config", request, |_| {
        BatchSolver::with_config(arena, config(job.kind))
    });
    let partition = tracer.span("batch.classify", request, |_| batch.classify(&ids, K));
    (partition, batch.stats())
}

/// Process-wide arithmetic warm-up: the rank-2 unary table and the
/// periodic tables of the non-unary roots (solver-built, once per
/// process).
pub fn arith_warmup() {
    let oracle = ArithOracle::global();
    let _ = oracle.unary_table(K);
    for (root, max) in ROOTS.iter().skip(1) {
        let root = Word::from(*root);
        let window = *max as u64 + 8;
        oracle.periodic_table(K, &root, || periodic_table_builder(K, &root, window));
    }
}

pub fn classify_setup() {
    arith_warmup();
    let mut off = Tracer::new(false, Instant::now());
    for j in classify_warmup() {
        run_job(&j, &mut off, 0);
    }
}

/// One completed job; only a hash of its partition is kept, so memory does
/// not grow with throughput.
pub struct JobRecord {
    pub job: usize,
    pub ns: u64,
    pub partition_hash: u64,
}

fn hash_of(partition: &[Vec<usize>]) -> u64 {
    let mut h = DefaultHasher::new();
    partition.hash(&mut h);
    h.finish()
}

/// Runs the job stream from `*pos` until `deadline`, recording into `out`;
/// returns the summed batch counters.
pub fn classify_run(
    jobs: &[Job],
    pos: &mut usize,
    deadline: Instant,
    out: &mut Vec<JobRecord>,
    tracer: &mut Tracer,
) -> fc_games::BatchStats {
    let mut total = fc_games::BatchStats::default();
    while Instant::now() < deadline {
        let i = *pos % jobs.len();
        let request = *pos as u64;
        let t0 = Instant::now();
        let (partition, stats) = tracer.span("job", request, |t| run_job(&jobs[i], t, request));
        let ns = t0.elapsed().as_nanos() as u64;
        total.absorb(&stats);
        out.push(JobRecord {
            job: i,
            ns,
            partition_hash: hash_of(&partition),
        });
        *pos += 1;
    }
    total
}

/// Partitions that disagree with the definitional representative loops
/// (`pow2::unary_classes_naive` for unary jobs, `hintikka::classes_naive`
/// otherwise), on a seeded sample.
pub fn classify_verify(jobs: &[Job], done: &[JobRecord], seed: u64) -> usize {
    let unary = pow2::unary_classes_naive(K, ROOTS[0].1);
    let mut class_of_len = HashMap::new();
    for (c, members) in unary.iter().enumerate() {
        for &n in members {
            class_of_len.insert(n, c);
        }
    }
    sample(done.len(), 16, seed)
        .into_iter()
        .filter(|&s| {
            let rec = &done[s];
            let words = &jobs[rec.job].words;
            let unary_job = words.iter().all(|w| w.bytes().iter().all(|&b| b == b'a'));
            // Class key of every position; classes in first-member order.
            let keys: Vec<usize> = if unary_job {
                words.iter().map(|w| class_of_len[&w.len()]).collect()
            } else {
                let classes = hintikka::classes_naive(words, K);
                words
                    .iter()
                    .map(|w| {
                        classes
                            .iter()
                            .position(|c| c.contains(w))
                            .expect("every word is classified")
                    })
                    .collect()
            };
            let mut order: Vec<usize> = Vec::new();
            let mut want: Vec<Vec<usize>> = Vec::new();
            for (pos, key) in keys.into_iter().enumerate() {
                match order.iter().position(|&k| k == key) {
                    Some(c) => want[c].push(pos),
                    None => {
                        order.push(key);
                        want.push(vec![pos]);
                    }
                }
            }
            hash_of(&want) != rec.partition_hash
        })
        .count()
}
