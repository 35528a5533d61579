//! Bulk ≡_k workloads: the structure arena and the batch game engine.
//!
//! The drivers behind the paper's quantitative tables — ≡_k class tables
//! over Σ^{≤n} (E24), the Lemma 3.6 minimal-pair scan (E03), the fooling
//! searches of Lemma 4.13 / Lemma 4.15 (E08/E09/E15) — are all *pair
//! grids*: O(n²) games over a window of n words. Solving each pair in
//! isolation rebuilds both words' dense [`FactorStructure`] tables (an
//! O(m²) concat table per word, per pair) and re-decides verdicts the grid
//! already knows. This module amortizes all of that:
//!
//! - [`StructureArena`] interns each distinct word **once** and builds its
//!   structure and its invariant [`Fingerprint`] **lazily**, on the first
//!   pair that actually needs them, sharing the structure via `Arc` across
//!   every pair the word participates in. Interning itself only records
//!   the word and its primitive-root decomposition (O(|w|)), so a batch
//!   whose pairs are all decided arithmetically never builds a structure
//!   at all;
//! - [`BatchSolver`] adds a cross-pair verdict memo (symmetric pairs and
//!   repeat queries are free), an **arithmetic tier** (the process-wide
//!   [`ArithOracle`]: O(1) class-table verdicts for unary and
//!   same-primitive-root pairs, confirming *and* refuting, before any
//!   structure exists), fingerprint-based refutation of inequivalent
//!   pairs *without* entering the game, union-find class merging for
//!   [`BatchSolver::classify`], and a work-stealing parallel pair grid
//!   (`std::thread::scope`) with per-worker solver reuse
//!   ([`EfSolver::rebind`]).
//!
//! Every optimisation is semantically invisible: parallel output equals
//! sequential output (at most one class representative can match a
//! candidate, because representatives are pairwise inequivalent and ≡_k is
//! transitive — Theorem 3.5), fingerprint refutations are debug-asserted
//! against the exact solver, and the differential suite pins
//! `classify == hintikka::classes_naive` on the exhaustive Σ^{≤4} window.
//!
//! All words in one arena share a single alphabet Σ, fixed at
//! construction. Padding Σ with letters absent from both words of a pair
//! does not change ≡_k verdicts: the padded constants interpret as ⊥ on
//! both sides, the extra (⊥, ⊥) constant pairs are consistent (⊥ never
//! participates in R∘ and the equality pattern forces ⊥ ↦ ⊥, which was
//! already Duplicator's only consistent answer to a ⊥ move), so they only
//! pre-pin a move that was trivially answerable. The regression test
//! `alphabet_padding_is_verdict_invariant` pins this.

use crate::arena::GamePair;
use crate::arith::{ArithOracle, PeriodicTable};
use crate::canon;
use crate::fingerprint::{rank2_type_profile, Fingerprint, TYPE2_UNIVERSE_CAP};
use crate::semilinear::fit_tail;
use crate::solver::{EfSolver, SolverStats};
use crate::ttable::{TransTable, TransTableStats, DEFAULT_TABLE_CAPACITY};
use fc_logic::FactorStructure;
use fc_words::{primitive_root, Alphabet, Word};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Index of an interned word within a [`StructureArena`].
pub type WordId = usize;

/// Interns words and builds each word's [`FactorStructure`] and
/// [`Fingerprint`] lazily, at most once, over one shared alphabet.
///
/// Interning records only the word and its primitive-root decomposition;
/// the O(|w|²) structure is built on the first [`StructureArena::structure`]
/// / [`StructureArena::fingerprint`] call (all `OnceLock`, so the arena
/// stays shareable across the parallel grid workers). Pairs decided by the
/// arithmetic tier therefore cost no structure at all.
pub struct StructureArena {
    sigma: Alphabet,
    /// Forced structure backend for every interned word, or `None` for the
    /// per-word automatic choice ([`fc_logic::FactorStructure::new`]).
    backend: Option<fc_logic::BackendKind>,
    words: Vec<Word>,
    structures: Vec<OnceLock<Arc<FactorStructure>>>,
    fingerprints: Vec<OnceLock<Fingerprint>>,
    /// Lazily-memoized rank-2 type profiles (see
    /// [`crate::fingerprint::rank2_type_profile`]): O(|U|²) per word, so
    /// only computed for words whose pairs actually survive the cheap
    /// fingerprint layers.
    rank2: Vec<OnceLock<u64>>,
    /// `(primitive root, exponent)` per word, computed at intern (O(|w|)
    /// border scan) — the arithmetic tier's eligibility data.
    roots: Vec<(Word, usize)>,
    index: HashMap<Word, WordId>,
    structures_built: AtomicU64,
}

impl StructureArena {
    /// An empty arena over the alphabet `sigma`. Every word later interned
    /// must be a word over `sigma` (asserted), so that all structures share
    /// one signature and fingerprints stay comparable.
    pub fn new(sigma: Alphabet) -> StructureArena {
        StructureArena {
            sigma,
            backend: None,
            words: Vec::new(),
            structures: Vec::new(),
            fingerprints: Vec::new(),
            rank2: Vec::new(),
            roots: Vec::new(),
            index: HashMap::new(),
            structures_built: AtomicU64::new(0),
        }
    }

    /// An empty arena that builds every interned word's structure on the
    /// given backend instead of the word-length automatic choice. Verdicts
    /// are backend-independent (the differential suite
    /// `tests/backend_diff.rs` pins `all_pairs` equality), so this is a
    /// performance/memory knob, not a semantic one.
    pub fn with_backend(sigma: Alphabet, backend: fc_logic::BackendKind) -> StructureArena {
        let mut arena = StructureArena::new(sigma);
        arena.backend = Some(backend);
        arena
    }

    /// Builds an arena over the union alphabet of `words` and interns them
    /// all, returning the arena plus one id per input position (duplicate
    /// words share an id).
    pub fn for_words(words: &[Word]) -> (StructureArena, Vec<WordId>) {
        let sigma = words
            .iter()
            .fold(Alphabet::from_symbols(b""), |s, w| s.extended_by(w));
        let mut arena = StructureArena::new(sigma);
        let ids = words.iter().map(|w| arena.intern(w)).collect();
        (arena, ids)
    }

    /// Interns `word`: records it and its primitive-root decomposition.
    /// The structure and fingerprint are *not* built here — they
    /// materialise on first use. Repeat interns are a hash lookup.
    ///
    /// # Panics
    /// Panics if `word` uses a symbol outside the arena's alphabet.
    pub fn intern(&mut self, word: &Word) -> WordId {
        if let Some(&id) = self.index.get(word) {
            return id;
        }
        assert!(
            word.bytes().iter().all(|&c| self.sigma.contains(c)),
            "arena alphabet {:?} does not cover word {word}",
            self.sigma
        );
        let id = self.words.len();
        self.roots.push(primitive_root(word.bytes()));
        self.words.push(word.clone());
        self.structures.push(OnceLock::new());
        self.fingerprints.push(OnceLock::new());
        self.rank2.push(OnceLock::new());
        self.index.insert(word.clone(), id);
        id
    }

    /// The interned word.
    pub fn word(&self, id: WordId) -> &Word {
        &self.words[id]
    }

    /// The word as `root^exponent` with `root` primitive (ε ↦ (ε, 0)),
    /// precomputed at intern — no structure involved.
    pub fn primitive_power(&self, id: WordId) -> (&Word, usize) {
        let (root, exp) = &self.roots[id];
        (root, *exp)
    }

    /// The word's shared structure, built on first request.
    pub fn structure(&self, id: WordId) -> &Arc<FactorStructure> {
        self.structures[id].get_or_init(|| {
            self.structures_built.fetch_add(1, Ordering::Relaxed);
            Arc::new(match self.backend {
                Some(kind) => {
                    FactorStructure::with_backend(self.words[id].clone(), &self.sigma, kind)
                }
                None => FactorStructure::new(self.words[id].clone(), &self.sigma),
            })
        })
    }

    /// The word's invariant fingerprint, built (with its structure) on
    /// first request.
    pub fn fingerprint(&self, id: WordId) -> &Fingerprint {
        self.fingerprints[id].get_or_init(|| Fingerprint::of(self.structure(id)))
    }

    /// The word's rank-2 type profile, computed on first request and
    /// memoized; `None` above the `cap` on universe size (the O(|U|²)
    /// pass would cost more than the games it could save on long words —
    /// see [`BatchConfig::rank2_universe_cap`]).
    pub fn rank2_profile(&self, id: WordId, cap: usize) -> Option<u64> {
        let s = self.structure(id);
        if s.universe_len() > cap {
            return None;
        }
        Some(*self.rank2[id].get_or_init(|| rank2_type_profile(s)))
    }

    /// Number of structures actually built so far (≤ words interned).
    pub fn structures_built(&self) -> u64 {
        self.structures_built.load(Ordering::Relaxed)
    }

    /// Number of distinct words interned.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// `true` iff nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The shared alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.sigma
    }

    /// Assembles the game 𝔄_{w_i} vs 𝔅_{w_j} from the shared structures —
    /// two `Arc` bumps plus the constant zip and mirror tables; no factor
    /// table is rebuilt.
    pub fn game(&self, i: WordId, j: WordId) -> GamePair {
        let a = self.structure(i).clone();
        let b = self.structure(j).clone();
        let constant_pairs = a
            .constants_vector()
            .into_iter()
            .zip(b.constants_vector())
            .collect();
        GamePair::from_parts(a, b, constant_pairs)
    }
}

/// Counters exposed by the batch engine for benches and report rows.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchStats {
    /// Distinct structures built by the arena (each word at most once;
    /// words whose pairs were all decided arithmetically build none).
    pub structures_built: u64,
    /// Pairs *confirmed* equivalent by the arithmetic tier — no structure,
    /// no solver.
    pub arith_confirmations: u64,
    /// Pairs *refuted* by the arithmetic tier — no structure, no solver.
    pub arith_refutations: u64,
    /// Pairs refuted by fingerprint inequality, no solver constructed.
    pub fingerprint_refutations: u64,
    /// Pairs refuted by the lazily-computed rank-2 type profile.
    pub rank2_refutations: u64,
    /// Pairs decided by the exact solver.
    pub pairs_solved: u64,
    /// Queries answered from the cross-pair verdict memo.
    pub memo_hits: u64,
    /// Queries answered from the *canonical* verdict memo — a pair whose
    /// letter-renamed or swapped image was already decided ([`crate::canon`]).
    pub canon_hits: u64,
    /// Entries currently held in the verdict memo.
    pub memo_entries: u64,
    /// Aggregated counters of every solver run by this batch.
    pub solver: SolverStats,
    /// Wall time accumulated inside the batch entry points.
    pub wall: Duration,
}

impl BatchStats {
    /// Folds another batch's counters into this one (wall times add).
    pub fn absorb(&mut self, other: &BatchStats) {
        self.structures_built += other.structures_built;
        self.arith_confirmations += other.arith_confirmations;
        self.arith_refutations += other.arith_refutations;
        self.fingerprint_refutations += other.fingerprint_refutations;
        self.rank2_refutations += other.rank2_refutations;
        self.pairs_solved += other.pairs_solved;
        self.memo_hits += other.memo_hits;
        self.canon_hits += other.canon_hits;
        self.memo_entries += other.memo_entries;
        self.solver.absorb(&other.solver);
        self.wall += other.wall;
    }
}

impl std::fmt::Display for BatchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} structures built, {} arith-confirmed, {} arith-refuted, \
             {} fingerprint-refuted, {} rank2-refuted, \
             {} solver-decided, {} memo hits ({} entries), {} canon hits, \
             {} solver states, {} table hits, {:.3?} wall",
            self.structures_built,
            self.arith_confirmations,
            self.arith_refutations,
            self.fingerprint_refutations,
            self.rank2_refutations,
            self.pairs_solved,
            self.memo_hits,
            self.memo_entries,
            self.canon_hits,
            self.solver.states_explored,
            self.solver.table_hits,
            self.wall
        )
    }
}

/// A `Send + Sync` accumulator of [`BatchStats`], for engines whose one
/// shared handle serves concurrent bulk-≡_k requests (`fc serve`).
/// Requests run on private `BatchSolver`s (the existing single-threaded
/// paths, byte-identical displays) and [`SharedBatchStats::record`] their
/// final counters, so concurrent requests never lose updates.
#[derive(Debug, Default)]
pub struct SharedBatchStats {
    batches: AtomicU64,
    structures_built: AtomicU64,
    arith_confirmations: AtomicU64,
    arith_refutations: AtomicU64,
    fingerprint_refutations: AtomicU64,
    rank2_refutations: AtomicU64,
    pairs_solved: AtomicU64,
    memo_hits: AtomicU64,
    canon_hits: AtomicU64,
    solver_states: AtomicU64,
    table_hits: AtomicU64,
    table_misses: AtomicU64,
    wall_nanos: AtomicU64,
}

impl SharedBatchStats {
    /// An all-zero accumulator.
    pub fn new() -> SharedBatchStats {
        SharedBatchStats::default()
    }

    /// Merges one finished batch's counters.
    pub fn record(&self, stats: &BatchStats) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.structures_built
            .fetch_add(stats.structures_built, Ordering::Relaxed);
        self.arith_confirmations
            .fetch_add(stats.arith_confirmations, Ordering::Relaxed);
        self.arith_refutations
            .fetch_add(stats.arith_refutations, Ordering::Relaxed);
        self.fingerprint_refutations
            .fetch_add(stats.fingerprint_refutations, Ordering::Relaxed);
        self.rank2_refutations
            .fetch_add(stats.rank2_refutations, Ordering::Relaxed);
        self.pairs_solved
            .fetch_add(stats.pairs_solved, Ordering::Relaxed);
        self.memo_hits.fetch_add(stats.memo_hits, Ordering::Relaxed);
        self.canon_hits
            .fetch_add(stats.canon_hits, Ordering::Relaxed);
        self.solver_states
            .fetch_add(stats.solver.states_explored, Ordering::Relaxed);
        self.table_hits
            .fetch_add(stats.solver.table_hits, Ordering::Relaxed);
        self.table_misses
            .fetch_add(stats.solver.table_misses, Ordering::Relaxed);
        self.wall_nanos
            .fetch_add(stats.wall.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Number of batches recorded.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// The accumulated counters as a plain [`BatchStats`] (memo-entry and
    /// per-solver fields other than `states_explored` are zero — they are
    /// per-solver facts, and the solvers are gone).
    pub fn snapshot(&self) -> BatchStats {
        BatchStats {
            structures_built: self.structures_built.load(Ordering::Relaxed),
            arith_confirmations: self.arith_confirmations.load(Ordering::Relaxed),
            arith_refutations: self.arith_refutations.load(Ordering::Relaxed),
            fingerprint_refutations: self.fingerprint_refutations.load(Ordering::Relaxed),
            rank2_refutations: self.rank2_refutations.load(Ordering::Relaxed),
            pairs_solved: self.pairs_solved.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            canon_hits: self.canon_hits.load(Ordering::Relaxed),
            memo_entries: 0,
            solver: SolverStats {
                states_explored: self.solver_states.load(Ordering::Relaxed),
                table_hits: self.table_hits.load(Ordering::Relaxed),
                table_misses: self.table_misses.load(Ordering::Relaxed),
                ..SolverStats::default()
            },
            wall: Duration::from_nanos(self.wall_nanos.load(Ordering::Relaxed)),
        }
    }
}

/// Tuning knobs for a [`BatchSolver`].
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// Refute pairs by fingerprint before constructing a solver. Disabling
    /// this never changes verdicts (the filter is sound); it exists for
    /// the ablation benches.
    pub use_fingerprints: bool,
    /// Additionally consult the lazily-memoized rank-2 type profile
    /// (requires `use_fingerprints`). Sound at every rank ≥ 2 and never
    /// changes verdicts, but the O(|U|²) per-word pass only *pays* when
    /// individual games are expensive relative to the window — the unary
    /// scans and fooling searches enable it; small-word window classify
    /// keeps it off because there the games are cheaper than the profile.
    pub use_rank2_profiles: bool,
    /// Universe-size cap for the rank-2 profile pass. The conservative
    /// default [`TYPE2_UNIVERSE_CAP`] protects window classifies, but on
    /// the fooling searches (E08/E09) the games the profile saves are so
    /// expensive that the pass pays far beyond it — those sites raise the
    /// cap to 512.
    pub rank2_universe_cap: usize,
    /// Consult the arithmetic oracle ([`ArithOracle`]) before any
    /// structure or fingerprint exists: unary pairs `aᵖ` vs `a^q` (rank-3
    /// only from an already-warm table) and same-primitive-root pairs are
    /// confirmed *or* refuted in O(1) from semilinear class tables.
    /// Sound by the brute/solver audits (`arith_diff.rs` and the tier's
    /// own debug assertion); disabling it never changes verdicts.
    pub use_arith: bool,
    /// Let the arithmetic tier *build* solver-backed exponent tables for
    /// non-unary primitive roots ([`PeriodicTable`]). Off by default: the
    /// build is itself a classify over `u^0..u^window`, worth paying only
    /// for callers that replay many exponent pairs of one root (`fc game
    /// --fast`, the serve warm paths). Already-built tables are consulted
    /// either way.
    pub arith_periodic: bool,
    /// Threads for the *inner* per-pair solver: `1` = sequential search,
    /// `0` = `equivalent_auto` (one worker per CPU). Grid-level
    /// parallelism is chosen per call site instead (`*_par` methods).
    pub solver_threads: usize,
    /// Slot budget of the transposition table
    /// ([`crate::ttable::TransTable`]) the batch creates at its first
    /// solver run and then feeds from every solver it runs; a batch whose
    /// pairs the cheaper tiers decide allocates none, and one given a
    /// table by [`BatchSolver::share_table`] never creates its own. The
    /// table is bounded (generational eviction), so this is a memory
    /// ceiling, not a growth rate.
    pub table_capacity: usize,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            use_fingerprints: true,
            use_rank2_profiles: false,
            rank2_universe_cap: TYPE2_UNIVERSE_CAP,
            use_arith: true,
            arith_periodic: false,
            solver_threads: 1,
            table_capacity: DEFAULT_TABLE_CAPACITY >> 2,
        }
    }
}

/// A memoizing bulk ≡_k engine over one [`StructureArena`].
pub struct BatchSolver {
    arena: StructureArena,
    config: BatchConfig,
    /// `(min id, max id, k) → verdict`; queries are canonicalised, so the
    /// symmetric half of any grid is free.
    verdicts: HashMap<(WordId, WordId, u32), bool>,
    /// L2 verdict memo keyed by the *canonical* pair ([`crate::canon`]):
    /// letter-renamed and swapped images of a solved pair are free. Exact
    /// (full canonical words in the key), unlike the hashed table below.
    canon_verdicts: HashMap<(Box<[u8]>, u32), bool>,
    /// The transposition table shared by every solver this batch runs
    /// (tier 4: probed at the canonical root before the exact search, fed
    /// by every search). May be shared with an outer engine (`fc serve`);
    /// otherwise created at the first solver run. Until then every root
    /// probe is a miss, exactly what an empty table would answer.
    table: Option<Arc<TransTable>>,
    stats: BatchStats,
}

impl BatchSolver {
    /// A batch solver with the default configuration.
    pub fn new(arena: StructureArena) -> BatchSolver {
        BatchSolver::with_config(arena, BatchConfig::default())
    }

    /// A batch solver with explicit tuning.
    pub fn with_config(arena: StructureArena, config: BatchConfig) -> BatchSolver {
        BatchSolver {
            arena,
            config,
            verdicts: HashMap::new(),
            canon_verdicts: HashMap::new(),
            table: None,
            stats: BatchStats::default(),
        }
    }

    /// Installs an externally shared transposition table (e.g. `fc
    /// serve`'s per-engine table), so verdict states persist beyond this
    /// batch's lifetime. The batch then never creates a table of its own.
    pub fn share_table(&mut self, table: Arc<TransTable>) {
        self.table = Some(table);
    }

    /// The transposition table's own counters (hits, misses, inserts,
    /// evictions, capacity). All zero, `capacity` included, until a table
    /// exists: no solver has run and none was shared.
    pub fn table_stats(&self) -> TransTableStats {
        self.table.as_ref().map(|t| t.stats()).unwrap_or_default()
    }

    /// The batch's table, created with [`BatchConfig::table_capacity`]
    /// slots if none exists yet. Called only where a solver is about to
    /// run.
    fn solver_table(&mut self) -> Arc<TransTable> {
        let capacity = self.config.table_capacity;
        Arc::clone(
            self.table
                .get_or_insert_with(|| Arc::new(TransTable::new(capacity))),
        )
    }

    /// The underlying arena.
    pub fn arena(&self) -> &StructureArena {
        &self.arena
    }

    /// Interns a word into the arena (see [`StructureArena::intern`]).
    pub fn intern(&mut self, word: &Word) -> WordId {
        self.arena.intern(word)
    }

    /// Counters snapshot (memo entry count taken at call time).
    pub fn stats(&self) -> BatchStats {
        let mut s = self.stats;
        s.structures_built = self.arena.structures_built();
        s.memo_entries = self.verdicts.len() as u64;
        s
    }

    /// Decides `w_i ≡_k w_j` through the memo → fingerprint → solver
    /// cascade.
    pub fn equivalent(&mut self, i: WordId, j: WordId, k: u32) -> bool {
        let t0 = Instant::now();
        let verdict = self.verdict(i, j, k);
        self.stats.wall += t0.elapsed();
        verdict
    }

    /// [`BatchSolver::equivalent`] without the wall-clock bookkeeping —
    /// the internal hot path shared by the grid drivers.
    fn verdict(&mut self, i: WordId, j: WordId, k: u32) -> bool {
        if i == j {
            return true; // reflexivity (identical structure on both sides)
        }
        let key = (i.min(j), i.max(j), k);
        if let Some(&v) = self.verdicts.get(&key) {
            self.stats.memo_hits += 1;
            return v;
        }
        if let Some(eq) = self.arith_verdict(i, j, k) {
            if eq {
                self.stats.arith_confirmations += 1;
            } else {
                self.stats.arith_refutations += 1;
            }
            self.verdicts.insert(key, eq);
            return eq;
        }
        if self.config.use_fingerprints {
            let refuted = if self
                .arena
                .fingerprint(i)
                .refutes(self.arena.fingerprint(j), k)
            {
                self.stats.fingerprint_refutations += 1;
                true
            } else if self.config.use_rank2_profiles && k >= 2 {
                let cap = self.config.rank2_universe_cap;
                match (
                    self.arena.rank2_profile(i, cap),
                    self.arena.rank2_profile(j, cap),
                ) {
                    (Some(a), Some(b)) if a != b => {
                        self.stats.rank2_refutations += 1;
                        true
                    }
                    _ => false,
                }
            } else {
                false
            };
            if refuted {
                // Differential path: a refutation by any invariant layer
                // must agree with the exact solver — an unsound invariant
                // is a correctness bug, not a missed optimisation.
                debug_assert!(
                    !EfSolver::new(self.arena.game(i, j)).equivalent(k),
                    "fingerprint unsoundness: {} vs {} wrongly refuted at k={k}",
                    self.arena.word(i),
                    self.arena.word(j),
                );
                self.verdicts.insert(key, false);
                return false;
            }
        }
        // Tier 4: the canonical layers. First the exact canonical memo
        // (letter-renamed / swapped images of an already-decided pair),
        // then a root probe of the shared transposition table under the
        // canonical fingerprint — a hit solves the pair without a game.
        let canon_key = self.canon_key_of(key.0, key.1, k);
        if let Some(ck) = &canon_key {
            if let Some(&v) = self.canon_verdicts.get(ck) {
                self.stats.canon_hits += 1;
                self.verdicts.insert(key, v);
                return v;
            }
        }
        let root_fp = self.root_fp_of(key.0, key.1, k);
        if let Some(fp) = root_fp {
            if let Some(v) = self.table.as_ref().and_then(|t| t.probe_root(fp, k)) {
                self.stats.solver.table_hits += 1;
                // Differential path (the arith-tier discipline): the root
                // entry identifies the canonical pair by a hash tag, so on
                // small instances replay the game and pin any collision.
                #[cfg(debug_assertions)]
                if k <= 2
                    && self.arena.word(key.0).len() <= 48
                    && self.arena.word(key.1).len() <= 48
                {
                    let direct = EfSolver::new(self.arena.game(key.0, key.1)).equivalent(k);
                    assert_eq!(
                        direct,
                        v,
                        "table root verdict diverged: {} vs {} at k={k}",
                        self.arena.word(key.0),
                        self.arena.word(key.1),
                    );
                }
                if let Some(ck) = canon_key {
                    self.canon_verdicts.insert(ck, v);
                }
                self.verdicts.insert(key, v);
                return v;
            }
            self.stats.solver.table_misses += 1;
        }
        let table = self.solver_table();
        let mut solver =
            EfSolver::new(self.arena.game(key.0, key.1)).with_table(Arc::clone(&table));
        let verdict = match self.config.solver_threads {
            0 => solver.equivalent_auto(k),
            1 => solver.equivalent(k),
            t => solver.equivalent_par(k, t),
        };
        self.stats.pairs_solved += 1;
        self.stats.solver.absorb(&solver.stats());
        self.stats.solver.wall += solver.stats().wall;
        if let Some(fp) = root_fp {
            table.insert_root(fp, k, verdict);
        }
        if let Some(ck) = canon_key {
            self.canon_verdicts.insert(ck, verdict);
        }
        self.verdicts.insert(key, verdict);
        verdict
    }

    /// The canonical memo key of a pair at rank `k` (`None` above the
    /// canonicalizer's alphabet cap — the pair simply loses L2 sharing).
    fn canon_key_of(&self, i: WordId, j: WordId, k: u32) -> Option<(Box<[u8]>, u32)> {
        canon::canonical_key(self.arena.word(i).bytes(), self.arena.word(j).bytes())
            .map(|ck| (ck, k))
    }

    /// The canonical root fingerprint of a pair for transposition-table
    /// root entries.
    fn root_fp_of(&self, i: WordId, j: WordId, k: u32) -> Option<u64> {
        canon::root_fingerprint(self.arena.word(i).bytes(), self.arena.word(j).bytes(), k)
    }

    /// Partitions the positions of `items` into ≡_k classes. Classes are
    /// ordered by first member; members keep input order (the exact output
    /// contract of the naive representative loop it replaces). Duplicate
    /// ids are free; cross-fingerprint pairs never reach the solver.
    pub fn classify(&mut self, items: &[WordId], k: u32) -> Vec<Vec<usize>> {
        let t0 = Instant::now();
        let mut dsu = Dsu::new(items.len());
        let mut reps: Vec<usize> = Vec::new();
        'next: for pos in 0..items.len() {
            for rep in reps.iter().copied() {
                if self.verdict(items[rep], items[pos], k) {
                    dsu.union(rep, pos);
                    continue 'next;
                }
            }
            reps.push(pos);
        }
        let out = dsu.classes_by_first_member();
        self.stats.wall += t0.elapsed();
        out
    }

    /// [`BatchSolver::classify`] with the solver calls of each candidate's
    /// representative scan fanned out over `threads` workers. Output is
    /// byte-identical to the sequential partition: the wave only *solves*
    /// the missing (candidate, representative) verdicts in parallel, and
    /// at most one representative can match (reps are pairwise
    /// inequivalent, ≡_k is transitive), so the sequential merge that
    /// follows is deterministic.
    pub fn classify_par(&mut self, items: &[WordId], k: u32, threads: usize) -> Vec<Vec<usize>> {
        let t0 = Instant::now();
        let threads = threads.max(1);
        let mut dsu = Dsu::new(items.len());
        let mut reps: Vec<usize> = Vec::new();
        'next: for pos in 0..items.len() {
            // Pre-solve this candidate's unresolved rep comparisons in
            // parallel; memo and fingerprints keep the job list short.
            let jobs: Vec<(WordId, WordId)> = reps
                .iter()
                .map(|&rep| (items[rep], items[pos]))
                .filter(|&(a, b)| self.needs_solver(a, b, k))
                .collect();
            self.solve_jobs_parallel(&jobs, k, threads);
            for rep in reps.iter().copied() {
                if self.verdict(items[rep], items[pos], k) {
                    dsu.union(rep, pos);
                    continue 'next;
                }
            }
            reps.push(pos);
        }
        let out = dsu.classes_by_first_member();
        self.stats.wall += t0.elapsed();
        out
    }

    /// The full verdict matrix over the positions of `items`: only the
    /// upper triangle is solved, the diagonal is reflexivity, the lower
    /// half is mirrored.
    pub fn all_pairs(&mut self, items: &[WordId], k: u32) -> Vec<Vec<bool>> {
        let t0 = Instant::now();
        let out = self.fill_matrix(items, k);
        self.stats.wall += t0.elapsed();
        out
    }

    /// [`BatchSolver::all_pairs`] with the unresolved upper-triangle pairs
    /// solved by a work-stealing worker pool (same verdicts, same matrix).
    pub fn all_pairs_par(&mut self, items: &[WordId], k: u32, threads: usize) -> Vec<Vec<bool>> {
        let t0 = Instant::now();
        let mut jobs: Vec<(WordId, WordId)> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for (p, &a) in items.iter().enumerate() {
            for &b in items.iter().skip(p + 1) {
                let key = (a.min(b), a.max(b));
                if self.needs_solver(a, b, k) && seen.insert(key) {
                    jobs.push(key);
                }
            }
        }
        self.solve_jobs_parallel(&jobs, k, threads.max(1));
        let out = self.fill_matrix(items, k);
        self.stats.wall += t0.elapsed();
        out
    }

    fn fill_matrix(&mut self, items: &[WordId], k: u32) -> Vec<Vec<bool>> {
        let n = items.len();
        let mut eq = vec![vec![false; n]; n];
        for i in 0..n {
            eq[i][i] = true;
            for j in i + 1..n {
                let v = self.verdict(items[i], items[j], k);
                eq[i][j] = v;
                eq[j][i] = v;
            }
        }
        eq
    }

    /// The first pair (in the given order) that *is* ≡_k, as an index into
    /// `pairs` — the shape of the E03 minimal-pair scan and the fooling
    /// searches, where the scan order is the result's definition.
    pub fn find_first_equivalent(&mut self, pairs: &[(WordId, WordId)], k: u32) -> Option<usize> {
        let t0 = Instant::now();
        let hit = (0..pairs.len()).find(|&idx| self.verdict(pairs[idx].0, pairs[idx].1, k));
        self.stats.wall += t0.elapsed();
        hit
    }

    /// The first pair (in the given order) that is *not* ≡_k.
    pub fn find_first_inequivalent(&mut self, pairs: &[(WordId, WordId)], k: u32) -> Option<usize> {
        let t0 = Instant::now();
        let hit = (0..pairs.len()).find(|&idx| !self.verdict(pairs[idx].0, pairs[idx].1, k));
        self.stats.wall += t0.elapsed();
        hit
    }

    /// The arithmetic tier: O(1) verdicts for unary and same-primitive-root
    /// pairs from the process-wide [`ArithOracle`] class tables, before
    /// any structure or fingerprint exists. `None` when the pair is not
    /// eligible (distinct primitive roots) or the oracle declines (rank
    /// above its tables; periodic route disabled or outside its window).
    ///
    /// Rank-3 unary verdicts are served only from an *already-warm* table
    /// ([`ArithOracle::unary_table_ready`]) — a bulk query must not hide
    /// the multi-second rank-3 build behind one pair.
    fn arith_verdict(&self, i: WordId, j: WordId, k: u32) -> Option<bool> {
        if !self.config.use_arith {
            return None;
        }
        // Eligibility pre-filter on the interned roots: different
        // primitive roots (with neither side ε) can never reach a table.
        let (ri, _) = self.arena.primitive_power(i);
        let (rj, _) = self.arena.primitive_power(j);
        let (wi, wj) = (self.arena.word(i), self.arena.word(j));
        if ri != rj && !wi.bytes().is_empty() && !wj.bytes().is_empty() {
            return None;
        }
        let periodic = self.config.arith_periodic;
        let max_len = wi.bytes().len().max(wj.bytes().len());
        let verdict =
            ArithOracle::global().verdict_words(wi.bytes(), wj.bytes(), k, false, |root| {
                if !periodic {
                    return None;
                }
                // Window past both queried exponents, with tail margin.
                let window = (max_len / root.bytes().len()) as u64 + 8;
                periodic_table_builder(k, root, window.max(16))
            })?;
        let eq = verdict.equivalent;
        // Differential path: on instances small enough for the exact
        // solver, an arithmetic verdict must agree with it — disagreement
        // is a correctness bug, not a missed optimisation. (Direct
        // GamePair construction, not `arena.game`, so debug builds keep
        // the arena's laziness observable.)
        #[cfg(debug_assertions)]
        if k <= 2 && wi.bytes().len() <= 48 && wj.bytes().len() <= 48 {
            let direct =
                EfSolver::new(GamePair::new(wi.clone(), wj.clone(), self.arena.alphabet()))
                    .equivalent(k);
            assert_eq!(
                direct, eq,
                "arith tier unsoundness: {wi} vs {wj} at k={k} (route {:?})",
                verdict.route
            );
        }
        Some(eq)
    }

    /// `true` iff the verdict for (a, b) at rank k is not already decided
    /// by identity, memo, the arithmetic tier, or fingerprint.
    fn needs_solver(&self, a: WordId, b: WordId, k: u32) -> bool {
        if a == b {
            return false;
        }
        let key = (a.min(b), a.max(b), k);
        if self.verdicts.contains_key(&key) {
            return false;
        }
        if let Some(ck) = self.canon_key_of(key.0, key.1, k) {
            if self.canon_verdicts.contains_key(&ck) {
                return false;
            }
        }
        if self.arith_verdict(a, b, k).is_some() {
            return false;
        }
        if !self.config.use_fingerprints {
            return true;
        }
        if self
            .arena
            .fingerprint(a)
            .refutes(self.arena.fingerprint(b), k)
        {
            return false;
        }
        if self.config.use_rank2_profiles && k >= 2 {
            let cap = self.config.rank2_universe_cap;
            if let (Some(pa), Some(pb)) = (
                self.arena.rank2_profile(a, cap),
                self.arena.rank2_profile(b, cap),
            ) {
                return pa == pb;
            }
        }
        true
    }

    /// Solves the given canonical, deduplicated jobs on a work-stealing
    /// worker pool and merges the verdicts into the memo. Workers pop
    /// fixed-size chunks off a shared atomic cursor; each worker owns one
    /// [`EfSolver`] that is [`EfSolver::rebind`]-reused across its pairs,
    /// so memo-table allocations amortize within a worker.
    fn solve_jobs_parallel(&mut self, jobs: &[(WordId, WordId)], k: u32, threads: usize) {
        if jobs.is_empty() {
            return;
        }
        let threads = threads.min(jobs.len());
        if threads <= 1 {
            for &(a, b) in jobs {
                let _ = self.verdict(a, b, k);
            }
            return;
        }
        const CHUNK: usize = 4;
        let table = &self.solver_table();
        let arena = &self.arena;
        let solver_threads = self.config.solver_threads;
        let cursor = AtomicUsize::new(0);
        let mut merged: Vec<(usize, bool)> = Vec::with_capacity(jobs.len());
        let mut solver_stats = SolverStats::default();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let cursor = &cursor;
                    scope.spawn(move || {
                        let mut out: Vec<(usize, bool)> = Vec::new();
                        let mut worker: Option<EfSolver> = None;
                        loop {
                            let start = cursor.fetch_add(CHUNK, Ordering::Relaxed);
                            if start >= jobs.len() {
                                break;
                            }
                            let end = (start + CHUNK).min(jobs.len());
                            for (off, &(a, b)) in jobs[start..end].iter().enumerate() {
                                let game = arena.game(a, b);
                                let solver = match worker.as_mut() {
                                    Some(s) => {
                                        s.rebind(game);
                                        s
                                    }
                                    None => worker
                                        .insert(EfSolver::new(game).with_table(Arc::clone(table))),
                                };
                                let verdict = match solver_threads {
                                    0 | 1 => solver.equivalent(k),
                                    t => solver.equivalent_par(k, t),
                                };
                                out.push((start + off, verdict));
                            }
                        }
                        (out, worker.map(|s| s.stats()).unwrap_or_default())
                    })
                })
                .collect();
            for handle in handles {
                let (out, stats) = handle.join().expect("batch worker panicked");
                merged.extend(out);
                solver_stats.absorb(&stats);
                solver_stats.wall += stats.wall;
            }
        });
        for (idx, verdict) in merged {
            let (a, b) = jobs[idx];
            let (lo, hi) = (a.min(b), a.max(b));
            self.verdicts.insert((lo, hi, k), verdict);
            if let Some(ck) = self.canon_key_of(lo, hi, k) {
                self.canon_verdicts.insert(ck, verdict);
            }
            if let Some(fp) = self.root_fp_of(lo, hi, k) {
                table.insert_root(fp, k, verdict);
            }
            self.stats.pairs_solved += 1;
        }
        self.stats.solver.absorb(&solver_stats);
        self.stats.solver.wall += solver_stats.wall;
    }
}

/// Classifies `root⁰..root^window` with the exact batch solver (one shared
/// arena, arithmetic tier off — the build must not re-enter the oracle it
/// is building for) and fits the tail: the solver-backed builder behind
/// [`ArithOracle::periodic_table`]. Every in-window verdict the resulting
/// [`PeriodicTable`] serves is a cached exact-solver verdict, so the table
/// is unconditionally sound; the fitted tail is display-only.
pub fn periodic_table_builder(k: u32, root: &Word, window: u64) -> Option<PeriodicTable> {
    if root.bytes().is_empty() {
        return None;
    }
    let words: Vec<Word> = (0..=window).map(|e| root.pow(e as usize)).collect();
    let (arena, ids) = StructureArena::for_words(&words);
    let mut batch = BatchSolver::with_config(
        arena,
        BatchConfig {
            use_rank2_profiles: true,
            use_arith: false,
            ..BatchConfig::default()
        },
    );
    let classes = batch.classify(&ids, k);
    let mut class_of = vec![0u32; ids.len()];
    for (ci, members) in classes.iter().enumerate() {
        for &pos in members {
            class_of[pos] = ci as u32;
        }
    }
    let as_hashes: Vec<u128> = class_of.iter().map(|&c| c as u128).collect();
    Some(PeriodicTable {
        k,
        root: root.clone(),
        window,
        class_of,
        tail: fit_tail(&as_hashes),
    })
}

/// Minimal union-find over `0..n` with path halving; classes are read back
/// in first-member order so the partition matches the representative loop
/// it replaces.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Dsu {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merges keeping the smaller root (so roots stay first members).
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            let (lo, hi) = (ra.min(rb), ra.max(rb));
            self.parent[hi] = lo;
        }
    }

    /// The partition as position lists: classes ordered by their first
    /// member, members ascending (== input order).
    fn classes_by_first_member(&mut self) -> Vec<Vec<usize>> {
        let n = self.parent.len();
        let mut by_root: HashMap<usize, usize> = HashMap::new();
        let mut classes: Vec<Vec<usize>> = Vec::new();
        for pos in 0..n {
            let root = self.find(pos);
            let slot = *by_root.entry(root).or_insert_with(|| {
                classes.push(Vec::new());
                classes.len() - 1
            });
            classes[slot].push(pos);
        }
        classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(max_len: usize) -> Vec<Word> {
        Alphabet::ab().words_up_to(max_len).collect()
    }

    #[test]
    fn arena_interns_each_word_once_and_builds_lazily() {
        let words = vec![Word::from("ab"), Word::from("ba"), Word::from("ab")];
        let (arena, ids) = StructureArena::for_words(&words);
        assert_eq!(arena.len(), 2);
        assert_eq!(ids, vec![0, 1, 0]);
        assert_eq!(arena.word(0).as_str(), "ab");
        // Interning alone builds nothing; first touches build each once.
        assert_eq!(arena.structures_built(), 0);
        let first = Arc::as_ptr(arena.structure(0));
        let _ = arena.fingerprint(0);
        let _ = arena.fingerprint(1);
        assert_eq!(
            Arc::as_ptr(arena.structure(0)),
            first,
            "shared, not rebuilt"
        );
        assert_eq!(arena.structures_built(), 2);
    }

    #[test]
    fn arena_precomputes_primitive_powers() {
        let words = vec![Word::from("abab"), Word::from("aaa"), Word::from("")];
        let (arena, ids) = StructureArena::for_words(&words);
        assert_eq!(arena.primitive_power(ids[0]), (&Word::from("ab"), 2));
        assert_eq!(arena.primitive_power(ids[1]), (&Word::from("a"), 3));
        assert_eq!(arena.primitive_power(ids[2]).1, 0);
        assert_eq!(arena.structures_built(), 0);
    }

    #[test]
    fn arena_game_matches_direct_construction() {
        let words = vec![Word::from("abaab"), Word::from("aab")];
        let (arena, ids) = StructureArena::for_words(&words);
        let g = arena.game(ids[0], ids[1]);
        let direct = GamePair::new(words[0].clone(), words[1].clone(), arena.alphabet());
        assert_eq!(g.constant_pairs, direct.constant_pairs);
        for k in 0..=2 {
            assert_eq!(
                EfSolver::new(g.clone()).equivalent(k),
                EfSolver::new(direct.clone()).equivalent(k)
            );
        }
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn arena_rejects_foreign_symbols() {
        let mut arena = StructureArena::new(Alphabet::ab());
        arena.intern(&Word::from("abc"));
    }

    #[test]
    fn batch_verdicts_match_per_pair_solver() {
        let words = window(3);
        let (arena, ids) = StructureArena::for_words(&words);
        let sigma = arena.alphabet().clone();
        let mut batch = BatchSolver::new(arena);
        for (p, w) in words.iter().enumerate() {
            for (q, v) in words.iter().enumerate() {
                for k in 0..=2u32 {
                    let direct =
                        EfSolver::new(GamePair::new(w.clone(), v.clone(), &sigma)).equivalent(k);
                    assert_eq!(
                        batch.equivalent(ids[p], ids[q], k),
                        direct,
                        "w={w} v={v} k={k}"
                    );
                }
            }
        }
        let stats = batch.stats();
        assert!(stats.fingerprint_refutations > 0, "filter should fire");
        assert!(stats.memo_hits > 0, "symmetric half should be free");
        assert!(stats.pairs_solved > 0);
        assert!(
            stats.arith_confirmations + stats.arith_refutations > 0,
            "the window's unary pairs should be decided arithmetically"
        );
        assert!(stats.structures_built <= words.len() as u64);
    }

    #[test]
    fn classify_matches_representative_loop_semantics() {
        let words = vec![
            Word::from("a"),
            Word::from("aa"),
            Word::from("b"),
            Word::from("ab"),
            Word::from("ba"),
        ];
        let (arena, ids) = StructureArena::for_words(&words);
        let mut batch = BatchSolver::new(arena);
        // Rank 0 groups by occurring-letter set: {a, aa}, {b}, {ab, ba}.
        let classes = batch.classify(&ids, 0);
        assert_eq!(classes, vec![vec![0, 1], vec![2], vec![3, 4]]);
    }

    #[test]
    fn classify_par_equals_sequential() {
        let words = window(3);
        for k in 0..=2u32 {
            let (arena, ids) = StructureArena::for_words(&words);
            let mut seq = BatchSolver::new(arena);
            let expect = seq.classify(&ids, k);
            for threads in [1usize, 2, 3, 7] {
                let (arena, ids) = StructureArena::for_words(&words);
                let mut par = BatchSolver::new(arena);
                assert_eq!(
                    par.classify_par(&ids, k, threads),
                    expect,
                    "k={k} t={threads}"
                );
            }
        }
    }

    #[test]
    fn all_pairs_par_equals_sequential_and_is_symmetric() {
        let words = window(3);
        let (arena, ids) = StructureArena::for_words(&words);
        let mut seq = BatchSolver::new(arena);
        let expect = seq.all_pairs(&ids, 1);
        for (i, row) in expect.iter().enumerate() {
            assert!(row[i], "diagonal");
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(v, expect[j][i], "symmetry");
            }
        }
        for threads in [2usize, 5] {
            let (arena, ids) = StructureArena::for_words(&words);
            let mut par = BatchSolver::new(arena);
            assert_eq!(par.all_pairs_par(&ids, 1, threads), expect);
        }
    }

    #[test]
    fn fingerprint_ablation_is_verdict_invariant() {
        let words = window(3);
        let (arena, ids) = StructureArena::for_words(&words);
        let mut with_fp = BatchSolver::new(arena);
        let (arena2, ids2) = StructureArena::for_words(&words);
        let mut without_fp = BatchSolver::with_config(
            arena2,
            BatchConfig {
                use_fingerprints: false,
                use_rank2_profiles: false,
                use_arith: false,
                ..BatchConfig::default()
            },
        );
        for k in 0..=2u32 {
            assert_eq!(with_fp.classify(&ids, k), without_fp.classify(&ids2, k));
        }
        assert_eq!(without_fp.stats().fingerprint_refutations, 0);
        assert!(with_fp.stats().fingerprint_refutations > 0);
        assert!(with_fp.stats().pairs_solved < without_fp.stats().pairs_solved);
    }

    #[test]
    fn find_first_scans_respect_order() {
        let words: Vec<Word> = (0..=6).map(|n| Word::from("a").pow(n)).collect();
        let (arena, ids) = StructureArena::for_words(&words);
        let mut batch = BatchSolver::new(arena);
        // (p, q) pairs ordered by (q, p), exponents ≥ 1 — the E03 scan.
        let mut pairs = Vec::new();
        let mut exps = Vec::new();
        for q in 1..=6usize {
            for p in 1..q {
                pairs.push((ids[p], ids[q]));
                exps.push((p, q));
            }
        }
        let hit = batch.find_first_equivalent(&pairs, 1).expect("rank-1 pair");
        assert_eq!(exps[hit], (3, 4), "minimal rank-1 unary pair");
        // And the first inequivalent pair is the very first probed.
        assert_eq!(batch.find_first_inequivalent(&pairs, 1), Some(0));
    }

    #[test]
    fn arith_tier_decides_unary_batches_without_structures() {
        // A purely unary batch is decided entirely by the semilinear
        // class tables: zero structures, zero solver runs.
        let words: Vec<Word> = (0..=20).map(|n| Word::from("a").pow(n)).collect();
        let (arena, ids) = StructureArena::for_words(&words);
        let mut batch = BatchSolver::new(arena);
        for k in 0..=2u32 {
            let classes = batch.classify(&ids, k);
            let table = crate::arith::unary_class_table(k, crate::arith::default_window(k))
                .expect("unary table");
            // Class partition must match the table's (first-member order).
            let mut expect: Vec<Vec<usize>> = Vec::new();
            let mut rep_class: Vec<u32> = Vec::new();
            for n in 0..=20u64 {
                let c = table.class_index(n);
                match rep_class.iter().position(|&r| r == c) {
                    Some(slot) => expect[slot].push(n as usize),
                    None => {
                        rep_class.push(c);
                        expect.push(vec![n as usize]);
                    }
                }
            }
            assert_eq!(classes, expect, "k={k}");
        }
        let stats = batch.stats();
        assert_eq!(stats.structures_built, 0, "no structure should be built");
        assert_eq!(stats.pairs_solved, 0, "no game should be played");
        assert!(stats.arith_confirmations > 0 && stats.arith_refutations > 0);
    }

    #[test]
    fn arith_ablation_is_verdict_invariant() {
        // Mixed window: unary, periodic, and aperiodic words. Turning the
        // arithmetic tier off must not change a single verdict.
        let words = window(3);
        for k in 0..=2u32 {
            let (arena, ids) = StructureArena::for_words(&words);
            let mut with_arith = BatchSolver::new(arena);
            let (arena2, ids2) = StructureArena::for_words(&words);
            let mut without_arith = BatchSolver::with_config(
                arena2,
                BatchConfig {
                    use_arith: false,
                    ..BatchConfig::default()
                },
            );
            assert_eq!(
                with_arith.all_pairs(&ids, k),
                without_arith.all_pairs(&ids2, k),
                "k={k}"
            );
        }
    }

    #[test]
    fn periodic_builder_matches_solver_and_fits_tail() {
        let root = Word::from("ab");
        let table = periodic_table_builder(1, &root, 16).expect("builder");
        for p in 0..=16u64 {
            for q in 0..=16u64 {
                let direct = EfSolver::new(GamePair::of(
                    root.pow(p as usize).as_str(),
                    root.pow(q as usize).as_str(),
                ))
                .equivalent(1);
                assert_eq!(table.verdict(p, q), Some(direct), "p={p} q={q}");
            }
        }
        assert_eq!(table.verdict(3, 17), None, "outside the window: decline");
        assert!(table.tail.is_some(), "(ab)^n classes stabilise quickly");
    }

    #[test]
    fn arith_periodic_route_confirms_same_root_pairs() {
        let words = vec![Word::from("abababab"), Word::from("ababababab")];
        let (arena, ids) = StructureArena::for_words(&words);
        let mut batch = BatchSolver::with_config(
            arena,
            BatchConfig {
                arith_periodic: true,
                ..BatchConfig::default()
            },
        );
        let verdict = batch.equivalent(ids[0], ids[1], 1);
        let direct = EfSolver::new(GamePair::of("abababab", "ababababab")).equivalent(1);
        assert_eq!(verdict, direct);
        let stats = batch.stats();
        assert_eq!(stats.arith_confirmations + stats.arith_refutations, 1);
        assert_eq!(stats.structures_built, 0, "decided without structures");
    }

    #[test]
    fn canonical_tier_collapses_renamed_and_swapped_pairs() {
        // (aabb, abab), (bbaa, baba) [letter swap], (abab, aabb) [argument
        // swap] share one canonical pair: after the first is solved, the
        // others are canon-memo hits — no extra game, no extra structure
        // beyond the words themselves.
        let words = vec![
            Word::from("aabb"),
            Word::from("abab"),
            Word::from("bbaa"),
            Word::from("baba"),
        ];
        let (arena, ids) = StructureArena::for_words(&words);
        let sigma = arena.alphabet().clone();
        // Fingerprints off so the (inequivalent) pairs actually reach the
        // canonical tier instead of being refuted upstream — the tier must
        // collapse refutations just as well as confirmations.
        let mut batch = BatchSolver::with_config(
            arena,
            BatchConfig {
                use_fingerprints: false,
                use_arith: false,
                ..BatchConfig::default()
            },
        );
        let first = batch.equivalent(ids[0], ids[1], 2);
        let solved_after_first = batch.stats().pairs_solved;
        let renamed = batch.equivalent(ids[2], ids[3], 2);
        let swapped = batch.equivalent(ids[1], ids[0], 2);
        assert_eq!(first, renamed);
        assert_eq!(first, swapped);
        let stats = batch.stats();
        assert_eq!(
            stats.pairs_solved, solved_after_first,
            "renamed/swapped pairs must not reach the solver"
        );
        assert!(stats.canon_hits >= 1, "canonical memo should fire");
        // And the collapsed verdicts are the true ones.
        let direct =
            EfSolver::new(GamePair::new(words[2].clone(), words[3].clone(), &sigma)).equivalent(2);
        assert_eq!(renamed, direct);
    }

    #[test]
    fn shared_table_persists_across_batches() {
        // An engine-owned table outlives one batch: a second batch over
        // the same pair starts with the root verdict already present.
        let table = Arc::new(TransTable::new(1 << 12));
        let words = vec![Word::from("aabb"), Word::from("abab")];
        let config = BatchConfig {
            use_fingerprints: false,
            use_arith: false,
            ..BatchConfig::default()
        };
        let (arena, ids) = StructureArena::for_words(&words);
        let mut first = BatchSolver::with_config(arena, config);
        first.share_table(Arc::clone(&table));
        assert_eq!(first.table_stats().capacity, table.capacity() as u64);
        let v1 = first.equivalent(ids[0], ids[1], 2);
        assert_eq!(first.stats().pairs_solved, 1);
        let (arena2, ids2) = StructureArena::for_words(&words);
        let mut second = BatchSolver::with_config(arena2, config);
        second.share_table(Arc::clone(&table));
        let v2 = second.equivalent(ids2[0], ids2[1], 2);
        assert_eq!(v1, v2);
        assert_eq!(
            second.stats().pairs_solved,
            0,
            "the shared table's root entry must decide the repeat pair"
        );
        assert!(second.stats().solver.table_hits >= 1);
        // Both batches read and fed the shared table, never a private one.
        assert_eq!(second.table_stats(), table.stats());
        assert!(table.stats().inserts >= 1);
    }

    #[test]
    fn cheap_tiers_alone_allocate_no_table() {
        // Every pair of this set is decided by the arith, fingerprint or
        // memo tiers, so no solver runs and no table is ever created.
        let words: Vec<Word> = window(3).into_iter().take(11).collect();
        let (arena, ids) = StructureArena::for_words(&words);
        let mut batch = BatchSolver::new(arena);
        let classes: Vec<Vec<Word>> = batch
            .classify(&ids, 2)
            .iter()
            .map(|c| c.iter().map(|&i| words[i].clone()).collect())
            .collect();
        assert_eq!(classes, crate::hintikka::classes_naive(&words, 2));
        assert_eq!(batch.stats().pairs_solved, 0);
        assert_eq!(batch.table_stats(), TransTableStats::default());
    }

    #[test]
    fn first_solver_run_allocates_the_configured_table() {
        let config = BatchConfig {
            use_fingerprints: false,
            use_arith: false,
            table_capacity: 5000,
            ..BatchConfig::default()
        };
        let (arena, ids) = StructureArena::for_words(&[Word::from("aabb"), Word::from("abab")]);
        let mut batch = BatchSolver::with_config(arena, config);
        assert_eq!(batch.table_stats().capacity, 0);
        batch.equivalent(ids[0], ids[1], 2);
        assert_eq!(batch.stats().pairs_solved, 1);
        assert_eq!(
            batch.table_stats().capacity,
            TransTable::new(5000).capacity() as u64,
            "capacity rounds exactly as TransTable::new rounds"
        );
        assert!(batch.table_stats().inserts >= 1);
    }

    #[test]
    fn alphabet_padding_is_verdict_invariant() {
        // Σ padded with letters absent from *both* words must not change
        // any verdict — this is what lets one arena serve a whole window.
        let words = window(3);
        let padded = Alphabet::abc(); // 'c' occurs in no window word
        for w in &words {
            for v in &words {
                for k in 0..=2u32 {
                    let joint = EfSolver::new(GamePair::of(w.as_str(), v.as_str())).equivalent(k);
                    let wide =
                        EfSolver::new(GamePair::new(w.clone(), v.clone(), &padded)).equivalent(k);
                    assert_eq!(joint, wide, "w={w} v={v} k={k}");
                }
            }
        }
    }
}
