//! The succinct backend: a suffix automaton replaces the Θ(m²) tables.
//!
//! For a word `w` of length `n` with `m` distinct factors (m can be
//! Θ(n²)), the dense backend stores every factor's bytes plus an m×m
//! concat table — hopeless beyond |w| ≈ 10². This backend stores only the
//! suffix automaton of `w` (≤ 2n−1 states, ≤ 3n−4 transitions, Blumer et
//! al.) plus O(1) words of packed metadata per *state*, never per factor:
//!
//! - **Ids without a table.** The strings of a state `s` are the suffixes
//!   of its longest string with lengths in `(len(link(s)), len(s)]` —
//!   exactly `len(s) − len(link(s))` of them, all sharing the end-position
//!   set `endpos(s)`. Prefix-summing those counts (in state-creation
//!   order, root first) gives each state a contiguous id range
//!   `[base(s), base(s+1))`; the factor of length `ℓ` in class `s` gets id
//!   `base(s) + ℓ − minlen(s)`. Id → state is a binary search over the
//!   monotone `base` array; ε is the root's single string, so `id(ε) = 0`
//!   as the facade requires.
//! - **Bytes without storage.** `min_end(s)` — the smallest position in
//!   `endpos(s)`, computed by propagating creation positions up the
//!   suffix-link tree — locates one occurrence, so the bytes of a factor
//!   are the borrowed slice `w[min_end − ℓ .. min_end]`.
//! - **`id_of` by traversal.** Reading `u` from the root lands exactly in
//!   `u`'s class (or falls off iff `u` is not a factor): O(|u|) with no
//!   hashing and no allocation.
//! - **Concat on demand.** `concat_id(b, c)` binary-searches `b`'s state
//!   and extends it by the bytes of `c`; the walk lands in the class of
//!   `b·c` iff `b·c ⊑ w`. Results are memoized in a small sharded cache
//!   ([`ConcatMemo`]) so solver-style repeated probes amortize to O(1).
//! - **Prefix/suffix from endpos.** `u ⊑ w` is a prefix iff
//!   `min_end(u) = |u|` (an occurrence ending at `|u|` *is* the prefix
//!   occurrence), and a suffix iff `n ∈ endpos(u)`, i.e. iff `u`'s state
//!   lies on the suffix-link chain of the last state — a precomputed bit
//!   per state.
//!
//! All per-state arrays are bit-packed ([`super::packed::PackedVec`]) at
//! the minimal width for the word, giving the bytes-per-factor figures
//! tabulated in `docs/STRUCTURE.md`.

use super::packed::PackedVec;
use super::{BackendKind, FactorBackend, FactorId};
use fc_words::Word;
use std::collections::HashMap;
use std::sync::Mutex;

/// Shard count of the concat memo (a power of two).
const MEMO_SHARDS: usize = 16;
/// Per-shard entry cap; at 16 shards this bounds the memo at ~64k entries
/// (≈ 1 MiB), independent of the word length.
const MEMO_SHARD_CAP: usize = 1 << 12;

/// A small bounded memo for `concat_id` walks, sharded so concurrent
/// solver workers (the structure is `Arc`-shared) do not serialize on one
/// lock. Eviction is generational: a shard that reaches its cap is
/// cleared wholesale — an O(1)-amortized stand-in for LRU that keeps the
/// hot working set because it is immediately re-inserted.
struct ConcatMemo {
    shards: Vec<Mutex<HashMap<u64, u32>>>,
}

impl ConcatMemo {
    fn new() -> ConcatMemo {
        ConcatMemo {
            shards: (0..MEMO_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    #[inline]
    fn shard(key: u64) -> usize {
        // Fibonacci hashing spreads the (b, c) id pairs across shards.
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 60) as usize & (MEMO_SHARDS - 1)
    }

    #[inline]
    fn get(&self, key: u64) -> Option<u32> {
        self.shards[Self::shard(key)]
            .lock()
            .unwrap()
            .get(&key)
            .copied()
    }

    fn put(&self, key: u64, value: u32) {
        let mut shard = self.shards[Self::shard(key)].lock().unwrap();
        if shard.len() >= MEMO_SHARD_CAP {
            shard.clear();
        }
        shard.insert(key, value);
    }
}

impl std::fmt::Debug for ConcatMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let entries: usize = self.shards.iter().map(|s| s.lock().unwrap().len()).sum();
        write!(f, "ConcatMemo({entries} entries)")
    }
}

/// Clones start with an empty memo: the cache is a performance artifact,
/// not part of the represented structure.
impl Clone for ConcatMemo {
    fn clone(&self) -> ConcatMemo {
        ConcatMemo::new()
    }
}

/// Mutable suffix-automaton state used only during construction; frozen
/// into the packed arrays afterwards.
struct BuildState {
    len: u32,
    link: i32,
    /// End position of the creation occurrence for primary states
    /// (`u32::MAX` for clones): the seed of the `min_end` propagation.
    first_end: u32,
    next: Vec<(u8, u32)>,
}

/// The succinct backend: O(n) states, factors addressed by id arithmetic.
#[derive(Clone, Debug)]
pub struct SuccinctBackend {
    word: Word,
    /// |Facs(w)| — the universe size (excluding ⊥).
    total: u64,
    /// Per state: length of the longest string in the class.
    len: PackedVec,
    /// Per state: suffix link, stored +1 so the root's "none" is 0.
    link: PackedVec,
    /// Per state: min(endpos) — locates one occurrence of every class
    /// string and decides prefix-hood.
    min_end: PackedVec,
    /// Per state: first id of the class's contiguous id range (monotone in
    /// state index, because states are numbered in creation order and
    /// every class is non-empty).
    base: PackedVec,
    /// Bit per state: `true` iff the state lies on the suffix-link chain
    /// of the last state, i.e. iff its strings are suffixes of `w`.
    suffix: Vec<u64>,
    /// CSR transitions: state `s` owns `trans_sym/trans_dst` entries
    /// `[trans_start(s), trans_start(s+1))`. Rows are scanned linearly —
    /// alphabets here are tiny.
    trans_start: PackedVec,
    trans_sym: Vec<u8>,
    trans_dst: PackedVec,
    memo: ConcatMemo,
}

impl SuccinctBackend {
    /// Builds the automaton and freezes it into packed arrays. O(n·|Σ|).
    ///
    /// # Panics
    /// Panics if `w` has ≥ 2³² − 1 distinct factors (the `FactorId` space;
    /// reached only by high-entropy words of length ≳ 10⁵).
    pub fn build(word: Word) -> SuccinctBackend {
        let w = word.bytes();
        let mut st: Vec<BuildState> = Vec::with_capacity(2 * w.len() + 1);
        st.push(BuildState {
            len: 0,
            link: -1,
            first_end: 0, // ε occurs ending at position 0
            next: Vec::new(),
        });
        let mut last = 0usize;
        for (pos, &ch) in w.iter().enumerate() {
            let cur = st.len();
            st.push(BuildState {
                len: st[last].len + 1,
                link: -1,
                first_end: (pos + 1) as u32,
                next: Vec::new(),
            });
            let mut p = last as i32;
            loop {
                if p < 0 {
                    st[cur].link = 0;
                    break;
                }
                let pu = p as usize;
                if let Some(&(_, q)) = st[pu].next.iter().find(|&&(c, _)| c == ch) {
                    let q = q as usize;
                    if st[q].len == st[pu].len + 1 {
                        st[cur].link = q as i32;
                    } else {
                        // Split: clone q at length len(p)+1.
                        let clone = st.len();
                        st.push(BuildState {
                            len: st[pu].len + 1,
                            link: st[q].link,
                            first_end: u32::MAX,
                            next: st[q].next.clone(),
                        });
                        st[q].link = clone as i32;
                        st[cur].link = clone as i32;
                        let mut r = p;
                        while r >= 0 {
                            let ru = r as usize;
                            match st[ru].next.iter_mut().find(|t| t.0 == ch) {
                                Some(t) if t.1 as usize == q => t.1 = clone as u32,
                                _ => break,
                            }
                            r = st[ru].link;
                        }
                    }
                    break;
                }
                st[pu].next.push((ch, cur as u32));
                p = st[pu].link;
            }
            last = cur;
        }

        let n_states = st.len();

        // min(endpos) by propagation up the suffix-link tree: a class's
        // endpos is the union of its link-children's (plus its own
        // creation occurrence for primary states), so processing states in
        // decreasing len order pushes exact minima to the links. Counting
        // sort by len — len ≤ n.
        let mut min_end: Vec<u32> = st.iter().map(|s| s.first_end).collect();
        let mut order: Vec<u32> = (0..n_states as u32).collect();
        order.sort_unstable_by_key(|&s| std::cmp::Reverse(st[s as usize].len));
        for &s in &order {
            let link = st[s as usize].link;
            if link >= 0 {
                let m = min_end[s as usize];
                let lu = link as usize;
                if m < min_end[lu] {
                    min_end[lu] = m;
                }
            }
        }

        // Id bases: class s covers lengths (len(link(s)), len(s)].
        let mut base_vals: Vec<u64> = Vec::with_capacity(n_states);
        let mut total = 0u64;
        for s in &st {
            base_vals.push(total);
            let minlen = if s.link < 0 {
                0
            } else {
                st[s.link as usize].len as u64 + 1
            };
            let count = if s.len == 0 {
                1 // the root's single string is ε
            } else {
                s.len as u64 - minlen + 1
            };
            total += count;
        }
        assert!(
            total < u32::MAX as u64,
            "|Facs(w)| = {total} exceeds the FactorId space; \
             use shorter or more repetitive words"
        );

        // Suffix flags: the classes whose endpos contains n are exactly
        // the suffix-link chain of the last state.
        let mut suffix = vec![0u64; n_states.div_ceil(64)];
        let mut t = last as i32;
        while t >= 0 {
            suffix[t as usize / 64] |= 1u64 << (t as usize % 64);
            t = st[t as usize].link;
        }

        // Freeze transitions into CSR form.
        let n_trans: usize = st.iter().map(|s| s.next.len()).sum();
        let mut starts: Vec<u64> = Vec::with_capacity(n_states + 1);
        let mut trans_sym: Vec<u8> = Vec::with_capacity(n_trans);
        let mut dsts: Vec<u64> = Vec::with_capacity(n_trans);
        let mut acc = 0u64;
        for s in &st {
            starts.push(acc);
            acc += s.next.len() as u64;
            for &(c, q) in &s.next {
                trans_sym.push(c);
                dsts.push(q as u64);
            }
        }
        starts.push(acc);

        SuccinctBackend {
            total,
            len: PackedVec::from_values(&st.iter().map(|s| s.len as u64).collect::<Vec<_>>()),
            link: PackedVec::from_values(
                &st.iter().map(|s| (s.link + 1) as u64).collect::<Vec<_>>(),
            ),
            min_end: PackedVec::from_values(&min_end.iter().map(|&e| e as u64).collect::<Vec<_>>()),
            base: PackedVec::from_values(&base_vals),
            suffix,
            trans_start: PackedVec::from_values(&starts),
            trans_sym,
            trans_dst: PackedVec::from_values(&dsts),
            memo: ConcatMemo::new(),
            word,
        }
    }

    /// The state owning `id` — binary search over the monotone bases.
    #[inline]
    fn state_of(&self, id: FactorId) -> usize {
        debug_assert!((id.0 as u64) < self.total, "id {} out of universe", id.0);
        self.base.partition_point_leq(id.0 as u64) - 1
    }

    /// Shortest string length of class `s`: `len(link(s)) + 1` (0 for the
    /// root).
    #[inline]
    fn minlen(&self, s: usize) -> u64 {
        let link = self.link.get(s);
        if link == 0 {
            0
        } else {
            self.len.get(link as usize - 1) + 1
        }
    }

    /// Length of the factor with id `id` in class `s`.
    #[inline]
    fn len_in(&self, s: usize, id: FactorId) -> u64 {
        self.minlen(s) + (id.0 as u64 - self.base.get(s))
    }

    /// The transition `s --ch--> ?`.
    #[inline]
    fn step(&self, s: usize, ch: u8) -> Option<usize> {
        let (lo, hi) = (
            self.trans_start.get(s) as usize,
            self.trans_start.get(s + 1) as usize,
        );
        for i in lo..hi {
            if self.trans_sym[i] == ch {
                return Some(self.trans_dst.get(i) as usize);
            }
        }
        None
    }

    /// Walks `u` from `from`; `None` iff the walk falls off the automaton
    /// (the extension is not a factor).
    #[inline]
    fn walk(&self, from: usize, u: &[u8]) -> Option<usize> {
        let mut s = from;
        for &ch in u {
            s = self.step(s, ch)?;
        }
        Some(s)
    }

    /// The id of the length-`ell` string of class `s`.
    #[inline]
    fn id_in(&self, s: usize, ell: u64) -> FactorId {
        debug_assert!(self.minlen(s) <= ell && ell <= self.len.get(s));
        FactorId((self.base.get(s) + (ell - self.minlen(s))) as u32)
    }

    /// Uncached concat walk: locate `b`'s class, extend by the bytes of
    /// `c` (read out of the word via `c`'s own occurrence slice).
    fn concat_walk(&self, b: FactorId, c: FactorId) -> Option<FactorId> {
        let sb = self.state_of(b);
        let lb = self.len_in(sb, b);
        let sc = self.state_of(c);
        let lc = self.len_in(sc, c);
        if lb + lc > self.word.len() as u64 {
            return None;
        }
        let ce = self.min_end.get(sc) as usize;
        let c_bytes = &self.word.bytes()[ce - lc as usize..ce];
        let q = self.walk_from_class(sb, lb, c_bytes)?;
        Some(self.id_in(q, lb + lc))
    }

    /// Extends the length-`lb` string of class `sb` by `u`. The automaton
    /// state reached by *reading* any string of a class from the root is
    /// that same class, so continuing the walk from `sb` is continuing
    /// from `b` itself.
    #[inline]
    fn walk_from_class(&self, sb: usize, _lb: u64, u: &[u8]) -> Option<usize> {
        self.walk(sb, u)
    }
}

impl FactorBackend for SuccinctBackend {
    #[inline]
    fn word(&self) -> &Word {
        &self.word
    }

    #[inline]
    fn universe_len(&self) -> usize {
        self.total as usize
    }

    #[inline]
    fn id_of(&self, u: &[u8]) -> Option<FactorId> {
        let s = self.walk(0, u)?;
        Some(self.id_in(s, u.len() as u64))
    }

    #[inline]
    fn bytes_of(&self, id: FactorId) -> &[u8] {
        let s = self.state_of(id);
        let ell = self.len_in(s, id) as usize;
        let end = self.min_end.get(s) as usize;
        &self.word.bytes()[end - ell..end]
    }

    #[inline]
    fn len_of(&self, id: FactorId) -> usize {
        let s = self.state_of(id);
        self.len_in(s, id) as usize
    }

    // Outlined on purpose: the facade's `#[inline]` dispatch splices both
    // backend arms into the solver's triple loops, and inlining the memo
    // machinery there bloats the loop body enough to visibly slow the
    // *dense* fast path. Kept behind a call, the dispatch stays a branch
    // plus a table read on dense structures.
    #[inline(never)]
    fn concat_id(&self, b: FactorId, c: FactorId) -> Option<FactorId> {
        // ε is a unit — no walk needed.
        if b.0 == 0 {
            return Some(c);
        }
        if c.0 == 0 {
            return Some(b);
        }
        let key = (u64::from(b.0) << 32) | u64::from(c.0);
        if let Some(hit) = self.memo.get(key) {
            return if hit == u32::MAX {
                None
            } else {
                Some(FactorId(hit))
            };
        }
        let result = self.concat_walk(b, c);
        self.memo.put(key, result.map_or(u32::MAX, |id| id.0));
        result
    }

    #[inline]
    fn concat_holds(&self, a: FactorId, b: FactorId, c: FactorId) -> bool {
        self.concat_id(b, c) == Some(a)
    }

    #[inline]
    fn is_prefix(&self, id: FactorId) -> bool {
        // An occurrence ending at |u| starts at 0; min(endpos) ≥ |u|
        // always, with equality iff the prefix occurrence exists.
        let s = self.state_of(id);
        self.min_end.get(s) == self.len_in(s, id)
    }

    #[inline]
    fn is_suffix(&self, id: FactorId) -> bool {
        // n ∈ endpos(s) iff s is on the last state's suffix-link chain;
        // all strings of such a class share the suffix occurrence.
        let s = self.state_of(id);
        self.suffix[s / 64] >> (s % 64) & 1 == 1
    }

    fn short_factor_ids(&self, max_len: usize) -> Vec<FactorId> {
        // Depth-bounded DFS from the root: root-paths are exactly the
        // distinct factors, and two same-length strings of one class are
        // equal (class strings are nested suffixes), so no deduplication
        // is needed.
        let mut out = vec![FactorId(0)]; // ε
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        while let Some((s, depth)) = stack.pop() {
            if depth == max_len {
                continue;
            }
            let (lo, hi) = (
                self.trans_start.get(s) as usize,
                self.trans_start.get(s + 1) as usize,
            );
            for i in lo..hi {
                let q = self.trans_dst.get(i) as usize;
                out.push(self.id_in(q, depth as u64 + 1));
                stack.push((q, depth + 1));
            }
        }
        out
    }

    fn memory_bytes(&self) -> usize {
        self.word.len()
            + self.len.heap_bytes()
            + self.link.heap_bytes()
            + self.min_end.heap_bytes()
            + self.base.heap_bytes()
            + self.suffix.len() * 8
            + self.trans_start.heap_bytes()
            + self.trans_sym.len()
            + self.trans_dst.heap_bytes()
    }

    #[inline]
    fn kind(&self) -> BackendKind {
        BackendKind::Succinct
    }

    #[cfg(any(test, debug_assertions))]
    fn universe_len_recount(&self) -> usize {
        // Re-derive |Facs(w)| = 1 + Σ_{s≠root} (len(s) − len(link(s)))
        // from the packed arrays.
        let mut total = 1u64;
        for s in 1..self.len.len() {
            total += self.len.get(s) - self.len.get(self.link.get(s) as usize - 1);
        }
        total as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_words::FactorIndex;

    fn sb(w: &str) -> SuccinctBackend {
        SuccinctBackend::build(Word::from(w))
    }

    #[test]
    fn universe_counts_match_the_word_crate_automaton() {
        for w in ["", "a", "ab", "abaab", "aabbab", "abcacb", "aaaaaaa"] {
            let b = sb(w);
            let expect = FactorIndex::build(w.as_bytes()).distinct_factors() + 1;
            assert_eq!(b.universe_len(), expect, "w={w}");
            assert_eq!(b.universe_len(), b.universe_len_recount(), "w={w}");
        }
    }

    #[test]
    fn ids_are_a_permutation_with_epsilon_first() {
        let b = sb("abaab");
        assert_eq!(b.id_of(b""), Some(FactorId(0)));
        let m = b.universe_len() as u32;
        // Every id resolves to bytes, and id_of inverts bytes_of.
        let mut seen = vec![false; m as usize];
        for id in 0..m {
            let bytes = b.bytes_of(FactorId(id)).to_vec();
            assert_eq!(b.id_of(&bytes), Some(FactorId(id)));
            assert_eq!(b.len_of(FactorId(id)), bytes.len());
            assert!(!seen[id as usize]);
            seen[id as usize] = true;
        }
    }

    #[test]
    fn non_factors_are_rejected() {
        let b = sb("abaab");
        for u in [&b"bb"[..], b"abb", b"abaaba", b"c", b"baba"] {
            assert_eq!(b.id_of(u), None, "u={u:?}");
        }
    }

    #[test]
    fn concat_agrees_with_byte_concatenation() {
        let b = sb("aabbab");
        let m = b.universe_len() as u32;
        for x in 0..m {
            for y in 0..m {
                let (bx, by) = (FactorId(x), FactorId(y));
                let expect: Vec<u8> = [b.bytes_of(bx), b.bytes_of(by)].concat();
                assert_eq!(
                    b.concat_id(bx, by),
                    b.id_of(&expect),
                    "x={:?} y={:?}",
                    b.bytes_of(bx),
                    b.bytes_of(by)
                );
            }
        }
    }

    #[test]
    fn prefix_suffix_flags_match_bytes() {
        for w in ["abaab", "aabbab", "aaaa", "abcacb"] {
            let b = sb(w);
            for id in 0..b.universe_len() as u32 {
                let bytes = b.bytes_of(FactorId(id));
                assert_eq!(
                    b.is_prefix(FactorId(id)),
                    w.as_bytes().starts_with(bytes),
                    "w={w} u={bytes:?}"
                );
                assert_eq!(
                    b.is_suffix(FactorId(id)),
                    w.as_bytes().ends_with(bytes),
                    "w={w} u={bytes:?}"
                );
            }
        }
    }

    #[test]
    fn short_factors_enumerate_exactly() {
        let b = sb("aabbab");
        for cap in 0..=7 {
            let mut got: Vec<Vec<u8>> = b
                .short_factor_ids(cap)
                .iter()
                .map(|&id| b.bytes_of(id).to_vec())
                .collect();
            got.sort();
            let mut expect: Vec<Vec<u8>> = fc_words::factors_of(b"aabbab")
                .iter()
                .filter(|f| f.len() <= cap)
                .map(|f| f.bytes().to_vec())
                .collect();
            expect.sort();
            assert_eq!(got, expect, "cap={cap}");
        }
    }

    #[test]
    fn memo_eviction_keeps_answers_correct() {
        let b = sb("abaababa");
        let m = b.universe_len() as u32;
        // Two passes over all pairs: the second is fully memoized (or
        // re-walked after eviction) and must agree with the first.
        let first: Vec<Option<FactorId>> = (0..m)
            .flat_map(|x| (0..m).map(move |y| (x, y)))
            .map(|(x, y)| b.concat_id(FactorId(x), FactorId(y)))
            .collect();
        let second: Vec<Option<FactorId>> = (0..m)
            .flat_map(|x| (0..m).map(move |y| (x, y)))
            .map(|(x, y)| b.concat_id(FactorId(x), FactorId(y)))
            .collect();
        assert_eq!(first, second);
    }

    #[test]
    fn empty_word_is_just_epsilon() {
        let b = sb("");
        assert_eq!(b.universe_len(), 1);
        assert_eq!(b.id_of(b""), Some(FactorId(0)));
        assert_eq!(b.id_of(b"a"), None);
        assert!(b.is_prefix(FactorId(0)) && b.is_suffix(FactorId(0)));
        assert_eq!(b.concat_id(FactorId(0), FactorId(0)), Some(FactorId(0)));
    }

    #[test]
    fn linear_memory_on_long_repetitive_words() {
        // (ab)^1000: 2000 symbols, ~4000 factors — the packed automaton
        // must stay within a few dozen bytes per factor.
        let b = SuccinctBackend::build(Word::from("ab").pow(1000));
        let m = b.universe_len();
        assert!(m > 3000, "m={m}");
        let per_factor = b.memory_bytes() as f64 / m as f64;
        assert!(per_factor < 64.0, "bytes/factor = {per_factor:.1}");
    }
}
