//! A shared Omega [`Context`]: hash-consing arena + memoization caches.
//!
//! The dHPF equation pipeline (Fig. 3 communication sets, Fig. 4 loop
//! splitting, Fig. 5 active virtual processors) re-derives the same layout
//! and iteration-space conjuncts at every statement group, so the expensive
//! per-conjunct operations — integer satisfiability, Fourier–Motzkin
//! projection, exact negation, gist — are recomputed many times over
//! structurally identical inputs. A `Context` hash-conses [`Conjunct`]s
//! into interned ids and memoizes those operations in per-operation caches
//! keyed by the interned ids, with hit/miss/eviction counters that the
//! compiler driver surfaces next to its Table-1 phase timers.
//!
//! A `Context` is an `Arc`-shared handle: cloning it is cheap and all
//! clones share one arena. Attach it to root relations (layouts, parsed
//! sets, iteration spaces) with [`Relation::with_context`]; every derived
//! relation inherits the context through the set operations.
//!
//! # Interning
//!
//! Every probe hashes its canonical conjunct exactly once, before taking
//! any lock, with a keyed hasher ([`RandomState`]) owned by the context:
//! the keys resist hash flooding by conjuncts derived from untrusted
//! sources (the `dhpf-serve` daemon interns whatever clients send). The
//! top bits of that hash pick the shard; inside the shard the conjunct
//! lives in a dense `Vec` arena, found through an index from the hash to
//! its arena slot, so growing the index never re-hashes a conjunct. A hit
//! is confirmed by structural equality, and a genuine 64-bit collision
//! probes `h + 1, h + 2, …`, so interning stays exact. Ids are
//! `slot * SHARDS + shard`: unique within one context, but not stable
//! across contexts or processes, and nothing observable depends on them.
//!
//! # Concurrency
//!
//! The arena is **lock-striped**: interners and memo tables are split
//! across [`SHARDS`] shards selected by the keyed hash, so concurrent
//! clients (the parallel driver's worker threads) contend only when they
//! touch the same shard. No operation ever holds two shard locks at once,
//! and no shard lock is held across a `compute` closure, so the locking is
//! deadlock-free by construction. `Context` is `Send + Sync` (statically
//! asserted below): one long-lived context can serve a whole thread pool.
//!
//! ```
//! use dhpf_omega::Context;
//!
//! let ctx = Context::new();
//! let layout = ctx.parse_relation("{[p] -> [a] : 25p+1 <= a <= 25p+25 && 0 <= p <= 3}")?;
//! let iters = ctx.parse_set("{[i] : 1 <= i <= N}")?;
//! let owned = layout.apply(&iters); // cached ops record hits/misses
//! assert!(!owned.is_empty());
//! assert!(ctx.stats().total_misses() > 0);
//! # Ok::<(), dhpf_omega::OmegaError>(())
//! ```

use crate::budget::admit_op;
use crate::builder::{RelationBuilder, SetBuilder};
use crate::conjunct::Conjunct;
use crate::relation::Relation;
use crate::set::Set;
use crate::var::Var;
use crate::OmegaError;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Default maximum total entries per memo table (summed across shards).
/// Keeps long compilations bounded while one cold compilation of any of
/// the paper's benchmarks never evicts: the largest, SP-sym, makes about
/// 55k FME misses and leaves about 65k entries across all five tables. A
/// serving deployment tunes it with [`Context::set_cache_capacity`].
pub const DEFAULT_CACHE_CAP: usize = 1 << 19;

/// Number of lock stripes in the arena. A power of two so the shard of an
/// interned id is `id % SHARDS` (the id encodes its shard in the low bits).
pub const SHARDS: usize = 16;

/// Bits of the keyed hash that select a shard (its top bits).
const SHARD_BITS: u32 = SHARDS.trailing_zeros();

/// Entries inspected per eviction round. Sampled eviction (à la Redis)
/// keeps insertion O(sample) instead of O(table): the victim is the
/// lowest-scored of a small sample, which for a power-law access pattern
/// is within noise of true LRU.
const EVICT_SAMPLE: usize = 8;

/// Cap on the recency credit an expensive entry earns (see
/// [`MemoTable::insert`]): one microsecond of saved recomputation counts
/// as one tick of recency, up to this bound, so a pathological multi-second
/// entry cannot pin itself forever.
const COST_CREDIT_CAP_US: u32 = 8_192;

/// Interned id of a hash-consed conjunct. The low `log2(SHARDS)` bits
/// identify the owning shard.
type Id = u32;

/// Hit/miss/eviction counters for one memoized operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the real computation.
    pub misses: u64,
    /// Entries discarded when the table hit its capacity bound.
    pub evictions: u64,
}

impl OpCounts {
    fn add(&mut self, other: &OpCounts) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }
}

/// A snapshot of a context's cache effectiveness, reported by
/// [`Context::stats`] and surfaced through the compiler's `CompileReport`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Conjunct satisfiability tests (the hottest operation: emptiness,
    /// subset, redundancy and gist checks all bottom out here).
    pub sat: OpCounts,
    /// Exact existential/variable elimination (FME projection).
    pub eliminate: OpCounts,
    /// Exact conjunct negation (difference/subset tests).
    pub negate: OpCounts,
    /// Gist (constraint simplification relative to a known context).
    pub gist: OpCounts,
    /// Relation-level `simplify` (keyed by the interned conjunct list).
    pub simplify: OpCounts,
    /// Distinct conjuncts hash-consed into the arena.
    pub interned_conjuncts: u64,
}

impl CacheStats {
    /// Sum of hits across every operation cache.
    pub fn total_hits(&self) -> u64 {
        self.sat.hits + self.eliminate.hits + self.negate.hits + self.gist.hits + self.simplify.hits
    }

    /// Sum of misses across every operation cache.
    pub fn total_misses(&self) -> u64 {
        self.sat.misses
            + self.eliminate.misses
            + self.negate.misses
            + self.gist.misses
            + self.simplify.misses
    }

    /// Sum of evictions across every operation cache.
    pub fn total_evictions(&self) -> u64 {
        self.sat.evictions
            + self.eliminate.evictions
            + self.negate.evictions
            + self.gist.evictions
            + self.simplify.evictions
    }

    /// Overall hit rate in `0.0..=1.0` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.total_hits() + self.total_misses();
        if total == 0 {
            0.0
        } else {
            self.total_hits() as f64 / total as f64
        }
    }

    /// Accumulates another snapshot into this one (used when a compilation
    /// aggregates per-unit contexts, and by [`Context::stats`] to merge the
    /// per-shard counters).
    pub fn merge(&mut self, other: &CacheStats) {
        self.sat.add(&other.sat);
        self.eliminate.add(&other.eliminate);
        self.negate.add(&other.negate);
        self.gist.add(&other.gist);
        self.simplify.add(&other.simplify);
        self.interned_conjuncts += other.interned_conjuncts;
    }

    /// `(name, counts)` rows in a stable order, for table rendering.
    pub fn rows(&self) -> [(&'static str, OpCounts); 5] {
        [
            ("satisfiability", self.sat),
            ("fme projection", self.eliminate),
            ("negation", self.negate),
            ("gist", self.gist),
            ("simplify", self.simplify),
        ]
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache: {} hits / {} misses ({:.1}% hit rate), {} evictions, {} conjuncts interned",
            self.total_hits(),
            self.total_misses(),
            100.0 * self.hit_rate(),
            self.total_evictions(),
            self.interned_conjuncts,
        )
    }
}

/// One memoized result plus the bookkeeping the eviction policy needs.
struct MemoEntry<V> {
    v: V,
    /// Table tick at the entry's last hit (or its insertion).
    stamp: u64,
    /// Microseconds the original computation took — the recomputation
    /// cost this entry saves on every hit.
    cost_us: u32,
}

/// A size-bounded memo table with **cost-aware sampled eviction**
/// (GDSF-flavored): each entry's retention score is its recency stamp
/// plus a credit proportional to how expensive it was to compute, so under
/// pressure the cache sheds cheap, cold entries first and keeps the
/// expensive projections/negations that fleet-level reuse is for.
///
/// Replaces the previous wholesale shard flush: eviction is now
/// incremental (one victim per over-capacity insert, chosen as the
/// lowest-scored of a small sample), so a warm serving cache degrades
/// smoothly at its capacity bound instead of periodically dumping
/// everything it learned.
struct MemoTable<K, V> {
    map: HashMap<K, MemoEntry<V>>,
    /// Monotonic access counter; stamps entries for recency scoring.
    tick: u64,
}

impl<K, V> Default for MemoTable<K, V> {
    fn default() -> Self {
        MemoTable {
            map: HashMap::new(),
            tick: 0,
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> MemoTable<K, V> {
    /// Cache probe: a hit refreshes the entry's recency stamp.
    fn get(&mut self, k: &K, counts: &mut OpCounts) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(k) {
            Some(e) => {
                e.stamp = tick;
                counts.hits += 1;
                Some(e.v.clone())
            }
            None => {
                counts.misses += 1;
                None
            }
        }
    }

    /// Inserts a computed result, evicting lowest-scored entries while the
    /// table is at its capacity bound. `cost_us` is the measured compute
    /// time of the inserted result. When threads race on one miss, the
    /// key is already present by the time the second result arrives: that
    /// insert is dropped in favor of the first and evicts nothing.
    fn insert(&mut self, k: K, v: V, cost_us: u32, cap: usize, counts: &mut OpCounts) {
        if self.map.contains_key(&k) {
            return;
        }
        while self.map.len() >= cap.max(1) {
            let victim = self
                .map
                .iter()
                .take(EVICT_SAMPLE)
                .min_by_key(|(_, e)| {
                    e.stamp
                        .saturating_add(u64::from(e.cost_us.min(COST_CREDIT_CAP_US)))
                })
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    self.map.remove(&k);
                    counts.evictions += 1;
                }
                None => break,
            }
        }
        self.tick += 1;
        self.map.insert(
            k,
            MemoEntry {
                v,
                stamp: self.tick,
                cost_us,
            },
        );
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// Per-shard hit/miss/eviction counters, one [`OpCounts`] per memoized
/// operation. Plain integers mutated under the shard lock: cheaper than
/// shared atomics (no cross-shard cache-line ping-pong) and merged into a
/// [`CacheStats`] on read.
#[derive(Default)]
struct ShardCounts {
    sat: OpCounts,
    eliminate: OpCounts,
    negate: OpCounts,
    gist: OpCounts,
    simplify: OpCounts,
}

/// Index hasher for keys that already are a keyed hash: the shard index
/// stores a conjunct's hash, so growing it never re-hashes a conjunct.
/// The key's top bits are the same for every key of one shard (they chose
/// the shard), but the table takes its probe tags from the top bits; one
/// multiply by an odd constant, a bijection that adds no collisions,
/// carries the varying low bits up into them.
#[derive(Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn write(&mut self, _: &[u8]) {
        unreachable!("PreHashed only hashes u64 keys")
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One lock stripe of the arena: an interner slice plus one memo table per
/// operation. A conjunct's per-conjunct memo entries (sat / eliminate /
/// negate) live in the same shard as the conjunct itself, so the hot path
/// interns and probes under a single lock acquisition.
#[derive(Default)]
struct Shard {
    /// Hash-consed conjuncts owned by this shard, densely: the conjunct at
    /// slot `i` has id `i * SHARDS + shard`. The id is the key of every
    /// per-conjunct memo table.
    conjuncts: Vec<Conjunct>,
    /// Keyed hash → slot in `conjuncts`. A colliding hash moves on to
    /// `h + 1`, `h + 2`, …; nothing is ever removed, so a probe chain
    /// never has a gap.
    index: HashMap<u64, u32, BuildHasherDefault<PreHashed>>,
    sat: MemoTable<Id, bool>,
    eliminate: MemoTable<(Id, Var), Result<Vec<Conjunct>, OmegaError>>,
    negate: MemoTable<Id, Result<Vec<Conjunct>, OmegaError>>,
    /// Keyed `(a, b)`; stored in the shard of `a`.
    gist: MemoTable<(Id, Id), Conjunct>,
    /// Keyed by the interned conjunct list; stored in the shard selected
    /// by the keyed hash of that id list.
    simplify: MemoTable<Vec<Id>, Vec<Conjunct>>,
    counts: ShardCounts,
}

impl Shard {
    /// Interns the canonical conjunct `cc`, whose keyed hash is `h`, into
    /// this shard (number `shard`), returning its id.
    fn intern(&mut self, cc: &Conjunct, mut h: u64, shard: usize) -> Id {
        loop {
            match self.index.entry(h) {
                Entry::Occupied(e) => {
                    let slot = *e.get();
                    if self.conjuncts[slot as usize] == *cc {
                        return slot * SHARDS as Id + shard as Id;
                    }
                    h = h.wrapping_add(1);
                }
                Entry::Vacant(e) => {
                    let slot = self.conjuncts.len() as Id;
                    e.insert(slot);
                    self.conjuncts.push(cc.clone());
                    return slot * SHARDS as Id + shard as Id;
                }
            }
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            sat: self.counts.sat,
            eliminate: self.counts.eliminate,
            negate: self.counts.negate,
            gist: self.counts.gist,
            simplify: self.counts.simplify,
            interned_conjuncts: self.conjuncts.len() as u64,
        }
    }
}

/// Selects one operation's memo table, and its counters, in a shard.
type TableOf<K, V> = fn(&mut Shard) -> (&mut MemoTable<K, V>, &mut OpCounts);

/// Everything a context shares: the enabled flag, the memo capacity and
/// the sharded interner and memo tables. Per-request state — budget,
/// cancellation, fault injection, tracing — lives on the calling thread's
/// [`RequestGovernor`](crate::RequestGovernor), never here.
struct Inner {
    enabled: AtomicBool,
    /// Total memo-entry capacity per operation table (divided evenly
    /// across shards). See [`Context::set_cache_capacity`].
    cache_capacity: AtomicUsize,
    /// Keys of the one hash every probe computes (see the module docs).
    hasher: RandomState,
    shards: [Mutex<Shard>; SHARDS],
}

/// Input size of a per-conjunct operation: its constraint count.
fn conjunct_size(c: &Conjunct) -> u64 {
    (c.eqs().len() + c.geqs().len()) as u64
}

/// Measured compute cost of a memo miss, for the eviction policy.
/// Saturates at `u32::MAX` (~71 minutes — effectively never).
fn elapsed_us(t0: Instant) -> u32 {
    u32::try_from(t0.elapsed().as_micros()).unwrap_or(u32::MAX)
}

/// Locks one shard. Nothing that runs under a shard lock calls back into
/// caller code, so a poisoned lock means a bug in this module.
fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard
        .lock()
        .expect("a shard lock is poisoned: the interner or a memo table panicked")
}

/// The shard a keyed hash selects: its top bits.
fn shard_of_hash(h: u64) -> usize {
    (h >> (u64::BITS - SHARD_BITS)) as usize
}

/// Runs `f` on the canonical form of `c`, borrowing `c` itself when it is
/// already normalized (the common case on probe paths: producers normalize
/// once at construction); only un-normalized probes pay for a copy.
fn with_canonical<R>(c: &Conjunct, f: impl FnOnce(&Conjunct) -> R) -> R {
    if c.is_normalized() {
        f(c)
    } else {
        f(&c.canonical())
    }
}

/// The shard that owns an interned id (the id's low bits).
fn shard_of_id(id: Id) -> usize {
    (id as usize) & (SHARDS - 1)
}

/// A shared hash-consing + memoization context for Omega operations.
///
/// See the [module documentation](self) for the design; in short: create
/// one per compilation (or one long-lived one via
/// `dhpf_core::compile_with`), attach it to root sets/relations, and every
/// derived operation reuses previously computed satisfiability tests,
/// projections, negations, gists and simplifications. The context is
/// `Send + Sync`: the parallel driver shares one across worker threads.
#[derive(Clone)]
pub struct Context {
    inner: Arc<Inner>,
}

// The whole point of the sharded arena: a Context can be shared across the
// driver's worker threads. Checked at compile time so a non-Sync field can
// never sneak in.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Context>();
};

impl Default for Context {
    fn default() -> Self {
        Context::new()
    }
}

impl fmt::Debug for Context {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context")
            .field("enabled", &self.is_enabled())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Context {
    /// A fresh context with caching enabled and the default cache
    /// capacity ([`DEFAULT_CACHE_CAP`]).
    pub fn new() -> Self {
        Context::with_capacity(DEFAULT_CACHE_CAP)
    }

    /// A fresh context whose memo tables are bounded at `capacity` total
    /// entries per operation table. Long-running servers pick this to
    /// bound resident memory; see [`Context::set_cache_capacity`].
    pub fn with_capacity(capacity: usize) -> Self {
        Context {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(true),
                cache_capacity: AtomicUsize::new(capacity),
                hasher: RandomState::new(),
                shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
            }),
        }
    }

    /// Bounds every memo table at `capacity` total entries (per operation,
    /// summed across shards). When a table is full, inserting a new result
    /// evicts the entry with the lowest recency + compute-cost score from
    /// a small sample, so cheap cold entries leave first. Takes effect on
    /// subsequent inserts; existing entries are not flushed. A capacity of
    /// `0` is clamped to one entry per shard.
    pub fn set_cache_capacity(&self, capacity: usize) {
        self.inner.cache_capacity.store(capacity, Ordering::Relaxed);
    }

    /// The current per-table memo capacity (see
    /// [`set_cache_capacity`](Self::set_cache_capacity)).
    pub fn cache_capacity(&self) -> usize {
        self.inner.cache_capacity.load(Ordering::Relaxed)
    }

    /// The per-shard entry bound derived from the table capacity.
    fn shard_cap(&self) -> usize {
        (self.inner.cache_capacity.load(Ordering::Relaxed) / SHARDS).max(1)
    }

    /// Total memoized entries currently resident, summed over the five
    /// operation tables and all shards — the quantity
    /// [`set_cache_capacity`](Self::set_cache_capacity) bounds per table.
    pub fn memo_entries(&self) -> u64 {
        let mut n = 0u64;
        for shard in &self.inner.shards {
            let s = lock(shard);
            n += (s.sat.len()
                + s.eliminate.len()
                + s.negate.len()
                + s.gist.len()
                + s.simplify.len()) as u64;
        }
        n
    }

    /// Per-table resident memo entries, as `(operation name, entries)`
    /// pairs in a fixed order — the gauge hook a serving tier polls to
    /// export memo-table occupancy per operation (the sum equals
    /// [`memo_entries`](Self::memo_entries)). Shards are locked one at a
    /// time, so the snapshot is per-shard-consistent.
    pub fn memo_occupancy(&self) -> [(&'static str, u64); 5] {
        let mut out: [(&'static str, u64); 5] = [
            ("sat", 0),
            ("eliminate", 0),
            ("negate", 0),
            ("gist", 0),
            ("simplify", 0),
        ];
        for shard in &self.inner.shards {
            let s = lock(shard);
            out[0].1 += s.sat.len() as u64;
            out[1].1 += s.eliminate.len() as u64;
            out[2].1 += s.negate.len() as u64;
            out[3].1 += s.gist.len() as u64;
            out[4].1 += s.simplify.len() as u64;
        }
        out
    }

    /// A context with caching disabled: operations behave exactly as with
    /// no context at all. Used by the `--no-cache` ablation.
    pub fn disabled() -> Self {
        let ctx = Context::new();
        ctx.set_enabled(false);
        ctx
    }

    /// Enables or disables memoization at runtime (existing entries are
    /// kept but not consulted while disabled).
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// True if lookups consult the memo tables.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// A snapshot of the cache counters: the per-shard counters merged via
    /// [`CacheStats::merge`]. Shards are locked one at a time, so the
    /// snapshot is per-shard-consistent (exact once the workers are
    /// quiesced, which is when the driver reads it).
    pub fn stats(&self) -> CacheStats {
        let mut out = CacheStats::default();
        for shard in &self.inner.shards {
            out.merge(&lock(shard).stats());
        }
        out
    }

    // ------------------------------------------------------------------
    // Construction entry points
    // ------------------------------------------------------------------

    /// Parses a relation in Omega syntax and attaches this context.
    ///
    /// This is the non-panicking replacement for the `FromStr` entry
    /// points: every failure (syntax, arity, coefficient overflow) is an
    /// [`OmegaError`] carrying the source offset.
    pub fn parse_relation(&self, input: &str) -> Result<Relation, OmegaError> {
        let rel = crate::parse::parse_relation(input)?;
        Ok(rel.with_context(self))
    }

    /// Parses a set in Omega syntax and attaches this context.
    pub fn parse_set(&self, input: &str) -> Result<Set, OmegaError> {
        let rel = self.parse_relation(input)?;
        if rel.n_out() != 0 {
            return Err(OmegaError::Parse(crate::parse::ParseError::expected_set()));
        }
        Ok(Set::from_relation(rel))
    }

    /// The universe set of the given arity, attached to this context.
    pub fn universe_set(&self, arity: u32) -> Set {
        Set::from_relation(Relation::universe(arity, 0).with_context(self))
    }

    /// The empty set of the given arity, attached to this context.
    pub fn empty_set(&self, arity: u32) -> Set {
        Set::from_relation(Relation::empty(arity, 0).with_context(self))
    }

    /// The universe relation, attached to this context.
    pub fn universe_relation(&self, n_in: u32, n_out: u32) -> Relation {
        Relation::universe(n_in, n_out).with_context(self)
    }

    /// The empty relation, attached to this context.
    pub fn empty_relation(&self, n_in: u32, n_out: u32) -> Relation {
        Relation::empty(n_in, n_out).with_context(self)
    }

    /// Starts a fluent [`SetBuilder`] for a set of the given arity.
    pub fn set(&self, arity: u32) -> SetBuilder {
        SetBuilder::new(self.clone(), arity)
    }

    /// Starts a fluent [`RelationBuilder`] for a relation.
    pub fn relation(&self, n_in: u32, n_out: u32) -> RelationBuilder {
        RelationBuilder::new(self.clone(), n_in, n_out)
    }

    /// Exact negation of a conjunct, memoized (the `Context`-threaded form
    /// of the deprecated free function `ops::negate_conjunct`).
    pub fn negate_conjunct(&self, c: &Conjunct) -> Result<Vec<Conjunct>, OmegaError> {
        crate::ops::negate_conjunct_in(c, Some(self))
    }

    /// Stride-form rewrite of a conjunct (the `Context`-threaded form of
    /// the deprecated free function `ops::to_stride_form`).
    pub fn to_stride_form(&self, c: Conjunct) -> Result<Vec<Conjunct>, OmegaError> {
        crate::ops::to_stride_form_in(c, Some(self))
    }

    // ------------------------------------------------------------------
    // Interning
    // ------------------------------------------------------------------

    /// Hash-conses a conjunct, returning its interned id. Conjuncts with
    /// the same [`Conjunct::canonical`] form — same constraints up to
    /// order, repetition, scaling, and slack constants — share one id.
    pub fn intern_conjunct(&self, c: &Conjunct) -> u32 {
        with_canonical(c, |cc| {
            let (h, s) = self.place(cc);
            lock(&self.inner.shards[s]).intern(cc, h, s)
        })
    }

    /// The keyed hash of a canonical conjunct and the shard it selects:
    /// the only hash a probe computes, and computed before any lock.
    fn place(&self, cc: &Conjunct) -> (u64, usize) {
        let h = self.inner.hasher.hash_one(cc);
        (h, shard_of_hash(h))
    }

    // ------------------------------------------------------------------
    // Memoized operations
    // ------------------------------------------------------------------
    //
    // Lock discipline: at most one shard lock is held at a time, and no
    // lock is held across `compute`: intern + probe under the key's shard
    // lock, drop it, run the real computation (which may itself recurse
    // into the cache), then re-lock that shard to insert. Single-threaded
    // compilations never duplicate work; concurrent ones at worst compute
    // an entry twice.

    /// Probes `table` in shard `s` for the key that `key` builds under the
    /// shard lock; on a miss, runs `compute` unlocked and inserts its
    /// result with its measured cost.
    fn memoized<K: Eq + Hash + Clone, V: Clone>(
        &self,
        s: usize,
        key: impl FnOnce(&mut Shard) -> K,
        table: TableOf<K, V>,
        compute: impl FnOnce() -> V,
    ) -> V {
        let key = {
            let mut shard = lock(&self.inner.shards[s]);
            let key = key(&mut shard);
            let (t, counts) = table(&mut shard);
            if let Some(v) = t.get(&key, counts) {
                return v;
            }
            key
        };
        let t0 = Instant::now();
        let v = compute();
        let cost_us = elapsed_us(t0);
        let cap = self.shard_cap();
        let mut shard = lock(&self.inner.shards[s]);
        let (t, counts) = table(&mut shard);
        t.insert(key, v.clone(), cost_us, cap, counts);
        v
    }

    /// [`memoized`](Self::memoized) for a per-conjunct operation: `c` is
    /// interned and its entry probed in `c`'s shard under one lock.
    fn memoized_on<K: Eq + Hash + Clone, V: Clone>(
        &self,
        c: &Conjunct,
        key: impl FnOnce(Id) -> K,
        table: TableOf<K, V>,
        compute: impl FnOnce() -> V,
    ) -> V {
        with_canonical(c, |cc| {
            let (h, s) = self.place(cc);
            self.memoized(s, |sh| key(sh.intern(cc, h, s)), table, compute)
        })
    }

    /// `cached_sat` for *analysis* callers, where "satisfiable" is the
    /// sound conservative answer: once the budget trips, the degraded
    /// `true` never lets the compiler skip communication or drop a
    /// splinter. Code generation must NOT use this — an emptiness test
    /// that prunes pieces before emitting loop bounds needs the exact
    /// answer or a typed failure ([`cached_sat_strict`](Self::cached_sat_strict)):
    /// a spurious "satisfiable" there widens hull bounds and emits
    /// phantom iterations, breaking send/recv duality.
    pub(crate) fn cached_sat(&self, c: &Conjunct, compute: impl FnOnce() -> bool) -> bool {
        self.cached_sat_strict(c, compute).unwrap_or(true)
    }

    /// Exact-or-fail satisfiability: the budget charge error propagates
    /// instead of degrading to `true`. Degraded answers are never cached.
    pub(crate) fn cached_sat_strict(
        &self,
        c: &Conjunct,
        compute: impl FnOnce() -> bool,
    ) -> Result<bool, OmegaError> {
        let (_t, memo) = admit_op("sat", "satisfiability", || conjunct_size(c));
        if !memo? || !self.is_enabled() {
            return Ok(compute());
        }
        Ok(self.memoized_on(c, |id| id, |sh| (&mut sh.sat, &mut sh.counts.sat), compute))
    }

    pub(crate) fn cached_eliminate(
        &self,
        c: &Conjunct,
        v: Var,
        compute: impl FnOnce() -> Result<Vec<Conjunct>, OmegaError>,
    ) -> Result<Vec<Conjunct>, OmegaError> {
        // Budget/cancel errors propagate *uncached*: memoizing one would
        // poison a long-lived context past the end of the budgeted
        // compilation.
        let (_t, memo) = admit_op("eliminate", "fme projection", || conjunct_size(c));
        if !memo? || !self.is_enabled() {
            return compute();
        }
        self.memoized_on(
            c,
            |id| (id, v),
            |sh| (&mut sh.eliminate, &mut sh.counts.eliminate),
            compute,
        )
    }

    pub(crate) fn cached_negate(
        &self,
        c: &Conjunct,
        compute: impl FnOnce() -> Result<Vec<Conjunct>, OmegaError>,
    ) -> Result<Vec<Conjunct>, OmegaError> {
        let (_t, memo) = admit_op("negate", "negation", || conjunct_size(c));
        if !memo? || !self.is_enabled() {
            return compute();
        }
        self.memoized_on(
            c,
            |id| id,
            |sh| (&mut sh.negate, &mut sh.counts.negate),
            compute,
        )
    }

    pub(crate) fn cached_gist(
        &self,
        c: &Conjunct,
        given: &Conjunct,
        compute: impl FnOnce() -> Conjunct,
    ) -> Conjunct {
        let (_t, memo) = admit_op("gist", "gist", || conjunct_size(c) + conjunct_size(given));
        // Gist is a pure simplification: returning the input unchanged is
        // always sound, so a tripped budget degrades to the identity.
        let Ok(memo) = memo else {
            return c.clone();
        };
        if !memo || !self.is_enabled() {
            return compute();
        }
        // The two operands may live in different shards: intern each under
        // its own lock (sequentially — never nested), then probe the memo
        // table in the shard of `a`.
        let a = self.intern_conjunct(c);
        let b = self.intern_conjunct(given);
        self.memoized(
            shard_of_id(a),
            |_| (a, b),
            |sh| (&mut sh.gist, &mut sh.counts.gist),
            compute,
        )
    }

    pub(crate) fn cached_simplify(
        &self,
        conjuncts: &[Conjunct],
        compute: impl FnOnce() -> Vec<Conjunct>,
    ) -> Vec<Conjunct> {
        let (_t, memo) = admit_op("simplify", "simplify", || {
            conjuncts.iter().map(conjunct_size).sum()
        });
        // Like gist: identity is sound, so degrade to the input list.
        let Ok(memo) = memo else {
            return conjuncts.to_vec();
        };
        if !memo || !self.is_enabled() {
            return compute();
        }
        let key: Vec<Id> = conjuncts.iter().map(|c| self.intern_conjunct(c)).collect();
        let s = shard_of_hash(self.inner.hasher.hash_one(&key));
        self.memoized(
            s,
            |_| key,
            |sh| (&mut sh.simplify, &mut sh.counts.simplify),
            compute,
        )
    }
}

/// Picks the context shared by a binary operation's operands: the left
/// operand's context wins; otherwise the right's.
pub(crate) fn join(a: Option<&Context>, b: Option<&Context>) -> Option<Context> {
    a.or(b).cloned()
}

#[cfg(test)]
mod tests {
    //! The governance tests drive a shared `Context` under a thread-armed
    //! [`RequestGovernor`], the only place budget, cancellation, fault
    //! injection and tracing live.
    use super::*;
    use crate::budget::exactness_limit;
    use crate::inject::{FaultAction, InjectPlan};
    use crate::linexpr::LinExpr;
    use crate::{check_cancelled, governor_grace, Budget, CancelToken, GovernorStats};
    use crate::{RequestGovernor, RequestGovernorGuard};
    use dhpf_obs::Collector;
    use std::time::Duration;

    /// A governor for `budget` (no cancel token), armed on this thread.
    fn arm(budget: &Budget) -> (RequestGovernor, RequestGovernorGuard) {
        let gov = RequestGovernor::new(budget, None);
        let guard = gov.arm_on_thread();
        (gov, guard)
    }

    /// An unlimited governor carrying only `plan`, armed on this thread.
    fn arm_plan(plan: InjectPlan) -> (RequestGovernor, RequestGovernorGuard) {
        let gov = RequestGovernor::new(&Budget::default(), None).with_inject(Some(plan));
        let guard = gov.arm_on_thread();
        (gov, guard)
    }

    /// An unlimited governor carrying only a trace collector.
    fn arm_trace(obs: &Collector) -> RequestGovernorGuard {
        RequestGovernor::new(&Budget::default(), None)
            .with_collector(Some(obs.clone()))
            .arm_on_thread()
    }

    #[test]
    fn interning_is_stable() {
        let ctx = Context::new();
        let mut c = Conjunct::new();
        c.add_geq(LinExpr::var(Var::In(0)));
        let id1 = ctx.intern_conjunct(&c);
        let id2 = ctx.intern_conjunct(&c.clone());
        assert_eq!(id1, id2);
        let mut d = c.clone();
        d.add_geq(LinExpr::var(Var::In(1)));
        assert_ne!(ctx.intern_conjunct(&d), id1);
        assert_eq!(ctx.stats().interned_conjuncts, 2);
    }

    #[test]
    fn ids_encode_their_shard() {
        let ctx = Context::new();
        for i in 0..64 {
            let mut c = Conjunct::new();
            c.add_geq(LinExpr::var(Var::In(i)));
            let id = ctx.intern_conjunct(&c);
            assert_eq!(shard_of_id(id), ctx.place(&c.canonical()).1);
        }
        assert_eq!(ctx.stats().interned_conjuncts, 64);
    }

    #[test]
    fn colliding_hashes_intern_exactly() {
        // Two distinct conjuncts forced under one hash: the second probes
        // past the first's index slot instead of aliasing it.
        let (mut c, mut d) = (Conjunct::new(), Conjunct::new());
        c.add_geq(LinExpr::var(Var::In(0)));
        d.add_geq(LinExpr::var(Var::In(1)));
        let (c, d) = (c.canonical(), d.canonical());
        let mut shard = Shard::default();
        let h = u64::MAX; // the probe past it wraps to 0
        let ic = shard.intern(&c, h, 3);
        let id = shard.intern(&d, h, 3);
        assert_ne!(ic, id);
        assert_eq!(shard.intern(&c, h, 3), ic);
        assert_eq!(shard.intern(&d, h, 3), id);
        assert_eq!((shard_of_id(ic), shard_of_id(id)), (3, 3));
        assert_eq!(shard.stats().interned_conjuncts, 2);
    }

    #[test]
    fn racing_insert_keeps_the_first_entry() {
        // A full table: the second insert of a key another thread already
        // inserted must neither evict nor overwrite.
        let mut t: MemoTable<u32, u32> = MemoTable::default();
        let mut counts = OpCounts::default();
        let cap = 4;
        for k in 0..4 {
            t.insert(k, 10 * k, 0, cap, &mut counts);
        }
        assert_eq!((t.len(), counts.evictions), (4, 0));
        t.insert(2, 99, 0, cap, &mut counts);
        assert_eq!((t.len(), counts.evictions), (4, 0));
        assert_eq!(t.get(&2, &mut counts), Some(20));
        // A new key at capacity still evicts one victim.
        t.insert(7, 70, 0, cap, &mut counts);
        assert_eq!((t.len(), counts.evictions), (4, 1));
    }

    #[test]
    fn sat_cache_hits_on_repeat() {
        let ctx = Context::new();
        let s = ctx.parse_set("{[i] : 1 <= i <= 10}").unwrap();
        assert!(!s.is_empty());
        let before = ctx.stats();
        assert!(!s.is_empty());
        let after = ctx.stats();
        assert!(
            after.sat.hits > before.sat.hits,
            "second emptiness test must hit"
        );
    }

    #[test]
    fn disabled_context_never_hits() {
        let ctx = Context::disabled();
        let s = ctx.parse_set("{[i] : 1 <= i <= 10}").unwrap();
        assert!(!s.is_empty());
        assert!(!s.is_empty());
        let stats = ctx.stats();
        assert_eq!(stats.total_hits(), 0);
        assert_eq!(stats.total_misses(), 0);
    }

    #[test]
    fn concurrent_clients_share_one_arena() {
        // Hammer one context from several threads; every thread computes
        // the same results it would alone, and the merged counters add up.
        let ctx = Context::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let ctx = ctx.clone();
                scope.spawn(move || {
                    for i in 0..50 {
                        let s = ctx
                            .parse_set(&format!("{{[i] : {} <= i <= {}}}", t, t + i))
                            .unwrap();
                        assert!(!s.is_empty());
                        let e = ctx
                            .parse_set(&format!("{{[i] : {} <= i <= {}}}", i + 1, i))
                            .unwrap();
                        assert!(e.is_empty());
                    }
                });
            }
        });
        let stats = ctx.stats();
        assert!(stats.total_misses() > 0);
        assert!(stats.interned_conjuncts > 0);
        // Re-running the same queries on the quiesced context now hits.
        let before = ctx.stats();
        let s = ctx.parse_set("{[i] : 0 <= i <= 0}").unwrap();
        assert!(!s.is_empty());
        let after = ctx.stats();
        assert!(after.total_hits() > before.total_hits());
    }

    #[test]
    fn collector_records_set_ops_on_open_span() {
        let obs = Collector::new();
        let ctx = Context::new();
        let traced = arm_trace(&obs);
        let span = obs.begin("analysis", "phase");
        let s = ctx.parse_set("{[i] : 1 <= i <= 10}").unwrap();
        assert!(!s.is_empty());
        assert!(!s.is_empty()); // cache hit still counts as a call
        obs.end(span);
        let t = obs.trace();
        let i = t.find("analysis").unwrap();
        let sat = t.nodes[i].ops.get("satisfiability").expect("sat recorded");
        assert!(sat.calls >= 2);
        assert!(sat.sizes.count() == sat.calls);

        // Disarming the governor stops recording.
        drop(traced);
        let before = obs.len();
        let _ = s.is_empty();
        assert_eq!(obs.len(), before);
    }

    #[test]
    fn disabled_cache_still_records_set_ops() {
        let obs = Collector::new();
        let ctx = Context::disabled();
        let _traced = arm_trace(&obs);
        let s = ctx.parse_set("{[i] : 1 <= i <= 10}").unwrap();
        assert!(!s.is_empty());
        let ops = obs.trace().total_ops();
        assert!(ops.get("satisfiability").map_or(0, |o| o.calls) > 0);
        assert_eq!(ctx.stats().total_misses(), 0, "cache untouched");
    }

    #[test]
    fn stats_display_is_humane() {
        let ctx = Context::new();
        let txt = ctx.stats().to_string();
        assert!(txt.contains("hit rate"));
    }

    #[test]
    fn ungoverned_context_charges_nothing() {
        // A governor with no budget, token or plan (what a traced-only
        // request arms) charges nothing either.
        let ctx = Context::new();
        let (gov, _armed) = arm(&Budget::default());
        let s = ctx.parse_set("{[i] : 1 <= i <= 10}").unwrap();
        assert!(!s.is_empty());
        assert_eq!(gov.stats(), GovernorStats::default());
    }

    #[test]
    fn op_fuel_trips_and_degrades_soundly() {
        let ctx = Context::new();
        let (gov, armed) = arm(&Budget::new().op_fuel(1));
        let s = ctx.parse_set("{[i] : 1 <= i <= 10}").unwrap();
        let t = ctx.parse_set("{[i] : 3 <= i <= 30}").unwrap();
        // Burn far more than one op; everything must still terminate and
        // the conservative answers must be sound (non-empty says non-empty).
        assert!(!s.is_empty());
        assert!(!s.intersection(&t).is_empty());
        assert!(gov.tripped());
        let g = gov.stats();
        assert_eq!(g.tripped, Some("op fuel"));
        assert!(g.ops_degraded > 0);
        // Fallible ops now surface the typed error.
        let err = s.try_subtract(&t).unwrap_err();
        assert!(matches!(err, OmegaError::BudgetExceeded("op fuel")));
        // A fresh governor is untripped.
        drop(armed);
        let (fresh, _armed) = arm(&Budget::default());
        assert!(!fresh.tripped());
        assert!(s.try_subtract(&t).is_ok());
    }

    #[test]
    fn expired_deadline_trips() {
        let ctx = Context::new();
        let (gov, _armed) = arm(&Budget::new().deadline_ms(0));
        std::thread::sleep(Duration::from_millis(2));
        let s = ctx.parse_set("{[i] : 1 <= i <= 10}").unwrap();
        assert!(!s.is_empty()); // degraded-but-sound
        assert!(!s.is_empty());
        assert!(gov.tripped());
        assert_eq!(gov.stats().tripped, Some("deadline"));
    }

    #[test]
    fn budget_errors_are_never_memoized() {
        let ctx = Context::new();
        let s = ctx.parse_set("{[i] : 1 <= i <= 10}").unwrap();
        let t = ctx.parse_set("{[i] : 3 <= i <= 30}").unwrap();
        let armed = arm(&Budget::new().op_fuel(0));
        assert!(s.try_subtract(&t).is_err());
        drop(armed);
        // The same structural query must now succeed from a clean slate.
        let d = s.try_subtract(&t).unwrap();
        assert!(d.contains(&[2], &[]));
        assert!(!d.contains(&[3], &[]));
    }

    #[test]
    fn grace_scope_suspends_trip_but_not_cancellation() {
        let ctx = Context::new();
        let s = ctx.parse_set("{[i] : 1 <= i <= 10}").unwrap();
        let t = ctx.parse_set("{[i] : 3 <= i <= 30}").unwrap();
        let (gov, _armed) = arm(&Budget::new().op_fuel(0));
        assert!(s.try_subtract(&t).is_err());
        assert!(gov.tripped());
        {
            let _grace = governor_grace();
            // Inside the grace scope the tripped budget no longer blocks
            // the set algebra the degraded rebuild needs...
            let d = s.try_subtract(&t).unwrap();
            assert!(d.contains(&[2], &[]));
            // ...but cancellation still aborts (a nested governor with a
            // token; the outer one is restored when it drops).
            let token = CancelToken::new();
            let cancellable = RequestGovernor::new(&Budget::new().op_fuel(0), Some(token.clone()));
            let _nested = cancellable.arm_on_thread();
            token.cancel();
            assert!(matches!(s.try_subtract(&t), Err(OmegaError::Cancelled)));
        }
        // Enforcement resumes once the guard drops.
        assert!(matches!(
            s.try_subtract(&t),
            Err(OmegaError::BudgetExceeded(_))
        ));
    }

    #[test]
    fn cancel_token_aborts_fallible_ops() {
        let ctx = Context::new();
        let token = CancelToken::new();
        let armed = RequestGovernor::new(&Budget::default(), Some(token.clone())).arm_on_thread();
        let s = ctx.parse_set("{[i] : 1 <= i <= 10}").unwrap();
        let t = ctx.parse_set("{[i] : 3 <= i <= 30}").unwrap();
        assert!(s.try_subtract(&t).is_ok());
        assert!(check_cancelled().is_ok());
        token.cancel();
        assert_eq!(check_cancelled(), Err(OmegaError::Cancelled));
        assert!(matches!(s.try_subtract(&t), Err(OmegaError::Cancelled)));
        drop(armed);
        assert!(s.try_subtract(&t).is_ok());
    }

    #[test]
    fn configurable_limits_reach_the_ops() {
        let ctx = Context::new();
        assert_eq!(exactness_limit(|b| b.max_negation_pieces), 10_000);
        assert_eq!(exactness_limit(|b| b.subsume_negation_pieces), 64);
        assert_eq!(exactness_limit(|b| b.stride_fuel), 500);
        // A piece cap of zero makes any non-trivial negation inexact.
        let armed = arm(&Budget::new().max_negation_pieces(0));
        let s = ctx.parse_set("{[i] : 1 <= i <= 10}").unwrap();
        let t = ctx.parse_set("{[i] : 3 <= i <= 5}").unwrap();
        assert!(matches!(
            s.try_subtract(&t),
            Err(OmegaError::InexactNegation)
        ));
        drop(armed);
        assert!(s.try_subtract(&t).is_ok());
    }

    #[test]
    fn injected_errors_fire_deterministically() {
        let run = |seed: u64| -> (bool, u64) {
            let ctx = Context::new();
            let (gov, _armed) = arm_plan(InjectPlan::new(seed, 3, FaultAction::Error));
            let s = ctx.parse_set("{[i] : 1 <= i <= 10}").unwrap();
            let t = ctx.parse_set("{[i] : 3 <= i <= 30}").unwrap();
            let r = s.try_subtract(&t).is_ok();
            (r, gov.injected_faults())
        };
        let (a_ok, a_fired) = run(42);
        let (b_ok, b_fired) = run(42);
        assert_eq!(a_ok, b_ok);
        assert_eq!(a_fired, b_fired);
    }

    #[test]
    fn injected_budget_exhaustion_trips_governor() {
        let ctx = Context::new();
        let (gov, _armed) =
            arm_plan(InjectPlan::new(7, 1, FaultAction::ExhaustBudget).at_site("eliminate"));
        let s = ctx
            .parse_set("{[i] : exists(a : i = 2a) && 0 <= i <= 10}")
            .unwrap();
        let t = ctx.parse_set("{[i] : 3 <= i <= 30}").unwrap();
        let _ = s.try_subtract(&t);
        assert!(gov.tripped());
        assert_eq!(gov.stats().tripped, Some("injected"));
    }

    #[test]
    fn injected_panics_unwind_cleanly() {
        let ctx = Context::new();
        let armed = arm_plan(InjectPlan::new(9, 1, FaultAction::Panic).at_site("sat"));
        let s = ctx.parse_set("{[i] : 1 <= i <= 10}").unwrap();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.is_empty()));
        assert!(r.is_err(), "period-1 sat panic plan must fire");
        // The context is not poisoned: disarm and keep using it.
        drop(armed);
        assert!(!s.is_empty());
        assert!(ctx.stats().total_misses() > 0);
    }
}
