//! Global string interner.
//!
//! Predicate and constant names occur everywhere — in rules, tuples, traces —
//! so they are interned once into a process-wide table. Each distinct string
//! gets one immortal entry holding its unique id and the leaked text, and a
//! [`Symbol`] is a `&'static` pointer to its entry: one word, so a
//! [`crate::Value`] is two. Identity is the entry's address (interning
//! dedups, so equal texts share one entry), and resolution, display and
//! *ordering* read the entry, never the interner — ordering in particular
//! sits on the engine's hot path through td-db's sorted relations, the
//! persistent treap `td_db::ord::OrdMap`.
//!
//! The table is sharded: each string hashes to one of `SHARDS` independent
//! `RwLock`-protected maps, and the overwhelmingly common case — interning a
//! string that already exists — takes only a read lock on one shard. This
//! keeps the interner off the contention profile of the parallel search
//! backend, where every worker thread interns during parsing-free operation
//! only rarely, but many threads may still race on warm-up. Symbols are
//! `Copy + Send + Sync`; everything they point at is immortal.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

/// One interned string: what a [`Symbol`] points at. Leaked, never freed.
struct Entry {
    id: u32,
    text: &'static str,
}

/// An interned string. Cheap to copy, compare and hash.
///
/// Equality compares entry addresses (one word compare, no lookup);
/// ordering and *hashing* are textual, so sorted containers, displays and —
/// crucially — the 128-bit content digests built on `Hash` are deterministic
/// across runs and across *processes*, regardless of interning sequence.
/// Interner ids and entry addresses depend on what was interned first
/// (program text vs a recovered snapshot, worker-thread races); the
/// persisted digests in `td-store` would be unverifiable in any later
/// process if hashes leaked them.
#[derive(Clone, Copy)]
pub struct Symbol(&'static Entry);

impl PartialEq for Symbol {
    fn eq(&self, other: &Symbol) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Symbol {}

impl Hash for Symbol {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Text, not id or address: both depend on interning order, which
        // differs between processes (and between threads racing to
        // intern). Interning dedups, so entry identity and text equality
        // coincide — hashing the text keeps `Hash`/`Eq` consistent while
        // making every derived hash (treap priorities, relation digests,
        // the persisted store digests) a pure function of content.
        self.0.text.hash(state);
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Symbol) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Symbol) -> std::cmp::Ordering {
        if self == other {
            std::cmp::Ordering::Equal
        } else {
            self.0.text.cmp(other.0.text)
        }
    }
}

/// Shard count; a power of two so shard selection is a mask.
const SHARDS: usize = 16;

struct Interner {
    shards: [RwLock<HashMap<&'static str, Symbol>>; SHARDS],
    next_id: AtomicU32,
    /// Payload bytes leaked so far (string text only, not map overhead).
    /// The table is append-only, so this is exactly the process-lifetime
    /// interner footprint — `td serve` reports it so unbounded growth in a
    /// long-running server is observable, not silent (see docs/SERVE.md).
    bytes: AtomicU64,
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| Interner {
        shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
        next_id: AtomicU32::new(0),
        bytes: AtomicU64::new(0),
    })
}

fn shard_of(s: &str) -> usize {
    // FNV-1a over the bytes; only shard selection uses this hash.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    (h as usize) & (SHARDS - 1)
}

impl Symbol {
    /// Intern `s`, returning its symbol. Repeated calls with equal strings
    /// return equal symbols, from any thread.
    pub fn intern(s: &str) -> Symbol {
        let shard = &interner().shards[shard_of(s)];
        if let Some(&sym) = shard.read().expect("symbol interner poisoned").get(s) {
            return sym;
        }
        let mut map = shard.write().expect("symbol interner poisoned");
        // Double-check: another thread may have interned between the locks.
        if let Some(&sym) = map.get(s) {
            return sym;
        }
        let id = interner().next_id.fetch_add(1, Ordering::Relaxed);
        assert!(id != u32::MAX, "interner overflow");
        let text: &'static str = Box::leak(s.to_owned().into_boxed_str());
        interner()
            .bytes
            .fetch_add(text.len() as u64, Ordering::Relaxed);
        let sym = Symbol(Box::leak(Box::new(Entry { id, text })));
        map.insert(text, sym);
        sym
    }

    /// The symbol of `s` if something has interned it, without interning
    /// it: a name nothing has interned names no predicate and no constant
    /// of any program or database.
    pub fn lookup(s: &str) -> Option<Symbol> {
        let shard = &interner().shards[shard_of(s)];
        let map = shard.read().expect("symbol interner poisoned");
        map.get(s).copied()
    }

    /// Distinct strings interned so far, process-wide. The table is
    /// append-only (symbols are immortal by design — see the module docs),
    /// so this only ever grows: long-running servers surface it as a
    /// metric rather than pretend the leak isn't there.
    pub fn interned_count() -> u64 {
        interner().next_id.load(Ordering::Relaxed) as u64
    }

    /// Total payload bytes held by the interner (excludes per-entry
    /// overhead: the 24-byte entry a symbol points at plus its map slot,
    /// roughly 64 bytes/entry on 64-bit). Grows linearly in the
    /// distinct constants a workload mentions; see the leak test below for
    /// the measured rate.
    pub fn interned_bytes() -> u64 {
        interner().bytes.load(Ordering::Relaxed)
    }

    /// The interned text (allocation- and lock-free).
    pub fn as_str(self) -> &'static str {
        self.0.text
    }

    /// Raw id, stable within a process run. Useful for dense tables. Ids are
    /// unique but not contiguous in interning order once threads race.
    pub fn id(self) -> u32 {
        self.0.id
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        self.0.text
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0.text)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.0.text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_finds_only_what_was_interned() {
        assert_eq!(Symbol::lookup("lookup_probe_never_interned"), None);
        let s = Symbol::intern("lookup_probe_interned");
        assert_eq!(Symbol::lookup("lookup_probe_interned"), Some(s));
        assert_eq!(Symbol::lookup("lookup_probe_never_interned"), None);
    }

    #[test]
    fn intern_is_idempotent() {
        let a = Symbol::intern("workflow");
        let b = Symbol::intern("workflow");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "workflow");
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let a = Symbol::intern("ins");
        let b = Symbol::intern("del");
        assert_ne!(a, b);
        assert_eq!(a.as_str(), "ins");
        assert_eq!(b.as_str(), "del");
    }

    #[test]
    fn from_str_matches_intern() {
        let a: Symbol = "task".into();
        assert_eq!(a, Symbol::intern("task"));
    }

    #[test]
    fn display_round_trips() {
        let a = Symbol::intern("genome_lab");
        assert_eq!(a.to_string(), "genome_lab");
    }

    #[test]
    fn empty_string_is_internable() {
        let a = Symbol::intern("");
        assert_eq!(a.as_str(), "");
        assert_eq!(a, Symbol::intern(""));
    }

    #[test]
    fn ordering_is_textual() {
        // Intern in reverse lexicographic order; comparison must be textual.
        let z = Symbol::intern("zzz_sym_order");
        let a = Symbol::intern("aaa_sym_order");
        assert!(a < z);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn hash_and_eq_by_identity() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Symbol::intern("x1"));
        set.insert(Symbol::intern("x1"));
        set.insert(Symbol::intern("x2"));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn many_symbols_stay_distinct() {
        let syms: Vec<Symbol> = (0..1000)
            .map(|i| Symbol::intern(&format!("s{i}")))
            .collect();
        for (i, s) in syms.iter().enumerate() {
            assert_eq!(s.as_str(), format!("s{i}"));
        }
    }

    #[test]
    fn symbols_are_usable_across_threads() {
        let a = Symbol::intern("shared");
        let handle = std::thread::spawn(move || {
            assert_eq!(a.as_str(), "shared");
            Symbol::intern("from-thread")
        });
        let b = handle.join().unwrap();
        assert_eq!(b.as_str(), "from-thread");
    }

    #[test]
    fn a_symbol_is_one_word_and_its_identity_is_its_entry() {
        assert_eq!(std::mem::size_of::<Symbol>(), 8);
        assert_eq!(std::mem::size_of::<Option<Symbol>>(), 8);
        let a = Symbol::intern("one_word_probe");
        let b = Symbol::intern(&String::from("one_word_probe"));
        assert!(std::ptr::eq(a.0, b.0));
        assert_eq!(a, b);
    }

    #[test]
    fn symbol_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Symbol>();
    }

    #[test]
    fn interner_growth_is_linear_in_distinct_strings_and_observable() {
        // The interner is an intentional leak: symbols are immortal so that
        // `as_str`/ordering stay lock-free on the engine's hot path. This
        // test pins the growth contract a long-running `td serve` relies
        // on: each *distinct* string grows the table by one entry and its
        // payload bytes (linear in distinct constants seen — payload plus
        // ~64 bytes/entry of entry and map overhead on 64-bit);
        // re-interning an existing string allocates nothing (dedup ⇒
        // steady state is flat); and both quantities are observable, so a server surfaces
        // the growth instead of hiding it. Counters are process-global and
        // other tests intern concurrently, so growth assertions are
        // one-sided (>=) and dedup is proven by id stability.
        let fresh: Vec<String> = (0..128).map(|i| format!("leak_probe_{i}")).collect();
        let fresh_bytes: u64 = fresh.iter().map(|s| s.len() as u64).sum();
        let count0 = Symbol::interned_count();
        let bytes0 = Symbol::interned_bytes();
        let first: Vec<Symbol> = fresh.iter().map(|s| Symbol::intern(s)).collect();
        assert!(Symbol::interned_count() - count0 >= 128);
        assert!(Symbol::interned_bytes() - bytes0 >= fresh_bytes);
        // Dedup: re-interning returns the same immortal entries — no new
        // ids, hence no new allocations on our behalf. (Growth on re-use
        // would be a fatal leak rate for a long-running server.)
        for (s, sym) in fresh.iter().zip(&first) {
            let again = Symbol::intern(s);
            assert_eq!(again.id(), sym.id());
            assert!(std::ptr::eq(again.as_str(), sym.as_str()));
        }
    }

    #[test]
    fn concurrent_interning_agrees_on_identity() {
        // Many threads intern overlapping string sets; all must agree.
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..200)
                        .map(|i| Symbol::intern(&format!("race_{}", (i + t) % 100)))
                        .map(|s| (s.as_str(), s.id()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let mut by_text: std::collections::HashMap<&str, u32> = std::collections::HashMap::new();
        for run in &results {
            for (text, id) in run {
                let prev = by_text.insert(text, *id);
                if let Some(prev) = prev {
                    assert_eq!(prev, *id, "{text} interned to two ids");
                }
            }
        }
    }
}
