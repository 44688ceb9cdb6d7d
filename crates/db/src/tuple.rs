//! Ground tuples, and the order-preserving code each one carries.
//!
//! Every relation is a sorted map keyed by tuples, so a descent compares the
//! probe with one tuple per level. Comparing the values themselves means
//! dereferencing both tuples and walking their values one by one. Instead a
//! [`Tuple`] carries, inline, the first 8 bytes of an order-preserving
//! encoding of its values (in the style of the FoundationDB tuple layer):
//! two tuples whose codes differ compare as their codes, one word compare,
//! and only a tie reads the values.
//!
//! The encoding is self-delimiting and orders byte-lexicographically as the
//! values order:
//! - an `Int` with an `n`-byte magnitude (`0 ≤ n ≤ 8`) is the tag
//!   `0x14 + n` and its `n` minimal big-endian bytes, or for a negative
//!   `0x14 - n` and the one's complement of those bytes;
//! - a `Sym` is the tag `0x1D`, above every int tag, then its text with each
//!   `0x00` escaped as `0x00 0xFF`, then a `0x00` terminator.
//!
//! A code is that encoding's first 8 bytes as a big-endian word, zero-padded:
//! `a < b` implies `a.code() <= b.code()`. Neither the code nor a symbol's
//! address is hashed, so digests are those of the values alone.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::RangeInclusive;
use std::sync::Arc;
use td_core::Value;

/// Tag of an integer with a zero-byte magnitude, i.e. of 0.
const INT_ZERO: u64 = 0x14;
/// Tag of a symbol: above `INT_ZERO + 8`, the largest int tag.
const SYM: u64 = 0x1D;

/// The first bytes of an encoding, built a word at a time.
#[derive(Default)]
struct Code {
    /// The bytes so far, big-endian from the top, zero below them.
    word: u64,
    /// Encoded length while it is at most 8; past 8, only "more than 8".
    len: u32,
}

impl Code {
    /// The code of `values`: all of the encoding when it fits in 8 bytes,
    /// its first 8 bytes (and a `len` above 8) when it does not.
    fn of(values: impl IntoIterator<Item = Value>) -> Code {
        let mut code = Code::default();
        for v in values {
            if code.len >= 8 {
                code.len = 9;
                break;
            }
            code.value(v);
        }
        code
    }

    /// Append the top `n` bytes of `bytes`; those that no longer fit in
    /// the word are only counted.
    #[inline(always)]
    fn put(&mut self, bytes: u64, n: u32) {
        if self.len < 8 {
            self.word |= bytes >> (8 * self.len);
        }
        self.len += n;
    }

    #[inline]
    fn value(&mut self, v: Value) {
        match v {
            Value::Int(i) => {
                let magnitude = i.unsigned_abs();
                let n = (71 - magnitude.leading_zeros()) / 8;
                let (tag, body) = if i < 0 {
                    (INT_ZERO - u64::from(n), !magnitude)
                } else {
                    (INT_ZERO + u64::from(n), magnitude)
                };
                self.put(tag << 56, 1);
                if n > 0 {
                    self.put(body << (64 - 8 * n), n);
                }
            }
            Value::Sym(s) => {
                self.put(SYM << 56, 1);
                self.text(s.as_str().as_bytes());
            }
        }
    }

    /// A symbol's escaped, terminated text, as far as it fits.
    #[inline]
    fn text(&mut self, text: &[u8]) {
        // At most 7 bytes fit after the tag.
        let room = 8u32.saturating_sub(self.len) as usize;
        let k = room.min(text.len());
        let mut head = [0u8; 8];
        head[..k].copy_from_slice(&text[..k]);
        let head = u64::from_be_bytes(head);
        // Bytes past the first `k` read as 0xFF, so they hold no zero.
        if has_zero_byte(head | (u64::MAX >> (8 * k))) {
            for &b in &text[..k] {
                self.put(u64::from(b) << 56, 1);
                if b == 0 {
                    self.put(0xFF << 56, 1);
                }
            }
        } else {
            self.put(head, k as u32);
        }
        // The rest of a longer text is not looked at: one more byte says
        // "longer than 8". Otherwise the terminator, a zero byte.
        self.len += 1;
    }
}

/// A bound prefix of values, encoded once, as a prefix probe compares
/// tuples with it.
pub(crate) enum Prefix {
    /// An encoding shorter than 8 bytes. The tuples carrying the prefix are
    /// exactly those whose codes lie in `from..below`, `below` being the
    /// same bytes followed by `0xFF`: no value's tag is `0xFF`, and a
    /// symbol's terminator followed by `0xFF` is an escaped zero byte of a
    /// longer symbol instead.
    Short { from: u64, below: u64 },
    /// The first 8 bytes of a longer encoding.
    Long(u64),
}

impl Prefix {
    pub(crate) fn of(values: impl IntoIterator<Item = Value>) -> Prefix {
        let code = Code::of(values);
        match code.len {
            len @ 0..8 => Prefix::Short {
                from: code.word,
                below: code.word | 0xFF << (56 - 8 * len),
            },
            _ => Prefix::Long(code.word),
        }
    }

    /// The codes of the tuples that may carry the prefix: for a short
    /// prefix, exactly those that do.
    #[inline]
    pub(crate) fn codes(&self) -> RangeInclusive<u64> {
        match *self {
            Prefix::Short { from, below } => from..=below - 1,
            Prefix::Long(word) => word..=word,
        }
    }

    /// How `t`, a tuple whose code is an end of [`Prefix::codes`], sorts
    /// against the tuples carrying the prefix: `Less` or `Greater` when it
    /// sorts before or after all of them, `Equal` when it is one. A long
    /// prefix compares `values()`, the prefix's values, with the tuple's.
    #[inline]
    pub(crate) fn order<I: Iterator<Item = Value>>(
        &self,
        t: &Tuple,
        values: impl FnOnce() -> I,
    ) -> Ordering {
        match self {
            Prefix::Short { .. } => Ordering::Equal,
            Prefix::Long(_) => t
                .values()
                .iter()
                .zip(values())
                .map(|(v, p)| v.cmp(&p))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal),
        }
    }
}

/// True if some byte of `x` is zero.
#[inline(always)]
fn has_zero_byte(x: u64) -> bool {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    x.wrapping_sub(ONES) & !x & HIGHS != 0
}

/// A ground database tuple: an immutable, cheaply clonable vector of values,
/// with its order-preserving code (see the module docs) inline. A tuple of
/// at most two values holds them inline too, so making one allocates
/// nothing and cloning or dropping one touches no shared counter; a longer
/// one shares its values' slice. docs/ARCHITECTURE.md ("What a step
/// allocates, and what backtracking costs") says why.
#[derive(Clone)]
pub struct Tuple {
    code: u64,
    vals: Vals,
}

/// A tuple's values, by arity: inline up to two, shared beyond.
#[derive(Clone)]
enum Vals {
    Zero,
    One(Value),
    Two([Value; 2]),
    Many(Arc<[Value]>),
}

impl Tuple {
    /// Build from values.
    pub fn new(values: Vec<Value>) -> Tuple {
        match values.len() {
            0..=2 => values.into_iter().collect(),
            _ => Tuple::of(Vals::Many(values.into())),
        }
    }

    fn of(vals: Vals) -> Tuple {
        let mut tuple = Tuple { code: 0, vals };
        tuple.code = Code::of(tuple.values().iter().copied()).word;
        tuple
    }

    /// The empty (zero-ary) tuple.
    pub fn unit() -> Tuple {
        Tuple::of(Vals::Zero)
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.values().len()
    }

    /// Field access.
    #[inline]
    pub fn values(&self) -> &[Value] {
        match &self.vals {
            Vals::Zero => &[],
            Vals::One(v) => std::slice::from_ref(v),
            Vals::Two(vs) => vs,
            Vals::Many(vs) => vs,
        }
    }

    /// The first 8 bytes of the tuple's order-preserving encoding, as a
    /// big-endian word: tuples whose codes differ order as their codes.
    pub fn code(&self) -> u64 {
        self.code
    }

    /// [`Tuple::code`] of the tuple of `values`, without the tuple: what a
    /// caller holding values elsewhere probes a map of tuples with
    /// ([`crate::ord::Probe`]).
    pub fn code_of(values: &[Value]) -> u64 {
        Code::of(values.iter().copied()).word
    }

    /// The tuple with its columns in `order`: what an arrangement of a
    /// relation stores in place of the tuple (see
    /// [`crate::Database::arrangement`]).
    pub fn permuted(&self, order: &[usize]) -> Tuple {
        let vals = self.values();
        order.iter().map(|&c| vals[c]).collect()
    }

    /// True if the tuple matches a binding pattern: `pattern[i]` of `None`
    /// matches anything; `Some(v)` must equal the field.
    pub fn matches(&self, pattern: &[Option<Value>]) -> bool {
        debug_assert_eq!(pattern.len(), self.arity());
        pattern
            .iter()
            .zip(self.values())
            .all(|(p, v)| p.is_none_or(|pv| pv == *v))
    }
}

/// Up to two values go inline; a third starts the shared slice, collected
/// in one allocation when the iterator knows its length.
impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Tuple {
        let mut iter = iter.into_iter();
        let vals = match iter.next() {
            None => Vals::Zero,
            Some(a) => match iter.next() {
                None => Vals::One(a),
                Some(b) => match iter.next() {
                    None => Vals::Two([a, b]),
                    Some(c) => Vals::Many([a, b, c].into_iter().chain(iter).collect()),
                },
            },
        };
        Tuple::of(vals)
    }
}

/// Codes first; the values only when the codes tie.
impl Ord for Tuple {
    fn cmp(&self, other: &Tuple) -> Ordering {
        self.code
            .cmp(&other.code)
            .then_with(|| self.values().cmp(other.values()))
    }
}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Tuple) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Tuple) -> bool {
        self.code == other.code && self.values() == other.values()
    }
}

impl Eq for Tuple {}

/// The values alone, as the derived impl of a tuple of values hashed them:
/// digests are persisted, and a code is a function of the values anyway.
impl Hash for Tuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values().hash(state);
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Tuple").field(&self.values()).finish()
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Tuple {
        Tuple::new(v)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Convenience: build a tuple from displayable pieces.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new(vec![$(::td_core::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tuple::new(vec![Value::sym("a"), Value::Int(3)]);
        assert_eq!(t.arity(), 2);
        assert_eq!(t.values()[1], Value::Int(3));
    }

    #[test]
    fn unit_tuple() {
        assert_eq!(Tuple::unit().arity(), 0);
        assert_eq!(Tuple::unit(), Tuple::new(vec![]));
    }

    #[test]
    fn pattern_matching() {
        let t = tuple!("w1", 7);
        assert!(t.matches(&[None, None]));
        assert!(t.matches(&[Some(Value::sym("w1")), None]));
        assert!(t.matches(&[Some(Value::sym("w1")), Some(Value::Int(7))]));
        assert!(!t.matches(&[Some(Value::sym("w2")), None]));
        assert!(!t.matches(&[None, Some(Value::Int(8))]));
    }

    #[test]
    fn display() {
        assert_eq!(tuple!("a", 1).to_string(), "(a, 1)");
        assert_eq!(Tuple::unit().to_string(), "()");
    }

    #[test]
    fn macro_accepts_mixed_types() {
        let t = tuple!("x", 5, "y");
        assert_eq!(t.arity(), 3);
        assert_eq!(t.values()[0], Value::sym("x"));
        assert_eq!(t.values()[1], Value::Int(5));
    }

    #[test]
    fn codes_are_the_encodings_first_bytes() {
        let code = |vals: Vec<Value>| Tuple::new(vals).code();
        let int = |i: i64| code(vec![Value::Int(i)]);
        assert_eq!(int(0), 0x14 << 56);
        assert_eq!(int(1), 0x1501 << 48);
        assert_eq!(int(-1), 0x13FE << 48);
        assert_eq!(int(255), 0x15FF << 48);
        assert_eq!(int(-256), 0x12_FEFF << 40);
        assert_eq!(int(65_536), 0x1701_0000 << 32);
        assert_eq!(int(i64::MAX), 0x1C7F_FFFF_FFFF_FFFF);
        assert_eq!(int(i64::MIN), 0x0C7F_FFFF_FFFF_FFFF);
        let sym = |s: &str| code(vec![Value::sym(s)]);
        assert_eq!(sym(""), 0x1D00 << 48);
        assert_eq!(sym("a"), 0x1D_6100 << 40);
        assert_eq!(sym("a\0b"), 0x1D61_00FF_6200 << 16);
        assert_eq!(sym("abcdefgh"), 0x1D61_6263_6465_6667);
        assert_eq!(
            code(vec![Value::Int(7), Value::sym("w1")]),
            0x1507_1D77_3100 << 16
        );
        assert_eq!(Tuple::unit().code(), 0);
    }

    #[test]
    fn equal_codes_fall_back_to_the_values() {
        let (a, b) = (tuple!("abcdefgh", 1), tuple!("abcdefgz", 0));
        assert_eq!(a.code(), b.code());
        assert!(a < b && a != b);
        assert_eq!(tuple!("a", 2).cmp(&tuple!("a\0")), Ordering::Less);
    }

    #[test]
    fn hash_and_debug_see_the_values_alone() {
        use std::hash::DefaultHasher;
        let digest = |h: &dyn Fn(&mut DefaultHasher)| {
            let mut state = DefaultHasher::new();
            h(&mut state);
            state.finish()
        };
        let t = tuple!("a", 3);
        let vals: Arc<[Value]> = t.values().into();
        assert_eq!(digest(&|s| t.hash(s)), digest(&|s| vals.hash(s)));
        assert_eq!(format!("{t:?}"), "Tuple([Sym(Symbol(\"a\")), Int(3)])");
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(tuple!(1, 2) < tuple!(1, 3));
        assert!(tuple!(1) < tuple!(1, 0));
    }
}
