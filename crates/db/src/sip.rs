//! The crate's one hash function: SipHash-1-3 with zero keys, the
//! algorithm behind std's `DefaultHasher`, over one or two lanes in a
//! single pass.
//!
//! Everything this crate hashes goes through [`Sip`]: a tuple's 128-bit
//! digest member and a relation's contribution to the database digest.
//! Nothing else is hashed: the B+-tree under every relation places a key by
//! its order alone (docs/ARCHITECTURE.md, "Below the engine"), and the low
//! lane alone (`Sip::new`) is left to the tests below, as the oracle's
//! counterpart. The digests are persisted (WAL records, snapshot
//! headers), so their algorithm belongs here, frozen, and not to a std type
//! whose algorithm may change between releases. The outputs equal what
//! `DefaultHasher` produced for the same `Hash` calls on a little-endian
//! target (the tests below check it), so no persisted digest changed.
//!
//! A two-lane digest is the hash of a byte stream in the low lane and of a
//! seed word followed by the same stream in the high lane. The seed is one
//! whole 64-bit word, so after it both lanes buffer the stream at the same
//! alignment: [`Sip`] keeps one tail for both, starts the high lane from
//! the state after its seed (a constant), and compresses every word into
//! both states side by side. Integer writes go in as whole words rather
//! than as byte slices.

use std::hash::Hasher;

/// One SipHash-1-3 state.
#[derive(Clone, Copy)]
struct State {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
}

impl State {
    /// The initial state under keys `(0, 0)`.
    const INIT: State = State {
        v0: 0x736f_6d65_7073_6575,
        v1: 0x646f_7261_6e64_6f6d,
        v2: 0x6c79_6765_6e65_7261,
        v3: 0x7465_6462_7974_6573,
    };

    #[inline(always)]
    const fn round(&mut self) {
        self.v0 = self.v0.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(13) ^ self.v0;
        self.v0 = self.v0.rotate_left(32);
        self.v2 = self.v2.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(16) ^ self.v2;
        self.v0 = self.v0.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(21) ^ self.v0;
        self.v2 = self.v2.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(17) ^ self.v2;
        self.v2 = self.v2.rotate_left(32);
    }

    /// Compress one message word (one c-round).
    #[inline(always)]
    const fn absorb(&mut self, m: u64) {
        self.v3 ^= m;
        self.round();
        self.v0 ^= m;
    }

    /// The hash of a stream of `length` bytes whose last `length % 8` are
    /// `tail`, little-endian (three d-rounds).
    #[inline(always)]
    fn finish(mut self, length: usize, tail: u64) -> u64 {
        let b = ((length as u64) << 56) | tail;
        self.absorb(b);
        self.v2 ^= 0xff;
        self.round();
        self.round();
        self.round();
        self.v0 ^ self.v1 ^ self.v2 ^ self.v3
    }
}

/// A SipHash-1-3 hasher over the low lane and, when `HIGH`, a high lane
/// seeded by one word ([`Sip::seeded`]). As a [`Hasher`] it finishes with
/// the low lane; [`Sip::finish128`] returns both.
#[derive(Clone, Copy)]
pub(crate) struct Sip<const HIGH: bool> {
    lo: State,
    hi: State,
    /// The bytes written since the last whole word, little-endian.
    tail: u64,
    ntail: usize,
    /// Bytes written to the low lane; the high lane has had 8 more.
    length: usize,
}

#[cfg(test)]
impl Sip<false> {
    /// The low lane alone: SipHash-1-3 of the stream.
    pub(crate) const fn new() -> Sip<false> {
        Sip {
            lo: State::INIT,
            hi: State::INIT,
            tail: 0,
            ntail: 0,
            length: 0,
        }
    }
}

impl Sip<true> {
    /// Both lanes, the high one having absorbed `seed` as its first word.
    /// `const`, so a caller's seeded start is computed once, at compile
    /// time.
    pub(crate) const fn seeded(seed: u64) -> Sip<true> {
        let mut hi = State::INIT;
        hi.absorb(seed);
        Sip {
            lo: State::INIT,
            hi,
            tail: 0,
            ntail: 0,
            length: 0,
        }
    }

    /// The high lane above the low one.
    pub(crate) fn finish128(&self) -> u128 {
        let hi = self.hi.finish(self.length + 8, self.tail);
        let lo = self.lo.finish(self.length, self.tail);
        (u128::from(hi) << 64) | u128::from(lo)
    }
}

impl<const HIGH: bool> Sip<HIGH> {
    #[inline(always)]
    fn absorb(&mut self, m: u64) {
        self.lo.absorb(m);
        if HIGH {
            self.hi.absorb(m);
        }
    }

    /// Append the low `size` bytes of `x` (`size` ≤ 8; the rest of `x` is
    /// zero): at most one word completes.
    #[inline(always)]
    fn short(&mut self, x: u64, size: usize) {
        self.length += size;
        let fill = self.ntail;
        self.tail |= x << (8 * fill);
        if fill + size < 8 {
            self.ntail += size;
            return;
        }
        self.absorb(self.tail);
        let used = 8 - fill;
        self.ntail = size - used;
        self.tail = x.checked_shr(8 * used as u32).unwrap_or(0);
    }
}

/// Up to 7 bytes as the low end of a little-endian word.
#[inline(always)]
fn load_le(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

impl<const HIGH: bool> Hasher for Sip<HIGH> {
    fn finish(&self) -> u64 {
        self.lo.finish(self.length, self.tail)
    }

    fn write(&mut self, msg: &[u8]) {
        let mut rest = msg;
        if self.ntail != 0 {
            let (head, tail) = rest.split_at(rest.len().min(8 - self.ntail));
            self.short(load_le(head), head.len());
            if self.ntail != 0 {
                return;
            }
            rest = tail;
        }
        self.length += rest.len();
        let mut words = rest.chunks_exact(8);
        for word in &mut words {
            self.absorb(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        self.tail = load_le(words.remainder());
        self.ntail = words.remainder().len();
    }

    fn write_u8(&mut self, i: u8) {
        self.short(u64::from(i), 1);
    }

    fn write_u32(&mut self, i: u32) {
        self.short(u64::from(i), 4);
    }

    fn write_u64(&mut self, i: u64) {
        self.short(i, 8);
    }

    fn write_u128(&mut self, i: u128) {
        self.short(i as u64, 8);
        self.short((i >> 64) as u64, 8);
    }

    fn write_usize(&mut self, i: usize) {
        self.short(i as u64, std::mem::size_of::<usize>());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tuple;
    use rand::prelude::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::Hash;
    use td_core::{Pred, Value};

    /// The seed of the high lane under test.
    const SEED: u64 = 0x0123_4567_89ab_cdef;

    /// `value` hashed by both lanes of the kernel, and by the oracle: two
    /// `DefaultHasher`s, the second written `SEED` first.
    fn both(value: &impl Hash) -> (u128, u128) {
        let mut sip = Sip::seeded(SEED);
        value.hash(&mut sip);
        (sip.finish128(), oracle(value))
    }

    fn oracle(value: &impl Hash) -> u128 {
        let mut lo = DefaultHasher::new();
        value.hash(&mut lo);
        let mut hi = DefaultHasher::new();
        SEED.hash(&mut hi);
        value.hash(&mut hi);
        (u128::from(hi.finish()) << 64) | u128::from(lo.finish())
    }

    /// One write of any kind the crate's `Hash` impls make.
    #[derive(Debug)]
    enum Write {
        U8(u8),
        U32(u32),
        U64(u64),
        Usize(usize),
        I64(i64),
        U128(u128),
        Str(String),
    }

    /// Writes in order, each by its own `Hash` impl.
    #[derive(Debug)]
    struct Writes(Vec<Write>);

    impl Hash for Writes {
        fn hash<H: Hasher>(&self, h: &mut H) {
            for w in &self.0 {
                match w {
                    Write::U8(i) => i.hash(h),
                    Write::U32(i) => i.hash(h),
                    Write::U64(i) => i.hash(h),
                    Write::Usize(i) => i.hash(h),
                    Write::I64(i) => i.hash(h),
                    Write::U128(i) => i.hash(h),
                    Write::Str(s) => s.as_str().hash(h),
                }
            }
        }
    }

    /// A string of at most 70 bytes, some of them multi-byte characters.
    fn random_str(rng: &mut StdRng) -> String {
        let len = rng.random_range(0..71usize);
        let mut s = String::new();
        loop {
            let c = match rng.random_range(0..4u8) {
                0 => 'é',
                _ => char::from(rng.random_range(b' '..b'~')),
            };
            if s.len() + c.len_utf8() > len {
                return s;
            }
            s.push(c);
        }
    }

    fn random_value(rng: &mut StdRng) -> Value {
        match rng.random_range(0..3u8) {
            0 => Value::Int(rng.next_u64() as i64),
            1 => Value::Int(rng.random_range(-3..3i64)),
            _ => Value::sym(&random_str(rng)),
        }
    }

    #[test]
    fn random_write_interleavings_hash_like_default_hasher_on_both_lanes() {
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..2_000 {
            let n = rng.random_range(0..12usize);
            let writes = (0..n)
                .map(|_| match rng.random_range(0..7u8) {
                    0 => Write::U8(rng.next_u64() as u8),
                    1 => Write::U32(rng.next_u32()),
                    2 => Write::U64(rng.next_u64()),
                    3 => Write::Usize(rng.next_u64() as usize),
                    4 => Write::I64(rng.next_u64() as i64),
                    5 => Write::U128(u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64())),
                    _ => Write::Str(random_str(&mut rng)),
                })
                .collect();
            let writes = Writes(writes);
            let (sip, oracle) = both(&writes);
            assert_eq!(sip, oracle, "{writes:?}");
            let mut low = Sip::new();
            writes.hash(&mut low);
            assert_eq!(low.finish(), oracle as u64, "{writes:?}");
        }
    }

    #[test]
    fn random_tuples_hash_like_default_hasher() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..2_000 {
            let arity = rng.random_range(0..6usize);
            let t: Tuple = (0..arity).map(|_| random_value(&mut rng)).collect();
            let (sip, oracle) = both(&t);
            assert_eq!(sip, oracle, "{t}");
        }
    }

    #[test]
    fn random_contribution_triples_hash_like_default_hasher() {
        let mut rng = StdRng::seed_from_u64(43);
        for _ in 0..2_000 {
            let pred = Pred::new(&random_str(&mut rng), rng.next_u32() % 9);
            let digest = u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64());
            let len = rng.random_range(0..1_000_000usize);
            let (sip, oracle) = both(&(pred, digest, len));
            assert_eq!(sip, oracle, "{pred} {digest:x} {len}");
        }
    }
}
