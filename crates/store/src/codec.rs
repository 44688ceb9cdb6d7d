//! The `td-store/v1` binary codec.
//!
//! Everything persisted goes through two layers:
//!
//! 1. **Payload encoding** — compact, deterministic serialization of values,
//!    tuples, relations and whole databases: LEB128 varints for lengths and
//!    counts, zigzag varints for integers, length-prefixed UTF-8 for
//!    symbols. Relations serialize their tuples in sorted order and the
//!    relation map is a `BTreeMap`, so encoding is a pure function of
//!    database *content* — content-equal databases encode byte-identically.
//! 2. **Page framing** — each payload is wrapped in a checksummed page:
//!    `[len: u32 LE][fnv64(payload): u64 LE][payload]`. A reader that finds
//!    a short header, a length running past end-of-file, or a checksum
//!    mismatch reports a *torn frame* rather than an error — the write was
//!    cut mid-flight and everything from that offset on is discarded.
//!
//! No external serialization dependency: like `td_engine::obs`'s JSON
//! writers, the codec is hand-rolled and versioned by [`FORMAT_TAG`].

use std::fmt;
use td_core::{Pred, Value};
use td_db::{Database, Delta, DeltaOp, Tuple};

/// Format tag written at the head of every store file; bump on breaking
/// changes to either layer.
pub const FORMAT_TAG: &[u8; 12] = b"td-store/v1\n";

/// File-kind tag for snapshots (follows [`FORMAT_TAG`]).
pub const KIND_SNAPSHOT: &[u8; 4] = b"snap";
/// File-kind tag for write-ahead logs (follows [`FORMAT_TAG`]).
pub const KIND_WAL: &[u8; 4] = b"wal\n";

/// Bytes of the page frame header: `u32` length + `u64` checksum.
pub const FRAME_HEADER: usize = 4 + 8;

/// Decode-side failures. Torn frames are *not* errors (see
/// [`read_frame`]); these are structural violations inside a page whose
/// checksum verified, or a bad file header.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CodecError {
    /// File does not start with `td-store/v1` + the expected kind tag.
    BadHeader { expected: &'static str },
    /// Ran out of bytes inside a checksum-verified payload.
    Truncated { context: &'static str },
    /// An unknown tag byte.
    BadTag { context: &'static str, tag: u8 },
    /// Symbol bytes were not UTF-8.
    BadUtf8,
    /// A declared length was absurd (guards against allocating on garbage).
    BadLength { context: &'static str, len: u64 },
    /// Payload had trailing bytes after a complete decode.
    TrailingBytes { extra: usize },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadHeader { expected } => {
                write!(f, "missing `td-store/v1` {expected} header")
            }
            CodecError::Truncated { context } => write!(f, "payload truncated in {context}"),
            CodecError::BadTag { context, tag } => write!(f, "unknown tag {tag} in {context}"),
            CodecError::BadUtf8 => write!(f, "symbol is not valid UTF-8"),
            CodecError::BadLength { context, len } => {
                write!(f, "implausible length {len} in {context}")
            }
            CodecError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after payload")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// FNV-1a over `bytes`, the page checksum. Not cryptographic — it defends
/// against torn writes and bit rot, not adversaries (the digest comparison
/// on load is the content-level check).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

// ---------------------------------------------------------------------------
// Primitive writers/readers
// ---------------------------------------------------------------------------

/// Append-only payload encoder.
#[derive(Default, Debug)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// The encoded payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// LEB128 unsigned varint.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Zigzag-encoded signed varint.
    pub fn put_signed(&mut self, v: i64) {
        self.put_varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Raw little-endian `u128` (used for digests; fixed width keeps them
    /// greppable in hexdumps).
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed byte string.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_varint(b.len() as u64);
        self.buf.extend_from_slice(b);
    }
}

/// Cursor over a checksum-verified payload.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless the payload was consumed exactly.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes {
                extra: self.remaining(),
            })
        }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// LEB128 unsigned varint.
    pub fn varint(&mut self, context: &'static str) -> Result<u64, CodecError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.take(1, context)?[0];
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(CodecError::BadLength {
            context,
            len: u64::MAX,
        })
    }

    /// Zigzag-encoded signed varint.
    pub fn signed(&mut self, context: &'static str) -> Result<i64, CodecError> {
        let z = self.varint(context)?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Raw little-endian `u128`.
    pub fn u128(&mut self, context: &'static str) -> Result<u128, CodecError> {
        let b = self.take(16, context)?;
        Ok(u128::from_le_bytes(b.try_into().expect("16 bytes")))
    }

    /// Length-prefixed byte string. `max` bounds the declared length so a
    /// corrupt prefix cannot drive a giant allocation.
    pub fn bytes(&mut self, context: &'static str, max: u64) -> Result<&'a [u8], CodecError> {
        let len = self.varint(context)?;
        if len > max || len > self.remaining() as u64 {
            return Err(CodecError::BadLength { context, len });
        }
        self.take(len as usize, context)
    }
}

// ---------------------------------------------------------------------------
// Page framing
// ---------------------------------------------------------------------------

/// Wrap a payload in a checksummed page frame.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Result of attempting to read one page frame at an offset.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FrameOutcome<'a> {
    /// A complete, checksum-verified payload; `next` is the offset just
    /// past the frame.
    Ok { payload: &'a [u8], next: usize },
    /// Exactly at end of input — a clean end, not a torn write.
    End,
    /// The frame is incomplete or its checksum fails: a torn/corrupt tail
    /// starting at this offset. Nothing at or after it may be trusted.
    Torn { at: usize },
}

/// Read the frame starting at `offset` in `buf`.
pub fn read_frame(buf: &[u8], offset: usize) -> FrameOutcome<'_> {
    if offset == buf.len() {
        return FrameOutcome::End;
    }
    if buf.len() - offset < FRAME_HEADER {
        return FrameOutcome::Torn { at: offset };
    }
    let len = u32::from_le_bytes(buf[offset..offset + 4].try_into().expect("4 bytes")) as usize;
    let sum = u64::from_le_bytes(buf[offset + 4..offset + 12].try_into().expect("8 bytes"));
    let start = offset + FRAME_HEADER;
    if buf.len() - start < len {
        return FrameOutcome::Torn { at: offset };
    }
    let payload = &buf[start..start + len];
    if fnv64(payload) != sum {
        return FrameOutcome::Torn { at: offset };
    }
    FrameOutcome::Ok {
        payload,
        next: start + len,
    }
}

// ---------------------------------------------------------------------------
// Domain encoding
// ---------------------------------------------------------------------------

const TAG_INT: u8 = 0;
const TAG_SYM: u8 = 1;
const TAG_INS: u8 = 0;
const TAG_DEL: u8 = 1;

/// Longest symbol / tuple count the decoder will believe. Generous (the
/// engine never makes anything near this) while still rejecting garbage
/// lengths from corrupt bytes early.
const MAX_SYM_BYTES: u64 = 1 << 20;

/// Encode one value.
pub fn put_value(enc: &mut Enc, v: &Value) {
    match v {
        Value::Int(i) => {
            enc.buf.push(TAG_INT);
            enc.put_signed(*i);
        }
        Value::Sym(s) => {
            enc.buf.push(TAG_SYM);
            enc.put_bytes(s.as_str().as_bytes());
        }
    }
}

/// Decode one value.
pub fn get_value(dec: &mut Dec<'_>) -> Result<Value, CodecError> {
    let tag = dec.take(1, "value tag")?[0];
    match tag {
        TAG_INT => Ok(Value::Int(dec.signed("int value")?)),
        TAG_SYM => {
            let bytes = dec.bytes("symbol", MAX_SYM_BYTES)?;
            let s = std::str::from_utf8(bytes).map_err(|_| CodecError::BadUtf8)?;
            Ok(Value::sym(s))
        }
        tag => Err(CodecError::BadTag {
            context: "value",
            tag,
        }),
    }
}

/// Encode a tuple (arity + values).
pub fn put_tuple(enc: &mut Enc, t: &Tuple) {
    enc.put_varint(t.arity() as u64);
    for v in t.values() {
        put_value(enc, v);
    }
}

/// Decode a tuple.
pub fn get_tuple(dec: &mut Dec<'_>) -> Result<Tuple, CodecError> {
    let arity = dec.varint("tuple arity")?;
    if arity > MAX_SYM_BYTES {
        return Err(CodecError::BadLength {
            context: "tuple arity",
            len: arity,
        });
    }
    let mut values = Vec::with_capacity(arity as usize);
    for _ in 0..arity {
        values.push(get_value(dec)?);
    }
    Ok(Tuple::new(values))
}

/// Encode a predicate (name + arity).
pub fn put_pred(enc: &mut Enc, p: Pred) {
    enc.put_bytes(p.name.as_str().as_bytes());
    enc.put_varint(u64::from(p.arity));
}

/// Decode a predicate.
pub fn get_pred(dec: &mut Dec<'_>) -> Result<Pred, CodecError> {
    let bytes = dec.bytes("predicate name", MAX_SYM_BYTES)?;
    let name = std::str::from_utf8(bytes).map_err(|_| CodecError::BadUtf8)?;
    let arity = dec.varint("predicate arity")?;
    if arity > u64::from(u32::MAX) {
        return Err(CodecError::BadLength {
            context: "predicate arity",
            len: arity,
        });
    }
    Ok(Pred::new(name, arity as u32))
}

/// Encode a whole database: declared relation count, then per relation the
/// predicate, tuple count and tuples in sorted order, then the content
/// digest. Declared-but-empty relations are preserved (they carry schema),
/// and sorted tuple order makes the encoding content-deterministic.
pub fn put_database(enc: &mut Enc, db: &Database) {
    let preds: Vec<Pred> = db.preds().collect();
    enc.put_varint(preds.len() as u64);
    for p in preds {
        let rel = db.relation(p).expect("preds() yields declared relations");
        put_pred(enc, p);
        enc.put_varint(rel.len() as u64);
        for t in rel.to_vec() {
            put_tuple(enc, &t);
        }
    }
    enc.put_u128(db.digest());
}

/// Decode a database and verify the embedded digest against the digest the
/// rebuilt database computed incrementally during inserts. Returns the
/// database and that (verified) digest.
pub fn get_database(dec: &mut Dec<'_>) -> Result<(Database, u128), CodecError> {
    let nrels = dec.varint("relation count")?;
    let mut db = Database::new();
    for _ in 0..nrels {
        let pred = get_pred(dec)?;
        db = db.declare(pred);
        let ntuples = dec.varint("tuple count")?;
        for _ in 0..ntuples {
            let t = get_tuple(dec)?;
            db = db
                .insert(pred, &t)
                .map_err(|_| CodecError::BadLength {
                    context: "tuple arity vs relation arity",
                    len: t.arity() as u64,
                })?
                .0;
        }
    }
    let stored = dec.u128("database digest")?;
    Ok((db, stored))
}

/// Encode one elementary update.
pub fn put_delta_op(enc: &mut Enc, op: &DeltaOp) {
    match op {
        DeltaOp::Ins(p, t) => {
            enc.buf.push(TAG_INS);
            put_pred(enc, *p);
            put_tuple(enc, t);
        }
        DeltaOp::Del(p, t) => {
            enc.buf.push(TAG_DEL);
            put_pred(enc, *p);
            put_tuple(enc, t);
        }
    }
}

/// Decode one elementary update.
pub fn get_delta_op(dec: &mut Dec<'_>) -> Result<DeltaOp, CodecError> {
    let tag = dec.take(1, "delta op tag")?[0];
    let pred = get_pred(dec)?;
    let tuple = get_tuple(dec)?;
    match tag {
        TAG_INS => Ok(DeltaOp::Ins(pred, tuple)),
        TAG_DEL => Ok(DeltaOp::Del(pred, tuple)),
        tag => Err(CodecError::BadTag {
            context: "delta op",
            tag,
        }),
    }
}

/// Encode an ordered update log.
pub fn put_delta(enc: &mut Enc, delta: &Delta) {
    enc.put_varint(delta.len() as u64);
    for op in delta.ops() {
        put_delta_op(enc, op);
    }
}

/// Decode an ordered update log.
pub fn get_delta(dec: &mut Dec<'_>) -> Result<Delta, CodecError> {
    let n = dec.varint("delta length")?;
    let mut delta = Delta::new();
    for _ in 0..n {
        delta.push(get_delta_op(dec)?);
    }
    Ok(delta)
}

/// The `td-store/v1` + kind file header.
pub fn file_header(kind: &[u8; 4]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FORMAT_TAG.len() + kind.len());
    out.extend_from_slice(FORMAT_TAG);
    out.extend_from_slice(kind);
    out
}

/// Check a file header; returns the offset just past it.
pub fn check_header(
    buf: &[u8],
    kind: &[u8; 4],
    expected: &'static str,
) -> Result<usize, CodecError> {
    let want = file_header(kind);
    if buf.len() < want.len() || &buf[..want.len()] != want.as_slice() {
        return Err(CodecError::BadHeader { expected });
    }
    Ok(want.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_db::tuple;

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX] {
            let mut e = Enc::new();
            e.put_varint(v);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            assert_eq!(d.varint("t").unwrap(), v);
            d.finish().unwrap();
        }
    }

    #[test]
    fn signed_round_trips_extremes() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -12345, 12345] {
            let mut e = Enc::new();
            e.put_signed(v);
            let bytes = e.into_bytes();
            assert_eq!(Dec::new(&bytes).signed("t").unwrap(), v);
        }
    }

    #[test]
    fn value_and_tuple_round_trip() {
        let t = tuple!("hello", -7, "uni·code");
        let mut e = Enc::new();
        put_tuple(&mut e, &t);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(get_tuple(&mut d).unwrap(), t);
        d.finish().unwrap();
    }

    proptest::proptest! {
        /// A tuple the codec decodes, of arity 0 to 4 — across the inline
        /// boundary at two — is the tuple that was encoded: same values,
        /// code, hash, and order against the others.
        #[test]
        fn tuples_decode_as_built_across_the_inline_boundary(
            rows in proptest::collection::vec(proptest::collection::vec(-3i64..3, 0..5), 1..8),
        ) {
            use std::hash::{DefaultHasher, Hash, Hasher};
            let hash = |t: &Tuple| {
                let mut state = DefaultHasher::new();
                t.hash(&mut state);
                state.finish()
            };
            let built: Vec<Tuple> = rows
                .iter()
                .map(|row| row.iter().map(|&i| match i {
                    i if i < 0 => Value::sym(&format!("s{i}")),
                    i => Value::Int(i),
                }).collect())
                .collect();
            let decoded: Vec<Tuple> = built
                .iter()
                .map(|t| {
                    let mut e = Enc::new();
                    put_tuple(&mut e, t);
                    let bytes = e.into_bytes();
                    get_tuple(&mut Dec::new(&bytes)).unwrap()
                })
                .collect();
            for (t, d) in built.iter().zip(&decoded) {
                proptest::prop_assert_eq!(t.values(), d.values());
                proptest::prop_assert_eq!((t.code(), hash(t)), (d.code(), hash(d)));
                for other in &built {
                    proptest::prop_assert_eq!(t.cmp(other), d.cmp(other));
                }
            }
        }
    }

    #[test]
    fn database_round_trips_with_digest() {
        let mut db = Database::new().declare(Pred::new("empty", 3));
        for i in 0..10i64 {
            db = db.insert(Pred::new("e", 2), &tuple!(i, i + 1)).unwrap().0;
        }
        db = db.insert(Pred::new("flag", 0), &Tuple::unit()).unwrap().0;
        let mut e = Enc::new();
        put_database(&mut e, &db);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let (back, stored) = get_database(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(back, db);
        assert_eq!(stored, db.digest());
        assert_eq!(back.digest(), db.digest());
        // Declared empty relation survives.
        assert!(back.relation(Pred::new("empty", 3)).is_some());
    }

    #[test]
    fn encoding_is_content_deterministic() {
        let (a, _) = Database::new()
            .insert(Pred::new("q", 1), &tuple!(1))
            .unwrap();
        let (a, _) = a.insert(Pred::new("q", 1), &tuple!(2)).unwrap();
        let (b, _) = Database::new()
            .insert(Pred::new("q", 1), &tuple!(2))
            .unwrap();
        let (b, _) = b.insert(Pred::new("q", 1), &tuple!(1)).unwrap();
        let enc = |db: &Database| {
            let mut e = Enc::new();
            put_database(&mut e, db);
            e.into_bytes()
        };
        assert_eq!(enc(&a), enc(&b));
    }

    #[test]
    fn delta_round_trips() {
        let mut delta = Delta::new();
        delta.push(DeltaOp::Ins(Pred::new("a", 1), tuple!(1)));
        delta.push(DeltaOp::Del(Pred::new("b", 2), tuple!("x", -3)));
        let mut e = Enc::new();
        put_delta(&mut e, &delta);
        let bytes = e.into_bytes();
        assert_eq!(get_delta(&mut Dec::new(&bytes)).unwrap(), delta);
    }

    #[test]
    fn frame_detects_every_single_byte_corruption() {
        let payload = b"some page payload";
        let framed = frame(payload);
        assert!(matches!(
            read_frame(&framed, 0),
            FrameOutcome::Ok { payload: p, .. } if p == payload
        ));
        for i in 4..framed.len() {
            // Flipping any checksum or payload byte must be caught. (The
            // length field is exercised separately: shrinking it re-frames.)
            let mut bad = framed.clone();
            bad[i] ^= 0x40;
            assert!(
                matches!(read_frame(&bad, 0), FrameOutcome::Torn { at: 0 }),
                "byte {i} corruption undetected"
            );
        }
    }

    #[test]
    fn frame_detects_truncation_at_every_length() {
        let framed = frame(b"0123456789");
        for cut in 0..framed.len() {
            match read_frame(&framed[..cut], 0) {
                FrameOutcome::End => assert_eq!(cut, 0),
                FrameOutcome::Torn { at: 0 } => assert!(cut > 0),
                other => panic!("cut {cut}: unexpected {other:?}"),
            }
        }
        assert!(matches!(read_frame(&framed, 0), FrameOutcome::Ok { .. }));
    }

    #[test]
    fn header_checks_tag_and_kind() {
        let h = file_header(KIND_SNAPSHOT);
        assert!(check_header(&h, KIND_SNAPSHOT, "snapshot").is_ok());
        assert!(check_header(&h, KIND_WAL, "wal").is_err());
        assert!(check_header(b"garbage", KIND_SNAPSHOT, "snapshot").is_err());
    }

    #[test]
    fn decoder_rejects_garbage_lengths_without_allocating() {
        // A symbol claiming 2^40 bytes must fail cleanly.
        let mut e = Enc::new();
        e.buf.push(TAG_SYM);
        e.put_varint(1 << 40);
        let bytes = e.into_bytes();
        assert!(matches!(
            get_value(&mut Dec::new(&bytes)),
            Err(CodecError::BadLength { .. })
        ));
    }
}
