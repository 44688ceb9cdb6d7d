//! The logical write-ahead log (`wal.tdl`).
//!
//! One checksummed record per *committed* transaction: the record carries a
//! sequence number, the ordered `ins`/`del` delta the engine produced, and
//! the 128-bit content digest of the database *after* the delta. Appends are
//! `fsync`'d before the commit is acknowledged, so an acknowledged
//! transaction survives a crash.
//!
//! The log is *logical*: it replays elementary updates against the
//! snapshot, not file pages — the same shape as Wielemaker's transaction
//! journal for the logical update view, and exactly the delta objects the
//! engine's committed-path semantics already define.
//!
//! ## Torn-tail rule
//!
//! A crash can cut the last record anywhere, byte-granular. The reader
//! walks frames from the front; the first frame that is short, overruns the
//! file, or fails its checksum marks the **torn tail** — that record and
//! everything after it never happened. Because a record is only
//! acknowledged after `fsync`, the torn record is always an unacknowledged
//! one; dropping it is correct, not lossy.
//!
//! ## Group records
//!
//! [`Wal::append_group`] — the one writer — puts a batch of commit records
//! inside **one** frame, fsync'd once: the group-commit discipline
//! `td serve` uses to amortize the fsync bound across
//! concurrently-arriving transactions. A payload of several records starts
//! with the sentinel seq [`GROUP_SENTINEL`] (a value no real record can
//! carry: seqs are contiguous from 0, so reaching it would take 2^64 − 1
//! commits), followed by a record count and the records themselves. A
//! batch of one is the bare record, the framing every log had before group
//! commit existed, so those logs still parse. Because the frame
//! checksum covers the whole group, a crash mid-group tears the *entire*
//! group — recovery yields a prefix of whole groups, never a torn one,
//! and every record in the torn group was by construction unacknowledged.

use crate::codec::{
    self, check_header, file_header, frame, read_frame, Dec, Enc, FrameOutcome, KIND_WAL,
};
use crate::{io_err, Result, StoreError};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use td_db::Delta;

/// File name of the WAL inside a store directory.
pub const WAL_FILE: &str = "wal.tdl";

/// Sentinel seq value opening a group-record payload (see module docs).
pub const GROUP_SENTINEL: u64 = u64::MAX;

/// One committed-transaction record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WalRecord {
    /// Position in the commit sequence since the snapshot (0-based,
    /// contiguous).
    pub seq: u64,
    /// Content digest of the database after applying [`WalRecord::delta`].
    pub post_digest: u128,
    /// The committed elementary updates, in application order.
    pub delta: Delta,
}

/// What the reader found at the end of the log.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WalTail {
    /// The log ends exactly on a record boundary.
    Clean,
    /// A torn or corrupt frame begins at this byte offset; `dropped` bytes
    /// follow it.
    Torn { at: u64, dropped: u64 },
}

/// A fully scanned log.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WalContents {
    /// Digest of the snapshot state this log extends.
    pub base_digest: u128,
    /// Checksum-verified records before the tail, in order.
    pub records: Vec<WalRecord>,
    /// Record count of each verified frame, in file order: `1` for a
    /// single-record frame, `k >= 1` for a group. `groups.iter().sum()` ==
    /// `records.len()`. `td db log` and the serve stats read batching off
    /// this.
    pub groups: Vec<u64>,
    /// Tail state.
    pub tail: WalTail,
    /// Byte offset just past the last verified record (where an append
    /// after recovery must resume).
    pub valid_len: u64,
}

/// Payload of one frame: the records of a batch in seq order, behind the
/// sentinel and their count when there is more than one.
fn batch_payload(first_seq: u64, entries: &[(&Delta, u128)]) -> Vec<u8> {
    let mut enc = Enc::new();
    if entries.len() > 1 {
        enc.put_varint(GROUP_SENTINEL);
        enc.put_varint(entries.len() as u64);
    }
    for (i, (delta, post_digest)) in entries.iter().enumerate() {
        enc.put_varint(first_seq + i as u64);
        enc.put_u128(*post_digest);
        codec::put_delta(&mut enc, delta);
    }
    enc.into_bytes()
}

fn parse_one_record(dec: &mut Dec<'_>, seq: u64) -> Result<WalRecord> {
    let post_digest = dec.u128("record post-digest")?;
    let delta = codec::get_delta(dec)?;
    Ok(WalRecord {
        seq,
        post_digest,
        delta,
    })
}

/// Parse one frame payload: either a single record or a whole group.
fn parse_frame_records(payload: &[u8]) -> Result<Vec<WalRecord>> {
    let mut dec = Dec::new(payload);
    let first = dec.varint("record seq")?;
    let mut out = Vec::new();
    if first == GROUP_SENTINEL {
        let count = dec.varint("group count")?;
        if count == 0 {
            return Err(StoreError::Corrupt("empty wal record group".into()));
        }
        for _ in 0..count {
            let seq = dec.varint("group record seq")?;
            out.push(parse_one_record(&mut dec, seq)?);
        }
    } else {
        out.push(parse_one_record(&mut dec, first)?);
    }
    dec.finish()?;
    Ok(out)
}

/// The header + base-digest page a fresh WAL starts with.
pub fn wal_prefix(base_digest: u128) -> Vec<u8> {
    let mut out = file_header(KIND_WAL);
    let mut enc = Enc::new();
    enc.put_u128(base_digest);
    out.extend_from_slice(&frame(&enc.into_bytes()));
    out
}

/// Parse a WAL byte image. Structural damage to the header or base page is
/// a hard error (the file does not identify its base state); damage in the
/// record region is a torn tail, reported, never replayed past.
pub fn parse_wal(bytes: &[u8]) -> Result<WalContents> {
    let offset = check_header(bytes, KIND_WAL, "wal")?;
    let (base_digest, mut at) = match read_frame(bytes, offset) {
        FrameOutcome::Ok { payload, next } => {
            let mut dec = Dec::new(payload);
            let d = dec.u128("wal base digest")?;
            dec.finish()?;
            (d, next)
        }
        _ => {
            return Err(StoreError::Corrupt(
                "wal base-digest page missing or corrupt".into(),
            ))
        }
    };
    let mut records: Vec<WalRecord> = Vec::new();
    let mut groups = Vec::new();
    loop {
        match read_frame(bytes, at) {
            FrameOutcome::End => {
                return Ok(WalContents {
                    base_digest,
                    records,
                    groups,
                    tail: WalTail::Clean,
                    valid_len: at as u64,
                });
            }
            FrameOutcome::Torn { at: torn_at } => {
                return Ok(WalContents {
                    base_digest,
                    records,
                    groups,
                    tail: WalTail::Torn {
                        at: torn_at as u64,
                        dropped: (bytes.len() - torn_at) as u64,
                    },
                    valid_len: torn_at as u64,
                });
            }
            FrameOutcome::Ok { payload, next } => {
                let recs = parse_frame_records(payload)?;
                groups.push(recs.len() as u64);
                for rec in recs {
                    if rec.seq != records.len() as u64 {
                        return Err(StoreError::Corrupt(format!(
                            "wal record at byte {at} carries seq {} (expected {})",
                            rec.seq,
                            records.len()
                        )));
                    }
                    records.push(rec);
                }
                at = next;
            }
        }
    }
}

/// Read and parse the WAL at `path`.
pub fn read_wal(path: &Path) -> Result<WalContents> {
    let bytes = fs::read(path).map_err(|e| io_err(path, e))?;
    parse_wal(&bytes)
}

/// An open, append-able WAL handle.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: fs::File,
    next_seq: u64,
}

impl Wal {
    /// Create a fresh WAL for a base state, atomically (temp + rename), and
    /// open it for appending.
    pub fn create(path: &Path, base_digest: u128) -> Result<Wal> {
        let tmp = path.with_extension("tdl.tmp");
        let mut f = fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        f.write_all(&wal_prefix(base_digest))
            .map_err(|e| io_err(&tmp, e))?;
        f.sync_all().map_err(|e| io_err(&tmp, e))?;
        drop(f);
        fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
        Wal::open_at(path, wal_prefix(base_digest).len() as u64, 0)
    }

    /// Open an existing WAL for appending after recovery scanned it:
    /// truncate away any torn tail at `valid_len`, resume at `next_seq`.
    pub fn open_at(path: &Path, valid_len: u64, next_seq: u64) -> Result<Wal> {
        let file = fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        file.set_len(valid_len).map_err(|e| io_err(path, e))?;
        file.sync_all().map_err(|e| io_err(path, e))?;
        let mut wal = Wal {
            path: path.to_owned(),
            file,
            next_seq,
        };
        use std::io::Seek;
        wal.file
            .seek(std::io::SeekFrom::End(0))
            .map_err(|e| io_err(&wal.path, e))?;
        Ok(wal)
    }

    /// Sequence number the next append will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Append a batch of committed transactions — each delta with the
    /// digest of the database after it — as **one** frame with **one**
    /// `fsync`, the fsync-on-commit discipline: when this returns `Ok`, the
    /// records survive any crash. Returns the seq of the first record; the
    /// batch occupies contiguous seqs after it. All records of the batch
    /// become durable together: a crash mid-write tears the single frame,
    /// dropping the whole (entirely unacknowledged) batch.
    pub fn append_group(&mut self, entries: &[(&Delta, u128)]) -> Result<u64> {
        assert!(!entries.is_empty(), "empty commit group");
        let first_seq = self.next_seq;
        let page = frame(&batch_payload(first_seq, entries));
        self.file
            .write_all(&page)
            .map_err(|e| io_err(&self.path, e))?;
        self.file.sync_all().map_err(|e| io_err(&self.path, e))?;
        self.next_seq += entries.len() as u64;
        Ok(first_seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_core::Pred;
    use td_db::{tuple, Database, DeltaOp};

    fn temp_wal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("td-store-wal-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Append one record — the batch of one.
    fn append(wal: &mut Wal, delta: &Delta, post_digest: u128) -> u64 {
        wal.append_group(&[(delta, post_digest)]).unwrap()
    }

    /// A record framed by hand, as every log held them before group commit
    /// existed: seq, post-digest, delta — no sentinel, no count.
    fn bare_record(seq: u64, post_digest: u128, delta: &Delta) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.put_varint(seq);
        enc.put_u128(post_digest);
        codec::put_delta(&mut enc, delta);
        frame(&enc.into_bytes())
    }

    fn sample_delta(i: i64) -> Delta {
        let mut d = Delta::new();
        d.push(DeltaOp::Ins(Pred::new("t", 1), tuple!(i)));
        if i % 2 == 0 {
            d.push(DeltaOp::Del(Pred::new("t", 1), tuple!(i - 1)));
        }
        d
    }

    #[test]
    fn append_and_read_back() {
        let path = temp_wal("append_read.tdl");
        let mut wal = Wal::create(&path, 0xbeef).unwrap();
        let mut db = Database::new();
        for i in 0..5i64 {
            let delta = sample_delta(i);
            db = delta.replay(&db).unwrap();
            let seq = append(&mut wal, &delta, db.digest());
            assert_eq!(seq, i as u64);
        }
        let contents = read_wal(&path).unwrap();
        assert_eq!(contents.base_digest, 0xbeef);
        assert_eq!(contents.records.len(), 5);
        assert_eq!(contents.tail, WalTail::Clean);
        assert_eq!(contents.records[3].delta, sample_delta(3));
        assert_eq!(contents.records[4].post_digest, db.digest());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_cut_at_every_truncation_point() {
        let path = temp_wal("torn.tdl");
        let mut wal = Wal::create(&path, 7).unwrap();
        let mut boundaries = vec![fs::metadata(&path).unwrap().len()];
        for i in 0..3i64 {
            append(&mut wal, &sample_delta(i), i as u128);
            boundaries.push(fs::metadata(&path).unwrap().len());
        }
        drop(wal);
        let full = fs::read(&path).unwrap();
        for cut in boundaries[0]..=*boundaries.last().unwrap() {
            let contents = parse_wal(&full[..cut as usize]).unwrap();
            // Number of complete records whose boundary is <= cut.
            let expect = boundaries.iter().filter(|b| **b <= cut).count() - 1;
            assert_eq!(contents.records.len(), expect, "cut at {cut}");
            if boundaries.contains(&cut) {
                assert_eq!(contents.tail, WalTail::Clean, "cut at {cut}");
            } else {
                assert!(
                    matches!(contents.tail, WalTail::Torn { .. }),
                    "cut at {cut}"
                );
            }
            assert_eq!(
                contents.valid_len,
                *boundaries.iter().filter(|b| **b <= cut).max().unwrap()
            );
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopen_resumes_after_torn_tail() {
        let path = temp_wal("resume.tdl");
        let mut wal = Wal::create(&path, 1).unwrap();
        append(&mut wal, &sample_delta(0), 10);
        append(&mut wal, &sample_delta(1), 11);
        drop(wal);
        // Tear the second record.
        let len = fs::metadata(&path).unwrap().len();
        let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        let mut wal = Wal::open_at(&path, scan.valid_len, scan.records.len() as u64).unwrap();
        append(&mut wal, &sample_delta(2), 12);
        drop(wal);
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.tail, WalTail::Clean);
        let seqs: Vec<u64> = scan.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
        assert_eq!(scan.records[1].post_digest, 12);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn out_of_order_seq_is_corruption_not_tail() {
        let mut bytes = wal_prefix(0);
        bytes.extend_from_slice(&bare_record(1, 0, &Delta::new()));
        match parse_wal(&bytes) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("seq"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn damaged_base_page_is_a_hard_error() {
        let mut bytes = wal_prefix(42);
        let n = bytes.len();
        bytes[n - 1] ^= 0xff;
        assert!(matches!(parse_wal(&bytes), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn group_append_reads_back_as_contiguous_records() {
        let path = temp_wal("group_read.tdl");
        let mut wal = Wal::create(&path, 9).unwrap();
        append(&mut wal, &sample_delta(0), 100);
        let deltas: Vec<Delta> = (1..4i64).map(sample_delta).collect();
        let batch: Vec<(&Delta, u128)> = deltas.iter().zip(101..).collect();
        let first = wal.append_group(&batch).unwrap();
        assert_eq!(first, 1);
        assert_eq!(wal.next_seq(), 4);
        append(&mut wal, &sample_delta(4), 104);
        drop(wal);
        let contents = read_wal(&path).unwrap();
        assert_eq!(contents.tail, WalTail::Clean);
        let seqs: Vec<u64> = contents.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        assert_eq!(contents.groups, vec![1, 3, 1]);
        assert_eq!(contents.records[2].delta, sample_delta(2));
        assert_eq!(contents.records[3].post_digest, 103);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_of_one_is_byte_identical_to_single_record() {
        // The one writer, handed one record, writes the old on-disk framing
        // byte for byte — `td run --db` and low-concurrency serve traffic
        // leave the log they always left.
        let path = temp_wal("group_one.tdl");
        let mut wal = Wal::create(&path, 5).unwrap();
        wal.append_group(&[(&sample_delta(1), 77)]).unwrap();
        drop(wal);
        let mut by_hand = wal_prefix(5);
        by_hand.extend_from_slice(&bare_record(0, 77, &sample_delta(1)));
        assert_eq!(fs::read(&path).unwrap(), by_hand);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_group_is_dropped_whole() {
        let path = temp_wal("group_torn.tdl");
        let mut wal = Wal::create(&path, 3).unwrap();
        append(&mut wal, &sample_delta(0), 10);
        let solo_len = fs::metadata(&path).unwrap().len();
        let deltas: Vec<Delta> = (1..5i64).map(sample_delta).collect();
        let batch: Vec<(&Delta, u128)> = deltas.iter().zip(11..).collect();
        wal.append_group(&batch).unwrap();
        drop(wal);
        let full = fs::read(&path).unwrap();
        // A cut at the group boundary is a clean end; every cut strictly
        // inside the group frame drops the whole group — never a prefix of
        // its records.
        let boundary = parse_wal(&full[..solo_len as usize]).unwrap();
        assert_eq!(boundary.records.len(), 1);
        assert!(matches!(boundary.tail, WalTail::Clean));
        for cut in (solo_len + 1)..(full.len() as u64) {
            let contents = parse_wal(&full[..cut as usize]).unwrap();
            assert_eq!(contents.records.len(), 1, "cut at {cut}");
            assert_eq!(contents.groups, vec![1], "cut at {cut}");
            assert_eq!(contents.valid_len, solo_len, "cut at {cut}");
            assert!(
                matches!(contents.tail, WalTail::Torn { .. }),
                "cut at {cut}"
            );
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_with_wrong_inner_seq_is_corruption() {
        let mut bytes = wal_prefix(0);
        // First record of the group claims seq 1 on an empty log.
        let (a, b) = (Delta::new(), Delta::new());
        bytes.extend_from_slice(&frame(&batch_payload(1, &[(&a, 0), (&b, 0)])));
        match parse_wal(&bytes) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("seq"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_group_payload_is_corruption() {
        let mut bytes = wal_prefix(0);
        let mut enc = crate::codec::Enc::new();
        enc.put_varint(GROUP_SENTINEL);
        enc.put_varint(0);
        bytes.extend_from_slice(&frame(&enc.into_bytes()));
        assert!(matches!(parse_wal(&bytes), Err(StoreError::Corrupt(_))));
    }
}
