//! Write-ahead log: crash durability for ingested rules and facts.
//!
//! Every accepted `FACT` and every fresh rule/fact from a `LOAD` is
//! appended here and fsynced *before* it is applied to the shared database
//! and acknowledged to the client. One request's records are one write and
//! one fsync ([`Wal::append_all`]), all or nothing: a failed append cuts
//! the log back to where it was, so a refused request never comes back at
//! recovery. On startup the server replays the log, so a crash (including
//! SIGKILL) loses no acknowledged write.
//!
//! ## Record format
//!
//! The directory holds two files in one format, `snapshot.log` and
//! `wal.log`, each a flat sequence of length-prefixed, checksummed
//! records:
//!
//! ```text
//! [u32 payload length, LE] [u32 CRC-32 (IEEE) of payload, LE] [payload]
//! ```
//!
//! The payload is one tag byte and its body:
//!
//! * `F` + space + the fact atom, e.g. `F p(1, 2)`;
//! * `R` + space + the rule source, e.g. `R a(X, Y) :- p(X, Y).`;
//! * `B` + one predicate's rows: u32 LE arity, u32 LE row count (at least
//!   one), u32 LE name length, the UTF-8 name, then per value a tag byte —
//!   `0` + 8-byte LE integer, or `1` + u32 LE length + UTF-8 symbol text.
//!   Symbols are stored by name: their ids are process-interned.
//!
//! Facts and rules are text on purpose: they are parsed on replay by the
//! same parser that validated them at ingestion, and the log is greppable
//! with standard tools. Rows are typed, so recovery loads each `B` record
//! ([`datalog_engine::SharedDatabase::load_batch`]: its rows inserted in
//! order under one lock) instead of re-parsing every fact.
//!
//! ## The log and its snapshot
//!
//! In `wal.log` a *torn tail* — a record whose header, body, or checksum
//! is incomplete or corrupt, the signature of a crash mid-append — is
//! **truncated, not fatal**: recovery keeps every record up to the last
//! intact one and cuts the file there, exactly the prefix that could have
//! been acknowledged.
//!
//! An unbounded log makes restart cost proportional to history. After
//! [`Wal::compact_every`] appended records, the server writes the full
//! current state as `snapshot.log` — an `R` record per rule, then each
//! predicate's rows as `B` records — and truncates `wal.log`
//! ([`Wal::compact`]). The snapshot is renamed into place only after its
//! fsync, so it is read strictly: any framing, CRC or decode failure is
//! damage, not a torn tail. A damaged snapshot, or a snapshot an older
//! version wrote (`snapshot.manifest`, `snapshot.dat`), makes
//! [`Wal::open`] refuse the directory with an error naming the file,
//! touching nothing: starting without it would serve a table missing
//! acknowledged facts, and the next compaction would make the loss
//! permanent. Recovery replays the snapshot's records, then the log's.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use datalog_ast::{Kind, Value};
use datalog_trace::Histogram;

use crate::fault::FaultPlan;

/// CRC-32 (IEEE 802.3) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Upper bound on a single record's payload; a length prefix beyond this
/// is treated as corruption (torn tail), not an allocation request. A
/// predicate whose rows encode to more spans several `B` records.
const MAX_RECORD: usize = 16 * 1024 * 1024;

/// When to fsync the log. The server always opens its log with
/// [`FsyncPolicy::Always`]; `Never` exists so that the benchmark's layer
/// probe can price an append with and without its fsync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync every append — no acknowledged write is ever lost.
    Always,
    /// Never fsync explicitly; durability is whatever the OS page cache
    /// provides. Survives process crashes (the kernel has the bytes) but
    /// not power loss.
    Never,
}

/// One logical logged operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// A ground fact, stored as its atom text (no trailing dot).
    Fact(String),
    /// A rule, stored as its source text.
    Rule(String),
    /// Rows of one predicate, stored typed (a snapshot's `B` record).
    Batch(RunBatch),
}

/// One predicate's rows, as a snapshot stores them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunBatch {
    /// Rendered predicate name.
    pub pred: String,
    /// Tuple arity.
    pub arity: usize,
    /// Rows in their original ingestion order (ids must survive recovery).
    pub rows: Vec<Box<[Value]>>,
}

impl WalOp {
    /// Append this op's framed records to `out`: one for a fact or rule,
    /// as many `B` records as a batch needs.
    fn write_to(&self, out: &mut impl Write) -> std::io::Result<()> {
        match self {
            WalOp::Fact(text) => write_record(out, &text_payload(b'F', text)),
            WalOp::Rule(text) => write_record(out, &text_payload(b'R', text)),
            WalOp::Batch(batch) => write_batch(out, batch),
        }
    }

    fn decode(payload: &[u8]) -> Option<WalOp> {
        let (&tag, rest) = payload.split_first()?;
        if tag == b'B' {
            return decode_batch(rest).map(WalOp::Batch);
        }
        let rest = rest.strip_prefix(b" ")?;
        let text = std::str::from_utf8(rest).ok()?.to_string();
        match tag {
            b'F' => Some(WalOp::Fact(text)),
            b'R' => Some(WalOp::Rule(text)),
            _ => None,
        }
    }
}

fn text_payload(tag: u8, text: &str) -> Vec<u8> {
    let mut payload = Vec::with_capacity(text.len() + 2);
    payload.push(tag);
    payload.push(b' ');
    payload.extend_from_slice(text.as_bytes());
    payload
}

/// Frame one payload: `[len][crc][payload]`.
fn write_record(out: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_RECORD {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("a {}-byte record exceeds the log's limit", payload.len()),
        ));
    }
    out.write_all(&(payload.len() as u32).to_le_bytes())?;
    out.write_all(&crc32(payload).to_le_bytes())?;
    out.write_all(payload)
}

/// Offset of the row count in a `B` payload (after the tag and arity).
const ROWS_AT: usize = 5;

/// Write `batch` as consecutive `B` records, each holding as many rows as
/// fit in [`MAX_RECORD`], straight from the borrowed rows.
fn write_batch(out: &mut impl Write, batch: &RunBatch) -> std::io::Result<()> {
    let start = |payload: &mut Vec<u8>| {
        payload.clear();
        payload.push(b'B');
        payload.extend_from_slice(&(batch.arity as u32).to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&(batch.pred.len() as u32).to_le_bytes());
        payload.extend_from_slice(batch.pred.as_bytes());
    };
    let finish = |out: &mut _, payload: &mut Vec<u8>, rows: u32| {
        payload[ROWS_AT..ROWS_AT + 4].copy_from_slice(&rows.to_le_bytes());
        write_record(out, payload)
    };
    let mut payload = Vec::new();
    let mut rows = 0u32;
    for row in &batch.rows {
        if rows == 0 {
            start(&mut payload);
        }
        let mark = payload.len();
        for v in row.iter() {
            match v.kind() {
                Kind::Int(i) => {
                    payload.push(0);
                    payload.extend_from_slice(&i.to_le_bytes());
                }
                Kind::Sym(s) => {
                    let text = s.as_str();
                    payload.push(1);
                    payload.extend_from_slice(&(text.len() as u32).to_le_bytes());
                    payload.extend_from_slice(text.as_bytes());
                }
            }
        }
        if payload.len() > MAX_RECORD && rows > 0 {
            // This row opens the next record.
            let row_bytes = payload.split_off(mark);
            finish(out, &mut payload, rows)?;
            start(&mut payload);
            payload.extend_from_slice(&row_bytes);
            rows = 0;
        }
        rows += 1;
    }
    if rows > 0 {
        finish(out, &mut payload, rows)?;
    }
    Ok(())
}

/// The fewest bytes a `B` record spends on one value: an empty symbol's
/// tag and length.
const MIN_VALUE_BYTES: usize = 5;

/// Decode a `B` payload (after its tag). `None` on any structural mismatch
/// — short read, no rows, trailing bytes, bad UTF-8, an unknown value tag.
/// A shape the payload's bytes cannot hold is refused before anything is
/// allocated for it.
fn decode_batch(bytes: &[u8]) -> Option<RunBatch> {
    let mut pos = 0;
    let u32_at = |pos: &mut usize| -> Option<usize> {
        let raw: [u8; 4] = bytes.get(*pos..*pos + 4)?.try_into().ok()?;
        *pos += 4;
        Some(u32::from_le_bytes(raw) as usize)
    };
    let arity = u32_at(&mut pos)?;
    let rows = u32_at(&mut pos)?;
    let name_len = u32_at(&mut pos)?;
    let pred = std::str::from_utf8(bytes.get(pos..pos.checked_add(name_len)?)?).ok()?;
    pos += name_len;
    let fits = match arity {
        // A relation of arity 0 holds at most the empty tuple.
        0 => rows == 1,
        _ => {
            rows > 0
                && rows
                    .checked_mul(arity)
                    .and_then(|values| values.checked_mul(MIN_VALUE_BYTES))
                    .is_some_and(|need| need <= bytes.len() - pos)
        }
    };
    if !fits {
        return None;
    }
    let mut out = Vec::with_capacity(rows);
    for _ in 0..rows {
        let mut row = Vec::with_capacity(arity);
        for _ in 0..arity {
            let tag = *bytes.get(pos)?;
            pos += 1;
            match tag {
                0 => {
                    let raw: [u8; 8] = bytes.get(pos..pos + 8)?.try_into().ok()?;
                    pos += 8;
                    row.push(Value::int(i64::from_le_bytes(raw)));
                }
                1 => {
                    let len = u32_at(&mut pos)?;
                    let text = std::str::from_utf8(bytes.get(pos..pos.checked_add(len)?)?).ok()?;
                    pos += len;
                    row.push(Value::sym(text));
                }
                _ => return None,
            }
        }
        out.push(row.into_boxed_slice());
    }
    (pos == bytes.len()).then(|| RunBatch {
        pred: pred.to_string(),
        arity,
        rows: out,
    })
}

/// Scan one record stream. Returns the decoded ops and the byte offset
/// one past the last intact record (everything after is damage: a torn
/// tail in the log, a refusal in the snapshot).
fn scan_records(bytes: &[u8]) -> (Vec<WalOp>, usize) {
    let mut ops = Vec::new();
    let mut pos = 0usize;
    while let Some(header) = bytes.get(pos..pos + 8) {
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if len > MAX_RECORD {
            break; // Garbage length: treat as torn.
        }
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else {
            break; // Body shorter than announced: torn mid-append.
        };
        if crc32(payload) != crc {
            break; // Checksum mismatch: corrupt, cut here.
        }
        let Some(op) = WalOp::decode(payload) else {
            break; // Unknown tag: written by a future version? Cut.
        };
        ops.push(op);
        pos += 8 + len;
    }
    (ops, pos)
}

/// Refuse a WAL directory: an `InvalidData` error naming `file`.
fn refuse(file: &Path, why: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("refusing to recover from {}: {why}", file.display()),
    )
}

/// The bytes of `path`; none when there is no such file.
fn read_or_empty(path: &Path) -> std::io::Result<Vec<u8>> {
    match std::fs::read(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        read => read,
    }
}

/// fsync a file or a directory, honoring the fault plan (a failed fsync
/// means the write must not be acknowledged; whether it survives a crash
/// is undefined — precisely the semantics of real fsync failure).
/// `fdatasync` suffices: it flushes the data and the metadata needed to
/// read it back, which is a file's length and a directory's entries.
fn fsync(fault: &FaultPlan, file: &File) -> std::io::Result<()> {
    if fault.fsync_should_fail() {
        return Err(std::io::Error::other("injected fsync failure"));
    }
    file.sync_data()
}

/// The records of `dir`'s snapshot, read strictly, or a refusal of the
/// directory (see the module docs).
fn read_snapshot(dir: &Path) -> std::io::Result<Vec<WalOp>> {
    for old in ["snapshot.manifest", "snapshot.dat"] {
        let path = dir.join(old);
        if path.exists() {
            return Err(refuse(
                &path,
                "an older version's snapshot, which this version does not read",
            ));
        }
    }
    let path = snapshot_path(dir);
    let bytes = read_or_empty(&path).map_err(|e| refuse(&path, &e.to_string()))?;
    let (ops, good) = scan_records(&bytes);
    if good != bytes.len() {
        return Err(refuse(
            &path,
            &format!("damaged at byte {good} of {}", bytes.len()),
        ));
    }
    Ok(ops)
}

/// What [`Wal::open`] recovered from disk.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Every recovered record in replay order: the snapshot's, then the
    /// log's.
    pub ops: Vec<WalOp>,
    /// Records recovered from `snapshot.log`.
    pub from_snapshot: u64,
    /// Records recovered from `wal.log`.
    pub from_log: u64,
    /// Bytes cut off the log's torn tail (0 on a clean log).
    pub truncated_bytes: u64,
}

/// An open write-ahead log (plus its snapshot sibling).
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    file: File,
    policy: FsyncPolicy,
    fault: Arc<FaultPlan>,
    /// Records appended since the last compaction (persisted implicitly as
    /// the log length; rebuilt on open).
    since_snapshot: u64,
    /// Compaction threshold: snapshot + truncate after this many appended
    /// records. `0` disables automatic compaction.
    pub compact_every: u64,
    /// Total records appended over this process's lifetime.
    pub appended: u64,
    /// Snapshots written over this process's lifetime.
    pub snapshots: u64,
    /// Telemetry: append latency (one request's write + fsync), when
    /// attached.
    h_append: Option<Arc<Histogram>>,
    /// Telemetry: fsync latency alone, when attached.
    h_fsync: Option<Arc<Histogram>>,
}

fn log_path(dir: &Path) -> PathBuf {
    dir.join("wal.log")
}

fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join("snapshot.log")
}

impl Wal {
    /// Open (creating if needed) the WAL in `dir`, reading the snapshot and
    /// the log. A torn log tail is truncated on the spot so the next append
    /// lands on a clean boundary. A damaged snapshot, or one in an older
    /// format, is refused with the directory untouched (see the module
    /// docs).
    pub fn open(
        dir: &Path,
        policy: FsyncPolicy,
        compact_every: u64,
        fault: Arc<FaultPlan>,
    ) -> std::io::Result<(Wal, Recovery)> {
        std::fs::create_dir_all(dir)?;
        let mut ops = read_snapshot(dir)?;
        let from_snapshot = ops.len() as u64;

        let path = log_path(dir);
        let bytes = read_or_empty(&path)?;
        let (log_ops, good) = scan_records(&bytes);
        let from_log = log_ops.len() as u64;
        let truncated_bytes = (bytes.len() - good) as u64;
        ops.extend(log_ops);

        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false) // the intact prefix survives; set_len cuts the tail
            .read(true)
            .write(true)
            .open(&path)?;
        // Cut the torn tail (no-op on a clean log), then append from there.
        file.set_len(good as u64)?;
        file.seek(SeekFrom::End(0))?;
        // The log's directory entry must outlive a power loss too, also
        // when an earlier process created the file and died before this.
        fsync(&fault, &File::open(dir)?)?;

        Ok((
            Wal {
                dir: dir.to_path_buf(),
                file,
                policy,
                fault,
                since_snapshot: from_log,
                compact_every,
                appended: 0,
                snapshots: 0,
                h_append: None,
                h_fsync: None,
            },
            Recovery {
                ops,
                from_snapshot,
                from_log,
                truncated_bytes,
            },
        ))
    }

    /// Attach latency histograms (append wall, fsync wall) from the
    /// server's metric registry. Without them the log times nothing.
    pub fn set_metrics(&mut self, append: Arc<Histogram>, fsync: Arc<Histogram>) {
        self.h_append = Some(append);
        self.h_fsync = Some(fsync);
    }

    /// fsync the log, timed.
    fn sync(&mut self) -> std::io::Result<()> {
        let t0 = Instant::now();
        fsync(&self.fault, &self.file)?;
        if let Some(h) = &self.h_fsync {
            h.record_duration(t0.elapsed());
        }
        Ok(())
    }

    /// Append one record: [`Wal::append_all`] of one.
    pub fn append(&mut self, op: &WalOp) -> std::io::Result<()> {
        self.append_all(std::slice::from_ref(op))
    }

    /// Append one request's records with one write and one fsync, all or
    /// nothing. On any error the log is cut back to its length before the
    /// call and the error returned: the caller must not acknowledge the
    /// write, and recovery will not replay any part of it.
    pub fn append_all(&mut self, ops: &[WalOp]) -> std::io::Result<()> {
        if ops.is_empty() {
            return Ok(());
        }
        let t0 = Instant::now();
        let mut buf = Vec::new();
        for op in ops {
            op.write_to(&mut buf)?;
        }
        let start = self.file.stream_position()?;
        let written = self.file.write_all(&buf).and_then(|()| match self.policy {
            FsyncPolicy::Always => self.sync(),
            FsyncPolicy::Never => Ok(()),
        });
        if let Err(e) = written {
            self.file.set_len(start)?;
            self.file.seek(SeekFrom::Start(start))?;
            return Err(e);
        }
        self.appended += ops.len() as u64;
        self.since_snapshot += ops.len() as u64;
        if let Some(h) = &self.h_append {
            h.record_duration(t0.elapsed());
        }
        Ok(())
    }

    /// Whether enough records accumulated to warrant a snapshot.
    pub fn wants_compaction(&self) -> bool {
        self.compact_every > 0 && self.since_snapshot >= self.compact_every
    }

    /// Records appended since the last snapshot (log tail length).
    pub fn since_snapshot(&self) -> u64 {
        self.since_snapshot
    }

    /// Write the full state as `snapshot.log`, then truncate the log.
    /// `rules` are the complete current rule sources; `batches` the
    /// complete current facts, one batch per predicate in ingestion order.
    /// Whatever the state, the file operations are the same five: write
    /// `snapshot.tmp`, fsync it, rename it to `snapshot.log`, fsync the
    /// directory, truncate and fsync `wal.log`. On an error before the
    /// truncation the log is whole, and recovery reads the log on top of
    /// whichever snapshot is in place.
    pub fn compact(&mut self, rules: &[String], batches: &[RunBatch]) -> std::io::Result<()> {
        let tmp = self.dir.join("snapshot.tmp");
        let mut out = BufWriter::new(File::create(&tmp)?);
        for rule in rules {
            write_record(&mut out, &text_payload(b'R', rule))?;
        }
        for batch in batches {
            write_batch(&mut out, batch)?;
        }
        let file = out.into_inner().map_err(|e| e.into_error())?;
        fsync(&self.fault, &file)?;
        std::fs::rename(&tmp, snapshot_path(&self.dir))?;
        // Only after the rename is durable may the log shrink.
        fsync(&self.fault, &File::open(&self.dir)?)?;
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.sync()?;
        self.since_snapshot = 0;
        self.snapshots += 1;
        Ok(())
    }

    /// The log file path (tests corrupt it to simulate torn tails).
    pub fn log_file(&self) -> PathBuf {
        log_path(&self.dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(name: &str) -> TempDir {
            let p = std::env::temp_dir().join(format!(
                "xdl-wal-{}-{name}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&p);
            std::fs::create_dir_all(&p).unwrap();
            TempDir(p)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn plan() -> Arc<FaultPlan> {
        Arc::new(FaultPlan::new())
    }

    fn encode_record(op: &WalOp) -> Vec<u8> {
        let mut buf = Vec::new();
        op.write_to(&mut buf).unwrap();
        buf
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let dir = TempDir::new("roundtrip");
        let ops = vec![
            WalOp::Rule("a(X, Y) :- p(X, Y).".into()),
            WalOp::Fact("p(1, 2)".into()),
            WalOp::Fact("p(2, 3)".into()),
        ];
        {
            let (mut wal, rec) = Wal::open(&dir.0, FsyncPolicy::Always, 0, plan()).unwrap();
            assert!(rec.ops.is_empty());
            for op in &ops {
                wal.append(op).unwrap();
            }
        }
        let (_, rec) = Wal::open(&dir.0, FsyncPolicy::Always, 0, plan()).unwrap();
        assert_eq!(rec.ops, ops);
        assert_eq!(rec.from_log, 3);
        assert_eq!(rec.truncated_bytes, 0);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = TempDir::new("torn");
        {
            let (mut wal, _) = Wal::open(&dir.0, FsyncPolicy::Always, 0, plan()).unwrap();
            wal.append(&WalOp::Fact("p(1, 2)".into())).unwrap();
            wal.append(&WalOp::Fact("p(2, 3)".into())).unwrap();
        }
        // Simulate a crash mid-append: a record header announcing more
        // bytes than were written.
        let path = log_path(&dir.0);
        let clean_len = std::fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&100u32.to_le_bytes()).unwrap();
        f.write_all(&0xDEAD_BEEFu32.to_le_bytes()).unwrap();
        f.write_all(b"F p(9, 9").unwrap(); // short body
        drop(f);

        let (_, rec) = Wal::open(&dir.0, FsyncPolicy::Always, 0, plan()).unwrap();
        assert_eq!(rec.from_log, 2, "intact prefix survives");
        assert!(rec.truncated_bytes > 0);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            clean_len,
            "file physically truncated back to the last intact record"
        );
        // And the log accepts appends again.
        let (mut wal, _) = Wal::open(&dir.0, FsyncPolicy::Always, 0, plan()).unwrap();
        wal.append(&WalOp::Fact("p(9, 9)".into())).unwrap();
        let (_, rec) = Wal::open(&dir.0, FsyncPolicy::Always, 0, plan()).unwrap();
        assert_eq!(rec.from_log, 3);
    }

    #[test]
    fn corrupt_checksum_cuts_from_the_bad_record() {
        let dir = TempDir::new("crc");
        {
            let (mut wal, _) = Wal::open(&dir.0, FsyncPolicy::Always, 0, plan()).unwrap();
            for i in 0..5 {
                wal.append(&WalOp::Fact(format!("p({i})"))).unwrap();
            }
        }
        // Flip one payload byte of the third record.
        let path = log_path(&dir.0);
        let mut bytes = std::fs::read(&path).unwrap();
        let rec_len = bytes.len() / 5;
        bytes[2 * rec_len + 9] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_, rec) = Wal::open(&dir.0, FsyncPolicy::Always, 0, plan()).unwrap();
        assert_eq!(rec.from_log, 2, "records before the corruption survive");
    }

    #[test]
    fn injected_fsync_failure_surfaces_as_error() {
        let dir = TempDir::new("fsync");
        let fault = plan();
        let (mut wal, _) = Wal::open(&dir.0, FsyncPolicy::Always, 0, Arc::clone(&fault)).unwrap();
        wal.append(&WalOp::Fact("p(1)".into())).unwrap();
        fault.fail_fsync(true);
        assert!(wal.append(&WalOp::Fact("p(2)".into())).is_err());
        fault.fail_fsync(false);
        wal.append(&WalOp::Fact("p(3)".into())).unwrap();
    }

    #[test]
    fn a_failed_append_all_leaves_the_log_byte_identical() {
        let dir = TempDir::new("append-all");
        let fault = plan();
        let (mut wal, _) = Wal::open(&dir.0, FsyncPolicy::Always, 0, Arc::clone(&fault)).unwrap();
        wal.append(&WalOp::Rule("a(X) :- p(X).".into())).unwrap();
        let before = std::fs::read(log_path(&dir.0)).unwrap();
        let batch = [
            WalOp::Rule("b(X) :- q(X).".into()),
            WalOp::Fact("p(1)".into()),
            WalOp::Fact("p(2)".into()),
        ];
        fault.fail_fsync(true);
        assert!(wal.append_all(&batch).is_err());
        assert_eq!(std::fs::read(log_path(&dir.0)).unwrap(), before);
        assert_eq!((wal.appended, wal.since_snapshot()), (1, 1));
        // The next request lands on the clean boundary, and recovery sees
        // exactly the acknowledged records.
        fault.fail_fsync(false);
        wal.append_all(&batch[1..]).unwrap();
        assert_eq!((wal.appended, wal.since_snapshot()), (3, 3));
        drop(wal);
        let (_, rec) = Wal::open(&dir.0, FsyncPolicy::Always, 0, plan()).unwrap();
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(
            rec.ops,
            [
                WalOp::Rule("a(X) :- p(X).".into()),
                batch[1].clone(),
                batch[2].clone()
            ]
        );
    }

    fn batch(pred: &str, arity: usize, rows: Vec<Vec<Value>>) -> RunBatch {
        RunBatch {
            pred: pred.to_string(),
            arity,
            rows: rows.into_iter().map(Vec::into_boxed_slice).collect(),
        }
    }

    /// Every file in `dir` with its bytes.
    fn contents(dir: &Path) -> std::collections::BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .unwrap()
            .flatten()
            .map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                (name, std::fs::read(e.path()).unwrap())
            })
            .collect()
    }

    #[test]
    fn compaction_swaps_in_a_manifest_and_truncates_log() {
        let dir = TempDir::new("compact");
        let edges = vec![
            vec![Value::sym("alice"), Value::int(-7)],
            vec![
                Value::sym("bob with spaces? no: üñïçödé"),
                Value::int(i64::MAX),
            ],
            vec![Value::sym(""), Value::int(0)],
        ];
        let snapshot = [
            batch("p", 1, vec![vec![Value::int(1)], vec![Value::int(2)]]),
            batch("edge", 2, edges),
            batch("flag", 0, vec![vec![]]),
        ];
        {
            let (mut wal, _) = Wal::open(&dir.0, FsyncPolicy::Always, 3, plan()).unwrap();
            wal.append(&WalOp::Rule("a(X) :- p(X).".into())).unwrap();
            wal.append(&WalOp::Fact("p(1)".into())).unwrap();
            wal.append(&WalOp::Fact("p(2)".into())).unwrap();
            assert!(wal.wants_compaction());
            // A second compaction replaces the first's snapshot in place.
            for _ in 0..2 {
                wal.compact(&["a(X) :- p(X).".to_string()], &snapshot)
                    .unwrap();
                let names: Vec<String> = contents(&dir.0).into_keys().collect();
                assert_eq!(names, ["snapshot.log", "wal.log"]);
            }
            assert!(!wal.wants_compaction());
            assert_eq!(std::fs::metadata(log_path(&dir.0)).unwrap().len(), 0);
            // Post-compaction appends land in the (empty) log.
            wal.append(&WalOp::Fact("p(3)".into())).unwrap();
        }
        let (_, rec) = Wal::open(&dir.0, FsyncPolicy::Always, 3, plan()).unwrap();
        let mut expected = vec![WalOp::Rule("a(X) :- p(X).".into())];
        expected.extend(snapshot.iter().cloned().map(WalOp::Batch));
        // The log replays after (on top of) the snapshot.
        expected.push(WalOp::Fact("p(3)".into()));
        assert_eq!(rec.ops, expected, "symbols and ints roundtrip by value");
        assert_eq!((rec.from_snapshot, rec.from_log), (4, 1));
    }

    /// Open `dir`, expect a refusal naming `file`, and expect every byte on
    /// disk to be where it was.
    fn assert_refused_untouched(dir: &Path, file: &str) {
        let before = contents(dir);
        let err = Wal::open(dir, FsyncPolicy::Always, 0, plan()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(file), "{err}");
        assert_eq!(
            contents(dir),
            before,
            "a refused open changed the directory"
        );
    }

    /// A directory holding a snapshot of one rule and two predicates, and
    /// one record in its log.
    fn compacted(name: &str) -> TempDir {
        let dir = TempDir::new(name);
        let (mut wal, _) = Wal::open(&dir.0, FsyncPolicy::Always, 0, plan()).unwrap();
        wal.compact(
            &["a(X) :- p(X).".to_string()],
            &[
                batch("p", 1, vec![vec![Value::int(1)], vec![Value::int(2)]]),
                batch("q", 1, vec![vec![Value::int(1)], vec![Value::int(2)]]),
            ],
        )
        .unwrap();
        wal.append(&WalOp::Fact("p(3)".into())).unwrap();
        dir
    }

    #[test]
    fn a_snapshot_cut_short_or_extended_is_refused_untouched() {
        let path = |dir: &TempDir| snapshot_path(&dir.0);
        let short = compacted("short");
        let bytes = std::fs::read(path(&short)).unwrap();
        std::fs::write(path(&short), &bytes[..bytes.len() - 1]).unwrap();
        assert_refused_untouched(&short.0, "snapshot.log");

        let long = compacted("long");
        std::fs::write(path(&long), [&bytes[..], &[0x5a]].concat()).unwrap();
        assert_refused_untouched(&long.0, "snapshot.log");

        let flipped = compacted("flipped");
        let mut bytes = bytes.clone();
        *bytes.last_mut().unwrap() ^= 0xFF;
        std::fs::write(path(&flipped), &bytes).unwrap();
        assert_refused_untouched(&flipped.0, "snapshot.log");
    }

    #[test]
    fn an_older_snapshot_format_is_refused_untouched() {
        // A manifest and its run file, as an older version left them.
        let dir = compacted("manifest");
        std::fs::write(
            dir.0.join("snapshot.manifest"),
            "xdl-snapshot-manifest v1\nrule a(X) :- p(X).\nrun run-1-0.xrs 1 1 0 p\n",
        )
        .unwrap();
        std::fs::write(
            dir.0.join("run-1-0.xrs"),
            b"XRUN1\n\x00\x01\x00\x00\x00\x00\x00\x00\x00",
        )
        .unwrap();
        assert_refused_untouched(&dir.0, "snapshot.manifest");

        // An older snapshot in the record format, with a log beside it.
        let dir = TempDir::new("orphan");
        let mut buf = encode_record(&WalOp::Rule("a(X) :- p(X).".into()));
        buf.extend_from_slice(&encode_record(&WalOp::Fact("p(1)".into())));
        std::fs::write(dir.0.join("snapshot.dat"), &buf).unwrap();
        std::fs::write(log_path(&dir.0), encode_record(&WalOp::Fact("p(2)".into()))).unwrap();
        assert_refused_untouched(&dir.0, "snapshot.dat");
    }

    /// A predicate whose rows encode to more than one record's limit spans
    /// consecutive `B` records, and loading them in order gives every row
    /// its id back.
    #[test]
    fn a_predicate_larger_than_a_record_keeps_its_row_ids() {
        use datalog_ast::PredRef;
        use datalog_engine::SharedDatabase;

        // Rows (i, s) with one 4 KiB symbol s and i descending: ingestion
        // order is not sorted order, so a reordering shows.
        let long = "x".repeat(4096);
        let n = MAX_RECORD / (9 + 5 + long.len()) + 100;
        let rows: Vec<Box<[Value]>> = (0..n as i64)
            .rev()
            .map(|i| vec![Value::int(i), Value::sym(&long)].into_boxed_slice())
            .collect();
        let big = RunBatch {
            pred: "big".into(),
            arity: 2,
            rows,
        };
        let dir = TempDir::new("big");
        {
            let (mut wal, _) = Wal::open(&dir.0, FsyncPolicy::Never, 0, plan()).unwrap();
            wal.compact(&[], std::slice::from_ref(&big)).unwrap();
        }
        let (_, rec) = Wal::open(&dir.0, FsyncPolicy::Never, 0, plan()).unwrap();
        assert_eq!(rec.from_snapshot, 2, "the rows span two records");
        let db = SharedDatabase::new();
        let pred = PredRef::new("big");
        for op in rec.ops {
            let WalOp::Batch(b) = op else {
                panic!("{op:?}")
            };
            assert_eq!((b.pred.as_str(), b.arity), ("big", 2));
            db.load_batch(&pred, b.arity, b.rows).unwrap();
        }
        let loaded = db.snapshot().rows(&pred);
        assert_eq!(loaded.len(), n);
        assert!(loaded.iter().zip(&big.rows).all(|(l, r)| l[..] == r[..]));
    }

    /// A crash between compaction's rename and its truncation leaves a
    /// `snapshot.log` beside the whole `wal.log` it covers. Recovery
    /// replays both, and the log's records are duplicates, not errors.
    #[test]
    fn a_snapshot_beside_the_log_it_covers_recovers_the_same_state() {
        use crate::{ServerConfig, ServerState};

        let dir = TempDir::new("covered");
        let ops = [
            WalOp::Rule("a(X) :- p(X).".into()),
            WalOp::Fact("p(2)".into()),
            WalOp::Fact("p(1)".into()),
            WalOp::Fact("q(bob, 3)".into()),
            WalOp::Fact("p(2)".into()),
        ];
        let state = [
            batch("p", 1, vec![vec![Value::int(2)], vec![Value::int(1)]]),
            batch("q", 2, vec![vec![Value::sym("bob"), Value::int(3)]]),
        ];
        let recover = || {
            let cfg = ServerConfig {
                wal_dir: Some(dir.0.clone()),
                ..ServerConfig::default()
            };
            let server = ServerState::from_config(&cfg).unwrap();
            let rules: Vec<String> = server
                .rules
                .read()
                .unwrap()
                .rules
                .iter()
                .map(|r| r.to_string())
                .collect();
            let snapshot = server.db.snapshot();
            let rows: Vec<_> = snapshot
                .preds()
                .into_iter()
                .map(|p| (p.to_string(), snapshot.rows(&p)))
                .collect();
            (rules, rows, server.recovery().unwrap().to_string())
        };
        let log = {
            let (mut wal, _) = Wal::open(&dir.0, FsyncPolicy::Always, 0, plan()).unwrap();
            wal.append_all(&ops).unwrap();
            std::fs::read(wal.log_file()).unwrap()
        };
        let (rules, rows, from_log) = recover();
        assert!(from_log.contains("\"skipped\":0"), "{from_log}");
        {
            let (mut wal, _) = Wal::open(&dir.0, FsyncPolicy::Always, 0, plan()).unwrap();
            wal.compact(&rules, &state).unwrap();
        }
        std::fs::write(log_path(&dir.0), &log).unwrap();
        let (rules_both, rows_both, from_both) = recover();
        assert_eq!((rules_both, rows_both), (rules, rows));
        assert!(from_both.contains("\"from_snapshot\":3"), "{from_both}");
        assert!(from_both.contains("\"from_log\":5"), "{from_both}");
        assert!(from_both.contains("\"skipped\":0"), "{from_both}");
    }

    /// Opening the log fsyncs its directory, through the fault hook.
    /// (Compaction's directory fsync is `tests/faults.rs`'s
    /// `a_compaction_whose_directory_fsync_fails_keeps_the_log`.)
    #[test]
    fn opening_the_log_fsyncs_the_directory() {
        let dir = TempDir::new("dirsync");
        let fault = plan();
        fault.fail_fsync(true);
        assert!(Wal::open(&dir.0, FsyncPolicy::Always, 0, Arc::clone(&fault)).is_err());
        assert_eq!(fault.fired(), 1);
    }

    /// The record decoders never panic: not on random bytes, and not on
    /// byte-level mutations of valid encodings — torn lengths, lengths at
    /// `MAX_RECORD` ± 1, row counts and symbol lengths past the end and
    /// bad UTF-8 included. Whatever they accept re-encodes to exactly the
    /// bytes it was decoded from.
    #[test]
    fn wal_decoders_never_panic_on_random_or_mutated_bytes() {
        use crate::protocol::tests::Rng;

        const TEXTS: &[&str] = &["", "p(1, 2)", "a(X, Y) :- p(X, Y).", "q(üñï, -7)"];
        const SYMBOLS: &[&str] = &["", "alice", "üñïçödé"];
        let le = |n: usize| (n as u32).to_le_bytes().to_vec();
        // Bytes a mutation splices in: length prefixes and counts, value
        // tags, record tags, and invalid or truncated UTF-8.
        let splice = [
            le(MAX_RECORD - 1),
            le(MAX_RECORD),
            le(MAX_RECORD + 1),
            le(u32::MAX as usize),
            le(0),
            le(3),
            vec![0],
            vec![1],
            vec![2],
            b"F ".to_vec(),
            b"R ".to_vec(),
            b"B".to_vec(),
            vec![0xff],
            vec![0xc3],
            vec![0xe2, 0x82],
        ];
        let mutate = |rng: &mut Rng, mut bytes: Vec<u8>| {
            for _ in 0..1 + rng.below(4) {
                let at = rng.below(bytes.len() + 1);
                match rng.below(4) {
                    0 if at < bytes.len() => bytes[at] = rng.next() as u8,
                    1 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    2 => bytes.truncate(at),
                    _ => {
                        let s = &splice[rng.below(splice.len())];
                        bytes.splice(at..at, s.iter().copied());
                    }
                }
            }
            bytes
        };
        let check_log = |bytes: &[u8]| {
            let (ops, used) = scan_records(bytes);
            let again: Vec<u8> = ops.iter().flat_map(encode_record).collect();
            assert_eq!(again, bytes[..used], "{bytes:?}");
        };
        // A payload behind a valid frame, so the checksum lets it through
        // to the decoder.
        let framed = |payload: &[u8]| {
            let mut buf = Vec::new();
            write_record(&mut buf, payload).unwrap();
            buf
        };

        // A row count or an arity the payload's bytes cannot hold is refused
        // before anything is allocated for it.
        let p = batch("p", 1, vec![vec![Value::int(1)]]);
        let payload = encode_record(&WalOp::Batch(p)).split_off(8);
        for at in [1, ROWS_AT] {
            let mut huge = payload.clone();
            huge[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert_eq!(WalOp::decode(&huge), None, "u32::MAX at byte {at}");
        }

        let mut rng = Rng(0x5eed_2029);
        for _ in 0..20_000 {
            let random: Vec<u8> = (0..rng.below(64)).map(|_| rng.next() as u8).collect();
            check_log(&random);
            check_log(&framed(&[b"B", &random[..]].concat()));

            let (arity, rows) = (rng.below(4), 1 + rng.below(3));
            let rows = if arity == 0 { 1 } else { rows };
            let values: Vec<Vec<Value>> = (0..rows)
                .map(|_| {
                    (0..arity)
                        .map(|_| match rng.below(2) {
                            0 => Value::int(rng.next() as i64),
                            _ => Value::sym(SYMBOLS[rng.below(SYMBOLS.len())]),
                        })
                        .collect()
                })
                .collect();
            let b = WalOp::Batch(batch(SYMBOLS[rng.below(SYMBOLS.len())], arity, values));
            let log: Vec<u8> = (0..1 + rng.below(3))
                .flat_map(|_| {
                    let text = TEXTS[rng.below(TEXTS.len())].to_string();
                    encode_record(&match rng.below(3) {
                        0 => WalOp::Fact(text),
                        1 => WalOp::Rule(text),
                        _ => b.clone(),
                    })
                })
                .collect();
            check_log(&mutate(&mut rng, log));

            // The batch's payload mutated behind a valid frame.
            let payload = encode_record(&b).split_off(8);
            check_log(&framed(&mutate(&mut rng, payload)));
        }
    }
}
