//! Write-ahead log: crash durability for ingested rules and facts.
//!
//! Every accepted `FACT` and every fresh rule/fact from a `LOAD` is
//! appended here — and, per the configured [`FsyncPolicy`], fsynced —
//! *before* it is applied to the shared database and acknowledged to the
//! client. On startup the server replays the log, so a crash (including
//! SIGKILL) loses no acknowledged write.
//!
//! ## Record format
//!
//! The log is a flat sequence of length-prefixed, checksummed records:
//!
//! ```text
//! [u32 payload length, LE] [u32 CRC-32 (IEEE) of payload, LE] [payload]
//! ```
//!
//! The payload is one tag byte followed by UTF-8 text:
//!
//! * `F` + the fact atom, e.g. `F p(1, 2)`;
//! * `R` + the rule source, e.g. `R a(X, Y) :- p(X, Y).`
//!
//! Text is the storage format on purpose: records are parsed on replay by
//! the same parser that validated them at ingestion, the log is
//! greppable with standard tools, and the checksum makes the redundancy
//! safe. A *torn tail* — a record whose header, body, or checksum is
//! incomplete or corrupt, the signature of a crash mid-append — is
//! **truncated, not fatal**: replay keeps every record up to the last
//! intact one and cuts the file there, exactly the prefix that could have
//! been acknowledged.
//!
//! ## Snapshot + compaction: the batch-manifest swap
//!
//! An unbounded log makes restart cost proportional to history. After
//! [`Wal::compact_every`] appended records, the server snapshots the full
//! current state and truncates `wal.log`. The snapshot is **not** a replay
//! log: it is a text manifest (`snapshot.manifest`) naming one binary run
//! file per predicate (`run-<gen>-<i>.xrs`, typed values, CRC-checked via
//! the manifest) plus the rule sources. Each run file is written to a temp
//! name, fsynced, and renamed; the manifest rename is the single atomic
//! commit point. Recovery bulk-loads each run file as a typed row batch —
//! one sort-based dedup + seal per relation
//! ([`datalog_engine::SharedDatabase::load_batch`]) instead of re-parsing
//! and re-hashing every fact's text — then replays the log tail on top.
//! Run files from superseded generations are garbage-collected after the
//! swap. [`Wal::open`] reads exactly this format. A directory in any
//! other — a manifest another version wrote, a pre-manifest snapshot — is
//! refused with an error naming the file, touching nothing: starting empty
//! would serve a table missing every snapshotted fact, and the next
//! compaction would make the loss permanent. A run file that is missing
//! or corrupt is salvaged around and counted in
//! [`Recovery::lost_run_files`].

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use datalog_ast::Value;
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
/// is treated as corruption (torn tail), not an allocation request.
const MAX_RECORD: u32 = 16 * 1024 * 1024;

/// When to fsync the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every record — no acknowledged write is ever lost.
    Always,
    /// fsync every N records (and on snapshot). A crash may lose up to
    /// N-1 acknowledged writes; throughput-friendly middle ground.
    EveryN(u32),
    /// Never fsync explicitly; durability is whatever the OS page cache
    /// provides. Survives process crashes (the kernel has the bytes) but
    /// not power loss.
    Never,
}

impl FsyncPolicy {
    /// Parse a CLI word: `always`, `batch` (= every 64), or `never`.
    pub fn parse(word: &str) -> Option<FsyncPolicy> {
        match word {
            "always" => Some(FsyncPolicy::Always),
            "batch" => Some(FsyncPolicy::EveryN(64)),
            "never" => Some(FsyncPolicy::Never),
            _ => None,
        }
    }
}

/// One logical logged operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// A ground fact, stored as its atom text (no trailing dot).
    Fact(String),
    /// A rule, stored as its source text.
    Rule(String),
}

impl WalOp {
    fn encode(&self) -> Vec<u8> {
        let (tag, text) = match self {
            WalOp::Fact(t) => (b'F', t),
            WalOp::Rule(t) => (b'R', t),
        };
        let mut payload = Vec::with_capacity(text.len() + 2);
        payload.push(tag);
        payload.push(b' ');
        payload.extend_from_slice(text.as_bytes());
        payload
    }

    fn decode(payload: &[u8]) -> Option<WalOp> {
        let (&tag, rest) = payload.split_first()?;
        let rest = rest.strip_prefix(b" ")?;
        let text = std::str::from_utf8(rest).ok()?.to_string();
        match tag {
            b'F' => Some(WalOp::Fact(text)),
            b'R' => Some(WalOp::Rule(text)),
            _ => None,
        }
    }
}

/// One predicate's snapshot rows, recovered from (or destined for) a
/// binary run file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunBatch {
    /// Rendered predicate name.
    pub pred: String,
    /// Tuple arity.
    pub arity: usize,
    /// Rows in their original ingestion order (ids must survive recovery).
    pub rows: Vec<Box<[Value]>>,
}

/// What [`Wal::open`] recovered from disk.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Text operations to apply *after* the batches: the log tail, in
    /// order.
    pub ops: Vec<WalOp>,
    /// Rule sources from the manifest (applied before any facts).
    pub rules: Vec<String>,
    /// Typed row batches from the manifest's run files, bulk-loadable
    /// without re-parsing any fact text.
    pub batches: Vec<RunBatch>,
    /// Run files loaded from the manifest.
    pub run_files: u64,
    /// Run lines of the manifest that loaded nothing: unparseable, or
    /// naming a file that is missing or fails its CRC or decode.
    pub lost_run_files: u64,
    /// Rows loaded across all run files.
    pub run_rows: u64,
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
    unsynced: u32,
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
    /// Generation counter for run-file names; new generations never
    /// collide with files the live manifest still references.
    run_gen: u64,
    /// Telemetry: append latency (write + policy fsync), when attached.
    h_append: Option<Arc<Histogram>>,
    /// Telemetry: fsync latency alone, when attached.
    h_fsync: Option<Arc<Histogram>>,
}

fn log_path(dir: &Path) -> PathBuf {
    dir.join("wal.log")
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("snapshot.manifest")
}

/// Manifest header line; bump the version on any format change.
const MANIFEST_HEADER: &str = "xdl-snapshot-manifest v1";
/// Run-file magic; the row payload follows immediately.
const RUN_MAGIC: &[u8; 6] = b"XRUN1\n";

/// Encode one batch as a run file: magic, then per value a tag byte —
/// `0` + 8-byte LE integer, or `1` + u32 LE length + UTF-8 symbol text.
/// Symbols must be serialized by name: their ids are process-interned.
fn encode_run_file(batch: &RunBatch) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + batch.rows.len() * batch.arity * 9);
    buf.extend_from_slice(RUN_MAGIC);
    for row in &batch.rows {
        for v in row.iter() {
            match v {
                Value::Int(i) => {
                    buf.push(0);
                    buf.extend_from_slice(&i.to_le_bytes());
                }
                Value::Sym(s) => {
                    let text = s.as_str();
                    buf.push(1);
                    buf.extend_from_slice(&(text.len() as u32).to_le_bytes());
                    buf.extend_from_slice(text.as_bytes());
                }
            }
        }
    }
    buf
}

/// Decode a run file written by [`encode_run_file`]. `None` on any
/// structural mismatch (wrong magic, short read, trailing bytes, bad
/// UTF-8) — the caller treats the file as lost and salvages the rest.
fn decode_run_file(bytes: &[u8], arity: usize, rows: usize) -> Option<Vec<RowBuf>> {
    let mut pos = RUN_MAGIC.len();
    if bytes.get(..pos)? != RUN_MAGIC {
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
                    let raw: [u8; 4] = bytes.get(pos..pos + 4)?.try_into().ok()?;
                    pos += 4;
                    let len = u32::from_le_bytes(raw) as usize;
                    let text = std::str::from_utf8(bytes.get(pos..pos + len)?).ok()?;
                    pos += len;
                    row.push(Value::sym(text));
                }
                _ => return None,
            }
        }
        out.push(row.into_boxed_slice());
    }
    (pos == bytes.len()).then_some(out)
}

type RowBuf = Box<[Value]>;

/// Scan one record stream. Returns the decoded ops and the byte offset
/// one past the last intact record (everything after is a torn tail).
fn scan_records(bytes: &[u8]) -> (Vec<WalOp>, usize) {
    let mut ops = Vec::new();
    let mut pos = 0usize;
    while let Some(header) = bytes.get(pos..pos + 8) {
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if len > MAX_RECORD {
            break; // Garbage length: treat as torn.
        }
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len as usize) else {
            break; // Body shorter than announced: torn mid-append.
        };
        if crc32(payload) != crc {
            break; // Checksum mismatch: corrupt, cut here.
        }
        let Some(op) = WalOp::decode(payload) else {
            break; // Unknown tag: written by a future version? Cut.
        };
        ops.push(op);
        pos += 8 + len as usize;
    }
    (ops, pos)
}

fn encode_record(op: &WalOp) -> Vec<u8> {
    let payload = op.encode();
    let mut rec = Vec::with_capacity(payload.len() + 8);
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rec.extend_from_slice(&crc32(&payload).to_le_bytes());
    rec.extend_from_slice(&payload);
    rec
}

/// Refuse a WAL directory: an `InvalidData` error naming `file`.
fn refuse(file: &Path, why: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("refusing to recover from {}: {why}", file.display()),
    )
}

/// Read `dir`'s manifest, if any, into `recovery`, or refuse the directory
/// (see the module docs).
fn read_manifest(dir: &Path, recovery: &mut Recovery) -> std::io::Result<()> {
    let path = manifest_path(dir);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            let orphan = dir.join("snapshot.dat");
            if orphan.exists() {
                return Err(refuse(
                    &orphan,
                    "a pre-manifest snapshot, which this version does not read",
                ));
            }
            return Ok(());
        }
        Err(e) => return Err(refuse(&path, &e.to_string())),
    };
    let mut lines = text.lines();
    let header = lines.next().unwrap_or_default();
    if header != MANIFEST_HEADER {
        return Err(refuse(
            &path,
            &format!("header {header:?}, this version reads {MANIFEST_HEADER:?}"),
        ));
    }
    for line in lines {
        if let Some(rule) = line.strip_prefix("rule ") {
            recovery.rules.push(rule.to_string());
        } else if let Some(rest) = line.strip_prefix("run ") {
            match read_run_line(dir, rest) {
                Some(batch) => {
                    recovery.run_files += 1;
                    recovery.run_rows += batch.rows.len() as u64;
                    recovery.batches.push(batch);
                }
                None => recovery.lost_run_files += 1,
            }
        }
    }
    Ok(())
}

/// Load the batch one manifest `run` line names: `<file> <arity> <rows>
/// <crc> <pred>`. `None` when the line does not parse or the file is
/// missing, fails its CRC, or does not decode.
fn read_run_line(dir: &Path, line: &str) -> Option<RunBatch> {
    let mut it = line.splitn(5, ' ');
    let file = it.next()?;
    let arity = it.next()?.parse::<usize>().ok()?;
    let rows = it.next()?.parse::<usize>().ok()?;
    let crc = it.next()?.parse::<u32>().ok()?;
    let pred = it.next()?;
    let bytes = std::fs::read(dir.join(file)).ok()?;
    if crc32(&bytes) != crc {
        return None;
    }
    Some(RunBatch {
        pred: pred.to_string(),
        arity,
        rows: decode_run_file(&bytes, arity, rows)?,
    })
}

impl Wal {
    /// Open (creating if needed) the WAL in `dir`, reading the manifest and
    /// the log. A torn log tail is truncated on the spot so the next append
    /// lands on a clean boundary. A directory in a format this version does
    /// not read is refused untouched (see the module docs).
    pub fn open(
        dir: &Path,
        policy: FsyncPolicy,
        compact_every: u64,
        fault: Arc<FaultPlan>,
    ) -> std::io::Result<(Wal, Recovery)> {
        std::fs::create_dir_all(dir)?;
        let mut recovery = Recovery::default();

        read_manifest(dir, &mut recovery)?;

        let path = log_path(dir);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let (ops, good) = scan_records(&bytes);
        recovery.from_log = ops.len() as u64;
        recovery.truncated_bytes = (bytes.len() - good) as u64;
        recovery.ops.extend(ops);

        let file = OpenOptions::new()
            .create(true)
            .truncate(false) // the intact prefix survives; set_len cuts the tail
            .read(true)
            .write(true)
            .open(&path)?;
        // Cut the torn tail (no-op on a clean log), then append from there.
        file.set_len(good as u64)?;
        let mut file = file;
        file.seek(SeekFrom::End(0))?;

        // Never reuse a generation some existing run file already claims
        // (the live manifest may reference it).
        let mut run_gen = 0u64;
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                if let Some(gen) = name
                    .to_str()
                    .and_then(|n| n.strip_prefix("run-"))
                    .and_then(|n| n.split('-').next())
                    .and_then(|g| g.parse::<u64>().ok())
                {
                    run_gen = run_gen.max(gen);
                }
            }
        }

        Ok((
            Wal {
                dir: dir.to_path_buf(),
                file,
                policy,
                fault,
                unsynced: 0,
                since_snapshot: recovery.from_log,
                compact_every,
                appended: 0,
                snapshots: 0,
                run_gen,
                h_append: None,
                h_fsync: None,
            },
            recovery,
        ))
    }

    /// Attach latency histograms (append wall, fsync wall) from the
    /// server's metric registry. Without them the log times nothing.
    pub fn set_metrics(&mut self, append: Arc<Histogram>, fsync: Arc<Histogram>) {
        self.h_append = Some(append);
        self.h_fsync = Some(fsync);
    }

    /// fsync honoring the fault plan (a failed fsync means the record must
    /// not be acknowledged; whether it survives a crash is undefined —
    /// precisely the semantics of real fsync failure).
    fn sync(&mut self) -> std::io::Result<()> {
        if self.fault.fsync_should_fail() {
            return Err(std::io::Error::other("injected fsync failure"));
        }
        let t0 = Instant::now();
        self.file.sync_data()?;
        if let Some(h) = &self.h_fsync {
            h.record_duration(t0.elapsed());
        }
        self.unsynced = 0;
        Ok(())
    }

    /// Append one record and apply the fsync policy. On error the caller
    /// must not acknowledge the write.
    pub fn append(&mut self, op: &WalOp) -> std::io::Result<()> {
        let t0 = Instant::now();
        self.file.write_all(&encode_record(op))?;
        self.appended += 1;
        self.since_snapshot += 1;
        self.unsynced += 1;
        let result = match self.policy {
            FsyncPolicy::Always => self.sync(),
            FsyncPolicy::EveryN(n) => {
                if self.unsynced >= n {
                    self.sync()
                } else {
                    Ok(())
                }
            }
            FsyncPolicy::Never => Ok(()),
        };
        if let Some(h) = &self.h_append {
            h.record_duration(t0.elapsed());
        }
        result
    }

    /// Whether enough records accumulated to warrant a snapshot.
    pub fn wants_compaction(&self) -> bool {
        self.compact_every > 0 && self.since_snapshot >= self.compact_every
    }

    /// Records appended since the last snapshot (log tail length).
    pub fn since_snapshot(&self) -> u64 {
        self.since_snapshot
    }

    /// Write the full state as a fresh batch-manifest snapshot, then
    /// truncate the log. `rules` are the complete current rule sources;
    /// `batches` the complete current facts, one batch per predicate in
    /// ingestion order. Each run file is written under a fresh generation,
    /// fsynced, and renamed into place; the manifest rename is the commit
    /// point; superseded run files are garbage-collected afterwards,
    /// best-effort.
    pub fn compact(&mut self, rules: &[String], batches: &[RunBatch]) -> std::io::Result<()> {
        self.run_gen += 1;
        let gen = self.run_gen;
        let mut manifest = String::from(MANIFEST_HEADER);
        manifest.push('\n');
        for rule in rules {
            manifest.push_str("rule ");
            manifest.push_str(rule);
            manifest.push('\n');
        }
        let mut live: Vec<String> = Vec::with_capacity(batches.len());
        for (i, batch) in batches.iter().enumerate() {
            let name = format!("run-{gen}-{i}.xrs");
            let bytes = encode_run_file(batch);
            let crc = crc32(&bytes);
            let tmp = self.dir.join(format!("{name}.tmp"));
            {
                let mut f = File::create(&tmp)?;
                f.write_all(&bytes)?;
                if self.fault.fsync_should_fail() {
                    return Err(std::io::Error::other("injected fsync failure"));
                }
                f.sync_data()?;
            }
            std::fs::rename(&tmp, self.dir.join(&name))?;
            manifest.push_str(&format!(
                "run {name} {} {} {crc} {}\n",
                batch.arity,
                batch.rows.len(),
                batch.pred
            ));
            live.push(name);
        }
        let tmp = self.dir.join("snapshot.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(manifest.as_bytes())?;
            if self.fault.fsync_should_fail() {
                return Err(std::io::Error::other("injected fsync failure"));
            }
            f.sync_data()?;
        }
        // The swap: after this rename, recovery reads the new manifest.
        std::fs::rename(&tmp, manifest_path(&self.dir))?;
        // Only after the snapshot is durably in place may the log shrink.
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.sync()?;
        self.since_snapshot = 0;
        self.snapshots += 1;
        // GC: run files no manifest references.
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if name.starts_with("run-") && !live.iter().any(|l| l == name) {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
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

    fn batch(pred: &str, arity: usize, rows: Vec<Vec<Value>>) -> RunBatch {
        RunBatch {
            pred: pred.to_string(),
            arity,
            rows: rows.into_iter().map(Vec::into_boxed_slice).collect(),
        }
    }

    #[test]
    fn compaction_swaps_in_a_manifest_and_truncates_log() {
        let dir = TempDir::new("compact");
        {
            let (mut wal, _) = Wal::open(&dir.0, FsyncPolicy::Always, 3, plan()).unwrap();
            wal.append(&WalOp::Rule("a(X) :- p(X).".into())).unwrap();
            wal.append(&WalOp::Fact("p(1)".into())).unwrap();
            wal.append(&WalOp::Fact("p(2)".into())).unwrap();
            assert!(wal.wants_compaction());
            wal.compact(
                &["a(X) :- p(X).".to_string()],
                &[batch(
                    "p",
                    1,
                    vec![vec![Value::int(1)], vec![Value::int(2)]],
                )],
            )
            .unwrap();
            assert!(!wal.wants_compaction());
            assert_eq!(std::fs::metadata(log_path(&dir.0)).unwrap().len(), 0);
            // Post-compaction appends land in the (empty) log.
            wal.append(&WalOp::Fact("p(3)".into())).unwrap();
        }
        let (_, rec) = Wal::open(&dir.0, FsyncPolicy::Always, 3, plan()).unwrap();
        assert_eq!(rec.rules, vec!["a(X) :- p(X).".to_string()]);
        assert_eq!(rec.run_files, 1);
        assert_eq!(rec.run_rows, 2);
        assert_eq!(rec.batches[0].rows[1], vec![Value::int(2)].into());
        assert_eq!(rec.from_log, 1);
        assert_eq!(
            rec.ops.last(),
            Some(&WalOp::Fact("p(3)".into())),
            "log tail replays after (on top of) the batches"
        );
    }

    #[test]
    fn run_files_roundtrip_typed_values_and_gc_old_generations() {
        let dir = TempDir::new("runfiles");
        let rows = vec![
            vec![Value::sym("alice"), Value::int(-7)],
            vec![
                Value::sym("bob with spaces? no: üñïçödé"),
                Value::int(i64::MAX),
            ],
        ];
        {
            let (mut wal, _) = Wal::open(&dir.0, FsyncPolicy::Always, 0, plan()).unwrap();
            wal.compact(&[], &[batch("edge", 2, rows.clone())]).unwrap();
            // A second compaction supersedes the first generation.
            wal.compact(&[], &[batch("edge", 2, rows.clone())]).unwrap();
        }
        let runs: Vec<String> = std::fs::read_dir(&dir.0)
            .unwrap()
            .flatten()
            .filter_map(|e| e.file_name().to_str().map(String::from))
            .filter(|n| n.starts_with("run-"))
            .collect();
        assert_eq!(runs.len(), 1, "old generations GCed: {runs:?}");
        let (_, rec) = Wal::open(&dir.0, FsyncPolicy::Always, 0, plan()).unwrap();
        assert_eq!(rec.batches.len(), 1);
        assert_eq!(rec.batches[0].pred, "edge");
        let got: Vec<Vec<Value>> = rec.batches[0].rows.iter().map(|r| r.to_vec()).collect();
        assert_eq!(got, rows, "symbols and ints roundtrip by value");
    }

    #[test]
    fn corrupt_run_file_is_salvaged_around() {
        let dir = TempDir::new("runcorrupt");
        {
            let (mut wal, _) = Wal::open(&dir.0, FsyncPolicy::Always, 0, plan()).unwrap();
            wal.compact(
                &[],
                &[
                    batch("p", 1, vec![vec![Value::int(1)]]),
                    batch("q", 1, vec![vec![Value::int(2)]]),
                ],
            )
            .unwrap();
        }
        // Flip a byte in q's run file (the second one named in the manifest).
        let manifest = std::fs::read_to_string(manifest_path(&dir.0)).unwrap();
        let qfile = manifest
            .lines()
            .filter_map(|l| l.strip_prefix("run "))
            .map(|l| l.split(' ').next().unwrap())
            .nth(1)
            .unwrap();
        let mut bytes = std::fs::read(dir.0.join(qfile)).unwrap();
        *bytes.last_mut().unwrap() ^= 0xFF;
        std::fs::write(dir.0.join(qfile), &bytes).unwrap();
        let (_, rec) = Wal::open(&dir.0, FsyncPolicy::Always, 0, plan()).unwrap();
        assert_eq!(rec.run_files, 1, "intact batch survives");
        assert_eq!(rec.lost_run_files, 1);
        assert_eq!(rec.batches[0].pred, "p");
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

    #[test]
    fn unknown_manifest_header_is_refused_untouched() {
        let dir = TempDir::new("header");
        {
            let (mut wal, _) = Wal::open(&dir.0, FsyncPolicy::Always, 0, plan()).unwrap();
            wal.compact(&[], &[batch("p", 1, vec![vec![Value::int(1)]])])
                .unwrap();
            wal.append(&WalOp::Fact("p(2)".into())).unwrap();
        }
        // Another version's manifest: same body, bumped header.
        let path = manifest_path(&dir.0);
        let text = std::fs::read_to_string(&path).unwrap();
        let body = text.strip_prefix(MANIFEST_HEADER).unwrap();
        std::fs::write(&path, format!("xdl-snapshot-manifest v2{body}")).unwrap();
        assert_refused_untouched(&dir.0, "snapshot.manifest");
        assert!(Wal::open(&dir.0, FsyncPolicy::Always, 0, plan())
            .unwrap_err()
            .to_string()
            .contains("xdl-snapshot-manifest v2"));
    }

    #[test]
    fn orphan_snapshot_dat_is_refused_untouched() {
        let dir = TempDir::new("orphan");
        // A pre-manifest snapshot in the record format, and a log beside it.
        let mut buf = encode_record(&WalOp::Rule("a(X) :- p(X).".into()));
        buf.extend_from_slice(&encode_record(&WalOp::Fact("p(1)".into())));
        std::fs::write(dir.0.join("snapshot.dat"), &buf).unwrap();
        std::fs::write(log_path(&dir.0), encode_record(&WalOp::Fact("p(2)".into()))).unwrap();
        assert_refused_untouched(&dir.0, "snapshot.dat");
        // A manifest beside it is the snapshot; the old file is ignored.
        std::fs::write(manifest_path(&dir.0), format!("{MANIFEST_HEADER}\n")).unwrap();
        let (_, rec) = Wal::open(&dir.0, FsyncPolicy::Always, 0, plan()).unwrap();
        assert_eq!(rec.ops, vec![WalOp::Fact("p(2)".into())]);
    }

    #[test]
    fn run_lines_that_load_nothing_are_counted_as_lost() {
        let dir = TempDir::new("lost");
        {
            let (mut wal, _) = Wal::open(&dir.0, FsyncPolicy::Always, 0, plan()).unwrap();
            wal.compact(&[], &[batch("p", 1, vec![vec![Value::int(1)]])])
                .unwrap();
        }
        // Four run lines that load nothing: unparseable, a missing file, a
        // CRC mismatch, and a file whose CRC matches but which does not
        // decode.
        std::fs::write(dir.0.join("run-7-0.xrs"), b"not a run file").unwrap();
        let junk_crc = crc32(b"not a run file");
        let mut manifest = std::fs::read_to_string(manifest_path(&dir.0)).unwrap();
        manifest.push_str("run run-7-0.xrs one 1 0 q\n");
        manifest.push_str("run run-7-9.xrs 1 1 0 q\n");
        manifest.push_str(&format!("run run-7-0.xrs 1 1 {} q\n", junk_crc ^ 1));
        manifest.push_str(&format!("run run-7-0.xrs 1 1 {junk_crc} q\n"));
        std::fs::write(manifest_path(&dir.0), manifest).unwrap();
        let (_, rec) = Wal::open(&dir.0, FsyncPolicy::Always, 0, plan()).unwrap();
        assert_eq!(rec.run_files, 1, "the intact batch loads");
        assert_eq!(rec.batches[0].pred, "p");
        assert_eq!(rec.lost_run_files, 4);
    }

    #[test]
    fn fsync_policy_parse_words() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("batch"), Some(FsyncPolicy::EveryN(64)));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
    }
}
