//! Crash-consistent durability: a write-ahead log, atomic checkpoints,
//! and torn-tail recovery for [`SignatureDb`].
//!
//! A monitoring daemon that loses every insert since its last envelope
//! save — or worse, leaves a half-written envelope behind — is not a
//! daemon an operator can trust. This module makes the streaming store
//! durable with the classic WAL discipline:
//!
//! * every mutation is validated, then appended to an **op log**
//!   *before* it is applied (see [`WalOp`]), so a refused mutation
//!   leaves no trace in the log; records are length-prefixed, carry a
//!   monotone sequence number, and are bound to a CRC32 checksum, so
//!   replay can stop *cleanly* at the first torn or corrupted record;
//! * a **checkpoint** is a full current-version envelope written to a
//!   temp file,
//!   fsynced, and atomically renamed into place; a small `MANIFEST`
//!   binds the newest good checkpoint to the WAL that continues it, and
//!   the previous generation is retained so a damaged newest checkpoint
//!   falls back instead of failing;
//! * [`DurableLog::recover`] (and
//!   [`ShardWriter::recover`](crate::ShardWriter::recover)) rebuild the
//!   exact durably-acked state: last good checkpoint + WAL tail replay,
//!   never applying a record past the first bad one, and always
//!   starting a *fresh* generation afterwards (a possibly-torn WAL is
//!   never appended to);
//! * a failing WAL write **degrades** the log instead of poisoning it:
//!   mutations keep applying in memory, [`DurableLog::health`] reports
//!   [`WalHealth::Degraded`], and durability is re-established by a
//!   checkpoint attempt under capped exponential backoff (counted in
//!   operations, so the schedule is deterministic and testable).
//!
//! # WAL file layout
//!
//! ```text
//! FMWAL 2 <start_seq> <contiguous:0|1>\n      ← header (fsynced at creation)
//! [len: u32 LE][seq: u64 LE][crc32: u32 LE][payload: len bytes]   ← repeated
//! ```
//!
//! The payload is the binary encoding of a [`WalOp`] (a one-byte op tag
//! followed by the op's fields in the length-prefixed little-endian
//! codec of [`fmeter_ir::codec`] — see `docs/PERSISTENCE.md` for the
//! byte layout); the checksum covers the sequence number and the
//! payload. Readers also accept the `FMWAL 1` framing, whose payloads
//! are JSON — a daemon upgraded in place replays its old log, and the
//! next generation is written as v2. `contiguous` records whether
//! this WAL directly continues the previous generation's (used by
//! recovery to chain segments when the newest checkpoint is damaged; a
//! WAL opened after a degraded period, whose predecessor is missing
//! acked-but-unlogged ops, sets it to 0).
//!
//! # Crash matrix
//!
//! What a crash can lose under each [`SyncPolicy`] (never more — and
//! never a corrupted state):
//!
//! | policy | lost on crash |
//! |---|---|
//! | `EveryRecord` | nothing that was acked |
//! | `EveryN(n)` | up to the last `n − 1` acked ops |
//! | `OnCheckpoint` | acked ops since the last checkpoint |
//!
//! See `docs/PERSISTENCE.md` for the narrative version, and the
//! `durability` integration suite for the kill-and-replay property
//! test that pins all of this down.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fmeter_ir::codec::{self, BinCodec, CodecError, Reader};
use fmeter_ir::DocId;
use serde::{Deserialize, Serialize};

use crate::fault::{FailPlan, FailpointFile};
use crate::{persist, FmeterError, RawSignature, SignatureDb};

/// First token of every WAL file header line.
pub const WAL_MAGIC: &str = "FMWAL";

/// The WAL version this build writes: binary [`WalOp`] payloads.
/// [`read_wal`] also accepts [`WAL_VERSION_JSON`] files.
pub const WAL_VERSION: u32 = 2;

/// The original WAL version: identical framing, JSON payloads. Still
/// readable (a daemon upgraded in place must replay its old log), never
/// written.
pub const WAL_VERSION_JSON: u32 = 1;

/// Checkpoint generations kept on disk: the newest plus one fallback.
pub const KEEP_GENERATIONS: u64 = 2;

/// Upper bound on a single WAL record payload; a length prefix above
/// this is treated as corruption, not an allocation request.
const MAX_RECORD_BYTES: u32 = 64 << 20;

/// Bytes of framing per record: length (4) + sequence (8) + CRC32 (4).
const RECORD_HEADER_BYTES: usize = 16;

const MANIFEST_FILE: &str = "MANIFEST";
const MANIFEST_MAGIC: &str = "FMMANIFEST";

// ---- CRC32 -----------------------------------------------------------

/// Slice-by-8 lookup tables for the standard IEEE CRC32 (reflected,
/// poly 0xEDB88320). `TABLES[0]` is the classic byte-at-a-time table;
/// `TABLES[k][i]` extends it by `k` more zero bytes, so eight table
/// hits fold eight input bytes per iteration. Same polynomial, same
/// checksums — only the walk is wider (the v5 envelope checksums
/// megabytes of binary section per save/load, so CRC throughput is on
/// the checkpoint critical path).
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
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
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let mut c = state;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[..4].try_into().unwrap()) ^ c;
        let hi = u32::from_le_bytes(chunk[4..].try_into().unwrap());
        c = CRC32_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC32_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC32_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC32_TABLES[4][(lo >> 24) as usize]
            ^ CRC32_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC32_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC32_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC32_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC32_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC32 (IEEE 802.3, the zlib/`cksum -o 3` polynomial) of `bytes` —
/// the checksum both WAL records and envelope sections (v4+) use.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, bytes)
}

// ---- ops -------------------------------------------------------------

/// One logged mutation. The WAL records exactly the *explicit* API
/// calls; policy-driven refits and vacuums that fire inside an insert
/// or remove re-trigger deterministically on replay, so they are never
/// logged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WalOp {
    /// [`SignatureDb::insert`].
    Insert(RawSignature),
    /// [`SignatureDb::insert_batch`].
    InsertBatch(Vec<RawSignature>),
    /// [`SignatureDb::remove`] of the given slot.
    Remove(DocId),
    /// An explicit [`SignatureDb::refit`].
    Refit,
    /// An explicit [`SignatureDb::vacuum`].
    Vacuum,
}

impl WalOp {
    /// Applies the op to `db`, mirroring what the writer did at log
    /// time. The writer validates before it logs, so an op it wrote
    /// always applies; logs from releases that logged first may still
    /// hold a refused op, which fails identically on replay and is
    /// counted in [`RecoveryReport::refused_ops`].
    ///
    /// # Errors
    ///
    /// Propagates the mutation's own error (a dimension mismatch, or a
    /// removal of a dead doc); `db` is then unchanged.
    pub fn apply(&self, db: &mut SignatureDb) -> Result<(), FmeterError> {
        match self {
            WalOp::Insert(raw) => db.insert(raw).map(|_| ()),
            WalOp::InsertBatch(raws) => db.insert_batch(raws).map(|_| ()),
            WalOp::Remove(doc) => db.remove(*doc),
            WalOp::Refit => {
                db.refit();
                Ok(())
            }
            WalOp::Vacuum => {
                db.vacuum();
                Ok(())
            }
        }
    }
}

// v2 WAL payload layout: a one-byte op tag, then the op's fields. The
// tag values are on the wire forever — never renumber, only append.
impl BinCodec for WalOp {
    fn encode_bin(&self, out: &mut Vec<u8>) {
        match self {
            WalOp::Insert(raw) => {
                codec::put_u8(out, 0);
                raw.encode_bin(out);
            }
            WalOp::InsertBatch(raws) => {
                codec::put_u8(out, 1);
                raws.encode_bin(out);
            }
            WalOp::Remove(doc) => {
                codec::put_u8(out, 2);
                codec::put_usize(out, *doc);
            }
            WalOp::Refit => codec::put_u8(out, 3),
            WalOp::Vacuum => codec::put_u8(out, 4),
        }
    }

    fn decode_bin(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(WalOp::Insert(RawSignature::decode_bin(r)?)),
            1 => Ok(WalOp::InsertBatch(Vec::decode_bin(r)?)),
            2 => Ok(WalOp::Remove(r.get_usize()?)),
            3 => Ok(WalOp::Refit),
            4 => Ok(WalOp::Vacuum),
            tag => Err(CodecError::new(format!("unknown WalOp tag {tag}"))),
        }
    }
}

// ---- policies --------------------------------------------------------

/// When appended WAL records are fsynced — the durability/throughput
/// dial. See the crash matrix in the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Sync after every record: an acked op is a durable op.
    EveryRecord,
    /// Sync every `n` records (values below 1 behave as 1).
    EveryN(usize),
    /// Sync only when a checkpoint runs (or on an explicit
    /// [`DurableLog::sync`]).
    OnCheckpoint,
}

/// When the log folds its WAL into a fresh checkpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CheckpointPolicy {
    /// Only on explicit [`DurableLog::checkpoint`] calls.
    Manual,
    /// Checkpoint when *any* of the set bounds is exceeded.
    Every {
        /// Ops applied since the last checkpoint.
        ops: Option<u64>,
        /// Bytes appended to the current WAL.
        wal_bytes: Option<u64>,
        /// Wall-clock time since the last checkpoint.
        interval: Option<Duration>,
    },
}

/// Configuration for a [`DurableLog`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurableOptions {
    /// WAL fsync cadence.
    pub sync: SyncPolicy,
    /// Checkpoint cadence.
    pub checkpoint: CheckpointPolicy,
}

impl Default for DurableOptions {
    /// Every acked op durable; checkpoint every 1024 ops or 4 MiB of
    /// WAL, whichever comes first.
    fn default() -> Self {
        DurableOptions {
            sync: SyncPolicy::EveryRecord,
            checkpoint: CheckpointPolicy::Every {
                ops: Some(1024),
                wal_bytes: Some(4 << 20),
                interval: None,
            },
        }
    }
}

// ---- sinks -----------------------------------------------------------

/// A writable sink that can make its bytes durable — the seam the
/// fault-injection wrappers in [`crate::fault`] plug into.
pub trait WalSink: Write + Send {
    /// Durably flushes everything written so far (fsync-equivalent).
    fn sync(&mut self) -> io::Result<()>;
}

impl WalSink for File {
    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }
}

/// In-memory sink for tests and tooling; `sync` is a no-op.
impl WalSink for Vec<u8> {
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl<W: WalSink + ?Sized> WalSink for Box<W> {
    fn sync(&mut self) -> io::Result<()> {
        (**self).sync()
    }
}

// ---- writer ----------------------------------------------------------

/// Encodes one framed v2 record into `buf` (clearing it first). The
/// binary payload is written straight into the frame — no intermediate
/// allocation — so a writer reusing one buffer appends garbage-free.
fn encode_record_into(buf: &mut Vec<u8>, seq: u64, op: &WalOp) {
    buf.clear();
    buf.resize(RECORD_HEADER_BYTES, 0);
    op.encode_bin(buf);
    let payload_len = buf.len() - RECORD_HEADER_BYTES;
    let crc = !crc32_update(
        crc32_update(0xFFFF_FFFF, &seq.to_le_bytes()),
        &buf[RECORD_HEADER_BYTES..],
    );
    buf[..4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    buf[4..12].copy_from_slice(&seq.to_le_bytes());
    buf[12..16].copy_from_slice(&crc.to_le_bytes());
}

#[cfg(test)]
fn encode_record(seq: u64, op: &WalOp) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_record_into(&mut buf, seq, op);
    buf
}

/// Capacity the reusable append buffer is trimmed back to after an
/// oversized record (e.g. a huge `InsertBatch`), so one outlier does
/// not pin its high-water mark for the writer's lifetime.
const APPEND_BUF_RETAIN: usize = 1 << 20;

/// An append-only writer over one WAL file (or any [`WalSink`]).
pub struct WalWriter {
    sink: Box<dyn WalSink>,
    policy: SyncPolicy,
    next_seq: u64,
    bytes: u64,
    unsynced: usize,
    /// Reused per-append serialize buffer: steady-state appends do not
    /// allocate.
    buf: Vec<u8>,
}

impl WalWriter {
    /// Writes (and syncs) the WAL header, returning a writer whose
    /// first record will carry `start_seq`.
    pub fn create(
        mut sink: Box<dyn WalSink>,
        start_seq: u64,
        contiguous: bool,
        policy: SyncPolicy,
    ) -> Result<Self, FmeterError> {
        let header = format!(
            "{WAL_MAGIC} {WAL_VERSION} {start_seq} {}\n",
            u8::from(contiguous)
        );
        sink.write_all(header.as_bytes())?;
        sink.sync()?;
        Ok(WalWriter {
            sink,
            policy,
            next_seq: start_seq,
            bytes: header.len() as u64,
            unsynced: 0,
            buf: Vec::new(),
        })
    }

    /// Appends one op, returning its sequence number. Syncs according
    /// to the [`SyncPolicy`]. On error the file tail must be considered
    /// torn: the writer's owner should stop using it (replay will stop
    /// at the damage).
    pub fn append(&mut self, op: &WalOp) -> Result<u64, FmeterError> {
        let seq = self.next_seq;
        encode_record_into(&mut self.buf, seq, op);
        self.sink.write_all(&self.buf)?;
        self.next_seq += 1;
        self.bytes += self.buf.len() as u64;
        self.unsynced += 1;
        if self.buf.capacity() > APPEND_BUF_RETAIN {
            self.buf.shrink_to(APPEND_BUF_RETAIN);
        }
        match self.policy {
            SyncPolicy::EveryRecord => self.sync()?,
            SyncPolicy::EveryN(n) => {
                if self.unsynced >= n.max(1) {
                    self.sync()?;
                }
            }
            SyncPolicy::OnCheckpoint => {}
        }
        Ok(seq)
    }

    /// Forces an fsync of everything appended so far.
    pub fn sync(&mut self) -> Result<(), FmeterError> {
        self.sink.sync()?;
        self.unsynced = 0;
        Ok(())
    }

    /// The sequence number the next append will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Bytes written so far, header included.
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Wraps the underlying sink with a fault-injection plan (byte
    /// budgets count from this call onward).
    fn arm_failpoints(&mut self, plan: FailPlan) {
        let inner = std::mem::replace(&mut self.sink, Box::new(Vec::new()));
        self.sink = Box::new(FailpointFile::new(inner, plan));
    }
}

impl fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WalWriter")
            .field("policy", &self.policy)
            .field("next_seq", &self.next_seq)
            .field("bytes", &self.bytes)
            .field("unsynced", &self.unsynced)
            .finish_non_exhaustive()
    }
}

// ---- reader ----------------------------------------------------------

/// The result of scanning one WAL file: the longest clean prefix of
/// records, plus what stopped the scan. Scanning never fails — damage
/// is a *state*, not an error.
#[derive(Debug)]
pub struct WalSegment {
    /// Sequence number of the first record, from the header; `None`
    /// when even the header line is torn.
    pub start_seq: Option<u64>,
    /// Whether this WAL directly continues the previous generation's
    /// (false after a degraded period lost ops between the two).
    pub contiguous: bool,
    /// The clean record prefix, in order, each with its sequence.
    pub records: Vec<(u64, WalOp)>,
    /// True when the scan stopped at a torn or corrupt record (rather
    /// than the clean end of the file).
    pub torn: bool,
}

/// Scans WAL bytes, stopping cleanly at the first torn or corrupt
/// record: short header, length overrun, checksum mismatch, sequence
/// gap, or unparsable payload all end the prefix.
pub fn read_wal(bytes: &[u8]) -> WalSegment {
    let mut seg = WalSegment {
        start_seq: None,
        contiguous: true,
        records: Vec::new(),
        torn: true,
    };
    // Header line: "FMWAL <version> <start_seq> <contiguous>\n" within
    // the first 64 bytes.
    let Some(nl) = bytes.iter().take(64).position(|&b| b == b'\n') else {
        return seg;
    };
    let Ok(header) = std::str::from_utf8(&bytes[..nl]) else {
        return seg;
    };
    let tokens: Vec<&str> = header.split_whitespace().collect();
    let parsed = match tokens.as_slice() {
        [magic, version, start, contig] if *magic == WAL_MAGIC => version
            .parse::<u32>()
            .ok()
            .filter(|v| *v == WAL_VERSION || *v == WAL_VERSION_JSON)
            .and_then(|v| start.parse::<u64>().ok().map(|s| (v, s, *contig == "1"))),
        _ => None,
    };
    let Some((version, start_seq, contiguous)) = parsed else {
        return seg;
    };
    seg.start_seq = Some(start_seq);
    seg.contiguous = contiguous;
    let mut offset = nl + 1;
    let mut expected = start_seq;
    loop {
        let remaining = bytes.len() - offset;
        if remaining == 0 {
            seg.torn = false; // clean end of file
            return seg;
        }
        if remaining < RECORD_HEADER_BYTES {
            return seg;
        }
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap());
        if len > MAX_RECORD_BYTES || len as usize > remaining - RECORD_HEADER_BYTES {
            return seg;
        }
        let seq = u64::from_le_bytes(bytes[offset + 4..offset + 12].try_into().unwrap());
        let stored_crc = u32::from_le_bytes(bytes[offset + 12..offset + 16].try_into().unwrap());
        let payload =
            &bytes[offset + RECORD_HEADER_BYTES..offset + RECORD_HEADER_BYTES + len as usize];
        let crc = !crc32_update(crc32_update(0xFFFF_FFFF, &seq.to_le_bytes()), payload);
        if crc != stored_crc || seq != expected {
            return seg;
        }
        let op = if version == WAL_VERSION_JSON {
            let Ok(text) = std::str::from_utf8(payload) else {
                return seg;
            };
            let Ok(op) = serde_json::from_str::<WalOp>(text) else {
                return seg;
            };
            op
        } else {
            let Ok(op) = codec::decode_from_slice::<WalOp>(payload) else {
                return seg;
            };
            op
        };
        seg.records.push((seq, op));
        expected += 1;
        offset += RECORD_HEADER_BYTES + len as usize;
    }
}

// ---- manifest & directory layout ------------------------------------

/// The `MANIFEST` payload: which checkpoint generation is current, and
/// the first sequence number of the WAL that continues it.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Manifest {
    generation: u64,
    wal_start_seq: u64,
}

fn encode_manifest(m: &Manifest) -> Result<Vec<u8>, FmeterError> {
    let json = serde_json::to_string(m)?;
    Ok(format!("{MANIFEST_MAGIC} {:08x}\n{json}\n", crc32(json.as_bytes())).into_bytes())
}

fn read_manifest(dir: &Path) -> Option<Manifest> {
    let text = fs::read_to_string(dir.join(MANIFEST_FILE)).ok()?;
    let (magic_line, rest) = text.split_once('\n')?;
    let crc_hex = magic_line.strip_prefix(MANIFEST_MAGIC)?.trim();
    let stored = u32::from_str_radix(crc_hex, 16).ok()?;
    let json = rest.strip_suffix('\n').unwrap_or(rest);
    if crc32(json.as_bytes()) != stored {
        return None;
    }
    serde_json::from_str(json).ok()
}

fn checkpoint_name(generation: u64) -> String {
    format!("checkpoint-{generation:010}.fmdb")
}

fn wal_name(generation: u64) -> String {
    format!("wal-{generation:010}.log")
}

fn parse_generation(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// All checkpoint generations present in `dir`, newest first.
fn scan_checkpoints(dir: &Path) -> Result<Vec<u64>, FmeterError> {
    let mut gens = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(g) = parse_generation(name, "checkpoint-", ".fmdb") {
            gens.push(g);
        }
    }
    gens.sort_unstable_by(|a, b| b.cmp(a));
    Ok(gens)
}

/// The highest generation any file in `dir` mentions (checkpoint or
/// WAL) — the floor for the next generation a recovery may allocate.
fn max_generation(dir: &Path) -> Result<u64, FmeterError> {
    let mut max = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let g = parse_generation(name, "checkpoint-", ".fmdb")
            .or_else(|| parse_generation(name, "wal-", ".log"));
        max = max.max(g.unwrap_or(0));
    }
    Ok(max)
}

/// Best-effort fsync of the directory entry itself (so renames and
/// creations are durable); ignored on platforms where directories
/// cannot be opened.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Writes `bytes` to `dir/name` atomically: temp file → fsync → rename
/// → directory fsync. A crash anywhere leaves either the old file or
/// the new one, never a mix.
fn write_atomic(
    dir: &Path,
    name: &str,
    bytes: &[u8],
    plan: Option<&FailPlan>,
) -> Result<(), FmeterError> {
    let tmp = dir.join(format!("{name}.tmp"));
    {
        let file = File::create(&tmp)?;
        let mut sink: Box<dyn WalSink> = match plan {
            Some(p) => Box::new(FailpointFile::new(file, p.clone())),
            None => Box::new(file),
        };
        sink.write_all(bytes)?;
        sink.sync()?;
    }
    fs::rename(&tmp, dir.join(name))?;
    sync_dir(dir);
    Ok(())
}

// ---- durable log -----------------------------------------------------

/// Health of the durability layer, as observed by
/// [`DurableLog::health`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalHealth {
    /// Every acked op is logged (durable per the [`SyncPolicy`]).
    Healthy,
    /// A WAL write failed: mutations keep applying in memory but are
    /// *not* durable until a checkpoint attempt succeeds. Retries run
    /// under capped exponential backoff, counted in ops.
    Degraded {
        /// Checkpoint attempts that failed since degradation began
        /// (the initial WAL failure counts as the first).
        failed_attempts: u32,
        /// Acked ops not covered by WAL or checkpoint yet.
        ops_since_durable: u64,
        /// The most recent failure, for operators.
        last_error: String,
    },
}

#[derive(Debug)]
struct Degraded {
    failed_attempts: u32,
    ops_since_durable: u64,
    ops_until_retry: u64,
    last_error: String,
}

/// Capped exponential backoff, counted in operations so the schedule is
/// deterministic: 2, 4, 8, … capped at 256 ops between attempts.
fn backoff_ops(failed_attempts: u32) -> u64 {
    1u64 << failed_attempts.min(8)
}

/// What a recovery found and did — returned by
/// [`DurableLog::recover`] / [`crate::ShardWriter::recover`].
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The checkpoint generation the state was loaded from.
    pub generation: u64,
    /// Newer checkpoint generations that were present but damaged and
    /// skipped (the fallback path).
    pub checkpoints_skipped: usize,
    /// WAL records replayed on top of the checkpoint.
    pub replayed_ops: usize,
    /// Replayed records whose op was refused (and so changed nothing).
    /// Always 0 for logs this release wrote: it validates before it
    /// logs. Logs from earlier releases, which logged first, may hold
    /// such ops.
    pub refused_ops: usize,
    /// Sequence number of the last replayed record.
    pub last_seq: Option<u64>,
    /// True when replay stopped at a torn or corrupt record rather
    /// than a clean end of the log.
    pub torn_tail: bool,
    /// The generation the `MANIFEST` pointed at, `None` when it was
    /// missing or failed its checksum. Recovery never *requires* the
    /// manifest — it scans and validates generations directly — so a
    /// damaged manifest only shows up here, as a diagnostic.
    pub manifest_generation: Option<u64>,
}

/// The durability engine: owns a directory of checkpoints + WALs and
/// the append/checkpoint/recover protocol over it. It deliberately does
/// *not* own the [`SignatureDb`]: the
/// [`ShardWriter`](crate::ShardWriter) holding the database drives it.
pub struct DurableLog {
    dir: PathBuf,
    opts: DurableOptions,
    generation: u64,
    /// Next sequence number while no WAL is open (fresh or degraded).
    resume_seq: u64,
    wal: Option<WalWriter>,
    ops_since_checkpoint: u64,
    last_checkpoint: Instant,
    degraded: Option<Degraded>,
    /// Backoff for checkpoint failures while the WAL itself is healthy.
    checkpoint_failures: u32,
    checkpoint_retry_in: u64,
    wal_fail_plan: Option<FailPlan>,
    checkpoint_fail_plan: Option<FailPlan>,
    manifest_fail_plan: Option<FailPlan>,
}

impl DurableLog {
    /// Initialises a fresh durable directory for `db`: generation-1
    /// checkpoint, empty WAL, manifest. Fails if `dir` already holds a
    /// durable state (use [`DurableLog::recover`] for that).
    pub fn create(dir: &Path, db: &SignatureDb, opts: DurableOptions) -> Result<Self, FmeterError> {
        fs::create_dir_all(dir)?;
        if dir.join(MANIFEST_FILE).exists() || !scan_checkpoints(dir)?.is_empty() {
            return Err(FmeterError::Persist(format!(
                "durable directory {} already holds a database; use recover",
                dir.display()
            )));
        }
        let mut log = DurableLog::bare(dir.to_path_buf(), opts, 0, 1);
        log.checkpoint(db)?;
        Ok(log)
    }

    fn bare(dir: PathBuf, opts: DurableOptions, generation: u64, resume_seq: u64) -> Self {
        DurableLog {
            dir,
            opts,
            generation,
            resume_seq,
            wal: None,
            ops_since_checkpoint: 0,
            last_checkpoint: Instant::now(),
            degraded: None,
            checkpoint_failures: 0,
            checkpoint_retry_in: 0,
            wal_fail_plan: None,
            checkpoint_fail_plan: None,
            manifest_fail_plan: None,
        }
    }

    /// Reconstructs the durably-acked state from `dir` *without writing
    /// anything*: newest loadable checkpoint + WAL chain replay,
    /// stopping at the first torn record. The inspect/debug entry
    /// point, and the cheap half of [`DurableLog::recover`]. The
    /// database comes back as one piece, beside the saved shard count.
    pub fn recover_state(dir: &Path) -> Result<(SignatureDb, usize, RecoveryReport), FmeterError> {
        let gens = scan_checkpoints(dir)?;
        if gens.is_empty() {
            return Err(FmeterError::Persist(format!(
                "no checkpoint found in {} (empty or partially-created durable directory)",
                dir.display()
            )));
        }
        let manifest = read_manifest(dir);
        let mut last_err: Option<FmeterError> = None;
        for (skipped, &generation) in gens.iter().enumerate() {
            match Self::try_recover_from(dir, generation) {
                Ok((db, num_shards, mut report)) => {
                    report.checkpoints_skipped = skipped;
                    report.manifest_generation = manifest.map(|m| m.generation);
                    return Ok((db, num_shards, report));
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(FmeterError::Persist(format!(
            "no loadable checkpoint generation in {}: {}",
            dir.display(),
            last_err.map(|e| e.to_string()).unwrap_or_default()
        )))
    }

    /// Loads checkpoint `generation` and replays its WAL chain.
    fn try_recover_from(
        dir: &Path,
        generation: u64,
    ) -> Result<(SignatureDb, usize, RecoveryReport), FmeterError> {
        let bytes = fs::read(dir.join(checkpoint_name(generation)))?;
        let (mut db, num_shards) = persist::load_sharded(&bytes[..])?;
        let mut report = RecoveryReport {
            generation,
            checkpoints_skipped: 0,
            replayed_ops: 0,
            refused_ops: 0,
            last_seq: None,
            torn_tail: false,
            manifest_generation: None,
        };
        // Replay wal-<generation>, then chain into each successor WAL
        // that declares itself a contiguous continuation (the newer
        // checkpoint those WALs belonged to is damaged or absent, or we
        // would have recovered from it). Never chain past a torn file:
        // anything after the damage is not provably consistent.
        let mut expected: Option<u64> = None;
        for g in generation.. {
            let Ok(wal_bytes) = fs::read(dir.join(wal_name(g))) else {
                break;
            };
            let seg = read_wal(&wal_bytes);
            let Some(start_seq) = seg.start_seq else {
                report.torn_tail = true;
                break;
            };
            if g > generation && (!seg.contiguous || expected != Some(start_seq)) {
                break;
            }
            for (seq, op) in &seg.records {
                if op.apply(&mut db).is_err() {
                    report.refused_ops += 1;
                }
                report.replayed_ops += 1;
                report.last_seq = Some(*seq);
            }
            expected = Some(start_seq + seg.records.len() as u64);
            if seg.torn {
                report.torn_tail = true;
                break;
            }
        }
        Ok((db, num_shards, report))
    }

    /// Full crash recovery: rebuilds the durably-acked state, re-routed
    /// into its saved shard count, then immediately starts a *fresh*
    /// generation (new checkpoint + empty WAL) — a WAL with a
    /// possibly-torn tail is never appended to, so recovery is also
    /// self-healing.
    pub fn recover(
        dir: &Path,
        opts: DurableOptions,
    ) -> Result<(SignatureDb, Self, RecoveryReport), FmeterError> {
        let (mut db, num_shards, report) = Self::recover_state(dir)?;
        db.reshard(num_shards);
        let resume_seq = report.last_seq.map(|s| s + 1).unwrap_or(1);
        let generation = max_generation(dir)?;
        let mut log = DurableLog::bare(dir.to_path_buf(), opts, generation, resume_seq);
        log.checkpoint(&db)?;
        Ok((db, log, report))
    }

    /// Appends one op to the WAL — call *after* validating the mutation
    /// and *before* applying it.
    /// Never fails: a write error flips the log into
    /// [`WalHealth::Degraded`] (the op still applies in memory) and
    /// durability is re-established by the next successful checkpoint.
    pub fn append(&mut self, op: &WalOp) {
        self.ops_since_checkpoint += 1;
        match &mut self.wal {
            Some(writer) => {
                if let Err(e) = writer.append(op) {
                    // The WAL tail must now be assumed torn; replay will
                    // stop there, so later appends would be invisible.
                    // Stop writing and surface the state.
                    self.resume_seq = writer.next_seq();
                    self.wal = None;
                    self.degraded = Some(Degraded {
                        failed_attempts: 1,
                        ops_since_durable: 1,
                        ops_until_retry: backoff_ops(1),
                        last_error: e.to_string(),
                    });
                }
            }
            None => {
                if let Some(d) = &mut self.degraded {
                    d.ops_since_durable += 1;
                }
            }
        }
    }

    /// Runs the checkpoint policy (and, when degraded, the backoff'd
    /// re-establishment attempts). Call once per mutation, after
    /// applying it. Returns true when a checkpoint was taken.
    pub fn maybe_checkpoint(&mut self, db: &SignatureDb) -> bool {
        if self.degraded.is_some() {
            {
                let d = self.degraded.as_mut().expect("checked above");
                if d.ops_until_retry > 0 {
                    d.ops_until_retry -= 1;
                    return false;
                }
            }
            self.checkpoint_with_backoff(db).is_ok()
        } else {
            if self.checkpoint_retry_in > 0 {
                self.checkpoint_retry_in -= 1;
                return false;
            }
            let due = match self.opts.checkpoint {
                CheckpointPolicy::Manual => false,
                CheckpointPolicy::Every {
                    ops,
                    wal_bytes,
                    interval,
                } => {
                    ops.is_some_and(|n| self.ops_since_checkpoint >= n)
                        || wal_bytes.is_some_and(|b| self.wal_bytes() >= b)
                        || interval.is_some_and(|i| self.last_checkpoint.elapsed() >= i)
                }
            };
            if !due {
                return false;
            }
            self.checkpoint_with_backoff(db).is_ok()
        }
    }

    /// Attempts a checkpoint now, folding a failure into the retry
    /// backoff (so the caller is never poisoned) *and* propagating it —
    /// for callers that must surface the failure, like policy setters,
    /// where an unpersisted change would make recovery silently replay
    /// the WAL under the old policy.
    pub fn checkpoint_with_backoff(&mut self, db: &SignatureDb) -> Result<(), FmeterError> {
        match self.checkpoint(db) {
            Ok(()) => Ok(()), // checkpoint() cleared any degraded state
            Err(e) => {
                if let Some(d) = &mut self.degraded {
                    d.failed_attempts += 1;
                    d.ops_until_retry = backoff_ops(d.failed_attempts);
                    d.last_error = e.to_string();
                } else {
                    // The WAL is still healthy — nothing acked is at
                    // risk — so just retry the checkpoint later.
                    self.checkpoint_failures += 1;
                    self.checkpoint_retry_in = backoff_ops(self.checkpoint_failures);
                }
                Err(e)
            }
        }
    }

    /// Takes a checkpoint now: writes the full state as a fresh
    /// generation (atomic rename), starts a new WAL, updates the
    /// manifest, prunes generations beyond [`KEEP_GENERATIONS`], and —
    /// if the log was degraded — restores [`WalHealth::Healthy`].
    pub fn checkpoint(&mut self, db: &SignatureDb) -> Result<(), FmeterError> {
        let new_gen = self.generation + 1;
        let mut bytes = Vec::new();
        persist::save(db, persist::CURRENT_FORMAT_VERSION, &mut bytes)?;
        write_atomic(
            &self.dir,
            &checkpoint_name(new_gen),
            &bytes,
            self.checkpoint_fail_plan.as_ref(),
        )?;
        // The rename just made checkpoint-<new_gen> the newest
        // generation recovery can see — and recovery starts its WAL
        // replay chain at the generation it loads. On any failure below
        // we are still appending acked ops into the *previous*
        // generation's WAL, so the new checkpoint must come back off
        // disk: left in place, it would shadow those ops after a crash.
        match self.open_generation(new_gen) {
            Ok((writer, start_seq)) => {
                self.prune(new_gen);
                self.generation = new_gen;
                self.resume_seq = start_seq;
                self.wal = Some(writer);
                self.ops_since_checkpoint = 0;
                self.last_checkpoint = Instant::now();
                self.degraded = None;
                self.checkpoint_failures = 0;
                self.checkpoint_retry_in = 0;
                Ok(())
            }
            Err(e) => {
                // Best effort: if a delete fails too, the stale
                // generation can still shadow the live WAL after a
                // crash, but the original error is already in flight.
                let _ = fs::remove_file(self.dir.join(checkpoint_name(new_gen)));
                let _ = fs::remove_file(self.dir.join(wal_name(new_gen)));
                sync_dir(&self.dir);
                Err(e)
            }
        }
    }

    /// Creates generation `generation`'s WAL (header written through
    /// the sync policy) and durably points the manifest at it. The new
    /// WAL continues the global sequence; it is a contiguous
    /// continuation of the previous segment unless a degraded period
    /// left acked ops that never reached any WAL.
    fn open_generation(&self, generation: u64) -> Result<(WalWriter, u64), FmeterError> {
        let start_seq = self.next_seq();
        let contiguous = self
            .degraded
            .as_ref()
            .is_none_or(|d| d.ops_since_durable == 0);
        let file = File::create(self.dir.join(wal_name(generation)))?;
        let sink: Box<dyn WalSink> = match &self.wal_fail_plan {
            Some(p) => Box::new(FailpointFile::new(file, p.clone())),
            None => Box::new(file),
        };
        let writer = WalWriter::create(sink, start_seq, contiguous, self.opts.sync)?;
        sync_dir(&self.dir);
        let manifest = encode_manifest(&Manifest {
            generation,
            wal_start_seq: start_seq,
        })?;
        write_atomic(
            &self.dir,
            MANIFEST_FILE,
            &manifest,
            self.manifest_fail_plan.as_ref(),
        )?;
        Ok((writer, start_seq))
    }

    /// Deletes checkpoint/WAL generations older than the retention
    /// window and any stale temp files. Best effort: pruning failures
    /// never fail a checkpoint.
    fn prune(&self, newest: u64) {
        let min_keep = newest.saturating_sub(KEEP_GENERATIONS - 1);
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let stale_tmp = name.ends_with(".tmp");
            let old_gen = parse_generation(name, "checkpoint-", ".fmdb")
                .or_else(|| parse_generation(name, "wal-", ".log"))
                .is_some_and(|g| g < min_keep);
            if stale_tmp || old_gen {
                let _ = fs::remove_file(entry.path());
            }
        }
    }

    /// Forces an fsync of the current WAL (useful under
    /// [`SyncPolicy::OnCheckpoint`] before a planned pause).
    pub fn sync(&mut self) -> Result<(), FmeterError> {
        match &mut self.wal {
            Some(w) => w.sync(),
            None => Ok(()),
        }
    }

    /// Current health of the durability layer.
    pub fn health(&self) -> WalHealth {
        match &self.degraded {
            None => WalHealth::Healthy,
            Some(d) => WalHealth::Degraded {
                failed_attempts: d.failed_attempts,
                ops_since_durable: d.ops_since_durable,
                last_error: d.last_error.clone(),
            },
        }
    }

    /// The checkpoint generation currently on disk.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The sequence number the next logged op will carry.
    pub fn next_seq(&self) -> u64 {
        self.wal.as_ref().map_or(self.resume_seq, |w| w.next_seq())
    }

    /// Bytes in the current WAL file (0 while degraded).
    pub fn wal_bytes(&self) -> u64 {
        self.wal.as_ref().map_or(0, |w| w.bytes_written())
    }

    /// Ops appended since the last checkpoint.
    pub fn ops_since_checkpoint(&self) -> u64 {
        self.ops_since_checkpoint
    }

    /// The directory this log persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Fault injection: apply `plan` to the current WAL file and every
    /// future one (byte budgets count from this call / file creation).
    /// `None` disarms future files (the current file keeps its wrapper).
    pub fn set_wal_fail_plan(&mut self, plan: Option<FailPlan>) {
        self.wal_fail_plan = plan.clone();
        if let (Some(p), Some(w)) = (plan, &mut self.wal) {
            w.arm_failpoints(p);
        }
    }

    /// Fault injection: apply `plan` to every future checkpoint write.
    pub fn set_checkpoint_fail_plan(&mut self, plan: Option<FailPlan>) {
        self.checkpoint_fail_plan = plan;
    }

    /// Fault injection: apply `plan` to every future manifest write —
    /// the last step of a checkpoint, so this exercises failures
    /// *after* the new checkpoint file has renamed into place.
    pub fn set_manifest_fail_plan(&mut self, plan: Option<FailPlan>) {
        self.manifest_fail_plan = plan;
    }
}

impl fmt::Debug for DurableLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableLog")
            .field("dir", &self.dir)
            .field("generation", &self.generation)
            .field("next_seq", &self.next_seq())
            .field("ops_since_checkpoint", &self.ops_since_checkpoint)
            .field("health", &self.health())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ShortWriter;
    use crate::ShardWriter;
    use fmeter_kernel_sim::Nanos;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn test_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "fmeter-wal-{}-{tag}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn raw(seed: u64) -> RawSignature {
        RawSignature {
            counts: vec![seed % 7, 3, seed % 5, 1, 0, 2, seed % 3, 0],
            started_at: Nanos(seed * 100),
            ended_at: Nanos(seed * 100 + 50),
            label: Some(if seed.is_multiple_of(2) { "a" } else { "b" }.to_string()),
        }
    }

    fn base_db() -> SignatureDb {
        let raws: Vec<RawSignature> = (0..8).map(raw).collect();
        SignatureDb::build(&raws).unwrap()
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn wal_records_round_trip_through_a_sink() {
        let mut w =
            WalWriter::create(Box::new(Vec::new()), 7, true, SyncPolicy::OnCheckpoint).unwrap();
        let ops = [
            WalOp::Insert(raw(1)),
            WalOp::Remove(3),
            WalOp::Refit,
            WalOp::InsertBatch(vec![raw(2), raw(3)]),
            WalOp::Vacuum,
        ];
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(w.append(op).unwrap(), 7 + i as u64);
        }
        // Recover the bytes from the boxed sink by rebuilding: the
        // writer interface hides them, so frame a parallel buffer.
        let mut bytes = format!("{WAL_MAGIC} {WAL_VERSION} 7 1\n").into_bytes();
        for (i, op) in ops.iter().enumerate() {
            bytes.extend_from_slice(&encode_record(7 + i as u64, op));
        }
        let seg = read_wal(&bytes);
        assert_eq!(seg.start_seq, Some(7));
        assert!(seg.contiguous);
        assert!(!seg.torn);
        assert_eq!(seg.records.len(), ops.len());
        for ((seq, got), (i, want)) in seg.records.iter().zip(ops.iter().enumerate()) {
            assert_eq!(*seq, 7 + i as u64);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn v1_json_wal_segments_still_replay() {
        // A daemon upgraded in place finds the previous build's v1 WAL
        // on disk; its JSON payloads must replay exactly.
        let ops = [
            WalOp::Insert(raw(1)),
            WalOp::Remove(3),
            WalOp::Refit,
            WalOp::InsertBatch(vec![raw(2), raw(3)]),
            WalOp::Vacuum,
        ];
        let mut bytes = format!("{WAL_MAGIC} {WAL_VERSION_JSON} 4 0\n").into_bytes();
        for (i, op) in ops.iter().enumerate() {
            let seq = 4 + i as u64;
            let payload = serde_json::to_string(op).unwrap().into_bytes();
            let crc = !crc32_update(crc32_update(0xFFFF_FFFF, &seq.to_le_bytes()), &payload);
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&seq.to_le_bytes());
            bytes.extend_from_slice(&crc.to_le_bytes());
            bytes.extend_from_slice(&payload);
        }
        let seg = read_wal(&bytes);
        assert_eq!(seg.start_seq, Some(4));
        assert!(!seg.contiguous);
        assert!(!seg.torn);
        assert_eq!(seg.records.len(), ops.len());
        for ((_, got), want) in seg.records.iter().zip(ops.iter()) {
            assert_eq!(got, want);
        }
        // A binary payload inside a v1 file is *not* silently accepted:
        // the JSON decode fails and replay stops cleanly there.
        let mut mixed = format!("{WAL_MAGIC} {WAL_VERSION_JSON} 1 1\n").into_bytes();
        mixed.extend_from_slice(&encode_record(1, &WalOp::Refit));
        let seg = read_wal(&mixed);
        assert!(seg.torn);
        assert!(seg.records.is_empty());
    }

    #[test]
    fn unknown_wal_versions_are_ignored() {
        let bytes = format!("{WAL_MAGIC} 3 1 1\n").into_bytes();
        let seg = read_wal(&bytes);
        assert_eq!(seg.start_seq, None);
        assert!(seg.torn);
    }

    #[test]
    fn truncation_at_every_byte_yields_a_clean_prefix() {
        let ops = [
            WalOp::Insert(raw(1)),
            WalOp::Remove(0),
            WalOp::Refit,
            WalOp::Vacuum,
        ];
        let mut bytes = format!("{WAL_MAGIC} {WAL_VERSION} 1 1\n").into_bytes();
        let mut boundaries = vec![bytes.len()];
        for (i, op) in ops.iter().enumerate() {
            bytes.extend_from_slice(&encode_record(1 + i as u64, op));
            boundaries.push(bytes.len());
        }
        for cut in 0..=bytes.len() {
            let seg = read_wal(&bytes[..cut]);
            if cut < boundaries[0] {
                assert_eq!(seg.start_seq, None, "cut {cut}");
                assert!(seg.torn);
            } else {
                // Number of records wholly inside the prefix.
                let wanted = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
                assert_eq!(seg.records.len(), wanted, "cut {cut}");
                assert_eq!(
                    seg.torn,
                    cut != *boundaries.last().unwrap() && cut != boundaries[wanted],
                    "cut {cut}"
                );
            }
        }
    }

    #[test]
    fn bit_flips_stop_replay_at_the_damaged_record() {
        let ops: Vec<WalOp> = (0..4).map(|i| WalOp::Insert(raw(i))).collect();
        let mut bytes = format!("{WAL_MAGIC} {WAL_VERSION} 1 1\n").into_bytes();
        let mut starts = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            starts.push(bytes.len());
            bytes.extend_from_slice(&encode_record(1 + i as u64, op));
        }
        // Flip one bit inside record 2 (in its payload area).
        let mut damaged = bytes.clone();
        damaged[starts[2] + RECORD_HEADER_BYTES + 3] ^= 0x10;
        let seg = read_wal(&damaged);
        assert!(seg.torn);
        assert_eq!(seg.records.len(), 2, "replay must stop before record 2");
        // Flip a bit in a *length* field: still a clean stop.
        let mut damaged = bytes.clone();
        damaged[starts[1]] ^= 0x40;
        let seg = read_wal(&damaged);
        assert!(seg.torn);
        assert_eq!(seg.records.len(), 1);
    }

    #[test]
    fn short_writes_do_not_tear_records() {
        let sink = ShortWriter::new(Vec::new(), 3);
        let mut w = WalWriter::create(Box::new(sink), 1, true, SyncPolicy::EveryRecord).unwrap();
        for i in 0..3 {
            w.append(&WalOp::Insert(raw(i))).unwrap();
        }
        // The write_all loop must have retried until every byte landed;
        // prove it by replaying the exact same frames.
        let mut bytes = format!("{WAL_MAGIC} {WAL_VERSION} 1 1\n").into_bytes();
        for i in 0..3 {
            bytes.extend_from_slice(&encode_record(1 + i, &WalOp::Insert(raw(i))));
        }
        let seg = read_wal(&bytes);
        assert_eq!(seg.records.len(), 3);
        assert!(!seg.torn);
    }

    #[test]
    fn manifest_round_trips_and_rejects_damage() {
        let dir = test_dir("manifest");
        fs::create_dir_all(&dir).unwrap();
        let m = Manifest {
            generation: 12,
            wal_start_seq: 345,
        };
        fs::write(dir.join(MANIFEST_FILE), encode_manifest(&m).unwrap()).unwrap();
        let back = read_manifest(&dir).unwrap();
        assert_eq!(back.generation, 12);
        assert_eq!(back.wal_start_seq, 345);
        // Flip a byte in the JSON: the checksum must reject it.
        let mut bytes = encode_manifest(&m).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0x01;
        fs::write(dir.join(MANIFEST_FILE), bytes).unwrap();
        assert!(read_manifest(&dir).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_checkpoint_recover_round_trip() {
        let dir = test_dir("roundtrip");
        let db = base_db();
        let mut durable =
            ShardWriter::create(&dir, db.clone(), 1, DurableOptions::default()).unwrap();
        for i in 8..14 {
            durable.insert(&raw(i)).unwrap();
        }
        durable.remove(2).unwrap();
        durable.refit();
        let expected = durable.db().clone();
        drop(durable); // "crash": no shutdown checkpoint
        let (recovered, report) = ShardWriter::recover(&dir, DurableOptions::default()).unwrap();
        assert_eq!(report.replayed_ops, 8);
        assert!(!report.torn_tail);
        assert_eq!(report.checkpoints_skipped, 0);
        assert_eq!(recovered.db().len(), expected.len());
        assert_eq!(recovered.db().epoch(), expected.epoch());
        for d in 0..expected.num_slots() {
            assert_eq!(recovered.db().is_live(d), expected.is_live(d));
            assert_eq!(
                recovered.db().signature(d).vector,
                expected.signature(d).vector
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_on_empty_or_partial_directory_fails_loudly() {
        let dir = test_dir("empty");
        // Nonexistent directory.
        assert!(ShardWriter::recover(&dir, DurableOptions::default()).is_err());
        // Empty directory.
        fs::create_dir_all(&dir).unwrap();
        assert!(ShardWriter::recover(&dir, DurableOptions::default()).is_err());
        // Partially-created: stray tmp and WAL but no checkpoint.
        fs::write(dir.join("checkpoint-0000000001.fmdb.tmp"), b"half").unwrap();
        fs::write(dir.join(wal_name(1)), b"FMWAL 1 1 1\n").unwrap();
        let err = ShardWriter::recover(&dir, DurableOptions::default()).unwrap_err();
        assert!(
            err.to_string().contains("no checkpoint"),
            "unexpected error: {err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_refuses_a_populated_directory() {
        let dir = test_dir("populated");
        let db = base_db();
        drop(ShardWriter::create(&dir, db.clone(), 1, DurableOptions::default()).unwrap());
        assert!(ShardWriter::create(&dir, db, 1, DurableOptions::default()).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_failure_degrades_then_heals_with_backoff() {
        let dir = test_dir("degrade");
        let db = base_db();
        let opts = DurableOptions {
            sync: SyncPolicy::EveryRecord,
            checkpoint: CheckpointPolicy::Manual,
        };
        let mut durable = ShardWriter::create(&dir, db, 1, opts).unwrap();
        durable.insert(&raw(100)).unwrap();
        assert_eq!(durable.durability_health().unwrap(), WalHealth::Healthy);
        // Kill the WAL: the very next append fails and degrades.
        durable
            .durable_log_mut()
            .unwrap()
            .set_wal_fail_plan(Some(FailPlan::kill_at(0)));
        // Also make the heal checkpoints fail (the new WAL dies too).
        durable.insert(&raw(101)).unwrap();
        match durable.durability_health().unwrap() {
            WalHealth::Degraded {
                failed_attempts,
                ops_since_durable,
                ..
            } => {
                assert_eq!(failed_attempts, 1);
                assert_eq!(ops_since_durable, 1);
            }
            h => panic!("expected degraded, got {h:?}"),
        }
        // Mutations keep applying in memory while degraded, and retry
        // attempts back off (2, 4, 8 … ops between attempts).
        let len_before = durable.db().len();
        for i in 0..40u64 {
            durable.insert(&raw(102 + i)).unwrap();
        }
        assert_eq!(durable.db().len(), len_before + 40);
        let attempts_while_failing = match durable.durability_health().unwrap() {
            WalHealth::Degraded {
                failed_attempts, ..
            } => failed_attempts,
            h => panic!("expected degraded, got {h:?}"),
        };
        assert!(
            (2..=7).contains(&attempts_while_failing),
            "backoff should have retried a few times, not every op: {attempts_while_failing}"
        );
        // Clear the fault: the next retry window heals the log.
        durable.durable_log_mut().unwrap().set_wal_fail_plan(None);
        let mut healed = false;
        for i in 0..300u64 {
            durable.insert(&raw(200 + i)).unwrap();
            if durable.durability_health().unwrap() == WalHealth::Healthy {
                healed = true;
                break;
            }
        }
        assert!(healed, "log never healed after the fault cleared");
        let expected = durable.db().clone();
        drop(durable);
        // Everything — including the ops that rode through the degraded
        // window — recovers, because healing took a fresh checkpoint.
        let (recovered, _) = ShardWriter::recover(&dir, DurableOptions::default()).unwrap();
        assert_eq!(recovered.db().len(), expected.len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_manifest_write_retracts_the_checkpoint_and_keeps_the_live_wal() {
        // The reviewer's scenario for the mid-checkpoint failure hole:
        // the new checkpoint renames into place, then a later step (the
        // manifest write — the last one) fails. The writer keeps
        // appending acked, fsynced ops into the previous generation's
        // WAL; a crash + recovery must retain them, which means the
        // half-installed generation must have come back off disk.
        let dir = test_dir("retract-manifest");
        let opts = DurableOptions {
            sync: SyncPolicy::EveryRecord,
            checkpoint: CheckpointPolicy::Manual,
        };
        let mut durable = ShardWriter::create(&dir, base_db(), 1, opts).unwrap();
        durable.insert(&raw(300)).unwrap();
        durable
            .durable_log_mut()
            .unwrap()
            .set_manifest_fail_plan(Some(FailPlan::kill_at(0)));
        assert!(durable.checkpoint().is_err());
        durable
            .durable_log_mut()
            .unwrap()
            .set_manifest_fail_plan(None);
        // The WAL itself never failed: still healthy, still generation 1.
        assert_eq!(durable.durability_health().unwrap(), WalHealth::Healthy);
        assert_eq!(durable.durable_log().unwrap().generation(), 1);
        assert!(
            !dir.join(checkpoint_name(2)).exists() && !dir.join(wal_name(2)).exists(),
            "the half-installed generation must be retracted"
        );
        // More acked ops keep flowing into the generation-1 WAL...
        durable.insert(&raw(301)).unwrap();
        durable.insert(&raw(302)).unwrap();
        let expected_len = durable.db().len();
        drop(durable); // ...then crash.
        let (recovered, report) = ShardWriter::recover(&dir, DurableOptions::default()).unwrap();
        assert_eq!(report.generation, 1);
        assert!(!report.torn_tail);
        assert_eq!(
            recovered.db().len(),
            expected_len,
            "ops acked after the failed checkpoint must survive recovery"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_wal_creation_retracts_the_checkpoint() {
        // Same hole, earlier failure point: the new generation's WAL
        // header write dies right after the checkpoint rename.
        let dir = test_dir("retract-wal");
        let opts = DurableOptions {
            sync: SyncPolicy::EveryRecord,
            checkpoint: CheckpointPolicy::Manual,
        };
        let mut durable = ShardWriter::create(&dir, base_db(), 1, opts).unwrap();
        durable.insert(&raw(310)).unwrap();
        durable
            .durable_log_mut()
            .unwrap()
            .set_wal_fail_plan(Some(FailPlan::kill_at(0)));
        assert!(durable.checkpoint().is_err());
        assert_eq!(durable.durable_log().unwrap().generation(), 1);
        assert!(
            !dir.join(checkpoint_name(2)).exists(),
            "a checkpoint with no WAL must not be left to shadow generation 1"
        );
        let expected_len = durable.db().len();
        drop(durable); // Crash without further ops (the live WAL sink is
                       // armed too, so appends would degrade — covered
                       // by the degradation test above).
        let (recovered, report) = ShardWriter::recover(&dir, DurableOptions::default()).unwrap();
        assert_eq!(report.generation, 1);
        assert_eq!(recovered.db().len(), expected_len);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_policy_triggers_on_ops() {
        let dir = test_dir("policy");
        let db = base_db();
        let opts = DurableOptions {
            sync: SyncPolicy::EveryN(4),
            checkpoint: CheckpointPolicy::Every {
                ops: Some(5),
                wal_bytes: None,
                interval: None,
            },
        };
        let mut durable = ShardWriter::create(&dir, db, 1, opts).unwrap();
        let gen_before = durable.durable_log().unwrap().generation();
        for i in 0..11 {
            durable.insert(&raw(50 + i)).unwrap();
        }
        assert!(
            durable.durable_log().unwrap().generation() >= gen_before + 2,
            "11 ops at a 5-op bound must have checkpointed at least twice"
        );
        assert!(durable.durable_log().unwrap().ops_since_checkpoint() < 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_prefers_newest_and_falls_back_when_truncated() {
        let dir = test_dir("fallback");
        let db = base_db();
        let opts = DurableOptions {
            sync: SyncPolicy::EveryRecord,
            checkpoint: CheckpointPolicy::Manual,
        };
        let mut durable = ShardWriter::create(&dir, db, 1, opts).unwrap();
        for i in 0..4 {
            durable.insert(&raw(20 + i)).unwrap();
        }
        durable.checkpoint().unwrap(); // generation 2 holds the inserts
        for i in 0..2 {
            durable.insert(&raw(30 + i)).unwrap();
        }
        let expected = durable.db().clone();
        let newest = durable.durable_log().unwrap().generation();
        drop(durable);
        // Damage the newest checkpoint: recovery must fall back to the
        // previous generation and chain-replay both WALs to the exact
        // same state.
        let path = dir.join(checkpoint_name(newest));
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        let (recovered, report) = ShardWriter::recover(&dir, DurableOptions::default()).unwrap();
        assert_eq!(report.generation, newest - 1);
        assert_eq!(report.checkpoints_skipped, 1);
        assert_eq!(report.replayed_ops, 6, "4 pre-checkpoint + 2 post");
        assert_eq!(recovered.db().len(), expected.len());
        for d in 0..expected.num_slots() {
            assert_eq!(
                recovered.db().signature(d).vector,
                expected.signature(d).vector
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn policy_changes_are_persisted_via_checkpoint() {
        let dir = test_dir("policy-change");
        let db = base_db();
        let mut durable = ShardWriter::create(&dir, db, 1, DurableOptions::default()).unwrap();
        durable
            .set_refit_policy(crate::RefitPolicy::EveryN(3))
            .unwrap();
        durable
            .set_vacuum_policy(crate::VacuumPolicy::DeadFraction {
                max_dead_fraction: 0.5,
                min_dead: 2,
            })
            .unwrap();
        drop(durable);
        let (recovered, _) = ShardWriter::recover(&dir, DurableOptions::default()).unwrap();
        assert_eq!(recovered.db().refit_policy(), crate::RefitPolicy::EveryN(3));
        assert_eq!(
            recovered.db().vacuum_policy(),
            crate::VacuumPolicy::DeadFraction {
                max_dead_fraction: 0.5,
                min_dead: 2,
            }
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
