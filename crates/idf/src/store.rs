//! The persistent incremental verdict store (`--cache-dir`).
//!
//! The store maps method keys to the [`Fingerprint`] they were last
//! verified under and the resulting [`Verdict`]. Only *definite*
//! verdicts are persisted — `Verified` (with
//! [`VerifyStats::normalized`] statistics) and `Failed` — never
//! `Unknown` or `CrashedInternal`: an indefinite answer must be
//! retried on the next run, not replayed from disk.
//!
//! The on-disk format is **`DAES1`**: 16 shard files
//! (`verdicts-0.daes` … `verdicts-f.daes`), selected by the top nibble
//! of the method key's name fingerprint — the shard must be stable
//! under *verdict* fingerprint churn or last-wins replay would split
//! one method's history across files. Each shard is a checksummed
//! fixed-layout header followed by length-prefixed records with
//! fixed-width little-endian integer fields and a per-record checksum;
//! loading streams the file once, skips corrupt records with a count,
//! and treats a cut-off tail (crash mid-append) as truncation, never
//! poison. Saving rewrites every shard compacted (tombstones and
//! superseded records dropped) through temp-file renames.
//!
//! JSONL is an export format only: [`VerdictStore::export_jsonl`]
//! renders the live entries one JSON object per line for inspection.
//! Nothing reads it back, so a legacy `verdicts.jsonl` left in a cache
//! directory is ignored.
//!
//! Durable appends ([`VerdictStore::record_durable`])
//! accumulate *dead weight* — superseded records and evict tombstones
//! that replay discards. The store tracks that debt (including debt
//! inherited from disk at open) and compacts automatically once it
//! exceeds the live entry count, so a long-lived daemon's store file
//! stops growing without bound between explicit saves.
//!
//! The store directory also carries the method → callee-spec
//! dependency graph ([`crate::depgraph::DepGraph`], in its own file)
//! used for transitive spec-dirtiness.

use crate::depgraph::DepGraph;
use crate::diag::FailureReport;
use crate::exec::{Obligation, Verdict, VerifyStats};
use crate::fingerprint::Fingerprint;
use crate::smt::Answer;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One stored method verdict.
#[derive(Clone, PartialEq, Debug)]
pub struct StoredVerdict {
    /// The fingerprint the verdict was computed under.
    pub fingerprint: Fingerprint,
    /// The verdict (`Verified` with normalized stats, or `Failed`).
    pub verdict: Verdict,
}

/// The persistent verdict store backing `--cache-dir`.
#[derive(Clone, PartialEq, Debug)]
pub struct VerdictStore {
    dir: PathBuf,
    entries: BTreeMap<String, StoredVerdict>,
    /// Undecodable records skipped during the last
    /// [`VerdictStore::open`] (surfaced as the `store.corrupt_lines`
    /// obs counter and in the daemon's metrics snapshot). A truncated
    /// final record — the signature of a crash mid-append — counts
    /// here too, but is additionally flagged by `truncated_tail`.
    corrupt_lines: usize,
    /// True when the file's final record was cut off mid-write: the
    /// expected wreckage of a SIGKILL between `write` and completion,
    /// worth a warning but never grounds to poison the rest of the
    /// store.
    truncated_tail: bool,
    /// Dead weight in the on-disk log: records replay discarded at
    /// open plus durable appends that superseded or tombstoned an
    /// entry since. Once this exceeds the live entry count,
    /// [`VerdictStore::record_durable`] compacts.
    dead_records: usize,
    /// The persisted dependency graph riding along in the same
    /// directory (see [`crate::depgraph`]).
    graph: DepGraph,
    graph_changed: bool,
}

/// Minimum dead-weight before auto-compaction triggers, so tiny stores
/// are not rewritten on every other append.
const COMPACT_MIN_DEAD: usize = 64;

impl VerdictStore {
    /// Number of `DAES1` shard files.
    pub const SHARD_COUNT: usize = 16;

    /// The `DAES1` shard file name for shard index `i` (`0..16`).
    pub fn shard_file_name(i: usize) -> String {
        format!("verdicts-{:x}.daes", i)
    }

    /// Opens (or initializes) the store under `dir`. Missing files and
    /// unreadable/corrupt records load as absent entries — a damaged
    /// store costs re-verification, never a wrong verdict.
    pub fn open(dir: &Path) -> VerdictStore {
        let mut store = VerdictStore {
            dir: dir.to_path_buf(),
            entries: BTreeMap::new(),
            corrupt_lines: 0,
            truncated_tail: false,
            dead_records: 0,
            graph: DepGraph::load(dir),
            graph_changed: false,
        };
        store.load_daes1();
        store
    }

    /// The cache directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn load_daes1(&mut self) {
        let mut replayed = 0usize;
        for shard in 0..Self::SHARD_COUNT {
            let path = self.dir.join(Self::shard_file_name(shard));
            let Ok(bytes) = fs::read(&path) else {
                continue;
            };
            match decode_shard(&bytes, shard, &mut self.entries, &mut replayed) {
                ShardEnd::Clean => {}
                ShardEnd::Corrupt(n) => self.corrupt_lines += n,
                ShardEnd::Truncated(n) => {
                    self.corrupt_lines += n;
                    self.truncated_tail = true;
                }
            }
        }
        self.dead_records = replayed.saturating_sub(self.entries.len());
    }

    /// Undecodable records skipped by the last [`VerdictStore::open`].
    pub fn corrupt_lines(&self) -> usize {
        self.corrupt_lines
    }

    /// True when a file ended in a record cut off mid-write (crash
    /// mid-append) that was skipped on load.
    pub fn truncated_tail(&self) -> bool {
        self.truncated_tail
    }

    /// Dead records currently sitting in the on-disk log (superseded
    /// or tombstoned); the auto-compaction pressure gauge.
    pub fn dead_records(&self) -> usize {
        self.dead_records
    }

    /// The stored verdict for `method`, iff it was recorded under
    /// exactly this fingerprint.
    pub fn lookup(&self, method: &str, fingerprint: Fingerprint) -> Option<&Verdict> {
        let stored = self.entries.get(method)?;
        (stored.fingerprint == fingerprint).then_some(&stored.verdict)
    }

    /// Records a verdict. Definite verdicts (`Verified`/`Failed`)
    /// replace the method's entry and return `true`; `Unknown` and
    /// `CrashedInternal` *remove* any stale entry (its fingerprint can
    /// no longer be trusted to describe the outcome) and return
    /// `false`.
    pub fn record(&mut self, method: &str, fingerprint: Fingerprint, verdict: &Verdict) -> bool {
        match verdict {
            Verdict::Verified(stats) => {
                self.entries.insert(
                    method.to_string(),
                    StoredVerdict {
                        fingerprint,
                        verdict: Verdict::Verified(stats.normalized()),
                    },
                );
                true
            }
            Verdict::Failed { .. } => {
                self.entries.insert(
                    method.to_string(),
                    StoredVerdict {
                        fingerprint,
                        verdict: verdict.clone(),
                    },
                );
                true
            }
            Verdict::Unknown { .. } | Verdict::CrashedInternal { .. } => {
                self.entries.remove(method);
                false
            }
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The persisted dependency graph (empty when the directory has
    /// none yet).
    pub fn graph(&self) -> &DepGraph {
        &self.graph
    }

    /// Upserts the current program's nodes into the persisted graph
    /// (see [`DepGraph::absorb`]); [`VerdictStore::save`] and
    /// [`VerdictStore::persist_graph`] write it back only when
    /// something actually changed.
    pub fn absorb_graph(&mut self, cur: &DepGraph) {
        if self.graph.absorb(cur) {
            self.graph_changed = true;
        }
    }

    /// Writes the dependency graph file if it changed since load — the
    /// shared-store path's end-of-run hook (the owned path goes
    /// through [`VerdictStore::save`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the graph file.
    pub fn persist_graph(&mut self) -> io::Result<()> {
        if self.graph_changed {
            self.graph.save(&self.dir)?;
            self.graph_changed = false;
        }
        Ok(())
    }

    /// Records a verdict (exactly as [`VerdictStore::record`]) *and*
    /// appends the change to the store file immediately, flushed, so a
    /// SIGKILL'd process loses at most the verdict currently being
    /// written. Definite verdicts append their entry record;
    /// indefinite verdicts append an evict tombstone that
    /// [`VerdictStore::open`] replays last-wins. When the appended
    /// dead weight outgrows the live entries the log is compacted in
    /// place (see [`VerdictStore::save`]), so a long-lived daemon's
    /// store stops growing without bound.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating the directory or appending
    /// to the file; the in-memory entry is updated regardless.
    pub fn record_durable(
        &mut self,
        method: &str,
        fingerprint: Fingerprint,
        verdict: &Verdict,
    ) -> io::Result<bool> {
        let superseded = self.entries.contains_key(method);
        let definite = self.record(method, fingerprint, verdict);
        if superseded || !definite {
            // Either the new record buries an old one, or it *is*
            // dead weight (a tombstone).
            self.dead_records += 1;
        }
        if self.dead_records > COMPACT_MIN_DEAD.max(self.entries.len()) {
            self.save()?;
            self.dead_records = 0;
            return Ok(definite);
        }
        fs::create_dir_all(&self.dir)?;
        let shard = shard_of(method);
        let frame = if definite {
            let stored = self
                .entries
                .get(method)
                .expect("record returned true, entry present");
            encode_frame(RECORD_PUT, &encode_put_payload(method, stored))
        } else {
            encode_frame(RECORD_TOMBSTONE, &encode_tombstone_payload(method))
        };
        append_flushed(
            &self.dir.join(Self::shard_file_name(shard)),
            &frame,
            &shard_header(shard),
        )?;
        Ok(definite)
    }

    /// Writes the store back to disk, compacted (one record per live
    /// method, tombstones and superseded records dropped), atomically
    /// via temp-file renames; the dependency graph file is written
    /// too when it changed.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating the directory or writing
    /// the files.
    pub fn save(&self) -> io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        // Every shard is rewritten — including empties — so a
        // compaction truncates stale data instead of leaving orphaned
        // records in shards the surviving entries no longer map to.
        let mut shards: Vec<Vec<u8>> = (0..Self::SHARD_COUNT)
            .map(|i| shard_header(i).to_vec())
            .collect();
        for (name, stored) in &self.entries {
            let frame = encode_frame(RECORD_PUT, &encode_put_payload(name, stored));
            shards[shard_of(name)].extend_from_slice(&frame);
        }
        for (i, bytes) in shards.iter().enumerate() {
            let path = self.dir.join(Self::shard_file_name(i));
            let tmp = path.with_extension("daes.tmp");
            fs::write(&tmp, bytes)?;
            fs::rename(&tmp, &path)?;
        }
        if self.graph_changed {
            self.graph.save(&self.dir)?;
        }
        Ok(())
    }

    /// Renders the live entries as JSONL, one JSON object per line in
    /// key order: `method`, `fp`, `verdict` (`verified` with the
    /// normalized `stats`, or `failed` with its `failures` and
    /// `report`). One-way: the store never reads this format back.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, stored) in &self.entries {
            encode_line(&mut out, name, stored);
            out.push('\n');
        }
        out
    }
}

/// Appends `frame` to `path`, flushed; `header` (the shard preamble)
/// is written first when the file is new or empty.
fn append_flushed(path: &Path, frame: &[u8], header: &[u8]) -> io::Result<()> {
    let mut file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    if file.metadata()?.len() == 0 {
        io::Write::write_all(&mut file, header)?;
    }
    io::Write::write_all(&mut file, frame)?;
    io::Write::flush(&mut file)
}

// ---------------------------------------------------------------------
// DAES1 binary codec.
//
// Shard header (24 bytes):
//   0..6   magic  "DAES1\0"
//   6..8   version u16 LE (currently 1)
//   8..12  shard index u32 LE
//   12..16 reserved u32 LE (0)
//   16..24 FNV-1a-64 checksum of bytes 0..16, u64 LE
//
// Record frame (16 bytes + payload):
//   0..4   payload length u32 LE
//   4      record kind (1 = put, 2 = tombstone)
//   5..8   padding (0)
//   8..16  FNV-1a-64 checksum of the payload, u64 LE
//
// Put payload: key string (u32 LE length + UTF-8 bytes), fingerprint
// hi/lo u64 LE, verdict tag u8 (0 = verified, 1 = failed), then either
// the 17 normalized stat counters (u64 LE each, STAT_KEYS order) or
// the failure obligations + report with every integer fixed-width LE
// and every string length-prefixed. Tombstone payload: the key string.
// ---------------------------------------------------------------------

const DAES_MAGIC: &[u8; 6] = b"DAES1\0";
const DAES_VERSION: u16 = 1;
const SHARD_HEADER_LEN: usize = 24;
const FRAME_HEADER_LEN: usize = 16;
const RECORD_PUT: u8 = 1;
const RECORD_TOMBSTONE: u8 = 2;
const VERDICT_VERIFIED: u8 = 0;
const VERDICT_FAILED: u8 = 1;

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The shard a key routes to: the top nibble of the key's *name*
/// fingerprint. Sharding by the verdict fingerprint would scatter one
/// method's history (and its tombstones) across files as its
/// fingerprint churns, breaking last-wins replay.
fn shard_of(key: &str) -> usize {
    (fnv64(key.as_bytes()) >> 60) as usize
}

fn shard_header(shard: usize) -> [u8; SHARD_HEADER_LEN] {
    let mut h = [0u8; SHARD_HEADER_LEN];
    h[..6].copy_from_slice(DAES_MAGIC);
    h[6..8].copy_from_slice(&DAES_VERSION.to_le_bytes());
    h[8..12].copy_from_slice(&(shard as u32).to_le_bytes());
    // 12..16 reserved, already zero.
    let sum = fnv64(&h[..16]);
    h[16..24].copy_from_slice(&sum.to_le_bytes());
    h
}

fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&[0u8; 3]);
    out.extend_from_slice(&fnv64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_str_list(out: &mut Vec<u8>, items: &[String]) {
    put_u32(out, items.len() as u32);
    for s in items {
        put_str(out, s);
    }
}

fn answer_code(a: Answer) -> u8 {
    match a {
        Answer::Valid => 0,
        Answer::Invalid => 1,
        Answer::Unknown => 2,
    }
}

fn decode_answer_code(c: u8) -> Option<Answer> {
    match c {
        0 => Some(Answer::Valid),
        1 => Some(Answer::Invalid),
        2 => Some(Answer::Unknown),
        _ => None,
    }
}

fn encode_tombstone_payload(key: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + key.len());
    put_str(&mut out, key);
    out
}

fn encode_put_payload(key: &str, stored: &StoredVerdict) -> Vec<u8> {
    let mut out = Vec::new();
    put_str(&mut out, key);
    put_u64(&mut out, stored.fingerprint.hi);
    put_u64(&mut out, stored.fingerprint.lo);
    match &stored.verdict {
        Verdict::Verified(stats) => {
            out.push(VERDICT_VERIFIED);
            for v in stat_values(stats) {
                put_u64(&mut out, v as u64);
            }
        }
        Verdict::Failed { failures, report } => {
            out.push(VERDICT_FAILED);
            put_u32(&mut out, failures.len() as u32);
            for o in failures {
                put_str(&mut out, &o.description);
                out.push(answer_code(o.outcome));
            }
            put_str(&mut out, &report.first_failure);
            put_str_list(&mut out, &report.chunks);
            put_str_list(&mut out, &report.path_condition);
            put_u32(&mut out, report.hot_queries.len() as u32);
            for q in &report.hot_queries {
                put_str(&mut out, &q.description);
                put_u64(&mut out, q.fuel);
                out.push(u8::from(q.cache_hit));
                put_u64(&mut out, q.learned);
                put_u64(&mut out, q.pc_hash);
                out.push(answer_code(q.answer));
            }
        }
        // `record` never admits these; encode defensively as a record
        // the decoder will reject.
        Verdict::Unknown { .. } | Verdict::CrashedInternal { .. } => {
            out.push(u8::MAX);
        }
    }
    out
}

/// A bounds-checked little-endian payload reader.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn u8(&mut self) -> Option<u8> {
        let v = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }

    fn u32(&mut self) -> Option<u32> {
        let b = self.buf.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(b.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        let b = self.buf.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(b.try_into().ok()?))
    }

    fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let b = self.buf.get(self.pos..self.pos + len)?;
        self.pos += len;
        Some(std::str::from_utf8(b).ok()?.to_string())
    }

    fn str_list(&mut self) -> Option<Vec<String>> {
        let n = self.u32()? as usize;
        // Each element costs at least its 4-byte length prefix: a
        // garbage count cannot allocate past the payload.
        if n > self.buf.len().saturating_sub(self.pos) / 4 {
            return None;
        }
        (0..n).map(|_| self.str()).collect()
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn decode_put_payload(payload: &[u8]) -> Option<(String, StoredVerdict)> {
    let mut r = Reader::new(payload);
    let key = r.str()?;
    let fingerprint = Fingerprint {
        hi: r.u64()?,
        lo: r.u64()?,
    };
    let verdict = match r.u8()? {
        VERDICT_VERIFIED => {
            let mut values = [0usize; 17];
            for v in &mut values {
                *v = usize::try_from(r.u64()?).ok()?;
            }
            Verdict::Verified(stats_from_values(values))
        }
        VERDICT_FAILED => {
            let n = r.u32()? as usize;
            if n > payload.len() / 5 {
                return None;
            }
            let failures = (0..n)
                .map(|_| {
                    Some(Obligation {
                        description: r.str()?,
                        outcome: decode_answer_code(r.u8()?)?,
                    })
                })
                .collect::<Option<Vec<_>>>()?;
            let first_failure = r.str()?;
            let chunks = r.str_list()?;
            let path_condition = r.str_list()?;
            let hq = r.u32()? as usize;
            if hq > payload.len() / 30 {
                return None;
            }
            let hot_queries = (0..hq)
                .map(|_| {
                    Some(crate::diag::QueryCost {
                        description: r.str()?,
                        fuel: r.u64()?,
                        cache_hit: r.u8()? != 0,
                        learned: r.u64()?,
                        pc_hash: r.u64()?,
                        answer: decode_answer_code(r.u8()?)?,
                    })
                })
                .collect::<Option<Vec<_>>>()?;
            Verdict::Failed {
                failures,
                report: FailureReport {
                    method: key.clone(),
                    first_failure,
                    chunks,
                    path_condition,
                    hot_queries,
                },
            }
        }
        _ => return None,
    };
    r.done().then_some((
        key,
        StoredVerdict {
            fingerprint,
            verdict,
        },
    ))
}

/// How a shard scan ended: cleanly, with `n` corrupt records skipped
/// mid-file, or with a truncated tail (`n` includes the cut-off
/// record).
enum ShardEnd {
    Clean,
    Corrupt(usize),
    Truncated(usize),
}

fn decode_shard(
    bytes: &[u8],
    shard: usize,
    entries: &mut BTreeMap<String, StoredVerdict>,
    replayed: &mut usize,
) -> ShardEnd {
    if bytes.len() < SHARD_HEADER_LEN || bytes[..SHARD_HEADER_LEN] != shard_header(shard) {
        // A shard whose very header is damaged (or belongs to another
        // index) contributes nothing: one counted skip for the file.
        return if bytes.is_empty() {
            ShardEnd::Clean
        } else {
            ShardEnd::Corrupt(1)
        };
    }
    let mut corrupt = 0usize;
    let mut pos = SHARD_HEADER_LEN;
    while pos < bytes.len() {
        if bytes.len() - pos < FRAME_HEADER_LEN {
            // A frame header cut off mid-write.
            return ShardEnd::Truncated(corrupt + 1);
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let kind = bytes[pos + 4];
        let sum = u64::from_le_bytes(bytes[pos + 8..pos + 16].try_into().expect("8 bytes"));
        let start = pos + FRAME_HEADER_LEN;
        if len > bytes.len() - start {
            // The frame declares more payload than the file holds: the
            // classic crash-mid-append tail. Nothing after it can be
            // re-framed, so the scan stops here.
            return ShardEnd::Truncated(corrupt + 1);
        }
        let payload = &bytes[start..start + len];
        pos = start + len;
        if fnv64(payload) != sum {
            // Framing is intact, the payload is rotten: skip exactly
            // this record and keep scanning.
            corrupt += 1;
            continue;
        }
        match kind {
            RECORD_PUT => match decode_put_payload(payload) {
                Some((key, stored)) => {
                    *replayed += 1;
                    entries.insert(key, stored);
                }
                None => corrupt += 1,
            },
            RECORD_TOMBSTONE => match Reader::new(payload).str() {
                Some(key) => {
                    *replayed += 1;
                    entries.remove(&key);
                }
                None => corrupt += 1,
            },
            _ => corrupt += 1,
        }
    }
    if corrupt == 0 {
        ShardEnd::Clean
    } else {
        ShardEnd::Corrupt(corrupt)
    }
}

// ---------------------------------------------------------------------
// JSONL export encoder.
// ---------------------------------------------------------------------

pub(crate) fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn answer_name(a: Answer) -> &'static str {
    match a {
        Answer::Valid => "valid",
        Answer::Invalid => "invalid",
        Answer::Unknown => "unknown",
    }
}

/// The `(key, usize)` stat fields, in serialization order (wall time
/// and thread count are normalized away before persisting).
const STAT_KEYS: [&str; 17] = [
    "obligations",
    "solver_queries",
    "solver_branches",
    "solver_conflicts",
    "solver_restarts",
    "solver_propagations",
    "theory_props",
    "cache_hits",
    "cache_misses",
    "learned_clauses",
    "interned_terms",
    "symbols",
    "witnesses",
    "rebinds",
    "stability_skips",
    "states",
    "budget_exhausted",
];

fn stat_values(s: &VerifyStats) -> [usize; 17] {
    [
        s.obligations,
        s.solver_queries,
        s.solver_branches,
        s.solver_conflicts,
        s.solver_restarts,
        s.solver_propagations,
        s.theory_props,
        s.cache_hits,
        s.cache_misses,
        s.learned_clauses,
        s.interned_terms,
        s.symbols,
        s.witnesses,
        s.rebinds,
        s.stability_skips,
        s.states,
        s.budget_exhausted,
    ]
}

fn stats_from_values(v: [usize; 17]) -> VerifyStats {
    let mut s = VerifyStats {
        obligations: v[0],
        solver_queries: v[1],
        solver_branches: v[2],
        solver_conflicts: v[3],
        solver_restarts: v[4],
        solver_propagations: v[5],
        theory_props: v[6],
        cache_hits: v[7],
        cache_misses: v[8],
        learned_clauses: v[9],
        interned_terms: v[10],
        symbols: v[11],
        witnesses: v[12],
        rebinds: v[13],
        stability_skips: v[14],
        states: v[15],
        budget_exhausted: v[16],
        ..VerifyStats::default()
    };
    s.wall_nanos = 0;
    s.threads = 0;
    s
}

fn encode_stats(out: &mut String, s: &VerifyStats) {
    out.push('{');
    for (i, (key, v)) in STAT_KEYS.iter().zip(stat_values(s)).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", key, v);
    }
    out.push('}');
}

fn encode_strings(out: &mut String, items: &[String]) {
    out.push('[');
    for (i, s) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", esc(s));
    }
    out.push(']');
}

fn encode_line(out: &mut String, name: &str, stored: &StoredVerdict) {
    let _ = write!(
        out,
        "{{\"method\":\"{}\",\"fp\":\"{}\",",
        esc(name),
        stored.fingerprint
    );
    match &stored.verdict {
        Verdict::Verified(stats) => {
            out.push_str("\"verdict\":\"verified\",\"stats\":");
            encode_stats(out, stats);
        }
        Verdict::Failed { failures, report } => {
            out.push_str("\"verdict\":\"failed\",\"failures\":[");
            for (i, o) in failures.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"description\":\"{}\",\"outcome\":\"{}\"}}",
                    esc(&o.description),
                    answer_name(o.outcome)
                );
            }
            let _ = write!(
                out,
                "],\"report\":{{\"first_failure\":\"{}\",\"chunks\":",
                esc(&report.first_failure)
            );
            encode_strings(out, &report.chunks);
            out.push_str(",\"path_condition\":");
            encode_strings(out, &report.path_condition);
            out.push_str(",\"hot_queries\":[");
            for (i, q) in report.hot_queries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"description\":\"{}\",\"fuel\":{},\"cache_hit\":{},\"learned\":{},\
                     \"pc_hash\":\"{:016x}\",\"answer\":\"{}\"}}",
                    esc(&q.description),
                    q.fuel,
                    q.cache_hit,
                    q.learned,
                    q.pc_hash,
                    answer_name(q.answer)
                );
            }
            out.push_str("]}");
        }
        // `record` never admits these.
        Verdict::Unknown { .. } | Verdict::CrashedInternal { .. } => {
            out.push_str("\"verdict\":\"unpersistable\"");
        }
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::QueryCost;
    use crate::exec::UnknownReason;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint { hi: n, lo: !n }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("daenerys-store-{}-{}", tag, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_failed() -> Verdict {
        Verdict::Failed {
            failures: vec![Obligation {
                description: "postcondition: \"tricky\\path\"\n".to_string(),
                outcome: Answer::Invalid,
            }],
            report: FailureReport {
                // Matches the key the test stores the verdict under:
                // the decoder rebuilds `report.method` from the entry's
                // key rather than persisting it twice.
                method: "bad".to_string(),
                first_failure: "[Invalid] postcondition".to_string(),
                chunks: vec!["acc(c.val, 1) ↦ $v0".to_string()],
                path_condition: vec!["0 < $n".to_string()],
                hot_queries: vec![QueryCost {
                    description: "postcondition".to_string(),
                    fuel: 3,
                    cache_hit: false,
                    learned: 1,
                    pc_hash: u64::MAX,
                    answer: Answer::Invalid,
                }],
            },
        }
    }

    #[test]
    fn roundtrips_verified_and_failed() {
        let dir = temp_dir("roundtrip");
        let mut store = VerdictStore::open(&dir);
        let stats = VerifyStats {
            obligations: 2,
            solver_queries: 5,
            learned_clauses: 1,
            wall_nanos: 999,
            threads: 4,
            ..VerifyStats::default()
        };
        assert!(store.record("ok", fp(1), &Verdict::Verified(stats.clone())));
        assert!(store.record("bad", fp(2), &sample_failed()));
        store.save().unwrap();

        let reloaded = VerdictStore::open(&dir);
        assert_eq!(reloaded.len(), 2);
        assert_eq!(
            reloaded.lookup("ok", fp(1)),
            Some(&Verdict::Verified(stats.normalized())),
            "stats are persisted normalized"
        );
        assert_eq!(reloaded.lookup("bad", fp(2)), Some(&sample_failed()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_misses() {
        let dir = temp_dir("mismatch");
        let mut store = VerdictStore::open(&dir);
        store.record("m", fp(1), &Verdict::Verified(VerifyStats::default()));
        assert!(store.lookup("m", fp(1)).is_some());
        assert!(store.lookup("m", fp(9)).is_none());
        assert!(store.lookup("other", fp(1)).is_none());
    }

    #[test]
    fn indefinite_verdicts_are_never_persisted_and_evict() {
        let dir = temp_dir("indefinite");
        let mut store = VerdictStore::open(&dir);
        store.record("m", fp(1), &Verdict::Verified(VerifyStats::default()));
        assert!(!store.record(
            "m",
            fp(1),
            &Verdict::Unknown {
                reason: UnknownReason::OutOfFragment {
                    detail: "x".to_string()
                },
                failures: Vec::new(),
                report: FailureReport::default(),
            },
        ));
        assert!(
            store.lookup("m", fp(1)).is_none(),
            "an indefinite outcome evicts the stale definite entry"
        );
        assert!(!store.record(
            "m",
            fp(1),
            &Verdict::CrashedInternal {
                message: "boom".to_string()
            },
        ));
        assert!(store.is_empty());
    }

    #[test]
    fn shard_payload_corruption_is_skipped_and_counted() {
        let dir = temp_dir("shard-corrupt");
        let mut store = VerdictStore::open(&dir);
        store
            .record_durable("keep", fp(7), &Verdict::Verified(VerifyStats::default()))
            .unwrap();
        store
            .record_durable("bad", fp(2), &sample_failed())
            .unwrap();
        drop(store);
        // Flip one byte inside the *last* record's payload of each
        // non-empty shard file: framing stays intact, the checksum
        // catches the rot, and only that record is lost.
        let mut flipped = 0;
        for i in 0..VerdictStore::SHARD_COUNT {
            let path = dir.join(VerdictStore::shard_file_name(i));
            let Ok(mut bytes) = fs::read(&path) else {
                continue;
            };
            if bytes.len() > SHARD_HEADER_LEN + FRAME_HEADER_LEN {
                let last = bytes.len() - 1;
                bytes[last] ^= 0xff;
                fs::write(&path, bytes).unwrap();
                flipped += 1;
            }
        }
        assert!(flipped >= 1, "at least one shard held a record");
        let reloaded = VerdictStore::open(&dir);
        assert_eq!(reloaded.corrupt_lines(), flipped);
        assert!(
            !reloaded.truncated_tail(),
            "mid-record rot is corruption, not truncation"
        );
        assert!(
            reloaded.len() < 2,
            "each flipped shard lost exactly its damaged record"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_truncated_tail_is_skipped_and_counted() {
        let dir = temp_dir("shard-truncate");
        let mut store = VerdictStore::open(&dir);
        store
            .record_durable("keep", fp(7), &Verdict::Verified(VerifyStats::default()))
            .unwrap();
        drop(store);
        let shard = shard_of("keep");
        let path = dir.join(VerdictStore::shard_file_name(shard));
        let mut bytes = fs::read(&path).unwrap();
        // Append a frame whose declared payload never arrives — a
        // crash between the frame header and the payload write.
        let frame = encode_frame(RECORD_PUT, b"payload that will be cut");
        bytes.extend_from_slice(&frame[..frame.len() - 10]);
        fs::write(&path, &bytes).unwrap();
        let reloaded = VerdictStore::open(&dir);
        assert!(
            reloaded.lookup("keep", fp(7)).is_some(),
            "records before the cut survive"
        );
        assert_eq!(reloaded.corrupt_lines(), 1);
        assert!(reloaded.truncated_tail());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_header_damage_loses_only_that_shard() {
        let dir = temp_dir("shard-header");
        let mut store = VerdictStore::open(&dir);
        store.record("a", fp(1), &Verdict::Verified(VerifyStats::default()));
        store.record("b", fp(2), &Verdict::Verified(VerifyStats::default()));
        store.save().unwrap();
        let shard = shard_of("a");
        let path = dir.join(VerdictStore::shard_file_name(shard));
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] ^= 0xff; // break the magic
        fs::write(&path, &bytes).unwrap();
        let reloaded = VerdictStore::open(&dir);
        assert!(reloaded.lookup("a", fp(1)).is_none());
        assert_eq!(reloaded.corrupt_lines(), 1, "one skip per damaged shard");
        if shard_of("b") != shard {
            assert!(reloaded.lookup("b", fp(2)).is_some(), "other shards load");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_appends_survive_reopen_without_save() {
        let dir = temp_dir("durable");
        let mut store = VerdictStore::open(&dir);
        assert!(store
            .record_durable("ok", fp(1), &Verdict::Verified(VerifyStats::default()))
            .unwrap());
        assert!(store
            .record_durable("bad", fp(2), &sample_failed())
            .unwrap());
        drop(store); // no save(): the appends alone must persist
        let reloaded = VerdictStore::open(&dir);
        assert_eq!(reloaded.len(), 2);
        assert!(reloaded.lookup("ok", fp(1)).is_some());
        assert_eq!(reloaded.lookup("bad", fp(2)), Some(&sample_failed()));
        assert_eq!(reloaded.corrupt_lines(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_evict_tombstones_replay_last_wins() {
        let dir = temp_dir("tombstone");
        let mut store = VerdictStore::open(&dir);
        store
            .record_durable("m", fp(1), &Verdict::Verified(VerifyStats::default()))
            .unwrap();
        assert!(!store
            .record_durable(
                "m",
                fp(1),
                &Verdict::CrashedInternal {
                    message: "boom".to_string(),
                },
            )
            .unwrap());
        drop(store);
        let reloaded = VerdictStore::open(&dir);
        assert!(
            reloaded.lookup("m", fp(1)).is_none(),
            "the appended tombstone evicts the earlier entry on replay"
        );
        assert_eq!(
            reloaded.corrupt_lines(),
            0,
            "a tombstone is a decodable record, not corruption"
        );
        assert_eq!(
            reloaded.dead_records(),
            2,
            "the put and its tombstone are both dead weight on disk"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn later_records_win() {
        let dir = temp_dir("lastwins");
        let mut store = VerdictStore::open(&dir);
        for n in [1, 2] {
            store
                .record_durable("m", fp(n), &Verdict::Verified(VerifyStats::default()))
                .unwrap();
        }
        drop(store);
        let store = VerdictStore::open(&dir);
        assert!(store.lookup("m", fp(1)).is_none());
        assert!(store.lookup("m", fp(2)).is_some());
        assert_eq!(store.dead_records(), 1, "the buried record counts as dead");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_debt_triggers_auto_compaction() {
        let dir = temp_dir("compact");
        let mut store = VerdictStore::open(&dir);
        // Re-record one method far past the compaction threshold:
        // without compaction the log would hold every version.
        for round in 0..(COMPACT_MIN_DEAD * 3) as u64 {
            store
                .record_durable("m", fp(round), &Verdict::Verified(VerifyStats::default()))
                .unwrap();
        }
        assert!(
            store.dead_records() <= COMPACT_MIN_DEAD + 1,
            "debt was reclaimed (left: {})",
            store.dead_records()
        );
        drop(store);
        let reloaded = VerdictStore::open(&dir);
        assert_eq!(reloaded.len(), 1);
        assert!(
            reloaded.dead_records() <= COMPACT_MIN_DEAD + 1,
            "the on-disk log was compacted (dead: {})",
            reloaded.dead_records()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_jsonl_emits_one_valid_line_per_live_entry_in_key_order() {
        let dir = temp_dir("export");
        let mut store = VerdictStore::open(&dir);
        let stats = VerifyStats {
            obligations: 3,
            solver_queries: 2,
            ..VerifyStats::default()
        };
        store.record("ok", fp(1), &Verdict::Verified(stats.clone()));
        store.record("bad", fp(2), &sample_failed());
        store.record("gone", fp(3), &Verdict::Verified(VerifyStats::default()));
        store.record(
            "gone",
            fp(3),
            &Verdict::CrashedInternal {
                message: "boom".to_string(),
            },
        );
        let text = store.export_jsonl();
        assert!(text.ends_with('\n'));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "one line per live entry:\n{}", text);
        let objects: Vec<_> = lines
            .iter()
            .map(|line| daenerys_obs::parse_json(line).expect("each line is valid JSON"))
            .collect();
        let field = |i: usize, key: &str| {
            objects[i].as_obj().unwrap()[key]
                .as_str()
                .unwrap()
                .to_string()
        };
        assert_eq!(field(0, "method"), "bad", "lines come in key order");
        assert_eq!(field(0, "verdict"), "failed");
        assert_eq!(field(0, "fp"), fp(2).to_string());
        assert_eq!(field(1, "method"), "ok");
        assert_eq!(field(1, "verdict"), "verified");
        let recorded = objects[1].as_obj().unwrap()["stats"].as_obj().unwrap()["obligations"]
            .as_num()
            .unwrap();
        assert_eq!(recorded, 3.0);
        assert!(
            !dir.exists(),
            "exporting writes nothing into the cache directory"
        );
    }

    #[test]
    fn fresh_stores_write_daes1_shards_and_never_read_legacy_jsonl() {
        // A legacy file whose one line would hit were it decoded.
        let source = temp_dir("fresh-source");
        let mut exported = VerdictStore::open(&source);
        exported.record("m", fp(1), &Verdict::Verified(VerifyStats::default()));
        let legacy = exported.export_jsonl();

        let dir = temp_dir("fresh");
        fs::create_dir_all(&dir).unwrap();
        let legacy_path = dir.join("verdicts.jsonl");
        fs::write(&legacy_path, &legacy).unwrap();
        let mut store = VerdictStore::open(&dir);
        assert!(store.is_empty(), "the legacy file is not read");
        assert_eq!(store.corrupt_lines(), 0, "nor counted as damage");

        store.record("m", fp(1), &Verdict::Verified(VerifyStats::default()));
        store.save().unwrap();
        let mut written: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name != "verdicts.jsonl")
            .collect();
        written.sort();
        let mut shards: Vec<String> = (0..VerdictStore::SHARD_COUNT)
            .map(VerdictStore::shard_file_name)
            .collect();
        shards.sort();
        assert_eq!(written, shards, "a save writes exactly the DAES1 shards");
        assert_eq!(
            fs::read_to_string(&legacy_path).unwrap(),
            legacy,
            "the legacy file is never rewritten"
        );
        assert_eq!(VerdictStore::open(&dir).len(), 1);
        assert!(!source.exists(), "the exporting store wrote nothing");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn graph_rides_along_with_the_store() {
        let dir = temp_dir("graph");
        let program = crate::parser::parse_program(
            "method a(n: Int) returns (r: Int) requires n >= 0 ensures r >= 0 { r := n }",
        )
        .unwrap();
        let mut store = VerdictStore::open(&dir);
        assert!(store.graph().is_empty());
        store.absorb_graph(&DepGraph::of_program(&program));
        store.persist_graph().unwrap();
        let reloaded = VerdictStore::open(&dir);
        assert_eq!(reloaded.graph().len(), 1);
        assert!(reloaded.graph().node("a").is_some());
        let _ = fs::remove_dir_all(&dir);
    }
}
