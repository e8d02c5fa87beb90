//! DSARP trace v1: lossless dialects and the single-pass streaming reader.
//!
//! The plain Ramulator text format (see `crate::trace_file`) cannot
//! express two generator features — store bubbles and load dependence —
//! so captured non-load-only streams replay only approximately. The v1
//! encoding closes that gap with two lossless dialects of the same op
//! stream:
//!
//! * **`text-ext`** — an opt-in text dialect. The *first line* must be the
//!   versioned header `TEXT_EXT_HEADER` (`#!dsarp-trace v1`); every
//!   record line is then `<bubbles> <addr> <flags>` where the extension
//!   column `<flags>` is `L` (load), `LD` (dependent load), `S` (store)
//!   or `SD` (dependent store). Bubbles apply to the record's own op, so
//!   store bubbles and the dependence bit survive exactly. Files without
//!   the header keep parsing as plain Ramulator text, unchanged.
//! * **`bin`** (`.dtrace`) — a fixed-record binary encoding:
//!   a [`BIN_HEADER_LEN`]-byte header (`BIN_MAGIC` + record count as a
//!   little-endian `u64`), then one [`BIN_RECORD_LEN`]-byte record per op:
//!   `addr: u64 LE | bubbles: u32 LE | flags: u32 LE` (bit 0 = store,
//!   bit 1 = dependent, all other bits must be zero). Every field is
//!   little-endian and every record is 16-byte aligned, so the format is
//!   mmap- and chunk-read-friendly.
//!
//! [`scan_trace_bytes`] / [`read_trace_path`] auto-detect the dialect and
//! validate, count, content-hash and (optionally) materialize the ops in
//! **one pass** over the bytes, in `READ_CHUNK`-sized chunks — the
//! campaign layer resolves traces through this instead of reading and
//! hashing files twice. [`BinTraceSource`] replays a `.dtrace` file as an
//! infinite cyclic [`TraceSource`] holding at most one chunk in memory,
//! so million-request traces never need whole-file buffers.
//!
//! Both text dialects are content-hashed with the same byte-wise
//! FNV-1a-128 the campaign store has always used, so existing cached
//! cells stay warm. The binary dialect hashes 64-bit little-endian words
//! instead (`Fnv128::update_words`): one multiply per 8 bytes, which is
//! what makes single-pass binary ingestion several times faster than the
//! text parse+hash pipeline while keeping the same
//! edit-one-byte-invalidates-exactly-that-trace semantics.
//!
//! Truncation contracts mirror the strict text parser: a text-dialect
//! file must end in `\n`; a `.dtrace` file must be exactly
//! `header + count * 16` bytes. Anything else is
//! [`TraceFileError::Truncated`] — a torn tail is an error, never a
//! silently shorter trace.

use crate::trace::{CyclicTrace, MemKind, TraceOp, TraceSource};
use crate::trace_file::TraceFileError;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The `text-ext` header line (without the trailing newline). Must be the
/// first line of the file.
pub(crate) const TEXT_EXT_HEADER: &str = "#!dsarp-trace v1";

/// Prefix shared by all versioned text headers; an unknown version is a
/// parse error, not a comment.
const TEXT_HEADER_PREFIX: &str = "#!dsarp-trace";

/// Magic bytes opening a `.dtrace` file.
pub(crate) const BIN_MAGIC: [u8; 8] = *b"DSARPTR1";

/// `.dtrace` header length: `BIN_MAGIC` + record count (`u64` LE).
pub const BIN_HEADER_LEN: usize = 16;

/// `.dtrace` record length: `addr u64 LE | bubbles u32 LE | flags u32 LE`.
pub const BIN_RECORD_LEN: usize = 16;

/// `flags` bit 0: the op is a store.
const FLAG_STORE: u32 = 1;
/// `flags` bit 1: the op is dependent on the previous load.
const FLAG_DEP: u32 = 2;

/// Chunk size for streaming reads (a multiple of [`BIN_RECORD_LEN`] and
/// of the 8-byte hash word).
pub(crate) const READ_CHUNK: usize = 64 * 1024;

/// Which encoding a trace file uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceDialect {
    /// Plain Ramulator text: `<bubbles> <rd-addr> [<wr-addr>]`. Lossy for
    /// store bubbles and load dependence.
    Text,
    /// Headered text with an explicit per-op flags column. Lossless.
    TextExt,
    /// Fixed-record little-endian binary (`.dtrace`). Lossless.
    Bin,
}

impl TraceDialect {
    /// The CLI name (`text` / `text-ext` / `bin`).
    pub fn label(self) -> &'static str {
        match self {
            TraceDialect::Text => "text",
            TraceDialect::TextExt => "text-ext",
            TraceDialect::Bin => "bin",
        }
    }

    /// Parses a CLI name.
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "text" => Some(TraceDialect::Text),
            "text-ext" => Some(TraceDialect::TextExt),
            "bin" => Some(TraceDialect::Bin),
            _ => None,
        }
    }

    /// Conventional file extension (`trace` for both text dialects,
    /// `dtrace` for binary).
    pub fn extension(self) -> &'static str {
        match self {
            TraceDialect::Text | TraceDialect::TextExt => "trace",
            TraceDialect::Bin => "dtrace",
        }
    }
}

impl std::fmt::Display for TraceDialect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A streaming FNV-1a-128 hasher: the one fold of the workspace.
///
/// [`Fnv128::update`] folds byte-wise. The campaign's `fingerprint_bytes`
/// and job fingerprints fold through it, so text traces hash to the values
/// existing stores already key on. The crate-private `update_words` folds
/// 64-bit little-endian words (8 bytes per multiply) and is the content
/// hash of `.dtrace` files; the two folds are different functions, which
/// is fine because a file's dialect is part of its bytes (magic vs. text).
#[derive(Debug, Clone, Copy)]
pub struct Fnv128 {
    h: u128,
}

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

impl Fnv128 {
    /// Starts a fresh hash at the FNV offset basis.
    pub fn new() -> Self {
        Fnv128 { h: FNV128_OFFSET }
    }

    /// Byte-wise FNV-1a fold (text dialects, campaign fingerprints).
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.h;
        for &b in bytes {
            h ^= u128::from(b);
            h = h.wrapping_mul(FNV128_PRIME);
        }
        self.h = h;
    }

    /// 64-bit little-endian word fold (`.dtrace`). `bytes.len()` must be a
    /// multiple of 8; callers feed whole header/record units.
    pub(crate) fn update_words(&mut self, bytes: &[u8]) {
        debug_assert!(bytes.len().is_multiple_of(8));
        let mut h = self.h;
        for w in bytes.chunks_exact(8) {
            h ^= u128::from(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
            h = h.wrapping_mul(FNV128_PRIME);
        }
        self.h = h;
    }

    /// The 128-bit digest so far.
    pub fn finish(&self) -> u128 {
        self.h
    }
}

impl Default for Fnv128 {
    fn default() -> Self {
        Self::new()
    }
}

/// What to keep in memory while scanning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Materialize {
    /// Validate, count and hash only — `ops` stays `None`.
    No,
    /// Materialize ops for text dialects only; binary traces stream at
    /// replay time ([`BinTraceSource`]) and never need a whole-file
    /// `Vec<TraceOp>`.
    TextOnly,
    /// Materialize ops for every dialect (conversion).
    All,
}

/// The result of one streaming pass over a trace file.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// Detected encoding.
    pub dialect: TraceDialect,
    /// Trace entries (plain-text store columns count separately).
    pub entries: usize,
    /// Total file bytes scanned.
    pub bytes: u64,
    /// Content hash under the dialect's fold.
    pub hash: u128,
    /// The ops, when requested via [`Materialize`].
    pub ops: Option<Vec<TraceOp>>,
}

fn binary_err(offset: u64, what: &str) -> TraceFileError {
    TraceFileError::Binary {
        offset,
        what: what.to_string(),
    }
}

/// Decodes one fixed-size binary record; `Err` names the rejected flags.
fn decode_record(rec: &[u8]) -> Result<TraceOp, u32> {
    debug_assert_eq!(rec.len(), BIN_RECORD_LEN);
    let addr = u64::from_le_bytes(rec[0..8].try_into().expect("record addr"));
    let bubbles = u32::from_le_bytes(rec[8..12].try_into().expect("record bubbles"));
    let flags = u32::from_le_bytes(rec[12..16].try_into().expect("record flags"));
    if flags & !(FLAG_STORE | FLAG_DEP) != 0 {
        return Err(flags);
    }
    Ok(TraceOp {
        bubbles,
        kind: if flags & FLAG_STORE != 0 {
            MemKind::Store
        } else {
            MemKind::Load
        },
        addr,
        dependent: flags & FLAG_DEP != 0,
    })
}

fn encode_record(op: &TraceOp, out: &mut impl Write) -> std::io::Result<()> {
    let mut flags = 0u32;
    if op.kind == MemKind::Store {
        flags |= FLAG_STORE;
    }
    if op.dependent {
        flags |= FLAG_DEP;
    }
    out.write_all(&op.addr.to_le_bytes())?;
    out.write_all(&op.bubbles.to_le_bytes())?;
    out.write_all(&flags.to_le_bytes())
}

fn parse_addr(tok: &str) -> Option<u64> {
    if let Some(hex) = tok.strip_prefix("0x").or_else(|| tok.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        tok.parse().ok()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TextMode {
    /// The first line has not been seen yet.
    Unknown,
    Plain,
    Ext,
}

enum State {
    /// Fewer than [`BIN_MAGIC`] bytes seen; dialect undecided.
    Detect(Vec<u8>),
    Text {
        mode: TextMode,
        /// Partial last line carried across chunks.
        carry: Vec<u8>,
        /// 1-based number of the next line.
        line: usize,
        last_byte: u8,
    },
    /// Magic matched; accumulating the rest of the header.
    BinHeader(Vec<u8>),
    BinRecords {
        count: u64,
        seen: u64,
        /// Partial last record carried across chunks.
        carry: Vec<u8>,
    },
}

/// Single-pass streaming trace scanner: feed chunks in file order, then
/// [`Scanner::finish`]. Validation, entry counting, content hashing and
/// (optional) op materialization all happen in the same pass.
struct Scanner {
    materialize: Materialize,
    hasher: Fnv128,
    bytes: u64,
    entries: usize,
    ops: Vec<TraceOp>,
    state: State,
}

impl Scanner {
    fn new(materialize: Materialize) -> Self {
        Scanner {
            materialize,
            hasher: Fnv128::new(),
            bytes: 0,
            entries: 0,
            ops: Vec::new(),
            state: State::Detect(Vec::new()),
        }
    }

    fn keep_ops(&self, dialect: TraceDialect) -> bool {
        match self.materialize {
            Materialize::No => false,
            Materialize::TextOnly => dialect != TraceDialect::Bin,
            Materialize::All => true,
        }
    }

    fn feed(&mut self, chunk: &[u8]) -> Result<(), TraceFileError> {
        self.bytes += chunk.len() as u64;
        match &mut self.state {
            State::Detect(buf) => {
                buf.extend_from_slice(chunk);
                if buf.len() < BIN_MAGIC.len() {
                    return Ok(());
                }
                let buf = std::mem::take(buf);
                if buf[..BIN_MAGIC.len()] == BIN_MAGIC {
                    self.state = State::BinHeader(Vec::new());
                } else {
                    self.state = State::Text {
                        mode: TextMode::Unknown,
                        carry: Vec::new(),
                        line: 1,
                        last_byte: 0,
                    };
                }
                self.dispatch(&buf)
            }
            _ => self.dispatch(chunk),
        }
    }

    fn dispatch(&mut self, data: &[u8]) -> Result<(), TraceFileError> {
        match &self.state {
            State::Detect(_) => unreachable!("feed resolves detection first"),
            State::Text { .. } => self.feed_text(data),
            State::BinHeader(_) | State::BinRecords { .. } => self.feed_bin(data),
        }
    }

    fn feed_text(&mut self, data: &[u8]) -> Result<(), TraceFileError> {
        if data.is_empty() {
            return Ok(());
        }
        self.hasher.update(data);
        let keep = self.keep_ops(TraceDialect::TextExt); // same for both text dialects
        let State::Text {
            mode,
            carry,
            line,
            last_byte,
        } = &mut self.state
        else {
            unreachable!("feed_text outside text state");
        };
        *last_byte = data[data.len() - 1];
        let mut rest = data;
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            let (head, tail) = rest.split_at(nl);
            rest = &tail[1..];
            let full;
            let text: &[u8] = if carry.is_empty() {
                head
            } else {
                carry.extend_from_slice(head);
                full = std::mem::take(carry);
                &full
            };
            let n = *line;
            *line += 1;
            parse_text_line(text, n, mode, keep, &mut self.entries, &mut self.ops)?;
        }
        carry.extend_from_slice(rest);
        Ok(())
    }

    fn feed_bin(&mut self, mut data: &[u8]) -> Result<(), TraceFileError> {
        if let State::BinHeader(buf) = &mut self.state {
            let need = BIN_HEADER_LEN - buf.len();
            let take = need.min(data.len());
            buf.extend_from_slice(&data[..take]);
            data = &data[take..];
            if buf.len() < BIN_HEADER_LEN {
                return Ok(());
            }
            let count = u64::from_le_bytes(buf[8..16].try_into().expect("header count"));
            self.hasher.update_words(buf);
            if count == 0 {
                return Err(TraceFileError::Empty);
            }
            self.state = State::BinRecords {
                count,
                seen: 0,
                carry: Vec::new(),
            };
        }
        let keep = self.keep_ops(TraceDialect::Bin);
        let State::BinRecords { count, seen, carry } = &mut self.state else {
            unreachable!("feed_bin outside binary state");
        };
        // Finish a partial record carried from the previous chunk first.
        if !carry.is_empty() {
            let need = BIN_RECORD_LEN - carry.len();
            let take = need.min(data.len());
            carry.extend_from_slice(&data[..take]);
            data = &data[take..];
            if carry.len() < BIN_RECORD_LEN {
                return Ok(());
            }
            let rec = std::mem::take(carry);
            if *seen == *count {
                return Err(binary_err(
                    BIN_HEADER_LEN as u64 + *count * BIN_RECORD_LEN as u64,
                    "bytes beyond the declared record count",
                ));
            }
            self.hasher.update_words(&rec);
            let op = decode_record(&rec).map_err(|flags| bad_flags_err(*seen, flags))?;
            *seen += 1;
            self.entries += 1;
            if keep {
                self.ops.push(op);
            }
        }
        let State::BinRecords { count, seen, carry } = &mut self.state else {
            unreachable!("feed_bin outside binary state");
        };
        let whole = data.len() / BIN_RECORD_LEN * BIN_RECORD_LEN;
        let (records, tail) = data.split_at(whole);
        if *seen + (records.len() / BIN_RECORD_LEN) as u64 > *count
            || (*seen == *count && !tail.is_empty())
        {
            return Err(binary_err(
                BIN_HEADER_LEN as u64 + *count * BIN_RECORD_LEN as u64,
                "bytes beyond the declared record count",
            ));
        }
        self.hasher.update_words(records);
        for rec in records.chunks_exact(BIN_RECORD_LEN) {
            let op = decode_record(rec).map_err(|flags| bad_flags_err(*seen, flags))?;
            *seen += 1;
            self.entries += 1;
            if keep {
                self.ops.push(op);
            }
        }
        carry.extend_from_slice(tail);
        Ok(())
    }

    fn finish(mut self) -> Result<TraceSummary, TraceFileError> {
        // A file shorter than the magic can only be (tiny) text: rerun
        // the buffered prefix through the text path, then finish again.
        if let State::Detect(buf) = &mut self.state {
            if buf.is_empty() {
                return Err(TraceFileError::Empty);
            }
            let buf = std::mem::take(buf);
            self.state = State::Text {
                mode: TextMode::Unknown,
                carry: Vec::new(),
                line: 1,
                last_byte: 0,
            };
            self.feed_text(&buf)?;
            return self.finish();
        }
        let dialect = match &self.state {
            State::Detect(_) => unreachable!("handled above"),
            State::Text {
                mode, last_byte, ..
            } => {
                if *last_byte != b'\n' {
                    return Err(TraceFileError::Truncated);
                }
                match mode {
                    TextMode::Ext => TraceDialect::TextExt,
                    _ => TraceDialect::Text,
                }
            }
            State::BinHeader(_) => return Err(TraceFileError::Truncated),
            State::BinRecords { count, seen, carry } => {
                if !carry.is_empty() || seen < count {
                    return Err(TraceFileError::Truncated);
                }
                TraceDialect::Bin
            }
        };
        if self.entries == 0 {
            return Err(TraceFileError::Empty);
        }
        let keep = self.keep_ops(dialect);
        Ok(TraceSummary {
            dialect,
            entries: self.entries,
            bytes: self.bytes,
            hash: self.hasher.finish(),
            ops: keep.then_some(self.ops),
        })
    }
}

fn bad_flags_err(record: u64, flags: u32) -> TraceFileError {
    TraceFileError::Binary {
        offset: BIN_HEADER_LEN as u64 + record * BIN_RECORD_LEN as u64 + 12,
        what: format!("record {record} has invalid flags {flags:#x}"),
    }
}

/// Parses one text line in either dialect, resolving the mode on the
/// first line.
fn parse_text_line(
    raw: &[u8],
    line_no: usize,
    mode: &mut TextMode,
    keep: bool,
    entries: &mut usize,
    ops: &mut Vec<TraceOp>,
) -> Result<(), TraceFileError> {
    let err = |text: &str| TraceFileError::Parse {
        line: line_no,
        text: text.to_string(),
    };
    let Ok(text) = std::str::from_utf8(raw) else {
        return Err(err("<non-utf8 line>"));
    };
    let text = text.trim();
    if *mode == TextMode::Unknown {
        // The first line decides the dialect: the exact v1 header selects
        // text-ext; an unknown `#!dsarp-trace` version is an error (NOT a
        // comment — silently parsing a future dialect as plain text would
        // replay wrong streams); anything else is plain Ramulator text.
        if text == TEXT_EXT_HEADER {
            *mode = TextMode::Ext;
            return Ok(());
        }
        if text.starts_with(TEXT_HEADER_PREFIX) {
            return Err(err(text));
        }
        *mode = TextMode::Plain;
    }
    if text.is_empty() || text.starts_with('#') {
        return Ok(());
    }
    let mut toks = text.split_whitespace();
    let bubbles: u32 = toks
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| err(text))?;
    let addr = toks.next().and_then(parse_addr).ok_or_else(|| err(text))?;
    match *mode {
        TextMode::Plain => {
            *entries += 1;
            if keep {
                ops.push(TraceOp {
                    bubbles,
                    kind: MemKind::Load,
                    addr,
                    dependent: false,
                });
            }
            if let Some(tok) = toks.next() {
                let wr = parse_addr(tok).ok_or_else(|| err(text))?;
                *entries += 1;
                if keep {
                    ops.push(TraceOp {
                        bubbles: 0,
                        kind: MemKind::Store,
                        addr: wr,
                        dependent: false,
                    });
                }
            }
        }
        TextMode::Ext => {
            let (kind, dependent) = match toks.next() {
                Some("L") => (MemKind::Load, false),
                Some("LD") => (MemKind::Load, true),
                Some("S") => (MemKind::Store, false),
                Some("SD") => (MemKind::Store, true),
                _ => return Err(err(text)),
            };
            *entries += 1;
            if keep {
                ops.push(TraceOp {
                    bubbles,
                    kind,
                    addr,
                    dependent,
                });
            }
        }
        TextMode::Unknown => unreachable!("mode resolved above"),
    }
    if toks.next().is_some() {
        return Err(err(text));
    }
    Ok(())
}

/// Scans in-memory bytes: auto-detects the dialect, validates strictly
/// (torn tails rejected), counts entries, content-hashes, and optionally
/// materializes the ops — all in one pass.
///
/// # Errors
///
/// [`TraceFileError`] on malformed, empty or truncated input.
pub fn scan_trace_bytes(
    bytes: &[u8],
    materialize: Materialize,
) -> Result<TraceSummary, TraceFileError> {
    let mut scanner = Scanner::new(materialize);
    for chunk in bytes.chunks(READ_CHUNK) {
        scanner.feed(chunk)?;
    }
    scanner.finish()
}

/// [`scan_trace_bytes`] over a file, reading it in `READ_CHUNK`-sized
/// chunks — one read per file, O(chunk) memory unless materializing.
///
/// # Errors
///
/// [`TraceFileError`] on I/O failure or invalid contents.
pub fn read_trace_path(
    path: &Path,
    materialize: Materialize,
) -> Result<TraceSummary, TraceFileError> {
    let mut file = std::fs::File::open(path)?;
    let mut scanner = Scanner::new(materialize);
    let mut buf = vec![0u8; READ_CHUNK];
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            break;
        }
        scanner.feed(&buf[..n])?;
    }
    scanner.finish()
}

/// Writes `n` ops of `source` in the `text-ext` dialect (header + one
/// canonical `<bubbles> 0x<addr> <flags>` line per op). Lossless for
/// every stream; output is byte-stable under parse→re-export.
///
/// # Errors
///
/// Propagates I/O errors.
pub(crate) fn export_ext(
    source: &mut dyn TraceSource,
    n: usize,
    mut out: impl Write,
) -> std::io::Result<()> {
    writeln!(out, "{TEXT_EXT_HEADER}")?;
    for _ in 0..n {
        let op = source.next_op();
        let flags = match (op.kind, op.dependent) {
            (MemKind::Load, false) => "L",
            (MemKind::Load, true) => "LD",
            (MemKind::Store, false) => "S",
            (MemKind::Store, true) => "SD",
        };
        writeln!(out, "{} 0x{:x} {}", op.bubbles, op.addr, flags)?;
    }
    Ok(())
}

/// Writes `n` ops of `source` as a `.dtrace` file (header + fixed
/// records). Lossless; output is byte-stable under parse→re-export.
///
/// # Errors
///
/// Propagates I/O errors.
pub(crate) fn export_bin(
    source: &mut dyn TraceSource,
    n: usize,
    mut out: impl Write,
) -> std::io::Result<()> {
    out.write_all(&BIN_MAGIC)?;
    out.write_all(&(n as u64).to_le_bytes())?;
    for _ in 0..n {
        let op = source.next_op();
        encode_record(&op, &mut out)?;
    }
    Ok(())
}

/// Writes `n` ops of `source` in the chosen dialect (plain text uses the
/// lossy attachment convention of `crate::trace_file::export`).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn export_dialect(
    source: &mut dyn TraceSource,
    n: usize,
    out: impl Write,
    dialect: TraceDialect,
) -> std::io::Result<()> {
    match dialect {
        TraceDialect::Text => crate::trace_file::export(source, n, out),
        TraceDialect::TextExt => export_ext(source, n, out),
        TraceDialect::Bin => export_bin(source, n, out),
    }
}

/// Converts a trace between dialects: parses `bytes` (any dialect,
/// strict) and re-emits the identical op stream in `to`. Conversions
/// between the lossless dialects (`text-ext` ↔ `bin`) round-trip
/// byte-stably: converting the output back reproduces the input exactly,
/// because both emitters are canonical. Converting *to* plain `text` uses
/// the lossy attachment convention.
///
/// Returns the source summary and the converted bytes.
///
/// # Errors
///
/// [`TraceFileError`] if `bytes` is invalid in its own dialect.
pub fn convert_bytes(
    bytes: &[u8],
    to: TraceDialect,
) -> Result<(TraceSummary, Vec<u8>), TraceFileError> {
    let mut summary = scan_trace_bytes(bytes, Materialize::All)?;
    let ops = summary.ops.take().expect("Materialize::All keeps ops");
    let n = ops.len();
    let mut src = CyclicTrace::new(ops);
    let mut out = Vec::new();
    export_dialect(&mut src, n, &mut out, to)?;
    Ok((summary, out))
}

/// An infinite cyclic [`TraceSource`] streaming a `.dtrace` file in
/// `READ_CHUNK`-sized chunks: memory stays O(chunk) however long the
/// trace is. Each full pass re-reads the header and re-folds the word
/// hash; on wrap the digest is checked against the hash the campaign
/// resolved, so a mid-campaign edit panics (naming the file) instead of
/// silently replaying different bytes under a stale fingerprint.
pub struct BinTraceSource {
    path: PathBuf,
    file: std::fs::File,
    count: u64,
    produced: u64,
    buf: Vec<u8>,
    pos: usize,
    hasher: Fnv128,
    expect_hash: u128,
}

impl std::fmt::Debug for BinTraceSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BinTraceSource")
            .field("path", &self.path)
            .field("count", &self.count)
            .field("produced", &self.produced)
            .finish_non_exhaustive()
    }
}

impl BinTraceSource {
    /// Opens a `.dtrace` file for streaming replay, validating the header
    /// and the total length against the declared record count.
    /// `expect_hash` is the content hash resolution computed; it is
    /// re-verified at the end of every full pass.
    ///
    /// # Errors
    ///
    /// [`TraceFileError`] on I/O failure, a bad header, a zero-record
    /// file, or a length that does not match the header.
    pub fn open(path: impl Into<PathBuf>, expect_hash: u128) -> Result<Self, TraceFileError> {
        let path = path.into();
        let mut file = std::fs::File::open(&path)?;
        let mut hasher = Fnv128::new();
        let count = read_bin_header(&mut file, &mut hasher)?;
        let len = file.metadata()?.len();
        let expect_len = BIN_HEADER_LEN as u64 + count * BIN_RECORD_LEN as u64;
        if len < expect_len {
            return Err(TraceFileError::Truncated);
        }
        if len > expect_len {
            return Err(binary_err(
                expect_len,
                "bytes beyond the declared record count",
            ));
        }
        Ok(BinTraceSource {
            path,
            file,
            count,
            produced: 0,
            buf: Vec::new(),
            pos: 0,
            hasher,
            expect_hash,
        })
    }

    /// Records per full pass (the file's declared count).
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Never true for an opened source (zero-record files are rejected).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    fn refill(&mut self) {
        if self.produced == self.count {
            // End of a full pass: the accumulated word hash must still
            // match what resolution saw.
            assert!(
                self.hasher.finish() == self.expect_hash,
                "trace file {} changed while the campaign was running \
                 (content hash mismatch); re-run to pick up the new contents",
                self.path.display()
            );
            self.file.seek(SeekFrom::Start(0)).unwrap_or_else(|e| {
                panic!(
                    "trace file {}: rewind failed mid-campaign: {e}",
                    self.path.display()
                )
            });
            self.hasher = Fnv128::new();
            let count = read_bin_header(&mut self.file, &mut self.hasher).unwrap_or_else(|e| {
                panic!(
                    "trace file {} changed while the campaign was running: {e}",
                    self.path.display()
                )
            });
            assert!(
                count == self.count,
                "trace file {} changed while the campaign was running \
                 (record count {count} != {})",
                self.path.display(),
                self.count
            );
            self.produced = 0;
        }
        let remaining = (self.count - self.produced) * BIN_RECORD_LEN as u64;
        let n = remaining.min(READ_CHUNK as u64) as usize;
        self.buf.resize(n, 0);
        self.file.read_exact(&mut self.buf).unwrap_or_else(|e| {
            panic!(
                "trace file {} shrank or vanished while the campaign was \
                 running: {e}",
                self.path.display()
            )
        });
        self.hasher.update_words(&self.buf);
        self.pos = 0;
    }
}

/// Reads and validates a `.dtrace` header, folding it into `hasher`.
fn read_bin_header(file: &mut std::fs::File, hasher: &mut Fnv128) -> Result<u64, TraceFileError> {
    let mut header = [0u8; BIN_HEADER_LEN];
    file.read_exact(&mut header)
        .map_err(|_| TraceFileError::Truncated)?;
    if header[..BIN_MAGIC.len()] != BIN_MAGIC {
        return Err(binary_err(0, "bad magic (not a .dtrace file)"));
    }
    let count = u64::from_le_bytes(header[8..16].try_into().expect("header count"));
    if count == 0 {
        return Err(TraceFileError::Empty);
    }
    hasher.update_words(&header);
    Ok(count)
}

impl TraceSource for BinTraceSource {
    fn next_op(&mut self) -> TraceOp {
        if self.pos == self.buf.len() {
            self.refill();
        }
        let rec = &self.buf[self.pos..self.pos + BIN_RECORD_LEN];
        let op = decode_record(rec).unwrap_or_else(|flags| {
            panic!(
                "trace file {} changed while the campaign was running \
                 (record {} has invalid flags {flags:#x})",
                self.path.display(),
                self.produced
            )
        });
        self.pos += BIN_RECORD_LEN;
        self.produced += 1;
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ld(bubbles: u32, addr: u64) -> TraceOp {
        TraceOp {
            bubbles,
            kind: MemKind::Load,
            addr,
            dependent: false,
        }
    }

    fn st(bubbles: u32, addr: u64) -> TraceOp {
        TraceOp {
            bubbles,
            kind: MemKind::Store,
            addr,
            dependent: false,
        }
    }

    fn dep(mut op: TraceOp) -> TraceOp {
        op.dependent = true;
        op
    }

    /// A stream exercising every op shape the plain text format cannot
    /// express: leading stores, store bubbles, dependent loads and
    /// dependent stores.
    fn awkward_ops() -> Vec<TraceOp> {
        vec![
            st(7, 0x200),
            ld(3, 0x1000),
            dep(ld(0, 0x1040)),
            st(0, 0x2000),
            st(5, 0x2040),
            dep(st(2, 0x80)),
            ld(1_000_000, 0xdead_beef),
        ]
    }

    fn emit(ops: &[TraceOp], dialect: TraceDialect) -> Vec<u8> {
        let mut src = CyclicTrace::new(ops.to_vec());
        let mut out = Vec::new();
        export_dialect(&mut src, ops.len(), &mut out, dialect).unwrap();
        out
    }

    /// Scans with a pathological chunking (1, then 3, then 7, ... bytes)
    /// to exercise every carry path, asserting agreement with the
    /// whole-slice scan.
    fn scan_chunked(
        bytes: &[u8],
        materialize: Materialize,
    ) -> Result<TraceSummary, TraceFileError> {
        let whole = scan_trace_bytes(bytes, materialize);
        let mut scanner = Scanner::new(materialize);
        let sizes = [1usize, 3, 7, 16, 5, 64, 2];
        let mut pos = 0;
        let mut i = 0;
        let mut chunked = (|| {
            while pos < bytes.len() {
                let n = sizes[i % sizes.len()].min(bytes.len() - pos);
                i += 1;
                scanner.feed(&bytes[pos..pos + n])?;
                pos += n;
            }
            scanner.finish()
        })();
        match (&whole, &mut chunked) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.dialect, b.dialect);
                assert_eq!(a.entries, b.entries);
                assert_eq!(a.hash, b.hash);
                assert_eq!(a.ops, b.ops);
            }
            (Err(_), Err(_)) => {}
            _ => panic!("chunked and whole-slice scans disagree: {whole:?} vs {chunked:?}"),
        }
        whole
    }

    #[test]
    fn ext_and_bin_round_trip_awkward_streams_losslessly() {
        let ops = awkward_ops();
        for dialect in [TraceDialect::TextExt, TraceDialect::Bin] {
            let bytes = emit(&ops, dialect);
            let summary = scan_chunked(&bytes, Materialize::All).unwrap();
            assert_eq!(summary.dialect, dialect);
            assert_eq!(summary.entries, ops.len());
            assert_eq!(summary.bytes, bytes.len() as u64);
            assert_eq!(summary.ops.as_deref(), Some(&ops[..]), "{dialect}");
        }
    }

    #[test]
    fn plain_scan_agrees_with_the_legacy_strict_parser() {
        let text = b"# header\n3 0x1000 4096\n0 512\n\n7 0x40 0x80\n1 0x99\n";
        let summary = scan_chunked(text, Materialize::All).unwrap();
        assert_eq!(summary.dialect, TraceDialect::Text);
        // What the line-at-a-time parser this scanner replaced produced
        // for the same bytes.
        let legacy_ops = vec![
            ld(3, 0x1000),
            st(0, 4096),
            ld(0, 512),
            ld(7, 0x40),
            st(0, 0x80),
            ld(1, 0x99),
        ];
        assert_eq!(summary.entries, legacy_ops.len());
        assert_eq!(summary.ops.unwrap(), legacy_ops);
        // And the content hash is the campaign's byte-wise FNV fold.
        let mut byte_fold = Fnv128::new();
        byte_fold.update(text);
        assert_eq!(summary.hash, byte_fold.finish());
    }

    #[test]
    fn dialect_labels_round_trip() {
        for d in [TraceDialect::Text, TraceDialect::TextExt, TraceDialect::Bin] {
            assert_eq!(TraceDialect::parse(d.label()), Some(d));
            assert_eq!(d.to_string(), d.label());
        }
        assert_eq!(TraceDialect::parse("binary"), None);
        assert_eq!(TraceDialect::Bin.extension(), "dtrace");
        assert_eq!(TraceDialect::TextExt.extension(), "trace");
    }

    #[test]
    fn torn_tails_are_rejected_in_every_dialect() {
        let ops = awkward_ops();
        // Text-ext: strip the trailing newline.
        let bytes = emit(&ops, TraceDialect::TextExt);
        let torn = &bytes[..bytes.len() - 3];
        assert!(matches!(
            scan_chunked(torn, Materialize::No),
            Err(TraceFileError::Truncated)
        ));
        let plain = b"3 0x1000\n1 0x4";
        assert!(matches!(
            scan_chunked(plain, Materialize::No),
            Err(TraceFileError::Truncated)
        ));
        // Binary: any cut (mid-record or on a record boundary) is torn,
        // because the header pins the record count.
        let bytes = emit(&ops, TraceDialect::Bin);
        for cut in [
            bytes.len() - 5,
            bytes.len() - BIN_RECORD_LEN,
            BIN_HEADER_LEN,
            7,
        ] {
            assert!(
                matches!(
                    scan_chunked(&bytes[..cut], Materialize::No),
                    Err(TraceFileError::Truncated)
                ),
                "cut at {cut}"
            );
        }
        // Trailing garbage beyond the declared count is structural, too.
        let mut padded = bytes.clone();
        padded.extend_from_slice(&[0u8; BIN_RECORD_LEN]);
        assert!(matches!(
            scan_chunked(&padded, Materialize::No),
            Err(TraceFileError::Binary { .. })
        ));
    }

    #[test]
    fn invalid_records_are_rejected_with_their_location() {
        // Ext: a bad flags token.
        let bad = b"#!dsarp-trace v1\n3 0x40 L\n1 0x80 X\n";
        let err = scan_chunked(bad, Materialize::No).unwrap_err();
        assert!(
            matches!(&err, TraceFileError::Parse { line: 3, .. }),
            "{err}"
        );
        // An unknown header version must not silently parse as comments.
        let future = b"#!dsarp-trace v2\n3 0x40\n";
        assert!(matches!(
            scan_chunked(future, Materialize::No),
            Err(TraceFileError::Parse { line: 1, .. })
        ));
        // Bin: flip a high bit in record 1's flags field.
        let mut bytes = emit(&awkward_ops(), TraceDialect::Bin);
        let off = BIN_HEADER_LEN + BIN_RECORD_LEN + 15;
        bytes[off] ^= 0x80;
        let err = scan_chunked(&bytes, Materialize::No).unwrap_err();
        match err {
            TraceFileError::Binary { offset, ref what } => {
                assert_eq!(offset, (BIN_HEADER_LEN + BIN_RECORD_LEN + 12) as u64);
                assert!(what.contains("record 1"), "{what}");
            }
            other => panic!("expected Binary error, got {other}"),
        }
        // A zero-record binary file is empty, not torn.
        let mut hdr = BIN_MAGIC.to_vec();
        hdr.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            scan_chunked(&hdr, Materialize::No),
            Err(TraceFileError::Empty)
        ));
        assert!(matches!(
            scan_chunked(b"", Materialize::No),
            Err(TraceFileError::Empty)
        ));
        // Sub-magic-length files still parse as text.
        let tiny = b"1 2\n";
        let s = scan_chunked(tiny, Materialize::All).unwrap();
        assert_eq!((s.dialect, s.entries), (TraceDialect::Text, 1));
    }

    #[test]
    fn lossless_conversions_are_byte_stable() {
        let ops = awkward_ops();
        let ext = emit(&ops, TraceDialect::TextExt);
        let bin = emit(&ops, TraceDialect::Bin);
        // ext -> bin -> ext reproduces the canonical ext bytes exactly.
        let (s1, to_bin) = convert_bytes(&ext, TraceDialect::Bin).unwrap();
        assert_eq!(s1.dialect, TraceDialect::TextExt);
        assert_eq!(to_bin, bin);
        let (s2, back) = convert_bytes(&to_bin, TraceDialect::TextExt).unwrap();
        assert_eq!(s2.dialect, TraceDialect::Bin);
        assert_eq!(back, ext);
        // Plain text converts losslessly *into* the v1 dialects (its parsed
        // stream is the ground truth).
        let plain = b"3 0x1000 0x2000\n0 0x40\n".to_vec();
        let (s3, plain_bin) = convert_bytes(&plain, TraceDialect::Bin).unwrap();
        assert_eq!((s3.dialect, s3.entries), (TraceDialect::Text, 3));
        let round = scan_trace_bytes(&plain_bin, Materialize::All).unwrap();
        assert_eq!(
            round.ops.unwrap(),
            vec![ld(3, 0x1000), st(0, 0x2000), ld(0, 0x40)]
        );
    }

    #[test]
    fn materialize_modes_control_op_buffers() {
        let ops = awkward_ops();
        let bin = emit(&ops, TraceDialect::Bin);
        let ext = emit(&ops, TraceDialect::TextExt);
        assert!(scan_trace_bytes(&bin, Materialize::No)
            .unwrap()
            .ops
            .is_none());
        assert!(scan_trace_bytes(&bin, Materialize::TextOnly)
            .unwrap()
            .ops
            .is_none());
        assert!(scan_trace_bytes(&bin, Materialize::All)
            .unwrap()
            .ops
            .is_some());
        assert!(scan_trace_bytes(&ext, Materialize::TextOnly)
            .unwrap()
            .ops
            .is_some());
    }

    fn tmpfile(tag: &str, bytes: &[u8]) -> PathBuf {
        let dir = std::env::temp_dir().join("dsarp-trace-v1-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}-{}.dtrace", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn bin_source_streams_cyclically_with_bounded_memory() {
        let ops = awkward_ops();
        let bytes = emit(&ops, TraceDialect::Bin);
        let hash = scan_trace_bytes(&bytes, Materialize::No).unwrap().hash;
        let path = tmpfile("stream", &bytes);
        let summary = read_trace_path(&path, Materialize::No).unwrap();
        assert_eq!(summary.hash, hash);
        let mut src = BinTraceSource::open(&path, hash).unwrap();
        assert_eq!(src.len(), ops.len() as u64);
        assert!(!src.is_empty());
        // Three full passes: the wrap re-reads and re-verifies the file.
        for pass in 0..3 {
            for (i, want) in ops.iter().enumerate() {
                assert_eq!(src.next_op(), *want, "pass {pass} op {i}");
            }
        }
        assert!(src.buf.capacity() <= READ_CHUNK);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn bin_source_wrap_detects_mid_campaign_edits() {
        let ops = awkward_ops();
        let bytes = emit(&ops, TraceDialect::Bin);
        let hash = scan_trace_bytes(&bytes, Materialize::No).unwrap().hash;
        let path = tmpfile("edit", &bytes);
        let mut src = BinTraceSource::open(&path, hash).unwrap();
        for _ in 0..ops.len() {
            src.next_op();
        }
        // Same-length edit: the wrap verifies the hash of the bytes it
        // just streamed, so the pass that reads the edited file is the
        // one whose completing wrap panics.
        let mut edited = bytes.clone();
        edited[BIN_HEADER_LEN] ^= 1;
        std::fs::write(&path, &edited).unwrap();
        for _ in 0..ops.len() {
            src.next_op();
        }
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| src.next_op()));
        let msg = *caught.unwrap_err().downcast::<String>().unwrap();
        assert!(
            msg.contains("changed while the campaign was running"),
            "{msg}"
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn bin_source_open_rejects_structural_damage() {
        let bytes = emit(&awkward_ops(), TraceDialect::Bin);
        let hash = scan_trace_bytes(&bytes, Materialize::No).unwrap().hash;
        let torn = tmpfile("torn", &bytes[..bytes.len() - 4]);
        assert!(matches!(
            BinTraceSource::open(&torn, hash),
            Err(TraceFileError::Truncated)
        ));
        let mut garbled = bytes.clone();
        garbled[3] ^= 0xff;
        let bad = tmpfile("magic", &garbled);
        assert!(matches!(
            BinTraceSource::open(&bad, hash),
            Err(TraceFileError::Binary { offset: 0, .. })
        ));
        for p in [torn, bad] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn word_hash_changes_on_any_single_byte_flip() {
        let bytes = emit(&awkward_ops(), TraceDialect::Bin);
        let hash = |b: &[u8]| scan_trace_bytes(b, Materialize::No).map(|s| s.hash).ok();
        let base = hash(&bytes);
        assert!(base.is_some());
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x01;
            // A flip the scanner rejects never gets an identity at all.
            assert_ne!(hash(&flipped), base, "byte {i}");
        }
    }

    /// One valid file per dialect: plain text, text-ext and bin.
    fn valid_files() -> [Vec<u8>; 3] {
        let plain = b"# header\n3 0x1000 4096\n0 512\n\n7 0x40 0x80\n1 0x99\n";
        [
            plain.to_vec(),
            emit(&awkward_ops(), TraceDialect::TextExt),
            emit(&awkward_ops(), TraceDialect::Bin),
        ]
    }

    /// Every single-byte flip (each position to each other value), insert
    /// and delete of a valid file in each dialect: no edit panics, chunked
    /// and whole-slice scans agree (`scan_chunked` asserts it), and a flip
    /// that still scans changes the hash, so an edited trace never replays
    /// under a stale fingerprint.
    #[test]
    fn single_byte_edits_never_panic_and_flips_change_the_hash() {
        for valid in valid_files() {
            let base = scan_chunked(&valid, Materialize::All).unwrap().hash;
            for at in 0..=valid.len() {
                for byte in 0..=u8::MAX {
                    let mut inserted = valid.clone();
                    inserted.insert(at, byte);
                    let _ = scan_chunked(&inserted, Materialize::All);
                    if at == valid.len() || byte == valid[at] {
                        continue;
                    }
                    let mut flipped = valid.clone();
                    flipped[at] = byte;
                    if let Ok(summary) = scan_chunked(&flipped, Materialize::All) {
                        assert_ne!(summary.hash, base, "byte {at} -> {byte:#04x}");
                    }
                }
                if at < valid.len() {
                    let mut deleted = valid.clone();
                    deleted.remove(at);
                    let _ = scan_chunked(&deleted, Materialize::All);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bytes, bare or behind a text-ext or bin header, never
        /// panic the scanner and scan alike whole and chunked.
        #[test]
        fn arbitrary_bytes_never_panic_and_scan_alike(
            header in 0usize..3,
            tail in prop::collection::vec(any::<u8>(), 0..160),
        ) {
            let ext_header = format!("{TEXT_EXT_HEADER}\n");
            let header: &[u8] = [&[][..], ext_header.as_bytes(), &BIN_MAGIC][header];
            let _ = scan_chunked(&[header, &tail].concat(), Materialize::All);
        }
    }
}
