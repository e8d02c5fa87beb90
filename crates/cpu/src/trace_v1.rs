//! DSARP trace v1: lossless dialects and the one pull-based trace reader.
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
//! [`scan_trace_bytes`] and [`read_trace_path`] run one pull-based reader
//! over a `BufRead` (the slice, or the file behind a `READ_CHUNK`-byte
//! buffer): the first `BIN_MAGIC`-length bytes pick the dialect, then one
//! pass validates, counts, content-hashes and (optionally) materializes
//! the ops, so the campaign layer never reads or hashes a file twice. Text
//! is pulled a line at a time, and a line longer than `READ_CHUNK` bytes is
//! a [`TraceFileError::Parse`] error; `.dtrace` records are pulled up to
//! `READ_CHUNK` bytes at a time. Memory stays O(`READ_CHUNK`) in every
//! dialect unless the ops are materialized. [`BinTraceSource`] replays a
//! `.dtrace` file as an infinite cyclic [`TraceSource`] through the same
//! record reader, so million-request traces never need whole-file buffers.
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
use std::fs::File;
use std::io::{BufRead, BufReader, Read, Write};
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
/// of the 8-byte hash word), and the longest text line with its newline.
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

/// Reads until `buf` is full or the input ends; returns the bytes read.
fn fill(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut n = 0;
    while n < buf.len() {
        match r.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(k) => n += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(n)
}

/// The one trace reader: the first `BIN_MAGIC.len()` bytes pick the
/// dialect, then one pass over `r` validates, counts, content-hashes and
/// (optionally) materializes the ops. An input shorter than the magic is
/// text.
fn scan(mut r: impl BufRead, materialize: Materialize) -> Result<TraceSummary, TraceFileError> {
    let mut prefix = [0u8; BIN_MAGIC.len()];
    let n = fill(&mut r, &mut prefix)?;
    let r = (&prefix[..n]).chain(r);
    if prefix[..n] == BIN_MAGIC {
        scan_bin(BinBody::new(r)?, materialize == Materialize::All)
    } else {
        scan_text(r, materialize != Materialize::No)
    }
}

/// Pulls text lines (each at most `READ_CHUNK` bytes with its newline),
/// folding every line with its newline into the byte-wise hash. A last
/// line without a newline is [`TraceFileError::Truncated`].
fn scan_text(mut r: impl BufRead, keep: bool) -> Result<TraceSummary, TraceFileError> {
    let mut hasher = Fnv128::new();
    let (mut mode, mut entries, mut ops, mut bytes) = (TextMode::Unknown, 0, Vec::new(), 0);
    let mut line = Vec::new();
    for line_no in 1.. {
        line.clear();
        let n = (&mut r)
            .take(READ_CHUNK as u64 + 1)
            .read_until(b'\n', &mut line)?;
        if n == 0 {
            break;
        }
        if n > READ_CHUNK {
            return Err(TraceFileError::Parse {
                line: line_no,
                text: format!("<line longer than {READ_CHUNK} bytes>"),
            });
        }
        let Some(text) = line.strip_suffix(b"\n") else {
            return Err(TraceFileError::Truncated);
        };
        hasher.update(&line);
        bytes += n as u64;
        parse_text_line(text, line_no, &mut mode, keep, &mut entries, &mut ops)?;
    }
    if entries == 0 {
        return Err(TraceFileError::Empty);
    }
    Ok(TraceSummary {
        dialect: match mode {
            TextMode::Ext => TraceDialect::TextExt,
            _ => TraceDialect::Text,
        },
        entries,
        bytes,
        hash: hasher.finish(),
        ops: keep.then_some(ops),
    })
}

/// A `.dtrace` stream past its header: whole records, read a chunk at a
/// time and folded into the word hash as they arrive. Scanning and replay
/// both read records through it.
struct BinBody<R> {
    reader: R,
    /// Records the header declares (never zero).
    count: u64,
    /// Records read so far.
    read: u64,
    /// The whole records of the last chunk read.
    chunk: Vec<u8>,
    hasher: Fnv128,
}

impl<R: Read> BinBody<R> {
    /// Reads and checks the header (magic, non-zero record count) and
    /// folds it into a fresh hash.
    fn new(mut reader: R) -> Result<Self, TraceFileError> {
        let mut header = [0u8; BIN_HEADER_LEN];
        if fill(&mut reader, &mut header)? < BIN_HEADER_LEN {
            return Err(TraceFileError::Truncated);
        }
        if header[..BIN_MAGIC.len()] != BIN_MAGIC {
            return Err(binary_err(0, "bad magic (not a .dtrace file)"));
        }
        let count = u64::from_le_bytes(header[8..].try_into().expect("8-byte count"));
        if count == 0 {
            return Err(TraceFileError::Empty);
        }
        let mut hasher = Fnv128::new();
        hasher.update_words(&header);
        Ok(BinBody {
            reader,
            count,
            read: 0,
            chunk: Vec::new(),
            hasher,
        })
    }

    /// Reads the next whole records (at most `READ_CHUNK` bytes, none past
    /// the declared count) into `chunk` and folds them into the hash. The
    /// chunk is empty once every record was read. Returns `true` when the
    /// input ended before the chunk was full.
    fn next_chunk(&mut self) -> std::io::Result<bool> {
        let records = (self.count - self.read).min((READ_CHUNK / BIN_RECORD_LEN) as u64);
        let want = records as usize * BIN_RECORD_LEN;
        self.chunk.resize(want, 0);
        let got = fill(&mut self.reader, &mut self.chunk)?;
        self.chunk.truncate(got / BIN_RECORD_LEN * BIN_RECORD_LEN);
        self.hasher.update_words(&self.chunk);
        self.read += (self.chunk.len() / BIN_RECORD_LEN) as u64;
        Ok(got < want)
    }
}

/// Reads every declared record, then probes one byte for data past them.
/// The records read are decoded before a short input is reported, so a
/// bad record ahead of a torn tail is named as such.
fn scan_bin(mut body: BinBody<impl Read>, keep: bool) -> Result<TraceSummary, TraceFileError> {
    let mut ops = Vec::new();
    while body.read < body.count {
        let first = body.read;
        let short = body.next_chunk()?;
        for (i, rec) in body.chunk.chunks_exact(BIN_RECORD_LEN).enumerate() {
            let op = decode_record(rec).map_err(|flags| bad_flags_err(first + i as u64, flags))?;
            if keep {
                ops.push(op);
            }
        }
        if short {
            return Err(TraceFileError::Truncated);
        }
    }
    let bytes = BIN_HEADER_LEN as u64 + body.count * BIN_RECORD_LEN as u64;
    if fill(&mut body.reader, &mut [0u8; 1])? > 0 {
        return Err(binary_err(bytes, "bytes beyond the declared record count"));
    }
    Ok(TraceSummary {
        dialect: TraceDialect::Bin,
        entries: body.count as usize,
        bytes,
        hash: body.hasher.finish(),
        ops: keep.then_some(ops),
    })
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
    scan(bytes, materialize)
}

/// [`scan_trace_bytes`] over a file, read through one `READ_CHUNK`-byte
/// buffer — O(chunk) memory unless materializing.
///
/// # Errors
///
/// [`TraceFileError`] on I/O failure or invalid contents.
pub fn read_trace_path(
    path: &Path,
    materialize: Materialize,
) -> Result<TraceSummary, TraceFileError> {
    let file = File::open(path)?;
    scan(BufReader::with_capacity(READ_CHUNK, file), materialize)
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
/// trace is. Each full pass re-opens the file, re-checks its header and
/// length and re-folds the word hash; on wrap the digest is checked against
/// the hash the campaign resolved, so a mid-campaign edit panics (naming
/// the file) instead of silently replaying different bytes under a stale
/// fingerprint.
pub struct BinTraceSource {
    path: PathBuf,
    body: BinBody<File>,
    /// Byte offset of the next record in `body.chunk`.
    pos: usize,
    expect_hash: u128,
}

impl std::fmt::Debug for BinTraceSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BinTraceSource")
            .field("path", &self.path)
            .field("count", &self.body.count)
            .finish_non_exhaustive()
    }
}

/// Opens a `.dtrace` file for replay: the header checks, then the file
/// length against the declared record count.
fn open_bin(path: &Path) -> Result<BinBody<File>, TraceFileError> {
    let body = BinBody::new(File::open(path)?)?;
    let records_len = body
        .reader
        .metadata()?
        .len()
        .saturating_sub(BIN_HEADER_LEN as u64);
    match body.count.checked_mul(BIN_RECORD_LEN as u64) {
        Some(n) if n == records_len => Ok(body),
        Some(n) if n < records_len => Err(binary_err(
            BIN_HEADER_LEN as u64 + n,
            "bytes beyond the declared record count",
        )),
        // Too short, or a count whose length overflows `u64`.
        _ => Err(TraceFileError::Truncated),
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
        let body = open_bin(&path)?;
        Ok(BinTraceSource {
            path,
            body,
            pos: 0,
            expect_hash,
        })
    }

    /// Records per full pass (the file's declared count).
    pub fn len(&self) -> u64 {
        self.body.count
    }

    /// Never true for an opened source (zero-record files are rejected).
    pub fn is_empty(&self) -> bool {
        self.body.count == 0
    }

    fn refill(&mut self) {
        let path = self.path.display();
        if self.body.read == self.body.count {
            // End of a full pass: the accumulated word hash must still
            // match what resolution saw.
            assert!(
                self.body.hasher.finish() == self.expect_hash,
                "trace file {path} changed while the campaign was running \
                 (content hash mismatch); re-run to pick up the new contents"
            );
            match open_bin(&self.path) {
                Ok(body) if body.count == self.body.count => self.body = body,
                Ok(body) => panic!(
                    "trace file {path} changed while the campaign was running \
                     (record count {} != {})",
                    body.count, self.body.count
                ),
                Err(e) => panic!("trace file {path} changed while the campaign was running: {e}"),
            }
        }
        match self.body.next_chunk() {
            Ok(false) => self.pos = 0,
            Ok(true) => panic!("trace file {path} shrank while the campaign was running"),
            Err(e) => panic!("trace file {path} vanished while the campaign was running: {e}"),
        }
    }
}

impl TraceSource for BinTraceSource {
    fn next_op(&mut self) -> TraceOp {
        if self.pos == self.body.chunk.len() {
            self.refill();
        }
        let rec = &self.body.chunk[self.pos..self.pos + BIN_RECORD_LEN];
        let op = decode_record(rec).unwrap_or_else(|flags| {
            let left = (self.body.chunk.len() - self.pos) / BIN_RECORD_LEN;
            panic!(
                "trace file {} changed while the campaign was running \
                 (record {} has invalid flags {flags:#x})",
                self.path.display(),
                self.body.read - left as u64
            )
        });
        self.pos += BIN_RECORD_LEN;
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

    /// Returns 1, then 3, then 7, ... bytes per call, to tear every line,
    /// header and record across reads.
    struct ShortReads<'a> {
        bytes: &'a [u8],
        calls: usize,
    }

    impl Read for ShortReads<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let sizes = [1usize, 3, 7, 16, 5, 64, 2];
            let n = sizes[self.calls % sizes.len()]
                .min(buf.len())
                .min(self.bytes.len());
            self.calls += 1;
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Scans through short reads behind a 5-byte `BufReader`, asserting
    /// agreement (summary or error) with the whole-slice scan.
    fn scan_chunked(
        bytes: &[u8],
        materialize: Materialize,
    ) -> Result<TraceSummary, TraceFileError> {
        let whole = scan_trace_bytes(bytes, materialize);
        let reads = ShortReads { bytes, calls: 0 };
        let chunked = scan(BufReader::with_capacity(5, reads), materialize);
        match (&whole, &chunked) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.dialect, b.dialect);
                assert_eq!(a.entries, b.entries);
                assert_eq!(a.bytes, b.bytes);
                assert_eq!(a.hash, b.hash);
                assert_eq!(a.ops, b.ops);
            }
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
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
        // A line longer than the read chunk is rejected, not buffered.
        let long = format!("#{}\n1 0x40\n", "x".repeat(READ_CHUNK));
        assert!(matches!(
            scan_chunked(long.as_bytes(), Materialize::No),
            Err(TraceFileError::Parse { line: 1, .. })
        ));
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
        // One chunk per pass, and one that crosses a chunk boundary.
        let shapes = awkward_ops();
        let long: Vec<TraceOp> = (0..READ_CHUNK / BIN_RECORD_LEN + 3)
            .map(|i| TraceOp {
                addr: i as u64 * 64,
                ..shapes[i % shapes.len()]
            })
            .collect();
        for (tag, ops, passes) in [("stream", awkward_ops(), 3), ("stream-long", long, 2)] {
            let bytes = emit(&ops, TraceDialect::Bin);
            let hash = scan_trace_bytes(&bytes, Materialize::No).unwrap().hash;
            let path = tmpfile(tag, &bytes);
            let summary = read_trace_path(&path, Materialize::No).unwrap();
            assert_eq!(summary.hash, hash);
            let mut src = BinTraceSource::open(&path, hash).unwrap();
            assert_eq!(src.len(), ops.len() as u64);
            assert!(!src.is_empty());
            // Every wrap re-reads and re-verifies the file.
            for pass in 0..passes {
                for (i, want) in ops.iter().enumerate() {
                    assert_eq!(src.next_op(), *want, "{tag} pass {pass} op {i}");
                }
            }
            assert!(src.body.chunk.capacity() <= READ_CHUNK);
            let _ = std::fs::remove_file(path);
        }
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
        // A count whose byte length overflows `u64`, over one record.
        let mut huge = BIN_MAGIC.to_vec();
        huge.extend_from_slice(&((1u64 << 60) + 1).to_le_bytes());
        huge.extend_from_slice(&bytes[BIN_HEADER_LEN..BIN_HEADER_LEN + BIN_RECORD_LEN]);
        let huge = tmpfile("huge", &huge);
        assert!(matches!(
            BinTraceSource::open(&huge, hash),
            Err(TraceFileError::Truncated)
        ));
        for p in [torn, bad, huge] {
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
