//! Trace-driven campaign workloads: directories of captured trace files
//! (any v1 dialect — plain text, `text-ext`, or binary `.dtrace`),
//! content-hashed into job fingerprints.
//!
//! A [`TraceRef`] names one trace file together with the 128-bit FNV hash
//! of its raw bytes; the hash — never the path — is what
//! [`crate::Job::key_value`] folds into the fingerprint, so renaming or
//! moving a trace keeps every cached cell while editing one byte of it
//! invalidates exactly the cells that replay that trace. A
//! [`TraceWorkload`] bundles `cores` traces into one multi-programmed
//! mix, the trace equivalent of a [`dsarp_workloads::Workload`].
//!
//! Resolution is **single-pass**: `TraceRef::load` validates, counts
//! and content-hashes each file in one chunked read
//! ([`dsarp_cpu::read_trace_path`]). Text-dialect traces keep their
//! parsed ops as a shared snapshot, so `TraceRef::open` replays them
//! with zero further disk reads; binary traces stream from disk with
//! O(chunk) memory ([`dsarp_cpu::BinTraceSource`]), re-verifying the
//! content hash on every full pass. Either way a warm expansion plus
//! execution costs one read per trace file, never the former
//! read-twice-hash-twice.
//!
//! Enumeration is deterministic and host-independent: directory entries
//! are matched by file *name* against a glob (`*`/`?` wildcards), sorted
//! byte-wise, and chunked into consecutive `cores`-wide bundles (a final
//! short bundle wraps around to the start of the sorted list, so every
//! trace appears in at least one bundle).
//!
//! Every trace is validated at resolution time with the strict scanner:
//! a torn or truncated file — text missing its final newline, or a
//! `.dtrace` whose length disagrees with its header — is a
//! [`TraceSetError`] naming the offending path, not a silently wrong
//! simulation.

use crate::fingerprint::Fingerprint;
use dsarp_cpu::trace::CyclicTrace;
use dsarp_cpu::{
    read_trace_path, BinTraceSource, Materialize, TraceDialect, TraceFileError, TraceOp,
    TraceSource,
};
use dsarp_workloads::{SyntheticTrace, Workload};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Why a trace workload set failed to resolve. Every variant names the
/// file (or directory) at fault — `worker`, `merge` and `compact` surface
/// these messages verbatim when a spec references a bad trace.
#[derive(Debug)]
pub enum TraceSetError {
    /// Reading the directory or a trace file failed.
    Io {
        /// The path that failed.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A trace file failed validation (malformed, empty, or truncated).
    Invalid {
        /// The trace file at fault.
        path: PathBuf,
        /// The underlying parse error.
        source: TraceFileError,
    },
    /// The directory exists but no file name matches the glob.
    NoMatches {
        /// The directory searched.
        dir: PathBuf,
        /// The glob that matched nothing.
        glob: String,
    },
    /// A trace bundle needs at least one core.
    ZeroCores,
}

impl std::fmt::Display for TraceSetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceSetError::Io { path, source } => {
                write!(f, "trace file {}: {source}", path.display())
            }
            TraceSetError::Invalid { path, source } => {
                write!(f, "trace file {}: {source}", path.display())
            }
            TraceSetError::NoMatches { dir, glob } => {
                write!(f, "trace dir {}: no file matches `{glob}`", dir.display())
            }
            TraceSetError::ZeroCores => write!(f, "trace workloads need cores >= 1"),
        }
    }
}

impl std::error::Error for TraceSetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceSetError::Io { source, .. } => Some(source),
            TraceSetError::Invalid { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<TraceSetError> for std::io::Error {
    fn from(e: TraceSetError) -> Self {
        std::io::Error::other(e.to_string())
    }
}

/// One validated trace file: path for replay, content hash for identity.
///
/// Equality ignores the replay snapshot and the read counter — two refs
/// are equal when they name the same file with the same resolved
/// identity (path, name, dialect, hash, entry count).
#[derive(Debug, Clone)]
pub struct TraceRef {
    /// Where the trace lives (as given; workers sharing a store must see
    /// the same paths, exactly like the store directory itself).
    pub path: PathBuf,
    /// File stem — the workload-facing name (labels, grid rows).
    pub name: String,
    /// FNV-1a-128 hash of the file's raw bytes under its dialect's fold
    /// (byte-wise for text dialects, word-wise for `.dtrace`). The only
    /// part of a `TraceRef` that enters job fingerprints.
    pub content_hash: Fingerprint,
    /// Trace entries parsed at validation (stores count separately).
    pub entries: usize,
    /// Which encoding the file uses, detected at `TraceRef::load`.
    pub dialect: TraceDialect,
    /// Text dialects: the ops parsed at resolution, shared by every
    /// [`TraceRef::open`] so execution replays the resolved bytes with
    /// zero further reads. `None` for binary traces (streamed) and
    /// [`TraceRef::detached`] refs (re-read at open).
    ops: Option<Arc<[TraceOp]>>,
    /// Whole-file disk reads attributed to this ref (shared by clones).
    reads: Arc<AtomicU64>,
}

impl PartialEq for TraceRef {
    fn eq(&self, other: &Self) -> bool {
        self.path == other.path
            && self.name == other.name
            && self.content_hash == other.content_hash
            && self.entries == other.entries
            && self.dialect == other.dialect
    }
}

impl Eq for TraceRef {}

impl TraceRef {
    /// Reads, strictly validates, counts and content-hashes one trace
    /// file in a single chunked pass, detecting its dialect. Text-dialect
    /// ops are kept as the replay snapshot.
    ///
    /// # Errors
    ///
    /// [`TraceSetError`] naming `path` on I/O failure or an invalid
    /// (malformed / empty / truncated) trace.
    pub(crate) fn load(path: impl Into<PathBuf>) -> Result<Self, TraceSetError> {
        let path = path.into();
        let summary =
            read_trace_path(&path, Materialize::TextOnly).map_err(|source| match source {
                TraceFileError::Io(source) => TraceSetError::Io {
                    path: path.clone(),
                    source,
                },
                source => TraceSetError::Invalid {
                    path: path.clone(),
                    source,
                },
            })?;
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        Ok(TraceRef {
            path,
            name,
            content_hash: Fingerprint(summary.hash),
            entries: summary.entries,
            dialect: summary.dialect,
            ops: summary.ops.map(Arc::from),
            reads: Arc::new(AtomicU64::new(1)),
        })
    }

    /// Builds a ref from already-known identity without touching the
    /// filesystem — for tests and for reconstructing refs from stored
    /// metadata. The dialect is assumed plain text and there is no replay
    /// snapshot, so `TraceRef::open` re-reads and re-verifies the file.
    pub fn detached(
        path: impl Into<PathBuf>,
        name: impl Into<String>,
        content_hash: Fingerprint,
        entries: usize,
    ) -> Self {
        TraceRef {
            path: path.into(),
            name: name.into(),
            content_hash,
            entries,
            dialect: TraceDialect::Text,
            ops: None,
            reads: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Opens the trace for execution as an infinite cyclic source.
    ///
    /// Text dialects replay the snapshot parsed at resolution — zero
    /// disk reads, and by construction exactly the bytes the fingerprint
    /// was derived from. Binary traces stream from disk in O(chunk)
    /// memory; the content hash is re-folded and checked on every full
    /// pass, so a mid-campaign edit panics (naming the file) instead of
    /// replaying different bytes under a stale fingerprint.
    ///
    /// # Panics
    ///
    /// Panics (with a message naming the file) if the file disappeared or
    /// — for refs without a snapshot — no longer matches
    /// [`TraceRef::content_hash`].
    pub(crate) fn open(&self) -> Box<dyn TraceSource> {
        if let Some(ops) = &self.ops {
            return Box::new(CyclicTrace::new(Arc::clone(ops)));
        }
        self.reads.fetch_add(1, Ordering::Relaxed);
        if self.dialect == TraceDialect::Bin {
            let source =
                BinTraceSource::open(&self.path, self.content_hash.0).unwrap_or_else(|e| {
                    panic!(
                        "trace file {} vanished or tore while the campaign was \
                         running: {e}",
                        self.path.display()
                    )
                });
            return Box::new(source);
        }
        // Detached text ref: re-read, verify against the recorded hash,
        // and replay the re-parsed ops (the pre-snapshot contract).
        let summary = read_trace_path(&self.path, Materialize::All).unwrap_or_else(|e| {
            panic!(
                "trace file {} vanished or failed to re-parse while the \
                 campaign was running: {e}",
                self.path.display()
            )
        });
        assert!(
            Fingerprint(summary.hash) == self.content_hash,
            "trace file {} changed while the campaign was running \
             (content hash mismatch); re-run to pick up the new contents",
            self.path.display()
        );
        let ops = summary.ops.expect("Materialize::All keeps ops");
        Box::new(CyclicTrace::new(ops))
    }
}

/// A multi-programmed workload of captured traces: one [`TraceRef`] per
/// core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceWorkload {
    /// Bundle name, derived from the member file stems (display only —
    /// excluded from fingerprints, like synthetic workload names).
    pub name: String,
    /// One trace per core, in core order.
    pub traces: Vec<TraceRef>,
}

impl TraceWorkload {
    /// Builds a bundle from per-core traces, deriving its name.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty.
    pub fn new(traces: Vec<TraceRef>) -> Self {
        assert!(
            !traces.is_empty(),
            "a trace bundle needs at least one trace"
        );
        let name = if traces.len() == 1 {
            traces[0].name.clone()
        } else {
            traces
                .iter()
                .map(|t| t.name.as_str())
                .collect::<Vec<_>>()
                .join("+")
        };
        TraceWorkload { name, traces }
    }

    /// Opens the first `cores` member traces as boxed sources for
    /// [`dsarp_sim::SystemBuilder::trace_sources`].
    ///
    /// # Panics
    ///
    /// As [`TraceRef::open`]; also if the bundle has fewer than `cores`
    /// traces.
    pub(crate) fn sources(&self, cores: usize) -> Vec<Box<dyn TraceSource>> {
        assert!(
            self.traces.len() >= cores,
            "trace bundle {} has {} traces for {} cores",
            self.name,
            self.traces.len(),
            cores
        );
        self.traces[..cores].iter().map(|t| t.open()).collect()
    }
}

/// Matches `name` against a glob supporting `*` (any run, including
/// empty) and `?` (any single character). Matching is byte-wise over the
/// whole name — there is no directory recursion; globs apply to file
/// names within the trace directory only.
///
/// Iterative two-pointer matcher backtracking to the most recent `*`
/// only: `O(name × glob)` worst case, so adversarial multi-star globs
/// cannot hang enumeration the way naive recursion would.
pub(crate) fn glob_match(glob: &str, name: &str) -> bool {
    let (p, n) = (glob.as_bytes(), name.as_bytes());
    let (mut pi, mut ni) = (0usize, 0usize);
    // The last `*` seen and the name position its current match ends at.
    let mut star: Option<(usize, usize)> = None;
    while ni < n.len() {
        if pi < p.len() && (p[pi] == b'?' || p[pi] == n[ni]) {
            pi += 1;
            ni += 1;
        } else if pi < p.len() && p[pi] == b'*' {
            star = Some((pi, ni));
            pi += 1;
        } else if let Some((sp, sn)) = star {
            // Grow the star's span by one byte and retry after it.
            pi = sp + 1;
            ni = sn + 1;
            star = Some((sp, sn + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == b'*' {
        pi += 1;
    }
    pi == p.len()
}

/// Enumerates `dir` for file names matching `glob`, sorted byte-wise by
/// name (deterministic and host-independent), loads and validates each
/// trace, and chunks the sorted list into consecutive `cores`-wide
/// bundles. A final short chunk wraps around to the start of the list,
/// so every trace appears at least once.
///
/// # Errors
///
/// [`TraceSetError`] naming the directory or the first offending file.
pub fn resolve_trace_dir(
    dir: &Path,
    glob: &str,
    cores: usize,
) -> Result<Vec<TraceWorkload>, TraceSetError> {
    if cores == 0 {
        return Err(TraceSetError::ZeroCores);
    }
    let entries = std::fs::read_dir(dir).map_err(|source| TraceSetError::Io {
        path: dir.to_path_buf(),
        source,
    })?;
    // Keep the real DirEntry path alongside the (possibly lossy) name the
    // glob sees: rebuilding a path from a lossy name would break — or
    // alias — file names that are not valid UTF-8.
    let mut matched: Vec<(std::ffi::OsString, PathBuf)> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|source| TraceSetError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
        let name = entry.file_name();
        if entry.path().is_file() && glob_match(glob, &name.to_string_lossy()) {
            matched.push((name, entry.path()));
        }
    }
    if matched.is_empty() {
        return Err(TraceSetError::NoMatches {
            dir: dir.to_path_buf(),
            glob: glob.to_string(),
        });
    }
    matched.sort();
    let refs: Vec<TraceRef> = matched
        .into_iter()
        .map(|(_, path)| TraceRef::load(path))
        .collect::<Result<_, _>>()?;
    bundle(refs, cores)
}

/// Loads an explicit trace-file list (order preserved — the caller
/// controls bundling) and chunks it into `cores`-wide bundles with the
/// same wrap-around rule as [`resolve_trace_dir`].
///
/// # Errors
///
/// [`TraceSetError`] naming the first offending file.
pub(crate) fn resolve_trace_files(
    files: &[String],
    cores: usize,
) -> Result<Vec<TraceWorkload>, TraceSetError> {
    if cores == 0 {
        return Err(TraceSetError::ZeroCores);
    }
    let refs: Vec<TraceRef> = files.iter().map(TraceRef::load).collect::<Result<_, _>>()?;
    bundle(refs, cores)
}

/// Chunks validated traces into `cores`-wide bundles (wrap-around tail)
/// and disambiguates colliding derived bundle names — two same-stem files
/// from different directories would otherwise alias in the assembled
/// grid's `(workload, mechanism, density)` index and silently shadow
/// each other's rows.
fn bundle(refs: Vec<TraceRef>, cores: usize) -> Result<Vec<TraceWorkload>, TraceSetError> {
    if cores == 0 {
        return Err(TraceSetError::ZeroCores);
    }
    if refs.is_empty() {
        return Err(TraceSetError::NoMatches {
            dir: PathBuf::new(),
            glob: String::new(),
        });
    }
    let mut bundles = Vec::with_capacity(refs.len().div_ceil(cores));
    for chunk_start in (0..refs.len()).step_by(cores) {
        let traces: Vec<TraceRef> = (0..cores)
            .map(|i| refs[(chunk_start + i) % refs.len()].clone())
            .collect();
        bundles.push(TraceWorkload::new(traces));
    }
    let mut seen: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    for b in &mut bundles {
        let n = seen.entry(b.name.clone()).or_insert(0);
        *n += 1;
        if *n > 1 {
            b.name = format!("{}#{n}", b.name);
        }
    }
    Ok(bundles)
}

/// Captures synthetic workloads as a trace directory: for each workload
/// and core, `ops` entries of the exact generator stream
/// [`dsarp_sim::SystemBuilder`] would feed that core (same per-core
/// address partitioning, same `seed`) are exported in `dialect` as
/// `<dir>/<workload>-c<NN>.<ext>` (`.trace` for text dialects, `.dtrace`
/// for binary). The naming sorts per-workload files consecutively, so a
/// [`resolve_trace_dir`] sweep with the same core count reassembles
/// exactly these bundles.
///
/// The lossless dialects ([`TraceDialect::TextExt`], [`TraceDialect::Bin`])
/// capture every generator feature — store bubbles and load dependence
/// included — so replay is bit-exact for the whole catalogue. Plain
/// [`TraceDialect::Text`] is lossy for those two features (see
/// `dsarp_cpu::trace_file::export`): a captured trace replays the
/// generator stream bit-exactly only when the workload produces
/// loads-only streams; otherwise replay is the format's documented
/// approximation.
///
/// Returns the written paths in enumeration order.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn capture_workloads(
    dir: &Path,
    workloads: &[Workload],
    seed: u64,
    ops: usize,
    dialect: TraceDialect,
) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for wl in workloads {
        for (i, bench) in wl.benchmarks.iter().enumerate() {
            let mut source = SyntheticTrace::new(bench, i, wl.cores(), seed);
            let path = dir.join(format!("{}-c{i:02}.{}", wl.name, dialect.extension()));
            let file = std::fs::File::create(&path)?;
            let mut out = std::io::BufWriter::new(file);
            dsarp_cpu::trace_v1::export_dialect(&mut source, ops, &mut out, dialect)?;
            std::io::Write::flush(&mut out)?;
            written.push(path);
        }
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("dsarp-traces-tests")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn glob_semantics() {
        assert!(glob_match("*.trace", "a.trace"));
        assert!(glob_match("*", "anything.at.all"));
        assert!(glob_match("w?-c*.trace", "w0-c07.trace"));
        assert!(!glob_match("*.trace", "a.trace.bak"));
        assert!(!glob_match("?.trace", "ab.trace"));
        assert!(glob_match("a*b*c", "a-x-b-y-c"));
        assert!(!glob_match("a*b*c", "a-x-c"));
        assert!(glob_match("", ""));
        assert!(glob_match("*", ""));
        assert!(glob_match("a*", "a"));
        assert!(!glob_match("a*b", "ab-x"));
        // Adversarial multi-star globs must stay linear-ish, not hang.
        let long = "a".repeat(200) + "b";
        assert!(!glob_match("*a*a*a*a*a*a*a*a*c", &long));
        assert!(glob_match("*a*a*a*a*a*a*a*a*b", &long));
    }

    #[test]
    fn dir_resolution_is_sorted_and_content_hashed() {
        let dir = tmpdir("sorted");
        // Written in non-sorted order; enumeration must sort by name.
        std::fs::write(dir.join("b.trace"), "2 0x80\n").unwrap();
        std::fs::write(dir.join("a.trace"), "1 0x40\n").unwrap();
        std::fs::write(dir.join("ignored.txt"), "not a trace").unwrap();
        let bundles = resolve_trace_dir(&dir, "*.trace", 1).unwrap();
        let names: Vec<&str> = bundles.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert_ne!(
            bundles[0].traces[0].content_hash,
            bundles[1].traces[0].content_hash
        );

        // Renaming a file keeps its content hash (identity is content).
        let old = bundles[0].traces[0].content_hash;
        std::fs::rename(dir.join("a.trace"), dir.join("z.trace")).unwrap();
        let renamed = resolve_trace_dir(&dir, "*.trace", 1).unwrap();
        assert_eq!(renamed[1].name, "z");
        assert_eq!(renamed[1].traces[0].content_hash, old);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn short_final_bundle_wraps_to_the_start() {
        let dir = tmpdir("wrap");
        for n in ["a", "b", "c"] {
            std::fs::write(dir.join(format!("{n}.trace")), "1 0x40\n").unwrap();
        }
        let bundles = resolve_trace_dir(&dir, "*.trace", 2).unwrap();
        assert_eq!(bundles.len(), 2);
        assert_eq!(bundles[0].name, "a+b");
        assert_eq!(bundles[1].name, "c+a", "short tail wraps around");
        assert_eq!(bundles[1].traces.len(), 2);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn colliding_bundle_names_are_disambiguated() {
        let dir = tmpdir("collide");
        std::fs::create_dir_all(dir.join("run1")).unwrap();
        std::fs::create_dir_all(dir.join("run2")).unwrap();
        std::fs::write(dir.join("run1/app.trace"), "1 0x40\n").unwrap();
        std::fs::write(dir.join("run2/app.trace"), "2 0x80\n").unwrap();
        let files = vec![
            dir.join("run1/app.trace").to_string_lossy().into_owned(),
            dir.join("run2/app.trace").to_string_lossy().into_owned(),
        ];
        let bundles = resolve_trace_files(&files, 1).unwrap();
        let names: Vec<&str> = bundles.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names, ["app", "app#2"], "grid rows must not alias");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn errors_name_the_offending_file() {
        let dir = tmpdir("errors");
        std::fs::write(dir.join("ok.trace"), "1 0x40\n").unwrap();
        std::fs::write(dir.join("torn.trace"), "1 0x40\n2 0x8").unwrap();
        let err = resolve_trace_dir(&dir, "*.trace", 1).unwrap_err();
        assert!(
            err.to_string().contains("torn.trace") && err.to_string().contains("truncated"),
            "{err}"
        );
        let err = TraceRef::load(dir.join("missing.trace")).unwrap_err();
        assert!(err.to_string().contains("missing.trace"), "{err}");
        let err = resolve_trace_dir(&dir, "*.xyz", 1).unwrap_err();
        assert!(err.to_string().contains("*.xyz"), "{err}");
        assert!(matches!(
            resolve_trace_files(&["x".into()], 0).unwrap_err(),
            TraceSetError::ZeroCores
        ));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn text_replay_is_a_snapshot_of_the_resolved_bytes() {
        let dir = tmpdir("edit");
        let path = dir.join("t.trace");
        std::fs::write(&path, "1 0x40\n").unwrap();
        let r = TraceRef::load(&path).unwrap();
        assert_eq!((r.entries, r.dialect), (1, TraceDialect::Text));
        let mut t = r.open();
        assert_eq!(t.next_op().addr, 0x40);
        // Editing the file after resolution cannot desynchronize replay
        // from the fingerprint: open() replays the resolved snapshot, and
        // the next expansion re-hashes the new bytes into a new cell.
        std::fs::write(&path, "1 0x80\n").unwrap();
        assert_eq!(r.open().next_op().addr, 0x40, "snapshot, not the edit");
        assert_ne!(TraceRef::load(&path).unwrap().content_hash, r.content_hash);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn detached_refs_keep_the_verify_at_open_contract() {
        let dir = tmpdir("detached");
        let path = dir.join("t.trace");
        std::fs::write(&path, "1 0x40\n").unwrap();
        let loaded = TraceRef::load(&path).unwrap();
        let r = TraceRef::detached(&path, "t", loaded.content_hash, 1);
        assert_eq!(r, loaded, "identity fields match, snapshot is ignored");
        assert_eq!(r.open().next_op().addr, 0x40);
        std::fs::write(&path, "1 0x80\n").unwrap();
        let caught = std::panic::catch_unwind(|| r.open());
        assert!(caught.is_err(), "changed content must not silently replay");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn one_read_resolves_and_replays_a_text_trace() {
        let dir = tmpdir("reads");
        let path = dir.join("t.trace");
        std::fs::write(&path, "1 0x40\n2 0x80\n").unwrap();
        let r = TraceRef::load(&path).unwrap();
        assert_eq!(
            r.reads.load(Ordering::Relaxed),
            1,
            "resolution is one chunked read"
        );
        // Replay — including a clone inside a workload and a full cycle
        // through the ops — costs zero further reads.
        let wl = TraceWorkload::new(vec![r.clone()]);
        let mut sources = wl.sources(1);
        for _ in 0..5 {
            sources[0].next_op();
        }
        drop(sources);
        assert_eq!(
            r.reads.load(Ordering::Relaxed),
            1,
            "open + execute adds no reads"
        );

        // Binary traces stream instead of snapshotting: one more read
        // per open, never a whole-file buffer.
        let (_, bin) =
            dsarp_cpu::trace_v1::convert_bytes(&std::fs::read(&path).unwrap(), TraceDialect::Bin)
                .unwrap();
        let bpath = dir.join("t.dtrace");
        std::fs::write(&bpath, &bin).unwrap();
        let b = TraceRef::load(&bpath).unwrap();
        assert_eq!(
            (b.dialect, b.entries, b.reads.load(Ordering::Relaxed)),
            (TraceDialect::Bin, 2, 1)
        );
        let mut s = b.open();
        assert_eq!(s.next_op().addr, 0x40);
        assert_eq!(
            b.reads.load(Ordering::Relaxed),
            2,
            "streaming replay is the second read"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn capture_round_trips_through_dir_resolution() {
        let dir = tmpdir("capture");
        let wls = dsarp_workloads::mixes::intensive_mixes(2, 1)[..2].to_vec();
        let written = capture_workloads(&dir, &wls, 7, 500, TraceDialect::Text).unwrap();
        assert_eq!(written.len(), 4);
        let bundles = resolve_trace_dir(&dir, "*.trace", 2).unwrap();
        assert_eq!(bundles.len(), 2);
        for (b, wl) in bundles.iter().zip(&wls) {
            assert_eq!(b.name, format!("{0}-c00+{0}-c01", wl.name));
            for t in &b.traces {
                assert!(t.entries >= 500, "stores add entries, never remove");
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn lossless_captures_replay_the_exact_generator_stream() {
        let dir = tmpdir("lossless");
        let wls = dsarp_workloads::mixes::intensive_mixes(1, 1)[..1].to_vec();
        let ops = 300;
        let mut truth = SyntheticTrace::new(wls[0].benchmarks[0], 0, 1, 7);
        let want: Vec<_> = (0..ops).map(|_| truth.next_op()).collect();
        for (dialect, glob) in [
            (TraceDialect::TextExt, "*.trace"),
            (TraceDialect::Bin, "*.dtrace"),
        ] {
            let sub = dir.join(dialect.label());
            capture_workloads(&sub, &wls, 7, ops, dialect).unwrap();
            let bundles = resolve_trace_dir(&sub, glob, 1).unwrap();
            assert_eq!(
                bundles[0].traces[0].entries, ops,
                "{dialect}: one entry per op"
            );
            let mut src = bundles[0].traces[0].open();
            let got: Vec<_> = (0..ops).map(|_| src.next_op()).collect();
            assert_eq!(got, want, "{dialect} must replay bit-exactly");
        }
        // Plain text of the same stream is the documented approximation:
        // entries can differ (attachment convention) and flags are lost.
        let sub = dir.join("text");
        capture_workloads(&sub, &wls, 7, ops, TraceDialect::Text).unwrap();
        let plain = resolve_trace_dir(&sub, "*.trace", 1).unwrap();
        assert!(plain[0].traces[0].entries >= ops);
        let _ = std::fs::remove_dir_all(dir);
    }
}
