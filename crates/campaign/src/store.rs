//! The on-disk result store: content-addressed JSON-lines shards.
//!
//! Layout under the store root (default `.campaign/`):
//!
//! ```text
//! .campaign/<campaign-name>/
//! ├── manifest.json          # spec echo + format version (debugging aid)
//! └── shards/
//!     ├── shard-00.jsonl     # one record per line: {"fp","kind","label",...}
//!     ├── shard-01.jsonl
//!     └── ...
//! ```
//!
//! Records are routed to `shard-(fp % SHARDS)` and appended with an
//! immediate flush, so a killed run loses at most the record being
//! written. On open, every parseable line is loaded; a torn final line
//! (from a crash mid-append) is skipped with a warning and its job simply
//! re-runs. Duplicate fingerprints keep the first record, so re-appends
//! after a partial flush are harmless.

use crate::fingerprint::Fingerprint;
use crate::job::RunSummary;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Number of shard files a store splits its records across.
pub const SHARDS: usize = 8;

/// Store format version, bumped on incompatible record changes.
pub const FORMAT_VERSION: u32 = 1;

/// One cached result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// Job fingerprint (32 hex digits).
    pub fp: String,
    /// `"alone"` or `"grid"`.
    pub kind: String,
    /// Human-readable job label (not part of the key).
    pub label: String,
    /// Alone-IPC payload.
    pub alone_ipc: Option<f64>,
    /// Grid payload.
    pub summary: Option<RunSummary>,
}

impl Record {
    /// Builds an alone-IPC record.
    pub fn alone(fp: Fingerprint, label: String, ipc: f64) -> Self {
        Record {
            fp: fp.to_string(),
            kind: "alone".into(),
            label,
            alone_ipc: Some(ipc),
            summary: None,
        }
    }

    /// Builds a grid-cell record.
    pub fn grid(fp: Fingerprint, label: String, summary: RunSummary) -> Self {
        Record {
            fp: fp.to_string(),
            kind: "grid".into(),
            label,
            alone_ipc: None,
            summary: Some(summary),
        }
    }
}

/// `manifest.json`: this declaration is its schema.
#[derive(Serialize)]
struct Manifest {
    format_version: u32,
    campaign: String,
    spec: Value,
}

/// An open campaign store.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    records: HashMap<u128, Record>,
    /// Per-shard append handles, lazily opened; mutexed so executor worker
    /// threads can flush completed jobs concurrently.
    writers: Vec<Mutex<Option<File>>>,
    loaded: usize,
}

impl Store {
    /// Opens (creating if needed) the store for `campaign_name` under
    /// `root`, loading every existing record.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors. Unparseable shard *lines* are skipped,
    /// not errors: they re-run.
    pub fn open(root: &Path, campaign_name: &str, manifest: &Value) -> std::io::Result<Self> {
        let mut store = Self::attach(root, campaign_name)?;
        for shard in 0..SHARDS {
            Self::for_each_line(&store.dir, shard, |decoded| match decoded {
                Some((fp, record)) => {
                    store.records.entry(fp.0).or_insert(record);
                    store.loaded += 1;
                }
                None => {
                    // Torn append from a killed run: drop it, the job
                    // will simply be simulated again.
                    eprintln!(
                        "campaign store: skipping unparseable line in {}",
                        Self::shard_file(&store.dir, shard).display()
                    );
                }
            })?;
        }
        Self::write_manifest(root, campaign_name, manifest)?;
        Ok(store)
    }

    /// Writes `manifest.json` (format version, campaign name, `manifest`
    /// as the spec echo) into the store directory for `campaign_name`
    /// under `root`, creating it if needed. [`Store::open`] does this
    /// itself; a process that only [`Store::attach`]es calls it to leave
    /// the same directory behind.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_manifest(
        root: &Path,
        campaign_name: &str,
        manifest: &Value,
    ) -> std::io::Result<()> {
        let dir = root.join(campaign_name);
        std::fs::create_dir_all(&dir)?;
        let doc = Manifest {
            format_version: FORMAT_VERSION,
            campaign: campaign_name.into(),
            spec: manifest.clone(),
        };
        // Written via a pid-unique temp file + rename: concurrent worker
        // processes open the same store, and interleaved direct writes
        // could tear the manifest.
        let tmp = dir.join(format!("manifest.json.tmp-{}", std::process::id()));
        let json = serde_json::to_string(&doc).expect("manifests serialize");
        std::fs::write(&tmp, format!("{json}\n"))?;
        std::fs::rename(&tmp, dir.join("manifest.json"))
    }

    /// Attaches to (creating if needed) the store directory for
    /// `campaign_name` under `root` WITHOUT loading records or rewriting
    /// the manifest — the append-only path for workers and the campaign
    /// server, which learn shard contents by reading the shards
    /// themselves instead of a full load.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn attach(root: &Path, campaign_name: &str) -> std::io::Result<Self> {
        let dir = root.join(campaign_name);
        std::fs::create_dir_all(dir.join("shards"))?;
        Ok(Store {
            dir,
            records: HashMap::new(),
            writers: (0..SHARDS).map(|_| Mutex::new(None)).collect(),
            loaded: 0,
        })
    }

    /// Decodes one shard line into `(fingerprint, record)`; `None` for a
    /// torn or otherwise unparseable line. The single decoder behind
    /// [`Store::open`], [`Store::read_all`],
    /// [`Store::read_shard_fingerprints`], [`Store::compact`] and the
    /// campaign server's append endpoint, so the readers cannot drift
    /// apart.
    pub fn decode_line(line: &str) -> Option<(Fingerprint, Record)> {
        serde_json::from_str::<Record>(line)
            .ok()
            .and_then(|r| Fingerprint::parse(&r.fp).map(|fp| (fp, r)))
    }

    /// Encodes one record as its shard line (no trailing newline) — the
    /// exact bytes [`Store::append`] writes.
    pub fn encode_line(record: &Record) -> String {
        serde_json::to_string(record).expect("records serialize")
    }

    /// Feeds every non-blank line of one shard of the campaign at
    /// `campaign_dir` to `visit`, decoded (`None` for a torn or otherwise
    /// unparseable line). A shard never written has no lines.
    fn for_each_line(
        campaign_dir: &Path,
        shard: usize,
        mut visit: impl FnMut(Option<(Fingerprint, Record)>),
    ) -> std::io::Result<()> {
        let file = match File::open(Self::shard_file(campaign_dir, shard)) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        for line in BufReader::new(file).lines() {
            let line = line?;
            if !line.trim().is_empty() {
                visit(Self::decode_line(&line));
            }
        }
        Ok(())
    }

    /// The shard file path for `shard` of the campaign at `campaign_dir`.
    pub fn shard_file(campaign_dir: &Path, shard: usize) -> PathBuf {
        campaign_dir
            .join("shards")
            .join(format!("shard-{shard:02}.jsonl"))
    }

    fn shard_path(&self, shard: usize) -> PathBuf {
        Self::shard_file(&self.dir, shard)
    }

    /// Which shard `fp` routes to.
    pub fn shard_of(fp: Fingerprint) -> usize {
        (fp.0 % SHARDS as u128) as usize
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of records loaded from disk at open.
    pub fn loaded(&self) -> usize {
        self.loaded
    }

    /// Looks up a cached record.
    pub(crate) fn get(&self, fp: Fingerprint) -> Option<&Record> {
        self.records.get(&fp.0)
    }

    /// Whether `fp` is cached.
    pub(crate) fn contains(&self, fp: Fingerprint) -> bool {
        self.records.contains_key(&fp.0)
    }

    /// Appends `record` to its shard and flushes immediately. Safe to call
    /// from executor worker threads (`&self`); the in-memory map is updated
    /// separately by `Store::absorb` on the coordinating thread.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn append(&self, fp: Fingerprint, record: &Record) -> std::io::Result<()> {
        let shard = Self::shard_of(fp);
        let mut guard = self.writers[shard].lock().expect("shard writer lock");
        if guard.is_none() {
            let path = self.shard_path(shard);
            // A writer killed mid-append can leave a partial line with no
            // trailing newline; appending straight after it would splice
            // the next record into the torn bytes and lose BOTH. Heal the
            // tail once, when this process first opens the shard.
            let torn_tail = match std::fs::File::open(&path) {
                Ok(mut f) => {
                    use std::io::{Read, Seek, SeekFrom};
                    if f.seek(SeekFrom::End(0))? == 0 {
                        false
                    } else {
                        f.seek(SeekFrom::End(-1))?;
                        let mut last = [0u8; 1];
                        f.read_exact(&mut last)?;
                        last[0] != b'\n'
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => false,
                Err(e) => return Err(e),
            };
            let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
            if torn_tail {
                file.write_all(b"\n")?;
            }
            *guard = Some(file);
        }
        let file = guard.as_mut().expect("just opened");
        let line = format!("{}\n", Self::encode_line(record));
        file.write_all(line.as_bytes())?;
        file.flush()
    }

    /// Inserts a freshly computed record into the in-memory map (first
    /// record per fingerprint wins, matching load semantics).
    pub(crate) fn absorb(&mut self, fp: Fingerprint, record: Record) {
        self.records.entry(fp.0).or_insert(record);
    }

    /// Total records known (disk + absorbed).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates the fingerprints of every known record.
    pub fn fingerprints(&self) -> impl Iterator<Item = Fingerprint> + '_ {
        self.records.keys().map(|&fp| Fingerprint(fp))
    }

    /// Reads every record currently on disk for the campaign at
    /// `campaign_dir`, first record per fingerprint winning — the
    /// snapshot [`crate::backend::StoreBackend`]s assemble grids from.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; unparseable lines are skipped.
    pub fn read_all(campaign_dir: &Path) -> std::io::Result<HashMap<u128, Record>> {
        let mut records = HashMap::new();
        for shard in 0..SHARDS {
            Self::for_each_line(campaign_dir, shard, |decoded| {
                if let Some((fp, record)) = decoded {
                    records.entry(fp.0).or_insert(record);
                }
            })?;
        }
        Ok(records)
    }

    /// The current byte size of one shard file (0 if never written).
    /// Shards are append-only, so an unchanged size means unchanged
    /// contents — workers use this to skip re-parsing shards between
    /// rescan rounds.
    pub fn shard_size(&self, shard: usize) -> u64 {
        std::fs::metadata(self.shard_path(shard))
            .map(|m| m.len())
            .unwrap_or(0)
    }

    /// Reads one shard file of the campaign at `campaign_dir`, returning
    /// the fingerprints present right now. Distributed workers call this
    /// after acquiring a shard lease: their view may predate records
    /// another worker appended, and only still-missing cells should re-run.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; unparseable lines are ignored.
    pub fn read_shard_fingerprints(
        campaign_dir: &Path,
        shard: usize,
    ) -> std::io::Result<HashSet<u128>> {
        let mut out = HashSet::new();
        Self::for_each_line(campaign_dir, shard, |decoded| {
            if let Some((fp, _)) = decoded {
                out.insert(fp.0);
            }
        })?;
        Ok(out)
    }

    /// Reads the shard's bytes from `offset` to the end of the **last
    /// complete line** — the read-side twin of [`Store::append`]'s torn-
    /// tail healing. A writer killed mid-append (or caught mid-write by
    /// this read) leaves a partial line with no trailing newline; a
    /// reader consuming raw tails would observe the torn JSON. Clamping
    /// at the final newline guarantees every returned chunk is whole
    /// lines, and the skipped bytes are re-served once the line completes
    /// (appends are flushed newline-terminated) or is healed.
    ///
    /// `reset` is true when `offset` lies beyond the current file end
    /// (the shard was compacted since the reader's last poll): the tail
    /// is then served from offset 0 and the reader should replace, not
    /// extend, its view.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; a missing shard file is an empty
    /// tail at offset 0.
    pub fn read_tail(campaign_dir: &Path, shard: usize, offset: u64) -> std::io::Result<ShardTail> {
        use std::io::{Read, Seek, SeekFrom};
        let path = Self::shard_file(campaign_dir, shard);
        let mut file = match File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(ShardTail {
                    bytes: Vec::new(),
                    next_offset: 0,
                    reset: offset > 0,
                })
            }
            Err(e) => return Err(e),
        };
        let len = file.seek(SeekFrom::End(0))?;
        let (start, reset) = if offset > len {
            (0, true)
        } else {
            (offset, false)
        };
        file.seek(SeekFrom::Start(start))?;
        let mut bytes = Vec::with_capacity(usize::try_from(len - start).unwrap_or(0));
        file.read_to_end(&mut bytes)?;
        // Clamp to the last complete line; a torn tail is withheld until
        // its newline lands (or healing terminates it).
        let complete = bytes
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |pos| pos + 1);
        bytes.truncate(complete);
        Ok(ShardTail {
            next_offset: start + complete as u64,
            bytes,
            reset,
        })
    }

    /// Rewrites every shard of the campaign at `root`/`campaign_name`,
    /// keeping only the first record of each fingerprint in `keep` and
    /// dropping orphans (fingerprints no longer reachable from any known
    /// spec), duplicate appends, and torn lines. Each shard is rewritten
    /// through a temp file + rename, so a crash mid-compaction leaves
    /// either the old or the new shard, never a mix; a shard left with no
    /// records is deleted.
    ///
    /// Callers must hold every shard lease for the duration (appends only
    /// happen under a lease): compaction rewrites files workers append to,
    /// and a record appended between the read and the rename would be
    /// silently dropped. The `experiments compact` subcommand does this.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn compact(
        root: &Path,
        campaign_name: &str,
        keep: &std::collections::HashSet<u128>,
    ) -> std::io::Result<CompactionStats> {
        let campaign_dir = root.join(campaign_name);
        let mut stats = CompactionStats::default();
        for shard in 0..SHARDS {
            let path = Self::shard_file(&campaign_dir, shard);
            let text = match std::fs::read_to_string(&path) {
                Ok(text) => text,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                // Permission or corruption errors must fail the pass, not
                // silently leave one shard uncompacted under a success
                // report.
                Err(e) => return Err(e),
            };
            stats.bytes_before += text.len() as u64;
            let mut kept_fps = std::collections::HashSet::new();
            let mut out = String::new();
            for line in text.lines() {
                if line.trim().is_empty() {
                    continue;
                }
                match Self::decode_line(line).map(|(fp, _)| fp.0) {
                    Some(fp) if !keep.contains(&fp) => stats.dropped_orphans += 1,
                    Some(fp) if !kept_fps.insert(fp) => stats.dropped_duplicates += 1,
                    Some(_) => {
                        out.push_str(line);
                        out.push('\n');
                        stats.kept += 1;
                    }
                    None => stats.dropped_torn += 1,
                }
            }
            if out.is_empty() {
                std::fs::remove_file(&path)?;
            } else {
                stats.bytes_after += out.len() as u64;
                let tmp = path.with_extension(format!("jsonl.tmp-{}", std::process::id()));
                std::fs::write(&tmp, out)?;
                std::fs::rename(&tmp, &path)?;
            }
        }
        Ok(stats)
    }
}

/// One line-aligned incremental read of a shard file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardTail {
    /// Whole-line bytes from the requested offset (possibly empty).
    pub bytes: Vec<u8>,
    /// Offset to request next: requested offset + `bytes.len()`, or the
    /// served length from 0 after a `reset`.
    pub next_offset: u64,
    /// The requested offset was past the end of the file (compacted
    /// shard): `bytes` restarts from offset 0 and replaces the reader's
    /// accumulated view of raw bytes (accumulated *records* stay valid —
    /// compaction only drops orphans, duplicates and torn lines).
    pub reset: bool,
}

/// In-memory view of one shard, grown from successive [`ShardTail`]s —
/// read from the file by the campaign server, over HTTP by its clients.
#[derive(Debug, Default)]
pub struct ShardView {
    /// How far the shard has been decoded: where the next tail read resumes.
    pub offset: u64,
    /// Every record decoded so far; the first per fingerprint wins,
    /// matching [`Store`] load semantics.
    records: HashMap<u128, Record>,
    /// The key set of `records`, kept so a caller asking which cells a
    /// shard holds gets a copy instead of a rehash of every key. The
    /// default keyed hasher stays: fingerprints arrive from clients.
    fingerprints: HashSet<u128>,
}

impl ShardView {
    /// Every record decoded so far, by fingerprint.
    pub fn records(&self) -> &HashMap<u128, Record> {
        &self.records
    }

    /// The fingerprints of [`ShardView::records`].
    pub fn fingerprints(&self) -> &HashSet<u128> {
        &self.fingerprints
    }

    /// Adds one record unless its fingerprint is already present: the
    /// first record wins, as at [`Store`] load.
    pub fn insert(&mut self, fp: Fingerprint, record: Record) {
        if self.fingerprints.insert(fp.0) {
            self.records.insert(fp.0, record);
        }
    }

    /// Folds one tail read into the view. A `reset` tail (the shard shrank
    /// under the reader's offset: compaction) restarted from byte 0, so
    /// the view restarts with it.
    pub fn apply(&mut self, tail_bytes: &[u8], next_offset: u64, reset: bool) {
        if reset {
            self.records.clear();
            self.fingerprints.clear();
        }
        for line in String::from_utf8_lossy(tail_bytes).lines() {
            if let Some((fp, record)) = Store::decode_line(line) {
                self.insert(fp, record);
            }
        }
        self.offset = next_offset;
    }
}

/// Outcome of one [`Store::compact`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CompactionStats {
    /// Records surviving compaction.
    pub kept: usize,
    /// Records dropped because their fingerprint is not reachable.
    pub dropped_orphans: usize,
    /// Torn/unparseable lines dropped.
    pub dropped_torn: usize,
    /// Duplicate appends of a kept fingerprint dropped.
    pub dropped_duplicates: usize,
    /// Shard bytes before compaction.
    pub bytes_before: u64,
    /// Shard bytes after compaction.
    pub bytes_after: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("dsarp-campaign-store-tests")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_summary() -> RunSummary {
        RunSummary {
            ipc: vec![0.5, 1.25],
            energy_per_access_nj: 17.375,
            total_ipc: 1.75,
        }
    }

    #[test]
    fn append_reopen_roundtrip() {
        let root = tmpdir("roundtrip");
        let manifest = Value::Null;
        let mut store = Store::open(&root, "c", &manifest).unwrap();
        assert!(store.is_empty());

        let fp_a = Fingerprint(1);
        let fp_g = Fingerprint(2);
        let a = Record::alone(fp_a, "alone/x".into(), 1.5);
        let g = Record::grid(fp_g, "w0/DSARP".into(), sample_summary());
        store.append(fp_a, &a).unwrap();
        store.append(fp_g, &g).unwrap();
        store.absorb(fp_a, a.clone());
        store.absorb(fp_g, g.clone());
        assert_eq!(store.len(), 2);

        let reopened = Store::open(&root, "c", &manifest).unwrap();
        assert_eq!(reopened.loaded(), 2);
        assert_eq!(reopened.get(fp_a), Some(&a));
        assert_eq!(reopened.get(fp_g), Some(&g));
        assert!(reopened.get(Fingerprint(3)).is_none());
        assert!(root.join("c").join("manifest.json").exists());
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn torn_final_line_is_skipped() {
        let root = tmpdir("torn");
        let manifest = Value::Null;
        let store = Store::open(&root, "c", &manifest).unwrap();
        let fp = Fingerprint(7);
        store
            .append(fp, &Record::alone(fp, "ok".into(), 2.0))
            .unwrap();
        // Simulate a kill mid-append: a truncated record on the same shard.
        let shard = root
            .join("c/shards")
            .join(format!("shard-{:02}.jsonl", Store::shard_of(fp)));
        let mut f = OpenOptions::new().append(true).open(shard).unwrap();
        write!(f, "{{\"fp\":\"dead").unwrap();
        drop(f);

        let reopened = Store::open(&root, "c", &manifest).unwrap();
        assert_eq!(reopened.loaded(), 1);
        assert!(reopened.contains(fp));
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn append_after_torn_tail_preserves_the_new_record() {
        let root = tmpdir("torn-tail-append");
        let store = Store::open(&root, "c", &Value::Null).unwrap();
        let fp_a = Fingerprint(8); // shard 0
        store
            .append(fp_a, &Record::alone(fp_a, "a".into(), 1.0))
            .unwrap();
        // Kill mid-append: partial line, no trailing newline.
        let shard = root.join("c/shards/shard-00.jsonl");
        let mut f = OpenOptions::new().append(true).open(&shard).unwrap();
        write!(f, "{{\"fp\":\"dead").unwrap();
        drop(f);

        // A fresh process (reclaim or resume) appends the re-run result.
        let store = Store::open(&root, "c", &Value::Null).unwrap();
        let fp_b = Fingerprint(16); // same shard
        let b = Record::alone(fp_b, "b".into(), 2.0);
        store.append(fp_b, &b).unwrap();

        // The new record must NOT be spliced into the torn bytes.
        let reopened = Store::open(&root, "c", &Value::Null).unwrap();
        assert_eq!(reopened.loaded(), 2);
        assert_eq!(reopened.get(fp_b), Some(&b));
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn compact_drops_orphans_torn_lines_and_duplicates() {
        let root = tmpdir("compact");
        let store = Store::open(&root, "c", &Value::Null).unwrap();
        let keep_fp = Fingerprint(8); // shard 0
        let orphan_fp = Fingerprint(16); // same shard
        let kept = Record::alone(keep_fp, "keep".into(), 1.0);
        store.append(keep_fp, &kept).unwrap();
        store.append(keep_fp, &kept).unwrap(); // duplicate append
        store
            .append(orphan_fp, &Record::alone(orphan_fp, "orphan".into(), 2.0))
            .unwrap();
        let shard = root.join("c/shards/shard-00.jsonl");
        let mut f = OpenOptions::new().append(true).open(&shard).unwrap();
        write!(f, "{{\"fp\":\"torn").unwrap();
        drop(f);

        let keep: std::collections::HashSet<u128> = [keep_fp.0].into_iter().collect();
        let stats = Store::compact(&root, "c", &keep).unwrap();
        assert_eq!(stats.kept, 1);
        assert_eq!(stats.dropped_orphans, 1);
        assert_eq!(stats.dropped_duplicates, 1);
        assert_eq!(stats.dropped_torn, 1);
        assert!(stats.bytes_after < stats.bytes_before);

        let reopened = Store::open(&root, "c", &Value::Null).unwrap();
        assert_eq!(reopened.loaded(), 1);
        assert_eq!(reopened.get(keep_fp), Some(&kept));
        assert!(!reopened.contains(orphan_fp));

        // Compacting everything away deletes the shard file.
        let stats = Store::compact(&root, "c", &std::collections::HashSet::new()).unwrap();
        assert_eq!(stats.kept, 0);
        assert!(!shard.exists());
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn read_tail_is_incremental_line_aligned_and_withholds_torn_bytes() {
        let root = tmpdir("tail");
        let store = Store::open(&root, "c", &Value::Null).unwrap();
        let dir = root.join("c");
        let fp_a = Fingerprint(8); // shard 0
        let a = Record::alone(fp_a, "a".into(), 1.0);
        store.append(fp_a, &a).unwrap();

        let first = Store::read_tail(&dir, 0, 0).unwrap();
        assert!(!first.reset);
        assert!(first.bytes.ends_with(b"\n"));
        assert_eq!(first.next_offset, first.bytes.len() as u64);
        let (fp, rec) = Store::decode_line(std::str::from_utf8(&first.bytes).unwrap().trim_end())
            .expect("served line parses");
        assert_eq!((fp, &rec), (fp_a, &a));

        // Nothing new: empty tail, same offset.
        let again = Store::read_tail(&dir, 0, first.next_offset).unwrap();
        assert!(again.bytes.is_empty());
        assert_eq!(again.next_offset, first.next_offset);

        // A torn append lands: the fragment must be withheld.
        let shard = dir.join("shards/shard-00.jsonl");
        let mut f = OpenOptions::new().append(true).open(&shard).unwrap();
        write!(f, "{{\"fp\":\"torn").unwrap();
        drop(f);
        let torn = Store::read_tail(&dir, 0, first.next_offset).unwrap();
        assert!(torn.bytes.is_empty(), "torn fragment must be withheld");
        assert_eq!(torn.next_offset, first.next_offset);

        // Healing (next append) completes the fragment into a skippable
        // line plus the new record; both are now served whole.
        let fp_b = Fingerprint(16); // same shard
        let b = Record::alone(fp_b, "b".into(), 2.0);
        let store = Store::open(&root, "c", &Value::Null).unwrap();
        store.append(fp_b, &b).unwrap();
        let healed = Store::read_tail(&dir, 0, first.next_offset).unwrap();
        assert!(healed.bytes.ends_with(b"\n"));
        let lines: Vec<&str> = std::str::from_utf8(&healed.bytes)
            .unwrap()
            .lines()
            .collect();
        assert_eq!(lines.len(), 2, "torn-then-healed line + the new record");
        assert!(Store::decode_line(lines[0]).is_none());
        assert_eq!(Store::decode_line(lines[1]), Some((fp_b, b)));

        // Offset past EOF (compaction shrank the file): reset from 0.
        let reset = Store::read_tail(&dir, 0, 1 << 30).unwrap();
        assert!(reset.reset);
        assert_eq!(reset.next_offset, healed.next_offset);

        // A view folded over the same tails skips the torn line, and a
        // reset tail restarts it (dropping what only the old bytes held).
        let mut view = ShardView::default();
        view.apply(&first.bytes, first.next_offset, first.reset);
        view.apply(&healed.bytes, healed.next_offset, healed.reset);
        assert_eq!((view.offset, view.records.len()), (healed.next_offset, 2));
        view.insert(Fingerprint(99), a.clone());
        view.apply(&reset.bytes, reset.next_offset, reset.reset);
        assert_eq!(view.records.get(&fp_a.0), Some(&a));
        assert_eq!((view.offset, view.records.len()), (healed.next_offset, 2));
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn mutated_and_torn_lines_never_panic_the_decoder() {
        let fp = Fingerprint(0x0123_4567_89ab_cdef_0123_4567_89ab_cdef);
        let line = Store::encode_line(&Record::grid(fp, "w0/DSARP@32Gb".into(), sample_summary()));
        assert!(Store::decode_line(&line).is_some());
        let bytes = line.as_bytes();
        for at in 0..bytes.len() {
            let _ = Store::decode_line(&line[..at]);
            for b in 0..=u8::MAX {
                let mut mutated = bytes.to_vec();
                mutated[at] = b;
                let text = String::from_utf8_lossy(&mutated);
                let _ = serde_json::parse_value(&text);
                let _ = Store::decode_line(&text);
            }
        }
    }

    #[test]
    fn a_megabyte_label_decodes_in_linear_time() {
        let fp = Fingerprint(9);
        let record = Record::alone(fp, "λ".repeat(1 << 19), 1.5);
        let line = Store::encode_line(&record);
        let start = std::time::Instant::now();
        assert_eq!(Store::decode_line(&line), Some((fp, record)));
        let took = start.elapsed();
        assert!(took < std::time::Duration::from_secs(2), "took {took:?}");
    }

    proptest! {
        #[test]
        fn arbitrary_bytes_never_panic_the_decoder(
            bytes in prop::collection::vec(any::<u8>(), 0..96),
        ) {
            let _ = Store::decode_line(&String::from_utf8_lossy(&bytes));
        }

        /// Tails (resets and torn lines included) and direct inserts over
        /// a few colliding fingerprints: `fingerprints` stays the key set
        /// of `records`, and every fingerprint keeps its first record.
        #[test]
        fn shard_view_fingerprints_track_records(
            ops in prop::collection::vec((0u8..3, prop::collection::vec(0u8..12, 0..5)), 1..24),
        ) {
            let mut view = ShardView::default();
            let mut model: HashMap<u128, Record> = HashMap::new();
            for (step, (op, fps)) in ops.into_iter().enumerate() {
                let records = fps.iter().map(|&fp| {
                    let fp = Fingerprint(u128::from(fp));
                    (fp, Record::alone(fp, format!("step{step}"), 1.0))
                });
                if op == 2 {
                    for (fp, record) in records {
                        model.entry(fp.0).or_insert_with(|| record.clone());
                        view.insert(fp, record);
                    }
                } else {
                    let reset = op == 1;
                    if reset {
                        model.clear();
                    }
                    let mut tail = String::new();
                    for (fp, record) in records {
                        tail.push_str(&Store::encode_line(&record));
                        tail.push_str("\n{\"fp\":\"torn\n");
                        model.entry(fp.0).or_insert(record);
                    }
                    view.apply(tail.as_bytes(), step as u64, reset);
                }
                let keys: HashSet<u128> = view.records.keys().copied().collect();
                prop_assert_eq!(&view.fingerprints, &keys);
                prop_assert_eq!(&view.records, &model);
            }
        }
    }

    #[test]
    fn records_spread_across_shards() {
        let root = tmpdir("spread");
        let store = Store::open(&root, "c", &Value::Null).unwrap();
        for i in 0..64u128 {
            let fp = Fingerprint(i * 0x9E37_79B9_7F4A_7C15);
            store
                .append(fp, &Record::alone(fp, format!("r{i}"), i as f64))
                .unwrap();
        }
        let shard_files = std::fs::read_dir(root.join("c/shards"))
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "jsonl"))
            .count();
        assert!(
            shard_files > 1,
            "records must shard across files, got {shard_files}"
        );
        let reopened = Store::open(&root, "c", &Value::Null).unwrap();
        assert_eq!(reopened.loaded(), 64);
        let _ = std::fs::remove_dir_all(root);
    }
}
