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
//! written. Every reader turns shards into records through one
//! [`ShardViews`], folding in the whole lines past what it has read
//! ([`Store::read_tail`]). A torn final line (a crash mid-append) is held
//! back until its newline lands; the next append terminates it into an
//! undecodable line, skipped with a warning at open, and its job re-runs.
//! Duplicate fingerprints keep the first record, so re-appends are harmless.
//!
//! Nothing rewrites or removes a shard file: compaction copies the live
//! records into a new store ([`Store::compact_to`]), so a shard only grows.

use crate::fingerprint::Fingerprint;
use crate::job::RunSummary;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

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
struct Manifest<'a, S> {
    format_version: u32,
    campaign: &'a str,
    spec: &'a S,
}

/// The bytes of `manifest.json` for `campaign_name`, echoing `manifest`.
fn manifest_text<S: Serialize>(campaign_name: &str, manifest: &S) -> String {
    let doc = Manifest {
        format_version: FORMAT_VERSION,
        campaign: campaign_name,
        spec: manifest,
    };
    let mut text = serde_json::to_string(&doc).expect("manifests serialize");
    text.push('\n');
    text
}

/// An open campaign store.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    /// Per-shard append handles, lazily opened; mutexed so executor
    /// worker threads can flush completed jobs concurrently.
    writers: Vec<Mutex<Option<File>>>,
    /// What this process has read of every shard.
    views: ShardViews,
}

impl Store {
    /// Opens (creating if needed) the store for `campaign_name` under
    /// `root`, reading every existing record.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors. Unparseable shard *lines* are skipped,
    /// not errors: they re-run.
    pub fn open(root: &Path, campaign_name: &str, manifest: &Value) -> std::io::Result<Self> {
        Self::open_with(root, campaign_name, manifest)
    }

    /// [`Store::open`], the spec echo rendered from any `manifest`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub(crate) fn open_with<S: Serialize>(
        root: &Path,
        campaign_name: &str,
        manifest: &S,
    ) -> std::io::Result<Self> {
        let store = Self::attach(root, campaign_name)?;
        for (shard, view) in store.refresh_all()?.iter().enumerate() {
            if view.skipped > 0 {
                eprintln!(
                    "campaign store: skipping {} unparseable line(s) in {}",
                    view.skipped,
                    Self::shard_file(&store.dir, shard).display()
                );
            }
        }
        Self::write_manifest(root, campaign_name, manifest)?;
        Ok(store)
    }

    /// Writes `manifest.json` (format version, campaign name, `manifest`
    /// as the spec echo) into the store directory for `campaign_name`
    /// under `root`, creating it if needed; a manifest already holding
    /// those bytes is left untouched. [`Store::open`] does this
    /// itself; a process that only [`Store::attach`]es calls it to leave
    /// the same directory behind.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_manifest<S: Serialize>(
        root: &Path,
        campaign_name: &str,
        manifest: &S,
    ) -> std::io::Result<()> {
        let dir = root.join(campaign_name);
        std::fs::create_dir_all(&dir)?;
        let path = dir.join("manifest.json");
        let text = manifest_text(campaign_name, manifest);
        // Every open of an unchanged spec lands here: leave those bytes be.
        if std::fs::read(&path).is_ok_and(|old| old == text.as_bytes()) {
            return Ok(());
        }
        // Written via a pid-unique temp file + rename: concurrent worker
        // processes open the same store, and interleaved direct writes
        // could tear the manifest.
        let tmp = dir.join(format!("manifest.json.tmp-{}", std::process::id()));
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, path)
    }

    /// Attaches to (creating if needed) the store directory for
    /// `campaign_name` under `root` WITHOUT reading records or rewriting
    /// the manifest — the append-only path for workers and the campaign
    /// server, whose views read each shard when it is first asked for.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn attach(root: &Path, campaign_name: &str) -> std::io::Result<Self> {
        let dir = root.join(campaign_name);
        std::fs::create_dir_all(dir.join("shards"))?;
        Ok(Store {
            dir,
            writers: (0..SHARDS).map(|_| Mutex::new(None)).collect(),
            views: ShardViews::default(),
        })
    }

    /// Decodes one shard line into `(fingerprint, record)`; `None` for a
    /// torn or otherwise unparseable line. The single decoder behind
    /// [`ShardViews`], [`Store::compact_to`] and the campaign server's append
    /// endpoint, so the readers cannot drift apart.
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

    /// The shard file path for `shard` of the campaign at `campaign_dir`.
    pub fn shard_file(campaign_dir: &Path, shard: usize) -> PathBuf {
        campaign_dir
            .join("shards")
            .join(format!("shard-{shard:02}.jsonl"))
    }

    /// Which shard `fp` routes to.
    pub fn shard_of(fp: Fingerprint) -> usize {
        (fp.0 % SHARDS as u128) as usize
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Distinct records this store's views hold: right after
    /// [`Store::open`], every record on disk.
    pub fn loaded(&self) -> usize {
        (0..SHARDS).map(|s| self.views.lock(s).records.len()).sum()
    }

    /// This store's per-shard views.
    pub(crate) fn views(&self) -> &ShardViews {
        &self.views
    }

    /// Brings one shard's view up to date with its file, returned locked.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors, and [`Store::read_tail`]'s refusal of
    /// a shard shorter than the view has read.
    pub fn refresh(&self, shard: usize) -> std::io::Result<MutexGuard<'_, ShardView>> {
        self.views.refresh(shard, self.dir.as_path())
    }

    /// Locks one shard's append handle. A panic while it was held leaves
    /// at worst an open handle or a written line: both are what the next
    /// append expects.
    fn writer(&self, shard: usize) -> MutexGuard<'_, Option<File>> {
        self.writers[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// [`Store::refresh`] for every shard, locked in shard order.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn refresh_all(&self) -> std::io::Result<Vec<MutexGuard<'_, ShardView>>> {
        (0..SHARDS).map(|shard| self.refresh(shard)).collect()
    }

    /// Appends `record` to its shard and flushes immediately. Safe to call
    /// from executor worker threads (`&self`). The store's view of the
    /// shard reads the line at its next refresh.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn append(&self, fp: Fingerprint, record: &Record) -> std::io::Result<()> {
        self.append_locked(fp, record, None)
    }

    /// [`Store::append`], and the record joins `view` if given: this
    /// store's view of `fp`'s shard, held from [`Store::refresh`]. The
    /// view's offset moves past the line only if the write began there, as
    /// read from the write's own end position: a later `stat` could count
    /// a foreign append as read. Otherwise the next refresh reads the gap.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; on error, `view` is unchanged.
    pub fn append_locked(
        &self,
        fp: Fingerprint,
        record: &Record,
        view: Option<&mut ShardView>,
    ) -> std::io::Result<()> {
        let shard = Self::shard_of(fp);
        let mut guard = self.writer(shard);
        if guard.is_none() {
            use std::io::{Read, SeekFrom};
            let mut file = OpenOptions::new()
                .create(true)
                .read(true)
                .append(true)
                .open(Self::shard_file(&self.dir, shard))?;
            // A writer killed mid-append can leave a partial line with no
            // trailing newline; appending straight after it would splice
            // the next record into the torn bytes and lose BOTH. Heal the
            // tail once, when this process first opens the shard.
            let mut last = [b'\n'];
            if file.seek(SeekFrom::End(0))? > 0 {
                file.seek(SeekFrom::End(-1))?;
                file.read_exact(&mut last)?;
            }
            if last[0] != b'\n' {
                file.write_all(b"\n")?;
            }
            *guard = Some(file);
        }
        let file = guard.as_mut().expect("just opened");
        let mut line = Self::encode_line(record);
        line.push('\n');
        file.write_all(line.as_bytes())?;
        file.flush()?;
        if let Some(view) = view {
            // In append mode the handle's position is the end of this write.
            let end = file.stream_position()?;
            view.insert(fp, record.clone());
            if end - line.len() as u64 == view.offset {
                view.offset = end;
            }
        }
        Ok(())
    }

    /// Reads every record currently on disk for the campaign at
    /// `campaign_dir`, first record per fingerprint winning, through a
    /// fresh [`ShardViews`]. Creates and writes nothing.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; unparseable lines are skipped.
    pub fn read_all(campaign_dir: &Path) -> std::io::Result<HashMap<u128, Record>> {
        let (views, mut all) = (ShardViews::default(), HashMap::new());
        for shard in 0..SHARDS {
            // The views end here: move each shard's records, do not copy.
            all.extend(std::mem::take(
                &mut views.refresh(shard, campaign_dir)?.records,
            ));
        }
        Ok(all)
    }

    /// The current byte size of one shard file (0 if never written). A
    /// shard only grows (healing a torn tail appends a newline), so
    /// workers use this to skip re-reading shards between rescan rounds.
    pub fn shard_size(&self, shard: usize) -> u64 {
        std::fs::metadata(Self::shard_file(&self.dir, shard)).map_or(0, |m| m.len())
    }

    /// Reads the shard's bytes from `offset` to the end of the **last
    /// complete line** — the read-side twin of [`Store::append`]'s torn-
    /// tail healing. A writer killed mid-append (or caught mid-write by
    /// this read) leaves a partial line with no trailing newline; clamping
    /// at the final newline withholds it until the line completes or is
    /// healed, so every returned chunk is whole lines. A shard with nothing
    /// past `offset` costs one `stat` and is not opened.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; a missing shard file is empty. A
    /// shard shorter than `offset` is `InvalidData`: shards only grow, so
    /// the store directory was replaced under the reader.
    pub fn read_tail(campaign_dir: &Path, shard: usize, offset: u64) -> std::io::Result<ShardTail> {
        use std::io::{ErrorKind::NotFound, Read, SeekFrom};
        let path = Self::shard_file(campaign_dir, shard);
        let len = match std::fs::metadata(&path) {
            Ok(meta) => meta.len(),
            Err(e) if e.kind() == NotFound => 0,
            Err(e) => return Err(e),
        };
        let Some(unread) = len.checked_sub(offset) else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "shard {shard:02} of {} holds {len} bytes, not the {offset} already read: \
                     store replaced under a running reader",
                    campaign_dir.display()
                ),
            ));
        };
        let mut bytes = Vec::with_capacity(usize::try_from(unread).unwrap_or(0));
        if unread > 0 {
            let mut file = File::open(&path)?;
            file.seek(SeekFrom::Start(offset))?;
            file.read_to_end(&mut bytes)?;
        }
        // Clamp to the last complete line; a torn tail is withheld until
        // its newline lands (or healing terminates it).
        let complete = bytes
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |pos| pos + 1);
        bytes.truncate(complete);
        Ok(ShardTail {
            next_offset: offset + complete as u64,
            bytes,
        })
    }

    /// Writes a compacted copy of the campaign at `root`/`campaign_name`
    /// as a new store under `target_root`: every complete shard line
    /// ([`Store::read_tail`] from offset 0), keeping byte for byte the
    /// first record of each fingerprint in `keep` and dropping orphans
    /// (fingerprints no longer reachable from the spec), duplicate appends
    /// and undecodable lines. A line still being appended is not read, so
    /// it is not copied. The source is only read: workers and servers may
    /// keep appending to it meanwhile.
    ///
    /// `manifest.json` (echoing `manifest`) and the shards are written into
    /// `target_root/<campaign_name>.tmp-<pid>`, which is then renamed to
    /// `target_root/<campaign_name>`: the target either does not exist or
    /// is complete.
    ///
    /// # Errors
    ///
    /// `AlreadyExists` when the target or the temporary directory does;
    /// filesystem errors otherwise (the temporary directory is then
    /// removed).
    pub fn compact_to<S: Serialize>(
        root: &Path,
        campaign_name: &str,
        keep: &HashSet<u128>,
        target_root: &Path,
        manifest: &S,
    ) -> std::io::Result<CompactionStats> {
        let target = target_root.join(campaign_name);
        if target.exists() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                format!("{} already exists", target.display()),
            ));
        }
        let tmp = target_root.join(format!("{campaign_name}.tmp-{}", std::process::id()));
        std::fs::create_dir_all(target_root)?;
        std::fs::create_dir(&tmp)?;
        let source = root.join(campaign_name);
        let copy = || -> std::io::Result<CompactionStats> {
            std::fs::create_dir(tmp.join("shards"))?;
            let manifest = manifest_text(campaign_name, manifest);
            std::fs::write(tmp.join("manifest.json"), manifest)?;
            let (mut stats, mut kept) = (CompactionStats::default(), HashSet::new());
            for shard in 0..SHARDS {
                let tail = Self::read_tail(&source, shard, 0)?;
                stats.bytes_before += tail.bytes.len() as u64;
                let mut out = Vec::new();
                for line in tail.bytes.split_inclusive(|&b| b == b'\n') {
                    let text = String::from_utf8_lossy(line);
                    match Self::decode_line(text.trim_end()).map(|(fp, _)| fp.0) {
                        Some(fp) if !keep.contains(&fp) => stats.dropped_orphans += 1,
                        Some(fp) if !kept.insert(fp) => stats.dropped_duplicates += 1,
                        Some(_) => {
                            out.extend_from_slice(line);
                            stats.kept += 1;
                        }
                        None if text.trim().is_empty() => {}
                        None => stats.dropped_torn += 1,
                    }
                }
                if !out.is_empty() {
                    stats.bytes_after += out.len() as u64;
                    std::fs::write(Self::shard_file(&tmp, shard), out)?;
                }
            }
            Ok(stats)
        };
        let written = copy().and_then(|stats| std::fs::rename(&tmp, &target).map(|()| stats));
        if written.is_err() {
            let _ = std::fs::remove_dir_all(&tmp);
        }
        written
    }
}

/// One line-aligned incremental read of a shard file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardTail {
    /// Whole-line bytes from the requested offset (possibly empty).
    pub bytes: Vec<u8>,
    /// Offset to request next: requested offset + `bytes.len()`.
    pub next_offset: u64,
}

/// In-memory view of one shard, grown from successive [`ShardTail`]s.
#[derive(Debug, Default)]
pub struct ShardView {
    /// How far the shard has been decoded: where the next tail read resumes.
    offset: u64,
    /// Every record decoded so far; the first per fingerprint wins.
    records: HashMap<u128, Record>,
    /// The key set of `records`, kept so a caller asking which cells a
    /// shard holds gets a copy instead of a rehash of every key. The
    /// default keyed hasher stays: fingerprints arrive from clients.
    fingerprints: HashSet<u128>,
    /// Complete lines that did not decode.
    skipped: usize,
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
    /// first record wins.
    pub(crate) fn insert(&mut self, fp: Fingerprint, record: Record) {
        if self.fingerprints.insert(fp.0) {
            self.records.insert(fp.0, record);
        }
    }

    /// Folds one tail read into the view. The offset moves last, so a
    /// fold cut short leaves a view that the same tail, read again,
    /// completes.
    fn apply(&mut self, tail: &ShardTail) {
        for line in String::from_utf8_lossy(&tail.bytes).lines() {
            match Store::decode_line(line) {
                Some((fp, record)) => self.insert(fp, record),
                None if !line.trim().is_empty() => self.skipped += 1,
                None => {}
            }
        }
        self.offset = tail.next_offset;
    }
}

/// Where a [`ShardViews`] reads shard bytes from: a campaign directory
/// (a [`Path`]) or a campaign server ([`crate::RemoteStore`]).
pub(crate) trait TailSource {
    /// The whole-line tail of `shard` from `offset`: [`Store::read_tail`].
    ///
    /// # Errors
    ///
    /// Filesystem or transport errors.
    fn tail(&self, shard: usize, offset: u64) -> std::io::Result<ShardTail>;
}

impl TailSource for Path {
    fn tail(&self, shard: usize, offset: u64) -> std::io::Result<ShardTail> {
        Store::read_tail(self, shard, offset)
    }
}

/// One [`ShardView`] per shard, each behind its own lock: the one reader
/// that turns shards into records.
#[derive(Debug, Default)]
pub struct ShardViews([Mutex<ShardView>; SHARDS]);

impl ShardViews {
    /// Locks one shard's view as it stands. A poisoned lock is recovered:
    /// [`ShardView::apply`] moves the offset last, and first-record-wins
    /// makes folding the same bytes again harmless.
    pub(crate) fn lock(&self, shard: usize) -> MutexGuard<'_, ShardView> {
        self.0[shard].lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Brings one shard's view up to date from `source`, returned locked.
    ///
    /// # Errors
    ///
    /// Propagates `source`'s errors; the view is then unchanged.
    pub(crate) fn refresh<S: TailSource + ?Sized>(
        &self,
        shard: usize,
        source: &S,
    ) -> std::io::Result<MutexGuard<'_, ShardView>> {
        let mut view = self.lock(shard);
        let tail = source.tail(shard, view.offset)?;
        view.apply(&tail);
        Ok(view)
    }

    /// Every record, each shard refreshed in turn (fingerprints route to
    /// one shard, so the per-shard maps merge without conflicts).
    ///
    /// # Errors
    ///
    /// Propagates `source`'s errors.
    pub(crate) fn snapshot<S: TailSource + ?Sized>(
        &self,
        source: &S,
    ) -> std::io::Result<HashMap<u128, Record>> {
        let mut all = HashMap::new();
        for shard in 0..SHARDS {
            let view = self.refresh(shard, source)?;
            all.extend(view.records.iter().map(|(k, v)| (*k, v.clone())));
        }
        Ok(all)
    }
}

/// Outcome of one [`Store::compact_to`] copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CompactionStats {
    /// Records surviving compaction.
    pub kept: usize,
    /// Records dropped because their fingerprint is not reachable.
    pub dropped_orphans: usize,
    /// Complete but undecodable lines dropped.
    pub dropped_torn: usize,
    /// Duplicate appends of a kept fingerprint dropped.
    pub dropped_duplicates: usize,
    /// Complete-line shard bytes read from the source.
    pub bytes_before: u64,
    /// Shard bytes written to the target.
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

    /// `fp`'s record as `store`'s view of its shard holds it.
    fn get(store: &Store, fp: Fingerprint) -> Option<Record> {
        let view = store.views().lock(Store::shard_of(fp));
        view.records.get(&fp.0).cloned()
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
        let store = Store::open(&root, "c", &manifest).unwrap();
        assert_eq!(store.loaded(), 0);

        let fp_a = Fingerprint(1);
        let fp_g = Fingerprint(2);
        let a = Record::alone(fp_a, "alone/x".into(), 1.5);
        let g = Record::grid(fp_g, "w0/DSARP".into(), sample_summary());
        store.append(fp_a, &a).unwrap();
        store.append(fp_g, &g).unwrap();
        let view = store.refresh(Store::shard_of(fp_a)).unwrap();
        assert_eq!(
            view.records.get(&fp_a.0),
            Some(&a),
            "a refresh reads an append"
        );
        drop(view);

        let reopened = Store::open(&root, "c", &manifest).unwrap();
        assert_eq!(reopened.loaded(), 2);
        assert_eq!(get(&reopened, fp_a), Some(a));
        assert_eq!(get(&reopened, fp_g), Some(g));
        assert!(get(&reopened, Fingerprint(3)).is_none());
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
        assert!(get(&reopened, fp).is_some());
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
        assert_eq!(get(&reopened, fp_b), Some(b));
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
        // A trailing fragment is withheld as possibly in flight; a fresh
        // writer heals it into a complete, undecodable line.
        let late_fp = Fingerprint(24); // same shard
        let late = Record::alone(late_fp, "late".into(), 3.0);
        let writer = Store::attach(&root, "c").unwrap();
        writer.append(late_fp, &late).unwrap();
        let source = std::fs::read(&shard).unwrap();

        let keep: HashSet<u128> = [keep_fp.0, late_fp.0].into_iter().collect();
        let target = root.join("new");
        let stats = Store::compact_to(&root, "c", &keep, &target, &Value::Null).unwrap();
        assert_eq!(stats.kept, 2);
        assert_eq!(stats.dropped_orphans, 1);
        assert_eq!(stats.dropped_duplicates, 1);
        assert_eq!(stats.dropped_torn, 1);
        assert_eq!(stats.bytes_before, source.len() as u64);
        assert!(stats.bytes_after < stats.bytes_before);
        assert_eq!(
            std::fs::read(&shard).unwrap(),
            source,
            "the source is only read"
        );

        // Kept lines are copied byte for byte, beside the same manifest,
        // and no temporary directory is left behind.
        let copied = std::fs::read_to_string(target.join("c/shards/shard-00.jsonl")).unwrap();
        let lines = [&kept, &late].map(|r| Store::encode_line(r) + "\n");
        assert_eq!(copied, lines.concat());
        let manifest = |root: &Path| std::fs::read(root.join("c/manifest.json")).unwrap();
        assert_eq!(manifest(&target), manifest(&root));
        assert_eq!(std::fs::read_dir(&target).unwrap().count(), 1);
        let compacted = Store::open(&target, "c", &Value::Null).unwrap();
        assert_eq!(compacted.loaded(), 2);
        assert_eq!(get(&compacted, keep_fp), Some(kept));
        assert!(get(&compacted, orphan_fp).is_none());

        // An existing target is refused; keeping nothing writes no shard.
        let again = Store::compact_to(&root, "c", &keep, &target, &Value::Null);
        assert_eq!(again.unwrap_err().kind(), std::io::ErrorKind::AlreadyExists);
        let empty = root.join("empty");
        let stats = Store::compact_to(&root, "c", &HashSet::new(), &empty, &Value::Null).unwrap();
        assert_eq!(stats.kept, 0);
        assert_eq!(
            std::fs::read_dir(empty.join("c/shards")).unwrap().count(),
            0
        );
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

        // An offset past the end (the store was replaced under the
        // reader) is refused, naming the shard.
        let err = Store::read_tail(&dir, 0, healed.next_offset + 1).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let said = err.to_string();
        assert!(
            said.starts_with("shard 00 of ")
                && said.ends_with("store replaced under a running reader"),
            "{said}"
        );

        // A view folded over the same tails skips the torn line.
        let mut view = ShardView::default();
        view.apply(&first);
        view.apply(&healed);
        assert_eq!((view.offset, view.records.len()), (healed.next_offset, 2));
        assert_eq!(view.skipped, 1);
        let _ = std::fs::remove_dir_all(root);
    }

    /// A shard truncated under a refreshed view (its store replaced while
    /// a reader runs) makes the next refresh fail and leaves the view as
    /// it was, rather than underflow or fold in unrelated bytes.
    #[test]
    fn a_shrunk_shard_is_an_error_and_leaves_the_view() {
        let root = tmpdir("shrunk");
        let store = Store::attach(&root, "c").unwrap();
        for fp in [8, 16] {
            let fp = Fingerprint(fp); // shard 0
            store
                .append(fp, &Record::alone(fp, "r".into(), 1.0))
                .unwrap();
        }
        let views = ShardViews::default();
        let dir = store.dir();
        let (offset, records) = {
            let view = views.refresh(0, dir).unwrap();
            (view.offset, view.records.clone())
        };
        assert_eq!(records.len(), 2);
        let shard = OpenOptions::new()
            .write(true)
            .open(Store::shard_file(dir, 0))
            .unwrap();
        shard.set_len(offset / 2).unwrap();
        let err = views.refresh(0, dir).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        let view = views.lock(0);
        assert_eq!((view.offset, &view.records), (offset, &records));
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

        /// Tails (torn lines included) and direct inserts over a few
        /// colliding fingerprints: `fingerprints` stays the key set of
        /// `records`, and every fingerprint keeps its first record.
        #[test]
        fn shard_view_fingerprints_track_records(
            ops in prop::collection::vec((any::<bool>(), prop::collection::vec(0u8..12, 0..5)), 1..24),
        ) {
            let mut view = ShardView::default();
            let mut model: HashMap<u128, Record> = HashMap::new();
            for (step, (insert, fps)) in ops.into_iter().enumerate() {
                let records = fps.iter().map(|&fp| {
                    let fp = Fingerprint(u128::from(fp));
                    (fp, Record::alone(fp, format!("step{step}"), 1.0))
                });
                if insert {
                    for (fp, record) in records {
                        model.entry(fp.0).or_insert_with(|| record.clone());
                        view.insert(fp, record);
                    }
                } else {
                    let mut tail = String::new();
                    for (fp, record) in records {
                        tail.push_str(&Store::encode_line(&record));
                        tail.push_str("\n{\"fp\":\"torn\n");
                        model.entry(fp.0).or_insert(record);
                    }
                    view.apply(&ShardTail {
                        bytes: tail.into_bytes(),
                        next_offset: step as u64,
                    });
                }
                let keys: HashSet<u128> = view.records.keys().copied().collect();
                prop_assert_eq!(&view.fingerprints, &keys);
                prop_assert_eq!(&view.records, &model);
            }
        }
    }

    /// The flat model of a shard file: its complete lines, decoded, the
    /// first record per fingerprint winning.
    fn first_records_of_complete_lines(bytes: &[u8]) -> HashMap<u128, Record> {
        let complete = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
        let mut model = HashMap::new();
        for line in String::from_utf8_lossy(&bytes[..complete]).lines() {
            if let Some((fp, record)) = Store::decode_line(line) {
                model.entry(fp.0).or_insert(record);
            }
        }
        model
    }

    proptest! {
        /// One shard grows in chunks cut at arbitrary bytes (record lines,
        /// duplicate fingerprints, garbage lines, torn lines later finished
        /// or healed by an append) and is compacted into new stores. After
        /// every step, a view refreshed step by step holds exactly what a
        /// fresh one-shot read and the flat model over complete lines hold.
        #[test]
        fn refreshed_view_matches_a_fresh_read_and_the_line_model(
            ops in prop::collection::vec((0u8..6, prop::collection::vec(0u8..14, 0..4), any::<u16>()), 1..24),
        ) {
            let root = tmpdir("one-reader");
            let dir = root.join("c");
            let path = Store::shard_file(&dir, 0);
            std::fs::create_dir_all(dir.join("shards")).unwrap();
            let views = ShardViews::default();
            let mut pending: Vec<u8> = Vec::new();
            for (step, (op, items, cut)) in ops.into_iter().enumerate() {
                let record = |v: u8| Record::alone(Fingerprint(u128::from(v)), format!("s{step}"), 1.0);
                match op {
                    // Heal: a fresh writer terminates a torn tail, then appends.
                    3 => {
                        let v = items.first().copied().unwrap_or(0) % 12;
                        let store = Store::attach(&root, "c").unwrap();
                        store.append(Fingerprint(u128::from(v)), &record(v)).unwrap();
                    }
                    // Compact into a new store keeping the even
                    // fingerprints: the source's bytes do not move, and
                    // the target holds exactly the kept complete records.
                    4 => {
                        let before = std::fs::read(&path).unwrap_or_default();
                        let keep: HashSet<u128> = (0..12).step_by(2).collect();
                        let target = root.join(format!("compacted-{step}"));
                        Store::compact_to(&root, "c", &keep, &target, &Value::Null).unwrap();
                        prop_assert_eq!(&std::fs::read(&path).unwrap_or_default(), &before);
                        let mut kept = first_records_of_complete_lines(&before);
                        kept.retain(|fp, _| keep.contains(fp));
                        let compacted = ShardViews::default();
                        let compacted = compacted.refresh(0, target.join("c").as_path()).unwrap();
                        prop_assert_eq!(&compacted.records, &kept);
                    }
                    _ => {
                        for v in items {
                            match v {
                                0..=11 => pending.extend(Store::encode_line(&record(v)).bytes()),
                                12 => pending.extend(b"{\"fp\":\"torn"),
                                _ => pending.extend(b"not json"),
                            }
                            pending.push(b'\n');
                        }
                        let n = usize::from(cut) % (pending.len() + 1);
                        let mut f = OpenOptions::new().create(true).append(true).open(&path).unwrap();
                        f.write_all(&pending[..n]).unwrap();
                        pending.drain(..n);
                    }
                }
                let view = views.refresh(0, dir.as_path()).unwrap();
                let fresh = ShardViews::default();
                let fresh = fresh.refresh(0, dir.as_path()).unwrap();
                let model = first_records_of_complete_lines(&std::fs::read(&path).unwrap_or_default());
                let keys: HashSet<u128> = view.records.keys().copied().collect();
                prop_assert_eq!(&view.fingerprints, &keys);
                prop_assert_eq!(&view.records, &fresh.records);
                prop_assert_eq!(&view.records, &model);
            }
            let _ = std::fs::remove_dir_all(root);
        }
    }

    /// Opening a store with the spec its manifest already echoes leaves
    /// the file alone; another spec replaces it.
    #[test]
    fn an_unchanged_manifest_is_not_rewritten() {
        use std::os::unix::fs::MetadataExt;
        let root = tmpdir("manifest");
        let path = root.join("c/manifest.json");
        let inode = || std::fs::metadata(&path).unwrap().ino();
        Store::open(&root, "c", &Value::Null).unwrap();
        let first = inode();
        Store::open(&root, "c", &Value::Null).unwrap();
        assert_eq!(inode(), first);
        Store::open(&root, "c", &Value::Bool(true)).unwrap();
        assert_ne!(inode(), first);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            format!("{{\"format_version\":{FORMAT_VERSION},\"campaign\":\"c\",\"spec\":true}}\n")
        );
        let _ = std::fs::remove_dir_all(root);
    }

    /// A record another writer appends between a refresh and this store's
    /// own append is not skipped: the view does not advance over it, and
    /// the next refresh reads it.
    #[test]
    fn own_append_does_not_skip_a_foreign_one() {
        let root = tmpdir("foreign");
        let first = Store::attach(&root, "c").unwrap();
        let second = Store::attach(&root, "c").unwrap();
        let [a, b, c] = [8, 16, 24].map(Fingerprint); // all shard 0
        first.append(a, &Record::alone(a, "a".into(), 1.0)).unwrap();
        {
            let mut view = first.refresh(0).unwrap();
            second
                .append(b, &Record::alone(b, "foreign".into(), 2.0))
                .unwrap();
            first
                .append_locked(c, &Record::alone(c, "c".into(), 3.0), Some(&mut view))
                .unwrap();
            assert!(
                view.records.contains_key(&c.0),
                "an own append joins the view"
            );
        }
        let view = first.refresh(0).unwrap();
        assert_eq!(view.records[&b.0].label, "foreign");
        assert_eq!(view.offset, first.shard_size(0));
        assert_eq!(view.records, Store::read_all(first.dir()).unwrap());
        let _ = std::fs::remove_dir_all(root);
    }

    /// Poisons `lock`: a thread panics while holding it.
    fn poison<T: Send>(lock: &Mutex<T>) {
        std::thread::scope(|s| {
            s.spawn(|| {
                let _held = lock.lock();
                panic!("poisoning the lock on purpose");
            })
            .join()
            .unwrap_err();
        });
        assert!(lock.is_poisoned());
    }

    #[test]
    fn a_poisoned_writer_lock_still_appends() {
        let root = tmpdir("poison-writer");
        let store = Store::attach(&root, "c").unwrap();
        let fp = Fingerprint(8);
        poison(&store.writers[0]);
        store
            .append(fp, &Record::alone(fp, "a".into(), 1.0))
            .unwrap();
        assert!(Store::read_all(store.dir()).unwrap().contains_key(&fp.0));
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn a_poisoned_view_lock_still_refreshes_and_appends() {
        let root = tmpdir("poison-view");
        let writer = Store::attach(&root, "c").unwrap();
        let (a, b) = (Fingerprint(8), Fingerprint(16));
        writer
            .append(a, &Record::alone(a, "a".into(), 1.0))
            .unwrap();
        let store = Store::attach(&root, "c").unwrap();
        poison(&store.views.0[0]);
        assert!(store.refresh(0).unwrap().records.contains_key(&a.0));
        store.append(b, &Record::alone(b, "b".into(), 2.0)).unwrap();
        assert_eq!(store.refresh(0).unwrap().records.len(), 2);
        let _ = std::fs::remove_dir_all(root);
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
