//! The store backend abstraction: one interface over "workers share the
//! campaign directory" and "workers talk to a campaign server over HTTP".
//!
//! [`crate::runner::CampaignClient`] drives a distributed drain purely
//! through [`StoreBackend`], so lease reclaim, rescan and merge semantics
//! are identical whichever transport carries them — a SIGKILLed remote
//! worker's leases are reclaimed by survivors exactly as local ones, and
//! merged grids are byte-identical either way.

use crate::fingerprint::Fingerprint;
use crate::lease::{self, Acquire, Lease, LeaseInfo, Renew};
use crate::store::{Record, Store, SHARDS};
use std::collections::{HashMap, HashSet};
use std::path::Path;

/// The outcome of a backend lease-acquire attempt.
#[derive(Debug)]
pub enum AcquireOutcome {
    /// The shard is leased to the caller; `reclaimed` is true when a
    /// stale (dead owner's) lease was evicted to take it.
    Acquired {
        /// Whether a stale lease was evicted along the way.
        reclaimed: bool,
    },
    /// Another owner holds the shard.
    Held {
        /// The current holder (best-effort for unreadable locks).
        holder: LeaseInfo,
        /// The caller evicted a stale lease but lost the follow-up
        /// acquire race to a peer.
        evicted_stale: bool,
    },
}

/// A campaign result store reachable by a worker: the local shared
/// directory, or a remote campaign server speaking HTTP.
///
/// All operations are callable from the executor's worker threads
/// (`&self`, `Sync`).
pub trait StoreBackend: Sync {
    /// A human-readable endpoint for log lines (directory path or URL).
    fn describe(&self) -> String;

    /// The current size of every shard, indexed by shard number. Shards
    /// are append-only (compaction writes a new store), so an unchanged
    /// size means unchanged contents — workers skip re-reading such shards
    /// between rescan rounds.
    ///
    /// # Errors
    ///
    /// Propagates transport/filesystem errors.
    fn shard_sizes(&self) -> std::io::Result<Vec<u64>>;

    /// The fingerprints currently present in one shard.
    ///
    /// # Errors
    ///
    /// Propagates transport/filesystem errors.
    fn shard_fingerprints(&self, shard: usize) -> std::io::Result<HashSet<u128>>;

    /// Appends one completed record to its shard (first record per
    /// fingerprint wins on read, so duplicate appends are harmless).
    ///
    /// # Errors
    ///
    /// Propagates transport/filesystem errors.
    fn append(&self, fp: Fingerprint, record: &Record) -> std::io::Result<()>;

    /// Attempts to lease `shard` for `owner` with the `ttl_ms` renewal
    /// contract, evicting a stale holder first (see [`Lease::acquire`]).
    ///
    /// # Errors
    ///
    /// Propagates transport/filesystem errors other than contention.
    fn acquire(&self, shard: usize, owner: &str, ttl_ms: u64) -> std::io::Result<AcquireOutcome>;

    /// Renews `owner`'s lease on `shard`.
    ///
    /// # Errors
    ///
    /// Ownership loss or transport errors.
    fn renew(&self, shard: usize, owner: &str, ttl_ms: u64) -> std::io::Result<()>;

    /// Releases `owner`'s lease on `shard` (no-op if already lost).
    ///
    /// # Errors
    ///
    /// Propagates transport/filesystem errors.
    fn release(&self, shard: usize, owner: &str) -> std::io::Result<()>;

    /// Every record currently in the store, keyed by fingerprint — the
    /// snapshot merges assemble grids from.
    ///
    /// # Errors
    ///
    /// Propagates transport/filesystem errors.
    fn snapshot(&self) -> std::io::Result<HashMap<u128, Record>>;
}

/// A shard lease held through a [`StoreBackend`]. Dropping it without
/// [`BackendLease::release`] leaves the lease live until its TTL lapses —
/// exactly what a crashed worker leaves behind.
pub(crate) struct BackendLease<'a> {
    backend: &'a dyn StoreBackend,
    shard: usize,
    owner: String,
    ttl_ms: u64,
}

impl<'a> BackendLease<'a> {
    /// Wraps an [`AcquireOutcome::Acquired`] into a renewable handle.
    pub(crate) fn new(
        backend: &'a dyn StoreBackend,
        shard: usize,
        owner: &str,
        ttl_ms: u64,
    ) -> Self {
        BackendLease {
            backend,
            shard,
            owner: owner.to_string(),
            ttl_ms,
        }
    }

    /// Releases the lease.
    ///
    /// # Errors
    ///
    /// Propagates transport/filesystem errors.
    pub(crate) fn release(self) -> std::io::Result<()> {
        self.backend.release(self.shard, &self.owner)
    }
}

impl Renew for BackendLease<'_> {
    fn renew(&self) -> std::io::Result<()> {
        self.backend.renew(self.shard, &self.owner, self.ttl_ms)
    }
}

/// The shared-directory backend: shard files and `shard-NN.lock` leases
/// on a filesystem every worker can reach (one host, or NFS).
#[derive(Debug)]
pub struct LocalBackend {
    store: Store,
}

impl LocalBackend {
    /// Attaches to the campaign's store directory under `root` (creating
    /// it if needed). Records are read shard by shard, as the drain asks
    /// for them, and kept: a rescan reads only what a shard grew.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open(root: &Path, campaign_name: &str) -> std::io::Result<Self> {
        Ok(LocalBackend {
            store: Store::attach(root, campaign_name)?,
        })
    }
}

impl StoreBackend for LocalBackend {
    fn describe(&self) -> String {
        self.store.dir().display().to_string()
    }

    fn shard_sizes(&self) -> std::io::Result<Vec<u64>> {
        Ok((0..SHARDS).map(|s| self.store.shard_size(s)).collect())
    }

    fn shard_fingerprints(&self, shard: usize) -> std::io::Result<HashSet<u128>> {
        Ok(self.store.refresh(shard)?.fingerprints().clone())
    }

    fn append(&self, fp: Fingerprint, record: &Record) -> std::io::Result<()> {
        self.store.append(fp, record)
    }

    fn acquire(&self, shard: usize, owner: &str, ttl_ms: u64) -> std::io::Result<AcquireOutcome> {
        match Lease::acquire(self.store.dir(), shard, owner, ttl_ms)? {
            // The `Lease` value is deliberately dropped, not released:
            // the lock file on disk IS the lease; renewal and release go
            // through `renew_as`/`release_as` by owner, the same stateless
            // path the campaign server uses for remote holders.
            Acquire::Acquired(lock) => Ok(AcquireOutcome::Acquired {
                reclaimed: lock.reclaimed(),
            }),
            Acquire::Held {
                holder,
                evicted_stale,
            } => Ok(AcquireOutcome::Held {
                holder,
                evicted_stale,
            }),
        }
    }

    fn renew(&self, shard: usize, owner: &str, ttl_ms: u64) -> std::io::Result<()> {
        lease::renew_as(self.store.dir(), shard, owner, ttl_ms)
    }

    fn release(&self, shard: usize, owner: &str) -> std::io::Result<()> {
        lease::release_as(self.store.dir(), shard, owner)
    }

    fn snapshot(&self) -> std::io::Result<HashMap<u128, Record>> {
        self.store.views().snapshot(self.store.dir())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("dsarp-backend-tests")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn local_backend_appends_leases_and_snapshots() {
        let root = tmpdir("local");
        let backend = LocalBackend::open(&root, "c").unwrap();
        assert_eq!(backend.shard_sizes().unwrap(), vec![0; SHARDS]);

        let fp = Fingerprint(8); // shard 0
        let rec = Record::alone(fp, "a".into(), 1.5);
        backend.append(fp, &rec).unwrap();
        assert!(backend.shard_sizes().unwrap()[0] > 0);
        assert!(backend.shard_fingerprints(0).unwrap().contains(&fp.0));
        assert_eq!(backend.snapshot().unwrap().get(&fp.0), Some(&rec));

        // Lease lifecycle through the backend interface.
        match backend.acquire(0, "w-a", 60_000).unwrap() {
            AcquireOutcome::Acquired { reclaimed } => assert!(!reclaimed),
            AcquireOutcome::Held { holder, .. } => panic!("vacant shard held by {holder:?}"),
        }
        let lease = BackendLease::new(&backend, 0, "w-a", 60_000);
        Renew::renew(&lease).unwrap();
        match backend.acquire(0, "w-b", 60_000).unwrap() {
            AcquireOutcome::Held { holder, .. } => assert_eq!(holder.owner, "w-a"),
            AcquireOutcome::Acquired { .. } => panic!("live lease double-acquired"),
        }
        lease.release().unwrap();
        match backend.acquire(0, "w-b", 60_000).unwrap() {
            AcquireOutcome::Acquired { .. } => {}
            AcquireOutcome::Held { holder, .. } => panic!("released shard held by {holder:?}"),
        }
        backend.release(0, "w-b").unwrap();

        // The store the campaign loads sees the appended record.
        let store = Store::open(&root, "c", &Value::Null).unwrap();
        assert_eq!(store.refresh(0).unwrap().records().get(&fp.0), Some(&rec));
        let _ = std::fs::remove_dir_all(root);
    }
}
