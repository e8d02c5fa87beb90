//! Cooperative shard leasing for distributed campaign execution.
//!
//! Each shard file of a campaign store can be leased by at most one live
//! worker at a time through a `shard-NN.lock` file under
//! `<campaign>/leases/`. A lock holds the owner's id, pid, and a heartbeat
//! timestamp:
//!
//! ```text
//! .campaign/paper/leases/shard-03.lock
//!   {"owner":"worker-81214","pid":81214,"heartbeat_ms":1722268800123,"ttl_ms":30000}
//! ```
//!
//! The protocol:
//!
//! * **Acquire** creates the lock with `O_CREAT|O_EXCL` (`create_new`), so
//!   exactly one contender wins a vacant lock.
//! * **Renew** rewrites the lock atomically (unique temp file + rename)
//!   with a fresh heartbeat; owners renew while simulating.
//! * **Release** verifies ownership and deletes the lock.
//! * **Reclaim**: a lock whose heartbeat is older than its *owner's
//!   recorded* TTL — or which is unreadable and whose file mtime is older
//!   than the contender's TTL — belongs to a dead worker. A contender
//!   evicts it by renaming it to a unique tombstone (so racing evictors
//!   cannot delete each other's fresh locks), verifies what it caught was
//!   still stale (restoring it otherwise), then races on a fresh
//!   `create_new`; exactly one wins, and the dead worker's unfinished
//!   cells re-run under the new owner. Judging
//!   staleness by the holder's own TTL means a process launched with a
//!   short `--ttl-ms` can never evict a live holder on a slower cadence.
//!
//! The reclaim race (owner renews between a contender's staleness check
//! and its delete) is tolerated rather than excluded: shard records are
//! content-addressed and simulations are deterministic, so the worst case
//! is a duplicate append of an identical record, which the store's
//! first-record-wins load semantics absorb. A displaced owner notices on
//! its next renew (ownership check fails) and stops renewing.

use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Default lease time-to-live: a heartbeat older than this marks the
/// owner dead. Workers renew a few times per TTL, so the value only needs
/// to exceed worst-case heartbeat jitter, not job runtime.
pub const DEFAULT_TTL_MS: u64 = 30_000;

/// The persisted contents of one `shard-NN.lock`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeaseInfo {
    /// Owner id (unique per worker process).
    pub owner: String,
    /// Owner's process id (diagnostic only; owners may be on other hosts).
    pub pid: u32,
    /// Last heartbeat, in milliseconds since the Unix epoch.
    pub heartbeat_ms: u64,
    /// The owner's own TTL — the renewal contract it promised. Staleness
    /// is judged against *this*, not a contender's TTL, so a process
    /// launched with a short `--ttl-ms` cannot evict a live holder that
    /// renews on a slower (but honored) cadence.
    pub ttl_ms: u64,
}

impl LeaseInfo {
    /// Milliseconds elapsed since the last heartbeat (saturating).
    pub(crate) fn age_ms(&self, now_ms: u64) -> u64 {
        now_ms.saturating_sub(self.heartbeat_ms)
    }

    /// Whether this lease is past its owner's own renewal contract.
    pub(crate) fn is_stale(&self, now_ms: u64) -> bool {
        self.age_ms(now_ms) > self.ttl_ms
    }
}

/// The result of an acquisition attempt.
#[derive(Debug)]
pub enum Acquire {
    /// The lock was taken; `reclaimed` is true when a stale lease was
    /// evicted to take it.
    Acquired(Lease),
    /// Another owner holds the lock. `evicted_stale` is true when this
    /// contender DID evict a stale lease but lost the follow-up
    /// `create_new` race to a peer — the reclaim happened, the credit
    /// belongs here, the lock belongs to the peer.
    Held {
        /// The current lock contents (best-effort for unreadable locks).
        holder: LeaseInfo,
        /// Whether this call evicted a stale lease along the way.
        evicted_stale: bool,
    },
}

/// An acquired shard lease. Dropping it without [`Lease::release`] leaves
/// the lock on disk, to be reclaimed after the TTL — exactly what a
/// crashed worker leaves behind.
#[derive(Debug)]
pub struct Lease {
    path: PathBuf,
    owner: String,
    ttl_ms: u64,
    reclaimed: bool,
}

/// Uniquifies tombstone names for stale-lock eviction.
static EVICT_SEQ: AtomicU64 = AtomicU64::new(0);

/// Wall-clock milliseconds since the Unix epoch.
pub fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// The lease directory of a campaign store.
pub fn lease_dir(campaign_dir: &Path) -> PathBuf {
    campaign_dir.join("leases")
}

/// The lock path for one shard.
pub(crate) fn lock_path(campaign_dir: &Path, shard: usize) -> PathBuf {
    lease_dir(campaign_dir).join(format!("shard-{shard:02}.lock"))
}

fn read_info(path: &Path) -> Option<LeaseInfo> {
    let text = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&text).ok()
}

/// Writes `info` to `path` atomically: unique temp file, then rename.
fn write_atomic(path: &Path, info: &LeaseInfo) -> std::io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let tmp = path.with_extension(format!(
        "tmp-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(
        &tmp,
        format!(
            "{}\n",
            serde_json::to_string(info).expect("lease serializes")
        ),
    )?;
    std::fs::rename(&tmp, path)
}

/// Whether the lock at `path` is reclaimable at `now_ms`: heartbeat older
/// than the *owner's recorded* TTL, or — for an unreadable lock, which
/// carries no contract — file mtime older than the contender's
/// `fallback_ttl_ms`. A lock that vanished between checks (release race)
/// reports stale so the contender immediately retries its `create_new`;
/// real metadata errors (permissions, I/O) propagate instead of being
/// mistaken for a live holder.
fn is_stale(path: &Path, fallback_ttl_ms: u64, now_ms: u64) -> std::io::Result<bool> {
    if let Some(info) = read_info(path) {
        return Ok(info.is_stale(now_ms));
    }
    let ttl_ms = fallback_ttl_ms;
    // Unreadable or torn lock (e.g. a crash between create and first
    // write): fall back to the file clock. An mtime *ahead* of our clock
    // (shared-filesystem skew) counts as stale rather than live — an
    // unreadable lock never becomes readable on its own, and wrongly
    // evicting one is absorbed by the protocol (duplicate appends are
    // byte-identical), while treating it as live would block the shard
    // for as long as the skew persists.
    match std::fs::metadata(path).and_then(|m| m.modified()) {
        Ok(mtime) => Ok(mtime
            .elapsed()
            .map(|age| u64::try_from(age.as_millis()).unwrap_or(u64::MAX) > ttl_ms)
            .unwrap_or(true)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(true),
        Err(e) => Err(e),
    }
}

impl Lease {
    /// Attempts to lease `shard` of the campaign at `campaign_dir` for
    /// `owner`, recording `ttl_ms` as this owner's renewal contract.
    /// Evicts a stale lock (heartbeat older than the *holder's* recorded
    /// TTL; `ttl_ms` is only the fallback for unreadable locks) before
    /// retrying once.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than lock contention.
    pub fn acquire(
        campaign_dir: &Path,
        shard: usize,
        owner: &str,
        ttl_ms: u64,
    ) -> std::io::Result<Acquire> {
        std::fs::create_dir_all(lease_dir(campaign_dir))?;
        let path = lock_path(campaign_dir, shard);
        let unreadable = || LeaseInfo {
            owner: "<unreadable>".into(),
            pid: 0,
            heartbeat_ms: now_ms(),
            ttl_ms,
        };
        let mut reclaimed = false;
        // One initial attempt plus one retry after evicting a stale lock.
        for _ in 0..2 {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(file) => {
                    drop(file);
                    let lease = Lease {
                        path,
                        owner: owner.to_string(),
                        ttl_ms,
                        reclaimed,
                    };
                    lease.write_heartbeat()?;
                    return Ok(Acquire::Acquired(lease));
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if is_stale(&path, ttl_ms, now_ms())? {
                        // Dead owner: evict and race on the retry. Eviction
                        // renames to a unique tombstone and re-checks what
                        // was actually caught — a bare remove_file could
                        // delete a DIFFERENT contender's brand-new lock
                        // created between our staleness check and the
                        // delete, double-leasing the shard.
                        let tomb = path.with_extension(format!(
                            "evict-{}-{}",
                            std::process::id(),
                            EVICT_SEQ.fetch_add(1, Ordering::Relaxed)
                        ));
                        match std::fs::rename(&path, &tomb) {
                            Ok(()) => {
                                let caught = read_info(&tomb);
                                if caught.as_ref().is_none_or(|i| i.is_stale(now_ms())) {
                                    let _ = std::fs::remove_file(&tomb);
                                    reclaimed = true;
                                } else {
                                    // We raced a fresh acquire/renewal:
                                    // restore it and report the new holder.
                                    let info = caught.expect("checked above");
                                    if std::fs::rename(&tomb, &path).is_err() {
                                        // The holder re-created the lock by
                                        // renewing meanwhile; ours is an
                                        // older copy.
                                        let _ = std::fs::remove_file(&tomb);
                                    }
                                    return Ok(Acquire::Held {
                                        holder: info,
                                        evicted_stale: false,
                                    });
                                }
                            }
                            // Already evicted or released by someone else.
                            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                            Err(e) => return Err(e),
                        }
                        continue;
                    }
                    return Ok(Acquire::Held {
                        holder: read_info(&path).unwrap_or_else(unreadable),
                        evicted_stale: reclaimed,
                    });
                }
                Err(e) => return Err(e),
            }
        }
        // Lost the post-eviction race.
        Ok(Acquire::Held {
            holder: read_info(&path).unwrap_or_else(unreadable),
            evicted_stale: reclaimed,
        })
    }

    fn write_heartbeat(&self) -> std::io::Result<()> {
        heartbeat_at(&self.path, &self.owner, self.ttl_ms)
    }

    /// Refreshes the heartbeat, first verifying this worker still owns the
    /// lock (a stale-marked lease may have been reclaimed under us).
    ///
    /// # Errors
    ///
    /// `ErrorKind::Other` when ownership was lost; filesystem errors
    /// otherwise.
    pub fn renew(&self) -> std::io::Result<()> {
        renew_at(&self.path, &self.owner, self.ttl_ms)
    }

    /// Releases the lease, deleting the lock if still owned. Losing
    /// ownership first (reclaim after a stale period) is not an error:
    /// the successor owns the lock now.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn release(self) -> std::io::Result<()> {
        release_at(&self.path, &self.owner)
    }

    /// Whether acquiring this lease evicted a dead owner's lock.
    pub fn reclaimed(&self) -> bool {
        self.reclaimed
    }
}

/// Writes a fresh heartbeat for `owner` at `path`, unconditionally.
fn heartbeat_at(path: &Path, owner: &str, ttl_ms: u64) -> std::io::Result<()> {
    write_atomic(
        path,
        &LeaseInfo {
            owner: owner.to_string(),
            pid: std::process::id(),
            heartbeat_ms: now_ms(),
            ttl_ms,
        },
    )
}

/// Ownership-checked renew at a lock path (shared by [`Lease::renew`] and
/// [`renew_as`], so in-process and on-behalf-of renewal cannot drift).
fn renew_at(path: &Path, owner: &str, ttl_ms: u64) -> std::io::Result<()> {
    match read_info(path) {
        Some(info) if info.owner == owner => heartbeat_at(path, owner, ttl_ms),
        Some(info) => Err(std::io::Error::other(format!(
            "lease on {} lost to `{}`",
            path.display(),
            info.owner
        ))),
        None => Err(std::io::Error::other(format!(
            "lease on {} vanished",
            path.display()
        ))),
    }
}

/// Ownership-checked release at a lock path. Losing ownership first is
/// not an error: the successor owns the lock now.
fn release_at(path: &Path, owner: &str) -> std::io::Result<()> {
    match read_info(path) {
        Some(info) if info.owner == owner => match std::fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        },
        _ => Ok(()),
    }
}

/// Renews `shard`'s lease on behalf of `owner` without holding a
/// [`Lease`] value — the campaign server renews for remote workers, whose
/// lease state lives across HTTP requests, not in one process.
///
/// # Errors
///
/// `ErrorKind::Other` when `owner` no longer holds the lock; filesystem
/// errors otherwise.
pub fn renew_as(
    campaign_dir: &Path,
    shard: usize,
    owner: &str,
    ttl_ms: u64,
) -> std::io::Result<()> {
    renew_at(&lock_path(campaign_dir, shard), owner, ttl_ms)
}

/// Releases `shard`'s lease on behalf of `owner` (see [`renew_as`]).
/// Not holding the lock (already reclaimed) is not an error.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn release_as(campaign_dir: &Path, shard: usize, owner: &str) -> std::io::Result<()> {
    release_at(&lock_path(campaign_dir, shard), owner)
}

/// Anything [`Heartbeat`] can renew on a timer: a worker's backend lease,
/// renewed in the shared directory or over HTTP alike.
pub trait Renew: Sync {
    /// Refreshes the lease heartbeat.
    ///
    /// # Errors
    ///
    /// Ownership loss or transport errors; heartbeat timers ignore both
    /// (a stolen lease is already tolerated by the protocol).
    fn renew(&self) -> std::io::Result<()>;
}

/// A stoppable lease-renewal timer. [`Heartbeat::run`] blocks on its own
/// thread, renewing the given leases every interval until stopped; the
/// RAII [`HeartbeatStopper`] signals the stop even if the work being
/// heartbeat-protected panics (otherwise a scoped join would wait on a
/// timer that renews a doomed worker's lease forever, making the shard
/// unreclaimable).
#[derive(Debug, Default)]
pub struct Heartbeat {
    done: std::sync::Mutex<bool>,
    finished: std::sync::Condvar,
}

impl Heartbeat {
    /// A fresh, not-yet-stopped heartbeat.
    pub fn new() -> Self {
        Self::default()
    }

    /// Renews every lease in `leases` each `interval` until stopped.
    /// Run this on a dedicated (scoped) thread. Renew failures are
    /// ignored: a stolen lease is already tolerated by the protocol.
    pub fn run<R: Renew>(&self, leases: &[&R], interval: std::time::Duration) {
        // The gate guards only the stop flag, which a panic cannot leave
        // half-set: a poisoned one is recovered, as `stop` does.
        let mut guard = self
            .done
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            // Checked before the first wait too: a stop() that lands
            // before this thread is scheduled must not cost a full
            // interval of dead wait at the scope join.
            if *guard {
                return;
            }
            let (g, timeout) = self
                .finished
                .wait_timeout(guard, interval)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            guard = g;
            if !*guard && timeout.timed_out() {
                for lease in leases {
                    let _ = lease.renew();
                }
            }
        }
    }

    /// Stops the timer; `run` returns promptly. Poison-proof so it also
    /// works during unwinding.
    pub(crate) fn stop(&self) {
        *self
            .done
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = true;
        self.finished.notify_all();
    }

    /// An RAII guard that calls `Heartbeat::stop` when dropped.
    pub fn stopper(&self) -> HeartbeatStopper<'_> {
        HeartbeatStopper(self)
    }
}

/// Stops its [`Heartbeat`] on drop (including panic unwinding).
#[derive(Debug)]
pub struct HeartbeatStopper<'a>(&'a Heartbeat);

impl Drop for HeartbeatStopper<'_> {
    fn drop(&mut self) {
        self.0.stop();
    }
}

/// Reads the current lock of `shard`, if any.
pub(crate) fn read(campaign_dir: &Path, shard: usize) -> Option<LeaseInfo> {
    read_info(&lock_path(campaign_dir, shard))
}

/// Lists every lock currently on disk as `(shard, info, live)`, where
/// `live` means the heartbeat is within the owner's own recorded TTL.
pub fn list(campaign_dir: &Path, shards: usize) -> Vec<(usize, LeaseInfo, bool)> {
    let now = now_ms();
    (0..shards)
        .filter_map(|shard| {
            read(campaign_dir, shard).map(|info| {
                let live = !info.is_stale(now);
                (shard, info, live)
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("dsarp-lease-tests")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn acquired(outcome: Acquire) -> Lease {
        match outcome {
            Acquire::Acquired(l) => l,
            Acquire::Held { holder, .. } => panic!("expected acquisition, held by {holder:?}"),
        }
    }

    #[test]
    fn acquire_renew_release_lifecycle() {
        let dir = tmpdir("lifecycle");
        let lease = acquired(Lease::acquire(&dir, 3, "w-a", 60_000).unwrap());
        assert!(!lease.reclaimed());
        assert_eq!(lease.owner, "w-a");

        let info = read(&dir, 3).expect("lock on disk");
        assert_eq!(info.owner, "w-a");
        assert_eq!(info.pid, std::process::id());

        let before = info.heartbeat_ms;
        std::thread::sleep(std::time::Duration::from_millis(5));
        lease.renew().unwrap();
        let renewed = read(&dir, 3).expect("lock still on disk");
        assert!(renewed.heartbeat_ms >= before);

        lease.release().unwrap();
        assert!(read(&dir, 3).is_none(), "release must delete the lock");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn live_lease_refuses_double_acquire() {
        let dir = tmpdir("double");
        let lease = acquired(Lease::acquire(&dir, 0, "w-a", 60_000).unwrap());
        match Lease::acquire(&dir, 0, "w-b", 60_000).unwrap() {
            Acquire::Held { holder, .. } => assert_eq!(holder.owner, "w-a"),
            Acquire::Acquired(_) => panic!("live lease must not be double-acquired"),
        }
        // A different shard is independent.
        let other = acquired(Lease::acquire(&dir, 1, "w-b", 60_000).unwrap());
        other.release().unwrap();
        lease.release().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn stale_lease_is_reclaimed_after_ttl() {
        let dir = tmpdir("stale");
        // A "crashed" worker: lock written, owner never renews or releases.
        let dead = acquired(Lease::acquire(&dir, 5, "w-dead", 60_000).unwrap());
        std::mem::forget(dead); // simulate the crash: no release

        // Heartbeat 1 h old. Staleness is judged by the HOLDER's recorded
        // TTL: while the dead owner's contract is generous (a week), no
        // contender may evict, whatever its own --ttl-ms...
        let path = lock_path(&dir, 5);
        write_atomic(
            &path,
            &LeaseInfo {
                owner: "w-dead".into(),
                pid: 1,
                heartbeat_ms: now_ms().saturating_sub(3_600_000),
                ttl_ms: 7 * 24 * 3_600_000,
            },
        )
        .unwrap();
        match Lease::acquire(&dir, 5, "w-b", 1_000).unwrap() {
            Acquire::Held { holder, .. } => assert_eq!(holder.owner, "w-dead"),
            Acquire::Acquired(_) => {
                panic!("a short-TTL contender must not evict a live slow-cadence holder")
            }
        }
        // ...but once the heartbeat exceeds the holder's own contract,
        // any contender reclaims.
        write_atomic(
            &path,
            &LeaseInfo {
                owner: "w-dead".into(),
                pid: 1,
                heartbeat_ms: now_ms().saturating_sub(3_600_000),
                ttl_ms: 60_000,
            },
        )
        .unwrap();
        let lease = acquired(Lease::acquire(&dir, 5, "w-b", u64::MAX).unwrap());
        assert!(lease.reclaimed(), "reclaim must be reported");
        assert_eq!(read(&dir, 5).unwrap().owner, "w-b");
        lease.release().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn displaced_owner_fails_renew_and_release_is_harmless() {
        let dir = tmpdir("displaced");
        let old = acquired(Lease::acquire(&dir, 2, "w-old", 60_000).unwrap());
        // Reclaim under the old owner's feet.
        write_atomic(
            &lock_path(&dir, 2),
            &LeaseInfo {
                owner: "w-old".into(),
                pid: 1,
                heartbeat_ms: 0,
                ttl_ms: 1_000,
            },
        )
        .unwrap();
        let new = acquired(Lease::acquire(&dir, 2, "w-new", 1_000).unwrap());

        assert!(old.renew().is_err(), "displaced owner must not renew");
        old.release().unwrap(); // must NOT delete the successor's lock
        assert_eq!(read(&dir, 2).unwrap().owner, "w-new");
        new.release().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn unreadable_lock_is_reclaimed_by_mtime() {
        let dir = tmpdir("torn-lock");
        let path = lock_path(&dir, 7);
        std::fs::create_dir_all(lease_dir(&dir)).unwrap();
        std::fs::write(&path, "{\"owner\":\"tor").unwrap(); // torn write
        std::thread::sleep(std::time::Duration::from_millis(30));
        // mtime is ~30ms old: stale at a 5ms TTL, live at a long one.
        match Lease::acquire(&dir, 7, "w-b", 60_000).unwrap() {
            Acquire::Held { holder, .. } => assert_eq!(holder.owner, "<unreadable>"),
            Acquire::Acquired(_) => panic!("young torn lock must be held"),
        }
        let lease = acquired(Lease::acquire(&dir, 7, "w-b", 5).unwrap());
        assert!(lease.reclaimed());
        lease.release().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn list_reports_liveness() {
        let dir = tmpdir("list");
        let a = acquired(Lease::acquire(&dir, 0, "w-a", 60_000).unwrap());
        write_atomic(
            &lock_path(&dir, 4),
            &LeaseInfo {
                owner: "w-dead".into(),
                pid: 1,
                heartbeat_ms: now_ms().saturating_sub(100_000),
                ttl_ms: 30_000,
            },
        )
        .unwrap();
        let listed = list(&dir, 8);
        assert_eq!(listed.len(), 2);
        let by_shard: std::collections::HashMap<usize, bool> = listed
            .into_iter()
            .map(|(shard, _, live)| (shard, live))
            .collect();
        assert!(by_shard[&0], "fresh heartbeat is live");
        assert!(!by_shard[&4], "old heartbeat is dead");
        a.release().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Counts renewals; never fails.
    struct Counted(std::sync::atomic::AtomicUsize);

    impl Renew for Counted {
        fn renew(&self) -> std::io::Result<()> {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(())
        }
    }

    #[test]
    fn a_poisoned_gate_still_runs_and_stops() {
        let beat = Heartbeat::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _held = beat.done.lock().unwrap();
                panic!("poisons the heartbeat gate");
            })
            .join()
            .expect_err("the poisoning thread panics");
        });
        assert!(beat.done.is_poisoned());
        let lease = Counted(std::sync::atomic::AtomicUsize::new(0));
        let renewed = || lease.0.load(std::sync::atomic::Ordering::Relaxed) > 0;
        std::thread::scope(|s| {
            let runner = s.spawn(|| beat.run(&[&lease], std::time::Duration::from_millis(1)));
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while !renewed() && !runner.is_finished() && std::time::Instant::now() < deadline {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            beat.stop();
            runner
                .join()
                .expect("run recovers the gate instead of panicking");
        });
        assert!(renewed(), "renewed while running");
    }
}
