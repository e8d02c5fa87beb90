//! The remote store client: [`StoreBackend`] over HTTP.
//!
//! Talks to an `experiments serve` campaign server (crate `dsarp-serve`),
//! so workers on hosts with no shared filesystem can drain the same
//! campaign. Shard contents are read incrementally, through the same
//! [`ShardViews`] a local store reads its files with — each `GET
//! /shards/{nn}` resumes from the offset the previous read returned, so
//! rescan rounds transfer only the bytes peers appended since. Transient
//! transport failures and HTTP 5xx are retried with bounded backoff
//! (`RetryPolicy::remote`); lease-ownership conflicts and protocol
//! errors are permanent.

use crate::backend::{AcquireOutcome, StoreBackend};
use crate::fingerprint::Fingerprint;
use crate::lease::LeaseInfo;
use crate::retry::{self, RetryPolicy};
use crate::store::{Record, ShardTail, ShardViews, Store, TailSource, FORMAT_VERSION, SHARDS};
use minihttp::{Client, Response};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::io;
use std::sync::Mutex;

/// `GET /campaign` reply: the server's identity handshake.
#[derive(Debug, Serialize, Deserialize)]
pub struct CampaignInfo {
    /// Campaign name the server is hosting.
    pub name: String,
    /// Shard count (must match [`SHARDS`]).
    pub shards: usize,
    /// Store format version (must match [`FORMAT_VERSION`]).
    pub format_version: u32,
}

/// `GET /shards` reply.
#[derive(Debug, Serialize, Deserialize)]
pub struct SizesReply {
    /// Byte size of each shard file, indexed by shard number.
    pub sizes: Vec<u64>,
}

/// `POST /shards/{nn}/append` reply.
#[derive(Debug, Serialize, Deserialize)]
pub struct AppendReply {
    /// Lines appended to the shard.
    pub appended: usize,
    /// Lines dropped because their fingerprint was already present.
    pub deduped: usize,
}

/// `POST /leases/{nn}` request body.
#[derive(Debug, Serialize, Deserialize)]
pub struct LeaseRequest {
    /// One of `acquire`, `renew`, `release`.
    pub op: String,
    /// The worker the operation acts for.
    pub owner: String,
    /// The owner's renewal contract (acquire/renew).
    pub ttl_ms: u64,
}

/// `POST /leases/{nn}` acquire reply: one flat object of flags.
#[derive(Debug, Serialize, Deserialize)]
pub struct LeaseReply {
    /// Whether the caller now holds the shard.
    pub acquired: bool,
    /// Whether a stale lease was evicted (by the caller, win or lose).
    pub reclaimed: bool,
    /// Caller evicted a stale lease but lost the follow-up race.
    pub evicted_stale: bool,
    /// The current holder when not acquired.
    pub holder: Option<LeaseInfo>,
}

/// Callback invoked before each transient-failure back-off:
/// `(what, attempt, delay, error)`.
pub(crate) type RetryObserver =
    Box<dyn Fn(&str, u32, std::time::Duration, &io::Error) + Send + Sync>;

/// Optional [`RetryObserver`] with a quiet `Debug` (closures are not
/// `Debug`, and `RemoteStore` is).
#[derive(Default)]
struct ObserverCell(Option<RetryObserver>);

impl std::fmt::Debug for ObserverCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "RetryObserver(set)"
        } else {
            "RetryObserver(unset)"
        })
    }
}

/// A campaign store behind an HTTP campaign server.
#[derive(Debug)]
pub struct RemoteStore {
    url: String,
    client: Mutex<Client>,
    views: ShardViews,
    policy: RetryPolicy,
    seed: u64,
    observer: ObserverCell,
}

/// Strips an optional `http://` scheme and trailing slashes, leaving
/// `host:port` for the TCP client.
fn host_of(url: &str) -> &str {
    url.strip_prefix("http://")
        .unwrap_or(url)
        .trim_end_matches('/')
}

/// Promotes HTTP status classes to I/O errors: 5xx become `TimedOut`
/// (transient — the server may recover), everything else non-2xx is
/// permanent.
fn check(resp: Response, what: &str) -> io::Result<Response> {
    match resp.status {
        200..=299 => Ok(resp),
        500..=599 => Err(io::Error::new(
            io::ErrorKind::TimedOut,
            format!("{what}: server error {}: {}", resp.status, resp.text_body()),
        )),
        409 => Err(io::Error::new(
            io::ErrorKind::PermissionDenied,
            format!("{what}: {}", resp.text_body()),
        )),
        status => Err(io::Error::other(format!(
            "{what}: unexpected status {status}: {}",
            resp.text_body()
        ))),
    }
}

fn bad_reply(what: &str, e: impl std::fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{what}: malformed server reply: {e}"),
    )
}

impl RemoteStore {
    /// Connects to the campaign server at `url` (e.g.
    /// `http://127.0.0.1:7171`) and verifies it hosts `campaign_name`
    /// with a compatible shard count and store format.
    ///
    /// # Errors
    ///
    /// Connection failures (after retries) and identity mismatches.
    pub fn connect(url: &str, campaign_name: &str) -> io::Result<Self> {
        let store = RemoteStore {
            url: url.to_string(),
            client: Mutex::new(Client::new(host_of(url))),
            views: ShardViews::default(),
            policy: RetryPolicy::remote(),
            seed: retry::seed_for(url, 0),
            observer: ObserverCell::default(),
        };
        let resp = store.request("GET", "/campaign", &[], &[], "campaign handshake")?;
        let info: CampaignInfo =
            serde_json::from_str(&resp.text_body()).map_err(|e| bad_reply("handshake", e))?;
        if info.name != campaign_name {
            return Err(io::Error::other(format!(
                "server at {url} hosts campaign `{}`, not `{campaign_name}`",
                info.name
            )));
        }
        if info.shards != SHARDS || info.format_version != FORMAT_VERSION {
            return Err(io::Error::other(format!(
                "server at {url} speaks shards={}/format={}, this client needs \
                 shards={SHARDS}/format={FORMAT_VERSION}",
                info.shards, info.format_version
            )));
        }
        Ok(store)
    }

    /// Installs a retry observer, called before each transient-failure
    /// back-off on any request this store makes — the campaign event log
    /// records retries through this.
    pub fn set_retry_observer(&mut self, observer: RetryObserver) {
        self.observer = ObserverCell(Some(observer));
    }

    /// One request with transient-failure retries; the shared connection
    /// is held across the call, serializing requests from worker threads.
    /// A panic during an earlier request (in a retry observer, say) may
    /// have left its response half-read on the connection: the next
    /// request recovers the lock and starts on a fresh connection.
    fn request(
        &self,
        method: &str,
        target: &str,
        headers: &[(&str, &str)],
        body: &[u8],
        what: &str,
    ) -> io::Result<Response> {
        let mut client = self.client.lock().unwrap_or_else(|poisoned| {
            let mut client = poisoned.into_inner();
            *client = Client::new(client.addr());
            self.client.clear_poison();
            client
        });
        retry::retry_transient(
            &self.policy,
            self.seed,
            what,
            |attempt, delay, e| {
                if let Some(observer) = &self.observer.0 {
                    observer(what, attempt, delay, e);
                }
            },
            || {
                let resp = client.request(method, target, headers, body)?;
                check(resp, what)
            },
        )
    }

    fn lease_op(&self, shard: usize, op: &str, owner: &str, ttl_ms: u64) -> io::Result<Response> {
        let body = serde_json::to_string(&LeaseRequest {
            op: op.to_string(),
            owner: owner.to_string(),
            ttl_ms,
        })
        .expect("lease request serializes");
        self.request(
            "POST",
            &format!("/leases/{shard:02}"),
            &[("content-type", "application/json")],
            body.as_bytes(),
            &format!("{op} lease {shard}"),
        )
    }
}

/// The server's [`Store::read_tail`], so a concurrent append never yields
/// a torn JSON line here either, and an offset past the shard's end is
/// refused there (400), not served.
impl TailSource for RemoteStore {
    fn tail(&self, shard: usize, offset: u64) -> io::Result<ShardTail> {
        let what = format!("read shard {shard}");
        let target = format!("/shards/{shard:02}?offset={offset}");
        let resp = self.request("GET", &target, &[], &[], &what)?;
        let next_offset = resp
            .header_value("x-next-offset")
            .ok_or_else(|| bad_reply(&what, "missing x-next-offset"))?
            .parse()
            .map_err(|e| bad_reply(&what, e))?;
        Ok(ShardTail {
            next_offset,
            bytes: resp.body,
        })
    }
}

impl StoreBackend for RemoteStore {
    fn describe(&self) -> String {
        self.url.clone()
    }

    fn shard_sizes(&self) -> io::Result<Vec<u64>> {
        let resp = self.request("GET", "/shards", &[], &[], "shard sizes")?;
        let reply: SizesReply =
            serde_json::from_str(&resp.text_body()).map_err(|e| bad_reply("shard sizes", e))?;
        if reply.sizes.len() != SHARDS {
            return Err(bad_reply(
                "shard sizes",
                format!("expected {SHARDS} entries, got {}", reply.sizes.len()),
            ));
        }
        Ok(reply.sizes)
    }

    fn shard_fingerprints(&self, shard: usize) -> io::Result<HashSet<u128>> {
        Ok(self.views.refresh(shard, self)?.fingerprints().clone())
    }

    fn append(&self, fp: Fingerprint, record: &Record) -> io::Result<()> {
        let shard = Store::shard_of(fp);
        let line = Store::encode_line(record);
        self.request(
            "POST",
            &format!("/shards/{shard:02}/append"),
            &[("content-type", "application/x-ndjson")],
            line.as_bytes(),
            &format!("append to shard {shard}"),
        )?;
        Ok(())
    }

    fn acquire(&self, shard: usize, owner: &str, ttl_ms: u64) -> io::Result<AcquireOutcome> {
        let resp = self.lease_op(shard, "acquire", owner, ttl_ms)?;
        let what = format!("acquire lease {shard}");
        let reply: LeaseReply =
            serde_json::from_str(&resp.text_body()).map_err(|e| bad_reply(&what, e))?;
        if reply.acquired {
            Ok(AcquireOutcome::Acquired {
                reclaimed: reply.reclaimed,
            })
        } else {
            let holder = reply
                .holder
                .ok_or_else(|| bad_reply(&what, "held reply without holder"))?;
            Ok(AcquireOutcome::Held {
                holder,
                evicted_stale: reply.evicted_stale,
            })
        }
    }

    fn renew(&self, shard: usize, owner: &str, ttl_ms: u64) -> io::Result<()> {
        self.lease_op(shard, "renew", owner, ttl_ms).map(|_| ())
    }

    fn release(&self, shard: usize, owner: &str) -> io::Result<()> {
        self.lease_op(shard, "release", owner, 0).map(|_| ())
    }

    fn snapshot(&self) -> io::Result<HashMap<u128, Record>> {
        self.views.snapshot(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minihttp::Server;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn host_of_strips_scheme_and_slashes() {
        assert_eq!(host_of("http://127.0.0.1:7171/"), "127.0.0.1:7171");
        assert_eq!(host_of("127.0.0.1:7171"), "127.0.0.1:7171");
    }

    #[test]
    fn server_errors_map_to_transient_timeouts() {
        let err = check(Response::text(503, "busy"), "op").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(retry::is_transient(err.kind()));
        let err = check(Response::text(409, "not the owner"), "op").unwrap_err();
        assert!(!retry::is_transient(err.kind()), "conflicts must not retry");
        let err = check(Response::text(404, "nope"), "op").unwrap_err();
        assert!(!retry::is_transient(err.kind()));
        assert!(check(Response::text(200, "ok"), "op").is_ok());
    }

    /// A retry observer that panics poisons the client lock mid-request;
    /// the next request still goes through, on a fresh connection.
    #[test]
    fn a_panicking_retry_observer_does_not_poison_later_requests() {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let (addr, handle) = (server.local_addr().unwrap(), server.handle().unwrap());
        let served = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&served);
        let serving = std::thread::spawn(move || {
            server.serve(move |_| match count.fetch_add(1, Ordering::SeqCst) {
                0 => Response::text(503, "busy"),
                _ => Response::text(200, "ok"),
            })
        });
        let mut store = RemoteStore {
            url: format!("http://{addr}"),
            client: Mutex::new(Client::new(addr.to_string())),
            views: ShardViews::default(),
            policy: RetryPolicy::remote(),
            seed: 0,
            observer: ObserverCell::default(),
        };
        let panicked = AtomicBool::new(false);
        store.set_retry_observer(Box::new(move |_, _, _, _| {
            if !panicked.swap(true, Ordering::SeqCst) {
                panic!("observer panics once");
            }
        }));
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.request("GET", "/x", &[], &[], "first")
        }));
        assert!(first.is_err(), "the observer's panic propagates");
        assert!(store.client.is_poisoned());
        let resp = store.request("GET", "/x", &[], &[], "second").unwrap();
        assert_eq!(resp.text_body(), "ok");
        assert!(!store.client.is_poisoned());
        assert_eq!(served.load(Ordering::SeqCst), 2);
        handle.shutdown();
        serving.join().unwrap().unwrap();
    }
}
