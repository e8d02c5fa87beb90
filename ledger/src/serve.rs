//! `serve_mix`: an in-process campaign server on a loopback socket and one
//! client thread issuing a seeded mix of cell reads, appends, shard-tail
//! reads and lease cycles over keep-alive connections. For the traced run:
//! per-request-class spans, the handler called without a socket, and a
//! whole worker drain over HTTP beside the same drain over the directory.

use crate::bench::{measure, median, percentile, repeat, Checks, Ctx, Outcome, Rng};
use crate::campaign::{cold_spec, populate, synthetic_records, unique_jobs};
use crate::trace::Tracer;
use dsarp_campaign::{
    AcquireOutcome, CampaignClient, CampaignSpec, Fingerprint, LocalBackend, Record, RemoteStore,
    Store, StoreBackend, WorkerOptions,
};
use dsarp_serve::CampaignServer;
use minihttp::{Client, Request, Server, ServerHandle};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

const OWNER: &str = "ledger";
const LEASE_TTL_MS: u64 = 60_000;

/// A campaign server running on its own thread until [`Served::stop`].
struct Served {
    dir: PathBuf,
    campaign_dir: PathBuf,
    url: String,
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Served {
    fn start(dir: PathBuf, spec: CampaignSpec) -> Served {
        let http = Server::bind("127.0.0.1:0").expect("loopback port binds");
        let addr = http.local_addr().expect("bound socket has an address");
        let handle = http.handle().expect("bound socket has an address");
        let server = CampaignServer::new(&dir, spec).expect("scratch store opens");
        let campaign_dir = server.campaign_dir().to_path_buf();
        let thread = std::thread::spawn(move || server.serve(http));
        Served {
            dir,
            campaign_dir,
            url: format!("http://{addr}"),
            handle,
            thread,
        }
    }

    /// Stops the accept loop through the `minihttp` handle and waits for
    /// it; connection threads end when their client drops its socket.
    fn stop(self) -> bool {
        self.handle.shutdown();
        let clean = matches!(self.thread.join(), Ok(Ok(())));
        let _ = std::fs::remove_dir_all(&self.dir);
        clean
    }
}

/// One live server with both client connections open.
struct Session {
    served: Served,
    remote: RemoteStore,
    cells: Client,
    retries: Arc<AtomicU64>,
}

fn connect(ctx: &Ctx, spec: &CampaignSpec, records: &[(Fingerprint, Record)]) -> Session {
    let dir = ctx.fresh_dir("serve");
    populate(&dir, spec, records);
    let served = Served::start(dir, spec.clone());
    let mut remote = RemoteStore::connect(&served.url, &spec.name).expect("own server answers");
    let retries = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&retries);
    remote.set_retry_observer(Box::new(move |_, _, _, _| {
        seen.fetch_add(1, Ordering::Relaxed);
    }));
    let mut cells = Client::new(served.url.trim_start_matches("http://"));
    cells
        .request("GET", "/healthz", &[], &[])
        .expect("own server answers");
    Session {
        served,
        remote,
        cells,
        retries,
    }
}

/// What the timed region hands to the checks.
struct Mix {
    session: Session,
    latencies_us: Vec<f64>,
    appended: usize,
}

/// The request mix: 49% conditional cell reads (304), 20% cell reads (200),
/// 20% appends of a fresh record, 10% shard-tail reads at the client's last
/// offset, 1% lease acquire → renew → release. `draws` requests are drawn;
/// a lease cycle is three of them. Lease cycles are kept rare, as they are
/// in a drain (one per shard): each costs some twenty cell reads, nearly
/// all of it lock-file create/rename/unlink, and at 5% the filesystem's
/// noise was most of the workload's.
fn request_mix(
    ctx: &Ctx,
    mut session: Session,
    records: &[(Fingerprint, Record)],
    tracer: &Tracer,
    checks: &mut Checks,
) -> Mix {
    let draws = ctx.size(20_000);
    let mut rng = Rng(ctx.seed);
    let mut latencies_us = Vec::with_capacity(draws as usize + 2);
    let mut appended = 0;
    let mut sent = 0;
    while sent < draws {
        let class = rng.below(100);
        let (fp, stored) = &records[rng.below(records.len() as u64) as usize];
        let shard = rng.below(dsarp_campaign::store::SHARDS as u64) as usize;
        let start = Instant::now();
        let requests = match class {
            0..49 => {
                let path = format!("/cells/{fp}");
                let etag = format!("\"{fp}\"");
                let resp = tracer.span("serve", "serve.cells_get_304", || {
                    session
                        .cells
                        .request("GET", &path, &[("if-none-match", &etag)], &[])
                });
                checks.expect(resp.is_ok_and(|r| r.status == 304), || {
                    format!("conditional GET {path} was not a 304")
                });
                1
            }
            49..69 => {
                let path = format!("/cells/{fp}");
                let resp = tracer.span("serve", "serve.cells_get_200", || {
                    session.cells.request("GET", &path, &[], &[])
                });
                let body_matches = resp.is_ok_and(|r| {
                    r.status == 200
                        && serde_json::from_str::<Record>(&r.text_body()).ok().as_ref()
                            == Some(stored)
                });
                checks.expect(body_matches, || {
                    format!("GET {path} did not return the stored record")
                });
                1
            }
            69..89 => {
                let fresh = Fingerprint(u128::from(rng.next()) << 64 | u128::from(rng.next()));
                let record = Record::alone(fresh, format!("fresh/{appended}"), 1.5);
                let result = tracer.span("serve", "serve.append_post", || {
                    session.remote.append(fresh, &record)
                });
                appended += 1;
                checks.expect(result.is_ok(), || format!("append of {fresh} failed"));
                1
            }
            89..99 => {
                let result = tracer.span("serve", "serve.shard_tail_get", || {
                    session.remote.shard_fingerprints(shard)
                });
                checks.expect(result.is_ok(), || {
                    format!("tail read of shard {shard} failed")
                });
                1
            }
            _ => {
                let remote = &session.remote;
                let cycled = tracer.span("serve", "serve.lease_cycle", || {
                    matches!(
                        remote.acquire(shard, OWNER, LEASE_TTL_MS),
                        Ok(AcquireOutcome::Acquired { .. })
                    ) && remote.renew(shard, OWNER, LEASE_TTL_MS).is_ok()
                        && remote.release(shard, OWNER).is_ok()
                });
                checks.expect(cycled, || format!("lease cycle on shard {shard} failed"));
                checks.passed(2);
                3
            }
        };
        // A lease cycle is three requests, each timed as a third of it.
        let each_us = start.elapsed().as_secs_f64() * 1e6 / requests as f64;
        latencies_us.extend(std::iter::repeat_n(each_us, requests));
        tracer.count("serve.requests", requests as f64);
        sent += requests as u64;
    }
    Mix {
        session,
        latencies_us,
        appended,
    }
}

/// What the repetition loop saw of the slow side of the mix.
#[derive(Default)]
struct Tails {
    /// Transient-failure retries the remote store client made.
    retries: u64,
    /// The 99th-percentile request latency of each repetition, µs.
    p99s: Vec<f64>,
}

fn reps(
    ctx: &Ctx,
    seconds: f64,
    spec: &CampaignSpec,
    records: &[(Fingerprint, Record)],
    tracer: &Tracer,
    checks: &mut Checks,
) -> (Outcome, Tails) {
    let mut out = Outcome::default();
    let mut tails = Tails::default();
    let mut p50s = Vec::new();
    let mut requests = 0.0;
    // The mix borrows the checks while timed; the after-checks reuse them.
    let checks = std::cell::RefCell::new(checks);
    repeat(
        ctx,
        seconds,
        tracer,
        &mut out,
        || connect(ctx, spec, records),
        |session| request_mix(ctx, session, records, tracer, &mut checks.borrow_mut()),
        |rep, mix| {
            let mut checks = checks.borrow_mut();
            requests = mix.latencies_us.len() as f64;
            // One median and one tail per repetition keeps memory, and so
            // peak RSS, independent of how many repetitions fit the run.
            p50s.push(median(&mix.latencies_us));
            tails.p99s.push(percentile(&mix.latencies_us, 0.99));
            tails.retries += mix.session.retries.load(Ordering::Relaxed);
            let stored = Store::read_all(&mix.session.served.campaign_dir).map(|all| all.len());
            let expected = records.len() + mix.appended;
            checks.expect(stored.as_ref().ok() == Some(&expected), || {
                format!("repetition {rep}: store holds {stored:?} records, expected {expected}")
            });
            let Session {
                served,
                remote,
                cells,
                ..
            } = mix.session;
            drop((remote, cells));
            checks.expect(served.stop(), || {
                format!("repetition {rep}: server did not shut down cleanly")
            });
        },
    );
    out.work_per_rep = requests;
    out.op_us = p50s;
    (out, tails)
}

extern "C" {
    /// glibc: `int sched_setaffinity(pid_t, size_t, const cpu_set_t *)`.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins this thread, and so every thread it spawns from now on, to the
/// last CPU it is allowed to run on. Client and server then hand each
/// request over with a context switch on one core. Left to the scheduler
/// they land on two CPUs, and every hand-over becomes a cross-CPU wake-up
/// whose cost belongs to the hypervisor: on the 2-vCPU sandbox identical
/// runs swung between 9 k and 26 k requests per second.
fn pin_to_one_cpu() {
    let allowed = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status
                .lines()
                .find(|l| l.starts_with("Cpus_allowed_list:"))?;
            let list = line.split_whitespace().nth(1)?;
            // The last one: CPU 0 also takes the interrupts.
            let last = list.split([',', '-']).next_back()?;
            last.parse::<usize>().ok()
        });
    let Some(cpu) = allowed.filter(|cpu| *cpu < 1024) else {
        eprintln!("ledger: serve_mix: cannot read the allowed CPUs; not pinned");
        return;
    };
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialized 128-byte buffer, the size passed
    // is exactly its size, and the call only reads it; pid 0 names the
    // calling thread.
    let status = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if status != 0 {
        eprintln!("ledger: serve_mix: sched_setaffinity failed; not pinned");
    }
}

pub fn run(ctx: &Ctx, checks: &mut Checks, tracer: &Tracer) -> Outcome {
    pin_to_one_cpu();
    let spec = cold_spec(ctx);
    let records = synthetic_records(&unique_jobs(&spec), ctx.seed);
    // Only the last loop's tails are read: the traced one's.
    let mut tails = Tails::default();
    let (mut out, traced) = measure(ctx, tracer, |seconds| {
        let (out, loop_tails) = reps(ctx, seconds, &spec, &records, tracer, checks);
        tails = loop_tails;
        out
    });
    let Some(traced) = traced else {
        return out;
    };
    let class_us = |span: &str| median(&tracer.durations_ns(span)) / 1e3;
    let handle_ns = drive_handler(ctx, &spec, &records, tracer, checks);
    let cell_reads: Vec<f64> = ["serve.cells_get_304", "serve.cells_get_200"]
        .iter()
        .flat_map(|span| tracer.durations_ns(span))
        .collect();
    let remote_overhead = drive_drain(ctx, tracer, checks);
    let l = &mut out.layer;
    l.insert(
        "serve.requests",
        traced.work_per_rep * traced.timed_s.len() as f64,
    );
    l.insert("serve.cells_get_200_us", class_us("serve.cells_get_200"));
    l.insert("serve.cells_get_304_us", class_us("serve.cells_get_304"));
    l.insert("serve.append_post_us", class_us("serve.append_post"));
    l.insert("serve.shard_tail_get_us", class_us("serve.shard_tail_get"));
    l.insert("serve.lease_cycle_us", class_us("serve.lease_cycle"));
    l.insert(
        "serve.req_p99_us",
        tails.p99s.iter().copied().fold(f64::INFINITY, f64::min),
    );
    l.insert("serve.handle_ns", handle_ns);
    l.insert(
        "minihttp.roundtrip_us",
        median(&cell_reads) / 1e3 - handle_ns / 1e3,
    );
    l.insert("serve.retries", tails.retries as f64);
    l.insert("serve.remote_overhead_pct", remote_overhead);
    out
}

/// `CampaignServer::handle` called directly — no socket, no HTTP parsing —
/// over the workload's cell-read mix; returns ns per call.
fn drive_handler(
    ctx: &Ctx,
    spec: &CampaignSpec,
    records: &[(Fingerprint, Record)],
    tracer: &Tracer,
    checks: &mut Checks,
) -> f64 {
    let dir = ctx.fresh_dir("handler");
    populate(&dir, spec, records);
    let server = CampaignServer::new(&dir, spec.clone()).expect("scratch store opens");
    let mut rng = Rng(ctx.seed);
    let calls = ctx.size(20_000);
    let requests: Vec<(Request, u16)> = (0..calls)
        .map(|_| {
            let (fp, _) = &records[rng.below(records.len() as u64) as usize];
            // 49 conditional reads to every 20 plain ones, as in the mix.
            let conditional = rng.below(69) < 49;
            let headers = if conditional {
                vec![("if-none-match".to_string(), format!("\"{fp}\""))]
            } else {
                Vec::new()
            };
            let request = Request {
                method: "GET".into(),
                path: format!("/cells/{fp}"),
                query: Vec::new(),
                headers,
                body: Vec::new(),
            };
            (request, if conditional { 304 } else { 200 })
        })
        .collect();
    let expected = tracer.span("serve", "serve.handle", || {
        requests
            .iter()
            .filter(|(request, status)| black_box(server.handle(request)).status == *status)
            .count()
    });
    checks.expect(expected == requests.len(), || {
        format!(
            "{expected} of {} direct handler calls had the expected status",
            requests.len()
        )
    });
    median(&tracer.durations_ns("serve.handle")) / calls as f64
}

/// One `CampaignClient::run_worker` drain of a short-cell spec through
/// `RemoteStore`, and the same drain through `LocalBackend`: how small the
/// HTTP share is when real simulation sits behind it.
fn drive_drain(ctx: &Ctx, tracer: &Tracer, checks: &mut Checks) -> f64 {
    let mut spec = cold_spec(ctx);
    spec.scale.dram_cycles = ctx.size(2_000);
    spec.scale.alone_cycles = ctx.size(2_000);
    spec.scale.warmup_ops = ctx.size(2_000);
    let jobs = unique_jobs(&spec).len();
    let client = CampaignClient::new(spec.clone());
    let options = WorkerOptions {
        owner: OWNER.into(),
        poll_ms: 10,
        ..WorkerOptions::default()
    };

    let served = Served::start(ctx.fresh_dir("drain-remote"), spec.clone());
    let remote = RemoteStore::connect(&served.url, &spec.name).expect("own server answers");
    let over_http = tracer.span("serve", "serve.drain_remote", || {
        client.run_worker(&remote, &options)
    });
    drop(remote);
    checks.expect(served.stop(), || {
        "drain server did not shut down cleanly".into()
    });

    let dir = ctx.fresh_dir("drain-local");
    let local = LocalBackend::open(&dir, &spec.name).expect("scratch store opens");
    let over_dir = tracer.span("serve", "serve.drain_local", || {
        client.run_worker(&local, &options)
    });
    for (how, report) in [("remote", over_http), ("local", over_dir)] {
        checks.expect(report.is_ok_and(|r| r.simulated == jobs), || {
            format!("{how} drain did not simulate all {jobs} jobs")
        });
    }
    let ns = |span: &str| median(&tracer.durations_ns(span));
    (ns("serve.drain_remote") / ns("serve.drain_local") - 1.0) * 100.0
}
