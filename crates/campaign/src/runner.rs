//! The campaign executor: expand → dedupe → consult cache → simulate the
//! misses in parallel (flushing each completed job to its shard) →
//! assemble per-sweep [`Grid`]s.
//!
//! Properties the tests pin down:
//!
//! * **Zero re-simulation**: re-running an identical campaign performs no
//!   simulation at all — every job is a cache hit.
//! * **Resumable**: a run killed part-way leaves a prefix of records on
//!   disk; the next run simulates only the remainder and produces results
//!   identical to an uninterrupted run.
//! * **In-flight dedup**: jobs shared between sweeps (including every
//!   repeated alone-IPC measurement) are simulated once per campaign, not
//!   once per cell.
//! * **Transport-independence**: the distributed drain ([`CampaignClient`])
//!   runs against any [`StoreBackend`] — a shared directory or a campaign
//!   server URL — with identical lease-reclaim semantics and
//!   byte-identical merged grids.

use crate::backend::{AcquireOutcome, BackendLease, StoreBackend};
use crate::events::{Event, EventLog};
use crate::fingerprint::Fingerprint;
use crate::job::Job;
use crate::lease::{self, Renew};
use crate::plan::CampaignPlan;
use crate::retry::{self, RetryPolicy};
use crate::spec::CampaignSpec;
use crate::store::{Record, Store};
use dsarp_sim::experiments::harness::{parallel_map, Grid};
use dsarp_sim::{WarmKey, WarmState};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Cache behaviour of one campaign run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Expanded cells across all sweeps (before any deduplication).
    pub cells: usize,
    /// Distinct fingerprints after in-flight dedup.
    pub unique_jobs: usize,
    /// Unique jobs answered from the store.
    pub cache_hits: usize,
    /// Unique jobs actually simulated this run.
    pub simulated: usize,
    /// Freshly simulated results whose shard append failed (kept in memory
    /// for this run; they will re-simulate next time instead of resuming).
    pub persist_failures: usize,
    /// Functional warm-ups performed: one per distinct warm-up among the
    /// simulated jobs. Every mechanism and density of a synthetic workload
    /// shares one; every trace job warms up its own.
    pub warmups: usize,
}

impl CacheStats {
    /// Cells that reused another cell's simulation within this campaign.
    pub fn deduped_in_flight(&self) -> usize {
        self.cells - self.unique_jobs
    }
}

/// Wall time spent in each phase of a campaign run. Diagnostic only —
/// written into `campaign_report.json`, never into fingerprints, records
/// or grids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct PhaseTiming {
    /// Workload resolution, sweep expansion and cache partition (ms).
    pub expand_ms: u64,
    /// Simulating the cache misses (or draining shards, for merges) (ms).
    pub simulate_ms: u64,
    /// Assembling per-sweep grids from the record store (ms).
    pub assemble_ms: u64,
    /// End-to-end run time (ms).
    pub total_ms: u64,
}

fn elapsed_ms(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_millis()).unwrap_or(u64::MAX)
}

/// The outcome of [`Campaign::run`].
#[derive(Debug, Default)]
pub struct CampaignReport {
    /// One assembled grid per sweep, keyed by sweep name.
    pub grids: BTreeMap<String, Grid>,
    /// Cache behaviour of this run.
    pub stats: CacheStats,
    /// Per-phase wall times of this run.
    pub timing: PhaseTiming,
}

impl CampaignReport {
    /// The grid for `sweep`, panicking with a clear message if the campaign
    /// did not contain it (reducers depend on their sweeps being present).
    pub fn grid(&self, sweep: &str) -> &Grid {
        self.grids
            .get(sweep)
            .unwrap_or_else(|| panic!("campaign report has no sweep `{sweep}`"))
    }
}

/// How a worker process participates in a distributed campaign.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WorkerOptions {
    /// Unique worker identity, written into every lock it takes.
    pub owner: String,
    /// Lease time-to-live: a lock whose heartbeat is older than this is
    /// reclaimable (its owner is presumed dead).
    pub ttl_ms: u64,
    /// How long to sleep between rescans while other live workers hold
    /// every remaining shard.
    pub poll_ms: u64,
    /// Fault-injection hook: sleep this long before each job (used by the
    /// crash-recovery tests to widen the kill window; 0 in production).
    pub job_delay_ms: u64,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            owner: format!("worker-{}", std::process::id()),
            ttl_ms: lease::DEFAULT_TTL_MS,
            poll_ms: 500,
            job_delay_ms: 0,
        }
    }
}

/// What one worker did over a campaign drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct WorkerReport {
    /// Expanded cells across all sweeps (before deduplication).
    pub cells: usize,
    /// Distinct fingerprints after in-flight dedup.
    pub unique_jobs: usize,
    /// Shard leases this worker acquired.
    pub shards_leased: usize,
    /// Dead owners' stale leases this worker evicted (whether or not it
    /// then won the follow-up acquire against a peer).
    pub reclaimed: usize,
    /// Jobs this worker simulated.
    pub simulated: usize,
    /// Rescan rounds spent waiting on other live workers.
    pub wait_rounds: usize,
    /// Shard appends that failed (results recompute next run).
    pub persist_failures: usize,
    /// Functional warm-ups performed, summed over leased shards (see
    /// [`CacheStats::warmups`]).
    pub warmups: usize,
}

/// A key's warm state, once computed, and the jobs yet to copy it.
type Slot = (Arc<OnceLock<WarmState>>, usize);

/// The warm states one [`CellRunner::run`] shares between its jobs, by
/// warm key: the state — computed by the key's first job, waited on by a
/// concurrent one — and how many jobs have yet to take a copy. The last
/// copy drops the entry, so no cache outlives the run and, with jobs run
/// in key order, at most one shared state per worker thread is alive.
///
/// The last job copies too rather than taking the state by move: a moved
/// state stays allocated in the arena of the thread that warmed it up for
/// the whole of that job, while the same thread warms up the next
/// workload beside it — about 1 MB more peak RSS on the perf ledger's
/// `campaign_cold`, against one 768 KB copy per workload.
struct WarmShare {
    slots: Mutex<HashMap<WarmKey, Slot>>,
    /// States computed so far.
    computed: AtomicUsize,
}

impl WarmShare {
    /// An empty slot per key, for that many jobs.
    fn new(jobs_per_key: impl Iterator<Item = (WarmKey, usize)>) -> Self {
        let slots = jobs_per_key.map(|(key, jobs)| (key, (Arc::default(), jobs)));
        WarmShare {
            slots: Mutex::new(slots.collect()),
            computed: AtomicUsize::new(0),
        }
    }

    /// A copy of `key`'s warm state, computed by `warm` if no job has
    /// computed it yet. Every job with the key must take one exactly once.
    fn take(&self, key: &WarmKey, warm: impl FnOnce() -> WarmState) -> WarmState {
        let slots = || self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        let slot = Arc::clone(&slots()[key].0);
        let state = slot.get_or_init(|| {
            self.computed.fetch_add(1, Ordering::Relaxed);
            warm()
        });
        let copy = state.clone();
        let mut slots = slots();
        let left = &mut slots.get_mut(key).expect("a counted key").1;
        *left -= 1;
        if *left == 0 {
            slots.remove(key);
        }
        copy
    }
}

/// What [`CellRunner::run`] did.
struct Ran {
    /// The records, in job order.
    records: Vec<Record>,
    /// Failed appends (those records are still usable in memory this run;
    /// they re-simulate next time instead of resuming).
    append_failures: usize,
    /// [`CacheStats::warmups`].
    warmups: usize,
}

/// The simulate-and-persist loop shared by the single-process executor
/// ([`Campaign::run`]) and a distributed worker's leased drain
/// ([`CampaignClient::run_worker`]).
///
/// Every mechanism and density of a synthetic workload — and every
/// density of an alone-IPC job — starts from the same functional warm-up
/// ([`Job::warm_key`]), so the loop runs jobs grouped by warm key, warms
/// each key up once ([`WarmShare`]) and starts its jobs' systems from
/// copies of that state. Results are identical to warming up per cell;
/// only the order in which records are appended changes. Trace jobs, and
/// a job whose key no other job has, warm up as they build.
struct CellRunner<'a> {
    events: &'a EventLog,
    verbose: bool,
    threads: usize,
    /// The worker identity stamped on progress events; `None` for the
    /// single-process executor.
    owner: Option<&'a str>,
    /// Where to dump one telemetry sidecar per simulated cell, if at all.
    telemetry_dir: Option<&'a Path>,
    per_cycle: bool,
    /// [`WorkerOptions::job_delay_ms`].
    job_delay: Duration,
}

impl CellRunner<'_> {
    /// Simulates `jobs` on the thread pool, grouped by warm key, handing
    /// every completed record to `append` — which flushes it to its shard
    /// — before the thread picks up its next job, so progress survives
    /// kill/restart.
    fn run(
        &self,
        jobs: &[&(Fingerprint, Job)],
        append: impl Fn(Fingerprint, &Record) -> std::io::Result<()> + Sync,
    ) -> Ran {
        let mut keys: Vec<Option<WarmKey>> = jobs.iter().map(|(_, job)| job.warm_key()).collect();
        // Per key, its first job and how many jobs have it.
        let mut shared: HashMap<WarmKey, (usize, usize)> = HashMap::new();
        for (i, key) in keys.iter().enumerate() {
            if let Some(key) = key {
                shared.entry(key.clone()).or_insert((i, 0)).1 += 1;
            }
        }
        // A key no other job has is not shared: its job warms up as it
        // builds, without a copy.
        shared.retain(|_, (_, jobs)| *jobs > 1);
        for key in &mut keys {
            if key.as_ref().is_some_and(|key| !shared.contains_key(key)) {
                *key = None;
            }
        }
        // Jobs sharing a key run adjacent, in order of first appearance.
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by_key(|&i| keys[i].as_ref().map_or(i, |key| shared[key].0));
        let share = WarmShare::new(shared.into_iter().map(|(key, (_, jobs))| (key, jobs)));

        let append_errors = AtomicUsize::new(0);
        let owner = || self.owner.map(str::to_string);
        let mut ran = parallel_map(&order, self.threads, |&i| {
            let (fp, job) = jobs[i];
            if !self.job_delay.is_zero() {
                std::thread::sleep(self.job_delay);
            }
            let t_job = Instant::now();
            let warm = keys[i].as_ref().map(|key| share.take(key, || job.warm()));
            let (record, telemetry) =
                job.run_record(*fp, self.telemetry_dir.is_some(), self.per_cycle, warm);
            if let (Some(dir), Some(telemetry)) = (self.telemetry_dir, telemetry) {
                let path = dir.join(format!("{fp}.json"));
                let doc = serde_json::to_string(&telemetry).expect("telemetry serializes");
                if let Err(e) = std::fs::write(&path, format!("{doc}\n")) {
                    eprintln!(
                        "campaign telemetry: sidecar write failed for {}: {e}",
                        record.label
                    );
                }
            }
            self.events.emit(
                self.verbose,
                &Event::JobSimulated {
                    owner: owner(),
                    shard: Store::shard_of(*fp),
                    label: record.label.clone(),
                    wall_ms: elapsed_ms(t_job),
                },
            );
            if let Err(e) = append(*fp, &record) {
                self.events.emit(
                    self.verbose,
                    &Event::AppendFailed {
                        owner: owner(),
                        shard: Store::shard_of(*fp),
                        label: record.label.clone(),
                        error: e.to_string(),
                    },
                );
                append_errors.fetch_add(1, Ordering::Relaxed);
            }
            (i, record)
        });
        ran.sort_unstable_by_key(|&(i, _)| i);
        let unshared = keys.iter().filter(|key| key.is_none()).count();
        Ran {
            records: ran.into_iter().map(|(_, record)| record).collect(),
            append_failures: append_errors.into_inner(),
            warmups: share.computed.into_inner() + unshared,
        }
    }
}

/// An open campaign: a spec bound to its result store.
#[derive(Debug)]
pub struct Campaign {
    spec: CampaignSpec,
    store: Store,
    /// Print progress lines to stdout while running.
    pub verbose: bool,
    /// Sample simulator telemetry for every cell simulated by
    /// [`Campaign::run`], dumping one JSON sidecar per cell under
    /// `<store dir>/telemetry/<fingerprint>.json`. Sampling is
    /// observationally pure: fingerprints, shard records and grids are
    /// byte-identical either way.
    pub telemetry: bool,
    /// Force per-cycle stepping ([`dsarp_sim::System::run_per_cycle`]) for
    /// every cell simulated by [`Campaign::run`], instead of the default
    /// event-driven skip-ahead loop. The simulator's exactness guarantee
    /// makes the two modes byte-identical in every record, grid and
    /// telemetry sidecar; this switch exists to *demonstrate* that (the CI
    /// smoke diffs a `--no-skip-ahead` cold run against a default cold
    /// run) and to isolate the skip-ahead engine when debugging.
    pub per_cycle: bool,
    events: Arc<EventLog>,
}

impl Campaign {
    /// Opens the campaign's store under `root` and loads cached results.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open(root: &Path, spec: CampaignSpec) -> std::io::Result<Self> {
        let store = Store::open_with(root, &spec.name, &spec)?;
        Ok(Campaign {
            spec,
            store,
            verbose: false,
            telemetry: false,
            per_cycle: false,
            events: Arc::new(EventLog::disabled()),
        })
    }

    /// Attaches a structured event log; every progress event of
    /// subsequent runs is appended to it.
    pub fn set_events(&mut self, events: Arc<EventLog>) {
        self.events = events;
    }

    /// The backing store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Executes every sweep (simulating only uncached jobs) and assembles
    /// the per-sweep grids.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from shard appends.
    pub fn run(&mut self) -> std::io::Result<CampaignReport> {
        let t0 = Instant::now();
        let scale = self.spec.scale;

        // 1. Resolve workloads, expand every sweep, fingerprint every
        //    cell and dedupe identical jobs in flight — once.
        let plan = CampaignPlan::build(&self.spec)?;
        let unique = plan.unique();

        // 2. Partition against the store.
        let views = self.store.refresh_all()?;
        let missing: Vec<&(Fingerprint, Job)> = unique
            .iter()
            .filter(|(fp, _)| !views[Store::shard_of(*fp)].fingerprints().contains(&fp.0))
            .collect();
        drop(views);
        let mut stats = CacheStats {
            cells: plan.cells(),
            unique_jobs: unique.len(),
            cache_hits: unique.len() - missing.len(),
            simulated: missing.len(),
            persist_failures: 0,
            warmups: 0,
        };
        let mut timing = PhaseTiming {
            expand_ms: elapsed_ms(t0),
            ..PhaseTiming::default()
        };
        self.events.emit(
            self.verbose,
            &Event::CampaignPlanned {
                campaign: self.spec.name.clone(),
                cells: stats.cells,
                unique_jobs: stats.unique_jobs,
                deduped: stats.deduped_in_flight(),
                cached: stats.cache_hits,
                to_simulate: stats.simulated,
                threads: scale.resolved_threads(),
            },
        );

        // 3. Simulate the misses, appending each to its shard as it
        //    completes.
        let t_sim = Instant::now();
        let telemetry_dir = if self.telemetry {
            let dir = self.store.dir().join("telemetry");
            std::fs::create_dir_all(&dir)?;
            Some(dir)
        } else {
            None
        };
        let store = &self.store;
        let ran = CellRunner {
            events: &self.events,
            verbose: self.verbose,
            threads: scale.resolved_threads(),
            owner: None,
            telemetry_dir: telemetry_dir.as_deref(),
            per_cycle: self.per_cycle,
            job_delay: Duration::ZERO,
        }
        .run(&missing, |fp, record| store.append(fp, record));
        stats.persist_failures = ran.append_failures;
        stats.warmups = ran.warmups;
        timing.simulate_ms = elapsed_ms(t_sim);
        if stats.persist_failures > 0 {
            self.events.emit(
                self.verbose,
                &Event::PersistFailures {
                    campaign: self.spec.name.clone(),
                    count: stats.persist_failures,
                },
            );
        }
        if stats.simulated > 0 {
            self.events.emit(
                self.verbose,
                &Event::CampaignSimulated {
                    campaign: self.spec.name.clone(),
                    simulated: stats.simulated,
                    warmups: stats.warmups,
                    wall_ms: elapsed_ms(t0),
                },
            );
        }

        // 4. Assemble per-sweep grids over the locked views. A record whose
        //    append failed joins them here, kept in memory for this run.
        let t_asm = Instant::now();
        let grids = {
            let mut views = self.store.refresh_all()?;
            for ((fp, _), record) in missing.iter().zip(ran.records) {
                views[Store::shard_of(*fp)].insert(*fp, record);
            }
            plan.assemble(|fp| views[Store::shard_of(fp)].records().get(&fp.0))?
        };
        timing.assemble_ms = elapsed_ms(t_asm);
        timing.total_ms = elapsed_ms(t0);
        Ok(CampaignReport {
            grids,
            stats,
            timing,
        })
    }
}

/// A [`Renew`] wrapper that records each heartbeat renewal in the event
/// log (success and failure alike; the protocol tolerates failures).
struct ObservedLease<'a> {
    lock: &'a BackendLease<'a>,
    events: &'a EventLog,
    verbose: bool,
    owner: &'a str,
    shard: usize,
}

impl Renew for ObservedLease<'_> {
    fn renew(&self) -> std::io::Result<()> {
        let outcome = self.lock.renew();
        self.events.emit(
            self.verbose,
            &Event::LeaseRenewed {
                owner: self.owner.to_string(),
                shard: self.shard,
                ok: outcome.is_ok(),
            },
        );
        outcome
    }
}

/// Drives a distributed campaign drain through any [`StoreBackend`]: the
/// spec-only counterpart of [`Campaign`] for processes that may have no
/// store directory at all (remote workers reach the shards through a
/// campaign server); a [`LocalBackend`](crate::backend::LocalBackend) is
/// the same drain over a shared directory, so both transports execute the
/// same drain, reclaim and assembly code.
#[derive(Debug)]
pub struct CampaignClient {
    spec: CampaignSpec,
    /// Print progress lines to stdout while running.
    pub verbose: bool,
    events: Arc<EventLog>,
}

impl CampaignClient {
    /// A client for `spec`. No store is opened; every read and write goes
    /// through the backend handed to [`CampaignClient::run_worker`] /
    /// [`CampaignClient::merge`].
    pub fn new(spec: CampaignSpec) -> Self {
        CampaignClient {
            spec,
            verbose: false,
            events: Arc::new(EventLog::disabled()),
        }
    }

    /// Attaches a structured event log; every progress event of
    /// subsequent drains is appended to it.
    pub fn set_events(&mut self, events: Arc<EventLog>) {
        self.events = events;
    }

    /// Participates in a distributed drain of this campaign: repeatedly
    /// leases shards that still contain missing jobs, simulates exactly
    /// those cells (appending to the leased shard only — jobs are
    /// partitioned by [`Store::shard_of`], so no two workers ever append
    /// to the same file), and rescans until every job of the campaign is
    /// in the store, whoever computed it.
    ///
    /// Shards held by other *live* workers are skipped; a lock whose
    /// heartbeat exceeds its owner's recorded TTL is reclaimed and the
    /// dead owner's unfinished cells re-run here. Returns once the
    /// missing-job set is empty.
    ///
    /// # Errors
    ///
    /// Propagates store/lease errors from the backend (for remote
    /// backends, after bounded transient-failure retries).
    pub fn run_worker(
        &self,
        backend: &dyn StoreBackend,
        opts: &WorkerOptions,
    ) -> std::io::Result<WorkerReport> {
        self.drain(backend, &CampaignPlan::build(&self.spec)?, opts)
    }

    /// [`CampaignClient::run_worker`] over an already built plan (shared
    /// with [`CampaignClient::merge`], which also assembles from it).
    fn drain(
        &self,
        backend: &dyn StoreBackend,
        plan: &CampaignPlan,
        opts: &WorkerOptions,
    ) -> std::io::Result<WorkerReport> {
        let threads = self.spec.scale.resolved_threads();
        let mut report = WorkerReport {
            cells: plan.cells(),
            unique_jobs: plan.unique().len(),
            ..WorkerReport::default()
        };
        // Stagger the claim order per owner so concurrent workers start on
        // different shards instead of colliding on shard 0.
        let stagger = opts
            .owner
            .bytes()
            .fold(0usize, |h, b| h.wrapping_mul(31).wrapping_add(b as usize));

        // Jobs not yet observed in the store, grouped by shard. The first
        // rescan round reads every shard once (filtering the cached
        // majority out); later rounds re-read only shards still in play.
        let mut remaining: BTreeMap<usize, Vec<&(Fingerprint, Job)>> = BTreeMap::new();
        for job in plan.unique() {
            remaining
                .entry(Store::shard_of(job.0))
                .or_default()
                .push(job);
        }

        // Shard files only grow, so an unchanged byte size means no new
        // records: rescan rounds re-read a shard only after its size moved.
        let mut seen_size: BTreeMap<usize, u64> = BTreeMap::new();
        loop {
            let sizes = backend.shard_sizes()?;
            let shards: Vec<usize> = remaining.keys().copied().collect();
            for &shard in &shards {
                let size = sizes[shard];
                if seen_size.get(&shard) == Some(&size) {
                    continue;
                }
                seen_size.insert(shard, size);
                let present = backend.shard_fingerprints(shard)?;
                let jobs = remaining.get_mut(&shard).expect("key from remaining");
                jobs.retain(|(fp, _)| !present.contains(&fp.0));
                if jobs.is_empty() {
                    remaining.remove(&shard);
                }
            }
            if remaining.is_empty() {
                return Ok(report);
            }

            let shards: Vec<usize> = remaining.keys().copied().collect();
            let start = stagger % shards.len();
            let mut progressed = false;
            for &shard in shards[start..].iter().chain(&shards[..start]) {
                let jobs = &remaining[&shard];
                match self.acquire_with_retry(backend, shard, opts, &mut report)? {
                    AcquireOutcome::Acquired { reclaimed } => {
                        report.shards_leased += 1;
                        if reclaimed {
                            report.reclaimed += 1;
                        }
                        self.events.emit(
                            self.verbose,
                            &Event::LeaseAcquired {
                                owner: opts.owner.clone(),
                                shard,
                                missing_jobs: jobs.len(),
                                reclaimed,
                            },
                        );
                        let lock = BackendLease::new(backend, shard, &opts.owner, opts.ttl_ms);
                        self.run_leased(backend, &lock, shard, jobs, threads, opts, &mut report)?;
                        lock.release()?;
                        self.events.emit(
                            self.verbose,
                            &Event::LeaseReleased {
                                owner: opts.owner.clone(),
                                shard,
                            },
                        );
                        // Everything in this shard is now in the store:
                        // computed here, or seen during the under-lease
                        // re-read.
                        remaining.remove(&shard);
                        progressed = true;
                    }
                    AcquireOutcome::Held {
                        holder,
                        evicted_stale,
                    } => {
                        if evicted_stale {
                            // This worker evicted a dead owner's lock but a
                            // peer won the follow-up acquire: the reclaim
                            // happened and the credit is ours, the shard is
                            // the peer's.
                            report.reclaimed += 1;
                        }
                        self.events.emit(
                            self.verbose,
                            &Event::LeaseHeld {
                                owner: opts.owner.clone(),
                                shard,
                                holder: holder.owner.clone(),
                                evicted_stale,
                            },
                        );
                    }
                }
            }
            if report.persist_failures > 0 {
                // A worker's results only count once flushed to the shard;
                // retrying against a failing store would re-simulate the
                // same cells forever.
                return Err(std::io::Error::other(format!(
                    "worker `{}`: {} shard appends failed; aborting drain",
                    opts.owner, report.persist_failures
                )));
            }
            if !progressed && !remaining.is_empty() {
                // Everything left is leased by live workers: wait for their
                // appends (or their deaths) to show up on rescan.
                report.wait_rounds += 1;
                self.events.emit(
                    self.verbose,
                    &Event::WaitRound {
                        owner: opts.owner.clone(),
                        rounds: report.wait_rounds,
                    },
                );
                std::thread::sleep(Duration::from_millis(opts.poll_ms));
            }
        }
    }

    /// One lease acquisition, quick-retrying eviction races: a contender
    /// that evicts a stale lock but loses the follow-up `create_new` sees
    /// churning lock state (racing peers may themselves finish and
    /// release within milliseconds), so it re-tries on the short
    /// [`RetryPolicy::lease_race`] schedule before falling back to the
    /// poll cadence. Every eviction is credited to the report, win or
    /// lose.
    fn acquire_with_retry(
        &self,
        backend: &dyn StoreBackend,
        shard: usize,
        opts: &WorkerOptions,
        report: &mut WorkerReport,
    ) -> std::io::Result<AcquireOutcome> {
        let policy = RetryPolicy::lease_race();
        let seed = retry::seed_for(&opts.owner, shard);
        let mut attempt = 0;
        loop {
            match backend.acquire(shard, &opts.owner, opts.ttl_ms)? {
                AcquireOutcome::Held {
                    evicted_stale: true,
                    ..
                } if attempt + 1 < policy.max_attempts => {
                    report.reclaimed += 1;
                    let delay = policy.delay_for(attempt, seed);
                    self.events.emit(
                        self.verbose,
                        &Event::LeaseRetry {
                            owner: opts.owner.clone(),
                            shard,
                            attempt,
                            delay_ms: u64::try_from(delay.as_millis()).unwrap_or(u64::MAX),
                        },
                    );
                    std::thread::sleep(delay);
                    attempt += 1;
                }
                outcome => return Ok(outcome),
            }
        }
    }

    /// Simulates one leased shard's missing jobs on the thread pool,
    /// appending each result as it completes and renewing the lease
    /// heartbeat a few times per TTL.
    ///
    /// The shard is re-read under the lease first: the caller's
    /// missing-set snapshot may predate records a previous lease holder
    /// appended, and only still-missing cells should run.
    #[allow(clippy::too_many_arguments)]
    fn run_leased(
        &self,
        backend: &dyn StoreBackend,
        lock: &BackendLease<'_>,
        shard: usize,
        jobs: &[&(Fingerprint, Job)],
        threads: usize,
        opts: &WorkerOptions,
        report: &mut WorkerReport,
    ) -> std::io::Result<()> {
        let present = backend.shard_fingerprints(shard)?;
        let jobs: Vec<&(Fingerprint, Job)> = jobs
            .iter()
            .copied()
            .filter(|(fp, _)| !present.contains(&fp.0))
            .collect();
        if jobs.is_empty() {
            return Ok(());
        }
        let renew_every = Duration::from_millis((opts.ttl_ms / 4).max(1));
        // The heartbeat runs on its own timer thread so a single slow job
        // can never stale the lease — the TTL only has to cover heartbeat
        // jitter, not job runtime. A failed renew means the lease was
        // stolen after a genuine stall; finishing the in-flight jobs is
        // still safe (records are content-addressed and deterministic, so
        // the successor's appends are byte-identical duplicates).
        let heartbeat = lease::Heartbeat::new();
        let observed = ObservedLease {
            lock,
            events: &self.events,
            verbose: self.verbose,
            owner: &opts.owner,
            shard,
        };
        let ran = std::thread::scope(|s| {
            s.spawn(|| heartbeat.run(&[&observed], renew_every));
            // Stopped via Drop, not a trailing statement: if a job panics,
            // thread::scope must still join the heartbeat thread, which
            // would otherwise renew a doomed worker's lease forever and
            // make the shard unreclaimable.
            let _stop = heartbeat.stopper();
            CellRunner {
                events: &self.events,
                verbose: self.verbose,
                threads,
                owner: Some(&opts.owner),
                telemetry_dir: None,
                per_cycle: false,
                job_delay: Duration::from_millis(opts.job_delay_ms),
            }
            .run(&jobs, |fp, record| backend.append(fp, record))
        });
        report.simulated += jobs.len();
        report.persist_failures += ran.append_failures;
        report.warmups += ran.warmups;
        Ok(())
    }

    /// The coordinator step of a distributed campaign: drains the
    /// missing-job set (waiting out live leases, reclaiming dead ones and
    /// re-running their unfinished cells locally), then snapshots every
    /// shard and assembles per-sweep grids exactly as [`Campaign::run`]
    /// does — byte-identical output, whichever workers computed the
    /// records and whichever transport carried them.
    ///
    /// # Errors
    ///
    /// Propagates store/lease errors from the backend.
    pub fn merge(
        &self,
        backend: &dyn StoreBackend,
        opts: &WorkerOptions,
    ) -> std::io::Result<(CampaignReport, WorkerReport)> {
        let t0 = Instant::now();
        let plan = CampaignPlan::build(&self.spec)?;
        let expand_ms = elapsed_ms(t0);
        let t_drain = Instant::now();
        let worker = self.drain(backend, &plan, opts)?;
        let simulate_ms = elapsed_ms(t_drain);
        // Snapshot every shard — including records other workers appended
        // during the drain — before assembling.
        let t_asm = Instant::now();
        let records = backend.snapshot()?;
        let stats = CacheStats {
            cells: worker.cells,
            unique_jobs: worker.unique_jobs,
            // Everything this process did not simulate itself was answered
            // from the store, whether it predated the merge or was computed
            // by a peer during the drain.
            cache_hits: worker.unique_jobs - worker.simulated,
            simulated: worker.simulated,
            persist_failures: worker.persist_failures,
            warmups: worker.warmups,
        };
        let grids = plan.assemble(|fp| records.get(&fp.0))?;
        let timing = PhaseTiming {
            expand_ms,
            simulate_ms,
            assemble_ms: elapsed_ms(t_asm),
            total_ms: elapsed_ms(t0),
        };
        Ok((
            CampaignReport {
                grids,
                stats,
                timing,
            },
            worker,
        ))
    }
}
