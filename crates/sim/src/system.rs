//! The full-system simulation loop: cores + LLC + controllers + DRAM.
//!
//! The system steps at DRAM command-clock granularity; within each DRAM
//! cycle the cores micro-step 6 CPU cycles (4 GHz over DDR3-1333's
//! 666.67 MHz command clock).

use crate::config::SimConfig;
use crate::telemetry::SimTelemetry;
use dsarp_core::{Completion, ControllerStats, MemoryController, Request};
use dsarp_cpu::{
    AccessResult, Core, Llc, LlcParams, LlcResult, LlcStats, MemKind, MemoryInterface, TraceSource,
};
use dsarp_dram::{
    Cycle, DramChannel, EnergyBreakdown, Geometry, IddValues, PowerModel, CPU_CYCLES_PER_DRAM_CYCLE,
};
use dsarp_workloads::{BenchmarkSpec, SyntheticTrace, Workload};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Results of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Per-core instruction counts.
    pub insts: Vec<u64>,
    /// Per-core IPC over the run.
    pub ipc: Vec<f64>,
    /// CPU cycles simulated.
    pub cpu_cycles: u64,
    /// DRAM cycles simulated.
    pub dram_cycles: u64,
    /// Per-channel controller statistics.
    pub ctrl: Vec<ControllerStats>,
    /// LLC statistics.
    pub llc: LlcStats,
    /// Total DRAM energy across channels.
    pub energy: EnergyBreakdown,
    /// Internal-behavior telemetry, when [`SystemBuilder::telemetry`] was
    /// set; `None` (and free) otherwise. Telemetry is observationally
    /// pure: every other field is identical with or without it.
    pub telemetry: Option<Box<SimTelemetry>>,
}

impl RunStats {
    /// Sum of per-core IPCs (throughput).
    pub fn total_ipc(&self) -> f64 {
        self.ipc.iter().sum()
    }

    /// Total reads + writes serviced by DRAM.
    pub fn accesses(&self) -> u64 {
        self.ctrl.iter().map(|c| c.reads_done + c.writes_done).sum()
    }

    /// Total refresh commands issued (both granularities).
    pub fn refreshes(&self) -> u64 {
        self.ctrl
            .iter()
            .map(|c| c.refab_issued + c.refpb_issued)
            .sum()
    }

    /// Average read latency in DRAM cycles across channels.
    pub fn avg_read_latency(&self) -> f64 {
        let (sum, n) = self.ctrl.iter().fold((0u64, 0u64), |(s, n), c| {
            (s + c.read_latency_sum, n + c.reads_done)
        });
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// Energy per memory access serviced, in nanojoules (Figure 14 metric).
    pub fn energy_per_access_nj(&self) -> f64 {
        self.energy.per_access_nj()
    }
}

/// How [`System::run`] and [`System::run_per_cycle`] spent their
/// iterations (cumulative, like [`RunStats`]) — how much of the run the
/// event-driven loop actually skipped. Kept out of [`RunStats`]: it describes
/// the simulator, not the simulated machine, and differs between the two
/// run modes by design.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopStats {
    /// Loop iterations, i.e. DRAM cycles actually visited.
    pub iterations: u64,
    /// Controller steps made.
    pub controller_steps: u64,
    /// Controller steps per-cycle stepping would have made and the loop
    /// did not: `controller_steps + controller_steps_elided` is always
    /// `channels x cycles`.
    pub controller_steps_elided: u64,
    /// Iterations after which the clock advanced by more than one cycle.
    pub clock_jumps: u64,
    /// Cycles never visited (the sum of those advances, less one each).
    pub cycles_jumped: u64,
    /// `Core::step` calls made by the loop: every core every CPU cycle
    /// under [`System::run_per_cycle`]; under [`System::run`], one per
    /// cycle a core is due on the agenda (its next possible LLC access),
    /// the cycles in between fast-forwarded by [`Core::advance`].
    pub core_micro_steps: u64,
}

/// Telemetry sampling state. The contract is one sample per channel per DRAM
/// cycle against post-command state; a channel's samples only change when
/// it steps or accepts a request, so each channel carries a cursor and the
/// cycles it slept through are folded in arithmetically
/// ([`Sampler::catch_up`]) just before either happens. A step's own cycle
/// is the one-cycle span folded in right after it.
struct Sampler {
    /// Per-cycle samples only; counter-derived fields are filled at
    /// collect time.
    acc: Box<SimTelemetry>,
    /// Per channel, the first cycle not yet sampled.
    sampled: Vec<Cycle>,
}

impl Sampler {
    /// (ranks, banks per rank) of a channel: the shape of its slice of
    /// `acc.banks`.
    fn shape(chan: &DramChannel) -> (usize, usize) {
        let geom = chan.geometry();
        (geom.ranks_per_channel(), geom.banks_per_rank())
    }

    /// Folds in channel `ci`'s samples for the cycles before `upto` it has
    /// not been sampled at, against its state frozen since the last one.
    fn catch_up(&mut self, ci: usize, mc: &MemoryController, chan: &DramChannel, upto: Cycle) {
        let from = self.sampled[ci];
        if from >= upto {
            return;
        }
        self.sampled[ci] = upto;
        let span = upto - from;
        let tel = &mut self.acc;
        tel.read_queue_depth
            .observe_n(mc.queues().read_len() as u64, span);
        tel.write_queue_depth
            .observe_n(mc.queues().write_len() as u64, span);
        let (ranks, banks) = Self::shape(chan);
        for r in 0..ranks {
            let rank = chan.rank(r);
            let refab_until = rank.refab_until();
            for b in 0..banks {
                let bank = rank.bank(b);
                // Over the frozen span, the bank is refresh-blocked (its
                // own window or its rank's `REFab`) exactly at `c <
                // blocked_until`.
                let blocked_until = bank.refresh_until().max(refab_until);
                let blocked = blocked_until.saturating_sub(from).min(span);
                let bt = &mut tel.banks[(ci * ranks + r) * banks + b];
                bt.refresh_blocked_cycles += blocked;
                if !bank.is_closed() {
                    bt.busy_cycles += span - blocked;
                }
            }
        }
    }
}

/// Bridge between the cores and the memory hierarchy: LLC lookup, miss
/// routing to the right channel's controller, writeback spill handling.
struct MemBridge<'a> {
    llc: &'a mut Llc,
    mcs: &'a mut [MemoryController],
    chans: &'a [DramChannel],
    sampler: Option<&'a mut Sampler>,
    geom: &'a Geometry,
    now: Cycle,
    next_token: &'a mut u64,
    wb_spill: &'a mut VecDeque<Request>,
    max_spill: &'a mut usize,
}

impl MemBridge<'_> {
    /// This cycle's sample precedes the cores' accesses, so a channel that
    /// slept through it is caught up before a request changes its queues.
    fn before_enqueue(&mut self, ch: usize) {
        if let Some(sampler) = &mut self.sampler {
            sampler.catch_up(ch, &self.mcs[ch], &self.chans[ch], self.now + 1);
        }
    }

    fn push_writeback(&mut self, addr: u64) {
        let loc = self.geom.decode(addr);
        let id = *self.next_token;
        *self.next_token += 1;
        let req = Request::write(id, loc, usize::MAX, self.now);
        self.before_enqueue(loc.channel);
        if !self.mcs[loc.channel].try_enqueue_write(req) {
            self.wb_spill.push_back(req);
            *self.max_spill = (*self.max_spill).max(self.wb_spill.len());
        }
    }
}

impl MemoryInterface for MemBridge<'_> {
    fn access(&mut self, core: usize, addr: u64, is_store: bool) -> AccessResult {
        let line = addr & !63u64;
        let loc = self.geom.decode(line);
        // Backpressure *before* touching the LLC: a fill waits while its
        // channel's read queue is at capacity, unless a queued write
        // forwards it, and a rejected fill must not leave the line
        // installed.
        let queues = self.mcs[loc.channel].queues();
        if queues.read_len() >= queues.read_cap() && !queues.forwards_read(&loc) {
            return AccessResult::Busy;
        }
        match self.llc.access(line, is_store) {
            LlcResult::Hit => AccessResult::Hit,
            LlcResult::Miss { writeback } => {
                let id = *self.next_token;
                *self.next_token += 1;
                self.before_enqueue(loc.channel);
                let ok =
                    self.mcs[loc.channel].try_enqueue_read(Request::read(id, loc, core, self.now));
                debug_assert!(ok, "capacity checked above");
                if let Some(wb) = writeback {
                    self.push_writeback(wb);
                }
                AccessResult::Miss(id)
            }
        }
    }
}

/// The first CPU cycle whose step may make an LLC access: `core` provably
/// makes none through its quiet span ([`Core::quiet_span`]).
fn due(core: &Core) -> u64 {
    core.cycles()
        .saturating_add(core.quiet_span())
        .saturating_add(1)
}

/// What a functional warm-up reads of a build — nothing else of its
/// configuration reaches it, so every mechanism and density of a
/// workload starts from the same [`WarmState`]. Builds with equal keys
/// can share one warm-up ([`SystemBuilder::warm_key`]); a state is only
/// accepted by a build with its key ([`SystemBuilder::warmed`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WarmKey {
    cores: usize,
    seed: u64,
    warmup_ops: u64,
    llc_bytes: usize,
    /// The first `cores` benchmarks of the workload, one per core.
    benchmarks: Vec<BenchmarkSpec>,
}

// Benchmark parameters are never NaN, so equality is reflexive.
impl Eq for WarmKey {}

impl std::hash::Hash for WarmKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (self.cores, self.seed, self.warmup_ops, self.llc_bytes).hash(state);
        // Equal benchmarks have equal names (unique in the catalogue).
        for bench in &self.benchmarks {
            bench.name.hash(state);
        }
    }
}

impl WarmKey {
    /// # Panics
    ///
    /// Panics if the workload has fewer benchmarks than configured cores.
    fn new(cfg: &SimConfig, wl: &Workload) -> Self {
        assert!(
            wl.benchmarks.len() >= cfg.cores,
            "workload {} has {} benchmarks for {} cores",
            wl.name,
            wl.benchmarks.len(),
            cfg.cores
        );
        Self {
            cores: cfg.cores,
            seed: cfg.seed,
            warmup_ops: cfg.warmup_ops,
            llc_bytes: cfg.llc_bytes(),
            benchmarks: wl.benchmarks[..cfg.cores].iter().map(|b| **b).collect(),
        }
    }

    /// The first input in which `self` and `other` differ.
    fn differs_from(&self, other: &Self) -> Option<&'static str> {
        [
            ("cores", self.cores == other.cores),
            ("seed", self.seed == other.seed),
            ("warmup_ops", self.warmup_ops == other.warmup_ops),
            ("llc_bytes", self.llc_bytes == other.llc_bytes),
            ("benchmarks", self.benchmarks == other.benchmarks),
        ]
        .into_iter()
        .find_map(|(name, same)| (!same).then_some(name))
    }
}

/// A synthetic workload's system after its functional warm-up and before
/// cycle 0: the primed LLC and each core's trace advanced past the
/// operations that primed it. [`SystemBuilder::warm`] computes it and
/// [`SystemBuilder::warmed`] starts a system from it, so the cells of a
/// sweep that differ only in mechanism or density — or in anything else
/// the warm-up never reads — share one warm-up by cloning the state.
#[derive(Debug, Clone)]
pub struct WarmState {
    key: WarmKey,
    llc: Llc,
    traces: Vec<SyntheticTrace>,
}

/// The functional warm-up, the one routine both stream kinds go through:
/// each trace's first `cfg.warmup_ops` memory operations, core by core,
/// through a fresh LLC with no timing. Short timed runs then observe
/// steady-state cache behaviour, as the paper's long runs do.
fn prime<'t, T: TraceSource + ?Sized + 't>(
    cfg: &SimConfig,
    traces: impl IntoIterator<Item = &'t mut T>,
) -> Llc {
    let mut llc = Llc::new(LlcParams {
        capacity_bytes: cfg.llc_bytes(),
        assoc: 16,
        line_bytes: 64,
    });
    for trace in traces {
        for _ in 0..cfg.warmup_ops {
            let op = trace.next_op();
            llc.access(op.addr & !63, op.kind == MemKind::Store);
        }
    }
    llc.reset_stats();
    llc
}

/// Builds a [`System`]: configuration, then trace sources, then
/// observability toggles, then [`SystemBuilder::build`].
///
/// Building is a functional warm-up followed by assembly. For a
/// [`workload`](Self::workload) the warm-up can be split off:
/// [`warm`](Self::warm) runs it once, and any number of builders whose
/// configurations differ only in what it never reads (mechanism, density,
/// geometry, timing, queues, core parameters) start from a clone of the
/// result through [`warmed`](Self::warmed), with results identical to
/// their own `build()`. A state warmed for anything else is refused with a
/// panic, never simulated.
///
/// ```
/// use dsarp_core::Mechanism;
/// use dsarp_dram::Density;
/// use dsarp_sim::{SimConfig, SystemBuilder};
/// use dsarp_workloads::mixes;
///
/// let cfg = SimConfig::paper(Mechanism::Dsarp, Density::G8);
/// let wl = mixes::intensive_mixes(8, 1)[0].clone();
/// let mut sys = SystemBuilder::new(&cfg).workload(&wl).telemetry(true).build();
/// let stats = sys.run(1_000);
/// assert!(stats.telemetry.is_some());
///
/// // REFab at 32 Gb starts from the same warm-up as DSARP at 8 Gb.
/// let shared = SystemBuilder::new(&cfg).workload(&wl).warm();
/// let refab = SimConfig::paper(Mechanism::RefAb, Density::G32);
/// let fresh = SystemBuilder::new(&refab).workload(&wl).build().run(1_000);
/// let mut reused = SystemBuilder::new(&refab).workload(&wl).warmed(shared).build();
/// assert_eq!(reused.run(1_000), fresh);
/// ```
pub struct SystemBuilder<'a> {
    cfg: &'a SimConfig,
    workload: Option<&'a Workload>,
    sources: Option<Vec<Box<dyn TraceSource>>>,
    warm: Option<WarmState>,
    telemetry: bool,
    command_log: bool,
}

impl<'a> SystemBuilder<'a> {
    /// Starts a builder for `cfg`. Provide exactly one instruction stream
    /// before building: [`Self::workload`] (synthetic generators) or
    /// [`Self::trace_sources`] (explicit per-core sources).
    pub fn new(cfg: &'a SimConfig) -> Self {
        Self {
            cfg,
            workload: None,
            sources: None,
            warm: None,
            telemetry: false,
            command_log: false,
        }
    }

    /// Drives each core with a synthetic trace generated from `workload`
    /// (one benchmark per core). Replaces any earlier stream choice.
    pub fn workload(mut self, workload: &'a Workload) -> Self {
        self.workload = Some(workload);
        self.sources = None;
        self
    }

    /// Drives the cores with explicit trace sources (one per core, in core
    /// order) — the trace-driven path. Replaces any earlier stream choice.
    pub fn trace_sources(mut self, sources: Vec<Box<dyn TraceSource>>) -> Self {
        self.sources = Some(sources);
        self.workload = None;
        self
    }

    /// Enables per-cycle telemetry sampling (bank busy/refresh-blocked
    /// cycles, read-queue depth) plus counter-derived refresh and
    /// row-locality breakdowns in [`RunStats::telemetry`]. Sampling never
    /// influences scheduling, so results are identical either way.
    ///
    /// The sampling contract is **once per channel per DRAM cycle**,
    /// against post-command state; for the cycles [`System::run`] lets a
    /// channel sleep through, the identical per-cycle samples are folded in
    /// arithmetically (`crate::telemetry::DepthHistogram::observe_n`), so
    /// the histogram and bank counters are byte-identical to per-cycle
    /// stepping.
    pub fn telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Enables DRAM command logging on every channel
    /// ([`System::take_command_log`]).
    pub fn command_log(mut self, on: bool) -> Self {
        self.command_log = on;
        self
    }

    /// Starts the system from `state` instead of warming up: `build` then
    /// only assembles. Results are identical to warming up afresh.
    ///
    /// `build` panics unless a [`workload`](Self::workload) is the stream
    /// and `state` was warmed from exactly what that build would warm from
    /// — the workload's first `cores` benchmarks, `cores`, `seed`,
    /// `warmup_ops` and the LLC capacity. The check runs in every profile:
    /// a state warmed for another cell is a panic naming the first input
    /// that differs, not a silently wrong simulation.
    pub fn warmed(mut self, state: WarmState) -> Self {
        self.warm = Some(state);
        self
    }

    /// Runs the functional warm-up [`build`](Self::build) starts with and
    /// returns its result, for any number of [`warmed`](Self::warmed)
    /// builds to start from.
    ///
    /// # Panics
    ///
    /// Panics unless a [`workload`](Self::workload) is the stream (trace
    /// sources are consumed by the one system they warm), or if it has
    /// fewer benchmarks than configured cores.
    pub fn warm(&self) -> WarmState {
        let cfg = self.cfg;
        let key = self.warm_key();
        let mut traces: Vec<SyntheticTrace> = key
            .benchmarks
            .iter()
            .enumerate()
            .map(|(i, bench)| SyntheticTrace::new(bench, i, cfg.cores, cfg.seed))
            .collect();
        let llc = prime(cfg, &mut traces);
        WarmState { key, llc, traces }
    }

    /// What [`warm`](Self::warm) would warm up from: builds with equal
    /// keys can start from one state.
    ///
    /// # Panics
    ///
    /// As [`warm`](Self::warm).
    pub fn warm_key(&self) -> WarmKey {
        let wl = self
            .workload
            .expect("SystemBuilder::warm: provide a workload");
        WarmKey::new(self.cfg, wl)
    }

    /// Builds the system: the functional warm-up — the first
    /// `cfg.warmup_ops` memory operations of each core's stream prime the
    /// LLC with no timing before cycle 0 — or the [`warmed`](Self::warmed)
    /// state, then assembly.
    ///
    /// # Panics
    ///
    /// Panics if no instruction stream was provided, if a workload has
    /// fewer benchmarks than configured cores, if fewer trace sources
    /// than cores were given, or on a warm state that does not match (see
    /// [`warmed`](Self::warmed)).
    pub fn build(mut self) -> System {
        let cfg = self.cfg;
        let (llc, sources): (Llc, Vec<Box<dyn TraceSource>>) = match self.sources.take() {
            Some(mut sources) => {
                assert!(
                    self.warm.is_none(),
                    "SystemBuilder: a warm state needs a workload, not trace sources"
                );
                assert!(
                    sources.len() >= cfg.cores,
                    "{} trace sources for {} cores",
                    sources.len(),
                    cfg.cores
                );
                sources.truncate(cfg.cores);
                (prime(cfg, sources.iter_mut().map(|s| &mut **s)), sources)
            }
            None => {
                assert!(
                    self.workload.is_some(),
                    "SystemBuilder: provide a workload or trace sources"
                );
                let state = match self.warm.take() {
                    Some(state) => {
                        if let Some(input) = state.key.differs_from(&self.warm_key()) {
                            panic!(
                                "SystemBuilder::warmed: the state was warmed for another \
                                 cell (its `{input}` differs from this build's)"
                            );
                        }
                        state
                    }
                    None => self.warm(),
                };
                let traces = state.traces.into_iter();
                let sources = traces.map(|t| Box::new(t) as Box<dyn TraceSource>);
                (state.llc, sources.collect())
            }
        };
        self.assemble(llc, sources)
    }

    /// Wires warmed-up `llc` and `sources` (one per core, already advanced
    /// past the warm-up) to fresh controllers and channels.
    fn assemble(self, llc: Llc, sources: Vec<Box<dyn TraceSource>>) -> System {
        let cfg = self.cfg;
        let geom = cfg.geometry();
        let timing = cfg.timing();
        let cores = sources
            .into_iter()
            .enumerate()
            .map(|(i, trace)| Core::new(i, cfg.core_params, trace))
            .collect();
        let mcs = (0..geom.channels())
            .map(|ch| {
                let mc = MemoryController::new(ch, geom, timing, cfg.mechanism, cfg.seed);
                match cfg.drain_watermarks {
                    Some((enter, exit)) => {
                        mc.with_queues(dsarp_core::RequestQueues::new(64, 64, enter, exit))
                    }
                    None => mc,
                }
            })
            .collect();
        let chans = (0..geom.channels())
            .map(|_| {
                let mut ch = DramChannel::new(geom, timing, cfg.mechanism.sarp_support());
                if cfg.ablate_sarp_throttle {
                    ch.disable_power_throttle();
                }
                if self.command_log {
                    ch.enable_command_log();
                }
                ch
            })
            .collect();
        let telemetry = self.telemetry.then(|| Sampler {
            acc: Box::new(SimTelemetry::for_geometry(
                geom.channels(),
                geom.ranks_per_channel(),
                geom.banks_per_rank(),
            )),
            sampled: vec![0; geom.channels()],
        });
        System {
            cores,
            llc,
            mcs,
            chans,
            geom,
            next_token: 1,
            wb_spill: VecDeque::new(),
            max_spill: 0,
            now: 0,
            telemetry,
            loop_stats: LoopStats::default(),
        }
    }
}

/// The simulated system. Construct with [`SystemBuilder`], drive with
/// [`System::run`] (event-driven skip-ahead) or [`System::run_per_cycle`]
/// (forced per-cycle stepping; same results, slower).
pub struct System {
    cores: Vec<Core>,
    llc: Llc,
    mcs: Vec<MemoryController>,
    chans: Vec<DramChannel>,
    geom: Geometry,
    next_token: u64,
    wb_spill: VecDeque<Request>,
    max_spill: usize,
    now: Cycle,
    telemetry: Option<Sampler>,
    loop_stats: LoopStats,
}

impl System {
    /// Drains the command log of channel `ch`.
    pub fn take_command_log(&mut self, ch: usize) -> Vec<(Cycle, dsarp_dram::Command)> {
        self.chans[ch].take_command_log()
    }

    /// Runs for `dram_cycles` more DRAM cycles and returns cumulative
    /// stats, visiting only the cycles at which something is due.
    ///
    /// Every component has exactly one wake cycle. The cores share one
    /// agenda: each is due at the CPU cycle of its next possible LLC access
    /// ([`Core::quiet_span`]) and touches no shared state before it. The
    /// cores due in a visited DRAM cycle are taken in (due, core index)
    /// order — the CPU-major order of per-cycle stepping — and each is
    /// fast-forwarded ([`Core::advance`]) to its due cycle, stepped once and
    /// re-planned; a completion addressed to a core catches it up and
    /// re-plans it. A controller is due at its [`MemoryController::wake`]
    /// and is not stepped before it. Spilled writebacks retry every cycle.
    /// The clock moves to the earliest wake and only the components due
    /// there are touched; the per-cycle telemetry samples a sleeping
    /// channel misses are folded in arithmetically. Every wake is a
    /// conservative lower bound — waking early costs only time — so results
    /// are **exactly** those of [`System::run_per_cycle`], field for field.
    pub fn run(&mut self, dram_cycles: u64) -> RunStats {
        self.run_loop(dram_cycles, true)
    }

    /// Runs for `dram_cycles` more DRAM cycles stepping every core and every
    /// controller at every single cycle. Exposed for exactness tests and as
    /// the CLI's `--no-skip-ahead` mode; results equal [`System::run`].
    pub fn run_per_cycle(&mut self, dram_cycles: u64) -> RunStats {
        self.run_loop(dram_cycles, false)
    }

    /// How the run loop has spent its iterations so far.
    pub fn loop_stats(&self) -> LoopStats {
        self.loop_stats
    }

    fn run_loop(&mut self, dram_cycles: u64, skip: bool) -> RunStats {
        let end = self.now + dram_cycles;
        let channels = self.mcs.len() as u64;
        let mut completions: Vec<Completion> = Vec::with_capacity(16);
        // Each core's agenda entry, its due CPU cycle (`run` only).
        let mut dues: Vec<u64> = self.cores.iter().map(due).collect();
        while self.now < end {
            let now = self.now;

            // Drain spilled writebacks into freed write-queue slots (this
            // cycle's step sees them, so a sleeping channel's samples up to
            // the previous cycle are folded in first).
            while let Some(&req) = self.wb_spill.front() {
                let ch = req.loc.channel;
                if let Some(sampler) = &mut self.telemetry {
                    sampler.catch_up(ch, &self.mcs[ch], &self.chans[ch], now);
                }
                if !self.mcs[ch].try_enqueue_write(req) {
                    break;
                }
                self.wb_spill.pop_front();
            }

            // Step each due channel's controller (one command per channel).
            // Per-cycle mode is the reference: the plain `step`, every
            // controller, every cycle.
            completions.clear();
            let mut stepped = 0;
            for (ci, (mc, chan)) in self.mcs.iter_mut().zip(self.chans.iter_mut()).enumerate() {
                if skip && mc.wake() > now {
                    continue;
                }
                if let Some(sampler) = &mut self.telemetry {
                    sampler.catch_up(ci, mc, chan, now);
                }
                if skip {
                    mc.step_and_rearm(chan, now, &mut completions);
                } else {
                    mc.step(chan, now, &mut completions);
                }
                if let Some(sampler) = &mut self.telemetry {
                    sampler.catch_up(ci, mc, chan, now + 1);
                }
                stepped += 1;
            }
            for c in &completions {
                if c.core != usize::MAX {
                    // A completion ends the target core's quiet span: catch
                    // the core up to this cycle, deliver at the same CPU
                    // time per-cycle stepping would have, and re-plan it.
                    let core = &mut self.cores[c.core];
                    core.advance(now * CPU_CYCLES_PER_DRAM_CYCLE - core.cycles());
                    core.complete(c.id);
                    dues[c.core] = due(core);
                }
            }
            let cores_wake = if skip {
                self.step_due_cores(now, &mut dues)
            } else {
                self.step_every_core(now);
                now + 1
            };

            // Move to the earliest wake: the cores', each controller's own
            // (already pulled back by whatever the cores just enqueued),
            // and the next cycle while a spilled writeback waits to retry.
            let mut wake = end.min(cores_wake);
            for mc in &self.mcs {
                wake = wake.min(mc.wake());
            }
            if !self.wb_spill.is_empty() {
                wake = now + 1;
            }
            self.now = wake.max(now + 1);

            let span = self.now - now;
            let stats = &mut self.loop_stats;
            stats.iterations += 1;
            stats.controller_steps += stepped;
            stats.controller_steps_elided += channels * span - stepped;
            stats.clock_jumps += u64::from(span > 1);
            stats.cycles_jumped += span - 1;
        }
        // Catch every core and sampler up so reported stats cover every
        // cycle.
        for core in &mut self.cores {
            core.advance(end * CPU_CYCLES_PER_DRAM_CYCLE - core.cycles());
        }
        if let Some(sampler) = &mut self.telemetry {
            for (ci, (mc, chan)) in self.mcs.iter().zip(self.chans.iter()).enumerate() {
                sampler.catch_up(ci, mc, chan, end);
            }
        }
        self.collect()
    }

    /// Runs the cores through DRAM cycle `now` off one agenda: `dues[i]` is
    /// the CPU cycle of core `i`'s next possible LLC access ([`due`]).
    /// Every core due by the end of the cycle is fast-forwarded
    /// ([`Core::advance`]) to just before its due cycle, stepped once and
    /// re-planned, in (due, core index) order — exactly the CPU-major
    /// order in which [`Self::step_every_core`] steps them, so the LLC and
    /// the queues see the same traffic in the same order. Returns the DRAM
    /// cycle of the earliest due left.
    fn step_due_cores(&mut self, now: Cycle, dues: &mut [u64]) -> Cycle {
        const PHASES: u64 = CPU_CYCLES_PER_DRAM_CYCLE;
        let last = (now + 1) * PHASES;
        let (cores, mut bridge) = self.split(now);
        let mut steps = 0;
        let wake = loop {
            // `min_by_key` keeps the first minimum: ties go to the lower
            // core index.
            let next = dues.iter().enumerate().min_by_key(|&(_, &d)| d);
            let Some((i, &at)) = next.filter(|&(_, &d)| d <= last) else {
                break next.map_or(Cycle::MAX, |(_, &d)| (d - 1) / PHASES);
            };
            let core = &mut cores[i];
            core.advance(at - 1 - core.cycles());
            core.step(&mut bridge);
            dues[i] = due(core);
            steps += 1;
        };
        self.loop_stats.core_micro_steps += steps;
        wake
    }

    /// The reference: steps every core through each CPU cycle of DRAM
    /// cycle `now`, cycle by cycle, in core order.
    fn step_every_core(&mut self, now: Cycle) {
        let (cores, mut bridge) = self.split(now);
        for _ in 0..CPU_CYCLES_PER_DRAM_CYCLE {
            for core in cores.iter_mut() {
                core.step(&mut bridge);
            }
        }
        self.loop_stats.core_micro_steps += CPU_CYCLES_PER_DRAM_CYCLE * self.cores.len() as u64;
    }

    /// The cores, and the memory system they access in DRAM cycle `now`.
    fn split(&mut self, now: Cycle) -> (&mut [Core], MemBridge<'_>) {
        let bridge = MemBridge {
            llc: &mut self.llc,
            mcs: &mut self.mcs,
            chans: &self.chans,
            sampler: self.telemetry.as_mut(),
            geom: &self.geom,
            now,
            next_token: &mut self.next_token,
            wb_spill: &mut self.wb_spill,
            max_spill: &mut self.max_spill,
        };
        (&mut self.cores, bridge)
    }

    fn collect(&mut self) -> RunStats {
        for c in &mut self.chans {
            c.finalize_energy(self.now);
        }
        let timing = *self.chans[0].timing();
        let pm = PowerModel::new(
            IddValues::micron_8gb_ddr3_1333(),
            timing.tck_ps,
            self.geom.ranks_per_channel(),
        );
        let mut energy = EnergyBreakdown::default();
        for c in &self.chans {
            let e = pm.energy(c.energy_counters(), &timing);
            energy.act_pre_nj += e.act_pre_nj;
            energy.read_nj += e.read_nj;
            energy.write_nj += e.write_nj;
            energy.refresh_nj += e.refresh_nj;
            energy.background_nj += e.background_nj;
            energy.accesses += e.accesses;
        }
        // Fill the counter-derived telemetry fields from cumulative stats.
        // The stored accumulator only ever carries the per-cycle samples,
        // so assigning fresh totals keeps repeated `run` calls consistent.
        let telemetry = self.telemetry.as_ref().map(|sampler| {
            let mut t = sampler.acc.clone();
            t.dram_cycles = self.now;
            let mut refreshes = crate::telemetry::RefreshTelemetry::default();
            let mut sched = dsarp_core::SchedulerScan::default();
            let (mut hits, mut misses, mut conflicts) = (0, 0, 0);
            for (mc, chan) in self.mcs.iter().zip(self.chans.iter()) {
                let s = mc.stats();
                sched.merge(mc.scheduler_scan());
                refreshes.refab += s.refab_issued;
                refreshes.refpb += s.refpb_issued;
                refreshes.sarp_parallel_acts += chan.sarp_parallel_acts();
                hits += s.row_hits;
                misses += s.acts;
                conflicts += mc.row_conflicts();
                if let Some(darp) = mc.darp_stats() {
                    refreshes.darp_forced += darp.forced;
                    refreshes.darp_write_parallelized += darp.write_parallelized;
                    refreshes.darp_opportunistic += darp.opportunistic;
                    refreshes.darp_postponed_catchup += darp.postponed_catchup;
                    refreshes.darp_pulled_in += darp.pulled_in;
                }
            }
            t.refreshes = refreshes;
            t.row_hits = hits;
            t.row_misses = misses;
            t.row_conflicts = conflicts;
            t.scheduler = sched;
            t
        });
        RunStats {
            insts: self.cores.iter().map(|c| c.retired()).collect(),
            ipc: self.cores.iter().map(|c| c.ipc()).collect(),
            cpu_cycles: self.now * CPU_CYCLES_PER_DRAM_CYCLE,
            dram_cycles: self.now,
            ctrl: self.mcs.iter().map(|m| *m.stats()).collect(),
            llc: *self.llc.stats(),
            energy,
            telemetry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsarp_core::Mechanism;
    use dsarp_dram::Density;
    use dsarp_workloads::mixes;
    use proptest::prelude::*;

    fn intensive_workload() -> Workload {
        mixes::intensive_mixes(8, 1)[0].clone()
    }

    #[test]
    fn cores_make_progress_and_dram_serves() {
        let cfg = SimConfig::paper(Mechanism::RefAb, Density::G8);
        let mut sys = SystemBuilder::new(&cfg)
            .workload(&intensive_workload())
            .build();
        let stats = sys.run(20_000);
        assert!(stats.total_ipc() > 0.1, "ipc = {}", stats.total_ipc());
        assert!(stats.accesses() > 100, "accesses = {}", stats.accesses());
        assert!(stats.refreshes() > 0);
        assert!(stats.energy.total_nj() > 0.0);
    }

    #[test]
    fn writes_eventually_drain() {
        // A small LLC fills quickly, so dirty evictions (writebacks) start
        // early and the drain machinery is exercised within the short run.
        let mut cfg = SimConfig::paper(Mechanism::RefPb, Density::G8);
        cfg.llc_capacity = Some(128 * 1024);
        let mut sys = SystemBuilder::new(&cfg)
            .workload(&intensive_workload())
            .build();
        let stats = sys.run(50_000);
        let writes: u64 = stats.ctrl.iter().map(|c| c.writes_done).sum();
        assert!(writes > 0, "store-heavy workload must produce writebacks");
        assert!(stats.llc.writebacks > 0);
    }

    /// Backpressure must follow the controller's *own* read capacity: with
    /// 16-entry read queues the bridge has to answer `Busy` at 16, not at
    /// the paper's 64, or a fill is rejected after its line was installed.
    #[test]
    fn backpressure_follows_the_controllers_read_capacity() {
        let cfg = SimConfig::paper(Mechanism::Darp, Density::G8);
        let small = |mut sys: System| {
            sys.mcs = std::mem::take(&mut sys.mcs)
                .into_iter()
                .map(|mc| mc.with_queues(dsarp_core::RequestQueues::new(16, 64, 48, 32)))
                .collect();
            sys
        };
        let mk = || {
            small(
                SystemBuilder::new(&cfg)
                    .workload(&intensive_workload())
                    .build(),
            )
        };
        let mut sys = mk();
        let stats = sys.run(10_000);
        for (ch, ctrl) in stats.ctrl.iter().enumerate() {
            assert_eq!(ctrl.read_rejects, 0, "channel {ch} rejected a checked fill");
            assert!(ctrl.reads_done > 100, "channel {ch} starved");
        }
        let busy: u64 = sys
            .cores
            .iter()
            .map(|c| c.stats().mem_busy_stall_cycles)
            .sum();
        assert!(busy > 0, "the run never filled a 16-entry read queue");
        // A core the bridge refuses asks again every cycle, in both modes.
        assert_eq!(stats, mk().run_per_cycle(10_000));
    }

    #[test]
    fn no_refresh_beats_refab_on_intensive_mix() {
        let wl = intensive_workload();
        let mut a = SystemBuilder::new(&SimConfig::paper(Mechanism::NoRefresh, Density::G32))
            .workload(&wl)
            .build();
        let mut b = SystemBuilder::new(&SimConfig::paper(Mechanism::RefAb, Density::G32))
            .workload(&wl)
            .build();
        let sa = a.run(40_000);
        let sb = b.run(40_000);
        assert!(
            sa.total_ipc() > sb.total_ipc(),
            "no-refresh {} must beat REFab {}",
            sa.total_ipc(),
            sb.total_ipc()
        );
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let cfg = SimConfig::paper(Mechanism::Dsarp, Density::G16);
        let wl = intensive_workload();
        let s1 = SystemBuilder::new(&cfg).workload(&wl).build().run(10_000);
        let s2 = SystemBuilder::new(&cfg).workload(&wl).build().run(10_000);
        assert_eq!(s1, s2);
    }

    #[test]
    fn explicit_trace_sources_match_synthetic_construction() {
        // Feeding the same op streams through `trace_sources` must be
        // indistinguishable from the synthetic path `workload` builds — the
        // property the trace-driven campaign workloads rest on.
        let cfg = SimConfig::paper(Mechanism::Dsarp, Density::G8)
            .with_cores(2)
            .with_warmup_ops(200);
        let wl = mixes::intensive_mixes(2, 1)[0].clone();
        let cycles = 5_000;
        // Enough ops to cover warmup + the run without wrapping: a core
        // retires at most 18 instructions per DRAM cycle, one per op
        // minimum.
        let need = 200 + 18 * cycles as usize;
        let sources: Vec<Box<dyn TraceSource>> = (0..2)
            .map(|i| {
                let mut synth = SyntheticTrace::new(wl.benchmarks[i], i, 2, cfg.seed);
                let ops: Vec<_> = (0..need).map(|_| synth.next_op()).collect();
                Box::new(dsarp_cpu::trace::CyclicTrace::new(ops)) as Box<dyn TraceSource>
            })
            .collect();
        let from_sources = SystemBuilder::new(&cfg)
            .trace_sources(sources)
            .build()
            .run(cycles);
        let synthetic = SystemBuilder::new(&cfg).workload(&wl).build().run(cycles);
        assert_eq!(from_sources, synthetic);
    }

    #[test]
    #[should_panic(expected = "provide a workload or trace sources")]
    fn builder_requires_an_instruction_stream() {
        let cfg = SimConfig::paper(Mechanism::RefAb, Density::G8);
        let _ = SystemBuilder::new(&cfg).build();
    }

    /// The panic message of `f`, which must panic.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("expected a panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    /// A state warmed from anything the build would not warm from is
    /// refused by name, whichever input differs; so is one handed to a
    /// trace-driven build, and `warm` without a workload.
    #[test]
    fn warm_state_for_another_cell_is_refused() {
        let wl = mixes::intensive_mixes(4, 1)[0].clone();
        let cfg = SimConfig::paper(Mechanism::Dsarp, Density::G8)
            .with_cores(4)
            .with_warmup_ops(300);
        let shared = SystemBuilder::new(&cfg).workload(&wl).warm();
        let mut other_benchmarks = wl.clone();
        other_benchmarks.benchmarks.swap(0, 1);
        let mut smaller_llc = cfg;
        smaller_llc.llc_capacity = Some(1 << 20);
        let cases = [
            ("cores", cfg.with_cores(2), &wl),
            ("seed", cfg.with_seed(7), &wl),
            ("warmup_ops", cfg.with_warmup_ops(301), &wl),
            ("llc_bytes", smaller_llc, &wl),
            ("benchmarks", cfg, &other_benchmarks),
        ];
        for (input, cfg, wl) in cases {
            let message = panic_message(|| {
                SystemBuilder::new(&cfg)
                    .workload(wl)
                    .warmed(shared.clone())
                    .build();
            });
            assert!(
                message.contains("warmed for another cell") && message.contains(input),
                "{input}: {message}"
            );
        }
        let message = panic_message(|| {
            SystemBuilder::new(&cfg)
                .trace_sources(channel0_store_sources(&cfg))
                .warmed(shared.clone())
                .build();
        });
        assert!(message.contains("needs a workload"), "{message}");
        let message = panic_message(|| {
            SystemBuilder::new(&cfg)
                .trace_sources(channel0_store_sources(&cfg))
                .warm();
        });
        assert!(message.contains("provide a workload"), "{message}");
        // And the matching configuration is accepted.
        SystemBuilder::new(&cfg.with_subarrays(64))
            .workload(&wl)
            .warmed(shared)
            .build();
    }

    /// Skip-ahead vs forced per-cycle stepping across every mechanism
    /// family on a memory-intensive mix: cumulative stats (including
    /// telemetry, down to every histogram bucket) must be equal field for
    /// field.
    #[test]
    fn skip_ahead_matches_per_cycle_intensive() {
        for mech in [
            Mechanism::NoRefresh,
            Mechanism::RefAb,
            Mechanism::RefPb,
            Mechanism::Elastic,
            Mechanism::AdaptiveRefresh,
            Mechanism::Fgr2x,
            Mechanism::Darp,
            Mechanism::Dsarp,
        ] {
            let cfg = SimConfig::paper(mech, Density::G8);
            let wl = intensive_workload();
            let mk = || {
                SystemBuilder::new(&cfg)
                    .workload(&wl)
                    .telemetry(true)
                    .build()
            };
            let fast = mk().run(15_000);
            let slow = mk().run_per_cycle(15_000);
            assert_eq!(fast, slow, "{mech:?} diverged");
        }
    }

    /// The payoff case: a 0%-intensive mix leaves long dead spans between
    /// memory events; results must still be exact.
    #[test]
    fn skip_ahead_matches_per_cycle_low_mpki() {
        let wl = mixes::paper_workloads(8, 1)[0].clone(); // category P0
        for mech in [Mechanism::RefAb, Mechanism::Dsarp] {
            let cfg = SimConfig::paper(mech, Density::G32);
            let mk = || {
                SystemBuilder::new(&cfg)
                    .workload(&wl)
                    .telemetry(true)
                    .build()
            };
            let fast = mk().run(15_000);
            let slow = mk().run_per_cycle(15_000);
            assert_eq!(fast, slow, "{mech:?} diverged");
        }
    }

    /// The extreme payoff case: every core runs the compute-bound
    /// archetype, so nearly all cycles sit inside multi-cycle dead spans
    /// and the DRAM clock jumps constantly (this is the regime the
    /// throughput bench measures). Stresses the whole-system jump and
    /// batched-telemetry paths, which intensive mixes rarely reach.
    #[test]
    fn skip_ahead_matches_per_cycle_compute_bound() {
        let wl = Workload {
            name: "compute".into(),
            category: mixes::IntensityCategory::P0,
            benchmarks: vec![&dsarp_workloads::catalogue::COMPUTE_BOUND; 8],
        };
        for mech in [Mechanism::RefAb, Mechanism::Dsarp] {
            let cfg = SimConfig::paper(mech, Density::G32);
            let mk = || {
                SystemBuilder::new(&cfg)
                    .workload(&wl)
                    .telemetry(true)
                    .build()
            };
            let fast = mk().run(30_000);
            let slow = mk().run_per_cycle(30_000);
            assert_eq!(fast, slow, "{mech:?} diverged");
        }
    }

    /// Explicit sources whose every address decodes to channel 0: mostly
    /// stores scattered over ranks, banks and rows, so every fill evicts a
    /// dirty line and the writebacks conflict in the banks, while channel 1
    /// never sees a request.
    fn channel0_store_sources(cfg: &SimConfig) -> Vec<Box<dyn TraceSource>> {
        let geom = cfg.geometry();
        (0..cfg.cores as u64)
            .map(|core| {
                let mut x = 0x9E37_79B9_7F4A_7C15 ^ (core + 1);
                let mut draw = |n: usize| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (x >> 33) as usize % n
                };
                let ops: Vec<_> = (0..4096)
                    .map(|i| {
                        let loc = dsarp_dram::Location {
                            channel: 0,
                            rank: draw(geom.ranks_per_channel()),
                            bank: draw(geom.banks_per_rank()),
                            row: draw(geom.rows_per_bank()) as u32,
                            col: draw(geom.cols_per_row()) as u32,
                        };
                        dsarp_cpu::TraceOp {
                            bubbles: draw(3) as u32,
                            kind: if i % 8 == 0 {
                                dsarp_cpu::MemKind::Load
                            } else {
                                dsarp_cpu::MemKind::Store
                            },
                            addr: geom.encode(&loc),
                            dependent: false,
                        }
                    })
                    .collect();
                Box::new(dsarp_cpu::trace::CyclicTrace::new(ops)) as Box<dyn TraceSource>
            })
            .collect()
    }

    /// A controller asleep while cores are active: all traffic lands on
    /// channel 0, so channel 1 sleeps through channel 0's enqueues, drains
    /// and spill retries (a drain-entry watermark one below the queue's
    /// capacity lets the writebacks of reads already in flight overflow
    /// it). Stats (telemetry included, every histogram bucket) must still
    /// equal per-cycle stepping.
    #[test]
    fn skip_ahead_matches_per_cycle_one_channel_asleep() {
        for mech in [
            Mechanism::RefAb,
            Mechanism::RefPb,
            Mechanism::Elastic,
            Mechanism::AdaptiveRefresh,
            Mechanism::Darp,
            Mechanism::SarpPb,
            Mechanism::Dsarp,
        ] {
            let mut cfg = SimConfig::paper(mech, Density::G8)
                .with_warmup_ops(4096)
                .with_drain_watermarks(63, 32);
            cfg.llc_capacity = Some(128 * 1024);
            let mk = || {
                SystemBuilder::new(&cfg)
                    .trace_sources(channel0_store_sources(&cfg))
                    .telemetry(true)
                    .build()
            };
            let mut sys = mk();
            let fast = sys.run(12_000);
            assert_eq!(fast, mk().run_per_cycle(12_000), "{mech:?} diverged");
            // The scenario is the one described, not a quieter one.
            assert!(
                sys.mcs[0].queues().drain_entries() > 0,
                "{mech:?}: no drain"
            );
            assert!(sys.max_spill > 0, "{mech:?}: write queue never overflowed");
            assert_eq!(fast.ctrl[1].reads_done + fast.ctrl[1].writes_done, 0);
            let stats = sys.loop_stats();
            assert!(
                stats.controller_steps < stats.iterations * 3 / 2,
                "{mech:?}: channel 1 was stepped alongside channel 0: {stats:?}"
            );
        }
    }

    /// Cores that are due on the same CPU cycle are stepped in core order,
    /// as per-cycle stepping steps them. Four cores issue one memory op per
    /// CPU cycle each, in lockstep, into a one-set LLC (16 ways) over a
    /// shared pool of 24 lines: on every tie, which core misses, which hits
    /// the line the other just installed and which line is evicted depend
    /// on the order the cores are taken in.
    #[test]
    fn skip_ahead_matches_per_cycle_on_same_cycle_set_conflicts() {
        let mut cfg = SimConfig::paper(Mechanism::Darp, Density::G32)
            .with_cores(4)
            .with_warmup_ops(64);
        cfg.llc_capacity = Some(16 * 64);
        let sources = || -> Vec<Box<dyn TraceSource>> {
            (0..4u64)
                .map(|core| {
                    let mut x = 0x2545_F491_4F6C_DD1D ^ core;
                    let ops: Vec<_> = (0..2048)
                        .map(|i| {
                            x = x
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            dsarp_cpu::TraceOp {
                                // Two bubbles and the op fill one cycle's
                                // three issue slots.
                                bubbles: 2,
                                kind: if i % 4 == 0 {
                                    dsarp_cpu::MemKind::Store
                                } else {
                                    dsarp_cpu::MemKind::Load
                                },
                                addr: (x >> 33) % 24 * 0x2_0040,
                                dependent: false,
                            }
                        })
                        .collect();
                    Box::new(dsarp_cpu::trace::CyclicTrace::new(ops)) as Box<dyn TraceSource>
                })
                .collect()
        };
        let mk = || {
            SystemBuilder::new(&cfg)
                .trace_sources(sources())
                .telemetry(true)
                .build()
        };
        let fast = mk().run(6_000);
        assert_eq!(fast, mk().run_per_cycle(6_000));
        // The scenario is the one described: the set both hits and evicts.
        assert!(fast.llc.hits > 0 && fast.llc.misses > 0, "{:?}", fast.llc);
        assert!(fast.llc.writebacks > 0, "{:?}", fast.llc);
    }

    /// `run` and `run_per_cycle` mixed on one `System` equal one long
    /// `run`: a controller wake or telemetry cursor carried across calls
    /// must not go stale over a per-cycle chunk.
    #[test]
    fn skip_ahead_is_chunk_invariant_across_modes() {
        let cfg = SimConfig::paper(Mechanism::Dsarp, Density::G32);
        for wl in [
            mixes::paper_workloads(8, 1)[0].clone(), // P0: long sleeps
            intensive_workload(),
        ] {
            let mk = || {
                SystemBuilder::new(&cfg)
                    .workload(&wl)
                    .telemetry(true)
                    .build()
            };
            let whole = mk().run(4_000 + 3_000 + 1 + 2_999);
            let mut mixed = mk();
            mixed.run(4_000);
            mixed.run_per_cycle(3_000);
            mixed.run(1);
            assert_eq!(whole, mixed.run(2_999), "{} diverged", wl.name);
        }
    }

    /// What the loop reports about itself: per-cycle stepping makes exactly
    /// `channels x cycles` controller steps and never jumps; on the
    /// compute-bound archetype `run` makes at most a quarter of them for
    /// the same `RunStats`.
    #[test]
    fn skip_ahead_loop_stats_count_the_elided_steps() {
        let wl = Workload {
            name: "compute".into(),
            category: mixes::IntensityCategory::P0,
            benchmarks: vec![&dsarp_workloads::catalogue::COMPUTE_BOUND; 8],
        };
        let cfg = SimConfig::paper(Mechanism::Dsarp, Density::G32);
        let cycles = 40_000;
        let mut fast = SystemBuilder::new(&cfg).workload(&wl).build();
        let mut slow = SystemBuilder::new(&cfg).workload(&wl).build();
        assert_eq!(fast.run(cycles), slow.run_per_cycle(cycles));
        let channels = cfg.geometry().channels() as u64;
        assert_eq!(
            slow.loop_stats(),
            LoopStats {
                iterations: cycles,
                controller_steps: channels * cycles,
                core_micro_steps: 8 * CPU_CYCLES_PER_DRAM_CYCLE * cycles,
                ..LoopStats::default()
            }
        );
        let stats = fast.loop_stats();
        assert!(stats.controller_steps * 4 <= channels * cycles, "{stats:?}");
        assert_eq!(
            stats.controller_steps + stats.controller_steps_elided,
            channels * cycles
        );
        assert_eq!(stats.iterations + stats.cycles_jumped, cycles);
        assert!(stats.clock_jumps > 0 && stats.clock_jumps <= stats.cycles_jumped);
    }

    /// How much the loop skips, pinned: the perf ledger's three simulator
    /// configurations (`examples/profile_high_mpki.rs`: same seed, mixes,
    /// mechanisms and warm-up) at a tenth of its run length, plus the
    /// harness's `cache_bound` cell (a P0 campaign cell, whole) where the
    /// cores' LLC traffic dominates. A looser wake bound anywhere — a
    /// policy gate, a demand probe, a core plan — moves a count here while
    /// every result stays exact. The controller counts date from before the
    /// refresh policies' `next_event` twins went, the iterations and jumps
    /// from when each core was first planned to its next LLC access in one
    /// span, and the core counts from when the cores first shared one
    /// agenda.
    #[test]
    fn skip_ahead_loop_stats_are_pinned() {
        const LEDGER_SEED: u64 = 0xD5A2_2014;
        let uniform = |name: &str, bench, category| Workload {
            name: name.into(),
            category,
            benchmarks: vec![bench; 8],
        };
        let lbm = dsarp_workloads::catalogue::by_name("lbm_like").expect("in the catalogue");
        let compute = &dsarp_workloads::catalogue::COMPUTE_BOUND;
        let cases = [
            (
                mixes::intensive_mixes(8, LEDGER_SEED)[0].clone(),
                Mechanism::Dsarp,
                100_000,
                60_000,
                LoopStats {
                    iterations: 59_976,
                    controller_steps: 117_788,
                    controller_steps_elided: 2_212,
                    clock_jumps: 24,
                    cycles_jumped: 24,
                    core_micro_steps: 78_932,
                },
            ),
            (
                uniform("8x-lbm_like", lbm, mixes::IntensityCategory::P100),
                Mechanism::Darp,
                100_000,
                60_000,
                LoopStats {
                    iterations: 59_977,
                    controller_steps: 118_200,
                    controller_steps_elided: 1_800,
                    clock_jumps: 18,
                    cycles_jumped: 23,
                    core_micro_steps: 66_750,
                },
            ),
            (
                uniform("8x-compute_bound", compute, mixes::IntensityCategory::P0),
                Mechanism::Dsarp,
                100_000,
                1_200_000,
                LoopStats {
                    iterations: 64_836,
                    controller_steps: 33_866,
                    controller_steps_elided: 2_366_134,
                    clock_jumps: 46_931,
                    cycles_jumped: 1_135_164,
                    core_micro_steps: 43_255,
                },
            ),
            (
                mixes::paper_workloads(8, LEDGER_SEED)[0].clone(),
                Mechanism::Darp,
                25_000,
                40_000,
                LoopStats {
                    iterations: 39_982,
                    controller_steps: 27_539,
                    controller_steps_elided: 52_461,
                    clock_jumps: 18,
                    cycles_jumped: 18,
                    core_micro_steps: 236_573,
                },
            ),
        ];
        for (wl, mech, warmup_ops, cycles, pinned) in cases {
            let cfg = SimConfig::paper(mech, Density::G32)
                .with_seed(LEDGER_SEED)
                .with_warmup_ops(warmup_ops);
            let mut system = SystemBuilder::new(&cfg).workload(&wl).build();
            system.run(cycles);
            assert_eq!(system.loop_stats(), pinned, "{}", wl.name);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any mechanism, core count, mix and chunking: `run` equals
        /// `run_per_cycle`, telemetry included.
        #[test]
        fn skip_ahead_matches_per_cycle_on_random_configs(
            mech in prop::sample::select(Mechanism::ALL.to_vec()),
            // The LLC and the synthetic address map need a power of two.
            cores in prop::sample::select(vec![1usize, 2, 4, 8]),
            mix_seed in any::<u64>(),
            chunks in prop::collection::vec(1u64..4_000, 1..4),
        ) {
            // The seed picks the mix too, so every intensity category
            // (idle channels through saturated ones) comes up.
            let wl = mixes::paper_workloads(cores, mix_seed)[(mix_seed % 100) as usize].clone();
            let cfg = SimConfig::paper(mech, Density::G32)
                .with_cores(cores)
                .with_seed(mix_seed)
                .with_warmup_ops(2_000);
            let mk = || {
                SystemBuilder::new(&cfg)
                    .workload(&wl)
                    .telemetry(true)
                    .build()
            };
            let mut fast = mk();
            let mut last = None;
            for &chunk in &chunks {
                last = Some(fast.run(chunk));
            }
            let slow = mk().run_per_cycle(chunks.iter().sum());
            prop_assert_eq!(last, Some(slow), "{:?} x{} {}", mech, cores, wl.name);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Several cells of one workload — any mechanisms and densities —
        /// started from clones of one shared warm state return exactly
        /// what their own fresh `build()` returns, chunk by chunk,
        /// telemetry included.
        #[test]
        fn warmed_cells_match_fresh_builds(
            cells in prop::collection::vec(
                (
                    prop::sample::select(Mechanism::ALL.to_vec()),
                    prop::sample::select(vec![Density::G8, Density::G16, Density::G32, Density::G64]),
                ),
                1..4,
            ),
            cores in prop::sample::select(vec![1usize, 2, 4, 8]),
            seed in any::<u64>(),
            chunks in prop::collection::vec(1u64..2_500, 1..3),
        ) {
            let wl = mixes::paper_workloads(cores, seed)[(seed % 100) as usize].clone();
            let cfg = |(mech, density): (Mechanism, Density)| {
                SimConfig::paper(mech, density)
                    .with_cores(cores)
                    .with_seed(seed)
                    .with_warmup_ops(2_000)
            };
            let shared = SystemBuilder::new(&cfg(cells[0])).workload(&wl).warm();
            for &cell in &cells {
                let cfg = cfg(cell);
                let builder = || SystemBuilder::new(&cfg).workload(&wl).telemetry(true);
                let mut fresh = builder().build();
                let mut reused = builder().warmed(shared.clone()).build();
                for &chunk in &chunks {
                    prop_assert_eq!(
                        reused.run(chunk),
                        fresh.run(chunk),
                        "{:?} x{} {}", cell, cores, wl.name
                    );
                }
            }
        }
    }

    /// Running in chunks (the campaign's warm-resume pattern) must not
    /// change skip-ahead results either.
    #[test]
    fn skip_ahead_is_chunk_invariant() {
        let cfg = SimConfig::paper(Mechanism::Dsarp, Density::G8);
        let wl = intensive_workload();
        let mk = || {
            SystemBuilder::new(&cfg)
                .workload(&wl)
                .telemetry(true)
                .build()
        };
        let whole = mk().run(12_000);
        let mut chunked = mk();
        chunked.run(5_000);
        chunked.run(1);
        assert_eq!(whole, chunked.run(6_999));
    }
}
