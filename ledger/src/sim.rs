//! The three simulator workloads (`sim_high_mpki`, `sim_low_mpki`,
//! `sim_write_drain`) and, for the traced run, the drivers that time the
//! `dram`, `core`, `cpu`, `workloads` and `sim` crates through their public
//! APIs on the same inputs.

use crate::bench::{measure, repeat, Checks, Ctx, Outcome};
use crate::trace::Tracer;
use dsarp_campaign::fingerprint::fingerprint_bytes;
use dsarp_core::{Completion, Mechanism, MemoryController, Request, RequestQueues};
use dsarp_cpu::{
    scan_trace_bytes, trace_v1, AccessResult, BinTraceSource, Core, Llc, LlcParams, LlcResult,
    Materialize, MemKind, MemoryInterface, TraceDialect, TraceOp, TraceSource,
};
use dsarp_dram::{Command, Cycle, Density, DramChannel, Location, CPU_CYCLES_PER_DRAM_CYCLE};
use dsarp_sim::{RunStats, SimConfig, System, SystemBuilder};
use dsarp_workloads::{catalogue, mixes, BenchmarkSpec, SyntheticTrace, Workload};
use std::collections::VecDeque;
use std::hint::black_box;

/// One simulator workload: configuration, mix and run length.
pub struct Case {
    pub cfg: SimConfig,
    pub workload: Workload,
    pub cycles: u64,
}

impl Case {
    pub fn build(&self) -> System {
        SystemBuilder::new(&self.cfg)
            .workload(&self.workload)
            .build()
    }
}

fn eight_of(bench: &'static BenchmarkSpec) -> Workload {
    Workload {
        name: format!("8x-{}", bench.name),
        category: mixes::IntensityCategory::P100,
        benchmarks: vec![bench; 8],
    }
}

pub fn case(ctx: &Ctx, name: &str) -> Case {
    let (workload, mechanism, cycles) = match name {
        "sim_high_mpki" => (
            mixes::intensive_mixes(8, ctx.seed)[0].clone(),
            Mechanism::Dsarp,
            600_000,
        ),
        "sim_low_mpki" => (
            eight_of(&catalogue::COMPUTE_BOUND),
            Mechanism::Dsarp,
            12_000_000,
        ),
        "sim_write_drain" => (
            eight_of(catalogue::by_name("lbm_like").expect("catalogue has lbm_like")),
            Mechanism::Darp,
            600_000,
        ),
        other => unreachable!("not a simulator workload: {other}"),
    };
    Case {
        cfg: SimConfig::paper(mechanism, Density::G32)
            .with_seed(ctx.seed)
            .with_warmup_ops(ctx.size(100_000)),
        workload,
        cycles: ctx.size(cycles),
    }
}

/// FNV-128 of the serialized statistics: equal fingerprints on two commits
/// mean every simulated statistic is identical.
fn sim_fp(stats: &RunStats) -> String {
    let text = serde_json::to_string(stats).expect("run stats serialize");
    fingerprint_bytes(text.as_bytes()).to_string()
}

/// The repetition loop: fresh `build()` (set-up), `run(cycles)` (timed),
/// then the determinism check against the first repetition.
fn reps(
    ctx: &Ctx,
    case: &Case,
    seconds: f64,
    tracer: &Tracer,
    checks: &mut Checks,
    first: &mut Option<RunStats>,
) -> Outcome {
    let mut out = Outcome {
        work_per_rep: case.cycles as f64,
        ..Outcome::default()
    };
    repeat(
        ctx,
        seconds,
        tracer,
        &mut out,
        || tracer.span("sim", "sim.build", || case.build()),
        |mut system| tracer.span("sim", "sim.run", || system.run(case.cycles)),
        |rep, stats| {
            tracer.count("sim.dram_cycles", stats.dram_cycles as f64);
            tracer.count("sim.accesses", stats.accesses() as f64);
            match first {
                None => {
                    checks.expect(stats.ctrl.iter().any(|c| c.reads_done > 0), || {
                        "no read was served".into()
                    });
                    checks.expect(stats.refreshes() > 0, || "no refresh was issued".into());
                    *first = Some(stats);
                }
                Some(first) => checks.expect(*first == stats, || {
                    format!("repetition {rep} diverged from repetition 0")
                }),
            }
        },
    );
    out
}

pub fn run(ctx: &Ctx, name: &str, checks: &mut Checks, tracer: &Tracer) -> Outcome {
    let case = case(ctx, name);

    // Skip-ahead must equal forced per-cycle stepping, field for field.
    let short = (case.cycles / 20).max(1);
    let skipped = case.build().run(short);
    let stepped = case.build().run_per_cycle(short);
    checks.expect(skipped == stepped, || {
        format!("run({short}) and run_per_cycle({short}) disagree")
    });

    let mut first = None;
    let (mut out, traced) = measure(ctx, tracer, |seconds| {
        reps(ctx, &case, seconds, tracer, checks, &mut first)
    });
    let stats = first.expect("at least one repetition ran");
    out.fingerprints.push(("sim_fp", sim_fp(&stats)));
    if traced.is_none() {
        return out;
    }
    drive_sim(&case, &stats, tracer, checks, &mut out);
    drive_dram(&case, tracer, checks, &mut out);
    drive_core(ctx, &case, tracer, checks, &mut out);
    drive_cpu(ctx, &case, &stats, tracer, &mut out);
    drive_workloads(ctx, &case, &stats, tracer, &mut out);
    // What the drivers do not explain of the per-cycle loop, the one that
    // steps every controller once and every core six times each cycle
    // (`run` skips most of those steps, so it has no such decomposition).
    let l = &out.layer;
    let unattributed = l["sim.per_cycle_ns_per_cycle"]
        - case.cfg.geometry().channels() as f64 * l["core.step_ns_per_cycle"]
        - (CPU_CYCLES_PER_DRAM_CYCLE as usize * case.cfg.cores) as f64
            * l["cpu.core.step_ns_per_cpu_cycle"];
    out.layer
        .insert("sim.unattributed_ns_per_cycle", unattributed);
    out
}

/// `sim`: build with and without warm-up, skip-ahead beside per-cycle
/// stepping, telemetry on beside off, and the exact simulated statistics.
fn drive_sim(
    case: &Case,
    stats: &RunStats,
    tracer: &Tracer,
    checks: &mut Checks,
    out: &mut Outcome,
) {
    let build_ns = tracer.best_ns("sim.build");
    let run_ns = tracer.best_ns("sim.run");
    let cycles = case.cycles as f64;

    let floor_cfg = case.cfg.with_warmup_ops(0);
    for _ in 0..3 {
        tracer.span("sim", "sim.build_floor", || {
            black_box(
                SystemBuilder::new(&floor_cfg)
                    .workload(&case.workload)
                    .build(),
            );
        });
    }
    let floor_ns = tracer.best_ns("sim.build_floor");

    let tenth = (case.cycles / 10).max(1);
    let mut a = case.build();
    let mut b = case.build();
    let stepped = tracer.span("sim", "sim.run_per_cycle", || a.run_per_cycle(tenth));
    let skipped = tracer.span("sim", "sim.run_tenth", || b.run(tenth));
    checks.expect(stepped == skipped, || {
        format!("run({tenth}) and run_per_cycle({tenth}) disagree")
    });
    let per_cycle_ns = tracer.best_ns("sim.run_per_cycle");

    let observe = || {
        let mut observed = SystemBuilder::new(&case.cfg)
            .workload(&case.workload)
            .telemetry(true)
            .build();
        tracer.span("sim", "sim.run_telemetry", || observed.run(case.cycles))
    };
    observe();
    observe();
    let with_tel = observe();
    let tel = with_tel.telemetry.as_deref().expect("telemetry was on");
    let plain = RunStats {
        telemetry: None,
        ..with_tel.clone()
    };
    checks.expect(plain == *stats, || {
        "telemetry changed a simulated statistic".into()
    });
    let banks = tel.banks.len().max(1) as f64;
    let busy: u64 = tel.banks.iter().map(|b| b.busy_cycles).sum();

    let l = &mut out.layer;
    l.insert("sim.build_s", build_ns / 1e9);
    l.insert("sim.build_floor_ms", floor_ns / 1e6);
    l.insert("sim.warmup_share", 1.0 - floor_ns / build_ns);
    l.insert("sim.run_s", run_ns / 1e9);
    l.insert("sim.ns_per_cycle", run_ns / cycles);
    l.insert("sim.ns_per_access", run_ns / stats.accesses().max(1) as f64);
    l.insert("sim.per_cycle_ns_per_cycle", per_cycle_ns / tenth as f64);
    l.insert(
        "sim.skip_speedup",
        per_cycle_ns / tracer.best_ns("sim.run_tenth"),
    );
    l.insert(
        "sim.telemetry_overhead_pct",
        (tracer.best_ns("sim.run_telemetry") / run_ns - 1.0) * 100.0,
    );
    l.insert("sim.ipc_total", stats.total_ipc());
    l.insert("sim.avg_read_latency_cycles", stats.avg_read_latency());
    l.insert("sim.refreshes", stats.refreshes() as f64);
    l.insert("sim.energy_per_access_nj", stats.energy_per_access_nj());
    l.insert(
        "sim.tel.refresh_blocked_frac",
        tel.refresh_blocked_fraction(),
    );
    l.insert("sim.tel.bank_busy_frac", busy as f64 / (banks * cycles));
    l.insert("sim.tel.read_q_depth_mean", tel.read_queue_depth.mean());
    l.insert("sim.tel.sched_scan_mean", tel.scheduler.mean_scan());
    l.insert(
        "sim.tel.sarp_parallel_acts",
        tel.refreshes.sarp_parallel_acts as f64,
    );
    l.insert(
        "sim.tel.darp_write_parallelized",
        tel.refreshes.darp_write_parallelized as f64,
    );
}

fn fresh_channel(cfg: &SimConfig, mechanism: Mechanism) -> DramChannel {
    let mut chan = DramChannel::new(cfg.geometry(), cfg.timing(), mechanism.sarp_support());
    chan.set_refpb_overlap_ways(mechanism.refpb_overlap_ways());
    chan
}

/// Replays a command log on `chan` with `check` + `issue` at the logged
/// cycles (and an `earliest_issue` probe before each when `probe`);
/// returns whether every command was legal.
fn replay(chan: &mut DramChannel, log: &[(Cycle, Command)], probe: bool) -> bool {
    let mut legal = true;
    for &(cycle, cmd) in log {
        if probe {
            legal &= black_box(chan.earliest_issue(&cmd, cycle)).is_some();
        }
        legal &= chan.check(&cmd, cycle).is_ok();
        legal &= chan.issue(cmd, cycle).is_ok();
    }
    legal
}

/// Fastest of three replays of `log` under span `name`, in seconds.
fn time_replay(
    cfg: &SimConfig,
    mechanism: Mechanism,
    log: &[(Cycle, Command)],
    probe: bool,
    name: &'static str,
    tracer: &Tracer,
    checks: &mut Checks,
) -> f64 {
    for _ in 0..3 {
        let mut chan = fresh_channel(cfg, mechanism);
        let legal = tracer.span("dram", name, || replay(&mut chan, log, probe));
        checks.expect(legal, || format!("{name}: a logged command was refused"));
    }
    tracer.best_ns(name) / 1e9
}

/// `dram`: channel 0's command log from the workload's own run, replayed
/// on a fresh channel.
fn drive_dram(case: &Case, tracer: &Tracer, checks: &mut Checks, out: &mut Outcome) {
    let mut system = SystemBuilder::new(&case.cfg)
        .workload(&case.workload)
        .command_log(true)
        .build();
    system.run(case.cycles);
    let log = system.take_command_log(0);
    drop(system);
    let mech = case.cfg.mechanism;
    let plain = time_replay(&case.cfg, mech, &log, false, "dram.replay", tracer, checks);
    let probed = time_replay(
        &case.cfg,
        mech,
        &log,
        true,
        "dram.replay_probed",
        tracer,
        checks,
    );

    let count = |f: fn(&Command) -> bool| log.iter().filter(|(_, c)| f(c)).count() as f64;
    let cmds = log.len().max(1) as f64;
    tracer.count("dram.cmds", log.len() as f64);
    let l = &mut out.layer;
    l.insert("dram.cmds", log.len() as f64);
    l.insert("dram.act", count(|c| matches!(c, Command::Activate { .. })));
    l.insert(
        "dram.pre",
        count(|c| matches!(c, Command::Precharge { .. } | Command::PrechargeAll { .. })),
    );
    l.insert("dram.rd", count(|c| matches!(c, Command::Read { .. })));
    l.insert("dram.wr", count(|c| matches!(c, Command::Write { .. })));
    l.insert(
        "dram.refab",
        count(|c| matches!(c, Command::RefreshAllBank { .. })),
    );
    l.insert(
        "dram.refpb",
        count(|c| matches!(c, Command::RefreshPerBank { .. })),
    );
    l.insert("dram.replay_s", plain);
    l.insert("dram.issue_ns_per_cmd", plain * 1e9 / cmds);
    l.insert(
        "dram.earliest_issue_ns_per_probe",
        (probed - plain) * 1e9 / cmds,
    );
}

/// One LLC miss or writeback bound for channel 0, due at a DRAM cycle.
struct MissReq {
    due: Cycle,
    loc: Location,
    is_write: bool,
    core: usize,
}

fn llc_of(cfg: &SimConfig) -> Llc {
    Llc::new(LlcParams {
        capacity_bytes: cfg.llc_bytes(),
        assoc: 16,
        line_bytes: 64,
    })
}

fn traces_of(case: &Case) -> Vec<SyntheticTrace> {
    (0..case.cfg.cores)
        .map(|i| {
            SyntheticTrace::new(
                case.workload.benchmarks[i],
                i,
                case.cfg.cores,
                case.cfg.seed,
            )
        })
        .collect()
}

/// The workload's traces filtered through a benchmark-owned LLC (warmed as
/// `SystemBuilder::build` warms the system's) into channel 0's miss stream.
/// Cores advance at peak issue rate, so a request is due at
/// `instructions / (issue width × 6)`; the controller loop's outstanding
/// cap supplies the back-pressure.
fn miss_stream(case: &Case, horizon: Cycle) -> Vec<MissReq> {
    let cfg = &case.cfg;
    let geom = cfg.geometry();
    let mut llc = llc_of(cfg);
    let mut traces = traces_of(case);
    for trace in &mut traces {
        for _ in 0..cfg.warmup_ops {
            let op = trace.next_op();
            llc.access(op.addr & !63, op.kind == MemKind::Store);
        }
    }
    let insts_per_cycle = cfg.core_params.issue_width as u64 * CPU_CYCLES_PER_DRAM_CYCLE;
    let mut insts = vec![0u64; cfg.cores];
    let mut reqs = Vec::new();
    // One request per three cycles is more than one channel can serve.
    while reqs.len() as u64 <= horizon / 3 {
        let core = (0..cfg.cores)
            .min_by_key(|&c| insts[c])
            .expect("at least one core");
        let op = traces[core].next_op();
        insts[core] += u64::from(op.bubbles) + 1;
        let due = insts[core] / insts_per_cycle;
        if due >= horizon {
            break;
        }
        let line = op.addr & !63;
        if let LlcResult::Miss { writeback } = llc.access(line, op.kind == MemKind::Store) {
            for (addr, is_write) in [(Some(line), false), (writeback, true)] {
                let Some(addr) = addr else { continue };
                let loc = geom.decode(addr);
                if loc.channel == 0 {
                    reqs.push(MissReq {
                        due,
                        loc,
                        is_write,
                        core,
                    });
                }
            }
        }
    }
    reqs
}

/// `next_event` calls per step in the probing pass: enough that their cost
/// stands clear of the noise between two passes of the stepping loop.
const NEXT_EVENT_PROBES: usize = 8;

/// Controller-only closed loop: injects `reqs` while fewer than `cap` reads
/// are outstanding, steps the controller every cycle up to `horizon`, and
/// (when `next_event`) asks for the next event after each step as the
/// skip-ahead loop does.
fn controller_loop(
    mc: &mut MemoryController,
    chan: &mut DramChannel,
    reqs: &[MissReq],
    horizon: Cycle,
    cap: usize,
    next_event: bool,
) {
    let mut completions: Vec<Completion> = Vec::with_capacity(16);
    let mut next = 0;
    let mut outstanding = 0;
    for now in 0..horizon {
        while let Some(r) = reqs.get(next).filter(|r| r.due <= now) {
            let id = next as u64 + 1;
            let accepted = if r.is_write {
                mc.try_enqueue_write(Request::write(id, r.loc, usize::MAX, now))
            } else {
                outstanding < cap && mc.try_enqueue_read(Request::read(id, r.loc, r.core, now))
            };
            if !accepted {
                break;
            }
            outstanding += usize::from(!r.is_write);
            next += 1;
        }
        completions.clear();
        mc.step(chan, now, &mut completions);
        outstanding -= completions.len();
        if next_event {
            for _ in 0..NEXT_EVENT_PROBES {
                black_box(mc.next_event(black_box(chan), now));
            }
        }
    }
}

/// `core`: the controller against a DRAM channel with no cores attached,
/// under the workload's mechanism and under `NoRefresh`.
fn drive_core(ctx: &Ctx, case: &Case, tracer: &Tracer, checks: &mut Checks, out: &mut Outcome) {
    let cfg = &case.cfg;
    let horizon = ctx.size(300_000).min(case.cycles);
    let reqs = miss_stream(case, horizon);
    // The cores' MSHRs bound the reads one channel can have outstanding.
    let cap = cfg.cores * cfg.core_params.mshrs / cfg.geometry().channels();
    let controller = |mechanism| {
        (
            MemoryController::new(0, cfg.geometry(), cfg.timing(), mechanism, cfg.seed),
            fresh_channel(cfg, mechanism),
        )
    };
    for (name, mechanism, next_event) in [
        ("core.loop", cfg.mechanism, false),
        ("core.loop_next_event", cfg.mechanism, true),
        ("core.loop_norefresh", Mechanism::NoRefresh, false),
    ] {
        for _ in 0..3 {
            let (mut mc, mut chan) = controller(mechanism);
            tracer.span("core", name, || {
                controller_loop(&mut mc, &mut chan, &reqs, horizon, cap, next_event)
            });
        }
    }
    // Once more with the command log on (untimed), for the exact counts and
    // for the DRAM share of a step.
    let (mut mc, mut chan) = controller(cfg.mechanism);
    chan.enable_command_log();
    controller_loop(&mut mc, &mut chan, &reqs, horizon, cap, false);
    let log = chan.take_command_log();
    let own_replay = time_replay(
        cfg,
        cfg.mechanism,
        &log,
        false,
        "core.replay_own_log",
        tracer,
        checks,
    );

    // Queue index on its own: fill the read queue, then take it back out.
    let mut queues = RequestQueues::paper_default();
    let fill: Vec<Location> = reqs.iter().map(|r| r.loc).take(48).collect();
    let rounds = ctx.size(20_000);
    tracer.span("core", "core.queues.push_take", || {
        for round in 0..rounds {
            for (i, loc) in fill.iter().enumerate() {
                queues.try_push_read(Request::read(i as u64, *loc, 0, round));
            }
            loop {
                let Some(oldest) = queues.iter_reads().next().map(|c| c.slot) else {
                    break;
                };
                black_box(queues.take_read(oldest));
            }
        }
    });
    let pairs = (rounds as usize * fill.len()).max(1) as f64;

    let steps = horizon as f64;
    let step_ns = tracer.best_ns("core.loop") / steps;
    let s = mc.stats();
    let columns = log.iter().filter(|(_, c)| c.is_column()).count();
    let acts = log
        .iter()
        .filter(|(_, c)| matches!(c, Command::Activate { .. }))
        .count();
    tracer.count("core.steps", steps);
    let l = &mut out.layer;
    l.insert("core.steps", steps);
    l.insert("core.cmds_issued", log.len() as f64);
    l.insert("core.reads_done", s.reads_done as f64);
    l.insert("core.writes_done", s.writes_done as f64);
    // Every column command after the first that an activation serves.
    l.insert(
        "core.row_hit_frac",
        columns.saturating_sub(acts) as f64 / columns.max(1) as f64,
    );
    l.insert(
        "core.drain_cycle_frac",
        mc.queues().drain_cycles() as f64 / steps,
    );
    l.insert("core.read_latency_cycles", s.avg_read_latency());
    l.insert("core.step_ns_per_cycle", step_ns);
    l.insert("core.self_ns_per_cycle", step_ns - own_replay * 1e9 / steps);
    l.insert("core.next_event_calls", steps * NEXT_EVENT_PROBES as f64);
    l.insert(
        "core.next_event_ns_per_call",
        (tracer.best_ns("core.loop_next_event") / steps - step_ns) / NEXT_EVENT_PROBES as f64,
    );
    l.insert(
        "core.refresh_delta_ns_per_cycle",
        step_ns - tracer.best_ns("core.loop_norefresh") / steps,
    );
    l.insert(
        "core.queues.push_take_ns",
        tracer.best_ns("core.queues.push_take") / pairs,
    );
}

/// A memory hierarchy with a real LLC deciding hit or miss and every miss
/// completing after a fixed latency.
struct StubMemory {
    llc: Llc,
    /// CPU cycles a miss takes: the workload's own mean read latency.
    miss_latency: u64,
    now: u64,
    next_token: u64,
    pending: VecDeque<(u64, usize, u64)>,
}

impl MemoryInterface for StubMemory {
    fn access(&mut self, core: usize, addr: u64, is_store: bool) -> AccessResult {
        match self.llc.access(addr & !63, is_store) {
            LlcResult::Hit => AccessResult::Hit,
            LlcResult::Miss { .. } => {
                self.next_token += 1;
                self.pending
                    .push_back((self.now + self.miss_latency, core, self.next_token));
                AccessResult::Miss(self.next_token)
            }
        }
    }
}

/// Steps the workload's eight cores for `cpu_cycles` against the stub;
/// with `plan`, also makes the planning calls the skip-ahead loop makes.
fn core_loop(case: &Case, miss_latency: u64, cpu_cycles: u64, plan: bool) {
    let mut cores: Vec<Core> = traces_of(case)
        .into_iter()
        .enumerate()
        .map(|(i, t)| Core::new(i, case.cfg.core_params, Box::new(t)))
        .collect();
    let mut mem = StubMemory {
        llc: llc_of(&case.cfg),
        miss_latency,
        now: 0,
        next_token: 0,
        pending: VecDeque::new(),
    };
    for now in 0..cpu_cycles {
        mem.now = now;
        while mem.pending.front().is_some_and(|p| p.0 <= now) {
            let (_, core, token) = mem.pending.pop_front().expect("checked non-empty");
            cores[core].complete(token);
        }
        for core in &mut cores {
            if plan {
                black_box(core.idle_probe(&|_| false));
                black_box(core.bubble_run());
                black_box(core.blocked_head_run());
            }
            core.step(&mut mem);
        }
    }
    black_box(cores.iter().map(Core::retired).sum::<u64>());
}

/// `cpu`: the LLC over the address stream, the core model against a stub
/// memory, and the trace scanners and streaming reader.
fn drive_cpu(ctx: &Ctx, case: &Case, stats: &RunStats, tracer: &Tracer, out: &mut Outcome) {
    let mut traces = traces_of(case);
    let per_core = ctx.size(2_000_000) as usize / traces.len();
    let mut ops: Vec<TraceOp> = Vec::with_capacity(per_core * traces.len());
    for _ in 0..per_core {
        ops.extend(traces.iter_mut().map(|t| t.next_op()));
    }
    let mut llc = llc_of(&case.cfg);
    tracer.span("cpu", "cpu.llc.access", || {
        for op in &ops {
            black_box(llc.access(op.addr & !63, op.kind == MemKind::Store));
        }
    });
    let llc_ns = tracer.best_ns("cpu.llc.access") / ops.len() as f64;
    let miss_ratio = llc.stats().miss_ratio();
    drop(ops);

    let cpu_cycles = ctx.size(600_000);
    let miss_latency = (stats.avg_read_latency() as u64).max(1) * CPU_CYCLES_PER_DRAM_CYCLE;
    for _ in 0..3 {
        tracer.span("cpu", "cpu.core.step", || {
            core_loop(case, miss_latency, cpu_cycles, false)
        });
        tracer.span("cpu", "cpu.core.step_planned", || {
            core_loop(case, miss_latency, cpu_cycles, true)
        });
    }
    let core_steps = (cpu_cycles as usize * case.cfg.cores) as f64;
    let step_ns = tracer.best_ns("cpu.core.step") / core_steps;
    let planned_ns = tracer.best_ns("cpu.core.step_planned") / core_steps;

    let records = ctx.size(1_000_000) as usize;
    let export = |dialect| {
        let mut source = traces_of(case).swap_remove(0);
        let mut bytes = Vec::with_capacity(records * 24);
        trace_v1::export_dialect(&mut source, records, &mut bytes, dialect)
            .expect("writing to memory cannot fail");
        bytes
    };
    // Scans an export three times; bytes per ns is GB/s.
    let gbps = |dialect, name: &'static str| {
        let bytes = export(dialect);
        let scan = || {
            tracer.span("cpu", name, || {
                scan_trace_bytes(&bytes, Materialize::No).expect("own export scans")
            })
        };
        scan();
        scan();
        let summary = scan();
        let rate = bytes.len() as f64 / tracer.best_ns(name);
        (bytes, summary, rate)
    };
    let (_, _, text_gbps) = gbps(TraceDialect::TextExt, "cpu.trace.scan_text_ext");
    let (bin, summary, bin_gbps) = gbps(TraceDialect::Bin, "cpu.trace.scan_bin");
    let path = ctx.fresh_dir("trace").join("export.dtrace");
    std::fs::write(&path, &bin).expect("scratch directory is writable");
    drop(bin);
    let mut source = BinTraceSource::open(&path, summary.hash).expect("own export opens");
    tracer.span("cpu", "cpu.trace.stream_bin", || {
        let mut acc = 0u64;
        for _ in 0..source.len() {
            acc = acc.wrapping_add(source.next_op().addr);
        }
        black_box(acc);
    });
    let stream_mops = records as f64 * 1e3 / tracer.best_ns("cpu.trace.stream_bin");

    let l = &mut out.layer;
    l.insert("cpu.llc.access_ns", llc_ns);
    l.insert("cpu.llc.miss_ratio", miss_ratio);
    l.insert("cpu.core.step_ns_per_cpu_cycle", step_ns);
    // Three planning calls per core step.
    l.insert("cpu.core.plan_ns_per_call", (planned_ns - step_ns) / 3.0);
    l.insert("cpu.trace.scan_bin_gbps", bin_gbps);
    l.insert("cpu.trace.scan_text_ext_gbps", text_gbps);
    l.insert("cpu.trace.stream_bin_mops", stream_mops);
}

/// `workloads`: the synthetic generator on its own, and the MPKI the
/// workload's own run measured.
fn drive_workloads(ctx: &Ctx, case: &Case, stats: &RunStats, tracer: &Tracer, out: &mut Outcome) {
    let mut traces = traces_of(case);
    let per_core = ctx.size(4_000_000) as usize / traces.len();
    tracer.span("workloads", "workloads.synth.next_op", || {
        let mut acc = 0u64;
        for _ in 0..per_core {
            for trace in &mut traces {
                acc = acc.wrapping_add(trace.next_op().addr);
            }
        }
        black_box(acc);
    });
    let ops = (per_core * traces.len()) as f64;
    let insts: u64 = stats.insts.iter().sum();
    let l = &mut out.layer;
    l.insert(
        "workloads.synth.next_op_ns",
        tracer.best_ns("workloads.synth.next_op") / ops,
    );
    l.insert(
        "workloads.mpki",
        stats.llc.misses as f64 * 1000.0 / insts.max(1) as f64,
    );
}
