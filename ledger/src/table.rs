//! The one table every name comes from: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` is rendered from it
//! ([`benchmark_json`]), the binary prints exactly these names, and
//! `tests/table.rs` fails when the committed file and the table diverge.

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;

/// The command the driver runs from the root of a checkout.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "ledger/Cargo.toml",
    "--bin",
    "ledger",
    "--",
];

/// One named workload and why it was chosen.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "sim_high_mpki",
        why: "8 intensive cores, DSARP@32Gb: queues stay full and no cycle is skippable, so core FR-FCFS scheduling and dram timing checks do the work; skip-ahead does none.",
    },
    Workload {
        name: "sim_low_mpki",
        why: "8 compute-bound cores, DSARP@32Gb: dead time dominates, so skip-ahead, core planning and refresh next_event do the work; the bypass for any scheduler or DRAM-check gain.",
    },
    Workload {
        name: "sim_write_drain",
        why: "8 store-heavy streaming cores, DARP@32Gb: write-queue index, writeback-mode hysteresis and write-refresh parallelization; a read-path gain that costs the write path shows here.",
    },
    Workload {
        name: "campaign_cold",
        why: "About 50 short cells (5 mixes x 5 mechanisms at 32Gb plus alone-IPC jobs) on a fresh store, 2 threads: what a user waits for; build() is a visible share, plus appends and expand/assemble.",
    },
    Workload {
        name: "campaign_warm",
        why: "994 cells answered from a pre-populated store: zero simulation, so expansion, fingerprinting, shard decode and grid assembly do all the work; reads beside campaign_cold's appends.",
    },
    Workload {
        name: "serve_mix",
        why: "20000 keep-alive HTTP requests (304/200 cell reads, appends, shard tails, rare lease cycles): the only workload where serve, minihttp and the remote store client do most of the work.",
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric: reported by every workload, with tracing off.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Set-up times differing by less than this agree, whatever their ratio:
/// `campaign_cold` sets up in a fifth of a millisecond, and 25 % of that is
/// one directory entry.
pub const SETUP_FLOOR_S: f64 = 0.002;

const SIM: &[&str] = &["sim_high_mpki", "sim_low_mpki", "sim_write_drain"];
const SIM_BUSY: &[&str] = &["sim_high_mpki", "sim_write_drain"];
const SIM_LOW: &[&str] = &["sim_low_mpki"];
const SIM_AND_COLD: &[&str] = &[
    "sim_high_mpki",
    "sim_low_mpki",
    "sim_write_drain",
    "campaign_cold",
];
const COLD: &[&str] = &["campaign_cold"];
const WARM: &[&str] = &["campaign_warm"];
const CAMPAIGN: &[&str] = &["campaign_cold", "campaign_warm"];
const SERVE: &[&str] = &["serve_mix"];
const NONE: &[&str] = &[];
const ALL: &[&str] = &[
    "sim_high_mpki",
    "sim_low_mpki",
    "sim_write_drain",
    "campaign_cold",
    "campaign_warm",
    "serve_mix",
];

/// One per-layer metric: reported by the traced run only. `moves` names the
/// end-to-end metric it should move and `on` the workloads where it should;
/// on every other workload the prediction is no change. Workloads in
/// `measured` run the driver; elsewhere the layer is not exercised and the
/// metric reads 0.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
    pub on: &'static [&'static str],
    pub measured: &'static [&'static str],
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static [&'static str],
    measured: &'static [&'static str],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        on,
        measured,
    }
}

use Better::{Higher as H, Lower as L};

// One metric per line reads as the table it is.
#[rustfmt::skip]
pub const PER_LAYER: [PerLayer; 79] = [
    // dram: channel 0's command log replayed on a fresh DramChannel.
    m("dram.cmds", "count", L, "none", NONE, SIM),
    m("dram.act", "count", L, "none", NONE, SIM),
    m("dram.pre", "count", L, "none", NONE, SIM),
    m("dram.rd", "count", H, "none", NONE, SIM),
    m("dram.wr", "count", H, "none", NONE, SIM),
    m("dram.refab", "count", L, "none", NONE, SIM),
    m("dram.refpb", "count", L, "none", NONE, SIM),
    m("dram.issue_ns_per_cmd", "ns", L, "work_per_s", SIM_BUSY, SIM),
    m("dram.earliest_issue_ns_per_probe", "ns", L, "work_per_s", SIM_BUSY, SIM),
    m("dram.replay_s", "s", L, "work_per_s", SIM_BUSY, SIM),
    // core: controller-only closed loop over the workload's LLC miss stream.
    m("core.steps", "count", L, "none", NONE, SIM),
    m("core.cmds_issued", "count", L, "none", NONE, SIM),
    m("core.reads_done", "count", H, "none", NONE, SIM),
    m("core.writes_done", "count", H, "none", NONE, SIM),
    m("core.row_hit_frac", "frac", H, "none", NONE, SIM),
    m("core.drain_cycle_frac", "frac", L, "none", NONE, SIM),
    m("core.read_latency_cycles", "cycles", L, "none", NONE, SIM),
    m("core.step_ns_per_cycle", "ns", L, "work_per_s", SIM_BUSY, SIM),
    m("core.self_ns_per_cycle", "ns", L, "work_per_s", SIM_BUSY, SIM),
    m("core.next_event_calls", "count", L, "none", NONE, SIM),
    m("core.next_event_ns_per_call", "ns", L, "work_per_s", SIM_LOW, SIM),
    m("core.refresh_delta_ns_per_cycle", "ns", L, "work_per_s", SIM_BUSY, SIM),
    m("core.queues.push_take_ns", "ns", L, "work_per_s", SIM_BUSY, SIM),
    // cpu: LLC, core model and trace readers driven on their own.
    m("cpu.llc.access_ns", "ns", L, "setup_s", SIM_AND_COLD, SIM),
    m("cpu.llc.miss_ratio", "frac", L, "none", NONE, SIM),
    m("cpu.core.step_ns_per_cpu_cycle", "ns", L, "work_per_s", SIM_BUSY, SIM),
    m("cpu.core.plan_ns_per_call", "ns", L, "work_per_s", SIM_LOW, SIM),
    m("cpu.trace.scan_bin_gbps", "GB/s", H, "none", NONE, SIM),
    m("cpu.trace.scan_text_ext_gbps", "GB/s", H, "none", NONE, SIM),
    m("cpu.trace.stream_bin_mops", "Mops/s", H, "none", NONE, SIM),
    // workloads: the synthetic generator.
    m("workloads.synth.next_op_ns", "ns", L, "setup_s", SIM_AND_COLD, SIM),
    m("workloads.mpki", "1/kinst", L, "none", NONE, SIM),
    // sim: the whole-system loop, and exact simulated statistics.
    m("sim.build_s", "s", L, "setup_s", SIM_AND_COLD, SIM),
    m("sim.build_floor_ms", "ms", L, "setup_s", SIM_AND_COLD, SIM),
    m("sim.warmup_share", "frac", L, "setup_s", SIM_AND_COLD, SIM),
    m("sim.run_s", "s", L, "work_per_s", SIM, SIM),
    m("sim.ns_per_cycle", "ns", L, "work_per_s", SIM, SIM),
    m("sim.ns_per_access", "ns", L, "work_per_s", SIM_BUSY, SIM),
    m("sim.per_cycle_ns_per_cycle", "ns", L, "none", NONE, SIM),
    m("sim.skip_speedup", "x", H, "work_per_s", SIM_LOW, SIM),
    m("sim.telemetry_overhead_pct", "%", L, "none", NONE, SIM),
    m("sim.unattributed_ns_per_cycle", "ns", L, "work_per_s", SIM, SIM),
    m("sim.ipc_total", "ipc", H, "none", NONE, SIM),
    m("sim.avg_read_latency_cycles", "cycles", L, "none", NONE, SIM),
    m("sim.refreshes", "count", L, "none", NONE, SIM),
    m("sim.energy_per_access_nj", "nJ", L, "none", NONE, SIM),
    m("sim.tel.refresh_blocked_frac", "frac", L, "none", NONE, SIM),
    m("sim.tel.bank_busy_frac", "frac", H, "none", NONE, SIM),
    m("sim.tel.read_q_depth_mean", "count", L, "none", NONE, SIM),
    m("sim.tel.sched_scan_mean", "count", L, "none", NONE, SIM),
    m("sim.tel.sarp_parallel_acts", "count", H, "none", NONE, SIM),
    m("sim.tel.darp_write_parallelized", "count", H, "none", NONE, SIM),
    // campaign: phases of Campaign::run, single jobs, store and leases.
    m("campaign.jobs", "count", L, "none", NONE, CAMPAIGN),
    m("campaign.cache_hits", "count", H, "none", NONE, CAMPAIGN),
    m("campaign.expand_ms", "ms", L, "work_per_s", WARM, CAMPAIGN),
    m("campaign.simulate_ms", "ms", L, "work_per_s", COLD, CAMPAIGN),
    m("campaign.assemble_ms", "ms", L, "work_per_s", WARM, CAMPAIGN),
    m("campaign.job_execute_ms_p50", "ms", L, "work_per_s", COLD, COLD),
    m("campaign.job_execute_ms_max", "ms", L, "work_per_s", COLD, COLD),
    m("campaign.job_setup_share", "frac", L, "work_per_s", COLD, COLD),
    m("campaign.parallel_efficiency", "frac", H, "work_per_s", COLD, COLD),
    m("campaign.fingerprint_us_per_job", "us", L, "work_per_s", WARM, CAMPAIGN),
    m("campaign.store.append_us", "us", L, "work_per_s", SERVE, CAMPAIGN),
    m("campaign.store.open_ms", "ms", L, "work_per_s", WARM, CAMPAIGN),
    m("campaign.store.decode_line_ns", "ns", L, "work_per_s", WARM, CAMPAIGN),
    m("campaign.lease.cycle_us", "us", L, "work_per_s", SERVE, CAMPAIGN),
    // serve + minihttp: per-request-class spans, the handler without a
    // socket, and a whole remote drain beside a local one.
    m("serve.requests", "count", H, "none", NONE, SERVE),
    m("serve.cells_get_200_us", "us", L, "op_p50_us", SERVE, SERVE),
    m("serve.cells_get_304_us", "us", L, "op_p50_us", SERVE, SERVE),
    m("serve.append_post_us", "us", L, "work_per_s", SERVE, SERVE),
    m("serve.shard_tail_get_us", "us", L, "work_per_s", SERVE, SERVE),
    m("serve.lease_cycle_us", "us", L, "work_per_s", SERVE, SERVE),
    m("serve.req_p99_us", "us", L, "none", NONE, SERVE),
    m("serve.handle_ns", "ns", L, "op_p50_us", SERVE, SERVE),
    m("minihttp.roundtrip_us", "us", L, "op_p50_us", SERVE, SERVE),
    m("serve.retries", "count", L, "none", NONE, SERVE),
    m("serve.remote_overhead_pct", "%", L, "none", NONE, SERVE),
    // The tracer itself.
    m("trace.spans", "count", L, "none", NONE, ALL),
    m("trace.overhead_pct", "%", L, "none", NONE, ALL),
];

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `BENCHMARK.json`, byte for byte.
pub fn benchmark_json() -> String {
    let command: Vec<String> = COMMAND.iter().map(|s| json_str(s)).collect();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|e| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(e.name),
                json_str(e.unit),
                json_str(e.better.label()),
                e.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|p| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(p.name),
                json_str(p.unit),
                json_str(p.better.label())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"ledger\"],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.join(", "),
        RUN_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
