//! Profiling harness: the perf ledger's `sim_high_mpki` / `sim_write_drain`
//! / `sim_low_mpki` workloads as a standalone binary, so a sampling profiler
//! and the run loop's own counts ([`System::loop_stats`], printed to stderr
//! after the last repetition) explain the number the ledger reports — same
//! seed, mix, mechanism, density, warmup and run length as
//! `ledger/src/sim.rs::case`.
//!
//! ```sh
//! cargo build --release --example profile_high_mpki
//! gprofng collect app target/release/examples/profile_high_mpki write_drain
//! ```
//!
//! [`System::loop_stats`]: dsarp_sim::System::loop_stats

use dsarp_core::Mechanism;
use dsarp_dram::Density;
use dsarp_sim::{SimConfig, SystemBuilder};
use dsarp_workloads::{catalogue, mixes, Workload};
use std::hint::black_box;

/// The ledger's default `--seed`.
const LEDGER_SEED: u64 = 0xD5A2_2014;
const REPS: usize = 5;

fn main() {
    let which = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "high_mpki".into());
    let (workload, mechanism, cycles) = match which.as_str() {
        "high_mpki" => (
            mixes::intensive_mixes(8, LEDGER_SEED)[0].clone(),
            Mechanism::Dsarp,
            600_000,
        ),
        "write_drain" => {
            let lbm = catalogue::by_name("lbm_like").expect("catalogue has lbm_like");
            let workload = Workload {
                name: "8x-lbm_like".into(),
                category: mixes::IntensityCategory::P100,
                benchmarks: vec![lbm; 8],
            };
            (workload, Mechanism::Darp, 600_000)
        }
        "low_mpki" => {
            let workload = Workload {
                name: "8x-compute_bound".into(),
                category: mixes::IntensityCategory::P0,
                benchmarks: vec![&catalogue::COMPUTE_BOUND; 8],
            };
            (workload, Mechanism::Dsarp, 12_000_000)
        }
        other => {
            eprintln!("usage: profile_high_mpki [high_mpki|write_drain|low_mpki] (got `{other}`)");
            std::process::exit(2);
        }
    };
    let cfg = SimConfig::paper(mechanism, Density::G32)
        .with_seed(LEDGER_SEED)
        .with_warmup_ops(100_000);
    for rep in 0..REPS {
        let mut system = SystemBuilder::new(&cfg).workload(&workload).build();
        black_box(system.run(cycles));
        if rep + 1 == REPS {
            eprintln!("{which}: {:?}", system.loop_stats());
        }
    }
}
