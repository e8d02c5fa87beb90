//! Profiling harness: the perf ledger's `sim_high_mpki` / `sim_write_drain`
//! workloads as a standalone binary, so a sampling profiler explains the
//! number the ledger reports — same seed, mix, mechanism, density, warmup
//! and run length as `ledger/src/sim.rs::case`.
//!
//! ```sh
//! cargo build --release --example profile_high_mpki
//! gprofng collect app target/release/examples/profile_high_mpki write_drain
//! ```

use dsarp_core::Mechanism;
use dsarp_dram::Density;
use dsarp_sim::{SimConfig, SystemBuilder};
use dsarp_workloads::{catalogue, mixes, Workload};
use std::hint::black_box;

/// The ledger's default `--seed`.
const LEDGER_SEED: u64 = 0xD5A2_2014;
const CYCLES: u64 = 600_000;
const REPS: usize = 5;

fn main() {
    let which = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "high_mpki".into());
    let (workload, mechanism) = match which.as_str() {
        "high_mpki" => (
            mixes::intensive_mixes(8, LEDGER_SEED)[0].clone(),
            Mechanism::Dsarp,
        ),
        "write_drain" => {
            let lbm = catalogue::by_name("lbm_like").expect("catalogue has lbm_like");
            let workload = Workload {
                name: "8x-lbm_like".into(),
                category: mixes::IntensityCategory::P100,
                benchmarks: vec![lbm; 8],
            };
            (workload, Mechanism::Darp)
        }
        other => {
            eprintln!("usage: profile_high_mpki [high_mpki|write_drain] (got `{other}`)");
            std::process::exit(2);
        }
    };
    let cfg = SimConfig::paper(mechanism, Density::G32)
        .with_seed(LEDGER_SEED)
        .with_warmup_ops(100_000);
    for _ in 0..REPS {
        black_box(
            SystemBuilder::new(&cfg)
                .workload(&workload)
                .build()
                .run(CYCLES),
        );
    }
}
