//! Quickstart: simulate one memory-intensive 8-core workload under the
//! all-bank refresh baseline and under DSARP, and report the headline
//! numbers.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dsarp_core::Mechanism;
use dsarp_dram::Density;
use dsarp_sim::{SimConfig, SystemBuilder};
use dsarp_workloads::mixes;

fn main() {
    // One of the paper's randomly-mixed memory-intensive workloads.
    let workload = &mixes::intensive_mixes(8, 42)[0];
    println!(
        "workload {}: {:?}",
        workload.name,
        workload
            .benchmarks
            .iter()
            .map(|b| b.name)
            .collect::<Vec<_>>()
    );

    let cycles = 200_000; // DRAM cycles (= 1.2M CPU cycles at 4 GHz)
    for density in [Density::G8, Density::G16, Density::G32] {
        println!("\n--- {density} DRAM chips ---");
        let mut baseline_ipc = None;
        for mech in [
            Mechanism::RefAb,
            Mechanism::RefPb,
            Mechanism::Dsarp,
            Mechanism::NoRefresh,
        ] {
            let cfg = SimConfig::paper(mech, density);
            let stats = SystemBuilder::new(&cfg)
                .workload(workload)
                .build()
                .run(cycles);
            let ipc = stats.total_ipc();
            let base = *baseline_ipc.get_or_insert(ipc);
            println!(
                "{:8}  throughput {:5.2} IPC ({:+5.1}% vs REFab) | {:6} refreshes | \
                 {:5.1} nJ/access | avg read latency {:5.1} ns",
                mech.label(),
                ipc,
                (ipc / base - 1.0) * 100.0,
                stats.refreshes(),
                stats.energy_per_access_nj(),
                stats.avg_read_latency() * 1.5,
            );
        }
    }
    println!(
        "\nDSARP recovers most of the refresh-free ideal, and the gap it closes \
         grows with density — the paper's headline result."
    );
}
