//! Command-timeline comparison of the refresh mechanisms — a textual
//! rendering of the paper's Figures 4, 9 and 10.
//!
//! Runs a short, bursty scenario under each mechanism with the DRAM command
//! log enabled, prints the first stretch of channel-0 commands, and shows
//! how refreshes interleave with (or block) demand accesses.
//!
//! ```text
//! cargo run --release -p dsarp-sim --example refresh_policy_comparison
//! ```

use dsarp_core::Mechanism;
use dsarp_dram::{Command, Density};
use dsarp_sim::{SimConfig, SystemBuilder};
use dsarp_workloads::mixes;

fn render(log: &[(u64, Command)], from: u64, to: u64) -> String {
    let mut out = String::new();
    for (t, cmd) in log.iter().filter(|(t, _)| (from..to).contains(t)) {
        let tag = match cmd {
            Command::RefreshAllBank { .. } | Command::RefreshPerBank { .. } => "**",
            _ => "  ",
        };
        out.push_str(&format!("  {tag} {t:>7}  {cmd}\n"));
    }
    out
}

fn main() {
    let workload = &mixes::intensive_mixes(8, 5)[2];
    // Window around the first all-bank refresh interval.
    let (from, to) = (2_500u64, 3_000u64);

    for mech in [
        Mechanism::RefAb,
        Mechanism::RefPb,
        Mechanism::Darp,
        Mechanism::Dsarp,
    ] {
        let cfg = SimConfig::paper(mech, Density::G32);
        let mut sys = SystemBuilder::new(&cfg)
            .workload(workload)
            .command_log(true)
            .build();
        let stats = sys.run(6_000);
        let log = sys.take_command_log(0);
        let refreshes: Vec<&(u64, Command)> = log.iter().filter(|(_, c)| c.is_refresh()).collect();
        println!("=== {} ===", mech.label());
        println!(
            "  {} commands on channel 0, {} of them refreshes; system IPC {:.2}",
            log.len(),
            refreshes.len(),
            stats.total_ipc()
        );
        println!("  command timeline around the first tREFIab ({from}..{to}):");
        print!("{}", render(&log, from, to));
        match mech {
            Mechanism::RefAb => println!(
                "  ^ REFab needs the whole rank precharged (PREA) and locks it for tRFCab.\n"
            ),
            Mechanism::RefPb => {
                println!("  ^ REFpb rotates through banks in order; other banks keep serving.\n")
            }
            Mechanism::Darp => println!(
                "  ^ DARP steers REFpb to idle banks out of order and hides them in write drains.\n"
            ),
            Mechanism::Dsarp => println!(
                "  ^ DSARP additionally serves rows in other subarrays of a refreshing bank.\n"
            ),
            _ => unreachable!(),
        }
    }
}
