//! Multiprogrammed workload mixes: the paper's 100-workload evaluation set
//! and the 16 memory-intensive mixes for sensitivity studies.

use crate::catalogue;
use crate::spec::BenchmarkSpec;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The paper's five intensity categories: the percentage of
/// memory-intensive benchmarks within a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IntensityCategory {
    /// 0% memory-intensive.
    P0,
    /// 25% memory-intensive.
    P25,
    /// 50% memory-intensive.
    P50,
    /// 75% memory-intensive.
    P75,
    /// 100% memory-intensive.
    P100,
}

impl IntensityCategory {
    /// All five categories in ascending order.
    pub fn all() -> [IntensityCategory; 5] {
        [Self::P0, Self::P25, Self::P50, Self::P75, Self::P100]
    }

    /// The category's percentage.
    pub fn percent(self) -> u32 {
        match self {
            Self::P0 => 0,
            Self::P25 => 25,
            Self::P50 => 50,
            Self::P75 => 75,
            Self::P100 => 100,
        }
    }

    /// Number of memory-intensive slots in a `cores`-wide workload.
    pub(crate) fn intensive_count(self, cores: usize) -> usize {
        (cores * self.percent() as usize + 50) / 100
    }
}

impl std::fmt::Display for IntensityCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}%", self.percent())
    }
}

/// One multiprogrammed workload: a benchmark per core.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Identifier, e.g. `w042`.
    pub name: String,
    /// Intensity category the mix was drawn for.
    pub category: IntensityCategory,
    /// One benchmark per core.
    pub benchmarks: Vec<&'static BenchmarkSpec>,
}

impl Workload {
    /// The single-benchmark workload used for alone-IPC measurement runs
    /// (one core, named `alone-<bench>`). The experiment harness and the
    /// campaign executor both build their alone runs through this, so the
    /// two paths cannot diverge.
    pub fn alone_for(bench: &'static BenchmarkSpec) -> Workload {
        Workload {
            name: format!("alone-{}", bench.name),
            category: IntensityCategory::P100,
            benchmarks: vec![bench],
        }
    }

    /// Number of cores this workload occupies.
    pub fn cores(&self) -> usize {
        self.benchmarks.len()
    }
}

/// Builds one random mix with `k` intensive slots out of `cores`.
fn random_mix(
    rng: &mut StdRng,
    cores: usize,
    k: usize,
    name: String,
    category: IntensityCategory,
) -> Workload {
    let pool_hi = catalogue::intensive();
    let pool_lo = catalogue::non_intensive();
    let mut benchmarks: Vec<&'static BenchmarkSpec> = Vec::with_capacity(cores);
    for _ in 0..k {
        benchmarks.push(pool_hi[rng.gen_range(0..pool_hi.len())]);
    }
    for _ in k..cores {
        benchmarks.push(pool_lo[rng.gen_range(0..pool_lo.len())]);
    }
    benchmarks.shuffle(rng);
    Workload {
        name,
        category,
        benchmarks,
    }
}

/// The paper's main evaluation set: 5 intensity categories × 20 random
/// mixes = 100 workloads (§5). Deterministic in `seed`.
pub fn paper_workloads(cores: usize, seed: u64) -> Vec<Workload> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(100);
    let mut idx = 0;
    for cat in IntensityCategory::all() {
        let k = cat.intensive_count(cores);
        for _ in 0..20 {
            out.push(random_mix(&mut rng, cores, k, format!("w{idx:03}"), cat));
            idx += 1;
        }
    }
    out
}

/// The 16 randomly selected memory-intensive workloads the paper uses for
/// sensitivity studies (§5: Sections 6.1.5, 6.2, 6.3 and 6.4).
pub fn intensive_mixes(cores: usize, seed: u64) -> Vec<Workload> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFEED_FACE);
    (0..16)
        .map(|i| {
            random_mix(
                &mut rng,
                cores,
                cores,
                format!("mi{i:02}"),
                IntensityCategory::P100,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hundred_workloads_in_five_categories() {
        let w = paper_workloads(8, 1);
        assert_eq!(w.len(), 100);
        for cat in IntensityCategory::all() {
            assert_eq!(w.iter().filter(|x| x.category == cat).count(), 20);
        }
    }

    #[test]
    fn category_controls_intensive_fraction() {
        let w = paper_workloads(8, 7);
        for wl in &w {
            let intensive = wl.benchmarks.iter().filter(|b| b.is_intensive()).count();
            assert_eq!(intensive, wl.category.intensive_count(8), "{}", wl.name);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(paper_workloads(8, 5), paper_workloads(8, 5));
        assert_ne!(paper_workloads(8, 5), paper_workloads(8, 6));
    }

    #[test]
    fn intensive_count_rounds_for_small_cores() {
        assert_eq!(IntensityCategory::P25.intensive_count(8), 2);
        assert_eq!(IntensityCategory::P25.intensive_count(2), 1); // rounds up
        assert_eq!(IntensityCategory::P50.intensive_count(4), 2);
        assert_eq!(IntensityCategory::P0.intensive_count(8), 0);
        assert_eq!(IntensityCategory::P100.intensive_count(8), 8);
    }

    #[test]
    fn sensitivity_mixes_are_fully_intensive() {
        let w = intensive_mixes(8, 3);
        assert_eq!(w.len(), 16);
        for wl in &w {
            assert!(wl.benchmarks.iter().all(|b| b.is_intensive()));
            assert_eq!(wl.cores(), 8);
        }
    }

    #[test]
    fn names_are_unique() {
        let w = paper_workloads(8, 1);
        let mut names: Vec<_> = w.iter().map(|x| x.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 100);
    }
}
