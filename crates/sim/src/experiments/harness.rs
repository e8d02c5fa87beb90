//! Shared experiment infrastructure: run scaling, parallel execution, and
//! the main (workload × mechanism × density) result grid.

use crate::config::SimConfig;
use crate::metrics::Metrics;
use crate::system::SystemBuilder;
use dsarp_core::Mechanism;
use dsarp_dram::Density;
use dsarp_workloads::{IntensityCategory, Workload};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How big to run the experiments. The paper simulates 256 M CPU cycles per
/// run; the defaults here are throughput-scaled: `quick` is 40 000 DRAM
/// cycles = 15 `tREFIab` at 32 ms, `full` is 115. Windows this short have
/// not converged: a policy that may postpone up to 8 refreshes can end a
/// run still owing them, and is credited for the refresh work it skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Scale {
    /// DRAM cycles per multiprogrammed run (6 CPU cycles each).
    pub dram_cycles: u64,
    /// DRAM cycles per alone-IPC measurement run.
    pub alone_cycles: u64,
    /// Workloads taken per intensity category (the paper uses 20).
    pub per_category: usize,
    /// Worker threads (0 = all available).
    pub threads: usize,
    /// Functional-warmup memory ops per core (see `SimConfig::warmup_ops`).
    pub warmup_ops: u64,
}

impl Scale {
    /// Full fidelity for the experiments binary.
    pub fn full() -> Self {
        Self {
            dram_cycles: 300_000,
            alone_cycles: 150_000,
            per_category: 20,
            threads: 0,
            warmup_ops: 100_000,
        }
    }

    /// Reduced scale for smoke runs, CI and the perf ledger.
    pub fn quick() -> Self {
        Self {
            dram_cycles: 40_000,
            alone_cycles: 25_000,
            per_category: 2,
            threads: 0,
            warmup_ops: 25_000,
        }
    }

    /// This scale with an explicit worker thread budget (0 = all cores) —
    /// distributed campaign workers co-located on one host use this to
    /// split the machine between processes.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Resolved thread count.
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        }
    }

    /// The evaluation workload set at this scale (5 categories ×
    /// `per_category`), mixes selected by `seed` (the campaign engine's
    /// seed axis; the paper's is [`WORKLOAD_SEED`]).
    pub fn workloads_with_seed(&self, seed: u64) -> Vec<Workload> {
        let all = dsarp_workloads::mixes::paper_workloads(8, seed);
        IntensityCategory::all()
            .iter()
            .flat_map(|cat| {
                all.iter()
                    .filter(|w| w.category == *cat)
                    .take(self.per_category)
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// The 16 memory-intensive sensitivity workloads (truncated at quick
    /// scale), mixes selected by `seed`.
    pub fn intensive_workloads_with_seed(&self, cores: usize, seed: u64) -> Vec<Workload> {
        let n = if self.per_category >= 20 {
            16
        } else {
            4.min(self.per_category * 2)
        };
        dsarp_workloads::mixes::intensive_mixes(cores, seed)
            .into_iter()
            .take(n)
            .collect()
    }
}

/// Seed fixing the randomly-mixed workload selection.
pub const WORKLOAD_SEED: u64 = 0x2014_D5A2;

/// Runs `f` over `items` on a scoped thread pool, preserving order.
///
/// Workers pull indices from a shared counter and send index-tagged
/// results over one channel; the spawning thread places them by index, so
/// no per-slot locks or allocations sit on the orchestration hot path.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.max(1).min(n);
    let next = &AtomicUsize::new(0);
    let f = &f;
    let (tx, rx) = std::sync::mpsc::channel::<(usize, R)>();
    std::thread::scope(|s| {
        for _ in 0..threads {
            let tx = tx.clone();
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                tx.send((i, f(&items[i]))).expect("receiver outlives scope");
            });
        }
        drop(tx);
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (i, r) in rx {
            out[i] = Some(r);
        }
        out.into_iter()
            .map(|r| r.expect("every index sent once"))
            .collect()
    })
}

/// One cell of the main result grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WsRow {
    /// Workload name (e.g. `w042`).
    pub workload: String,
    /// Intensity category percentage (0/25/50/75/100).
    pub category: u32,
    /// Mechanism evaluated.
    pub mechanism: Mechanism,
    /// DRAM density.
    pub density: Density,
    /// Weighted speedup.
    pub ws: f64,
    /// Harmonic speedup.
    pub hs: f64,
    /// Maximum slowdown.
    pub max_slowdown: f64,
    /// Energy per DRAM access (nJ).
    pub energy_nj: f64,
    /// Sum of per-core IPCs.
    pub total_ipc: f64,
}

/// The main grid: metrics for every (workload, mechanism, density) tuple.
///
/// Rows are indexed by `(mechanism, density)` → workload name on
/// construction, so [`Grid::get`] is O(1) and [`Grid::pairs`] is linear
/// instead of quadratic in the row count.
#[derive(Debug, Clone, Default)]
pub struct Grid {
    rows: Vec<WsRow>,
    index: HashMap<(Mechanism, Density), HashMap<String, usize>>,
}

impl Grid {
    /// Builds a grid (and its lookup index) from pre-computed rows.
    ///
    /// When duplicate `(workload, mechanism, density)` rows are present the
    /// first one wins, matching the scan order `get` historically used.
    pub fn from_rows(rows: Vec<WsRow>) -> Self {
        let mut grid = Grid {
            rows,
            index: HashMap::new(),
        };
        grid.reindex(0);
        grid
    }

    fn reindex(&mut self, from: usize) {
        for (i, r) in self.rows.iter().enumerate().skip(from) {
            self.index
                .entry((r.mechanism, r.density))
                .or_default()
                .entry(r.workload.clone())
                .or_insert(i);
        }
    }
    /// Computes the grid directly, parallelized across runs; `make_cfg`
    /// builds each cell's configuration. Alone-IPCs are measured first (one
    /// single-core run per benchmark × density). This is the independent
    /// reference the campaign engine's grids are tested against.
    pub fn compute_with(
        workloads: &[Workload],
        mechanisms: &[Mechanism],
        densities: &[Density],
        scale: &Scale,
        make_cfg: impl Fn(&Mechanism, &Density) -> SimConfig + Sync,
    ) -> Self {
        let threads = scale.resolved_threads();

        // 1. Alone IPCs per (benchmark, density), measured with the config's
        //    own geometry/retention so sweeps stay internally consistent.
        let mut alone_keys: Vec<(&'static dsarp_workloads::BenchmarkSpec, Density)> = Vec::new();
        for d in densities {
            let mut seen = std::collections::HashSet::new();
            for wl in workloads {
                for b in &wl.benchmarks {
                    if seen.insert(b.name) {
                        alone_keys.push((b, *d));
                    }
                }
            }
        }
        let alone_vals = parallel_map(&alone_keys, threads, |(bench, d)| {
            let base = make_cfg(&Mechanism::NoRefresh, d).with_warmup_ops(scale.warmup_ops);
            let cfg = base.alone();
            let wl = Workload::alone_for(bench);
            SystemBuilder::new(&cfg)
                .workload(&wl)
                .build()
                .run(scale.alone_cycles)
                .ipc[0]
                .max(1e-9)
        });
        let alone: HashMap<(&str, Density), f64> = alone_keys
            .iter()
            .zip(alone_vals)
            .map(|((b, d), v)| ((b.name, *d), v))
            .collect();

        // 2. The grid itself.
        let mut tuples: Vec<(usize, Mechanism, Density)> = Vec::new();
        for d in densities {
            for m in mechanisms {
                for (i, _) in workloads.iter().enumerate() {
                    tuples.push((i, *m, *d));
                }
            }
        }
        let rows = parallel_map(&tuples, threads, |(wi, m, d)| {
            let wl = &workloads[*wi];
            let cfg = make_cfg(m, d).with_warmup_ops(scale.warmup_ops);
            let stats = SystemBuilder::new(&cfg)
                .workload(wl)
                .build()
                .run(scale.dram_cycles);
            let alone_ipcs: Vec<f64> = wl
                .benchmarks
                .iter()
                .take(cfg.cores)
                .map(|b| alone[&(b.name, *d)])
                .collect();
            let metrics = Metrics::compute(&stats, &alone_ipcs);
            WsRow {
                workload: wl.name.clone(),
                category: wl.category.percent(),
                mechanism: *m,
                density: *d,
                ws: metrics.weighted_speedup,
                hs: metrics.harmonic_speedup,
                max_slowdown: metrics.max_slowdown,
                energy_nj: metrics.energy_per_access_nj,
                total_ipc: stats.total_ipc(),
            }
        });
        Self::from_rows(rows)
    }

    /// All rows.
    pub fn rows(&self) -> &[WsRow] {
        &self.rows
    }

    /// The row for one (workload, mechanism, density). O(1).
    pub fn get(&self, workload: &str, mechanism: Mechanism, density: Density) -> Option<&WsRow> {
        self.index
            .get(&(mechanism, density))
            .and_then(|by_wl| by_wl.get(workload))
            .map(|&i| &self.rows[i])
    }

    /// Each `mechanism` row at `density`, in row order, paired with the
    /// same workload's `base` row (a row without one is skipped): the
    /// one place a reduction finds a row's baseline.
    pub fn pairs(
        &self,
        mechanism: Mechanism,
        base: Mechanism,
        density: Density,
    ) -> impl Iterator<Item = (&WsRow, &WsRow)> {
        self.rows
            .iter()
            .filter(move |r| r.mechanism == mechanism && r.density == density)
            .filter_map(move |r| Some((r, self.get(&r.workload, base, density)?)))
    }

    /// Merges another grid's rows into this one.
    pub fn merge(&mut self, other: Grid) {
        let from = self.rows.len();
        self.rows.extend(other.rows);
        self.reindex(from);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, 8, |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty() {
        let out: Vec<u64> = parallel_map(&Vec::<u64>::new(), 4, |x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn scale_workload_sets() {
        let s = Scale {
            dram_cycles: 1,
            alone_cycles: 1,
            per_category: 3,
            threads: 1,
            warmup_ops: 1_000,
        };
        let w = s.workloads_with_seed(WORKLOAD_SEED);
        assert_eq!(w.len(), 15);
        assert_eq!(w.iter().filter(|x| x.category.percent() == 50).count(), 3);
        assert!(!s.intensive_workloads_with_seed(8, WORKLOAD_SEED).is_empty());
    }

    fn row(workload: &str, mechanism: Mechanism, density: Density, ws: f64) -> WsRow {
        WsRow {
            workload: workload.into(),
            category: 100,
            mechanism,
            density,
            ws,
            hs: ws,
            max_slowdown: 1.0,
            energy_nj: 1.0,
            total_ipc: ws,
        }
    }

    #[test]
    fn index_matches_linear_scan_semantics() {
        let rows = vec![
            row("a", Mechanism::RefAb, Density::G8, 1.0),
            row("a", Mechanism::Dsarp, Density::G8, 2.0),
            row("b", Mechanism::RefAb, Density::G32, 3.0),
            // Duplicate cell: first occurrence must win, as the old scan did.
            row("a", Mechanism::RefAb, Density::G8, 9.0),
        ];
        let grid = Grid::from_rows(rows);
        assert_eq!(
            grid.get("a", Mechanism::RefAb, Density::G8).unwrap().ws,
            1.0
        );
        assert_eq!(
            grid.get("b", Mechanism::RefAb, Density::G32).unwrap().ws,
            3.0
        );
        assert!(grid.get("b", Mechanism::RefAb, Density::G8).is_none());
        assert!(grid.get("c", Mechanism::RefAb, Density::G8).is_none());
    }

    #[test]
    fn merge_keeps_index_consistent() {
        let mut grid = Grid::from_rows(vec![row("a", Mechanism::RefPb, Density::G8, 1.5)]);
        grid.merge(Grid::from_rows(vec![
            row("b", Mechanism::RefPb, Density::G8, 2.5),
            row("a", Mechanism::RefPb, Density::G8, 7.0), // loses to existing "a"
        ]));
        assert_eq!(grid.rows().len(), 3);
        assert_eq!(
            grid.get("a", Mechanism::RefPb, Density::G8).unwrap().ws,
            1.5
        );
        assert_eq!(
            grid.get("b", Mechanism::RefPb, Density::G8).unwrap().ws,
            2.5
        );
        let pairs = grid.pairs(Mechanism::RefPb, Mechanism::RefPb, Density::G8);
        assert_eq!(pairs.count(), 3);
    }

    #[test]
    fn tiny_grid_end_to_end() {
        let scale = Scale {
            dram_cycles: 4_000,
            alone_cycles: 3_000,
            per_category: 1,
            threads: 4,
            warmup_ops: 1_000,
        };
        let wls = &scale.workloads_with_seed(WORKLOAD_SEED)[..2];
        let grid = Grid::compute_with(
            wls,
            &[Mechanism::RefAb, Mechanism::NoRefresh],
            &[Density::G32],
            &scale,
            |m, d| SimConfig::paper(*m, *d),
        );
        assert_eq!(grid.rows().len(), 4);
        let pairs: Vec<_> = grid
            .pairs(Mechanism::NoRefresh, Mechanism::RefAb, Density::G32)
            .collect();
        assert_eq!(pairs.len(), 2);
        for (row, base) in pairs {
            assert_eq!(row.workload, base.workload);
            assert!(row.ws / base.ws > 0.0);
        }
    }
}
