//! Benchmark archetype parameters and MPKI classification.

use serde::{Deserialize, Serialize};

/// Memory-intensity class, per the paper's MPKI ≥ 10 threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemClass {
    /// MPKI ≥ 10.
    Intensive,
    /// MPKI < 10.
    NonIntensive,
}

/// Statistical description of one synthetic benchmark.
///
/// The generator produces `(bubbles, memory-op)` trace entries where:
/// * bubbles are uniform in `[0, 2 * mem_interval]` (mean = `mem_interval`);
/// * a fraction `stream_frac` of memory ops walk one of `num_streams`
///   sequential streams with `stream_stride`-byte steps (row-buffer-friendly
///   and LLC-line reusing when the stride is below the line size);
/// * the rest are random accesses: `hot_frac` of them go to a `hot_bytes`
///   resident set (LLC hits), the remainder uniform over `working_set`
///   bytes (LLC misses for large working sets);
/// * `store_frac` of memory ops are stores (dirtying lines → writebacks);
/// * `dep_frac` of random loads depend on the previous load (pointer
///   chasing, limiting memory-level parallelism).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkSpec {
    /// Short benchmark name (unique within the catalogue).
    pub name: &'static str,
    /// Mean non-memory instructions between memory operations.
    pub mem_interval: u32,
    /// Fraction of memory ops that are stores.
    pub store_frac: f64,
    /// Fraction of memory ops on sequential streams.
    pub stream_frac: f64,
    /// Number of concurrent sequential streams.
    pub num_streams: usize,
    /// Stream step size in bytes.
    pub stream_stride: u64,
    /// Random-access working set in bytes (per core).
    pub working_set: u64,
    /// Fraction of random accesses that hit the hot set.
    pub hot_frac: f64,
    /// Hot-set size in bytes (LLC-resident when below the slice size).
    pub hot_bytes: u64,
    /// Fraction of random loads dependent on the previous load.
    pub dep_frac: f64,
    /// The class this archetype is designed for (validated by tests against
    /// [`measured_mpki`]).
    pub class: MemClass,
}

impl BenchmarkSpec {
    /// Whether this archetype is memory-intensive by design.
    pub(crate) fn is_intensive(&self) -> bool {
        self.class == MemClass::Intensive
    }
}

/// Measures the archetype's misses-per-kilo-instruction against the paper's
/// LLC configuration (a 512 KB 16-way slice, i.e. the per-core share), using
/// a timing-independent cache walk of `insts` instructions.
///
/// This is the classification harness: MPKI depends only on the address
/// stream and the cache, not on DRAM timing, so no full simulation is
/// needed.
pub fn measured_mpki(spec: &BenchmarkSpec, insts: u64) -> f64 {
    use dsarp_cpu::{Llc, LlcParams, TraceSource};

    let mut llc = Llc::new(LlcParams::paper_default(1));
    let mut trace = crate::synth::SyntheticTrace::new(spec, 0, 1, 0x5EED);
    let mut retired = 0u64;
    // Warm up the cache with ~1/4 of the budget before counting.
    let warmup = insts / 4;
    let mut counted_insts = 0u64;
    let mut start_misses = 0u64;
    while retired < insts {
        let op = trace.next_op();
        retired += u64::from(op.bubbles) + 1;
        llc.access(op.addr, op.kind == dsarp_cpu::MemKind::Store);
        if retired >= warmup && counted_insts == 0 {
            counted_insts = retired;
            start_misses = llc.stats().misses;
        }
    }
    let insts_counted = retired - counted_insts;
    let misses = llc.stats().misses - start_misses;
    if insts_counted == 0 {
        0.0
    } else {
        misses as f64 * 1000.0 / insts_counted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue;

    #[test]
    fn catalogue_classes_match_measured_mpki() {
        for spec in catalogue::all().iter() {
            let mpki = measured_mpki(spec, 400_000);
            match spec.class {
                MemClass::Intensive => assert!(
                    mpki >= 10.0,
                    "{} designed intensive but MPKI = {mpki:.1}",
                    spec.name
                ),
                MemClass::NonIntensive => assert!(
                    mpki < 10.0,
                    "{} designed non-intensive but MPKI = {mpki:.1}",
                    spec.name
                ),
            }
        }
    }

    #[test]
    fn catalogue_spans_a_wide_intensity_range() {
        let mpkis: Vec<f64> = catalogue::all()
            .iter()
            .map(|s| measured_mpki(s, 400_000))
            .collect();
        let max = mpkis.iter().cloned().fold(0.0, f64::max);
        let min = mpkis.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max > 40.0,
            "need a very intensive benchmark, max = {max:.1}"
        );
        assert!(
            min < 4.0,
            "need a nearly compute-bound benchmark, min = {min:.1}"
        );
    }
}
