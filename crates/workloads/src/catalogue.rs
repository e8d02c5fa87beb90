//! The benchmark-archetype catalogue, mirroring the paper's suite
//! (SPEC CPU2006 + STREAM + TPC + HPCC RandomAccess).
//!
//! Each archetype is a statistical stand-in for a benchmark family, tuned so
//! its measured MPKI (against the paper's 512 KB LLC slice) lands in the
//! intended class. The `*_like` names indicate which real benchmark's
//! memory behaviour the parameters imitate, not an instruction-level
//! reproduction.

use crate::spec::{BenchmarkSpec, MemClass};

const KB: u64 = 1 << 10;
const MB: u64 = 1 << 20;

/// The full catalogue.
static CATALOGUE: &[BenchmarkSpec] = &[
    // ---- memory-intensive (MPKI >= 10) ----
    BenchmarkSpec {
        name: "stream_copy",
        mem_interval: 3,
        store_frac: 0.33,
        stream_frac: 0.95,
        num_streams: 2,
        stream_stride: 16,
        working_set: 256 * MB,
        hot_frac: 0.9,
        hot_bytes: 256 * KB,
        dep_frac: 0.0,
        class: MemClass::Intensive,
    },
    BenchmarkSpec {
        name: "stream_triad",
        mem_interval: 3,
        store_frac: 0.25,
        stream_frac: 0.92,
        num_streams: 3,
        stream_stride: 16,
        working_set: 256 * MB,
        hot_frac: 0.9,
        hot_bytes: 256 * KB,
        dep_frac: 0.0,
        class: MemClass::Intensive,
    },
    BenchmarkSpec {
        name: "random_access",
        mem_interval: 5,
        store_frac: 0.25,
        stream_frac: 0.0,
        num_streams: 1,
        stream_stride: 8,
        working_set: 512 * MB,
        hot_frac: 0.55,
        hot_bytes: 256 * KB,
        dep_frac: 0.0,
        class: MemClass::Intensive,
    },
    BenchmarkSpec {
        name: "mcf_like",
        mem_interval: 5,
        store_frac: 0.15,
        stream_frac: 0.1,
        num_streams: 1,
        stream_stride: 8,
        working_set: 256 * MB,
        hot_frac: 0.78,
        hot_bytes: 256 * KB,
        dep_frac: 0.7,
        class: MemClass::Intensive,
    },
    BenchmarkSpec {
        name: "libquantum_like",
        mem_interval: 3,
        store_frac: 0.1,
        stream_frac: 1.0,
        num_streams: 1,
        stream_stride: 8,
        working_set: 64 * MB,
        hot_frac: 0.9,
        hot_bytes: 128 * KB,
        dep_frac: 0.0,
        class: MemClass::Intensive,
    },
    BenchmarkSpec {
        name: "milc_like",
        mem_interval: 6,
        store_frac: 0.2,
        stream_frac: 0.6,
        num_streams: 4,
        stream_stride: 32,
        working_set: 128 * MB,
        hot_frac: 0.5,
        hot_bytes: 256 * KB,
        dep_frac: 0.1,
        class: MemClass::Intensive,
    },
    BenchmarkSpec {
        name: "lbm_like",
        mem_interval: 4,
        store_frac: 0.45,
        stream_frac: 0.85,
        num_streams: 6,
        stream_stride: 16,
        working_set: 128 * MB,
        hot_frac: 0.8,
        hot_bytes: 256 * KB,
        dep_frac: 0.0,
        class: MemClass::Intensive,
    },
    BenchmarkSpec {
        name: "soplex_like",
        mem_interval: 7,
        store_frac: 0.2,
        stream_frac: 0.4,
        num_streams: 2,
        stream_stride: 8,
        working_set: 128 * MB,
        hot_frac: 0.6,
        hot_bytes: 256 * KB,
        dep_frac: 0.2,
        class: MemClass::Intensive,
    },
    BenchmarkSpec {
        name: "gems_like",
        mem_interval: 6,
        store_frac: 0.25,
        stream_frac: 0.5,
        num_streams: 3,
        stream_stride: 16,
        working_set: 256 * MB,
        hot_frac: 0.7,
        hot_bytes: 256 * KB,
        dep_frac: 0.05,
        class: MemClass::Intensive,
    },
    BenchmarkSpec {
        name: "leslie3d_like",
        mem_interval: 5,
        store_frac: 0.3,
        stream_frac: 0.7,
        num_streams: 4,
        stream_stride: 16,
        working_set: 128 * MB,
        hot_frac: 0.75,
        hot_bytes: 256 * KB,
        dep_frac: 0.0,
        class: MemClass::Intensive,
    },
    BenchmarkSpec {
        name: "omnetpp_like",
        mem_interval: 8,
        store_frac: 0.25,
        stream_frac: 0.0,
        num_streams: 1,
        stream_stride: 8,
        working_set: 128 * MB,
        hot_frac: 0.85,
        hot_bytes: 384 * KB,
        dep_frac: 0.5,
        class: MemClass::Intensive,
    },
    BenchmarkSpec {
        name: "tpcc_like",
        mem_interval: 7,
        store_frac: 0.35,
        stream_frac: 0.05,
        num_streams: 1,
        stream_stride: 8,
        working_set: 512 * MB,
        hot_frac: 0.85,
        hot_bytes: 384 * KB,
        dep_frac: 0.3,
        class: MemClass::Intensive,
    },
    BenchmarkSpec {
        name: "tpch_like",
        mem_interval: 5,
        store_frac: 0.15,
        stream_frac: 0.6,
        num_streams: 4,
        stream_stride: 16,
        working_set: 512 * MB,
        hot_frac: 0.6,
        hot_bytes: 256 * KB,
        dep_frac: 0.1,
        class: MemClass::Intensive,
    },
    BenchmarkSpec {
        name: "astar_like",
        mem_interval: 9,
        store_frac: 0.2,
        stream_frac: 0.0,
        num_streams: 1,
        stream_stride: 8,
        working_set: 64 * MB,
        hot_frac: 0.85,
        hot_bytes: 384 * KB,
        dep_frac: 0.5,
        class: MemClass::Intensive,
    },
    // ---- memory-non-intensive (MPKI < 10) ----
    BenchmarkSpec {
        name: "povray_like",
        mem_interval: 25,
        store_frac: 0.2,
        stream_frac: 0.1,
        num_streams: 1,
        stream_stride: 8,
        working_set: 4 * MB,
        hot_frac: 0.9995,
        hot_bytes: 64 * KB,
        dep_frac: 0.0,
        class: MemClass::NonIntensive,
    },
    BenchmarkSpec {
        name: "calculix_like",
        mem_interval: 12,
        store_frac: 0.2,
        stream_frac: 0.15,
        num_streams: 2,
        stream_stride: 8,
        working_set: 16 * MB,
        hot_frac: 0.999,
        hot_bytes: 128 * KB,
        dep_frac: 0.0,
        class: MemClass::NonIntensive,
    },
    BenchmarkSpec {
        name: "gcc_like",
        mem_interval: 11,
        store_frac: 0.25,
        stream_frac: 0.1,
        num_streams: 2,
        stream_stride: 8,
        working_set: 32 * MB,
        hot_frac: 0.997,
        hot_bytes: 256 * KB,
        dep_frac: 0.2,
        class: MemClass::NonIntensive,
    },
    BenchmarkSpec {
        name: "perlbench_like",
        mem_interval: 14,
        store_frac: 0.3,
        stream_frac: 0.1,
        num_streams: 1,
        stream_stride: 8,
        working_set: 16 * MB,
        hot_frac: 0.998,
        hot_bytes: 256 * KB,
        dep_frac: 0.3,
        class: MemClass::NonIntensive,
    },
    BenchmarkSpec {
        name: "namd_like",
        mem_interval: 14,
        store_frac: 0.15,
        stream_frac: 0.15,
        num_streams: 2,
        stream_stride: 8,
        working_set: 16 * MB,
        hot_frac: 0.999,
        hot_bytes: 256 * KB,
        dep_frac: 0.0,
        class: MemClass::NonIntensive,
    },
    BenchmarkSpec {
        name: "gromacs_like",
        mem_interval: 16,
        store_frac: 0.2,
        stream_frac: 0.15,
        num_streams: 2,
        stream_stride: 8,
        working_set: 16 * MB,
        hot_frac: 0.999,
        hot_bytes: 128 * KB,
        dep_frac: 0.0,
        class: MemClass::NonIntensive,
    },
    BenchmarkSpec {
        name: "h264_like",
        mem_interval: 15,
        store_frac: 0.25,
        stream_frac: 0.15,
        num_streams: 3,
        stream_stride: 8,
        working_set: 8 * MB,
        hot_frac: 0.999,
        hot_bytes: 256 * KB,
        dep_frac: 0.0,
        class: MemClass::NonIntensive,
    },
    BenchmarkSpec {
        name: "sjeng_like",
        mem_interval: 18,
        store_frac: 0.2,
        stream_frac: 0.0,
        num_streams: 1,
        stream_stride: 8,
        working_set: 16 * MB,
        hot_frac: 0.999,
        hot_bytes: 256 * KB,
        dep_frac: 0.2,
        class: MemClass::NonIntensive,
    },
    BenchmarkSpec {
        name: "gobmk_like",
        mem_interval: 15,
        store_frac: 0.25,
        stream_frac: 0.1,
        num_streams: 1,
        stream_stride: 8,
        working_set: 32 * MB,
        hot_frac: 0.999,
        hot_bytes: 256 * KB,
        dep_frac: 0.1,
        class: MemClass::NonIntensive,
    },
];

/// A maximally compute-bound archetype in the povray/gamess class
/// (measured MPKI ≈ 0.07): thousands of instructions between LLC accesses,
/// nearly all of which hit a cache-resident hot set. Deliberately kept out
/// of [`all`] and the random-mix pools — the catalogue's non-intensive
/// archetypes floor at `mem_interval` 25, which keeps cores busy with
/// in-flight LLC hits, whereas this one leaves long dead spans between
/// memory events. The skip-ahead throughput bench and exactness tests use
/// it as the payoff/stress case for the event-driven loop.
pub static COMPUTE_BOUND: BenchmarkSpec = BenchmarkSpec {
    name: "compute_bound",
    mem_interval: 4000,
    store_frac: 0.2,
    stream_frac: 0.0,
    num_streams: 1,
    stream_stride: 64,
    working_set: 64 * MB,
    hot_frac: 0.97,
    hot_bytes: 128 * KB,
    dep_frac: 0.1,
    class: MemClass::NonIntensive,
};

/// All archetypes.
pub fn all() -> &'static [BenchmarkSpec] {
    CATALOGUE
}

/// The memory-intensive archetypes (MPKI ≥ 10 by design).
pub(crate) fn intensive() -> Vec<&'static BenchmarkSpec> {
    CATALOGUE.iter().filter(|s| s.is_intensive()).collect()
}

/// The memory-non-intensive archetypes.
pub(crate) fn non_intensive() -> Vec<&'static BenchmarkSpec> {
    CATALOGUE.iter().filter(|s| !s.is_intensive()).collect()
}

/// Looks up an archetype by name.
pub fn by_name(name: &str) -> Option<&'static BenchmarkSpec> {
    CATALOGUE.iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = CATALOGUE.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CATALOGUE.len());
    }

    #[test]
    fn both_pools_are_populated() {
        assert!(intensive().len() >= 10, "need a rich intensive pool");
        assert!(non_intensive().len() >= 8, "need a rich non-intensive pool");
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("mcf_like").is_some());
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn probabilities_are_valid() {
        for s in CATALOGUE {
            for (label, p) in [
                ("store_frac", s.store_frac),
                ("stream_frac", s.stream_frac),
                ("hot_frac", s.hot_frac),
                ("dep_frac", s.dep_frac),
            ] {
                assert!((0.0..=1.0).contains(&p), "{}: {label} = {p}", s.name);
            }
            assert!(s.working_set >= s.hot_bytes);
            assert!(s.stream_stride > 0);
        }
    }
}
