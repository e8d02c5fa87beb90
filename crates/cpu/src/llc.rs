//! Shared last-level cache: set-associative, writeback, write-allocate.
//!
//! Dirty evictions are the only source of DRAM writes in the paper's system
//! (§4.2.2: "DRAM writes are writebacks from the last-level cache"), which
//! is what gives write-refresh parallelization its batched write stream.

use serde::{Deserialize, Serialize};

/// LLC shape parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LlcParams {
    /// Total capacity in bytes (the paper: 512 KB × number of cores).
    pub capacity_bytes: usize,
    /// Associativity (16 in the paper).
    pub assoc: usize,
    /// Line size in bytes (64 in the paper).
    pub line_bytes: usize,
}

impl LlcParams {
    /// The paper's LLC for `cores` cores: 512 KB 16-way slice per core.
    pub fn paper_default(cores: usize) -> Self {
        Self {
            capacity_bytes: 512 * 1024 * cores,
            assoc: 16,
            line_bytes: 64,
        }
    }

    /// Number of sets.
    pub(crate) fn sets(&self) -> usize {
        self.capacity_bytes / (self.assoc * self.line_bytes)
    }
}

/// Outcome of an LLC access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LlcResult {
    /// The line was present.
    Hit,
    /// The line was absent and has been installed; if the victim was dirty,
    /// its address must be written back to DRAM.
    Miss {
        /// Line-aligned address of the dirty victim to write back, if any.
        writeback: Option<u64>,
    },
}

/// Hit/miss/writeback counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LlcStats {
    /// Hits served.
    pub hits: u64,
    /// Misses (fills from DRAM).
    pub misses: u64,
    /// Dirty evictions sent to DRAM.
    pub writebacks: u64,
}

impl LlcStats {
    /// Miss ratio over all accesses.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Tag value no line can produce (addresses are < 2^58 lines); marks an
/// invalid way in the tag array so the hit scan needs no `valid` check.
const INVALID_TAG: u64 = u64::MAX;

/// The dirty bit of a way's stamp.
const DIRTY: u32 = 1 << 31;

/// The recency bits of a way's stamp, and the largest tick they hold.
const RECENCY: u32 = DIRTY - 1;

/// The shared LLC. Addresses are hashed to sets by their line index, which
/// spreads each core's partitioned address space across all slices —
/// matching the "512 KB private cache-slice per core" organization.
///
/// A line costs 12 bytes of simulator memory: its `u64` tag, in a dense
/// array of its own so the hit scan — the hottest loop in the CPU model —
/// touches 16 contiguous tags (two cache lines per set), and a `u32`
/// stamp holding the tick of its last access in the low 31 bits and its
/// dirty bit in bit 31. A stamp of 0 is an invalid way (ticks start at
/// 1), whose tag is `INVALID_TAG`. When the tick reaches 2³¹−1, every
/// set's valid ways are renumbered 1..=k by recency and the tick restarts
/// above them (`Llc::renumber`). Only the order of stamps *within* a
/// set ever picks a victim, and renumbering keeps that order, so every
/// hit, miss and writeback is the one an unbounded tick would produce.
#[derive(Debug, Clone)]
pub struct Llc {
    params: LlcParams,
    /// Way tags, set-major; `INVALID_TAG` for invalid ways.
    tags: Vec<u64>,
    /// Way stamps, set-major: recency | `DIRTY`; 0 for invalid ways.
    stamps: Vec<u32>,
    stats: LlcStats,
    /// The stamp of the latest access; at most `RECENCY`.
    tick: u32,
    /// `log2(line_bytes)` — the access path runs once per retired memory
    /// instruction, so the line/set math must be shifts and masks, not
    /// divisions by runtime parameters.
    line_shift: u32,
    set_mask: u64,
}

impl Llc {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the parameters do not describe a power-of-two set count or
    /// line size.
    pub fn new(params: LlcParams) -> Self {
        let sets = params.sets();
        assert!(
            sets.is_power_of_two(),
            "LLC set count must be a power of two, got {sets}"
        );
        assert!(
            params.line_bytes.is_power_of_two(),
            "LLC line size must be a power of two, got {}",
            params.line_bytes
        );
        Self {
            params,
            tags: vec![INVALID_TAG; sets * params.assoc],
            stamps: vec![0; sets * params.assoc],
            stats: LlcStats::default(),
            tick: 0,
            line_shift: params.line_bytes.trailing_zeros(),
            set_mask: sets as u64 - 1,
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &LlcStats {
        &self.stats
    }

    /// Zeroes the counters (used after functional warmup).
    pub fn reset_stats(&mut self) {
        self.stats = LlcStats::default();
    }

    fn set_of(&self, line: u64) -> usize {
        // Mix the upper bits so strided streams spread across sets.
        let h = line ^ (line >> 13) ^ (line >> 29);
        (h & self.set_mask) as usize
    }

    /// Accesses the line containing `addr`; `is_store` marks it dirty.
    pub fn access(&mut self, addr: u64, is_store: bool) -> LlcResult {
        if self.tick == RECENCY {
            self.renumber();
        }
        self.tick += 1;
        let dirty = if is_store { DIRTY } else { 0 };
        let line = addr >> self.line_shift;
        let set = self.set_of(line);
        let base = set * self.params.assoc;
        let tags = &self.tags[base..base + self.params.assoc];

        if let Some(i) = tags.iter().position(|&t| t == line) {
            let stamp = &mut self.stamps[base + i];
            *stamp = self.tick | (*stamp & DIRTY) | dirty;
            self.stats.hits += 1;
            return LlcResult::Hit;
        }

        // Miss: choose an invalid way (recency 0) or the LRU victim.
        self.stats.misses += 1;
        let stamps = &mut self.stamps[base..base + self.params.assoc];
        let (i, victim) = stamps
            .iter_mut()
            .enumerate()
            .min_by_key(|(_, stamp)| **stamp & RECENCY)
            .expect("associativity > 0");
        let writeback = if *victim & DIRTY != 0 {
            self.stats.writebacks += 1;
            Some(self.tags[base + i] * self.params.line_bytes as u64)
        } else {
            None
        };
        *victim = self.tick | dirty;
        self.tags[base + i] = line;
        LlcResult::Miss { writeback }
    }

    /// Renumbers each set's valid ways 1..=k from least to most recently
    /// used, keeping their dirty bits, and restarts the tick at the
    /// associativity, above every renumbered stamp. Runs once per 2³¹
    /// accesses; see the type docs for why it is exact.
    #[cold]
    fn renumber(&mut self) {
        let assoc = self.params.assoc;
        let mut order = Vec::with_capacity(assoc);
        for set in self.stamps.chunks_exact_mut(assoc) {
            order.clear();
            order.extend((0..assoc).filter(|&w| set[w] != 0));
            order.sort_unstable_by_key(|&w| set[w] & RECENCY);
            for (rank, &w) in (1..).zip(&order) {
                set[w] = (set[w] & DIRTY) | rank;
            }
        }
        self.tick = u32::try_from(assoc).expect("associativity fits a stamp");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Llc {
        // 4 sets x 2 ways x 64B = 512B.
        Llc::new(LlcParams {
            capacity_bytes: 512,
            assoc: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        assert!(matches!(
            c.access(0x1000, false),
            LlcResult::Miss { writeback: None }
        ));
        assert_eq!(c.access(0x1000, false), LlcResult::Hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn same_line_different_offset_hits() {
        let mut c = small();
        c.access(0x1000, false);
        assert_eq!(c.access(0x103f, false), LlcResult::Hit);
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = small();
        // Find three lines mapping to the same set to force an eviction.
        let base = 0x1000u64;
        let set = {
            let probe = Llc::new(c.params);
            probe.set_of(base / 64)
        };
        let mut same_set = vec![base];
        let mut a = base + 64;
        while same_set.len() < 3 {
            let probe = Llc::new(c.params);
            if probe.set_of(a / 64) == set {
                same_set.push(a);
            }
            a += 64;
        }
        c.access(same_set[0], true); // dirty
        c.access(same_set[1], false);
        // Third fill to the same set evicts the LRU (the dirty first line).
        match c.access(same_set[2], false) {
            LlcResult::Miss {
                writeback: Some(addr),
            } => assert_eq!(addr, same_set[0]),
            other => panic!("expected dirty writeback, got {other:?}"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn store_hit_marks_dirty() {
        let mut c = small();
        c.access(0x2000, false);
        c.access(0x2000, true); // hit, now dirty
                                // Evict it by filling the set.
        let set = {
            let probe = Llc::new(c.params);
            probe.set_of(0x2000 / 64)
        };
        let mut filled = 0;
        let mut a = 0x4000u64;
        let mut saw_writeback = false;
        while filled < 2 {
            let probe = Llc::new(c.params);
            if probe.set_of(a / 64) == set {
                if let LlcResult::Miss { writeback: Some(w) } = c.access(a, false) {
                    assert_eq!(w, 0x2000);
                    saw_writeback = true;
                }
                filled += 1;
            }
            a += 64;
        }
        assert!(saw_writeback);
    }

    #[test]
    fn lru_keeps_recently_used() {
        let mut c = small();
        c.access(0x0, false);
        let set0 = {
            let probe = Llc::new(c.params);
            probe.set_of(0)
        };
        // Touch line 0 repeatedly while filling its set: it must survive.
        let mut a = 0x1000u64;
        let mut fills = 0;
        while fills < 4 {
            let probe = Llc::new(c.params);
            if probe.set_of(a / 64) == set0 {
                c.access(0x0, false); // refresh LRU
                c.access(a, false);
                fills += 1;
            }
            a += 64;
        }
        assert!(c.tags.contains(&0));
    }

    /// A tick that runs out mid-stream renumbers every set by recency: each
    /// result and the counters equal a fresh cache's, access for access.
    /// Raising the tick keeps every set's order, so the stream is made to
    /// wrap four times.
    #[test]
    fn renumbering_matches_a_fresh_cache() {
        // 64 sets x 4 ways under 1024 lines: hits, evictions and dirty
        // writebacks in every set.
        let params = LlcParams {
            capacity_bytes: 64 * 4 * 64,
            assoc: 4,
            line_bytes: 64,
        };
        let mut fresh = Llc::new(params);
        let mut wrapping = Llc::new(params);
        wrapping.tick = RECENCY - 1_000;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut wraps = 0;
        for i in 0..200_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = (x >> 33) % (1024 * 64);
            let store = (x >> 20).is_multiple_of(4);
            let before = wrapping.tick;
            let got = wrapping.access(addr, store);
            assert_eq!(got, fresh.access(addr, store), "access {i}");
            wraps += u32::from(wrapping.tick < before);
            if i % 50_000 == 49_999 {
                wrapping.tick = RECENCY - 7;
            }
        }
        assert_eq!(wrapping.stats(), fresh.stats());
        assert!(fresh.stats().writebacks > 1_000, "{:?}", fresh.stats());
        assert_eq!(wraps, 4);
    }

    #[test]
    fn miss_ratio_math() {
        let s = LlcStats {
            hits: 3,
            misses: 1,
            writebacks: 0,
        };
        assert!((s.miss_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(LlcStats::default().miss_ratio(), 0.0);
    }

    #[test]
    fn paper_default_shape() {
        let p = LlcParams::paper_default(8);
        assert_eq!(p.capacity_bytes, 4 * 1024 * 1024);
        assert_eq!(p.sets(), 4096);
    }
}
