//! DRAM hierarchy geometry and physical-address mapping.
//!
//! The paper's system (Table 1): 2 channels, 2 ranks per channel, 8 banks per
//! rank, 8 subarrays per bank, 64 K rows per bank, 8 KB rows, 64 B cache
//! lines. Addresses are interleaved so that consecutive cache lines within a
//! row stay in the same (rank, bank, row) — preserving row-buffer locality —
//! while channels interleave at line granularity.

use crate::timing::FgrMode;
use serde::{Deserialize, Serialize};

/// Shape of the DRAM system: channels × ranks × banks × subarrays × rows.
///
/// All dimension counts must be powers of two and `rows_per_bank` must be a
/// multiple of `subarrays_per_bank`; `Geometry::new` validates this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Geometry {
    channels: usize,
    ranks_per_channel: usize,
    banks_per_rank: usize,
    subarrays_per_bank: usize,
    rows_per_bank: usize,
    row_bytes: usize,
    line_bytes: usize,
}

/// Error returned by [`Geometry::new`] for invalid shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometryError {
    /// A dimension was zero or not a power of two.
    NotPowerOfTwo(&'static str),
    /// `rows_per_bank` is not divisible by `subarrays_per_bank`.
    SubarraysDontDivideRows,
    /// `row_bytes` is not divisible by `line_bytes`.
    LinesDontDivideRow,
}

impl std::fmt::Display for GeometryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeometryError::NotPowerOfTwo(dim) => {
                write!(f, "dimension `{dim}` must be a nonzero power of two")
            }
            GeometryError::SubarraysDontDivideRows => {
                write!(f, "subarrays_per_bank must divide rows_per_bank")
            }
            GeometryError::LinesDontDivideRow => {
                write!(f, "line_bytes must divide row_bytes")
            }
        }
    }
}

impl std::error::Error for GeometryError {}

/// A fully decoded physical location: which channel, rank, bank, row and
/// column (cache-line slot within the row) an address maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Location {
    /// Channel index.
    pub channel: usize,
    /// Rank index within the channel.
    pub rank: usize,
    /// Bank index within the rank.
    pub bank: usize,
    /// Row index within the bank.
    pub row: u32,
    /// Cache-line column index within the row.
    pub col: u32,
}

impl Geometry {
    /// Creates a validated geometry.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] if any dimension is zero / not a power of
    /// two, or the divisibility requirements fail.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        channels: usize,
        ranks_per_channel: usize,
        banks_per_rank: usize,
        subarrays_per_bank: usize,
        rows_per_bank: usize,
        row_bytes: usize,
        line_bytes: usize,
    ) -> Result<Self, GeometryError> {
        fn pow2(v: usize, name: &'static str) -> Result<(), GeometryError> {
            if v == 0 || !v.is_power_of_two() {
                Err(GeometryError::NotPowerOfTwo(name))
            } else {
                Ok(())
            }
        }
        pow2(channels, "channels")?;
        pow2(ranks_per_channel, "ranks_per_channel")?;
        pow2(banks_per_rank, "banks_per_rank")?;
        pow2(subarrays_per_bank, "subarrays_per_bank")?;
        pow2(rows_per_bank, "rows_per_bank")?;
        pow2(row_bytes, "row_bytes")?;
        pow2(line_bytes, "line_bytes")?;
        if !rows_per_bank.is_multiple_of(subarrays_per_bank) {
            return Err(GeometryError::SubarraysDontDivideRows);
        }
        if !row_bytes.is_multiple_of(line_bytes) {
            return Err(GeometryError::LinesDontDivideRow);
        }
        Ok(Self {
            channels,
            ranks_per_channel,
            banks_per_rank,
            subarrays_per_bank,
            rows_per_bank,
            row_bytes,
            line_bytes,
        })
    }

    /// The paper's evaluated configuration (Table 1): 2 channels × 2 ranks ×
    /// 8 banks × 8 subarrays × 64 K rows, 8 KB rows, 64 B lines.
    pub fn paper_default() -> Self {
        Self::new(2, 2, 8, 8, 65_536, 8_192, 64).expect("paper configuration is valid")
    }

    /// Same as [`Geometry::paper_default`] but with a different number of
    /// subarrays per bank (the paper's Table 5 sweeps 1–64).
    pub fn with_subarrays(self, subarrays_per_bank: usize) -> Result<Self, GeometryError> {
        Self::new(
            self.channels,
            self.ranks_per_channel,
            self.banks_per_rank,
            subarrays_per_bank,
            self.rows_per_bank,
            self.row_bytes,
            self.line_bytes,
        )
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Ranks per channel.
    pub fn ranks_per_channel(&self) -> usize {
        self.ranks_per_channel
    }

    /// Banks per rank.
    pub fn banks_per_rank(&self) -> usize {
        self.banks_per_rank
    }

    /// Subarrays per bank (a "subarray" is a group of physical subarrays
    /// sharing one set of local sense amplifiers, per the paper's §2.1).
    pub fn subarrays_per_bank(&self) -> usize {
        self.subarrays_per_bank
    }

    /// Rows per bank.
    pub fn rows_per_bank(&self) -> usize {
        self.rows_per_bank
    }

    /// Cache-line size in bytes.
    pub fn line_bytes(&self) -> usize {
        self.line_bytes
    }

    /// Cache-line columns per row.
    pub fn cols_per_row(&self) -> usize {
        self.row_bytes / self.line_bytes
    }

    /// Rows per subarray.
    pub fn rows_per_subarray(&self) -> usize {
        self.rows_per_bank / self.subarrays_per_bank
    }

    /// The subarray a row belongs to. Rows are laid out consecutively within
    /// a subarray, matching the sequential walk of the refresh row counter.
    pub fn subarray_of_row(&self, row: u32) -> usize {
        row as usize / self.rows_per_subarray()
    }

    /// Total addressable bytes across all channels.
    pub fn capacity_bytes(&self) -> u64 {
        (self.channels * self.ranks_per_channel * self.banks_per_rank) as u64
            * self.rows_per_bank as u64
            * self.row_bytes as u64
    }

    /// Rows refreshed by one refresh command per bank at 1x granularity.
    ///
    /// The retention window is divided into 8192 refresh commands (§2.2.1:
    /// 64 ms / 7.8 µs ≈ 8192), so each command covers
    /// `rows_per_bank / 8192` rows in each refreshed bank.
    pub fn rows_per_refresh(&self) -> u32 {
        (self.rows_per_bank / crate::timing::REFRESH_COMMANDS_PER_WINDOW).max(1) as u32
    }

    /// Rows refreshed in each covered bank by one refresh command in `fgr`
    /// mode: DDR4 FGR trades more commands for fewer rows per command.
    pub fn rows_per_command(&self, fgr: FgrMode) -> u32 {
        (self.rows_per_refresh() / fgr.rate() as u32).max(1)
    }

    /// Decodes a physical address into its DRAM location.
    ///
    /// Bit layout, low to high:
    /// `line offset | channel | column | bank | rank | row`.
    pub fn decode(&self, addr: u64) -> Location {
        let mut a = addr >> self.line_bytes.trailing_zeros();
        let channel = (a & (self.channels as u64 - 1)) as usize;
        a >>= self.channels.trailing_zeros();
        let cols = self.cols_per_row();
        let col = (a & (cols as u64 - 1)) as u32;
        a >>= cols.trailing_zeros();
        let bank = (a & (self.banks_per_rank as u64 - 1)) as usize;
        a >>= self.banks_per_rank.trailing_zeros();
        let rank = (a & (self.ranks_per_channel as u64 - 1)) as usize;
        a >>= self.ranks_per_channel.trailing_zeros();
        let row = (a & (self.rows_per_bank as u64 - 1)) as u32;
        Location {
            channel,
            rank,
            bank,
            row,
            col,
        }
    }

    /// Encodes a DRAM location back into the (line-aligned) physical address.
    ///
    /// Inverse of [`Geometry::decode`] for line-aligned addresses.
    pub fn encode(&self, loc: &Location) -> u64 {
        let mut a = loc.row as u64;
        a = (a << self.ranks_per_channel.trailing_zeros()) | loc.rank as u64;
        a = (a << self.banks_per_rank.trailing_zeros()) | loc.bank as u64;
        a = (a << self.cols_per_row().trailing_zeros()) | loc.col as u64;
        a = (a << self.channels.trailing_zeros()) | loc.channel as u64;
        a << self.line_bytes.trailing_zeros()
    }
}

impl Default for Geometry {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_shape() {
        let g = Geometry::paper_default();
        assert_eq!(g.channels(), 2);
        assert_eq!(g.ranks_per_channel(), 2);
        assert_eq!(g.banks_per_rank(), 8);
        assert_eq!(g.subarrays_per_bank(), 8);
        assert_eq!(g.rows_per_bank(), 65_536);
        assert_eq!(g.cols_per_row(), 128);
        assert_eq!(g.rows_per_subarray(), 8_192);
    }

    #[test]
    fn rows_per_refresh_is_eight_for_64k_rows() {
        let g = Geometry::paper_default();
        assert_eq!(g.rows_per_refresh(), 8);
    }

    #[test]
    fn subarray_of_row_walks_in_blocks() {
        let g = Geometry::paper_default();
        assert_eq!(g.subarray_of_row(0), 0);
        assert_eq!(g.subarray_of_row(8_191), 0);
        assert_eq!(g.subarray_of_row(8_192), 1);
        assert_eq!(g.subarray_of_row(65_535), 7);
    }

    #[test]
    fn decode_encode_roundtrip_examples() {
        let g = Geometry::paper_default();
        for addr in [0u64, 64, 128, 4096, 1 << 20, (1 << 33) - 64] {
            let loc = g.decode(addr);
            assert_eq!(g.encode(&loc), addr, "addr {addr:#x}");
        }
    }

    #[test]
    fn consecutive_lines_alternate_channels_then_columns() {
        let g = Geometry::paper_default();
        let a = g.decode(0);
        let b = g.decode(64);
        let c = g.decode(128);
        assert_eq!(a.channel, 0);
        assert_eq!(b.channel, 1);
        assert_eq!(c.channel, 0);
        assert_eq!(c.col, a.col + 1);
        assert_eq!(c.bank, a.bank);
        assert_eq!(c.row, a.row);
    }

    #[test]
    fn invalid_geometry_is_rejected() {
        assert_eq!(
            Geometry::new(3, 2, 8, 8, 65_536, 8_192, 64),
            Err(GeometryError::NotPowerOfTwo("channels"))
        );
        assert_eq!(
            Geometry::new(2, 2, 8, 8, 0, 8_192, 64),
            Err(GeometryError::NotPowerOfTwo("rows_per_bank"))
        );
    }

    #[test]
    fn subarray_sweep_variants_are_valid() {
        let g = Geometry::paper_default();
        for n in [1usize, 2, 4, 8, 16, 32, 64] {
            let g2 = g.with_subarrays(n).unwrap();
            assert_eq!(g2.subarrays_per_bank(), n);
            assert_eq!(g2.rows_per_subarray() * n, g2.rows_per_bank());
        }
    }

    #[test]
    fn capacity_matches_dims() {
        let g = Geometry::paper_default();
        // 2ch * 2rk * 8bk * 64K rows * 8KB = 16 GiB of addressable space.
        assert_eq!(g.capacity_bytes(), 16 * (1u64 << 30));
    }
}
