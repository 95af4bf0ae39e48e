//! Spatial bit-patterns: the core data representation of DSPatch.
//!
//! A [`SpatialPattern`] records which 64 B cache lines of a 4 KB page were
//! accessed, one bit per line. Patterns can be *anchored* to a trigger
//! offset — rotated so that the trigger line becomes bit 0 — which makes
//! patterns from different pages comparable regardless of where in the page
//! the access stream started (paper, Section 3.3 and Figure 2).
//!
//! A [`CompressedPattern`] is the 128 B-granularity representation stored in
//! the Signature Prediction Table: one bit per *pair* of adjacent cache
//! lines, halving storage at a small accuracy cost (paper, Section 3.8).

use dspatch_types::LINES_PER_PAGE;
use std::fmt;
use std::ops::{BitAnd, BitOr};

/// Number of bits in a [`CompressedPattern`] (one per 128 B block of a 4 KB page).
pub const COMPRESSED_BITS: usize = LINES_PER_PAGE / 2;

/// A 64-bit spatial access bit-pattern over one 4 KB page.
///
/// Bit `i` is set when cache line `i` of the page (or, for anchored
/// patterns, the line `i` positions after the trigger, modulo 64) was or is
/// predicted to be accessed.
///
/// # Example
///
/// ```
/// use dspatch::SpatialPattern;
/// let mut p = SpatialPattern::default();
/// p.set(3);
/// p.set(10);
/// assert_eq!(p.popcount(), 2);
/// let anchored = p.anchor(3);
/// assert!(anchored.get(0) && anchored.get(7));
/// assert_eq!(anchored.unanchor(3), p);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SpatialPattern(u64);

impl SpatialPattern {
    /// The empty pattern.
    pub const EMPTY: SpatialPattern = SpatialPattern(0);

    /// Creates a pattern from its raw 64-bit representation.
    pub const fn from_bits(bits: u64) -> Self {
        Self(bits)
    }

    /// Returns the raw 64-bit representation.
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// Creates a pattern with a single bit set at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= 64`.
    pub fn single(offset: usize) -> Self {
        assert!(offset < LINES_PER_PAGE, "offset {offset} out of range");
        Self(1u64 << offset)
    }

    /// Sets the bit for line `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= 64`.
    pub fn set(&mut self, offset: usize) {
        assert!(offset < LINES_PER_PAGE, "offset {offset} out of range");
        self.0 |= 1u64 << offset;
    }

    /// Returns whether the bit for line `offset` is set.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= 64`.
    pub fn get(self, offset: usize) -> bool {
        assert!(offset < LINES_PER_PAGE, "offset {offset} out of range");
        (self.0 >> offset) & 1 == 1
    }

    /// Returns whether no bit is set.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of set bits (the PopCount operation of the paper, Figure 8).
    pub const fn popcount(self) -> u32 {
        self.0.count_ones()
    }

    /// Anchors the pattern to `trigger_offset`: rotates it so that the
    /// trigger line becomes bit 0. Anchored bit `j` corresponds to the line
    /// `(trigger_offset + j) mod 64` of the original page.
    pub fn anchor(self, trigger_offset: usize) -> Self {
        Self(
            self.0
                .rotate_right((trigger_offset % LINES_PER_PAGE) as u32),
        )
    }

    /// Inverse of [`SpatialPattern::anchor`]: converts an anchored pattern
    /// back to page-relative line offsets.
    pub fn unanchor(self, trigger_offset: usize) -> Self {
        Self(self.0.rotate_left((trigger_offset % LINES_PER_PAGE) as u32))
    }

    /// Iterates over the offsets of set bits in increasing order.
    ///
    /// Runs in one `trailing_zeros` + one clear-lowest-set-bit per set bit
    /// (not one test per possible bit) — this sits on the prediction-issue
    /// hot path, where patterns are typically sparse.
    pub fn iter_offsets(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let offset = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(offset)
            }
        })
    }

    /// Keeps only the first `n` bit positions (used to restrict the second
    /// 2 KB-segment trigger to a 32-line prediction window, Section 3.7).
    pub fn truncate(self, n: usize) -> Self {
        if n >= LINES_PER_PAGE {
            self
        } else if n == 0 {
            Self::EMPTY
        } else {
            Self(self.0 & ((1u64 << n) - 1))
        }
    }

    /// Splits the pattern into its two 32-bit halves `(bits 0..32, bits 32..64)`.
    pub const fn halves(self) -> (u32, u32) {
        (self.0 as u32, (self.0 >> 32) as u32)
    }

    /// Compresses the pattern to 128 B granularity: output bit `k` is the OR
    /// of input bits `2k` and `2k + 1`.
    ///
    /// Branchless: OR each bit pair down onto its even position, then pack
    /// the even positions together with a log-step bit gather (the inverse
    /// Morton shuffle). This runs on every Page Buffer training event, so
    /// the 32-iteration loop it replaces was measurable.
    pub fn compress(self) -> CompressedPattern {
        let mut gathered = (self.0 | (self.0 >> 1)) & 0x5555_5555_5555_5555;
        gathered = (gathered | (gathered >> 1)) & 0x3333_3333_3333_3333;
        gathered = (gathered | (gathered >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
        gathered = (gathered | (gathered >> 4)) & 0x00FF_00FF_00FF_00FF;
        gathered = (gathered | (gathered >> 8)) & 0x0000_FFFF_0000_FFFF;
        gathered = (gathered | (gathered >> 16)) & 0x0000_0000_FFFF_FFFF;
        CompressedPattern(gathered as u32)
    }
}

impl BitOr for SpatialPattern {
    type Output = SpatialPattern;

    fn bitor(self, rhs: Self) -> Self {
        Self(self.0 | rhs.0)
    }
}

impl BitAnd for SpatialPattern {
    type Output = SpatialPattern;

    fn bitand(self, rhs: Self) -> Self {
        Self(self.0 & rhs.0)
    }
}

impl fmt::Display for SpatialPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:064b}", self.0)
    }
}

impl fmt::Binary for SpatialPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

/// A 32-bit, 128 B-granularity spatial pattern: one bit per pair of adjacent
/// cache lines of a 4 KB page. This is what the Signature Prediction Table
/// stores for both `CovP` and `AccP` (paper, Table 1).
///
/// # Example
///
/// ```
/// use dspatch::{CompressedPattern, SpatialPattern};
/// let mut p = SpatialPattern::default();
/// p.set(0);
/// p.set(5);
/// let c = p.compress();
/// // Decompression expands each 128 B block back to both of its lines.
/// let d = c.decompress();
/// assert!(d.get(0) && d.get(1) && d.get(4) && d.get(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CompressedPattern(u32);

impl CompressedPattern {
    /// The empty compressed pattern.
    pub const EMPTY: CompressedPattern = CompressedPattern(0);

    /// Creates a compressed pattern from its raw 32-bit representation.
    pub const fn from_bits(bits: u32) -> Self {
        Self(bits)
    }

    /// Returns the raw 32-bit representation.
    pub const fn bits(self) -> u32 {
        self.0
    }

    /// Returns whether no bit is set.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of set 128 B blocks.
    pub const fn popcount(self) -> u32 {
        self.0.count_ones()
    }

    /// Returns whether block `block` (0..32) is set.
    ///
    /// # Panics
    ///
    /// Panics if `block >= 32`.
    pub fn get(self, block: usize) -> bool {
        assert!(block < COMPRESSED_BITS, "block {block} out of range");
        (self.0 >> block) & 1 == 1
    }

    /// Expands back to line granularity: each set block sets both of its
    /// lines. This is the source of the paper's bounded (< 50 %, typically
    /// ~20 %) compression-induced overprediction (Section 3.8).
    pub fn decompress(self) -> SpatialPattern {
        // Branchless inverse of [`SpatialPattern::compress`]: spread the 32
        // bits onto even positions with a log-step scatter (Morton
        // shuffle), then OR each bit onto its odd neighbour.
        let mut spread = u64::from(self.0);
        spread = (spread | (spread << 16)) & 0x0000_FFFF_0000_FFFF;
        spread = (spread | (spread << 8)) & 0x00FF_00FF_00FF_00FF;
        spread = (spread | (spread << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
        spread = (spread | (spread << 2)) & 0x3333_3333_3333_3333;
        spread = (spread | (spread << 1)) & 0x5555_5555_5555_5555;
        SpatialPattern::from_bits(spread | (spread << 1))
    }

    /// Splits into the two 16-bit halves covering the two 2 KB segments of
    /// the (anchored) page: `(blocks 0..16, blocks 16..32)`.
    pub const fn halves(self) -> (u16, u16) {
        (self.0 as u16, (self.0 >> 16) as u16)
    }

    /// Rebuilds a compressed pattern from its two 16-bit halves.
    pub const fn from_halves(low: u16, high: u16) -> Self {
        Self((low as u32) | ((high as u32) << 16))
    }

    /// Keeps only the first `n` blocks.
    pub fn truncate(self, n: usize) -> Self {
        if n >= COMPRESSED_BITS {
            self
        } else if n == 0 {
            Self::EMPTY
        } else {
            Self(self.0 & ((1u32 << n) - 1))
        }
    }

    /// Number of line-granularity mispredictions that compressing
    /// `program` would cause: lines predicted by the compressed form of
    /// `program` that the program never touched.
    pub fn compression_mispredictions(program: SpatialPattern) -> u32 {
        let expanded = program.compress().decompress();
        (expanded.bits() & !program.bits()).count_ones()
    }
}

impl BitOr for CompressedPattern {
    type Output = CompressedPattern;

    fn bitor(self, rhs: Self) -> Self {
        Self(self.0 | rhs.0)
    }
}

impl BitAnd for CompressedPattern {
    type Output = CompressedPattern;

    fn bitand(self, rhs: Self) -> Self {
        Self(self.0 & rhs.0)
    }
}

impl fmt::Display for CompressedPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032b}", self.0)
    }
}

impl fmt::Binary for CompressedPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    /// Reference (per-bit loop) forms of compress/decompress, kept to pin
    /// the branchless bit-shuffle implementations.
    fn compress_reference(pattern: super::SpatialPattern) -> super::CompressedPattern {
        let mut out = 0u32;
        for k in 0..super::COMPRESSED_BITS {
            if (pattern.bits() >> (2 * k)) & 0b11 != 0 {
                out |= 1 << k;
            }
        }
        super::CompressedPattern::from_bits(out)
    }

    fn decompress_reference(pattern: super::CompressedPattern) -> super::SpatialPattern {
        let mut out = 0u64;
        for k in 0..super::COMPRESSED_BITS {
            if (pattern.bits() >> k) & 1 == 1 {
                out |= 0b11 << (2 * k);
            }
        }
        super::SpatialPattern::from_bits(out)
    }

    #[test]
    fn branchless_compress_and_decompress_match_the_bit_loops() {
        let mut state = 0xACE1_u64;
        for _ in 0..20_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let spatial = super::SpatialPattern::from_bits(state);
            assert_eq!(spatial.compress(), compress_reference(spatial));
            let compressed = super::CompressedPattern::from_bits((state >> 16) as u32);
            assert_eq!(compressed.decompress(), decompress_reference(compressed));
        }
        // Edges.
        for bits in [0u64, u64::MAX, 1, 1 << 63, 0x5555_5555_5555_5555] {
            let spatial = super::SpatialPattern::from_bits(bits);
            assert_eq!(spatial.compress(), compress_reference(spatial));
        }
        for bits in [0u32, u32::MAX, 1, 1 << 31] {
            let compressed = super::CompressedPattern::from_bits(bits);
            assert_eq!(compressed.decompress(), decompress_reference(compressed));
        }
    }

    use super::*;

    #[test]
    fn set_get_and_popcount_agree() {
        let mut p = SpatialPattern::default();
        for off in [0, 1, 17, 63] {
            p.set(off);
        }
        assert_eq!(p.popcount(), 4);
        assert!(p.get(0) && p.get(63));
        assert!(!p.get(2));
        assert_eq!(p.iter_offsets().collect::<Vec<_>>(), vec![0, 1, 17, 63]);
    }

    #[test]
    fn iter_offsets_matches_naive_scan() {
        for bits in [
            0u64,
            1,
            u64::MAX,
            0x8000_0000_0000_0001,
            0xdead_beef_1234_5678,
            0x5555_5555_5555_5555,
        ] {
            let fast: Vec<usize> = SpatialPattern::from_bits(bits).iter_offsets().collect();
            let naive: Vec<usize> = (0..LINES_PER_PAGE)
                .filter(|i| (bits >> i) & 1 == 1)
                .collect();
            assert_eq!(fast, naive, "bits {bits:#x}");
        }
    }

    #[test]
    fn anchor_moves_trigger_to_bit_zero() {
        // Access stream from the paper's Figure 2 spirit: trigger at offset 5,
        // other accesses at 9 and 12.
        let mut p = SpatialPattern::default();
        p.set(5);
        p.set(9);
        p.set(12);
        let anchored = p.anchor(5);
        assert!(anchored.get(0), "trigger must move to bit 0");
        assert!(anchored.get(4), "delta +4 from trigger");
        assert!(anchored.get(7), "delta +7 from trigger");
        assert_eq!(anchored.popcount(), 3);
    }

    #[test]
    fn anchor_unanchor_round_trip() {
        let p = SpatialPattern::from_bits(0xdead_beef_1234_5678);
        for trigger in 0..LINES_PER_PAGE {
            assert_eq!(p.anchor(trigger).unanchor(trigger), p);
        }
    }

    #[test]
    fn reordered_streams_share_one_anchored_pattern() {
        // Streams B..E of Figure 2: same offsets, different temporal order.
        // Since the pattern is a set of offsets, all orders yield one pattern.
        let offsets = [1usize, 5, 4, 11, 12];
        let mut forward = SpatialPattern::default();
        let mut shuffled = SpatialPattern::default();
        for &o in &offsets {
            forward.set(o);
        }
        for &o in offsets.iter().rev() {
            shuffled.set(o);
        }
        assert_eq!(forward.anchor(1), shuffled.anchor(1));
    }

    #[test]
    fn or_adds_bits_and_never_removes() {
        let a = SpatialPattern::from_bits(0b1010);
        let b = SpatialPattern::from_bits(0b0110);
        let or = a | b;
        assert_eq!(or.bits(), 0b1110);
        assert!(or.popcount() >= a.popcount().max(b.popcount()));
    }

    #[test]
    fn and_removes_bits_and_never_adds() {
        let a = SpatialPattern::from_bits(0b1010);
        let b = SpatialPattern::from_bits(0b0110);
        let and = a & b;
        assert_eq!(and.bits(), 0b0010);
        assert!(and.popcount() <= a.popcount().min(b.popcount()));
    }

    #[test]
    fn truncate_keeps_low_bits_only() {
        let p = SpatialPattern::from_bits(u64::MAX);
        assert_eq!(p.truncate(32).popcount(), 32);
        assert_eq!(p.truncate(0), SpatialPattern::EMPTY);
        assert_eq!(p.truncate(64), p);
        assert_eq!(p.truncate(100), p);
    }

    #[test]
    fn compress_decompress_is_superset() {
        let p = SpatialPattern::from_bits(0x8421_1248_8001_0203);
        let round = p.compress().decompress();
        assert_eq!(
            round.bits() & p.bits(),
            p.bits(),
            "decompression must cover the original"
        );
    }

    #[test]
    fn compress_halves_storage_exactly_for_pairwise_patterns() {
        // A pattern touching both lines of each 128 B block compresses losslessly.
        let p = SpatialPattern::from_bits(0xFFFF_0000_00FF_0000);
        assert_eq!(p.compress().decompress(), p);
        assert_eq!(CompressedPattern::compression_mispredictions(p), 0);
    }

    #[test]
    fn compression_mispredictions_bounded_by_popcount() {
        let p = SpatialPattern::from_bits(0x5555_5555_5555_5555); // worst case: one line per pair
        let mis = CompressedPattern::compression_mispredictions(p);
        assert_eq!(
            mis, 32,
            "worst case mispredicts exactly one line per touched pair"
        );
        assert!(mis <= p.popcount());
    }

    #[test]
    fn compressed_halves_round_trip() {
        let c = CompressedPattern::from_bits(0xdead_beef);
        let (lo, hi) = c.halves();
        assert_eq!(CompressedPattern::from_halves(lo, hi), c);
    }

    #[test]
    fn compressed_truncate_and_get() {
        let c = CompressedPattern::from_bits(0xffff_ffff);
        assert_eq!(c.truncate(16).popcount(), 16);
        assert!(c.get(31));
        assert_eq!(c.truncate(0), CompressedPattern::EMPTY);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_panics_out_of_range() {
        let mut p = SpatialPattern::default();
        p.set(64);
    }

    #[test]
    fn display_is_full_width() {
        assert_eq!(format!("{}", SpatialPattern::EMPTY).len(), 64);
        assert_eq!(format!("{}", CompressedPattern::EMPTY).len(), 32);
    }
}
