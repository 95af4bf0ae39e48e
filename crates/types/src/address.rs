//! Address newtypes used throughout the workspace.
//!
//! Three granularities appear in the paper and in the simulator:
//!
//! * byte addresses ([`Addr`]) as produced by the program,
//! * 64 B cache-line addresses ([`LineAddr`]) as tracked by the caches and
//!   prefetchers, and
//! * 4 KB physical-page addresses ([`PageAddr`]), the spatial region DSPatch
//!   learns bit-patterns over.
//!
//! The newtypes prevent the classic "was this already shifted?" bug class:
//! a [`LineAddr`] can never be accidentally treated as a byte address.

use std::fmt;

/// Size of one cache line in bytes (paper, Table 2).
pub const CACHE_LINE_BYTES: usize = 64;
/// Size of one physical page / spatial region in bytes (paper, Section 3.3).
pub const PAGE_BYTES: usize = 4096;
/// Size of one 2 KB page segment; DSPatch triggers prefetches per segment
/// (paper, Section 3.7).
pub const SEGMENT_BYTES: usize = 2048;
/// Number of cache lines in a 4 KB page (64).
pub const LINES_PER_PAGE: usize = PAGE_BYTES / CACHE_LINE_BYTES;
/// Number of cache lines in a 2 KB segment (32).
pub const LINES_PER_SEGMENT: usize = SEGMENT_BYTES / CACHE_LINE_BYTES;

const LINE_SHIFT: u32 = CACHE_LINE_BYTES.trailing_zeros();
const PAGE_SHIFT: u32 = PAGE_BYTES.trailing_zeros();

/// A byte-granularity physical address.
///
/// # Example
///
/// ```
/// use dspatch_types::Addr;
/// let a = Addr::new(0x1000 + 130);
/// assert_eq!(a.page_line_offset(), 2);
/// assert_eq!(a.page().as_u64(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates a byte address.
    pub const fn new(addr: u64) -> Self {
        Self(addr)
    }

    /// Returns the raw byte address.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the cache line this byte belongs to.
    pub const fn line(self) -> LineAddr {
        LineAddr(self.0 >> LINE_SHIFT)
    }

    /// Returns the 4 KB page this byte belongs to.
    pub const fn page(self) -> PageAddr {
        PageAddr(self.0 >> PAGE_SHIFT)
    }

    /// Returns the cache-line offset within the 4 KB page, in `0..64`.
    pub const fn page_line_offset(self) -> usize {
        ((self.0 >> LINE_SHIFT) & (LINES_PER_PAGE as u64 - 1)) as usize
    }

    /// Returns the byte offset within the 4 KB page, in `0..4096`.
    pub const fn page_byte_offset(self) -> usize {
        (self.0 & (PAGE_BYTES as u64 - 1)) as usize
    }

    /// Adds a byte delta, saturating at zero for negative results.
    pub fn offset_by(self, delta: i64) -> Self {
        Self(self.0.saturating_add_signed(delta))
    }
}

impl From<u64> for Addr {
    fn from(value: u64) -> Self {
        Self::new(value)
    }
}

impl From<Addr> for u64 {
    fn from(value: Addr) -> Self {
        value.0
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A 64 B cache-line address (byte address shifted right by 6).
///
/// # Example
///
/// ```
/// use dspatch_types::{Addr, LineAddr};
/// let line = Addr::new(0x1040).line();
/// assert_eq!(line, LineAddr::new(0x41));
/// assert_eq!(line.to_addr(), Addr::new(0x1040));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a line number (not a byte address).
    pub const fn new(line_number: u64) -> Self {
        Self(line_number)
    }

    /// Returns the raw line number.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Converts back to a byte address (start of the line).
    pub const fn to_addr(self) -> Addr {
        Addr(self.0 << LINE_SHIFT)
    }

    /// Returns the page containing this line.
    pub const fn page(self) -> PageAddr {
        PageAddr(self.0 >> (PAGE_SHIFT - LINE_SHIFT))
    }

    /// Returns the line offset within its 4 KB page, in `0..64`.
    pub const fn page_offset(self) -> usize {
        (self.0 & (LINES_PER_PAGE as u64 - 1)) as usize
    }

    /// Returns the line obtained by adding `delta` lines (saturating at zero).
    pub fn offset_by(self, delta: i64) -> Self {
        Self(self.0.saturating_add_signed(delta))
    }

    /// Signed line delta `self - other`.
    pub fn delta_from(self, other: LineAddr) -> i64 {
        self.0 as i64 - other.0 as i64
    }
}

impl From<Addr> for LineAddr {
    fn from(value: Addr) -> Self {
        value.line()
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line:{:#x}", self.0)
    }
}

/// A 4 KB page address (byte address shifted right by 12).
///
/// # Example
///
/// ```
/// use dspatch_types::{Addr, PageAddr};
/// let page = PageAddr::new(7);
/// assert_eq!(page.to_addr(), Addr::new(7 * 4096));
/// assert_eq!(page.line_at(3), Addr::new(7 * 4096 + 3 * 64).line());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageAddr(u64);

impl PageAddr {
    /// Creates a page address from a page number (not a byte address).
    pub const fn new(page_number: u64) -> Self {
        Self(page_number)
    }

    /// Returns the raw page number.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Converts back to the byte address of the start of the page.
    pub const fn to_addr(self) -> Addr {
        Addr(self.0 << PAGE_SHIFT)
    }

    /// Returns the line address at `line_offset` (0..64) within this page.
    ///
    /// # Panics
    ///
    /// Panics if `line_offset >= 64`.
    pub fn line_at(self, line_offset: usize) -> LineAddr {
        assert!(
            line_offset < LINES_PER_PAGE,
            "line offset {line_offset} out of range for a 4 KB page"
        );
        LineAddr((self.0 << (PAGE_SHIFT - LINE_SHIFT)) + line_offset as u64)
    }

    /// Returns the line offset of `line` within this page, in `0..64`.
    ///
    /// The caller is responsible for ensuring `line` actually lies in this
    /// page; the offset is computed modulo the page size either way.
    pub const fn line_offset_of(self, line: LineAddr) -> usize {
        line.page_offset()
    }

    /// Returns `true` if `line` lies within this page.
    pub const fn contains(self, line: LineAddr) -> bool {
        line.page().0 == self.0
    }
}

impl From<Addr> for PageAddr {
    fn from(value: Addr) -> Self {
        value.page()
    }
}

impl fmt::Display for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page:{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        assert_eq!(LINES_PER_PAGE, 64);
        assert_eq!(LINES_PER_SEGMENT, 32);
        assert_eq!(SEGMENT_BYTES * 2, PAGE_BYTES);
    }

    #[test]
    fn addr_round_trips_through_line_and_page() {
        let a = Addr::new(0xdead_beef);
        assert_eq!(a.line().to_addr().as_u64(), 0xdead_beef & !0x3f);
        assert_eq!(a.page().to_addr().as_u64(), 0xdead_beef & !0xfff);
    }

    #[test]
    fn page_line_offset_matches_line_page_offset() {
        for raw in [0u64, 63, 64, 4095, 4096, 0x1234_5678, u64::MAX / 2] {
            let a = Addr::new(raw);
            assert_eq!(a.page_line_offset(), a.line().page_offset());
        }
    }

    #[test]
    fn line_delta_is_signed() {
        let a = LineAddr::new(100);
        let b = LineAddr::new(97);
        assert_eq!(a.delta_from(b), 3);
        assert_eq!(b.delta_from(a), -3);
    }

    #[test]
    fn page_line_at_round_trips_offset() {
        let page = PageAddr::new(42);
        for off in 0..LINES_PER_PAGE {
            let line = page.line_at(off);
            assert!(page.contains(line));
            assert_eq!(page.line_offset_of(line), off);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn page_line_at_rejects_out_of_range_offset() {
        let _ = PageAddr::new(1).line_at(64);
    }

    #[test]
    fn offset_by_saturates_at_zero() {
        assert_eq!(Addr::new(10).offset_by(-100), Addr::new(0));
        assert_eq!(LineAddr::new(10).offset_by(-100), LineAddr::new(0));
        assert_eq!(LineAddr::new(10).offset_by(5), LineAddr::new(15));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Addr::new(0x40)).is_empty());
        assert!(!format!("{}", LineAddr::new(1)).is_empty());
        assert!(!format!("{}", PageAddr::new(1)).is_empty());
    }
}
