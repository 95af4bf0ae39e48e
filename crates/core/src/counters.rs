//! Small saturating counters.
//!
//! DSPatch quantifies the goodness of its two bit-patterns with 2-bit
//! saturating counters (`MeasureCovP`, `MeasureAccP`) and bounds the number
//! of OR modulations with another 2-bit counter (`OrCount`). A generic
//! [`SaturatingCounter`] covers all three.

use std::fmt;

/// An unsigned saturating counter with a configurable maximum value.
///
/// # Example
///
/// ```
/// use dspatch::SaturatingCounter;
/// let mut c = SaturatingCounter::new(3);
/// c.increment();
/// c.increment();
/// c.increment();
/// c.increment(); // saturates
/// assert!(c.is_saturated());
/// assert_eq!(c.value(), 3);
/// c.decrement();
/// assert_eq!(c.value(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SaturatingCounter {
    value: u8,
    max: u8,
}

impl SaturatingCounter {
    /// Creates a counter at zero that saturates at `max`.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero (a counter that can only hold zero is a bug).
    pub fn new(max: u8) -> Self {
        assert!(max > 0, "saturating counter maximum must be positive");
        Self { value: 0, max }
    }

    /// Creates the 2-bit counter (maximum 3) used throughout DSPatch.
    pub fn two_bit() -> Self {
        Self::new(3)
    }

    /// Rebuilds a counter from stored parts (snapshot restore); `value` is
    /// clamped to `max`.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero, like [`SaturatingCounter::new`].
    pub fn with_value(max: u8, value: u8) -> Self {
        let mut counter = Self::new(max);
        counter.value = value.min(max);
        counter
    }

    /// Current value.
    pub const fn value(self) -> u8 {
        self.value
    }

    /// Maximum (saturation) value.
    pub const fn max(self) -> u8 {
        self.max
    }

    /// Returns whether the counter is at its maximum.
    pub const fn is_saturated(self) -> bool {
        self.value == self.max
    }

    /// Returns whether the counter is at zero.
    pub const fn is_zero(self) -> bool {
        self.value == 0
    }

    /// Adds one, saturating at the maximum. Returns the new value.
    pub fn increment(&mut self) -> u8 {
        if self.value < self.max {
            self.value += 1;
        }
        self.value
    }

    /// Subtracts one, saturating at zero. Returns the new value.
    pub fn decrement(&mut self) -> u8 {
        if self.value > 0 {
            self.value -= 1;
        }
        self.value
    }

    /// Resets the counter to zero.
    pub fn reset(&mut self) {
        self.value = 0;
    }

    /// Number of storage bits the counter occupies in hardware.
    pub fn storage_bits(self) -> u64 {
        u64::from(8 - self.max.leading_zeros() as u8).max(1)
    }
}

impl Default for SaturatingCounter {
    fn default() -> Self {
        Self::two_bit()
    }
}

impl fmt::Display for SaturatingCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.value, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increments_saturate() {
        let mut c = SaturatingCounter::two_bit();
        for _ in 0..10 {
            c.increment();
        }
        assert_eq!(c.value(), 3);
        assert!(c.is_saturated());
    }

    #[test]
    fn decrements_saturate_at_zero() {
        let mut c = SaturatingCounter::two_bit();
        c.decrement();
        assert_eq!(c.value(), 0);
        assert!(c.is_zero());
        c.increment();
        c.decrement();
        c.decrement();
        assert!(c.is_zero());
    }

    #[test]
    fn reset_clears_value() {
        let mut c = SaturatingCounter::new(7);
        c.increment();
        c.increment();
        c.reset();
        assert!(c.is_zero());
        assert_eq!(c.max(), 7);
    }

    #[test]
    fn storage_bits_matches_width() {
        assert_eq!(SaturatingCounter::new(1).storage_bits(), 1);
        assert_eq!(SaturatingCounter::new(3).storage_bits(), 2);
        assert_eq!(SaturatingCounter::new(7).storage_bits(), 3);
        assert_eq!(SaturatingCounter::new(255).storage_bits(), 8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_max_is_rejected() {
        let _ = SaturatingCounter::new(0);
    }
}
