//! Checkpoint serialization primitives: a little-endian byte layout for
//! machine checkpoints.
//!
//! The workspace depends on no serialization crate, so machine checkpoints
//! are hand-serialized: each component a checkpoint holds (the caches, DRAM
//! and the L1 stride prefetcher) has a `save_state`/`load_state` pair that
//! writes its mutable state — never its configuration, which the restoring
//! side rebuilds through the normal constructor path — through a
//! [`StateWriter`] and reads it back through a [`StateReader`]. The
//! simulator's `MachineState` frames these sections with a header (see
//! `dspatch_sim::snapshot`).
//!
//! The layout rules are deliberately boring:
//!
//! * all integers are little-endian fixed width; `f64` travels as
//!   `to_bits()`;
//! * sequences are `u64`-length-prefixed;
//! * readers fail with a typed [`SnapshotError`] (never panic) on
//!   truncation, so a damaged checkpoint file surfaces as a clean error.

use std::fmt;

/// Typed failure while reading (or refusing to write) snapshot state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the value at `offset` was complete.
    UnexpectedEof {
        /// Byte offset at which the read started.
        offset: usize,
    },
    /// The stream carries a format version this build cannot read.
    UnsupportedVersion {
        /// Version found in the stream.
        found: u32,
        /// Version this build writes and reads.
        supported: u32,
    },
    /// The machine cannot be checkpointed in its current shape (in-flight
    /// work, or an L2 prefetcher other than the null one).
    Unsupported(String),
    /// The bytes parsed but describe an impossible or mismatched state.
    Invalid(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::UnexpectedEof { offset } => {
                write!(f, "snapshot truncated at byte {offset}")
            }
            SnapshotError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "snapshot version {found} unsupported (this build reads {supported})"
                )
            }
            SnapshotError::Unsupported(what) => write!(f, "cannot snapshot {what}"),
            SnapshotError::Invalid(message) => write!(f, "invalid snapshot: {message}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Append-only byte sink for snapshot state.
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, value: bool) {
        self.buf.push(u8::from(value));
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, value: u32) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Writes a little-endian two's-complement `i64`.
    pub fn put_i64(&mut self, value: i64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn put_f64(&mut self, value: f64) {
        self.put_u64(value.to_bits());
    }

    /// Writes a sequence length (`u64` prefix for element loops).
    pub fn put_len(&mut self, len: usize) {
        self.put_u64(len as u64);
    }

    /// Writes `Option<u64>` as a presence byte plus the value when present.
    pub fn put_opt_u64(&mut self, value: Option<u64>) {
        match value {
            Some(v) => {
                self.put_bool(true);
                self.put_u64(v);
            }
            None => self.put_bool(false),
        }
    }
}

/// Cursor over snapshot bytes; every read is bounds-checked.
#[derive(Debug)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// A reader over the full byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless every byte was consumed — catches layout drift where a
    /// reader silently ignores a trailing field.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Invalid`] if bytes remain.
    pub fn expect_end(&self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::Invalid(format!(
                "{} trailing bytes after the last field",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let start = self.pos;
        let end = start
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or(SnapshotError::UnexpectedEof { offset: start })?;
        self.pos = end;
        Ok(&self.buf[start..end])
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::UnexpectedEof`] on truncation (as do all
    /// the sibling readers below).
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool byte; any nonzero value is `true`.
    ///
    /// # Errors
    ///
    /// See [`StateReader::get_u8`].
    pub fn get_bool(&mut self) -> Result<bool, SnapshotError> {
        Ok(self.get_u8()? != 0)
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// See [`StateReader::get_u8`].
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// See [`StateReader::get_u8`].
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        let bytes = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(raw))
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Errors
    ///
    /// See [`StateReader::get_u8`].
    pub fn get_i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(self.get_u64()? as i64)
    }

    /// Reads an `f64` from its bit pattern.
    ///
    /// # Errors
    ///
    /// See [`StateReader::get_u8`].
    pub fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a sequence length, bounded by the bytes actually remaining so
    /// a corrupted length cannot drive a huge allocation.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Invalid`] when the claimed element count exceeds
    /// the remaining bytes (elements occupy at least one byte each).
    pub fn get_len(&mut self) -> Result<usize, SnapshotError> {
        let len = self.get_u64()?;
        if len > self.remaining() as u64 {
            return Err(SnapshotError::Invalid(format!(
                "sequence claims {len} elements with only {} bytes left",
                self.remaining()
            )));
        }
        Ok(len as usize)
    }

    /// Reads `Option<u64>` written by [`StateWriter::put_opt_u64`].
    ///
    /// # Errors
    ///
    /// See [`StateReader::get_u8`].
    pub fn get_opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        if self.get_bool()? {
            Ok(Some(self.get_u64()?))
        } else {
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut w = StateWriter::new();
        w.put_u8(0xAB);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 7);
        w.put_i64(-1_000_000_007);
        w.put_f64(0.1 + 0.2);
        w.put_opt_u64(Some(9));
        w.put_opt_u64(None);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.get_i64().unwrap(), -1_000_000_007);
        assert_eq!(r.get_f64().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(r.get_opt_u64().unwrap(), Some(9));
        assert_eq!(r.get_opt_u64().unwrap(), None);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let mut w = StateWriter::new();
        w.put_u64(42);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes[..5]);
        assert_eq!(r.get_u64(), Err(SnapshotError::UnexpectedEof { offset: 0 }));
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut w = StateWriter::new();
        w.put_u64(u64::MAX); // an absurd sequence length
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert!(matches!(r.get_len(), Err(SnapshotError::Invalid(_))));
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut w = StateWriter::new();
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        let _ = r.get_u8().unwrap();
        assert!(matches!(r.expect_end(), Err(SnapshotError::Invalid(_))));
    }
}
