//! Versioned machine checkpoints for sampled simulation.
//!
//! A [`MachineState`] is an opaque, self-describing byte buffer produced by
//! [`Machine::capture`](crate::Machine::capture) and consumed by
//! [`Machine::restore`](crate::Machine::restore). It holds one neutral
//! (null-L2-prefetcher) warm-up: caches, DRAM, the L1 stride prefetcher,
//! accounting, pollution counts and the trace position.
//!
//! The container owns the 16-byte header — the magic number `b"DSPC"` and
//! the format version as little-endian `u32`s, then the body length as a
//! little-endian `u64` — while the body layout is defined by the
//! capture/restore pair and the components' `save_state`/`load_state`
//! methods. Bumping any component's layout means bumping
//! [`FORMAT_VERSION`]: old checkpoints are then rejected with
//! [`SnapshotError::UnsupportedVersion`] instead of being misparsed, and a
//! file cut short mid-write fails the length check, so a stale or torn
//! `--checkpoint-dir` file degrades to recomputation, not corruption.
//!
//! Checkpoints are position-independent with respect to the trace: they
//! store the *count* of consumed records, not the records themselves, and
//! restore replays the source to that count. That keeps a checkpoint of a
//! multi-gigabyte trace at a few hundred kilobytes (almost all of it cache
//! tags and LRU stamps) and makes the same format work for synthetic and
//! file-backed sources alike.

use dspatch_types::{SnapshotError, StateReader, StateWriter};

/// `b"DSPC"` — DSPatch checkpoint.
const MAGIC: u32 = u32::from_le_bytes(*b"DSPC");

/// Current checkpoint layout version. Bump on ANY change to the byte layout
/// written by `Machine::capture` or a component's `save_state`.
pub const FORMAT_VERSION: u32 = 2;

/// Magic, version and body length.
const HEADER_BYTES: usize = 16;

/// A serialized machine checkpoint (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineState {
    bytes: Vec<u8>,
}

impl MachineState {
    /// Starts a writer with the container header already emitted (the body
    /// length as a placeholder); the machine body is appended and sealed
    /// with [`MachineState::from_writer`].
    pub(crate) fn writer() -> StateWriter {
        let mut writer = StateWriter::new();
        writer.put_u32(MAGIC);
        writer.put_u32(FORMAT_VERSION);
        writer.put_u64(0);
        writer
    }

    /// Seals a writer started by [`MachineState::writer`], filling in the
    /// body length.
    pub(crate) fn from_writer(writer: StateWriter) -> Self {
        let mut bytes = writer.into_bytes();
        let body = (bytes.len() - HEADER_BYTES) as u64;
        bytes[HEADER_BYTES - 8..HEADER_BYTES].copy_from_slice(&body.to_le_bytes());
        Self { bytes }
    }

    /// Validates the header, body length included, and returns a reader
    /// positioned at the body.
    pub(crate) fn body_reader(&self) -> Result<StateReader<'_>, SnapshotError> {
        let mut reader = StateReader::new(&self.bytes);
        let magic = reader.get_u32()?;
        if magic != MAGIC {
            return Err(SnapshotError::Invalid(format!(
                "not a machine checkpoint (magic {magic:#010x})"
            )));
        }
        let version = reader.get_u32()?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let body = reader.get_u64()?;
        if body != reader.remaining() as u64 {
            return Err(SnapshotError::Invalid(format!(
                "header promises a {body}-byte body but {} bytes follow",
                reader.remaining()
            )));
        }
        Ok(reader)
    }

    /// Wraps bytes read back from disk, validating the header and the body
    /// length (the body is validated structurally on
    /// [`Machine::restore`](crate::Machine::restore)).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, SnapshotError> {
        let state = Self { bytes };
        state.body_reader()?;
        Ok(state)
    }

    /// The serialized checkpoint, header included — what `--checkpoint-dir`
    /// persists.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the checkpoint into its serialized bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Serialized size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the checkpoint is empty (never true for a valid one).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_bytes() {
        let mut writer = MachineState::writer();
        writer.put_u64(42);
        let state = MachineState::from_writer(writer);
        let reloaded = MachineState::from_bytes(state.as_bytes().to_vec()).unwrap();
        assert_eq!(state, reloaded);
        let mut reader = reloaded.body_reader().unwrap();
        assert_eq!(reader.get_u64().unwrap(), 42);
        reader.expect_end().unwrap();
    }

    #[test]
    fn rejects_wrong_magic() {
        let err = MachineState::from_bytes(vec![0u8; 16]).unwrap_err();
        assert!(matches!(err, SnapshotError::Invalid(_)), "{err:?}");
    }

    #[test]
    fn rejects_future_versions() {
        let mut writer = StateWriter::new();
        writer.put_u32(MAGIC);
        writer.put_u32(FORMAT_VERSION + 7);
        let err = MachineState::from_bytes(writer.into_bytes()).unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::UnsupportedVersion {
                    found,
                    supported: FORMAT_VERSION,
                } if found == FORMAT_VERSION + 7
            ),
            "{err:?}"
        );
    }

    #[test]
    fn rejects_truncated_and_padded_bodies() {
        // A file cut mid-write keeps a valid header; the body length in it
        // is what tells the torn file apart.
        let mut writer = MachineState::writer();
        writer.put_u64(42);
        writer.put_u64(7);
        let bytes = MachineState::from_writer(writer).into_bytes();
        let padded = [bytes.as_slice(), &[0]].concat();
        for damaged in [
            &bytes[..bytes.len() / 2],
            &bytes[..bytes.len() - 1],
            &padded[..],
        ] {
            let err = MachineState::from_bytes(damaged.to_vec()).unwrap_err();
            assert!(matches!(err, SnapshotError::Invalid(_)), "{err:?}");
        }
    }

    #[test]
    fn rejects_truncated_header() {
        let err = MachineState::from_bytes(vec![1, 2, 3]).unwrap_err();
        assert!(
            matches!(err, SnapshotError::UnexpectedEof { .. }),
            "{err:?}"
        );
    }
}
