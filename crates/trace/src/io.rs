//! On-disk trace formats: the native binary format plus streaming,
//! file-backed [`TraceSource`]s so external traces replay with O(1) memory.
//!
//! ## Native binary format (`DSPT`)
//!
//! ```text
//! magic "DSPT"  | u32 version | u32 name_len | name bytes
//! u64 record_count | records: { u64 pc | u64 addr | u8 flags | u32 gap } ...
//!
//! `flags` bit 0 is the store bit, bit 1 the dependent-load bit.
//! ```
//!
//! All integers are little-endian. [`write_trace`] / [`read_trace`]
//! materialize whole traces (caching small ones is still convenient);
//! [`FileTraceSource`] streams the same format record by record through a
//! buffered reader, so a multi-gigabyte trace costs a few kilobytes of
//! resident memory.
//!
//! ## ChampSim-style text format
//!
//! [`ChampsimTextSource`] imports the line-oriented text form commonly used
//! to exchange memory-access traces: one access per line,
//!
//! ```text
//! <pc> <addr> <L|S> [gap] [D]
//! ```
//!
//! where `pc` and `addr` are decimal or `0x`-prefixed hex, the kind accepts
//! `L`/`R`/`LOAD`/`READ` and `S`/`W`/`STORE`/`WRITE` (case-insensitive),
//! `gap` is the optional decimal count of non-memory instructions before
//! the access, and a trailing `D` marks the access dependent on its
//! predecessor. Blank lines and `#` comments are skipped. The whole file is
//! validated (and its record/instruction counts established) in one
//! constant-memory pass at open time, so `dspatch-lab --trace-file` reports
//! malformed lines with their line number before any simulation starts.
//!
//! [`open_trace_source`] sniffs the magic bytes and picks the right reader,
//! so callers never dispatch on file extensions.

use crate::record::{Trace, TraceRecord};
use crate::source::{TraceMeta, TraceSource};
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"DSPT";
const VERSION: u32 = 1;
/// On-disk bytes per record: pc (8) + addr (8) + flags (1) + gap (4).
const RECORD_BYTES: u64 = 21;
/// Upper bound on the embedded trace-name length. A hostile header can claim
/// up to 4 GiB here; cap it before allocating the name buffer.
const MAX_NAME_LEN: u32 = 1 << 16;

/// A typed, contextual error from opening or validating a trace file.
///
/// Every variant carries the offending path; parse-level variants add the
/// structural detail (observed length, line number, header field) so callers
/// can report actionable messages without string-matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceFileError {
    /// OS-level failure opening, reading, or statting the file.
    Io {
        /// The file the operation targeted.
        path: PathBuf,
        /// The failing operation (`"open"`, `"read"`, `"stat"`, `"seek"`).
        op: &'static str,
        /// The underlying `io::Error`, rendered.
        message: String,
    },
    /// The file is shorter than the 4-byte format magic, so its format
    /// cannot even be sniffed.
    TooShort {
        /// The file in question.
        path: PathBuf,
        /// Its observed length in bytes.
        len: u64,
    },
    /// Structural problem in a `DSPT` binary header (bad magic, unsupported
    /// version, oversized or non-UTF-8 name, truncated fixed fields).
    Header {
        /// The file in question.
        path: PathBuf,
        /// What was wrong with the header.
        message: String,
    },
    /// The header's record count is inconsistent with the file size (a
    /// truncated, overgrown, or corrupt file).
    SizeMismatch {
        /// The file in question.
        path: PathBuf,
        /// The record count the header promised.
        record_count: u64,
        /// The observed file size in bytes.
        actual_bytes: u64,
    },
    /// A malformed line in a ChampSim-style text trace.
    Malformed {
        /// The file in question.
        path: PathBuf,
        /// 1-based line number of the first bad line.
        line: u64,
        /// What was wrong with it.
        message: String,
    },
}

impl std::fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { path, op, message } => {
                write!(f, "{}: {op} failed: {message}", path.display())
            }
            Self::TooShort { path, len } => write!(
                f,
                "{}: file is {len} bytes, shorter than the 4-byte format magic",
                path.display()
            ),
            Self::Header { path, message } => {
                write!(f, "{}: bad trace header: {message}", path.display())
            }
            Self::SizeMismatch {
                path,
                record_count,
                actual_bytes,
            } => write!(
                f,
                "{}: header promises {record_count} records but the file is \
                 {actual_bytes} bytes",
                path.display()
            ),
            Self::Malformed {
                path,
                line,
                message,
            } => write!(f, "{}:{line}: {message}", path.display()),
        }
    }
}

impl std::error::Error for TraceFileError {}

impl TraceFileError {
    fn io(path: &Path, op: &'static str, error: &io::Error) -> Self {
        Self::Io {
            path: path.to_path_buf(),
            op,
            message: error.to_string(),
        }
    }

    /// Maps an `io::Error` from header parsing to the right variant:
    /// `InvalidData` carries a structural message, everything else (notably
    /// `UnexpectedEof` from a truncated header) is wrapped with the
    /// operation name.
    fn from_header_error(path: &Path, error: &io::Error) -> Self {
        match error.kind() {
            io::ErrorKind::InvalidData => Self::Header {
                path: path.to_path_buf(),
                message: error.to_string(),
            },
            io::ErrorKind::UnexpectedEof => Self::Header {
                path: path.to_path_buf(),
                message: "truncated header".to_owned(),
            },
            _ => Self::io(path, "read", error),
        }
    }
}

/// Writes a trace to `writer` in the binary format.
///
/// # Errors
///
/// Returns any I/O error from the underlying writer.
pub fn write_trace<W: Write>(trace: &Trace, mut writer: W) -> io::Result<()> {
    writer.write_all(MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    let name = trace.name.as_bytes();
    writer.write_all(&(name.len() as u32).to_le_bytes())?;
    writer.write_all(name)?;
    writer.write_all(&(trace.records.len() as u64).to_le_bytes())?;
    for record in &trace.records {
        write_record(&mut writer, record)?;
    }
    Ok(())
}

fn write_record<W: Write>(writer: &mut W, record: &TraceRecord) -> io::Result<()> {
    writer.write_all(&record.pc.as_u64().to_le_bytes())?;
    writer.write_all(&record.addr.as_u64().to_le_bytes())?;
    let flags = u8::from(!record.kind.is_load()) | (u8::from(record.dependent) << 1);
    writer.write_all(&[flags])?;
    writer.write_all(&record.gap.to_le_bytes())
}

/// Parses the fixed header, returning `(name, record_count)`.
fn read_header<R: Read>(reader: &mut R) -> io::Result<(String, u64)> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a DSPT trace file",
        ));
    }
    let version = read_u32(reader)?;
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported trace version {version}"),
        ));
    }
    let name_len = read_u32(reader)?;
    // Cap before allocating: a hostile header can claim a 4 GiB name.
    if name_len > MAX_NAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("trace name length {name_len} exceeds the {MAX_NAME_LEN}-byte cap"),
        ));
    }
    let mut name_bytes = vec![0u8; name_len as usize];
    reader.read_exact(&mut name_bytes)?;
    let name =
        String::from_utf8(name_bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let count = read_u64(reader)?;
    Ok((name, count))
}

fn read_record<R: Read>(reader: &mut R) -> io::Result<TraceRecord> {
    let pc = read_u64(reader)?;
    let addr = read_u64(reader)?;
    let mut flags = [0u8; 1];
    reader.read_exact(&mut flags)?;
    let gap = read_u32(reader)?;
    let record = if flags[0] & 1 == 0 {
        TraceRecord::load(pc, addr)
    } else {
        TraceRecord::store(pc, addr)
    };
    Ok(record.with_gap(gap).with_dependent(flags[0] & 2 != 0))
}

/// Reads a trace previously written by [`write_trace`].
///
/// # Errors
///
/// Returns an error if the stream is truncated, the magic number or version
/// does not match, or the embedded name is not valid UTF-8.
pub fn read_trace<R: Read>(mut reader: R) -> io::Result<Trace> {
    let (name, count) = read_header(&mut reader)?;
    let mut records = Vec::with_capacity((count as usize).min(1 << 24));
    for _ in 0..count {
        records.push(read_record(&mut reader)?);
    }
    Ok(Trace::new(name, records))
}

fn read_u32<R: Read>(reader: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    reader.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64<R: Read>(reader: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    reader.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Convenience wrapper writing a trace to a file path.
///
/// # Errors
///
/// Returns any error from creating or writing the file.
pub fn save_trace(trace: &Trace, path: &std::path::Path) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_trace(trace, io::BufWriter::new(file))
}

/// Convenience wrapper reading a trace from a file path.
///
/// # Errors
///
/// Returns any error from opening or parsing the file.
pub fn load_trace(path: &std::path::Path) -> io::Result<Trace> {
    let file = std::fs::File::open(path)?;
    read_trace(io::BufReader::new(file))
}

/// A streaming [`TraceSource`] over a `DSPT` binary trace file: the header
/// is parsed and the file size validated at open time, after which records
/// are decoded one at a time through a buffered reader — resident memory is
/// the buffer, not the trace.
pub struct FileTraceSource {
    path: PathBuf,
    reader: BufReader<File>,
    name: String,
    record_count: u64,
    records_start: u64,
    read: u64,
}

impl FileTraceSource {
    /// Opens a binary trace file for streaming.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceFileError`] if the file cannot be opened, is shorter
    /// than the format magic, the header is malformed, or the file size does
    /// not match the header's record count (a truncated or overgrown file).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceFileError> {
        let path = path.as_ref().to_path_buf();
        let actual = std::fs::metadata(&path)
            .map_err(|e| TraceFileError::io(&path, "stat", &e))?
            .len();
        if actual < MAGIC.len() as u64 {
            return Err(TraceFileError::TooShort { path, len: actual });
        }
        let file = File::open(&path).map_err(|e| TraceFileError::io(&path, "open", &e))?;
        let mut reader = BufReader::new(file);
        let (name, record_count) =
            read_header(&mut reader).map_err(|e| TraceFileError::from_header_error(&path, &e))?;
        let records_start = (4 + 4 + 4 + name.len() + 8) as u64;
        // Checked arithmetic: a corrupt header with a record count near
        // u64::MAX must be a clean typed error, not an overflow.
        let expected = record_count
            .checked_mul(RECORD_BYTES)
            .and_then(|bytes| bytes.checked_add(records_start));
        if expected != Some(actual) {
            return Err(TraceFileError::SizeMismatch {
                path,
                record_count,
                actual_bytes: actual,
            });
        }
        Ok(Self {
            path,
            reader,
            name,
            record_count,
            records_start,
            read: 0,
        })
    }

    /// The path the source reads from.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl std::fmt::Debug for FileTraceSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileTraceSource")
            .field("path", &self.path)
            .field("name", &self.name)
            .field("record_count", &self.record_count)
            .field("read", &self.read)
            .finish()
    }
}

impl TraceSource for FileTraceSource {
    /// # Panics
    ///
    /// Panics if the file shrinks or errors underneath the reader after the
    /// open-time size validation (e.g. it was modified mid-run).
    fn next_record(&mut self) -> Option<TraceRecord> {
        if self.read >= self.record_count {
            return None;
        }
        let record = read_record(&mut self.reader).unwrap_or_else(|e| {
            panic!(
                "{}: record {} unreadable after open-time validation \
                 (file changed mid-run?): {e}",
                self.path.display(),
                self.read
            )
        });
        self.read += 1;
        Some(record)
    }

    fn reset(&mut self) {
        self.reader
            .seek(SeekFrom::Start(self.records_start))
            .unwrap_or_else(|e| panic!("{}: seek failed: {e}", self.path.display()));
        self.read = 0;
    }

    fn fork(&self) -> Box<dyn TraceSource> {
        Box::new(Self::open(&self.path).unwrap_or_else(|e| {
            panic!(
                "{}: reopening for fork failed (file changed mid-run?): {e}",
                self.path.display()
            )
        }))
    }

    fn meta(&self) -> TraceMeta {
        TraceMeta {
            name: self.name.clone(),
            accesses: self.record_count,
            instructions: None,
        }
    }
}

/// A streaming [`TraceSource`] over a ChampSim-style text trace (see the
/// module docs for the accepted line format). The open-time validation pass
/// streams the whole file once — O(1) memory — counting records and
/// instructions and rejecting the first malformed line with its number, so
/// replay itself cannot fail on syntax.
pub struct ChampsimTextSource {
    path: PathBuf,
    reader: BufReader<File>,
    name: String,
    record_count: u64,
    instructions: u64,
    emitted: u64,
    line: String,
}

impl ChampsimTextSource {
    /// Opens and validates a text trace file for streaming.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceFileError`] if the file cannot be opened or any line
    /// fails to parse (the error carries the path and 1-based line number).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceFileError> {
        let path = path.as_ref().to_path_buf();
        let name = path
            .file_stem()
            .map(|stem| stem.to_string_lossy().into_owned())
            .unwrap_or_else(|| "champsim-trace".to_owned());
        // Validation pass: parse every line, count records and instructions.
        let file = File::open(&path).map_err(|e| TraceFileError::io(&path, "open", &e))?;
        let mut reader = BufReader::new(file);
        let mut line = String::new();
        let mut line_no = 0u64;
        let mut record_count = 0u64;
        let mut instructions = 0u64;
        loop {
            line.clear();
            let bytes = reader
                .read_line(&mut line)
                .map_err(|e| TraceFileError::io(&path, "read", &e))?;
            if bytes == 0 {
                break;
            }
            line_no += 1;
            match parse_champsim_line(&line) {
                Ok(Some(record)) => {
                    record_count += 1;
                    instructions += record.instructions();
                }
                Ok(None) => {}
                Err(message) => {
                    return Err(TraceFileError::Malformed {
                        path,
                        line: line_no,
                        message,
                    });
                }
            }
        }
        reader
            .seek(SeekFrom::Start(0))
            .map_err(|e| TraceFileError::io(&path, "seek", &e))?;
        Ok(Self {
            path,
            reader,
            name,
            record_count,
            instructions,
            emitted: 0,
            line,
        })
    }

    /// The path the source reads from.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl std::fmt::Debug for ChampsimTextSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChampsimTextSource")
            .field("path", &self.path)
            .field("name", &self.name)
            .field("record_count", &self.record_count)
            .field("emitted", &self.emitted)
            .finish()
    }
}

impl TraceSource for ChampsimTextSource {
    /// # Panics
    ///
    /// Panics if the file changes underneath the reader after the open-time
    /// validation pass.
    fn next_record(&mut self) -> Option<TraceRecord> {
        while self.emitted < self.record_count {
            self.line.clear();
            let bytes = self
                .reader
                .read_line(&mut self.line)
                .unwrap_or_else(|e| panic!("{}: read failed: {e}", self.path.display()));
            if bytes == 0 {
                panic!(
                    "{}: ended after {} of {} records although open-time validation \
                     saw them all (file changed mid-run?)",
                    self.path.display(),
                    self.emitted,
                    self.record_count
                );
            }
            match parse_champsim_line(&self.line) {
                Ok(Some(record)) => {
                    self.emitted += 1;
                    return Some(record);
                }
                Ok(None) => {}
                Err(message) => panic!(
                    "{}: line unparsable after open-time validation \
                     (file changed mid-run?): {message}",
                    self.path.display()
                ),
            }
        }
        None
    }

    fn reset(&mut self) {
        self.reader
            .seek(SeekFrom::Start(0))
            .unwrap_or_else(|e| panic!("{}: seek failed: {e}", self.path.display()));
        self.emitted = 0;
    }

    fn fork(&self) -> Box<dyn TraceSource> {
        // Reopen the file but reuse the already-established counts: the
        // open-time validation pass must not repeat per fork (the harness
        // forks once per prefetcher, and the file can be huge).
        let file = File::open(&self.path).unwrap_or_else(|e| {
            panic!(
                "{}: reopening for fork failed (file changed mid-run?): {e}",
                self.path.display()
            )
        });
        Box::new(Self {
            path: self.path.clone(),
            reader: BufReader::new(file),
            name: self.name.clone(),
            record_count: self.record_count,
            instructions: self.instructions,
            emitted: 0,
            line: String::new(),
        })
    }

    fn meta(&self) -> TraceMeta {
        TraceMeta {
            name: self.name.clone(),
            accesses: self.record_count,
            instructions: Some(self.instructions),
        }
    }
}

/// Parses one text-trace line: `Ok(None)` for blanks and comments,
/// `Ok(Some(record))` for an access, `Err(message)` otherwise.
fn parse_champsim_line(line: &str) -> Result<Option<TraceRecord>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut fields = line.split_whitespace();
    let pc = parse_number(fields.next().ok_or("missing pc field")?)
        .ok_or_else(|| format!("bad pc in '{line}'"))?;
    let addr = parse_number(fields.next().ok_or("missing address field")?)
        .ok_or_else(|| format!("bad address in '{line}'"))?;
    let kind = fields.next().ok_or("missing kind field (L or S)")?;
    let record = match kind.to_ascii_uppercase().as_str() {
        "L" | "R" | "LOAD" | "READ" => TraceRecord::load(pc, addr),
        "S" | "W" | "STORE" | "WRITE" => TraceRecord::store(pc, addr),
        other => return Err(format!("unknown access kind '{other}' (use L or S)")),
    };
    let mut record = record;
    let mut next = fields.next();
    if let Some(field) = next {
        if let Ok(gap) = field.parse::<u32>() {
            record = record.with_gap(gap);
            next = fields.next();
        }
    }
    if let Some(field) = next {
        if field.eq_ignore_ascii_case("d") || field.eq_ignore_ascii_case("dep") {
            record = record.with_dependent(true);
            next = fields.next();
        } else {
            return Err(format!("unexpected trailing field '{field}'"));
        }
    }
    if let Some(field) = next {
        return Err(format!("unexpected trailing field '{field}'"));
    }
    Ok(Some(record))
}

/// Parses a decimal or `0x`-prefixed hex integer.
fn parse_number(text: &str) -> Option<u64> {
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        text.parse().ok()
    }
}

/// Opens a trace file as a streaming source, sniffing the format from the
/// magic bytes: `DSPT` selects the binary reader, anything else the
/// ChampSim-style text importer.
///
/// # Errors
///
/// Returns a [`TraceFileError`] if the file cannot be opened, is shorter
/// than the 4-byte magic (so its format cannot be sniffed — the error
/// carries the path and observed length), or fails validation in the
/// selected format.
pub fn open_trace_source(path: impl AsRef<Path>) -> Result<Box<dyn TraceSource>, TraceFileError> {
    let path = path.as_ref();
    let mut magic = [0u8; 4];
    let mut file = File::open(path).map_err(|e| TraceFileError::io(path, "open", &e))?;
    let sniffed = match file.read_exact(&mut magic) {
        Ok(()) => &magic == MAGIC,
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
            // Shorter than the magic: report the observed length instead of
            // guessing a format for a file that cannot hold one.
            let len = std::fs::metadata(path)
                .map_err(|stat_err| TraceFileError::io(path, "stat", &stat_err))?
                .len();
            return Err(TraceFileError::TooShort {
                path: path.to_path_buf(),
                len,
            });
        }
        Err(e) => return Err(TraceFileError::io(path, "read", &e)),
    };
    drop(file);
    if sniffed {
        Ok(Box::new(FileTraceSource::open(path)?))
    } else {
        Ok(Box::new(ChampsimTextSource::open(path)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::collect_source;

    fn sample_trace() -> Trace {
        Trace::new(
            "sample",
            vec![
                TraceRecord::load(0x400100, 0x7000_0000).with_gap(5),
                TraceRecord::store(0x400104, 0x7000_0040),
                TraceRecord::load(0x400108, 0x7000_1000)
                    .with_gap(100)
                    .with_dependent(true),
            ],
        )
    }

    fn temp_path(label: &str, extension: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "dspatch_trace_io_{label}_{}.{extension}",
            std::process::id()
        ))
    }

    #[test]
    fn round_trip_preserves_trace() {
        let trace = sample_trace();
        let mut buffer = Vec::new();
        write_trace(&trace, &mut buffer).expect("write to memory");
        let read = read_trace(buffer.as_slice()).expect("read back");
        assert_eq!(read, trace);
    }

    #[test]
    fn empty_trace_round_trips() {
        let trace = Trace::new("empty", Vec::new());
        let mut buffer = Vec::new();
        write_trace(&trace, &mut buffer).expect("write");
        assert_eq!(read_trace(buffer.as_slice()).expect("read"), trace);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_trace(&b"NOPE0000"[..]).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let trace = sample_trace();
        let mut buffer = Vec::new();
        write_trace(&trace, &mut buffer).expect("write");
        buffer.truncate(buffer.len() - 3);
        assert!(read_trace(buffer.as_slice()).is_err());
    }

    #[test]
    fn wrong_version_is_rejected() {
        let trace = sample_trace();
        let mut buffer = Vec::new();
        write_trace(&trace, &mut buffer).expect("write");
        buffer[4] = 99; // clobber the version field
        assert!(read_trace(buffer.as_slice()).is_err());
    }

    #[test]
    fn file_round_trip() {
        let path = temp_path("file_round_trip", "dspt");
        let trace = sample_trace();
        save_trace(&trace, &path).expect("save");
        let loaded = load_trace(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, trace);
    }

    #[test]
    fn file_source_streams_identically_to_load_trace() {
        let path = temp_path("file_source", "dspt");
        let trace = sample_trace();
        save_trace(&trace, &path).expect("save");
        let mut source = FileTraceSource::open(&path).expect("open");
        let meta = source.meta();
        assert_eq!(meta.name, "sample");
        assert_eq!(meta.accesses, 3);
        assert_eq!(collect_source(&mut source), trace);
        assert!(source.next_record().is_none());
        source.reset();
        assert_eq!(collect_source(&mut source), trace);
        let mut forked = source.fork();
        assert_eq!(collect_source(forked.as_mut()), trace);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_source_rejects_truncated_files() {
        let path = temp_path("file_source_truncated", "dspt");
        let trace = sample_trace();
        save_trace(&trace, &path).expect("save");
        let bytes = std::fs::read(&path).expect("read back");
        std::fs::write(&path, &bytes[..bytes.len() - 3]).expect("truncate");
        let err = FileTraceSource::open(&path).expect_err("must reject");
        assert!(
            matches!(
                err,
                TraceFileError::SizeMismatch {
                    record_count: 3,
                    ..
                }
            ),
            "got: {err:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn files_shorter_than_the_magic_get_a_typed_error() {
        for (label, contents) in [("empty", &b""[..]), ("two_bytes", &b"DS"[..])] {
            let path = temp_path(&format!("too_short_{label}"), "trace");
            std::fs::write(&path, contents).expect("write");
            let err = match open_trace_source(&path) {
                Ok(_) => panic!("must reject a {label} file"),
                Err(e) => e,
            };
            match &err {
                TraceFileError::TooShort { path: p, len } => {
                    assert_eq!(p, &path);
                    assert_eq!(*len, contents.len() as u64);
                }
                other => panic!("expected TooShort, got {other:?}"),
            }
            assert!(err
                .to_string()
                .contains(&format!("{} bytes", contents.len())));
            let err = FileTraceSource::open(&path).expect_err("binary open must reject too");
            assert!(
                matches!(err, TraceFileError::TooShort { .. }),
                "got: {err:?}"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn hostile_name_length_is_capped_before_allocation() {
        let path = temp_path("hostile_name_len", "trace");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // 4 GiB name claim
        std::fs::write(&path, &bytes).expect("write");
        let err = FileTraceSource::open(&path).expect_err("must reject");
        match &err {
            TraceFileError::Header { message, .. } => {
                assert!(message.contains("name length"), "got: {message}");
            }
            other => panic!("expected Header, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_file_errors_render_the_path() {
        let path = temp_path("missing_for_display", "nope");
        let err = FileTraceSource::open(&path).expect_err("must fail");
        assert!(
            matches!(err, TraceFileError::Io { op: "stat", .. }),
            "got: {err:?}"
        );
        assert!(err.to_string().contains("missing_for_display"));
        let err = ChampsimTextSource::open(&path).expect_err("must fail");
        assert!(
            matches!(err, TraceFileError::Io { op: "open", .. }),
            "got: {err:?}"
        );
    }

    #[test]
    fn champsim_text_round_trips_every_field() {
        let path = temp_path("champsim", "txt");
        std::fs::write(
            &path,
            "# pc addr kind gap dep\n\
             0x400100 0x70000000 L 5\n\
             0x400104 0x70000040 S\n\
             \n\
             4194568 0x70001000 load 100 D\n",
        )
        .expect("write text trace");
        let mut source = ChampsimTextSource::open(&path).expect("open");
        let meta = source.meta();
        assert_eq!(meta.accesses, 3);
        // 3 accesses + gaps of 5 and 100.
        assert_eq!(meta.instructions, Some(108));
        let collected = collect_source(&mut source);
        let mut expected = sample_trace();
        expected.name = meta.name.clone();
        assert_eq!(collected, expected);
        source.reset();
        assert_eq!(collect_source(&mut source), expected);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn champsim_text_reports_malformed_lines_with_numbers() {
        let path = temp_path("champsim_bad", "txt");
        std::fs::write(&path, "0x400 0x1000 L\nnot a record\n").expect("write");
        let err = ChampsimTextSource::open(&path).expect_err("must reject");
        let message = err.to_string();
        assert!(message.contains(":2:"), "got: {message}");
        std::fs::remove_file(&path).ok();

        for bad in [
            "0x400 0x1000 X\n",
            "0x400\n",
            "0x400 0x1000 L 5 D extra\n",
            "0x400 0x1000 L what\n",
        ] {
            std::fs::write(&path, bad).expect("write");
            assert!(
                ChampsimTextSource::open(&path).is_err(),
                "should reject: {bad:?}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_trace_source_sniffs_the_format() {
        let binary_path = temp_path("sniff_binary", "trace");
        save_trace(&sample_trace(), &binary_path).expect("save");
        let mut source = open_trace_source(&binary_path).expect("open binary");
        assert_eq!(source.meta().name, "sample");
        assert_eq!(collect_source(source.as_mut()), sample_trace());
        std::fs::remove_file(&binary_path).ok();

        let text_path = temp_path("sniff_text", "champsim.txt");
        std::fs::write(&text_path, "0x400 0x1000 L 2\n").expect("write");
        let source = open_trace_source(&text_path).expect("open text");
        assert_eq!(source.meta().accesses, 1);
        std::fs::remove_file(&text_path).ok();

        assert!(open_trace_source(temp_path("missing", "nope")).is_err());
    }
}
