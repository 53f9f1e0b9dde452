//! # resim-session
//!
//! **RSSN session records**: one-file record/replay artifacts for the
//! ReSim trace-driven ILP simulator (Fytraki & Pnevmatikatos, DATE
//! 2009).
//!
//! A simulation run is a pure function of its scenario: the engine and
//! trace-generator configurations, the workload name/seed/budget, the
//! optional sampling plan, and (for file-frontend runs) the trace
//! container bytes. A [`SessionRecord`] captures all of those inputs
//! *plus* the run's resulting [`SimStats`] — serialized as the 42-word
//! vector of [`SIM_STATS_FIELDS`] with an FNV-1a digest — in a single
//! versioned little-endian file, so `resim replay` can re-execute the
//! run months later and diff the statistics field for field.
//!
//! ## The RSSN container (version 1)
//!
//! All integers little-endian; strings are UTF-8 with a length prefix.
//!
//! | field                  | size      | notes                                  |
//! |------------------------|-----------|----------------------------------------|
//! | magic                  | 4         | `"RSSN"`                               |
//! | version                | u16       | [`SESSION_VERSION`]                    |
//! | flags                  | u16       | bit 0 sampled, bit 1 embedded trace, bit 2 sweep cell |
//! | trace container version| u16       | wire versions in effect at record time |
//! | trace layout version   | u16       |                                        |
//! | engine fingerprint     | u64       | [`EngineConfig::fingerprint`] result   |
//! | tracegen fingerprint   | u64       | generator fingerprint                  |
//! | seed                   | u64       | workload seed                          |
//! | budget                 | u64       | correct-path instruction budget        |
//! | workload               | u16 + n   | workload name                          |
//! | tool version           | u16 + n   | recording binary's version string      |
//! | cell index             | u64       | only when flag bit 2 set               |
//! | sample plan            | 4×u64 + u8 [+ u64] | only when flag bit 0 set      |
//! | scenario TOML          | u32 + n   | the scenario file text, verbatim       |
//! | embedded trace         | u64 + n   | only when flag bit 1 set: a whole RSTR container |
//! | stats words            | u16 + 42×u64 | [`SimStats::to_words`] order        |
//! | stats digest           | u64       | [`SimStats::digest`], cross-checked on read |
//!
//! The digest makes silent corruption of the statistics impossible;
//! the flags field makes every optional section self-describing; and
//! unknown flag bits are an error, not a skip, so a v1 reader never
//! mis-frames a future file.
//!
//! [`EngineConfig::fingerprint`]: resim_core::EngineConfig::fingerprint

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use resim_core::{SimStats, SIM_STATS_FIELDS};
use resim_sample::{SamplePlan, WarmupMode};
use std::error::Error;
use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// The four magic bytes opening every session record.
pub const SESSION_MAGIC: [u8; 4] = *b"RSSN";

/// Newest session-record version this build reads and writes.
pub const SESSION_VERSION: u16 = 1;

/// Flag bit 0: the run was sampled; a serialized plan follows.
const FLAG_SAMPLED: u16 = 1 << 0;
/// Flag bit 1: a whole RSTR trace container is embedded.
const FLAG_EMBEDDED_TRACE: u16 = 1 << 1;
/// Flag bit 2: the run was one sweep-grid cell; its index follows.
const FLAG_CELL: u16 = 1 << 2;
const KNOWN_FLAGS: u16 = FLAG_SAMPLED | FLAG_EMBEDDED_TRACE | FLAG_CELL;

/// Everything nondeterministic about one simulation run, plus its
/// resulting statistics.
///
/// ```
/// use resim_core::SimStats;
/// use resim_session::SessionRecord;
///
/// let rec = SessionRecord {
///     engine_fingerprint: 0xABCD,
///     tracegen_fingerprint: 0x1234,
///     workload: "gzip".to_string(),
///     seed: 7,
///     budget: 2000,
///     scenario_toml: "[workload]\nname = \"gzip\"\n".to_string(),
///     stats: SimStats::default(),
///     ..SessionRecord::default()
/// };
/// let bytes = rec.to_bytes();
/// assert_eq!(SessionRecord::from_bytes(&bytes).unwrap(), rec);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionRecord {
    /// [`EngineConfig::fingerprint`](resim_core::EngineConfig::fingerprint)
    /// of the engine configuration the run used.
    pub engine_fingerprint: u64,
    /// Fingerprint of the trace-generator configuration.
    pub tracegen_fingerprint: u64,
    /// Workload name (one of the SPECINT models or `"generic"`).
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Correct-path instruction budget.
    pub budget: u64,
    /// Version string of the binary that recorded the session.
    pub tool_version: String,
    /// Trace container version in effect at record time.
    pub trace_container_version: u16,
    /// Trace body layout version the run's trace used.
    pub trace_layout_version: u16,
    /// Sweep-grid cell index, when the run was one cell of a `[sweep]`.
    pub cell_index: Option<u64>,
    /// Sampling plan, when the run was sampled.
    pub sample: Option<SamplePlan>,
    /// The scenario file text, verbatim — replay re-parses it, so the
    /// session is self-contained even if the original file changes.
    pub scenario_toml: String,
    /// A whole RSTR trace container, when the run replayed a file
    /// (rather than regenerating the trace from seeds).
    pub embedded_trace: Option<Vec<u8>>,
    /// The run's resulting statistics.
    pub stats: SimStats,
}

impl SessionRecord {
    /// The flags word this record serializes with.
    pub fn flags(&self) -> u16 {
        let mut f = 0;
        if self.sample.is_some() {
            f |= FLAG_SAMPLED;
        }
        if self.embedded_trace.is_some() {
            f |= FLAG_EMBEDDED_TRACE;
        }
        if self.cell_index.is_some() {
            f |= FLAG_CELL;
        }
        f
    }

    /// Serializes the record.
    ///
    /// # Errors
    ///
    /// Only the writer's own I/O errors.
    pub fn write_to(&self, w: &mut dyn Write) -> io::Result<()> {
        w.write_all(&SESSION_MAGIC)?;
        w.write_all(&SESSION_VERSION.to_le_bytes())?;
        w.write_all(&self.flags().to_le_bytes())?;
        w.write_all(&self.trace_container_version.to_le_bytes())?;
        w.write_all(&self.trace_layout_version.to_le_bytes())?;
        w.write_all(&self.engine_fingerprint.to_le_bytes())?;
        w.write_all(&self.tracegen_fingerprint.to_le_bytes())?;
        w.write_all(&self.seed.to_le_bytes())?;
        w.write_all(&self.budget.to_le_bytes())?;
        write_str16(w, &self.workload)?;
        write_str16(w, &self.tool_version)?;
        if let Some(cell) = self.cell_index {
            w.write_all(&cell.to_le_bytes())?;
        }
        if let Some(plan) = &self.sample {
            w.write_all(&plan.interval_records.to_le_bytes())?;
            w.write_all(&plan.detailed_records.to_le_bytes())?;
            w.write_all(&plan.period.to_le_bytes())?;
            w.write_all(&plan.offset.to_le_bytes())?;
            match plan.warmup {
                WarmupMode::Functional => w.write_all(&[0u8])?,
                WarmupMode::Bounded(n) => {
                    w.write_all(&[1u8])?;
                    w.write_all(&n.to_le_bytes())?;
                }
            }
        }
        let toml = self.scenario_toml.as_bytes();
        w.write_all(&(toml.len() as u32).to_le_bytes())?;
        w.write_all(toml)?;
        if let Some(trace) = &self.embedded_trace {
            w.write_all(&(trace.len() as u64).to_le_bytes())?;
            w.write_all(trace)?;
        }
        let words = self.stats.to_words();
        w.write_all(&(words.len() as u16).to_le_bytes())?;
        for word in &words {
            w.write_all(&word.to_le_bytes())?;
        }
        w.write_all(&self.stats.digest().to_le_bytes())?;
        Ok(())
    }

    /// Serializes to an owned byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        self.write_to(&mut bytes)
            .expect("Vec<u8> writes are infallible");
        bytes
    }

    /// Deserializes and validates a record: magic, version, flags,
    /// stats arity and digest are all checked.
    ///
    /// # Errors
    ///
    /// The first [`SessionError`] found.
    pub fn read_from(r: &mut dyn Read) -> Result<Self, SessionError> {
        let magic: [u8; 4] = read_array(r)?;
        if magic != SESSION_MAGIC {
            return Err(SessionError::BadMagic(magic));
        }
        let version = read_u16(r)?;
        if version == 0 || version > SESSION_VERSION {
            return Err(SessionError::UnsupportedVersion {
                found: version,
                newest_supported: SESSION_VERSION,
            });
        }
        let flags = read_u16(r)?;
        if flags & !KNOWN_FLAGS != 0 {
            return Err(SessionError::UnknownFlags(flags & !KNOWN_FLAGS));
        }
        let trace_container_version = read_u16(r)?;
        let trace_layout_version = read_u16(r)?;
        let engine_fingerprint = read_u64(r)?;
        let tracegen_fingerprint = read_u64(r)?;
        let seed = read_u64(r)?;
        let budget = read_u64(r)?;
        let workload = read_str16(r)?;
        let tool_version = read_str16(r)?;
        let cell_index = if flags & FLAG_CELL != 0 {
            Some(read_u64(r)?)
        } else {
            None
        };
        let sample = if flags & FLAG_SAMPLED != 0 {
            let interval_records = read_u64(r)?;
            let detailed_records = read_u64(r)?;
            let period = read_u64(r)?;
            let offset = read_u64(r)?;
            let warmup = match read_u8(r)? {
                0 => WarmupMode::Functional,
                1 => WarmupMode::Bounded(read_u64(r)?),
                tag => return Err(SessionError::BadWarmupTag(tag)),
            };
            Some(SamplePlan {
                interval_records,
                detailed_records,
                period,
                offset,
                warmup,
            })
        } else {
            None
        };
        let toml_len = read_u32(r)? as usize;
        let scenario_toml = read_string(r, toml_len)?;
        let embedded_trace = if flags & FLAG_EMBEDDED_TRACE != 0 {
            let len = read_u64(r)?;
            let len = usize::try_from(len).map_err(|_| SessionError::Truncated)?;
            Some(read_vec(r, len)?)
        } else {
            None
        };
        let n_words = read_u16(r)? as usize;
        if n_words != SIM_STATS_FIELDS.len() {
            return Err(SessionError::BadStatsArity {
                found: n_words,
                expected: SIM_STATS_FIELDS.len(),
            });
        }
        let mut words = Vec::with_capacity(n_words);
        for _ in 0..n_words {
            words.push(read_u64(r)?);
        }
        let stored_digest = read_u64(r)?;
        let stats = SimStats::from_words(&words).expect("arity checked above");
        let computed = stats.digest();
        if computed != stored_digest {
            return Err(SessionError::DigestMismatch {
                stored: stored_digest,
                computed,
            });
        }
        Ok(Self {
            engine_fingerprint,
            tracegen_fingerprint,
            workload,
            seed,
            budget,
            tool_version,
            trace_container_version,
            trace_layout_version,
            cell_index,
            sample,
            scenario_toml,
            embedded_trace,
            stats,
        })
    }

    /// Deserializes from a byte slice that must hold exactly one record.
    ///
    /// # Errors
    ///
    /// Everything [`SessionRecord::read_from`] rejects, and
    /// [`SessionError::TrailingBytes`] when bytes follow the record.
    pub fn from_bytes(mut bytes: &[u8]) -> Result<Self, SessionError> {
        let record = Self::read_from(&mut bytes)?;
        if !bytes.is_empty() {
            return Err(SessionError::TrailingBytes(bytes.len()));
        }
        Ok(record)
    }

    /// Writes the record to `path`.
    ///
    /// # Errors
    ///
    /// A [`SessionFileError`] naming the path.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SessionFileError> {
        let path = path.as_ref();
        let wrap = |e: io::Error| SessionFileError::new(path, SessionError::Io(e.kind()));
        let file = fs::File::create(path).map_err(wrap)?;
        let mut w = io::BufWriter::new(file);
        self.write_to(&mut w).map_err(wrap)?;
        w.flush().map_err(wrap)
    }

    /// Reads and validates the record at `path`.
    ///
    /// # Errors
    ///
    /// A [`SessionFileError`] naming the path, wrapping everything
    /// [`SessionRecord::read_from`] rejects.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SessionFileError> {
        let path = path.as_ref();
        let bytes = fs::read(path)
            .map_err(|e| SessionFileError::new(path, SessionError::Io(e.kind())))?;
        Self::from_bytes(&bytes).map_err(|e| SessionFileError::new(path, e))
    }

    /// Field-for-field comparison of the recorded statistics against a
    /// replayed run's, in [`SIM_STATS_FIELDS`] order. Empty exactly
    /// when the two are bit-identical.
    pub fn diff_stats(&self, replayed: &SimStats) -> Vec<StatsDiff> {
        let recorded = self.stats.to_words();
        let words = replayed.to_words();
        SIM_STATS_FIELDS
            .iter()
            .zip(recorded.iter().zip(words.iter()))
            .filter(|(_, (a, b))| a != b)
            .map(|(field, (a, b))| StatsDiff {
                field,
                recorded: *a,
                replayed: *b,
            })
            .collect()
    }
}

/// One statistics field that replayed differently than recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsDiff {
    /// Field name from [`SIM_STATS_FIELDS`].
    pub field: &'static str,
    /// Value in the session record.
    pub recorded: u64,
    /// Value the replay produced.
    pub replayed: u64,
}

impl fmt::Display for StatsDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: recorded {} != replayed {}",
            self.field, self.recorded, self.replayed
        )
    }
}

/// Reasons a byte stream is not a valid session record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionError {
    /// An underlying I/O failure.
    Io(io::ErrorKind),
    /// The stream ended inside a field.
    Truncated,
    /// The first four bytes are not [`SESSION_MAGIC`].
    BadMagic([u8; 4]),
    /// The file's version is zero or newer than this build supports.
    UnsupportedVersion {
        /// Version the file claims.
        found: u16,
        /// Newest version this build reads.
        newest_supported: u16,
    },
    /// The flags word carries bits this build does not know — the
    /// optional sections cannot be framed.
    UnknownFlags(u16),
    /// A string field is not UTF-8.
    BadUtf8,
    /// The sample plan's warmup tag is neither functional nor bounded.
    BadWarmupTag(u8),
    /// The stats vector is not [`SIM_STATS_FIELDS`] long.
    BadStatsArity {
        /// Word count the file claims.
        found: usize,
        /// Word count this build expects.
        expected: usize,
    },
    /// The stored digest does not match the stored words: the
    /// statistics were corrupted in flight.
    DigestMismatch {
        /// Digest the file claims.
        stored: u64,
        /// Digest recomputed from the stored words.
        computed: u64,
    },
    /// A well-formed record followed by this many extra bytes.
    TrailingBytes(usize),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Io(kind) => write!(f, "I/O error: {kind}"),
            SessionError::Truncated => write!(f, "session record ends mid-field (truncated file?)"),
            SessionError::BadMagic(m) => {
                write!(f, "not a session record (magic {m:02x?}, expected \"RSSN\")")
            }
            SessionError::UnsupportedVersion {
                found,
                newest_supported,
            } => write!(
                f,
                "unsupported session version {found} (newest supported: {newest_supported})"
            ),
            SessionError::UnknownFlags(bits) => write!(
                f,
                "unknown session flags {bits:#06x} (written by a newer tool?)"
            ),
            SessionError::BadUtf8 => write!(f, "session string field is not UTF-8"),
            SessionError::BadWarmupTag(tag) => {
                write!(f, "unknown warmup-mode tag {tag} in sample plan")
            }
            SessionError::BadStatsArity { found, expected } => write!(
                f,
                "session stores {found} stats words, this build expects {expected}"
            ),
            SessionError::DigestMismatch { stored, computed } => write!(
                f,
                "stats digest mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SessionError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after the session record")
            }
        }
    }
}

impl Error for SessionError {}

/// A [`SessionError`] carrying the offending file path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionFileError {
    path: PathBuf,
    error: SessionError,
}

impl SessionFileError {
    fn new(path: impl Into<PathBuf>, error: SessionError) -> Self {
        Self {
            path: path.into(),
            error,
        }
    }

    /// The file that failed.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The underlying session error.
    pub fn error(&self) -> &SessionError {
        &self.error
    }
}

impl fmt::Display for SessionFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.error)
    }
}

impl Error for SessionFileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.error)
    }
}

fn write_str16(w: &mut dyn Write, s: &str) -> io::Result<()> {
    let bytes = s.as_bytes();
    w.write_all(&(bytes.len() as u16).to_le_bytes())?;
    w.write_all(bytes)
}

fn read_array<const N: usize>(r: &mut dyn Read) -> Result<[u8; N], SessionError> {
    let mut buf = [0u8; N];
    read_exact(r, &mut buf)?;
    Ok(buf)
}

fn read_exact(r: &mut dyn Read, buf: &mut [u8]) -> Result<(), SessionError> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => SessionError::Truncated,
        kind => SessionError::Io(kind),
    })
}

fn read_u8(r: &mut dyn Read) -> Result<u8, SessionError> {
    Ok(read_array::<1>(r)?[0])
}

fn read_u16(r: &mut dyn Read) -> Result<u16, SessionError> {
    Ok(u16::from_le_bytes(read_array(r)?))
}

fn read_u32(r: &mut dyn Read) -> Result<u32, SessionError> {
    Ok(u32::from_le_bytes(read_array(r)?))
}

fn read_u64(r: &mut dyn Read) -> Result<u64, SessionError> {
    Ok(u64::from_le_bytes(read_array(r)?))
}

fn read_vec(r: &mut dyn Read, len: usize) -> Result<Vec<u8>, SessionError> {
    // Read through a bounded loop rather than one `with_capacity(len)`
    // so a corrupt length field cannot trigger a huge allocation before
    // the (truncated) stream runs dry.
    let mut out = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut left = len;
    while left > 0 {
        let n = left.min(chunk.len());
        read_exact(r, &mut chunk[..n])?;
        out.extend_from_slice(&chunk[..n]);
        left -= n;
    }
    Ok(out)
}

fn read_string(r: &mut dyn Read, len: usize) -> Result<String, SessionError> {
    String::from_utf8(read_vec(r, len)?).map_err(|_| SessionError::BadUtf8)
}

fn read_str16(r: &mut dyn Read) -> Result<String, SessionError> {
    let len = read_u16(r)? as usize;
    read_string(r, len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(cycles: u64) -> SimStats {
        let mut words = vec![0u64; SIM_STATS_FIELDS.len()];
        words[0] = cycles;
        words[1] = cycles.wrapping_mul(3);
        SimStats::from_words(&words).unwrap()
    }

    fn full_record() -> SessionRecord {
        SessionRecord {
            engine_fingerprint: 0xDEAD_BEEF_0000_0001,
            tracegen_fingerprint: 0xCAFE_F00D_0000_0002,
            workload: "vpr".to_string(),
            seed: 2009,
            budget: 5000,
            tool_version: "resim 0.1.0".to_string(),
            trace_container_version: 1,
            trace_layout_version: 2,
            cell_index: Some(7),
            sample: Some(SamplePlan::systematic(1000, 100, 10).with_warmup(WarmupMode::Bounded(64))),
            scenario_toml: "[workload]\nname = \"vpr\"\nseed = 2009\nbudget = 5000\n".to_string(),
            embedded_trace: Some(vec![0x52, 0x53, 0x54, 0x52, 1, 0, 0xAA, 0xBB]),
            stats: stats_with(123_456),
        }
    }

    #[test]
    fn full_record_roundtrips() {
        let rec = full_record();
        let bytes = rec.to_bytes();
        assert_eq!(&bytes[..4], b"RSSN");
        let back = SessionRecord::from_bytes(&bytes).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.flags(), 0b111);
    }

    #[test]
    fn minimal_record_roundtrips() {
        let rec = SessionRecord {
            workload: "gzip".to_string(),
            scenario_toml: String::new(),
            stats: stats_with(42),
            ..SessionRecord::default()
        };
        assert_eq!(rec.flags(), 0);
        let back = SessionRecord::from_bytes(&rec.to_bytes()).unwrap();
        assert_eq!(back, rec);
        assert!(back.sample.is_none());
        assert!(back.embedded_trace.is_none());
        assert!(back.cell_index.is_none());
    }

    #[test]
    fn functional_warmup_roundtrips() {
        let rec = SessionRecord {
            sample: Some(SamplePlan::systematic(100, 10, 4).with_offset(2)),
            stats: stats_with(1),
            ..SessionRecord::default()
        };
        let back = SessionRecord::from_bytes(&rec.to_bytes()).unwrap();
        assert_eq!(back.sample, rec.sample);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = full_record().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            SessionRecord::from_bytes(&bytes),
            Err(SessionError::BadMagic(_))
        ));
    }

    #[test]
    fn newer_version_is_rejected_with_both_numbers() {
        let mut bytes = full_record().to_bytes();
        bytes[4] = 0x7B; // version 123
        bytes[5] = 0;
        assert_eq!(
            SessionRecord::from_bytes(&bytes),
            Err(SessionError::UnsupportedVersion {
                found: 123,
                newest_supported: SESSION_VERSION,
            })
        );
        bytes[4] = 0; // version 0 is reserved
        assert!(matches!(
            SessionRecord::from_bytes(&bytes),
            Err(SessionError::UnsupportedVersion { found: 0, .. })
        ));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let mut bytes = full_record().to_bytes();
        bytes[6] |= 1 << 5;
        assert_eq!(
            SessionRecord::from_bytes(&bytes),
            Err(SessionError::UnknownFlags(1 << 5))
        );
    }

    #[test]
    fn truncation_at_every_byte_errors_cleanly() {
        let bytes = full_record().to_bytes();
        for cut in 0..bytes.len() {
            let err = SessionRecord::from_bytes(&bytes[..cut])
                .expect_err("every prefix is incomplete");
            assert!(
                matches!(err, SessionError::Truncated | SessionError::BadMagic(_)),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = full_record().to_bytes();
        bytes.extend_from_slice(&[0; 15]);
        assert_eq!(
            SessionRecord::from_bytes(&bytes),
            Err(SessionError::TrailingBytes(15))
        );
    }

    #[test]
    fn corrupt_stats_word_trips_the_digest() {
        let rec = full_record();
        let bytes = rec.to_bytes();
        // The stats words sit between the digest (last 8 bytes) and the
        // embedded trace; flip a bit in the first word.
        let first_word = bytes.len() - 8 - 8 * SIM_STATS_FIELDS.len();
        let mut corrupt = bytes.clone();
        corrupt[first_word] ^= 1;
        assert!(matches!(
            SessionRecord::from_bytes(&corrupt),
            Err(SessionError::DigestMismatch { .. })
        ));
    }

    #[test]
    fn bad_warmup_tag_is_rejected() {
        let rec = SessionRecord {
            sample: Some(SamplePlan::systematic(100, 10, 1)),
            stats: stats_with(1),
            ..SessionRecord::default()
        };
        let mut bytes = rec.to_bytes();
        // The warmup tag is the byte right after the four plan words;
        // the plan starts after the fixed header + two empty strings.
        let plan_start = 4 + 2 + 2 + 2 + 2 + 8 * 4 + 2 + 2;
        let tag = plan_start + 8 * 4;
        assert_eq!(bytes[tag], 0, "located the functional warmup tag");
        bytes[tag] = 9;
        assert_eq!(
            SessionRecord::from_bytes(&bytes),
            Err(SessionError::BadWarmupTag(9))
        );
    }

    #[test]
    fn stats_diff_names_mismatched_fields() {
        let rec = SessionRecord {
            stats: stats_with(100),
            ..SessionRecord::default()
        };
        assert!(rec.diff_stats(&stats_with(100)).is_empty());
        let diffs = rec.diff_stats(&stats_with(101));
        assert_eq!(diffs.len(), 2);
        assert_eq!(diffs[0].field, SIM_STATS_FIELDS[0]);
        assert_eq!(diffs[0].recorded, 100);
        assert_eq!(diffs[0].replayed, 101);
        assert_eq!(
            diffs[0].to_string(),
            format!("{}: recorded 100 != replayed 101", SIM_STATS_FIELDS[0])
        );
    }

    #[test]
    fn save_and_load_name_the_path() {
        let dir = std::env::temp_dir().join("resim-session-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.rssn");
        let rec = full_record();
        rec.save(&path).unwrap();
        assert_eq!(SessionRecord::load(&path).unwrap(), rec);

        let missing = dir.join("no-such-file.rssn");
        let err = SessionRecord::load(&missing).unwrap_err();
        assert_eq!(err.path(), missing.as_path());
        assert_eq!(err.error(), &SessionError::Io(io::ErrorKind::NotFound));
        assert!(err.to_string().contains("no-such-file.rssn"));

        // A corrupted file reports the path *and* the session error.
        let garbled = dir.join("garbled.rssn");
        fs::write(&garbled, b"RSSNgarbage").unwrap();
        let err = SessionRecord::load(&garbled).unwrap_err();
        assert!(matches!(
            err.error(),
            SessionError::Truncated | SessionError::UnsupportedVersion { .. }
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn errors_display() {
        let cases: Vec<(SessionError, &str)> = vec![
            (SessionError::Truncated, "mid-field"),
            (SessionError::BadMagic(*b"XXXX"), "RSSN"),
            (
                SessionError::UnsupportedVersion {
                    found: 9,
                    newest_supported: 1,
                },
                "newest supported: 1",
            ),
            (SessionError::UnknownFlags(0x20), "0x0020"),
            (SessionError::BadUtf8, "UTF-8"),
            (SessionError::BadWarmupTag(3), "tag 3"),
            (
                SessionError::BadStatsArity {
                    found: 7,
                    expected: 42,
                },
                "expects 42",
            ),
            (
                SessionError::DigestMismatch {
                    stored: 1,
                    computed: 2,
                },
                "digest mismatch",
            ),
            (SessionError::TrailingBytes(15), "15 trailing bytes"),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}
