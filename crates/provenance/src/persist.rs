//! Versioned, checksummed, zero-copy persistence for compiled artifacts.
//!
//! A persisted artifact is a single flat file:
//!
//! ```text
//! offset 0   magic    "COBR"            (u32, little-endian bytes)
//! offset 4   version  3                 (u32)
//! offset 8   checksum lane-FNV-1a-64    (u64, over every byte from offset 16; see [`fnv1a64`])
//! offset 16  section count              (u32, then 12 pad bytes)
//! offset 32  section table              (count × { tag u32, pad u32, offset u64, len u64 })
//! ...        sections                   (each starting on a 16-byte boundary)
//! ```
//!
//! Inside a section, scalars are little-endian and typed slices are padded
//! to their element alignment, so a reader whose backing buffer is 16-byte
//! aligned (a [`MmapFile`] mapping, or an [`AlignedBytes`](cobra_util::AlignedBytes) image) can cast
//! slice regions **in place** — loading an [`EvalProgram`] re-allocates no
//! CSR array, only the small label/local tables. That is what makes server
//! cold-start O(page faults) instead of O(recompile).
//!
//! An `f64` shadow shares every shape array with the exact program it was
//! converted from, so from version 3 a shadow section holds only its
//! coefficient array ([`write_shadow`]); the reader pairs it with the
//! exact program's aliased shape ([`read_shadow`]) instead of storing the
//! shape twice.
//!
//! # Example: round-trip a compiled program
//!
//! ```
//! use cobra_provenance::{persist, EvalProgram, VarRegistry};
//! use cobra_util::{AlignedBytes, Rat};
//!
//! let mut reg = VarRegistry::new();
//! let set = cobra_provenance::parse_polyset("P = 2*x*y + 3*z", &mut reg).unwrap();
//! let prog = EvalProgram::compile(&set);
//!
//! // Encode into an artifact image.
//! let mut writer = persist::ArtifactWriter::new();
//! persist::write_program(&mut writer, persist::tags::PROGRAM_RAT, &prog);
//! let bytes = writer.finish();
//!
//! // Decode: parse validates magic, version and checksum; the view borrows.
//! let image = AlignedBytes::copy_from(&bytes);
//! let reader = persist::ArtifactReader::parse(image.bytes()).unwrap();
//! let view: persist::EvalProgramRef<'_, Rat> =
//!     persist::read_program_ref(&reader, persist::tags::PROGRAM_RAT).unwrap();
//! assert_eq!(view.labels, ["P"]);
//! let reloaded = view.to_owned_program();
//! assert_eq!(reloaded.num_terms(), prog.num_terms());
//! ```
//!
//! Corruption anywhere in the table or payload fails [`ArtifactReader::parse`]:
//!
//! ```
//! use cobra_provenance::persist::{ArtifactReader, ArtifactWriter, PersistError};
//! let mut w = ArtifactWriter::new();
//! w.begin_section(7);
//! w.put_u64(42);
//! let mut bytes = w.finish();
//! let last = bytes.len() - 1;
//! bytes[last] ^= 0xFF;
//! let image = cobra_util::AlignedBytes::copy_from(&bytes);
//! assert!(matches!(
//!     ArtifactReader::parse(image.bytes()),
//!     Err(PersistError::ChecksumMismatch { .. })
//! ));
//! ```

use crate::compile::EvalProgram;
use crate::poly::Coeff;
use crate::var::Var;
use cobra_util::{ArcSlice, MmapFile, Rat};
use std::any::Any;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// File magic: the bytes `COBR` at offset 0.
pub const MAGIC: [u8; 4] = *b"COBR";
/// Current format version, the one writers emit. Version 2 added the
/// shared-subterm slot count to program sections ([`write_program`]) and
/// the DAG-engine flag to session sections; version 3 writes `f64`
/// shadows as coefficient arrays over their exact program's shape
/// ([`write_shadow`]) and adds the selection to session sections.
/// Readers still accept [`MIN_VERSION`] artifacts (absent fields default
/// to zero).
pub const VERSION: u32 = 3;
/// Oldest artifact version readers accept.
pub const MIN_VERSION: u32 = 1;

const HEADER_LEN: usize = 16;
const TABLE_START: usize = 32;
const TABLE_ENTRY_LEN: usize = 24;

/// Conventional section tags used by the session store. Tags are
/// caller-chosen `u32`s; these just keep writers and readers agreeing.
pub mod tags {
    /// The exact (`Rat`) full-provenance program.
    pub const PROGRAM_RAT: u32 = 1;
    /// The `f64` shadow of the full program.
    pub const PROGRAM_F64: u32 = 2;
    /// Session metadata (registry, trees, base valuation, frontier).
    pub const SESSION: u32 = 3;
    /// Warm compressed-engine sections: selection `i` uses `WARM_BASE + i`.
    pub const WARM_BASE: u32 = 0x100;
}

/// The artifact checksum: a lane-parallel FNV-1a-64 variant — small,
/// dependency-free, and stable, which is all a corruption guard needs.
///
/// Eight independent FNV-1a accumulators each fold one little-endian
/// `u64` word of every 64-byte block, then the lanes, the tail bytes and
/// the length fold into a single digest. Plain byte-at-a-time FNV-1a is
/// one serial multiply per byte and caps artifact loads well below
/// memory bandwidth; the eight multiply chains here are independent, so
/// verifying a mapped artifact costs milliseconds instead of tens.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut lanes = [OFFSET; 8];
    let mut blocks = bytes.chunks_exact(64);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane ^= u64::from_le_bytes(word.try_into().unwrap());
            *lane = lane.wrapping_mul(PRIME);
        }
    }
    let mut h = OFFSET;
    for lane in lanes {
        h ^= lane;
        h = h.wrapping_mul(PRIME);
    }
    for &b in blocks.remainder() {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    // The length distinguishes tails that are prefixes of each other.
    h ^= bytes.len() as u64;
    h.wrapping_mul(PRIME)
}

/// Errors raised while parsing or decoding a persisted artifact.
#[derive(Debug)]
pub enum PersistError {
    /// The file does not start with the `COBR` magic.
    BadMagic,
    /// The file's format version is outside [`MIN_VERSION`]..=[`VERSION`].
    BadVersion(u32),
    /// The stored checksum does not match the contents.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        stored: u64,
        /// Checksum recomputed over the payload.
        computed: u64,
    },
    /// A requested section tag is absent.
    MissingSection(u32),
    /// The artifact ended inside a structure.
    Truncated(&'static str),
    /// A zero-copy slice region is not aligned for its element type
    /// (the backing buffer must be 16-byte aligned).
    Misaligned(&'static str),
    /// A decoded value violates an invariant (bad UTF-8 label, zero
    /// denominator, coefficient type mismatch, …).
    Invalid(String),
    /// The underlying file could not be read.
    Io(std::io::Error),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::BadMagic => write!(f, "not a COBR artifact (bad magic)"),
            PersistError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported artifact version {v} (expected {MIN_VERSION}..={VERSION})"
                )
            }
            PersistError::ChecksumMismatch { stored, computed } => write!(
                f,
                "artifact checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            PersistError::MissingSection(tag) => write!(f, "artifact has no section {tag:#x}"),
            PersistError::Truncated(what) => write!(f, "artifact truncated in {what}"),
            PersistError::Misaligned(what) => write!(f, "misaligned slice region for {what}"),
            PersistError::Invalid(msg) => write!(f, "invalid artifact contents: {msg}"),
            PersistError::Io(e) => write!(f, "artifact I/O error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

fn pad_to(buf: &mut Vec<u8>, align: usize) {
    while !buf.len().is_multiple_of(align) {
        buf.push(0);
    }
}

fn as_bytes<T: Copy>(s: &[T]) -> &[u8] {
    // Safety: reading any initialized T as bytes is sound; lifetime is tied
    // to the input slice.
    unsafe { std::slice::from_raw_parts(s.as_ptr() as *const u8, std::mem::size_of_val(s)) }
}

/// Builds an artifact image in one buffer: open sections with
/// [`begin_section`](Self::begin_section), append primitives, then
/// [`finish`](Self::finish) to fill in the header, section table and
/// checksum.
///
/// Payloads are written in place at their final 16-byte aligned offsets,
/// after room reserved for the section table
/// ([`with_capacity`](Self::with_capacity)). A writer that opens a
/// different number of sections than it reserved room for moves the
/// payloads once, within the buffer, when it finishes.
pub struct ArtifactWriter {
    image: Vec<u8>,
    /// Section-table entries the image reserves room for.
    table_room: usize,
    /// `(tag, offset, length)` per section, in image coordinates; the open
    /// section's length is filled in when it closes.
    sections: Vec<(u32, usize, usize)>,
}

impl Default for ArtifactWriter {
    fn default() -> ArtifactWriter {
        ArtifactWriter::new()
    }
}

/// Header plus a section table of `sections` entries, padded to where the
/// first payload starts.
fn prefix_len(sections: usize) -> usize {
    (TABLE_START + sections * TABLE_ENTRY_LEN).next_multiple_of(16)
}

impl ArtifactWriter {
    /// An empty writer.
    pub fn new() -> ArtifactWriter {
        ArtifactWriter::with_capacity(0, 0)
    }

    /// An empty writer whose image reserves table room for `sections`
    /// sections and `bytes` bytes of payload, so writing that much neither
    /// reallocates nor moves a payload.
    pub fn with_capacity(sections: usize, bytes: usize) -> ArtifactWriter {
        let room = prefix_len(sections);
        let mut image = Vec::with_capacity(room + bytes);
        image.resize(room, 0);
        ArtifactWriter {
            image,
            table_room: sections,
            sections: Vec::with_capacity(sections),
        }
    }

    /// Starts a new section with the given tag; subsequent `put_*` calls
    /// append to it.
    pub fn begin_section(&mut self, tag: u32) {
        self.close_section();
        pad_to(&mut self.image, 16);
        self.sections.push((tag, self.image.len(), 0));
    }

    fn close_section(&mut self) {
        if let Some((_, offset, len)) = self.sections.last_mut() {
            *len = self.image.len() - *offset;
        }
    }

    fn buf(&mut self) -> &mut Vec<u8> {
        assert!(
            !self.sections.is_empty(),
            "ArtifactWriter: put_* before begin_section"
        );
        &mut self.image
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf().extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf().extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i128`.
    pub fn put_i128(&mut self, v: i128) {
        self.buf().extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string, padded to 4 bytes.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(u32::try_from(s.len()).expect("string too long"));
        let buf = self.buf();
        buf.extend_from_slice(s.as_bytes());
        pad_to(buf, 4);
    }

    /// Appends a length-prefixed `u32` slice (element-aligned).
    pub fn put_u32_slice(&mut self, s: &[u32]) {
        self.put_u64(s.len() as u64);
        let buf = self.buf();
        pad_to(buf, 4);
        buf.extend_from_slice(as_bytes(s));
    }

    /// Appends a length-prefixed `f64` slice (element-aligned).
    pub fn put_f64_slice(&mut self, s: &[f64]) {
        self.put_u64(s.len() as u64);
        let buf = self.buf();
        pad_to(buf, 8);
        buf.extend_from_slice(as_bytes(s));
    }

    /// Appends a length-prefixed [`Rat`] slice (element-aligned: 16 bytes).
    pub fn put_rat_slice(&mut self, s: &[Rat]) {
        self.put_u64(s.len() as u64);
        let buf = self.buf();
        pad_to(buf, 16);
        buf.extend_from_slice(as_bytes(s));
    }

    /// Completes the artifact image: header, section table and the
    /// checksum over everything past the header.
    pub fn finish(mut self) -> Vec<u8> {
        self.close_section();
        let count = self.sections.len();
        let (room, need) = (prefix_len(self.table_room), prefix_len(count));
        if room != need {
            let len = self.image.len();
            let moved = len - room + need;
            if need > room {
                self.image.resize(moved, 0);
            }
            self.image.copy_within(room..len, need);
            self.image.truncate(moved);
            for (_, offset, _) in &mut self.sections {
                *offset = *offset - room + need;
            }
        }
        let out = &mut self.image;
        out[..need].fill(0);
        out[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&(count as u32).to_le_bytes());
        for (i, &(tag, offset, len)) in self.sections.iter().enumerate() {
            let at = TABLE_START + i * TABLE_ENTRY_LEN;
            out[at..at + 4].copy_from_slice(&tag.to_le_bytes());
            out[at + 8..at + 16].copy_from_slice(&(offset as u64).to_le_bytes());
            out[at + 16..at + 24].copy_from_slice(&(len as u64).to_le_bytes());
        }
        let checksum = fnv1a64(&out[HEADER_LEN..]);
        out[0..4].copy_from_slice(&MAGIC);
        out[4..8].copy_from_slice(&VERSION.to_le_bytes());
        out[8..16].copy_from_slice(&checksum.to_le_bytes());
        self.image
    }
}

/// A parsed artifact: header validated (magic, version, checksum) and the
/// section table decoded. Borrows the backing bytes.
pub struct ArtifactReader<'a> {
    bytes: &'a [u8],
    version: u32,
    sections: Vec<(u32, usize, usize)>,
}

impl<'a> ArtifactReader<'a> {
    /// Parses and validates an artifact image.
    ///
    /// For the zero-copy slice getters to succeed, `bytes` must start on a
    /// 16-byte boundary — guaranteed by [`MmapFile`] and [`AlignedBytes`](cobra_util::AlignedBytes).
    pub fn parse(bytes: &'a [u8]) -> Result<ArtifactReader<'a>, PersistError> {
        if bytes.len() < TABLE_START {
            return Err(PersistError::Truncated("header"));
        }
        if bytes[0..4] != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(PersistError::BadVersion(version));
        }
        let stored = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let computed = fnv1a64(&bytes[HEADER_LEN..]);
        if stored != computed {
            return Err(PersistError::ChecksumMismatch { stored, computed });
        }
        let count = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
        let table_end = TABLE_START + count * TABLE_ENTRY_LEN;
        if bytes.len() < table_end {
            return Err(PersistError::Truncated("section table"));
        }
        let mut sections = Vec::with_capacity(count);
        for i in 0..count {
            let at = TABLE_START + i * TABLE_ENTRY_LEN;
            let tag = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            let offset = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap());
            let len = u64::from_le_bytes(bytes[at + 16..at + 24].try_into().unwrap());
            let offset = usize::try_from(offset)
                .map_err(|_| PersistError::Truncated("section offset"))?;
            let len =
                usize::try_from(len).map_err(|_| PersistError::Truncated("section length"))?;
            let end = offset
                .checked_add(len)
                .ok_or(PersistError::Truncated("section bounds"))?;
            if end > bytes.len() {
                return Err(PersistError::Truncated("section payload"));
            }
            sections.push((tag, offset, len));
        }
        Ok(ArtifactReader {
            bytes,
            version,
            sections,
        })
    }

    /// The artifact's format version ([`MIN_VERSION`]..=[`VERSION`]).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Tags present, in file order.
    pub fn section_tags(&self) -> impl Iterator<Item = u32> + '_ {
        self.sections.iter().map(|&(tag, _, _)| tag)
    }

    /// Opens the first section with the given tag.
    pub fn section(&self, tag: u32) -> Result<SectionReader<'a>, PersistError> {
        let &(_, offset, len) = self
            .sections
            .iter()
            .find(|&&(t, _, _)| t == tag)
            .ok_or(PersistError::MissingSection(tag))?;
        Ok(SectionReader {
            bytes: &self.bytes[offset..offset + len],
            pos: 0,
        })
    }
}

/// Sequential reader over one section's payload, mirroring the
/// [`ArtifactWriter`] primitives (including their padding).
pub struct SectionReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SectionReader<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], PersistError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(PersistError::Truncated(what))?;
        if end > self.bytes.len() {
            return Err(PersistError::Truncated(what));
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn align(&mut self, a: usize, what: &'static str) -> Result<(), PersistError> {
        let aligned = self.pos.div_ceil(a) * a;
        self.take(aligned - self.pos, what)?;
        Ok(())
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(
            self.take(4, "u32")?.try_into().unwrap(),
        ))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(
            self.take(8, "u64")?.try_into().unwrap(),
        ))
    }

    /// Reads an `i128`.
    pub fn get_i128(&mut self) -> Result<i128, PersistError> {
        Ok(i128::from_le_bytes(
            self.take(16, "i128")?.try_into().unwrap(),
        ))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, PersistError> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len, "string")?;
        self.align(4, "string padding")?;
        std::str::from_utf8(bytes)
            .map_err(|_| PersistError::Invalid("non-UTF-8 string".to_owned()))
    }

    fn get_slice<T: Copy>(
        &mut self,
        what: &'static str,
    ) -> Result<&'a [T], PersistError> {
        let len = usize::try_from(self.get_u64()?)
            .map_err(|_| PersistError::Truncated(what))?;
        self.align(std::mem::align_of::<T>(), what)?;
        let nbytes = len
            .checked_mul(std::mem::size_of::<T>())
            .ok_or(PersistError::Truncated(what))?;
        let raw = self.take(nbytes, what)?;
        // Safety: T is a plain-old-data type (u32/f64/Rat) for which any
        // bit pattern is a valid value; align_to checks alignment.
        let (head, mid, tail) = unsafe { raw.align_to::<T>() };
        if !head.is_empty() || !tail.is_empty() || mid.len() != len {
            return Err(PersistError::Misaligned(what));
        }
        Ok(mid)
    }

    /// Reads a length-prefixed `u32` slice, zero-copy.
    pub fn get_u32_slice(&mut self) -> Result<&'a [u32], PersistError> {
        self.get_slice::<u32>("u32 slice")
    }

    /// Reads a length-prefixed `f64` slice, zero-copy.
    pub fn get_f64_slice(&mut self) -> Result<&'a [f64], PersistError> {
        self.get_slice::<f64>("f64 slice")
    }

    /// Reads a length-prefixed [`Rat`] slice, zero-copy, validating that
    /// every denominator is positive (full canonicality is trusted to the
    /// checksum).
    pub fn get_rat_slice(&mut self) -> Result<&'a [Rat], PersistError> {
        let rats = self.get_slice::<Rat>("Rat slice")?;
        if rats.iter().any(|r| r.denom() <= 0) {
            return Err(PersistError::Invalid(
                "Rat with non-positive denominator".to_owned(),
            ));
        }
        Ok(rats)
    }

    /// Bytes remaining after the current position.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

/// Coefficient types the persistence layer can encode. Sealed in practice:
/// implemented for [`Rat`] and `f64`.
pub trait PersistCoeff: Coeff {
    /// Type discriminator stored alongside the coefficient array.
    const TYPE_ID: u32;
    /// Writes a coefficient slice (element-aligned).
    fn write_slice(w: &mut ArtifactWriter, s: &[Self])
    where
        Self: Sized;
    /// Reads a coefficient slice, zero-copy.
    fn read_slice<'a>(r: &mut SectionReader<'a>) -> Result<&'a [Self], PersistError>
    where
        Self: Sized;
}

impl PersistCoeff for Rat {
    const TYPE_ID: u32 = 1;
    fn write_slice(w: &mut ArtifactWriter, s: &[Self]) {
        w.put_rat_slice(s);
    }
    fn read_slice<'a>(r: &mut SectionReader<'a>) -> Result<&'a [Self], PersistError> {
        r.get_rat_slice()
    }
}

impl PersistCoeff for f64 {
    const TYPE_ID: u32 = 2;
    fn write_slice(w: &mut ArtifactWriter, s: &[Self]) {
        w.put_f64_slice(s);
    }
    fn read_slice<'a>(r: &mut SectionReader<'a>) -> Result<&'a [Self], PersistError> {
        r.get_f64_slice()
    }
}

/// Writes a compiled program as one section under `tag`. Since format
/// version 2 the section carries the shared-subterm slot count right
/// after the polynomial count, so DAG programs ([`crate::dag`]) persist
/// like any other program.
pub fn write_program<C: PersistCoeff>(w: &mut ArtifactWriter, tag: u32, prog: &EvalProgram<C>) {
    let (poly_offsets, coeffs, term_offsets, var_ids, exps) = prog.csr_parts();
    w.begin_section(tag);
    w.put_u32(C::TYPE_ID);
    w.put_u32(u32::try_from(prog.num_polys()).expect("program too large"));
    w.put_u32(u32::try_from(prog.num_slots()).expect("program too large"));
    for label in prog.labels() {
        w.put_str(label);
    }
    let locals: Vec<u32> = prog.vars().iter().map(|v| v.0).collect();
    w.put_u32_slice(&locals);
    w.put_u32_slice(poly_offsets);
    w.put_u32_slice(term_offsets);
    w.put_u32_slice(var_ids);
    w.put_u32_slice(exps);
    C::write_slice(w, coeffs);
}

/// An upper bound on the bytes [`write_program`] adds for `prog`, section
/// alignment included — for sizing an [`ArtifactWriter`].
pub fn program_len<C: PersistCoeff>(prog: &EvalProgram<C>) -> usize {
    let (poly_offsets, coeffs, term_offsets, var_ids, exps) = prog.csr_parts();
    let labels: usize = prog.labels().iter().map(|l| 8 + l.len()).sum();
    let words = prog.num_locals() + poly_offsets.len() + term_offsets.len();
    let words = words + var_ids.len() + exps.len();
    7 * 16 + labels + 4 * words + std::mem::size_of_val(coeffs)
}

/// Writes `shadow`, the `f64` shadow of `exact`, as one section under
/// `tag` holding only its coefficient array. A shadow shares every shape
/// array, label and variable table with the exact program it was
/// converted from ([`EvalProgram::to_f64_program`],
/// [`EvalProgram::patched_f64`]), so [`read_shadow`] pairs the
/// coefficients with the exact program's shape instead of the artifact
/// storing it twice. A `shadow` over some other shape is written as
/// `exact`'s own conversion, which holds the same values.
pub fn write_shadow(
    w: &mut ArtifactWriter,
    tag: u32,
    exact: &EvalProgram<Rat>,
    shadow: &EvalProgram<f64>,
) {
    w.begin_section(tag);
    w.put_u32(f64::TYPE_ID);
    let (_, coeffs, ..) = shadow.csr_parts();
    if shadow.shares_shape(exact) {
        w.put_f64_slice(coeffs);
    } else {
        w.put_f64_slice(exact.to_f64_program().csr_parts().1);
    }
}

/// An upper bound on the bytes [`write_shadow`] adds for the shadow of
/// `exact`.
pub fn shadow_len(exact: &EvalProgram<Rat>) -> usize {
    3 * 16 + 8 * exact.num_terms()
}

/// Reads the `f64` shadow of `exact` written under `tag`, its
/// coefficients aliasing the artifact (kept alive by `owner`) and every
/// shape array shared with `exact`. Before version 3 a shadow section
/// was a whole program ([`write_program`]); its shape must then equal
/// `exact`'s, and only its coefficients are kept.
pub fn read_shadow(
    reader: &ArtifactReader<'_>,
    tag: u32,
    exact: &EvalProgram<Rat>,
    owner: Arc<dyn Any + Send + Sync>,
) -> Result<EvalProgram<f64>, PersistError> {
    let coeffs = if reader.version() >= 3 {
        let mut s = reader.section(tag)?;
        let type_id = s.get_u32()?;
        if type_id != f64::TYPE_ID {
            return Err(PersistError::Invalid(format!(
                "shadow coefficient type {type_id}, expected {}",
                f64::TYPE_ID
            )));
        }
        s.get_f64_slice()?
    } else {
        let view = read_program_ref::<f64>(reader, tag)?;
        let (poly_offsets, _, term_offsets, var_ids, exps) = exact.csr_parts();
        let same = view.poly_offsets == poly_offsets
            && view.term_offsets == term_offsets
            && view.var_ids == var_ids
            && view.exps == exps
            && view.num_slots == exact.num_slots()
            && view.labels.iter().eq(exact.labels())
            && view.locals.iter().eq(exact.vars().iter().map(|v| &v.0));
        if !same {
            return Err(PersistError::Invalid(
                "an f64 shadow's shape differs from its exact program's".to_owned(),
            ));
        }
        view.coeffs
    };
    if coeffs.len() != exact.num_terms() {
        return Err(PersistError::Invalid(
            "an f64 shadow's coefficient count differs from its exact program's".to_owned(),
        ));
    }
    // Safety: `owner` keeps the artifact bytes (which `coeffs` borrows
    // from) alive and immutable for the slice's lifetime.
    let coeffs = unsafe { ArcSlice::from_raw_parts(coeffs.as_ptr(), coeffs.len(), owner) };
    Ok(exact.with_f64_coeffs(coeffs))
}

/// Borrowed zero-copy view of a persisted [`EvalProgram`]: every array
/// aliases the artifact bytes. Convert with
/// [`to_program`](Self::to_program) (still zero-copy, keep-alive via an
/// owner) or [`to_owned_program`](Self::to_owned_program) (deep copy).
pub struct EvalProgramRef<'a, C> {
    /// Result-tuple labels, in program order.
    pub labels: Vec<&'a str>,
    /// Shared-subterm slot rows after the output rows (0 in v1 artifacts
    /// and for flat programs).
    pub num_slots: usize,
    /// Global variable ids in local-index order.
    pub locals: &'a [u32],
    /// Term range of each polynomial.
    pub poly_offsets: &'a [u32],
    /// Factor range of each term.
    pub term_offsets: &'a [u32],
    /// Local variable id of each factor.
    pub var_ids: &'a [u32],
    /// Exponent of each factor.
    pub exps: &'a [u32],
    /// Coefficient of each term.
    pub coeffs: &'a [C],
}

/// Reads the program section under `tag` as a borrowed zero-copy view.
pub fn read_program_ref<'a, C: PersistCoeff>(
    reader: &ArtifactReader<'a>,
    tag: u32,
) -> Result<EvalProgramRef<'a, C>, PersistError> {
    let mut s = reader.section(tag)?;
    let type_id = s.get_u32()?;
    if type_id != C::TYPE_ID {
        return Err(PersistError::Invalid(format!(
            "coefficient type mismatch: stored {type_id}, requested {}",
            C::TYPE_ID
        )));
    }
    let num_polys = s.get_u32()? as usize;
    // v1 program sections predate shared-subterm slots.
    let num_slots = if reader.version() >= 2 {
        s.get_u32()? as usize
    } else {
        0
    };
    // Every label takes at least its 4-byte length: a count the section
    // cannot hold fails on the first missing label, not in the allocator.
    let mut labels = Vec::with_capacity(num_polys.min(s.remaining() / 4));
    for _ in 0..num_polys {
        labels.push(s.get_str()?);
    }
    let locals = s.get_u32_slice()?;
    let poly_offsets = s.get_u32_slice()?;
    let term_offsets = s.get_u32_slice()?;
    let var_ids = s.get_u32_slice()?;
    let exps = s.get_u32_slice()?;
    let coeffs = C::read_slice(&mut s)?;
    let view = EvalProgramRef {
        labels,
        num_slots,
        locals,
        poly_offsets,
        term_offsets,
        var_ids,
        exps,
        coeffs,
    };
    view.validate()?;
    Ok(view)
}

impl<'a, C: PersistCoeff> EvalProgramRef<'a, C> {
    /// Structural sanity checks: offset arrays must be monotone and
    /// in-bounds so evaluation cannot index out of range.
    fn validate(&self) -> Result<(), PersistError> {
        let bad = |msg: &str| Err(PersistError::Invalid(msg.to_owned()));
        if self.poly_offsets.len() != self.labels.len() + self.num_slots + 1 {
            return bad("poly_offsets length");
        }
        if self.term_offsets.len() != self.coeffs.len() + 1 {
            return bad("term_offsets length");
        }
        if self.var_ids.len() != self.exps.len() {
            return bad("var_ids/exps length");
        }
        if self.poly_offsets.first() != Some(&0)
            || self.poly_offsets.last().copied() != Some(self.coeffs.len() as u32)
            || self.poly_offsets.windows(2).any(|w| w[0] > w[1])
        {
            return bad("poly_offsets range");
        }
        if self.term_offsets.first() != Some(&0)
            || self.term_offsets.last().copied() != Some(self.var_ids.len() as u32)
            || self.term_offsets.windows(2).any(|w| w[0] > w[1])
        {
            return bad("term_offsets range");
        }
        let nl = self.locals.len() as u32;
        let ns = self.num_slots as u32;
        if self.var_ids.iter().any(|&v| v >= nl + ns) {
            return bad("var_id out of local range");
        }
        // Slot rows must be topologically ordered: slot `s` (row
        // `num_polys + s`) may only reference scenario variables and
        // strictly earlier slots, or evaluation would read a lane that
        // has not been staged yet.
        let np = self.labels.len();
        for s in 0..self.num_slots {
            let t0 = self.poly_offsets[np + s] as usize;
            let t1 = self.poly_offsets[np + s + 1] as usize;
            let f0 = self.term_offsets[t0] as usize;
            let f1 = self.term_offsets[t1] as usize;
            if self.var_ids[f0..f1].iter().any(|&v| v >= nl + s as u32) {
                return bad("slot rows not topologically ordered");
            }
        }
        Ok(())
    }

    /// Rebuilds an [`EvalProgram`] whose CSR arrays **alias the artifact
    /// bytes**, kept alive by `owner` (typically the `Arc<MmapFile>` the
    /// reader parsed). Only labels and the local-variable tables are
    /// re-allocated.
    pub fn to_program(&self, owner: Arc<dyn Any + Send + Sync>) -> EvalProgram<C> {
        let arc = |s: &'a [u32]| -> ArcSlice<u32> {
            // Safety: `owner` keeps the artifact bytes (which `s` borrows
            // from) alive and immutable for the slice's lifetime.
            unsafe { ArcSlice::from_raw_parts(s.as_ptr(), s.len(), Arc::clone(&owner)) }
        };
        let coeffs = unsafe {
            ArcSlice::from_raw_parts(self.coeffs.as_ptr(), self.coeffs.len(), Arc::clone(&owner))
        };
        EvalProgram::from_persisted_parts(
            self.labels.iter().map(|s| (*s).to_owned()).collect(),
            arc(self.poly_offsets),
            coeffs,
            arc(self.term_offsets),
            arc(self.var_ids),
            arc(self.exps),
            self.locals.iter().map(|&v| Var(v)).collect(),
            self.num_slots,
        )
    }

    /// Rebuilds an [`EvalProgram`] by copying every array out of the
    /// artifact — for callers that drop the backing bytes.
    pub fn to_owned_program(&self) -> EvalProgram<C> {
        EvalProgram::from_persisted_parts(
            self.labels.iter().map(|s| (*s).to_owned()).collect(),
            self.poly_offsets.to_vec().into(),
            self.coeffs.to_vec().into(),
            self.term_offsets.to_vec().into(),
            self.var_ids.to_vec().into(),
            self.exps.to_vec().into(),
            self.locals.iter().map(|&v| Var(v)).collect(),
            self.num_slots,
        )
    }
}

/// An artifact loaded from disk and kept alive for zero-copy consumers:
/// wraps the [`MmapFile`] in an `Arc` that loaded programs hold onto.
pub struct LoadedArtifact {
    map: Arc<MmapFile>,
}

impl LoadedArtifact {
    /// Maps (or reads) `path`.
    pub fn open(path: &Path) -> Result<LoadedArtifact, PersistError> {
        Ok(LoadedArtifact {
            map: Arc::new(MmapFile::open(path)?),
        })
    }

    /// Parses the artifact header and section table.
    pub fn reader(&self) -> Result<ArtifactReader<'_>, PersistError> {
        ArtifactReader::parse(self.map.bytes())
    }

    /// The keep-alive owner for zero-copy views into this artifact.
    pub fn owner(&self) -> Arc<dyn Any + Send + Sync> {
        Arc::clone(&self.map) as Arc<dyn Any + Send + Sync>
    }

    /// True iff the bytes are an actual memory mapping.
    pub fn is_mapped(&self) -> bool {
        self.map.is_mapped()
    }

    /// Loads the program under `tag`, CSR arrays aliasing the mapping.
    pub fn load_program<C: PersistCoeff>(&self, tag: u32) -> Result<EvalProgram<C>, PersistError> {
        let reader = self.reader()?;
        let view = read_program_ref::<C>(&reader, tag)?;
        Ok(view.to_program(self.owner()))
    }
}

/// Writes an artifact image to `path` atomically (write to a sibling
/// temporary file, then rename into place).
pub fn write_file(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_polyset;
    use crate::var::VarRegistry;
    use crate::BatchEvaluator;
    use crate::Valuation;
    use cobra_util::AlignedBytes;

    fn sample_program() -> (VarRegistry, EvalProgram<Rat>) {
        let mut reg = VarRegistry::new();
        let set = parse_polyset(
            "P1 = 208.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1\nP2 = 77.9*b1*m1 + 80.5*b1*m3",
            &mut reg,
        )
        .unwrap();
        (reg, EvalProgram::compile(&set))
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU32, Ordering};
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "cobra-persist-test-{}-{}-{}",
            std::process::id(),
            tag,
            n
        ))
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = ArtifactWriter::new();
        w.begin_section(0xA);
        w.put_u32(7);
        w.put_str("label with ünïcode");
        w.put_u64(u64::MAX);
        w.put_i128(-3);
        w.put_u32_slice(&[1, 2, 3]);
        w.put_f64_slice(&[0.5, -1.25]);
        w.put_rat_slice(&[Rat::new(2088, 10), Rat::new(-1, 3)]);
        w.begin_section(0xB);
        w.put_u32(9);
        let bytes = w.finish();

        let image = AlignedBytes::copy_from(&bytes);
        let r = ArtifactReader::parse(image.bytes()).unwrap();
        assert_eq!(r.section_tags().collect::<Vec<_>>(), vec![0xA, 0xB]);
        let mut s = r.section(0xA).unwrap();
        assert_eq!(s.get_u32().unwrap(), 7);
        assert_eq!(s.get_str().unwrap(), "label with ünïcode");
        assert_eq!(s.get_u64().unwrap(), u64::MAX);
        assert_eq!(s.get_i128().unwrap(), -3);
        assert_eq!(s.get_u32_slice().unwrap(), &[1, 2, 3]);
        assert_eq!(s.get_f64_slice().unwrap(), &[0.5, -1.25]);
        assert_eq!(
            s.get_rat_slice().unwrap(),
            &[Rat::new(2088, 10), Rat::new(-1, 3)]
        );
        assert_eq!(s.remaining(), 0);
        let mut s = r.section(0xB).unwrap();
        assert_eq!(s.get_u32().unwrap(), 9);
        assert!(matches!(
            r.section(0xC),
            Err(PersistError::MissingSection(0xC))
        ));
    }

    #[test]
    fn table_room_never_changes_the_image() {
        let write = |mut w: ArtifactWriter| {
            for tag in [3, 1, 2] {
                w.begin_section(tag);
                w.put_str("odd");
                w.put_rat_slice(&[Rat::new(1, 3)]);
            }
            w.finish()
        };
        let image = write(ArtifactWriter::new());
        for (sections, bytes) in [(3, image.len()), (2, 0), (4, 10), (9, 1 << 12)] {
            assert_eq!(write(ArtifactWriter::with_capacity(sections, bytes)), image);
        }
        let empty = ArtifactWriter::with_capacity(5, 64).finish();
        assert_eq!(empty, ArtifactWriter::new().finish());
        assert_eq!(empty.len(), TABLE_START);
    }

    #[test]
    fn shadow_sections_pair_with_their_exact_programs_shape() {
        let (_reg, prog) = sample_program();
        let shadow = prog.to_f64_program();
        let mut w = ArtifactWriter::new();
        write_program(&mut w, tags::PROGRAM_RAT, &prog);
        write_shadow(&mut w, tags::PROGRAM_F64, &prog, &shadow);
        let bytes = w.finish();
        let image = Arc::new(AlignedBytes::copy_from(&bytes));
        let r = ArtifactReader::parse(image.bytes()).unwrap();
        let exact = read_program_ref::<Rat>(&r, tags::PROGRAM_RAT)
            .unwrap()
            .to_program(image.clone());
        let loaded = read_shadow(&r, tags::PROGRAM_F64, &exact, image.clone()).unwrap();
        assert!(loaded.shares_shape(&exact));
        assert_eq!(loaded.csr_parts().1, shadow.csr_parts().1);
        // The section is the coefficients alone.
        let section = r.section(tags::PROGRAM_F64).unwrap().remaining();
        assert!(section <= shadow_len(&prog) && section < 24 + 8 * prog.num_terms());
        // A shadow paired with a program of another length is refused.
        let (_reg, other) = {
            let mut reg = VarRegistry::new();
            let set = parse_polyset("P = x", &mut reg).unwrap();
            (reg, EvalProgram::compile(&set))
        };
        assert!(matches!(
            read_shadow(&r, tags::PROGRAM_F64, &other, image.clone()),
            Err(PersistError::Invalid(_))
        ));
    }

    #[test]
    fn header_corruption_detected() {
        let mut w = ArtifactWriter::new();
        w.begin_section(1);
        w.put_u64(1234);
        let good = w.finish();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        let image = AlignedBytes::copy_from(&bad_magic);
        assert!(matches!(
            ArtifactReader::parse(image.bytes()),
            Err(PersistError::BadMagic)
        ));

        let mut bad_version = good.clone();
        bad_version[4] = 99;
        // re-seal the checksum so only the version differs
        let image = AlignedBytes::copy_from(&bad_version);
        assert!(matches!(
            ArtifactReader::parse(image.bytes()),
            Err(PersistError::BadVersion(99))
        ));

        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 1;
        let image = AlignedBytes::copy_from(&flipped);
        assert!(matches!(
            ArtifactReader::parse(image.bytes()),
            Err(PersistError::ChecksumMismatch { .. })
        ));

        assert!(matches!(
            ArtifactReader::parse(&good[..8]),
            Err(PersistError::Truncated(_))
        ));
    }

    #[test]
    fn program_round_trip_owned_and_zero_copy() {
        let (mut reg, prog) = sample_program();
        let mut w = ArtifactWriter::new();
        write_program(&mut w, tags::PROGRAM_RAT, &prog);
        write_program(&mut w, tags::PROGRAM_F64, &prog.to_f64_program());
        let bytes = w.finish();

        let image = AlignedBytes::copy_from(&bytes);
        let r = ArtifactReader::parse(image.bytes()).unwrap();
        let view = read_program_ref::<Rat>(&r, tags::PROGRAM_RAT).unwrap();
        assert_eq!(view.labels, ["P1", "P2"]);
        // The view's slices alias the image.
        let img_range = image.bytes().as_ptr() as usize
            ..image.bytes().as_ptr() as usize + image.bytes().len();
        assert!(img_range.contains(&(view.coeffs.as_ptr() as usize)));

        let owned = view.to_owned_program();
        assert_eq!(owned.num_polys(), prog.num_polys());
        assert_eq!(owned.num_terms(), prog.num_terms());
        assert_eq!(owned.vars(), prog.vars());

        // Evaluation identical to the source program.
        let val = Valuation::with_default(Rat::ONE);
        let full = BatchEvaluator::new(prog.clone());
        let re = BatchEvaluator::new(owned);
        let rows_a = full.bind_all(std::slice::from_ref(&val)).unwrap();
        let rows_b = re.bind_all(&[val]).unwrap();
        assert_eq!(
            full.eval_batch(&rows_a).row(0),
            re.eval_batch(&rows_b).row(0)
        );

        // Wrong coefficient type is rejected.
        assert!(matches!(
            read_program_ref::<f64>(&r, tags::PROGRAM_RAT),
            Err(PersistError::Invalid(_))
        ));

        // Registry stays usable (silence unused warning meaningfully).
        assert!(reg.var("p1").0 < reg.len() as u32);
    }

    #[test]
    fn file_round_trip_via_mmap_is_zero_copy() {
        let (_reg, prog) = sample_program();
        let mut w = ArtifactWriter::new();
        write_program(&mut w, tags::PROGRAM_RAT, &prog);
        let bytes = w.finish();
        let path = temp_path("prog");
        write_file(&path, &bytes).unwrap();

        let artifact = LoadedArtifact::open(&path).unwrap();
        let loaded: EvalProgram<Rat> = artifact.load_program(tags::PROGRAM_RAT).unwrap();
        // The loaded program's coefficient storage aliases the mapping.
        let (_, coeffs, ..) = loaded.csr_parts();
        let map_range = artifact.map.bytes().as_ptr() as usize
            ..artifact.map.bytes().as_ptr() as usize + artifact.map.bytes().len();
        assert!(map_range.contains(&(coeffs.as_ptr() as usize)));
        // ... and survives dropping the artifact handle (Arc keep-alive).
        drop(artifact);
        assert_eq!(loaded.num_terms(), prog.num_terms());
        assert_eq!(
            loaded.decompile().total_monomials(),
            prog.decompile().total_monomials()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn structural_validation_rejects_inconsistent_offsets() {
        let (_reg, prog) = sample_program();
        let mut w = ArtifactWriter::new();
        write_program(&mut w, tags::PROGRAM_RAT, &prog);
        // Hand-build a broken section: claim 2 polys but 1 offset entry.
        let mut bad = ArtifactWriter::new();
        bad.begin_section(tags::PROGRAM_RAT);
        bad.put_u32(Rat::TYPE_ID);
        bad.put_u32(2);
        bad.put_u32(0); // num_slots (v2)
        bad.put_str("A");
        bad.put_str("B");
        bad.put_u32_slice(&[]); // locals
        bad.put_u32_slice(&[0]); // poly_offsets: wrong length
        bad.put_u32_slice(&[0]); // term_offsets
        bad.put_u32_slice(&[]); // var_ids
        bad.put_u32_slice(&[]); // exps
        bad.put_rat_slice(&[]); // coeffs
        let bytes = bad.finish();
        let image = AlignedBytes::copy_from(&bytes);
        let r = ArtifactReader::parse(image.bytes()).unwrap();
        assert!(matches!(
            read_program_ref::<Rat>(&r, tags::PROGRAM_RAT),
            Err(PersistError::Invalid(_))
        ));
    }
}
