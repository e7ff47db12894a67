//! Little-endian state codec for model persistence.
//!
//! The workspace is fully offline and dependency-free, so trained model
//! state is serialized with a hand-rolled binary codec instead of serde:
//!
//! * [`ByteWriter`] / [`ByteReader`] — primitive little-endian encoding
//!   (integers, floats, strings, vectors) with typed, non-panicking
//!   decode errors ([`CodecError`]),
//! * [`Sections`] — an ordered collection of *named* byte payloads; the
//!   unit a model artifact stores and checksums,
//! * [`ParamIo`] — the state export/import trait every trained detector
//!   implements. `export_state` must capture *everything* that influences
//!   scoring, so that `import_state` on a freshly constructed model
//!   reproduces scores bit-for-bit,
//! * [`export_parameters`] / [`import_parameters`] — helpers mapping a
//!   named [`Parameters`] registry onto one section per tensor.
//!
//! Every multi-byte value is little-endian **by definition** (not host
//! order), so artifacts are portable across architectures.

use crate::matrix::Matrix;
use crate::params::Parameters;
use std::error::Error;
use std::fmt;

/// A non-panicking decode failure.
///
/// Decoding untrusted bytes (a corrupted or truncated artifact) must
/// never panic or make unbounded allocations; every failure mode maps to
/// one of these variants with enough context to diagnose it.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The input ended before a value could be read.
    Truncated {
        /// What was being decoded.
        context: &'static str,
        /// Bytes the value needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The bytes decoded to a structurally impossible value.
    Malformed {
        /// What was being decoded and why it is invalid.
        context: &'static str,
    },
    /// A required named section was absent.
    MissingSection {
        /// The missing section's name.
        name: String,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated {
                context,
                needed,
                available,
            } => write!(
                f,
                "truncated while reading {context}: needed {needed} bytes, {available} available"
            ),
            CodecError::Malformed { context } => write!(f, "malformed {context}"),
            CodecError::MissingSection { name } => write!(f, "missing section '{name}'"),
        }
    }
}

impl Error for CodecError {}

/// Append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f32` as its little-endian bit pattern (exact).
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its little-endian bit pattern (exact).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends raw bytes with no length prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a UTF-8 string with a `u16` length prefix.
    ///
    /// # Panics
    ///
    /// Panics if the string exceeds `u16::MAX` bytes (section and
    /// parameter names are short by construction).
    pub fn put_str(&mut self, s: &str) {
        let len = u16::try_from(s.len()).expect("string fits u16 length prefix");
        self.put_u16(len);
        self.put_bytes(s.as_bytes());
    }

    /// Appends an `f64` slice with a `u32` length prefix.
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        self.put_u32(u32::try_from(vs.len()).expect("vector fits u32 length prefix"));
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// Appends a rectangular `f64` row set (`u32` rows, `u32` cols, data).
    ///
    /// # Panics
    ///
    /// Panics on ragged rows.
    pub fn put_f64_rows(&mut self, rows: &[Vec<f64>]) {
        let cols = rows.first().map_or(0, Vec::len);
        self.put_u32(u32::try_from(rows.len()).expect("rows fit u32"));
        self.put_u32(u32::try_from(cols).expect("cols fit u32"));
        for row in rows {
            assert_eq!(row.len(), cols, "put_f64_rows: ragged rows");
            for &v in row {
                self.put_f64(v);
            }
        }
    }

    /// Appends `Option<usize>` as a presence byte plus a `u64`.
    pub fn put_opt_usize(&mut self, v: Option<usize>) {
        match v {
            Some(v) => {
                self.put_bool(true);
                self.put_usize(v);
            }
            None => self.put_bool(false),
        }
    }
}

/// Bounds-checked little-endian decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// `true` when every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                context,
                needed: n,
                available: self.remaining(),
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self, context: &'static str) -> Result<[u8; N], CodecError> {
        let slice = self.take(N, context)?;
        let mut out = [0u8; N];
        out.copy_from_slice(slice);
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input.
    pub fn get_u8(&mut self, context: &'static str) -> Result<u8, CodecError> {
        Ok(self.array::<1>(context)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input.
    pub fn get_u16(&mut self, context: &'static str) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.array(context)?))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input.
    pub fn get_u32(&mut self, context: &'static str) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array(context)?))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input.
    pub fn get_u64(&mut self, context: &'static str) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array(context)?))
    }

    /// Reads a `usize` stored as `u64`.
    ///
    /// # Errors
    ///
    /// Truncation, or [`CodecError::Malformed`] when the value does not
    /// fit the host `usize`.
    pub fn get_usize(&mut self, context: &'static str) -> Result<usize, CodecError> {
        usize::try_from(self.get_u64(context)?).map_err(|_| CodecError::Malformed { context })
    }

    /// Reads an `f32` bit pattern.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input.
    pub fn get_f32(&mut self, context: &'static str) -> Result<f32, CodecError> {
        Ok(f32::from_le_bytes(self.array(context)?))
    }

    /// Reads an `f64` bit pattern.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input.
    pub fn get_f64(&mut self, context: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.array(context)?))
    }

    /// Reads a bool byte, rejecting values other than 0/1.
    ///
    /// # Errors
    ///
    /// Truncation, or [`CodecError::Malformed`] on a non-boolean byte.
    pub fn get_bool(&mut self, context: &'static str) -> Result<bool, CodecError> {
        match self.get_u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Malformed { context }),
        }
    }

    /// Reads a `u16`-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Truncation, or [`CodecError::Malformed`] on invalid UTF-8.
    pub fn get_str(&mut self, context: &'static str) -> Result<String, CodecError> {
        let len = self.get_u16(context)? as usize;
        let bytes = self.take(len, context)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Malformed { context })
    }

    /// Reads a `u32`-prefixed `f64` vector, bounding the allocation by
    /// the bytes actually present.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when the declared length exceeds the
    /// remaining input.
    pub fn get_f64_vec(&mut self, context: &'static str) -> Result<Vec<f64>, CodecError> {
        let len = self.get_u32(context)? as usize;
        let needed = len
            .checked_mul(8)
            .ok_or(CodecError::Malformed { context })?;
        if needed > self.remaining() {
            return Err(CodecError::Truncated {
                context,
                needed,
                available: self.remaining(),
            });
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.get_f64(context)?);
        }
        Ok(out)
    }

    /// Reads a rectangular `f64` row set written by
    /// [`ByteWriter::put_f64_rows`].
    ///
    /// # Errors
    ///
    /// Truncation when the declared shape exceeds the remaining input.
    pub fn get_f64_rows(&mut self, context: &'static str) -> Result<Vec<Vec<f64>>, CodecError> {
        let rows = self.get_u32(context)? as usize;
        let cols = self.get_u32(context)? as usize;
        // An empty row costs no input but still a `Vec`: count each row
        // as at least one element, so a zero-width shape cannot claim
        // billions of rows from a few bytes.
        let needed = rows
            .checked_mul(cols.max(1))
            .and_then(|n| n.checked_mul(8))
            .ok_or(CodecError::Malformed { context })?;
        if needed > self.remaining() {
            return Err(CodecError::Truncated {
                context,
                needed,
                available: self.remaining(),
            });
        }
        let mut out = Vec::with_capacity(rows);
        for _ in 0..rows {
            let mut row = Vec::with_capacity(cols);
            for _ in 0..cols {
                row.push(self.get_f64(context)?);
            }
            out.push(row);
        }
        Ok(out)
    }

    /// Reads an `Option<usize>` written by [`ByteWriter::put_opt_usize`].
    ///
    /// # Errors
    ///
    /// Truncation or malformed presence byte.
    pub fn get_opt_usize(&mut self, context: &'static str) -> Result<Option<usize>, CodecError> {
        if self.get_bool(context)? {
            Ok(Some(self.get_usize(context)?))
        } else {
            Ok(None)
        }
    }
}

/// An ordered collection of named byte payloads — the content unit of a
/// model artifact. Order is preserved so re-serialization is stable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sections {
    entries: Vec<(String, Vec<u8>)>,
}

impl Sections {
    /// An empty collection.
    pub fn new() -> Self {
        Sections::default()
    }

    /// Appends a named payload (later pushes with the same name shadow
    /// earlier ones on lookup; writers never duplicate names).
    pub fn push(&mut self, name: impl Into<String>, bytes: Vec<u8>) {
        self.entries.push((name.into(), bytes));
    }

    /// Looks a section up by name.
    pub fn get(&self, name: &str) -> Option<&[u8]> {
        self.entries
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_slice())
    }

    /// Looks a section up by name, failing with
    /// [`CodecError::MissingSection`] when absent.
    ///
    /// # Errors
    ///
    /// [`CodecError::MissingSection`] when no section carries `name`.
    pub fn require(&self, name: &str) -> Result<&[u8], CodecError> {
        self.get(name).ok_or_else(|| CodecError::MissingSection {
            name: name.to_string(),
        })
    }

    /// Iterates `(name, payload)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[u8])> {
        self.entries.iter().map(|(n, b)| (n.as_str(), b.as_slice()))
    }

    /// Number of sections.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no sections are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// State export/import for trained models.
///
/// The contract: `export_state` writes every value that influences
/// scoring into named sections; `import_state` on a freshly constructed
/// instance restores them so scores reproduce the exporter's
/// **bit-for-bit**. Hyperparameters that only matter during `fit` (learning
/// rates, epoch counts) are exported too, for provenance.
///
/// Implementations must not panic on corrupted input — every decode
/// failure surfaces as a [`CodecError`].
pub trait ParamIo {
    /// Serializes the complete trained state into `sections`.
    fn export_state(&self, sections: &mut Sections);

    /// Restores state previously produced by [`ParamIo::export_state`].
    ///
    /// # Errors
    ///
    /// [`CodecError`] when the payloads are missing, truncated or
    /// structurally invalid. On error `self` may be partially updated and
    /// must be discarded.
    fn import_state(&mut self, sections: &Sections) -> Result<(), CodecError>;

    /// `true` when the fitted state is consistent with scoring inputs of
    /// width `dim` (unfitted state is trivially consistent). Artifact
    /// loaders call this after [`ParamIo::import_state`] to refuse
    /// dimension-skewed state — which individual section checks cannot
    /// see — before it can silently mis-score or panic at scan time.
    fn state_matches_dim(&self, _dim: usize) -> bool {
        true
    }
}

/// Exports every matrix of a [`Parameters`] registry as its own named
/// section (`{prefix}{param-name}`), preceded by a `{prefix}index`
/// section listing the expected names in slot order.
pub fn export_parameters(params: &Parameters, prefix: &str, sections: &mut Sections) {
    let mut index = ByteWriter::new();
    index.put_u32(u32::try_from(params.len()).expect("parameter count fits u32"));
    for (_, name, _) in params.iter() {
        index.put_str(name);
    }
    sections.push(format!("{prefix}index"), index.into_bytes());
    for (_, name, mat) in params.iter() {
        let mut w = ByteWriter::new();
        mat.write_le(&mut w);
        sections.push(format!("{prefix}{name}"), w.into_bytes());
    }
}

/// Imports tensors written by [`export_parameters`] into an
/// already-allocated registry: every parameter of `params` must have a
/// matching section whose matrix has the same shape.
///
/// The shape check makes corrupted artifacts and config/state mismatches
/// fail loudly instead of silently mis-wiring a model.
///
/// # Errors
///
/// [`CodecError`] on a missing section, a tensor-count or name mismatch
/// with the `{prefix}index` section, a shape mismatch, or a truncated
/// matrix payload.
pub fn import_parameters(
    params: &mut Parameters,
    prefix: &str,
    sections: &Sections,
) -> Result<(), CodecError> {
    let mut index = ByteReader::new(sections.require(&format!("{prefix}index"))?);
    let count = index.get_u32("parameter index count")? as usize;
    if count != params.len() {
        return Err(CodecError::Malformed {
            context: "parameter index: tensor count does not match the model architecture",
        });
    }
    let ids: Vec<crate::params::ParamId> = params.iter().map(|(id, _, _)| id).collect();
    for id in ids {
        let expected = index.get_str("parameter index name")?;
        if expected != params.name(id) {
            return Err(CodecError::Malformed {
                context: "parameter index: tensor name does not match the model architecture",
            });
        }
        let payload = sections.require(&format!("{prefix}{}", params.name(id)))?;
        let mut r = ByteReader::new(payload);
        let mat = Matrix::read_le(&mut r)?;
        let current = params.get(id);
        if mat.rows() != current.rows() || mat.cols() != current.cols() {
            return Err(CodecError::Malformed {
                context: "parameter tensor: shape does not match the model architecture",
            });
        }
        *params.get_mut(id) = mat;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_f32(1.5);
        w.put_f64(-0.125);
        w.put_bool(true);
        w.put_str("hello");
        w.put_f64_slice(&[1.0, -2.0]);
        w.put_opt_usize(Some(42));
        w.put_opt_usize(None);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8("a").unwrap(), 7);
        assert_eq!(r.get_u16("b").unwrap(), 0xBEEF);
        assert_eq!(r.get_u32("c").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64("d").unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f32("e").unwrap(), 1.5);
        assert_eq!(r.get_f64("f").unwrap(), -0.125);
        assert!(r.get_bool("g").unwrap());
        assert_eq!(r.get_str("h").unwrap(), "hello");
        assert_eq!(r.get_f64_vec("i").unwrap(), vec![1.0, -2.0]);
        assert_eq!(r.get_opt_usize("j").unwrap(), Some(42));
        assert_eq!(r.get_opt_usize("k").unwrap(), None);
        assert!(r.is_done());
    }

    #[test]
    fn truncation_is_typed_not_panicking() {
        let mut w = ByteWriter::new();
        w.put_u64(5);
        let bytes = w.into_bytes();
        for k in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..k]);
            assert!(matches!(
                r.get_u64("value"),
                Err(CodecError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn oversized_vector_length_rejected_without_allocation() {
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX); // declares 4 billion doubles
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_f64_vec("huge").is_err());
    }

    #[test]
    fn zero_width_row_set_cannot_claim_billions_of_rows() {
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX); // rows
        w.put_u32(0); // cols
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 8);
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.get_f64_rows("rows"),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_bool_rejected() {
        let mut r = ByteReader::new(&[2]);
        assert!(matches!(
            r.get_bool("flag"),
            Err(CodecError::Malformed { .. })
        ));
    }

    #[test]
    fn rows_round_trip_and_ragged_guard() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let mut w = ByteWriter::new();
        w.put_f64_rows(&rows);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_f64_rows("rows").unwrap(), rows);
    }

    #[test]
    fn sections_lookup() {
        let mut s = Sections::new();
        s.push("a", vec![1]);
        s.push("b", vec![2, 3]);
        assert_eq!(s.get("a"), Some(&[1][..]));
        assert_eq!(s.require("b").unwrap(), &[2, 3]);
        assert!(matches!(
            s.require("missing"),
            Err(CodecError::MissingSection { .. })
        ));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn parameters_export_import_round_trip() {
        let mut src = Parameters::new();
        src.add("w", Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32));
        src.add("b", Matrix::filled(1, 3, -0.5));
        let mut sections = Sections::new();
        export_parameters(&src, "tensor.", &mut sections);
        assert_eq!(sections.len(), 3); // index + 2 tensors

        let mut dst = Parameters::new();
        let w = dst.add("w", Matrix::zeros(2, 3));
        let b = dst.add("b", Matrix::zeros(1, 3));
        import_parameters(&mut dst, "tensor.", &sections).unwrap();
        assert_eq!(dst.get(w).get(1, 2), 5.0);
        assert_eq!(dst.get(b).get(0, 0), -0.5);
    }

    #[test]
    fn parameters_import_rejects_shape_and_name_mismatch() {
        let mut src = Parameters::new();
        src.add("w", Matrix::zeros(2, 3));
        let mut sections = Sections::new();
        export_parameters(&src, "p.", &mut sections);

        // Shape mismatch.
        let mut wrong_shape = Parameters::new();
        wrong_shape.add("w", Matrix::zeros(3, 2));
        assert!(import_parameters(&mut wrong_shape, "p.", &sections).is_err());

        // Name mismatch.
        let mut wrong_name = Parameters::new();
        wrong_name.add("v", Matrix::zeros(2, 3));
        assert!(import_parameters(&mut wrong_name, "p.", &sections).is_err());

        // Count mismatch.
        let mut extra = Parameters::new();
        extra.add("w", Matrix::zeros(2, 3));
        extra.add("b", Matrix::zeros(1, 3));
        assert!(import_parameters(&mut extra, "p.", &sections).is_err());
    }
}
