//! LEB128 variable-length integer coding (the WASM binary integer format).

use crate::error::WasmError;

/// Appends `v` as unsigned LEB128.
pub fn write_u32(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let mut byte = (v & 0x7f) as u8;
        v >>= 7;
        if v != 0 {
            byte |= 0x80;
        }
        out.push(byte);
        if v == 0 {
            break;
        }
    }
}

/// Appends `v` as signed LEB128 (33-bit domain for `i32`).
pub fn write_i32(out: &mut Vec<u8>, v: i32) {
    write_i64(out, v as i64);
}

/// Appends `v` as signed LEB128.
pub fn write_i64(out: &mut Vec<u8>, mut v: i64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        let sign_clear = byte & 0x40 == 0;
        if (v == 0 && sign_clear) || (v == -1 && !sign_clear) {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// A byte cursor with LEB128 readers.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Current offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Remaining byte count.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// A `Vec` capacity for `count` declared elements: each takes at
    /// least one byte, so an untrusted count never reserves more than
    /// the bytes left could hold.
    pub(crate) fn capacity_for(&self, count: u32) -> usize {
        (count as usize).min(self.remaining())
    }

    /// `true` when fully consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`WasmError::UnexpectedEof`] at end of input.
    pub fn byte(&mut self) -> Result<u8, WasmError> {
        let b = *self.bytes.get(self.pos).ok_or(WasmError::UnexpectedEof)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WasmError> {
        if self.remaining() < n {
            return Err(WasmError::UnexpectedEof);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads an unsigned LEB128 `u32`.
    pub fn u32(&mut self) -> Result<u32, WasmError> {
        let start = self.pos;
        let mut result: u32 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.byte()?;
            if shift >= 35 {
                return Err(WasmError::BadLeb128 { offset: start });
            }
            result |= ((byte & 0x7f) as u32) << shift;
            if byte & 0x80 == 0 {
                return Ok(result);
            }
            shift += 7;
        }
    }

    /// Reads a signed LEB128 `i32`.
    pub fn i32(&mut self) -> Result<i32, WasmError> {
        Ok(self.i64()? as i32)
    }

    /// Reads a signed LEB128 `i64`.
    pub fn i64(&mut self) -> Result<i64, WasmError> {
        let start = self.pos;
        let mut result: i64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.byte()?;
            if shift >= 70 {
                return Err(WasmError::BadLeb128 { offset: start });
            }
            result |= ((byte & 0x7f) as i64) << shift;
            shift += 7;
            if byte & 0x80 == 0 {
                if shift < 64 && byte & 0x40 != 0 {
                    result |= -1i64 << shift;
                }
                return Ok(result);
            }
        }
    }

    /// Reads a length-prefixed UTF-8 name.
    pub fn name(&mut self) -> Result<String, WasmError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WasmError::UnexpectedEof)
    }
}

/// Appends a length-prefixed UTF-8 name.
pub fn write_name(out: &mut Vec<u8>, name: &str) {
    write_u32(out, name.len() as u32);
    out.extend_from_slice(name.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_roundtrip() {
        for v in [0u32, 1, 127, 128, 16384, 0xdead_beef, u32::MAX] {
            let mut buf = Vec::new();
            write_u32(&mut buf, v);
            assert_eq!(Reader::new(&buf).u32().unwrap(), v, "value {v}");
        }
    }

    #[test]
    fn i64_roundtrip() {
        for v in [
            0i64,
            1,
            -1,
            63,
            64,
            -64,
            -65,
            i64::MAX,
            i64::MIN,
            0x1234_5678_9abc,
        ] {
            let mut buf = Vec::new();
            write_i64(&mut buf, v);
            assert_eq!(Reader::new(&buf).i64().unwrap(), v, "value {v}");
        }
    }

    #[test]
    fn i32_roundtrip() {
        for v in [0i32, -1, i32::MIN, i32::MAX, 42, -1000] {
            let mut buf = Vec::new();
            write_i32(&mut buf, v);
            assert_eq!(Reader::new(&buf).i32().unwrap(), v, "value {v}");
        }
    }

    #[test]
    fn eof_detected() {
        assert_eq!(Reader::new(&[]).byte(), Err(WasmError::UnexpectedEof));
        assert_eq!(Reader::new(&[0x80]).u32(), Err(WasmError::UnexpectedEof));
    }

    #[test]
    fn overlong_rejected() {
        let buf = [0xff, 0xff, 0xff, 0xff, 0xff, 0x0f];
        assert!(matches!(
            Reader::new(&buf).u32(),
            Err(WasmError::BadLeb128 { .. })
        ));
    }

    #[test]
    fn names_roundtrip() {
        let mut buf = Vec::new();
        write_name(&mut buf, "transfer");
        assert_eq!(Reader::new(&buf).name().unwrap(), "transfer");
    }

    #[test]
    fn reader_position_tracking() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.remaining(), 3);
        r.byte().unwrap();
        assert_eq!(r.pos(), 1);
        r.take(2).unwrap();
        assert!(r.is_at_end());
    }
}
