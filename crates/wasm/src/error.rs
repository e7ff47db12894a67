//! Error types for WASM module processing.

use crate::decode::MAX_NESTING_DEPTH;
use std::error::Error;
use std::fmt;

/// Errors produced while decoding, encoding or validating WASM modules.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WasmError {
    /// The module does not start with `\0asm` + version 1.
    BadMagic,
    /// The byte stream ended prematurely.
    UnexpectedEof,
    /// A LEB128 integer was malformed or overlong.
    BadLeb128 {
        /// Offset where decoding started.
        offset: usize,
    },
    /// An unknown or unsupported opcode byte.
    UnsupportedOpcode {
        /// The opcode byte.
        byte: u8,
        /// Offset of the byte.
        offset: usize,
    },
    /// A section appeared out of order or twice.
    BadSection {
        /// The section id.
        id: u8,
    },
    /// An index (type, function, local, global, label) is out of range.
    IndexOutOfRange {
        /// What kind of index.
        kind: &'static str,
        /// The offending index.
        index: u32,
        /// Number of valid entries.
        limit: usize,
    },
    /// A value type byte is not one of the supported types.
    BadValType {
        /// The type byte.
        byte: u8,
    },
    /// Structured control flow is malformed (unbalanced `end`/`else`).
    UnbalancedControl,
    /// A `block`, `loop` or `if` nests deeper than [`MAX_NESTING_DEPTH`].
    NestingTooDeep {
        /// Offset of the first body one level past the limit.
        offset: usize,
    },
}

impl fmt::Display for WasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WasmError::BadMagic => write!(f, "missing or wrong wasm magic/version header"),
            WasmError::UnexpectedEof => write!(f, "unexpected end of module bytes"),
            WasmError::BadLeb128 { offset } => {
                write!(f, "malformed LEB128 integer at offset {offset}")
            }
            WasmError::UnsupportedOpcode { byte, offset } => {
                write!(f, "unsupported opcode 0x{byte:02x} at offset {offset}")
            }
            WasmError::BadSection { id } => {
                write!(f, "section id {id} out of order, duplicated or unknown")
            }
            WasmError::IndexOutOfRange { kind, index, limit } => {
                write!(f, "{kind} index {index} out of range (limit {limit})")
            }
            WasmError::BadValType { byte } => {
                write!(f, "unsupported value type byte 0x{byte:02x}")
            }
            WasmError::UnbalancedControl => {
                write!(f, "unbalanced structured control flow in function body")
            }
            WasmError::NestingTooDeep { offset } => write!(
                f,
                "control nesting deeper than {MAX_NESTING_DEPTH} levels at offset {offset}"
            ),
        }
    }
}

impl Error for WasmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_nonempty_and_lowercase() {
        let errs = vec![
            WasmError::BadMagic,
            WasmError::UnexpectedEof,
            WasmError::BadLeb128 { offset: 3 },
            WasmError::UnsupportedOpcode {
                byte: 0xf0,
                offset: 9,
            },
            WasmError::BadSection { id: 42 },
            WasmError::IndexOutOfRange {
                kind: "type",
                index: 7,
                limit: 2,
            },
            WasmError::BadValType { byte: 0x7b },
            WasmError::UnbalancedControl,
            WasmError::NestingTooDeep { offset: 12 },
        ];
        for e in errs {
            let m = e.to_string();
            assert!(!m.is_empty());
            assert!(m.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<WasmError>();
    }
}
