//! Property-based tests on the cross-crate invariants.

use proptest::prelude::*;
use scamdetect_evm::disasm::{assemble_instructions, disassemble, opcode_histogram};
use scamdetect_evm::proxy::{fnv1a_extend, skeleton_hash, FNV1A_OFFSET_BASIS};
use scamdetect_evm::word::U256;
use scamdetect_wasm::decode::decode_module;
use scamdetect_wasm::encode::encode_module;
use scamdetect_wasm::instr::{IBinOp, Instr, Width};
use scamdetect_wasm::module::Module;
use scamdetect_wasm::types::{BlockType, FuncType, ValType};

/// The skeleton hash recomputed from decoded instructions: each opcode
/// byte, then the width of the immediate present.
fn skeleton_from_instructions(code: &[u8]) -> u64 {
    disassemble(code).iter().fold(FNV1A_OFFSET_BASIS, |h, ins| {
        fnv1a_extend(h, &[ins.byte, ins.immediate().len() as u8])
    })
}

/// The opcode histogram counted over decoded instructions, in `f64`
/// bins summed and normalized in place.
fn histogram_from_instructions(code: &[u8]) -> Vec<u64> {
    let mut h = vec![0.0f64; 256];
    for ins in disassemble(code) {
        h[ins.byte as usize] += 1.0;
    }
    let total: f64 = h.iter().sum();
    if total > 0.0 {
        for v in &mut h {
            *v /= total;
        }
    }
    h.into_iter().map(f64::to_bits).collect()
}

fn bits(h: Vec<f64>) -> Vec<u64> {
    h.into_iter().map(f64::to_bits).collect()
}

proptest! {
    /// The byte walks behind the fingerprint and the histogram delimit
    /// instructions exactly as the disassembler does.
    #[test]
    fn evm_byte_walks_match_disassembly(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        prop_assert_eq!(skeleton_hash(&bytes), skeleton_from_instructions(&bytes));
        prop_assert_eq!(bits(opcode_histogram(&bytes)), histogram_from_instructions(&bytes));
    }

    /// The same agreement when the code ends in a `PUSHn` cut short: the
    /// prefix holds no pushes, so the final push is always truncated.
    #[test]
    fn evm_byte_walks_match_on_truncated_push(
        prefix in proptest::collection::vec(any::<u8>(), 0..256),
        width in 1usize..=32,
        immediate in proptest::collection::vec(any::<u8>(), 0..32)
    ) {
        let mut code: Vec<u8> = prefix
            .iter()
            .map(|&b| if (0x60..=0x7f).contains(&b) { b - 0x20 } else { b })
            .collect();
        code.push(0x5f + width as u8);
        code.extend(immediate.iter().take(width - 1));
        let last = *disassemble(&code).last().expect("the push decodes");
        prop_assert!(last.immediate().len() < width);
        prop_assert_eq!(last.next_offset(), code.len());
        prop_assert_eq!(skeleton_hash(&code), skeleton_from_instructions(&code));
        prop_assert_eq!(bits(opcode_histogram(&code)), histogram_from_instructions(&code));
    }

    /// Disassembly followed by re-encoding is the identity on arbitrary
    /// byte strings (the linear sweep consumes every byte exactly once).
    #[test]
    fn evm_disassemble_reencode_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let instrs = disassemble(&bytes);
        prop_assert_eq!(assemble_instructions(&instrs), bytes);
    }

    /// Instruction offsets are strictly increasing and contiguous.
    #[test]
    fn evm_disassembly_offsets_are_contiguous(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let instrs = disassemble(&bytes);
        let mut expected = 0usize;
        for ins in &instrs {
            prop_assert_eq!(ins.offset, expected);
            expected = ins.next_offset();
        }
        prop_assert_eq!(expected, bytes.len());
    }

    /// U256 arithmetic agrees with u128 on values that fit.
    #[test]
    fn u256_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let (wa, wb) = (U256::from_u64(a), U256::from_u64(b));
        prop_assert_eq!(
            wa.wrapping_add(&wb).to_usize(),
            usize::try_from(a as u128 + b as u128).ok()
        );
        prop_assert_eq!(
            &wa.wrapping_mul(&wb).to_be_bytes()[16..],
            &((a as u128) * (b as u128)).to_be_bytes()[..]
        );
        prop_assert_eq!(wa.xor(&wb).to_usize(), Some((a ^ b) as usize));
        prop_assert_eq!(wa.and(&wb).to_usize(), Some((a & b) as usize));
    }

    /// U256 big-endian byte roundtrip.
    #[test]
    fn u256_byte_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..=32)) {
        let w = U256::from_be_bytes(&bytes);
        let full = w.to_be_bytes();
        prop_assert_eq!(U256::from_be_bytes(&full), w);
        // Minimal encoding re-expands to the same value.
        let min = w.to_be_bytes_minimal();
        prop_assert_eq!(U256::from_be_bytes(&min), w);
    }

    /// XOR-split constants always recombine (the invariant constant
    /// splitting obfuscation relies on).
    #[test]
    fn constant_split_recombines(v in any::<u64>(), k in any::<u64>()) {
        let (wv, wk) = (U256::from_u64(v), U256::from_u64(k));
        prop_assert_eq!(wv.xor(&wk).xor(&wk), wv);
        prop_assert_eq!(wv.wrapping_sub(&wk).wrapping_add(&wk), wv);
    }

    /// WASM modules with arbitrary simple function bodies roundtrip
    /// through the binary format.
    #[test]
    fn wasm_module_roundtrip(
        consts in proptest::collection::vec(any::<i64>(), 1..20),
        locals in 0u32..4,
        export in any::<bool>()
    ) {
        let mut body: Vec<Instr> = Vec::new();
        for (i, c) in consts.iter().enumerate() {
            body.push(Instr::I64Const(*c));
            if i % 2 == 1 {
                body.push(Instr::Binary { width: Width::W64, op: IBinOp::Add });
            }
        }
        // Balance the stack: drop everything left.
        let leftover = consts.len() - consts.len() / 2;
        for _ in 0..leftover {
            body.push(Instr::Drop);
        }
        body.push(Instr::Block { ty: BlockType::Empty, body: vec![Instr::Br(0)] });

        let mut m = Module::new();
        let f = m.add_function(
            FuncType::default(),
            vec![(locals, ValType::I64)],
            body,
        );
        if export {
            m.export_func("main", f);
        }
        let bytes = encode_module(&m);
        let back = decode_module(&bytes).expect("decodes");
        prop_assert_eq!(back, m);
    }

    /// The EVM CFG builder never panics and always produces at least one
    /// block on arbitrary bytes.
    #[test]
    fn evm_cfg_total_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 1..300)) {
        let cfg = scamdetect_evm::cfg::build_cfg(&bytes);
        prop_assert!(cfg.block_count() >= 1);
        // All instructions are preserved across the block partition.
        prop_assert_eq!(cfg.instruction_count(), disassemble(&bytes).len());
    }

    /// The unified-IR graph feature vector is finite and fixed-width on
    /// arbitrary EVM bytes.
    #[test]
    fn unified_features_total(bytes in proptest::collection::vec(any::<u8>(), 1..200)) {
        use scamdetect_ir::{EvmFrontend, Frontend};
        let cfg = EvmFrontend::new().lift(&bytes).expect("evm lift is total on nonempty bytes");
        let v = scamdetect_ir::features::graph_feature_vector(&cfg);
        prop_assert_eq!(v.len(), scamdetect_ir::features::GRAPH_FEATURE_DIM);
        prop_assert!(v.iter().all(|x| x.is_finite()));
    }
}

// ─────────────── wire codecs against per-character references ───────────────
//
// The serve crate's hex decoder and JSON string reader and writer work
// on whole runs of bytes through lookup tables. The references below
// take one character at a time, the plainest reading of each format,
// and the properties pin the bulk versions to them on generated text.

use scamdetect_serve::json::{Json, JsonError};
use scamdetect_serve::wire::decode_hex;

fn reference_decode_hex(text: &str) -> Result<Vec<u8>, String> {
    let cleaned: String = text
        .trim()
        .trim_start_matches("0x")
        .chars()
        .filter(|c| !c.is_whitespace())
        .collect();
    if !cleaned.len().is_multiple_of(2) {
        return Err("odd number of hex digits".to_string());
    }
    let mut bytes = Vec::with_capacity(cleaned.len() / 2);
    let digits = cleaned.as_bytes();
    for pair in digits.chunks_exact(2) {
        let hi = reference_hex_digit(pair[0])?;
        let lo = reference_hex_digit(pair[1])?;
        bytes.push((hi << 4) | lo);
    }
    Ok(bytes)
}

fn reference_hex_digit(b: u8) -> Result<u8, String> {
    match b {
        b'0'..=b'9' => Ok(b - b'0'),
        b'a'..=b'f' => Ok(b - b'a' + 10),
        b'A'..=b'F' => Ok(b - b'A' + 10),
        other => Err(format!("invalid hex digit '{}'", other as char)),
    }
}

fn reference_render_string(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `Json::parse` as it treated a document holding one string: the
/// string reader consumed one UTF-8 scalar per step.
fn reference_parse_string_document(text: &str) -> Result<Json, JsonError> {
    let mut p = ReferenceStringReader {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.string()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after the JSON document"));
    }
    Ok(Json::Str(value))
}

struct ReferenceStringReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl ReferenceStringReader<'_> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            message,
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| self.err("truncated escape sequence"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let unit = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.eat(b'u', "expected low surrogate escape")?;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined = 0x10000
                                        + ((unit as u32 - 0xD800) << 10)
                                        + (low as u32 - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(unit as u32)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    let rest = &self.bytes[self.pos..];
                    let len = match rest[0] {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let chunk = std::str::from_utf8(&rest[..len.min(rest.len())])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(chunk);
                    self.pos += chunk.len();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut value: u16 = 0;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                b'A'..=b'F' => b - b'A' + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            value = (value << 4) | digit as u16;
            self.pos += 1;
        }
        Ok(value)
    }
}

/// Pieces of a JSON string body that always read back: plain and
/// multi-byte text, every escape, and `\u` escapes with a surrogate pair.
const GOOD_STRING_PIECES: &[&str] = &[
    "a",
    "Z",
    "0x6001",
    " ",
    "bytecode",
    "é",
    "→",
    "😀",
    "\u{7f}",
    "\u{a0}",
    "\\\"",
    "\\\\",
    "\\/",
    "\\b",
    "\\f",
    "\\n",
    "\\r",
    "\\t",
    "\\u0041",
    "\\u00e9",
    "\\u2192",
    "\\ud83d\\ude00",
    "\\uDBFF\\uDFFF",
];

/// Pieces that make a string body fail (or nothing): lone or broken
/// surrogates, bad and truncated escapes, raw control characters, and a
/// raw quote that ends the string early.
const BAD_STRING_PIECES: &[&str] = &[
    "",
    "",
    "",
    "\\ud800",
    "\\udc00",
    "\\ud800\\u0041",
    "\\ud800x",
    "\\u12g4",
    "\\u12",
    "\\q",
    "\\",
    "\u{1}",
    "\n",
    "\t",
    "\u{1f}",
    "\"",
];

/// Characters a rendered string must escape, or copy through as they are.
const RENDER_CHARS: &[char] = &[
    'a', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{1f}', '\u{7f}', 'é', '→',
    '\u{2028}', '😀',
];

/// Pieces of hex bytecode: digits in pairs and alone, in both cases,
/// and ASCII and Unicode whitespace.
const HEX_PIECES: &[&str] = &[
    "60", "ff", "A0", "dE", "0", "9", "a", "F", " ", "\t", "\n", "\r", "\u{b}", "\u{c}", "\u{85}",
    "\u{a0}", "\u{2003}", "\u{3000}",
];

/// Characters that are no hex digit, and a misplaced prefix (or nothing).
const HEX_STRAYS: &[&str] = &["", "", "", "g", "G", "x", "X", "é", "😀", "\0", "-", "0x"];

/// What may come before the digits: the `0x` prefix, repeated, spaced
/// or in the wrong case.
const HEX_PREFIXES: &[&str] = &["", "", "0x", "0x0x", "  0x", "\u{3000}0x", "0X", "0x 0x"];

/// Whitespace, or nothing, between the two digits of a pair.
const HEX_GAPS: &[&str] = &[" ", "\n", "\u{2003}", "", "", "", "", ""];

fn pick(palette: &[&str], picks: &[usize]) -> String {
    picks.iter().map(|&i| palette[i]).collect()
}

/// `pieces` with `extra` spliced in after the `at`-th piece (modulo).
fn splice(palette: &[&str], picks: &[usize], extra: &str, at: usize) -> String {
    let at = at % (picks.len() + 1);
    pick(palette, &picks[..at]) + extra + &pick(palette, &picks[at..])
}

proptest! {
    /// Well-formed string bodies parse to the reference's value.
    #[test]
    fn json_string_reader_matches_reference_on_valid_strings(
        picks in proptest::collection::vec(0usize..GOOD_STRING_PIECES.len(), 0..40)
    ) {
        let doc = format!("\"{}\"", pick(GOOD_STRING_PIECES, &picks));
        let parsed = Json::parse(&doc);
        prop_assert!(parsed.is_ok(), "{doc:?}: {parsed:?}");
        prop_assert_eq!(parsed, reference_parse_string_document(&doc));
    }

    /// With a broken piece spliced in, the reader errs exactly where
    /// the reference does, with the same message and offset.
    #[test]
    fn json_string_reader_matches_reference_on_any_strings(
        picks in proptest::collection::vec(0usize..GOOD_STRING_PIECES.len(), 0..24),
        bad in 0usize..BAD_STRING_PIECES.len(),
        at in any::<usize>()
    ) {
        let body = splice(GOOD_STRING_PIECES, &picks, BAD_STRING_PIECES[bad], at);
        let doc = format!("\"{body}\"");
        prop_assert_eq!(Json::parse(&doc), reference_parse_string_document(&doc), "{:?}", doc);
    }

    /// Rendering matches the reference byte for byte and reads back.
    #[test]
    fn json_string_render_matches_reference(
        picks in proptest::collection::vec(0usize..RENDER_CHARS.len(), 0..48)
    ) {
        let s: String = picks.iter().map(|&i| RENDER_CHARS[i]).collect();
        let rendered = Json::Str(s.clone()).render();
        prop_assert_eq!(&rendered, &reference_render_string(&s));
        prop_assert_eq!(Json::parse(&rendered), Ok(Json::Str(s)));
    }

    /// Hex made of digit pairs and whitespace decodes to the reference's
    /// bytes, whatever the prefix.
    #[test]
    fn hex_decode_matches_reference_on_valid_hex(
        prefix in 0usize..3,
        pairs in proptest::collection::vec(any::<u8>(), 0..64),
        gaps in proptest::collection::vec(0usize..HEX_GAPS.len(), 64..=64)
    ) {
        let mut text = HEX_PREFIXES[prefix].to_string();
        for (k, b) in pairs.iter().enumerate() {
            let digits = if k % 3 == 0 { format!("{b:02X}") } else { format!("{b:02x}") };
            let (hi, lo) = digits.split_at(1);
            text.push_str(hi);
            text.push_str(HEX_GAPS[gaps[k]]);
            text.push_str(lo);
        }
        let decoded = decode_hex(&text);
        prop_assert_eq!(decoded.as_ref(), Ok(&pairs), "{:?}", text);
        prop_assert_eq!(decoded, reference_decode_hex(&text));
    }

    /// Any mix of digits, whitespace, prefixes and a stray character
    /// decodes, or errs with the reference's message: an odd digit
    /// count, else the first stray.
    #[test]
    fn hex_decode_matches_reference_on_any_text(
        prefix in 0usize..HEX_PREFIXES.len(),
        picks in proptest::collection::vec(0usize..HEX_PIECES.len(), 0..32),
        stray in 0usize..HEX_STRAYS.len(),
        at in any::<usize>()
    ) {
        let text = HEX_PREFIXES[prefix].to_string() + &splice(HEX_PIECES, &picks, HEX_STRAYS[stray], at);
        prop_assert_eq!(decode_hex(&text), reference_decode_hex(&text), "{:?}", text);
    }
}
