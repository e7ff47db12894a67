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

// ─────────────── report rendering against the tree-building references ───────────────
//
// `/scan` and `/batch` write each verdict straight into the response
// buffer through `wire::render_report`'s view. The references below are
// the renderers that view replaced: they built an owned `Json` tree per
// report (a `String` per key) and rendered it. The properties pin the
// writers to them byte for byte.

use scamdetect::{CacheStatus, CfgStats, ScanReport, ScannerBuilder, Verdict};
use scamdetect_dataset::ContractLabel;
use scamdetect_ir::Platform;
use scamdetect_serve::json::obj;
use scamdetect_serve::wire::{cache_status_str, render_batch, render_report};
use scamdetect_serve::ServingModel;
use std::cell::RefCell;
use std::time::Duration;

fn reference_render_report(report: &ScanReport, model: &ServingModel) -> Json {
    obj([
        (
            "verdict",
            Json::from(if report.is_malicious() {
                "malicious"
            } else {
                "benign"
            }),
        ),
        ("score", Json::from(report.verdict.malicious_probability)),
        ("threshold", Json::from(model.threshold)),
        ("platform", Json::from(report.verdict.platform.to_string())),
        ("cache", Json::from(cache_status_str(report.cache))),
        ("model", Json::from(model.id.as_str())),
        ("model_epoch", Json::from(model.epoch)),
        ("skeleton", Json::from(format!("{:016x}", report.skeleton))),
        ("blocks", Json::from(report.cfg.blocks)),
        ("instructions", Json::from(report.cfg.instructions)),
        (
            "elapsed_us",
            Json::from(report.elapsed.as_micros().min(u128::from(u64::MAX)) as u64),
        ),
    ])
}

/// The `/batch` envelope as the handler built it: a report tree or an
/// `{"error": …}` object per slot, inside `model`/`model_epoch`/`results`.
fn reference_render_batch(results: &[Result<ScanReport, String>], model: &ServingModel) -> String {
    let results: Vec<Json> = results
        .iter()
        .map(|result| match result {
            Ok(report) => reference_render_report(report, model),
            Err(message) => obj([("error", Json::from(message.as_str()))]),
        })
        .collect();
    obj([
        ("model", Json::from(model.id.as_str())),
        ("model_epoch", Json::from(model.epoch)),
        ("results", Json::Arr(results)),
    ])
    .render()
}

thread_local! {
    /// A serving model over the committed golden fixture; each case
    /// overwrites the fields a report renders.
    static SERVING_MODEL: RefCell<ServingModel> = RefCell::new(ServingModel {
        id: String::new(),
        epoch: 0,
        kind: String::new(),
        threshold: 0.5,
        fingerprint: 0,
        scanner: ScannerBuilder::new()
            .load(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/fixtures/golden-logreg-unified-v1.scam"
            ))
            .expect("the golden fixture loads"),
    });
}

/// Scores and thresholds with their own renderings: zeros of both
/// signs, one, the subnormal and normal extremes, integral values at
/// and past 2^53, huge and tiny magnitudes, and non-finite values
/// (rendered `null`).
const SPECIAL_FLOATS: &[f64] = &[
    0.0,
    -0.0,
    1.0,
    0.5,
    f64::from_bits(1),
    f64::from_bits(0x000F_FFFF_FFFF_FFFF),
    f64::MIN_POSITIVE,
    f64::MAX,
    f64::EPSILON,
    9_007_199_254_740_991.0,
    9_007_199_254_740_992.0,
    9_007_199_254_740_994.0,
    1e21,
    -1e300,
    1e-300,
    12345.0,
    -7.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// A float: a special value, any bit pattern, or a probability.
fn float_of(kind: usize, bits: u64) -> f64 {
    match kind % 3 {
        0 => SPECIAL_FLOATS[(bits % SPECIAL_FLOATS.len() as u64) as usize],
        1 => f64::from_bits(bits),
        _ => (bits >> 11) as f64 / (1u64 << 53) as f64,
    }
}

/// An integer field of any size: small counters and values past 2^53
/// (which render through `f64`).
fn integer_of(bits: u64, shift: u32) -> u64 {
    bits >> (shift % 64)
}

/// Model-id characters: plain and multi-byte text, quotes,
/// backslashes and control characters.
const ID_CHARS: &[char] = &[
    'r', 'f', '-', '1', '.', '"', '\\', '/', '\n', '\u{0}', '\u{1f}', '\u{7f}', 'é', '→',
    '\u{2028}', '😀',
];

const CACHE_STATUSES: [CacheStatus; 3] = [
    CacheStatus::Miss,
    CacheStatus::CacheHit,
    CacheStatus::BatchHit,
];

/// A report drawn from `seed`'s stream: every cache status and both
/// platforms, special and arbitrary scores, and counters of any size.
fn report_of(seed: u64) -> ScanReport {
    let mut rng = proptest::test_runner::Gen::for_case("report_of", seed);
    let score = float_of(rng.below(3) as usize, rng.next_u64());
    let malicious = rng.below(2) == 0;
    let platform = if rng.below(2) == 0 {
        Platform::Evm
    } else {
        Platform::Wasm
    };
    let blocks = integer_of(rng.next_u64(), rng.below(64) as u32) as usize;
    let instructions = integer_of(rng.next_u64(), rng.below(64) as u32) as usize;
    let elapsed_us = integer_of(rng.next_u64(), rng.below(64) as u32);
    ScanReport {
        verdict: Verdict {
            label: if malicious {
                ContractLabel::Malicious
            } else {
                ContractLabel::Benign
            },
            malicious_probability: score,
            platform,
            model: "ignored".to_string(),
            blocks,
            instructions,
        },
        skeleton: rng.next_u64(),
        cache: CACHE_STATUSES[rng.below(3) as usize],
        elapsed: Duration::from_micros(elapsed_us) + Duration::from_nanos(rng.below(1000)),
        cfg: CfgStats {
            blocks,
            instructions,
            edges: 0,
            bytes: 0,
        },
    }
}

/// Runs `f` against the shared serving model with the case's id,
/// epoch and threshold.
fn with_model<R>(id: &str, epoch: u64, threshold: f64, f: impl FnOnce(&ServingModel) -> R) -> R {
    SERVING_MODEL.with(|cell| {
        let mut model = cell.borrow_mut();
        model.id = id.to_string();
        model.epoch = epoch;
        model.threshold = threshold;
        f(&model)
    })
}

proptest! {
    /// One report renders exactly the bytes its `Json` tree rendered,
    /// through both the buffer-returning and the appending writer.
    #[test]
    fn report_writer_matches_the_tree_reference(
        seed in any::<u64>(),
        id in proptest::collection::vec(0usize..ID_CHARS.len(), 0..24),
        epoch_bits in any::<u64>(),
        epoch_shift in 0u32..64,
        threshold_kind in 0usize..3,
        threshold_bits in any::<u64>()
    ) {
        let id: String = id.iter().map(|&i| ID_CHARS[i]).collect();
        let report = report_of(seed);
        let threshold = float_of(threshold_kind, threshold_bits);
        with_model(&id, integer_of(epoch_bits, epoch_shift), threshold, |model| {
            let expected = reference_render_report(&report, model).render();
            let view = render_report(&report, model);
            prop_assert_eq!(view.render(), expected.clone());
            let mut appended = String::from("[");
            view.write_into(&mut appended);
            prop_assert_eq!(appended, format!("[{expected}"));
        });
    }

    /// A `/batch` body, reports and error slots mixed, renders exactly
    /// the envelope the handler built.
    #[test]
    fn batch_writer_matches_the_envelope_reference(
        slots in proptest::collection::vec(any::<u64>(), 0..12),
        id in proptest::collection::vec(0usize..ID_CHARS.len(), 0..12),
        epoch_bits in any::<u64>(),
        epoch_shift in 0u32..64
    ) {
        let id: String = id.iter().map(|&i| ID_CHARS[i]).collect();
        let results: Vec<Result<ScanReport, String>> = slots
            .iter()
            .map(|&seed| {
                if seed % 4 == 0 {
                    let message: String =
                        (0..seed % 9).map(|k| ID_CHARS[((seed >> k) % 16) as usize]).collect();
                    Err(format!("scan failed: {message}"))
                } else {
                    Ok(report_of(seed))
                }
            })
            .collect();
        with_model(&id, integer_of(epoch_bits, epoch_shift), 0.5, |model| {
            prop_assert_eq!(render_batch(&results, model), reference_render_batch(&results, model));
        });
    }
}

/// Every special float renders as the reference does, through the
/// report's `score` and `threshold`, and as a bare `Json` number.
#[test]
fn special_floats_render_as_the_float_formatter_does() {
    for &x in SPECIAL_FLOATS {
        let expected = if x.is_finite() {
            format!("{x}")
        } else {
            "null".to_string()
        };
        assert_eq!(Json::Num(x).render(), expected, "{x:?}");
        let mut report = report_of(7);
        report.verdict.malicious_probability = x;
        with_model("golden", 3, x, |model| {
            assert_eq!(
                render_report(&report, model).render(),
                reference_render_report(&report, model).render()
            );
        });
    }
}
