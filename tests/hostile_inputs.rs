//! Hostile inputs through the whole scan path: a module that declares
//! billions of elements in a few bytes must fail with a typed error,
//! never reserve memory for the elements it claims. A decoder that sized
//! its buffers from these counts would ask the allocator for tens of
//! gigabytes, and the failed allocation aborts the process, which no
//! per-request panic isolation can catch. Nesting is bounded the same
//! way: a body nested past the decoder's limit fails typed instead of
//! overflowing the stack, which aborts the process too.

use scamdetect::{ClassicModel, FeatureKind, ModelKind, ScamDetectError, Scanner, ScannerBuilder};
use scamdetect_dataset::{Corpus, CorpusConfig};
use scamdetect_ir::{FrontendError, Platform};
use scamdetect_wasm::decode::MAX_NESTING_DEPTH;
use scamdetect_wasm::leb::write_u32;
use scamdetect_wasm::WasmError;

/// `u32::MAX` as unsigned LEB128.
const LEB_U32_MAX: [u8; 5] = [0xFF, 0xFF, 0xFF, 0xFF, 0x0F];

/// A module with one `() -> ()` function whose code-section body is
/// `body` (which starts with the local-group count).
fn module_with_body(body: &[u8]) -> Vec<u8> {
    let mut module = vec![0x00, 0x61, 0x73, 0x6d, 0x01, 0x00, 0x00, 0x00];
    module.extend_from_slice(&[0x01, 0x04, 0x01, 0x60, 0x00, 0x00]); // types
    module.extend_from_slice(&[0x03, 0x02, 0x01, 0x00]); // functions
    let mut code = vec![0x01];
    write_u32(&mut code, body.len() as u32);
    code.extend_from_slice(body);
    module.push(0x0a);
    write_u32(&mut module, code.len() as u32);
    module.extend_from_slice(&code);
    module
}

/// A local-free body of `depth` nested openers, cycling through `block`,
/// `loop` and `if` (on a constant condition).
fn nested_body(depth: usize) -> Vec<u8> {
    let openers: [&[u8]; 3] = [&[0x02, 0x40], &[0x03, 0x40], &[0x41, 0x01, 0x04, 0x40]];
    let mut body = vec![0x00];
    for level in 0..depth {
        body.extend_from_slice(openers[level % 3]);
    }
    body.extend(std::iter::repeat_n(0x0b, depth + 1));
    body
}

fn scanner() -> Scanner {
    let corpus = Corpus::generate(&CorpusConfig {
        size: 24,
        platform: Platform::Wasm,
        seed: 0x405,
        ..CorpusConfig::default()
    });
    ScannerBuilder::new()
        .model(ModelKind::Classic(
            ClassicModel::RandomForest,
            FeatureKind::Unified,
        ))
        .train(&corpus)
        .expect("scanner trains")
}

/// Scans `bytes` on a thread with a 2 MiB stack, the size of a serve
/// worker's.
fn scan_on_small_stack(scanner: &Scanner, bytes: &[u8]) -> Result<(), ScamDetectError> {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn_scoped(scope, || scanner.scan(bytes).map(|_| ()))
            .expect("spawns")
            .join()
            .expect("the scan returns instead of panicking")
    })
}

#[test]
fn billions_of_declared_elements_fail_typed() {
    let scanner = scanner();
    // 0xFFFFFFFF local groups, and no byte of any of them.
    let locals = module_with_body(&LEB_U32_MAX);
    assert_eq!(locals.len(), 27);
    // `block` holding a `br_table` with 0xFFFFFFFF targets, none present.
    let mut br_table = vec![0x00, 0x02, 0x40, 0x0e];
    br_table.extend_from_slice(&LEB_U32_MAX);
    let br_table = module_with_body(&br_table);
    assert_eq!(br_table.len(), 31);

    for (name, module) in [("locals", locals), ("br_table", br_table)] {
        match scan_on_small_stack(&scanner, &module) {
            Err(ScamDetectError::Frontend(FrontendError::Wasm(WasmError::UnexpectedEof))) => {}
            other => panic!("{name}: expected a typed truncation error, got {other:?}"),
        }
    }
}

#[test]
fn nesting_past_the_limit_fails_typed() {
    let scanner = scanner();
    for depth in [MAX_NESTING_DEPTH + 1, 10_000] {
        match scan_on_small_stack(&scanner, &module_with_body(&nested_body(depth))) {
            Err(ScamDetectError::Frontend(FrontendError::Wasm(WasmError::NestingTooDeep {
                ..
            }))) => {}
            other => panic!("depth {depth}: expected a typed nesting error, got {other:?}"),
        }
    }
    // Exactly at the limit, the module decodes, validates, lifts, scores
    // and drops on the same stack.
    let at_limit = module_with_body(&nested_body(MAX_NESTING_DEPTH));
    scan_on_small_stack(&scanner, &at_limit).expect("a module at the limit gets a verdict");
}
