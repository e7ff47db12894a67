//! Hostile inputs through the whole scan path: a module that declares
//! billions of elements in a few bytes must fail with a typed error,
//! never reserve memory for the elements it claims. A decoder that sized
//! its buffers from these counts would ask the allocator for tens of
//! gigabytes, and the failed allocation aborts the process, which no
//! per-request panic isolation can catch.

use scamdetect::{ClassicModel, FeatureKind, ModelKind, ScamDetectError, Scanner, ScannerBuilder};
use scamdetect_dataset::{Corpus, CorpusConfig};
use scamdetect_ir::{FrontendError, Platform};
use scamdetect_wasm::WasmError;

/// `u32::MAX` as unsigned LEB128.
const LEB_U32_MAX: [u8; 5] = [0xFF, 0xFF, 0xFF, 0xFF, 0x0F];

/// A module with one `() -> ()` function whose code-section body is
/// `body` (which starts with the local-group count).
fn module_with_body(body: &[u8]) -> Vec<u8> {
    let mut module = vec![0x00, 0x61, 0x73, 0x6d, 0x01, 0x00, 0x00, 0x00];
    module.extend_from_slice(&[0x01, 0x04, 0x01, 0x60, 0x00, 0x00]); // types
    module.extend_from_slice(&[0x03, 0x02, 0x01, 0x00]); // functions
    let mut code = vec![0x01, body.len() as u8];
    code.extend_from_slice(body);
    module.extend_from_slice(&[0x0a, code.len() as u8]);
    module.extend_from_slice(&code);
    module
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
