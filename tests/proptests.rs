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
