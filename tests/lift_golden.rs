//! Golden digests of the EVM and WASM miss paths.
//!
//! Fixed, seeded input sets go through everything a never-seen contract
//! meets before a detector scores it. For EVM that is the raw CFG under
//! every unknown-jump policy, the unified lift, the opcode histogram,
//! the request fingerprint, the graph feature vector and the prepared
//! GNN graph; for WASM it is the same minus the raw EVM CFG. Each set
//! folds into one FNV-1a value. Floats fold as their bit patterns, so
//! the digests pin exact bits, not printed text.
//!
//! Any change to decoding, block partitioning, jump resolution, host
//! call classification, edge order or featurization moves a digest. A
//! change that means to move one must update [`GOLDEN_DIGEST`] or
//! [`WASM_GOLDEN_DIGEST`] and say why.

use scamdetect::featurize::{lift_bytes, opcode_histogram_bytes};
use scamdetect::request_fingerprint;
use scamdetect_dataset::{Corpus, CorpusConfig};
use scamdetect_evm::asm::AsmProgram;
use scamdetect_evm::cfg::{build_cfg_with, CfgOptions, EdgeKind, UnknownJumpPolicy};
use scamdetect_evm::opcode::Opcode;
use scamdetect_evm::proxy::{fnv1a_extend, make_erc1167, FNV1A_OFFSET_BASIS};
use scamdetect_gnn::PreparedGraph;
use scamdetect_ir::{features::graph_feature_vector, Platform, UnifiedCfg, UnifiedEdge};
use scamdetect_obfuscate::ObfuscationLevel;

/// The digest of [`inputs`] through [`fold_input`].
const GOLDEN_DIGEST: u64 = 0x8337_e5de_8b20_3890;

/// The digest of [`wasm_inputs`] through [`fold_wasm_input`]. It pins
/// today's host-import labelling too: every call into the import range,
/// including each import's own synthetic node, classifies by name.
const WASM_GOLDEN_DIGEST: u64 = 0x8a6c_4c05_4fa3_3674;

/// SplitMix64: a self-contained seeded stream, so the inputs do not
/// depend on any random-number crate.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Opcodes that make random code branch, jump and route values through
/// memory: PUSH1, JUMP, JUMPI, JUMPDEST, DUP1, SWAP1, ADD, XOR, MSTORE,
/// MLOAD, CALLVALUE, POP, STOP.
const JUMPY: [u8; 13] = [
    0x60, 0x56, 0x57, 0x5b, 0x80, 0x90, 0x01, 0x18, 0x52, 0x51, 0x34, 0x50, 0x00,
];

/// Memory slots for [`memory_routed`]: `0x1f` overlaps the words at
/// `0x00` and `0x20` by one and 31 bytes, so stores there must forget
/// both.
const SLOTS: [u64; 4] = [0x00, 0x1f, 0x20, 0x40];

/// A random program that routes jump targets through memory: known and
/// unknown stores of label values into overlapping slots, loads that
/// jump on them, and conditional branches, so paths that stored
/// different targets in one slot merge before a load.
fn memory_routed(rng: &mut SplitMix) -> Vec<u8> {
    let mut p = AsmProgram::new();
    let labels: Vec<_> = (0..6).map(|_| p.new_label()).collect();
    let mut placed = 0;
    for _ in 0..8 + rng.below(40) {
        let slot = SLOTS[rng.below(SLOTS.len() as u64) as usize];
        let label = labels[rng.below(labels.len() as u64) as usize];
        match rng.below(8) {
            0 | 1 => {
                p.push_label(label).push_value(slot).op(Opcode::MSTORE);
            }
            2 => {
                p.op(Opcode::CALLVALUE).push_value(slot).op(Opcode::MSTORE);
            }
            3 => {
                p.push_value(rng.below(256))
                    .push_value(slot)
                    .op(Opcode::MSTORE8);
            }
            4 => {
                p.push_value(slot).op(Opcode::MLOAD).op(Opcode::JUMP);
            }
            5 => {
                p.op(Opcode::CALLVALUE).push_value(slot).op(Opcode::MLOAD);
                p.op(Opcode::JUMPI);
            }
            6 => {
                p.op(Opcode::CALLVALUE).jumpi_to(label);
            }
            _ if placed < labels.len() => {
                // A merge point, often loading a jump target at once.
                p.place_label(labels[placed]);
                placed += 1;
                if rng.below(2) == 0 {
                    p.push_value(slot).op(Opcode::MLOAD).op(Opcode::JUMP);
                }
            }
            _ => {
                p.op(Opcode::STOP);
            }
        }
    }
    for &label in &labels[placed..] {
        p.place_label(label).op(Opcode::STOP);
    }
    p.assemble().expect("generated programs assemble")
}

/// The seeded input set: generated contracts, each of them obfuscated
/// at levels 1 to 5, ERC-1167 clones, random byte strings and
/// [`memory_routed`] programs. Half the random strings are uniform
/// bytes, so truncated trailing `PUSHn`s and unassigned opcodes occur;
/// the other half draw from [`JUMPY`], with `PUSH1` immediates small
/// enough to land on the string's own `JUMPDEST`s.
fn inputs() -> Vec<Vec<u8>> {
    let corpus = Corpus::generate(&CorpusConfig {
        size: 100,
        seed: 0x601D,
        ..CorpusConfig::default()
    });
    let mut out = Vec::new();
    for contract in corpus.contracts() {
        out.push(contract.bytes.clone());
        for level in 1..=5 {
            out.push(contract.obfuscated(ObfuscationLevel::new(level)).bytes);
        }
    }
    let mut rng = SplitMix(0x601D_5EED);
    for _ in 0..20 {
        let implementation: [u8; 20] = std::array::from_fn(|_| rng.next() as u8);
        out.push(make_erc1167(&implementation));
    }
    for i in 0..300 {
        let len = 1 + rng.below(400) as usize;
        let bytes = if i % 2 == 0 {
            (0..len).map(|_| rng.next() as u8).collect()
        } else {
            let mut bytes = Vec::with_capacity(len);
            while bytes.len() < len {
                let op = JUMPY[rng.below(JUMPY.len() as u64) as usize];
                bytes.push(op);
                if op == 0x60 {
                    bytes.push(rng.below(len as u64) as u8);
                }
            }
            bytes
        };
        out.push(bytes);
    }
    for _ in 0..150 {
        out.push(memory_routed(&mut rng));
    }
    out
}

/// Generated WASM modules from three corpus seeds, each of them also
/// obfuscated at levels 1 to 5.
fn wasm_inputs() -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for seed in [0x3A5E, 0xF00D, 0x5EED_0006] {
        let corpus = Corpus::generate(&CorpusConfig {
            size: 40,
            seed,
            platform: Platform::Wasm,
            ..CorpusConfig::default()
        });
        for contract in corpus.contracts() {
            out.push(contract.bytes.clone());
            for level in 1..=5 {
                out.push(contract.obfuscated(ObfuscationLevel::new(level)).bytes);
            }
        }
    }
    out
}

struct Digest(u64);

impl Digest {
    fn word(&mut self, v: u64) {
        self.0 = fnv1a_extend(self.0, &v.to_le_bytes());
    }

    fn index(&mut self, v: usize) {
        self.word(v as u64);
    }
}

fn edge_code(kind: EdgeKind) -> u64 {
    match kind {
        EdgeKind::FallThrough => 0,
        EdgeKind::Jump => 1,
        EdgeKind::Branch => 2,
        EdgeKind::Unresolved => 3,
    }
}

fn unified_edge_code(kind: UnifiedEdge) -> u64 {
    match kind {
        UnifiedEdge::Seq => 0,
        UnifiedEdge::Branch => 1,
        UnifiedEdge::Unresolved => 2,
    }
}

fn fold_input(d: &mut Digest, bytes: &[u8]) {
    d.index(bytes.len());
    for policy in [
        UnknownJumpPolicy::Ignore,
        UnknownJumpPolicy::ToAllJumpdests,
        UnknownJumpPolicy::VirtualNode,
    ] {
        let cfg = build_cfg_with(
            bytes,
            &CfgOptions {
                unknown_jump_policy: policy,
                ..CfgOptions::default()
            },
        );
        d.index(cfg.block_count());
        for (_, block) in cfg.graph().nodes() {
            d.index(block.start);
            d.word(u64::from(block.is_virtual));
            d.index(block.instructions.len());
            for ins in &block.instructions {
                d.index(ins.offset);
                d.word(u64::from(ins.byte));
                d.index(ins.size());
                if let Some(value) = ins.push_value() {
                    d.0 = fnv1a_extend(d.0, &value.to_be_bytes());
                }
            }
        }
        for (from, to, kind) in cfg.graph().edges() {
            d.index(from.index());
            d.index(to.index());
            d.word(edge_code(*kind));
        }
        d.index(cfg.entry().index());
        d.index(cfg.resolved_jump_count());
        d.index(cfg.unresolved_jump_count());
    }

    for bin in opcode_histogram_bytes(Platform::Evm, bytes) {
        d.word(bin.to_bits());
    }
    d.word(request_fingerprint(Platform::Evm, bytes));

    let unified = lift_bytes(Platform::Evm, bytes).expect("nonempty EVM bytes lift");
    fold_unified(d, &unified);
}

/// Folds a unified CFG: per-block class counts, edges, the graph
/// feature vector and the prepared GNN graph.
fn fold_unified(d: &mut Digest, unified: &UnifiedCfg) {
    d.index(unified.block_count());
    for (_, block) in unified.graph().nodes() {
        for &count in &block.class_counts {
            d.word(u64::from(count));
        }
        d.word(u64::from(block.instr_count));
    }
    for (from, to, kind) in unified.graph().edges() {
        d.index(from.index());
        d.index(to.index());
        d.word(unified_edge_code(*kind));
    }
    d.index(unified.entry().index());
    d.word(u64::from(unified.unresolved_fraction().to_bits()));
    for feature in graph_feature_vector(unified) {
        d.word(feature.to_bits());
    }

    let prepared = PreparedGraph::from_cfg(unified, 0);
    d.index(prepared.x.rows());
    for &x in prepared.x.as_slice() {
        d.word(u64::from(x.to_bits()));
    }
    for &(from, to, weight) in &prepared.edges {
        d.word(u64::from(from));
        d.word(u64::from(to));
        d.word(u64::from(weight.to_bits()));
    }
}

fn fold_wasm_input(d: &mut Digest, bytes: &[u8]) {
    d.index(bytes.len());
    for bin in opcode_histogram_bytes(Platform::Wasm, bytes) {
        d.word(bin.to_bits());
    }
    d.word(request_fingerprint(Platform::Wasm, bytes));
    let unified = lift_bytes(Platform::Wasm, bytes).expect("generated WASM modules lift");
    fold_unified(d, &unified);
}

#[test]
fn evm_miss_path_digest_is_unchanged() {
    let inputs = inputs();
    assert_eq!(inputs.len(), 100 * 6 + 20 + 300 + 150);
    let mut d = Digest(FNV1A_OFFSET_BASIS);
    for bytes in &inputs {
        fold_input(&mut d, bytes);
    }
    assert_eq!(
        d.0,
        GOLDEN_DIGEST,
        "lift digest moved: got {:#018x} over {} inputs",
        d.0,
        inputs.len()
    );
}

#[test]
fn wasm_miss_path_digest_is_unchanged() {
    let inputs = wasm_inputs();
    assert_eq!(inputs.len(), 3 * 40 * 6);
    let mut d = Digest(FNV1A_OFFSET_BASIS);
    for bytes in &inputs {
        fold_wasm_input(&mut d, bytes);
    }
    assert_eq!(
        d.0,
        WASM_GOLDEN_DIGEST,
        "WASM lift digest moved: got {:#018x} over {} inputs",
        d.0,
        inputs.len()
    );
}
