//! Platform frontends: raw contract bytes → [`UnifiedCfg`].

use crate::unified::{InstrClass, Platform, UnifiedBlock, UnifiedCfg, UnifiedEdge};
use scamdetect_evm::cfg::{build_cfg_with, CfgOptions, EdgeKind};
use scamdetect_evm::opcode::{OpCategory, Opcode};
use scamdetect_graph::DiGraph;
use scamdetect_wasm::cfg::{lift_module, WasmEdge};
use scamdetect_wasm::hostenv::{classify, HostClass};
use scamdetect_wasm::instr::{IBinOp, Instr};
use std::error::Error;
use std::fmt;

/// Errors from lifting contract bytes into the unified IR.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrontendError {
    /// The WASM module failed to decode or validate.
    Wasm(scamdetect_wasm::WasmError),
    /// The contract bytes are empty.
    EmptyContract,
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrontendError::Wasm(e) => write!(f, "wasm frontend: {e}"),
            FrontendError::EmptyContract => write!(f, "contract bytecode is empty"),
        }
    }
}

impl Error for FrontendError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FrontendError::Wasm(e) => Some(e),
            FrontendError::EmptyContract => None,
        }
    }
}

impl From<scamdetect_wasm::WasmError> for FrontendError {
    fn from(e: scamdetect_wasm::WasmError) -> Self {
        FrontendError::Wasm(e)
    }
}

/// A bytecode platform frontend.
///
/// Implementations lift raw on-chain bytes into the platform-agnostic
/// [`UnifiedCfg`]. The detection pipeline is generic over this trait —
/// adding a platform means adding one impl, nothing downstream changes.
pub trait Frontend {
    /// Which platform this frontend parses.
    fn platform(&self) -> Platform;

    /// Lifts `bytes` to the unified IR.
    ///
    /// # Errors
    ///
    /// [`FrontendError`] when the bytes are not a valid contract for this
    /// platform.
    fn lift(&self, bytes: &[u8]) -> Result<UnifiedCfg, FrontendError>;
}

/// EVM frontend: disassembly + CFG recovery + class mapping.
#[derive(Debug, Clone, Default)]
pub struct EvmFrontend {
    /// CFG recovery options (jump-resolution policy).
    pub options: CfgOptions,
}

impl EvmFrontend {
    /// Creates the frontend with default CFG options.
    pub fn new() -> Self {
        EvmFrontend::default()
    }
}

/// Maps an EVM opcode to its cross-platform class.
pub fn classify_evm_opcode(op: Opcode) -> InstrClass {
    match op {
        // Special cases first: semantics over syntax.
        Opcode::SELFDESTRUCT => InstrClass::ValueTransfer,
        Opcode::SLOAD | Opcode::TLOAD => InstrClass::StorageRead,
        Opcode::SSTORE | Opcode::TSTORE => InstrClass::StorageWrite,
        _ => match op.category() {
            OpCategory::Arithmetic => InstrClass::Arithmetic,
            OpCategory::Comparison => InstrClass::Comparison,
            OpCategory::Bitwise => InstrClass::Bitwise,
            OpCategory::Crypto => InstrClass::Crypto,
            OpCategory::Environment => InstrClass::Environment,
            OpCategory::Block => InstrClass::BlockEnv,
            OpCategory::Stack => InstrClass::StackOp,
            OpCategory::Push => InstrClass::PushConst,
            OpCategory::Memory => InstrClass::Memory,
            OpCategory::Storage => InstrClass::StorageRead, // unreachable: handled above
            OpCategory::Flow => InstrClass::Flow,
            OpCategory::Log => InstrClass::Log,
            OpCategory::Call => InstrClass::Call,
            OpCategory::Create => InstrClass::Create,
            OpCategory::Terminate => InstrClass::Terminate,
        },
    }
}

impl Frontend for EvmFrontend {
    fn platform(&self) -> Platform {
        Platform::Evm
    }

    fn lift(&self, bytes: &[u8]) -> Result<UnifiedCfg, FrontendError> {
        if bytes.is_empty() {
            return Err(FrontendError::EmptyContract);
        }
        let cfg = build_cfg_with(bytes, &self.options);
        let out = cfg.graph().map(
            |_, block| {
                let mut ub = UnifiedBlock::new();
                for ins in &block.instructions {
                    match ins.opcode {
                        Some(op) => ub.record(classify_evm_opcode(op)),
                        None => ub.record(InstrClass::Terminate), // INVALID
                    }
                }
                ub
            },
            |kind| match kind {
                EdgeKind::FallThrough | EdgeKind::Jump => UnifiedEdge::Seq,
                EdgeKind::Branch => UnifiedEdge::Branch,
                EdgeKind::Unresolved => UnifiedEdge::Unresolved,
            },
        );
        let total_jumps = cfg.resolved_jump_count() + cfg.unresolved_jump_count();
        let unresolved_fraction = if total_jumps > 0 {
            cfg.unresolved_jump_count() as f32 / total_jumps as f32
        } else {
            0.0
        };
        Ok(UnifiedCfg::new(
            out,
            cfg.entry(),
            Platform::Evm,
            unresolved_fraction,
        ))
    }
}

/// WASM frontend: decode + validate + module-level CFG lifting + class
/// mapping (host imports classified by ABI name).
#[derive(Debug, Clone, Default)]
pub struct WasmFrontend;

impl WasmFrontend {
    /// Creates the frontend.
    pub fn new() -> Self {
        WasmFrontend
    }
}

/// Maps a WASM instruction to its class. `import_names` resolves direct
/// call targets into host classes (indices below the import count).
pub fn classify_wasm_instr(ins: &Instr, import_names: &[String]) -> InstrClass {
    match ins {
        Instr::Unreachable => InstrClass::Terminate,
        Instr::Nop => InstrClass::Other,
        Instr::Block { .. } | Instr::Loop { .. } | Instr::If { .. } => InstrClass::Flow,
        Instr::Br(_) | Instr::BrIf(_) | Instr::BrTable { .. } | Instr::Return => InstrClass::Flow,
        Instr::Call(i) => match import_names.get(*i as usize).map(String::as_str) {
            Some(name) => match classify(name) {
                Some(HostClass::Environment) => InstrClass::Environment,
                Some(HostClass::Block) => InstrClass::BlockEnv,
                Some(HostClass::ValueTransfer) => InstrClass::ValueTransfer,
                Some(HostClass::StorageRead) => InstrClass::StorageRead,
                Some(HostClass::StorageWrite) => InstrClass::StorageWrite,
                Some(HostClass::Log) => InstrClass::Log,
                Some(HostClass::CrossCall) => InstrClass::Call,
                Some(HostClass::Abort) => InstrClass::Terminate,
                Some(HostClass::Crypto) => InstrClass::Crypto,
                None => InstrClass::Call,
            },
            None => InstrClass::Call, // local function call
        },
        Instr::Drop | Instr::Select => InstrClass::StackOp,
        Instr::LocalGet(_) | Instr::LocalSet(_) | Instr::LocalTee(_) => InstrClass::StackOp,
        Instr::GlobalGet(_) => InstrClass::StorageRead,
        Instr::GlobalSet(_) => InstrClass::StorageWrite,
        Instr::Load { .. } | Instr::Store { .. } | Instr::MemorySize | Instr::MemoryGrow => {
            InstrClass::Memory
        }
        Instr::I32Const(_) | Instr::I64Const(_) => InstrClass::PushConst,
        Instr::Eqz(_) | Instr::Rel { .. } => InstrClass::Comparison,
        Instr::Unary { .. } => InstrClass::Bitwise,
        Instr::Binary { op, .. } => match op {
            IBinOp::Add
            | IBinOp::Sub
            | IBinOp::Mul
            | IBinOp::DivS
            | IBinOp::DivU
            | IBinOp::RemS
            | IBinOp::RemU => InstrClass::Arithmetic,
            _ => InstrClass::Bitwise,
        },
        Instr::I32WrapI64 | Instr::I64ExtendI32S | Instr::I64ExtendI32U => InstrClass::Arithmetic,
    }
}

impl Frontend for WasmFrontend {
    fn platform(&self) -> Platform {
        Platform::Wasm
    }

    fn lift(&self, bytes: &[u8]) -> Result<UnifiedCfg, FrontendError> {
        if bytes.is_empty() {
            return Err(FrontendError::EmptyContract);
        }
        let module = scamdetect_wasm::decode::decode_module(bytes)?;
        scamdetect_wasm::validate::validate(&module)?;
        let import_names: Vec<String> = module.imports.iter().map(|i| i.name.clone()).collect();
        let cfg = lift_module(&module);
        let mut out: DiGraph<UnifiedBlock, UnifiedEdge> =
            DiGraph::with_capacity(cfg.graph().node_count());
        for (_, b) in cfg.graph().nodes() {
            let mut ub = UnifiedBlock::new();
            for ins in &b.instrs {
                ub.record(classify_wasm_instr(ins, &import_names));
            }
            out.add_node(ub);
        }
        for (u, v, k) in cfg.graph().edges() {
            let kind = match k {
                WasmEdge::Seq | WasmEdge::Else => UnifiedEdge::Seq,
                WasmEdge::Branch | WasmEdge::Table | WasmEdge::Back => UnifiedEdge::Branch,
            };
            out.add_edge(u, v, kind);
        }
        Ok(UnifiedCfg::new(out, cfg.entry(), Platform::Wasm, 0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scamdetect_evm::asm::AsmProgram;
    use scamdetect_wasm::encode::encode_module;
    use scamdetect_wasm::hostenv::{idx, import_standard_env};
    use scamdetect_wasm::module::Module;
    use scamdetect_wasm::types::FuncType;

    #[test]
    fn evm_lift_produces_classes() {
        let mut p = AsmProgram::new();
        let l = p.new_label();
        p.op(Opcode::CALLVALUE);
        p.jumpi_to(l);
        p.op(Opcode::CALLER);
        p.op(Opcode::SELFDESTRUCT);
        p.place_label(l);
        p.push_value(1).push_value(0).op(Opcode::SSTORE);
        p.op(Opcode::STOP);
        let cfg = EvmFrontend::new().lift(&p.assemble().unwrap()).unwrap();
        assert_eq!(cfg.platform(), Platform::Evm);
        let h = cfg.class_histogram();
        assert!(h[InstrClass::ValueTransfer.index()] > 0.0); // SELFDESTRUCT
        assert!(h[InstrClass::StorageWrite.index()] > 0.0); // SSTORE
        assert!(h[InstrClass::Environment.index()] > 0.0); // CALLER/CALLVALUE
        assert_eq!(cfg.unresolved_fraction(), 0.0);
    }

    #[test]
    fn wasm_lift_classifies_host_calls() {
        let mut m = Module::new();
        let env = import_standard_env(&mut m);
        let f = m.add_function(
            FuncType::default(),
            vec![],
            vec![
                Instr::I64Const(1),
                Instr::I64Const(100),
                Instr::Call(env[idx::TRANSFER]),
                Instr::I64Const(0),
                Instr::I64Const(7),
                Instr::Call(env[idx::STORAGE_WRITE]),
            ],
        );
        m.export_func("main", f);
        let bytes = encode_module(&m);
        let cfg = WasmFrontend::new().lift(&bytes).unwrap();
        assert_eq!(cfg.platform(), Platform::Wasm);
        let h = cfg.class_histogram();
        assert!(h[InstrClass::ValueTransfer.index()] > 0.0);
        assert!(h[InstrClass::StorageWrite.index()] > 0.0);
    }

    #[test]
    fn empty_bytes_rejected_by_both() {
        assert!(matches!(
            EvmFrontend::new().lift(&[]),
            Err(FrontendError::EmptyContract)
        ));
        assert!(WasmFrontend::new().lift(&[]).is_err());
    }

    #[test]
    fn wasm_garbage_rejected() {
        assert!(matches!(
            WasmFrontend::new().lift(&[1, 2, 3, 4]),
            Err(FrontendError::Wasm(_))
        ));
    }

    #[test]
    fn classify_evm_samples() {
        assert_eq!(classify_evm_opcode(Opcode::ADD), InstrClass::Arithmetic);
        assert_eq!(classify_evm_opcode(Opcode::TIMESTAMP), InstrClass::BlockEnv);
        assert_eq!(classify_evm_opcode(Opcode::DELEGATECALL), InstrClass::Call);
        assert_eq!(
            classify_evm_opcode(Opcode::SELFDESTRUCT),
            InstrClass::ValueTransfer
        );
        assert_eq!(
            classify_evm_opcode(Opcode::TSTORE),
            InstrClass::StorageWrite
        );
    }

    #[test]
    fn classify_wasm_samples() {
        let imports = vec!["transfer".to_string(), "sha256".to_string()];
        assert_eq!(
            classify_wasm_instr(&Instr::Call(0), &imports),
            InstrClass::ValueTransfer
        );
        assert_eq!(
            classify_wasm_instr(&Instr::Call(1), &imports),
            InstrClass::Crypto
        );
        assert_eq!(
            classify_wasm_instr(&Instr::Call(5), &imports),
            InstrClass::Call
        );
        assert_eq!(
            classify_wasm_instr(&Instr::GlobalSet(0), &imports),
            InstrClass::StorageWrite
        );
        assert_eq!(
            classify_wasm_instr(
                &Instr::Binary {
                    width: scamdetect_wasm::Width::W32,
                    op: IBinOp::Xor
                },
                &imports
            ),
            InstrClass::Bitwise
        );
    }
}
