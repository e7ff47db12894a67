//! A blockchain host ABI for WASM contracts.
//!
//! WASM chains (NEAR, Polkadot contracts, EOS, the Internet Computer)
//! expose chain state to contracts through host imports rather than
//! opcodes. This module defines a representative `"env"` namespace —
//! modelled on the NEAR/ink! surface — that the dataset generators target
//! and that the unified IR recognises to classify call sites (a call to
//! `transfer` is a value flow; a call to `storage_write` is a state write;
//! etc.), mirroring how EVM `CALL`/`SSTORE` are classified.

use crate::module::Module;
use crate::types::{FuncType, ValType};

/// Semantic classes of host functions, aligned with the EVM opcode
/// categories they correspond to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostClass {
    /// Reads transaction environment (caller, value, input).
    Environment,
    /// Reads block environment (timestamp, height).
    Block,
    /// Moves value (like `CALL` with value / `SELFDESTRUCT` sweeps).
    ValueTransfer,
    /// Persistent state read (like `SLOAD`).
    StorageRead,
    /// Persistent state write (like `SSTORE`).
    StorageWrite,
    /// Event emission (like `LOG*`).
    Log,
    /// Cross-contract call (like `CALL`).
    CrossCall,
    /// Aborts execution (like `REVERT`).
    Abort,
    /// Cryptographic primitive (like `KECCAK256`).
    Crypto,
}

/// One host function: name, signature, semantic class.
#[derive(Debug, Clone, PartialEq)]
pub struct HostFunc {
    /// Import field name within `"env"`.
    pub name: &'static str,
    /// Signature.
    pub ty: FuncType,
    /// Semantic class.
    pub class: HostClass,
}

/// The standard environment as static data: each host function's name,
/// semantic class, parameters and results, in import order. Both
/// [`standard_env`] and [`classify`] read it, so a lookup allocates
/// nothing.
///
/// Pointer/length pairs are `i32`; amounts, balances and account handles
/// are `i64` (a simplification of NEAR's 128-bit balances that preserves
/// the call-shape).
const STANDARD_ENV: [(&str, HostClass, &[ValType], &[ValType]); 13] = {
    use HostClass::*;
    use ValType::{I32, I64};
    [
        ("caller", Environment, &[], &[I64]),
        ("attached_value", Environment, &[], &[I64]),
        ("input", Environment, &[I32, I32], &[I32]),
        ("block_timestamp", Block, &[], &[I64]),
        ("block_height", Block, &[], &[I64]),
        ("account_balance", Environment, &[I64], &[I64]),
        ("transfer", ValueTransfer, &[I64, I64], &[]),
        ("storage_read", StorageRead, &[I64], &[I64]),
        ("storage_write", StorageWrite, &[I64, I64], &[]),
        ("log", Log, &[I32, I32], &[]),
        ("call_contract", CrossCall, &[I64, I32, I32], &[I64]),
        ("panic", Abort, &[], &[]),
        ("sha256", Crypto, &[I32, I32], &[I64]),
    ]
};

/// The standard host environment table, in import order.
pub fn standard_env() -> Vec<HostFunc> {
    STANDARD_ENV
        .iter()
        .map(|&(name, class, params, results)| HostFunc {
            name,
            ty: FuncType::new(params.to_vec(), results.to_vec()),
            class,
        })
        .collect()
}

/// Looks up the semantic class of host import `name`, if it belongs to the
/// standard environment.
pub fn classify(name: &str) -> Option<HostClass> {
    STANDARD_ENV
        .iter()
        .find(|&&(known, ..)| known == name)
        .map(|&(_, class, ..)| class)
}

/// Imports the whole standard environment into `module`, returning the
/// function-space index of each host function by position in
/// [`standard_env`].
pub fn import_standard_env(module: &mut Module) -> Vec<u32> {
    standard_env()
        .into_iter()
        .map(|h| module.add_import("env", h.name, h.ty))
        .collect()
}

/// Indexes into the vector returned by [`import_standard_env`], named for
/// readability at generator call sites.
#[allow(missing_docs)]
pub mod idx {
    pub const CALLER: usize = 0;
    pub const ATTACHED_VALUE: usize = 1;
    pub const INPUT: usize = 2;
    pub const BLOCK_TIMESTAMP: usize = 3;
    pub const BLOCK_HEIGHT: usize = 4;
    pub const ACCOUNT_BALANCE: usize = 5;
    pub const TRANSFER: usize = 6;
    pub const STORAGE_READ: usize = 7;
    pub const STORAGE_WRITE: usize = 8;
    pub const LOG: usize = 9;
    pub const CALL_CONTRACT: usize = 10;
    pub const PANIC: usize = 11;
    pub const SHA256: usize = 12;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_names_unique() {
        let env = standard_env();
        let mut names: Vec<&str> = env.iter().map(|h| h.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), env.len());
    }

    #[test]
    fn classify_known_and_unknown() {
        assert_eq!(classify("transfer"), Some(HostClass::ValueTransfer));
        assert_eq!(classify("storage_write"), Some(HostClass::StorageWrite));
        assert_eq!(classify("frobnicate"), None);
    }

    #[test]
    fn import_standard_env_indices_match() {
        let mut m = Module::new();
        let ids = import_standard_env(&mut m);
        assert_eq!(ids.len(), standard_env().len());
        assert_eq!(m.imports.len(), ids.len());
        assert_eq!(m.imports[idx::TRANSFER].name, "transfer");
        assert_eq!(m.imports[idx::PANIC].name, "panic");
        // Function-space indices are contiguous from zero.
        assert_eq!(ids, (0..ids.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn validates_after_import() {
        let mut m = Module::new();
        import_standard_env(&mut m);
        assert!(crate::validate::validate(&m).is_ok());
    }
}
