//! Function-selector extraction from dispatcher bytecode.
//!
//! Solidity-style dispatchers compare the first four calldata bytes against
//! each function selector (`DUP1 PUSH4 <sel> EQ PUSH2 <dst> JUMPI …`).
//! Extracted selectors feed dataset statistics and give baseline detectors
//! an interface-shape feature.

use crate::disasm::{disassemble, Instruction};
use crate::opcode::Opcode;

/// A 4-byte function selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Selector(pub [u8; 4]);

impl Selector {
    /// The selector as a big-endian `u32`.
    pub fn as_u32(self) -> u32 {
        u32::from_be_bytes(self.0)
    }
}

impl std::fmt::Display for Selector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "0x{:02x}{:02x}{:02x}{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

/// Extracts the function selectors compared in `code`'s dispatcher.
///
/// The heuristic collects every `PUSH4 <imm>` that is followed within three
/// instructions by an `EQ` (or preceded by one within the window, covering
/// `PUSH4; DUP2; EQ` reorderings). This matches how Solidity, Vyper and
/// hand-written dispatchers compare selectors, while ignoring `PUSH4`s used
/// as masks or constants elsewhere.
///
/// # Examples
///
/// ```
/// use scamdetect_evm::{asm::AsmProgram, opcode::Opcode, selector::extract_selectors};
///
/// # fn main() -> Result<(), scamdetect_evm::EvmError> {
/// let mut p = AsmProgram::new();
/// let f = p.new_label();
/// p.op(Opcode::DUP1);
/// p.push_bytes(&[0xa9, 0x05, 0x9c, 0xbb]); // transfer(address,uint256)
/// p.op(Opcode::EQ);
/// p.jumpi_to(f);
/// p.place_label(f);
/// p.op(Opcode::STOP);
/// let sels = extract_selectors(&p.assemble()?);
/// assert_eq!(sels.len(), 1);
/// assert_eq!(sels[0].to_string(), "0xa9059cbb");
/// # Ok(())
/// # }
/// ```
pub fn extract_selectors(code: &[u8]) -> Vec<Selector> {
    let instrs = disassemble(code);
    let mut out: Vec<Selector> = Vec::new();
    for (i, ins) in instrs.iter().enumerate() {
        if ins.opcode != Some(Opcode::PUSH4) {
            continue;
        }
        let Ok(bytes) = <[u8; 4]>::try_from(ins.immediate()) else {
            continue;
        };
        if has_eq_nearby(&instrs, i) {
            let sel = Selector(bytes);
            if !out.contains(&sel) {
                out.push(sel);
            }
        }
    }
    out
}

fn has_eq_nearby(instrs: &[Instruction], i: usize) -> bool {
    let lo = i.saturating_sub(3);
    let hi = (i + 4).min(instrs.len());
    instrs[lo..hi].iter().any(|x| x.opcode == Some(Opcode::EQ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::AsmProgram;

    #[test]
    fn extracts_multiple_selectors_once_each() {
        let mut p = AsmProgram::new();
        let a = p.new_label();
        let b = p.new_label();
        for (sel, lbl) in [([1u8, 2, 3, 4], a), ([5, 6, 7, 8], b)] {
            p.op(Opcode::DUP1);
            p.push_bytes(&sel);
            p.op(Opcode::EQ);
            p.jumpi_to(lbl);
        }
        // Repeat the first comparison: must not duplicate.
        p.op(Opcode::DUP1);
        p.push_bytes(&[1, 2, 3, 4]);
        p.op(Opcode::EQ);
        p.jumpi_to(a);
        p.place_label(a);
        p.op(Opcode::STOP);
        p.place_label(b);
        p.op(Opcode::STOP);
        let sels = extract_selectors(&p.assemble().unwrap());
        assert_eq!(sels, vec![Selector([1, 2, 3, 4]), Selector([5, 6, 7, 8])]);
    }

    #[test]
    fn push4_without_eq_is_ignored() {
        let mut p = AsmProgram::new();
        p.push_bytes(&[0xff, 0xff, 0xff, 0xff]); // a mask, not a selector
        p.op(Opcode::AND);
        p.op(Opcode::STOP);
        assert!(extract_selectors(&p.assemble().unwrap()).is_empty());
    }

    #[test]
    fn selector_display_and_u32() {
        let s = Selector([0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(s.to_string(), "0xdeadbeef");
        assert_eq!(s.as_u32(), 0xdeadbeef);
    }

    #[test]
    fn empty_code_has_no_selectors() {
        assert!(extract_selectors(&[]).is_empty());
    }
}
