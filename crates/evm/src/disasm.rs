//! Linear-sweep disassembler for EVM bytecode.

use crate::opcode::Opcode;
use crate::word::U256;
use std::fmt;

/// One decoded instruction.
///
/// Unassigned bytes decode with `opcode == None` and behave like `INVALID`
/// (they terminate execution if reached). A push whose immediate runs past
/// the end of the code keeps the bytes that exist; the EVM semantics of
/// zero-padding are applied by [`Instruction::push_value`].
///
/// The immediate is stored inline, so an instruction is `Copy` and
/// decoding allocates nothing beyond the output vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instruction {
    /// Byte offset of the opcode within the bytecode.
    pub offset: usize,
    /// Decoded opcode, `None` for unassigned bytes.
    pub opcode: Option<Opcode>,
    /// The raw opcode byte (meaningful when `opcode` is `None`).
    pub byte: u8,
    // Immediate bytes present in the code, zero past `imm_len`.
    imm: [u8; 32],
    imm_len: u8,
}

impl Instruction {
    /// Immediate bytes actually present in the code (may be shorter than
    /// declared for a truncated trailing push).
    pub fn immediate(&self) -> &[u8] {
        &self.imm[..usize::from(self.imm_len)]
    }

    /// Encoded size in bytes: opcode plus the immediate bytes present.
    pub fn size(&self) -> usize {
        1 + usize::from(self.imm_len)
    }

    /// Offset of the next instruction.
    pub fn next_offset(&self) -> usize {
        self.offset + self.size()
    }

    /// For a push instruction, its immediate as a word (zero-padded on the
    /// right if truncated, per EVM semantics). `None` for non-push opcodes.
    pub fn push_value(&self) -> Option<U256> {
        let op = self.opcode?;
        if !op.is_push() {
            return None;
        }
        // The inline buffer is zero past the bytes present, which is
        // exactly the EVM's right padding.
        Some(U256::from_be_bytes(&self.imm[..op.immediate_len()]))
    }

    /// `true` if this instruction halts or unconditionally transfers
    /// control (ends a basic block with no fall-through).
    pub fn is_block_terminator(&self) -> bool {
        match self.opcode {
            Some(op) => op.is_block_terminator(),
            None => true, // unassigned byte = INVALID
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.opcode {
            Some(op) if self.imm_len > 0 => {
                write!(f, "{:#06x}: {} 0x", self.offset, op.mnemonic())?;
                for b in self.immediate() {
                    write!(f, "{b:02x}")?;
                }
                Ok(())
            }
            Some(op) => write!(f, "{:#06x}: {}", self.offset, op.mnemonic()),
            None => write!(f, "{:#06x}: UNKNOWN(0x{:02x})", self.offset, self.byte),
        }
    }
}

/// Declared immediate width of opcode byte `byte`: `n` for `PUSHn`, 0 for
/// every other byte, assigned or not. The byte range is the opcode
/// table's (a test checks them against each other); matching on it keeps
/// the byte walks free of the full opcode decode.
fn declared_immediate_len(byte: u8) -> usize {
    match byte {
        0x60..=0x7f => usize::from(byte - 0x5f),
        _ => 0,
    }
}

/// The linear sweep: yields `(offset, opcode byte, immediate bytes
/// present)` for every instruction of `code`, without building
/// [`Instruction`]s.
///
/// This is the one definition of instruction boundaries. [`disassemble`]
/// builds its instructions from it, and [`opcode_histogram`] and
/// [`crate::proxy::skeleton_hash`] walk the bytes with it directly.
pub(crate) fn sweep(code: &[u8]) -> impl Iterator<Item = (usize, u8, usize)> + '_ {
    let mut pc = 0usize;
    std::iter::from_fn(move || {
        let &byte = code.get(pc)?;
        let offset = pc;
        let imm_len = declared_immediate_len(byte).min(code.len() - pc - 1);
        pc += 1 + imm_len;
        Some((offset, byte, imm_len))
    })
}

/// Disassembles `code` with a linear sweep from offset 0.
///
/// Every byte is decoded exactly once; push immediates are consumed by
/// their opcode. This matches how the EVM itself delimits instructions
/// (`JUMPDEST` analysis), so data embedded after code shows up as garbage
/// instructions — exactly what a static analyzer sees.
///
/// # Examples
///
/// ```
/// use scamdetect_evm::{disasm::disassemble, opcode::Opcode};
///
/// // PUSH1 0x2a PUSH1 0x00 MSTORE
/// let code = [0x60, 0x2a, 0x60, 0x00, 0x52];
/// let instrs = disassemble(&code);
/// assert_eq!(instrs.len(), 3);
/// assert_eq!(instrs[0].opcode, Some(Opcode::PUSH1));
/// assert_eq!(instrs[0].push_value().unwrap().to_usize(), Some(0x2a));
/// assert_eq!(instrs[2].opcode, Some(Opcode::MSTORE));
/// ```
pub fn disassemble(code: &[u8]) -> Vec<Instruction> {
    sweep(code)
        .map(|(offset, byte, imm_len)| {
            let mut imm = [0u8; 32];
            imm[..imm_len].copy_from_slice(&code[offset + 1..offset + 1 + imm_len]);
            Instruction {
                offset,
                opcode: Opcode::from_byte(byte),
                byte,
                imm,
                imm_len: imm_len as u8,
            }
        })
        .collect()
}

/// Re-encodes instructions back to bytecode (inverse of [`disassemble`]).
pub fn assemble_instructions(instrs: &[Instruction]) -> Vec<u8> {
    let mut out = Vec::new();
    for ins in instrs {
        out.push(ins.byte);
        out.extend_from_slice(ins.immediate());
    }
    out
}

/// Offsets of every `JUMPDEST` reachable by the linear sweep — the set of
/// valid jump targets per the EVM's jumpdest analysis.
pub fn jumpdest_offsets(instrs: &[Instruction]) -> Vec<usize> {
    instrs
        .iter()
        .filter(|i| i.opcode == Some(Opcode::JUMPDEST))
        .map(|i| i.offset)
        .collect()
}

/// A normalized histogram over the opcode bytes of `code` (256 bins,
/// frequencies summing to 1 for nonempty input). The classic
/// PhishingHook-style feature vector. Push immediates are skipped, not
/// counted.
pub fn opcode_histogram(code: &[u8]) -> Vec<f64> {
    let mut counts = [0usize; 256];
    let mut total = 0usize;
    for (_, byte, _) in sweep(code) {
        counts[usize::from(byte)] += 1;
        total += 1;
    }
    if total == 0 {
        return vec![0.0; 256];
    }
    let total = total as f64;
    counts.iter().map(|&c| c as f64 / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_program_decodes() {
        // PUSH2 0x0102 DUP1 JUMP
        let code = [0x61, 0x01, 0x02, 0x80, 0x56];
        let instrs = disassemble(&code);
        assert_eq!(instrs.len(), 3);
        assert_eq!(instrs[0].opcode, Some(Opcode::PUSH2));
        assert_eq!(instrs[0].push_value().unwrap().to_usize(), Some(0x0102));
        assert_eq!(instrs[1].opcode, Some(Opcode::DUP1));
        assert_eq!(instrs[2].opcode, Some(Opcode::JUMP));
        assert_eq!(instrs[2].offset, 4);
    }

    #[test]
    fn roundtrip_reencode() {
        let code = vec![0x60, 0xff, 0x5b, 0x34, 0x57, 0x00, 0xfe, 0x7f];
        let instrs = disassemble(&code);
        assert_eq!(assemble_instructions(&instrs), code);
    }

    #[test]
    fn truncated_push_keeps_partial_immediate() {
        // PUSH4 with only 2 immediate bytes present.
        let code = [0x63, 0xaa, 0xbb];
        let instrs = disassemble(&code);
        assert_eq!(instrs.len(), 1);
        assert_eq!(instrs[0].immediate(), &[0xaa, 0xbb]);
        // EVM pads with zeros on the right: 0xaabb0000.
        assert_eq!(instrs[0].push_value().unwrap().to_usize(), Some(0xaabb0000));
    }

    #[test]
    fn unknown_bytes_are_invalid_terminators() {
        let code = [0x0c];
        let instrs = disassemble(&code);
        assert_eq!(instrs[0].opcode, None);
        assert!(instrs[0].is_block_terminator());
        assert!(instrs[0].to_string().contains("UNKNOWN"));
    }

    #[test]
    fn jumpdests_found() {
        let code = [0x5b, 0x60, 0x5b, 0x5b]; // JUMPDEST, PUSH1 0x5b, JUMPDEST
        let instrs = disassemble(&code);
        // The 0x5b at offset 2 is a push immediate, not a JUMPDEST.
        assert_eq!(jumpdest_offsets(&instrs), vec![0, 3]);
    }

    #[test]
    fn histogram_normalizes() {
        let code = [0x01, 0x01, 0x02, 0x00];
        let h = opcode_histogram(&code);
        assert!((h[0x01] - 0.5).abs() < 1e-12);
        assert!((h[0x02] - 0.25).abs() < 1e-12);
        assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_code() {
        assert!(disassemble(&[]).is_empty());
        let h = opcode_histogram(&[]);
        assert_eq!(h.len(), 256);
        assert_eq!(h.iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn sweep_widths_match_the_opcode_table() {
        for byte in 0..=255u8 {
            let declared = Opcode::from_byte(byte).map_or(0, Opcode::immediate_len);
            assert_eq!(declared_immediate_len(byte), declared, "byte {byte:#04x}");
        }
    }

    #[test]
    fn display_formats() {
        let instrs = disassemble(&[0x60, 0x2a]);
        assert_eq!(instrs[0].to_string(), "0x0000: PUSH1 0x2a");
        let instrs = disassemble(&[0x01]);
        assert_eq!(instrs[0].to_string(), "0x0000: ADD");
    }
}
