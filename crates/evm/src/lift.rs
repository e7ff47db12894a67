//! Lifting raw bytecode back to label-form assembly.
//!
//! The obfuscation passes operate on [`AsmProgram`]s with symbolic jump
//! targets. Generated contracts carry their label form, but arbitrary
//! on-chain bytecode does not — this module reconstructs it: every
//! `JUMPDEST` becomes a label, and every push whose (zero-padded) value
//! equals a `JUMPDEST` offset becomes a `PushLabel`, so re-assembly after
//! transformation patches all control flow.
//!
//! The heuristic is the standard one real-world EVM rewriters use and has
//! the standard caveat: a push of a *data* constant that happens to equal
//! a jumpdest offset is misclassified as a target reference. On such
//! programs lifting remains sound for control flow but may relocate that
//! constant. [`lift_verified`] guards against this by checking
//! round-trip identity at the original layout.

use crate::asm::{AsmOp, AsmProgram, Label};
use crate::disasm::{disassemble, Instruction};
use crate::error::EvmError;
use crate::opcode::Opcode;
use std::collections::BTreeMap;

/// Lifts `code` into label form.
///
/// Pushes referencing `JUMPDEST` offsets become symbolic; everything else
/// is copied as-is. Unassigned opcode bytes are preserved via raw escapes.
pub fn lift(code: &[u8]) -> AsmProgram {
    let instrs = disassemble(code);
    let jumpdests: Vec<usize> = instrs
        .iter()
        .filter(|i| i.opcode == Some(Opcode::JUMPDEST))
        .map(|i| i.offset)
        .collect();

    let mut prog = AsmProgram::new();
    let labels: BTreeMap<usize, Label> = jumpdests
        .iter()
        .map(|&off| (off, prog.new_label()))
        .collect();

    for ins in &instrs {
        match ins.opcode {
            Some(Opcode::JUMPDEST) => {
                prog.place_label(labels[&ins.offset]);
            }
            Some(op) if op.is_push() => {
                if let Some(target) = push_target(ins, &labels) {
                    prog.push_label(target);
                } else {
                    // Preserve the exact push width (semantically relevant
                    // only through code size, but keeps lifting faithful).
                    let mut padded = ins.immediate().to_vec();
                    padded.resize(op.immediate_len(), 0);
                    prog.push_op(AsmOp::Push(padded));
                }
            }
            Some(op) => {
                prog.op(op);
            }
            None => {
                prog.raw(&[ins.byte]);
            }
        }
    }
    prog
}

fn push_target(ins: &Instruction, labels: &BTreeMap<usize, Label>) -> Option<Label> {
    let value = ins.push_value()?.to_usize()?;
    labels.get(&value).copied()
}

/// Lifts `code` and verifies the round trip: re-assembling the lifted
/// program must reproduce `code` byte-for-byte.
///
/// # Errors
///
/// [`EvmError::CodeTooLarge`] and friends from assembly, or
/// [`EvmError::TruncatedPush`] when the round trip diverges (the code
/// contains constants that collide with jumpdest offsets at a different
/// push width, or a truncated trailing push).
pub fn lift_verified(code: &[u8]) -> Result<AsmProgram, EvmError> {
    let prog = lift(code);
    let reassembled = prog.assemble()?;
    if reassembled != code {
        // Find the first divergence for the error offset.
        let offset = reassembled
            .iter()
            .zip(code)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| reassembled.len().min(code.len()));
        return Err(EvmError::TruncatedPush { offset });
    }
    Ok(prog)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut p = AsmProgram::new();
        let a = p.new_label();
        let b = p.new_label();
        p.op(Opcode::CALLVALUE);
        p.jumpi_to(a);
        p.push_value(0xdead);
        p.push_value(0);
        p.op(Opcode::SSTORE);
        p.jump_to(b);
        p.place_label(a);
        p.push_value(0).push_value(0).op(Opcode::REVERT);
        p.place_label(b);
        p.op(Opcode::STOP);
        p.assemble().unwrap()
    }

    #[test]
    fn lift_roundtrips_generated_code() {
        let code = sample();
        let lifted = lift_verified(&code).expect("verified lift");
        assert_eq!(lifted.assemble().unwrap(), code);
    }

    #[test]
    fn lifted_labels_are_symbolic() {
        let code = sample();
        let lifted = lift(&code);
        let label_pushes = lifted
            .ops()
            .iter()
            .filter(|o| matches!(o, AsmOp::PushLabel(_)))
            .count();
        assert_eq!(label_pushes, 2, "both jump targets become symbolic");
        let label_defs = lifted
            .ops()
            .iter()
            .filter(|o| matches!(o, AsmOp::LabelDef(_)))
            .count();
        assert_eq!(label_defs, 2);
    }

    #[test]
    fn lifted_code_survives_obfuscation_style_growth() {
        // Lift, insert a no-op prefix before everything, re-assemble:
        // all jump targets must still be valid (they moved!).
        let code = sample();
        let lifted = lift(&code);
        let mut ops = vec![AsmOp::Push(vec![]), AsmOp::Op(Opcode::POP)];
        ops.extend(lifted.ops().iter().cloned());
        let grown = AsmProgram::from_ops(ops).assemble().unwrap();
        assert_ne!(grown, code);
        let cfg = crate::cfg::build_cfg(&grown);
        assert_eq!(cfg.unresolved_jump_count(), 0, "targets re-resolved");
        // Execution equivalence on the happy path.
        use crate::interp::{execute, InterpConfig, TxContext};
        let ctx = TxContext::default();
        let a = execute(&code, &ctx, &Default::default(), &InterpConfig::default());
        let b = execute(&grown, &ctx, &Default::default(), &InterpConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn data_constant_collision_is_detected() {
        // PUSH1 1 (collides with the JUMPDEST at offset 1) — lifting turns
        // it into a PUSH2 label reference, changing the layout, which the
        // verified lift must reject.
        let code = [0x60, 0x01, 0x5b, 0x00]; // PUSH1 1; JUMPDEST; STOP
        match lift_verified(&code) {
            // Either outcome is acceptable: an error, or a faithful lift.
            Ok(p) => assert_eq!(p.assemble().unwrap(), code),
            Err(e) => assert!(matches!(e, EvmError::TruncatedPush { .. })),
        }
    }

    #[test]
    fn invalid_bytes_preserved_raw() {
        let code = [0x0c, 0x0d, 0x00]; // two unassigned bytes, STOP
        let lifted = lift_verified(&code).expect("raw bytes roundtrip");
        assert_eq!(lifted.assemble().unwrap(), code.to_vec());
    }

    #[test]
    fn lift_then_obfuscate_preserves_behaviour() {
        use crate::interp::{execute, InterpConfig, TxContext};
        // Full circle: bytecode -> lift -> (simulated pass: jump through
        // fresh label indirection) -> assemble -> same behaviour.
        let code = sample();
        let mut lifted = lift(&code);
        // Append dead code after the final STOP: harmless.
        lifted.push_op(AsmOp::Op(Opcode::CALLER));
        lifted.push_op(AsmOp::Op(Opcode::POP));
        let out = lifted.assemble().unwrap();
        let ctx = TxContext {
            callvalue: crate::word::U256::from_u64(5),
            ..TxContext::default()
        };
        let a = execute(&code, &ctx, &Default::default(), &InterpConfig::default());
        let b = execute(&out, &ctx, &Default::default(), &InterpConfig::default());
        assert_eq!(a, b);
    }
}
