//! Abstract memory tracking for static jump resolution.
//!
//! Memory-routed jump indirection (`MSTORE` a target early, `MLOAD; JUMP`
//! later) defeats stack-only constant propagation. This module adds a
//! word-granular abstract memory: writes at statically known offsets with
//! statically known values are remembered; anything imprecise havocs
//! soundly. Combined with the abstract stack, the CFG builder statically
//! resolves exactly the indirection pattern the obfuscator ships —
//! the analyzer side of the arms race the paper's §IV describes.

use crate::disasm::Instruction;
use crate::opcode::Opcode;
use crate::stack::{AbstractStack, AbstractValue};
use crate::word::U256;

/// Maximum tracked memory words; beyond this the map havocs (analysis
/// stays sound, just less precise).
pub const MAX_TRACKED_WORDS: usize = 128;

/// Abstract machine state: stack plus word-tracked memory.
#[derive(Debug, PartialEq, Eq, Default)]
pub struct AbstractState {
    /// The operand stack.
    pub stack: AbstractStack,
    /// Known 32-byte words at exact byte offsets, sorted by offset with
    /// no offset twice. At most [`MAX_TRACKED_WORDS`] entries, so a
    /// sorted vector beats a tree map and refills without allocating.
    memory: Vec<(u64, U256)>,
}

impl Clone for AbstractState {
    fn clone(&self) -> Self {
        AbstractState {
            stack: self.stack.clone(),
            memory: self.memory.clone(),
        }
    }

    /// Reuses `self`'s buffers, so refilling a scratch state allocates
    /// nothing once it has grown.
    fn clone_from(&mut self, source: &Self) {
        self.stack.clone_from(&source.stack);
        self.memory.clone_from(&source.memory);
    }
}

impl AbstractState {
    /// Creates an empty state.
    pub fn new() -> Self {
        AbstractState::default()
    }

    /// Number of tracked memory words (diagnostics).
    pub fn tracked_words(&self) -> usize {
        self.memory.len()
    }

    /// Forgets every memory fact.
    pub fn havoc_memory(&mut self) {
        self.memory.clear();
    }

    /// The known word at byte offset `offset`, if any.
    fn word_at(&self, offset: u64) -> Option<U256> {
        self.memory
            .binary_search_by_key(&offset, |&(k, _)| k)
            .ok()
            .map(|i| self.memory[i].1)
    }

    /// Forgets words overlapping `[offset, offset + len)`.
    fn havoc_range(&mut self, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        let lo = offset.saturating_sub(31);
        let hi = offset.saturating_add(len);
        let from = self.memory.partition_point(|&(k, _)| k < lo);
        let to = self.memory.partition_point(|&(k, _)| k < hi);
        self.memory.drain(from..to);
    }

    /// Joins with another state (used at CFG merge points); returns `true`
    /// if `self` changed. Memory join is the intersection of agreeing
    /// facts, so precision only decreases and the fixpoint terminates.
    pub fn join_from(&mut self, other: &AbstractState) -> bool {
        let stack_changed = self.stack.join_from(&other.stack);
        let before = self.memory.len();
        self.memory.retain(|&(k, v)| other.word_at(k) == Some(v));
        stack_changed || self.memory.len() != before
    }

    /// Executes one instruction over stack and memory.
    pub fn execute(&mut self, ins: &Instruction) {
        let Some(op) = ins.opcode else {
            return;
        };
        match op {
            Opcode::MSTORE => {
                let off = self.stack.pop();
                let val = self.stack.pop();
                match off.as_known().and_then(|w| w.to_usize()) {
                    Some(off) => {
                        let off = off as u64;
                        self.havoc_range(off, 32);
                        if let AbstractValue::Known(word) = val {
                            if self.memory.len() < MAX_TRACKED_WORDS {
                                // The havoc above cleared `off` itself.
                                let at = self.memory.partition_point(|&(k, _)| k < off);
                                self.memory.insert(at, (off, word));
                            }
                        }
                    }
                    None => self.havoc_memory(),
                }
            }
            Opcode::MLOAD => {
                let off = self.stack.pop();
                let loaded = off
                    .as_known()
                    .and_then(|w| w.to_usize())
                    .and_then(|o| self.word_at(o as u64))
                    .map_or(AbstractValue::Unknown, AbstractValue::Known);
                self.stack.push(loaded);
            }
            Opcode::MSTORE8 => {
                let off = self.stack.pop();
                let _val = self.stack.pop();
                match off.as_known().and_then(|w| w.to_usize()) {
                    Some(off) => self.havoc_range(off as u64, 1),
                    None => self.havoc_memory(),
                }
            }
            // Bulk memory writers: havoc the destination range when known,
            // everything otherwise.
            Opcode::CALLDATACOPY | Opcode::CODECOPY | Opcode::RETURNDATACOPY => {
                let dst = self.stack.pop();
                let _src = self.stack.pop();
                let len = self.stack.pop();
                self.havoc_write(dst, len);
            }
            Opcode::EXTCODECOPY => {
                let _addr = self.stack.pop();
                let dst = self.stack.pop();
                let _src = self.stack.pop();
                let len = self.stack.pop();
                self.havoc_write(dst, len);
            }
            Opcode::MCOPY => {
                let dst = self.stack.pop();
                let _src = self.stack.pop();
                let len = self.stack.pop();
                self.havoc_write(dst, len);
            }
            // Calls write their return area.
            Opcode::CALL | Opcode::CALLCODE => {
                // gas, to, value, argOff, argLen, retOff, retLen
                for _ in 0..5 {
                    self.stack.pop();
                }
                let ret_off = self.stack.pop();
                let ret_len = self.stack.pop();
                self.havoc_write(ret_off, ret_len);
                self.stack.push(AbstractValue::Unknown);
            }
            Opcode::DELEGATECALL | Opcode::STATICCALL => {
                for _ in 0..4 {
                    self.stack.pop();
                }
                let ret_off = self.stack.pop();
                let ret_len = self.stack.pop();
                self.havoc_write(ret_off, ret_len);
                self.stack.push(AbstractValue::Unknown);
            }
            // Everything else: pure stack effect.
            _ => self.stack.execute(ins),
        }
    }

    fn havoc_write(&mut self, offset: AbstractValue, len: AbstractValue) {
        match (
            offset.as_known().and_then(|w| w.to_usize()),
            len.as_known().and_then(|w| w.to_usize()),
        ) {
            (Some(o), Some(l)) => self.havoc_range(o as u64, l as u64),
            _ => self.havoc_memory(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disasm::disassemble;

    fn run(code: &[u8]) -> AbstractState {
        let mut s = AbstractState::new();
        for ins in disassemble(code) {
            s.execute(&ins);
        }
        s
    }

    #[test]
    fn mstore_then_mload_recovers_constant() {
        // PUSH2 0x1234 PUSH2 0x8000 MSTORE; PUSH2 0x8000 MLOAD
        let s = run(&[
            0x61, 0x12, 0x34, 0x61, 0x80, 0x00, 0x52, 0x61, 0x80, 0x00, 0x51,
        ]);
        assert_eq!(
            s.stack.peek(0),
            AbstractValue::Known(U256::from_u64(0x1234))
        );
    }

    #[test]
    fn unknown_offset_store_havocs_everything() {
        // Store a constant, then MSTORE at CALLVALUE (unknown) offset.
        let s = run(&[
            0x61, 0x12, 0x34, 0x61, 0x80, 0x00, 0x52, // mem[0x8000] = 0x1234
            0x60, 0x01, 0x34, 0x52, // mem[callvalue] = 1: havoc
            0x61, 0x80, 0x00, 0x51, // MLOAD 0x8000
        ]);
        assert_eq!(s.stack.peek(0), AbstractValue::Unknown);
    }

    #[test]
    fn overlapping_store_invalidates() {
        // mem[0x8000] = k; then mem[0x8010] = unknown-value write via
        // CALLVALUE (known offset, unknown value) → 0x8000 entry must die.
        let s = run(&[
            0x61, 0xaa, 0xbb, 0x61, 0x80, 0x00, 0x52, // known store
            0x34, 0x61, 0x80, 0x10, 0x52, // overlapping store (val unknown)
            0x61, 0x80, 0x00, 0x51, // reload original slot
        ]);
        assert_eq!(s.stack.peek(0), AbstractValue::Unknown);
    }

    #[test]
    fn call_havocs_only_return_area() {
        // mem[0x8000] = T; CALL with ret area (0, 0); MLOAD 0x8000 -> T.
        let s = run(&[
            0x61, 0xfa, 0xce, 0x61, 0x80, 0x00, 0x52, // store
            0x5f, 0x5f, 0x5f, 0x5f, 0x5f, 0x60, 0xaa, 0x61, 0xff, 0xff,
            0xf1, // CALL(gas=0xffff, to=0xaa, v=0, 0,0,0,0)
            0x50, // POP success
            0x61, 0x80, 0x00, 0x51,
        ]);
        assert_eq!(
            s.stack.peek(0),
            AbstractValue::Known(U256::from_u64(0xface))
        );
    }

    #[test]
    fn join_intersects_memory_facts() {
        let mut a = AbstractState::new();
        let mut b = AbstractState::new();
        for ins in disassemble(&[0x61, 0x11, 0x11, 0x61, 0x80, 0x00, 0x52]) {
            a.execute(&ins);
        }
        for ins in disassemble(&[0x61, 0x22, 0x22, 0x61, 0x80, 0x00, 0x52]) {
            b.execute(&ins);
        }
        assert!(a.join_from(&b)); // disagreeing fact dropped
        assert_eq!(a.tracked_words(), 0);
        // Idempotent afterwards.
        assert!(!a.join_from(&b));
    }

    #[test]
    fn join_keeps_agreeing_facts() {
        let code = [0x61, 0x33, 0x33, 0x61, 0x80, 0x00, 0x52];
        let mut a = AbstractState::new();
        let mut b = AbstractState::new();
        for ins in disassemble(&code) {
            a.execute(&ins);
            // b executes the same instruction stream.
        }
        for ins in disassemble(&code) {
            b.execute(&ins);
        }
        assert!(!a.join_from(&b));
        assert_eq!(a.tracked_words(), 1);
    }
}
