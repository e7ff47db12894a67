//! Abstract stack simulation for static jump resolution.
//!
//! The CFG builder tracks, per basic block, which stack slots hold *known
//! constants*. Arithmetic and bitwise operations over known operands are
//! partially evaluated, so jump targets computed as `PUSH a; PUSH b; ADD;
//! JUMP` (a constant-splitting obfuscation) still resolve statically when
//! the computation is locally complete.

use crate::disasm::Instruction;
use crate::opcode::Opcode;
use crate::word::U256;

/// An abstract stack slot: a statically known word, or unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbstractValue {
    /// The slot holds exactly this word on every execution reaching here.
    Known(U256),
    /// The slot's value is not statically determined.
    Unknown,
}

impl AbstractValue {
    /// Applies a binary fold if both operands are known.
    fn fold2(a: AbstractValue, b: AbstractValue, f: impl Fn(&U256, &U256) -> U256) -> Self {
        match (a, b) {
            (AbstractValue::Known(x), AbstractValue::Known(y)) => AbstractValue::Known(f(&x, &y)),
            _ => AbstractValue::Unknown,
        }
    }

    /// Returns the constant if known.
    pub fn as_known(self) -> Option<U256> {
        match self {
            AbstractValue::Known(w) => Some(w),
            AbstractValue::Unknown => None,
        }
    }
}

/// Maximum number of tracked stack slots. Entries deeper than this window
/// are treated as unknown (the EVM stack itself caps at 1024, but constant
/// flows relevant to jump targets live near the top).
pub const MAX_TRACKED_DEPTH: usize = 64;

/// A bounded abstract stack. Popping past the tracked entries yields
/// [`AbstractValue::Unknown`] — values supplied by calling blocks are
/// simply not tracked rather than being an error.
#[derive(Debug, PartialEq, Eq, Default)]
pub struct AbstractStack {
    // Bottom at index 0, top at the end.
    items: Vec<AbstractValue>,
}

impl Clone for AbstractStack {
    fn clone(&self) -> Self {
        AbstractStack {
            items: self.items.clone(),
        }
    }

    /// Reuses `self`'s buffer, so refilling a scratch stack allocates
    /// nothing once it has grown.
    fn clone_from(&mut self, source: &Self) {
        self.items.clone_from(&source.items);
    }
}

impl AbstractStack {
    /// Creates an empty abstract stack.
    pub fn new() -> Self {
        AbstractStack::default()
    }

    /// Number of tracked slots.
    pub fn depth(&self) -> usize {
        self.items.len()
    }

    /// Pushes a value, evicting the bottom slot if the window is full.
    pub fn push(&mut self, v: AbstractValue) {
        if self.items.len() == MAX_TRACKED_DEPTH {
            self.items.remove(0);
        }
        self.items.push(v);
    }

    /// Pops a value (unknown when the window is empty).
    pub fn pop(&mut self) -> AbstractValue {
        self.items.pop().unwrap_or(AbstractValue::Unknown)
    }

    /// Peeks `n` slots below the top (0 = top) without popping.
    pub fn peek(&self, n: usize) -> AbstractValue {
        if n < self.items.len() {
            self.items[self.items.len() - 1 - n]
        } else {
            AbstractValue::Unknown
        }
    }

    fn dup(&mut self, n: usize) {
        let v = self.peek(n - 1);
        self.push(v);
    }

    fn swap(&mut self, n: usize) {
        let len = self.items.len();
        if n < len {
            self.items.swap(len - 1, len - 1 - n);
        } else {
            // The counterpart slot is untracked: the top becomes unknown and
            // the (virtual) deep slot would take the old top — which we do
            // not track, so only the visible effect remains.
            if len > 0 {
                self.items[len - 1] = AbstractValue::Unknown;
            }
        }
    }

    /// Joins with another stack (per-slot, aligned at the top): slots that
    /// disagree or are missing become unknown. Returns `true` if `self`
    /// changed. The join only ever discards information, guaranteeing
    /// termination of the fixpoint.
    pub fn join_from(&mut self, other: &AbstractStack) -> bool {
        let keep = self.items.len().min(other.items.len());
        // Align at the top: drop excess bottom slots.
        let self_excess = self.items.len() - keep;
        let mut changed = self_excess > 0;
        self.items.drain(..self_excess);
        let other_top = &other.items[other.items.len() - keep..];
        for (a, b) in self.items.iter_mut().zip(other_top) {
            if a != b && *a != AbstractValue::Unknown {
                *a = AbstractValue::Unknown;
                changed = true;
            }
        }
        changed
    }

    /// Executes one instruction over the abstract stack.
    ///
    /// `JUMP`/`JUMPI` consume their target operand like any other pop; the
    /// caller must inspect the target (via [`AbstractStack::peek`]) *before*
    /// calling this.
    pub fn execute(&mut self, ins: &Instruction) {
        let Some(op) = ins.opcode else {
            return; // INVALID: terminates, stack irrelevant
        };
        use Opcode::*;
        match op {
            // Pushes.
            _ if op.is_push() => {
                let v = ins.push_value().expect("push opcode has a value");
                self.push(AbstractValue::Known(v));
            }
            // Pure stack manipulation.
            POP => {
                self.pop();
            }
            DUP1 | DUP2 | DUP3 | DUP4 | DUP5 | DUP6 | DUP7 | DUP8 | DUP9 | DUP10 | DUP11
            | DUP12 | DUP13 | DUP14 | DUP15 | DUP16 => {
                self.dup((op.byte() - 0x80 + 1) as usize);
            }
            SWAP1 | SWAP2 | SWAP3 | SWAP4 | SWAP5 | SWAP6 | SWAP7 | SWAP8 | SWAP9 | SWAP10
            | SWAP11 | SWAP12 | SWAP13 | SWAP14 | SWAP15 | SWAP16 => {
                self.swap((op.byte() - 0x90 + 1) as usize);
            }
            // Foldable binary ops.
            ADD => self.binop(|a, b| a.wrapping_add(b)),
            SUB => self.binop(|a, b| a.wrapping_sub(b)),
            MUL => self.binop(|a, b| a.wrapping_mul(b)),
            AND => self.binop(|a, b| a.and(b)),
            OR => self.binop(|a, b| a.or(b)),
            XOR => self.binop(|a, b| a.xor(b)),
            LT => self.binop(|a, b| a.lt_word(b)),
            GT => self.binop(|a, b| a.gt_word(b)),
            EQ => self.binop(|a, b| a.eq_word(b)),
            SHL => self.binop_swapped(|shift, v| match shift.to_usize() {
                Some(s) if s < 256 => v.shl(s as u32),
                _ => U256::ZERO,
            }),
            SHR => self.binop_swapped(|shift, v| match shift.to_usize() {
                Some(s) if s < 256 => v.shr(s as u32),
                _ => U256::ZERO,
            }),
            // Foldable unary ops.
            ISZERO => {
                let a = self.pop();
                self.push(match a.as_known() {
                    Some(w) => AbstractValue::Known(w.iszero_word()),
                    None => AbstractValue::Unknown,
                });
            }
            NOT => {
                let a = self.pop();
                self.push(match a.as_known() {
                    Some(w) => AbstractValue::Known(w.not()),
                    None => AbstractValue::Unknown,
                });
            }
            // Everything else: apply the documented stack arity with
            // unknown results.
            _ => {
                for _ in 0..op.stack_pops() {
                    self.pop();
                }
                for _ in 0..op.stack_pushes() {
                    self.push(AbstractValue::Unknown);
                }
            }
        }
    }

    fn binop(&mut self, f: impl Fn(&U256, &U256) -> U256) {
        let a = self.pop();
        let b = self.pop();
        self.push(AbstractValue::fold2(a, b, f));
    }

    /// For SHL/SHR the EVM pops `shift` first, then `value`.
    fn binop_swapped(&mut self, f: impl Fn(&U256, &U256) -> U256) {
        let shift = self.pop();
        let value = self.pop();
        self.push(AbstractValue::fold2(shift, value, f));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disasm::disassemble;

    fn run(code: &[u8]) -> AbstractStack {
        let mut s = AbstractStack::new();
        for ins in disassemble(code) {
            s.execute(&ins);
        }
        s
    }

    #[test]
    fn push_and_fold_add() {
        // PUSH1 5 PUSH1 10 ADD
        let s = run(&[0x60, 0x05, 0x60, 0x0a, 0x01]);
        assert_eq!(s.peek(0), AbstractValue::Known(U256::from_u64(15)));
    }

    #[test]
    fn xor_split_constant_recovers() {
        // PUSH2 0x1234 PUSH2 0xffff XOR XOR-again with 0xffff restores.
        let s = run(&[
            0x61, 0x12, 0x34, 0x61, 0xff, 0xff, 0x18, 0x61, 0xff, 0xff, 0x18,
        ]);
        assert_eq!(s.peek(0), AbstractValue::Known(U256::from_u64(0x1234)));
    }

    #[test]
    fn unknown_taints_result() {
        // CALLVALUE PUSH1 1 ADD
        let s = run(&[0x34, 0x60, 0x01, 0x01]);
        assert_eq!(s.peek(0), AbstractValue::Unknown);
    }

    #[test]
    fn dup_and_swap() {
        // PUSH1 1 PUSH1 2 DUP2 -> [1, 2, 1]
        let s = run(&[0x60, 0x01, 0x60, 0x02, 0x81]);
        assert_eq!(s.peek(0), AbstractValue::Known(U256::from_u64(1)));
        assert_eq!(s.peek(1), AbstractValue::Known(U256::from_u64(2)));
        // PUSH1 1 PUSH1 2 SWAP1 -> [2, 1]
        let s = run(&[0x60, 0x01, 0x60, 0x02, 0x90]);
        assert_eq!(s.peek(0), AbstractValue::Known(U256::from_u64(1)));
        assert_eq!(s.peek(1), AbstractValue::Known(U256::from_u64(2)));
    }

    #[test]
    fn shl_semantics_shift_from_top() {
        // PUSH1 1 (value) PUSH1 4 (shift) SHL -> 16
        let s = run(&[0x60, 0x01, 0x60, 0x04, 0x1b]);
        assert_eq!(s.peek(0), AbstractValue::Known(U256::from_u64(16)));
    }

    #[test]
    fn underflow_yields_unknown() {
        let mut s = AbstractStack::new();
        assert_eq!(s.pop(), AbstractValue::Unknown);
        assert_eq!(s.peek(3), AbstractValue::Unknown);
    }

    #[test]
    fn window_caps_depth() {
        let mut s = AbstractStack::new();
        for i in 0..(MAX_TRACKED_DEPTH + 10) {
            s.push(AbstractValue::Known(U256::from_u64(i as u64)));
        }
        assert_eq!(s.depth(), MAX_TRACKED_DEPTH);
        // Top is still the newest value.
        assert_eq!(
            s.peek(0),
            AbstractValue::Known(U256::from_u64((MAX_TRACKED_DEPTH + 9) as u64))
        );
    }

    #[test]
    fn join_degrades_disagreement() {
        let mut a = AbstractStack::new();
        a.push(AbstractValue::Known(U256::from_u64(1)));
        a.push(AbstractValue::Known(U256::from_u64(2)));
        let mut b = AbstractStack::new();
        b.push(AbstractValue::Known(U256::from_u64(1)));
        b.push(AbstractValue::Known(U256::from_u64(3)));
        assert!(a.join_from(&b));
        assert_eq!(a.peek(0), AbstractValue::Unknown);
        assert_eq!(a.peek(1), AbstractValue::Known(U256::from_u64(1)));
        // Idempotent second join: no change.
        assert!(!a.join_from(&b));
    }

    #[test]
    fn join_aligns_at_top() {
        let mut a = AbstractStack::new();
        a.push(AbstractValue::Known(U256::from_u64(9))); // deep slot
        a.push(AbstractValue::Known(U256::from_u64(5))); // top
        let mut b = AbstractStack::new();
        b.push(AbstractValue::Known(U256::from_u64(5))); // only top
        assert!(a.join_from(&b));
        assert_eq!(a.depth(), 1);
        assert_eq!(a.peek(0), AbstractValue::Known(U256::from_u64(5)));
    }

    #[test]
    fn environment_ops_produce_unknown() {
        let s = run(&[0x33]); // CALLER
        assert_eq!(s.depth(), 1);
        assert_eq!(s.peek(0), AbstractValue::Unknown);
    }
}
