//! Control-flow graph recovery from EVM bytecode.
//!
//! Basic blocks are delimited by `JUMPDEST`s and terminators; jump edges
//! are resolved by a forward fixpoint that propagates an
//! [`AbstractState`] — a constant-tracking stack plus a word-granular
//! abstract memory — across fall-through and resolved jump edges, so both
//! constant-split and memory-routed jump indirection resolve statically.
//! Jumps whose target never becomes a known constant are handled
//! according to an explicit [`UnknownJumpPolicy`] — exactly the
//! degradation that bytecode obfuscation induces and that the ScamDetect
//! evaluation measures.

use crate::disasm::{disassemble, Instruction};
use crate::memory_model::AbstractState;
use crate::opcode::Opcode;
use crate::stack::AbstractValue;
use scamdetect_graph::{DiGraph, NodeId};
use std::collections::VecDeque;

/// How to connect a jump whose target could not be resolved statically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UnknownJumpPolicy {
    /// Emit no edge: the CFG under-approximates.
    #[default]
    Ignore,
    /// Connect the jump site to every `JUMPDEST` block (sound
    /// over-approximation, like conservative binary CFG tools).
    ToAllJumpdests,
    /// Route all unresolved jumps through one synthetic node, keeping the
    /// over-approximation visible as a distinctive structure.
    VirtualNode,
}

/// CFG construction options.
#[derive(Debug, Clone)]
pub struct CfgOptions {
    /// Policy for unresolved jump targets.
    pub unknown_jump_policy: UnknownJumpPolicy,
    /// Cap on worklist iterations, as a multiple of the block count.
    pub max_passes: usize,
}

impl Default for CfgOptions {
    fn default() -> Self {
        CfgOptions {
            unknown_jump_policy: UnknownJumpPolicy::default(),
            max_passes: 16,
        }
    }
}

/// A basic block: a maximal straight-line instruction sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// Byte offset of the first instruction (`usize::MAX` for the virtual
    /// block, if any).
    pub start: usize,
    /// The instructions of the block, in order.
    pub instructions: Vec<Instruction>,
    /// `true` only for the synthetic node of
    /// [`UnknownJumpPolicy::VirtualNode`].
    pub is_virtual: bool,
}

impl BasicBlock {
    /// Byte offset one past the last instruction.
    pub fn end(&self) -> usize {
        self.instructions
            .last()
            .map_or(self.start, Instruction::next_offset)
    }

    /// Opcode of the final instruction, if any and assigned.
    pub fn last_opcode(&self) -> Option<Opcode> {
        self.instructions.last().and_then(|i| i.opcode)
    }

    /// `true` if the block begins with a `JUMPDEST` (is a valid jump
    /// target).
    pub fn is_jump_target(&self) -> bool {
        self.instructions
            .first()
            .is_some_and(|i| i.opcode == Some(Opcode::JUMPDEST))
    }
}

/// Kind of a CFG edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeKind {
    /// Execution continues into the next block (includes the not-taken arm
    /// of `JUMPI`).
    FallThrough,
    /// A resolved unconditional `JUMP`.
    Jump,
    /// The taken arm of a resolved `JUMPI`.
    Branch,
    /// An edge materialised for an unresolved jump per the policy.
    Unresolved,
}

/// A recovered control-flow graph.
#[derive(Debug, Clone)]
pub struct Cfg {
    graph: DiGraph<BasicBlock, EdgeKind>,
    entry: NodeId,
    unresolved_jumps: usize,
    resolved_jumps: usize,
}

impl Cfg {
    /// The underlying graph (blocks as node payloads).
    pub fn graph(&self) -> &DiGraph<BasicBlock, EdgeKind> {
        &self.graph
    }

    /// The entry node (block at offset 0).
    pub fn entry(&self) -> NodeId {
        self.entry
    }

    /// Block payload of `id`.
    pub fn block(&self, id: NodeId) -> &BasicBlock {
        self.graph.node(id)
    }

    /// Number of basic blocks (including a virtual node if present).
    pub fn block_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of dynamic jump sites whose target resolution failed.
    pub fn unresolved_jump_count(&self) -> usize {
        self.unresolved_jumps
    }

    /// Number of jump sites that were statically resolved.
    pub fn resolved_jump_count(&self) -> usize {
        self.resolved_jumps
    }

    /// Total instruction count across blocks.
    pub fn instruction_count(&self) -> usize {
        self.graph.nodes().map(|(_, b)| b.instructions.len()).sum()
    }

    /// Graphviz rendering with per-block instruction listings.
    pub fn to_dot(&self) -> String {
        scamdetect_graph::dot::to_dot(
            &self.graph,
            "evm_cfg",
            |_, b| {
                if b.is_virtual {
                    "<unresolved>".to_string()
                } else {
                    let mut s = format!("@{:#06x}\n", b.start);
                    for i in &b.instructions {
                        s.push_str(&i.to_string());
                        s.push('\n');
                    }
                    s
                }
            },
            |e| format!("{e:?}"),
        )
    }
}

/// What a block does when it finishes.
#[derive(Debug, Clone)]
enum BlockExit {
    Fall,
    Halt,
    Jump(AbstractValue),
    Branch(AbstractValue),
}

/// Runs `block` over `state` in place, leaving the exit state behind.
fn run_block(block: &[Instruction], state: &mut AbstractState) -> BlockExit {
    let mut exit = BlockExit::Fall;
    for ins in block {
        match ins.opcode {
            Some(Opcode::JUMP) => {
                exit = BlockExit::Jump(state.stack.peek(0));
                state.execute(ins);
            }
            Some(Opcode::JUMPI) => {
                exit = BlockExit::Branch(state.stack.peek(0));
                state.execute(ins);
            }
            Some(op) if op.is_halt() => {
                exit = BlockExit::Halt;
            }
            None => {
                exit = BlockExit::Halt; // unassigned byte = INVALID
            }
            _ => state.execute(ins),
        }
    }
    exit
}

/// Block lookup by byte offset: one dense table per contract, indexed by
/// every offset up to and including the code length.
struct BlockIndex<'a> {
    node_at: Vec<Option<NodeId>>,
    graph: &'a DiGraph<BasicBlock, EdgeKind>,
}

impl BlockIndex<'_> {
    /// The block starting at `offset`, if any.
    fn at(&self, offset: usize) -> Option<NodeId> {
        self.node_at.get(offset).copied().flatten()
    }

    /// The block execution falls into after `n`.
    fn next_block_of(&self, n: NodeId) -> Option<NodeId> {
        self.at(self.graph.node(n).end())
    }

    /// The block a jump to `target` enters: a known offset that starts a
    /// `JUMPDEST` block.
    fn resolve_target(&self, target: AbstractValue) -> Option<NodeId> {
        let node = self.at(target.as_known()?.to_usize()?)?;
        self.graph.node(node).is_jump_target().then_some(node)
    }

    /// The successors of `n` for `exit`, jump target before fall-through,
    /// and whether the exit is a jump whose target is not a known word.
    fn successors(&self, n: NodeId, exit: BlockExit) -> ([Option<(NodeId, EdgeKind)>; 2], bool) {
        let (target, kind, falls) = match exit {
            BlockExit::Halt => return ([None, None], false),
            BlockExit::Fall => {
                let fall = self.next_block_of(n).map(|t| (t, EdgeKind::FallThrough));
                return ([fall, None], false);
            }
            BlockExit::Jump(target) => (target, EdgeKind::Jump, false),
            BlockExit::Branch(target) => (target, EdgeKind::Branch, true),
        };
        // A known but invalid target reverts at run time: no edge, and
        // not unresolved either.
        let jump = self.resolve_target(target).map(|t| (t, kind));
        let unresolved = jump.is_none() && target.as_known().is_none();
        let fall = if falls {
            self.next_block_of(n).map(|t| (t, EdgeKind::FallThrough))
        } else {
            None
        };
        ([jump, fall], unresolved)
    }
}

/// Builds the CFG of `code` with default options.
///
/// # Examples
///
/// ```
/// use scamdetect_evm::cfg::build_cfg;
///
/// // PUSH1 4 JUMP; JUMPDEST STOP  — one resolved jump.
/// let code = [0x60, 0x04, 0x56, 0xfe, 0x5b, 0x00];
/// let cfg = build_cfg(&code);
/// assert_eq!(cfg.resolved_jump_count(), 1);
/// assert_eq!(cfg.unresolved_jump_count(), 0);
/// ```
pub fn build_cfg(code: &[u8]) -> Cfg {
    build_cfg_with(code, &CfgOptions::default())
}

/// Builds the CFG of `code` under explicit options.
///
/// Allocation is per contract and per block, never per instruction or
/// per fixpoint step: offsets index dense tables, the abstract state is
/// refilled into one scratch buffer, and joins run in place.
pub fn build_cfg_with(code: &[u8], opts: &CfgOptions) -> Cfg {
    let instrs = disassemble(code);

    // --- Block boundaries -------------------------------------------------
    // Leaders are instruction starts, or the code length after a final
    // terminator, so one flag per offset up to the length covers them.
    let mut leader = vec![false; code.len() + 1];
    leader[0] = true;
    for ins in &instrs {
        if ins.opcode == Some(Opcode::JUMPDEST) {
            leader[ins.offset] = true;
        }
        if ins.is_block_terminator() || ins.opcode == Some(Opcode::JUMPI) {
            leader[ins.next_offset()] = true;
        }
    }
    // Index of each block's first instruction; the first block starts at
    // instruction 0 (or is the single empty block of empty code).
    let firsts: Vec<usize> = std::iter::once(0)
        .chain((1..instrs.len()).filter(|&i| leader[instrs[i].offset]))
        .collect();

    // Each block moves its run out of the decoded instructions.
    let ends = firsts[1..].iter().copied().chain([instrs.len()]);
    let mut graph: DiGraph<BasicBlock, EdgeKind> = DiGraph::with_capacity(firsts.len() + 1);
    let mut node_at = vec![None; code.len() + 1];
    let mut decoded = instrs.into_iter();
    for (&first, end) in firsts.iter().zip(ends) {
        let instructions: Vec<Instruction> = decoded.by_ref().take(end - first).collect();
        let start = instructions.first().map_or(0, |i| i.offset);
        let id = graph.add_node(BasicBlock {
            start,
            instructions,
            is_virtual: false,
        });
        node_at[start] = Some(id);
    }
    let entry = NodeId::new(0);
    let block_count = graph.node_count();
    let jumpdest_nodes: Vec<NodeId> = graph
        .node_ids()
        .filter(|&n| graph.node(n).is_jump_target())
        .collect();
    let index = BlockIndex {
        node_at,
        graph: &graph,
    };

    // --- Fixpoint jump resolution -----------------------------------------
    let mut in_state: Vec<Option<AbstractState>> = vec![None; block_count];
    in_state[entry.index()] = Some(AbstractState::new());
    // Sorted and deduplicated at the end, which is the order a set of
    // `(from, to, kind)` triples iterates in.
    let mut edges: Vec<(NodeId, NodeId, EdgeKind)> = Vec::new();
    let mut unresolved_site = vec![false; block_count];

    let mut queue: VecDeque<NodeId> = VecDeque::new();
    queue.push_back(entry);
    let budget = block_count.max(1) * opts.max_passes;
    let mut steps = 0usize;
    let empty = AbstractState::new();
    let mut state = AbstractState::new();

    while let Some(n) = queue.pop_front() {
        steps += 1;
        if steps > budget {
            break;
        }
        state.clone_from(in_state[n.index()].as_ref().unwrap_or(&empty));
        let exit = run_block(&graph.node(n).instructions, &mut state);
        let (succs, unresolved) = index.successors(n, exit);
        unresolved_site[n.index()] |= unresolved;
        for (succ, kind) in succs.into_iter().flatten() {
            edges.push((n, succ, kind));
            let changed = match &mut in_state[succ.index()] {
                Some(st) => st.join_from(&state),
                slot => {
                    *slot = Some(state.clone());
                    true
                }
            };
            if changed {
                queue.push_back(succ);
            }
        }
    }
    // --- Dead blocks: simulate once with an unknown entry ------------------
    for n in graph.node_ids().filter(|n| in_state[n.index()].is_none()) {
        state.clone_from(&empty);
        let exit = run_block(&graph.node(n).instructions, &mut state);
        let (succs, unresolved) = index.successors(n, exit);
        unresolved_site[n.index()] |= unresolved;
        edges.extend(
            succs
                .into_iter()
                .flatten()
                .map(|(succ, kind)| (n, succ, kind)),
        );
    }

    // --- Unresolved jump policy --------------------------------------------
    let sites: Vec<NodeId> = graph
        .node_ids()
        .filter(|n| unresolved_site[n.index()])
        .collect();
    match opts.unknown_jump_policy {
        UnknownJumpPolicy::Ignore => {}
        UnknownJumpPolicy::ToAllJumpdests => {
            for &site in &sites {
                for &jd in &jumpdest_nodes {
                    edges.push((site, jd, EdgeKind::Unresolved));
                }
            }
        }
        UnknownJumpPolicy::VirtualNode => {
            if !sites.is_empty() {
                let virt = graph.add_node(BasicBlock {
                    start: usize::MAX,
                    instructions: Vec::new(),
                    is_virtual: true,
                });
                for &site in &sites {
                    edges.push((site, virt, EdgeKind::Unresolved));
                }
                for &jd in &jumpdest_nodes {
                    edges.push((virt, jd, EdgeKind::Unresolved));
                }
            }
        }
    }

    edges.sort_unstable();
    edges.dedup();
    // A resolved jump is a distinct (block, target) pair from a block the
    // fixpoint reached; dead blocks' jumps add edges but do not count.
    let resolved_jumps = edges
        .iter()
        .filter(|(from, _, kind)| {
            matches!(kind, EdgeKind::Jump | EdgeKind::Branch) && in_state[from.index()].is_some()
        })
        .count();
    for (from, to, kind) in edges {
        graph.add_edge(from, to, kind);
    }

    Cfg {
        graph,
        entry,
        unresolved_jumps: sites.len(),
        resolved_jumps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::AsmProgram;
    use std::collections::BTreeSet;

    fn assemble(build: impl FnOnce(&mut AsmProgram)) -> Vec<u8> {
        let mut p = AsmProgram::new();
        build(&mut p);
        p.assemble().expect("test program assembles")
    }

    #[test]
    fn straight_line_is_one_block() {
        let cfg = build_cfg(&[0x60, 0x01, 0x60, 0x02, 0x01, 0x00]); // PUSH PUSH ADD STOP
        assert_eq!(cfg.block_count(), 1);
        assert_eq!(cfg.graph().edge_count(), 0);
        assert_eq!(cfg.instruction_count(), 4);
    }

    #[test]
    fn direct_jump_resolves() {
        let code = assemble(|p| {
            let l = p.new_label();
            p.jump_to(l);
            p.op(Opcode::INVALID);
            p.place_label(l);
            p.op(Opcode::STOP);
        });
        let cfg = build_cfg(&code);
        assert_eq!(cfg.resolved_jump_count(), 1);
        assert_eq!(cfg.unresolved_jump_count(), 0);
        let kinds: Vec<EdgeKind> = cfg.graph().edges().map(|(_, _, k)| *k).collect();
        assert!(kinds.contains(&EdgeKind::Jump));
    }

    #[test]
    fn jumpi_has_branch_and_fallthrough() {
        let code = assemble(|p| {
            let l = p.new_label();
            p.op(Opcode::CALLVALUE);
            p.jumpi_to(l);
            p.op(Opcode::STOP);
            p.place_label(l);
            p.op(Opcode::STOP);
        });
        let cfg = build_cfg(&code);
        let kinds: BTreeSet<EdgeKind> = cfg.graph().edges().map(|(_, _, k)| *k).collect();
        assert!(kinds.contains(&EdgeKind::Branch));
        assert!(kinds.contains(&EdgeKind::FallThrough));
    }

    #[test]
    fn split_constant_jump_resolves_locally() {
        // Target computed as 3 + (label - 3): classic constant-split.
        let code = assemble(|p| {
            let l = p.new_label();
            // PUSH 2; PUSH (l as label); ... we emulate split by arithmetic:
            // push_label then ADD 0 keeps it resolvable.
            p.push_value(0);
            p.push_label(l);
            p.op(Opcode::ADD);
            p.op(Opcode::JUMP);
            p.op(Opcode::INVALID);
            p.place_label(l);
            p.op(Opcode::STOP);
        });
        let cfg = build_cfg(&code);
        assert_eq!(cfg.resolved_jump_count(), 1);
        assert_eq!(cfg.unresolved_jump_count(), 0);
    }

    #[test]
    fn cross_block_constant_propagation() {
        // Block A pushes the target, block B (fallthrough) jumps on it.
        let code = assemble(|p| {
            let l = p.new_label();
            let mid = p.new_label();
            p.push_label(l); // leave the target on the stack
            p.push_value(1);
            p.jumpi_to(mid); // split: target stays on stack across edge
            p.place_label(mid);
            p.op(Opcode::JUMP); // target comes from the predecessor block
            p.place_label(l);
            p.op(Opcode::STOP);
        });
        let cfg = build_cfg(&code);
        assert_eq!(cfg.unresolved_jump_count(), 0, "{}", cfg.to_dot());
        assert!(cfg.resolved_jump_count() >= 2);
    }

    #[test]
    fn dynamic_jump_is_unresolved_and_policies_apply() {
        // CALLDATALOAD-based jump target: cannot resolve.
        let code = assemble(|p| {
            let l = p.new_label();
            p.push_value(0);
            p.op(Opcode::CALLDATALOAD);
            p.op(Opcode::JUMP);
            p.place_label(l);
            p.op(Opcode::STOP);
        });
        let cfg = build_cfg(&code);
        assert_eq!(cfg.unresolved_jump_count(), 1);
        assert!(!cfg
            .graph()
            .edges()
            .any(|(_, _, k)| *k == EdgeKind::Unresolved));

        let cfg2 = build_cfg_with(
            &code,
            &CfgOptions {
                unknown_jump_policy: UnknownJumpPolicy::ToAllJumpdests,
                ..CfgOptions::default()
            },
        );
        assert!(cfg2
            .graph()
            .edges()
            .any(|(_, _, k)| *k == EdgeKind::Unresolved));

        let cfg3 = build_cfg_with(
            &code,
            &CfgOptions {
                unknown_jump_policy: UnknownJumpPolicy::VirtualNode,
                ..CfgOptions::default()
            },
        );
        assert_eq!(cfg3.block_count(), cfg.block_count() + 1);
        assert!(cfg3.graph().nodes().any(|(_, b)| b.is_virtual));
    }

    #[test]
    fn invalid_jump_target_gets_no_edge() {
        // JUMP to offset 1, which is not a JUMPDEST.
        let cfg = build_cfg(&[0x60, 0x01, 0x56, 0x00]); // PUSH1 1; JUMP; STOP
        assert_eq!(cfg.resolved_jump_count(), 0);
        assert_eq!(cfg.unresolved_jump_count(), 0);
        assert_eq!(cfg.graph().edge_count(), 0);
    }

    #[test]
    fn dead_block_local_jumps_still_appear() {
        // Unreachable block with its own direct jump.
        let code = assemble(|p| {
            let dead = p.new_label();
            let end = p.new_label();
            p.op(Opcode::STOP); // entry halts; everything below is dead
            p.place_label(dead);
            p.jump_to(end);
            p.place_label(end);
            p.op(Opcode::STOP);
        });
        let cfg = build_cfg(&code);
        assert!(cfg.graph().edges().any(|(_, _, k)| *k == EdgeKind::Jump));
    }

    #[test]
    fn empty_code_yields_single_empty_block() {
        let cfg = build_cfg(&[]);
        assert_eq!(cfg.block_count(), 1);
        assert_eq!(cfg.instruction_count(), 0);
    }

    #[test]
    fn dot_export_mentions_blocks() {
        let cfg = build_cfg(&[0x00]);
        let dot = cfg.to_dot();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("STOP"));
    }

    #[test]
    fn loop_shape_recovered() {
        // while (callvalue) {} — JUMPDEST; CALLVALUE; JUMPI back; STOP.
        let code = assemble(|p| {
            let top = p.new_label();
            let out = p.new_label();
            p.place_label(top);
            p.op(Opcode::CALLVALUE);
            p.op(Opcode::ISZERO);
            p.jumpi_to(out);
            p.jump_to(top);
            p.place_label(out);
            p.op(Opcode::STOP);
        });
        let cfg = build_cfg(&code);
        // There must be a cycle: some edge goes "backwards" to the entry.
        let has_back_edge = cfg
            .graph()
            .edges()
            .any(|(u, v, _)| cfg.block(v).start <= cfg.block(u).start);
        assert!(has_back_edge, "{}", cfg.to_dot());
    }
}
