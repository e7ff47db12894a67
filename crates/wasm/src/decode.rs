//! WASM binary-format decoder for the supported subset.

use crate::error::WasmError;
use crate::instr::{IBinOp, IRelOp, IUnOp, Instr, Width};
use crate::leb::Reader;
use crate::module::{Export, ExportKind, Function, Global, Import, Module};
use crate::types::{BlockType, FuncType, Limits, ValType};

/// Deepest `block`/`loop`/`if` nesting a function body may have. One level
/// more is [`WasmError::NestingTooDeep`].
///
/// Decoding, validation, the CFG lift and the drop of the decoded [`Instr`]
/// tree each recurse once per level, so this cap bounds all of them.
/// Decoding has the largest frame. A whole scan of a module nested exactly
/// this deep fit in 615 KiB of stack in a debug build and in 51 KiB in a
/// release build: 3.3× and 40× inside a 2 MiB thread (a serve worker's
/// stack). Uncapped, the same scans overflowed 2 MiB past 444 levels
/// (debug) and 6,877 levels (release).
pub const MAX_NESTING_DEPTH: usize = 128;

/// Decodes a binary WASM module.
///
/// Custom sections (id 0) are skipped; unknown non-custom sections are an
/// error. Only the integer subset emitted by [`crate::encode`] is accepted
/// — unsupported opcodes are reported with their offset.
///
/// # Errors
///
/// Any [`WasmError`] variant describing the malformation.
///
/// # Examples
///
/// ```
/// use scamdetect_wasm::{decode::decode_module, encode::encode_module, module::Module};
///
/// # fn main() -> Result<(), scamdetect_wasm::WasmError> {
/// let original = Module::new();
/// let decoded = decode_module(&encode_module(&original))?;
/// assert_eq!(decoded, original);
/// # Ok(())
/// # }
/// ```
pub fn decode_module(bytes: &[u8]) -> Result<Module, WasmError> {
    let mut r = Reader::new(bytes);
    let magic = r.take(8).map_err(|_| WasmError::BadMagic)?;
    if magic != [0x00, 0x61, 0x73, 0x6d, 0x01, 0x00, 0x00, 0x00] {
        return Err(WasmError::BadMagic);
    }

    let mut module = Module::new();
    let mut last_section = 0u8;
    let mut func_type_indices: Vec<u32> = Vec::new();

    while !r.is_at_end() {
        let id = r.byte()?;
        let size = r.u32()? as usize;
        let contents = r.take(size)?;
        if id == 0 {
            continue; // custom section
        }
        if id <= last_section {
            return Err(WasmError::BadSection { id });
        }
        last_section = id;
        let mut sr = Reader::new(contents);
        match id {
            1 => {
                let count = sr.u32()?;
                for _ in 0..count {
                    let marker = sr.byte()?;
                    if marker != 0x60 {
                        return Err(WasmError::BadValType { byte: marker });
                    }
                    let np = sr.u32()?;
                    let mut params = Vec::with_capacity(sr.capacity_for(np));
                    for _ in 0..np {
                        params.push(ValType::from_byte(sr.byte()?)?);
                    }
                    let nr = sr.u32()?;
                    let mut results = Vec::with_capacity(sr.capacity_for(nr));
                    for _ in 0..nr {
                        results.push(ValType::from_byte(sr.byte()?)?);
                    }
                    module.types.push(FuncType { params, results });
                }
            }
            2 => {
                let count = sr.u32()?;
                for _ in 0..count {
                    let mod_name = sr.name()?;
                    let field = sr.name()?;
                    let kind = sr.byte()?;
                    if kind != 0x00 {
                        return Err(WasmError::UnsupportedOpcode {
                            byte: kind,
                            offset: sr.pos(),
                        });
                    }
                    let type_idx = sr.u32()?;
                    module.imports.push(Import {
                        module: mod_name,
                        name: field,
                        type_idx,
                    });
                }
            }
            3 => {
                let count = sr.u32()?;
                for _ in 0..count {
                    func_type_indices.push(sr.u32()?);
                }
            }
            5 => {
                let count = sr.u32()?;
                if count > 0 {
                    let flags = sr.byte()?;
                    let min = sr.u32()?;
                    let max = if flags & 1 != 0 {
                        Some(sr.u32()?)
                    } else {
                        None
                    };
                    module.memory = Some(Limits { min, max });
                }
            }
            6 => {
                let count = sr.u32()?;
                for _ in 0..count {
                    let ty = ValType::from_byte(sr.byte()?)?;
                    let mutable = sr.byte()? != 0;
                    let opc = sr.byte()?;
                    let init = match (ty, opc) {
                        (ValType::I32, 0x41) => sr.i32()? as i64,
                        (ValType::I64, 0x42) => sr.i64()?,
                        _ => {
                            return Err(WasmError::UnsupportedOpcode {
                                byte: opc,
                                offset: sr.pos(),
                            })
                        }
                    };
                    let end = sr.byte()?;
                    if end != 0x0b {
                        return Err(WasmError::UnbalancedControl);
                    }
                    module.globals.push(Global { ty, mutable, init });
                }
            }
            7 => {
                let count = sr.u32()?;
                for _ in 0..count {
                    let name = sr.name()?;
                    let kind = match sr.byte()? {
                        0x00 => ExportKind::Func,
                        0x02 => ExportKind::Memory,
                        byte => {
                            return Err(WasmError::UnsupportedOpcode {
                                byte,
                                offset: sr.pos(),
                            })
                        }
                    };
                    let index = sr.u32()?;
                    module.exports.push(Export { name, kind, index });
                }
            }
            10 => {
                let count = sr.u32()? as usize;
                if count != func_type_indices.len() {
                    return Err(WasmError::BadSection { id: 10 });
                }
                for type_idx in &func_type_indices {
                    let body_size = sr.u32()? as usize;
                    let body_bytes = sr.take(body_size)?;
                    let mut br = Reader::new(body_bytes);
                    let nlocals = br.u32()?;
                    let mut locals = Vec::with_capacity(br.capacity_for(nlocals));
                    for _ in 0..nlocals {
                        let n = br.u32()?;
                        let ty = ValType::from_byte(br.byte()?)?;
                        locals.push((n, ty));
                    }
                    let (body, term) = decode_instrs(&mut br, 0)?;
                    if term != 0x0b || !br.is_at_end() {
                        return Err(WasmError::UnbalancedControl);
                    }
                    module.functions.push(Function {
                        type_idx: *type_idx,
                        locals,
                        body,
                    });
                }
            }
            _ => return Err(WasmError::BadSection { id }),
        }
    }

    if module.functions.len() != func_type_indices.len() {
        return Err(WasmError::BadSection { id: 10 });
    }
    Ok(module)
}

/// Decodes instructions until `end` (0x0b) or `else` (0x05), returning the
/// terminator byte alongside the parsed sequence. `depth` counts the
/// structured openers enclosing the sequence (0 for a function body).
fn decode_instrs(r: &mut Reader<'_>, depth: usize) -> Result<(Vec<Instr>, u8), WasmError> {
    if depth > MAX_NESTING_DEPTH {
        return Err(WasmError::NestingTooDeep { offset: r.pos() });
    }
    let mut out = Vec::new();
    loop {
        let offset = r.pos();
        let opc = r.byte()?;
        let instr = match opc {
            0x0b | 0x05 => return Ok((out, opc)),
            0x00 => Instr::Unreachable,
            0x01 => Instr::Nop,
            0x02 | 0x03 => {
                let ty = BlockType::from_byte(r.byte()?)?;
                let (body, term) = decode_instrs(r, depth + 1)?;
                if term != 0x0b {
                    return Err(WasmError::UnbalancedControl);
                }
                if opc == 0x02 {
                    Instr::Block { ty, body }
                } else {
                    Instr::Loop { ty, body }
                }
            }
            0x04 => {
                let ty = BlockType::from_byte(r.byte()?)?;
                let (then, term) = decode_instrs(r, depth + 1)?;
                let els = if term == 0x05 {
                    let (els, term2) = decode_instrs(r, depth + 1)?;
                    if term2 != 0x0b {
                        return Err(WasmError::UnbalancedControl);
                    }
                    els
                } else {
                    Vec::new()
                };
                Instr::If { ty, then, els }
            }
            0x0c => Instr::Br(r.u32()?),
            0x0d => Instr::BrIf(r.u32()?),
            0x0e => {
                let n = r.u32()?;
                let mut targets = Vec::with_capacity(r.capacity_for(n));
                for _ in 0..n {
                    targets.push(r.u32()?);
                }
                let default = r.u32()?;
                Instr::BrTable { targets, default }
            }
            0x0f => Instr::Return,
            0x10 => Instr::Call(r.u32()?),
            0x1a => Instr::Drop,
            0x1b => Instr::Select,
            0x20 => Instr::LocalGet(r.u32()?),
            0x21 => Instr::LocalSet(r.u32()?),
            0x22 => Instr::LocalTee(r.u32()?),
            0x23 => Instr::GlobalGet(r.u32()?),
            0x24 => Instr::GlobalSet(r.u32()?),
            0x28 | 0x29 => {
                let _align = r.u32()?;
                let offset = r.u32()?;
                Instr::Load {
                    width: if opc == 0x28 { Width::W32 } else { Width::W64 },
                    offset,
                }
            }
            0x36 | 0x37 => {
                let _align = r.u32()?;
                let offset = r.u32()?;
                Instr::Store {
                    width: if opc == 0x36 { Width::W32 } else { Width::W64 },
                    offset,
                }
            }
            0x3f => {
                r.byte()?;
                Instr::MemorySize
            }
            0x40 => {
                r.byte()?;
                Instr::MemoryGrow
            }
            0x41 => Instr::I32Const(r.i32()?),
            0x42 => Instr::I64Const(r.i64()?),
            0x45 => Instr::Eqz(Width::W32),
            0x50 => Instr::Eqz(Width::W64),
            0x46..=0x4f => Instr::Rel {
                width: Width::W32,
                op: rel_from_offset(opc - 0x46),
            },
            0x51..=0x5a => Instr::Rel {
                width: Width::W64,
                op: rel_from_offset(opc - 0x51),
            },
            0x67..=0x69 => Instr::Unary {
                width: Width::W32,
                op: unary_from_offset(opc - 0x67),
            },
            0x79..=0x7b => Instr::Unary {
                width: Width::W64,
                op: unary_from_offset(opc - 0x79),
            },
            0x6a..=0x78 => Instr::Binary {
                width: Width::W32,
                op: binary_from_offset(opc - 0x6a),
            },
            0x7c..=0x8a => Instr::Binary {
                width: Width::W64,
                op: binary_from_offset(opc - 0x7c),
            },
            0xa7 => Instr::I32WrapI64,
            0xac => Instr::I64ExtendI32S,
            0xad => Instr::I64ExtendI32U,
            byte => return Err(WasmError::UnsupportedOpcode { byte, offset }),
        };
        out.push(instr);
    }
}

fn rel_from_offset(off: u8) -> IRelOp {
    [
        IRelOp::Eq,
        IRelOp::Ne,
        IRelOp::LtS,
        IRelOp::LtU,
        IRelOp::GtS,
        IRelOp::GtU,
        IRelOp::LeS,
        IRelOp::LeU,
        IRelOp::GeS,
        IRelOp::GeU,
    ][off as usize]
}

fn unary_from_offset(off: u8) -> IUnOp {
    [IUnOp::Clz, IUnOp::Ctz, IUnOp::Popcnt][off as usize]
}

fn binary_from_offset(off: u8) -> IBinOp {
    [
        IBinOp::Add,
        IBinOp::Sub,
        IBinOp::Mul,
        IBinOp::DivS,
        IBinOp::DivU,
        IBinOp::RemS,
        IBinOp::RemU,
        IBinOp::And,
        IBinOp::Or,
        IBinOp::Xor,
        IBinOp::Shl,
        IBinOp::ShrS,
        IBinOp::ShrU,
        IBinOp::Rotl,
        IBinOp::Rotr,
    ][off as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_module;
    use crate::types::{BlockType, FuncType};

    fn roundtrip(m: &Module) -> Module {
        decode_module(&encode_module(m)).expect("roundtrip decode")
    }

    #[test]
    fn rich_module_roundtrips() {
        let mut m = Module::new();
        m.memory = Some(Limits {
            min: 1,
            max: Some(16),
        });
        m.globals.push(Global {
            ty: ValType::I64,
            mutable: true,
            init: -42,
        });
        let caller = m.add_import("env", "caller", FuncType::new(vec![], vec![ValType::I64]));
        let f = m.add_function(
            FuncType::new(vec![ValType::I32], vec![ValType::I32]),
            vec![(2, ValType::I64)],
            vec![
                Instr::Block {
                    ty: BlockType::Empty,
                    body: vec![
                        Instr::LocalGet(0),
                        Instr::Eqz(Width::W32),
                        Instr::BrIf(0),
                        Instr::Call(caller),
                        Instr::Drop,
                    ],
                },
                Instr::Loop {
                    ty: BlockType::Empty,
                    body: vec![
                        Instr::LocalGet(0),
                        Instr::I32Const(1),
                        Instr::Binary {
                            width: Width::W32,
                            op: IBinOp::Sub,
                        },
                        Instr::LocalTee(0),
                        Instr::BrIf(0),
                    ],
                },
                Instr::If {
                    ty: BlockType::Value(ValType::I32),
                    then: vec![Instr::I32Const(1)],
                    els: vec![Instr::I32Const(0)],
                },
                Instr::Return,
            ],
        );
        m.export_func("main", f);
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decode_module(b"\0asn\x01\0\0\0"), Err(WasmError::BadMagic));
        assert_eq!(decode_module(&[]), Err(WasmError::BadMagic));
    }

    #[test]
    fn out_of_order_sections_rejected() {
        let mut m = Module::new();
        m.add_function(FuncType::default(), vec![], vec![Instr::Nop]);
        let bytes = encode_module(&m);
        // Duplicate the type section at the end.
        let mut corrupted = bytes.clone();
        corrupted.extend_from_slice(&[0x01, 0x01, 0x00]);
        assert!(matches!(
            decode_module(&corrupted),
            Err(WasmError::BadSection { id: 1 })
        ));
    }

    #[test]
    fn custom_sections_skipped() {
        let mut bytes = encode_module(&Module::new());
        bytes.extend_from_slice(&[0x00, 0x03, 0x01, 0x61, 0x62]); // custom section
        assert!(decode_module(&bytes).is_ok());
    }

    #[test]
    fn unsupported_opcode_reported_with_offset() {
        let mut m = Module::new();
        m.add_function(FuncType::default(), vec![], vec![Instr::Nop]);
        let mut bytes = encode_module(&m);
        // Replace the nop with an f32.add (0x92).
        let pos = bytes.len() - 2;
        bytes[pos] = 0x92;
        assert!(matches!(
            decode_module(&bytes),
            Err(WasmError::UnsupportedOpcode { byte: 0x92, .. })
        ));
    }

    #[test]
    fn br_table_roundtrips() {
        let mut m = Module::new();
        m.add_function(
            FuncType::default(),
            vec![],
            vec![Instr::Block {
                ty: BlockType::Empty,
                body: vec![Instr::Block {
                    ty: BlockType::Empty,
                    body: vec![
                        Instr::I32Const(2),
                        Instr::BrTable {
                            targets: vec![0, 1],
                            default: 1,
                        },
                    ],
                }],
            }],
        );
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn truncated_body_rejected() {
        let mut m = Module::new();
        m.add_function(FuncType::default(), vec![], vec![Instr::Nop]);
        let bytes = encode_module(&m);
        assert!(decode_module(&bytes[..bytes.len() - 1]).is_err());
    }
}
