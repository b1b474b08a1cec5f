//! Minimal wasm binary emitter.
//!
//! Builds valid core-MVP binaries covering exactly the subset the decoder
//! accepts — enough for `fmsa_workloads::wasm_fixtures` to serialize
//! generated clone-family modules and for tests to construct inputs
//! byte-for-byte deterministically. [`CodeWriter`] provides typed helpers
//! for the operator sequence of one function body; [`WasmBuilder`]
//! assembles the type/function/memory/export/code sections.

use crate::leb128::{write_i32, write_i64, write_u32};
use crate::ValType;

/// Writes the operator sequence of one function body.
///
/// The final `end` of the body expression is appended by
/// [`WasmBuilder::add_function`]; explicit [`CodeWriter::end`] calls close
/// nested `block`/`loop`/`if` constructs.
#[derive(Debug, Clone, Default)]
pub struct CodeWriter {
    bytes: Vec<u8>,
}

impl CodeWriter {
    /// An empty body.
    pub fn new() -> CodeWriter {
        CodeWriter::default()
    }

    /// Appends a raw opcode byte (escape hatch for tests).
    pub fn raw_op(&mut self, b: u8) {
        self.bytes.push(b);
    }

    fn block_type(&mut self, bt: Option<ValType>) {
        match bt {
            None => self.bytes.push(0x40),
            Some(vt) => self.bytes.push(vt.byte()),
        }
    }

    /// `unreachable`.
    pub fn unreachable(&mut self) {
        self.bytes.push(0x00);
    }

    /// `nop`.
    pub fn nop(&mut self) {
        self.bytes.push(0x01);
    }

    /// `block` with an optional result type.
    pub fn block(&mut self, bt: Option<ValType>) {
        self.bytes.push(0x02);
        self.block_type(bt);
    }

    /// `loop` with an optional result type.
    pub fn loop_(&mut self, bt: Option<ValType>) {
        self.bytes.push(0x03);
        self.block_type(bt);
    }

    /// `if` with an optional result type.
    pub fn if_(&mut self, bt: Option<ValType>) {
        self.bytes.push(0x04);
        self.block_type(bt);
    }

    /// `else`.
    pub fn else_(&mut self) {
        self.bytes.push(0x05);
    }

    /// `end` of a nested construct.
    pub fn end(&mut self) {
        self.bytes.push(0x0b);
    }

    /// `br label`.
    pub fn br(&mut self, label: u32) {
        self.bytes.push(0x0c);
        write_u32(&mut self.bytes, label);
    }

    /// `br_if label`.
    pub fn br_if(&mut self, label: u32) {
        self.bytes.push(0x0d);
        write_u32(&mut self.bytes, label);
    }

    /// `br_table targets... default`.
    pub fn br_table(&mut self, targets: &[u32], default: u32) {
        self.bytes.push(0x0e);
        write_u32(&mut self.bytes, targets.len() as u32);
        for &t in targets {
            write_u32(&mut self.bytes, t);
        }
        write_u32(&mut self.bytes, default);
    }

    /// `return`.
    pub fn return_(&mut self) {
        self.bytes.push(0x0f);
    }

    /// `call func`.
    pub fn call(&mut self, func: u32) {
        self.bytes.push(0x10);
        write_u32(&mut self.bytes, func);
    }

    /// `drop`.
    pub fn drop_(&mut self) {
        self.bytes.push(0x1a);
    }

    /// `select`.
    pub fn select(&mut self) {
        self.bytes.push(0x1b);
    }

    /// `local.get x`.
    pub fn local_get(&mut self, x: u32) {
        self.bytes.push(0x20);
        write_u32(&mut self.bytes, x);
    }

    /// `local.set x`.
    pub fn local_set(&mut self, x: u32) {
        self.bytes.push(0x21);
        write_u32(&mut self.bytes, x);
    }

    /// `local.tee x`.
    pub fn local_tee(&mut self, x: u32) {
        self.bytes.push(0x22);
        write_u32(&mut self.bytes, x);
    }

    fn mem(&mut self, opcode: u8, align: u32, offset: u32) {
        self.bytes.push(opcode);
        write_u32(&mut self.bytes, align);
        write_u32(&mut self.bytes, offset);
    }

    /// Full-width load of `ty` at constant `offset`.
    pub fn load(&mut self, ty: ValType, offset: u32) {
        let op = match ty {
            ValType::I32 => 0x28,
            ValType::I64 => 0x29,
            ValType::F32 => 0x2a,
            ValType::F64 => 0x2b,
        };
        self.mem(op, 0, offset);
    }

    /// `i32.load8_u` at constant `offset`.
    pub fn i32_load8_u(&mut self, offset: u32) {
        self.mem(0x2d, 0, offset);
    }

    /// Full-width store of `ty` at constant `offset`.
    pub fn store(&mut self, ty: ValType, offset: u32) {
        let op = match ty {
            ValType::I32 => 0x36,
            ValType::I64 => 0x37,
            ValType::F32 => 0x38,
            ValType::F64 => 0x39,
        };
        self.mem(op, 0, offset);
    }

    /// `i32.store8` at constant `offset`.
    pub fn i32_store8(&mut self, offset: u32) {
        self.mem(0x3a, 0, offset);
    }

    /// `i32.const v`.
    pub fn i32_const(&mut self, v: i32) {
        self.bytes.push(0x41);
        write_i32(&mut self.bytes, v);
    }

    /// `i64.const v`.
    pub fn i64_const(&mut self, v: i64) {
        self.bytes.push(0x42);
        write_i64(&mut self.bytes, v);
    }

    /// `f32.const v`.
    pub fn f32_const(&mut self, v: f32) {
        self.bytes.push(0x43);
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// `f64.const v`.
    pub fn f64_const(&mut self, v: f64) {
        self.bytes.push(0x44);
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// `i32.eqz` / `i64.eqz`.
    pub fn eqz(&mut self, ty: ValType) {
        self.bytes.push(if ty == ValType::I64 { 0x50 } else { 0x45 });
    }

    /// An integer comparison: `k` indexes the wasm order
    /// `eq ne lt_s lt_u gt_s gt_u le_s le_u ge_s ge_u`.
    pub fn icmp(&mut self, ty: ValType, k: u8) {
        debug_assert!(k < 10);
        let base = if ty == ValType::I64 { 0x51 } else { 0x46 };
        self.bytes.push(base + k);
    }

    /// A float comparison: `k` indexes the wasm order `eq ne lt gt le ge`.
    pub fn fcmp(&mut self, ty: ValType, k: u8) {
        debug_assert!(k < 6);
        let base = if ty == ValType::F64 { 0x61 } else { 0x5b };
        self.bytes.push(base + k);
    }

    /// An integer binary op: `k` indexes the wasm order starting at `add`
    /// (`add sub mul div_s div_u rem_s rem_u and or xor shl shr_s shr_u`).
    pub fn ibinary(&mut self, ty: ValType, k: u8) {
        debug_assert!(k < 13);
        let base = if ty == ValType::I64 { 0x7c } else { 0x6a };
        self.bytes.push(base + k);
    }

    /// A float binary op: `k` indexes `add sub mul div`.
    pub fn fbinary(&mut self, ty: ValType, k: u8) {
        debug_assert!(k < 4);
        let base = if ty == ValType::F64 { 0xa0 } else { 0x92 };
        self.bytes.push(base + k);
    }

    /// `i32.add`.
    pub fn i32_add(&mut self) {
        self.bytes.push(0x6a);
    }

    /// `i32.wrap_i64`.
    pub fn i32_wrap_i64(&mut self) {
        self.bytes.push(0xa7);
    }

    /// `i64.extend_i32_s` / `i64.extend_i32_u`.
    pub fn i64_extend_i32(&mut self, signed: bool) {
        self.bytes.push(if signed { 0xac } else { 0xad });
    }

    /// `f64.convert_i32_s`.
    pub fn f64_convert_i32_s(&mut self) {
        self.bytes.push(0xb7);
    }

    /// `f32.convert_i32_s`.
    pub fn f32_convert_i32_s(&mut self) {
        self.bytes.push(0xb2);
    }

    /// `f64.promote_f32`.
    pub fn f64_promote_f32(&mut self) {
        self.bytes.push(0xbb);
    }

    /// `f32.demote_f64`.
    pub fn f32_demote_f64(&mut self) {
        self.bytes.push(0xb6);
    }

    /// `i32.reinterpret_f32`.
    pub fn i32_reinterpret_f32(&mut self) {
        self.bytes.push(0xbc);
    }

    /// The encoded bytes so far.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

struct FuncDef {
    type_idx: u32,
    locals: Vec<ValType>,
    code: Vec<u8>,
}

/// Assembles a complete wasm binary from types, functions, an optional
/// memory, and function exports.
#[derive(Default)]
pub struct WasmBuilder {
    types: Vec<(Vec<ValType>, Vec<ValType>)>,
    funcs: Vec<FuncDef>,
    memory_pages: Option<u32>,
    exports: Vec<(String, u32)>,
}

impl WasmBuilder {
    /// An empty module.
    pub fn new() -> WasmBuilder {
        WasmBuilder::default()
    }

    /// Interns the function type `(params) -> (results)`, returning its
    /// type index (duplicates collapse, as real toolchains do).
    pub fn add_type(&mut self, params: &[ValType], results: &[ValType]) -> u32 {
        let key = (params.to_vec(), results.to_vec());
        if let Some(i) = self.types.iter().position(|t| *t == key) {
            return i as u32;
        }
        self.types.push(key);
        (self.types.len() - 1) as u32
    }

    /// Declares a memory with `min` initial 64 KiB pages and no maximum.
    pub fn add_memory(&mut self, min: u32) {
        self.memory_pages = Some(min);
    }

    /// Adds a function of type `type_idx` with the given extra locals and
    /// body (the body's final `end` is appended here). Returns the
    /// function index.
    pub fn add_function(&mut self, type_idx: u32, locals: &[ValType], body: CodeWriter) -> u32 {
        let mut code = body.bytes;
        code.push(0x0b); // end of the body expression
        self.funcs.push(FuncDef { type_idx, locals: locals.to_vec(), code });
        (self.funcs.len() - 1) as u32
    }

    /// Exports function `func` under `name`.
    pub fn export_func(&mut self, name: &str, func: u32) {
        self.exports.push((name.to_owned(), func));
    }

    /// Serializes the module to wasm bytes.
    pub fn finish(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_to(&mut out).expect("writing to a Vec cannot fail");
        out
    }

    /// Serializes the module section-by-section into `out` — the
    /// streaming re-encode used by the merge daemon's response path.
    /// Peak buffering is one section body (a section's LEB128 length
    /// prefix must precede its bytes), never the whole module, and each
    /// section reaches the writer as soon as it is complete.
    pub fn write_to<W: std::io::Write>(&self, out: &mut W) -> std::io::Result<()> {
        out.write_all(&crate::WASM_MAGIC)?;
        out.write_all(&crate::WASM_VERSION.to_le_bytes())?;

        if !self.types.is_empty() {
            let mut body = Vec::new();
            write_u32(&mut body, self.types.len() as u32);
            for (params, results) in &self.types {
                body.push(0x60);
                write_u32(&mut body, params.len() as u32);
                body.extend(params.iter().map(|v| v.byte()));
                write_u32(&mut body, results.len() as u32);
                body.extend(results.iter().map(|v| v.byte()));
            }
            section(out, 1, &body)?;
        }

        if !self.funcs.is_empty() {
            let mut body = Vec::new();
            write_u32(&mut body, self.funcs.len() as u32);
            for f in &self.funcs {
                write_u32(&mut body, f.type_idx);
            }
            section(out, 3, &body)?;
        }

        if let Some(min) = self.memory_pages {
            let mut body = Vec::new();
            write_u32(&mut body, 1);
            body.push(0x00); // limits: min only
            write_u32(&mut body, min);
            section(out, 5, &body)?;
        }

        if !self.exports.is_empty() {
            let mut body = Vec::new();
            write_u32(&mut body, self.exports.len() as u32);
            for (name, func) in &self.exports {
                write_u32(&mut body, name.len() as u32);
                body.extend_from_slice(name.as_bytes());
                body.push(0x00); // export kind: func
                write_u32(&mut body, *func);
            }
            section(out, 7, &body)?;
        }

        if !self.funcs.is_empty() {
            let mut body = Vec::new();
            write_u32(&mut body, self.funcs.len() as u32);
            for f in &self.funcs {
                let mut entry = Vec::new();
                // Locals as one run per declared local (simple, valid).
                write_u32(&mut entry, f.locals.len() as u32);
                for &l in &f.locals {
                    write_u32(&mut entry, 1);
                    entry.push(l.byte());
                }
                entry.extend_from_slice(&f.code);
                write_u32(&mut body, entry.len() as u32);
                body.extend_from_slice(&entry);
            }
            section(out, 10, &body)?;
        }

        Ok(())
    }
}

fn section<W: std::io::Write>(out: &mut W, id: u8, body: &[u8]) -> std::io::Result<()> {
    out.write_all(&[id])?;
    let mut len = Vec::new();
    write_u32(&mut len, body.len() as u32);
    out.write_all(&len)?;
    out.write_all(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_module_is_just_the_header() {
        let bytes = WasmBuilder::new().finish();
        assert_eq!(bytes, b"\0asm\x01\0\0\0");
        assert!(crate::parse_wasm(&bytes).is_ok());
    }

    #[test]
    fn write_to_matches_finish_exactly() {
        let mut b = WasmBuilder::new();
        let ty = b.add_type(&[ValType::I32, ValType::I32], &[ValType::I32]);
        let mut code = CodeWriter::new();
        code.local_get(0);
        code.local_get(1);
        code.i32_add();
        let f = b.add_function(ty, &[ValType::I32], code);
        b.add_memory(1);
        b.export_func("sum", f);
        let mut streamed = Vec::new();
        b.write_to(&mut streamed).unwrap();
        assert_eq!(streamed, b.finish());
        assert!(crate::parse_wasm(&streamed).is_ok());
    }

    #[test]
    fn write_to_propagates_io_errors() {
        struct Failing;
        impl std::io::Write for Failing {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("closed"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        assert!(WasmBuilder::new().write_to(&mut Failing).is_err());
    }

    #[test]
    fn type_interning_dedupes() {
        let mut b = WasmBuilder::new();
        let a = b.add_type(&[ValType::I32], &[]);
        let c = b.add_type(&[ValType::I32], &[]);
        let d = b.add_type(&[ValType::I64], &[]);
        assert_eq!(a, c);
        assert_ne!(a, d);
    }
}
