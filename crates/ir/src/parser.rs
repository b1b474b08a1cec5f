//! Parser for the textual form produced by [`crate::printer`].
//!
//! The grammar is exactly what the printer emits, which gives the crate a
//! round-trip property (`parse(print(m))` is structurally identical to `m`)
//! exercised by tests, and lets tests and examples write IR fixtures as
//! strings.

use crate::function::{Function, Linkage};
use crate::inst::{ExtraData, FloatPredicate, Inst, IntPredicate, LandingPadClause, Opcode};
use crate::module::Module;
use crate::types::{TyId, Type};
use crate::value::{BlockId, InstId, Value};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A parse failure with a source span (1-based line, 1-based column) and
/// message; `column` is `0` only for errors constructed without position
/// information (no current producer does, but consumers should not rely
/// on that).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// 1-based column within that line (`0` = unknown), counted on the
    /// original line including indentation.
    pub column: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.column > 0 {
            write!(f, "parse error at line {}:{}: {}", self.line, self.column, self.message)
        } else {
            write!(f, "parse error at line {}: {}", self.line, self.message)
        }
    }
}

impl Error for ParseError {}

type Result<T> = std::result::Result<T, ParseError>;

/// Parses a whole module from the printer's textual form.
///
/// # Errors
///
/// Returns a [`ParseError`] pointing at the first malformed line.
pub fn parse_module(text: &str) -> Result<Module> {
    let mut module = Module::new("parsed");
    // Pre-pass: create every function so call operands can be resolved
    // regardless of definition order.
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if let Some(rest) = line.strip_prefix("; module ") {
            module.name = rest.trim().to_owned();
        }
        if line.starts_with("define ") || line.starts_with("declare ") {
            let indent = raw.len() - raw.trim_start().len();
            let header = parse_header(&mut module, line, lineno + 1, indent)?;
            let mut f = Function::new(header.name.clone(), header.fn_ty, &module.types);
            f.linkage = header.linkage;
            for (i, n) in header.param_names.iter().enumerate() {
                // Rename parameters to the declared names.
                let p = &mut f.params_mut()[i];
                p.name = n.clone();
            }
            module.add_function(f);
        }
    }
    // Body pass.
    let mut lines = text.lines().enumerate().peekable();
    while let Some((lineno, raw)) = lines.next() {
        let line = raw.trim();
        if !line.starts_with("define ") {
            continue;
        }
        let indent = raw.len() - raw.trim_start().len();
        let header = parse_header(&mut module, line, lineno + 1, indent)?;
        let fid = module.func_by_name(&header.name).expect("created in pre-pass");
        // Collect this function's body lines, remembering each line's
        // indentation so columns refer to the original source.
        let mut body: Vec<(usize, usize, String)> = Vec::new();
        for (ln, braw) in lines.by_ref() {
            let b = braw.trim();
            if b == "}" {
                break;
            }
            if !b.is_empty() && !b.starts_with(';') {
                let ind = braw.len() - braw.trim_start().len();
                body.push((ln + 1, ind, b.to_owned()));
            }
        }
        parse_body(&mut module, fid, &header, &body)?;
    }
    Ok(module)
}

struct Header {
    name: String,
    fn_ty: TyId,
    linkage: Linkage,
    param_names: Vec<String>,
}

fn err_at(line: usize, column: usize, message: impl Into<String>) -> ParseError {
    ParseError { line, column, message: message.into() }
}

fn parse_header(module: &mut Module, line: &str, lineno: usize, col0: usize) -> Result<Header> {
    let rest = line
        .strip_prefix("define ")
        .or_else(|| line.strip_prefix("declare "))
        .ok_or_else(|| err_at(lineno, col0 + 1, "expected define/declare"))?;
    let (rest, linkage) = match rest.strip_prefix("internal ") {
        Some(r) => (r, Linkage::Internal),
        None => (rest, Linkage::External),
    };
    // 0-based column of `rest[0]` in the original line.
    let rest_col = col0 + (line.len() - rest.len());
    let at = rest.find('@').ok_or_else(|| err_at(lineno, rest_col + 1, "missing @name"))?;
    let ret_str = rest[..at].trim();
    let mut cur = Cursor::new_at(ret_str, lineno, trimmed_start(rest_col, &rest[..at]));
    let ret_ty = parse_type(module, &mut cur)?;
    let after = &rest[at + 1..];
    let after_col = rest_col + at + 1;
    let paren = after.find('(').ok_or_else(|| err_at(lineno, after_col + 1, "missing ("))?;
    let name = after[..paren].trim().to_owned();
    let close = after.rfind(')').ok_or_else(|| err_at(lineno, after_col + 1, "missing )"))?;
    let params_str = &after[paren + 1..close];
    let params_col = after_col + paren + 1;
    let mut param_tys = Vec::new();
    let mut param_names = Vec::new();
    for (off, part) in split_top_level(params_str) {
        let part_col = trimmed_start(params_col + off, &part);
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let pct =
            part.rfind('%').ok_or_else(|| err_at(lineno, part_col + 1, "param missing %name"))?;
        let mut tcur = Cursor::new_at(part[..pct].trim(), lineno, part_col);
        param_tys.push(parse_type(module, &mut tcur)?);
        param_names.push(part[pct + 1..].trim().to_owned());
    }
    let fn_ty = module.types.func(ret_ty, param_tys);
    Ok(Header { name, fn_ty, linkage, param_names })
}

fn parse_body(
    module: &mut Module,
    fid: crate::value::FuncId,
    header: &Header,
    body: &[(usize, usize, String)],
) -> Result<()> {
    // First sub-pass: create blocks and pre-assign instruction ids so that
    // forward references (branches, loop-carried φs) resolve.
    let mut block_by_name: HashMap<String, BlockId> = HashMap::new();
    let mut inst_by_name: HashMap<String, InstId> = HashMap::new();
    let mut next_inst = 0u32;
    for (ln, indent, line) in body {
        if let Some(label) = line.strip_suffix(':') {
            let b = module.func_mut(fid).add_block(strip_block_index(label));
            if block_by_name.insert(label.to_owned(), b).is_some() {
                return Err(err_at(*ln, indent + 1, format!("duplicate label {label}")));
            }
        } else {
            if let Some(eq) = defining_name(line) {
                inst_by_name.insert(eq, InstId::from_index(next_inst as usize));
            }
            next_inst += 1;
        }
    }
    let mut param_by_name: HashMap<String, u32> = HashMap::new();
    for (i, n) in header.param_names.iter().enumerate() {
        param_by_name.insert(n.clone(), i as u32);
    }
    let ctx = NameCtx { block_by_name, inst_by_name, param_by_name };
    // Second sub-pass: parse instructions in order.
    let mut cur_block: Option<BlockId> = None;
    for (ln, indent, line) in body {
        if let Some(label) = line.strip_suffix(':') {
            cur_block = Some(ctx.block_by_name[label]);
            continue;
        }
        let block =
            cur_block.ok_or_else(|| err_at(*ln, indent + 1, "instruction before first label"))?;
        let inst = parse_inst(module, fid, &ctx, line, *ln, *indent)?;
        module.func_mut(fid).append_inst(block, inst);
    }
    Ok(())
}

/// The block name behind a printed label: the printer writes a named
/// block as `name.<index>` and an unnamed one as `bb<index>`.
fn strip_block_index(label: &str) -> String {
    let is_index = |s: &str| s.chars().all(|c| c.is_ascii_digit());
    match label.rsplit_once('.') {
        Some((name, idx)) if is_index(idx) => name.to_owned(),
        None if label.strip_prefix("bb").is_some_and(|idx| !idx.is_empty() && is_index(idx)) => {
            String::new()
        }
        _ => label.to_owned(),
    }
}

fn defining_name(line: &str) -> Option<String> {
    let eq = line.find(" = ")?;
    let lhs = line[..eq].trim();
    lhs.strip_prefix('%').map(str::to_owned)
}

struct NameCtx {
    block_by_name: HashMap<String, BlockId>,
    inst_by_name: HashMap<String, InstId>,
    param_by_name: HashMap<String, u32>,
}

/// Splits on top-level commas (ignoring commas inside `[]`, `{}`, `()`),
/// returning each part with the byte offset of its first character in
/// `s`, so callers can report real columns inside the parts.
fn split_top_level(s: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut cur = String::new();
    let mut start = 0usize;
    for (k, c) in s.char_indices() {
        match c {
            '[' | '{' | '(' | '<' => depth += 1,
            ']' | '}' | ')' | '>' => depth -= 1,
            ',' if depth == 0 => {
                out.push((start, std::mem::take(&mut cur)));
                start = k + 1;
                continue;
            }
            _ => {}
        }
        cur.push(c);
    }
    if !cur.trim().is_empty() {
        out.push((start, cur));
    }
    out
}

/// Byte offset of the first non-space character of `part` relative to the
/// split offset (parts keep their leading whitespace).
fn trimmed_start(off: usize, part: &str) -> usize {
    off + (part.len() - part.trim_start().len())
}

struct Cursor<'a> {
    s: &'a str,
    pos: usize,
    line: usize,
    /// 0-based column of `s[0]` within the original source line, so
    /// errors report real columns even when parsing a sub-slice.
    col0: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor over a sub-slice that starts at column `col0` (0-based)
    /// of the original line.
    fn new_at(s: &'a str, line: usize, col0: usize) -> Cursor<'a> {
        Cursor { s, pos: 0, line, col0 }
    }
    /// 1-based column of the next unparsed character.
    fn column(&self) -> usize {
        self.col0 + self.pos + 1
    }
    /// 0-based column of [`Cursor::rest`]'s first character — the base to
    /// hand to sub-cursors parsing a slice of the remainder.
    fn rest_base(&self) -> usize {
        self.col0 + self.pos
    }
    /// An error pointing at the current position.
    fn fail(&self, message: impl Into<String>) -> ParseError {
        err_at(self.line, self.column(), message)
    }
    fn rest(&self) -> &'a str {
        &self.s[self.pos..]
    }
    fn skip_ws(&mut self) {
        while self.rest().starts_with(' ') {
            self.pos += 1;
        }
    }
    fn eat(&mut self, tok: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(tok) {
            self.pos += tok.len();
            true
        } else {
            false
        }
    }
    fn expect(&mut self, tok: &str) -> Result<()> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(self.fail(format!("expected {tok:?} at {:?}", self.rest())))
        }
    }
    fn word(&mut self) -> &'a str {
        self.skip_ws();
        let start = self.pos;
        while self
            .rest()
            .chars()
            .next()
            .map(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-' || c == '+')
            .unwrap_or(false)
        {
            self.pos += 1;
        }
        &self.s[start..self.pos]
    }
    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.rest().is_empty()
    }
}

fn parse_type(module: &mut Module, cur: &mut Cursor<'_>) -> Result<TyId> {
    cur.skip_ws();
    let mut base = if cur.eat("<{") {
        let mut fields = Vec::new();
        loop {
            fields.push(parse_type(module, cur)?);
            if !cur.eat(",") {
                break;
            }
        }
        cur.expect("}>")?;
        module.types.packed_struct(fields)
    } else if cur.eat("{") {
        let mut fields = Vec::new();
        loop {
            fields.push(parse_type(module, cur)?);
            if !cur.eat(",") {
                break;
            }
        }
        cur.expect("}")?;
        module.types.struct_(fields)
    } else if cur.eat("[") {
        cur.skip_ws();
        let len_col = cur.column();
        let n: u64 = cur.word().parse().map_err(|_| err_at(cur.line, len_col, "array length"))?;
        cur.expect("x")?;
        let elem = parse_type(module, cur)?;
        cur.expect("]")?;
        module.types.array(elem, n)
    } else {
        cur.skip_ws();
        let ty_col = cur.column();
        let w = cur.word();
        match w {
            "void" => module.types.void(),
            "label" => module.types.label(),
            "half" => module.types.half(),
            "float" => module.types.f32(),
            "double" => module.types.f64(),
            _ if w.starts_with('i') => {
                let bits: u32 = w[1..]
                    .parse()
                    .map_err(|_| err_at(cur.line, ty_col, format!("bad type {w:?}")))?;
                module.types.int(bits)
            }
            _ => return Err(err_at(cur.line, ty_col, format!("unknown type {w:?}"))),
        }
    };
    loop {
        cur.skip_ws();
        if cur.rest().starts_with('*') {
            cur.pos += 1;
            base = module.types.ptr(base);
        } else if cur.eat("(") {
            // A function type, printed as `ret (params[, ...])`.
            let mut params = Vec::new();
            let mut varargs = false;
            if !cur.eat(")") {
                loop {
                    if cur.eat("...") {
                        varargs = true;
                        cur.expect(")")?;
                        break;
                    }
                    params.push(parse_type(module, cur)?);
                    if !cur.eat(",") {
                        cur.expect(")")?;
                        break;
                    }
                }
            }
            base = if varargs {
                module.types.varargs_func(base, params)
            } else {
                module.types.func(base, params)
            };
        } else {
            break;
        }
    }
    Ok(base)
}

fn parse_value(module: &mut Module, ctx: &NameCtx, cur: &mut Cursor<'_>) -> Result<Value> {
    cur.skip_ws();
    if cur.eat("label") {
        cur.expect("%")?;
        let name_col = cur.column() - 1; // include the consumed '%'
        let name = cur.word();
        let b = ctx
            .block_by_name
            .get(name)
            .ok_or_else(|| err_at(cur.line, name_col, format!("unknown label %{name}")))?;
        return Ok(Value::Block(*b));
    }
    if cur.rest().starts_with('@') {
        let name_col = cur.column();
        cur.pos += 1;
        let name = cur.word();
        let f = module
            .func_by_name(name)
            .ok_or_else(|| err_at(cur.line, name_col, format!("unknown function @{name}")))?;
        return Ok(Value::Func(f));
    }
    let ty = parse_type(module, cur)?;
    cur.skip_ws();
    if cur.eat("%") {
        let name_col = cur.column() - 1;
        let name = cur.word();
        if let Some(&i) = ctx.inst_by_name.get(name) {
            return Ok(Value::Inst(i));
        }
        if let Some(&p) = ctx.param_by_name.get(name) {
            return Ok(Value::Param(p));
        }
        return Err(err_at(cur.line, name_col, format!("unknown value %{name}")));
    }
    if cur.eat("null") {
        return Ok(Value::ConstNull(ty));
    }
    if cur.eat("undef") {
        return Ok(Value::Undef(ty));
    }
    cur.skip_ws();
    let const_col = cur.column();
    let w = cur.word();
    if module.types.is_float(ty) {
        let bad = || err_at(cur.line, const_col, format!("bad float {w:?}"));
        let is_f32 = matches!(module.types.get(ty), Type::Float);
        let bits = if let Some(hex) = w.strip_prefix("0x") {
            // Raw bits: the printer's form for a NaN other than `NaN`'s.
            if is_f32 {
                u32::from_str_radix(hex, 16).map(u64::from)
            } else {
                u64::from_str_radix(hex, 16)
            }
            .map_err(|_| bad())?
        } else {
            let x: f64 = w.parse().map_err(|_| bad())?;
            if is_f32 {
                (x as f32).to_bits() as u64
            } else {
                x.to_bits()
            }
        };
        return Ok(Value::ConstFloat { ty, bits });
    }
    let v: i64 = w.parse().map_err(|_| err_at(cur.line, const_col, format!("bad int {w:?}")))?;
    let width = module.types.int_width(ty).unwrap_or(64);
    let bits = if width >= 64 { v as u64 } else { (v as u64) & ((1u64 << width) - 1) };
    Ok(Value::ConstInt { ty, bits })
}

fn parse_values_csv(
    module: &mut Module,
    ctx: &NameCtx,
    s: &str,
    line: usize,
    col0: usize,
) -> Result<Vec<Value>> {
    let mut out = Vec::new();
    for (off, part) in split_top_level(s) {
        let part_col = trimmed_start(col0 + off, &part);
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let mut cur = Cursor::new_at(part, line, part_col);
        out.push(parse_value(module, ctx, &mut cur)?);
    }
    Ok(out)
}

#[allow(clippy::too_many_lines)]
fn parse_inst(
    module: &mut Module,
    fid: crate::value::FuncId,
    ctx: &NameCtx,
    line: &str,
    ln: usize,
    col0: usize,
) -> Result<Inst> {
    let (body, body_col) = match line.find(" = ") {
        Some(eq) if line.starts_with('%') => (&line[eq + 3..], col0 + eq + 3),
        _ => (line, col0),
    };
    let mut cur = Cursor::new_at(body, ln, body_col);
    cur.skip_ws();
    let mnemonic_col = cur.column();
    let mnemonic = cur.word().to_owned();
    let void = module.types.void();
    let op = Opcode::from_mnemonic(&mnemonic)
        .ok_or_else(|| err_at(ln, mnemonic_col, format!("unknown opcode {mnemonic:?}")))?;
    let inst = match op {
        Opcode::Ret => {
            // `ret void`, but not a value of a type like `void ()*`.
            if cur.rest().trim() == "void" {
                Inst::new(Opcode::Ret, void, vec![])
            } else {
                let v = parse_value(module, ctx, &mut cur)?;
                Inst::new(Opcode::Ret, void, vec![v])
            }
        }
        Opcode::Br
        | Opcode::CondBr
        | Opcode::Switch
        | Opcode::Store
        | Opcode::Select
        | Opcode::Resume => {
            let vals = parse_values_csv(module, ctx, cur.rest(), ln, cur.rest_base())?;
            let ty = match op {
                Opcode::Select => value_ty_in(module, fid, vals[1]),
                _ => void,
            };
            Inst::new(op, ty, vals)
        }
        Opcode::Unreachable => Inst::new(op, void, vec![]),
        Opcode::ICmp => {
            cur.skip_ws();
            let pred_col = cur.column();
            let p = IntPredicate::from_mnemonic(cur.word())
                .ok_or_else(|| err_at(ln, pred_col, "bad icmp predicate"))?;
            let vals = parse_values_csv(module, ctx, cur.rest(), ln, cur.rest_base())?;
            Inst::with_extra(op, module.types.i1(), vals, ExtraData::ICmp(p))
        }
        Opcode::FCmp => {
            cur.skip_ws();
            let pred_col = cur.column();
            let p = FloatPredicate::from_mnemonic(cur.word())
                .ok_or_else(|| err_at(ln, pred_col, "bad fcmp predicate"))?;
            let vals = parse_values_csv(module, ctx, cur.rest(), ln, cur.rest_base())?;
            Inst::with_extra(op, module.types.i1(), vals, ExtraData::FCmp(p))
        }
        Opcode::Alloca => {
            let ty = parse_type(module, &mut cur)?;
            if !cur.at_end() {
                return Err(cur.fail(format!("unexpected {:?} after the alloca type", cur.rest())));
            }
            let ptr = module.types.ptr(ty);
            Inst::with_extra(op, ptr, vec![], ExtraData::Alloca { allocated: ty })
        }
        Opcode::Load => {
            let v_col = cur.column();
            let v = parse_value(module, ctx, &mut cur)?;
            let pt = value_ty_in(module, fid, v);
            let pointee =
                module.types.pointee(pt).ok_or_else(|| err_at(ln, v_col, "load from non-ptr"))?;
            Inst::new(op, pointee, vec![v])
        }
        Opcode::Gep => {
            let src = parse_type(module, &mut cur)?;
            cur.expect("->")?;
            let res = parse_type(module, &mut cur)?;
            cur.expect(",")?;
            let vals = parse_values_csv(module, ctx, cur.rest(), ln, cur.rest_base())?;
            Inst::with_extra(op, res, vals, ExtraData::Gep { source_elem: src })
        }
        Opcode::Phi => {
            let ty = parse_type(module, &mut cur)?;
            let mut vals = Vec::new();
            let mut blocks = Vec::new();
            let parts_base = cur.rest_base();
            for (off, part) in split_top_level(cur.rest()) {
                let part_col = trimmed_start(parts_base + off, &part);
                let part = part.trim();
                let inner = part
                    .strip_prefix('[')
                    .and_then(|s| s.strip_suffix(']'))
                    .ok_or_else(|| err_at(ln, part_col + 1, "phi pair"))?;
                let (vs, bs) =
                    inner.rsplit_once(',').ok_or_else(|| err_at(ln, part_col + 1, "phi pair"))?;
                let mut vc = Cursor::new_at(vs.trim(), ln, trimmed_start(part_col + 1, vs));
                vals.push(parse_value(module, ctx, &mut vc)?);
                let label_col = trimmed_start(part_col + 1 + vs.len() + 1, bs) + 1;
                let bname = bs
                    .trim()
                    .strip_prefix('%')
                    .ok_or_else(|| err_at(ln, label_col, "phi label"))?;
                blocks.push(
                    *ctx.block_by_name
                        .get(bname)
                        .ok_or_else(|| err_at(ln, label_col, format!("unknown label {bname}")))?,
                );
            }
            Inst::with_extra(op, ty, vals, ExtraData::Phi { incoming: blocks })
        }
        Opcode::LandingPad => {
            let ty = parse_type(module, &mut cur)?;
            let mut cleanup = false;
            let mut clauses = Vec::new();
            loop {
                if cur.eat("cleanup") {
                    cleanup = true;
                } else if cur.eat("catch") {
                    cur.expect("@")?;
                    clauses.push(LandingPadClause::Catch(cur.word().to_owned()));
                } else if cur.eat("filter") {
                    cur.expect("[")?;
                    let close = cur.rest().find(']').ok_or_else(|| cur.fail("filter missing ]"))?;
                    let syms = cur.rest()[..close]
                        .split(',')
                        .map(|s| s.trim().to_owned())
                        .filter(|s| !s.is_empty())
                        .collect();
                    cur.pos += close + 1;
                    clauses.push(LandingPadClause::Filter(syms));
                } else {
                    break;
                }
            }
            Inst::with_extra(op, ty, vec![], ExtraData::LandingPad { clauses, cleanup })
        }
        Opcode::ExtractValue | Opcode::InsertValue => {
            let rest = cur.rest();
            let rest_base = cur.rest_base();
            let bracket = rest.rfind('[').ok_or_else(|| cur.fail("missing indices"))?;
            let idx_col = rest_base + bracket + 2;
            let idxs: Vec<u32> = rest[bracket + 1..]
                .trim_end_matches(']')
                .split(',')
                .map(|s| s.trim().parse().map_err(|_| err_at(ln, idx_col, "bad index")))
                .collect::<Result<_>>()?;
            let vals = parse_values_csv(
                module,
                ctx,
                rest[..bracket].trim_end_matches(", "),
                ln,
                rest_base,
            )?;
            // Result type: for extractvalue we can't know without walking
            // the aggregate; printer includes it implicitly via load-like
            // usage. We recompute from the aggregate type.
            let ty = match op {
                Opcode::InsertValue => value_ty_in(module, fid, vals[0]),
                Opcode::ExtractValue => {
                    extract_result_ty(module, value_ty_in(module, fid, vals[0]), &idxs)
                        .ok_or_else(|| err_at(ln, idx_col, "bad extractvalue indices"))?
                }
                _ => unreachable!(),
            };
            Inst::with_extra(op, ty, vals, ExtraData::AggIndices(idxs))
        }
        Opcode::Call | Opcode::Invoke => {
            let ret = parse_type(module, &mut cur)?;
            // The callee is `@name` or a typed value whose type may have
            // parentheses of its own (`i32 (i32)* %v0`).
            let callee = parse_value(module, ctx, &mut cur)?;
            cur.expect("(")?;
            let rest = cur.rest();
            let rest_base = cur.rest_base();
            let close = rest.rfind(')').ok_or_else(|| cur.fail("call missing )"))?;
            let mut operands = vec![callee];
            operands.extend(parse_values_csv(module, ctx, &rest[..close], ln, rest_base)?);
            if op == Opcode::Invoke {
                let tail = &rest[close + 1..];
                let tail_base = rest_base + close + 1;
                let to = tail
                    .find("to")
                    .ok_or_else(|| err_at(ln, tail_base + 1, "invoke missing to"))?;
                let unwind = tail
                    .find("unwind")
                    .ok_or_else(|| err_at(ln, tail_base + 1, "invoke missing unwind"))?;
                let ns = &tail[to + 2..unwind];
                let mut nc = Cursor::new_at(ns.trim(), ln, trimmed_start(tail_base + to + 2, ns));
                operands.push(parse_value(module, ctx, &mut nc)?);
                let us = &tail[unwind + 6..];
                let mut uc =
                    Cursor::new_at(us.trim(), ln, trimmed_start(tail_base + unwind + 6, us));
                operands.push(parse_value(module, ctx, &mut uc)?);
            }
            Inst::new(op, ret, operands)
        }
        cast if cast.is_cast() => {
            let rest = cur.rest();
            let rest_base = cur.rest_base();
            let to = rest.rfind(" to ").ok_or_else(|| cur.fail("cast missing to"))?;
            let mut vc =
                Cursor::new_at(rest[..to].trim(), ln, trimmed_start(rest_base, &rest[..to]));
            let v = parse_value(module, ctx, &mut vc)?;
            let ts = &rest[to + 4..];
            let mut tc = Cursor::new_at(ts.trim(), ln, trimmed_start(rest_base + to + 4, ts));
            let ty = parse_type(module, &mut tc)?;
            Inst::new(cast, ty, vec![v])
        }
        binop => {
            let vals = parse_values_csv(module, ctx, cur.rest(), ln, cur.rest_base())?;
            let ty = vals
                .first()
                .map(|&v| value_ty_in(module, fid, v))
                .ok_or_else(|| cur.fail("binary op without operands"))?;
            Inst::new(binop, ty, vals)
        }
    };
    Ok(inst)
}

fn value_ty_in(module: &Module, fid: crate::value::FuncId, v: Value) -> TyId {
    match v {
        Value::Func(f) => module.func(f).fn_ty(),
        Value::Inst(i) => {
            // Forward references during parsing: the instruction may not be
            // materialized yet; parsing order guarantees operands of
            // non-φ instructions are already present, and φ result types
            // come from the explicit type annotation, so this lookup is
            // only reached for defined instructions.
            module.func(fid).inst(i).ty
        }
        _ => module.func(fid).value_ty(v, &module.types),
    }
}

fn extract_result_ty(module: &Module, agg: TyId, idxs: &[u32]) -> Option<TyId> {
    let mut ty = agg;
    for &i in idxs {
        ty = match module.types.get(ty) {
            crate::types::Type::Struct { fields, .. } => *fields.get(i as usize)?,
            crate::types::Type::Array { elem, .. } => *elem,
            _ => return None,
        };
    }
    Some(ty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::printer::print_module;
    use crate::verifier::verify_module;

    #[test]
    fn parses_simple_function() {
        let text = "\
define internal i32 @max(i32 %a, i32 %b) {
entry.0:
  %v0 = icmp sgt i32 %a, i32 %b
  condbr i1 %v0, label %t.1, label %e.2
t.1:
  ret i32 %a
e.2:
  ret i32 %b
}
";
        let m = parse_module(text).expect("parses");
        let f = m.func_by_name("max").expect("function exists");
        assert_eq!(m.func(f).inst_count(), 4);
        assert_eq!(m.func(f).block_count(), 3);
        assert!(verify_module(&m).is_empty(), "{:?}", verify_module(&m));
    }

    #[test]
    fn roundtrip_via_printer() {
        let mut m = Module::new("rt");
        let i32t = m.types.i32();
        let f64t = m.types.f64();
        let fn_ty = m.types.func(f64t, vec![i32t, f64t]);
        let f = m.create_function("mix", fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let entry = b.block("entry");
        let more = b.block("more");
        let out = b.block("out");
        b.switch_to(entry);
        let slot = b.alloca(f64t);
        b.store(Value::Param(1), slot);
        let c = b.icmp(IntPredicate::Slt, Value::Param(0), b.const_i32(10));
        b.condbr(c, more, out);
        b.switch_to(more);
        let x = b.load(slot);
        let y = b.fmul(x, b.const_f64(2.5));
        b.store(y, slot);
        b.br(out);
        b.switch_to(out);
        let r = b.load(slot);
        b.ret(Some(r));
        let text1 = print_module(&m);
        let m2 = parse_module(&text1).expect("roundtrip parse");
        let text2 = print_module(&m2);
        assert_eq!(text1, text2);
        assert!(verify_module(&m2).is_empty());
    }

    /// Bits of every float constant operand of `m`'s first function.
    fn float_bits(m: &Module) -> Vec<u64> {
        let f = m.func(m.func_ids()[0]);
        f.inst_ids()
            .into_iter()
            .flat_map(|i| f.inst(i).operands.clone())
            .filter_map(|v| match v {
                Value::ConstFloat { bits, .. } => Some(bits),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn nan_constants_keep_sign_and_payload() {
        let mut m = Module::new("nan");
        let f32t = m.types.f32();
        let f64t = m.types.f64();
        let fn_ty = m.types.func(m.types.void(), vec![f32t, f64t]);
        let f = m.create_function("nans", fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let entry = b.block("entry");
        b.switch_to(entry);
        // Negative, payload and signaling NaNs, then the parser's own
        // NaN, which prints as `NaN`.
        let doubles = [0xfff8_0000_0000_0000u64, 0x7ff8_0000_0000_0001, 0x7ff0_0000_0000_0001];
        let floats = [0xffc0_0000u32, 0x7fc0_0001, 0x7f80_0001];
        for bits in doubles.into_iter().chain([f64::NAN.to_bits()]) {
            b.fadd(Value::Param(1), Value::ConstFloat { ty: f64t, bits });
        }
        for bits in floats.into_iter().chain([f32::NAN.to_bits()]) {
            b.fadd(Value::Param(0), Value::ConstFloat { ty: f32t, bits: u64::from(bits) });
        }
        b.ret(None);
        let text = print_module(&m);
        assert!(text.contains("double 0xfff8000000000000"), "{text}");
        assert!(text.contains("float 0x7f800001"), "{text}");
        assert_eq!(text.matches(" NaN").count(), 2, "{text}");
        let parsed = parse_module(&text).expect("parses");
        assert_eq!(float_bits(&parsed), float_bits(&m));
        assert_eq!(print_module(&parsed), text);
        // `NaN` itself parses to the bits the printer leaves as `NaN`.
        let canonical = "define internal void @f(float %a0, double %a1) {\nentry.0:\n  \
            %v0 = fadd float %a0, float NaN\n  %v1 = fadd double %a1, double NaN\n  ret void\n}\n";
        let m = parse_module(canonical).expect("parses");
        assert_eq!(float_bits(&m), vec![0x7fc0_0000, 0x7ff8_0000_0000_0000]);
    }

    #[test]
    fn parses_calls_and_phis() {
        let text = "\
define internal i32 @callee(i32 %x) {
entry.0:
  ret i32 %x
}

define internal i32 @caller(i1 %c) {
entry.0:
  condbr i1 %c, label %a.1, label %b.2
a.1:
  %v1 = call i32 @callee(i32 1)
  br label %join.3
b.2:
  %v3 = call i32 @callee(i32 2)
  br label %join.3
join.3:
  %v5 = phi i32 [ i32 %v1, %a.1 ], [ i32 %v3, %b.2 ]
  ret i32 %v5
}
";
        let m = parse_module(text).expect("parses");
        assert!(verify_module(&m).is_empty(), "{:?}", verify_module(&m));
        let caller = m.func_by_name("caller").expect("exists");
        let f = m.func(caller);
        let phis = f.inst_ids().into_iter().filter(|&i| f.inst(i).opcode == Opcode::Phi).count();
        assert_eq!(phis, 1);
    }

    #[test]
    fn error_has_line_and_column() {
        let text = "\
define internal i32 @broken() {
entry.0:
  %v0 = frobnicate i32 1
}
";
        let e = parse_module(text).expect_err("should fail");
        assert_eq!(e.line, 3);
        // Column points at the mnemonic, counting the 2-space indent.
        assert_eq!(e.column, 9, "{e}");
        assert!(e.message.contains("frobnicate"));
        assert!(e.to_string().contains("line 3:9"), "{e}");
    }

    #[test]
    fn column_spans_point_into_operands() {
        // The bad operand is the unknown value %nope.
        let text = "\
define internal i32 @f(i32 %a) {
entry.0:
  %v0 = add i32 %a, i32 %nope
  ret i32 %v0
}
";
        let e = parse_module(text).expect_err("should fail");
        assert_eq!(e.line, 3);
        let col = text.lines().nth(2).expect("line 3").find("%nope").expect("present") + 1;
        assert_eq!(e.column, col, "{e}");
        assert!(e.message.contains("%nope"), "{e}");
    }

    #[test]
    fn header_type_errors_have_columns() {
        let text = "define internal wat @f() {\n}\n";
        let e = parse_module(text).expect_err("bad ret type");
        assert_eq!(e.line, 1);
        assert_eq!(e.column, 17, "{e}");
    }

    #[test]
    fn parses_struct_and_array_types() {
        let text = "\
define internal { i32, double* } @agg([4 x i8]* %p) {
entry.0:
  ret { i32, double* } undef
}
";
        let m = parse_module(text).expect("parses");
        let f = m.func_by_name("agg").expect("exists");
        let ts = &m.types;
        assert_eq!(ts.display(m.func(f).ret_ty(ts)), "{ i32, double* }");
        assert_eq!(ts.display(m.func(f).params()[0].ty), "[4 x i8]*");
    }

    #[test]
    fn parses_function_types() {
        let text = "\
; module m

define internal i32 @target(i32 %x) {
entry.0:
  ret i32 %x
}

define internal i32 (i32)* @pick(i32 (i32)** %slot, i32 %x) {
entry.0:
  %v0 = alloca i32 (i8*, ...)*
  %v1 = alloca void (...)*
  %v2 = load void (...)** %v1
  store void (...)* %v2, void (...)** %v1
  %v4 = load i32 (i32)** %slot
  %v5 = call i32 i32 (i32)* %v4(i32 %x)
  ret i32 (i32)* %v4
}
";
        let m = parse_module(text).expect("parses");
        assert_eq!(print_module(&m), text);
        let ts = &m.types;
        let f = m.func(m.func_by_name("pick").expect("exists"));
        assert_eq!(ts.display(f.ret_ty(ts)), "i32 (i32)*");
        let allocated: Vec<String> = f
            .inst_ids()
            .into_iter()
            .filter_map(|i| match &f.inst(i).extra {
                ExtraData::Alloca { allocated } => Some(ts.display(*allocated)),
                _ => None,
            })
            .collect();
        assert_eq!(allocated, ["i32 (i8*, ...)*", "void (...)*"]);
    }

    #[test]
    fn alloca_rejects_trailing_text() {
        let text =
            "define internal void @f() {\nentry.0:\n  %v0 = alloca i32 junk\n  ret void\n}\n";
        let e = parse_module(text).expect_err("trailing text after the type");
        assert_eq!((e.line, e.column), (3, 20), "{e}");
        assert!(e.message.contains("junk"), "{e}");
    }

    #[test]
    fn unnamed_blocks_keep_their_printed_labels() {
        let text = "\
; module m

define internal i32 @f(i1 %c) {
bb0:
  condbr i1 %c, label %bb1, label %bb.2
bb1:
  ret i32 1
bb.2:
  ret i32 2
}
";
        let m = parse_module(text).expect("parses");
        let f = m.func(m.func_by_name("f").expect("exists"));
        let names: Vec<&str> = f.block_ids().map(|b| f.block(b).name.as_str()).collect();
        assert_eq!(names, ["", "", "bb"]);
        assert_eq!(print_module(&m), text);
    }

    use crate::inst::IntPredicate;
}
