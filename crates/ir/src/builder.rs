//! Assembler-style construction of programs.
//!
//! [`ProgramBuilder`] mints functions; [`FunctionBuilder`] mints blocks and
//! hands out [`BlockCursor`]s that append instructions with one chainable
//! method per opcode. Instruction tags are assigned globally by the program
//! builder so every static instruction in the finished program has a unique
//! [`InstTag`].

use crate::inst::{AluKind, CmpKind, FAluKind, Inst, InstTag, Op, Operand};
use crate::program::{Block, BlockId, FuncId, Function, Image, Program};
use crate::reg::Reg;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

/// Builds a [`Program`] out of functions.
///
/// # Example
///
/// ```
/// use ssp_ir::{ProgramBuilder, Reg};
/// let mut pb = ProgramBuilder::new();
/// let mut f = pb.function("main");
/// let e = f.entry_block();
/// f.at(e).movi(Reg(1), 42).halt();
/// let main = f.finish();
/// let prog = pb.finish_with(main);
/// assert_eq!(prog.funcs.len(), 1);
/// ```
#[derive(Debug)]
pub struct ProgramBuilder {
    funcs: Vec<Function>,
    image: Image,
    next_tag: Rc<Cell<u32>>,
    next_func: u32,
}

impl Default for ProgramBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgramBuilder {
    /// Create an empty program builder.
    pub fn new() -> Self {
        ProgramBuilder {
            funcs: Vec::new(),
            image: Image::default(),
            next_tag: Rc::new(Cell::new(0)),
            next_func: 0,
        }
    }

    /// Reserve a function id and start building its body.
    ///
    /// Functions must be finished (via [`FunctionBuilder::finish`]) in the
    /// order they were created; [`ProgramBuilder::finish`] checks this.
    pub fn function(&mut self, name: &str) -> FunctionBuilder {
        let id = FuncId(self.next_func);
        self.next_func += 1;
        FunctionBuilder {
            id,
            func: Function {
                name: name.to_owned(),
                blocks: vec![Block::default()],
                entry: BlockId(0),
            },
            next_tag: Rc::clone(&self.next_tag),
        }
    }

    /// Reserve a function id without building it yet, so mutually
    /// recursive functions can call each other by id.
    pub fn declare(&mut self) -> FuncId {
        let id = FuncId(self.next_func);
        self.next_func += 1;
        id
    }

    /// Start building the body of a previously [`ProgramBuilder::declare`]d
    /// function.
    pub fn define(&mut self, id: FuncId, name: &str) -> FunctionBuilder {
        FunctionBuilder {
            id,
            func: Function {
                name: name.to_owned(),
                blocks: vec![Block::default()],
                entry: BlockId(0),
            },
            next_tag: Rc::clone(&self.next_tag),
        }
    }

    /// Register a finished function body under its reserved id.
    ///
    /// # Panics
    ///
    /// Panics if a body was already added for this id or if bodies are
    /// added out of id order (use [`ProgramBuilder::declare`] +
    /// late `add` for forward references; ids must still arrive in order).
    pub fn add(&mut self, id: FuncId, func: Function) {
        assert_eq!(
            id.0 as usize,
            self.funcs.len(),
            "function bodies must be added in id order; got {id} with {} bodies present",
            self.funcs.len()
        );
        self.funcs.push(func);
    }

    /// Add one initialized 64-bit word to the data image; a repeated
    /// address keeps its last value.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned.
    pub fn data_word(&mut self, addr: u64, value: u64) -> &mut Self {
        self.image.insert(addr, value);
        self
    }

    /// Add consecutive initialized words starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is not empty and `addr` is not 8-byte aligned.
    pub fn data_words(&mut self, addr: u64, values: &[u64]) -> &mut Self {
        for (i, &v) in values.iter().enumerate() {
            self.image.insert(addr + 8 * i as u64, v);
        }
        self
    }

    /// Finish the program with the given entry function, consuming any
    /// function bodies registered so far and freezing the data image.
    ///
    /// The `main` argument is accepted by value purely for call-site
    /// readability (`pb.finish(main_fn_result)`); it must equal an id whose
    /// body was added.
    ///
    /// # Panics
    ///
    /// Panics if some declared function has no body, or `entry` is out of
    /// range.
    pub fn finish(self, entry: FuncId) -> Program {
        assert_eq!(
            self.funcs.len(),
            self.next_func as usize,
            "{} function(s) declared but only {} bodies added",
            self.next_func,
            self.funcs.len()
        );
        assert!((entry.0 as usize) < self.funcs.len(), "entry {entry} out of range");
        let image = Arc::new(self.image);
        Program { funcs: self.funcs, entry, image, next_tag: self.next_tag.get() }
    }
}

/// Builds one [`Function`].
#[derive(Debug)]
pub struct FunctionBuilder {
    id: FuncId,
    func: Function,
    next_tag: Rc<Cell<u32>>,
}

impl FunctionBuilder {
    /// This function's id (usable for recursive calls while building).
    pub fn id(&self) -> FuncId {
        self.id
    }

    /// The entry block, created automatically.
    pub fn entry_block(&self) -> BlockId {
        self.func.entry
    }

    /// Create a new empty block.
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.func.blocks.len() as u32);
        self.func.blocks.push(Block::default());
        id
    }

    /// A cursor appending instructions to `block`.
    pub fn at(&mut self, block: BlockId) -> BlockCursor<'_> {
        BlockCursor { fb: self, block }
    }

    /// Finish the function body. The returned id is what the matching
    /// [`ProgramBuilder::add`]/[`ProgramBuilder::finish`] call expects.
    ///
    /// This does not consume the program builder; call
    /// [`ProgramBuilder::add`] unless you use the common one-function
    /// shorthand where `finish` feeds directly into
    /// [`ProgramBuilder::finish`].
    pub fn finish_into(self, pb: &mut ProgramBuilder) -> FuncId {
        let id = self.id;
        pb.add(id, self.func);
        id
    }

    /// Shorthand used by single-function programs and tests: detach the
    /// built function and return its id after registering it in the
    /// builder it came from is no longer possible. Prefer
    /// [`FunctionBuilder::finish_into`]; this variant exists so the common
    /// `let main = f.finish(); pb.finish(main)` pattern reads naturally.
    pub fn finish(self) -> FinishedFunction {
        FinishedFunction { id: self.id, func: self.func }
    }
}

/// A built function body awaiting registration.
#[derive(Debug)]
pub struct FinishedFunction {
    id: FuncId,
    func: Function,
}

impl ProgramBuilder {
    /// Register a [`FinishedFunction`] and return its id.
    pub fn install(&mut self, f: FinishedFunction) -> FuncId {
        let id = f.id;
        self.add(id, f.func);
        id
    }
}

impl ProgramBuilder {
    /// One-function convenience: install `f` and finish with it as entry.
    pub fn finish_with(mut self, f: FinishedFunction) -> Program {
        let id = self.install(f);
        self.finish(id)
    }
}

impl std::ops::Deref for FinishedFunction {
    type Target = FuncId;
    fn deref(&self) -> &FuncId {
        &self.id
    }
}

/// Appends instructions to one block; every method returns `self` for
/// chaining.
#[derive(Debug)]
pub struct BlockCursor<'a> {
    fb: &'a mut FunctionBuilder,
    block: BlockId,
}

impl BlockCursor<'_> {
    fn push(self, op: Op) -> Self {
        let tag = InstTag(self.fb.next_tag.get());
        self.fb.next_tag.set(tag.0 + 1);
        self.fb.func.blocks[self.block.index()].insts.push(Inst::new(tag, op));
        self
    }

    /// The tag that the *next* pushed instruction will receive. Workload
    /// builders use this to note which static load they expect to be
    /// delinquent.
    pub fn next_tag(&self) -> InstTag {
        InstTag(self.fb.next_tag.get())
    }

    /// Append `dst = imm`.
    pub fn movi(self, dst: Reg, imm: i64) -> Self {
        self.push(Op::Movi { dst, imm })
    }

    /// Append `dst = src`.
    pub fn mov(self, dst: Reg, src: Reg) -> Self {
        self.push(Op::Mov { dst, src })
    }

    /// Append an ALU operation.
    pub fn alu(self, kind: AluKind, dst: Reg, a: Reg, b: impl Into<Operand>) -> Self {
        self.push(Op::Alu { kind, dst, a, b: b.into() })
    }

    /// Append `dst = a + b`.
    pub fn add(self, dst: Reg, a: Reg, b: impl Into<Operand>) -> Self {
        self.alu(AluKind::Add, dst, a, b)
    }

    /// Append `dst = a - b`.
    pub fn sub(self, dst: Reg, a: Reg, b: impl Into<Operand>) -> Self {
        self.alu(AluKind::Sub, dst, a, b)
    }

    /// Append `dst = a * b`.
    pub fn mul(self, dst: Reg, a: Reg, b: impl Into<Operand>) -> Self {
        self.alu(AluKind::Mul, dst, a, b)
    }

    /// Append `dst = a << b`.
    pub fn shl(self, dst: Reg, a: Reg, b: impl Into<Operand>) -> Self {
        self.alu(AluKind::Shl, dst, a, b)
    }

    /// Append a comparison.
    pub fn cmp(self, kind: CmpKind, dst: Reg, a: Reg, b: impl Into<Operand>) -> Self {
        self.push(Op::Cmp { kind, dst, a, b: b.into() })
    }

    /// Append an FP operation over `f64` bit patterns.
    pub fn falu(self, kind: FAluKind, dst: Reg, a: Reg, b: Reg) -> Self {
        self.push(Op::FAlu { kind, dst, a, b })
    }

    /// Append `dst = mem[base + off]`.
    pub fn ld(self, dst: Reg, base: Reg, off: i64) -> Self {
        self.push(Op::Ld { dst, base, off })
    }

    /// Append `mem[base + off] = src`.
    pub fn st(self, src: Reg, base: Reg, off: i64) -> Self {
        self.push(Op::St { src, base, off })
    }

    /// Append a prefetch of `base + off`.
    pub fn lfetch(self, base: Reg, off: i64) -> Self {
        self.push(Op::Lfetch { base, off })
    }

    /// Append an unconditional branch, ending the block.
    pub fn br(self, target: BlockId) -> Self {
        self.push(Op::Br { target })
    }

    /// Append a conditional branch, ending the block.
    pub fn br_cond(self, pred: Reg, if_true: BlockId, if_false: BlockId) -> Self {
        self.push(Op::BrCond { pred, if_true, if_false })
    }

    /// Append a direct call with `nargs` register arguments.
    pub fn call(self, callee: FuncId, nargs: u16) -> Self {
        self.push(Op::Call { callee, nargs })
    }

    /// Append an indirect call through `target`.
    pub fn call_ind(self, target: Reg, nargs: u16) -> Self {
        self.push(Op::CallInd { target, nargs })
    }

    /// Append a return, ending the block.
    pub fn ret(self) -> Self {
        self.push(Op::Ret)
    }

    /// Append a `chk.c` trigger pointing at `stub`.
    pub fn chk_c(self, stub: BlockId) -> Self {
        self.push(Op::ChkC { stub })
    }

    /// Append a speculative-thread spawn.
    pub fn spawn(self, entry: BlockId, slot: Reg) -> Self {
        self.push(Op::Spawn { entry, slot })
    }

    /// Append a live-in buffer slot allocation.
    pub fn lib_alloc(self, dst: Reg) -> Self {
        self.push(Op::LibAlloc { dst })
    }

    /// Append a live-in buffer store.
    pub fn lib_st(self, slot: Reg, idx: u8, src: Reg) -> Self {
        self.push(Op::LibSt { slot, idx, src })
    }

    /// Append a live-in buffer load.
    pub fn lib_ld(self, dst: Reg, slot: Reg, idx: u8) -> Self {
        self.push(Op::LibLd { dst, slot, idx })
    }

    /// Append a live-in buffer slot release.
    pub fn lib_free(self, slot: Reg) -> Self {
        self.push(Op::LibFree { slot })
    }

    /// Append a speculative-thread self-kill, ending the block.
    pub fn kill_thread(self) -> Self {
        self.push(Op::KillThread)
    }

    /// Append the region-of-interest start marker.
    pub fn roi_begin(self) -> Self {
        self.push(Op::RoiBegin)
    }

    /// Append the region-of-interest end marker.
    pub fn roi_end(self) -> Self {
        self.push(Op::RoiEnd)
    }

    /// Append program termination, ending the block.
    pub fn halt(self) -> Self {
        self.push(Op::Halt)
    }

    /// Append a `nop` — the padding the post-pass tool later replaces with
    /// `chk.c` triggers.
    pub fn nop(self) -> Self {
        self.push(Op::Nop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Reg;

    #[test]
    fn tags_are_globally_unique_across_functions() {
        let mut pb = ProgramBuilder::new();
        let mut f1 = pb.function("a");
        let e1 = f1.entry_block();
        f1.at(e1).movi(Reg(1), 1).halt();
        let a = f1.finish();
        let mut f2 = pb.function("b");
        let e2 = f2.entry_block();
        f2.at(e2).movi(Reg(1), 1).halt();
        let b = f2.finish();
        let a = pb.install(a);
        pb.install(b);
        let prog = pb.finish(a);
        let idx = prog.tag_index();
        assert_eq!(idx.len(), 4, "all four instructions have distinct tags");
        assert_eq!(prog.next_tag, 4);
    }

    #[test]
    fn declared_functions_allow_recursion() {
        let mut pb = ProgramBuilder::new();
        let main_id = pb.declare();
        let helper_id = pb.declare();
        let mut main = pb.define(main_id, "main");
        let e = main.entry_block();
        main.at(e).call(helper_id, 0).halt();
        let main = main.finish();
        let mut h = pb.define(helper_id, "helper");
        let e = h.entry_block();
        h.at(e).call(helper_id, 0).ret();
        let h = h.finish();
        pb.install(main);
        pb.install(h);
        let prog = pb.finish(main_id);
        assert_eq!(prog.funcs.len(), 2);
    }

    #[test]
    #[should_panic(expected = "bodies added")]
    fn missing_body_panics() {
        let mut pb = ProgramBuilder::new();
        let _never_defined = pb.declare();
        let mut f = pb.function("main");
        let e = f.entry_block();
        f.at(e).halt();
        let _main = f.finish();
        // `main` has id 1 but body for id 0 was never added.
        let _ = pb.finish(FuncId(1));
    }

    #[test]
    fn data_words_layout() {
        let mut pb = ProgramBuilder::new();
        pb.data_words(0x100, &[7, 8, 9]);
        let mut f = pb.function("main");
        let e = f.entry_block();
        f.at(e).halt();
        let main = f.finish();
        let prog = pb.finish_with(main);
        let words =
            [0x100, 0x108, 0x110].map(|a| prog.image.slot(a).map(|s| prog.image.words()[s]));
        assert_eq!(words, [Some(7), Some(8), Some(9)]);
        assert_eq!(prog.image.len(), 3);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_data_panics() {
        let mut pb = ProgramBuilder::new();
        pb.data_word(0x101, 1);
    }
}
