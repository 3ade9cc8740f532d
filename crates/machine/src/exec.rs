//! The compiled loop-nest execution engine.
//!
//! Both executions the evaluation relies on — the semantic reference run of
//! [`crate::interp`] and the cache-trace walk of [`crate::trace`] — used to
//! walk the program tree with per-iteration `BTreeMap` bindings and a
//! symbolic `Expr::eval` per subscript. This module replaces that duplicated
//! hot path with a single lowering, [`CompiledProgram::lower`], performed
//! once per program:
//!
//! * **Flat storage and slot frames.** Arrays resolve to dense indices into
//!   the [`ProgramData`] storage vector; loop iterators and size parameters
//!   resolve to slots of a flat `i64` frame. No map lookups survive into the
//!   execution loop.
//! * **Affine offset/stride plans.** Every array access whose subscripts are
//!   affine over the iterators compiles to an affine form over frame slots,
//!   folded with the (unshadowed) parameter bindings. Inside an innermost
//!   loop the flat element offset of each access then advances by a constant
//!   stride per iteration, so both drivers run on incremental adds.
//! * **Closed-form zero-trip and constant-bound loops.** Bounds that fold to
//!   constants at lowering are evaluated exactly once; a loop whose domain is
//!   empty is skipped without touching its body, and statement/access counts
//!   of compiled innermost loops are computed as `trips * plan_len` instead
//!   of being accumulated per iteration.
//!
//! Two drivers share the lowering:
//!
//! * [`CompiledProgram::execute`] runs the program semantics over a
//!   [`ProgramData`] store — bit-identical array state to the retained
//!   tree-walking interpreter ([`crate::interp::reference`]) on every valid
//!   program, with full per-dimension bounds checking.
//! * [`CompiledProgram::stream`] emits the exact access trace into an
//!   [`AccessSink`], every compiled innermost loop as one closed-form
//!   lockstep [`crate::trace::StrideRun`] group ([`AccessSink::run_group`])
//!   built straight from the offset/stride plans — bit-identical to the
//!   retained symbolic walker ([`crate::trace::walk_accesses_symbolic`]).
//!
//! # Divergences on *invalid* programs
//!
//! Lowering is eager: unbound variables, non-positive steps and rank
//! mismatches are reported before anything executes, whereas the reference
//! walkers only failed upon reaching the offending node. Valid programs are
//! unaffected — in particular, a computation whose loads sit inside
//! [`ScalarExpr::Select`] branches (the boundary-condition idiom, where the
//! untaken branch may index out of bounds) is excluded from the semantic
//! fast path and executes with the reference's lazy evaluation. The
//! differential test suite pins the bit-identical behaviour on the whole
//! PolyBench + CLOUDSC corpus.

use std::collections::{BTreeMap, BTreeSet};

use loop_ir::array::AccessKind;
use loop_ir::expr::{AffineExpr, Expr, Var};
use loop_ir::nest::{BlasCall, BlasKind, Computation, Loop, Node};
use loop_ir::program::Program;
use loop_ir::scalar::{BinOp, CmpOp, ScalarExpr, UnaryOp};

use crate::blas;
use crate::cache::AddressMap;
use crate::error::{MachineError, Result};
use crate::interp::ProgramData;
use crate::trace::{AccessSink, StrideRun, TraceEntry};

// ---------------------------------------------------------------------------
// Compiled forms
// ---------------------------------------------------------------------------

/// An affine integer expression over frame slots: `constant + Σ coeff·frame[slot]`.
#[derive(Debug, Clone, Default)]
struct CAffine {
    constant: i64,
    terms: Vec<(usize, i64)>,
}

impl CAffine {
    fn eval(&self, frame: &[i64]) -> i64 {
        let mut acc = self.constant;
        for &(slot, coeff) in &self.terms {
            acc += coeff * frame[slot];
        }
        acc
    }

    /// Coefficient of the given slot (zero if absent).
    fn coeff(&self, slot: usize) -> i64 {
        self.terms
            .iter()
            .find(|(s, _)| *s == slot)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }
}

/// A compiled integer expression. Affine expressions (the common case for
/// bounds and subscripts) evaluate without tree-walking; the general variants
/// mirror [`Expr`] with variables resolved to frame slots.
#[derive(Debug, Clone)]
enum CExpr {
    Const(i64),
    Affine(CAffine),
    Add(Box<CExpr>, Box<CExpr>),
    Sub(Box<CExpr>, Box<CExpr>),
    Mul(Box<CExpr>, Box<CExpr>),
    Div(Box<CExpr>, Box<CExpr>),
    Mod(Box<CExpr>, Box<CExpr>),
    Min(Box<CExpr>, Box<CExpr>),
    Max(Box<CExpr>, Box<CExpr>),
    Neg(Box<CExpr>),
}

impl CExpr {
    /// Evaluates against the frame; `None` on division by zero (mirroring
    /// [`Expr::eval`]).
    fn eval(&self, frame: &[i64]) -> Option<i64> {
        match self {
            CExpr::Const(c) => Some(*c),
            CExpr::Affine(a) => Some(a.eval(frame)),
            CExpr::Add(a, b) => Some(a.eval(frame)? + b.eval(frame)?),
            CExpr::Sub(a, b) => Some(a.eval(frame)? - b.eval(frame)?),
            CExpr::Mul(a, b) => Some(a.eval(frame)? * b.eval(frame)?),
            CExpr::Div(a, b) => {
                let d = b.eval(frame)?;
                if d == 0 {
                    None
                } else {
                    Some(a.eval(frame)?.div_euclid(d))
                }
            }
            CExpr::Mod(a, b) => {
                let d = b.eval(frame)?;
                if d == 0 {
                    None
                } else {
                    Some(a.eval(frame)?.rem_euclid(d))
                }
            }
            CExpr::Min(a, b) => Some(a.eval(frame)?.min(b.eval(frame)?)),
            CExpr::Max(a, b) => Some(a.eval(frame)?.max(b.eval(frame)?)),
            CExpr::Neg(a) => Some(-a.eval(frame)?),
        }
    }
}

/// A compiled bound: the compiled expression plus the source expression for
/// error messages (errors are the cold path; the clone is paid once at
/// lowering).
#[derive(Debug, Clone)]
struct CBound {
    compiled: CExpr,
    source: Expr,
}

impl CBound {
    fn eval(&self, frame: &[i64]) -> Result<i64> {
        self.compiled
            .eval(frame)
            .ok_or_else(|| MachineError::UnboundVariable(self.source.to_string()))
    }
}

/// One compiled memory access of a computation (or library-call operand).
#[derive(Debug, Clone)]
enum CAccess {
    /// All subscripts affine: per-dimension affine indices (for bounds
    /// checks) plus the precombined flat element offset.
    Affine {
        array: usize,
        is_write: bool,
        dims: Vec<(CAffine, i64)>,
        flat: CAffine,
    },
    /// At least one non-affine subscript: evaluated per dimension.
    Symbolic {
        array: usize,
        is_write: bool,
        indices: Vec<CBound>,
    },
}

impl CAccess {
    fn is_write(&self) -> bool {
        match self {
            CAccess::Affine { is_write, .. } | CAccess::Symbolic { is_write, .. } => *is_write,
        }
    }
}

/// A compiled scalar expression; mirrors [`ScalarExpr`] with loads resolved
/// to positions in the owning computation's access list and scalar
/// parameters folded to constants.
#[derive(Debug, Clone)]
enum CScalar {
    Load(usize),
    Const(f64),
    Index(Box<CBound>),
    Unary(UnaryOp, Box<CScalar>),
    Binary(BinOp, Box<CScalar>, Box<CScalar>),
    Select {
        lhs: Box<CScalar>,
        cmp: CmpOp,
        rhs: Box<CScalar>,
        then: Box<CScalar>,
        otherwise: Box<CScalar>,
    },
}

/// One instruction of a [`Postfix`] program.
#[derive(Debug, Clone, Copy)]
enum POp {
    /// Push the prefetched load at the given position.
    Load(u32),
    /// Push a constant.
    Const(f64),
    /// Pop one value, push `op(value)`.
    Unary(UnaryOp),
    /// Pop rhs then lhs, push `lhs op rhs`.
    Binary(BinOp),
    /// Pop otherwise, then, rhs, lhs; push `then` if `lhs cmp rhs` else
    /// `otherwise`. Both branches are evaluated — they are pure `f64`
    /// arithmetic, so the selected value is bit-identical to the
    /// short-circuiting tree walk.
    Select(CmpOp),
}

/// A scalar expression flattened to postfix form: no recursion, no error
/// plumbing, evaluated on a small value stack. Only expressions without
/// [`CScalar::Index`] leaves flatten (an `Index` can fail on division by
/// zero and needs the loop frame); the rest keep the tree walk.
#[derive(Debug, Clone)]
struct Postfix {
    ops: Vec<POp>,
}

impl Postfix {
    fn try_compile(e: &CScalar) -> Option<Postfix> {
        let mut ops = Vec::new();
        Self::flatten(e, &mut ops)?;
        Some(Postfix { ops })
    }

    fn flatten(e: &CScalar, ops: &mut Vec<POp>) -> Option<()> {
        match e {
            CScalar::Load(k) => ops.push(POp::Load(*k as u32)),
            CScalar::Const(c) => ops.push(POp::Const(*c)),
            CScalar::Index(_) => return None,
            CScalar::Unary(op, a) => {
                Self::flatten(a, ops)?;
                ops.push(POp::Unary(*op));
            }
            CScalar::Binary(op, a, b) => {
                Self::flatten(a, ops)?;
                Self::flatten(b, ops)?;
                ops.push(POp::Binary(*op));
            }
            CScalar::Select {
                lhs,
                cmp,
                rhs,
                then,
                otherwise,
            } => {
                Self::flatten(lhs, ops)?;
                Self::flatten(rhs, ops)?;
                Self::flatten(then, ops)?;
                Self::flatten(otherwise, ops)?;
                ops.push(POp::Select(*cmp));
            }
        }
        Some(())
    }

    /// Evaluates against prefetched loads. `stack` is caller-provided
    /// scratch, cleared here.
    fn eval(&self, loads: &[f64], stack: &mut Vec<f64>) -> f64 {
        stack.clear();
        for op in &self.ops {
            match *op {
                POp::Load(k) => stack.push(loads[k as usize]),
                POp::Const(c) => stack.push(c),
                POp::Unary(op) => {
                    let a = stack.pop().expect("postfix stack underflow");
                    stack.push(op.apply(a));
                }
                POp::Binary(op) => {
                    let rhs = stack.pop().expect("postfix stack underflow");
                    let lhs = stack.pop().expect("postfix stack underflow");
                    stack.push(op.apply(lhs, rhs));
                }
                POp::Select(cmp) => {
                    let otherwise = stack.pop().expect("postfix stack underflow");
                    let then = stack.pop().expect("postfix stack underflow");
                    let rhs = stack.pop().expect("postfix stack underflow");
                    let lhs = stack.pop().expect("postfix stack underflow");
                    stack.push(if cmp.apply(lhs, rhs) { then } else { otherwise });
                }
            }
        }
        stack.pop().expect("postfix leaves one value")
    }
}

/// A compiled computation. `accesses` is in [`Computation::accesses`] order:
/// the `n_loads` value loads, then (for reductions) the read of the target,
/// then the write of the target.
#[derive(Debug, Clone)]
struct CComp {
    accesses: Vec<CAccess>,
    n_loads: usize,
    reduction: Option<BinOp>,
    value: CScalar,
    /// Flattened form of `value`, used by the innermost fast path.
    postfix: Option<Postfix>,
    /// True when some load sits inside a select branch, i.e. the reference
    /// interpreter may never evaluate (or bounds-check) it.
    conditional_loads: bool,
}

/// True when a load of the expression sits inside a [`ScalarExpr::Select`]
/// `then`/`otherwise` branch (the comparison operands are always evaluated).
fn has_conditional_loads(e: &ScalarExpr) -> bool {
    match e {
        ScalarExpr::Load(_)
        | ScalarExpr::Const(_)
        | ScalarExpr::Param(_)
        | ScalarExpr::Index(_) => false,
        ScalarExpr::Unary(_, a) => has_conditional_loads(a),
        ScalarExpr::Binary(_, a, b) => has_conditional_loads(a) || has_conditional_loads(b),
        ScalarExpr::Select {
            lhs,
            rhs,
            then,
            otherwise,
            ..
        } => {
            has_conditional_loads(lhs)
                || has_conditional_loads(rhs)
                || !then.loads().is_empty()
                || !otherwise.loads().is_empty()
        }
    }
}

impl CComp {
    fn target(&self) -> &CAccess {
        self.accesses.last().expect("accesses end with the write")
    }
}

/// A compiled library call.
#[derive(Debug, Clone)]
struct CCall {
    kind: BlasKind,
    output: usize,
    inputs: Vec<usize>,
    dims: Vec<CExpr>,
    alpha: CScalar,
    alpha_accesses: Vec<CAccess>,
    beta: CScalar,
    beta_accesses: Vec<CAccess>,
}

/// A compiled loop.
#[derive(Debug, Clone)]
struct CLoop {
    slot: usize,
    lower: CBound,
    upper: CBound,
    step: i64,
    body: Vec<CNode>,
    /// True when the body consists solely of computations whose accesses are
    /// all affine — the precondition for the incremental innermost plans of
    /// the trace walker (which emits every access unconditionally, exactly
    /// like the symbolic reference walker).
    inner: bool,
    /// Like [`inner`](CLoop::inner), but additionally no computation loads
    /// through an untaken-able [`ScalarExpr::Select`] branch. The *semantic*
    /// fast path prefetches and endpoint-bounds-checks every access, so a
    /// select-guarded boundary load (`i >= 1 ? A[i-1] : 0.0`) must take the
    /// generic path, whose lazy evaluation matches the reference
    /// interpreter exactly.
    inner_exec: bool,
    /// Access-list base offset of each body node inside the shared cursor
    /// scratch, precomputed so loop entries allocate nothing.
    bases: Vec<usize>,
    /// True when the subtree's *trace* is independent of this loop's
    /// iterator: every access in the body is affine with a zero coefficient
    /// on the loop's slot, and no descendant loop bound references it. Such
    /// a loop re-emits the identical access sequence every iteration, so
    /// summarizing sinks can consume the body once through the
    /// [`AccessSink::begin_repeat`] protocol.
    trace_invariant: bool,
}

#[derive(Debug, Clone)]
enum CNode {
    Loop(CLoop),
    Comp(CComp),
    Call(CCall),
}

/// Whether a compiled bound provably does not depend on `slot`. Non-affine
/// bounds answer `false` conservatively.
fn bound_independent(b: &CBound, slot: usize) -> bool {
    match &b.compiled {
        CExpr::Const(_) => true,
        CExpr::Affine(a) => a.coeff(slot) == 0,
        _ => false,
    }
}

/// Whether the trace emitted by `nodes` is provably identical for every
/// value of `frame[slot]`: all accesses are affine with a zero coefficient
/// on the slot and no descendant loop bound references it. Symbolic
/// accesses answer `false` conservatively; library calls emit nothing into
/// the trace and are neutral.
fn subtree_trace_invariant(nodes: &[CNode], slot: usize) -> bool {
    nodes.iter().all(|node| match node {
        CNode::Comp(c) => c.accesses.iter().all(|a| match a {
            CAccess::Affine { flat, .. } => flat.coeff(slot) == 0,
            CAccess::Symbolic { .. } => false,
        }),
        CNode::Loop(inner) => {
            bound_independent(&inner.lower, slot)
                && bound_independent(&inner.upper, slot)
                && subtree_trace_invariant(&inner.body, slot)
        }
        CNode::Call(_) => true,
    })
}

/// Per-array lowering result: name, layout and the trace base address.
#[derive(Debug, Clone)]
struct CArray {
    name: Var,
    /// `None` when the extents cannot be evaluated (only an error if the
    /// array is actually accessed).
    layout: Option<Layout>,
    elem_size: usize,
    base: u64,
}

#[derive(Debug, Clone)]
struct Layout {
    dims: Vec<i64>,
    strides: Vec<i64>,
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

/// A program lowered for repeated execution: the shared engine behind the
/// interpreter ([`execute`](CompiledProgram::execute)) and the trace walker
/// ([`stream`](CompiledProgram::stream)).
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    nodes: Vec<CNode>,
    frame_init: Vec<i64>,
    arrays: Vec<CArray>,
}

struct Lowerer<'p> {
    program: &'p Program,
    slots: BTreeMap<Var, usize>,
    frame_init: Vec<i64>,
    arrays: Vec<CArray>,
    array_slots: BTreeMap<Var, usize>,
    /// Parameter bindings folded into affine subscripts: every parameter not
    /// shadowed by a loop iterator somewhere in the program.
    fold_bindings: BTreeMap<Var, i64>,
}

impl CompiledProgram {
    /// Lowers a program. Performed once; the result can drive any number of
    /// executions and trace walks.
    ///
    /// # Errors
    /// Unbound variables or sizes, non-positive loop steps and subscript
    /// rank mismatches are reported here, before anything executes.
    pub fn lower(program: &Program) -> Result<CompiledProgram> {
        let map = AddressMap::for_program(program);
        let mut arrays = Vec::new();
        let mut array_slots = BTreeMap::new();
        for (name, array) in &program.arrays {
            let layout = array.concrete_dims(&program.params).and_then(|dims| {
                if dims.iter().any(|d| *d < 0) {
                    return None;
                }
                array
                    .strides(&program.params)
                    .map(|strides| Layout { dims, strides })
            });
            array_slots.insert(name.clone(), arrays.len());
            arrays.push(CArray {
                name: name.clone(),
                layout,
                elem_size: array.elem_size,
                base: map.base(name.as_str()).unwrap_or(0),
            });
        }

        // Iterators that shadow a parameter keep the parameter out of
        // constant folding: its frame slot is rebound inside such loops.
        let mut iterators = BTreeSet::new();
        fn collect_iterators(node: &Node, out: &mut BTreeSet<Var>) {
            if let Node::Loop(l) = node {
                out.insert(l.iter.clone());
                for n in &l.body {
                    collect_iterators(n, out);
                }
            }
        }
        for node in &program.body {
            collect_iterators(node, &mut iterators);
        }
        let fold_bindings: BTreeMap<Var, i64> = program
            .params
            .iter()
            .filter(|(name, _)| !iterators.contains(*name))
            .map(|(name, value)| (name.clone(), *value))
            .collect();

        let mut lowerer = Lowerer {
            program,
            slots: BTreeMap::new(),
            frame_init: Vec::new(),
            arrays,
            array_slots,
            fold_bindings,
        };
        for (name, value) in &program.params {
            let slot = lowerer.frame_init.len();
            lowerer.slots.insert(name.clone(), slot);
            lowerer.frame_init.push(*value);
        }
        let nodes = program
            .body
            .iter()
            .map(|node| lowerer.lower_node(node))
            .collect::<Result<Vec<_>>>()?;
        Ok(CompiledProgram {
            nodes,
            frame_init: lowerer.frame_init,
            arrays: lowerer.arrays,
        })
    }

    /// Names of the arrays in slot order, for storage-compatibility checks.
    fn check_data(&self, data: &ProgramData) -> Result<()> {
        let names = data.array_names();
        if names.len() != self.arrays.len()
            || self.arrays.iter().zip(names).any(|(a, n)| &a.name != n)
        {
            return Err(MachineError::UnknownArray(
                "program data does not match the compiled program".to_string(),
            ));
        }
        Ok(())
    }
}

impl<'p> Lowerer<'p> {
    fn slot_of(&mut self, v: &Var) -> Result<usize> {
        if let Some(slot) = self.slots.get(v) {
            return Ok(*slot);
        }
        Err(MachineError::UnboundVariable(v.to_string()))
    }

    /// Slot for a loop iterator: reuses an existing slot of the same name
    /// (shadowed parameters, repeated iterator names across sibling loops —
    /// the runtime saves and restores the slot around the loop).
    fn iterator_slot(&mut self, v: &Var) -> usize {
        if let Some(slot) = self.slots.get(v) {
            return *slot;
        }
        let slot = self.frame_init.len();
        self.slots.insert(v.clone(), slot);
        self.frame_init.push(0);
        slot
    }

    fn lower_affine(&mut self, affine: &AffineExpr) -> Result<CAffine> {
        let mut out = CAffine {
            constant: affine.constant_part(),
            terms: Vec::new(),
        };
        for (v, c) in affine.terms() {
            out.terms.push((self.slot_of(v)?, c));
        }
        Ok(out)
    }

    fn lower_expr(&mut self, e: &Expr) -> Result<CExpr> {
        if let Some(affine) = e.fold_params(&self.fold_bindings).as_affine() {
            return Ok(match affine.as_constant() {
                Some(c) => CExpr::Const(c),
                None => CExpr::Affine(self.lower_affine(&affine)?),
            });
        }
        let bin = |l: &mut Self, a: &Expr, b: &Expr| -> Result<(Box<CExpr>, Box<CExpr>)> {
            Ok((Box::new(l.lower_expr(a)?), Box::new(l.lower_expr(b)?)))
        };
        Ok(match e {
            Expr::Const(c) => CExpr::Const(*c),
            Expr::Var(v) => CExpr::Affine(CAffine {
                constant: 0,
                terms: vec![(self.slot_of(v)?, 1)],
            }),
            Expr::Add(a, b) => {
                let (a, b) = bin(self, a, b)?;
                CExpr::Add(a, b)
            }
            Expr::Sub(a, b) => {
                let (a, b) = bin(self, a, b)?;
                CExpr::Sub(a, b)
            }
            Expr::Mul(a, b) => {
                let (a, b) = bin(self, a, b)?;
                CExpr::Mul(a, b)
            }
            Expr::Div(a, b) => {
                let (a, b) = bin(self, a, b)?;
                CExpr::Div(a, b)
            }
            Expr::Mod(a, b) => {
                let (a, b) = bin(self, a, b)?;
                CExpr::Mod(a, b)
            }
            Expr::Min(a, b) => {
                let (a, b) = bin(self, a, b)?;
                CExpr::Min(a, b)
            }
            Expr::Max(a, b) => {
                let (a, b) = bin(self, a, b)?;
                CExpr::Max(a, b)
            }
            Expr::Neg(a) => CExpr::Neg(Box::new(self.lower_expr(a)?)),
        })
    }

    fn lower_bound(&mut self, e: &Expr) -> Result<CBound> {
        Ok(CBound {
            compiled: self.lower_expr(e)?,
            source: e.clone(),
        })
    }

    fn lower_access(
        &mut self,
        array_ref: &loop_ir::array::ArrayRef,
        is_write: bool,
    ) -> Result<CAccess> {
        let array = *self
            .array_slots
            .get(&array_ref.array)
            .ok_or_else(|| MachineError::UnknownArray(array_ref.array.to_string()))?;
        let layout = self.arrays[array]
            .layout
            .as_ref()
            .ok_or_else(|| MachineError::UnboundSize(array_ref.array.to_string()))?
            .clone();
        if layout.dims.len() != array_ref.indices.len() {
            return Err(MachineError::OutOfBounds {
                array: array_ref.array.to_string(),
                index: -1,
            });
        }
        let affine: Option<Vec<AffineExpr>> = array_ref
            .indices
            .iter()
            .map(|e| e.fold_params(&self.fold_bindings).as_affine())
            .collect();
        match affine {
            Some(indices) => {
                let mut dims = Vec::with_capacity(indices.len());
                let mut flat = CAffine::default();
                for ((affine, extent), stride) in
                    indices.iter().zip(&layout.dims).zip(&layout.strides)
                {
                    let compiled = self.lower_affine(affine)?;
                    flat.constant += compiled.constant * stride;
                    for &(slot, coeff) in &compiled.terms {
                        match flat.terms.iter_mut().find(|(s, _)| *s == slot) {
                            Some(term) => term.1 += coeff * stride,
                            None => flat.terms.push((slot, coeff * stride)),
                        }
                    }
                    dims.push((compiled, *extent));
                }
                flat.terms.retain(|(_, c)| *c != 0);
                Ok(CAccess::Affine {
                    array,
                    is_write,
                    dims,
                    flat,
                })
            }
            None => Ok(CAccess::Symbolic {
                array,
                is_write,
                indices: array_ref
                    .indices
                    .iter()
                    .map(|e| self.lower_bound(e))
                    .collect::<Result<Vec<_>>>()?,
            }),
        }
    }

    /// Lowers a scalar expression; loads are numbered in
    /// [`ScalarExpr::loads`] order via `next_load`.
    fn lower_scalar(&mut self, e: &ScalarExpr, next_load: &mut usize) -> Result<CScalar> {
        Ok(match e {
            ScalarExpr::Load(_) => {
                let k = *next_load;
                *next_load += 1;
                CScalar::Load(k)
            }
            ScalarExpr::Const(c) => CScalar::Const(*c),
            ScalarExpr::Param(p) => CScalar::Const(
                self.program
                    .scalar_params
                    .get(p)
                    .copied()
                    .ok_or_else(|| MachineError::UnboundVariable(p.to_string()))?,
            ),
            ScalarExpr::Index(e) => CScalar::Index(Box::new(self.lower_bound(e)?)),
            ScalarExpr::Unary(op, a) => {
                CScalar::Unary(*op, Box::new(self.lower_scalar(a, next_load)?))
            }
            ScalarExpr::Binary(op, a, b) => CScalar::Binary(
                *op,
                Box::new(self.lower_scalar(a, next_load)?),
                Box::new(self.lower_scalar(b, next_load)?),
            ),
            ScalarExpr::Select {
                lhs,
                cmp,
                rhs,
                then,
                otherwise,
            } => CScalar::Select {
                lhs: Box::new(self.lower_scalar(lhs, next_load)?),
                cmp: *cmp,
                rhs: Box::new(self.lower_scalar(rhs, next_load)?),
                then: Box::new(self.lower_scalar(then, next_load)?),
                otherwise: Box::new(self.lower_scalar(otherwise, next_load)?),
            },
        })
    }

    fn lower_comp(&mut self, comp: &Computation) -> Result<CComp> {
        let accesses = comp
            .accesses()
            .iter()
            .map(|a| self.lower_access(&a.array_ref, a.kind == AccessKind::Write))
            .collect::<Result<Vec<_>>>()?;
        let n_loads = comp.value.loads().len();
        let mut next_load = 0usize;
        let value = self.lower_scalar(&comp.value, &mut next_load)?;
        debug_assert_eq!(next_load, n_loads);
        let postfix = Postfix::try_compile(&value);
        Ok(CComp {
            accesses,
            n_loads,
            reduction: comp.reduction,
            value,
            postfix,
            conditional_loads: has_conditional_loads(&comp.value),
        })
    }

    fn lower_call(&mut self, call: &BlasCall) -> Result<CCall> {
        let array_slot = |l: &Self, name: &Var| -> Result<usize> {
            l.array_slots
                .get(name)
                .copied()
                .ok_or_else(|| MachineError::UnknownArray(name.to_string()))
        };
        let output = array_slot(self, &call.output)?;
        let inputs = call
            .inputs
            .iter()
            .map(|name| array_slot(self, name))
            .collect::<Result<Vec<_>>>()?;
        let dims = call
            .dims
            .iter()
            .map(|d| self.lower_expr(d))
            .collect::<Result<Vec<_>>>()?;
        let lower_operand = |l: &mut Self, e: &ScalarExpr| -> Result<(CScalar, Vec<CAccess>)> {
            let accesses = e
                .loads()
                .iter()
                .map(|r| l.lower_access(r, false))
                .collect::<Result<Vec<_>>>()?;
            let mut next = 0usize;
            let scalar = l.lower_scalar(e, &mut next)?;
            Ok((scalar, accesses))
        };
        let (alpha, alpha_accesses) = lower_operand(self, &call.alpha)?;
        let (beta, beta_accesses) = lower_operand(self, &call.beta)?;
        Ok(CCall {
            kind: call.kind,
            output,
            inputs,
            dims,
            alpha,
            alpha_accesses,
            beta,
            beta_accesses,
        })
    }

    fn lower_loop(&mut self, l: &Loop) -> Result<CLoop> {
        if l.step <= 0 {
            return Err(MachineError::InvalidLoop(l.iter.to_string()));
        }
        let lower = self.lower_bound(&l.lower)?;
        let upper = self.lower_bound(&l.upper)?;
        let slot = self.iterator_slot(&l.iter);
        let body = l
            .body
            .iter()
            .map(|n| self.lower_node(n))
            .collect::<Result<Vec<_>>>()?;
        let inner = body.iter().all(|n| {
            matches!(n, CNode::Comp(c)
                if c.accesses.iter().all(|a| matches!(a, CAccess::Affine { .. })))
        });
        let inner_exec = inner
            && body
                .iter()
                .all(|n| matches!(n, CNode::Comp(c) if !c.conditional_loads));
        let bases = if inner {
            let mut bases = Vec::with_capacity(body.len());
            let mut base = 0usize;
            for node in &body {
                bases.push(base);
                if let CNode::Comp(c) = node {
                    base += c.accesses.len();
                }
            }
            bases
        } else {
            Vec::new()
        };
        Ok(CLoop {
            trace_invariant: subtree_trace_invariant(&body, slot),
            slot,
            lower,
            upper,
            step: l.step,
            body,
            inner,
            inner_exec,
            bases,
        })
    }

    fn lower_node(&mut self, node: &Node) -> Result<CNode> {
        Ok(match node {
            Node::Loop(l) => CNode::Loop(self.lower_loop(l)?),
            Node::Computation(c) => CNode::Comp(self.lower_comp(c)?),
            Node::Call(call) => CNode::Call(self.lower_call(call)?),
        })
    }
}

// ---------------------------------------------------------------------------
// Semantic execution
// ---------------------------------------------------------------------------

/// Flat-offset cursor of one access inside a compiled innermost loop.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    array: usize,
    offset: i64,
    stride: i64,
}

struct Executor<'a, 'c> {
    compiled: &'c CompiledProgram,
    data: &'a mut ProgramData,
    frame: Vec<i64>,
    statements: u64,
    /// Scratch reused across innermost-loop entries (innermost loops cannot
    /// nest, so one buffer suffices).
    cursors: Vec<Cursor>,
    loads: Vec<f64>,
    stack: Vec<f64>,
}

impl CompiledProgram {
    /// Executes the program semantics over `data`, returning the number of
    /// computation instances executed.
    ///
    /// # Errors
    /// Out-of-bounds accesses and non-evaluable expressions; `data` is left
    /// in an unspecified (partially updated) state on error.
    pub fn execute(&self, data: &mut ProgramData) -> Result<u64> {
        self.check_data(data)?;
        let mut exec = Executor {
            compiled: self,
            data,
            frame: self.frame_init.clone(),
            statements: 0,
            cursors: Vec::new(),
            loads: Vec::new(),
            stack: Vec::new(),
        };
        for node in &self.nodes {
            exec.exec_node(node)?;
        }
        Ok(exec.statements)
    }
}

impl Executor<'_, '_> {
    fn exec_node(&mut self, node: &CNode) -> Result<()> {
        match node {
            CNode::Loop(l) => self.exec_loop(l),
            CNode::Comp(c) => self.exec_comp(c),
            CNode::Call(c) => self.exec_call(c),
        }
    }

    fn exec_loop(&mut self, l: &CLoop) -> Result<()> {
        let lower = l.lower.eval(&self.frame)?;
        let upper = l.upper.eval(&self.frame)?;
        if upper <= lower {
            // Zero-trip: closed form, the body is never touched.
            return Ok(());
        }
        let saved = self.frame[l.slot];
        let result = if l.inner_exec {
            telemetry::counter("machine.exec.compiled_inner_loops", 1);
            let trips = (upper - lower + l.step - 1) / l.step;
            self.exec_inner(l, lower, trips)
        } else {
            if l.inner {
                // Trace-innermost but not exec-compilable: the interpreter
                // walks it one iteration at a time.
                telemetry::counter("machine.exec.interp_fallback_loops", 1);
            }
            let mut v = lower;
            loop {
                self.frame[l.slot] = v;
                for child in &l.body {
                    self.exec_node(child)?;
                }
                v += l.step;
                if v >= upper {
                    break Ok(());
                }
            }
        };
        self.frame[l.slot] = saved;
        result
    }

    /// The innermost fast path: flat offsets advance by constant strides,
    /// per-dimension bounds are verified once at the domain endpoints
    /// (affine indices of a single varying iterator are monotonic).
    fn exec_inner(&mut self, l: &CLoop, lower: i64, trips: i64) -> Result<()> {
        self.frame[l.slot] = lower;
        self.cursors.clear();
        for node in &l.body {
            let CNode::Comp(comp) = node else {
                unreachable!("inner loops contain only computations")
            };
            for access in &comp.accesses {
                let CAccess::Affine {
                    array, dims, flat, ..
                } = access
                else {
                    unreachable!("inner accesses are affine")
                };
                for (affine, extent) in dims {
                    let start = affine.eval(&self.frame);
                    let last = start + affine.coeff(l.slot) * l.step * (trips - 1);
                    for endpoint in [start, last] {
                        if endpoint < 0 || endpoint >= *extent {
                            return Err(MachineError::OutOfBounds {
                                array: self.compiled.arrays[*array].name.to_string(),
                                index: endpoint,
                            });
                        }
                    }
                }
                self.cursors.push(Cursor {
                    array: *array,
                    offset: flat.eval(&self.frame),
                    stride: flat.coeff(l.slot) * l.step,
                });
            }
        }
        let max_loads = l
            .body
            .iter()
            .map(|node| match node {
                CNode::Comp(c) => c.n_loads,
                _ => 0,
            })
            .max()
            .unwrap_or(0);
        if self.loads.len() < max_loads {
            self.loads.resize(max_loads, 0.0);
        }
        let mut v = lower;
        for _ in 0..trips {
            self.frame[l.slot] = v;
            for (node, &base) in l.body.iter().zip(&l.bases) {
                let CNode::Comp(comp) = node else {
                    unreachable!("inner loops contain only computations")
                };
                // Split the executor's fields so the prefetch can advance
                // cursors while reading array data in one pass.
                let span = base..base + comp.accesses.len();
                let cursors = &mut self.cursors[span];
                let (load_cursors, rest) = cursors.split_at_mut(comp.n_loads);
                for (slot, cursor) in self.loads.iter_mut().zip(load_cursors.iter_mut()) {
                    *slot = self.data.storage(cursor.array).data[cursor.offset as usize];
                    cursor.offset += cursor.stride;
                }
                let value = match &comp.postfix {
                    Some(postfix) => postfix.eval(&self.loads, &mut self.stack),
                    None => eval_scalar_buffered(&comp.value, &self.loads, &self.frame)?,
                };
                let target = *rest.last().expect("accesses end with the write");
                for cursor in rest {
                    cursor.offset += cursor.stride;
                }
                let slot = &mut self.data.storage_mut(target.array).data[target.offset as usize];
                *slot = match comp.reduction {
                    Some(op) => op.apply(*slot, value),
                    None => value,
                };
            }
            v += l.step;
        }
        self.statements += trips as u64 * l.body.len() as u64;
        Ok(())
    }

    /// Resolves an access to `(array, flat index)` with per-dimension bounds
    /// checks — the generic path outside compiled innermost loops.
    fn access_flat(&self, access: &CAccess) -> Result<(usize, usize)> {
        match access {
            CAccess::Affine {
                array, dims, flat, ..
            } => {
                for (affine, extent) in dims {
                    let idx = affine.eval(&self.frame);
                    if idx < 0 || idx >= *extent {
                        return Err(MachineError::OutOfBounds {
                            array: self.compiled.arrays[*array].name.to_string(),
                            index: idx,
                        });
                    }
                }
                Ok((*array, flat.eval(&self.frame) as usize))
            }
            CAccess::Symbolic { array, indices, .. } => {
                let layout = self.compiled.arrays[*array]
                    .layout
                    .as_ref()
                    .expect("symbolic accesses lower only with a layout");
                let mut flat = 0i64;
                for ((bound, extent), stride) in
                    indices.iter().zip(&layout.dims).zip(&layout.strides)
                {
                    let idx = bound.eval(&self.frame)?;
                    if idx < 0 || idx >= *extent {
                        return Err(MachineError::OutOfBounds {
                            array: self.compiled.arrays[*array].name.to_string(),
                            index: idx,
                        });
                    }
                    flat += idx * stride;
                }
                Ok((*array, flat as usize))
            }
        }
    }

    fn load_access(&self, access: &CAccess) -> Result<f64> {
        let (array, flat) = self.access_flat(access)?;
        Ok(self.data.storage(array).data[flat])
    }

    /// Evaluates a compiled scalar with loads resolved on demand (lazily for
    /// untaken select branches, exactly like the reference interpreter).
    fn eval_scalar_direct(&self, e: &CScalar, accesses: &[CAccess]) -> Result<f64> {
        Ok(match e {
            CScalar::Load(k) => self.load_access(&accesses[*k])?,
            CScalar::Const(c) => *c,
            CScalar::Index(b) => b.eval(&self.frame)? as f64,
            CScalar::Unary(op, a) => op.apply(self.eval_scalar_direct(a, accesses)?),
            CScalar::Binary(op, a, b) => op.apply(
                self.eval_scalar_direct(a, accesses)?,
                self.eval_scalar_direct(b, accesses)?,
            ),
            CScalar::Select {
                lhs,
                cmp,
                rhs,
                then,
                otherwise,
            } => {
                let l = self.eval_scalar_direct(lhs, accesses)?;
                let r = self.eval_scalar_direct(rhs, accesses)?;
                if cmp.apply(l, r) {
                    self.eval_scalar_direct(then, accesses)?
                } else {
                    self.eval_scalar_direct(otherwise, accesses)?
                }
            }
        })
    }

    fn exec_comp(&mut self, comp: &CComp) -> Result<()> {
        self.statements += 1;
        let value = self.eval_scalar_direct(&comp.value, &comp.accesses)?;
        let (array, flat) = self.access_flat(comp.target())?;
        let result = match comp.reduction {
            Some(op) => op.apply(self.data.storage(array).data[flat], value),
            None => value,
        };
        self.data.storage_mut(array).data[flat] = result;
        Ok(())
    }

    fn exec_call(&mut self, call: &CCall) -> Result<()> {
        let dims: Option<Vec<i64>> = call.dims.iter().map(|d| d.eval(&self.frame)).collect();
        let dims = dims.ok_or_else(|| MachineError::UnboundVariable("blas dims".to_string()))?;
        let alpha = self.eval_scalar_direct(&call.alpha, &call.alpha_accesses)?;
        let beta = self.eval_scalar_direct(&call.beta, &call.beta_accesses)?;
        let input = |exec: &Self, i: usize| -> Result<Vec<f64>> {
            let slot = call
                .inputs
                .get(i)
                .copied()
                .ok_or_else(|| MachineError::UnknownArray(format!("blas input {i}")))?;
            Ok(exec.data.storage(slot).data.clone())
        };
        match call.kind {
            BlasKind::Gemm => {
                let (m, n, k) = (dims[0] as usize, dims[1] as usize, dims[2] as usize);
                let a = input(self, 0)?;
                let b = input(self, 1)?;
                let c = &mut self.data.storage_mut(call.output).data;
                blas::dgemm(m, n, k, alpha, &a, &b, beta, c);
            }
            BlasKind::Syrk => {
                let (n, k) = (dims[0] as usize, dims[1] as usize);
                let a = input(self, 0)?;
                let c = &mut self.data.storage_mut(call.output).data;
                blas::dsyrk(n, k, alpha, &a, beta, c);
            }
            BlasKind::Syr2k => {
                let (n, k) = (dims[0] as usize, dims[1] as usize);
                let a = input(self, 0)?;
                let b = input(self, 1)?;
                let c = &mut self.data.storage_mut(call.output).data;
                blas::dsyr2k(n, k, alpha, &a, &b, beta, c);
            }
            BlasKind::Gemv => {
                let (m, n) = (dims[0] as usize, dims[1] as usize);
                let a = input(self, 0)?;
                let x = input(self, 1)?;
                let y = &mut self.data.storage_mut(call.output).data;
                blas::dgemv(m, n, alpha, &a, &x, beta, y);
            }
        }
        Ok(())
    }
}

/// Evaluates a compiled scalar with loads prefetched into `loads` — the
/// tree-walking fallback of the innermost fast path, needed only when the
/// expression contains an [`CScalar::Index`] leaf (which reads the frame and
/// can fail on division by zero).
fn eval_scalar_buffered(e: &CScalar, loads: &[f64], frame: &[i64]) -> Result<f64> {
    Ok(match e {
        CScalar::Load(k) => loads[*k],
        CScalar::Const(c) => *c,
        CScalar::Index(b) => b.eval(frame)? as f64,
        CScalar::Unary(op, a) => op.apply(eval_scalar_buffered(a, loads, frame)?),
        CScalar::Binary(op, a, b) => op.apply(
            eval_scalar_buffered(a, loads, frame)?,
            eval_scalar_buffered(b, loads, frame)?,
        ),
        CScalar::Select {
            lhs,
            cmp,
            rhs,
            then,
            otherwise,
        } => {
            let l = eval_scalar_buffered(lhs, loads, frame)?;
            let r = eval_scalar_buffered(rhs, loads, frame)?;
            if cmp.apply(l, r) {
                eval_scalar_buffered(then, loads, frame)?
            } else {
                eval_scalar_buffered(otherwise, loads, frame)?
            }
        }
    })
}

/// One array's motion per block trip, as
/// [`CompiledProgram::block_translation`] exports it for the shard layer's
/// congruence key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ArrayTranslation {
    /// Byte translation per block trip.
    pub(crate) delta: i64,
    /// `Some(byte offset from the array base at trip 0)` for a *point
    /// array*: every block-body access of the array shares one flat offset
    /// with no term on a loop slot inside the block loop, so each trip
    /// touches exactly one address of it.
    pub(crate) point: Option<i64>,
}

// ---------------------------------------------------------------------------
// Trace streaming
// ---------------------------------------------------------------------------

struct Streamer<'c> {
    compiled: &'c CompiledProgram,
    frame: Vec<i64>,
    count: u64,
    /// Scratch run-group plan reused across innermost-loop entries.
    runs: Vec<StrideRun>,
}

impl CompiledProgram {
    /// Streams the program's access trace in execution order into `sink`,
    /// emitting every compiled innermost loop as one lockstep
    /// [`StrideRun`] group ([`AccessSink::run_group`]) built straight from
    /// the affine offset/stride plans — individual addresses are only ever
    /// materialized by sinks that ask for them (the default `run_group`
    /// expansion). Returns the total number of accesses streamed.
    ///
    /// Addresses follow the [`AddressMap`] layout; negative offsets clamp to
    /// the array base, exactly like the symbolic reference walker.
    ///
    /// # Errors
    /// Non-evaluable bounds or subscripts.
    pub fn stream(&self, sink: &mut impl AccessSink) -> Result<u64> {
        let mut streamer = Streamer {
            compiled: self,
            frame: self.frame_init.clone(),
            count: 0,
            runs: Vec::new(),
        };
        for node in &self.nodes {
            streamer.stream_node(node, sink)?;
        }
        Ok(streamer.count)
    }

    /// Trip count of the block loop when this program is block-shardable:
    /// the body is exactly one top-level loop with nested structure (a flat
    /// innermost loop emits one lockstep run group for its whole domain, so
    /// cutting it per iteration would only deoptimize the stream). The
    /// bounds are evaluated against the initial frame — exactly the frame
    /// [`stream`](CompiledProgram::stream) evaluates them against, since a
    /// top-level loop streams before any iterator slot is written.
    ///
    /// `Some(0)` is a shardable zero-trip block loop; `None` means the
    /// program shards at run-group granularity instead.
    pub(crate) fn block_trips(&self) -> Option<u64> {
        let [CNode::Loop(l)] = self.nodes.as_slice() else {
            return None;
        };
        if l.inner {
            return None;
        }
        let lower = l.lower.eval(&self.frame_init).ok()?;
        let upper = l.upper.eval(&self.frame_init).ok()?;
        if upper <= lower {
            return Some(0);
        }
        Some(((upper - lower + l.step - 1) / l.step) as u64)
    }

    /// The motion per block trip of every array the block body touches (in
    /// array slot order), when the block loop's trips provably stream
    /// translated copies of one address pattern — the premise of the shard
    /// layer's congruence classes
    /// ([`congruence_classes`](crate::shard::congruence_classes)). Each
    /// array's [`ArrayTranslation`] carries its byte translation
    /// `coeff(flat, block slot) · step · elem_size` and, for a point array,
    /// its byte offset at trip 0. `None` unless all of these hold:
    ///
    /// * **shape** — every access in the block body is affine, with one
    ///   translation per array; no descendant loop bound references the
    ///   block slot, and no descendant loop rebinds it. Each trip then walks
    ///   the same loop structure, and access `k` of trip `t` lies at access
    ///   `k` of trip 0 plus `t · Δ_array`;
    /// * **in bounds** — every access of the first and the last trip lies
    ///   inside its own array's extent. An affine offset reaches its
    ///   extremes at those two trips, so every trip stays in bounds: no
    ///   offset clamps at zero (the clamp is not a translation) and no
    ///   access reaches into a neighbouring array.
    pub(crate) fn block_translation(&self) -> Option<Vec<ArrayTranslation>> {
        let trips = self.block_trips()?;
        let [CNode::Loop(block)] = self.nodes.as_slice() else {
            unreachable!("block_trips accepted the program shape")
        };
        let mut frame = self.frame_init.clone();
        frame[block.slot] = block.lower.eval(&self.frame_init).ok()?;
        let mut arrays = vec![None; self.arrays.len()];
        let mut enclosing = Vec::new();
        if !self.translation_shape(
            &block.body,
            block.slot,
            block.step,
            &frame,
            &mut enclosing,
            &mut arrays,
        ) {
            return None;
        }
        if trips > 0 {
            let lower = frame[block.slot];
            for trip in [0, trips - 1] {
                frame[block.slot] = lower + trip as i64 * block.step;
                if !self.in_bounds(&block.body, &mut frame) {
                    return None;
                }
            }
        }
        Some(arrays.into_iter().flatten().collect())
    }

    /// The shape half of [`block_translation`](Self::block_translation):
    /// records each array's byte translation per `step` of the block `slot`
    /// and its point offset under `trip0` (the frame of the block's first
    /// trip) into `arrays`, failing on a symbolic access, on two accesses of
    /// one array that disagree on the translation, on a loop bound that
    /// references the block slot, or on a loop that rebinds it. `enclosing`
    /// holds the slots of the loops between the block loop and `nodes`: an
    /// access with a term on one of them touches more than one address per
    /// trip, so its array is no point array.
    fn translation_shape(
        &self,
        nodes: &[CNode],
        slot: usize,
        step: i64,
        trip0: &[i64],
        enclosing: &mut Vec<usize>,
        arrays: &mut [Option<ArrayTranslation>],
    ) -> bool {
        nodes.iter().all(|node| match node {
            CNode::Comp(c) => c.accesses.iter().all(|a| match a {
                CAccess::Affine { array, flat, .. } => {
                    let elem = self.arrays[*array].elem_size as i64;
                    let Some(delta) = flat
                        .coeff(slot)
                        .checked_mul(step)
                        .and_then(|d| d.checked_mul(elem))
                    else {
                        return false;
                    };
                    let point = enclosing
                        .iter()
                        .all(|&inner| flat.coeff(inner) == 0)
                        .then(|| flat.eval(trip0).checked_mul(elem))
                        .flatten();
                    let seen = arrays[*array].get_or_insert(ArrayTranslation { delta, point });
                    if seen.point != point {
                        seen.point = None;
                    }
                    seen.delta == delta
                }
                CAccess::Symbolic { .. } => false,
            }),
            CNode::Loop(inner) => {
                inner.slot != slot
                    && bound_independent(&inner.lower, slot)
                    && bound_independent(&inner.upper, slot)
                    && {
                        enclosing.push(inner.slot);
                        let ok = self.translation_shape(
                            &inner.body,
                            slot,
                            step,
                            trip0,
                            enclosing,
                            arrays,
                        );
                        enclosing.pop();
                        ok
                    }
            }
            CNode::Call(_) => true,
        })
    }

    /// Whether every access `nodes` stream under `frame` lies inside its
    /// own array's extent. Walks loops like the streamer: a compiled
    /// innermost loop is checked at its two endpoints (an affine offset of
    /// one varying iterator is monotonic), a trace-invariant loop at one
    /// iteration, any other loop at every iteration. Runs after the shape
    /// check, so every access is affine.
    fn in_bounds(&self, nodes: &[CNode], frame: &mut [i64]) -> bool {
        let inside = |access: &CAccess, frame: &[i64], span: i64| {
            let CAccess::Affine { array, flat, .. } = access else {
                unreachable!("the shape check admits only affine accesses")
            };
            let len = self.arrays[*array]
                .layout
                .as_ref()
                .map_or(0, |layout| layout.dims.iter().product::<i64>());
            let first = flat.eval(frame);
            (0..len).contains(&first) && (0..len).contains(&(first + span))
        };
        nodes.iter().all(|node| match node {
            CNode::Comp(c) => c.accesses.iter().all(|a| inside(a, frame, 0)),
            CNode::Call(_) => true,
            CNode::Loop(l) => {
                let (Ok(lower), Ok(upper)) = (l.lower.eval(frame), l.upper.eval(frame)) else {
                    return false;
                };
                if upper <= lower {
                    return true;
                }
                let trips = (upper - lower + l.step - 1) / l.step;
                let saved = frame[l.slot];
                frame[l.slot] = lower;
                let ok = if l.inner {
                    l.body.iter().all(|node| {
                        let CNode::Comp(c) = node else {
                            unreachable!("inner loops contain only computations")
                        };
                        c.accesses.iter().all(|a| {
                            let CAccess::Affine { flat, .. } = a else {
                                unreachable!("inner accesses are affine")
                            };
                            inside(a, frame, flat.coeff(l.slot) * l.step * (trips - 1))
                        })
                    })
                } else if l.trace_invariant {
                    self.in_bounds(&l.body, frame)
                } else {
                    (0..trips).all(|trip| {
                        frame[l.slot] = lower + trip * l.step;
                        self.in_bounds(&l.body, frame)
                    })
                };
                frame[l.slot] = saved;
                ok
            }
        })
    }

    /// Streams trip indices `[lo, hi)` of the block loop — the sub-trace one
    /// shard of a block-granularity [`ShardPlan`](crate::shard::ShardPlan)
    /// simulates. Concatenating the streams of consecutive ranges covering
    /// `0..block_trips()` reproduces [`stream`](CompiledProgram::stream)'s
    /// emission order exactly: each iteration binds the block iterator and
    /// streams the body through the same per-node walk.
    ///
    /// # Errors
    /// [`MachineError::InvalidLoop`] when the program is not block-shardable
    /// ([`block_trips`](CompiledProgram::block_trips) is `None`); bound and
    /// subscript evaluation errors as in `stream`.
    pub(crate) fn stream_block_range(
        &self,
        lo: u64,
        hi: u64,
        sink: &mut impl AccessSink,
    ) -> Result<u64> {
        let trips = self.block_trips().ok_or_else(|| {
            MachineError::NotShardable("the program has no block loop".to_string())
        })?;
        let [CNode::Loop(l)] = self.nodes.as_slice() else {
            unreachable!("block_trips accepted the program shape")
        };
        let mut streamer = Streamer {
            compiled: self,
            frame: self.frame_init.clone(),
            count: 0,
            runs: Vec::new(),
        };
        let lower = l.lower.eval(&streamer.frame)?;
        let (lo, hi) = (lo.min(trips), hi.min(trips));
        for trip in lo..hi {
            streamer.frame[l.slot] = lower + trip as i64 * l.step;
            for child in &l.body {
                streamer.stream_node(child, sink)?;
            }
        }
        Ok(streamer.count)
    }
}

impl Streamer<'_> {
    fn stream_node(&mut self, node: &CNode, sink: &mut impl AccessSink) -> Result<()> {
        match node {
            CNode::Loop(l) => self.stream_loop(l, sink),
            CNode::Comp(c) => self.stream_comp(c, sink),
            // Library calls are opaque to the trace: their internal access
            // pattern belongs to the library, not to the program under study.
            CNode::Call(_) => Ok(()),
        }
    }

    fn stream_loop(&mut self, l: &CLoop, sink: &mut impl AccessSink) -> Result<()> {
        let lower = l.lower.eval(&self.frame)?;
        let upper = l.upper.eval(&self.frame)?;
        if upper <= lower {
            return Ok(());
        }
        let trips = (upper - lower + l.step - 1) / l.step;
        let saved = self.frame[l.slot];
        let result = if l.inner && self.stream_inner(l, lower, trips, sink) {
            telemetry::counter("machine.exec.compiled_stream_loops", 1);
            Ok(())
        } else if trips > 1 && l.trace_invariant && sink.begin_repeat(trips as u64) {
            // The subtree's emissions do not depend on this iterator: stream
            // one iteration and let the sink scale it by the trip count.
            telemetry::counter("machine.exec.stream_repeat_loops", 1);
            self.frame[l.slot] = lower;
            let before = self.count;
            let mut repeated = Ok(());
            for child in &l.body {
                if let Err(e) = self.stream_node(child, sink) {
                    repeated = Err(e);
                    break;
                }
            }
            sink.end_repeat();
            self.count += (trips as u64 - 1) * (self.count - before);
            repeated
        } else {
            if l.inner {
                // A clamping access bailed the run-group build: this loop
                // entry streams per access instead.
                telemetry::counter("machine.exec.stream_fallback_loops", 1);
            }
            let mut v = lower;
            loop {
                self.frame[l.slot] = v;
                for child in &l.body {
                    self.stream_node(child, sink)?;
                }
                v += l.step;
                if v >= upper {
                    break Ok(());
                }
            }
        };
        self.frame[l.slot] = saved;
        result
    }

    /// Streams a compiled innermost loop as one lockstep [`StrideRun`] group
    /// built directly from the offset/stride plans. Returns `false` when an
    /// access would clamp at address zero, in which case the caller takes
    /// the generic (clamping, bit-compatible) path.
    fn stream_inner(
        &mut self,
        l: &CLoop,
        lower: i64,
        trips: i64,
        sink: &mut impl AccessSink,
    ) -> bool {
        self.frame[l.slot] = lower;
        self.runs.clear();
        for node in &l.body {
            let CNode::Comp(comp) = node else {
                unreachable!("inner loops contain only computations")
            };
            for access in &comp.accesses {
                let CAccess::Affine {
                    array,
                    flat,
                    is_write,
                    ..
                } = access
                else {
                    unreachable!("inner accesses are affine")
                };
                let first = flat.eval(&self.frame);
                let stride_el = flat.coeff(l.slot);
                let last = first + stride_el * l.step * (trips - 1);
                if first < 0 || last < 0 {
                    // The AddressMap clamps negative offsets; replicate by
                    // falling back to the per-iteration path.
                    return false;
                }
                let carray = &self.compiled.arrays[*array];
                let elem = carray.elem_size as i64;
                self.runs.push(StrideRun {
                    base: carray.base + first as u64 * carray.elem_size as u64,
                    stride: stride_el * l.step * elem,
                    count: trips as u64,
                    array: *array as u32,
                    is_write: *is_write,
                });
            }
        }
        self.count += trips as u64 * self.runs.len() as u64;
        sink.run_group(&self.runs);
        true
    }

    /// Generic per-access emission (outside compiled innermost loops).
    fn stream_comp(&mut self, comp: &CComp, sink: &mut impl AccessSink) -> Result<()> {
        for access in &comp.accesses {
            let (array, offset) = match access {
                CAccess::Affine { array, flat, .. } => (*array, flat.eval(&self.frame)),
                CAccess::Symbolic { array, indices, .. } => {
                    let layout = self.compiled.arrays[*array]
                        .layout
                        .as_ref()
                        .expect("symbolic accesses lower only with a layout");
                    let mut offset = 0i64;
                    for (bound, stride) in indices.iter().zip(&layout.strides) {
                        offset += bound.eval(&self.frame)? * stride;
                    }
                    (*array, offset)
                }
            };
            let carray = &self.compiled.arrays[array];
            let address = carray.base + (offset.max(0) as u64) * carray.elem_size as u64;
            self.count += 1;
            sink.access(TraceEntry {
                address,
                is_write: access.is_write(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loop_ir::parser::parse_program;

    fn lower(source: &str) -> CompiledProgram {
        CompiledProgram::lower(&parse_program(source).unwrap()).unwrap()
    }

    #[test]
    fn constant_bounds_fold_at_lowering() {
        let compiled = lower(
            "program c { param N = 8; array A[N];
               for i in 0..N { A[i] = 1.0; } }",
        );
        let CNode::Loop(l) = &compiled.nodes[0] else {
            panic!("expected a loop")
        };
        assert!(matches!(l.upper.compiled, CExpr::Const(8)));
        assert!(l.inner);
    }

    #[test]
    fn zero_trip_loops_execute_nothing() {
        let p = parse_program(
            "program z { param N = 0; array A[4];
               for i in 0..N { A[i] = 1.0; } }",
        )
        .unwrap();
        struct Drop0;
        impl AccessSink for Drop0 {
            fn access(&mut self, _entry: TraceEntry) {}
        }
        let compiled = CompiledProgram::lower(&p).unwrap();
        let mut data = ProgramData::zeroed(&p).unwrap();
        assert_eq!(compiled.execute(&mut data).unwrap(), 0);
        assert_eq!(data.array("A").unwrap(), &[0.0; 4]);
        assert_eq!(compiled.stream(&mut Drop0).unwrap(), 0);
    }

    #[test]
    fn block_range_streams_concatenate_to_the_whole_trace() {
        let p = parse_program(
            "program blocks { param NB = 5; param N = 4;
               array A[NB * N]; array B[NB * N];
               for b in 0..NB {
                 for i in 0..N { B[b * N + i] = A[b * N + i] + 1.0; }
               } }",
        )
        .unwrap();
        let compiled = CompiledProgram::lower(&p).unwrap();
        assert_eq!(compiled.block_trips(), Some(5));

        #[derive(Default)]
        struct Collect(Vec<TraceEntry>);
        impl AccessSink for Collect {
            fn access(&mut self, entry: TraceEntry) {
                self.0.push(entry);
            }
        }

        let mut whole = Collect::default();
        let total = compiled.stream(&mut whole).unwrap();
        let mut pieces = Collect::default();
        let mut count = 0;
        // Ragged cuts, including an empty range and one clamped past the end.
        for (lo, hi) in [(0, 2), (2, 2), (2, 3), (3, 9)] {
            count += compiled.stream_block_range(lo, hi, &mut pieces).unwrap();
        }
        assert_eq!(count, total);
        assert_eq!(pieces.0.len(), whole.0.len());
        assert!(pieces
            .0
            .iter()
            .zip(&whole.0)
            .all(|(a, b)| a.address == b.address && a.is_write == b.is_write));

        // Flat innermost loops refuse block sharding (one run group already
        // covers the whole domain).
        let flat = lower("program f { param N = 8; array A[N]; for i in 0..N { A[i] = 1.0; } }");
        assert_eq!(flat.block_trips(), None);
        assert!(matches!(
            flat.stream_block_range(0, 1, &mut Collect::default()),
            Err(MachineError::NotShardable(_))
        ));
    }

    #[test]
    fn block_translation_exports_per_array_byte_strides() {
        // A moves one 4-double row per trip, B is shared, C is 4-byte
        // `float` data moving one row too; arrays come in name order.
        let mut p = parse_program(
            "program shifts { param NB = 5; param N = 4;
               array A[NB * N]; array B[N]; array C[NB * N];
               for b in 0..NB {
                 for i in 0..N { B[i] = A[b * N + i] + C[b * N + i]; }
               } }",
        )
        .unwrap();
        p.arrays.get_mut(&Var::new("C")).unwrap().elem_size = 4;
        let compiled = CompiledProgram::lower(&p).unwrap();
        let deltas = compiled
            .block_translation()
            .map(|arrays| arrays.iter().map(|a| a.delta).collect::<Vec<_>>());
        assert_eq!(deltas, Some(vec![32, 0, 16]));

        // Reaching one row past A's end at the last trip breaks the proof.
        let past_end = lower(
            "program past { param NB = 5; param N = 4; array A[NB * N]; array B[N];
               for b in 0..NB { for i in 0..N { B[i] = A[b * N + i + N]; } } }",
        );
        assert_eq!(past_end.block_translation(), None);
        // No block loop, no translation.
        let flat = lower("program f { param N = 8; array A[N]; for i in 0..N { A[i] = 1.0; } }");
        assert_eq!(flat.block_translation(), None);
    }

    #[test]
    fn block_translation_exports_point_offsets_at_the_first_trip() {
        // Arrays in name order. A and H span the inner loop: no point. F is
        // read at one subscript, in and outside the inner loop: a point at
        // trip 0 (b = 1) of element 3. G is read at two subscripts: no
        // point. S is a fixed 4-byte scalar: a point of element 3 that
        // never moves.
        let mut p = parse_program(
            "program points { param NB = 5; param N = 4;
               array A[N]; array F[NB + 4]; array G[NB + 1]; array H[NB + N]; array S[4];
               for b in 1..NB {
                 S[3] = F[b + 2];
                 for i in 0..N { A[i] = F[b + 2] + G[b] + G[b + 1] + H[b + i] + S[3]; }
               } }",
        )
        .unwrap();
        p.arrays.get_mut(&Var::new("S")).unwrap().elem_size = 4;
        let compiled = CompiledProgram::lower(&p).unwrap();
        let translation = |delta, point| ArrayTranslation { delta, point };
        assert_eq!(
            compiled.block_translation(),
            Some(vec![
                translation(0, None),
                translation(8, Some(24)),
                translation(8, None),
                translation(8, None),
                translation(0, Some(12)),
            ])
        );
    }

    #[test]
    fn negative_stride_accesses_compile_and_execute() {
        let p = parse_program(
            "program rev { param N = 6; array A[N]; array B[N];
               for i in 0..N { B[i] = A[N - 1 - i]; } }",
        )
        .unwrap();
        let compiled = CompiledProgram::lower(&p).unwrap();
        let mut data =
            ProgramData::new_with(&p, |name, i| if name == "A" { i as f64 } else { 0.0 }).unwrap();
        compiled.execute(&mut data).unwrap();
        assert_eq!(data.array("B").unwrap(), &[5.0, 4.0, 3.0, 2.0, 1.0, 0.0]);
    }

    #[test]
    fn lowering_rejects_bad_programs_eagerly() {
        let unknown = parse_program(
            "program u { param N = 4; array A[N];
               for i in 0..M { A[i] = 1.0; } }",
        );
        // The parser may already reject unknown bounds; when it does not,
        // lowering must.
        if let Ok(p) = unknown {
            assert!(matches!(
                CompiledProgram::lower(&p),
                Err(MachineError::UnboundVariable(_))
            ));
        }
        let mut p = parse_program(
            "program s { param N = 4; array A[N];
               for i in 0..N { A[i] = 1.0; } }",
        )
        .unwrap();
        if let Node::Loop(l) = &mut p.body[0] {
            l.step = 0;
        }
        assert!(matches!(
            CompiledProgram::lower(&p),
            Err(MachineError::InvalidLoop(_))
        ));
    }

    #[test]
    fn execute_rejects_mismatched_data() {
        let p =
            parse_program("program a { param N = 4; array A[N]; for i in 0..N { A[i] = 1.0; } }")
                .unwrap();
        let q =
            parse_program("program b { param N = 4; array B[N]; for i in 0..N { B[i] = 1.0; } }")
                .unwrap();
        let compiled = CompiledProgram::lower(&p).unwrap();
        let mut data = ProgramData::zeroed(&q).unwrap();
        assert!(compiled.execute(&mut data).is_err());
    }
}
