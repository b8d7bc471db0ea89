//! Bit-serial arithmetic µ-programs over bit-transposed vectors.
//!
//! The paper's engine stops at bulk OR/AND/XOR/INV; SIMDRAM (PAPERS.md)
//! shows these primitives synthesize integer arithmetic when the data is
//! laid out *bit-transposed*: plane `k` is a memory row holding bit `k`
//! of every lane, so one bulk operation over planes is one bit-step of a
//! ripple chain over all lanes at once.
//!
//! This module is that promotion into the runtime ISA, in three layers:
//!
//! 1. [`TransposedVec`] — the bit-sliced layout, allocated as one
//!    page-aligned row group by [`crate::alloc::PimAllocator::alloc_transposed`];
//! 2. [`MicroProgram`] — one arithmetic op ([`ArithOp`]) over transposed
//!    operands, expanded into a boolean expression DAG per output bit
//!    (ripple-carry adder, borrow-chain comparator, compare-select mux);
//! 3. [`compile`] — the perf core: a batch of µ-programs is hash-consed
//!    into *one* DAG (common-subexpression elimination shares carry and
//!    borrow chains across programs), algebraically simplified, same-op
//!    chains are fused into multi-operand requests, and scratch planes
//!    are recycled by last-use liveness before the flattened
//!    [`BatchRequest`] list goes to the existing `plan_batch` lookahead
//!    beam. The compiled batch streams through [`ExecSession`] unchanged.
//!
//! Fusion and CSE are gated by [`CompileOptions`], so benchmarks can measure
//! the optimized pipeline against naive per-program expansion
//! ([`CompileOptions::unoptimized`]) on identical inputs.

use crate::bitvec::PimBitVec;
use crate::isa::PimInstruction;
use crate::pool::ExecSession;
use crate::scheduler::{BatchRequest, ScheduleReport};
use crate::system::PimSystem;
use crate::RuntimeError;
use pinatubo_core::{ArithOp, BitwiseOp};
use pinatubo_mem::RowData;
use std::collections::{HashMap, HashSet};

/// A bit-transposed (bit-sliced) integer vector: plane `k` holds bit `k`
/// (LSB first) of every lane, one full memory-row group per plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransposedVec {
    planes: Vec<PimBitVec>,
    lanes: u64,
}

impl TransposedVec {
    /// Number of integer lanes.
    #[must_use]
    pub fn lanes(&self) -> u64 {
        self.lanes
    }

    /// Lane width in bits (= number of planes).
    #[must_use]
    pub fn width_bits(&self) -> u32 {
        self.planes.len() as u32
    }

    /// The bit-planes, LSB first.
    #[must_use]
    pub fn planes(&self) -> &[PimBitVec] {
        &self.planes
    }
}

impl PimSystem {
    /// Allocates a [`TransposedVec`] of `lanes` integers, `width_bits`
    /// bits each — `width_bits` page-aligned planes placed as one row
    /// group (see [`crate::alloc::PimAllocator::alloc_transposed`]).
    ///
    /// # Errors
    ///
    /// See [`crate::alloc::PimAllocator::alloc`].
    pub fn alloc_transposed(
        &mut self,
        lanes: u64,
        width_bits: u32,
    ) -> Result<TransposedVec, RuntimeError> {
        let planes = self.alloc_transposed_planes(lanes, width_bits)?;
        Ok(TransposedVec { planes, lanes })
    }

    /// Stores integer lanes into a transposed vector (host-side
    /// transpose; uncharged setup traffic like [`PimSystem::store`]).
    /// Values are masked to the lane width; missing tail lanes stay zero.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::StoreTooLong`] if more lanes are offered than the
    /// vector holds.
    pub fn store_lanes(&mut self, vec: &TransposedVec, values: &[u64]) -> Result<(), RuntimeError> {
        if values.len() as u64 > vec.lanes {
            return Err(RuntimeError::StoreTooLong {
                capacity_bits: vec.lanes,
                got_bits: values.len() as u64,
            });
        }
        for (k, plane) in vec.planes.iter().enumerate() {
            self.store_packed(plane, &pack_plane(values, k as u32))?;
        }
        Ok(())
    }

    /// Reads a transposed vector back as integer lanes (uncharged
    /// verification helper, like [`PimSystem::load`]).
    #[must_use]
    pub fn load_lanes(&self, vec: &TransposedVec) -> Vec<u64> {
        let mut out = vec![0u64; vec.lanes as usize];
        for (k, plane) in vec.planes.iter().enumerate() {
            for (i, bit) in self.load(plane).into_iter().enumerate() {
                if bit {
                    out[i] |= 1u64 << k;
                }
            }
        }
        out
    }
}

/// Bit-plane `k` of `values`, packed: bit `i` is bit `k` of lane
/// `values[i]`, 64 lanes folded into each word. The one lane packer behind
/// [`PimSystem::store_lanes`] and the serving layer's `store_lanes`.
#[must_use]
pub fn pack_plane(values: &[u64], k: u32) -> RowData {
    let words = values
        .chunks(64)
        .map(|lanes| {
            lanes
                .iter()
                .enumerate()
                .fold(0u64, |w, (i, &v)| w | (v >> k & 1) << i)
        })
        .collect();
    RowData::from_words(words, values.len() as u64)
}

/// Where a µ-program writes its result.
#[derive(Debug, Clone)]
pub enum MicroOut {
    /// A full-width transposed result (Add/Sub/Max/Min).
    Vector(TransposedVec),
    /// A one-bit-per-lane mask (comparisons).
    Mask(PimBitVec),
}

/// One bit-serial arithmetic operation over transposed operands.
///
/// Constructors validate shapes eagerly (matching widths and lane
/// counts); expansion into bitwise requests happens at [`compile`] time
/// so a whole batch shares one expression DAG.
#[derive(Debug, Clone)]
pub struct MicroProgram {
    op: ArithOp,
    a: TransposedVec,
    b: Option<TransposedVec>,
    konst: u64,
    out: MicroOut,
}

impl MicroProgram {
    fn binary(op: ArithOp, a: &TransposedVec, b: &TransposedVec, out: MicroOut) -> Self {
        assert_eq!(a.width_bits(), b.width_bits(), "operand widths must match");
        assert_eq!(a.lanes(), b.lanes(), "operand lane counts must match");
        let prog = MicroProgram {
            op,
            a: a.clone(),
            b: Some(b.clone()),
            konst: 0,
            out,
        };
        prog.check_out();
        prog
    }

    fn check_out(&self) {
        match &self.out {
            MicroOut::Vector(dst) => {
                assert!(
                    !self.op.result_is_mask(),
                    "{} produces a mask, not a vector",
                    self.op
                );
                assert_eq!(dst.width_bits(), self.a.width_bits());
                assert_eq!(dst.lanes(), self.a.lanes());
            }
            MicroOut::Mask(dst) => {
                assert!(
                    self.op.result_is_mask(),
                    "{} produces a vector, not a mask",
                    self.op
                );
                assert_eq!(dst.len_bits(), self.a.lanes());
            }
        }
    }

    /// `dst = a + b` (lane-wise, wrapping).
    #[must_use]
    pub fn add(a: &TransposedVec, b: &TransposedVec, dst: &TransposedVec) -> Self {
        Self::binary(ArithOp::Add, a, b, MicroOut::Vector(dst.clone()))
    }

    /// `dst = a - b` (lane-wise, two's-complement wrapping).
    #[must_use]
    pub fn sub(a: &TransposedVec, b: &TransposedVec, dst: &TransposedVec) -> Self {
        Self::binary(ArithOp::Sub, a, b, MicroOut::Vector(dst.clone()))
    }

    /// `mask = a >= b` (lane-wise, unsigned).
    #[must_use]
    pub fn cmp_ge(a: &TransposedVec, b: &TransposedVec, mask: &PimBitVec) -> Self {
        Self::binary(ArithOp::CmpGe, a, b, MicroOut::Mask(mask.clone()))
    }

    /// `mask = a < b` (lane-wise, unsigned).
    #[must_use]
    pub fn cmp_lt(a: &TransposedVec, b: &TransposedVec, mask: &PimBitVec) -> Self {
        Self::binary(ArithOp::CmpLt, a, b, MicroOut::Mask(mask.clone()))
    }

    /// `dst = max(a, b)` (lane-wise, unsigned compare-select).
    #[must_use]
    pub fn max(a: &TransposedVec, b: &TransposedVec, dst: &TransposedVec) -> Self {
        Self::binary(ArithOp::Max, a, b, MicroOut::Vector(dst.clone()))
    }

    /// `dst = min(a, b)` (lane-wise, unsigned compare-select).
    #[must_use]
    pub fn min(a: &TransposedVec, b: &TransposedVec, dst: &TransposedVec) -> Self {
        Self::binary(ArithOp::Min, a, b, MicroOut::Vector(dst.clone()))
    }

    /// `mask = a > constant` (lane-wise, unsigned). The constant's
    /// bit-planes are uniform, so they fold away at compile time — the
    /// chain degenerates to one AND or OR per bit position.
    #[must_use]
    pub fn threshold_const(a: &TransposedVec, constant: u64, mask: &PimBitVec) -> Self {
        let prog = MicroProgram {
            op: ArithOp::ThresholdConst,
            a: a.clone(),
            b: None,
            konst: constant & ArithOp::lane_mask(a.width_bits()),
            out: MicroOut::Mask(mask.clone()),
        };
        prog.check_out();
        prog
    }

    /// `mask = a >= constant` — [`MicroProgram::threshold_const`] shifted
    /// by one (`a >= c` ⟺ `a > c - 1`, and `a >= 0` is constant true).
    #[must_use]
    pub fn cmp_ge_const(a: &TransposedVec, constant: u64, mask: &PimBitVec) -> Self {
        let width = a.width_bits();
        let c = constant.min(ArithOp::lane_mask(width).saturating_add(1));
        let prog = MicroProgram {
            op: ArithOp::CmpGe,
            a: a.clone(),
            b: None,
            konst: c,
            out: MicroOut::Mask(mask.clone()),
        };
        prog.check_out();
        prog
    }

    /// `dst = a << shift` (lane-wise, logical). In the transposed layout
    /// this is a pure plane-index remap — output plane `k` is input plane
    /// `k - shift`, with the vacated low planes constant zero — so it
    /// compiles to zero logic gates: only the output copy/zeroing
    /// requests remain. Shifts at or beyond the lane width produce zero.
    #[must_use]
    pub fn shl_const(a: &TransposedVec, shift: u32, dst: &TransposedVec) -> Self {
        let prog = MicroProgram {
            op: ArithOp::ShlConst,
            a: a.clone(),
            b: None,
            konst: u64::from(shift.min(a.width_bits())),
            out: MicroOut::Vector(dst.clone()),
        };
        prog.check_out();
        prog
    }

    /// `dst = a >> shift` (lane-wise, logical) — the mirror plane-index
    /// remap of [`MicroProgram::shl_const`]: output plane `k` is input
    /// plane `k + shift`, with the vacated high planes constant zero.
    #[must_use]
    pub fn shr_const(a: &TransposedVec, shift: u32, dst: &TransposedVec) -> Self {
        let prog = MicroProgram {
            op: ArithOp::ShrConst,
            a: a.clone(),
            b: None,
            konst: u64::from(shift.min(a.width_bits())),
            out: MicroOut::Vector(dst.clone()),
        };
        prog.check_out();
        prog
    }

    /// The arithmetic operation.
    #[must_use]
    pub fn op(&self) -> ArithOp {
        self.op
    }

    /// The result location.
    #[must_use]
    pub fn out(&self) -> &MicroOut {
        &self.out
    }

    /// Output planes, in bit order (one plane for masks).
    fn out_planes(&self) -> Vec<PimBitVec> {
        match &self.out {
            MicroOut::Vector(v) => v.planes.clone(),
            MicroOut::Mask(m) => vec![m.clone()],
        }
    }
}

/// The compiler switch: on by default (the optimized pipeline);
/// [`CompileOptions::unoptimized`] keeps only the constant folding any
/// hand-rolled bit-serial ladder would do, for A/B measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// CSE and fusion together. CSE hash-conses the batch into one DAG:
    /// identical subexpressions (shared carry/borrow chains, repeated
    /// plane terms) are computed once, plus algebraic simplification
    /// (idempotence, complement, absorption, double negation). Fusion
    /// flattens single-use chains of the same associative op into one
    /// multi-operand request (one scratch write instead of one per
    /// pairwise step; OR additionally exploits multi-row activation
    /// fan-in).
    pub optimize: bool,
}

impl CompileOptions {
    /// Fusion and CSE on.
    #[must_use]
    pub fn optimized() -> Self {
        CompileOptions { optimize: true }
    }

    /// Naive per-program expansion (constant folding only).
    #[must_use]
    pub fn unoptimized() -> Self {
        CompileOptions { optimize: false }
    }
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions::optimized()
    }
}

/// One node of the boolean expression DAG. Gate args are node indices,
/// always smaller than the node's own index (construction is bottom-up),
/// so index order is a topological order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Expr {
    /// An operand plane (index into `Builder::inputs`).
    Input(usize),
    /// A uniform plane (folded away except as an output root).
    Const(bool),
    /// Negation.
    Not(usize),
    /// An associative gate: Or, And or Xor over ≥ 2 args.
    Gate(BitwiseOp, Vec<usize>),
}

/// DAG builder with always-on constant folding and opt-in hash-consing +
/// algebraic simplification.
struct Builder {
    opts: CompileOptions,
    exprs: Vec<Expr>,
    memo: HashMap<Expr, usize>,
    inputs: Vec<PimBitVec>,
    input_nodes: HashMap<u64, usize>,
    const_nodes: [Option<usize>; 2],
    /// Output plane id → producing node: a later program reading a plane
    /// this batch writes consumes the *value*, never a stale row. Always
    /// on — it is a correctness rule, not an optimization (output copies
    /// are emitted after all gate requests).
    written: HashMap<u64, usize>,
}

impl Builder {
    fn new(opts: CompileOptions) -> Self {
        Builder {
            opts,
            exprs: Vec::new(),
            memo: HashMap::new(),
            inputs: Vec::new(),
            input_nodes: HashMap::new(),
            const_nodes: [None, None],
            written: HashMap::new(),
        }
    }

    fn push(&mut self, e: Expr) -> usize {
        self.exprs.push(e);
        self.exprs.len() - 1
    }

    fn intern(&mut self, e: Expr) -> usize {
        if self.opts.optimize {
            if let Some(&n) = self.memo.get(&e) {
                return n;
            }
            let n = self.push(e.clone());
            self.memo.insert(e, n);
            n
        } else {
            self.push(e)
        }
    }

    fn constant(&mut self, v: bool) -> usize {
        let slot = usize::from(v);
        if let Some(n) = self.const_nodes[slot] {
            return n;
        }
        let n = self.push(Expr::Const(v));
        self.const_nodes[slot] = Some(n);
        n
    }

    fn input(&mut self, plane: &PimBitVec) -> usize {
        // `check_shape` ruled out reading a destination plane before its
        // producer, so a plane not yet written is a true input.
        if let Some(&n) = self.written.get(&plane.id()) {
            return n;
        }
        if let Some(&n) = self.input_nodes.get(&plane.id()) {
            return n;
        }
        let idx = self.inputs.len();
        self.inputs.push(plane.clone());
        let n = self.push(Expr::Input(idx));
        self.input_nodes.insert(plane.id(), n);
        n
    }

    fn not(&mut self, x: usize) -> usize {
        match self.exprs[x] {
            Expr::Const(v) => self.constant(!v),
            Expr::Not(y) => y,
            _ => self.intern(Expr::Not(x)),
        }
    }

    /// Builds `op(args…)` for an associative op, folding constants
    /// (always) and simplifying algebraically (when optimizing).
    fn gate(&mut self, op: BitwiseOp, args: Vec<usize>) -> usize {
        debug_assert!(op.is_binary());
        // Constant folding: uniform planes never cost a request.
        let mut parity = false; // XOR: each true operand flips the result
        let mut kept: Vec<usize> = Vec::with_capacity(args.len());
        for a in args {
            match (op, &self.exprs[a]) {
                (BitwiseOp::Or, Expr::Const(true)) | (BitwiseOp::And, Expr::Const(false)) => {
                    return self.constant(matches!(op, BitwiseOp::Or));
                }
                (BitwiseOp::Or, Expr::Const(false)) | (BitwiseOp::And, Expr::Const(true)) => {}
                (BitwiseOp::Xor, Expr::Const(v)) => parity ^= v,
                _ => kept.push(a),
            }
        }
        if self.opts.optimize {
            kept.sort_unstable();
            match op {
                // Idempotence: x OP x = x.
                BitwiseOp::Or | BitwiseOp::And => kept.dedup(),
                // Self-inverse: x ^ x = 0.
                BitwiseOp::Xor => {
                    let mut out = Vec::with_capacity(kept.len());
                    for a in kept {
                        if out.last() == Some(&a) {
                            out.pop();
                        } else {
                            out.push(a);
                        }
                    }
                    kept = out;
                }
                BitwiseOp::Not => unreachable!(),
            }
            // Complement: x against ¬x decides OR/AND outright.
            if kept.len() >= 2 && matches!(op, BitwiseOp::Or | BitwiseOp::And) {
                let set: HashSet<usize> = kept.iter().copied().collect();
                for &a in &kept {
                    if let Expr::Not(y) = self.exprs[a] {
                        if set.contains(&y) {
                            return self.constant(matches!(op, BitwiseOp::Or));
                        }
                    }
                }
            }
            // Absorption: or(x, and(…, ¬x, …)) = or(x, and(…)) — the
            // borrow-chain shape `carry' = a | (carry & ¬a)`.
            if op == BitwiseOp::Or && kept.len() == 2 {
                for (i, j) in [(0, 1), (1, 0)] {
                    let (x, g) = (kept[j], kept[i]);
                    if let Expr::Gate(BitwiseOp::And, gargs) = &self.exprs[g] {
                        let gargs = gargs.clone();
                        let trimmed: Vec<usize> = gargs
                            .iter()
                            .copied()
                            .filter(|&n| !matches!(self.exprs[n], Expr::Not(y) if y == x))
                            .collect();
                        if trimmed.len() < gargs.len() {
                            let inner = self.gate(BitwiseOp::And, trimmed);
                            return self.gate(BitwiseOp::Or, vec![x, inner]);
                        }
                    }
                }
            }
        }
        let base = match kept.len() {
            0 => self.constant(matches!(op, BitwiseOp::And)),
            1 => kept[0],
            _ => self.intern(Expr::Gate(op, kept)),
        };
        if parity {
            self.not(base)
        } else {
            base
        }
    }

    /// Operand planes of `v` as input nodes, LSB first.
    fn plane_nodes(&mut self, v: &TransposedVec) -> Vec<usize> {
        v.planes.iter().map(|p| self.input(p)).collect()
    }

    /// Ripple carry chain for `a + b_in + carry_in`: per bit,
    /// `x = a ⊕ b`, `sum = x ⊕ carry`, `carry' = (a ∧ b) ∨ (carry ∧ x)`.
    /// Sums are built only when requested (comparisons need the carry
    /// alone); unused final carries die in the reachability pass.
    fn ripple_chain(
        &mut self,
        a: &[usize],
        b: &[usize],
        carry_in: usize,
        want_sums: bool,
    ) -> (Vec<usize>, usize) {
        let mut carry = carry_in;
        let mut sums = Vec::new();
        for k in 0..a.len() {
            let x = self.gate(BitwiseOp::Xor, vec![a[k], b[k]]);
            if want_sums {
                sums.push(self.gate(BitwiseOp::Xor, vec![x, carry]));
            }
            let g = self.gate(BitwiseOp::And, vec![a[k], b[k]]);
            let p = self.gate(BitwiseOp::And, vec![carry, x]);
            carry = self.gate(BitwiseOp::Or, vec![g, p]);
        }
        (sums, carry)
    }

    /// `a ≥ b` as the carry-out of `a + ¬b + 1` (no borrow materialized).
    fn ge_chain(&mut self, a: &[usize], b: &[usize]) -> usize {
        let nb: Vec<usize> = b.iter().map(|&x| self.not(x)).collect();
        let t = self.constant(true);
        self.ripple_chain(a, &nb, t, false).1
    }

    /// Carry-out of `a + ¬c + 1` for a constant `c ≥ 1` whose uniform
    /// planes fold away: per bit, `carry' = carry ∧ aₖ` (c-bit 1) or
    /// `aₖ ∨ (carry ∧ ¬aₖ)` (c-bit 0; absorption reduces it to
    /// `aₖ ∨ carry`). The seed is the k = 0 step with carry-in 1 folded:
    /// `a₀` or constant true.
    fn ge_const_chain(&mut self, a: &[usize], c: u64) -> usize {
        debug_assert!(c >= 1);
        let mut carry = if c & 1 == 1 {
            a[0]
        } else {
            self.constant(true)
        };
        for (k, &ak) in a.iter().enumerate().skip(1) {
            carry = if c >> k & 1 == 1 {
                self.gate(BitwiseOp::And, vec![carry, ak])
            } else {
                let na = self.not(ak);
                let t = self.gate(BitwiseOp::And, vec![carry, na]);
                self.gate(BitwiseOp::Or, vec![ak, t])
            };
        }
        carry
    }

    /// Expands one µ-program; returns `(root node, output plane)` pairs.
    fn build_program(&mut self, p: &MicroProgram) -> Vec<(usize, PimBitVec)> {
        let a = self.plane_nodes(&p.a);
        let width = p.a.width_bits();
        let max = ArithOp::lane_mask(width);
        let roots: Vec<usize> = match (p.op, &p.b) {
            (ArithOp::Add, Some(b)) => {
                let b = self.plane_nodes(b);
                let f = self.constant(false);
                self.ripple_chain(&a, &b, f, true).0
            }
            (ArithOp::Sub, Some(b)) => {
                let b = self.plane_nodes(b);
                let nb: Vec<usize> = b.iter().map(|&x| self.not(x)).collect();
                let t = self.constant(true);
                self.ripple_chain(&a, &nb, t, true).0
            }
            (ArithOp::CmpGe, Some(b)) => {
                let b = self.plane_nodes(b);
                vec![self.ge_chain(&a, &b)]
            }
            (ArithOp::CmpLt, Some(b)) => {
                let b = self.plane_nodes(b);
                let ge = self.ge_chain(&a, &b);
                vec![self.not(ge)]
            }
            (ArithOp::Max | ArithOp::Min, Some(b)) => {
                let b = self.plane_nodes(b);
                let ge = self.ge_chain(&a, &b);
                let nge = self.not(ge);
                // Compare-select: the winner's plane through the mask.
                let (am, bm) = if p.op == ArithOp::Max {
                    (ge, nge)
                } else {
                    (nge, ge)
                };
                (0..width as usize)
                    .map(|k| {
                        let ta = self.gate(BitwiseOp::And, vec![a[k], am]);
                        let tb = self.gate(BitwiseOp::And, vec![b[k], bm]);
                        self.gate(BitwiseOp::Or, vec![ta, tb])
                    })
                    .collect()
            }
            (ArithOp::ThresholdConst, None) => {
                // a > c ⟺ a ≥ c + 1; a > max is constant false.
                if p.konst >= max {
                    vec![self.constant(false)]
                } else {
                    vec![self.ge_const_chain(&a, p.konst + 1)]
                }
            }
            (ArithOp::CmpGe, None) => {
                if p.konst == 0 {
                    vec![self.constant(true)]
                } else if p.konst > max {
                    vec![self.constant(false)]
                } else {
                    vec![self.ge_const_chain(&a, p.konst)]
                }
            }
            (ArithOp::ShlConst, None) => {
                // Plane-index remap, no gates: output plane k reads input
                // plane k - s; the vacated low planes are constant zero.
                let s = usize::try_from(p.konst).unwrap_or(usize::MAX);
                (0..width as usize)
                    .map(|k| {
                        if k >= s {
                            a[k - s]
                        } else {
                            self.constant(false)
                        }
                    })
                    .collect()
            }
            (ArithOp::ShrConst, None) => {
                let s = usize::try_from(p.konst).unwrap_or(usize::MAX);
                (0..width as usize)
                    .map(|k| {
                        if k.checked_add(s).is_some_and(|i| i < width as usize) {
                            a[k + s]
                        } else {
                            self.constant(false)
                        }
                    })
                    .collect()
            }
            _ => unreachable!("constructors pair operands with operations"),
        };
        let outputs: Vec<(usize, PimBitVec)> = roots.into_iter().zip(p.out_planes()).collect();
        for (root, plane) in &outputs {
            self.written.insert(plane.id(), *root);
        }
        outputs
    }
}

/// A µ-program's compiled form: the flattened request list (already in a
/// dependence-respecting order) plus the scratch planes it owns.
#[derive(Debug)]
pub struct CompiledBatch {
    requests: Vec<BatchRequest>,
    scratch: Vec<PimBitVec>,
    live_gates: usize,
}

impl CompiledBatch {
    /// The bulk-bitwise requests, in a valid serial order. Hand them to
    /// [`PimSystem::execute_batch`] / [`ExecSession::submit_batch`]
    /// directly, or through the convenience methods below.
    #[must_use]
    pub fn requests(&self) -> &[BatchRequest] {
        &self.requests
    }

    /// Scratch planes the batch recycled via liveness (the peak live
    /// count, not one per intermediate value).
    #[must_use]
    pub fn scratch_planes(&self) -> usize {
        self.scratch.len()
    }

    /// Live gate nodes after CSE/fusion (requests minus output copies).
    #[must_use]
    pub fn live_gates(&self) -> usize {
        self.live_gates
    }

    /// Runs the batch through the lookahead planner and channel-parallel
    /// executor.
    ///
    /// # Errors
    ///
    /// See [`PimSystem::execute_batch`].
    pub fn execute(&self, sys: &mut PimSystem) -> Result<ScheduleReport, RuntimeError> {
        sys.execute_batch(&self.requests)
    }

    /// Runs the batch one request at a time (the reference path).
    ///
    /// # Errors
    ///
    /// See [`PimSystem::execute_batch_serial`].
    pub fn execute_serial(&self, sys: &mut PimSystem) -> Result<ScheduleReport, RuntimeError> {
        sys.execute_batch_serial(&self.requests)
    }

    /// Streams the batch through a persistent [`ExecSession`] unchanged —
    /// µ-programs are ordinary batch requests to the pool.
    ///
    /// # Errors
    ///
    /// See [`ExecSession::submit_batch`].
    pub fn submit(&self, session: &mut ExecSession<'_>) -> Result<Vec<usize>, RuntimeError> {
        session.submit_batch(&self.requests)
    }

    /// Lowers the batch to the wire ISA: one [`PimInstruction`] per row
    /// segment, in request order.
    #[must_use]
    pub fn instructions(&self, row_bits: u64) -> Vec<PimInstruction> {
        crate::isa::instructions_for_requests(&self.requests, row_bits)
    }

    /// Returns the scratch planes to the allocator (the destination
    /// vectors stay live — they belong to the caller). Returns how many
    /// rows were released.
    pub fn release(self, sys: &mut PimSystem) -> usize {
        sys.release_vecs(self.scratch.iter())
    }
}

/// Where a node's value lives during lowering.
#[derive(Debug, Clone)]
enum AbsLoc {
    Plane(PimBitVec),
    Slot(usize),
}

/// A request whose operands are still abstract locations.
struct AbsReq {
    op: BitwiseOp,
    args: Vec<AbsLoc>,
    dst: AbsLoc,
}

/// A µ-program batch shape [`compile`] rejects; `program` is the index
/// of the first offending program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroBatchError {
    /// The program's lane count differs from the first program's.
    LaneMismatch {
        /// Offending program.
        program: usize,
        /// The first program's lane count.
        expected: u64,
        /// This program's lane count.
        got: u64,
    },
    /// The program writes an output plane an earlier program writes.
    DuplicateDestination {
        /// Offending program.
        program: usize,
        /// The plane's vector id.
        plane: u64,
    },
    /// The program reads a plane that it or a later program writes
    /// (read a written plane only *after* its producing program; in-place
    /// µ-ops are not supported).
    ReadBeforeWrite {
        /// Offending program.
        program: usize,
        /// The plane's vector id.
        plane: u64,
    },
}

impl std::fmt::Display for MicroBatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            MicroBatchError::LaneMismatch {
                program,
                expected,
                got,
            } => write!(
                f,
                "program {program} has {got} lanes, the batch has {expected}"
            ),
            MicroBatchError::DuplicateDestination { program, plane } => write!(
                f,
                "program {program} writes output plane {plane}, which an earlier program writes"
            ),
            MicroBatchError::ReadBeforeWrite { program, plane } => write!(
                f,
                "program {program} reads plane {plane} before the program that writes it"
            ),
        }
    }
}

/// The batch shape [`compile`] relies on: one lane count, distinct
/// output planes, and every written plane read only after the program
/// that writes it (each program reads every plane of its operands).
fn check_shape(programs: &[MicroProgram]) -> Result<(), MicroBatchError> {
    let lanes = programs.first().map_or(0, |p| p.a.lanes());
    let mut dst_ids = HashSet::new();
    for (program, p) in programs.iter().enumerate() {
        if p.a.lanes() != lanes {
            return Err(MicroBatchError::LaneMismatch {
                program,
                expected: lanes,
                got: p.a.lanes(),
            });
        }
        for plane in p.out_planes() {
            if !dst_ids.insert(plane.id()) {
                return Err(MicroBatchError::DuplicateDestination {
                    program,
                    plane: plane.id(),
                });
            }
        }
    }
    let mut written = HashSet::new();
    for (program, p) in programs.iter().enumerate() {
        let operands = std::iter::once(&p.a).chain(&p.b);
        for plane in operands.flat_map(TransposedVec::planes) {
            if dst_ids.contains(&plane.id()) && !written.contains(&plane.id()) {
                return Err(MicroBatchError::ReadBeforeWrite {
                    program,
                    plane: plane.id(),
                });
            }
        }
        written.extend(p.out_planes().iter().map(PimBitVec::id));
    }
    Ok(())
}

/// Compiles a batch of µ-programs into one [`CompiledBatch`].
///
/// All programs are expanded into a single expression DAG (when
/// `opts.optimize`, hash-consed across programs, with single-use same-op
/// chains flattened into multi-operand requests), and interior
/// values get scratch planes recycled by last-use liveness — the peak
/// live count is allocated as one group, steered to the channel of the
/// first program's first input plane (see
/// [`PimSystem::alloc_group_on_channel`]; a no-op steer except under
/// `ChannelRotate`). Write-after-read hazards from
/// slot recycling are resolved by the batch scheduler's dependence
/// analysis, which all execution paths (serial, planned, session pool)
/// share.
///
/// # Errors
///
/// * [`RuntimeError::MicroBatch`] on a batch shape the compiler cannot
///   lower (see [`MicroBatchError`]), before any scratch row is
///   allocated;
/// * [`RuntimeError::OutOfMemory`] if the scratch group does not fit.
pub fn compile(
    programs: &[MicroProgram],
    opts: CompileOptions,
    sys: &mut PimSystem,
) -> Result<CompiledBatch, RuntimeError> {
    check_shape(programs).map_err(RuntimeError::MicroBatch)?;
    let Some(lanes) = programs.first().map(|p| p.a.lanes()) else {
        return Ok(CompiledBatch {
            requests: Vec::new(),
            scratch: Vec::new(),
            live_gates: 0,
        });
    };

    // 1. Expand every program into the shared DAG.
    let mut b = Builder::new(opts);
    let mut outputs: Vec<(usize, PimBitVec, PimBitVec)> = Vec::new();
    for p in programs {
        let seed = p.a.planes[0].clone();
        for (root, plane) in b.build_program(p) {
            outputs.push((root, plane, seed.clone()));
        }
    }
    let n = b.exprs.len();
    let node_args = |e: &Expr| -> Vec<usize> {
        match e {
            Expr::Not(x) => vec![*x],
            Expr::Gate(_, args) => args.clone(),
            _ => Vec::new(),
        }
    };

    // 2. Reachability + use counts from the output roots.
    let mut reach = vec![false; n];
    let mut stack: Vec<usize> = outputs.iter().map(|o| o.0).collect();
    while let Some(i) = stack.pop() {
        if std::mem::replace(&mut reach[i], true) {
            continue;
        }
        stack.extend(node_args(&b.exprs[i]));
    }
    let mut uses = vec![0usize; n];
    for (i, _) in reach.iter().enumerate().filter(|(_, r)| **r) {
        for a in node_args(&b.exprs[i]) {
            uses[a] += 1;
        }
    }
    for o in &outputs {
        uses[o.0] += 1;
    }

    // 3. Fusion: a single-use same-op child of an associative gate is
    //    inlined into its parent's operand list — its scratch write and
    //    pairwise decomposition steps disappear (OR further rides the
    //    multi-row-activation fan-in).
    let mut eff: Vec<Option<Vec<usize>>> = vec![None; n];
    let mut killed = vec![false; n];
    if opts.optimize {
        for i in 0..n {
            let Expr::Gate(op, args) = &b.exprs[i] else {
                continue;
            };
            if !reach[i] {
                continue;
            }
            let (op, args) = (*op, args.clone());
            let mut flat = Vec::with_capacity(args.len());
            let mut changed = false;
            for a in args {
                match &b.exprs[a] {
                    Expr::Gate(cop, cargs) if *cop == op && uses[a] == 1 => {
                        flat.extend(eff[a].clone().unwrap_or_else(|| cargs.clone()));
                        killed[a] = true;
                        changed = true;
                    }
                    _ => flat.push(a),
                }
            }
            if changed {
                let mut simplified = flat.clone();
                simplified.sort_unstable();
                match op {
                    BitwiseOp::Or | BitwiseOp::And => simplified.dedup(),
                    BitwiseOp::Xor => {
                        let mut out = Vec::with_capacity(simplified.len());
                        for a in simplified {
                            if out.last() == Some(&a) {
                                out.pop();
                            } else {
                                out.push(a);
                            }
                        }
                        simplified = out;
                    }
                    BitwiseOp::Not => unreachable!(),
                }
                // A degenerate list (< 2 operands) keeps the raw
                // flattening: duplicate operands are still correct
                // (x|x, x&x, x^x all have defined request semantics).
                if simplified.len() >= 2 {
                    flat = simplified;
                }
                eff[i] = Some(flat);
            }
        }
    }
    let eff_args = |i: usize, exprs: &[Expr], eff: &[Option<Vec<usize>>]| -> Vec<usize> {
        match &eff[i] {
            Some(v) => v.clone(),
            None => node_args(&exprs[i]),
        }
    };

    // 4. Final use counts over the fused DAG (liveness for slot reuse).
    let live: Vec<usize> = (0..n)
        .filter(|&i| reach[i] && !killed[i] && matches!(b.exprs[i], Expr::Not(_) | Expr::Gate(..)))
        .collect();
    let mut remaining = vec![0usize; n];
    for &i in &live {
        for a in eff_args(i, &b.exprs, &eff) {
            remaining[a] += 1;
        }
    }
    for o in &outputs {
        remaining[o.0] += 1;
    }

    // First output plane per gate root: the gate writes it directly;
    // extra outputs of the same root are copies.
    let mut root_plane: HashMap<usize, PimBitVec> = HashMap::new();
    for (root, plane, _) in &outputs {
        if matches!(b.exprs[*root], Expr::Not(_) | Expr::Gate(..)) {
            root_plane.entry(*root).or_insert_with(|| plane.clone());
        }
    }

    // 5. Schedule (index order is topological) with linear-scan slot
    //    recycling. A node's destination is fixed *before* its operands'
    //    slots are freed, so no request aliases dst with an operand.
    let mut loc: Vec<Option<AbsLoc>> = vec![None; n];
    for (slot, expr) in loc.iter_mut().zip(&b.exprs) {
        if let Expr::Input(idx) = expr {
            *slot = Some(AbsLoc::Plane(b.inputs[*idx].clone()));
        }
    }
    let mut abs: Vec<AbsReq> = Vec::with_capacity(live.len() + outputs.len());
    let mut free_slots: Vec<usize> = Vec::new();
    let mut slot_count = 0usize;
    for &i in &live {
        let (op, args) = match &b.exprs[i] {
            Expr::Not(x) => (BitwiseOp::Not, vec![*x]),
            Expr::Gate(op, _) => (*op, eff_args(i, &b.exprs, &eff)),
            _ => unreachable!("live nodes are gates"),
        };
        let dst = match root_plane.get(&i) {
            Some(plane) => AbsLoc::Plane(plane.clone()),
            None => AbsLoc::Slot(free_slots.pop().unwrap_or_else(|| {
                slot_count += 1;
                slot_count - 1
            })),
        };
        let arg_locs: Vec<AbsLoc> = args
            .iter()
            .map(|&a| loc[a].clone().expect("operands precede their gate"))
            .collect();
        abs.push(AbsReq {
            op,
            args: arg_locs,
            dst: dst.clone(),
        });
        loc[i] = Some(dst);
        for a in args {
            remaining[a] -= 1;
            if remaining[a] == 0 {
                if let Some(AbsLoc::Slot(s)) = loc[a] {
                    free_slots.push(s);
                }
            }
        }
    }
    let live_gates = abs.len();

    // 6. Output materialization for roots without a direct write: second
    //    outputs of a shared root, plain copies of an input, and constant
    //    planes (xor(p, p) = 0, inverted for all-ones).
    for (root, plane, seed) in &outputs {
        match &b.exprs[*root] {
            Expr::Not(_) | Expr::Gate(..) => {
                let first = &root_plane[root];
                if first.id() != plane.id() {
                    let src = AbsLoc::Plane(first.clone());
                    abs.push(AbsReq {
                        op: BitwiseOp::Or,
                        args: vec![src.clone(), src],
                        dst: AbsLoc::Plane(plane.clone()),
                    });
                }
            }
            Expr::Input(idx) => {
                let src = AbsLoc::Plane(b.inputs[*idx].clone());
                abs.push(AbsReq {
                    op: BitwiseOp::Or,
                    args: vec![src.clone(), src],
                    dst: AbsLoc::Plane(plane.clone()),
                });
            }
            Expr::Const(v) => {
                let seed = AbsLoc::Plane(seed.clone());
                abs.push(AbsReq {
                    op: BitwiseOp::Xor,
                    args: vec![seed.clone(), seed],
                    dst: AbsLoc::Plane(plane.clone()),
                });
                if *v {
                    abs.push(AbsReq {
                        op: BitwiseOp::Not,
                        args: vec![AbsLoc::Plane(plane.clone())],
                        dst: AbsLoc::Plane(plane.clone()),
                    });
                }
            }
        }
    }

    // 7. Materialize scratch (one group, placed together like any other
    //    co-operated vectors, on the channel of the first operand so
    //    requests mixing scratch and operands stay inside one channel)
    //    and resolve the abstract locations.
    let scratch = if slot_count > 0 {
        let channel = programs[0].a.planes[0].rows()[0].channel;
        sys.alloc_group_on_channel(channel, slot_count, lanes)?
    } else {
        Vec::new()
    };
    let resolve = |l: &AbsLoc| -> PimBitVec {
        match l {
            AbsLoc::Plane(p) => p.clone(),
            AbsLoc::Slot(s) => scratch[*s].clone(),
        }
    };
    let requests: Vec<BatchRequest> = abs
        .iter()
        .map(|r| BatchRequest {
            op: r.op,
            operands: r.args.iter().map(&resolve).collect(),
            dst: resolve(&r.dst),
        })
        .collect();
    Ok(CompiledBatch {
        requests,
        scratch,
        live_gates,
    })
}

/// Compile, execute through the lookahead planner, and release scratch —
/// the one-call path applications use.
///
/// # Errors
///
/// See [`compile`] and [`PimSystem::execute_batch`].
pub fn run(
    programs: &[MicroProgram],
    opts: CompileOptions,
    sys: &mut PimSystem,
) -> Result<ScheduleReport, RuntimeError> {
    let batch = compile(programs, opts, sys)?;
    let report = batch.execute(sys);
    batch.release(sys);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::MappingPolicy;
    use pinatubo_core::rng::SimRng;
    use pinatubo_core::OpClass;

    fn sys() -> PimSystem {
        PimSystem::pcm_default(MappingPolicy::SubarrayFirst)
    }

    fn lanes_of(rng: &mut SimRng, count: usize, width: u32) -> Vec<u64> {
        let max = ArithOp::lane_mask(width);
        let mut v: Vec<u64> = (0..count).map(|_| rng.gen_range_u64(0, max + 1)).collect();
        // Pin extremes so wrap/borrow corners are always exercised.
        let pins = [0, max, max - 1, 1, max / 2];
        for (slot, pin) in v.iter_mut().zip(pins) {
            *slot = pin;
        }
        v
    }

    #[test]
    fn pack_plane_matches_every_lane_bit() {
        // 200 lanes: three full words and a partial one.
        let mut rng = SimRng::seed_from_u64(0x1A4E);
        let values: Vec<u64> = (0..200).map(|_| rng.gen_range_u64(0, 1 << 12)).collect();
        for k in 0..12 {
            let plane = pack_plane(&values, k);
            assert_eq!(plane.len_bits(), 200);
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(plane.get(i as u64), v >> k & 1 == 1, "lane {i} bit {k}");
            }
        }
    }

    #[test]
    fn transposed_store_load_round_trips() {
        let mut s = sys();
        let v = s.alloc_transposed(100, 8).expect("alloc");
        assert_eq!(v.width_bits(), 8);
        assert_eq!(v.lanes(), 100);
        let vals: Vec<u64> = (0..100).map(|i| (i * 37) % 256).collect();
        s.store_lanes(&v, &vals).expect("store");
        assert_eq!(s.load_lanes(&v), vals);
        assert!(matches!(
            s.store_lanes(&v, &vec![0; 101]),
            Err(RuntimeError::StoreTooLong { .. })
        ));
    }

    #[test]
    fn add_matches_reference_fused_and_unfused() {
        for opts in [CompileOptions::optimized(), CompileOptions::unoptimized()] {
            let mut s = sys();
            let mut rng = SimRng::seed_from_u64(7);
            let a = s.alloc_transposed(70, 8).expect("a");
            let bb = s.alloc_transposed(70, 8).expect("b");
            let dst = s.alloc_transposed(70, 8).expect("dst");
            let av = lanes_of(&mut rng, 70, 8);
            let bv = lanes_of(&mut rng, 70, 8);
            s.store_lanes(&a, &av).expect("store a");
            s.store_lanes(&bb, &bv).expect("store b");
            run(&[MicroProgram::add(&a, &bb, &dst)], opts, &mut s).expect("run");
            let want: Vec<u64> = av
                .iter()
                .zip(&bv)
                .map(|(&x, &y)| ArithOp::Add.eval_lane(x, y, 8))
                .collect();
            assert_eq!(s.load_lanes(&dst), want, "opts {opts:?}");
        }
    }

    #[test]
    fn chained_programs_read_values_not_stale_rows() {
        // dst of program 0 feeds program 1 in the same batch; both
        // pipelines must see the produced value.
        for opts in [CompileOptions::optimized(), CompileOptions::unoptimized()] {
            let mut s = sys();
            let a = s.alloc_transposed(16, 8).expect("a");
            let bb = s.alloc_transposed(16, 8).expect("b");
            let mid = s.alloc_transposed(16, 8).expect("mid");
            let dst = s.alloc_transposed(16, 8).expect("dst");
            let av: Vec<u64> = (0..16).collect();
            let bv: Vec<u64> = (0..16).map(|i| 240 + i).collect();
            s.store_lanes(&a, &av).expect("store a");
            s.store_lanes(&bb, &bv).expect("store b");
            let batch = [
                MicroProgram::add(&a, &bb, &mid),
                MicroProgram::max(&mid, &a, &dst),
            ];
            run(&batch, opts, &mut s).expect("run");
            let want: Vec<u64> = av
                .iter()
                .zip(&bv)
                .map(|(&x, &y)| {
                    let m = ArithOp::Add.eval_lane(x, y, 8);
                    ArithOp::Max.eval_lane(m, x, 8)
                })
                .collect();
            assert_eq!(s.load_lanes(&dst), want, "opts {opts:?}");
        }
    }

    #[test]
    fn threshold_extremes_compile_to_constant_planes() {
        let mut s = sys();
        let a = s.alloc_transposed(32, 8).expect("a");
        let hi = s.alloc(32).expect("hi");
        let lo = s.alloc(32).expect("lo");
        let vals: Vec<u64> = (0..32).map(|i| i * 8).collect();
        s.store_lanes(&a, &vals).expect("store");
        let batch = [
            MicroProgram::threshold_const(&a, 255, &hi), // a > max: never
            MicroProgram::cmp_ge_const(&a, 0, &lo),      // a >= 0: always
        ];
        let compiled = compile(&batch, CompileOptions::default(), &mut s).expect("compile");
        assert_eq!(compiled.live_gates(), 0, "constant roots need no gates");
        compiled.execute(&mut s).expect("execute");
        assert_eq!(s.count_ones(&hi), 0);
        assert_eq!(s.count_ones(&lo), 32);
    }

    #[test]
    fn cse_shares_chains_across_programs() {
        let mut s = sys();
        let a = s.alloc_transposed(64, 16).expect("a");
        let bb = s.alloc_transposed(64, 16).expect("b");
        let d1 = s.alloc_transposed(64, 16).expect("d1");
        let ge = s.alloc(64).expect("ge");
        let lt = s.alloc(64).expect("lt");
        let batch = [
            MicroProgram::sub(&a, &bb, &d1),
            MicroProgram::cmp_ge(&a, &bb, &ge),
            MicroProgram::cmp_lt(&a, &bb, &lt),
        ];
        let fused = compile(&batch, CompileOptions::optimized(), &mut s).expect("fused");
        let naive = compile(&batch, CompileOptions::unoptimized(), &mut s).expect("naive");
        assert!(
            fused.requests().len() * 3 < naive.requests().len() * 2,
            "shared borrow chain must cut the request count by over a third \
             (fused {}, naive {})",
            fused.requests().len(),
            naive.requests().len()
        );
        let freed = fused.scratch_planes() + naive.scratch_planes();
        let before = s.allocator().free_rows();
        fused.release(&mut s);
        naive.release(&mut s);
        assert_eq!(
            s.allocator().free_rows(),
            before + freed as u64,
            "released scratch must round-trip free_rows"
        );
    }

    #[test]
    fn scratch_is_recycled_by_liveness() {
        let mut s = sys();
        let a = s.alloc_transposed(64, 32).expect("a");
        let bb = s.alloc_transposed(64, 32).expect("b");
        let dst = s.alloc_transposed(64, 32).expect("dst");
        let compiled = compile(
            &[MicroProgram::add(&a, &bb, &dst)],
            CompileOptions::default(),
            &mut s,
        )
        .expect("compile");
        assert!(
            compiled.scratch_planes() * 3 < compiled.live_gates(),
            "slot recycling must keep scratch well below one plane per gate \
             ({} slots for {} gates)",
            compiled.scratch_planes(),
            compiled.live_gates()
        );
        compiled.release(&mut s);
    }

    /// Compiles `batch` expecting a shape error, and checks that the
    /// rejection allocated nothing.
    fn rejected(s: &mut PimSystem, batch: &[MicroProgram]) -> MicroBatchError {
        let free_before = s.allocator().free_rows();
        let err = compile(batch, CompileOptions::default(), s).expect_err("bad batch shape");
        assert_eq!(s.allocator().free_rows(), free_before, "nothing allocated");
        match err {
            RuntimeError::MicroBatch(e) => e,
            other => panic!("expected a batch-shape error, got {other}"),
        }
    }

    #[test]
    fn read_before_write_of_a_destination_is_rejected() {
        let mut s = sys();
        let a = s.alloc_transposed(16, 8).expect("a");
        let bb = s.alloc_transposed(16, 8).expect("b");
        let dst = s.alloc_transposed(16, 8).expect("dst");
        // Program 0 reads `dst` before program 1 overwrites it.
        let batch = [
            MicroProgram::add(&dst, &a, &bb),
            MicroProgram::add(&a, &a, &dst),
        ];
        assert_eq!(
            rejected(&mut s, &batch),
            MicroBatchError::ReadBeforeWrite {
                program: 0,
                plane: dst.planes()[0].id(),
            }
        );
    }

    #[test]
    fn duplicate_destinations_are_rejected() {
        let mut s = sys();
        let a = s.alloc_transposed(16, 8).expect("a");
        let dst = s.alloc_transposed(16, 8).expect("dst");
        let batch = [
            MicroProgram::add(&a, &a, &dst),
            MicroProgram::sub(&a, &a, &dst),
        ];
        assert_eq!(
            rejected(&mut s, &batch),
            MicroBatchError::DuplicateDestination {
                program: 1,
                plane: dst.planes()[0].id(),
            }
        );
    }

    #[test]
    fn mixed_lane_counts_are_rejected() {
        let mut s = sys();
        let a = s.alloc_transposed(16, 8).expect("a");
        let wide = s.alloc_transposed(32, 8).expect("wide");
        let dst = s.alloc_transposed(16, 8).expect("dst");
        let wide_dst = s.alloc_transposed(32, 8).expect("wide dst");
        let batch = [
            MicroProgram::add(&a, &a, &dst),
            MicroProgram::add(&wide, &wide, &wide_dst),
        ];
        assert_eq!(
            rejected(&mut s, &batch),
            MicroBatchError::LaneMismatch {
                program: 1,
                expected: 16,
                got: 32,
            }
        );
    }

    #[test]
    fn scratch_lands_on_the_operands_channel() {
        let mut s = PimSystem::pcm_default(MappingPolicy::ChannelRotate);
        let channel = 2;
        let a = s.alloc_transposed_on_channel(channel, 64, 8).expect("a");
        let bb = s.alloc_transposed_on_channel(channel, 64, 8).expect("b");
        let dst = s.alloc_transposed_on_channel(channel, 64, 8).expect("dst");
        // Park the rotation cursor on another channel.
        let elsewhere = s.alloc_group(1, 64).expect("elsewhere");
        assert_ne!(elsewhere[0].rows()[0].channel, channel);
        let compiled = compile(
            &[MicroProgram::add(&a, &bb, &dst)],
            CompileOptions::default(),
            &mut s,
        )
        .expect("compile");
        assert!(compiled.scratch_planes() > 0);
        for r in compiled.requests() {
            let rows: Vec<_> = r
                .operands
                .iter()
                .chain([&r.dst])
                .map(|v| v.rows()[0])
                .collect();
            assert!(rows.iter().all(|row| row.channel == channel), "{rows:?}");
            assert!(OpClass::classify(&rows).is_in_memory(), "{rows:?}");
        }
    }

    #[test]
    fn empty_batch_compiles_to_nothing() {
        let mut s = sys();
        let compiled = compile(&[], CompileOptions::default(), &mut s).expect("empty");
        assert!(compiled.requests().is_empty());
        let report = compiled.execute(&mut s).expect("execute");
        assert_eq!(report.per_op.len(), 0);
    }
}
