//! Program interpretation over concrete `f64` arrays.
//!
//! The interpreter is the ground truth used by the test suite to check that
//! transformations — fission, interchange, tiling, fusion, idiom replacement
//! — preserve semantics, exactly the property normalization must have.
//!
//! Since PR 4 the default [`Interpreter`] drives the compiled execution
//! engine ([`crate::exec`]): the program is lowered once (flat array
//! storage, precomputed affine offset/stride plans for innermost loops,
//! closed-form zero-trip and constant-bound handling) and then executed
//! without any per-iteration symbolic evaluation. The pre-refactor
//! tree-walking interpreter survives as [`reference`] and is the baseline of
//! the differential tests and the paper-size throughput gate: both produce
//! bit-identical array state on every valid program.

use std::collections::BTreeMap;

use loop_ir::expr::Var;
use loop_ir::program::Program;

use crate::error::{MachineError, Result};
use crate::exec::CompiledProgram;

pub mod reference;

/// Concrete storage for every array of a program, laid out row-major.
///
/// Arrays are stored as a dense vector sorted by name, so the compiled
/// execution engine resolves them to indices once at lowering time instead
/// of per access.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProgramData {
    names: Vec<Var>,
    arrays: Vec<ArrayStorage>,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ArrayStorage {
    pub(crate) dims: Vec<i64>,
    pub(crate) strides: Vec<i64>,
    pub(crate) data: Vec<f64>,
}

impl ProgramData {
    /// Allocates storage for every array of the program, initializing every
    /// element with `init(array_name, flat_index)`.
    ///
    /// # Errors
    /// Returns an error if an array extent cannot be evaluated under the
    /// program's parameters.
    pub fn new_with(
        program: &Program,
        mut init: impl FnMut(&str, usize) -> f64,
    ) -> Result<ProgramData> {
        let mut names = Vec::with_capacity(program.arrays.len());
        let mut arrays = Vec::with_capacity(program.arrays.len());
        for (name, array) in &program.arrays {
            let dims = array
                .concrete_dims(&program.params)
                .ok_or_else(|| MachineError::UnboundSize(name.to_string()))?;
            if dims.iter().any(|d| *d < 0) {
                return Err(MachineError::UnboundSize(name.to_string()));
            }
            let strides = array
                .strides(&program.params)
                .ok_or_else(|| MachineError::UnboundSize(name.to_string()))?;
            let len: i64 = dims.iter().product();
            let data = (0..len as usize).map(|i| init(name.as_str(), i)).collect();
            names.push(name.clone());
            arrays.push(ArrayStorage {
                dims,
                strides,
                data,
            });
        }
        Ok(ProgramData { names, arrays })
    }

    /// Allocates zero-initialized storage.
    pub fn zeroed(program: &Program) -> Result<ProgramData> {
        ProgramData::new_with(program, |_, _| 0.0)
    }

    /// Allocates storage with a deterministic, array-dependent pattern, the
    /// initialization used by the benchmark suite (a stand-in for the
    /// PolyBench init kernels).
    pub fn seeded(program: &Program) -> Result<ProgramData> {
        ProgramData::new_with(program, |name, i| {
            let h = name
                .bytes()
                .fold(0u64, |acc, b| acc.wrapping_mul(31).wrapping_add(b as u64));
            let x = (h.wrapping_add(i as u64).wrapping_mul(2654435761)) % 1000;
            (x as f64) / 1000.0 + 0.01
        })
    }

    /// Returns a flat view of an array's contents.
    pub fn array(&self, name: &str) -> Option<&[f64]> {
        self.slot_by_str(name)
            .map(|slot| self.arrays[slot].data.as_slice())
    }

    /// Returns a mutable flat view of an array's contents.
    pub fn array_mut(&mut self, name: &str) -> Option<&mut [f64]> {
        self.slot_by_str(name)
            .map(|slot| self.arrays[slot].data.as_mut_slice())
    }

    /// The concrete dimensions of an array.
    pub fn dims(&self, name: &str) -> Option<&[i64]> {
        self.slot_by_str(name)
            .map(|slot| self.arrays[slot].dims.as_slice())
    }

    /// Maximum absolute difference between the same array in two data sets,
    /// used by equivalence tests.
    pub fn max_abs_diff(&self, other: &ProgramData, name: &str) -> Option<f64> {
        let a = self.array(name)?;
        let b = other.array(name)?;
        if a.len() != b.len() {
            return None;
        }
        Some(
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f64::max),
        )
    }

    /// Array names in storage (slot) order.
    pub(crate) fn array_names(&self) -> &[Var] {
        &self.names
    }

    /// Storage slot of an array, if allocated.
    pub(crate) fn slot(&self, name: &Var) -> Option<usize> {
        self.names.binary_search(name).ok()
    }

    fn slot_by_str(&self, name: &str) -> Option<usize> {
        self.names.binary_search_by(|n| n.as_str().cmp(name)).ok()
    }

    /// Storage of a slot.
    pub(crate) fn storage(&self, slot: usize) -> &ArrayStorage {
        &self.arrays[slot]
    }

    /// Mutable storage of a slot.
    pub(crate) fn storage_mut(&mut self, slot: usize) -> &mut ArrayStorage {
        &mut self.arrays[slot]
    }
}

/// The interpreter: executes a program over a [`ProgramData`] store through
/// the compiled execution engine.
#[derive(Debug, Clone, Default)]
pub struct Interpreter {
    /// Counts of executed computation instances, for test assertions.
    pub executed_statements: u64,
}

impl Interpreter {
    /// Creates an interpreter.
    pub fn new() -> Self {
        Interpreter::default()
    }

    /// Executes the program, mutating `data` in place.
    ///
    /// The program is lowered with [`CompiledProgram::lower`] and executed
    /// once; callers running the same program repeatedly should lower once
    /// themselves and call [`CompiledProgram::execute`] directly.
    ///
    /// # Errors
    /// Returns an error on out-of-bounds accesses, unbound variables or
    /// non-evaluable loop bounds. Lowering errors are reported before any
    /// array is mutated.
    pub fn run(&mut self, program: &Program, data: &mut ProgramData) -> Result<()> {
        let compiled = CompiledProgram::lower(program)?;
        self.executed_statements += compiled.execute(data)?;
        Ok(())
    }
}

/// Evaluation bindings type used by the reference interpreter.
pub(crate) type Bindings = BTreeMap<Var, i64>;

/// Convenience: runs a program on seeded data and returns the data.
///
/// # Errors
/// Propagates interpreter errors.
pub fn run_seeded(program: &Program) -> Result<ProgramData> {
    let mut data = ProgramData::seeded(program)?;
    Interpreter::new().run(program, &mut data)?;
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use loop_ir::nest::{BlasCall, BlasKind, Computation, Node};
    use loop_ir::parser::parse_program;
    use loop_ir::prelude::*;

    #[test]
    fn executes_a_simple_copy() {
        let p = parse_program(
            "program copy { param N = 8; array A[N]; array B[N];
               for i in 0..N { B[i] = A[i] * 2.0; } }",
        )
        .unwrap();
        let mut data =
            ProgramData::new_with(&p, |name, i| if name == "A" { i as f64 } else { 0.0 }).unwrap();
        Interpreter::new().run(&p, &mut data).unwrap();
        assert_eq!(
            data.array("B").unwrap(),
            &[0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0]
        );
    }

    #[test]
    fn gemm_matches_reference_computation() {
        let p = parse_program(
            "program gemm { param NI = 5; param NJ = 4; param NK = 3;
               scalar alpha = 2.0; scalar beta = 0.5;
               array A[NI][NK]; array B[NK][NJ]; array C[NI][NJ];
               for i in 0..NI { for j in 0..NJ {
                 C[i][j] = C[i][j] * beta;
                 for k in 0..NK { C[i][j] += alpha * A[i][k] * B[k][j]; }
               } } }",
        )
        .unwrap();
        let mut data = ProgramData::seeded(&p).unwrap();
        let a0 = data.array("A").unwrap().to_vec();
        let b0 = data.array("B").unwrap().to_vec();
        let c0 = data.array("C").unwrap().to_vec();
        Interpreter::new().run(&p, &mut data).unwrap();
        // reference
        let (ni, nj, nk) = (5usize, 4usize, 3usize);
        let mut c_ref = c0.clone();
        for i in 0..ni {
            for j in 0..nj {
                let mut acc = c0[i * nj + j] * 0.5;
                for k in 0..nk {
                    acc += 2.0 * a0[i * nk + k] * b0[k * nj + j];
                }
                c_ref[i * nj + j] = acc;
            }
        }
        let c = data.array("C").unwrap();
        for (x, y) in c.iter().zip(&c_ref) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn reduction_and_select_semantics() {
        let s = Computation::reduction(
            "S0",
            ArrayRef::new("acc", vec![cst(0)]),
            BinOp::Max,
            ScalarExpr::select(
                load("A", vec![var("i")]),
                CmpOp::Gt,
                fconst(0.0),
                load("A", vec![var("i")]),
                fconst(0.0),
            ),
        );
        let p = Program::builder("maxpos")
            .param("N", 6)
            .param("ONE", 1)
            .array("A", &["N"])
            .array("acc", &["ONE"])
            .node(for_loop("i", cst(0), var("N"), vec![Node::Computation(s)]))
            .build()
            .unwrap();
        let mut data = ProgramData::new_with(&p, |name, i| match name {
            "A" => [-3.0, 2.0, -1.0, 5.0, 4.0, -9.0][i],
            _ => f64::NEG_INFINITY,
        })
        .unwrap();
        Interpreter::new().run(&p, &mut data).unwrap();
        assert_eq!(data.array("acc").unwrap()[0], 5.0);
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let p = parse_program(
            "program oob { param N = 4; array A[N];
               for i in 0..N { A[i + 1] = 1.0; } }",
        )
        .unwrap();
        let mut data = ProgramData::zeroed(&p).unwrap();
        let err = Interpreter::new().run(&p, &mut data).unwrap_err();
        assert!(matches!(err, MachineError::OutOfBounds { .. }));
    }

    #[test]
    fn executed_statement_count() {
        let p = parse_program(
            "program count { param N = 3; param M = 4; array A[N][M];
               for i in 0..N { for j in 0..M { A[i][j] = 1.0; } } }",
        )
        .unwrap();
        let mut interp = Interpreter::new();
        let mut data = ProgramData::zeroed(&p).unwrap();
        interp.run(&p, &mut data).unwrap();
        assert_eq!(interp.executed_statements, 12);
    }

    #[test]
    fn strided_loops_and_symbolic_bounds() {
        let p = parse_program(
            "program strided { param N = 10; array A[N];
               for i in 0..N step 3 { A[i] = 7.0; } }",
        )
        .unwrap();
        let mut data = ProgramData::zeroed(&p).unwrap();
        Interpreter::new().run(&p, &mut data).unwrap();
        let a = data.array("A").unwrap();
        for (i, v) in a.iter().enumerate() {
            let expected = if i % 3 == 0 { 7.0 } else { 0.0 };
            assert_eq!(*v, expected, "element {i}");
        }
    }

    #[test]
    fn blas_call_node_executes() {
        let call = BlasCall {
            kind: BlasKind::Gemm,
            output: Var::new("C"),
            inputs: vec![Var::new("A"), Var::new("B")],
            dims: vec![var("N"), var("N"), var("N")],
            alpha: fconst(1.0),
            beta: fconst(0.0),
        };
        let p = Program::builder("blas")
            .param("N", 4)
            .array("A", &["N", "N"])
            .array("B", &["N", "N"])
            .array("C", &["N", "N"])
            .node(Node::Call(call))
            .build()
            .unwrap();
        let mut data = ProgramData::new_with(&p, |name, i| match name {
            "A" => (i % 4 == i / 4) as u8 as f64, // identity
            "B" => i as f64,
            _ => -1.0,
        })
        .unwrap();
        Interpreter::new().run(&p, &mut data).unwrap();
        let c = data.array("C").unwrap();
        let b: Vec<f64> = (0..16).map(|i| i as f64).collect();
        assert_eq!(c, b.as_slice());
    }

    #[test]
    fn seeded_data_is_deterministic() {
        let p =
            parse_program("program d { param N = 4; array A[N]; for i in 0..N { A[i] = A[i]; } }")
                .unwrap();
        let d1 = ProgramData::seeded(&p).unwrap();
        let d2 = ProgramData::seeded(&p).unwrap();
        assert_eq!(d1, d2);
        assert_eq!(d1.max_abs_diff(&d2, "A"), Some(0.0));
        assert_eq!(d1.dims("A"), Some(&[4_i64][..]));
    }
}
